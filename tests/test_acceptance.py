"""Acceptance suite: every criterion at full scale with its stated tolerance.

Each criterion prints one PASS/FAIL line with its runtime (on the real
stdout, so the lines survive pytest capture).  The deformed system and its
parameters come from the session fixtures; the parameter search itself is
criterion 3.
"""

import filecmp
import time
from contextlib import contextmanager

import numpy as np

from phlab.cli import run_task
from phlab.config import ExperimentConfig
from phlab.cones import standard_cones, verify_invariance, plane_invariance_residual
from phlab.deformation import (
    ParamCaps,
    center_gap_condition,
    eigenvalue_rates,
    rate_inequalities,
    search_params,
)
from phlab.ergodic import (
    OrbitSpec,
    bundle_exponent,
    bundle_exponent_batch,
    entropy_volume_identity,
    make_rng,
)
from phlab.gibbs import (
    CenterGrowthTracker,
    EmpiricalMeasure,
    SlabMassTracker,
    cesaro_push,
    seed_plaque,
    total_variation,
)
from phlab.product import LinearSystem, build_product
from phlab.skeleton import distinct_records, newton_periodic
from phlab.torus import (
    CAT_MAP,
    IntegerMatrix,
    ToralAutomorphism,
    enumerate_periodic,
    fixed_point_count,
    torus_distance,
)

_shared = {}


@contextmanager
def criterion(num, budget, label, capfd=None):
    t0 = time.time()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        wall = time.time() - t0
        verdict = "FAIL" if failed else "PASS"
        line = f"ACCEPTANCE {num:2d} {verdict}  {label}  ({wall:.1f}s, budget {budget}s)"
        if capfd is not None:
            with capfd.disabled():  # one visible line per criterion, every run
                print(line, flush=True)
        else:
            print(line, flush=True)
        if not failed:
            assert wall < budget, f"criterion {num} exceeded its runtime budget"


def test_01_bump_correctness(bump, capfd):
    with criterion(1, 1.0, "bump plateau/support/monotonicity/derivative", capfd):
        d = bump.delta
        xs = np.linspace(0.0, d / 2, 1000)
        assert np.all(bump(xs) == 1.0)
        xs = np.linspace(d, 10 * d, 1000)
        assert np.all(bump(xs) == 0.0)
        band = np.linspace(d / 2, d, 1002)[1:-1]
        assert np.all(np.diff(bump(band)) <= 0.0)
        core = np.linspace(d / 2 + d / 20, d - d / 20, 1000)
        assert np.all(np.diff(bump(core)) < 0.0)
        xs = np.linspace(0.0, 2 * d, 1000)
        xs = xs[(np.abs(xs - d / 2) > 1e-4) & (np.abs(xs - d) > 1e-4)]
        h = 1e-7
        fd = (bump(xs + h) - bump(xs - h)) / (2 * h)
        an = bump.derivative(xs)
        err = np.abs(an - fd)
        assert np.all((err <= 1e-6 * np.abs(fd)) | (err <= 1e-9))


def test_02_splitting_bounds(system, capfd):
    with criterion(2, 30.0, "1 <= dP/dc <= luu/2 and dQ/dd bounds on 21^4 grid", capfd):
        d = system.params.delta
        g = np.linspace(-2 * d, 2 * d, 21)
        mesh = np.stack(np.meshgrid(g, g, g, g, indexing="ij"), axis=-1).reshape(-1, 4)
        rng = make_rng(101)
        rand = (rng.random((100_000, 4)) - 0.5) * 4 * d
        pts = np.concatenate([mesh, rand])
        cube_p, cube_q = system.cubes
        pc = system.field_gradient(cube_p, pts)[..., 2]
        from phlab.deformation import _fine_axis_on

        qd = system.field_gradient(cube_q, _fine_axis_on(pts, 3))[..., 3]
        tol = 1e-9
        assert np.min(pc) >= 1.0 - tol and np.max(pc) <= system.luu / 2 + tol
        assert np.min(qd) >= 1.0 - tol and np.max(qd) <= 1 / (2 * system.lss) + tol


def test_03_parameter_feasibility(bump_bound, tmp_path, capfd):
    with criterion(3, 10.0, "search_params satisfies both inequality families", capfd):
        params = search_params(bump_bound, ParamCaps()).params
        checks = rate_inequalities(bump_bound.M, params.n, params.m)
        assert all(ok for _, lhs, rhs, ok in checks)
        assert all(lhs <= rhs for _, lhs, rhs, _ in checks)
        lu = eigenvalue_rates(params.n, params.m)[2]
        value, low, high, ok = center_gap_condition(params.eps1, lu)
        assert ok and value > 0.0 and low < 1.0 < high
        # the run report reproduces both inequality evaluations
        cfg = ExperimentConfig.from_dict({
            "seed": 7, "system": {"kind": "deformed", "auto_params": True},
            "task": {"bump_samples": 100, "grid_points": 5, "random_chart_points": 500,
                     "roundtrip_points": 500, "roundtrip_chart_points": 100,
                     "fd_points": 100},
        })
        report = run_task("verify-construction", cfg, str(tmp_path))
        names = {c.name for c in report.checks}
        assert "rate-inequality-unstable-rate" in names
        assert "rate-inequality-stable-rate" in names
        assert "center-gap-condition" in names
        assert report.all_passed


def test_04_bijectivity(system, capfd):
    with criterion(4, 10.0, "round trips < 1e-10 on 1e4 random + 1e3 chart points", capfd):
        rng = make_rng(104)
        d = system.params.delta
        pts = np.concatenate([
            rng.random((10_000, 4)),
            system.chart_p.from_chart((rng.random((500, 4)) - 0.5) * 4 * d),
            system.chart_q.from_chart((rng.random((500, 4)) - 0.5) * 4 * d),
        ])
        err = torus_distance(system.deform_inverse(system.deform(pts)), pts)
        assert np.max(err) < 1e-10
        err = torus_distance(system.step_inverse(system.step(pts)), pts)
        assert np.max(err) < 1e-10


def test_05_fixed_point_jacobians(system, capfd):
    with criterion(5, 10.0, "Df diagonal at p and q; FD agreement at 1e3 points", capfd):
        jp, jq = system.fixed_point_jacobians()
        assert np.max(np.abs(jp - np.diag([system.luu, system.lss, 1.0, system.ls]))) < 1e-8
        assert np.max(np.abs(jq - np.diag([system.luu, system.lss, system.lu, 1.0]))) < 1e-8
        rng = make_rng(105)
        d = system.params.delta
        pts = np.concatenate([
            rng.random((500, 4)),
            system.chart_p.from_chart((rng.random((250, 4)) - 0.5) * 4 * d),
            system.chart_q.from_chart((rng.random((250, 4)) - 0.5) * 4 * d),
        ])
        from phlab.torus import torus_displacement

        h = 1e-6
        fd = np.zeros((len(pts), 4, 4))
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd[:, :, i] = torus_displacement(system.step(pts + e),
                                             system.step(pts - e)) / (2 * h)
        an = system.jacobian(pts)
        rel = np.linalg.norm(an - fd, axis=(1, 2)) / np.linalg.norm(an, axis=(1, 2))
        assert np.max(rel) < 1e-5


def test_06_cone_program(system, capfd):
    with criterion(6, 60.0, "five cone conditions on 1e4 samples, zero violations", capfd):
        cones = standard_cones(system)
        plan = [("uu-forward", "forward", True), ("ss-backward", "backward", True),
                ("center-u", "forward", False), ("center-s", "backward", False)]
        for i, (name, direction, needs_growth) in enumerate(plan):
            rep = verify_invariance(system, cones[name], direction,
                                    n_points=2000, n_vectors=5, rng=make_rng(106, i))
            assert rep.samples >= 10_000
            assert rep.theta < 1.0, name
            assert rep.worst_violation == 0.0, name
            if needs_growth:
                assert rep.growth_gamma > 1.0, name
        assert plane_invariance_residual(system, 2000, rng=make_rng(106, 9)) < 1e-12


def test_07_lyapunov_signs(system, capfd):
    with criterion(7, 300.0, "cu > 0 and cs+ss < 0 on >= 99/100 orbits; 0 at p", capfd):
        starts = make_rng(107).random((100, 4))
        (cu, cs), (cu_ok, cs_ok) = bundle_exponent_batch(system, starts, 100_000, 1000)
        assert int(np.sum(cu > 0)) >= 99
        assert int(np.sum(cs < 0)) >= 99
        assert bool(np.all(cu_ok)) and bool(np.all(cs_ok))
        at_p, _ = bundle_exponent(
            system, OrbitSpec(start=system.chart_p.center, length=2000, transient=0))
        assert abs(at_p.value) < 1e-6


def _cesaro_session(system):
    if "cesaro" not in _shared:
        anchor = make_rng(108).random(4)
        plaque = seed_plaque(system, anchor, 0.1, 10_000)
        slab = SlabMassTracker(system)
        center = CenterGrowthTracker(system, 10_000, warmup=50)
        sampler = _CloudSampler(stride=20, keep=200)
        state = cesaro_push(system, plaque, 2000, (16,) * 4,
                            trackers=(slab, center, sampler))
        _shared["cesaro"] = (state, slab, center, sampler)
    return _shared["cesaro"]


class _CloudSampler:
    """Keeps a thin deterministic subsample of the pushed clouds."""

    def __init__(self, stride, keep):
        self.stride = stride
        self.keep = keep
        self.points = []

    def observe(self, step, pts, _record):
        if step % self.stride == 0:
            self.points.append(pts[: self.keep].copy())

    def cloud(self):
        return np.concatenate(self.points)


def _cs_log_inverse_growth(system, pts, depth=25):
    """-log||Df restricted to F^cs|| at each point, via backward pulls."""
    orbit = [np.atleast_2d(pts)]
    for _ in range(depth):
        orbit.append(system.step(orbit[-1]))
    v = np.broadcast_to(np.array([0.0, 1.0]), (orbit[0].shape[0], 2)).copy()
    for j in range(depth, 0, -1):
        m = system.jacobian_chart(orbit[j - 1])[:, 2:4, 2:4]
        v = np.linalg.solve(m, v[:, :, None])[:, :, 0]
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    m = system.jacobian_chart(orbit[0])[:, 2:4, 2:4]
    w = np.einsum("nij,nj->ni", m, v)
    return -np.log(np.linalg.norm(w, axis=1))


def test_08_gibbs_integral_positivity(system, capfd):
    with criterion(8, 300.0, "center volume integrals positive, slab within budget", capfd):
        state, slab, center, sampler = _cesaro_session(system)
        assert center.value > 0.0  # cu integral against the Cesaro estimate
        cs_vals = _cs_log_inverse_growth(system, sampler.cloud())
        assert float(np.mean(cs_vals)) > 0.0  # cs inverse integral, same estimate
        assert slab.value <= 0.01 + 0.02
        orbit = OrbitSpec(start=None, seed=108, length=100_000, transient=1000)
        cu, cs = bundle_exponent(system, orbit)
        assert cu.value > 0.0
        assert -cs.value > 0.0


def test_09_base_pushforward(system, capfd):
    with criterion(9, 120.0, "TV(base marginal, uniform) < 0.05 on 16^2", capfd):
        state, *_ = _cesaro_session(system)
        base = state.accumulated.marginal((0, 1))
        tv = total_variation(base, EmpiricalMeasure.uniform((16, 16)))
        assert tv < 0.05


def test_10_periodic_census(capfd):
    with criterion(10, 30.0, "newton + SNF census matches |det(D^n - I)|, n <= 5", capfd):
        cat = LinearSystem(ToralAutomorphism(CAT_MAP))
        d_mat = IntegerMatrix(CAT_MAP)
        rng = make_rng(110)
        expected = [1, 5, 16, 45, 121]
        for n in range(1, 6):
            guesses = np.array(enumerate_periodic(d_mat, n))
            recs = distinct_records(newton_periodic(
                cat, guesses + 1e-3 * rng.standard_normal(guesses.shape), n))
            assert len(recs) == fixed_point_count(d_mat, n) == expected[n - 1]


def test_11_tilde_indices(tilde, capfd):
    with criterion(11, 1.0, "stable indices 3 and 1 at p and q, gap > 1e-6", capfd):
        rec_p = newton_periodic(tilde, tilde.chart_p.center, 1)
        rec_q = newton_periodic(tilde, tilde.chart_q.center, 1)
        assert rec_p.stable_index == 3
        assert rec_q.stable_index == 1
        for rec in (rec_p, rec_q):
            assert np.min(np.abs(rec.multipliers - 1.0)) > 1e-6


def test_12_entropy_volume_identity(system, capfd):
    with criterion(12, 60.0, "unstable volume identity: exact linear, 0.01 deformed", capfd):
        product = build_product(
            LinearSystem(ToralAutomorphism(IntegerMatrix(CAT_MAP).power(3).entries)),
            ToralAutomorphism(CAT_MAP))
        _, _, gap = entropy_volume_identity(
            product, OrbitSpec(start=make_rng(112).random(4), length=3000, transient=0))
        assert gap < 1e-10
        _, _, gap = entropy_volume_identity(
            system, OrbitSpec(start=make_rng(113).random(4), length=100_000, transient=0))
        assert gap < 0.01


def test_13_determinism(tmp_path, capfd):
    with criterion(13, 120.0, "identical config and seed: byte-identical CSVs", capfd):
        cfg = ExperimentConfig.from_dict({
            "seed": 42, "system": {"kind": "deformed", "auto_params": True},
            "task": {"n_points": 200, "n_vectors": 4},
        })
        run_task("verify-cones", cfg, str(tmp_path / "a"))
        run_task("verify-cones", cfg, str(tmp_path / "b"))
        for name in ("report.csv", "cones.csv"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False)
        cfg2 = ExperimentConfig.from_dict({
            "seed": 42, "system": {"kind": "deformed", "auto_params": True},
            "task": {"n_orbits": 4, "orbit_length": 2000, "transient": 100,
                     "min_good_orbits": 4},
        })
        run_task("lyapunov", cfg2, str(tmp_path / "c"))
        run_task("lyapunov", cfg2, str(tmp_path / "d"))
        for name in ("report.csv", "bundle_exponents.csv", "lyapunov_history.csv"):
            assert filecmp.cmp(tmp_path / "c" / name, tmp_path / "d" / name,
                               shallow=False)
