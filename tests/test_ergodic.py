import itertools
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from phlab.cones import extract_splitting
from phlab.deformation import DeformationParams, build_deformed_system
from phlab.ergodic import (
    OrbitDivergedError,
    OrbitSpec,
    PesinBlockQuery,
    birkhoff_average,
    bundle_exponent,
    bundle_exponent_batch,
    entropy_volume_identity,
    lyapunov_spectrum,
    make_rng,
    orbit_jacobian,
    pesin_block_membership,
    push_forward,
)
from phlab.ergodic import _PointTally, _Tally, _center_cocycle, _point_cocycle
from phlab.errors import ParameterTooLargeError
from phlab.product import LinearSystem, build_product
from phlab.torus import CAT_MAP, IntegerMatrix, ToralAutomorphism, cat_power_product

from conftest import eps1_for, with_method
from test_deformation import _advance_points, _rate_feasible_pairs


@pytest.fixture(scope="module")
def pure_A():
    return LinearSystem(cat_power_product(3, 1))


def expected_logs(pure_A):
    return np.sort(np.log(np.abs(pure_A.auto.splitting.eigenvalues)))[::-1]


def test_orbit_spec_validation():
    with pytest.raises(ValueError):
        OrbitSpec(length=10, transient=10)


def test_batch_rejects_length_within_transient(system):
    with pytest.raises(ValueError, match="transient"):
        bundle_exponent_batch(system, np.zeros((2, 4)), 100, 200)


def test_pure_A_spectrum_exact(pure_A, rng):
    """On T^4 (the 2x2 center path) and on the cat map of T^2 (Benettin)."""
    for sys_ in (pure_A, _cat_map()):
        spec = lyapunov_spectrum(sys_, OrbitSpec(start=rng.random(sys_.dim), length=3000,
                                                 transient=10))
        assert np.max(np.abs(spec.exponents - expected_logs(sys_))) < 1e-10
        assert abs(spec.total) < 1e-10  # volume preserving


def _cat_map():
    return LinearSystem(ToralAutomorphism(CAT_MAP))


def _cat_product():
    return build_product(LinearSystem(ToralAutomorphism(IntegerMatrix(CAT_MAP).power(3))),
                         ToralAutomorphism(CAT_MAP))


def test_spectrum_frame_invariance(pure_A, rng):
    """Two random orthonormal frames on the same orbit give the same exponents,
    on the 2x2 path (frames of the (u, s) plane) and on the 4x4 path."""
    start = rng.random(4)
    orbit = OrbitSpec(start=start, length=2000, transient=0)
    for sys_, d in ((pure_A, 2), (_cat_product(), 4)):
        frames = [np.linalg.qr(make_rng(77, w).standard_normal((d, d)))[0] for w in range(2)]
        specs = [lyapunov_spectrum(sys_, orbit, frame0=f) for f in frames]
        assert np.max(np.abs(specs[0].exponents - specs[1].exponents)) < 1e-9


def test_deformed_spectrum_at_p(system):
    spec = lyapunov_spectrum(system, OrbitSpec(start=system.chart_p.center,
                                               length=1000, transient=0))
    target = np.sort(np.log([system.luu, system.lss, 1.0, system.ls]))[::-1]
    assert np.max(np.abs(spec.exponents - target)) < 1e-10
    assert abs(spec.exponents[1]) < 1e-12  # the center-unstable rate at p


def test_tilde_spectrum_at_fixed_points(tilde):
    eps = tilde.params.eps_tilde
    for center, rates in [
        (tilde.chart_p.center, [tilde.luu, tilde.lss, 1.0 - eps, tilde.ls]),
        (tilde.chart_q.center, [tilde.luu, tilde.lss, tilde.lu, 1.0 / (1.0 - eps)]),
    ]:
        spec = lyapunov_spectrum(tilde, OrbitSpec(start=center, length=800, transient=0))
        target = np.sort(np.log(rates))[::-1]
        assert np.max(np.abs(spec.exponents - target)) < 1e-10


def test_spectrum_sum_matches_log_det(system, rng):
    """The exponents add up to the average of log|det Df| over the same steps,
    the ambient 4x4 determinant; log_det is log luu + log lss plus the
    average of log|ad - bc| of the chart's (u, s) block, in step order."""
    start = rng.random(4)
    orbit = OrbitSpec(start=start, length=4000, transient=100)
    spec = lyapunov_spectrum(system, orbit)
    steps = int(spec.history[-1][0])
    x = start.copy()
    for _ in range(orbit.length - steps):
        x = system.step(x)
    acc, center = [], 0.0
    for _ in range(steps):
        acc.append(np.log(np.abs(np.linalg.det(system.jacobian(x)))))
        (a, b), (c, d) = system.jacobian_chart(x)[2:, 2:]
        center += np.log(np.abs(a * d - b * c))
        x = system.step(x)
    assert abs(spec.total - math.fsum(acc) / steps) < 1e-8
    assert spec.log_det == math.log(system.luu) + math.log(system.lss) + center / steps


class _Benettin:
    """A system seen through step, jacobian and jacobians only, which
    lyapunov_spectrum runs on the 4x4 Benettin path."""

    def __init__(self, system):
        self.dim, self.step, self.jacobian = system.dim, system.step, system.jacobian
        self.jacobians = system.jacobians


def _band_starts(sys_, rng, n):
    """n chart points of each cube's band, |k y| < delta and r < delta, on the
    torus: the only points whose (u, s) block is not diag(lu, ls)."""
    delta, k = sys_.params.delta, sys_.params.k
    out = []
    for cube in sys_.cubes:
        coords = (rng.random((n, 4)) - 0.5) * (2 * delta / np.sqrt(3))  # r < delta
        coords[:, cube.j] = (rng.random(n) - 0.5) * (2 * delta / k)
        out.append(cube.chart.from_chart(coords))
    pts = np.concatenate(out)
    blocks = sys_.jacobian_chart(pts)[:, 2:, 2:]
    assert not np.any(np.all(blocks == np.diag(sys_.rates[2:]), axis=(1, 2)))
    return pts


def _center_qr_oracle(system, starts, length, transient):
    """Forward 2x2 QR of the (u, s) block of jacobian_chart along step, by
    np.linalg.qr, from the frame e_u, e_s: the tallies of log r11 and log |r22|."""
    x = np.array(starts, dtype=float)
    frames = np.broadcast_to(np.eye(2), (len(x), 2, 2)).copy()
    tally = _Tally((2, len(x)), length, transient)
    for t in range(length):
        q, r = np.linalg.qr(system.jacobian_chart(x)[:, 2:, 2:] @ frames)
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        frames = q * np.where(diag < 0, -1.0, 1.0)[:, None, :]
        tally.add(t, np.log(np.abs(diag.T)))
        x = system.step(x)
    return tally.result()


@pytest.mark.parametrize("which", ["system", "tilde"])
def test_derived_cs_matches_forward_qr_oracle(which, request):
    """In exact arithmetic log|det B| - log|B v| is the second R diagonal of
    the 2x2 QR, so the derived cs (and cu, the first) match a generic forward
    QR to rounding, on orbits that start in the band of either cube."""
    sys_ = request.getfixturevalue(which)
    starts = _band_starts(sys_, make_rng(31), 6)
    for length, transient in ((300, 0), (2000, 0), (2000, 200)):
        got, _ = bundle_exponent_batch(sys_, starts, length, transient)
        want, _ = _center_qr_oracle(sys_, starts, length, transient)
        assert np.max(np.abs(got - want)) < 1e-12


class _RandomCocycle:
    """A stand-in system whose advance returns full random 2x2 blocks, which
    the deformed map never has (its center block is triangular in each cube):
    rotations times diag(singular values in [1/2, 2]) times rotations, so that
    log|det| is well conditioned."""

    def __init__(self, n):
        self.rng = make_rng(43)
        self.n = n

    def advance(self, x, forward, full):
        c, s = (f(self.rng.random((2, self.n)) * 2 * np.pi) for f in (np.cos, np.sin))
        rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)  # (2, n, 2, 2)
        sigma = self.rng.uniform(0.5, 2.0, (self.n, 2))
        return x, rot[0] * sigma[:, None, :] @ rot[1]

    def advance_point(self, x, forward, lo):
        return x, self.advance(None, forward, lo == 0)[1][0].tolist()


def test_center_cocycle_on_full_blocks():
    """On arbitrary 2x2 blocks the forward pass keeps the bits of the einsum
    and norm loop for log g, and at every step its second row is the second R
    diagonal of np.linalg.qr on the frame (v, v rotated by 90 degrees), and
    log|det B| that of np.linalg.det, to rounding."""
    n = 50
    logs = _center_cocycle(_RandomCocycle(n), np.zeros((n, 4)), np.tile((0.6, 0.8), (n, 1)))
    replay = _RandomCocycle(n)
    v = np.tile((0.6, 0.8), (n, 1))
    for _ in range(200):
        (got, log_det), (_, b) = next(logs), replay.advance(None, True, False)
        frames = np.stack([v, v @ np.array([[0.0, 1.0], [-1.0, 0.0]])], axis=2)
        r22 = np.linalg.qr(b @ frames)[1][:, 1, 1]
        w = np.einsum("nij,nj->ni", b, v)
        g = np.linalg.norm(w, axis=1)
        assert got[0].tobytes() == np.log(g).tobytes()
        assert np.max(np.abs(got[1] - np.log(np.abs(r22)))) < 1e-14
        assert np.max(np.abs(log_det - np.log(np.abs(np.linalg.det(b))))) < 1e-14
        v = w / g[:, None]


def test_point_cocycle_is_the_one_row_cocycle_bitwise():
    """On arbitrary 2x2 blocks, whose logs spread widely, the Python-float
    cocycle of one orbit gives the bits of the array cocycle on one row, both
    log R diagonals and log|det B|, step by step."""
    rows = _center_cocycle(_RandomCocycle(1), np.zeros((1, 4)), np.array([[0.6, 0.8]]))
    point = _point_cocycle(_RandomCocycle(1), [0.0] * 4, (0.6, 0.8))
    for _ in range(5000):
        (logs, log_det), (vals, det) = next(rows), next(point)
        assert np.array(vals).tobytes() == logs[:, 0].tobytes()
        assert det.hex() == float(log_det[0]).hex()


def test_point_tally_is_the_one_row_tally_bitwise():
    """_PointTally keeps _Tally's sums on one row bit for bit, so its means,
    flags and last-quarter moments are the same."""
    rng = make_rng(44)
    for length, transient in ((1000, 0), (1000, 250), (7, 3)):
        series = rng.standard_normal((length, 2)) * rng.uniform(0.1, 10.0, 2)
        array, point = _Tally((2, 1), length, transient), _PointTally(length, transient)
        for t, vals in enumerate(series):
            array.add(t, vals[:, None])
            point.add(t, tuple(vals.tolist()))
        got, want = point.result(), array.result()
        assert got[0].tobytes() == want[0].tobytes() and np.array_equal(got[1], want[1])
        for name in ("total", "q_sum", "q_sq"):
            assert getattr(point, name).tobytes() == getattr(array, name).tobytes(), name


def _backward_cs_oracle(system, starts, length, transient):
    """The former backward cs estimator: a seed on the s axis propagated along
    the backward orbit by solving with the (u, s) block, -log of its growth
    tallied."""
    x = np.atleast_2d(np.asarray(starts, dtype=float)).copy()
    tally = _Tally(x.shape[0], length, transient)
    vs = np.tile((0.0, 1.0), (x.shape[0], 1))
    for t in range(length):
        x, m = system.advance(x, False, False)
        w = np.linalg.solve(m, vs[:, :, None])[:, :, 0]
        g = np.sqrt(np.add.reduce(w * w, axis=1))
        tally.add(t, -np.log(g))
        vs = w / g[:, None]
    return tally.result()


@pytest.mark.parametrize("which", ["system", "tilde"])
def test_derived_cs_matches_backward_estimator_off_band(which, request):
    """Off the bands the center block is diag(lu, ls) at every step, so the
    derived cs has the bits of the former backward estimator, flags included."""
    sys_ = request.getfixturevalue(which)
    starts = make_rng(31).random((16, 4))
    for length, transient in ((300, 30), (2000, 200)):
        got = bundle_exponent_batch(sys_, starts, length, transient)
        want = _backward_cs_oracle(sys_, starts, length, transient)
        assert np.array_equal(got[0][1], want[0])
        assert np.array_equal(got[1][1], want[1])


@pytest.mark.parametrize("which", ["system", "tilde"])
def test_center_spectrum_matches_benettin(which, request):
    """The 2x2 spectrum with the exact log luu, log lss against the 4x4
    Benettin scheme on the ambient Df, at band starts of both cubes and at
    random starts.  From the frame (u, s, uu, ss) the 4x4 QR is the 2x2 one
    with R diagonals luu, lss in exact arithmetic, step by step, so a one-step
    orbit (no warm-up: the band step itself) agrees to rounding; from the
    identity frame the two agree once the warm-up has spun the frames."""
    sys_ = request.getfixturevalue(which)
    aligned = sys_.chart_p.axes[:, [2, 3, 0, 1]]
    starts = np.concatenate([_band_starts(sys_, make_rng(37), 3), make_rng(37).random((2, 4))])
    for start in starts:
        for length in (1, 800):
            orbit = OrbitSpec(start=start, length=length, transient=0)
            block = lyapunov_spectrum(sys_, orbit)
            full = lyapunov_spectrum(_Benettin(sys_), orbit, frame0=aligned)
            assert np.max(np.abs(block.exponents - full.exponents)) < 1e-12
            assert abs(block.log_det - full.log_det) < 1e-12
            if length > 1:
                full = lyapunov_spectrum(_Benettin(sys_), orbit)
                assert np.max(np.abs(block.exponents - full.exponents)) < 1e-9


def test_bundle_exponents_pure_A(pure_A, rng):
    """cu and cs from the forward pass, and the spectrum's exact uu and ss
    logs, are the logs of A's eigenvalues."""
    logs = expected_logs(pure_A)
    orbit = OrbitSpec(start=rng.random(4), length=1500, transient=100)
    cu, cs = bundle_exponent(pure_A, orbit)
    assert abs(cu.value - logs[1]) < 1e-12
    assert abs(cs.value - logs[2]) < 1e-12
    spec = lyapunov_spectrum(pure_A, orbit)
    assert abs(spec.exponents[0] - logs[0]) < 1e-12
    assert abs(spec.exponents[3] - logs[3]) < 1e-12


def test_bundle_exponent_at_p_is_zero(system):
    res, _ = bundle_exponent(system, OrbitSpec(start=system.chart_p.center,
                                               length=500, transient=0))
    assert abs(res.value) < 1e-12 and res.converged


def test_bundle_signs_random_orbits(system):
    starts = make_rng(9).random((10, 4))
    (cu, cs), (cu_ok, cs_ok) = bundle_exponent_batch(system, starts, 10_000, 200)
    assert np.all(cu > 0) and np.all(cs < 0)
    assert np.all(cu_ok) and np.all(cs_ok)


def test_bundle_sum_consistent_with_spectrum(system, rng):
    """The four bundle exponents, log luu, log lss and the forward pass's cu
    and cs, add up to the sum of the 4x4 Benettin spectrum."""
    start = rng.random(4)
    orbit = OrbitSpec(start=start, length=20_000, transient=200)
    cu, cs = bundle_exponent(system, orbit)
    total = math.log(system.luu) + math.log(system.lss) + cu.value + cs.value
    spec = lyapunov_spectrum(_Benettin(system), orbit)
    assert abs(total - spec.total) < 1e-2


def test_birkhoff_constant_observable(system, rng):
    res = birkhoff_average(system, OrbitSpec(start=rng.random(4), length=500,
                                             transient=50), lambda x: 1.0)
    assert res.value == 1.0 and res.converged


def test_birkhoff_chart_indicator(system, rng):
    """Time spent in the p-cube tracks its Lebesgue measure (16 delta^2)^2-ish;
    at desk scale just check it is far below the base-slab budget."""
    chart = system.chart_p

    def indicator(x):
        _, inside = chart.to_chart(x)
        return float(inside)

    res = birkhoff_average(system, OrbitSpec(start=rng.random(4), length=20_000,
                                             transient=100), indicator)
    assert res.value <= 0.01


def test_pesin_pure_A_member(pure_A):
    lams = np.abs(pure_A.auto.splitting.eigenvalues)
    alpha = 0.5 * math.log(lams[1])  # well below log(lu)
    q = PesinBlockQuery(alpha=alpha, l=2, horizon=4)
    member, first = pesin_block_membership(pure_A, np.array([0.3, 0.1, 0.7, 0.2]), q)
    assert member and first is None


def test_pesin_alpha_monotone(pure_A):
    x = np.array([0.3, 0.1, 0.7, 0.2])
    lu = np.abs(pure_A.auto.splitting.eigenvalues)[1]
    strong = PesinBlockQuery(alpha=0.9 * math.log(lu), l=1, horizon=3)
    weak = PesinBlockQuery(alpha=0.1 * math.log(lu), l=1, horizon=3)
    member_strong, _ = pesin_block_membership(pure_A, x, strong)
    member_weak, _ = pesin_block_membership(pure_A, x, weak)
    assert member_strong  # alpha still below log(lu)
    assert member_weak  # weaker requirement keeps membership


def test_pesin_excluded_above_top_rate(pure_A):
    lu = np.abs(pure_A.auto.splitting.eigenvalues)[1]
    q = PesinBlockQuery(alpha=1.1 * math.log(lu), l=1, horizon=3)
    member, first = pesin_block_membership(pure_A, np.array([0.3, 0.1, 0.7, 0.2]), q)
    assert not member and first == 1


def test_pesin_deformed_p_excluded(system):
    q = PesinBlockQuery(alpha=0.05, l=1, horizon=5)
    member, first = pesin_block_membership(system, system.chart_p.center, q)
    assert not member and first == 1  # backward E-product stalls at rate 1


def test_pesin_alpha_positive_required():
    with pytest.raises(ValueError):
        PesinBlockQuery(alpha=0.0, l=1, horizon=3)


@pytest.mark.parametrize("field, bad", [("l", 1.5), ("horizon", 2.0), ("l", True),
                                        ("horizon", "3")])
def test_pesin_query_refuses_non_integers(field, bad):
    kwargs = {"alpha": 0.1, "l": 1, "horizon": 2, field: bad}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        PesinBlockQuery(**kwargs)
    assert PesinBlockQuery(alpha=0.1, l=np.int64(2), horizon=3).l == 2


def _pesin_per_point(system, x, query):
    """pesin_block_membership as it was: one extract_splitting per orbit point."""
    x = np.asarray(x, dtype=float)
    log_bound = -query.alpha * query.l
    for bundles, forward in ((("cs", "ss"), True), (("uu", "cu"), False)):
        log_prod = 0.0
        y = x
        for i in range(query.horizon):
            est = extract_splitting(system, y, n_iter=40)
            basis = np.column_stack([est.directions[b] for b in bundles])
            m, y = orbit_jacobian(system, y, query.l, forward)
            log_prod += math.log(np.linalg.norm(m @ basis, ord=2))
            if log_prod > (i + 1) * log_bound + 1e-12:
                return False, i + 1
    return True, None


@pytest.mark.parametrize("kind", ["plain", "tilde", "pure_A"])
def test_pesin_one_walk_matches_per_point_loop(system, tilde, pure_A, kind):
    """The same (member, first failure) as the per-point loop, for l in {1, 2},
    horizons 1, 3 and 5, alphas on both sides of the verdicts, at random
    starts, p and q."""
    sys_ = {"plain": system, "tilde": tilde, "pure_A": pure_A}[kind]
    lu = np.abs(pure_A.auto.splitting.eigenvalues)[1] if kind == "pure_A" else system.lu
    starts = [*make_rng(61).random((2, 4)), system.chart_p.center, system.chart_q.center]
    verdicts = set()
    for x in starts:
        for l, horizon in itertools.product((1, 2), (1, 3, 5)):
            for alpha in (0.05, 0.5 * math.log(lu), 1.1 * math.log(lu)):
                q = PesinBlockQuery(alpha=alpha, l=l, horizon=horizon)
                got = pesin_block_membership(sys_, x, q)
                assert got == _pesin_per_point(sys_, x, q), (x, q)
                verdicts.add(got)
    assert (True, None) in verdicts and (False, 1) in verdicts


@pytest.mark.parametrize("l, horizon", [(1, 1), (1, 4), (2, 3)])
def test_pesin_walks_one_orbit(system, monkeypatch, l, horizon):
    """One pesin_block_membership makes 2 * 40 + 2 (horizon - 1) l advance
    steps inside extract_splitting, one walk for every orbit point it tests
    (orbit_jacobian's own steps are not counted)."""
    from phlab import cones

    calls, inside = [0], [False]
    extract, advance = cones.extract_splitting, type(system).advance

    def counted_extract(*args, **kwargs):
        inside[0] = True
        try:
            return extract(*args, **kwargs)
        finally:
            inside[0] = False

    def counted_advance(self, *args, **kwargs):
        calls[0] += inside[0]
        return advance(self, *args, **kwargs)

    monkeypatch.setattr(cones, "extract_splitting", counted_extract)
    monkeypatch.setattr(type(system), "advance", counted_advance)
    q = PesinBlockQuery(alpha=0.5 * math.log(system.lu), l=l, horizon=horizon)
    member, _ = pesin_block_membership(system, make_rng(67).random(4), q)
    assert member
    assert calls[0] == 2 * 40 + 2 * (horizon - 1) * l


def test_entropy_volume_deformed(system, rng):
    est, log_rate, gap = entropy_volume_identity(
        system, OrbitSpec(start=rng.random(4), length=5000, transient=0))
    assert abs(log_rate - math.log(system.luu)) < 1e-14
    assert gap < 1e-3


def test_entropy_volume_rejects_fiber_seed(system):
    with pytest.raises(ValueError):
        entropy_volume_identity(system, OrbitSpec(length=100, transient=0),
                                seed=system.chart_p.axes[:, 2])


def _push_forward_oracle(system, x, v, n):
    """push_forward as it was, with the norm through np.linalg.norm."""
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    logs = np.empty(n)
    for t in range(n):
        w = system.jacobian(x) @ v
        g = np.linalg.norm(w)
        logs[t] = math.log(g)
        v = w / g
        x = system.step(x)
    return v, logs


def test_push_forward_matches_linalg_norm_loop_bitwise(system, rng):
    product = _cat_product()
    for sys_, starts, n in ((system, [rng.random(4), system.chart_p.center,
                                      system.chart_q.center], 300),
                            (product, [rng.random(4), rng.random(4)], 2000),
                            (_cat_map(), [make_rng(29).random(2)], 2000)):
        for x in starts:
            v = rng.standard_normal(sys_.dim)
            got, want = push_forward(sys_, x, v, n), _push_forward_oracle(sys_, x, v, n)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()


def test_push_forward_stops_on_a_repeated_fixed_direction(pure_A, rng):
    """The repeat rule changes no bit of the logs or the direction: against
    the same loop on fresh writeable copies of each Df (never a repeat), on
    the shipped product and on pure_A, from exact axes and off them.  From the
    product's unstable axis it stops after a few of the 8000 steps."""
    product = _cat_product()
    seeds = {product: [product.skew_unstable_bundle()[0], rng.standard_normal(4)],
             pure_A: [*pure_A.axes.T, rng.standard_normal(4)]}
    for sys_, vs in seeds.items():
        drawn = [0]

        def counted(x, jacobians=sys_.jacobians):
            for jac in jacobians(x):
                drawn[0] += 1
                yield jac

        fresh = with_method(sys_, "jacobians",
                            lambda x, jacobians=sys_.jacobians: (j.copy() for j in jacobians(x)))
        for v in vs:
            x, drawn[0] = rng.random(4), 0
            got = push_forward(with_method(sys_, "jacobians", counted), x, v, 8000)
            want = push_forward(fresh, x, v, 8000)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            if sys_ is product and v is vs[0]:
                assert drawn[0] < 100


@pytest.mark.parametrize("which", ["system", "tilde"])
def test_deformed_jacobians_follow_step_bitwise(which, request):
    """jacobians(x) yields the bytes of jacobian(x_t), x_{t+1} = step(x_t),
    from band starts of both cubes, p, q and random points."""
    sys_ = request.getfixturevalue(which)
    starts = np.concatenate([_band_starts(sys_, make_rng(53), 3),
                             [sys_.chart_p.center, sys_.chart_q.center],
                             make_rng(53).random((3, 4))])
    for x in starts:
        for t, jac in zip(range(50), sys_.jacobians(x)):
            assert jac.tobytes() == sys_.jacobian(x).tobytes(), t
            x = sys_.step(x)


def test_constant_jacobians_repeat_one_read_only_object(pure_A, rng):
    for sys_ in (pure_A, _cat_map(), _cat_product()):
        x = rng.random(sys_.dim)
        jacs = sys_.jacobians(x)
        first = next(jacs)
        assert not first.flags.writeable
        assert first.tobytes() == sys_.jacobian(x).tobytes()
        assert all(jac is first for jac in itertools.islice(jacs, 20))


def _benettin_oracle(system, x, frame):
    """_benettin as it was: jacobian, QR, det and step on every step."""
    while True:
        jac = system.jacobian(x)
        q, r = np.linalg.qr(jac @ frame)
        diag = np.diagonal(r)
        frame = q * np.where(diag < 0, -1.0, 1.0)
        yield np.log(np.abs(diag)).tolist(), np.log(np.abs(np.linalg.det(jac)))
        x = system.step(x)


def _benettin_spectrum_oracle(system, orbit):
    """lyapunov_spectrum's Benettin path on _benettin_oracle: (exponents,
    history, log_det)."""
    x = orbit.resolve_start(system.dim)
    for _ in range(orbit.transient):
        x = system.step(x)
    logs = _benettin_oracle(system, x, np.eye(system.dim))
    warmup = min(200, (orbit.length - orbit.transient) // 2)
    for _ in range(warmup):
        next(logs)
    sums, log_det = [0.0] * system.dim, 0.0
    steps = orbit.length - orbit.transient - warmup
    stride = max(1, steps // 200)
    history = []
    for t in range(1, steps + 1):
        growth, det = next(logs)
        sums = [s + g for s, g in zip(sums, growth)]
        log_det += det
        if t % stride == 0 or t == steps:
            history.append((t, *(s / t for s in sums)))
    return np.sort(np.array(sums) / steps)[::-1], np.array(history), log_det / steps


class _FreshJacobians(_Benettin):
    """The system with jacobians yielding a fresh writable copy each step, so
    no QR step is reused."""

    def __init__(self, system):
        super().__init__(system)
        self.jacobians = lambda x: (jac.copy() for jac in system.jacobians(x))


def test_benettin_matches_step_by_step_oracle_bitwise():
    """Past the frame's bitwise fixed point (lengths 300 and 3000) the reused
    QR steps give the oracle's bytes, as does a fresh Df on every step."""
    for sys_ in (_cat_product(), _cat_map()):
        for length in (10, 300, 3000):
            orbit = OrbitSpec(start=make_rng(61).random(sys_.dim), length=length, transient=5)
            exponents, history, log_det = _benettin_spectrum_oracle(sys_, orbit)
            for view in (sys_, _FreshJacobians(sys_)):
                spec = lyapunov_spectrum(view, orbit)
                assert spec.exponents.tobytes() == exponents.tobytes()
                assert spec.history.tobytes() == history.tobytes()
                assert float(spec.log_det).hex() == float(log_det).hex()


# The single-orbit path as it was before its Python-float kernel: the array
# cocycle on a (1, 4) batch, which steps through the batch cube loop, with the
# array tally and the array sums of the spectrum.


def _center_cocycle_oracle(system, x, v):
    v0, v1 = v[:, 0], v[:, 1]
    logs = np.empty((2, len(v)))
    log_g, log_cs = logs
    while True:
        x, b = system.advance(x, True, False)
        b00, b01, b10, b11 = b[:, 0, 0], b[:, 0, 1], b[:, 1, 0], b[:, 1, 1]
        w0 = b00 * v0 + b01 * v1
        w1 = b10 * v0 + b11 * v1
        g = np.sqrt(w0 * w0 + w1 * w1)
        v0, v1 = w0 / g, w1 / g
        np.log(g, out=log_g)
        log_det = np.log(np.abs(b00 * b11 - b01 * b10))
        np.subtract(log_det, log_g, out=log_cs)
        yield logs, log_det


def _bundle_exponent_oracle(system, orbit):
    """(cu, cs) means and flags, each of shape (2, 1)."""
    x = orbit.resolve_start(system.dim)[None, :]
    tally = _Tally((2, 1), orbit.length, orbit.transient)
    logs = _center_cocycle_oracle(system, x, np.array([[1.0, 0.0]]))
    for t, (vals, _) in zip(range(orbit.length), logs):
        tally.add(t, vals)
    return tally.result()


def _spectrum_oracle(system, orbit):
    """lyapunov_spectrum's 2x2 path: (exponents, history, log_det)."""
    x = orbit.resolve_start(system.dim)[None, :]
    for _ in range(orbit.transient):
        x = system.step(x)
    fixed = np.log(system.rates[:2])
    logs = ((r[:, 0], det[0]) for r, det in _center_cocycle_oracle(system, x, np.array([[1.0, 0.0]])))
    warmup = min(200, (orbit.length - orbit.transient) // 2)
    for _ in range(warmup):
        next(logs)
    sums, log_det = np.zeros(2), 0.0
    steps = orbit.length - orbit.transient - warmup
    stride = max(1, steps // 200)
    history = []
    for t in range(1, steps + 1):
        growth, det = next(logs)
        sums += growth
        log_det += det
        if t % stride == 0 or t == steps:
            history.append((t, *fixed, *(sums / t)))
    exponents = np.sort(np.concatenate((fixed, sums / steps)))[::-1]
    return exponents, np.array(history), np.sum(fixed) + log_det / steps


def _assert_orbit_matches_oracle(system, orbit):
    """One-orbit bundle_exponent and lyapunov_spectrum against the oracles,
    bit for bit, or the same exception."""
    try:
        got = bundle_exponent(system, orbit)
    except Exception as exc:  # the exception is the outcome
        with pytest.raises(type(exc)):
            _bundle_exponent_oracle(system, orbit)
        with pytest.raises(type(exc)):
            lyapunov_spectrum(system, orbit)
        with pytest.raises(type(exc)):
            _spectrum_oracle(system, orbit)
        return type(exc)
    mean, converged = _bundle_exponent_oracle(system, orbit)
    assert np.array([a.value for a in got]).tobytes() == mean[:, 0].tobytes()
    assert [a.converged for a in got] == converged[:, 0].tolist()
    spec, (exponents, history, log_det) = lyapunov_spectrum(system, orbit), _spectrum_oracle(system, orbit)
    assert spec.exponents.tobytes() == exponents.tobytes()
    assert spec.history.tobytes() == history.tobytes()
    assert float(spec.log_det).hex() == float(log_det).hex()
    return None


def _row_outcome(fn, x):
    """The bytes of each array fn returns, or the type of what it raises."""
    try:
        out = fn(x)
    except Exception as exc:  # the exception is the outcome
        return type(exc)
    return [a.tobytes() for a in (out if isinstance(out, tuple) else (out,))]


#: a NaN, infinities, and a -0.0, 1.0 and -1e-17 that reduce to 0.0
_ODD_POINTS = np.array([[np.nan, 0.1, 0.2, 0.3], [0.1, np.inf, 0.2, 0.3],
                        [0.1, 0.2, -np.inf, 0.3], [-0.0, 0.5, 1.0, -1e-17]])


@settings(max_examples=10)
@given(data=st.data())
def test_one_row_kernel_is_the_batch_row_bitwise(bump, bump_bound, data):
    """Across ParamCaps, tilde systems and k up to 1e4 included: a single
    point through the one-row kernel gives the bytes of its (1, 4) batch,
    which takes the batch cube loop, in advance (both directions, with and
    without full), step, step_inverse, deform, deform_inverse and
    jacobian_chart, or raises the same
    exception: on random points, band and off-band points of both cubes, p
    and q, and _ODD_POINTS.  One-orbit bundle_exponent and lyapunov_spectrum
    from a band point of either cube give the bits of the array oracle on a
    (1, 4) batch; from a NaN or an infinite start both raise
    OrbitDivergedError."""
    n, m = data.draw(st.sampled_from(_rate_feasible_pairs(bump_bound)), label="n, m")
    k = 10.0 ** data.draw(st.floats(np.log10(2.0), 4.0), label="log10 k")
    eps_tilde = data.draw(st.floats(0.0, 0.9), label="eps_tilde")
    system = build_deformed_system(
        DeformationParams(n=n, m=m, delta=1.0 / 40.0, k=k, eps1=eps1_for(n, m)),
        bump=bump, bound=bump_bound)
    try:
        system = system.make_tilde(eps_tilde)
    except ParameterTooLargeError:
        reject()
    pts = _advance_points(system, make_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")), 4)
    maps = [system.step, system.step_inverse, system.deform, system.deform_inverse,
            system.jacobian_chart]
    maps += [lambda x, f=f, full=full: system.advance(x, f, full)
             for f in (True, False) for full in (False, True)]
    for x in np.concatenate([pts, _ODD_POINTS]):
        for fn in maps:
            assert _row_outcome(fn, x) == _row_outcome(fn, x[None]), x
    length = data.draw(st.integers(20, 300), label="length")
    transient = data.draw(st.integers(0, length - 1), label="transient")
    band = data.draw(st.sampled_from([4, 8, 20, 24]), label="band start")  # p, then q cube
    for start, raises in ((pts[band], None), (pts[-2], None), (pts[-1], None),
                          (_ODD_POINTS[0], OrbitDivergedError),
                          (_ODD_POINTS[1], OrbitDivergedError)):
        orbit = OrbitSpec(start=start, length=length, transient=transient)
        assert _assert_orbit_matches_oracle(system, orbit) is raises


def test_linear_one_row_kernel_matches_oracle(pure_A, rng):
    """LinearSystem's one-row kernel gives one orbit the bits of the array
    oracle, as the deformed map's does."""
    for length, transient in ((50, 0), (900, 100)):
        assert _assert_orbit_matches_oracle(
            pure_A, OrbitSpec(start=rng.random(4), length=length, transient=transient)) is None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_start_raises(system, bad):
    """A NaN or infinite coordinate screens into no cube, so its orbit would
    report A's exponents, flagged converged: one orbit, a batch row and the
    spectrum refuse it and name the start."""
    start = [0.4, bad, 0.2, 0.3]
    orbit = OrbitSpec(start=start, length=300, transient=10)
    with pytest.raises(OrbitDivergedError, match="orbit start"):
        bundle_exponent(system, orbit)
    with pytest.raises(OrbitDivergedError, match="orbit start"):
        lyapunov_spectrum(system, orbit)
    starts = np.array([[0.1, 0.2, 0.3, 0.4], start, [0.5, 0.6, 0.7, 0.8]])
    with pytest.raises(OrbitDivergedError, match=r"\(row 1\)"):
        bundle_exponent_batch(system, starts, 300, 10)


def test_finite_start_keeps_its_bits(system):
    """The finiteness check passes a finite start through unchanged, as the
    same array object."""
    start = np.array([0.4, 0.1, 0.2, 0.3])
    assert OrbitSpec(start=start, length=300, transient=10).resolve_start(4) is start
