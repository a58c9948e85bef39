import copy

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from phlab.cones import (
    SANDWICH_RTOL,
    ConeField,
    InvarianceReport,
    _aligned_residual,
    extract_splitting,
    growth_sandwich_check,
    plane_invariance_residual,
    standard_cones,
    verify_invariance,
)
from phlab.deformation import DeformationParams, build_deformed_system
from phlab.ergodic import make_rng
from phlab.errors import ParameterTooLargeError
from phlab.product import LinearSystem
from phlab.torus import cat_power_product

from conftest import eps1_for
from test_deformation import _advance_points, _rate_feasible_pairs


@pytest.fixture(scope="module")
def pure_A():
    return LinearSystem(cat_power_product(3, 1))


@pytest.fixture(scope="module")
def tilde_half(system):
    return system.make_tilde(0.5)


def axes_cone(system, width=0.05):
    ax = system.chart_p.axes
    return ConeField("uu", ax[:, 0], ax[:, [2, 3, 1]], width)


def ss_axes_cone(system, width=0.05):
    ax = system.chart_p.axes
    return ConeField("ss", ax[:, 1], ax[:, [0, 2, 3]], width)


def test_cone_membership_cases(system):
    cone = axes_cone(system, width=0.1)
    e_uu = system.chart_p.axes[:, 0]
    e_u = system.chart_p.axes[:, 2]
    inside, ratio = cone.contains(e_uu)
    assert inside and ratio < 1e-12
    inside, ratio = cone.contains(e_u)
    assert not inside and np.isinf(ratio)
    boundary = e_uu + 0.1 * e_u
    inside, ratio = cone.contains(boundary)
    assert inside and abs(ratio - 0.1) < 1e-12


def test_degenerate_width(system):
    cone = axes_cone(system, width=0.0)
    inside, _ = cone.contains(system.chart_p.axes[:, 0])
    assert inside


def test_transversality_required():
    v = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        ConeField("bad", v, v, 0.1)


def test_out_of_span_rejected(system):
    cone = ConeField("plane", system.chart_p.axes[:, 2], system.chart_p.axes[:, 3], 0.1)
    with pytest.raises(ValueError):
        cone.contains(system.chart_p.axes[:, 0])


def _assert_exact_rates(system, cone, direction, contraction, rate):
    rep = verify_invariance(system, cone, direction, n_points=100, n_vectors=8,
                            rng=make_rng(3))
    assert rep.theta <= contraction + 1e-9
    assert rep.growth_gamma >= rate / np.sqrt(1 + cone.width**2) - 1e-9
    assert rep.theta < 1.0 and rep.growth_gamma > 1.0


def test_linear_invariance_exact_rates(pure_A):
    """For the plain automorphism the contraction and growth rates are exact."""
    luu, _, lu, _ = pure_A.rates
    _assert_exact_rates(pure_A, axes_cone(pure_A, width=0.05), "forward", lu / luu, luu)


def test_linear_invariance_exact_rates_backward(pure_A):
    """Backward, the ss cone contracts by lss/ls and grows by 1/lss exactly."""
    _, lss, _, ls = pure_A.rates
    _assert_exact_rates(pure_A, ss_axes_cone(pure_A, width=0.05), "backward",
                        lss / ls, 1.0 / lss)


def _invariance_loop_oracle(system, cone, direction, pts, vs):
    """The per-point loop verify_invariance ran before it was batched, on given
    points and cone vectors vs of shape (n_points, n_vectors, dim)."""
    jacs = system.jacobian(pts) if direction == "forward" else system.jacobian_inverse(pts)
    theta, gamma, worst_ratio, witness, total = 0.0, np.inf, 0.0, pts[0], 0
    for i in range(len(pts)):
        pre = cone.ratio(vs[i])
        imgs = vs[i] @ jacs[i].T
        post = cone.ratio(imgs)
        growth = np.linalg.norm(imgs, axis=1) / np.linalg.norm(vs[i], axis=1)
        quot = post / pre
        j = int(np.argmax(quot))
        if quot[j] > theta:
            theta, witness, worst_ratio = float(quot[j]), pts[i], float(post[j])
        gamma = min(gamma, float(np.min(growth)))
        total += len(vs[i])
    return InvarianceReport(cone.name, direction, theta, gamma, total,
                            max(0.0, worst_ratio / cone.width - 1.0), witness, worst_ratio)


def _assert_matches_loop_oracle(system, cone, direction, n_points, n_vectors, seed):
    rng = make_rng(seed)
    draw = copy.deepcopy(rng)
    pts = draw.random((n_points, system.dim))
    vs = cone.sample(draw, n_points * n_vectors).reshape(n_points, n_vectors, -1)
    got = verify_invariance(system, cone, direction, n_points, n_vectors, rng=rng)
    want = _invariance_loop_oracle(system, cone, direction, pts, vs)
    for field in ("cone", "direction", "theta", "growth_gamma", "samples",
                  "worst_violation", "witness_ratio"):
        assert getattr(got, field) == getattr(want, field), field
    assert np.array_equal(got.witness_point, want.witness_point)


@pytest.mark.parametrize("kind", ["plain", "tilde"])
@pytest.mark.parametrize("name, direction", [
    ("uu-forward", "forward"), ("ss-backward", "backward"),
    ("center-u", "forward"), ("center-s", "backward")])
def test_verify_invariance_matches_loop_oracle(system, tilde_half, kind, name, direction):
    """The batched pass returns what the per-point loop returned, bit for bit."""
    sys_ = system if kind == "plain" else tilde_half
    cone = standard_cones(sys_)[name]
    _assert_matches_loop_oracle(sys_, cone, direction, 300, 5, seed=41)


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_verify_invariance_matches_loop_oracle_linear(pure_A, direction):
    _assert_matches_loop_oracle(pure_A, axes_cone(pure_A), direction, 100, 8, seed=43)


class _Identity:
    """Df = I everywhere: every quotient is exactly 1, so all samples tie."""

    dim = 4

    def jacobian(self, pts):
        return np.broadcast_to(np.eye(4), (len(pts), 4, 4))


def test_verify_invariance_ties_go_to_the_first_point(pure_A):
    cone = axes_cone(pure_A)
    rep = verify_invariance(_Identity(), cone, "forward", 20, 4, rng=make_rng(5))
    assert rep.theta == 1.0
    assert np.array_equal(rep.witness_point, make_rng(5).random((20, 4))[0])
    _assert_matches_loop_oracle(_Identity(), cone, "forward", 20, 4, seed=5)


def test_five_cone_conditions(system):
    cones = standard_cones(system)
    plan = [("uu-forward", "forward", True), ("ss-backward", "backward", True),
            ("center-u", "forward", False), ("center-s", "backward", False)]
    for i, (name, direction, needs_growth) in enumerate(plan):
        rep = verify_invariance(system, cones[name], direction,
                                n_points=400, n_vectors=5, rng=make_rng(11, i))
        assert rep.theta < 1.0, name
        assert rep.worst_violation == 0.0, name
        if needs_growth:
            assert rep.growth_gamma > 1.0, name
    assert plane_invariance_residual(system, 300) < 1e-12


@pytest.mark.parametrize("width", [0.0, -0.05])
def test_invariance_rejects_nonpositive_width(pure_A, width):
    with pytest.raises(ValueError, match="width"):
        verify_invariance(pure_A, axes_cone(pure_A, width=width), "forward", n_points=10)


def test_invariance_rejects_bad_args(system):
    cone = axes_cone(system)
    with pytest.raises(ValueError):
        verify_invariance(system, cone, "sideways", n_points=10)
    with pytest.raises(ValueError):
        verify_invariance(system, cone, "forward", n_points=0)


def _extract_splitting_oracle(system, x, n_iter, tolerance=1e-8):
    """extract_splitting before it walked its orbit with advance: point lists
    from step / step_inverse, one jacobian_chart and one inv per matrix, and
    cu / cs pushed through the 2x2 (u, s) slices.  Returns (directions,
    residuals, converged)."""
    def push_pair(mats, seed):
        v = seed / np.linalg.norm(seed)
        w = None
        for idx, m in enumerate(mats):
            v = m @ v
            v /= np.linalg.norm(v)
            if idx == 0:
                w = seed / np.linalg.norm(seed)
            else:
                w = m @ w
                w /= np.linalg.norm(w)
        return v, w

    x = np.asarray(x, dtype=float)
    back, fwd = [x], [x]
    for _ in range(n_iter):
        back.append(system.step_inverse(back[-1]))
        fwd.append(system.step(fwd[-1]))
    jac_fwd = [system.jacobian_chart(back[j]) for j in range(n_iter, 0, -1)]
    jac_bwd = [np.linalg.inv(system.jacobian_chart(fwd[j - 1])) for j in range(n_iter, 0, -1)]
    e = np.eye(4)
    pairs = {"uu": push_pair(jac_fwd, e[0]), "ss": push_pair(jac_bwd, e[1])}
    zero = [0.0, 0.0]
    for name, mats, seed in [("cu", jac_fwd, np.array([1.0, 0.0])),
                             ("cs", jac_bwd, np.array([0.0, 1.0]))]:
        v, w = push_pair([m[2:4, 2:4] for m in mats], seed)
        pairs[name] = (np.concatenate([zero, v]), np.concatenate([zero, w]))
    residuals = {name: _aligned_residual(v, w) for name, (v, w) in pairs.items()}
    directions = {name: system.chart_p.axes @ v for name, (v, _) in pairs.items()}
    return directions, residuals, all(r < tolerance for r in residuals.values())


def _assert_extraction_matches_oracle(system, points, n_iters):
    for x in points:
        for n_iter in n_iters:
            est = extract_splitting(system, x, n_iter=n_iter)
            directions, residuals, converged = _extract_splitting_oracle(system, x, n_iter)
            for name in directions:
                assert np.array_equal(est.directions[name], directions[name]), (name, n_iter)
                assert est.residuals[name] == residuals[name], (name, n_iter)
            assert est.converged == converged, n_iter


@pytest.mark.parametrize("kind", ["plain", "tilde", "pure_A"])
def test_extract_splitting_matches_point_list_oracle(system, tilde_half, pure_A, kind):
    """Walking the orbit with advance changes no bit of the extraction, on
    random points, in-band and out-of-band points of both cubes, p and q."""
    sys_ = {"plain": system, "tilde": tilde_half, "pure_A": pure_A}[kind]
    points = _advance_points(system, make_rng(47), 2)
    _assert_extraction_matches_oracle(sys_, points, (1, 40))


@settings(max_examples=6)
@given(data=st.data())
def test_extract_splitting_matches_oracle_across_param_caps(bump, bump_bound, data):
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
    pts = _advance_points(system, make_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")), 1)
    _assert_extraction_matches_oracle(system, pts, (1, 40))


@pytest.mark.parametrize("kind", ["plain", "tilde", "pure_A"])
def test_extract_splitting_shift_zero_is_the_plain_call(system, tilde_half, pure_A, kind):
    """shifts=[0] walks the orbit of the call without shifts: the same bits."""
    sys_ = {"plain": system, "tilde": tilde_half, "pure_A": pure_A}[kind]
    for x in _advance_points(system, make_rng(53), 1):
        for n_iter in (1, 40):
            want = extract_splitting(sys_, x, n_iter=n_iter)
            (got,) = extract_splitting(sys_, x, n_iter=n_iter, shifts=[0])
            assert got.point.tobytes() == want.point.tobytes()
            for name in want.directions:
                assert got.directions[name].tobytes() == want.directions[name].tobytes()
                assert got.residuals[name] == want.residuals[name]
            assert got.converged == want.converged


def _orbit_point(sys_, x, s):
    for _ in range(abs(s)):
        x = sys_.step(x) if s > 0 else sys_.step_inverse(x)
    return x


@pytest.mark.parametrize("kind", ["plain", "tilde", "pure_A"])
def test_extract_splitting_shifts_match_per_point_extraction(system, tilde, pure_A, kind):
    """The estimate at shift s, from one walk of x's orbit, is that of a call
    at f^s(x) of step / step_inverse, up to the rounding of the walk's points:
    random points, p and q, shifts out of order and repeated."""
    sys_ = {"plain": system, "tilde": tilde, "pure_A": pure_A}[kind]
    shifts = [2, -3, 0, 5, -1, 2, 1]
    starts = [*make_rng(59).random((3, 4)), system.chart_p.center, system.chart_q.center]
    for x in starts:
        for s, est in zip(shifts, extract_splitting(sys_, x, n_iter=40, shifts=shifts)):
            y = _orbit_point(sys_, x, s)
            assert est.point.tobytes() == y.tobytes()
            want = extract_splitting(sys_, y, n_iter=40)
            for name, d in want.directions.items():
                cos = abs(d @ est.directions[name]) / (
                    np.linalg.norm(d) * np.linalg.norm(est.directions[name]))
                assert 1.0 - cos < 1e-14, (s, name)
            assert est.converged == want.converged


def test_extract_splitting_refuses_non_integer_shifts(system):
    for bad in ([0.5], [0, True], [np.float64(1.0)], ["1"]):
        with pytest.raises(ValueError, match="shifts must be an integer"):
            extract_splitting(system, np.zeros(4), n_iter=3, shifts=bad)
    assert extract_splitting(system, np.zeros(4), n_iter=3, shifts=[]) == []
    (est,) = extract_splitting(system, np.zeros(4), n_iter=3, shifts=[np.int64(2)])
    assert np.array_equal(est.point, system.step(system.step(np.zeros(4))))


def test_extract_splitting_linear_exact(pure_A, rng):
    x = rng.random(4)
    est = extract_splitting(pure_A, x, n_iter=20)
    assert est.converged
    ax = pure_A.axes
    for name, col in [("uu", 0), ("ss", 1), ("cu", 2), ("cs", 3)]:
        assert abs(abs(est.directions[name] @ ax[:, col]) - 1.0) < 1e-12
        assert est.residuals[name] < 1e-12


def test_extract_splitting_at_p(system):
    est = extract_splitting(system, system.chart_p.center, n_iter=30)
    ax = system.chart_p.axes
    assert abs(abs(est.directions["cu"] @ ax[:, 2]) - 1.0) < 1e-12
    assert abs(abs(est.directions["cs"] @ ax[:, 3]) - 1.0) < 1e-12


def test_extract_splitting_random_points(system, rng):
    cones = standard_cones(system)
    for _ in range(5):
        x = rng.random(4)
        est = extract_splitting(system, x, n_iter=60)
        assert est.converged
        assert all(r < 1e-8 for r in est.residuals.values())
        inside, _ = cones["uu-forward"].contains(est.directions["uu"])
        assert inside
        mat = np.column_stack([est.directions[b] for b in ("uu", "cu", "cs", "ss")])
        assert np.linalg.matrix_rank(mat, tol=1e-6) == 4


def test_splitting_equivariance(system, rng):
    """Df maps each extracted direction to the direction at the image point."""
    for _ in range(3):
        x = rng.random(4)
        est_x = extract_splitting(system, x, n_iter=60)
        est_fx = extract_splitting(system, system.step(x), n_iter=60)
        jac = system.jacobian(x)
        for name in ("uu", "cu", "cs", "ss"):
            pushed = jac @ est_x.directions[name]
            pushed /= np.linalg.norm(pushed)
            target = est_fx.directions[name]
            angle = np.arccos(min(1.0, abs(float(pushed @ target))))
            assert angle < 1e-6, name


def test_domination_order(system, rng):
    """Single-step rates along the extracted bundles are strictly ordered."""
    for _ in range(3):
        x = rng.random(4)
        est = extract_splitting(system, x, n_iter=60)
        jac = system.jacobian(x)
        rates = {
            name: float(np.linalg.norm(jac @ est.directions[name]))
            for name in ("uu", "cu", "cs", "ss")
        }
        assert rates["uu"] > rates["cu"] > max(rates["cs"], rates["ss"])


def test_growth_sandwich_linear(pure_A):
    lams = np.abs(pure_A.auto.splitting.eigenvalues)
    cone = axes_cone(pure_A, width=0.05)
    v = pure_A.axes[:, 0] + 0.03 * pure_A.axes[:, 2]
    lo, val, hi = growth_sandwich_check(pure_A, np.zeros(4), v, 8, cone, lams[0])
    assert lo <= val <= hi
    # with an exact eigenvector the three values collapse
    lo, val, hi = growth_sandwich_check(pure_A, np.zeros(4), pure_A.axes[:, 0], 8,
                                        cone, lams[0])
    assert abs(val - lo) / lo < 1e-12


def test_growth_sandwich_counts_the_seed_norm_once(pure_A):
    """A scaled core vector grows exactly at the core rate, so the value is
    the lower bound; counting ||v|| twice would double it past the upper one."""
    rate = np.abs(pure_A.auto.splitting.eigenvalues)[0]
    cone = axes_cone(pure_A, width=0.05)
    lo, val, hi = growth_sandwich_check(pure_A, np.zeros(4), 2.0 * pure_A.axes[:, 0], 5,
                                        cone, rate)
    assert abs(val - lo) / lo < 1e-12
    assert val <= hi


def test_growth_sandwich_deformed(system, rng):
    cone = standard_cones(system)["uu-forward"]
    for i in range(3):
        v = cone.sample(make_rng(31, i), 1)[0]
        x = rng.random(4)
        lo, val, hi = growth_sandwich_check(system, x, v, 30, cone, system.luu)
        assert lo * (1 - SANDWICH_RTOL) <= val <= hi  # lower is attained in the limit


def test_growth_sandwich_rejects_fiber_vector(system):
    cone = standard_cones(system)["uu-forward"]
    fiber_only = system.chart_p.axes[:, 2]
    with pytest.raises(ValueError):
        growth_sandwich_check(system, np.zeros(4), fiber_only, 5, cone, system.luu)


def test_extract_requires_positive_iters(system):
    with pytest.raises(ValueError):
        extract_splitting(system, np.zeros(4), n_iter=0)
