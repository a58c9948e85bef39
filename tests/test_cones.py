import numpy as np
import pytest

from phlab.cones import (
    SANDWICH_RTOL,
    ConeField,
    extract_splitting,
    growth_sandwich_check,
    plane_invariance_residual,
    standard_cones,
    verify_invariance,
)
from phlab.ergodic import make_rng
from phlab.product import LinearSystem
from phlab.torus import cat_power_product


@pytest.fixture(scope="module")
def pure_A():
    return LinearSystem(cat_power_product(3, 1))


def axes_cone(system, width=0.05):
    ax = system.chart_p.axes
    return ConeField("uu", ax[:, 0], ax[:, [2, 3, 1]], width)


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


def test_linear_invariance_exact_rates(pure_A):
    """For the plain automorphism the contraction and growth rates are exact."""
    lams = np.abs(pure_A.auto.splitting.eigenvalues)
    luu, lu = lams[0], lams[1]
    cone = axes_cone(pure_A, width=0.05)
    rep = verify_invariance(pure_A, cone, "forward", n_points=100, n_vectors=8,
                            rng=make_rng(3))
    assert rep.theta <= lu / luu + 1e-9
    assert rep.growth_gamma >= luu / np.sqrt(1 + cone.width**2) - 1e-9
    assert rep.forward_invariant and rep.unstable


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


def test_invariance_rejects_bad_args(system):
    cone = axes_cone(system)
    with pytest.raises(ValueError):
        verify_invariance(system, cone, "sideways", n_points=10)
    with pytest.raises(ValueError):
        verify_invariance(system, cone, "forward", n_points=0)


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
        mat = est.direction_matrix()
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
