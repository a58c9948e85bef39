import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from phlab.bump import BumpBound
from phlab.cli import _fd_jacobian
from phlab.deformation import (
    DeformationParams,
    ParamCaps,
    _fine_axis_on,
    _slab_grid,
    build_deformed_system,
    center_gap_condition,
    eigenvalue_rates,
    rate_inequalities,
    search_params,
    small_partial_sup,
)
from phlab.ergodic import make_rng
from phlab.errors import InfeasibleParamsError, ParameterTooLargeError
from phlab.torus import torus_distance

from conftest import chart_points


def test_chart_round_trip(system, rng):
    coords = (rng.random((2000, 4)) - 0.5) * 4 * system.params.delta
    back, inside = system.chart_p.to_chart(system.chart_p.from_chart(coords))
    assert np.max(np.abs(back - coords)) < 1e-12
    assert np.all(inside)


def test_charts_disjoint(system):
    gap = torus_distance(system.chart_p.center, system.chart_q.center)
    assert gap > 12 * system.params.delta


def _closed_form_p(system, coords):
    """P as the construction writes it, kept apart from the cube table."""
    a, b, c, d = np.moveaxis(coords, -1, 0)
    r = np.sqrt(a * a + b * b + d * d)
    coef = 1.0 - system.lu - system.params.eps_tilde
    return system.bump(system.params.k * c) * system.bump(r) * c * coef + system.lu * c


def _closed_form_q(system, coords):
    a, b, c, d = np.moveaxis(coords, -1, 0)
    r = np.sqrt(a * a + b * b + c * c)
    coef = 1.0 - 1.0 / system.ls - system.params.eps_tilde
    return system.bump(system.params.k * d) * system.bump(r) * d * coef + d / system.ls


@pytest.mark.parametrize("kind", ["plain", "tilde"])
def test_field_matches_closed_form_p_and_q(system, tilde, rng, kind):
    sys_ = system if kind == "plain" else tilde
    d, k = sys_.params.delta, sys_.params.k
    coords = (rng.random((20_000, 4)) - 0.5) * 4 * d
    coords[:5000, 2] = (rng.random(5000) - 0.5) * 2 * d / k  # active band of P
    coords[5000:10_000, 3] = (rng.random(5000) - 0.5) * 2 * d / k  # active band of Q
    cube_p, cube_q = sys_.cubes
    assert np.array_equal(sys_.field(cube_p, coords), _closed_form_p(sys_, coords))
    assert np.array_equal(sys_.field(cube_q, coords), _closed_form_q(sys_, coords))


def test_p_value_origin_and_outer_region(system, rng):
    d = system.params.delta
    for cube in system.cubes:
        assert abs(system.field(cube, np.zeros(4))) == 0.0
        # outer radial factor zero: only the linear y*mul/div term survives
        pts = rng.random((200, 4)) * d
        pts[:, 0] = d + rng.random(200) * d  # axis 0 is in the radius of both cubes
        vals = system.field(cube, pts)
        assert np.max(np.abs(vals - pts[:, cube.j] * cube.mul / cube.div)) < 1e-14


def test_p_value_inner_plateau(system):
    d, k = system.params.delta, system.params.k
    for cube in system.cubes:
        x = np.zeros(4)
        x[cube.j] = 0.4 * d / k  # |ky| <= delta/2 and r = 0: both bump factors are 1
        assert abs(system.field(cube, x) - x[cube.j]) < 1e-15


def test_p_odd_in_c(system, rng):
    for cube in system.cubes:
        pts = (rng.random((500, 4)) - 0.5) * 4 * system.params.delta
        pts[:, cube.j] = (rng.random(500) - 0.5) * 2 * system.params.delta / system.params.k
        flipped = pts.copy()
        flipped[:, cube.j] = -flipped[:, cube.j]
        assert np.max(np.abs(system.field(cube, pts) + system.field(cube, flipped))) < 1e-14


def test_q_value_against_p_symmetry(system, rng):
    # Q is P with (c, d) swapped and rate 1/ls in place of lu: the bump terms
    # agree once each is divided by its coefficient
    d, k = system.params.delta, system.params.k
    pts = (rng.random((2000, 4)) - 0.5) * 4 * d
    pts[:, 2] = (rng.random(2000) - 0.5) * 2 * d / k
    cube_p, cube_q = system.cubes
    bump_p = (system.field(cube_p, pts) - system.lu * pts[:, 2]) / cube_p.coef
    bump_q = (system.field(cube_q, _fine_axis_on(pts, 3)) - pts[:, 2] / system.ls) / cube_q.coef
    assert np.max(np.abs(bump_p - bump_q)) < 1e-17


def test_gradients_match_finite_differences(system, rng):
    d, k = system.params.delta, system.params.k
    pts = np.concatenate([
        (rng.random((300, 4)) - 0.5) * 4 * d,
        _slab_grid(d, k, n_c=7, n_abd=5),
    ])
    # inside the slab the c-profile varies at scale 1/k, so the truncation
    # term of the quotient carries a k^2 factor; h = 1e-9 keeps it ~1e-7
    # while the tiny P values keep cancellation far below that
    h = 1e-9
    for cube in system.cubes:
        an = system.field_gradient(cube, pts)
        for axis in range(4):
            e = np.zeros(4)
            e[axis] = h
            fd = (system.field(cube, pts + e) - system.field(cube, pts - e)) / (2 * h)
            denom = np.maximum(np.abs(fd), 1.0)
            assert np.max(np.abs(an[..., axis] - fd) / denom) < 1e-5


def test_dPdc_unit_at_origin(system):
    for cube in system.cubes:
        assert abs(system.field_gradient(cube, np.zeros(4))[cube.j] - 1.0) < 1e-15


def test_splitting_bounds_on_grid_and_slab(system, rng):
    d, k = system.params.delta, system.params.k
    g = np.linspace(-2 * d, 2 * d, 11)
    mesh = np.stack(np.meshgrid(g, g, g, g, indexing="ij"), axis=-1).reshape(-1, 4)
    pts = np.concatenate([mesh, _slab_grid(d, k), (rng.random((20000, 4)) - 0.5) * 4 * d])
    for cube, upper in zip(system.cubes, (system.luu / 2, 1.0 / (2 * system.lss))):
        dy = system.field_gradient(cube, _fine_axis_on(pts, cube.j))[..., cube.j]
        assert np.min(dy) >= 1.0 - 1e-9
        assert np.max(dy) <= upper + 1e-9


def test_cross_partials_vanish_when_kc_large(system, rng):
    d, k = system.params.delta, system.params.k
    for cube in system.cubes:
        pts = (rng.random((500, 4)) - 0.5) * 4 * d
        pts[:, cube.j] = np.sign(pts[:, cube.j]) * (d / k + rng.random(500) * d)  # |ky| >= delta
        g = system.field_gradient(cube, pts)
        assert np.max(np.abs(g[..., cube.others])) == 0.0


def test_deformation_identity_outside_charts(system, rng):
    pts = rng.random((3000, 4))
    _, in_p = system.chart_p.to_chart(pts)
    _, in_q = system.chart_q.to_chart(pts)
    outside = pts[~(in_p | in_q)]
    assert np.array_equal(system.deform(outside), outside)
    assert np.max(torus_distance(system.step(outside), system.auto.apply(outside))) == 0.0


def test_deformation_fixes_p(system):
    assert np.allclose(system.deform(system.chart_p.center), system.chart_p.center)
    assert np.allclose(system.step(system.chart_p.center), system.chart_p.center)
    assert np.allclose(system.step(system.chart_q.center), system.chart_q.center)


def test_bijectivity_random_and_grid(system, rng):
    pts = rng.random((10_000, 4))
    err = torus_distance(system.deform_inverse(system.deform(pts)), pts)
    assert np.max(err) < 1e-10
    g = np.linspace(-2 * system.params.delta, 2 * system.params.delta, 11)
    mesh = np.stack(np.meshgrid(g, g, g, g, indexing="ij"), axis=-1).reshape(-1, 4)
    grid_pts = system.chart_p.from_chart(mesh)
    err = torus_distance(system.step_inverse(system.step(grid_pts)), grid_pts)
    assert np.max(err) < 1e-10
    grid_pts = system.chart_q.from_chart(mesh)
    err = torus_distance(system.step(system.step_inverse(grid_pts)), grid_pts)
    assert np.max(err) < 1e-10


def test_fixed_point_jacobians(system):
    jp, jq = system.fixed_point_jacobians()
    assert np.allclose(jp, np.diag([system.luu, system.lss, 1.0, system.ls]), atol=1e-12)
    assert np.allclose(jq, np.diag([system.luu, system.lss, system.lu, 1.0]), atol=1e-12)


def test_jacobian_outside_charts_is_linear(system, rng):
    pts = rng.random((200, 4))
    _, in_p = system.chart_p.to_chart(pts)
    _, in_q = system.chart_q.to_chart(pts)
    outside = pts[~(in_p | in_q)]
    jc = system.jacobian_chart(outside)
    assert np.max(np.abs(jc - np.diag(system.rates))) == 0.0


def test_jacobian_finite_difference(system, rng):
    from phlab.torus import torus_displacement

    pts = np.concatenate([
        rng.random((300, 4)),
        chart_points(system, rng, 200),
    ])
    h = 1e-6
    fd = np.zeros((len(pts), 4, 4))
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        fd[:, :, i] = torus_displacement(system.step(pts + e), system.step(pts - e)) / (2 * h)
    an = system.jacobian(pts)
    rel = np.linalg.norm(an - fd, axis=(1, 2)) / np.linalg.norm(an, axis=(1, 2))
    assert np.max(rel) < 1e-5


def test_jacobian_inverse_chain(system, rng):
    pts = rng.random((300, 4))
    prod = system.jacobian_inverse(system.step(pts)) @ system.jacobian(pts)
    assert np.max(np.abs(prod - np.eye(4))) < 1e-9


def test_smooth_gluing_at_boundary(system, rng):
    d = system.params.delta
    off = 1e-6
    face = (rng.random((300, 3)) - 0.5) * 4 * d
    for roll in range(4):
        inner = np.roll(np.concatenate([np.full((300, 1), 2 * d - off), face], axis=1),
                        roll, axis=1)
        outer = inner.copy()
        outer[:, roll] = 2 * d + off
        a = system.chart_p.from_chart(inner)
        b = system.chart_p.from_chart(outer)
        assert np.max(torus_distance(system.deform(a), a)) < 1e-4
        assert np.max(np.abs(system.jacobian(a) - system.jacobian(b))) < 1e-4


def test_tilde_zero_eps_matches_plain(system, rng):
    clone = system.make_tilde(0.0)
    pts = np.concatenate([rng.random((200, 4)), chart_points(system, rng, 200)])
    assert np.max(torus_distance(clone.step(pts), system.step(pts))) == 0.0


def test_tilde_fixed_point_jacobians(tilde):
    eps = tilde.params.eps_tilde
    jp, jq = tilde.fixed_point_jacobians()
    assert np.allclose(np.diag(jp), [tilde.luu, tilde.lss, 1.0 - eps, tilde.ls], atol=1e-12)
    assert np.allclose(np.diag(jq), [tilde.luu, tilde.lss, tilde.lu, 1.0 / (1.0 - eps)],
                       atol=1e-12)


def test_tilde_indices_and_hyperbolicity(tilde):
    jp, jq = tilde.fixed_point_jacobians()
    assert int(np.sum(np.abs(np.diag(jp)) < 1)) == 3
    assert int(np.sum(np.abs(np.diag(jq)) < 1)) == 1
    for j in (jp, jq):
        assert np.min(np.abs(np.abs(np.diag(j)) - 1.0)) > 1e-6


def test_tilde_round_trip(tilde, rng):
    pts = np.concatenate([rng.random((1000, 4)), chart_points(tilde, rng, 500)])
    assert np.max(torus_distance(tilde.step_inverse(tilde.step(pts)), pts)) < 1e-10


def test_tilde_rejects_huge_eps(system):
    with pytest.raises(ParameterTooLargeError):
        system.make_tilde(50.0)
    with pytest.raises(ParameterTooLargeError):
        system.make_tilde(-0.1)


def test_search_params_satisfies_inequalities(params, bump_bound):
    checks = rate_inequalities(bump_bound.M, params.n, params.m)
    assert all(ok for _, _, _, ok in checks)
    _, _, _, ok = center_gap_condition(params.eps1, eigenvalue_rates(params.n, params.m)[2])
    assert ok
    assert params.n > params.m >= 1


def test_search_params_zero_M():
    # with M = 0 the bounds reduce to luu >= 2 lu, first feasible at (2, 1)
    params = search_params(BumpBound(M=0.0, argmin=(0, 0), min_value=0.0, grid=1))
    assert (params.n, params.m) == (2, 1)


def test_condition_holds_for_small_eps1():
    value, low, high, ok = center_gap_condition(0.01, 1.1)
    assert ok and low < 1.0 < high and value > 0.0


def test_search_params_k_raised_above_floor(bump_bound):
    params = search_params(bump_bound, ParamCaps(k_start=2.0))
    assert params.k > 2.0


def test_search_params_infeasible(bump_bound):
    with pytest.raises(InfeasibleParamsError):
        search_params(bump_bound, ParamCaps(n_max=2, m_max=1))


def test_partial_sup_below_budget(system):
    assert small_partial_sup(system) < system.params.eps0


# Rate-feasible pairs with n + m above this either exceed torus.ENUMERATION_CAP
# in select_fixed_point_pair, which lists every fixed point of the 4-D map, or
# take seconds to build; the ones kept build in well under a second.
MAX_N_PLUS_M = 10


@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_construction_across_param_caps(bump_bound, data):
    """Round trips, the FD Jacobian and the gluing on systems drawn across ParamCaps."""
    caps = ParamCaps()
    # the bump is one profile rescaled to delta, so M does not depend on delta
    pairs = [(n, m) for n in range(2, caps.n_max + 1) for m in range(1, min(n, caps.m_max + 1))
             if n + m <= MAX_N_PLUS_M
             and all(ok for *_, ok in rate_inequalities(bump_bound.M, n, m))]
    n, m = data.draw(st.sampled_from(pairs), label="n, m")
    # delta/k >= 1e-7 keeps the FD step 1e-3 * delta/k clear of rounding
    d = data.draw(st.floats(1e-3, caps.delta), label="delta")
    k = 10.0 ** data.draw(st.floats(np.log10(2.0), 4.0), label="log10 k")
    # on (0.95, 1) I_eps is nearly singular at p (Df = 1 - eps_tilde along c) and
    # round trips lose about 1e-16 * lu / (1 - eps_tilde); from 1 on make_tilde rejects
    eps_tilde = data.draw(st.floats(0.0, 1.2).filter(lambda e: not 0.95 < e < 1.0),
                          label="eps_tilde")
    lu = eigenvalue_rates(n, m)[2]
    eps1 = next(e for e in caps.eps1_candidates if center_gap_condition(e, lu)[3])
    system = build_deformed_system(DeformationParams(n=n, m=m, delta=d, k=k, eps1=eps1))
    try:
        system = system.make_tilde(eps_tilde)
    except ParameterTooLargeError:
        reject()
    rng = make_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

    def gap(a, b):
        return np.max(torus_distance(a, b))

    uniform = [c.chart.from_chart((rng.random((200, 4)) - 0.5) * 4 * d) for c in system.cubes]
    band = []
    for cube in system.cubes:
        coords = (rng.random((200, 4)) - 0.5) * d  # radius below delta: s(r) > 0
        coords[:, cube.j] = (rng.random(200) - 0.5) * 2 * d / k  # s(ky) > 0
        band.append(cube.chart.from_chart(coords))
    pts = np.concatenate([rng.random((200, 4)), *uniform, *band])
    assert gap(system.deform_inverse(system.deform(pts)), pts) < 1e-10
    assert gap(system.deform(system.deform_inverse(pts)), pts) < 1e-10
    # the float automorphism alone loses about luu**2 * eps on a round trip
    # (4e-9 at n = 9), which I_eps^-1 may stretch by up to lu / (1 - eps_tilde)
    auto = system.auto
    lost = max(gap(auto.apply_inverse(auto.apply(pts)), pts),
               gap(auto.apply(auto.apply_inverse(pts)), pts))
    tol = 1e-10 + lost * system.lu / (1.0 - eps_tilde)
    assert gap(system.step_inverse(system.step(pts)), pts) < tol
    assert gap(system.step(system.step_inverse(pts)), pts) < tol

    fd_pts = np.concatenate([rng.random((200, 4)), *uniform])
    ja = system.jacobian(fd_pts)
    rel = np.linalg.norm(ja - _fd_jacobian(system, fd_pts), axis=(1, 2)) / np.linalg.norm(
        ja, axis=(1, 2))
    assert np.max(rel) < 1e-5

    off = 1e-6
    face = (rng.random((100, 3)) - 0.5) * 4 * d
    for cube in system.cubes:
        for axis in range(4):
            a = cube.chart.from_chart(np.insert(face, axis, 2 * d - off, axis=1))
            b = cube.chart.from_chart(np.insert(face, axis, 2 * d + off, axis=1))
            assert gap(system.deform(a), a) < 1e-4
            assert np.max(np.abs(system.jacobian(a) - system.jacobian(b))) < 1e-4
