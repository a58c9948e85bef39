import functools
import itertools
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from phlab import deformation
from phlab.bump import BumpBound, SmoothBump
from phlab.cli import _fd_jacobian
from phlab.cones import extract_splitting
from phlab.config import ExperimentConfig, build_system
from phlab.deformation import (
    SCREEN_SIDE,
    ChartBox,
    DeformationParams,
    DeformedSystem,
    ParamCaps,
    _fine_axis_on,
    _slab_grid,
    build_deformed_system,
    screen_cells,
    center_gap_condition,
    eigenvalue_rates,
    rate_inequalities,
    search_params,
    select_fixed_point_pair,
)
from phlab.ergodic import make_rng
from phlab.errors import InfeasibleParamsError, ParameterTooLargeError
from phlab.torus import (
    cat_power_product,
    chart_inverse,
    enumerate_periodic,
    reduce_torus,
    torus_displacement,
    torus_distance,
)

from conftest import chart_points, eps1_for, with_method
from test_bump import _profile_oracle


def test_chart_round_trip(system, rng):
    coords = (rng.random((2000, 4)) - 0.5) * 4 * system.params.delta
    back, inside = system.chart_p.to_chart(system.chart_p.from_chart(coords))
    assert np.max(np.abs(back - coords)) < 1e-12
    assert np.all(inside)


def _block_coords(chart, x):
    """Chart coordinates as two products and one sum per coordinate, on the
    2x2 blocks of the axes: d[e] a[e, i] + d[o] a[o, i]."""
    d, a = torus_displacement(x, chart.center), chart.axes
    first, second = [0, 0, 2, 2], [1, 1, 3, 3]
    return d[..., first] * a[first, range(4)] + d[..., second] * a[second, range(4)]


def _all_mask(chart, x):
    """Former inside-mask: a boolean reduction over the length-4 last axis."""
    return (np.abs(_block_coords(chart, x)) <= chart.half_width).all(axis=-1)


def _edge_coords(w):
    """Chart coordinates on, just inside and just outside the faces +-w."""
    up, down = np.nextafter(w, 1.0), np.nextafter(w, 0.0)
    rows = [[w, -w, w, -w], [-w, w, -w, w], [up, 0, 0, 0], [0, -up, 0, 0], [0, 0, up, 0],
            [0, 0, 0, -up], [down, -down, down, -down], [0, 0, 0, 0], [w, w, w, up],
            [-0.0, -0.0, -0.0, -0.0]]
    return np.array(rows, dtype=float)


def test_to_chart_mask_matches_all_reduction(system, rng):
    for chart in (system.chart_p, system.chart_q):
        w = chart.half_width
        # centered at 0 with identity axes, the coordinates of x are x itself
        exact = type(chart)(center=np.zeros(4), half_width=w, axes=np.eye(4))
        with pytest.raises(ValueError, match="block diagonal"):
            type(chart)(center=np.zeros(4), half_width=w, axes=np.eye(4)[:, [0, 2, 1, 3]])
        faces = _edge_coords(w)
        near = chart.from_chart(np.concatenate([faces, (rng.random((5000, 4)) - 0.5) * 3 * w]))
        batch = np.concatenate([faces, near, rng.random((100, 4))])
        for box in (chart, exact):
            for x in (batch, batch[:1], batch[:100], faces):
                _, mask = box.to_chart(x)
                want = _all_mask(box, x)
                assert mask.shape == want.shape and mask.dtype == want.dtype
                assert np.array_equal(mask, want)
            for x in faces:  # a single point (4,) gives a numpy bool scalar
                _, inside = box.to_chart(x)
                assert type(inside) is type(_all_mask(box, x))
                assert inside == _all_mask(box, x)
        _, exact_mask = exact.to_chart(faces)
        assert exact_mask.tolist() == [True, True] + [False] * 4 + [True, True, False, True]


def test_to_chart_mask_nan_and_inf(system):
    chart = system.chart_p
    x = np.tile(chart.center, (6, 1))
    x[0, 0], x[1, 3], x[2, 1], x[3, 2] = np.nan, np.inf, -np.inf, np.nan
    with np.errstate(invalid="ignore"):
        _, mask = chart.to_chart(x)
        assert np.array_equal(mask, _all_mask(chart, x))
        _, inside = chart.to_chart(x[0])
    assert mask.tolist() == [False] * 4 + [True, True]
    assert not inside


#: torus coordinates anywhere, and on either side of the 0/1 seam and of 1/2
_UNIT_FLOATS = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from([0.0, 2.0**-60, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
                     1 - 2.0**-40, 1 - 2.0**-53]))


@settings(max_examples=60)
@given(data=st.data())
def test_point_to_chart_is_to_chart_bitwise(system, data):
    """point_to_chart gives a point the coordinate bits and the flag that
    to_chart gives its row: on and one ulp either side of the cube faces, near
    the cube, across the 0/1 seam, at displacements of exactly +-1/2 from the
    center, anywhere, and with a NaN.  On the identity box at 0 the
    coordinates are the point itself, so the faces +-w are met exactly."""
    w = system.chart_p.half_width
    exact = ChartBox(center=np.zeros(4), half_width=w, axes=np.eye(4))
    box = data.draw(st.sampled_from([system.chart_p, system.chart_q, exact]), label="chart")
    edge = [0.0, w, np.nextafter(w, 1.0), np.nextafter(w, 0.0)]
    edge += [-v for v in edge[1:]]
    rows = st.lists(st.one_of(st.sampled_from(edge), st.floats(-3 * w, 3 * w)),
                    min_size=4, max_size=4)
    near = box.from_chart(np.array(data.draw(st.lists(rows, min_size=1, max_size=20),
                                             label="chart coordinates")))
    anywhere = np.array(data.draw(st.lists(st.lists(_UNIT_FLOATS, min_size=4, max_size=4),
                                           min_size=1, max_size=20), label="points"))
    signs = np.array(list(itertools.product([-0.5, 0.0, 0.5], repeat=4)))
    half = reduce_torus(box.center + signs)
    nan = np.where(np.eye(4, dtype=bool), np.nan, near[:1])
    pts = np.concatenate([near, anywhere, half, nan])
    with np.errstate(invalid="ignore"):
        coords, inside = box.to_chart(pts)
    for x, want, flag in zip(pts, coords, inside):
        got, got_flag = box.point_to_chart(x.tolist())
        got = np.array(got)
        assert got_flag == flag, x
        assert np.array_equal(np.isnan(got), np.isnan(want)), x
        assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes(), x


@settings(max_examples=10)
@given(data=st.data())
def test_screen_is_conservative_across_param_caps(bump_bound, data):
    """Every row that to_chart puts in a cube carries that cube's screen bit:
    on each cube's faces and corners and one ulp either side, on the bump's
    band, across the torus seam, near each cube and on 1e5 random points.  A
    NaN row passes through step as NaN."""
    n, m = data.draw(st.sampled_from(_rate_feasible_pairs(bump_bound)), label="n, m")
    d = data.draw(st.floats(1e-3, ParamCaps().delta), label="delta")
    k = 10.0 ** data.draw(st.floats(np.log10(2.0), 4.0), label="log10 k")
    eps_tilde = data.draw(st.sampled_from([0.0, 0.5]), label="eps_tilde")
    system = build_deformed_system(
        DeformationParams(n=n, m=m, delta=d, k=k, eps1=eps1_for(n, m)), bound=bump_bound)
    try:
        system = system.make_tilde(eps_tilde)
    except ParameterTooLargeError:
        reject()
    rng = make_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    w = 2 * d
    edge = [0.0, w, np.nextafter(w, 1.0), np.nextafter(w, 0.0)]
    edge += [-v for v in edge[1:]]
    faces = np.array(list(itertools.product(edge, repeat=4)))  # 7^4 rows
    seam = np.array(list(itertools.product([0.0, 2.0**-60, 1 - 2.0**-53, 1 - 2.0**-40],
                                           repeat=4)))
    uniform = rng.random((100_000, 4))
    pts = [seam, uniform]
    for cube in system.cubes:
        band = (rng.random((2000, 4)) - 0.5) * d
        band[:, cube.j] = (rng.random(2000) - 0.5) * 2 * d / k
        near = (rng.random((20_000, 4)) - 0.5) * 3 * w
        pts += [cube.chart.from_chart(c) for c in (faces, band, near)]
    pts = np.concatenate(pts)
    bits = system.screen(pts)
    for bit, cube in zip((1, 2), system.cubes):
        _, inside = cube.chart.to_chart(pts)
        assert np.count_nonzero(inside) > 5000
        assert np.all(bits[inside] & bit)
    # the screen rejects almost every point far from the cubes
    assert np.count_nonzero(system.screen(uniform)) < 1e-2 * len(uniform)

    batch = np.concatenate([[np.full(4, np.nan)], [c.chart.center for c in system.cubes],
                            uniform[:100]])
    out = system.step(batch)
    assert np.isnan(out[0]).all() and np.isnan(system.step(batch[0])).all()
    assert out[1:].tobytes() == system.step(batch[1:]).tobytes()


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


def _bisection_solve(system, cube, coords):
    """The former root solve, kept as an oracle: 80 bisections of [-2d, 2d],
    then 3 Newton steps.  Returns the root and the residual function."""
    j = cube.j
    target = coords[..., j] * cube.mul / cube.div

    def at(u):
        cc = coords.copy()
        cc[..., j] = u
        return cc

    def f(u):
        return system.field(cube, at(u)) - target

    w = 2.0 * system.params.delta
    lo, hi = np.full(coords[..., j].shape, -w), np.full(coords[..., j].shape, w)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        neg = f(mid) < 0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    u = 0.5 * (lo + hi)
    for _ in range(3):
        u = np.clip(u - f(u) / system.field_gradient(cube, at(u))[..., j], -w, w)
    return u, f


def _root(system, cube, coords):
    """The chart solve's root for chart points coords of shape (N, 4)."""
    y, r = cube.split(coords)
    return system._solve(cube, y, system.bump(r))[0]


# p-cube chart point of the default system where plain Newton from u = c
# alternates between two iterates across the steep edge of s(kc)
TWO_CYCLE_P = [-2.86344481e-3, -9.04460866e-3, 3.906360740312792e-6, 2.40997158e-3]


def test_solve_two_cycle_point_converges(system):
    cube = system.cubes[0]
    coords = np.array([TWO_CYCLE_P])
    y = coords[:, cube.j]
    _, f = _bisection_solve(system, cube, coords)

    def newton(u):
        cc = coords.copy()
        cc[:, cube.j] = u
        return u - f(u) / system.field_gradient(cube, cc)[:, cube.j]

    assert abs(newton(newton(y))[0] - y[0]) < 1e-12 * abs(y[0])  # plain Newton cycles
    u = _root(system, cube, coords)
    assert abs(f(u)[0]) < 1e-18
    assert abs(u[0] - _bisection_solve(system, cube, coords)[0][0]) <= 1e-16


@pytest.mark.parametrize("kind", ["plain", "tilde"])
def test_solve_matches_bisection_oracle(system, tilde, rng, kind):
    """In-band, out-of-band, r < delta/2 and r >= delta points of both cubes."""
    sys_ = system if kind == "plain" else tilde
    d, k = sys_.params.delta, sys_.params.k
    n = 2000
    for cube in sys_.cubes:
        coords = (rng.random((4 * n, 4)) - 0.5) * 4 * d
        y = coords[:, cube.j]
        others = coords[:, cube.others]
        y[:2 * n] = (rng.random(2 * n) - 0.5) * 2 * d / k  # |ky| < delta
        others[:n] = (rng.random((n, 3)) - 0.5) * d  # r < delta
        others[n:2 * n] = (rng.random((n, 3)) - 0.5) * d / 2  # r < delta / 2
        others[2 * n:3 * n, 0] = d + rng.random(n) * d  # r >= delta
        y[3 * n:] = np.sign(y[3 * n:]) * (d / k + rng.random(n) * (2 * d - d / k))  # |ky| >= d
        coords[:, cube.others] = others
        coords[2 * n:2 * n + 100, cube.j] = (rng.random(100) - 0.5) * 2 * d / k  # in band, r >= d

        u = _root(sys_, cube, coords)
        old, f = _bisection_solve(sys_, cube, coords)
        assert np.max(np.abs(u - old)) <= 1e-16
        # both roots sit at the rounding floor of evaluating F, whose two terms
        # are up to |u| (|coef| + mul/div) in size: the new residual may exceed
        # the oracle's at the same point by that floor, not more
        floor = 4 * np.spacing(np.abs(u) * (abs(cube.coef) + cube.mul / cube.div))
        assert np.all(np.abs(f(u)) <= np.abs(f(old)) + floor)
        y, r = cube.split(coords)
        out_of_band = (np.abs(k * y) >= d) | (r >= d)
        assert np.count_nonzero(out_of_band) >= 2 * n
        assert np.array_equal(u[out_of_band], y[out_of_band])


def _advance_points(sys_, rng, n):
    """Random torus points; in-band, out-of-band, r < delta/2 and r >= delta
    points of both cubes; and both fixed points."""
    d, k = sys_.params.delta, sys_.params.k
    pts = [rng.random((n, 4))]
    for cube in sys_.cubes:
        coords = (rng.random((4 * n, 4)) - 0.5) * 4 * d
        y = coords[:, cube.j]
        others = coords[:, cube.others]
        y[:2 * n] = (rng.random(2 * n) - 0.5) * 2 * d / k  # |ky| < delta
        others[:n] = (rng.random((n, 3)) - 0.5) * d  # r < delta
        others[n:2 * n] = (rng.random((n, 3)) - 0.5) * d / 2  # r < delta / 2
        others[2 * n:3 * n, 0] = d + rng.random(n) * d  # r >= delta
        y[3 * n:] = np.sign(y[3 * n:]) * (d / k + rng.random(n) * (2 * d - d / k))  # |ky| >= d
        coords[:, cube.others] = others
        pts.append(cube.chart.from_chart(coords))
    return np.concatenate(pts + [np.array([c.chart.center for c in sys_.cubes])])


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


#: how far a chart coordinate of a preimage, as jacobian_chart looks it up
#: again, may lie from the field point a backward advance used: each ambient
#: coordinate (below 1) is rounded twice on the way, by the move along axis j
#: and by the reduction, each time by at most 2^-53, and a chart coordinate
#: mixes two ambient ones with orthonormal weights (a factor below 2)
FIELD_POINT_ULP = 4 * 2.0**-53


@functools.lru_cache
def _bump_sups(delta):
    """sup over [0, delta] of |s'|, |s''|, |w| and |w'| (w = s + t s') and of
    t s(t) for SmoothBump(delta); s'' and w' by central differences of the
    profile on 2e5 cells, doubled as a margin over the grid."""
    t = np.linspace(0.0, delta, 200_001)
    s, ds = SmoothBump(delta).profile(t)
    w = s + t * ds
    d2s, dw = (np.abs(np.gradient(f, t)).max() for f in (ds, w))
    return np.abs(ds).max(), 2 * d2s, np.abs(w).max(), 2 * dw, (t * s).max()


def _backward_row_tol(sys_, cube):
    """The largest gap, entry by entry, between row j of a backward advance's
    Jacobian in ``cube`` and jacobian_chart's at the preimage: FIELD_POINT_ULP
    times the row's slope in the field point z, summed over its four chart
    coordinates, in closed form from k and the bump.  dF/dy = s(r) coef w(ky)
    + mul/div has slope at most |coef| (k sup|w'| + 3 sup|w| sup|s'|); a
    cross partial coef y s(ky) s'(r) a / r at most |coef| (sup|w| sup|s'|
    + 3 sup t s(t) (sup|s''| + 4 sup|s'| / delta) / k), as s' vanishes for
    r < delta / 2.  The implicit row at q, 1 / dF/dy and -rate dF/da / dF/dy,
    divides by dF/dy >= 1 - eps_tilde once or twice."""
    d, k = sys_.params.delta, sys_.params.k
    s1, s2, w0, w1, t0 = _bump_sups(d)
    coef = abs(cube.coef)
    slope = coef * max(k * w1 + 3 * w0 * s1, w0 * s1 + 3 * t0 * (s2 + 4 * s1 / d) / k)
    if cube.forward_explicit:
        return FIELD_POINT_ULP * slope
    g_min, cross = 1.0 - sys_.params.eps_tilde, coef * t0 * s1 / k
    rate = sys_.rates[cube.j]
    return FIELD_POINT_ULP * slope * max(1 / g_min**2, rate * (1 / g_min + cross / g_min**2))


def _assert_backward_jacobian(sys_, pre, got, want):
    """A backward advance Jacobian against jacobian_chart at the preimage pre:
    bit for bit, except on row j of a point in a cube, which must agree
    within _backward_row_tol of that cube."""
    got, want = got.reshape(-1, 4, 4), np.ascontiguousarray(want).reshape(-1, 4, 4)
    tol = np.zeros(got.shape[:2])
    for cube in sys_.cubes:
        tol[cube.chart.to_chart(np.atleast_2d(pre))[1], cube.j] = _backward_row_tol(sys_, cube)
    changed = tol > 0
    same = got.view(np.int64) == want.view(np.int64)
    assert same[~changed].all()
    assert np.all(np.abs(got - want).max(axis=-1) <= tol)


def _assert_advance_is_step_and_jacobian_chart(sys_, pts, singles):
    """advance against step / step_inverse and jacobian_chart in both
    directions, on the batch and on the single points pts[singles]: bit for
    bit, except for the backward Jacobian's in-cube rows
    (_assert_backward_jacobian)."""
    for forward in (True, False):
        img = sys_.step(pts) if forward else sys_.step_inverse(pts)
        jac = sys_.jacobian_chart(pts if forward else img)
        got_img, got_jac = sys_.advance(pts, forward)
        assert _same_bits(got_img, img), forward
        if forward:
            assert _same_bits(got_jac, jac), forward
        else:
            _assert_backward_jacobian(sys_, img, got_jac, jac)
        for i in singles:
            one = sys_.step(pts[i]) if forward else sys_.step_inverse(pts[i])
            got_img, got_jac = sys_.advance(pts[i], forward)
            assert _same_bits(got_img, one), (forward, i)
            want = sys_.jacobian_chart(pts[i] if forward else one)
            if forward:
                assert _same_bits(got_jac, want), (forward, i)
            else:
                _assert_backward_jacobian(sys_, one, got_jac, want)


@pytest.mark.parametrize("eps_tilde", [0.0, 0.5])
def test_advance_matches_step_and_jacobian_chart_bitwise(system, rng, eps_tilde):
    sys_ = system.make_tilde(eps_tilde)
    pts = _advance_points(sys_, rng, 200)
    n = len(pts)
    # random; per cube in band, in band at r < delta/2, r >= delta, out of band; p, q
    singles = [0, 200, 400, 600, 800, 1000, 1200, 1400, 1600, n - 2, n - 1]
    _assert_advance_is_step_and_jacobian_chart(sys_, pts, singles)


class _NoAutomorphism:
    """Stands in for DeformedSystem.auto: any use of A fails."""

    def __getattr__(self, name):
        raise AssertionError(f"A was used: auto.{name}")


@pytest.mark.parametrize("eps_tilde", [0.0, 0.05])
def test_jacobian_chart_is_the_forward_pass_without_A(system, rng, eps_tilde):
    """jacobian_chart is advance(x)[1] bit for bit, on _advance_points' kinds
    (random, in band, out of band, r < delta/2, r >= delta in both cubes, p
    and q) as one batch and one point at a time, and never applies A."""
    sys_ = system if eps_tilde == 0.0 else system.make_tilde(eps_tilde)
    pts = _advance_points(sys_, rng, 50)
    want = sys_.advance(pts)[1]
    no_a = with_method(sys_, "auto", _NoAutomorphism())
    assert _same_bits(no_a.jacobian_chart(pts), want)
    for x, jac in zip(pts, want):
        assert _same_bits(no_a.jacobian_chart(x), jac), x
        assert _same_bits(sys_.advance(x)[1], jac), x


@pytest.mark.parametrize("eps_tilde", [0.0, 0.05])
def test_step_record_is_step_and_its_screen_bitwise(system, rng, eps_tilde):
    """step_record's image has the bytes of step, its rows are the nonzero rows
    of screen and its uu_ss the (uu, ss) table at screen_cells: on band and
    off-band rows of both cubes, p, q and a NaN row, each alone among far rows
    in batches of 2 and 100, all together, and among 1e4 random rows."""
    sys_ = system if eps_tilde == 0.0 else system.make_tilde(eps_tilde)
    special = np.concatenate([_advance_points(sys_, rng, 20), np.full((1, 4), np.nan)])
    far = rng.random((2000, 4))
    far = far[sys_.screen(far) == 0]
    big = rng.random((10_000, 4))
    big[rng.choice(len(big), len(special), replace=False)] = special
    batches = [special, big]
    for n in (2, 100):
        for i, x in enumerate(np.concatenate([special[20::9], special[-3:]])):
            batch = far[rng.choice(len(far), n, replace=False)]
            batch[i % n] = x
            batches.append(batch)
    moved = 0
    for pts in batches:
        before = pts.copy()
        img, record = sys_.step_record(pts)
        assert _same_bits(pts, before)  # the cube pass moved a copy
        want = sys_.step(pts)
        assert _same_bits(img, want)
        assert np.array_equal(record.rows, sys_.screen(pts).nonzero()[0])
        uu_ss = sys_.screen_tables[0][screen_cells(pts)[:, 0]]
        assert record.uu_ss.dtype == uu_ss.dtype and np.array_equal(record.uu_ss, uu_ss)
        moved += np.count_nonzero((want.view(np.int64) != sys_.auto.apply(pts).view(np.int64))
                                  .any(axis=1))
    assert moved > 20  # the cube pass moved band rows of both cubes


@settings(max_examples=8)
@given(data=st.data())
def test_advance_matches_step_across_param_caps(bump, bump_bound, data):
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
    pts = _advance_points(system, make_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")), 40)
    _assert_advance_is_step_and_jacobian_chart(system, pts, [0, 40, 200, len(pts) - 1])
    # single points (the one-row kernel) against the boolean-mask loop: random, both
    # cubes in band, r < delta / 2, r >= delta and out of band, p and q
    oracle = _oracle_of(system)
    for i in (0, 40, 80, 120, 160, 200, 240, 280, 320, len(pts) - 2, len(pts) - 1):
        _assert_maps_match_oracle(system, oracle, pts[i])


def _bundle_loop_oracle(system, starts, length, transient):
    """The bundle_exponent_batch loop before advance: step plus jacobian_chart
    each step, sliced to the (u, s) block, cu by einsum and norm from the u
    axis, and the derived cs as log|ad - bc| - log g."""
    from phlab.ergodic import _Tally

    x = np.atleast_2d(np.asarray(starts, dtype=float)).copy()
    tally = _Tally((2, x.shape[0]), length, transient)
    vs = np.tile((1.0, 0.0), (x.shape[0], 1))
    for t in range(length):
        m = system.jacobian_chart(x)[:, 2:4, 2:4]
        w = np.einsum("nij,nj->ni", m, vs)
        x = system.step(x)
        g = np.linalg.norm(w, axis=1)
        log_det = np.log(np.abs(m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]))
        tally.add(t, np.stack((np.log(g), log_det - np.log(g))))
        vs = w / g[:, None]
    return tally.result()


@pytest.mark.parametrize("eps_tilde", [0.0, 0.5])
def test_bundle_exponents_on_advance_match_former_loop(system, eps_tilde):
    from phlab.ergodic import bundle_exponent_batch

    sys_ = system.make_tilde(eps_tilde)
    rng = make_rng(41)
    half = 2.0 * sys_.params.delta
    starts = np.concatenate([
        rng.random((10, 4)),
        sys_.chart_p.from_chart((rng.random((5, 4)) - 0.5) * 2 * half),
        sys_.chart_q.from_chart((rng.random((5, 4)) - 0.5) * 2 * half),
        [sys_.chart_p.center, sys_.chart_q.center],
    ])
    got = bundle_exponent_batch(sys_, starts, 400, 40)
    want = _bundle_loop_oracle(sys_, starts, 400, 40)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


# DeformedSystem._cube_loop, _gradient and _solve before the in-cube trims,
# kept verbatim as a reference on the frozen SmoothBump.profile: two profile
# calls per explicit cube visit, np.diag per call, both cubes looked up on
# every call, and a solve without the all-on-root exit.  Only its Jacobian
# rows follow the one-pass rule: grad F at the field point z, in both
# directions.  advance on the reference must give the same bits as advance.


def _gradient_oracle(sys_, cube, coords, y, r, sky, dsky, sr, dsr):
    common = np.zeros_like(r)
    pos = r > 0
    common[pos] = (sky * y * cube.coef)[pos] * dsr[pos] / r[pos]
    grad = common[..., None] * coords
    grad[..., cube.j] = sys_._field_dy(cube, sys_.params.k * y, sky, dsky, sr)
    return grad


def _solve_oracle(sys_, cube, y, sr):
    profile = functools.partial(_profile_oracle, sys_.params.delta)
    target = y * cube.mul / cube.div
    k, w = sys_.params.k, 2.0 * sys_.params.delta
    u, best, resid = y.copy(), y.copy(), np.full_like(y, np.inf)
    sky_best, dsky_best = np.zeros_like(y), np.zeros_like(y)
    lo, hi = np.full_like(y, -w), np.full_like(y, w)
    step = np.full_like(y, 2.0 * w)
    prev = step.copy()
    act = np.arange(u.size)
    for _ in range(200):
        ua = u[act]
        kua = k * ua
        sky, dsky = profile(kua)
        f = sys_._field_y(cube, ua, sky, sr[act]) - target[act]
        closer = np.abs(f) < np.abs(resid[act])
        at = act[closer]
        best[at], resid[at] = ua[closer], f[closer]
        sky_best[at], dsky_best[at] = sky[closer], dsky[closer]
        lo[act] = np.where(f < 0, ua, lo[act])
        hi[act] = np.where(f > 0, ua, hi[act])
        ulp2 = 2.0 * np.spacing(np.abs(ua))
        go = (f != 0) & (np.abs(step[act]) > ulp2) & (hi[act] - lo[act] > ulp2)
        act, ua, f = act[go], ua[go], f[go]
        if not act.size:
            break
        df = sys_._field_dy(cube, kua[go], sky[go], dsky[go], sr[act])
        new = ua - f / df
        lo_a, hi_a = lo[act], hi[act]
        bisect = (new < lo_a) | (new > hi_a) | (np.abs(2.0 * f) > np.abs(prev[act] * df))
        new = np.where(bisect, 0.5 * (lo_a + hi_a), new)
        prev[act] = step[act]
        step[act] = new - ua
        u[act] = new
    assert np.max(np.abs(resid)) <= 1e-12 * max(1.0, sys_.lu)
    return best, sky_best, dsky_best


def _untrimmed_cube_loop(sys_, pts, forward, with_jac=False):
    profile = functools.partial(_profile_oracle, sys_.params.delta)
    rows, jac = with_jac, None
    if rows:
        jac = np.empty((pts.shape[0], 4, 4))
        jac[...] = np.diag(sys_.rates)
    k = sys_.params.k
    for cube in sys_.cubes:
        coords, inside = cube.chart.to_chart(pts)
        if not inside.any():
            continue
        j, sub = cube.j, coords[inside]
        y, r = cube.split(sub)
        sr, dsr = profile(r, derivative=rows)
        if forward == cube.forward_explicit:
            sky, dsky = profile(k * y, derivative=rows)
            new = sys_._field_y(cube, y, sky, sr) * cube.div / cube.mul
        else:
            new, sky, dsky = _solve_oracle(sys_, cube, y, sr)
        if rows:
            z = y if forward == cube.forward_explicit else new  # the field point
            if cube.forward_explicit:
                row = _gradient_oracle(sys_, cube, sub, z, r, sky, dsky, sr, dsr)
            else:
                g = _gradient_oracle(sys_, cube, sub, z, r, sky, dsky, sr, dsr)
                row = -sys_.rates[j] * g / g[..., j:j + 1]
                row[..., j] = 1.0 / g[..., j]
            jac[inside, j] = row
        shift = (new - sub[..., j])[:, None] * cube.chart.axes[:, j]
        pts[inside] = reduce_torus(pts[inside] + shift)
    return jac


def _untrimmed_advance(sys_, x, forward):
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if forward:
        pts = reduce_torus(np.atleast_2d(x))
        jac = _untrimmed_cube_loop(sys_, pts, True, True)
        out = sys_.auto.apply(pts[0] if single else pts)
    else:
        out = sys_.auto.apply_inverse(x)
        jac = _untrimmed_cube_loop(sys_, np.atleast_2d(out), False, True)
    return out, (jac[0] if single else jac)


def _plateau_points(sys_, rng, n):
    """Points of both cubes where s(ky) = s(r) = 1: |ky| < delta/2, r < delta/2."""
    d, k = sys_.params.delta, sys_.params.k
    pts = []
    for cube in sys_.cubes:
        coords = (rng.random((n, 4)) - 0.5) * d / 2
        coords[:, cube.j] /= k
        pts.append(cube.chart.from_chart(coords))
    return np.concatenate(pts)


@pytest.mark.parametrize("eps_tilde", [0.0, 0.5])
def test_advance_matches_frozen_cube_loop_at_small_n(system, rng, eps_tilde):
    """advance against the frozen cube loop, bit for bit, both directions,
    image and 4x4 chart Jacobian: one point at p and q, one of each kind
    (plateau, in band, r >= delta, out of band) of both cubes, alone and as a
    one-row batch, and 100-point batches that mix them."""
    sys_ = system if eps_tilde == 0.0 else system.make_tilde(eps_tilde)
    plateau = _plateau_points(sys_, rng, 10)
    pts = np.concatenate([_advance_points(sys_, rng, 25), plateau])
    n = len(pts) - len(plateau)
    # random; per cube in band, in band at r < delta/2, r >= delta, out of band;
    # p and q; one plateau point per cube
    kinds = [0, 25, 50, 75, 100, 125, 150, 175, 200, n - 2, n - 1, n, n + 10]
    xs = [sys_.chart_p.center, sys_.chart_q.center]
    xs += [x[None, :] for x in xs] + [pts[i] for i in kinds] + [pts[i:i + 1] for i in kinds]
    xs += [pts[rng.permutation(len(pts))[:100]] for _ in range(3)]
    xs += [np.concatenate([pts[kinds], pts[:100 - len(kinds)]])]
    for forward in (True, False):
        for x in xs:
            img, jac = sys_.advance(x, forward)
            want_img, want_jac = _untrimmed_advance(sys_, x, forward)
            assert img.shape == want_img.shape and jac.shape == want_jac.shape
            assert img.tobytes() == want_img.tobytes(), (forward, x)
            assert jac.tobytes() == want_jac.tobytes(), (forward, x)


# DeformedSystem._cube_loop before the cube screen, kept verbatim but for the
# field-point rule of its Jacobian rows: both charts looked up on every row
# through length-N boolean masks.  Every public map on a
# system whose loop is this one must give the same bits as on the screened one.


def _cube_loop_oracle(self, pts, forward, with_jac=False):
    rows, jac = with_jac, None
    if rows:
        jac = np.empty((pts.shape[0], 4, 4))
        jac[...] = self._diag
    k, left = self.params.k, pts.shape[0]
    for cube in self.cubes:
        if not left:
            break
        coords, inside = cube.chart.to_chart(pts)
        found = np.count_nonzero(inside)
        if not found:
            continue
        left -= found
        j, sub = cube.j, coords[inside]
        y, r = cube.split(sub)
        if forward == cube.forward_explicit:
            s, ds = self.bump.profile(np.concatenate((r, k * y)), derivative=rows)
            sr, sky = s.reshape(2, -1)
            dsr, dsky = ds.reshape(2, -1) if rows else (None, None)
            new = self._field_y(cube, y, sky, sr) * cube.div / cube.mul
        else:
            sr, dsr = self.bump.profile(r, derivative=rows)
            new, sky, dsky = self._solve(cube, y, sr)
        if rows:
            z = y if forward == cube.forward_explicit else new  # the field point
            if cube.forward_explicit:
                row = self._gradient(cube, sub, z, r, sky, dsky, sr, dsr)
            else:
                g = self._gradient(cube, sub, z, r, sky, dsky, sr, dsr)
                row = -self.rates[j] * g / g[..., j:j + 1]
                row[..., j] = 1.0 / g[..., j]
            jac[inside, j] = row
        shift = (new - sub[..., j])[:, None] * cube.chart.axes[:, j]
        pts[inside] = reduce_torus(pts[inside] + shift)
    return jac


class _OracleSystem(DeformedSystem):
    _cube_loop = _cube_loop_oracle

    def _point_cubes(self, x, forward, with_jac=False):
        """The single-point cube pass through the oracle loop, on a (1, 4) batch."""
        pts = np.array([x])
        jac = self._cube_loop(pts, forward, with_jac)
        x[:] = pts[0].tolist()
        return None if jac is None else jac[0].tolist()


def _oracle_of(sys_):
    return _OracleSystem(sys_.auto, sys_.bump, sys_.params, sys_.chart_p, sys_.chart_q)


def _outcome(fn, *args):
    """(shape, bytes) of each array fn returns, or the type of what it raises."""
    try:
        out = fn(*args)
    except Exception as exc:  # the exception is the outcome
        return type(exc)
    return [(a.shape, a.tobytes()) for a in (out if isinstance(out, tuple) else (out,))]


def _assert_maps_match_oracle(sys_, oracle, x):
    """Every public map of sys_ against the oracle system: the same shapes and
    bytes, or the same exception."""
    for forward in (True, False):
        got = _outcome(sys_.advance, x, forward)
        assert got == _outcome(oracle.advance, x, forward), forward
    for name in ("step", "step_inverse", "deform", "deform_inverse", "jacobian_chart"):
        assert _outcome(getattr(sys_, name), x) == _outcome(getattr(oracle, name), x), name


def _cell_edge_points(sys_, rng):
    """Points of both cubes with one ambient coordinate on a screen cell edge
    (x * SCREEN_SIDE an exact integer), and the same one ulp below the edge."""
    out = []
    for cube in sys_.cubes:
        half = cube.chart.half_width
        for x, i in zip(cube.chart.from_chart((rng.random((8, 4)) - 0.5) * 2 * half),
                        itertools.cycle(range(4))):
            edge = np.round(x[i] * SCREEN_SIDE) / SCREEN_SIDE
            for v in (edge % 1.0, np.nextafter(edge, -1.0) % 1.0):
                out.append(x.copy())
                out[-1][i] = v
    return out


def _face_points(sys_, rng):
    """Points on a cube face: chart coordinate i is exactly -half_width or
    +half_width as to_chart computes it.  Each is found by walking the ambient
    coordinate that moves coordinate i most, ulp by ulp, from a point near
    the face; a walk that steps over the face is dropped."""
    out = []
    for cube in sys_.cubes:
        chart, half = cube.chart, cube.chart.half_width
        for i, side in itertools.product(range(4), (-half, half)):
            a = int(np.argmax(np.abs(chart.axes[:, i])))
            for _ in range(8):
                coords = (rng.random(4) - 0.5) * half
                coords[i] = side
                x = chart.from_chart(coords)
                for _ in range(64):
                    c = chart.to_chart(x)[0][i]
                    if c == side:
                        out.append(x)
                        break
                    x[a] = np.nextafter(x[a], np.inf if (side - c) * chart.axes[a, i] > 0 else -np.inf)
    return out


def _wrap_point(sys_):
    """A point of the p cube whose deformed ambient coordinate a, before its
    reduction, is a tiny negative number, about -1e-18: x - floor(x) rounds
    it to 1.0, which reduce_torus maps to 0.0.  Found by a secant search for
    the input coordinate a that puts the image on 0, then a step of 2e-18."""
    cube = sys_.cubes[0]
    a = int(np.argmax(np.abs(cube.column)))
    y = 0.3 * sys_.params.delta / sys_.params.k  # on the plateau of s(ky)
    x = cube.chart.from_chart(np.array([0.0, 0.0, y, 0.0]))

    def image(v):
        x[a] = v
        return float(torus_displacement(sys_.deform(x)[a], 0.0))

    v0, v1 = x[a], x[a] + 1e-7
    g0, g1 = image(v0), image(v1)
    for _ in range(50):
        if abs(g1) < 1e-19 or g1 == g0:
            break
        v0, v1, g0 = v1, v1 - g1 * (v1 - v0) / (g1 - g0), g1
        g1 = image(v1)
    slope = (image(v1 + 1e-12) - image(v1 - 1e-12)) / 2e-12
    image(v1 - np.sign(slope) * 2e-18)
    return x


@pytest.mark.parametrize("eps_tilde", [0.0, 0.5])
def test_maps_match_boolean_mask_cube_loop(system, rng, eps_tilde):
    """The screened cube loop against the boolean-mask one, bit for bit: single
    points; batches of 2 and 100 with exactly one row in p, and with exactly
    one row in q (a lone candidate is looked up as a one-row batch);
    batches with every row in a cube; and a mixed batch of 1e4."""
    sys_ = system if eps_tilde == 0.0 else system.make_tilde(eps_tilde)
    oracle = _oracle_of(sys_)
    mixed = _advance_points(sys_, rng, 200)
    far = rng.random((4000, 4))
    far = far[sys_.screen(far) == 0]  # rows no cube can hold
    faces = _face_points(sys_, rng)
    assert len(faces) >= 16
    wrap = _wrap_point(sys_)
    assert sys_.deform(wrap)[np.argmax(np.abs(sys_.cubes[0].column))] == 0.0
    nan, inf = np.nan, np.inf
    odd = [[nan, 0.5, 0.5, 0.5], [0.0, 0.0, nan, 0.0], [nan] * 4, [inf, 0.0, 0.0, 0.0],
           [0.0, 0.0, -inf, 0.0], [inf, -inf, inf, -inf]]
    odd += [np.where(np.arange(4) == i, v, c.chart.center)
            for c in sys_.cubes for i in (0, 2) for v in (nan, inf, -inf)]
    singles = list(mixed[::97]) + [c.chart.center for c in sys_.cubes] + faces + [wrap]
    singles += _cell_edge_points(sys_, rng) + [np.array(x, dtype=float) for x in odd]
    for x in singles:
        _assert_maps_match_oracle(sys_, oracle, x)
        _assert_maps_match_oracle(sys_, oracle, x[None, :])
    for c, cube in enumerate(sys_.cubes):
        half = cube.chart.half_width
        inside = cube.chart.from_chart((rng.random((40, 4)) - 0.5) * 2 * half)
        # in band, r < delta, r >= delta and out of band (_advance_points' rows)
        inside = np.concatenate([inside, mixed[200 + 800 * c:1000 + 800 * c:40]])
        for i, x in enumerate(inside):
            for n in (2, 100):
                batch = far[rng.choice(len(far), n, replace=False)]
                batch[i % n] = x
                _assert_maps_match_oracle(sys_, oracle, batch)
        _assert_maps_match_oracle(sys_, oracle, inside)
    big = np.concatenate([rng.random((10_000 - len(mixed), 4)), mixed])
    _assert_maps_match_oracle(sys_, oracle, big[rng.permutation(len(big))])


def test_one_row_advance_at_p_takes_the_point_loop(system, monkeypatch):
    """A single point's advance at p screens and charts in Python floats (no
    screen or to_chart call) and looks the p cube up once in either
    direction; a (1, 4) or two-row batch takes the screened batch loop."""
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(DeformedSystem, "screen", counted("screen", DeformedSystem.screen))
    monkeypatch.setattr(ChartBox, "to_chart", counted("to_chart", ChartBox.to_chart))
    monkeypatch.setattr(ChartBox, "point_to_chart",
                        counted("point_to_chart", ChartBox.point_to_chart))
    p = system.chart_p.center
    for x, forward, want in ((p, True, (0, 0, 1)), (p[None, :], True, (1, 1, 0)),
                             (p, False, (0, 0, 1)), (np.stack([p, p]), True, (1, 1, 0))):
        calls.update(screen=0, to_chart=0, point_to_chart=0)
        system.advance(x, forward)
        got = (calls["screen"], calls["to_chart"], calls["point_to_chart"])
        assert got == want, (x.shape, forward)


def test_backward_advance_makes_one_cube_pass(system, monkeypatch):
    """A backward advance at p or q, alone, as a one-row batch or in a batch,
    makes one cube pass, the single point's on the kernel (_point_cubes), a
    batch's in _cube_loop: the preimage is not looked up again."""
    calls = []

    def counted(loop):
        def wrapper(self, *args, **kwargs):
            calls.append(args[1])
            return loop(self, *args, **kwargs)
        return wrapper

    for name in ("_cube_loop", "_point_cubes"):
        monkeypatch.setattr(DeformedSystem, name, counted(getattr(DeformedSystem, name)))
    for sys_ in (system, system.make_tilde(0.5)):
        for c in (sys_.chart_p.center, sys_.chart_q.center):
            for x in (c, c[None, :], np.stack([c, c, np.full(4, 0.3)])):
                calls.clear()
                sys_.advance(x, False)
                assert calls == [False], x.shape
                calls.clear()
                sys_.jacobian_inverse(x)
                assert calls == [False], x.shape


def _cube_concentrated_points(sys_, rng, n):
    """Rows that each cube's lookup handles: _advance_points' kinds (in band,
    r < delta, r >= delta, out of band, p and q), the plateau and the faces."""
    return np.concatenate([_advance_points(sys_, rng, n), _plateau_points(sys_, rng, n),
                           _face_points(sys_, rng)])


@pytest.mark.parametrize("eps_tilde", [0.0, 0.5])
def test_jacobian_inverse_matches_inverse_at_the_preimage(system, rng, eps_tilde):
    """jacobian_inverse, from one backward advance, against inv(jacobian) at
    step_inverse: where the preimage lies in a cube within 2 |inv|_2^2 times
    the cube's _backward_row_tol, to first order what one row that far off
    does to the inverse (the axes are orthonormal), plus the same for a
    rounding of 4 eps |Df|_2 in Df, LAPACK's own; where it lies in no cube, bit
    for bit the closed-form inverse of jacobian_chart at the preimage."""
    sys_ = system.make_tilde(eps_tilde)
    pts = np.concatenate([_cube_concentrated_points(sys_, rng, 50), rng.random((200, 4))])
    pts = sys_.step(pts)
    pre = sys_.step_inverse(pts)
    jac = sys_.jacobian(pre)
    got, want = sys_.jacobian_inverse(pts), np.linalg.inv(jac)
    tol = np.zeros(len(pts))
    for cube in sys_.cubes:
        tol[cube.chart.to_chart(pre)[1]] = _backward_row_tol(sys_, cube)
    cubed = tol > 0
    assert 100 < np.count_nonzero(cubed) < len(pts)
    axes = sys_.chart_p.axes
    closed = axes @ chart_inverse(sys_.jacobian_chart(pre[~cubed])) @ axes.T
    assert got[~cubed].tobytes() == closed.tobytes()
    tol += 4 * np.finfo(float).eps * np.linalg.norm(jac, 2, axis=(1, 2))
    err = np.abs(got - want).max(axis=(1, 2))
    assert np.all(err <= 2 * np.linalg.norm(want, 2, axis=(1, 2)) ** 2 * tol)


def _band_points(sys_, rng, n):
    """n points of each cube's band, |ky| < delta and r < delta, through from_chart."""
    d, k = sys_.params.delta, sys_.params.k
    pts = []
    for cube in sys_.cubes:
        coords = (rng.random((n, 4)) - 0.5) * d  # r < delta sqrt(3) / 2
        coords[:, cube.j] *= 2 / k
        pts.append(cube.chart.from_chart(coords))
    return np.concatenate(pts)


def _assert_chart_inverse_is_inv(sys_, rng, ulps):
    """chart_inverse against np.linalg.inv, the reference, on the forward and
    backward advance Jacobians of band points of both cubes: the (uu, ss) x
    (u, s) block is +0.0 bit for bit; with ``ulps`` every entry lies within
    that many ulps of the matrix's largest |inv| entry and chart_inverse(J) J
    within 1e-15 of I, else within the forward error that bounds LAPACK's own
    inverse, eps cond(J) |inv|_2, and J's product within its rounding,
    8 eps |chart_inverse(J)| |J| entry by entry."""
    band = _band_points(sys_, rng, 200)
    eps = np.finfo(float).eps
    for jac in (sys_.advance(band)[1], sys_.advance(sys_.step(band), False)[1]):
        got, want = chart_inverse(jac), np.linalg.inv(jac)
        assert not got[:, :2, 2:].view(np.int64).any()
        err, res = np.abs(got - want).max(axis=(1, 2)), np.abs(got @ jac - np.eye(4))
        if ulps:
            assert np.all(err <= ulps * np.spacing(np.abs(want).max(axis=(1, 2))))
            assert res.max() <= 1e-15
        else:
            norm = np.linalg.norm(want, 2, axis=(1, 2))
            assert np.all(err <= eps * np.linalg.cond(jac) * norm)
            assert np.all(res <= 8 * eps * (np.abs(got) @ np.abs(jac)) + np.finfo(float).tiny)


@pytest.mark.parametrize("eps_tilde", [0.0, 0.5, 0.95])
def test_chart_inverse_matches_inv_on_band_jacobians(system, rng, eps_tilde):
    _assert_chart_inverse_is_inv(system.make_tilde(eps_tilde), rng, 4)


@settings(max_examples=6)
@given(data=st.data())
def test_chart_inverse_matches_inv_across_param_caps(bump, bump_bound, data):
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
    _assert_chart_inverse_is_inv(
        system, make_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")), None)


def test_deformed_inverses_never_call_lapack_inv(system, rng, monkeypatch):
    """jacobian_inverse and extract_splitting on a DeformedSystem take the
    closed form alone: np.linalg.inv, patched to raise, is never reached."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.inv reached")

    pts = np.concatenate([_band_points(system, rng, 5), rng.random((5, 4))])
    monkeypatch.setattr(np.linalg, "inv", refuse)
    system.jacobian_inverse(pts)
    system.jacobian_inverse(pts[0])
    extract_splitting(system, pts[0], n_iter=5)
    extract_splitting(system, pts[-1], n_iter=5, shifts=[-2, 0, 3])


def test_backward_rows_within_the_field_point_bound_at_large_k(bump, bump_bound, rng):
    """At (n, m) = (5, 2), k = 1e4, eps_tilde = 0.9 the backward in-cube rows
    stray from jacobian_chart at the preimage by more than 1e-9 of the row's
    largest entry, the fixed bound _backward_row_tol replaced, and stay
    within _backward_row_tol, in a batch and one point at a time."""
    sys_ = build_deformed_system(
        DeformationParams(n=5, m=2, delta=1.0 / 40.0, k=1e4, eps1=eps1_for(5, 2)),
        bump=bump, bound=bump_bound).make_tilde(0.9)
    pts = sys_.step(_cube_concentrated_points(sys_, rng, 300))
    pre = sys_.step_inverse(pts)
    got, want = sys_.advance(pts, False)[1], sys_.jacobian_chart(pre)
    _assert_backward_jacobian(sys_, pre, got, want)
    for x in pts[::7]:  # a single point's preimage rounds through A^-1's one-row matmul
        one = sys_.step_inverse(x)
        _assert_backward_jacobian(sys_, one, sys_.advance(x, False)[1],
                                  sys_.jacobian_chart(one))
    worst = 0.0
    for cube in sys_.cubes:
        inside = cube.chart.to_chart(pre)[1]
        row = (got - want)[inside, cube.j]
        worst = max(worst, (np.abs(row).max(axis=-1)
                            / np.abs(want[inside, cube.j]).max(axis=-1)).max())
    assert worst > 1e-9


@settings(max_examples=12)
@given(data=st.data())
def test_single_points_are_batch_rows_bitwise(bump, bump_bound, data):
    """Across the ParamCaps range, at batch sizes 1, 2, 3 and 100 of
    cube-concentrated points, x[i] alone gives row i of the batch bit for bit
    in to_chart (both charts), deform, deform_inverse and jacobian_chart (the
    forward advance Jacobian).  step, step_inverse and the backward Jacobian
    pass through the matmul of A, which still rounds by batch."""
    n, m = data.draw(st.sampled_from(_rate_feasible_pairs(bump_bound)), label="n, m")
    k = 10.0 ** data.draw(st.floats(np.log10(2.0), 4.0), label="log10 k")
    eps_tilde = data.draw(st.sampled_from([0.0, 0.5]), label="eps_tilde")
    sys_ = build_deformed_system(
        DeformationParams(n=n, m=m, delta=1.0 / 40.0, k=k, eps1=eps1_for(n, m)),
        bump=bump, bound=bump_bound).make_tilde(eps_tilde)
    rng = make_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    pool = _cube_concentrated_points(sys_, rng, 40)
    maps = [c.chart.to_chart for c in sys_.cubes]
    maps += [sys_.deform, sys_.deform_inverse, sys_.jacobian_chart]
    for size in (1, 2, 3, 100):
        for _ in range(3):
            batch = pool[rng.choice(len(pool), size, replace=False)]
            for fn in maps:
                want = fn(batch)
                for i, x in enumerate(batch):
                    got = fn(x)
                    if isinstance(want, tuple):  # to_chart: coordinates and mask
                        assert _same_bits(got[0], want[0][i]) and got[1] == want[1][i], (size, i)
                    else:
                        assert _same_bits(got, want[i]), (fn, size, i)


def test_bundle_exponent_at_p_pinned(system):
    """The 2000-step cu orbit at p (the cu-exponent-at-p check) and the cs orbit
    at q keep their exact values: log 1 = 0 on the plain map, log(1 - 1/2) with
    eps_tilde = 1/2."""
    from phlab.ergodic import OrbitSpec, bundle_exponent

    log_half = -0.6931471805599112
    cases = ((system, 0.0, 0.0), (system.make_tilde(0.5), log_half, -log_half))
    for sys_, p_value, q_value in cases:
        at_p, _ = bundle_exponent(
            sys_, OrbitSpec(start=sys_.chart_p.center, length=2000, transient=0))
        _, at_q = bundle_exponent(
            sys_, OrbitSpec(start=sys_.chart_q.center, length=2000, transient=0))
        assert at_p.value.hex() == p_value.hex() and at_p.converged
        assert at_q.value.hex() == q_value.hex() and at_q.converged


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
    params = search_params(BumpBound(M=0.0, argmin=0.0)).params
    assert (params.n, params.m) == (2, 1)


def test_condition_holds_for_small_eps1():
    value, low, high, ok = center_gap_condition(0.01, 1.1)
    assert ok and low < 1.0 < high and value > 0.0


def test_search_params_infeasible(bump_bound):
    with pytest.raises(InfeasibleParamsError):
        search_params(bump_bound, ParamCaps(n_max=2, m_max=1))


def test_partial_sup_below_budget(system):
    """search_params takes the least k whose cross-partial sup is below eps0."""
    eps0 = system.params.eps0
    assert system.cross_partial_sup() < eps0
    assert system._with(k=system.params.k - 1.0).cross_partial_sup() >= eps0


def _flat_slab_gradients(system):
    """The slab scan the set-up once ran: field_gradient on the flat (N, 4)
    slab grid, its fine axis moved onto each cube's axis."""
    grid = _slab_grid(system.params.delta, system.params.k)
    return [system.field_gradient(cube, _fine_axis_on(grid, cube.j)) for cube in system.cubes]


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@settings(max_examples=12)
@given(data=st.data())
def test_slab_scans_match_flat_grid_bitwise(bump_bound, data):
    """The closed forms against the flat slab scan they replaced, across
    ParamCaps and eps_tilde: cross_partial_sup bounds every cross partial of
    field_gradient there and is reached at the point it names; the least
    dF/dy there is coef + mul/div bit for bit, and make_tilde raises exactly
    when that is <= 1e-9."""
    n, m = data.draw(st.sampled_from(_rate_feasible_pairs(bump_bound)), label="n, m")
    d = data.draw(st.floats(1e-3, ParamCaps().delta), label="delta")
    k = 10.0 ** data.draw(st.floats(np.log10(2.0), 4.0), label="log10 k")
    eps_tilde = data.draw(st.sampled_from([0.0, 0.5, 0.999, 1.5]), label="eps_tilde")
    base = build_deformed_system(
        DeformationParams(n=n, m=m, delta=d, k=k, eps1=eps1_for(n, m)), bound=bump_bound)
    # the variant make_tilde builds, here without its monotonicity check
    system = DeformedSystem(base.auto, base.bump, replace(base.params, eps_tilde=eps_tilde),
                            base.chart_p, base.chart_q)
    flat = _flat_slab_gradients(system)
    sup = system.cross_partial_sup()
    assert max(np.max(np.abs(g[..., c.others])) for c, g in zip(system.cubes, flat)) <= sup
    # reached with ky at the peak of t s(t), r at the peak of |s'| on a = r
    t, r = system.bump.peak_moment()[0], system.bump.peak_derivative()[0]
    cube = max(system.cubes, key=lambda c: abs(c.coef))
    point = np.zeros(4)
    point[cube.j], point[cube.others[0]] = t / k, r
    reached = abs(system.field_gradient(cube, point)[cube.others[0]])
    assert reached == pytest.approx(sup, rel=1e-12)
    failing = None
    for cube, g in zip(system.cubes, flat):
        assert float(np.min(g[:, cube.j])).hex() == (cube.coef + cube.mul / cube.div).hex()
        if failing is None and np.min(g[:, cube.j]) <= 1e-9:
            failing = "abcd"[cube.j]
    if eps_tilde > 0 and failing:
        with pytest.raises(ParameterTooLargeError, match=f"monotonicity of the {failing}-change"):
            base.make_tilde(eps_tilde)
    else:
        assert base.make_tilde(eps_tilde).params.eps_tilde == eps_tilde


def test_setup_traces_no_dense_grid(system):
    """build_system on the shipped deformed config and make_tilde(0.05) each
    stay below 8 MB of traced allocations, which no dense grid fits: the
    2001 x 2001 products of the former compute_M scan took 31 MB, and the flat
    slab grid with its swapped copy and gradient 11 MB."""
    config = ExperimentConfig.from_file(
        os.path.join(os.path.dirname(__file__), os.pardir, "configs", "deformed.json"))
    for name, run in (("build_system", lambda: build_system(config)),
                      ("make_tilde", lambda: system.make_tilde(0.05))):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, f"{name}: traced peak {peak / 1e6:.1f} MB"


def test_build_system_builds_one_deformed_system(monkeypatch):
    """An auto-params build_system constructs one DeformedSystem and picks its
    fixed points once: search_params hands over the system it accepts, with
    the parameters it has always chosen."""
    made, picks = [], []
    init, pick = DeformedSystem.__init__, deformation.select_fixed_point_pair

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    def counting_pick(*args):
        picks.append(args)
        return pick(*args)

    monkeypatch.setattr(DeformedSystem, "__init__", counting_init)
    monkeypatch.setattr(deformation, "select_fixed_point_pair", counting_pick)
    system, resolved = build_system(ExperimentConfig.from_dict(
        {"seed": 1, "system": {"kind": "deformed", "auto_params": True}}))
    assert made == [system] and len(picks) == 1
    assert (resolved["n"], resolved["m"], resolved["q"]) == (3, 1, [0.5, 0.5, 0.0, 0.0])
    assert {key: resolved[key].hex() for key in ("delta", "k", "eps1", "eps0", "eps_tilde",
                                                  "M", "luu", "lu", "ls", "lss")} == {
        "delta": "0x1.999999999999ap-6", "k": "0x1.db60000000000p+11",
        "eps1": "0x1.47ae147ae147bp-7", "eps0": "0x1.0624dd2f1a9fcp-10",
        "eps_tilde": "0x0.0p+0", "M": "0x1.5fd0b4ddfeb5bp+1",
        "luu": "0x1.1f1bbcdcbfa54p+4", "lu": "0x1.4f1bbcdcbfa54p+1",
        "ls": "0x1.8722191a02d61p-2", "lss": "0x1.c8864680b583ep-5",
    }


def _rate_feasible_pairs(bump_bound):
    # the bump is one profile rescaled to delta, so M does not depend on delta
    caps = ParamCaps()
    return [(n, m) for n in range(2, caps.n_max + 1) for m in range(1, min(n, caps.m_max + 1))
            if all(ok for *_, ok in rate_inequalities(bump_bound.M, n, m))]


def test_default_q_unchanged(system):
    assert np.array_equal(system.chart_q.center, [0.5, 0.5, 0.0, 0.0])


def test_q_matches_scan_over_every_fixed_point(bump_bound):
    """The per-factor choice equals the first farthest point of a scan over all
    fixed points of D^n x D^m, ties included; pairs with n + m <= 10 keep the
    scan below a second."""
    p = np.zeros(4)
    for n, m in _rate_feasible_pairs(bump_bound):
        if n + m > 10:
            continue
        auto = cat_power_product(n, m)
        best, best_gap = None, 0.0
        for cand in enumerate_periodic(auto.matrix, 1):
            gap = float(torus_distance(cand, p))
            if gap > best_gap:
                best, best_gap = cand, gap
        assert np.array_equal(select_fixed_point_pair(auto, 1.0 / 40.0)[1], best), (n, m)


def test_every_rate_feasible_pair_builds(bump, bump_bound):
    pairs = _rate_feasible_pairs(bump_bound)
    assert len(pairs) == 41
    for n, m in pairs:
        params = DeformationParams(n=n, m=m, delta=1.0 / 40.0, k=100.0, eps1=eps1_for(n, m))
        system = build_deformed_system(params, bump=bump, bound=bump_bound)
        assert torus_distance(system.chart_p.center, system.chart_q.center) > 12 * params.delta


@settings(max_examples=15)
@given(data=st.data())
def test_construction_across_param_caps(bump_bound, data):
    """Round trips, the FD Jacobian and the gluing on systems drawn across ParamCaps."""
    caps = ParamCaps()
    n, m = data.draw(st.sampled_from(_rate_feasible_pairs(bump_bound)), label="n, m")
    # delta/k >= 1e-7 keeps the FD step 5e-4 * delta/k clear of rounding
    d = data.draw(st.floats(1e-3, caps.delta), label="delta")
    k = 10.0 ** data.draw(st.floats(np.log10(2.0), 4.0), label="log10 k")
    # on (0.95, 1) I_eps is nearly singular at p (Df = 1 - eps_tilde along c) and
    # round trips lose about 1e-16 * lu / (1 - eps_tilde); from 1 on make_tilde rejects
    eps_tilde = data.draw(st.floats(0.0, 1.2).filter(lambda e: not 0.95 < e < 1.0),
                          label="eps_tilde")
    system = build_deformed_system(DeformationParams(n=n, m=m, delta=d, k=k, eps1=eps1_for(n, m)))
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
