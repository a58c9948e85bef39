import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phlab.errors import NotHyperbolicError
from phlab.ergodic import make_rng
from phlab import skeleton
from phlab.product import LinearSystem, build_product
from phlab.skeleton import (
    ManifoldArc,
    NewtonDidNotConverge,
    distinct_records,
    extract_skeleton,
    grow_fan,
    grow_manifold,
    heteroclinic_test,
    newton_periodic,
    NEWTON_TOL,
)
from phlab.torus import (
    CAT_MAP,
    IntegerMatrix,
    ToralAutomorphism,
    enumerate_periodic,
    fixed_point_count,
    reduce_torus,
    torus_displacement,
    torus_distance,
)


@pytest.fixture(scope="module")
def cat():
    return LinearSystem(ToralAutomorphism(CAT_MAP))


def test_newton_origin_multipliers(cat):
    rec = newton_periodic(cat, np.array([0.01, 0.02]), 1)
    assert torus_distance(rec.point, np.zeros(2)) < 1e-10
    golden = (3.0 + math.sqrt(5.0)) / 2.0
    assert abs(rec.multipliers[0] - golden) < 1e-10
    assert abs(rec.multipliers[1] - 1.0 / golden) < 1e-10
    assert rec.stable_index == 1
    assert rec.residual < 1e-10
    assert rec.hyperbolic


def test_census_matches_determinant(cat):
    d_mat = IntegerMatrix(CAT_MAP)
    rng = make_rng(123)
    for n in range(1, 6):
        guesses = enumerate_periodic(d_mat, n)
        recs = [newton_periodic(cat, g + 1e-3 * rng.standard_normal(2), n)
                for g in guesses]
        recs = distinct_records(recs)
        assert len(recs) == fixed_point_count(d_mat, n)
        for rec in recs:
            # independent re-verification of periodicity
            x = rec.point
            for _ in range(rec.period):
                x = cat.step(x)
            assert torus_distance(x, rec.point) < 1e-10


@pytest.mark.parametrize("period", [11, 12])
def test_newton_converges_at_high_periods(cat, period):
    """At period 11 and 12 rounding alone leaves residuals near eps ||D^period||
    (1e-11), above the 1e-12 tolerance, which Newton then never met on a
    quarter (period 11) to three quarters (period 12) of the census seeds;
    the rounding floor stops it there.  A sample of the census, seeded as
    `skeleton` seeds it: each record is a point of the census."""
    guesses = np.array(enumerate_periodic(IntegerMatrix(CAT_MAP), period))
    rng = make_rng(period)
    for i in rng.choice(len(guesses), 24, replace=False):
        rec = newton_periodic(cat, guesses[i] + 1e-3 * rng.standard_normal(2), period)
        assert np.min(torus_distance(guesses, rec.point)) < 1e-10
        assert rec.residual < skeleton._rounding_floor(np.linalg.matrix_power(
            np.array(CAT_MAP, dtype=float), period))


def test_rounding_floor_leaves_low_periods_at_tol():
    """Up to period 6 of the cat map the floor is below 1e-12, so the `skeleton`
    census (periods <= 5) stops exactly where it did with tol alone."""
    power = np.array(CAT_MAP, dtype=float)
    for period in range(1, 7):
        assert skeleton._rounding_floor(np.linalg.matrix_power(power, period)) < 1e-12
    assert skeleton._rounding_floor(np.linalg.matrix_power(power, 7)) > 1e-12


def test_stable_index_constant_along_orbit(cat):
    d_mat = IntegerMatrix(CAT_MAP)
    pts = [p for p in enumerate_periodic(d_mat, 3) if np.linalg.norm(p) > 1e-9]
    rec = newton_periodic(cat, pts[0], 3)
    x = rec.point
    for _ in range(rec.period):
        x = cat.step(x)
        rec_i = newton_periodic(cat, x, 3)
        assert rec_i.stable_index == rec.stable_index


def test_newton_nonconvergence_reported(cat):
    with pytest.raises(NewtonDidNotConverge) as err:
        newton_periodic(cat, np.array([0.123, 0.456]), 1, max_iter=0)
    assert err.value.residual > 0


def test_newton_rejects_neutral_multiplier(system):
    # the plain deformed map has a unit multiplier at p
    with pytest.raises(NotHyperbolicError):
        newton_periodic(system, system.chart_p.center, 1)


def test_tilde_fixed_point_indices(tilde):
    # seed inside the deformation slab (offsets below delta/k), where the
    # basins of p and q themselves live
    rec_p = newton_periodic(tilde, tilde.chart_p.center + 1e-9, 1)
    rec_q = newton_periodic(tilde, tilde.chart_q.center + 1e-9, 1)
    assert rec_p.stable_index == 3
    assert rec_q.stable_index == 1
    for rec in (rec_p, rec_q):
        assert np.min(np.abs(rec.multipliers - 1.0)) > 1e-6


def test_tilde_satellite_fixed_points(tilde):
    """The eps-term splits the plateau fixed segment at q into q itself plus
    a pair of hyperbolic index-2 satellites where the bump crosses the level
    (ls-1)/(ls-1-ls*eps)."""
    d, k = tilde.params.delta, tilde.params.k
    offset = 0.8 * d / k * tilde.ls  # just outside the plateau half-width
    guess = tilde.chart_q.from_chart(np.array([0.0, 0.0, 0.0, offset]))
    rec = newton_periodic(tilde, guess, 1)
    assert torus_distance(rec.point, tilde.chart_q.center) > 1e-8
    assert rec.stable_index == 2


def _census_seeds(period, seed):
    """The period's cat-map points plus 1e-3 noise, as `skeleton` seeds them."""
    guesses = np.array(enumerate_periodic(IntegerMatrix(CAT_MAP), period))
    return guesses + 1e-3 * make_rng(seed, 5).standard_normal(guesses.shape)


def _assert_same_record(got, want, tol=1e-12):
    assert torus_distance(got.point, want.point) < tol
    assert got.period == want.period
    assert got.stable_index == want.stable_index
    np.testing.assert_allclose(got.multipliers, want.multipliers, rtol=1e-12)
    np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=1e-12)
    assert got.residual < NEWTON_TOL  # the rounding floor is below it up to period 6


@pytest.mark.parametrize("period", range(1, 7))
def test_stacked_newton_matches_single_guesses(cat, period):
    """One stacked call on a period's census seeds gives, row by row, the
    records of one call per seed, and the same census after deduplication."""
    seeds = _census_seeds(period, 1)
    stacked = newton_periodic(cat, seeds, period)
    single = [newton_periodic(cat, g, period) for g in seeds]
    assert len(stacked) == len(single) == len(seeds)
    for got, want in zip(stacked, single):
        _assert_same_record(got, want)
    assert len(distinct_records(stacked)) == len(distinct_records(single))


def test_stacked_newton_on_tilde_matches_single_guesses(tilde):
    """p's and q's chart centres as one stack give the records of the two
    single calls that `skeleton` makes for its tilde indices."""
    centres = np.array([tilde.chart_p.center, tilde.chart_q.center])
    rec_p, rec_q = newton_periodic(tilde, centres, 1)
    _assert_same_record(rec_p, newton_periodic(tilde, tilde.chart_p.center, 1))
    _assert_same_record(rec_q, newton_periodic(tilde, tilde.chart_q.center, 1))
    assert (rec_p.stable_index, rec_q.stable_index) == (3, 1)


def test_stacked_newton_rows_that_stop_apart_keep_their_roots(cat, tilde):
    """Rows stopping at different iterations (exact points at the first, noisy
    seeds and the tilde satellite later) each keep their own record."""
    exact = np.array(enumerate_periodic(IntegerMatrix(CAT_MAP), 2))
    seeds = np.concatenate([exact[:2], _census_seeds(2, 3)[2:]])  # late rows last
    d, k = tilde.params.delta, tilde.params.k
    satellite = tilde.chart_q.from_chart(np.array([0.0, 0.0, 0.0, 0.8 * d / k * tilde.ls]))
    for system, stack, period in ((cat, seeds, 2),
                                  (tilde, np.array([tilde.chart_p.center, satellite]), 1)):
        for got, guess in zip(newton_periodic(system, stack, period), stack):
            _assert_same_record(got, newton_periodic(system, guess, period))


def test_stacked_newton_one_row_is_the_single_guess_bitwise(cat):
    """On the cat map, whose batch and one-point steps round alike, a one-row
    stack gives the single guess's record bit for bit."""
    (got,) = newton_periodic(cat, np.array([[0.3, 0.6]]), 3)
    want = newton_periodic(cat, np.array([0.3, 0.6]), 3)
    assert got.point.tobytes() == want.point.tobytes()
    assert got.residual == want.residual
    assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()


def test_stacked_newton_errors_name_the_row(cat, system):
    """A failing row raises for the whole stack and names its point."""
    seeds = np.array([[0.01, 0.02], [0.123, 0.456]])
    with pytest.raises(NewtonDidNotConverge, match=r"0\.123") as err:
        newton_periodic(cat, seeds[::-1], 1, max_iter=0)
    assert err.value.residual == np.inf
    stack = np.array([system.chart_q.center + 1e-3, system.chart_p.center])
    with pytest.raises(NotHyperbolicError, match="multiplier within 1e-8 of 1"):
        newton_periodic(system, stack, 1)


def test_stacked_newton_empty_stack(cat):
    assert newton_periodic(cat, np.empty((0, 2)), 2) == []


def _sort_key(rec):
    """The reference order of sort_order on finite points: period, then the
    point rounded to 10 places."""
    return rec.period, tuple(np.round(rec.point, 10))


def _total_key(rec):
    """_sort_key made total: a NaN coordinate after every number at its place."""
    period, point = _sort_key(rec)
    return period, tuple((math.isnan(v), 0.0 if math.isnan(v) else v) for v in point)


def _distinct_records_pairwise(records):
    """The former deduplication, one torus_distance call per pair, in the total
    order: the reference the one-pass distinct_records must equal."""
    kept = []
    for rec in sorted(records, key=_total_key):
        if all(torus_distance(rec.point, k.point) > skeleton.DISTINCT_TOL for k in kept):
            kept.append(rec)
    return kept


def _records(points, period=1):
    eye = np.ones(2)
    return [skeleton.PeriodicPointRecord(point=np.asarray(p, dtype=float), period=period,
                                         multipliers=eye, eigenvalues=eye, stable_index=1,
                                         residual=0.0)
            for p in points]


def _planted_cloud(rng, n):
    """n base points and planted neighbours: just inside and just outside
    DISTINCT_TOL, across the torus wrap, exact copies and NaN points."""
    tol = skeleton.DISTINCT_TOL
    base = rng.random((n, 2))
    base[: n // 4] = np.where(rng.random((n // 4, 2)) < 0.5, 1e-9, 1.0 - 1e-9)
    direction = rng.standard_normal((n, 2))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    planted = [base]
    for scale in (1.0 - 1e-6, 1.0 + 1e-6, 0.5, 0.0):
        planted.append(reduce_torus(base + scale * tol * direction))
    cloud = np.concatenate(planted)
    cloud[rng.choice(len(cloud), 3, replace=False)] = np.nan
    cloud[rng.choice(len(cloud), 2, replace=False), 1] = np.nan
    return cloud[rng.permutation(len(cloud))]


@pytest.mark.parametrize("seed", range(6))
def test_distinct_records_matches_pairwise_reference(seed):
    """On planted clouds the one-pass deduplication keeps the same records,
    in the same order, as the pairwise loop."""
    rng = make_rng(seed, 23)
    records = _records(_planted_cloud(rng, 40))
    got = distinct_records(records)
    want = _distinct_records_pairwise(records)
    assert [id(r) for r in got] == [id(r) for r in want]
    # clean clouds too: NaN points make the pairwise loop drop whatever follows them
    clean = [r for r in records if np.all(np.isfinite(r.point))]
    want = _distinct_records_pairwise(clean)
    assert [id(r) for r in distinct_records(clean)] == [id(r) for r in want]
    assert 40 < len(want) < len(clean)


def test_sort_order_is_the_sort_key_order_ties_included():
    """np.lexsort over (period, rounded point) against sorted(key=_sort_key):
    exact copies, points equal after rounding to 10 places, +-0.0, equal
    first coordinates and mixed periods, in shuffled order; with NaN points,
    against the total order that puts a NaN after every number."""
    rng = make_rng(7, 23)
    base = rng.random((60, 2))
    base[:20, 0] = base[20:40, 0]
    cloud = np.concatenate([base, base[:15], base[15:30] + 1e-12, [[0.0, 0.5], [-0.0, 0.5]]])
    for points in (cloud, np.concatenate([cloud, [[np.nan, 0.5], [0.5, np.nan]]])):
        records = [r for period in (1, 2, 3) for r in _records(points, period)]
        records = [records[i] for i in rng.permutation(len(records))]
        want = sorted(range(len(records)), key=lambda i: _total_key(records[i]))
        assert skeleton.sort_order(records) == want
        if not np.isnan(points).any():
            assert want == sorted(range(len(records)), key=lambda i: _sort_key(records[i]))


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_distinct_records_is_independent_of_order_with_a_nan(order):
    """A NaN point sorts last, so the same three records give the same sorted
    finite pair in every input order."""
    points = [(0.5, 0.5), (np.nan, 0.5), (0.1, 0.5)]
    kept = distinct_records(_records([points[i] for i in order]))
    assert [r.point.tolist() for r in kept] == [[0.1, 0.5], [0.5, 0.5]]


def test_distinct_records_tolerance_edges():
    tol = skeleton.DISTINCT_TOL
    a = np.array([0.25 * tol, 0.5])  # first in sort order; its neighbours lie across the wrap
    inside = reduce_torus(a - [tol * (1 - 1e-6), 0.0])
    outside = reduce_torus(a - [tol * (1 + 1e-6), 0.0])
    for order in ([a, inside, outside], [outside, inside, a]):
        records = _records(order)
        kept = [r.point.tolist() for r in distinct_records(records)]
        assert kept == [a.tolist(), outside.tolist()]
        assert kept == [r.point.tolist() for r in _distinct_records_pairwise(records)]
    nan = _records([[np.nan, 0.5]])
    assert len(distinct_records(nan)) == len(_distinct_records_pairwise(nan)) == 1
    assert distinct_records([]) == []


def test_distinct_records_builds_no_square_array():
    """At n = 5000 an n x n float array would take 200 MB; the pass stays
    within a few MB."""
    import tracemalloc

    records = _records(make_rng(5, 23).random((5000, 2)))
    tracemalloc.start()
    try:
        kept = distinct_records(records)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kept) == 5000
    assert peak < 4_000_000


def _tangent_at_root(arc):
    """Unit direction from an arc's root to its next vertex (0 for a one-point arc)."""
    t = torus_displacement(arc.polyline[min(1, len(arc.polyline) - 1)], arc.polyline[0])
    n = np.linalg.norm(t)
    return t / n if n > 0 else t


def test_manifold_straight_on_linear(cat):
    rec = newton_periodic(cat, np.zeros(2), 1)
    arc = grow_manifold(cat, rec, "unstable", 2.0, 1e-3)
    assert arc.arc_length >= 2.0
    assert np.allclose(arc.polyline[0], rec.point)
    u = cat.axes[:, 0]
    gaps = torus_displacement(arc.polyline[1:], arc.polyline[:-1])
    cross = gaps[:, 0] * u[1] - gaps[:, 1] * u[0]
    assert np.max(np.abs(cross)) < 1e-9
    assert np.linalg.norm(np.abs(_tangent_at_root(arc)) - np.abs(u)) < 1e-6


def test_manifold_zero_target(cat):
    rec = newton_periodic(cat, np.zeros(2), 1)
    arc = grow_manifold(cat, rec, "unstable", 0.0, 1e-3)
    assert arc.arc_length == 0.0
    assert len(arc.polyline) == 1


def test_manifold_invariance(cat):
    """Images of arc points stay within resolution of the longer arc."""
    rec = newton_periodic(cat, np.zeros(2), 1)
    short = grow_manifold(cat, rec, "unstable", 1.0, 1e-3)
    longer = grow_manifold(cat, rec, "unstable", 3.0, 1e-3)
    images = cat.step(short.polyline[::20])
    for img in images:
        dist = np.min(torus_distance(longer.polyline, img))
        assert dist < 1e-3


def test_manifold_resolution_control(cat):
    rec = newton_periodic(cat, np.zeros(2), 1)
    arc = grow_manifold(cat, rec, "unstable", 1.5, 5e-4)
    from phlab.torus import torus_displacement

    gaps = np.linalg.norm(torus_displacement(arc.polyline[1:], arc.polyline[:-1]), axis=1)
    assert np.max(gaps) <= 5e-4 + 1e-12


def test_manifold_point_cap_flags_incomplete(cat):
    """An arc whose refinement would pass MAX_ARC_POINTS stops short, flagged."""
    rec = newton_periodic(cat, np.zeros(2), 1)
    with mock.patch.object(skeleton, "MAX_ARC_POINTS", 50):
        arc = grow_manifold(cat, rec, "unstable", 2.0, 1e-3)
    assert not arc.complete
    assert len(arc.polyline) <= 50
    assert arc.arc_length < 2.0
    assert grow_manifold(cat, rec, "unstable", 2.0, 1e-3).complete


def test_two_dimensional_fan_on_product(cat):
    prod = build_product(LinearSystem(ToralAutomorphism([[13, 8], [8, 5]])),
                         ToralAutomorphism(CAT_MAP))
    rec = newton_periodic(prod, np.zeros(4) + 1e-4, 1)
    assert rec.stable_index == 2
    fan = grow_fan(prod, rec, "unstable", 0.5, 2e-3, rays=8)
    assert len(fan) == 8
    base_u = prod.base.axes[:, 0]
    fiber_u = prod.fiber.splitting.eigenvectors[:, 0]
    plane = np.zeros((4, 2))
    plane[:2, 0] = base_u
    plane[2:, 1] = fiber_u
    for arc in fan:
        t = _tangent_at_root(arc)
        proj = plane @ (plane.T @ t)
        assert np.linalg.norm(proj - t) < 1e-6


def test_heteroclinic_same_point(cat):
    rec = newton_periodic(cat, np.zeros(2), 1)
    ua = grow_manifold(cat, rec, "unstable", 1.0, 1e-3)
    sa = grow_manifold(cat, rec, "stable", 1.0, 1e-3)
    ev = heteroclinic_test(ua, sa, 1e-4)
    assert ev.min_distance < 1e-9  # both pass through the root


def test_homoclinic_density_linear(cat):
    """Long unstable/stable arcs of the origin approach each other off-root."""
    rec = newton_periodic(cat, np.zeros(2), 1)
    ua = grow_manifold(cat, rec, "unstable", 4.5, 2e-3)
    sa = grow_manifold(cat, rec, "stable", 4.5, 2e-3)
    # exclude a neighborhood of the root to witness a true homoclinic point
    keep_u = ua.polyline[torus_distance(ua.polyline, rec.point) > 0.2]
    keep_s = sa.polyline[torus_distance(sa.polyline, rec.point) > 0.2]
    ev = heteroclinic_test(
        ManifoldArc(rec, "unstable", keep_u, 0.0, ua.seed_direction),
        ManifoldArc(rec, "stable", keep_s, 0.0, sa.seed_direction),
        1e-2,
    )
    assert ev.min_distance < 1e-2


def test_short_arc_distance_is_separation(cat):
    d_mat = IntegerMatrix(CAT_MAP)
    pts = [p for p in enumerate_periodic(d_mat, 3) if np.linalg.norm(p) > 1e-9]
    far = max(pts, key=lambda p: float(torus_distance(p, np.zeros(2))))
    rec0 = newton_periodic(cat, np.zeros(2), 1)
    rec1 = newton_periodic(cat, far, 3)
    ua = grow_manifold(cat, rec0, "unstable", 1e-4, 1e-5)
    sa = grow_manifold(cat, rec1, "stable", 1e-4, 1e-5)
    ev = heteroclinic_test(ua, sa, 1e-4)
    sep = float(torus_distance(rec0.point, rec1.point))
    assert abs(ev.min_distance - sep) < 1e-2


def _all_pairs_closest(a, b):
    """Oracle: every vertex pair, first (i, j) in row-major order on ties; rows
    of a go 256 at a time, so arcs of thousands of vertices fit in memory."""
    best = (np.inf, 0, 0)
    for lo in range(0, len(a), 256):
        d = a[lo : lo + 256, None, :] - b[None, :, :]
        d -= np.round(d)
        dist = np.linalg.norm(d, axis=2)
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        if dist[i, j] < best[0]:
            best = (float(dist[i, j]), lo + i, j)
    return best[0], a[best[1]], b[best[2]]


def _closest_vertices(a, b):
    """heteroclinic_test on the polylines a (unstable) and b (stable)."""
    return heteroclinic_test(ManifoldArc(None, "unstable", a, 0.0, None),
                             ManifoldArc(None, "stable", b, 0.0, None))


@settings(max_examples=300)
@given(
    dim=st.sampled_from([2, 4]),
    n_a=st.integers(1, 70),
    n_b=st.integers(1, 70),
    step=st.sampled_from([1e-3, 0.05, 0.4]),
    far=st.booleans(),
    snap=st.booleans(),
    batch=st.sampled_from([1, 3, skeleton._PAIR_CAP]),
    key_bits=st.sampled_from([8, skeleton._KEY_BITS]),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=2, n_a=70, n_b=70, step=1e-3, far=True, snap=False,
         batch=skeleton._PAIR_CAP, key_bits=skeleton._KEY_BITS, seed=1)
@example(dim=4, n_a=70, n_b=60, step=0.05, far=False, snap=False,
         batch=skeleton._PAIR_CAP, key_bits=8, seed=2)
@example(dim=4, n_a=50, n_b=70, step=1e-3, far=True, snap=True, batch=3, key_bits=8, seed=3)
def test_heteroclinic_matches_all_pairs(dim, n_a, n_b, step, far, snap, batch, key_bits, seed):
    """Exact agreement with the all-pairs scan on wrapping random polylines.

    ``far`` puts the arcs half a period apart: with a small ``step`` no pair
    lies within a first-pass cell, which forces the second pass; ``snap`` puts
    the vertices on a 1/8 grid, which makes exact ties; a small ``batch``
    splits the search into many batches of pairs and of query slots;
    ``key_bits`` 8 caps the grid at 4 cells per axis in 4-D (16 in 2-D), below
    the first-pass rule from 5 vertices per 4-D arc on.
    """
    rng = np.random.default_rng(seed)

    def walk(n, start):
        pts = start + np.cumsum(step * rng.standard_normal((n, dim)), axis=0)
        if snap:
            pts = np.round(8.0 * pts) / 8.0
        return reduce_torus(pts)

    a = walk(n_a, rng.random(dim))
    b = walk(n_b, a[0] + 0.5 if far else rng.random(dim))
    with mock.patch.object(skeleton, "_PAIR_CAP", batch), \
            mock.patch.object(skeleton, "_KEY_BITS", key_bits), \
            mock.patch.object(skeleton, "_closest_on_grid",
                              wraps=skeleton._closest_on_grid) as passes:
        ev = _closest_vertices(a, b)
    dist, wa, wb = _all_pairs_closest(a, b)
    assert ev.min_distance == dist
    assert np.array_equal(ev.witness_a, wa)
    assert np.array_equal(ev.witness_b, wb)
    if far and step == 1e-3:
        assert passes.call_count == 2
    if key_bits == 8 and dim == 4 and min(n_a, n_b) >= 5:
        assert passes.call_args_list[0].args[2] == 4


@pytest.mark.parametrize("arc_length, resolution", [(3.0, 0.006), (2.0, 0.02)])
def test_heteroclinic_matches_all_pairs_on_cat_arcs(cat, arc_length, resolution):
    """The skeleton task's arc pairs at the benchmark's full and smoke sizes
    (1793 x 3585 and 225 x 1793 vertices): the origin and the period-3 point
    farthest from it, each unstable arc of one against each stable arc of the
    other, bitwise equal to the all-pairs scan."""
    far = max(enumerate_periodic(IntegerMatrix(CAT_MAP), 3),
              key=lambda p: float(torus_distance(p, np.zeros(2))))
    recs = [newton_periodic(cat, np.zeros(2), 1), newton_periodic(cat, far, 3)]
    for ru, rs in (recs, recs[::-1]):
        for ua in grow_fan(cat, ru, "unstable", arc_length, resolution):
            for sa in grow_fan(cat, rs, "stable", arc_length, resolution):
                ev = heteroclinic_test(ua, sa)
                dist, wa, wb = _all_pairs_closest(ua.polyline, sa.polyline)
                assert ev.min_distance == dist
                assert np.array_equal(ev.witness_a, wa)
                assert np.array_equal(ev.witness_b, wb)


def test_heteroclinic_memory_is_bounded():
    """Two arcs of 2000 vertices half a period apart leave no pair within a
    first-pass cell, and the second pass, on a single cell, measures all 4e6
    pairs: the peak stays within 32 words per pair of a batch of _PAIR_CAP
    (8 MB), below the 32 MB of one N x M float array."""
    import tracemalloc

    rng = make_rng(7, 23)
    a = reduce_torus(0.1 + np.cumsum(1e-4 * rng.standard_normal((2000, 2)), axis=0))
    b = reduce_torus(0.6 + np.cumsum(1e-4 * rng.standard_normal((2000, 2)), axis=0))
    tracemalloc.start()
    try:
        ev = _closest_vertices(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ev.min_distance == _all_pairs_closest(a, b)[0]
    assert peak < 32 * 8 * skeleton._PAIR_CAP < 2000 * 2000 * 8


def test_heteroclinic_tie_on_a_tight_block_bound():
    """A tie at exactly the bound of the second pass.

    The first pass (11 cells per axis) finds only pairs at 0.125, beyond its
    reach of 1/11, so the second pass covers every pair within 0.125, the
    answer itself.  Of the tied pairs, (0, 16) comes first and must be found.
    """
    a = np.array([[0.25, 0.3]] + [[0.5, 0.3]] * 15)
    b = np.array([[0.625, 0.3]] * 16 + [[0.125, 0.3]])
    ev = heteroclinic_test(ManifoldArc(None, "unstable", a, 0.0, None),
                           ManifoldArc(None, "stable", b, 0.0, None))
    assert ev.min_distance == 0.125
    assert np.array_equal(ev.witness_a, a[0])
    assert np.array_equal(ev.witness_b, b[16])


def test_heteroclinic_requires_kinds(cat):
    rec = newton_periodic(cat, np.zeros(2), 1)
    ua = grow_manifold(cat, rec, "unstable", 0.5, 1e-3)
    with pytest.raises(ValueError):
        heteroclinic_test(ua, ua, 1e-4)


def test_skeleton_single_record(cat):
    rec = newton_periodic(cat, np.zeros(2), 1)
    cand = extract_skeleton([rec], {0: {"unstable": [], "stable": []}})
    assert cand.members == [rec]


def test_skeleton_mutual_pair_collapses(cat):
    d_mat = IntegerMatrix(CAT_MAP)
    pts = [p for p in enumerate_periodic(d_mat, 3) if np.linalg.norm(p) > 1e-9]
    far = max(pts, key=lambda p: float(torus_distance(p, np.zeros(2))))
    recs = [newton_periodic(cat, np.zeros(2), 1), newton_periodic(cat, far, 3)]
    arcs = {
        i: {"unstable": grow_fan(cat, r, "unstable", 3.0, 2e-3),
            "stable": grow_fan(cat, r, "stable", 3.0, 2e-3)}
        for i, r in enumerate(recs)
    }
    cand = extract_skeleton(recs, arcs, tol=2e-3)
    assert cand.connection_matrix[0, 1] and cand.connection_matrix[1, 0]
    assert len(cand.members) == 1
    assert cand.members[0].period == 1  # tie-break keeps the lower period


def test_skeleton_short_arcs_keep_both(cat):
    d_mat = IntegerMatrix(CAT_MAP)
    pts = [p for p in enumerate_periodic(d_mat, 3) if np.linalg.norm(p) > 1e-9]
    far = max(pts, key=lambda p: float(torus_distance(p, np.zeros(2))))
    recs = [newton_periodic(cat, np.zeros(2), 1), newton_periodic(cat, far, 3)]
    arcs = {
        i: {"unstable": grow_fan(cat, r, "unstable", 1e-4, 1e-5),
            "stable": grow_fan(cat, r, "stable", 1e-4, 1e-5)}
        for i, r in enumerate(recs)
    }
    cand = extract_skeleton(recs, arcs, tol=1e-6)
    assert len(cand.members) == 2  # no evidence of connection: all retained


def test_skeleton_index_mismatch_rejected(cat, tilde):
    rec1 = newton_periodic(cat, np.zeros(2), 1)
    rec_p = newton_periodic(tilde, tilde.chart_p.center, 1)
    with pytest.raises(ValueError):
        extract_skeleton([rec1, rec_p], {0: {"unstable": [], "stable": []},
                                         1: {"unstable": [], "stable": []}})
