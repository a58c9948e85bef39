import math
import os
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from phlab import deformation, gibbs, torus
from phlab.deformation import CUBE_BITS, screen_cells
from phlab.errors import SplittingNotConvergedError
from phlab.gibbs import (
    CenterGrowthTracker,
    EmpiricalMeasure,
    SlabMassTracker,
    UnstablePlaque,
    _bin_counts,
    _cell_index,
    cesaro_push,
    seed_plaque,
    total_variation,
)
from phlab.product import LinearSystem
from phlab.torus import CAT_MAP, ToralAutomorphism, reduce_torus, torus_displacement

from conftest import chart_points, with_method


@pytest.fixture(scope="module")
def cat():
    return LinearSystem(ToralAutomorphism(CAT_MAP))


def test_measure_total_and_uniform():
    m = EmpiricalMeasure.uniform((8, 8))
    assert abs(m.total - 1.0) < 1e-12
    assert np.all(m.mass == 1.0 / 64.0)


def test_from_points_mass_conserved(rng):
    pts = rng.random((5000, 2))
    m = EmpiricalMeasure.from_points(pts, (16, 16))
    assert abs(m.total - 1.0) < 1e-12


def test_total_variation_cases():
    grid = (4, 4)
    m = EmpiricalMeasure.uniform(grid)
    assert total_variation(m, m) == 0.0
    a = EmpiricalMeasure.from_points(np.atleast_2d([0.1, 0.1]), grid)
    b = EmpiricalMeasure.from_points(np.atleast_2d([0.9, 0.9]), grid)
    assert total_variation(a, b) == 1.0
    # uniform vs mass concentrated on half the bins: closed form 1/2
    half = np.zeros(grid)
    half[:2, :] = 1.0 / 8.0
    assert abs(total_variation(m, EmpiricalMeasure(grid, half)) - 0.5) < 1e-12


def test_total_variation_grid_mismatch():
    with pytest.raises(ValueError):
        total_variation(EmpiricalMeasure.uniform((4, 4)), EmpiricalMeasure.uniform((8, 8)))


def test_pushforward_base_cases():
    """The base pushforward is the marginal on the first two axes."""
    grid = (4, 4, 4, 4)
    mass = np.ones(grid) / 4**4
    m = EmpiricalMeasure(grid, mass)
    base = m.marginal((0, 1))
    assert base.grid == (4, 4)
    assert abs(base.total - 1.0) < 1e-12
    assert np.allclose(base.mass, 1.0 / 16.0)
    atom = EmpiricalMeasure.from_points(np.atleast_2d([0.1, 0.2, 0.3, 0.4]), grid)
    proj = atom.marginal((0, 1))
    assert proj.mass[0, 0] == 1.0
    with pytest.raises(ValueError):
        m.marginal(range(5))


def test_plaque_atom_case(system):
    plq = UnstablePlaque(anchor=np.array([0.2, 0.3, 0.4, 0.5]),
                         direction=np.array([1.0, 0, 0, 0]),
                         half_length=0.0, sample_count=7)
    pts = plq.points()
    assert pts.shape == (7, 4)
    assert np.all(pts == pts[0])


def test_plaque_samples_on_eigenline(cat):
    u = cat.axes[:, 0]
    plq = UnstablePlaque(anchor=np.zeros(2), direction=u, half_length=0.2,
                         sample_count=101)
    pts = plq.points()
    disp = torus_displacement(pts, np.zeros(2))
    cross = disp[:, 0] * u[1] - disp[:, 1] * u[0]
    assert np.max(np.abs(cross)) < 1e-12


def test_seed_plaque_tangency(system):
    plq = seed_plaque(system, np.array([0.21, 0.43, 0.65, 0.87]), 0.1, 100)
    # direction is the converged strong-unstable line: angular tolerance 1e-6
    ax = system.chart_p.axes[:, 0]
    angle = np.arccos(min(1.0, abs(float(plq.direction @ ax))))
    assert angle < system.params.eps0 + 1e-6


def test_seed_plaque_unconverged_raises(system):
    # a single iteration cannot converge where the Jacobian has a gradient row
    d, k = system.params.delta, system.params.k
    anchor = system.chart_p.from_chart(np.array([0.001, 0.001, 0.2 * d / k, 0.001]))
    with pytest.raises(SplittingNotConvergedError, match="not converged"):
        seed_plaque(system, anchor, 0.1, 10, n_iter=1)


def test_base_projection_uniformity(system):
    """KS statistic of the projected segment parameter against uniform."""
    plq = seed_plaque(system, np.array([0.11, 0.29, 0.53, 0.77]), 0.1, 10_000)
    base_dir = plq.direction[:2] / np.linalg.norm(plq.direction[:2])
    proj = torus_displacement(plq.points(), plq.anchor)[:, :2] @ base_dir
    t = (np.sort(proj) - proj.min()) / (proj.max() - proj.min())
    n = len(t)
    ks = np.max(np.abs(t - (np.arange(n) + 0.5) / n))
    assert ks < 0.02


def test_cesaro_atom_at_fixed_point(system):
    p = system.chart_p.center
    plq = UnstablePlaque(anchor=p, direction=system.chart_p.axes[:, 0],
                         half_length=0.0, sample_count=10)
    state = cesaro_push(system, plq, 1, (8, 8, 8, 8))
    assert state.accumulated.mass[0, 0, 0, 0] == 1.0


def test_cat_map_equidistribution(cat):
    plq = UnstablePlaque(anchor=np.array([0.37, 0.61]), direction=cat.axes[:, 0],
                         half_length=0.2, sample_count=10_000)
    state = cesaro_push(cat, plq, 2000, (32, 32))
    tv = total_variation(state.accumulated, EmpiricalMeasure.uniform((32, 32)))
    assert tv < 0.05
    assert abs(state.accumulated.total - 1.0) < 1e-12


def test_cesaro_factor_two_stabilization(cat):
    plq = UnstablePlaque(anchor=np.array([0.37, 0.61]), direction=cat.axes[:, 0],
                         half_length=0.2, sample_count=4000)
    grid = (32, 32)
    estimates = {n: cesaro_push(cat, plq, n, grid).accumulated for n in (250, 500, 1000)}
    d1 = total_variation(estimates[250], estimates[500])
    d2 = total_variation(estimates[500], estimates[1000])
    assert d2 <= d1 + 0.005


def test_cesaro_invariance_gap(cat):
    plq = UnstablePlaque(anchor=np.array([0.37, 0.61]), direction=cat.axes[:, 0],
                         half_length=0.2, sample_count=4000)
    state = cesaro_push(cat, plq, 1000, (32, 32))
    assert state.invariance_gap() < 0.05


def test_deformed_slab_mass_and_base_marginal(system):
    plq = seed_plaque(system, np.array([0.21, 0.43, 0.65, 0.87]), 0.1, 4000)
    slab = SlabMassTracker(system)
    center = CenterGrowthTracker(system, 4000, warmup=50)
    state = cesaro_push(system, plq, 600, (16,) * 4, trackers=(slab, center))
    assert abs(state.accumulated.total - 1.0) < 1e-12
    assert slab.value <= 0.01 + 0.02
    base = state.accumulated.marginal((0, 1))
    assert total_variation(base, EmpiricalMeasure.uniform((16, 16))) < 0.05
    assert center.value > 0.0


def test_cesaro_rejects_zero_steps(cat):
    plq = UnstablePlaque(anchor=np.zeros(2), direction=cat.axes[:, 0],
                         half_length=0.1, sample_count=10)
    with pytest.raises(ValueError):
        cesaro_push(cat, plq, 0, (8, 8))


def test_measure_rows_roundtrip(rng):
    m = EmpiricalMeasure.from_points(rng.random((100, 2)), (4, 4))
    lines = list(m.csv_lines())
    assert abs(sum(float(line.split(",")[-1]) for line in lines) - 1.0) < 1e-12
    assert all(line.endswith("\n") and line.count(",") == 2 for line in lines)


@pytest.mark.parametrize("shape, grid", [((0, 2), (4, 4)), ((0, 4), (8,) * 4), ((5, 3), (4, 4)),
                                         ((5, 1), (4, 4)), ((5, 4), (8,)), ((5,), (4, 4))])
def test_binning_refuses_empty_and_misshaped_clouds(rng, shape, grid):
    """An empty cloud, or one whose width is not len(grid), raises naming its
    shape: neither an all-NaN measure nor a bin of the first columns."""
    pts = rng.random(shape)
    named = re.escape(str(pts.shape))
    with pytest.raises(ValueError, match=named):
        _bin_counts(pts, grid)
    if pts.ndim == 2:
        with pytest.raises(ValueError, match=named):
            EmpiricalMeasure.from_points(pts, grid)


def test_cesaro_push_refuses_empty_and_misshaped_plaques(cat):
    empty = UnstablePlaque(anchor=np.zeros(2), direction=cat.axes[:, 0],
                           half_length=0.1, sample_count=0)
    with pytest.raises(ValueError, match=re.escape("(0, 2)")):
        cesaro_push(cat, empty, 3, (8, 8))
    plq = UnstablePlaque(anchor=np.zeros(2), direction=cat.axes[:, 0],
                         half_length=0.1, sample_count=10)
    with pytest.raises(ValueError, match=re.escape("(10, 2)")):
        cesaro_push(cat, plq, 3, (8, 8, 8, 8))


# --- oracles: the former per-point kernels, kept to pin the fast ones bitwise ---

def _add_at_counts(points, grid):
    """Former binning: one np.add.at per point into a float grid."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    idx = tuple(
        np.minimum((reduce_torus(points[:, j]) * grid[j]).astype(int), grid[j] - 1)
        for j in range(len(grid))
    )
    counts = np.zeros(grid)
    np.add.at(counts, idx, 1.0)
    return counts


def _add_at_mass(points, grid):
    """Former from_points: the np.add.at counts over the number of points."""
    return _add_at_counts(points, grid) / len(np.atleast_2d(points))


def _edge_cloud(rng, n, grid):
    """Random points plus, per column, every bin edge of its side and one ulp
    either side, 1 - ulp, 1.0, -0.0 and small negatives; every 7th row -0.0."""
    cols = []
    for g in grid:
        edges = np.arange(g + 1) / g
        special = np.concatenate([
            edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0),
            [np.nextafter(1.0, 0.0), 1.0, -0.0, -np.nextafter(0.0, 1.0), -1e-17, -1e-3,
             -0.5 / g, np.nextafter(0.5, 0.0), 0.5, 2.0 - 1e-17]])
        cols.append(np.concatenate([rng.random(n), rng.choice(special, n)]))
    pts = np.stack(cols, axis=1)
    pts[::7] = -0.0
    return pts


@pytest.mark.parametrize("grid", [(4, 4), (16, 16), (3, 5), (4, 4, 4, 4), (16,) * 4,
                                  (3, 5, 7, 2), (32, 32)])
def test_from_points_matches_add_at_bitwise(rng, grid):
    """The counting helper and from_points against np.add.at, bitwise."""
    pts = _edge_cloud(rng, 3000, grid)
    counts = _bin_counts(pts, grid)
    assert counts.shape == grid and counts.sum() == len(pts)
    assert counts.astype(float).tobytes() == _add_at_counts(pts, grid).tobytes()
    got = EmpiricalMeasure.from_points(pts, grid).mass
    want = _add_at_mass(pts, grid)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_bin_counts_refuse_nan():
    pts = np.full((4, 2), 0.5)
    pts[2, 0] = np.nan  # a NaN in a leading column would wrap into a cell
    with pytest.raises(ValueError, match="finite"):
        _bin_counts(pts, (16, 16))


@pytest.mark.parametrize("grid", [(8, 8), (3, 5)])
def test_bin_counts_reduce_unreduced_clouds(rng, grid):
    """_bin_counts reduces before _cell_index: negative points, points >= 1
    and exact integers bin as np.add.at bins their reduced values, bitwise."""
    integers = rng.integers(-4, 5, (300, 2)).astype(float)
    pts = np.concatenate([rng.random((1000, 2)) * 20.0 - 10.0, rng.random((1000, 2)) + 1.0,
                          -rng.random((1000, 2)), integers, integers + 0.5])
    assert _bin_counts(pts, grid).astype(float).tobytes() == _add_at_counts(pts, grid).tobytes()


def test_cell_index_refuses_nan_in_the_last_column():
    pts = np.full((4, 2), 0.5)
    pts[2, 1] = np.nan
    for grid in ((16, 16), (3, 5)):
        with pytest.raises(ValueError, match="finite"):
            _cell_index(pts, grid)


class _NanStep:
    """A system whose step puts a NaN in the last column of one row, once."""

    def __init__(self, system, at):
        self.system, self.at, self.calls = system, at, 0

    def step(self, x):
        self.calls += 1
        out = self.system.step(x)
        if self.calls == self.at:
            out[3, -1] = np.nan
        return out


def test_cesaro_push_refuses_a_nan_mid_push(cat):
    plq = UnstablePlaque(anchor=np.array([0.37, 0.61]), direction=cat.axes[:, 0],
                         half_length=0.2, sample_count=10)
    stub = _NanStep(cat, 3)
    with pytest.raises(ValueError, match="finite"):
        cesaro_push(stub, plq, 6, (8, 8))
    assert stub.calls == 3


def _same_push(a, b):
    return all(x.tobytes() == y.tobytes() for x, y in zip(
        (a.accumulated.mass, a.first_step.mass, a.last_step.mass, a.samples),
        (b.accumulated.mass, b.first_step.mass, b.last_step.mass, b.samples)))


@pytest.mark.parametrize("n_steps", [1, 5])
def test_degenerate_plaque_off_the_unit_cube_pushes_as_its_reduced_anchor(system, n_steps):
    """A half_length 0 plaque whose anchor lies outside [0, 1) gives the bytes
    of the push from its reduced anchor, samples included, with and without
    trackers."""
    anchor = np.array([1.21, -0.57, 2.65, -3.13])
    plaques = [UnstablePlaque(anchor=a, direction=system.chart_p.axes[:, 0], half_length=0.0,
                              sample_count=20) for a in (anchor, reduce_torus(anchor))]
    assert _same_push(*(cesaro_push(system, p, n_steps, (8,) * 4) for p in plaques))
    runs = []
    for plq in plaques:
        slab, center = SlabMassTracker(system), CenterGrowthTracker(system, 20, warmup=0)
        runs.append((cesaro_push(system, plq, n_steps, (8,) * 4, trackers=(slab, center)),
                     slab.hits, center.log_sum, center.dirs.tobytes()))
    (a, *rest_a), (b, *rest_b) = runs
    assert _same_push(a, b) and rest_a == rest_b


def test_tracked_push_reduces_the_cloud_once_per_step(system, monkeypatch):
    """A tracked push whose cloud never meets the screen calls reduce_torus
    n_steps + 2 times: once per step (A mod 1), once on entry
    (plaque.points) and once for last_step; no step reduces a second time."""
    calls = []
    original = torus.reduce_torus

    def counting(x):
        calls.append(len(x))
        return original(x)

    for module in (torus, gibbs, deformation):
        monkeypatch.setattr(module, "reduce_torus", counting)
    rows = []

    class Rows:
        def observe(self, _step, _pts, record):
            rows.append(record.rows.size)

    plq = UnstablePlaque(anchor=np.array([0.21, 0.43, 0.65, 0.87]),
                         direction=system.chart_p.axes[:, 0], half_length=1e-3, sample_count=50)
    n_steps = 8
    cesaro_push(system, plq, n_steps, (8,) * 4, trackers=(Rows(),))
    assert rows == [0] * n_steps
    assert calls == [50] * (n_steps + 2)


def _per_step_push(system, plaque, n_steps, grid):
    """cesaro_push before the shared count array: from_points on every step.
    Gives the sum of the step counts over N n_steps, the former fold
    sum_j fl(c_j / N) / n_steps, and the first and last step masses."""
    pts, acc, counts = plaque.points(), np.zeros(grid), np.zeros(grid, np.int64)
    for j in range(n_steps):
        mass = EmpiricalMeasure.from_points(pts, grid).mass
        acc += mass
        counts += _bin_counts(pts, grid)
        if j == 0:
            first = mass
        if j < n_steps - 1:
            pts = system.step(pts)
    last = EmpiricalMeasure.from_points(system.step(pts), grid).mass
    return counts / (len(pts) * n_steps), acc / n_steps, first, last, pts


def _assert_exact_ratio(mass, ratio, fold, n_steps):
    """mass is the count ratio bitwise, and within 2 n_steps eps (relative) of
    the former float fold of the step masses."""
    assert mass.tobytes() == ratio.tobytes()
    assert np.all(np.abs(mass - fold) <= 2 * n_steps * np.finfo(float).eps * mass)


@pytest.mark.parametrize("n_steps, grid", [(1, (16,) * 4), (40, (16,) * 4), (40, (3, 5, 7, 2))])
def test_cesaro_push_matches_per_step_from_points(system, n_steps, grid):
    plq = seed_plaque(system, np.array([0.21, 0.43, 0.65, 0.87]), 0.1, 3000)
    state = cesaro_push(system, plq, n_steps, grid)
    ratio, fold, first, last, pts = _per_step_push(system, plq, n_steps, grid)
    _assert_exact_ratio(state.accumulated.mass, ratio, fold, n_steps)
    assert state.first_step.mass.tobytes() == first.tobytes()
    assert state.last_step.mass.tobytes() == last.tobytes()
    assert state.samples.tobytes() == pts.tobytes()


def test_cesaro_masses_are_the_correctly_rounded_count_ratios(cat):
    """Each accumulated mass is Fraction(count, N n_steps) rounded once, the
    count taken point by point with floor(x g); the former float fold of the
    step masses misses that rounding in some bins."""
    plq = UnstablePlaque(anchor=np.array([0.1, 0.3]), direction=np.array([0.6, 0.8]),
                         half_length=0.2, sample_count=7)
    n_steps, grid = 9, (3, 5)
    state = cesaro_push(cat, plq, n_steps, grid)
    counts, fold, pts = Counter(), np.zeros(grid), plq.points()
    for _ in range(n_steps):
        step = Counter(tuple(math.floor(v * g) for v, g in zip(x, grid))
                       for x in reduce_torus(pts).tolist())
        counts.update(step)
        for cell, c in step.items():
            fold[cell] += c / len(pts)
        pts = cat.step(pts)
    want = np.zeros(grid)
    for cell, c in counts.items():
        want[cell] = float(Fraction(c, len(pts) * n_steps))
    assert state.accumulated.mass.tobytes() == want.tobytes()
    assert np.any(fold / n_steps != want)


def test_from_points_single_point_matches_add_at():
    for pt in ([0.0, 0.25, np.nextafter(1.0, 0.0), -0.0], [-0.0, -0.0, 1.0, 0.999]):
        got = EmpiricalMeasure.from_points(np.atleast_2d(pt), (8, 8, 8, 8)).mass
        assert got.tobytes() == _add_at_mass(pt, (8, 8, 8, 8)).tobytes()


def _former_rows(measure):
    rows = []
    for idx in np.argwhere(measure.mass > 0):
        rows.append((*(int(i) for i in idx), float(measure.mass[tuple(idx)])))
    return rows


def _printf_lines(measure, rows):
    """The CSV lines of rows as the former writer rendered them."""
    line = "%d," * len(measure.grid) + "%.17g\n"
    return "".join(line % row for row in rows)


def test_csv_lines_match_argwhere_loop(rng):
    m = EmpiricalMeasure.from_points(_edge_cloud(rng, 500, (6,) * 4), (6, 6, 6, 6))
    assert "".join(m.csv_lines()) == _printf_lines(m, _former_rows(m))


def _ulp_apart(grid):
    """Masses 1/64 and one ulp either side of it, with empty bins between."""
    mass = np.full(grid, 1.0 / 64.0)
    flat = mass.reshape(-1)
    flat[::3] = np.nextafter(1.0 / 64.0, 1.0)
    flat[1::5] = np.nextafter(1.0 / 64.0, 0.0)
    flat[2::7] = 0.0
    return mass


def _measures(rng):
    out = []
    for grid in ((16,), (4, 4), (3, 4, 5, 2)):
        distinct = rng.random(grid)
        out += [EmpiricalMeasure.uniform(grid), EmpiricalMeasure(grid, distinct / distinct.sum()),
                EmpiricalMeasure(grid, _ulp_apart(grid)), EmpiricalMeasure(grid, np.zeros(grid))]
        gaps = distinct.copy()
        gaps[0] = gaps[-1] = 0.0  # empty first and last slabs of the first axis
        out.append(EmpiricalMeasure(grid, gaps))
        out.append(EmpiricalMeasure.from_points(np.atleast_2d(rng.random(len(grid))), grid))
    counts = rng.integers(0, 5, (6,) * 4)  # few distinct masses, as a Cesaro sum has
    out.append(EmpiricalMeasure((6,) * 4, counts / counts.sum()))
    return out


def test_csv_lines_are_the_printf_lines_bytewise(rng):
    """csv_lines has the bytes of "%d,...,%.17g\n" % row on every occupied bin:
    uniform and all-distinct masses, masses one ulp apart, empty slabs, no
    mass at all and atoms, on 1-D, 2-D and 4-D grids."""
    for m in _measures(rng):
        occupied = m.mass > 0
        rows = zip(*(i.tolist() for i in np.nonzero(occupied)), m.mass[occupied].tolist())
        got = list(m.csv_lines())
        assert "".join(got) == _printf_lines(m, rows)
        assert len(got) == np.count_nonzero(occupied)


def _write_peak(lines):
    """tracemalloc's peak while lines are written to the null device."""
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as fh:
            fh.writelines(lines)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_lines_peak_below_former_writer(rng):
    """Writing the 16^4-bin measure peaks no higher than the former writer,
    which held every index and mass as lists (to_rows) for one line % row."""
    counts = rng.integers(0, 6, (16,) * 4)
    m = EmpiricalMeasure((16,) * 4, counts / counts.sum())

    def former():  # a generator function: nothing is built before the write
        occupied = m.mass > 0
        rows = zip(*(i.tolist() for i in np.nonzero(occupied)), m.mass[occupied].tolist())
        yield from ("%d,%d,%d,%d,%.17g\n" % row for row in rows)

    assert _write_peak(m.csv_lines()) <= _write_peak(former())


def test_marginal_rejects_bad_dims_before_summing():
    m = EmpiricalMeasure.uniform((2, 3, 4))
    for dims in [(0, 0), (1, 0), (0, 3), (-1,), (0, 1, 1)]:
        with pytest.raises(ValueError, match="dims must be sorted, unique and in range"):
            m.marginal(dims)
    assert m.marginal((0, 2)).grid == (2, 4)
    assert m.marginal((0, 1, 2)).mass.tobytes() == m.mass.tobytes()


def _former_slab_hits(system, pts):
    coords, _ = system.chart_p.to_chart(pts)
    return float(np.sum(np.all(np.abs(coords[:, :2]) <= system.chart_p.half_width, axis=1)))


def test_slab_tracker_matches_chart_lookup(system, rng):
    w = system.chart_p.half_width
    edge = np.array([[w, -w, 0.3, -0.2], [np.nextafter(w, 1.0), 0.0, 0.0, 0.0],
                     [-w, w, 5 * w, 5 * w], [0.0, -np.nextafter(w, 1.0), 0.0, 0.0]])
    coords = np.concatenate([(rng.random((4000, 4)) - 0.5) * 4 * w, edge])
    pts = np.concatenate([system.chart_p.from_chart(coords), rng.random((4000, 4))])
    slab = SlabMassTracker(system)
    slab.observe(0, pts, system.step_record(pts)[1])
    slab.observe(1, pts[:10], system.step_record(pts[:10])[1])
    assert slab.hits == _former_slab_hits(system, pts) + _former_slab_hits(system, pts[:10])
    assert slab.total == len(pts) + 10


def _full_batch_slab_hits(system, pts):
    """SlabMassTracker's count before the cube screen: every row displaced and
    charted, each (uu, ss) coordinate as two products and one sum."""
    chart = system.chart_p
    d, a = torus_displacement(pts, chart.center), chart.axes
    near = np.abs(d[:, [0, 0]] * a[0, :2] + d[:, [1, 1]] * a[1, :2]) <= chart.half_width
    return float(np.count_nonzero(near[:, 0] & near[:, 1]))


def test_slab_tracker_matches_full_batch_formula(system, rng):
    """Screened counts equal the full-batch ones on the slab's edges and one ulp
    either side, alone, as the lone slab row of a batch of 2 or 100, in
    batches of slab rows only, and in a mixed batch of 1e4 with a NaN row."""
    w = system.chart_p.half_width
    edge = [w, np.nextafter(w, 1.0), np.nextafter(w, 0.0)]
    edge += [-v for v in edge] + [0.0]
    coords = np.array([[a, b, *(rng.random(2) - 0.5) * 8 * w] for a in edge for b in edge])
    slab = system.chart_p.from_chart(coords)
    far = rng.random((4000, 4))
    far = far[system.screen_tables[0][screen_cells(far[:, :2])[:, 0]] == 0]  # no slab row
    big = rng.random((10_000, 4))
    big[rng.choice(len(big), len(slab), replace=False)] = slab
    big[7] = np.nan
    batches = [slab, big] + [x[None, :] for x in slab]
    for i, x in enumerate(slab):
        for n in (2, 100):
            batch = far[rng.choice(len(far), n, replace=False)]
            batch[i % n] = x
            batches.append(batch)
    tracker, want = SlabMassTracker(system), 0.0
    for pts in batches:
        tracker.observe(0, pts, system.step_record(pts)[1])
        want += _full_batch_slab_hits(system, pts)
    assert tracker.hits == want and want > len(slab)
    assert tracker.total == sum(len(b) for b in batches)


def _full_batch_center_step(system, pts, dirs):
    """CenterGrowthTracker.observe before the screen: every row through
    jacobian_chart, one einsum on the (u, s) block, and np.linalg.norm."""
    w = np.einsum("nij,nj->ni", system.jacobian_chart(pts)[:, 2:4, 2:4], dirs)
    g = np.linalg.norm(w, axis=1)
    return float(np.sum(np.log(g))), w / g[:, None]


def test_center_tracker_norm_matches_linalg_norm(system, rng):
    """The screened observe equals the full-batch one bitwise: on a batch with
    no screened row, on one row at p and one at q, on batches of 2 and 100
    that each hold one in-cube row, and on a mixed batch; jacobian_chart only
    ever sees screened rows."""
    far = rng.random((4000, 4))
    far = far[system.screen(far) == 0]
    inside = chart_points(system, rng, 50)
    inside = inside[system.chart_p.to_chart(inside)[1]]
    batches = [far[:300], system.chart_p.center[None, :], system.chart_q.center[None, :],
               np.concatenate([rng.random((500, 4)), chart_points(system, rng, 500)])]
    for n in (2, 100):
        for i, x in enumerate(inside[:5]):
            batch = far[rng.choice(len(far), n, replace=False)]
            batch[i % n] = x
            batches.append(batch)

    seen = []

    def screened_only(x):
        seen.append(len(x))
        assert np.all(system.screen(x) != 0)
        return system.jacobian_chart(x)

    screened = with_method(system, "jacobian_chart", screened_only)
    for pts in batches:
        dirs = rng.standard_normal((len(pts), 2))
        want_sum, want_dirs = _full_batch_center_step(system, pts, dirs)
        tracker = CenterGrowthTracker(screened, len(pts), warmup=0)
        tracker.dirs = dirs.T.copy()
        record = system.step_record(pts)[1]
        tracker.observe(0, pts, record)
        assert tracker.log_sum == want_sum
        assert tracker.dirs.T.tobytes() == want_dirs.tobytes()
    # one call per observe, empty on the batch with no screened row
    assert len(seen) == len(batches) and seen[0] == 0 and seen[1] == seen[2] == 1
    assert max(seen) < 1000


# --- the Cesaro loop before the step record: every screen taken again ---

class _FormerSlab(SlabMassTracker):
    def __init__(self, system):
        super().__init__(system)
        self.table = system.screen_tables[0]

    def observe(self, _step, pts):
        cells = screen_cells(pts)[:, 0]
        rows = (self.table[cells] & CUBE_BITS[0]).nonzero()[0]
        d = torus_displacement(pts[rows, :2], self.center)
        coords = d[:, :1] * self.axes[0]
        coords += d[:, 1:] * self.axes[1]
        near = np.abs(coords) <= self.half_width
        self.hits += float(np.count_nonzero(near[:, 0] & near[:, 1]))
        self.total += len(pts)


class _FormerCenter(CenterGrowthTracker):
    """Directions as (N, 2) rows, scaled by a tiled (N, 2) rate array."""

    def __init__(self, system, sample_count, warmup=50):
        super().__init__(system, sample_count, warmup)
        self.center_rates = np.tile(system.rates[2:4], (sample_count, 1))
        self.dirs = np.broadcast_to(np.array([1.0, 0.0]), (sample_count, 2)).copy()

    def observe(self, step, pts):
        w = self.dirs * self.center_rates
        rows = self.system.screen(pts).nonzero()[0]
        jac = self.system.jacobian_chart(pts[rows])[:, 2:4, 2:4]
        w[rows] = np.einsum("nij,nj->ni", jac, self.dirs[rows])
        g = np.sqrt(w[:, 0] * w[:, 0] + w[:, 1] * w[:, 1])
        if step >= self.warmup:
            self.log_sum += float(np.sum(np.log(g)))
            self.count += len(pts)
        for column in w.T:
            column /= g
        self.dirs = w


def _former_tracked_push(system, plaque, n_steps, grid, trackers):
    """cesaro_push before step_record: step, and observe(step, pts) with the
    trackers' own screens, and the last step taken after the loop."""
    pts = plaque.points()
    acc, step_mass = np.zeros(grid), np.empty(grid)
    counts = np.zeros(grid, np.int64)
    for j in range(n_steps):
        step_counts = _bin_counts(pts, grid)
        np.divide(step_counts, len(pts), out=step_mass)
        acc += step_mass
        counts += step_counts
        if j == 0:
            first = step_mass.copy()
        for tracker in trackers:
            tracker.observe(j, pts)
        if j < n_steps - 1:
            pts = system.step(pts)
    last = EmpiricalMeasure.from_points(system.step(pts), grid).mass
    return counts / (len(pts) * n_steps), acc / n_steps, first, last, pts


@pytest.mark.parametrize("eps_tilde, n_steps", [(0.0, 1), (0.0, 40), (0.05, 40)])
def test_tracked_cesaro_push_matches_former_loop_bitwise(system, eps_tilde, n_steps):
    """Trackers fed by step_record against the former loop: the measures, the
    samples and both trackers bitwise, on a plaque through the p cube's band,
    so that the chart pass runs."""
    sys_ = system.make_tilde(eps_tilde) if eps_tilde else system
    d, k = sys_.params.delta, sys_.params.k
    anchor = sys_.chart_p.from_chart(np.array([0.001, 0.001, 0.2 * d / k, 0.001]))
    plq = UnstablePlaque(anchor=anchor, direction=sys_.chart_p.axes[:, 0], half_length=0.1,
                         sample_count=2000)
    grid = (16,) * 4
    charted = []

    def counting(x):
        charted.append(len(x))
        return sys_.jacobian_chart(x)

    counted = with_method(sys_, "jacobian_chart", counting)
    slab, center = SlabMassTracker(counted), CenterGrowthTracker(counted, 2000, warmup=0)
    state = cesaro_push(counted, plq, n_steps, grid, trackers=(slab, center))
    former_slab, former_center = _FormerSlab(sys_), _FormerCenter(sys_, 2000, warmup=0)
    ratio, fold, first, last, pts = _former_tracked_push(sys_, plq, n_steps, grid,
                                                         (former_slab, former_center))
    assert len(charted) == n_steps and sum(charted) > 100
    assert state.steps == n_steps
    _assert_exact_ratio(state.accumulated.mass, ratio, fold, n_steps)
    assert state.first_step.mass.tobytes() == first.tobytes()
    assert state.last_step.mass.tobytes() == last.tobytes()
    assert state.samples.tobytes() == pts.tobytes()
    assert slab.value == former_slab.value and slab.hits > 0
    assert center.value == former_center.value
    assert center.dirs.T.tobytes() == former_center.dirs.tobytes()
