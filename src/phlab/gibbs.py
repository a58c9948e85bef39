"""Plaque-pushforward estimation of u-state measures on torus grids.

A strong-unstable plaque is sampled uniformly along the extracted uu
direction; its Cesaro average of forward pushes is binned on a regular grid.
The limit object's two checkable signatures are (i) the base marginal matches
Lebesgue on the factor torus and (ii) mass of the deformation slab stays at
the Lebesgue budget of the chart cross-section.

Samples, not curve segments, are pushed: stretching opens gaps that only cost
spatial resolution, which the grid tolerance absorbs.  from_points counts a
cloud's cell indices (_cell_index) with one ``np.bincount``; cesaro_push adds
each step's into one int64 array of exact counts, so the accumulated measure
is one rounding of an exact count ratio.  The pushed cloud is reduced once,
by plaque.points, then by each step's A mod 1 alone.
``EmpiricalMeasure.csv_lines`` yields the CSV lines of the occupied bins one
slab of the first axis at a time, so the 16^4-bin measure CSV streams to disk
without a row list; the masses are few distinct values (small counts over
N steps), and each is formatted once.

The trackers use the exact structure of f on the batch: outside the two cubes
Df is diag(rates), so only screened rows are charted.  With trackers,
cesaro_push steps through DeformedSystem.step_record, and each tracker reads
that step's one screen of the cloud from its StepRecord: SlabMassTracker the
(uu, ss) table bits, whose p-cube rows it checks on the (uu, ss) chart pair
alone, and CenterGrowthTracker the candidate rows, which it charts, carrying
every other row's center direction by diag(lu, ls) on two contiguous rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .deformation import CUBE_BITS
from .errors import SplittingNotConvergedError
from .torus import reduce_torus, torus_displacement


class EmpiricalMeasure:
    """Non-negative mass on a regular product grid over [0,1)^d, total mass 1."""

    def __init__(self, grid, mass):
        self.grid = tuple(int(g) for g in grid)
        mass = np.asarray(mass, dtype=float)
        if mass.shape != self.grid:
            raise ValueError(f"mass shape {mass.shape} does not match grid {self.grid}")
        self.mass = mass

    @classmethod
    def from_points(cls, points, grid):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        grid = tuple(int(g) for g in grid)
        return cls(grid, _bin_counts(points, grid) / len(points))

    @classmethod
    def uniform(cls, grid):
        grid = tuple(int(g) for g in grid)
        n = int(np.prod(grid))
        return cls(grid, np.full(grid, 1.0 / n))

    @property
    def total(self) -> float:
        return float(np.sum(self.mass))

    def marginal(self, dims):
        """Marginal on a subset of dimensions (mass preserved)."""
        dims = tuple(dims)
        if list(dims) != sorted(set(dims)) or not set(dims) <= set(range(len(self.grid))):
            raise ValueError(f"dims must be sorted, unique and in range, got {dims}")
        drop = tuple(i for i in range(len(self.grid)) if i not in dims)
        mass = np.sum(self.mass, axis=drop) if drop else self.mass.copy()
        return EmpiricalMeasure(tuple(self.grid[i] for i in dims), mass)

    def csv_lines(self):
        """Lazy CSV lines "i,...,mass\n" of the occupied bins, in C order.

        Each distinct mass is formatted once by %.17g and each index comes
        from a table of "%d," strings: the bytes of "%d,...,%.17g\n" % row.
        One slab of the first axis is indexed at a time.
        """
        occupied = self.mass > 0
        values, inverse = np.unique(self.mass[occupied], return_inverse=True)
        masses = ["%.17g\n" % v for v in values.tolist()]
        heads = ["%d," % i for i in range(max(self.grid))]
        slabs, prefixes = (occupied, heads) if occupied.ndim > 1 else ((occupied,), ("",))
        end = 0
        for prefix, slab in zip(prefixes, slabs):
            index = slab.nonzero()
            start, end = end, end + len(index[0])
            columns = (map(heads.__getitem__, i.tolist()) for i in index)
            yield from map("".join, zip(repeat(prefix), *columns,
                                        map(masses.__getitem__, inverse[start:end].tolist())))


def _cell_index(points, grid):
    """Flat C-order cell index (N,) of reduced points (N, d) on the grid over [0, 1)^d.

    The cloud is scaled by the grid (one scalar when all sides are equal, the
    same products) and floored in place; the matvec by the C-order strides
    sums integers below prod(grid) < 2^53, so it is exact.  A reduced
    coordinate is at most 1 - 2^-53, so x * g <= g - g 2^-53 lies below the
    midpoint of g and the double under it, and floor(x * g) is always a cell.
    A NaN makes its row's index NaN and raises, and so does an empty cloud or
    one whose width is not len(grid).
    """
    if points.ndim != 2 or not len(points) or points.shape[1] != len(grid):
        raise ValueError(f"points of shape {points.shape} cannot be binned on grid {grid}: "
                         f"need (N, {len(grid)}) with N >= 1")
    cells = points * (grid[0] if min(grid) == max(grid) else grid)
    np.floor(cells, out=cells)
    index = cells @ np.cumprod((1,) + grid[:0:-1])[::-1]
    if np.isnan(index).any():
        raise ValueError("points must be finite to be binned")
    return index.astype(np.intp)


def _bin_counts(points, grid):
    """Points (N, d) per cell of the grid, as exact integers of shape grid."""
    index = _cell_index(reduce_torus(points), grid)
    return np.bincount(index, minlength=math.prod(grid)).reshape(grid)


def total_variation(m1: EmpiricalMeasure, m2: EmpiricalMeasure) -> float:
    """(1/2) sum |m1 - m2| in [0, 1]; grids must agree."""
    if m1.grid != m2.grid:
        raise ValueError(f"grid mismatch: {m1.grid} vs {m2.grid}")
    return 0.5 * float(np.sum(np.abs(m1.mass - m2.mass)))


@dataclass(frozen=True)
class UnstablePlaque:
    """Uniform samples on a segment tangent to the strong-unstable direction."""

    anchor: np.ndarray
    direction: np.ndarray
    half_length: float
    sample_count: int

    def points(self):
        """Equally spaced midpoint samples of the uniform segment measure,
        reduced (none for sample_count 0)."""
        n = self.sample_count
        if self.half_length == 0.0 or n <= 1:
            return reduce_torus(np.broadcast_to(self.anchor, (n, self.anchor.size)))
        t = -self.half_length + (np.arange(n) + 0.5) * (2.0 * self.half_length / n)
        return reduce_torus(self.anchor[None, :] + t[:, None] * self.direction[None, :])


def seed_plaque(system, anchor, half_length: float, sample_count: int,
                n_iter: int = 60) -> UnstablePlaque:
    """Plaque through ``anchor`` along the extracted F^uu direction.

    Because the projection to the base factor is affine on the segment, the
    pushed base sample is uniform on the base unstable segment, which is the
    defining reference-measure property.  Raises if extraction did not
    converge.
    """
    from .cones import extract_splitting

    anchor = np.asarray(anchor, dtype=float)
    est = extract_splitting(system, anchor, n_iter=n_iter)
    if est.residuals["uu"] >= est.tolerance:
        raise SplittingNotConvergedError(
            f"strong-unstable direction not converged at {anchor}: "
            f"residual {est.residuals['uu']:.2e}"
        )
    return UnstablePlaque(
        anchor=anchor,
        direction=est.directions["uu"],
        half_length=float(half_length),
        sample_count=int(sample_count),
    )


@dataclass
class CesaroState:
    """Accumulated Cesaro estimate with the surviving sample cloud."""

    accumulated: EmpiricalMeasure
    steps: int
    samples: np.ndarray
    first_step: EmpiricalMeasure
    last_step: EmpiricalMeasure

    def invariance_gap(self) -> float:
        """TV between the estimate pushed once by f and the estimate itself.

        The push replaces the j=0 term by the j=steps term, so the gap is
        computable from the first and last step histograms alone.
        """
        diff = (self.last_step.mass - self.first_step.mass) / self.steps
        return 0.5 * float(np.sum(np.abs(diff)))


def cesaro_push(system, plaque: UnstablePlaque, n_steps: int, grid,
                trackers=()) -> CesaroState:
    """(1/n) sum of binned forward pushes of the plaque samples.

    Trackers receive (step_index, points, record) before each push, record
    the StepRecord of the step that pushes the points (system.step_record),
    and can stream observables against the Cesaro measure without re-running
    the orbit or screening the cloud again.  Without trackers the push takes
    system.step.  Either way the loop makes n_steps steps, the last one to
    the cloud of last_step; ``samples`` is the cloud before it.  Each
    accumulated mass is an exact count over N n_steps, rounded once.  The
    cloud is reduced on entry (plaque.points) and then by each step alone.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    pts = plaque.points()
    grid = tuple(int(g) for g in grid)
    counts = np.zeros(math.prod(grid), np.int64)
    for j in range(n_steps):
        np.add.at(counts, _cell_index(pts, grid), 1)
        if j == 0:
            first = EmpiricalMeasure(grid, counts.reshape(grid) / len(pts))
        if trackers:
            image, record = system.step_record(pts)
            for tracker in trackers:
                tracker.observe(j, pts, record)
        else:
            image = system.step(pts)
        samples, pts = pts, image
    return CesaroState(
        accumulated=EmpiricalMeasure(grid, counts.reshape(grid) / (len(pts) * n_steps)),
        steps=n_steps,
        samples=samples,
        first_step=first,
        last_step=EmpiricalMeasure.from_points(pts, grid),
    )


class SlabMassTracker:
    """Cesaro-weighted mass of the chart slab (base cross-section of the cube)."""

    def __init__(self, system):
        chart = system.chart_p
        self.center, self.axes = chart.center[:2], chart.axes[:2, :2]  # the (uu, ss) block
        self.half_width = chart.half_width
        self.hits = 0.0
        self.total = 0

    def observe(self, _step, pts, record):
        """Counts the points pts (N, 4) in the slab.

        Only rows whose (uu, ss) screen bits (record.uu_ss, the StepRecord of
        pts) carry the p bit can lie in the slab, and only the (uu, ss) chart
        coordinates bound it: each is d[0] a[0, i] + d[1] a[1, i],
        ChartBox.to_chart's two products and one sum, on the rows' (uu, ss)
        displacement d alone.
        """
        rows = (record.uu_ss & CUBE_BITS[0]).nonzero()[0]
        d = torus_displacement(pts[rows, :2], self.center)
        coords = d[:, :1] * self.axes[0]
        coords += d[:, 1:] * self.axes[1]
        near = np.abs(coords) <= self.half_width
        self.hits += float(np.count_nonzero(near[:, 0] & near[:, 1]))
        self.total += len(pts)

    @property
    def value(self) -> float:
        return self.hits / self.total if self.total else 0.0


class CenterGrowthTracker:
    """Streams log||Df restricted to the center-unstable direction||.

    Transports an in-plane direction with every push; after the warm-up the
    direction rides the center-unstable bundle, so the running mean estimates
    the volume integral of the limit measure along that bundle.  The (u, s)
    center plane is invariant and Df on it is diag(lu, ls) outside both
    cubes, so only the candidate rows of the step's screen (record.rows, the
    StepRecord of pts) go through jacobian_chart; the rest are scaled by
    (lu, ls), the bits of the full-batch product with the diagonal block but
    for the sign of a zero.  dirs (2, N) holds the directions as two
    contiguous rows.  The system needs jacobian_chart and rates.
    """

    def __init__(self, system, sample_count, warmup: int = 50):
        self.system = system
        self.rates = system.rates[2:4, None]  # diag(lu, ls), one column
        self.warmup = warmup
        self.dirs = np.array([[1.0], [0.0]]).repeat(sample_count, axis=1)
        self.log_sum = 0.0
        self.count = 0

    def observe(self, step, pts, record):
        w = self.dirs * self.rates
        rows = record.rows
        jac = self.system.jacobian_chart(pts[rows])[:, 2:4, 2:4]  # called on empty rows too
        w.T[rows] = np.einsum("nij,nj->ni", jac, self.dirs.T[rows])
        g = np.sqrt(w[0] * w[0] + w[1] * w[1])  # bitwise np.linalg.norm(w, axis=0)
        if step >= self.warmup:
            self.log_sum += float(np.sum(np.log(g)))
            self.count += len(pts)
        w /= g
        self.dirs = w

    @property
    def value(self) -> float:
        return self.log_sum / self.count if self.count else 0.0
