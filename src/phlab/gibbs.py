"""Plaque-pushforward estimation of u-state measures on torus grids.

A strong-unstable plaque is sampled uniformly along the extracted uu
direction; its Cesaro average of forward pushes is binned on a regular grid.
The limit object's two checkable signatures are (i) the base marginal matches
Lebesgue on the factor torus and (ii) mass of the deformation slab stays at
the Lebesgue budget of the chart cross-section.

Samples, not curve segments, are pushed: stretching opens gaps that only cost
spatial resolution, which the grid tolerance absorbs.  Each step is binned by
one ``np.bincount`` over flat bin indices (exact integer counts), and
``EmpiricalMeasure.to_rows`` yields the occupied bins lazily, so the 16^4-bin
measure CSV streams to disk without a row list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deformation import CUBE_BITS, screen_cells
from .torus import reduce_torus


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
        idx = [np.minimum((reduce_torus(points[:, j]) * g).astype(int), g - 1)
               for j, g in enumerate(grid)]
        # integer counts are exact, so the mass is bitwise that of np.add.at
        counts = np.bincount(np.ravel_multi_index(idx, grid), minlength=int(np.prod(grid)))
        return cls(grid, counts.reshape(grid) / len(points))

    @classmethod
    def uniform(cls, grid):
        grid = tuple(int(g) for g in grid)
        n = int(np.prod(grid))
        return cls(grid, np.full(grid, 1.0 / n))

    @classmethod
    def atom(cls, point, grid):
        return cls.from_points(np.atleast_2d(point), grid)

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

    def to_rows(self):
        """Lazy (index..., mass) rows for occupied bins, in C order."""
        occupied = self.mass > 0
        return zip(*(i.tolist() for i in np.nonzero(occupied)), self.mass[occupied].tolist())


def total_variation(m1: EmpiricalMeasure, m2: EmpiricalMeasure) -> float:
    """(1/2) sum |m1 - m2| in [0, 1]; grids must agree."""
    if m1.grid != m2.grid:
        raise ValueError(f"grid mismatch: {m1.grid} vs {m2.grid}")
    return 0.5 * float(np.sum(np.abs(m1.mass - m2.mass)))


def pushforward_base(measure: EmpiricalMeasure, base_dims: int) -> EmpiricalMeasure:
    """Marginal on the first ``base_dims`` torus dimensions."""
    if not 1 <= base_dims <= len(measure.grid):
        raise ValueError("base_dims must be a prefix of the torus dimensions")
    return measure.marginal(tuple(range(base_dims)))


@dataclass(frozen=True)
class UnstablePlaque:
    """Uniform samples on a segment tangent to the strong-unstable direction."""

    anchor: np.ndarray
    direction: np.ndarray
    half_length: float
    sample_count: int

    def points(self):
        """Equally spaced midpoint samples of the uniform segment measure."""
        n = self.sample_count
        if self.half_length == 0.0 or n == 1:
            return np.broadcast_to(self.anchor, (n, self.anchor.size)).copy()
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
        raise RuntimeError(
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

    Trackers receive (step_index, points) before each push and can stream
    observables against the Cesaro measure without re-running the orbit.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    pts = plaque.points()
    grid = tuple(int(g) for g in grid)
    acc = np.zeros(grid)
    first = last = None
    for j in range(n_steps):
        step_mass = EmpiricalMeasure.from_points(pts, grid).mass
        acc += step_mass
        if j == 0:
            first = step_mass
        for tracker in trackers:
            tracker.observe(j, pts)
        if j < n_steps - 1:
            pts = system.step(pts)
    last = EmpiricalMeasure.from_points(system.step(pts), grid).mass
    return CesaroState(
        accumulated=EmpiricalMeasure(grid, acc / n_steps),
        steps=n_steps,
        samples=pts,
        first_step=EmpiricalMeasure(grid, first),
        last_step=EmpiricalMeasure(grid, last),
    )


class SlabMassTracker:
    """Cesaro-weighted mass of the chart slab (base cross-section of the cube)."""

    def __init__(self, system):
        self.table = system.screen_tables[0]  # the (uu, ss) factor's cells
        self.chart = system.chart_p
        self.hits = 0.0
        self.total = 0

    def observe(self, _step, pts):
        """Counts the reduced points pts (N, 4) in the slab.

        Only rows whose (uu, ss) screen cell carries the p bit can lie in the
        slab, and only the (uu, ss) chart coordinates bound it.
        """
        cells = screen_cells(pts[:, :2])[:, 0]
        rows = (self.table[cells] & CUBE_BITS[0]).nonzero()[0]
        near = np.abs(self.chart.to_chart(pts[rows])[0][:, :2]) <= self.chart.half_width
        self.hits += float(np.count_nonzero(near[:, 0] & near[:, 1]))
        self.total += len(pts)

    @property
    def value(self) -> float:
        return self.hits / self.total if self.total else 0.0


class CenterGrowthTracker:
    """Streams log||Df restricted to the center-unstable direction||.

    Transports an in-plane direction with every push; after the warm-up the
    direction rides the center-unstable bundle, so the running mean estimates
    the volume integral of the limit measure along that bundle.
    """

    def __init__(self, system, sample_count, warmup: int = 50):
        self.system = system
        self.warmup = warmup
        self.dirs = np.broadcast_to(np.array([1.0, 0.0]), (sample_count, 2)).copy()
        self.log_sum = 0.0
        self.count = 0

    def observe(self, step, pts):
        jac = self.system.jacobian_chart(pts)[:, 2:4, 2:4]
        w = np.einsum("nij,nj->ni", jac, self.dirs)
        g = np.sqrt(w[:, 0] * w[:, 0] + w[:, 1] * w[:, 1])  # bitwise np.linalg.norm(w, axis=1)
        if step >= self.warmup:
            self.log_sum += float(np.sum(np.log(g)))
            self.count += len(pts)
        self.dirs = w / g[:, None]

    @property
    def value(self) -> float:
        return self.log_sum / self.count if self.count else 0.0
