"""Periodic point search, invariant-manifold growth, and skeleton extraction.

Periodic points come from Newton iteration on the lift of f^period - id with
the analytic Jacobian; candidates whose linearization has an eigenvalue
within 1e-8 of 1 are rejected as non-hyperbolic.  A census runs in batches:
newton_periodic takes all seeds of one period as one stack, each iteration one
stacked orbit_jacobian, eigvals and solve over the rows still iterating, and
distinct_records keeps the first of each cluster, comparing only the close
pairs that a cell-grid self-join finds.  Manifold arcs grow by
fundamental-domain continuation: a tiny eigen-segment is iterated, with
midpoint re-insertion wherever image spacing exceeds the resolution.

Heteroclinic evidence is the exact minimal torus distance between arc
vertices, found by a neighbour query on a torus cell grid: only pairs in equal
or adjacent cells are measured, on a grid whose cells reach the answer.

A skeleton keeps a maximal subset of periodic records such that no pair is
connected by heteroclinic intersections in both directions; the survivor of a
mutual pair is chosen by (lower period, lexicographic point), an explicit
convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .ergodic import orbit_jacobian
from .errors import NotHyperbolicError, PhlabError
from .torus import reduce_torus, torus_displacement, torus_distance

HYPERBOLIC_MULTIPLIER_TOL = 1e-6
NEWTON_TOL = 1e-12
# Newton stops below max(NEWTON_TOL, this many eps times ||Df^period||_inf):
# rounding alone leaves a residual near eps ||Df^period||, which passes 1e-12
# from period 7 of the cat map on; at periods <= 6 the floor stays below 1e-12
NEWTON_ROUNDING_ULPS = 8
DISTINCT_TOL = 1e-8  # records closer than this on the torus are one point

MAX_ARC_POINTS = 200_000  # vertex budget of one arc; a capped arc is flagged incomplete
_PAIR_CAP = 1 << 15  # vertex pairs (and query slots) per batch of the cell-grid search
_KEY_BITS = 62  # g^d cells stay near 2**_KEY_BITS, so flat cell keys fit in an int64
_CELL_SLACK = 1e-5  # covers rounding in the cell keys, 3 eps g < 2e-6 at g <= 2**31


class NewtonDidNotConverge(PhlabError):
    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class PeriodicPointRecord:
    point: np.ndarray
    period: int
    multipliers: np.ndarray  # eigenvalue moduli of Df^period, sorted descending
    eigenvalues: np.ndarray
    stable_index: int
    residual: float

    @property
    def hyperbolic(self) -> bool:
        return bool(np.all(np.abs(self.multipliers - 1.0) > HYPERBOLIC_MULTIPLIER_TOL))


def newton_periodic(system, guess, period: int, max_iter: int = 50):
    """Newton iteration for period-``period`` points near one guess (d,), which
    gives its PeriodicPointRecord, or near a stack of guesses (N, d), which
    gives a list of N records in row order.

    Solves f^period(x) = x on the lift using the analytic Jacobian minus the
    identity.  Each iteration takes, over the rows still iterating, one
    orbit_jacobian (a single guess on the system's one-point path), the
    residual |f^period(x) - x| as np.linalg.norm forms it for one vector, one
    eigvals and one solve.  A row stops at the first iterate whose residual is
    below NEWTON_TOL or the rounding floor NEWTON_ROUNDING_ULPS * eps *
    ||Df^period||_inf; that iterate, in [0, 1)^d, is its root, classified by
    the multipliers of Df^period there.  A row whose Df^period has a
    multiplier within 1e-8 of 1, on the way or at the root, raises
    NotHyperbolicError; one still iterating after max_iter steps raises
    NewtonDidNotConverge.  Both name the row's point.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    x = reduce_torus(np.asarray(guess, dtype=float))
    single = x.ndim == 1
    x = np.atleast_2d(x)
    n, d = x.shape
    roots, eigs, residuals = np.empty_like(x), [None] * n, np.full(n, np.inf)
    rows = np.arange(n)  # the rows still iterating, in order
    for _ in range(max_iter):
        if single:
            m, y = orbit_jacobian(system, x[0], period, True)
            m, y = m[None], y[None]
        else:
            m, y = orbit_jacobian(system, x, period, True)
        g = torus_displacement(y, x)
        residual = residuals[rows] = np.sqrt(np.vecdot(g, g))
        stop = (residual < NEWTON_TOL) | (residual < _rounding_floor(m))
        lams = np.linalg.eigvals(m)
        near_one = np.min(np.abs(lams - 1.0), axis=1) < 1e-8
        if np.any(near_one):
            i = np.argmax(near_one)
            where = "converged point" if stop[i] else "linearization at"
            raise NotHyperbolicError(f"{where} {x[i]} has a multiplier within 1e-8 of 1")
        roots[rows[stop]] = x[stop]
        for i, lam in zip(rows[stop], lams[stop]):
            eigs[i] = lam
        go = ~stop
        rows = rows[go]
        if rows.size == 0:
            break
        step = np.linalg.solve(m[go] - np.eye(d), -g[go][..., None])[..., 0]
        x = reduce_torus(x[go] + step)
    if rows.size:
        raise NewtonDidNotConverge(
            f"no convergence from {np.atleast_2d(guess)[rows[0]]} after {max_iter} steps "
            f"(residual {residuals[rows[0]]:.3e})",
            float(residuals[rows[0]]),
        )
    records = []
    for point, lam, residual in zip(roots, eigs, residuals.tolist()):
        moduli = np.sort(np.abs(lam))[::-1]
        records.append(PeriodicPointRecord(
            point=point,
            period=period,
            multipliers=moduli,
            eigenvalues=lam[np.argsort(-np.abs(lam))],
            stable_index=int(np.sum(moduli < 1.0)),
            residual=residual,
        ))
    return records[0] if single else records


def _rounding_floor(m):
    """The residual that rounding alone leaves in f^period(x) - x, Df^period =
    m, one floor per matrix of a stack (..., d, d)."""
    return NEWTON_ROUNDING_ULPS * np.finfo(float).eps * np.abs(m).sum(axis=-1).max(axis=-1)


def sort_order(records):
    """Indexes of records by period, then by the point rounded to 10 places
    (coordinate by coordinate), ties in input order, by one np.lexsort: a
    total order, with a NaN coordinate after every number at its place."""
    points = np.round(np.array([r.point for r in records], dtype=float), 10)
    return np.lexsort((*points.T[::-1], [r.period for r in records])).tolist()


def distinct_records(records):
    """Deduplicate by torus distance: keep-first in sort_order.

    A record is kept when its torus distance to every record kept before it
    exceeds DISTINCT_TOL, so a NaN distance drops it.  Only the close pairs of
    one cell-grid self-join are compared: memory is O(records + close pairs).
    """
    ordered = [records[i] for i in sort_order(records)]
    if not ordered or not np.isfinite(ordered[0].point).all():
        return ordered[:1]  # a non-finite first point is at NaN distance from all
    points = np.array([rec.point for rec in ordered], dtype=float)
    kept = np.isfinite(points).all(axis=1)
    rows = np.flatnonzero(kept)
    close = []
    for i, k in _cell_pairs(points[rows], points[rows],
                            _grid((1.0 - _CELL_SLACK) / DISTINCT_TOL, points.shape[1])):
        i, k = rows[i], rows[k]
        near = (i < k) & (torus_distance(points[k], points[i]) <= DISTINCT_TOL)
        close += zip(k[near].tolist(), i[near].tolist())
    for k, i in sorted(close):  # by the later record, whose earlier ones are settled
        if kept[i]:
            kept[k] = False
    return [rec for rec, keep in zip(ordered, kept) if keep]


@dataclass
class ManifoldArc:
    root: PeriodicPointRecord
    kind: str  # "stable" | "unstable"
    polyline: np.ndarray
    arc_length: float
    seed_direction: np.ndarray
    complete: bool = True


def _eigenspace(system, record: PeriodicPointRecord, kind: str):
    m, _ = orbit_jacobian(system, record.point, record.period, True)
    lams, vecs = np.linalg.eig(m)
    mask = np.abs(lams) > 1.0 if kind == "unstable" else np.abs(lams) < 1.0
    cols = []
    for i in np.nonzero(mask)[0]:
        if abs(lams[i].imag) > 1e-10:
            raise ValueError("complex multipliers: arc growth needs real eigenspaces")
        v = np.real(vecs[:, i])
        cols.append(v / np.linalg.norm(v))
    if not cols:
        raise ValueError(f"no {kind} directions at this record")
    return np.column_stack(cols)


def _polyline_length(pts):
    gaps = np.linalg.norm(torus_displacement(pts[1:], pts[:-1]), axis=1)
    return float(np.sum(gaps))


def grow_manifold(system, record: PeriodicPointRecord, kind: str,
                  target_length: float, resolution: float,
                  direction=None) -> ManifoldArc:
    """One continuation arc from ``record`` along an eigen-direction.

    kind selects the iterated map (f^period for unstable, the inverse for
    stable).  The polyline starts at the root; growth stops once the arc
    length reaches target_length or refinement would take it past
    MAX_ARC_POINTS vertices (flagged by complete = False).
    """
    if kind not in ("stable", "unstable"):
        raise ValueError("kind must be 'stable' or 'unstable'")
    if not record.hyperbolic:
        raise NotHyperbolicError("arc growth requires a hyperbolic record")
    space = _eigenspace(system, record, kind)
    if direction is None:
        direction = space[:, 0]
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    # the seed must lie in the eigenspace
    proj = space @ np.linalg.lstsq(space, direction, rcond=None)[0]
    if np.linalg.norm(proj - direction) > 1e-8:
        raise ValueError("seed direction is not in the requested eigenspace")

    step = system.step if kind == "unstable" else system.step_inverse

    def advance(pts):
        for _ in range(record.period):
            pts = step(pts)
        return pts

    root = record.point
    t0 = min(1e-5, resolution)
    src = reduce_torus(root[None, :] + np.linspace(0.0, t0, 8)[:, None] * direction[None, :])
    if target_length <= 0.0:
        return ManifoldArc(record, kind, root[None, :].copy(), 0.0, direction)

    complete = True
    cur = src
    for _ in range(200):
        img = advance(cur)
        # refine source segments whose images are too widely spaced
        for _ in range(60):
            gaps = np.linalg.norm(torus_displacement(img[1:], img[:-1]), axis=1)
            bad = np.nonzero(gaps > resolution)[0]
            if bad.size == 0:
                break
            if len(cur) + bad.size > MAX_ARC_POINTS:
                complete = False
                break
            mids = reduce_torus(
                cur[bad] + 0.5 * torus_displacement(cur[bad + 1], cur[bad])
            )
            mid_imgs = advance(mids)
            order = np.argsort(np.concatenate([np.arange(len(cur)), bad + 0.5]))
            cur = np.concatenate([cur, mids])[order]
            img = np.concatenate([img, mid_imgs])[order]
        cur = img
        if not complete or _polyline_length(cur) >= target_length:
            break
    return ManifoldArc(record, kind, cur, _polyline_length(cur), direction, complete)


def grow_fan(system, record: PeriodicPointRecord, kind: str, target_length: float,
             resolution: float, rays: int = 64):
    """Arcs covering the eigenspace: both branches in 1-d, a ray fan in 2-d."""
    space = _eigenspace(system, record, kind)
    if space.shape[1] == 1:
        dirs = [space[:, 0], -space[:, 0]]
    elif space.shape[1] == 2:
        angles = np.linspace(0.0, 2.0 * np.pi, rays, endpoint=False)
        dirs = [np.cos(a) * space[:, 0] + np.sin(a) * space[:, 1] for a in angles]
    else:
        raise ValueError("fan growth supports 1- or 2-dimensional eigenspaces")
    return [
        grow_manifold(system, record, kind, target_length, resolution, direction=d)
        for d in dirs
    ]


@dataclass(frozen=True)
class HeteroclinicEvidence:
    min_distance: float
    witness_a: np.ndarray
    witness_b: np.ndarray
    tol: float

    @property
    def intersects(self) -> bool:
        return self.min_distance < self.tol

    @property
    def inconclusive(self) -> bool:
        return self.tol <= self.min_distance < 10.0 * self.tol


def _grid(cells, d):
    """Cells per axis: ``cells`` floored, at least 1, at most 2**(_KEY_BITS / d)."""
    return max(1, int(min(cells, 2.0 ** (_KEY_BITS / d))))


def _cell_pairs(a, b, g):
    """Index pairs (i, j) with a[i], b[j] in equal or adjacent cells (mod g) of a
    g^d torus grid, each once, in batches of at most _PAIR_CAP: every pair at
    torus distance <= (1 - _CELL_SLACK) / g is among them.  The larger set is
    sorted by flat cell key; the other's vertices, _PAIR_CAP // 3^d at a time,
    find their range per neighbour offset (at most 3^d, unique mod g) by searchsorted.
    """
    if len(a) > len(b):
        for j, i in _cell_pairs(b, a, g):
            yield i, j
        return
    d = a.shape[1]
    steps = np.arange(-1, 2) if g > 2 else np.arange(g)  # offsets per axis, unique mod g

    def keys(x, shifts):
        """Flat cell keys of x moved by each d-tuple of shifts: (len(shifts)^d, len(x))."""
        cells = np.floor(x * g).astype(np.int64)
        key = np.zeros((1, len(x)), dtype=np.int64)
        for k in reversed(range(d)):
            key = (key[:, None] * g + (cells[:, k] + shifts[:, None]) % g).reshape(-1, len(x))
        return key

    keys_b = keys(b, np.zeros(1, dtype=np.int64))[0]
    order = np.argsort(keys_b, kind="stable")
    keys_b = keys_b[order]
    first = np.flatnonzero(np.diff(keys_b, prepend=-1))  # each occupied cell's first vertex
    cell, count = keys_b[first], np.diff(first, append=len(b))
    rows = max(1, _PAIR_CAP // len(steps) ** d)
    for lo in range(0, len(a), rows):
        q = keys(a[lo : lo + rows], steps)
        at = np.minimum(np.searchsorted(cell, q), len(cell) - 1)
        hit = np.nonzero(cell[at] == q)
        i, start, size = lo + hit[1], first[at[hit]], count[at[hit]]
        ends = np.cumsum(size)
        for k0 in range(0, int(ends[-1]) if ends.size else 0, _PAIR_CAP):
            k = np.arange(k0, min(k0 + _PAIR_CAP, int(ends[-1])))
            r = np.searchsorted(ends, k, "right")
            yield i[r], order[start[r] + k - (ends[r] - size[r])]


def _closest_on_grid(a, b, g):
    """(distance, i, j) of the closest of _cell_pairs(a, b, g), the smallest
    (i, j) among exact ties; (inf, 0, 0) when there is none."""
    best = (np.inf, 0, 0)
    for i, j in _cell_pairs(a, b, g):
        dist = torus_distance(a[i], b[j])
        tie = np.flatnonzero(dist == dist.min())
        k = tie[np.argmin(i[tie] * len(b) + j[tie])]
        best = min(best, (float(dist[k]), int(i[k]), int(j[k])))
    return best


def heteroclinic_test(unstable_arc: ManifoldArc, stable_arc: ManifoldArc,
                      tol: float = 1e-4) -> HeteroclinicEvidence:
    """Minimal torus distance between the vertices of an unstable and a stable polyline.

    The result is exact: it equals, bit for bit, the minimum over all vertex
    pairs of ``norm(a - b - round(a - b))``, and among exact ties the witnesses
    are the pair with the smallest (unstable index, stable index).  Only pairs
    in equal or adjacent cells of a g^d torus grid are measured, g =
    floor(4 (NM / (N + M))^(1/d)) for N and M vertices; a best distance within
    (1 - _CELL_SLACK) / g is exact.  Otherwise one more pass runs on the grid
    whose cells reach the smaller of that best and the distance of the pair
    (0, 0), and so every pair at least as close.  Cost is O((N + M) 3^d) plus
    the pairs within the final cell radius; memory is O(N + M + _PAIR_CAP).
    """
    if unstable_arc.kind != "unstable" or stable_arc.kind != "stable":
        raise ValueError("expected (unstable, stable) arcs in that order")
    a, b = unstable_arc.polyline, stable_arc.polyline
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both polylines need at least one vertex")
    d = a.shape[1]
    g = _grid(4.0 * (len(a) * len(b) / (len(a) + len(b))) ** (1.0 / d), d)
    best = _closest_on_grid(a, b, g)
    if best[0] > (1.0 - _CELL_SLACK) / g:
        bound = min(best[0], float(torus_distance(a[0], b[0])))
        best = _closest_on_grid(a, b, _grid((1.0 - _CELL_SLACK) / bound, d))
    dist, i, j = best
    return HeteroclinicEvidence(min_distance=dist, witness_a=a[i], witness_b=b[j], tol=tol)


@dataclass
class SkeletonCandidate:
    members: list
    distance_matrix: np.ndarray
    connection_matrix: np.ndarray
    warnings: list = field(default_factory=list)


def extract_skeleton(records, arcs, tol: float = 1e-4) -> SkeletonCandidate:
    """Greedy maximal subset with no mutually connected pair.

    ``arcs`` maps each record index to {"unstable": [...], "stable": [...]}.
    connection[i, j] records evidence that W^u(p_i) meets W^s(p_j); a pair is
    in conflict when both directions intersect, and the later record in the
    (period, lexicographic) order is dropped.  Inconclusive pair evidence is
    surfaced as a warning, never silently resolved.
    """
    records = list(records)
    n = len(records)
    if n == 0:
        raise ValueError("need at least one record")
    indexes = sort_order(records)
    for i in range(n):
        if not records[i].hyperbolic:
            raise NotHyperbolicError(f"record {i} is not hyperbolic")
        for j in range(i + 1, n):
            if torus_distance(records[i].point, records[j].point) < 1e-8 and \
                    records[i].period == records[j].period:
                raise ValueError(f"records {i} and {j} coincide")
            if records[i].stable_index != records[j].stable_index:
                raise ValueError("records must share one stable index")

    dist = np.full((n, n), np.inf)
    conn = np.zeros((n, n), dtype=bool)
    warnings = []
    for i, j in permutations(range(n), 2):
        evidence = [heteroclinic_test(ua, sa, tol)
                    for ua in arcs[i]["unstable"] for sa in arcs[j]["stable"]]
        if not evidence:
            continue
        best = min(evidence, key=lambda ev: ev.min_distance)  # the first of the closest
        dist[i, j] = best.min_distance
        conn[i, j] = best.intersects
        if best.inconclusive:
            warnings.append(
                f"pair ({i}, {j}): distance {best.min_distance:.3e} within "
                f"10x of tol {tol:.1e}; refine arcs to decide"
            )

    kept = []
    for i in indexes:
        if all(not (conn[i, k] and conn[k, i]) for k in kept):
            kept.append(i)
    return SkeletonCandidate([records[i] for i in kept], dist, conn, warnings)
