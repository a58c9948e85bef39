"""Periodic point search, invariant-manifold growth, and skeleton extraction.

Periodic points come from Newton iteration on the lift of f^period - id with
the analytic Jacobian; candidates whose linearization has an eigenvalue
within 1e-8 of 1 are rejected as non-hyperbolic.  A census runs in batches:
newton_periodic takes all seeds of one period as one stack, each iteration one
stacked orbit_jacobian, eigvals and solve over the rows still iterating, and
distinct_records keeps the first of each cluster in one pass that compares a
record with all kept points at once.  Manifold arcs grow by
fundamental-domain continuation: a tiny eigen-segment is iterated, with
midpoint re-insertion wherever image spacing exceeds the resolution.

Heteroclinic evidence is the exact minimal torus distance between arc
vertices, found by a block search that skips block pairs whose lower bound
exceeds the best distance so far.

A skeleton keeps a maximal subset of periodic records such that no pair is
connected by heteroclinic intersections in both directions; the survivor of a
mutual pair is chosen by (lower period, lexicographic point), an explicit
convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
_BLOCK = 16  # polyline vertices per block in the heteroclinic distance search
_PAIR_BATCH = 2048  # block pairs per vectorised batch of that search
_BOUND_SLACK = 1e-12  # covers rounding in the block lower bounds


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

    def sort_key(self):
        return (self.period, tuple(np.round(self.point, 10)))


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


def distinct_records(records):
    """Deduplicate by torus distance: one keep-first pass in sort_key order.

    Each record is kept when its torus distance to every point kept so far,
    taken in one torus_distance call, exceeds DISTINCT_TOL, so a NaN distance
    drops it.  Work memory grows with the number of records, not its square.
    """
    ordered = sorted(records, key=lambda r: r.sort_key())
    points = np.array([rec.point for rec in ordered], dtype=float)
    kept = []  # their points fill points[: len(kept)], rows already passed
    for i, rec in enumerate(ordered):
        if np.all(torus_distance(points[i], points[: len(kept)]) > DISTINCT_TOL):
            points[len(kept)] = points[i]
            kept.append(rec)
    return kept


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
    if len(pts) < 2:
        return 0.0
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
    return ManifoldArc(
        root=record,
        kind=kind,
        polyline=cur,
        arc_length=_polyline_length(cur),
        seed_direction=direction,
        complete=complete,
    )


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


def _blocks(poly):
    """Cut a polyline into ``_BLOCK``-vertex blocks.

    Returns the vertices as (blocks, _BLOCK, dim), the last block padded with
    copies of the final vertex, and per block a centroid and a radius that
    bounds the torus distance from the centroid to each of its vertices.
    """
    n, dim = poly.shape
    pad = np.minimum(np.arange(-(-n // _BLOCK) * _BLOCK), n - 1)
    verts = poly[pad].reshape(-1, _BLOCK, dim)
    lifted = verts - verts[:, :1]
    lifted -= np.round(lifted)  # each block unwrapped around its first vertex
    centre = lifted.mean(axis=1)
    radius = np.linalg.norm(lifted - centre[:, None], axis=2).max(axis=1)
    return verts, centre + verts[:, 0], radius


def _closest_in_blocks(va, vb, ia, ib, n_a, n_b):
    """Closest vertex pair over the block pairs (ia, ib).

    Returns (distance, i, j) with the smallest (i, j) among exact ties.
    """
    d = va[ia][:, :, None, :] - vb[ib][:, None, :, :]
    d -= np.round(d)
    dist = np.linalg.norm(d, axis=-1)
    best = dist.min()
    p, s, t = np.nonzero(dist == best)
    i = np.minimum(ia[p] * _BLOCK + s, n_a - 1)
    j = np.minimum(ib[p] * _BLOCK + t, n_b - 1)
    k = np.argmin(i * n_b + j)
    return float(best), int(i[k]), int(j[k])


def heteroclinic_test(unstable_arc: ManifoldArc, stable_arc: ManifoldArc,
                      tol: float = 1e-4) -> HeteroclinicEvidence:
    """Minimal torus distance between the vertices of an unstable and a stable polyline.

    The result is exact: it equals, bit for bit, the minimum over all vertex
    pairs of ``norm(a - b - round(a - b))``, and among exact ties the witnesses
    are the pair with the smallest (unstable index, stable index).  Both arcs
    are cut into ``_BLOCK``-vertex blocks; a block pair is scanned only if its
    centroid distance minus both radii does not exceed the best distance found
    so far, starting from the block pair with the smallest such bound.  Work
    arrays hold at most ``_PAIR_BATCH`` block pairs, so memory is bounded
    independently of the product of the arc sizes.
    """
    if unstable_arc.kind != "unstable" or stable_arc.kind != "stable":
        raise ValueError("expected (unstable, stable) arcs in that order")
    a = unstable_arc.polyline
    b = stable_arc.polyline
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both polylines need at least one vertex")
    va, ca, ra = _blocks(a)
    vb, cb, rb = _blocks(b)
    rows = max(1, _PAIR_BATCH // len(cb))  # blocks of A per bound batch
    starts = range(0, len(ca), rows)

    def bounds(lo):
        """Lower bounds on the vertex distances of blocks lo.. of A to all of B."""
        d = ca[lo : lo + rows, None, :] - cb[None, :, :]
        d -= np.round(d)
        return np.linalg.norm(d, axis=2) - ra[lo : lo + rows, None] - rb[None, :]

    lowest = (np.inf, 0, 0)  # (bound, block of A, block of B)
    for lo in starts:
        lb = bounds(lo)
        r, c = np.unravel_index(np.argmin(lb), lb.shape)
        lowest = min(lowest, (lb[r, c], lo + r, c))
    best = _closest_in_blocks(va, vb, np.array([lowest[1]]), np.array([lowest[2]]),
                              len(a), len(b))
    for lo in starts:
        ia, ib = np.nonzero(bounds(lo) <= best[0] + _BOUND_SLACK)
        ia += lo
        for k in range(0, len(ia), _PAIR_BATCH):
            cand = _closest_in_blocks(va, vb, ia[k : k + _PAIR_BATCH],
                                      ib[k : k + _PAIR_BATCH], len(a), len(b))
            best = min(best, cand)
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
    indexes = sorted(range(n), key=lambda i: records[i].sort_key())
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
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            best = None
            for ua in arcs[i]["unstable"]:
                for sa in arcs[j]["stable"]:
                    ev = heteroclinic_test(ua, sa, tol)
                    if best is None or ev.min_distance < best.min_distance:
                        best = ev
            if best is None:
                continue
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
    return SkeletonCandidate(
        members=[records[i] for i in kept],
        distance_matrix=dist,
        connection_matrix=conn,
        warnings=warnings,
    )
