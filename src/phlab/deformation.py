"""Locally deformed toral maps f = A o I_eps on T^4 and parameter selection.

The automorphism is the block product A = D^n x D^m of cat-map powers with
rates luu > lu > 1 > ls > lss.  Around two fixed points p and q, affine charts
aligned with the (orthonormal) eigenbasis carry coordinates (a, b, c, d)
ordered (uu, ss, u, s).  Inside each chart cube of half-width 2*delta the
deformation changes one coordinate y through F = s(ky) s(r) y coef + y mul/div,
r the radius over the other three axes; DeformedSystem.cubes holds the rest:

    cube   y   coef            mul   div   explicit direction
    p (P)  c   1 - lu - et     lu    1     I_eps:     c -> P / lu
    q (Q)  d   1 - 1/ls - et   1     ls    I_eps^-1:  d -> ls * Q

The q cube mirrors the p cube: (c, d) swap roles, and so do the explicit
direction (y -> F div/mul) and the root-solved one (F = y mul/div on
[-2 delta, 2 delta]).  et >= 0 is the optional extra flattening that makes
both fixed points hyperbolic (et = 0: Df at p has a unit eigenvalue along c).

The root-solved direction is a bracketed Newton iteration per point.  It
starts at u = y, which is the root bit for bit wherever s(ky) s(r) = 0, that
is outside the band |ky| < delta, r < delta, so most chart points cost one
evaluation; in the band it bisects its bracket whenever a Newton step would
leave it or fails to halve, since plain Newton can 2-cycle across the steep
edge of the bump.

One loop over the cube table, DeformedSystem._cube_loop, does all of this.
It first screens the batch: A = D^n x D^m and the chart axes are block
diagonal, so each cube is the product of a rotated square in the (uu, ss)
plane (ambient axes 0-1) and one in the (u, s) plane (axes 2-3).  One 64x64
cell table per plane marks the cells within reach of each cube (half-width
plus half a cell diagonal), and two gathers and an & give every row its
candidate cubes; most steps have none and return at once.  Only candidate
rows are looked up in a chart (ChartBox.to_chart, elementwise on the 2x2
blocks, so a row rounds the same alone and in any batch; a matmul would not),
and moved and filled through index arrays.  step_record(x) screens a reduced
batch once, runs the loop on its candidate rows alone and hands back f(x)
with a StepRecord of the screen ((uu, ss) table bits and candidate rows), so
a caller that needs the screen of the same cloud (the Cesaro trackers in
gibbs) takes no other.

A single point, shape (4,), never builds a batch: advance, step,
step_inverse, deform, deform_inverse and jacobian_chart hand it to the
one-row kernel advance_point (or its cube pass _point_cubes) as four Python
floats.  Everything but A's one-row matmul (ToralAutomorphism.apply_point)
runs in floats: reduce_torus as reduce_point, the same screen cells, then
each operation of to_chart and of the cube in its batch order (np.exp for the
bump's exponentials, _solve on one-element arrays).  So a point gets the bits
of its (1, 4) batch, which takes the batch loop, and of its row in any batch
up to the matmul of A, which still rounds by batch.

The loop moves the points inside and, with a Jacobian, takes row j of Df
from the same s, s' values in both directions: grad F at the field point z,
the input on the explicit side (one SmoothBump.profile call on r and ky),
the root on the solved side (a call on r; the solve's own s, s').  I_eps
moves only axis j, so z and r are the preimage's too, and a backward pass
never looks the preimage up again.  Off the bump's transition band, as at p
and q, profile evaluates no exponential.  deform / deform_inverse wrap the
loop without Jacobians; advance(x, forward) returns one step of f with its
4x4 chart Jacobian: (f(x), Df(x)), bit for bit step (jacobian_chart is this
Df without A), or (f^-1(x), Df(f^-1(x))), the image bit for bit step_inverse.
The backward in-cube rows differ from jacobian_chart at the preimage, which
looks it up again, by the rounding of the field point times the row's slope
in it, which grows like k in the bump's band: below 1e-9 of the row's
largest entry on the shipped system, up to 2e-8 at k = 1e4, et = 0.9.
Outside both cubes Df is diag(rates), built once, with no field arithmetic.
Every chart Df is block lower triangular in the axes (uu, ss | u, s), so
jacobian_inverse inverts it in closed form (torus.chart_inverse).

The set-up is one-dimensional (bump.py).  A cross partial of a field is
y s(ky) coef s'(r) a / r, a an unchanged axis, so its sup over the cube is
|coef| sup t s(t) sup |s'| / k, reached with ky and r at the two peaks, a = r
and the other axes 0 (cross_partial_sup); search_params takes the least k
that puts it below eps0.  dF/dy = s(r) coef w(ky) + mul/div with coef < 0 and
w <= 1 = w on the plateau, so its least value is coef + mul/div = 1 - et.

Everything here is vectorized over point batches of shape (N, 4); a single
point of shape (4,) is accepted everywhere and returned in kind.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bump import BumpBound, SmoothBump, compute_M
from .errors import (
    InfeasibleParamsError,
    ParameterTooLargeError,
    RootFindError,
)
from .torus import (
    CHART_ORDER,
    IntegerMatrix,
    ToralAutomorphism,
    cat_power_product,
    chart_inverse,
    enumerate_periodic,
    periodic_order,
    reduce_point,
    reduce_torus,
    torus_displacement,
    torus_distance,
)

ROOT_TOL = 1e-12
ROOT_MAX_ITER = 200
SCREEN_SIDE = 64  # cells per side of each cube-screen table
SCREEN_MARGIN = 1e-9  # slack on the screen's reach, far above chart rounding
# rows per screen pass: larger batches are screened in blocks, so the screen's
# temporaries do not grow with the batch (at 1.4e5 rows they moved the checks
# workload's peak RSS by up to 10 MB, with the heap layout)
SCREEN_BLOCK = 8192
CUBE_BITS = (1, 2)  # screen bits of the p and q cubes, in DeformedSystem.cubes order
# the two ambient axes e, o of each chart coordinate's 2x2 block
BLOCK_FIRST, BLOCK_SECOND = np.array((0, 0, 2, 2)), np.array((1, 1, 3, 3))


@dataclass(frozen=True)
class ChartBox:
    """Affine eigen-chart at a fixed point; axes columns ordered (uu, ss, u, s),
    block diagonal (2 + 2) like A."""

    center: np.ndarray
    half_width: float
    axes: np.ndarray

    def __post_init__(self):
        if self.axes[:2, 2:].any() or self.axes[2:, :2].any():
            raise ValueError("chart axes must be block diagonal (2 + 2)")

    @cached_property
    def block_weights(self):
        """a[e, i] and a[o, i] for each coordinate i."""
        return self.axes[BLOCK_FIRST, range(4)], self.axes[BLOCK_SECOND, range(4)]

    def to_chart(self, x):
        """Chart coordinates of x, shape (4,) or (N, 4), and the inside-cube mask.
        Coordinate i is d[e] a[e, i] + d[o] a[o, i] on its block, in that order."""
        d = torus_displacement(x, self.center)
        first, second = self.block_weights
        coords = np.take(d, BLOCK_FIRST, axis=-1)
        coords *= first
        d = np.take(d, BLOCK_SECOND, axis=-1)
        d *= second
        coords += d
        # the four one-byte flags of a row, read as one int32, are all true
        # exactly when the word is 0x01010101 (in either byte order)
        flags = np.abs(coords) <= self.half_width
        return coords, flags.view(np.int32)[..., 0] == 0x01010101

    @cached_property
    def point_weights(self):
        """The center as floats, and for each coordinate i its block's terms
        (e, o, a[e, i], a[o, i]) as Python numbers."""
        first, second = self.block_weights
        return tuple(self.center.tolist()), tuple(zip(
            BLOCK_FIRST.tolist(), BLOCK_SECOND.tolist(), first.tolist(), second.tolist()))

    def point_to_chart(self, x):
        """to_chart on one reduced point x, four Python floats: its operations
        in its order, so its bits, as a list of four floats and a bool.  x and
        the center lie in [0, 1), so rint(d) is -1, 0 or 1; a NaN stays NaN,
        and outside, as in to_chart."""
        center, terms = self.point_weights
        d = []
        for v, c in zip(x, center):
            v -= c
            d.append(v - 1.0 if v > 0.5 else v + 1.0 if v < -0.5 else v)
        coords = [d[e] * a + d[o] * b for e, o, a, b in terms]
        h = self.half_width
        return coords, all(abs(v) <= h for v in coords)

    def from_chart(self, coords):
        return reduce_torus(self.center + coords @ self.axes.T)


class StepRecord(NamedTuple):
    """What a batch step saw of its reduced input: ``uu_ss``, each row's bits
    in the (uu, ss) screen table (its screen_cells column 0 looked up), and
    ``rows``, the candidate rows (screen bits != 0)."""

    uu_ss: np.ndarray
    rows: np.ndarray


def screen_cells(pts):
    """Screen-table indices of reduced points pts (N, 2f), one column per 2-D factor.

    A row's cell numbers are one byte each, read in pairs as little-endian
    uint16: each pair is the flat index a + 256 b of its cell in the factor's
    table.  A NaN coordinate is clamped to the last cell rather than cast.
    """
    cells = pts * SCREEN_SIDE
    np.fmin(cells, SCREEN_SIDE - 1, out=cells)
    return cells.astype(np.uint8, order="C").view("<u2").astype(np.intp)


@dataclass(frozen=True)
class DeformationParams:
    """Parameters of the construction; eps_tilde = 0 recovers the plain map."""

    n: int
    m: int
    delta: float
    k: float
    eps1: float
    eps_tilde: float = 0.0

    @property
    def eps0(self) -> float:
        """Cone-width budget the truncation sharpness k is driven against."""
        return min(self.eps1 / 10.0, 0.05)


def eigenvalue_rates(n: int, m: int):
    """(luu, lss, lu, ls) for A = D^n x D^m, in chart-coordinate order."""
    lam = (3.0 + math.sqrt(5.0)) / 2.0
    return lam**n, lam**-n, lam**m, lam**-m


def rate_inequalities(M: float, n: int, m: int):
    """Both eigenvalue inequalities tying M to the spectrum of D^n x D^m.

    Returns a list of (label, lhs, rhs, holds) with lhs <= rhs required.
    """
    luu, lss, lu, ls = eigenvalue_rates(n, m)
    lhs1 = -M * (1.0 - lu) + lu
    rhs1 = luu / 2.0
    lhs2 = -M * (1.0 - 1.0 / ls) + 1.0 / ls
    rhs2 = 1.0 / (2.0 * lss)
    return [
        ("unstable-rate", lhs1, rhs1, lhs1 <= rhs1),
        ("stable-rate", lhs2, rhs2, lhs2 <= rhs2),
    ]


def center_gap_condition(eps1: float, lu: float):
    """The weighted log inequality that makes the center integral positive.

    Returns (value, low_factor, high_factor, holds): value is the 1/10-9/10
    weighted sum of logs, which must be positive, with
    low_factor = sqrt(1-eps1)/sqrt(eps1^2+1) < 1 < lu/sqrt(eps1^2+1) = high_factor.
    """
    if not 0.0 < eps1 < 1.0:
        return -np.inf, np.nan, np.nan, False
    denom = math.sqrt(eps1**2 + 1.0)
    low = math.sqrt(1.0 - eps1) / denom
    high = lu / denom
    value = math.log(low) / 10.0 + 9.0 * math.log(high) / 10.0
    return value, low, high, (value > 0.0 and low < 1.0 < high)


@dataclass(frozen=True)
class Cube:
    """One row of the cube table: chart, changed axis j and field constants."""

    chart: ChartBox
    j: int
    coef: float
    mul: float
    div: float
    forward_explicit: bool

    @cached_property
    def others(self):
        """The three chart axes the cube leaves unchanged, in order."""
        return tuple(i for i in range(4) if i != self.j)

    def split(self, coords):
        """The changed coordinate y and the radius r over the other three axes."""
        coords = np.asarray(coords, dtype=float)
        o0, o1, o2 = (coords[..., i] for i in self.others)
        return coords[..., self.j], np.sqrt(o0 * o0 + o1 * o1 + o2 * o2)

    @cached_property
    def column(self):
        """Chart axis j in ambient coordinates, as four floats."""
        return tuple(self.chart.axes[:, self.j].tolist())


class DeformedSystem:
    """The map f = A o I_eps with analytic Jacobians and exact charts."""

    def __init__(self, auto: ToralAutomorphism, bump: SmoothBump,
                 params: DeformationParams, chart_p: ChartBox, chart_q: ChartBox):
        self.auto = auto
        self.bump = bump
        self.params = params
        self.chart_p = chart_p
        self.chart_q = chart_q
        self.dim = 4
        luu, lss, lu, ls = eigenvalue_rates(params.n, params.m)
        self.rates = np.array([luu, lss, lu, ls])
        self._diag = np.diag(self.rates)  # Df outside both cubes, also as rows of floats
        self._diag_rows = self._diag.tolist()
        self.luu, self.lss, self.lu, self.ls = luu, lss, lu, ls
        et = params.eps_tilde
        self.cubes = (
            Cube(chart_p, j=2, coef=1.0 - lu - et, mul=lu, div=1.0, forward_explicit=True),
            Cube(chart_q, j=3, coef=1.0 - 1.0 / ls - et, mul=1.0, div=ls,
                 forward_explicit=False),
        )
        # centers must sit far enough apart for the 3*delta support boxes
        gap = torus_distance(chart_p.center, chart_q.center)
        if gap <= 12.0 * params.delta:
            raise InfeasibleParamsError(
                f"support boxes at p and q overlap: center gap {gap:.4f} "
                f"<= 12*delta = {12 * params.delta:.4f}"
            )

    # -- the deformation field of each cube ------------------------------------

    def field(self, cube, coords):
        """P at p, Q at q (see the module docstring)."""
        y, r = cube.split(coords)
        return self._field_y(cube, y, self.bump(self.params.k * y), self.bump(r))

    def field_gradient(self, cube, coords):
        """The four partials of the field, stacked on the last axis."""
        coords = np.asarray(coords, dtype=float)
        y, r = cube.split(coords)
        sky, dsky = self.bump.profile(self.params.k * y)
        sr, dsr = self.bump.profile(r)
        return self._gradient(cube, coords, y, r, sky, dsky, sr, dsr)

    @staticmethod
    def _field_y(cube, y, sky, sr):
        """The field at changed coordinate y, given s(ky) and s(r)."""
        return sky * sr * y * cube.coef + y * cube.mul / cube.div

    @staticmethod
    def _field_dy(cube, ky, sky, dsky, sr):
        """dF/dy at changed coordinate y, given ky, s(ky), s'(ky) and s(r)."""
        return sr * cube.coef * (sky + ky * dsky) + cube.mul / cube.div

    def _gradient(self, cube, coords, y, r, sky, dsky, sr, dsr):
        """Partials of the field at coords with changed coordinate y (the other
        three are read from coords), given r and s, s' at ky and at r."""
        # radial factor; the singularity at r = 0 is removable (s' vanishes there)
        common = np.divide(sky * y * cube.coef * dsr, r, out=np.zeros(r.shape), where=r > 0)
        grad = common[..., None] * coords
        grad[..., cube.j] = self._field_dy(cube, self.params.k * y, sky, dsky, sr)
        return grad

    def cross_partial_sup(self) -> float:
        """The sup over both cubes of the six cross partials (dP/da, dP/db,
        dP/dd and dQ/da, dQ/db, dQ/dc): max |coef| sup t s(t) sup |s'| / k,
        which a point of each cube reaches (module docstring)."""
        coef = max(abs(cube.coef) for cube in self.cubes)
        return _cross_partial_scale(self.bump, coef) / self.params.k

    # -- the coordinate change I_eps ------------------------------------------

    def _solve(self, cube, y, sr):
        """u in [-2d, 2d] with F(u) = y mul/div at radius factor sr = s(r), and
        s(ku), s'(ku) there.

        F is strictly increasing in u and equals u mul/div wherever
        s(ku) s(r) = 0, so the start u = y is the root, bit for bit, outside
        the band |ky| < delta, r < delta.  Each point runs Newton inside its
        bracket, first [-2d, 2d], and bisects the bracket instead when the
        Newton step would leave it or is not below half the step before last
        (rtsafe): plain Newton can 2-cycle across the steep edge of s(ku).
        A point stops at F = target, or when its last step or its bracket is
        within 2 ulp of u; only points still moving are evaluated again.  The
        result is each point's evaluated iterate of least |F - target|.  When
        every start is already its root, the solve returns after that first
        evaluation, before it sets up brackets and bookkeeping.
        """
        target = y * cube.mul / cube.div
        k, w = self.params.k, 2.0 * self.params.delta
        ua, kua = y, k * y
        sky, dsky = self.bump.profile(kua)
        f = self._field_y(cube, ua, sky, sr) - target
        if not np.count_nonzero(f):  # every start is its root: nothing to set up
            return y, sky, dsky
        u, best, resid = y.copy(), y.copy(), np.full_like(y, np.inf)
        sky_best, dsky_best = np.zeros(y.shape), np.zeros(y.shape)
        lo, hi = np.full_like(y, -w), np.full_like(y, w)
        step = np.full_like(y, 2.0 * w)  # the last step; prev is the one before it
        prev = step.copy()
        act = np.arange(u.size)
        for _ in range(ROOT_MAX_ITER):  # ua, kua, f and s, s' are at u[act]
            closer = np.abs(f) < np.abs(resid[act])
            at = act[closer]
            best[at], resid[at] = ua[closer], f[closer]
            sky_best[at], dsky_best[at] = sky[closer], dsky[closer]
            moving = f != 0
            if not moving.any():  # every point sits on its root
                break
            lo[act] = np.where(f < 0, ua, lo[act])
            hi[act] = np.where(f > 0, ua, hi[act])
            ulp2 = 2.0 * np.spacing(np.abs(ua))
            go = moving & (np.abs(step[act]) > ulp2) & (hi[act] - lo[act] > ulp2)
            act, ua, f = act[go], ua[go], f[go]
            if not act.size:
                break
            df = self._field_dy(cube, kua[go], sky[go], dsky[go], sr[act])
            new = ua - f / df
            lo_a, hi_a = lo[act], hi[act]
            bisect = (new < lo_a) | (new > hi_a) | (np.abs(2.0 * f) > np.abs(prev[act] * df))
            new = np.where(bisect, 0.5 * (lo_a + hi_a), new)
            prev[act] = step[act]
            step[act] = new - ua
            u[act] = ua = new
            kua = k * ua
            sky, dsky = self.bump.profile(kua)
            f = self._field_y(cube, ua, sky, sr[act]) - target[act]
        worst = np.abs(resid).max() if u.size else 0.0
        if worst > ROOT_TOL * max(1.0, self.lu):
            raise RootFindError(
                f"deformation solve stalled: residual {worst:.3e} on {u.size} points"
            )
        return best, sky_best, dsky_best

    @cached_property
    def screen_tables(self):
        """One flat uint8 cell table per factor, (uu, ss) then (u, s), indexed
        as screen_cells gives.  Bit i of a cell is set when its centre is
        within cube i's half-width, plus half the cell diagonal and a rounding
        margin, in both chart coordinates of the factor.  Built on first use:
        the systems search_params rejects are never stepped.  Each is a
        read-only view of a bytes object (_screen_bytes), which one point's
        screen indexes as Python ints.
        """
        side = SCREEN_SIDE
        mid = (np.arange(side) + 0.5) / side
        centres = np.stack(np.meshgrid(mid, mid, indexing="ij"), axis=-1)
        tables = (np.zeros((side, 256), np.uint8), np.zeros((side, 256), np.uint8))
        for bit, cube in zip(CUBE_BITS, self.cubes):
            reach = cube.chart.half_width + math.sqrt(0.5) / side + SCREEN_MARGIN
            for table, f in zip(tables, (slice(0, 2), slice(2, 4))):
                coords = torus_displacement(centres, cube.chart.center[f]) @ cube.chart.axes[f, f]
                table[:, :side][(np.abs(coords) <= reach).all(axis=-1).T] |= bit
        return tuple(np.frombuffer(t.tobytes(), np.uint8) for t in tables)

    def screen(self, pts):
        """Cube bits of reduced points pts (N, 4): bit i (CUBE_BITS) is set on
        every row that may lie in cube i, and clear on every row that cannot."""
        uu_ss, u_s = self.screen_tables
        bits = np.empty(len(pts), np.uint8)
        for i in range(0, len(pts), SCREEN_BLOCK):
            cells = screen_cells(pts[i:i + SCREEN_BLOCK])
            np.bitwise_and(uu_ss[cells[:, 0]], u_s[cells[:, 1]], out=bits[i:i + SCREEN_BLOCK])
        return bits

    def _cube_loop(self, pts, forward, with_jac=False):
        """The one pass over the cube table, on reduced points pts of shape (N, 4).

        Moves pts in place to I_eps(pts) (forward) or I_eps^-1(pts): the screen
        picks each cube's candidate rows, and only those are looked up in its
        chart; axis j of the rows inside changes by the explicit F div/mul or
        by the root solve.  With ``with_jac``, returns the 4x4 chart Df of each
        point: diag(rates), with row j of each point in a cube that of Df at
        the forward input point (pts forward, its image backward): grad F, or
        its implicit row at q, at the field point z, from the same bump values.
        """
        jac = None
        if with_jac:
            jac = np.empty((pts.shape[0], 4, 4))
            jac[...] = self._diag
        bits = self.screen(pts)
        cand = bits.nonzero()[0]
        if not cand.size:
            return jac
        bits = bits[cand]
        k = self.params.k
        for bit, cube in zip(CUBE_BITS, self.cubes):
            look = cand.compress(bits & bit)
            if not look.size:
                continue
            coords, inside = cube.chart.to_chart(pts[look])
            at = look[inside]
            if not at.size:
                continue
            j, sub = cube.j, coords[inside]
            y, r = cube.split(sub)
            if forward == cube.forward_explicit:  # s, s' at r and at ky in one call
                s, ds = self.bump.profile(np.concatenate((r, k * y)), derivative=with_jac)
                sr, sky = s.reshape(2, -1)
                dsr, dsky = ds.reshape(2, -1) if with_jac else (None, None)
                new, z = self._field_y(cube, y, sky, sr) * cube.div / cube.mul, y
            else:  # the solve needs s(r) first
                sr, dsr = self.bump.profile(r, derivative=with_jac)
                new, sky, dsky = self._solve(cube, y, sr)
                z = new
            if with_jac:  # grad F at the field point z
                row = g = self._gradient(cube, sub, z, r, sky, dsky, sr, dsr)
                if not cube.forward_explicit:  # implicit differentiation of F(u) = y mul/div
                    row = -self.rates[j] * g / g[..., j:j + 1]
                    row[..., j] = 1.0 / g[..., j]
                jac[at, j] = row
            shift = (new - y)[:, None] * cube.chart.axes[:, j]
            pts[at] = reduce_torus(pts[at] + shift)
        return jac

    @cached_property
    def _screen_bytes(self):
        """The bytes objects under screen_tables."""
        return tuple(t.base for t in self.screen_tables)

    def _point_bits(self, x):
        """screen on one reduced point x, four floats: the same cells (a NaN
        in the last one, as screen_cells), read by Python ints."""
        cells = []
        for v in x:
            v *= SCREEN_SIDE
            cells.append(int(v) if v < SCREEN_SIDE - 1 else SCREEN_SIDE - 1)
        uu_ss, u_s = self._screen_bytes
        return uu_ss[cells[0] + 256 * cells[1]] & u_s[cells[2] + 256 * cells[3]]

    def _point_cubes(self, x, forward, with_jac=False):
        """_cube_loop on one reduced point x, a list of four floats, in Python
        floats: each operation of the batch code in its order, so the bits of
        its row in any batch, the chart lookup included (point_to_chart).
        Only the exponentials of the bump band and the root solve (on
        one-element arrays) stay numpy.  Moves x in place; with ``with_jac``
        returns _cube_loop's jac for the point as four lists of floats (rows).
        """
        rows = list(self._diag_rows) if with_jac else None  # rows are replaced, not changed
        bits = self._point_bits(x)
        if not bits:
            return rows
        k = self.params.k
        for bit, cube in zip(CUBE_BITS, self.cubes):
            if not bits & bit:
                continue
            c, inside = cube.chart.point_to_chart(x)
            if not inside:
                continue
            j = cube.j
            y = c[j]
            o0, o1, o2 = (c[i] for i in cube.others)
            r = math.sqrt(o0 * o0 + o1 * o1 + o2 * o2)
            sr, dsr = self.bump.point_profile(r)
            if forward == cube.forward_explicit:
                sky, dsky = self.bump.point_profile(k * y)
                new, z = self._field_y(cube, y, sky, sr) * cube.div / cube.mul, y
            else:
                new, sky, dsky = (v.item() for v in self._solve(cube, np.array([y]), np.array([sr])))
                z = new
            if rows is not None:  # _gradient at the field point z
                common = sky * z * cube.coef * dsr / r if r > 0 else 0.0
                row = [common * v for v in c]
                row[j] = self._field_dy(cube, k * z, sky, dsky, sr)
                if not cube.forward_explicit:  # implicit differentiation
                    rate, dj = -self.rates[j].item(), row[j]
                    row = [rate * v / dj for v in row]
                    row[j] = 1.0 / dj
                rows[j] = row
            d = new - y
            for i, a in enumerate(cube.column):  # reduce_torus(x + d * axis j)
                v = x[i] + d * a
                v -= math.floor(v)
                x[i] = 0.0 if v >= 1.0 else v
        return rows

    def _forward_cubes(self, x):
        """advance's forward pass but A: I_eps of the reduced x, and the chart Df
        at x; _cube_loop on rows (N, 4), else _point_cubes on one point (lists)."""
        if isinstance(x, np.ndarray) and x.ndim == 2:
            return (x := reduce_torus(x)), self._cube_loop(x, True, True)
        return (x := reduce_point(x)), self._point_cubes(x, True, True)

    def advance_point(self, x, forward=True):
        """The one-row kernel: advance on one point x, a sequence of four
        floats, returning the image as a list of four floats and the 4x4
        chart Df as four lists of floats.  Everything but A's one-row matmul
        (ToralAutomorphism.apply_point) runs on Python floats: reduce_torus
        as reduce_point, then the cube pass _point_cubes.  So the point gets
        the bits of a (1, 4) batch through advance.
        """
        if forward:
            x, rows = self._forward_cubes(x)
            return self.auto.apply_point(x), rows
        x = self.auto.apply_point(x, inverse=True)
        return x, self._point_cubes(x, False, True)

    def _deform(self, x, forward):
        """I_eps (forward) or its inverse: the cube loop without Jacobian rows."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            pt = reduce_point(x.tolist())
            self._point_cubes(pt, forward)
            return np.array(pt)
        pts = reduce_torus(x)
        self._cube_loop(pts, forward)
        return pts

    def deform(self, x):
        """I_eps: changes c inside the p-cube, d inside the q-cube, else identity."""
        return self._deform(x, forward=True)

    def deform_inverse(self, x):
        return self._deform(x, forward=False)

    # -- the map f and its derivatives ----------------------------------------

    def step(self, x):
        """f = A o I_eps."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return np.array(self.advance_point(x.tolist())[0])
        return self.auto.apply(self.deform(x))

    def step_record(self, x):
        """f on a reduced batch x (N, 4), and the StepRecord of x.

        One screen_cells and the two table gathers serve the whole batch; the
        cube pass runs on the candidate rows alone, and x is copied only when
        there are some.  Its rows are independent, so f(x) has the bytes of
        step(x).
        """
        cells, (uu_ss_table, u_s_table) = screen_cells(x), self.screen_tables
        uu_ss = uu_ss_table[cells[:, 0]]
        rows = (uu_ss & u_s_table[cells[:, 1]]).nonzero()[0]
        if rows.size:
            x, cand = x.copy(), x[rows]
            self._cube_loop(cand, True)
            x[rows] = cand
        return self.auto.apply(x), StepRecord(uu_ss, rows)

    def step_inverse(self, x):
        """f^{-1} = I_eps^{-1} o A^{-1}."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return np.array(self.advance_point(x.tolist(), False)[0])
        return self.deform_inverse(self.auto.apply_inverse(x))

    def advance(self, x, forward=True):
        """One step of f with its 4x4 chart Jacobian, from one cube pass.

        Forward returns (f(x), Df(x)), backward (f^{-1}(x), Df(f^{-1}(x))).
        All is bit for bit step / step_inverse and the forward Df, except
        backward Df's in-cube rows: taken at the field point in hand, they
        differ from the forward Df at the preimage, which looks it up again,
        by the rounding of the field point times the row's slope in it (module
        docstring).  A single point takes advance_point.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            out, rows = self.advance_point(x.tolist(), forward)
            return np.array(out), np.array(rows)
        if forward:
            pts, jac = self._forward_cubes(x)
            return self.auto.apply(pts), jac
        # apply_inverse already reduces into a fresh array
        out = self.auto.apply_inverse(x)
        return out, self._cube_loop(out, False, True)

    def jacobian_chart(self, x):
        """Analytic Df in the global eigenbasis, shape (..., 4, 4).

        At p this is diag(luu, lss, 1, ls) (plain map); at q it is
        diag(luu, lss, lu, 1); outside both cubes diag(luu, lss, lu, ls).
        In a cube only row j differs: grad P at p, the implicit row at q.
        """
        x = np.asarray(x, dtype=float)
        return np.asarray(self._forward_cubes(x.tolist() if x.ndim == 1 else x)[1])

    def jacobian(self, x):
        """Analytic Df in ambient coordinates (conjugated by the eigenbasis)."""
        axes = self.chart_p.axes
        jc = self.jacobian_chart(x)
        return axes @ jc @ axes.T

    def jacobians(self, x):
        """jacobian along the forward orbit of one point x, one advance_point a step."""
        axes, x = self.chart_p.axes, np.asarray(x, dtype=float).tolist()
        while True:
            x, rows = self.advance_point(x)
            yield axes @ np.array(rows) @ axes.T

    def jacobian_inverse(self, x):
        """Analytic Jacobian of f^{-1} at x, i.e. inv(Df) at the preimage, from
        one backward advance, inverted in closed form (chart_inverse)."""
        axes = self.chart_p.axes
        return axes @ chart_inverse(self.advance(x, False)[1]) @ axes.T

    # -- variants --------------------------------------------------------------

    def _with(self, **changes) -> "DeformedSystem":
        """This system with params fields replaced: same A, bump and charts."""
        return DeformedSystem(self.auto, self.bump, replace(self.params, **changes),
                              self.chart_p, self.chart_q)

    def make_tilde(self, eps_tilde: float) -> "DeformedSystem":
        """Variant with the extra -eps*c / -eps*d terms; both fixed points hyperbolic.

        Raises unless dP/dc and dQ/dd stay above 1e-9, so that the coordinate
        change stays a bijection: their least value is coef + mul/div = 1 - et
        (module docstring), so exactly eps_tilde < 1 - 1e-9 is accepted.
        """
        if eps_tilde < 0:
            raise ParameterTooLargeError("eps_tilde must be non-negative")
        sys2 = self._with(eps_tilde=eps_tilde)
        for cube in sys2.cubes:
            if cube.coef + cube.mul / cube.div <= 1e-9:
                raise ParameterTooLargeError(
                    f"eps_tilde={eps_tilde} destroys monotonicity of the "
                    f"{'abcd'[cube.j]}-change"
                )
        return sys2

    def fixed_point_jacobians(self):
        """Chart Jacobians at p and q (diagonal for every eps_tilde)."""
        return tuple(self.jacobian_chart(cube.chart.center) for cube in self.cubes)

    def skew_unstable_bundle(self):
        """Strong-unstable axis and exact rate of the skew structure over the
        first factor (the map acts there as the plain cat-map power)."""
        return self.chart_p.axes[:, 0], self.luu


def _slab_grid(delta, k, n_c=41, n_abd=13):
    """Grid concentrated on the band where the bump factors are active, as
    (N, 4) points (a, b, c, d) in row-major order: n_c values of the fine
    axis c on the band |kc| <= delta, n_abd values of each other axis."""
    cs, oth = np.linspace(-delta / k, delta / k, n_c), np.linspace(-delta, delta, n_abd)
    aa, bb, cc, dd = np.meshgrid(oth, oth, cs, oth, indexing="ij")
    return np.stack([aa, bb, cc, dd], axis=-1).reshape(-1, 4)


def _fine_axis_on(grid, j):
    """Points with axis 2 (the slab grid's fine axis) swapped onto axis j."""
    if j == 2:
        return grid
    out = grid.copy()
    out[..., [2, j]] = out[..., [j, 2]]
    return out


def _cross_partial_scale(bump: SmoothBump, coef: float) -> float:
    """|coef| sup t s(t) sup |s'|: k times the sup of the cross partials of a
    cube field with coefficient coef."""
    return abs(coef) * bump.peak_moment()[1] * bump.peak_derivative()[1]


def select_fixed_point_pair(auto: ToralAutomorphism, delta: float):
    """p = origin and the fixed point q farthest from it on the torus.

    A = D^n x D^m is a block product, so its fixed points are the pairs of
    factor fixed points, and the farthest ones pair the farthest points of
    each factor: only the two factors are enumerated (at most 103,680 points,
    for D^12).  Ties go to the point first in enumerate_periodic's order for
    A, so q is the one a scan over every fixed point of A would keep.

    The pair must keep the 3*delta support boxes disjoint; for every feasible
    (n, m) with n >= 2 the first factor has at least 5 fixed points spaced
    >= 0.44 apart, so a valid q always exists at delta <= 1/40.
    """
    e = auto.matrix.entries
    farthest = []
    for i in (0, 2):
        block = IntegerMatrix([row[i:i + 2] for row in e[i:i + 2]])
        pts = np.array(enumerate_periodic(block, 1))
        gap = torus_distance(pts, np.zeros(2))
        # exact ties may round apart; distinct rational gaps differ by far more
        farthest.append(pts[gap >= np.max(gap) - 1e-12])
    p = np.zeros(auto.dim)
    cands = [np.concatenate(pair) for pair in itertools.product(*farthest)]
    gaps = [float(torus_distance(c, p)) for c in cands]
    best_gap = max(gaps)
    best = min((c for c, g in zip(cands, gaps) if g == best_gap),
               key=lambda c: periodic_order(auto.matrix, 1, c))
    if best_gap <= 12.0 * delta:
        raise InfeasibleParamsError(
            "no fixed point q with a disjoint support box; a low-period point "
            "and its return map would be required (not provided at desk scale)"
        )
    return p, best


@dataclass(frozen=True)
class ParamCaps:
    """Search ranges for the parameter feasibility sweep."""

    n_max: int = 12
    m_max: int = 6
    delta: float = 1.0 / 40.0
    eps1_candidates: tuple = (0.01, 0.02, 0.05, 0.005)


def search_params(bump_bound: BumpBound, caps: ParamCaps = ParamCaps()) -> DeformedSystem:
    """The system of the smallest (n, m) satisfying both rate inequalities,
    plus eps1 and k (its .params).

    k is the least integer >= 2 whose cross_partial_sup lies below the cone
    budget eps0 (up to the rounding of one division): that sup is a scale
    over k, in closed form (module docstring), so no k is tried.
    """
    M = bump_bound.M
    chosen = None
    last_failure = None
    for n in range(2, caps.n_max + 1):
        for m in range(1, min(n, caps.m_max + 1)):
            checks = rate_inequalities(M, n, m)
            if all(c[3] for c in checks):
                chosen = (n, m)
                break
            last_failure = checks
        if chosen:
            break
    if chosen is None:
        detail = ""
        if last_failure:
            name, lhs, rhs, _ = next(c for c in last_failure if not c[3])
            detail = f"; tightest miss: {name} needs {lhs:.4g} <= {rhs:.4g}"
        raise InfeasibleParamsError(f"no (n, m) within caps satisfies the rate bounds{detail}")
    n, m = chosen
    luu, lss, lu, ls = eigenvalue_rates(n, m)

    eps1 = None
    for cand in caps.eps1_candidates:
        if center_gap_condition(cand, lu)[3]:
            eps1 = cand
            break
    if eps1 is None:
        raise InfeasibleParamsError("no eps1 candidate satisfies the weighted log condition")

    params = DeformationParams(n=n, m=m, delta=caps.delta, k=0.0, eps1=eps1)  # k set below
    bump = SmoothBump(params.delta)
    # max |coef| of the two cubes, as cross_partial_sup takes it
    scale = _cross_partial_scale(bump, max(lu - 1.0, 1.0 / ls - 1.0))
    k = max(2, math.floor(scale / params.eps0) + 1)
    return build_deformed_system(replace(params, k=float(k)), bump=bump, bound=bump_bound)


def build_deformed_system(params: DeformationParams, bump: SmoothBump | None = None,
                          bound: BumpBound | None = None) -> DeformedSystem:
    """Assemble charts, automorphism, and bump into the deformed map.

    The rate inequalities are validated against ``bound`` (recomputed from the
    bump when absent), and the weighted log condition against eps1.
    """
    if bump is None:
        bump = SmoothBump(params.delta)
    if bound is None:
        bound = compute_M(bump)
    for name, lhs, rhs, ok in rate_inequalities(bound.M, params.n, params.m):
        if not ok:
            raise InfeasibleParamsError(f"{name} inequality fails: {lhs:.4g} > {rhs:.4g}")
    if not center_gap_condition(params.eps1, eigenvalue_rates(params.n, params.m)[2])[3]:
        raise InfeasibleParamsError(f"eps1={params.eps1} fails the weighted log condition")
    auto = cat_power_product(params.n, params.m)
    p, q = select_fixed_point_pair(auto, params.delta)
    axes = auto.splitting.eigenvectors[:, CHART_ORDER]
    half = 2.0 * params.delta
    chart_p = ChartBox(center=p, half_width=half, axes=axes)
    chart_q = ChartBox(center=q, half_width=half, axes=axes)
    return DeformedSystem(auto, bump, params, chart_p, chart_q)

