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

Everything here is vectorized over point batches of shape (N, 4); a single
point of shape (4,) is accepted everywhere and returned in kind.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .bump import BumpBound, SmoothBump, make_bump
from .errors import (
    InfeasibleParamsError,
    ParameterTooLargeError,
    RootFindError,
)
from .torus import (
    IntegerMatrix,
    ToralAutomorphism,
    cat_power_product,
    enumerate_periodic,
    periodic_order,
    reduce_torus,
    torus_displacement,
    torus_distance,
)

ROOT_TOL = 1e-12
ROOT_MAX_ITER = 200


@dataclass(frozen=True)
class ChartBox:
    """Affine eigen-chart at a fixed point; axes columns ordered (uu, ss, u, s)."""

    center: np.ndarray
    half_width: float
    axes: np.ndarray

    def to_chart(self, x):
        """Chart coordinates of x and the mask of points inside the cube."""
        disp = torus_displacement(x, self.center)
        coords = disp @ self.axes
        inside = np.all(np.abs(coords) <= self.half_width, axis=-1)
        return coords, inside

    def from_chart(self, coords):
        return reduce_torus(self.center + coords @ self.axes.T)


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

    @property
    def others(self):
        """The three chart axes the cube leaves unchanged, in order."""
        return [i for i in range(4) if i != self.j]

    def split(self, coords):
        """The changed coordinate y and the radius r over the other three axes."""
        cols = np.moveaxis(np.asarray(coords, dtype=float), -1, 0)
        o0, o1, o2 = (cols[i] for i in self.others)
        return cols[self.j], np.sqrt(o0 * o0 + o1 * o1 + o2 * o2)


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
        k, coef = self.params.k, cube.coef
        coords = np.asarray(coords, dtype=float)
        y, r = cube.split(coords)
        sky = self.bump(k * y)
        sr = self.bump(r)
        dy = self._field_dy(cube, y, sky, sr)
        # radial factor; the singularity at r = 0 is removable (s' vanishes there)
        common = np.zeros_like(r)
        pos = r > 0
        common[pos] = (sky * y * coef)[pos] * self.bump.derivative(r[pos]) / r[pos]
        grad = common[..., None] * coords
        grad[..., cube.j] = dy
        return grad

    @staticmethod
    def _field_y(cube, y, sky, sr):
        """The field at changed coordinate y, given s(ky) and s(r)."""
        return sky * sr * y * cube.coef + y * cube.mul / cube.div

    def _field_dy(self, cube, y, sky, sr):
        """dF/dy at changed coordinate y, given s(ky) and s(r)."""
        ky = self.params.k * y
        return sr * cube.coef * (sky + ky * self.bump.derivative(ky)) + cube.mul / cube.div

    # -- the coordinate change I_eps ------------------------------------------

    def _solve(self, cube, coords):
        """u in [-2d, 2d] with F(y=u) = y mul/div, for coords of shape (N, 4).

        F is strictly increasing in u and equals u mul/div wherever
        s(ku) s(r) = 0, so the start u = y is the root, bit for bit, outside
        the band |ky| < delta, r < delta.  Each point runs Newton inside its
        bracket, first [-2d, 2d], and bisects the bracket instead when the
        Newton step would leave it or is not below half the step before last
        (rtsafe): plain Newton can 2-cycle across the steep edge of s(ku).
        A point stops at F = target, or when its last step or its bracket is
        within 2 ulp of u; only points still moving are evaluated again.  The
        result is each point's evaluated iterate of least |F - target|.
        """
        y, r = cube.split(coords)
        target = y * cube.mul / cube.div
        sr = self.bump(r)
        k, w = self.params.k, 2.0 * self.params.delta
        u, best, resid = y.copy(), y.copy(), np.full_like(y, np.inf)
        lo, hi = np.full_like(y, -w), np.full_like(y, w)
        step = np.full_like(y, 2.0 * w)  # the last step; prev is the one before it
        prev = step.copy()
        act = np.arange(u.size)
        for _ in range(ROOT_MAX_ITER):
            ua = u[act]
            sky = self.bump(k * ua)
            f = self._field_y(cube, ua, sky, sr[act]) - target[act]
            closer = np.abs(f) < np.abs(resid[act])
            best[act[closer]], resid[act[closer]] = ua[closer], f[closer]
            lo[act] = np.where(f < 0, ua, lo[act])
            hi[act] = np.where(f > 0, ua, hi[act])
            ulp2 = 2.0 * np.spacing(np.abs(ua))
            go = (f != 0) & (np.abs(step[act]) > ulp2) & (hi[act] - lo[act] > ulp2)
            act, ua, sky, f = act[go], ua[go], sky[go], f[go]
            if not act.size:
                break
            df = self._field_dy(cube, ua, sky, sr[act])
            new = ua - f / df
            lo_a, hi_a = lo[act], hi[act]
            bisect = (new < lo_a) | (new > hi_a) | (np.abs(2.0 * f) > np.abs(prev[act] * df))
            new = np.where(bisect, 0.5 * (lo_a + hi_a), new)
            prev[act] = step[act]
            step[act] = new - ua
            u[act] = new
        worst = np.max(np.abs(resid)) if u.size else 0.0
        if worst > ROOT_TOL * max(1.0, self.lu):
            raise RootFindError(
                f"deformation solve stalled: residual {worst:.3e} on {u.size} points"
            )
        return best

    def _deform(self, x, forward):
        """I_eps (forward) or its inverse: one pass over the cube table."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = reduce_torus(np.atleast_2d(x)).copy()
        for cube in self.cubes:
            coords, inside = cube.chart.to_chart(pts)
            if np.any(inside):
                sub = coords[inside]
                if forward == cube.forward_explicit:
                    new = self.field(cube, sub) * cube.div / cube.mul
                else:
                    new = self._solve(cube, sub)
                shift = (new - sub[..., cube.j])[:, None] * cube.chart.axes[:, cube.j]
                pts[inside] = reduce_torus(pts[inside] + shift)
        return pts[0] if single else pts

    def deform(self, x):
        """I_eps: changes c inside the p-cube, d inside the q-cube, else identity."""
        return self._deform(x, forward=True)

    def deform_inverse(self, x):
        return self._deform(x, forward=False)

    # -- the map f and its derivatives ----------------------------------------

    def step(self, x):
        """f = A o I_eps."""
        return self.auto.apply(self.deform(x))

    def step_inverse(self, x):
        """f^{-1} = I_eps^{-1} o A^{-1}."""
        return self.deform_inverse(self.auto.apply_inverse(x))

    def jacobian_chart(self, x):
        """Analytic Df in the global eigenbasis, shape (..., 4, 4).

        At p this is diag(luu, lss, 1, ls) (plain map); at q it is
        diag(luu, lss, lu, 1); outside both cubes diag(luu, lss, lu, ls).
        In a cube only row j differs: grad P at p, the implicit row at q.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = reduce_torus(np.atleast_2d(x))
        jac = np.tile(np.diag(self.rates), (pts.shape[0], 1, 1))
        for cube in self.cubes:
            coords, inside = cube.chart.to_chart(pts)
            if np.any(inside):
                j, sub = cube.j, coords[inside]
                if cube.forward_explicit:
                    row = self.field_gradient(cube, sub)
                else:
                    sub[..., j] = self._solve(cube, sub)  # partials live at the image point
                    g = self.field_gradient(cube, sub)
                    row = -self.rates[j] * g / g[..., j:j + 1]
                    row[..., j] = 1.0 / g[..., j]
                jac[inside, j, :] = row
        return jac[0] if single else jac

    def jacobian(self, x):
        """Analytic Df in ambient coordinates (conjugated by the eigenbasis)."""
        axes = self.chart_p.axes
        jc = self.jacobian_chart(x)
        return axes @ jc @ axes.T

    def jacobian_inverse(self, x):
        """Analytic Jacobian of f^{-1} at x, i.e. inv(Df) at the preimage."""
        return np.linalg.inv(self.jacobian(self.step_inverse(x)))

    # -- variants --------------------------------------------------------------

    def make_tilde(self, eps_tilde: float) -> "DeformedSystem":
        """Variant with the extra -eps*c / -eps*d terms; both fixed points hyperbolic.

        Checks dP/dc > 0 and dQ/dd > 0 on the deformation slab so that the
        coordinate change stays a bijection.
        """
        if eps_tilde < 0:
            raise ParameterTooLargeError("eps_tilde must be non-negative")
        params = replace(self.params, eps_tilde=eps_tilde)
        sys2 = DeformedSystem(self.auto, self.bump, params, self.chart_p, self.chart_q)
        if eps_tilde > 0:
            grid = _slab_grid(params.delta, params.k)
            for cube in sys2.cubes:
                dy = sys2.field_gradient(cube, _fine_axis_on(grid, cube.j))[..., cube.j]
                if np.min(dy) <= 1e-9:
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
    """Grid concentrated on the band where the bump factors are active."""
    cs = np.linspace(-delta / k, delta / k, n_c)
    oth = np.linspace(-delta, delta, n_abd)
    aa, bb, cc, dd = np.meshgrid(oth, oth, cs, oth, indexing="ij")
    return np.stack([aa, bb, cc, dd], axis=-1).reshape(-1, 4)


def _fine_axis_on(grid, j):
    """Points with axis 2 (the slab grid's fine axis) swapped onto axis j."""
    if j == 2:
        return grid
    out = grid.copy()
    out[..., [2, j]] = out[..., [j, 2]]
    return out


def small_partial_sup(system: DeformedSystem) -> float:
    """Grid sup of the six cross partials (dP/da,b,d and dQ/da,b,c)."""
    grid = _slab_grid(system.params.delta, system.params.k)
    grads = [system.field_gradient(cube, _fine_axis_on(grid, cube.j)) for cube in system.cubes]
    return float(max(np.max(np.abs(g[..., cube.others]))
                     for cube, g in zip(system.cubes, grads)))


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
    k_start: float = 0.0
    k_max: float = 1e8


def search_params(bump_bound: BumpBound, caps: ParamCaps = ParamCaps()) -> DeformationParams:
    """Smallest (n, m) satisfying both rate inequalities, plus eps1 and k.

    k starts from an analytic sup bound on the six cross partials and doubles
    until the measured grid sup drops below the cone budget eps0.
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

    delta = caps.delta
    bump = make_bump(delta)
    eps0 = min(eps1 / 10.0, 0.05)
    coef = max(lu - 1.0, 1.0 / ls - 1.0)
    k = max(
        caps.k_start,
        math.ceil(coef * bump.sup_derivative() * bump.sup_y_times_s() / eps0),
        2.0,
    )
    while True:
        params = DeformationParams(n=n, m=m, delta=delta, k=float(k), eps1=eps1)
        system = build_deformed_system(params, bump=bump, bound=bump_bound)
        if small_partial_sup(system) < eps0:
            return params
        k *= 2
        if k > caps.k_max:
            raise InfeasibleParamsError(
                f"k exceeded cap {caps.k_max} before cross partials fell below {eps0}"
            )


def build_deformed_system(params: DeformationParams, bump: SmoothBump | None = None,
                          bound: BumpBound | None = None) -> DeformedSystem:
    """Assemble charts, automorphism, and bump into the deformed map.

    The rate inequalities are validated against ``bound`` (recomputed from the
    bump when absent), and the weighted log condition against eps1.
    """
    if bump is None:
        bump = make_bump(params.delta)
    if bound is None:
        from .bump import compute_M  # local import to avoid cycle at module load

        bound = compute_M(bump)
    for name, lhs, rhs, ok in rate_inequalities(bound.M, params.n, params.m):
        if not ok:
            raise InfeasibleParamsError(f"{name} inequality fails: {lhs:.4g} > {rhs:.4g}")
    if not center_gap_condition(params.eps1, eigenvalue_rates(params.n, params.m)[2])[3]:
        raise InfeasibleParamsError(f"eps1={params.eps1} fails the weighted log condition")
    auto = cat_power_product(params.n, params.m)
    p, q = select_fixed_point_pair(auto, params.delta)
    axes = chart_axes(params.n, params.m)
    half = 2.0 * params.delta
    chart_p = ChartBox(center=p, half_width=half, axes=axes)
    chart_q = ChartBox(center=q, half_width=half, axes=axes)
    return DeformedSystem(auto, bump, params, chart_p, chart_q)


def chart_axes(n: int, m: int) -> np.ndarray:
    """Orthonormal eigenbasis of D^n x D^m, columns ordered (uu, ss, u, s)."""
    auto = cat_power_product(n, m)
    lams = auto.splitting.eigenvalues
    vecs = auto.splitting.eigenvectors
    order = [int(np.argmax(lams)), int(np.argmin(np.abs(lams)))]
    remaining = [i for i in range(4) if i not in order]
    # remaining two are lu (modulus > 1) and ls
    if abs(lams[remaining[0]]) > 1:
        order += [remaining[0], remaining[1]]
    else:
        order += [remaining[1], remaining[0]]
    return vecs[:, order]
