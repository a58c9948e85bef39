"""C-infinity truncation profile and the lower bound M it induces.

The profile is built from the standard non-analytic step
sigma(t) = e(t) / (e(t) + e(1-t)), e(t) = exp(-1/t) for t > 0 and 0 otherwise,
rescaled so the transition band is exactly (delta/2, delta):

    s(x) = 1      for |x| <= delta/2,
    s(x) = 0      for |x| >= delta,
    s strictly decreasing in between, even, C-infinity.

The half-width obeys the measure budget 16 delta^2 <= 1/100, i.e.
delta <= 1/40, enforced at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeasureConstraintError

MAX_DELTA = 1.0 / 40.0

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


class SmoothBump:
    """The truncation s(delta; .) with its analytic derivative.

    Immutable; evaluation is pure, vectorized, and safe to call concurrently.
    """

    def __init__(self, delta: float):
        if delta <= 0:
            raise MeasureConstraintError("delta must be positive")
        if delta > MAX_DELTA + 1e-15:
            raise MeasureConstraintError(
                f"delta={delta} violates 16*delta^2 <= 1/100 (max {MAX_DELTA})"
            )
        self.delta = float(delta)

    def profile(self, x, derivative=True):
        """s(x) and s'(x) (None unless ``derivative``) as arrays shaped like x.

        One pass: both read the same e(t) = exp(-1/t) and e(1 - t) on the
        transition band 0 < t < 1, t = (delta - |x|) / (delta/2), and
        sigma' = (e'(t) e(1-t) + e(t) e'(1-t)) / (e(t) + e(1-t))^2 with
        e'(t) = e(t) / t^2.  With no point on the band, s is the indicator of
        the plateau and s' = -sign(x) * 0.0, the same zeros (signs included)
        and NaNs as the band formula, from a handful of array operations.
        """
        x = np.asarray(x, dtype=float)
        xa = np.atleast_1d(x)
        t = np.abs(xa)
        np.subtract(self.delta, t, out=t)
        t /= self.delta / 2.0
        mid = (t > 0) & (t < 1)
        if not np.count_nonzero(mid):
            val = (t >= 1).astype(float)
            if not derivative:
                return val.reshape(x.shape), None
            der = np.sign(xa, out=t)
            np.negative(der, out=der)
            der *= 0.0
            return val.reshape(x.shape), der.reshape(x.shape)
        tm = t[mid]
        um = 1.0 - tm
        # on the band t and 1 - t are at least about 1e-16 (one ulp of delta
        # over delta/2, and of 1), so -1/t cannot overflow
        a = np.exp(-1.0 / tm)
        b = np.exp(-1.0 / um)
        val = np.zeros(t.shape)
        val[mid] = a / (a + b)
        val[t >= 1] = 1.0
        if not derivative:
            return val.reshape(x.shape), None
        sp = np.zeros(t.shape)
        sp[mid] = (a / (tm * tm) * b + a * (b / (um * um))) / (a + b) ** 2
        # s' = sigma'(t) dt/dx with dt/dx = -sign(x) / (delta/2), formed in t's
        # buffer: verify-construction evaluates s on grids of 1.5e5 points
        der = np.sign(xa, out=t)
        np.negative(der, out=der)
        der /= self.delta / 2.0
        der *= sp
        return val.reshape(x.shape), der.reshape(x.shape)

    def __call__(self, x):
        val, _ = self.profile(x, derivative=False)
        return float(val) if val.ndim == 0 else val

    def derivative(self, x):
        """s'(x); odd by symmetry, zero on the plateau and outside the support."""
        _, der = self.profile(x)
        return float(der) if der.ndim == 0 else der

    def weighted(self, y):
        """s(y) + y * s'(y), the factor whose negative part defines M."""
        y = np.asarray(y, dtype=float)
        val, der = self.profile(y)
        return val + y * der

    def sup_derivative(self) -> float:
        """Estimate of max |s'| on 20001 grid points of [0, delta]."""
        ys = np.linspace(0.0, self.delta, 20001)
        return float(np.max(np.abs(self.derivative(ys))))

    def sup_y_times_s(self) -> float:
        """Estimate of max |y * s(y)| on 20001 grid points of [0, delta]."""
        ys = np.linspace(0.0, self.delta, 20001)
        return float(np.max(np.abs(ys * self(ys))))


@dataclass(frozen=True)
class BumpBound:
    """The constant M >= 0 with -M <= s(x)(s(y) + y s'(y)) everywhere sampled."""

    M: float
    argmin: tuple
    min_value: float
    grid: int


def _golden_min(f, lo, hi, tol):
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def compute_M(bump: SmoothBump, grid: int = 2001) -> BumpBound:
    """Numerical minimum of s(x)(s(y) + y s'(y)) over [0, delta]^2.

    Uniform grid scan followed by four rounds of coordinate-wise
    golden-section refinement, each to an interval of 1e-8 delta;
    the objective is smooth, with the minimizer in the transition band.
    By symmetry of s the same bound holds for x of either sign.

    The scan takes the row-major argmin of g[i, j] = s(x_i) w(y_j),
    w = ``bump.weighted``, without forming g.  Rounding is monotone, so
    fl(a * b) is nondecreasing in b for a >= 0 and nonincreasing for a < 0:
    row i's minimum is s(x_i) min(w), or s(x_i) max(w) when s(x_i) < 0.  The
    first row with the least row minimum, and the first column attaining it
    there, are np.argmin's answer on the dense grid, ties included.  Every
    evaluation goes through ``bump(.)`` and ``bump.weighted(.)``, which
    subclasses may override.
    """
    delta = bump.delta
    xs = np.linspace(0.0, delta, grid)
    sx = bump(xs)
    hy = bump.weighted(xs)
    row_min = sx * np.where(sx < 0, np.max(hy), np.min(hy))
    i = np.argmin(row_min)
    row = sx[i] * hy
    j = np.argmin(row)
    x0, y0 = xs[i], xs[j]
    h = delta / (grid - 1)

    for _ in range(4):
        sx0 = bump(np.array(x0))
        y0, best = _golden_min(
            lambda y: float(sx0 * bump.weighted(np.array(y))),
            max(0.0, y0 - h), min(delta, y0 + h), 1e-8 * delta
        )
        hy0 = bump.weighted(np.array(y0))
        x0, best = _golden_min(
            lambda x: float(bump(np.array(x)) * hy0),
            max(0.0, x0 - h), min(delta, x0 + h), 1e-8 * delta
        )
    min_value = min(best, float(row[j]))
    return BumpBound(M=max(0.0, -min_value), argmin=(x0, y0), min_value=min_value, grid=grid)
