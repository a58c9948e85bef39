"""C-infinity truncation profile and the lower bound M it induces.

The profile is built from the standard non-analytic step
sigma(t) = e(t) / (e(t) + e(1-t)), e(t) = exp(-1/t) for t > 0 and 0 otherwise,
rescaled so the transition band is exactly (delta/2, delta):

    s(x) = 1      for |x| <= delta/2,
    s(x) = 0      for |x| >= delta,
    s strictly decreasing in between, even, C-infinity.

The half-width obeys the measure budget 16 delta^2 <= 1/100, i.e.
delta <= 1/40, enforced at construction.

The construction's constants are three 1-D extrema on [0, delta], each a
scan_min: the least w = s + y s' gives M (compute_M), and the peaks of |s'|
and t s(t) give the cross-partial sup (deformation.py).
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

    def point_profile(self, x):
        """s(x) and s'(x) at one float x, as floats: profile's operations in
        its order, so its bits, without numpy's per-call cost.  The two
        exponentials stay np.exp, which rounds apart from math.exp."""
        half = self.delta / 2.0
        t = (self.delta - abs(x)) / half
        neg_sign = -1.0 if x > 0 else 1.0 if x < 0 else -0.0 if x == 0 else -x  # -np.sign(x)
        if not 0.0 < t < 1.0:
            return (1.0 if t >= 1.0 else 0.0), neg_sign * 0.0
        u = 1.0 - t
        a = float(np.exp(-1.0 / t))
        b = float(np.exp(-1.0 / u))
        ab = a + b
        return a / ab, neg_sign / half * ((a / (t * t) * b + a * (b / (u * u))) / (ab * ab))

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

    def peak_derivative(self):
        """(x, |s'(x)|) at the largest |s'| on [0, delta] (scan_min)."""
        x, v = scan_min(lambda x: -np.abs(self.derivative(x)), 0.0, self.delta)
        return x, -v

    def peak_moment(self):
        """(t, t s(t)) at the largest t s(t) on [0, delta] (scan_min)."""
        t, v = scan_min(lambda t: -t * self(t), 0.0, self.delta)
        return t, -v


@dataclass(frozen=True)
class BumpBound:
    """The constant M = max(0, -min w) and the y in [0, delta] where w is least."""

    M: float
    argmin: float


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


def scan_min(f, lo, hi, grid=2001):
    """The least value of f on [lo, hi] as (x, f(x)), for f smooth there.

    f takes arrays: one scan over ``grid`` uniform points, then golden-section
    refinement to 1e-8 (hi - lo) over the two cells beside the scan's argmin;
    the lesser of the scan's and the refinement's value wins.
    """
    xs = np.linspace(lo, hi, grid)
    vals = f(xs)
    i = int(np.argmin(vals))
    h = (hi - lo) / (grid - 1)
    x, v = _golden_min(lambda t: float(f(np.array(t))),
                       max(lo, xs[i] - h), min(hi, xs[i] + h), 1e-8 * (hi - lo))
    return (float(x), v) if v < vals[i] else (float(xs[i]), float(vals[i]))


def compute_M(bump: SmoothBump, grid: int = 2001) -> BumpBound:
    """M = max(0, -min w) over y in [0, delta], w = ``bump.weighted``.

    M bounds -s(x) w(y) over [0, delta]^2: s lies in [0, 1] and equals 1 on
    the plateau, so that minimum is min w, reached with x on the plateau.
    w(y) = d/dy (y s(y)) depends on y / delta only, so M does not depend on
    delta (up to rounding).  s is even, so x of either sign gives the same.
    """
    y, w = scan_min(bump.weighted, 0.0, bump.delta, grid)
    return BumpBound(M=max(0.0, -w), argmin=y)
