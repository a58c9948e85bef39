"""Cone fields, invariance verification, and numerical bundle extraction.

A cone of width eps around a core subspace G2 with complement G1 is the set
of vectors v = v1 + v2 (v1 in G1, v2 in G2) with ||v1|| <= eps ||v2||.
Verification is sampled and runs as one batched pass: random points, all
their random cone vectors near the cone boundary drawn at once, one stacked
derivative application, and a re-test of membership.  The reported theta is
the worst post/pre ratio quotient; gamma the worst single step growth inside
the cone.  Violations are data, never exceptions.

Bundle directions are extracted by power iteration along orbits walked with
the system's advance, which yields each step's chart Jacobian with the step:
strong bundles from generic seeds, center bundles inside the exactly
invariant (u, s) coordinate 2-plane of the deformed systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ergodic import push_forward, require_int
from .torus import chart_inverse

#: angular gap between extraction depths n and n-1 below which a bundle counts
#: as converged
SPLITTING_TOL = 1e-8
#: relative rounding allowance below the growth sandwich's lower bound
SANDWICH_RTOL = 1e-12
BUNDLES = ("uu", "cu", "cs", "ss")  #: extract_splitting's bundles, in its rows' order


@dataclass(frozen=True)
class ConeField:
    """Cone of width ``width`` around span(core) with transverse span(complement)."""

    name: str
    core: np.ndarray
    complement: np.ndarray
    width: float

    def __post_init__(self):
        core = np.atleast_2d(np.asarray(self.core, dtype=float).T).T
        comp = np.atleast_2d(np.asarray(self.complement, dtype=float).T).T
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "complement", comp)
        basis = np.hstack([core, comp])
        if np.linalg.matrix_rank(basis) < basis.shape[1]:
            raise ValueError("core and complement must be transverse")
        object.__setattr__(self, "_basis", basis)
        object.__setattr__(self, "_pinv", np.linalg.pinv(basis))

    @property
    def core_dim(self):
        return self.core.shape[1]

    def decompose(self, v):
        """Split v (last axis = ambient dim) into (complement part, core part)."""
        v = np.asarray(v, dtype=float)
        coeffs = v @ self._pinv.T
        span_err = np.max(np.abs(v - coeffs @ self._basis.T))
        if span_err > 1e-9 * max(1.0, np.max(np.abs(v))):
            raise ValueError("vector lies outside span(core) + span(complement)")
        k2 = self.core_dim
        v2 = coeffs[..., :k2] @ self.core.T
        v1 = coeffs[..., k2:] @ self.complement.T
        return v1, v2

    def ratio(self, v):
        """||v1|| / ||v2||; inf when the core part vanishes."""
        v1, v2 = self.decompose(v)
        n1 = np.linalg.norm(v1, axis=-1)
        n2 = np.linalg.norm(v2, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(n2 > 0, n1 / np.where(n2 > 0, n2, 1.0), np.inf)
        return r

    def contains(self, v):
        """(membership, ratio); the boundary counts as inside, and a 1e-12
        floor keeps exact core vectors inside even at width zero."""
        r = self.ratio(v)
        return r <= self.width + 1e-12, r

    def sample(self, rng, n):
        """n cone vectors v2 + rho v1, v2 and v1 from random unit coefficients
        on the core and complement columns, rho uniform in the boundary band
        [width/2, width], where invariance failures would show first.
        """
        c2 = rng.standard_normal((n, self.core_dim))
        c2 /= np.linalg.norm(c2, axis=1, keepdims=True)
        v2 = c2 @ self.core.T
        k1 = self.complement.shape[1]
        c1 = rng.standard_normal((n, k1))
        c1 /= np.linalg.norm(c1, axis=1, keepdims=True)
        v1 = c1 @ self.complement.T
        rho = rng.uniform(self.width / 2.0, self.width, size=n)
        return v2 + rho[:, None] * v1


@dataclass(frozen=True)
class InvarianceReport:
    """Sampled evidence for cone invariance and in-cone growth."""

    cone: str
    direction: str
    theta: float
    growth_gamma: float
    samples: int
    worst_violation: float
    witness_point: np.ndarray
    witness_ratio: float


def verify_invariance(system, cone: ConeField, direction: str = "forward",
                      n_points: int = 200, n_vectors: int = 8, rng=None) -> InvarianceReport:
    """Sample points and cone vectors, apply Df (or Df^-1), re-test membership.

    theta is the tightest uniform ratio-contraction factor that passes on the
    samples; growth_gamma the minimal single-step growth inside the cone.
    All n_points * n_vectors vectors come from one cone.sample call, in
    point-major order, and every reduction runs over the whole batch.
    """
    if n_points < 1 or n_vectors < 1:
        raise ValueError("sample counts must be >= 1")
    if cone.width <= 0:
        raise ValueError(f"cone width must be positive, got {cone.width}")
    if rng is None:
        rng = np.random.default_rng(0)
    pts = rng.random((n_points, system.dim))
    if direction == "forward":
        jacs = system.jacobian(pts)
    elif direction == "backward":
        jacs = system.jacobian_inverse(pts)
    else:
        raise ValueError(f"direction must be forward or backward, got {direction!r}")
    vs = cone.sample(rng, n_points * n_vectors).reshape(n_points, n_vectors, -1)
    imgs = vs @ jacs.transpose(0, 2, 1)
    post = cone.ratio(imgs)
    growth = np.linalg.norm(imgs, axis=-1) / np.linalg.norm(vs, axis=-1)
    quot = post / cone.ratio(vs)
    # the first maximum in C order: a point-by-point scan keeping strict improvements
    k = int(np.argmax(quot))
    theta = float(quot.flat[k])
    witness = pts[k // n_vectors]
    worst_ratio = float(post.flat[k])
    gamma = float(np.min(growth))
    violation = max(0.0, worst_ratio / cone.width - 1.0)
    return InvarianceReport(cone=cone.name, direction=direction, theta=theta,
                            growth_gamma=gamma, samples=quot.size, worst_violation=violation,
                            witness_point=witness, witness_ratio=worst_ratio)


def plane_invariance_residual(system, n_points: int = 200, rng=None) -> float:
    """Max leakage of the (u, s) coordinate plane into (uu, ss) under Df.

    Exactly zero for the deformed construction: the chart Jacobian rows for
    the uu and ss coordinates carry no u or s entries.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    pts = rng.random((n_points, system.dim))
    jacs = system.jacobian_chart(pts)
    return float(np.max(np.abs(jacs[:, 0:2, 2:4])))


def standard_cones(system):
    """The four cone fields of the deformed construction, keyed by name, all
    of the width eps0 that the truncation sharpness k is driven against.

    With the exact (u, s)-plane invariance (plane_invariance_residual) they
    make the five cone conditions.  Axes come from the chart eigenbasis:
    columns (uu, ss, u, s).
    """
    ax = system.chart_p.axes
    e_uu, e_ss, e_u, e_s = ax[:, 0], ax[:, 1], ax[:, 2], ax[:, 3]
    eps = system.params.eps0
    return {
        "uu-forward": ConeField("uu-forward", e_uu, np.column_stack([e_u, e_s, e_ss]), eps),
        "ss-backward": ConeField("ss-backward", e_ss, np.column_stack([e_uu, e_u, e_s]), eps),
        "center-u": ConeField("center-u", e_u, e_s, eps),
        "center-s": ConeField("center-s", e_s, e_u, eps),
    }


@dataclass
class SplittingEstimate:
    """Extracted bundle directions at a point with convergence diagnostics."""

    point: np.ndarray
    directions: dict
    residuals: dict
    n_iter: int
    converged: bool
    tolerance: float = SPLITTING_TOL


def _aligned_residual(v, w):
    s = np.sign(np.dot(v, w))
    s = 1.0 if s == 0 else s
    d = v - s * w
    return math.sqrt(d.dot(d))


def extract_splitting(system, x, n_iter: int = 60, shifts=None):
    """Power-iterate cone directions along the orbit of x.

    uu: push a seed from f^{-n}(x) forward.  cu: same inside the invariant
    (u, s) plane.  ss and cs: pull seeds back from f^{n}(x).  The residual of
    each bundle is the angular gap between extraction depths n and n-1; one
    of SPLITTING_TOL or more flags the estimate as not converged (no error).

    With ``shifts``, integers s, it returns the list of estimates at the
    points f^s(x), in that order, from one walk of x's orbit: n - min(shifts)
    backward advance steps and n + max(shifts) forward ones, their chart
    Jacobians inverted by one chart_inverse.  Without, it returns the estimate
    at x.  All pushes run as one stacked loop of one-row matmuls (products and
    norms), so each row has the bits of its own one-point push.
    """
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    single = shifts is None
    shifts = [0] if single else [require_int("shifts", s) for s in shifts]
    lo, hi = min(shifts, default=0), max(shifts, default=0)
    x = np.asarray(x, dtype=float)
    back = max(n_iter - lo, 0)
    # points[back + j] is f^j(x) and jacs[back + j] Df(f^j x), from backward
    # advance for j < 0, then (the backward lists reversed) forward for j >= 0
    points, jacs = [x], []
    for forward, steps in ((False, back), (True, max(n_iter + hi, 0))):
        points.reverse()
        jacs.reverse()
        y = x
        for _ in range(steps):
            y, jac = system.advance(y, forward=forward)
            points.append(y)
            jacs.append(jac)
    jacs = np.array(jacs)
    inv = chart_inverse(jacs[back + lo:])  # inv[j - lo] is Df(f^j x)^-1

    # cu and cs live in the exactly invariant (u, s) plane.  The chart
    # Jacobians' uu and ss rows vanish off the diagonal, and so do their
    # closed-form inverses' (uu, ss) x (u, s) corners, so both keep exact zeros.
    pool = np.concatenate([jacs, inv, np.eye(4)[None]])
    # one row per bundle (uu, cu, cs, ss) and shift s: uu and cu through
    # Df(f^{s-n} x) ... Df(f^{s-1} x), ss and cs back through the inverses of
    # Df(f^{s+n-1} x) ... Df(f^s x); then the same rows at depth n - 1, whose
    # first step is the identity, exact on the unit seeds
    t, col = np.arange(n_iter), np.array(shifts, dtype=int)[:, None]
    up = back - n_iter + col + t
    down = len(jacs) - lo + n_iter - 1 + col - t
    rows = np.tile(np.concatenate([up, up, down, down]), (2, 1))
    rows[len(rows) // 2:, 0] = len(pool) - 1
    v = np.tile(np.repeat(np.eye(4)[[0, 2, 3, 1]], len(shifts), axis=0), (2, 1))[..., None]
    for step in rows.T:
        v = np.matmul(pool[step], v)
        v /= np.sqrt(np.matmul(v.transpose(0, 2, 1), v))
    v = v[..., 0].reshape(2, 4, len(shifts), 4)

    ax, estimates = system.chart_p.axes, []
    for k, s in enumerate(shifts):
        res = {name: _aligned_residual(v[0, b, k], v[1, b, k]) for b, name in enumerate(BUNDLES)}
        estimates.append(SplittingEstimate(
            points[back + s], {name: ax @ v[0, b, k] for b, name in enumerate(BUNDLES)}, res,
            n_iter, all(r < SPLITTING_TOL for r in res.values())))
    return estimates[0] if single else estimates


def growth_sandwich_check(system, x, v, n: int, cone: ConeField, rate: float):
    """(lower, value, upper) for the in-cone growth sandwich over n steps.

    lower = rate^n * ||core part of v||, value = ||Df^n v||, and
    upper = sqrt(width^2 + 1) * lower.  Requires v inside the cone with a
    nonzero core part; the exact per-step core rate is supplied by the caller
    (luu for the deformed map over its first factor, the base unstable rate
    for products).  The lower bound is attained in the limit, so rounding in
    the per-step logs can put value up to SANDWICH_RTOL (relative) below it.
    """
    v = np.asarray(v, dtype=float)
    inside, ratio = cone.contains(v)
    if not inside or not np.isfinite(ratio):
        raise ValueError(f"vector outside the tested cone (ratio {ratio})")
    _, v2 = cone.decompose(v)
    core_norm = np.linalg.norm(v2)
    if core_norm == 0:
        raise ValueError("core component vanishes; sandwich undefined")
    _, logs = push_forward(system, x, v, n)
    value = np.exp(np.sum(logs)) * np.linalg.norm(v)
    lower = rate**n * core_norm
    upper = np.sqrt(cone.width**2 + 1.0) * lower
    return lower, value, upper
