"""Cone fields, invariance verification, and numerical bundle extraction.

A cone of width eps around a core subspace G2 with complement G1 is the set
of vectors v = v1 + v2 (v1 in G1, v2 in G2) with ||v1|| <= eps ||v2||.
Verification is sampled: random points, random cone vectors near the cone
boundary, one derivative application, and a re-test of membership.  The
reported theta is the worst post/pre ratio quotient; gamma the worst single
step growth inside the cone.  Violations are data, never exceptions.

Bundle directions are extracted by power iteration along orbits: strong
bundles from generic seeds, center bundles inside the exactly invariant
(u, s) coordinate 2-plane of the deformed systems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ergodic import push_forward

BUNDLE_ORDER = ("uu", "cu", "cs", "ss")
#: relative rounding allowance below the growth sandwich's lower bound
SANDWICH_RTOL = 1e-12


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

    def sample(self, rng, n, ratio_low=None, ratio_high=None):
        """n unit-ish cone vectors with ratios uniform in [low, high].

        Defaults to the boundary band [width/2, width], where invariance
        failures would show first.
        """
        lo = self.width / 2.0 if ratio_low is None else ratio_low
        hi = self.width if ratio_high is None else ratio_high
        c2 = rng.standard_normal((n, self.core_dim))
        c2 /= np.linalg.norm(c2, axis=1, keepdims=True)
        v2 = c2 @ self.core.T
        k1 = self.complement.shape[1]
        c1 = rng.standard_normal((n, k1))
        c1 /= np.linalg.norm(c1, axis=1, keepdims=True)
        v1 = c1 @ self.complement.T
        rho = rng.uniform(lo, hi, size=n)
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

    @property
    def forward_invariant(self) -> bool:
        return self.theta < 1.0

    @property
    def unstable(self) -> bool:
        return self.forward_invariant and self.growth_gamma > 1.0


def verify_invariance(system, cone: ConeField, direction: str = "forward",
                      n_points: int = 200, n_vectors: int = 8, rng=None) -> InvarianceReport:
    """Sample points and cone vectors, apply Df (or Df^-1), re-test membership.

    theta is the tightest uniform ratio-contraction factor that passes on the
    samples; growth_gamma the minimal single-step growth inside the cone.
    """
    if n_points < 1 or n_vectors < 1:
        raise ValueError("sample counts must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    pts = rng.random((n_points, system.dim))
    if direction == "forward":
        jacs = system.jacobian(pts)
    elif direction == "backward":
        jacs = system.jacobian_inverse(pts)
    else:
        raise ValueError(f"direction must be forward or backward, got {direction!r}")
    theta = 0.0
    gamma = np.inf
    worst_ratio = 0.0
    witness = pts[0]
    total = 0
    for i in range(n_points):
        vs = cone.sample(rng, n_vectors)
        pre = cone.ratio(vs)
        imgs = vs @ jacs[i].T
        post = cone.ratio(imgs)
        growth = np.linalg.norm(imgs, axis=1) / np.linalg.norm(vs, axis=1)
        quot = post / pre
        j = int(np.argmax(quot))
        if quot[j] > theta:
            theta = float(quot[j])
            witness = pts[i]
            worst_ratio = float(post[j])
        gamma = min(gamma, float(np.min(growth)))
        total += len(vs)
    violation = max(0.0, worst_ratio / cone.width - 1.0)
    return InvarianceReport(
        cone=cone.name,
        direction=direction,
        theta=theta,
        growth_gamma=gamma,
        samples=total,
        worst_violation=violation,
        witness_point=witness,
        witness_ratio=worst_ratio,
    )


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


def standard_cones(system, eps0: float | None = None):
    """The five cone conditions of the deformed construction, keyed by name.

    Axes come from the chart eigenbasis: columns (uu, ss, u, s).
    """
    ax = system.chart_p.axes
    e_uu, e_ss, e_u, e_s = ax[:, 0], ax[:, 1], ax[:, 2], ax[:, 3]
    eps = system.params.eps0 if eps0 is None else eps0
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
    tolerance: float = 1e-8

    def direction_matrix(self):
        return np.column_stack([self.directions[b] for b in BUNDLE_ORDER])


def _push_pair(mats, seed):
    """Push ``seed`` through mats[0], mats[1], ... and through mats[1:], both
    normalized; returns (deep direction, shallow direction) for the residual."""
    v = seed / np.linalg.norm(seed)
    w = None
    for idx, m in enumerate(mats):
        v = m @ v
        v /= np.linalg.norm(v)
        if idx == 0:
            w = seed / np.linalg.norm(seed)
        else:
            w = m @ w
            w /= np.linalg.norm(w)
    return v, w


def _aligned_residual(v, w):
    s = np.sign(np.dot(v, w))
    s = 1.0 if s == 0 else s
    return float(np.linalg.norm(v - s * w))


def extract_splitting(system, x, n_iter: int = 60, tolerance: float = 1e-8) -> SplittingEstimate:
    """Power-iterate cone directions along the orbit of x.

    uu: push a seed from f^{-n}(x) forward.  cu: same inside the invariant
    (u, s) plane.  ss and cs: pull seeds back from f^{n}(x).  The residual of
    each bundle is the angular gap between extraction depths n and n-1; a
    residual above tolerance flags the estimate as not converged (no error).
    """
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    x = np.asarray(x, dtype=float)
    ax = system.chart_p.axes

    back = [x]
    for _ in range(n_iter):
        back.append(system.step_inverse(back[-1]))
    fwd = [x]
    for _ in range(n_iter):
        fwd.append(system.step(fwd[-1]))

    # chart-basis Jacobians along the backward orbit, ordered to push toward x
    jac_fwd = [system.jacobian_chart(back[j]) for j in range(n_iter, 0, -1)]
    # inverses pulling back from f^n(x) toward x
    jac_bwd = [np.linalg.inv(system.jacobian_chart(fwd[j - 1])) for j in range(n_iter, 0, -1)]

    e = np.eye(4)
    v_uu, w_uu = _push_pair(jac_fwd, e[0])
    v_ss, w_ss = _push_pair(jac_bwd, e[1])
    plane_fwd = [m[2:4, 2:4] for m in jac_fwd]
    plane_bwd = [m[2:4, 2:4] for m in jac_bwd]
    v_cu2, w_cu2 = _push_pair(plane_fwd, np.array([1.0, 0.0]))
    v_cs2, w_cs2 = _push_pair(plane_bwd, np.array([0.0, 1.0]))
    v_cu = np.concatenate([[0.0, 0.0], v_cu2])
    w_cu = np.concatenate([[0.0, 0.0], w_cu2])
    v_cs = np.concatenate([[0.0, 0.0], v_cs2])
    w_cs = np.concatenate([[0.0, 0.0], w_cs2])

    directions = {}
    residuals = {}
    for name, v, w in [
        ("uu", v_uu, w_uu),
        ("cu", v_cu, w_cu),
        ("cs", v_cs, w_cs),
        ("ss", v_ss, w_ss),
    ]:
        residuals[name] = _aligned_residual(v, w)
        directions[name] = ax @ v  # back to ambient coordinates
    converged = all(r < tolerance for r in residuals.values())
    return SplittingEstimate(
        point=x,
        directions=directions,
        residuals=residuals,
        n_iter=n_iter,
        converged=converged,
        tolerance=tolerance,
    )


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
