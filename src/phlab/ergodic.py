"""Lyapunov exponents, Birkhoff averages, Pesin-block tests, growth identities.

Spectra use the QR (Benettin) scheme with re-orthonormalization every step,
and add up log|det Df| along the same steps.  Bundle exponents follow a single
direction in the chart eigenbasis, where the Jacobian is block triangular over
the exactly invariant (u, s) plane: forward propagation for the expanding
bundles (uu, and cu inside the center plane), backward propagation for the
contracting ones (cs inside the plane, and ss).  The top rate of the
contracting 2-plane cs + ss is therefore the cs rate.  Seeds start on the
linear eigen-axes and converge along the orbit; a transient prefix is
discarded.  One batched loop serves every bundle; a single orbit is a batch of
one.  Each of its steps is one ``system.advance`` call, which returns the next
point and the chart Jacobian block the bundle needs, (u, s) for cu and cs,
the full 4x4 for uu and ss, at that step's base point.

All orbit statistics carry a convergence flag: the last-quarter mean must sit
within three standard errors of the full mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhlabError


class OrbitDivergedError(PhlabError):
    """Non-finite values appeared along an orbit (signals a bug on a torus)."""


@dataclass(frozen=True)
class OrbitSpec:
    """Start point (None draws uniformly from the seed), length, burn-in."""

    start: object = None
    length: int = 10_000
    transient: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.length <= self.transient:
            raise ValueError("orbit length must exceed the transient")

    def resolve_start(self, dim):
        if self.start is not None:
            return np.asarray(self.start, dtype=float)
        return make_rng(self.seed).random(dim)


def make_rng(seed, worker: int = 0):
    """Counter-based generator; (seed, worker) keys independent streams."""
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, worker], dtype=np.uint64))
    )


@dataclass
class LyapunovSpectrum:
    """Exponents sorted descending, a running-estimate history, and the
    Birkhoff average of log|det Df| over the same steps."""

    exponents: np.ndarray
    history: np.ndarray  # rows (step, est_1, ..., est_d)
    log_det: float
    length: int
    transient: int
    start: np.ndarray

    @property
    def total(self) -> float:
        return float(np.sum(self.exponents))


def _qr_step(jacs, frames):
    z = jacs @ frames
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    sign = np.where(diag < 0, -1.0, 1.0)
    q = q * sign[..., None, :]
    return q, np.abs(diag)


def lyapunov_spectrum(system, orbit: OrbitSpec, frame0=None) -> LyapunovSpectrum:
    """Full Benettin spectrum along one orbit, re-orthonormalizing every step.

    A frame warm-up of min(200, half the kept steps) spins the orthonormal
    frame onto the Oseledets flag before accumulation starts; without it the
    estimates carry a seed-dependent O(1/n) offset even for constant
    Jacobians.  The history keeps the running estimates every
    max(1, steps // 200) steps and at the last step.  ``frame0`` replaces the
    identity as the initial orthonormal frame.
    """
    d = system.dim
    x = orbit.resolve_start(d)
    for _ in range(orbit.transient):
        x = system.step(x)
    frame = np.eye(d) if frame0 is None else np.asarray(frame0, dtype=float).copy()
    warmup = min(200, (orbit.length - orbit.transient) // 2)
    for _ in range(warmup):
        frame, _ = _qr_step(system.jacobian(x), frame)
        x = system.step(x)
    sums = np.zeros(d)
    log_det = 0.0
    steps = orbit.length - orbit.transient - warmup  # >= 1 as length > transient
    stride = max(1, steps // 200)
    history = []
    for t in range(1, steps + 1):
        jac = system.jacobian(x)
        frame, growth = _qr_step(jac, frame)
        sums += np.log(growth)
        log_det += np.log(np.abs(np.linalg.det(jac)))
        x = system.step(x)
        if t % stride == 0 or t == steps:
            history.append((t, *(sums / t)))
    if not np.all(np.isfinite(sums)):
        raise OrbitDivergedError("non-finite Lyapunov sums; the map left the torus?")
    return LyapunovSpectrum(
        exponents=np.sort(sums / steps)[::-1],
        history=np.array(history),
        log_det=log_det / steps,
        length=orbit.length,
        transient=orbit.transient,
        start=orbit.resolve_start(d),
    )


@dataclass
class RunningAverage:
    """Birkhoff value with the last-quarter convergence flag."""

    value: float
    converged: bool


class _Tally:
    """Streaming per-orbit mean over steps t >= transient, with the flag.

    converged: the mean of the last quarter of the kept steps lies within
    three (i.i.d.) standard errors of the full mean, plus a rounding floor.
    """

    def __init__(self, n, length, transient):
        if length <= transient:
            raise ValueError("orbit length must exceed the transient")
        self.transient = transient
        self.q_start = transient + 3 * (length - transient) // 4
        self.total = np.zeros(n)
        self.q_sum = np.zeros(n)
        self.q_sq = np.zeros(n)
        self.kept = 0
        self.q_kept = 0

    def add(self, t, vals):
        if t < self.transient:
            return
        self.total += vals
        self.kept += 1
        if t >= self.q_start:
            self.q_sum += vals
            self.q_sq += vals * vals
            self.q_kept += 1

    def result(self):
        mean = self.total / self.kept
        q_mean = self.q_sum / self.q_kept
        q_var = np.maximum(self.q_sq / self.q_kept - q_mean**2, 0.0)
        se = np.sqrt(q_var / self.q_kept)
        floor = 1e-9 * (1.0 + np.abs(mean))  # absorbs pure rounding jitter
        return mean, np.abs(q_mean - mean) <= 3.0 * se + floor


def birkhoff_average(system, orbit: OrbitSpec, observable) -> RunningAverage:
    """Cesaro average of a bounded observable along the orbit, after burn-in."""
    tally = _Tally(1, orbit.length, orbit.transient)
    x = orbit.resolve_start(system.dim)
    for t in range(orbit.length):
        if t >= orbit.transient:
            tally.add(t, observable(x))
        x = system.step(x)
    mean, converged = tally.result()
    return RunningAverage(value=float(mean[0]), converged=bool(converged[0]))


# -- single-direction bundle exponents ---------------------------------------

_SEED_AXIS = {"uu": 0, "ss": 1, "cu": 2, "cs": 3}
_PLANE = slice(2, 4)


def bundle_exponent_batch(system, starts, length: int, transient: int, bundle: str):
    """Birkhoff averages of log ||Df restricted to one bundle||, many orbits at once.

    Forward bundles (uu, cu) propagate a seed along the forward orbit; the
    contracting ones (cs, ss) along the backward orbit, with the sign flipped
    so the value always refers to forward time.  "cs_ss", the top rate of the
    contracting 2-plane, is the cs rate (see the module docstring).  Returns
    (values, converged flags), one per row of ``starts``.
    """
    if bundle == "cs_ss":
        bundle = "cs"
    if bundle not in _SEED_AXIS:
        raise ValueError(f"unknown bundle {bundle!r}")
    x = np.atleast_2d(np.asarray(starts, dtype=float)).copy()
    tally = _Tally(x.shape[0], length, transient)
    forward = bundle in ("uu", "cu")
    full = bundle in ("uu", "ss")
    seed = np.zeros(4)
    seed[_SEED_AXIS[bundle]] = 1.0
    vs = np.tile(seed if full else seed[_PLANE], (x.shape[0], 1))
    for t in range(length):
        x, m = system.advance(x, forward, full)
        if forward:
            w = np.einsum("nij,nj->ni", m, vs)
        else:
            w = np.linalg.solve(m, vs[:, :, None])[:, :, 0]
        g = np.sqrt(np.add.reduce(w * w, axis=1))  # np.linalg.norm(w, axis=1), undispatched
        tally.add(t, np.log(g) if forward else -np.log(g))
        vs = w / g[:, None]
    return tally.result()


def bundle_exponent(system, orbit: OrbitSpec, bundle: str) -> RunningAverage:
    """bundle_exponent_batch on the single orbit ``orbit``."""
    mean, converged = bundle_exponent_batch(
        system, orbit.resolve_start(system.dim)[None, :], orbit.length, orbit.transient,
        bundle)
    return RunningAverage(value=float(mean[0]), converged=bool(converged[0]))


def push_forward(system, x, v, n: int):
    """Propagate the direction of v for n steps from x along Df, renormalizing.

    Returns (unit image direction, per-step log growths); the log growths add
    up to log ||Df^n u|| for the unit vector u = v / ||v||.
    """
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    logs = np.empty(n)
    for t in range(n):
        w = system.jacobian(x) @ v
        g = math.sqrt(w.dot(w))  # np.linalg.norm(w), undispatched
        logs[t] = math.log(g)
        v = w / g
        x = system.step(x)
    return v, logs


# -- Pesin blocks --------------------------------------------------------------


@dataclass(frozen=True)
class PesinBlockQuery:
    """Finite-horizon membership test parameters; alpha must be positive."""

    alpha: float
    l: int
    horizon: int

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.l < 1 or self.horizon < 1:
            raise ValueError("l and horizon must be >= 1")


def orbit_jacobian(system, x, n: int, forward: bool):
    """The Df product along n steps from x, with the endpoint.

    Forward it is Df^n(x) = Df(f^{n-1} x) ... Df(x) with f^n(x), from
    jacobian and step; backward Df^{-n}(x) with f^{-n}(x), from
    jacobian_inverse and step_inverse.
    """
    if forward:
        jacobian, step = system.jacobian, system.step
    else:
        jacobian, step = system.jacobian_inverse, system.step_inverse
    m, y = np.eye(np.size(x)), x
    for _ in range(n):
        m = jacobian(y) @ m
        y = step(y)
    return m, y


def pesin_block_membership(system, x, query: PesinBlockQuery):
    """Finite-horizon Pesin block test at x.

    Checks, for every n up to the horizon, the two cumulative inequalities:
    contraction of the (cs+ss) plane under Df^l along the forward orbit, and
    contraction of the (uu+cu) plane under Df^{-l} along the backward orbit.
    Each plane comes from extract_splitting (40 iterations) at the orbit
    point, and each Df^{+-l} from orbit_jacobian.  Returns (member,
    first_failure_n) with first_failure_n = None on success; failing at some
    n rules out membership for every larger horizon.
    """
    from .cones import extract_splitting

    x = np.asarray(x, dtype=float)
    log_bound = -query.alpha * query.l
    for bundles, forward in ((("cs", "ss"), True), (("uu", "cu"), False)):
        log_prod = 0.0
        y = x
        for i in range(query.horizon):
            est = extract_splitting(system, y, n_iter=40)
            basis = np.column_stack([est.directions[b] for b in bundles])
            m, y = orbit_jacobian(system, y, query.l, forward)
            log_prod += math.log(np.linalg.norm(m @ basis, ord=2))
            if log_prod > (i + 1) * log_bound + 1e-12:
                return False, i + 1
    return True, None


# -- unstable volume identity ---------------------------------------------------


def entropy_volume_identity(system, orbit: OrbitSpec, seed=None):
    """Birkhoff estimate of log|det Df| along the 1-d skew-unstable bundle.

    For a product with linear base the bundle is the exact base-unstable axis
    and the estimate matches log(rate) to rounding; for the deformed map the
    bundle is the strong-unstable direction of the skew structure over the
    first factor.  Returns (estimate, log_rate, gap).  A seed without a
    component along the skew-unstable axis is rejected.
    """
    axis, rate = system.skew_unstable_bundle()
    if seed is None:
        seed = axis
    seed = np.asarray(seed, dtype=float)
    if abs(float(seed @ axis)) < 1e-12:
        raise ValueError("seed has no component along the skew-unstable axis")
    _, logs = push_forward(system, orbit.resolve_start(system.dim), seed, orbit.length)
    estimate = float(np.mean(logs[orbit.transient :]))
    log_rate = math.log(rate)
    return estimate, log_rate, abs(estimate - log_rate)
