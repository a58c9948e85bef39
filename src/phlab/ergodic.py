"""Lyapunov exponents, Birkhoff averages, Pesin-block tests, growth identities.

A system of T^4 with an ``advance`` (the deformed map, a linear map) has a
block lower-triangular chart Jacobian: the uu and ss rows are exactly
diagonal and the (u, s) plane is exactly invariant.  So its spectrum is
{log luu, log lss} and that of the center cocycle B (Barreira & Pesin 2007),
the (u, s) block of the 4x4 chart Df that one forward pass of
``system.advance`` gives, as a closed-form 2x2 QR: with w = B v, g = |w|
and v renormalized to w / g each step, the log R diagonals are log g, whose
average is the cu exponent, and log|det B| - log g, whose average is the
derived cs exponent, the top rate of the contracting plane cs + ss.  The
seed starts on the u axis; a transient prefix is discarded.  Any other
system (a ProductSystem, a map of T^2) takes the QR (Benettin) scheme on the
full Df from system.jacobians(x), as push_forward does.  The repeat rule: a
step is a pure function of its state, so once one maps its state to its own
bits, every later step repeats its output, taken without stepping.  The
state is the frame under a linear map's one read-only Df (_benettin,
push_forward) or the orbit point and frame column (_point_cocycle), so an
orbit on a float fixed point such as p costs one step.

A single orbit (bundle_exponent, a one-row bundle_exponent_batch, and the
2x2 path of lyapunov_spectrum) runs on the system's one-row kernel
advance_point: the QR (_point_cocycle) and the last-quarter tally
(_PointTally) are the batch code's operations in its order on Python floats,
so the same bits; only the two logs stay np.log, since math.log rounds
differently.  Two or more rows take _center_cocycle and _Tally.

Every orbit average carries a convergence flag: the mean of the last quarter
of its per-step series (log|det B_t| - log g_t for the derived cs) must sit
within three standard errors of the full mean.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import PhlabError


class OrbitDivergedError(PhlabError):
    """Non-finite values appeared along an orbit (signals a bug on a torus)."""


@dataclass(frozen=True)
class OrbitSpec:
    """Start point (None draws uniformly from the seed; a NaN or infinite
    coordinate raises OrbitDivergedError), length, burn-in."""

    start: object = None
    length: int = 10_000
    transient: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.length <= self.transient:
            raise ValueError("orbit length must exceed the transient")

    def resolve_start(self, dim):
        if self.start is not None:
            return _finite_starts(np.asarray(self.start, dtype=float))
        return make_rng(self.seed).random(dim)


def _finite_starts(x):
    """x, one start (d,) or rows of starts (N, d), refused if a coordinate is
    NaN or infinite: such a row screens into no cube, so its orbit would
    report the exponents of A, flagged converged."""
    rows = np.atleast_2d(x)
    bad = np.nonzero(~np.isfinite(rows).all(axis=1))[0]
    if bad.size:
        raise OrbitDivergedError(f"orbit start {rows[bad[0]]} (row {bad[0]}) is not finite")
    return x


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

    @property
    def total(self) -> float:
        return float(np.sum(self.exponents))


def _benettin(jacs, frame):
    """QR steps of the Df of jacs from frame: yields the log R diagonals (a list
    of floats) and log|det Df| of each step, under the repeat rule."""
    last = key = out = None
    for jac in jacs:
        if (new := frame.tobytes()) != key or jac is not last or jac.flags.writeable:
            q, r = np.linalg.qr(jac @ frame)
            diag = np.diagonal(r)
            frame = q * np.where(diag < 0, -1.0, 1.0)
            out = np.log(np.abs(diag)).tolist(), np.log(np.abs(np.linalg.det(jac)))
            last, key = jac, new
        yield out


def _center_cocycle(system, x, v):
    """The closed-form 2x2 QR of the center cocycle B = Df[2:4, 2:4] along
    the forward orbits of the rows of x (N, 4), from frames with first
    columns v (N, 2): yields per step the log R diagonals as a (2, N) array,
    refilled at the next step, and log|det B|.  w = B v is formed in
    np.einsum("nij,nj->ni")'s order: log g has its bits and np.linalg.norm's."""
    v0, v1 = v[:, 0], v[:, 1]
    logs = np.empty((2, len(v)))
    log_g, log_cs = logs
    while True:
        x, b = system.advance(x)
        b00, b01, b10, b11 = b[:, 2, 2], b[:, 2, 3], b[:, 3, 2], b[:, 3, 3]
        w0 = b00 * v0 + b01 * v1
        w1 = b10 * v0 + b11 * v1
        g = np.sqrt(w0 * w0 + w1 * w1)
        v0, v1 = w0 / g, w1 / g
        np.log(g, out=log_g)
        log_det = np.log(np.abs(b00 * b11 - b01 * b10))
        np.subtract(log_det, log_g, out=log_cs)
        yield logs, log_det


def _point_cocycle(system, x, v):
    """_center_cocycle on one orbit, from the point x (a list of floats) and
    the first frame column v (two floats), on system.advance_point, a pure
    function of its point, in Python floats with the same bits.  Yields per
    step the log R diagonals as a pair of floats and log|det B|, under the
    repeat rule: the state's values are compared first, which a moving orbit
    fails at once, then its reprs (shortest round-trip), which tell -0.0 from 0.0."""
    v0, v1 = v
    while True:
        y, (_, _, (_, _, b00, b01), (_, _, b10, b11)) = system.advance_point(x)
        w0 = b00 * v0 + b01 * v1
        w1 = b10 * v0 + b11 * v1
        g = math.sqrt(w0 * w0 + w1 * w1)
        u0, u1 = w0 / g, w1 / g
        log_g = float(np.log(g))
        log_det = float(np.log(abs(b00 * b11 - b01 * b10)))
        out = (log_g, log_det - log_g), log_det
        if y == x and (u0, u1) == (v0, v1) and repr((y, u0, u1)) == repr((x, v0, v1)):
            yield from itertools.repeat(out)
        yield out
        x, v0, v1 = y, u0, u1


def lyapunov_spectrum(system, orbit: OrbitSpec, frame0=None) -> LyapunovSpectrum:
    """Full spectrum along one orbit, by QR with re-orthonormalization every step.

    On T^4 with an ``advance``: log luu, log lss and _point_cocycle's 2x2 QR,
    with log_det = log luu + log lss + the average of log|det B|; otherwise
    the Benettin QR of Df, with the average of log|det Df|.  A frame warm-up of
    min(200, half the kept steps) spins the frame onto the Oseledets flag
    before accumulation starts; without it the estimates carry a
    seed-dependent O(1/n) offset even for constant Jacobians.  The history
    keeps the running estimates (luu, lss, cu, cs on the 2x2 path) every
    max(1, steps // 200) steps and at the last.  ``frame0`` replaces the
    identity as the initial orthonormal frame, 2x2 on the 2x2 path.  The
    sums are Python floats, added as numpy would add them.
    """
    x = orbit.resolve_start(system.dim)
    for _ in range(orbit.transient):
        x = system.step(x)
    block = system.dim == 4 and hasattr(system, "advance")
    frame = np.eye(2 if block else system.dim) if frame0 is None else np.asarray(frame0, float)
    if block:
        fixed = np.log(system.rates[:2])
        logs = _point_cocycle(system, x.tolist(), frame[:, 0].tolist())
    else:
        fixed = np.zeros(0)
        logs = _benettin(system.jacobians(x), frame)
    warmup = min(200, (orbit.length - orbit.transient) // 2)
    for _ in range(warmup):
        next(logs)
    sums = [0.0] * len(frame)
    log_det = 0.0
    steps = orbit.length - orbit.transient - warmup  # >= 1 as length > transient
    stride = max(1, steps // 200)
    history = []
    for t in range(1, steps + 1):
        growth, det = next(logs)
        sums = [s + g for s, g in zip(sums, growth)]
        log_det += det
        if t % stride == 0 or t == steps:
            history.append((t, *fixed, *(s / t for s in sums)))
    if not np.all(np.isfinite(sums)):
        raise OrbitDivergedError("non-finite Lyapunov sums; the map left the torus?")
    return LyapunovSpectrum(
        exponents=np.sort(np.concatenate((fixed, np.array(sums) / steps)))[::-1],
        history=np.array(history),
        log_det=np.sum(fixed) + log_det / steps,
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


class _PointTally(_Tally):
    """_Tally on one orbit's pair of series, shape (2, 1): the sums are Python
    floats, added in _Tally.add's order, so result() has the same bits."""

    def __init__(self, length, transient):
        super().__init__((2, 1), length, transient)
        self.sums = [0.0] * 6  # total, q_sum, q_sq for each series

    def add(self, t, vals):
        if t < self.transient:
            return
        a, b = vals
        s = self.sums
        s[0] += a
        s[1] += b
        self.kept += 1
        if t >= self.q_start:
            s[2] += a
            s[3] += b
            s[4] += a * a
            s[5] += b * b
            self.q_kept += 1

    def result(self):
        self.total, self.q_sum, self.q_sq = np.array(self.sums).reshape(3, 2, 1)
        return super().result()


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


# -- center bundle exponents ---------------------------------------------------


def bundle_exponent_batch(system, starts, length: int, transient: int):
    """The cu and cs exponents of many orbits at once, from one forward pass:
    the averages over steps t >= transient of _center_cocycle's log R
    diagonals, from the u axis.  Returns (values, converged flags), each of
    shape (2, N): row 0 cu, row 1 cs, one column per row of ``starts``.  A
    single row runs on Python floats (_point_cocycle, _PointTally), with the
    bits of the batch code.  A row with a NaN or infinite coordinate raises
    OrbitDivergedError.
    """
    x = _finite_starts(np.atleast_2d(np.asarray(starts, dtype=float)))
    if x.shape[0] == 1:
        tally = _PointTally(length, transient)
        logs = _point_cocycle(system, x[0].tolist(), (1.0, 0.0))
    else:
        tally = _Tally((2, x.shape[0]), length, transient)
        logs = _center_cocycle(system, x, np.tile((1.0, 0.0), (x.shape[0], 1)))
    for t, (vals, _) in zip(range(length), logs):
        tally.add(t, vals)
    return tally.result()


def bundle_exponent(system, orbit: OrbitSpec):
    """bundle_exponent_batch on the single orbit ``orbit``: (cu, cs) averages."""
    mean, converged = bundle_exponent_batch(
        system, orbit.resolve_start(system.dim)[None, :], orbit.length, orbit.transient)
    return tuple(RunningAverage(value=float(m), converged=bool(c))
                 for m, c in zip(mean[:, 0], converged[:, 0]))


def push_forward(system, x, v, n: int):
    """Propagate the direction of v for n steps from x along system.jacobians(x),
    renormalizing, under the repeat rule.  Returns (unit image direction,
    per-step log growths), which add up to log ||Df^n u|| for u = v / ||v||."""
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    logs, last = np.empty(n), None
    for t, jac in zip(range(n), system.jacobians(x)):
        w = jac @ v
        g = math.sqrt(w.dot(w))  # np.linalg.norm(w), undispatched
        logs[t] = math.log(g)
        w /= g
        if jac is last and not jac.flags.writeable and w.tobytes() == v.tobytes():
            logs[t:] = logs[t]
            break
        v, last = w, jac
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
        if require_int("l", self.l) < 1 or require_int("horizon", self.horizon) < 1:
            raise ValueError("l and horizon must be >= 1")


def require_int(name, value):
    """value; a ValueError naming ``name`` unless it is an integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def orbit_jacobian(system, x, n: int, forward: bool):
    """The Df product along n steps from x, with the endpoint.

    Forward it is Df^n(x) = Df(f^{n-1} x) ... Df(x) with f^n(x), from
    jacobian and step; backward Df^{-n}(x) with f^{-n}(x), from
    jacobian_inverse and step_inverse.  x is one point (d,) or a stack of
    points (N, d), whose products start from eye(d) broadcast to (N, d, d);
    one point takes the system's one-point path.
    """
    if forward:
        jacobian, step = system.jacobian, system.step
    else:
        jacobian, step = system.jacobian_inverse, system.step_inverse
    d = np.shape(x)[-1]
    m, y = np.broadcast_to(np.eye(d), np.shape(x)[:-1] + (d, d)), x
    for _ in range(n):
        m = jacobian(y) @ m
        y = step(y)
    return m, y


def pesin_block_membership(system, x, query: PesinBlockQuery):
    """Finite-horizon Pesin block test at x.

    Checks, for every n up to the horizon, the two cumulative inequalities:
    contraction of the (cs+ss) plane under Df^l along the forward orbit, and
    contraction of the (uu+cu) plane under Df^{-l} along the backward orbit.
    The planes at the orbit points f^{il}(x), |i| < horizon, come from one
    extract_splitting call (40 iterations, one walk of x's orbit), and each
    Df^{+-l} from orbit_jacobian, whose points are that walk's.  Returns
    (member, first_failure_n) with first_failure_n = None on success; failing
    at some n rules out membership for every larger horizon.
    """
    from .cones import extract_splitting

    x = np.asarray(x, dtype=float)
    l, horizon = query.l, query.horizon
    shifts = range(-(horizon - 1) * l, horizon * l, l)
    planes = dict(zip(shifts, extract_splitting(system, x, n_iter=40, shifts=shifts)))
    log_bound = -query.alpha * l
    for bundles, sign in ((("cs", "ss"), 1), (("uu", "cu"), -1)):
        log_prod, y = 0.0, x
        for i in range(horizon):
            basis = np.column_stack([planes[sign * i * l].directions[b] for b in bundles])
            m, y = orbit_jacobian(system, y, l, sign > 0)
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
