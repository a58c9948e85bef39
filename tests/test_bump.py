import numpy as np
import pytest

from phlab.bump import BumpBound, SmoothBump, _golden_min, compute_M
from phlab.errors import MeasureConstraintError


def test_plateau_and_support(bump):
    d = bump.delta
    assert bump(0.0) == 1.0
    assert np.all(bump(np.linspace(0, d / 2, 500)) == 1.0)
    assert bump(d) == 0.0
    assert bump(2 * d) == 0.0
    assert np.all(bump(np.linspace(d, 3 * d, 500)) == 0.0)


def test_transition_strictly_inside(bump):
    v = bump(0.7 * bump.delta)
    assert 0.0 < v < 1.0


def test_even_symmetry(bump, rng):
    x = rng.random(1000) * 2 * bump.delta
    assert np.allclose(bump(x), bump(-x))
    assert np.allclose(bump.derivative(-x), -bump.derivative(x))


def test_range_bounds(bump, rng):
    x = (rng.random(100_000) - 0.5) * 6 * bump.delta
    v = bump(x)
    assert np.all(v >= 0.0) and np.all(v <= 1.0)


def test_derivative_zero_on_plateau(bump):
    assert bump.derivative(0.0) == 0.0
    assert bump.derivative(bump.delta / 4) == 0.0
    assert bump.derivative(3 * bump.delta / 4) < 0.0


def test_derivative_matches_finite_difference(bump):
    """Centered-difference oracle, excluding the saturated endpoint zones.

    Where |s'| falls below the float64 resolution of s-differences the
    comparison switches to an absolute floor (the analytic value and the
    quotient both vanish at that scale).
    """
    d = bump.delta
    xs = np.linspace(0.0, 2 * d, 1000)
    xs = xs[(np.abs(xs - d / 2) > 1e-4) & (np.abs(xs - d) > 1e-4)]
    h = 1e-7
    fd = (bump(xs + h) - bump(xs - h)) / (2 * h)
    an = bump.derivative(xs)
    err = np.abs(an - fd)
    assert np.all((err <= 1e-6 * np.abs(fd)) | (err <= 1e-9))


# The two-pass formulas SmoothBump used before its one-pass profile, kept as
# an oracle: sigma from e(t) and e(1 - t) on the whole array, sigma' from a
# second evaluation of both exponentials and of e'.


def _e(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    with np.errstate(over="ignore"):
        out[pos] = np.exp(-1.0 / t[pos])
    return out


def _e_prime(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    out[pos] = np.exp(-1.0 / tp) / (tp * tp)
    return out


def _sigma(t):
    a, b = _e(t), _e(1.0 - t)
    out = np.zeros_like(t)
    mid = (t > 0) & (t < 1)
    out[mid] = a[mid] / (a[mid] + b[mid])
    out[t >= 1] = 1.0
    return out


def _sigma_prime(t):
    out = np.zeros_like(t)
    mid = (t > 0) & (t < 1)
    tm = t[mid]
    a, b = _e(tm), _e(1.0 - tm)
    da, db = _e_prime(tm), _e_prime(1.0 - tm)
    out[mid] = (da * b + a * db) / (a + b) ** 2
    return out


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_one_pass_profile_matches_former_formulas_bitwise(bump, rng):
    d = bump.delta
    edges = np.array([0.0, -0.0, d / 2, -d / 2, d, -d])
    near = np.concatenate([np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
    xs = np.concatenate([
        edges, near, np.linspace(-2 * d, 2 * d, 4001),
        np.sign(rng.random(2000) - 0.5) * (0.5 + 0.5 * rng.random(2000)) * d,  # the band
        (rng.random(500) - 0.5) * 8 * d,  # mostly beyond the support
    ])
    t = (d - np.abs(xs)) / (d / 2.0)
    want = _sigma(t)
    want_d = _sigma_prime(t) * (-np.sign(xs) / (d / 2.0))
    assert np.array_equal(_bits(bump(xs)), _bits(want))
    assert np.array_equal(_bits(bump.derivative(xs)), _bits(want_d))
    val, der = bump.profile(xs)
    assert np.array_equal(_bits(val), _bits(want)) and np.array_equal(_bits(der), _bits(want_d))
    for i in np.concatenate([np.arange(len(edges) + len(near)), [1000, 2000, 4500, 6400]]):
        v, dv = bump(xs[i]), bump.derivative(xs[i])
        assert isinstance(v, float) and isinstance(dv, float)
        assert _bits(v) == _bits(want[i]) and _bits(dv) == _bits(want_d[i])


def _profile_oracle(delta, x, derivative=True):
    """SmoothBump.profile before its band-free early return, kept verbatim."""
    x = np.asarray(x, dtype=float)
    xa = np.atleast_1d(x)
    t = np.abs(xa)
    np.subtract(delta, t, out=t)
    t /= delta / 2.0
    mid = (t > 0) & (t < 1)
    tm = t[mid]
    um = 1.0 - tm
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / um)
    val = np.zeros(t.shape)
    val[mid] = a / (a + b)
    val[t >= 1] = 1.0
    if not derivative:
        return val.reshape(x.shape), None
    sp = np.zeros(t.shape)
    sp[mid] = (a / (tm * tm) * b + a * (b / (um * um))) / (a + b) ** 2
    der = np.sign(xa, out=t)
    np.negative(der, out=der)
    der /= delta / 2.0
    der *= sp
    return val.reshape(x.shape), der.reshape(x.shape)


def _band_free_inputs(d):
    """Points off the transition band: +-0, +-delta/2, +-delta, their float
    neighbours on the plateau or beyond the support, far points and NaN."""
    edges = np.array([0.0, -0.0, d / 2, -d / 2, d, -d])
    inward = np.nextafter(edges[2:4], 0.0)  # just inside the plateau
    outward = np.nextafter(edges[4:], np.copysign(np.inf, edges[4:]))  # beyond delta
    return np.concatenate([
        edges, inward, outward, [np.nextafter(0.0, 1.0), -np.nextafter(0.0, 1.0)],
        [d / 4, -d / 3, 1.5 * d, -2 * d, 0.5, -0.75, 1e300, -1e300, np.inf, -np.inf, np.nan],
    ])


def _assert_profile_is_oracle(bump, x):
    for derivative in (True, False):
        val, der = bump.profile(x, derivative)
        want_val, want_der = _profile_oracle(bump.delta, x, derivative)
        assert val.shape == want_val.shape and val.tobytes() == want_val.tobytes(), (x, derivative)
        if derivative:
            assert der.shape == want_der.shape and der.tobytes() == want_der.tobytes(), x
        else:
            assert der is None


def test_profile_matches_frozen_oracle_bitwise(bump, rng):
    """The early return for batches with no point on the band gives the band
    formula's values bit for bit: the signed zeros of s' and NaN included."""
    d = bump.delta
    free = _band_free_inputs(d)
    band = np.sign(rng.random(200) - 0.5) * (0.5 + 0.5 * rng.random(200)) * d
    band_edges = np.concatenate([np.nextafter([d / 2, -d / 2], [d, -d]),
                                 np.nextafter([d, -d], [0.0, 0.0])])
    for x in free:  # scalars, and one-point arrays
        _assert_profile_is_oracle(bump, x)
        _assert_profile_is_oracle(bump, np.array([x]))
    for x in np.concatenate([band[:5], band_edges]):
        _assert_profile_is_oracle(bump, x)
    _assert_profile_is_oracle(bump, free)  # band-free batch
    _assert_profile_is_oracle(bump, free[:21].reshape(7, 3))
    mixed = np.concatenate([free, band, band_edges])
    _assert_profile_is_oracle(bump, mixed)
    _assert_profile_is_oracle(bump, rng.permutation(mixed))
    _assert_profile_is_oracle(bump, np.concatenate([free, band[:1]]))
    _assert_profile_is_oracle(bump, (rng.random(1000) - 0.5) * 6 * d)


def test_point_profile_matches_profile_bitwise(bump, rng):
    """The one-float profile gives profile's bits: off the band (signed zeros,
    +-inf and NaN included), on its edges and across it."""
    d = bump.delta
    band = np.sign(rng.random(2000) - 0.5) * (0.5 + 0.5 * rng.random(2000)) * d
    edges = np.concatenate([np.nextafter([d / 2, -d / 2], [d, -d]),
                            np.nextafter([d, -d], [0.0, 0.0])])
    xs = np.concatenate([_band_free_inputs(d), band, edges, (rng.random(2000) - 0.5) * 6 * d])
    for x in xs:
        want = bump.profile(np.array([x]))
        got = bump.point_profile(float(x))
        assert all(type(v) is float for v in got), x
        assert np.array(got).tobytes() == np.concatenate(want).tobytes(), x


def test_measure_constraint():
    with pytest.raises(MeasureConstraintError):
        SmoothBump(1.0 / 39.0)
    with pytest.raises(MeasureConstraintError):
        SmoothBump(0.0)
    b = SmoothBump(1.0 / 40.0)
    assert 16 * b.delta**2 <= 1.0 / 100.0 + 1e-15


def test_compute_M_positive(bump, bump_bound):
    assert bump_bound.M > 0.0
    assert bump_bound.M == -float(bump.weighted(np.array(bump_bound.argmin)))


def test_compute_M_symmetric_in_x(bump, bump_bound):
    # s even and 1 on the plateau: s(x) w(y) reaches -M with x of either sign
    y = bump_bound.argmin
    for x in np.linspace(-bump.delta / 2, bump.delta / 2, 11):
        assert float(bump(x) * bump.weighted(np.array(y))) == -bump_bound.M


def test_compute_M_refinement_monotone(bump):
    coarse = compute_M(bump, grid=201)
    fine = compute_M(bump, grid=2001)
    assert fine.M >= coarse.M - 1e-8


def test_compute_M_against_dense_oracle(bump, bump_bound):
    """10^4 x 10^4 brute-force grid, evaluated in row chunks."""
    d = bump.delta
    ys = np.linspace(0.0, d, 10_000)
    hy = bump.weighted(ys)
    best = np.inf
    for start in range(0, 10_000, 500):
        xs = np.linspace(0.0, d, 10_000)[start : start + 500]
        block = bump(xs)[:, None] * hy[None, :]
        best = min(best, float(np.min(block)))
    assert abs(-bump_bound.M - best) < 1e-6


class _NonNegativeBump(SmoothBump):
    """Profile whose weighted factor never dips below zero."""

    def weighted(self, y):
        return np.abs(super().weighted(np.asarray(y, dtype=float)))


def test_compute_M_zero_when_nonnegative():
    bound = compute_M(_NonNegativeBump(1.0 / 40.0), grid=401)
    assert bound.M == 0.0


class _TwoPassBump(SmoothBump):
    """weighted as it was before it took s and s' from one profile pass."""

    def weighted(self, y):
        y = np.asarray(y, dtype=float)
        return self(y) + y * self.derivative(y)


class _CountingBump(SmoothBump):
    """Counts profile passes."""

    passes = 0

    def profile(self, x, derivative=True):
        self.passes += 1
        return super().profile(x, derivative)


def test_weighted_matches_two_pass_oracle_bitwise(bump, rng):
    d = bump.delta
    oracle = _TwoPassBump(d)
    free = _band_free_inputs(d)
    free = free[np.isfinite(free)]  # y * s'(y) is inf * 0 at y = inf
    band = np.sign(rng.random(200) - 0.5) * (0.5 + 0.5 * rng.random(200)) * d
    for y in (free, band, -band, np.concatenate([free, band]), free[:18].reshape(6, 3),
              (rng.random(1000) - 0.5) * 6 * d):
        got, want = bump.weighted(y), oracle.weighted(y)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), y
    for y in np.concatenate([free, band[:5]]):  # 0-d inputs
        got, want = bump.weighted(np.array(y)), oracle.weighted(np.array(y))
        assert type(got) is type(want) and np.float64(got).hex() == np.float64(want).hex(), y
    counting = _CountingBump(d)
    counting.weighted(band)
    assert counting.passes == 1


@pytest.mark.parametrize("delta", [0.025, 0.02, 0.01, 0.003])
def test_compute_M_unchanged_by_one_pass_weighted(delta):
    for grid in (2001, 501, 101, 7, 2):
        assert _bound_bits(compute_M(SmoothBump(delta), grid)) == \
            _bound_bits(compute_M(_TwoPassBump(delta), grid))


def _compute_M_oracle(bump, grid=2001):
    """compute_M as it was while it scanned the 2-D product s(x) w(y): the
    dense grid argmin, then four rounds of x/y golden-section refinement."""
    delta = bump.delta
    xs = np.linspace(0.0, delta, grid)
    sx = bump(xs)
    hy = bump.weighted(xs)
    g = sx[:, None] * hy[None, :]
    i, j = np.unravel_index(np.argmin(g), g.shape)
    x0, y0 = xs[i], xs[j]
    best = g[i, j]
    h = delta / (grid - 1)

    def obj(x, y):
        return float(bump(np.array(x)) * bump.weighted(np.array(y)))

    for _ in range(4):
        y0, best = _golden_min(
            lambda y: obj(x0, y), max(0.0, y0 - h), min(delta, y0 + h), 1e-8 * delta
        )
        x0, best = _golden_min(
            lambda x: obj(x, y0), max(0.0, x0 - h), min(delta, x0 + h), 1e-8 * delta
        )
    return max(0.0, -min(best, float(g[i, j])))


def _bound_bits(bound):
    """Every field of a BumpBound, floats by float.hex and with their types."""
    return [(float(v).hex(), type(v)) for v in (bound.M, bound.argmin)]


#: how far the 1-D minimum of w may round from the 2-D oracle, in ulps of M
M_ULPS = 2


@pytest.mark.parametrize("cls", [SmoothBump, _NonNegativeBump])
@pytest.mark.parametrize("delta", [0.025, 0.02, 0.01, 0.003])
def test_compute_M_matches_dense_grid_oracle_bitwise(cls, delta):
    """The 1-D minimum of w gives the M of the 2-D scan it replaced: within
    M_ULPS ulps, and bit for bit on the shipped 2001-point scan at 1/40."""
    bump = cls(delta)
    for grid in (2001, 501, 101):
        got, want = compute_M(bump, grid).M, _compute_M_oracle(bump, grid)
        assert abs(got - want) <= M_ULPS * np.spacing(want), (grid, got, want)
    if delta == 0.025:
        assert compute_M(bump).M.hex() == _compute_M_oracle(bump).hex()


@pytest.mark.parametrize("delta", [0.025, 0.01])
def test_peaks_match_dense_scans(delta):
    """The two peaks behind the cross-partial sup against 10^6-point scans:
    |s'| peaks at 3 delta / 4, where sigma' is symmetric, and t s(t) in the band."""
    bump = SmoothBump(delta)
    ts = np.linspace(0.0, delta, 1_000_001)
    x, slope = bump.peak_derivative()
    assert x == pytest.approx(0.75 * delta, rel=1e-6)
    assert slope == pytest.approx(np.max(np.abs(bump.derivative(ts))), rel=1e-12)
    t, moment = bump.peak_moment()
    assert delta / 2 < t < delta
    assert moment == pytest.approx(np.max(ts * bump(ts)), rel=1e-12)
    assert moment >= np.max(ts * bump(ts))


def test_bound_dataclass_fields(bump_bound):
    assert isinstance(bump_bound, BumpBound)
    assert [f for f in BumpBound.__dataclass_fields__] == ["M", "argmin"]
    assert 0.0 <= bump_bound.argmin <= 1.0 / 40.0
