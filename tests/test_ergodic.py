import math

import numpy as np
import pytest

from phlab.ergodic import (
    OrbitSpec,
    PesinBlockQuery,
    birkhoff_average,
    bundle_exponent,
    bundle_exponent_batch,
    entropy_volume_identity,
    lyapunov_spectrum,
    make_rng,
    pesin_block_membership,
)
from phlab.ergodic import _Tally
from phlab.product import LinearSystem
from phlab.torus import cat_power_product


@pytest.fixture(scope="module")
def pure_A():
    return LinearSystem(cat_power_product(3, 1))


def expected_logs(pure_A):
    return np.sort(np.log(np.abs(pure_A.auto.splitting.eigenvalues)))[::-1]


def test_orbit_spec_validation():
    with pytest.raises(ValueError):
        OrbitSpec(length=10, transient=10)


def test_batch_rejects_length_within_transient(system):
    with pytest.raises(ValueError, match="transient"):
        bundle_exponent_batch(system, np.zeros((2, 4)), 100, 200, "cu")


def test_pure_A_spectrum_exact(pure_A, rng):
    spec = lyapunov_spectrum(pure_A, OrbitSpec(start=rng.random(4), length=3000,
                                               transient=10))
    assert np.max(np.abs(spec.exponents - expected_logs(pure_A))) < 1e-10
    assert abs(spec.total) < 1e-10  # volume preserving


def test_spectrum_frame_invariance(pure_A, rng):
    """Two random orthonormal frames on the same orbit give the same exponents."""
    start = rng.random(4)
    orbit = OrbitSpec(start=start, length=2000, transient=0)
    frames = [np.linalg.qr(make_rng(77, w).standard_normal((4, 4)))[0] for w in range(2)]
    specs = [lyapunov_spectrum(pure_A, orbit, frame0=f) for f in frames]
    assert np.max(np.abs(specs[0].exponents - specs[1].exponents)) < 1e-9


def test_deformed_spectrum_at_p(system):
    spec = lyapunov_spectrum(system, OrbitSpec(start=system.chart_p.center,
                                               length=1000, transient=0))
    target = np.sort(np.log([system.luu, system.lss, 1.0, system.ls]))[::-1]
    assert np.max(np.abs(spec.exponents - target)) < 1e-10
    assert abs(spec.exponents[1]) < 1e-12  # the center-unstable rate at p


def test_tilde_spectrum_at_fixed_points(tilde):
    eps = tilde.params.eps_tilde
    for center, rates in [
        (tilde.chart_p.center, [tilde.luu, tilde.lss, 1.0 - eps, tilde.ls]),
        (tilde.chart_q.center, [tilde.luu, tilde.lss, tilde.lu, 1.0 / (1.0 - eps)]),
    ]:
        spec = lyapunov_spectrum(tilde, OrbitSpec(start=center, length=800, transient=0))
        target = np.sort(np.log(rates))[::-1]
        assert np.max(np.abs(spec.exponents - target)) < 1e-10


def test_spectrum_sum_matches_log_det(system, rng):
    start = rng.random(4)
    orbit = OrbitSpec(start=start, length=4000, transient=100)
    spec = lyapunov_spectrum(system, orbit)
    steps = int(spec.history[-1][0])
    x = start.copy()
    for _ in range(orbit.length - steps):
        x = system.step(x)
    acc = []
    for _ in range(steps):
        acc.append(np.log(np.abs(np.linalg.det(system.jacobian(x)))))
        x = system.step(x)
    assert abs(spec.total - math.fsum(acc) / steps) < 1e-8
    assert spec.log_det == sum(acc) / steps  # same steps, same summation order


def _pair_exponent_oracle(system, starts, length, transient):
    """The generic cs_ss path: a backward 2-frame seeded on (ss, s), propagated
    by the inverse 4x4 chart Jacobian with QR; the growth of its second (slower)
    direction gives the top forward rate of the cs + ss plane."""
    x = np.array(starts, dtype=float)
    frames = np.broadcast_to(np.eye(4)[:, [1, 3]], (len(x), 4, 2)).copy()
    tally = _Tally(len(x), length, transient)
    for t in range(length):
        x = system.step_inverse(x)
        q, r = np.linalg.qr(np.linalg.inv(system.jacobian_chart(x)) @ frames)
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        frames = q * np.where(diag < 0, -1.0, 1.0)[:, None, :]
        tally.add(t, -np.log(np.abs(diag[:, 1])))
    return tally.result()


@pytest.mark.parametrize("which", ["system", "tilde"])
def test_cs_ss_matches_generic_pair_exponent_bitwise(which, request):
    """On the block-triangular chart Jacobian the 2x2 center solve reproduces
    the 4x4 inverse + QR 2-frame exactly, in the charts and outside them."""
    sys_ = request.getfixturevalue(which)
    rng = make_rng(31)
    half = 2.0 * sys_.params.delta
    starts = np.concatenate([
        rng.random((6, 4)),
        sys_.chart_p.from_chart((rng.random((5, 4)) - 0.5) * 2 * half),
        sys_.chart_q.from_chart((rng.random((5, 4)) - 0.5) * 2 * half),
    ])
    for length, transient in ((300, 30), (2000, 200)):
        got = bundle_exponent_batch(sys_, starts, length, transient, "cs_ss")
        want = _pair_exponent_oracle(sys_, starts, length, transient)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


def test_bundle_exponents_pure_A(pure_A, rng):
    logs = expected_logs(pure_A)
    orbit = OrbitSpec(start=rng.random(4), length=1500, transient=100)
    assert abs(bundle_exponent(pure_A, orbit, "uu").value - logs[0]) < 1e-12
    assert abs(bundle_exponent(pure_A, orbit, "cu").value - logs[1]) < 1e-12
    assert abs(bundle_exponent(pure_A, orbit, "cs").value - logs[2]) < 1e-12
    assert abs(bundle_exponent(pure_A, orbit, "ss").value - logs[3]) < 1e-12
    assert abs(bundle_exponent(pure_A, orbit, "cs_ss").value - logs[2]) < 1e-12


def test_bundle_exponent_at_p_is_zero(system):
    res = bundle_exponent(system, OrbitSpec(start=system.chart_p.center,
                                            length=500, transient=0), "cu")
    assert abs(res.value) < 1e-12 and res.converged


def test_bundle_signs_random_orbits(system):
    starts = make_rng(9).random((10, 4))
    cu, cu_ok = bundle_exponent_batch(system, starts, 10_000, 200, "cu")
    cs, cs_ok = bundle_exponent_batch(system, starts, 10_000, 200, "cs_ss")
    assert np.all(cu > 0) and np.all(cs < 0)
    assert np.all(cu_ok) and np.all(cs_ok)


def test_bundle_sum_consistent_with_spectrum(system, rng):
    """The four bundle exponents add up to the full spectrum sum."""
    start = rng.random(4)
    orbit = OrbitSpec(start=start, length=20_000, transient=200)
    total = sum(bundle_exponent(system, orbit, b).value
                for b in ("uu", "cu", "cs", "ss"))
    spec = lyapunov_spectrum(system, orbit)
    assert abs(total - spec.total) < 1e-2


def test_bundle_rejects_unknown(system):
    with pytest.raises(ValueError):
        bundle_exponent(system, OrbitSpec(length=200, transient=10), "zz")


def test_birkhoff_constant_observable(system, rng):
    res = birkhoff_average(system, OrbitSpec(start=rng.random(4), length=500,
                                             transient=50), lambda x: 1.0)
    assert res.value == 1.0 and res.converged


def test_birkhoff_chart_indicator(system, rng):
    """Time spent in the p-cube tracks its Lebesgue measure (16 delta^2)^2-ish;
    at desk scale just check it is far below the base-slab budget."""
    chart = system.chart_p

    def indicator(x):
        _, inside = chart.to_chart(x)
        return float(inside)

    res = birkhoff_average(system, OrbitSpec(start=rng.random(4), length=20_000,
                                             transient=100), indicator)
    assert res.value <= 0.01


def test_pesin_pure_A_member(pure_A):
    lams = np.abs(pure_A.auto.splitting.eigenvalues)
    alpha = 0.5 * math.log(lams[1])  # well below log(lu)
    q = PesinBlockQuery(alpha=alpha, l=2, horizon=4)
    member, first = pesin_block_membership(pure_A, np.array([0.3, 0.1, 0.7, 0.2]), q)
    assert member and first is None


def test_pesin_alpha_monotone(pure_A):
    x = np.array([0.3, 0.1, 0.7, 0.2])
    lu = np.abs(pure_A.auto.splitting.eigenvalues)[1]
    strong = PesinBlockQuery(alpha=0.9 * math.log(lu), l=1, horizon=3)
    weak = PesinBlockQuery(alpha=0.1 * math.log(lu), l=1, horizon=3)
    member_strong, _ = pesin_block_membership(pure_A, x, strong)
    member_weak, _ = pesin_block_membership(pure_A, x, weak)
    assert member_strong  # alpha still below log(lu)
    assert member_weak  # weaker requirement keeps membership


def test_pesin_excluded_above_top_rate(pure_A):
    lu = np.abs(pure_A.auto.splitting.eigenvalues)[1]
    q = PesinBlockQuery(alpha=1.1 * math.log(lu), l=1, horizon=3)
    member, first = pesin_block_membership(pure_A, np.array([0.3, 0.1, 0.7, 0.2]), q)
    assert not member and first == 1


def test_pesin_deformed_p_excluded(system):
    q = PesinBlockQuery(alpha=0.05, l=1, horizon=5)
    member, first = pesin_block_membership(system, system.chart_p.center, q)
    assert not member and first == 1  # backward E-product stalls at rate 1


def test_pesin_alpha_positive_required():
    with pytest.raises(ValueError):
        PesinBlockQuery(alpha=0.0, l=1, horizon=3)


def test_entropy_volume_deformed(system, rng):
    est, log_rate, gap = entropy_volume_identity(
        system, OrbitSpec(start=rng.random(4), length=5000, transient=0))
    assert abs(log_rate - math.log(system.luu)) < 1e-14
    assert gap < 1e-3


def test_entropy_volume_rejects_fiber_seed(system):
    with pytest.raises(ValueError):
        entropy_volume_identity(system, OrbitSpec(length=100, transient=0),
                                seed=system.chart_p.axes[:, 2])

