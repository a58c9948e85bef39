import numpy as np
import pytest

from phlab.cones import SANDWICH_RTOL, ConeField, growth_sandwich_check
from phlab.ergodic import OrbitSpec, entropy_volume_identity, lyapunov_spectrum, make_rng
from phlab.errors import IncompatibleFiberError
from phlab.gibbs import EmpiricalMeasure, UnstablePlaque, cesaro_push, total_variation
from phlab.product import (
    LinearSystem,
    ProductSystem,
    build_product,
    commuting_diagram_check,
    fiber_pushforward_statistics,
)
from phlab.torus import CAT_MAP, IntegerMatrix, ToralAutomorphism, cat_power_product

D3 = IntegerMatrix(CAT_MAP).power(3).entries


@pytest.fixture(scope="module")
def product():
    return build_product(LinearSystem(ToralAutomorphism(D3)), ToralAutomorphism(CAT_MAP))


def test_build_product_accepts_dominated_pair(product):
    assert product.dim == 4
    assert product.d1 == 2 and product.d2 == 2


def test_build_product_rejects_higher_dim_base():
    with pytest.raises(IncompatibleFiberError):
        build_product(LinearSystem(cat_power_product(3, 1)), ToralAutomorphism(CAT_MAP))


def test_build_product_rejects_undominated_fiber():
    # fiber D^3 expands faster than the base D: the base cannot dominate it
    with pytest.raises(IncompatibleFiberError) as err:
        build_product(LinearSystem(ToralAutomorphism(CAT_MAP)), ToralAutomorphism(D3))
    assert "unstable" in str(err.value)


class _StubBase:
    """Synthetic 2-d base exposing configurable sampled rates."""

    dim = 2

    def __init__(self, uu, cs):
        self._uu, self._cs = uu, cs

    def unstable_rate_range(self, _samples=None):
        return self._uu, self._uu

    def stable_rate_max(self, _samples=None):
        return self._cs

    def step(self, x):
        return x

    def jacobian(self, x):
        return np.eye(2)

    def skew_unstable_bundle(self):
        return np.array([1.0, 0.0]), self._uu


def test_rate_comparison_margin():
    """A base with near-unit center rates is accepted only within the margin."""
    fiber = ToralAutomorphism(CAT_MAP)  # lu ~ 2.618
    assert build_product(_StubBase(uu=100.0, cs=1.5), fiber) is not None
    with pytest.raises(IncompatibleFiberError):
        build_product(_StubBase(uu=100.0, cs=3.0), fiber)


def test_commuting_diagrams_exact(product):
    res = commuting_diagram_check(product, 2000, rng=make_rng(1))
    assert res["base"] < 1e-14
    assert res["fiber"] < 1e-14


def test_corrupted_coupling_detected():
    base = LinearSystem(ToralAutomorphism(D3))
    coupled = ProductSystem(base, ToralAutomorphism(CAT_MAP),
                            coupling=lambda x: 0.01 * np.sin(2 * np.pi * x))
    res = commuting_diagram_check(coupled, 500, rng=make_rng(2))
    assert res["fiber"] > 1e-6
    assert res["base"] < 1e-14


def test_block_jacobian(product, rng):
    z = rng.random((100, 4))
    jac = product.jacobian(z)
    assert np.max(np.abs(jac[:, :2, 2:])) == 0.0
    assert np.max(np.abs(jac[:, 2:, :2])) == 0.0


def test_spectrum_is_union_of_factor_logs(product):
    spec = lyapunov_spectrum(product, OrbitSpec(start=make_rng(3).random(4),
                                                length=2500, transient=100))
    base_logs = np.log(np.abs(product.base.auto.splitting.eigenvalues))
    fiber_logs = np.log(np.abs(product.fiber.splitting.eigenvalues))
    expected = np.sort(np.concatenate([base_logs, fiber_logs]))[::-1]
    assert np.max(np.abs(spec.exponents - expected)) < 1e-8


def test_strong_unstable_leaf_is_base_times_point(product):
    v = make_rng(5).standard_normal(4)
    x = make_rng(6).random(4)
    for _ in range(60):
        v = product.jacobian(x) @ v
        v /= np.linalg.norm(v)
        x = product.step(x)
    assert np.linalg.norm(v[2:]) < 1e-8


def test_entropy_volume_identity_exact(product):
    est, log_rate, gap = entropy_volume_identity(
        product, OrbitSpec(start=make_rng(7).random(4), length=2000, transient=0))
    assert gap < 1e-10
    assert abs(log_rate - np.log(np.abs(product.base.auto.splitting.eigenvalues[0]))) < 1e-14


def test_entropy_volume_rejects_fiber_only(product):
    with pytest.raises(ValueError):
        entropy_volume_identity(product, OrbitSpec(length=100, transient=0),
                                seed=np.array([0.0, 0.0, 1.0, 0.0]))


def test_growth_sandwich_on_product(product):
    axis, rate = product.skew_unstable_bundle()
    comp = np.zeros((4, 3))
    comp[2, 0] = 1.0
    comp[3, 1] = 1.0
    comp[:2, 2] = product.base.axes[:, 1]
    cone = ConeField("base-u", axis, comp, 0.05)
    v = axis + 0.02 * comp[:, 0]
    lo, val, hi = growth_sandwich_check(product, make_rng(8).random(4), v, 30, cone, rate)
    assert lo * (1 - SANDWICH_RTOL) <= val <= hi


def test_fiber_pushforward_product_measure(product):
    grid = (4, 4, 4, 4)
    base_mass = np.zeros((4, 4))
    base_mass[1, 2] = 1.0
    fiber_mass = np.full((4, 4), 1.0 / 16.0)
    mass = base_mass[:, :, None, None] * fiber_mass[None, None, :, :]
    base, fiber = fiber_pushforward_statistics(product, EmpiricalMeasure(grid, mass))
    assert np.allclose(base.mass, base_mass)
    assert np.allclose(fiber.mass, fiber_mass)


def test_fiber_pushforward_grid_mismatch(product):
    with pytest.raises(ValueError):
        fiber_pushforward_statistics(product, EmpiricalMeasure.uniform((4, 4)))


def test_distinct_fiber_seeds_separate(product):
    axis, _ = product.skew_unstable_bundle()
    marg = {}
    for tag, w in (("w1", 0.15), ("w2", 0.65)):
        plq = UnstablePlaque(anchor=np.array([0.3, 0.7, w, w]), direction=axis,
                             half_length=0.2, sample_count=2000)
        state = cesaro_push(product, plq, 300, (8, 8, 8, 8))
        marg[tag] = fiber_pushforward_statistics(product, state.accumulated)
    tv_base = total_variation(marg["w1"][0], marg["w2"][0])
    tv_fiber = total_variation(marg["w1"][1], marg["w2"][1])
    assert tv_fiber > tv_base
    # fiber marginal tracks the Cesaro average of the fiber orbit of the atom
    fiber_orbit = [np.array([0.15, 0.15])]
    for _ in range(299):
        fiber_orbit.append(product.fiber.apply(fiber_orbit[-1]))
    orbit_measure = EmpiricalMeasure.from_points(np.array(fiber_orbit), (8, 8))
    assert total_variation(marg["w1"][1], orbit_measure) < 1e-12


def test_coupled_system_has_no_inverse():
    base = LinearSystem(ToralAutomorphism(D3))
    coupled = ProductSystem(base, ToralAutomorphism(CAT_MAP), coupling=lambda x: x[..., :1])
    with pytest.raises(NotImplementedError):
        coupled.step_inverse(np.zeros(4))
