import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phlab.cones import SANDWICH_RTOL, ConeField, growth_sandwich_check
from phlab.ergodic import OrbitSpec, entropy_volume_identity, lyapunov_spectrum, make_rng
from phlab.errors import IncompatibleFiberError, NotHyperbolicError
from phlab.gibbs import EmpiricalMeasure, UnstablePlaque, cesaro_push, total_variation
from phlab.product import LinearSystem, build_product, commuting_diagram_check
from phlab.torus import (
    CAT_MAP,
    IntegerMatrix,
    ToralAutomorphism,
    cat_power_product,
    reduce_torus,
    torus_distance,
)

from conftest import with_method

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
    """Synthetic 2-d base exposing configurable rates."""

    dim = 2

    def __init__(self, uu, cs):
        self._uu, self._cs = uu, cs

    def unstable_rate_range(self):
        return self._uu, self._uu

    def stable_rate_max(self):
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


def test_corrupted_coupling_detected(product):
    """Negative control: a fiber shift that depends on the base coordinate
    breaks the fiber diagram and leaves the base one exact."""
    def coupled_step(z):
        out = product.step(z)
        out[..., 2:] = reduce_torus(out[..., 2:] + 0.01 * np.sin(2 * np.pi * z[..., :2]))
        return out

    coupled = with_method(product, "step", coupled_step)
    res = commuting_diagram_check(coupled, 500, rng=make_rng(2))
    assert res["fiber"] > 1e-6
    assert res["base"] < 1e-14


def _two_factor_step(ps, z):
    """ProductSystem.step as it was before g stepped as one block map."""
    z = np.asarray(z, dtype=float)
    x = ps.base.step(z[..., : ps.d1])
    y = ps.fiber.apply(z[..., ps.d1 :])
    return np.concatenate([x, y], axis=-1)


def _two_factor_step_inverse(ps, z):
    z = np.asarray(z, dtype=float)
    x = ps.base.step_inverse(z[..., : ps.d1])
    y = ps.fiber.apply_inverse(z[..., ps.d1 :])
    return np.concatenate([x, y], axis=-1)


@pytest.mark.parametrize("shape", [(4,), (1, 4), (2, 4), (3, 4), (7, 4), (100, 4),
                                   (4000, 4), (20_000, 4)])
def test_block_step_matches_two_factor_oracle_bitwise(product, rng, shape):
    for z in (rng.random(shape), 40.0 * rng.standard_normal(shape)):
        for got, want in ((product.step(z), _two_factor_step(product, z)),
                          (product.step_inverse(z), _two_factor_step_inverse(product, z))):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_block_step_single_points_and_orbit_bitwise(product, rng):
    for z in rng.random((500, 4)):
        assert product.step(z).tobytes() == _two_factor_step(product, z).tobytes()
        assert product.step_inverse(z).tobytes() == _two_factor_step_inverse(product, z).tobytes()
    z = w = rng.random(4)
    for _ in range(8000):
        z, w = product.step(z), _two_factor_step(product, w)
    assert z.tobytes() == w.tobytes()


def test_step_inverse_undoes_step(product, rng):
    z = rng.random((1000, 4))
    assert np.max(torus_distance(product.step_inverse(product.step(z)), z)) < 1e-12
    assert np.max(torus_distance(product.step(product.step_inverse(z)), z)) < 1e-12


#: hyperbolic unimodular 2x2 matrices with entries in [-4, 4]
def _hyperbolic_2x2():
    out = []
    for a, b, c, d in itertools.product(range(-4, 5), repeat=4):
        if abs(a * d - b * c) != 1:
            continue
        try:
            out.append(ToralAutomorphism([[a, b], [c, d]]))
        except NotHyperbolicError:
            pass
    return out


HYPERBOLIC_2X2 = _hyperbolic_2x2()


@settings(max_examples=40)
@given(base=st.sampled_from(HYPERBOLIC_2X2), fiber=st.sampled_from(HYPERBOLIC_2X2),
       rows=st.integers(2, 60), seed=st.integers(0, 2**32 - 1))
def test_block_step_matches_two_factor_oracle_on_accepted_pairs(base, fiber, rows, seed):
    """Batches round bitwise as the factor maps do.  A single point may round
    once differently where the factor products are inexact: numpy's one-point
    matmul rounds those differently for the 2x2 factors and the 4x4 block."""
    try:
        ps = build_product(LinearSystem(base), fiber)
    except IncompatibleFiberError:
        assume(False)
    z = make_rng(seed).random((rows, 4))
    for step, oracle in ((ps.step, _two_factor_step),
                         (ps.step_inverse, _two_factor_step_inverse)):
        assert step(z).tobytes() == oracle(ps, z).tobytes()
    for mat, step, oracle in ((ps._jac, ps.step, _two_factor_step),
                              (ps._jac_inv, ps.step_inverse, _two_factor_step_inverse)):
        ulp = np.spacing(np.max(np.sum(np.abs(mat), axis=1)))
        assert torus_distance(step(z[0]), oracle(ps, z[0])) <= 2 * ulp
    assert np.max(torus_distance(ps.step_inverse(ps.step(z)), z)) < 1e-12


def test_block_jacobian(product, rng):
    z = rng.random((100, 4))
    jac = product.jacobian(z)
    assert np.max(np.abs(jac[:, :2, 2:])) == 0.0
    assert np.max(np.abs(jac[:, 2:, :2])) == 0.0


def _block_oracle(ps, base_blocks, fiber_block):
    """ProductSystem._block as it was before Df became one constant matrix."""
    single = base_blocks.ndim == 2
    blocks = base_blocks[None] if single else base_blocks
    out = np.zeros((blocks.shape[0], ps.dim, ps.dim))
    out[:, : ps.d1, : ps.d1] = blocks
    out[:, ps.d1 :, ps.d1 :] = fiber_block
    return out[0] if single else out


def test_jacobians_match_former_block_assembly_bitwise(product, rng):
    fiber = product.fiber.matrix
    for z in (rng.random((50, 4)), rng.random(4), rng.random((1, 4))):
        for got, base, fiber_block in (
            (product.jacobian(z), product.base.jacobian, fiber.to_float()),
            (product.jacobian_inverse(z), product.base.jacobian_inverse,
             fiber.inverse().to_float()),
        ):
            want = _block_oracle(product, base(z[..., :2]), fiber_block)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    first = product.jacobian(z)
    first[...] = 0.0  # every call returns its own copy
    assert product.jacobian(z).tobytes() == _block_oracle(
        product, product.base.jacobian(z[..., :2]), fiber.to_float()).tobytes()


@pytest.mark.parametrize("auto", [ToralAutomorphism(D3), ToralAutomorphism(CAT_MAP),
                                  cat_power_product(3, 1)])
def test_linear_chart_jacobian_matches_former_formula(auto, rng):
    system = LinearSystem(auto)
    want = np.diag(system.rates * np.sign(np.diag(system.axes.T @ system._jac @ system.axes)))
    x = rng.random((20, system.dim))
    assert system.jacobian_chart(x[0]).tobytes() == want.tobytes()
    assert system.jacobian_chart(x).tobytes() == np.broadcast_to(want, (20,) + want.shape).tobytes()


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
    measure = EmpiricalMeasure(grid, mass)
    base = measure.marginal(range(product.d1))
    fiber = measure.marginal(range(product.d1, product.dim))
    assert np.allclose(base.mass, base_mass)
    assert np.allclose(fiber.mass, fiber_mass)


def test_distinct_fiber_seeds_separate(product):
    axis, _ = product.skew_unstable_bundle()
    marg = {}
    for tag, w in (("w1", 0.15), ("w2", 0.65)):
        plq = UnstablePlaque(anchor=np.array([0.3, 0.7, w, w]), direction=axis,
                             half_length=0.2, sample_count=2000)
        state = cesaro_push(product, plq, 300, (8, 8, 8, 8))
        acc = state.accumulated
        marg[tag] = (acc.marginal(range(product.d1)), acc.marginal(range(product.d1, product.dim)))
    tv_base = total_variation(marg["w1"][0], marg["w2"][0])
    tv_fiber = total_variation(marg["w1"][1], marg["w2"][1])
    assert tv_fiber > tv_base
    # fiber marginal tracks the Cesaro average of the fiber orbit of the atom
    fiber_orbit = [np.array([0.15, 0.15])]
    for _ in range(299):
        fiber_orbit.append(product.fiber.apply(fiber_orbit[-1]))
    orbit_measure = EmpiricalMeasure.from_points(np.array(fiber_orbit), (8, 8))
    assert total_variation(marg["w1"][1], orbit_measure) < 1e-12

