"""Product systems g = base x T with factor projections and domination checks.

Shipped bases are 2-dimensional linear automorphisms (the deformed 4-torus
map is native, not assembled here); fibers are hyperbolic toral automorphisms,
so g steps as one block map, (z @ Df^T) mod 1.  The builder compares the
base's exact rates against the fiber's, each inequality with a fixed
RATE_MARGIN of 10%:

    base unstable rate   >  fiber unstable rate
    fiber unstable rate  >  base stable rate, fiber stable rate

so the product carries the splitting  base-uu > fiber-u > (fiber-s + base-s).

A private ``coupling`` hook lets tests corrupt the fiber coordinate with a
base-dependent shift; the commuting-diagram check, which compares g with the
independent factor maps, must then detect a nonzero residual (negative control).
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

from .errors import IncompatibleFiberError
from .torus import CHART_ORDER, ToralAutomorphism, reduce_torus, torus_distance

RATE_MARGIN = 1.1


def _broadcast(x, mat):
    """A copy of the constant matrix mat for each point of x, (d,) or (N, d)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:  # one point: a plain copy, several times cheaper than broadcast_to
        return mat.copy()
    return np.broadcast_to(mat, (x.shape[0],) + mat.shape).copy()


def _block_diag(a, b):
    return np.block([[a, np.zeros((len(a), len(b)))], [np.zeros((len(b), len(a))), b]])


class LinearSystem:
    """A hyperbolic toral automorphism dressed in the common system interface."""

    def __init__(self, auto):
        if not isinstance(auto, ToralAutomorphism):
            auto = ToralAutomorphism(auto)
        self.auto = auto
        self.dim = auto.dim
        self._jac = auto.matrix.to_float()
        self._jac_inv = auto.matrix.inverse().to_float()
        order = CHART_ORDER if self.dim == 4 else list(range(self.dim))
        self.axes = auto.splitting.eigenvectors[:, order]
        self.rates = np.abs(auto.splitting.eigenvalues[order])
        # the chart Jacobian: the rates, signed as A acts on each axis
        self._jac_chart = np.diag(self.rates * np.sign(
            np.diag(self.axes.T @ self._jac @ self.axes)))
        self._jac_chart_rows = self._jac_chart.tolist()

    def step(self, x):
        return self.auto.apply(x)

    def step_inverse(self, x):
        return self.auto.apply_inverse(x)

    def jacobian(self, x):
        return _broadcast(x, self._jac)

    def jacobian_inverse(self, x):
        return _broadcast(x, self._jac_inv)

    def jacobians(self, x):
        """Df along the orbit of x, never stepped: one read-only jacobian(x), repeated."""
        jac = self.jacobian(x)
        jac.flags.writeable = False
        return itertools.repeat(jac)

    def jacobian_chart(self, x):
        return _broadcast(x, self._jac_chart)

    def advance(self, x, forward=True, full=False):
        """(A x, Df) forward, (A^-1 x, Df) backward; Df is the constant chart
        Jacobian, or its (u, s) block unless ``full``."""
        out = self.step(x) if forward else self.step_inverse(x)
        jac = self.jacobian_chart(out)
        return out, (jac if full else jac[..., 2:4, 2:4])

    def advance_point(self, x, forward=True, lo=None):
        """The one-row kernel, as DeformedSystem.advance_point: A x (A^-1 x)
        for one point x of floats as a list of floats, and with ``lo`` the
        constant chart Jacobian's rows and columns lo.. as lists."""
        out = self.auto.apply_point(x, inverse=not forward)
        return out, (None if lo is None else [r[lo:] for r in self._jac_chart_rows[lo:]])

    @property
    def chart_p(self):
        from .deformation import ChartBox

        return ChartBox(center=np.zeros(self.dim), half_width=0.5, axes=self.axes)

    def skew_unstable_bundle(self):
        """Strongest unstable axis and its exact rate."""
        return self.axes[:, 0], float(self.rates[0])

    def unstable_rate_range(self):
        lam = float(self.rates[0])
        return lam, lam

    def stable_rate_max(self):
        stable = self.rates[np.abs(self.rates) < 1.0]
        return float(np.max(stable))


class ProductSystem:
    """g = base x T acting on T^{d1} x T^{d2} with block-diagonal derivative.

    The base is linear, so Df is constant; Df^-1 and the step matrices are
    built on first use: the rate pre-check takes bases that are never stepped."""

    def __init__(self, base, fiber: ToralAutomorphism, coupling=None):
        self.base = base
        self.fiber = fiber
        self.d1 = base.dim
        self.d2 = fiber.dim
        self.dim = self.d1 + self.d2
        self._coupling = coupling
        self._jac = _block_diag(base.jacobian(np.zeros(self.d1)), fiber.matrix.to_float())

    def step(self, z):
        z = np.asarray(z, dtype=float)
        out = reduce_torus(z @ self._step_matrix)
        if self._coupling is not None:
            fib = out[..., self.d1 :]
            fib[...] = reduce_torus(fib + self._coupling(z[..., : self.d1]))
        return out

    def step_inverse(self, z):
        if self._coupling is not None:
            raise NotImplementedError("coupled test systems are forward-only")
        return reduce_torus(np.asarray(z, dtype=float) @ self._step_inverse_matrix)

    @cached_property
    def _jac_inv(self):
        return _block_diag(self.base.jacobian_inverse(np.zeros(self.d1)),
                           self.fiber.matrix.inverse().to_float())

    # a contiguous Df^T rounds as the factor maps do (single points too, when
    # their products are exact); with the view Df.T some points move by an ulp
    @cached_property
    def _step_matrix(self):
        return np.ascontiguousarray(self._jac.T)

    @cached_property
    def _step_inverse_matrix(self):
        return np.ascontiguousarray(self._jac_inv.T)

    def jacobian(self, z):
        return _broadcast(z, self._jac)

    def jacobian_inverse(self, z):
        return _broadcast(z, self._jac_inv)

    jacobians = LinearSystem.jacobians

    def skew_unstable_bundle(self):
        axis, rate = self.base.skew_unstable_bundle()
        return np.concatenate([axis, np.zeros(self.d2)]), rate


def build_product(base_system, fiber, coupling=None) -> ProductSystem:
    """Assemble base x fiber after the domination pre-check on exact rates.

    Rejects anything but a 2-dimensional base (the 4-torus deformation is a
    native system, never a product of this builder) and raises
    IncompatibleFiberError naming the violated rate inequality.
    """
    if not isinstance(fiber, ToralAutomorphism):
        fiber = ToralAutomorphism(fiber)
    if base_system.dim != 2:
        raise IncompatibleFiberError(
            f"base must be 2-dimensional (got {base_system.dim}); higher-"
            "dimensional systems are native, not products"
        )
    fiber_lams = np.abs(fiber.splitting.eigenvalues)
    fiber_u = float(np.max(fiber_lams))
    fiber_s = float(np.max(fiber_lams[fiber_lams < 1.0]))
    base_uu_min, _ = base_system.unstable_rate_range()
    base_cs_max = base_system.stable_rate_max()
    if base_uu_min < RATE_MARGIN * fiber_u:
        raise IncompatibleFiberError(
            f"base unstable rate {base_uu_min:.4f} must exceed "
            f"{RATE_MARGIN:.2f} x fiber unstable {fiber_u:.4f}"
        )
    if fiber_u < RATE_MARGIN * base_cs_max:
        raise IncompatibleFiberError(
            f"fiber unstable rate {fiber_u:.4f} must exceed "
            f"{RATE_MARGIN:.2f} x base center-stable {base_cs_max:.4f}"
        )
    if fiber_u < RATE_MARGIN * fiber_s:
        raise IncompatibleFiberError(
            f"fiber unstable {fiber_u:.4f} must dominate fiber stable {fiber_s:.4f}"
        )
    return ProductSystem(base_system, fiber, coupling=coupling)


def commuting_diagram_check(ps: ProductSystem, n_points: int = 1000, rng=None):
    """Max residuals of the two factor diagrams over random points, the block
    map g against the independent factor maps base.step and fiber.apply.

    Returns {"base": max ||pi12(g z) - f(pi12 z)||, "fiber": the same for pi2/T},
    both in the torus metric, the projections pi12 and pi2 being the first d1
    and the last d2 coordinates; exact products give values at rounding level.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    z = rng.random((n_points, ps.dim))
    gz = ps.step(z)
    d1 = ps.d1
    base_res = torus_distance(gz[:, :d1], ps.base.step(z[:, :d1]))
    fiber_res = torus_distance(gz[:, d1:], ps.fiber.apply(z[:, d1:]))
    return {"base": float(np.max(base_res)), "fiber": float(np.max(fiber_res))}
