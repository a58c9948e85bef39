import numpy as np
import pytest

from phlab.bump import compute_M, make_bump
from phlab.deformation import (
    ParamCaps,
    build_deformed_system,
    center_gap_condition,
    eigenvalue_rates,
    search_params,
)
from phlab.ergodic import make_rng


@pytest.fixture(scope="session")
def bump():
    return make_bump(1.0 / 40.0)


@pytest.fixture(scope="session")
def bump_bound(bump):
    return compute_M(bump)


@pytest.fixture(scope="session")
def params(bump_bound):
    return search_params(bump_bound, ParamCaps())


@pytest.fixture(scope="session")
def system(params, bump):
    return build_deformed_system(params, bump=bump)


@pytest.fixture(scope="session")
def tilde(system):
    return system.make_tilde(0.05)


@pytest.fixture()
def rng():
    return make_rng(20240601)


def chart_points(system, rng, n):
    """Uniform points in the p-chart cube, mapped to the torus."""
    coords = (rng.random((n, 4)) - 0.5) * 4.0 * system.params.delta
    return system.chart_p.from_chart(coords)


def eps1_for(n, m):
    """The eps1 that search_params picks for the pair (n, m)."""
    lu = eigenvalue_rates(n, m)[2]
    return next(e for e in ParamCaps().eps1_candidates if center_gap_condition(e, lu)[3])


def random_cloud(rng, n, d=4):
    return rng.random((n, d))


np.seterr(all="raise", under="ignore")
