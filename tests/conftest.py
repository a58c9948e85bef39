import copy

import numpy as np
import pytest
from hypothesis import settings

from phlab.bump import SmoothBump, compute_M
from phlab.deformation import (
    ParamCaps,
    center_gap_condition,
    eigenvalue_rates,
    search_params,
)
from phlab.ergodic import make_rng

# one deterministic profile for every property test: the same examples on every
# run, no deadline, and no example database written into the checkout
settings.register_profile("phlab", deadline=None, derandomize=True, database=None)
settings.load_profile("phlab")


@pytest.fixture(scope="session")
def bump():
    return SmoothBump(1.0 / 40.0)


@pytest.fixture(scope="session")
def bump_bound(bump):
    return compute_M(bump)


# the systems of the session fixtures below, which every later test shares
SESSION_SYSTEMS = []


@pytest.fixture(scope="session")
def system(bump_bound):
    SESSION_SYSTEMS.append(search_params(bump_bound, ParamCaps()))
    return SESSION_SYSTEMS[-1]


@pytest.fixture(scope="session")
def params(system):
    return system.params


@pytest.fixture(scope="session")
def tilde(system):
    SESSION_SYSTEMS.append(system.make_tilde(0.05))
    return SESSION_SYSTEMS[-1]


def method_overrides(obj):
    """Names in vars(obj) that shadow a method of its class.  Undoing
    monkeypatch.setattr(obj, name, ...) leaves one: it sets back the bound
    method that getattr returned, and copy.copy(obj) then carries it, bound to
    obj, into the copy."""
    return sorted(name for name in vars(obj) if callable(getattr(type(obj), name, None)))


def with_method(obj, name, fn):
    """A shallow copy of obj whose attribute name is fn; obj is left as it was."""
    twin = copy.copy(obj)
    setattr(twin, name, fn)
    return twin


@pytest.fixture(autouse=True)
def session_systems_keep_their_methods():
    """Fails a test that leaves a method override on a session system fixture
    (and removes it, so that later tests see the class's method)."""
    yield
    for obj in SESSION_SYSTEMS:
        leaked = method_overrides(obj)
        for name in leaked:
            delattr(obj, name)
        if leaked:
            pytest.fail(f"the test left instance overrides of {leaked} on a session system")


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
