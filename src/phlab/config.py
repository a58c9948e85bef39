"""Experiment configuration: JSON parsing, validation, system assembly.

A config fully determines a run: replaying the same file with the same build
reproduces every CSV byte for byte.  Numbers are parsed by the json module,
so there is no locale dependence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .bump import SmoothBump, compute_M
from .deformation import (
    DeformationParams,
    ParamCaps,
    build_deformed_system,
    search_params,
)
from .errors import ConfigError, IncompatibleFiberError, NotHyperbolicError
from .errors import ParameterTooLargeError
from .product import LinearSystem, build_product
from .torus import CAT_MAP, IntegerMatrix, ToralAutomorphism, eigen_split


@dataclass
class ExperimentConfig:
    seed: int
    system: dict
    task: dict = field(default_factory=dict)
    output_dir: str = "out"

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ConfigError("top level: expected an object")
        _refuse_unknown(raw, _CONFIG_KEYS, "")
        seed = raw.get("seed", 0)
        # Philox keys are uint64 words, and gibbs keys an orbit with seed + 11
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed <= 2**64 - 12:
            raise ConfigError("seed: expected an integer in [0, 2**64 - 12]")
        system = raw.get("system")
        if not isinstance(system, dict):
            raise ConfigError("system: expected an object")
        kind = system.get("kind")
        if kind not in ("deformed", "tilde", "linear", "product"):
            raise ConfigError(
                f"system.kind: expected deformed|tilde|linear|product, got {kind!r}"
            )
        _refuse_unknown(system, _SYSTEM_KEYS[kind], "system.")
        task = raw.get("task", {})
        if not isinstance(task, dict):
            raise ConfigError("task: expected an object")
        out = raw.get("output_dir", "out")
        if not isinstance(out, str) or not out:
            raise ConfigError("output_dir: expected a non-empty string")
        _validate_system(system)
        return cls(seed=seed, system=system, task=task, output_dir=out)

    def task_values(self, defaults):
        """defaults, with each key the task section sets checked against the type
        of its default (int for None, which the task works out) and its bounds."""
        values = dict(defaults)
        for key in (key for key in self.task if key in defaults):
            value = values[key] = self.task[key]
            kind = int if defaults[key] is None else type(defaults[key])
            # bool is a subclass of int, so it is told apart explicitly
            if isinstance(value, bool) or not (
                isinstance(value, kind) or (kind is float and isinstance(value, int))
            ):
                raise ConfigError(f"task.{key}: expected {kind.__name__}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"task.{key}: expected a finite number, got {value}")
            low, high = _TASK_MINIMUM.get(key, 1), _TASK_MAXIMUM.get(key, math.inf)
            if kind is int and not low <= value <= high:
                raise ConfigError(f"task.{key}: expected an integer in [{low}, {high}], got {value}")
            if key in _TASK_POSITIVE and not value > 0:
                raise ConfigError(f"task.{key}: expected a number > 0, got {value}")
        return values


_CONFIG_KEYS = ("seed", "system", "task", "output_dir")
# the keys each system kind may set; _validate_system refuses n, m, k and eps1
# unless auto_params is false, and a product's base_matrix beside its base_id
_MANUAL_KEYS = ("n", "m", "k", "eps1")
_DEFORMED_KEYS = ("kind", "auto_params", *_MANUAL_KEYS, "delta")
_SYSTEM_KEYS = {
    "deformed": _DEFORMED_KEYS,
    "tilde": (*_DEFORMED_KEYS, "eps_tilde"),
    "linear": ("kind", "matrix"),
    "product": ("kind", "base_id", "base_matrix", "fiber_matrix"),
}


def _refuse_unknown(section, known, prefix):
    """Exit 2 on the first key, in sorted order, that the section does not read."""
    unknown = sorted(str(key) for key in section if key not in known)
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}: unknown key; expected one of {', '.join(known)}")


# lower bounds of integer task values that differ from the default bound of 1:
# fd_points >= 4 puts at least one finite-difference point in each cube, and
# bump_samples and plaque_samples need two samples for a difference or a spread
_TASK_MINIMUM = {"n_orbits": 2, "transient": 0, "tracker_warmup": 0, "fd_points": 4,
                 "bump_samples": 2, "plaque_samples": 2}
# upper bounds: verify-construction's chart mesh holds grid_points ** 4 points
_TASK_MAXIMUM = {"grid_points": 16}
# float task values that must be positive
_TASK_POSITIVE = {"arc_resolution", "tol", "plaque_half_length", "arc_length", "eps_tilde_check"}


def _cat_power_from_id(base_id):
    """Resolve a base id like 'cat' or 'cat^3' to an integer matrix, else None."""

    if not isinstance(base_id, str):
        return None
    name, _, power = base_id.partition("^")
    if name != "cat":
        return None
    try:
        k = int(power) if power else 1
    except ValueError:
        return None
    if k < 1:
        return None
    return [list(r) for r in IntegerMatrix(CAT_MAP).power(k).entries]


def _validate_matrix(entries, path):
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{path}: expected a non-empty row-major integer matrix")
    n = len(entries)
    for row in entries:
        if not isinstance(row, list) or len(row) != n:
            raise ConfigError(f"{path}: matrix must be square")
        for v in row:
            if not isinstance(v, int):
                raise ConfigError(f"{path}: entries must be integers")
    try:  # unimodular, then a 2x2 or block-diagonal 4x4 that is hyperbolic
        eigen_split(IntegerMatrix(entries))
    except (ValueError, NotHyperbolicError) as exc:
        raise ConfigError(f"{path}: {exc}")


def _validate_system(system):
    kind = system["kind"]
    if kind == "linear":
        _validate_matrix(system.get("matrix"), "system.matrix")
    elif kind == "product":
        if "base_id" in system and "base_matrix" in system:
            raise ConfigError("system.base_matrix: give base_id or base_matrix, not both")
        if "base_id" in system:
            if _cat_power_from_id(system["base_id"]) is None:
                raise ConfigError(
                    "system.base_id: expected 'cat' or 'cat^<k>' naming a cat-map power"
                )
        else:
            _validate_matrix(system.get("base_matrix"), "system.base_matrix")
            if len(system["base_matrix"]) != 2:
                raise ConfigError("system.base_matrix: the base of a product must be 2x2")
        _validate_matrix(system.get("fiber_matrix"), "system.fiber_matrix")
    else:
        auto = system.get("auto_params", True)
        if not isinstance(auto, bool):
            raise ConfigError("system.auto_params: expected true or false")
        if auto:
            for key in _MANUAL_KEYS:
                if key in system:
                    raise ConfigError(f"system.{key}: auto_params is true, which selects it; "
                                      "set auto_params to false to give it")
        else:
            for key in ("n", "m"):
                v = system.get(key)
                if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                    raise ConfigError(f"system.{key}: expected an integer >= 1 "
                                      "(required when auto_params is false)")
            if not _is_number(system.get("k")) or not system["k"] > 0:
                raise ConfigError("system.k: expected a number > 0 "
                                  "(required when auto_params is false)")
            eps1 = system.get("eps1", 0.01)
            if not _is_number(eps1) or not 0 < eps1 < 1:
                raise ConfigError("system.eps1: expected a number in (0, 1)")
        delta = system.get("delta", 1.0 / 40.0)
        if not _is_number(delta) or not 0 < delta <= 1.0 / 40.0:
            raise ConfigError("system.delta: expected a number in (0, 1/40]")
        if kind == "tilde":
            et = system.get("eps_tilde", 0.05)
            if not _is_number(et) or not et > 0:
                raise ConfigError("system.eps_tilde: expected a positive number")


def _is_number(value):
    # bool is a subclass of int, so it is told apart explicitly
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def build_system(config: ExperimentConfig):
    """Instantiate the configured system; returns (system, resolved-params dict)."""
    spec = config.system
    kind = spec["kind"]
    if kind == "linear":
        system = LinearSystem(ToralAutomorphism(spec["matrix"]))
        return system, {"kind": kind, "matrix": spec["matrix"]}
    if kind == "product":
        if "base_id" in spec:
            base_entries = _cat_power_from_id(spec["base_id"])
        else:
            base_entries = spec["base_matrix"]
        base = LinearSystem(ToralAutomorphism(base_entries))
        try:
            system = build_product(base, ToralAutomorphism(spec["fiber_matrix"]))
        except IncompatibleFiberError as exc:  # the rate pre-check, base now 2x2
            raise ConfigError(f"system.fiber_matrix: {exc}") from exc
        return system, {
            "kind": kind,
            "base_matrix": [list(r) for r in base.auto.matrix.entries],
            "fiber_matrix": spec["fiber_matrix"],
        }

    delta = float(spec.get("delta", 1.0 / 40.0))
    bump = SmoothBump(delta)
    bound = compute_M(bump)
    if spec.get("auto_params", True):
        system = search_params(bound, ParamCaps(delta=delta))
    else:
        params = DeformationParams(n=spec["n"], m=spec["m"], delta=delta, k=float(spec["k"]),
                                   eps1=float(spec.get("eps1", 0.01)))
        system = build_deformed_system(params, bump=bump, bound=bound)
    if kind == "tilde":
        try:
            system = system.make_tilde(float(spec.get("eps_tilde", 0.05)))
        except ParameterTooLargeError as exc:
            raise ConfigError(f"system.eps_tilde: {exc}") from exc
    params = system.params
    resolved = {
        "kind": kind,
        "n": params.n,
        "m": params.m,
        "delta": params.delta,
        "k": params.k,
        "eps1": params.eps1,
        "eps0": params.eps0,
        "eps_tilde": params.eps_tilde,
        "M": bound.M,
        "luu": system.luu,
        "lu": system.lu,
        "ls": system.ls,
        "lss": system.lss,
        "q": list(system.chart_q.center),
    }
    return system, resolved
