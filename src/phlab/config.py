"""Experiment configuration: JSON parsing, validation, system assembly.

A config fully determines a run: replaying the same file with the same build
reproduces every CSV byte for byte.  Numbers are parsed by the json module,
so there is no locale dependence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .bump import compute_M, make_bump
from .deformation import (
    DeformationParams,
    ParamCaps,
    build_deformed_system,
    search_params,
)
from .errors import ConfigError
from .product import LinearSystem, build_product
from .torus import ToralAutomorphism


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
        seed = raw.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ConfigError("seed: expected a non-negative integer")
        system = raw.get("system")
        if not isinstance(system, dict):
            raise ConfigError("system: expected an object")
        kind = system.get("kind")
        if kind not in ("deformed", "tilde", "linear", "product"):
            raise ConfigError(
                f"system.kind: expected deformed|tilde|linear|product, got {kind!r}"
            )
        task = raw.get("task", {})
        if not isinstance(task, dict):
            raise ConfigError("task: expected an object")
        out = raw.get("output_dir", "out")
        if not isinstance(out, str):
            raise ConfigError("output_dir: expected a string")
        _validate_system(system)
        return cls(seed=seed, system=system, task=task, output_dir=out)

    def task_value(self, key, default):
        value = self.task.get(key, default)
        # bool is a subclass of int, so it is told apart explicitly
        if isinstance(value, bool) != isinstance(default, bool) or (
            not isinstance(value, type(default))
            and not (isinstance(default, float) and isinstance(value, int))
        ):
            raise ConfigError(f"task.{key}: expected {type(default).__name__}")
        return value


def _cat_power_from_id(base_id):
    """Resolve a base id like 'cat' or 'cat^3' to an integer matrix, else None."""
    from .torus import IntegerMatrix, CAT_MAP

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


def _validate_system(system):
    kind = system["kind"]
    if kind == "linear":
        _validate_matrix(system.get("matrix"), "system.matrix")
    elif kind == "product":
        if "base_id" in system:
            if _cat_power_from_id(system["base_id"]) is None:
                raise ConfigError(
                    "system.base_id: expected 'cat' or 'cat^<k>' naming a cat-map power"
                )
        else:
            _validate_matrix(system.get("base_matrix"), "system.base_matrix")
        _validate_matrix(system.get("fiber_matrix"), "system.fiber_matrix")
    else:
        if not system.get("auto_params", True):
            for key in ("n", "m", "k"):
                if not _is_number(system.get(key)):
                    raise ConfigError(f"system.{key}: required when auto_params is false")
        delta = system.get("delta", 1.0 / 40.0)
        if not _is_number(delta) or not 0 < delta <= 1.0 / 40.0:
            raise ConfigError("system.delta: expected a number in (0, 1/40]")
        if kind == "tilde":
            et = system.get("eps_tilde", 0.05)
            if not _is_number(et) or et <= 0:
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
        system = build_product(base, ToralAutomorphism(spec["fiber_matrix"]))
        return system, {
            "kind": kind,
            "base_matrix": [list(r) for r in base.auto.matrix.entries],
            "fiber_matrix": spec["fiber_matrix"],
        }

    delta = float(spec.get("delta", 1.0 / 40.0))
    bump = make_bump(delta)
    bound = compute_M(bump)
    if spec.get("auto_params", True):
        caps = ParamCaps(delta=delta)
        params = search_params(bound, caps)
    else:
        params = DeformationParams(
            n=int(spec["n"]),
            m=int(spec["m"]),
            delta=delta,
            k=float(spec["k"]),
            eps1=float(spec.get("eps1", 0.01)),
        )
    system = build_deformed_system(params, bump=bump, bound=bound)
    if kind == "tilde":
        system = system.make_tilde(float(spec.get("eps_tilde", 0.05)))
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
