import ast
import copy
import filecmp
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phlab import cli
from phlab import cones as cones_mod
from phlab import config as config_mod
from phlab.cli import _fd_jacobian, main, run_task
from phlab.config import ExperimentConfig, build_system
from phlab.deformation import DeformationParams, build_deformed_system
from phlab.ergodic import make_rng
from phlab.errors import ConfigError
from phlab.report import RunReport, fmt

from conftest import eps1_for

DEFORMED = {
    "seed": 11,
    "system": {"kind": "deformed", "auto_params": True},
    "task": {},
}


#: a hand-picked deformed system, and lyapunov task values that keep a run short
MANUAL = {"auto_params": False, "n": 3, "m": 1, "k": 3803}
TINY = {"n_orbits": 2, "orbit_length": 300, "transient": 10, "min_good_orbits": 1}
SMALL_CONSTRUCTION = {"bump_samples": 100, "grid_points": 3, "random_chart_points": 100,
                      "roundtrip_points": 100, "roundtrip_chart_points": 50, "fd_points": 20}

#: the shipped product system, and a block 4x4 fiber that product-checks refuses
PRODUCT = {"kind": "product", "base_id": "cat^3", "fiber_matrix": [[2, 1], [1, 1]]}
FIBER_4X4 = [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]]


def _with_deformed_keys(system):
    """DEFORMED's system updated by system; a linear or product system as given,
    since auto_params is not one of its keys."""
    if system.get("kind") in ("linear", "product"):
        return system
    return {**DEFORMED["system"], **system}


def small(task_overrides=None, **kw):
    cfg = json.loads(json.dumps(DEFORMED))
    cfg["task"] = task_overrides or {}
    cfg.update(kw)
    return ExperimentConfig.from_dict(cfg)


def test_verify_construction_small(tmp_path):
    cfg = small({"bump_samples": 200, "grid_points": 7, "random_chart_points": 2000,
                 "roundtrip_points": 1000, "roundtrip_chart_points": 200,
                 "fd_points": 200})
    report = run_task("verify-construction", cfg, str(tmp_path))
    assert report.all_passed
    assert (tmp_path / "report.txt").exists()
    assert (tmp_path / "report.csv").exists()


def test_verify_cones_small(tmp_path):
    cfg = small({"n_points": 200, "n_vectors": 4})
    report = run_task("verify-cones", cfg, str(tmp_path))
    assert report.all_passed
    assert (tmp_path / "cones.csv").exists()


def test_lyapunov_small(tmp_path):
    cfg = small({"n_orbits": 5, "orbit_length": 3000, "transient": 100,
                 "min_good_orbits": 5})
    report = run_task("lyapunov", cfg, str(tmp_path))
    assert report.all_passed
    assert (tmp_path / "bundle_exponents.csv").exists()
    assert (tmp_path / "lyapunov_history.gp").exists()


def _checks_on_f_and_twin(run, system, tmp_path, **task):
    """{"f": checks, "A": checks} of the subcommand ``run`` on system and on its
    twin with both cube coefs 0, where I_eps is the identity and f = A; each
    check maps to (passed, value).  Both reports name the same checks."""
    twin = copy.copy(system)
    twin.cubes = tuple(replace(cube, coef=0.0) for cube in system.cubes)
    cfg = small()
    checks = {}
    for name, sys_ in (("f", system), ("A", twin)):
        report = RunReport(task=run.__name__, seed=cfg.seed)
        run(cfg, report, str(tmp_path / name), sys_, **task)
        checks[name] = {c.name: (c.passed, c.value) for c in report.checks}
    assert checks["f"].keys() == checks["A"].keys()
    return checks


def _moved(checks):
    return {k for k in checks["f"] if checks["f"][k][1] != checks["A"][k][1]}


def test_lyapunov_negative_control_pins_the_checks_that_see_the_deformation(system, tmp_path):
    """lyapunov on f and on its twin with both cube coefs 0, where I_eps is the
    identity and f = A.  Only the two checks at the fixed point p move, and
    both fail on A: the other checks cannot tell f from A at this size (no
    orbit meets a band), and the one forward pass still sees I_eps at p."""
    checks = _checks_on_f_and_twin(cli.run_lyapunov, system, tmp_path,
                                   n_orbits=20, orbit_length=400)
    moved = _moved(checks)
    assert moved == {"cu-exponent-at-p", "pesin-excluded-at-p"}
    assert all(passed for passed, _ in checks["f"].values())
    assert {k for k, (passed, _) in checks["A"].items() if not passed} == moved


def test_gibbs_negative_control_pins_that_no_check_sees_the_deformation(system, tmp_path):
    """gibbs on f and on its coef = 0 twin (f = A): every check value is the
    same and passes on both.  The plaque, the Cesaro push and the integral
    orbit never meet a band at this size, so none of these checks can tell f
    from A; a check that learns to see I_eps must be added here."""
    checks = _checks_on_f_and_twin(cli.run_gibbs, system, tmp_path, plaque_samples=1000,
                                   cesaro_steps=120, integral_orbit=400)
    assert _moved(checks) == set()
    assert all(passed for c in checks.values() for passed, _ in c.values())


def test_verify_cones_negative_control_pins_that_no_check_sees_the_deformation(system, tmp_path):
    """verify-cones on f and on its coef = 0 twin (f = A): every check value
    is the same and passes on both.  The cone points are uniform on the torus
    and none lands in a band, so the verdicts are about A's Jacobian; a check
    that learns to see I_eps must be added here."""
    checks = _checks_on_f_and_twin(cli.run_verify_cones, system, tmp_path, n_points=300)
    assert _moved(checks) == set()
    assert all(passed for c in checks.values() for passed, _ in c.values())


def test_verify_construction_negative_control_pins_the_checks_that_see_the_deformation(
        system, tmp_path):
    """verify-construction on f and on its coef = 0 twin (f = A).  The cube
    field checks and the two fixed-point Jacobians move; only the Jacobians
    fail on A, since A's dP/dc = dQ/dd = lu lies inside the splitting bounds.
    The round trips, jacobian-fd, the gluing and the inverse chain keep their
    bits: their cube points are uniform over the chart cube and miss the band.
    The tilde checks keep theirs because make_tilde rebuilds the cubes."""
    checks = _checks_on_f_and_twin(cli.run_verify_construction, system, tmp_path,
                                   **SMALL_CONSTRUCTION)
    moved = _moved(checks)
    assert moved == {"cross-partials-sup", "splitting-dPdc-lower", "splitting-dPdc-upper",
                     "splitting-dQdd-lower", "splitting-dQdd-upper", "jacobian-at-p",
                     "jacobian-at-q"}
    assert all(passed for passed, _ in checks["f"].values())
    assert {k for k, (passed, _) in checks["A"].items() if not passed} == {"jacobian-at-p",
                                                                            "jacobian-at-q"}


def test_skeleton_negative_control_pins_that_no_check_sees_the_deformation(system, tmp_path):
    """skeleton on f and on its coef = 0 twin (f = A): every check value is the
    same and passes on both.  The census and the arcs run on the cat map, and
    the tilde checks on make_tilde, which rebuilds the cubes from the params."""
    checks = _checks_on_f_and_twin(cli.run_skeleton, system, tmp_path, census_max_period=3,
                                   arc_length=2.0, arc_resolution=0.02, tol=0.02)
    assert _moved(checks) == set()
    assert all(passed for c in checks.values() for passed, _ in c.values())


def test_gibbs_small(tmp_path):
    cfg = small({"plaque_samples": 2000, "cesaro_steps": 400, "integral_orbit": 5000})
    report = run_task("gibbs", cfg, str(tmp_path))
    assert report.all_passed
    assert (tmp_path / "cesaro_measure.csv").exists()


def _former_fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _former_csv(rows):
    return "".join(",".join(_former_fmt(v) for v in row) + "\n" for row in rows).encode()


def test_gibbs_measure_csv_matches_former_rows(tmp_path, monkeypatch):
    """The streamed CSVs are byte for byte the former argwhere row lists."""
    states = []
    push = cli.gibbs_mod.cesaro_push

    def recording_push(*args, **kwargs):
        states.append(push(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(cli.gibbs_mod, "cesaro_push", recording_push)
    cfg = small({"plaque_samples": 500, "cesaro_steps": 20, "integral_orbit": 300,
                 "grid_side": 6, "tracker_warmup": 10})
    run_task("gibbs", cfg, str(tmp_path))
    acc = states[0].accumulated
    rows = [("i", "j", "k", "l", "mass")]
    for idx in np.argwhere(acc.mass > 0):
        rows.append((*(int(i) for i in idx), float(acc.mass[tuple(idx)])))
    assert (tmp_path / "cesaro_measure.csv").read_bytes() == _former_csv(rows)
    base = acc.marginal((0, 1))
    rows = [("i", "j", "mass")]
    for idx in np.argwhere(base.mass > 0):
        rows.append((int(idx[0]), int(idx[1]), base.mass[tuple(idx)]))
    assert (tmp_path / "base_marginal.csv").read_bytes() == _former_csv(rows)


def test_fmt_matches_former_fmt():
    for value in (True, False, 0.1, -0.0, 1e-300, float("nan"), float("inf"), 3, "x",
                  np.float64(2.5), np.bool_(True), np.int64(7), None):
        assert fmt(value) == _former_fmt(value)


def test_skeleton_small(tmp_path):
    cfg = small({"census_max_period": 4, "arc_length": 2.0, "arc_resolution": 0.002,
                 "tol": 0.002})
    report = run_task("skeleton", cfg, str(tmp_path))
    assert report.all_passed


def test_skeleton_census_to_period_8(tmp_path):
    """The census seed noise shrinks as lambda^-n, so Newton lands on every
    period-n point through period 8; at a fixed 1e-3 it found 298, 590 and
    1421 of the 320, 841 and 2205 points of periods 6, 7 and 8 (seed 20240601)."""
    cfg = small({"census_max_period": 8, "arc_length": 0.2, "arc_resolution": 0.05,
                 "tol": 0.05})
    report = run_task("skeleton", cfg, str(tmp_path))
    census = next(c for c in report.checks if c.name == "periodic-census")
    assert census.passed and census.value == 2205
    assert (tmp_path / "census.csv").read_text().splitlines()[-3:] == [
        "6,320,320", "7,841,841", "8,2205,2205"]


class _Censused(Exception):
    """Raised in place of enumerate_periodic: the run reached the census."""


def _refuse_census(*args):
    raise _Censused


@pytest.mark.parametrize("period", [14, 15, 40])
def test_skeleton_refuses_an_unreachable_census(tmp_path, capsys, monkeypatch, period):
    """The cat map has 710645 period-14 points and 1860496 of period 15, above
    torus.ENUMERATION_CAP: from period 15 on the run exits 2, naming the key,
    before any period is searched (a period-40 census once ran for minutes
    and then raised).  Period 14 reaches the census."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**DEFORMED, "task": {"census_max_period": period}}))
    monkeypatch.setattr(cli, "enumerate_periodic", _refuse_census)
    argv = ["skeleton", str(path), "--out", str(tmp_path / "out")]
    if period == 14:
        with pytest.raises(_Censused):
            main(argv)
        return
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert "config error: task.census_max_period" in capsys.readouterr().err


def test_product_checks_small(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "seed": 11,
        "system": {"kind": "product", "base_matrix": [[13, 8], [8, 5]],
                   "fiber_matrix": [[2, 1], [1, 1]]},
        "task": {"diagram_points": 500, "plaque_samples": 1500, "cesaro_steps": 200,
                 "identity_orbit": 2000, "grid_side": 8},
    })
    report = run_task("product-checks", cfg, str(tmp_path))
    assert report.all_passed


def test_tilde_system_config(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "seed": 3,
        "system": {"kind": "tilde", "auto_params": True, "eps_tilde": 0.05},
        "task": {"census_max_period": 2, "arc_length": 1.5, "arc_resolution": 0.003,
                 "tol": 0.003},
    })
    report = run_task("skeleton", cfg, str(tmp_path))
    assert report.all_passed


def test_verify_construction_on_tilde_reports_true_cross_partial_sup(tmp_path):
    """At the shipped k, make_tilde(0.05) raises |coef| by 0.05, and its cross
    partials reach 1.0308e-3 at the point cross_partial_sup names: above the
    cone budget eps0 = 1e-3, so the check fails (the slab-grid scan it
    replaced read 9.375e-4 and passed)."""
    cfg = ExperimentConfig.from_dict({
        "seed": 3,
        "system": {"kind": "tilde", "auto_params": True, "eps_tilde": 0.05},
        "task": SMALL_CONSTRUCTION,
    })
    report = run_task("verify-construction", cfg, str(tmp_path))
    check = next(c for c in report.checks if c.name == "cross-partials-sup")
    assert check.value == pytest.approx(1.0308e-3, abs=1e-7)
    assert check.value == build_system(cfg)[0].cross_partial_sup()
    assert not check.passed


def test_determinism_byte_identical(tmp_path):
    """Same config and seed: every CSV artifact byte-identical across runs."""
    cfg = small({"n_points": 150, "n_vectors": 4})
    run_task("verify-cones", cfg, str(tmp_path / "a"))
    run_task("verify-cones", cfg, str(tmp_path / "b"))
    for name in ("report.csv", "cones.csv"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)


def test_malformed_matrix_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({
            "seed": 1,
            "system": {"kind": "linear", "matrix": [[2, 1], [1]]},
        })
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({
            "seed": 1,
            "system": {"kind": "linear", "matrix": [[2.5, 1], [1, 1]]},
        })


def test_bad_kind_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"seed": 1, "system": {"kind": "magic"}})


def test_missing_params_when_manual():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({
            "seed": 1,
            "system": {"kind": "deformed", "auto_params": False, "n": 3},
        })


def test_main_usage_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": 1, "system": {"kind": "linear", "matrix": [[2,1],[1]]}}')
    assert main(["verify-cones", str(bad)]) == 2
    missing = tmp_path / "does-not-exist.json"
    assert main(["verify-cones", str(missing)]) == 2


@pytest.mark.parametrize("override, field", [
    ({"seed": True}, "seed"),
    ({"task": {"n_orbits": True}}, "task.n_orbits"),
])
def test_main_rejects_bool_for_int(tmp_path, capsys, override, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**DEFORMED, **override}))
    assert main(["lyapunov", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, system, task, field", [
    ("lyapunov", {}, {"orbit_length": 100, "transient": 200}, "task.orbit_length"),
    ("lyapunov", {}, {"orbit_length": 200}, "task.orbit_length"),
    ("gibbs", {}, {"plaque_samples": 100, "cesaro_steps": 5, "integral_orbit": 200},
     "task.integral_orbit"),
    ("lyapunov", {"delta": "x"}, {}, "system.delta"),
    ("lyapunov", {"delta": 0.5}, {}, "system.delta"),
    ("lyapunov", {"delta": 0.0}, {}, "system.delta"),
    ("lyapunov", {"delta": True}, {}, "system.delta"),
    ("lyapunov", {"auto_params": False, "n": True, "m": 1, "k": 3803}, {}, "system.n"),
    ("lyapunov", {"auto_params": False, "n": 3, "m": 1, "k": False}, {}, "system.k"),
    ("lyapunov", {"kind": "tilde", "eps_tilde": True}, {}, "system.eps_tilde"),
    ("lyapunov", {}, {"n_orbits": 1}, "task.n_orbits"),
    ("lyapunov", {}, {"n_orbits": 0}, "task.n_orbits"),
    ("lyapunov", {}, {"transient": -5}, "task.transient"),
    ("lyapunov", {}, {"pesin_horizon": 0}, "task.pesin_horizon"),
    ("gibbs", {}, {"plaque_samples": 0}, "task.plaque_samples"),
    ("gibbs", {}, {"cesaro_steps": 0}, "task.cesaro_steps"),
    ("gibbs", {}, {"grid_side": 0}, "task.grid_side"),
    ("verify-cones", {}, {"n_points": 0}, "task.n_points"),
    ("verify-cones", {}, {"n_vectors": 0}, "task.n_vectors"),
    ("verify-cones", {}, {"sandwich_steps": -1}, "task.sandwich_steps"),
    ("lyapunov", {**MANUAL, "eps1": "x"}, TINY, "system.eps1"),
    ("lyapunov", {**MANUAL, "n": 3.7}, TINY, "system.n"),
    ("lyapunov", {**MANUAL, "k": -5}, TINY, "system.k"),
    ("lyapunov", {"auto_params": "no"}, TINY, "system.auto_params"),
    ("skeleton", {"kind": "linear", "matrix": [[2, 0], [0, 1]]}, {}, "system.matrix"),
    ("product-checks", {"kind": "product", "base_matrix": [[2, 0], [0, 1]],
                        "fiber_matrix": [[2, 1], [1, 1]]}, {}, "system.base_matrix"),
    ("product-checks", {"kind": "product", "base_id": "cat^3",
                        "fiber_matrix": [[2, 0], [0, 1]]}, {}, "system.fiber_matrix"),
    ("skeleton", {}, {"arc_resolution": -0.01}, "task.arc_resolution"),
    ("skeleton", {}, {"arc_resolution": 0.0}, "task.arc_resolution"),
    ("skeleton", {}, {"tol": 0.0}, "task.tol"),
    ("skeleton", {"kind": "tilde", "eps_tilde": float("nan")}, {}, "system.eps_tilde"),
    ("skeleton", {"kind": "linear", "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, {},
     "system.matrix"),
    ("skeleton", {"kind": "linear", "matrix": [[2, 1, 0, 0], [1, 1, 1, 0], [0, 0, 2, 1],
                                               [0, 0, 1, 1]]}, {}, "system.matrix"),
    ("skeleton", {"kind": "linear", "matrix": [[1]]}, {}, "system.matrix"),
    ("skeleton", {"kind": "linear", "matrix": [[1, 1], [0, 1]]}, {}, "system.matrix"),
    ("skeleton", {"kind": "linear", "matrix": [[0, -1], [1, 0]]}, {}, "system.matrix"),
    ("skeleton", {"kind": "linear", "matrix": [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1],
                                               [0, 0, 0, 1]]}, {}, "system.matrix"),
    ("product-checks", {"kind": "product", "base_matrix": [[1, 1], [0, 1]],
                        "fiber_matrix": [[2, 1], [1, 1]]}, {}, "system.base_matrix"),
    ("product-checks", {"kind": "product", "base_id": "cat^3",
                        "fiber_matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, {},
     "system.fiber_matrix"),
    ("product-checks", {"kind": "product", "base_id": "cat^3",
                        "fiber_matrix": [[-1, 0], [0, -1]]}, {}, "system.fiber_matrix"),
    ("product-checks", {"kind": "product", "base_id": "cat",
                        "fiber_matrix": [[2, 1], [1, 1]]}, {}, "system.fiber_matrix"),
    ("product-checks", {"kind": "product", "base_matrix": [[2, 1, 0, 0], [1, 1, 0, 0],
                                                           [0, 0, 2, 1], [0, 0, 1, 1]],
                        "fiber_matrix": [[2, 1], [1, 1]]}, {}, "system.base_matrix"),
    ("gibbs", {}, {"plaque_half_length": float("nan")}, "task.plaque_half_length"),
    ("gibbs", {}, {"plaque_half_length": float("inf")}, "task.plaque_half_length"),
    ("skeleton", {}, {"arc_length": float("nan")}, "task.arc_length"),
    ("skeleton", {}, {"arc_length": -1.0}, "task.arc_length"),
    ("skeleton", {}, {"arc_resolution": float("inf")}, "task.arc_resolution"),
    ("verify-construction", {}, {**SMALL_CONSTRUCTION, "eps_tilde_check": float("nan")},
     "task.eps_tilde_check"),
    ("verify-construction", {}, {**SMALL_CONSTRUCTION, "eps_tilde_check": -0.5},
     "task.eps_tilde_check"),
    ("verify-construction", {}, {**SMALL_CONSTRUCTION, "fd_points": 1}, "task.fd_points"),
    ("verify-construction", {}, {**SMALL_CONSTRUCTION, "fd_points": 3}, "task.fd_points"),
    ("verify-construction", {}, {**SMALL_CONSTRUCTION, "bump_samples": 1},
     "task.bump_samples"),
    ("gibbs", {}, {"plaque_samples": 1, "cesaro_steps": 5, "integral_orbit": 300},
     "task.plaque_samples"),
    # cross-key rules, checked before any orbit runs
    ("lyapunov", {}, {"n_orbits": 2, "orbit_length": 20002, "transient": 20000},
     "task.transient"),
    ("lyapunov", {}, {**TINY, "min_good_orbits": 5}, "task.min_good_orbits"),
    ("lyapunov", {}, {**TINY, "min_good_orbits": 3}, "task.min_good_orbits"),
    ("gibbs", {}, {"cesaro_steps": 30}, "task.tracker_warmup"),
    ("gibbs", {}, {"cesaro_steps": 20, "tracker_warmup": 20}, "task.tracker_warmup"),
    # product-checks reads every task value and checks its fiber before any orbit
    ("product-checks", {**PRODUCT, "fiber_matrix": FIBER_4X4}, {}, "system.fiber_matrix"),
    ("product-checks", PRODUCT, {"identity_orbit": 0}, "task.identity_orbit"),
    ("product-checks", PRODUCT, {"grid_side": 0}, "task.grid_side"),
    ("product-checks", PRODUCT, {"plaque_samples": 1}, "task.plaque_samples"),
    ("product-checks", PRODUCT, {"cesaro_steps": 0}, "task.cesaro_steps"),
    # a tilde map must keep dP/dc and dQ/dd positive, so eps_tilde < 1
    ("lyapunov", {"kind": "tilde", "eps_tilde": 1.0}, TINY, "system.eps_tilde"),
    ("verify-construction", {}, {**SMALL_CONSTRUCTION, "eps_tilde_check": 1.0},
     "task.eps_tilde_check"),
    # verify-construction reads every task value before its first check
    ("verify-construction", {}, {**SMALL_CONSTRUCTION, "roundtrip_points": 0},
     "task.roundtrip_points"),
    # a Cesàro grid of more than MAX_GRID_BINS bins is refused before it is allocated
    ("gibbs", {}, {"grid_side": 300}, "task.grid_side"),
    ("gibbs", {}, {"grid_side": 33}, "task.grid_side"),
    ("product-checks", PRODUCT, {"grid_side": 300}, "task.grid_side"),
    # a chart mesh of more than MAX_GRID_POINTS per side is refused before it is built
    ("verify-construction", {}, {**SMALL_CONSTRUCTION, "grid_points": 17}, "task.grid_points"),
    ("verify-construction", {}, {**SMALL_CONSTRUCTION, "grid_points": 100}, "task.grid_points"),
    # auto_params selects n, m, k and eps1, so a value given beside it is refused, not
    # dropped; so is a base_matrix beside a base_id
    ("lyapunov", {"n": 3}, TINY, "system.n"),
    ("lyapunov", {"m": 1}, TINY, "system.m"),
    ("lyapunov", {"k": 3803}, TINY, "system.k"),
    ("lyapunov", {"kind": "tilde", "eps1": 0.01}, TINY, "system.eps1"),
    ("product-checks", {**PRODUCT, "base_matrix": [[13, 8], [8, 5]]}, {}, "system.base_matrix"),
])
def test_main_bad_values_exit_2_naming_the_field(tmp_path, capsys, monkeypatch, subcommand,
                                                 system, task, field):
    _assert_exits_2_before_any_check(tmp_path, capsys, monkeypatch, subcommand, system, task,
                                     field)


def _assert_exits_2_before_any_check(tmp_path, capsys, monkeypatch, subcommand, system, task,
                                     field):
    """The config exits 2 naming field, before any check is recorded and
    before any spectrum orbit runs."""

    def no_orbit(*args, **kwargs):
        raise AssertionError("a spectrum orbit ran before the config was checked")

    def no_check(*args, **kwargs):
        raise AssertionError("a check ran before the config was checked")

    monkeypatch.setattr(cli, "lyapunov_spectrum", no_orbit)
    monkeypatch.setattr(RunReport, "add", no_check)
    cfg = {**DEFORMED, "system": _with_deformed_keys(system), "task": task}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([subcommand, str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


def test_cesaro_grid_cap_is_inclusive():
    """The shipped sizes (16 for gibbs, 12 for product-checks) and grids of
    exactly MAX_GRID_BINS bins pass; one more bin per side does not."""

    for side, dim in ((16, 4), (12, 4), (32, 4), (1024, 2)):
        assert cli._cesaro_grid(side, dim) == (side,) * dim
    for side, dim in ((33, 4), (1025, 2)):
        with pytest.raises(ConfigError, match="task.grid_side"):
            cli._cesaro_grid(side, dim)


#: every (subcommand, task key, default) of the former task_value calls; None
#: stands for the former default n_orbits - 1
FORMER_TASK_KEYS = {
    "verify-construction": {"bump_samples": 1000, "grid_points": 11,
                            "random_chart_points": 20_000, "roundtrip_points": 10_000,
                            "roundtrip_chart_points": 1000, "fd_points": 1000,
                            "eps_tilde_check": 0.05},
    "verify-cones": {"n_points": 2000, "n_vectors": 5, "sandwich_steps": 20},
    "lyapunov": {"n_orbits": 20, "orbit_length": 20_000, "transient": 200, "pesin_horizon": 4,
                 "min_good_orbits": None},
    "gibbs": {"plaque_samples": 10_000, "cesaro_steps": 2000, "grid_side": 16,
              "plaque_half_length": 0.1, "integral_orbit": 20_000, "tracker_warmup": 50},
    "skeleton": {"census_max_period": 5, "arc_length": 3.0, "arc_resolution": 1e-3,
                 "tol": 1e-4},
    "product-checks": {"diagram_points": 2000, "identity_orbit": 5000, "grid_side": 12,
                       "plaque_samples": 4000, "cesaro_steps": 400},
}


def test_task_keys_keep_the_former_defaults_and_bounds():
    assert sum(map(len, FORMER_TASK_KEYS.values())) == 30
    assert repr(cli.TASK_KEYS) == repr(FORMER_TASK_KEYS)  # repr tells 3 from 3.0
    assert config_mod._TASK_MINIMUM == {"n_orbits": 2, "transient": 0, "tracker_warmup": 0,
                                        "fd_points": 4, "bump_samples": 2, "plaque_samples": 2}
    assert config_mod._TASK_MAXIMUM == {"grid_points": 16}
    assert config_mod._TASK_POSITIVE == {"arc_resolution", "tol", "plaque_half_length",
                                         "arc_length", "eps_tilde_check"}
    assert cli.MAX_GRID_BINS == 2**20


class _Built(Exception):
    """Raised in place of build_system: the run got past every up-front check."""


def _refuse_build(config):
    raise _Built


@pytest.mark.parametrize("subcommand, system, task, field", [
    ("skeleton", {}, {"orbit_lenght": 500}, "task.orbit_lenght"),
    ("lyapunov", {}, {**TINY, "seed": 3}, "task.seed"),
    ("verify-construction", {}, {"roundtrip_points": 0}, "task.roundtrip_points"),
    ("verify-construction", {}, {"grid_points": 17}, "task.grid_points"),
    # read on a tilde system too, where no tilde variant is built from it
    ("verify-construction", {"kind": "tilde"}, {"eps_tilde_check": -0.5},
     "task.eps_tilde_check"),
    ("gibbs", {}, {"plaque_half_length": "x"}, "task.plaque_half_length"),
    ("lyapunov", {}, {"min_good_orbits": 2.0}, "task.min_good_orbits"),
    ("product-checks", PRODUCT, {"diagram_points": 1.5}, "task.diagram_points"),
])
def test_bad_task_key_exits_2_before_the_system_is_built(tmp_path, capsys, monkeypatch,
                                                         subcommand, system, task, field):
    monkeypatch.setattr(cli, "build_system", _refuse_build)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, "system": _with_deformed_keys(system),
                                "task": task}))
    assert main([subcommand, str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_task_keys_of_other_subcommands_are_accepted(tmp_path, monkeypatch):
    """One task section may serve several subcommands, as configs/deformed.json does."""
    monkeypatch.setattr(cli, "build_system", _refuse_build)
    cfg = small({**TINY, **SMALL_CONSTRUCTION, "diagram_points": 5, "tol": 0.5})
    for subcommand in ("verify-construction", "lyapunov", "skeleton"):
        with pytest.raises(_Built):
            run_task(subcommand, cfg, str(tmp_path))


@pytest.mark.parametrize("seed", [2**64 - 11, 2**64])
def test_main_refuses_a_seed_past_the_philox_key(tmp_path, capsys, seed):
    """Philox takes uint64 key words and gibbs keys an orbit with seed + 11."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**DEFORMED, "seed": seed}))
    assert main(["gibbs", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error: seed:" in capsys.readouterr().err


def test_largest_seed_is_accepted():
    assert ExperimentConfig.from_dict({**DEFORMED, "seed": 2**64 - 12}).seed == 2**64 - 12
    make_rng(2**64 - 12 + 11, 29)


def test_main_refuses_an_output_dir_it_cannot_create(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**DEFORMED, "output_dir": ""}))
    assert main(["lyapunov", str(path)]) == 2
    assert "config error: output_dir:" in capsys.readouterr().err
    path.write_text(json.dumps({**DEFORMED, "task": TINY, "output_dir": str(blocker / "out")}))
    assert main(["lyapunov", str(path)]) == 2
    assert "config error: output_dir:" in capsys.readouterr().err
    path.write_text(json.dumps({**DEFORMED, "task": TINY}))
    assert main(["lyapunov", str(path), "--out", str(blocker / "out")]) == 2
    assert "config error: output_dir:" in capsys.readouterr().err


REPO = os.path.join(os.path.dirname(__file__), os.pardir)


def _readme():
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def test_shipped_configs_pass_the_task_check(tmp_path, monkeypatch):
    """Every config in configs/ passes the up-front checks of each subcommand the
    README runs it with; no system is built."""
    runs = re.findall(r"^phlab ([\w-]+) configs/(\S+\.json)$", _readme(), re.M)
    assert {name for _, name in runs} == set(os.listdir(os.path.join(REPO, "configs")))
    monkeypatch.setattr(cli, "build_system", _refuse_build)
    for subcommand, name in runs:
        cfg = ExperimentConfig.from_file(os.path.join(REPO, "configs", name))
        with pytest.raises(_Built):
            run_task(subcommand, cfg, str(tmp_path))


def test_readme_task_tables_match_task_keys():
    """The README's table per subcommand lists its keys and defaults; the first
    code span of a default cell is its Python literal."""
    tables, current = {}, None
    for line in _readme().splitlines():
        heading = re.fullmatch(r"#### `([\w-]+)`", line)
        row = re.match(r"\| `(\w+)` \| `([^`]+)`", line)
        if heading:
            current = tables.setdefault(heading.group(1), {})
        elif row and current is not None:
            current[row.group(1)] = ast.literal_eval(row.group(2))
    assert tables == cli.TASK_KEYS


def _readme_bounds():
    """{(subcommand, key): bound cell} of the README's task tables."""
    bounds, current = {}, None
    for line in _readme().splitlines():
        heading = re.fullmatch(r"#### `([\w-]+)`", line)
        row = re.fullmatch(r"\| `(\w+)` \| [^|]+ \| (.+) \|", line)
        if heading:
            current = heading.group(1)
        elif row and current is not None:
            bounds[current, row.group(1)] = row.group(2)
    return bounds


#: the README bounds that involve another key or the system, which the task
#: checks: (subcommand, key) -> (system, task with the first bad value)
README_TASK_RULES = {
    ("verify-construction", "eps_tilde_check"): ({}, {**SMALL_CONSTRUCTION,
                                                      "eps_tilde_check": 1.0}),
    # luu ** 246 overflows on the shipped system
    ("verify-cones", "sandwich_steps"): ({}, {"sandwich_steps": 246}),
    ("lyapunov", "orbit_length"): ({}, {"orbit_length": 200}),
    ("lyapunov", "transient"): ({}, {"n_orbits": 2, "orbit_length": 20_001,
                                     "transient": 20_000}),
    ("lyapunov", "min_good_orbits"): ({}, {**TINY, "min_good_orbits": 3}),
    ("gibbs", "grid_side"): ({}, {"grid_side": 33}),
    ("gibbs", "integral_orbit"): ({}, {"integral_orbit": 200}),
    ("gibbs", "tracker_warmup"): ({}, {"cesaro_steps": 50}),
    ("skeleton", "census_max_period"): ({}, {"census_max_period": 15}),
    ("product-checks", "grid_side"): (PRODUCT, {"grid_side": 33}),
}


def test_readme_task_bounds_match_the_config_tables():
    """Each README bound cell of the form "integer ≥ N", "integer in [a, b]" or
    "number > 0" is config's table entry for the key; every other cell, and
    every upper bound that is not config's, is a rule the task checks."""
    bounds = _readme_bounds()
    assert bounds.keys() == {(name, key) for name, keys in cli.TASK_KEYS.items() for key in keys}
    assert README_TASK_RULES.keys() <= bounds.keys()
    minimum, maximum, positive = {}, {}, set()
    for (name, key), cell in bounds.items():
        low = re.match(r"integer (?:≥ |in \[)(\d+)", cell)
        high = re.match(r"integer in \[\d+, (\d+)\]", cell)
        if low:
            assert minimum.setdefault(key, int(low.group(1))) == int(low.group(1))
        if high and (name, key) not in README_TASK_RULES:
            maximum[key] = int(high.group(1))
        if cell.startswith("number > 0"):
            positive.add(key)
        elif not low:
            assert (name, key) in README_TASK_RULES, cell
    assert {key: low for key, low in minimum.items() if low != 1} == config_mod._TASK_MINIMUM
    assert maximum == config_mod._TASK_MAXIMUM
    assert positive == config_mod._TASK_POSITIVE


@pytest.mark.parametrize("rule", sorted(README_TASK_RULES), ids="-".join)
def test_readme_task_rules_refuse_their_first_bad_value(tmp_path, capsys, monkeypatch, rule):
    system, task = README_TASK_RULES[rule]
    _assert_exits_2_before_any_check(tmp_path, capsys, monkeypatch, rule[0], system, task,
                                     f"task.{rule[1]}")


def test_sandwich_steps_stop_where_the_lower_bound_overflows(system, tmp_path):
    """luu ** 245 is a float on the shipped system and luu ** 246 overflows:
    245 steps give a finite growth-sandwich, and README_TASK_RULES has 246
    exit 2 naming the key."""
    assert math.isfinite(system.luu ** 245)
    with pytest.raises(OverflowError):
        system.luu ** 246
    cfg = small({"n_points": 1, "n_vectors": 1, "sandwich_steps": 245})
    report = run_task("verify-cones", cfg, str(tmp_path))
    (check,) = (c for c in report.checks if c.name == "growth-sandwich")
    assert check.passed and math.isfinite(check.value)


def test_main_unconverged_plaque_exits_1_without_traceback(tmp_path, capsys, monkeypatch):
    """A plaque whose uu direction does not converge ends the gibbs run with
    exit 1 and one error line, not a traceback."""
    extract = cones_mod.extract_splitting

    def unconverged(*args, **kwargs):
        est = extract(*args, **kwargs)
        est.residuals["uu"] = est.tolerance
        return est

    monkeypatch.setattr(cones_mod, "extract_splitting", unconverged)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**DEFORMED, "task": {"plaque_samples": 100, "cesaro_steps": 60,
                                                     "integral_orbit": 300}}))
    assert main(["gibbs", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: strong-unstable direction not converged")
    assert "Traceback" not in err


def test_skeleton_takes_a_product_with_a_4x4_fiber(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "seed": 1, "system": {**PRODUCT, "fiber_matrix": FIBER_4X4},
        "task": {"census_max_period": 1, "arc_length": 0.2, "arc_resolution": 0.05,
                 "tol": 0.05}}))
    assert main(["skeleton", str(path), "--out", str(tmp_path / "out")]) == 0


#: unimodular matrices of every kind _validate_matrix tells apart: hyperbolic 2x2 and
#: block-diagonal 4x4, non-hyperbolic, and sizes or shapes the builders refuse
UNIMODULAR = [
    [[1]], [[-1]], [[2, 1], [1, 1]], [[1, 1], [1, 0]], [[1, 1], [0, 1]], [[0, 1], [1, 0]],
    [[0, -1], [1, 0]], [[5, 3], [3, 2]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]],
    [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]],
    [[2, 1, 1, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]],
    np.eye(5, dtype=int).tolist(),
]
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-5, 5),
                  st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
                  st.lists(st.integers(-3, 3), max_size=3))
_MATRICES = st.one_of(st.sampled_from(UNIMODULAR), _JUNK, st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
_NUMBERS = st.one_of(st.integers(-2, 5), st.floats(-1.0, 2.0), st.just(3803), _JUNK)
_SYSTEMS = st.one_of(
    st.fixed_dictionaries({"kind": st.sampled_from(["deformed", "tilde"])}, optional={
        "auto_params": st.one_of(st.booleans(), _JUNK), "n": _NUMBERS, "m": _NUMBERS,
        "k": _NUMBERS, "eps1": _NUMBERS, "delta": _NUMBERS, "eps_tilde": _NUMBERS}),
    st.fixed_dictionaries({"kind": st.just("linear"), "matrix": _MATRICES}),
    st.fixed_dictionaries({"kind": st.just("product"), "fiber_matrix": _MATRICES}, optional={
        "base_id": st.one_of(st.sampled_from(["cat", "cat^3", "cat^0", "dog"]), _JUNK),
        "base_matrix": _MATRICES}),
    st.fixed_dictionaries({"kind": _JUNK}),
    _JUNK,
)


#: per subcommand, a valid system and a task that runs in well under a second
FUZZ_BASE = {
    "verify-construction": (DEFORMED["system"], SMALL_CONSTRUCTION),
    "verify-cones": (DEFORMED["system"], {"n_points": 20, "n_vectors": 2, "sandwich_steps": 5}),
    "lyapunov": (DEFORMED["system"], TINY),
    "gibbs": (DEFORMED["system"], {"plaque_samples": 50, "cesaro_steps": 5,
                                   "integral_orbit": 300, "grid_side": 4, "tracker_warmup": 1}),
    "skeleton": (DEFORMED["system"], {"census_max_period": 1, "arc_length": 0.2,
                                      "arc_resolution": 0.05, "tol": 0.05}),
    "product-checks": (PRODUCT, {"diagram_points": 50, "identity_orbit": 300,
                                 "plaque_samples": 50, "cesaro_steps": 5, "grid_side": 4}),
}
#: task values stay small, so that no fuzzed run is long: every orbit, sample
#: count and arc is at most 5 (or its tiny default) long
_TASK_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.text(max_size=3),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -1.0, 0.0, 0.3, 1.5]),
    st.lists(st.integers(-3, 3), max_size=3))
_TASK_KEY_NAMES = st.one_of(
    st.sampled_from(sorted(set().union(*cli.TASK_KEYS.values()))), st.text(max_size=4))
#: replacements for one part of a valid config
_FUZZ_PARTS = {
    "seed": st.one_of(st.integers(0, 2**64 + 5),
                      st.sampled_from([2**64 - 12, 2**64 - 11, 2**64]), _JUNK),
    "output_dir": st.one_of(st.just(""), st.text(max_size=5), _JUNK),
    "system": _SYSTEMS,
    "task": _JUNK,
}


#: extra keys for a config or its system section: misspellings, keys of other
#: sections or kinds, and short text (which may happen to be a known key)
_EXTRA_KEYS = st.one_of(
    st.sampled_from(["seeed", "outptu_dir", "eps_tild", "matrix", "delta", "task", "kind"]),
    st.text(max_size=4))


@st.composite
def _fuzzed_runs(draw):
    """A subcommand and its tiny config with junk in a task key, at most one
    other part replaced or one extra top-level or system key, or junk in place
    of the whole object; and whether an extra key alone must make it exit 2."""
    subcommand = draw(st.sampled_from(sorted(FUZZ_BASE)))
    system, task = FUZZ_BASE[subcommand]
    cfg = {"seed": 1, "system": dict(system),
           "task": {**task, **draw(st.dictionaries(_TASK_KEY_NAMES, _TASK_VALUES, max_size=2))}}
    part = draw(st.sampled_from([None, "object", "extra key", *_FUZZ_PARTS]))
    if part == "object":
        return subcommand, draw(_JUNK), False
    if part == "extra key":
        section, known = draw(st.sampled_from([
            (cfg, config_mod._CONFIG_KEYS),
            (cfg["system"], config_mod._SYSTEM_KEYS[system["kind"]])]))
        key = draw(_EXTRA_KEYS)
        section[key] = draw(_JUNK)
        return subcommand, cfg, key not in known
    if part is not None:
        cfg[part] = draw(_FUZZ_PARTS[part])
    return subcommand, cfg, False


@settings(max_examples=100)
@given(run=_fuzzed_runs())
def test_main_fuzzed_config_never_tracebacks(run):
    """Any config exits 0, 1 or 2 through main(); an exception fails the test.
    A key that its section does not read exits 2."""
    subcommand, cfg, unknown_key = run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        status = main([subcommand, path, "--out", os.path.join(tmp, "out")])
        assert status in ((2,) if unknown_key else (0, 1, 2))


@pytest.mark.parametrize("cfg, field", [
    ({**DEFORMED, "seeed": 5}, "seeed"),
    ({**DEFORMED, "outptu_dir": "x"}, "outptu_dir"),
    ({**DEFORMED, "system": {"kind": "tilde", "eps_tild": 0.5}}, "system.eps_tild"),
    ({**DEFORMED, "system": {"kind": "deformed", "eps_tilde": 0.5}}, "system.eps_tilde"),
    ({**DEFORMED, "system": {"kind": "linear", "matrix": [[2, 1], [1, 1]], "delta": 0.01}},
     "system.delta"),
    ({**DEFORMED, "system": {**PRODUCT, "fiber": [[2, 1], [1, 1]]}}, "system.fiber"),
])
def test_main_unknown_config_keys_exit_2_naming_the_key(tmp_path, capsys, cfg, field):
    """A misspelled top-level or system key is refused, not run at its default."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["skeleton", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {field}: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("system, status", [
    ({"kind": "product", "base_id": "cat^3", "fiber_matrix": [[2, 1], [1, 1]]}, 0),
    # the cat base does not dominate the cat fiber: build_product's rate pre-check
    # refuses it, a config error
    ({"kind": "product", "base_id": "cat", "fiber_matrix": [[2, 1], [1, 1]]}, 2),
    ({"kind": "linear", "matrix": [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]]},
     0),
])
def test_main_valid_matrices_still_run(tmp_path, system, status):
    """Matrices the stricter validation keeps reach the task: 2x2 and block 4x4.
    A fiber that build_product's rate pre-check refuses exits 2."""
    subcommand = "product-checks" if system["kind"] == "product" else "skeleton"
    task = {"census_max_period": 1, "arc_length": 0.2, "arc_resolution": 0.05, "tol": 0.05,
            "diagram_points": 200, "identity_orbit": 2000}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, "system": system, "task": task}))
    assert main([subcommand, str(path), "--out", str(tmp_path / "out")]) == status


def test_fd_jacobian_resolves_bump_transition(system):
    """Chart points inside the bump's transition band, of width delta/k."""
    pts = np.concatenate([
        system.chart_p.from_chart(np.array([[0.0038407363508507594, 0.0017512654996811874,
                                             4.119587494895091e-06, 0.0019363112836730026]])),
        system.chart_q.from_chart(np.array([[0.012249419841894869, 0.00977913583965552,
                                             0.01442490850486202, 4.438731059399487e-06]])),
    ])
    ja = system.jacobian(pts)
    rel = np.linalg.norm(ja - _fd_jacobian(system, pts), axis=(1, 2)) / np.linalg.norm(
        ja, axis=(1, 2))
    assert np.max(rel) < 1e-5


@pytest.mark.parametrize("eps_tilde", [0.0, 0.5, 0.8, 0.95])
def test_fd_jacobian_in_band_both_cubes(eps_tilde):
    """In-band points of both cubes at k = 1e4, where the transition band delta/k
    is 2.5e-6 wide; a tenth of them lie 1000 times closer to the fixed plane y = 0.
    Near eps_tilde = 1 the q-cube profile is steeper still, by the slope ratio
    the difference step is scaled with."""
    system = build_deformed_system(
        DeformationParams(n=3, m=1, delta=1.0 / 40.0, k=1e4, eps1=eps1_for(3, 1))
    ).make_tilde(eps_tilde)
    d, k = system.params.delta, system.params.k
    rng = make_rng(5)
    for cube in system.cubes:
        coords = (rng.random((400, 4)) - 0.5) * d  # r < delta
        coords[:, cube.j] = (rng.random(400) - 0.5) * 2 * d / k  # |ky| < delta
        coords[:40, cube.j] *= 1e-3
        pts = cube.chart.from_chart(coords)
        ja = system.jacobian(pts)
        rel = np.linalg.norm(ja - _fd_jacobian(system, pts), axis=(1, 2)) / np.linalg.norm(
            ja, axis=(1, 2))
        assert np.max(rel) < 1e-5


def test_main_pass_exit_0(tmp_path):
    cfg = {"seed": 5, "output_dir": str(tmp_path / "out"),
           "system": {"kind": "product", "base_matrix": [[13, 8], [8, 5]],
                      "fiber_matrix": [[2, 1], [1, 1]]},
           "task": {"diagram_points": 200, "plaque_samples": 800, "cesaro_steps": 100,
                    "identity_orbit": 1000, "grid_side": 6}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["product-checks", str(path)]) == 0


def test_wrong_system_for_task(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "seed": 1,
        "system": {"kind": "linear", "matrix": [[2, 1], [1, 1]]},
    })
    with pytest.raises(ConfigError):
        run_task("verify-cones", cfg, str(tmp_path))


@pytest.mark.parametrize("subcommand, system, kinds", [
    ("lyapunov", {"kind": "product", "base_id": "cat^3", "fiber_matrix": [[2, 1], [1, 1]]},
     "deformed or tilde"),
    ("product-checks", {"kind": "deformed", "auto_params": True}, "product"),
    ("verify-cones", {"kind": "linear", "matrix": [[2, 1], [1, 1]]}, "deformed or tilde"),
])
def test_wrong_kind_rejected_before_build(tmp_path, monkeypatch, subcommand, system, kinds):
    def refuse(config):
        raise AssertionError("build_system ran for a wrong-kind config")

    monkeypatch.setattr(cli, "build_system", refuse)
    cfg = ExperimentConfig.from_dict({"seed": 1, "system": system})
    with pytest.raises(ConfigError) as err:
        run_task(subcommand, cfg, str(tmp_path))
    assert str(err.value) == f"{subcommand} needs a {kinds} system config"


def test_build_system_linear():
    cfg = ExperimentConfig.from_dict({
        "seed": 1, "system": {"kind": "linear", "matrix": [[2, 1], [1, 1]]},
    })
    system, resolved = build_system(cfg)
    assert system.dim == 2
    assert resolved["kind"] == "linear"


def test_python_m_phlab_exits_2_on_a_bad_config(tmp_path):
    """``python -m phlab`` runs the command line without an installed script."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**DEFORMED, "task": {"n_orbits": 0}}))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "phlab", "lyapunov", str(path),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 2
    assert "config error: task.n_orbits:" in done.stderr


def test_product_base_by_id():
    cfg = ExperimentConfig.from_dict({
        "seed": 1,
        "system": {"kind": "product", "base_id": "cat^3",
                   "fiber_matrix": [[2, 1], [1, 1]]},
    })
    system, resolved = build_system(cfg)
    assert resolved["base_matrix"] == [[13, 8], [8, 5]]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({
            "seed": 1,
            "system": {"kind": "product", "base_id": "dog^3",
                       "fiber_matrix": [[2, 1], [1, 1]]},
        })
