import filecmp
import json

import numpy as np
import pytest

from phlab.cli import _fd_jacobian, main, run_task
from phlab.config import ExperimentConfig, build_system
from phlab.deformation import DeformationParams, build_deformed_system
from phlab.ergodic import make_rng
from phlab.errors import ConfigError

from conftest import eps1_for

DEFORMED = {
    "seed": 11,
    "system": {"kind": "deformed", "auto_params": True},
    "task": {},
}


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


def test_gibbs_small(tmp_path):
    cfg = small({"plaque_samples": 2000, "cesaro_steps": 400, "integral_orbit": 5000})
    report = run_task("gibbs", cfg, str(tmp_path))
    assert report.all_passed
    assert (tmp_path / "cesaro_measure.csv").exists()


def test_skeleton_small(tmp_path):
    cfg = small({"census_max_period": 4, "arc_length": 2.0, "arc_resolution": 0.002,
                 "tol": 0.002})
    report = run_task("skeleton", cfg, str(tmp_path))
    assert report.all_passed


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
])
def test_main_bad_values_exit_2_naming_the_field(tmp_path, capsys, subcommand, system,
                                                 task, field):
    cfg = {**DEFORMED, "system": {**DEFORMED["system"], **system}, "task": task}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([subcommand, str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


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


@pytest.mark.parametrize("eps_tilde", [0.0, 0.5])
def test_fd_jacobian_in_band_both_cubes(eps_tilde):
    """In-band points of both cubes at k = 1e4, where the transition band delta/k
    is 2.5e-6 wide; a tenth of them lie 1000 times closer to the fixed plane y = 0."""
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


def test_build_system_linear():
    cfg = ExperimentConfig.from_dict({
        "seed": 1, "system": {"kind": "linear", "matrix": [[2, 1], [1, 1]]},
    })
    system, resolved = build_system(cfg)
    assert system.dim == 2
    assert resolved["kind"] == "linear"


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
