"""Tests of the benchmark's own code: names, self time, the gate, a smoke run."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_are_well_formed_and_declared():
    catalog = tracer_mod.metric_catalog()
    for name in list(catalog) + list(run.END_TO_END) + list(workloads.WORKLOADS):
        assert NAME.fullmatch(name) and len(name) <= 64, name
    bench = _benchmark_json()
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == catalog
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


class FakeClock:
    """Advances only when the fixture code says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_calls():
    clock = FakeClock()
    tr = tracer_mod.Tracer(clock=clock)

    def leaf(x):
        clock.now += 1.0
        return x

    def inner(x):
        clock.now += 2.0
        leaf(x)
        leaf(x)
        clock.now += 0.5
        return x

    def outer(x):
        clock.now += 4.0
        inner(x)
        clock.now += 3.0
        leaf(x)
        return x

    leaf = tr.kernel("t.leaf", leaf, lambda args: 7)
    inner = tr.kernel("t.inner", inner, lambda args: 1)
    outer = tr.span("t.outer", outer)
    outer(0)
    outer(0)

    totals = tr.totals()
    assert totals["t.outer"] == [2, 0, 2 * 12.5, 2 * 7.0]
    assert totals["t.inner"] == [2, 2, 2 * 4.5, 2 * 2.5]
    assert totals["t.leaf"] == [6, 42, 6.0, 6.0]
    # kernels are aggregated by (enclosing span, caller)
    assert tr.kernels[("t.outer", "t.inner", "t.leaf")][:2] == [4, 28]
    assert tr.kernels[("t.outer", "t.outer", "t.leaf")][:2] == [2, 14]
    assert [(s["id"], s["parent"]) for s in tr.spans] == [(0, -1), (1, -1)]
    assert tr.metrics(wall_s=25.0)["trace.coverage"] == pytest.approx(1.0)


def test_span_parents_and_exception_unwinding():
    clock = FakeClock()
    tr = tracer_mod.Tracer(clock=clock)

    def failing():
        clock.now += 1.0
        raise RuntimeError("boom")

    failing = tr.kernel("t.failing", failing, lambda args: 1)

    def child():
        clock.now += 2.0
        with pytest.raises(RuntimeError):
            failing()

    child = tr.span("t.child", child)
    parent = tr.span("t.parent", lambda: child())
    parent()
    assert [(s["name"], s["parent"]) for s in tr.spans] == [("t.parent", -1), ("t.child", 0)]
    assert tr.spans[1]["self_s"] == 2.0
    assert tr.spans[0]["self_s"] == 0.0
    assert tr.frames == [["<untraced>", 3.0, ()]]


def test_install_wraps_every_binding_and_uninstall_restores():
    import phlab.cli
    import phlab.deformation
    import phlab.gibbs
    import phlab.torus

    before = (phlab.torus.reduce_torus, phlab.deformation.reduce_torus,
              phlab.gibbs.reduce_torus, phlab.cli.TASKS["gibbs"],
              phlab.deformation.DeformedSystem.__dict__["step"])
    tr = tracer_mod.Tracer()
    with tr:
        assert tr.missed_bindings() == []
        assert phlab.deformation.reduce_torus is phlab.torus.reduce_torus
        assert phlab.torus.reduce_torus is not before[0]
        assert phlab.cli.TASKS["gibbs"] is not before[3]
    after = (phlab.torus.reduce_torus, phlab.deformation.reduce_torus,
             phlab.gibbs.reduce_torus, phlab.cli.TASKS["gibbs"],
             phlab.deformation.DeformedSystem.__dict__["step"])
    assert all(a is b for a, b in zip(before, after))


def _check(name, passed, value, task="t"):
    return {"task": task, "name": name, "passed": passed, "value": value}


def test_value_drift_uses_relative_change_and_floor():
    ref = {"t/a": 2.0, "t/b": 1e-16, "t/c": 5.0}
    vals = gate.numeric_values([_check("a", True, 2.2), _check("b", True, 3e-16),
                                _check("c", True, 5), _check("d", True, True),
                                _check("e", True, "text")])
    assert vals == {"t/a": 2.2, "t/b": 3e-16, "t/c": 5.0}
    drift, compared = gate.value_drift(vals, ref)
    assert compared == 3
    assert drift == pytest.approx(0.1)
    drift, _ = gate.value_drift({"t/b": 3e-16}, ref)
    assert drift == pytest.approx(2e-16 / gate.DRIFT_FLOOR)
    assert gate.value_drift({"t/a": 2.0}, ref) == (0.0, 1)
    assert gate.value_drift({"t/x": 1.0}, ref) == (None, 0)


def test_tally_counts_failed_checks_raised_runs_and_digest_mismatches():
    good = {"error": None, "digests": {"t/x.csv": "1"},
            "checks": [_check("a", True, 1.0), _check("b", True, 2.0)]}
    failing = {"error": None, "digests": {"t/x.csv": "1"},
               "checks": [_check("a", False, 1.0), _check("b", True, 2.0)]}
    raised = {"error": {"type": "RootFindError", "message": "stalled"},
              "digests": {}, "checks": []}
    changed = {"error": None, "digests": {"t/x.csv": "2"},
               "checks": [_check("a", True, 1.0), _check("b", True, 2.0)]}

    t = gate.tally([good, good], expected_checks=2)
    assert (t["attempted"], t["failed"]) == (5, 0)
    t = gate.tally([good, failing, raised, changed], expected_checks=2)
    # 4 reps x 2 checks, plus 2 digest comparisons (the raised rep has none)
    assert (t["attempted"], t["failed"]) == (10, 4)
    assert any("RootFindError" in f for f in t["failures"])
    assert any("t/x.csv" in f for f in t["failures"])


def _run(args, cwd, timeout=170):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_smoke_run_of_every_workload(tmp_path):
    proc = _run(["--workload", "all", "--size", "smoke", "--seconds", "1", "--trace", "1"],
                cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    for name in workloads.WORKLOADS:
        for metric in tracer_mod.metric_catalog():
            assert f"{name}.{metric}" in result["metrics"]
    assert result["metrics"]["skeleton.skeleton.heteroclinic_test.calls"]["value"] > 0
    assert result["metrics"]["checks.cones.verify_invariance.calls"]["value"] > 0
    assert result["metrics"]["cesaro.gibbs.from_points.calls"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["--workload", "orbits", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
