"""One repetition of a workload, in a fresh process started by run.py.

    python3 perfbench/worker.py <spec.json> <rep_dir>

The spec names the phlab source tree, the run_task calls and whether to
trace.  The worker times set-up (import phlab, parse every config, the first
build_system) and then the run_task calls, brackets both with a calibration
loop, and writes ``result.json`` into ``rep_dir`` with the timings, the two
calibration times, peak RSS, every check, the CSV digests and, when traced,
the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import numpy as np  # imported before the clock starts: set-up times phlab, not numpy

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
from tracer import Tracer  # noqa: E402

RESOLVED = ("kind", "n", "m", "k", "eps1", "M")
CALIBRATION_ITERATIONS = 1500


def _jsonable(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if hasattr(value, "item"):
        return value.item()
    return repr(value)


def blas_info():
    try:
        cfg = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no dict mode
        return None
    deps = cfg.get("Build Dependencies", {})
    return {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")
                if f in deps[k]} for k in ("blas", "lapack") if k in deps}


def calibrate():
    """Seconds for a fixed mix of small- and large-batch numpy calls."""
    rng = np.random.default_rng(0)
    small, large, m = rng.random((100, 4)), rng.random((10_000, 4)), rng.random((4, 4))
    start = time.perf_counter()
    for i in range(CALIBRATION_ITERATIONS):
        y = np.mod(small @ m, 1.0)
        y -= np.round(y)
        np.all(np.abs(y) <= 0.1, axis=-1)
        if i % 10 == 0:
            z = np.mod(large @ m, 1.0)
            z[z >= 0.5] = 0.0
    return time.perf_counter() - start


def run(spec, rep_dir):
    calibration = [calibrate()]
    start = time.perf_counter()
    src = spec["src"]
    sys.path.insert(0, src)
    import phlab
    from phlab.cli import run_task
    from phlab.config import ExperimentConfig, build_system

    if not os.path.abspath(phlab.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"phlab imported from {phlab.__file__}, not from {src}")
    configs = [ExperimentConfig.from_dict(call["config"]) for call in spec["calls"]]
    build_system(configs[0])
    setup_s = time.perf_counter() - start

    tracer = Tracer().install() if spec["trace"] else None
    missed = tracer.missed_bindings() if tracer is not None else []
    reports, error = [], None
    start = time.perf_counter()
    try:
        for i, (call, config) in enumerate(zip(spec["calls"], configs)):
            reports.append(run_task(call["task"], config, os.path.join(rep_dir, f"{i}")))
    except Exception as exc:  # recorded and counted as failed checks by the gate
        error = {"type": type(exc).__name__, "message": str(exc)}
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration.append(calibrate())

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "calibration_s": calibration,
        "error": error,
        "checks": [
            {"task": r.task, "name": c.name, "passed": c.passed, "value": _jsonable(c.value)}
            for r in reports for c in r.checks
        ],
        "resolved": [{k: _jsonable(r.params.get(k)) for k in RESOLVED} for r in reports],
        "digests": {},
    }
    for i, call in enumerate(spec["calls"][: len(reports)]):
        result["digests"].update(
            gate.csv_digests(os.path.join(rep_dir, f"{i}"), prefix=f"{call['task']}/"))
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = tracer.metrics(wall_s)
        result["calls"] = tracer.calls()
        result["missed_bindings"] = missed
        tracer.write(os.path.join(rep_dir, "trace.json"))
    result["environment"] = {
        "numpy": np.__version__,
        "blas": blas_info(),
        "phlab": getattr(phlab, "__version__", None),
    }
    return result


def main(argv):
    spec_path, rep_dir = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = run(spec, rep_dir)
    with open(os.path.join(rep_dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
