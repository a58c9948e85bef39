"""phlab benchmark: time ``phlab.cli.run_task`` on generated configs.

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 32 --trace 0

Each repetition is a fresh worker process (BLAS/OpenMP threads pinned to 1),
run closed-loop with one client: the next starts when the previous one has
ended.  Repetitions continue while the next one is predicted to end within
``--seconds`` (at least three untraced, or one untraced and one traced).

``--trace 0`` reports the end-to-end metrics (medians over repetitions;
times at a nominal machine speed, see ``CALIBRATION_REF_S``).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones plus the tracing overhead.  Both print a
table of every metric with unit and sample count, including the correctness
figures ``check_fail_ratio`` and ``value_drift``, and end with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all`` runs
every workload in turn.  The full record of a run, with its environment, is
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import metric_catalog  # noqa: E402

SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference")

THREAD_VARS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

#: a nominal machine speed, at which the worker's calibration loop
#: (``worker.calibrate``) takes this many seconds.  setup_s and wall_s are
#: reported as seconds at that speed, not as seconds of any measured run:
#: each repetition's setup_s is scaled by CALIBRATION_REF_S over the loop
#: the worker ran just before set-up, and its wall_s over the mean of that
#: loop and the one run just after the run.  The speed of a shared machine
#: can drift by 25% over minutes, which would otherwise swamp the run-to-run
#: spread.  The measured times are reported next to the scaled ones.
CALIBRATION_REF_S = 0.2

#: a run stops starting repetitions once this much time has gone, whatever
#: --seconds says, and kills a repetition still running at DEADLINE_S, so
#: that it ends inside three minutes
HARD_LIMIT_S = 150.0
DEADLINE_S = 170.0


# -- environment ------------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git(*args):
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                             timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment():
    status = _git("status", "--porcelain")
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "thread_vars": dict(THREAD_VARS),
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


# -- repetitions --------------------------------------------------------------------


def run_rep(spec_path, rep_dir, timeout):
    """Start one worker, wait for it, and return its result dict."""
    os.makedirs(rep_dir)
    env = dict(os.environ, **THREAD_VARS)
    with open(os.path.join(rep_dir, "stdout.txt"), "w") as out, \
            open(os.path.join(rep_dir, "stderr.txt"), "w") as err:
        proc = subprocess.Popen([sys.executable, "-E", "-s", WORKER, spec_path, rep_dir],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = f"killed after {timeout:.0f} s"
    path = os.path.join(rep_dir, "result.json")
    if code == 0 and os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    with open(os.path.join(rep_dir, "stderr.txt")) as fh:
        tail = fh.read().strip().splitlines()[-1:] or [""]
    return {"error": {"type": "WorkerFailed", "message": f"exit {code}: {tail[0]}"},
            "checks": [], "digests": {}}


def run_reps(run_dir, calls, seconds, trace):
    """Closed loop of repetitions; returns [(traced, result), ...]."""
    specs = {}
    for traced in (False, True):
        spec = {"src": SRC, "calls": calls, "trace": traced}
        specs[traced] = os.path.join(run_dir, f"spec-trace{int(traced)}.json")
        with open(specs[traced], "w") as fh:
            json.dump(spec, fh, indent=1)
    min_reps = 2 if trace else 3
    start = time.perf_counter()
    took = {False: [], True: []}
    reps = []
    while True:
        traced = bool(trace) and len(reps) % 2 == 1
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps:
            predicted = max(took[traced] or took[not traced])
            if elapsed + predicted > min(seconds, HARD_LIMIT_S):
                break
        rep_start = time.perf_counter()
        result = run_rep(specs[traced], os.path.join(run_dir, f"rep{len(reps)}"),
                         max(DEADLINE_S - elapsed, 1.0))
        took[traced].append(time.perf_counter() - rep_start)
        reps.append((traced, result))
    return reps


# -- summaries ------------------------------------------------------------------------


def load_reference(name):
    path = os.path.join(REFERENCE, f"{name}.json")
    if not os.path.exists(path):
        return {"checks": None, "seeds": {}}
    with open(path) as fh:
        return json.load(fh)


def nominal_setup_s(result):
    # the loop just before set-up tracks it better than the mean of both loops
    return result["setup_s"] * CALIBRATION_REF_S / result["calibration_s"][0]


def nominal_wall_s(result):
    return result["wall_s"] * CALIBRATION_REF_S / statistics.mean(result["calibration_s"])


def summarize(samples):
    values = sorted(samples)
    return {"n": len(values), "median": statistics.median(values),
            "min": values[0], "max": values[-1]}


def hook_coverage(name, traced):
    """Failures of the traced repetitions' self-check, and how many were made."""
    reached = workloads.WORKLOADS[name].reached
    failures, attempted = [], 0
    for i, result in traced:
        if result.get("error"):
            continue
        attempted += len(reached) + 1
        for fn in reached:
            if result["calls"].get(fn, 0) < 1:
                failures.append(f"rep {i}: traced {fn} recorded no call on {name}")
        if result["missed_bindings"]:
            failures.append(f"rep {i}: unwrapped bindings left: "
                            + ", ".join(result["missed_bindings"]))
    return failures, attempted


def evaluate(name, seed, size, reps, trace):
    """Metrics, correctness tally and drift of one workload run."""
    results = [r for _, r in reps]
    ok = [r for r in results if not r.get("error")]
    reference = load_reference(name) if size == "full" else {"checks": None, "seeds": {}}
    expected = reference.get("checks") or max((len(r["checks"]) for r in ok), default=1)
    tally = gate.tally(results, expected)

    ref_values = reference["seeds"].get(str(seed))
    drift, compared = None, 0
    if ref_values is not None:
        for r in ok:
            d, n = gate.value_drift(gate.numeric_values(r["checks"]), ref_values)
            compared += n
            if d is not None:
                drift = d if drift is None else max(drift, d)

    untraced = [r for traced, r in reps if not traced and not r.get("error")]
    traced = [(i, r) for i, (t, r) in enumerate(reps) if t]
    stats = {
        "setup_s": summarize([nominal_setup_s(r) for r in ok]) if ok else None,
        "wall_s": summarize([nominal_wall_s(r) for r in untraced]) if untraced else None,
        "peak_rss_mb": summarize([r["peak_rss_mb"] for r in untraced]) if untraced else None,
        "measured_setup_s": summarize([r["setup_s"] for r in ok]) if ok else None,
        "measured_wall_s": summarize([r["wall_s"] for r in untraced]) if untraced else None,
        "calibration_s": (summarize([statistics.mean(r["calibration_s"]) for r in ok])
                          if ok else None),
    }
    per_layer = {}
    if trace:
        failures, attempted = hook_coverage(name, traced)
        tally["attempted"] += attempted
        tally["failed"] += len(failures)
        tally["failures"] += failures
        good = [r for _, r in traced if not r.get("error")]
        if good and untraced:
            for metric in metric_catalog():
                if metric != "trace.overhead_ratio":
                    values = [r["per_layer"][metric] for r in good]
                    # counts repeat exactly; median_low keeps them whole numbers
                    per_layer[metric] = (statistics.median_low(values)
                                         if isinstance(values[0], int) else
                                         statistics.median(values))
            stats["traced_wall_s"] = summarize([nominal_wall_s(r) for r in good])
            per_layer["trace.overhead_ratio"] = (
                stats["traced_wall_s"]["median"] / stats["wall_s"]["median"])
    return {
        "workload": name,
        "seed": seed,
        "size": size,
        "trace": trace,
        "reps": len(reps),
        "stats": stats,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "failures": tally["failures"],
        "check_fail_ratio": tally["failed"] / tally["attempted"] if tally["attempted"] else None,
        "value_drift": drift,
        "drift_compared": compared,
        "per_layer": per_layer,
        "errors": sorted({r["error"]["type"] for r in results if r.get("error")}),
        "resolved": ok[0]["resolved"] if ok else None,
    }


def metrics_json(summary):
    """The metrics of the final JSON line for one workload."""
    if summary["trace"]:
        units = metric_catalog()
        return {k: {"value": v, "unit": units[k]} for k, v in summary["per_layer"].items()}
    return {k: {"value": summary["stats"][k]["median"], "unit": unit}
            for k, unit in END_TO_END.items() if summary["stats"][k] is not None}


def table(summary):
    """Human-readable lines: every metric with its unit and sample count."""
    s = summary
    lines = [f"workload {s['workload']}  seed {s['seed']}  size {s['size']}  "
             f"trace {s['trace']}  repetitions {s['reps']}",
             f"  {'metric':<18} {'unit':<6} {'n':>5}  {'median':>12} {'min':>12} {'max':>12}"]
    rows = dict(END_TO_END, measured_setup_s="s", measured_wall_s="s", calibration_s="s")
    for k, unit in rows.items():
        st = s["stats"][k]
        if st is None:
            lines.append(f"  {k:<18} {unit:<6} {0:>5}  {'-':>12}")
        else:
            lines.append(f"  {k:<18} {unit:<6} {st['n']:>5}  {st['median']:>12.6g} "
                         f"{st['min']:>12.6g} {st['max']:>12.6g}")
    ratio = s["check_fail_ratio"]
    lines.append(f"  {'check_fail_ratio':<18} {'ratio':<6} {s['attempted']:>5}  "
                 f"{'-' if ratio is None else format(ratio, '.6g'):>12}   "
                 f"({s['failed']} failed of {s['attempted']} attempted)")
    drift = s["value_drift"]
    note = (f"(against the reference for seed {s['seed']})" if drift is not None
            else f"(no reference for seed {s['seed']} at size {s['size']})")
    lines.append(f"  {'value_drift':<18} {'ratio':<6} {s['drift_compared']:>5}  "
                 f"{'-' if drift is None else format(drift, '.6g'):>12}   {note}")
    if s["trace"] and s["per_layer"]:
        units = metric_catalog()
        lines.append(f"  per-layer (median of {s['stats']['traced_wall_s']['n']} traced "
                     "repetitions):")
        for k, v in s["per_layer"].items():
            lines.append(f"    {k:<52} {units[k]:<6} {v:.6g}")
    for failure in s["failures"]:
        lines.append(f"  FAILED: {failure}")
    return lines


def run_workload(name, seed, seconds, trace, size, env):
    stamp = time.strftime("%Y%m%dT%H%M%S")
    run_dir = os.path.join(OUT, f"{name}-seed{seed}-trace{trace}-{size}-{stamp}-{os.getpid()}")
    os.makedirs(run_dir)
    calls = workloads.generate(name, seed, size)
    reps = run_reps(run_dir, calls, seconds, trace)
    summary = evaluate(name, seed, size, reps, trace)
    env = dict(env, **next((r["environment"] for _, r in reps if "environment" in r), {}))
    record = {"environment": env, "calls": calls, "summary": summary,
              "repetitions": [{"traced": t, **{k: v for k, v in r.items()
                                               if k not in ("per_layer", "calls")}}
                              for t, r in reps]}
    with open(os.path.join(run_dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for i in range(len(reps)):
        rep_dir = os.path.join(run_dir, f"rep{i}")
        for entry in os.listdir(rep_dir):
            if entry.isdigit():  # run_task artifacts, already digested
                shutil.rmtree(os.path.join(rep_dir, entry))
    return summary, env


def env_line(env):
    blas = env.get("blas") or {}
    blas_txt = ", ".join(f"{k}={v.get('name')} {v.get('version')}" for k, v in blas.items())
    return (f"environment: nproc={env['nproc']} cpu={env['cpu_model']!r} "
            f"python={env['python']} numpy={env.get('numpy')} {blas_txt} "
            f"threads={','.join(f'{k}={v}' for k, v in env['thread_vars'].items())} "
            f"git={env['git_revision']} dirty={env['git_dirty']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "phlab", "cli.py")):
        print(f"error: no phlab source tree at {SRC}", file=sys.stderr)
        return 2

    # byte-compiled once here, so that no repetition's setup_s includes
    # compiling phlab after its sources changed
    compileall.compile_dir(os.path.join(SRC, "phlab"), quiet=1)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    summaries = []
    for name in names:
        summary, env = run_workload(name, args.seed, args.seconds, args.trace, args.size, env)
        summaries.append(summary)
        for line in table(summary):
            print(line)
        for call in workloads.generate(name, args.seed, args.size):
            print(f"  config {call['task']}: {json.dumps(call['config'], sort_keys=True)}")
        print(f"  resolved: {json.dumps(summary['resolved'])}")
    print(env_line(env))

    if len(summaries) == 1:
        metrics = metrics_json(summaries[0])
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries
                   for k, v in metrics_json(s).items()}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
