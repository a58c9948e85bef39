"""Record the reference check values that ``value_drift`` compares against.

    python3 perfbench/record_reference.py --seeds 0-31 --seeds 20240601

Runs one untraced full-size repetition of every workload per seed and writes
``perfbench/reference/<workload>.json``: the numeric value of every check by
seed, the number of checks a repetition makes, and the git revision the
values came from.  Recording again replaces the file, so do it only on the
commit whose arithmetic later changes are measured against.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import gate
import run
import workloads


def parse_seeds(specs):
    seeds = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return sorted(set(seeds))


def record(name, seeds):
    values, counts, failures = {}, set(), []
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for seed in seeds:
            spec = {"src": run.SRC, "calls": workloads.generate(name, seed), "trace": False}
            spec_path = os.path.join(tmp, f"spec-{seed}.json")
            with open(spec_path, "w") as fh:
                json.dump(spec, fh)
            result = run.run_rep(spec_path, os.path.join(tmp, f"seed{seed}"),
                                 run.DEADLINE_S)
            tally = gate.tally([result], 0)
            failures += [f"seed {seed}: {f}" for f in tally["failures"]]
            if result.get("error"):
                continue
            counts.add(len(result["checks"]))
            values[str(seed)] = gate.numeric_values(result["checks"])
            print(f"{name} seed {seed}: {len(result['checks'])} checks, "
                  f"{tally['failed']} failed", flush=True)
    if len(counts) > 1:
        failures.append(f"check count varies with the seed: {sorted(counts)}")
    return {"revision": run.environment()["git_revision"],
            "checks": max(counts, default=None), "seeds": values}, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", action="append", required=True,
                        help="a seed or an inclusive range lo-hi; repeatable")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    status = 0
    os.makedirs(run.REFERENCE, exist_ok=True)
    for name in sorted(workloads.WORKLOADS):
        payload, failures = record(name, seeds)
        for f in failures:
            print(f"FAILED {name}: {f}", file=sys.stderr)
            status = 1
        with open(os.path.join(run.REFERENCE, f"{name}.json"), "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
