"""Correctness gate: check verdicts, value drift and artifact determinism.

Inputs are per-repetition results as the worker writes them::

    {"checks": [{"task", "name", "passed", "value"}, ...],
     "error": None | {"type", "message"},
     "digests": {"<task>/<file>.csv": "<sha256>", ...}}
"""

from __future__ import annotations

import hashlib
import math
import os

#: below this magnitude a reference value is compared on an absolute scale,
#: so round-off residuals (~1e-16) do not read as 100% drift
DRIFT_FLOOR = 1e-9


def numeric_values(checks):
    """{"task/check": value} for the checks whose value is a number (bools excluded)."""
    out = {}
    for c in checks:
        v = c["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            continue
        out[f"{c['task']}/{c['name']}"] = float(v)
    return out


def value_drift(values, reference):
    """Largest |v - r| / max(|r|, DRIFT_FLOOR) over the checks both sides report.

    Returns (drift, compared); drift is None when nothing was compared.
    Equal values (including equal infinities) drift by 0.
    """
    worst = None
    compared = 0
    for key, v in values.items():
        if key not in reference:
            continue
        r = reference[key]
        compared += 1
        if v == r or (math.isnan(v) and math.isnan(r)):
            d = 0.0
        elif not (math.isfinite(v) and math.isfinite(r)):
            d = math.inf
        else:
            d = abs(v - r) / max(abs(r), DRIFT_FLOOR)
        worst = d if worst is None else max(worst, d)
    return worst, compared


def csv_digests(out_dir, prefix=""):
    """sha256 of every CSV artifact under ``out_dir`` (report.txt carries wall time)."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[prefix + name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def tally(reps, expected_checks):
    """Attempted and failed operations over the repetitions of one seed.

    Every check is an operation; a repetition that raised counts its
    ``expected_checks`` as attempted and failed.  Every repetition after the
    first that completed is one more operation: its CSV digests must equal
    the first one's.  Returns a dict with the counts and what failed.
    """
    attempted = failed = 0
    failures = []
    first = None
    for i, rep in enumerate(reps):
        if rep.get("error"):
            attempted += expected_checks
            failed += expected_checks
            failures.append(f"rep {i}: raised {rep['error']['type']}: {rep['error']['message']}")
            continue
        for c in rep["checks"]:
            attempted += 1
            if not c["passed"]:
                failed += 1
                failures.append(f"rep {i}: check {c['task']}/{c['name']} failed "
                                f"(value {c['value']!r})")
        if first is None:
            first = rep["digests"]
            continue
        attempted += 1
        if rep["digests"] != first:
            failed += 1
            changed = sorted(k for k in set(first) | set(rep["digests"])
                             if first.get(k) != rep["digests"].get(k))
            failures.append(f"rep {i}: CSV artifacts differ from rep 0: {', '.join(changed)}")
    return {"attempted": attempted, "failed": failed, "failures": failures}
