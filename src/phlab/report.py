"""Run reports and artifact emission: human text, machine CSV, plot scripts.

CSV and JSON artifacts are byte-deterministic for a fixed config and seed:
floats are rendered with repr-faithful %.17g and wall-clock never enters
them.  The human report.txt carries the wall-clock line and is excluded from
byte comparisons.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field


def fmt(value) -> str:
    if isinstance(value, float):  # the common cell, tested first; bool is not a float
        return f"{value:.17g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: object
    threshold: str
    note: str = ""


@dataclass
class RunReport:
    """Checks, resolved parameters, warnings, and artifact bookkeeping."""

    task: str
    seed: int
    checks: list = field(default_factory=list)
    params: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    started: float = field(default_factory=time.time)

    def add(self, name, passed, value, threshold, note=""):
        self.checks.append(CheckResult(name, bool(passed), value, threshold, note))
        return passed

    def set_params(self, **kv):
        self.params.update(kv)

    def warn(self, message):
        self.warnings.append(message)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def write(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        wall = time.time() - self.started
        lines = [f"task: {self.task}", f"seed: {self.seed}", ""]
        if self.params:
            lines.append("resolved parameters:")
            for k in sorted(self.params):
                lines.append(f"  {k} = {fmt(self.params[k])}")
            lines.append("")
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            note = f"  ({c.note})" if c.note else ""
            lines.append(f"{status}  {c.name}: {fmt(c.value)} vs {c.threshold}{note}")
        for w in self.warnings:
            lines.append(f"WARN  {w}")
        verdict = "ALL CHECKS PASSED" if self.all_passed else "CHECK FAILURES PRESENT"
        lines += ["", verdict, f"wall-clock: {wall:.2f} s", ""]
        with open(os.path.join(out_dir, "report.txt"), "w") as fh:
            fh.write("\n".join(lines))

        rows = [("check", "verdict", "value", "threshold", "note")]
        for c in self.checks:
            rows.append(
                (c.name, "pass" if c.passed else "fail", fmt(c.value), c.threshold, c.note)
            )
        write_csv(os.path.join(out_dir, "report.csv"), rows)

        # machine-readable resolved parameters (seed, derived constants, flags)
        payload = {"task": self.task, "seed": self.seed, "all_passed": self.all_passed}
        payload.update({k: _jsonable(v) for k, v in sorted(self.params.items())})
        with open(os.path.join(out_dir, "params.json"), "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")

    def print_summary(self):
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"{status}  {c.name}: {fmt(c.value)} vs {c.threshold}")
        for w in self.warnings:
            print(f"WARN  {w}")


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):
        return value.item()
    return value


def write_csv(path, rows, lines=()):
    """Minimal deterministic CSV writer; rows are any iterable, so tables stream.

    Each cell goes through fmt.  ``lines``, CSV lines already rendered with
    their newline (EmpiricalMeasure.csv_lines), follow the rows as they are.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.writelines(",".join(map(fmt, row)) + "\n" for row in rows)
        fh.writelines(lines)


def write_gnuplot(path, script: str):
    with open(path, "w") as fh:
        fh.write(script)


def history_plot_script(csv_name: str, columns, title: str, png_name: str) -> str:
    plots = ", ".join(
        f"'{csv_name}' using 1:{i + 2} with lines title '{label}'"
        for i, label in enumerate(columns)
    )
    return (
        "set datafile separator ','\n"
        "set terminal pngcairo size 960,600\n"
        f"set output '{png_name}'\n"
        f"set title '{title}'\n"
        "set xlabel 'step'\n"
        f"plot {plots}\n"
    )


def heatmap_plot_script(csv_name: str, title: str, png_name: str) -> str:
    return (
        "set datafile separator ','\n"
        "set terminal pngcairo size 720,640\n"
        f"set output '{png_name}'\n"
        f"set title '{title}'\n"
        "set view map\n"
        f"splot '{csv_name}' using 1:2:3 with points pt 5 ps 2 palette notitle\n"
    )
