"""Per-module call counts and self time for a traced phlab run.

The tracer wraps public functions of each phlab module from outside the
package.  A wrapper replaces the attribute where it is looked up: methods on
their class, module functions in their own module and in every phlab module
that imported them by name (and in ``cli.TASKS`` for the subcommands).

Outer functions (subcommands, estimators, the Cesaro push, skeleton and cone
routines) are *spans*: every call is recorded with its id, its parent span,
start, end and self time.  Hot kernels are *aggregated*: one
record per (enclosing span, calling function, kernel) holds calls, points,
inclusive time and self time, so a run with 10^6 kernel calls stays small.
A function's self time is its duration minus the time of the wrapped calls
it made.  Everything stays in memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np

# Kernels whose per-point cost is reported by batch size.
BUCKETED = ("deformation.step", "deformation.step_inverse", "deformation.jacobian_chart")
BUCKETS = ("n1", "n100", "n10k")

# Functions that look both charts up once per input point.
CHART_PARENTS = frozenset(
    ("deformation.deform", "deformation.deform_inverse", "deformation.jacobian_chart"))

STEP_KERNELS = frozenset(
    ("deformation.step", "deformation.step_inverse", "product.ProductSystem.step",
     "product.LinearSystem.step"))

SUBCOMMANDS = ("verify-construction", "verify-cones", "lyapunov", "gibbs", "skeleton",
               "product-checks")


def _bucket(n):
    if n <= 1:
        return "n1"
    return "n100" if n < 1000 else "n10k"


def _rows(arg):
    """Points in a batch whose last axis holds coordinates."""

    def count(args):
        shape = np.shape(args[arg])
        if len(shape) < 2:
            return 1
        return int(np.prod(shape[:-1]))

    return count


def _size(arg):
    def count(args):
        return int(np.size(args[arg]))

    return count


# -- counters attached to spans (called with the span's args and result) ------

def _vertex_pairs(args, kwargs, result):
    return {"vertex_pairs": len(args[0].polyline) * len(args[1].polyline)}


def _vertices(args, kwargs, result):
    return {"vertices": len(result.polyline)}


def _samples(args, kwargs, result):
    return {"samples": int(result.samples)}


def _report_bytes(args, kwargs, result):
    """RunReport.write's own files; report.csv goes through write_csv."""
    out = args[1] if len(args) > 1 else kwargs["out_dir"]
    return {"bytes": sum(os.path.getsize(os.path.join(out, f))
                         for f in ("report.txt", "params.json"))}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


# (metric name, module, attribute path, points counter)
KERNELS = (
    ("deformation.step", "deformation", "DeformedSystem.step", _rows(1)),
    ("deformation.step_inverse", "deformation", "DeformedSystem.step_inverse", _rows(1)),
    ("deformation.deform", "deformation", "DeformedSystem.deform", _rows(1)),
    ("deformation.deform_inverse", "deformation", "DeformedSystem.deform_inverse", _rows(1)),
    ("deformation.jacobian_chart", "deformation", "DeformedSystem.jacobian_chart", _rows(1)),
    ("deformation.jacobian", "deformation", "DeformedSystem.jacobian", _rows(1)),
    ("deformation.jacobian_inverse", "deformation", "DeformedSystem.jacobian_inverse",
     _rows(1)),
    ("deformation.to_chart", "deformation", "ChartBox.to_chart", _rows(1)),
    ("torus.reduce_torus", "torus", "reduce_torus", _rows(0)),
    ("torus.torus_displacement", "torus", "torus_displacement", _rows(0)),
    ("torus.ToralAutomorphism.apply", "torus", "ToralAutomorphism.apply", _rows(1)),
    ("torus.ToralAutomorphism.apply_inverse", "torus", "ToralAutomorphism.apply_inverse",
     _rows(1)),
    ("bump.eval", "bump", "SmoothBump.__call__", _size(1)),
    ("bump.derivative", "bump", "SmoothBump.derivative", _size(1)),
    ("product.ProductSystem.step", "product", "ProductSystem.step", _rows(1)),
    ("product.ProductSystem.jacobian", "product", "ProductSystem.jacobian", _rows(1)),
    ("product.LinearSystem.step", "product", "LinearSystem.step", _rows(1)),
    ("product.LinearSystem.jacobian", "product", "LinearSystem.jacobian", _rows(1)),
    ("gibbs.from_points", "gibbs", "EmpiricalMeasure.from_points", _rows(1)),
    ("gibbs.observe", "gibbs", "SlabMassTracker.observe", _rows(2)),
    ("gibbs.observe", "gibbs", "CenterGrowthTracker.observe", _rows(2)),
)

# (metric name, module, attribute path, counter)
SPANS = (
    ("config.build_system", "config", "build_system", None),
    ("deformation.search_params", "deformation", "search_params", None),
    ("bump.compute_M", "bump", "compute_M", None),
    ("report.write", "report", "RunReport.write", _report_bytes),
    ("report.write", "report", "write_csv", _written_bytes),
    ("report.write", "report", "write_gnuplot", _written_bytes),
    ("ergodic.bundle_exponent_batch", "ergodic", "bundle_exponent_batch", None),
    ("ergodic.bundle_exponent", "ergodic", "bundle_exponent", None),
    ("ergodic.lyapunov_spectrum", "ergodic", "lyapunov_spectrum", None),
    ("ergodic.birkhoff_average", "ergodic", "birkhoff_average", None),
    ("ergodic.entropy_volume_identity", "ergodic", "entropy_volume_identity", None),
    ("ergodic.pesin_block_membership", "ergodic", "pesin_block_membership", None),
    ("gibbs.cesaro_push", "gibbs", "cesaro_push", None),
    ("gibbs.seed_plaque", "gibbs", "seed_plaque", None),
    ("skeleton.heteroclinic_test", "skeleton", "heteroclinic_test", _vertex_pairs),
    ("skeleton.grow_manifold", "skeleton", "grow_manifold", _vertices),
    ("skeleton.newton_periodic", "skeleton", "newton_periodic", None),
    ("skeleton.extract_skeleton", "skeleton", "extract_skeleton", None),
    ("cones.verify_invariance", "cones", "verify_invariance", _samples),
    ("cones.extract_splitting", "cones", "extract_splitting", None),
    ("cones.growth_sandwich_check", "cones", "growth_sandwich_check", None),
)


def metric_catalog():
    """Every per-layer metric the traced run reports, as {name: unit}."""
    units = {}
    for name in ("step", "step_inverse", "deform", "deform_inverse", "jacobian_chart",
                 "jacobian", "jacobian_inverse"):
        units[f"deformation.{name}.calls"] = "count"
        units[f"deformation.{name}.self_s"] = "s"
    for name in BUCKETED:
        for b in BUCKETS:
            units[f"{name}.us_per_point.{b}"] = "us"
    units["deformation.p_chart.points"] = "count"
    units["deformation.q_chart.points"] = "count"
    units["deformation.chart_visit_ratio"] = "ratio"
    for name in ("bundle_exponent_batch", "bundle_exponent", "lyapunov_spectrum",
                 "birkhoff_average", "entropy_volume_identity", "pesin_block_membership"):
        units[f"ergodic.{name}.calls"] = "count"
        units[f"ergodic.{name}.self_s"] = "s"
    units["ergodic.orbit_steps"] = "count"
    for name in ("cesaro_push", "seed_plaque", "observe"):
        units[f"gibbs.{name}.self_s"] = "s"
    units["gibbs.from_points.calls"] = "count"
    units["gibbs.from_points.self_s"] = "s"
    units["gibbs.from_points.us_per_point"] = "us"
    for name in ("heteroclinic_test", "grow_manifold", "newton_periodic", "extract_skeleton"):
        units[f"skeleton.{name}.calls"] = "count"
        units[f"skeleton.{name}.self_s"] = "s"
    units["skeleton.heteroclinic_test.vertex_pairs"] = "count"
    units["skeleton.heteroclinic_test.ns_per_pair"] = "ns"
    units["skeleton.grow_manifold.vertices"] = "count"
    for name in ("verify_invariance", "extract_splitting", "growth_sandwich_check"):
        units[f"cones.{name}.calls"] = "count"
        units[f"cones.{name}.self_s"] = "s"
    units["cones.verify_invariance.samples"] = "count"
    for name in ("ProductSystem.step", "ProductSystem.jacobian", "LinearSystem.step",
                 "LinearSystem.jacobian"):
        units[f"product.{name}.calls"] = "count"
        units[f"product.{name}.self_s"] = "s"
    for name in ("reduce_torus", "torus_displacement", "ToralAutomorphism.apply",
                 "ToralAutomorphism.apply_inverse"):
        units[f"torus.{name}.calls"] = "count"
        units[f"torus.{name}.self_s"] = "s"
    for name in ("eval", "derivative"):
        units[f"bump.{name}.calls"] = "count"
        units[f"bump.{name}.self_s"] = "s"
    units["bump.compute_M.self_s"] = "s"
    for sub in SUBCOMMANDS:
        units[f"cli.{sub}.wall_s"] = "s"
    units["report.write.self_s"] = "s"
    units["report.write.bytes"] = "bytes"
    units["config.build_system.self_s"] = "s"
    units["deformation.search_params.self_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.coverage"] = "ratio"
    return units


class Tracer:
    """Spans for outer calls, aggregates for kernels, both in memory.

    A frame is ``[name, child_seconds, args]``; the bottom frame stands for
    untraced code.  ``install`` patches phlab and ``uninstall`` restores it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.frames = [["<untraced>", 0.0, ()]]
        self.span_stack = [(-1, "<untraced>")]
        self.spans = []
        self.kernels = {}   # (span name, caller, kernel) -> [calls, points, total_s, self_s]
        self.buckets = {}   # (kernel, bucket) -> [calls, points, total_s]
        self.charts = {"p": 0, "q": 0, "expected": 0.0}
        self._undo = []
        self._originals = {}

    # -- wrappers ----------------------------------------------------------------

    def span(self, name, fn, counter=None):
        clock, frames, spans, stack = self.clock, self.frames, self.spans, self.span_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            record = {"id": sid, "parent": stack[-1][0], "name": name}
            spans.append(record)
            stack.append((sid, name))
            frame = [name, 0.0, args]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                stack.pop()
                frames[-1][1] += end - start
                record["start"] = start - self.origin
                record["end"] = end - self.origin
                record["self_s"] = (end - start) - frame[1]
            if counter is not None:
                record.update(counter(args, kwargs, result))
            return result

        return wrapper

    def kernel(self, name, fn, points):
        clock, frames, stack = self.clock, self.frames, self.span_stack
        kernels, buckets, charts = self.kernels, self.buckets, self.charts
        bucketed = name in BUCKETED
        chart_lookup = name == "deformation.to_chart"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = frames[-1]
            frame = [name, 0.0, args]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = clock() - start
                frames.pop()
                parent[1] += total
            n = points(args)
            key = (stack[-1][1], parent[0], name)
            rec = kernels.get(key)
            if rec is None:
                rec = kernels[key] = [0, 0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += n
            rec[2] += total
            rec[3] += total - frame[1]
            if bucketed:
                b = buckets.setdefault((name, _bucket(n)), [0, 0, 0.0])
                b[0] += 1
                b[1] += n
                b[2] += total
            if chart_lookup and parent[0] in CHART_PARENTS:
                chart, system = args[0], parent[2][0]
                side = "p" if chart is system.chart_p else "q"
                charts[side] += int(np.count_nonzero(result[1]))
                charts["expected"] += n * (2.0 * chart.half_width) ** 4
            return result

        return wrapper

    # -- patching ------------------------------------------------------------------

    def install(self):
        """Wrap every listed function of the imported phlab package."""
        import importlib

        from phlab import cli

        modules = _phlab_modules()
        for name, mod, path, points in KERNELS:
            self._patch(importlib.import_module(f"phlab.{mod}"), path,
                        lambda fn, name=name, points=points: self.kernel(name, fn, points),
                        modules)
        for name, mod, path, counter in SPANS:
            self._patch(importlib.import_module(f"phlab.{mod}"), path,
                        lambda fn, name=name, counter=counter: self.span(name, fn, counter),
                        modules)
        for sub in SUBCOMMANDS:
            original = cli.TASKS[sub]
            wrapped = self.span(f"cli.{sub}", original)
            self._originals[id(original)] = f"cli.{sub}"
            cli.TASKS[sub] = wrapped
            self._undo.append((cli.TASKS, sub, original, True))
            self._rebind(original, wrapped, modules)
        return self

    def _patch(self, module, path, make, modules):
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(make(raw.__func__))
                self._originals[id(raw.__func__)] = path
            else:
                replacement = make(raw)
                self._originals[id(raw)] = path
            setattr(owner, attr, replacement)
            self._undo.append((owner, attr, raw, False))
            return
        original = getattr(module, attr)
        self._originals[id(original)] = path
        self._rebind(original, make(original), modules)

    def _rebind(self, original, wrapped, modules):
        """Replace ``original`` in every module namespace that holds it."""
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original, False))

    def missed_bindings(self):
        """Names in phlab modules that still hold an unwrapped function."""
        from phlab import cli

        missed = []
        for mod in _phlab_modules():
            for key, value in vars(mod).items():
                if id(value) in self._originals:
                    missed.append(f"{mod.__name__}.{key}")
        for sub, fn in cli.TASKS.items():
            if id(fn) in self._originals:
                missed.append(f"phlab.cli.TASKS[{sub!r}]")
        return missed

    def uninstall(self):
        for target, key, original, is_dict in reversed(self._undo):
            if is_dict:
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ---------------------------------------------------------------------

    def totals(self):
        """{function name: [calls, points, total_s, self_s]} over spans and kernels."""
        out = {}
        for (_, _, name), (calls, pts, total, own) in self.kernels.items():
            rec = out.setdefault(name, [0, 0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += pts
            rec[2] += total
            rec[3] += own
        for span in self.spans:
            if "end" not in span:
                continue
            rec = out.setdefault(span["name"], [0, 0, 0.0, 0.0])
            rec[0] += 1
            rec[2] += span["end"] - span["start"]
            rec[3] += span["self_s"]
        return out

    def span_counter(self, name, key):
        return sum(s.get(key, 0) for s in self.spans if s["name"] == name)

    def metrics(self, wall_s):
        """Per-layer metrics of this traced run, without ``trace.overhead_ratio``."""
        totals = self.totals()

        def get(name, i):
            return totals.get(name, (0, 0, 0.0, 0.0))[i]

        out = {}
        for metric in metric_catalog():
            base, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = get(base, 0)
            elif field == "self_s":
                out[metric] = get(base, 3)
        for name in BUCKETED:
            for b in BUCKETS:
                calls, pts, total = self.buckets.get((name, b), (0, 0, 0.0))
                out[f"{name}.us_per_point.{b}"] = 1e6 * total / pts if pts else 0.0
        out["deformation.p_chart.points"] = self.charts["p"]
        out["deformation.q_chart.points"] = self.charts["q"]
        visits = self.charts["p"] + self.charts["q"]
        expected = self.charts["expected"]
        out["deformation.chart_visit_ratio"] = visits / expected if expected else 0.0
        out["ergodic.orbit_steps"] = sum(
            rec[1] for (_, caller, name), rec in self.kernels.items()
            if name in STEP_KERNELS and caller.startswith("ergodic."))
        pts = get("gibbs.from_points", 1)
        out["gibbs.from_points.us_per_point"] = (
            1e6 * get("gibbs.from_points", 2) / pts if pts else 0.0)
        pairs = self.span_counter("skeleton.heteroclinic_test", "vertex_pairs")
        out["skeleton.heteroclinic_test.vertex_pairs"] = pairs
        out["skeleton.heteroclinic_test.ns_per_pair"] = (
            1e9 * get("skeleton.heteroclinic_test", 2) / pairs if pairs else 0.0)
        out["skeleton.grow_manifold.vertices"] = self.span_counter(
            "skeleton.grow_manifold", "vertices")
        out["cones.verify_invariance.samples"] = self.span_counter(
            "cones.verify_invariance", "samples")
        for sub in SUBCOMMANDS:
            out[f"cli.{sub}.wall_s"] = get(f"cli.{sub}", 2)
        out["report.write.bytes"] = self.span_counter("report.write", "bytes")
        attributed = sum(rec[3] for name, rec in totals.items() if not name.startswith("cli."))
        out["trace.coverage"] = attributed / wall_s if wall_s > 0 else 0.0
        return out

    def calls(self):
        return {name: rec[0] for name, rec in self.totals().items()}

    def write(self, path):
        """Spans and kernel aggregates as JSON, written once at the end."""
        payload = {
            "spans": self.spans,
            "kernels": [
                {"span": s, "caller": c, "name": n, "calls": r[0], "points": r[1],
                 "total_s": r[2], "self_s": r[3]}
                for (s, c, n), r in sorted(self.kernels.items())
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=0)


def _phlab_modules():
    import sys

    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "phlab" or name.startswith("phlab."))]
