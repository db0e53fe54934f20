"""Span tracing of elliptica's public functions, installed from the benchmark side.

:func:`install` replaces every public function of the library modules with a
wrapper that records a span (name, start, end, parent span, op id) and, for a
few functions, exact work counts.  The wrapper is patched into every module
that holds a reference to the function (``harness`` and ``oracles`` import
names such as ``polar_grid`` and ``distortion_arrays`` directly), and onto
``HarmonicMap.eval`` / ``HarmonicMap.partials``.  The library source is never
edited; :meth:`Installation.uninstall` restores the originals.

Spans live in memory and are written out once, at the end of a run.  The
tracer keeps a plain call stack, so it is only valid for single-threaded
runs; the benchmark pins ``ELLIPTICA_THREADS=1`` while tracing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LIB_MODULES = ("constants", "distortion", "sampling", "seriescore", "extremals", "oracles", "harness")

# name -> (unit, better); the per-layer metrics of a traced run, in print order
PER_LAYER = {
    "import.wall_s": ("s", "lower"),
    "import.modules": ("count", "lower"),
    "cli.constants.wall_ms": ("ms", "lower"),
    "cli.extremal.wall_ms": ("ms", "lower"),
    "cli.check-map.wall_ms": ("ms", "lower"),
    "cli.boundary.wall_ms": ("ms", "lower"),
    "cli.verify-theorem.wall_ms": ("ms", "lower"),
    "cli.report.wall_ms": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "harness.verify_landau_probes.calls": ("count", "lower"),
    "harness.verify_landau_probes.s": ("s", "lower"),
    "harness.verify_landau_probes.self_s": ("s", "lower"),
    "harness.verify_coefficient_bounds.s": ("s", "lower"),
    "harness.random_elliptic.s": ("s", "lower"),
    "harness.bloch_pipeline.s": ("s", "lower"),
    "harness.remark_campaign.s": ("s", "lower"),
    "harness.parallel_map.speedup_2t": ("x", "higher"),
    "oracles.univalence_probe.calls": ("count", "lower"),
    "oracles.univalence_probe.s": ("s", "lower"),
    "oracles.univalence_probe.self_s": ("s", "lower"),
    "oracles.coverage_probe.calls": ("count", "lower"),
    "oracles.coverage_probe.s": ("s", "lower"),
    "oracles.coverage_probe.self_s": ("s", "lower"),
    "oracles.candidate_pairs": ("count", "lower"),
    "oracles.scanned_pairs": ("count", "lower"),
    "oracles.curve_points": ("count", "lower"),
    "oracles.winding_work": ("count", "lower"),
    "oracles.rounds_used": ("count", "lower"),
    "oracles.decisive_ratio": ("ratio", "higher"),
    "seriescore.eval.calls": ("count", "lower"),
    "seriescore.eval.scalar_calls": ("count", "lower"),
    "seriescore.eval.points": ("count", "lower"),
    "seriescore.eval.s": ("s", "lower"),
    "seriescore.partials.calls": ("count", "lower"),
    "seriescore.partials.scalar_calls": ("count", "lower"),
    "seriescore.partials.points": ("count", "lower"),
    "seriescore.partials.s": ("s", "lower"),
    "seriescore.horner_terms": ("count", "lower"),
    "distortion.distortion_arrays.calls": ("count", "lower"),
    "distortion.distortion_arrays.points": ("count", "lower"),
    "distortion.distortion_arrays.s": ("s", "lower"),
    "distortion.ellipticity_check.s": ("s", "lower"),
    "distortion.sup_lambda_min.s": ("s", "lower"),
    "distortion.profile.calls": ("count", "lower"),
    "sampling.polar_grid.points": ("count", "lower"),
    "sampling.polar_grid.s": ("s", "lower"),
    "sampling.disk_net.points": ("count", "lower"),
    "sampling.disk_net.s": ("s", "lower"),
    "sampling.halton.points": ("count", "lower"),
    "sampling.halton.s": ("s", "lower"),
    "constants.calls": ("count", "lower"),
    "constants.s": ("s", "lower"),
    "extremals.build.calls": ("count", "lower"),
    "extremals.build.s": ("s", "lower"),
    **{f"{mod}.self_s": ("s", "lower") for mod in LIB_MODULES},
    "trace.spans": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


class Tracer:
    """In-memory span store with a call stack and exact work counters."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.verdicts: list[tuple[str, str, dict]] = []
        self.op = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(self, name, args, result)
            return result

        return traced

    def adopt(self, spans: list, counts: dict, verdicts: list) -> None:
        """Attach spans recorded by a child process under the current span."""
        base = len(self.spans)
        top = self._stack[-1] if self._stack else -1
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end, base + parent if parent >= 0 else top, self.op])
        for key, value in counts.items():
            self.counts[key] += value
        self.verdicts.extend((name, status, res) for name, status, res in verdicts)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "verdicts": self.verdicts}


def _count_series(tracer: Tracer, name: str, args, result) -> None:
    f, z = args[0], args[1]
    points = int(np.size(z))
    tracer.counts[f"{name}.points"] += points
    if np.ndim(z) == 0:
        tracer.counts[f"{name}.scalar_calls"] += 1
    tracer.counts["seriescore.horner_terms"] += points * (f.truncation_degree + 1)


def _count_arg_points(tracer: Tracer, name: str, args, result) -> None:
    tracer.counts[f"{name}.points"] += int(np.size(args[1]))


def _count_result_points(tracer: Tracer, name: str, args, result) -> None:
    tracer.counts[f"{name}.points"] += len(result)


def _record_verdict(tracer: Tracer, name: str, args, result) -> None:
    tracer.verdicts.append((name, result.status, result.to_json_dict()["resolution"]))


_COUNTERS = {
    "seriescore.eval": _count_series,
    "seriescore.partials": _count_series,
    "distortion.distortion_arrays": _count_arg_points,
    "sampling.polar_grid": _count_result_points,
    "sampling.disk_net": _count_result_points,
    "sampling.halton": _count_result_points,
    "oracles.univalence_probe": _record_verdict,
    "oracles.coverage_probe": _record_verdict,
}


class Installation:
    """The patches applied by :func:`install`, reversible."""

    def __init__(self) -> None:
        self.patches: list[tuple[object, str, object]] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every public library function plus the two series evaluation methods."""
    modules = {short: importlib.import_module(f"elliptica.{short}") for short in LIB_MODULES}
    wrappers: dict[int, object] = {}
    for short, mod in modules.items():
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                name = f"{short}.{attr}"
                wrappers[id(fn)] = tracer.wrap(name, fn, _COUNTERS.get(name))

    done = Installation()
    holders = [m for key, m in sys.modules.items() if key == "elliptica" or key.startswith("elliptica.")]
    for holder in holders:
        for attr, value in list(vars(holder).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None and inspect.isfunction(value):
                done.patches.append((holder, attr, value))
                setattr(holder, attr, wrapper)

    series_map = modules["seriescore"].HarmonicMap
    for attr in ("eval", "partials"):
        original = getattr(series_map, attr)
        done.patches.append((series_map, attr, original))
        setattr(series_map, attr, tracer.wrap(f"seriescore.{attr}", original, _COUNTERS[f"seriescore.{attr}"]))
    return done


def _self_times(spans: list) -> list[float]:
    """Span duration minus the time its child spans cover (children never overlap)."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def _outermost(spans: list, keys: list[str]) -> list[bool]:
    """True for spans with no ancestor of the same key, so nested time counts once."""
    out = []
    for i, rec in enumerate(spans):
        parent = rec[3]
        while parent >= 0 and keys[parent] != keys[i]:
            parent = spans[parent][3]
        out.append(parent < 0)
    return out


def _totals(spans: list, keys: list[str]) -> dict[str, dict]:
    """calls, inclusive seconds and self seconds per key."""
    self_time = _self_times(spans)
    outer = _outermost(spans, keys)
    table: dict[str, dict] = {}
    for i, (_, start, end, _, _) in enumerate(spans):
        row = table.setdefault(keys[i], {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += self_time[i]
        if outer[i]:
            row["s"] += end - start
    return table


def _group(name: str) -> str:
    if name.startswith("constants."):
        return "constants"
    if name.startswith("extremals.build"):
        return "extremals.build"
    return name


def module_table(spans: list) -> dict[str, dict]:
    """calls, inclusive seconds and self seconds per module prefix of the span names."""
    return _totals(spans, [rec[0].split(".")[0] for rec in spans])


def _resolution_counts(verdicts: list) -> dict[str, float]:
    out = {"candidate_pairs": 0, "scanned_pairs": 0, "curve_points": 0, "winding_work": 0, "rounds_used": 0}
    decisive = 0
    for name, status, res in verdicts:
        for key in ("candidate_pairs", "scanned_pairs", "curve_points", "rounds_used"):
            out[key] += int(res.get(key, 0))
        if name == "oracles.coverage_probe":
            targets = res.get("winding_subsample", res.get("net_points", 0))
            out["winding_work"] += int(targets) * int(res.get("curve_points", 0))
        decisive += status in ("certified", "refuted")
    out["decisive_ratio"] = decisive / len(verdicts) if verdicts else 0.0
    return {f"oracles.{key}": value for key, value in out.items()}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics that follow from spans, counters and verdicts alone."""
    spans = tracer.spans
    groups = _totals(spans, [_group(rec[0]) for rec in spans])
    modules = module_table(spans)
    metrics: dict[str, float] = {}
    for name in PER_LAYER:
        head, _, stat = name.rpartition(".")
        if head in LIB_MODULES and stat == "self_s":
            metrics[name] = modules.get(head, {}).get("self_s", 0.0)
        elif stat in ("calls", "s", "self_s") and head.split(".")[0] in LIB_MODULES:
            metrics[name] = groups.get(head, {}).get(stat, 0)
        elif stat in ("points", "scalar_calls") or name == "seriescore.horner_terms":
            metrics[name] = tracer.counts.get(name, 0)
    metrics.update(_resolution_counts(tracer.verdicts))
    metrics["trace.spans"] = len(spans)
    return metrics
