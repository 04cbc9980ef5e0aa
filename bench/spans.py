"""Spans around the public functions of bundlecast's modules, recorded from outside.

A span is one call: its layer name, start, end, the span that was open when
it began (its parent), and the run id shared by every span of one run.
Spans stay in memory; the caller writes them out when the run ends.

``install`` replaces a function in every ``bundlecast.*`` namespace that
holds it. That matters because ``pipeline.py`` binds its callees with
``from .x import y``, so patching only the defining module would miss the
calls ``run`` makes. Modules are looked up with ``importlib``, because the
package re-exports a function named ``reconcile`` over the module of that
name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time


def _greedy_merges(bound, result, exc):
    n = len(bound.arguments["asset_order"])
    reached = result.n_bundles if exc is None else getattr(exc, "bundles_reached", n)
    return {"merges": n - reached}


def _rows_written(bound, result, exc):
    if exc is not None:
        return {}
    path = bound.arguments["path"]
    return {"rows": int(bound.arguments["forecast"].values.size),
            "bytes": os.path.getsize(path)}


def _rows_read(bound, result, exc):
    return {} if exc is not None else {"rows": int(result.values.size)}


def _leads(bound, result, exc):
    if exc is not None:
        return {}
    return {"leads": result.horizon, "gains_bytes": int(result.gains.nbytes)}


# (module, function, counter): the layer boundaries the traced run records.
LAYERS = (
    ("core", "ingest_panel", None),
    ("core", "covariance", None),
    ("bundling", "greedy_merge", _greedy_merges),
    ("forecast", "rolling_forecast", None),
    ("forecast", "ridge_fit", None),
    ("forecast", "hierarchy_actuals", None),
    ("forecast", "write_forecast_csv", _rows_written),
    ("forecast", "read_forecast_csv", _rows_read),
    ("reconcile", "estimate_weights", None),
    ("reconcile", "build_reconciler", _leads),
    ("reconcile", "reconcile", None),
    ("metrics", "evaluate", None),
)

# The span around each CLI command is named after the pipeline function the
# command runs. ``cli.main`` looks its commands up in a table built at import
# time, so the benchmark records these spans around ``cli.main`` itself.
COMMAND_SPANS = {
    "run": "pipeline.run",
    "sweep": "pipeline.run_sweep",
    "bundle": "pipeline.stage_bundle",
    "forecast": "pipeline.stage_forecast",
    "reconcile": "pipeline.stage_reconcile",
    "evaluate": "pipeline.stage_evaluate",
}


class Tracer:
    """Collects spans of one run in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "run_id": self.run_id,
                    "parent": self._open[-1] if self._open else None,
                    "start": time.perf_counter(), "end": None, "counts": {}}
            index = len(self.spans)
            self.spans.append(span)
            self._open.append(index)
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
                if counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span["counts"] = counter(bound, result, error)

        return traced

    def install(self) -> None:
        """Wrap every layer function in each bundlecast namespace that binds it."""
        importlib.import_module("bundlecast.cli")  # imports every module
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "bundlecast" or name.startswith("bundlecast.")]
        for module, function, counter in LAYERS:
            original = getattr(importlib.import_module(f"bundlecast.{module}"), function)
            traced = self.wrap(f"{module}.{function}", original, counter)
            for namespace in namespaces:
                if getattr(namespace, function, None) is original:
                    setattr(namespace, function, traced)


def self_time(spans, index: int) -> float:
    """A span's duration minus the part of it its child spans cover.

    The program is single-threaded, so the children of one span run one
    after another and never overlap.
    """
    span = spans[index]
    children = sum(s["end"] - s["start"] for s in spans if s["parent"] == index)
    return (span["end"] - span["start"]) - children


# Per-layer metrics of the traced run: name -> unit. Times are inclusive wall
# seconds summed over calls; counts are exact.
LAYER_METRICS = {
    "core.ingest_panel_s": "s",
    "core.covariance_s": "s",
    "bundling.greedy_merge_s": "s",
    "bundling.greedy_merge_calls": "count",
    "bundling.merges": "count",
    "forecast.rolling_forecast_s": "s",
    "forecast.ridge_fit_s": "s",
    "forecast.ridge_fit_calls": "count",
    "forecast.write_forecast_csv_s": "s",
    "forecast.write_forecast_csv_rows": "count",
    "forecast.write_forecast_csv_mb": "MB",
    "forecast.read_forecast_csv_s": "s",
    "forecast.read_forecast_csv_rows": "count",
    "forecast.hierarchy_actuals_s": "s",
    "reconcile.estimate_weights_s": "s",
    "reconcile.build_reconciler_s": "s",
    "reconcile.leads": "count",
    "reconcile.gains_mb": "MB",
    "reconcile.reconcile_s": "s",
    "metrics.evaluate_s": "s",
    "pipeline.stage_bundle_s": "s",
    "pipeline.stage_forecast_s": "s",
    "pipeline.stage_reconcile_s": "s",
    "pipeline.stage_evaluate_s": "s",
    "pipeline.self_s": "s",
    "synth.write_synth_csv_s": "s",
    "bench.trace_overhead_s": "s",
}

# Metrics that must repeat exactly between two traced runs of one input.
EXACT_COUNTS = tuple(name for name, unit in LAYER_METRICS.items() if unit != "s")


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced run, from its command's spans.

    ``synth.write_synth_csv_s`` and ``bench.trace_overhead_s`` are measured
    by the benchmark around the run and are not computed here.
    """
    def total(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def calls(name):
        return [s for s in spans if s["name"] == name]

    def count_sum(name, key):
        return sum(s["counts"].get(key, 0) for s in calls(name))

    out = {}
    for module, function, _ in LAYERS:
        out[f"{module}.{function}_s"] = total(f"{module}.{function}")
    for name in COMMAND_SPANS.values():
        if f"{name}_s" in LAYER_METRICS:
            out[f"{name}_s"] = total(name)
    out["bundling.greedy_merge_calls"] = len(calls("bundling.greedy_merge"))
    out["bundling.merges"] = count_sum("bundling.greedy_merge", "merges")
    out["forecast.ridge_fit_calls"] = len(calls("forecast.ridge_fit"))
    out["forecast.write_forecast_csv_rows"] = count_sum("forecast.write_forecast_csv", "rows")
    out["forecast.write_forecast_csv_mb"] = (
        count_sum("forecast.write_forecast_csv", "bytes") / 1e6)
    out["forecast.read_forecast_csv_rows"] = count_sum("forecast.read_forecast_csv", "rows")
    out["reconcile.leads"] = count_sum("reconcile.build_reconciler", "leads")
    out["reconcile.gains_mb"] = max(
        (s["counts"].get("gains_bytes", 0) for s in calls("reconcile.build_reconciler")),
        default=0) / 1e6
    out["pipeline.self_s"] = sum(
        self_time(spans, i) for i, s in enumerate(spans)
        if s["parent"] is None and s["name"] in COMMAND_SPANS.values())
    return out
