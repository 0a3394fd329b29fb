"""Span tracer that wraps gprclutter's layer functions from outside.

``install`` replaces every reference to each function in ``LAYERS`` with a
wrapper that records one span per call: (name, start, end, parent, count).
Spans stay in memory; the job writes them once at the end and
``layer_metrics`` turns them into the per-layer metrics. Nothing under
``src/`` is modified.

A wrapper only sees calls made through a rebound reference, so ``install``
rebinds the defining module's attribute (which also catches calls inside
that module), every ``from ... import`` binding in the other gprclutter
modules, and function objects stored in module-level dicts such as
``harness.cli._EXPERIMENTS``. The coverage test compares the resulting call
counts with cProfile's.

This module uses only the standard library, so importing it before
gprclutter does not shift the measured import time.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

CALLS, SECONDS, SELF = ("calls", "count"), ("s", "s"), ("self_s", "s")
EVALS, ROWS, BYTES = ("evals", "count"), ("rows", "count"), ("bytes", "bytes")


def _size(bound, result):
    return int(result.size)


def _rows(bound, result):
    return int(result.shape[0])


def _written_bytes(bound, result):
    return sum(os.path.getsize(path) for path in result)


def _matrix_bytes(bound, result):
    return os.path.getsize(bound["path"])


# (module, function, stats, count of work from (bound arguments, result),
#  split). A split function is reported under one name per value of one
# argument: split is (argument, name template) and stats maps each value
# to the stats of its name. The CLI calls run_boundary only with
# which="scale" or which="noise".
LAYERS = (
    ("gprclutter.constitutive", "complex_permittivity", (CALLS, SECONDS), None, None),
    ("gprclutter.constitutive", "exact_contrast_field", (CALLS, SECONDS, SELF, EVALS), _size, None),
    ("gprclutter.constitutive", "sensitivity_components", (CALLS, SECONDS), None, None),
    ("gprclutter.forward", "born_kernel_tensor", (CALLS, SECONDS), None, None),
    ("gprclutter.forward", "assemble_forward", (CALLS, SECONDS, SELF), None, None),
    ("gprclutter.forward", "steering_vector", (CALLS, SECONDS), None, None),
    ("gprclutter.randfield", "build_spatial_factor", (CALLS, SECONDS), None, None),
    ("gprclutter.randfield", "build_covariance", (CALLS, SECONDS, SELF), None, None),
    ("gprclutter.randfield", "standard_normal_draws", (CALLS, SECONDS, ROWS), _rows, None),
    ("gprclutter.randfield", "sample_perturbations", (CALLS, SECONDS, SELF), None, None),
    ("gprclutter.montecarlo", "snapshots_from_perturbations",
     {"linear": (CALLS, SECONDS, ROWS), "exact": (CALLS, SECONDS, SELF, ROWS)},
     _rows, ("mode", "snapshots_{}")),
    ("gprclutter.montecarlo", "sample_covariance", (CALLS, SECONDS), None, None),
    ("gprclutter.montecarlo", "closure_from_covariances", (CALLS, SECONDS), None, None),
    ("gprclutter.montecarlo", "validity_scan", (CALLS, SECONDS, SELF), None, None),
    ("gprclutter.spectra", "clutter_covariance", (CALLS, SECONDS), None, None),
    ("gprclutter.spectra", "spectral_summary", (CALLS, SECONDS), None, None),
    ("gprclutter.spectra", "target_overlap", (CALLS, SECONDS), None, None),
    ("gprclutter.harness.experiments", "run_derivative_check", (SECONDS,), None, None),
    ("gprclutter.harness.experiments", "run_validity_scan", (SECONDS,), None, None),
    ("gprclutter.harness.experiments", "run_kernel_diff", (SECONDS,), None, None),
    ("gprclutter.harness.experiments", "run_fda_scan", (SECONDS,), None, None),
    ("gprclutter.harness.experiments", "run_closure", (SECONDS,), None, None),
    ("gprclutter.harness.experiments", "run_lx_scan", (SECONDS,), None, None),
    ("gprclutter.harness.experiments", "run_coupling_scan", (SECONDS,), None, None),
    ("gprclutter.harness.experiments", "run_target_scan", (SECONDS,), None, None),
    ("gprclutter.harness.experiments", "run_boundary",
     {"scale": (SECONDS,), "noise": (SECONDS,)}, None, ("which", "run_boundary_{}")),
    ("gprclutter.harness.cli", "write_result", (CALLS, SECONDS, BYTES), _written_bytes, None),
    ("gprclutter.harness.cmat", "persist_matrix", (CALLS, SECONDS, BYTES), _matrix_bytes, None),
    ("gprclutter.scene", "build_default_geometry", (CALLS, SECONDS), None, None),
    ("gprclutter.harness.config", "load_config", (CALLS, SECONDS), None, None),
)

TRACE_STATS = (("trace.coverage", "ratio"), ("trace.overhead_s", "s"))


def span_name(module: str, function: str) -> str:
    """``<module>.<function>``, the module without its package path."""
    return f"{module.rsplit('.', 1)[-1]}.{function}"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    return {**_span_units(), **dict(TRACE_STATS)}


def _span_units() -> dict[str, str]:
    units = {}
    for module, function, stats, _, split in LAYERS:
        if split is None:
            named = {span_name(module, function): stats}
        else:
            named = {span_name(module, split[1].format(value)): value_stats
                     for value, value_stats in stats.items()}
        for name, name_stats in named.items():
            for stat, unit in name_stats:
                units[f"{name}.{stat}"] = unit
    return units


class Tracer:
    """In-memory span recorder. Spans are [name, start, end, parent, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.originals: dict[str, object] = {}
        # span name of a split function's call -> the function's own name
        self.split_names: dict[str, str] = {}

    def wrap(self, fn, name: str, count=None, split=None):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if (count or split) else None
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            label = name
            if split is not None:
                label = f"{layer}.{split[1].format(bound[split[0]])}"
                self.split_names[label] = name
            index = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1, 0])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if count is not None:
                spans[index][4] = count(bound, result)
            return result

        return traced


def install() -> Tracer:
    """Wrap every function in LAYERS, in every gprclutter module already loaded."""
    tracer = Tracer()
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "gprclutter" or n.startswith("gprclutter."))]
    for module_name, function, _, count, split in LAYERS:
        original = getattr(sys.modules[module_name], function)
        name = span_name(module_name, function)
        wrapper = tracer.wrap(original, name, count, split)
        tracer.originals[name] = original
        _rebind(modules, original, wrapper)
    return tracer


def _rebind(modules, original, wrapper) -> None:
    """Point every module attribute and module-level dict entry at wrapper."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper


def layer_metrics(spans: list, wall_s: float) -> dict[str, float]:
    """Per-layer calls, inclusive and self busy time, counts, and coverage.

    ``trace.overhead_s`` needs the untraced runs, so the caller adds it.

    Self time is a span's duration minus its direct children's durations;
    spans are nested and single-threaded, so children never overlap.
    Coverage is the share of ``wall_s`` covered by top-level spans.
    """
    child_time = [0.0] * len(spans)
    top_level = 0.0
    for name, start, end, parent, _ in spans:
        if parent < 0:
            top_level += end - start
        else:
            child_time[parent] += end - start
    totals: dict[str, list] = {}
    for index, (name, start, end, parent, count) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0.0, 0.0, 0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_time[index]
        entry[3] += count
    position = {"calls": 0, "s": 1, "self_s": 2, "evals": 3, "rows": 3, "bytes": 3}
    metrics = {}
    for metric in _span_units():
        name, stat = metric.rsplit(".", 1)
        metrics[metric] = totals.get(name, (0, 0.0, 0.0, 0))[position[stat]]
    metrics["trace.coverage"] = top_level / wall_s
    return metrics
