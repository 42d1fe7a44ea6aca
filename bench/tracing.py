"""Span tracer installed from the benchmark around calls into each layer.

The package imports names directly (``from .calibrate import calibrate``),
so a function has to be wrapped in every namespace that calls it: the
call site, not only the defining module. ``Tracer.install`` patches each
(module, attribute) pair named in ``CALL_SITES`` and ``uninstall`` puts
the original objects back, so an untraced pass runs the package exactly
as shipped.

Spans are kept in memory as (id, parent id, name, start, end) and written
out by ``write_spans`` when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from contextlib import contextmanager

import numpy as np

# Span name -> the call-site namespaces whose attribute of that name is
# wrapped. Every site a traced workload reaches is listed; a name with
# several sites reports one span total over all of them.
CALL_SITES = {
    "optimizer.optimize": ("harness", "cli"),
    "optimizer.loss_gradient": ("optimizer",),
    "optimizer.trajectory_loss": ("optimizer",),
    "kinematics.trajectory_to_foot_velocity": ("harness", "cli", "optimizer"),
    "simulate.simulate_imu": ("harness", "cli"),
    "simulate.baseline_gait": ("harness",),
    "calibrate.calibrate": ("harness", "cli"),
    "calibrate.estimate_time_offset": ("calibrate",),
    "calibrate.estimate_rotation": ("calibrate",),
    "harness.run_matrix": ("harness",),
    "harness.build_trajectory": ("harness",),
    "harness.run_cell": ("harness",),
    "harness.rotation_error": ("harness",),
    "io.write_offset_scan": ("io",),
    "io.write_measurements": ("io",),
    "io.read_measurements": ("io",),
    "io.read_trajectory": ("io",),
    "io.write_calibration_report": ("io",),
    "io.write_ground_truth": ("io",),
    "io.write_summary_csv": ("io",),
    "io.write_summary_json": ("io",),
    "cli.main": ("cli",),
}

# Incremental writers the harness holds open for a whole matrix; the span
# covers each row written through the yielded callable, not the with-block.
ROW_WRITERS = {"io.write_row": "open_rows_writer", "io.write_timing": "open_timing_writer"}
# timing.csv holds wall times whose digit count varies, so its size is
# left out of io.bytes_written, which has to repeat exactly.
_SIZED_WRITERS = {"io.write_row"}

SPAN_NAMES = tuple(CALL_SITES) + tuple(ROW_WRITERS)
LAYERS = ("optimizer", "kinematics", "simulate", "calibrate", "harness", "io", "cli")


class Tracer:
    """Records spans and exact counts for calls made through patched call sites."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = [0]
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, func, on_return=None):
        """``func`` recording one span named ``name`` per call."""
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {short: importlib.import_module(f"footcalib.{short}")
                   for short in ("optimizer", "calibrate", "harness", "io", "cli")}
        hooks = self._hooks()
        for name, sites in CALL_SITES.items():
            attr = name.split(".", 1)[1]
            for site in sites:
                module = modules[site]
                original = getattr(module, attr)
                self._patch(module, attr, self.wrap(name, original, hooks.get(name)))
        for name, attr in ROW_WRITERS.items():
            module = modules["io"]
            self._patch(module, attr, self._traced_writer(name, getattr(module, attr)))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _traced_writer(self, name, opener):
        @contextmanager
        def traced(path, *args, **kwargs):
            with opener(path, *args, **kwargs) as write:
                yield self.wrap(name, write)
            if name in _SIZED_WRITERS:
                self.count("io.bytes_written", os.path.getsize(path))

        return traced

    def _hooks(self):
        def optimize_done(args, kwargs, result):
            self.count("optimizer.runs")
            self.count("optimizer.iterations", result.iterations)
            self.count("optimizer.converged", int(result.converged))
            self.counts["optimizer.kappa_final_max"] = max(
                self.counts.get("optimizer.kappa_final_max", 0.0), result.kappa_final)

        def offset_done(args, kwargs, result):
            foot, search = args[1], args[2]
            window = args[3] if len(args) > 3 else kwargs.get("window_samples")
            if window is None:
                margin = int(math.ceil(search.offset_range / foot.uniform_dt() - 1e-9))
                window = len(foot) - 2 * margin
            rows = len(result.scan)
            self.count("calibrate.candidates", rows)
            self.count("calibrate.failed_candidates", int(np.isnan(result.scan[:, 1]).sum()))
            self.count("calibrate.sample_pairs", rows * window)

        def wrote(args, kwargs, result):
            self.count("io.bytes_written", os.path.getsize(args[0]))

        def read(args, kwargs, result):
            self.count("io.bytes_read", os.path.getsize(args[0]))

        hooks = {"optimizer.optimize": optimize_done,
                 "calibrate.estimate_time_offset": offset_done}
        for name in CALL_SITES:
            if name.startswith("io.write_"):
                hooks[name] = wrote
            elif name.startswith("io.read_"):
                hooks[name] = read
        return hooks

    # -- summaries ---------------------------------------------------------

    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds."""
        child_time: dict[int, float] = {}
        for _, parent, _, start, end in self.spans:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        table = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for span_id, _, name, start, end in self.spans:
            row = table[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += (end - start) - child_time.get(span_id, 0.0)
        return table

    def fd_loss_share(self) -> float:
        """Share of trajectory_loss calls made inside loss_gradient."""
        names = {span_id: name for span_id, _, name, _, _ in self.spans}
        losses = [parent for _, parent, name, _, _ in self.spans
                  if name == "optimizer.trajectory_loss"]
        if not losses:
            return 0.0
        inside = sum(1 for parent in losses if names.get(parent) == "optimizer.loss_gradient")
        return inside / len(losses)

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            handle.write("id,parent,name,start_s,end_s\n")
            for span_id, parent, name, start, end in self.spans:
                handle.write(f"{span_id},{parent},{name},{start:.9f},{end:.9f}\n")
