"""Per-layer tracing from outside the program.

The tracer replaces functions on the module that looks them up at call time
(``kurahydro.experiments.step_rk2`` is the name run_eulerian and steady_r
call), so no file of the program changes.  Each call becomes a span
(id, parent id, name, start, end); spans stay in memory and are written when
the run ends.  A few hooks read counts off the arguments and results (cells
stepped, the dt that limited a step, bytes written and read).  Layer busy
time, self time and call counts are aggregated from the spans.
"""
from __future__ import annotations

import gzip
import importlib
import os
import time

LAYERS = (
    "fv",
    "meanfield",
    "diagnostics",
    "lagrangian",
    "experiments",
    "io",
    "config",
    "domain",
    "cli",
)

# (module that looks the name up, attribute path, layer)
HOOKS = (
    ("kurahydro.config", "parse_config", "config"),
    ("kurahydro.experiments", "make_theta_grid", "domain"),
    ("kurahydro.experiments", "discretize_frequency", "domain"),
    ("kurahydro.experiments", "init_state", "domain"),
    ("kurahydro.experiments", "hysteresis_sweep", "experiments"),
    ("kurahydro.experiments", "steady_r", "experiments"),
    ("kurahydro.experiments", "run_eulerian", "experiments"),
    ("kurahydro.experiments", "write_scenario_result", "experiments"),
    ("kurahydro.experiments", "step_rk2", "fv"),
    ("kurahydro.experiments", "cfl_dt", "fv"),
    ("kurahydro.fv", "rhs", "fv"),
    ("kurahydro.fv", "reconstruct", "fv"),
    ("kurahydro.fv", "kt_flux", "fv"),
    ("kurahydro.fv", "order_parameter", "meanfield"),
    ("kurahydro.experiments", "order_parameter", "meanfield"),
    ("kurahydro.fv", "mean_field_force", "meanfield"),
    ("kurahydro.experiments", "_field_row", "diagnostics"),
    ("kurahydro.experiments", "energies", "diagnostics"),
    ("kurahydro.lagrangian", "_row", "diagnostics"),
    ("kurahydro.diagnostics", "BlowupMonitor.observe", "diagnostics"),
    ("kurahydro.lagrangian", "sample_initial", "lagrangian"),
    ("kurahydro.lagrangian", "evolve", "lagrangian"),
    ("kurahydro.lagrangian", "_derivs", "lagrangian"),
    ("kurahydro.lagrangian", "pushforward_density", "lagrangian"),
    ("kurahydro.io", "write_series_csv", "io"),
    ("kurahydro.io", "write_snapshot_csv", "io"),
    ("kurahydro.io", "write_manifest", "io"),
    ("kurahydro.cli", "read_series_csv", "io"),
    ("kurahydro.cli", "read_snapshot_csv", "io"),
    ("kurahydro.cli", "compare_runs", "cli"),
)

# Per-layer metrics: name -> unit.  Layers a workload does not reach read 0.
METRIC_UNITS = {
    "fv.steps": "count",
    "fv.cfl_limited_frac": "ratio",
    "fv.step_s": "s",
    "fv.rhs_calls": "count",
    "fv.rhs_s": "s",
    "fv.reconstruct_s": "s",
    "fv.kt_flux_s": "s",
    "fv.ns_per_cell_step": "ns",
    "fv.cfl_s": "s",
    "fv.clipped_mass_max": "1",
    "meanfield.order_parameter_calls": "count",
    "meanfield.order_parameter_s": "s",
    "meanfield.force_s": "s",
    "diagnostics.monitor_calls": "count",
    "diagnostics.monitor_s": "s",
    "diagnostics.rows": "count",
    "diagnostics.row_s": "s",
    "lagrangian.sample_steps": "count",
    "lagrangian.evolve_s": "s",
    "lagrangian.ns_per_sample_step": "ns",
    "lagrangian.pushforward_s": "s",
    "experiments.sweep_points": "count",
    "experiments.steps_per_point": "count",
    "io.snapshot_write_s": "s",
    "io.snapshot_read_s": "s",
    "io.series_s": "s",
    "io.bytes_written": "B",
    "io.bytes_read": "B",
    "cli.compare_s": "s",
    "config.parse_s": "s",
    "domain.init_s": "s",
}
for _layer in LAYERS:
    METRIC_UNITS[f"{_layer}.busy_s"] = "s"
    METRIC_UNITS[f"{_layer}.self_s"] = "s"
    METRIC_UNITS[f"{_layer}.calls"] = "count"
METRIC_UNITS.update({"trace.wall_s": "s", "trace.overhead_s": "s", "trace.unhooked": "count"})


class Tracer:
    """Wraps the HOOKS targets; records spans and counters in memory."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.layer_of = []
        self.spans = []  # (id, parent, name index, start ns, end ns)
        self.stack = [0]
        self.missing = []
        self.counts = {
            "cells": 0,
            "cfl_limited": 0,
            "clipped_max": 0.0,
            "sample_evals": 0,
            "bytes_written": 0,
            "bytes_read": 0,
        }
        self._last_cfl = None
        self._restore = []

    def install(self):
        for module_name, attr_path, layer in HOOKS:
            label = f"{module_name}.{attr_path}"
            owner = importlib.import_module(module_name)
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(label)
                continue
            self.names.append(attr_path.rsplit(".", 1)[-1])
            self.layer_of.append(layer)
            setattr(owner, attr, self._wrap(fn, len(self.names) - 1, attr))
            self._restore.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def _wrap(self, fn, index, attr):
        spans, stack = self.spans, self.stack
        after = getattr(self, "_after_" + attr, None)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, index, start, end))
            if after is not None:
                after(args, result)
            return result

        return traced

    # Counters read off arguments and results, outside the span's interval.
    def _after_cfl_dt(self, args, dt):
        self._last_cfl = dt

    def _after_step_rk2(self, args, state):
        # CFL-limited: the step took cfl_dt's value and that was below max_dt
        # (a smaller dt came from an event time, an equal one from the cap).
        dt, scheme = args[1], args[3]
        self.counts["cells"] += args[0].rho.size
        if dt == self._last_cfl and dt < scheme.max_dt:
            self.counts["cfl_limited"] += 1
        self._last_cfl = None
        self.counts["clipped_max"] = max(self.counts["clipped_max"], state.clipped_mass)

    def _after__derivs(self, args, result):
        self.counts["sample_evals"] += args[0].size

    def _count_written(self, args, result):
        self.counts["bytes_written"] += os.path.getsize(args[0])

    def _count_read(self, args, result):
        self.counts["bytes_read"] += os.path.getsize(args[0])

    _after_write_series_csv = _after_write_snapshot_csv = _after_write_manifest = _count_written
    _after_read_series_csv = _after_read_snapshot_csv = _count_read

    def write_spans(self, path):
        """Spans as gzipped CSV: run_id,id,parent,layer,name,start_ns,end_ns."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("run_id,id,parent,layer,name,start_ns,end_ns\n")
            for span_id, parent, index, start, end in sorted(self.spans):
                fh.write(
                    f"{self.run_id},{span_id},{parent},{self.layer_of[index]},"
                    f"{self.names[index]},{start},{end}\n"
                )

    def metrics(self):
        """Aggregate spans and counters into the per-layer metrics (seconds)."""
        n = len(self.names)
        calls = [0] * n
        total = [0] * n
        child_ns = {}
        layer_by_id = {0: None}
        for span_id, _, index, _, _ in self.spans:
            layer_by_id[span_id] = self.layer_of[index]
        layer_calls = dict.fromkeys(LAYERS, 0)
        busy = dict.fromkeys(LAYERS, 0)
        self_ns = dict.fromkeys(LAYERS, 0)
        for span_id, parent, index, start, end in self.spans:
            dur = end - start
            calls[index] += 1
            total[index] += dur
            child_ns[parent] = child_ns.get(parent, 0) + dur
        for span_id, parent, index, start, end in self.spans:
            layer = self.layer_of[index]
            dur = end - start
            layer_calls[layer] += 1
            self_ns[layer] += dur - child_ns.get(span_id, 0)
            if layer_by_id.get(parent) != layer:
                busy[layer] += dur

        def calls_of(*names):
            return sum(calls[i] for i in range(n) if self.names[i] in names)

        def secs(*names):
            return sum(total[i] for i in range(n) if self.names[i] in names) / 1e9

        c = self.counts
        steps = calls_of("step_rk2")
        points = calls_of("steady_r")
        sample_steps = c["sample_evals"] // 4
        out = {
            "fv.steps": steps,
            "fv.cfl_limited_frac": c["cfl_limited"] / steps if steps else 0.0,
            "fv.step_s": secs("step_rk2"),
            "fv.rhs_calls": calls_of("rhs"),
            "fv.rhs_s": secs("rhs"),
            "fv.reconstruct_s": secs("reconstruct"),
            "fv.kt_flux_s": secs("kt_flux"),
            "fv.ns_per_cell_step": secs("step_rk2") * 1e9 / c["cells"] if c["cells"] else 0.0,
            "fv.cfl_s": secs("cfl_dt"),
            "fv.clipped_mass_max": c["clipped_max"],
            "meanfield.order_parameter_calls": calls_of("order_parameter"),
            "meanfield.order_parameter_s": secs("order_parameter"),
            "meanfield.force_s": secs("mean_field_force"),
            "diagnostics.monitor_calls": calls_of("observe"),
            "diagnostics.monitor_s": secs("observe"),
            "diagnostics.rows": calls_of("_field_row", "_row"),
            "diagnostics.row_s": secs("_field_row", "_row"),
            "lagrangian.sample_steps": sample_steps,
            "lagrangian.evolve_s": secs("evolve"),
            "lagrangian.ns_per_sample_step": (
                secs("evolve") * 1e9 / sample_steps if sample_steps else 0.0
            ),
            "lagrangian.pushforward_s": secs("pushforward_density"),
            "experiments.sweep_points": points,
            "experiments.steps_per_point": steps / points if points else 0.0,
            "io.snapshot_write_s": secs("write_snapshot_csv"),
            "io.snapshot_read_s": secs("read_snapshot_csv"),
            "io.series_s": secs("write_series_csv", "read_series_csv"),
            "io.bytes_written": c["bytes_written"],
            "io.bytes_read": c["bytes_read"],
            "cli.compare_s": secs("compare_runs"),
            "config.parse_s": secs("parse_config"),
            "domain.init_s": busy["domain"] / 1e9,
        }
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = busy[layer] / 1e9
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
            out[f"{layer}.calls"] = layer_calls[layer]
        return out
