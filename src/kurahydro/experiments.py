"""Scenario runner and hysteresis sweeps.

A config.ScenarioConfig bundles parameters, grids, initial data, and solver
choice; run_scenario advances the Eulerian solver and/or the Lagrangian
oracle to t_end (or blow-up), returning diagnostics series and field
snapshots, and optionally writing a results directory.  hysteresis_sweep
walks a coupling path forward and backward with warm starts, reading off
quasi-steady order parameters; each point is one io.SweepPoint, a row of
sweep.csv, that _walk makes and every other reader reads by field name.

Only the generator _advance steps the finite-volume solver.  It owns a
run's loop state, building its BlowupMonitor and fv.Workspace, yields the
start state and every state after it, and lands on each output time it is
given.  _field_states (the states run_eulerian records through
diagnostics.record_run) and steady_r (steady-state test) consume it.
"""
from __future__ import annotations

import os
import time
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from . import io as run_io
from .config import ScenarioConfig, serialize_config
from .diagnostics import (
    BlowupMonitor,
    RunResult,
    _field_cell_masses,
    kinetic_energy,
    record_run,
    time_key,
)
# perfbench's tracer wraps both names here: run_eulerian builds its rows
# through _field_row, and energies is imported only so the hook resolves.
from .diagnostics import energies  # noqa: F401
from .diagnostics import series_row as _field_row
from .domain import discretize_frequency, init_state, make_theta_grid
from .fv import MassClipError, Workspace, cfl_dt, step_rk2
from .lagrangian import evolve, oracle_step, pushforward_density, sample_initial
from .meanfield import order_parameter


def build_grids(config):
    grid = make_theta_grid(config.n_theta)
    if config.g == "dirac":
        omega = discretize_frequency("dirac")
    else:
        omega = discretize_frequency("gaussian", config.n_omega, config.omega_L)
    return grid, omega


def build_state(config):
    grid, omega = build_grids(config)
    return init_state(config.init, grid, omega)


def _advance(state, params, scheme, stops):
    """Step a finite-volume run to each of stops (ascending) in turn,
    yielding (state, op, extrema, event) for the start state and after
    each step.

    op is order_parameter of the yielded state, handed to the next step_rk2
    as its stage-1 value; extrema is what the run's BlowupMonitor returned
    on observing it, and event the monitor's event (None until it fires).
    Each step has dt = min(cfl_dt, stop - t), calling cfl_dt and then
    step_rk2 on the same state, and a stop counts as reached within 1e-12.
    Nothing is yielded after the event; MassClipError propagates.  The
    run's one BlowupMonitor and fv.Workspace are built here.
    """
    monitor = BlowupMonitor(scheme.blowup_rho_factor)
    ws = Workspace()
    extrema = monitor.observe(state)
    op = order_parameter(state)
    yield state, op, extrema, monitor.event
    for stop in stops:
        while state.t < stop - 1e-12 and not monitor.fired:
            dt = min(cfl_dt(state, scheme), stop - state.t)
            state = step_rk2(state, dt, params, scheme, ws, op)
            extrema = monitor.observe(state)
            op = order_parameter(state)
            yield state, op, extrema, monitor.event


def _field_states(state, config, stops):
    """The states run_eulerian records (see diagnostics.record_run): every
    state _advance yields on its way to stops, carrying the E_k trapezoid
    sum over every step.  Returns (blowup, failure): the run ends on the
    last state yielded, at the last stop, on blow-up, or the last good
    state when a step fails with MassClipError.

    A row takes the order parameter and monitor extrema that _advance
    yielded with its state and the state's E_k from the trapezoid sum.
    row and stored read the current state, so record_run calls them
    before the next step.
    """
    params = config.params
    eps_supp = 1e-8 * float(np.max(state.rho))
    Ek_integral, Ek_now = 0.0, None

    def row():
        return _field_row(state, params, Ek_integral, eps_supp, Ek=Ek_now, op=op,
                          extrema=extrema)

    def stored():
        return state

    try:
        for new_state, op, extrema, event in _advance(state, params, config.scheme, stops):
            # rebind first, so the old state is freed before E_k's temporaries
            t_prev, state = state.t, new_state
            Ek_prev, Ek_now = Ek_now, kinetic_energy(_field_cell_masses(state), state.u)
            if Ek_prev is not None:  # every state after the start
                Ek_integral += 0.5 * (state.t - t_prev) * (Ek_prev + Ek_now)
            yield state.t, row, stored
    except MassClipError as err:
        return event, str(err)
    return event, None


def run_eulerian(config, state=None):
    """Advance the finite-volume solver to t_end, blow-up, or solver failure.

    diagnostics.record_run chooses the rows and snapshots, with rows at the
    multiples of record_dt; the solver steps to each of those, to each
    snapshot time and to t_end.
    """
    state = build_state(config) if state is None else state
    t_last = time_key(config.t_end)
    record_dt = config.record_dt
    grid_times = np.arange(state.t, config.t_end + 0.5 * record_dt, record_dt)
    row_times = [time_key(t) for t in grid_times]
    times = {*row_times, *map(time_key, config.snapshot_times), t_last}
    stops = sorted(t for t in times if state.t < t <= t_last)
    return record_run(_field_states(state, config, stops), row_times, config.snapshot_times)


def run_lagrangian(config):
    """Run the characteristic oracle for the same scenario."""
    _, omega = build_grids(config)
    ens = sample_initial(config.init, omega, config.n_samples)
    return evolve(
        ens,
        config.params,
        config.t_end,
        dt=config.dt_oracle,
        record_every=oracle_step(config.record_dt, config.dt_oracle, "record_dt"),
        snapshot_times=config.snapshot_times,
    )


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    eulerian: RunResult | None = None
    lagrangian: RunResult | None = None
    wall_times: dict = field(default_factory=dict)  # solver -> seconds


def run_scenario(config, out_dir=None):
    """Run the configured solver(s), timing each; optionally write a results directory."""
    result = ScenarioResult(config)
    for solver, runner in (("eulerian", run_eulerian), ("lagrangian", run_lagrangian)):
        if config.solver in (solver, "both"):
            t0 = time.perf_counter()
            setattr(result, solver, runner(config))
            result.wall_times[solver] = time.perf_counter() - t0
    if out_dir is not None:
        write_scenario_result(result, out_dir)
    return result


def _snapshot_fields(solver, run, grid):
    """Yield (t, theta, omega_values, rho, u) for each snapshot of a run."""
    for t_s, snap in sorted(run.snapshots.items()):
        if solver == "eulerian":
            yield t_s, snap.grid.centers, snap.omega.nodes, snap.rho, snap.u
        else:
            omega_values, rho, u = pushforward_density(snap, grid, per_omega=True)
            yield t_s, grid.centers, omega_values, rho, u


def _manifest_payload(config, wall_time, solver, extra):
    return {
        "config": serialize_config(config),
        "solver": solver,
        "version": __version__,
        "wall_time_s": wall_time,
        **extra,
    }


def write_scenario_result(result, out_dir):
    """Write series/snapshots/manifest; 'both' runs get per-solver subdirs.

    A snapshots/ directory holds this run's snapshots only: a t=*.npz file
    that an earlier run left there and this run does not write is removed,
    and so is every t=*.csv snapshot of an earlier version, so the
    directory never mixes two runs or two formats.  Each manifest's
    `wall_time_s` is that solver's own time from `result.wall_times`; a
    result built outside run_scenario carries no times and writes null.
    """
    config = result.config
    grid, _ = build_grids(config)
    for solver in ("eulerian", "lagrangian"):
        run = getattr(result, solver)
        if run is None:
            continue
        path = os.path.join(out_dir, solver) if config.solver == "both" else out_dir
        snap_dir = os.path.join(path, "snapshots")
        os.makedirs(snap_dir, exist_ok=True)
        run_io.write_series_csv(os.path.join(path, "series.csv"), run.series)
        keep = {run_io.snapshot_filename(t_s) for t_s in run.snapshots}
        for name in os.listdir(snap_dir):
            stale = run_io.is_snapshot_name(name) and name not in keep
            if stale or run_io.is_csv_snapshot_name(name):
                os.remove(os.path.join(snap_dir, name))
        for t_s, *fields in _snapshot_fields(solver, run, grid):
            run_io.write_snapshot_csv(
                os.path.join(snap_dir, run_io.snapshot_filename(t_s)), *fields
            )
        extra = {
            "blowup": None
            if run.blowup is None
            else {"t": run.blowup.t, "reason": run.blowup.reason},
            "failure": run.failure,
        }
        run_io.write_manifest(
            os.path.join(path, "manifest.json"),
            _manifest_payload(config, result.wall_times.get(solver), solver, extra),
        )


def marginalize(state):
    """Frequency-marginal fields: rho_tilde = sum_k rho w_k, same for u."""
    w = state.omega.weights[:, None]
    return (state.rho * w).sum(axis=0), (state.u * w).sum(axis=0)


# ---------------------------------------------------------------------------
# Quasi-steady order parameter and hysteresis sweeps.


def steady_r(config, K, warm_state, sweep):
    """Integrate at coupling K until r settles; returns (r_inf, state, flag).

    Steady when |r(t) - r(t_ref)| < tol, t_ref the latest state at or
    before t - window (so only once a full window has elapsed), capped at
    t_max, where an unsettled r warns (RuntimeWarning).  Blow-up or solver
    failure maps to r_inf = 1 with the flag set, returning the last finite
    state for warm-starting.  r of each state is the order parameter that
    _advance yields with it.
    """
    params = replace(config.params, K=float(K))
    state = replace(warm_state, t=0.0, clipped_mass=0.0)
    times, rs = [], []
    dr = None
    try:
        for new_state, op, _, event in _advance(state, params, config.scheme, [sweep.t_max]):
            if event is not None:
                return 1.0, state, True
            state = new_state
            times.append(state.t)
            rs.append(op.r)
            ref = bisect_right(times, state.t - sweep.steady_window) - 1
            if ref >= 0:
                dr = abs(op.r - rs[ref])
                if dr < sweep.steady_tol:
                    break
        else:
            msg = f"r did not settle at K={K:g}"
            if dr is None:
                msg += f": no window of steady_window={sweep.steady_window:g} elapsed"
                msg += f" by t_max={sweep.t_max:g}"
            else:
                msg += f" by t_max={sweep.t_max:g}; last |dr| over the window {dr:.3g}"
                msg += f" (tol {sweep.steady_tol:g})"
            warnings.warn(msg, RuntimeWarning, stacklevel=2)
    except MassClipError:
        return 1.0, state, True
    return rs[-1], state, False


@dataclass
class SweepResult:
    forward: list = field(default_factory=list)
    backward: list = field(default_factory=list)
    jumps: dict = field(default_factory=dict)

    def loop_area(self):
        """Area enclosed between branches: integral of |r_back - r_fwd| dK."""
        kf = np.array([p.K for p in self.forward])
        rf = np.array([p.r_inf for p in self.forward])
        kb = np.array([p.K for p in self.backward])
        rb = np.array([p.r_inf for p in self.backward])
        order_f = np.argsort(kf)
        order_b = np.argsort(kb)
        k_all = np.union1d(kf, kb)
        rf_i = np.interp(k_all, kf[order_f], rf[order_f])
        rb_i = np.interp(k_all, kb[order_b], rb[order_b])
        gap = np.abs(rb_i - rf_i)
        return float(np.sum(0.5 * (gap[1:] + gap[:-1]) * np.diff(k_all)))


def _walk(config, sweep, k_values, start_state, keep_states):
    points, states = [], []
    state = start_state
    for K in k_values:
        r_inf, state, flag = steady_r(config, K, state, sweep)
        points.append(run_io.SweepPoint(float(K), float(r_inf), bool(flag)))
        if keep_states:
            states.append(state)
    return points, states, state


# Half-width, in K, of the window _refine_branch walks around each jump.
REFINE_WINDOW = 0.3


def _refine_branch(config, sweep, points, states, sign):
    """Insert refined K points in the REFINE_WINDOW around each detected jump.

    sign is +1 on the forward leg (K rising) and -1 on the backward leg: the
    leg's points and each window's new points are walked in order of sign*K.
    """
    refined = list(points)
    for k0, k1, _ in _jumps_of(points):
        center = 0.5 * (k0 + k1)
        lo, hi = center - REFINE_WINDOW, center + REFINE_WINDOW
        ks = np.arange(lo, hi + 0.5 * sweep.refine_step, sweep.refine_step)
        existing = {round(p.K, 9) for p in refined}
        ks = [k for k in ks if k >= 0 and round(k, 9) not in existing]
        ks.sort(key=lambda k: sign * k)
        if not ks:
            continue
        # Warm-start from the last base point on the approach side of the window.
        anchor_idx = max(
            (i for i, p in enumerate(points) if sign * p.K <= sign * ks[0]), default=0
        )
        new_points, _, _ = _walk(config, sweep, ks, states[anchor_idx], False)
        refined.extend(new_points)
    refined.sort(key=lambda p: sign * p.K)
    return refined


def _jumps_of(points):
    # a SweepPoint, or a (K, r_inf, blowup_flag) tuple from perfbench's self-test
    points = [run_io.SweepPoint._make(p) for p in points]
    pairs = zip(points, points[1:])
    return [(a.K, b.K, b.r_inf - a.r_inf) for a, b in pairs if abs(b.r_inf - a.r_inf) > 0.1]


def hysteresis_sweep(sweep, out_dir=None):
    """Walk K forward then backward with warm starts from sweep.base; detect r jumps."""
    t0 = time.perf_counter()
    config = sweep.base
    if config is None:
        raise ValueError("hysteresis_sweep needs a base ScenarioConfig")
    keep = sweep.refine_step is not None
    start = build_state(config)
    result = SweepResult()
    k_forward, k_backward = sweep.branches()
    result.forward, f_states, end_state = _walk(
        config, sweep, k_forward, start, keep
    )
    result.backward, b_states, _ = _walk(config, sweep, k_backward, end_state, keep)
    if keep:
        result.forward = _refine_branch(config, sweep, result.forward, f_states, 1)
        result.backward = _refine_branch(config, sweep, result.backward, b_states, -1)
    result.jumps = {
        "forward": _jumps_of(result.forward),
        "backward": _jumps_of(result.backward),
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        run_io.write_sweep_csv(os.path.join(out_dir, "sweep.csv"), result)
        extra = {"sweep": serialize_config(sweep)["sweep"]}
        run_io.write_manifest(
            os.path.join(out_dir, "manifest.json"),
            _manifest_payload(config, time.perf_counter() - t0, "sweep", extra),
        )
    return result
