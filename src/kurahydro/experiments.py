"""Scenario runner and hysteresis sweeps.

A ScenarioConfig bundles parameters, grids, initial data, and solver choice;
run_scenario advances the Eulerian solver and/or the Lagrangian oracle to
t_end (or blow-up), returning diagnostics series and field snapshots, and
optionally writing a results directory.  hysteresis_sweep walks a coupling
path forward and backward with warm starts, reading off quasi-steady order
parameters.

Only the generator _advance steps the finite-volume solver; run_eulerian
(series rows, snapshots) and steady_r (steady-state test) consume it.
"""
from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import io as run_io
from .diagnostics import BlowupMonitor, SeriesBuilder, _field_cell_masses, kinetic_energy
# perfbench's tracer wraps both names here: run_eulerian builds its rows
# through _field_row, and energies is imported only so the hook resolves.
from .diagnostics import energies  # noqa: F401
from .diagnostics import series_row as _field_row
from .domain import (
    InitSpec,
    Params,
    TableData,
    discretize_frequency,
    init_state,
    make_theta_grid,
)
from .fv import MassClipError, SchemeConfig, Workspace, cfl_dt, step_rk2
from .lagrangian import evolve, pushforward_density, sample_initial
from .meanfield import order_parameter


@dataclass(frozen=True)
class ScenarioConfig:
    params: Params
    init: InitSpec
    n_theta: int = 1000
    g: str = "dirac"
    omega0: float = 0.0
    n_omega: int = 600
    omega_L: float = 5.0
    t_end: float = 5.0
    record_dt: float = 0.01
    snapshot_times: tuple = ()
    solver: str = "eulerian"
    scheme: SchemeConfig = SchemeConfig()
    n_samples: int = 1024
    dt_oracle: float = 1e-3

    def __post_init__(self):
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        if not self.record_dt > 0:
            raise ValueError("record_dt must be positive")
        if self.solver not in ("eulerian", "lagrangian", "both"):
            raise ValueError("solver must be eulerian, lagrangian, or both")
        tabulated = (isinstance(p, TableData) for p in (self.init.rho0, self.init.u0))
        if self.solver != "eulerian" and any(tabulated):
            raise ValueError(
                f"init_table runs with solver eulerian only, not {self.solver}: "
                "the oracle samples symbolic initial data"
            )
        if self.g not in ("dirac", "gaussian"):
            raise ValueError("g must be dirac or gaussian")
        object.__setattr__(self, "snapshot_times", tuple(self.snapshot_times))
        # a negative time is never reached, so neither solver would write it;
        # times past t_end stay accepted (a shortened run keeps its config)
        if any(not t >= 0 for t in self.snapshot_times):
            raise ValueError("snapshot_times must be nonnegative")
        # distinct times whose file names agree would overwrite one snapshot
        named = {}
        for t in self.snapshot_times:
            other = named.setdefault(run_io.snapshot_filename(t), t)
            if other is not t and float(other) != float(t):
                raise ValueError(
                    f"snapshot times {other!r} and {t!r} share the file name "
                    f"{run_io.snapshot_filename(t)}"
                )


def build_grids(config):
    grid = make_theta_grid(config.n_theta)
    if config.g == "dirac":
        omega = discretize_frequency("dirac", omega0=config.omega0)
    else:
        omega = discretize_frequency("gaussian", config.n_omega, config.omega_L)
    return grid, omega


def build_state(config):
    grid, omega = build_grids(config)
    return init_state(config.init, grid, omega)


@dataclass
class EulerianRun:
    series: object
    final: object
    snapshots: dict
    blowup: object = None
    failure: str | None = None


def _advance(state, params, scheme, monitor, t_stop, ws):
    """Step with dt = min(cfl_dt, t_stop - t), yielding each new state.

    The monitor sees each state before it is yielded.  Stops at t_stop (within
    1e-12) or once the monitor has fired; MassClipError propagates.  All steps
    share the caller's fv.Workspace ws (one per run), and each calls cfl_dt
    and then step_rk2 on the same state.
    """
    while state.t < t_stop - 1e-12 and not monitor.fired:
        dt = min(cfl_dt(state, scheme), t_stop - state.t)
        state = step_rk2(state, dt, params, scheme, ws)
        monitor.observe(state)
        yield state


def run_eulerian(config, state=None):
    """Advance the finite-volume solver to t_end, blow-up, or solver failure."""
    if state is None:
        state = build_state(config)
    params = config.params
    scheme = config.scheme
    eps_supp = 1e-8 * float(np.max(state.rho))
    monitor = BlowupMonitor(scheme.blowup_rho_factor, scheme.blowup_grad)
    monitor.observe(state)

    record_times = np.arange(
        state.t, config.t_end + 0.5 * config.record_dt, config.record_dt
    )
    events = sorted(
        set(np.round(record_times, 12))
        | {round(float(ts), 12) for ts in config.snapshot_times if ts <= config.t_end}
        | {round(config.t_end, 12)}
    )
    snap_set = {round(float(ts), 12) for ts in config.snapshot_times}

    builder = SeriesBuilder()
    Ek_integral = 0.0
    Ek_prev = kinetic_energy(_field_cell_masses(state), state.u)
    builder.append(_field_row(state, params, Ek_integral, eps_supp))
    snapshots = {}
    if round(state.t, 12) in snap_set:
        snapshots[float(state.t)] = state
    failure = None
    ws = Workspace()

    for target in events:
        if target <= state.t:
            continue
        try:
            for new_state in _advance(state, params, scheme, monitor, target, ws):
                # rebind first, so the old state is freed before E_k's temporaries
                t_prev, state = state.t, new_state
                Ek_now = kinetic_energy(_field_cell_masses(state), state.u)
                Ek_integral += 0.5 * (state.t - t_prev) * (Ek_prev + Ek_now)
                Ek_prev = Ek_now
        except MassClipError as err:
            failure = str(err)
        builder.append(_field_row(state, params, Ek_integral, eps_supp))
        if round(float(state.t), 12) in snap_set:
            snapshots[float(target)] = state
        if monitor.fired or failure is not None:
            break
    return EulerianRun(builder.build(), state, snapshots, monitor.event, failure)


def run_lagrangian(config):
    """Run the characteristic oracle for the same scenario."""
    _, omega = build_grids(config)
    ens = sample_initial(config.init, omega, config.n_samples)
    record_every = max(1, int(round(config.record_dt / config.dt_oracle)))
    return evolve(
        ens,
        config.params,
        config.t_end,
        dt=config.dt_oracle,
        record_every=record_every,
        snapshot_times=config.snapshot_times,
    )


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    eulerian: EulerianRun | None = None
    lagrangian: object | None = None
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


def _manifest_payload(config, wall_time, solver, extra=None):
    from . import __version__
    from .config import serialize_config

    payload = {
        "config": serialize_config(config),
        "solver": solver,
        "version": __version__,
        "wall_time_s": wall_time,
    }
    if extra:
        payload.update(extra)
    return payload


def write_scenario_result(result, out_dir):
    """Write series/snapshots/manifest; 'both' runs get per-solver subdirs.

    Each manifest's `wall_time_s` is that solver's own time from
    `result.wall_times`; a result built outside run_scenario carries no
    times and writes null.
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
        for t_s, *fields in _snapshot_fields(solver, run, grid):
            run_io.write_snapshot_csv(
                os.path.join(snap_dir, run_io.snapshot_filename(t_s)), *fields
            )
        extra = {
            "blowup": None
            if run.blowup is None
            else {"t": run.blowup.t, "reason": run.blowup.reason},
            "failure": getattr(run, "failure", None),
        }
        run_io.write_manifest(
            os.path.join(path, "manifest.json"),
            _manifest_payload(config, result.wall_times.get(solver), solver, extra),
        )


def marginalize(state, omega=None):
    """Frequency-marginal fields: rho_tilde = sum_k rho w_k, same for u."""
    if omega is None:
        omega = state.omega
    w = omega.weights[:, None]
    return (state.rho * w).sum(axis=0), (state.u * w).sum(axis=0)


# ---------------------------------------------------------------------------
# Quasi-steady order parameter and hysteresis sweeps.


@dataclass(frozen=True)
class SweepConfig:
    """Coupling path (forward leg then backward leg) plus steady-state knobs."""

    k_path: tuple
    steady_tol: float = 1e-4
    steady_window: float = 1.0
    t_max: float = 50.0
    refine_step: float | None = None
    refine_window: float = 0.3
    base: ScenarioConfig | None = None

    def __post_init__(self):
        object.__setattr__(self, "k_path", tuple(float(k) for k in self.k_path))
        if not self.k_path:
            raise ValueError("k_path must contain at least one coupling value")
        if any(k < 0 for k in self.k_path):
            raise ValueError("coupling values must be nonnegative")
        for name in ("steady_tol", "steady_window", "t_max", "refine_window"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.refine_step is not None and not self.refine_step > 0:
            raise ValueError("refine_step must be positive")
        if self.refine_step is not None and len(self.k_path) > 1:
            steps = [
                abs(b - a)
                for a, b in zip(self.k_path, self.k_path[1:])
                if abs(b - a) > 0
            ]
            if steps and self.refine_step >= min(steps):
                raise ValueError("refine_step must be smaller than the sweep step")

    def branches(self):
        """Split the path at its peak into (forward, backward) legs."""
        peak = max(range(len(self.k_path)), key=lambda i: self.k_path[i])
        forward = self.k_path[: peak + 1]
        backward = self.k_path[peak:] or forward
        return forward, backward


def steady_r(config, K, warm_state, sweep):
    """Integrate at coupling K until r settles; returns (r_inf, state, flag).

    Steady when |r(t) - r(t - window)| < tol (checked once the window has
    elapsed), capped at t_max, where an unsettled r warns (RuntimeWarning).
    Blow-up or solver failure maps to r_inf = 1 with the flag set, returning
    the last finite state for warm-starting.
    """
    params = replace(config.params, K=float(K))
    scheme = config.scheme
    state = replace(warm_state, t=0.0, clipped_mass=0.0)
    monitor = BlowupMonitor(scheme.blowup_rho_factor, scheme.blowup_grad)
    if monitor.observe(state) is not None:  # a non-finite warm start
        return 1.0, state, True
    history = [(0.0, order_parameter(state).r)]
    head = 0
    r_now = history[0][1]
    dr = 0.0
    try:
        for new_state in _advance(state, params, scheme, monitor, sweep.t_max, Workspace()):
            if monitor.fired:
                return 1.0, state, True
            state = new_state
            r_now = order_parameter(state).r
            history.append((state.t, r_now))
            # Compare against the latest record at or before t - window, so
            # the criterion can only fire once a full window has elapsed.
            while (
                head + 1 < len(history)
                and history[head + 1][0] <= state.t - sweep.steady_window
            ):
                head += 1
            t_ref, r_ref = history[head]
            dr = abs(r_now - r_ref)
            if t_ref <= state.t - sweep.steady_window and dr < sweep.steady_tol:
                break
        else:
            msg = f"r did not settle at K={K:g} by t_max={sweep.t_max:g}; last |dr|"
            msg += f" over the window {dr:.3g} (tol {sweep.steady_tol:g})"
            warnings.warn(msg, RuntimeWarning, stacklevel=2)
    except MassClipError:
        return 1.0, state, True
    return r_now, state, False


@dataclass
class SweepResult:
    forward: list = field(default_factory=list)
    backward: list = field(default_factory=list)
    jumps: dict = field(default_factory=dict)

    def loop_area(self):
        """Area enclosed between branches: integral of |r_back - r_fwd| dK."""
        kf = np.array([p[0] for p in self.forward])
        rf = np.array([p[1] for p in self.forward])
        kb = np.array([p[0] for p in self.backward])
        rb = np.array([p[1] for p in self.backward])
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
        points.append((float(K), float(r_inf), bool(flag)))
        if keep_states:
            states.append(state)
    return points, states, state


def _refine_branch(config, sweep, points, states, direction):
    """Insert refined K points in a window around each detected jump."""
    refined = list(points)
    for k0, k1, _ in _jumps_of(points):
        center = 0.5 * (k0 + k1)
        lo, hi = center - sweep.refine_window, center + sweep.refine_window
        ks = np.arange(lo, hi + 0.5 * sweep.refine_step, sweep.refine_step)
        existing = {round(k, 9) for k, _, _ in refined}
        ks = [k for k in ks if k >= 0 and round(k, 9) not in existing]
        if direction == "backward":
            ks = sorted(ks, reverse=True)
        else:
            ks = sorted(ks)
        if not ks:
            continue
        # Warm-start from the last base point on the approach side of the window.
        if direction == "forward":
            anchor_idx = max(
                (i for i, (k, _, _) in enumerate(points) if k <= ks[0]), default=0
            )
        else:
            anchor_idx = max(
                (i for i, (k, _, _) in enumerate(points) if k >= ks[0]), default=0
            )
        new_points, _, _ = _walk(config, sweep, ks, states[anchor_idx], False)
        refined.extend(new_points)
    refined.sort(key=lambda p: p[0], reverse=(direction == "backward"))
    return refined


def _jumps_of(points):
    out = []
    for (k0, r0, _), (k1, r1, _) in zip(points, points[1:]):
        if abs(r1 - r0) > 0.1:
            out.append((k0, k1, r1 - r0))
    return out


def hysteresis_sweep(sweep, base=None, out_dir=None):
    """Walk K forward then backward with warm starts; detect r jumps."""
    t0 = time.perf_counter()
    config = base if base is not None else sweep.base
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
        result.forward = _refine_branch(config, sweep, result.forward, f_states, "forward")
        result.backward = _refine_branch(
            config, sweep, result.backward, b_states, "backward"
        )
    result.jumps = {
        "forward": _jumps_of(result.forward),
        "backward": _jumps_of(result.backward),
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        run_io.write_sweep_csv(os.path.join(out_dir, "sweep.csv"), result)
        from .config import serialize_config

        extra = {"sweep": serialize_config(sweep)["sweep"]}
        run_io.write_manifest(
            os.path.join(out_dir, "manifest.json"),
            _manifest_payload(config, time.perf_counter() - t0, "sweep", extra),
        )
    return result
