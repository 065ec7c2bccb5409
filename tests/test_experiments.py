"""Scenario runner, marginals, steady-state detection, hysteresis sweeps."""
from __future__ import annotations

import math
import os
import re
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import peak_fields, row_from_scratch
from hypothesis import given, settings
from hypothesis import strategies as st

from kurahydro import (
    SERIES_COLUMNS,
    BlowupEvent,
    BlowupMonitor,
    InitSpec,
    Params,
    RhoGaussian,
    ScenarioConfig,
    SchemeConfig,
    SweepConfig,
    SweepResult,
    UConst,
    USine,
    build_grids,
    build_state,
    cfl_dt,
    discretize_frequency,
    evolve,
    hysteresis_sweep,
    make_theta_grid,
    marginalize,
    normalize_slices,
    order_parameter,
    resolve_config,
    run_eulerian,
    run_lagrangian,
    run_scenario,
    sample_initial,
    serialize_config,
    steady_r,
    step_rk2,
)
from kurahydro.diagnostics import _field_cell_masses, kinetic_energy, min_grad_u
from kurahydro.domain import FieldState
from kurahydro.experiments import ScenarioResult, write_scenario_result
from kurahydro.io import SweepPoint, list_snapshots, read_manifest, read_series_csv, read_sweep_csv


def _config(**kw):
    base = dict(
        params=Params(0.5, 0.1),
        init=InitSpec(RhoGaussian(), USine(-1.0)),
        n_theta=80,
        t_end=0.5,
        record_dt=0.1,
        n_samples=160,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def test_scenario_config_validation():
    with pytest.raises(ValueError, match="t_end"):
        _config(t_end=0.0)
    with pytest.raises(ValueError, match="record_dt"):
        _config(record_dt=-1.0)
    with pytest.raises(ValueError, match="solver"):
        _config(solver="spectral")
    with pytest.raises(ValueError, match="g must be"):
        _config(g="cauchy")
    for dt_oracle in (0.0, -1e-3, float("nan")):
        with pytest.raises(ValueError, match="dt_oracle must be positive"):
            _config(dt_oracle=dt_oracle)
    # refused here, naming the key, not later by the frequency grid
    for omega_L in (float("inf"), -1.0):
        with pytest.raises(ValueError, match="omega_L must be positive and finite"):
            _config(g="gaussian", omega_L=omega_L)
    with pytest.raises(ValueError, match="n_samples must be at least 2"):
        _config(n_samples=1)
    # the oracle would write its nearest step's ensemble, up to dt_oracle / 2
    # away, under the time's name; the FV solver and times past the oracle's
    # last step are unaffected
    for t_s, step_t in ((0.005, "0"), (0.026, "0.03"), (0.034, "0.03")):
        msg = rf"entry {t_s} .* nearest oracle step time is {step_t}$"
        with pytest.raises(ValueError, match=msg):
            _config(solver="lagrangian", dt_oracle=1e-2, snapshot_times=(0.0, t_s))
        assert _config(snapshot_times=(t_s,)).snapshot_times == (t_s,)
        late = (9.0 + t_s,)
        assert _config(solver="both", snapshot_times=late).snapshot_times == late


def test_oracle_writes_every_snapshot_time_that_rounds_to_one_step(tmp_path):
    """On the dt_oracle = 2e-4 grid 0.1 and 0.1004 are steps 500 and 502:
    the oracle writes each time from its own step, as the FV run writes
    both.  At dt = 1e-3, 0.1004 is no step time, and evolve refuses it
    rather than write step 100's ensemble under its name."""
    cfg = _config(solver="both", t_end=0.2, snapshot_times=(0.1, 0.1004), dt_oracle=2e-4)
    result = run_scenario(cfg, out_dir=str(tmp_path))
    for sub in ("eulerian", "lagrangian"):
        assert set(list_snapshots(str(tmp_path / sub))) == {0.1, 0.1004}
    for t_s, ens in result.lagrangian.snapshots.items():
        assert ens.t == pytest.approx(t_s, abs=1e-12)
    ens = sample_initial(cfg.init, build_grids(cfg)[1], 16)
    msg = r"snapshot time 0\.1004 is not a multiple .* nearest oracle step time is 0\.1$"
    with pytest.raises(ValueError, match=msg):
        evolve(ens, cfg.params, 0.2, dt=1e-3, snapshot_times=(0.1, 0.1004))


def test_evolve_refuses_an_end_time_off_its_step_grid():
    """T = 0.2004 is 200.4 steps of 1e-3: the run would end at a time other
    than T, so evolve refuses it and names the nearest step time."""
    ens = sample_initial(_config().init, build_grids(_config())[1], 16)
    with pytest.raises(ValueError, match=r"^T 0\.2004 .* step time is 0\.2$"):
        evolve(ens, Params(0.5, 0.1), 0.2004, dt=1e-3)
    # a snapshot time past T is not written, on the grid or off it
    run = evolve(ens, Params(0.5, 0.1), 0.2, dt=1e-3, snapshot_times=(0.2, 0.2004, 0.3))
    assert set(run.snapshots) == {0.2}


@pytest.mark.parametrize(
    "key,value,nearest",
    [("t_end", 0.505, "0.5"), ("record_dt", 0.015, "0.02")],
)
def test_oracle_times_off_the_step_grid_are_rejected(key, value, nearest):
    """The oracle writes rows at its steps only: a t_end or record_dt off the
    dt_oracle = 1e-2 grid is refused, naming the key and the nearest step
    time, for solver lagrangian or both; the FV solver alone takes it."""
    msg = rf"^{key} {value} is not a multiple of dt_oracle=0\.01; .* is {nearest}$"
    for solver in ("lagrangian", "both"):
        with pytest.raises(ValueError, match=msg):
            _config(solver=solver, **{key: value})
        # within round-off of step 0: the oracle would never step or record
        with pytest.raises(ValueError, match=f"^{key} must be at least dt_oracle=0.01$"):
            _config(solver=solver, **{key: 1e-12})
    assert getattr(_config(**{key: value}), key) == value


def test_distinct_snapshot_times_get_distinct_files(tmp_path):
    """0.1234561 and 0.1234564 print alike in %g but are distinct times, so
    each gets a file of its own; times that agree to 12 decimals are one
    time to run_eulerian, and to the file names."""
    cfg = _config(t_end=0.2, snapshot_times=(0.1234561, 0.1234564, 0.2, 0.2 + 1e-14))
    run_scenario(cfg, out_dir=str(tmp_path / "fv"))
    names = sorted(os.listdir(tmp_path / "fv" / "snapshots"))
    assert names == ["t=0.1234561.npz", "t=0.1234564.npz", "t=0.2.npz"]
    cfg = _config(solver="lagrangian", t_end=0.2, snapshot_times=(0.1, 0.1 + 1e-14))
    run_scenario(cfg, out_dir=str(tmp_path / "oracle"))
    assert os.listdir(tmp_path / "oracle" / "snapshots") == ["t=0.1.npz"]
    assert _config(snapshot_times=[0.1, 0.1, 0.2]).snapshot_times == (0.1, 0.1, 0.2)
    assert _config(snapshot_times=[0, 0.0]).snapshot_times == (0, 0.0)


def test_negative_snapshot_times_are_rejected():
    """No run reaches a negative time, so neither solver would write that
    snapshot; times past t_end stay accepted, so a shortened run keeps its
    config's snapshot list."""
    with pytest.raises(ValueError, match="snapshot_times must be nonnegative"):
        _config(solver="both", snapshot_times=[0.1, -1.0])
    assert _config(snapshot_times=[0.0, 9.0]).snapshot_times == (0.0, 9.0)


def test_build_grids_kinds():
    grid, om = build_grids(_config())
    assert grid.n == 80 and om.n == 1
    grid2, om2 = build_grids(_config(g="gaussian", n_omega=32))
    assert om2.n == 32
    assert om2.weights.sum() == pytest.approx(1.0, abs=1e-14)


def test_run_eulerian_series_cadence():
    run = run_eulerian(_config())
    t = run.series.t
    assert t[0] == 0.0
    assert t[-1] == pytest.approx(0.5, abs=1e-9)
    assert len(t) == 6  # 0.0, 0.1, ..., 0.5
    assert np.max(run.series.mass_err) < 1e-12
    assert run.blowup is None and run.failure is None


def test_run_scenario_snapshots_and_both_solvers():
    cfg = _config(solver="both", snapshot_times=(0.0, 0.3))
    result = run_scenario(cfg)
    assert set(result.eulerian.snapshots) == {0.0, 0.3}
    assert set(result.lagrangian.snapshots) == {0.0, 0.3}
    assert result.eulerian.snapshots[0.3].t == pytest.approx(0.3, abs=1e-9)
    # the two solvers agree on the coarse order parameter
    r_e = result.eulerian.series.r[-1]
    r_l = result.lagrangian.series.r[-1]
    assert abs(r_e - r_l) < 5e-3


def test_marginalize_dirac_identity():
    state = build_state(_config())
    rho_t, u_t = marginalize(state)
    assert np.allclose(rho_t, state.rho[0], atol=0.0)
    assert np.allclose(u_t, state.u[0], atol=0.0)


def test_marginalize_mass_and_omega_independence(rng):
    grid = make_theta_grid(48)
    om = discretize_frequency("gaussian", 8, 5.0)
    rho = normalize_slices(rng.uniform(0.1, 1.0, size=(8, 48)), grid.dtheta)
    u = rng.normal(size=(8, 48))
    state = FieldState(grid, om, rho, u)
    rho_t, _ = marginalize(state)
    assert grid.dtheta * rho_t.sum() == pytest.approx(1.0, abs=1e-12)
    flat = np.tile(rho[0], (8, 1))
    state2 = FieldState(grid, om, flat, np.tile(u[0], (8, 1)))
    rho_t2, u_t2 = marginalize(state2)
    assert np.allclose(rho_t2, rho[0], atol=1e-14)
    assert np.allclose(u_t2, u[0], atol=1e-14)


def test_steady_r_waits_for_window():
    cfg = _config(params=Params(0.5, 2.0), n_theta=60)
    sweep = SweepConfig(k_path=(2.0,), steady_window=1.0, steady_tol=1e-4, t_max=30.0)
    state = build_state(cfg)
    r_inf, final, flag = steady_r(cfg, 2.0, state, sweep)
    assert not flag
    assert final.t >= 1.0  # can only settle after a full window
    assert r_inf > 0.95  # strong coupling of identical oscillators synchronizes
    assert np.allclose(final.per_slice_mass(), 1.0, atol=1e-10)


def test_steady_r_blowup_maps_to_one():
    cfg = _config(
        params=Params(1.0, 1.0),
        init=InitSpec(RhoGaussian(), USine(-2.0)),
        n_theta=100,
        scheme=SchemeConfig(blowup_rho_factor=5.0),
    )
    sweep = SweepConfig(k_path=(1.0,), t_max=10.0)
    r_inf, final, flag = steady_r(cfg, 1.0, build_state(cfg), sweep)
    assert flag
    assert r_inf == 1.0
    assert np.all(np.isfinite(final.rho))  # last state before the flag


def test_steady_r_warns_when_t_max_stops_it_unsettled():
    """t_max below steady_window: no window elapsed, so no |dr| to report."""
    cfg = _config(n_theta=60)
    sweep = SweepConfig(k_path=(0.1,), steady_window=1.0, t_max=0.5)
    msg = r"K=0.1: no window of steady_window=1 elapsed by t_max=0.5$"
    with pytest.warns(RuntimeWarning, match=msg):
        r_inf, final, flag = steady_r(cfg, 0.1, build_state(cfg), sweep)
    assert not flag
    assert final.t == pytest.approx(0.5)
    assert 0.0 < r_inf < 1.0


def test_steady_r_warns_with_the_last_dr_once_a_window_elapsed():
    """A window elapsed before t_max: the warning gives the last |dr| over
    it, |r(t_max) - r(t_ref)| with t_ref the last step at or before
    t_max - steady_window."""
    cfg = _config(n_theta=60)
    sweep = SweepConfig(k_path=(0.1,), steady_window=0.2, steady_tol=1e-12, t_max=0.5)
    msg = r"K=0.1 by t_max=0.5; last \|dr\| over the window (\S+) \(tol 1e-12\)$"
    with pytest.warns(RuntimeWarning, match=msg) as caught:
        r_inf, final, flag = steady_r(cfg, 0.1, build_state(cfg), sweep)
    assert not flag
    assert final.t == pytest.approx(0.5)
    state, r_ref = build_state(cfg), None
    while state.t < 0.5 - 1e-12:
        if state.t <= 0.5 - 0.2:
            r_ref = order_parameter(state).r
        state = step_rk2(state, min(cfl_dt(state, cfg.scheme), 0.5 - state.t), cfg.params,
                         cfg.scheme)
    assert r_inf == order_parameter(state).r
    dr = re.search(msg, str(caught[0].message)).group(1)
    assert dr == f"{abs(r_inf - r_ref):.3g}"
    assert float(dr) > 1e-12


# A plain cfl_dt / step_rk2 / monitor loop, written out here so that the
# solver's own stepping can be held to it bit for bit.
def _reference_steps(state, params, scheme, targets):
    """Step to each target in turn; returns (state, state before it, fired)."""
    monitor = BlowupMonitor(scheme.blowup_rho_factor)
    monitor.observe(state)
    before = state
    for target in targets:
        while state.t < target - 1e-12 and not monitor.fired:
            before = state
            dt = min(cfl_dt(state, scheme), target - state.t)
            state = step_rk2(state, dt, params, scheme)
            monitor.observe(state)
    return state, before, monitor.fired


def _assert_same_state(a, b):
    assert a.t == b.t
    assert a.clipped_mass == b.clipped_mass
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(a.u, b.u)


_GAUSSIAN = dict(g="gaussian", n_omega=5, n_theta=64, t_end=0.6, record_dt=0.2)
_BLOWUP = dict(
    params=Params(1.0, 1.0),
    init=InitSpec(RhoGaussian(), USine(-2.0)),
    n_theta=100,
    t_end=1.0,
    record_dt=0.25,
    scheme=SchemeConfig(blowup_rho_factor=5.0),
)


@pytest.mark.parametrize("kw", [_GAUSSIAN, _BLOWUP], ids=["gaussian", "blowup"])
def test_run_eulerian_matches_reference_loop_bitwise(kw):
    cfg = _config(**kw)
    n_records = round(cfg.t_end / cfg.record_dt)
    targets = [round(k * cfg.record_dt, 12) for k in range(1, n_records + 1)]
    ref, _, fired = _reference_steps(build_state(cfg), cfg.params, cfg.scheme, targets)
    run = run_eulerian(cfg)
    assert (run.blowup is not None) == fired == (kw is _BLOWUP)
    _assert_same_state(run.final, ref)


@pytest.mark.parametrize("kw", [_GAUSSIAN, _BLOWUP], ids=["t_max", "blowup"])
def test_steady_r_matches_reference_loop_bitwise(kw):
    cfg = _config(**kw)
    K = cfg.params.K
    sweep = SweepConfig(k_path=(K,), steady_window=1.0, t_max=0.6)
    start = build_state(cfg)
    ref, before, fired = _reference_steps(start, cfg.params, cfg.scheme, [0.6])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # t_max < window
        r_inf, state, flag = steady_r(cfg, K, start, sweep)
    assert flag == fired == (kw is _BLOWUP)
    if fired:
        assert r_inf == 1.0
        _assert_same_state(state, before)
    else:
        assert r_inf == order_parameter(ref).r
        _assert_same_state(state, ref)


def test_ek_integral_is_the_trapezoid_over_every_step_bitwise():
    """Ek_integral sums 0.5 * dt * (E_k before + E_k after) over every step."""
    cfg = _config(**_GAUSSIAN)
    state = build_state(cfg)
    targets = [round(k * cfg.record_dt, 12) for k in range(1, 4)]
    ek_prev, integral, expected = kinetic_energy(_field_cell_masses(state), state.u), 0.0, [0.0]
    for target in targets:
        while state.t < target - 1e-12:
            dt = min(cfl_dt(state, cfg.scheme), target - state.t)
            new = step_rk2(state, dt, cfg.params, cfg.scheme)
            ek = kinetic_energy(_field_cell_masses(new), new.u)
            integral += 0.5 * (new.t - state.t) * (ek_prev + ek)
            ek_prev, state = ek, new
        expected.append(integral)
    assert run_eulerian(cfg).series.Ek_integral.tolist() == expected


@pytest.mark.parametrize("kw", [_GAUSSIAN, _BLOWUP], ids=["gaussian", "blowup"])
def test_run_eulerian_rows_are_the_rows_from_scratch(kw):
    """Each row, built from the E_k and the monitor extrema that the run
    computed, has the bits of the row from scratch on that state."""
    cfg = _config(**kw)
    times = [round(k * cfg.record_dt, 12) for k in range(round(cfg.t_end / cfg.record_dt) + 1)]
    cfg = _config(**kw, snapshot_times=times)
    start = build_state(cfg)
    eps_supp = 1e-8 * float(np.max(start.rho))
    run = run_eulerian(cfg, start)
    # a run stopped by blow-up ends on a row between snapshot times
    states = [state for _, state in sorted(run.snapshots.items())]
    states += [run.final] * (len(run.series) - len(states))
    assert len(states) == len(run.series) > 2
    for row, state in zip(run.series.data, states):
        assert row[0] == state.t
        scratch = row_from_scratch(state, cfg.params, row[-1], eps_supp)
        assert row.tobytes() == np.array(scratch).tobytes()


def _count_order_parameters(monkeypatch):
    """Record every order_parameter call in the modules that take one of a
    field, and every state that experiments.step_rk2 steps from."""
    from kurahydro import experiments, fv

    calls = []
    for module in (experiments, fv):
        real = module.order_parameter

        def counting(state, real=real):
            calls.append(state)
            return real(state)

        monkeypatch.setattr(module, "order_parameter", counting)
    steps = []
    real_step = experiments.step_rk2

    def recording(state, *args):
        steps.append(state)
        return real_step(state, *args)

    monkeypatch.setattr(experiments, "step_rk2", recording)
    return calls, steps


def test_steady_r_hands_each_order_parameter_to_the_next_step(monkeypatch):
    """Two order parameters per sweep step, not three: the one _advance
    takes of each new state is steady_r's r and the next step's stage-1
    value, and the warm start's is the first step's."""
    calls, steps = _count_order_parameters(monkeypatch)
    cfg = _config(**_GAUSSIAN)
    sweep = SweepConfig(k_path=(cfg.params.K,), steady_window=1.0, t_max=0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # t_max < window
        steady_r(cfg, cfg.params.K, build_state(cfg), sweep)
    assert len(steps) > 3
    assert len(calls) == 1 + 2 * len(steps)


@pytest.mark.parametrize("kw", [_GAUSSIAN, _BLOWUP], ids=["gaussian", "blowup"])
def test_run_eulerian_takes_two_order_parameters_per_step(monkeypatch, kw):
    """The initial state's, then per step stage 2's and the new state's,
    which its row and the next step's stage 1 take: no row takes its own."""
    calls, steps = _count_order_parameters(monkeypatch)
    run = run_eulerian(_config(**kw))
    assert len(steps) > len(run.series) > 2
    assert len(calls) == 1 + 2 * len(steps)


def _clip_at(monkeypatch, k):
    """Make experiments.step_rk2 raise MassClipError on its k-th call;
    returns the list of states it was called on."""
    from kurahydro import experiments
    from kurahydro.fv import MassClipError

    seen = []
    real_step = experiments.step_rk2

    def clipping(state, dt, *args):
        seen.append(state)
        if len(seen) == k:
            raise MassClipError(state.t + dt, 1.0)
        return real_step(state, dt, *args)

    monkeypatch.setattr(experiments, "step_rk2", clipping)
    return seen


@pytest.mark.parametrize(
    "k", [1, 5, 21, 27], ids=["first-step", "first-interval", "first-after-a-row", "mid-run"]
)
def test_clip_abort_ends_the_run_on_the_last_good_state(monkeypatch, k):
    """A step that clips too much mass ends the run: the failure is set,
    the last row has the bits of a row from scratch on the state the failed
    step started from, and every snapshot holds the state of its own time,
    none past that state.  _GAUSSIAN takes 20 steps per row; a clip on the
    first step toward a row time leaves the state recorded last, which gets
    no second row and no snapshot under the next time's name."""
    cfg = _config(**_GAUSSIAN, snapshot_times=(0.0, 0.2, 0.4, 0.6))
    start = build_state(cfg)
    seen = _clip_at(monkeypatch, k)
    run = run_eulerian(cfg, start)
    last = seen[-1]
    assert len(seen) == k
    assert run.failure.startswith("clipped 1.000e+00 density mass")
    assert run.blowup is None
    assert run.final is last
    row = run.series.data[-1]
    eps_supp = 1e-8 * float(np.max(start.rho))
    scratch = row_from_scratch(last, cfg.params, row[-1], eps_supp)
    assert row.tobytes() == np.array(scratch).tobytes()
    assert np.all(np.diff(run.series.t) > 0)
    assert all(round(snap.t, 12) == t_s <= last.t for t_s, snap in run.snapshots.items())


def test_a_clip_after_a_snapshot_only_time_ends_on_one_row_of_that_state(monkeypatch):
    """_GAUSSIAN steps to 0.1 in 10 steps and 0.1 is a snapshot time off the
    record grid: it gets a snapshot and no row.  A clip on the next step
    ends the run on that state, which then gets its one row."""
    cfg = _config(**_GAUSSIAN, snapshot_times=(0.0, 0.1))
    start = build_state(cfg)
    seen = _clip_at(monkeypatch, 11)
    run = run_eulerian(cfg, start)
    last = seen[-1]
    assert round(last.t, 12) == 0.1
    assert run.final is last
    assert run.series.t.tolist() == [0.0, last.t]
    assert run.snapshots == {0.0: start, 0.1: last}
    eps_supp = 1e-8 * float(np.max(start.rho))
    row = run.series.data[-1]
    scratch = row_from_scratch(last, cfg.params, row[-1], eps_supp)
    assert row.tobytes() == np.array(scratch).tobytes()


def _non_finite_at(monkeypatch, k, bad):
    """Make experiments.step_rk2 put bad into u, in two cells two apart, of
    the state its k-th call returns; returns the list of states it returned."""
    from kurahydro import experiments

    made = []
    real_step = experiments.step_rk2

    def poisoning(*args):
        state = real_step(*args)
        if len(made) + 1 == k:
            u = np.array(state.u)
            u[2, 10] = u[2, 12] = bad  # their difference is inf - inf for an infinite bad
            state = replace(state, u=u)
        made.append(state)
        return state

    monkeypatch.setattr(experiments, "step_rk2", poisoning)
    return made


@pytest.mark.parametrize("k", [7, 20], ids=["mid-interval", "on-a-row-time"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_run_that_turns_non_finite_ends_on_that_state(monkeypatch, k, bad):
    """A step that leaves NaN or +-inf in u ends the run on that state with a
    "non-finite" event at its t.  Its row, the last, has the bits of the row
    from scratch, and its min_du those of min_grad_u on the state.
    _GAUSSIAN takes 20 steps per row."""
    cfg = _config(**_GAUSSIAN)
    start = build_state(cfg)
    made = _non_finite_at(monkeypatch, k, bad)
    run = run_eulerian(cfg, start)
    last = made[-1]
    assert len(made) == k
    assert run.blowup == BlowupEvent(last.t, "non-finite")
    assert run.failure is None
    assert run.final is last
    row = run.series.data[-1]
    assert row[0] == last.t
    eps_supp = 1e-8 * float(np.max(start.rho))
    with np.errstate(invalid="ignore", over="ignore"):
        scratch = row_from_scratch(last, cfg.params, row[-1], eps_supp)
        min_du = min_grad_u(last)
    assert row.tobytes() == np.array(scratch).tobytes()
    assert row[SERIES_COLUMNS.index("min_du")].tobytes() == np.float64(min_du).tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_sweep_point_that_turns_non_finite_is_flagged_without_a_warning(monkeypatch, bad):
    """steady_r maps a non-finite state to r_inf = 1 with the flag set and
    the last finite state, and nothing on the way warns."""
    cfg = _config(**_GAUSSIAN)
    sweep = SweepConfig(k_path=(cfg.params.K,), steady_window=1.0, t_max=0.6)
    made = _non_finite_at(monkeypatch, 5, bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r_inf, state, flag = steady_r(cfg, cfg.params.K, build_state(cfg), sweep)
    assert (r_inf, flag) == (1.0, True)
    assert len(made) == 5
    assert state is made[-2]


@st.composite
def _output_times(draw):
    """dt_oracle, and t_end (at most 0.5), record_dt and up to three
    snapshot times (some past t_end) as multiples of it."""
    dt = draw(st.sampled_from([0.005, 0.01, 0.02]))
    n_end = draw(st.integers(1, round(0.5 / dt)))
    n_record = draw(st.integers(1, n_end))
    n_snaps = draw(st.lists(st.integers(0, n_end + 5), max_size=3))
    return dict(dt_oracle=dt, t_end=n_end * dt, record_dt=n_record * dt,
                snapshot_times=[n * dt for n in n_snaps])


@settings(max_examples=40)
@given(times=_output_times())
def test_both_solvers_follow_one_output_rule(times):
    """On any t_end, record_dt and snapshot times on the dt_oracle grid,
    both solvers write rows at the same times, and snapshots under the
    same keys."""
    cfg = _config(solver="both", n_theta=32, n_samples=16, **times)
    result = run_scenario(cfg)
    fv, oracle = result.eulerian, result.lagrangian
    assert fv.blowup is oracle.blowup is None
    assert fv.series.t.shape == oracle.series.t.shape
    np.testing.assert_allclose(fv.series.t, oracle.series.t, rtol=0, atol=1e-12)
    assert set(fv.snapshots) == set(oracle.snapshots)


def test_non_finite_initial_state_is_recorded_once():
    """The monitor fires on the initial state, so no step is taken: the run
    is that state's one row and one snapshot, with no second row of it and
    no snapshot of it under the next time's name."""
    cfg = _config(**_GAUSSIAN, snapshot_times=(0.0, 0.2))
    start = build_state(cfg)
    u = np.array(start.u)
    u[2, 5] = np.nan
    start = FieldState(start.grid, start.omega, start.rho, u)
    run = run_eulerian(cfg, start)
    assert (run.blowup.t, run.blowup.reason) == (0.0, "non-finite")
    assert run.final is start
    assert run.series.t.tolist() == [0.0]
    assert list(run.snapshots) == [0.0]


@pytest.mark.parametrize("k", [1, 7])
def test_clip_abort_flags_the_sweep_point(monkeypatch, k):
    """steady_r maps a clipped step to (1.0, the state that step started
    from, True)."""
    cfg = _config(**_GAUSSIAN)
    sweep = SweepConfig(k_path=(cfg.params.K,), steady_window=1.0, t_max=0.6)
    seen = _clip_at(monkeypatch, k)
    r_inf, state, flag = steady_r(cfg, cfg.params.K, build_state(cfg), sweep)
    assert (r_inf, flag) == (1.0, True)
    assert len(seen) == k
    assert state is seen[-1]


def test_run_eulerian_peaks_below_six_and_a_half_fields(monkeypatch):
    """A 120x100 run in 20 blocks of 6 slices holds its old state and
    midpoint while it steps (4 fields), the new state and E_k's two
    temporaries after (4), and block-sized scratch.  The parent, with
    full-size tendency buffers and E_k taken while the old state was still
    alive, peaked at 9.1 fields here."""
    from kurahydro import fv

    monkeypatch.setattr(fv, "BLOCK_CELLS", 6 * 100)
    cfg = _config(g="gaussian", n_omega=120, n_theta=100, t_end=0.05, record_dt=0.01)
    state = build_state(cfg)
    run_eulerian(cfg, state)
    peak = peak_fields(lambda: run_eulerian(cfg, state), state.rho.nbytes)
    assert peak <= 6.5, peak


def test_series_rows_go_through_the_row_names_of_each_solver(monkeypatch):
    """run_eulerian and evolve call the shared series_row through the names
    experiments._field_row and lagrangian._row, which perfbench's tracer
    wraps to count rows; a direct call would drop its count to 0."""
    from kurahydro import experiments, lagrangian

    calls = {"_field_row": 0, "_row": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(experiments, "_field_row")
    counting(lagrangian, "_row")
    cfg = _config(t_end=0.3)
    fv_run = run_eulerian(cfg)
    oracle_run = run_lagrangian(cfg)
    assert calls == {"_field_row": len(fv_run.series), "_row": len(oracle_run.series)}
    assert len(fv_run.series) == len(oracle_run.series) == 4


def test_each_step_calls_cfl_dt_then_step_rk2_on_the_same_state(monkeypatch):
    """The stepping loop's call contract, which fv.cfl_limited_frac in the
    benchmark tracer relies on: per step, cfl_dt(state) and then
    step_rk2(state, dt) with dt = min(that value, next target - t)."""
    from kurahydro import experiments

    calls = []
    real_cfl, real_step = experiments.cfl_dt, experiments.step_rk2

    def record_cfl(state, *args):
        dt = real_cfl(state, *args)
        calls.append(("cfl_dt", state, dt))
        return dt

    def record_step(state, dt, *args):
        calls.append(("step_rk2", state, dt))
        return real_step(state, dt, *args)

    monkeypatch.setattr(experiments, "cfl_dt", record_cfl)
    monkeypatch.setattr(experiments, "step_rk2", record_step)
    cfg = _config(**_GAUSSIAN)
    targets = [round(k * cfg.record_dt, 12) for k in range(1, 4)]
    run = run_eulerian(cfg)
    assert run.final.t == pytest.approx(cfg.t_end)
    assert [name for name, _, _ in calls] == ["cfl_dt", "step_rk2"] * (len(calls) // 2)
    limited_by_target = 0
    for (_, state, cfl), (_, stepped, dt) in zip(calls[::2], calls[1::2]):
        assert stepped is state
        target = next(t for t in targets if state.t < t - 1e-12)
        assert dt == min(cfl, target - state.t)
        limited_by_target += dt != cfl
    assert 0 < limited_by_target < len(calls) // 2


def test_run_eulerian_steps_every_record_time_with_one_workspace(monkeypatch):
    """One fv.Workspace per run, handed to every step_rk2 of every record time."""
    from kurahydro import experiments, fv

    built, used = [], []

    class Counted(fv.Workspace):
        def __init__(self):
            super().__init__()
            built.append(self)

    real_step = experiments.step_rk2

    def record_step(state, dt, params, scheme, ws, *rest):
        used.append(ws)
        return real_step(state, dt, params, scheme, ws, *rest)

    monkeypatch.setattr(experiments, "Workspace", Counted)
    monkeypatch.setattr(experiments, "step_rk2", record_step)
    run = run_eulerian(_config(**_GAUSSIAN))
    assert len(run.series.t) == 4  # three record times after t=0
    assert len(built) == 1
    assert len(used) > 3 and all(ws is built[0] for ws in used)


def test_advance_yields_the_start_state_first():
    """The first item is the start state itself, with its order parameter,
    the extrema a fresh monitor observes on it, and no event."""
    from kurahydro.experiments import _advance

    cfg = _config(**_GAUSSIAN)
    start = build_state(cfg)
    state, op, extrema, event = next(_advance(start, cfg.params, cfg.scheme, [0.2]))
    assert state is start
    assert op == order_parameter(start)
    assert extrema == BlowupMonitor(cfg.scheme.blowup_rho_factor).observe(start)
    assert event is None


def test_advance_lands_on_every_stop():
    from kurahydro.experiments import _advance

    cfg = _config(**_GAUSSIAN)
    stops = [0.013, 0.2, 0.2 + 1e-9, 0.45, 0.6]
    times = [state.t for state, *_ in _advance(build_state(cfg), cfg.params, cfg.scheme, stops)]
    assert times == sorted(set(times)) and times[0] == 0.0
    for stop in stops:
        assert min(abs(t - stop) for t in times) <= 1e-12, stop
    assert abs(times[-1] - stops[-1]) <= 1e-12


def test_advance_yields_nothing_after_the_event():
    """The blown-up state is the last item, though stops lie past it."""
    from kurahydro.experiments import _advance

    cfg = _config(**_BLOWUP)
    items = list(_advance(build_state(cfg), cfg.params, cfg.scheme, [0.5, 1.0, 5.0]))
    events = [event for *_, event in items]
    assert len(items) > 2
    assert events[:-1] == [None] * (len(items) - 1)
    assert events[-1] is not None and events[-1].t == items[-1][0].t < 1.0


def test_advance_builds_one_workspace_and_one_monitor_per_call(monkeypatch):
    """Counted per _advance call, and per run_eulerian and steady_r, which
    build neither themselves."""
    from kurahydro import experiments, fv

    built = []

    class CountedWorkspace(fv.Workspace):
        def __init__(self):
            super().__init__()
            built.append("Workspace")

    class CountedMonitor(BlowupMonitor):
        def __init__(self, *args):
            super().__init__(*args)
            built.append("BlowupMonitor")

    monkeypatch.setattr(experiments, "Workspace", CountedWorkspace)
    monkeypatch.setattr(experiments, "BlowupMonitor", CountedMonitor)
    cfg = _config(**_GAUSSIAN)
    steps = list(experiments._advance(build_state(cfg), cfg.params, cfg.scheme, [0.2, 0.4]))
    assert len(steps) > 3
    assert sorted(built) == ["BlowupMonitor", "Workspace"]
    built.clear()
    run_eulerian(cfg)
    assert sorted(built) == ["BlowupMonitor", "Workspace"]
    built.clear()
    sweep = SweepConfig(k_path=(cfg.params.K,), steady_window=0.1, t_max=0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # unsettled by t_max
        steady_r(cfg, cfg.params.K, build_state(cfg), sweep)
    assert sorted(built) == ["BlowupMonitor", "Workspace"]


def test_sweep_config_validation_and_branches():
    with pytest.raises(ValueError, match="at least one"):
        SweepConfig(k_path=())
    with pytest.raises(ValueError, match="nonnegative"):
        SweepConfig(k_path=(0.0, -0.5))
    with pytest.raises(ValueError, match="refine_step"):
        SweepConfig(k_path=(0.0, 0.5, 1.0), refine_step=0.5)
    sweep = SweepConfig(k_path=(0.0, 0.5, 1.0, 0.5, 0.0))
    fwd, bwd = sweep.branches()
    assert fwd == (0.0, 0.5, 1.0)
    assert bwd == (1.0, 0.5, 0.0)


@pytest.mark.parametrize("name, value", [
    ("refine_step", 0.0), ("refine_step", -0.1), ("steady_window", 0.0),
    ("steady_window", -1.0), ("steady_tol", 0.0), ("t_max", 0.0),
    ("t_max", float("nan")), ("t_max", float("inf")), ("steady_window", float("inf")),
    ("steady_tol", float("inf")),
])
def test_sweep_config_rejects_nonpositive_knobs(name, value):
    """A zero refine_step divides by zero once a jump is found and a negative
    one refines nothing; steady_window <= 0 calls a point steady after one
    step; t_max = 0 returns the initial r; steady_tol = 0 is never met.  An
    infinite t_max never ends a point that does not settle, and the other
    knobs cannot be honoured at infinity either."""
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        SweepConfig(k_path=(0.0, 1.0, 0.0), **{name: value})


def test_single_point_sweep_zero_loop():
    cfg = _config(n_theta=48)
    sweep = SweepConfig(k_path=(0.5,), steady_window=0.2, t_max=3.0, base=cfg)
    with pytest.warns(RuntimeWarning, match="did not settle"):  # t_max cuts it short
        result = hysteresis_sweep(sweep)
    assert [p.K for p in result.forward] == [0.5]
    assert [p.K for p in result.backward] == [0.5]
    assert result.loop_area() == 0.0
    assert result.jumps == {"forward": [], "backward": []}


def test_sweep_result_records_and_bounds():
    cfg = _config(n_theta=48, params=Params(0.5, 0.0))
    sweep = SweepConfig(
        k_path=(0.0, 1.0, 2.0, 1.0, 0.0), steady_window=0.3, t_max=4.0, base=cfg
    )
    with pytest.warns(RuntimeWarning, match="did not settle"):  # t_max cuts it short
        result = hysteresis_sweep(sweep)
    for branch in (result.forward, result.backward):
        assert len(branch) == 3
        for p in branch:
            assert 0.0 <= p.r_inf <= 1.0 + 1e-12


def test_sweep_warm_start_continuity():
    """Warm-started branches preserve unit per-slice mass throughout."""
    cfg = _config(n_theta=48, params=Params(0.5, 0.0))
    sweep = SweepConfig(k_path=(0.0, 0.8, 0.0), steady_window=0.3, t_max=2.0, base=cfg)
    with pytest.warns(RuntimeWarning, match="did not settle"):  # t_max cuts it short
        result = hysteresis_sweep(sweep)
    assert len(result.forward) == 2 and len(result.backward) == 2


def test_refinement_inserts_points():
    """Each jump gets the points of the refine_step grid within
    REFINE_WINDOW of its midpoint, walked in the leg's direction."""
    from kurahydro import experiments

    cfg = _config(
        n_theta=40,
        g="gaussian",
        n_omega=24,
        params=Params(1.0, 0.0),
        init=InitSpec(RhoGaussian(), USine(-0.5)),
    )
    ks = (0.0, 1.0, 2.0, 3.0, 1.0, 0.0)  # coarse path with a likely jump
    sweep = SweepConfig(
        k_path=ks,
        steady_window=0.5,
        t_max=6.0,
        refine_step=0.5,
        base=cfg,
    )
    with pytest.warns(RuntimeWarning, match="did not settle"):  # t_max cuts it short
        result = hysteresis_sweep(sweep)
    fwd_k = [p.K for p in result.forward]
    assert fwd_k == sorted(fwd_k)
    if result.jumps["forward"]:
        assert len(fwd_k) > 4  # refinement added interior points
    bwd_k = [p.K for p in result.backward]
    assert bwd_k == sorted(bwd_k, reverse=True)
    # every added point lies within REFINE_WINDOW of a midpoint of the path
    mids = [0.5 * (k0 + k1) for k0, k1 in zip(ks, ks[1:])]
    for k in set(fwd_k + bwd_k) - set(ks):
        assert min(abs(k - mid) for mid in mids) <= experiments.REFINE_WINDOW + 1e-12


def test_run_scenario_writes_results_layout(tmp_path):
    out = tmp_path / "run"
    cfg = _config(solver="both", snapshot_times=(0.0, 0.5))
    run_scenario(cfg, out_dir=str(out))
    for sub in ("eulerian", "lagrangian"):
        d = out / sub
        assert (d / "series.csv").is_file()
        assert (d / "manifest.json").is_file()
        snaps = list_snapshots(str(d))
        assert set(snaps) == {0.0, 0.5}
        series = read_series_csv(str(d / "series.csv"))
        assert series.t[-1] == pytest.approx(0.5, abs=1e-9)
        manifest = read_manifest(str(d / "manifest.json"))
        assert manifest["solver"] == sub
        # the embedded config re-resolves to the exact original
        assert resolve_config(manifest["config"]) == cfg


def test_sweep_writes_results_layout(tmp_path):
    out = tmp_path / "sweep"
    cfg = _config(n_theta=48)
    sweep = SweepConfig(k_path=(0.0, 0.5, 0.0), steady_window=0.2, t_max=2.0, base=cfg)
    t0 = time.perf_counter()
    with pytest.warns(RuntimeWarning, match="did not settle"):  # t_max cuts it short
        result = hysteresis_sweep(sweep, out_dir=str(out))
    total = time.perf_counter() - t0
    # every field of every point reads back, as a SweepPoint, in leg order
    forward, backward = read_sweep_csv(str(out / "sweep.csv"))
    assert (forward, backward) == (result.forward, result.backward)
    assert {type(p) for p in forward + backward} == {SweepPoint}
    assert [p.K for p in forward + backward] == [0.0, 0.5, 0.5, 0.0]
    manifest = read_manifest(str(out / "manifest.json"))
    assert manifest["sweep"]["k_path"] == [0.0, 0.5, 0.0]
    assert 0.0 < manifest["wall_time_s"] <= total


def test_both_solvers_manifests_time_each_solver(tmp_path):
    out = tmp_path / "run"
    cfg = _config(solver="both")
    t0 = time.perf_counter()
    result = run_scenario(cfg, out_dir=str(out))
    total = time.perf_counter() - t0
    times = {}
    for sub in ("eulerian", "lagrangian"):
        times[sub] = read_manifest(str(out / sub / "manifest.json"))["wall_time_s"]
        assert 0.0 < times[sub] <= total
        assert times[sub] == result.wall_times[sub]
    assert times["eulerian"] + times["lagrangian"] <= total


def test_untimed_result_writes_null_wall_time(tmp_path):
    cfg = _config()
    result = ScenarioResult(cfg, eulerian=run_eulerian(cfg))
    write_scenario_result(result, str(tmp_path))
    assert read_manifest(str(tmp_path / "manifest.json"))["wall_time_s"] is None


def test_manifest_round_trip_through_serialization():
    cfg = _config(g="gaussian", n_omega=16, solver="lagrangian")
    assert resolve_config(serialize_config(cfg)) == cfg
    base = _config(g="gaussian", n_omega=16)  # a sweep runs the finite-volume solver only
    sweep = SweepConfig(k_path=(0.0, 1.0, 0.0), base=base, refine_step=0.05)
    assert resolve_config(serialize_config(sweep)) == sweep
