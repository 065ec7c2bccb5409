"""Scenario runner, marginals, steady-state detection, hysteresis sweeps."""
from __future__ import annotations

import os
import time
import warnings

import numpy as np
import pytest
from conftest import peak_fields

from kurahydro import (
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
    hysteresis_sweep,
    make_theta_grid,
    marginalize,
    normalize_slices,
    order_parameter,
    resolve_config,
    run_eulerian,
    run_lagrangian,
    run_scenario,
    serialize_config,
    steady_r,
    step_rk2,
)
from kurahydro.diagnostics import _field_cell_masses, kinetic_energy
from kurahydro.domain import FieldState
from kurahydro.experiments import ScenarioResult, write_scenario_result
from kurahydro.io import list_snapshots, read_manifest, read_series_csv, read_sweep_csv


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


def test_snapshot_times_that_share_a_file_name_are_rejected():
    """t=%g names both times t=0.123456.csv: one snapshot would overwrite the other."""
    with pytest.raises(ValueError, match=r"0\.1234561 and 0\.1234564 .*t=0\.123456\.csv"):
        _config(snapshot_times=[0.1, 0.1234561, 0.1234564])
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
    cfg = _config(n_theta=60)
    sweep = SweepConfig(k_path=(0.1,), steady_window=1.0, t_max=0.5)
    with pytest.warns(RuntimeWarning, match=r"K=0.1 by t_max=0.5; last \|dr\|"):
        r_inf, final, flag = steady_r(cfg, 0.1, build_state(cfg), sweep)
    assert not flag
    assert final.t == pytest.approx(0.5)
    assert 0.0 < r_inf < 1.0


# A plain cfl_dt / step_rk2 / monitor loop, written out here so that the
# solver's own stepping can be held to it bit for bit.
def _reference_steps(state, params, scheme, targets):
    """Step to each target in turn; returns (state, state before it, fired)."""
    monitor = BlowupMonitor(scheme.blowup_rho_factor, scheme.blowup_grad)
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

    def record_step(state, dt, params, scheme, ws):
        used.append(ws)
        return real_step(state, dt, params, scheme, ws)

    monkeypatch.setattr(experiments, "Workspace", Counted)
    monkeypatch.setattr(experiments, "step_rk2", record_step)
    run = run_eulerian(_config(**_GAUSSIAN))
    assert len(run.series.t) == 4  # three record times after t=0
    assert len(built) == 1
    assert len(used) > 3 and all(ws is built[0] for ws in used)


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
    ("t_max", float("nan")), ("refine_window", 0.0), ("refine_window", -0.3),
])
def test_sweep_config_rejects_nonpositive_knobs(name, value):
    """A zero refine_step divides by zero once a jump is found and a negative
    one refines nothing; steady_window <= 0 calls a point steady after one
    step; t_max = 0 returns the initial r; steady_tol = 0 is never met; a
    refine_window <= 0 leaves an empty window, so refinement adds no point."""
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        SweepConfig(k_path=(0.0, 1.0, 0.0), **{name: value})


def test_single_point_sweep_zero_loop():
    cfg = _config(n_theta=48)
    sweep = SweepConfig(k_path=(0.5,), steady_window=0.2, t_max=3.0)
    result = hysteresis_sweep(sweep, base=cfg)
    assert [k for k, _, _ in result.forward] == [0.5]
    assert [k for k, _, _ in result.backward] == [0.5]
    assert result.loop_area() == 0.0
    assert result.jumps == {"forward": [], "backward": []}


def test_sweep_result_records_and_bounds():
    cfg = _config(n_theta=48, params=Params(0.5, 0.0))
    sweep = SweepConfig(k_path=(0.0, 1.0, 2.0, 1.0, 0.0), steady_window=0.3, t_max=4.0)
    result = hysteresis_sweep(sweep, base=cfg)
    for branch in (result.forward, result.backward):
        assert len(branch) == 3
        for _, r_inf, _ in branch:
            assert 0.0 <= r_inf <= 1.0 + 1e-12


def test_sweep_warm_start_continuity():
    """Warm-started branches preserve unit per-slice mass throughout."""
    cfg = _config(n_theta=48, params=Params(0.5, 0.0))
    sweep = SweepConfig(k_path=(0.0, 0.8, 0.0), steady_window=0.3, t_max=2.0)
    result = hysteresis_sweep(sweep, base=cfg)
    assert len(result.forward) == 2 and len(result.backward) == 2


def test_refinement_inserts_points():
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
        refine_window=0.6,
    )
    result = hysteresis_sweep(sweep, base=cfg)
    fwd_k = [k for k, _, _ in result.forward]
    assert fwd_k == sorted(fwd_k)
    if result.jumps["forward"]:
        assert len(fwd_k) > 4  # refinement added interior points
    bwd_k = [k for k, _, _ in result.backward]
    assert bwd_k == sorted(bwd_k, reverse=True)


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
    sweep = SweepConfig(k_path=(0.0, 0.5, 0.0), steady_window=0.2, t_max=2.0)
    t0 = time.perf_counter()
    hysteresis_sweep(sweep, base=cfg, out_dir=str(out))
    total = time.perf_counter() - t0
    forward, backward = read_sweep_csv(str(out / "sweep.csv"))
    assert len(forward) == 2 and len(backward) == 2
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
    sweep = SweepConfig(k_path=(0.0, 1.0, 0.0), base=cfg, refine_step=0.05)
    assert resolve_config(serialize_config(sweep)) == sweep
