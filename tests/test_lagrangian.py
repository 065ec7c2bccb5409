"""Characteristic oracle: sampling, conservation laws, convergence, blow-up."""
from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pytest

from kurahydro import (
    CharEnsemble,
    InitSpec,
    Params,
    RhoGaussian,
    RhoPointCell,
    RhoUniform,
    UConst,
    USine,
    discretize_frequency,
    evaluate_du0,
    evaluate_u0,
    evolve,
    make_theta_grid,
    pushforward_density,
    rho0_profile,
    riccati_comparison,
    sample_initial,
)
from kurahydro import lagrangian
from kurahydro.config import parse_config
from kurahydro.diagnostics import TimeSeries, kinetic_energy, series_row
from kurahydro.domain import TableData
from kurahydro.experiments import build_grids

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def _identical_ensemble(n_samples=256, u0=USine(-1.0), rho0=RhoGaussian()):
    om = discretize_frequency("dirac")
    return sample_initial(InitSpec(rho0, u0), om, n_samples)


def test_sample_initial_from_spec():
    ens = _identical_ensemble(128)
    assert ens.n == 128
    assert np.abs(ens.weight.sum() - 1.0) < 1e-15
    assert np.allclose(ens.v, evaluate_u0(USine(-1.0), ens.eta), atol=1e-15)
    assert np.allclose(ens.d, evaluate_du0(USine(-1.0), ens.eta), atol=1e-15)
    assert np.all(ens.eta >= -np.pi) and np.all(ens.eta < np.pi)


def test_sample_initial_nonidentical_slice_weights():
    om = discretize_frequency("gaussian", 12, 5.0)
    ens = sample_initial(InitSpec(RhoGaussian(), UConst()), om, 64)
    assert ens.n == 12 * 64
    per_slice = ens.weight.reshape(12, 64).sum(axis=1)
    assert np.allclose(per_slice, om.weights, atol=1e-15)


def test_sample_initial_rejects_tables():
    table = TableData(
        np.array([0.0]), np.array([0.0]), np.array([[1.0]]), np.array([[0.0]])
    )
    with pytest.raises(TypeError, match="symbolic initial data only"):
        sample_initial(table, discretize_frequency("dirac"), 16)


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        CharEnsemble(
            np.zeros(2),
            np.array([0.3, 0.3]),
            np.zeros(2),
            np.zeros(2),
            np.zeros(2),
            np.zeros(2),
        )


def test_ensemble_arrays_are_readonly_views_of_the_callers_arrays():
    eta = np.array([0.1, -0.2])
    weight = np.array([0.25, 0.75])
    zeros = np.zeros(2)
    ens = CharEnsemble(zeros, weight, eta, zeros, zeros, zeros)
    assert eta.flags.writeable and weight.flags.writeable
    assert np.shares_memory(ens.eta, eta)
    with pytest.raises(ValueError):
        ens.eta[0] = 1.0


def test_evolve_rejects_bad_step_and_horizon():
    ens = _identical_ensemble(16)
    with pytest.raises(ValueError, match="T > t0"):
        evolve(ens, Params(0.5, 0.1), 0.0)
    with pytest.raises(ValueError, match="dt > 0"):
        evolve(ens, Params(0.5, 0.1), 1.0, dt=0.0)
    # record_every=0 used to die with a ZeroDivisionError
    for record_every in (0, -1, 2.5):
        with pytest.raises(ValueError, match="record_every must be a positive integer"):
            evolve(ens, Params(0.5, 0.1), 1.0, record_every=record_every)


def test_series_diameters_skip_zero_weight_samples():
    """A point-cell datum puts all mass on one sample: both diameters vanish."""
    ens = _identical_ensemble(64, u0=USine(0.1), rho0=RhoPointCell(0.0))
    assert np.count_nonzero(ens.weight) == 1
    run = evolve(ens, Params(0.5, 0.1), 0.01, dt=1e-3)
    assert run.series.d_eta[0] == 0.0
    assert run.series.d_v[0] == 0.0


def test_series_min_du_skips_zero_weight_samples():
    """min_du spans the samples with mass: here one, with d = +0.0999."""
    ens = _identical_ensemble(64, u0=USine(0.1), rho0=RhoPointCell(0.0))
    (massive,) = np.flatnonzero(ens.weight)
    assert np.min(ens.d) < -0.099  # the zero-weight samples reach -0.0999
    run = evolve(ens, Params(0.5, 0.1), 0.01, dt=1e-3)
    assert run.series.min_du[0] == ens.d[massive]
    assert run.series.min_du[0] == pytest.approx(0.0999, abs=1e-4)


def test_mean_velocity_exponential_law():
    """Weighted mean velocity follows v_c(0) e^{-t/m} to machine precision."""
    params = Params(0.5, 0.1)
    ens = _identical_ensemble(64, u0=USine(-1.0, 1.0, 0.4))
    vc0 = float(np.dot(ens.weight, ens.v))
    run = evolve(ens, params, 1.0, dt=1e-3, record_every=100)
    t = run.series.t
    assert np.max(np.abs(run.series.vc - vc0 * np.exp(-t / params.m))) < 1e-12


def test_weighted_frequency_deviation_law():
    """sum w (v - Omega) decays like e^{-t/m} for heterogeneous frequencies."""
    om = discretize_frequency("gaussian", 16, 5.0)
    ens = sample_initial(InitSpec(RhoGaussian(), USine(-0.5)), om, 32)
    params = Params(2.0, 0.1)
    dev0 = float(np.dot(ens.weight, ens.v - ens.Omega))
    run = evolve(ens, params, 2.0, dt=1e-3, record_every=500)
    final = run.final
    dev = float(np.dot(final.weight, final.v - final.Omega))
    assert dev == pytest.approx(dev0 * np.exp(-final.t / params.m), abs=1e-10)


def test_mean_phase_limit_law():
    """eta_c(t) = eta_c(0) + m v_c(0)(1 - e^{-t/m}) within RK4 error."""
    params = Params(0.5, 0.1)
    ens = _identical_ensemble(64, u0=USine(-1.0, 1.0, 0.3))
    vc0 = float(np.dot(ens.weight, ens.v))
    ec0 = float(np.dot(ens.weight, ens.eta))
    run = evolve(ens, params, 3.0, dt=1e-3, record_every=1000)
    expected = ec0 + params.m * vc0 * (1.0 - np.exp(-run.series.t / params.m))
    assert np.max(np.abs(run.series.etac - expected)) < 1e-10


def test_energy_balance_residual():
    """E(t) - E(0) + (2/m) int Ek dt stays below the quadrature budget."""
    params = Params(0.5, 0.1)
    ens = _identical_ensemble(256)
    run = evolve(ens, params, 2.0, dt=1e-3, record_every=10)
    s = run.series
    E = s.Ek + s.Ep
    residual = np.abs(E - E[0] + (2.0 / params.m) * s.Ek_integral)
    assert np.max(residual) < 1e-6


def test_energy_balance_residual_at_the_default_step():
    """E_k is integrated by the same RK4 as the state, so the balance holds
    to the RK4 error at dt = 1e-2 too, far inside criterion 3's 1e-6."""
    params = Params(0.5, 0.1)
    s = evolve(_identical_ensemble(256), params, 5.0).series
    E = s.Ek + s.Ep
    residual = np.abs(E - E[0] + (2.0 / params.m) * s.Ek_integral)
    assert np.max(residual) < 1e-8


def test_rk4_fourth_order_convergence():
    """Richardson: halving dt shrinks the end-state error ~16x."""
    params = Params(0.1, 0.6)  # stiff enough to lift errors off roundoff
    ens = _identical_ensemble(32, u0=USine(-3.0))

    def end_eta(dt):
        return evolve(ens, params, 1.0, dt=dt, record_every=10**9).final.eta

    ref = end_eta(1.25e-4)
    e1 = np.max(np.abs(end_eta(2e-3) - ref))
    e2 = np.max(np.abs(end_eta(1e-3) - ref))
    assert e1 / e2 > 12.0


def test_gradient_matches_closed_form_riccati():
    """With K=0 each sample's d(t) follows the exact comparison solution."""
    params = Params(0.7, 0.0)
    ens = _identical_ensemble(64, u0=USine(-0.5))
    run = evolve(ens, params, 2.0, dt=1e-3, record_every=10**9)
    for d0, d_end in zip(ens.d, run.final.d):
        assert d_end == pytest.approx(
            float(riccati_comparison(d0, params, np.array(2.0))), abs=1e-9
        )


def test_gradient_consistency_along_flow():
    """Carried d equals the pairwise slope of (eta, v) on a smooth flow."""
    ens = _identical_ensemble(512)
    run = evolve(ens, Params(0.5, 0.1), 1.0, dt=1e-3, record_every=10**9)
    eta, v, d = run.final.eta, run.final.v, run.final.d
    order = np.argsort(eta)
    eta, v, d = eta[order], v[order], d[order]
    slope = (v[2:] - v[:-2]) / (eta[2:] - eta[:-2])
    assert np.allclose(d[1:-1], slope, atol=2e-3)


def test_blowup_flag_and_truncation():
    """Steep initial compression drives some J through zero: the run stops
    there and ends on the step's start, the last state with every J > 0,
    with one row of it and no snapshot, as none was asked there."""
    ens = _identical_ensemble(128, u0=USine(-2.0))
    dt = 1e-3
    run = evolve(ens, Params(1.0, 1.0), 5.0, dt=dt, record_every=100,
                 snapshot_times=(0.0, 4.0))
    assert run.blowup is not None
    assert run.blowup.reason == "gradient-collapse"
    assert run.blowup.t < 5.0
    assert run.series.t[-1] == run.final.t > run.series.t[-2]
    assert list(run.snapshots) == [0.0]
    assert run.final.t < run.blowup.t <= run.final.t + dt
    assert np.all(np.isfinite(run.final.d)) and np.all(np.isfinite(run.final.log_rho))
    assert np.min(run.final.d) < -100.0  # within a step of the collapse


def test_uncoupled_collapse_time_is_the_closed_form_zero_of_J():
    """With K=0, J = 1 + m d0 (1 - e^{-t/m}) reaches 0 at
    t_c = -m log(1 + 1/(m d0)) on the samples with d0 < -1/m; the Hermite
    root finds the earliest to well within the RK4 error at dt = 1e-2."""
    params = Params(0.5, 0.0)
    ens = _identical_ensemble(64, u0=USine(-4.0))
    d0 = ens.d[ens.d < -1.0 / params.m]
    t_c = float(np.min(-params.m * np.log1p(1.0 / (params.m * d0))))
    run = evolve(ens, params, 1.0, dt=1e-2)
    assert run.blowup.reason == "gradient-collapse"
    assert run.blowup.t == pytest.approx(t_c, abs=1e-9)
    assert run.final.t == pytest.approx(np.floor(t_c / 1e-2) * 1e-2)


def test_jacobian_closed_form_without_coupling():
    """With K=0, P = d0 e^{-t/m} and J = 1 + m d0 (1 - e^{-t/m}); the records
    carry them as d = P / J and log rho = log rho0 - log J.  RK4 multiplies P
    by e^{-dt/m} up to a relative (dt/m)^5/120 = 5e-12 a step, 1e-9 over the
    200 steps, and J stays above 0.6."""
    params = Params(0.7, 0.0)
    ens = _identical_ensemble(64, u0=USine(-0.5))
    run = evolve(ens, params, 2.0, dt=1e-2, record_every=10**9)
    decay = np.exp(-run.final.t / params.m)
    P = ens.d * decay
    J = 1.0 + params.m * ens.d * (1.0 - decay)
    np.testing.assert_allclose(run.final.d, P / J, rtol=0, atol=1e-9)
    np.testing.assert_allclose(run.final.log_rho, ens.log_rho - np.log(J), rtol=0, atol=1e-9)


def test_supercritical_collapse_time_is_independent_of_the_step():
    """Criterion 6's case: the first zero of J, timed by the Hermite root,
    agrees to 1e-6 at dt = 1e-2, 5e-3 and 1e-3 (the d < -1e6 floor that
    timed it before moved by 0.014 over the same steps)."""
    ens = _identical_ensemble(512, u0=USine(-2.0))
    times = [evolve(ens, Params(1.0, 1.0), 3.0, dt=dt).blowup.t for dt in (1e-2, 5e-3, 1e-3)]
    assert max(times) - min(times) < 1e-6
    assert times[-1] == pytest.approx(0.6251445, abs=1e-6)


def _reflection_case(case):
    """(ensemble, params, collapse time or None) of one reflection test case."""
    seven = discretize_frequency("gaussian", 7, 5.0)
    if case == "gaussian-collapse":
        init = InitSpec(RhoGaussian(0.3, 0.8), USine(-1.3, 1.0, 0.2))
        return sample_initial(init, seven, 40), Params(0.7, 2.5), 0.78527
    if case == "dirac-supercritical":
        return _identical_ensemble(64, u0=USine(-2.0)), Params(1.0, 1.0), 0.62604
    init = InitSpec(RhoGaussian(0.3, 0.8), USine(-0.5, 1.0, 0.2))
    return sample_initial(init, seven, 40), Params(0.7, 0.5), None


@pytest.mark.parametrize("case", ["gaussian-collapse", "dirac-supercritical", "smooth"])
def test_reflection_commutes_with_evolve(case):
    """eta -> -eta, v -> -v, Omega -> -Omega maps a run onto a run, bit for
    bit: phi, vc and etac are negated, every other series column, the
    blow-up event, d and log rho are the same bits."""
    ens, params, t_collapse = _reflection_case(case)
    run = evolve(ens, params, 2.0)
    mirror = evolve(replace(ens, Omega=-ens.Omega, eta=-ens.eta, v=-ens.v), params, 2.0)
    if t_collapse is None:
        assert run.blowup is None
    else:
        assert run.blowup.reason == "gradient-collapse"
        assert run.blowup.t == pytest.approx(t_collapse, abs=1e-5)
    assert mirror.blowup == run.blowup
    assert run.series.data.shape == mirror.series.data.shape
    for name in TimeSeries.columns:
        a, b = getattr(run.series, name), getattr(mirror.series, name)
        if name in ("phi", "vc", "etac"):
            assert np.array_equal(a, -b), name
        else:
            assert a.tobytes() == b.tobytes(), name
    final, reflected = run.final, mirror.final
    assert final.t == reflected.t
    assert np.array_equal(final.eta, -reflected.eta)
    assert np.array_equal(final.v, -reflected.v)
    assert final.d.tobytes() == reflected.d.tobytes()
    assert final.log_rho.tobytes() == reflected.log_rho.tobytes()


def test_snapshots_at_requested_times():
    ens = _identical_ensemble(32)
    run = evolve(
        ens,
        Params(0.5, 0.1),
        0.5,
        dt=1e-3,
        record_every=100,
        snapshot_times=(0.0, 0.25),
    )
    assert set(run.snapshots) == {0.0, 0.25}
    assert run.snapshots[0.25].t == pytest.approx(0.25)


def test_pushforward_mass_and_per_omega():
    om = discretize_frequency("gaussian", 6, 5.0)
    ens = sample_initial(InitSpec(RhoUniform(), UConst(0.2)), om, 128)
    grid = make_theta_grid(32)
    rho = pushforward_density(ens, grid)
    assert grid.dtheta * rho.sum() == pytest.approx(1.0, abs=1e-12)
    values, rho_k, u_k = pushforward_density(ens, grid, per_omega=True)
    assert values.size == 6
    assert np.allclose(grid.dtheta * rho_k.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(u_k[rho_k > 0], 0.2, atol=1e-12)


def test_pushforward_recovers_smooth_density():
    ens = _identical_ensemble(8000, u0=UConst())
    grid = make_theta_grid(100)
    rho = pushforward_density(ens, grid)
    exact = rho0_profile(RhoGaussian(), grid.centers)
    exact /= grid.dtheta * exact.sum()
    assert grid.dtheta * np.abs(rho - exact).sum() < 5e-3


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("row, value", [("v", np.nan), ("Omega", np.inf)])
def test_non_finite_slope_is_reported_as_non_finite(row, value):
    """A NaN velocity (or an infinite frequency) in one sample spreads NaN
    into every d through the order parameter within one step; the oracle
    names that state as the FV monitor does, not as a gradient collapse.
    The run ends on one row of that state, and no snapshot, as none was
    asked there."""
    ens = _identical_ensemble(64)
    bad = getattr(ens, row).copy()
    bad[5] = value
    run = evolve(replace(ens, **{row: bad}), Params(0.5, 1.0), 1.0, dt=1e-3,
                 record_every=10, snapshot_times=(0.0,))
    assert run.blowup is not None
    assert run.blowup.reason == "non-finite"
    assert run.blowup.t == pytest.approx(1e-3)
    assert run.series.t.tolist() == [0.0, pytest.approx(1e-3)]
    assert list(run.snapshots) == [0.0]


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_log_density_is_read_off_J_and_feeds_nothing(value):
    """log rho = log rho0 - log J is formed at each record, not integrated:
    a non-finite log rho0 on one sample stays on that sample, stops nothing
    and leaves every other column and sample as it was."""
    ens = _identical_ensemble(64)
    log_rho = ens.log_rho.copy()
    log_rho[11] = value
    params = Params(0.5, 1.0)
    clean = evolve(ens, params, 0.5, dt=1e-2)
    run = evolve(replace(ens, log_rho=log_rho), params, 0.5, dt=1e-2)
    assert run.blowup is None
    np.testing.assert_equal(run.final.log_rho[11], value)
    np.testing.assert_array_equal(np.delete(run.final.log_rho, 11), np.delete(clean.final.log_rho, 11))
    np.testing.assert_array_equal(run.final.d, clean.final.d)
    np.testing.assert_array_equal(run.series.r, clean.series.r)


def test_each_step_calls_derivs_four_times_on_every_sample(monkeypatch):
    """perfbench's tracer counts args[0].size per _derivs call and takes a
    quarter of the total as lagrangian.sample_steps."""
    inner = lagrangian._derivs
    sizes = []

    def recording(*args, **kwargs):
        sizes.append(args[0].size)
        return inner(*args, **kwargs)

    monkeypatch.setattr(lagrangian, "_derivs", recording)
    ens = _identical_ensemble(48)
    evolve(ens, Params(0.5, 0.1), 0.025, dt=1e-3, record_every=10)
    assert sizes == [ens.n] * (4 * 25)


def _plain_derivs(eta, v, d, w, Omega, m, K):
    """The oracle's tendencies with cos and sin taken of eta at every stage."""
    cos_e = np.cos(eta)
    sin_e = np.sin(eta)
    C = float(np.dot(w, cos_e))
    S = float(np.dot(w, sin_e))
    r_sin = S * cos_e - C * sin_e  # r sin(phi - eta)
    r_cos = C * cos_e + S * sin_e  # r cos(phi - eta)
    dv = (Omega - v + K * r_sin) / m
    dd = -d * d - d / m - (K / m) * r_cos
    return v, dv, dd, -d


def _plain_rk4(ens, params, T, dt, record_every):
    """Classical RK4 of (eta, v, d, log rho) with _plain_derivs, recording
    the series as evolve does."""
    m, K = params.m, params.K
    w, Omega = ens.weight, ens.Omega
    y = (ens.eta, ens.v, ens.d, ens.log_rho)
    n_steps = int(round((T - ens.t) / dt))
    Ek_integral = 0.0
    rows = [series_row(ens, params, Ek_integral)]
    for step in range(1, n_steps + 1):
        k1 = _plain_derivs(*y[:3], w, Omega, m, K)
        s2 = tuple(a + 0.5 * dt * b for a, b in zip(y[:3], k1))
        k2 = _plain_derivs(*s2, w, Omega, m, K)
        s3 = tuple(a + 0.5 * dt * b for a, b in zip(y[:3], k2))
        k3 = _plain_derivs(*s3, w, Omega, m, K)
        s4 = tuple(a + dt * b for a, b in zip(y[:3], k3))
        k4 = _plain_derivs(*s4, w, Omega, m, K)
        # int E_k dt as one more RK4 row: E_k of each stage input, RK4-weighted
        E1, E2, E3, E4 = (kinetic_energy(w, stage[1]) for stage in (y, s2, s3, s4))
        Ek_integral += dt / 6.0 * (E1 + 2.0 * E2 + 2.0 * E3 + E4)
        y = tuple(
            a + dt / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        )
        if step % record_every == 0 or step == n_steps:
            now = replace(ens, eta=y[0], v=y[1], d=y[2], log_rho=y[3], t=ens.t + step * dt)
            rows.append(series_row(now, params, Ek_integral))
    return TimeSeries(rows), y


def test_carried_phasor_matches_trig_rk4_on_subcritical_sync():
    """Carrying (cos eta, sin eta) as state changes only how the RK4 stage
    inputs approximate cos and sin of the stage phase, so both runs are
    fourth-order solutions of the same flow and differ by their global
    errors: about T dt^4 times fifth derivatives of order (1/m)^5, here
    1 * 1e-12 * 32 at dt = 1e-3, so under 1e-10 with room; round-off is far
    below.  The same holds for d = P / J and log rho = log rho0 - log J
    against the Riccati form that carries d and log rho themselves."""
    cfg = parse_config(os.path.join(CONFIGS, "subcritical_sync.yaml"))
    _, omega = build_grids(cfg)
    ens = sample_initial(cfg.init, omega, 512)
    dt = 1e-3
    record_every = int(round(cfg.record_dt / dt))
    run = evolve(ens, cfg.params, 1.0, dt=dt, record_every=record_every)
    series, (eta, v, d, log_rho) = _plain_rk4(ens, cfg.params, 1.0, dt, record_every)
    assert run.blowup is None
    assert run.series.data.shape == series.data.shape == (101, 14)
    np.testing.assert_allclose(run.series.data, series.data, rtol=1e-10, atol=1e-10)
    final = run.final
    for got, want in ((final.eta, eta), (final.v, v), (final.d, d), (final.log_rho, log_rho)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_uncoupled_samples_follow_the_closed_form():
    """With K=0 each sample relaxes alone: v = Omega + (v0 - Omega) e^{-t/m}
    and eta = eta0 + Omega t + m (v0 - Omega)(1 - e^{-t/m}).  RK4 multiplies
    v - Omega by exp(-dt/m) up to (dt/m)^5/120 a step, 2000 steps of it
    a relative 5e-13; the bounds leave room for round-off in eta ~ 10."""
    om = discretize_frequency("gaussian", 8, 5.0)
    ens = sample_initial(InitSpec(RhoGaussian(), USine(-1.0)), om, 32)
    params = Params(0.5, 0.0)
    run = evolve(ens, params, 2.0, dt=1e-3, record_every=10**9)
    t, m = run.final.t, params.m
    decay = np.exp(-t / m)
    dev0 = ens.v - ens.Omega
    np.testing.assert_allclose(run.final.v, ens.Omega + dev0 * decay, rtol=0, atol=1e-11)
    np.testing.assert_allclose(
        run.final.eta, ens.eta + ens.Omega * t + m * dev0 * (1.0 - decay), rtol=0, atol=1e-10
    )


@pytest.mark.parametrize("case", ["gaussian", "point-cell", "non-finite"])
def test_oracle_row_of_state_rows_is_the_row_from_scratch(case, monkeypatch):
    """evolve's rows read the state array in place, write d, log rho and the
    unit phasor into arrays held for the run, and take the run's support,
    |sum w - 1| and E_k as they are.  On every state of the run the row has
    the bits of series_row on the CharEnsemble that stored() copies out of
    the same state, which computes all of them: zero-weight samples and a
    NaN velocity included.  A CharEnsemble keeps no phasor, so the row from
    scratch is handed the one the run's row took."""
    if case == "point-cell":
        ens = _identical_ensemble(64, u0=USine(0.1), rho0=RhoPointCell(0.0))
    else:
        ens = _identical_ensemble(64)
    if case == "non-finite":
        v = ens.v.copy()
        v[5] = np.nan
        ens = replace(ens, v=v)
    phasors = []
    real_phasor = lagrangian._unit_phasor

    def phasor(y, out):
        phasors.append(tuple(a.copy() for a in real_phasor(y, out)))
        return out

    monkeypatch.setattr(lagrangian, "_unit_phasor", phasor)
    params = Params(0.5, 0.8)
    integral = TimeSeries.columns.index("Ek_integral")
    states = []
    for _, row, stored in lagrangian._oracle_states(ens, params, 6, 0.05):
        handed = row()
        states.append(stored())
        scratch = series_row(states[-1], params, handed[integral], trig=phasors[-1])
        assert np.array(handed).tobytes() == np.array(scratch).tobytes()
    assert len(states) == (2 if case == "non-finite" else 7)
    # J has moved off 1, so d and log rho are formed, not copied
    assert not np.array_equal(states[-1].d, ens.d)
    # stored() copies them out of the arrays the next row overwrites
    for a, b in zip(states, states[1:]):
        assert not np.shares_memory(a.d, b.d)
        assert not np.shares_memory(a.log_rho, b.log_rho)


# The series columns that do not depend on the carried (cos, sin) rows,
# which a CharEnsemble does not keep.
_PHASOR_FREE = [
    TimeSeries.columns.index(c)
    for c in ("t", "Ek", "vc", "etac", "d_eta", "d_v", "mass_err", "min_du", "max_rho")
]


@pytest.mark.parametrize(
    "u0, T, record_every",
    [(USine(-1.0), 0.2, 3), (USine(-2.0), 1.0, 7)],
    ids=["smooth", "collapse"],
)
def test_oracle_rows_keep_the_bits_of_rows_from_scratch(u0, T, record_every):
    """Every row's E_k is the one the step computed at its end (or, after a
    collapse, at the start it went back to), and its other phasor-free
    columns have the bits of series_row on the snapshot at that step."""
    ens = _identical_ensemble(96, u0=u0)
    params, dt = Params(1.0, 1.0), 1e-2
    times = [round(k * dt, 12) for k in range(round(T / dt) + 1)]
    run = evolve(ens, params, T, dt=dt, record_every=record_every, snapshot_times=times)
    assert (run.blowup is not None) == (u0.amplitude == -2.0)
    assert len(run.series) > 3
    for row in run.series.data:
        snap = run.snapshots[min(run.snapshots, key=lambda ts: abs(ts - row[0]))]
        assert snap.t == row[0]
        scratch = np.array(series_row(snap, params, row[-1]))
        assert row[_PHASOR_FREE].tobytes() == scratch[_PHASOR_FREE].tobytes()
