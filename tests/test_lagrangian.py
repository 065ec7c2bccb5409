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
    init_state,
    make_theta_grid,
    pushforward_density,
    rho0_profile,
    riccati_comparison,
    sample_initial,
)
from kurahydro import lagrangian
from kurahydro.config import parse_config
from kurahydro.diagnostics import SeriesBuilder, kinetic_energy, series_row
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


def test_sample_initial_from_field_state():
    grid = make_theta_grid(200)
    om = discretize_frequency("dirac")
    state = init_state(InitSpec(RhoGaussian(), USine(-1.0)), grid, om)
    ens = sample_initial(state)
    assert ens.n == 200
    assert np.abs(ens.weight.sum() - 1.0) < 1e-12
    # centered-difference d agrees with the analytic gradient on the fine grid
    assert np.allclose(ens.d, evaluate_du0(USine(-1.0), grid.centers), atol=1e-3)


def test_sample_initial_rejects_tables():
    table = TableData(
        np.array([0.0]), np.array([0.0]), np.array([[1.0]]), np.array([[0.0]])
    )
    with pytest.raises(TypeError, match="FieldState"):
        sample_initial(InitSpec(table, table), discretize_frequency("dirac"), 16)


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        CharEnsemble(
            np.zeros(2),
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
    ens = CharEnsemble(zeros, zeros, weight, eta, zeros, zeros, zeros)
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
    """Steep initial compression triggers the gradient floor and stops the run."""
    ens = _identical_ensemble(128, u0=USine(-2.0))
    run = evolve(ens, Params(1.0, 1.0), 5.0, dt=1e-3, record_every=100)
    assert run.blowup is not None
    assert run.blowup.reason == "gradient-collapse"
    assert run.blowup.t < 5.0
    assert run.series.t[-1] == pytest.approx(run.blowup.t)
    assert np.min(run.final.d) < -1e6


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
    names that state as the FV monitor does, not as a gradient collapse."""
    ens = _identical_ensemble(64)
    bad = getattr(ens, row).copy()
    bad[5] = value
    run = evolve(replace(ens, **{row: bad}), Params(0.5, 1.0), 1.0, dt=1e-3)
    assert run.blowup is not None
    assert run.blowup.reason == "non-finite"
    assert run.blowup.t == pytest.approx(1e-3)
    assert run.series.t[-1] == pytest.approx(1e-3)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_minus_infinite_slope_is_a_gradient_collapse(monkeypatch):
    """d = -inf is the limit of a collapse: it is reported as
    gradient-collapse even though log rho turns +inf with it."""
    inner = lagrangian._derivs

    def collapsing(w, Omega, y, m, K, out):
        inner(w, Omega, y, m, K, out)
        out[lagrangian.D, 7] = -np.inf

    monkeypatch.setattr(lagrangian, "_derivs", collapsing)
    run = evolve(_identical_ensemble(64), Params(0.5, 1.0), 1.0, dt=1e-3)
    assert run.blowup is not None
    assert run.blowup.reason == "gradient-collapse"
    assert run.blowup.t == pytest.approx(1e-3)
    assert run.final.d[7] == -np.inf
    assert np.all(np.isfinite(np.delete(run.final.d, 7)))
    assert run.final.log_rho[7] == np.inf


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_log_density_raises_integration_failure(value):
    """log rho feeds no tendency, so a non-finite one leaves d finite: that
    is no blow-up but a failed integration, raised with the last valid t."""
    ens = replace(_identical_ensemble(64), t=0.3)
    log_rho = ens.log_rho.copy()
    log_rho[11] = value
    with pytest.raises(lagrangian.IntegrationFailure) as info:
        evolve(replace(ens, log_rho=log_rho), Params(0.5, 1.0), 1.0, dt=1e-3)
    assert info.value.t_last == 0.3


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
    builder = SeriesBuilder()
    Ek_integral, Ek_last = 0.0, kinetic_energy(w, ens.v)
    builder.append(series_row(ens, params, Ek_integral))
    for step in range(1, n_steps + 1):
        k1 = _plain_derivs(*y[:3], w, Omega, m, K)
        k2 = _plain_derivs(*(a + 0.5 * dt * b for a, b in zip(y[:3], k1)), w, Omega, m, K)
        k3 = _plain_derivs(*(a + 0.5 * dt * b for a, b in zip(y[:3], k2)), w, Omega, m, K)
        k4 = _plain_derivs(*(a + dt * b for a, b in zip(y[:3], k3)), w, Omega, m, K)
        y = tuple(
            a + dt / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        )
        Ek_now = kinetic_energy(w, y[1])
        Ek_integral += 0.5 * dt * (Ek_last + Ek_now)
        Ek_last = Ek_now
        if step % record_every == 0 or step == n_steps:
            now = replace(ens, eta=y[0], v=y[1], d=y[2], log_rho=y[3], t=ens.t + step * dt)
            builder.append(series_row(now, params, Ek_integral))
    return builder.build(), y


def test_carried_phasor_matches_trig_rk4_on_subcritical_sync():
    """Carrying (cos eta, sin eta) as state changes only how the RK4 stage
    inputs approximate cos and sin of the stage phase, so both runs are
    fourth-order solutions of the same flow and differ by their global
    errors: about T dt^4 times fifth derivatives of order (1/m)^5, here
    1 * 1e-12 * 32, so under 1e-10 with room; round-off is far below."""
    cfg = parse_config(os.path.join(CONFIGS, "subcritical_sync.yaml"))
    _, omega = build_grids(cfg)
    ens = sample_initial(cfg.init, omega, 512)
    record_every = int(round(cfg.record_dt / cfg.dt_oracle))
    run = evolve(ens, cfg.params, 1.0, dt=cfg.dt_oracle, record_every=record_every)
    series, (eta, v, d, log_rho) = _plain_rk4(ens, cfg.params, 1.0, cfg.dt_oracle, record_every)
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
    ens = sample_initial(InitSpec(RhoGaussian(), USine(-1.0, 0.5)), om, 32)
    params = Params(0.5, 0.0)
    run = evolve(ens, params, 2.0, dt=1e-3, record_every=10**9)
    t, m = run.final.t, params.m
    decay = np.exp(-t / m)
    dev0 = ens.v - ens.Omega
    np.testing.assert_allclose(run.final.v, ens.Omega + dev0 * decay, rtol=0, atol=1e-11)
    np.testing.assert_allclose(
        run.final.eta, ens.eta + ens.Omega * t + m * dev0 * (1.0 - decay), rtol=0, atol=1e-10
    )
