"""Diagnostics: energies, diameters, envelopes, prediction, blow-up monitor."""
from __future__ import annotations

import math

import numpy as np
import pytest

from kurahydro import (
    BlowupMonitor,
    CharEnsemble,
    FieldState,
    InitSpec,
    Params,
    RhoGaussian,
    SERIES_COLUMNS,
    TimeSeries,
    USine,
    diameters,
    dirac_distance_bound,
    discretize_frequency,
    energies,
    ensemble_order_parameter,
    envelope_params,
    evolve,
    gronwall_bound,
    init_state,
    lyapunov,
    make_theta_grid,
    mean_phase,
    mean_velocity,
    order_parameter,
    phase_envelope,
    r_infinity_prediction,
    sample_initial,
    velocity_envelope,
)
from kurahydro.diagnostics import (
    BLOWUP_GRAD,
    _field_cell_masses,
    kinetic_energy,
    min_grad_u,
    series_row,
)


class _Ens:
    """Minimal duck-typed ensemble for moment functions."""

    def __init__(self, eta, v, weight, t=0.0):
        self.eta = np.asarray(eta, dtype=float)
        self.v = np.asarray(v, dtype=float)
        self.weight = np.asarray(weight, dtype=float)
        self.t = t


def _random_ensemble(rng, n=100):
    w = rng.uniform(0.1, 1.0, size=n)
    return _Ens(
        rng.uniform(-np.pi, np.pi, size=n), rng.normal(size=n), w / w.sum()
    )


def test_series_columns_and_access():
    rows = np.arange(2 * len(SERIES_COLUMNS), dtype=float).reshape(2, -1)
    series = TimeSeries(rows)
    assert len(series) == 2
    assert series.t[1] == float(len(SERIES_COLUMNS))
    assert series.r[0] == 1.0
    with pytest.raises(AttributeError):
        series.nonexistent
    with pytest.raises(ValueError, match="columns"):
        TimeSeries(np.zeros((2, 3)))


def test_potential_energy_factorization(rng):
    """(K/2m)(1 - r^2) equals the pairwise double sum on random ensembles."""
    params = Params(0.7, 1.9)
    for _ in range(20):
        ens = _random_ensemble(rng)
        op = ensemble_order_parameter(ens.eta, ens.weight)
        _, Ep = energies(ens, op, params)
        diff = ens.eta[:, None] - ens.eta[None, :]
        double = float(
            np.sum(ens.weight[:, None] * ens.weight[None, :] * np.cos(diff))
        )
        direct = (params.K / (2.0 * params.m)) * (1.0 - double)
        assert abs(Ep - direct) < 1e-12


def test_kinetic_energy_definition(rng):
    ens = _random_ensemble(rng)
    op = ensemble_order_parameter(ens.eta, ens.weight)
    Ek, _ = energies(ens, op, Params(1.0, 1.0))
    vc = float(np.dot(ens.weight, ens.v))
    assert Ek == pytest.approx(0.5 * np.dot(ens.weight, (ens.v - vc) ** 2), abs=1e-14)


def test_kinetic_energy_matches_the_plain_formula_bitwise(rng, random_state_factory):
    """The in-place form of E_k over a field's cells and over samples: same bits."""
    from kurahydro.diagnostics import _field_cell_masses, kinetic_energy

    state = random_state_factory(n_theta=64, n_omega=5, kind="gaussian")
    w = state.grid.dtheta * state.rho * state.omega.weights[:, None]
    assert _field_cell_masses(state).tobytes() == w.tobytes()
    vc = float(np.sum(w * state.u))
    assert kinetic_energy(w, state.u) == 0.5 * float(np.sum(w * np.square(state.u - vc)))
    ens = _random_ensemble(rng)
    vc = float(np.dot(ens.weight, ens.v))
    expected = 0.5 * float(np.dot(ens.weight, np.square(ens.v - vc)))
    assert kinetic_energy(ens.weight, ens.v) == expected


def test_lyapunov_direct_form(rng):
    params = Params(0.4, 2.2)
    ens = _random_ensemble(rng)
    op = ensemble_order_parameter(ens.eta, ens.weight)
    L = lyapunov(ens, op, params)
    direct = 0.5 * float(
        np.dot(
            ens.weight,
            (ens.v + params.K * op.r * np.sin(ens.eta - op.phi)) ** 2,
        )
    )
    assert L == pytest.approx(direct, abs=1e-12)


def test_field_lyapunov_peaks_below_three_fields(random_state_factory):
    """The cell masses and one temporary, squared and weighted in place;
    squaring and weighting into fresh arrays peaked at 4.03 fields."""
    from conftest import peak_fields

    state = random_state_factory(n_theta=100, n_omega=120, kind="gaussian")
    op, params = order_parameter(state), Params(1.0, 2.0)
    lyapunov(state, op, params)
    peak = peak_fields(lambda: lyapunov(state, op, params), state.rho.nbytes)
    assert peak <= 3, peak


def test_field_vs_ensemble_moments():
    grid = make_theta_grid(400)
    om = discretize_frequency("dirac")
    state = init_state(InitSpec(RhoGaussian(), USine(-1.0, 1.0, 0.2)), grid, om)
    # one sample per cell, at its center, carrying the cell's mass
    mass = grid.dtheta * state.rho[0]
    ens = CharEnsemble(
        Omega=np.zeros(grid.n), weight=mass / mass.sum(), eta=grid.centers,
        v=state.u[0], d=np.zeros(grid.n), log_rho=np.log(state.rho[0]),
    )
    assert mean_velocity(state) == pytest.approx(mean_velocity(ens), abs=1e-12)
    assert mean_phase(state) == pytest.approx(mean_phase(ens), abs=1e-12)
    op_f = order_parameter(state)
    op_e = ensemble_order_parameter(ens.eta, ens.weight)
    assert op_f.r == pytest.approx(op_e.r, abs=1e-12)
    # series_row over either guise: the same row where the columns agree
    params = Params(0.7, 1.3)
    row_f = series_row(state, params, 0.25)
    row_e = series_row(ens, params, 0.25)
    assert len(row_f) == len(row_e) == len(SERIES_COLUMNS)
    assert row_f[-1] == row_e[-1] == 0.25  # Ek_integral, the last column
    for name in ("t", "r", "phi", "Ek", "Ep", "vc", "etac", "L"):
        j = SERIES_COLUMNS.index(name)
        assert row_f[j] == pytest.approx(row_e[j], abs=1e-12), name


def test_ensemble_diameters():
    ens = _Ens([0.1, -0.4, 1.2], [0.0, 2.0, -1.0], [0.3, 0.3, 0.4])
    d_eta, d_v = diameters(ens)
    assert d_eta == pytest.approx(1.6)
    assert d_v == pytest.approx(3.0)
    # zero-weight samples are excluded from the support
    ens2 = _Ens([0.1, -0.4, 9.9], [0.0, 2.0, 50.0], [0.5, 0.5, 0.0])
    d_eta2, d_v2 = diameters(ens2)
    assert d_eta2 == pytest.approx(0.5)
    assert d_v2 == pytest.approx(2.0)


def test_field_diameter_wraps_seam():
    """Support straddling +/-pi measures the short covering arc, not ~2pi."""
    grid = make_theta_grid(360)
    om = discretize_frequency("dirac")
    rho = np.zeros((1, grid.n))
    near_seam = np.abs(np.abs(grid.centers) - np.pi) < 0.3
    rho[0, near_seam] = 1.0
    rho /= grid.dtheta * rho.sum()
    st = FieldState(grid, om, rho, np.zeros_like(rho))
    d_eta, d_v = diameters(st, eps_supp=1e-12)
    assert d_eta < 0.7
    assert d_v == 0.0


def test_envelope_params_validation():
    params = Params(0.5, 0.1)
    env = envelope_params(0.5, 0.1, params)
    assert env.regime == "overdamped"
    assert env.nu1 > env.nu2 > 0
    with pytest.raises(ValueError, match="C0"):
        envelope_params(3.2, 0.5, params)  # C0 >= pi
    with pytest.raises(ValueError, match="nonnegative"):
        envelope_params(-0.1, 0.1, params)
    under = envelope_params(0.5, 0.1, Params(2.0, 2.0))
    assert under.regime == "underdamped"
    assert under.nu1 == under.nu2 == 1.0 / (2.0 * 2.0)


def test_envelopes_start_at_initial_diameters():
    for params in (Params(0.5, 0.1), Params(2.0, 2.0)):
        env = envelope_params(0.7, 0.3, params)
        assert float(phase_envelope(env, 0.0)) == pytest.approx(0.7, abs=1e-14)
        assert float(velocity_envelope(env, 0.0)) == pytest.approx(0.3, abs=1e-14)


def test_envelopes_decay_to_zero():
    env = envelope_params(0.5, 0.1, Params(0.5, 0.1))
    t = np.array([10.0, 100.0])
    assert phase_envelope(env, t)[1] < 1e-3
    assert velocity_envelope(env, t)[1] < 1e-3
    assert phase_envelope(env, t)[1] < phase_envelope(env, t)[0]


def test_gronwall_bound_equality_case():
    """a=1, b=2, c=1 (double root) reproduces e^{-t}(1 + t) exactly."""
    t = np.linspace(0.0, 10.0, 101)
    bound = gronwall_bound(1.0, 2.0, 1.0, 1.0, 0.0, t)
    assert np.max(np.abs(bound - np.exp(-t) * (1.0 + t))) < 1e-12
    with pytest.raises(ValueError, match="a must be positive"):
        gronwall_bound(0.0, 1.0, 1.0, 1.0, 0.0, t)


def test_gronwall_bound_distinct_roots_initial_conditions():
    a, b, c = 1.0, 3.0, 1.0
    x0, x1 = 0.8, -0.2
    h = 1e-6
    t = np.array([0.0, h])
    vals = gronwall_bound(a, b, c, x0, x1, t)
    assert vals[0] == pytest.approx(x0, abs=1e-14)
    assert (vals[1] - vals[0]) / h == pytest.approx(x1, abs=1e-5)


def test_r_infinity_prediction_requires_coupling():
    rows = np.zeros((2, len(SERIES_COLUMNS)))
    series = TimeSeries(rows)
    with pytest.raises(ValueError, match="K > 0"):
        r_infinity_prediction(series, Params(1.0, 0.0))


def test_r_infinity_prediction_warns_on_negative_radicand():
    rows = np.zeros((1, len(SERIES_COLUMNS)))
    rows[0, SERIES_COLUMNS.index("r")] = 0.0
    rows[0, SERIES_COLUMNS.index("Ek")] = 1.0  # forces radicand << 0
    series = TimeSeries(rows)
    with pytest.warns(UserWarning, match="radicand"):
        value = r_infinity_prediction(series, Params(1.0, 1.0))
    assert value == 0.0


def test_dirac_distance_bound_holds_on_oracle_run():
    params = Params(0.5, 0.1)
    om = discretize_frequency("dirac")
    ens0 = sample_initial(InitSpec(RhoGaussian(), USine(-1.0, 1.0, 0.3)), om, 128)
    run = evolve(ens0, params, 4.0, dt=1e-3, record_every=4000)
    measured, bound = dirac_distance_bound(run.final, ens0, params)
    assert measured <= bound + 1e-12


def test_blowup_monitor_latching_and_reasons():
    mon = BlowupMonitor(rho_factor=10.0)
    assert mon.observe_values(0.0, 1.0, -1.0) is None
    assert not mon.fired
    event = mon.observe_values(1.0, 11.0, -1.0)
    assert event is not None and event.reason == "density-concentration"
    # latched: later observations keep the first event
    assert mon.observe_values(2.0, 1.0, -2.0 * BLOWUP_GRAD).t == 1.0

    mon2 = BlowupMonitor(rho_factor=10.0)
    mon2.observe_values(0.0, 1.0, -1.0)
    assert mon2.observe_values(0.4, 2.0, -BLOWUP_GRAD) is None  # the limit itself
    assert mon2.observe_values(0.5, 2.0, -1.01 * BLOWUP_GRAD).reason == "gradient-collapse"

    mon3 = BlowupMonitor()
    assert mon3.observe_values(0.2, math.inf, 0.0).reason == "non-finite"


def test_blowup_monitor_reference_density():
    mon = BlowupMonitor(rho_factor=2.0)
    assert mon.observe_values(0.0, 1.0, 0.0) is None  # fixes max rho0 = 1
    assert mon.max_rho0 == 1.0
    assert mon.observe_values(0.05, 1.9, 0.0) is None
    assert mon.observe_values(0.1, 2.1, 0.0) is not None


@pytest.mark.parametrize("n_theta", [4, 5, 64])
def test_min_grad_u_equals_the_rolled_centred_difference(random_state_factory, n_theta):
    """Min of the undivided differences, divided once, is the min of the quotients."""
    state = random_state_factory(n_theta=n_theta, n_omega=3, kind="gaussian")
    rolled = (np.roll(state.u, -1, axis=-1) - np.roll(state.u, 1, axis=-1)) / (
        2.0 * state.grid.dtheta
    )
    assert min_grad_u(state) == float(np.min(rolled))


def _plain_min_grad_u(state):
    u = state.u
    return float(np.min((
        np.min(u[:, 2:] - u[:, :-2]), np.min(u[:, 1] - u[:, -1]), np.min(u[:, 0] - u[:, -2])
    )) / (2.0 * state.grid.dtheta))


@pytest.mark.parametrize("chunk_cells", [None, 1, 3 * 16])
@pytest.mark.parametrize("where", ["interior", "seam-0", "seam-last", "last-row"])
def test_min_grad_u_in_chunks_matches_the_plain_formula(
    monkeypatch, random_state_factory, chunk_cells, where
):
    """Chunks of 1 and 3 slices (7 slices: a ragged last chunk), and one, with
    the steepest drop placed inside a slice, at either side of the seam, or
    in the last slice."""
    from kurahydro import diagnostics

    if chunk_cells is not None:
        monkeypatch.setattr(diagnostics, "GRAD_CHUNK_CELLS", chunk_cells)
    state = random_state_factory(n_theta=16, n_omega=7, kind="gaussian")
    u = np.array(state.u)
    row, col = {"interior": (2, 8), "seam-0": (4, 0), "seam-last": (5, 15), "last-row": (6, 3)}[where]
    u[row, (col + 1) % 16] = -50.0
    u[row, col - 1] = 50.0
    state = FieldState(state.grid, state.omega, state.rho, u)
    assert min_grad_u(state) == _plain_min_grad_u(state) == -100.0 / (2.0 * state.grid.dtheta)
    u[6, 9] = math.nan
    nan_state = FieldState(state.grid, state.omega, state.rho, u)
    assert math.isnan(min_grad_u(nan_state))


@pytest.mark.parametrize(
    "field, bad",
    [(f, v) for f in ("rho", "u") for v in (math.nan, math.inf, -math.inf)] + [(None, None)],
)
def test_monitor_observe_matches_the_isfinite_test(random_state_factory, field, bad):
    """NaN or +-inf only in rho or only in u, against isfinite over both arrays."""
    state = random_state_factory(n_theta=16, n_omega=3, kind="gaussian")
    if field is not None:
        values = np.array(getattr(state, field))
        values[1, 7] = bad
        state = FieldState(state.grid, state.omega, **{
            "rho": state.rho, "u": state.u, field: values
        }, t=0.25)
    finite = bool(np.all(np.isfinite(state.rho)) and np.all(np.isfinite(state.u)))
    reference = BlowupMonitor()
    reference.observe_values(
        state.t,
        float(np.max(state.rho)) if finite else math.inf,
        min_grad_u(state) if finite else -math.inf,
        finite,
    )
    mon = BlowupMonitor()
    mon.observe(state)
    assert mon.event == reference.event
    assert mon.max_rho0 == reference.max_rho0
    assert mon.fired == (field is not None)


def _row_bits(row):
    return np.array(row, dtype=float).tobytes()


@pytest.mark.parametrize("bad", [None, math.nan, math.inf])
def test_field_row_from_handed_values_is_the_row_from_scratch(random_state_factory, bad):
    """E_k, the order parameter, and the extrema that the monitor's observe
    returns on this very state, handed to series_row, give the bits of a row
    that computes them.  On a non-finite state observe skips min_grad_u and
    hands only max rho."""
    state = random_state_factory(n_theta=32, n_omega=3, kind="gaussian")
    if bad is not None:
        u = np.array(state.u)
        u[1, 7] = bad
        state = FieldState(state.grid, state.omega, state.rho, u, t=0.5)
    params = Params(0.7, 1.3)
    extrema = BlowupMonitor().observe(state)
    assert extrema[0] == float(np.max(state.rho))
    assert (extrema[1] is None) == (bad is not None)
    with np.errstate(invalid="ignore"):
        Ek = kinetic_energy(_field_cell_masses(state), state.u)
        op = order_parameter(state)
        handed = series_row(state, params, 0.25, 1e-9, Ek=Ek, op=op, extrema=extrema)
        scratch = series_row(state, params, 0.25, 1e-9)
    assert _row_bits(handed) == _row_bits(scratch)


@pytest.mark.parametrize("n_theta", [7, 8, 64])
def test_covering_arc_of_grid_centres_is_the_sorted_formula(rng, n_theta):
    """Ascending grid centres, rotated at their first angle >= 0, are the
    sorted angles mod 2 pi: the arc has the bits of the sorting formula on
    every support of up to 8 cells and on random ones."""
    from kurahydro.diagnostics import _covering_arc

    def sorted_formula(angles):
        if angles.size == 1:
            return 0.0
        a = np.sort(np.mod(angles, 2.0 * np.pi))
        return float(2.0 * np.pi - max(np.max(np.diff(a)), a[0] + 2.0 * np.pi - a[-1]))

    centres = make_theta_grid(n_theta).centers
    masks = [rng.random(n_theta) < p for p in (0.1, 0.5, 0.9) for _ in range(30)]
    if n_theta <= 8:
        bits = np.arange(1, 2**n_theta)[:, None] >> np.arange(n_theta)
        masks = list((bits & 1).astype(bool))
    for mask in masks:
        if mask.any():
            angles = centres[mask]
            assert _row_bits([_covering_arc(angles)]) == _row_bits([sorted_formula(angles)])
