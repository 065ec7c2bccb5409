"""Critical slopes, classification, and gradient comparison curves."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from kurahydro import (
    InitSpec,
    Params,
    RhoGaussian,
    UConst,
    UCosine,
    USine,
    blowup_time_bound,
    classify,
    classify_value,
    critical_roots,
    discretize_frequency,
    evolve,
    make_theta_grid,
    riccati_comparison,
    sample_initial,
    subcritical_density_bound,
    supercritical_density_bound,
    supercritical_envelope,
)
from kurahydro.domain import TableData
from kurahydro.thresholds import INDETERMINATE, SUBCRITICAL, SUPERCRITICAL


def test_critical_roots_closed_forms(rng):
    """Roots match an independent polynomial solve to 1e-12."""
    for _ in range(20):
        m = float(rng.uniform(0.05, 3.0))
        K = float(rng.uniform(0.0, 2.0))
        roots = critical_roots(Params(m, K))
        star = np.sort(np.roots([1.0, 1.0 / m, -K / m]).real)
        assert roots.d_star_minus == pytest.approx(star[0], abs=1e-12)
        assert roots.d_star_plus == pytest.approx(star[1], abs=1e-12)
        if 4.0 * K * m <= 1.0:
            plain = np.sort(np.roots([1.0, 1.0 / m, K / m]).real)
            assert roots.d_minus == pytest.approx(plain[0], abs=1e-12)
            assert roots.d_plus == pytest.approx(plain[1], abs=1e-12)
            assert roots.d_star_minus <= roots.d_minus <= roots.d_plus <= roots.d_star_plus
        else:
            assert roots.d_minus is None and roots.d_plus is None


def test_classification_bands():
    params = Params(0.5, 0.1)  # 4Km = 0.2
    roots = critical_roots(params)
    assert classify_value(roots.d_minus, params).category == SUBCRITICAL
    assert classify_value(roots.d_minus + 1e-9, params).category == SUBCRITICAL
    assert classify_value(roots.d_minus - 1e-9, params).category == INDETERMINATE
    assert classify_value(roots.d_star_minus, params).category == INDETERMINATE
    verdict = classify_value(roots.d_star_minus - 1e-9, params)
    assert verdict.category == SUPERCRITICAL
    assert verdict.blowup_time_bound > 0


def test_margin_widens_to_indeterminate():
    params = Params(0.5, 0.1)
    roots = critical_roots(params)
    near = roots.d_minus + 1e-6
    assert classify_value(near, params, margin=0.0).category == SUBCRITICAL
    assert classify_value(near, params, margin=1e-3).category == INDETERMINATE
    far = roots.d_minus + 1.0
    assert classify_value(far, params, margin=1e-3).category == SUBCRITICAL


def test_negative_margin_is_rejected():
    with pytest.raises(ValueError, match="margin must be nonnegative"):
        classify_value(0.0, Params(0.5, 0.1), margin=-1e-3)


def test_no_indeterminate_band_without_coupling():
    params = Params(0.5, 0.0)
    threshold = -1.0 / params.m
    assert classify_value(threshold + 1e-12, params).category == SUBCRITICAL
    assert classify_value(threshold, params).category == SUBCRITICAL
    assert classify_value(threshold - 1e-12, params).category == SUPERCRITICAL


def test_strong_coupling_drops_subcritical_test():
    params = Params(1.0, 1.0)  # 4Km = 4 > 1
    assert classify_value(-1.0, params).category == INDETERMINATE
    assert classify_value(-2.0, params).category == SUPERCRITICAL


def test_classify_symbolic_profiles():
    verdict = classify(InitSpec(u0=USine(-1.0)), Params(0.5, 0.1))
    assert verdict.category == SUBCRITICAL
    assert verdict.min_du0 == -1.0
    assert verdict.margin == 0.0
    assert classify(UConst(3.0), Params(1.0, 1.0)).category == INDETERMINATE


def test_classify_table_with_margin():
    """An init_table's u0 (here -sin theta on 256 cells) is differenced,
    with a curvature margin."""
    centers = make_theta_grid(256).centers
    table = TableData(
        centers, np.zeros(1), np.full((1, 256), 1.0 / (2 * np.pi)), -np.sin(centers)[None, :]
    )
    verdict = classify(table, Params(0.5, 0.1))
    assert verdict.category == SUBCRITICAL
    assert verdict.margin > 0.0
    assert verdict.min_du0 == pytest.approx(-1.0, abs=1e-3)


def test_classify_table_data():
    theta = np.linspace(-np.pi, np.pi, 128, endpoint=False)
    table = TableData(
        theta,
        np.zeros(1),
        np.full((1, theta.size), 1.0 / (2 * np.pi)),
        -2.0 * np.sin(theta)[None, :],
    )
    verdict = classify(table, Params(1.0, 1.0))
    assert verdict.category == SUPERCRITICAL
    bad = TableData(
        np.array([0.0, 0.1, 0.3, 0.35]),
        np.zeros(1),
        np.ones((1, 4)),
        np.zeros((1, 4)),
    )
    with pytest.raises(ValueError, match="uniform"):
        classify(bad, Params(1.0, 1.0))


def test_riccati_comparison_against_ode_oracle():
    """Closed form matches a high-accuracy RK45 solve of q' = -q^2 - q/m - K/m."""
    params = Params(0.5, 0.1)
    t_eval = np.linspace(0.0, 5.0, 21)
    for d0 in (-1.0, -0.3, 0.0, 1.5):
        sol = solve_ivp(
            lambda _, y: [-y[0] ** 2 - y[0] / params.m - params.K / params.m],
            (0.0, 5.0),
            [d0],
            t_eval=t_eval,
            rtol=1e-12,
            atol=1e-14,
        )
        q = riccati_comparison(d0, params, t_eval)
        assert np.max(np.abs(q - sol.y[0])) < 1e-9


def test_riccati_limits_and_guards():
    params = Params(0.5, 0.1)
    roots = critical_roots(params)
    t = np.array([0.0, 1e3])
    q = riccati_comparison(-1.0, params, t)
    assert q[0] == pytest.approx(-1.0, abs=1e-14)
    assert q[1] == pytest.approx(roots.d_plus, abs=1e-12)
    # starting exactly at the lower root stays there
    q_fixed = riccati_comparison(roots.d_minus, params, np.array([0.0, 5.0, 500.0]))
    assert np.allclose(q_fixed, roots.d_minus, atol=1e-14)
    with pytest.raises(ValueError, match="4\\*K\\*m"):
        riccati_comparison(-1.0, Params(1.0, 1.0), t)


def test_riccati_double_root_case():
    m = 0.5
    params = Params(m, 1.0 / (4.0 * m))  # 4Km = 1 exactly
    roots = critical_roots(params)
    assert roots.d_minus == roots.d_plus == -1.0 / (2.0 * m)
    sol = solve_ivp(
        lambda _, y: [-y[0] ** 2 - y[0] / m - params.K / m],
        (0.0, 3.0),
        [0.2],
        t_eval=[3.0],
        rtol=1e-12,
        atol=1e-14,
    )
    q = riccati_comparison(0.2, params, np.array(3.0))
    assert float(q) == pytest.approx(sol.y[0][-1], abs=1e-9)


def test_supercritical_envelope_shape():
    params = Params(1.0, 1.0)
    d0 = -2.0
    pole = blowup_time_bound(d0, params)
    assert pole == pytest.approx(
        1.0 / (critical_roots(params).d_star_minus - d0), abs=1e-15
    )
    t = np.linspace(0.0, 0.95 * pole, 50)
    env = supercritical_envelope(d0, params, t)
    assert env[0] == pytest.approx(d0, abs=1e-13)
    assert np.all(np.diff(env) < 0.0)
    with pytest.raises(ValueError, match="pole"):
        supercritical_envelope(d0, params, np.array([pole]))
    with pytest.raises(ValueError):
        blowup_time_bound(-1.0, params)  # not below d*_-


def test_supercritical_envelope_dominates_comparison_ode():
    """q' = -(q - d*+)(q - d*-) <= -(q - d*-)^2 below d*-, so the closed-form
    solution of the slower equation is an upper bound on q until its pole."""
    params = Params(1.0, 1.0)
    d0 = -2.0
    t_eval = np.linspace(0.0, 0.8, 17)  # true solution poles near t ~ 0.85
    sol = solve_ivp(
        lambda _, y: [-y[0] ** 2 - y[0] / params.m + params.K / params.m],
        (0.0, 0.8),
        [d0],
        t_eval=t_eval,
        rtol=1e-12,
        atol=1e-14,
    )
    env = supercritical_envelope(d0, params, t_eval)
    assert np.all(sol.y[0] <= env + 1e-9)
    assert sol.y[0][-1] < env[-1] - 1.0  # strictly faster collapse


def test_supercritical_envelope_solves_its_own_ode():
    """The envelope satisfies y' = -(y - d*-)^2 with y(0) = d0."""
    params = Params(1.0, 1.0)
    d0 = -2.0
    ds = critical_roots(params).d_star_minus
    t = np.linspace(0.0, 2.0, 9)
    h = 1e-6
    deriv = (
        supercritical_envelope(d0, params, t + h)
        - supercritical_envelope(d0, params, t - h)
    ) / (2.0 * h)
    env = supercritical_envelope(d0, params, t)
    assert np.allclose(deriv, -np.square(env - ds), rtol=1e-6, atol=1e-8)
    assert supercritical_envelope(d0, params, 0.0) == pytest.approx(d0, abs=1e-14)


def test_density_bounds():
    params = Params(0.5, 0.1)
    t = np.array([0.0, 1.0, 3.0])
    upper = subcritical_density_bound(2.0, params, t)
    assert upper[0] == 2.0
    assert np.all(np.diff(upper) > 0)  # d_- < 0 so the ceiling grows
    sup = Params(1.0, 1.0)
    lower = supercritical_density_bound(2.0, -2.0, sup, np.array([0.0, 1.0, 2.5]))
    assert lower[0] == 2.0
    assert lower[2] > lower[0]  # inflates approaching the pole
    with pytest.raises(ValueError, match="4\\*K\\*m"):
        subcritical_density_bound(1.0, Params(1.0, 1.0), t)
    with pytest.raises(ValueError, match="d_star_minus"):
        supercritical_density_bound(1.0, -0.5, sup, t)


def test_documented_parameter_sets():
    """The four stated parameter regimes classify as expected."""
    assert classify(USine(-1.0), Params(0.5, 0.1)).category == SUBCRITICAL
    assert classify(USine(-2.0), Params(1.0, 1.0)).category == SUPERCRITICAL
    assert classify(USine(-0.1), Params(2.0, 0.1)).category == SUBCRITICAL
    assert classify(USine(-10.0), Params(2.0, 0.1)).category == SUPERCRITICAL
    assert classify(USine(10.0, 2.0), Params(2.0, 0.1)).category == SUPERCRITICAL


# The classifier against the characteristic oracle.  u0 = a*cos(theta) has
# min du0 = -a at theta = pi/2, which is a sample node when the sample count
# is 2 mod 4, so the oracle starts from the classified slope itself.


def _oracle_run(amplitude, params, T, dt):
    ens = sample_initial(
        InitSpec(RhoGaussian(), UCosine(amplitude)), discretize_frequency("dirac"), 66
    )
    return evolve(ens, params, T, dt=dt, record_every=5)


@settings(max_examples=8)
@given(st.floats(0.1, 2.0), st.floats(0.0, 1.0), st.floats(0.05, 3.0))
def test_subcritical_verdict_keeps_oracle_slope_above_riccati_curve(m, coupling, amplitude):
    params = Params(m, coupling / (4.0 * m))  # 4Km <= 1: the subcritical test exists
    verdict = classify(UCosine(amplitude), params)
    assume(verdict.category == SUBCRITICAL)
    run = _oracle_run(amplitude, params, T=2.0, dt=2e-3)
    assert run.blowup is None
    curve = riccati_comparison(verdict.min_du0, params, run.series.t)
    assert np.all(run.series.min_du >= curve - 1e-9)


@settings(max_examples=8)
@given(st.floats(0.1, 2.0), st.floats(0.0, 2.0), st.floats(0.5, 4.0))
def test_supercritical_verdict_blows_up_before_the_time_bound(m, K, amplitude):
    params = Params(m, K)
    verdict = classify(UCosine(amplitude), params)
    assume(verdict.category == SUPERCRITICAL)
    dt = 1e-3
    bound = verdict.blowup_time_bound
    run = _oracle_run(amplitude, params, T=dt * (math.ceil(bound / dt) + 2), dt=dt)
    assert run.blowup is not None
    assert run.blowup.t <= bound + dt  # the first zero of J, timed within its step
