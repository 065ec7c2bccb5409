"""Order parameter and mean-field force against brute-force oracles."""
from __future__ import annotations

import numpy as np
import pytest

from kurahydro import (
    InitSpec,
    Params,
    RhoGaussian,
    UCosine,
    USine,
    discretize_frequency,
    ensemble_order_parameter,
    init_state,
    make_theta_grid,
    mean_field_force,
    order_parameter,
)
from kurahydro.meanfield import DOT_CHUNK, weighted_sum


def test_order_parameter_quadrature_exact_for_trig_density():
    """Midpoint quadrature is exact on trig-polynomial densities: r = 1/4."""
    spec = InitSpec(UCosine(0.5, 1, 1.0), USine(-1.0))
    om = discretize_frequency("dirac")
    for n in (64, 640):
        state = init_state(spec, make_theta_grid(n), om)
        op = order_parameter(state)
        assert op.r == pytest.approx(0.25, abs=1e-14)
        assert op.phi == pytest.approx(0.0, abs=1e-13)


def test_order_parameter_quadrature_refinement():
    """The wrapped-Gaussian corner at the seam limits accuracy to O(h^2)."""
    spec = InitSpec(RhoGaussian(), USine(-1.0))
    om = discretize_frequency("dirac")
    rs = []
    for n in (160, 320, 5120):
        state = init_state(spec, make_theta_grid(n), om)
        rs.append(order_parameter(state).r)
    e_coarse = abs(rs[0] - rs[2])
    e_fine = abs(rs[1] - rs[2])
    assert e_fine < e_coarse / 3.0  # roughly quadratic decay


def test_force_matches_double_sum(random_state_factory):
    """The factorized force equals the O(N^2) pairwise quadrature."""
    state = random_state_factory(n_theta=48, n_omega=6, kind="gaussian")
    params = Params(0.7, 1.3)
    op = order_parameter(state)
    force = mean_field_force(op, state.grid.centers, params)
    theta = state.grid.centers
    cell_mass = state.grid.dtheta * state.rho * state.omega.weights[:, None]
    brute = np.array(
        [params.K * np.sum(cell_mass * np.sin(theta[None, :] - t)) for t in theta]
    )
    assert np.allclose(force, brute, atol=1e-13)


def test_mean_field_force_is_k_r_sin(rng):
    """K*(S*cos(theta) - C*sin(theta)) is K*r*sin(phi - theta)."""
    eta = rng.uniform(-np.pi, np.pi, size=200)
    w = rng.uniform(0, 1, size=200)
    w /= w.sum()
    op = ensemble_order_parameter(eta, w)
    theta = rng.uniform(-np.pi, np.pi, size=50)
    force = mean_field_force(op, theta, Params(1.0, 2.0))
    assert np.allclose(force, 2.0 * op.r * np.sin(op.phi - theta), atol=1e-14)


def test_order_parameter_bounds(random_state_factory):
    for _ in range(10):
        state = random_state_factory(n_theta=32, n_omega=4, kind="gaussian")
        op = order_parameter(state)
        assert 0.0 <= op.r <= 1.0 + 1e-12
        assert -np.pi <= op.phi <= np.pi


def test_zero_r_phase_convention():
    # antipodal pair cancels to roundoff; phi is then just the atan2 of noise
    op = ensemble_order_parameter(np.array([0.0, np.pi]), np.array([0.5, 0.5]))
    assert op.r == pytest.approx(0.0, abs=1e-16)
    # exactly-zero moments take the documented phi = 0 convention
    op0 = ensemble_order_parameter(np.array([0.3, 1.7]), np.array([0.0, 0.0]))
    assert op0.r == 0.0 and op0.phi == 0.0


def test_reduction_deterministic(random_state_factory):
    state = random_state_factory(n_theta=128, n_omega=8, kind="gaussian")
    a = order_parameter(state)
    b = order_parameter(state)
    assert (a.C, a.S) == (b.C, b.S)


def test_weighted_sum_adds_dots_of_at_most_a_chunk_in_order(rng):
    """Up to DOT_CHUNK elements one np.dot; beyond, the chunks' dots left to right."""
    n = DOT_CHUNK
    w, x = rng.random(2 * n + 123), rng.random(2 * n + 123)
    assert weighted_sum(w[:n], x[:n]) == float(np.dot(w[:n], x[:n]))
    parts = [float(np.dot(w[i : i + n], x[i : i + n])) for i in (0, n, 2 * n)]
    assert weighted_sum(w, x) == (parts[0] + parts[1]) + parts[2]
