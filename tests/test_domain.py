"""Grids, parameter validation, initial-data specs, and state construction."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import truncnorm

from kurahydro import (
    FieldState,
    InitSpec,
    Params,
    RhoGaussian,
    RhoPointCell,
    RhoUniform,
    TableData,
    UConst,
    UCosine,
    USine,
    discretize_frequency,
    evaluate_du0,
    evaluate_u0,
    init_state,
    make_theta_grid,
    resolve_config,
    min_du0,
    rho0_profile,
    wrap_angle,
)


def test_params_validation():
    Params(0.5, 0.0)
    with pytest.raises(ValueError, match="m must be positive"):
        Params(0.0, 1.0)
    with pytest.raises(ValueError, match="m must be positive"):
        Params(-1.0, 1.0)
    with pytest.raises(ValueError, match="K must be nonnegative"):
        Params(1.0, -0.1)


@pytest.mark.parametrize("m, K, name", [(math.inf, 1.0, "m"), (1.0, math.inf, "K")])
def test_params_refuse_a_non_finite_value(m, K, name):
    with pytest.raises(ValueError, match=f"^{name} must be .* and finite, got inf$"):
        Params(m, K)


def test_theta_grid_midpoints():
    grid = make_theta_grid(8)
    assert grid.n == 8
    assert grid.dtheta == pytest.approx(2.0 * np.pi / 8, abs=0.0)
    assert grid.centers[0] == pytest.approx(-np.pi + grid.dtheta / 2)
    assert np.allclose(np.diff(grid.centers), grid.dtheta)
    assert grid.centers[-1] == pytest.approx(np.pi - grid.dtheta / 2)
    with pytest.raises(ValueError):
        make_theta_grid(3)


def test_wrap_angle_range_and_periodicity(rng):
    x = rng.uniform(-50, 50, size=1000)
    w = wrap_angle(x)
    assert np.all(w >= -np.pi) and np.all(w < np.pi)
    assert np.allclose(np.cos(w), np.cos(x), atol=1e-12)
    assert np.allclose(np.sin(w), np.sin(x), atol=1e-12)


def test_dirac_frequency_grid():
    """A dirac g is the single frequency 0: a common frequency Omega0 is
    the same system in a frame rotating at Omega0."""
    om = discretize_frequency("dirac")
    assert om.n == 1
    assert om.nodes.tolist() == [0.0]
    assert om.weights.tolist() == [1.0]


def test_gaussian_frequency_grid_moments():
    om = discretize_frequency("gaussian", 600, 5.0)
    assert om.n == 600
    assert om.weights.sum() == pytest.approx(1.0, abs=1e-14)
    # independent oracle: second moment of the renormalized truncated normal
    expected = truncnorm.moment(2, -5.0, 5.0)
    assert np.sum(om.weights * om.nodes**2) == pytest.approx(expected, abs=1e-5)


def test_init_state_unit_mass_per_slice():
    grid = make_theta_grid(64)
    om = discretize_frequency("gaussian", 16, 5.0)
    state = init_state(InitSpec(RhoGaussian(), USine(-1.0)), grid, om)
    assert state.rho.shape == (16, 64)
    assert np.allclose(state.per_slice_mass(), 1.0, atol=1e-14)
    assert np.all(state.rho >= 0.0)


def test_point_cell_density():
    grid = make_theta_grid(32)
    om = discretize_frequency("dirac")
    state = init_state(InitSpec(RhoPointCell(0.5), UConst()), grid, om)
    assert np.count_nonzero(state.rho) == 1
    j = int(np.argmax(state.rho[0]))
    assert abs(grid.centers[j] - 0.5) <= grid.dtheta / 2
    assert state.per_slice_mass()[0] == pytest.approx(1.0, abs=1e-15)


def test_uniform_density_value():
    grid = make_theta_grid(50)
    om = discretize_frequency("dirac")
    state = init_state(InitSpec(RhoUniform(), UConst()), grid, om)
    assert np.allclose(state.rho, 1.0 / (2.0 * np.pi), atol=1e-15)


def test_expression_rho0_profile():
    theta = make_theta_grid(128).centers
    prof = rho0_profile(UCosine(0.5, 1.0, 1.0), theta)  # 1 + 0.5 cos(theta) >= 0
    assert np.all(prof >= 0)
    with pytest.raises(ValueError, match="nonnegative"):
        rho0_profile(USine(2.0), theta)


def test_evaluate_u0_derivative_consistency(rng):
    theta = np.linspace(-np.pi, np.pi, 2001)
    h = theta[1] - theta[0]
    for _ in range(5):
        amp = rng.uniform(-3, 3)
        freq = float(rng.integers(1, 4))
        off = rng.uniform(-1, 1)
        spec = USine(amp, freq, off) if rng.random() < 0.5 else UCosine(amp, freq, off)
        u = evaluate_u0(spec, theta)
        du = evaluate_du0(spec, theta)
        du_fd = np.gradient(u, h)
        assert np.allclose(du[2:-2], du_fd[2:-2], atol=5e-5 * max(1, abs(amp)) * freq**2)


def test_min_du0_exact_and_scan():
    assert min_du0(USine(-2.0)) == -2.0
    assert min_du0(USine(10.0, 2.0)) == -20.0
    assert min_du0(UCosine(3.0, 1.0)) == -3.0
    assert min_du0(UConst(5.0)) == 0.0
    # a wave of non-integer frequency jumps across theta = +-pi, so it is
    # refused: 0.2*sin(0.5*theta) had a min du0 of 6e-18 by the old dense
    # scan, against -6.37 in the FV's first row
    for wave, freq in ((USine, 0.5), (UCosine, 1.5), (USine, math.inf), (UCosine, math.nan)):
        with pytest.raises(ValueError, match=rf"frequency {freq!r} must be a finite integer"):
            wave(0.2, freq)


def test_field_state_shape_validation():
    grid = make_theta_grid(8)
    om = discretize_frequency("dirac")
    with pytest.raises(ValueError, match="shape"):
        FieldState(grid, om, np.ones((2, 8)), np.zeros((2, 8)))
    state = FieldState(grid, om, np.ones((1, 8)) / (2 * np.pi), np.zeros((1, 8)))
    with pytest.raises(ValueError):
        state.rho[0, 0] = 2.0  # readonly


def test_field_state_freezes_a_view_not_the_callers_array():
    grid = make_theta_grid(8)
    om = discretize_frequency("dirac")
    rho = np.ones((1, 8)) / (2 * np.pi)
    u = np.zeros((1, 8))
    state = FieldState(grid, om, rho, u)
    assert rho.flags.writeable and u.flags.writeable
    assert not state.rho.flags.writeable and not state.u.flags.writeable
    assert np.shares_memory(state.rho, rho)  # a view: no copy is made
    u[0, 0] = 1.0  # the caller may still write its own array
    assert state.u[0, 0] == 1.0


def _table_spec(path):
    """The initial data (a TableData) of a config that names path as its init_table."""
    return resolve_config({"m": 1.0, "K": 0.0, "init_table": str(path)}).init


def test_table_round_trip(tmp_path):
    """A table made by hand with np.savez, as the README shows."""
    grid = make_theta_grid(16)
    om = discretize_frequency("dirac")
    direct = init_state(InitSpec(RhoGaussian(), USine(-1.0)), grid, om)
    path = tmp_path / "init.npz"
    np.savez(path, theta=grid.centers, omega=om.nodes, rho=direct.rho, u=direct.u)
    spec = _table_spec(path)
    state = init_state(spec, grid, om)
    assert np.allclose(state.rho, direct.rho, atol=1e-15)
    assert state.u.tobytes() == direct.u.tobytes()


def test_table_grid_mismatch(tmp_path):
    path = tmp_path / "bad.npz"
    np.savez(path, theta=[0.1, 0.2, 0.3, 0.4], omega=[0.0], rho=np.ones((1, 4)), u=np.zeros((1, 4)))
    spec = _table_spec(path)
    grid = make_theta_grid(4)
    om = discretize_frequency("dirac")
    with pytest.raises(ValueError, match="theta values do not match"):
        init_state(spec, grid, om)


def test_table_header_required(tmp_path):
    """A table is an .npz, which starts with a zip header: a text table,
    such as the CSV of an earlier version, is refused naming the file."""
    path = tmp_path / "nohdr.csv"
    path.write_text("0.1,0,1,0\n")
    with pytest.raises(ValueError, match="nohdr.csv: not an .npz snapshot"):
        _table_spec(path)


@pytest.mark.parametrize("header", ["omega,theta,rho,u", "theta, omega, rho, u"])
def test_table_header_must_be_the_snapshot_header(tmp_path, header):
    """A table's arrays are found by the snapshot's names: a table that
    stores theta, omega, rho and u under permuted or space-padded names is
    rejected, and the error names the file."""
    grid = make_theta_grid(16)
    arrays = (grid.centers, np.zeros(1), np.ones((1, 16)), np.zeros((1, 16)))
    path = tmp_path / "permuted.npz"
    np.savez(path, **dict(zip(header.split(","), arrays)))
    with pytest.raises(ValueError, match="permuted.npz: "):
        _table_spec(path)


@pytest.mark.parametrize(
    "theta,omega,rho,u",
    [
        (np.zeros(4), np.zeros(2), np.ones((2, 3)), np.zeros((2, 3))),  # rho, u too short
        (np.zeros(4), np.zeros(2), np.ones((2, 4)), np.zeros((2, 3))),  # u alone
        (np.zeros(4), np.zeros(4), np.ones(4), np.zeros(4)),  # flat columns
        (np.zeros((1, 4)), np.zeros(1), np.ones((1, 4)), np.zeros((1, 4))),  # 2-D theta
    ],
    ids=["rho-and-u", "u", "flat", "2d-theta"],
)
def test_table_data_needs_gridded_shapes(theta, omega, rho, u):
    with pytest.raises(ValueError, match="t.csv: table needs 1-D theta and omega, and rho and u of shape"):
        TableData(theta, omega, rho, u, path="t.csv")


@pytest.mark.parametrize("name,value", [("rho", np.nan), ("u", np.inf), ("theta", -np.inf)])
def test_table_data_rejects_non_finite_values(name, value):
    cols = dict(theta=np.linspace(-3, 3, 4), omega=np.zeros(1), rho=np.ones((1, 4)), u=np.zeros((1, 4)))
    cols[name][..., 1] = value
    with pytest.raises(ValueError, match=f"t.csv: table {name} has non-finite values"):
        TableData(**cols, path="t.csv")
