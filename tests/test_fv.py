"""Finite-volume scheme: stencil oracle, conservation, TVD, convergence."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from conftest import peak_fields
from hypothesis import given
from hypothesis import strategies as st

from kurahydro import (
    FieldState,
    InitSpec,
    Params,
    RhoGaussian,
    SchemeConfig,
    UConst,
    USine,
    cfl_dt,
    discretize_frequency,
    init_state,
    make_theta_grid,
    mean_field_force,
    normalize_slices,
    order_parameter,
    step_rk2,
    wrap_angle,
)
from kurahydro import fv
from kurahydro.fv import kt_flux, minmod, reconstruct


# The kernels write into the caller's workspace and buffers; these call them
# on fresh ones, over whole arrays.


def _minmod(a, b):
    return minmod(a, b, fv.Workspace(), np.empty(a.shape), (np.abs(a), np.abs(b)))


def _reconstruct(q, dtheta):
    """The edge values of q's n real columns."""
    padded = (q.shape[0], q.shape[1] + 2)
    q_e, q_w = reconstruct(q, dtheta, fv.Workspace(), (np.empty(padded), np.empty(padded)))
    return q_e[:, 1:-1], q_w[:, 1:-1]


def _kt_flux(rho_left, u_left, rho_right, u_right):
    out = (np.empty(u_left.shape), np.empty(u_left.shape))
    return kt_flux(rho_left, u_left, rho_right, u_right, 1e-12, fv.Workspace(), out)


def _force_block(state, op, params):
    """The mean-field force repeated on every row of the state."""
    force = mean_field_force(op, state.grid.centers, params)
    return np.tile(force, (state.rho.shape[0], 1))


def _rhs(state, op, params, config=SchemeConfig(), ws=None):
    """fv.rhs over all rows as one block."""
    ws = fv.Workspace() if ws is None else ws
    force = _force_block(state, op, params)
    return fv.rhs(state, force, params, config, ws, (0, state.rho.shape[0]))


def test_scheme_config_validation():
    SchemeConfig()
    with pytest.raises(ValueError, match="cfl must lie in"):
        SchemeConfig(cfl=1.0)
    with pytest.raises(ValueError, match="cfl must lie in"):
        SchemeConfig(cfl=0.0)
    with pytest.raises(ValueError, match="max_dt"):
        SchemeConfig(max_dt=0.0)
    for eps_speed in (0.0, -1e-12, float("nan")):
        with pytest.raises(ValueError, match="eps_speed must be positive"):
            SchemeConfig(eps_speed=eps_speed)


def test_minmod_properties(rng):
    a = rng.normal(size=500)
    b = rng.normal(size=500)
    mm = _minmod(a, b)
    opposite = a * b <= 0
    assert np.all(mm[opposite] == 0.0)
    same = ~opposite
    assert np.all(np.abs(mm[same]) <= np.minimum(np.abs(a), np.abs(b))[same] + 1e-15)
    assert np.all(mm[same] * a[same] >= 0.0)


def test_reconstruct_constant_and_linear():
    dtheta = 0.1
    const = np.full((1, 12), 3.7)
    e, w = _reconstruct(const, dtheta)
    assert np.allclose(e, 3.7, atol=1e-15) and np.allclose(w, 3.7, atol=1e-15)
    # linear data (non-periodic seam aside): interior slopes are exact
    lin = np.arange(12.0)[None, :] * 0.5
    e, w = _reconstruct(lin, dtheta)
    sigma = (e - w) / dtheta  # recovered slope
    assert np.allclose(sigma[0, 1:-1], 0.5 / dtheta, atol=1e-12)


def test_kt_flux_degenerate_fallback():
    f_rho, f_u = _kt_flux(
        np.array([1.0]), np.array([0.0]), np.array([2.0]), np.array([0.0])
    )
    assert f_rho[0] == 0.0  # mean of rho*u with u = 0
    assert f_u[0] == 0.0


def test_rhs_matches_hand_stencil(rng):
    """Loop-built KT update equals the vectorized rhs on a small random state."""
    grid = make_theta_grid(8)
    om = discretize_frequency("dirac")
    rho = rng.uniform(0.2, 1.0, size=(1, 8))
    rho /= grid.dtheta * rho.sum()
    u = rng.normal(size=(1, 8))
    state = FieldState(grid, om, rho, u)
    params = Params(0.9, 0.4)
    op = order_parameter(state)
    drho, du = _rhs(state, op, params)

    n = grid.n
    h = grid.dtheta
    r1, u1 = rho[0], u[0]

    def mm(a, b):
        if a * b <= 0:
            return 0.0
        return a if abs(a) < abs(b) else b

    sE = np.empty(n)
    sW = np.empty(n)
    uE = np.empty(n)
    uW = np.empty(n)
    for j in range(n):
        sr = mm((r1[j] - r1[j - 1]) / h, (r1[(j + 1) % n] - r1[j]) / h)
        su = mm((u1[j] - u1[j - 1]) / h, (u1[(j + 1) % n] - u1[j]) / h)
        sE[j] = r1[j] + 0.5 * h * sr
        sW[j] = r1[j] - 0.5 * h * sr
        uE[j] = u1[j] + 0.5 * h * su
        uW[j] = u1[j] - 0.5 * h * su
    frho = np.empty(n)
    fu = np.empty(n)
    for j in range(n):  # interface j+1/2
        jl, jr = j, (j + 1) % n
        ul, ur = uE[jl], uW[jr]
        ap, am = max(ul, ur, 0.0), min(ul, ur, 0.0)
        rl, rr = sE[jl], sW[jr]
        if ap - am < 1e-12:
            frho[j] = 0.5 * (rl * ul + rr * ur)
            fu[j] = 0.5 * (0.5 * ul * ul + 0.5 * ur * ur)
        else:
            frho[j] = (ap * rl * ul - am * rr * ur + ap * am * (rr - rl)) / (ap - am)
            fu[j] = (
                ap * 0.5 * ul * ul - am * 0.5 * ur * ur + ap * am * (ur - ul)
            ) / (ap - am)
    drho_hand = np.empty(n)
    du_hand = np.empty(n)
    for j in range(n):
        drho_hand[j] = -(frho[j] - frho[j - 1]) / h
        force = params.K * (op.S * np.cos(grid.centers[j]) - op.C * np.sin(grid.centers[j]))
        du_hand[j] = -(fu[j] - fu[j - 1]) / h + (-u1[j] + 0.0 + force) / params.m
    assert np.allclose(drho[0], drho_hand, atol=1e-13)
    assert np.allclose(du[0], du_hand, atol=1e-13)


def test_step_mass_conservation(random_state_factory):
    state = random_state_factory(n_theta=96, n_omega=4, kind="gaussian", u_scale=0.5)
    params = Params(1.0, 1.0)
    config = SchemeConfig()
    mass0 = state.per_slice_mass()
    for _ in range(20):
        state = step_rk2(state, cfl_dt(state, config), params, config)
    assert np.max(np.abs(state.per_slice_mass() - mass0)) < 1e-14


def test_advection_tvd(rng):
    """Constant-velocity transport: total variation of rho never increases."""
    grid = make_theta_grid(64)
    om = discretize_frequency("dirac")
    params = Params(1e12, 0.0)  # effectively frozen velocity
    config = SchemeConfig()
    for _ in range(10):
        rho = rng.uniform(0.05, 1.0, size=(1, 64))
        rho /= grid.dtheta * rho.sum()
        u = np.full((1, 64), rng.uniform(-1.0, 1.0))
        state = FieldState(grid, om, rho, u)
        tv0 = np.abs(np.diff(np.append(state.rho[0], state.rho[0, 0]))).sum()
        state = step_rk2(state, cfl_dt(state, config), params, config)
        tv1 = np.abs(np.diff(np.append(state.rho[0], state.rho[0, 0]))).sum()
        assert tv1 <= tv0 + 1e-12


def test_equilibrium_fixed_point():
    """Uniform rho + u = Omega is a machine-precision steady state."""
    grid = make_theta_grid(40)
    om = discretize_frequency("gaussian", 8, 5.0)
    rho = np.full((om.n, grid.n), 1.0 / (2 * np.pi))
    u = np.tile(om.nodes[:, None], (1, grid.n))
    state = FieldState(grid, om, rho, u)
    params = Params(0.5, 2.0)
    op = order_parameter(state)
    drho, du = _rhs(state, op, params)
    assert np.max(np.abs(drho)) < 1e-13
    assert np.max(np.abs(du)) < 1e-13
    after = step_rk2(state, 1e-2, params, SchemeConfig())
    assert np.max(np.abs(after.rho - state.rho)) < 1e-13
    assert np.max(np.abs(after.u - state.u)) < 1e-13


def test_cfl_dt_formula(random_state_factory):
    state = random_state_factory(n_theta=64, u_scale=2.0)
    config = SchemeConfig(cfl=0.3, max_dt=5.0)
    dt = cfl_dt(state, config)
    assert dt <= 0.3 * state.grid.dtheta / np.max(np.abs(state.u)) * (1 + 1e-6)
    calm = random_state_factory(n_theta=64, u_scale=1e-9)
    assert cfl_dt(calm, SchemeConfig(max_dt=1e-2)) == 1e-2


def test_smooth_advection_convergence():
    """Translation of a smooth bump converges at better than order 1.5."""

    def err(n):
        grid = make_theta_grid(n)
        om = discretize_frequency("dirac")
        spec = InitSpec(RhoGaussian(0.0, 0.6), UConst(0.3))
        state = init_state(spec, grid, om)
        params = Params(1e12, 0.0)
        config = SchemeConfig()
        t_end = 0.5
        while state.t < t_end - 1e-12:
            state = step_rk2(
                state, min(cfl_dt(state, config), t_end - state.t), params, config
            )
        prof = np.exp(-0.5 * (wrap_angle(grid.centers - 0.3 * state.t) / 0.6) ** 2)
        prof /= grid.dtheta * prof.sum()
        return grid.dtheta * np.abs(state.rho[0] - prof).sum()

    e1, e2 = err(100), err(200)
    assert e1 / e2 >= 2.0 ** 1.5


def test_clip_bookkeeping_smooth_run(random_state_factory):
    state = random_state_factory(n_theta=64, u_scale=0.3)
    config = SchemeConfig()
    out = step_rk2(state, cfl_dt(state, config), Params(1.0, 0.5), config)
    assert out.clipped_mass == 0.0
    assert np.all(out.rho >= 0.0)


# ---------------------------------------------------------------------------
# Symmetries and conservation of one step, over random states.


@st.composite
def _random_step_case(draw):
    """(state, params, scheme): rho drawn in [0.1, 2], then slice-normalized."""
    n_theta = draw(st.integers(8, 48))
    n_omega = draw(st.sampled_from([1, 2, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = make_theta_grid(n_theta)
    if n_omega == 1:
        omega = discretize_frequency("dirac")
    else:
        omega = discretize_frequency("gaussian", n_omega, 5.0)
    rho = rng.uniform(0.1, 2.0, size=(omega.n, n_theta))
    rho = normalize_slices(rho, grid.dtheta)
    u = draw(st.floats(0.0, 2.0)) * rng.normal(size=(omega.n, n_theta))
    params = Params(draw(st.floats(0.2, 2.0)), draw(st.floats(0.0, 3.0)))
    return FieldState(grid, omega, rho, u), params, SchemeConfig()


def _assert_fields_close(a, b):
    assert np.allclose(a.rho, b.rho, rtol=0.0, atol=1e-13)
    assert np.allclose(a.u, b.u, rtol=0.0, atol=1e-13)


@given(_random_step_case(), st.integers(1, 47))
def test_whole_cell_rotation_commutes_with_step(case, shift):
    state, params, scheme = case
    dt = cfl_dt(state, scheme)

    def rotate(s):
        return replace(s, rho=np.roll(s.rho, shift, 1), u=np.roll(s.u, shift, 1))

    _assert_fields_close(
        step_rk2(rotate(state), dt, params, scheme),
        rotate(step_rk2(state, dt, params, scheme)),
    )


@given(_random_step_case())
def test_reflection_commutes_with_step(case):
    """theta -> -theta, u -> -u, Omega -> -Omega: cell j <-> n-1-j, node k <-> n-1-k."""
    state, params, scheme = case
    dt = cfl_dt(state, scheme)

    def reflect(s):
        return replace(s, rho=s.rho[::-1, ::-1], u=-s.u[::-1, ::-1])

    _assert_fields_close(
        step_rk2(reflect(state), dt, params, scheme),
        reflect(step_rk2(state, dt, params, scheme)),
    )


@given(_random_step_case())
def test_cfl_step_conserves_slice_mass_and_positivity(case):
    state, params, scheme = case
    new = step_rk2(state, cfl_dt(state, scheme), params, scheme)
    assert np.all(new.rho >= 0.0)
    assert new.clipped_mass == 0.0
    assert np.max(np.abs(new.per_slice_mass() - state.per_slice_mass())) < 1e-14


# ---------------------------------------------------------------------------
# Workspace and slice blocks: the same bits, bounded memory.


def _gaussian_state(n_omega, n_theta):
    grid = make_theta_grid(n_theta)
    omega = discretize_frequency("gaussian", n_omega, 5.0)
    return init_state(InitSpec(RhoGaussian(0.3, 0.8), USine(-0.7)), grid, omega)


def _assert_same_bits(a, b):
    assert a.t == b.t and a.clipped_mass == b.clipped_mass
    assert a.rho.tobytes() == b.rho.tobytes()
    assert a.u.tobytes() == b.u.tobytes()


def test_slice_blocks_do_not_change_a_bit(monkeypatch):
    """rhs, cfl_dt and step_rk2 over 4 blocks (2, 2, 2, 1 slices) equal one block."""
    state = _gaussian_state(7, 64)
    params, scheme = Params(1.0, 3.6), SchemeConfig()
    op = order_parameter(state)

    def evaluate():
        tendencies = [a.copy() for a in _rhs(state, op, params, scheme)]
        dt = cfl_dt(state, scheme)
        return tendencies, dt, step_rk2(state, dt, params, scheme)

    one_block = evaluate()
    monkeypatch.setattr(fv, "BLOCK_CELLS", 2 * 64)
    assert [hi - lo for lo, hi in fv._blocks(7, 64)] == [2, 2, 2, 1]
    blocked = evaluate()
    for a, b in zip(one_block[0], blocked[0]):
        assert a.tobytes() == b.tobytes()
    assert one_block[1] == blocked[1]
    _assert_same_bits(one_block[2], blocked[2])


def test_reused_workspace_matches_fresh_ones(monkeypatch):
    """One workspace over 20 steps, then on a second shape, as fresh ones."""
    monkeypatch.setattr(fv, "BLOCK_CELLS", 3 * 64)  # ragged blocks on both shapes
    params, scheme = Params(0.8, 2.0), SchemeConfig()
    ws = fv.Workspace()
    for shape in ((7, 64), (3, 40)):
        reused = fresh = _gaussian_state(*shape)
        for _ in range(20):
            reused = step_rk2(reused, cfl_dt(reused, scheme), params, scheme, ws)
            fresh = step_rk2(fresh, cfl_dt(fresh, scheme), params, scheme)
            _assert_same_bits(reused, fresh)


def test_advance_step_allocates_few_field_sized_arrays():
    """After warm-up, one stepping-loop step at 120x100 peaks at <= 8 fields.

    A step must keep its midpoint and new (rho, u), 4 field-sized arrays;
    the monitor's centred difference adds one more while the new state is
    alive.  8 leaves room for small arrays and numpy's own buffers while
    still failing a step that builds full-size temporaries (the np.roll
    step before the workspace peaked at 23 fields).
    """
    from kurahydro.diagnostics import BlowupMonitor
    from kurahydro.experiments import _advance

    state = _gaussian_state(120, 100)
    field_bytes = state.rho.nbytes
    steps = _advance(state, Params(1.0, 3.6), SchemeConfig(), BlowupMonitor(), 10.0, fv.Workspace())
    for _ in range(3):
        next(steps)
    peak = peak_fields(lambda: next(steps), field_bytes)
    assert peak <= 8, peak


def test_advance_step_allocates_at_most_three_field_sized_arrays():
    """One stepping-loop step at 120x100 peaks at <= 3 fields after warm-up.

    Heun's average is written over the midpoint, so a step keeps only the
    midpoint's 2 arrays, which become the new state.  The third field
    covers the monitor's chunk of centred differences (0.68 of a field
    here) and small arrays; numpy's own 128 KB buffers for a broadcast or
    strided 2-D operand would not fit.  The parent's step peaked at 4.36.
    """
    from kurahydro.diagnostics import BlowupMonitor
    from kurahydro.experiments import _advance

    state = _gaussian_state(120, 100)
    field_bytes = state.rho.nbytes
    steps = _advance(state, Params(1.0, 3.6), SchemeConfig(), BlowupMonitor(), 10.0, fv.Workspace())
    for _ in range(3):
        next(steps)
    peak = peak_fields(lambda: next(steps), field_bytes)
    assert peak <= 3, peak


def test_advance_workspace_holds_no_field_sized_buffer(monkeypatch):
    """Each block's stage update is applied as soon as its tendency is known,
    so after steps on a 3-block grid every workspace buffer is block-sized.
    The parent's workspace kept full-size tendency buffers (drho, du)."""
    from kurahydro import experiments
    from kurahydro.diagnostics import BlowupMonitor

    monkeypatch.setattr(fv, "BLOCK_CELLS", 40 * 100)
    assert [hi - lo for lo, hi in fv._blocks(120, 100)] == [40] * 3
    state = _gaussian_state(120, 100)
    ws = fv.Workspace()
    steps = experiments._advance(state, Params(1.0, 3.6), SchemeConfig(), BlowupMonitor(), 10.0, ws)
    for _ in range(3):
        next(steps)
    assert "drho" in ws._flat and "du" in ws._flat
    largest = max(flat.nbytes for flat in ws._flat.values())
    assert largest < state.rho.nbytes, (largest, state.rho.nbytes)


def test_rhs_over_rows_is_those_rows_of_the_full_tendency(monkeypatch):
    """rhs(rows=(lo, hi)) reads rows lo..hi-1 only: a state that differs
    elsewhere gives the same bits."""
    monkeypatch.setattr(fv, "BLOCK_CELLS", 2 * 64)  # rows split into blocks too
    state = _gaussian_state(7, 64)
    params, op = Params(0.8, 2.0), order_parameter(state)
    full = [a.copy() for a in _rhs(state, op, params)]
    other = replace(state, rho=np.full_like(state.rho, np.nan), u=-state.u)
    for lo, hi in ((0, 7), (0, 2), (2, 5), (6, 7)):
        rows = slice(lo, hi)
        mixed = replace(
            other,
            rho=np.concatenate((other.rho[:lo], state.rho[rows], other.rho[hi:])),
            u=np.concatenate((other.u[:lo], state.u[rows], other.u[hi:])),
        )
        force = _force_block(mixed, op, params)
        got = fv.rhs(mixed, force, params, SchemeConfig(), fv.Workspace(), (lo, hi))
        for part, whole in zip(got, full):
            assert part.shape == (hi - lo, 64)
            assert part.tobytes() == whole[rows].tobytes()


# ---------------------------------------------------------------------------
# Fewer passes, the same bits: the kernels against the plain numpy formulas
# they replace, written out here, on the edge cases of IEEE arithmetic.


def _plain_minmod(a, b):
    same_sign = a * b > 0.0
    pick_a = np.abs(a) < np.abs(b)
    return np.where(same_sign, np.where(pick_a, a, b), 0.0)


def _plain_kt_flux(rho_left, u_left, rho_right, u_right, eps_speed=1e-12):
    a_plus = np.maximum(np.maximum(u_left, u_right), 0.0)
    a_minus = np.minimum(np.minimum(u_left, u_right), 0.0)
    spread = a_plus - a_minus
    frho_l, fu_l = rho_left * u_left, 0.5 * u_left * u_left
    frho_r, fu_r = rho_right * u_right, 0.5 * u_right * u_right
    safe = np.where(spread < eps_speed, 1.0, spread)
    prod = a_plus * a_minus
    f_rho = (a_plus * frho_l - a_minus * frho_r + prod * (rho_right - rho_left)) / safe
    f_u = (a_plus * fu_l - a_minus * fu_r + prod * (u_right - u_left)) / safe
    degenerate = spread < eps_speed
    if np.any(degenerate):
        f_rho = np.where(degenerate, 0.5 * (frho_l + frho_r), f_rho)
        f_u = np.where(degenerate, 0.5 * (fu_l + fu_r), f_u)
    return f_rho, f_u


_EDGE_VALUES = np.array([
    0.0, -0.0, 1.5, -1.5, 2.0, -2.0, np.inf, -np.inf, np.nan,
    1e-200, -1e-200, 3e-170, -3e-170, 5e-324, -5e-324, 1e300, -1e300,
])


def test_minmod_matches_the_plain_formula_bitwise():
    """±0, equal magnitudes, ±inf, NaN and underflowing products, sign of zero included."""
    a, b = (x.ravel() for x in np.meshgrid(_EDGE_VALUES, _EDGE_VALUES))
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        assert np.any((a != 0) & (b != 0) & (a * b == 0))  # some products underflow
        expected = _plain_minmod(a, b)
        plain = _minmod(a, b)
        given_abs = minmod(a, b, fv.Workspace(), np.empty(a.size), (np.abs(a), np.abs(b)))
    assert expected.tobytes() == plain.tobytes() == given_abs.tobytes()
    assert not np.any(np.signbit(plain[plain == 0.0]))  # a zero slope is +0


def test_kt_flux_matches_the_plain_formula_with_degenerate_interfaces(rng):
    n = 300
    u_left, u_right = rng.normal(size=n), rng.normal(size=n)
    u_left[::7] = u_right[::7] = 0.0  # spread 0
    u_left[3::11], u_right[3::11] = 1e-13, -1e-14  # spread below eps
    u_left[5::13], u_right[5::13] = -0.0, 0.0
    u_left[17] = np.nan  # a NaN spread is not degenerate
    rho_left, rho_right = rng.uniform(size=n), rng.uniform(size=n)
    with np.errstate(invalid="ignore"):
        expected = _plain_kt_flux(rho_left, u_left, rho_right, u_right)
        got = _kt_flux(rho_left, u_left, rho_right, u_right)
    assert np.any(np.abs(u_left - u_right) < 1e-12)
    for e, g in zip(expected, got):
        assert e.tobytes() == g.tobytes()


def _plain_rhs(state, op, params, eps_speed=1e-12):
    def reconstruct_(q, dtheta):
        slope = _plain_minmod(
            (q - np.roll(q, 1, axis=-1)) / dtheta, (np.roll(q, -1, axis=-1) - q) / dtheta
        )
        half = 0.5 * dtheta * slope
        return q + half, q - half

    dtheta = state.grid.dtheta
    rho_e, rho_w = reconstruct_(state.rho, dtheta)
    u_e, u_w = reconstruct_(state.u, dtheta)
    f_rho, f_u = _plain_kt_flux(
        rho_e, u_e, np.roll(rho_w, -1, axis=-1), np.roll(u_w, -1, axis=-1), eps_speed
    )
    drho = -(f_rho - np.roll(f_rho, 1, axis=-1)) / dtheta
    du = -(f_u - np.roll(f_u, 1, axis=-1)) / dtheta
    force = params.K * (op.S * np.cos(state.grid.centers) - op.C * np.sin(state.grid.centers))
    du += (-state.u + state.omega.nodes[:, None] + force[None, :]) / params.m
    return drho, du


def test_rhs_matches_the_plain_formula_bitwise_with_signed_zeros(rng):
    """Empty cells, u = +-0 and a resting slice: the tendency and source rewrites keep every bit."""
    grid = make_theta_grid(40)
    omega = discretize_frequency("gaussian", 4, 5.0)
    rho = rng.uniform(0.1, 2.0, size=(4, 40))
    rho[:, ::5] = 0.0
    u = rng.normal(size=(4, 40))
    u[:, ::3] = 0.0
    u[:, 1::7] = -0.0
    u[2] = 0.0
    state = FieldState(grid, omega, rho, u)
    for params in (Params(1.0, 0.0), Params(0.7, 2.5)):
        op = order_parameter(state)
        for got, expected in zip(_rhs(state, op, params), _plain_rhs(state, op, params)):
            assert got.tobytes() == expected.tobytes()


def test_clip_with_nan_and_negative_density_matches_the_plain_formula():
    """A NaN velocity poisons one slice; a spike stepped past CFL goes negative."""
    grid = make_theta_grid(32)
    omega = discretize_frequency("gaussian", 3, 5.0)
    rho = np.full((3, 32), 1.0 / (2.0 * np.pi))
    rho[1] = 0.0
    rho[1, 10] = 1.0 / grid.dtheta
    u = np.zeros((3, 32))
    u[1] = 1.0
    u[1, 10:13] = [3.0, -2.0, 1.0]
    u[0, 5] = np.nan
    state = FieldState(grid, omega, rho, u)
    params, scheme = Params(1.0, 1.0), SchemeConfig(clip_abort=1e9)
    dt = 2.0 * grid.dtheta
    with np.errstate(invalid="ignore"):
        new = step_rk2(state, dt, params, scheme)
        # The plain Heun step and clip, on the package's rhs.
        k0_rho, k0_u = _rhs(state, order_parameter(state), params, scheme)
        mid = replace(state, rho=state.rho + dt * k0_rho, u=state.u + dt * k0_u)
        k1_rho, k1_u = _rhs(mid, order_parameter(mid), params, scheme)
        rho_new = 0.5 * (state.rho + mid.rho + dt * k1_rho)
        u_new = 0.5 * (state.u + mid.u + dt * k1_u)
        negative = rho_new < 0.0
        clipped = float(np.max(-grid.dtheta * np.sum(np.where(negative, rho_new, 0.0), axis=-1)))
        rho_new = np.where(negative, 0.0, rho_new)
    assert np.any(np.isnan(rho_new)) and np.any(negative)
    assert new.clipped_mass == clipped > 0.0
    assert new.rho.tobytes() == rho_new.tobytes()
    assert new.u.tobytes() == u_new.tobytes()


# ---------------------------------------------------------------------------
# cfl_dt reads the extrema of u; rhs reconstructs u itself.


def _edge_cfl_dt(state, config):
    """cfl_dt by its definition through the interfaces: the CFL speed is the
    larger of max and -min over the reconstructed edge values of u together
    with 0 (NaN-propagating, as np.max and np.min are)."""
    u_e, u_w = _reconstruct(state.u, state.grid.dtheta)
    high = np.max([0.0, np.max(u_e), np.max(u_w)])
    low = np.min([0.0, np.min(u_e), np.min(u_w)])
    speed = max(float(high), -float(low), config.eps_speed)
    return min(config.max_dt, config.cfl * state.grid.dtheta / speed)


def _slope_overflows(u, dtheta):
    """Some one-sided difference of finite neighbours exceeds dtheta*DBL_MAX."""
    padded = np.concatenate([u[:, -1:], u, u[:, :1]], axis=1)
    slope = np.diff(padded, axis=1) / dtheta
    finite = np.isfinite(padded[:, 1:]) & np.isfinite(padded[:, :-1])
    return bool(np.any(np.isinf(slope) & finite))


def _bits(x):
    return np.float64(x).tobytes()


def test_cfl_dt_is_the_edge_definition_bitwise(rng):
    """cfl_dt from the extrema of u equals the extrema of the minmod edges,
    bit for bit, on random states, plateaus and the IEEE edge values (±0,
    subnormals, ±1e300, ±inf, NaN).  Excluded: states where a one-sided
    difference of two finite neighbours overflows, |u_j+1 - u_j| > dtheta *
    DBL_MAX; there an edge value can be infinite, the edge definition gives
    dt = 0 and cfl_dt a positive dt (checked at the end)."""
    configs = [SchemeConfig(), SchemeConfig(cfl=0.3, max_dt=5.0, eps_speed=1e-300)]
    checked = excluded = 0
    with np.errstate(all="ignore"):
        for k in range(3000):
            n_omega, n_theta = int(rng.integers(1, 4)), int(rng.integers(4, 24))
            shape = (n_omega, n_theta)
            kind = k % 3
            if kind == 0:  # smooth-ish random values over many scales
                u = rng.normal(size=shape) * 10.0 ** rng.uniform(-310, 300)
            elif kind == 1:  # plateaus: a few levels, repeated in runs
                levels = rng.normal(size=3) * 10.0 ** rng.integers(-5, 5, size=3)
                u = np.repeat(rng.choice(levels, size=(n_omega, n_theta // 2 + 1)), 2, axis=1)
                u = u[:, :n_theta]
            else:  # IEEE edge values mixed with ordinary ones
                pool = np.concatenate([_EDGE_VALUES, rng.normal(size=6)])
                u = rng.choice(pool, size=shape)
            grid = make_theta_grid(n_theta)
            omega = (
                discretize_frequency("gaussian", n_omega, 5.0)
                if n_omega > 1 else discretize_frequency("dirac")
            )
            state = FieldState(grid, omega, np.ones(shape), u)
            if _slope_overflows(state.u, grid.dtheta):
                excluded += 1
                continue
            checked += 1
            for config in configs:
                assert _bits(cfl_dt(state, config)) == _bits(_edge_cfl_dt(state, config))
    assert checked > 2500 and excluded < checked
    # The excluded case: a slope of +inf between -M, 0 and M.
    grid = make_theta_grid(16)
    u = np.zeros((1, 16))
    u[0, :3] = (-1.7e308, 0.0, 1.7e308)
    state = FieldState(grid, discretize_frequency("dirac"), np.ones((1, 16)), u)
    with np.errstate(all="ignore"):
        assert _slope_overflows(state.u, grid.dtheta)
        assert _edge_cfl_dt(state, SchemeConfig()) == 0.0
    assert cfl_dt(state, SchemeConfig()) > 0.0


def _rhs_bits(state, ws=None):
    params = Params(0.8, 2.0)
    return [a.tobytes() for a in _rhs(state, order_parameter(state), params, SchemeConfig(), ws)]


@pytest.mark.parametrize("block_slices", [None, 3])
def test_used_workspace_gives_rhs_the_bits_of_a_fresh_one(monkeypatch, block_slices):
    """A workspace that rhs(a) has used gives rhs(b), and rhs(a) again, the
    bits of a fresh workspace."""
    if block_slices is not None:
        monkeypatch.setattr(fv, "BLOCK_CELLS", block_slices * 64)  # 3, 3, 1 slices
    a = _gaussian_state(7, 64)
    b = replace(a, u=a.u[:, ::-1])
    for first, second in ((a, b), (a, a)):
        ws = fv.Workspace()
        _rhs_bits(first, ws)
        assert _rhs_bits(second, ws) == _rhs_bits(second)


def test_used_workspace_gives_a_new_state_the_bits_of_a_fresh_one():
    """A state built after a used workspace's state has died (its arrays may
    land at the same address) gets the bits of a fresh workspace."""
    ws = fv.Workspace()
    _rhs_bits(_gaussian_state(7, 64), ws)
    state = _gaussian_state(7, 64)  # may reuse the dead array's address
    state = replace(state, u=0.5 * state.u)
    assert _rhs_bits(state, ws) == _rhs_bits(state)


@pytest.mark.parametrize("blocks", [1, 3])
def test_advance_step_reconstructs_four_times_per_block(monkeypatch, blocks):
    """rho and u at each of the two stages, on every block; cfl_dt reconstructs nothing."""
    from kurahydro.diagnostics import BlowupMonitor
    from kurahydro.experiments import _advance

    monkeypatch.setattr(fv, "BLOCK_CELLS", 120 // blocks * 100)
    assert [hi - lo for lo, hi in fv._blocks(120, 100)] == [120 // blocks] * blocks
    calls = []
    real = fv.reconstruct

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fv, "reconstruct", counting)
    steps = _advance(
        _gaussian_state(120, 100), Params(1.0, 3.6), SchemeConfig(), BlowupMonitor(), 10.0, fv.Workspace()
    )
    next(steps)
    calls.clear()
    next(steps)
    assert len(calls) == 4 * blocks


@pytest.mark.parametrize("blocks", [1, 3])
def test_advance_step_takes_the_mean_field_once_per_stage(monkeypatch, blocks):
    """One order parameter and one force row per stage, on any block count:
    the slices are coupled only through them."""
    from kurahydro.diagnostics import BlowupMonitor
    from kurahydro.experiments import _advance

    monkeypatch.setattr(fv, "BLOCK_CELLS", 120 // blocks * 100)
    assert [hi - lo for lo, hi in fv._blocks(120, 100)] == [120 // blocks] * blocks
    calls = {"order_parameter": 0, "mean_field_force": 0}

    def counting(name):
        real = getattr(fv, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(fv, name, counting(name))
    steps = _advance(
        _gaussian_state(120, 100), Params(1.0, 3.6), SchemeConfig(), BlowupMonitor(), 10.0, fv.Workspace()
    )
    next(steps)
    calls.update(dict.fromkeys(calls, 0))
    next(steps)
    assert calls == {"order_parameter": 2, "mean_field_force": 2}


@pytest.mark.parametrize("block_slices", [None, 3])
def test_state_on_overwritten_midpoint_gets_fresh_edges(monkeypatch, block_slices):
    """step_rk2 writes its result over the midpoint's arrays; the midpoint
    state, kept alive here, then holds the result's values, and rhs on it
    with the step's workspace gives the bits of a fresh workspace."""
    if block_slices is not None:
        monkeypatch.setattr(fv, "BLOCK_CELLS", block_slices * 64)  # 3, 3, 1 slices
    seen = []
    real = fv.rhs

    def recording(state, *args, **kwargs):
        seen.append(state)
        return real(state, *args, **kwargs)

    monkeypatch.setattr(fv, "rhs", recording)
    state = _gaussian_state(7, 64)
    ws = fv.Workspace()
    new = step_rk2(state, cfl_dt(state, SchemeConfig()), Params(0.8, 2.0), SchemeConfig(), ws)
    mid = seen[-1]
    assert mid is not state and np.shares_memory(mid.u, new.u)
    assert mid.u.tobytes() == new.u.tobytes()  # overwritten under the midpoint
    assert _rhs_bits(mid, ws) == _rhs_bits(mid)
