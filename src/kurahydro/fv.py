"""Kurganov-Tadmor central scheme for the hydrodynamic Kuramoto system.

State vector q = (rho, u) -- deliberately NOT the conservative (rho, rho*u)
pair -- with flux F(q) = (rho*u, u^2/2) and relaxation source
(0, (1/m)(-u + Omega + K*r*sin(phi - theta))).  Minmod-limited linear
reconstruction, local speeds from the reconstructed interface velocities
(the quasilinear system has the double eigenvalue u, widened to include 0),
midpoint-rule source at cell centers, and Heun's second-order Runge-Kutta in
time with the order parameter recomputed at every stage.

Memory.  A Workspace owns the step's scratch arrays: the two tendency arrays
that rhs returns, the cell-centre cos/sin, and one set of block buffers.
rhs and cfl_dt walk the frequency slices in blocks of BLOCK_CELLS cells
(whole slices, at least one), so every other temporary is block-sized and
is reused from step to step; a step allocates only its midpoint and new
(rho, u).  Periodic ghost cells come from one padded copy of each block, not
from np.roll.  The `ws` argument of rhs, cfl_dt, step_rk2, reconstruct,
kt_flux and minmod is optional: None means a fresh workspace.
An array returned from a workspace is one of its buffers and is overwritten
by the workspace's next use.

Bitwise contract.  Every cell goes through the same floating-point operations
in the same order whatever the block size and whether a workspace is reused,
so neither changes a bit of the result: blocks split only elementwise work,
and the one reduction across cells here, the CFL speed, is a maximum, which
is exact in any order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .domain import FieldState
from .meanfield import mean_field_force, order_parameter

# Cells per block buffer: 2^15 float64 values, 256 KB.
BLOCK_CELLS = 1 << 15


class MassClipError(RuntimeError):
    """Raised when negativity clipping removes more mass than the budget."""

    def __init__(self, t, clipped):
        super().__init__(
            f"clipped {clipped:.3e} density mass in one step at t={t:.6g}"
        )
        self.t = t
        self.clipped = clipped


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme knobs: CFL number, step cap, blow-up and clipping thresholds."""

    cfl: float = 0.4
    max_dt: float = 1e-2
    blowup_rho_factor: float = 1e3
    blowup_grad: float = 1e6
    eps_speed: float = 1e-12
    clip_abort: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.cfl < 1.0:
            raise ValueError("cfl must lie in (0, 1)")
        if not self.max_dt > 0:
            raise ValueError("max_dt must be positive")


class Workspace:
    """Scratch arrays of the finite-volume step, reused across calls.

    Each named buffer is one flat array that grows to the largest shape asked
    for; get() hands out C-contiguous views of it, so any shape works.
    """

    def __init__(self):
        self._flat = {}
        self._views = {}
        self._grid = None
        self._trig = None

    def get(self, name, shape, dtype=float):
        """The buffer `name` as an array of `shape` (contents left over)."""
        view = self._views.get((name, shape))
        if view is None:
            size = math.prod(shape)
            flat = self._flat.get(name)
            if flat is None or flat.size < size:
                flat = self._flat[name] = np.empty(size, dtype)
                self._views = {k: v for k, v in self._views.items() if k[0] != name}
            view = self._views[(name, shape)] = flat[:size].reshape(shape)
        return view

    def trig(self, grid):
        """(cos, sin) of the grid's cell centres, computed once per grid."""
        if grid is not self._grid:
            self._grid = grid
            self._trig = (np.cos(grid.centers), np.sin(grid.centers))
        return self._trig


def _blocks(n_rows, n_cells):
    """(lo, hi) row ranges of about BLOCK_CELLS cells each."""
    step = max(1, BLOCK_CELLS // n_cells)
    for lo in range(0, n_rows, step):
        yield lo, min(lo + step, n_rows)


def minmod(a, b, ws=None, out=None):
    """Minmod slope: the smaller-magnitude argument if signs agree, else 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ws = Workspace() if ws is None else ws
    shape = np.broadcast_shapes(a.shape, b.shape)
    out = np.empty(shape) if out is None else out
    tmp = ws.get("minmod_tmp", shape)
    abs_b = ws.get("minmod_abs_b", shape)
    same_sign = ws.get("minmod_same", shape, bool)
    pick_a = ws.get("minmod_pick", shape, bool)
    np.multiply(a, b, out=tmp)
    np.greater(tmp, 0.0, out=same_sign)
    np.abs(a, out=tmp)
    np.abs(b, out=abs_b)
    np.less(tmp, abs_b, out=pick_a)
    # where(same_sign, where(pick_a, a, b), 0.0)
    out.fill(0.0)
    np.copyto(out, b, where=same_sign)
    np.logical_and(pick_a, same_sign, out=pick_a)
    np.copyto(out, a, where=pick_a)
    return out


def reconstruct(Q, dtheta, ws=None, out=None):
    """Limited linear reconstruction: east/west cell-edge values (qE_j, qW_j).

    Q is periodic along its last axis, of length n.  The edge values are
    computed on n + 2 columns, one periodic ghost cell on each side (column 0
    repeats cell n-1, column n+1 repeats cell 0).  out, if given, receives
    these padded arrays (C-contiguous, shape (rows, n + 2)), which are
    returned as they are; without out the result is the n real columns.
    """
    Q = np.asarray(Q, dtype=float)
    ws = Workspace() if ws is None else ws
    n = Q.shape[-1]
    rows = Q.size // n
    padded = (rows, n + 2)
    pad = ws.get("pad", padded)
    pad[:, 1:-1] = Q.reshape(rows, n)
    pad[:, 0] = pad[:, n]
    pad[:, -1] = pad[:, 1]
    # Rows are stored one after the other, so the whole block is one flat
    # run of cells: every operation below is on contiguous memory.  Values
    # at the ghost columns mix neighbouring rows and are replaced at the end.
    flat = pad.reshape(-1)
    diff = ws.get("diff", (flat.size - 1,))  # diff[i] = flat[i+1] - flat[i]
    np.subtract(flat[1:], flat[:-1], out=diff)
    diff /= dtheta
    half = ws.get("half", padded).reshape(-1)
    half[0] = half[-1] = 0.0
    minmod(diff[:-1], diff[1:], ws, half[1:-1])
    half *= 0.5 * dtheta
    q_e, q_w = (np.empty(padded), np.empty(padded)) if out is None else out
    np.add(flat, half, out=q_e.reshape(-1))
    np.subtract(flat, half, out=q_w.reshape(-1))
    for q in (q_e, q_w):
        q[..., 0] = q[..., n]
        q[..., -1] = q[..., 1]
    if out is not None:
        return q_e, q_w
    return q_e[:, 1:-1].reshape(Q.shape), q_w[:, 1:-1].reshape(Q.shape)


def kt_flux(rho_left, u_left, rho_right, u_right, eps_speed=1e-12, ws=None, out=None):
    """KT numerical flux at interfaces from reconstructed one-sided states.

    a+ = max(uL, uR, 0), a- = min(uL, uR, 0);
    F* = (a+ F(qL) - a- F(qR))/(a+ - a-) + a+ a- (qR - qL)/(a+ - a-),
    falling back to the arithmetic-mean physical flux when a+ - a- degenerates.
    out, if given, receives (F*_rho, F*_u).
    """
    ws = Workspace() if ws is None else ws
    shape = np.shape(u_left)
    a_plus = ws.get("a_plus", shape)
    a_minus = ws.get("a_minus", shape)
    spread = ws.get("spread", shape)
    prod = ws.get("prod", shape)
    tmp = ws.get("flux_tmp", shape)
    degenerate = ws.get("degenerate", shape, bool)
    f_rho, f_u = (np.empty(shape), np.empty(shape)) if out is None else out
    np.maximum(u_left, u_right, out=a_plus)
    np.maximum(a_plus, 0.0, out=a_plus)
    np.minimum(u_left, u_right, out=a_minus)
    np.minimum(a_minus, 0.0, out=a_minus)
    np.subtract(a_plus, a_minus, out=spread)
    np.less(spread, eps_speed, out=degenerate)
    any_degenerate = bool(degenerate.any())
    if any_degenerate:
        np.copyto(spread, 1.0, where=degenerate)  # a safe divisor there
    np.multiply(a_plus, a_minus, out=prod)
    # f_rho = (a+ * rhoL*uL - a- * rhoR*uR + a+*a- * (rhoR - rhoL)) / spread
    np.multiply(rho_left, u_left, out=f_rho)
    f_rho *= a_plus
    np.multiply(rho_right, u_right, out=tmp)
    tmp *= a_minus
    f_rho -= tmp
    np.subtract(rho_right, rho_left, out=tmp)
    tmp *= prod
    f_rho += tmp
    f_rho /= spread
    # f_u = (a+ * 0.5*uL*uL - a- * 0.5*uR*uR + a+*a- * (uR - uL)) / spread
    np.multiply(u_left, 0.5, out=f_u)
    f_u *= u_left
    f_u *= a_plus
    np.multiply(u_right, 0.5, out=tmp)
    tmp *= u_right
    tmp *= a_minus
    f_u -= tmp
    np.subtract(u_right, u_left, out=tmp)
    tmp *= prod
    f_u += tmp
    f_u /= spread
    if any_degenerate:
        # 0.5 * (F(qL) + F(qR)), with prod as the second scratch array
        np.multiply(rho_left, u_left, out=tmp)
        np.multiply(rho_right, u_right, out=prod)
        tmp += prod
        tmp *= 0.5
        np.copyto(f_rho, tmp, where=degenerate)
        np.multiply(u_left, 0.5, out=tmp)
        tmp *= u_left
        np.multiply(u_right, 0.5, out=prod)
        prod *= u_right
        tmp += prod
        tmp *= 0.5
        np.copyto(f_u, tmp, where=degenerate)
    return f_rho, f_u


def rhs(state, op, params, config=None, ws=None):
    """Semi-discrete tendency (drho/dt, du/dt) with the order parameter frozen.

    With a workspace the result is its two tendency buffers.
    """
    eps_speed = config.eps_speed if config is not None else 1e-12
    ws = Workspace() if ws is None else ws
    grid = state.grid
    dtheta = grid.dtheta
    n_omega, n = state.rho.shape
    drho = ws.get("drho", (n_omega, n))
    du = ws.get("du", (n_omega, n))
    force = mean_field_force(op, grid.centers, params, ws.trig(grid))
    for lo, hi in _blocks(n_omega, n):
        padded = (hi - lo, n + 2)
        edges = [ws.get(name, padded) for name in ("rho_e", "rho_w", "u_e", "u_w")]
        reconstruct(state.rho[lo:hi], dtheta, ws, edges[:2])
        reconstruct(state.u[lo:hi], dtheta, ws, edges[2:])
        # Interface j+1/2 sees cell j from the left (east face) and j+1 from
        # the right (west face of the neighbor).  In padded columns, flux c
        # is interface c-1/2, from east value c and west value c+1; the last
        # column's flux would pair two rows and is never read.
        rho_e, rho_w, u_e, u_w = (q.reshape(-1) for q in edges)
        fluxes = [ws.get(name, padded) for name in ("f_rho", "f_u")]
        kt_flux(
            rho_e[:-1], u_e[:-1], rho_w[1:], u_w[1:], eps_speed, ws,
            [f.reshape(-1)[:-1] for f in fluxes],
        )
        for flux, tendency in zip(fluxes, (drho[lo:hi], du[lo:hi])):
            np.subtract(flux[:, 1:-1], flux[:, :-2], out=tendency)
            np.negative(tendency, out=tendency)
            tendency /= dtheta
        # du += (-u + Omega + force) / m
        source = ws.get("source", (hi - lo, n))
        np.negative(state.u[lo:hi], out=source)
        source += state.omega.nodes[lo:hi, None]
        source += force
        source /= params.m
        du[lo:hi] += source
    return drho, du


def cfl_dt(state, config, ws=None):
    """CFL step: min(max_dt, cfl*dtheta / max interface speed).

    Over all interfaces, max(uE_j, uW_j+1, 0) and min(uE_j, uW_j+1, 0) are
    the extrema of the edge values together with 0.
    """
    ws = Workspace() if ws is None else ws
    n_omega, n = state.u.shape
    highs, lows = [0.0], [0.0]
    for lo, hi in _blocks(n_omega, n):
        edges = [ws.get(name, (hi - lo, n + 2)) for name in ("u_e", "u_w")]
        for q in reconstruct(state.u[lo:hi], state.grid.dtheta, ws, edges):
            highs.append(np.max(q))
            lows.append(np.min(q))
    speed = max(float(np.max(highs)), -float(np.min(lows)), config.eps_speed)
    return min(config.max_dt, config.cfl * state.grid.dtheta / speed)


def step_rk2(state, dt, params, config, ws=None):
    """One Heun step; clips negative density and logs the clipped mass.

    NaN/Inf in the result is not an error here -- blow-up is the monitor's
    business -- but losing more than config.clip_abort of mass to clipping in
    a single step aborts with MassClipError.
    """
    assert dt > 0
    ws = Workspace() if ws is None else ws
    trig = ws.trig(state.grid)
    op0 = order_parameter(state, trig)
    k_rho, k_u = rhs(state, op0, params, config, ws)
    # state + dt * k, in fresh arrays that the midpoint state keeps
    mid_rho = np.multiply(k_rho, dt)
    mid_rho += state.rho
    mid_u = np.multiply(k_u, dt)
    mid_u += state.u
    mid = replace(state, rho=mid_rho, u=mid_u, t=state.t + dt, clipped_mass=0.0)
    op1 = order_parameter(mid, trig)
    k_rho, k_u = rhs(mid, op1, params, config, ws)
    # 0.5 * (state + mid + dt * k)
    rho_new = np.add(state.rho, mid_rho)
    k_rho *= dt
    rho_new += k_rho
    rho_new *= 0.5
    u_new = np.add(state.u, mid_u)
    k_u *= dt
    u_new += k_u
    u_new *= 0.5

    with np.errstate(invalid="ignore"):
        negative = rho_new < 0.0
    clipped = 0.0
    if np.any(negative):
        clipped_per_slice = -state.grid.dtheta * np.sum(
            np.where(negative, rho_new, 0.0), axis=-1
        )
        clipped = float(np.max(clipped_per_slice))
        rho_new = np.where(negative, 0.0, rho_new)
        if np.isfinite(clipped) and clipped > config.clip_abort:
            raise MassClipError(state.t + dt, clipped)
    return FieldState(
        state.grid,
        state.omega,
        rho_new,
        u_new,
        t=state.t + dt,
        clipped_mass=clipped,
    )
