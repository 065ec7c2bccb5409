"""Kurganov-Tadmor central scheme for the hydrodynamic Kuramoto system.

State vector q = (rho, u) -- deliberately NOT the conservative (rho, rho*u)
pair -- with flux F(q) = (rho*u, u^2/2) and relaxation source
(0, (1/m)(-u + Omega + K*r*sin(phi - theta))).  Minmod-limited linear
reconstruction, local speeds from the reconstructed interface velocities
(the quasilinear system has the double eigenvalue u, widened to include 0),
midpoint-rule source at cell centers, and Heun's second-order Runge-Kutta in
time with the order parameter recomputed at every stage.

Memory.  A Workspace owns the step's scratch arrays, one set of block
buffers.  step_rk2 walks the frequency slices in blocks of BLOCK_CELLS
cells (whole slices, at least one), so every temporary is block-sized and
is reused from step to step.  Once per stage it takes the order parameter
of the whole state (or the whole midpoint) and fills the workspace's force
block, the mean-field force repeated on a block's rows; then it asks rhs
for one block's tendency at a time (rows=) and applies that block's stage
update at once, mid = state + dt*k in stage 1 and Heun's average written
over mid's rows in stage 2, so no full-size tendency is ever held.  This
is exact because a block's tendency reads only its own rows (the slices
are independent but for the order parameter).  A step allocates only its
midpoint (rho, u), whose arrays become the new state.  Periodic ghost
cells come from one padded copy of each block, not from np.roll, and
every operation on a block is on whole arrays of one shape (flat, or a
plain copy out of a padded array), because numpy runs a broadcast or
strided 2-D operand through buffers it allocates per call.  rhs,
reconstruct, kt_flux and minmod write into the caller's workspace and
output buffers; only step_rk2 makes a fresh workspace when given none.
An array returned from a workspace is one of its buffers and is
overwritten by the workspace's next use.

CFL speed.  The local speeds are the reconstructed interface values of u,
and their extrema are the extrema of u itself, bit for bit.  A minmod edge
value u_j +- slope*dtheta/2 lies between u_j and the neighbour on that
side, since the limited half-slope is at most half of either one-sided
difference; and the cell that holds max u (or min u) has one-sided
differences of opposite signs or a zero one, so its slope is +0 and its
edges are u_j exactly.  So cfl_dt reads max u and min u off the state and
reconstructs nothing: a step reconstructs 4 times per block (rho and u at
each stage).  The one exception is a one-sided difference that overflows,
|u_j+1 - u_j| / dtheta > DBL_MAX, where an edge value can become infinite
and the edge extrema would give dt = 0; no run reaches such a state,
because the blow-up monitor's gradient test fires long before.  The speed
is floored at the module constant EPS_SPEED, as is kt_flux's a+ - a-.

Bitwise contract.  Every cell goes through the same floating-point operations
in the same order whatever the block size and whether a workspace is reused,
so neither changes a bit of the result: blocks split only elementwise work,
and the one reduction across cells here, the CFL speed, is a maximum, which
is exact in any order.  Where a kernel takes fewer passes than the plain
formula, the rewrite is an exact IEEE identity, signed zeros included:
minmod as copysign(min(|a|, |b|), a) where a*b > 0, each tendency as
(F+ - F-) / (-dtheta) rather than -(F+ - F-) / dtheta, and the source's
Omega - u in one subtraction rather than (-u) + Omega.  Heun's average
keeps its operand order, state + mid, and only its destination moves to
mid's arrays, so even a NaN keeps its bits there.  The one exception is
the sign bit of a NaN tendency, which the dropped negation no longer
flips; NaN stays NaN, and no output or test of finiteness sees the sign.
Tests compare the kernels with the plain formulas on zeros, infinities,
NaN and underflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .domain import FieldState
# Called through these module globals, which perfbench's tracer wraps.
from .meanfield import mean_field_force, order_parameter

# Cells per block buffer: 2^15 float64 values, 256 KB.
BLOCK_CELLS = 1 << 15

EPS_SPEED = 1e-12  # floor on cfl_dt's speed and on kt_flux's a+ - a-


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
    clip_abort: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.cfl < 1.0:
            raise ValueError("cfl must lie in (0, 1)")
        if not self.max_dt > 0:
            raise ValueError("max_dt must be positive")


class Workspace:
    """Scratch arrays of the finite-volume step, reused across calls.

    Each named buffer is one flat array that grows to the largest shape asked
    for; get() hands out C-contiguous views of it, so any shape works.  Every
    buffer is written before it is read within a call and no value is kept
    between calls, so a used workspace gives the bits of a fresh one.
    """

    def __init__(self):
        self._flat = {}
        self._views = {}

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


def _blocks(n_rows, n_cells):
    """(lo, hi) row ranges of about BLOCK_CELLS cells each, at least one row."""
    step = max(1, BLOCK_CELLS // n_cells)
    for lo in range(0, n_rows, step):
        yield lo, min(lo + step, n_rows)


def minmod(a, b, ws, out, abs_ab):
    """Minmod slope: the smaller-magnitude argument if signs agree, else 0.

    Computed as copysign(min(|a|, |b|), a) where a*b > 0 and +0 elsewhere,
    which is the same bits as where(a*b > 0, where(|a| < |b|, a, b), 0).
    a, b, out and abs_ab = (|a|, |b|) are float arrays of one shape.
    """
    abs_a, abs_b = abs_ab
    shape = out.shape
    tmp = ws.get("minmod_tmp", shape)
    same_sign = ws.get("minmod_same", shape, bool)
    np.multiply(a, b, out=tmp)
    np.greater(tmp, 0.0, out=same_sign)
    np.minimum(abs_a, abs_b, out=tmp)
    np.copysign(tmp, a, out=tmp)
    out.fill(0.0)
    np.copyto(out, tmp, where=same_sign)
    return out


def reconstruct(Q, dtheta, ws, out):
    """Limited linear reconstruction: east/west cell-edge values (qE_j, qW_j).

    Each row of Q, of shape (rows, n), is periodic.  The edge values are
    computed on n + 2 columns, one periodic ghost cell on each side (column 0
    repeats cell n-1, column n+1 repeats cell 0), into out, a pair of
    C-contiguous (rows, n + 2) arrays, which are returned.
    """
    rows, n = Q.shape
    padded = (rows, n + 2)
    pad = ws.get("pad", padded)
    pad[:, 1:-1] = Q
    pad[:, 0] = pad[:, n]
    pad[:, -1] = pad[:, 1]
    # Rows are stored one after the other, so the whole block is one flat
    # run of cells: every operation below is on contiguous memory.  Values
    # at the ghost columns mix neighbouring rows and are replaced at the end.
    flat = pad.reshape(-1)
    diff = ws.get("diff", (flat.size - 1,))  # diff[i] = flat[i+1] - flat[i]
    np.subtract(flat[1:], flat[:-1], out=diff)
    diff /= dtheta
    abs_diff = ws.get("abs_diff", diff.shape)
    np.abs(diff, out=abs_diff)
    half = ws.get("half", padded).reshape(-1)
    half[0] = half[-1] = 0.0
    minmod(diff[:-1], diff[1:], ws, half[1:-1], (abs_diff[:-1], abs_diff[1:]))
    half *= 0.5 * dtheta
    q_e, q_w = out
    np.add(flat, half, out=q_e.reshape(-1))
    np.subtract(flat, half, out=q_w.reshape(-1))
    for q in (q_e, q_w):
        q[:, 0] = q[:, n]
        q[:, -1] = q[:, 1]
    return q_e, q_w


def kt_flux(rho_left, u_left, rho_right, u_right, ws, out):
    """KT numerical flux at interfaces from reconstructed one-sided states.

    a+ = max(uL, uR, 0), a- = min(uL, uR, 0);
    F* = (a+ F(qL) - a- F(qR))/(a+ - a-) + a+ a- (qR - qL)/(a+ - a-),
    falling back to the arithmetic-mean physical flux where a+ - a- < EPS_SPEED.
    out, a pair of arrays of the inputs' shape, receives (F*_rho, F*_u).
    """
    shape = u_left.shape
    a_plus = ws.get("a_plus", shape)
    a_minus = ws.get("a_minus", shape)
    spread = ws.get("spread", shape)
    prod = ws.get("prod", shape)
    tmp = ws.get("flux_tmp", shape)
    f_rho, f_u = out
    np.maximum(u_left, u_right, out=a_plus)
    np.maximum(a_plus, 0.0, out=a_plus)
    np.minimum(u_left, u_right, out=a_minus)
    np.minimum(a_minus, 0.0, out=a_minus)
    np.subtract(a_plus, a_minus, out=spread)
    # fmin skips NaN, which `<` never counts: this is any(spread < EPS_SPEED)
    any_degenerate = bool(np.fmin.reduce(spread, axis=None) < EPS_SPEED)
    if any_degenerate:
        degenerate = ws.get("degenerate", shape, bool)
        np.less(spread, EPS_SPEED, out=degenerate)
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


def rhs(state, force, params, ws, rows):
    """Semi-discrete tendency (drho/dt, du/dt) of slices lo..hi-1, rows=(lo, hi).

    Those rows are all it reads, as one block.  force is the mean-field
    force repeated on at least hi - lo rows, so that each operation below
    is on whole arrays of one shape: numpy runs a broadcast or a strided
    2-D operand through buffers of its own.  The result is the workspace's
    two tendency buffers, of hi - lo rows.
    """
    lo, hi = rows
    dtheta = state.grid.dtheta
    n = state.rho.shape[1]
    padded = (hi - lo, n + 2)
    drho = ws.get("drho", (hi - lo, n))
    du = ws.get("du", (hi - lo, n))
    edges = [ws.get(name, padded) for name in ("rho_e", "rho_w", "u_e", "u_w")]
    reconstruct(state.rho[lo:hi], dtheta, ws, edges[:2])
    reconstruct(state.u[lo:hi], dtheta, ws, edges[2:])
    # Interface j+1/2 sees cell j from the left (east face) and j+1 from
    # the right (west face of the neighbor).  In padded columns, flux c
    # is interface c-1/2, from east value c and west value c+1; the last
    # column's flux would pair two rows and is never read.
    rho_e, rho_w, u_e, u_w = (q.reshape(-1) for q in edges)
    fluxes = [ws.get(name, padded).reshape(-1) for name in ("f_rho", "f_u")]
    kt_flux(rho_e[:-1], u_e[:-1], rho_w[1:], u_w[1:], ws, [f[:-1] for f in fluxes])
    # -(F_{j+1/2} - F_{j-1/2}) / dtheta, as one division by -dtheta; the
    # difference is one flat pass whose columns n, n+1 pair two rows
    diff = ws.get("flux_diff", padded)
    for flux, tendency in zip(fluxes, (drho, du)):
        np.subtract(flux[1:-1], flux[:-2], out=diff.reshape(-1)[:-2])
        np.copyto(tendency, diff[:, :n])
        tendency /= -dtheta
    # du += (Omega - u + force) / m
    source = ws.get("source", (hi - lo, n))
    source[...] = state.omega.nodes[lo:hi, None]
    source -= state.u[lo:hi]
    source += force[: hi - lo]
    source /= params.m
    du += source
    return drho, du


def cfl_dt(state, config):
    """CFL step: min(max_dt, cfl*dtheta / max interface speed).

    The interface speeds max(uE_j, uW_j+1, 0) and -min(uE_j, uW_j+1, 0)
    peak at the extrema of u, which the edge values share (see the module
    docstring), so no reconstruction is needed.
    """
    speed = max(float(state.u.max()), -float(state.u.min()), EPS_SPEED)
    return min(config.max_dt, config.cfl * state.grid.dtheta / speed)


def step_rk2(state, dt, params, config, ws=None):
    """One Heun step; clips negative density and logs the clipped mass.

    NaN/Inf in the result is not an error here -- blow-up is the monitor's
    business -- but losing more than config.clip_abort of mass to clipping in
    a single step aborts with MassClipError.
    """
    assert dt > 0
    ws = Workspace() if ws is None else ws
    grid = state.grid
    blocks = list(_blocks(*state.rho.shape))
    # The stage's mean-field force repeated on the rows of the first, and
    # largest, block: one order parameter per stage, of the whole state
    force = ws.get("force", (blocks[0][1], state.rho.shape[1]))
    trig = (grid.cos, grid.sin)
    force[...] = mean_field_force(order_parameter(state), grid.centers, params, trig)
    # state + dt * k, in the step's only fresh arrays (mid's, then the
    # result's), each block as soon as its tendency is known
    mid_rho, mid_u = np.empty(state.rho.shape), np.empty(state.u.shape)
    for lo, hi in blocks:
        k_rho, k_u = rhs(state, force, params, ws, (lo, hi))
        for new, old, k in ((mid_rho, state.rho, k_rho), (mid_u, state.u, k_u)):
            np.multiply(k, dt, out=new[lo:hi])
            new[lo:hi] += old[lo:hi]
    mid = replace(state, rho=mid_rho, u=mid_u, t=state.t + dt, clipped_mass=0.0)
    force[...] = mean_field_force(order_parameter(mid), grid.centers, params, trig)
    # 0.5 * (state + mid + dt * k), written over the midpoint's rows once
    # their tendency is known: a block's tendency reads its own rows only
    for lo, hi in blocks:
        k_rho, k_u = rhs(mid, force, params, ws, (lo, hi))
        for new, old, k in ((mid_rho, state.rho, k_rho), (mid_u, state.u, k_u)):
            new, old = new[lo:hi], old[lo:hi]
            np.add(old, new, out=new)
            k *= dt
            new += k
            new *= 0.5
    rho_new, u_new = mid_rho, mid_u

    clipped = 0.0
    # fmin skips NaN, which `<` never counts: this is any(rho_new < 0)
    if np.fmin.reduce(rho_new, axis=None) < 0.0:
        negative = rho_new < 0.0
        clipped_per_slice = -state.grid.dtheta * np.sum(
            np.where(negative, rho_new, 0.0), axis=-1
        )
        clipped = float(np.max(clipped_per_slice))
        np.copyto(rho_new, 0.0, where=negative)
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
