"""Kurganov-Tadmor central scheme for the hydrodynamic Kuramoto system.

State vector q = (rho, u) -- deliberately NOT the conservative (rho, rho*u)
pair -- with flux F(q) = (rho*u, u^2/2) and relaxation source
(0, (1/m)(-u + Omega + K*r*sin(phi - theta))).  Minmod-limited linear
reconstruction, local speeds from the reconstructed interface velocities
(the quasilinear system has the double eigenvalue u, widened to include 0),
midpoint-rule source at cell centers, and Heun's second-order Runge-Kutta in
time with the order parameter recomputed at every stage.

Memory.  A Workspace owns the step's scratch arrays, one set of block
buffers.  step_rk2 walks the frequency slices in blocks of whole slices,
at least one, of at most BLOCK_CELLS stacked cells: rhs stacks a block's
rho rows and then its u rows in one padded block, so a block of `rows`
slices is 2 * rows * n_theta cells.  Every temporary is block-sized and is
reused from step to step: each kernel looks its buffers up once per block
shape, reconstruct and kt_flux share their scratch, and rhs forms the flux
difference and the source term in buffers whose values it has used.  Once
per stage it takes the order parameter of the whole state (or the whole
midpoint) and fills the workspace's force block, the mean-field force
repeated on a block's rows; then it asks rhs for one block's tendency at a
time (rows=) and applies that block's stage update at once, mid = state +
dt*k in stage 1 and Heun's average written over mid's rows in stage 2, so
no full-size tendency is ever held.  This
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
reconstructs nothing: a step reconstructs 2 times per block (rho and u
stacked, at each stage).  The one exception is a one-sided difference that
overflows, |u_j+1 - u_j| / dtheta > DBL_MAX, where an edge value can
become infinite and the edge extrema would give dt = 0; no run reaches such
a state, because the blow-up monitor's gradient test fires long before.
The speed is floored at the module constant EPS_SPEED, as is kt_flux's
a+ - a-.

Clipping.  step_rk2 sets negative densities to 0 and records the largest
per-slice mass it removed; a step that removes more than the module
constant CLIP_ABORT aborts the run with MassClipError.

Bitwise contract.  Every cell goes through the same floating-point operations
in the same order whatever the block size and whether a workspace is reused,
so neither changes a bit of the result: blocks split only elementwise work;
stacking rho over u puts two runs of it in one pass, along the flat run of
cells, where the values that mix two rows land in ghost or discarded
columns; and the one reduction across cells here, the CFL speed, is a
maximum, which is exact in any order.  Where a kernel takes fewer passes
than the plain formula, the rewrite is an exact IEEE identity, signed
zeros included: minmod as copysign(min(|a|, |b|), a) where a*b > 0, each
tendency as (F+ - F-) / (-dtheta) rather than -(F+ - F-) / dtheta, and
the source's Omega - u in one subtraction rather than (-u) + Omega.
Heun's average keeps its operand order, state + mid, and only its
destination moves to mid's arrays, so even a NaN keeps its bits there.
The one exception is the sign bit of a NaN tendency, which the dropped
negation no longer flips; NaN stays NaN, and no output or test of
finiteness sees the sign.  Tests compare the kernels with the plain
formulas on zeros, infinities, NaN and underflow.
"""
from __future__ import annotations

import math

import numpy as np

from .domain import FieldState
# Called through these module globals, which perfbench's tracer wraps.
from .meanfield import mean_field_force, order_parameter

# Stacked (rho, u) cells per block buffer: 2^15 float64 values, 256 KB.
BLOCK_CELLS = 1 << 15

EPS_SPEED = 1e-12  # floor on cfl_dt's speed and on kt_flux's a+ - a-
CLIP_ABORT = 1e-8  # most density mass one step may clip in any slice

# Workspace names of the kernels' own scratch.  reconstruct takes the first
# four and minmod, inside it, the fifth; kt_flux, called after reconstruct
# has returned, takes all five.  A kernel's scratch is dead once it returns,
# so the two share these buffers.
_SCRATCH = ("scratch_0", "scratch_1", "scratch_2", "scratch_3", "scratch_4")


class MassClipError(RuntimeError):
    """Raised when negativity clipping removes more mass than the budget."""

    def __init__(self, t, clipped):
        super().__init__(
            f"clipped {clipped:.3e} density mass in one step at t={t:.6g}"
        )
        self.t = t
        self.clipped = clipped


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
        self._groups = {}

    def get(self, name, shape, dtype=float):
        """The buffer `name` as an array of `shape` (contents left over)."""
        view = self._views.get((name, shape))
        if view is None:
            size = math.prod(shape)
            flat = self._flat.get(name)
            if flat is None or flat.size < size:
                flat = self._flat[name] = np.empty(size, dtype)
                self._views = {k: v for k, v in self._views.items() if k[0] != name}
                self._groups.clear()
            view = self._views[(name, shape)] = flat[:size].reshape(shape)
        return view

    def group(self, key, make):
        """The tuple of views make() returns, made once per key and then
        looked up, until a buffer grows and every group is made anew."""
        views = self._groups.get(key)
        if views is None:
            views = self._groups[key] = make()
        return views


def _blocks(n_rows, n_cells):
    """(lo, hi) row ranges of about BLOCK_CELLS cells each, at least one row.

    n_cells is the cells one row adds to a block: rhs stacks rho and u, so
    step_rk2 passes 2 n.
    """
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
    tmp, same_sign = ws.group(
        ("minmod", shape),
        lambda: (ws.get(_SCRATCH[4], shape), ws.get("minmod_same", shape, bool)),
    )
    np.multiply(a, b, out=tmp)
    np.greater(tmp, 0.0, out=same_sign)
    np.minimum(abs_a, abs_b, out=tmp)
    np.copysign(tmp, a, out=tmp)
    out.fill(0.0)
    np.copyto(out, tmp, where=same_sign)
    return out


def reconstruct(parts, dtheta, ws, out):
    """Limited linear reconstruction: east/west cell-edge values (qE_j, qW_j).

    parts is a sequence of (rows_i, n) arrays, whose rows are stacked in
    order into one block (rhs passes a block's rho and u).  Each row is
    periodic.  The edge values are computed on n + 2 columns, one periodic
    ghost cell on each side (column 0 repeats cell n-1, column n+1 repeats
    cell 0), into out, a pair of C-contiguous (rows, n + 2) arrays for all
    the rows, which are returned.
    """
    n = parts[0].shape[1]
    padded = (sum(len(q) for q in parts), n + 2)
    size = padded[0] * padded[1]

    def make():
        diffs = (ws.get(name, (size - 1,)) for name in _SCRATCH[1:3])
        return (ws.get(_SCRATCH[0], padded), *diffs, ws.get(_SCRATCH[3], (size,)))

    pad, diff, abs_diff, half = ws.group(("reconstruct", padded), make)
    at = 0
    for q in parts:
        pad[at : at + len(q), 1:-1] = q
        at += len(q)
    pad[:, 0] = pad[:, n]
    pad[:, -1] = pad[:, 1]
    # Rows are stored one after the other, so the whole block is one flat
    # run of cells: every operation below is on contiguous memory.  Values
    # at the ghost columns mix neighbouring rows and are replaced at the end.
    flat = pad.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=diff)  # diff[i] = flat[i+1] - flat[i]
    diff /= dtheta
    np.abs(diff, out=abs_diff)
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
    a_plus, a_minus, spread, prod, tmp = ws.group(
        ("kt_flux", shape), lambda: tuple(ws.get(name, shape) for name in _SCRATCH)
    )
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

    Those rows are all it reads, as one block: rho's rows, then u's, stacked
    in one padded block that is reconstructed once, and whose two fluxes are
    differenced and divided once.  force is the mean-field force repeated on
    at least hi - lo rows, so that each operation below is on whole arrays
    of one shape: numpy runs a broadcast or a strided 2-D operand through
    buffers of its own.  The result is the workspace's two tendency
    buffers, of hi - lo rows.
    """
    lo, hi = rows
    dtheta = state.grid.dtheta
    n = state.rho.shape[1]
    height = hi - lo

    def make():
        stacked = (2 * height, n + 2)
        east, west, flux = (ws.get(name, stacked) for name in ("edge_e", "edge_w", "flux"))
        # the source term is formed in the flux buffer, once its difference is taken
        source = flux.reshape(-1)[: height * n].reshape(height, n)
        drho, du = (ws.get(name, (height, n)) for name in ("drho", "du"))
        return east, west, flux, drho, du, source

    east, west, flux, drho, du, source = ws.group(("rhs", height, n), make)
    reconstruct((state.rho[lo:hi], state.u[lo:hi]), dtheta, ws, (east, west))
    # Interface j+1/2 sees cell j from the left (east face) and j+1 from
    # the right (west face of the neighbor).  In padded columns, flux c
    # is interface c-1/2, from east value c and west value c+1.  The block
    # is one flat run, rho's rows (the first `size` entries) then u's; the
    # last column's flux of each would pair two rows and is never used.
    size = height * (n + 2)
    e, w, f = east.reshape(-1), west.reshape(-1), flux.reshape(-1)
    kt_flux(
        e[: size - 1], e[size:-1], w[1:size], w[size + 1 :], ws,
        (f[: size - 1], f[size:-1]),
    )
    # rho's last flux lands in a discarded column of the difference below,
    # but must be a number there: a value left over from an earlier use
    # could make an inf - inf or overflow the division, and warn
    f[size - 1] = 0.0
    # -(F_{j+1/2} - F_{j-1/2}) / dtheta, as one division by -dtheta for
    # both fields, into the east edge values, which kt_flux has used; the
    # difference is one flat pass whose columns n, n+1 pair two rows, and
    # the last two entries are left as they are and never read
    np.subtract(f[1:-1], f[:-2], out=e[:-2])
    e[:-2] /= -dtheta
    np.copyto(drho, east[:height, :n])
    np.copyto(du, east[height:, :n])
    # du += (Omega - u + force) / m
    source[...] = state.omega.nodes[lo:hi, None]
    source -= state.u[lo:hi]
    source += force[:height]
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


def step_rk2(state, dt, params, config, ws=None, op0=None):
    """One Heun step; clips negative density and logs the clipped mass.

    op0, if given, is order_parameter(state), which stage 1 then takes as
    it is; a caller that has it for this very state saves one evaluation.

    NaN/Inf in the result is not an error here -- blow-up is the monitor's
    business -- but losing more than CLIP_ABORT of mass to clipping in a
    single step aborts with MassClipError.
    """
    assert dt > 0
    ws = Workspace() if ws is None else ws
    grid = state.grid
    n_rows, n = state.rho.shape
    blocks = list(_blocks(n_rows, 2 * n))
    # The stage's mean-field force repeated on the rows of the first, and
    # largest, block: one order parameter per stage, of the whole state
    force = ws.get("force", (blocks[0][1], n))
    trig = (grid.cos, grid.sin)
    op0 = order_parameter(state) if op0 is None else op0
    force[...] = mean_field_force(op0, grid.centers, params, trig)
    # state + dt * k, in the step's only fresh arrays (mid's, then the
    # result's), each block as soon as its tendency is known
    mid_rho, mid_u = np.empty(state.rho.shape), np.empty(state.u.shape)
    for lo, hi in blocks:
        k_rho, k_u = rhs(state, force, params, ws, (lo, hi))
        for new, old, k in ((mid_rho, state.rho, k_rho), (mid_u, state.u, k_u)):
            np.multiply(k, dt, out=new[lo:hi])
            new[lo:hi] += old[lo:hi]
    mid = FieldState(grid, state.omega, mid_rho, mid_u, t=state.t + dt)
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
        if np.isfinite(clipped) and clipped > CLIP_ABORT:
            raise MassClipError(state.t + dt, clipped)
    return FieldState(
        state.grid,
        state.omega,
        rho_new,
        u_new,
        t=state.t + dt,
        clipped_mass=clipped,
    )
