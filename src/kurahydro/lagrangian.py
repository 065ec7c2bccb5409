"""Lagrangian characteristic oracle.

Each sample carries phase eta, velocity v and the Jacobian of the flow map
along its characteristic, J = d eta / d eta0 and P = d v / d eta0.
Differentiating the characteristic system in eta0 (r and phi do not depend
on it) gives the closed ODE system

    eta' = v
    m v' = -v + Omega + K r sin(phi - eta)
    J'   = P
    m P' = -P - K r cos(phi - eta) J

with J(0) = 1, P(0) = u0'(eta0) and (r, phi) recomputed from the weighted
ensemble at every RK4 stage.  The velocity gradient and the density along
the flow line are d = P / J and log rho = log rho0 - log J.  They blow up
when J reaches 0, but J and P stay finite through that zero, so the
gradient collapse is the first zero of J, which evolve locates within a
step by the cubic Hermite interpolant of J with J' = P.  Independent of
the finite-volume path by construction; used for cross-validation,
diameter diagnostics, and blow-up timing.

The integration takes no cos or sin.  `evolve` holds the state as one
(6, n) array with rows eta, cos eta, sin eta, v, J and P, seeds the cos and
sin rows once from the ensemble's eta, and carries them with

    (cos eta)' = -v sin eta,    (sin eta)' = v cos eta.

`_derivs` reads C = sum w cos eta and S = sum w sin eta off those rows and
forms r sin(phi - eta) = S cos eta - C sin eta and r cos(phi - eta) =
C cos eta + S sin eta.  Each RK4 stage input is formed on the rows the
tendencies read (cos, sin, v, J, P) in one stacked multiply-add, and the
RK4 sum is accumulated stage by stage as ((k1 + 2 k2) + 2 k3) + k4, so one
stage tendency is alive at a time (k1 is written straight into the sum).
The time integral of E_k is the same RK4 quadrature: each stage's E_k
enters with the stage's RK4 weight, and the E_k of a step's result is the
next step's first stage's.

A series row reads the state array in place, through StateRows: eta and v
are y's rows, and d = P / J, log rho and the unit phasor are written into
arrays the run allocates once.  It takes the run's values as they are: the
E_k the step computed, the support mask and |sum w - 1| (the weights never
change, so those are computed once per run).  Only snapshots and the final
ensemble are copied out into a validated CharEnsemble.

J and P feed no tendency of eta, cos, sin or v, so at a given dt those rows
take the same bits as in the earlier formulation that carried d and
log rho; that one had to stop at a floor d < -1e6 and so found the collapse
time only to first order in dt.  The Jacobian form resolves it to the
RK4 error: on the supercritical case m = K = 1, u0 = -2 sin theta (512
samples) the collapse time is 0.6251445 at dt = 1e-2, 5e-3 and 1e-3, where
the floor gave 0.640 and 0.626 at the first and last.  On
subcritical_sync.yaml (8000 samples, t = 5) dt = 1e-2 against 1e-3 moves r
by under 1e-10 and min_du by under 1e-9, so the default step is 1e-2.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import (
    BlowupEvent,
    kinetic_energy,
    record_run,
    sample_support,
    time_key,
)
# perfbench's tracer wraps this name: evolve builds its rows through _row.
from .diagnostics import series_row as _row
from .domain import (
    TWO_PI,
    InitSpec,
    _readonly,
    evaluate_du0,
    evaluate_u0,
    rho0_profile,
    wrap_angle,
)
from .meanfield import weighted_sum


@dataclass(frozen=True)
class CharEnsemble:
    """Weighted characteristic samples at a common time t.

    The arrays are read-only views sharing memory with the caller's arrays.
    """

    Omega: np.ndarray
    weight: np.ndarray
    eta: np.ndarray
    v: np.ndarray
    d: np.ndarray
    log_rho: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        for name in ("Omega", "weight", "eta", "v", "d", "log_rho"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        if abs(float(np.sum(self.weight)) - 1.0) > 1e-9:
            raise ValueError("sample weights must sum to 1")

    @property
    def n(self):
        return self.eta.size


def sample_initial(spec, omega, n_samples):
    """Sample a symbolic InitSpec into a CharEnsemble on the OmegaGrid omega.

    n_samples equispaced midpoint nodes per frequency slice, weighted by
    rho0(theta0) and renormalized slice-by-slice so slice k carries exactly
    the frequency weight w_k (hence total weight exactly 1).  Tabulated
    initial data (TableData) is refused.
    """
    if not isinstance(spec, InitSpec):
        raise TypeError(
            f"{type(spec).__name__}: the oracle samples symbolic initial data only"
        )
    n_samples = int(n_samples)
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    ds = TWO_PI / n_samples
    nodes = -np.pi + (np.arange(n_samples) + 0.5) * ds
    profile = rho0_profile(spec.rho0, nodes)
    if profile.sum() <= 0:
        raise ValueError("rho0 puts no mass on the sample nodes")
    slice_w = profile / profile.sum()
    eta = np.tile(nodes, omega.n)
    Omega = np.repeat(omega.nodes, n_samples)
    w = (omega.weights[:, None] * slice_w[None, :]).ravel()
    v0 = evaluate_u0(spec.u0, eta)
    d0 = evaluate_du0(spec.u0, eta)
    log_rho0 = np.where(
        np.tile(profile, omega.n) > 0.0,
        np.log(np.maximum(np.tile(slice_w / ds, omega.n), 1e-300)),
        -690.0,
    )
    return CharEnsemble(Omega, w, eta, v0, d0, log_rho0, t=0.0)


# Rows of the state array evolve integrates; the tendencies read COS..P.
ETA, COS, SIN, V, J, P = range(6)


# perfbench's tracer wraps this name and counts args[0].size per call as
# sample evaluations, a quarter of them a sample step: evolve calls it
# through the module global, 4 times a step, with w (one entry a sample) first.
def _derivs(w, Omega, y, m, K, out):
    """Write the six tendencies of the stage input y into out.

    y holds the rows (cos eta, sin eta, v, J, P) of one RK4 stage, out is a
    (6, n) array in state-row order.  C = sum w cos eta and S = sum w sin eta
    give r sin(phi - eta) = S c - C s and r cos(phi - eta) = C c + S s.
    """
    c, s, v, jac, p = y
    C = weighted_sum(w, c)
    S = weighted_sum(w, s)
    eta_t, c_t, s_t, v_t, j_t, p_t = out
    np.multiply(v, s, out=c_t)
    np.negative(c_t, out=c_t)  # (cos eta)' = -v sin eta
    np.multiply(v, c, out=s_t)  # (sin eta)' = v cos eta
    # dv = ((Omega - v) + K r sin(phi - eta)) / m, with p_t as scratch
    np.multiply(c, S, out=v_t)
    np.multiply(s, C, out=p_t)
    v_t -= p_t
    v_t *= K
    np.subtract(Omega, v, out=p_t)
    np.add(p_t, v_t, out=v_t)
    v_t /= m
    # dP = -(P + K r cos(phi - eta) J) / m, with j_t as scratch
    np.multiply(c, C, out=p_t)
    np.multiply(s, S, out=j_t)
    p_t += j_t
    p_t *= K
    p_t *= jac
    p_t += p
    p_t /= -m
    np.copyto(j_t, p)  # J' = P
    np.copyto(eta_t, v)  # eta' = v


class StateRows:
    """What series_row reads of an ensemble at time t: eta and v are views
    of the state array's rows, d and log_rho the arrays _oracle_states
    writes them into.  Nothing is copied or checked, so it holds only until
    the next row is made."""

    __slots__ = ("eta", "v", "d", "log_rho", "weight", "t")

    def __init__(self, eta, v, d, log_rho, weight, t):
        self.eta, self.v, self.d, self.log_rho = eta, v, d, log_rho
        self.weight, self.t = weight, t


def _unit_phasor(y, out):
    """Write the (cos eta, sin eta) rows of y divided by their modulus into
    the pair of arrays out, and return out.

    The carried rows drift off the unit circle by the RK4 error, and r reads
    that drift at full size: at dt = 1e-2 on subcritical_sync.yaml it moves
    r by 1.6e-10 from dt = 1e-3 as carried, by 9.1e-11 once divided out.
    """
    c, s = y[COS], y[SIN]
    unit_c, unit_s = out
    np.square(c, out=unit_c)
    np.square(s, out=unit_s)
    unit_c += unit_s
    np.sqrt(unit_c, out=unit_c)  # the modulus
    np.divide(s, unit_c, out=unit_s)
    np.divide(c, unit_c, out=unit_c)
    return out


def _first_zero(start, end, dt):
    """Fraction of the step, in (0, 1], at which the first sample's J reaches 0.

    start and end are the state arrays at the two ends of a step on which
    some J turned <= 0.  On each such sample J is taken as the cubic
    Hermite interpolant of J and J' = P at the ends,
    H(s) = J0 + dt P0 s + b s^2 + a s^3 on s in [0, 1], whose first root
    lies in (0, 1] since J0 > 0 >= J1.
    """
    first = 1.0
    for idx in np.flatnonzero(end[J] <= 0.0):
        j0, j1 = start[J, idx], end[J, idx]
        c, h1 = dt * start[P, idx], dt * end[P, idx]
        a = 2.0 * (j0 - j1) + c + h1
        b = 3.0 * (j1 - j0) - 2.0 * c - h1
        roots = np.roots([a, b, c, j0])
        # a real root of a real cubic comes back with imaginary part exactly 0
        real = roots.real[(roots.imag == 0.0) & (roots.real > 0.0)]
        first = min(first, float(real.min(initial=1.0)))
    return first


def oracle_step(t, dt, name, t0=0.0):
    """The step n with t = t0 + n dt within round-off (math.isclose, relative
    1e-12 or absolute 1e-9 dt); any other t raises a ValueError that names
    it as `name` and gives the nearest step time."""
    step = round((t - t0) / dt)
    if not math.isclose(t - t0, step * dt, rel_tol=1e-12, abs_tol=1e-9 * dt):
        raise ValueError(
            f"{name} {t!r} is not a multiple of dt_oracle={dt!r}; "
            f"the nearest oracle step time is {t0 + step * dt:.12g}"
        )
    return step


def _oracle_states(ens, params, n_steps, dt):
    """The states evolve records: the initial one and each accepted RK4 step.

    Each step is formed in the spare buffer and accepted unless some J <= 0
    on it; a rejected step ends the run on its start, the last state on
    which every J is positive, with a "gradient-collapse" event timed at the
    first zero of J within the step (see _first_zero).  A step with a NaN
    or infinite entry is accepted and ends the run with a "non-finite"
    event.  Returns (blowup, None), the run ending on the last state
    yielded.  row and stored read the current state, so record_run calls
    them before the next step.

    A row's d, log rho and unit phasor are written into arrays allocated
    once for the run, which the next row overwrites; stored() copies them
    out with eta and v.
    """
    m, K = params.m, params.K
    w, Omega, n = ens.weight, ens.Omega, ens.n
    y = np.empty((6, n))
    y[ETA], y[V], y[J], y[P] = ens.eta, ens.v, 1.0, ens.d
    np.cos(ens.eta, out=y[COS])
    np.sin(ens.eta, out=y[SIN])
    read = slice(COS, P + 1)  # the rows the tendencies read
    k = np.empty((6, n))  # the current stage's tendency, from k2 on
    acc = np.empty((6, n))  # y + dt/6 (k1 + 2 k2 + 2 k3 + k4), summed from k1 on
    stage = np.empty((5, n))  # the next stage's input rows
    ones = np.ones(n)  # acc @ ones: the row sums of the finiteness test
    half, sixth = 0.5 * dt, dt / 6.0

    # the same for every row of the run: the weights never change
    support = sample_support(ens)
    mass_err = abs(float(np.sum(w)) - 1.0)
    Ek_integral = 0.0
    Ek_now = kinetic_energy(w, y[V])  # E_k of y, the next step's first stage
    t = ens.t
    d, log_rho, trig = np.empty(n), np.empty(n), (np.empty(n), np.empty(n))

    def rows():
        with np.errstate(divide="ignore", invalid="ignore"):  # a non-finite state
            np.divide(y[P], y[J], out=d)
            np.log(y[J], out=log_rho)
            np.subtract(ens.log_rho, log_rho, out=log_rho)
        return StateRows(y[ETA], y[V], d, log_rho, w, t)

    def row():
        _unit_phasor(y, trig)
        return _row(rows(), params, Ek_integral, support, trig, Ek=Ek_now, mass_err=mass_err)

    def stored():
        rows()
        return replace(ens, eta=y[ETA].copy(), v=y[V].copy(), d=d.copy(),
                       log_rho=log_rho.copy(), t=t)

    yield t, row, stored
    for step in range(1, n_steps + 1):
        _derivs(w, Omega, y[read], m, K, acc)  # k1, where the sum starts
        Ek_sum = Ek_now  # E_k of the stages, RK4-weighted
        for i, h in enumerate((half, half, dt)):
            # the stage input y + h k, from k1 in acc, then from k
            np.multiply((k if i else acc)[read], h, out=stage)
            stage += y[read]
            Ek_stage = kinetic_energy(w, stage[V - COS])
            Ek_sum += Ek_stage if i == 2 else 2.0 * Ek_stage
            if i:  # k2 and k3 enter the sum doubled, once used for a stage
                k *= 2.0
                acc += k
            _derivs(w, Omega, stage, m, K, k)
        acc += k
        acc *= sixth
        acc += y  # the step's result

        # A NaN or inf entry makes its row sum NaN or inf; a sum of finite
        # entries that overflows is sent on to the exact test
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(np.dot(acc, ones)).all() or np.isfinite(acc).all()
        if finite and acc[J].min() <= 0.0:
            collapse = BlowupEvent(t + dt * _first_zero(y, acc, dt), "gradient-collapse")
            return collapse, None
        y, acc = acc, y
        t = ens.t + step * dt
        Ek_integral += sixth * Ek_sum
        Ek_now = kinetic_energy(w, y[V])
        yield t, row, stored
        if not finite:
            return BlowupEvent(t, "non-finite"), None
    return None, None


def evolve(ens, params, T, dt=1e-2, record_every=1, snapshot_times=()):
    """Integrate the characteristic system to time T with fixed-step RK4.

    The state is one (6, n) array with rows eta, cos eta, sin eta, v, J and
    P; the cos and sin rows are seeded once from ens.eta, J from 1 and P
    from ens.d.  T, and each of snapshot_times up to T (compared by
    diagnostics.time_key), must be a step time ens.t + n dt (see
    oracle_step); a snapshot time past T is not written.
    diagnostics.record_run chooses the rows and snapshots, from the rows at
    every record_every-th step and the snapshots at those step times.  The
    run stops early with a blow-up event on a non-finite state or a
    gradient collapse (see _oracle_states).
    """
    if not (dt > 0 and T > ens.t):
        raise ValueError(f"evolve needs dt > 0 and T > t0={ens.t}; got dt={dt}, T={T}")
    if not (isinstance(record_every, numbers.Integral) and record_every >= 1):
        raise ValueError(f"record_every must be a positive integer; got {record_every!r}")
    n_steps = oracle_step(T, dt, "T", ens.t)
    snapshot_steps = [oracle_step(ts, dt, "snapshot time", ens.t)
                      for ts in snapshot_times if time_key(ts) <= time_key(T)]
    # the times ens.t + step * dt of the steps, with the bits _oracle_states gives them
    row_times = ens.t + dt * np.arange(0, n_steps + 1, record_every)
    states = _oracle_states(ens, params, n_steps, dt)
    return record_run(states, row_times, ens.t + dt * np.array(snapshot_steps))


def pushforward_density(ens, grid, per_omega=False):
    """Histogram the sample weights onto the theta grid.

    Default: the frequency-marginal density (total mass 1).  With
    per_omega=True, returns (omega_values, rho, u) where each frequency
    slice is normalized to unit mass and u is the mass-weighted mean sample
    velocity per cell (0 where a cell is empty).
    """
    idx = np.floor((wrap_angle(ens.eta) + np.pi) / grid.dtheta).astype(np.intp)
    idx = np.clip(idx, 0, grid.n - 1)
    if not per_omega:
        hist = np.bincount(idx, weights=ens.weight, minlength=grid.n)
        return hist / grid.dtheta

    values, inverse = np.unique(ens.Omega, return_inverse=True)
    flat = inverse * grid.n + idx
    size = values.size * grid.n
    mass = np.bincount(flat, weights=ens.weight, minlength=size).reshape(
        values.size, grid.n
    )
    mom = np.bincount(flat, weights=ens.weight * ens.v, minlength=size).reshape(
        values.size, grid.n
    )
    slice_mass = mass.sum(axis=1, keepdims=True)
    if np.any(slice_mass <= 0):
        raise ValueError("a frequency slice carries no sample mass")
    rho = mass / (grid.dtheta * slice_mass)
    with np.errstate(invalid="ignore", divide="ignore"):
        u = np.where(mass > 0.0, mom / np.where(mass > 0.0, mass, 1.0), 0.0)
    return values, rho, u
