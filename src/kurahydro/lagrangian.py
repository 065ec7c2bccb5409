"""Lagrangian characteristic oracle.

Each sample carries phase eta, velocity v, the velocity gradient d along its
flow line, and log-density; the closed ODE system is

    eta' = v
    m v' = -v + Omega + K r sin(phi - eta)
    d'   = -d^2 - d/m - (K/m) r cos(phi - eta)
    (log rho)' = -d

with (r, phi) recomputed from the weighted ensemble at every RK4 stage.
Independent of the finite-volume path by construction; used for
cross-validation, diameter diagnostics, and blow-up timing.

The integration takes no cos or sin.  `evolve` holds the state as one
(6, n) array with rows eta, cos eta, sin eta, v, d and log rho, seeds the
cos and sin rows once from the ensemble's eta, and carries them with

    (cos eta)' = -v sin eta,    (sin eta)' = v cos eta.

`_derivs` reads C = sum w cos eta and S = sum w sin eta off those rows and
forms r sin(phi - eta) = S cos eta - C sin eta and r cos(phi - eta) =
C cos eta + S sin eta.  Each RK4 stage input is formed on the rows the
tendencies read (cos, sin, v, d) in one stacked multiply-add, and the RK4
sum is accumulated stage by stage as ((k1 + 2 k2) + 2 k3) + k4, so one
stage tendency is alive at a time.  This is the same ODE system, RK4 and
dt as the earlier formulation that took cos and sin of each stage's eta,
but not the same bits: a stage input holds cos eta + h (cos eta)' where
it held cos(eta + h eta'), and both steps are fourth order.  Against that
formulation, on subcritical_sync.yaml (8000 samples, t = 5) r moved by
at most 3.3e-15, every other series column by at most 1.1e-14 absolute,
the final eta, v, d and log rho by at most 2.4e-14, and cos^2 + sin^2
stayed within 8.6e-14 of 1; the supercritical blow-up (gradient-collapse
at t = 0.626) did not move.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import BLOWUP_GRAD, BlowupEvent, SeriesBuilder, kinetic_energy
# perfbench's tracer wraps this name: evolve builds its rows through _row.
from .diagnostics import series_row as _row
from .domain import (
    FieldState,
    InitSpec,
    TableData,
    _readonly,
    evaluate_du0,
    evaluate_u0,
    rho0_profile,
    wrap_angle,
)

TWO_PI = 2.0 * np.pi


class IntegrationFailure(RuntimeError):
    """Non-finite sample state outside a declared blow-up."""

    def __init__(self, t_last):
        super().__init__(f"integration produced non-finite values; last valid t={t_last:.6g}")
        self.t_last = t_last


@dataclass(frozen=True)
class CharEnsemble:
    """Weighted characteristic samples at a common time t.

    The arrays are read-only views sharing memory with the caller's arrays.
    """

    theta0: np.ndarray
    Omega: np.ndarray
    weight: np.ndarray
    eta: np.ndarray
    v: np.ndarray
    d: np.ndarray
    log_rho: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        for name in ("theta0", "Omega", "weight", "eta", "v", "d", "log_rho"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        if abs(float(np.sum(self.weight)) - 1.0) > 1e-9:
            raise ValueError("sample weights must sum to 1")

    @property
    def n(self):
        return self.eta.size


def sample_initial(source, omega=None, n_samples=256):
    """Sample an InitSpec (or an existing FieldState) into a CharEnsemble.

    For an InitSpec: n_samples equispaced midpoint nodes per frequency slice,
    weighted by rho0(theta0) and renormalized slice-by-slice so slice k
    carries exactly the frequency weight w_k (hence total weight exactly 1).
    For a FieldState: one sample per cell with weight dtheta*rho*w_k.
    """
    if isinstance(source, FieldState):
        grid, om = source.grid, source.omega
        theta0 = np.tile(grid.centers, om.n)
        Omega = np.repeat(om.nodes, grid.n)
        w = (grid.dtheta * source.rho * om.weights[:, None]).ravel()
        total = w.sum()
        if not total > 0:
            raise ValueError("state carries no sample mass")
        du = (np.roll(source.u, -1, axis=-1) - np.roll(source.u, 1, axis=-1)) / (
            2.0 * grid.dtheta
        )
        with np.errstate(divide="ignore"):
            log_rho = np.where(
                source.rho > 0.0, np.log(np.maximum(source.rho, 1e-300)), -690.0
            )
        return CharEnsemble(
            theta0,
            Omega,
            w / total,
            theta0.copy(),
            source.u.ravel().copy(),
            du.ravel(),
            log_rho.ravel(),
            t=source.t,
        )

    spec = source
    if not isinstance(spec, InitSpec):
        raise TypeError("sample_initial needs an InitSpec or FieldState")
    if isinstance(spec.rho0, TableData) or isinstance(spec.u0, TableData):
        raise TypeError(
            "tabulated initial data: build a FieldState first and sample that"
        )
    if omega is None:
        raise ValueError("an OmegaGrid is required when sampling an InitSpec")
    n_samples = int(n_samples)
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    ds = TWO_PI / n_samples
    nodes = -np.pi + (np.arange(n_samples) + 0.5) * ds
    profile = rho0_profile(spec.rho0, nodes)
    if profile.sum() <= 0:
        raise ValueError("rho0 puts no mass on the sample nodes")
    slice_w = profile / profile.sum()
    theta0 = np.tile(nodes, omega.n)
    Omega = np.repeat(omega.nodes, n_samples)
    w = (omega.weights[:, None] * slice_w[None, :]).ravel()
    v0 = evaluate_u0(spec.u0, theta0)
    d0 = evaluate_du0(spec.u0, theta0)
    log_rho0 = np.where(
        np.tile(profile, omega.n) > 0.0,
        np.log(np.maximum(np.tile(slice_w / ds, omega.n), 1e-300)),
        -690.0,
    )
    return CharEnsemble(theta0, Omega, w, theta0.copy(), v0, d0, log_rho0, t=0.0)


@dataclass
class OracleRun:
    """Recorded oracle trajectory: diagnostics series plus end state."""

    series: object
    final: CharEnsemble
    blowup: BlowupEvent | None
    snapshots: dict


# Rows of the state array evolve integrates; the tendencies read COS..D.
ETA, COS, SIN, V, D, LOG_RHO = range(6)


# perfbench's tracer wraps this name and counts args[0].size per call as
# sample evaluations, a quarter of them a sample step: evolve calls it
# through the module global, 4 times a step, with w (one entry a sample) first.
def _derivs(w, Omega, y, m, K, out):
    """Write the six tendencies of the stage input y into out.

    y holds the rows (cos eta, sin eta, v, d) of one RK4 stage, out is a
    (6, n) array in state-row order.  C = sum w cos eta and S = sum w sin eta
    give r sin(phi - eta) = S c - C s and r cos(phi - eta) = C c + S s.
    """
    c, s, v, d = y
    C = float(np.dot(w, c))
    S = float(np.dot(w, s))
    eta_t, c_t, s_t, v_t, d_t, lr_t = out
    np.multiply(v, s, out=c_t)
    np.negative(c_t, out=c_t)  # (cos eta)' = -v sin eta
    np.multiply(v, c, out=s_t)  # (sin eta)' = v cos eta
    # dv = ((Omega - v) + K r sin(phi - eta)) / m, with lr_t as scratch
    np.multiply(c, S, out=v_t)
    np.multiply(s, C, out=lr_t)
    v_t -= lr_t
    v_t *= K
    np.subtract(Omega, v, out=lr_t)
    np.add(lr_t, v_t, out=v_t)
    v_t /= m
    # dd = (-d^2 - d/m) - (K/m) r cos(phi - eta), with eta_t and lr_t as scratch
    np.multiply(c, C, out=lr_t)
    np.multiply(s, S, out=d_t)
    lr_t += d_t
    lr_t *= K / m
    np.multiply(d, d, out=d_t)
    np.negative(d_t, out=d_t)
    np.divide(d, m, out=eta_t)
    d_t -= eta_t
    d_t -= lr_t
    np.negative(d, out=lr_t)  # (log rho)' = -d
    np.copyto(eta_t, v)  # eta' = v


def _ensemble_at(ens, y, t):
    """The ensemble of state array y at time t, its rows copied out of y."""
    eta, v, d, log_rho = y[[ETA, V, D, LOG_RHO]]
    return replace(ens, eta=eta, v=v, d=d, log_rho=log_rho, t=t)


def evolve(ens, params, T, dt=1e-3, record_every=1, snapshot_times=()):
    """Integrate the characteristic system to time T with fixed-step RK4.

    The state is one (6, n) array with rows eta, cos eta, sin eta, v, d and
    log rho; the cos and sin rows are seeded once from ens.eta and carried
    by (cos eta)' = -v sin eta and (sin eta)' = v cos eta.  Diagnostics are
    recorded every `record_every` steps (and at the final step).  After
    each step the run stops early with a blow-up event when d is
    non-finite ("non-finite": a NaN or +inf) or some d < -BLOWUP_GRAD
    ("gradient-collapse", -inf included); when d is finite but eta, v,
    log rho or a carried cos or sin is not, it raises IntegrationFailure
    naming the last valid t.
    """
    if not (dt > 0 and T > ens.t):
        raise ValueError(f"evolve needs dt > 0 and T > t0={ens.t}; got dt={dt}, T={T}")
    m, K = params.m, params.K
    w, Omega, n = ens.weight, ens.Omega, ens.n

    n_steps = int(round((T - ens.t) / dt))
    snap_steps = {int(round((ts - ens.t) / dt)): float(ts) for ts in snapshot_times}

    y = np.empty((6, n))
    y[ETA], y[V], y[D], y[LOG_RHO] = ens.eta, ens.v, ens.d, ens.log_rho
    np.cos(ens.eta, out=y[COS])
    np.sin(ens.eta, out=y[SIN])
    read = slice(COS, D + 1)  # the rows the tendencies read
    k = np.empty((6, n))  # the current stage's tendency
    acc = np.empty((6, n))  # k1 + 2 k2 + 2 k3 + k4, summed stage by stage
    stage = np.empty((4, n))  # the next stage's input rows
    half, sixth = 0.5 * dt, dt / 6.0

    builder = SeriesBuilder()
    Ek_integral = 0.0
    Ek_last = kinetic_energy(w, ens.v)
    builder.append(_row(ens, params, Ek_integral))
    snapshots = {}
    if 0 in snap_steps:
        snapshots[snap_steps[0]] = ens
    blowup = None
    t = ens.t

    for step in range(1, n_steps + 1):
        _derivs(w, Omega, y[read], m, K, k)
        np.copyto(acc, k)
        for i, h in enumerate((half, half, dt)):
            np.multiply(k[read], h, out=stage)  # the stage input y + h k
            stage += y[read]
            if i:  # k2 and k3 enter the sum doubled, once used for a stage
                k *= 2.0
                acc += k
            _derivs(w, Omega, stage, m, K, k)
        acc += k
        acc *= sixth
        y += acc
        t = ens.t + step * dt

        lo, hi = y.min(axis=1), y.max(axis=1)
        if not hi[D] < np.inf:  # NaN propagates through min and max
            blowup = BlowupEvent(t, "non-finite")
        elif lo[D] < -BLOWUP_GRAD:
            blowup = BlowupEvent(t, "gradient-collapse")
        elif not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise IntegrationFailure(ens.t + (step - 1) * dt)

        Ek_now = kinetic_energy(w, y[V])
        Ek_integral += 0.5 * dt * (Ek_last + Ek_now)
        Ek_last = Ek_now

        at_record = blowup is not None or step == n_steps or step % record_every == 0
        at_snapshot = step in snap_steps or blowup is not None
        if at_record or at_snapshot:
            now = _ensemble_at(ens, y, t)
        if at_record:
            builder.append(_row(now, params, Ek_integral))
        if at_snapshot:
            snapshots[snap_steps.get(step, t)] = now
        if blowup is not None:
            break

    return OracleRun(builder.build(), _ensemble_at(ens, y, t), blowup, snapshots)


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
