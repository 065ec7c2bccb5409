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
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import (
    BlowupEvent,
    SeriesBuilder,
    diameters,
    energies,
    kinetic_energy,
    lyapunov,
    mean_phase,
    mean_velocity,
    sample_support,
)
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
from .meanfield import ensemble_order_parameter

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


def _derivs(eta, v, d, w, Omega, m, K):
    cos_e = np.cos(eta)
    sin_e = np.sin(eta)
    C = float(np.dot(w, cos_e))
    S = float(np.dot(w, sin_e))
    r_sin = S * cos_e - C * sin_e  # r sin(phi - eta)
    r_cos = C * cos_e + S * sin_e  # r cos(phi - eta)
    dv = (Omega - v + K * r_sin) / m
    dd = -d * d - d / m - (K / m) * r_cos
    return v, dv, dd, -d


def _row(ens, params, Ek_integral):
    trig = (np.cos(ens.eta), np.sin(ens.eta))
    op = ensemble_order_parameter(ens.eta, ens.weight, trig)
    Ek, Ep = energies(ens, op, params)
    d_eta, d_v = diameters(ens)
    min_du = float(np.min(ens.d, where=sample_support(ens), initial=np.inf))
    with np.errstate(over="ignore"):
        max_rho = float(np.exp(np.max(ens.log_rho)))
    return (
        ens.t,
        op.r,
        op.phi,
        Ek,
        Ep,
        mean_velocity(ens),
        mean_phase(ens),
        d_eta,
        d_v,
        lyapunov(ens, op, params, trig),
        abs(float(np.sum(ens.weight)) - 1.0),
        min_du,
        max_rho,
        Ek_integral,
    )


def evolve(
    ens,
    params,
    T,
    dt=1e-3,
    record_every=1,
    snapshot_times=(),
    eps_blow=1e-6,
):
    """Integrate the characteristic system to time T with fixed-step RK4.

    Diagnostics are recorded every `record_every` steps (and at the final
    step).  Stops early with a blow-up flag as soon as any d < -1/eps_blow;
    raises IntegrationFailure on non-finite states outside that flag.
    """
    if not (dt > 0 and T > ens.t):
        raise ValueError(f"evolve needs dt > 0 and T > t0={ens.t}; got dt={dt}, T={T}")
    m, K = params.m, params.K
    w, Omega, t = ens.weight, ens.Omega, ens.t
    eta, v, d, lr = ens.eta, ens.v, ens.d, ens.log_rho
    d_floor = -1.0 / eps_blow

    n_steps = int(round((T - ens.t) / dt))
    snap_steps = {int(round((ts - ens.t) / dt)): float(ts) for ts in snapshot_times}

    builder = SeriesBuilder()
    Ek_integral = 0.0
    Ek_last = kinetic_energy(w, v)
    builder.append(_row(ens, params, Ek_integral))
    snapshots = {}
    if 0 in snap_steps:
        snapshots[snap_steps[0]] = ens
    blowup = None

    for step in range(1, n_steps + 1):
        k1 = _derivs(eta, v, d, w, Omega, m, K)
        k2 = _derivs(
            eta + 0.5 * dt * k1[0], v + 0.5 * dt * k1[1], d + 0.5 * dt * k1[2],
            w, Omega, m, K,
        )
        k3 = _derivs(
            eta + 0.5 * dt * k2[0], v + 0.5 * dt * k2[1], d + 0.5 * dt * k2[2],
            w, Omega, m, K,
        )
        k4 = _derivs(
            eta + dt * k3[0], v + dt * k3[1], d + dt * k3[2], w, Omega, m, K
        )
        sixth = dt / 6.0
        eta = eta + sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        v = v + sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        d = d + sixth * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        lr = lr + sixth * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
        t = ens.t + step * dt

        d_min = float(np.min(d)) if np.all(np.isfinite(d)) else -np.inf
        if d_min < d_floor:
            blowup = BlowupEvent(t, "gradient-collapse")
        elif not (
            np.all(np.isfinite(eta)) and np.all(np.isfinite(v)) and np.all(np.isfinite(lr))
        ):
            raise IntegrationFailure(t - dt)

        Ek_now = kinetic_energy(w, v)
        Ek_integral += 0.5 * dt * (Ek_last + Ek_now)
        Ek_last = Ek_now

        at_record = blowup is not None or step == n_steps or step % record_every == 0
        at_snapshot = step in snap_steps or blowup is not None
        if at_record or at_snapshot:
            now = replace(ens, eta=eta, v=v, d=d, log_rho=lr, t=t)
        if at_record:
            builder.append(_row(now, params, Ek_integral))
        if at_snapshot:
            snapshots[snap_steps.get(step, t)] = now
        if blowup is not None:
            break

    final = replace(ens, eta=eta, v=v, d=d, log_rho=lr, t=t)
    return OracleRun(builder.build(), final, blowup, snapshots)


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
