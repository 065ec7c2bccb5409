"""Scalar functionals of the flow: energies, diameters, decay envelopes,
asymptotic order-parameter prediction, Dirac-distance bound, blow-up monitor.

Most quantities exist in two guises -- over an Eulerian FieldState (mass
weights dtheta*rho*w_k) or over a Lagrangian sample ensemble (quadrature
weights) -- and the public functions dispatch on the argument type.
series_row is the one row of the SERIES_COLUMNS series for both solvers.

Support.  Over an ensemble, the diameters and the min_du column span only the
samples with positive weight: a zero-weight sample is a quadrature node
that carries no mass (a point-cell datum puts all mass on one node), so its
phase, velocity and gradient say nothing about the solution.  Over a field,
min_grad_u spans every cell, empty ones included: the scheme solves u in
every cell and carries it into cells that hold mass, so a steepening where
rho = 0 is part of the computed flow, and a density floor would make the
column and the blow-up monitor depend on a threshold.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .domain import FieldState
from .meanfield import ensemble_order_parameter, order_parameter

# Cells per chunk of min_grad_u's temporary: 2^13 float64 values, 64 KB.
GRAD_CHUNK_CELLS = 1 << 13

# Gradient-collapse limit: the blow-up monitor's default and the oracle's
# floor on d both fire below -BLOWUP_GRAD.
BLOWUP_GRAD = 1e6

SERIES_COLUMNS = (
    "t",
    "r",
    "phi",
    "Ek",
    "Ep",
    "vc",
    "etac",
    "d_eta",
    "d_v",
    "L",
    "mass_err",
    "min_du",
    "max_rho",
    "Ek_integral",
)


class TimeSeries:
    """Column-accessible record table backed by an (n, 14) float array."""

    columns = SERIES_COLUMNS

    def __init__(self, data):
        data = np.atleast_2d(np.asarray(data, dtype=float))
        if data.shape[1] != len(SERIES_COLUMNS):
            raise ValueError(f"series rows must have {len(SERIES_COLUMNS)} columns")
        self.data = data

    def __len__(self):
        return self.data.shape[0]

    def __getattr__(self, name):
        if name == "data":
            raise AttributeError(name)
        try:
            j = SERIES_COLUMNS.index(name)
        except ValueError:
            raise AttributeError(name) from None
        return self.data[:, j]


class SeriesBuilder:
    def __init__(self):
        self.rows = []

    def append(self, row):
        assert len(row) == len(SERIES_COLUMNS)
        self.rows.append(tuple(float(x) for x in row))

    def build(self):
        return TimeSeries(np.array(self.rows, dtype=float))


# ---------------------------------------------------------------------------
# Weighted moments.  An "ensemble" is any object with attributes
# (eta, v, weight, t) -- duck-typed to avoid importing the oracle module.


def _field_cell_masses(state):
    masses = state.grid.dtheta * state.rho
    masses *= state.omega.weights[:, None]
    return masses


def _weighted(obj):
    """(weights, phases, velocities) of an ensemble, or of a field's cells."""
    if isinstance(obj, FieldState):
        return _field_cell_masses(obj), obj.grid.centers[None, :], obj.u
    return obj.weight, obj.eta, obj.v


def _wsum(w, x, out=None):
    """sum w*x: np.dot over 1-D sample arrays, np.sum over field cells.

    out, if given, receives the field product w*x (it may be x itself).
    """
    return float(np.dot(w, x) if w.ndim == 1 else np.sum(np.multiply(w, x, out=out)))


def mean_velocity(obj):
    """Mass-weighted mean velocity v_c."""
    w, _, v = _weighted(obj)
    return _wsum(w, v)


def mean_phase(obj):
    """Mass-weighted mean phase (unwrapped for ensembles)."""
    w, ang, _ = _weighted(obj)
    return _wsum(w, ang)


def kinetic_energy(w, v):
    """E_k = (1/2) sum w (v - v_c)^2 with v_c = sum w v."""
    vc = _wsum(w, v)
    # one temporary the size of v, squared and weighted in place
    dev = np.subtract(v, vc)
    np.square(dev, out=dev)
    return 0.5 * _wsum(w, dev, out=dev)


def energies(obj, op, params):
    """Kinetic and potential energy (E_k, E_p).

    E_p = (K/2m)(1 - r^2), the closed form of the double integral -- exact
    under the shared quadrature.
    """
    w, _, v = _weighted(obj)
    Ep = (params.K / (2.0 * params.m)) * (1.0 - op.r**2)
    return kinetic_energy(w, v), Ep


def lyapunov(obj, op, params, trig=None):
    """L = (1/2) sum w (v + K r sin(eta - phi))^2, via the moment form.

    trig is (cos, sin) of the phases if the caller has them already.
    """
    w, ang, v = _weighted(obj)
    cos_a, sin_a = trig if trig is not None else (np.cos(ang), np.sin(ang))
    # r sin(eta - phi) = C sin(eta) - S cos(eta)
    term = v + params.K * (op.C * sin_a - op.S * cos_a)
    # squared and weighted in place
    np.square(term, out=term)
    return 0.5 * _wsum(w, term, out=term)


def min_grad_u(state):
    """Min over the grid of the centered-difference d(theta) u.

    The smallest difference u_{j+1} - u_{j-1} is divided once: dividing by
    2*dtheta > 0 is monotone under rounding, so this is the min of the
    divided differences.  The differences are taken GRAD_CHUNK_CELLS cells
    (whole slices, at least one) at a time, in one flat pass per chunk and
    two columns for the cells that wrap around, so the temporary stays
    small at any grid size.  A minimum is the same value in any order; the
    order decides only the sign of a zero minimum when both +0 and -0 are
    among the differences, which needs every slice's u to repeat with a
    period of two cells.
    """
    u = state.u
    n_rows, n = u.shape
    rows = max(1, GRAD_CHUNK_CELLS // n)
    buf = np.empty(min(rows, n_rows) * n)
    lows = []
    for lo in range(0, n_rows, rows):
        chunk = u[lo : lo + rows]
        flat = chunk.reshape(-1)
        diff = buf[: flat.size]
        # diff[i*n + j] = u[i, j+2] - u[i, j], whose last two columns pair
        # two rows; they get the differences of cells n-1 and 0 instead
        np.subtract(flat[2:], flat[:-2], out=diff[:-2])
        wrap = diff.reshape(chunk.shape)
        np.subtract(chunk[:, 0], chunk[:, -2], out=wrap[:, -2])
        np.subtract(chunk[:, 1], chunk[:, -1], out=wrap[:, -1])
        lows.append(diff.min())
    return float(np.min(lows) / (2.0 * state.grid.dtheta))


def _covering_arc(angles):
    """Length of the shortest arc containing all given angles on the circle."""
    if angles.size == 1:
        return 0.0
    a = np.sort(np.mod(angles, 2.0 * np.pi))
    gaps = np.diff(a)
    wrap_gap = a[0] + 2.0 * np.pi - a[-1]
    return float(2.0 * np.pi - max(np.max(gaps), wrap_gap))


def diameters(obj, eps_supp=None):
    """Phase and velocity diameters (d_eta, d_v) over the support.

    Ensembles use unwrapped sample phases (max - min).  Eulerian states use
    the cells with rho > eps_supp; the phase diameter is then the shortest
    covering arc on the circle.  eps_supp defaults to 1e-8 * max(rho) -- pass
    the value derived from the initial state for time-consistent support.
    """
    if isinstance(obj, FieldState):
        if eps_supp is None:
            eps_supp = 1e-8 * float(np.max(obj.rho))
        mask = obj.rho > eps_supp
        if not np.any(mask):
            raise ValueError("empty support: no cells above the density floor")
        d_v = float(np.max(obj.u[mask]) - np.min(obj.u[mask]))
        support_angles = obj.grid.centers[np.any(mask, axis=0)]
        return _covering_arc(support_angles), d_v
    mask = sample_support(obj)
    return _range_over(obj.eta, mask), _range_over(obj.v, mask)


def sample_support(ens):
    """The `where` mask of the samples with positive weight (True if all are)."""
    mask = ens.weight > 0.0
    if not np.any(mask):
        raise ValueError("empty support: all sample weights vanish")
    if mask.all():
        return True  # the plain reductions, which are faster
    return mask


def _range_over(x, mask):
    """max - min of x where mask holds, without copying those entries."""
    high = np.max(x, where=mask, initial=-np.inf)
    return float(high - np.min(x, where=mask, initial=np.inf))


def series_row(obj, params, Ek_integral, eps_supp=None):
    """The SERIES_COLUMNS row of a FieldState or of a sample ensemble.

    The guise decides r and phi (moments of rho, or of the sample weights),
    mass_err (worst slice, or |sum w - 1|), min_du (min_grad_u over every
    cell, or the least d over the support) and max_rho (max rho, or
    exp(max log rho)).  eps_supp is the field's support floor (diameters).
    """
    if isinstance(obj, FieldState):
        trig = (obj.grid.cos, obj.grid.sin)
        op = order_parameter(obj)
        mass_err = float(np.max(np.abs(obj.per_slice_mass() - 1.0)))
        min_du = min_grad_u(obj)
        max_rho = float(np.max(obj.rho))
    else:
        trig = (np.cos(obj.eta), np.sin(obj.eta))
        op = ensemble_order_parameter(obj.eta, obj.weight, trig)
        mass_err = abs(float(np.sum(obj.weight)) - 1.0)
        min_du = float(np.min(obj.d, where=sample_support(obj), initial=np.inf))
        with np.errstate(over="ignore"):
            max_rho = float(np.exp(np.max(obj.log_rho)))
    Ek, Ep = energies(obj, op, params)
    d_eta, d_v = diameters(obj, eps_supp)
    L = lyapunov(obj, op, params, trig)
    vc, etac = mean_velocity(obj), mean_phase(obj)
    return (obj.t, op.r, op.phi, Ek, Ep, vc, etac, d_eta, d_v, L, mass_err, min_du,
            max_rho, Ek_integral)


# ---------------------------------------------------------------------------
# Analytic decay envelopes for the diameters.


@dataclass(frozen=True)
class EnvelopeParams:
    """Constants of the diameter decay bounds.

    C0 = max(d_eta0, d_eta0 + m*d_v0), D0 = sin(C0)/C0; the damped phase
    oscillator m*x'' + x' + K*D0*x <= 0 is overdamped when 4mKD0 < 1 (rates
    nu1 > nu2 > 0) and critically/underdamped otherwise.
    """

    d_eta0: float
    d_v0: float
    m: float
    K: float
    C0: float
    D0: float
    four_mKD0: float
    regime: str
    nu1: float
    nu2: float
    C1: float
    C2: float


def envelope_params(d_eta0, d_v0, params):
    """Derive EnvelopeParams; requires 0 < C0 < pi."""
    if d_eta0 < 0 or d_v0 < 0:
        raise ValueError("diameters must be nonnegative")
    m, K = params.m, params.K
    C0 = max(d_eta0, d_eta0 + m * d_v0)
    if not 0.0 < C0 < np.pi:
        raise ValueError(
            f"envelope not applicable: need 0 < C0 < pi, got C0 = {C0:.6g}"
        )
    D0 = math.sin(C0) / C0
    four = 4.0 * m * K * D0
    C2 = d_eta0 / (2.0 * m) + d_v0
    if four < 1.0:
        disc = math.sqrt(1.0 - four)
        nu1 = (1.0 + disc) / (2.0 * m)
        nu2 = (1.0 - disc) / (2.0 * m)
        C1 = m * (d_v0 + nu1 * d_eta0) / disc
        regime = "overdamped"
    else:
        nu1 = nu2 = 1.0 / (2.0 * m)
        C1 = math.nan
        regime = "underdamped"
    return EnvelopeParams(
        d_eta0, d_v0, m, K, C0, D0, four, regime, nu1, nu2, C1, C2
    )


def phase_envelope(env, t):
    """Upper bound on the phase diameter d_eta(t)."""
    t = np.asarray(t, dtype=float)
    if env.regime == "overdamped":
        disc = math.sqrt(1.0 - env.four_mKD0)
        e1 = np.exp(-env.nu1 * t)
        e2 = np.exp(-env.nu2 * t)
        return env.d_eta0 * e1 + env.m * (e2 - e1) / disc * (
            env.d_v0 + env.nu1 * env.d_eta0
        )
    return np.exp(-t / (2.0 * env.m)) * (env.d_eta0 + env.C2 * t)


def velocity_envelope(env, t):
    """Upper bound on the velocity diameter d_v(t)."""
    t = np.asarray(t, dtype=float)
    m, K = env.m, env.K
    if env.regime == "overdamped":
        B = K * env.C1 / (1.0 - m * env.nu2)
        D = K * (env.C1 - env.d_eta0) / (1.0 - m * env.nu1)
        A = env.d_v0 + D - B
        return A * np.exp(-t / m) + B * np.exp(-env.nu2 * t) - D * np.exp(-env.nu1 * t)
    return (1.0 + 4.0 * K * m) * env.d_v0 * np.exp(-t / m) + (
        2.0 * K * env.C2 * t - 4.0 * K * m * env.d_v0
    ) * np.exp(-t / (2.0 * m))


def gronwall_bound(a, b, c, x0, x1, t):
    """Decay bound for a*x'' + b*x' + c*x <= 0 with x >= 0.

    Distinct-root case (b^2 > 4ac):
        x(t) <= x0 e^{-a1 t} + a (x1 + a1 x0)(e^{-a2 t} - e^{-a1 t})/sqrt(b^2-4ac)
    with a1,2 = (b +/- sqrt(b^2-4ac))/(2a); otherwise
        x(t) <= e^{-bt/(2a)} (x0 + (b x0/(2a) + x1) t).
    """
    if not a > 0:
        raise ValueError("a must be positive")
    t = np.asarray(t, dtype=float)
    disc = b * b - 4.0 * a * c
    if disc > 0:
        root = math.sqrt(disc)
        a1 = (b + root) / (2.0 * a)
        a2 = (b - root) / (2.0 * a)
        return x0 * np.exp(-a1 * t) + a * (x1 + a1 * x0) * (
            np.exp(-a2 * t) - np.exp(-a1 * t)
        ) / root
    return np.exp(-b * t / (2.0 * a)) * (x0 + (b * x0 / (2.0 * a) + x1) * t)


def r_infinity_prediction(series, params):
    """Predicted limit of r: sqrt(r0^2 - (2m/K) Ek(0) + (4/K) int Ek dt)."""
    if not params.K > 0:
        raise ValueError("the asymptotic r prediction needs K > 0")
    r0 = float(series.r[0])
    Ek0 = float(series.Ek[0])
    Ek_int = float(series.Ek_integral[-1])
    radicand = r0 * r0 - (2.0 * params.m / params.K) * Ek0 + (4.0 / params.K) * Ek_int
    if radicand < -1e-10:
        warnings.warn(
            f"r_infinity radicand {radicand:.3e} < -1e-10: run looks under-resolved",
            stacklevel=2,
        )
    return math.sqrt(max(0.0, radicand))


def dirac_distance_bound(ens, ens0, params):
    """Measured mean distance to the limit phase vs its analytic bound.

    The limit phase is eta_inf = eta_c(0) + m*v_c(0); the bound is
    d_eta(t) + m*|v_c(0)|*e^{-t/m}.  Returns (measured, bound).
    """
    vc0 = mean_velocity(ens0)
    eta_inf = mean_phase(ens0) + params.m * vc0
    measured = float(np.dot(ens.weight, np.abs(ens.eta - eta_inf)))
    d_eta, _ = diameters(ens)
    bound = d_eta + params.m * abs(vc0) * math.exp(-ens.t / params.m)
    return measured, bound


# ---------------------------------------------------------------------------
# Blow-up detection.


@dataclass(frozen=True)
class BlowupEvent:
    t: float
    reason: str


class BlowupMonitor:
    """Latching detector: density concentration, gradient collapse, or NaN.

    The first observed state fixes the reference max(rho0) unless one is
    supplied.  Once fired the monitor stays fired (the event is kept).
    """

    def __init__(self, rho_factor=1e3, grad_limit=BLOWUP_GRAD, max_rho0=None):
        self.rho_factor = rho_factor
        self.grad_limit = grad_limit
        self.max_rho0 = max_rho0
        self.event = None

    @property
    def fired(self):
        return self.event is not None

    def observe_values(self, t, max_rho, min_du, finite=True):
        if self.event is not None:
            return self.event
        if not finite or not (np.isfinite(max_rho) and np.isfinite(min_du)):
            self.event = BlowupEvent(t, "non-finite")
            return self.event
        if self.max_rho0 is None:
            self.max_rho0 = max_rho
        if max_rho > self.rho_factor * self.max_rho0:
            self.event = BlowupEvent(t, "density-concentration")
        elif min_du < -self.grad_limit:
            self.event = BlowupEvent(t, "gradient-collapse")
        return self.event

    def observe(self, state):
        """Observe a FieldState; returns the event or None.

        The oracle does not come through here: lagrangian.evolve runs its
        own gradient-collapse and finiteness tests on the ensemble.
        """
        # NaN propagates through max and min, and +-inf is an extremum, so
        # the four extrema are finite exactly when every entry is.
        rho, u = state.rho, state.u
        max_rho = float(rho.max())
        finite = all(map(math.isfinite, (max_rho, rho.min(), u.max(), u.min())))
        min_du = min_grad_u(state) if finite else -math.inf
        return self.observe_values(state.t, max_rho, min_du, finite)
