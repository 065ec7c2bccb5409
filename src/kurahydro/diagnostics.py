"""Scalar functionals of the flow: energies, diameters, decay envelopes,
asymptotic order-parameter prediction, Dirac-distance bound, blow-up monitor.

Most quantities exist in two guises -- over an Eulerian FieldState (mass
weights dtheta*rho*w_k) or over a Lagrangian sample ensemble (quadrature
weights) -- and the public functions dispatch on the argument type.
series_row is the one row of the SERIES_COLUMNS series for both solvers,
and record_run the one rule that chooses a run's rows and snapshots.

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
from .meanfield import ensemble_order_parameter, order_parameter, weighted_sum

# Cells per chunk of min_grad_u's temporary: 2^13 float64 values, 64 KB.
GRAD_CHUNK_CELLS = 1 << 13

# Gradient-collapse limit of the FV blow-up monitor: its test on min
# du/dtheta fires below -BLOWUP_GRAD.  (The oracle times a collapse as the
# zero of its Jacobian row instead; see lagrangian._oracle_states.)
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
    """sum w*x: meanfield.weighted_sum over 1-D sample arrays, a sum over
    field cells.

    out, if given, receives the field product w*x (it may be x itself).
    """
    return weighted_sum(w, x) if w.ndim == 1 else float(np.multiply(w, x, out=out).sum())


def mean_velocity(obj):
    """Mass-weighted mean velocity v_c."""
    w, _, v = _weighted(obj)
    return _wsum(w, v)


def mean_phase(obj):
    """Mass-weighted mean phase (unwrapped for ensembles)."""
    w, ang, _ = _weighted(obj)
    return _wsum(w, ang)


def kinetic_energy(w, v, vc=None):
    """E_k = (1/2) sum w (v - v_c)^2 with v_c = sum w v (pass it if known)."""
    vc = _wsum(w, v) if vc is None else vc
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
    return kinetic_energy(w, v), _potential_energy(op, params)


def _potential_energy(op, params):
    return (params.K / (2.0 * params.m)) * (1.0 - op.r**2)


def lyapunov(obj, op, params, trig=None):
    """L = (1/2) sum w (v + K r sin(eta - phi))^2, via the moment form.

    trig is (cos, sin) of the phases if the caller has them already.
    """
    w, ang, v = _weighted(obj)
    if trig is None:
        trig = (np.cos(ang), np.sin(ang))
    return _lyapunov(w, v, op, params, trig)


def _lyapunov(w, v, op, params, trig):
    """lyapunov of weights w and velocities v at phases of (cos, sin) trig."""
    cos_a, sin_a = trig
    # r sin(eta - phi) = C sin(eta) - S cos(eta), times K, plus v
    inner = op.C * sin_a
    inner -= op.S * cos_a
    inner *= params.K
    term = v + inner
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
    lows = np.empty(-(-n_rows // rows))
    for i, lo in enumerate(range(0, n_rows, rows)):
        chunk = u[lo : lo + rows]
        flat = chunk.reshape(-1)
        diff = buf[: flat.size]
        # diff[i*n + j] = u[i, j+2] - u[i, j], whose last two columns pair
        # two rows; they get the differences of cells n-1 and 0 instead
        np.subtract(flat[2:], flat[:-2], out=diff[:-2])
        wrap = diff.reshape(chunk.shape)
        np.subtract(chunk[:, 0], chunk[:, -2], out=wrap[:, -2])
        np.subtract(chunk[:, 1], chunk[:, -1], out=wrap[:, -1])
        lows[i] = diff.min()
    return float(lows.min() / (2.0 * state.grid.dtheta))


def _covering_arc(angles):
    """Length of the shortest arc containing all given angles on the circle.

    The angles ascend within [-pi, pi), as grid centres do.  Taken mod
    2 pi, which is x for x >= 0 and x + 2 pi for x < 0 (the bits of
    np.mod), they ascend from the first one >= 0 on and wrap around once:
    that rotation is their sorted order, and no sort is needed.
    """
    if angles.size == 1:
        return 0.0
    turn = int(np.searchsorted(angles, 0.0))
    a = np.concatenate((angles[turn:], angles[:turn] + 2.0 * np.pi))
    gaps = np.subtract(a[1:], a[:-1])
    wrap_gap = a[0] + 2.0 * np.pi - a[-1]
    return float(2.0 * np.pi - max(gaps.max(), wrap_gap))


def diameters(obj, eps_supp=None):
    """Phase and velocity diameters (d_eta, d_v) over the support.

    Ensembles use unwrapped sample phases (max - min).  Eulerian states use
    the cells with rho > eps_supp; the phase diameter is then the shortest
    covering arc on the circle.  eps_supp defaults to 1e-8 * max(rho) -- pass
    the value derived from the initial state for time-consistent support.
    """
    if isinstance(obj, FieldState):
        if eps_supp is None:
            eps_supp = 1e-8 * float(obj.rho.max())
        mask = obj.rho > eps_supp
        if mask.all():  # the plain arrays: the same values in the same order
            u, support_angles = obj.u, obj.grid.centers
        elif mask.any():
            u, support_angles = obj.u[mask], obj.grid.centers[mask.any(axis=0)]
        else:
            raise ValueError("empty support: no cells above the density floor")
        return _covering_arc(support_angles), float(u.max() - u.min())
    return _ensemble_diameters(obj, sample_support(obj))


def _ensemble_diameters(ens, support):
    return _range_over(ens.eta, support), _range_over(ens.v, support)


def sample_support(ens):
    """The `where` mask of the samples with positive weight (True if all are)."""
    mask = ens.weight > 0.0
    if not mask.any():
        raise ValueError("empty support: all sample weights vanish")
    if mask.all():
        return True  # the plain reductions, which are faster
    return mask


def _range_over(x, mask):
    """max - min of x where mask holds, without copying those entries."""
    # np.max and np.min make these calls, after a layer of Python
    high = np.maximum.reduce(x, axis=None, where=mask, initial=-np.inf)
    return float(high - np.minimum.reduce(x, axis=None, where=mask, initial=np.inf))


def series_row(obj, params, Ek_integral, support=None, trig=None, *, Ek=None,
               op=None, extrema=None, mass_err=None):
    """The SERIES_COLUMNS row of a FieldState or of a sample ensemble.

    The guise decides r and phi (moments of rho, or of the sample weights),
    mass_err (worst slice, or |sum w - 1|), min_du (min_grad_u over every
    cell, or the least d over the support) and max_rho (max rho, or
    exp(max log rho)).  An ensemble is any object with the attributes eta,
    v, d, log_rho, weight and t.  support is the field's support floor
    eps_supp (see diameters), or the ensemble's sample_support mask; trig is
    (cos eta, sin eta) of an ensemble if the caller has them.  Ek, op (the
    OrderParam), extrema (the pair max_rho, min_du; either may be None) and
    mass_err, if given, are those values as the caller computed them on
    this very obj, and are taken as they are.  The field's cell masses are
    formed once, for E_k, L, v_c and eta_c.
    """
    max_rho, min_du = (None, None) if extrema is None else extrema
    if isinstance(obj, FieldState):
        # before the cell masses: the support mask and the u values on it
        # are temporaries of their own
        d_eta, d_v = diameters(obj, support)
        trig = (obj.grid.cos, obj.grid.sin)
        if op is None:
            op = order_parameter(obj)
        if mass_err is None:
            mass_err = float(np.abs(obj.per_slice_mass() - 1.0).max())
        if min_du is None:
            min_du = min_grad_u(obj)
        if max_rho is None:
            max_rho = float(obj.rho.max())
    else:
        if trig is None:
            trig = (np.cos(obj.eta), np.sin(obj.eta))
        if op is None:
            op = ensemble_order_parameter(obj.eta, obj.weight, trig)
        if support is None:
            support = sample_support(obj)
        if mass_err is None:
            mass_err = abs(float(np.sum(obj.weight)) - 1.0)
        if min_du is None:
            min_du = float(
                np.minimum.reduce(obj.d, axis=None, where=support, initial=np.inf)
            )
        if max_rho is None:
            with np.errstate(over="ignore"):
                max_rho = float(np.exp(obj.log_rho.max()))
        d_eta, d_v = _ensemble_diameters(obj, support)
    w, ang, v = _weighted(obj)
    vc, etac = _wsum(w, v), _wsum(w, ang)
    if Ek is None:
        Ek = kinetic_energy(w, v, vc)
    Ep = _potential_energy(op, params)
    L = _lyapunov(w, v, op, params, trig)
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
    return EnvelopeParams(d_eta0, d_v0, m, K, C0, D0, regime, nu1, nu2, C1, C2)


def phase_envelope(env, t):
    """Upper bound on the phase diameter d_eta(t): gronwall_bound of
    m x'' + x' + K D0 x <= 0 from x(0) = d_eta0, x'(0) = d_v0."""
    return gronwall_bound(env.m, 1.0, env.K * env.D0, env.d_eta0, env.d_v0, t)


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
    measured = weighted_sum(ens.weight, np.abs(ens.eta - eta_inf))
    d_eta, _ = diameters(ens)
    bound = d_eta + params.m * abs(vc0) * math.exp(-ens.t / params.m)
    return measured, bound


# ---------------------------------------------------------------------------
# Blow-up detection.


@dataclass(frozen=True)
class BlowupEvent:
    t: float
    reason: str


@dataclass
class RunResult:
    """A recorded run of either solver: its diagnostics series, its end state
    (FieldState or CharEnsemble), its snapshots {t: state}, the blow-up event
    that stopped it, and the finite-volume solver's failure message (the
    oracle has none)."""

    series: TimeSeries
    final: object
    snapshots: dict
    blowup: BlowupEvent | None = None
    failure: str | None = None


def time_key(t):
    """t rounded to 12 decimals, the one form in which the package matches
    output times: rows and snapshots (record_run), the times the solvers
    step or write to, and snapshot file names (io.format_time)."""
    return round(float(t), 12)


def record_run(states, row_times, snapshot_times):
    """The RunResult of a run of either solver: the one output rule.

    states is a generator that yields (t, row, stored) for every state of
    the run as it is produced, row() building the state's series row and
    stored() the state to keep, and returns (blowup, failure).  The run
    ends on the last state yielded.  Times match by time_key: a state at
    one of row_times adds its row, a state at one of snapshot_times adds
    its snapshot under that time's key, and the end state adds its row
    unless it already has one, and is the final state.  row and stored
    read the generator's current state, so each is called before states is
    resumed; those of the last item, called once the generator has
    returned, read the end state.
    """
    row_keys = {time_key(t) for t in row_times}
    snapshot_keys = {time_key(t) for t in snapshot_times}
    rows, snapshots, t_row = [], {}, None
    while True:
        try:
            t, row, stored = next(states)
        except StopIteration as end:  # t, row and stored are the last item's
            blowup, failure = end.value
            if t != t_row:
                rows.append(row())
            return RunResult(TimeSeries(rows), stored(), snapshots, blowup, failure)
        key = time_key(t)
        if key in row_keys:
            rows.append(row())
            t_row = t
        if key in snapshot_keys:
            snapshots[key] = stored()


class BlowupMonitor:
    """Latching detector: density concentration, gradient collapse, or NaN.

    The first observed state fixes the reference max(rho0).  Once fired the
    monitor stays fired (the event is kept).
    """

    def __init__(self, rho_factor=1e3):
        self.rho_factor = rho_factor
        self.max_rho0 = None
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
        elif min_du < -BLOWUP_GRAD:
            self.event = BlowupEvent(t, "gradient-collapse")
        return self.event

    def observe(self, state):
        """Observe a FieldState; returns (max rho, min_grad_u) as computed on
        it, for its series row, with min_grad_u None where an entry is
        non-finite (it is then skipped).  The event, if any, is self.event.

        The oracle does not come through here: lagrangian.evolve runs its
        own finiteness test and its gradient-collapse test, J <= 0, on the
        ensemble.
        """
        # NaN propagates through max and min, and +-inf is an extremum, so
        # the four extrema are finite exactly when every entry is.
        rho, u = state.rho, state.u
        max_rho = float(rho.max())
        finite = all(map(math.isfinite, (max_rho, rho.min(), u.max(), u.min())))
        min_du = min_grad_u(state) if finite else None
        self.observe_values(state.t, max_rho, min_du if finite else -math.inf, finite)
        return max_rho, min_du
