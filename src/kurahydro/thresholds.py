"""Critical-slope classification and gradient comparison curves.

Along characteristics the velocity slope d = du/dtheta obeys a Riccati
equation forced by the mean field; bounding the forcing by +/- K/m gives two
autonomous comparison equations whose equilibria are the critical slopes
    d_pm      = (-1 +/- sqrt(1 - 4Km)) / (2m)   (real iff 4Km <= 1),
    d*_pm     = (-1 +/- sqrt(1 + 4Km)) / (2m)   (always real).
Initial data with min du0 >= d_minus keeps its gradient bounded below for all
time (subcritical); min du0 < d*_minus forces finite-time gradient blow-up
(supercritical); the band in between is indeterminate by these tests alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import InitSpec, TableData, min_du0


@dataclass(frozen=True)
class CriticalRoots:
    """The four critical slopes; d_minus/d_plus are None when 4Km > 1."""

    d_minus: float | None
    d_plus: float | None
    d_star_minus: float
    d_star_plus: float
    discriminant: float


def critical_roots(params):
    """Critical slopes for the gradient comparison equations."""
    m, K = params.m, params.K
    disc = 1.0 - 4.0 * K * m
    star = math.sqrt(1.0 + 4.0 * K * m)
    d_star_minus = (-1.0 - star) / (2.0 * m)
    d_star_plus = (-1.0 + star) / (2.0 * m)
    if disc >= 0.0:
        root = math.sqrt(disc)
        d_minus = (-1.0 - root) / (2.0 * m)
        d_plus = (-1.0 + root) / (2.0 * m)
    else:
        d_minus = d_plus = None
    return CriticalRoots(d_minus, d_plus, d_star_minus, d_star_plus, disc)


SUBCRITICAL = "subcritical"
SUPERCRITICAL = "supercritical"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class ThresholdVerdict:
    """Classification of initial data against the critical slopes."""

    category: str
    min_du0: float
    margin: float
    roots: CriticalRoots
    blowup_time_bound: float | None

    def as_dict(self):
        r = self.roots
        return {
            "category": self.category,
            "min_du0": self.min_du0,
            "margin": self.margin,
            "d_minus": r.d_minus,
            "d_plus": r.d_plus,
            "d_star_minus": r.d_star_minus,
            "d_star_plus": r.d_star_plus,
            "blowup_time_bound": self.blowup_time_bound,
        }


def _category_of(value, roots):
    if value < roots.d_star_minus:
        return SUPERCRITICAL
    if roots.d_minus is not None and value >= roots.d_minus:
        return SUBCRITICAL
    return INDETERMINATE


def classify_value(value, params, margin=0.0):
    """Verdict for a known min du0, widened to indeterminate within +/-margin."""
    if not margin >= 0.0:
        raise ValueError(f"margin must be nonnegative, got {margin}")
    roots = critical_roots(params)
    cat = _category_of(value - margin, roots)
    if cat != _category_of(value + margin, roots):
        cat = INDETERMINATE
    bound = None
    if cat == SUPERCRITICAL:
        bound = blowup_time_bound(value + margin, params)
    return ThresholdVerdict(cat, float(value), float(margin), roots, bound)


def _tabulated_min_du(u, dtheta):
    """Centered-difference min du and a curvature-based uncertainty margin."""
    du = (np.roll(u, -1, axis=-1) - np.roll(u, 1, axis=-1)) / (2.0 * dtheta)
    d2u = (np.roll(u, -1, axis=-1) - 2.0 * u + np.roll(u, 1, axis=-1)) / dtheta**2
    margin = 2.0 * dtheta * float(np.max(np.abs(d2u)))
    return float(np.min(du)), margin


def classify(source, params):
    """Classify initial data: a u0 spec, an InitSpec, or TableData.

    Symbolic profiles use the exact analytic min du0 (margin 0).  Tabulated
    data (an init_table, or TableData itself) uses centered differences with
    an indeterminate margin of 2*dtheta*max|d2u| to absorb the
    discretization error.
    """
    if isinstance(source, InitSpec):
        source = source.u0
    if isinstance(source, TableData):
        steps = np.diff(source.theta)
        if steps.size < 3:
            raise ValueError("tabulated slice too short to differentiate")
        if not np.allclose(steps, steps[0], rtol=0.0, atol=1e-9):
            raise ValueError("tabulated theta grid must be uniform")
        m0, margin = _tabulated_min_du(source.u, steps[0])
        return classify_value(m0, params, margin)
    return classify_value(min_du0(source), params, 0.0)


def blowup_time_bound(d0, params):
    """Upper bound 1/(d*_minus - d0) on the gradient blow-up time."""
    ds = critical_roots(params).d_star_minus
    if not d0 < ds:
        raise ValueError("blow-up bound requires min du0 < d_star_minus")
    return 1.0 / (ds - d0)


def riccati_comparison(d0, params, t):
    """Lower-bound curve q(t): q' = -q^2 - q/m - K/m with q(0) = d0.

    Requires 4Km <= 1 (real roots).  Written in the e^{-x} form,
    x = (d_plus - d_minus) t, which is stable for large t; q -> d_plus.
    For d0 >= d_minus the curve exists for all t >= 0 and bounds min du(t)
    from below.
    """
    roots = critical_roots(params)
    if roots.d_minus is None:
        raise ValueError("riccati comparison curve requires 4*K*m <= 1")
    t = np.asarray(t, dtype=float)
    dm, dp = roots.d_minus, roots.d_plus
    if dp == dm or d0 == dm:
        if dp == dm:  # double root: q = dm + a/(1 + a t)
            a = d0 - dm
            return dm + a / (1.0 + a * t)
        return np.full(t.shape, dm)
    a = d0 - dm
    b = dp - d0
    ex = np.exp(-(dp - dm) * t)
    return (dp * a + dm * b * ex) / (a + b * ex)


def supercritical_envelope(d0, params, t):
    """Upper bound d(t) <= d*_minus + 1/(1/(d0 - d*_minus) + t) for d0 < d*_minus.

    The bound diverges to -infinity at t = 1/(d*_minus - d0); evaluation at or
    past that pole is an error.
    """
    ds = critical_roots(params).d_star_minus
    pole = blowup_time_bound(d0, params)
    t = np.asarray(t, dtype=float)
    if np.any(t >= pole):
        raise ValueError(f"envelope undefined at or past the pole t = {pole:.6g}")
    return ds + 1.0 / (1.0 / (d0 - ds) + t)


def subcritical_density_bound(rho0, params, t):
    """Upper bound rho0 * exp(-d_minus t) along subcritical characteristics."""
    roots = critical_roots(params)
    if roots.d_minus is None:
        raise ValueError("subcritical density bound requires 4*K*m <= 1")
    return np.asarray(rho0, dtype=float) * np.exp(-roots.d_minus * np.asarray(t))


def supercritical_density_bound(rho0, d0, params, t):
    """Lower bound rho0 * exp(-d*_minus t) / |1 - (d*_minus - d0) t|.

    Valid for a characteristic starting at slope d0 < d*_minus; the bound
    diverges at the blow-up time bound.
    """
    ds = critical_roots(params).d_star_minus
    if not d0 < ds:
        raise ValueError("supercritical density bound requires d0 < d_star_minus")
    t = np.asarray(t, dtype=float)
    return (
        np.asarray(rho0, dtype=float)
        * np.exp(-ds * t)
        / np.abs(1.0 - (ds - d0) * t)
    )
