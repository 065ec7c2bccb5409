"""Order parameter and mean-field force via the trigonometric factorization.

The nonlocal coupling integral K * int sin(theta_* - theta) rho g factorizes
as K*(S*cos(theta) - C*sin(theta)) with first moments C = <cos theta> and
S = <sin theta> of the density.  This turns the O(N^2) double sum into two
O(N) reductions; the reduction order (theta index first, then frequency
index) is fixed for bit-reproducibility.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np


@dataclass(frozen=True)
class OrderParam:
    """Mean-field summary (r, phi) with the raw moments C, S."""

    r: float
    phi: float
    C: float
    S: float


def _from_moments(C, S):
    r = math.hypot(C, S)
    phi = math.atan2(S, C) if r > 0.0 else 0.0
    return OrderParam(r, phi, C, S)


def _cos_sin(angles, trig):
    return trig if trig is not None else (np.cos(angles), np.sin(angles))


def order_parameter(state, trig=None):
    """Order parameter of an Eulerian state: moments of rho weighted by g.

    C = dtheta * sum_k w_k sum_j cos(theta_j) rho_jk, S likewise with sin.
    (Inner sum over theta first, then over frequency nodes.)  trig is
    (cos, sin) of the cell centres if the caller has them already.
    """
    cos_t, sin_t = _cos_sin(state.grid.centers, trig)
    per_slice_c = state.rho @ cos_t
    per_slice_s = state.rho @ sin_t
    C = state.grid.dtheta * float(np.dot(state.omega.weights, per_slice_c))
    S = state.grid.dtheta * float(np.dot(state.omega.weights, per_slice_s))
    return _from_moments(C, S)


def ensemble_order_parameter(eta, weights, trig=None):
    """Order parameter of a weighted sample ensemble: r e^{i phi} = sum w e^{i eta}.

    trig is (cos eta, sin eta) if the caller has them already.
    """
    cos_e, sin_e = _cos_sin(eta, trig)
    C = float(np.dot(weights, cos_e))
    S = float(np.dot(weights, sin_e))
    return _from_moments(C, S)


def mean_field_force(op, theta, params, trig=None):
    """K*(S*cos(theta) - C*sin(theta)), identically K*r*sin(phi - theta).

    trig is (cos theta, sin theta) if the caller has them already.
    """
    cos_t, sin_t = _cos_sin(theta, trig)
    return params.K * (op.S * cos_t - op.C * sin_t)

