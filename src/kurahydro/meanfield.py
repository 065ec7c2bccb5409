"""Order parameter and mean-field force via the trigonometric factorization.

The nonlocal coupling integral K * int sin(theta_* - theta) rho g factorizes
as K*(S*cos(theta) - C*sin(theta)) with first moments C = <cos theta> and
S = <sin theta> of the density.  This turns the O(N^2) double sum into two
O(N) reductions; the reduction order (theta index first, then frequency
index) is fixed for bit-reproducibility.  A weighted sum over samples or
frequency nodes goes through weighted_sum, whose bits do not depend on the
BLAS thread count.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np


# OpenBLAS splits a dot product of more than this many elements across its
# threads, so that its bits depend on the thread count.
DOT_CHUNK = 10_000


def weighted_sum(w, x):
    """sum w*x of 1-D arrays, with the same bits at every BLAS thread count.

    np.dot takes DOT_CHUNK elements at a time, and the partial sums are
    added in order; up to DOT_CHUNK elements this is one np.dot.
    """
    total = float(np.dot(w[:DOT_CHUNK], x[:DOT_CHUNK]))
    for i in range(DOT_CHUNK, w.size, DOT_CHUNK):
        total += float(np.dot(w[i : i + DOT_CHUNK], x[i : i + DOT_CHUNK]))
    return total


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


def order_parameter(state):
    """Order parameter of an Eulerian state: moments of rho weighted by g.

    C = dtheta * sum_k w_k sum_j cos(theta_j) rho_jk, S likewise with sin.
    (Inner sum over theta first, then over frequency nodes.)
    """
    per_slice_c = state.rho @ state.grid.cos
    per_slice_s = state.rho @ state.grid.sin
    C = state.grid.dtheta * weighted_sum(state.omega.weights, per_slice_c)
    S = state.grid.dtheta * weighted_sum(state.omega.weights, per_slice_s)
    return _from_moments(C, S)


def ensemble_order_parameter(eta, weights, trig=None):
    """Order parameter of a weighted sample ensemble: r e^{i phi} = sum w e^{i eta}.

    trig is (cos eta, sin eta) if the caller has them already.
    """
    cos_e, sin_e = _cos_sin(eta, trig)
    return _from_moments(weighted_sum(weights, cos_e), weighted_sum(weights, sin_e))


def mean_field_force(op, theta, params, trig=None):
    """K*(S*cos(theta) - C*sin(theta)), identically K*r*sin(phi - theta).

    trig is (cos theta, sin theta) if the caller has them already.
    """
    cos_t, sin_t = _cos_sin(theta, trig)
    return params.K * (op.S * cos_t - op.C * sin_t)

