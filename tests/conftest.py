"""Shared fixtures: seeded RNG and random normalized field states."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from kurahydro import (
    FieldState,
    discretize_frequency,
    make_theta_grid,
    normalize_slices,
)


ACCEPTANCE_LINES = []

# Property tests draw the same examples on every run (no example database)
# and have no per-example deadline, so a slow or busy host cannot make them
# flaky.
settings.register_profile("kurahydro", derandomize=True, deadline=None, database=None)
settings.load_profile("kurahydro")


def peak_fields(fn, field_bytes):
    """Peak memory that one call fn() allocates, in arrays of field_bytes."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / field_bytes


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def random_state_factory(rng):
    """Factory for random normalized FieldStates (positive rho, bounded u)."""

    def make(n_theta=64, n_omega=1, kind="dirac", u_scale=1.0):
        grid = make_theta_grid(n_theta)
        if kind == "dirac":
            omega = discretize_frequency("dirac")
        else:
            omega = discretize_frequency("gaussian", n_omega, 5.0)
        rho = rng.uniform(0.1, 2.0, size=(omega.n, grid.n))
        rho = normalize_slices(rho, grid.dtheta)
        u = u_scale * rng.normal(size=(omega.n, grid.n))
        return FieldState(grid, omega, rho, u)

    return make
