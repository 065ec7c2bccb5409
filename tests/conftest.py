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


def _npz(path, **arrays):
    """Write arrays to path as an .npz, under the given names."""
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _table_fields(rho_dtype=float):
    """A valid one-slice table on the 48-cell grid, rho cast to rho_dtype."""
    theta = make_theta_grid(48).centers
    rho = np.full((1, 48), 1.0 / (2.0 * np.pi))
    return {"theta": theta, "omega": np.zeros(1), "rho": rho.astype(rho_dtype),
            "u": np.zeros((1, 48))}


def _npy(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))


def _truncated(path):
    _npz(path, **_table_fields())
    path.write_bytes(path.read_bytes()[:1000])


# Files that are not a snapshot .npz: kind -> (write one to a path, the
# reader's message after "<path>: ").  An object array is refused from its
# header, never unpickled.
BAD_NPZ = {
    "empty": (lambda path: path.write_bytes(b""), "not an .npz snapshot"),
    "csv": (lambda path: path.write_bytes(b"theta,omega,rho,u\r\n0,0,1,0\r\n"),
            "not an .npz snapshot"),
    "npy": (_npy, "not an .npz snapshot"),
    "truncated": (_truncated, "not an .npz snapshot"),
    "missing-array": (
        lambda path: _npz(path, **{k: v for k, v in _table_fields().items() if k != "u"}),
        "holds arrays theta, omega, rho; a snapshot holds theta, omega, rho, u",
    ),
    "extra-array": (
        lambda path: _npz(path, **_table_fields(), v=np.zeros((1, 48))),
        "holds arrays theta, omega, rho, u, v; a snapshot holds theta, omega, rho, u",
    ),
    "misshaped-rho": (
        lambda path: _npz(path, **{**_table_fields(), "rho": np.ones((2, 48))}),
        "table needs 1-D theta and omega, and rho and u of shape (1, 48); got (2, 48)/(1, 48)",
    ),
    "int-array": (lambda path: _npz(path, **_table_fields(int)), "array rho: int64, not float64"),
    "object-array": (lambda path: _npz(path, **_table_fields(object)),
                     "array rho: object, not float64"),
}


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
