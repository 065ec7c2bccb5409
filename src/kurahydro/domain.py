"""Grids, model parameters, frequency discretization, and initial states.

The model lives on the periodic phase circle [-pi, pi) crossed with a set of
natural frequencies Omega_k carrying probability weights w_k ~ g(Omega_k).
A FieldState holds the density rho(theta, Omega) -- per unit theta, each
Omega-slice carrying unit mass -- and the phase velocity u(theta, Omega).
Initial data is either symbolic, an InitSpec of a rho0 and a u0 profile,
or tabulated, one TableData holding both fields: a snapshot .npz, which
config.resolve_config reads with io.read_snapshot_csv, the one reader of
that format, so this module reads no files.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi


def _readonly(a, dtype=float):
    """Read-only contiguous view of a (no copy if a fits); a stays writeable."""
    out = np.ascontiguousarray(a, dtype=dtype).view()
    out.flags.writeable = False
    return out


def wrap_angle(x):
    """Map angles to the fundamental domain [-pi, pi)."""
    return np.mod(np.asarray(x) + np.pi, TWO_PI) - np.pi


@dataclass(frozen=True)
class Params:
    """Inertia strength m > 0 and coupling strength K >= 0."""

    m: float
    K: float

    def __post_init__(self):
        if not 0 < self.m < math.inf:
            raise ValueError(f"m must be positive and finite, got {self.m!r}")
        if not 0 <= self.K < math.inf:
            raise ValueError(f"K must be nonnegative and finite, got {self.K!r}")


@dataclass(frozen=True)
class ThetaGrid:
    """Uniform periodic cell grid on [-pi, pi); centers at -pi + (j+1/2)*dtheta.

    cos and sin are those of the centers, computed once per grid.
    """

    n: int
    centers: np.ndarray
    dtheta: float
    cos: np.ndarray = field(init=False, compare=False, repr=False)
    sin: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "centers", _readonly(self.centers))
        object.__setattr__(self, "cos", _readonly(np.cos(self.centers)))
        object.__setattr__(self, "sin", _readonly(np.sin(self.centers)))


def make_theta_grid(n_theta):
    """Build the periodic theta grid with n_theta uniform cells."""
    n_theta = int(n_theta)
    if n_theta < 4:
        raise ValueError("n_theta must be at least 4")
    dtheta = TWO_PI / n_theta
    centers = -np.pi + (np.arange(n_theta) + 0.5) * dtheta
    return ThetaGrid(n_theta, centers, dtheta)


def gaussian_density(x):
    """Standard normal density."""
    return np.exp(-0.5 * np.square(x)) / np.sqrt(TWO_PI)


@dataclass(frozen=True)
class OmegaGrid:
    """Frequency nodes with probability weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", _readonly(self.nodes))
        object.__setattr__(self, "weights", _readonly(self.weights))

    @property
    def n(self):
        return self.nodes.size


def discretize_frequency(kind, n_omega=600, L=5.0):
    """Discretize the frequency distribution g.

    kind 'dirac' gives the single node 0 with weight 1: identical natural
    frequencies Omega0 are the same system seen from a frame rotating at
    Omega0 (theta -> theta - Omega0 t, u -> u - Omega0).  kind 'gaussian'
    samples the standard normal density at n_omega equispaced nodes on
    [-L, L] with trapezoid weights, renormalized so the weights sum to 1.
    """
    if kind == "dirac":
        return OmegaGrid(np.array([0.0]), np.array([1.0]))
    if kind != "gaussian":
        raise ValueError(f"unknown frequency distribution {kind!r}")
    n_omega = int(n_omega)
    if n_omega < 2:
        raise ValueError("n_omega must be at least 2 for a density grid")
    if not L > 0:
        raise ValueError("truncation L must be positive")
    nodes = np.linspace(-L, L, n_omega)
    h = nodes[1] - nodes[0]
    w = gaussian_density(nodes) * h
    w[0] *= 0.5
    w[-1] *= 0.5
    total = w.sum()
    if not total > 0:
        raise ValueError("frequency distribution has zero mass on [-L, L]")
    return OmegaGrid(nodes, w / total)


# ---------------------------------------------------------------------------
# Initial-condition specifications.


@dataclass(frozen=True)
class RhoGaussian:
    """Gaussian density restricted to [-pi, pi], renormalized per slice."""

    mu: float = 0.0
    sigma: float = 1.0


@dataclass(frozen=True)
class RhoUniform:
    pass


@dataclass(frozen=True)
class RhoPointCell:
    """All mass in the single cell containing theta0."""

    theta0: float = 0.0


def _check_freq(wave):
    """Refuse a wave that is not periodic on the circle."""
    if not (math.isfinite(wave.freq) and float(wave.freq).is_integer()):
        raise ValueError(
            f"wave frequency {wave.freq!r} must be a finite integer: any other "
            "wave is not periodic on the circle"
        )


@dataclass(frozen=True)
class USine:
    """u0(theta) = amplitude * sin(freq * theta) + offset, freq an integer."""

    amplitude: float = 1.0
    freq: float = 1.0
    offset: float = 0.0

    __post_init__ = _check_freq


@dataclass(frozen=True)
class UCosine:
    """u0(theta) = amplitude * cos(freq * theta) + offset, freq an integer."""

    amplitude: float = 1.0
    freq: float = 1.0
    offset: float = 0.0

    __post_init__ = _check_freq


@dataclass(frozen=True)
class UConst:
    value: float = 0.0


def check_table_shapes(path, theta, omega, rho, u):
    """Refuse, naming path, fields other than 1-D theta and omega and rho
    and u of shape (len(omega), len(theta)): the shapes of every table, and
    of every snapshot io writes or reads."""
    shape = (omega.size, theta.size)
    if theta.ndim != 1 or omega.ndim != 1 or not rho.shape == u.shape == shape:
        raise ValueError(
            f"{path}: table needs 1-D theta and omega, and rho and u of shape "
            f"{shape}; got {rho.shape}/{u.shape}"
        )


@dataclass(frozen=True)
class TableData:
    """Tabulated initial data: theta (n,), omega (k,), rho and u (k, n), all finite."""

    theta: np.ndarray
    omega: np.ndarray
    rho: np.ndarray
    u: np.ndarray
    path: str = ""

    def __post_init__(self):
        for name in ("theta", "omega", "rho", "u"):
            values = _readonly(getattr(self, name))
            object.__setattr__(self, name, values)
            if not np.isfinite(values).all():
                raise ValueError(f"{self.path}: table {name} has non-finite values")
        check_table_shapes(self.path, self.theta, self.omega, self.rho, self.u)

    def __eq__(self, other):
        if not isinstance(other, TableData):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("theta", "omega", "rho", "u")
        )


@dataclass(frozen=True)
class InitSpec:
    """Symbolic initial data: a rho0 and a u0 profile."""

    rho0: object = field(default_factory=RhoGaussian)
    u0: object = field(default_factory=UConst)


def evaluate_u0(u0, theta):
    """Evaluate a symbolic u0 spec at angles theta."""
    theta = np.asarray(theta, dtype=float)
    if isinstance(u0, USine):
        return u0.amplitude * np.sin(u0.freq * theta) + u0.offset
    if isinstance(u0, UCosine):
        return u0.amplitude * np.cos(u0.freq * theta) + u0.offset
    if isinstance(u0, UConst):
        return np.full_like(theta, float(u0.value))
    raise TypeError(f"cannot evaluate u0 spec of type {type(u0).__name__}")


def evaluate_du0(u0, theta):
    """Analytic d/dtheta of a symbolic u0 spec at angles theta."""
    theta = np.asarray(theta, dtype=float)
    if isinstance(u0, USine):
        return u0.amplitude * u0.freq * np.cos(u0.freq * theta)
    if isinstance(u0, UCosine):
        return -u0.amplitude * u0.freq * np.sin(u0.freq * theta)
    if isinstance(u0, UConst):
        return np.zeros_like(theta)
    raise TypeError(f"cannot differentiate u0 spec of type {type(u0).__name__}")


def min_du0(u0):
    """Minimum of the analytic derivative of a symbolic u0 over the circle:
    -|amplitude*freq| for a wave (attained, as freq is an integer), 0 for a
    constant."""
    if isinstance(u0, UConst):
        return 0.0
    if isinstance(u0, (USine, UCosine)):
        return -abs(u0.amplitude * u0.freq)
    raise TypeError(f"cannot differentiate u0 spec of type {type(u0).__name__}")


@dataclass(frozen=True)
class FieldState:
    """Eulerian fields rho, u with shape (n_omega, n_theta) at time t.

    rho and u are read-only views sharing memory with the caller's arrays.
    """

    grid: ThetaGrid
    omega: OmegaGrid
    rho: np.ndarray
    u: np.ndarray
    t: float = 0.0
    clipped_mass: float = 0.0

    def __post_init__(self):
        shape = (self.omega.n, self.grid.n)
        rho = np.asarray(self.rho, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if rho.shape != shape or u.shape != shape:
            raise ValueError(
                f"field arrays must have shape {shape}, got {rho.shape}/{u.shape}"
            )
        object.__setattr__(self, "rho", _readonly(rho))
        object.__setattr__(self, "u", _readonly(u))

    def per_slice_mass(self):
        """Mass of each Omega-slice (exactly 1 at t=0 by construction)."""
        return self.grid.dtheta * self.rho.sum(axis=1)


def _table_to_fields(table, grid, omega):
    """rho and u of a table whose theta and omega match grid and omega."""
    for name, values, nodes in (
        ("theta", table.theta, grid.centers), ("omega", table.omega, omega.nodes)
    ):
        if values.shape != nodes.shape or not np.allclose(values, nodes, atol=1e-9, rtol=0.0):
            raise ValueError(f"{table.path}: table {name} values do not match the grid")
    return table.rho, table.u


def rho0_profile(rho0, theta):
    """Unnormalized rho0 profile at the given angles (theta-only kinds)."""
    theta = np.asarray(theta, dtype=float)
    if isinstance(rho0, RhoGaussian):
        if not rho0.sigma > 0:
            raise ValueError("rho0 sigma must be positive")
        z = (theta - rho0.mu) / rho0.sigma
        return np.exp(-0.5 * z * z)
    if isinstance(rho0, RhoUniform):
        return np.ones(theta.size)
    if isinstance(rho0, RhoPointCell):
        profile = np.zeros(theta.size)
        j = int(np.argmin(np.abs(theta - wrap_angle(rho0.theta0))))
        profile[j] = 1.0
        return profile
    if isinstance(rho0, (USine, UCosine, UConst)):
        profile = evaluate_u0(rho0, theta)
        if np.any(profile < 0):
            raise ValueError("expression rho0 must be nonnegative")
        return profile
    raise TypeError(f"cannot evaluate rho0 spec of type {type(rho0).__name__}")


def normalize_slices(rho, dtheta):
    """Scale each Omega-slice of rho to unit mass."""
    mass = dtheta * rho.sum(axis=1, keepdims=True)
    if np.any(mass <= 0):
        raise ValueError("initial density has a zero-mass Omega-slice")
    return rho / mass


def init_state(spec, grid, omega):
    """Resolve an InitSpec or a TableData to a normalized FieldState at t = 0."""
    if isinstance(spec, TableData):
        rho, u = _table_to_fields(spec, grid, omega)
        if np.any(rho < 0):
            raise ValueError(f"{spec.path}: table rho has negative values")
    else:
        shape = (omega.n, grid.n)
        rho = np.broadcast_to(rho0_profile(spec.rho0, grid.centers), shape).copy()
        u = np.broadcast_to(evaluate_u0(spec.u0, grid.centers), shape).copy()
    return FieldState(grid, omega, normalize_slices(rho, grid.dtheta), u, t=0.0)
