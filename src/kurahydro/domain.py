"""Grids, model parameters, frequency discretization, and initial states.

The model lives on the periodic phase circle [-pi, pi) crossed with a set of
natural frequencies Omega_k carrying probability weights w_k ~ g(Omega_k).
A FieldState holds the density rho(theta, Omega) -- per unit theta, each
Omega-slice carrying unit mass -- and the phase velocity u(theta, Omega).
Tabulated initial data (TableData) is a table in the snapshot format, read
by io.read_snapshot_csv, the one reader of that format.
"""
from __future__ import annotations

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
        if not self.m > 0:
            raise ValueError("m must be positive")
        if not self.K >= 0:
            raise ValueError("K must be nonnegative")


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
    """Frequency nodes with probability weights; kind 'dirac' or 'density'."""

    nodes: np.ndarray
    weights: np.ndarray
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "nodes", _readonly(self.nodes))
        object.__setattr__(self, "weights", _readonly(self.weights))

    @property
    def n(self):
        return self.nodes.size

    def second_moment(self):
        return float(np.sum(np.square(self.nodes) * self.weights))


def discretize_frequency(kind, n_omega=600, L=5.0, omega0=0.0):
    """Discretize the frequency distribution g.

    kind 'dirac' gives the single node omega0 with weight 1.  kind 'gaussian'
    (or any callable density) is sampled at n_omega equispaced nodes on
    [-L, L] with trapezoid weights, renormalized so the weights sum to 1.
    """
    if kind == "dirac":
        return OmegaGrid(np.array([float(omega0)]), np.array([1.0]), "dirac")
    if kind == "gaussian":
        density = gaussian_density
    elif callable(kind):
        density = kind
    else:
        raise ValueError(f"unknown frequency distribution {kind!r}")
    n_omega = int(n_omega)
    if n_omega < 2:
        raise ValueError("n_omega must be at least 2 for a density grid")
    if not L > 0:
        raise ValueError("truncation L must be positive")
    nodes = np.linspace(-L, L, n_omega)
    h = nodes[1] - nodes[0]
    w = np.asarray(density(nodes), dtype=float) * h
    w[0] *= 0.5
    w[-1] *= 0.5
    if np.any(w < 0):
        raise ValueError("frequency density must be nonnegative")
    total = w.sum()
    if not total > 0:
        raise ValueError("frequency distribution has zero mass on [-L, L]")
    return OmegaGrid(nodes, w / total, "density")


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


@dataclass(frozen=True)
class USine:
    """u0(theta) = amplitude * sin(freq * theta) + offset."""

    amplitude: float = 1.0
    freq: float = 1.0
    offset: float = 0.0


@dataclass(frozen=True)
class UCosine:
    """u0(theta) = amplitude * cos(freq * theta) + offset."""

    amplitude: float = 1.0
    freq: float = 1.0
    offset: float = 0.0


@dataclass(frozen=True)
class UConst:
    value: float = 0.0


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
        shape = (self.omega.size, self.theta.size)
        if self.theta.ndim != 1 or self.omega.ndim != 1 or not self.rho.shape == self.u.shape == shape:
            raise ValueError(
                f"{self.path}: table needs 1-D theta and omega, and rho and u of shape "
                f"{shape}; got {self.rho.shape}/{self.u.shape}"
            )

    def __eq__(self, other):
        if not isinstance(other, TableData):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("theta", "omega", "rho", "u")
        )


@dataclass(frozen=True)
class InitSpec:
    """Symbolic or tabulated initial data (rho0, u0)."""

    rho0: object = field(default_factory=RhoGaussian)
    u0: object = field(default_factory=UConst)

    @classmethod
    def from_table(cls, path):
        from .io import read_snapshot_csv  # io imports domain (via diagnostics)

        table = TableData(*read_snapshot_csv(path), path=str(path))
        return cls(rho0=table, u0=table)


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


def min_du0(u0, n_scan=8192):
    """Minimum of the analytic derivative of a symbolic u0 over the circle.

    For the sine/cosine family with |freq| >= 1 the minimum -|amplitude*freq|
    is attained exactly; otherwise a dense scan of the analytic derivative is
    used (the scan also covers non-integer frequencies below 1).
    """
    if isinstance(u0, UConst):
        return 0.0
    if isinstance(u0, (USine, UCosine)) and abs(u0.freq) >= 1.0:
        return -abs(u0.amplitude * u0.freq)
    theta = np.linspace(-np.pi, np.pi, n_scan)
    return float(np.min(evaluate_du0(u0, theta)))


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
    """Resolve an InitSpec to a normalized FieldState at t = 0."""
    if isinstance(spec.rho0, TableData):
        rho, _ = _table_to_fields(spec.rho0, grid, omega)
        if np.any(rho < 0):
            raise ValueError(f"{spec.rho0.path}: table rho has negative values")
    else:
        rho = np.broadcast_to(
            rho0_profile(spec.rho0, grid.centers), (omega.n, grid.n)
        ).copy()
    rho = normalize_slices(rho, grid.dtheta)

    if isinstance(spec.u0, TableData):
        _, u = _table_to_fields(spec.u0, grid, omega)
    else:
        u = np.broadcast_to(evaluate_u0(spec.u0, grid.centers), (omega.n, grid.n)).copy()
    return FieldState(grid, omega, rho, u, t=0.0)
