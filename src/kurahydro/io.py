"""CSV and manifest serialization for run directories.

Layout of a run directory:
    series.csv           diagnostics rows (fixed column order)
    snapshots/t=<T>.csv  per-slice fields (theta, omega, rho, u)
    sweep.csv            (branch, K, r_inf, blowup_flag)
    manifest.json        resolved config + code version + wall time

File format of series.csv and the snapshots:
    - the header names the columns in a fixed order (SERIES_COLUMNS for
      series.csv, SNAPSHOT_COLUMNS for a snapshot); the readers check it and
      raise ValueError naming the file on any other header;
    - every number is written with FLOAT_FMT, 17 significant digits, so a
      float64 reads back bit for bit;
    - lines end in "\\r\\n", as csv.writer writes them.

Snapshots and series are formatted in bulk (one `%` per slice or chunk of
rows) and parsed with numpy's C reader; a 600x1000 snapshot is 49 MB.  A
snapshot slice whose rho and u have the same bits as the previous slice's
(every slice of a t=0 state that does not depend on omega) reuses that
slice's formatted rows.  Snapshot rows may come in any order, but the
writer's order, omega then theta ascending, is read without sorting: the
parsed table is tested for that order and sliced into (theta, omega, rho,
u); any other table is first put in that order by one lexsort of its rows.
"""
from __future__ import annotations

import csv
import json
import os
import warnings

import numpy as np

from .diagnostics import SERIES_COLUMNS, TimeSeries

FLOAT_FMT = "%.17g"
SNAPSHOT_COLUMNS = ("theta", "omega", "rho", "u")
EOL = "\r\n"
_SERIES_CHUNK_ROWS = 4096


def _fmt(x):
    return FLOAT_FMT % float(x)


def _header(columns):
    return ",".join(columns) + EOL


def _read_table(path, columns):
    """Parse a CSV with the given header into an (n_rows, len(columns)) array."""
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n")
        if header != ",".join(columns):
            raise ValueError(
                f"{path}: header {header!r} is not {','.join(columns)!r}"
            )
        try:
            with warnings.catch_warnings():
                # an empty body is reported below, naming the file
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from err
    if data.shape[0] == 0:
        raise ValueError(f"{path}: no data rows")
    if data.shape[1] != len(columns):
        raise ValueError(f"{path}: {data.shape[1]} columns, header names {len(columns)}")
    return data


def write_series_csv(path, series):
    data = series.data
    row = ",".join([FLOAT_FMT] * data.shape[1]) + EOL
    with open(path, "w", newline="") as fh:
        fh.write(_header(SERIES_COLUMNS))
        for i in range(0, data.shape[0], _SERIES_CHUNK_ROWS):
            chunk = data[i : i + _SERIES_CHUNK_ROWS]
            fh.write((row * chunk.shape[0]) % tuple(chunk.ravel().tolist()))


def read_series_csv(path):
    return TimeSeries(_read_table(path, SERIES_COLUMNS))


def snapshot_filename(t):
    return "t=%s.csv" % ("%g" % float(t))


def parse_snapshot_time(filename):
    base = os.path.basename(filename)
    if not (base.startswith("t=") and base.endswith(".csv")):
        raise ValueError(f"not a snapshot filename: {filename}")
    return float(base[2:-4])


def list_snapshots(run_dir):
    """Map snapshot time -> path for every snapshots/t=*.csv in a run dir."""
    snap_dir = os.path.join(run_dir, "snapshots")
    out = {}
    if os.path.isdir(snap_dir):
        for name in sorted(os.listdir(snap_dir)):
            if name.startswith("t=") and name.endswith(".csv"):
                out[parse_snapshot_time(name)] = os.path.join(snap_dir, name)
    return out


def write_snapshot_csv(path, theta, omega_values, rho, u):
    """Write per-slice fields; rho/u have shape (n_omega, n_theta).

    Rows run over theta within a slice, slices in the given omega order.
    Each slice is one row template (theta already formatted) filled with
    that slice's rho and u by a single `%`; a slice whose rho and u rows
    have the same bits as the previous slice's reuses its formatted body,
    and only the omega column differs.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    omega_values = np.atleast_1d(np.asarray(omega_values, dtype=float))
    rho = np.atleast_2d(np.asarray(rho, dtype=float))
    u = np.atleast_2d(np.asarray(u, dtype=float))
    shape = (omega_values.size, theta.size)
    if rho.shape != shape or u.shape != shape:
        raise ValueError(
            f"{path}: rho {rho.shape} and u {u.shape} must both have shape {shape}"
        )
    # "\0" stands for the slice's omega; "%" never occurs in a formatted float
    rows = "".join(
        f"{FLOAT_FMT % th},\0,{FLOAT_FMT},{FLOAT_FMT}{EOL}" for th in theta.tolist()
    )
    # bits, not values: -0.0 == 0.0, but they print as -0 and 0
    rho_bits, u_bits = rho.view(np.int64), u.view(np.int64)
    body = None
    with open(path, "w", newline="") as fh:
        fh.write(_header(SNAPSHOT_COLUMNS))
        for k, om in enumerate(omega_values.tolist()):
            if body is None or not (
                np.array_equal(rho_bits[k], rho_bits[k - 1])
                and np.array_equal(u_bits[k], u_bits[k - 1])
            ):
                body = rows % tuple(np.column_stack((rho[k], u[k])).ravel().tolist())
            fh.write(body.replace("\0", FLOAT_FMT % om))


def _in_writer_order(theta, omega):
    """True if the rows ascend by omega, then by theta (equal rows allowed)."""
    om_lo, om_hi = omega[:-1], omega[1:]
    return bool(
        np.all((om_lo < om_hi) | ((om_lo == om_hi) & (theta[:-1] <= theta[1:])))
    )


def read_snapshot_csv(path):
    """Read a snapshot back as (theta, omega_values, rho, u) arrays.

    Rows may come in any order; they are read sorted by omega, then theta.
    A table the writer wrote is already in that order and is sliced as it
    is; any other table is first sorted by one lexsort of its rows.
    """
    data = _read_table(path, SNAPSHOT_COLUMNS)
    if not _in_writer_order(data[:, 0], data[:, 1]):
        data = data[np.lexsort((data[:, 0], data[:, 1]))]
    omega_flat = data[:, 1]
    n_omega = 1 + int(np.count_nonzero(omega_flat[1:] != omega_flat[:-1]))
    n_theta = omega_flat.size // n_omega
    table = data[: n_omega * n_theta].reshape(n_omega, n_theta, 4)
    # sorted, so each slice holds one omega when its first and last rows agree
    ragged = n_omega * n_theta != omega_flat.size
    if ragged or np.any(table[:, 0, 1] != table[:, -1, 1]):
        raise ValueError(f"{path}: ragged snapshot table")
    theta, omega_values, rho, u = (
        table[0, :, 0], table[:, 0, 1], table[:, :, 2], table[:, :, 3]
    )
    return theta.copy(), omega_values.copy(), rho.copy(), u.copy()


def write_sweep_csv(path, result):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["branch", "K", "r_inf", "blowup_flag"])
        for branch, points in (("forward", result.forward), ("backward", result.backward)):
            for K, r_inf, flag in points:
                writer.writerow([branch, _fmt(K), _fmt(r_inf), int(flag)])


def read_sweep_csv(path):
    forward, backward = [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            point = (float(row["K"]), float(row["r_inf"]), bool(int(row["blowup_flag"])))
            (forward if row["branch"] == "forward" else backward).append(point)
    return forward, backward


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def write_manifest(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def read_manifest(path):
    with open(path) as fh:
        return json.load(fh)
