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
rows) and parsed with numpy's C reader; a 600x1000 snapshot is 49 MB.
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
    Each slice is one row template (theta and omega already formatted)
    filled with that slice's rho and u by a single `%`.
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
    with open(path, "w", newline="") as fh:
        fh.write(_header(SNAPSHOT_COLUMNS))
        for k, om in enumerate(omega_values.tolist()):
            values = np.column_stack((rho[k], u[k])).ravel().tolist()
            fh.write(rows.replace("\0", FLOAT_FMT % om) % tuple(values))


def read_snapshot_csv(path):
    """Read a snapshot back as (theta, omega_values, rho, u) arrays.

    Rows may come in any order; they are sorted by omega, then theta.
    """
    data = _read_table(path, SNAPSHOT_COLUMNS)
    theta_flat, omega_flat = data[:, 0], data[:, 1]
    omega_values, inverse = np.unique(omega_flat, return_inverse=True)
    n_omega = omega_values.size
    n_theta = theta_flat.size // n_omega
    if np.any(np.bincount(inverse, minlength=n_omega) != n_theta):
        raise ValueError(f"{path}: ragged snapshot table")
    order = np.lexsort((theta_flat, inverse))
    theta = theta_flat[order][:n_theta]
    rho = data[order, 2].reshape(n_omega, n_theta)
    u = data[order, 3].reshape(n_omega, n_theta)
    return theta, omega_values, rho, u


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
