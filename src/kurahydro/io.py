"""File formats of run directories: CSV tables, .npz snapshots, manifests.

Layout of a run directory:
    series.csv           diagnostics rows (fixed column order)
    snapshots/t=<T>.npz  per-slice fields (theta, omega, rho, u); T = format_time(t)
    sweep.csv            branch, then the fields of SweepPoint (K, r_inf, blowup_flag)
    manifest.json        resolved config + code version + wall time

series.csv is a CSV whose header names SERIES_COLUMNS in order; read_series_csv
checks it and raises ValueError naming the file on any other header.  Every
number is written with FLOAT_FMT, 17 significant digits, so a float64 reads
back bit for bit, and lines end in "\\r\\n", as csv.writer writes them.

A snapshot is one uncompressed numpy .npz holding the float64 arrays theta
(n_theta,), omega (n_omega,), rho and u (n_omega, n_theta) under the names
SNAPSHOT_COLUMNS, so every bit is kept, -0.0 and NaN included; other
shapes are refused on writing and on reading, naming the file
(domain.check_table_shapes), and so is any dtype but float64.  np.savez
dates each zip entry 1980-01-01, so the same arrays give the same bytes
whenever they are written.  An initial-condition table (config key
init_table) is a snapshot, read by the same read_snapshot_csv, so a run
restarts from any of its snapshots.  Earlier versions wrote snapshots as
t=<T>.csv; list_snapshots refuses such a file, naming it.

sweep.csv has one row per sweep point: its branch, forward or backward, then
the fields of SweepPoint, K and r_inf in FLOAT_FMT and blowup_flag as 0 or 1.
"""
from __future__ import annotations

import csv
import json
import math
import os
import warnings
import zipfile
import zlib
from io import BytesIO
from typing import NamedTuple

import numpy as np

from .diagnostics import SERIES_COLUMNS, TimeSeries, time_key
from .domain import check_table_shapes

FLOAT_FMT = "%.17g"
SNAPSHOT_COLUMNS = ("theta", "omega", "rho", "u")
EOL = "\r\n"
# .npy format version -> its header reader; np.savez writes 1.0, or 2.0
# for a header over 64 KiB
_NPY_HEADERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}
# Bytes inflated at a time from a compressed .npz entry
_INFLATE_CHUNK = 1 << 14


def _fmt(x):
    return FLOAT_FMT % float(x)


def write_series_csv(path, series):
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, series.data, fmt=FLOAT_FMT, delimiter=",", newline=EOL,
                   header=",".join(SERIES_COLUMNS), comments="")


def read_series_csv(path):
    """series.csv back as a TimeSeries; any other header, a malformed row
    or no rows raise a ValueError naming the file."""
    columns = ",".join(SERIES_COLUMNS)
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n")
        if header != columns:
            raise ValueError(f"{path}: header {header!r} is not {columns!r}")
        try:
            with warnings.catch_warnings():
                # an empty body is reported below, naming the file
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from err
    if data.shape[0] == 0:
        raise ValueError(f"{path}: no data rows")
    if data.shape[1] != len(SERIES_COLUMNS):
        raise ValueError(f"{path}: {data.shape[1]} columns, header names {len(SERIES_COLUMNS)}")
    return TimeSeries(data)


def format_time(t):
    """time_key(t), in the shortest %g form that reads back as it."""
    t = time_key(t) + 0.0  # -0.0 -> 0.0
    return next(s for p in range(1, 18) if float(s := "%.*g" % (p, t)) == t)


def snapshot_filename(t):
    return "t=%s.npz" % format_time(t)


def is_snapshot_name(name):
    """Whether a file name has the snapshot form t=*.npz."""
    return name.startswith("t=") and name.endswith(".npz")


def is_csv_snapshot_name(name):
    """Whether a file name has the form t=*.csv of an earlier version's snapshots."""
    return name.startswith("t=") and name.endswith(".csv")


def parse_snapshot_time(filename):
    """The time of a snapshot name, t=*.npz or an earlier version's t=*.csv."""
    base = os.path.basename(filename)
    if not (is_snapshot_name(base) or is_csv_snapshot_name(base)):
        raise ValueError(f"not a snapshot filename: {filename}")
    try:
        t = float(base[2:-4])
    except ValueError:
        t = math.nan
    if not 0 <= t < math.inf:  # the solvers write nonnegative finite times only
        raise ValueError(f"{filename}: {base[2:-4]!r} is not a snapshot time")
    return t


def list_snapshots(run_dir):
    """Map snapshot time -> path for every snapshots/t=*.npz in a run dir.

    A name without a nonnegative finite time, or two names of one time_key
    (t=0.npz and t=0.0.npz, or t=0.0.csv), raise a ValueError naming the
    files; so does, after those checks, a t=*.csv snapshot of an earlier
    version.
    """
    snap_dir = os.path.join(run_dir, "snapshots")
    out, first, csv_paths = {}, {}, []
    if os.path.isdir(snap_dir):
        for name in sorted(os.listdir(snap_dir)):
            path = os.path.join(snap_dir, name)
            if not (is_snapshot_name(name) or is_csv_snapshot_name(name)):
                continue
            t = parse_snapshot_time(path)
            key = time_key(t)
            if first.setdefault(key, path) != path:
                raise ValueError(f"{first[key]} and {path} name one snapshot time")
            if is_csv_snapshot_name(name):
                csv_paths.append(path)
            else:
                out[t] = path
    if csv_paths:
        raise ValueError(
            f"{csv_paths[0]}: a CSV snapshot of an earlier version; snapshots are now .npz"
        )
    return out


def write_snapshot_csv(path, theta, omega_values, rho, u):
    """Write per-slice fields as one .npz; rho/u have shape (n_omega, n_theta).

    The arrays are stored uncompressed under the names SNAPSHOT_COLUMNS.
    The name keeps its _csv suffix, as experiments._field_row is kept,
    because perfbench's tracer wraps it (ROADMAP item 11).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    omega_values = np.atleast_1d(np.asarray(omega_values, dtype=float))
    rho = np.atleast_2d(np.asarray(rho, dtype=float))
    u = np.atleast_2d(np.asarray(u, dtype=float))
    check_table_shapes(path, theta, omega_values, rho, u)
    # a file object, so np.savez writes to path itself and adds no ".npz"
    with open(path, "wb") as fh:
        np.savez(fh, **dict(zip(SNAPSHOT_COLUMNS, (theta, omega_values, rho, u))))


def _npy_header(fh):
    """(shape, fortran_order) of the .npy header read from fh; any format
    version np.savez does not write, or any dtype but float64, raises."""
    version = np.lib.format.read_magic(fh)
    if version not in _NPY_HEADERS:
        raise ValueError(f".npy format version {version}")
    shape, fortran_order, dtype = _NPY_HEADERS[version](fh)
    if dtype != np.float64:
        raise ValueError(f"{dtype}, not float64")
    return shape, fortran_order


def _read_array(npz, name):
    """The float64 array name of an open NpzFile, read-only.

    The entry's .npy header is checked before its data is read, so an
    object array is never unpickled.  A stored entry, as np.savez writes
    it, is read once and viewed in place: np.load's own npz[name] copies
    the bytes into a new array, which holds two copies at once.  A
    compressed entry is inflated _INFLATE_CHUNK bytes at a time into its
    array.
    """
    entry = name + ".npy"
    if npz.zip.getinfo(entry).compress_type == zipfile.ZIP_STORED:
        raw = npz.zip.read(entry)
        header = BytesIO(raw)
        shape, fortran_order = _npy_header(header)
        values = np.frombuffer(raw, np.float64, math.prod(shape), header.tell())
    else:
        with npz.zip.open(entry) as fh:
            shape, fortran_order = _npy_header(fh)
            values = np.empty(math.prod(shape))
            data = memoryview(values).cast("B")
            for i in range(0, len(data), _INFLATE_CHUNK):
                chunk = data[i : i + _INFLATE_CHUNK]
                if fh.readinto(chunk) < len(chunk):
                    raise ValueError(f"entry ends before the {shape} array its header names")
        values.flags.writeable = False
    return values.reshape(shape, order="F" if fortran_order else "C")


def read_snapshot_csv(path):
    """Read a snapshot (or init_table) back as (theta, omega_values, rho, u).

    The file must be an .npz holding exactly the float64 arrays named
    SNAPSHOT_COLUMNS in the shapes domain.check_table_shapes asks; anything
    else raises a ValueError naming the path.  The arrays are read-only;
    their values are the caller's to check, as domain.TableData checks a
    table's.  The name keeps its _csv suffix for perfbench's tracer, as
    write_snapshot_csv's does.
    """
    try:
        npz = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):
        npz = None  # empty, text or a pickle, or a damaged zip
    if not isinstance(npz, np.lib.npyio.NpzFile):
        raise ValueError(f"{path}: not an .npz snapshot")
    with npz:
        if sorted(npz.files) != sorted(SNAPSHOT_COLUMNS):
            raise ValueError(
                f"{path}: holds arrays {', '.join(npz.files) or 'none'}; "
                f"a snapshot holds {', '.join(SNAPSHOT_COLUMNS)}"
            )
        fields = []
        for name in SNAPSHOT_COLUMNS:
            try:
                fields.append(_read_array(npz, name))
            except (ValueError, EOFError, zipfile.BadZipFile, zlib.error) as err:
                raise ValueError(f"{path}: array {name}: {err}") from None
    check_table_shapes(path, *fields)
    return tuple(fields)


class SweepPoint(NamedTuple):
    """One point of a sweep leg, one row of sweep.csv after its branch."""

    K: float
    r_inf: float  # quasi-steady r; 1.0 when the point blew up
    blowup_flag: bool  # blow-up or a clip abort stopped the point


def write_sweep_csv(path, result):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["branch", *SweepPoint._fields])
        for branch, points in (("forward", result.forward), ("backward", result.backward)):
            for p in points:
                writer.writerow([branch, _fmt(p.K), _fmt(p.r_inf), int(p.blowup_flag)])


def read_sweep_csv(path):
    """sweep.csv back as (forward, backward) lists of SweepPoints.  Any other
    header, or a branch other than forward or backward, raises a ValueError
    naming the file."""
    header = ["branch", *SweepPoint._fields]
    legs = {"forward": [], "backward": []}
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        found = next(rows, [])
        if found != header:
            raise ValueError(f"{path}: header {','.join(found)!r} is not {','.join(header)!r}")
        for branch, K, r_inf, flag in rows:
            if branch not in legs:
                raise ValueError(f"{path}: branch {branch!r} is neither forward nor backward")
            legs[branch].append(SweepPoint(float(K), float(r_inf), bool(int(flag))))
    return legs["forward"], legs["backward"]


def write_manifest(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path):
    with open(path) as fh:
        return json.load(fh)
