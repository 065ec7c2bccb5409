"""CSV and manifest serialization for run directories.

Layout of a run directory:
    series.csv           diagnostics rows (fixed column order)
    snapshots/t=<T>.csv  per-slice fields (theta, omega, rho, u); T = format_time(t)
    sweep.csv            (branch, K, r_inf, blowup_flag)
    manifest.json        resolved config + code version + wall time

File format of series.csv and the snapshots:
    - the header names the columns in a fixed order (SERIES_COLUMNS for
      series.csv, SNAPSHOT_COLUMNS for a snapshot); the readers check it and
      raise ValueError naming the file on any other header;
    - every number is written with FLOAT_FMT, 17 significant digits, so a
      float64 reads back bit for bit;
    - lines end in "\\r\\n", as csv.writer writes them.

An initial-condition table (config key init_table) is a snapshot, read by
the same read_snapshot_csv, so a run restarts from any of its snapshots.

Snapshots and series are formatted in bulk (one `%` per slice or chunk of
rows) and parsed with numpy's C reader; a 600x1000 snapshot is 49 MB.  A
snapshot slice whose rho and u have the same bits as the previous slice's
(every slice of a t=0 state that does not depend on omega) reuses that
slice's formatted rows.

Snapshot rows may come in any order, but the writer's order, omega then
theta ascending, is streamed: rho and u are allocated for one row per line
of the file (a newline count), and the rows are parsed in chunks straight
into them.  theta and omega are read as texts, not numbers: a slice is a
run of rows with one omega text, and each chunk is checked as it arrives
for a slice start exactly every n_theta rows and each row's theta text
equal to the first slice's.  Only the first slice's theta texts and the
omega text at each slice start are parsed, once, and must ascend.  That
parses half the numbers: a 600x1000 snapshot read in 0.62 s instead of
0.77 s (best of 3), with the same bits.  A chunk is about 1/64 of the
rows, at least 64 and at most _SNAPSHOT_CHUNK_ROWS, because np.loadtxt
with max_rows=R allocates its result and buffers for R rows before it
parses (32k-row chunks peaked at 19 fields on a 64x200 file), and texts
cost more than numbers there (a chunk of 1/32 peaked at 3.2 fields, 1/64
at 2.9; 8192 rows of text took 1.2 MB beyond rho and u, 4096 rows 0.6 MB,
as 8192 rows of numbers did), while each call has a fixed cost (512-row
chunks read a 600x1000 snapshot about 10% slower than 8192).  Any other
table -- out of order, ragged, malformed, with lines that are not one row
each (blank lines, bare CR endings), or with texts that differ but read as
equal values (omega 1 and 1.0) -- falls back to parsing the whole table
and sorting it by one lexsort of its rows; the fallback also raises every
error, so a message names the row in the file, not in a chunk.
"""
from __future__ import annotations

import csv
import json
import math
import os
import warnings

import numpy as np

from .diagnostics import SERIES_COLUMNS, TimeSeries, time_key

FLOAT_FMT = "%.17g"
SNAPSHOT_COLUMNS = ("theta", "omega", "rho", "u")
EOL = "\r\n"
_SERIES_CHUNK_ROWS = 4096
# Most rows per parse of a streamed snapshot read (see _stream_snapshot).
_SNAPSHOT_CHUNK_ROWS = 4096
# Bytes of each theta and omega text in a streamed read: FLOAT_FMT writes
# at most 24 characters, so a text that fills all 25 may have been cut.
_TEXT_BYTES = 25
_SNAPSHOT_ROW = np.dtype([
    ("theta", f"S{_TEXT_BYTES}"), ("omega", f"S{_TEXT_BYTES}"), ("rho", float), ("u", float)
])


def _fmt(x):
    return FLOAT_FMT % float(x)


def _header(columns):
    return ",".join(columns) + EOL


def _check_header(fh, path, columns):
    header = fh.readline().rstrip("\r\n")
    if header != ",".join(columns):
        raise ValueError(f"{path}: header {header!r} is not {','.join(columns)!r}")


def _read_table(path, columns):
    """Parse a CSV with the given header into an (n_rows, len(columns)) array."""
    with open(path) as fh:
        _check_header(fh, path, columns)
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


def format_time(t):
    """time_key(t), in the shortest %g form that reads back as it."""
    t = time_key(t) + 0.0  # -0.0 -> 0.0
    return next(s for p in range(1, 18) if float(s := "%.*g" % (p, t)) == t)


def snapshot_filename(t):
    return "t=%s.csv" % format_time(t)


def is_snapshot_name(name):
    """Whether a file name has the snapshot form t=*.csv."""
    return name.startswith("t=") and name.endswith(".csv")


def parse_snapshot_time(filename):
    base = os.path.basename(filename)
    if not is_snapshot_name(base):
        raise ValueError(f"not a snapshot filename: {filename}")
    try:
        t = float(base[2:-4])
    except ValueError:
        t = math.nan
    if not 0 <= t < math.inf:  # the solvers write nonnegative finite times only
        raise ValueError(f"{filename}: {base[2:-4]!r} is not a snapshot time")
    return t


def list_snapshots(run_dir):
    """Map snapshot time -> path for every snapshots/t=*.csv in a run dir.

    A name without a nonnegative finite time, or two names of one time_key
    (t=0.csv and t=0.0.csv), raise a ValueError naming the files.
    """
    snap_dir = os.path.join(run_dir, "snapshots")
    out, first = {}, {}
    if os.path.isdir(snap_dir):
        for name in sorted(filter(is_snapshot_name, os.listdir(snap_dir))):
            path = os.path.join(snap_dir, name)
            t = parse_snapshot_time(path)
            key = time_key(t)
            if first.setdefault(key, path) != path:
                raise ValueError(f"{first[key]} and {path} name one snapshot time")
            out[t] = path
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


def _count_lines(path):
    """Lines after the header: newlines, plus an unterminated last line."""
    n, last = 0, b"\n"
    with open(path, "rb") as fh:
        fh.readline()
        for block in iter(lambda: fh.read(1 << 16), b""):
            n += block.count(b"\n")
            last = block[-1:]
    return n + (last != b"\n")


def _parse_texts(texts):
    """The float values of a 1-D array of byte texts, parsed by np.loadtxt
    as one CSV line (the whole-table reader's parser), or None if one is
    not a number."""
    line = b",".join(texts.tolist()).decode("latin-1")
    try:
        values = np.loadtxt([line], delimiter=",", ndmin=1)
    except ValueError:
        return None
    return values if values.shape == texts.shape else None


def _stream_snapshot(path):
    """(theta, omega_values, rho, u) of a table in the writer's order, or None.

    The rows are parsed in chunks of 1/64 of the rows (64 to
    _SNAPSHOT_CHUNK_ROWS), rho and u as numbers straight into arrays
    preallocated for one row per line of the file, theta and omega as their
    texts.  A slice is a run of rows with one omega text; each must be
    n_theta rows long (the first slice's length) and hold the first slice's
    theta texts in the first slice's order.  Only those n_theta theta texts
    and the omega text at each slice start are parsed, once, and they must
    ascend: theta within the slice, omega from slice to slice.  Any other
    table -- out of order, ragged, malformed, with lines that hold no row,
    or with texts that differ but read as equal values -- gives None.
    """
    n_rows = _count_lines(path)
    rho, u = np.empty(n_rows), np.empty(n_rows)
    theta_parts, omega_parts = [], []
    theta = n_theta = prev_omega = None
    with open(path) as fh, warnings.catch_warnings():
        _check_header(fh, path, SNAPSHOT_COLUMNS)
        # a file that ends early gives a short chunk, which returns None
        warnings.simplefilter("ignore", UserWarning)
        # np.loadtxt allocates its result and buffers for max_rows rows before
        # it parses, so a chunk is kept to about 1/64 of the rows; each parse
        # has a fixed cost too, hence at least 64 rows
        step = min(_SNAPSHOT_CHUNK_ROWS, max(64, n_rows // 64))
        for done in range(0, n_rows, step):
            want = min(step, n_rows - done)
            try:
                chunk = np.loadtxt(fh, _SNAPSHOT_ROW, delimiter=",", ndmin=1, max_rows=want)
            except ValueError:
                return None
            if chunk.shape != (want,):
                return None
            # a text that fills its column may have been cut short: the last
            # byte of theta's column and of omega's must be the padding 0
            last = chunk.view(np.uint8).reshape(want, -1)[:, _TEXT_BYTES - 1 :: _TEXT_BYTES]
            if last[:, :2].any():
                return None
            th, om = chunk["theta"], chunk["omega"]
            # the file's rows where a slice starts
            starts = done + np.flatnonzero(om[1:] != om[:-1]) + 1
            if prev_omega != om[0]:
                starts = np.concatenate(([done], starts))
            if n_theta is None:
                theta_parts.append(th.copy())
                later = starts[starts > 0]
                n_theta = int(later[0]) if later.size else None
                if n_theta is not None:
                    theta = np.concatenate(theta_parts)[:n_theta]
            if n_theta is not None:
                first = -(-done // n_theta) * n_theta
                if not np.array_equal(starts, np.arange(first, done + want, n_theta)):
                    return None
                if not np.array_equal(th, theta[np.arange(done, done + want) % n_theta]):
                    return None
            omega_parts.append(om[starts - done])
            rho[done : done + want] = chunk["rho"]
            u[done : done + want] = chunk["u"]
            prev_omega = om[-1]
            del chunk, th, om, last  # before the next chunk is parsed
        if fh.read().strip():
            return None  # rows that the line count missed
    n_theta = n_rows if n_theta is None else n_theta
    if n_rows == 0 or n_rows % n_theta:
        return None
    theta = _parse_texts(np.concatenate(theta_parts) if theta is None else theta)
    omega = _parse_texts(np.concatenate(omega_parts))
    # NaN compares false, so a NaN text gives None too
    if theta is None or omega is None or not (
        np.all(theta[1:] >= theta[:-1]) and np.all(omega[1:] > omega[:-1])
    ):
        return None
    shape = (n_rows // n_theta, n_theta)
    return theta, omega, rho.reshape(shape), u.reshape(shape)


def read_snapshot_csv(path):
    """Read a snapshot back as (theta, omega_values, rho, u) arrays.

    Rows may come in any order; they are read sorted by omega, then theta.
    Every slice must hold the first slice's theta values exactly.  A table
    in the writer's order is streamed into rho and u chunk by chunk
    (see _stream_snapshot); any other table is parsed whole and sorted by
    one lexsort of its rows.
    """
    fields = _stream_snapshot(path)
    if fields is not None:
        return fields
    data = _read_table(path, SNAPSHOT_COLUMNS)
    data = data[np.lexsort((data[:, 0], data[:, 1]))]
    omega_flat = data[:, 1]
    n_omega = 1 + int(np.count_nonzero(omega_flat[1:] != omega_flat[:-1]))
    n_theta = omega_flat.size // n_omega
    table = data[: n_omega * n_theta].reshape(n_omega, n_theta, 4)
    # sorted, so each slice holds one omega when its first and last rows agree
    ragged = n_omega * n_theta != omega_flat.size
    if ragged or np.any(table[:, 0, 1] != table[:, -1, 1]):
        raise ValueError(f"{path}: ragged snapshot table")
    if np.any(table[1:, :, 0] != table[0, :, 0]):
        raise ValueError(f"{path}: slices lie on different theta grids")
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
