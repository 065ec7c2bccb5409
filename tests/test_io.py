"""Run-directory file format: exact bytes, bitwise round trips, loud failures."""
from __future__ import annotations

import io
import pickle
import struct
import zipfile
import zlib

import numpy as np
import pytest
from conftest import BAD_NPZ, peak_fields

from kurahydro import io as run_io
from kurahydro.diagnostics import SERIES_COLUMNS, TimeSeries
from kurahydro.domain import TableData, discretize_frequency, init_state, make_theta_grid
from kurahydro.io import (
    read_series_csv,
    read_snapshot_csv,
    write_series_csv,
    write_snapshot_csv,
)


# ---------------------------------------------------------------------------
# snapshot file names


def test_snapshot_filename_is_the_time_at_12_decimals():
    """The name is %g whenever %g reads back, so the shipped runs keep their
    names; more digits only when needed, none past the 12th decimal, and
    -0.0 is named 0."""
    cases = [
        (0.0, "t=0.npz"), (-0.0, "t=0.npz"), (5.0, "t=5.npz"), (0.5, "t=0.5.npz"),
        (0.05, "t=0.05.npz"), (0.62, "t=0.62.npz"), (0.1 + 0.2, "t=0.3.npz"),
        (0.1234561, "t=0.1234561.npz"), (0.1234564, "t=0.1234564.npz"),
        (2.5 + 4e-13, "t=2.5.npz"), (1e-12, "t=1e-12.npz"),
        (123.4567890123456, "t=123.456789012346.npz"),
    ]
    for t, name in cases:
        assert run_io.snapshot_filename(t) == name
        assert run_io.parse_snapshot_time(name) == round(t, 12)


# ---------------------------------------------------------------------------
# golden bytes: series.csv's header, %.17g, \r\n; a snapshot's zip entries


def test_snapshot_golden_bytes(tmp_path):
    """One uncompressed zip entry per array, in SNAPSHOT_COLUMNS order, each
    exactly numpy's .npy bytes of the array."""
    path = tmp_path / "t=0.npz"
    theta = np.array([0.0, 0.1, 2.5])
    omega = np.array([-1.0, 0.5])
    rho = np.array([[1.0, 0.25, 1.0 / 3.0], [2.0, 0.0, 1e-300]])
    u = np.array([[-0.5, 0.1, 3.0], [0.0, -2.5, 1e20]])
    write_snapshot_csv(str(path), theta, omega, rho, u)
    with zipfile.ZipFile(path) as zf:
        infos = zf.infolist()
        assert [info.filename for info in infos] == ["theta.npy", "omega.npy", "rho.npy", "u.npy"]
        for info, values in zip(infos, (theta, omega, rho, u)):
            npy = io.BytesIO()
            np.lib.format.write_array(npy, values)
            assert info.compress_type == zipfile.ZIP_STORED
            assert zf.read(info) == npy.getvalue()


def test_snapshot_zip_entries_carry_the_fixed_1980_date(tmp_path, rng):
    """np.savez dates every entry 1980-01-01 00:00, not the clock, so one
    snapshot written twice has the same bytes and tools/same_bits.py can
    compare snapshots by bytes."""
    fields = _signed_zero_snapshot(rng, 3, 8)
    first, again = tmp_path / "first.npz", tmp_path / "again.npz"
    write_snapshot_csv(str(first), *fields)
    write_snapshot_csv(str(again), *fields)
    with zipfile.ZipFile(first) as zf:
        assert {info.date_time for info in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}
    assert first.read_bytes() == again.read_bytes()


def test_series_golden_bytes(tmp_path):
    path = tmp_path / "series.csv"
    data = np.vstack([np.arange(14) * 0.25, np.full(14, 1.0 / 3.0)])
    write_series_csv(str(path), TimeSeries(data))
    assert path.read_bytes() == (
        b"t,r,phi,Ek,Ep,vc,etac,d_eta,d_v,L,mass_err,min_du,max_rho,Ek_integral\r\n"
        b"0,0.25,0.5,0.75,1,1.25,1.5,1.75,2,2.25,2.5,2.75,3,3.25\r\n"
        + b",".join([b"0.33333333333333331"] * 14)
        + b"\r\n"
    )


def test_series_golden_bytes_of_special_values(tmp_path):
    """Signed zeros, NaN, infinities, the smallest subnormals, a huge value,
    0.1 and 1/3, cycled through three rows: the text the writer has written
    since series.csv took %.17g."""
    path = tmp_path / "series.csv"
    values = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e300, 0.1, 1.0 / 3.0]
    write_series_csv(str(path), TimeSeries(np.resize(values, (3, 14))))
    assert path.read_bytes() == (
        b"t,r,phi,Ek,Ep,vc,etac,d_eta,d_v,L,mass_err,min_du,max_rho,Ek_integral\r\n"
        b"0,-0,nan,inf,-inf,4.9406564584124654e-324,-4.9406564584124654e-324,"
        b"1.0000000000000001e+300,0.10000000000000001,0.33333333333333331,0,-0,nan,inf\r\n"
        b"-inf,4.9406564584124654e-324,-4.9406564584124654e-324,1.0000000000000001e+300,"
        b"0.10000000000000001,0.33333333333333331,0,-0,nan,inf,-inf,4.9406564584124654e-324,"
        b"-4.9406564584124654e-324,1.0000000000000001e+300\r\n"
        b"0.10000000000000001,0.33333333333333331,0,-0,nan,inf,-inf,4.9406564584124654e-324,"
        b"-4.9406564584124654e-324,1.0000000000000001e+300,0.10000000000000001,"
        b"0.33333333333333331,0,-0\r\n"
    )


# ---------------------------------------------------------------------------
# bitwise round trips


def _signed_zero_snapshot(rng, n_omega, n_theta):
    theta = np.linspace(-np.pi, np.pi, n_theta, endpoint=False)
    omega = np.sort(rng.normal(size=n_omega))
    rho = rng.lognormal(size=(n_omega, n_theta))
    u = rng.normal(size=(n_omega, n_theta))
    rho[:, ::3] = 0.0
    u[:, 1::4] = -0.0
    return theta, omega, rho, u


@pytest.mark.parametrize("n_omega,n_theta", [(1, 64), (5, 17), (3, 1)])
def test_snapshot_round_trip_is_bitwise(tmp_path, rng, n_omega, n_theta):
    """Every bit comes back, -0.0, NaN and subnormal or huge values included."""
    path = str(tmp_path / "snap.npz")
    theta = np.sort(rng.uniform(-np.pi, np.pi, n_theta))
    omega = np.sort(rng.normal(size=n_omega))
    rho = rng.lognormal(size=(n_omega, n_theta)) * 10.0 ** rng.integers(
        -200, 200, size=(n_omega, n_theta)
    )
    u = rng.normal(size=(n_omega, n_theta))
    rho[:, ::2] = -0.0
    u[-1, -1] = np.nan
    write_snapshot_csv(path, theta, omega, rho, u)
    for written, read in zip((theta, omega, rho, u), read_snapshot_csv(path)):
        assert read.dtype == np.float64 and read.shape == written.shape
        assert read.tobytes() == written.tobytes()


def test_dirac_snapshot_from_1d_fields(tmp_path, rng):
    """A single slice given as 1-D arrays and a scalar omega."""
    path = str(tmp_path / "snap.npz")
    theta = np.linspace(-np.pi, np.pi, 32, endpoint=False)
    rho, u = rng.random(32), rng.normal(size=32)
    rho[3], u[5] = -0.0, np.nan
    write_snapshot_csv(path, theta, 0.0, rho, u)
    theta_r, omega_r, rho_r, u_r = read_snapshot_csv(path)
    assert theta_r.tobytes() == theta.tobytes()
    assert np.array_equal(omega_r, [0.0])
    assert rho_r.shape == u_r.shape == (1, 32)
    assert rho_r.tobytes() == rho.tobytes() and u_r.tobytes() == u.tobytes()


@pytest.mark.parametrize("n_rows", [1, 2, 9000])
def test_series_round_trip_is_bitwise(tmp_path, rng, n_rows):
    path = str(tmp_path / "series.csv")
    data = rng.normal(size=(n_rows, len(SERIES_COLUMNS))) * 10.0 ** rng.integers(
        -300, 300, size=(n_rows, len(SERIES_COLUMNS))
    )
    write_series_csv(path, TimeSeries(data))
    back = read_series_csv(path)
    assert back.data.shape == data.shape
    assert np.array_equal(back.data, data)


def test_shuffled_snapshot_reads_the_same_bits_as_writer_order(tmp_path, rng):
    """Arrays are read by name: a hand-made .npz that stores them in another
    order, compressed, reads the writer's bits."""
    path = tmp_path / "snap.npz"
    fields = _signed_zero_snapshot(rng, 6, 40)
    write_snapshot_csv(str(path), *fields)
    shuffled = tmp_path / "shuffled.npz"
    theta, omega, rho, u = fields
    np.savez_compressed(shuffled, u=u, rho=rho, omega=omega, theta=theta)
    in_order = read_snapshot_csv(str(path))
    for written, ordered, from_shuffled in zip(fields, in_order, read_snapshot_csv(str(shuffled))):
        assert ordered.tobytes() == from_shuffled.tobytes() == written.tobytes()
        assert ordered.flags.c_contiguous and from_shuffled.flags.c_contiguous


def test_snapshot_read_peaks_below_three_fields(tmp_path, rng):
    """A 64x200 snapshot: rho and u are views of their entries' bytes
    (2 fields), read once each.  np.load's npz[name], which copies an entry
    into a new array, peaked at 4.2 fields."""
    path = str(tmp_path / "snap.npz")
    fields = _signed_zero_snapshot(rng, 64, 200)
    write_snapshot_csv(path, *fields)
    read_snapshot_csv(path)
    peak = peak_fields(lambda: read_snapshot_csv(path), fields[2].nbytes)
    assert peak <= 3, peak


def test_compressed_snapshot_read_peaks_within_a_quarter_field_of_stored(tmp_path, rng):
    """A 256x1000 table saved with np.savez_compressed is inflated a chunk
    at a time into its arrays, with the stored table's bits.  Reading each
    deflated entry whole peaked at 5.7 fields, against 2.0 stored."""
    fields = dict(zip(run_io.SNAPSHOT_COLUMNS, _signed_zero_snapshot(rng, 256, 1000)))
    stored, compressed = str(tmp_path / "stored.npz"), str(tmp_path / "compressed.npz")
    np.savez(stored, **fields)
    np.savez_compressed(compressed, **fields)
    for a, b in zip(read_snapshot_csv(stored), read_snapshot_csv(compressed)):
        assert a.tobytes() == b.tobytes() and not b.flags.writeable
    peak_stored, peak_compressed = (
        peak_fields(lambda path=path: read_snapshot_csv(path), fields["rho"].nbytes)
        for path in (stored, compressed)
    )
    assert peak_compressed <= peak_stored + 0.25, (peak_compressed, peak_stored)


def test_a_compressed_entry_that_does_not_inflate_names_the_file(tmp_path):
    """A damaged deflate stream raised zlib.error past the reader's checks:
    a traceback, not an error line, in the command line."""
    path = tmp_path / "damaged.npz"
    rho = np.ones((1, 3))
    np.savez_compressed(path, theta=np.zeros(3), omega=np.zeros(1), rho=rho, u=np.zeros((1, 3)))
    npy = io.BytesIO()
    np.lib.format.write_array(npy, rho)
    deflate = zlib.compressobj(zlib.Z_DEFAULT_COMPRESSION, zlib.DEFLATED, -15)
    stream = deflate.compress(npy.getvalue()) + deflate.flush()
    data = path.read_bytes()
    at = data.index(stream)
    path.write_bytes(data[:at] + b"\xff" * len(stream) + data[at + len(stream):])
    with pytest.raises(ValueError, match="damaged.npz: array rho: "):
        read_snapshot_csv(str(path))


def test_snapshot_arrays_are_read_only(tmp_path, rng):
    path = str(tmp_path / "snap.npz")
    write_snapshot_csv(path, *_signed_zero_snapshot(rng, 2, 8))
    for values in read_snapshot_csv(path):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0


def test_repeated_slices_are_written_from_their_own_bits(tmp_path):
    """Equal slices are each stored as they are, -0.0 apart from 0.0."""
    path = tmp_path / "t=0.npz"
    theta = np.array([0.0, 0.5])
    omega = np.array([-1.0, 0.0, 1.0, 2.0])
    rho = np.array([[0.25, 0.0], [0.25, 0.0], [0.25, -0.0], [0.25, -0.0]])
    u = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [1.0, 3.0]])
    write_snapshot_csv(str(path), theta, omega, rho, u)
    for written, read in zip((theta, omega, rho, u), read_snapshot_csv(str(path))):
        assert read.tobytes() == written.tobytes()


# ---------------------------------------------------------------------------
# .npy header texts of other writers: the reader parses each header and
# starts the data where the header's length field says it ends


def _npz_with_header(path, fields, name, header, version=(1, 0)):
    """fields as an .npz whose entry name has the .npy header text header
    (shape filled in), in format version; the others as np.save writes them."""
    with zipfile.ZipFile(path, "w") as zf:
        for key, values in zip(run_io.SNAPSHOT_COLUMNS, fields):
            npy = io.BytesIO()
            if key == name:
                text = header.replace("SHAPE", repr(values.shape)).encode()
                length = struct.pack("<H" if version == (1, 0) else "<I", len(text))
                npy.write(np.lib.format.magic(*version) + length + text + values.tobytes())
            else:
                np.lib.format.write_array(npy, values)
            zf.writestr(key + ".npy", npy.getvalue())


def _reads_the_writer_bits(tmp_path, rng, name, header, version=(1, 0)):
    fields = _signed_zero_snapshot(rng, 6, 40)
    path = tmp_path / "other_writer.npz"
    _npz_with_header(path, fields, name, header, version)
    for written, read in zip(fields, read_snapshot_csv(str(path))):
        assert read.tobytes() == written.tobytes() and read.shape == written.shape


@pytest.mark.parametrize(
    "name, header, version",
    [
        ("theta", "{'shape': SHAPE, 'fortran_order': False, 'descr': '<f8'}\n", (1, 0)),
        ("omega", "{'descr': '<d', 'fortran_order': False, 'shape': SHAPE}\n", (1, 0)),
        ("rho", "{'descr': '<f8', 'fortran_order': False, 'shape': SHAPE, }\n", (2, 0)),
    ],
    ids=["theta-text", "omega-text", "long-text"],
)
def test_texts_that_differ_from_the_writers_are_read_whole(tmp_path, rng, name, header, version):
    """Header texts np.save does not write: theta's keys in another order,
    omega's dtype spelled '<d', and rho's header in format version 2.0,
    whose length field is 4 bytes long.  None is padded as np.save pads."""
    _reads_the_writer_bits(tmp_path, rng, name, header, version)


@pytest.mark.parametrize("ending", ["no-final-newline", "lf-only"])
def test_snapshot_line_endings_read_the_writer_bits(tmp_path, rng, ending):
    """np.save ends a header text with one LF; rho's header without it
    reads the same bits."""
    header = "{'descr': '<f8', 'fortran_order': False, 'shape': SHAPE, }"
    _reads_the_writer_bits(tmp_path, rng, "rho", header + ("\n" if ending == "lf-only" else ""))


@pytest.mark.parametrize(
    "header",
    [
        "{'descr': '<f8',\n\n 'fortran_order': False,\n 'shape': SHAPE}\n",
        "{'descr': '<f8', 'fortran_order': False, 'shape': SHAPE}\n\n",
        "{'descr': '<f8',\r 'fortran_order': False,\r 'shape': SHAPE}\r",
    ],
    ids=["blank-line", "blank-last-line", "cr-only"],
)
def test_snapshot_lines_without_one_row_each_read_whole(tmp_path, rng, header):
    """np.save writes a header text as one line; u's header over several
    lines, with a blank line, a blank last line or bare CR endings, is read
    whole."""
    _reads_the_writer_bits(tmp_path, rng, "u", header)


# ---------------------------------------------------------------------------
# malformed files raise ValueError naming the file


# The CSV tables an earlier version read, well formed or not: each is now
# refused as a whole file, with no CSV parser's header, row or column message.
_CSV_TABLES = {
    "swapped-header": b"omega,theta,rho,u\r\n0,0,1,1\r\n",
    "short-header": b"theta,omega,rho\r\n0,0,1\r\n",
    "ragged-row": b"theta,omega,rho,u\r\n0,0,1,1\r\n0.5,0,1\r\n",
    "ragged-slices": b"theta,omega,rho,u\r\n0,0,1,1\r\n0.5,0,1,1\r\n1,0,1,1\r\n0,1,1,1\r\n",
    "header-only": b"theta,omega,rho,u\r\n",
    "empty": b"",
    "not-a-number": b"theta,omega,rho,u\r\n0,0,1,1\r\n0.5,0,x,1\r\n",
    "extra-column": b"theta,omega,rho,u\r\n0,0,1,1,5\r\n",
}


@pytest.mark.parametrize("kind", [*BAD_NPZ, *(k for k in _CSV_TABLES if k not in BAD_NPZ)])
def test_malformed_snapshot_names_the_file(tmp_path, kind):
    """Each kind of file that is not a snapshot .npz (conftest.BAD_NPZ),
    and the CSV tables of an earlier version."""
    path = tmp_path / "bad_snapshot.npz"
    if kind in BAD_NPZ:
        make, message = BAD_NPZ[kind]
        make(path)
    else:
        path.write_bytes(_CSV_TABLES[kind])
        message = "not an .npz snapshot"
    with pytest.raises(ValueError) as err:
        read_snapshot_csv(str(path))
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("kind", list(_CSV_TABLES))
def test_malformed_snapshot_messages_are_whole_file_messages(tmp_path, kind):
    """A CSV table of an earlier version, whatever is wrong with it as a
    CSV, gets the one message about the file as a whole."""
    path = tmp_path / "bad_snapshot.csv"
    path.write_bytes(_CSV_TABLES[kind])
    with pytest.raises(ValueError) as err:
        read_snapshot_csv(str(path))
    assert str(err.value) == f"{path}: not an .npz snapshot"


@pytest.mark.parametrize(
    "dropped,longer",
    [(0, None), (3, None), (2, 4)],
    ids=["first-slice", "later-slice", "same-row-count"],
)
def test_slice_ragged_across_a_chunk_boundary_names_the_file(
    tmp_path, rng, monkeypatch, dropped, longer
):
    """Slices of unequal length can only be stored as an object array of
    rows: rho with one value fewer in the first slice, in a later one, or
    also one more in another, so it still holds 6 x 40 values.  The reader
    refuses it from its .npy header, naming the file, and never unpickles it."""
    theta, omega, rho, u = _signed_zero_snapshot(rng, 6, 40)
    rows = [row[:-1] if k == dropped else row for k, row in enumerate(rho)]
    if longer is not None:
        rows[longer] = np.append(rows[longer], 1.0)
    ragged = np.empty(len(rows), dtype=object)
    ragged[:] = rows
    path = tmp_path / "bad_snapshot.npz"
    with open(path, "wb") as fh:
        np.savez(fh, theta=theta, omega=omega, rho=ragged, u=u)

    def no_unpickling(*args, **kwargs):
        raise AssertionError("an object array was unpickled")

    monkeypatch.setattr(pickle, "load", no_unpickling)
    monkeypatch.setattr(pickle, "loads", no_unpickling)
    with pytest.raises(ValueError) as err:
        read_snapshot_csv(str(path))
    assert str(err.value) == f"{path}: array rho: object, not float64"


def _two_theta_grids(tmp_path, n_theta, omega):
    """A table that gives each slice its own theta grid, a row of theta
    (len(omega), n_theta): 0.1-0.4 at omega 0, 0.5-0.8 at omega 1."""
    theta = np.stack([np.linspace(0.1, 0.4, n_theta) + 0.4 * w for w in omega])
    path = tmp_path / "two_grids.npz"
    fields = np.ones((len(omega), n_theta)), np.zeros((len(omega), n_theta))
    np.savez(path, theta=theta, omega=omega, rho=fields[0], u=fields[1])
    return str(path)


@pytest.mark.parametrize("n_theta", [3, 8192])
def test_writer_ordered_slices_on_different_theta_grids_name_the_file(tmp_path, n_theta):
    """An .npz snapshot has one theta for all its slices: a table with one
    theta row per slice, slices in ascending omega, is refused naming the
    file, at 3 cells or at 8192."""
    path = _two_theta_grids(tmp_path, n_theta, [0.0, 1.0])
    with pytest.raises(ValueError, match="two_grids.npz: table needs 1-D theta and omega"):
        TableData(*read_snapshot_csv(path), path=path)


def test_shuffled_slices_on_different_theta_grids_name_the_file(tmp_path):
    path = _two_theta_grids(tmp_path, 4, [1.0, 0.0])
    with pytest.raises(ValueError, match="two_grids.npz: table needs 1-D theta and omega"):
        TableData(*read_snapshot_csv(path), path=path)


def test_one_theta_off_the_grid_in_a_later_chunk_names_the_file(tmp_path):
    """theta[30] of a 40-cell table moves halfway to its successor: the
    arrays keep their shapes and order, only theta is off the grid."""
    grid, om = make_theta_grid(40), discretize_frequency("gaussian", 6)
    theta = grid.centers.copy()
    theta[30] = 0.5 * (theta[30] + theta[31])
    path = str(tmp_path / "off_grid.npz")
    write_snapshot_csv(path, theta, om.nodes, np.ones((6, 40)), np.zeros((6, 40)))
    table = TableData(*read_snapshot_csv(path), path=path)
    with pytest.raises(ValueError, match="off_grid.npz: table theta values do not match the grid"):
        init_state(table, grid, om)


@pytest.mark.parametrize(
    "body",
    [
        ",".join(reversed(SERIES_COLUMNS)).encode() + b"\r\n" + b",".join([b"0"] * 14) + b"\r\n",
        ",".join(SERIES_COLUMNS).encode() + b"\r\n" + b",".join([b"0"] * 13) + b"\r\n",
        ",".join(SERIES_COLUMNS).encode()
        + b"\r\n"
        + b",".join([b"0"] * 14)
        + b"\r\n"
        + b",".join([b"0"] * 13)
        + b"\r\n",
        ",".join(SERIES_COLUMNS).encode() + b"\r\n",
    ],
    ids=["wrong-header", "short-rows", "ragged", "header-only"],
)
def test_malformed_series_names_the_file(tmp_path, body):
    path = tmp_path / "bad_series.csv"
    path.write_bytes(body)
    with pytest.raises(ValueError, match="bad_series.csv"):
        read_series_csv(str(path))


def test_snapshot_write_rejects_mismatched_shapes(tmp_path):
    with pytest.raises(ValueError, match="shape"):
        write_snapshot_csv(
            str(tmp_path / "s.npz"), np.zeros(4), np.zeros(2), np.zeros((2, 3)), np.zeros((2, 4))
        )
