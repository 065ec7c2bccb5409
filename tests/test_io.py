"""Run-directory file format: exact bytes, bitwise round trips, loud failures."""
from __future__ import annotations

import numpy as np
import pytest
from conftest import peak_fields

from kurahydro import io as run_io
from kurahydro.diagnostics import SERIES_COLUMNS, TimeSeries
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
        (0.0, "t=0.csv"), (-0.0, "t=0.csv"), (5.0, "t=5.csv"), (0.5, "t=0.5.csv"),
        (0.05, "t=0.05.csv"), (0.62, "t=0.62.csv"), (0.1 + 0.2, "t=0.3.csv"),
        (0.1234561, "t=0.1234561.csv"), (0.1234564, "t=0.1234564.csv"),
        (2.5 + 4e-13, "t=2.5.csv"), (1e-12, "t=1e-12.csv"),
        (123.4567890123456, "t=123.456789012346.csv"),
    ]
    for t, name in cases:
        assert run_io.snapshot_filename(t) == name
        assert run_io.parse_snapshot_time(name) == round(t, 12)


# ---------------------------------------------------------------------------
# golden bytes: header, %.17g, \r\n


def test_snapshot_golden_bytes(tmp_path):
    path = tmp_path / "t=0.csv"
    theta = np.array([0.0, 0.1, 2.5])
    omega = np.array([-1.0, 0.5])
    rho = np.array([[1.0, 0.25, 1.0 / 3.0], [2.0, 0.0, 1e-300]])
    u = np.array([[-0.5, 0.1, 3.0], [0.0, -2.5, 1e20]])
    write_snapshot_csv(str(path), theta, omega, rho, u)
    assert path.read_bytes() == (
        b"theta,omega,rho,u\r\n"
        b"0,-1,1,-0.5\r\n"
        b"0.10000000000000001,-1,0.25,0.10000000000000001\r\n"
        b"2.5,-1,0.33333333333333331,3\r\n"
        b"0,0.5,2,0\r\n"
        b"0.10000000000000001,0.5,0,-2.5\r\n"
        b"2.5,0.5,1e-300,1e+20\r\n"
    )


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


# ---------------------------------------------------------------------------
# bitwise round trips


@pytest.mark.parametrize("n_omega,n_theta", [(1, 64), (5, 17), (3, 1)])
def test_snapshot_round_trip_is_bitwise(tmp_path, rng, n_omega, n_theta):
    path = str(tmp_path / "snap.csv")
    theta = np.sort(rng.uniform(-np.pi, np.pi, n_theta))
    omega = np.sort(rng.normal(size=n_omega))
    rho = rng.lognormal(size=(n_omega, n_theta)) * 10.0 ** rng.integers(
        -200, 200, size=(n_omega, n_theta)
    )
    u = rng.normal(size=(n_omega, n_theta))
    write_snapshot_csv(path, theta, omega, rho, u)
    theta_r, omega_r, rho_r, u_r = read_snapshot_csv(path)
    assert np.array_equal(theta_r, theta)
    assert np.array_equal(omega_r, omega)
    assert np.array_equal(rho_r, rho) and rho_r.shape == (n_omega, n_theta)
    assert np.array_equal(u_r, u) and u_r.shape == (n_omega, n_theta)


def test_dirac_snapshot_from_1d_fields(tmp_path, rng):
    """A single slice given as 1-D arrays and a scalar omega."""
    path = str(tmp_path / "snap.csv")
    theta = np.linspace(-np.pi, np.pi, 32, endpoint=False)
    rho, u = rng.random(32), rng.normal(size=32)
    write_snapshot_csv(path, theta, 0.0, rho, u)
    theta_r, omega_r, rho_r, u_r = read_snapshot_csv(path)
    assert np.array_equal(theta_r, theta)
    assert np.array_equal(omega_r, [0.0])
    assert np.array_equal(rho_r, rho[None, :])
    assert np.array_equal(u_r, u[None, :])


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


def test_snapshot_with_slices_out_of_order_reads_sorted(tmp_path):
    path = tmp_path / "snap.csv"
    path.write_bytes(
        b"theta,omega,rho,u\r\n"
        b"0.5,2,5,50\r\n"
        b"0.25,2,4,40\r\n"
        b"0.5,-1,2,20\r\n"
        b"0.25,-1,1,10\r\n"
        b"0.25,0,3,30\r\n"
        b"0.5,0,6,60\r\n"
    )
    theta, omega, rho, u = read_snapshot_csv(str(path))
    assert np.array_equal(theta, [0.25, 0.5])
    assert np.array_equal(omega, [-1.0, 0.0, 2.0])
    assert np.array_equal(rho, [[1.0, 2.0], [3.0, 6.0], [4.0, 5.0]])
    assert np.array_equal(u, 10.0 * rho)


def _signed_zero_snapshot(rng, n_omega, n_theta):
    theta = np.linspace(-np.pi, np.pi, n_theta, endpoint=False)
    omega = np.sort(rng.normal(size=n_omega))
    rho = rng.lognormal(size=(n_omega, n_theta))
    u = rng.normal(size=(n_omega, n_theta))
    rho[:, ::3] = 0.0
    u[:, 1::4] = -0.0
    return theta, omega, rho, u


def test_shuffled_snapshot_reads_the_same_bits_as_writer_order(tmp_path, rng):
    path = tmp_path / "snap.csv"
    fields = _signed_zero_snapshot(rng, 6, 40)
    write_snapshot_csv(str(path), *fields)
    in_order = read_snapshot_csv(str(path))
    header, *rows = path.read_bytes().split(b"\r\n")[:-1]
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_bytes(b"\r\n".join([header, *rng.permutation(rows)]) + b"\r\n")
    for written, ordered, from_shuffled in zip(fields, in_order, read_snapshot_csv(str(shuffled))):
        assert ordered.tobytes() == from_shuffled.tobytes() == written.tobytes()
        assert ordered.flags.c_contiguous and from_shuffled.flags.c_contiguous


def test_snapshot_read_peaks_below_seven_fields(tmp_path, rng):
    """A writer-ordered 64x200 snapshot is sliced, not sorted.

    The peak is the parsed table (4 fields) with the parser's own overhead,
    then the table and the copies of rho and u (6 fields).  Sorting the
    table by np.unique, lexsort and fancy indexing peaked at 9.1 fields.
    """
    path = str(tmp_path / "snap.csv")
    fields = _signed_zero_snapshot(rng, 64, 200)
    write_snapshot_csv(path, *fields)
    field_bytes = fields[2].nbytes
    read_snapshot_csv(path)
    peak = peak_fields(lambda: read_snapshot_csv(path), field_bytes)
    assert peak <= 7, peak


def test_snapshot_read_peaks_below_three_fields(tmp_path, rng):
    """A writer-ordered 64x200 snapshot is parsed in small chunks straight
    into rho and u (2 fields); a chunk and the parser's buffers stay under
    one more.  Slicing the whole parsed table peaked at 6.0 fields."""
    path = str(tmp_path / "snap.csv")
    fields = _signed_zero_snapshot(rng, 64, 200)
    write_snapshot_csv(path, *fields)
    read_snapshot_csv(path)
    peak = peak_fields(lambda: read_snapshot_csv(path), fields[2].nbytes)
    assert peak <= 3, peak


def _streamed_only(monkeypatch):
    """Make the whole-table fallback fail, so a read must stream."""

    def no_fallback(path, columns):
        raise AssertionError(f"{path} was not streamed")

    monkeypatch.setattr(run_io, "_read_table", no_fallback)


@pytest.mark.parametrize("chunk_rows", [1, 3, 39, 40, 41])
def test_streamed_read_gives_the_writer_bits_at_any_chunk_size(
    tmp_path, rng, monkeypatch, chunk_rows
):
    """Chunks of 1, 3, n_theta - 1, n_theta and n_theta + 1 rows (n_theta = 40)."""
    path = str(tmp_path / "snap.csv")
    fields = _signed_zero_snapshot(rng, 6, 40)
    write_snapshot_csv(path, *fields)
    monkeypatch.setattr(run_io, "_SNAPSHOT_CHUNK_ROWS", chunk_rows)
    _streamed_only(monkeypatch)
    for written, read in zip(fields, read_snapshot_csv(path)):
        assert read.tobytes() == written.tobytes()
        assert read.shape == written.shape and read.flags.c_contiguous


def _snapshot_rows(tmp_path, rng, n_omega=6, n_theta=40):
    """A written snapshot's fields, header line and data lines."""
    fields = _signed_zero_snapshot(rng, n_omega, n_theta)
    write_snapshot_csv(str(tmp_path / "written.csv"), *fields)
    header, *rows = (tmp_path / "written.csv").read_bytes().split(b"\r\n")[:-1]
    return fields, header, rows


@pytest.mark.parametrize(
    "swap",
    [(100, 101), (139, 140), (159, 160)],
    ids=["within-a-chunk", "across-chunks", "across-slices"],
)
def test_out_of_order_row_in_a_later_chunk_reads_the_writer_bits(
    tmp_path, rng, monkeypatch, swap
):
    """Chunks of 7 rows: the swap sits in chunk 14, across chunks 19 and 20
    (a slice's theta order), or across slices 3 and 4 (the omega order)."""
    fields, header, rows = _snapshot_rows(tmp_path, rng)
    i, j = swap
    rows[i], rows[j] = rows[j], rows[i]
    path = tmp_path / "swapped.csv"
    path.write_bytes(b"\r\n".join([header, *rows]) + b"\r\n")
    monkeypatch.setattr(run_io, "_SNAPSHOT_CHUNK_ROWS", 7)
    for written, read in zip(fields, read_snapshot_csv(str(path))):
        assert read.tobytes() == written.tobytes()


@pytest.mark.parametrize(
    "dropped,repeated",
    [(12, None), (137, None), (100, 130)],
    ids=["first-slice", "later-slice", "same-row-count"],
)
def test_slice_ragged_across_a_chunk_boundary_names_the_file(
    tmp_path, rng, monkeypatch, dropped, repeated
):
    """One row fewer in a slice (40 rows each), read in chunks of 7 rows,
    so the short slice ends inside a chunk it shares with the next; in the
    last case the next slice has one row more (a repeated row), so the
    table still has 6 x 40 rows."""
    _, header, rows = _snapshot_rows(tmp_path, rng)
    if repeated is not None:
        rows.insert(repeated, rows[repeated])
    del rows[dropped]
    path = tmp_path / "bad_snapshot.csv"
    path.write_bytes(b"\r\n".join([header, *rows]) + b"\r\n")
    monkeypatch.setattr(run_io, "_SNAPSHOT_CHUNK_ROWS", 7)
    with pytest.raises(ValueError, match="bad_snapshot.csv: ragged snapshot table"):
        read_snapshot_csv(str(path))


_TWO_THETA_GRIDS = [  # theta 0.1-0.4 at omega 0, 0.5-0.8 at omega 1, writer's order
    b"%g,%d,1,0" % (0.1 * j + 0.4 * k, k) for k in (0, 1) for j in range(1, 5)
]


@pytest.mark.parametrize("chunk_rows", [3, 8192])
def test_writer_ordered_slices_on_different_theta_grids_name_the_file(
    tmp_path, monkeypatch, chunk_rows
):
    """The streamed read gives up on the second slice's theta (read in chunks
    of 3 rows, or in one), and the whole-table read raises."""
    path = tmp_path / "two_grids.csv"
    path.write_bytes(b"\r\n".join([b"theta,omega,rho,u", *_TWO_THETA_GRIDS]) + b"\r\n")
    monkeypatch.setattr(run_io, "_SNAPSHOT_CHUNK_ROWS", chunk_rows)
    assert run_io._stream_snapshot(str(path)) is None
    with pytest.raises(ValueError, match="two_grids.csv: slices lie on different theta grids"):
        read_snapshot_csv(str(path))


def test_shuffled_slices_on_different_theta_grids_name_the_file(tmp_path, rng):
    path = tmp_path / "two_grids.csv"
    rows = list(rng.permutation(_TWO_THETA_GRIDS))
    path.write_bytes(b"\r\n".join([b"theta,omega,rho,u", *rows]) + b"\r\n")
    with pytest.raises(ValueError, match="two_grids.csv: slices lie on different theta grids"):
        read_snapshot_csv(str(path))


def test_one_theta_off_the_grid_in_a_later_chunk_names_the_file(tmp_path, rng, monkeypatch):
    """Row 10 of slice 3 (file row 130, chunk 19 of 7 rows) moves halfway to
    its successor: the rows keep their order and count, only theta differs."""
    fields, header, rows = _snapshot_rows(tmp_path, rng)
    theta = fields[0]
    rows[130] = b",".join([b"%.17g" % (0.5 * (theta[10] + theta[11])), *rows[130].split(b",")[1:]])
    path = tmp_path / "off_grid.csv"
    path.write_bytes(b"\r\n".join([header, *rows]) + b"\r\n")
    monkeypatch.setattr(run_io, "_SNAPSHOT_CHUNK_ROWS", 7)
    assert run_io._stream_snapshot(str(path)) is None
    with pytest.raises(ValueError, match="off_grid.csv: slices lie on different theta grids"):
        read_snapshot_csv(str(path))


@pytest.mark.parametrize("ending", ["no-final-newline", "lf-only"])
def test_snapshot_line_endings_read_the_writer_bits(tmp_path, rng, monkeypatch, ending):
    fields, header, rows = _snapshot_rows(tmp_path, rng)
    if ending == "lf-only":
        body = b"\n".join([header, *rows]) + b"\n"
    else:
        body = b"\r\n".join([header, *rows])
    path = tmp_path / "snap.csv"
    path.write_bytes(body)
    monkeypatch.setattr(run_io, "_SNAPSHOT_CHUNK_ROWS", 7)
    _streamed_only(monkeypatch)
    for written, read in zip(fields, read_snapshot_csv(str(path))):
        assert read.tobytes() == written.tobytes()


def test_repeated_slices_are_written_from_their_own_bits(tmp_path):
    """A slice equal to the previous one reuses its text, but not across -0.0 == 0.0."""
    path = tmp_path / "t=0.csv"
    theta = np.array([0.0, 0.5])
    omega = np.array([-1.0, 0.0, 1.0, 2.0])
    rho = np.array([[0.25, 0.0], [0.25, 0.0], [0.25, -0.0], [0.25, -0.0]])
    u = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [1.0, 3.0]])
    write_snapshot_csv(str(path), theta, omega, rho, u)
    assert path.read_bytes() == (
        b"theta,omega,rho,u\r\n"
        b"0,-1,0.25,1\r\n0.5,-1,0,2\r\n"
        b"0,0,0.25,1\r\n0.5,0,0,2\r\n"
        b"0,1,0.25,1\r\n0.5,1,-0,2\r\n"
        b"0,2,0.25,1\r\n0.5,2,-0,3\r\n"
    )


def test_snapshot_with_theta_out_of_order_within_a_slice_reads_sorted(tmp_path):
    """Slices in omega order are not enough: theta must ascend within each."""
    path = tmp_path / "snap.csv"
    path.write_bytes(
        b"theta,omega,rho,u\r\n"
        b"0.25,-1,1,10\r\n"
        b"0.5,-1,2,20\r\n"
        b"0.5,2,5,50\r\n"
        b"0.25,2,4,40\r\n"
    )
    theta, omega, rho, u = read_snapshot_csv(str(path))
    assert np.array_equal(theta, [0.25, 0.5])
    assert np.array_equal(omega, [-1.0, 2.0])
    assert np.array_equal(rho, [[1.0, 2.0], [4.0, 5.0]])
    assert np.array_equal(u, 10.0 * rho)


# ---------------------------------------------------------------------------
# malformed files raise ValueError naming the file


@pytest.mark.parametrize(
    "body",
    [
        b"omega,theta,rho,u\r\n0,0,1,1\r\n",  # columns swapped
        b"theta,omega,rho\r\n0,0,1\r\n",  # column missing
        b"theta,omega,rho,u\r\n0,0,1,1\r\n0.5,0,1\r\n",  # ragged row
        b"theta,omega,rho,u\r\n0,0,1,1\r\n0.5,0,1,1\r\n1,0,1,1\r\n0,1,1,1\r\n",  # 3+1 rows
        b"theta,omega,rho,u\r\n",  # header only
        b"",  # empty file
    ],
    ids=["swapped-header", "short-header", "ragged-row", "ragged-slices", "header-only", "empty"],
)
def test_malformed_snapshot_names_the_file(tmp_path, body):
    path = tmp_path / "bad_snapshot.csv"
    path.write_bytes(body)
    with pytest.raises(ValueError, match="bad_snapshot.csv"):
        read_snapshot_csv(str(path))


@pytest.mark.parametrize(
    "body,message",
    [
        (b"omega,theta,rho,u\r\n0,0,1,1\r\n",
         "header 'omega,theta,rho,u' is not 'theta,omega,rho,u'"),
        (b"theta,omega,rho\r\n0,0,1\r\n", "header 'theta,omega,rho' is not 'theta,omega,rho,u'"),
        (b"theta,omega,rho,u\r\n0,0,1,1\r\n0.5,0,1\r\n",
         "the number of columns changed from 4 to 3 at row 2; use `usecols` to select "
         "a subset and avoid this error"),
        (b"theta,omega,rho,u\r\n0,0,1,1\r\n0.5,0,1,1\r\n1,0,1,1\r\n0,1,1,1\r\n",
         "ragged snapshot table"),
        (b"theta,omega,rho,u\r\n", "no data rows"),
        (b"", "header '' is not 'theta,omega,rho,u'"),
        (b"theta,omega,rho,u\r\n0,0,1,1\r\n0.5,0,x,1\r\n",
         "could not convert string 'x' to float64 at row 1, column 3."),
        (b"theta,omega,rho,u\r\n0,0,1,1,5\r\n", "5 columns, header names 4"),
    ],
    ids=[
        "swapped-header", "short-header", "ragged-row", "ragged-slices", "header-only",
        "empty", "not-a-number", "extra-column",
    ],
)
def test_malformed_snapshot_messages_are_whole_file_messages(tmp_path, monkeypatch, body, message):
    """Chunked parsing does not change what an error says: a row number is
    the row in the file, never in a chunk."""
    path = tmp_path / "bad_snapshot.csv"
    path.write_bytes(body)
    monkeypatch.setattr(run_io, "_SNAPSHOT_CHUNK_ROWS", 1)
    with pytest.raises(ValueError) as err:
        read_snapshot_csv(str(path))
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "body",
    [
        b"theta,omega,rho,u\r\n0,0,1,1\r\n\r\n0.5,0,1,1\r\n",
        b"theta,omega,rho,u\r\n0,0,1,1\r\n0.5,0,1,1\r\n\r\n",
        b"theta,omega,rho,u\r\n0,0,1,1\r0.5,0,1,1\r",
    ],
    ids=["blank-line", "blank-last-line", "cr-only"],
)
def test_snapshot_lines_without_one_row_each_read_whole(tmp_path, body):
    """Blank lines and bare CR endings break the one-row-per-newline count
    that the streamed read allocates for; the whole-table parse reads them."""
    path = tmp_path / "snap.csv"
    path.write_bytes(body)
    theta, omega, rho, u = read_snapshot_csv(str(path))
    assert np.array_equal(theta, [0.0, 0.5]) and np.array_equal(omega, [0.0])
    assert np.array_equal(rho, [[1.0, 1.0]]) and np.array_equal(u, [[1.0, 1.0]])


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


_HEADER = b"theta,omega,rho,u"


@pytest.mark.parametrize(
    "rows, theta, omega",
    [
        # a later slice writes theta 0.5 as 0.50
        ([b"0.5,0,1,2", b"1.5,0,3,4", b"0.50,1,5,6", b"1.5,1,7,8"], [0.5, 1.5], [0.0, 1.0]),
        # the second slice writes omega 1 as 1.0: one slice by value
        ([b"0.5,1,1,2", b"1.5,1,3,4", b"0.5,1.0,5,6", b"1.5,1.0,7,8"],
         [0.5, 0.5, 1.5, 1.5], [1.0]),
        # 0.1 in 28 characters, which cut to the column's 25 read as 1
        ([b"1.00000000000000000000000e-1,0,1,2", b"2.5,0,3,4"], [0.1, 2.5], [0.0]),
    ],
    ids=["theta-text", "omega-text", "long-text"],
)
def test_texts_that_differ_from_the_writers_are_read_whole(tmp_path, rows, theta, omega):
    """The streamed read compares theta and omega as texts and parses few of
    them, so it gives up on any table whose texts it cannot vouch for; the
    whole-table parse reads them by value."""
    path = tmp_path / "snap.csv"
    path.write_bytes(b"\r\n".join([_HEADER, *rows]) + b"\r\n")
    assert run_io._stream_snapshot(str(path)) is None
    theta_r, omega_r, rho, u = read_snapshot_csv(str(path))
    assert theta_r.tolist() == theta and omega_r.tolist() == omega
    values = np.concatenate([rho.ravel(), u.ravel()])
    assert sorted(values.tolist()) == list(range(1, 2 * len(rows) + 1))


def test_streamed_read_parses_theta_once_and_omega_per_slice(tmp_path, rng, monkeypatch):
    """Of a writer-ordered table's theta and omega texts, only the first
    slice's theta and each slice's omega are parsed as numbers."""
    path = str(tmp_path / "snap.csv")
    write_snapshot_csv(path, *_signed_zero_snapshot(rng, 6, 40))
    parsed = []
    real = run_io._parse_texts

    def counting(texts):
        parsed.append(texts.size)
        return real(texts)

    monkeypatch.setattr(run_io, "_parse_texts", counting)
    monkeypatch.setattr(run_io, "_SNAPSHOT_CHUNK_ROWS", 7)
    _streamed_only(monkeypatch)
    read_snapshot_csv(path)
    assert sorted(parsed) == [6, 40]


def test_snapshot_write_rejects_mismatched_shapes(tmp_path):
    with pytest.raises(ValueError, match="shape"):
        write_snapshot_csv(
            str(tmp_path / "s.csv"), np.zeros(4), np.zeros(2), np.zeros((2, 3)), np.zeros((2, 4))
        )
