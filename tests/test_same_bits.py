"""tools/same_bits.py: the check that refuses a tree before running it, and the
comparison of two trees' outputs."""
from __future__ import annotations

import importlib.util
import os

import numpy as np
import pytest

from kurahydro.diagnostics import TimeSeries
from kurahydro.io import write_series_csv, write_snapshot_csv

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def same_bits(monkeypatch):
    """The tool's module, with subprocess.run recording instead of running."""
    spec = importlib.util.spec_from_file_location(
        "same_bits", os.path.join(REPO, "tools", "same_bits.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.ran = []
    monkeypatch.setattr(module.subprocess, "run", lambda *a, **kw: module.ran.append(a))
    return module


@pytest.mark.parametrize("missing_first", [True, False])
def test_a_missing_tree_exits_2_and_runs_nothing(same_bits, tmp_path, capsys, missing_first):
    missing = str(tmp_path / "does_not_exist")
    argv = [missing, REPO] if missing_first else [REPO, missing]
    assert same_bits.main(argv) == 2
    assert same_bits.ran == []
    err = capsys.readouterr().err
    assert err == (f"{missing}: not a source tree, no src/kurahydro/__init__.py or configs\n")


def test_a_tree_without_configs_exits_2_naming_it(same_bits, tmp_path, capsys):
    tree = tmp_path / "tree"
    (tree / "src" / "kurahydro").mkdir(parents=True)
    (tree / "src" / "kurahydro" / "__init__.py").touch()
    assert same_bits.main([REPO, str(tree)]) == 2
    assert same_bits.ran == []
    assert capsys.readouterr().err == f"{tree}: not a source tree, no configs\n"


def test_a_snapshot_differing_in_one_byte_is_reported(same_bits, tmp_path, capsys):
    """.npz snapshots are compared by bytes, beside CSVs, stdout files and
    manifests; one flipped bit of one value is a difference."""
    roots = [tmp_path / "parent", tmp_path / "change"]
    for root in roots:
        (root / "run" / "snapshots").mkdir(parents=True)
        write_snapshot_csv(
            str(root / "run" / "snapshots" / "t=0.npz"),
            np.linspace(-np.pi, np.pi, 8, endpoint=False), 0.0, np.ones(8), np.zeros(8),
        )
    changed = roots[1] / "run" / "snapshots" / "t=0.npz"
    data = bytearray(changed.read_bytes())
    data[data.rindex(np.zeros(8).tobytes()) + 3] ^= 1  # a bit of one u value
    changed.write_bytes(bytes(data))
    assert same_bits.compare(*map(str, roots)) == ["bytes differ: run/snapshots/t=0.npz"]
    assert "snapshots: 1 in parent, 1 in change, 0 of 1 shared equal\n" in capsys.readouterr().out


def test_a_csv_differing_on_line_3_is_reported_with_both_lines(same_bits, tmp_path, capsys):
    """A CSV or stdout difference names the first differing line and shows
    it on both sides, each cut to 120 characters."""
    roots = [tmp_path / "parent", tmp_path / "change"]
    for root, first in zip(roots, (1.0 / 3.0, 0.25)):
        (root / "run").mkdir(parents=True)
        data = np.full((3, 14), 1.0 / 3.0)
        data[1, 0] = first
        write_series_csv(str(root / "run" / "series.csv"), TimeSeries(data))
    third = "0.33333333333333331,"  # 20 characters
    assert same_bits.compare(*map(str, roots)) == [
        "bytes differ: run/series.csv\n"
        "  first at line 3:\n"
        f"    parent: '{third * 6}'\n"
        f"    change: '0.25,{third * 5}0.3333333333333'"
    ]
    assert "CSVs: 1 in parent, 1 in change, 0 of 1 shared equal\n" in capsys.readouterr().out


def test_a_stdout_file_that_ends_early_is_reported_at_its_end(same_bits, tmp_path):
    roots = [tmp_path / "parent", tmp_path / "change"]
    for root, text in zip(roots, (b"a\r\nb\n", b"a\r\n")):
        root.mkdir()
        (root / "compare.stdout").write_bytes(text)
    assert same_bits.compare(*map(str, roots)) == [
        "bytes differ: compare.stdout\n"
        "  first at line 2:\n"
        "    parent: 'b\\n'\n"
        "    change: end of file"
    ]
