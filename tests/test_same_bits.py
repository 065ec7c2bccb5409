"""tools/same_bits.py: the check that refuses a tree before running it."""
from __future__ import annotations

import importlib.util
import os

import pytest

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
