"""Config file parsing, profile expression grammar, and the command line."""
from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import yaml

import kurahydro
from kurahydro import (
    InitSpec,
    Params,
    RhoGaussian,
    RhoPointCell,
    RhoUniform,
    ScenarioConfig,
    SchemeConfig,
    SweepConfig,
    UConst,
    UCosine,
    USine,
    apply_overrides,
    build_state,
    format_rho0,
    format_wave,
    make_theta_grid,
    normalize_slices,
    parse_config,
    parse_rho0,
    parse_wave_expression,
    resolve_config,
    serialize_config,
    write_config,
)
from kurahydro.cli import compare_runs, main
from kurahydro.io import read_manifest, read_snapshot_csv, write_snapshot_csv


# ---------------------------------------------------------------------------
# profile expression grammar


def test_wave_expression_forms():
    assert parse_wave_expression("sin(theta)") == USine(1.0, 1, 0.0)
    assert parse_wave_expression("-2*sin(3*theta)") == USine(-2.0, 3, 0.0)
    assert parse_wave_expression("0.5 - sin(theta)") == USine(-1.0, 1, 0.5)
    assert parse_wave_expression("cos(2*theta) + 1") == UCosine(1.0, 2, 1.0)
    assert parse_wave_expression("1e-2*cos(3*theta)-2e-1") == UCosine(1e-2, 3, -0.2)
    assert parse_wave_expression("0") == UConst(0.0)
    assert parse_wave_expression("-0.25") == UConst(-0.25)


def test_wave_expression_rejects_garbage():
    for bad in ("tan(theta)", "sin(theta", "sin(theta)*cos(theta)", "theta"):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_wave_expression(bad)
    with pytest.raises(ValueError, match="empty profile expression"):
        parse_wave_expression("")


def test_wave_format_round_trip():
    profiles = [
        USine(-10.0, 1, 0.0),
        USine(1.0, 2, 0.5),
        UCosine(0.01, 3, -0.2),
        UConst(0.0),
        UConst(-1.5),
    ]
    for prof in profiles:
        assert parse_wave_expression(format_wave(prof)) == prof


def test_rho0_forms():
    assert parse_rho0("uniform") == RhoUniform()
    assert parse_rho0("gaussian") == RhoGaussian()
    assert parse_rho0("gaussian(0.5, 2.0)") == RhoGaussian(0.5, 2.0)
    assert parse_rho0("point(1.0)") == RhoPointCell(1.0)
    assert parse_rho0("1 + 0.5*cos(theta)") == UCosine(0.5, 1, 1.0)
    for prof in (RhoUniform(), RhoGaussian(0.5, 2.0), RhoPointCell(1.0)):
        assert parse_rho0(format_rho0(prof)) == prof


# ---------------------------------------------------------------------------
# config resolution


def _minimal():
    return {"m": 0.5, "K": 0.1, "u0": "-sin(theta)"}


def test_resolve_defaults():
    cfg = resolve_config(_minimal())
    assert isinstance(cfg, ScenarioConfig)
    assert cfg.params == Params(0.5, 0.1)
    assert cfg.init == InitSpec(RhoGaussian(), USine(-1.0))
    assert cfg.n_theta == 1000 and cfg.g == "dirac"
    assert cfg.solver == "eulerian"


def test_resolve_rejects_unknown_and_missing_keys():
    data = _minimal()
    data["n_thetas"] = 50
    with pytest.raises(ValueError, match="unknown config keys"):
        resolve_config(data)
    with pytest.raises(ValueError, match="missing required"):
        resolve_config({"m": 1.0})
    with pytest.raises(ValueError, match="unknown scheme keys: cfll"):
        resolve_config({**_minimal(), "scheme": {"cfll": 0.3}})
    with pytest.raises(ValueError, match="scheme section must be a key:value mapping"):
        resolve_config({**_minimal(), "scheme": [0.3]})
    with pytest.raises(ValueError, match="unknown sweep keys: k_top"):
        resolve_config({**_minimal(), "sweep": {"k_top": 1.0}})
    with pytest.raises(ValueError, match="init_table replaces rho0/u0"):
        resolve_config({**_minimal(), "init_table": "table.csv"})


# Config-dataclass fields that are not plain config keys: m and K build
# Params, rho0/u0/init_table build InitSpec, scheme is its own section, and a
# sweep's base is the scenario around it.
_NOT_PLAIN = {"params", "init", "scheme", "base"}


def _plain_config_fields(with_default=False):
    """pytest params (section, name, default) for every plain config field."""
    out = []
    for cls, section in ((ScenarioConfig, None), (SchemeConfig, "scheme"),
                         (SweepConfig, "sweep")):
        for f in dataclasses.fields(cls):
            no_default = f.default is dataclasses.MISSING
            if f.name in _NOT_PLAIN or (with_default and no_default):
                continue
            out.append(pytest.param(section, f.name, f.default,
                                    id=f"{section or 'config'}.{f.name}"))
    return out


# Non-default values that the default's type alone does not give.
_NON_DEFAULT = {"g": "gaussian", "solver": "both", "k_path": (0.0, 2.0, 0.0),
                "refine_step": 0.05}


def _non_default(name, default):
    if name in _NON_DEFAULT:
        return _NON_DEFAULT[name]
    if isinstance(default, tuple):
        return (0.5, 1.5)
    return default + 1 if isinstance(default, int) else default + 0.25


@pytest.mark.parametrize("section, name, default", _plain_config_fields())
def test_every_config_field_resolves_and_round_trips(section, name, default):
    value = _non_default(name, default)
    # Given as strings, the way YAML hands back exponent-only literals.
    raw = [str(v) for v in value] if isinstance(value, tuple) else str(value)
    data = _minimal()
    data["sweep"] = {"k_path": [0.0, 1.0, 0.0]}
    (data if section is None else data.setdefault(section, {}))[name] = raw
    sweep = resolve_config(data)
    owner = {None: sweep.base, "scheme": sweep.base.scheme, "sweep": sweep}[section]
    assert getattr(owner, name) == value
    assert resolve_config(serialize_config(sweep)) == sweep


@pytest.mark.parametrize(
    "section, name, default", _plain_config_fields(with_default=True)
)
def test_config_docstring_gives_each_field_default(section, name, default):
    doc = kurahydro.config.__doc__
    found = re.search(rf"\b{name}(?::\s[\w|]+)?\s\(([^)]*)\)", doc)
    assert found, f"{name} is not listed with its default in the config docstring"
    documented = yaml.safe_load(found.group(1))
    if isinstance(default, tuple):
        assert documented == list(default)
    elif default is None:
        assert documented is None
    else:
        assert type(default)(documented) == default


def test_config_docstring_names_every_plain_key():
    """The docstring lists every key the schema resolves, required ones
    (k_path) included: the names come from config._plain_fields itself."""
    from kurahydro.config import _plain_fields

    doc = kurahydro.config.__doc__
    for cls in (ScenarioConfig, SchemeConfig, SweepConfig):
        missing = [n for n in _plain_fields(cls) if not re.search(rf"\b{n}\b", doc)]
        assert not missing, f"{cls.__name__} keys not in the config docstring: {missing}"


def test_resolve_coerces_yaml_string_numerics():
    data = _minimal()
    data["record_dt"] = "1e-2"  # yaml leaves exponent-only literals as strings
    data["t_end"] = "2"
    cfg = resolve_config(data)
    assert cfg.record_dt == 1e-2 and cfg.t_end == 2.0


def test_resolve_sweep_section_builds_k_path():
    data = _minimal()
    data["sweep"] = {"k_min": 0.0, "k_max": 4.0, "k_step": 0.2}
    sweep = resolve_config(data)
    assert isinstance(sweep, SweepConfig)
    fwd, bwd = sweep.branches()
    assert fwd[0] == 0.0 and fwd[-1] == 4.0 and len(fwd) == 21
    assert bwd[0] == 4.0 and bwd[-1] == 0.0 and len(bwd) == 21
    assert sweep.base.params.m == 0.5


def test_config_file_round_trip(tmp_path):
    cfg = ScenarioConfig(
        params=Params(2.0, 0.1),
        init=InitSpec(RhoGaussian(0.0, 0.5), USine(-0.1)),
        n_theta=120,
        g="gaussian",
        n_omega=32,
        t_end=3.0,
        solver="both",
        snapshot_times=(0.0, 1.0),
    )
    path = tmp_path / "cfg.yaml"
    write_config(str(path), cfg)
    assert parse_config(str(path)) == cfg


def test_apply_overrides_dotted_keys():
    data = _minimal()
    out = apply_overrides(data, ["K=0.5", "scheme.cfl=0.3", "n_theta=64"])
    cfg = resolve_config(out)
    assert cfg.params.K == 0.5
    assert cfg.scheme.cfl == 0.3
    assert cfg.n_theta == 64


def test_apply_overrides_rejects_malformed():
    with pytest.raises(ValueError, match="override"):
        apply_overrides(_minimal(), ["K0.5"])


# ---------------------------------------------------------------------------
# command line


def _write_cfg(tmp_path, name="cfg.yaml", **extra):
    lines = ["m: 0.5", "K: 0.1", "u0: -sin(theta)", "n_theta: 48",
             "t_end: 0.3", "record_dt: 0.1", "n_samples: 96"]
    for key, value in extra.items():
        lines.append(f"{key}: {value}")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_cli_run_writes_series(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    rc = main(["run", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert (out / "series.csv").is_file()
    assert (out / "manifest.json").is_file()
    out_text = capsys.readouterr().out
    assert "eulerian" in out_text and "r=" in out_text


def test_cli_oracle_forces_lagrangian(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "oracle"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    manifest = read_manifest(str(out / "manifest.json"))
    assert manifest["solver"] == "lagrangian"


def test_cli_set_overrides(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    rc = main(["run", "--config", cfg, "--out", str(out), "--set", "t_end=0.2"])
    assert rc == 0
    manifest = read_manifest(str(out / "manifest.json"))
    assert float(manifest["config"]["t_end"]) == 0.2


def test_cli_classify_prints_verdict(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["classify", "--config", cfg]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["category"] == "subcritical"
    assert verdict["min_du0"] == pytest.approx(-1.0, abs=1e-12)


def test_cli_run_rejects_sweep_config(tmp_path, capsys):
    path = tmp_path / "sweep.yaml"
    path.write_text(
        "m: 0.5\nK: 0.0\nu0: -sin(theta)\nn_theta: 48\n"
        "sweep:\n  k_min: 0.0\n  k_max: 0.4\n  k_step: 0.2\n"
    )
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "sweep" in capsys.readouterr().err


def test_cli_sweep_requires_sweep_section(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "no sweep section" in capsys.readouterr().err


def test_cli_compare_self_is_zero(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, snapshot_times="[0.0, 0.3]")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    report = compare_runs(str(out), str(out))
    assert report["max_abs_dr"] == 0.0
    assert all(v == 0.0 for v in report["l1_rho"].values())


def test_compare_self_parses_each_file_once(tmp_path, monkeypatch):
    """compare_runs(d, d) reads each file once and reports the same as a copy."""
    import shutil

    from kurahydro import cli

    cfg = _write_cfg(tmp_path, snapshot_times="[0.0, 0.3]")
    out, copy = tmp_path / "out", tmp_path / "copy"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    shutil.copytree(out, copy)
    expected = compare_runs(str(out), str(copy))
    parsed = []
    for name in ("read_series_csv", "read_snapshot_csv"):
        read = getattr(cli, name)
        monkeypatch.setattr(
            cli, name, lambda path, read=read: parsed.append(path) or read(path)
        )
    assert compare_runs(str(out), str(out)) == expected
    assert len(parsed) == len(set(parsed)) == 3  # series.csv and two snapshots


def test_compare_self_peaks_below_three_and_a_half_fields(tmp_path, rng):
    """A 64x200 snapshot compared with itself: rho and u read (2 fields),
    and |rho_a - rho_b| taken in one temporary (1 more).  The parent,
    parsing the whole table and taking abs of a difference, peaked at 6.05."""
    from conftest import peak_fields

    from kurahydro.diagnostics import TimeSeries
    from kurahydro.io import write_series_csv, write_snapshot_csv

    (tmp_path / "snapshots").mkdir()
    rho = rng.lognormal(size=(64, 200))
    write_snapshot_csv(
        str(tmp_path / "snapshots" / "t=0.csv"),
        np.linspace(-np.pi, np.pi, 200, endpoint=False),
        np.sort(rng.normal(size=64)),
        rho,
        rng.normal(size=(64, 200)),
    )
    write_series_csv(str(tmp_path / "series.csv"), TimeSeries(np.zeros((3, 14))))
    assert compare_runs(str(tmp_path), str(tmp_path))["l1_rho"] == {"0": 0.0}
    peak = peak_fields(lambda: compare_runs(str(tmp_path), str(tmp_path)), rho.nbytes)
    assert peak <= 3.5, peak


def test_cli_compare_mismatched_grids_errors(tmp_path, capsys):
    cfg_a = _write_cfg(tmp_path, name="a.yaml", snapshot_times="[0.0]")
    cfg_b = _write_cfg(tmp_path, name="b.yaml", snapshot_times="[0.0]")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg_a, "--out", str(out_a)]) == 0
    assert main(["run", "--config", cfg_b, "--out", str(out_b),
                 "--set", "n_theta=64"]) == 0
    assert main(["compare", str(out_a), str(out_b)]) == 2
    assert "mismatched grids" in capsys.readouterr().err


def test_cli_compare_two_solvers(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, snapshot_times="[0.3]")
    out_e, out_l = tmp_path / "e", tmp_path / "l"
    assert main(["run", "--config", cfg, "--out", str(out_e)]) == 0
    assert main(["oracle", "--config", cfg, "--out", str(out_l)]) == 0
    capsys.readouterr()  # discard run summaries
    assert main(["compare", str(out_e), str(out_l)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_abs_dr"] < 5e-3


def test_cli_run_is_bit_identical_across_thread_counts(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("m: 0.5\nK: 1.0\nu0: -sin(theta)\ng: gaussian\nn_omega: 64\n"
                   "n_theta: 200\nt_end: 0.2\nsnapshot_times: [0.2]\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(kurahydro.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        out = tmp_path / f"threads{threads}"
        subprocess.run(
            [sys.executable, "-m", "kurahydro.cli", "run", "--config", str(cfg),
             "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        outputs.append(out)
    for rel in ("series.csv", "snapshots/t=0.2.csv"):
        a, b = ((o / rel).read_bytes() for o in outputs)
        assert a == b, f"{rel} differs between 1 and 2 BLAS/OpenMP threads"


def test_cli_bad_config_path_returns_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_nonpositive_eps_speed(tmp_path, capsys):
    """eps_speed floors the CFL speed: at 0 a fluid at rest (u0 = 0) would
    divide by zero, so the config is refused before anything runs."""
    path = tmp_path / "eps.yaml"
    path.write_text(
        'm: 0.5\nK: 0.1\nu0: "0"\nn_theta: 48\nt_end: 0.1\n'
        "scheme:\n  eps_speed: 0\n"
    )
    out = tmp_path / "x"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "eps_speed must be positive" in err
    assert not out.exists()


def test_cli_sweep_rejects_a_zero_refine_step(tmp_path, capsys):
    """A zero refine_step would divide by zero once a jump is found, after
    the sweep has run; the config is refused before anything runs."""
    path = tmp_path / "sweep.yaml"
    path.write_text(
        "m: 0.5\nK: 0.0\nu0: -sin(theta)\nn_theta: 48\n"
        "sweep:\n  k_min: 0.0\n  k_max: 0.4\n  k_step: 0.2\n  refine_step: 0\n"
    )
    out = tmp_path / "x"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "refine_step must be positive" in err
    assert not out.exists()


def test_cli_sweep_rejects_a_negative_refine_window(tmp_path, capsys):
    """A negative refine_window leaves every refinement window empty, so the
    sweep would silently refine nothing; the config is refused up front."""
    path = tmp_path / "sweep.yaml"
    path.write_text(
        "m: 0.5\nK: 0.0\nu0: -sin(theta)\nn_theta: 48\n"
        "sweep:\n  k_min: 0.0\n  k_max: 0.4\n  k_step: 0.2\n  refine_step: 0.05\n"
        "  refine_window: -0.3\n"
    )
    out = tmp_path / "x"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "refine_window must be positive" in err
    assert not out.exists()


def test_cli_rejects_snapshot_times_that_share_a_file_name(tmp_path, capsys):
    """Snapshot files are named t=%g: two times that print alike would leave
    one snapshot unwritten, so the config is refused before anything runs."""
    path = tmp_path / "snaps.yaml"
    path.write_text(
        'm: 0.5\nK: 0.1\nn_theta: 48\nt_end: 0.2\n'
        "snapshot_times: [0.1234561, 0.1234564]\n"
    )
    out = tmp_path / "x"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "0.1234561 and 0.1234564" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# init_table: a table in the snapshot format


def test_restart_from_a_snapshot_is_bitwise(tmp_path):
    """A run's snapshots/t=<t>.csv as init_table: u has the snapshot's bits,
    rho those of the snapshot's rho normalized per slice, and the restarted
    run goes on."""
    cfg = _write_cfg(tmp_path, g="gaussian", n_omega=5, snapshot_times="[0.2]")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    snap = tmp_path / "out" / "snapshots" / "t=0.2.csv"
    data = {"m": 0.5, "K": 0.1, "n_theta": 48, "g": "gaussian", "n_omega": 5,
            "t_end": 0.1, "init_table": str(snap)}
    state = build_state(resolve_config(data))
    _, _, rho, u = read_snapshot_csv(str(snap))
    assert state.u.tobytes() == u.tobytes()
    assert state.rho.tobytes() == normalize_slices(rho, state.grid.dtheta).tobytes()
    restart = tmp_path / "restart.yaml"
    restart.write_text(yaml.safe_dump(data))
    assert main(["run", "--config", str(restart), "--out", str(tmp_path / "again")]) == 0
    manifest = read_manifest(str(tmp_path / "again" / "manifest.json"))
    assert manifest["config"]["init_table"] == str(snap)


@pytest.mark.parametrize("name,value", [("u", np.inf), ("rho", np.nan)])
def test_cli_rejects_a_table_with_non_finite_values(tmp_path, capsys, name, value):
    """A u=inf table used to run and report blow-up at t=0, a rho=NaN one to
    fail with "empty support"; both are refused before anything runs."""
    theta = make_theta_grid(48).centers
    fields = {"rho": np.ones((1, 48)), "u": np.zeros((1, 48))}
    fields[name][0, 7] = value
    table = tmp_path / "init.csv"
    write_snapshot_csv(str(table), theta, [0.0], fields["rho"], fields["u"])
    path = tmp_path / "table.yaml"
    path.write_text(f"m: 0.5\nK: 0.1\nn_theta: 48\nt_end: 0.1\ninit_table: {table}\n")
    out = tmp_path / "x"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{table}: table {name} has non-finite values" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, solver",
    [(["run", "--set", "solver=both"], "both"), (["oracle"], "lagrangian")],
    ids=["run-both", "oracle"],
)
def test_cli_rejects_a_table_with_the_oracle(tmp_path, capsys, argv, solver):
    """The oracle samples symbolic initial data only: `run` with solver both
    used to run the finite-volume solver and then die with a TypeError
    traceback, and `oracle` the same; both now stop before any solver runs."""
    table = tmp_path / "init.csv"
    theta = make_theta_grid(48).centers
    write_snapshot_csv(str(table), theta, [0.0], np.ones((1, 48)), np.zeros((1, 48)))
    path = tmp_path / "table.yaml"
    path.write_text(f"m: 0.5\nK: 0.1\nn_theta: 48\nt_end: 0.1\ninit_table: {table}\n")
    out = tmp_path / "x"
    assert main([argv[0], "--config", str(path), "--out", str(out), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"init_table runs with solver eulerian only, not {solver}" in err
    assert not out.exists()
