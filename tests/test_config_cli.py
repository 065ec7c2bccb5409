"""Config file parsing, profile expression grammar, and the command line."""
from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
import yaml
from conftest import BAD_NPZ

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
from kurahydro.diagnostics import TimeSeries
from kurahydro.io import (
    list_snapshots,
    read_manifest,
    read_series_csv,
    read_snapshot_csv,
    write_series_csv,
    write_snapshot_csv,
)


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


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        (None, "n_theta", [1, 2], "n_theta must be an integer, got [1, 2]"),
        (None, "n_theta", 100.7, "n_theta must be an integer, got 100.7"),
        (None, "n_samples", True, "n_samples must be an integer, got True"),
        (None, "n_omega", ".inf", "n_omega must be an integer, got '.inf'"),
        (None, "t_end", True, "t_end must be a number, got True"),
        (None, "t_end", "abc", "t_end must be a number, got 'abc'"),
        (None, "m", True, "m must be a number, got True"),
        (None, "K", None, "K must be a number, got None"),
        (None, "snapshot_times", 5, "snapshot_times must be a list of numbers, got 5"),
        (None, "snapshot_times", None, "snapshot_times must be a list of numbers, got None"),
        (None, "snapshot_times", [0.1, None], "snapshot_times must be a list of numbers, "
                                              "got [0.1, None]"),
        (None, "g", 5, "g must be a string, got 5"),
        (None, "init_table", 7, "init_table must be a string, got 7"),
        ("scheme", "cfl", [0.3], "scheme.cfl must be a number, got [0.3]"),
        ("sweep", "k_max", False, "sweep.k_max must be a number, got False"),
        ("sweep", "k_step", "x", "sweep.k_step must be a number, got 'x'"),
        ("sweep", "refine_step", True, "sweep.refine_step must be a number or null, got True"),
        ("sweep", "k_path", 1.0, "sweep.k_path must be a list of numbers, got 1.0"),
    ],
)
def test_resolve_refuses_a_value_of_the_wrong_type_naming_its_key(section, key, value, message):
    data = _minimal()
    (data if section is None else data.setdefault(section, {}))[key] = value
    with pytest.raises(ValueError) as err:
        resolve_config(data)
    assert str(err.value) == message


def test_resolve_coerces_numbers_of_the_declared_type():
    """Numeric strings (YAML's exponent-only literals) parse, and an int
    key takes an integral float."""
    cfg = resolve_config({**_minimal(), "n_theta": 100.0, "n_samples": "2e3",
                          "t_end": "1e-1", "m": 1, "snapshot_times": ["1e-2", 0]})
    assert (cfg.n_theta, cfg.n_samples, cfg.t_end) == (100, 2000, 0.1)
    assert type(cfg.n_theta) is int and type(cfg.params.m) is float
    assert cfg.snapshot_times == (0.01, 0.0)
    sweep = resolve_config(
        {**_minimal(), "sweep": {"k_max": "2", "k_step": 1, "refine_step": None}}
    )
    assert sweep.k_path == (0.0, 1.0, 2.0, 1.0, 0.0) and sweep.refine_step is None


@pytest.mark.parametrize("solver", ["lagrangian", "both"])
def test_a_sweep_refuses_a_solver_other_than_eulerian(solver):
    with pytest.raises(ValueError, match=f"sweep runs the finite-volume solver only: "
                                         f"solver must be eulerian, not {solver}"):
        resolve_config({**_minimal(), "solver": solver, "sweep": {"k_path": [0.5]}})
    with pytest.raises(ValueError, match="finite-volume solver only"):
        SweepConfig(k_path=(0.5,), base=resolve_config({**_minimal(), "solver": solver}))


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
        resolve_config({**_minimal(), "init_table": "table.npz"})


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
    if name != "solver":  # a sweep runs the finite-volume solver only
        data["sweep"] = {"k_path": [0.0, 1.0, 0.0]}
    (data if section is None else data.setdefault(section, {}))[name] = raw
    config = resolve_config(data)
    base = getattr(config, "base", config)
    owner = {None: base, "scheme": base.scheme, "sweep": config}[section]
    assert getattr(owner, name) == value
    assert resolve_config(serialize_config(config)) == config


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


def test_an_empty_sweep_section_is_the_default_sweep(tmp_path):
    """A `sweep:` line with nothing under it is YAML null.  Its presence
    still makes the run a sweep, with every sweep key at its default."""
    path = tmp_path / "sweep.yaml"
    path.write_text("m: 0.5\nK: 0.1\nu0: -sin(theta)\nsweep:\n")
    sweep = parse_config(str(path))
    assert isinstance(sweep, SweepConfig)
    assert sweep == resolve_config({**_minimal(), "sweep": {}})
    fwd, bwd = sweep.branches()
    assert fwd[0] == 0.0 and fwd[-1] == 4.0 and len(fwd) == 41
    assert bwd[-1] == 0.0 and len(bwd) == 41
    assert sweep.t_max == 50.0 and sweep.base.params.m == 0.5


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


@pytest.mark.parametrize(
    "command, override, message",
    [
        ("run", "K=.inf", "K must be nonnegative and finite, got inf"),
        ("classify", "m=.inf", "m must be positive and finite, got inf"),
    ],
)
def test_cli_refuses_a_non_finite_parameter(tmp_path, capsys, command, override, message):
    argv = [command, "--config", _write_cfg(tmp_path), "--set", override]
    if command == "run":
        argv += ["--out", str(tmp_path / "x")]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "override, message",
    [
        ("n_theta=[1,2]", "n_theta must be an integer, got [1, 2]"),
        ("snapshot_times=5", "snapshot_times must be a list of numbers, got 5"),
        ("K=null", "K must be a number, got None"),
        ("t_end=abc", "t_end must be a number, got 'abc'"),
        ("n_theta=100.7", "n_theta must be an integer, got 100.7"),
        ("n_samples=2.9", "n_samples must be an integer, got 2.9"),
        ("t_end=true", "t_end must be a number, got True"),
        ("m=true", "m must be a number, got True"),
        ("init_table=7", "init_table must be a string, got 7"),
        ("init_table=0", "init_table must be a string, got 0"),
    ],
)
def test_cli_refuses_a_config_value_of_the_wrong_type(tmp_path, capsys, override, message):
    """Each once ended in a traceback, an error naming no key, a silent
    truncation or cast, or a read of a file descriptor."""
    argv = ["classify", "--config", _write_cfg(tmp_path), "--set", override]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_refuses_a_profile_that_is_not_a_string_or_a_number(tmp_path, capsys):
    """rho0 and u0 take a string or a number; a bool, a null or a list was
    turned into a profile text by str() and refused without naming its key."""
    cfg = _write_cfg(tmp_path)
    for override, message in [
        ("u0=true", "u0 must be a string or a number, got True"),
        ("rho0=[1,2]", "rho0 must be a string or a number, got [1, 2]"),
        ("u0=null", "u0 must be a string or a number, got None"),
    ]:
        assert main(["classify", "--config", cfg, "--set", override]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    # a number is a constant profile
    assert resolve_config({**_minimal(), "u0": 0.3, "rho0": 2}).init == InitSpec(
        parse_rho0("2"), UConst(0.3)
    )


@pytest.mark.parametrize(
    "override, message",
    [
        ("u0=abc", "u0: cannot parse profile expression 'abc': expected "
                   "'A*sin(c*theta)+B', 'A*cos(c*theta)+B', or a constant"),
        ("rho0=gaussian(1)", "rho0: gaussian(mu, sigma) takes exactly two arguments"),
    ],
    ids=["u0", "rho0"],
)
def test_cli_refuses_a_profile_that_does_not_parse_naming_its_key(
    tmp_path, capsys, override, message
):
    """The parser's message once came without the key it was parsing."""
    argv = ["classify", "--config", _write_cfg(tmp_path), "--set", override]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("solver", ["lagrangian", "both"])
def test_cli_sweep_refuses_a_solver_other_than_eulerian(tmp_path, capsys, solver):
    """The sweep ran the finite-volume solver anyway and recorded the
    other solver in its manifest."""
    desk = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs",
                        "hysteresis_desk.yaml")
    argv = ["sweep", "--config", desk, "--set", f"solver={solver}",
            "--set", "sweep.k_path=[0.5]", "--set", "sweep.t_max=0.2",
            "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    message = f"a sweep runs the finite-volume solver only: solver must be eulerian, not {solver}"
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "x").exists()


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
    and |rho_a - rho_b| taken one slice at a time.  Parsing the whole CSV
    table and taking abs of a difference once peaked at 6.05."""
    from conftest import peak_fields

    from kurahydro.diagnostics import TimeSeries
    from kurahydro.io import write_series_csv, write_snapshot_csv

    (tmp_path / "snapshots").mkdir()
    rho = rng.lognormal(size=(64, 200))
    write_snapshot_csv(
        str(tmp_path / "snapshots" / "t=0.npz"),
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


def test_cli_compare_refuses_a_snapshot_of_the_wrong_shape(tmp_path, capsys):
    """Two runs whose t=0 snapshots share theta (8 cells) and omega (2
    nodes), one holding rho of shape (1, 8): compare once paired its one
    slice with the other's first and exited 0."""
    theta = np.linspace(-np.pi, np.pi, 8, endpoint=False)
    for name, n_rho in (("a", 1), ("b", 2)):
        (tmp_path / name / "snapshots").mkdir(parents=True)
        write_series_csv(str(tmp_path / name / "series.csv"), TimeSeries(np.zeros((3, 14))))
        with open(tmp_path / name / "snapshots" / "t=0.npz", "wb") as fh:
            np.savez(fh, theta=theta, omega=np.array([-1.0, 1.0]), rho=np.ones((n_rho, 8)),
                     u=np.zeros((2, 8)))
    assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 2
    path = tmp_path / "a" / "snapshots" / "t=0.npz"
    message = "table needs 1-D theta and omega, and rho and u of shape (2, 8); got (1, 8)/(2, 8)"
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


def test_cli_compare_two_solvers(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, snapshot_times="[0.3]")
    out_e, out_l = tmp_path / "e", tmp_path / "l"
    assert main(["run", "--config", cfg, "--out", str(out_e)]) == 0
    assert main(["oracle", "--config", cfg, "--out", str(out_l)]) == 0
    capsys.readouterr()  # discard run summaries
    assert main(["compare", str(out_e), str(out_l)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_abs_dr"] < 5e-3


def _outputs_at_thread_counts(tmp_path, command, cfg):
    """The --out directories of `kurahydro command --config cfg` run in a
    fresh process at 1 and at 2 BLAS/OpenMP threads."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kurahydro.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        out = tmp_path / f"threads{threads}"
        subprocess.run(
            [sys.executable, "-m", "kurahydro.cli", command, "--config", str(cfg),
             "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        outputs.append(out)
    return outputs


def test_cli_run_is_bit_identical_across_thread_counts(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("m: 0.5\nK: 1.0\nu0: -sin(theta)\ng: gaussian\nn_omega: 64\n"
                   "n_theta: 200\nt_end: 0.2\nsnapshot_times: [0.2]\n")
    outputs = _outputs_at_thread_counts(tmp_path, "run", cfg)
    for rel in ("series.csv", "snapshots/t=0.2.npz"):
        a, b = ((o / rel).read_bytes() for o in outputs)
        assert a == b, f"{rel} differs between 1 and 2 BLAS/OpenMP threads"


@pytest.mark.parametrize(
    "command, size",
    [("oracle", "n_samples: 12000\n"), ("run", "g: gaussian\nn_omega: 12000\n")],
)
def test_cli_sums_over_12000_terms_are_bit_identical_across_thread_counts(
    tmp_path, command, size
):
    """12,000 samples or frequency nodes: more than OpenBLAS sums on one
    thread in one np.dot."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("m: 0.5\nK: 1.0\nu0: -sin(theta)\nn_theta: 8\nt_end: 0.1\n"
                   "record_dt: 0.01\n" + size)
    outputs = _outputs_at_thread_counts(tmp_path, command, cfg)
    a, b = ((o / "series.csv").read_bytes() for o in outputs)
    assert a == b, "series.csv differs between 1 and 2 BLAS/OpenMP threads"


def test_cli_bad_config_path_returns_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["eps_speed", "blowup_grad", "clip_abort"])
def test_cli_rejects_a_removed_scheme_key(tmp_path, capsys, key):
    """The CFL speed floor, the gradient-collapse limit and the clipped-mass
    limit are constants (fv.EPS_SPEED, diagnostics.BLOWUP_GRAD,
    fv.CLIP_ABORT), no longer scheme keys: a config or an old manifest that
    sets one is refused, naming it."""
    path = tmp_path / "old.yaml"
    path.write_text(
        'm: 0.5\nK: 0.1\nu0: "0"\nn_theta: 48\nt_end: 0.1\n'
        f"scheme:\n  {key}: 1.0e-12\n"
    )
    out = tmp_path / "x"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"unknown scheme keys: {key}" in err
    assert not out.exists()
    old_manifest_config = serialize_config(parse_config(_write_cfg(tmp_path)))
    old_manifest_config["scheme"][key] = 1e-12
    with pytest.raises(ValueError, match=f"unknown scheme keys: {key}"):
        resolve_config(old_manifest_config)


@pytest.mark.parametrize(
    "override",
    [
        "dt_oracle=0", "dt_oracle=-1e-3", "dt_oracle=.nan", "n_samples=1",
        "snapshot_times=[0.026]",
    ],
)
def test_cli_rejects_a_bad_oracle_setting_before_any_solver_runs(
    tmp_path, capsys, override
):
    """A zero, negative or NaN dt_oracle, or a single sample, would fail only
    in the oracle, after the FV run of a solver: both config; a snapshot time
    off the dt_oracle = 1e-2 grid would get the ensemble of its nearest step
    (t=0.03 for 0.026).  Each is refused before anything runs."""
    cfg = _write_cfg(tmp_path, solver="both")
    out = tmp_path / "x"
    argv = ["run", "--config", cfg, "--out", str(out), "--set", override]
    assert main(argv) == 2
    err = capsys.readouterr().err
    key = override.partition("=")[0]
    assert err.startswith("error:") and key in err
    assert not out.exists()


def test_cli_set_reaches_into_an_empty_section(tmp_path):
    """A section left empty (YAML null) takes a dotted override as if it
    were an empty mapping."""
    cfg = _write_cfg(tmp_path, scheme="")
    assert parse_config(cfg).scheme == SchemeConfig()
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--set", "scheme.cfl=0.3"]) == 0
    assert read_manifest(str(out / "manifest.json"))["config"]["scheme"]["cfl"] == 0.3


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


@pytest.mark.parametrize(
    "command, text, override, message",
    [
        ("run", "", ["--set", "omega0=0"], "unknown config keys: omega0"),
        ("sweep", "sweep:\n  k_path: [0, 0.2, 0]\n  refine_step: 0.05\n"
         "  refine_window: 0.3\n", [], "unknown sweep keys: refine_window"),
    ],
    ids=["omega0", "refine_window"],
)
def test_cli_rejects_a_setting_that_became_a_constant(
    tmp_path, capsys, command, text, override, message
):
    """sweep.refine_window is the constant experiments.REFINE_WINDOW, and
    omega0 is gone: a dirac g is the frequency 0, since a common frequency
    is the same system in a rotating frame (scheme.clip_abort, now
    fv.CLIP_ABORT, is a case of test_cli_rejects_a_removed_scheme_key).
    Setting one is refused before anything runs, naming it."""
    path = tmp_path / "cfg.yaml"
    path.write_text("m: 0.5\nK: 0.0\nu0: -sin(theta)\nn_theta: 48\n" + text)
    out = tmp_path / "x"
    assert main([command, "--config", str(path), "--out", str(out), *override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


def test_cli_run_into_a_used_directory_keeps_only_its_own_snapshots(tmp_path, capsys):
    """A second run into the same --out removes the snapshots of the first
    that it does not write, so the directory, its manifest and compare all
    tell of one run; files other than t=*.npz stay."""
    cfg = _write_cfg(tmp_path, snapshot_times="[0, 0.1, 0.2]")
    out = tmp_path / "x"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(os.listdir(out / "snapshots")) == ["t=0.1.npz", "t=0.2.npz", "t=0.npz"]
    (out / "snapshots" / "notes.txt").write_text("kept")
    argv = ["run", "--config", cfg, "--out", str(out),
            "--set", "snapshot_times=[0.0]", "--set", "K=0.9"]
    assert main(argv) == 0
    assert sorted(os.listdir(out / "snapshots")) == ["notes.txt", "t=0.npz"]
    assert read_manifest(str(out / "manifest.json"))["config"]["K"] == 0.9
    capsys.readouterr()
    assert main(["compare", str(out), str(out)]) == 0
    assert list(json.loads(capsys.readouterr().out)["l1_rho"]) == ["0"]


def test_cli_run_removes_the_csv_snapshots_of_an_earlier_version(tmp_path, capsys):
    """Snapshots were once t=*.csv files: a run into a directory that holds
    some removes them all, written at its own times or not, so the
    directory never mixes two formats and compare reads it."""
    cfg = _write_cfg(tmp_path, snapshot_times="[0.0]")
    out = tmp_path / "x"
    (out / "snapshots").mkdir(parents=True)
    for name in ("t=0.csv", "t=0.3.csv", "notes.csv"):
        (out / "snapshots" / name).write_text("theta,omega,rho,u\r\n")
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(os.listdir(out / "snapshots")) == ["notes.csv", "t=0.npz"]
    capsys.readouterr()
    assert main(["compare", str(out), str(out)]) == 0
    assert list(json.loads(capsys.readouterr().out)["l1_rho"]) == ["0"]


@pytest.mark.parametrize(
    "name, message",
    [
        ("t=backup.npz", "{0}/t=backup.npz: 'backup' is not a snapshot time"),
        ("t=inf.npz", "{0}/t=inf.npz: 'inf' is not a snapshot time"),
        ("t=0.0.npz", "{0}/t=0.0.npz and {0}/t=0.npz name one snapshot time"),
        ("t=backup.csv", "{0}/t=backup.csv: 'backup' is not a snapshot time"),
        ("t=inf.csv", "{0}/t=inf.csv: 'inf' is not a snapshot time"),
        ("t=0.0.csv", "{0}/t=0.0.csv and {0}/t=0.npz name one snapshot time"),
        ("t=0.5.csv",
         "{0}/t=0.5.csv: a CSV snapshot of an earlier version; snapshots are now .npz"),
    ],
)
def test_cli_compare_names_a_bad_snapshot_file(tmp_path, capsys, name, message):
    """A t=*.npz or t=*.csv name without a nonnegative finite time, a second
    name of one time in either form, or a t=*.csv snapshot of an earlier
    version, which compare would otherwise skip, ends compare with an error
    naming the files."""
    cfg = _write_cfg(tmp_path, snapshot_times="[0.0]")
    out = tmp_path / "x"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    shutil.copy(out / "snapshots" / "t=0.npz", out / "snapshots" / name)
    capsys.readouterr()
    assert main(["compare", str(out), str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(out / 'snapshots')}\n"


def test_cli_writes_distinct_snapshot_times_to_distinct_files(tmp_path):
    """0.1234561 and 0.1234564 print alike in %g; each gets a file of its own."""
    path = tmp_path / "snaps.yaml"
    path.write_text(
        'm: 0.5\nK: 0.1\nn_theta: 48\nt_end: 0.2\n'
        "snapshot_times: [0.1234561, 0.1234564]\n"
    )
    out = tmp_path / "x"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert set(list_snapshots(str(out))) == {0.1234561, 0.1234564}


def test_both_solvers_name_a_negative_zero_snapshot_t0(tmp_path, capsys):
    """A snapshot time of -0.0 is the file t=0.npz from either solver, and
    compare keys it "0"."""
    cfg = _write_cfg(tmp_path, solver="both")
    out = tmp_path / "x"
    argv = ["run", "--config", cfg, "--out", str(out), "--set", "snapshot_times=[-0.0, 0.1]"]
    assert main(argv) == 0
    for solver in ("eulerian", "lagrangian"):
        assert sorted(os.listdir(out / solver / "snapshots")) == ["t=0.1.npz", "t=0.npz"]
    capsys.readouterr()
    assert main(["compare", str(out / "eulerian"), str(out / "lagrangian")]) == 0
    assert sorted(json.loads(capsys.readouterr().out)["l1_rho"]) == ["0", "0.1"]


@pytest.mark.parametrize(
    "override",
    ["t_end=.inf", "record_dt=.inf", "dt_oracle=.inf", "snapshot_times=[.inf]",
     "scheme.max_dt=.inf", "sweep.t_max=.inf"],
)
def test_cli_rejects_a_non_finite_time_naming_its_key(tmp_path, capsys, override):
    """An infinite time would fail only inside a solver, or never end; it
    is refused before anything runs, naming the key."""
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "x"
    assert main(["run", "--config", cfg, "--out", str(out), "--set", override]) == 2
    err = capsys.readouterr().err
    key = override.partition("=")[0]
    assert err.startswith(f"error: {key} must be") and "finite" in err
    assert not out.exists()


def test_cli_both_solvers_share_their_row_times(tmp_path, capsys):
    """t_end = 0.505 and record_dt = 0.015 lie on the dt_oracle = 0.005 grid
    but t_end not on the default 1e-2 one: there the run is refused before
    anything runs, naming t_end.  On the finer grid both solvers write rows
    at 0, 0.015, ..., 0.495 and at t_end, and neither steps past it."""
    cfg = _write_cfg(tmp_path, solver="both", t_end=0.505, record_dt=0.015)
    out = tmp_path / "x"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: t_end 0.505 is not a multiple of dt_oracle=0.01")
    assert not out.exists()
    argv = ["run", "--config", cfg, "--out", str(out), "--set", "dt_oracle=0.005"]
    assert main(argv) == 0
    t_fv = read_series_csv(str(out / "eulerian" / "series.csv")).t
    t_oracle = read_series_csv(str(out / "lagrangian" / "series.csv")).t
    assert t_fv.shape == t_oracle.shape == (35,)
    assert t_fv[-1] == pytest.approx(0.505, abs=1e-12)
    np.testing.assert_allclose(t_fv[:-1], 0.015 * np.arange(34), rtol=0, atol=1e-12)
    np.testing.assert_allclose(t_fv, t_oracle, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# init_table: a table in the snapshot format


def test_restart_from_a_snapshot_is_bitwise(tmp_path):
    """A run's snapshots/t=<t>.npz as init_table: u has the snapshot's bits,
    rho those of the snapshot's rho normalized per slice, and the restarted
    run goes on."""
    cfg = _write_cfg(tmp_path, g="gaussian", n_omega=5, snapshot_times="[0.2]")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    snap = tmp_path / "out" / "snapshots" / "t=0.2.npz"
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


def test_a_relative_init_table_is_read_from_the_config_files_directory(
    tmp_path, monkeypatch
):
    """A config restarting from ../run/snapshots/t=0.2.npz runs from any
    working directory (it used to exit 2, file not found), and the manifest
    records that path joined to the config's directory as the command
    named it.  An init_table set on the command line stays relative to the
    working directory."""
    cfg = _write_cfg(tmp_path, snapshot_times="[0.2]")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    table = "../run/snapshots/t=0.2.npz"
    (tmp_path / "restart").mkdir()
    (tmp_path / "restart" / "restart.yaml").write_text(
        f"m: 0.5\nK: 0.1\nn_theta: 48\nt_end: 0.1\ninit_table: {table}\n"
    )
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    restart = ["run", "--config", "../restart/restart.yaml"]
    assert main([*restart, "--out", "again"]) == 0
    manifest = read_manifest("again/manifest.json")
    assert manifest["config"]["init_table"] == "../restart/" + table
    assert main([*restart, "--out", "typed", "--set", f"init_table={table}"]) == 0
    assert read_manifest("typed/manifest.json")["config"]["init_table"] == table


@pytest.mark.parametrize("name,value", [("u", np.inf), ("rho", np.nan)])
def test_cli_rejects_a_table_with_non_finite_values(tmp_path, capsys, name, value):
    """A u=inf table used to run and report blow-up at t=0, a rho=NaN one to
    fail with "empty support"; both are refused before anything runs."""
    theta = make_theta_grid(48).centers
    fields = {"rho": np.ones((1, 48)), "u": np.zeros((1, 48))}
    fields[name][0, 7] = value
    table = tmp_path / "init.npz"
    write_snapshot_csv(str(table), theta, [0.0], fields["rho"], fields["u"])
    path = tmp_path / "table.yaml"
    path.write_text(f"m: 0.5\nK: 0.1\nn_theta: 48\nt_end: 0.1\ninit_table: {table}\n")
    out = tmp_path / "x"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{table}: table {name} has non-finite values" in err
    assert not out.exists()


@pytest.mark.parametrize("kind", list(BAD_NPZ))
def test_cli_run_refuses_a_bad_init_table(tmp_path, capsys, kind):
    """A table from outside the program that is not a snapshot .npz (see
    conftest.BAD_NPZ), a CSV table among them, ends the run with one error
    line naming the file, before anything runs."""
    table = tmp_path / "init.npz"
    make, message = BAD_NPZ[kind]
    make(table)
    path = tmp_path / "table.yaml"
    path.write_text(f"m: 0.5\nK: 0.1\nn_theta: 48\nt_end: 0.1\ninit_table: {table}\n")
    out = tmp_path / "x"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {table}: {message}\n")
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
    table = tmp_path / "init.npz"
    theta = make_theta_grid(48).centers
    write_snapshot_csv(str(table), theta, [0.0], np.ones((1, 48)), np.zeros((1, 48)))
    path = tmp_path / "table.yaml"
    path.write_text(f"m: 0.5\nK: 0.1\nn_theta: 48\nt_end: 0.1\ninit_table: {table}\n")
    out = tmp_path / "x"
    assert main([argv[0], "--config", str(path), "--out", str(out), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"init_table runs with solver eulerian only, not {solver}" in err
    assert not out.exists()
