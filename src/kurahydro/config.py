"""Config file schema: YAML key:value mappings resolved to run configurations.

The config dataclasses ScenarioConfig, SchemeConfig and SweepConfig, defined
here, are the schema.  Each of their fields declared int, float, str, tuple
(of floats) or float | None is a config key of the same name; a given value
is coerced to that type, and a key left out keeps the field's default.  A
number is a number or a numeric string, never a bool, a null or a list,
and an int is an integral one; a tuple is a list of numbers and a str a
string.  rho0 and u0 are a string or a number, a number meaning that
constant.  A value of the wrong type, m, K, rho0, u0, the k range and
init_table included, is refused naming its key.  The keys, with defaults
in parentheses:

Scenario: m, K [required]; n_theta (1000); g: dirac|gaussian (dirac);
n_omega (600); omega_L (5.0); rho0 (gaussian); u0 ("0"); init_table
[replaces rho0/u0: a snapshot .npz, read by io.read_snapshot_csv into
one TableData as the config's init; parse_config takes a relative path in
a file as relative to that file]; t_end (5.0); record_dt (0.01);
snapshot_times ([]); solver: eulerian|lagrangian|both (eulerian);
n_samples (1024); dt_oracle (1e-2).  A dirac g is the single frequency 0
(domain.discretize_frequency).  The times are finite, and omega_L
positive and finite.  With solver lagrangian or both, t_end, record_dt and
each snapshot time up to t_end must be a multiple of dt_oracle
(lagrangian.oracle_step), t_end and record_dt a positive one.

scheme section: cfl (0.4); max_dt (1e-2); blowup_rho_factor (1e3).
max_dt is finite and blowup_rho_factor at least 1.  The mass a step may
clip is the constant fv.CLIP_ABORT.

A sweep section, even an empty one, turns the result into a SweepConfig:
k_min (0) / k_max (4) / k_step (0.1) building the path k_min -> k_max ->
k_min, or an explicit k_path list, plus steady_tol (1e-4), steady_window
(1.0), t_max (50), refine_step (null); each of these knobs, when given, is
positive and finite.  Refinement walks a window of half-width
experiments.REFINE_WINDOW around each jump.  A sweep runs the
finite-volume solver only, so its solver is eulerian.

A key that no dataclass declares, such as a setting that has become a
module constant, is refused as unknown.

rho0 accepts the named forms uniform | gaussian | gaussian(mu,sigma) |
point(theta0) or a nonnegative wave expression; u0 accepts wave expressions
"A*sin(c*theta)+B", "A*cos(c*theta)+B", or a constant.
"""
from __future__ import annotations

import functools
import math
import numbers
import os
import re
import typing
from dataclasses import dataclass, fields

import numpy as np
import yaml

from .diagnostics import time_key
from .domain import (
    InitSpec,
    Params,
    RhoGaussian,
    RhoPointCell,
    RhoUniform,
    TableData,
    UConst,
    UCosine,
    USine,
)
from .io import read_snapshot_csv
from .lagrangian import oracle_step


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme knobs: CFL number, step cap and blow-up threshold."""

    cfl: float = 0.4
    max_dt: float = 1e-2
    blowup_rho_factor: float = 1e3

    def __post_init__(self):
        if not 0.0 < self.cfl < 1.0:
            raise ValueError("scheme.cfl must lie in (0, 1)")
        if not 0 < self.max_dt < math.inf:
            raise ValueError("scheme.max_dt must be positive and finite")
        # a factor below 1 fires on the initial state, and NaN never fires
        if not self.blowup_rho_factor >= 1:
            raise ValueError("scheme.blowup_rho_factor must be at least 1")


@dataclass(frozen=True)
class ScenarioConfig:
    params: Params
    init: InitSpec | TableData
    n_theta: int = 1000
    g: str = "dirac"
    n_omega: int = 600
    omega_L: float = 5.0
    t_end: float = 5.0
    record_dt: float = 0.01
    snapshot_times: tuple = ()
    solver: str = "eulerian"
    scheme: SchemeConfig = SchemeConfig()
    n_samples: int = 1024
    dt_oracle: float = 1e-2

    def __post_init__(self):
        for name in ("t_end", "record_dt", "dt_oracle", "omega_L"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.n_samples < 2:
            raise ValueError("n_samples must be at least 2")
        if self.solver not in ("eulerian", "lagrangian", "both"):
            raise ValueError("solver must be eulerian, lagrangian, or both")
        if self.solver != "eulerian" and isinstance(self.init, TableData):
            raise ValueError(
                f"init_table runs with solver eulerian only, not {self.solver}: "
                "the oracle samples symbolic initial data"
            )
        if self.g not in ("dirac", "gaussian"):
            raise ValueError("g must be dirac or gaussian")
        object.__setattr__(self, "snapshot_times", tuple(self.snapshot_times))
        # a negative time is never reached, so neither solver would write it;
        # times past t_end stay accepted (a shortened run keeps its config)
        if any(not 0 <= t < math.inf for t in self.snapshot_times):
            raise ValueError("snapshot_times must be nonnegative and finite")
        # the oracle writes rows and snapshots only at its steps
        if self.solver != "eulerian":
            dt = self.dt_oracle
            for name in ("t_end", "record_dt"):
                if oracle_step(getattr(self, name), dt, name) < 1:
                    raise ValueError(f"{name} must be at least dt_oracle={dt!r}")
            for t in self.snapshot_times:
                if time_key(t) <= time_key(self.t_end):
                    oracle_step(t, dt, "snapshot_times entry")


@dataclass(frozen=True)
class SweepConfig:
    """Coupling path (forward leg then backward leg) plus steady-state knobs."""

    k_path: tuple
    steady_tol: float = 1e-4
    steady_window: float = 1.0
    t_max: float = 50.0
    refine_step: float | None = None
    base: ScenarioConfig | None = None

    def __post_init__(self):
        if self.base is not None and self.base.solver != "eulerian":
            raise ValueError(
                "a sweep runs the finite-volume solver only: solver must be "
                f"eulerian, not {self.base.solver}"
            )
        object.__setattr__(self, "k_path", tuple(float(k) for k in self.k_path))
        if not self.k_path:
            raise ValueError("k_path must contain at least one coupling value")
        if any(k < 0 for k in self.k_path):
            raise ValueError("coupling values must be nonnegative")
        for name in ("steady_tol", "steady_window", "t_max", "refine_step"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"sweep.{name} must be positive and finite")
        if self.refine_step is not None and len(self.k_path) > 1:
            steps = [
                abs(b - a)
                for a, b in zip(self.k_path, self.k_path[1:])
                if abs(b - a) > 0
            ]
            if steps and self.refine_step >= min(steps):
                raise ValueError("refine_step must be smaller than the sweep step")

    def branches(self):
        """Split the path at its peak into (forward, backward) legs."""
        peak = max(range(len(self.k_path)), key=lambda i: self.k_path[i])
        forward = self.k_path[: peak + 1]
        return forward, self.k_path[peak:]


_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_CONST_RE = re.compile(rf"^[+-]?{_NUM}$")
_WAVE_RE = re.compile(
    rf"^(?:(?P<c1>[+-]?{_NUM})(?=[+-]))?"
    rf"(?P<sgn>[+-])?"
    rf"(?:(?P<amp>{_NUM})\*)?"
    rf"(?P<fn>sin|cos)"
    rf"\((?:(?P<freq>[+-]?{_NUM})\*)?theta\)"
    rf"(?:(?P<op2>[+-])(?P<c2>{_NUM}))?$"
)
_RHO_CALL_RE = re.compile(r"^(gaussian|point)\(([^)]*)\)$")


def parse_wave_expression(text):
    """Parse "A*sin(c*theta)+B" style expressions (or constants) to a profile."""
    s = re.sub(r"\s+", "", str(text))
    if not s:
        raise ValueError("empty profile expression")
    if _CONST_RE.match(s):
        return UConst(float(s))
    mobj = _WAVE_RE.match(s)
    if mobj is None:
        raise ValueError(
            f"cannot parse profile expression {text!r}: expected "
            "'A*sin(c*theta)+B', 'A*cos(c*theta)+B', or a constant"
        )
    g = mobj.groupdict()
    amp = float(g["amp"]) if g["amp"] else 1.0
    if g["sgn"] == "-":
        amp = -amp
    freq = float(g["freq"]) if g["freq"] else 1.0
    offset = float(g["c1"]) if g["c1"] else 0.0
    if g["c2"]:
        offset += float(g["op2"] + g["c2"])
    cls = USine if g["fn"] == "sin" else UCosine
    return cls(amp, freq, offset)


def _fmt(x):
    return repr(float(x))


def format_wave(spec):
    """Canonical expression string for a profile; inverse of the parser."""
    if isinstance(spec, UConst):
        return _fmt(spec.value)
    if not isinstance(spec, (USine, UCosine)):
        raise TypeError(f"cannot format profile of type {type(spec).__name__}")
    fn = "sin" if isinstance(spec, USine) else "cos"
    if spec.amplitude == 1.0:
        head = fn
    elif spec.amplitude == -1.0:
        head = "-" + fn
    else:
        head = f"{_fmt(spec.amplitude)}*{fn}"
    arg = "theta" if spec.freq == 1.0 else f"{_fmt(spec.freq)}*theta"
    out = f"{head}({arg})"
    if spec.offset > 0:
        out += f"+{_fmt(spec.offset)}"
    elif spec.offset < 0:
        out += f"-{_fmt(-spec.offset)}"
    return out


def parse_rho0(text):
    """Parse a rho0 spec: named density forms or a wave expression."""
    s = re.sub(r"\s+", "", str(text))
    if s == "uniform":
        return RhoUniform()
    if s == "gaussian":
        return RhoGaussian()
    mobj = _RHO_CALL_RE.match(s)
    if mobj is not None:
        name, args = mobj.groups()
        try:
            values = [float(a) for a in args.split(",")] if args else []
        except ValueError:
            raise ValueError(f"bad numeric arguments in rho0 spec {text!r}") from None
        if name == "gaussian":
            if len(values) != 2:
                raise ValueError("gaussian(mu, sigma) takes exactly two arguments")
            return RhoGaussian(*values)
        if len(values) != 1:
            raise ValueError("point(theta0) takes exactly one argument")
        return RhoPointCell(values[0])
    return parse_wave_expression(s)


def format_rho0(spec):
    """Canonical config string for a rho0 spec; inverse of parse_rho0."""
    if isinstance(spec, RhoUniform):
        return "uniform"
    if isinstance(spec, RhoGaussian):
        if spec.mu == 0.0 and spec.sigma == 1.0:
            return "gaussian"
        return f"gaussian({_fmt(spec.mu)},{_fmt(spec.sigma)})"
    if isinstance(spec, RhoPointCell):
        return f"point({_fmt(spec.theta0)})"
    return format_wave(spec)


# The sweep's shorthand for k_path, k_min -> k_max -> k_min, with its defaults.
_K_RANGE_DEFAULTS = {"k_min": 0.0, "k_max": 4.0, "k_step": 0.1}


def _to_float(value):
    # YAML leaves exponent-only literals such as 1e-2 as strings
    if isinstance(value, bool) or not isinstance(value, (numbers.Real, str)):
        raise TypeError
    return float(value)


def _to_int(value):
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    number = _to_float(value)
    if not number.is_integer():
        raise ValueError
    return int(number)


def _to_str(value):
    if not isinstance(value, str):
        raise TypeError
    return value


def _to_profile(value):
    # a number is the constant profile it spells
    return value if isinstance(value, str) else repr(_to_float(value))


def _to_float_or_none(value):
    return None if value is None else _to_float(value)


def _to_tuple(value):
    if not isinstance(value, list | tuple):
        raise TypeError
    return tuple(map(_to_float, value))


# Declared field type -> (what a config value must be, its coercion); rho0
# and u0, resolved by hand, are str | float, a profile text or a constant.
# A number refuses a bool, a null and a list; an int refuses a fraction.
_COERCE = {
    int: ("an integer", _to_int),
    float: ("a number", _to_float),
    str: ("a string", _to_str),
    tuple: ("a list of numbers", _to_tuple),
    float | None: ("a number or null", _to_float_or_none),
    str | float: ("a string or a number", _to_profile),
}


def _coerce(kind, name, value):
    """value coerced to the declared type kind; a ValueError names the key."""
    what, coerce = _COERCE[kind]
    try:
        return coerce(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be {what}, got {value!r}") from None


def _parse_profile(parse, name, value):
    """parse of the string or number value; a ValueError names the key."""
    value = _coerce(str | float, name, value)
    try:
        return parse(value)
    except ValueError as err:
        raise ValueError(f"{name}: {err}") from None


@functools.cache
def _plain_fields(cls):
    """{name: declared type} for each field of a config dataclass with a
    plain type, one that _COERCE coerces.

    Params, the initial data and the nested configs (scheme, base) are
    resolved and serialized by hand.
    """
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if hints[f.name] in _COERCE}


def _resolve_fields(cls, data, section, by_hand=()):
    """Coerced keyword arguments for the plain fields of cls given in data.

    Keys that are neither plain fields nor in by_hand raise; fields not
    given keep the dataclass default.  A key of a section is named
    section.key in a message, and a top-level key by itself.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{section} section must be a key:value mapping")
    plain = _plain_fields(cls)
    unknown = sorted(set(data) - set(plain) - set(by_hand))
    if unknown:
        raise ValueError(f"unknown {section} keys: " + ", ".join(unknown))
    prefix = "" if section == "config" else section + "."
    return {k: _coerce(plain[k], prefix + k, v) for k, v in data.items() if k in plain}


def _serialize_fields(obj):
    """Plain-field values of a config dataclass instance; tuples become lists."""
    out = {}
    for name in _plain_fields(type(obj)):
        value = getattr(obj, name)
        out[name] = list(value) if isinstance(value, tuple) else value
    return out


def resolve_config(data):
    """Resolve a parsed mapping to a ScenarioConfig or SweepConfig."""
    if not isinstance(data, dict):
        raise ValueError("config must be a key:value mapping")
    data = dict(data)
    is_sweep = "sweep" in data  # an empty section (YAML null) included
    sweep_data = data.pop("sweep", None)
    scheme_data = data.pop("scheme", None)
    by_hand = ("m", "K", "rho0", "u0", "init_table")
    kwargs = _resolve_fields(ScenarioConfig, data, "config", by_hand)
    missing = [k for k in ("m", "K") if k not in data]
    if missing:
        raise ValueError("missing required config keys: " + ", ".join(missing))

    table_path = data.get("init_table")
    if table_path is not None:
        table_path = _coerce(str, "init_table", table_path)
        if "rho0" in data or "u0" in data:
            raise ValueError("init_table replaces rho0/u0; remove those keys")
        init = TableData(*read_snapshot_csv(table_path), path=table_path)
    else:
        init = InitSpec(
            rho0=_parse_profile(parse_rho0, "rho0", data.get("rho0", "gaussian")),
            u0=_parse_profile(parse_wave_expression, "u0", data.get("u0", "0")),
        )

    scheme_data = {} if scheme_data is None else scheme_data  # absent, or YAML null
    scheme = SchemeConfig(**_resolve_fields(SchemeConfig, scheme_data, "scheme"))
    scenario = ScenarioConfig(
        params=Params(*(_coerce(float, k, data[k]) for k in ("m", "K"))),
        init=init,
        scheme=scheme,
        **kwargs,
    )
    if not is_sweep:
        return scenario
    return _resolve_sweep({} if sweep_data is None else sweep_data, scenario)


def _resolve_sweep(data, base):
    kwargs = _resolve_fields(SweepConfig, data, "sweep", _K_RANGE_DEFAULTS)
    if "k_path" not in kwargs:
        lo, hi, step = (
            _coerce(float, f"sweep.{k}", data.get(k, d)) for k, d in _K_RANGE_DEFAULTS.items()
        )
        if not step > 0 or not hi >= lo:
            raise ValueError("sweep needs k_max >= k_min and k_step > 0")
        ks = np.round(np.arange(lo, hi + 0.5 * step, step), 12)
        kwargs["k_path"] = tuple(ks) + tuple(ks[-2::-1])
    return SweepConfig(base=base, **kwargs)


def serialize_config(config):
    """Config object -> plain mapping; resolve_config inverts it exactly."""
    if isinstance(config, SweepConfig):
        out = serialize_config(config.base) if config.base is not None else {}
        out["sweep"] = _serialize_fields(config)
        return out
    out = {"m": config.params.m, "K": config.params.K}
    if isinstance(config.init, TableData):
        out["init_table"] = config.init.path
    else:
        out["rho0"] = format_rho0(config.init.rho0)
        out["u0"] = format_wave(config.init.u0)
    out.update(_serialize_fields(config), scheme=_serialize_fields(config.scheme))
    return out


def load_config_data(path):
    """Read a YAML config file into a plain mapping (empty file -> {})."""
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a key:value mapping")
    return data


def apply_overrides(data, overrides):
    """Apply dotted key=value strings (e.g. scheme.cfl=0.3) to a mapping."""
    for item in overrides:
        key, sep, raw = str(item).partition("=")
        if not sep or not key:
            raise ValueError(f"override {item!r} must look like key=value")
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            if node.get(part) is None:  # a missing or empty (null) section
                node[part] = {}
            node = node[part]
            if not isinstance(node, dict):
                raise ValueError(f"override {item!r} descends into a non-mapping")
        node[parts[-1]] = yaml.safe_load(raw) if raw != "" else None
    return data


def parse_config(path, overrides=()):
    """Read, override, and resolve a config file.

    A relative init_table in the file names a path relative to the file's
    directory, and is joined to it; one set by an override stays relative
    to the working directory.
    """
    data = load_config_data(path)
    table_path = data.get("init_table")
    if isinstance(table_path, str):
        data["init_table"] = os.path.join(os.path.dirname(path), table_path)
    return resolve_config(apply_overrides(data, overrides))


def dump_config(config):
    """YAML text of a config object."""
    return yaml.safe_dump(serialize_config(config), sort_keys=False)


def write_config(path, config):
    """Write a config object to a YAML file."""
    with open(path, "w") as fh:
        fh.write(dump_config(config))
