"""Command-line entry point: run, sweep, classify, oracle, compare."""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .config import ScenarioConfig, SweepConfig, parse_config
from .experiments import hysteresis_sweep, run_scenario
from .io import format_time, list_snapshots, read_series_csv, read_snapshot_csv
from .thresholds import classify


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kurahydro",
        description="Finite-volume and characteristic solvers for the "
        "inertial mean-field oscillator fluid on the circle.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_config_io(p, needs_out=True):
        p.add_argument("--config", required=True, help="YAML config file")
        if needs_out:
            p.add_argument("--out", required=True, help="results directory")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            dest="overrides",
            metavar="KEY=VALUE",
            help="override a config key (dotted paths allowed, repeatable)",
        )

    add_config_io(sub.add_parser("run", help="advance a scenario, write results"))
    add_config_io(sub.add_parser("sweep", help="hysteresis sweep over the coupling"))
    add_config_io(
        sub.add_parser("classify", help="print the critical-slope verdict as JSON"),
        needs_out=False,
    )
    add_config_io(
        sub.add_parser("oracle", help="run the characteristic oracle only")
    )
    cmp_p = sub.add_parser("compare", help="compare two results directories")
    cmp_p.add_argument("dir_a")
    cmp_p.add_argument("dir_b")
    return parser


def _require_scenario(config):
    if isinstance(config, SweepConfig):
        raise ValueError("config contains a sweep section; use the sweep subcommand")
    assert isinstance(config, ScenarioConfig)
    return config


def _summarize_run(name, run):
    s = run.series
    line = f"{name}: t={s.t[-1]:g} r={s.r[-1]:.6f} Ek={s.Ek[-1]:.3e}"
    if run.failure:
        line += f" [solver failure: {run.failure}]"
    if run.blowup is not None:
        line += f" [blow-up at t={run.blowup.t:g}: {run.blowup.reason}]"
    return line


def _cmd_run(args):
    config = _require_scenario(parse_config(args.config, args.overrides))
    result = run_scenario(config, out_dir=args.out)
    for name in ("eulerian", "lagrangian"):
        run = getattr(result, name)
        if run is not None:
            print(_summarize_run(name, run))
    print(f"results written to {args.out}")
    return 0


def _cmd_oracle(args):
    config = _require_scenario(parse_config(args.config, args.overrides))
    config = replace(config, solver="lagrangian")
    result = run_scenario(config, out_dir=args.out)
    print(_summarize_run("lagrangian", result.lagrangian))
    print(f"results written to {args.out}")
    return 0


def _cmd_sweep(args):
    config = parse_config(args.config, args.overrides)
    if not isinstance(config, SweepConfig):
        raise ValueError("config has no sweep section; use the run subcommand")
    result = hysteresis_sweep(config, out_dir=args.out)
    for branch in ("forward", "backward"):
        jumps = result.jumps[branch]
        where = (
            ", ".join(f"K {k0:g}->{k1:g} (dr={dr:+.3f})" for k0, k1, dr in jumps)
            or "none"
        )
        print(f"{branch}: {len(getattr(result, branch))} points, jumps: {where}")
    print(f"results written to {args.out}")
    return 0


def _cmd_classify(args):
    config = parse_config(args.config, args.overrides)
    if isinstance(config, SweepConfig):
        config = config.base
    verdict = classify(config.init, config.params)
    print(json.dumps(verdict.as_dict(), indent=2))
    return 0


def _read_both(read, path_a, path_b):
    """read(path_a), read(path_b); a file named on both sides is parsed once."""
    first = read(path_a)
    return first, (first if os.path.samefile(path_a, path_b) else read(path_b))


def _l1_rho(path_a, path_b, t_s):
    """Max over slices of the L1 distance of rho between two snapshot files.

    The fields read are freed on return, before the next snapshot is read.
    """
    (theta_a, omega_a, rho_a, _), (theta_b, omega_b, rho_b, _) = _read_both(
        read_snapshot_csv, path_a, path_b
    )
    if theta_a.shape != theta_b.shape or not np.allclose(
        theta_a, theta_b, rtol=0.0, atol=1e-12
    ):
        raise ValueError(f"mismatched grids: snapshot t={t_s:g} theta differs")
    if omega_a.shape != omega_b.shape or not np.allclose(
        omega_a, omega_b, rtol=0.0, atol=1e-12
    ):
        raise ValueError(f"mismatched grids: snapshot t={t_s:g} omega differs")
    dtheta = 2.0 * np.pi / theta_a.size
    # the fields read are read-only, so |rho_a - rho_b| is formed one slice
    # at a time rather than in a field-sized temporary
    l1 = np.max([np.sum(np.abs(a - b)) for a, b in zip(rho_a, rho_b)])
    return float(l1 * dtheta)


def compare_runs(dir_a, dir_b):
    """Distance report between two results directories sharing grids/times."""
    series_a, series_b = _read_both(
        read_series_csv, *(os.path.join(d, "series.csv") for d in (dir_a, dir_b))
    )
    snaps_a = list_snapshots(dir_a)
    snaps_b = list_snapshots(dir_b)
    common = sorted(set(snaps_a) & set(snaps_b))
    l1_rho = {format_time(t): _l1_rho(snaps_a[t], snaps_b[t], t) for t in common}
    t_lo = max(series_a.t[0], series_b.t[0])
    t_hi = min(series_a.t[-1], series_b.t[-1])
    mask = (series_a.t >= t_lo - 1e-12) & (series_a.t <= t_hi + 1e-12)
    if np.any(mask):
        t_common = series_a.t[mask]
        dr = series_a.r[mask] - np.interp(t_common, series_b.t, series_b.r)
        dEk = series_a.Ek[mask] - np.interp(t_common, series_b.t, series_b.Ek)
        max_dr = float(np.max(np.abs(dr)))
        max_dEk = float(np.max(np.abs(dEk)))
    else:
        max_dr = max_dEk = None
    return {
        "snapshot_times": common,
        "l1_rho": l1_rho,
        "max_abs_dr": max_dr,
        "max_abs_dEk": max_dEk,
    }


def _cmd_compare(args):
    print(json.dumps(compare_runs(args.dir_a, args.dir_b), indent=2))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "classify": _cmd_classify,
    "oracle": _cmd_oracle,
    "compare": _cmd_compare,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
