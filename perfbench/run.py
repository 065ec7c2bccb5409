"""kurahydro benchmark: one workload, fresh-process runs, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every run of the program is a fresh
``python3 perfbench/child.py`` process with the BLAS/OpenMP thread variables
set to 1 in its environment, and a fresh work directory that is removed when
the process has ended.

--trace 0: SETUP_PROBE_S seconds of processes that stop before the first
solver step (set-up time), then full untraced runs until S seconds have
passed (at least one), then SETUP_PROBE_S more seconds of set-up processes.
Prints the end-to-end metrics: medians over the full runs, r_dev the
largest, and setup_s the smallest over all processes.  Host speed switches
between a fast and a 1.5x slower phase every few seconds, so a median of
set-up times taken within seconds of each other reads whichever phase they
fell in; their minimum, over probes on both sides of the full runs, reads the
fast phase, and leaves out the first process, which fills the bytecode cache.

--trace 1: one untraced run and one traced run.  Prints the per-layer metrics
of the traced run and checks that both runs produced a bitwise-equal r series.
trace.overhead_s is the traced wall time minus that of the one untraced run,
so it carries the host's drift between the two runs and can be negative.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBE_S = 3.0  # of set-up probes on each side of the full runs
DEADLINE_S = 170.0  # a run must end within 180 s
PROBE_RESERVE_S = 15.0  # kept free for the set-up probes after the full runs
STATE_DIR = os.path.join(ROOT, ".perfbench")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "KURAHYDRO_THREADS")
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio", "r_dev": "1"}


class ChildFailed(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode, name, variant, deadline, spans_path=None):
    """Run child.py in a fresh process and work directory; returns its record."""
    os.makedirs(os.path.join(STATE_DIR, "work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(STATE_DIR, "work"))
    argv = [sys.executable, os.path.join(HERE, "child.py"), mode, name, str(variant), work_dir]
    argv += [spans_path] if spans_path else []
    try:
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True
        )
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise ChildFailed(f"{mode} run of {name} killed at the deadline")
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} run of {name} exited with {proc.returncode}")
        lines = stdout.strip().splitlines()
        try:
            return json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            raise ChildFailed(f"{mode} run of {name} printed no result")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _attempt(failures, *args, **kwargs):
    """spawn(), recording a crash or a failed check in failures."""
    try:
        rec = spawn(*args, **kwargs)
    except ChildFailed as err:
        failures.append(str(err))
        return None
    failures.extend(rec["failures"])
    return rec


def _ok(rec):
    return rec is not None and not rec["failures"]


def setup_probes(name, variant, deadline):
    """Set-up-only processes, one after another, for SETUP_PROBE_S seconds."""
    setups, start = [], time.monotonic()
    while time.monotonic() - start < SETUP_PROBE_S:
        setups.append(spawn("setup", name, variant, deadline)["setup_s"])
    return setups


def measure(name, variant, seconds, deadline):
    setups = setup_probes(name, variant, deadline)
    runs, failures, attempted, failed = [], [], 0, 0
    start = time.monotonic()
    while True:
        rec = _attempt(failures, "run", name, variant, deadline)
        attempted += 1
        failed += not _ok(rec)
        if rec is not None:
            runs.append(rec)
        elapsed = time.monotonic() - start
        last = rec["wall_s"] if rec else elapsed / attempted
        if elapsed >= seconds or time.monotonic() + 1.5 * last > deadline - PROBE_RESERVE_S:
            break
    if not runs:
        raise ChildFailed("; ".join(failures))
    setups += setup_probes(name, variant, deadline)
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": min(setups + [r["setup_s"] for r in runs]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "pass_frac": (attempted - failed) / attempted,
        "r_dev": max(r["r_dev"] for r in runs),
    }
    return attempted, failed, failures, metrics, runs


def measure_traced(name, variant, seed, deadline):
    spans_path = os.path.join(STATE_DIR, "spans", f"{name}-seed{seed}.csv.gz")
    failures = []
    plain = _attempt(failures, "run", name, variant, deadline)
    traced = _attempt(failures, "trace", name, variant, deadline, spans_path)
    if traced is None:
        raise ChildFailed("; ".join(failures))
    traced_ok = _ok(traced)
    if plain is not None and plain["r_sha256"] != traced["r_sha256"]:
        failures.append("traced r series differs from the untraced one")
        traced_ok = False
    metrics = dict(traced["layers"])
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - (plain or traced)["wall_s"]
    metrics["trace.unhooked"] = len(traced["unhooked"])
    for label in traced["unhooked"]:
        print(f"unhooked: {label} not found, its layer metrics read 0", file=sys.stderr)
    failed = (not _ok(plain)) + (not traced_ok)
    return 2, failed, failures, metrics, [r for r in (plain, traced) if r]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    needed = [
        os.path.join(ROOT, "src", "kurahydro", "__init__.py"),
        os.path.join(ROOT, "configs", wl.config_file),
        workloads.REFERENCE_PATH,
    ]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print("perfbench: missing " + ", ".join(missing), file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    selftest = subprocess.run(
        [sys.executable, os.path.join(HERE, "selftest.py")], cwd=ROOT, env=_child_env(), timeout=60
    )
    if selftest.returncode != 0:
        print("perfbench: the self-test of the result checks failed", file=sys.stderr)
        return 1
    variant = workloads.variant_of(args.seed)
    try:
        if args.trace:
            attempted, failed, failures, metrics, runs = measure_traced(
                args.workload, variant, args.seed, deadline
            )
            units = tracing.METRIC_UNITS
        else:
            attempted, failed, failures, metrics, runs = measure(
                args.workload, variant, args.seconds, deadline
            )
            units = E2E_UNITS
    except ChildFailed as err:
        print(f"perfbench: no run of {args.workload} completed: {err}", file=sys.stderr)
        return 1
    finally:
        work = os.path.join(STATE_DIR, "work")
        if os.path.isdir(work) and not os.listdir(work):
            os.rmdir(work)

    env = dict(runs[-1]["env"], nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)))
    print(f"perfbench {args.workload} seed={args.seed} variant={variant} "
          f"trace={args.trace} runs={attempted} failed={failed}")
    print("env " + json.dumps(env, sort_keys=True))
    for msg in failures:
        print("FAILED " + msg)
    if not args.trace:
        fail_frac = failed / attempted
        print("  ".join(f"{k}={v:.6g} {units[k]}" for k, v in metrics.items())
              + f"  fail_frac={fail_frac:.6g}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
