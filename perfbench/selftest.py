"""Self-test of the result checks, so that they cannot pass vacuously.

    python3 perfbench/selftest.py

For each workload, an r series equal to the stored reference passes the
r check and one perturbed at a single record fails it.  A desk sweep built
from the reference passes DeskSweep.check, and the same sweep with its
forward jump flattened away fails it.  Each failing case must also count as
a failed run in run.py's tally.  run.py runs this before measuring.
"""
from __future__ import annotations

import sys

import run
import workloads


class _Fixed(workloads.Workload):
    """A workload whose result is the r series itself."""

    def __init__(self, wl):
        self.compared = wl.compared

    def r_series(self, out):
        return out


def _counts_as_failed(failures):
    return not run._ok({"failures": failures})


def main():
    workloads.import_program()
    from kurahydro import experiments

    problems = []
    for name, wl in sorted(workloads.WORKLOADS.items()):
        r_ref = workloads.load_reference(name, 0)
        fixed = _Fixed(wl)
        if fixed.check(None, r_ref, r_ref):
            problems.append(f"{name}: the reference itself fails the r check")
        bumped = r_ref.copy()
        bumped[bumped.size // 2] += 2 * workloads.R_TOL
        if not _counts_as_failed(fixed.check(None, bumped, r_ref)):
            problems.append(f"{name}: a perturbed r series passes")

    desk = workloads.WORKLOADS["desk_sweep"]
    sweep = desk.parse(0)
    forward_k, backward_k = sweep.branches()
    r_ref = workloads.load_reference(desk.name, 0)

    def sweep_result(r):
        fwd = [(k, r[i], False) for i, k in enumerate(forward_k)]
        bwd = [(k, r[len(forward_k) + i], False) for i, k in enumerate(backward_k)]
        jumps = {"forward": experiments._jumps_of(fwd), "backward": experiments._jumps_of(bwd)}
        return experiments.SweepResult(fwd, bwd, jumps)

    if desk.check(None, sweep_result(r_ref), r_ref):
        problems.append("desk_sweep: the reference sweep fails its check")
    flat = r_ref.copy()
    flat[: len(forward_k)] = flat[0]
    failures = desk.check(None, sweep_result(flat), r_ref)
    if "no forward jump" not in failures or not _counts_as_failed(failures):
        problems.append("desk_sweep: a sweep with no forward jump passes")

    for msg in problems:
        print("selftest: " + msg, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
