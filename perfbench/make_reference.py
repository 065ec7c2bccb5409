"""Regenerate perfbench/reference.json: the r series r_dev is measured against.

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 perfbench/make_reference.py [WORKLOAD ...]

For every workload and seed variant it runs the workload with every time
step halved (workloads.HALF_STEP) and stores its r series.  The reference is
a more accurate solution of the same discretisation, so r_dev is the
workload's time-discretisation error: never 0, and a change to the numerics
that costs accuracy moves it.  Regenerate only when a change to the program
is meant to change the reference solution, and say so in the change.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile
import time

import workloads


def main(names):
    workloads.import_program()
    try:
        with open(workloads.REFERENCE_PATH) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {}
    data["about"] = "r series of each workload and seed variant with every time step halved"
    data["half_step"] = list(workloads.HALF_STEP)
    refs = data.setdefault("r", {})
    for name in names or sorted(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        refs[name] = {}
        for variant in range(len(workloads.VARIANTS)):
            t0 = time.perf_counter()
            ctx = wl.setup(variant, workloads.HALF_STEP)
            with tempfile.TemporaryDirectory(dir=workloads.HERE) as work_dir:
                out = wl.run(ctx, work_dir)
            r = wl.r_series(out)
            refs[name][str(variant)] = [float(x) for x in r]
            print(f"{name} variant {variant}: {r.size} values, "
                  f"{time.perf_counter() - t0:.1f} s", flush=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
