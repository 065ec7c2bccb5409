"""One fresh-process run of one workload; prints one JSON line.

    python3 perfbench/child.py MODE WORKLOAD VARIANT WORK_DIR [SPANS_PATH]

MODE is ``setup`` (stop before the first solver step), ``run`` (timed
section, untraced) or ``trace`` (timed section with the tracer installed).
Set-up time counts from the first statement of this file, once the
interpreter is up, so that the cost and jitter of starting a process are
left out.  run.py sets the BLAS/OpenMP thread variables in this process's
environment, before numpy is first imported here.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import uuid  # noqa: E402

import workloads  # noqa: E402


def _env_info():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "threads": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv):
    mode, name, variant, work_dir = argv[:4]
    variant = int(variant)
    workloads.import_program()
    wl = workloads.WORKLOADS[name]
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer(uuid.uuid4().hex[:12])
        tracer.install()
    ctx = wl.setup(variant)
    setup_s = time.perf_counter() - T_START
    out = {"setup_s": setup_s}
    if mode == "setup":
        return out

    t0 = time.perf_counter()
    result = wl.run(ctx, work_dir)
    out["wall_s"] = time.perf_counter() - t0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    r = wl.r_series(result)
    r_ref = workloads.load_reference(name, variant)
    out["r_dev"] = wl.deviation(result, r_ref)
    out["r_sha256"] = workloads.r_digest(r)
    out["failures"] = wl.check(ctx, result, r_ref)
    out["env"] = _env_info()
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["unhooked"] = tracer.missing
        tracer.write_spans(argv[4])
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
