"""The benchmark's tracer wraps program functions by name; each must exist,
and the counts it reads off their arguments must match what a run did."""
from __future__ import annotations

import importlib
import importlib.util
import os
import warnings

from kurahydro import (
    InitSpec,
    Params,
    RhoGaussian,
    ScenarioConfig,
    SchemeConfig,
    SweepConfig,
    USine,
    build_state,
    experiments,
    lagrangian,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_trace_hook_resolves_to_a_callable():
    tracing = _load_tracing()
    unhooked = []
    for module_name, attr_path, _ in tracing.HOOKS:
        target = importlib.import_module(module_name)
        for part in attr_path.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            unhooked.append(f"{module_name}.{attr_path}")
    assert not unhooked, "trace hooks with no callable target: " + ", ".join(unhooked)


def test_tracer_counts_what_the_runs_did(monkeypatch):
    """Tracer around an FV run whose steps are CFL-limited (max_dt above
    cfl*dtheta/max|u|), an oracle run and a two-point sweep: every hook
    installs, and the step, row and sample-step counts it reads off the
    hooked calls' arguments are the ones the runs took."""
    steps = []
    step_rk2 = experiments.step_rk2

    def counted_step(*args):
        steps.append(args[1])
        return step_rk2(*args)

    monkeypatch.setattr(experiments, "step_rk2", counted_step)
    config = ScenarioConfig(
        params=Params(0.5, 0.1),
        init=InitSpec(RhoGaussian(), USine(-1.0)),
        n_theta=48,
        t_end=0.3,
        record_dt=0.1,
        n_samples=64,
        scheme=SchemeConfig(max_dt=0.1),
    )
    sweep = SweepConfig(k_path=(0.0, 0.5), steady_window=0.2, t_max=0.6, base=config)
    tracer = _load_tracing().Tracer("test")
    tracer.install()
    try:
        fv_run = experiments.run_eulerian(config, build_state(config))
        ens = lagrangian.sample_initial(config.init, fv_run.final.omega, config.n_samples)
        oracle = lagrangian.evolve(ens, config.params, 0.05, dt=1e-3, record_every=10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # t_max cuts it short
            experiments.hysteresis_sweep(sweep)
    finally:
        tracer.uninstall()
    assert experiments.step_rk2 is counted_step
    assert tracer.missing == []
    metrics = tracer.metrics()
    assert metrics["fv.steps"] == len(steps) > 0
    assert metrics["fv.cfl_limited_frac"] > 0
    assert metrics["experiments.sweep_points"] == 3  # K = 0, 0.5 forward; 0.5 back
    assert metrics["diagnostics.rows"] == fv_run.series.t.size + oracle.series.t.size
    assert metrics["lagrangian.sample_steps"] == 50 * ens.n
