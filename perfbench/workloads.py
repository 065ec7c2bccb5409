"""The benchmark's workloads: seeded inputs, the timed section, and result checks.

Each workload is a deterministic solver run on a shipped config.  The seed
picks one of a few small perturbations of the initial data (u0 amplitude,
rho0 width); variant 0 is the shipped input unchanged.  The set of variants
is finite so that every one has a stored reference r series.

The timed section looks every program function up through its module
(``experiments.run_eulerian``, ``lagrangian.evolve``, ...), so the wrappers
that the traced run installs on those module attributes see the calls.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# (u0 amplitude factor, rho0 width factor); variant = seed mod len(VARIANTS).
# The factors stay within 2e-6 of 1.  The backward leg of the desk sweep
# stops where a steady test fires, which is ill-conditioned: factors 1.001
# already change its step count, and with it wall_s, by up to 8%.
VARIANTS = ((1.0, 1.0), (1.000001, 0.999999), (0.999999, 1.000002), (1.000002, 1.000001))

# The reference run halves every time step: scheme.cfl, scheme.max_dt and
# the oracle dt.  Its r series is what r_dev is measured against.
HALF_STEP = ("scheme.cfl=0.2", "scheme.max_dt=0.005", "dt_oracle=0.0005")

# Largest accepted r_dev, max |r - r_ref|.  At this commit r_dev, the
# distance to the half-step solution, is orders of magnitude below it.
R_TOL = 1e-3
# Criterion 7 bounds the L1 distance of the FV and pushed-forward oracle
# densities by 0.05; |r_fv - r_oracle| is at most that L1 distance.
CROSS_TOL = 0.05
# Criterion-5 margins below the Riccati comparison curve.
FV_GRAD_MARGIN = -1e-3
ORACLE_GRAD_MARGIN = -1e-6
MASS_TOL = 1e-12


def import_program():
    """Import kurahydro from this checkout's src/, never from site-packages."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import kurahydro

    if not os.path.abspath(kurahydro.__file__).startswith(src + os.sep):
        raise ImportError(f"kurahydro imported from {kurahydro.__file__}, not {src}")
    return kurahydro


def variant_of(seed):
    return seed % len(VARIANTS)


def load_reference(name, variant):
    with open(REFERENCE_PATH) as fh:
        return np.array(json.load(fh)["r"][name][str(variant)], dtype=float)


def r_digest(r):
    return hashlib.sha256(np.ascontiguousarray(r, dtype=np.float64).tobytes()).hexdigest()


def perturbed(cfg, amp, width):
    """cfg with its u0 amplitude scaled by amp and its rho0 width by width.

    A sweep's initial data is that of its base scenario.
    """
    if amp == width == 1.0:
        return cfg
    base = getattr(cfg, "base", None)
    init = (base or cfg).init
    init = dataclasses.replace(
        init,
        u0=dataclasses.replace(init.u0, amplitude=init.u0.amplitude * amp),
        rho0=dataclasses.replace(init.rho0, sigma=init.rho0.sigma * width),
    )
    if base is None:
        return dataclasses.replace(cfg, init=init)
    return dataclasses.replace(cfg, base=dataclasses.replace(base, init=init))


def r_dev(r, r_ref):
    """max |r - r_ref|; 1.0 (the largest possible gap) if the shapes differ."""
    if r.shape != r_ref.shape:
        return 1.0
    return float(np.max(np.abs(r - r_ref)))


class Workload:
    """One named workload: a shipped config and the overrides that size it."""

    name = ""
    config_file = ""
    overrides = ()

    def parse(self, variant, extra=()):
        """The shipped config, sized, with the variant's initial data."""
        from kurahydro import config

        path = os.path.join(ROOT, "configs", self.config_file)
        parsed = config.parse_config(path, list(self.overrides) + list(extra))
        return perturbed(parsed, *VARIANTS[variant])

    def setup(self, variant, extra=()):
        """Everything before the first solver step; returns the run context."""
        raise NotImplementedError

    def run(self, ctx, work_dir):
        """The timed section; returns what check() and r_series() read."""
        raise NotImplementedError

    def r_series(self, out):
        """The recorded order parameter; stored as the reference."""
        raise NotImplementedError

    def compared(self, r):
        """The part of an r series that r_dev and the check compare."""
        return r

    def deviation(self, out, r_ref):
        return r_dev(self.compared(self.r_series(out)), self.compared(r_ref))

    def check(self, ctx, out, r_ref):
        """List of failure messages; empty when the result is right."""
        r = self.r_series(out)
        if r.shape != r_ref.shape:
            return [f"r series has shape {r.shape}, reference {r_ref.shape}"]
        gap = self.deviation(out, r_ref)
        if not gap <= R_TOL:
            return [f"max |r - r_ref| = {gap:.3e} exceeds {R_TOL:g}"]
        return []


# Criterion 9's m=1 path at K step 0.4: up 0 -> 4, where the forward jump
# is, and back down to 2, past the backward jumps at 3.2 -> 2.8 and
# 2.4 -> 2.0.  The leg below 2.0 (r decaying to 0) would add about 2k of
# 15.6k steps and no jump that the check uses.
DESK_K_PATH = [round(0.4 * i, 12) for i in range(11)] + [
    round(4.0 - 0.4 * i, 12) for i in range(1, 6)
]


class DeskSweep(Workload):
    """Criterion-9 m=1 hysteresis sweep at 120x100 over DESK_K_PATH."""

    name = "desk_sweep"
    config_file = "hysteresis_desk.yaml"
    overrides = ("sweep.k_path=%s" % DESK_K_PATH,)

    def setup(self, variant, extra=()):
        return {"sweep": self.parse(variant, extra)}

    def run(self, ctx, work_dir):
        from kurahydro import experiments

        return experiments.hysteresis_sweep(ctx["sweep"])

    def r_series(self, out):
        return np.array([p[1] for p in out.forward + out.backward], dtype=float)

    def compared(self, r):
        # The forward leg only: each of its r_inf is a settled state.  Below
        # K=3.2 on the backward leg r decays slowly, and r_inf depends on
        # where the steady test fires: a 0.1% change of u0, or halving dt,
        # moves it by 0.03.
        return r[: DESK_K_PATH.index(4.0) + 1]

    def check(self, ctx, out, r_ref):
        failures = []
        flagged = [p[0] for p in out.forward + out.backward if p[2]]
        if flagged:
            failures.append(f"blow-up or clip abort at K={flagged}")

        def jump_k(jumps):
            return max(max(k0, k1) for k0, k1, _ in jumps) if jumps else None

        k_up = jump_k(out.jumps["forward"])
        k_down = jump_k(out.jumps["backward"])
        if k_up is None:
            failures.append("no forward jump")
        elif k_down is None or not k_down < k_up:
            failures.append(f"K_down={k_down} not below K_up={k_up}")
        return failures + super().check(ctx, out, r_ref)


class NonidenticalIO(Workload):
    """Shipped 600x1000 nonidentical config to t=0.2, snapshots at both ends,
    then compare_runs on the result directory, which reads them back.  By
    t=0.2 most steps are CFL-limited by the fast tail slices."""

    name = "nonidentical_io"
    config_file = "nonidentical_frequencies.yaml"
    overrides = ("t_end=0.2", "snapshot_times=[0.0, 0.2]")

    def setup(self, variant, extra=()):
        from kurahydro import experiments

        config = self.parse(variant, extra)
        return {"config": config, "state": experiments.build_state(config)}

    def run(self, ctx, work_dir):
        from kurahydro import cli, experiments

        config = ctx["config"]
        out_dir = os.path.join(work_dir, "run")
        run = experiments.run_eulerian(config, ctx["state"])
        result = experiments.ScenarioResult(config, eulerian=run)
        experiments.write_scenario_result(result, out_dir)
        report = cli.compare_runs(out_dir, out_dir)
        return {"run": run, "report": report, "out_dir": out_dir}

    def r_series(self, out):
        return np.asarray(out["run"].series.r, dtype=float)

    def check(self, ctx, out, r_ref):
        from kurahydro import io

        run, report = out["run"], out["report"]
        failures = []
        if run.failure is not None or run.blowup is not None:
            failures.append(f"solver stopped early: {run.failure or run.blowup}")
        mass_err = float(np.max(run.series.mass_err))
        if not mass_err < MASS_TOL:
            failures.append(f"per-slice mass_err {mass_err:.3e} >= {MASS_TOL:g}")
        t_end = ctx["config"].t_end
        if report["snapshot_times"] != [0.0, t_end]:
            failures.append(f"compare_runs read snapshots {report['snapshot_times']}")
        if report["max_abs_dr"] != 0.0:
            failures.append("series.csv read back differs from itself")
        path = io.list_snapshots(out["out_dir"]).get(t_end)
        if path is None:
            failures.append(f"no snapshot at t={t_end:g}")
        else:
            _, _, rho, u = io.read_snapshot_csv(path)
            if not (np.array_equal(rho, run.final.rho) and np.array_equal(u, run.final.u)):
                failures.append("snapshot read back differs from the in-memory state")
        return failures + super().check(ctx, out, r_ref)


class SubcriticalBoth(Workload):
    """Shipped 1x1000 subcritical config, FV plus the 8000-sample oracle to
    t=5, and the oracle pushed forward onto the FV grid at each snapshot."""

    name = "subcritical_both"
    config_file = "subcritical_sync.yaml"

    def setup(self, variant, extra=()):
        from kurahydro import experiments, lagrangian

        config = self.parse(variant, extra)
        state = experiments.build_state(config)
        ens = lagrangian.sample_initial(config.init, state.omega, config.n_samples)
        return {"config": config, "state": state, "ens": ens}

    def run(self, ctx, work_dir):
        from kurahydro import experiments, lagrangian

        config = ctx["config"]
        fv = experiments.run_eulerian(config, ctx["state"])
        # The same call run_lagrangian makes, on the ensemble sampled in setup.
        oracle = lagrangian.evolve(
            ctx["ens"],
            config.params,
            config.t_end,
            dt=config.dt_oracle,
            record_every=max(1, int(round(config.record_dt / config.dt_oracle))),
            snapshot_times=config.snapshot_times,
        )
        grid = fv.final.grid
        l1 = {}
        for t_s, st in sorted(fv.snapshots.items()):
            rho_push = lagrangian.pushforward_density(oracle.snapshots[t_s], grid)
            l1[t_s] = float(grid.dtheta * np.sum(np.abs(st.rho[0] - rho_push)))
        return {"fv": fv, "oracle": oracle, "l1": l1}

    def r_series(self, out):
        return np.concatenate([out["fv"].series.r, out["oracle"].series.r]).astype(float)

    def check(self, ctx, out, r_ref):
        from kurahydro import domain, thresholds

        config = ctx["config"]
        fv, oracle = out["fv"], out["oracle"]
        failures = []
        if fv.failure is not None or fv.blowup is not None:
            failures.append(f"FV stopped early: {fv.failure or fv.blowup}")
        if oracle.blowup is not None:
            failures.append(f"oracle blew up at t={oracle.blowup.t:g}")
        if failures:
            return failures
        s_e, s_l = fv.series, oracle.series
        if s_e.t.shape != s_l.t.shape or not np.allclose(s_e.t, s_l.t, rtol=0.0, atol=1e-9):
            return ["FV and oracle record times differ"]
        gap = float(np.max(np.abs(s_e.r - s_l.r)))
        if not gap <= CROSS_TOL:
            failures.append(f"max |r_fv - r_oracle| = {gap:.3e} > {CROSS_TOL:g}")
        for t_s, l1 in out["l1"].items():
            if not l1 < CROSS_TOL:
                failures.append(f"L1(rho_fv, rho_oracle) = {l1:.3e} at t={t_s:g}")
        d0 = domain.min_du0(config.init.u0)
        for label, s, tol in (("FV", s_e, FV_GRAD_MARGIN), ("oracle", s_l, ORACLE_GRAD_MARGIN)):
            margin = float(np.min(s.min_du - thresholds.riccati_comparison(d0, config.params, s.t)))
            if not margin > tol:
                failures.append(f"{label} slope margin {margin:.2e} below {tol:g}")
        return failures + super().check(ctx, out, r_ref)


WORKLOADS = {w.name: w for w in (DeskSweep(), NonidenticalIO(), SubcriticalBoth())}
