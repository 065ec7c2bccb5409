"""End-to-end acceptance checks, one per numbered criterion.

Each test computes its clauses, emits a single "ACCEPTANCE <n> <label>:
PASS/FAIL" line (echoed in the terminal summary), and then asserts.  The
heavy shared runs live in session-scoped fixtures.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

import kurahydro as kh
from conftest import ACCEPTANCE_LINES

P_SUB = kh.Params(0.5, 0.1)
INIT_SUB = kh.InitSpec(kh.RhoGaussian(), kh.USine(-1.0))


def _report(num, label, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} {label}: " + ("PASS" if ok else f"FAIL ({detail})")
    ACCEPTANCE_LINES.append(line)
    print(line)
    return line


@pytest.fixture(scope="session")
def sub_eulerian():
    """Subcritical identical-oscillator run, n_theta=1000 to t=5."""
    cfg = kh.ScenarioConfig(
        params=P_SUB, init=INIT_SUB, n_theta=1000, t_end=5.0,
        record_dt=0.01, snapshot_times=(1.0,),
    )
    return cfg, kh.run_eulerian(cfg)


@pytest.fixture(scope="session")
def sub_oracle():
    """Matching characteristic-oracle run, 512 samples, dt=1e-3 to t=5."""
    cfg = kh.ScenarioConfig(
        params=P_SUB, init=INIT_SUB, n_samples=512, t_end=5.0,
        record_dt=0.01, solver="lagrangian",
    )
    return cfg, kh.run_lagrangian(cfg)


def test_criterion_01_mass_conservation():
    t0 = time.perf_counter()
    cfg = kh.ScenarioConfig(params=P_SUB, init=INIT_SUB, n_theta=1000)
    state = kh.build_state(cfg)
    mass0 = state.per_slice_mass().copy()
    for _ in range(1000):
        state = kh.step_rk2(state, kh.cfl_dt(state, cfg.scheme), P_SUB, cfg.scheme)
    drift = float(np.max(np.abs(state.per_slice_mass() - mass0)))
    wall = time.perf_counter() - t0
    ok = drift < 1e-12 and wall < 10.0
    _report(1, "mass conservation", ok, f"drift={drift:.2e} wall={wall:.1f}s")
    assert ok


def test_criterion_02_mean_velocity_law():
    # u0 = 0.5 - sin(theta) gives a nonzero initial mean velocity, so the
    # exponential law and the 5% relative Eulerian clause are non-degenerate.
    t0 = time.perf_counter()
    init = kh.InitSpec(kh.RhoGaussian(), kh.USine(-1.0, 1, 0.5))
    cfg_l = kh.ScenarioConfig(
        params=P_SUB, init=init, n_samples=512, t_end=5.0,
        record_dt=0.01, solver="lagrangian",
    )
    s = kh.run_lagrangian(cfg_l).series
    dev_oracle = float(np.max(np.abs(s.vc - s.vc[0] * np.exp(-s.t / P_SUB.m))))

    cfg_e = kh.ScenarioConfig(
        params=P_SUB, init=init, n_theta=1000, t_end=5.0, record_dt=0.01,
    )
    s = kh.run_eulerian(cfg_e).series
    p0 = float(s.vc[0])
    dev_euler = float(np.max(np.abs(s.vc - p0 * np.exp(-s.t / P_SUB.m))))
    wall = time.perf_counter() - t0

    ok = dev_oracle < 1e-8 and dev_euler < 0.05 * abs(p0) and wall < 30.0
    _report(
        2, "mean-velocity law", ok,
        f"oracle={dev_oracle:.2e} eulerian={dev_euler:.2e}/{0.05 * abs(p0):.2e} "
        f"wall={wall:.1f}s",
    )
    assert ok


def test_criterion_03_energy_identities(sub_oracle):
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(16, 200))
        eta = rng.uniform(-np.pi, np.pi, n)
        w = rng.uniform(0.1, 1.0, n)
        w /= w.sum()
        m, K = float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0))
        params = kh.Params(m, K)
        op = kh.ensemble_order_parameter(eta, w)
        Ep = (K / (2.0 * m)) * (1.0 - op.r**2)
        direct = (K / (2.0 * m)) * float(
            np.sum(np.outer(w, w) * (1.0 - np.cos(eta[None, :] - eta[:, None])))
        )
        worst = max(worst, abs(Ep - direct))

    s = sub_oracle[1].series
    E = s.Ek + s.Ep
    residual = float(np.max(np.abs(E - E[0] + (2.0 / P_SUB.m) * s.Ek_integral)))

    ok = worst < 1e-12 and residual < 1e-6
    _report(3, "energy identities", ok, f"factorization={worst:.2e} balance={residual:.2e}")
    assert ok


def test_criterion_04_asymptotic_self_consistency():
    cfg = kh.ScenarioConfig(
        params=P_SUB, init=INIT_SUB, n_samples=512, t_end=50.0,
        record_dt=0.1, solver="lagrangian",
    )
    s = kh.run_lagrangian(cfg).series
    prediction = kh.r_infinity_prediction(s, P_SUB)
    r_gap = abs(float(s.r[-1]) - prediction)
    ek_end = float(s.Ek[-1])

    ok = r_gap < 1e-3 and ek_end < 1e-8
    _report(
        4, "asymptotic self-consistency", ok,
        f"|r-pred|={r_gap:.2e} Ek(50)={ek_end:.2e}",
    )
    assert ok


def test_criterion_05_subcritical_gradient_bound(sub_eulerian, sub_oracle):
    s_e = sub_eulerian[1].series
    margin_e = float(np.min(s_e.min_du - kh.riccati_comparison(-1.0, P_SUB, s_e.t)))
    s_l = sub_oracle[1].series
    margin_l = float(np.min(s_l.min_du - kh.riccati_comparison(-1.0, P_SUB, s_l.t)))

    ok = margin_e > -1e-3 and margin_l > -1e-6
    _report(
        5, "subcritical gradient bound", ok,
        f"eulerian margin={margin_e:.2e} oracle margin={margin_l:.2e}",
    )
    assert ok


def test_criterion_06_supercritical_blowup():
    t0 = time.perf_counter()
    params = kh.Params(1.0, 1.0)
    cfg = kh.ScenarioConfig(
        params=params, init=kh.InitSpec(kh.RhoGaussian(), kh.USine(-2.0)),
        n_samples=512, t_end=3.0, record_dt=0.01, solver="lagrangian",
    )
    run = kh.run_lagrangian(cfg)
    fired = run.blowup is not None
    t_star = run.blowup.t if fired else np.inf
    # the envelope anchored at the sampled minimum slope bounds min d(t)
    s = run.series
    env = kh.supercritical_envelope(float(s.min_du[0]), params, s.t)
    env_margin = float(np.max(s.min_du - env))
    wall = time.perf_counter() - t0

    ok = fired and t_star <= 2.62 and env_margin < 1e-6 and wall < 30.0
    _report(
        6, "supercritical blow-up", ok,
        f"t*={t_star:.3f} env margin={env_margin:.2e} wall={wall:.1f}s",
    )
    assert ok


def test_criterion_07_cross_solver_distance(sub_eulerian):
    # Histogram binning error scales like 1/(samples per cell), so the sample
    # count grows like n_theta^2 to let the distance refine with the grid.
    def l1_against_oracle(run_e, n_samples):
        cfg_l = kh.ScenarioConfig(
            params=P_SUB, init=INIT_SUB, n_samples=n_samples, t_end=1.0,
            record_dt=0.5, solver="lagrangian", snapshot_times=(1.0,),
        )
        run_l = kh.run_lagrangian(cfg_l)
        grid = run_e.final.grid
        rho_push = kh.pushforward_density(run_l.snapshots[1.0], grid)
        rho_e = run_e.snapshots[1.0].rho[0]
        return float(grid.dtheta * np.sum(np.abs(rho_e - rho_push)))

    l1_coarse = l1_against_oracle(sub_eulerian[1], 16 * 1000)
    cfg_fine = kh.ScenarioConfig(
        params=P_SUB, init=INIT_SUB, n_theta=2000, t_end=1.0,
        record_dt=0.5, snapshot_times=(1.0,),
    )
    l1_fine = l1_against_oracle(kh.run_eulerian(cfg_fine), 32 * 2000)
    ratio = l1_coarse / l1_fine

    ok = l1_coarse < 0.05 and ratio >= 1.5
    _report(
        7, "cross-solver distance", ok,
        f"L1(1000)={l1_coarse:.4f} L1(2000)={l1_fine:.4f} ratio={ratio:.2f}",
    )
    assert ok


def test_criterion_08_diameter_envelopes():
    n = 2048
    eta0 = np.linspace(-0.25, 0.25, n)  # d_eta(0)=0.5; v=0.2*eta -> d_v(0)=0.1
    ens = kh.CharEnsemble(
        Omega=np.zeros(n), weight=np.full(n, 1.0 / n),
        eta=eta0, v=0.2 * eta0, d=np.full(n, 0.2), log_rho=np.zeros(n),
    )
    s = kh.evolve(ens, P_SUB, 20.0, record_every=1).series
    env = kh.envelope_params(0.5, 0.1, P_SUB)
    phase_margin = float(np.max(s.d_eta - kh.phase_envelope(env, s.t)))
    velocity_margin = float(np.max(s.d_v - kh.velocity_envelope(env, s.t)))

    t = np.linspace(0.0, 10.0, 101)
    gronwall_err = float(
        np.max(np.abs(kh.gronwall_bound(1.0, 2.0, 1.0, 1.0, 0.0, t)
                      - np.exp(-t) * (1.0 + t)))
    )

    ok = phase_margin < 1e-8 and velocity_margin < 1e-8 and gronwall_err < 1e-12
    _report(
        8, "diameter envelopes", ok,
        f"phase={phase_margin:.2e} velocity={velocity_margin:.2e} "
        f"gronwall={gronwall_err:.2e}",
    )
    assert ok


def test_criterion_09_hysteresis_desk_scale():
    t0 = time.perf_counter()
    ks = np.round(np.arange(0.0, 4.0 + 0.1, 0.2), 12)
    path = tuple(ks) + tuple(ks[-2::-1])

    def sweep_for(m):
        base = kh.ScenarioConfig(
            params=kh.Params(m, 0.0),
            init=kh.InitSpec(kh.RhoGaussian(), kh.USine(-0.5)),
            n_theta=100, g="gaussian", n_omega=120,
        )
        return kh.hysteresis_sweep(kh.SweepConfig(k_path=path, base=base))

    res_m1 = sweep_for(1.0)
    res_m01 = sweep_for(0.1)
    wall = time.perf_counter() - t0

    def jump_k(jumps):
        return max(max(k0, k1) for k0, k1, _ in jumps) if jumps else None

    k_up = jump_k(res_m1.jumps["forward"])
    k_down = jump_k(res_m1.jumps["backward"])
    area_m1 = res_m1.loop_area()
    area_m01 = res_m01.loop_area()

    ok = (
        k_up is not None and k_down is not None and k_down < k_up
        and area_m01 < area_m1 and wall < 900.0
    )
    _report(
        9, "hysteresis desk scale", ok,
        f"K_up={k_up} K_down={k_down} areas m=1:{area_m1:.3f} "
        f"m=0.1:{area_m01:.3f} wall={wall:.0f}s",
    )
    assert ok


def test_criterion_10_classifier_table():
    cases = [
        # (m, K, u0, expected category)
        (0.5, 0.1, kh.USine(-1.0), kh.SUBCRITICAL),
        (1.0, 1.0, kh.USine(-2.0), kh.SUPERCRITICAL),
        (2.0, 0.1, kh.USine(-0.1), kh.SUBCRITICAL),
        (2.0, 0.1, kh.USine(-10.0), kh.SUPERCRITICAL),
        (2.0, 0.1, kh.USine(10.0, 2), kh.SUPERCRITICAL),
    ]
    ok = True
    details = []
    for m, K, u0, expected in cases:
        params = kh.Params(m, K)
        verdict = kh.classify(kh.InitSpec(kh.RhoGaussian(), u0), params)
        roots = kh.critical_roots(params)
        star = np.sort(np.roots([m, 1.0, -K]).real)
        err = max(abs(roots.d_star_minus - star[0]), abs(roots.d_star_plus - star[1]))
        if 4.0 * K * m <= 1.0:
            plain = np.sort(np.roots([m, 1.0, K]).real)
            err = max(err, abs(roots.d_minus - plain[0]), abs(roots.d_plus - plain[1]))
        if verdict.category != expected or err > 1e-12:
            ok = False
            details.append(f"m={m} K={K}: {verdict.category} err={err:.1e}")
    _report(10, "classifier table", ok, "; ".join(details))
    assert ok
