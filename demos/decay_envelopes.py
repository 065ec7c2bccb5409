"""Phase and velocity diameters against their closed-form decay envelopes.

An equal-weight bundle of characteristics starts on [-0.25, 0.25] with
velocities v = 0.2 eta, so the initial diameters are exactly d_eta = 0.5 and
d_v = 0.1.  With m=0.5, K=0.1 the damping is overdamped (4mK sinc(C0) < 1)
and both diameters must stay under two-rate exponential envelopes -- the
quantitative form of synchronization for identical oscillators.
"""
import os

import numpy as np

import kurahydro as kh
from kurahydro.io import write_series_csv

params = kh.Params(0.5, 0.1)
n = 2048
eta0 = np.linspace(-0.25, 0.25, n)
ens = kh.CharEnsemble(
    Omega=np.zeros(n), weight=np.full(n, 1.0 / n),
    eta=eta0, v=0.2 * eta0, d=np.full(n, 0.2), log_rho=np.zeros(n),
)

run = kh.evolve(ens, params, 20.0, record_every=1)
s = run.series
env = kh.envelope_params(0.5, 0.1, params)
print(f"regime: {env.regime}; decay rates nu1={env.nu1:.4f}, nu2={env.nu2:.4f}")
print()
print("      t     d_eta      envelope     d_v        envelope")
for t_mark in (0.0, 1.0, 2.0, 5.0, 10.0, 20.0):
    i = np.argmin(np.abs(s.t - t_mark))
    pe = float(kh.phase_envelope(env, s.t[i]))
    ve = float(kh.velocity_envelope(env, s.t[i]))
    print(f"  {t_mark:5.1f}  {s.d_eta[i]:.6f}  {pe:.6f}   {s.d_v[i]:.6f}  {ve:.6f}")

print()
print(f"worst phase margin:    {np.max(s.d_eta - kh.phase_envelope(env, s.t)):.2e}")
print(f"worst velocity margin: {np.max(s.d_v - kh.velocity_envelope(env, s.t)):.2e}")

measured, bound = kh.dirac_distance_bound(run.final, ens, params)
print(f"mean distance to the limit phase at t=20: {measured:.2e} <= bound {bound:.2e}")

os.makedirs("results/decay_envelopes", exist_ok=True)
write_series_csv("results/decay_envelopes/series.csv", s)
print()
print("diameter series written to results/decay_envelopes/series.csv")
