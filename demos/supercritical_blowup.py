"""Supercritical run: the slope collapses in finite time on both solvers.

m=1, K=1, u0 = -2 sin(theta): the initial slope -2 lies below d*_-, so the
velocity gradient must diverge to -infinity in finite time and the density
concentrates.  The oracle watches d(t) against the closed-form supercritical
envelope and flags gradient collapse; the Eulerian solver cannot represent
densities beyond 1/dtheta per cell, so its concentration detector runs with
a lowered density factor.
The scenario is configs/supercritical_blowup.yaml.
"""
import os

import numpy as np

import kurahydro as kh

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")
config = kh.parse_config(os.path.join(CONFIGS, "supercritical_blowup.yaml"))
params = config.params

verdict = kh.classify(config.init, params)
print(f"classifier: {verdict.category}; min du0 = {verdict.min_du0}")
print(f"blow-up no later than t = {verdict.blowup_time_bound:.4f} "
      "(pole of the supercritical envelope)")
print()

result = kh.run_scenario(config, out_dir="results/supercritical_blowup")

oracle = result.lagrangian
print(f"oracle flag: {oracle.blowup.reason} at t* = {oracle.blowup.t:.4f}")
s = oracle.series
env = kh.supercritical_envelope(float(s.min_du[0]), params, s.t)
print(f"min d(t) stays below its envelope: worst margin "
      f"{np.max(s.min_du - env):.2e}")

euler = result.eulerian
if euler.blowup is not None:
    print(f"eulerian flag: {euler.blowup.reason} at t = {euler.blowup.t:.4f} "
          f"(last recorded max rho = {euler.series.max_rho[-1]:.1f})")
print()
print("series and snapshots written to results/supercritical_blowup/")
