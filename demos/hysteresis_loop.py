"""Hysteresis: the steady order parameter remembers the sweep direction.

Sweep the coupling 0 -> 4 -> 0 with warm starts on a desk-scale grid of
nonidentical oscillators.  On the way up the incoherent branch survives past
the backward transition; on the way down the synchronized branch survives
below the forward one, opening a loop whose area grows with inertia.
The scenario is configs/hysteresis_desk.yaml.
"""
import os

import kurahydro as kh

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")
sweep = kh.parse_config(os.path.join(CONFIGS, "hysteresis_desk.yaml"))

result = kh.hysteresis_sweep(sweep, out_dir="results/hysteresis_m1")

print("     K    r_inf (up)   r_inf (down)")
backward = {k: r for k, r, _ in result.backward}
for k, r_up, _ in result.forward:
    print(f"  {k:4.1f}   {r_up:10.4f}   {backward[k]:12.4f}")

print()
print(f"forward jumps:  {result.jumps['forward']}")
print(f"backward jumps: {result.jumps['backward']}")
print(f"loop area: {result.loop_area():.4f}")
print()
print("sweep table written to results/hysteresis_m1/sweep.csv")
print("(rerun with m=0.1 in the base config to watch the loop shrink)")
