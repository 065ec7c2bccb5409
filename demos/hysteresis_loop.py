"""Hysteresis: the steady order parameter remembers the sweep direction.

Sweep the coupling 0 -> 4 -> 0 with warm starts on a desk-scale grid of
nonidentical oscillators.  On the way up the incoherent branch survives past
the backward transition; on the way down the synchronized branch survives
below the forward one, opening a loop whose area grows with inertia.
"""
import kurahydro as kh

base = kh.ScenarioConfig(
    params=kh.Params(1.0, 0.0),
    init=kh.InitSpec(kh.RhoGaussian(), kh.USine(-0.5)),
    n_theta=100, g="gaussian", n_omega=120,
)
sweep = kh.SweepConfig(
    k_path=tuple(round(0.2 * i, 12) for i in range(21))
    + tuple(round(0.2 * i, 12) for i in range(19, -1, -1)),
    base=base,
)

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
