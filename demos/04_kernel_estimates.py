"""
Scanning the Calderon-Zygmund standard estimates
================================================

Each square function corresponds to a vector-valued kernel: a curve in time
attached to every off-diagonal pair (x, y), normed in L^2(dt) or L^2(t dt).
The standard estimates bound that norm by the reciprocal measure of the ball
B(x, |x-y|), with an extra |x-x'|/|x-y| factor for argument perturbations.
The scans report the dimensionless ratio (norm times ball measure, times the
inverted smoothness factor); the theory says these stay bounded, and the
numbers come out order one.
"""

import numpy as np

from lps import KernelKind, ZetaGrid, kernel_values
from lps.czcheck import (
    ball_measures,
    counterexample_profile,
    lemma_suite,
    sample_pairs,
    sample_perturbed,
    scan,
)

grid = ZetaGrid(order=8, levels_zero=30, levels_one=30)

# one kernel entry: the time profile of the heat-kernel time derivative
dT = KernelKind("dT")
profile = kernel_values(0.0, dT, [1.0], [1.5], grid)[0]
norm = np.sqrt(profile**2 @ grid.time_weights(dT.measure_kind))
print(f"dT entry at (1.0, 1.5): L^2(t dt) norm = {norm:.6f}")

# one pair sample, its perturbations and its ball measures serve every scan
x, y = sample_pairs(1, 150, 7)
xp = sample_perturbed(x, y, 8)
balls = ball_measures(0.0, x, y)
kinds = [KernelKind("dT"), KernelKind("hT", i=1), KernelKind("dP")]
for kind, (cols,) in zip(kinds, scan(0.0, kinds, x, y, None, None, balls, [grid], ("growth",))):
    ratios = cols["growth"].ratio
    print(f"{kind.tag:4s} growth ratios over 150 pairs: "
          f"max {ratios.max():.3f}  median {np.median(ratios):.3f}")

ratios = scan(0.0, [dT], x, y, xp, None, balls, [grid], ("smooth_x",))[0][0]["smooth_x"].ratio
print(f"dT   smoothness (x-argument):      max {ratios.max():.3f}  "
      f"median {np.median(ratios):.3f}")

# the supporting inequalities behind the estimates, checked exactly on seeded
# samples; the two time integrals against their closed forms, whose constants
# (sqrt(pi) and 2/c) are reported
print("\ninequality suite at alpha = (0, -1/2):")
for r in lemma_suite((0.0, -0.5), samples=20000, seed=1):
    print(f"  {r.name:32s} {'ok' if r.passed else 'VIOLATED'}  margin {r.margin:.2e}  {r.detail}")

# swapping the derivative for its adjoint destroys the kernel bounds: applied
# to the ground state the profile grows like x * l_0(x), which is exactly the
# closed formula below
xs = np.linspace(0.5, 4.0, 8)
closed, quad, dev = counterexample_profile(1.0, xs)
print("\nadjoint-swap profile on the ground state (alpha = 1):")
print("  closed   :", np.array2string(closed, precision=6))
print("  quadrature:", np.array2string(quad, precision=6))
print(f"  max deviation {dev:.2e}")
