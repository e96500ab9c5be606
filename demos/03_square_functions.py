"""
The ten Littlewood-Paley square functions
=========================================

Vertical square functions take the time derivative of a semigroup and an
L^2(t dt) norm in time; horizontal ones take a first-order space derivative
(with L^2(dt) for the heat variants).  On L^2 of the weighted half-space the
four vertical kinds are exact isometries up to the factor 1/2; the horizontal
kinds combine across coordinates into explicit spectral sums.

A square function is named by the kind of its kernel: KernelKind("dT") is the
heat kernel's time derivative and its square function gVT (kind.spec.gtag).
"""

import numpy as np

from lps import KernelKind, gfun_exact, gfun_l2_norm, gfun_quadrature
from lps.basis import differentiated, eigenvalue, PLAIN
from lps.czcheck import random_expansion
from lps.measure import as_alpha

alpha = (0.3, -0.5)
a = as_alpha(alpha)

f = random_expansion(alpha, PLAIN, nmodes=8, max_level=6, seed=42)
print(f"random expansion with {len(f.coeffs)} modes, ||f|| = {f.l2_norm():.6f}\n")

for kind in (KernelKind("dT"), KernelKind("dP")):
    norm = gfun_l2_norm(kind, f, order=48)
    print(f"||{kind.spec.gtag}(f)|| = {norm:.12f}   (half of ||f|| = {0.5 * f.l2_norm():.12f})")

fm = random_expansion(alpha, differentiated(1), nmodes=8, max_level=6, seed=43)
for kind in (KernelKind("dTmod", j=1), KernelKind("dPmod", j=1)):
    norm = gfun_l2_norm(kind, fm, order=48)
    print(f"||{kind.spec.gtag}(f)|| = {norm:.12f}   (half of ||f|| = {0.5 * fm.l2_norm():.12f})")

# horizontal heat kinds: the combined square sum is a weighted coefficient sum
combined = sum(gfun_l2_norm(KernelKind("hT", i=i), f, order=48) ** 2 for i in (1, 2))
spectral = sum(2.0 * sum(k) / eigenvalue(a, sum(k)) * c * c for k, c in f.coeffs.items())
print(f"\nsum_i ||gHT_i(f)||^2 = {combined:.12f}")
print(f"spectral closed form = {spectral:.12f}")
print(f"ratio to ||f||^2     = {combined / f.l2_norm()**2:.6f}  (always in (0, 1/2])")

# pointwise, the closed double-sum route and the time-quadrature route agree
xs = np.array([[0.5, 1.0], [1.5, 2.0]])
kind = KernelKind("hTmodStar", j=1)
print(f"\ngHTmodStar pointwise  exact: {gfun_exact(kind, fm, xs)}")
print(f"            quadrature route: {gfun_quadrature(kind, fm, xs)}")
