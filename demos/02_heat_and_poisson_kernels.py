"""
Heat and Poisson kernels, three ways
====================================

The heat kernel of the Laguerre semigroup has a closed Bessel-product form, a
spectral series, and an integral representation against the tensor measure
Pi_alpha on [-1,1]^d (two point masses per coordinate in the boundary case
alpha_i = -1/2).  All three agree to near machine precision off t = 0.  The
modified kernel of coordinate j, e^(-2t) x_j y_j G_t^(alpha+e_j), is the same
closed form with j given.  The Poisson kernel is the subordinated integral of
the heat kernel.
"""

import numpy as np

from lps import (
    heat_kernel_closed,
    heat_kernel_schlafli,
    heat_kernel_spectral,
    poisson_kernel,
)
from lps.specfun import gauss_laguerre_rule

alpha = (0.7, -0.5)
t, x, y = 0.4, [1.0, 2.0], [0.5, 1.3]

closed = heat_kernel_closed(alpha, t, x, y)
series = heat_kernel_spectral(alpha, t, x, y, cutoff=70)
integral = heat_kernel_schlafli(alpha, t, x, y, order=64)
print(f"closed   {closed:.15e}")
print(f"spectral {series:.15e}   rel dev {abs(series-closed)/closed:.1e}")
print(f"integral {integral:.15e}   rel dev {abs(integral-closed)/closed:.1e}")

# the semigroup property, checked by quadrature in the middle variable
a1 = 0.3
rule = gauss_laguerre_rule(80, a1)
zs = np.sqrt(rule.nodes)
w = 0.5 * rule.weights * np.exp(rule.nodes)
conv = sum(
    wq * heat_kernel_closed(a1, 0.3, [1.0], [z]) * heat_kernel_closed(a1, 0.4, [z], [2.0])
    for z, wq in zip(zs, w)
)
direct = heat_kernel_closed(a1, 0.7, [1.0], [2.0])
print(f"\nChapman-Kolmogorov: composed {conv:.12e} vs direct {direct:.12e}")

# the modified kernel (j = 1) is dominated by the plain one on the estimate range
gm = heat_kernel_closed(alpha, t, x, y, j=1)
print(f"\nmodified kernel {gm:.6e} <= heat kernel {closed:.6e}: {gm <= closed}")

# Poisson kernel by subordination
p = poisson_kernel(0.0, 1.0, [1.0], [2.0])
print(f"\nPoisson kernel at t=1: {p:.12e}")
