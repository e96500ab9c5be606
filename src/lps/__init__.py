"""Laguerre semigroups, Littlewood-Paley square functions, and kernel scans.

A numerical library for the harmonic analysis of Laguerre expansions of
convolution type on (0, inf)^d with the measure x^(2 alpha + 1) dx: the
orthonormal Laguerre function systems and their ladder operators, the heat
and Poisson semigroups (plain and modified) with their integral kernels, the
ten vertical and horizontal square functions, and a verification harness for
the Calderon-Zygmund standard estimates of the associated vector-valued
kernels.
"""

from .basis import (
    BasisFamily,
    Expansion,
    PLAIN,
    analyze,
    delta_apply,
    delta_star_apply,
    differentiated,
    eigenvalue,
    ell,
    laguerre_operator_apply,
    riesz_transform,
    synthesize,
)
from .czcheck import (
    counterexample_profile,
    lemma_suite,
    random_expansion,
    riesz_identity_check,
    scan,
)
from .gfunctions import gfun_exact, gfun_l2_exact, gfun_l2_norm, gfun_quadrature
from .kernels import (
    KernelKind,
    SingularPairError,
    ZetaGrid,
    heat_kernel_closed,
    heat_kernel_schlafli,
    heat_kernel_spectral,
    kernel_values,
    poisson_kernel,
)
from .measure import AlphaParam, as_alpha, as_points, mu_ball, mu_box, pi_alpha_integrate
from .specfun import (
    QuadratureRule,
    gauss_jacobi_rule,
    gauss_laguerre_rule,
    gauss_legendre_rule,
)

__version__ = "0.1.0"
