"""The ten vertical and horizontal square functions on finite expansions.

Applied to a finite expansion, every square function has a time integrand that
is a finite exponential sum  sum_m a_m(x) e^(-nu_m t)  (heat kinds decay with
the eigenvalue, Poisson kinds with its square root), so the squared time norm
is a closed double sum:

    ||.||^2 over t dt :  sum_(m,m') a_m a_m' / (nu_m + nu_m')^2
    ||.||^2 over dt   :  sum_(m,m') a_m a_m' / (nu_m + nu_m')

Every entry point takes the KernelKind of the square function's kernel; the
square function's name is kind.spec.gtag (gVT, gHPmod, ...).  The amplitudes
a_m(x) come from the kind: a per-mode multiplier (an eigenvalue factor for
vertical kinds, a ladder factor -2 sqrt(k_c) for horizontal ones, c =
kind.coord) and the output system kind.output_shifts.  The same amplitudes
drive the ζ-grid quadrature route used for cross-checking.

The closed form and the norms share one contraction: with A the amplitude
matrix (modes x points) and C = 1/(nu_m + nu_m')^p, the squared value at each
point is the column sum of A * (C @ A), one matmul and one elementwise pass
for all points.

The L^2(d mu_alpha) norms integrate the squared values over the tensor
Gauss-Laguerre grid of basis._quad_grid.  Their amplitudes read per-rule
Laguerre tables that basis caches on the 1-d nodes, so a repeated norm on
the same alpha and order builds no table.
"""

import numpy as np

from .basis import Expansion, _ell_grid, _quad_grid, eigenvalue, ell_batch
from .kernels import KernelKind, ZetaGrid
from .measure import as_points

__all__ = [
    "gfun_exact",
    "gfun_quadrature",
    "gfun_l2_norm",
    "gfun_l2_exact",
]


def _check_input(kind: KernelKind, e: Expansion):
    kind.check_dimension(e.alpha.d)
    want = kind.input_family()
    if e.family != want:
        raise ValueError(
            f"{kind.spec.gtag} expects the {want.kind} family"
            + (f" (j={want.j})" if not want.is_plain else "")
        )


def _modes(kind: KernelKind, e: Expansion):
    """Per-mode decay rates, multipliers and indices, and the output shifts.

    The output of mode k is the member k of the system ell_batch evaluates
    with the returned shift coordinates.
    """
    alpha = e.alpha
    nus, mults, indices = [], [], []
    for k, c in e.coeffs.items():
        lam = eigenvalue(alpha, sum(k))
        nu = np.sqrt(lam) if kind.is_poisson else lam
        if kind.spec.deriv == "d":
            mult = -nu
        else:
            # delta_i and delta_j^* lower k_c by one, with factor -2 sqrt(k_c)
            kc = k[kind.coord - 1]
            if kc == 0:
                continue
            mult = -2.0 * np.sqrt(kc)
        nus.append(nu)
        mults.append(mult * c)
        indices.append(k)
    return np.asarray(nus), np.asarray(mults), indices, kind.output_shifts


def _amplitudes(kind: KernelKind, e: Expansion, pts: np.ndarray):
    """Amplitude matrix (nmodes, npts) and decay rates (nmodes,)."""
    nus, mults, indices, shifts = _modes(kind, e)
    return nus, mults[:, None] * ell_batch(e.alpha, shifts, indices, pts)


def _closed_values(kind: KernelKind, nus: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """The square function at each point of amp's columns, by the closed double sum."""
    denom = (nus[:, None] + nus[None, :]) ** kind.time_power
    sq = np.sum(amp * ((1.0 / denom) @ amp), axis=0)
    return np.sqrt(np.maximum(sq, 0.0))


def gfun_exact(kind: KernelKind, e: Expansion, x):
    """Pointwise value of the square function, by the closed double sum."""
    _check_input(kind, e)
    pts, single = as_points(e.alpha.d, x)
    if not e.coeffs:
        return 0.0 if single else np.zeros(pts.shape[0])
    nus, amp = _amplitudes(kind, e, pts)
    out = _closed_values(kind, nus, amp)
    return float(out[0]) if single else out


def gfun_quadrature(kind: KernelKind, e: Expansion, x, grid: ZetaGrid | None = None):
    """Same value through the ζ-grid time quadrature; cross-check route."""
    _check_input(kind, e)
    grid = grid or ZetaGrid()
    pts, single = as_points(e.alpha.d, x)
    if not e.coeffs:
        return 0.0 if single else np.zeros(pts.shape[0])
    nus, amp = _amplitudes(kind, e, pts)
    decay = np.exp(-np.outer(nus, grid.t))
    out = grid.norms(amp.T @ decay, kind.time_power)  # one norm per point
    return float(out[0]) if single else out


def gfun_l2_norm(kind: KernelKind, e: Expansion, order: int = 64) -> float:
    """||g(f)||_{L^2(d mu_alpha)} by Gauss-Laguerre quadrature of gfun_exact^2.

    The amplitudes on the tensor grid come from the cached per-rule tables
    of basis._ell_grid; they equal gfun_exact's at the grid points bit for bit.
    """
    _check_input(kind, e)
    _, w = _quad_grid(e.alpha, order)
    nus, mults, indices, shifts = _modes(kind, e)
    amp = mults[:, None] * _ell_grid(e.alpha, shifts, indices, order)
    return float(np.sqrt(np.sum(w * _closed_values(kind, nus, amp) ** 2)))


def gfun_l2_exact(kind: KernelKind, e: Expansion) -> float:
    """The same norm from orthonormality of the output system (spectral form)."""
    _check_input(kind, e)
    if not e.coeffs:
        return 0.0
    nus, mults, _, _ = _modes(kind, e)
    # int_0^inf e^(-2 nu t) t^(p-1) dt
    weights = 1.0 / (2.0 * nus) ** kind.time_power
    return float(np.sqrt(np.sum(mults**2 * weights)))
