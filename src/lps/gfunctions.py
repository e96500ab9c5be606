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

gfun_exact contracts the amplitudes: with A the amplitude matrix
(modes x points) and C = 1/(nu_m + nu_m')^p, the squared value at each point
is the column sum of A * (C @ A), one matmul and one elementwise pass for all
points.

The L^2(d mu_alpha) norms are the Gauss-Laguerre quadrature of that squared
value on the tensor grid of basis._quad_rules, without forming the grid:
output functions and grid weights are products over coordinates, so the sum
factors into one Gram matrix per coordinate (basis._rule_gram, from the
cached per-rule tables) and a double sum over mode pairs, in np.longdouble.
The private paths take the modes of a batch as one pair of arrays, idx
(E, M, d) and coeffs (E, M); each public function is a batch of one.
"""

import numpy as np

from .basis import Expansion, _rule_gram, eigenvalue, ell_batch
from .kernels import KernelKind, ZetaGrid
from .measure import as_points

__all__ = [
    "gfun_exact",
    "gfun_quadrature",
    "gfun_l2_norm",
    "gfun_l2_exact",
]


def _check_input(kind: KernelKind, alpha, family):
    kind.check_dimension(alpha.d)
    want = kind.input_family()
    if family != want:
        raise ValueError(
            f"{kind.spec.gtag} expects the {want.kind} family"
            + (f" (j={want.j})" if not want.is_plain else "")
        )


def _mode_arrays(e: Expansion):
    """The modes of e as a batch of one: idx (1, M, d) and coeffs (1, M), in key order."""
    idx = np.array(list(e.coeffs), dtype=np.intp).reshape(1, -1, e.alpha.d)
    return idx, np.array(list(e.coeffs.values())).reshape(1, -1)


def _modes(kind: KernelKind, alpha, idx: np.ndarray, coeffs: np.ndarray):
    """Decay rates and multipliers of the modes idx (..., M, d) with coeffs (..., M).

    The output of mode k is the member k of the system ell_batch evaluates
    with the shifts kind.output_shifts.  delta_i and delta_j^* lower k_c by
    one with factor -2 sqrt(k_c), so a mode with k_c = 0 has no output and
    multiplier 0, whatever its coefficient.
    """
    lam = eigenvalue(alpha, idx.sum(axis=-1))
    nus = np.sqrt(lam) if kind.is_poisson else lam
    if kind.spec.deriv == "d":
        return nus, -nus * coeffs
    kc = idx[..., kind.coord - 1]
    return nus, np.where(kc > 0, -2.0 * np.sqrt(kc) * coeffs, 0.0)


def _amplitudes(kind: KernelKind, e: Expansion, pts: np.ndarray):
    """Amplitude matrix (nmodes, npts) and decay rates (nmodes,)."""
    nus, mults = _modes(kind, e.alpha, *_mode_arrays(e))
    return nus[0], mults[0][:, None] * ell_batch(e.alpha, kind.output_shifts, list(e.coeffs), pts)


def _closed_values(kind: KernelKind, nus: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """The square function at each point of amp's columns, by the closed double sum."""
    denom = (nus[:, None] + nus[None, :]) ** kind.time_power
    sq = np.sum(amp * ((1.0 / denom) @ amp), axis=0)
    return np.sqrt(np.maximum(sq, 0.0))


def gfun_exact(kind: KernelKind, e: Expansion, x):
    """Pointwise value of the square function, by the closed double sum."""
    _check_input(kind, e.alpha, e.family)
    pts, single = as_points(e.alpha.d, x)
    out = _closed_values(kind, *_amplitudes(kind, e, pts))
    return float(out[0]) if single else out


def gfun_quadrature(kind: KernelKind, e: Expansion, x, grid: ZetaGrid | None = None):
    """Same value through the ζ-grid time quadrature; cross-check route."""
    _check_input(kind, e.alpha, e.family)
    grid = grid or ZetaGrid()
    pts, single = as_points(e.alpha.d, x)
    nus, amp = _amplitudes(kind, e, pts)
    decay = np.exp(-np.outer(nus, grid.t))
    out = grid.norms(amp.T @ decay, kind.time_power)  # one norm per point
    return float(out[0]) if single else out


def _l2_norms(kind: KernelKind, alpha, family, idx: np.ndarray, coeffs: np.ndarray,
              order: int = 64) -> np.ndarray:
    """gfun_l2_norm of each row of a batch of modes: idx (E, M, d), coeffs (E, M).

    Each coordinate gets one basis._rule_gram, as deep as the batch's
    deepest output index; its entries do not depend on that depth.  Every
    row is summed over its M^2 entries in index order, and a mode without
    output adds exact zeros, so each norm equals a call on that row alone
    bit for bit, and a call on its expansion with those modes dropped.
    """
    _check_input(kind, alpha, family)
    nus, amp = (np.asarray(v, dtype=np.longdouble) for v in _modes(kind, alpha, idx, coeffs))
    shifts = [kind.output_shifts.count(c) for c in range(1, alpha.d + 1)]
    # the output index of mode k is k - shifts; a mode without output reads row 0
    down = np.maximum(idx - shifts, 0)
    grams = [_rule_gram(a + s, a, order, int(n), s)
             for a, s, n in zip(alpha.components, shifts, down.max(axis=(0, 1), initial=0))]
    form = (amp[:, :, None] * amp[:, None, :]
            / (nus[:, :, None] + nus[:, None, :]) ** kind.time_power)
    for c, gram in enumerate(grams):
        form *= gram[down[:, :, None, c], down[:, None, :, c]]
    # numpy's long double matmul sums each row in index order, from +0
    count, modes = coeffs.shape
    total = form.reshape(count, modes**2) @ np.ones(modes**2, dtype=np.longdouble)
    return np.sqrt(np.maximum(total, 0)).astype(float)


def gfun_l2_norm(kind: KernelKind, e: Expansion, order: int = 64) -> float:
    """||g(f)||_{L^2(d mu_alpha)} by Gauss-Laguerre quadrature of gfun_exact^2.

    The tensor grid of basis._quad_rules is never formed: by Fubini on a
    finite sum, the quadrature is sum_(m,m') a_m a_m' prod_c G_c / (nu_m +
    nu_m')^p, with G_c the entry of coordinate c's basis._rule_gram for the
    output indices of modes m and m'.  Orthonormality is never assumed.
    """
    return float(_l2_norms(kind, e.alpha, e.family, *_mode_arrays(e), order)[0])


def gfun_l2_exact(kind: KernelKind, e: Expansion) -> float:
    """The same norm from orthonormality of the output system (spectral form)."""
    _check_input(kind, e.alpha, e.family)
    nus, mults = _modes(kind, e.alpha, *_mode_arrays(e))
    # int_0^inf e^(-2 nu t) t^(p-1) dt
    weights = 1.0 / (2.0 * nus) ** kind.time_power
    # a mode with multiplier 0 adds no term: np.sum pairs its terms by position
    return float(np.sqrt(np.sum((mults**2 * weights)[mults != 0])))
