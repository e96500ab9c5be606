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
the same alpha and order builds no table.  A batch of expansions of one
alpha and family reads one grid table for the modes of as many consecutive
expansions as fit in _TABLE_ENTRIES (_l2_norms).
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
    """Per-mode decay rates, multipliers and indices.

    The output of mode k is the member k of the system ell_batch evaluates
    with the shifts kind.output_shifts.
    """
    indices = list(e.coeffs)
    c = kind.coord - 1
    if kind.spec.deriv != "d":
        # delta_i and delta_j^* lower k_c by one, with factor -2 sqrt(k_c), so k_c = 0 drops
        indices = [k for k in indices if k[c] != 0]
    coeffs = np.array([e.coeffs[k] for k in indices], dtype=float)
    lam = eigenvalue(e.alpha, np.array([sum(k) for k in indices], dtype=np.intp))
    nus = np.sqrt(lam) if kind.is_poisson else lam
    if kind.spec.deriv == "d":
        return nus, -nus * coeffs, indices
    kc = np.array([k[c] for k in indices], dtype=np.intp)
    return nus, -2.0 * np.sqrt(kc) * coeffs, indices


def _amplitudes(kind: KernelKind, e: Expansion, pts: np.ndarray):
    """Amplitude matrix (nmodes, npts) and decay rates (nmodes,)."""
    nus, mults, indices = _modes(kind, e)
    return nus, mults[:, None] * ell_batch(e.alpha, kind.output_shifts, indices, pts)


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


# the most entries (rows x grid points) of one _l2_norms table: the union of
# a d = 2 batch at cutoff 8 and order 64, 45 x 4096, fits in one table
_TABLE_ENTRIES = 45 * 4096


def _blocks(index_lists, npts: int):
    """Consecutive runs (start, stop, union of their indices) of index_lists.

    A run's union holds at most _TABLE_ENTRIES // npts indices, unless its
    one list alone holds more.
    """
    start, union = 0, {}
    for n, indices in enumerate(index_lists):
        grown = union | dict.fromkeys(indices)
        if n > start and len(grown) * npts > _TABLE_ENTRIES:
            yield start, n, list(union)
            start, grown = n, dict.fromkeys(indices)
        union = grown
    yield start, len(index_lists), list(union)


def _block_norms(kind: KernelKind, alpha, modes: list, union: list, order: int) -> list:
    """The norms of a run of expansions, given their _modes, from one table over union.

    The table and the amplitudes go with the call, before the next run's
    table is built.
    """
    _, w = _quad_grid(alpha, order)
    table = _ell_grid(alpha, kind.output_shifts, union, order)
    row = {k: n for n, k in enumerate(union)}
    norms = []
    for nus, mults, indices in modes:
        # a lone expansion's table is its rows in mode order; it may exceed
        # _TABLE_ENTRIES, so it is scaled in place rather than copied
        amp = table if len(modes) == 1 else table[[row[k] for k in indices]]
        amp *= mults[:, None]
        norms.append(np.sqrt(np.sum(w * _closed_values(kind, nus, amp) ** 2)))
    return norms


def _l2_norms(kind: KernelKind, expansions, order: int = 64) -> np.ndarray:
    """gfun_l2_norm of each expansion, which all share one alpha and family.

    Consecutive expansions share one _ell_grid table over the union of their
    output indices, as many as fit in _TABLE_ENTRIES; each expansion then
    reads its rows in its own mode order, so every norm equals a call on
    that expansion alone bit for bit.
    """
    for e in expansions:
        _check_input(kind, e)
    if not expansions:
        return np.zeros(0)
    alpha, family = expansions[0].alpha, expansions[0].family
    if any(e.alpha != alpha or e.family != family for e in expansions):
        raise ValueError("the expansions of one batch must share alpha and family")
    modes = [_modes(kind, e) for e in expansions]
    npts = len(_quad_grid(alpha, order)[1])
    out = []
    for start, stop, union in _blocks([indices for _, _, indices in modes], npts):
        out += _block_norms(kind, alpha, modes[start:stop], union, order)
    return np.array(out)


def gfun_l2_norm(kind: KernelKind, e: Expansion, order: int = 64) -> float:
    """||g(f)||_{L^2(d mu_alpha)} by Gauss-Laguerre quadrature of gfun_exact^2.

    The amplitudes on the tensor grid come from the cached per-rule tables
    of basis._ell_grid; they equal gfun_exact's at the grid points bit for bit.
    """
    return float(_l2_norms(kind, [e], order)[0])


def gfun_l2_exact(kind: KernelKind, e: Expansion) -> float:
    """The same norm from orthonormality of the output system (spectral form)."""
    _check_input(kind, e)
    if not e.coeffs:
        return 0.0
    nus, mults, _ = _modes(kind, e)
    # int_0^inf e^(-2 nu t) t^(p-1) dt
    weights = 1.0 / (2.0 * nus) ** kind.time_power
    return float(np.sqrt(np.sum(mults**2 * weights)))
