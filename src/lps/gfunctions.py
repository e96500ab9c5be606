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


def _l2_norms(kind: KernelKind, expansions, order: int = 64) -> np.ndarray:
    """gfun_l2_norm of each expansion, which all share one alpha and family.

    Each coordinate gets one basis._rule_gram, as deep as the batch's
    deepest index; its entries do not depend on that depth.  Expansions with
    equally many modes share the array passes of the double sum, and each is
    summed over its own entries in index order, so every norm equals a call
    on that expansion alone bit for bit.
    """
    for e in expansions:
        _check_input(kind, e)
    if not expansions:
        return np.zeros(0)
    alpha, family = expansions[0].alpha, expansions[0].family
    if any(e.alpha != alpha or e.family != family for e in expansions):
        raise ValueError("the expansions of one batch must share alpha and family")
    modes = [_modes(kind, e) for e in expansions]
    shifts = [kind.output_shifts.count(c) for c in range(1, alpha.d + 1)]
    # the output index of mode k is k - shifts, which _modes keeps nonnegative
    downs = [np.array(indices, dtype=np.intp).reshape(-1, alpha.d) - shifts
             for _, _, indices in modes]
    depth = np.max([down.max(axis=0, initial=0) for down in downs], axis=0)
    grams = [_rule_gram(a + s, a, order, int(n), s)
             for a, s, n in zip(alpha.components, shifts, depth)]
    out = np.empty(len(expansions))
    for count in set(map(len, downs)):
        members = [n for n, down in enumerate(downs) if len(down) == count]
        nus, amp = (np.array([modes[n][part] for n in members], dtype=np.longdouble)
                    for part in (0, 1))
        form = (amp[:, :, None] * amp[:, None, :]
                / (nus[:, :, None] + nus[:, None, :]) ** kind.time_power)
        rows = np.array([downs[n] for n in members])
        for c, gram in enumerate(grams):
            form *= gram[rows[:, :, None, c], rows[:, None, :, c]]
        # numpy's long double matmul sums each row in index order, from +0
        total = form.reshape(len(members), -1) @ np.ones(count**2, dtype=np.longdouble)
        out[members] = np.sqrt(np.maximum(total, 0))
    return out


def gfun_l2_norm(kind: KernelKind, e: Expansion, order: int = 64) -> float:
    """||g(f)||_{L^2(d mu_alpha)} by Gauss-Laguerre quadrature of gfun_exact^2.

    The tensor grid of basis._quad_rules is never formed: by Fubini on a
    finite sum, the quadrature is sum_(m,m') a_m a_m' prod_c G_c / (nu_m +
    nu_m')^p, with G_c the entry of coordinate c's basis._rule_gram for the
    output indices of modes m and m'.  Orthonormality is never assumed.
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
