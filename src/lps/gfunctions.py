"""The ten vertical and horizontal square functions on finite expansions.

Applied to a finite expansion, every square function has a time integrand that
is a finite exponential sum  sum_m a_m(x) e^(-nu_m t)  (heat kinds decay with
the eigenvalue, Poisson kinds with its square root), so the squared time norm
is a closed double sum:

    ||.||^2 over t dt :  sum_(m,m') a_m a_m' / (nu_m + nu_m')^2
    ||.||^2 over dt   :  sum_(m,m') a_m a_m' / (nu_m + nu_m')

The amplitudes a_m(x) come from one extraction table: each kind contributes a
per-mode multiplier (an eigenvalue factor for vertical kinds, a ladder factor
-2 sqrt(k_i) for horizontal ones) and an output basis family.  The same table
drives the ζ-grid quadrature route used for cross-checking.
"""

from dataclasses import dataclass

import numpy as np

from .basis import Expansion, PLAIN, _as_points, _quad_grid, differentiated, eigenvalue, ell_batch
from .kernels import KIND_TABLE, KindSpec, TimeProfile, ZetaGrid

__all__ = [
    "GFunctionKind",
    "GFUNCTION_TAGS",
    "gfun_exact",
    "gfun_quadrature",
    "gfun_profile",
    "gfun_l2_norm",
    "gfun_l2_exact",
]

# each square function is the g-function of one kernel kind of the table
_SPEC_OF = {spec.gtag: spec for sg in ("T", "P") for spec in KIND_TABLE.values()
            if spec.semigroup == sg}
GFUNCTION_TAGS = tuple(_SPEC_OF)


@dataclass(frozen=True)
class GFunctionKind:
    """Square-function tag with derivative coordinate i and family coordinate j."""

    tag: str
    i: int = 0
    j: int = 0

    def __post_init__(self):
        if self.tag not in _SPEC_OF:
            raise ValueError(f"unknown g-function tag {self.tag!r}")
        self.spec.check_coords(self.tag, self.i, self.j)

    @property
    def spec(self) -> KindSpec:
        return _SPEC_OF[self.tag]

    @property
    def measure_kind(self) -> str:
        return self.spec.measure_kind

    @property
    def is_poisson(self) -> bool:
        return self.spec.semigroup == "P"

    def input_family(self):
        return differentiated(self.j) if self.spec.modified else PLAIN


def _check_input(kind: GFunctionKind, e: Expansion):
    want = kind.input_family()
    if e.family != want:
        raise ValueError(
            f"{kind.tag} expects the {want.kind} family"
            + (f" (j={want.j})" if not want.is_plain else "")
        )


def _modes(kind: GFunctionKind, e: Expansion):
    """Per-mode decay rates, multipliers and indices, and the output shifts.

    The output of mode k is the member k of the system ell_batch evaluates
    with the returned shift coordinates.
    """
    alpha = e.alpha
    spec = kind.spec
    if spec.deriv == "d":
        shifts = e.family.shifts
    elif spec.deriv == "h":
        shifts = (kind.i, kind.j) if spec.modified else (kind.i,)
    else:  # hStar
        shifts = ()
    nus, mults, indices = [], [], []
    for k, c in e.coeffs.items():
        lam = eigenvalue(alpha, sum(k))
        nu = np.sqrt(lam) if kind.is_poisson else lam
        if spec.deriv == "d":
            mult = -nu
        elif spec.deriv == "h":
            if k[kind.i - 1] == 0:
                continue
            mult = -2.0 * np.sqrt(k[kind.i - 1])
        else:  # hStar
            mult = -2.0 * np.sqrt(k[kind.j - 1])
        nus.append(nu)
        mults.append(mult * c)
        indices.append(k)
    return np.asarray(nus), np.asarray(mults), indices, shifts


def _amplitudes(kind: GFunctionKind, e: Expansion, pts: np.ndarray):
    """Amplitude matrix (nmodes, npts) and decay rates (nmodes,)."""
    nus, mults, indices, shifts = _modes(kind, e)
    return nus, mults[:, None] * ell_batch(e.alpha, shifts, indices, pts)


def gfun_exact(kind: GFunctionKind, e: Expansion, x):
    """Pointwise value of the square function, by the closed double sum."""
    _check_input(kind, e)
    pts, single = _as_points(e.alpha, x)
    if not e.coeffs:
        return 0.0 if single else np.zeros(pts.shape[0])
    nus, amp = _amplitudes(kind, e, pts)
    power = 1 if kind.measure_kind == "dt" else 2
    denom = (nus[:, None] + nus[None, :]) ** power
    sq = np.einsum("mp,mn,np->p", amp, 1.0 / denom, amp)
    out = np.sqrt(np.maximum(sq, 0.0))
    return float(out[0]) if single else out


def gfun_quadrature(kind: GFunctionKind, e: Expansion, x, grid: ZetaGrid | None = None):
    """Same value through the ζ-grid time quadrature; cross-check route."""
    _check_input(kind, e)
    grid = grid or ZetaGrid()
    pts, single = _as_points(e.alpha, x)
    w = grid.time_weights(kind.measure_kind)
    if not e.coeffs:
        return 0.0 if single else np.zeros(pts.shape[0])
    nus, amp = _amplitudes(kind, e, pts)
    decay = np.exp(-np.outer(nus, grid.t))
    integrand = amp.T @ decay  # (npts, T)
    out = np.sqrt(np.maximum(integrand**2 @ w, 0.0))
    return float(out[0]) if single else out


def gfun_profile(kind: GFunctionKind, e: Expansion, x, grid: ZetaGrid | None = None) -> TimeProfile:
    """The time integrand at one point x, as a TimeProfile."""
    _check_input(kind, e)
    grid = grid or ZetaGrid()
    pts, _ = _as_points(e.alpha, x)
    nus, amp = _amplitudes(kind, e, pts[:1])
    decay = np.exp(-np.outer(nus, grid.t))
    vals = (amp.T @ decay)[0]
    return TimeProfile(kind.measure_kind, grid.zeta, vals, grid.time_weights(kind.measure_kind))


def gfun_l2_norm(kind: GFunctionKind, e: Expansion, order: int = 64) -> float:
    """||g(f)||_{L^2(d mu_alpha)} by Gauss-Laguerre quadrature of gfun_exact^2."""
    _check_input(kind, e)
    pts, w = _quad_grid(e.alpha, order)
    vals = gfun_exact(kind, e, pts)
    return float(np.sqrt(np.sum(w * vals**2)))


def gfun_l2_exact(kind: GFunctionKind, e: Expansion) -> float:
    """The same norm from orthonormality of the output system (spectral form)."""
    _check_input(kind, e)
    if not e.coeffs:
        return 0.0
    nus, mults, _, _ = _modes(kind, e)
    if kind.measure_kind == "dt":
        weights = 1.0 / (2.0 * nus)
    else:
        weights = 1.0 / (4.0 * nus * nus)
    return float(np.sqrt(np.sum(mults**2 * weights)))
