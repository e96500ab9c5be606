"""The weighted half-space (R_+^d, mu_alpha, |.|) and the product measure Pi_alpha.

mu_alpha has density x_1^(2a_1+1) ... x_d^(2a_d+1); it is doubling, so balls
and their measures are the basic geometric quantities for all kernel
estimates.  Pi_alpha is the tensor measure on [-1,1]^d with per-coordinate
density (1-s^2)^(a-1/2) / (sqrt(pi) 2^a Gamma(a+1/2)) for a > -1/2 and the
two-point mass (delta_-1 + delta_1)/sqrt(2 pi) in the limiting case a = -1/2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .specfun import gauss_jacobi_rule, gauss_legendre_rule

__all__ = [
    "AlphaParam",
    "as_alpha",
    "mu_box",
    "mu_ball",
    "doubling_ratio",
    "pi_alpha_integrate",
    "pi_alpha_nodes",
]


@dataclass(frozen=True)
class AlphaParam:
    """Type multi-index alpha in (-1, inf)^d."""

    components: tuple

    def __post_init__(self):
        comps = tuple(float(a) for a in self.components)
        if len(comps) < 1:
            raise ValueError("alpha needs at least one component")
        if not all(math.isfinite(a) and a > -1.0 for a in comps):
            raise ValueError(f"every component must be finite and exceed -1, got {comps}")
        object.__setattr__(self, "components", comps)

    @property
    def d(self) -> int:
        return len(self.components)

    @property
    def total(self) -> float:
        """|alpha| = sum of the components (may be negative)."""
        return float(sum(self.components))

    @property
    def cz_eligible(self) -> bool:
        """True iff alpha lies in [-1/2, inf)^d, the range of the kernel estimates."""
        return min(self.components) >= -0.5

    def shifted(self, j: int, amount: float = 1.0) -> "AlphaParam":
        """alpha + amount * e_j with 1-based coordinate j."""
        if not 1 <= j <= self.d:
            raise ValueError(f"coordinate j must be in 1..{self.d}, got {j}")
        comps = list(self.components)
        comps[j - 1] += amount
        return AlphaParam(tuple(comps))

    def array(self) -> np.ndarray:
        return np.asarray(self.components, dtype=float)


def as_alpha(alpha) -> AlphaParam:
    """Coerce a float, a sequence, or an AlphaParam to AlphaParam."""
    if isinstance(alpha, AlphaParam):
        return alpha
    if np.isscalar(alpha):
        return AlphaParam((float(alpha),))
    return AlphaParam(tuple(alpha))


def mu_box(alpha, lo, hi) -> float:
    """mu_alpha of the box prod (lo_i, hi_i); exact product formula."""
    alpha = as_alpha(alpha)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != (alpha.d,) or hi.shape != (alpha.d,):
        raise ValueError(f"box corners must have {alpha.d} coordinates")
    if np.any(lo < 0) or np.any(hi <= lo):
        raise ValueError("box requires 0 <= lo_i < hi_i")
    p = 2.0 * alpha.array() + 2.0
    return float(np.prod((hi**p - lo**p) / p))


def _mu_interval(a: float, lo, hi):
    """1-d mu_a of (lo, hi) with lo clipped at 0; vectorized."""
    p = 2.0 * a + 2.0
    lo = np.maximum(lo, 0.0)
    return (np.maximum(hi, 0.0) ** p - lo**p) / p


def _mu_disk_2d(alpha: AlphaParam, center: np.ndarray, r: float, order: int) -> float:
    """mu_alpha of a disk intersected with the quadrant, by slicing.

    Outer integral over x_1 = c_1 + r sin(theta) (the substitution removes the
    square-root behaviour of the chord length at the rim); the inner
    x_2-interval measure is exact.  The theta-domain is split at the points
    where either clipping at a coordinate axis switches on, so every panel is
    smooth.
    """
    a1, a2 = alpha.components
    c1, c2 = center
    lo_t = -0.5 * math.pi if r <= c1 else math.asin(-c1 / r)
    breaks = {lo_t, 0.5 * math.pi}
    if c2 < r:
        # chord r*cos(theta) crosses x_2 = c_2: kink in the clipped measure
        tb = math.acos(c2 / r)
        if lo_t < tb:
            breaks.add(tb)
        if lo_t < -tb:
            breaks.add(-tb)
    edges = sorted(breaks)
    rule = gauss_legendre_rule(order)
    total = 0.0
    for ta, tb in zip(edges[:-1], edges[1:]):
        theta = 0.5 * (tb - ta) * rule.nodes + 0.5 * (ta + tb)
        w = 0.5 * (tb - ta) * rule.weights
        x1 = c1 + r * np.sin(theta)
        half = r * np.cos(theta)
        inner = _mu_interval(a2, c2 - half, c2 + half)
        dens = x1 ** (2.0 * a1 + 1.0) * r * np.cos(theta)
        total += float(np.sum(w * dens * inner))
    return total


def mu_ball(alpha, center, r: float, order: int = 96) -> float:
    """mu_alpha(B(center, r) intersected with R_+^d).

    d = 1 uses the exact interval formula; d = 2 slices the disk; higher
    dimensions recurse over the last coordinate.
    """
    alpha = as_alpha(alpha)
    center = np.asarray(center, dtype=float)
    if center.shape != (alpha.d,):
        raise ValueError(f"center must have {alpha.d} coordinates")
    if not np.all(np.isfinite(center) & (center > 0)):
        raise ValueError("center must be finite and lie in the open positive orthant")
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"radius must be finite and positive, got {r}")
    if alpha.d == 1:
        return float(_mu_interval(alpha.components[0], center[0] - r, center[0] + r))
    if alpha.d == 2:
        return _mu_disk_2d(alpha, center, r, order)
    # slice over the last coordinate; each slice is a (d-1)-ball
    a_last = alpha.components[-1]
    sub = AlphaParam(alpha.components[:-1])
    c_last = center[-1]
    lo_t = -0.5 * math.pi if r <= c_last else math.asin(-c_last / r)
    rule = gauss_legendre_rule(order)
    theta = 0.5 * (0.5 * math.pi - lo_t) * rule.nodes + 0.5 * (0.5 * math.pi + lo_t)
    w = 0.5 * (0.5 * math.pi - lo_t) * rule.weights
    total = 0.0
    for th, wq in zip(theta, w):
        xl = c_last + r * math.sin(th)
        rho = r * math.cos(th)
        if rho <= 0 or xl <= 0:
            continue
        slice_mu = mu_ball(sub, center[:-1], rho, order=max(order // 2, 24))
        total += wq * xl ** (2.0 * a_last + 1.0) * r * math.cos(th) * slice_mu
    return float(total)


def doubling_ratio(alpha, center, r: float) -> float:
    """mu_alpha(B(x, 2r)) / mu_alpha(B(x, r))."""
    return mu_ball(alpha, center, 2.0 * r) / mu_ball(alpha, center, r)


def pi_alpha_nodes(alpha, order: int):
    """Per-coordinate nodes and weights realizing Pi_alpha as a finite sum.

    Coordinates with a_i > -1/2 carry a normalized Gauss-Jacobi rule;
    coordinates with a_i = -1/2 carry the two point masses at +-1.  Detection
    of the boundary case is by exact comparison: the measure changes type
    discontinuously there, so a tolerance band would misclassify.
    """
    alpha = as_alpha(alpha)
    if min(alpha.components) < -0.5:
        raise ValueError("Pi_alpha requires every component >= -1/2")
    nodes, weights = [], []
    for a in alpha.components:
        if a == -0.5:
            nodes.append(np.array([-1.0, 1.0]))
            weights.append(np.full(2, 1.0 / math.sqrt(2.0 * math.pi)))
        else:
            rule = gauss_jacobi_rule(order, a)
            norm = 1.0 / (math.sqrt(math.pi) * 2.0**a * math.gamma(a + 0.5))
            nodes.append(rule.nodes)
            weights.append(rule.weights * norm)
    return nodes, weights


def pi_alpha_integrate(alpha, f, order: int = 48) -> float:
    """Integral of f over [-1,1]^d against Pi_alpha.

    f is called with an (npoints, d) array and must return npoints values.
    """
    alpha = as_alpha(alpha)
    nodes, weights = pi_alpha_nodes(alpha, order)
    grids = np.meshgrid(*nodes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*weights, indexing="ij")
    w = np.ones_like(wgrids[0])
    for wg in wgrids:
        w = w * wg
    vals = np.asarray(f(pts), dtype=float).ravel()
    if vals.shape != (pts.shape[0],):
        raise ValueError("integrand must return one value per point")
    return float(np.sum(w.ravel() * vals))
