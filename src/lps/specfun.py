"""Scalar special functions and Gaussian quadrature rules.

Everything else in the package reduces to a handful of scalar primitives:
the scaled modified Bessel function i_nu(z) = z^(-nu) I_nu(z), through its
log-mantissa and ratio, and Gauss rules for the weights u^a e^(-u) on
(0, inf) and (1-s^2)^(a-1/2) on (-1, 1).  Every composite (panelled) and
tensor-product rule of the package is built here too.

The scaled Bessel form is used because the heat kernel only ever needs the
combination (x y)^(-nu) I_nu(x y / sinh 2t), which is entire in the argument;
the raw I_nu would introduce a spurious 0 * inf ambiguity at the origin.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from scipy.special import gammaln, ive, roots_genlaguerre, roots_jacobi

__all__ = [
    "QuadratureRule",
    "log_bessel_mantissa_ratio",
    "gauss_laguerre_rule",
    "gauss_jacobi_rule",
    "gauss_legendre_rule",
    "composite_legendre_rule",
    "tensor_rule",
]

# Power series below this argument, exponentially scaled regime above.
# Near z = 20 the series still converges fast (positive terms, no
# cancellation) while e^z is far from overflow, so both regimes are safe
# on their own side of the switch.
BESSEL_SERIES_CUTOFF = 20.0
_SERIES_TERMS = 80
# the series regime is summed per band; each band stops on its own terms
_SERIES_BANDS = (1.0, 4.0, 10.0, BESSEL_SERIES_CUTOFF)
# scipy's ive returns NaN above 2^30 - 1/2; the Hankel expansion takes over
# from here, where each of its terms is below 1e-6 of the last for orders up to 40
BESSEL_HANKEL_CUTOFF = 2.0**30 - 1.0
_HANKEL_TERMS = 20
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights of a Gauss rule on its canonical interval."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # read-only copies: cached rules are shared by every caller
        for name in ("nodes", "weights"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.nodes.ndim != 1 or self.nodes.shape != self.weights.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")


def _log_series_start(nu: float) -> float:
    """log i_nu(0) = -log(2^nu Gamma(nu+1)), of the first term of the ascending series."""
    return -nu * math.log(2.0) - gammaln(nu + 1.0)


def _bessel_series_pair(nu: float, z: np.ndarray):
    """Ascending series of i_nu and i_(nu+1) at 1-d z, summed side by side.

    i_nu(z) = 2^-nu sum_m (z^2/4)^m / (m! Gamma(m+nu+1)); row 0 of the
    result is i_nu, row 1 is i_(nu+1).  The sums stop once every term falls
    below 1e-18 of its sum, far below half an ulp: past that point further
    terms no longer change a sum, so the result does not depend on which
    other arguments share the call.  Returns the sums and the log of their
    scale: log i_nu(0) where i_(nu+1)(0) underflows (nu above 148.9), else 0.
    """
    orders = np.array([[nu], [nu + 1.0]])
    w = z * z / 4.0
    log_scale = 0.0
    start = [[math.exp(_log_series_start(nu))], [math.exp(_log_series_start(nu + 1.0))]]
    if start[1][0] < _TINY:  # i_(nu+1)(0) underflows: both series relative to i_nu(0)
        log_scale, start = _log_series_start(nu), [[1.0], [0.5 / (nu + 1.0)]]
    term = np.repeat(start, w.size, axis=1)
    acc = term.copy()
    for m in range(_SERIES_TERMS):
        term = term * w / ((m + 1.0) * (m + orders + 1.0))
        acc += term
        if np.all(term <= 1e-18 * acc):
            break
    return acc, log_scale


def _hankel_sum(nu: float, z: np.ndarray) -> np.ndarray:
    """sqrt(2 pi z) e^-z I_nu(z) for large z: sum_k (-1)^k a_k(nu) / z^k (DLMF 10.40.1).

    Each term is the last times -(4 nu^2 - (2k-1)^2) / (8 k z), so at
    z near 2^30 and moderate nu the sum stops after a few terms, once every
    term is below 1e-18 of its sum.
    """
    mu = 4.0 * nu * nu
    term = np.ones_like(z)
    acc = term.copy()
    for k in range(1, _HANKEL_TERMS + 1):
        term = -term * (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * z)
        acc += term
        if np.all(np.abs(term) <= 1e-18 * acc):
            break
    return acc


def log_bessel_mantissa_ratio(nu: float, z):
    """log(e^-z i_nu(z)) and i_(nu+1)(z) / i_nu(z) in one pass, for nu > -1.

    The log-mantissa is the exponentially damped part of the Bessel factor,
    for consumers that absorb the e^z growth into a Gaussian exponent.  The
    ratio is the log-derivative of i_nu over z: positive, smooth,
    1/(2 nu + 2) at z = 0 and ~ 1/z at infinity.  Below the cutoff both come
    from the power series, summed per band of z so that small arguments do
    not wait for the slowest terms; above it from the exponentially scaled
    ive, and from BESSEL_HANKEL_CUTOFF on, where ive fails, from the Hankel
    expansion.
    Arrays of any shape are accepted; a scalar z gives two floats.
    """
    if nu <= -1:
        raise ValueError(f"order must exceed -1, got {nu}")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("argument must be >= 0")
    logm = np.empty(z.shape)
    ratio = np.empty(z.shape)
    lo = 0.0
    for hi in _SERIES_BANDS:
        band = (z >= lo) & (z < hi)
        lo = hi
        if np.any(band):
            zb = z[band]
            (mant, mant1), log_scale = _bessel_series_pair(nu, zb)
            logm[band] = np.log(mant) + log_scale - zb
            ratio[band] = mant1 / mant
    large = (z >= BESSEL_SERIES_CUTOFF) & (z < BESSEL_HANKEL_CUTOFF)
    if np.any(large):
        zl = z[large]
        scaled = ive(nu, zl)
        mant = scaled * zl ** (-nu)
        # at large orders the product leaves the normal range: there the logs are added
        logm[large] = np.where(mant < _TINY, np.log(scaled) - nu * np.log(zl),
                               np.log(np.maximum(mant, _TINY)))
        ratio[large] = ive(nu + 1.0, zl) / (zl * scaled)
    huge = ~(z < BESSEL_HANKEL_CUTOFF)  # NaN lands here too: every entry is written
    if np.any(huge):
        zh = z[huge]
        hankel = _hankel_sum(nu, zh)
        logm[huge] = np.log(hankel) - 0.5 * np.log(2.0 * math.pi * zh) - nu * np.log(zh)
        ratio[huge] = _hankel_sum(nu + 1.0, zh) / (zh * hankel)
    if z.ndim == 0:
        return float(logm), float(ratio)
    return logm, ratio


@lru_cache(maxsize=64)
def gauss_laguerre_rule(n: int, a: float = 0.0) -> QuadratureRule:
    """Gauss rule for the weight u^a e^(-u) on (0, inf), exact to degree 2n-1."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if a <= -1:
        raise ValueError(f"exponent must exceed -1, got {a}")
    nodes, weights = roots_genlaguerre(n, a)
    return QuadratureRule(nodes, weights)


@lru_cache(maxsize=64)
def gauss_jacobi_rule(n: int, a: float) -> QuadratureRule:
    """Gauss rule for the weight (1-s^2)^(a-1/2) on (-1, 1), exact to degree 2n-1.

    The boundary case a = -1/2 is a pair of point masses, not a quadrature
    weight, and is handled by the measure layer instead.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if a <= -0.5:
        raise ValueError(f"exponent must exceed -1/2, got {a}")
    nodes, weights = roots_jacobi(n, a - 0.5, a - 0.5)
    return QuadratureRule(nodes, weights)


@lru_cache(maxsize=64)
def gauss_legendre_rule(n: int) -> QuadratureRule:
    """Gauss-Legendre rule on (-1, 1)."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return QuadratureRule(nodes, weights)


def composite_legendre_rule(edges, n: int, smooth_ends: bool = False):
    """Gauss-Legendre rule of order n, exact to degree 2n-1, on each panel
    edges[..., k]..edges[..., k+1]: nodes and weights of shape
    edges.shape[:-1] + (panels, n), one partition per row of edges.

    smooth_ends first maps u -> (15u - 10u^3 + 3u^5)/8, turning a factor
    (x - edge)^b at a panel end into (1 -+ u)^(3b+2) times a smooth function;
    degree k then stays exact while 5k + 4 <= 2n - 1.
    """
    edges = np.atleast_1d(np.asarray(edges, dtype=float))
    width = edges[..., 1:] - edges[..., :-1]
    if edges.shape[-1] < 2 or not (np.isfinite(edges).all() and (width > 0).all()):
        raise ValueError("edges must be finite and strictly increasing, two or more per partition")
    rule = gauss_legendre_rule(n)
    u, wu = rule.nodes, rule.weights
    if smooth_ends:
        u, wu = u * (1.875 - u * u * (1.25 - 0.375 * u * u)), 1.875 * wu * (1.0 - u * u) ** 2
    half = 0.5 * width[..., None]
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])[..., None]
    return half * u + mid, half * wu


def tensor_rule(nodes, weights):
    """Tensor product of per-coordinate rules: (N, d) points and N weights,
    the last coordinate varying fastest, weights multiplied in coordinate order."""
    pts = np.stack([g.ravel() for g in np.meshgrid(*nodes, indexing="ij")], axis=-1)
    return pts, np.ravel(reduce(np.multiply.outer, weights))
