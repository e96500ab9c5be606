"""Scalar special functions and Gaussian quadrature rules.

Everything else in the package reduces to a handful of scalar primitives:
the scaled modified Bessel function i_nu(z) = z^(-nu) I_nu(z), through its
log-mantissa and ratio, and Gauss rules for the weights u^a e^(-u) on
(0, inf) and (1-s^2)^(a-1/2) on (-1, 1).  Every composite (panelled) and
tensor-product rule of the package is built here too.

The scaled Bessel form is used because the heat kernel only ever needs the
combination (x y)^(-nu) I_nu(x y / sinh 2t), which is entire in the argument;
the raw I_nu would introduce a spurious 0 * inf ambiguity at the origin.

scipy.special is imported where a function first needs it, not with the
package: the closed forms at orders -1/2 and 1/2 and the Legendre rules need
none of it.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

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
# at orders -1/2 and 1/2 the Bessel factor is elementary; below this argument
# the ratio (coth z - 1/z)/z cancels and its continued fraction takes over,
# whose truncation at this depth is below 1e-24 relative at the switch
_HALF_CF_SWITCH = 2.0
_HALF_CF_DEPTH = 14
_LOG_SQRT_2_OVER_PI = 0.5 * math.log(2.0 / math.pi)


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
        # written so that a NaN fails each check
        if not (np.all(np.isfinite(self.nodes)) and np.all(np.diff(self.nodes) > 0)):
            raise ValueError("nodes must be finite and strictly increasing")
        if not np.all((self.weights > 0) & (self.weights < np.inf)):
            raise ValueError("weights must be finite and positive")


def _log_series_start(nu: float) -> float:
    """log i_nu(0) = -log(2^nu Gamma(nu+1)), of the first term of the ascending series."""
    from scipy.special import gammaln

    return -nu * math.log(2.0) - gammaln(nu + 1.0)


def _bessel_series_pair(nu: float, z: np.ndarray) -> np.ndarray:
    """Ascending series of i_nu and i_(nu+1) at 1-d z, summed side by side
    relative to i_nu(0), whose log is _log_series_start(nu).

    i_nu(z) = 2^-nu sum_m (z^2/4)^m / (m! Gamma(m+nu+1)); row 0 of the
    result is i_nu / i_nu(0), row 1 is i_(nu+1) / i_nu(0), which starts at
    1/(2 nu + 2).  The sums stop once every term falls below 1e-18 of its
    sum, far below half an ulp: past that point further terms add exactly 0
    to a sum, so the result does not depend on which other arguments share
    the call.  A term's share of its sum falls later the larger w = z^2/4,
    so each term reads only the largest argument's pair of terms, and tests
    every argument only once those have fallen (a NaN argument is the
    largest, and never falls).  A series that has not stopped within
    _SERIES_TERMS terms raises.
    """
    w = z * z / 4.0
    term = np.repeat([[1.0], [0.5 / (nu + 1.0)]], w.size, axis=1)
    acc = term.copy()
    if not w.size:
        return acc
    last = int(np.argmax(w))
    # term m + 1 is term m times w / ((m + 1)(m + nu + 1)), and (m + nu + 2)
    # in the row of i_(nu+1)
    m = np.arange(float(_SERIES_TERMS))[:, None, None]
    divisors = (m + 1.0) * (m + np.array([[nu], [nu + 1.0]]) + 1.0)
    for divisor in divisors:
        term *= w
        term /= divisor
        acc += term
        if (term[0, last] <= 1e-18 * acc[0, last] and term[1, last] <= 1e-18 * acc[1, last]
                and np.all(term <= 1e-18 * acc)):
            return acc
    raise FloatingPointError(f"power series of the Bessel factor of order {nu} did not converge "
                             f"in {_SERIES_TERMS} terms at arguments up to {z.max():.6g}")


def _half_order_pair(nu: float, z: np.ndarray):
    """log(e^-z i_nu(z)) and i_(nu+1)/i_nu at nu = -1/2 or 1/2 and 1-d z, in closed form.

    i_(-1/2)(z) = sqrt(2/pi) cosh z and i_(1/2)(z) = sqrt(2/pi) sinh(z) / z
    (DLMF 10.39.1), so the ratios are tanh(z)/z and (coth z - 1/z)/z, with
    limits 1 and 1/3 at z = 0.  Below _HALF_CF_SWITCH the second comes from
    1/(3 + z^2/(5 + z^2/(7 + ...))), which has only positive terms.
    """
    nonzero = z != 0  # NaN stays NaN
    with np.errstate(over="ignore"):  # -2z is -inf only where e^-2z is 0 anyway
        damp = np.exp(-2.0 * z) if nu < 0 else -np.expm1(-2.0 * z)
    if nu < 0:
        logm = np.log1p(damp) + (_LOG_SQRT_2_OVER_PI - math.log(2.0))
        return logm, np.divide(np.tanh(z), z, out=np.ones(z.shape), where=nonzero)
    # (1 - e^-2z)/(2z) as half of (1 - e^-2z)/z, which stays finite where 2z overflows
    mant = 0.5 * np.divide(damp, z, out=np.full(z.shape, 2.0), where=nonzero)
    logm = np.log(mant) + _LOG_SQRT_2_OVER_PI
    ratio = np.empty(z.shape)
    near = z < _HALF_CF_SWITCH
    w = z[near] ** 2
    cf = np.full(w.shape, 2.0 * _HALF_CF_DEPTH + 1.0)
    for k in range(_HALF_CF_DEPTH - 1, 0, -1):
        cf = (2.0 * k + 1.0) + w / cf
    ratio[near] = 1.0 / cf
    zf = z[~near]
    ratio[~near] = (1.0 / np.tanh(zf) - 1.0 / zf) / zf
    return logm, ratio


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
    1/(2 nu + 2) at z = 0 and ~ 1/z at infinity.

    At nu = -1/2 and 1/2 both are elementary and come in closed form at
    every z.  At other orders they come from the power series below
    BESSEL_SERIES_CUTOFF, summed per band of z so that small arguments do
    not wait for the slowest terms; above it from the exponentially scaled
    ive, and from BESSEL_HANKEL_CUTOFF on, where ive fails, from the Hankel
    expansion.  Where ive(nu + 1) leaves the normal range (large orders) the
    series serves those arguments too, and raises if it does not converge.
    Arrays of any shape are accepted; a scalar z gives two floats.
    """
    if nu <= -1:
        raise ValueError(f"order must exceed -1, got {nu}")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("argument must be >= 0")
    pair = _half_order_pair if nu in (-0.5, 0.5) else _general_order_pair
    logm, ratio = pair(nu, z.ravel())
    if z.ndim == 0:
        return float(logm[0]), float(ratio[0])
    return logm.reshape(z.shape), ratio.reshape(z.shape)


def _general_order_pair(nu: float, z: np.ndarray):
    """log_bessel_mantissa_ratio at 1-d z by regimes: series, ive and Hankel."""
    logm = np.empty(z.shape)
    ratio = np.empty(z.shape)
    large = (z >= BESSEL_SERIES_CUTOFF) & (z < BESSEL_HANKEL_CUTOFF)
    deep = np.zeros(z.shape, dtype=bool)
    if np.any(large):
        from scipy.special import ive

        zl = z[large]
        scaled, scaled1 = ive(nu, zl), ive(nu + 1.0, zl)
        # ive leaves the normal range from nu of about 290 at z = 20: there the
        # series serves, and large keeps only the entries ive serves
        keep = scaled1 >= _TINY
        deep[large] = ~keep
        large[large] = keep
        zl, scaled, scaled1 = zl[keep], scaled[keep], scaled1[keep]
        mant = scaled * zl ** (-nu)
        # at large orders the product leaves the normal range: there the logs are added
        logm[large] = np.where(mant < _TINY, np.log(scaled) - nu * np.log(zl),
                               np.log(np.maximum(mant, _TINY)))
        ratio[large] = scaled1 / (zl * scaled)
    edges = (0.0,) + _SERIES_BANDS
    for band in [(z >= lo) & (z < hi) for lo, hi in zip(edges, edges[1:])] + [deep]:
        if np.any(band):
            zb = z[band]
            mant, mant1 = _bessel_series_pair(nu, zb)
            logm[band] = np.log(mant) + _log_series_start(nu) - zb
            ratio[band] = mant1 / mant
    huge = ~(z < BESSEL_HANKEL_CUTOFF)  # NaN lands here too: every entry is written
    if np.any(huge):
        zh = z[huge]
        hankel = _hankel_sum(nu, zh)
        logm[huge] = np.log(hankel) - 0.5 * np.log(2.0 * math.pi * zh) - nu * np.log(zh)
        ratio[huge] = _hankel_sum(nu + 1.0, zh) / (zh * hankel)
    return logm, ratio


@lru_cache(maxsize=64)
def gauss_laguerre_rule(n: int, a: float = 0.0) -> QuadratureRule:
    """Gauss rule for the weight u^a e^(-u) on (0, inf), exact to degree 2n-1."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if a <= -1:
        raise ValueError(f"exponent must exceed -1, got {a}")
    from scipy.special import roots_genlaguerre

    # from n of about 200 the weights underflow or come back NaN, which QuadratureRule rejects
    with np.errstate(over="ignore", invalid="ignore"):
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
    from scipy.special import roots_jacobi

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
