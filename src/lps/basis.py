"""Laguerre function systems and spectral operators on finite expansions.

The plain system l_k^alpha and the coordinate-differentiated systems
x_j l_(k-e_j)^(alpha+e_j) are orthonormal bases of L^2(d mu_alpha).  The
first-order operators

    delta_j   = d/dx_j + x_j
    delta_j^* = -d/dx_j + x_j - (2 a_j + 1)/x_j

map one system onto the other with the ladder factor -2 sqrt(k_j), and the
second-order operator they generate acts diagonally with eigenvalue
4|k| + 2|alpha| + 2d.  Everything here is exact per spectral mode, so finite
expansions give bit-meaningful identities.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .measure import AlphaParam, as_alpha
from .specfun import gauss_laguerre_rule, tensor_rule

__all__ = [
    "BasisFamily",
    "PLAIN",
    "differentiated",
    "Expansion",
    "eigenvalue",
    "ell",
    "ell_table",
    "ell_batch",
    "analyze",
    "synthesize",
    "delta_apply",
    "delta_star_apply",
    "laguerre_operator_apply",
    "riesz_transform",
]


@dataclass(frozen=True)
class BasisFamily:
    """Either the plain system or the j-differentiated system (1-based j)."""

    kind: str
    j: int = 0

    def __post_init__(self):
        if self.kind not in ("plain", "differentiated"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "differentiated" and self.j < 1:
            raise ValueError("differentiated family needs a coordinate j >= 1")

    @property
    def is_plain(self) -> bool:
        return self.kind == "plain"

    @property
    def shifts(self) -> tuple:
        """The shift coordinates of the family for ell_batch."""
        return () if self.is_plain else (self.j,)


PLAIN = BasisFamily("plain")


def differentiated(j: int) -> BasisFamily:
    return BasisFamily("differentiated", j)


def _as_multi_index(k, d: int) -> tuple:
    if np.isscalar(k):
        k = (k,)
    k = tuple(int(v) for v in k)
    if len(k) != d:
        raise ValueError(f"multi-index must have {d} entries, got {k}")
    if any(v < 0 for v in k):
        raise ValueError(f"multi-index entries must be nonnegative, got {k}")
    return k


@dataclass
class Expansion:
    """Finite coefficient collection over one of the basis families."""

    alpha: AlphaParam
    family: BasisFamily
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        self.alpha = as_alpha(self.alpha)
        if not self.family.is_plain and self.family.j > self.alpha.d:
            raise ValueError("family coordinate exceeds the dimension")
        clean = {}
        for k, c in self.coeffs.items():
            k = _as_multi_index(k, self.alpha.d)
            if not self.family.is_plain and k[self.family.j - 1] == 0:
                # l_(k-e_j) = 0 by convention when k_j = 0
                if c != 0.0:
                    raise ValueError(f"index {k} is null in the differentiated family")
                continue
            clean[k] = float(c)
        self.coeffs = clean

    @property
    def d(self) -> int:
        return self.alpha.d

    def l2_norm(self) -> float:
        return float(np.sqrt(sum(c * c for c in self.coeffs.values())))


def eigenvalue(alpha, n: int) -> float:
    """Eigenvalue 4n + 2|alpha| + 2d of the level-n eigenspace."""
    alpha = as_alpha(alpha)
    return 4.0 * n + 2.0 * alpha.total + 2.0 * alpha.d


def _ell_table_1d(a: float, kmax: int, xi: np.ndarray) -> np.ndarray:
    """Table of the orthonormal 1-d functions l_m^a(xi), m = 0..kmax.

    Runs the three-term recurrence directly in the normalized, Gaussian-damped
    form, so intermediate values stay O(1) even at large quadrature nodes.
    """
    u = xi * xi
    out = np.empty((kmax + 1,) + u.shape)
    out[0] = np.exp(0.5 * (np.log(2.0) - gammaln(a + 1.0)) - 0.5 * u)
    if kmax == 0:
        return out
    out[1] = (1.0 + a - u) / np.sqrt(1.0 + a) * out[0]
    for m in range(1, kmax):
        out[m + 1] = (
            (2 * m + 1 + a - u) * out[m] - np.sqrt(m * (m + a)) * out[m - 1]
        ) / np.sqrt((m + 1) * (m + 1 + a))
    return out


def _as_points(alpha: AlphaParam, x):
    """x as an (n, d) array of points, and whether it was a single point.

    A single point has d coordinates; in d = 1 a 1-d array (or a scalar)
    lists points.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    single = x.shape == (alpha.d,)
    if x.ndim == 1 and alpha.d == 1:
        x = x[:, None]
    elif single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != alpha.d:
        raise ValueError(f"points must form an (n, {alpha.d}) array")
    return x, single


def ell_table(alpha, kmax: int, x) -> list:
    """Per-coordinate tables [d arrays of shape (kmax+1, npoints)] at points x."""
    alpha = as_alpha(alpha)
    x, _ = _as_points(alpha, x)
    return [_ell_table_1d(a, kmax, x[:, i]) for i, a in enumerate(alpha.components)]


def ell_batch(alpha, shifts: tuple, indices, x) -> np.ndarray:
    """Matrix (len(indices), npoints) of prod_c x_c l_(k - sum_c e_c)^(alpha + sum_c e_c)(x).

    shifts lists 1-based coordinates c: () gives the plain system, (j,) the
    j-differentiated one and (i, j) the output of the modified horizontal
    kinds.  A row whose shifted index has a negative entry is zero.  Each
    coordinate gets one table, as deep as its deepest shifted index, shared
    by all rows; a row is the product of its table rows in coordinate order,
    times the prefactor prod_c x_c.
    """
    alpha = as_alpha(alpha)
    pts, _ = _as_points(alpha, x)
    shifted = alpha
    for c in shifts:
        shifted = shifted.shifted(c)
    down = np.array([_as_multi_index(k, alpha.d) for k in indices], dtype=np.intp)
    down = down.reshape(-1, alpha.d)
    for c in shifts:
        down[:, c - 1] -= 1
    live = np.all(down >= 0, axis=1)
    out = np.zeros((len(down), pts.shape[0]))
    rows = down[live]
    if len(rows) == 0:
        return out
    val = np.ones((len(rows), pts.shape[0]))
    for c, a in enumerate(shifted.components):
        val *= _ell_table_1d(a, int(rows[:, c].max()), pts[:, c])[rows[:, c]]
    if shifts:
        prefactor = pts[:, shifts[0] - 1]
        for c in shifts[1:]:
            prefactor = prefactor * pts[:, c - 1]
        val *= prefactor
    out[live] = val
    return out


def ell(alpha, k, x):
    """Laguerre function l_k^alpha(x); tensor product over coordinates.

    x may be a single point (d coordinates) or an (n, d) array of points.
    """
    alpha = as_alpha(alpha)
    pts, single = _as_points(alpha, x)
    val = ell_batch(alpha, (), [k], pts)[0]
    return float(val[0]) if single else val


@lru_cache(maxsize=4)
def _quad_grid(alpha: AlphaParam, order: int):
    """Tensor quadrature for d mu_alpha built from u = x^2 Gauss-Laguerre rules.

    Returns points (n^d, d) and weights absorbing the e^u correction, so that
    integral f d mu_alpha ~= sum w * f(points) for f with Gaussian decay.
    Both arrays are read-only: every caller with equal arguments shares them.
    """
    xs, ws = [], []
    for a in alpha.components:
        rule = gauss_laguerre_rule(order, a)
        xs.append(np.sqrt(rule.nodes))
        with np.errstate(divide="ignore"):
            logw = np.where(rule.weights > 0, np.log(rule.weights), -np.inf)
        ws.append(0.5 * np.exp(logw + rule.nodes))
    pts, w = tensor_rule(xs, ws)
    pts.flags.writeable = False
    w.flags.writeable = False
    return pts, w


def _family_indices(family: BasisFamily, d: int, cutoff: int):
    """All admissible multi-indices with |k| <= cutoff."""
    idx = [()]
    for _ in range(d):
        idx = [k + (m,) for k in idx for m in range(cutoff + 1)]
    idx = [k for k in idx if sum(k) <= cutoff]
    if not family.is_plain:
        idx = [k for k in idx if k[family.j - 1] >= 1]
    return idx


def analyze(alpha, family: BasisFamily, f, cutoff: int, order: int = 64) -> Expansion:
    """Expansion coefficients <f, b_k> for all |k| <= cutoff by quadrature."""
    alpha = as_alpha(alpha)
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    pts, w = _quad_grid(alpha, order)
    wf = w * np.asarray(f(pts), dtype=float).ravel()
    idx = _family_indices(family, alpha.d, cutoff)
    vals = ell_batch(alpha, family.shifts, idx, pts)
    return Expansion(alpha, family, {k: float(np.sum(wf * v)) for k, v in zip(idx, vals)})


def synthesize(e: Expansion, x):
    """Pointwise value sum_k c_k b_k(x); x is one point or an (n, d) array."""
    pts, single = _as_points(e.alpha, x)
    out = np.zeros(pts.shape[0])
    for c, v in zip(e.coeffs.values(), ell_batch(e.alpha, e.family.shifts, list(e.coeffs), pts)):
        out += c * v
    return float(out[0]) if single else out


def _require_family(e: Expansion, want_plain: bool, op: str):
    if e.family.is_plain != want_plain:
        need = "plain" if want_plain else "differentiated"
        raise ValueError(f"{op} expects an expansion in the {need} family")


def delta_apply(e: Expansion, j: int) -> Expansion:
    """delta_j on a plain expansion: ladder factor -2 sqrt(k_j) into family j."""
    _require_family(e, True, "delta_apply")
    coeffs = {}
    for k, c in e.coeffs.items():
        if k[j - 1] >= 1:
            coeffs[k] = -2.0 * np.sqrt(k[j - 1]) * c
    return Expansion(e.alpha, differentiated(j), coeffs)


def delta_star_apply(e: Expansion, j: int) -> Expansion:
    """delta_j^* on a j-differentiated expansion, back into the plain family."""
    _require_family(e, False, "delta_star_apply")
    if e.family.j != j:
        raise ValueError(f"expansion lives in family {e.family.j}, not {j}")
    coeffs = {k: -2.0 * np.sqrt(k[j - 1]) * c for k, c in e.coeffs.items()}
    return Expansion(e.alpha, PLAIN, coeffs)


def laguerre_operator_apply(e: Expansion) -> Expansion:
    """Action of the Laguerre operator: multiply mode k by its eigenvalue."""
    _require_family(e, True, "laguerre_operator_apply")
    coeffs = {k: eigenvalue(e.alpha, sum(k)) * c for k, c in e.coeffs.items()}
    return Expansion(e.alpha, PLAIN, coeffs)


def riesz_transform(e: Expansion, j: int) -> Expansion:
    """Riesz transform delta_j L^(-1/2): factor -2 sqrt(k_j / lambda_|k|)."""
    _require_family(e, True, "riesz_transform")
    coeffs = {}
    for k, c in e.coeffs.items():
        if k[j - 1] >= 1:
            lam = eigenvalue(e.alpha, sum(k))
            coeffs[k] = -2.0 * np.sqrt(k[j - 1]) / np.sqrt(lam) * c
    return Expansion(e.alpha, differentiated(j), coeffs)
