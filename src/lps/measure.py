"""The weighted half-space (R_+^d, mu_alpha, |.|) and the product measure Pi_alpha.

mu_alpha has density x_1^(2a_1+1) ... x_d^(2a_d+1); it is doubling, so balls
and their measures are the basic geometric quantities for all kernel
estimates.  Pi_alpha is the tensor measure on [-1,1]^d with per-coordinate
density (1-s^2)^(a-1/2) / (sqrt(pi) 2^a Gamma(a+1/2)) for a > -1/2 and the
two-point mass (delta_-1 + delta_1)/sqrt(2 pi) in the limiting case a = -1/2.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .specfun import composite_legendre_rule, gauss_jacobi_rule, tensor_rule

__all__ = [
    "AlphaParam",
    "as_alpha",
    "as_points",
    "mu_box",
    "mu_ball",
    "pi_alpha_rules",
    "pi_alpha_integrate",
]

# radii per call of the ball slicing, which bounds its memory at any dimension
_SLICE_BATCH = 1 << 12
# nodes of the outermost slicing level of a ball
_BALL_ORDER = 96
_LOG_MAX_SCALE = -math.log(np.finfo(float).tiny)  # 1/s is a normal double for log s below


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

    def shifted(self, j: int) -> "AlphaParam":
        """alpha + e_j with 1-based coordinate j."""
        if not 1 <= j <= self.d:
            raise ValueError(f"coordinate j must be in 1..{self.d}, got {j}")
        comps = list(self.components)
        comps[j - 1] += 1.0
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


def as_points(d: int, x):
    """x as an (n, d) array of finite points, and whether it was a single point.

    A single point has d coordinates; in d = 1 a 1-d array (or a scalar)
    lists points.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    single = x.shape == (d,)
    if x.ndim == 1 and d == 1:
        x = x[:, None]
    elif single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"points must form an (n, {d}) array")
    if not np.isfinite(x).all():
        raise ValueError("points must be finite")
    return x, single


def mu_box(alpha, lo, hi) -> float:
    """mu_alpha of the box prod (lo_i, hi_i); exact product formula."""
    alpha = as_alpha(alpha)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != (alpha.d,) or hi.shape != (alpha.d,):
        raise ValueError(f"box corners must have {alpha.d} coordinates")
    if np.any(lo < 0) or np.any(hi <= lo):
        raise ValueError("box requires 0 <= lo_i < hi_i")
    return float(np.prod(_mu_interval(alpha.array(), lo, hi)))


def _mu_interval(a, lo, hi):
    """1-d mu_a of (lo, hi) with lo clipped at 0; vectorized, in a as well."""
    p = 2.0 * a + 2.0
    lo = np.maximum(lo, 0.0)
    try:
        with np.errstate(over="raise"):
            return (np.maximum(hi, 0.0) ** p - lo**p) / p
    except FloatingPointError as exc:  # the front end reports it as a failed evaluation
        a, hi = np.broadcast_arrays(a, hi)
        with np.errstate(over="ignore"):  # the first interval whose power overflows
            k = np.argmax(np.isinf(np.maximum(hi, 0.0) ** (2.0 * a + 2.0)))
        raise FloatingPointError(
            f"mu_a of (0, {hi.flat[k]:.6g}) overflows at a = {a.flat[k]:g}") from exc


def _face_distances(rest: np.ndarray) -> np.ndarray:
    """Distances from each row of slice centres (k, n) to the faces {x_j = 0 for
    j in S} of the orthant, sorted per row: (k, 2^n - 1), coinciding faces kept."""
    combos = [s for k in range(1, rest.shape[1] + 1)
              for s in itertools.combinations(range(rest.shape[1]), k)]
    return np.array([sorted(math.hypot(*(row[i] for i in s)) for s in combos)
                     for row in rest.tolist()]).reshape(len(rest), len(combos))


def _sliced_measure(a: tuple, centers: np.ndarray, faces, owner: np.ndarray,
                    radii: np.ndarray, order: int) -> np.ndarray:
    """mu_a(B(c, r) intersected with R_+^d) for every radius r of the (s, R)
    radii, where row i's radii share the centre c = centers[owner[i]], owner
    is sorted, and faces[k] holds _face_distances(centers[:, k + 1:]) for each
    level k < d - 1.

    The last coordinate's interval measure is exact.  Above it the ball is
    sliced over the first coordinate x_1 = c_1 + r sin(theta) (the
    substitution removes the square-root behaviour of the chord at the rim),
    and each slice is a ball of radius r cos(theta) about the centre's other
    coordinates.  The slice measure has a kink wherever that radius crosses
    the distance to a face of the orthant, so theta is split there and where
    x_1 = 0 clips the ball.  A panel end may still carry a power singularity,
    x_1^(2a_1+1) at the clip or (rho - D)^(2a_j + 5/2) where a disk slice
    reaches a face at distance D, so levels whose slices have one or two
    dimensions use smooth_ends panels of at least 32 nodes and higher levels
    plain panels of at least 16, sharing order.  A ball's value does not
    depend on the batch: each step is elementwise or sums the ball's own
    panels.
    """
    # one centre for every row: its coordinates stay scalars, which numpy
    # broadcasts faster than a column over the slices' nodes
    one = owner[0] == owner[-1]
    if len(a) == 1:
        c = centers[owner[0], 0] if one else centers[owner, :1]
        return _mu_interval(a[0], c - radii, c + radii)
    step = max(1, _SLICE_BATCH // radii.shape[1])
    if radii.shape[0] > step:  # bounds the memory of the levels below
        return np.concatenate([_sliced_measure(a, centers, faces, owner[i:i + step],
                                               radii[i:i + step], order)
                               for i in range(0, radii.shape[0], step)])
    owner = np.repeat(owner, radii.shape[1])
    radii = radii.ravel()
    c1, face = (centers[owner[0], 0], faces[0][owner[0]]) if one else (
        centers[owner, 0], faces[0][owner])
    ratio = face / radii[:, None]
    # math's asin and acos: numpy's SIMD ones differ in the last bit, and reports are byte-exact
    lo = np.fromiter(map(math.asin, (-np.minimum(c1 / radii, 1.0)).tolist()), float)[:, None]
    kinks = np.fromiter(map(math.acos, np.minimum(ratio, 1.0).ravel().tolist()), float)
    kinks = kinks.reshape(ratio.shape)
    # a kink at +-acos(ratio) for each face the ball reaches; faces whose
    # distances or angles coincide in floating point (or angles with pi/2)
    # give one kink
    inside = (ratio < 1.0) & (kinks < 0.5 * math.pi)
    inside[:, 1:] &= kinks[:, 1:] < kinks[:, :-1]
    # per row: lo, the kinks above lo (the others moved onto lo) and pi/2
    edges = np.concatenate([lo, np.where(inside & (-kinks > lo), -kinks, lo),
                            np.where(inside, kinks, lo), np.full_like(lo, 0.5 * math.pi)], axis=1)
    edges.sort(axis=1)
    n_edges = 1 + (edges > lo).sum(axis=1)
    out = np.empty(radii.shape)
    # radii with as many edges share one panel layout and one rule call
    smooth = len(a) <= 3
    for n in set(n_edges.tolist()):
        sel = n_edges == n
        per_panel = max(order // (n - 1), 32 if smooth else 16)
        theta, w = composite_legendre_rule(edges[sel, -n:], per_panel, smooth_ends=smooth)
        r = radii[sel, None, None]
        cos = np.cos(theta)
        # a node next to the clip angle lo can round x_1 a little below 0,
        # which a fractional power would turn into NaN
        x1 = np.maximum((c1 if one else c1[sel, None, None]) + r * np.sin(theta), 0.0)
        rho = (r * cos).reshape(len(r), -1)
        # a slice of two or more dimensions is sliced again about one centre
        # at a time, as fast as a single ball; a 1-d one in one call
        cuts = [0, len(rho)]
        if len(a) > 2 and not one:
            cuts[1:1] = (np.flatnonzero(np.diff(owner[sel])) + 1).tolist()
        inner = [_sliced_measure(a[1:], centers[:, 1:], faces[1:], owner[sel][i:j], rho[i:j],
                                 max(order // 2, 24)) for i, j in zip(cuts, cuts[1:])]
        inner = inner[0] if len(inner) == 1 else np.concatenate(inner)
        dens = x1 ** (2.0 * a[0] + 1.0) * r * cos
        panels = (w * dens * inner.reshape(theta.shape)).sum(axis=-1)
        out[sel] = panels.cumsum(axis=-1)[:, -1]  # the panel sums added in order
    return out


def _ball_measures(alpha, centers, radii) -> np.ndarray:
    """mu_alpha(B(c, r) intersected with R_+^d) for each centre row c of the
    (m, d) centers and its radius r of the (m,) radii.

    One _sliced_measure call serves all balls of every d.  Its last level is
    the exact interval formula; each level above it shares its order among
    its panels, with at least 32 nodes per panel where its slices have one or
    two dimensions and 16 where they have more; the outermost level's order
    is _BALL_ORDER, and a level of order o passes max(o // 2, 24) to the one
    below.
    """
    alpha = as_alpha(alpha)
    centers, _ = as_points(alpha.d, centers)
    radii = np.asarray(radii, dtype=float)
    center_ok = (centers > 0).all(axis=1)
    bad = np.flatnonzero(~(center_ok & np.isfinite(radii) & (radii > 0)))
    if bad.size:  # the first bad ball, with the check that fails it
        p = bad[0]
        if not center_ok[p]:
            raise ValueError("the center point must lie in the open positive orthant")
        raise ValueError(f"radius must be finite and positive, got {radii[p]}")
    if not radii.size:
        return np.empty(0)
    # each centre's faces at every level, once for all of its slices
    faces = [_face_distances(centers[:, k:]) for k in range(1, alpha.d)]
    return _sliced_measure(alpha.components, centers, faces, np.arange(len(radii)),
                           radii[:, None], _BALL_ORDER).ravel()


def mu_ball(alpha, center, r: float) -> float:
    """mu_alpha(B(center, r) intersected with R_+^d): the one-ball call of
    _ball_measures, whose routes and orders it shares."""
    alpha = as_alpha(alpha)
    center, single = as_points(alpha.d, center)
    if not single:
        raise ValueError(f"the center must be one point with {alpha.d} coordinates")
    return float(_ball_measures(alpha, center, [r])[0])


def pi_alpha_rules(alpha, order: int) -> list:
    """One (nodes, weights) rule per coordinate for the factors of Pi_alpha on [-1, 1].

    A coordinate with a_i = -1/2, detected by exact comparison since the
    measure changes type there, carries the two point masses at +-1; any
    other a normalized Gauss-Jacobi rule of order nodes, whose normalisation
    1/(sqrt(pi) 2^a Gamma(a + 1/2)) must be a normal double (a up to about 150.2).
    """
    alpha = as_alpha(alpha)
    if min(alpha.components) < -0.5:
        raise ValueError("Pi_alpha requires every component >= -1/2")
    rules = []
    for a in alpha.components:
        if a == -0.5:
            rules.append((np.array([-1.0, 1.0]), np.full(2, 1.0 / math.sqrt(2.0 * math.pi))))
        elif math.lgamma(a + 0.5) + a * math.log(2.0) + 0.5 * math.log(math.pi) >= _LOG_MAX_SCALE:
            raise ValueError(f"the normalisation of Pi_alpha leaves the normal doubles at a = {a}")
        else:
            rule = gauss_jacobi_rule(order, a)
            norm = 1.0 / (math.sqrt(math.pi) * 2.0**a * math.gamma(a + 0.5))
            rules.append((rule.nodes, rule.weights * norm))
    return rules


def pi_alpha_integrate(alpha, f, order: int = 48) -> float:
    """Integral of f over [-1,1]^d against Pi_alpha, on the tensor rule of pi_alpha_rules.

    f is called with an (npoints, d) array and must return npoints values.
    """
    pts, w = tensor_rule(*zip(*pi_alpha_rules(alpha, order)))
    vals = np.asarray(f(pts), dtype=float).ravel()
    if vals.shape != (pts.shape[0],):
        raise ValueError("integrand must return one value per point")
    return float(np.sum(w * vals))
