"""Numerical verification suite for the standard kernel estimates.

The ten vector-valued kernels are scanned against the growth bound

    ||K(x,y)||_B <= C / mu_alpha(B(x, |y-x|))

and the two Lipschitz-type smoothness bounds carrying the extra factor
|x-x'|/|x-y| (respectively |y-y'|/|x-y|) under the half-distance constraint
|x-y| > 2|x-x'|.  No constants are asserted: the suite reports the ratio
kernel_norm * ball_measure (times the inverted smoothness factor) and checks
finiteness and stability under quadrature refinement.  The exact inequalities
behind the estimates, the Riesz transform intertwining identity, and the
closed profile of the ill-posed adjoint-derivative square function are
verified directly.
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gamma, gammaincc

from . import basis
from .basis import Expansion, PLAIN, delta_apply, differentiated, eigenvalue, ell, riesz_transform
from .kernels import PAIR_BLOCK, ZetaGrid, _kind_values
from .measure import as_alpha, mu_ball, pi_alpha_rule

__all__ = [
    "ESTIMATES",
    "EstimateColumns",
    "LemmaResult",
    "sample_pairs",
    "sample_perturbed",
    "ball_measures",
    "scan",
    "lemma_suite",
    "riesz_identity_check",
    "counterexample_profile",
    "random_expansion",
]


ESTIMATES = ("growth", "smooth_x", "smooth_y")


class EstimateColumns(NamedTuple):
    """One scanned estimate, one entry per pair."""

    kernel_norm: np.ndarray
    ratio: np.ndarray
    constraint_ok: np.ndarray


@dataclass
class LemmaResult:
    name: str
    passed: bool
    margin: float
    samples: int
    detail: str = ""


def sample_pairs(d: int, count: int, seed: int, lo: float = 0.05, hi: float = 10.0):
    """Log-uniform off-diagonal pairs in (lo, hi)^d; deterministic in the seed."""
    rng = np.random.default_rng(seed)
    shape = (count, d)
    x = np.exp(rng.uniform(math.log(lo), math.log(hi), shape))
    y = np.exp(rng.uniform(math.log(lo), math.log(hi), shape))
    coincide = np.all(x == y, axis=1)
    y[coincide] *= 1.0 + 1e-6
    return x, y


# draws of one perturbed point before giving up; a point of the open orthant
# accepts a draw with probability of about 2^-d or more
_MAX_DRAWS = 10_000


def sample_perturbed(x: np.ndarray, y: np.ndarray, seed: int):
    """Points x' with 0 < |x - x'| < |x - y|/2 and positive coordinates.

    A draw is accepted only if its rounded value keeps that promise.  A pair
    that is coincident or not finite has no such x' and is rejected with
    ValueError before any draw, as is a row whose _MAX_DRAWS draws all leave
    the open orthant or round outside the promise (|x - y| below the spacing
    of x's coordinates rounds every draw back to x).
    """
    rng = np.random.default_rng(seed)
    count, d = x.shape
    sep = np.linalg.norm(x - y, axis=1)
    frac = rng.uniform(0.05, 0.95, count)
    radius = 0.5 * sep * frac
    bad = np.flatnonzero(~(np.isfinite(radius) & (radius > 0)))
    if bad.size:
        p = bad[0]
        raise ValueError(f"pair {p} (x = {x[p]}, y = {y[p]}) is coincident or not finite: "
                         "it has no perturbed point")
    xp = np.empty_like(x)
    for p in range(count):
        # the separation as scan measures it, so its constraint holds for x'
        sep_p = np.linalg.norm(x[p] - y[p])
        for _ in range(_MAX_DRAWS):
            direction = rng.normal(size=d)
            direction /= np.linalg.norm(direction)
            cand = x[p] + radius[p] * direction
            if np.all(cand > 0) and 0.0 < 2.0 * np.linalg.norm(x[p] - cand) < sep_p:
                xp[p] = cand
                break
        else:
            raise ValueError(f"pair {p} (x = {x[p]}, y = {y[p]}): {_MAX_DRAWS} draws of a "
                             "perturbed point all left the open orthant or rounded outside "
                             "0 < |x - x'| < |x - y|/2")
    return xp


def _row_norms(vals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # per-row dot products: summation order, and hence the report bytes,
    # stay independent of how the pairs were batched
    sq = vals * vals
    return np.sqrt(np.array([np.dot(row, weights) for row in sq]))


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # one norm (a BLAS dot) per pair: a batched norm over axis 1 rounds
    # differently in the last bit, which would move the report bytes
    return np.array([np.linalg.norm(u - v) for u, v in zip(a, b)])


def ball_measures(alpha, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """mu_alpha(B(x, |x-y|)) for each pair, the normalizer of every estimate."""
    return np.array([mu_ball(alpha, c, float(r)) for c, r in zip(x, _distances(x, y))])


def scan(alpha, kinds, x, y, xp, yp, balls, grids, estimates=ESTIMATES) -> list:
    """Columns of the requested estimates over the pairs (x[p], y[p]).

    The result is indexed [k][g][estimate] for kinds[k] on grids[g].
    growth is ||K(x,y)|| * mu_alpha(B(x, |x-y|)); smooth_x (smooth_y)
    norms K(x,y) - K(x',y) (K(x,y) - K(x,y')), with the profiles subtracted
    nodewise on the shared zeta grid, and multiplies in the inverted factor
    |x-y|/|x-x'|, flagging the half-distance constraint |x-y| > 2|x-x'|.
    xp and yp are the perturbed points (None when their estimate is not
    requested) and balls the output of ball_measures on the same pairs.
    The pairs are taken PAIR_BLOCK at a time, with (x, y), (x', y) and
    (x, y') stacked into one batch, so each base's heat parts serve every
    kind and point set of a block; each kind's values are reduced to their
    norms before the next kind's are made.
    """
    pairs = {"growth": (x, y), "smooth_x": (xp, y), "smooth_y": (x, yp)}
    for est in estimates:
        if est not in pairs:
            raise ValueError(f"unknown estimate {est!r}, expected one of {ESTIMATES}")
        if any(p is None for p in pairs[est]):
            raise ValueError(f"{est} needs its perturbed points")
    # in a block's batch, the pairs of moved[m] follow those of (x, y) as set m + 1
    moved = [est for est in estimates if est != "growth"]
    norms = [[{est: [] for est in estimates} for _ in grids] for _ in kinds]
    for start in range(0, len(x), PAIR_BLOCK):
        s = slice(start, start + PAIR_BLOCK)
        rows = len(x[s])
        bx = np.vstack([x[s]] + [pairs[est][0][s] for est in moved])
        by = np.vstack([y[s]] + [pairs[est][1][s] for est in moved])
        for k, g, vals in _kind_values(alpha, kinds, bx, by, grids):
            w = grids[g].time_weights(kinds[k].measure_kind)
            for est in estimates:
                diff = vals[:rows]
                if est != "growth":
                    m = moved.index(est) + 1
                    diff = diff - vals[m * rows : (m + 1) * rows]
                norms[k][g][est].append(_row_norms(diff, w))
    sep = _distances(x, y)
    # |x - x'| and |y - y'|: the unperturbed point of each estimate and its perturbation
    shifts = {"smooth_x": (x, xp), "smooth_y": (y, yp)}
    dps = {est: _distances(*shifts[est]) for est in moved}
    out = [[{} for _ in grids] for _ in kinds]
    for k, g in np.ndindex(len(kinds), len(grids)):
        for est in estimates:
            col = np.concatenate(norms[k][g][est])
            if est == "growth":
                out[k][g][est] = EstimateColumns(col, col * balls, np.ones(col.shape, dtype=bool))
            else:
                dp = dps[est]
                out[k][g][est] = EstimateColumns(col, col * balls * sep / dp, sep > 2.0 * dp)
    return out


def _q_forms(x, y, s):
    cross = 2.0 * np.sum(x * y * s, axis=-1)
    sq = np.sum(x * x, axis=-1) + np.sum(y * y, axis=-1)
    return sq + cross, sq - cross


def _lemma_obs(rng, n, d):
    x = rng.uniform(0.01, 10.0, (n, d))
    y = rng.uniform(0.01, 10.0, (n, d))
    s = rng.uniform(-1.0, 1.0, (n, d))
    qp, qm = _q_forms(x, y, s)
    worst = -np.inf
    for j in range(d):
        for a, b in ((x, y), (y, x)):
            worst = max(worst, np.max(np.abs(a[:, j] + b[:, j] * s[:, j]) - np.sqrt(qp)))
            worst = max(worst, np.max(np.abs(a[:, j] - b[:, j] * s[:, j]) - np.sqrt(qm)))
    return worst


def _lemma_oq(rng, n):
    b = rng.uniform(0.0, 4.0, n)
    c = rng.uniform(0.05, 3.0, n)
    big_a = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
    q = rng.uniform(0.0, 60.0, n)
    lhs = q**b * np.exp(-c * big_a * q)
    base = 2.0 * b / (c * math.e)
    # base**b -> 1 as b -> 0; for subnormal b the base underflows to 0 first
    const = np.where(base > 0, base**b, 1.0)
    rhs = const * big_a ** (-b) * np.exp(-0.5 * c * big_a * q)
    return np.max(lhs - rhs * (1.0 + 1e-12))


def _lemma_lemat(rng, n, d):
    x = rng.uniform(0.01, 10.0, (n, d))
    y = rng.uniform(0.01, 10.0, (n, d))
    sep = np.linalg.norm(x - y, axis=1)
    direction = rng.normal(size=(n, d))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    xp = x + 0.5 * sep[:, None] * rng.uniform(0.0, 0.999, n)[:, None] * direction
    lam = rng.uniform(0.0, 1.0, n)[:, None]
    theta = lam * x + (1.0 - lam) * xp
    s = rng.uniform(-1.0, 1.0, (n, d))
    ok = np.all(xp > 0, axis=1)
    qp, qm = _q_forms(x[ok], y[ok], s[ok])
    tp, tm = _q_forms(theta[ok], y[ok], s[ok])
    return max(
        np.max((0.25 * qp - tp) / qp),
        np.max((tp - 4.0 * qp) / qp),
        np.max((0.25 * qm - tm) / np.maximum(qm, 1e-300)),
        np.max((tm - 4.0 * qm) / np.maximum(qm, 1e-300)),
    )


def _exact_lemma(name: str, margin, samples: int, detail: str = "") -> LemmaResult:
    """Passed when the margin, the worst violation, is <= 1e-10; plain types for JSON."""
    return LemmaResult(name, bool(margin <= 1e-10), float(margin), samples, detail)


def _time_integral(a: float, bigt: np.ndarray, grid: ZetaGrid) -> np.ndarray:
    """int_0^1 zeta^-a e^(-T/zeta) dzeta by quadrature on the grid, one value per T."""
    return (grid.zeta ** (-a) * np.exp(-bigt[:, None] / grid.zeta)) @ grid.wz


def _log_weight_integral(c: float, q: np.ndarray, grid: ZetaGrid) -> np.ndarray:
    """I(q) = int_0^1 2 atanh(zeta) zeta^-3 e^(-cq/zeta) dzeta by quadrature, one value per q."""
    return (2.0 * grid.t * grid.zeta ** (-3.0) * np.exp(-c * q[:, None] / grid.zeta)) @ grid.wz


def _fit_lem4(alpha, delta, kappa, order: int, x, y, balls) -> float:
    """Largest (x+y)^(2 delta) int q_+^expo dPi_(alpha+delta+kappa) times mu_alpha of the ball."""
    shifted = as_alpha([a + (dl + kp) for a, dl, kp in zip(alpha.components, delta, kappa)])
    expo = -(alpha.d + alpha.total + float(np.sum(delta)))
    pts, w = pi_alpha_rule(shifted, order)
    best = 0.0
    for p in range(x.shape[0]):
        xy = (x[p] + y[p]) ** (2.0 * np.asarray(delta))
        qp, _ = _q_forms(x[p][None, :], y[p][None, :], pts)
        val = float(np.prod(xy)) * float(np.sum(w * qp**expo))
        best = max(best, val * balls[p])
    return best


def lemma_suite(alpha, samples: int = 100000, seed: int = 99) -> list:
    """The inequalities behind the estimates, checked on seeded samples.

    Five lemmas are exact (see _exact_lemma).  Three draw `samples` points
    each; two check the grid quadrature of a time integral at 40 log-uniform
    draws per exponent a (T in [1e-3, 30]) or rate c (q in [1e-3, 100]):
    - u = 1/zeta: int_0^1 zeta^-a e^(-T/zeta) dzeta = T^(1-a) Gamma(a-1, T)
      (DLMF 8.2.2) < T^(1-a) Gamma(a-1).  The margin is the worst relative
      deviation from the closed form, the constant max_a Gamma(a-1).
    - 2 atanh(zeta) - 2 zeta = 2 sum_(k>=1) zeta^(2k+1)/(2k+1) >= 0 integrates
      against zeta^-3 to sum_k 2/((2k-1)(2k+1)) = 1.  With e^(-cq/zeta) <=
      e^(-cq) <= 1/(1 + cq/2), I(q) = int_0^1 2 atanh(zeta) zeta^-3 e^(-cq/zeta)
      obeys (2/c) e^(-cq) <= q I(q) <= (2/c + q) e^(-cq) <= 2/c.  The margin
      is the worst relative violation of that chain, the constant max_c 2/c.
    q_integral_vs_ball_measure is a constant fitted over 40 pairs, accepted
    when it moves < 5% from Pi_alpha rule order 24 to 48.
    """
    alpha = as_alpha(alpha)
    if not alpha.cz_eligible:
        raise ValueError("the lemma suite requires alpha in [-1/2, inf)^d")
    rng = np.random.default_rng(seed)
    d = alpha.d
    out = [
        _exact_lemma("bound_by_sqrt_q", _lemma_obs(rng, samples, d), samples),
        _exact_lemma("power_absorbs_exponential", _lemma_oq(rng, samples), samples),
        _exact_lemma("q_stable_under_halfway_shift", _lemma_lemat(rng, samples, d), samples),
    ]

    grid, exponents, rates, draws = ZetaGrid(), (1.5, 2.0, 3.0), (0.125, 1.0 / 64.0), 40
    m = 0.0
    for a in exponents:
        bigt = np.exp(rng.uniform(math.log(1e-3), math.log(30.0), draws))
        closed = bigt ** (1.0 - a) * gammaincc(a - 1.0, bigt) * gamma(a - 1.0)
        m = max(m, np.max(np.abs(_time_integral(a, bigt, grid) - closed) / closed))
    out.append(_exact_lemma("time_singularity_integral", m, draws * len(exponents),
                            f"constant={max(gamma(a - 1.0) for a in exponents):.6g}"))
    m = -np.inf
    for c in rates:
        q = np.exp(rng.uniform(math.log(1e-3), math.log(100.0), draws))
        val = q * _log_weight_integral(c, q, grid)
        lo, hi = 2.0 / c * np.exp(-c * q), (2.0 / c + q) * np.exp(-c * q)
        m = max(m, np.max((lo - val) / lo), np.max((val - hi) / hi), np.max(0.5 * c * hi - 1.0))
    out.append(_exact_lemma("log_weight_integral", m, draws * len(rates),
                            f"constant={max(2.0 / c for c in rates):.6g}"))

    units = [(v,) + (0.0,) * (d - 1) for v in (0.0, 1.0, 0.5)]
    combos = list(itertools.product(units, repeat=2))
    x, y = sample_pairs(d, 40, seed, 0.1, 8.0)
    balls = ball_measures(alpha, x, y)
    c1, c2 = (max(_fit_lem4(alpha, dl, kp, o, x, y, balls) for dl, kp in combos)
              for o in (24, 48))
    drift = abs(c2 - c1) / c2
    out.append(LemmaResult("q_integral_vs_ball_measure", bool(drift < 0.05), float(drift),
                           len(combos) * 40, detail=f"constant={c2:.6g}"))
    return out


def random_expansion(alpha, family=PLAIN, nmodes: int = 10, max_level: int = 8,
                     seed: int = 0) -> Expansion:
    """A reproducible random finite expansion with unit-scale coefficients."""
    alpha = as_alpha(alpha)
    rng = np.random.default_rng(seed)
    idx = basis._family_indices(family, alpha.d, max_level)
    take = min(nmodes, len(idx))
    chosen = rng.choice(len(idx), size=take, replace=False)
    coeffs = {idx[c]: float(rng.normal()) for c in chosen}
    return Expansion(alpha, family, coeffs)


def riesz_identity_check(alpha, j: int, e: Expansion, t_grid, x_grid) -> float:
    """Max deviation of the intertwining identity for the Riesz transform.

    The time derivative of the modified Poisson semigroup applied to R_j f
    must equal minus the j-th derivative of the plain Poisson semigroup of f.
    """
    alpha = as_alpha(alpha)
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    x_grid = np.asarray(x_grid, dtype=float)
    rf = riesz_transform(e, j)
    worst = 0.0
    for t in t_grid:
        lhs_coeffs = {}
        for k, c in rf.coeffs.items():
            lam = eigenvalue(alpha, sum(k))
            lhs_coeffs[k] = -math.sqrt(lam) * math.exp(-t * math.sqrt(lam)) * c
        lhs = Expansion(alpha, differentiated(j), lhs_coeffs)
        pt_coeffs = {
            k: math.exp(-t * math.sqrt(eigenvalue(alpha, sum(k)))) * c
            for k, c in e.coeffs.items()
        }
        rhs = delta_apply(Expansion(alpha, PLAIN, pt_coeffs), j)
        dev = basis.synthesize(lhs, x_grid) + basis.synthesize(rhs, x_grid)
        worst = max(worst, float(np.max(np.abs(dev))))
    return worst


def counterexample_profile(a: float, x_grid, grid: ZetaGrid | None = None):
    """The adjoint-derivative square function of the ground state, two ways.

    Swapping delta_1 for delta_1^* in the horizontal heat square function and
    applying it to l_0 yields |2x - (2a+1)/x| l_0(x) / sqrt(4a + 4) in closed
    form; the quadrature route differences the semigroup action in x (central
    differences, step 1e-5) and takes the L^2(dt) norm on the grid.  Returns
    (closed, quadrature, max deviation).
    """
    alpha = as_alpha(a)
    if alpha.d != 1:
        raise ValueError("the counterexample profile is one-dimensional")
    grid = grid or ZetaGrid()
    x = np.atleast_1d(np.asarray(x_grid, dtype=float))
    lam0 = eigenvalue(alpha, 0)
    l0 = ell(alpha, (0,), x[:, None])
    closed = np.abs(2.0 * x - (2.0 * a + 1.0) / x) * l0 / math.sqrt(4.0 * a + 4.0)

    h = 1e-5
    lp = ell(alpha, (0,), (x + h)[:, None])
    lm = ell(alpha, (0,), (x - h)[:, None])
    dstar = -(lp - lm) / (2.0 * h) + (x - (2.0 * a + 1.0) / x) * l0
    w = grid.time_weights("dt")
    decay = np.exp(-lam0 * grid.t)
    tnorm = math.sqrt(float(np.sum(w * decay * decay)))
    quad = np.abs(dstar) * tnorm
    return closed, quad, float(np.max(np.abs(closed - quad)))
