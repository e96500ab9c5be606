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

from . import basis
from .basis import Expansion, PLAIN, delta_apply, differentiated, eigenvalue, ell, riesz_transform
from .kernels import PAIR_BLOCK, ZetaGrid, _kind_values, _row_dots
from .measure import _ball_measures, as_alpha, as_points, pi_alpha_rules
from .specfun import tensor_rule

__all__ = [
    "ESTIMATES",
    "LemmaResult",
    "ScanColumns",
    "sample_pairs",
    "sample_perturbed",
    "scan",
    "lemma_suite",
    "riesz_identity_check",
    "counterexample_profile",
    "random_expansion",
]


ESTIMATES = ("growth", "smooth_x", "smooth_y")


class ScanColumns(NamedTuple):
    """The result of scan: kernel_norm and ratio are indexed [kind, grid,
    estimate, pair], constraint_ok [estimate, pair] (all true for growth)."""

    ball_measure: np.ndarray
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
# pairs, and candidate draws, that one pass of sample_perturbed tests
_DRAW_WINDOW = 64


def sample_perturbed(x: np.ndarray, y: np.ndarray, seed: int):
    """Points x' with 0 < |x - x'| < |x - y|/2 and positive coordinates.

    A draw is accepted only if its rounded value keeps that promise.  A pair
    that is coincident or not finite has no such x' and is rejected with
    ValueError before any draw, as is a row whose _MAX_DRAWS draws all leave
    the open orthant or round outside the promise (|x - y| below the spacing
    of x's coordinates rounds every draw back to x).

    The draws are those of a loop over the pairs in which each pair draws
    unit directions from one stream of normals until one is accepted, and the
    next pair starts at the following draw.  They are made a block at a time:
    one pass tests up to _DRAW_WINDOW pending pairs on the same _DRAW_WINDOW
    candidate draws, and a walk over that table gives each pair its first
    accepted draw after the previous pair's.  A pair that rejects the rest of
    the window is tested again, with the pairs after it, on the next window.
    """
    rng = np.random.default_rng(seed)
    count, d = x.shape
    with np.errstate(over="ignore"):  # a separation that overflows is rejected below
        sep = np.linalg.norm(x - y, axis=1)
    frac = rng.uniform(0.05, 0.95, count)
    radius = 0.5 * sep * frac
    bad = np.flatnonzero(~(np.isfinite(radius) & (radius > 0)))
    if bad.size:
        p = bad[0]
        raise ValueError(f"pair {p} (x = {x[p]}, y = {y[p]}) is coincident or not finite: "
                         "it has no perturbed point")
    # the separation as scan measures it, so its constraint holds for x'
    scan_sep = _distances(x, y)
    xp = np.empty_like(x)
    dirs = np.empty((0, d))  # unit directions of the draws 0, 1, ...
    p = start = cur = 0  # the first pending pair, its first draw and its first untested one
    while p < count:
        end = cur + _DRAW_WINDOW
        if end > len(dirs):
            new = rng.normal(size=(max(end - len(dirs), 2 * (count - p)), d))
            new /= np.sqrt(_row_dots(new, new))[:, None]
            dirs = np.concatenate([dirs, new])
        q = slice(p, min(count, p + _DRAW_WINDOW))
        cand = x[q, None] + radius[q, None, None] * dirs[cur:end]
        shift = (x[q, None] - cand).reshape(-1, d)
        twice = 2.0 * np.sqrt(_row_dots(shift, shift)).reshape(cand.shape[:2])
        ok = np.all(cand > 0, axis=2) & (0.0 < twice) & (twice < scan_sep[q, None])
        for hits in ok.tolist():
            try:
                j = hits.index(True, max(start - cur, 0))
            except ValueError:
                j = _DRAW_WINDOW
            if cur + j - start >= _MAX_DRAWS:
                raise ValueError(f"pair {p} (x = {x[p]}, y = {y[p]}): {_MAX_DRAWS} draws of a "
                                 "perturbed point all left the open orthant or rounded "
                                 "outside 0 < |x - x'| < |x - y|/2")
            if j == _DRAW_WINDOW:  # pair p rejected the rest of the window
                cur = end
                break
            xp[p] = cand[p - q.start, j]
            p, start = p + 1, cur + j + 1
        else:
            cur = start
    return xp


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # the norm of each row as np.linalg.norm takes it, from one BLAS dot: a
    # norm over axis 1 rounds differently in the last bit, which would move
    # the report bytes
    diff = a - b
    return np.sqrt(_row_dots(diff, diff))


def scan(alpha, kinds, x, y, xp, yp, grids, estimates=ESTIMATES) -> ScanColumns:
    """The requested estimates of every kind on every grid over the pairs (x[p], y[p]).

    growth is ||K(x,y)|| * mu_alpha(B(x, |x-y|)); smooth_x (smooth_y)
    norms K(x,y) - K(x',y) (K(x,y) - K(x,y')), with the profiles subtracted
    nodewise on the shared zeta grid, and multiplies in the inverted factor
    |x-y|/|x-x'|, flagging the half-distance constraint |x-y| > 2|x-x'|.  A
    Poisson kind is normed from its Gram rows, whose difference is that of
    the profiles: its norms are in closed form in time and the same on every
    grid.  xp and yp are the perturbed points (None when their estimate is not
    requested).  The pairs are taken PAIR_BLOCK at a time, with (x, y),
    (x', y) and (x, y') stacked into one batch, so each base's heat parts
    serve every kind and point set of a block; each kind's values are
    reduced to their norms before the next kind's are made.  The ball
    measures come last, so a singular pair is rejected before any is taken.
    """
    pairs = {"growth": (x, y), "smooth_x": (xp, y), "smooth_y": (x, yp)}
    for est in estimates:
        if est not in pairs:
            raise ValueError(f"unknown estimate {est!r}, expected one of {ESTIMATES}")
        if any(p is None for p in pairs[est]):
            raise ValueError(f"{est} needs its perturbed points")
    # in a block's batch, the pairs of moved[m] follow those of (x, y) as set m + 1
    moved = [est for est in estimates if est != "growth"]
    norms = np.empty((len(kinds), len(grids), len(estimates), len(x)))
    for start in range(0, len(x), PAIR_BLOCK):
        s = slice(start, start + PAIR_BLOCK)
        rows = len(x[s])
        bx = np.vstack([x[s]] + [pairs[est][0][s] for est in moved])
        by = np.vstack([y[s]] + [pairs[est][1][s] for est in moved])
        for k, g, vals in _kind_values(alpha, kinds, bx, by, grids):
            for e, est in enumerate(estimates):
                diff = vals[:rows]
                if est != "growth":
                    m = moved.index(est) + 1
                    diff = diff - vals[m * rows : (m + 1) * rows]
                if kinds[k].is_poisson:  # Gram rows: a norm is the row's length
                    norms[k, g, e, s] = np.sqrt(_row_dots(diff, diff))
                else:
                    norms[k, g, e, s] = grids[g].norms(diff, kinds[k].time_power)
    sep = _distances(x, y)
    balls = _ball_measures(alpha, x, sep)
    ratio = norms * balls
    ok = np.ones((len(estimates), len(x)), dtype=bool)
    # |x - x'| and |y - y'|: the unperturbed point of each estimate and its perturbation
    shifts = {"smooth_x": (x, xp), "smooth_y": (y, yp)}
    for e, est in enumerate(estimates):
        if est != "growth":
            dp = _distances(*shifts[est])
            ratio[:, :, e] = ratio[:, :, e] * sep / dp
            ok[e] = sep > 2.0 * dp
    return ScanColumns(balls, norms, ratio, ok)


def _q_forms(x, y, s):
    cross = 2.0 * np.sum(x * y * s, axis=-1)
    sq = np.sum(x * x, axis=-1) + np.sum(y * y, axis=-1)
    return sq + cross, sq - cross


def _lemma_obs(rng, n, d):
    x = rng.uniform(0.01, 10.0, (n, d))
    y = rng.uniform(0.01, 10.0, (n, d))
    s = rng.uniform(-1.0, 1.0, (n, d))
    qp, qm = _q_forms(x, y, s)
    return np.max([np.abs(a + b * s) - np.sqrt(qp)[:, None] for a, b in ((x, y), (y, x))]
                  + [np.abs(a - b * s) - np.sqrt(qm)[:, None] for a, b in ((x, y), (y, x))])


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
    if not ok.any():  # no draw stayed in the orthant: nothing was checked
        return np.nan, 0
    qp, qm = _q_forms(x[ok], y[ok], s[ok])
    tp, tm = _q_forms(theta[ok], y[ok], s[ok])
    return np.max([
        np.max((0.25 * qp - tp) / qp),
        np.max((tp - 4.0 * qp) / qp),
        np.max((0.25 * qm - tm) / np.maximum(qm, 1e-300)),
        np.max((tm - 4.0 * qm) / np.maximum(qm, 1e-300)),
    ]), int(ok.sum())


def _exact_lemma(name: str, margin, samples: int, detail: str = "") -> LemmaResult:
    """Passed when the margin, the worst violation, is <= 1e-10; plain types for JSON."""
    return LemmaResult(name, bool(margin <= 1e-10), float(margin), samples, detail)


def _time_integral(a: float, bigt: np.ndarray, grid: ZetaGrid) -> np.ndarray:
    """int_0^1 zeta^-a e^(-T/zeta) dzeta by quadrature on the grid, one value per T."""
    return (grid.zeta ** (-a) * np.exp(-bigt[:, None] / grid.zeta)) @ grid.wz


def _log_weight_integral(c: float, q: np.ndarray, grid: ZetaGrid) -> np.ndarray:
    """I(q) = int_0^1 2 atanh(zeta) zeta^-3 e^(-cq/zeta) dzeta by quadrature, one value per q."""
    return (2.0 * grid.t * grid.zeta ** (-3.0) * np.exp(-c * q[:, None] / grid.zeta)) @ grid.wz


# entries of a (pairs, points, d) block of the lemma fit, which bounds its
# memory where Pi's tensor rule has millions of points (d = 4 at order 48)
_FIT_BLOCK_ENTRIES = 1 << 22


def _fit_lem4(alpha, delta, kappa, order: int, x, y, balls) -> float:
    """Largest (x+y)^(2 delta) int q_+^expo dPi_(alpha+delta+kappa) times mu_alpha of the ball."""
    shifted = as_alpha([a + (dl + kp) for a, dl, kp in zip(alpha.components, delta, kappa)])
    expo = -(alpha.d + alpha.total + float(np.sum(delta)))
    pts, w = tensor_rule(*zip(*pi_alpha_rules(shifted, order)))
    xy = np.prod((x + y) ** (2.0 * np.asarray(delta)), axis=1)
    step = max(1, _FIT_BLOCK_ENTRIES // pts.size)
    sums = np.concatenate([
        np.sum(w * _q_forms(x[s, None], y[s, None], pts)[0] ** expo, axis=1)
        for s in (slice(i, i + step) for i in range(0, len(x), step))])
    return float(np.max(xy * sums * balls))  # a NaN stays


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
    from scipy.special import gamma, gammaincc

    alpha = as_alpha(alpha)
    if not alpha.cz_eligible:
        raise ValueError("the lemma suite requires alpha in [-1/2, inf)^d")
    rng = np.random.default_rng(seed)
    d = alpha.d
    out = [
        _exact_lemma("bound_by_sqrt_q", _lemma_obs(rng, samples, d), samples),
        _exact_lemma("power_absorbs_exponential", _lemma_oq(rng, samples), samples),
    ]
    margin, kept = _lemma_lemat(rng, samples, d)
    out.append(_exact_lemma("q_stable_under_halfway_shift", margin, samples,
                            "" if kept else f"kept=0 of {samples} draws"))

    grid, exponents, rates, draws = ZetaGrid(), (1.5, 2.0, 3.0), (0.125, 1.0 / 64.0), 40
    m = 0.0
    for a in exponents:
        bigt = np.exp(rng.uniform(math.log(1e-3), math.log(30.0), draws))
        closed = bigt ** (1.0 - a) * gammaincc(a - 1.0, bigt) * gamma(a - 1.0)
        m = np.maximum(m, np.max(np.abs(_time_integral(a, bigt, grid) - closed) / closed))
    out.append(_exact_lemma("time_singularity_integral", m, draws * len(exponents),
                            f"constant={max(gamma(a - 1.0) for a in exponents):.6g}"))
    m = -np.inf
    for c in rates:
        q = np.exp(rng.uniform(math.log(1e-3), math.log(100.0), draws))
        val = q * _log_weight_integral(c, q, grid)
        lo, hi = 2.0 / c * np.exp(-c * q), (2.0 / c + q) * np.exp(-c * q)
        m = np.max([m, np.max((lo - val) / lo), np.max((val - hi) / hi),
                    np.max(0.5 * c * hi - 1.0)])
    out.append(_exact_lemma("log_weight_integral", m, draws * len(rates),
                            f"constant={max(2.0 / c for c in rates):.6g}"))

    units = [(v,) + (0.0,) * (d - 1) for v in (0.0, 1.0, 0.5)]
    combos = list(itertools.product(units, repeat=2))
    x, y = sample_pairs(d, 40, seed, 0.1, 8.0)
    balls = _ball_measures(alpha, x, _distances(x, y))
    c1, c2 = (np.max([_fit_lem4(alpha, dl, kp, o, x, y, balls) for dl, kp in combos])
              for o in (24, 48))
    drift = abs(c2 - c1) / c2
    out.append(LemmaResult("q_integral_vs_ball_measure", bool(drift < 0.05), float(drift),
                           len(combos) * 40, detail=f"constant={c2:.6g}"))
    return out


def _draw_modes(alpha, family, nmodes: int, max_level: int, seeds):
    """The modes random_expansion draws for each seed: idx (E, M, d) and coeffs (E, M)."""
    alpha = as_alpha(alpha)
    idx = basis._family_indices(family, alpha.d, max_level)
    take = min(nmodes, len(idx))
    chosen = np.empty((len(seeds), take), dtype=np.intp)
    coeffs = np.empty((len(seeds), take))
    for n, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        chosen[n] = rng.choice(len(idx), size=take, replace=False)
        # the same stream as take scalar draws
        coeffs[n] = rng.normal(size=take)
    return np.array(idx, dtype=np.intp).reshape(-1, alpha.d)[chosen], coeffs


def random_expansion(alpha, family=PLAIN, nmodes: int = 10, max_level: int = 8,
                     seed: int = 0) -> Expansion:
    """A reproducible random finite expansion with unit-scale coefficients."""
    idx, coeffs = _draw_modes(alpha, family, nmodes, max_level, [seed])
    return Expansion(as_alpha(alpha), family,
                     dict(zip(map(tuple, idx[0].tolist()), coeffs[0].tolist())))


def riesz_identity_check(alpha, j: int, e: Expansion, t_grid, x_grid) -> float:
    """Max deviation of the intertwining identity for the Riesz transform.

    The time derivative of the modified Poisson semigroup applied to R_j f
    must equal minus the j-th derivative of the plain Poisson semigroup of f.
    """
    alpha = as_alpha(alpha)
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
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
        worst = np.maximum(worst, np.max(np.abs(dev)))  # a NaN stays
    return float(worst)


def counterexample_profile(a: float, x_grid):
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
    pts, _ = as_points(1, x_grid)
    x = pts[:, 0]
    lam0 = eigenvalue(alpha, 0)
    l0 = ell(alpha, (0,), pts)
    closed = np.abs(2.0 * x - (2.0 * a + 1.0) / x) * l0 / math.sqrt(4.0 * a + 4.0)

    h = 1e-5
    lp = ell(alpha, (0,), pts + h)
    lm = ell(alpha, (0,), pts - h)
    dstar = -(lp - lm) / (2.0 * h) + (x - (2.0 * a + 1.0) / x) * l0
    grid = ZetaGrid()
    quad = np.abs(dstar) * float(grid.norms(np.exp(-lam0 * grid.t), 1))
    return closed, quad, float(np.max(np.abs(closed - quad)))
