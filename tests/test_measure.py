import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lps.kernels import heat_kernel_schlafli
from lps.measure import (
    AlphaParam,
    as_alpha,
    mu_ball,
    mu_box,
    pi_alpha_integrate,
    pi_alpha_rules,
)


def _slice_oracle(alpha, c, r, inner=mu_ball):
    """Adaptive quad over x1 of inner(alpha[1:], c[1:], rho) for the chord
    radius rho, cut where rho crosses the distance to a face of the orthant."""
    from scipy.integrate import quad

    c1 = c[0]

    def outer(x1):
        h2 = r * r - (x1 - c1) ** 2
        if h2 <= 0.0:
            return 0.0
        return x1 ** (2 * alpha[0] + 1) * inner(alpha[1:], c[1:], math.sqrt(h2))

    lo, hi = max(c1 - r, 0.0), c1 + r
    cuts = {lo, hi}
    for k in range(1, len(c)):
        for face in itertools.combinations(c[1:], k):
            dist = math.hypot(*face)
            if dist < r:
                half = math.sqrt(r * r - dist * dist)
                cuts |= {x for x in (c1 - half, c1 + half) if lo < x < hi}
    edges = sorted(cuts)
    return sum(
        quad(outer, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )


def _quad_ball(alpha, c, r):
    """mu_alpha of the clipped ball by nested adaptive quad, exact in the last coordinate."""
    from lps.measure import _mu_interval

    if len(c) == 1:
        return float(_mu_interval(alpha[0], c[0] - r, c[0] + r))
    return _slice_oracle(alpha, c, r, _quad_ball)


class TestAlphaParam:
    def test_construction(self):
        a = as_alpha((0.3, -0.5))
        assert a.d == 2
        assert a.total == pytest.approx(-0.2)
        assert a.cz_eligible

    def test_cz_flag(self):
        assert not as_alpha((-0.7, 1.0)).cz_eligible
        assert as_alpha((-0.5,)).cz_eligible

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AlphaParam((-1.0,))
        with pytest.raises(ValueError):
            AlphaParam(())
        with pytest.raises(ValueError):
            AlphaParam((math.nan,))

    def test_shift(self):
        assert as_alpha((0.0, 1.0)).shifted(1).components == (1.0, 1.0)


class TestMuBox:
    def test_lebesgue_interval(self):
        # alpha = -1/2: weight x^0, plain length
        assert mu_box(-0.5, [1.0], [3.0]) == pytest.approx(2.0, rel=1e-14)

    def test_linear_weight(self):
        assert mu_box(0.0, [1.0], [2.0]) == pytest.approx(1.5, rel=1e-14)

    def test_product(self):
        assert mu_box((0.0, -0.5), [0.0, 0.0], [1.0, 2.0]) == pytest.approx(1.0, rel=1e-14)

    def test_malformed(self):
        with pytest.raises(ValueError):
            mu_box(0.0, [2.0], [1.0])
        with pytest.raises(ValueError):
            mu_box(0.0, [-0.5], [1.0])

    def test_overflow_names_its_component(self):
        # 10^402 leaves the double range; the message names that factor's a and hi
        with pytest.raises(FloatingPointError, match=r"mu_a of \(0, 10\) overflows at a = 200"):
            mu_box((0.0, 200.0, 1.0), [0.0, 0.0, 0.0], [3.0, 10.0, 2.0])


class TestMuBall:
    def test_interval_cases(self):
        assert mu_ball(-0.5, [5.0], 1.0) == pytest.approx(2.0, rel=1e-14)
        assert mu_ball(0.0, [2.0], 1.0) == pytest.approx(4.0, rel=1e-14)

    def test_d1_matches_box(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = rng.uniform(-0.9, 3.0)
            x = rng.uniform(0.05, 10.0)
            r = rng.uniform(0.01, 5.0)
            want = mu_box(a, [max(x - r, 0.0)], [x + r]) if x - r < x + r else 0.0
            assert mu_ball(a, [x], r) == pytest.approx(want, rel=1e-12)

    def test_disk_monte_carlo(self):
        # spec oracle: 1e7 uniform samples over the bounding box, 3 SE band
        alpha = (0.0, 0.0)
        c = np.array([3.0, 3.0])
        r = 1.0
        rng = np.random.default_rng(42)
        n = 10**7
        pts = rng.uniform(c - r, c + r, (n, 2))
        inside = np.sum((pts - c) ** 2, axis=1) <= r * r
        dens = pts[:, 0] * pts[:, 1] * inside
        vol = (2 * r) ** 2
        mc = float(np.mean(dens) * vol)
        se = float(np.std(dens) * vol / math.sqrt(n))
        assert abs(mu_ball(alpha, c, r) - mc) <= 3.0 * se

    @pytest.mark.parametrize(
        "alpha,c,r",
        [
            ((0.5, -0.5), (0.4, 0.7), 1.1),
            ((0.0, 0.0), (0.4, 0.7), 1.1),
            ((1.3, 0.2), (0.8, 0.5), 2.0),
            ((2.0, -0.5), (0.1, 0.1), 0.5),
        ],
    )
    def test_disk_vs_slice_oracle(self, alpha, c, r):
        # independent oracle: exact inner interval measure, adaptive outer quad
        from scipy.integrate import quad

        from lps.measure import _mu_interval

        a1, a2 = alpha
        c1, c2 = c

        def outer(x1):
            h = math.sqrt(max(r * r - (x1 - c1) ** 2, 0.0))
            return x1 ** (2 * a1 + 1) * float(_mu_interval(a2, c2 - h, c2 + h))

        cuts = {max(c1 - r, 0.0), c1 + r}
        if c2 < r:
            half = math.sqrt(r * r - c2 * c2)
            cuts |= {c1 - half, c1 + half}
        edges = sorted(p for p in cuts if max(c1 - r, 0.0) <= p <= c1 + r)
        ref = sum(
            quad(outer, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        )
        assert mu_ball(alpha, np.array(c), r) == pytest.approx(ref, rel=1e-10)

    def test_unclipped_ball_d3(self):
        # density x1 x2 x3 is linear in each coordinate: the mean over the ball is c1 c2 c3
        c = np.array([3.0, 2.5, 4.0])
        for r in (0.5, 2.0, 2.4):
            want = float(np.prod(c)) * 4.0 / 3.0 * math.pi * r**3
            assert mu_ball((0.0, 0.0, 0.0), c, r) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize(
        "alpha,c,r",
        [
            ((0.0, 0.0, 0.0), (0.4, 0.7, 0.5), 1.1),
            ((0.0, -0.5, 0.5), (1.0, 0.3, 0.6), 1.5),
            ((0.5, 0.0, 1.0), (0.3, 2.0, 1.0), 4.0),
            ((0.2, 0.7, 0.0), (1.0, 1.0, 1.0), 1.5),
            ((0.0, 0.0, 0.0, 0.0), (0.4, 0.7, 0.5, 0.3), 1.1),
            ((0.0, -0.5, 0.5, 0.0), (4.0, 2.0, 5.0, 3.0), 6.0),
            # balls drawn like czscan's, where plain panels of 96 and of 8
            # nodes were off by 1.9e-11 and 3.2e-5
            ((0.0, -0.5, 0.5), (1.0841, 0.4794, 5.2445), 0.9821),
            ((0.0, -0.5, 0.5, 0.0), (8.4328, 0.1562, 1.7568, 0.2456), 8.4347),
        ],
    )
    def test_clipped_ball_vs_slice_oracle(self, alpha, c, r):
        want = _slice_oracle(alpha, c, r)
        assert mu_ball(alpha, np.array(c), r) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize(
        "alpha,c,r",
        [
            # components off the half-integers put factors like x^1.4 and
            # x^0.4 at the clipped ends, which plain panels resolved to 4e-9
            # and 4e-7
            ((0.2, 0.3, 0.7), (1.0231, 0.1081, 0.1386), 7.1742),
            ((-0.3, 0.0, 0.4), (0.6, 0.2, 1.5), 2.0),
            # ball 16 of sample_pairs(2, 40, 7), clipped at both faces, where
            # plain panels of 96 nodes at d = 2 were off by 1.6e-6 and 3.9e-10
            ((-0.3, 0.7), (0.05322411035166527, 0.13857762338271398), 6.889089182602208),
            ((0.2, 0.3), (0.05322411035166527, 0.13857762338271398), 6.889089182602208),
        ],
    )
    def test_clipped_ball_vs_nested_quad(self, alpha, c, r):
        want = _quad_ball(alpha, c, r)
        assert mu_ball(alpha, np.array(c), r) == pytest.approx(want, rel=1e-11)

    def test_coinciding_kinks_d3(self):
        # face distances one ulp apart, or so small against r that their
        # kink angles round to pi/2, must not leave a panel of zero width
        c = np.array([1.0, 1.0, 1.0 + 2.0**-52])
        for r in (1.5, 3.0, 9.5):
            assert mu_ball((0.0, 0.0, 0.0), c, r) == pytest.approx(
                mu_ball((0.0, 0.0, 0.0), np.ones(3), r), rel=1e-13)
        # an octant of the ball about the origin carries r^6 / 48
        got = mu_ball((0.0, 0.0, 0.0), np.full(3, 1e-8), 1e9)
        assert got == pytest.approx(1e54 / 48, rel=1e-12)

    def test_batched_slices_change_no_bit(self, monkeypatch):
        from lps import measure

        args = ((0.0, -0.5, 0.5), np.array([1.0, 0.3, 0.6]), 1.5)
        want = mu_ball(*args)
        centers, radii = _ball_cases(3)
        balls = measure._ball_measures(args[0], centers, radii)
        monkeypatch.setattr(measure, "_SLICE_BATCH", 7)
        assert mu_ball(*args) == want
        assert np.array_equal(measure._ball_measures(args[0], centers, radii), balls)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            mu_ball(0.0, [1.0], 0.0)
        with pytest.raises(ValueError):
            mu_ball(0.0, [-1.0], 1.0)

    @pytest.mark.parametrize("center,r", [([math.nan], 1.0), ([1.0], math.nan),
                                          ([math.inf], 1.0), ([1.0, math.nan], 0.5),
                                          ([1.0, 2.0], math.inf)])
    def test_rejects_non_finite(self, center, r):
        # NaN fails every comparison, so it must be rejected explicitly
        alpha = (0.0,) * len(center)
        with pytest.raises(ValueError, match="finite"):
            mu_ball(alpha, center, r)


class TestDoubling:
    def test_translation_invariant_far_from_origin(self):
        ratio = mu_ball(-0.5, [10.0], 2.0) / mu_ball(-0.5, [10.0], 1.0)
        assert ratio == pytest.approx(2.0, rel=1e-12)

    def test_large_x_limit(self):
        ratio = mu_ball(0.0, [1000.0], 2.0) / mu_ball(0.0, [1000.0], 1.0)
        assert ratio == pytest.approx(2.0, rel=1e-3)

    def test_interval_at_origin(self):
        # mu((0,3))/mu((0,2)) = (9/2)/(4/2)
        ratio = mu_ball(0.0, [1.0], 2.0) / mu_ball(0.0, [1.0], 1.0)
        assert ratio == pytest.approx(2.25, rel=1e-12)

    @pytest.mark.parametrize("alpha", [(0.0,), (-0.5,), (1.3,), (0.0, -0.5)])
    def test_product_doubling_bound(self, alpha):
        a = as_alpha(alpha)
        bound = 2.0 ** sum(2.0 * c + 2.0 for c in a.components)
        rng = np.random.default_rng(7)
        for _ in range(200 if a.d == 1 else 60):
            x = rng.uniform(0.05, 10.0, a.d)
            r = rng.uniform(0.01, 5.0)
            assert mu_ball(a, x, 2.0 * r) / mu_ball(a, x, r) <= bound + 1e-9


class TestPiAlpha:
    def test_point_mass_total(self):
        got = pi_alpha_integrate(-0.5, lambda s: np.ones(s.shape[0]), 16)
        assert got == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)

    @pytest.mark.parametrize("a", [0.0, 0.7, 2.3])
    def test_total_mass(self, a):
        got = pi_alpha_integrate(a, lambda s: np.ones(s.shape[0]), 24)
        want = 1.0 / (2.0**a * math.gamma(a + 1.0))
        assert got == pytest.approx(want, rel=1e-13)

    def test_odd_function_vanishes(self):
        got = pi_alpha_integrate(0.8, lambda s: s[:, 0], 24)
        assert abs(got) < 1e-15

    @pytest.mark.parametrize("a", [0.0, 1.2])
    def test_polynomial_moments_vs_beta_oracle(self, a):
        order = 12
        norm = 1.0 / (math.sqrt(math.pi) * 2.0**a * math.gamma(a + 0.5))
        for m in range(0, 2 * order - 1, 2):
            with mpmath.workdps(40):
                want = float(mpmath.beta((m + 1) / 2.0, a + 0.5)) * norm
            got = pi_alpha_integrate(a, lambda s, m=m: s[:, 0] ** m, order)
            assert got == pytest.approx(want, rel=1e-10)

    def test_tensorization(self):
        alpha = (0.3, -0.5, 1.1)

        def f(s):
            return (1.0 + s[:, 0]) * np.exp(s[:, 1]) * s[:, 2] ** 2

        got = pi_alpha_integrate(alpha, f, 32)
        parts = [
            pi_alpha_integrate(0.3, lambda s: 1.0 + s[:, 0], 32),
            pi_alpha_integrate(-0.5, lambda s: np.exp(s[:, 0]), 32),
            pi_alpha_integrate(1.1, lambda s: s[:, 0] ** 2, 32),
        ]
        assert got == pytest.approx(parts[0] * parts[1] * parts[2], rel=1e-12)

    def test_rejects_below_range(self):
        with pytest.raises(ValueError):
            pi_alpha_integrate(-0.7, lambda s: np.ones(s.shape[0]), 8)

    def test_rules_are_the_factors_of_the_tensor_rule(self):
        alpha = (0.3, -0.5, 1.1)
        rules = pi_alpha_rules(alpha, 8)
        assert [len(p) for p, _ in rules] == [8, 2, 8]
        total = pi_alpha_integrate(alpha, lambda s: np.ones(s.shape[0]), 8)
        assert total == pytest.approx(math.prod(w.sum() for _, w in rules), rel=1e-14)

    def test_normalisation_outside_the_normal_doubles_is_rejected(self):
        # 1/(sqrt(pi) 2^a Gamma(a + 1/2)) is subnormal from about a = 150.2, 0
        # from 150.5 and an OverflowError of math.gamma from 172
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(pi_alpha_rules((150.0, -0.5), 16)[0][1] > 0)
            assert pi_alpha_integrate(150.0, lambda s: np.ones(s.shape[0]), 16) > 0
            for a in (151.0, 172.0):
                for call in (lambda: pi_alpha_rules((0.3, a), 16),
                             lambda: pi_alpha_integrate(a, lambda s: np.ones(s.shape[0]), 16),
                             lambda: heat_kernel_schlafli(a, 0.5, [1.0], [2.0])):
                    with pytest.raises(ValueError, match="normalisation"):
                        call()


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-0.9, 4.0),
    lo=st.floats(0.0, 5.0),
    width1=st.floats(0.01, 3.0),
    width2=st.floats(0.01, 3.0),
)
def test_mu_box_additive(a, lo, width1, width2):
    mid = lo + width1
    hi = mid + width2
    whole = mu_box(a, [lo], [hi])
    parts = mu_box(a, [lo], [mid]) + mu_box(a, [mid], [hi])
    assert whole == pytest.approx(parts, rel=1e-11, abs=1e-13)


def _per_ball_slices(a, center, radii, order):
    """The per-ball slicing recursion, one centre for all radii: the
    reference loop that _ball_measures batches over centres."""
    from lps.measure import _mu_interval
    from lps.specfun import composite_legendre_rule

    if len(a) == 1:
        return _mu_interval(a[0], center[0] - radii, center[0] + radii)
    c1 = center[0]
    rest = center[1:].tolist()
    faces = {math.hypot(*s) for k in range(1, len(a)) for s in itertools.combinations(rest, k)}
    ratio = np.array(sorted(faces)) / radii[:, None]
    lo = np.fromiter(map(math.asin, (-np.minimum(c1 / radii, 1.0)).tolist()), float)[:, None]
    kinks = np.fromiter(map(math.acos, np.minimum(ratio, 1.0).ravel().tolist()), float)
    kinks = kinks.reshape(ratio.shape)
    inside = (ratio < 1.0) & (kinks < 0.5 * math.pi)
    inside[:, 1:] &= kinks[:, 1:] < kinks[:, :-1]
    edges = np.concatenate([lo, np.where(inside & (-kinks > lo), -kinks, lo),
                            np.where(inside, kinks, lo), np.full_like(lo, 0.5 * math.pi)], axis=1)
    edges.sort(axis=1)
    n_edges = 1 + (edges > lo).sum(axis=1)
    out = np.empty(radii.shape)
    smooth = len(a) <= 3
    for n in set(n_edges.tolist()):
        sel = n_edges == n
        per_panel = max(order // (n - 1), 32 if smooth else 16)
        theta, w = composite_legendre_rule(edges[sel, -n:], per_panel, smooth_ends=smooth)
        r = radii[sel, None, None]
        cos = np.cos(theta)
        x1 = np.maximum(c1 + r * np.sin(theta), 0.0)
        rho = r * cos
        inner = _per_ball_slices(a[1:], center[1:], rho.ravel(), max(order // 2, 24))
        dens = x1 ** (2.0 * a[0] + 1.0) * r * cos
        out[sel] = (w * dens * inner.reshape(rho.shape)).sum(axis=-1).cumsum(axis=-1)[:, -1]
    return out


def _per_ball_reference(alpha, centers, radii):
    from lps.measure import _BALL_ORDER

    return np.array([_per_ball_slices(alpha, c, np.array([float(r)]), _BALL_ORDER)[0]
                     for c, r in zip(centers, radii)])


def _ball_cases(d):
    """Centres and radii: czscan's draws, the lemma box, clipped balls and
    centres whose faces or kink angles coincide."""
    from lps.czcheck import _distances, sample_pairs

    count = {1: 400, 2: 30, 3: 8, 4: 2}[d]
    x, y = sample_pairs(d, count, 40 + d)
    xl, yl = sample_pairs(d, count, 23, 0.1, 8.0)
    rng = np.random.default_rng(d)
    clipped = rng.uniform(0.01, 0.3, (count, d))
    ones = np.ones(d)
    kinked = np.array([ones, np.r_[ones[:-1], 1.0 + 2.0**-52], np.full(d, 1e-8)])
    centers = np.vstack([x, xl, clipped, kinked])
    radii = np.concatenate([_distances(x, y), _distances(xl, yl),
                            rng.uniform(0.5, 6.0, count), [1.5, 3.0, 1e9]])
    return centers, radii


@pytest.mark.bitexact
class TestBatchedBalls:
    """One call for all balls gives each ball the bits of the per-ball loop."""

    @pytest.mark.parametrize("alpha", [(-0.5,), (0.3,), (1.7,), (0.0, -0.5), (-0.3, 0.7),
                                       (0.2, 0.3), (0.3, -0.5, 0.5), (0.0, 0.0, 0.0),
                                       (0.0, -0.5, 0.5, 0.0)],
                             ids=lambda a: "_".join(map(str, a)))
    def test_matches_per_ball_loop(self, alpha):
        from lps.measure import _ball_measures

        centers, radii = _ball_cases(len(alpha))
        got = _ball_measures(alpha, centers, radii)
        assert np.array_equal(got, _per_ball_reference(alpha, centers, radii))
        assert np.array_equal(got[:3], [mu_ball(alpha, c, r) for c, r in zip(centers, radii[:3])])

    def test_clip_keeps_d4_balls_finite(self):
        # a node next to the clip angle rounded x_1 a little below 0, and its
        # fractional power 2a + 1 = 1.6 was NaN on 7 of these 32 balls
        from lps.czcheck import _distances, sample_pairs
        from lps.measure import _ball_measures

        alpha = (0.0, -0.5, 0.3, 0.0)
        x, y = (np.vstack(v) for v in zip(*(sample_pairs(4, 4, s) for s in range(100, 108))))
        got = _ball_measures(alpha, x, _distances(x, y))
        assert got.shape == (32,) and np.all(np.isfinite(got)) and np.all(got > 0)
        assert np.array_equal(got, _per_ball_reference(alpha, x, _distances(x, y)))

    def test_first_bad_ball_names_its_check(self):
        from lps.measure import _ball_measures

        # ball 1 has a centre outside the orthant, ball 0 or 2 a zero radius
        centers = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="radius must be finite and positive, got 0.0"):
            _ball_measures((0.0, 0.0), centers, [0.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="open positive orthant"):
            _ball_measures((0.0, 0.0), centers, [1.0, 1.0, 0.0])
        assert _ball_measures((0.0, 0.0), np.empty((0, 2)), []).shape == (0,)
