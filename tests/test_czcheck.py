import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lps.basis import Expansion, PLAIN, ell
from lps.czcheck import (
    ESTIMATES,
    _log_weight_integral,
    _time_integral,
    ball_measures,
    counterexample_profile,
    lemma_suite,
    random_expansion,
    riesz_identity_check,
    sample_pairs,
    sample_perturbed,
    scan,
)
from lps.kernels import KernelKind, SingularPairError, ZetaGrid, default_kinds, kernel_values

GRID = ZetaGrid(order=8, levels_zero=30, levels_one=30)
_X = sample_pairs(2, 4, 1)[0]
_ELEMENT_3 = np.arange(_X.size).reshape(_X.shape) == 3


def scan_one(alpha, kind, estimate, x, y, pert=None, grid=GRID):
    """Columns of one estimate; pert is x' for smooth_x and y' for smooth_y."""
    xp = pert if estimate == "smooth_x" else None
    yp = pert if estimate == "smooth_y" else None
    return scan(alpha, [kind], x, y, xp, yp, ball_measures(alpha, x, y), [grid],
                (estimate,))[0][0][estimate]


class TestSamplers:
    def test_deterministic(self):
        x1, y1 = sample_pairs(2, 20, 7)
        x2, y2 = sample_pairs(2, 20, 7)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_off_diagonal_and_in_box(self):
        x, y = sample_pairs(2, 200, 3, 0.05, 10.0)
        assert np.all((x >= 0.05) & (x <= 10.0))
        assert not np.any(np.all(x == y, axis=1))

    def test_perturbation_constraint(self):
        x, y = sample_pairs(2, 100, 5)
        xp = sample_perturbed(x, y, 6)
        sep = np.linalg.norm(x - y, axis=1)
        dp = np.linalg.norm(x - xp, axis=1)
        assert np.all(sep > 2.0 * dp)
        assert np.all(xp > 0)

    def test_perturbation_draws_unchanged(self):
        # the bounded draws consume the rng stream of the unbounded loop
        def unbounded(x, y, seed):
            rng = np.random.default_rng(seed)
            count, d = x.shape
            sep = np.linalg.norm(x - y, axis=1)
            frac = rng.uniform(0.05, 0.95, count)
            xp = np.empty_like(x)
            for p in range(count):
                radius = 0.5 * sep[p] * frac[p]
                while True:
                    direction = rng.normal(size=d)
                    direction /= np.linalg.norm(direction)
                    cand = x[p] + radius * direction
                    if np.all(cand > 0) and not np.all(cand == y[p]):
                        xp[p] = cand
                        break
            return xp

        for d in (1, 2, 3):
            x, y = sample_pairs(d, 50, 20 + d)
            assert np.array_equal(sample_perturbed(x, y, 9), unbounded(x, y, 9))

    @pytest.mark.parametrize("x,y,cause", [
        (_X, _X.copy(), "coincident or not finite"),
        (_X, np.where(_ELEMENT_3, np.nan, _X), "coincident or not finite"),
        (_X, np.where(_ELEMENT_3, np.inf, _X), "coincident or not finite"),
        # |x - y| below the spacing of x's coordinates: every draw rounds back to x
        (np.array([[1.0, 2.0]]), np.array([[1.0 + 2.2e-16, 2.0]]), "rounded outside"),
    ], ids=["coincident", "nan", "inf", "below_spacing"])
    def test_perturbation_rejects_degenerate_pair(self, x, y, cause):
        with pytest.raises(ValueError, match=f"pair [01] .* {cause}"):
            sample_perturbed(x, y, 1)

    def test_perturbation_draws_are_bounded(self):
        # no point within the radius of x = -1 has a positive coordinate
        with pytest.raises(ValueError, match="draws"):
            sample_perturbed(np.array([[1.0], [-1.0]]), np.array([[2.0], [-0.5]]), 1)


class TestScans:
    def test_growth_ratios_finite_and_stable(self):
        x, y = sample_pairs(1, 60, 11)
        ratios = scan_one(0.0, KernelKind("dT"), "growth", x, y).ratio
        assert np.all(np.isfinite(ratios))
        refined = scan_one(0.0, KernelKind("dT"), "growth", x, y, grid=GRID.refined()).ratio
        drift = abs(ratios.max() - refined.max()) / ratios.max()
        assert drift < 0.05

    def test_scaling_probe_small_separation(self):
        # ratio stays bounded as y -> x along the first coordinate
        ratios = []
        for eps in (1e-1, 1e-2, 1e-3):
            x = np.array([[1.0]])
            y = np.array([[1.0 + eps]])
            ratios.append(scan_one(0.0, KernelKind("dT"), "growth", x, y).ratio[0])
        assert np.all(np.isfinite(ratios))
        assert max(ratios) <= 5.0 * min(ratios)

    def test_degenerate_pair_rejected(self):
        x = np.array([[1.0]])
        # the kernel rejects the pair before the ball measures are read
        with pytest.raises(SingularPairError):
            scan(0.0, [KernelKind("dT")], x, x.copy(), None, None, np.ones(1), [GRID],
                 ("growth",))

    def test_smoothness_reports(self):
        x, y = sample_pairs(1, 50, 13)
        cols = scan_one(0.0, KernelKind("hT", i=1), "smooth_x", x, y, sample_perturbed(x, y, 14))
        assert len(cols.ratio) == 50
        assert np.all(cols.constraint_ok)
        assert np.all(np.isfinite(cols.ratio))

    def test_zero_difference_gives_zero_norm(self):
        from lps.kernels import kernel_values

        x = np.array([[1.0], [2.0]])
        y = np.array([[2.5], [0.7]])
        v1 = kernel_values(0.0, KernelKind("dT"), x, y, GRID)
        assert np.all(v1 - v1 == 0.0)

    def test_symmetric_kind_x_vs_y_scan(self):
        # dT is symmetric in (x, y): swapping the perturbed argument must give
        # statistically indistinguishable ratio populations
        x, y = sample_pairs(1, 80, 17)
        xp, yp = sample_perturbed(x, y, 18), sample_perturbed(y, x, 18)
        cols = scan(0.0, [KernelKind("dT")], x, y, xp, yp, ball_measures(0.0, x, y), [GRID])[0][0]
        rx, ry = cols["smooth_x"].ratio, cols["smooth_y"].ratio
        mx = np.median(rx)
        my = np.median(ry)
        assert mx == pytest.approx(my, rel=1.0)  # same order of magnitude
        assert rx.max() < 20 * ry.max()

    def test_poisson_kind_scan(self):
        x, y = sample_pairs(2, 20, 19)
        cols = scan_one((0.0, -0.5), KernelKind("hPmod", i=2, j=1), "growth", x, y)
        assert np.all(np.isfinite(cols.ratio))

    @pytest.mark.parametrize("alpha", [(-0.5,), (0.0, -0.5)], ids=["d1", "d2"])
    @pytest.mark.parametrize("ngrids", [1, 2])
    def test_all_kinds_scan_matches_single_kind_scans(self, alpha, ngrids):
        # 70 pairs take three blocks, the last one short; kinds that share a
        # base share its heat parts, and no column may move a bit for it
        d = len(alpha)
        x, y = sample_pairs(d, 70, 31)
        xp, yp = sample_perturbed(x, y, 32), sample_perturbed(y, x, 33)
        balls = ball_measures(alpha, x, y)
        grid = ZetaGrid(order=4, levels_zero=12, levels_one=12)
        grids = [grid, grid.refined()][:ngrids]
        kinds = default_kinds(d)
        joint = scan(alpha, kinds, x, y, xp, yp, balls, grids)
        assert len(joint) == len(kinds) and all(len(per) == ngrids for per in joint)
        for k, kind in enumerate(kinds):
            for g, one_grid in enumerate(grids):
                alone = scan(alpha, [kind], x, y, xp, yp, balls, [one_grid])[0][0]
                for est in ESTIMATES:
                    for got, want in zip(joint[k][g][est], alone[est]):
                        assert np.array_equal(got, want), (kind.tag, g, est)
            # and the growth norms are those of the kind's own kernel entries
            vals = kernel_values(alpha, kind, x, y, grids[0])
            w = grids[0].time_weights(kind.measure_kind)
            norms = np.sqrt(np.array([np.dot(row, w) for row in vals * vals]))
            assert np.array_equal(joint[k][0]["growth"].kernel_norm, norms), kind.tag

    def test_smoothness_ratio_bounded_as_perturbation_shrinks(self):
        # difference quotient stays bounded: |x - x'| in {1e-2, 1e-3, 1e-4}
        x = np.array([[1.0]])
        y = np.array([[2.0]])
        ratios = []
        for eps in (1e-2, 1e-3, 1e-4):
            xp = np.array([[1.0 + eps]])
            cols = scan_one(0.0, KernelKind("dT"), "smooth_x", x, y, xp)
            assert cols.constraint_ok[0]
            ratios.append(cols.ratio[0])
        assert np.all(np.isfinite(ratios))
        assert max(ratios) <= 2.0 * min(ratios)


class TestLemmaSuite:
    def test_full_suite_passes(self):
        results = lemma_suite((0.0, -0.5), samples=100000, seed=23)
        for r in results:
            assert r.passed, f"{r.name}: margin {r.margin} detail {r.detail}"

    def test_exact_lemmas_d1(self):
        results = lemma_suite(-0.5, samples=100000, seed=29)
        names = {r.name for r in results}
        assert "bound_by_sqrt_q" in names
        for r in results:
            assert r.passed

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            lemma_suite(-0.8, samples=10)

    def test_closed_form_constants(self):
        rows = {r.name: r for r in lemma_suite((0.0, -0.5), samples=100, seed=23)}
        # Gamma(1/2) = sqrt(pi), and 2/c at c = 1/64
        assert rows["time_singularity_integral"].detail == "constant=1.77245"
        assert rows["log_weight_integral"].detail == "constant=128"
        assert (rows["time_singularity_integral"].samples, rows["log_weight_integral"].samples) \
            == (120, 80)
        for name in ("time_singularity_integral", "log_weight_integral"):
            assert rows[name].passed and rows[name].margin <= 1e-10
        # plain Python types, which a JSON report can hold
        assert all(type(r.passed) is bool and type(r.margin) is float for r in rows.values())

    @pytest.mark.parametrize("a", [1.5, 2.0, 3.0])
    def test_time_integral_against_mpmath(self, a):
        bigt = np.array([1e-3, 1.0, 30.0])
        got = _time_integral(a, bigt, ZetaGrid())
        with mpmath.workdps(30):
            for g, tv in zip(got, bigt):
                tv = mpmath.mpf(tv)
                want = mpmath.quad(lambda z: z ** (-a) * mpmath.exp(-tv / z), [0, tv, 1])
                assert abs(g - float(want)) <= 1e-12 * float(want)

    @pytest.mark.parametrize("c", [0.125, 1.0 / 64.0])
    def test_log_weight_integral_against_mpmath(self, c):
        q = np.array([1e-3, 1.0, 100.0])
        got = _log_weight_integral(c, q, ZetaGrid())
        with mpmath.workdps(30):
            for g, qv in zip(got, q):
                s = mpmath.mpf(c) * mpmath.mpf(qv)
                want = mpmath.quad(lambda z: 2 * mpmath.atanh(z) * z ** -3 * mpmath.exp(-s / z),
                                   [0, min(s, 0.5), 1])
                assert abs(g - float(want)) <= 1e-12 * float(want)

    def test_perturbed_quadrature_fails(self, monkeypatch):
        # weights off by 1e-8 break both closed-form checks; the other rows
        # do not use the time grid
        from lps import czcheck

        class Perturbed(ZetaGrid):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.wz = self.wz * (1.0 + 1e-8)

        monkeypatch.setattr(czcheck, "ZetaGrid", Perturbed)
        rows = {r.name: r for r in lemma_suite((0.0, -0.5), samples=100, seed=23)}
        assert not rows["time_singularity_integral"].passed
        assert not rows["log_weight_integral"].passed
        assert all(r.passed for n, r in rows.items()
                   if n not in ("time_singularity_integral", "log_weight_integral"))

    def test_balls_and_rules_built_once(self, monkeypatch):
        # 40 pairs, one ball each; one Pi_alpha rule per (delta, kappa, order)
        from lps import czcheck

        calls = {"ball": 0, "rule": 0}

        def counted(name, f):
            def wrapper(*args):
                calls[name] += 1
                return f(*args)
            return wrapper

        monkeypatch.setattr(czcheck, "mu_ball", counted("ball", czcheck.mu_ball))
        monkeypatch.setattr(czcheck, "pi_alpha_rule", counted("rule", czcheck.pi_alpha_rule))
        lemma_suite((0.0, -0.5), samples=100, seed=23)
        assert calls == {"ball": 40, "rule": 18}


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(0.01, 10.0),
    y=st.floats(0.01, 10.0),
    s=st.floats(-1.0, 1.0),
)
def test_obs_inequality_property(x, y, s):
    qp = x * x + y * y + 2 * x * y * s
    qm = x * x + y * y - 2 * x * y * s
    assert abs(x + y * s) <= math.sqrt(qp) + 1e-12
    assert abs(x - y * s) <= math.sqrt(qm) + 1e-12


def test_obs_equality_at_aligned_direction():
    # d = 1 and s = 1: q_+ = (x + y)^2, the bound is attained
    x, y = 1.3, 0.4
    qp = x * x + y * y + 2 * x * y
    assert abs(x + y) == pytest.approx(math.sqrt(qp), rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    b=st.floats(0.0, 4.0),
    c=st.floats(0.05, 3.0),
    a=st.floats(1e-3, 1e3),
    q=st.floats(0.0, 60.0),
)
@example(b=5e-324, c=2.0, a=1.0, q=1.0)
@example(b=5e-324, c=3.0, a=1.0, q=1.0)
def test_oq_inequality_property(b, c, a, q):
    lhs = q**b * math.exp(-c * a * q)
    base = 2.0 * b / (c * math.e)
    # base**b -> 1 as b -> 0; for subnormal b the base underflows to 0 first
    const = base**b if base > 0 else 1.0
    rhs = const * a ** (-b) * math.exp(-0.5 * c * a * q)
    assert lhs <= rhs * (1.0 + 1e-12)


class TestRieszIdentity:
    def test_ground_state_both_sides_vanish(self):
        e = Expansion((0.0,), PLAIN, {(0,): 1.0})
        xg = np.linspace(0.2, 3.0, 10)[:, None]
        assert riesz_identity_check(0.0, 1, e, (0.3, 1.0), xg) == 0.0

    def test_single_mode_algebra(self):
        # k = 1, d = 1, alpha = 0: both sides are 2 e^(-t sqrt(6)) x l_0^1(x)
        alpha = (0.0,)
        e = Expansion(alpha, PLAIN, {(1,): 1.0})
        xg = np.linspace(0.2, 3.0, 12)[:, None]
        dev = riesz_identity_check(alpha, 1, e, (0.1, 0.7, 2.0), xg)
        assert dev <= 1e-12

    def test_random_ten_mode(self):
        rng = np.random.default_rng(55)
        for trial in range(5):
            alpha = tuple(rng.uniform(-0.5, 2.0, 2))
            e = random_expansion(alpha, PLAIN, nmodes=10, max_level=8, seed=500 + trial)
            xg = rng.uniform(0.2, 4.0, (20, 2))
            dev = riesz_identity_check(alpha, 1 + trial % 2, e, (0.1, 0.5, 1.5), xg)
            assert dev <= 1e-9


class TestCounterexample:
    def test_boundary_alpha_formula(self):
        # a = -1/2: the 1/x term drops and the profile is |2x| l_0(x) / sqrt(2)
        xs = np.linspace(0.1, 5.0, 40)
        closed, quad, dev = counterexample_profile(-0.5, xs)
        want = np.abs(2.0 * xs) * ell(-0.5, 0, xs[:, None]) / math.sqrt(2.0)
        assert np.allclose(closed, want, rtol=1e-13)
        assert dev <= 1e-7

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_closed_vs_quadrature(self, a):
        xs = np.linspace(0.1, 5.0, 60)
        closed, quad, dev = counterexample_profile(a, xs)
        assert dev <= 1e-7

    def test_plug_in_value(self):
        # a = 1, x = 1: (1/sqrt(8)) |2 - 3| l_0^1(1)
        closed, _, _ = counterexample_profile(1.0, np.array([1.0]))
        want = ell(1.0, 0, np.array([[1.0]]))[0] / math.sqrt(8.0)
        assert closed[0] == pytest.approx(want, rel=1e-13)

    def test_growth_rate_at_infinity(self):
        # profile / (x l_0(x)) -> 2 / sqrt(4a + 4), approached like 1/x^2
        a = 1.0
        xs = np.linspace(10.0, 30.0, 6)
        closed, _, _ = counterexample_profile(a, xs)
        ratio = closed / (xs * ell(a, 0, xs[:, None]))
        limit = 2.0 / math.sqrt(4 * a + 4)
        devs = np.abs(ratio - limit)
        assert np.all(np.diff(devs) < 0)
        assert devs[-1] <= 1.05 * (2 * a + 1) / (xs[-1] ** 2 * math.sqrt(4 * a + 4))
