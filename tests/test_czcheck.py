import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lps import basis
from lps import kernels as kernels_mod
from lps.basis import Expansion, PLAIN, differentiated, ell
from lps.czcheck import (
    ESTIMATES,
    _draw_modes,
    _log_weight_integral,
    _time_integral,
    counterexample_profile,
    lemma_suite,
    random_expansion,
    riesz_identity_check,
    sample_pairs,
    sample_perturbed,
    scan,
)
from lps.kernels import KernelKind, SingularPairError, ZetaGrid, default_kinds, kernel_values
from lps.measure import mu_ball

GRID = ZetaGrid(order=8, levels=30)
# the type indices of the grid-against-deep-reference tests, d = 1 and 2
DEEP_REFERENCE_ALPHAS = [(-0.5,), (0.3,), (0.0, -0.5), (0.5, 0.5)]
_X = sample_pairs(2, 4, 1)[0]
_ELEMENT_3 = np.arange(_X.size).reshape(_X.shape) == 3


def scan_one(alpha, kind, estimate, x, y, pert=None, grid=GRID):
    """Scan of one kind, grid and estimate; pert is x' for smooth_x and y' for smooth_y."""
    xp = pert if estimate == "smooth_x" else None
    yp = pert if estimate == "smooth_y" else None
    return scan(alpha, [kind], x, y, xp, yp, [grid], (estimate,))


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

    @pytest.mark.parametrize("family", [PLAIN, differentiated(1)], ids=["plain", "diff1"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_expansion_draws_unchanged(self, family, d):
        # one vector of normal draws consumes the stream of one scalar draw per mode
        def scalar_draws(alpha, family, seed):
            rng = np.random.default_rng(seed)
            idx = basis._family_indices(family, d, 8)
            chosen = rng.choice(len(idx), size=min(8, len(idx)), replace=False)
            return Expansion(alpha, family, {idx[c]: float(rng.normal()) for c in chosen})

        alpha = (0.3, -0.5)[:d]
        for seed in range(20):
            got = random_expansion(alpha, family, nmodes=8, max_level=8, seed=seed)
            want = scalar_draws(alpha, family, seed)
            assert list(got.coeffs.items()) == list(want.coeffs.items())
            assert all(type(v) is float for v in got.coeffs.values())
            assert got.alpha == want.alpha and got.family == want.family

    @pytest.mark.bitexact
    @pytest.mark.parametrize("family", [PLAIN, differentiated(2)], ids=["plain", "diff2"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_expansion_is_row_0_of_its_draw(self, family, d):
        # random_expansion and the array draws of the gfun rows read one stream
        alpha = (0.3, -0.5, 1.2)[:d]
        for nmodes, max_level, seed in ((8, 5, 3), (6, 8, 17), (40, 2, 5)):
            e = random_expansion(alpha, family, nmodes, max_level, seed)
            idx, coeffs = _draw_modes(alpha, family, nmodes, max_level, [seed])
            assert list(e.coeffs) == [tuple(k) for k in idx[0].tolist()]
            assert list(e.coeffs.values()) == coeffs[0].tolist()

    def test_perturbation_draws_are_bounded(self):
        # no point within the radius of x = -1 has a positive coordinate
        with pytest.raises(ValueError, match="draws"):
            sample_perturbed(np.array([[1.0], [-1.0]]), np.array([[2.0], [-0.5]]), 1)


def _perturbed_per_draw(x, y, seed):
    """One draw at a time for one pair at a time: the reference loop that
    sample_perturbed batches."""
    from lps.czcheck import _MAX_DRAWS

    rng = np.random.default_rng(seed)
    count, d = x.shape
    sep = np.linalg.norm(x - y, axis=1)
    frac = rng.uniform(0.05, 0.95, count)
    radius = 0.5 * sep * frac
    xp = np.empty_like(x)
    for p in range(count):
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


def _near_faces(d, count, seed):
    """Pairs whose x lies near a face of the orthant and whose y is far, so
    that many draws of x' leave the orthant."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.5, 5.0, (count, d))
    x[:, : max(1, d - 1)] *= 1e-3
    y = x + rng.uniform(1.0, 6.0, (count, d))
    return x, y


@pytest.mark.bitexact
class TestPerturbedBlocks:
    """sample_perturbed takes the draws of the per-draw loop, bit for bit."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_per_draw_loop(self, d):
        for seed in range(4):
            for x, y in (_near_faces(d, 150, seed), sample_pairs(d, 90, seed)):
                got = sample_perturbed(x, y, seed)
                assert np.array_equal(got, _perturbed_per_draw(x, y, seed))

    @pytest.mark.parametrize("window", [1, 2, 3, 64])
    def test_window_changes_no_bit(self, monkeypatch, window):
        from lps import czcheck

        x, y = _near_faces(3, 120, 8)
        want = _perturbed_per_draw(x, y, 8)
        monkeypatch.setattr(czcheck, "_DRAW_WINDOW", window)
        assert np.array_equal(sample_perturbed(x, y, 8), want)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_first_pair_rejects_whole_windows(self, seed):
        # pair 0 lies 1e-9 from every face in d = 8, so a draw stays in the
        # orthant about once in 256; it rejects the first two windows and is
        # retested with the pairs after it on each next window
        from lps.czcheck import _DRAW_WINDOW

        x, y = sample_pairs(8, 20, 5)
        x[0], y[0] = 1e-9, 2.0
        rng = np.random.default_rng(seed)
        radius = 0.5 * np.linalg.norm(x[0] - y[0]) * rng.uniform(0.05, 0.95, len(x))[0]
        dirs = rng.normal(size=(2 * _DRAW_WINDOW, 8))
        cand = x[0] + radius * dirs / np.linalg.norm(dirs, axis=1)[:, None]
        assert not np.any(np.all(cand > 0, axis=1))
        assert np.array_equal(sample_perturbed(x, y, seed), _perturbed_per_draw(x, y, seed))

    @pytest.mark.parametrize("d", [1, 3])
    def test_draw_cap_names_the_same_pair(self, d):
        # pair 4 lies outside the orthant, so none of its draws is accepted
        x, y = _near_faces(d, 9, 2)
        x[4] = -1.0
        y[4] = -0.5
        with pytest.raises(ValueError) as want:
            _perturbed_per_draw(x, y, 3)
        with pytest.raises(ValueError, match="pair 4 .* 10000 draws") as got:
            sample_perturbed(x, y, 3)
        assert str(got.value) == str(want.value)


class TestScans:
    def test_growth_ratios_finite_and_stable(self):
        x, y = sample_pairs(1, 60, 11)
        ratios = scan_one(0.0, KernelKind("dT"), "growth", x, y).ratio[0, 0, 0]
        assert np.all(np.isfinite(ratios))
        refined = scan_one(0.0, KernelKind("dT"), "growth", x, y,
                           grid=GRID.refined()).ratio[0, 0, 0]
        drift = abs(ratios.max() - refined.max()) / ratios.max()
        assert drift < 0.05

    def test_scaling_probe_small_separation(self):
        # ratio stays bounded as y -> x along the first coordinate
        ratios = []
        for eps in (1e-1, 1e-2, 1e-3):
            x = np.array([[1.0]])
            y = np.array([[1.0 + eps]])
            ratios.append(scan_one(0.0, KernelKind("dT"), "growth", x, y).ratio[0, 0, 0, 0])
        assert np.all(np.isfinite(ratios))
        assert max(ratios) <= 5.0 * min(ratios)

    def test_degenerate_pair_rejected(self):
        x = np.array([[1.0]])
        # the kernel rejects the pair before any ball measure is computed
        with pytest.raises(SingularPairError):
            scan(0.0, [KernelKind("dT")], x, x.copy(), None, None, [GRID], ("growth",))

    def test_smoothness_reports(self):
        x, y = sample_pairs(1, 50, 13)
        res = scan_one(0.0, KernelKind("hT", i=1), "smooth_x", x, y, sample_perturbed(x, y, 14))
        assert res.ratio.shape == (1, 1, 1, 50)
        assert np.all(res.constraint_ok[0])
        assert np.all(np.isfinite(res.ratio[0, 0, 0]))

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
        res = scan(0.0, [KernelKind("dT")], x, y, xp, yp, [GRID])
        rx, ry = (res.ratio[0, 0, ESTIMATES.index(est)] for est in ("smooth_x", "smooth_y"))
        mx = np.median(rx)
        my = np.median(ry)
        assert mx == pytest.approx(my, rel=1.0)  # same order of magnitude
        assert rx.max() < 20 * ry.max()

    def test_poisson_kind_scan(self):
        x, y = sample_pairs(2, 20, 19)
        res = scan_one((0.0, -0.5), KernelKind("hPmod", i=2, j=1), "growth", x, y)
        assert np.all(np.isfinite(res.ratio[0, 0, 0]))

    @pytest.mark.parametrize("alpha", [(-0.5,), (0.0, -0.5)], ids=["d1", "d2"])
    @pytest.mark.parametrize("ngrids", [1, 2])
    def test_all_kinds_scan_matches_single_kind_scans(self, alpha, ngrids):
        # 70 pairs take three blocks, the last one short; kinds that share a
        # base share its heat parts, and no column may move a bit for it
        d = len(alpha)
        x, y = sample_pairs(d, 70, 31)
        xp, yp = sample_perturbed(x, y, 32), sample_perturbed(y, x, 33)
        grid = ZetaGrid(order=4, levels=12)
        grids = [grid, grid.refined()][:ngrids]
        kinds = default_kinds(d)
        joint = scan(alpha, kinds, x, y, xp, yp, grids)
        assert joint.ratio.shape == (len(kinds), ngrids, len(ESTIMATES), 70)
        for k, kind in enumerate(kinds):
            for g, one_grid in enumerate(grids):
                alone = scan(alpha, [kind], x, y, xp, yp, [one_grid])
                assert np.array_equal(joint.ball_measure, alone.ball_measure)
                assert np.array_equal(joint.constraint_ok, alone.constraint_ok)
                for e, est in enumerate(ESTIMATES):
                    for field in ("kernel_norm", "ratio"):
                        got, want = getattr(joint, field)[k, g, e], getattr(alone, field)[0, 0, e]
                        assert np.array_equal(got, want), (kind.tag, g, est, field)
            # and a heat kind's growth norms are those of its own kernel entries
            # (Poisson norms: test_poisson_scan_matches_deep_reference)
            if kind.is_poisson:
                continue
            vals = kernel_values(alpha, kind, x, y, grids[0])
            g = grids[0]
            w = g.wz * g.t ** (kind.time_power - 1) * g.jacobian
            norms = np.sqrt(np.array([np.dot(row, w) for row in vals * vals]))
            assert np.array_equal(joint.kernel_norm[k, 0, 0], norms), kind.tag

    @pytest.mark.parametrize("alpha", [(-0.5,), (0.0, -0.5)], ids=["d1", "d2"])
    def test_poisson_scan_matches_deep_reference(self, alpha):
        # a Poisson norm is in closed form in time: on any scan grid it is the
        # norm of the kind's profiles on a deep outer grid, every estimate
        d = len(alpha)
        x, y = sample_pairs(d, 12, 41)
        xp, yp = sample_perturbed(x, y, 42), sample_perturbed(y, x, 43)
        kinds = [k for k in default_kinds(d) if k.is_poisson]
        assert len(kinds) == 3 + d
        grids = [GRID, GRID.refined()]
        res = scan(alpha, kinds, x, y, xp, yp, grids)
        deep = ZetaGrid(order=32, levels=50)
        for k, kind in enumerate(kinds):
            base = kernel_values(alpha, kind, x, y, deep)
            moved = {"smooth_x": (xp, y), "smooth_y": (x, yp)}
            for e, est in enumerate(ESTIMATES):
                profiles = base
                if est in moved:
                    profiles = base - kernel_values(alpha, kind, *moved[est], deep)
                want = deep.norms(profiles, kind.time_power)
                for g in range(len(grids)):
                    np.testing.assert_allclose(res.kernel_norm[k, g, e], want, rtol=1e-12,
                                               atol=0, err_msg=f"{kind.tag} {est}")
            assert np.array_equal(res.kernel_norm[k, 0], res.kernel_norm[k, 1]), kind.tag

    @staticmethod
    def _dyadic_grid(order, levels_zero, levels_one):
        """The earlier time grid: the zeta end mirrored in eta = 1 - zeta toward t = inf."""
        g = ZetaGrid(order, levels_zero)
        z, wz = kernels_mod._graded_rule(levels_zero, order)
        e, we = (v[::-1] for v in kernels_mod._graded_rule(levels_one, order))
        g.zeta, g.eta, g.wz = np.r_[z, 1.0 - e], np.r_[1.0 - z, e], np.r_[wz, we]
        g.t = 0.5 * (np.log1p(g.zeta) - np.log(g.eta))
        g.jacobian = 1.0 / ((1.0 + g.zeta) * g.eta)
        return g

    @staticmethod
    def _heat_squares(alpha, kinds, x, y, moved, grid):
        """Squared norms of the heat kinds' profiles, (kinds, estimates, pairs):
        over the nodes above t = atanh(1/2), and over all nodes."""
        top = grid.levels * grid.order  # the zeta end comes first
        out = np.empty((2, len(kinds), len(ESTIMATES), len(x)))
        for k, kind in enumerate(kinds):
            base = kernel_values(alpha, kind, x, y, grid)
            w = grid.wz * grid.jacobian * grid.t ** (kind.time_power - 1)
            for e, est in enumerate(ESTIMATES):
                prof = base - kernel_values(alpha, kind, *moved[est], grid) if est in moved else base
                sq = prof * prof * w
                out[:, k, e] = sq[:, top:].sum(axis=1), sq.sum(axis=1)
        return out

    @staticmethod
    def _poisson_reference(alpha, kinds, x, y, moved):
        """Poisson norms by the dense Gram form h^T W M W h (kernels module
        docstring) on a (24, 45) inner grid, (kinds, estimates, pairs)."""
        inner = ZetaGrid(24, 45)
        half = 0.5 * np.subtract.outer(np.log(inner.t), np.log(inner.t))
        gram = {True: 1.0 / (math.pi * np.cosh(half)),
                False: 0.5 / (math.pi * np.cosh(half) ** 2) / np.sqrt(np.outer(inner.t, inner.t))}
        out = np.empty((len(kinds), len(ESTIMATES), len(x)))
        for k, kind in enumerate(kinds):
            # the heat kind the Poisson kind is subordinated from
            heat = KernelKind(kind.tag.replace("P", "T"), kind.i, kind.j)
            base = kernel_values(alpha, heat, x, y, inner)
            for e, est in enumerate(ESTIMATES):
                prof = base - kernel_values(alpha, heat, *moved[est], inner) if est in moved else base
                wh = prof * (inner.wz * inner.jacobian)
                out[k, e] = np.sqrt(np.einsum("pm,mn,pn->p", wh, gram[kind.spec.deriv == "d"], wh))
        return out

    @staticmethod
    def _reference_case(d):
        x, y = sample_pairs(d, 16, 21)
        xp, yp = sample_perturbed(x, y, 22), sample_perturbed(y, x, 23)
        return x, y, xp, yp, {"smooth_x": (xp, y), "smooth_y": (x, yp)}

    @pytest.mark.bitexact
    @pytest.mark.parametrize("alpha", DEEP_REFERENCE_ALPHAS, ids=lambda a: ",".join(map(str, a)))
    def test_heat_top_end_no_farther_from_deep_reference(self, alpha):
        # the panels in log t against the earlier dyadic eta end, at orders 8
        # and 12.  Both grids share their zeta end bit for bit, so the squared
        # norm above t = atanh(1/2) is all that moves; its error is taken per
        # row against a (32, 50) grid, relative to the row's squared norm
        x, y, _, _, moved = self._reference_case(len(alpha))
        kinds = [k for k in default_kinds(len(alpha)) if not k.is_poisson]
        want_top, want = self._heat_squares(alpha, kinds, x, y, moved, ZetaGrid(32, 50))
        for order in (8, 12):
            new, old = (np.max(np.abs(self._heat_squares(alpha, kinds, x, y, moved, g)[0]
                                      - want_top) / want)
                        for g in (ZetaGrid(order, 30), self._dyadic_grid(order, 30, 30)))
            assert new <= old, (order, new, old)

    @pytest.mark.bitexact
    @pytest.mark.parametrize("alpha", DEEP_REFERENCE_ALPHAS, ids=lambda a: ",".join(map(str, a)))
    def test_poisson_norms_no_farther_from_deep_reference(self, alpha, monkeypatch):
        # czscan's Poisson norms from the Gram factor of the inner grid (12, 40)
        # against those of the earlier dyadic inner grid (12, 40, 60); where
        # the shared zeta end sets the worst row, the two differ by the
        # rounding of the factor and the product, up to about 1e-13 of a norm
        x, y, xp, yp, moved = self._reference_case(len(alpha))
        kinds = [k for k in default_kinds(len(alpha)) if k.is_poisson]
        want = self._poisson_reference(alpha, kinds, x, y, moved)
        new = scan(alpha, kinds, x, y, xp, yp, [GRID]).kernel_norm[:, 0]
        dyadic = self._dyadic_grid(12, 40, 60)
        monkeypatch.setattr(kernels_mod, "_default_inner_grid", lambda: dyadic)
        kernels_mod._gram_factor.cache_clear()
        try:
            old = scan(alpha, kinds, x, y, xp, yp, [GRID]).kernel_norm[:, 0]
        finally:
            kernels_mod._gram_factor.cache_clear()
        err_new, err_old = (np.max(np.abs(v - want) / want) for v in (new, old))
        assert err_new <= err_old + 2e-13, (err_new, err_old)

    def test_smoothness_ratio_bounded_as_perturbation_shrinks(self):
        # difference quotient stays bounded: |x - x'| in {1e-2, 1e-3, 1e-4}
        x = np.array([[1.0]])
        y = np.array([[2.0]])
        ratios = []
        for eps in (1e-2, 1e-3, 1e-4):
            xp = np.array([[1.0 + eps]])
            res = scan_one(0.0, KernelKind("dT"), "smooth_x", x, y, xp)
            assert res.constraint_ok[0, 0]
            ratios.append(res.ratio[0, 0, 0, 0])
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

    def test_nan_ball_fails_the_fit(self, monkeypatch):
        # a NaN ball measure in a pair that is not the first must not be
        # dropped by the maxima of the fitted constant
        from lps import czcheck

        def nan_balls(alpha, x, radii):
            balls = np.array([mu_ball(alpha, c, 1.0) for c in x])
            balls[5] = math.nan
            return balls

        monkeypatch.setattr(czcheck, "_ball_measures", nan_balls)
        rows = {r.name: r for r in lemma_suite((0.0, -0.5), samples=100, seed=23)}
        assert not rows["q_integral_vs_ball_measure"].passed
        assert math.isnan(rows["q_integral_vs_ball_measure"].margin)

    @pytest.mark.parametrize("alpha", [(0.0, -0.5), (0.2, 0.7)])
    def test_fit_keeps_its_bits_in_blocks(self, monkeypatch, alpha):
        # the fit takes its pairs in blocks only to bound memory; a pair's
        # value is the same whether its block holds one pair or all 40
        from lps import czcheck

        whole = lemma_suite(alpha, samples=100, seed=23)[-1]
        monkeypatch.setattr(czcheck, "_FIT_BLOCK_ENTRIES", 1)
        assert lemma_suite(alpha, samples=100, seed=23)[-1] == whole

    def test_balls_and_rules_built_once(self, monkeypatch):
        # 40 pairs, one ball each, from one batched call; one Pi_alpha rule
        # per (delta, kappa, order)
        from lps import czcheck

        calls = {"ball": 0, "ball_calls": 0, "rule": 0}

        def counted_balls(alpha, centers, radii):
            calls["ball"] += len(radii)
            calls["ball_calls"] += 1
            return balls(alpha, centers, radii)

        def counted_rules(*args):
            calls["rule"] += 1
            return rules(*args)

        balls, rules = czcheck._ball_measures, czcheck.pi_alpha_rules
        monkeypatch.setattr(czcheck, "_ball_measures", counted_balls)
        monkeypatch.setattr(czcheck, "pi_alpha_rules", counted_rules)
        lemma_suite((0.0, -0.5), samples=100, seed=23)
        assert calls == {"ball": 40, "ball_calls": 1, "rule": 18}


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
