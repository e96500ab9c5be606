import math

import mpmath
import numpy as np
import pytest

from lps import kernels as kernels_mod
from lps.basis import ell_table
from lps.kernels import (
    KernelKind,
    SingularPairError,
    ZetaGrid,
    heat_kernel_closed,
    heat_kernel_schlafli,
    heat_kernel_spectral,
    kernel_values,
    poisson_kernel,
    subordination_u_rule,
)
from lps.measure import as_alpha
from lps.specfun import gauss_laguerre_rule

SMALL_GRID = ZetaGrid(order=6, levels_zero=8, levels_one=8)


def poisson_spectral(alpha, t, x, y, cutoff=300):
    """Oracle: sum_n e^(-t sqrt(lambda_n)) sum_(|k|=n) l_k(x) l_k(y)."""
    alpha = as_alpha(alpha)
    tx = ell_table(alpha, cutoff, np.atleast_2d(x))
    ty = ell_table(alpha, cutoff, np.atleast_2d(y))
    level = None
    for i in range(alpha.d):
        v = tx[i][:, 0] * ty[i][:, 0]
        level = v if level is None else np.convolve(level, v)
    n = np.arange(cutoff + 1)
    lam = 4.0 * n + 2.0 * alpha.total + 2.0 * alpha.d
    return float(np.sum(np.exp(-t * np.sqrt(lam)) * level[: cutoff + 1]))


def _fd_step(scale: float) -> float:
    return 1e-5 * max(scale, 0.1)


def kernel_entry_fd(alpha, kind: KernelKind, x, y, grid: ZetaGrid) -> np.ndarray:
    """Oracle: the kernel entry at one pair on grid.t, by finite differences.

    Time derivatives are central differences of the undifferentiated kernel;
    space derivatives difference in the relevant coordinate and add the
    zeroth-order terms of delta_i or delta_j^*.
    """
    alpha = as_alpha(alpha)
    kind.check_dimension(alpha.d)
    x = kernels_mod._point(x, alpha.d)[0]
    y = kernels_mod._point(y, alpha.d)[0]
    if np.all(x == y):
        raise SingularPairError("kernel entries are undefined on the diagonal x = y")
    spec = kind.spec
    j = kind.j if spec.modified else None

    def base(t, xx):
        if spec.semigroup == "P":
            return poisson_kernel(alpha, t, xx, y, j=j)
        if spec.modified:
            return heat_kernel_closed(alpha, t, xx, y, j=j)
        return heat_kernel_closed(alpha, t, xx, y)

    vals = np.empty(grid.n)
    c = kind.coord
    for q, t in enumerate(grid.t):
        if spec.deriv == "d":
            h = min(_fd_step(t), 0.5 * t)
            vals[q] = (base(t + h, x) - base(t - h, x)) / (2.0 * h)
        else:
            h = min(_fd_step(x[c - 1]), 0.5 * x[c - 1])
            xp = x.copy()
            xm = x.copy()
            xp[c - 1] += h
            xm[c - 1] -= h
            diff = (base(t, xp) - base(t, xm)) / (2.0 * h)
            if spec.deriv == "h":
                vals[q] = diff + x[c - 1] * base(t, x)
            else:
                ac = alpha.components[c - 1]
                vals[q] = -diff + (x[c - 1] - (2.0 * ac + 1.0) / x[c - 1]) * base(t, x)
    return vals


def time_norm(grid: ZetaGrid, measure_kind: str, values) -> float:
    """L^2(dt) or L^2(t dt) norm of values sampled on grid.t."""
    return math.sqrt(np.sum(grid.time_weights(measure_kind) * values**2))


class TestHeatKernel:
    def test_symmetry(self):
        a = (0.7, -0.5)
        v1 = heat_kernel_closed(a, 0.4, [1.0, 2.0], [0.5, 1.3])
        v2 = heat_kernel_closed(a, 0.4, [0.5, 1.3], [1.0, 2.0])
        assert v1 == v2

    def test_closed_vs_spectral(self):
        c = heat_kernel_closed(0.0, 0.5, [1.0], [1.0])
        s = heat_kernel_spectral(0.0, 0.5, [1.0], [1.0], 60)
        assert s == pytest.approx(c, rel=1e-8)

    def test_spectral_single_term(self):
        from lps.basis import ell

        a = 0.3
        t = 0.7
        want = math.exp(-t * (2 * a + 2)) * ell(a, 0, [1.1]) * ell(a, 0, [0.6])
        assert heat_kernel_spectral(a, t, [1.1], [0.6], 0) == pytest.approx(want, rel=1e-14)

    def test_spectral_cauchy_decay(self):
        # successive partial sums shrink like e^(-4 t N)
        t = 0.3
        prev = None
        diffs = []
        for n in (10, 14, 18):
            v = heat_kernel_spectral(0.0, t, [1.0], [1.5], n)
            if prev is not None:
                diffs.append(abs(v - prev))
            prev = v
        assert diffs[1] <= diffs[0] * math.exp(-4.0 * t * 2) * 10.0

    def test_chapman_kolmogorov(self):
        a = 0.3
        t, s, x, y = 0.3, 0.4, 1.0, 2.0
        rule = gauss_laguerre_rule(80, a)
        zs = np.sqrt(rule.nodes)
        w = 0.5 * rule.weights * np.exp(rule.nodes)
        vals = np.array(
            [heat_kernel_closed(a, t, [x], [z]) * heat_kernel_closed(a, s, [z], [y]) for z in zs]
        )
        lhs = float(np.sum(w * vals))
        rhs = heat_kernel_closed(a, t + s, [x], [y])
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_positivity(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            a = tuple(rng.uniform(-0.9, 3.0, 2))
            t = float(rng.uniform(0.01, 5.0))
            x = rng.uniform(0.05, 6.0, 2)
            y = rng.uniform(0.05, 6.0, 2)
            assert heat_kernel_closed(a, t, x, y) > 0

    @pytest.mark.parametrize("a, t, x, y", [(-0.5, 1e-12, 1.0, 1.0 + 1e-6),
                                            (0.0, 1e-11, 2.0, 2.0 + 3e-6),
                                            (1.5, 3e-11, 0.7, 0.7 - 1e-6)])
    def test_near_diagonal_small_time_against_mpmath(self, a, t, x, y):
        # x y / sinh 2t lies past 2^30, where scipy's ive gives NaN: the value
        # was once a silent 0.0
        got = heat_kernel_closed(a, t, [x], [y])
        with mpmath.workdps(40):
            a, t, x, y = (mpmath.mpf(v) for v in (a, t, x, y))
            s = mpmath.sinh(2 * t)
            z = x * y / s
            want = float(s ** (-1 - a) * mpmath.exp(-(x * x + y * y) / (2 * mpmath.tanh(2 * t)))
                         * mpmath.besseli(a, z) * z ** (-a))
        assert got == pytest.approx(want, rel=1e-9)

    def test_large_order_against_mpmath(self):
        # the Bessel product underflows at order 150; the value was once a silent 0.0
        a, t, x, y = 150.0, 0.05, 3.0, 3.1
        got = heat_kernel_closed((a,), t, [x], [y])
        with mpmath.workdps(40):
            a, t, x, y = (mpmath.mpf(v) for v in (a, t, x, y))
            s = mpmath.sinh(2 * t)
            z = x * y / s
            want = float(s ** (-1 - a) * mpmath.exp(-(x * x + y * y) / (2 * mpmath.tanh(2 * t)))
                         * mpmath.besseli(a, z) * z ** (-a))
        assert want > 1e-300
        assert got == pytest.approx(want, rel=1e-9)

    def test_nan_exponent_raises(self):
        # a failed evaluation must not pass for an underflow
        with pytest.raises(FloatingPointError, match="NaN"):
            kernels_mod._exp_floor(np.array([0.0, math.nan, -800.0]), 1.0)

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            heat_kernel_closed(0.0, 0.0, [1.0], [2.0])
        # nan and inf fail `t <= 0` too: each scalar kernel rejects them
        for t in (0.0, -1.0, math.nan, math.inf):
            for kernel in (
                lambda: heat_kernel_closed(-0.5, t, [1.0], [2.0]),
                lambda: heat_kernel_spectral(0.0, t, [1.0], [2.0], 10),
                lambda: heat_kernel_schlafli(0.0, t, [1.0], [2.0]),
                lambda: heat_kernel_closed(0.0, t, [1.0], [2.0], j=1),
                lambda: poisson_kernel(0.0, t, [1.0], [2.0]),
            ):
                with pytest.raises(ValueError, match="t must be finite and positive"):
                    kernel()


class TestSchlafli:
    def test_point_mass_case_matches_cosh_identity(self):
        # alpha = -1/2: Pi is two point masses and the closed form has
        # I_(-1/2)(z) = sqrt(2/(pi z)) cosh z
        t, x, y = 0.4, 1.2, 0.7
        zeta = math.tanh(t)
        qp = (x + y) ** 2
        qm = (x - y) ** 2
        two_point = (
            math.sqrt((1 - zeta**2) / (2 * zeta))
            * (
                math.exp(-qp / (4 * zeta) - zeta * qm / 4)
                + math.exp(-qm / (4 * zeta) - zeta * qp / 4)
            )
            / math.sqrt(2 * math.pi)
        )
        assert heat_kernel_schlafli(-0.5, t, [x], [y]) == pytest.approx(two_point, rel=1e-13)
        assert heat_kernel_closed(-0.5, t, [x], [y]) == pytest.approx(two_point, rel=1e-13)

    @pytest.mark.parametrize("alpha", [(-0.5,), (0.0,), (0.7, -0.5)])
    def test_agreement_with_closed(self, alpha):
        rng = np.random.default_rng(31)
        d = len(alpha)
        for _ in range(50):
            t = float(rng.uniform(0.05, 2.0))
            x = rng.uniform(0.1, 3.0, d)
            y = rng.uniform(0.1, 3.0, d)
            c = heat_kernel_closed(alpha, t, x, y)
            g = heat_kernel_schlafli(alpha, t, x, y, order=64)
            assert g == pytest.approx(c, rel=1e-8)

    @pytest.mark.parametrize("x,y", [([-1.0], [2.0]), ([1.0], [math.nan]), ([1.0, 2.0], [2.0]),
                                     ([[1.0], [3.0]], [2.0])])
    def test_rejects_bad_points(self, x, y):
        with pytest.raises(ValueError):
            heat_kernel_schlafli(-0.5, 1.0, x, y)

    def test_q_plus_sanity(self):
        from lps.czcheck import _q_forms

        x = np.array([[1.0, 2.0]])
        ones = np.ones((1, 2))
        qp, qm = _q_forms(x, x, ones)
        assert qp[0] == pytest.approx(4.0 * float(np.dot(x[0], x[0])), rel=1e-15)
        assert qm[0] == pytest.approx(0.0, abs=1e-15)
        rng = np.random.default_rng(44)
        a = rng.uniform(0.01, 5.0, (100, 2))
        b = rng.uniform(0.01, 5.0, (100, 2))
        s = rng.uniform(-1.0, 1.0, (100, 2))
        qp, qm = _q_forms(a, b, s)
        assert np.all(qp >= np.sum((a - b) ** 2, axis=1) - 1e-12)
        assert np.all(qm >= 0.0)

    def test_rejects_out_of_range_alpha(self):
        with pytest.raises(ValueError):
            heat_kernel_schlafli((-0.7,), 0.5, [1.0], [2.0])


class TestModifiedKernel:
    def test_positive_and_symmetric(self):
        a = (0.3, -0.5)
        v1 = heat_kernel_closed(a, 0.6, [1.0, 0.5], [2.0, 1.5], j=1)
        v2 = heat_kernel_closed(a, 0.6, [2.0, 1.5], [1.0, 0.5], j=1)
        assert v1 > 0
        assert v1 == v2

    def test_dominated_by_heat_kernel(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a = tuple(rng.uniform(-0.5, 2.0, 2))
            t = float(rng.uniform(0.05, 3.0))
            x = rng.uniform(0.05, 5.0, 2)
            y = rng.uniform(0.05, 5.0, 2)
            assert heat_kernel_closed(a, t, x, y, j=1) <= heat_kernel_closed(a, t, x, y) * (1 + 1e-12)

    def test_j_is_the_shifted_kernel_times_the_modification(self):
        # e^(-2t) x_j y_j G_t^(alpha+e_j)(x, y)
        rng = np.random.default_rng(21)
        for _ in range(5):
            a = as_alpha(tuple(rng.uniform(-0.5, 2.0, 2)))
            t = float(rng.uniform(0.05, 3.0))
            x = rng.uniform(0.05, 5.0, 2)
            y = rng.uniform(0.05, 5.0, 2)
            for j in (1, 2):
                want = math.exp(-2.0 * t) * x[j - 1] * y[j - 1] * heat_kernel_closed(
                    a.shifted(j), t, x, y)
                assert want > 0
                assert heat_kernel_closed(a, t, x, y, j=j) == pytest.approx(want, rel=1e-14)

    def test_coordinate_out_of_range(self):
        for kernel in (heat_kernel_closed, poisson_kernel):
            for j in (0, 3):
                with pytest.raises(ValueError, match="coordinate j must be in 1..2"):
                    kernel((0.0, -0.5), 0.5, [1.0, 2.0], [2.0, 1.0], j=j)

    def test_spectral_cross_check(self):
        # sum_n e^(-t lambda_n) x_j y_j l_(k-e_j)^(a+e_j)(x) l_(k-e_j)^(a+e_j)(y)
        a = as_alpha(0.4)
        t, x, y = 0.5, 1.1, 0.8
        cutoff = 60
        shifted = a.shifted(1)
        tx = ell_table(shifted, cutoff, np.array([[x]]))
        ty = ell_table(shifted, cutoff, np.array([[y]]))
        n = np.arange(1, cutoff + 1)
        lam = 4.0 * n + 2.0 * a.total + 2.0
        series = x * y * float(
            np.sum(np.exp(-t * lam) * tx[0][: cutoff, 0] * ty[0][: cutoff, 0])
        )
        assert heat_kernel_closed(a, t, [x], [y], j=1) == pytest.approx(series, rel=1e-8)


class TestPoisson:
    def test_spectral_cross_check(self):
        got = poisson_kernel(0.0, 1.0, [1.0], [2.0])
        want = poisson_spectral(0.0, 1.0, [1.0], [2.0])
        assert got == pytest.approx(want, rel=1e-6)

    def test_modified_spectral_cross_check(self):
        a = as_alpha(0.4)
        t, x, y = 0.8, 1.1, 0.9
        cutoff = 300
        shifted = a.shifted(1)
        tx = ell_table(shifted, cutoff, np.array([[x]]))
        ty = ell_table(shifted, cutoff, np.array([[y]]))
        n = np.arange(1, cutoff + 1)
        lam = 4.0 * n + 2.0 * a.total + 2.0
        want = x * y * float(
            np.sum(np.exp(-t * np.sqrt(lam)) * tx[0][:cutoff, 0] * ty[0][:cutoff, 0])
        )
        got = poisson_kernel(a, t, [x], [y], j=1)
        assert got == pytest.approx(want, rel=1e-6)

    def test_symmetry(self):
        v1 = poisson_kernel((0.3, 0.0), 0.7, [1.0, 2.0], [0.5, 1.0])
        v2 = poisson_kernel((0.3, 0.0), 0.7, [0.5, 1.0], [1.0, 2.0])
        assert v1 == pytest.approx(v2, rel=1e-13)

    def test_per_mode_subordination_identity(self):
        u, w = subordination_u_rule()
        worst = 0.0
        for lam in range(1, 51):
            for t in (0.1, 1.0, 5.0):
                got = float(np.sum(w * np.exp(-(t * t) * lam / (4.0 * u))))
                worst = max(worst, abs(got - math.exp(-t * math.sqrt(lam))))
        assert worst <= 1e-10

    def test_u_rule_cached_and_read_only(self):
        u, w = subordination_u_rule()
        for arr in (u, w):
            with pytest.raises(ValueError):
                arr[0] = 99.0
        again = subordination_u_rule()
        assert again[0] is u and again[1] is w

    @pytest.mark.parametrize("params", [(4, 6, 6), (6, 16, 16), (8, 30, 30), (16, 30, 30)],
                             ids=lambda p: "-".join(map(str, p)))
    def test_per_mode_subordination_matrices(self, params):
        # the matrices the Poisson kinds of kernel_values apply to heat values
        # on the inner grid: e^(-lam tau) -> e^(-t sqrt(lam)) and, for the
        # time derivative, -lam e^(-lam tau) -> -sqrt(lam) e^(-t sqrt(lam))
        grid = ZetaGrid(*params)
        inner = kernels_mod._default_inner_grid()
        lam = np.arange(1.0, 51.0)
        heat = np.exp(-np.outer(inner.t, lam))
        outer = grid.t >= 1e-3
        t = grid.t[outer, None]
        want = np.exp(-t * np.sqrt(lam))
        plain = kernels_mod._subordination_matrix(grid, inner, False)[outer] @ heat
        deriv = kernels_mod._subordination_matrix(grid, inner, True)[outer] @ (-lam * heat)
        assert np.max(np.abs(plain - want)) <= 1e-11
        assert np.max(np.abs(deriv + np.sqrt(lam) * want)) <= 1e-11


def all_ten_kinds():
    return [
        KernelKind("dT"),
        KernelKind("dP"),
        KernelKind("hT", i=1),
        KernelKind("hP", i=2),
        KernelKind("dTmod", j=1),
        KernelKind("dPmod", j=2),
        KernelKind("hTmod", i=2, j=1),
        KernelKind("hPmod", i=1, j=2),
        KernelKind("hTmodStar", j=1),
        KernelKind("hPmodStar", j=2),
    ]


class TestKernelKind:
    def test_measure_assignment(self):
        # space-derivative heat kinds live in L^2(dt), everything else in L^2(t dt)
        assert KernelKind("hT", i=1).measure_kind == "dt"
        assert KernelKind("hTmod", i=2, j=1).measure_kind == "dt"
        assert KernelKind("hTmodStar", j=1).measure_kind == "dt"
        for kind in (KernelKind("dT"), KernelKind("dP"), KernelKind("hP", i=1),
                     KernelKind("dTmod", j=1), KernelKind("dPmod", j=1),
                     KernelKind("hPmod", i=2, j=1), KernelKind("hPmodStar", j=1)):
            assert kind.measure_kind == "t_dt"

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelKind("hT")
        with pytest.raises(ValueError):
            KernelKind("hTmod", i=1, j=1)
        with pytest.raises(ValueError):
            KernelKind("nope")
        # a coordinate the kind does not use is rejected, not ignored
        for tag, i, j in (("dT", 5, 3), ("dT", 0, 2), ("hT", 1, 1), ("dTmod", 2, 1),
                          ("hPmodStar", 1, 1), ("hP", 2, -1)):
            with pytest.raises(ValueError, match="takes no"):
                KernelKind(tag, i=i, j=j)
        # a coordinate above the dimension names itself and d
        x = [[1.0, 2.0]]
        y = [[2.0, 1.5]]
        for kind, name in ((KernelKind("hT", i=3), "i=3"), (KernelKind("dTmod", j=3), "j=3")):
            with pytest.raises(ValueError, match=f"{name} exceeds the dimension d=2"):
                kernel_values((0.0, 0.0), kind, x, y, SMALL_GRID)
            with pytest.raises(ValueError, match=f"{name} exceeds the dimension d=2"):
                kernel_entry_fd((0.0, 0.0), kind, x, y, SMALL_GRID)


class TestKernelEntry:
    def test_far_separation_decay(self):
        values = kernel_values(0.0, KernelKind("dT"), [1.0], [6.0], SMALL_GRID)[0]
        assert np.max(np.abs(values)) <= 1e-3

    def test_diagonal_rejected(self):
        with pytest.raises(SingularPairError):
            kernel_values(0.0, KernelKind("dT"), [1.0], [1.0], SMALL_GRID)

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            kernel_values(-0.8, KernelKind("dT"), [1.0], [2.0], SMALL_GRID)
        with pytest.raises(ValueError):
            kernel_values(0.0, KernelKind("dT"), [[math.nan]], [[2.0]], SMALL_GRID)

    @pytest.mark.parametrize("kind", all_ten_kinds(), ids=lambda k: k.tag)
    def test_analytic_vs_finite_difference(self, kind):
        alpha = (0.7, -0.5)
        x = [1.0, 2.0]
        y = [0.5, 1.4]
        an = kernel_values(alpha, kind, x, y, SMALL_GRID)[0]
        fd = kernel_entry_fd(alpha, kind, x, y, SMALL_GRID)
        rng = np.random.default_rng(55)
        nodes = rng.choice(SMALL_GRID.n, size=20, replace=False)
        assert np.max(np.abs(an[nodes] - fd[nodes])) <= 1e-6

    @pytest.mark.parametrize("kind", [k for k in all_ten_kinds() if not k.is_poisson],
                             ids=lambda k: k.tag)
    def test_far_pair_mostly_underflowing_vs_finite_difference(self, kind):
        # the Bessel factors are skipped where the entry underflows anyway;
        # the surviving entries still match the oracle
        alpha = (0.7, -0.5)
        x = [0.3, 0.2]
        y = [24.0, 26.0]
        an = kernel_values(alpha, kind, x, y, SMALL_GRID)[0]
        fd = kernel_entry_fd(alpha, kind, x, y, SMALL_GRID)
        assert np.mean(an == 0.0) > 0.5
        scale = np.max(np.abs(fd))
        assert scale > 0
        assert np.max(np.abs(an - fd)) <= 1e-6 * scale

    @pytest.mark.parametrize("kind", all_ten_kinds(), ids=lambda k: k.tag)
    def test_skipping_underflow_changes_no_bit(self, kind, monkeypatch):
        rng = np.random.default_rng(12)
        x = rng.uniform(0.05, 12.0, (40, 2))
        y = rng.uniform(0.05, 12.0, (40, 2))
        alpha = (0.0, -0.5)
        skipped = kernel_values(alpha, kind, x, y, SMALL_GRID)
        assert kind.is_poisson or np.any(skipped == 0.0)
        monkeypatch.setattr(kernels_mod, "_live_entries", lambda acomp, logg: Ellipsis)
        assert np.array_equal(skipped, kernel_values(alpha, kind, x, y, SMALL_GRID))

    def test_batch_matches_single(self):
        alpha = (0.0, -0.5)
        x = np.array([[1.0, 2.0], [0.4, 0.9]])
        y = np.array([[0.5, 1.4], [1.1, 0.3]])
        kind = KernelKind("hTmodStar", j=2)
        vals = kernel_values(alpha, kind, x, y, SMALL_GRID)
        for p in range(2):
            single = kernel_values(alpha, kind, x[p], y[p], SMALL_GRID)
            assert single.shape == (1, SMALL_GRID.n)
            assert np.allclose(vals[p], single[0], rtol=1e-14, atol=0)

    def test_profile_measure_kinds(self):
        # one pair gives one profile on the grid, normed in its kind's measure
        for kind, measure in ((KernelKind("hT", i=1), "dt"), (KernelKind("dP"), "t_dt")):
            values = kernel_values(0.0, kind, [1.0], [2.0], SMALL_GRID)
            assert values.shape == (1, SMALL_GRID.n)
            assert kind.measure_kind == measure

    def test_equal_grids_share_subordination_matrix(self):
        kernels_mod._subordination_matrix.cache_clear()
        g1 = ZetaGrid(order=5, levels_zero=6, levels_one=6)
        g2 = ZetaGrid(order=5, levels_zero=6, levels_one=6)
        assert g1 == g2 and hash(g1) == hash(g2) and g1 != g1.refined()
        kind = KernelKind("dP")
        v1 = kernel_values(0.0, kind, [[1.0]], [[2.0]], g1)
        v2 = kernel_values(0.0, kind, [[1.0]], [[2.0]], g2)
        assert np.array_equal(v1, v2)
        info = kernels_mod._subordination_matrix.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        with pytest.raises(ValueError):
            g1.t[0] = 1.0

    @staticmethod
    def _per_panel_grid(order, levels_zero, levels_one):
        """The grid built panel by panel with its own Legendre rule: the reference."""
        xg, wg = np.polynomial.legendre.leggauss(order)
        zeta, eta, wz = [], [], []
        for m in range(levels_zero, 0, -1):
            a, b = (0.0 if m == levels_zero else 0.5 ** (m + 1)), 0.5**m
            z = 0.5 * (b - a) * xg + 0.5 * (a + b)
            zeta.append(z)
            eta.append(1.0 - z)
            wz.append(0.5 * (b - a) * wg)
        for m in range(1, levels_one + 1):
            a, b = (0.0 if m == levels_one else 0.5 ** (m + 1)), 0.5**m
            e = 0.5 * (b - a) * xg + 0.5 * (a + b)
            idx = np.argsort(-e)
            eta.append(e[idx])
            zeta.append(1.0 - e[idx])
            wz.append((0.5 * (b - a) * wg)[idx])
        return np.concatenate(zeta), np.concatenate(eta), np.concatenate(wz)

    def test_grid_nodes_increasing_and_rule_export(self):
        for params in [(5, 6, 6), (2, 2, 2), (8, 30, 30), (24, 50, 40)]:
            g = ZetaGrid(*params)
            assert np.all(np.diff(g.zeta) > 0)
            assert np.all((g.zeta > 0) & (g.zeta < 1))
            # bit for bit the per-panel construction, so reports keep their bytes
            for got, want in zip((g.zeta, g.eta, g.wz), self._per_panel_grid(*params)):
                np.testing.assert_array_equal(got, want)

    def test_undifferentiated_kernels_positive(self):
        rng = np.random.default_rng(91)
        for _ in range(20):
            a = tuple(rng.uniform(-0.5, 2.0, 2))
            t = float(rng.uniform(0.05, 2.0))
            x = rng.uniform(0.1, 4.0, 2)
            y = rng.uniform(0.1, 4.0, 2)
            assert heat_kernel_closed(a, t, x, y) > 0
            assert heat_kernel_closed(a, t, x, y, j=1) > 0
            assert poisson_kernel(a, t, x, y) > 0
            assert poisson_kernel(a, t, x, y, j=2) > 0


class TestKernelAssociation:
    """Integrating an entry against f reproduces the derivative semigroup."""

    @pytest.mark.parametrize(
        "kind",
        [KernelKind("dT"), KernelKind("hT", i=1), KernelKind("dP"), KernelKind("hTmodStar", j=1),
         KernelKind("dPmod", j=1)],
        # the kernel's tag and coordinates, then its square function's name
        ids=lambda k: f"{k.tag}-{k.i}-{k.j}-{k.spec.gtag}",
    )
    def test_association_with_spectral_route(self, kind):
        from lps import basis as basis_mod
        from lps.czcheck import random_expansion
        from lps.gfunctions import _amplitudes

        alpha = (0.3,)
        e = random_expansion(alpha, kind.input_family(), nmodes=5, max_level=4, seed=61)
        x = np.array([1.37])
        grid = ZetaGrid(order=6, levels_zero=10, levels_one=12)
        # kernel route: quadrature in y against the synthesized f
        pts, w = basis_mod._quad_grid(basis_mod.as_alpha(alpha), 90)
        fy = basis_mod.synthesize(e, pts)
        vals = kernel_values(alpha, kind, np.repeat(x[None, :], pts.shape[0], axis=0),
                             pts, grid)
        kernel_route = (w * fy) @ vals
        # spectral route: the g-function time integrand at x
        nus, amp = _amplitudes(kind, e, x[None, :])
        spectral_route = (amp.T @ np.exp(-np.outer(nus, grid.t)))[0]
        # the y-grid cannot resolve the near-diagonal kernel spike of width
        # sqrt(t); compare where the kernel is smooth on the grid scale
        # (subordination mixes in heat times down to ~t^2, so Poisson kinds
        # need a larger floor)
        t_floor = 1.0 if kind.is_poisson else 0.1
        window = (grid.t >= t_floor) & (grid.t <= 6.0)
        scale = np.max(np.abs(spectral_route[window]))
        dev = np.max(np.abs(kernel_route[window] - spectral_route[window]))
        assert dev <= 1e-8 * max(scale, 1.0)


class TestBnorm:
    def test_zero_profile(self):
        g = ZetaGrid(order=4, levels_zero=4, levels_one=4)
        assert time_norm(g, "t_dt", np.zeros(g.n)) == 0.0

    @pytest.mark.parametrize("c", [0.7, 2.0, 5.0])
    def test_exponential_t_dt(self, c):
        g = ZetaGrid()
        assert time_norm(g, "t_dt", np.exp(-c * g.t)) == pytest.approx(1.0 / (2.0 * c), rel=1e-9)

    @pytest.mark.parametrize("c", [0.7, 2.0, 5.0])
    def test_exponential_dt(self, c):
        g = ZetaGrid()
        assert time_norm(g, "dt", np.exp(-c * g.t)) == pytest.approx(
            1.0 / math.sqrt(2.0 * c), rel=1e-9)


class TestGridStability:
    def test_three_way_agreement_randomized(self):
        rng = np.random.default_rng(77)
        alphas = [(-0.5,), (0.0,), (1.2,), (0.7, -0.5), (0.0, 0.0)]
        for _ in range(25):
            alpha = alphas[rng.integers(0, len(alphas))]
            d = len(alpha)
            t = float(rng.uniform(0.1, 1.5))
            x = rng.uniform(0.2, 3.0, d)
            y = rng.uniform(0.2, 3.0, d)
            c = heat_kernel_closed(alpha, t, x, y)
            g = heat_kernel_schlafli(alpha, t, x, y, order=64)
            s = heat_kernel_spectral(alpha, t, x, y, 70)
            assert g == pytest.approx(c, rel=1e-7)
            assert s == pytest.approx(c, rel=1e-7)

    def test_norm_stable_under_refinement(self):
        g1 = ZetaGrid(order=8, levels_zero=30, levels_one=30)
        g2 = g1.refined()
        for kind in all_ten_kinds():
            x = np.array([[1.0, 0.8]])
            y = np.array([[1.2, 1.1]])  # separation 0.36
            n1 = float(np.sqrt(kernel_values((0.0, -0.5), kind, x, y, g1) ** 2
                               @ g1.time_weights(kind.measure_kind))[0])
            n2 = float(np.sqrt(kernel_values((0.0, -0.5), kind, x, y, g2) ** 2
                               @ g2.time_weights(kind.measure_kind))[0])
            assert abs(n1 - n2) <= 1e-6 * n2
