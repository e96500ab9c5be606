import math

import mpmath
import numpy as np
import pytest

from lps import basis
from lps import kernels as kernels_mod
from lps.basis import ell_table
from lps.cli import main
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
from lps.measure import as_alpha, as_points, pi_alpha_integrate
from lps.specfun import gauss_laguerre_rule

SMALL_GRID = ZetaGrid(order=6, levels=8)


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
    x = as_points(alpha.d, x)[0][0]
    y = as_points(alpha.d, y)[0][0]
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
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_large_order_against_mpmath(self):
        # the Bessel product underflows at these orders, with x y / sinh 2t in
        # the ive regime (93) and in the series regime (10 and 19); the value
        # was once a silent 0.0
        for a, x, y in ((150.0, 3.0, 3.1), (160.0, 1.0, 1.0), (220.0, 1.2, 1.6)):
            t = 0.05
            got = heat_kernel_closed((a,), t, [x], [y])
            with mpmath.workdps(40):
                a, t, x, y = (mpmath.mpf(v) for v in (a, t, x, y))
                s = mpmath.sinh(2 * t)
                z = x * y / s
                want = float(s ** (-1 - a) * mpmath.besseli(a, z) * z ** (-a)
                             * mpmath.exp(-(x * x + y * y) / (2 * mpmath.tanh(2 * t))))
            assert want > 1e-300
            assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_nan_exponent_raises(self, monkeypatch):
        # a failed evaluation must not pass for an underflow
        def nan_mantissa(a, z):
            return np.full(z.shape, math.nan), np.zeros(z.shape)

        monkeypatch.setattr(kernels_mod, "log_bessel_mantissa_ratio", nan_mantissa)
        x, y = np.array([[1.0]]), np.array([[2.0]])
        with pytest.raises(FloatingPointError, match="NaN"):
            kernels_mod._heat_parts(as_alpha(0.0), x, y, SMALL_GRID.zeta, SMALL_GRID.eta)

    def test_infinite_factor_keeps_underflowed_zero(self):
        # the factor enters only where G_t > 0, so inf * 0 gives no NaN
        x, y = np.array([[0.3]]), np.array([[30.0]])
        parts = kernels_mod._heat_parts(as_alpha(0.0), x, y, SMALL_GRID.zeta, SMALL_GRID.eta)
        assert np.any(parts.g == 0.0) and np.any(parts.g > 0.0)
        parts = parts._replace(ratio=np.full_like(parts.ratio, math.inf))
        vals = kernels_mod._heat_entry(as_alpha(0.0), KernelKind("hT", i=1), parts)
        assert np.all(vals[parts.g == 0.0] == 0.0)
        assert np.all(np.isinf(vals[parts.g > 0.0]))

    def test_overflow_warns_only_where_g_is_used(self):
        # at the smallest times of the deepest grid 1/sinh(2t)^2 overflows:
        # silently where G_t underflowed, with a warning where it did not
        grid = ZetaGrid(order=128, levels=500)
        alpha = as_alpha(0.3)
        far = kernels_mod._heat_parts(alpha, np.array([[1.0]]), np.array([[2.0]]),
                                      grid.zeta, grid.eta)
        assert far.g[0, np.argmin(grid.zeta)] == 0.0
        kernels_mod._heat_entry(alpha, KernelKind("dT"), far)
        kernels_mod._heat_entry(alpha, KernelKind("hT", i=1), far)
        near = kernels_mod._heat_parts(alpha, np.array([[1.0]]), np.array([[1.0]]),
                                       grid.zeta, grid.eta)
        assert near.g[0, np.argmin(grid.zeta)] > 0.0
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            kernels_mod._heat_entry(alpha, KernelKind("dT"), near)

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


class TestBatchedClosed:
    @pytest.mark.parametrize("alpha", [(0.3,), (0.0, -0.5), (0.3, -0.5, 1.2), (20.0, 0.0)])
    def test_per_pair_times_equal_per_sample_bit_for_bit(self, alpha):
        a = as_alpha(alpha)
        rng = np.random.default_rng(23)
        n = 40
        t = np.exp(rng.uniform(-6.0, 3.0, n))
        x, y = rng.uniform(0.05, 8.0, (2, n, a.d))
        underflows = False
        for j in [None] + list(range(1, a.d + 1)):
            got = kernels_mod._heat_closed(a, t[:, None], x, y, j)
            assert got.shape == (n, 1)
            want = [heat_kernel_closed(alpha, ti, xi, yi, j) for ti, xi, yi in zip(t, x, y)]
            assert got[:, 0].tolist() == want
            underflows |= 0.0 in want
        assert underflows

    @pytest.mark.parametrize("alpha", [(0.3,), (0.0, -0.5), (0.3, -0.5, 1.2), (20.0, 0.0)])
    def test_shared_times_equal_tiled_times_bit_for_bit(self, alpha):
        a = as_alpha(alpha)
        rng = np.random.default_rng(29)
        x, y = rng.uniform(0.05, 8.0, (2, 9, a.d))
        zeta, eta = SMALL_GRID.zeta, SMALL_GRID.eta
        shared = kernels_mod._heat_parts(a, x, y, zeta, eta)
        tiled = kernels_mod._heat_parts(a, x, y, np.tile(zeta, (9, 1)), np.tile(eta, (9, 1)))
        assert np.any(shared.g == 0.0) and np.any(shared.g > 0.0)
        assert shared.g.tobytes() == tiled.g.tobytes()
        assert shared.ratio.tobytes() == tiled.ratio.tobytes()


def _pair_spectral(alpha, t, x, y, cutoff):
    """The spectral sum of one pair from tables built on that pair alone."""
    level = None
    for table in ell_table(alpha, cutoff, np.vstack([x, y])):
        v = table[:, 0] * table[:, 1]
        level = v if level is None else np.convolve(level, v)
    lam = 4.0 * np.arange(cutoff + 1) + 2.0 * alpha.total + 2.0 * alpha.d
    return float(np.sum(np.exp(-t * lam) * level[: cutoff + 1]))


class TestBatchedSpectral:
    @pytest.mark.parametrize("alpha", [(0.3,), (-0.5,), (0.0, -0.5), (0.3, 1.7),
                                       (0.3, -0.5, 1.2), (0.5, 1.5, -0.5)])
    @pytest.mark.parametrize("cutoff", [0, 1, 60])
    def test_equals_per_sample_bit_for_bit(self, alpha, cutoff):
        a = as_alpha(alpha)
        rng = np.random.default_rng(17)
        t = rng.uniform(0.1, 2.0, 7)
        x, y = rng.uniform(0.2, 4.0, (2, 7, a.d))
        got = kernels_mod._heat_spectral(a, t, x, y, cutoff)
        want = [heat_kernel_spectral(alpha, ti, xi, yi, cutoff) for ti, xi, yi in zip(t, x, y)]
        assert got.tolist() == want
        assert want == [_pair_spectral(a, ti, xi, yi, cutoff) for ti, xi, yi in zip(t, x, y)]

    @pytest.mark.parametrize("alpha", ["0.3", "0, -0.5", "0.3, -0.5, 1.2"])
    def test_kernel_rows_build_one_table_per_coordinate(self, tmp_path, monkeypatch, alpha):
        built = []
        table_1d = basis._ell_table_1d

        def counted(a, kmax, xi):
            built.append(xi.shape)
            return table_1d(a, kmax, xi)

        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"alpha = {alpha}\ncount = 5\nbox_hi = 2\nquad_order = 16\n")
        monkeypatch.setattr(basis, "_ell_table_1d", counted)
        code = main(["kernel", "--config", str(cfg), "--seed", "3", "--no-timestamp",
                     "--out", str(tmp_path / "r.csv")])
        assert code == 0
        # columns 0-4 are the samples' x, columns 5-9 their y
        assert built == [(10,)] * len(alpha.split(","))


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

    @pytest.mark.parametrize("alpha, order", [((0.3,), 64), ((-0.5, 0.7), 64),
                                              ((0.3, -0.5, 1.2), 32),
                                              ((-0.5, 1.5, 0.3, 0.0), 16)],
                             ids=["d1", "d2", "d3", "d4"])
    def test_factored_sum_is_the_tensor_sum(self, alpha, order):
        # the sum by coordinates against the integrand summed on Pi_alpha's tensor
        # rule.  The last sample's e^(x y / zeta) overflows unless its sum is
        # shifted; its exponents reach 1300 per coordinate, and their rounding
        # alone moves either sum by about 1300 d eps
        a = as_alpha(alpha)
        rng = np.random.default_rng(12)
        samples = [(rng.uniform(0.1, 2.0), *rng.uniform(0.2, 4.0, (2, a.d))) for _ in range(20)]
        samples.append((0.01, np.full(a.d, 5.0), np.full(a.d, 5.2)))
        for n, (t, x, y) in enumerate(samples):
            zeta, sq = math.tanh(t), x @ x + y @ y

            def integrand(s):
                cross = 2.0 * (s @ (x * y))
                return np.exp(-(sq + cross) / (4.0 * zeta) - 0.25 * zeta * (sq - cross))

            pref = ((1.0 - zeta * zeta) / (2.0 * zeta)) ** (a.d + a.total)
            want = pref * pi_alpha_integrate(a, integrand, order)
            rel = 5e-14 if n < 20 else 4e-13 * a.d
            assert heat_kernel_schlafli(a, t, x, y, order) == pytest.approx(want, rel=rel, abs=0)


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

    @pytest.mark.parametrize("params", [(4, 6), (6, 16), (8, 30), (16, 30)],
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


def gram_norms_squared(heat, time_derivative):
    """||h F||^2 per row of heat values h on the inner grid."""
    return np.sum(kernels_mod._gram_rows(heat, time_derivative) ** 2, axis=1)


class TestGramForm:
    """Poisson norms in closed form in time: ||P||^2 = h^T W M W h = ||h F||^2."""

    @staticmethod
    def _mixture_norms(lam, coeffs, time_derivative):
        """Closed-form squared L^2(t dt) norms of sum_m c_m e^(-t sqrt(lam_m)) (times -sqrt(lam_m))."""
        s = np.sqrt(lam)
        gram = 1.0 / np.add.outer(s, s) ** 2
        if time_derivative:
            gram = gram * np.outer(s, s)
        return np.einsum("pm,mn,pn->p", coeffs, gram, coeffs)

    @pytest.mark.parametrize("time_derivative", [False, True], ids=["space", "time"])
    def test_per_mode_closed_forms(self, time_derivative):
        # heat entries sum_m c_m e^(-lam_m tau), or -sum_m c_m lam_m e^(-lam_m tau)
        # for the time derivative, subordinate to sum_m c_m e^(-t sqrt(lam_m)),
        # or its t-derivative
        inner = kernels_mod._default_inner_grid()
        lam = np.arange(1.0, 51.0)
        modes = np.exp(-np.outer(lam, inner.t))
        if time_derivative:
            modes = -lam[:, None] * modes
        coeffs = np.vstack([np.eye(lam.size),
                            np.random.default_rng(3).normal(size=(20, lam.size))])
        got = gram_norms_squared(coeffs @ modes, time_derivative)
        want = self._mixture_norms(lam, coeffs, time_derivative)
        assert np.max(np.abs(got - want) / want) <= 1e-10

    @pytest.mark.parametrize("alpha", [(-0.5,), (0.0, -0.5)], ids=["d1", "d2"])
    def test_low_rank_matches_dense_gram(self, alpha):
        # h F F^T h^T against h^T W M W h with the dense closed-form M, on the
        # entries of every heat kind (those the Poisson kinds are subordinated
        # from) and their differences under a 0.1% perturbation of x
        inner = kernels_mod._default_inner_grid()
        u = np.log(inner.t)
        half = 0.5 * np.subtract.outer(u, u)
        w = inner.wz * inner.jacobian
        dense = {True: 1.0 / (math.pi * np.cosh(half)),
                 False: 0.5 / (math.pi * np.cosh(half) ** 2) / np.sqrt(np.outer(inner.t, inner.t))}
        rng = np.random.default_rng(8)
        x = np.exp(rng.uniform(math.log(0.05), math.log(10.0), (16, len(alpha))))
        y = np.exp(rng.uniform(math.log(0.05), math.log(10.0), (16, len(alpha))))
        xp = x * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, x.shape))
        for kind in kernels_mod.default_kinds(len(alpha)):
            if kind.is_poisson:
                continue
            heat = kernel_values(alpha, kind, x, y, inner)
            heat = np.vstack([heat, heat - kernel_values(alpha, kind, xp, y, inner)])
            for time_derivative in (True, False):
                wh = heat * w
                want = np.einsum("pm,mn,pn->p", wh, dense[time_derivative], wh)
                got = gram_norms_squared(heat, time_derivative)
                assert np.max(np.abs(np.sqrt(got) - np.sqrt(want)) / np.sqrt(want)) <= 1e-13, \
                    (kind.tag, time_derivative)

    def test_factor_rank_and_cache(self):
        # the pivoted Cholesky keeps a small share of the inner nodes, once per
        # process; the inner grid ZetaGrid(12, 40) fills 13 node chunks
        inner = kernels_mod._default_inner_grid()
        assert (inner.order, inner.levels, inner.n) == (12, 40, 13 * kernels_mod._GRAM_CHUNK)
        for time_derivative in (True, False):
            f = kernels_mod._gram_factor(time_derivative)
            chunks, chunk, rank = f.shape
            assert chunks * chunk == inner.n and chunk % inner.order == 0
            assert 100 <= rank <= 250
            assert kernels_mod._gram_factor(time_derivative) is f

    @pytest.mark.bitexact
    def test_rows_independent_of_batch(self):
        # a row's Gram row keeps its bits whatever block and position it is taken in
        inner = kernels_mod._default_inner_grid()
        heat = np.random.default_rng(4).normal(size=(45, inner.n)) * np.exp(-inner.t)
        rows = kernels_mod._gram_rows(heat, True)
        assert rows.shape[0] == 45
        for p in (0, 31, 32, 44):
            assert np.array_equal(kernels_mod._gram_rows(heat[p:p + 1], True)[0], rows[p])
        assert np.array_equal(kernels_mod._gram_rows(heat[13:], True), rows[13:])


    @pytest.mark.bitexact
    @pytest.mark.parametrize("alpha", [(-0.5,), (0.0, -0.5)], ids=["d1", "d2"])
    def test_cut_rows_equal_uncut_rows_bit_for_bit(self, alpha):
        # heat parts cut to the chunks from the first one with a live entry
        # give every kind's Gram rows the bits of the whole inner grid, on two
        # blocks of near and far pairs
        a = as_alpha(alpha)
        inner = kernels_mod._default_inner_grid()
        rng = np.random.default_rng(11)
        x = np.exp(rng.uniform(math.log(0.05), math.log(10.0), (40, a.d)))
        far = np.exp(rng.uniform(math.log(0.05), math.log(10.0), x.shape))
        near = x * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, x.shape))
        y = np.where(np.arange(40)[:, None] % 3 == 0, near, far)
        kinds = kernels_mod.default_kinds(a.d)
        assert len(kinds) == (8 if a.d == 1 else 10)
        skipped = set()
        for kind in kinds:
            base = a.shifted(kind.j) if kind.spec.modified else a
            whole = kernels_mod._heat_parts(base, x, y, inner.zeta, inner.eta)
            cut = kernels_mod._heat_parts(base, x, y, inner.zeta, inner.eta,
                                          chunk=kernels_mod._GRAM_CHUNK)
            full = kernels_mod._heat_entry(a, kind, whole)
            part = kernels_mod._heat_entry(a, kind, cut)
            start = inner.n - part.shape[1]
            skipped.add(start // kernels_mod._GRAM_CHUNK)
            assert start % kernels_mod._GRAM_CHUNK == 0
            assert not full[:, :start].any()
            assert full[:, start:].tobytes() == part.tobytes(), kind.tag
            for time_derivative in (True, False):
                want = kernels_mod._gram_rows(full, time_derivative)
                got = kernels_mod._gram_rows(part, time_derivative)
                assert got.tobytes() == want.tobytes(), (kind.tag, time_derivative)
        assert min(skipped) > 0


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
        # space-derivative heat kinds live in L^2(dt) (p = 1), everything else
        # in L^2(t dt) (p = 2)
        assert KernelKind("hT", i=1).time_power == 1
        assert KernelKind("hTmod", i=2, j=1).time_power == 1
        assert KernelKind("hTmodStar", j=1).time_power == 1
        for kind in (KernelKind("dT"), KernelKind("dP"), KernelKind("hP", i=1),
                     KernelKind("dTmod", j=1), KernelKind("dPmod", j=1),
                     KernelKind("hPmod", i=2, j=1), KernelKind("hPmodStar", j=1)):
            assert kind.time_power == 2

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
        for kind, power in ((KernelKind("hT", i=1), 1), (KernelKind("dP"), 2)):
            values = kernel_values(0.0, kind, [1.0], [2.0], SMALL_GRID)
            assert values.shape == (1, SMALL_GRID.n)
            assert kind.time_power == power

    def test_grid_and_gram_factor_read_only(self):
        # arrays shared by every caller: the grid's nodes and the Gram factors
        g = ZetaGrid(order=5, levels=6)
        for arr in (g.zeta, g.eta, g.wz, g.t, g.jacobian,
                    kernels_mod._gram_factor(True), kernels_mod._gram_factor(False)):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0

    @staticmethod
    def _per_panel_grid(order, levels):
        """The grid built panel by panel with its own Legendre rule: the reference.

        zeta panels graded toward 0 up to zeta = 1/2, then TOP_PANELS equal
        panels in u = log t up to T_MAX, where wz = t w_u (1 + zeta) eta is
        the weight in zeta.
        """
        xg, wg = np.polynomial.legendre.leggauss(order)
        zeta, eta, wz, t = [], [], [], []
        for m in range(levels, 0, -1):
            a, b = (0.0 if m == levels else 0.5 ** (m + 1)), 0.5**m
            z = 0.5 * (b - a) * xg + 0.5 * (a + b)
            zeta.append(z)
            eta.append(1.0 - z)
            wz.append(0.5 * (b - a) * wg)
            t.append(0.5 * (np.log1p(z) - np.log(1.0 - z)))
        edges = np.linspace(math.log(math.atanh(0.5)), math.log(kernels_mod.T_MAX),
                            kernels_mod.TOP_PANELS + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            tu = np.exp(0.5 * (b - a) * xg + 0.5 * (a + b))
            e2 = np.exp(-2.0 * tu)
            zeta.append(np.tanh(tu))
            eta.append(2.0 * e2 / (1.0 + e2))
            wz.append(tu * (0.5 * (b - a) * wg) * (1.0 + zeta[-1]) * eta[-1])
            t.append(tu)
        return tuple(np.concatenate(v) for v in (zeta, eta, wz, t))

    @pytest.mark.bitexact
    def test_grid_nodes_increasing_and_rule_export(self):
        for order, levels in [(5, 6), (2, 2), (8, 30), (12, 40), (24, 50)]:
            g = ZetaGrid(order, levels)
            assert g.n == order * (levels + kernels_mod.TOP_PANELS)
            # t increases strictly to T_MAX.  eta = 1 - zeta and zeta = tanh t
            # round toward 1 in doubles, at the zeta end and from t of about 19:
            # both are monotone in (0, 1], and each is strict at the end whose
            # small quantity it carries, eta on the panels in log t
            top = levels * order
            assert np.all(np.diff(g.t) > 0) and 0 < g.t[0] and g.t[-1] < kernels_mod.T_MAX
            for arr, sign in ((g.eta, -1.0), (g.zeta, 1.0)):
                assert np.all((arr > 0) & (arr <= 1)) and np.all(sign * np.diff(arr) >= 0)
            assert np.all(np.diff(g.zeta[:top]) > 0) and np.all(np.diff(g.eta[top - 1:]) < 0)
            assert np.all(g.eta[top - 1:] < 1)
            assert np.all(g.wz > 0)
            np.testing.assert_array_equal(g.jacobian, 1.0 / ((1.0 + g.zeta) * g.eta))
            # bit for bit the per-panel construction, so reports keep their bytes
            for got, want in zip((g.zeta, g.eta, g.wz, g.t), self._per_panel_grid(order, levels)):
                np.testing.assert_array_equal(got, want)
            # refinement doubles the order on the same panels
            r = g.refined()
            assert (r.order, r.levels, r.n) == (2 * order, levels, 2 * g.n)

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
        grid = ZetaGrid(order=6, levels=10)
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
    """ZetaGrid.norms of e^(-ct), whose square is int_0^inf e^(-2ct) t^(p-1) dt = (p-1)!/(2c)^p."""

    def test_zero_profile(self):
        g = ZetaGrid(order=4, levels=4)
        assert g.norms(np.zeros(g.n), 2) == 0.0

    @pytest.mark.parametrize("c", [0.7, 2.0, 5.0])
    def test_exponential_t_dt(self, c):
        g = ZetaGrid()
        assert g.norms(np.exp(-c * g.t), 2) == pytest.approx(1.0 / (2.0 * c), rel=1e-9)

    @pytest.mark.parametrize("c", [0.7, 2.0, 5.0])
    def test_exponential_dt(self, c):
        g = ZetaGrid()
        assert g.norms(np.exp(-c * g.t), 1) == pytest.approx(1.0 / math.sqrt(2.0 * c), rel=1e-9)

    @pytest.mark.bitexact
    @pytest.mark.parametrize("power", [1, 2])
    def test_default_grid_exponential_moments(self, power):
        # int_0^inf t^(p-1) e^(-2 nu t) dt = Gamma(p)/(2 nu)^p from the slowest
        # decay czscan meets, lambda_0 = 1, to the zeta end's fast rates
        g = ZetaGrid()
        for nu in np.geomspace(0.5, 50.0, 41):
            want = math.gamma(power) / (2.0 * nu) ** power
            assert abs(g.norms(np.exp(-nu * g.t), power) ** 2 - want) <= 1e-14 * want, nu

    @pytest.mark.parametrize("power", [1, 2])
    def test_batch_norms_are_row_norms(self, power):
        # a row's norm keeps its bits whatever batch it is taken in
        g = ZetaGrid(order=8, levels=30)
        rows = np.random.default_rng(5).normal(size=(7, g.n)) * np.exp(-g.t)
        batch = g.norms(rows, power)
        assert batch.shape == (7,)
        for p in range(7):
            assert batch[p] == g.norms(rows[p], power)
            assert batch[p] == g.norms(rows[p:p + 1], power)[0]
        assert np.array_equal(g.norms(rows.reshape(7, 1, g.n), power), batch[:, None])


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
        g1 = ZetaGrid(order=8, levels=30)
        g2 = g1.refined()
        for kind in all_ten_kinds():
            x = np.array([[1.0, 0.8]])
            y = np.array([[1.2, 1.1]])  # separation 0.36
            n1 = g1.norms(kernel_values((0.0, -0.5), kind, x, y, g1), kind.time_power)[0]
            n2 = g2.norms(kernel_values((0.0, -0.5), kind, x, y, g2), kind.time_power)[0]
            assert abs(n1 - n2) <= 1e-6 * n2


@pytest.mark.bitexact
@pytest.mark.parametrize("n", [1, 2, 3, 4, 480])
def test_row_dots_match_per_row_dots(n):
    # one BLAS dot per row, as np.dot and np.linalg.norm take it
    from lps.kernels import _row_dots

    rng = np.random.default_rng(n)
    a = rng.normal(size=(4000 // n + 50, n)) * np.exp(rng.uniform(-5, 5, (4000 // n + 50, 1)))
    b = rng.normal(size=n)
    assert np.array_equal(_row_dots(a, a), [np.dot(r, r) for r in a])
    assert np.array_equal(np.sqrt(_row_dots(a, a)), [np.linalg.norm(r) for r in a])
    assert np.array_equal(_row_dots(a, b), [np.dot(r, b) for r in a])


def _scipy_live_entries(acomp, logg):
    """_live_entries with its bound from scipy's gammaln, which differs from
    math.lgamma in the last bit at most arguments."""
    from scipy.special import gammaln

    if acomp.min() < -0.5:
        return Ellipsis
    top = sum(-a * math.log(2.0) - gammaln(a + 1.0) for a in acomp)
    return logg + top > kernels_mod.LOG_FLOOR - 1.0


def _logg(acomp, x, y, grid):
    """The Gaussian part log G_t of _heat_parts, (P, T)."""
    zeta, eta = grid.zeta, grid.eta
    inv_s = 0.5 * (1.0 + zeta) * eta / zeta
    core = (-0.5 * zeta * (np.sum(x * x, axis=1) + np.sum(y * y, axis=1))[:, None]
            - 0.5 * np.sum((x - y) ** 2, axis=1)[:, None] * inv_s)
    log_s = np.log(2.0 * zeta) - np.log1p(zeta) - np.log(eta)
    return core - (len(acomp) + acomp.sum()) * log_s


def _pairs_on_bound(acomp, grid):
    """1-d pairs (1e-3, y) whose entry at the first node past zeta = 0.3 lies within
    1e-12 of the _live_entries bound: y by bisection, then its neighbours.  There
    x y / sinh 2t is below 0.1, so the Bessel factors stay near their bound too."""
    node = int(np.argmax(grid.zeta > 0.3))
    top = sum(-a * math.log(2.0) - math.lgamma(a + 1.0) for a in acomp)
    gap = lambda y: _logg(acomp, np.full_like(y, 1e-3), y, grid)[:, node] + top - (
        kernels_mod.LOG_FLOOR - 1.0)
    lo, hi = 1.0, 1e6  # the Gaussian part falls as y moves away from x
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gap(np.array([[mid]]))[0] > 0 else (lo, mid)
    y = lo * (1.0 + np.arange(-100, 100) * 2.0**-52)[:, None]
    y = y[np.abs(gap(y)) < 1e-12]
    assert len(y) >= 5
    return np.full_like(y, 1e-3), y


@pytest.mark.bitexact
class TestLiveBound:
    """The bound of _live_entries from math.lgamma gives every kind's values the
    bytes of the bound from scipy's gammaln: it only decides which entries
    skip the Bessel factors, with one log unit of margin."""

    def values(self, alpha, x, y, grids):
        return [(k, g, v.tobytes()) for k, g, v in kernels_mod._kind_values(
            alpha, kernels_mod.default_kinds(len(alpha)), x, y, grids)]

    def test_deep_grid_pairs(self, monkeypatch):
        # the pairs and grids of the czscan-d1-deep-grid golden report
        from lps.czcheck import sample_pairs, sample_perturbed

        x, y = sample_pairs(1, 3, 7)
        xp, yp = sample_perturbed(x, y, 8), sample_perturbed(y, x, 9)
        x, y = np.vstack([x, xp, x]), np.vstack([y, y, yp])
        grids = (ZetaGrid(64, 500), ZetaGrid(64, 500).refined())
        ours = self.values((0.3,), x, y, grids)
        monkeypatch.setattr(kernels_mod, "_live_entries", _scipy_live_entries)
        assert self.values((0.3,), x, y, grids) == ours

    @pytest.mark.parametrize("a", [0.3, 150.3])
    def test_pairs_on_the_bound(self, monkeypatch, a):
        # pairs on the bound of each base (alpha and alpha + e_1) on each time
        # grid: the heat kinds' grid and the Poisson kinds' inner grid
        grid, inner = ZetaGrid(6, 16), kernels_mod._default_inner_grid()
        x, y = map(np.vstack, zip(*[_pairs_on_bound(np.array([b]), g)
                                    for b in (a, a + 1.0) for g in (grid, inner)]))
        live, flips = kernels_mod._live_entries, []

        def spy(acomp, logg):
            mask = live(acomp, logg)
            flips.append(int(np.sum(mask != _scipy_live_entries(acomp, logg))))
            return mask

        monkeypatch.setattr(kernels_mod, "_live_entries", spy)
        ours = self.values((a,), x, y, (grid,))
        monkeypatch.setattr(kernels_mod, "_live_entries", _scipy_live_entries)
        assert self.values((a,), x, y, (grid,)) == ours
        # at 151.3 the two bounds differ by one ulp of LOG_FLOOR, and entries flip
        assert a < 100 or sum(flips) > 0
