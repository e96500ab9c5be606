import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scipy.special import gammaln, ive

from lps.basis import ell
from lps.specfun import (
    QuadratureRule,
    composite_legendre_rule,
    gauss_jacobi_rule,
    gauss_laguerre_rule,
    gauss_legendre_rule,
    log_bessel_mantissa_ratio,
    tensor_rule,
)


def laguerre_series(k, a, x):
    """Independent oracle: L_k^a(x) = sum_i binom(k+a, k-i) (-x)^i / i!."""
    total = mpmath.mpf(0)
    with mpmath.workdps(50):
        a = mpmath.mpf(a)  # the gamma arguments must not round in doubles
        for i in range(k + 1):
            binom = mpmath.gamma(k + a + 1) / (
                mpmath.gamma(a + i + 1) * mpmath.factorial(k - i)
            )
            total += binom * (-mpmath.mpf(x)) ** i / mpmath.factorial(i)
    return float(total)


def bessel_series_oracle(nu, z, terms=40):
    """Truncated power series of z^-nu I_nu(z) in extended precision."""
    with mpmath.workdps(60):
        w = mpmath.mpf(z) ** 2 / 4
        acc = mpmath.mpf(0)
        for m in range(terms):
            acc += w**m / (mpmath.factorial(m) * mpmath.gamma(m + nu + 1))
        return float(acc / mpmath.mpf(2) ** nu)


def scaled_bessel_i(nu, z):
    """i_nu(z) = z^(-nu) I_nu(z) as exp(logm + z) of the one Bessel primitive."""
    logm, _ = log_bessel_mantissa_ratio(nu, z)
    return np.exp(logm + np.asarray(z, dtype=float))


def integrate(rule, f):
    """sum_q w_q f(u_q) over the nodes of a QuadratureRule."""
    return float(np.sum(rule.weights * f(rule.nodes)))


class TestScaledBessel:
    def test_value_at_zero(self):
        for nu in (-0.5, 0.0, 1.0, 2.7):
            want = 1.0 / (2.0**nu * math.gamma(nu + 1.0))
            assert scaled_bessel_i(nu, 0.0) == pytest.approx(want, rel=1e-13)

    def test_half_order_sinh(self):
        want = math.sqrt(2.0 / math.pi) * math.sinh(1.0)
        assert scaled_bessel_i(0.5, 1.0) == pytest.approx(want, rel=1e-12)
        assert scaled_bessel_i(0.5, 1.0) == pytest.approx(
            bessel_series_oracle(0.5, 1.0), rel=1e-12
        )

    def test_minus_half_order_cosh(self):
        # i_(-1/2)(z) = sqrt(2/pi) cosh(z) * z^(1/2) / z^(1/2) ... = sqrt(2/pi) cosh z
        got = scaled_bessel_i(-0.5, 2.0)
        assert got == pytest.approx(bessel_series_oracle(-0.5, 2.0), rel=1e-12)
        assert got == pytest.approx(math.sqrt(2.0 / math.pi) * math.cosh(2.0), rel=1e-12)

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.3, 1.0, 3.5])
    def test_against_mpmath_both_regimes(self, nu):
        for z in (0.01, 0.5, 5.0, 19.9, 20.1, 50.0, 300.0):
            with mpmath.workdps(40):
                want = float(mpmath.besseli(nu, z) / mpmath.mpf(z) ** nu)
            assert scaled_bessel_i(nu, z) == pytest.approx(want, rel=1e-10)

    def test_log_mantissa_large_argument(self):
        logm, _ = log_bessel_mantissa_ratio(0.7, 5000.0)
        with mpmath.workdps(60):
            want = float(mpmath.log(mpmath.besseli(0.7, 5000)) - 0.7 * mpmath.log(5000))
        assert logm + 5000.0 == pytest.approx(want, rel=1e-12)

    def test_log_mantissa_matches(self):
        for z in (0.1, 3.0, 19.0, 25.0, 1e4):
            lm, _ = log_bessel_mantissa_ratio(1.2, z)
            with mpmath.workdps(60):
                want = float(
                    mpmath.log(mpmath.besseli(1.2, z)) - 1.2 * mpmath.log(z) - z
                )
            assert lm == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_positive_and_nondecreasing(self):
        zs = np.linspace(0.0, 60.0, 400)
        for nu in (-0.5, 0.0, 1.3, 4.0):
            vals = scaled_bessel_i(nu, zs)
            assert np.all(vals > 0)
            assert np.all(np.diff(vals) >= 0)

    def test_ratio(self):
        for nu, z in [(0.0, 0.5), (1.3, 8.0), (-0.5, 30.0), (2.0, 100.0)]:
            want = bessel_series_oracle(nu + 1, z, 200) / bessel_series_oracle(nu, z, 200) \
                if z < 25 else None
            _, got = log_bessel_mantissa_ratio(nu, z)
            if want is not None:
                assert got == pytest.approx(want, rel=1e-10)
            with mpmath.workdps(50):
                ref = float(mpmath.besseli(nu + 1, z) / (z * mpmath.besseli(nu, z)))
            assert got == pytest.approx(ref, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            scaled_bessel_i(0.0, -1.0)


class TestBesselMantissaRatio:
    """log(e^-z i_nu(z)) and i_(nu+1)/i_nu from the one-pass primitive."""

    @pytest.mark.parametrize("nu", [-0.75, -0.5, 0.0, 0.3, 1.0, 3.5])
    def test_against_mpmath_both_regimes(self, nu):
        zs = np.array([0.01, 0.5, 5.0, 19.9, 20.1, 50.0, 300.0, 1e4])
        logm, ratio = log_bessel_mantissa_ratio(nu, zs)
        for z, lm, r in zip(zs, logm, ratio):
            with mpmath.workdps(60):
                z = mpmath.mpf(float(z))
                i_nu = mpmath.besseli(nu, z)
                want_lm = float(mpmath.log(i_nu) - nu * mpmath.log(z) - z)
                want_r = float(mpmath.besseli(nu + 1, z) / (z * i_nu))
            assert lm == pytest.approx(want_lm, rel=1e-9, abs=1e-12)
            assert r == pytest.approx(want_r, rel=1e-10)

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.3, 1.0, 3.5, 12.0])
    def test_hankel_branch_against_mpmath(self, nu):
        # scipy's ive returns NaN above 2^30 - 1/2, where the Hankel expansion
        # takes over; the first argument is the last one ive still serves
        zs = np.array([2.0**30 - 1.5, 2.0**30 - 1.0, 2.0**30, 3.7e9, 1e10, 2.5e11, 1e12])
        logm, ratio = log_bessel_mantissa_ratio(nu, zs)
        for z, lm, r in zip(zs, logm, ratio):
            with mpmath.workdps(60):
                z = mpmath.mpf(float(z))
                i_nu = mpmath.besseli(nu, z)
                want_lm = float(mpmath.log(i_nu) - nu * mpmath.log(z) - z)
                want_r = float(mpmath.besseli(nu + 1, z) / (z * i_nu))
            assert lm == pytest.approx(want_lm, rel=1e-15, abs=1e-14)
            assert r == pytest.approx(want_r, rel=1e-15)

    @pytest.mark.parametrize("nu", [150.0, 200.0, 250.5])
    def test_large_orders_against_mpmath(self, nu):
        # z^-nu e^-z I_nu(z) lies below the smallest double here, in the ive
        # regime (z >= 20) and in the series regime, where i_(nu+1)(0)
        # underflows from nu of about 149; its log was once -inf in both
        zs = np.array([0.0, 1e-3, 0.7, 9.98, 19.9, 20.0, 20.1, 50.0, 300.0, 1e4])
        logm, ratio = log_bessel_mantissa_ratio(nu, zs)
        assert logm[0] == pytest.approx(-nu * math.log(2.0) - gammaln(nu + 1.0), rel=1e-15)
        assert ratio[0] == pytest.approx(0.5 / (nu + 1.0), rel=1e-15, abs=0.0)
        for z, lm, r in zip(zs[1:], logm[1:], ratio[1:]):
            with mpmath.workdps(60):
                z = mpmath.mpf(float(z))
                i_nu = mpmath.besseli(nu, z)
                want_lm = float(mpmath.log(i_nu) - nu * mpmath.log(z) - z)
                want_r = float(mpmath.besseli(nu + 1, z) / (z * i_nu))
            assert lm == pytest.approx(want_lm, rel=1e-13, abs=0.0)
            assert r == pytest.approx(want_r, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("nu", [145.0, 148.0])
    def test_series_ratio_relative_to_value_at_zero(self, nu):
        # both series are summed relative to i_nu(0); from two starting terms
        # rounded on their own the ratio was off by 2.7e-14 and 9.5e-14 here
        zs = np.linspace(0.0, 19.9, 41)
        _, ratio = log_bessel_mantissa_ratio(nu, zs)
        for z, r in zip(zs[1:], ratio[1:]):
            with mpmath.workdps(60):
                z = mpmath.mpf(float(z))
                want = float(mpmath.besseli(nu + 1, z) / (z * mpmath.besseli(nu, z)))
            assert r == pytest.approx(want, rel=2e-15, abs=0.0)
        assert ratio[0] == 0.5 / (nu + 1.0)

    @pytest.mark.parametrize("nu,z", [(320.0, 20.5), (290.0, 20.0)])
    def test_ive_underflow_takes_the_series(self, nu, z):
        # scipy's ive underflows to 0 at (nu, z), which gave (-inf, nan); the
        # second argument still takes ive, with the values it has alone
        assert ive(nu, z) == 0.0 and ive(nu + 1.0, 1000.0) > 1e-300
        logm, ratio = log_bessel_mantissa_ratio(nu, np.array([z, 1000.0]))
        assert (logm[1], ratio[1]) == log_bessel_mantissa_ratio(nu, 1000.0)
        with mpmath.workdps(60):
            z = mpmath.mpf(z)
            i_nu = mpmath.besseli(nu, z)
            want_lm = float(mpmath.log(i_nu) - nu * mpmath.log(z) - z)
            want_r = float(mpmath.besseli(nu + 1, z) / (z * i_nu))
        assert logm[0] == pytest.approx(want_lm, rel=1e-15, abs=0.0)
        assert ratio[0] == pytest.approx(want_r, rel=2e-15, abs=0.0)

    def test_series_that_does_not_converge_raises(self):
        # ive underflows at this order, and the series needs far more terms
        with pytest.raises(FloatingPointError, match="did not converge"):
            log_bessel_mantissa_ratio(3000.0, 3000.0)

    @pytest.mark.parametrize("nu", [0.3, 3.5, 60.0])
    def test_ive_regime_keeps_its_bits(self, nu):
        # the log of the product, unchanged wherever it stays a normal double;
        # orders -1/2 and 1/2 take closed forms and no longer reach ive
        zs = np.array([20.0, 37.5, 400.0, 3000.0])
        logm, _ = log_bessel_mantissa_ratio(nu, zs)
        assert np.array_equal(logm, np.log(ive(nu, zs) * zs ** (-nu)))

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.3, 1.0, 3.5])
    def test_log_mantissa_below_value_at_zero(self, nu):
        # e^-z i_nu(z) decreases from i_nu(0) for nu >= -1/2: the bound the
        # kernels use to skip entries that underflow anyway
        zs = np.concatenate([np.linspace(0.0, 60.0, 24001), np.geomspace(60.0, 1e5, 2000)])
        logm, _ = log_bessel_mantissa_ratio(nu, zs)
        top = -nu * math.log(2.0) - gammaln(nu + 1.0)
        assert np.all(logm <= top + 1e-12)

    def test_shapes(self):
        lm, r = log_bessel_mantissa_ratio(0.5, 3.0)
        assert isinstance(lm, float) and isinstance(r, float)
        zs = np.linspace(0.0, 40.0, 12).reshape(3, 4)
        lm, r = log_bessel_mantissa_ratio(0.5, zs[:, ::2])
        assert lm.shape == r.shape == (3, 2)
        flat_lm, flat_r = log_bessel_mantissa_ratio(0.5, zs[:, ::2].ravel())
        assert np.array_equal(lm.ravel(), flat_lm) and np.array_equal(r.ravel(), flat_r)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_bessel_mantissa_ratio(-1.0, 1.0)
        with pytest.raises(ValueError):
            log_bessel_mantissa_ratio(0.0, [1.0, -1.0])


class TestHalfOrderClosedForms:
    """nu = -1/2 and 1/2: elementary forms at every z, against mpmath."""

    @pytest.mark.parametrize("nu", [-0.5, 0.5])
    def test_against_mpmath(self, nu):
        # both sides of the continued-fraction switch and of the other orders'
        # switches to ive and to the Hankel expansion, and log-uniform draws
        edges = [2.0, 20.0, 2.0**30 - 1.0]
        sides = [np.nextafter(e, 0.0) for e in edges] + edges + [np.nextafter(e, np.inf) for e in edges]
        logu = np.exp(np.random.default_rng(13).uniform(math.log(1e-8), math.log(5e9), 300))
        zs = np.concatenate([[0.0, 1e-300], sides, logu])
        logm, ratio = log_bessel_mantissa_ratio(nu, zs)
        for z, lm, r in zip(zs, logm, ratio):
            with mpmath.workdps(60):
                if z == 0.0:  # the limits: log i_nu(0) and 1/(2 nu + 2)
                    want_lm = float(-nu * mpmath.log(2) - mpmath.loggamma(nu + 1))
                    want_r = 1.0 / (2.0 * nu + 2.0)
                else:
                    zm = mpmath.mpf(float(z))
                    i_nu = mpmath.besseli(nu, zm)
                    want_lm = float(mpmath.log(i_nu) - nu * mpmath.log(zm) - zm)
                    want_r = float(mpmath.besseli(nu + 1, zm) / (zm * i_nu))
            assert abs(lm - want_lm) <= 1e-15 * max(1.0, abs(want_lm)), z
            assert abs(r - want_r) <= 1e-15 * want_r, z


class TestQuadrature:
    def test_laguerre_moments(self):
        # zeroth moment with a = 0.3 is Gamma(1.3); first moment with a = 0 is 1
        rule = gauss_laguerre_rule(8, 0.3)
        assert integrate(rule, lambda u: np.ones_like(u)) == pytest.approx(
            math.gamma(1.3), rel=1e-13
        )
        rule = gauss_laguerre_rule(8, 0.0)
        assert integrate(rule, lambda u: u) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("n,a", [(6, -0.5), (10, 0.0), (9, 1.7), (14, 4.0)])
    def test_laguerre_degree_exactness(self, n, a):
        rule = gauss_laguerre_rule(n, a)
        for m in range(2 * n):
            want = float(mpmath.gamma(a + m + 1))
            got = integrate(rule, lambda u: u**m)
            assert abs(got - want) <= 1e-11 * want

    def test_jacobi_total_weight(self):
        # a = 1/2: constant weight on (-1,1), total 2
        rule = gauss_jacobi_rule(6, 0.5)
        assert rule.weights.sum() == pytest.approx(2.0, rel=1e-13)
        # general a: beta function oracle B(1/2, a+1/2)
        for a in (0.0, 0.8, 2.5):
            rule = gauss_jacobi_rule(8, a)
            want = math.sqrt(math.pi) * math.gamma(a + 0.5) / math.gamma(a + 1.0)
            assert rule.weights.sum() == pytest.approx(want, rel=1e-12)

    def test_jacobi_odd_moment_vanishes(self):
        rule = gauss_jacobi_rule(8, 0.7)
        assert abs(integrate(rule, lambda s: s)) < 1e-14

    @pytest.mark.parametrize("n,a", [(6, 0.0), (8, 0.7), (10, 2.0)])
    def test_jacobi_degree_exactness(self, n, a):
        rule = gauss_jacobi_rule(n, a)
        for m in range(0, 2 * n, 2):
            with mpmath.workdps(40):
                want = float(mpmath.beta((m + 1) / 2.0, a + 0.5))
            got = integrate(rule, lambda s: s**m)
            assert abs(got - want) <= 1e-11 * want

    def test_legendre(self):
        rule = gauss_legendre_rule(12)
        assert integrate(rule, lambda s: s**8) == pytest.approx(2.0 / 9.0, rel=1e-13)

    def test_rule_invariants(self):
        for rule in (
            gauss_laguerre_rule(20, -0.5),
            gauss_jacobi_rule(20, 1.1),
            gauss_legendre_rule(20),
        ):
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.all(rule.weights > 0)

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_composite_exact_on_every_panel(self, n):
        # one 1-d partition and a batch of two, panels of very unequal width
        edges = np.array([[0.0, 0.3, 1.0, 2.5], [-4.0, -3.9, 0.5, 7.0]])
        for e in (edges[0], edges):
            nodes, weights = composite_legendre_rule(e, n)
            assert nodes.shape == weights.shape == e.shape[:-1] + (3, n)
            a, b = e[..., :-1], e[..., 1:]
            for m in range(2 * n):
                got = np.sum(weights * nodes**m, axis=-1)
                want = (b ** (m + 1) - a ** (m + 1)) / (m + 1)
                scale = (b - a) * np.maximum(np.abs(a), np.abs(b)) ** m
                assert np.all(np.abs(got - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_composite_smooth_ends_exact_on_every_panel(self, n):
        edges = np.array([-4.0, -3.9, 0.5, 7.0])
        nodes, weights = composite_legendre_rule(edges, n, smooth_ends=True)
        a, b = edges[:-1], edges[1:]
        for m in range((2 * n - 5) // 5 + 1):
            got = np.sum(weights * nodes**m, axis=-1)
            want = (b ** (m + 1) - a ** (m + 1)) / (m + 1)
            scale = (b - a) * np.maximum(np.abs(a), np.abs(b)) ** m
            assert np.all(np.abs(got - want) <= 1e-13 * scale)

    def test_composite_smooth_ends_absorb_end_singularity(self):
        # (x - 1)^(3/2) on (1, 3) reaches the Gauss rule as (1 + u)^(13/2)
        want = 2.0**2.5 / 2.5
        for smooth, tol in ((True, 1e-14), (False, None)):
            nodes, weights = composite_legendre_rule([1.0, 3.0], 24, smooth_ends=smooth)
            err = abs(np.sum(weights * (nodes - 1.0) ** 1.5) / want - 1.0)
            if smooth:
                assert err < tol
            else:
                assert err > 1e-9

    @pytest.mark.parametrize("edges", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0], [1.0], [],
                                       [0.0, math.nan], [0.0, math.inf],
                                       [[0.0, 1.0], [1.0, 0.5]]])
    def test_composite_rejects_bad_edges(self, edges):
        with pytest.raises(ValueError, match="edges"):
            composite_legendre_rule(edges, 4)

    def test_tensor_rule_order_and_exactness(self):
        x, w = gauss_legendre_rule(3), gauss_legendre_rule(4)
        pts, wt = tensor_rule([x.nodes, w.nodes], [x.weights, w.weights])
        assert pts.shape == (12, 2) and wt.shape == (12,)
        # the last coordinate varies fastest
        np.testing.assert_array_equal(pts[:4, 0], np.full(4, x.nodes[0]))
        np.testing.assert_array_equal(pts[:4, 1], w.nodes)
        # int_{[-1,1]^2} s^4 u^6 = (2/5) (2/7)
        assert np.sum(wt * pts[:, 0] ** 4 * pts[:, 1] ** 6) == pytest.approx(4.0 / 35.0, rel=1e-13)

    def test_rules_cached_and_read_only(self):
        rule = gauss_legendre_rule(12)
        assert gauss_legendre_rule(12) is rule
        assert gauss_jacobi_rule(8, 0.7) is gauss_jacobi_rule(8, 0.7)
        assert gauss_laguerre_rule(8, 0.3) is gauss_laguerre_rule(8, 0.3)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0
        with pytest.raises(ValueError):
            gauss_laguerre_rule(8, 0.3).weights[:] = 1.0

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            gauss_laguerre_rule(0, 0.0)
        with pytest.raises(ValueError):
            gauss_laguerre_rule(4, -1.0)
        with pytest.raises(ValueError):
            gauss_jacobi_rule(4, -0.5)
        with pytest.raises(ValueError):
            QuadratureRule([1.0, 0.5], [1.0, 1.0])
        with pytest.raises(ValueError):
            QuadratureRule([0.5, 1.0], [1.0, -1.0])

    @pytest.mark.parametrize("nodes,weights", [
        ([0.5, np.nan], [1.0, 1.0]),
        ([np.nan, 0.5], [1.0, 1.0]),
        ([0.5, np.inf], [1.0, 1.0]),
        ([0.5, 1.0], [1.0, np.nan]),
        ([0.5, 1.0], [np.inf, 1.0]),
    ], ids=["nan_last_node", "nan_first_node", "inf_node", "nan_weight", "inf_weight"])
    def test_non_finite_rule_is_rejected(self, nodes, weights):
        with pytest.raises(ValueError, match="finite"):
            QuadratureRule(nodes, weights)

    @pytest.mark.parametrize("n", [200, 400])
    def test_laguerre_order_past_double_range(self, n):
        # at 200 the smallest weights underflow to 0; at 400 scipy returns NaN
        # nodes and weights, which the old "<= 0" checks let through
        with pytest.raises(ValueError, match="finite"):
            gauss_laguerre_rule(n, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(0, 12),
    a=st.sampled_from([-0.5, 0.0, 0.7, 3.0]),
    x=st.floats(0.0, 20.0, allow_nan=False),
)
@example(k=12, a=0.7, x=18.0)
def test_laguerre_recurrence_property(k, a, x):
    # ell(a, k, sqrt(u)) = sqrt(2 k! / Gamma(k+a+1)) e^(-u/2) L_k^a(u)
    norm = math.exp(0.5 * (math.log(2.0) + math.lgamma(k + 1) - math.lgamma(k + a + 1)))
    got = ell(a, k, math.sqrt(x)) * math.exp(0.5 * x) / norm
    want = laguerre_series(k, a, x)
    assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


def _series_every_term(nu, z):
    """The Bessel series tested on every argument at every term: the
    reference loop of _bessel_series_pair's stop test."""
    from lps.specfun import _SERIES_TERMS

    orders = np.array([[nu], [nu + 1.0]])
    w = z * z / 4.0
    term = np.repeat([[1.0], [0.5 / (nu + 1.0)]], w.size, axis=1)
    acc = term.copy()
    for m in range(_SERIES_TERMS):
        term = term * w / ((m + 1.0) * (m + orders + 1.0))
        acc += term
        if np.all(term <= 1e-18 * acc):
            return acc
    raise FloatingPointError("did not converge")


@pytest.mark.bitexact
class TestSeriesStop:
    """The stop test reads the largest argument; the sums keep their bits."""

    @pytest.mark.parametrize("nu", [-0.7, 0.0, 0.3, 1.0, 2.5, 40.0])
    @pytest.mark.parametrize("band", [(0.0, 1.0), (1.0, 4.0), (4.0, 10.0), (10.0, 20.0),
                                      (0.0, 20.0)])
    def test_matches_every_term_loop(self, nu, band):
        from lps.specfun import _bessel_series_pair

        z = np.random.default_rng(int(10 * nu) % 97).uniform(*band, 301)
        z[::50] = band[0]  # zeros, and repeats of the smallest argument
        assert np.array_equal(_bessel_series_pair(nu, z), _series_every_term(nu, z))

    @pytest.mark.parametrize("nu,hi", [(290.0, 22.0), (320.0, 40.0), (500.0, 60.0)])
    def test_deep_arguments(self, nu, hi):
        # arguments where ive underflows and the series serves large orders
        from lps.specfun import _bessel_series_pair

        z = np.random.default_rng(5).uniform(20.0, hi, 64)
        assert np.array_equal(_bessel_series_pair(nu, z), _series_every_term(nu, z))

    def test_empty(self):
        from lps.specfun import _bessel_series_pair

        z = np.empty(0)
        assert _bessel_series_pair(0.3, z).shape == _series_every_term(0.3, z).shape == (2, 0)

    @pytest.mark.parametrize("where", [0, 5, 9])
    def test_nan_raises(self, where):
        from lps.specfun import _bessel_series_pair

        z = np.linspace(0.5, 3.0, 10)
        z[where] = math.nan
        with pytest.raises(FloatingPointError, match="did not converge"):
            _bessel_series_pair(0.3, z)
