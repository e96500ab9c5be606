import math

import numpy as np
import pytest

from lps import basis
from lps.basis import (
    Expansion,
    PLAIN,
    analyze,
    delta_apply,
    delta_star_apply,
    differentiated,
    eigenvalue,
    ell,
    ell_batch,
    ell_table,
    laguerre_operator_apply,
    riesz_transform,
    synthesize,
)
from lps.measure import as_alpha


def quad_inner(alpha, f, g, order=64):
    """<f, g> in L^2(d mu_alpha) by the u = x^2 tensor rule."""
    pts, w = basis._quad_grid(as_alpha(alpha), order)
    return float(np.sum(w * f(pts) * g(pts)))


def random_plain(alpha, seed, nmodes=8, max_level=6):
    from lps.czcheck import random_expansion

    return random_expansion(alpha, PLAIN, nmodes=nmodes, max_level=max_level, seed=seed)


class TestEigenvalue:
    def test_values(self):
        assert eigenvalue(0.0, 0) == 2.0
        assert eigenvalue((-0.5, -0.5), 1) == 6.0
        assert eigenvalue(-0.5, 0) == 1.0


class TestEll:
    def test_ground_state_value(self):
        # l_0^0(x) = sqrt(2) e^(-x^2/2)
        assert ell(0.0, 0, [1.0]) == pytest.approx(math.sqrt(2.0) * math.exp(-0.5), rel=1e-14)

    def test_tensor_factorization(self):
        alpha = (0.3, 1.2)
        x = np.array([0.8, 1.7])
        v = ell(alpha, (2, 3), x)
        v1 = ell(0.3, 2, [0.8])
        v2 = ell(1.2, 3, [1.7])
        assert v == pytest.approx(v1 * v2, rel=1e-13)

    @pytest.mark.parametrize(
        "alpha", [(0.3, -0.5), (-0.5, -0.5), (1.3, 0.0), (0.0, 0.0), (-0.5,), (0.0,), (1.3,)]
    )
    def test_gram_identity_plain(self, alpha):
        a = as_alpha(alpha)
        pts, w = basis._quad_grid(a, 48)
        idx = basis._family_indices(PLAIN, a.d, 8)
        vals = ell_batch(a, PLAIN.shifts, idx, pts)
        gram = (vals * w) @ vals.T
        assert np.max(np.abs(gram - np.eye(len(idx)))) < 1e-9

    def test_gram_identity_differentiated(self):
        a = as_alpha((0.3, -0.5))
        fam = differentiated(1)
        pts, w = basis._quad_grid(a, 48)
        idx = basis._family_indices(fam, a.d, 5)
        vals = ell_batch(a, fam.shifts, idx, pts)
        gram = (vals * w) @ vals.T
        assert np.max(np.abs(gram - np.eye(len(idx)))) < 1e-9

    def test_gram_identity_differentiated_d1(self):
        a = as_alpha((0.7,))
        fam = differentiated(1)
        pts, w = basis._quad_grid(a, 48)
        idx = [(k,) for k in range(1, 6)]
        vals = ell_batch(a, fam.shifts, idx, pts)
        gram = (vals * w) @ vals.T
        assert np.max(np.abs(gram - np.eye(len(idx)))) < 1e-9


def per_index(alpha, shifts, k, pts):
    """prod_c x_c l_(k - sum e_c)^(alpha + sum e_c) at pts from full-depth tables,
    one index at a time: the rows multiplied in coordinate order, prefactor last."""
    shifted, km, pre = as_alpha(alpha), list(k), np.ones(pts.shape[0])
    for c in shifts:
        shifted = shifted.shifted(c)
        km[c - 1] -= 1
        pre = pre * pts[:, c - 1]
    if min(km) < 0:
        return np.zeros(pts.shape[0])
    val = np.ones(pts.shape[0])
    for table, m in zip(ell_table(shifted, max(km), pts), km):
        val = val * table[m]
    return pre * val if shifts else val


ELL_BATCH_CASES = [
    ((0.7,), ()), ((0.7,), (1,)), ((-0.5,), (1, 1)),
    ((0.3, -0.5), ()), ((0.3, -0.5), (1,)), ((0.3, -0.5), (2,)),
    ((0.3, -0.5), (1, 2)), ((0.3, -0.5), (2, 1)),
    ((0.3, -0.5, 1.2), ()), ((0.3, -0.5, 1.2), (3,)), ((0.3, -0.5, 1.2), (1, 3)),
    ((0.3, -0.5, 1.2), (3, 2)),
]


class TestEllBatch:
    @pytest.mark.parametrize("alpha, shifts", ELL_BATCH_CASES)
    def test_matches_per_index_bit_for_bit(self, alpha, shifts):
        a = as_alpha(alpha)
        rng = np.random.default_rng(len(shifts) + a.d)
        pts = np.vstack([basis._quad_grid(a, 5)[0], rng.uniform(0.0, 6.0, (40, a.d))])
        idx = basis._family_indices(PLAIN, a.d, 7 - a.d)
        got = ell_batch(a, shifts, idx, pts)
        assert got.shape == (len(idx), pts.shape[0])
        for k, row in zip(idx, got):
            assert np.array_equal(row, per_index(a, shifts, k, pts))
            # a one-index call gives the batched row bit for bit
            assert np.array_equal(row, ell_batch(a, shifts, [k], pts)[0])
        # the rows of a null index are exact zeros
        null = [any(k[c - 1] < shifts.count(c) for c in shifts) for k in idx]
        assert np.all(got[np.array(null, dtype=bool)] == 0.0)

    def test_single_point_and_empty(self):
        a = as_alpha((0.3, -0.5))
        assert ell_batch(a, (1,), [], np.ones((3, 2))).shape == (0, 3)
        assert ell_batch(a, (), [(1, 2)], [0.4, 1.1]).shape == (1, 1)
        assert ell(a, (1, 2), [0.4, 1.1]) == ell_batch(a, (), [(1, 2)], [0.4, 1.1])[0, 0]

    def test_rejects_bad_points_and_shifts(self):
        a = as_alpha((0.3, -0.5))
        with pytest.raises(ValueError, match="points"):
            ell_batch(a, (), [(0, 0)], np.ones((3, 3)))
        with pytest.raises(ValueError, match="coordinate"):
            ell_batch(a, (3,), [(0, 0)], np.ones((3, 2)))


class TestQuadGrid:
    def test_cached_and_read_only(self):
        a = as_alpha((0.3, -0.5))
        basis._quad_grid.cache_clear()
        pts, w = basis._quad_grid(a, 7)
        again = basis._quad_grid(a, 7)
        assert again[0] is pts and again[1] is w
        assert basis._quad_grid.cache_info().hits == 1
        assert not pts.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0


class TestEllGrid:
    """ell_batch on the points of _quad_grid against the per-coordinate tables that
    the square functions' Gram norms read (_rule_table on each 1-d rule's nodes)."""

    @pytest.mark.parametrize("order", [5, 32, 64])
    @pytest.mark.parametrize("alpha, shifts", ELL_BATCH_CASES)
    def test_matches_ell_batch_on_the_grid_bit_for_bit(self, alpha, shifts, order):
        a = as_alpha(alpha)
        idx = basis._family_indices(PLAIN, a.d, 7 - a.d)
        pts = basis._quad_grid(a, order)[0]
        got = ell_batch(a, shifts, idx, pts)
        assert got.shape == (len(idx), order**a.d)
        shifted = a
        for c in shifts:
            shifted = shifted.shifted(c)
        # the node of coordinate c at each grid point; the last coordinate varies fastest
        node = [np.arange(order**a.d) // order ** (a.d - 1 - c) % order for c in range(a.d)]
        for k, row in zip(idx, got):
            down = [m - shifts.count(c + 1) for c, m in enumerate(k)]
            if min(down) < 0:  # the rows of a null index are exact zeros
                assert np.all(row == 0.0)
                continue
            want = np.ones(order**a.d)
            for c, (b, m) in enumerate(zip(shifted.components, down)):
                want = want * basis._rule_table(b, a.components[c], order, m)[m][node[c]]
            if shifts:
                pre = pts[:, shifts[0] - 1]
                for c in shifts[1:]:
                    pre = pre * pts[:, c - 1]
                want = want * pre
            assert np.array_equal(row, want)

    def test_tables_cached_and_read_only(self):
        basis._rule_table.cache_clear()
        basis._rule_gram(0.3, 0.3, 7, 2, 0)
        basis._rule_gram(0.5, -0.5, 7, 2, 1)
        assert basis._rule_table.cache_info().misses == 2
        # other powers at the same depths read the same two tables
        basis._rule_gram(0.3, 0.3, 7, 2, 1)
        basis._rule_gram(0.5, -0.5, 7, 2, 0)
        assert basis._rule_table.cache_info().misses == 2
        table = basis._rule_table(0.3, 0.3, 7, 2)
        assert table.shape == (3, 7)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
        assert basis._rule_table(0.3, 0.3, 7, 2) is table


class TestBasisEval:
    def test_null_index_is_zero(self):
        fam = differentiated(1)
        xs = np.array([[0.5, 1.0], [2.0, 0.1]])
        assert np.all(ell_batch((0.0, 0.0), fam.shifts, [(0, 3)], xs) == 0.0)

    def test_first_differentiated_value(self):
        # x * l_0^(a+1)(x) at a = 0, x = 1: sqrt(2/Gamma(2)) e^(-1/2)
        got = ell_batch(0.0, differentiated(1).shifts, [1], [1.0])[0, 0]
        assert got == pytest.approx(math.sqrt(2.0) * math.exp(-0.5), rel=1e-13)


class TestExpansion:
    def test_family_coordinate_beyond_dimension(self):
        with pytest.raises(ValueError, match="exceeds the dimension"):
            Expansion((0.0,), differentiated(2), {(1,): 1.0})

    @pytest.mark.parametrize("k", [2.9, (1.5,), math.nan, math.inf])
    def test_rejects_non_integral_index(self, k):
        # int() would truncate 2.9 to mode 2 and 1.5 to mode 1
        with pytest.raises(ValueError, match="integers"):
            ell(0.3, k, [0.5])
        with pytest.raises(ValueError, match="integers"):
            Expansion(0.3, PLAIN, {k: 1.0})

    def test_integral_floats_name_their_mode(self):
        assert Expansion(0.3, PLAIN, {(2.0,): 1.0}).coeffs == {(2,): 1.0}
        assert ell(0.3, np.float64(2.0), [0.5]) == ell(0.3, 2, [0.5])

    # bad indices in dimension d, with the words of their message; 10**400
    # ended in OverflowError and "1" in TypeError
    BAD_INDICES = [((10**400,), 1, "at most"), ((1e300,), 1, "at most"),
                   (("1",), 1, "integers"), ((math.nan,), 1, "integers"),
                   ((np.float64(math.nan),), 1, "integers"), ((-1,), 1, "nonnegative"),
                   ((np.int64(-2),), 1, "nonnegative"), ((0.5,), 1, "integers"),
                   ((1, 2), 1, "1 entries"), ((), 1, "1 entries"), (None, 1, "integers"),
                   ((2, "x"), 2, "integers"), ((1, 10**400), 2, "at most")]

    @pytest.mark.parametrize("k, d, words", BAD_INDICES)
    def test_bad_index_raises_value_error(self, k, d, words):
        alpha = (0.3, 1.2)[:d]
        with pytest.raises(ValueError, match=words):
            ell(alpha, k, [0.5] * len(alpha))
        with pytest.raises(ValueError, match=words):
            ell_batch(alpha, (), [(0,) * len(alpha), k], [0.5] * len(alpha))
        with pytest.raises(ValueError, match=words):
            Expansion(alpha, PLAIN, {k: 1.0})

    def test_checked_index_is_python_ints(self):
        k = (3, 0)
        assert basis._as_multi_index(k, 2) == k
        assert basis._as_multi_index(np.array([3, 0]), 2) == k
        assert basis._as_multi_index((True, 0), 2) == (1, 0)
        assert [type(v) for v in basis._as_multi_index((True, 0), 2)] == [int, int]

    def test_checked_keys_pass_unchanged(self):
        # the keys random_expansion draws are tuples of Python ints already
        for k in basis._family_indices(PLAIN, 3, 4) + ((basis._MAX_ENTRY, 0),):
            assert basis._as_multi_index(k, len(k)) is k


class TestAnalyzeSynthesize:
    def test_indicator_recovery(self):
        alpha = (0.3, -0.5)
        m = (2, 1)
        e = analyze(alpha, PLAIN, lambda p: ell(alpha, m, p), cutoff=4, order=48)
        for k, c in e.coeffs.items():
            want = 1.0 if k == m else 0.0
            assert c == pytest.approx(want, abs=1e-9)

    def test_linearity(self):
        alpha = (0.5,)

        def f(p):
            return 3.0 * ell(alpha, (0,), p) + 2.0 * ell(alpha, (1,), p)

        e = analyze(alpha, PLAIN, f, cutoff=3, order=48)
        assert e.coeffs[(0,)] == pytest.approx(3.0, abs=1e-10)
        assert e.coeffs[(1,)] == pytest.approx(2.0, abs=1e-10)
        assert e.coeffs[(2,)] == pytest.approx(0.0, abs=1e-10)

    def test_round_trip(self):
        alpha = (0.3, -0.5)
        e = random_plain(alpha, seed=5, max_level=4)
        back = analyze(alpha, PLAIN, lambda p: synthesize(e, p), cutoff=4, order=48)
        for k in set(e.coeffs) | set(back.coeffs):
            assert back.coeffs.get(k, 0.0) == pytest.approx(e.coeffs.get(k, 0.0), abs=1e-9)

    def test_differentiated_round_trip(self):
        alpha = (0.7,)
        fam = differentiated(1)
        e = Expansion(alpha, fam, {(1,): 0.5, (3,): -1.25})
        back = analyze(alpha, fam, lambda p: synthesize(e, p), cutoff=4, order=48)
        for k in set(e.coeffs) | set(back.coeffs):
            assert back.coeffs.get(k, 0.0) == pytest.approx(e.coeffs.get(k, 0.0), abs=1e-9)

    def test_empty_and_single(self):
        alpha = (0.0,)
        e = Expansion(alpha, PLAIN, {})
        assert synthesize(e, [1.0]) == 0.0
        e = Expansion(alpha, PLAIN, {(2,): 1.0})
        assert synthesize(e, [1.3]) == pytest.approx(ell(alpha, (2,), [1.3]))

    def test_parseval(self):
        alpha = (0.3, -0.5)
        e = random_plain(alpha, seed=9)
        norm_sq = quad_inner(alpha, lambda p: synthesize(e, p), lambda p: synthesize(e, p))
        assert math.sqrt(norm_sq) == pytest.approx(e.l2_norm(), rel=1e-8)


def fd_delta(f, j, x, h=1e-4):
    xp = x.copy()
    xm = x.copy()
    xp[j - 1] += h
    xm[j - 1] -= h
    return (f(xp[None, :])[0] - f(xm[None, :])[0]) / (2 * h) + x[j - 1] * f(x[None, :])[0]


def fd_delta_star(alpha, f, j, x, h=1e-4):
    a = as_alpha(alpha).components[j - 1]
    xp = x.copy()
    xm = x.copy()
    xp[j - 1] += h
    xm[j - 1] -= h
    first = -(f(xp[None, :])[0] - f(xm[None, :])[0]) / (2 * h)
    return first + (x[j - 1] - (2 * a + 1) / x[j - 1]) * f(x[None, :])[0]


class TestLadderOperators:
    def test_delta_annihilates_ground_state(self):
        e = Expansion((0.3,), PLAIN, {(0,): 1.0})
        assert delta_apply(e, 1).coeffs == {}

    def test_delta_on_first_mode(self):
        # delta l_1 = -2 x l_0^(a+1)
        alpha = (0.4,)
        e = Expansion(alpha, PLAIN, {(1,): 1.0})
        d = delta_apply(e, 1)
        assert d.coeffs == {(1,): pytest.approx(-2.0)}
        x = np.array([[1.3]])
        want = -2.0 * ell_batch(alpha, (1,), [(1,)], x)[0, 0]
        assert synthesize(d, x)[0] == pytest.approx(want, rel=1e-13)

    def test_delta_star_on_single_term(self):
        alpha = (0.4,)
        e = Expansion(alpha, differentiated(1), {(1,): 1.0})
        back = delta_star_apply(e, 1)
        assert back.coeffs == {(1,): pytest.approx(-2.0)}

    @pytest.mark.parametrize("alpha,j", [((0.3, -0.5), 1), ((0.3, -0.5), 2), ((1.0,), 1)])
    def test_delta_finite_difference(self, alpha, j):
        rng = np.random.default_rng(17)
        e = random_plain(alpha, seed=21)
        d = delta_apply(e, j)
        for _ in range(20):
            x = rng.uniform(0.1, 3.0, as_alpha(alpha).d)
            want = fd_delta(lambda p: synthesize(e, p), j, x)
            got = synthesize(d, x[None, :])[0]
            assert got == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("alpha,j", [((0.3, -0.5), 1), ((1.0,), 1)])
    def test_delta_star_finite_difference(self, alpha, j):
        rng = np.random.default_rng(23)
        fam = differentiated(j)
        from lps.czcheck import random_expansion

        e = random_expansion(alpha, fam, nmodes=6, max_level=5, seed=31)
        back = delta_star_apply(e, j)
        for _ in range(20):
            x = rng.uniform(0.1, 3.0, as_alpha(alpha).d)
            want = fd_delta_star(alpha, lambda p: synthesize(e, p), j, x)
            got = synthesize(back, x[None, :])[0]
            assert got == pytest.approx(want, abs=1e-6)

    def test_delta_star_delta_is_4k(self):
        alpha = (0.3, -0.5)
        e = random_plain(alpha, seed=13)
        for j in (1, 2):
            dd = delta_star_apply(delta_apply(e, j), j)
            for k, c in e.coeffs.items():
                want = 4.0 * k[j - 1] * c
                got = dd.coeffs.get(k, 0.0)
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want))

    def test_adjointness(self):
        alpha = (0.3, -0.5)
        f = random_plain(alpha, seed=41)
        from lps.czcheck import random_expansion

        g = random_expansion(alpha, differentiated(1), nmodes=6, max_level=6, seed=43)
        lhs = quad_inner(alpha, lambda p: synthesize(delta_apply(f, 1), p),
                         lambda p: synthesize(g, p))
        rhs = quad_inner(alpha, lambda p: synthesize(f, p),
                         lambda p: synthesize(delta_star_apply(g, 1), p))
        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_wrong_family_raises(self):
        e = Expansion((0.0,), PLAIN, {(1,): 1.0})
        with pytest.raises(ValueError):
            delta_star_apply(e, 1)
        d = delta_apply(e, 1)
        with pytest.raises(ValueError):
            delta_apply(d, 1)


class TestLaguerreOperator:
    def test_eigenvalue_of_a_level_array(self):
        # the square functions and the spectral heat kernel pass arrays of levels
        a = as_alpha((0.3, -0.5))
        levels = np.arange(9)
        got = eigenvalue(a, levels)
        assert np.array_equal(got, [eigenvalue(a, int(n)) for n in levels])

    def test_ground_state_eigenvalue(self):
        e = Expansion((0.0,), PLAIN, {(0,): 1.0})
        out = laguerre_operator_apply(e)
        assert out.coeffs[(0,)] == pytest.approx(2.0)

    def test_ladder_decomposition(self):
        # L = 2|a| + 2d + sum_j delta_j^* delta_j, coefficientwise
        alpha = (0.3, -0.5)
        a = as_alpha(alpha)
        e = random_plain(alpha, seed=29)
        lhs = laguerre_operator_apply(e)
        acc = {k: (2.0 * a.total + 2.0 * a.d) * c for k, c in e.coeffs.items()}
        for j in (1, 2):
            dd = delta_star_apply(delta_apply(e, j), j)
            for k, c in dd.coeffs.items():
                acc[k] = acc.get(k, 0.0) + c
        for k in lhs.coeffs:
            assert abs(lhs.coeffs[k] - acc[k]) <= 1e-12 * max(1.0, abs(lhs.coeffs[k]))

    def test_second_order_finite_difference(self):
        # -Laplacian + |x|^2 - sum (2a_i+1)/x_i d_i against the spectral action
        alpha = (0.3, 0.8)
        a = as_alpha(alpha)
        e = random_plain(alpha, seed=37, max_level=4)
        out = laguerre_operator_apply(e)
        rng = np.random.default_rng(101)
        h = 1e-4
        for _ in range(10):
            x = rng.uniform(0.3, 2.5, 2)
            lap = 0.0
            grad_term = 0.0
            f0 = synthesize(e, x[None, :])[0]
            for i in range(2):
                xp = x.copy()
                xm = x.copy()
                xp[i] += h
                xm[i] -= h
                fp = synthesize(e, xp[None, :])[0]
                fm = synthesize(e, xm[None, :])[0]
                lap += (fp - 2.0 * f0 + fm) / h**2
                grad_term += (2.0 * a.components[i] + 1.0) / x[i] * (fp - fm) / (2 * h)
            want = -lap + float(np.dot(x, x)) * f0 - grad_term
            got = synthesize(out, x[None, :])[0]
            assert got == pytest.approx(want, abs=1e-5)


class TestRieszTransform:
    def test_annihilates_ground_state(self):
        e = Expansion((0.0,), PLAIN, {(0,): 1.0})
        assert riesz_transform(e, 1).coeffs == {}

    def test_first_mode_coefficient(self):
        # -2 sqrt(1)/sqrt(lambda_1), lambda_1 = 6 for d=1, alpha=0
        e = Expansion((0.0,), PLAIN, {(1,): 1.0})
        r = riesz_transform(e, 1)
        assert r.coeffs[(1,)] == pytest.approx(-2.0 / math.sqrt(6.0), rel=1e-14)
