import math
import tracemalloc

import numpy as np
import pytest

from lps import basis, cli, czcheck, gfunctions
from lps.basis import Expansion, PLAIN, differentiated, eigenvalue, ell, ell_batch
from lps.czcheck import _draw_modes, random_expansion
from lps.gfunctions import (
    _closed_values,
    _l2_norms,
    _mode_arrays,
    _modes,
    gfun_exact,
    gfun_l2_exact,
    gfun_l2_norm,
    gfun_quadrature,
)
from lps.kernels import KernelKind, ZetaGrid, default_kinds
from lps.measure import as_alpha
from lps.specfun import QuadratureRule

ALL_KINDS = [
    KernelKind("dT"),
    KernelKind("hT", i=1),
    KernelKind("dP"),
    KernelKind("hP", i=2),
    KernelKind("dTmod", j=1),
    KernelKind("hTmod", i=2, j=1),
    KernelKind("hTmodStar", j=1),
    KernelKind("dPmod", j=1),
    KernelKind("hPmod", i=2, j=1),
    KernelKind("hPmodStar", j=1),
]


def _coords(kind):
    return {name: v for name, v in (("i", kind.i), ("j", kind.j)) if v}


# test ids name each case by its square function (spec.gtag), as they did
# when the cases were (g-function tag, family, coordinates) triples
CASE_IDS = [f"{k.spec.gtag}-{k.input_family()}-{_coords(k)}" for k in ALL_KINDS]
CASE_NUMBER_IDS = [f"{k.spec.gtag}-fam{n}-kw{n}" for n, k in enumerate(ALL_KINDS)]


def _gtag(kind):
    return kind.spec.gtag


class TestSingleMode:
    def test_vertical_heat_single_mode_is_half(self):
        # one mode: g(f)(x) = |c l_k(x)| lambda * (int t e^(-2 t lambda) dt)^(1/2)
        #                   = |c l_k(x)| / 2
        alpha = (0.3,)
        c = 1.7
        e = Expansion(alpha, PLAIN, {(2,): c})
        xs = np.array([[0.4], [1.0], [2.5]])
        got = gfun_exact(KernelKind("dT"), e, xs)
        want = 0.5 * np.abs(c * ell(alpha, (2,), xs))
        assert np.allclose(got, want, rtol=1e-13)

    def test_vertical_poisson_single_mode_is_half(self):
        alpha = (0.3,)
        e = Expansion(alpha, PLAIN, {(3,): -0.8})
        xs = np.array([[0.7], [1.9]])
        got = gfun_exact(KernelKind("dP"), e, xs)
        want = 0.5 * np.abs(-0.8 * ell(alpha, (3,), xs))
        assert np.allclose(got, want, rtol=1e-13)

    def test_two_mode_vertical_heat_formula(self):
        # squared value: sum_(m,m') a_m a_m' lam_m lam_m' / (lam_m + lam_m')^2
        alpha = (0.0,)
        e = Expansion(alpha, PLAIN, {(0,): 1.0, (1,): 1.0})
        lam0, lam1 = 2.0, 6.0
        x = np.array([[1.2]])
        l0 = ell(alpha, (0,), x)[0]
        l1 = ell(alpha, (1,), x)[0]
        want_sq = (
            l0 * l0 * lam0 * lam0 / (2 * lam0) ** 2
            + 2 * l0 * l1 * lam0 * lam1 / (lam0 + lam1) ** 2
            + l1 * l1 * lam1 * lam1 / (2 * lam1) ** 2
        )
        got = gfun_exact(KernelKind("dT"), e, x)[0]
        assert got == pytest.approx(math.sqrt(want_sq), rel=1e-13)
        quad = gfun_quadrature(KernelKind("dT"), e, x)[0]
        assert quad == pytest.approx(got, rel=1e-9)


class TestQuadratureAgreement:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=CASE_IDS)
    def test_exact_vs_quadrature(self, kind):
        alpha = (0.3, -0.5)
        rng = np.random.default_rng(5)
        for trial in range(5):
            e = random_expansion(alpha, kind.input_family(), nmodes=6, max_level=5,
                                 seed=100 + trial)
            xs = rng.uniform(0.2, 3.0, (10, 2))
            ex = gfun_exact(kind, e, xs)
            qd = gfun_quadrature(kind, e, xs)
            assert np.allclose(qd, ex, rtol=1e-7, atol=1e-12)

    def test_zero_expansion(self):
        e = Expansion((0.0,), PLAIN, {})
        assert gfun_exact(KernelKind("dT"), e, [1.0]) == 0.0
        assert gfun_quadrature(KernelKind("dT"), e, [1.0]) == 0.0

    def test_grid_refinement_stability(self):
        alpha = (0.5,)
        e = random_expansion(alpha, PLAIN, nmodes=6, max_level=6, seed=44)
        g1 = ZetaGrid(order=8, levels=30)
        x = np.array([[1.1]])
        v1 = gfun_quadrature(KernelKind("dP"), e, x, g1)[0]
        v2 = gfun_quadrature(KernelKind("dP"), e, x, g1.refined())[0]
        assert abs(v1 - v2) <= 1e-7 * abs(v2)

    def test_nonnegative(self):
        alpha = (0.3, 0.0)
        e = random_expansion(alpha, PLAIN, nmodes=8, max_level=6, seed=3)
        xs = np.random.default_rng(1).uniform(0.05, 6.0, (50, 2))
        for kind in ALL_KINDS[:4]:
            vals = gfun_exact(kind, e, xs)
            assert np.all(vals >= 0)

    def test_family_mismatch_raises(self):
        e = random_expansion((0.0,), PLAIN, seed=1)
        with pytest.raises(ValueError):
            gfun_exact(KernelKind("dTmod", j=1), e, [1.0])

    def test_coordinates_checked_against_dimension(self):
        e = random_expansion((0.0, -0.5), PLAIN, seed=1)
        em = random_expansion((0.0, -0.5), differentiated(2), seed=1)
        x = [[1.0, 2.0]]
        for kind, f in ((KernelKind("hT", i=3), e), (KernelKind("hTmod", i=3, j=2), em)):
            for route in (lambda: gfun_exact(kind, f, x), lambda: gfun_quadrature(kind, f, x),
                          lambda: gfun_l2_exact(kind, f)):
                with pytest.raises(ValueError, match="i=3 exceeds the dimension d=2"):
                    route()
        # a coordinate the kind does not use is rejected, not ignored
        with pytest.raises(ValueError, match="j=2"):
            KernelKind("dT", j=2)


class TestSharedTables:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=CASE_NUMBER_IDS)
    def test_one_table_per_coordinate(self, kind, monkeypatch):
        # every mode of the expansion reads the same per-coordinate tables
        built = []
        table_1d = basis._ell_table_1d

        def counted(a, kmax, xi):
            built.append(a)
            return table_1d(a, kmax, xi)

        alpha = (0.3, -0.5)
        e = random_expansion(alpha, kind.input_family(), nmodes=10, max_level=6, seed=3)
        pts = np.exp(np.random.default_rng(4).uniform(-1.5, 1.5, (25, 2)))
        want = gfun_exact(kind, e, pts)
        monkeypatch.setattr(basis, "_ell_table_1d", counted)
        got = gfun_exact(kind, e, pts)
        assert np.array_equal(got, want)
        assert len(built) == 2


class TestNormOnRuleTables:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=CASE_NUMBER_IDS)
    def test_norm_is_quadrature_of_gfun_exact_bit_for_bit(self, kind):
        # the Gram-factor sum is the tensor grid's quadrature of gfun_exact^2;
        # the two round differently (long double against float64 at each
        # grid point), so they agree to 2 eps, no longer bit for bit
        # d = 1 and 2; the kinds of two distinct coordinates need d = 2
        for d in range(kind.spec.min_d, 3):
            # in d = 1 every coordinate of the kind is 1
            kind_d = KernelKind(kind.tag, **{n: min(v, d) for n, v in _coords(kind).items()})
            alpha = (0.3, -0.5)[:d]
            e = random_expansion(alpha, kind_d.input_family(), nmodes=8, max_level=6,
                                 seed=5 + d)
            pts, w = basis._quad_grid(as_alpha(alpha), 32)
            want = float(np.sqrt(np.sum(w * gfun_exact(kind_d, e, pts) ** 2)))
            assert abs(gfun_l2_norm(kind_d, e, order=32) - want) <= 2 * EPS * want

    def test_warm_norm_builds_no_table(self, monkeypatch):
        built = []
        table_1d = basis._ell_table_1d

        def counted(a, kmax, xi):
            built.append(a)
            return table_1d(a, kmax, xi)

        kind = KernelKind("hT", i=2)
        e = random_expansion((0.3, -0.5), PLAIN, nmodes=8, max_level=6, seed=9)
        first = gfun_l2_norm(kind, e, order=40)
        monkeypatch.setattr(basis, "_ell_table_1d", counted)
        assert gfun_l2_norm(kind, e, order=40) == first
        assert built == []


EPS = np.finfo(float).eps


def _long_double_contraction(kind, nus, amp):
    """sum_(m,n) a_m a_n / (nu_m + nu_n)^p in np.longdouble, and the same sum over |a|."""
    nl, al = nus.astype(np.longdouble), amp.astype(np.longdouble)
    inv = 1 / (nl[:, None] + nl[None, :]) ** kind.time_power
    return (np.einsum("mp,mn,np->p", al, inv, al),
            np.einsum("mp,mn,np->p", np.abs(al), inv, np.abs(al)))


class TestContraction:
    KINDS = [KernelKind("dT"), KernelKind("hT", i=1)]  # time powers 2 and 1

    @pytest.mark.parametrize("kind", KINDS, ids=_gtag)
    def test_against_long_double(self, kind):
        assert {k.time_power for k in self.KINDS} == {1, 2}
        for seed in range(20):
            rng = np.random.default_rng(seed)
            # eigenvalue-like heat rates, or their square roots for Poisson ones
            nus = 4.0 * np.sort(rng.choice(30, 8, replace=False)) + 2.6
            nus = np.sqrt(nus) if seed % 2 else nus
            # nonnegative amplitudes: no cancellation, so the value itself is the scale
            amp = rng.uniform(0.0, 1.0, (8, 500))
            want = np.sqrt(_long_double_contraction(kind, nus, amp)[0])
            got = _closed_values(kind, nus, amp)
            assert np.max(np.abs(got - want) / want) <= 2 * EPS
            # signed amplitudes: the error is bounded by the sum over |a|
            amp = rng.normal(size=(8, 500))
            want, scale = _long_double_contraction(kind, nus, amp)
            got = _closed_values(kind, nus, amp).astype(np.longdouble) ** 2
            assert np.max(np.abs(got - want) / scale) <= 4 * EPS

    @pytest.mark.bitexact
    def test_norm_within_one_eps_of_long_double(self):
        # the L^2 norm sums many values, so its rounding averages out; the
        # reference contracts the amplitudes on the tensor grid point by point
        for d, order in ((1, 64), (2, 64), (3, 24)):
            alpha = as_alpha((0.0, -0.5, 0.3)[:d])
            pts, w = basis._quad_grid(alpha, order)
            for kind in ALL_KINDS:
                if kind.spec.min_d > d:
                    continue
                kind = KernelKind(kind.tag, **{n: min(v, d) for n, v in _coords(kind).items()})
                for seed in range(10):
                    e = random_expansion(alpha, kind.input_family(), nmodes=8, max_level=8,
                                         seed=seed)
                    nus, mults = (v[0] for v in _modes(kind, alpha, *_mode_arrays(e)))
                    amp = mults[:, None] * ell_batch(alpha, kind.output_shifts, list(e.coeffs),
                                                     pts)
                    sq, _ = _long_double_contraction(kind, nus, amp)
                    want = np.sqrt(np.sum(w * np.maximum(sq, 0)))
                    got = gfun_l2_norm(kind, e, order=order)
                    assert abs(got - want) <= EPS * want

    def test_nan_amplitude_gives_nan(self):
        rng = np.random.default_rng(3)
        nus = np.array([2.6, 6.6, 10.6])
        amp = rng.normal(size=(3, 6))
        amp[1, 4] = np.nan
        for kind in self.KINDS:
            got = _closed_values(kind, nus, amp)
            assert np.isnan(got[4])
            assert np.all(np.isfinite(np.delete(got, 4)))


def _run_gfun(tmp_path, alpha: str, order: int, task="gfun"):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"alpha = {alpha}\nseed = 3\ncount = 4\ncutoff = 5\nquad_order = {order}\n"
                   "box_hi = 2\n")
    return cli.main([task, "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
                     "--no-timestamp"])


class TestL2Norms:
    @staticmethod
    def _batch(kind, alpha, d):
        """Drawn rows, a duplicate of row 0, a row of level <= 1 modes, whose lone
        call reads shallower Gram matrices, and, where the family has indices
        with k_c = 0, a row of such modes only (repeated to fill the row)."""
        fam = kind.input_family()
        idx, coeffs = _draw_modes(alpha, fam, 6, 4, range(7))
        rows = [idx[0], np.resize(basis._family_indices(fam, d, 1), idx[0].shape)]
        if kind.coord:
            idle = [k for k in basis._family_indices(fam, d, 4) if k[kind.coord - 1] == 0]
            if idle:
                rows.append(np.resize(idle, idx[0].shape))
        fill = np.tile(np.arange(1.0, coeffs.shape[1] + 1), (len(rows) - 1, 1))
        return fam, np.concatenate([idx, rows]), np.concatenate([coeffs, coeffs[:1], fill])

    @pytest.mark.bitexact
    @pytest.mark.parametrize("kind, d", [(k, d) for k in ALL_KINDS for d in (1, 2, 3)
                                         if d >= k.spec.min_d],
                             ids=[f"{i}-d{d}" for i, k in zip(CASE_NUMBER_IDS, ALL_KINDS)
                                  for d in (1, 2, 3) if d >= k.spec.min_d])
    def test_equals_per_expansion_norms_bit_for_bit(self, kind, d):
        kind = KernelKind(kind.tag, **{n: min(v, d) for n, v in _coords(kind).items()})
        # at these alphas, the order of the additions in the eigenvalue shows in
        # its last bit for some levels <= 4 at every d
        alpha = as_alpha((0.31, -0.37, 0.53)[:d])
        fam, idx, coeffs = self._batch(kind, alpha, d)
        got = _l2_norms(kind, alpha, fam, idx, coeffs)
        assert got.tolist() == [_l2_norms(kind, alpha, fam, idx[n:n + 1], coeffs[n:n + 1])[0]
                                for n in range(len(idx))]
        assert _l2_norms(kind, alpha, fam, idx[::-1], coeffs[::-1]).tolist() == got[::-1].tolist()
        assert got[7] == got[0]
        if len(idx) == 10:
            assert got[9] == 0.0
        # a drawn row is its expansion's norm, and a mode without output adds
        # nothing: the expansion without those modes has the same norm
        for n in range(7):
            e = random_expansion(alpha, fam, nmodes=6, max_level=4, seed=n)
            live = {k: c for k, c in e.coeffs.items() if not kind.coord or k[kind.coord - 1]}
            assert gfun_l2_norm(kind, e) == got[n]
            assert gfun_l2_norm(kind, Expansion(alpha, fam, live)) == got[n]

    @pytest.mark.bitexact
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=CASE_NUMBER_IDS)
    def test_nan_coefficient_poisons_its_own_norm(self, kind):
        alpha = as_alpha((0.3, -0.5))
        fam, idx, coeffs = self._batch(kind, alpha, 2)
        want = _l2_norms(kind, alpha, fam, idx, coeffs, 24)
        live = np.flatnonzero(_modes(kind, alpha, idx[2], coeffs[2])[1])[0]
        coeffs[2, live] = math.nan
        got = _l2_norms(kind, alpha, fam, idx, coeffs, 24)
        assert np.isnan(got[2])
        assert np.array_equal(np.delete(got, 2), np.delete(want, 2))

    @pytest.mark.bitexact
    @pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k.spec.deriv == "h"],
                             ids=[i for i, k in zip(CASE_NUMBER_IDS, ALL_KINDS)
                                  if k.spec.deriv == "h"])
    def test_nan_on_a_mode_without_output_keeps_its_row(self, kind):
        alpha = as_alpha((0.3, -0.5))
        fam, idx, coeffs = self._batch(kind, alpha, 2)
        want = _l2_norms(kind, alpha, fam, idx, coeffs, 24)
        rows, modes = np.nonzero(idx[..., kind.coord - 1] == 0)
        coeffs[rows, modes] = math.nan
        assert np.array_equal(_l2_norms(kind, alpha, fam, idx, coeffs, 24), want)
        assert np.all(np.isfinite(want))

    def test_family_checked_against_kind(self):
        alpha = as_alpha((0.3, -0.5))
        idx, coeffs = _draw_modes(alpha, differentiated(1), 6, 4, [1])
        with pytest.raises(ValueError, match="plain family"):
            _l2_norms(KernelKind("hT", i=1), alpha, differentiated(1), idx, coeffs, 16)
        with pytest.raises(ValueError, match="differentiated family"):
            _l2_norms(KernelKind("hTmodStar", j=1), alpha, PLAIN, idx, coeffs, 16)
        with pytest.raises(ValueError, match="exceeds the dimension"):
            _l2_norms(KernelKind("hT", i=3), alpha, PLAIN, idx, coeffs, 16)
        none = _l2_norms(KernelKind("hTmodStar", j=1), alpha, differentiated(1),
                         idx[:0], coeffs[:0], 16)
        assert none.shape == (0,)
        # an expansion without modes is a row of none
        empty = Expansion(alpha, differentiated(1), {})
        assert gfun_l2_norm(KernelKind("hTmodStar", j=1), empty, 16) == 0.0
        assert gfun_l2_exact(KernelKind("hTmodStar", j=1), empty) == 0.0

    def test_one_norm_is_a_batch_of_one(self, monkeypatch):
        calls = []

        def recorded(kind, alpha, family, idx, coeffs, order=64):
            calls.append((idx.shape, coeffs.shape))
            return np.array([0.25])

        monkeypatch.setattr(gfunctions, "_l2_norms", recorded)
        e = random_expansion((0.3,), PLAIN, nmodes=7, seed=2)
        assert gfun_l2_norm(KernelKind("dT"), e, order=16) == 0.25
        assert calls == [((1, 7, 1), (1, 7))]

    def test_batch_holds_no_more_than_one_norm(self):
        # d = 3 at the default order: an amplitude table of one expansion on the
        # tensor grid would hold 8 rows x 64^3 points, 16.8 MB; the whole batch
        # stays below 1 MB, tables included; scipy's construction of the 1-d Gauss
        # rules (about 2 MB at order 64, once per component and order) is not counted
        alpha = as_alpha((0.3, -0.5, 1.2))
        idx, coeffs = _draw_modes(alpha, PLAIN, 8, 8, range(4))
        basis._quad_rules(alpha, 64)
        tracemalloc.start()
        try:
            _l2_norms(KernelKind("dT"), alpha, PLAIN, idx, coeffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_gfun_op_builds_no_expansion(self, tmp_path, monkeypatch):
        # the gfun rows norm arrays of drawn modes and take their horizontal
        # exact side from the closed form
        def refuse(*args, **kwargs):
            raise AssertionError("the gfun task built an Expansion")

        for module in (czcheck, cli):
            monkeypatch.setattr(module, "random_expansion", refuse)
        monkeypatch.setattr(basis.Expansion, "__post_init__", refuse)
        monkeypatch.setattr(gfunctions, "gfun_l2_exact", refuse)
        for alpha in ("0.3", "0, -0.5", "0.3, -0.5, 1.2"):
            assert _run_gfun(tmp_path, alpha, 16) == 0

    @pytest.mark.parametrize("alpha, order", [("0.3", 16), ("0, -0.5", 16),
                                              ("0.3, -0.5, 1.2, 0", 64)],
                             ids=["d1", "d2", "d4"])
    def test_gfun_op_reads_no_tensor_grid(self, tmp_path, monkeypatch, alpha, order):
        # neither the configuration check nor the norms form the order^d grid
        def refuse(*args):
            raise AssertionError("the gfun task formed the tensor grid")

        monkeypatch.setattr(basis, "_quad_grid", refuse)
        assert _run_gfun(tmp_path, alpha, order) == 0


class TestGfunCheckPower:
    """lps verify fails on a gfun row when the norms' quadrature or a kind is wrong."""

    ALPHAS = {1: "0.3", 2: "0, -0.5"}

    @pytest.fixture(params=[1, 2], ids=["d1", "d2"])
    def alpha(self, request, tmp_path):
        alpha = self.ALPHAS[request.param]
        assert _run_gfun(tmp_path, alpha, 32, task="verify") == 0
        return alpha

    def _fails_on_a_gfun_row(self, tmp_path, capsys, alpha):
        capsys.readouterr()
        assert _run_gfun(tmp_path, alpha, 32, task="verify") == 1
        err = capsys.readouterr().err
        assert "FAILED:" in err
        assert "check=isometry_" in err or "check=horizontal_heat_sum" in err

    def test_scaled_weights_of_one_coordinate(self, tmp_path, monkeypatch, capsys, alpha):
        last = float(alpha.split(",")[-1])
        rule = basis._quad_rule

        def scaled(a, order):
            out = rule(a, order)
            return QuadratureRule(out.nodes, out.weights * (1 + 1e-5)) if a == last else out

        monkeypatch.setattr(basis, "_quad_rule", scaled)
        self._fails_on_a_gfun_row(tmp_path, capsys, alpha)

    def test_wrong_time_power_of_one_kind(self, tmp_path, monkeypatch, capsys, alpha):
        power = KernelKind.time_power
        monkeypatch.setattr(KernelKind, "time_power", property(
            lambda kind: 1 if kind.tag == "dT" else power.fget(kind)))
        self._fails_on_a_gfun_row(tmp_path, capsys, alpha)


class TestIsometry:
    @pytest.mark.parametrize("kind", [KernelKind("dT"), KernelKind("dP")], ids=_gtag)
    def test_plain_vertical_isometry(self, kind):
        rng = np.random.default_rng(11)
        for trial in range(12):
            d = 1 + trial % 2
            alpha = tuple(rng.uniform(-0.5, 3.0, d))
            e = random_expansion(alpha, PLAIN, nmodes=8, max_level=6, seed=200 + trial)
            norm = gfun_l2_norm(kind, e, order=48)
            assert norm == pytest.approx(0.5 * e.l2_norm(), rel=1e-7)

    @pytest.mark.parametrize("tag", ["dTmod", "dPmod"], ids=["gVTmod", "gVPmod"])
    def test_modified_vertical_isometry(self, tag):
        rng = np.random.default_rng(13)
        for trial in range(12):
            d = 1 + trial % 2
            alpha = tuple(rng.uniform(-0.5, 3.0, d))
            j = 1 + trial % d
            e = random_expansion(alpha, differentiated(j), nmodes=8, max_level=6,
                                 seed=300 + trial)
            norm = gfun_l2_norm(KernelKind(tag, j=j), e, order=48)
            assert norm == pytest.approx(0.5 * e.l2_norm(), rel=1e-7)

    def test_spectral_norm_matches_quadrature(self):
        alpha = (0.3, -0.5)
        for kind in ALL_KINDS:
            e = random_expansion(alpha, kind.input_family(), nmodes=6, max_level=5, seed=77)
            assert gfun_l2_norm(kind, e, order=48) == pytest.approx(
                gfun_l2_exact(kind, e), rel=1e-9
            )


class TestHorizontalSums:
    def test_combined_heat_square_sum(self):
        # sum_i ||g_HT^i(f)||^2 = sum_k 2|k|/lambda_|k| c_k^2
        alpha = (0.3, -0.5)
        a = as_alpha(alpha)
        e = random_expansion(alpha, PLAIN, nmodes=8, max_level=6, seed=91)
        got = sum(
            gfun_l2_norm(KernelKind("hT", i=i), e, order=48) ** 2
            for i in (1, 2)
        )
        want = sum(
            2.0 * sum(k) / eigenvalue(a, sum(k)) * c * c for k, c in e.coeffs.items()
        )
        assert got == pytest.approx(want, rel=1e-8)
        # and the ratio to ||f||^2 sits in (0, 1/2] once the ground mode is absent
        if (0, 0) not in e.coeffs:
            ratio = got / e.l2_norm() ** 2
            assert 0.0 < ratio <= 0.5

    def test_combined_modified_poisson_square_sum(self):
        # sum over i (with i = j the adjoint kind) = sum_n n/lambda_n sum_(|k|=n) c_k^2
        alpha = (0.3, -0.5)
        a = as_alpha(alpha)
        j = 1
        e = random_expansion(alpha, differentiated(j), nmodes=8, max_level=6, seed=93)
        got = gfun_l2_norm(KernelKind("hPmodStar", j=j), e, order=48) ** 2
        got += gfun_l2_norm(KernelKind("hPmod", i=2, j=j), e, order=48) ** 2
        want = sum(
            sum(k) / eigenvalue(a, sum(k)) * c * c for k, c in e.coeffs.items()
        )
        assert got == pytest.approx(want, rel=1e-8)
        ratio = got / e.l2_norm() ** 2
        assert 0.0 < ratio <= 0.5
