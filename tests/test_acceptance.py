"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s or -rA to see them
all) and asserts the criterion, including its runtime budget where one is
stated.
"""

import math
import time

import numpy as np
import pytest

from lps.basis import Expansion, PLAIN, differentiated, eigenvalue, ell
from lps.czcheck import (
    ESTIMATES,
    counterexample_profile,
    lemma_suite,
    random_expansion,
    riesz_identity_check,
    sample_pairs,
    sample_perturbed,
    scan,
)
from lps.gfunctions import gfun_l2_norm
from lps.kernels import (
    KernelKind,
    ZetaGrid,
    default_kinds,
    heat_kernel_closed,
    heat_kernel_schlafli,
    heat_kernel_spectral,
    subordination_u_rule,
)
from lps.measure import as_alpha
from lps.specfun import gauss_laguerre_rule


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status} ({detail})")
    return ok


ALPHA_SETS = [(-0.5,), (0.0,), (-0.5, -0.5), (0.0, 0.0), (1.3, -0.5)]


def test_01_isometry_suite():
    t0 = time.perf_counter()
    worst = 0.0
    trials = 0
    for cfg_idx, alpha in enumerate(ALPHA_SETS):
        d = len(alpha)
        for rep in range(5):
            seed = 1000 * cfg_idx + rep
            e = random_expansion(alpha, PLAIN, nmodes=8, max_level=7, seed=seed)
            for tag in ("dT", "dP"):
                n = gfun_l2_norm(KernelKind(tag), e, order=40)
                worst = max(worst, abs(n - 0.5 * e.l2_norm()) / (0.5 * e.l2_norm()))
                trials += 1
            j = 1 + rep % d
            em = random_expansion(alpha, differentiated(j), nmodes=8, max_level=7,
                                  seed=seed + 17)
            for tag in ("dTmod", "dPmod"):
                n = gfun_l2_norm(KernelKind(tag, j=j), em, order=40)
                worst = max(worst, abs(n - 0.5 * em.l2_norm()) / (0.5 * em.l2_norm()))
                trials += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed <= 60.0 and trials >= 100
    assert report(1, "vertical isometry = f/2", ok,
                  f"{trials} checks, worst rel dev {worst:.2e}, {elapsed:.1f}s")


def test_02_horizontal_equivalence():
    worst = 0.0
    ratios = []
    for cfg_idx, alpha in enumerate(ALPHA_SETS):
        a = as_alpha(alpha)
        d = a.d
        for rep in range(4):
            seed = 2000 * cfg_idx + rep
            # heat: f orthogonal to the ground state, sum_i ||g_HT^i||^2
            e = random_expansion(alpha, PLAIN, nmodes=8, max_level=7, seed=seed)
            e.coeffs.pop((0,) * d, None)
            quad = sum(gfun_l2_norm(KernelKind("hT", i=i), e, order=40) ** 2
                       for i in range(1, d + 1))
            want = sum(2.0 * sum(k) / eigenvalue(a, sum(k)) * c * c
                       for k, c in e.coeffs.items())
            worst = max(worst, abs(quad - want) / want)
            ratios.append(quad / e.l2_norm() ** 2)
            # modified Poisson: the i = j slot is the adjoint-derivative kind
            j = 1 + rep % d
            em = random_expansion(alpha, differentiated(j), nmodes=8, max_level=7,
                                  seed=seed + 31)
            quad = gfun_l2_norm(KernelKind("hPmodStar", j=j), em, order=40) ** 2
            quad += sum(gfun_l2_norm(KernelKind("hPmod", i=i, j=j), em, order=40) ** 2
                        for i in range(1, d + 1) if i != j)
            want = sum(sum(k) / eigenvalue(a, sum(k)) * c * c
                       for k, c in em.coeffs.items())
            worst = max(worst, abs(quad - want) / want)
            ratios.append(quad / em.l2_norm() ** 2)
    in_band = all(0.0 < r <= 0.5 for r in ratios)
    ok = worst <= 1e-6 and in_band
    assert report(2, "horizontal spectral sums", ok,
                  f"worst rel dev {worst:.2e}, ratios in (0,1/2]: {in_band}")


def test_03_kernel_triple_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    alphas = [(-0.5,), (0.0,), (1.2,), (0.7, -0.5), (-0.5, 1.0)]
    worst = 0.0
    for trial in range(50):
        alpha = alphas[trial % len(alphas)]
        d = len(alpha)
        t = float(rng.uniform(0.1, 2.0))
        x = rng.uniform(0.15, 3.5, d)
        y = rng.uniform(0.15, 3.5, d)
        c = heat_kernel_closed(alpha, t, x, y)
        g = heat_kernel_schlafli(alpha, t, x, y, order=64)
        s = heat_kernel_spectral(alpha, t, x, y, 70)
        worst = max(worst, abs(g - c) / c, abs(s - c) / c)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed <= 30.0
    assert report(3, "heat kernel triple agreement", ok,
                  f"worst rel dev {worst:.2e}, {elapsed:.1f}s")


def test_04_chapman_kolmogorov():
    rng = np.random.default_rng(404)
    worst = 0.0
    for trial in range(10):
        alpha = [(-0.5,), (0.0,), (0.3,), (1.1,), (0.7,)][trial % 5]
        t = float(rng.uniform(0.1, 0.8))
        s = float(rng.uniform(0.1, 0.8))
        x = float(rng.uniform(0.3, 2.5))
        y = float(rng.uniform(0.3, 2.5))
        rule = gauss_laguerre_rule(90, alpha[0])
        zs = np.sqrt(rule.nodes)
        w = 0.5 * rule.weights * np.exp(rule.nodes)
        vals = np.array([
            heat_kernel_closed(alpha, t, [x], [z]) * heat_kernel_closed(alpha, s, [z], [y])
            for z in zs
        ])
        lhs = float(np.sum(w * vals))
        rhs = heat_kernel_closed(alpha, t + s, [x], [y])
        worst = max(worst, abs(lhs - rhs) / rhs)
    ok = worst <= 1e-5
    assert report(4, "Chapman-Kolmogorov semigroup law", ok, f"worst rel dev {worst:.2e}")


def test_05_subordination_identity():
    u, w = subordination_u_rule()
    worst = 0.0
    for lam in range(1, 51):
        for t in (0.1, 1.0, 5.0):
            got = float(np.sum(w * np.exp(-(t * t) * lam / (4.0 * u))))
            worst = max(worst, abs(got - math.exp(-t * math.sqrt(lam))))
    ok = worst <= 1e-10
    assert report(5, "per-mode subordination identity", ok, f"worst abs dev {worst:.2e}")


def test_06_lemma_suite():
    results = lemma_suite((0.0, -0.5), samples=100000, seed=606)
    bad = [r for r in results if not r.passed]
    detail = "; ".join(f"{r.name}={r.margin:.2e}" for r in results)
    ok = not bad
    assert report(6, "inequality lemma suite", ok, detail)


@pytest.mark.slow
def test_07_cz_scans_all_ten_kinds():
    t0 = time.perf_counter()
    count = 1000
    grid = ZetaGrid(order=8, levels=30)
    fine = grid.refined()
    # the eight kinds of d = 1, then the two that need a second coordinate
    d1_kinds = default_kinds(1)
    d2_kinds = [k for k in default_kinds(2) if k not in d1_kinds]
    all_ok = True
    details = []
    for alpha, kinds in (((-0.5,), d1_kinds), ((0.0, -0.5), d2_kinds)):
        d = len(alpha)
        x, y = sample_pairs(d, count, 707)
        xp = sample_perturbed(x, y, 708)
        yp = sample_perturbed(y, x, 709)
        res = scan(alpha, kinds, x, y, xp, yp, [grid, fine])
        for k, kind in enumerate(kinds):
            for e, which in enumerate(ESTIMATES):
                maxes = []
                for ratios in res.ratio[k, :, e]:
                    if not np.all(np.isfinite(ratios)):
                        all_ok = False
                    maxes.append(float(ratios.max()))
                drift = abs(maxes[1] - maxes[0]) / maxes[1]
                if drift >= 0.05:
                    all_ok = False
                details.append(f"{kind.tag}/{which}: max {maxes[1]:.3g} drift {drift:.1%}")
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed <= 600.0
    worst_line = max(details, key=lambda s: float(s.split("drift ")[1].rstrip("%")))
    assert report(7, "CZ standard-estimate scans", ok,
                  f"30 scans x {count} pairs, worst {worst_line}, {elapsed:.0f}s")


def test_08_riesz_identity():
    rng = np.random.default_rng(808)
    worst = 0.0
    for trial in range(10):
        alpha = [(-0.5,), (0.0,), (1.3, -0.5), (0.0, 0.0)][trial % 4]
        d = len(alpha)
        e = random_expansion(alpha, PLAIN, nmodes=10, max_level=8, seed=800 + trial)
        xg = rng.uniform(0.2, 4.0, (25, d))
        dev = riesz_identity_check(alpha, 1 + trial % d, e, (0.1, 0.5, 1.0, 2.0), xg)
        worst = max(worst, dev)
    ok = worst <= 1e-9
    assert report(8, "Riesz transform intertwining identity", ok, f"max dev {worst:.2e}")


def test_09_counterexample_profile():
    worst = 0.0
    xs = np.linspace(0.1, 5.0, 120)
    for a in (0.0, 1.0):
        _, _, dev = counterexample_profile(a, xs)
        worst = max(worst, dev)
    ok = worst <= 1e-7
    assert report(9, "adjoint-swap counterexample profile", ok, f"max dev {worst:.2e}")


def test_10_reproducibility(tmp_path):
    from lps.cli import main

    cfg = tmp_path / "repro.cfg"
    cfg.write_text(
        "alpha = 0.0, -0.5\nseed = 101\ncount = 8\nkind = dPmod\n"
        "zeta_order = 6\nzeta_levels = 14\n"
    )
    out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
    rc1 = main(["czscan", "--config", str(cfg), "--out", out1, "--no-timestamp"])
    rc2 = main(["czscan", "--config", str(cfg), "--out", out2, "--no-timestamp"])
    identical = open(out1, "rb").read() == open(out2, "rb").read()
    ok = rc1 == 0 and rc2 == 0 and identical
    assert report(10, "byte-identical seeded reports", ok,
                  f"exit codes {rc1},{rc2}, identical={identical}")
