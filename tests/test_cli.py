import csv
import io
import json
import math
import os
import subprocess
import sys
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest

from lps import basis, cli, measure, specfun
from lps.cli import ConfigError, RunConfig, build_config, main, parse_config
from lps.kernels import heat_kernel_schlafli


def write_config(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


BASE = """
alpha = 0.0
count = 5
seed = 42
cutoff = 4
quad_order = 32
"""


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        path = write_config(
            tmp_path,
            "alpha = 0.3, -0.5\ntask = verify\nseed = 7\ncount = 10\n# comment\n",
        )
        values = parse_config(path)
        assert values["alpha"] == (0.3, -0.5)
        assert values["task"] == "verify"
        assert values["seed"] == 7

    def test_unknown_key_is_error(self, tmp_path):
        path = write_config(tmp_path, "alpha = 0.0\nbogus_key = 3\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_config(path)

    def test_bad_value_names_field(self, tmp_path):
        path = write_config(tmp_path, "alpha = 0.0\ncount = many\n")
        with pytest.raises(ConfigError, match="count"):
            parse_config(path)

    def test_missing_alpha_is_error(self, tmp_path):
        path = write_config(tmp_path, "task = basis\n")

        class Args:
            config = path
            task = "basis"
            seed = None
            out = ""
            format = ""
            threads = ""
            no_timestamp = False

        with pytest.raises(ConfigError, match="alpha"):
            build_config(Args())


class TestValidation:
    def test_czscan_requires_cz_range(self):
        cfg = RunConfig(alpha=(-0.9,), task="czscan", seed=1)
        with pytest.raises(ConfigError, match=r"-1/2"):
            cfg.validate()

    def test_seed_required_for_sampled_tasks(self):
        cfg = RunConfig(alpha=(0.0,), task="gfun")
        with pytest.raises(ConfigError, match="seed"):
            cfg.validate()

    def test_basis_size_bound_keeps_d3_defaults(self):
        # 165 x 64^3 = 43M entries at the d = 3 defaults, 495 x 16^4 = 32M at order 16 in d = 4
        RunConfig(alpha=(0.0, 0.0, 0.0), task="basis").validate()
        RunConfig(alpha=(0.0, 0.0, 0.0, 0.0), task="basis", quad_order=16).validate()

    def test_threads_clamped_to_cores(self, monkeypatch):
        # thread_count only computes the number; no thread is started here
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert RunConfig(alpha=(0.0,), task="basis", threads="64").thread_count() == 4
        assert RunConfig(alpha=(0.0,), task="basis", threads="3").thread_count() == 3
        assert RunConfig(alpha=(0.0,), task="basis").thread_count() == 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert RunConfig(alpha=(0.0,), task="basis").thread_count() == 1

    def test_bad_threads(self):
        cfg = RunConfig(alpha=(0.0,), task="basis", threads="zero")
        with pytest.raises(ConfigError, match="threads"):
            cfg.thread_count()


# each case: the task, its config text (seed and count are added) and the
# text that the error message must contain
INVALID_CONFIGS = {
    "alpha_below_range": ("czscan", "alpha = -0.9\n", "-1/2"),
    "alpha_nan": ("basis", "alpha = nan\n", "alpha"),
    "quad_order_0": ("basis", "alpha = 0.0\nquad_order = 0\n", "quad_order"),
    "cutoff_negative": ("basis", "alpha = 0.0\ncutoff = -1\n", "cutoff"),
    "gfun_cutoff_0": ("gfun", "alpha = 0.0\ncutoff = 0\n", "cutoff"),
    "verify_cutoff_0": ("verify", "alpha = 0.0\ncutoff = 0\n", "cutoff"),
    "zeta_order_1": ("czscan", "alpha = 0.0\nzeta_order = 1\n", "zeta_order"),
    "zeta_levels_1": ("czscan", "alpha = 0.0\nzeta_levels = 1\n", "zeta_levels"),
    # 1/sinh(2t)^2 overflows at the smallest time node from about 510 levels,
    # and 0.5**levels underflows from 1075
    "zeta_levels_501": ("czscan", "alpha = 0.0\nzeta_levels = 501\n",
                        "zeta_levels: must be <= 500"),
    "zeta_levels_1100": ("czscan", "alpha = 0.0\nzeta_levels = 1100\n",
                         "zeta_levels: must be <= 500"),
    "box_hi_inf": ("czscan", "alpha = 0.0\nbox_hi = inf\n", "box_hi"),
    # the mixed-derivative kinds need a second coordinate
    "hTmod_d1": ("czscan", "alpha = 0.0\nkind = hTmod\n", "kind"),
    "hPmod_d1": ("czscan", "alpha = 0.0\nkind = hPmod\n", "kind"),
    # the positional task must not silently override a different config task
    "task_contradicts_command": ("czscan", "alpha = 0.0\ntask = lemmas\n", "task"),
    # a d = 5 ball measure takes 20-30 s, once per pair
    "czscan_d5": ("czscan", "alpha = 0 0 0 0 0\n", "d = 5 ball takes 20-30 s"),
    "lemmas_d5": ("lemmas", "alpha = 0 0 0 0 0\n", "d = 5 ball takes 20-30 s"),
    # the kernel triple draws from the box clipped to [0.2, 4]
    "kernel_box_below": ("kernel", "alpha = 0.0\nbox_lo = 0.05\nbox_hi = 0.1\n", "box_lo/box_hi"),
    "kernel_box_above": ("kernel", "alpha = 0.0\nbox_lo = 5\nbox_hi = 9\n", "box_lo/box_hi"),
    "verify_box_below": ("verify", "alpha = 0.0\nbox_lo = 0.05\nbox_hi = 0.1\n", "box_lo/box_hi"),
    "verify_box_above": ("verify", "alpha = 0.0\nbox_lo = 5\nbox_hi = 9\n", "box_lo/box_hi"),
    # a box meeting [0.2, 4] in one point would draw that point every time
    "kernel_box_at_top": ("kernel", "alpha = 0.0\nbox_lo = 4\nbox_hi = 10\n", "box_lo/box_hi"),
    "kernel_box_at_bottom": ("kernel", "alpha = 0.0\nbox_lo = 0.05\nbox_hi = 0.2\n",
                             "box_lo/box_hi"),
    # alpha fixes the dimension; there is no key for it
    "dimension_key": ("basis", "alpha = 0.0\ndimension = 1\n", "unknown key 'dimension'"),
    # Gauss-Laguerre rules past the double range: at 200 the weights
    # underflow to 0, at 400 scipy returns NaN nodes and weights
    "basis_quad_order_200": ("basis", "alpha = 0.0\nquad_order = 200\n", "quad_order"),
    "basis_quad_order_400": ("basis", "alpha = 0.0\nquad_order = 400\n", "quad_order"),
    "gfun_quad_order_400": ("gfun", "alpha = 0.0\nquad_order = 400\n", "quad_order"),
    "verify_quad_order_200": ("verify", "alpha = 0.0\nquad_order = 200\n", "quad_order"),
    "verify_quad_order_400": ("verify", "alpha = 0.0\nquad_order = 400\n", "quad_order"),
    # the normalisation of Pi_alpha leaves the normal doubles past alpha = 150.2
    # (the lemma fit shifts alpha by up to 2); Gamma(a + 1/2) overflows past 171
    "kernel_alpha_200": ("kernel", "alpha = 200\n", "alpha: task 'kernel' supports components"),
    "verify_alpha_200": ("verify", "alpha = 200\n", "alpha: task 'verify' supports components"),
    "lemmas_alpha_160": ("lemmas", "alpha = 160\n", "alpha: task 'lemmas' supports components"),
    "lemmas_alpha_170": ("lemmas", "alpha = 170\n", "alpha: task 'lemmas' supports components"),
    # the basis task reports the upper triangle of each family's Gram matrix:
    # about 610M rows here, of 20,301 plain functions at a low order
    "basis_cutoff_200": ("basis", "alpha = 0, 0\nquad_order = 2\ncutoff = 200\n",
                         "cutoff: task 'basis' reports"),
}


class TestExitCodes:
    @pytest.mark.parametrize("task,text,field", list(INVALID_CONFIGS.values()),
                             ids=list(INVALID_CONFIGS))
    def test_invalid_config_exits_2(self, tmp_path, capsys, task, text, field):
        path = write_config(tmp_path, text + "seed = 1\ncount = 3\n")
        code = main([task, "--config", path, "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("task", list(cli.TASKS))
    def test_negative_seed_exits_2(self, tmp_path, capsys, task):
        # numpy rejects a negative seed with a traceback; validation names the key
        path = write_config(tmp_path, "alpha = 0.0\ncount = 3\n")
        code = main([task, "--config", path, "--seed", "-1", "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_deepest_time_grid_runs_clean(self, tmp_path):
        # under the suite's error::RuntimeWarning filter an overflow would fail the run
        path = write_config(tmp_path, "alpha = -0.5\nseed = 3\ncount = 3\nzeta_levels = 500\n"
                            "refine = true\nthreads = 1\n")
        out = str(tmp_path / "scan.csv")
        assert main(["czscan", "--config", path, "--out", out, "--no-timestamp"]) == 0

    def test_verify_below_range_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "alpha = -0.9\nseed = 1\ncount = 3\n")
        code = main(["verify", "--config", path, "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "-1/2" in capsys.readouterr().err

    def test_verify_passes(self, tmp_path):
        path = write_config(tmp_path, BASE)
        out = str(tmp_path / "verify.csv")
        code = main(["verify", "--config", path, "--out", out, "--no-timestamp"])
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[1].startswith("t,")  # header row after the info line
        devs = [float(r[-1]) for r in csv.reader(lines[2:]) if r[-1]]
        assert all(d <= 1e-6 for d in devs if d == d)

    def test_basis_task(self, tmp_path):
        path = write_config(tmp_path, "alpha = 0.3\ncutoff = 3\nquad_order = 32\n")
        out = str(tmp_path / "basis.csv")
        assert main(["basis", "--config", path, "--out", out, "--no-timestamp"]) == 0

    def test_czscan_refine_flag(self, tmp_path):
        path = write_config(
            tmp_path,
            "alpha = 0.0\nseed = 5\ncount = 6\nkind = dT\nzeta_order = 6\n"
            "zeta_levels = 16\nrefine = true\n",
        )
        out = str(tmp_path / "scan.csv")
        assert main(["czscan", "--config", path, "--out", out, "--no-timestamp"]) == 0

    def test_row_count_matches_sample_count(self, tmp_path):
        path = write_config(tmp_path, "alpha = 0.0\nseed = 3\ncount = 7\nkind = dT\nzeta_order = 6\nzeta_levels = 12\n")
        out = str(tmp_path / "scan.csv")
        assert main(["czscan", "--config", path, "--out", out, "--no-timestamp"]) == 0
        rows = [r for r in open(out).read().splitlines() if not r.startswith("#")][1:]
        assert len(rows) == 3 * 7  # growth + two smoothness scans

    def test_single_estimate_rows_equal_pairs(self, tmp_path):
        path = write_config(
            tmp_path,
            "alpha = -0.5\nseed = 3\ncount = 100\nkind = dT\nestimate = growth\n"
            "zeta_order = 6\nzeta_levels = 12\n",
        )
        out = str(tmp_path / "growth.csv")
        assert main(["czscan", "--config", path, "--out", out, "--no-timestamp"]) == 0
        rows = list(csv.reader(r for r in open(out).read().splitlines()
                               if not r.startswith("#")))[1:]
        assert len(rows) == 100
        ratios = [float(r[7]) for r in rows]
        assert all(np.isfinite(ratios))

    def test_half_integer_scan_stays_in_closed_form(self, tmp_path, monkeypatch):
        # at alpha = -1/2 every base has order -1/2 or 1/2: no series (and no
        # ive: TestLazyScipy sees that scipy.special is never loaded)
        def refuse(*args, **kwargs):
            raise AssertionError("a Bessel regime off the closed forms was reached")

        monkeypatch.setattr(specfun, "_bessel_series_pair", refuse)
        path = write_config(tmp_path, "alpha = -0.5\nseed = 3\ncount = 8\nkind = all\n"
                            "zeta_order = 6\nzeta_levels = 12\nthreads = 1\n")
        out = str(tmp_path / "scan.csv")
        assert main(["czscan", "--config", path, "--out", out, "--no-timestamp"]) == 0

    # boxes that pass validation but give a pair with no usable perturbed
    # point: its separation overflows, underflows, or every draw rounds back to x
    @pytest.mark.parametrize("box", ["box_hi = 1e200\n", "box_lo = 1e-200\nbox_hi = 1e-199\n",
                                     "box_lo = 1\nbox_hi = 1.0000000000000002\n"],
                             ids=["overflow", "underflow", "rounding"])
    def test_box_without_perturbed_points_exits_2(self, tmp_path, capsys, box):
        path = write_config(tmp_path, "alpha = 0.3\nseed = 3\ncount = 5\n" + box)
        out = tmp_path / "scan.csv"
        assert main(["czscan", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: box_lo/box_hi: ") and err.count("\n") == 1
        assert not out.exists()

    def test_failed_evaluation_exits_1_without_report(self, tmp_path, capsys):
        # at this type index the Bessel series does not converge where ive underflows
        path = write_config(tmp_path, "alpha = 1000\nseed = 3\ncount = 6\nkind = dT\n"
                            "zeta_order = 6\nzeta_levels = 12\nthreads = 1\n")
        out = tmp_path / "scan.csv"
        assert main(["czscan", "--config", path, "--out", str(out)]) == 1
        assert "did not converge" in capsys.readouterr().err
        assert not out.exists()


    def test_underflowing_kernel_fails_its_rows(self, tmp_path, capsys):
        # at this type index the closed heat kernel underflows to 0, so the
        # relative deviation is undefined: the rows are reported and fail
        path = write_config(tmp_path, "alpha = 100\nseed = 1\ncount = 3\n")
        out = tmp_path / "r.csv"
        assert main(["kernel", "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert " closed=0 " in err and "rel_dev=nan" in err
        assert out.exists()

    def test_overflowing_ball_measure_exits_1_without_report(self, tmp_path, capsys):
        # mu_alpha of (0, 15) is about 15^322 at alpha = 160, past the double range
        path = write_config(tmp_path, "alpha = 160\nseed = 1\ncount = 3\nkind = dT\n"
                            "zeta_order = 4\nzeta_levels = 6\n")
        out = tmp_path / "r.csv"
        assert main(["czscan", "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mu_a of (0, ") and err.count("\n") == 1
        assert not out.exists()


class TestKernelRows:
    @pytest.mark.bitexact
    @pytest.mark.parametrize("alpha", [(0.3,), (0.0, -0.5), (0.3, -0.5, 1.2),
                                       (0.3, -0.5, 1.2, 0.0)], ids=["d1", "d2", "d3", "d4"])
    def test_one_rule_and_schlafli_cells_bit_for_bit(self, monkeypatch, alpha):
        cfg = RunConfig(alpha=alpha, task="kernel", seed=4, count=5, quad_order=24)
        a = cfg.validate()
        built, rules = [], cli.pi_alpha_rules
        monkeypatch.setattr(cli, "pi_alpha_rules",
                            lambda *args: built.append(args) or rules(*args))
        report = cli.Report(cli.TASKS["kernel"][1])
        cli._kernel_rows(cfg, a, report)
        # the op's samples share one Pi_alpha rule, and each keeps the bits of its own call
        assert built == [(a, 24)]
        cells = report.cells
        for t, x, y, s in zip(cells["t"], cells["x"], cells["y"], cells["schlafli"]):
            assert heat_kernel_schlafli(a, t, x, y, order=24) == s


class TestGramRows:
    @pytest.mark.parametrize("alpha", [(0.3,), (0.0, -0.5), (0.3, -0.5, 1.2)],
                             ids=["d1", "d2", "d3"])
    def test_factored_gram_is_the_grid_quadrature(self, alpha):
        cfg = RunConfig(alpha=alpha, task="basis", cutoff=5, quad_order=24)
        a = cfg.validate()
        report = cli.Report(cli.TASKS["basis"][1])
        cli._gram_rows(cfg, a, report)
        # the tensor route: each family's functions on the points of _quad_grid,
        # summed in np.longdouble as the factors are (a float64 sum over the
        # 13,824 points of d = 3 rounds by up to 1.1e-15 on its own)
        pts, w = basis._quad_grid(a, cfg.quad_order)
        want = []
        for fam in [basis.PLAIN] + [basis.differentiated(j) for j in range(1, a.d + 1)]:
            idx = basis._family_indices(fam, a.d, cfg.cutoff)
            vals = basis.ell_batch(a, fam.shifts, idx, pts).astype(np.longdouble)
            want.append(((vals * w) @ vals.T)[np.triu_indices(len(idx))])
        want = np.concatenate(want)
        assert len(report) == len(want)
        assert np.max(np.abs(np.array(report.cells["gram"]) - want)) <= 1e-15

    def test_d4_defaults_pass(self):
        cfg = RunConfig(alpha=(0.0,) * 4, task="basis")
        a = cfg.validate()
        report = cli.Report(cli.TASKS["basis"][1])
        score = cli._gram_rows(cfg, a, report)
        # C(12, 4) = 495 plain and C(11, 4) = 330 functions in each differentiated family
        assert len(report) == len(score) == 495 * 496 // 2 + 4 * 330 * 331 // 2 == 341220
        assert np.all(score <= 1.0)


class TestNoTensorRule:
    @pytest.mark.parametrize("task", ["kernel", "verify", "basis"])
    def test_d3_op_builds_no_tensor_rule(self, tmp_path, monkeypatch, task):
        # the kernel triple and the Gram check sum their product measures by factors
        def refuse(*args):
            raise AssertionError(f"the {task} task built a tensor rule")

        for owner in (specfun, basis, measure, cli.czcheck):
            monkeypatch.setattr(owner, "tensor_rule", refuse)
        monkeypatch.setattr(basis, "_quad_grid", refuse)
        path = write_config(tmp_path, "alpha = 0.3, -0.5, 1.2\nseed = 2\ncount = 4\n"
                            "cutoff = 4\nbox_hi = 2\n")
        assert main([task, "--config", path, "--out", str(tmp_path / "r.csv")]) == 0


def _poison_call(monkeypatch, owner, name, nth, poison):
    """Replace the result of the nth call of owner.name by poison(result)."""
    original = getattr(owner, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(None)
        out = original(*args, **kwargs)
        return poison(out) if len(calls) == nth else out

    monkeypatch.setattr(owner, name, patched)


def _nan_rows(out):
    vals = np.array(out, dtype=float)
    vals[1] = np.nan
    return vals


def _identity_score(row):
    if row.get("rel_dev"):
        return float(row["rel_dev"]) / cli.TOLERANCE["kernel_triple"]
    if "family" in row:
        return float(row["deviation"]) / cli.TOLERANCE["gram"]
    return float(row["deviation"]) / cli.TOLERANCE.get(row["check"], cli.TOLERANCE["gfun"])


# each case: the task, its config, the numerical call made to return NaN (owner,
# name, which call, poison) and the score of a report row
NAN_CASES = {
    "basis": ("basis", "alpha = 0.3\ncutoff = 3\nquad_order = 32\n",
              (cli.basis_mod, "_rule_gram", 1, _nan_rows), _identity_score),
    "kernel": ("kernel", "alpha = 0.0\nseed = 9\ncount = 3\nquad_order = 32\n",
               (cli, "_heat_spectral", 1, _nan_rows), _identity_score),
    "gfun": ("gfun", "alpha = 0.0\nseed = 9\ncount = 2\ncutoff = 4\nquad_order = 32\n",
             (cli, "_l2_norms", 2, _nan_rows), _identity_score),
    "verify": ("verify", "alpha = 0.0\nseed = 9\ncount = 2\ncutoff = 4\nquad_order = 32\n",
               (cli, "_l2_norms", 3, _nan_rows), _identity_score),
    # a kernel-triple row of d >= 2 echoes its points as "(x1 x2)" cells
    "kernel-d2": ("kernel", "alpha = 0, -0.5\nseed = 9\ncount = 3\nquad_order = 32\n",
                  (cli, "_heat_spectral", 1, _nan_rows), _identity_score),
    "verify-d2": ("verify", "alpha = 0, -0.5\nseed = 9\ncount = 3\ncutoff = 4\n"
                  "quad_order = 32\n", (cli, "_heat_spectral", 1, _nan_rows), _identity_score),
    "lemmas": ("lemmas", "alpha = 0.0\nseed = 9\ncount = 200\n",
               (cli.czcheck, "_time_integral", 2, lambda v: np.full_like(v, np.nan)),
               lambda row: float(row["margin"])),
}


class TestVerdict:
    @pytest.mark.parametrize("case", list(NAN_CASES))
    def test_nan_score_fails_but_is_never_worst(self, tmp_path, monkeypatch, capsys, case):
        # the czscan case is test_nan_ratio_fails_but_is_never_worst
        task, text, (owner, name, nth, poison), score = NAN_CASES[case]
        _poison_call(monkeypatch, owner, name, nth, poison)
        out = tmp_path / "r.csv"
        code = main([task, "--config", write_config(tmp_path, text), "--out", str(out),
                     "--no-timestamp"])
        assert code == 1
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
        scores = [score(r) for r in rows]
        nan_rows = [i for i, v in enumerate(scores) if np.isnan(v)]
        assert nan_rows
        captured = capsys.readouterr()
        worst = max(v for v in scores if not np.isnan(v))
        assert f" worst={worst:.3e} " in captured.out
        # every other row passes, so the first NaN row is the one echoed
        assert all(v <= 1.0 for i, v in enumerate(scores) if i not in nan_rows)
        first = nan_rows[0]
        echoed = " ".join(f"{c}={v}" for c, v in rows[first].items() if v != "")
        assert captured.err == (f"FAILED: {len(nan_rows)} of {len(rows)} rows, the first "
                                f"(row {first + 1}): {echoed}\n")

    # inputs that have ended in tracebacks, and every config of the exit-2 cases,
    # each run for every task
    EDGE_CONFIGS = ["alpha = 0\nquad_order = 200\n", "alpha = 0\nquad_order = 400\n",
                    "alpha = 100\n", "alpha = 160\n", "alpha = 170\n", "alpha = 200\n",
                    "alpha = 1000\n"] + [text for _, text, _ in INVALID_CONFIGS.values()]

    def test_no_traceback_sweep(self, tmp_path, capsys):
        base = ("seed = 1\ncount = 3\ncutoff = 3\nzeta_order = 4\nzeta_levels = 6\n"
                "threads = 1\n")
        out = str(tmp_path / "r.csv")
        for n, text in enumerate(self.EDGE_CONFIGS):
            path = write_config(tmp_path, base + text, f"edge{n}.cfg")
            for task in cli.TASKS:
                assert main([task, "--config", path, "--out", out]) in (0, 1, 2), (task, text)
        capsys.readouterr()

    def test_lemma_without_kept_draws_fails_its_row(self, tmp_path, capsys):
        # the only draw of the halfway-shift lemma leaves the orthant: nothing is
        # checked, and the row fails with a NaN margin instead of a traceback
        path = write_config(tmp_path, "alpha = 0, -0.5\ncount = 1\n")
        out = tmp_path / "r.csv"
        assert main(["lemmas", "--config", path, "--seed", "12", "--out", str(out),
                     "--no-timestamp"]) == 1
        rows = {r["lemma"]: r for r in csv.DictReader(out.read_text().splitlines()[1:])}
        row = rows["q_stable_under_halfway_shift"]
        assert (row["passed"], row["margin"], row["detail"]) == ("False", "nan",
                                                                 "kept=0 of 1 draws")
        assert all(r["passed"] == "True" for r in rows.values() if r is not row)
        assert capsys.readouterr().err.startswith("FAILED: 1 of 6 rows, the first (row 3): ")


class TestLazyScipy:
    """scipy.special is imported where it is first needed.  Each check runs in a
    fresh interpreter, since the suite itself has loaded it."""

    SCRIPT = """
import sys
import lps.cli
print("scipy.special" in sys.modules)
for path, code in zip(sys.argv[1::2], sys.argv[2::2]):
    status = lps.cli.main(["czscan", "--config", path, "--seed", "3", "--out", path + ".csv"])
    assert status == int(code), path
    print("scipy.special" in sys.modules)
"""

    def test_half_integer_scan_never_loads_scipy_special(self, tmp_path):
        # a config error, a scan whose bases have components -1/2 and 1/2 only
        # (closed-form Bessel factors, Legendre rules), then a scan at 0.3
        base = "count = 4\nkind = all\nestimate = all\nzeta_order = 4\nzeta_levels = 6\n"
        configs = [("alpha = -0.5, -0.5\nzeta_levels = 1100\n", 2),
                   ("alpha = -0.5, -0.5\n" + base, 0), ("alpha = 0.3\n" + base, 0)]
        argv = []
        for n, (text, code) in enumerate(configs):
            argv += [write_config(tmp_path, text, f"c{n}.cfg"), str(code)]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        loaded = [line for line in proc.stdout.splitlines() if line in ("True", "False")]
        assert loaded == ["False", "False", "False", "True"]


class TestReproducibility:
    def test_byte_identical_reports(self, tmp_path):
        path = write_config(tmp_path, "alpha = 0.0\nseed = 9\ncount = 4\nkind = hT\nzeta_order = 6\nzeta_levels = 12\n")
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        assert main(["czscan", "--config", path, "--out", out1, "--no-timestamp"]) == 0
        assert main(["czscan", "--config", path, "--out", out2, "--no-timestamp"]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_rewrite_leaves_no_stale_tail(self, tmp_path):
        # a report is overwritten in place: a shorter one must not keep the
        # end of the longer one it replaces
        base = "alpha = 0.0\nseed = 9\nkind = dT\nzeta_order = 6\nzeta_levels = 12\n"
        for fmt in ("csv", "jsonl"):
            long_cfg = write_config(tmp_path, base + f"count = 6\nformat = {fmt}\n", "long.cfg")
            short_cfg = write_config(tmp_path, base + f"count = 2\nformat = {fmt}\n", "short.cfg")
            fresh = str(tmp_path / f"fresh.{fmt}")
            reused = str(tmp_path / f"reused.{fmt}")
            assert main(["czscan", "--config", short_cfg, "--out", fresh, "--no-timestamp"]) == 0
            assert main(["czscan", "--config", long_cfg, "--out", reused, "--no-timestamp"]) == 0
            long_size = os.path.getsize(reused)
            assert main(["czscan", "--config", short_cfg, "--out", reused, "--no-timestamp"]) == 0
            assert os.path.getsize(reused) < long_size
            assert open(reused, "rb").read() == open(fresh, "rb").read()

    def test_failed_serialisation_keeps_report(self, tmp_path, monkeypatch):
        # the text is built before the file is opened, so a row that JSON
        # cannot encode leaves the report at --out as it was
        def runner(cfg, alpha, report):
            report.add_columns(cell=[object()])
            return np.zeros(1), np.ones(1, bool)

        monkeypatch.setitem(cli.TASKS, "basis", (runner, ["cell"]))
        out = tmp_path / "r.jsonl"
        old = b'{"header": "task=basis"}\n{"cell": "an older row"}\n'
        out.write_bytes(old)
        path = write_config(tmp_path, "alpha = 0.0\nformat = jsonl\n")
        with pytest.raises(TypeError):
            main(["basis", "--config", path, "--out", str(out)])
        assert out.read_bytes() == old

    def test_nan_ratio_fails_but_is_never_worst(self, tmp_path, monkeypatch, capsys):
        # worst= is the largest ratio that is not NaN; a NaN ratio is reported,
        # fails the finiteness check and is the failing row echoed
        scan = cli.czcheck.scan

        def with_nan(*args):
            res = scan(*args)
            res.ratio[0, 0, 0, 0] = np.nan
            res.ratio[0, 0, 0, 2:] = 7.0
            return res

        monkeypatch.setattr(cli.czcheck, "scan", with_nan)
        path = write_config(tmp_path, "alpha = 0.0\nseed = 9\ncount = 4\nkind = dT\n"
                            "estimate = growth\nzeta_order = 4\nzeta_levels = 6\n")
        out = str(tmp_path / "r.csv")
        assert main(["czscan", "--config", path, "--out", out, "--no-timestamp"]) == 1
        rows = list(csv.reader(open(out).read().splitlines()[2:]))
        assert [r[7] for r in rows] == ["nan", rows[1][7], "7", "7"]
        captured = capsys.readouterr()
        assert "worst=7.000e+00" in captured.out
        assert (f"FAILED: 1 of 4 rows, the first (row 1): kind=dT estimate=growth "
                f"x={rows[0][2]} y={rows[0][3]} ") in captured.err
        assert " ratio=nan " in captured.err

    def test_csv_quotes_labels_with_commas(self, tmp_path):
        # the d = 2 labels hTmod(j=1,i=2) and hPmod(j=1,i=2) hold a comma;
        # quoted, every row reads back as 9 fields under the 9-column header
        path = write_config(tmp_path, "alpha = 0, -0.5\nseed = 9\ncount = 2\nkind = all\n"
                            "zeta_order = 4\nzeta_levels = 6\nthreads = 1\n")
        out = tmp_path / "r.csv"
        assert main(["czscan", "--config", path, "--out", str(out), "--no-timestamp"]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
        columns = cli.TASKS["czscan"][1]
        assert len(columns) == 9
        # a field past the header would sit under the key None, a missing one have the value None
        assert rows and all(list(r) == columns and None not in r.values() for r in rows)
        labels = {cli._kind_label(k) for k in cli.default_kinds(2)}
        assert "hTmod(j=1,i=2)" in labels and "hPmod(j=1,i=2)" in labels
        assert {r["kind"] for r in rows} == labels
        assert len(rows) == 2 * 3 * len(labels)

    def test_report_to_device(self, tmp_path):
        # a device cannot be cut to length; writing to it must still work
        path = write_config(tmp_path, "alpha = 0.0\nseed = 9\ncount = 2\nkind = dT\n"
                            "zeta_order = 6\nzeta_levels = 12\n")
        assert main(["czscan", "--config", path, "--out", os.devnull, "--no-timestamp"]) == 0

    def test_jsonl_format(self, tmp_path):
        # every task, so that no report column holds a type JSON cannot encode
        path = write_config(tmp_path, "alpha = 0.0\nseed = 9\ncount = 2\ncutoff = 4\n"
                            "quad_order = 32\nzeta_order = 6\nzeta_levels = 12\nformat = jsonl\n")
        for task, (_, columns) in cli.TASKS.items():
            out = str(tmp_path / f"{task}.jsonl")
            assert main([task, "--config", path, "--out", out, "--no-timestamp"]) == 0, task
            header, *records = (json.loads(line) for line in open(out).read().splitlines())
            assert "header" in header
            assert records, task
            assert all(list(rec) == columns for rec in records), task

    def test_threads_give_same_rows(self, tmp_path, monkeypatch):
        # one pair per span, so the six pairs are split over the workers
        monkeypatch.setattr(cli, "PAIR_BLOCK", 1)
        base = "alpha = 0.0\nseed = 9\ncount = 6\nkind = dP\nzeta_order = 6\nzeta_levels = 12\n"
        p1 = write_config(tmp_path, base + "threads = 1\n", "one.cfg")
        p2 = write_config(tmp_path, base + "threads = 3\n", "three.cfg")
        o1 = str(tmp_path / "t1.csv")
        o2 = str(tmp_path / "t3.csv")
        assert main(["czscan", "--config", p1, "--out", o1, "--no-timestamp"]) == 0
        assert main(["czscan", "--config", p2, "--out", o2, "--no-timestamp"]) == 0
        assert open(o1).read() == open(o2).read()

    def test_blas_threads_give_same_bytes(self, tmp_path):
        # every kind is normed in a summation order that the BLAS thread count
        # does not pick; the count is fixed when OpenBLAS loads, so each run
        # is its own process
        path = write_config(tmp_path, "alpha = -0.5\nkind = all\nestimate = all\ncount = 30\n"
                            "zeta_order = 8\nzeta_levels = 30\nthreads = 1\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        reports = []
        for n in ("1", "2"):
            out = tmp_path / f"blas{n}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=n, PYTHONPATH=os.pathsep.join(
                filter(None, (src, os.environ.get("PYTHONPATH")))))
            proc = subprocess.run([sys.executable, "-m", "lps.cli", "czscan", "--config", path,
                                   "--seed", "4242", "--no-timestamp", "--out", str(out)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            reports.append(out.read_bytes())
        assert reports[0].count(b"\n") == 2 + 30 * 8 * 3  # header lines, then 8 kinds x 3 estimates
        assert reports[0] == reports[1]

    def test_short_scan_starts_no_pool(self, tmp_path, monkeypatch):
        # fewer pairs than PAIR_BLOCK per worker: one span, run in the caller
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(cli, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        count = 2 * cli.PAIR_BLOCK - 1
        p = write_config(tmp_path, f"alpha = 0.0\nseed = 9\ncount = {count}\nkind = dT\n"
                         "estimate = growth\nzeta_order = 4\nzeta_levels = 6\nthreads = 8\n")
        assert main(["czscan", "--config", p, "--out", str(tmp_path / "r.csv")]) == 0


@pytest.mark.bitexact
class TestReportWriter:
    """The column-wise writer against csv.writer on the rows of per-cell _fmt."""

    COLUMNS = ["label", "flag", "n", "value", "point"]
    # text with a comma, a quote or a newline, an empty string, bools, ints,
    # floats and points; the later batches leave columns empty, so floats
    # and points share a column with blank cells, and one repeats a cell
    BATCHES = [
        dict(label=["a,b", 'say "hi"', "two\nlines", "", "plain", "hTmod(j=1,i=2)"],
             flag=[True, False, True, False, True, False],
             n=[0, -3, 7, 2**40, 1, 5],
             value=[0.1, -0.0, math.inf, math.nan, 1 / 3, -2.5e-300],
             point=[(0.5, 2.0), np.array([1e-5, 3.0]), (1.0,), [2, 3], (), (7.0, 8.0)]),
        dict(label=repeat("dT"), value=[1.5, 2.0], point=[(1.0, 2.0), (3.0, 4.0)]),
        dict(label=["last"], n=[9]),
    ]

    def _report(self):
        report = cli.Report(self.COLUMNS)
        for batch in self.BATCHES:
            report.add_columns(**batch)
        return report

    def _rows(self):
        """The rows of the batches as the old row writer formatted them."""
        rows = []
        for batch in self.BATCHES:
            cols = [map(cli._fmt, batch[c]) if c in batch else repeat("") for c in self.COLUMNS]
            rows += zip(*cols)
        return rows

    def test_csv_matches_csv_writer(self, tmp_path):
        out = tmp_path / "r.csv"
        report = self._report()
        report.write(str(out), "csv", ["task=test", "generated=now"])
        want = io.StringIO()
        want.write("# task=test\n# generated=now\n")
        csv.writer(want, lineterminator="\n").writerows([self.COLUMNS] + self._rows())
        assert out.read_bytes() == want.getvalue().encode()
        assert len(report) == 9 and report.rows == self._rows()

    def test_jsonl_matches_row_records(self, tmp_path):
        out = tmp_path / "r.jsonl"
        self._report().write(str(out), "jsonl", ["task=test"])
        want = [{"header": "task=test"}] + [dict(zip(self.COLUMNS, r)) for r in self._rows()]
        assert out.read_text().splitlines() == [json.dumps(r) for r in want]

    def test_column_without_length_is_rejected(self):
        # a short generator column would leave the columns of different
        # lengths, pairing the cells of different rows
        report = self._report()
        with pytest.raises(TypeError):
            report.add_columns(label=["p", "q", "r"], value=(v for v in [1.0, 2.0]))
        with pytest.raises(TypeError):
            report.add_columns(label=repeat("dT"), value=repeat(1.0))
        assert len(report) == 9 and report.rows == self._rows()

    def test_carriage_return_is_quoted(self, tmp_path):
        # csv.writer with lineterminator "\n" leaves a carriage return bare,
        # where a reader ends the row; quoted, every cell reads back
        out = tmp_path / "r.csv"
        report = cli.Report(["a", "b", "c"])
        report.add_columns(a=["x\ry", "p\r\nq"], b=["1,2", ""], c=[1.0, 2.0])
        report.write(str(out), "csv", [])
        assert out.read_bytes() == b'a,b,c\n"x\ry","1,2",1\n"p\r\nq",,2\n'
        with open(out, newline="") as fh:
            assert list(csv.reader(fh)) == [["a", "b", "c"], ["x\ry", "1,2", "1"],
                                            ["p\r\nq", "", "2"]]
