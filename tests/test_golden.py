"""Seeded reports keep their bytes: sha256 of small reports against recorded values.

The values were recorded from `lps <task> --config <file> --seed 7
--no-timestamp`; each report is the same under one and two BLAS threads.
Poisson kinds stay out of the czscan cases: their subordination matmul sums
in the order OpenBLAS's threading picks, which moves the 17th digit.
"""

import hashlib

import pytest

from lps.cli import main

CASES = {
    "gfun": ("gfun", "alpha = 0.3, -0.5\ncount = 4\ncutoff = 5\nquad_order = 32\n",
             "7e3927aad48701107c42de61c96793b4bfdcf7ffea0cc45ca3bd5d90549da701"),
    "verify": ("verify", "alpha = 0, -0.5\ncount = 4\ncutoff = 5\nquad_order = 32\nbox_hi = 2\n",
               "d14465c27187a49fa34aebbb871547147581dd6bf3863e446739d7fda7382e0a"),
    "lemmas": ("lemmas", "alpha = 0, -0.5\ncount = 2000\n",
               "ab0ba84e7d98894f3db2b3eeb3497fe5fb796764254ab9c6f9b01efecd695b11"),
    "basis": ("basis", "alpha = 0.3, -0.5\ncutoff = 4\nquad_order = 24\n",
              "39cc05dfd9832f5ca2d7bc560f0c99de912b6bcd3b1e57e18133b19c7a8dde30"),
    "czscan-d2-hTmodStar": (
        "czscan",
        "alpha = 0, -0.5\nkind = hTmodStar\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\n",
        "cef059ef5437a9a68ad3a3163b2bcc55d3f2f240e52ee0e90adb70ce6863598b"),
    "czscan-d1-dT": (
        "czscan",
        "alpha = -0.5\nkind = dT\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\n",
        "9a4eb80935e873f21d3e9c126dbca486d744e50270e516cf9c5d5b5b14ba7f2c"),
    # the multi-grid path: refine scans a second grid, and the report keeps
    # the first grid's bytes
    "czscan-d1-dT-refine": (
        "czscan",
        "alpha = -0.5\nkind = dT\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\nrefine = true\n",
        "9a4eb80935e873f21d3e9c126dbca486d744e50270e516cf9c5d5b5b14ba7f2c"),
    "czscan-d1-hT": (
        "czscan",
        "alpha = -0.5\nkind = hT\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\n",
        "0cde1f583f2a9f547f8016a6b7f5602882518bc13a2e6cccbbec382320107e94"),
    "czscan-d1-dTmod": (
        "czscan",
        "alpha = -0.5\nkind = dTmod\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\n",
        "8ae7e987418cb28c08891b0efc8619b25e0dacdc79ee686ad1c080f9ed126c96"),
    "czscan-d2-hTmod": (
        "czscan",
        "alpha = 0, -0.5\nkind = hTmod\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\n",
        "9f35e976a31ddda09d8ac71582128aa6bd94e5aba951091cb28d0a18571e991f"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_seeded_report_bytes(tmp_path, case):
    task, text, want = CASES[case]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "report.csv"
    code = main([task, "--config", str(cfg), "--seed", "7", "--no-timestamp", "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want
