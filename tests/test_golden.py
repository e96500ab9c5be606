"""Seeded reports keep their bytes: sha256 of small reports against recorded values.

The values were recorded from `lps <task> --config <file> --seed 7
--no-timestamp`; each report is the same under one and two BLAS threads.
The jsonl cases pin the JSON-lines serialisation of the czscan columns.
"""

import hashlib

import pytest

from lps.cli import main

CASES = {
    "gfun": ("gfun", "alpha = 0.3, -0.5\ncount = 4\ncutoff = 5\nquad_order = 32\n",
             "4d166df81736c5376412e5f040efbab4cdb84d5d8fc46a466965ef0db58ff4dc"),
    "verify": ("verify", "alpha = 0, -0.5\ncount = 4\ncutoff = 5\nquad_order = 32\nbox_hi = 2\n",
               "2be771c433b0e95fe77a9edf24ff25cfe6101685ecca99af22391c64c0102ccf"),
    # the heat-kernel triple alone: closed, Schlafli and spectral cells
    "kernel": ("kernel", "alpha = 0, -0.5\ncount = 6\nbox_hi = 2\nquad_order = 32\n",
               "63c5c2d00c05d775bfc79a0ebdeadf02821c6625dade6b2974675c25dd615a6b"),
    "kernel-d1": ("kernel", "alpha = 0.3\ncount = 6\nbox_hi = 2\nquad_order = 32\n",
                  "f76910ebec696b831a6864f70bf946437ffa4200f72ead7b76dde1f0b5a9b893"),
    # the shape of the benchmark's identities op: 300 square-function norms
    "verify-bench": ("verify",
                     "alpha = 0, -0.5\ncount = 50\ncutoff = 8\nquad_order = 64\nbox_hi = 2\n",
                     "8b9d48419f938fdad0e7d18187d9b089cb025213d176d26460e5a1c62a7fe81a"),
    "gfun-d1": ("gfun", "alpha = -0.5\ncount = 20\ncutoff = 8\n",
                "9270bc57bd35a1aea6cff589423554a46cb5f9d7ef4f5e5d7527ea51cab41cc5"),
    "gfun-d3": ("gfun", "alpha = 0.3, -0.5, 1.2\ncount = 6\ncutoff = 6\nquad_order = 24\n",
                "8040a25ec8d60935d4c3fc3b21c0ecd8e2cc0b49254fe5a2d3cf8afbd89cf848"),
    "lemmas": ("lemmas", "alpha = 0, -0.5\ncount = 2000\n",
               "ab0ba84e7d98894f3db2b3eeb3497fe5fb796764254ab9c6f9b01efecd695b11"),
    "basis": ("basis", "alpha = 0.3, -0.5\ncutoff = 4\nquad_order = 24\n",
              "39cc05dfd9832f5ca2d7bc560f0c99de912b6bcd3b1e57e18133b19c7a8dde30"),
    "czscan-d2-hTmodStar": (
        "czscan",
        "alpha = 0, -0.5\nkind = hTmodStar\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\n",
        "fd86d524d09ca16fba717a2b750f7a89d6c261d4312955c3753689f1a2efb97c"),
    "czscan-d1-dT": (
        "czscan",
        "alpha = -0.5\nkind = dT\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\n",
        "faf216d9d95677dc035ff4c70c7221643eb56f4a40bb63c925b9639f9ad09f31"),
    # the multi-grid path: refine scans a second grid, and the report keeps
    # the first grid's bytes
    "czscan-d1-dT-refine": (
        "czscan",
        "alpha = -0.5\nkind = dT\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\nrefine = true\n",
        "faf216d9d95677dc035ff4c70c7221643eb56f4a40bb63c925b9639f9ad09f31"),
    "czscan-d1-hT": (
        "czscan",
        "alpha = -0.5\nkind = hT\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\n",
        "8fd202459f1b4dc74a3cf501152ade84ff55e1e3e932c46cd7396ab4757cb546"),
    "czscan-d1-dTmod": (
        "czscan",
        "alpha = -0.5\nkind = dTmod\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\n",
        "19768e1241c7ffe1e4c90d04b65b2f94e0607ca1af0e90a4c4c6e7c9dfb2245d"),
    # the label hTmod(j=1,i=2) holds a comma, so its CSV cell is quoted
    "czscan-d2-hTmod": (
        "czscan",
        "alpha = 0, -0.5\nkind = hTmod\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\n",
        "c1e70c477f49a028f550f48c64e116e01c783a0dd36af26ab77d4c5193a91dd7"),
    "czscan-d1-dP": (
        "czscan",
        "alpha = -0.5\nkind = dP\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\n",
        "9e98fc3f2a11294612ffc17eca55d9113fd7aa847b4359e15a4829e0f9799393"),
    # a Poisson norm is the same on both grids of refine, so its drift is 0
    "czscan-d1-dP-refine": (
        "czscan",
        "alpha = -0.5\nkind = dP\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\nrefine = true\n",
        "9e98fc3f2a11294612ffc17eca55d9113fd7aa847b4359e15a4829e0f9799393"),
    "czscan-d1-hPmodStar": (
        "czscan",
        "alpha = -0.5\nkind = hPmodStar\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\n",
        "f63ba5f2c3a5b8ffaed0f750d0641603065d43eb4117f4c18a8b06020cfa0680"),
    "czscan-d2-hPmod": (
        "czscan",
        "alpha = 0, -0.5\nkind = hPmod\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\n",
        "fd8c4ed00a00a8fcd8ad523ed2698cd8482de51bc74cc226b58dced020f5d486"),
    "czscan-d2-hTmodStar-jsonl": (
        "czscan",
        "alpha = 0, -0.5\nkind = hTmodStar\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\nformat = jsonl\n",
        "bc0122c3a2ec6e7a4db3e393b7b8a00d468c3315587b23ab2b5b687bad84d41e"),
    "czscan-d1-dT-jsonl": (
        "czscan",
        "alpha = -0.5\nkind = dT\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\nformat = jsonl\n",
        "3d0888df38471790102815d56cf5c53d768460f7a6238770f19bc849783b6fab"),
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
