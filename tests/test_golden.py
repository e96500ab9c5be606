"""Seeded reports keep their bytes: sha256 of small reports against recorded values.

The values were recorded from `lps <task> --config <file> --seed 7
--no-timestamp`; each report is the same under one and two BLAS threads.
The jsonl cases pin the JSON-lines serialisation of the czscan columns.
"""

import hashlib

import pytest

from lps.cli import main

pytestmark = pytest.mark.bitexact

CASES = {
    "gfun": ("gfun", "alpha = 0.3, -0.5\ncount = 4\ncutoff = 5\nquad_order = 32\n",
             "7714a6e9f69e2deadacfbdcb82fc5e78a777b15d8516eaa35d2269a54ef10cf5"),
    "verify": ("verify", "alpha = 0, -0.5\ncount = 4\ncutoff = 5\nquad_order = 32\nbox_hi = 2\n",
               "92a36b18a77a95aff393eacd98e6e08ac9c18ee58c4df09e9385ff335ab51692"),
    # the heat-kernel triple alone: closed, Schlafli and spectral cells
    "kernel": ("kernel", "alpha = 0, -0.5\ncount = 6\nbox_hi = 2\nquad_order = 32\n",
               "f6098c7a9495676e6f6587c603c9503884562139fc0bfd2d8f70856859c8a327"),
    "kernel-d1": ("kernel", "alpha = 0.3\ncount = 6\nbox_hi = 2\nquad_order = 32\n",
                  "b21e22fd755546bf4c1b3cdc453731910fc73aa836500992c5b4b90e749353a4"),
    # the shape of the benchmark's identities op: 300 square-function norms
    "verify-bench": ("verify",
                     "alpha = 0, -0.5\ncount = 50\ncutoff = 8\nquad_order = 64\nbox_hi = 2\n",
                     "a5e94552d5c89ee0cfaf8ad71ed4a4a1e23c1ed74eeefa9bde999e3162631e30"),
    "gfun-d1": ("gfun", "alpha = -0.5\ncount = 20\ncutoff = 8\n",
                "0e60f76c0b0d0240ef58432d5432ae62f85727aeb264528ede6ae5f833e5fdb7"),
    "gfun-d3": ("gfun", "alpha = 0.3, -0.5, 1.2\ncount = 6\ncutoff = 6\nquad_order = 24\n",
                "b0ec65f771023893606fa42cd3e2bc6734e36af6171df078f2e8f95d079fd966"),
    "lemmas": ("lemmas", "alpha = 0, -0.5\ncount = 2000\n",
               "4dcac93b3e11dea4f474856df65b260e6084cb63eb8f6ba80c54df3d438ed0a5"),
    "basis": ("basis", "alpha = 0.3, -0.5\ncutoff = 4\nquad_order = 24\n",
              "74d126c3e77880385f37a7ddfefd7e9b8ef53497e3ff65ab3850827009472519"),
    "czscan-d2-hTmodStar": (
        "czscan",
        "alpha = 0, -0.5\nkind = hTmodStar\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\n",
        "001cd9927056826f2d7403f86e4cf371332c8fd6dabf102872841d638ccbbea9"),
    "czscan-d1-dT": (
        "czscan",
        "alpha = -0.5\nkind = dT\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\n",
        "95d0476a4234fd0f2f80ffe929b8e644716fb95d3d82ff0000a4b92ca8e56602"),
    # the multi-grid path: refine scans a second grid, and the report keeps
    # the first grid's bytes
    "czscan-d1-dT-refine": (
        "czscan",
        "alpha = -0.5\nkind = dT\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\nrefine = true\n",
        "95d0476a4234fd0f2f80ffe929b8e644716fb95d3d82ff0000a4b92ca8e56602"),
    "czscan-d1-hT": (
        "czscan",
        "alpha = -0.5\nkind = hT\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\n",
        "c0c8d76dbaa2cf7283a4daae3da4f9dc9fe91133d270fdd0db33f85ce906e0e0"),
    "czscan-d1-dTmod": (
        "czscan",
        "alpha = -0.5\nkind = dTmod\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\n",
        "48dc95f7e652661a63fb7b45403db37f6da2c6cec0536cb5616da5c3aba652c5"),
    # the label hTmod(j=1,i=2) holds a comma, so its CSV cell is quoted
    "czscan-d2-hTmod": (
        "czscan",
        "alpha = 0, -0.5\nkind = hTmod\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\n",
        "4d09f8aa1c071067340d456381a65ee870e785fffe3bdb1f60b694590bb19a15"),
    "czscan-d1-dP": (
        "czscan",
        "alpha = -0.5\nkind = dP\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\n",
        "791526555f42a6d8da7296a3a5b8b8f91f7e08eb8f021970276171d04b23dc46"),
    # a Poisson norm is the same on both grids of refine, so its drift is 0
    "czscan-d1-dP-refine": (
        "czscan",
        "alpha = -0.5\nkind = dP\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\nrefine = true\n",
        "791526555f42a6d8da7296a3a5b8b8f91f7e08eb8f021970276171d04b23dc46"),
    "czscan-d1-hPmodStar": (
        "czscan",
        "alpha = -0.5\nkind = hPmodStar\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\n",
        "02dc5593181f08f04b21da5b3fb313e64f90972a12a721d8326c4a531eb8699d"),
    "czscan-d2-hPmod": (
        "czscan",
        "alpha = 0, -0.5\nkind = hPmod\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\n",
        "e901bf2a7d8ae98f65e65ed36bc3b8cbe1700a3b9d9544ce55e1a21ead901b8d"),
    # every kind in one report: the kind, point and ball cells shared by the
    # rows of a pair, and at d = 2 the quoted labels hTmod(j=1,i=2) and hPmod(j=1,i=2)
    "czscan-d1-all": (
        "czscan",
        "alpha = -0.5\nkind = all\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\n",
        "b575ba0ef7d12c0ff8acf25d6ddcc2b98d8eb13470123b14847b8c6c7d6f09e9"),
    "czscan-d2-all": (
        "czscan",
        "alpha = 0, -0.5\nkind = all\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\n",
        "689ba60a2d70d42ae101be74328bb292bcde7f5125d1af37261fe3d83372470e"),
    "czscan-d1-all-jsonl": (
        "czscan",
        "alpha = -0.5\nkind = all\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\nformat = jsonl\n",
        "34172ac1d1e16f80d2f83789e7d00106f5a6c73e4436f7258a7946118f84fc51"),
    "czscan-d2-all-jsonl": (
        "czscan",
        "alpha = 0, -0.5\nkind = all\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\nformat = jsonl\n",
        "e8ee5763d8bed3ec9eafd96d177b358d7f0e583b2694e60eabfe3a1a84a9f1f5"),
    # the deepest time grid, refined to order 128: at its smallest times
    # 1/sinh(2t)^2 overflows where G_t underflowed, which the suite's
    # error::RuntimeWarning filter would turn into a failure
    "czscan-d1-deep-grid": (
        "czscan",
        "alpha = 0.3\ncount = 3\nzeta_order = 64\nzeta_levels = 500\nrefine = true\n"
        "threads = 1\n",
        "4184298c8ff58374b8adc9aea156825e832b9a28a3f3e0577deac2dd8f06c056"),
    "czscan-d2-hTmodStar-jsonl": (
        "czscan",
        "alpha = 0, -0.5\nkind = hTmodStar\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\nformat = jsonl\n",
        "de4813256fb5490c109bbf883abd25957e3b6b65e960d7373feb71819e4d9528"),
    "czscan-d1-dT-jsonl": (
        "czscan",
        "alpha = -0.5\nkind = dT\nestimate = all\ncount = 12\n"
        "zeta_order = 6\nzeta_levels = 16\nthreads = 1\nformat = jsonl\n",
        "b23732d89662ae1e71e37895adb00958e27f5c15c432303a3b449c8eecac01bf"),
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
