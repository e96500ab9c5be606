"""
Reproducible reports from the command line
==========================================

The `lps` entry point runs the verification tasks from a flat key = value
config file and writes CSV or JSON-lines reports with floats at 17
significant digits, so a seeded run is byte-reproducible (suppress the
timestamp header to diff).  This script drives the same entry point in
process.
"""

import pathlib
import tempfile

from lps.cli import main

with tempfile.TemporaryDirectory(prefix="lps_demo_") as tmp:
    workdir = pathlib.Path(tmp)
    config = workdir / "scan.cfg"
    config.write_text(
        "alpha = 0.0, -0.5\n"
        "seed = 2024\n"
        "count = 40\n"
        "kind = hTmodStar\n"
        "zeta_order = 8\n"
        "zeta_levels = 24\n"
    )

    out1 = workdir / "scan_a.csv"
    out2 = workdir / "scan_b.csv"
    print("exit:", main(["czscan", "--config", str(config), "--out", str(out1), "--no-timestamp"]))
    print("exit:", main(["czscan", "--config", str(config), "--out", str(out2), "--no-timestamp"]))
    print("byte-identical reruns:", out1.read_bytes() == out2.read_bytes())

    print("\nfirst report lines:")
    for line in out1.read_text().splitlines()[:4]:
        print(" ", line[:100])

    # the verify task bundles the exact-identity checks; exit 0 means all passed
    verify_cfg = workdir / "verify.cfg"
    verify_cfg.write_text("alpha = 0.0\nseed = 7\ncount = 20\ncutoff = 6\nquad_order = 48\n")
    print("\nverify exit:", main(["verify", "--config", str(verify_cfg),
                                  "--out", str(workdir / "verify.csv"), "--no-timestamp"]))
