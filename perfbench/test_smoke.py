"""Smoke test of the benchmark at toy sizes; not part of the tier-1 suite.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = ("cli", "czcheck", "kernels", "specfun", "measure", "basis", "gfunctions")
# cz scans never reach the basis or square-function modules
EXPECTED_LAYERS = {"cz-batch": LAYERS[:5], "cz-interactive": LAYERS[:5], "identities": LAYERS}


def bench(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, proc.stderr
    return res


def test_workloads_match_spec():
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(EXPECTED_LAYERS))
def test_end_to_end_metrics(workload):
    res = result(bench(workload, 0))
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", sorted(EXPECTED_LAYERS))
def test_traced_run_covers_every_layer(workload):
    seed = 5
    res = result(bench(workload, 1, seed=seed))
    assert {m["name"] for m in SPEC["per_layer"]} == set(res["metrics"])
    for m in SPEC["per_layer"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    trace = json.loads((HERE / "out" / workload / f"trace-seed{seed}.json").read_text())
    layer = trace["fields"].index("layer")
    seen = {span[layer] for span in trace["spans"]}
    missing = set(EXPECTED_LAYERS[workload]) - seen
    assert not missing, f"layers without a span: {missing}"


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("cz-batch", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
