"""Benchmark of the lps command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cz-batch --seed 1 --seconds 20 --trace 0

The ops call ``lps.cli.main`` in this process on generated config files (see
``workloads.py`` for the workloads and why they were chosen).  A run executes
whole rounds of ops, as many as take about ``--seconds`` on the reference
machine (2 cores), so every run of a workload does the same work.  Each op's
exit status and report row count are checked, and the first op is re-run at
the end and must write the same bytes.

End-to-end metrics (``--trace 0``, tracing off):

* ``setup_s``: median over 5 fresh interpreters importing ``lps.cli``,
  timed between the rounds;
* ``run_s``: wall time of all timed ops of the run (the warm-up op and the
  byte-identity re-run are not timed);
* ``rows_per_s``: report rows per second of ``run_s`` (scan pairs on the cz
  workloads, identity checks on ``identities``);
* ``op_p50_s``, ``op_p90_s``: percentiles of the op latencies of a round,
  each op at the median latency of its config over the run (see
  ``config_medians``; the op count is printed);
* ``peak_rss_mb``: peak resident memory of this process;
* ``accuracy_digits``: on the cz workloads ``scan_drift_digits``, -log10 of
  the 90th percentile of the relative change of each (kind, estimate)
  maximum ratio between zeta order 8 and 16; on ``identities``
  ``identity_headroom_digits``, -log10 of the 90th percentile of
  deviation / tolerance of the weakest ``verify`` check.  Both are read
  from the written reports.

``--trace 1`` runs each round once untraced and once traced (see
``tracing.py``) and reports the per-layer metrics and the tracing overhead
(traced minus untraced ``run_s``).  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it give the provenance, the op counts,
``fail_share`` and the metrics under their per-workload names
(``pairs_per_s``, ``checks_per_s``, ``scan_drift_digits``,
``identity_headroom_digits``).
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "out"

# BLAS and OpenMP pools pinned to one thread before numpy loads: the front
# end already runs `threads = nproc` workers, and unpinned BLAS oversubscribes
THREAD_PINS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                "VECLIB_MAXIMUM_THREADS")}
THREAD_ENV = "LPS_THREADS"  # would override the generated thread count
SETUP_REPEATS = 5


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def fresh_import() -> float:
    """Wall time of a fresh interpreter importing lps.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import lps.cli"], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - t0


def _read_sys(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    ref = _read_sys(head)
    if ref.startswith("ref: "):
        name = ref[5:]
        loose = _read_sys(ROOT / ".git" / name)
        if loose != "unknown":
            return loose
        for line in _read_sys(ROOT / ".git" / "packed-refs").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
        return "unknown"
    return ref if ref != "unknown" else "unknown (not a git checkout)"


def workload_why(name: str) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return next(w["why"] for w in spec["workloads"] if w["name"] == name)


def provenance(workload, seed: int, threads: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    for line in _read_sys(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read_sys(idx / "level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read_sys(idx / "size")
    blas = {}
    for mod in (numpy, scipy):
        try:
            blas[mod.__name__] = mod.show_config(mode="dicts")["Build Dependencies"]["blas"][
                "openblas configuration"]
        except (TypeError, KeyError):
            blas[mod.__name__] = "unknown"
    return {
        "workload": workload.name,
        "why": workload_why(workload.name),
        "seed": seed,
        "nproc": threads,
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "lps_threads": threads,
        "git_commit": _git_commit(),
    }


class Runner:
    """Runs ops through the in-process CLI and checks their reports."""

    def __init__(self, cli_main, workdir: Path):
        self.cli_main = cli_main
        self.workdir = workdir
        self.configs = {}
        self.attempted = 0
        self.failed = 0

    def _config_path(self, text: str) -> str:
        if text not in self.configs:
            path = self.workdir / f"op{len(self.configs)}.cfg"
            path.write_text(text, encoding="utf-8")
            self.configs[text] = str(path)
        return self.configs[text]

    def run(self, op, out: str, main=None):
        """Run one op; returns (latency in s, Result or None when it failed)."""
        from workloads import read_result

        argv = [op.task, "--config", self._config_path(op.config), "--seed", str(op.seed),
                "--out", out, "--no-timestamp"]
        buf = io.StringIO()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                status = (main or self.cli_main)(argv)
        except Exception:  # an op that raises is a failed op; the run goes on
            status = "exception:\n" + traceback.format_exc()
        latency = time.perf_counter() - t0
        problem = None
        result = None
        if status != 0:
            problem = f"exit status {status}"
        else:
            try:
                result = read_result(op, out)
            except (OSError, KeyError, ValueError) as exc:
                result = None
                problem = f"unreadable report: {exc!r}"
            if result is not None and result.rows != op.expected_rows:
                problem = f"{result.rows} report rows, expected {op.expected_rows}"
        if problem:
            self.fail(f"{op.task} seed={op.seed}: {problem}\n{buf.getvalue()}")
            result = None
        return latency, result

    def fail(self, msg: str):
        self.failed += 1
        print(f"perfbench: failed op: {msg}", file=sys.stderr)


def run_rounds(workload, runner, seed, rounds, out, tracer=None, setup=None):
    """Run whole rounds; with a tracer, each round runs untraced then traced.

    Returns the ops and results of the untraced passes and the latencies of
    the untraced and the traced ops.  With a ``setup`` list, SETUP_REPEATS
    fresh imports are timed into it, spread over the rounds so that their
    median does not hang on the machine's state at one moment.
    """
    ops, results, latencies, traced_latencies = [], [], [], []
    for rnd in range(rounds):
        while setup is not None and len(setup) < SETUP_REPEATS * (rnd + 1) / rounds:
            setup.append(fresh_import())
        round_ops = workload.ops(seed, rnd)
        for op in round_ops:
            latency, result = runner.run(op, out)
            ops.append(op)
            results.append(result)
            latencies.append(latency)
        if tracer is not None:
            tracer.install()
            traced_main = tracer.wrap(runner.cli_main, "cli", "cli.main")
            for op in round_ops:
                tracer.op += 1
                latency, _ = runner.run(op, out, main=traced_main)
                traced_latencies.append(latency)
            tracer.uninstall()
    return ops, results, latencies, traced_latencies


def config_medians(ops, latencies) -> list:
    """One latency per op of a round: the median over the run's ops of its config.

    Ops with one config do the same work on different seeds; a round holds
    each config once, so these values are the latency mix a client sees.
    Their percentiles are steady where a raw 90th percentile of 14 ops
    (``identities``) is the second-slowest op and swings with the machine.
    """
    by_config = {}
    for op, latency in zip(ops, latencies):
        by_config.setdefault(op.config, []).append(latency)
    return [statistics.median(v) for v in by_config.values()]


def kernel_cache_entries() -> int:
    import lps.kernels

    return sum(v.cache_info().currsize for v in vars(lps.kernels).values()
               if hasattr(v, "cache_info"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "lps" / "cli.py").is_file():
        return _fail(f"no lps sources at {SRC}; run from the root of an lps checkout")
    os.environ.update(THREAD_PINS)
    os.environ.pop(THREAD_ENV, None)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))

    from workloads import WORKLOADS  # imports no numpy

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    threads = len(os.sched_getaffinity(0))
    workload = WORKLOADS[args.workload](threads, toy=args.toy)
    rounds = max(1, round(args.seconds / workload.round_s))
    workdir = WORK / workload.name
    workdir.mkdir(parents=True, exist_ok=True)

    setup = None
    if not args.trace:
        fresh_import()  # warms the file cache (and bytecode cache, where one is written)
        setup = []
    import lps
    import lps.cli

    if SRC.resolve() not in Path(lps.__file__).resolve().parents:
        return _fail(f"imported lps from {lps.__file__}, not from {SRC}")
    import tracing

    runner = Runner(lps.cli.main, workdir)
    out = str(workdir / "report.csv")
    first_path = workdir / "first.csv"
    first = workload.ops(args.seed, 0)[0]
    runner.run(first, str(first_path))  # warm-up, kept for the byte-identity check
    first_bytes = first_path.read_bytes() if first_path.exists() else b""

    tracer = tracing.Tracer() if args.trace else None
    t_start = time.perf_counter()
    ops, results, latencies, traced = run_rounds(workload, runner, args.seed, rounds, out,
                                                 tracer, setup)
    elapsed = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    _, again = runner.run(first, str(first_path))
    if again is not None and first_path.read_bytes() != first_bytes:
        runner.fail(f"{first.task} seed={first.seed}: re-run report differs in bytes")
    complete = all(r is not None for r in results)

    prov = provenance(workload, args.seed, threads)
    print(f"perfbench workload={workload.name} seed={args.seed} trace={args.trace} "
          f"rounds={rounds} ops={len(ops)} measured_for={elapsed:.1f}s")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"why: {prov['why']}")
    metrics = {}
    if args.trace:
        spans = tracer.spans
        trace_path = workdir / f"trace-seed{args.seed}.json"
        tracer.write(trace_path)
        traced_s, untraced_s = sum(traced), sum(latencies)
        per_layer = tracing.layer_metrics(spans, traced_s, traced_s - untraced_s,
                                          kernel_cache_entries())
        for name, (value, unit) in per_layer.items():
            metrics[name] = {"value": value, "unit": unit}
        counts = tracing.spans_per_layer(spans)
        print("spans per layer: " + " ".join(f"{k}={v}" for k, v in counts.items()))
        print(f"busy seconds are summed over {threads} threads and can exceed the wall "
              f"time (ops took {traced_s:.3f} s traced, {untraced_s:.3f} s untraced); "
              f"spans written to {trace_path.relative_to(ROOT)}")
    elif complete:
        run_s = sum(latencies)
        rows = sum(r.rows for r in results)
        digits, digits_name = workload.accuracy(ops, results)
        mix = config_medians(ops, latencies)
        q = statistics.quantiles(mix, n=10, method="inclusive")
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "rows_per_s": {"value": rows / run_s, "unit": "rows/s"},
            "op_p50_s": {"value": statistics.median(mix), "unit": "s"},
            "op_p90_s": {"value": q[8], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "accuracy_digits": {"value": digits, "unit": "digits"},
        }
        rows_name = "checks_per_s" if workload.name == "identities" else "pairs_per_s"
        print(f"{rows_name} = {rows / run_s:.6g} rows/s (rows_per_s)")
        print(f"{digits_name} = {digits:.6g} digits (accuracy_digits)")
        print(f"op latency over {len(mix)} configs x {rounds} rounds = {len(latencies)} ops, "
              f"each config at its median: p50 = {metrics['op_p50_s']['value']:.6g} s, "
              f"p90 = {q[8]:.6g} s")
        by_task = {}
        for op, latency in zip(ops, latencies):
            by_task.setdefault(op.task, []).append(latency)
        print("op latency by task: " + ", ".join(
            f"{task} median {statistics.median(v):.4g} s, fastest {min(v):.4g} s ({len(v)} ops)"
            for task, v in by_task.items()))
    print(f"fail_share = {runner.failed / runner.attempted:.6g} ratio "
          f"({runner.failed} of {runner.attempted} ops)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.10g} {m['unit']}")
    print(json.dumps({"correct": runner.failed == 0 and complete, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
