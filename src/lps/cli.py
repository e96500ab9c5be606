"""Configuration-driven command line front end.

Usage:
    lps <task> --config <path> [--seed S] [--out PATH] [--format csv|jsonl]
        [--threads N] [--no-timestamp]

Tasks: basis, kernel, gfun, verify, czscan, lemmas.  The config file is flat
``key = value`` text mirroring RunConfig; unknown keys are errors (exit 2).
Reports are CSV or JSON-lines with floats at 17 significant digits, so a
seeded run reproduces byte-identically (the timestamp header line can be
suppressed).  Exit status 0 means every assertion of the task passed; 1 means
a numerical assertion failed (the worst record is echoed); 2 means the
configuration was invalid.
"""

import argparse
import json
import math
import os
import stat
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import basis as basis_mod
from . import czcheck
from .basis import PLAIN, differentiated, ell_batch
from .czcheck import lemma_suite, random_expansion, riesz_identity_check
from .gfunctions import gfun_l2_exact, gfun_l2_norm
from .kernels import (
    KIND_TABLE,
    PAIR_BLOCK,
    KernelKind,
    ZetaGrid,
    default_kinds,
    heat_kernel_closed,
    heat_kernel_schlafli,
    heat_kernel_spectral,
    subordination_u_rule,
)
from .measure import as_alpha

__all__ = ["RunConfig", "run", "main"]

THREAD_ENV = "LPS_THREADS"
# largest dimension of czscan and lemmas, whose ball measures cost about
# 0.1 ms per ball at d = 2, 90 ms at d = 4 and 20-30 s at d = 5
MAX_BALL_DIMENSION = 4
# the kernel triple draws its points from the box clipped to this range
KERNEL_BOX = (0.2, 4.0)


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    alpha: tuple
    task: str
    zeta_order: int = 12
    zeta_levels: int = 40
    quad_order: int = 64
    cutoff: int = 8
    count: int = 100
    seed: int | None = None
    box_lo: float = 0.05
    box_hi: float = 10.0
    kind: str = "all"
    estimate: str = "all"
    out: str = ""
    format: str = "csv"
    threads: str = "auto"
    timestamp: bool = True
    refine: bool = False

    def validate(self):
        if self.task not in TASKS:
            raise ConfigError(f"task: unknown task {self.task!r}, expected one of {tuple(TASKS)}")
        try:
            a = as_alpha(self.alpha)
        except ValueError as exc:
            raise ConfigError(f"alpha: {exc}") from exc
        # czscan/lemmas scan the standard estimates, kernel/verify use the
        # integral representation: all need the restricted type-index range
        if self.task in ("czscan", "lemmas", "kernel", "verify") and not a.cz_eligible:
            raise ConfigError(
                f"alpha: task {self.task!r} requires alpha in [-1/2, inf)^d, got {a.components}"
            )
        if self.task in ("czscan", "lemmas") and a.d > MAX_BALL_DIMENSION:
            raise ConfigError(
                f"dimension: task {self.task!r} supports d <= {MAX_BALL_DIMENSION}, got {a.d}; "
                "each pair needs a ball measure, and one d = 5 ball takes 20-30 s"
            )
        if self.task != "basis" and self.seed is None:
            raise ConfigError(f"seed: task {self.task!r} samples randomly and needs a seed")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if self.format not in ("csv", "jsonl"):
            raise ConfigError(f"format: expected csv or jsonl, got {self.format!r}")
        if self.kind != "all":
            if self.kind not in KIND_TABLE:
                raise ConfigError(f"kind: unknown kernel kind {self.kind!r}")
            min_d = KIND_TABLE[self.kind].min_d
            if a.d < min_d:
                raise ConfigError(f"kind: {self.kind} needs dimension >= {min_d}, got {a.d}")
        if self.estimate != "all" and self.estimate not in czcheck.ESTIMATES:
            raise ConfigError(
                f"estimate: expected all, growth, smooth_x or smooth_y, got {self.estimate!r}"
            )
        for name, low in (("count", 1), ("quad_order", 1), ("cutoff", 0),
                          ("zeta_order", 2), ("zeta_levels", 2)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name}: must be >= {low}")
        if self.cutoff < 1 and self.task in ("gfun", "verify"):
            # the modified expansions need a mode above the ground level
            raise ConfigError(f"cutoff: task {self.task!r} needs cutoff >= 1")
        if not (math.isfinite(self.box_hi) and 0 < self.box_lo < self.box_hi):
            raise ConfigError("box_lo/box_hi: need finite 0 < box_lo < box_hi")
        # a box that meets the range in one point would draw that point every time
        if self.task in ("kernel", "verify") and (
                self.box_lo >= KERNEL_BOX[1] or self.box_hi <= KERNEL_BOX[0]):
            raise ConfigError(f"box_lo/box_hi: task {self.task!r} draws its points from "
                              f"{list(KERNEL_BOX)} within the box, and "
                              f"({self.box_lo}, {self.box_hi}) leaves no interval of it")
        return a

    def thread_count(self) -> int:
        env = os.environ.get(THREAD_ENV)
        raw = env if env else self.threads
        if raw == "auto":
            return min(os.cpu_count() or 1, 8)
        try:
            n = int(raw)
        except ValueError as exc:
            raise ConfigError(f"threads: expected an integer or 'auto', got {raw!r}") from exc
        if n < 1:
            raise ConfigError("threads: must be >= 1")
        # more workers than cores only adds contention
        return min(n, os.cpu_count() or 1)


_BOOL = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}

# the config schema is RunConfig itself: each field is parsed by its type
_TYPE_PARSERS = {
    tuple: lambda v: tuple(float(p) for p in v.replace(",", " ").split()),
    str: str,
    int: int,
    int | None: int,
    float: float,
    bool: lambda v: _BOOL[v.lower()],
}
_FIELD_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(RunConfig)}


def parse_config(path: str) -> dict:
    """Flat key = value config text; '#' starts a comment; unknown keys error."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in _FIELD_PARSERS:
                raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
            try:
                values[key] = _FIELD_PARSERS[key](val)
            except (ValueError, KeyError) as exc:
                raise ConfigError(f"{path}:{ln}: bad value for {key}: {val!r}") from exc
    return values


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, (tuple, list, np.ndarray)):
        return "(" + " ".join(format(float(c), ".17g") for c in v) + ")"
    return str(v)


class Report:
    """Row-oriented report with a fixed column order."""

    def __init__(self, columns):
        self.columns = list(columns)
        self.rows = []

    def add(self, **kw):
        self.rows.append([kw.get(c, "") for c in self.columns])

    def write(self, path: str, fmt: str, header_lines):
        # overwritten in place, then cut to length: opening with O_TRUNC
        # empties an existing file, and ext4 then flushes it on close, which
        # cost about 1 ms per short report with stalls of up to 10 ms
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8") as fh:
            if fmt == "csv":
                for line in header_lines:
                    fh.write(f"# {line}\n")
                fh.write(",".join(self.columns) + "\n")
                for row in self.rows:
                    fh.write(",".join(_fmt(v) for v in row) + "\n")
            else:
                for line in header_lines:
                    fh.write(json.dumps({"header": line}) + "\n")
                for row in self.rows:
                    rec = {c: (_fmt(v) if isinstance(v, (float, tuple, list, np.ndarray)) else v)
                           for c, v in zip(self.columns, row)}
                    fh.write(json.dumps(rec) + "\n")
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()


def _chunks(n: int, parts: int):
    step = max(1, math.ceil(n / parts))
    return [(s, min(s + step, n)) for s in range(0, n, step)]


def _task_basis(cfg: RunConfig, alpha, report: Report):
    families = [PLAIN] + [differentiated(j) for j in range(1, alpha.d + 1)]
    worst = 0.0
    worst_row = None
    pts, w = basis_mod._quad_grid(alpha, cfg.quad_order)
    for fam in families:
        idx = basis_mod._family_indices(fam, alpha.d, cfg.cutoff)
        vals = ell_batch(alpha, fam.shifts, idx, pts)
        gram = (vals * w) @ vals.T
        dev = np.abs(gram - np.eye(len(idx)))
        fam_name = "plain" if fam.is_plain else f"diff{fam.j}"
        for a in range(len(idx)):
            for b in range(a, len(idx)):
                report.add(family=fam_name, k=idx[a], l=idx[b],
                           gram=float(gram[a, b]), deviation=float(dev[a, b]))
                if dev[a, b] > worst:
                    worst = float(dev[a, b])
                    worst_row = (fam_name, idx[a], idx[b], float(gram[a, b]))
    return worst, worst_row, worst <= 1e-9


def _task_kernel(cfg: RunConfig, alpha, report: Report):
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    worst_row = None
    for _ in range(cfg.count):
        t = float(rng.uniform(0.1, 2.0))
        lo, hi = max(cfg.box_lo, KERNEL_BOX[0]), min(cfg.box_hi, KERNEL_BOX[1])
        x = rng.uniform(lo, hi, alpha.d)
        y = rng.uniform(lo, hi, alpha.d)
        closed = heat_kernel_closed(alpha, t, x, y)
        schlafli = heat_kernel_schlafli(alpha, t, x, y, order=cfg.quad_order)
        spectral = heat_kernel_spectral(alpha, t, x, y, cutoff=60)
        dev = max(abs(schlafli - closed), abs(spectral - closed)) / closed
        report.add(t=t, x=tuple(x), y=tuple(y), closed=closed,
                   schlafli=schlafli, spectral=spectral, rel_dev=float(dev))
        if dev > worst:
            worst = float(dev)
            worst_row = (t, tuple(x), tuple(y), closed)
    return worst, worst_row, worst <= 1e-7


def _gfun_rows(cfg: RunConfig, alpha, report: Report):
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    worst_row = None
    for n in range(cfg.count):
        seed = int(rng.integers(0, 2**31))
        # the vertical square functions are the isometries
        for kind in (k for k in default_kinds(alpha.d) if k.spec.deriv == "d"):
            e = random_expansion(alpha, kind.input_family(), nmodes=8, max_level=cfg.cutoff,
                                 seed=seed)
            norm = gfun_l2_norm(kind, e, order=cfg.quad_order)
            dev = abs(norm - 0.5 * e.l2_norm()) / (0.5 * e.l2_norm())
            check = f"isometry_{kind.spec.gtag}"
            report.add(check=check, sample=n, deviation=float(dev))
            if dev > worst:
                worst, worst_row = float(dev), (check, n)
        # horizontal: combined square sum against the spectral closed form
        e = random_expansion(alpha, PLAIN, nmodes=8, max_level=cfg.cutoff, seed=seed + 1)
        quad = sum(gfun_l2_norm(KernelKind("hT", i=i), e, order=cfg.quad_order) ** 2
                   for i in range(1, alpha.d + 1))
        exact = sum(gfun_l2_exact(KernelKind("hT", i=i), e) ** 2
                    for i in range(1, alpha.d + 1))
        dev = abs(quad - exact) / max(exact, 1e-300)
        report.add(check="horizontal_heat_sum", sample=n, deviation=float(dev))
        if dev > worst:
            worst, worst_row = float(dev), ("horizontal_heat_sum", n)
    return worst, worst_row


def _task_gfun(cfg: RunConfig, alpha, report: Report):
    worst, worst_row = _gfun_rows(cfg, alpha, report)
    return worst, worst_row, worst <= 1e-6


def _task_verify(cfg: RunConfig, alpha, report: Report):
    checks = []
    worst, worst_row, ok = _task_kernel(cfg, alpha, report)
    checks.append(("kernel_triple", worst, 1e-7, ok, worst_row))
    w, wr = _gfun_rows(cfg, alpha, report)
    checks.append(("gfun_identities", w, 1e-6, w <= 1e-6, wr))
    # per-mode subordination identity
    u, uw = subordination_u_rule()
    sub_worst = 0.0
    for lam in range(1, 51):
        for t in (0.1, 1.0, 5.0):
            got = float(np.sum(uw * np.exp(-(t * t) * lam / (4.0 * u))))
            sub_worst = max(sub_worst, abs(got - math.exp(-t * math.sqrt(lam))))
    report.add(check="subordination", sample=0, deviation=sub_worst)
    checks.append(("subordination", sub_worst, 1e-10, sub_worst <= 1e-10, None))
    rng = np.random.default_rng(cfg.seed)
    e = random_expansion(alpha, PLAIN, nmodes=10, max_level=cfg.cutoff,
                         seed=int(rng.integers(0, 2**31)))
    xg = np.exp(rng.uniform(math.log(0.2), math.log(4.0), (30, alpha.d)))
    dev = riesz_identity_check(alpha, 1, e, (0.1, 0.5, 1.0, 2.0), xg)
    report.add(check="riesz_identity", sample=0, deviation=dev)
    checks.append(("riesz_identity", dev, 1e-9, dev <= 1e-9, None))
    if alpha.d == 1:
        xs = np.linspace(0.1, 5.0, 60)
        _, _, dev = czcheck.counterexample_profile(alpha.components[0], xs)
        report.add(check="counterexample_profile", sample=0, deviation=dev)
        checks.append(("counterexample_profile", dev, 1e-7, dev <= 1e-7, None))
    bad = [c for c in checks if not c[3]]
    worst = max(c[1] / c[2] for c in checks)  # scaled by each tolerance
    wrow = bad[0] if bad else None
    return worst, wrow, not bad


def _kind_label(kind: KernelKind) -> str:
    parts = [f"j={kind.j}"] if kind.j else []
    if kind.i:
        parts.append(f"i={kind.i}")
    return kind.tag + (f"({','.join(parts)})" if parts else "")


def _task_czscan(cfg: RunConfig, alpha, report: Report):
    grid = ZetaGrid(order=cfg.zeta_order, levels_zero=cfg.zeta_levels,
                    levels_one=cfg.zeta_levels)
    grids = (grid, grid.refined()) if cfg.refine else (grid,)
    kinds = [k for k in default_kinds(alpha.d) if cfg.kind in ("all", k.tag)]
    estimates = czcheck.ESTIMATES if cfg.estimate == "all" else (cfg.estimate,)
    nthreads = cfg.thread_count()
    x, y = czcheck.sample_pairs(alpha.d, cfg.count, cfg.seed, cfg.box_lo, cfg.box_hi)
    xp = czcheck.sample_perturbed(x, y, cfg.seed + 1)
    yp = czcheck.sample_perturbed(y, x, cfg.seed + 2)
    # a worker gets at least one block of pairs: smaller spans pad the Poisson
    # matmul with zero rows, and two workers on short spans lose more to the
    # GIL than they gain
    spans = _chunks(cfg.count, max(1, min(nthreads, cfg.count // PAIR_BLOCK)))

    def work(span):
        # one span of sample indices: its ball measures, then every kind at
        # every grid; merging the spans in order preserves sample order
        s = slice(*span)
        balls = czcheck.ball_measures(alpha, x[s], y[s])
        return balls, czcheck.scan(alpha, kinds, x[s], y[s], xp[s], yp[s], balls, grids,
                                   estimates)

    if nthreads == 1 or len(spans) == 1:
        parts = [work(s) for s in spans]
    else:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            parts = list(pool.map(work, spans))
    balls = np.concatenate([b for b, _ in parts])

    def merged(k, g, est):
        # the spans' columns joined in span order, which is sample order
        cols = [scans[k][g][est] for _, scans in parts]
        return czcheck.EstimateColumns(*map(np.concatenate, zip(*cols)))

    worst_ratio = 0.0
    worst_row = None
    all_finite = True
    stable = True
    pert = {"growth": None, "smooth_x": xp, "smooth_y": yp}
    for k, kind in enumerate(kinds):
        label = _kind_label(kind)
        for est in estimates:
            cols = merged(k, 0, est)
            if cfg.refine:
                kmax, rmax = cols.ratio.max(), merged(k, 1, est).ratio.max()
                drift = abs(rmax - kmax) / max(rmax, 1e-300)
                stable = stable and drift < 0.05
            for p in range(cfg.count):
                ratio = float(cols.ratio[p])
                all_finite = all_finite and math.isfinite(ratio)
                report.add(kind=label, estimate=est, x=tuple(x[p]), y=tuple(y[p]),
                           perturbed=() if pert[est] is None else tuple(pert[est][p]),
                           kernel_norm=float(cols.kernel_norm[p]),
                           ball_measure=float(balls[p]), ratio=ratio,
                           constraint_ok=bool(cols.constraint_ok[p]))
                if ratio > worst_ratio:
                    worst_ratio = ratio
                    worst_row = (label, est, tuple(x[p]), tuple(y[p]), ratio)
    return worst_ratio, worst_row, all_finite and stable


def _task_lemmas(cfg: RunConfig, alpha, report: Report):
    results = lemma_suite(alpha, samples=cfg.count, seed=cfg.seed)
    for r in results:
        report.add(lemma=r.name, passed=r.passed, margin=r.margin,
                   samples=r.samples, detail=r.detail)
    worst = max(results, key=lambda r: r.margin)
    return worst.margin, (worst.name, worst.margin), all(r.passed for r in results)


# every task: its runner and the columns of its report
TASKS = {
    "basis": (_task_basis, ["family", "k", "l", "gram", "deviation"]),
    "kernel": (_task_kernel, ["t", "x", "y", "closed", "schlafli", "spectral", "rel_dev"]),
    "gfun": (_task_gfun, ["check", "sample", "deviation"]),
    "verify": (_task_verify, ["t", "x", "y", "closed", "schlafli", "spectral", "rel_dev",
                              "check", "sample", "deviation"]),
    "czscan": (_task_czscan, ["kind", "estimate", "x", "y", "perturbed", "kernel_norm",
                              "ball_measure", "ratio", "constraint_ok"]),
    "lemmas": (_task_lemmas, ["lemma", "passed", "margin", "samples", "detail"]),
}


def run(cfg: RunConfig) -> int:
    """Execute the configured task; returns the process exit status."""
    try:
        alpha = cfg.validate()
        cfg.thread_count()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    runner, columns = TASKS[cfg.task]
    report = Report(columns)
    worst, worst_row, ok = runner(cfg, alpha, report)
    elapsed = time.perf_counter() - t0
    out = cfg.out or f"lps_{cfg.task}.{ 'csv' if cfg.format == 'csv' else 'jsonl' }"
    header = [
        f"task={cfg.task} alpha={_fmt(cfg.alpha)} seed={cfg.seed} count={cfg.count}",
    ]
    if cfg.timestamp:
        header.append(f"generated={time.strftime('%Y-%m-%dT%H:%M:%S')}")
    report.write(out, cfg.format, header)
    print(
        f"{cfg.task}: rows={len(report.rows)} worst={worst:.3e} "
        f"wall={elapsed:.2f}s -> {out}"
    )
    if not ok:
        print(f"FAILED: worst record {worst_row}", file=sys.stderr)
        return 1
    return 0


def build_config(args) -> RunConfig:
    values = parse_config(args.config) if args.config else {}
    if values.setdefault("task", args.task) != args.task:
        raise ConfigError(f"task: {values['task']!r} in the config, {args.task!r} given")
    if args.seed is not None:
        values["seed"] = args.seed
    if args.out:
        values["out"] = args.out
    if args.format:
        values["format"] = args.format
    if args.threads:
        values["threads"] = args.threads
    if args.no_timestamp:
        values["timestamp"] = False
    if "alpha" not in values:
        raise ConfigError("alpha: missing (required)")
    return RunConfig(**values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="lps", description=__doc__)
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=False, help="flat key = value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default="")
    parser.add_argument("--format", choices=("csv", "jsonl"), default="")
    parser.add_argument("--threads", default="")
    parser.add_argument("--no-timestamp", action="store_true")
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
