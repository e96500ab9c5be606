"""Configuration-driven command line front end.

Usage:
    lps <task> --config <path> [--seed S] [--out PATH] [--format csv|jsonl]
        [--threads N] [--no-timestamp]

Tasks: basis, kernel, gfun, verify, czscan, lemmas.  The config file is flat
``key = value`` text mirroring RunConfig; unknown keys are errors (exit 2).
Reports are CSV or JSON-lines with floats at 17 significant digits, so a
seeded run reproduces byte-identically (the timestamp header line can be
suppressed).  Every row of a report carries a score and a pass flag.  Exit
status 0 means every row passed; 1 means a row failed (the first failing row
is echoed) or an evaluation failed (no report); 2 means the configuration
was invalid.
"""

import argparse
import json
import math
import os
import stat
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, fields
from itertools import islice, repeat

import numpy as np

from . import basis as basis_mod
from . import czcheck
from .basis import PLAIN, differentiated
from .czcheck import lemma_suite, random_expansion, riesz_identity_check
from .gfunctions import _l2_norms
from .kernels import (
    KIND_TABLE,
    PAIR_BLOCK,
    KernelKind,
    ZetaGrid,
    _heat_closed,
    _heat_schlafli,
    _heat_spectral,
    default_kinds,
    subordination_u_rule,
)
from .measure import as_alpha, pi_alpha_rules

__all__ = ["RunConfig", "run", "main"]

# largest dimension of czscan and lemmas, whose ball measures cost about
# 0.06 ms per ball at d = 2 (20 balls in one call), 60-110 ms at d = 4 and
# 20-30 s at d = 5
MAX_BALL_DIMENSION = 4
# most rows of the basis task, the upper triangles n0 (n0 + 1)/2 + d n1 (n1 + 1)/2 of the
# Gram matrices of n0 plain and n1 j-differentiated functions: 341,220 at the d = 4 defaults
MAX_BASIS_ROWS = 2**19
# the kernel triple draws its points from the box clipped to this range
KERNEL_BOX = (0.2, 4.0)
# largest type index of kernel, verify and lemmas: the normalisation of Pi_(alpha + s), s <= 2
# in the lemma fit, 1/(sqrt(pi) 2^a Gamma(a + 1/2)) leaves the normal doubles past a = 150.2
MAX_PI_ALPHA = 148.0
# deepest time grid: the heat kernel's 1/sinh(2t)^2 overflows at the smallest
# node from about 510 levels at order 4, and 0.5**levels underflows from 1075
MAX_ZETA_LEVELS = 500


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
        if self.task in ("kernel", "verify", "lemmas") and max(a.components) > MAX_PI_ALPHA:
            raise ConfigError(f"alpha: task {self.task!r} supports components <= "
                              f"{MAX_PI_ALPHA:g}, got {a.components}; Pi_alpha underflows above")
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
        if self.zeta_levels > MAX_ZETA_LEVELS:
            raise ConfigError(f"zeta_levels: must be <= {MAX_ZETA_LEVELS}, got {self.zeta_levels}; "
                              "a deeper grid leaves the double range")
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
        n0, n1 = (math.comb(self.cutoff + a.d - k, a.d) for k in (0, 1))
        rows = (n0 * (n0 + 1) + a.d * n1 * (n1 + 1)) // 2
        if self.task == "basis" and rows > MAX_BASIS_ROWS:
            raise ConfigError(f"cutoff: task 'basis' reports {rows} Gram entries at cutoff "
                              f"{self.cutoff} in d = {a.d}, above {MAX_BASIS_ROWS}")
        try:  # a Gauss rule that a double cannot hold is a bad order, not a failed check
            if self.task in ("basis", "gfun", "verify"):
                basis_mod._quad_rules(a, self.quad_order)
            if self.task in ("kernel", "verify"):
                pi_alpha_rules(a, self.quad_order)
        except ValueError as exc:
            raise ConfigError(f"quad_order: the Gauss rule of order {self.quad_order} for alpha "
                              f"{a.components} is out of double range ({exc})") from exc
        return a

    def thread_count(self) -> int:
        raw = self.threads
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


def _fmt(v):
    """A report cell as written: floats at 17 significant digits, points as "(x1 x2 ...)",
    other values (strings, ints, bools) as they are."""
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, (tuple, list, np.ndarray)):
        return "(" + " ".join(format(float(c), ".17g") for c in v) + ")"
    return v


def _fmt_column(cells: list) -> list:
    """The cells of a column as written (see _fmt): a column of floats is formatted
    in one map, and a column that _fmt leaves as it is, as strings formatted
    already, is returned as it is."""
    types = set(map(type, cells))
    if types == {float}:
        return list(map(format, cells, repeat(".17g")))
    if any(issubclass(t, (float, tuple, list, np.ndarray)) for t in types):
        return list(map(_fmt, cells))
    return cells


# a CSV cell holding one of these is quoted, its quotes doubled: csv's
# QUOTE_MINIMAL rule, and a carriage return too, which csv.writer with
# lineterminator "\n" leaves bare, where a reader would end the row
_CSV_SPECIAL = (",", '"', "\r", "\n")


def _csv_cell(text: str) -> str:
    if any(c in text for c in _CSV_SPECIAL):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_column(cells: list) -> list:
    """A column of formatted cells as CSV text, each distinct cell quoted once."""
    text = cells if set(map(type, cells)) <= {str} else list(map(str, cells))
    joined = "".join(text)
    if not any(c in joined for c in _CSV_SPECIAL):
        return text
    quoted = {t: _csv_cell(t) for t in set(text)}
    return list(map(quoted.__getitem__, text))


class Report:
    """Column-oriented report with a fixed column order.

    Cells are kept as given and formatted a column at a time when the report
    is written or its rows are read.
    """

    def __init__(self, columns):
        self.columns = list(columns)
        self.cells = {c: [] for c in self.columns}

    def __len__(self):
        return len(self.cells[self.columns[0]])

    def add_columns(self, **cols):
        """One row per entry of the given columns; a column not given is left empty.

        Columns are sequences, whose shortest sets the number of rows, or
        repeat(cell), which fills every row; any other iterable is a TypeError.
        """
        n = min((len(v) for v in cols.values() if not isinstance(v, repeat)), default=None)
        if n is None:
            raise TypeError("add_columns needs a column with a length, not only repeat(cell)")
        for c, cells in self.cells.items():
            cells.extend(islice(cols.get(c, repeat("")), n))

    def _formatted(self) -> dict:
        """The cells as written, column by column, formatted in place so that a later
        call finds them formatted."""
        for c, cells in self.cells.items():
            self.cells[c] = _fmt_column(cells)
        return self.cells

    @property
    def rows(self) -> list:
        """The formatted cells, row by row."""
        return list(zip(*self._formatted().values()))

    def write(self, path: str, fmt: str, header_lines):
        # the whole text is built first, so a row that fails to serialise
        # leaves an existing report as it was
        if fmt == "csv":  # no row is one empty cell, which csv.writer writes as "":
            # every report has three columns or more
            lines = [f"# {line}" for line in header_lines]
            lines.append(",".join(map(_csv_cell, self.columns)))
            lines += map(",".join, zip(*map(_csv_column, self._formatted().values())))
        else:
            lines = [json.dumps({"header": line}) for line in header_lines]
            lines += (json.dumps(dict(zip(self.columns, row))) for row in self.rows)
        text = "\n".join([*lines, ""])
        # overwritten in place, then cut to length: opening with O_TRUNC
        # empties an existing file, and ext4 then flushes it on close, which
        # cost about 1 ms per short report with stalls of up to 10 ms
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()


# the tolerance of each identity check; a row scores deviation / tolerance
TOLERANCE = {"gram": 1e-9, "kernel_triple": 1e-7, "gfun": 1e-6, "subordination": 1e-10,
             "riesz_identity": 1e-9, "counterexample_profile": 1e-7}


def _gram_rows(cfg: RunConfig, alpha, report: Report):
    """Upper-triangle Gram entries of the plain and differentiated systems against I: the
    _quad_grid quadrature by its factors, prod_c G_c[k_c - s_c, l_c - s_c] with s the
    family's shifts and G_c coordinate c's basis._rule_gram, in np.longdouble."""
    devs = []
    for fam in [PLAIN] + [differentiated(j) for j in range(1, alpha.d + 1)]:
        idx = basis_mod._family_indices(fam, alpha.d, cfg.cutoff)
        shifts = [fam.shifts.count(c) for c in range(1, alpha.d + 1)]
        down = np.array(idx, dtype=np.intp).reshape(-1, alpha.d) - shifts
        a, b = np.triu_indices(len(idx))
        grams = [basis_mod._rule_gram(ac + s, ac, cfg.quad_order, cfg.cutoff, s)
                 for ac, s in zip(alpha.components, shifts)]
        gram = np.prod([g[down[a, c], down[b, c]] for c, g in enumerate(grams)], axis=0)
        gram = gram.astype(float)
        devs.append(np.abs(gram - (a == b)))
        # each multi-index is formatted once and shared by its rows
        names = np.array([_fmt(k) for k in idx], dtype=object)
        report.add_columns(family=repeat("plain" if fam.is_plain else f"diff{fam.j}"),
                           k=names[a].tolist(), l=names[b].tolist(),
                           gram=gram.tolist(), deviation=devs[-1].tolist())
    return np.concatenate(devs) / TOLERANCE["gram"]


def _kernel_rows(cfg: RunConfig, alpha, report: Report):
    """Closed, Schlafli and spectral heat kernels at random (t, x, y)."""
    rng = np.random.default_rng(cfg.seed)
    lo, hi = max(cfg.box_lo, KERNEL_BOX[0]), min(cfg.box_hi, KERNEL_BOX[1])
    t, x, y = map(np.array, zip(*[(rng.uniform(0.1, 2.0), rng.uniform(lo, hi, alpha.d),
                                   rng.uniform(lo, hi, alpha.d)) for _ in range(cfg.count)]))
    # one call per route for every sample, each at its own time; the spectral
    # route builds one table and the Schlafli route one rule per coordinate
    s = _heat_schlafli(alpha, t, x, y, pi_alpha_rules(alpha, cfg.quad_order))
    c = _heat_closed(alpha, t[:, None], x, y, None)[:, 0]
    sp = _heat_spectral(alpha, t, x, y, cutoff=60)
    # a closed form that underflows to 0 gives an inf or NaN deviation, which fails
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = np.maximum(np.abs(s - c), np.abs(sp - c)) / c
    report.add_columns(t=t.tolist(), x=x, y=y, closed=c.tolist(), schlafli=s.tolist(),
                       spectral=sp.tolist(), rel_dev=dev.tolist())
    return dev / TOLERANCE["kernel_triple"]


def _gfun_rows(cfg: RunConfig, alpha, report: Report):
    """Vertical isometries and the horizontal heat sum on random expansions.

    The modes of every sample are drawn first, as arrays; then each kind
    norms all of them in one batch.
    """
    rng = np.random.default_rng(cfg.seed)
    seeds = [int(rng.integers(0, 2**31)) for _ in range(cfg.count)]
    # the vertical square functions are the isometries; kinds of one input
    # family norm the same draws
    vertical = [k for k in default_kinds(alpha.d) if k.spec.deriv == "d"]
    drawn = {fam: czcheck._draw_modes(alpha, fam, nmodes=8, max_level=cfg.cutoff, seeds=seeds)
             for fam in dict.fromkeys(k.input_family() for k in vertical)}
    checks, devs = [], []
    for kind in vertical:
        fam = kind.input_family()
        idx, coeffs = drawn[fam]
        # ||f|| / 2, its squares added in mode order as Expansion.l2_norm does
        half = 0.5 * np.sqrt(np.cumsum(coeffs * coeffs, axis=1)[:, -1])
        checks.append(f"isometry_{kind.spec.gtag}")
        devs.append(np.abs(_l2_norms(kind, alpha, fam, idx, coeffs, cfg.quad_order) - half)
                    / half)
    # horizontal: sum_i ||g_HT^i f||^2 against sum_k 2|k| / lambda_|k| c_k^2,
    # a closed form of the eigenvalues that reads no kind
    idx, coeffs = czcheck._draw_modes(alpha, PLAIN, nmodes=8, max_level=cfg.cutoff,
                                      seeds=[s + 1 for s in seeds])
    quad = sum(_l2_norms(KernelKind("hT", i=i), alpha, PLAIN, idx, coeffs, cfg.quad_order) ** 2
               for i in range(1, alpha.d + 1))
    level = idx.sum(axis=2)
    exact = np.sum(2.0 * level / basis_mod.eigenvalue(alpha, level) * coeffs**2, axis=1)
    checks.append("horizontal_heat_sum")
    devs.append(np.abs(quad - exact) / np.maximum(exact, 1e-300))
    # rows sample by sample, in the order of the checks
    dev = np.stack(devs, axis=1).ravel()
    report.add_columns(check=checks * cfg.count, deviation=dev.tolist(),
                       sample=np.repeat(np.arange(cfg.count), len(checks)).tolist())
    return dev / TOLERANCE["gfun"]


def _spot_rows(cfg: RunConfig, alpha, report: Report):
    """One row each: worst per-mode subordination error, Riesz identity, d = 1 profile."""
    u, uw = subordination_u_rule()
    lam, t = np.repeat(np.arange(1, 51), 3), np.tile([0.1, 1.0, 5.0], 50)
    quad = np.sum(uw * np.exp((-(t * t) * lam)[:, None] / (4.0 * u)), axis=1)
    devs = {"subordination": float(np.max(np.abs(quad - np.exp(-t * np.sqrt(lam)))))}
    rng = np.random.default_rng(cfg.seed)
    e = random_expansion(alpha, PLAIN, nmodes=10, max_level=cfg.cutoff,
                         seed=int(rng.integers(0, 2**31)))
    xg = np.exp(rng.uniform(math.log(0.2), math.log(4.0), (30, alpha.d)))
    devs["riesz_identity"] = riesz_identity_check(alpha, 1, e, (0.1, 0.5, 1.0, 2.0), xg)
    if alpha.d == 1:
        devs["counterexample_profile"] = czcheck.counterexample_profile(
            alpha.components[0], np.linspace(0.1, 5.0, 60))[2]
    report.add_columns(check=list(devs), sample=[0] * len(devs), deviation=list(devs.values()))
    return np.array([dev / TOLERANCE[c] for c, dev in devs.items()])


def _identities(*checks):
    """A runner of identity checks, each of which adds its rows and returns their scores."""
    def runner(cfg: RunConfig, alpha, report: Report):
        score = np.concatenate([check(cfg, alpha, report) for check in checks])
        return score, score <= 1.0

    return runner


def _kind_label(kind: KernelKind) -> str:
    parts = [f"j={kind.j}"] if kind.j else []
    if kind.i:
        parts.append(f"i={kind.i}")
    return kind.tag + (f"({','.join(parts)})" if parts else "")


def _task_czscan(cfg: RunConfig, alpha, report: Report):
    grid = ZetaGrid(order=cfg.zeta_order, levels=cfg.zeta_levels)
    grids = (grid, grid.refined()) if cfg.refine else (grid,)
    kinds = [k for k in default_kinds(alpha.d) if cfg.kind in ("all", k.tag)]
    estimates = czcheck.ESTIMATES if cfg.estimate == "all" else (cfg.estimate,)
    nthreads = cfg.thread_count()
    x, y = czcheck.sample_pairs(alpha.d, cfg.count, cfg.seed, cfg.box_lo, cfg.box_hi)
    try:
        xp = czcheck.sample_perturbed(x, y, cfg.seed + 1)
        yp = czcheck.sample_perturbed(y, x, cfg.seed + 2)
    except ValueError as exc:  # the box is too wide or too narrow for the doubles
        raise ConfigError(f"box_lo/box_hi: ({cfg.box_lo}, {cfg.box_hi}) gives a pair with "
                          f"no usable perturbed point: {exc}") from exc
    # a worker gets at least one block of pairs: smaller spans pad the Poisson
    # Gram product with zero rows, and two workers on short spans lose more to
    # the GIL than they gain
    step = math.ceil(cfg.count / max(1, min(nthreads, cfg.count // PAIR_BLOCK)))
    spans = [slice(s, s + step) for s in range(0, cfg.count, step)]

    def work(s):
        # one span of sample indices, every kind at every grid; joining the
        # spans' columns in span order preserves sample order
        return czcheck.scan(alpha, kinds, x[s], y[s], xp[s], yp[s], grids, estimates)

    if nthreads == 1 or len(spans) == 1:
        parts = [work(s) for s in spans]
    else:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            parts = list(pool.map(work, spans))
    res = czcheck.ScanColumns(*(np.concatenate(f, axis=-1) for f in zip(*parts)))

    ratio = res.ratio[:, 0]  # [kind, estimate, pair] on the reported grid
    passed = np.isfinite(ratio)
    if cfg.refine:  # and the maximum of its (kind, estimate) moves < 5% on the refined grid
        top = res.ratio.max(axis=-1)
        drift = np.abs(top[:, 1] - top[:, 0]) / np.maximum(top[:, 1], 1e-300)
        passed &= (drift < 0.05)[..., None]

    # cells of a pair are formatted once and shared by the rows of every kind
    xs, ys = [_fmt(r) for r in x], [_fmt(r) for r in y]
    balls = [_fmt(b) for b in res.ball_measure.tolist()]
    moved = {"smooth_x": xp, "smooth_y": yp}
    pert = {est: [_fmt(r) for r in moved[est]] if est in moved else repeat("()")
            for est in estimates}
    for k, kind in enumerate(kinds):
        label = _kind_label(kind)
        for e, est in enumerate(estimates):
            report.add_columns(kind=repeat(label), estimate=repeat(est), x=xs, y=ys,
                               perturbed=pert[est], kernel_norm=res.kernel_norm[k, 0, e].tolist(),
                               ball_measure=balls, ratio=ratio[k, e].tolist(),
                               constraint_ok=res.constraint_ok[e].tolist())
    return ratio.ravel(), passed.ravel()


def _task_lemmas(cfg: RunConfig, alpha, report: Report):
    lemma, passed, margin, samples, detail = zip(*map(astuple, lemma_suite(
        alpha, samples=cfg.count, seed=cfg.seed)))
    report.add_columns(lemma=lemma, passed=passed, margin=margin, samples=samples, detail=detail)
    return np.array(margin, dtype=float), np.array(passed)


# every task: its runner and the columns of its report.  A runner adds its
# rows with Report.add_columns and returns a score and a pass flag per row.
# verify runs every identity check but basis's, whose rows have their own columns
TASKS = {
    "basis": (_identities(_gram_rows), ["family", "k", "l", "gram", "deviation"]),
    "kernel": (_identities(_kernel_rows),
               ["t", "x", "y", "closed", "schlafli", "spectral", "rel_dev"]),
    "gfun": (_identities(_gfun_rows), ["check", "sample", "deviation"]),
    "verify": (_identities(_kernel_rows, _gfun_rows, _spot_rows),
               ["t", "x", "y", "closed", "schlafli", "spectral", "rel_dev",
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
        t0 = time.perf_counter()
        runner, columns = TASKS[cfg.task]
        report = Report(columns)
        score, passed = runner(cfg, alpha, report)
    except ConfigError as exc:  # bad input, found before the run or by it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:  # an evaluation that failed, as a NaN exponent
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t0
    out = cfg.out or f"lps_{cfg.task}.{ 'csv' if cfg.format == 'csv' else 'jsonl' }"
    header = [
        f"task={cfg.task} alpha={_fmt(cfg.alpha)} seed={cfg.seed} count={cfg.count}",
    ]
    if cfg.timestamp:
        header.append(f"generated={time.strftime('%Y-%m-%dT%H:%M:%S')}")
    report.write(out, cfg.format, header)
    # the one verdict of every task: the largest score that is not NaN, and a
    # failure unless every row passed, so a NaN row fails but is never worst
    worst = np.max(score, where=~np.isnan(score), initial=0.0)
    print(f"{cfg.task}: rows={len(report)} worst={worst:.3e} wall={elapsed:.2f}s -> {out}")
    failed = np.flatnonzero(~passed)
    if failed.size:
        cells = " ".join(f"{c}={v}" for c, v in zip(report.columns, report.rows[failed[0]])
                         if v != "")
        print(f"FAILED: {failed.size} of {len(report)} rows, the first "
              f"(row {failed[0] + 1}): {cells}", file=sys.stderr)
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


# built once: parse_args leaves the parser as it was
_PARSER = argparse.ArgumentParser(prog="lps", description=__doc__)
_PARSER.add_argument("task", choices=TASKS)
_PARSER.add_argument("--config", required=False, help="flat key = value config file")
_PARSER.add_argument("--seed", type=int, default=None)
_PARSER.add_argument("--out", default="")
_PARSER.add_argument("--format", choices=("csv", "jsonl"), default="")
_PARSER.add_argument("--threads", default="")
_PARSER.add_argument("--no-timestamp", action="store_true")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = build_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
