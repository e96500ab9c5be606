"""Outside-in tracing of the lps module layers.

The layers are the modules of the package.  A layer boundary is a call from
code in one lps module into a function defined in another, and it is found
by introspection, so renames inside the package do not need edits here:

* every callable bound at module level in one lps module whose
  ``__module__`` is another lps module (``from .specfun import bessel_ratio``);
* every attribute read through a module alias (``czcheck.scan_growth``) and
  every name imported inside a function body, both found in the source with
  ``ast`` and wrapped where they are defined;
* two hooks in the command line front end: ``Report.write`` and the thread
  pool, whose ``map`` is recorded as waiting, not as work.

Wrappers are installed by rebinding those names and removed by restoring the
originals; no code of the package changes.  Spans are kept in memory as
tuples and aggregated (or written) once at the end.  Self time is a span's
duration minus the time its children on the same thread cover, so the busy
seconds of a layer can exceed the wall time when the front end runs threads.
"""

import ast
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

LAYERS = ("cli", "czcheck", "kernels", "specfun", "measure", "basis", "gfunctions")
WAIT = "wait"  # pseudo-layer: the front end waiting for its worker threads

# span tuple fields
SID, PARENT, NAME, LAYER, OP, TID, T0, T1, INFO = range(9)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self.handoff = None  # span that worker threads report as their parent
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed = []
        self.missing_hooks = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, layer: str, name: str, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self.handoff
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            self.spans.append((sid, parent, name, layer, self.op, threading.get_ident(),
                               t0, t1, info(args, kwargs, out) if info else None))
            return out

        return traced

    def wait_pool(self):
        tracer = self

        class WaitRecordingPool(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                stack = tracer._stack()
                sid = next(tracer._ids)
                parent = stack[-1] if stack else None
                stack.append(sid)
                tracer.handoff = sid
                t0 = time.perf_counter()
                try:
                    return list(super().map(fn, *iterables, **kwargs))
                finally:
                    t1 = time.perf_counter()
                    tracer.handoff = None
                    stack.pop()
                    tracer.spans.append((sid, parent, "cli.pool_wait", WAIT, tracer.op,
                                         threading.get_ident(), t0, t1, None))

        return WaitRecordingPool

    # -- installation ------------------------------------------------------

    def _rebind(self, owner, attr, layer, name):
        original = getattr(owner, attr)
        if getattr(original, "__wrapped_by_perfbench__", False):
            return
        wrapper = self.wrap(original, layer, name, _info_for(name))
        wrapper.__wrapped_by_perfbench__ = True
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def install(self):
        """Wrap every layer boundary of the lps package."""
        modules = {layer: importlib.import_module(f"lps.{layer}") for layer in LAYERS}
        by_name = {mod.__name__: layer for layer, mod in modules.items()}
        targets = set()
        for layer, mod in modules.items():
            for attr, val in vars(mod).items():
                src = getattr(val, "__module__", None)
                if (callable(val) and not inspect.isclass(val) and src in by_name
                        and src != mod.__name__):
                    targets.add((mod, attr, by_name[src], attr))
            for target_layer, attr in _source_boundaries(mod, by_name):
                val = getattr(modules[target_layer], attr, None)
                if callable(val) and not inspect.isclass(val):
                    targets.add((modules[target_layer], attr, target_layer, attr))
        for owner, attr, layer, name in sorted(targets, key=lambda t: (t[0].__name__, t[1])):
            self._rebind(owner, attr, layer, f"{layer}.{name}")
        cli = modules["cli"]
        report = getattr(cli, "Report", None)
        if report is not None and callable(getattr(report, "write", None)):
            self._rebind(report, "write", "cli", "cli.Report.write")
        else:
            self.missing_hooks.append("cli.Report.write")
        if getattr(cli, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
            cli.ThreadPoolExecutor = self.wait_pool()
            self._installed.append((cli, "ThreadPoolExecutor", ThreadPoolExecutor))
        else:
            self.missing_hooks.append("cli.ThreadPoolExecutor")
        for hook in self.missing_hooks:
            print(f"perfbench: trace hook {hook} not found; its metrics read 0",
                  file=sys.stderr)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- output ------------------------------------------------------------

    def write(self, path):
        fields = ["id", "parent", "name", "layer", "op", "thread", "start", "end", "info"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": [list(s) for s in self.spans]}, fh,
                      default=str)


def _source_boundaries(mod, by_name):
    """(layer, attribute) pairs reached through module aliases or local imports."""
    try:
        tree = ast.parse(inspect.getsource(mod))
    except (OSError, TypeError):
        return []
    package = mod.__name__.rpartition(".")[0]

    def resolve(node):
        base = node.module or ""
        if node.level:
            base = f"{package}.{base}" if base else package
        return base

    aliases = {}
    found = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and resolve(node) == package:
            for a in node.names:
                if f"{package}.{a.name}" in by_name:
                    aliases[a.asname or a.name] = by_name[f"{package}.{a.name}"]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            found.append((aliases[node.value.id], node.attr))
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and resolve(node) in by_name:
                target = by_name[resolve(node)]
                if resolve(node) != mod.__name__:
                    found.extend((target, a.name) for a in node.names)
    return found


# -- work counters recorded with a span --------------------------------------

def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _bessel_info(args, kwargs, out):
    return (float(_arg(args, kwargs, 0, "nu")), int(np.size(_arg(args, kwargs, 1, "z"))))


def _rule_info(args, kwargs, out):
    return repr((args, sorted(kwargs.items())))


def _kernel_info(args, kwargs, out):
    kind = _arg(args, kwargs, 1, "kind")
    pairs = np.shape(out)[0]
    if getattr(kind, "is_poisson", False):
        inner = _arg(args, kwargs, 5, "inner")
        if inner is None:
            inner = importlib.import_module("lps.kernels")._default_inner_grid()
        return (pairs * inner.n, 0, True)
    return (int(np.size(out)), int(np.count_nonzero(np.asarray(out) == 0.0)), False)


def _ball_info(args, kwargs, out):
    center = np.asarray(_arg(args, kwargs, 1, "center"), dtype=float)
    return repr((_arg(args, kwargs, 0, "alpha"), tuple(center.tolist()),
                 float(_arg(args, kwargs, 2, "r"))))


def _write_info(args, kwargs, out):
    return len(args[0].rows)


def _specfun_group(name: str):
    """'bessel' or 'rule' for a specfun span, by the name of the function."""
    if name.startswith("specfun."):
        for group in ("bessel", "rule"):
            if group in name:
                return group
    return None


_INFO = {
    "kernels.kernel_values": _kernel_info,
    "measure.mu_ball": _ball_info,
    "cli.Report.write": _write_info,
}


def _info_for(name: str):
    group = _specfun_group(name)
    if group:
        return _bessel_info if group == "bessel" else _rule_info
    return _INFO.get(name)


# orders of the Bessel primitives the workloads use (alpha components and
# their unit shifts); any other order is counted only in the total
BESSEL_ORDERS = (-0.5, 0.0, 0.5, 1.0)


def _order_name(nu: float) -> str:
    return "nu_" + (f"m{-nu:g}" if nu < 0 else f"{nu:g}")


def layer_metrics(spans, wall_s: float, overhead_s: float, cache_entries: int):
    """Per-layer metrics from the spans of a traced run."""
    children = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append(s)
    self_s = {layer: 0.0 for layer in LAYERS + (WAIT,)}
    bessel_s = rule_s = 0.0
    elements = {nu: 0 for nu in BESSEL_ORDERS}
    elements_total = 0
    rules = []
    entries = heat_entries = heat_zeros = 0
    balls = []
    ball_s = write_s = 0.0
    rows = 0
    for s in spans:
        dur = s[T1] - s[T0]
        own = dur - sum(c[T1] - c[T0] for c in children.get(s[SID], ()) if c[TID] == s[TID])
        self_s[s[LAYER]] += own
        name, info = s[NAME], s[INFO]
        group = _specfun_group(name)
        if group == "bessel":
            bessel_s += own
            nu, n = info
            elements_total += n
            if nu in elements:
                elements[nu] += n
        elif group == "rule":
            rule_s += own
            rules.append(info)
        elif name == "kernels.kernel_values":
            n, zeros, poisson = info
            entries += n
            if not poisson:
                heat_entries += n
                heat_zeros += zeros
        elif name == "measure.mu_ball":
            balls.append(info)
            ball_s += dur
        elif name == "cli.Report.write":
            write_s += dur
            rows += info
    m = {f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS}
    m.update({
        "cli.write_s": (write_s, "s"),
        "cli.rows": (rows, "rows"),
        "cli.pool_wait_s": (self_s[WAIT], "s"),
        "specfun.bessel_self_s": (bessel_s, "s"),
        "specfun.bessel_elements": (elements_total, "count"),
        "specfun.ns_per_element": (1e9 * bessel_s / elements_total if elements_total else 0.0,
                                   "ns"),
        "specfun.rule_self_s": (rule_s, "s"),
        "specfun.rule_calls": (len(rules), "count"),
        "specfun.rule_distinct_share": (len(set(rules)) / len(rules) if rules else 0.0,
                                        "ratio"),
        "kernels.entries": (entries, "count"),
        "kernels.zero_share": (heat_zeros / heat_entries if heat_entries else 0.0, "ratio"),
        "kernels.cache_entries": (cache_entries, "count"),
        "measure.balls": (len(balls), "count"),
        "measure.us_per_ball": (1e6 * ball_s / len(balls) if balls else 0.0, "us"),
        "measure.ball_distinct_share": (len(set(balls)) / len(balls) if balls else 0.0,
                                        "ratio"),
        "trace.spans": (len(spans), "count"),
        "trace.busy_s": (sum(v for k, v in self_s.items() if k != WAIT), "s"),
        "trace.wall_s": (wall_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    for nu in BESSEL_ORDERS:
        m[f"specfun.bessel_elements.{_order_name(nu)}"] = (elements[nu], "count")
    return m


def spans_per_layer(spans):
    counts = {layer: 0 for layer in LAYERS}
    for s in spans:
        if s[LAYER] in counts:
            counts[s[LAYER]] += 1
    return counts
