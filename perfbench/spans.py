"""Spans around calls into tvls, recorded from outside the package.

``install`` replaces every public function of every tvls module, in each
tvls namespace that binds it (``tvls.kernel_grid``, ``tvls.spectral.kernel_grid``,
``tvls.cli.spectral_density``, ...), and the ``MatrixFunction.eval`` and
``eval_array`` methods, by a wrapper that records a span: name, start, end,
parent span and a few work counts taken from the arguments and result.
Nothing inside the package changes.

Self time is computed from the spans after the run: a span's duration minus
the durations of its direct children.  One thread makes all calls, so
children never overlap and the self times of a root span's tree add up to
the root's duration.
"""

import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("levy", "model", "transition", "kernels", "spectral", "stability",
           "simulate", "quadrature", "cli")
METHODS = (("model", "MatrixFunction", "eval"), ("model", "MatrixFunction", "eval_array"))


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _kernel_grid_name(fn, args, kwargs):
    n = _arg(fn, args, kwargs, "N")
    return "kernels.kernel_grid_limit" if n == "limit" else "kernels.kernel_grid_finite"


def _transfer_stats(fn, args, kwargs, result):
    terms = result.size * len(_arg(fn, args, kwargs, "kern").u_grid)
    return {"terms": terms, "bytes": 16 * terms}  # computed: one complex128 per term


def _passed(fn, args, kwargs, result):
    return {"passed": int(bool(result.passed))}


# Work counts per span name, from (function, args, kwargs, result).
STATS = {
    "kernels.kernel_grid_finite": lambda fn, a, k, r: {"points": len(r.u_grid)},
    "kernels.kernel_grid_limit": lambda fn, a, k, r: {"points": len(r.u_grid)},
    "spectral.transfer_function": _transfer_stats,
    "spectral.wigner_ville": lambda fn, a, k, r: {"frequencies": r.values.size},
    "transition.ode_transition": lambda fn, a, k, r: {"steps": r.terms_or_steps},
    "stability.lambda_max_check": _passed,
    "stability.eigen_bound_check": _passed,
    "simulate.simulate_paths": lambda fn, a, k, r: {"path_points": r.observations.size},
    "cli.dispatch": lambda fn, a, k, r: {"failed": int(r != 0)},
}
NAMERS = {"kernels.kernel_grid": _kernel_grid_name}


class Tracer:
    """Keeps spans in memory as [name, start, end, parent, root, stats] lists."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def begin(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self.spans[parent][4] if parent is not None else sid
        self.spans.append([name, time.perf_counter(), None, parent, root, None])
        self._stack.append(sid)
        return sid

    def end(self, sid, stats=None):
        span = self.spans[sid]
        span[2] = time.perf_counter()
        span[5] = stats
        self._stack.pop()

    def wrap(self, name, fn):
        namer = NAMERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = namer(fn, args, kwargs) if namer else name
            sid = self.begin(span_name)
            result = stats = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                counter = STATS.get(span_name)
                if counter is not None and result is not None:
                    stats = counter(fn, args, kwargs, result)
                self.end(sid, stats)

        return wrapper

    def install(self):
        """Wrap the public tvls functions and methods; returns the number of bindings replaced."""
        pkg = importlib.import_module("tvls")
        modules = {short: importlib.import_module(f"tvls.{short}") for short in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        replaced = 0
        for ns in (pkg, *modules.values()):
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, attr, hit[1])
                    replaced += 1
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", getattr(cls, meth)))
            replaced += 1
        return replaced

    def summarize(self, root_name):
        """Per-function totals over the trees under root spans called ``root_name``.

        Returns (roots, table): the root spans' durations, and for each span
        name its calls, self time, direct-children counts by name and summed
        work counts.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, root, stats in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        roots = [sid for sid, s in enumerate(self.spans) if s[3] is None and s[0] == root_name]
        wanted = set(roots)
        table = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "children": defaultdict(int),
                                     "stats": defaultdict(float)})
        for sid, (name, start, end, parent, root, stats) in enumerate(self.spans):
            if root not in wanted:
                continue
            row = table[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[sid]
            if parent is not None:
                table[self.spans[parent][0]]["children"][name] += 1
            for key, val in (stats or {}).items():
                row["stats"][key] += val
        durations = [self.spans[sid][2] - self.spans[sid][1] for sid in roots]
        return durations, table
