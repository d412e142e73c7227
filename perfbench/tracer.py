"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each public function named in ``TARGETS`` by a
wrapper that records a span: its time, charged to the caller's span as
child time, and grouped under the benchmark job that made the outermost
call.  A function is replaced wherever a mriordan module or class binds
that same object (``compose`` is bound in ``series``, ``group``,
``expressions`` and the package itself), so a call through any of those
names is seen.  Spans are folded into per-function totals as they close,
so a traced run's memory does not grow with the number of multiplications.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter_ns

LAYERS = ("series", "group", "sequences", "lattice", "expressions", "documents", "cli", "golden")

# metric prefix -> (layer module, attribute path inside it)
TARGETS = {
    "series.mul": ("series", "Series.__mul__"),
    "series.recip": ("series", "Series.recip"),
    "series.compose": ("series", "compose"),
    "series.revert": ("series", "revert"),
    "series.nth_root_unit": ("series", "nth_root_unit"),
    "group.product": ("group", "product"),
    "group.inverse": ("group", "inverse"),
    "group.to_matrix": ("group", "to_matrix"),
    "group.matmul": ("group", "CoeffMatrix.__matmul__"),
    "group.apply_ftra": ("group", "apply_ftra"),
    "sequences.row_sums": ("sequences", "row_sums"),
    "sequences.diagonal_sums": ("sequences", "diagonal_sums"),
    "sequences.bivariate_table": ("sequences", "bivariate_table"),
    "sequences.hankel_transform": ("sequences", "hankel_transform"),
    "lattice.count_table": ("lattice", "count_table"),
    "expressions.parse": ("expressions", "parse"),
    "expressions.evaluate": ("expressions", "evaluate"),
    "documents.element_from_doc": ("documents", "element_from_doc"),
    "documents.element_to_json": ("documents", "element_to_json"),
    "cli.run": ("cli", "run"),
    "golden.run_all": ("golden", "run_all"),
}

# Below this order a call's cost is mostly call overhead, which would
# flatten the fitted scaling exponent.
MIN_FIT_ORDER = 8

def _resolve(layer, path):
    obj = sys.modules.get("mriordan." + layer)
    for name in path.split("."):
        obj = getattr(obj, name, None)
        if obj is None:
            return None
    return obj


def _owners():
    """Every mriordan module, and every class defined in one."""
    seen = set()
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "mriordan" or name.startswith("mriordan.")):
            continue
        for owner in [module] + [v for v in vars(module).values()
                                 if isinstance(v, type) and v.__module__.startswith("mriordan")]:
            if id(owner) not in seen:
                seen.add(id(owner))
                yield owner


def _integral(s) -> bool:
    return all(c.denominator == 1 for c in s.coeffs)


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(TARGETS, 0)
        self.self_ns = dict.fromkeys(TARGETS, 0)
        self.missing = []
        self.by_job = {}  # job name -> {function: self ns}
        self.job = {}  # self-time totals of the job now running
        self.orders = {"series.mul": {}, "group.inverse": {}}  # order -> [calls, ns]
        self.mul_series = 0  # series-by-series multiplications: the int_ratio base
        self.mul_int = 0
        self._stack = [[0]]  # open spans; each holds the time of its child spans
        self._patches = []

    def start_job(self, name):
        self.job = self.by_job.setdefault(name, {})

    # -- installation ------------------------------------------------------

    def install(self):
        owners = list(_owners())
        for key, (layer, path) in TARGETS.items():
            original = _resolve(layer, path)
            if original is None:
                self.missing.append(key)
                continue
            wrapper = self._wrap(key, original)
            for owner in owners:
                for name, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, name, wrapper)
                        self._patches.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap(self, key, fn):
        stack = self._stack
        calls, self_ns = self.calls, self.self_ns
        size = {"series.mul": self._size_mul, "group.inverse": self._size_inverse}.get(key)
        tracer = self

        def traced(*args, **kwargs):
            enter = perf_counter_ns()
            span = [0]
            stack.append(span)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                own = end - start - span[0]
                calls[key] += 1
                self_ns[key] += own
                job = tracer.job
                job[key] = job.get(key, 0) + own
                if size is not None:
                    size(args, end - start)
                # the parent is charged for this span and its bookkeeping,
                # so only the function's own work counts as self time
                stack[-1][0] += perf_counter_ns() - enter

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def _add_order(self, key, order, ns):
        bucket = self.orders[key].setdefault(order, [0, 0])
        bucket[0] += 1
        bucket[1] += ns

    def _size_mul(self, args, ns):
        a, b = args[0], args[1]
        if not hasattr(b, "coeffs"):
            return  # scalar multiple: linear, not a convolution
        self.mul_series += 1
        if _integral(a) and _integral(b):
            self.mul_int += 1
        self._add_order("series.mul", min(len(a.coeffs), len(b.coeffs)) - 1, ns)

    def _size_inverse(self, args, ns):
        e = args[0]
        self._add_order("group.inverse", e.order // e.m, ns)

    # -- results -------------------------------------------------------------

    def order_exponent(self, key):
        """Least-squares slope of log(time per call) against log(order)."""
        points = [(math.log(n), math.log(ns / calls))
                  for n, (calls, ns) in self.orders[key].items() if n >= MIN_FIT_ORDER]
        if len(points) < 2:
            return None
        mx = sum(x for x, _ in points) / len(points)
        my = sum(y for _, y in points) / len(points)
        sxx = sum((x - mx) ** 2 for x, _ in points)
        return sum((x - mx) * (y - my) for x, y in points) / sxx

    def metrics(self, wall_s, overhead_ratio):
        """Per-layer metrics as {name: (value, unit)}; a missing function is left out.

        wall_s is this traced pass's wall time; overhead_ratio is traced over
        untraced wall time.
        """
        out = {}
        for key in TARGETS:
            if key in self.missing:
                continue
            out[f"{key}.calls"] = (self.calls[key], "count")
            out[f"{key}.self_s"] = (self.self_ns[key] / 1e9, "s")
        for layer in LAYERS:
            keys = [k for k in TARGETS if k.startswith(layer + ".") and k not in self.missing]
            if keys:
                out[f"{layer}.share"] = (sum(self.self_ns[k] for k in keys) / 1e9 / wall_s, "ratio")
        if "series.mul" not in self.missing:
            out["series.mul.int_ratio"] = (self.mul_int / max(self.mul_series, 1), "ratio")
            out["series.mul.int_ratio_base"] = (self.mul_series, "count")
        for key in ("group.inverse", "series.mul"):
            slope = self.order_exponent(key)  # None with fewer than two orders
            if slope is not None:
                out[f"{key}.order_exp"] = (slope, "exponent")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out

