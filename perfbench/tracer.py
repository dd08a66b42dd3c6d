"""In-memory span tracer installed around the public functions of cybethe.

The tracer patches from outside the package: nothing under `src/` changes.
A function is wrapped once and the wrapper is bound under every name in
every loaded `cybethe` module namespace that refers to the original, so a
call through `from .frame import is_generic` inside `genengine` is seen as
well as a call through `frame.is_generic`.  Hot class methods (`Cyc`
arithmetic, `QPoly.__mul__`) get plain counters instead of spans.

Spans are kept in memory as lists `[id, parent, name, request, t0_ns,
t1_ns, error]` and written out once, after the run.  `restore()` puts
every original back.
"""

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# module -> public functions recorded as spans
SPANNED = {
    "genengine": ("explore_population", "cyclotomic_generate"),
    "frame": ("is_generic", "is_critical_exact", "is_cyclotomic_tuple"),
    "qpoly": ("qgcd", "is_squarefree", "divide_exact",
              "wronskian_ode_solve", "wronskian"),
    "linalg": ("solve", "nullspace", "rank", "invert"),
    "typea": ("kernel_basis", "frame_conditions_check", "witt_basis",
              "gram_matrix", "apply_flow", "beta", "rational_sqrt"),
    "serialize": ("tuple_doc_json", "catalog_doc", "dumps",
                  "instance_from_doc", "tuple_from_doc"),
    "numerics": ("embed", "residuals", "residual_norm", "grad_check"),
    "cli": ("main",),
}

# Cyc methods counted as scalar operations; aliases share one counter
CYC_OPS = {"__mul__": "mul", "__rmul__": "mul", "__add__": "add",
           "__radd__": "add", "__sub__": "sub", "__truediv__": "div",
           "inverse": "inverse"}

PAIR_STRIDE = 61        # record every 61st Cyc product for the replay
PAIR_CAP = 2000
REPLAY_REPEATS = 5


def _cybethe_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cybethe"
                                  or name.startswith("cybethe."))]


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []
        self._stack = []
        self.request = 0
        self.counters = Counter()
        self.pairs = []
        self.replay = (0, 0.0)      # (pairs replayed, ns per product)
        self._patches = []
        self._mul = None

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap the functions of every loaded cybethe module."""
        modules = _cybethe_modules()
        for modname, fnames in SPANNED.items():
            mod = sys.modules.get("cybethe." + modname)
            if mod is None:
                continue
            for fname in fnames:
                original = getattr(mod, fname)
                wrapper = self._span_wrapper(f"{modname}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapper)
        scalars = sys.modules.get("cybethe.scalars")
        if scalars is not None:
            cyc = scalars.Cyc
            wrapped = {}
            for attr, op in CYC_OPS.items():
                original = vars(cyc)[attr]
                if original not in wrapped:
                    wrapped[original] = self._cyc_wrapper(op, original)
                self._patch(cyc, attr, wrapped[original])
            self._mul = vars(cyc)["__mul__"].__wrapped__
        qpoly = sys.modules.get("cybethe.qpoly")
        if qpoly is not None:
            original = vars(qpoly.QPoly)["__mul__"]
            self._patch(qpoly.QPoly, "__mul__",
                        self._count_wrapper("qpoly.mul", original))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, nid,
                    tracer.request, 0, 0, None]
            spans.append(span)
            stack.append(span[0])
            span[4] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[5] = clock()
                stack.pop()
        return wrapper

    def _cyc_wrapper(self, op, fn):
        counters, pairs = self.counters, self.pairs
        key = "scalars." + op
        if op == "inverse":
            @functools.wraps(fn)
            def unary(a):
                counters[key] += 1
                if a.order <= 2:
                    counters["scalars.rational_ops"] += 1
                return fn(a)
            return unary

        @functools.wraps(fn)
        def binary(a, b):
            counters[key] += 1
            if a.order <= 2 and getattr(b, "order", 1) <= 2:
                counters["scalars.rational_ops"] += 1
            if (op == "mul" and counters[key] % PAIR_STRIDE == 0
                    and len(pairs) < PAIR_CAP):
                pairs.append((a, b))
            return fn(a, b)
        return binary

    def _count_wrapper(self, key, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args):
            counters[key] += 1
            return fn(*args)
        return counted

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself around a unit of work."""
        span = [len(self.spans), self._stack[-1] if self._stack else -1,
                self._name_id(name), self.request, 0, 0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        span[4] = time.perf_counter_ns()
        try:
            yield span
        finally:
            span[5] = time.perf_counter_ns()
            self._stack.pop()

    # -- after the traced work ------------------------------------------

    def replay_products(self):
        """Time the recorded Cyc products again with the original method."""
        if not self.pairs or self._mul is None:
            return
        mul = self._mul
        per_op = []
        for _ in range(REPLAY_REPEATS):
            t0 = time.perf_counter_ns()
            for a, b in self.pairs:
                mul(a, b)
            per_op.append((time.perf_counter_ns() - t0) / len(self.pairs))
        per_op.sort()
        self.replay = (len(self.pairs), per_op[len(per_op) // 2])

    def to_doc(self):
        return {"names": self.names, "spans": self.spans,
                "counters": dict(self.counters),
                "replay": list(self.replay)}

    def merge(self, doc, request, parent):
        """Append a child process's trace below the span `parent`."""
        offset = len(self.spans)
        ids = [self._name_id(n) for n in doc["names"]]
        for sid, par, nid, _, t0, t1, err in doc["spans"]:
            self.spans.append([sid + offset,
                               parent if par < 0 else par + offset,
                               ids[nid], request, t0, t1, err])
        self.counters.update(doc["counters"])
        n, ns = doc["replay"]
        total, mean = self.replay
        if n:
            self.replay = (total + n, (mean * total + ns * n) / (total + n))

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.to_doc(), fh, separators=(",", ":"))

    # -- aggregation ------------------------------------------------------

    def layer_stats(self):
        """{name: (calls, self_seconds)} over every recorded span."""
        child_ns = Counter()
        for sid, parent, _, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        calls, self_ns = Counter(), Counter()
        for sid, _, nid, _, t0, t1, _ in self.spans:
            name = self.names[nid]
            calls[name] += 1
            self_ns[name] += (t1 - t0) - child_ns[sid]
        return {name: (calls[name], self_ns[name] / 1e9) for name in calls}

    def count_where(self, name, error=None, under=None):
        """Spans called `name` [ending in `error`] [below a span `under`]."""
        spans = self.spans
        target = self._name_ids.get(name)
        if target is None:
            return 0
        below = self._name_ids.get(under) if under else None
        total = 0
        for span in spans:
            if span[2] != target or (error and span[6] != error):
                continue
            if under:
                parent = span[1]
                while parent >= 0 and spans[parent][2] != below:
                    parent = spans[parent][1]
                if parent < 0:
                    continue
            total += 1
        return total
