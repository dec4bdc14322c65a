"""Spans recorded from outside the library, and the per-layer numbers they give.

The traced run replaces each timed entry point of ``degenskel`` with a
wrapper that records a span (name, start, end, parent, request id) and then
calls the original.  Functions are replaced in every ``degenskel`` module
that holds them, so calls between modules (``cli`` into ``weight``,
``flow_value`` into ``flow_expansion``) nest under their caller.  Methods
are replaced on their class.  Nothing inside the library changes, and the
originals are put back when the traced phase ends.
"""
from __future__ import annotations

import contextlib
import gzip
import json
import statistics
import sys
import time

# metric prefix -> (module, attribute path); methods are "Class.method"
ENTRY_POINTS = {
    "parsing.parse_polynomial": ("parsing", "parse_polynomial"),
    "parsing.parse_element": ("parsing", "parse_element"),
    "monoval.MultivariatePoly.mul": ("monoval", "MultivariatePoly.__mul__"),
    "monoval.monomial_valuation": ("monoval", "monomial_valuation"),
    "flow.rigid_point": ("flow", "BasicModel.rigid_point"),
    "flow.flow_expansion": ("flow", "flow_expansion"),
    "flow.flow_value": ("flow", "flow_value"),
    "flow.flow_value_monomial": ("flow", "flow_value_monomial"),
    "dualcomplex.ModelDescription.from_dict": ("dualcomplex", "ModelDescription.from_dict"),
    "dualcomplex.build_complex": ("dualcomplex", "build_complex"),
    "weight.form_problems": ("weight", "form_problems"),
    "weight.global_weight": ("weight", "global_weight"),
    "weight.ks_skeleton": ("weight", "ks_skeleton"),
    "weight.essential_skeleton": ("weight", "essential_skeleton"),
    "weight.weight_at": ("weight", "weight_at"),
    "weight.is_connected": ("weight", "is_connected"),
    "weight.is_closed_pseudomanifold": ("weight", "is_closed_pseudomanifold"),
}

COMMANDS = ("check", "complex", "weight", "ks", "essential", "flow", "retract")

# spans the workloads open themselves around their own calls
WORKLOAD_SPANS = (
    ["field.BaseElement"]
    + [f"cli.main.{c}" for c in COMMANDS]
    + [f"cli.process.{c}" for c in COMMANDS]
)

LAYERS = ("field", "parsing", "monoval", "flow", "dualcomplex", "weight", "cli")

COUNTS = (
    "flow.taylor_terms",
    "flow.taylor_slots",
    "flow.nonzero_term_ratio",
    "dualcomplex.strata_built",
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for name in list(ENTRY_POINTS) + WORKLOAD_SPANS:
        out += [(f"{name}.calls", "count"), (f"{name}.busy_s", "s"), (f"{name}.p50_ms", "ms")]
    for layer in LAYERS:
        out += [(f"{layer}.busy_s", "s"), (f"{layer}.self_s", "s")]
    out += [(name, "ratio" if name.endswith("ratio") else "count") for name in COUNTS]
    out += [("cli.process.interpreter_ms", "ms"), ("cli.process.import_ms", "ms")]
    out += [("failed_ratio", "ratio"), ("trace_overhead_ratio", "ratio")]
    return out


class NullTracer:
    """Stand-in used for untraced runs: every span is a no-op."""

    counting = False

    def span(self, name):
        return contextlib.nullcontext()

    def request(self, rid, kind, label):
        return contextlib.nullcontext()


class Tracer:
    """In-memory span store; spans are tuples (name, start, end, parent, rid)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.rid = -1
        self.requests: list[tuple[int, str, str]] = []
        self.counting = False
        self.enabled = True
        self.counts = {"flow.taylor_terms": 0, "flow.taylor_slots": 0, "dualcomplex.strata_built": 0}
        self._restore: list = []

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        return idx, parent

    def _close(self, name, idx, parent, start):
        end = time.perf_counter()
        self.stack.pop()
        self.spans[idx] = (name, start, end, parent, self.rid)

    @contextlib.contextmanager
    def span(self, name):
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, idx, parent, start)

    @contextlib.contextmanager
    def request(self, rid, kind, label):
        self.rid = rid
        self.requests.append((rid, kind, label))
        with self.span(f"request.{kind}"):
            yield

    def _wrap(self, name, fn, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx, parent = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, idx, parent, start)
            if hook is not None and tracer.counting:
                hook(tracer.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, lib):
        """Replace every entry point of ``lib`` (a namespace of modules)."""
        hooks = {
            "flow.flow_expansion": _count_taylor,
            "dualcomplex.ModelDescription.from_dict": _count_strata,
        }
        modules = [m for n, m in sys.modules.items() if n == "degenskel" or n.startswith("degenskel.")]
        for name, (module, path) in ENTRY_POINTS.items():
            owner = getattr(lib, module)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, hooks.get(name)))
                else:
                    new = self._wrap(name, raw, hooks.get(name))
                setattr(cls, attr, new)
                self._restore.append((cls, attr, raw))
                continue
            raw = getattr(owner, path)
            new = self._wrap(name, raw, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, new)
                        self._restore.append((mod, key, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        base = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[n], round(a - base, 7), round(b - base, 7), p, rid]
            for n, a, b, p, rid in self.spans
        ]
        with gzip.open(path, "wt") as fh:
            json.dump(
                {
                    "names": names,
                    "fields": ["name", "start_s", "end_s", "parent", "request"],
                    "spans": rows,
                    "requests": self.requests,
                },
                fh,
            )


def _count_taylor(counts, args, result):
    """Nonzero Taylor coefficients against coefficient slots attempted.

    Slots are the degree span in V of the cleared Laurent polynomial, read
    from the exponents of f (the expansion attempts one coefficient per
    power of (V - 1) up to that degree).
    """
    bm, _, f = args
    ks = [i * bm.m2 - j * bm.m1 for i, j in f.terms]
    if ks:
        counts["flow.taylor_slots"] += max(ks) + max(0, -min(ks)) + 1
    counts["flow.taylor_terms"] += len(result)


def _count_strata(counts, args, result):
    counts["dualcomplex.strata_built"] += len(result.strata)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-entry, per-layer and count metrics derived from the spans."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def layer(i):
        return spans[i][0].split(".", 1)[0]

    durations: dict[str, list[float]] = {}
    outermost: dict[str, float] = {}
    busy = {x: 0.0 for x in LAYERS}
    self_time = {x: 0.0 for x in LAYERS}
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        durations.setdefault(name, []).append(dur)
        mod = layer(i)
        if mod not in busy:
            continue
        self_time[mod] += dur - child_time[i]
        p, same_name, same_layer = parent, False, False
        while p >= 0:
            same_name = same_name or spans[p][0] == name
            same_layer = same_layer or layer(p) == mod
            p = spans[p][3]
        if not same_name:
            outermost[name] = outermost.get(name, 0.0) + dur
        if not same_layer:
            busy[mod] += dur

    out: dict[str, float] = {}
    for name in list(ENTRY_POINTS) + WORKLOAD_SPANS:
        durs = durations.get(name, [])
        out[f"{name}.calls"] = len(durs)
        out[f"{name}.busy_s"] = outermost.get(name, 0.0)
        out[f"{name}.p50_ms"] = statistics.median(durs) * 1e3 if durs else 0.0
    for x in LAYERS:
        out[f"{x}.busy_s"] = busy[x]
        out[f"{x}.self_s"] = self_time[x]
    counts = tracer.counts
    out["flow.taylor_terms"] = counts["flow.taylor_terms"]
    out["flow.taylor_slots"] = counts["flow.taylor_slots"]
    slots = counts["flow.taylor_slots"]
    out["flow.nonzero_term_ratio"] = counts["flow.taylor_terms"] / slots if slots else 0.0
    out["dualcomplex.strata_built"] = counts["dualcomplex.strata_built"]
    return out
