"""Spans around the library's layer functions, recorded from outside the library.

The functions to wrap are listed as data in ``layers.json``.  A wrapper
replaces the function everywhere the package holds a reference to it: the
defining module, every module that imported the name, dataclass instances
that store it (such as a subsolver's ``fn``) and module-level dicts.  A name
bound at import is therefore wrapped where it is looked up.  A listed function
that the library lacks is reported as absent.

Each span is (layer, start ns, end ns, parent span, op id).  Spans stay in
memory and are written out when the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import statistics
import sys
import time
from collections import defaultdict


def _count_from_data(tracer, args, kwargs, result, ns):
    # Called on the classmethod's function: args = (cls, nodes, terminals, edges).
    edges = kwargs["edges"] if "edges" in kwargs else args[3]
    tracer.counts["core.from_data.edges_in"] += len(edges)
    tracer.counts["core.from_data.edges_kept"] += len(result.edges)


def _count_solve_general(tracer, args, kwargs, result, ns):
    inst = kwargs["inst"] if "inst" in kwargs else args[0]
    tracer.counts["general.greedy_steps"] += result.extras.get("greedy_steps", 0)
    tracer.scaling.append((len(inst.terminals), ns))


def _count_exact_bb(tracer, args, kwargs, result, ns):
    sc = kwargs["sc"] if "sc" in kwargs else args[0]
    tracer.counts["unit.exact_bb.elements"] += len(sc.elements)


def _count_exact_solve(tracer, args, kwargs, result, ns):
    tracer.counts["oracle.nodes_expanded"] += result.nodes_expanded


# Counters read at a layer boundary, keyed by the layer's metric prefix.
COUNTERS = {
    "core.from_data": _count_from_data,
    "general.solve_general": _count_solve_general,
    "unit.exact_bb": _count_exact_bb,
    "oracle.exact_solve": _count_exact_solve,
}

# Counts summed at layer boundaries, reported per op.
PER_OP_COUNTS = (
    "core.from_data.edges_in",
    "core.from_data.edges_kept",
    "general.greedy_steps",
    "unit.exact_bb.elements",
    "oracle.nodes_expanded",
)

# Failures a counter can meet when the library changes the shape it reads.
_COUNTER_ERRORS = (AttributeError, KeyError, IndexError, TypeError)


class Tracer:
    OP = "op"

    def __init__(self, package, layers):
        self.package = package
        self.names = [self.OP] + [layer["metric"] for layer in layers]
        self.spans = []
        self.stack = []
        self.op = -1
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.scaling = []
        self.counter_errors = set()
        self.absent = []
        self.patches = []
        self._root = self._wrap(0, _call, None)
        for sid, layer in enumerate(layers, start=1):
            if not self._plan(sid, layer):
                self.absent.append(layer["metric"])

    # -- wrapping ------------------------------------------------------------

    def _resolve(self, path):
        """(owner, attribute, raw value) for a path like 'core.Instance.from_data'."""
        module_name, *attrs = path.split(".")
        module = sys.modules.get(f"{self.package}.{module_name}")
        if module is None or not attrs:
            return None
        owner = module
        for attr in attrs[:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        raw = vars(owner).get(attrs[-1]) if hasattr(owner, "__dict__") else None
        if raw is None:
            return None
        return owner, attrs[-1], raw

    def _plan(self, sid, layer):
        found = self._resolve(layer["fn"])
        if found is None:
            return False
        owner, attr, raw = found
        hook = COUNTERS.get(layer["metric"])
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(sid, raw.__func__, hook))
            self.patches.append((setattr, owner, attr, raw, wrapped))
            return True
        if not callable(raw):
            return False
        wrapped = self._wrap(sid, raw, hook)
        if isinstance(owner, type):
            self.patches.append((setattr, owner, attr, raw, wrapped))
            return True
        for holder, key, setter in self._references(raw):
            self.patches.append((setter, holder, key, raw, wrapped))
        return True

    def _references(self, fn):
        """Every place in the package that holds ``fn``: module globals,
        fields of dataclass instances and values of dicts at module level."""
        for name, module in list(sys.modules.items()):
            if name != self.package and not name.startswith(self.package + "."):
                continue
            for key, value in vars(module).items():
                if value is fn:
                    yield module, key, setattr
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if v is fn:
                            yield value, k, dict.__setitem__
                elif dataclasses.is_dataclass(value) and not isinstance(value, type):
                    for field in dataclasses.fields(value):
                        if getattr(value, field.name) is fn:
                            # Frozen dataclasses refuse setattr; go around it.
                            yield value, field.name, object.__setattr__

    def _wrap(self, sid, fn, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ns = end - start
                parent = -1
                if stack:
                    stack[-1][1] += ns
                    parent = stack[-1][0]
                spans[idx] = (sid, start, end, parent, self.op)
                calls[sid] += 1
                self_ns[sid] += ns - frame[1]
                total_ns[sid] += ns
            if hook is not None:
                try:
                    hook(self, args, kwargs, result, ns)
                except _COUNTER_ERRORS:
                    self.counter_errors.add(self.names[sid])
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        for setter, holder, key, _, wrapped in self.patches:
            setter(holder, key, wrapped)

    def uninstall(self):
        for setter, holder, key, original, _ in reversed(self.patches):
            setter(holder, key, original)

    def call_op(self, op_id, fn, *args):
        """Run one op inside a root span named 'op'."""
        self.op = op_id
        try:
            return self._root(fn, *args)
        finally:
            self.op = -1

    # -- results -------------------------------------------------------------

    def layer_metrics(self, layers, ops):
        """Per-op calls and self seconds per layer, the named counts, and
        the derived rates."""
        out = {}
        for sid, layer in enumerate(layers, start=1):
            out[layer["metric"] + ".calls"] = self.calls[sid] / ops
            out[layer["metric"] + ".self_s"] = self.self_ns[sid] / 1e9 / ops
        for name in PER_OP_COUNTS:
            out[name] = self.counts[name] / ops
        sid = {name: i for i, name in enumerate(self.names)}
        edges = self.counts["core.from_data.edges_in"]
        build_ns = self.self_ns[sid["core.from_data"]]
        out["core.from_data.us_per_edge"] = build_ns / 1e3 / edges if edges else 0.0
        oracle_ns = self.total_ns[sid["oracle.exact_solve"]]
        nodes = self.counts["oracle.nodes_expanded"]
        out["oracle.nodes_per_s"] = nodes / (oracle_ns / 1e9) if oracle_ns else 0.0
        out["general.solve_general.scaling_exp"] = _log_slope(self.scaling)
        return out

    def write(self, path):
        doc = {
            "names": self.names,
            "fields": ["layer", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _call(fn, *args):
    return fn(*args)


def _log_slope(samples):
    """Least-squares slope of log(time) against log(size); 0 without spread."""
    xs = [math.log(size) for size, _ in samples]
    ys = [math.log(ns) for _, ns in samples]
    if len(set(xs)) < 2:
        return 0.0
    return statistics.linear_regression(xs, ys).slope
