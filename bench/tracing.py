"""Span tracing of the toolkit's public functions, installed from outside ``src/``.

Each wrapped function records one span per call: its id, name, parent span,
operation id, start and end.  Spans stay in memory until the traced phase ends;
then they are written out and reduced to per-layer metrics.  A span's self time
is its duration minus the durations of its child spans.  The self times of
the spans under an operation therefore add up to the operation's traced time
exactly when every span's parent was recorded too; ``trace.orphan_spans``
counts the spans for which it was not (a deadline signal landing inside a
wrapper's bookkeeping could cause that).

``digits.to_digits`` runs thousands of times per operation and is only
counted; its time stays in its caller's self time.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute path, metric prefix) of every function that records spans
SPANNED = (
    ("substitution", "Substitution.simplify", "substitution.simplify"),
    ("substitution", "Substitution.height", "substitution.height"),
    ("substitution", "Substitution.column_number", "substitution.column_number"),
    ("substitution", "Substitution.fixed_point_window", "substitution.fixed_point_window"),
    ("automata", "build_direct", "automata.build_direct"),
    ("automata", "build_reverse_semigroup", "automata.build_reverse_semigroup"),
    ("automata", "reverse_and_determinize", "automata.reverse_and_determinize"),
    ("automata", "minimize", "automata.minimize"),
    ("automata", "equivalent", "automata.equivalent"),
    ("automata", "Dfao.run", "automata.Dfao.run"),
    ("kernel", "enumerate_kernel", "kernel.enumerate_kernel"),
    ("kernel", "brute_force_kernel_for", "kernel.brute_force_kernel_for"),
    ("semigroup", "closure", "semigroup.closure"),
    ("semigroup", "graded_reachability", "semigroup.graded_reachability"),
    ("semigroup", "structure_semigroup", "semigroup.structure_semigroup"),
    ("toeplitz", "gate", "toeplitz.gate"),
    ("toeplitz", "decide_per", "toeplitz.decide_per"),
    ("toeplitz", "aperiodic_in_range", "toeplitz.aperiodic_in_range"),
    ("toeplitz", "reduced_graph", "toeplitz.reduced_graph"),
    ("oracle", "expand", "oracle.expand"),
    ("oracle", "window_for_range", "oracle.window_for_range"),
    ("oracle", "sample_progression", "oracle.sample_progression"),
    ("cli", "cmd_check", "cli.check"),
)
# functions that are counted only (no span)
COUNTED = (
    ("digits", "to_digits", "digits.to_digits"),
    # private, but the only place that knows whether the cycle budget was hit
    ("toeplitz", "_labelled_cycles", "toeplitz.reduced_graph.cycle_search"),
)

# size metrics: mean over successful calls of a count read off the result
SIZES = {
    "automata.build_reverse_semigroup": ("states", lambda r: r.num_states),
    "automata.reverse_and_determinize": ("states", lambda r: r.num_states),
    "semigroup.closure": ("elements", lambda r: len(r.elements)),
    "semigroup.graded_reachability": ("layers", lambda r: len(r.layers)),
    "semigroup.structure_semigroup": ("elements", lambda r: len(r.elements)),
    "kernel.enumerate_kernel": ("elements", len),
    "toeplitz.reduced_graph": ("cycles", lambda r: len(r.cycles)),
    "oracle.expand": ("letters", len),
}

ROOT = "op"


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for _, _, prefix in SPANNED:
        names += [(f"{prefix}.calls", "1/op"), (f"{prefix}.busy_s", "s/op"), (f"{prefix}.self_s", "s/op")]
        if prefix in SIZES:
            names.append((f"{prefix}.{SIZES[prefix][0]}", "count"))
    names += [
        ("digits.to_digits.calls", "1/op"),
        ("automata.minimize.kept_ratio", "ratio"),
        ("kernel.enumerate_kernel.useful_ratio", "ratio"),
        ("toeplitz.gate.calls_per_verdict", "ratio"),
        ("toeplitz.reduced_graph.cycle_budget_hits", "1/op"),
        ("trace.overhead", "ratio"),
        ("trace.orphan_spans", "count"),
    ]
    return names


def _resolve(owner, path: str):
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]  # name id 0 is the operation itself
        # spans of the running operation, one tuple each (one append is safe
        # against the deadline signal), moved to the columns when it ends
        self.pending: list[tuple[int, int, int, int, float, float]] = []
        self.ints = array("q")  # id, name, parent, op per span
        self.times = array("d")  # start, end per span
        self.op_ends: list[int] = []  # span count after each operation
        self.stack: list[int] = []
        self.ids = itertools.count()
        self.op = -1
        self.op_start = 0.0
        self.counts: dict[str, int] = defaultdict(int)
        self.size_sum: dict[str, float] = defaultdict(float)
        self.size_calls: dict[str, int] = defaultdict(int)
        self.op_sizes: dict[str, int] = {}
        self.kernel_elements = 0
        self.reverse_states = 0
        self.minimize_in = 0
        self.minimize_out = 0
        self.budget_hits = 0
        self.missing: list[str] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every wrapped function in all substratum namespaces."""
        for module_name, path, prefix in SPANNED + COUNTED:
            module = sys.modules[f"substratum.{module_name}"]
            try:
                owner, attr = _resolve(module, path)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{module_name}.{path}")
                continue
            spanned = (module_name, path, prefix) in SPANNED
            wrapper = self._span_wrapper(original, prefix) if spanned else self._count_wrapper(original, prefix)
            if owner is module:
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "substratum" or mod_name.startswith("substratum."):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapper)
            else:
                setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, prefix: str):
        nid = len(self.names)
        self.names.append(prefix)
        spans, stack, ids, clock = self.pending, self.stack, self.ids, time.perf_counter
        size = SIZES.get(prefix)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.append((sid, nid, parent, tracer.op, start, clock()))
                stack.pop()
            if size is not None:
                tracer._record_size(prefix, size[1](result))
            if prefix == "automata.minimize":
                tracer.minimize_in += args[0].num_states
                tracer.minimize_out += result.num_states
            return result

        return traced

    def _count_wrapper(self, fn, prefix: str):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[prefix] += 1
            result = fn(*args, **kwargs)
            if prefix == "toeplitz.reduced_graph.cycle_search":
                max_count = args[3] if len(args) > 3 else kwargs["max_count"]
                tracer.budget_hits += len(result) >= max_count
            return result

        return counted

    def _record_size(self, prefix: str, value: int) -> None:
        self.size_sum[prefix] += value
        self.size_calls[prefix] += 1
        self.op_sizes.setdefault(prefix, value)

    # -- operations ----------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.op_sizes = {}
        self.stack.clear()
        self.stack.append(next(self.ids))
        self.op_start = time.perf_counter()

    def end_op(self) -> None:
        end = time.perf_counter()
        self.pending.append((self.stack[0], 0, -1, self.op, self.op_start, end))
        self.stack.clear()
        for sid, nid, parent, op, start, stop in self.pending:
            self.ints.extend((sid, nid, parent, op))
            self.times.extend((start, stop))
        self.pending.clear()
        self.op_ends.append(len(self.times) // 2)
        kernel = self.op_sizes.get("kernel.enumerate_kernel")
        reverse = self.op_sizes.get("automata.build_reverse_semigroup")
        if kernel is not None and reverse is not None:
            self.kernel_elements += kernel
            self.reverse_states += reverse
        self.op = -1

    # -- output ----------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as a JSON header line, then int64 ids and float64 times."""
        header = {
            "names": self.names,
            "spans": len(self.times) // 2,
            "int64": ["id", "name", "parent", "op"],
            "float64": ["start_s", "end_s"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            self.ints.tofile(fh)
            self.times.tofile(fh)

    def span_count(self) -> int:
        return len(self.times) // 2

    def metrics(self, ops: int, overhead: float) -> dict[str, float]:
        """Per-layer metrics over ``ops`` replayed operations; ``overhead`` is
        the traced ÷ untraced time of the same operations, minus 1."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        own = defaultdict(float)
        orphans = 0
        ints, times = self.ints, self.times
        first = 0
        for last in self.op_ends:  # one operation's spans at a time
            name_of: dict[int, int] = {}
            parent_of: dict[int, int] = {}
            duration: dict[int, float] = {}
            child_time: dict[int, float] = defaultdict(float)
            for i in range(first, last):
                sid, nid, parent = ints[4 * i], ints[4 * i + 1], ints[4 * i + 2]
                name_of[sid] = nid
                parent_of[sid] = parent
                duration[sid] = times[2 * i + 1] - times[2 * i]
                child_time[parent] += duration[sid]
            for sid, nid in name_of.items():
                calls[nid] += 1
                own[nid] += duration[sid] - child_time[sid]
                orphans += nid != 0 and parent_of[sid] not in name_of
                # a call nested in a call of the same function is already busy time
                p = parent_of[sid]
                while p >= 0 and name_of.get(p) != nid:
                    p = parent_of.get(p, -1)
                if p < 0:
                    busy[nid] += duration[sid]
            first = last

        per_op = 1.0 / max(ops, 1)
        out: dict[str, float] = {}
        for nid, prefix in enumerate(self.names):
            if prefix == ROOT:
                continue
            out[f"{prefix}.calls"] = calls[nid] * per_op
            out[f"{prefix}.busy_s"] = busy[nid] * per_op
            out[f"{prefix}.self_s"] = own[nid] * per_op
            if prefix in SIZES:
                n = self.size_calls[prefix]
                out[f"{prefix}.{SIZES[prefix][0]}"] = self.size_sum[prefix] / n if n else 0.0
        for _, _, prefix in SPANNED:  # functions that could not be wrapped read 0
            for key in ("calls", "busy_s", "self_s"):
                out.setdefault(f"{prefix}.{key}", 0.0)
            if prefix in SIZES:
                out.setdefault(f"{prefix}.{SIZES[prefix][0]}", 0.0)
        verdicts = out["toeplitz.decide_per.calls"]
        out.update(
            {
                "digits.to_digits.calls": self.counts["digits.to_digits"] * per_op,
                "automata.minimize.kept_ratio": self.minimize_out / self.minimize_in
                if self.minimize_in
                else 0.0,
                "kernel.enumerate_kernel.useful_ratio": self.kernel_elements / self.reverse_states
                if self.reverse_states
                else 0.0,
                "toeplitz.gate.calls_per_verdict": out["toeplitz.gate.calls"] / verdicts
                if verdicts
                else 0.0,
                "toeplitz.reduced_graph.cycle_budget_hits": self.budget_hits * per_op,
                "trace.overhead": overhead,
                "trace.orphan_spans": float(orphans),
            }
        )
        return out
