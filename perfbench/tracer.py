"""An in-memory span tracer applied to coopmds from outside the package.

``Tracer.install()`` wraps every public function and every public method of
a public class defined in the coopmds layer modules, and rebinds each wrapper
wherever a coopmds module holds a reference to the original (``cli`` imports
``recover_batched`` from ``grs``, the package re-exports most names).  A span
is named ``<layer>.<function>`` after the module that defines the function,
so spans follow code that moves between modules.  Three private helpers that
carry the repair phases on the whole-file path are traced under the public
phase names.  ``Path.read_bytes``, ``Path.write_bytes`` and ``zlib.crc32``
are wrapped the same way, and recorded only when called from inside a span.

A span holds its name, start and end (``perf_counter_ns``), its parent span,
the op it belongs to and, for a few functions, a count of the work done.
``uninstall()`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import pathlib
import statistics
import sys
import threading
import time
import zlib
from collections import defaultdict

import numpy as np

LAYERS = ("field", "grs", "codespec", "codec", "repair", "cluster", "cli")

PHASE_ALIASES = {
    ("repair", "_helper_message"): "repair.round1_helper_payload",
    ("repair", "_solve_node"): "repair.round1_solve",
    ("repair", "_finish_column"): "repair.round2_exchange_and_finish",
}


def _mul_elements(args, kwargs, result):
    return int(np.size(result))


def _distinct_rows(points: np.ndarray) -> int:
    """Distinct rows of a non-negative integer matrix: pack each row into as
    few uint64 words as its values allow, then count changes in sorted order."""
    nrows, ncols = points.shape
    if nrows == 0:
        return 0
    bits = max(1, int(points.max()).bit_length())
    per_word = max(1, 64 // bits)
    words = []
    for lo in range(0, ncols, per_word):
        word = np.zeros(nrows, dtype=np.uint64)
        for j in range(lo, min(lo + per_word, ncols)):
            word = (word << np.uint64(bits)) | points[:, j].astype(np.uint64)
        words.append(word)
    if len(words) == 1:
        return int(np.unique(words[0]).size)
    order = np.lexsort(words[::-1])
    change = np.zeros(nrows, dtype=bool)
    change[0] = True
    for word in words:
        ordered = word[order]
        change[1:] |= ordered[1:] != ordered[:-1]
    return int(change.sum())


def _recover_systems(args, kwargs, result):
    points = np.asarray(args[1] if len(args) > 1 else kwargs["points"])
    return (points.shape[0], _distinct_rows(points))


def _nbytes_arg(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["data"])


def _nbytes_result(args, kwargs, result):
    return len(result)


def _crc_bytes(args, kwargs, result):
    return len(args[0])


# Field arithmetic, as opposed to building or looking up a field
FIELD_ARITHMETIC = {f"field.{op}" for op in ("add", "sub", "neg", "mul", "inv", "div", "pow", "sum")}

# span name -> (counter, whether the counter is costly enough to get a
# "trace.count" span of its own so that it is not charged to the caller)
COUNTERS = {
    "field.mul": (_mul_elements, False),
    "grs.recover_batched": (_recover_systems, True),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "thread", "count")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.thread = threading.get_ident()
        self.count = None
        self.start = self.end = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: "tuple[int, str] | None" = None
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # ---- span bookkeeping ----------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, counter=None, costly=False, only_nested=False):
        stack = self._stack()
        if only_nested and not stack:
            return fn(*args, **kwargs)
        if stack:
            parent = stack[-1]
        else:
            # a worker thread's first span hangs under the span that is open
            # in the main thread, which is waiting for the pool
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(name, parent, self.op)
        stack.append(span)
        span.start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(span)
        if counter is not None:
            if costly:
                span.count = self._call("trace.count", counter, (args, kwargs, result), {})
            else:
                span.count = counter(args, kwargs, result)
        return result

    def _wrap(self, fn, name, counter=None, costly=False, only_nested=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs, counter, costly, only_nested)

        return traced

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # ---- install / uninstall -------------------------------------------------

    def install(self) -> None:
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "coopmds" or name.startswith("coopmds."))
        ]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = PHASE_ALIASES.get((layer, attr))
                    if name is None and attr.startswith("_"):
                        continue
                    name = name or f"{layer}.{attr}"
                    counter, costly = COUNTERS.get(name, (None, False))
                    wrappers[obj] = self._wrap(obj, name, counter, costly)
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    for meth_name, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and not meth_name.startswith("_"):
                            name = f"{layer}.{meth_name}"
                            counter, costly = COUNTERS.get(name, (None, False))
                            self._set(obj, meth_name, self._wrap(meth, name, counter, costly))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        path = pathlib.Path
        self._set(path, "read_bytes", self._wrap(path.read_bytes, "io.read", _nbytes_result, only_nested=True))
        self._set(path, "write_bytes", self._wrap(path.write_bytes, "io.write", _nbytes_arg, only_nested=True))
        self._set(zlib, "crc32", self._wrap(zlib.crc32, "io.crc32", _crc_bytes, only_nested=True))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ---- export ----------------------------------------------------------------

    def export(self) -> list[dict]:
        ids = {id(span): i for i, span in enumerate(self.spans)}
        return [
            {
                "id": ids[id(s)],
                "name": s.name,
                "start_ns": s.start,
                "end_ns": s.end,
                "parent": ids.get(id(s.parent)) if s.parent is not None else None,
                "op": f"{s.op[0]}:{s.op[1]}" if s.op else None,
                "thread": s.thread,
                "count": s.count,
            }
            for s in self.spans
        ]


# ---- analysis ------------------------------------------------------------------


def _union_ns(intervals) -> int:
    total, cur_lo, cur_hi = 0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """id(span) -> its duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    return {
        id(s): (s.end - s.start)
        - _union_ns((max(c.start, s.start), min(c.end, s.end)) for c in children[id(s)])
        for s in spans
    }


def _outermost(spans: list[Span], names) -> list[Span]:
    """Spans named in ``names`` with no ancestor named in ``names``."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        a = s.parent
        while a is not None and a.name not in names:
            a = a.parent
        if a is None:
            out.append(s)
    return out


def _under(span: Span, name: str) -> bool:
    a = span.parent
    while a is not None:
        if a.name == name:
            return True
        a = a.parent
    return False


def _work_ns(span: Span, counting: dict[int, int]) -> int:
    return span.end - span.start - counting.get(id(span), 0)


def _ns_to_s(ns: int) -> float:
    return ns / 1e9


def span_metrics(spans: list[Span], ops: tuple[str, ...]) -> dict[str, float]:
    """The span-derived per-layer metrics of one cycle's spans."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    # counting work done by the tracer inside a span, left out of its time
    counting = defaultdict(int)
    for s in by_name["trace.count"]:
        a = s.parent
        while a is not None:
            counting[id(a)] += s.end - s.start
            a = a.parent

    def self_s(name):
        return _ns_to_s(sum(own[id(s)] for s in by_name[name]))

    def incl_s(*names):
        return _ns_to_s(sum(_work_ns(s, counting) for s in _outermost(spans, set(names))))

    def total_count(name):
        return sum(s.count or 0 for s in by_name[name])

    recover = by_name["grs.recover_batched"]
    systems = sum(s.count[0] for s in recover if s.count)
    distinct = sum(s.count[1] for s in recover if s.count)
    solves = [s for s in _outermost(spans, {"repair.round1_solve"}) if _under(s, "cluster.run_scenario")]
    solve_wall = _union_ns((s.start, s.end) for s in solves)
    solve_busy = sum(_work_ns(s, counting) for s in solves)

    m = {
        "field.mul.calls": len(by_name["field.mul"]),
        "field.mul.elements": total_count("field.mul"),
        "field.mul.self_s": self_s("field.mul"),
        "field.sub.self_s": self_s("field.sub"),
        "field.sum.self_s": self_s("field.sum"),
        "field.inv.self_s": self_s("field.inv"),
        "grs.recover_batched.calls": len(recover),
        "grs.recover_batched.systems": systems,
        "grs.recover_batched.self_s": self_s("grs.recover_batched"),
        "grs.solve_batched.self_s": self_s("grs.solve_batched"),
        "grs.distinct_systems_ratio": distinct / systems if systems else 0.0,
        "codec.encode_systematic.s": incl_s("codec.encode_systematic"),
        "codec.verify_parity.s": incl_s("codec.verify_parity"),
        "codec.decode_from_columns.s": incl_s("codec.decode_from_columns"),
        "repair.repair_columns.s": incl_s("repair.repair_columns"),
        "repair.round1_helper_payload.s": incl_s("repair.round1_helper_payload"),
        "repair.round1_solve.s": incl_s("repair.round1_solve"),
        "repair.round2_exchange_and_finish.s": incl_s("repair.round2_exchange_and_finish"),
        "cluster.run_scenario.self_s": self_s("cluster.run_scenario"),
        "cluster.round1_parallelism": solve_busy / solve_wall if solve_wall else 0.0,
        "cli.io.read_s": incl_s("io.read"),
        "cli.io.read_bytes": total_count("io.read"),
        "cli.io.write_s": incl_s("io.write"),
        "cli.io.write_bytes": total_count("io.write"),
        "cli.crc32_s": incl_s("io.crc32"),
        "cli.crc32_bytes": total_count("io.crc32"),
    }
    for op in ops:
        m[f"cli.{op}.self_s"] = _ns_to_s(
            sum(own[id(s)] for s in spans if s.op[1] == op and s.name.startswith("cli."))
        )
    read = [s for s in spans if s.op[1] == "read"]
    arithmetic = {s.name for s in read if s.name in FIELD_ARITHMETIC or s.name.startswith("grs.")}
    m["read.arith_s"] = _ns_to_s(sum(_work_ns(s, counting) for s in _outermost(read, arithmetic)))
    layer_ns = defaultdict(int)
    for s in spans:
        layer_ns[s.name.split(".")[0]] += own[id(s)]
    for layer in LAYERS + ("io", "trace"):
        m[f"layer.{layer}.self_s"] = _ns_to_s(layer_ns[layer])
    m["trace.spans"] = len(spans)
    return m


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    """Code-construction time inside the traced set-up."""
    build = ("codespec.make_code", "codespec.universal_code", "codespec.concat")
    return {
        "codespec.build_s": _ns_to_s(sum(s.end - s.start for s in _outermost(spans, set(build)))),
        "codespec.coeff_matrix_s": _ns_to_s(
            sum(s.end - s.start for s in _outermost(spans, {"codespec.coeff_matrix"}))
        ),
    }


def median_of(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
