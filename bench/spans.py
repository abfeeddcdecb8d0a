"""Span recorder for the traced run.

``Recorder.install`` replaces each wrapped library function by a timing
wrapper in every ``datawords`` module namespace that holds it.  Library code
looks these names up in module globals, so calls from one layer into
another, and within a module, go through the wrapper too and nest under
their caller's span.  Spans stay in memory; ``layer_metrics`` and ``write``
read them when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from oracles import formula_shape
from verdicts import UNKNOWN, read_verdict

WRAPPED = (
    "words.enumerate_data_words",
    "ltl.parse_ltl", "ltl.eval_ltl", "ltl.sat_bounded",
    "fo.eval_fo",
    "ltl2ra.ltl_to_ara",
    "ra.accepts", "ra.acceptance_game",
    "games.solve",
    "nra.nonempty_finite", "nra.nonempty_infinite",
    "ca.accepts_word", "ca.nonempty_finite_incrementing",
    "ca.nonempty_infinite_incrementing", "ca.verify_lasso",
    "ra2ca.build_ca_finite", "ra2ca.build_ca_infinite",
    "reductions.ca_to_ltl_finite",
)


class Span:
    __slots__ = ("name", "parent", "query", "start", "total", "child")

    def __init__(self, name, parent, query):
        self.name, self.parent, self.query = name, parent, query
        self.start = self.total = self.child = 0.0


class Recorder:
    def __init__(self, lib):
        self.lib = lib
        self.active = False
        self.query = None  # identifier shared by the spans of one query
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.counts: Counter = Counter()  # work read from return values
        self.seconds: Counter = Counter()

    def install(self) -> None:
        namespaces = [m for name, m in sys.modules.items()
                      if name == "datawords" or name.startswith("datawords.")]
        for qualname in WRAPPED:
            module, func = qualname.split(".")
            original = getattr(getattr(self.lib, module), func)
            make = self._generator if inspect.isgeneratorfunction(original) else self._function
            wrapper = functools.wraps(original)(make(qualname, original))
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)

    # --- spans -------------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, self.query)
        self.spans.append(span)
        return span

    def _enter(self, span: Span) -> None:
        self._stack.append(span)
        span.start = perf_counter()

    def _leave(self, span: Span) -> float:
        dt = perf_counter() - span.start
        self._stack.pop()
        span.total += dt
        if span.parent is not None:
            span.parent.child += dt
        return dt

    def _function(self, name, fn):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(name)
            self._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = self._leave(span)
            self._observe(name, args, result, dt)
            return result
        return wrapper

    def _generator(self, name, fn):
        """A generator's span covers every step of its iteration, and only
        those: the consumer's work between items is not charged to it."""
        def wrapper(*args, **kwargs):
            if not self.active:
                yield from fn(*args, **kwargs)
                return
            it = fn(*args, **kwargs)
            span = self._open(name)
            try:
                while True:
                    self._enter(span)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._leave(span)
                    yield item
            finally:
                it.close()
        return wrapper

    # --- counters from return values ------------------------------------------

    def _observe(self, name, args, result, dt) -> None:
        counts = self.counts
        if name == "ra.acceptance_game":
            counts["games.positions"] += len(result[0].positions)
        elif name == "games.solve":
            counts["games.solve.positions"] += len(args[0].positions)
        elif name == "ra.accepts":
            kind = "translated" if isinstance(args[0].initial, self.lib.ltl.Formula) else "handwritten"
            counts[f"ra.accepts.{kind}"] += 1
            self.seconds[f"ra.accepts.{kind}"] += dt
        elif name == "ltl2ra.ltl_to_ara":
            counts["ltl2ra.locations"] += len(result.locations)
        elif name.startswith("ra2ca."):
            counts[f"{name}.locations"] += len(result.locations)
            counts[f"{name}.transitions"] += len(result.transitions)
            counts[f"{name}.counters"] += result.n_counters
        elif name == "reductions.ca_to_ltl_finite":
            nodes, depth, _ = formula_shape(result, self.lib.ltl.Formula)
            counts[f"{name}.nodes"] += nodes
            key = f"{name}.depth"
            counts[key] = max(counts[key], depth)
        elif name == "ca.nonempty_infinite_incrementing":
            if read_verdict(result).kind == UNKNOWN:
                counts[f"{name}.unknown"] += 1

    # --- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics as name -> (value, unit)."""
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        nested: Counter = Counter()
        for s in self.spans:
            calls[s.name] += 1
            total[s.name] += s.total
            own[s.name] += s.total - s.child
            if s.parent is not None:
                nested[s.parent.name, s.name] += 1
        out = {}
        for name in WRAPPED:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.total_s"] = (total[name], "s")
            out[f"{name}.self_s"] = (own[name], "s")

        def per(num, den):
            return num / den if den else 0.0

        c = self.counts
        out["games.positions"] = (c["games.positions"], "count")
        out["ra.acceptance_game.us_per_position"] = (
            per(total["ra.acceptance_game"] * 1e6, c["games.positions"]), "us")
        out["games.solve.us_per_position"] = (
            per(total["games.solve"] * 1e6, c["games.solve.positions"]), "us")
        for kind in ("translated", "handwritten"):
            key = f"ra.accepts.{kind}"
            out[f"{key}_ms"] = (per(self.seconds[key] * 1e3, c[key]), "ms")
        out["ltl2ra.locations"] = (c["ltl2ra.locations"], "count")
        for build in ("ra2ca.build_ca_finite", "ra2ca.build_ca_infinite"):
            for size in ("locations", "transitions", "counters"):
                out[f"{build}.{size}"] = (c[f"{build}.{size}"], "count")
        for size in ("nodes", "depth"):
            key = f"reductions.ca_to_ltl_finite.{size}"
            out[key] = (c[key], "count")
        out["nra.replays_per_decision"] = (
            per(nested["nra.nonempty_finite", "ra.accepts"], calls["nra.nonempty_finite"]), "ratio")
        out["ca.replays_per_decision"] = (
            per(nested["ca.nonempty_finite_incrementing", "ca.accepts_word"],
                calls["ca.nonempty_finite_incrementing"]), "ratio")
        key = "ca.nonempty_infinite_incrementing.unknown"
        out[key] = (c[key], "count")
        return out

    def write(self, path: Path) -> None:
        """All spans as JSON lines, parents before children."""
        ids = {id(s): k for k, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for k, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": k, "parent": None if s.parent is None else ids[id(s.parent)],
                    "query": s.query, "name": s.name,
                    "total_s": s.total, "self_s": s.total - s.child,
                }) + "\n")
