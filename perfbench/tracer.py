"""Spans and counters around tgq's public functions, installed from outside.

``Tracer.install()`` replaces every public function of each tgq module,
in every tgq module that bound it (``from ... import`` included), and the
public methods of ``TemporalGraph`` and ``PlannedQuery``, with a wrapper
that records calls, total time and self time. ``uninstall()`` puts the
originals back.

Spans (name, start, end, parent, op id) are kept in memory. Only the first
``SPAN_LIMIT`` calls of a function within one op get a span of their own;
later calls, such as the hundred thousand value reads of one FIND, are
folded into per-function counters on the nearest recorded ancestor span.
Calls, totals and self times count every call either way.

The process is single-threaded: no layer waits on another, so a span's
time is busy time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

SPAN_LIMIT = 50

# tgq module -> layer name used in metric names
LAYERS = {
    "tgq.graph": "graph",
    "tgq.dsl.parser": "dsl",
    "tgq.dsl.validate": "dsl",
    "tgq.dsl.planner": "dsl",
    "tgq.tasks": "tasks",
    "tgq.search": "search",
    "tgq.patterns": "patterns",
    "tgq.relations": "relations",
    "tgq.structure": "structure",
    "tgq.correlate": "correlate",
    "tgq.cli": "cli",
}

# Renames for the names the metrics use; every other function is traced as
# "<layer>.<function name>".
RENAMES = {
    "tgq.dsl.planner.PlannedQuery.run": "dsl.execute",
    "tgq.cli._emit": "cli.serialize",
}

# Functions whose first positional argument is a count to add up.
ARG_COUNTERS = {"search.check_budget": "search.candidates"}


class Tracer:
    def __init__(self):
        self.stats: dict = {}  # name -> [calls, total_s, self_s]
        self.spans: list = []  # [name, start, end, parent index, op id, folded]
        self.errors: Counter = Counter()  # "name:CODE" -> raised there
        self.counters: Counter = Counter()
        self.op_calls: Counter = Counter()  # calls per name within the current op
        self._stack: list = []  # frames: [name, start, child_s, span index]
        self._depth: Counter = Counter()
        self._op = None
        self._restore: list = []

    # -- ops -----------------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self._op = op_id
        self.op_calls.clear()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a traced call named ``name``."""
        stack = self._stack
        parent_span = stack[-1][3] if stack else None
        self.op_calls[name] += 1
        counter = ARG_COUNTERS.get(name)
        if counter is not None and args:
            self.counters[counter] += args[0]
        if self.op_calls[name] <= SPAN_LIMIT:
            span = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent_span, self._op, None])
        else:
            span = None
        frame = [name, 0.0, 0.0, span if span is not None else parent_span]
        stack.append(frame)
        self._depth[name] += 1
        start = frame[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as err:
            code = getattr(err, "code", None)
            if code is not None and not getattr(err, "_perfbench_counted", False):
                err._perfbench_counted = True
                self.errors[f"{name}:{code}"] += 1
            raise
        finally:
            end = perf_counter()
            stack.pop()
            self._depth[name] -= 1
            dur = end - start
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = [0, 0.0, 0.0]
            stat[0] += 1
            if not self._depth[name]:  # a recursive call is inside its caller's total
                stat[1] += dur
            stat[2] += dur - frame[2]
            if stack:
                stack[-1][2] += dur
            if span is not None:
                self.spans[span][1:3] = start, end
            elif frame[3] is not None:
                folded = self.spans[frame[3]][5]
                if folded is None:
                    folded = self.spans[frame[3]][5] = {}
                calls, secs = folded.get(name, (0, 0.0))
                folded[name] = (calls + 1, secs + dur)

    # -- installing ------------------------------------------------------------

    def _wrapper(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        from tgq.dsl.planner import PlannedQuery
        from tgq.graph import TemporalGraph

        wrappers = {}  # id(original) -> wrapper
        for modname, layer in LAYERS.items():
            module = importlib.import_module(modname)
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj.__module__ != modname:
                    continue
                full = f"{modname}.{attr}"
                if attr.startswith("_") and full not in RENAMES:
                    continue
                wrappers[id(obj)] = self._wrapper(RENAMES.get(full, f"{layer}.{attr}"), obj)
        for modname, module in list(sys.modules.items()):
            if modname != "tgq" and not modname.startswith("tgq."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        for cls, layer in ((TemporalGraph, "graph"), (PlannedQuery, "dsl")):
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                full = f"{cls.__module__}.{cls.__name__}.{attr}"
                self._restore.append((cls, attr, obj))
                setattr(cls, attr, self._wrapper(RENAMES.get(full, f"{layer}.{attr}"), obj))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, obj = self._restore.pop()
            setattr(owner, attr, obj)

    # -- results ----------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def layer_self_s(self) -> dict:
        """Self seconds per layer; names outside tgq count as "bench"."""
        layers = set(LAYERS.values())
        out: Counter = Counter()
        for name, (_, _, self_s) in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer if layer in layers else "bench"] += self_s
        return dict(out)

    def span_records(self):
        for i, (name, start, end, parent, op, folded) in enumerate(self.spans):
            rec = {"id": i, "name": name, "start": start, "end": end,
                   "parent": parent, "op": op}
            if folded:
                rec["folded"] = {k: {"calls": c, "s": s} for k, (c, s) in folded.items()}
            yield rec
