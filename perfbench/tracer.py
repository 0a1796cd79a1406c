"""In-memory span tracer that wraps the package's public functions from outside.

Modules import functions by name (``from .slots import sort_key``), so
patching ``wortfolge.slots.sort_key`` alone would miss the calls made from
``wortfolge.linearize``.  :meth:`Tracer.install` therefore replaces the
function object in every ``wortfolge`` module namespace that binds it.  The
modules are reached through ``sys.modules``: the package attributes
``wortfolge.linearize`` and ``wortfolge.analyze`` are the same-named
functions, not the modules.

A span records its name, start, end, parent span and operation id.  Spans
are only recorded while an operation is active (``tracer.op`` is not None), so
work the benchmark does between operations is never attributed to a layer.
Per-name totals (calls, inclusive and self time, result sizes) and per
parent->child edge totals are folded in as each span ends; the raw spans are
kept in memory up to ``KEEP_SPANS`` and written out by :meth:`dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

PACKAGE = "wortfolge"
MODULES = (
    "clause", "slots", "lexicon", "linearize", "analyze",
    "disambiguate", "documents", "corpus", "cli",
)
#: Raw spans kept in memory; the totals count every span.
KEEP_SPANS = 20000
#: Public methods traced in addition to the public module-level functions.
METHODS = (("lexicon", "Lexicon", "get"),)


def public_functions(module):
    """Public functions defined in the module (generator functions excluded,
    since a span around one would time only the creation of the generator)."""
    for name, obj in vars(module).items():
        if name.startswith("_") or not callable(obj) or inspect.isclass(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isgeneratorfunction(getattr(obj, "__wrapped__", obj)):
            continue
        yield name, obj


class Tracer:
    def __init__(self):
        self.op = None
        self.spans: list[tuple] = []
        # name -> [calls, inclusive ns, self ns, summed result length]
        self.stats: dict[str, list[int]] = {}
        # "parent|child" -> [calls, inclusive ns]; parent "" for a root span
        self.edges: dict[str, list[int]] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public function of the ``MODULES`` of ``wortfolge``."""
        loaded = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        namespaces = [m for key, m in sys.modules.items() if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for short, module in loaded.items():
            for name, fn in list(public_functions(module)):
                wrapper = self._wrap(f"{short}.{name}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(loaded[short], cls_name)
            fn = cls.__dict__[meth]
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, clock(), 0, name]
            stack.append(frame)
            out = -1
            try:
                result = fn(*args, **kwargs)
                if isinstance(result, (tuple, list)):
                    out = len(result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                totals = tracer.stats.get(name)
                if totals is None:
                    totals = tracer.stats[name] = [0, 0, 0, 0]
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[2]
                totals[3] += max(out, 0)
                parent_name = parent[3] if parent is not None else ""
                edge_key = f"{parent_name}|{name}"
                edge = tracer.edges.get(edge_key)
                if edge is None:
                    edge = tracer.edges[edge_key] = [0, 0]
                edge[0] += 1
                edge[1] += duration
                if parent is not None:
                    parent[2] += duration
                if len(tracer.spans) < KEEP_SPANS:
                    tracer.spans.append(
                        (span_id, name, frame[1], end, parent[0] if parent else None, tracer.op, out)
                    )

        return traced

    # -- results -----------------------------------------------------------

    def merge(self, dump: dict):
        """Fold in the totals and spans written by another process's tracer."""
        for name, values in dump["stats"].items():
            totals = self.stats.setdefault(name, [0, 0, 0, 0])
            for i, v in enumerate(values):
                totals[i] += v
        for key, values in dump["edges"].items():
            edge = self.edges.setdefault(key, [0, 0])
            edge[0] += values[0]
            edge[1] += values[1]
        room = KEEP_SPANS - len(self.spans)
        self.spans.extend(tuple(span) for span in dump["spans"][:max(room, 0)])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"stats": self.stats, "edges": self.edges, "spans": self.spans}, fh)
