"""Spans and counters around the library's public functions.

A ``Tracer`` replaces module attributes that callers look up at call time
(``p3iso.solver.isolation_number``, ``p3iso.enumeration.canonical_data``,
...) with wrappers, and puts the originals back on exit. A span records its
name, its parent span, the benchmark item it belongs to, and its start and
end; a counter only counts calls, for per-node hot paths where a span would
cost more than the call. Spans stay in memory until ``write_spans``.

The layer of a span is the part of its name before the first dot. Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name); the name's prefix is the layer.
SPANS = (
    ("p3iso.verify", "verify_enumerated", "verify.verify_enumerated"),
    # the per-graph bound check that verify_enumerated hands to the
    # enumerator as its sink; without it verify time counts as enumeration
    ("p3iso.verify", "_check_one", "verify.check_one"),
    ("p3iso.verify", "enumerate_connected_subcubic", "enumeration.enumerate"),
    ("p3iso.enumeration", "canonical_data", "enumeration.canonical_data"),
    ("p3iso.enumeration", "automorphisms", "enumeration.automorphisms"),
    ("p3iso.patterns", "has_induced_cycle", "patterns.has_induced_cycle"),
    ("p3iso.patterns", "catalog_match", "patterns.catalog_match"),
    ("p3iso.solver", "isolation_number", "solver.isolation_number"),
    ("p3iso.constructive", "isolate_p3_subcubic", "constructive.isolate_p3_subcubic"),
    ("p3iso.constructive", "delete_vertices", "constructive.extract"),
    ("p3iso.constructive", "verify_certificate", "constructive.verify_certificate"),
    ("p3iso.graph_io", "parse_graph6", "graph_io.parse_graph6"),
    ("p3iso.graph_io", "parse_edge_list", "graph_io.parse_edge_list"),
)

# One call per search node of the exact solver.
COUNTERS = (
    ("p3iso.solver", "contains_copy", "solver.contains_copy"),
)


class Tracer:
    """Wraps the SPANS and COUNTERS targets while used as a context manager."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, item, name, start, end)
        self.counts: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.item: str | None = None
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for modname, attr, name in SPANS:
            self._patch(modname, attr, name, self._spanned)
        for modname, attr, name in COUNTERS:
            self._patch(modname, attr, name, self._counted)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _patch(self, modname: str, attr: str, name: str, wrap) -> None:
        module = importlib.import_module(modname)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, wrap(name, original))

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        self._next_id += 1
        span_id = self._next_id
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            took = end - start
            if self._stack:
                self._stack[-1][1] += took
            self.counts[name] += 1
            self.total_s[name] += took
            self.self_s[name] += took - frame[1]
            self.spans.append((span_id, parent, self.item, name, start, end))

    def layer_self_s(self, layer: str) -> float:
        return sum(t for name, t in self.self_s.items()
                   if name.split(".", 1)[0] == layer)

    def write_spans(self, path: str) -> None:
        """One JSON object per span, in the order the spans ended."""
        with open(path, "w", encoding="ascii") as fh:
            for span_id, parent, item, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "item": item,
                                     "name": name, "start": start, "end": end}))
                fh.write("\n")
