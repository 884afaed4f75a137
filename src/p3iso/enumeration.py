"""Isomorph-free generation of small subcubic graphs by vertex augmentation
with canonical-deletion rejection, plus graph6 stream ingestion.

The canonical form is the lexicographically maximal adjacency bit-string
(upper triangle, column-major) over permutations compatible with the
color-refinement partition. A generated graph is kept iff its newest
vertex lies in the automorphism orbit of the canonical deletion choice:
the vertex in the last canonical position among those whose removal keeps
the graph connected (all vertices, in the disconnected variant).
Attachment sets are tried once per Aut(parent)-orbit, so each isomorphism
class is constructed exactly once.

Practical exhaustive range is max_n <= 11; the bound sweep to order 11
takes under twenty seconds, and the tests gate orders 10 and 11 behind the
``extended`` marker.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterator

from .graphcore import Graph, connected_within
from .graph_io import emit_graph6, ingest_graph6_stream, parse_graph6  # noqa: F401
from .patterns import _refine_colors, has_induced_cycle

MAX_DEGREE = 3

_HEREDITARY_FILTERS = {
    "no-induced-c6": lambda g: has_induced_cycle(g, 6) is None,
}


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate. max_degree is fixed at 3 for this module."""

    max_n: int
    connected_only: bool = True
    filter: str | Callable[[Graph], bool] | None = None

    def __post_init__(self):
        if self.max_n < 1:
            raise ValueError("max_n must be >= 1")
        if isinstance(self.filter, str) and self.filter not in _HEREDITARY_FILTERS:
            raise ValueError(f"unknown filter id {self.filter!r}")

    @property
    def max_degree(self) -> int:
        return MAX_DEGREE


@dataclass
class EnumSummary:
    emitted_by_order: dict[int, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.emitted_by_order.values())

    def merge(self, other: "EnumSummary") -> None:
        for n, c in other.emitted_by_order.items():
            self.emitted_by_order[n] = self.emitted_by_order.get(n, 0) + c


# -- canonical form ------------------------------------------------------------


def canonical_data(g: Graph) -> tuple[tuple, list[tuple[int, ...]]]:
    """(canonical form, all labelings achieving it).

    A labeling is a tuple ``vertex_at`` with vertex_at[pos] = vertex. The
    form is the maximal tuple of adjacency columns over labelings that
    list the refinement color classes in a fixed order.
    """
    n = g.n
    if n == 0:
        return (0, ()), [()]
    colors = _refine_colors(g)
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    block_color = []
    for c in sorted(by_color):
        block_color.extend([c] * len(by_color[c]))

    def column(v: int, vertex_at: list[int]) -> int:
        col = 0
        row = g.rows[v]
        for u in vertex_at:
            col = (col << 1) | ((row >> u) & 1)
        return col

    # phase 1: the maximal column sequence. Only maximal-column candidates
    # can extend toward the maximum at each node; mutual false/true twins
    # yield identical subtrees, so one representative suffices here.
    def find_max(pos: int, used: int, vertex_at: list[int]) -> list[int]:
        if pos == n:
            return []
        scored = []
        for v in by_color[block_color[pos]]:
            if not (used >> v) & 1:
                scored.append((column(v, vertex_at), v))
        maxcol = max(col for col, _ in scored)
        best = None
        seen_rows = set()
        for col, v in scored:
            if col != maxcol:
                continue
            open_key = ("o", g.rows[v])
            closed_key = ("c", g.rows[v] | (1 << v))
            if open_key in seen_rows or closed_key in seen_rows:
                continue
            seen_rows.add(open_key)
            seen_rows.add(closed_key)
            vertex_at.append(v)
            suffix = find_max(pos + 1, used | (1 << v), vertex_at)
            vertex_at.pop()
            if best is None or suffix > best:
                best = suffix
        return [maxcol] + best

    best_cols = find_max(0, 0, [])

    # phase 2: every labeling matching the maximal sequence (no twin
    # pruning: completeness feeds the automorphism group).
    labelings: list[tuple[int, ...]] = []

    def collect(pos: int, used: int, vertex_at: list[int]):
        if pos == n:
            labelings.append(tuple(vertex_at))
            return
        for v in by_color[block_color[pos]]:
            if (used >> v) & 1:
                continue
            if column(v, vertex_at) != best_cols[pos]:
                continue
            vertex_at.append(v)
            collect(pos + 1, used | (1 << v), vertex_at)
            vertex_at.pop()

    collect(0, 0, [])
    form = (n, tuple(best_cols))
    return form, labelings


def canonical_form(g: Graph) -> tuple:
    return canonical_data(g)[0]


def automorphisms(g: Graph) -> list[dict[int, int]]:
    """Aut(g) as vertex maps, recovered from the canonical labeling coset."""
    _, labelings = canonical_data(g)
    base = labelings[0]
    auts = []
    for lab in labelings:
        pos_of = {v: i for i, v in enumerate(lab)}
        auts.append({v: base[pos_of[v]] for v in range(g.n)})
    return auts


# -- augmentation --------------------------------------------------------------


def _noncut_vertices(g: Graph) -> list[int]:
    if g.n <= 1:
        return list(range(g.n))
    full = g.full_mask()
    return [v for v in range(g.n) if connected_within(g, full & ~(1 << v))]


def _accepted(g: Graph, connected_only: bool) -> bool:
    """Canonical-deletion test: is the newest vertex (n-1) the right one to remove?"""
    if g.n == 1:
        return True
    _, labelings = canonical_data(g)
    allowed = _noncut_vertices(g) if connected_only else list(range(g.n))
    base_pos = {v: i for i, v in enumerate(labelings[0])}
    pstar = max(base_pos[u] for u in allowed)
    last = g.n - 1
    return any(lab[pstar] == last for lab in labelings)


def _children(g: Graph, connected_only: bool) -> Iterator[Graph]:
    low = [v for v in range(g.n) if g.degree(v) < MAX_DEGREE]
    auts = automorphisms(g)
    seen: set[tuple[int, ...]] = set()
    min_size = 1 if connected_only else 0
    for k in range(min_size, MAX_DEGREE + 1):
        for sub in combinations(low, k):
            rep = min(tuple(sorted(a[s] for s in sub)) for a in auts)
            if rep in seen:
                continue
            seen.add(rep)
            rows = list(g.rows) + [0]
            for s in sub:
                rows[s] |= 1 << g.n
                rows[g.n] |= 1 << s
            child = Graph(g.n + 1, rows)
            if _accepted(child, connected_only):
                yield child


def iter_subcubic(spec: EnumSpec) -> Iterator[Graph]:
    """All isomorphism classes of orders 1..max_n, depth-first."""
    filt, hereditary = _resolve_filter(spec.filter)

    def walk(g: Graph) -> Iterator[Graph]:
        passes = filt(g)
        if passes:
            yield g
        if hereditary and not passes:
            return  # the filtered property is closed under induced subgraphs
        if g.n < spec.max_n:
            for child in _children(g, spec.connected_only):
                yield from walk(child)

    roots = [Graph.empty(1)]
    for root in roots:
        yield from walk(root)


def _resolve_filter(f):
    if f is None:
        return (lambda g: True), False
    if isinstance(f, str):
        return _HEREDITARY_FILTERS[f], True
    return f, False


def _worker_descendants(args) -> tuple[dict[int, int], list[str]]:
    seed_g6, max_n, connected_only, filter_id = args
    seed = parse_graph6(seed_g6)
    spec_filter, hereditary = _resolve_filter(filter_id)
    counts: dict[int, int] = {}
    out: list[str] = []

    def walk(g: Graph):
        passes = spec_filter(g)
        if passes:
            counts[g.n] = counts.get(g.n, 0) + 1
            out.append(emit_graph6(g))
        if hereditary and not passes:
            return
        if g.n < max_n:
            for child in _children(g, connected_only):
                walk(child)

    for child in _children(seed, connected_only):
        walk(child)
    return counts, out


def enumerate_connected_subcubic(spec: EnumSpec,
                                 sink: Callable[[Graph], None] | None = None,
                                 jobs: int = 1,
                                 serialized: bool = True) -> EnumSummary:
    """Drive every enumerated graph through ``sink``; return per-order counts.

    With jobs > 1 the augmentation tree is split into independent subtree
    work units (rooted at the order-6 layer); the sink always runs in the
    calling process, in deterministic order when ``serialized`` (sorted by
    work unit) and in completion order otherwise. Counts merge
    associatively either way.
    """
    summary = EnumSummary()

    def deliver(g: Graph) -> None:
        summary.emitted_by_order[g.n] = summary.emitted_by_order.get(g.n, 0) + 1
        if sink:
            sink(g)

    if jobs <= 1 or spec.max_n <= 6:
        for g in iter_subcubic(spec):
            deliver(g)
        return summary

    split_at = 6
    filt, hereditary = _resolve_filter(spec.filter)
    filter_id = spec.filter if isinstance(spec.filter, str) else None
    post_filter = spec.filter is not None and filter_id is None

    # shallow walk: deliver the small orders here and collect subtree seeds.
    # Only a hereditary (id) filter may prune the walk; a callable filter is
    # applied at delivery so failing seeds still get their subtrees explored.
    seeds: list[str] = []

    def walk_shallow(g: Graph) -> None:
        passes = filt(g)
        if passes:
            deliver(g)
        if hereditary and not passes:
            return
        if g.n < split_at:
            for child in _children(g, spec.connected_only):
                walk_shallow(child)
        else:
            seeds.append(emit_graph6(g))

    walk_shallow(Graph.empty(1))

    args = [(s, spec.max_n, spec.connected_only, filter_id) for s in sorted(seeds)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        if serialized:
            runner = pool.map(_worker_descendants, args)
        else:
            from concurrent.futures import as_completed
            futures = [pool.submit(_worker_descendants, a) for a in args]
            runner = (f.result() for f in as_completed(futures))
        for _, emitted in runner:
            for line in emitted:
                g = parse_graph6(line)
                if not post_filter or filt(g):
                    deliver(g)
    return summary
