"""Isomorph-free generation of small connected subcubic graphs by vertex
augmentation with canonical-deletion rejection.

The canonical form is the lexicographically maximal adjacency bit-string
(upper triangle, column-major) over permutations compatible with the
color-refinement partition. A generated graph is kept iff its newest
vertex lies in the automorphism orbit of the canonical deletion choice:
the vertex in the last canonical position among those whose removal keeps
the graph connected. Attachment sets are tried once per Aut(parent)-orbit,
so each isomorphism class is constructed exactly once.

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
from .graph_io import emit_graph6, parse_graph6
from .patterns import _refine_colors, has_induced_cycle

MAX_DEGREE = 3

# Filter ids. Every filter is closed under induced subgraphs, so a graph
# that fails one has no passing descendant and its subtree is pruned.
_HEREDITARY_FILTERS = {
    "no-induced-c6": lambda g: has_induced_cycle(g, 6) is None,
}

# With jobs > 1, subtrees rooted at this order are the parallel work units.
_SPLIT_ORDER = 6


@dataclass(frozen=True)
class EnumSpec:
    """Connected subcubic graphs of orders 1..max_n, optionally restricted by
    a filter id."""

    max_n: int
    filter: str | None = None

    def __post_init__(self):
        if self.max_n < 1:
            raise ValueError("max_n must be >= 1")
        if self.filter is not None and self.filter not in _HEREDITARY_FILTERS:
            raise ValueError(f"unknown filter id {self.filter!r}")


@dataclass
class EnumSummary:
    emitted_by_order: dict[int, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.emitted_by_order.values())


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
    full = g.full_mask()
    return [v for v in range(g.n) if connected_within(g, full & ~(1 << v))]


def _accepted(g: Graph) -> bool:
    """Canonical-deletion test: is the newest vertex (n-1) the right one to remove?"""
    if g.n == 1:
        return True
    _, labelings = canonical_data(g)
    base_pos = {v: i for i, v in enumerate(labelings[0])}
    pstar = max(base_pos[u] for u in _noncut_vertices(g))
    last = g.n - 1
    return any(lab[pstar] == last for lab in labelings)


def _children(g: Graph) -> Iterator[Graph]:
    low = [v for v in range(g.n) if g.degree(v) < MAX_DEGREE]
    auts = automorphisms(g)
    seen: set[tuple[int, ...]] = set()
    for k in range(1, MAX_DEGREE + 1):
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
            if _accepted(child):
                yield child


def _walk(g: Graph, max_n: int, filter_id: str | None) -> Iterator[Graph]:
    """g if it passes the filter, then its accepted descendants of order at
    most max_n, depth-first. A failing graph prunes its subtree."""
    if filter_id is not None and not _HEREDITARY_FILTERS[filter_id](g):
        return
    yield g
    if g.n < max_n:
        for child in _children(g):
            yield from _walk(child, max_n, filter_id)


def iter_subcubic(spec: EnumSpec) -> Iterator[Graph]:
    """All isomorphism classes of orders 1..max_n, depth-first."""
    return _walk(Graph.empty(1), spec.max_n, spec.filter)


def _worker_descendants(args: tuple[str, int, str | None]) -> list[str]:
    """graph6 lines of the descendants of one seed, without the seed itself."""
    seed_g6, max_n, filter_id = args
    walk = _walk(parse_graph6(seed_g6), max_n, filter_id)
    next(walk)  # the seed passed the filter and was delivered by the caller
    return [emit_graph6(g) for g in walk]


def enumerate_connected_subcubic(spec: EnumSpec,
                                 sink: Callable[[Graph], None] | None = None,
                                 jobs: int = 1) -> EnumSummary:
    """Drive every enumerated graph through ``sink``; return per-order counts.

    With jobs > 1 the walk up to order 6 runs here, and the subtree under
    each order-6 graph is a work unit for a process pool. The sink always
    runs in the calling process, in a deterministic order: the small orders
    first, then the subtrees sorted by the graph6 line of their root.
    """
    summary = EnumSummary()

    def deliver(g: Graph) -> None:
        summary.emitted_by_order[g.n] = summary.emitted_by_order.get(g.n, 0) + 1
        if sink:
            sink(g)

    if jobs <= 1 or spec.max_n <= _SPLIT_ORDER:
        for g in iter_subcubic(spec):
            deliver(g)
        return summary

    seeds: list[str] = []
    for g in _walk(Graph.empty(1), _SPLIT_ORDER, spec.filter):
        deliver(g)
        if g.n == _SPLIT_ORDER:
            seeds.append(emit_graph6(g))
    args = [(s, spec.max_n, spec.filter) for s in sorted(seeds)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for lines in pool.map(_worker_descendants, args):
            for line in lines:
                deliver(parse_graph6(line))
    return summary
