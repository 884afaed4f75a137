"""Immutable simple graphs over bitset adjacency rows.

Vertices are 0..n-1 internally; 1-based labels appear only at I/O
boundaries (edge lists, CLI output, catalog documentation). Adjacency is
one Python int per vertex, bit ``u`` of ``rows[v]`` set iff ``vu`` is an
edge. Python ints are a single machine word for n <= 64 and grow
transparently beyond, so small instances get the fast path for free.

Graphs and vertex sets are immutable after construction and safe to share
across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the positions of set bits in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """A labeled simple graph: symmetric, irreflexive adjacency on [0, n)."""

    __slots__ = ("n", "rows", "edge_count")

    def __init__(self, n: int, rows: Iterable[int]):
        rows = tuple(rows)
        if n < 0 or len(rows) != n:
            raise ValueError(f"need exactly {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        degsum = 0
        for v, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {v} has neighbors outside 0..{n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
            degsum += row.bit_count()
        for v, row in enumerate(rows):
            for u in bit_indices(row):
                if not (rows[u] >> v) & 1:
                    raise ValueError(f"adjacency not symmetric at {v},{u}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "edge_count", degsum // 2)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from 0-based vertex pairs."""
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u},{v} out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if (rows[u] >> v) & 1:
                raise ValueError(f"duplicate edge {u},{v}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, [0] * n)

    # -- basic queries ----------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bit_indices(self.rows[v]))

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.rows)

    def max_degree(self) -> int:
        return max((row.bit_count() for row in self.rows), default=0)

    def min_degree(self) -> int:
        return min((row.bit_count() for row in self.rows), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for v, row in enumerate(self.rows):
            for u in bit_indices(row >> (v + 1)):
                yield (v, v + 1 + u)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def with_edge(self, u: int, v: int) -> "Graph":
        """A copy with one extra edge."""
        if u == v or self.has_edge(u, v):
            raise ValueError(f"cannot add edge {u},{v}")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, rows)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


@dataclass(frozen=True)
class VertexSet:
    """A subset of the vertices of a graph of a given order."""

    bits: int
    graph_order: int

    def __post_init__(self):
        if self.graph_order < 0:
            raise ValueError("negative graph order")
        if self.bits < 0 or self.bits >> self.graph_order:
            raise ValueError("vertex set has members outside the graph")

    @classmethod
    def of(cls, graph_order: int, vertices: Iterable[int]) -> "VertexSet":
        bits = 0
        for v in vertices:
            if not 0 <= v < graph_order:
                raise ValueError(f"vertex {v} outside 0..{graph_order - 1}")
            bits |= 1 << v
        return cls(bits, graph_order)

    @classmethod
    def empty(cls, graph_order: int) -> "VertexSet":
        return cls(0, graph_order)

    @classmethod
    def full(cls, graph_order: int) -> "VertexSet":
        return cls((1 << graph_order) - 1, graph_order)

    def _check(self, other: "VertexSet") -> None:
        if self.graph_order != other.graph_order:
            raise ValueError("vertex sets belong to graphs of different order")

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.bits | other.bits, self.graph_order)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.bits & other.bits, self.graph_order)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.bits & ~other.bits, self.graph_order)

    def complement(self) -> "VertexSet":
        return VertexSet(~self.bits & ((1 << self.graph_order) - 1), self.graph_order)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        return bit_indices(self.bits)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.graph_order and bool((self.bits >> v) & 1)

    def __le__(self, other: "VertexSet") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def to_tuple(self) -> tuple[int, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"VertexSet({{{', '.join(map(str, self))}}}, order={self.graph_order})"


@dataclass(frozen=True)
class ComponentPartition:
    """The components of a graph, with the ones containing a 3-path flagged.

    A component contains a 3-path exactly when some vertex has degree >= 2
    inside it; ``p3_components`` holds the indices of those components.
    """

    components: tuple[VertexSet, ...]
    p3_components: tuple[int, ...]


# -- mask-level helpers (shared by the solver and the constructive module) --


def closed_mask(g: Graph, mask: int) -> int:
    """Bitmask of N[S] for the vertex bitmask S."""
    out = mask
    for v in bit_indices(mask):
        out |= g.rows[v]
    return out


def _reach(g: Graph, seed: int, within: int) -> int:
    """The vertices of ``within`` reachable from ``seed`` inside ``within``."""
    comp = frontier = seed
    while frontier:
        grow = 0
        for v in bit_indices(frontier):
            grow |= g.rows[v]
        frontier = grow & within & ~comp
        comp |= frontier
    return comp


def component_masks(g: Graph, within: int | None = None) -> list[int]:
    """Connected-component bitmasks of the subgraph induced on ``within``.

    Components are ordered by their smallest vertex.
    """
    remaining = g.full_mask() if within is None else within
    comps = []
    while remaining:
        comp = _reach(g, remaining & -remaining, remaining)
        comps.append(comp)
        remaining &= ~comp
    return comps


def connected_within(g: Graph, within: int) -> bool:
    return within == 0 or _reach(g, within & -within, within) == within


# -- spec-level operations ---------------------------------------------------


def _coerce_mask(g: Graph, s) -> int:
    if isinstance(s, VertexSet):
        if s.graph_order != g.n:
            raise ValueError("vertex set does not belong to this graph")
        return s.bits
    return VertexSet.of(g.n, s).bits


def closed_neighborhood(g: Graph, s) -> VertexSet:
    """N[S]: S together with every vertex adjacent to S."""
    return VertexSet(closed_mask(g, _coerce_mask(g, s)), g.n)


def delete_vertices(g: Graph, s) -> tuple[Graph, tuple[int, ...]]:
    """G - S as an induced subgraph, plus the old label of each new vertex.

    The relabeling is stable (it preserves the relative order of the kept
    vertices), so certificates computed on the subgraph can be lifted back.
    """
    keep_mask = g.full_mask() & ~_coerce_mask(g, s)
    keep = list(bit_indices(keep_mask))
    new_of_old = {v: i for i, v in enumerate(keep)}
    rows = []
    for v in keep:
        row = 0
        for u in bit_indices(g.rows[v] & keep_mask):
            row |= 1 << new_of_old[u]
        rows.append(row)
    return Graph(len(keep), rows), tuple(keep)


def delete_closed_neighborhood(g: Graph, s) -> tuple[Graph, tuple[int, ...]]:
    """G - N[S] with the same relabeling contract as delete_vertices."""
    return delete_vertices(g, VertexSet(closed_mask(g, _coerce_mask(g, s)), g.n))


def components(g: Graph) -> ComponentPartition:
    comps = tuple(VertexSet(m, g.n) for m in component_masks(g))
    flagged = tuple(
        i for i, c in enumerate(comps)
        if any((g.rows[v] & c.bits).bit_count() >= 2 for v in c)
    )
    return ComponentPartition(comps, flagged)


def distance(g: Graph, u: int, v: int) -> int | float:
    """BFS distance between u and v; math.inf across components."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("vertex out of range")
    if u == v:
        return 0
    seen = 1 << u
    frontier = seen
    d = 0
    while frontier:
        d += 1
        grow = 0
        for w in bit_indices(frontier):
            grow |= g.rows[w]
        grow &= ~seen
        if (grow >> v) & 1:
            return d
        seen |= grow
        frontier = grow
    return float("inf")


def is_connected(g: Graph) -> bool:
    return connected_within(g, g.full_mask())
