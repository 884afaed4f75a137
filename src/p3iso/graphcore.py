"""Immutable simple graphs over bitset adjacency rows.

Vertices are 0..n-1 internally; 1-based labels appear only at I/O
boundaries (edge lists, CLI output, catalog documentation). Adjacency is
one Python int per vertex, bit ``u`` of ``rows[v]`` set iff ``vu`` is an
edge. Python ints are a single machine word for n <= 64 and grow
transparently beyond, so small instances get the fast path for free.

Graphs are immutable after construction and safe to share across
workers. Every vertex set passed between functions of the package is an
int bitmask, bit ``v`` set iff v is in the set; an isolating set leaves
the package as a sorted vertex tuple (``solver.Certificate``), and so do
the sets of a constructive trace step. Components are bitmasks from
``split_off``, for a connected mask with some vertices deleted: it
searches from the boundary of the deleted set and stops once one search
is left, so it costs the small side of the split, not the whole mask. Its
answer is exact only when that mask is connected.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the positions of set bits in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """A labeled simple graph: symmetric, irreflexive adjacency on [0, n)."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Iterable[int]):
        if n < 0:
            raise ValueError(f"order must be >= 0, got {n}")
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError(f"need exactly {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {v} has neighbors outside 0..{n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, row in enumerate(rows):
            for u in bit_indices(row):
                if not (rows[u] >> v) & 1:
                    raise ValueError(f"adjacency not symmetric at {v},{u}")
        self._fill(n, rows)

    def _fill(self, n: int, rows: tuple[int, ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _trusted(cls, n: int, rows: Iterable[int]) -> "Graph":
        """A graph from n rows already known to be symmetric, loop-free and
        inside 0..n-1, built without the checks of ``Graph(...)``.

        Only for rows derived from a valid graph or from a decoder that
        has already rejected every invalid pair.
        """
        g = object.__new__(cls)
        g._fill(n, tuple(rows))
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from 0-based vertex pairs, each checked here."""
        if n < 0:
            raise ValueError(f"order must be >= 0, got {n}")
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
        return cls._trusted(n, rows)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, [0] * n)

    # -- basic queries ----------------------------------------------------

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    @property
    def edge_count(self) -> int:
        """The number of edges, counted from the rows on each read."""
        return sum(row.bit_count() for row in self.rows) // 2

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
        return Graph._trusted(self.n, rows)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


# -- mask-level helpers (shared by the solver and the constructive module) --


def closed_mask(g: Graph, mask: int) -> int:
    """Bitmask of N[S] for the vertex bitmask S."""
    rows = g.rows
    out = rest = mask
    while rest:
        low = rest & -rest
        out |= rows[low.bit_length() - 1]
        rest ^= low
    return out


def connected_within(g: Graph, within: int) -> bool:
    """Does ``within`` induce a connected subgraph? The empty set does."""
    rows = g.rows
    comp = frontier = within & -within
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = grow & within & ~comp
        comp |= frontier
    return comp == within


def split_off(g: Graph, mask: int, kill: int) -> list[int]:
    """The components of ``mask & ~kill``, ordered by smallest vertex.

    Precondition: ``mask`` induces a connected subgraph. Then every
    component of the remainder holds a vertex adjacent to ``kill``, so one
    search per such seed, grown a layer at a time in lockstep and merged
    with any search it meets, finds them all. Once at most one search still
    grows, that one is everything the finished searches left: the walk
    costs the small side of the split, not the whole remainder (the
    small-side trick of Even and Shiloach, J. ACM 28(1), 1981).
    """
    rows = g.rows
    rest = mask & ~kill
    if rest == mask:
        return [rest] if rest else []
    seeds = closed_mask(g, mask & kill) & rest
    active = [(1 << s, 1 << s) for s in bit_indices(seeds)]  # (comp, frontier)
    done = []
    while len(active) > 1:
        i = 0
        while i < len(active):
            comp, front = active[i]
            grow = 0
            while front:
                low = front & -front
                grow |= rows[low.bit_length() - 1]
                front ^= low
            grow &= rest & ~comp
            front = grow
            for j in reversed(range(len(active))):
                if active[j][0] & grow:  # never j == i: grow avoids comp
                    met, met_front = active.pop(j)
                    i -= j < i
                    comp |= met
                    front = front & ~met | met_front
            comp |= grow
            if front:
                active[i] = (comp, front)
                i += 1
            else:
                active.pop(i)
                done.append(comp)
    if active:  # the one search left holds all the finished ones did not
        done.append(rest & ~sum(done))
    return sorted(done, key=lambda comp: comp & -comp)


# -- spec-level operations ---------------------------------------------------


def delete_vertices(g: Graph, mask: int) -> tuple[Graph, tuple[int, ...]]:
    """G - S for the vertex bitmask S, as an induced subgraph, plus the old
    label of each new vertex. A mask with a bit outside 0..n-1 (or a
    negative one) raises ValueError.

    The relabeling is stable (it preserves the relative order of the kept
    vertices), so certificates computed on the subgraph can be lifted back.
    """
    if mask >> g.n:
        raise ValueError("vertex mask has bits outside the graph")
    keep_mask = g.full_mask() & ~mask
    keep = list(bit_indices(keep_mask))
    new_of_old = {v: i for i, v in enumerate(keep)}
    rows = []
    for v in keep:
        row = 0
        rest = g.rows[v] & keep_mask
        while rest:
            low = rest & -rest
            row |= 1 << new_of_old[low.bit_length() - 1]
            rest ^= low
        rows.append(row)
    return Graph._trusted(len(keep), rows), tuple(keep)


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


class Record:
    """Base of the package's mutable records: a subclass lists its fields
    in ``__slots__`` and sets them in ``__init__``, and gets a field-wise
    repr and same-type equality; records are unhashable."""

    __slots__ = ()
    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)
