"""Isomorph-free generation of small connected subcubic graphs by vertex
augmentation with canonical-deletion rejection.

The canonical labeling is ``patterns.canonical_data``, the one labeling
that decides every isomorphism in the package: the form is the
lexicographically maximal adjacency bit-string (upper triangle,
column-major) over permutations compatible with the color-refinement
partition. ``_accepted`` and ``automorphisms`` look it up as a global of
this module at call time. A generated graph is kept iff its newest vertex
lies in the automorphism orbit of the canonical deletion choice: the
vertex in the last canonical position among those whose removal keeps the
graph connected. Attachment sets are tried once per Aut(parent)-orbit,
so each isomorphism class is constructed exactly once.

Most children are decided without a labeling. Refinement colors start as
degrees and never rank a lower degree above a higher one, and labelings
list the color blocks in ascending order, so the canonical deletion has
the top degree and then the top color among non-cut vertices. A child is
rejected when a non-cut vertex outranks the newest one, and accepted when
no other non-cut vertex shares its color; only the rest is labeled, and
the labelings of an accepted child also give its automorphism group.

A shard ``(res, mod)`` follows the res/mod convention of nauty's geng
(McKay & Piperno, J. Symb. Comput. 60, 2014): it walks down to the split
order S = max(1, max_n - 2), numbers the order-S graphs in walk order and
keeps the subtrees under those whose index is ``res`` mod ``mod``; shard 0
also keeps every graph below order S, and ``(0, 1)`` is the whole walk.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterator
from itertools import combinations, count

from .graphcore import Graph, connected_within
from .patterns import _refine_colors, canonical_data, has_induced_cycle

MAX_DEGREE = 3

# Filter ids. Every filter is closed under induced subgraphs, so a graph
# that fails one has no passing descendant and its subtree is pruned. The
# walk grows only graphs that pass, so a filter tests a candidate child
# before its canonical-deletion test, and only for structures through the
# newest vertex n-1: the rest of the child is its parent, which passed.
_HEREDITARY_FILTERS = {
    "no-induced-c6": lambda g: has_induced_cycle(g, 6, through=g.n - 1) is None,
}


class EnumSpec(namedtuple("EnumSpec", "max_n filter shard")):
    """Connected subcubic graphs of orders 1..max_n, optionally restricted by
    a filter id, in shard ``res`` of ``mod`` (all of them by default)."""

    __slots__ = ()

    def __new__(cls, max_n: int, filter: str | None = None,
                shard: tuple[int, int] = (0, 1)):
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        if filter is not None and filter not in _HEREDITARY_FILTERS:
            raise ValueError(f"unknown filter id {filter!r}")
        if not 0 <= shard[0] < shard[1]:
            raise ValueError(f"shard (res, mod) = {shard}: need 0 <= res < mod")
        return super().__new__(cls, max_n, filter, shard)


# -- automorphisms --------------------------------------------------------------


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Aut(g) as vertex maps (a[v] is the image of v), recovered from the
    canonical labeling coset."""
    return _automorphisms_of(canonical_data(g)[1])


def _automorphisms_of(labelings: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    base = labelings[0]
    auts = []
    for lab in labelings:
        image = [0] * len(base)
        for v, u in zip(lab, base):
            image[v] = u
        auts.append(tuple(image))
    return auts


# -- augmentation --------------------------------------------------------------


def _accepted(g: Graph) -> tuple[bool, list[tuple[int, ...]] | None]:
    """Canonical-deletion test: is the newest vertex (n-1) the right one to
    remove? Returns (accepted, labelings); labelings are canonical_data's,
    or None when the decision needed no labeling.

    The canonical deletion, at the last canonical position p* of a non-cut
    vertex, has the top degree and then the top color among non-cut
    vertices. n-1 is never a cut vertex: g - (n-1) is the connected parent.
    """
    n = g.n
    rows = g.rows
    last = n - 1
    full = g.full_mask()
    d = rows[last].bit_count()
    # 1. a non-cut vertex of higher degree outranks n-1
    for v in range(last):
        if rows[v].bit_count() > d and connected_within(g, full & ~(1 << v)):
            return False, None
    # 2. so does a non-cut vertex of the same degree and a higher color;
    # for d == 1 these are leaves, which are never cut vertices
    colors = _refine_colors(g)
    top = colors[last]
    rivals = []
    for v in range(last):
        if (colors[v] >= top and rows[v].bit_count() == d
                and (d == 1 or connected_within(g, full & ~(1 << v)))):
            if colors[v] > top:
                return False, None
            rivals.append(v)
    # 3. n-1 alone in the top class sits at p* in every labeling
    if not rivals:
        return True, None
    # 4. otherwise n-1 must share an orbit with the vertex at p*
    _, labelings = canonical_data(g, colors)
    rivals.append(last)
    pstar = max(labelings[0].index(v) for v in rivals)
    if any(lab[pstar] == last for lab in labelings):
        return True, labelings
    return False, None


def _augmentations(g: Graph, auts: list[tuple[int, ...]]) -> Iterator[Graph]:
    """One child per Aut(g)-orbit of attachment sets for a new vertex: the
    first set of each orbit in combinations order."""
    low = [v for v in range(g.n) if g.degree(v) < MAX_DEGREE]
    seen: set[tuple[int, ...]] = set()  # the orbits of the sets tried
    for k in range(1, MAX_DEGREE + 1):
        for sub in combinations(low, k):
            if sub in seen:
                continue
            seen.update(tuple(sorted([a[s] for s in sub])) for a in auts)
            rows = list(g.rows) + [0]
            for s in sub:
                rows[s] |= 1 << g.n
                rows[g.n] |= 1 << s
            yield Graph._trusted(g.n + 1, rows)


def _children(g: Graph, labelings: list[tuple[int, ...]] | None,
              keep: Callable[[Graph], bool] | None
              ) -> Iterator[tuple[Graph, list[tuple[int, ...]] | None]]:
    """Accepted children of g that pass ``keep``, with their labelings, if
    _accepted made any. ``labelings`` are g's own, or None to label g here."""
    auts = automorphisms(g) if labelings is None else _automorphisms_of(labelings)
    for child in _augmentations(g, auts):
        if keep is not None and not keep(child):
            continue
        accepted, child_labelings = _accepted(child)
        if accepted:
            yield child, child_labelings


def iter_subcubic(spec: EnumSpec) -> Iterator[Graph]:
    """The isomorphism classes of orders 1..max_n in the spec's shard,
    depth-first. A graph that fails the filter prunes its subtree; the
    order-1 root has no structure to fail it."""
    res, mod = spec.shard
    keep = None if spec.filter is None else _HEREDITARY_FILTERS[spec.filter]
    # deeper splits balance the shards; every shard repeats the walk above
    split = max(1, spec.max_n - 2)
    at_split = count()

    def walk(g: Graph, labelings: list[tuple[int, ...]] | None) -> Iterator[Graph]:
        if g.n == split and next(at_split) % mod != res:
            return  # another shard's subtree
        if res == 0 or g.n >= split:
            yield g
        if g.n < spec.max_n:
            for child, child_labelings in _children(g, labelings, keep):
                yield from walk(child, child_labelings)

    return walk(Graph.empty(1), None)


def enumerate_connected_subcubic(spec: EnumSpec, sink: Callable[[Graph], None] | None = None
                                 ) -> dict[int, int]:
    """Drive every graph of the spec's shard through ``sink``, in walk order;
    return {order: count}."""
    counts: dict[int, int] = {}
    for g in iter_subcubic(spec):
        counts[g.n] = counts.get(g.n, 0) + 1
        if sink:
            sink(g)
    return counts
