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

Most children are decided without a labeling, by three rules. Refinement
colors start as degrees, and labelings list the color blocks in
ascending order, so the canonical deletion has the top color among
non-cut vertices.

- Doomed sets (``_augmentations``). A non-cut vertex v of the parent stays
  non-cut in the child unless the attachment set S is {v}, and its degree
  never falls. So for |S| = k, a non-cut parent vertex of degree > k
  outranks the newest vertex in every child but the one with S = {v}, and
  one of degree k inside S does when k >= 2. Such children would be
  rejected; they are never built. The rule reads only degrees and cut
  vertices, so it dooms whole Aut(parent)-orbits, and the first set of
  every other orbit, hence every emitted graph, stays the same.
- Decisions within refinement rounds (``_accepted``). A round's signature
  leads with the previous color, so a round never reorders two vertices of
  different colors: an order seen after any round holds in the stable
  partition. The degrees count as the first round. A non-cut vertex
  colored above the newest vertex rejects the child at once, and the
  newest vertex alone in its top class accepts it; only a tie that lasts
  to the stable partition goes on.
- Twin ties (``_accepted``). A rival with the newest vertex's neighbors,
  apart from each other, is its twin, and swapping the two is an
  automorphism. When every non-cut rival is a twin, all of them share the
  newest vertex's orbit, so it shares the orbit of the vertex at the
  canonical position, and the child is accepted without a labeling.

Only the rest is labeled, and the labelings of an accepted child also give
its automorphism group.

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
from .patterns import _color_rounds, canonical_data, has_induced_cycle

MAX_DEGREE = 3


def _no_induced_c6(g: Graph) -> bool:
    """The walk's filter: does g have no induced 6-cycle through its newest
    vertex n-1? Having no induced 6-cycle is closed under induced
    subgraphs, so a graph that fails has no passing descendant and its
    subtree is pruned. The filtered walk grows only graphs that pass, so it
    tests a candidate child before its canonical-deletion test, and only
    for cycles through n-1: the rest of the child is its parent, which
    passed."""
    return has_induced_cycle(g, 6, through=g.n - 1) is None


class EnumSpec(namedtuple("EnumSpec", "max_n no_induced_c6 shard")):
    """Connected subcubic graphs of orders 1..max_n, only those without an
    induced 6-cycle if ``no_induced_c6``, in shard ``res`` of ``mod`` (all
    of them by default)."""

    __slots__ = ()

    def __new__(cls, max_n: int, no_induced_c6: bool = False,
                shard: tuple[int, int] = (0, 1)):
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        if not 0 <= shard[0] < shard[1]:
            raise ValueError(f"shard (res, mod) = {shard}: need 0 <= res < mod")
        return super().__new__(cls, max_n, no_induced_c6, shard)


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
    vertex, has the top color among non-cut vertices. n-1 is never a cut
    vertex: g - (n-1) is the connected parent. The rivals of n-1 are the
    other vertices of its color; a cut vertex among them is dropped once
    it matters (a leaf is never one). Each round is decided as the module
    docstring says.
    """
    rows = g.rows
    last = g.n - 1
    full = g.full_mask()
    d = rows[last].bit_count()

    def noncut(v: int) -> bool:
        return rows[v].bit_count() == 1 or connected_within(g, full & ~(1 << v))

    rivals = [v for v in range(last) if rows[v].bit_count() >= d]
    for colors in _color_rounds(g):
        top = colors[last]
        tied = []
        for v in rivals:
            if colors[v] > top:
                if noncut(v):  # outranks n-1 in every later round
                    return False, None
            elif colors[v] == top:
                tied.append(v)
        if not tied:  # n-1 alone on top in every later round
            return True, None
        rivals = tied
    rivals = [v for v in rivals if noncut(v)]
    # n-1 alone in the top class sits at p* in every labeling, and so does
    # a vertex of its orbit when every rival is its twin
    own = rows[last]
    if all(rows[v] & ~(1 << last) == own & ~(1 << v) for v in rivals):
        return True, None
    # otherwise n-1 must share an orbit with the vertex at p*
    _, labelings = canonical_data(g, tuple(colors))
    rivals.append(last)
    pstar = max(labelings[0].index(v) for v in rivals)
    if any(lab[pstar] == last for lab in labelings):
        return True, labelings
    return False, None


def _augmentations(g: Graph, auts: list[tuple[int, ...]]) -> Iterator[Graph]:
    """One child per Aut(g)-orbit of attachment sets for a new vertex: the
    first set of each orbit in combinations order. Doomed sets (see the
    module docstring) are never built."""
    n = g.n
    rows = g.rows
    full = g.full_mask()
    # noncut[d]: the mask of g's non-cut vertices of degree d >= 2; a
    # non-cut vertex of degree 3 dooms every set of size 1 or 2, and then
    # the degree-2 ones no longer matter
    noncut = [0] * (MAX_DEGREE + 1)
    for d in (3, 2):
        if noncut[3]:
            break
        for v in range(n):
            if rows[v].bit_count() == d and connected_within(g, full & ~(1 << v)):
                noncut[d] |= 1 << v
    low = [v for v in range(n) if rows[v].bit_count() < MAX_DEGREE]
    seen: set[tuple[int, ...]] = set()  # the orbits of the sets tried
    for k in range(1, MAX_DEGREE + 1):
        above = sum(noncut[k + 1:])  # non-cut, degree > k; the masks are disjoint
        if k == 1 and above:
            pool = [v for v in low if above == 1 << v]  # S = {v} or doomed
        elif above:
            continue
        else:
            pool = [v for v in low if not noncut[k] >> v & 1]
        for sub in combinations(pool, k):
            if sub in seen:
                continue
            seen.update(tuple(sorted([a[s] for s in sub])) for a in auts)
            child = list(rows) + [0]
            for s in sub:
                child[s] |= 1 << n
                child[n] |= 1 << s
            yield Graph._trusted(n + 1, child)


def _children(g: Graph, labelings: list[tuple[int, ...]] | None, no_induced_c6: bool
              ) -> Iterator[tuple[Graph, list[tuple[int, ...]] | None]]:
    """Accepted children of g, only those without an induced 6-cycle if
    ``no_induced_c6``, with their labelings, if _accepted made any.
    ``labelings`` are g's own, or None to label g here."""
    auts = automorphisms(g) if labelings is None else _automorphisms_of(labelings)
    for child in _augmentations(g, auts):
        if no_induced_c6 and not _no_induced_c6(child):
            continue
        accepted, child_labelings = _accepted(child)
        if accepted:
            yield child, child_labelings


def iter_subcubic(spec: EnumSpec) -> Iterator[Graph]:
    """The isomorphism classes of orders 1..max_n in the spec's shard,
    depth-first. In the filtered walk a graph with an induced 6-cycle
    prunes its subtree; the order-1 root has none."""
    res, mod = spec.shard
    # deeper splits balance the shards; every shard repeats the walk above
    split = max(1, spec.max_n - 2)
    at_split = count()

    def walk(g: Graph, labelings: list[tuple[int, ...]] | None) -> Iterator[Graph]:
        if g.n == split and next(at_split) % mod != res:
            return  # another shard's subtree
        if res == 0 or g.n >= split:
            yield g
        if g.n < spec.max_n:
            for child, child_labelings in _children(g, labelings, spec.no_induced_c6):
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
