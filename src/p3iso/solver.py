"""Exact isolation numbers via iterative-deepening hitting-set search.

The search is sound because any isolating set must intersect N[V(H)] for
every surviving family copy H: a vertex outside every such closed
neighborhood leaves H untouched. Iterative deepening keeps memory at O(k)
and proves minimality for free: the first depth that admits a solution is
the isolation number. For the 3-path family the depth never exceeds
ceil(n/3) in practice (an edge-isolating set is also path-isolating and
those stay near n/3); that is a heuristic remark only, the loop is capped
by n and by the caller's budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphcore import (Graph, VertexSet, _coerce_mask, bit_indices,
                        closed_mask, component_masks, delete_vertices)
from .patterns import P3, IsolationFamily, contains_copy


@dataclass(frozen=True)
class Certificate:
    """An isolating set together with the value it certifies.

    When ``exact`` is true, ``value == len(set)`` and no smaller set
    isolates. A budgeted search that fails returns ``exact=False`` with
    ``value == budget + 1`` ("exceeds budget") and the trivially isolating
    full vertex set, so the is-isolating invariant holds for every
    certificate. Upper-bound certificates (from closed forms or the
    constructive algorithm) carry ``exact=False`` with ``value == len(set)``.
    """

    set: VertexSet
    value: int
    exact: bool
    family: IsolationFamily = P3


def is_isolating(g: Graph, fam: IsolationFamily, d) -> bool:
    """True iff G - N[D] contains no copy of a family member."""
    alive = g.full_mask() & ~closed_mask(g, _coerce_mask(g, d))
    return contains_copy(g, fam, within=VertexSet(alive, g.n)) is None


def _packing_lower_bound(g: Graph, alive: int) -> int:
    """Greedy count of 3-paths with pairwise disjoint closed neighborhoods.

    Copies whose closed neighborhoods are disjoint need distinct hitters,
    so this is a valid lower bound on the remaining budget. Only the P3
    search uses it: for any other family the copy just found bounds the
    budget by 1, and the remaining budget is at least 1 by then.
    """
    count = 0
    used = 0
    for c in bit_indices(alive):
        if (1 << c) & used:
            continue
        nbrs = g.rows[c] & alive
        if nbrs.bit_count() < 2:
            continue
        it = bit_indices(nbrs)
        a = next(it)
        b = next(it)
        copy_mask = (1 << a) | (1 << b) | (1 << c)
        hood = closed_mask(g, copy_mask)
        if hood & used:
            continue
        count += 1
        used |= hood
    return count


def _search(g: Graph, fam: IsolationFamily, k: int, prefix_mask: int = 0) -> int | None:
    """A bitmask D with |D| <= k, prefix_mask <= D, isolating g, or None."""
    full = g.full_mask()
    packing = fam == P3
    seen: set[int] = set()

    def dfs(d_mask: int, depth: int) -> int | None:
        alive = full & ~closed_mask(g, d_mask)
        copy = contains_copy(g, fam, within=VertexSet(alive, g.n))
        if copy is None:
            return d_mask
        remaining = k - depth
        if remaining == 0:
            return None
        if packing and remaining < _packing_lower_bound(g, alive):
            return None
        copy_mask = 0
        for v in copy.mapping:
            copy_mask |= 1 << v
        for u in bit_indices(closed_mask(g, copy_mask) & ~d_mask):
            nd = d_mask | (1 << u)
            if nd in seen:
                continue
            seen.add(nd)
            got = dfs(nd, depth + 1)
            if got is not None:
                return got
        return None

    return dfs(prefix_mask, prefix_mask.bit_count())


def _lex_min_solution(g: Graph, fam: IsolationFamily, k: int) -> int:
    """Lexicographically smallest isolating set of size k = iota(g, fam).

    Greedy prefix fixing: a vertex is adopted, in ascending order, whenever
    some isolating completion within the size budget still contains it.
    """
    prefix = 0
    size = 0
    start = 0
    while size < k:
        for v in range(start, g.n):
            if _search(g, fam, k, prefix_mask=prefix | (1 << v)) is not None:
                prefix |= 1 << v
                size += 1
                start = v + 1
                break
        else:
            raise AssertionError("lex-min completion must exist at the optimum")
    return prefix


def isolation_number(g: Graph, fam: IsolationFamily = P3,
                     budget: int | None = None, canonical: bool = True) -> Certificate:
    """The exact isolation number with a minimum certificate set.

    Iterative deepening over k = 0, 1, ...; with ``budget`` given, the
    search stops at k = budget and a failure is reported as a first-class
    "exceeds budget" certificate (exact=False, value=budget+1) rather than
    an error. With ``canonical`` the returned minimum set is the
    lexicographically smallest one.
    """
    cap = g.n if budget is None else min(budget, g.n)
    for k in range(cap + 1):
        got = _search(g, fam, k)
        if got is not None:
            assert got.bit_count() == k, "first feasible depth is the optimum"
            if canonical and k > 0:
                got = _lex_min_solution(g, fam, k)
            return Certificate(VertexSet(got, g.n), k, True, fam)
    assert budget is not None, "unbudgeted search must terminate by k = n"
    return Certificate(VertexSet.full(g.n), budget + 1, False, fam)


def isolation_number_additive(g: Graph, fam: IsolationFamily = P3) -> Certificate:
    """Isolation number as the sum over components (solved independently)."""
    total = 0
    bits = 0
    for comp_mask in component_masks(g):
        keep = VertexSet(comp_mask, g.n)
        sub, old_of_new = delete_vertices(g, keep.complement())
        cert = isolation_number(sub, fam)
        total += cert.value
        for v in cert.set:
            bits |= 1 << old_of_new[v]
    return Certificate(VertexSet(bits, g.n), total, True, fam)
