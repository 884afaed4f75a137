"""Exact 3-path isolation numbers via iterative-deepening hitting-set search.

The search is sound because any isolating set must intersect N[V(H)] for
every surviving 3-path H: a vertex outside every such closed neighborhood
leaves H untouched. The first depth that admits a solution is the
isolation number, and the deepening starts at a packing lower bound. The
depth never exceeds ceil(n/3) in practice (an edge-isolating set is also
path-isolating and those stay near n/3); that is a heuristic remark only,
the loop is capped by n and by the caller's budget. This module is search
only: ``check`` rechecks the sets it returns, with code of its own.

One failure memo per ``isolation_number`` call maps an alive mask to the
largest remaining budget proven too small for it, and every deepening
level and lex-min probe shares it, so memory grows with the nodes
visited. The memo does not depend on the prefix D that led to a node: a
surviving 3-path lies in alive = V - N[D], so its closed neighborhood never
meets D, and what is left after adding S is alive - N[S] whatever D was.
"alive cannot be isolated with r more vertices" is thus a fact about
(alive, r) alone. A prune only skips a subtree proven to fail, and the
branch order is fixed, so the first set found is the one an unpruned
depth-first search would find. The depth-first search keeps its own
stack, so a deep search needs no Python recursion.

Two more prunes rest on monotonicity (a subgraph of a P3-free graph is
P3-free): when N[u] & alive lies inside N[w] & alive, w's child alive - N[w]
is a subset of u's, so if w's child fails with r vertices, u's does too.
``find`` drops a hitter u dominated that way by an earlier hitter w of the
same copy (it reaches u only after w's child has failed), and ``lex_min``
skips a candidate dominated by a failed candidate of the same position.
``lex_min``'s witness bound keeps the greedy rule: the last set found holds
the prefix and its next vertex, so no candidate above that vertex is needed.

Each open node carries its hub, the alive vertices with two or more alive
neighbors: only they center a 3-path or offer one to the packing bound, so
one walk over the hub reads both. The hub needs no full rescan. Residual
degrees only fall, so a child's hub lies inside its parent's hub & alive;
the child's walk starts from that mask and drops each vertex left with
fewer than two alive neighbors. Only a root walks all of alive. A node out
of budget fails on any copy, so it looks for one in alive with no walk.

The packing bound walks one list of every offer, ranked once per solve in
ascending (|N[copy]|, center). A center has at most one live offer at any
alive mask, so the live ones come in the order a per-node sort of each
hub vertex's offer would give, and the greedy pass takes the same copies.
Its count only grows along the list, and a node with budget cap fails as
soon as the count exceeds cap, so the walk stops at cap + 1: the capped
bound min(bound, cap + 1) decides every node as the full bound would.
"""

from __future__ import annotations

from collections import namedtuple

from .graphcore import Graph, bit_indices, closed_mask
from .patterns import P3, contains_copy


class Certificate(namedtuple("Certificate", "set value exact graph_order")):
    """An isolating set together with the value it certifies.

    ``set`` is a sorted tuple of distinct vertices of a graph of order
    ``graph_order``. When ``exact`` is true, ``value == len(set)`` and no
    smaller set isolates. A budgeted search that fails returns
    ``exact=False`` with ``value == budget + 1`` ("exceeds budget") and
    the trivially isolating full vertex set ``tuple(range(n))``, so the
    is-isolating invariant holds for every certificate. Upper-bound
    certificates (from closed forms or the constructive algorithm) carry
    ``exact=False`` with ``value == len(set)``.
    """

    __slots__ = ()


# a ranked offer: (N[copy], center bit, the center's ends, the one end that
# must be dead, 0 for the center's best copy)
_Offers = tuple[int, list[tuple[int, int, int, int]]]


def _p3_offers(g: Graph, closed: tuple[int, ...]) -> _Offers:
    """The mask of centers with an offer, and every offer to the packing
    bound in ascending (|N[copy]|, center), bucketed on |N[copy]|.

    ``closed[v]`` is N[v]. A center of degree above 3 offers only the
    copies among the three neighbors that add the fewest vertices to N[c],
    so the offers stay linear in n on dense graphs; in a subcubic graph
    every copy is offered. While all of c's ends are alive, c offers its
    best copy, the smallest by (|N[copy]|, mask of a and b); while one end
    is dead, the copy on the other two (if any). So at any alive mask at
    most one of c's offers is live.
    """
    centers = 0
    buckets: list[list[tuple[int, int, int, int]]] = [[] for _ in range(g.n + 1)]
    for c, row in enumerate(g.rows):
        if row.bit_count() > 3:
            ends = sorted(bit_indices(row),
                          key=lambda a: (closed[a] & ~closed[c]).bit_count())
            row = sum(1 << a for a in ends[:3])
        a = row & -row
        b = (row ^ a) & -(row ^ a)
        if not b:
            continue
        cbit = 1 << c
        centers |= cbit
        hood_a = closed[c] | closed[a.bit_length() - 1]
        hood_b = closed[c] | closed[b.bit_length() - 1]
        d = row ^ a ^ b
        if not d:
            hood = hood_a | hood_b
            buckets[hood.bit_count()].append((hood, cbit, row, 0))
            continue
        hood_d = closed[d.bit_length() - 1]
        top = None
        # the three copies in ascending ends mask, each with the end it
        # lacks: the first smallest is the best
        for hood, need in ((hood_a | hood_b, d), (hood_a | hood_d, b), (hood_b | hood_d, a)):
            size = hood.bit_count()
            buckets[size].append((hood, cbit, row, need))
            if top is None or size < top[0]:
                top = (size, hood)
        buckets[top[0]].append((top[1], cbit, row, 0))
    return centers, [offer for bucket in buckets for offer in bucket]


class _Search:
    """The search state of one ``isolation_number`` call.

    ``failed`` maps an alive mask to the largest remaining budget proven
    too small for it. Every depth and every lex-min probe reads it to skip
    subtrees and records each failure in it.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.closed = tuple(row | (1 << v) for v, row in enumerate(g.rows))
        self.centers, self.ranked = _p3_offers(g, self.closed)
        self.failed: dict[int, int] = {}

    def scan(self, alive: int, near: int, cap: int) -> tuple[int, int, int]:
        """(hub, window, bound) for the alive mask ``alive``, given ``near``,
        a mask of alive vertices that holds every hub vertex.

        ``hub`` is the vertices of ``near`` with two or more alive
        neighbors. ``window`` is alive & N[c] for c the one with the most,
        smallest first on ties. No vertex there beats c, so
        ``contains_copy`` finds alive's copy in it in O(deg c); with an
        empty hub it is 0. ``bound`` greedily packs alive copies with
        pairwise disjoint closed neighborhoods (in all of g), each needing
        its own hitter, and stops once it exceeds ``cap``. It takes, in
        ranked order, each live offer (center alive, exactly its required
        end dead) whose N[copy] misses those taken; small neighborhoods,
        which block few, come first.
        """
        rows = self.g.rows
        center, most = -1, 1
        hub = rest = near
        while rest:
            low = rest & -rest
            rest ^= low
            d = (rows[low.bit_length() - 1] & alive).bit_count()
            if d < 2:
                hub ^= low
            elif d > most:
                center, most = low.bit_length() - 1, d
        dead = ~alive
        count = used = 0
        for hood, cbit, ends, need in self.ranked:
            if cbit & alive and ends & dead == need and not hood & used:
                count += 1
                if count > cap:
                    break
                used |= hood
        return hub, (alive & self.closed[center] if hub else 0), count

    def lower_bound(self) -> int:
        """The packing bound of the whole graph."""
        return self.scan(self.g.full_mask(), self.centers, self.g.n)[2]

    def find(self, k: int, prefix_mask: int = 0) -> int | None:
        """A bitmask D with |D| <= k, prefix_mask <= D, isolating g, or None.

        Depth-first on an explicit stack of open nodes [alive, D,
        remaining, untried hitters, hub]; a node's children add its hitters
        in ascending order, less those an earlier one dominates, and a node
        is recorded as failed once its last child fails.
        """
        g, closed, failed, scan = self.g, self.closed, self.failed, self.scan
        alive = hub = g.full_mask() & ~closed_mask(g, prefix_mask)
        d_mask, remaining = prefix_mask, k - prefix_mask.bit_count()
        stack: list[list[int]] = []
        while True:
            if failed.get(alive, -1) < remaining:
                if remaining:
                    hub, window, bound = scan(alive, hub, remaining)
                else:  # out of budget, so any copy fails the node
                    window, bound = alive, 1
                copy = contains_copy(g, within=window)
                if copy is None:
                    return d_mask
                if remaining >= bound:
                    hood = closed[copy[0]] | closed[copy[1]] | closed[copy[2]]
                    hitters = 0
                    while hood:
                        low = hood & -hood
                        hood ^= low
                        # a dominating w lies in N[x] for each x in N[u] & alive
                        rivals = hitters
                        hit = closed[low.bit_length() - 1] & alive
                        while rivals and hit:
                            x = hit & -hit
                            hit ^= x
                            rivals &= closed[x.bit_length() - 1]
                        if not rivals:
                            hitters |= low
                    stack.append([alive, d_mask, remaining, hitters, hub])
                else:
                    failed[alive] = remaining
            while stack and not stack[-1][3]:
                top = stack.pop()
                failed[top[0]] = top[2]
            if not stack:
                return None
            top = stack[-1]
            low = top[3] & -top[3]
            top[3] ^= low
            alive = top[0] & ~closed[low.bit_length() - 1]
            hub = top[4] & alive
            d_mask, remaining = top[1] | low, top[2] - 1

    def lex_min(self, k: int, witness: int) -> int:
        """Lexicographically smallest isolating set of size k = iota(g),
        given ``witness``, an isolating set of size k.

        Greedy prefix fixing: each position adopts the smallest vertex that
        some isolating set of size k holds with the prefix. The scan stops
        at the witness's next vertex, adopted without a probe; a probe that
        succeeds adopts its vertex, and its set becomes the witness.
        """
        closed = self.closed
        alive = self.g.full_mask()
        prefix = 0
        for _ in range(k):
            above = witness & ~prefix
            stop = (above & -above).bit_length() - 1
            refuted: list[int] = []  # N[u] & alive of each failed candidate u
            for v in range(prefix.bit_length(), stop):
                hit = closed[v] & alive
                if any(not hit & ~earlier for earlier in refuted):
                    continue
                found = self.find(k, prefix | (1 << v))
                if found is not None:
                    witness, stop = found, v
                    break
                refuted.append(hit)
            prefix |= 1 << stop
            alive &= ~closed[stop]
        assert witness == prefix, "every lex-min set is one that find returned"
        return prefix


def isolation_number(g: Graph, fam: str = P3,
                     budget: int | None = None, canonical: bool = True) -> Certificate:
    """The exact 3-path isolation number with a minimum certificate set.

    Iterative deepening over k from the packing lower bound; with
    ``budget`` given, the search stops at k = budget and a failure is
    reported as a first-class "exceeds budget" certificate (exact=False,
    value=budget+1) rather than an error. With ``canonical`` the returned
    minimum set is the lexicographically smallest one. A negative budget
    raises ValueError.

    ``fam`` must be P3, the one isolation family. The slot remains only
    because ``bench/worker.py`` passes P3 positionally; every other caller
    leaves it out.
    """
    if fam != P3:
        raise ValueError(f"unknown family {fam!r}: P3 is the only isolation family")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    cap = g.n if budget is None else min(budget, g.n)
    search = _Search(g)
    for k in range(search.lower_bound(), cap + 1):
        got = search.find(k)
        if got is not None:
            assert got.bit_count() == k, "first feasible depth is the optimum"
            if canonical and k > 0:
                got = search.lex_min(k, got)
            return Certificate(tuple(bit_indices(got)), k, True, g.n)
    assert budget is not None, "unbudgeted search must terminate by k = n"
    return Certificate(tuple(range(g.n)), budget + 1, False, g.n)
