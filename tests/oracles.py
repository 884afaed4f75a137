"""Independent brute-force oracles the test suite checks the library against.

Everything here is deliberately naive: subset scans, permutation scans,
one whole search per component, a from-scratch graph6 encoder, and the
induced-cycle search, canonical labeling and orbit rule as they were
first written (a cycle search without prunes, a whole-prefix column scan
at every search node, a refinement that runs one confirming round, a min
over Aut per attachment set, and an exact search that scans the whole
alive mask at every node), which the faster code must match exactly.
Nothing imports the algorithms under test beyond the Graph value type
itself, except the canonical-deletion reference, which is defined
relative to the library's canonical labeling, the whole-mask search,
which shares the solver's failure memo and ``lex_min`` and replaces
``find``, the packing bound and its per-center offers table, and the
component sum, which solves each component with the solver. The G(n, p)
sampler ``random_general_graph`` draws the tests' general-graph inputs.
"""

from itertools import combinations, permutations

from p3iso.graphcore import Graph, bit_indices, closed_mask, delete_vertices
from p3iso.patterns import contains_copy
from p3iso.solver import Certificate, _Search, isolation_number


def random_general_graph(n: int, p: float, rng) -> Graph:
    """An Erdos-Renyi sample G(n, p) drawn with ``rng``: no degree bound."""
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < p])


def component_masks(g: Graph, within: int | None = None) -> list[int]:
    """Connected-component bitmasks of the subgraph induced on ``within``
    (all of g by default), ordered by smallest vertex: one whole search per
    component, the reference ``graphcore.split_off`` is checked against."""
    remaining = g.full_mask() if within is None else within
    comps = []
    while remaining:
        comp = frontier = remaining & -remaining
        while frontier:
            grow = 0
            for v in bit_indices(frontier):
                grow |= g.rows[v]
            frontier = grow & remaining & ~comp
            comp |= frontier
        comps.append(comp)
        remaining &= ~comp
    return comps


def closed_nbhd_set(g: Graph, vs) -> set[int]:
    out = set(vs)
    for v in vs:
        out.update(bit_indices(g.rows[v]))
    return out


def _induced_edges(g: Graph, keep: set[int]) -> list[tuple[int, int]]:
    return [(u, v) for u, v in g.edges() if u in keep and v in keep]


def has_p3_after(g: Graph, d) -> bool:
    keep = set(range(g.n)) - closed_nbhd_set(g, d)
    deg = {v: 0 for v in keep}
    for u, v in _induced_edges(g, keep):
        deg[u] += 1
        deg[v] += 1
    return any(c >= 2 for c in deg.values())


def brute_iota_p3(g: Graph) -> int:
    """Minimum size of a P3-isolating set by exhaustive subset scan."""
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            if not has_p3_after(g, combo):
                return k
    raise AssertionError("full vertex set always isolates")


def brute_min_isolating_sets(g: Graph, k: int) -> list[tuple[int, ...]]:
    return [c for c in combinations(range(g.n), k) if not has_p3_after(g, c)]


def component_sum_iota(g: Graph) -> Certificate:
    """The isolation number as the sum over components, each solved on
    its own, with the union of their sets in g's labels."""
    total = 0
    bits = 0
    for comp_mask in component_masks(g):
        sub, old_of_new = delete_vertices(g, g.full_mask() & ~comp_mask)
        cert = isolation_number(sub)
        total += cert.value
        for v in cert.set:
            bits |= 1 << old_of_new[v]
    return Certificate(tuple(bit_indices(bits)), total, True, g.n)


def _closed_rows(g: Graph) -> list[int]:
    return [row | (1 << v) for v, row in enumerate(g.rows)]


def reference_first_isolating_set(g: Graph, budget: int | None = None
                                  ) -> tuple[tuple[int, ...], int, bool]:
    """The exact search with no prunes, as (set, value, exact).

    Iterative deepening from k = 0 over a depth-first search that branches
    as the solver does: on the 3-path a-c-b centered on a vertex of largest
    alive degree (smallest label on ties) with its two smallest alive
    neighbors as ends, the children add the vertices of N[{a, c, b}] in
    ascending order. No failure memo, no packing bound and no dominance
    skip, so the first set found is the one the pruned solver must return
    with ``canonical=False``. Past the budget the answer is the
    exceeds-budget certificate (all vertices, budget + 1, not exact).
    """
    closed = _closed_rows(g)

    def copy_in(alive):
        center, most = None, 1
        for c in bit_indices(alive):
            d = (g.rows[c] & alive).bit_count()
            if d > most:
                center, most = c, d
        if center is None:
            return None
        a, b = list(bit_indices(g.rows[center] & alive))[:2]
        return (a, center, b)

    def search(alive, d, remaining):
        copy = copy_in(alive)
        if copy is None:
            return d
        if not remaining:
            return None
        hood = closed[copy[0]] | closed[copy[1]] | closed[copy[2]]
        for u in bit_indices(hood):
            got = search(alive & ~closed[u], d | (1 << u), remaining - 1)
            if got is not None:
                return got
        return None

    cap = g.n if budget is None else min(budget, g.n)
    for k in range(cap + 1):
        got = search((1 << g.n) - 1, 0, k)
        if got is not None:
            return tuple(bit_indices(got)), k, True
    return tuple(range(g.n)), budget + 1, False


def reference_packing_lower_bound(g: Graph, alive: int) -> int:
    """The solver's greedy 3-path packing bound as first written: per alive
    center, a scan of all its copies sorted by (|N[copy]|, ends mask,
    N[copy]) for the first one with both ends alive (a center of degree
    above 3 offers only its three neighbors adding the fewest vertices to
    its N[c]), then a greedy pass in ascending (|N[copy]|, center)."""
    closed = _closed_rows(g)
    taken = []
    for c in bit_indices(alive):
        row = g.rows[c]
        if row.bit_count() > 3:
            ends = sorted(bit_indices(row),
                          key=lambda a: (closed[a] & ~closed[c]).bit_count())
            row = sum(1 << a for a in ends[:3])
        copies = sorted(((closed[c] | closed[a] | closed[b]).bit_count(),
                         (1 << a) | (1 << b), closed[c] | closed[a] | closed[b])
                        for a, b in combinations(bit_indices(row), 2))
        for size, ends, hood in copies:
            if not ends & ~alive:
                taken.append((size, c, hood))
                break
    count = 0
    used = 0
    for _, _, hood in sorted(taken):
        if not hood & used:
            count += 1
            used |= hood
    return count


# offer: (|N[copy]|, center, N[copy]); the table: the mask of centers with
# an offer, per center its ends and best offer, and at 3c + r the offer of
# center c lacking its end of rank r. The solver's table before it ranked
# the offers, kept as it was for the whole-mask search.
def _p3_offers(g: Graph, closed: tuple[int, ...]):
    """Per center c, the 3-paths a-c-b it offers to the packing bound.

    ``closed[v]`` is N[v]. A center of degree above 3 offers only the
    copies among the three neighbors that add the fewest vertices to N[c],
    so the offers stay linear in n on dense graphs; in a subcubic graph
    every copy is offered. While all of c's ends are alive, c offers its
    best copy, the smallest by (|N[copy]|, mask of a and b); while one end
    is dead, the copy on the other two (if any).
    """
    centers = 0
    ends_of, best, lacking = [], [], []
    for c, row in enumerate(g.rows):
        if row.bit_count() > 3:
            ends = sorted(bit_indices(row),
                          key=lambda a: (closed[a] & ~closed[c]).bit_count())
            row = sum(1 << a for a in ends[:3])
        ends_of.append(row)
        copies = []
        while row:
            a = row & -row
            row ^= a
            hood_a = closed[c] | closed[a.bit_length() - 1]
            rest = row
            while rest:
                b = rest & -rest
                rest ^= b
                hood = hood_a | closed[b.bit_length() - 1]
                copies.append((hood.bit_count(), c, hood))
        # in ascending ends mask: the first smallest is the best, and
        # reversed they lack the first, middle and last end
        top = None
        for offer in copies:
            if top is None or offer[0] < top[0]:
                top = offer
        if top is not None:
            centers |= 1 << c
        best.append(top)
        lacking += copies[::-1] if len(copies) == 3 else (None, None, None)
    return centers, ends_of, best, lacking


def _whole_mask_packing_lower_bound(alive: int, offers) -> int:
    """Greedy count of alive 3-paths with pairwise disjoint closed neighborhoods.

    Each copy needs its own hitter in N[copy], so copies whose closed
    neighborhoods (in all of g) are disjoint bound the remaining budget
    from below. Every alive center offers its alive copy with the smallest
    (|N[copy]|, ends mask), read from ``offers`` (``_p3_offers``) by one
    mask test, and the offers are packed in ascending |N[copy]|, smaller
    center first on ties: a small neighborhood blocks few others.
    """
    centers, ends_of, best, lacking = offers
    taken = []
    rest = alive & centers
    while rest:
        low = rest & -rest
        rest ^= low
        c = low.bit_length() - 1
        dead = ends_of[c] & ~alive
        if not dead:
            taken.append(best[c])
        elif not dead & (dead - 1):
            offer = lacking[3 * c + (ends_of[c] & (dead - 1)).bit_count()]
            if offer is not None:
                taken.append(offer)
    taken.sort()
    count = 0
    used = 0
    for _, _, hood in taken:
        if not hood & used:
            count += 1
            used |= hood
    return count


class WholeMaskSearch(_Search):
    """The solver's search before nodes carried their hub masks: each node
    finds its 3-path with ``contains_copy`` over the whole alive mask and
    walks the alive mask again for its packing bound. Swapped in for
    ``solver._Search``, it must give the same certificates, and the same
    number of ``contains_copy`` calls, as the solver.
    """

    def __init__(self, g: Graph):
        super().__init__(g)
        self.offers = _p3_offers(g, self.closed)

    def lower_bound(self) -> int:
        """The packing bound of the whole graph."""
        return _whole_mask_packing_lower_bound(self.g.full_mask(), self.offers)

    def find(self, k: int, prefix_mask: int = 0) -> int | None:
        """A bitmask D with |D| <= k, prefix_mask <= D, isolating g, or None.

        Depth-first on an explicit stack of open nodes [alive, D,
        remaining, untried hitters]; a node's children add its hitters in
        ascending order, less those an earlier one dominates, and a node
        is recorded as failed once its last child fails.
        """
        g, closed, offers, failed = self.g, self.closed, self.offers, self.failed
        alive = g.full_mask() & ~closed_mask(g, prefix_mask)
        d_mask, remaining = prefix_mask, k - prefix_mask.bit_count()
        stack: list[list[int]] = []
        while True:
            if failed.get(alive, -1) < remaining:
                copy = contains_copy(g, within=alive)
                if copy is None:
                    return d_mask
                if remaining and remaining >= _whole_mask_packing_lower_bound(alive, offers):
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
                    stack.append([alive, d_mask, remaining, hitters])
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
            d_mask, remaining = top[1] | low, top[2] - 1


def brute_has_induced_cycle(g: Graph, k: int) -> bool:
    """k-subset scan: some k vertices induce exactly a k-cycle."""
    for combo in combinations(range(g.n), k):
        keep = set(combo)
        edges = _induced_edges(g, keep)
        if len(edges) != k:
            continue
        deg = {v: 0 for v in combo}
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        if any(d != 2 for d in deg.values()):
            continue
        # connected 2-regular on k vertices = k-cycle
        adj = {v: [] for v in combo}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {combo[0]}
        stack = [combo[0]]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) == k:
            return True
    return False


def reference_has_induced_cycle(g: Graph, k: int,
                                through: int | None = None) -> tuple[int, ...] | None:
    """The induced-cycle search as first written, with no prunes: depth-first
    over induced paths from the minimum-labeled cycle vertex a (or from
    ``through``), in ascending neighbor order, closing only at a neighbor of
    a above the second vertex. The pruned search must return the same
    witness."""
    if k < 3:
        raise ValueError("cycle length must be >= 3")
    if g.n < k:
        return None
    rows = g.rows
    for a in range(g.n) if through is None else (through,):
        others = ~((1 << (a + 1)) - 1) if through is None else ~(1 << a)
        ends = rows[a] & others
        inner = others & ~rows[a]
        for b in bit_indices(ends):
            stack = [[rows[b] & (ends if k == 3 else inner), 0, b]]
            while stack:
                top = stack[-1]
                low = top[0] & -top[0]
                if not low:
                    stack.pop()
                    continue
                top[0] ^= low
                u = low.bit_length() - 1
                if len(stack) < k - 2:
                    ban = top[1] | rows[top[2]]
                    nxt = ends if len(stack) == k - 3 else inner
                    stack.append([rows[u] & nxt & ~ban, ban, u])
                elif u > b:
                    return (a, *(entry[2] for entry in stack), u)
    return None


def brute_is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    g_edges = set(g.edges())
    for perm in permutations(range(h.n)):
        mapped = {tuple(sorted((perm[u], perm[v]))) for u, v in h.edges()}
        if mapped == g_edges:
            return True
    return False


def relabeled_edge_sets(g: Graph) -> set[frozenset]:
    """Edge sets of all n! relabelings of g, edges as (smaller, larger)
    pairs: the labeled members of its isomorphism class. Tiny n only."""
    return {frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges())
            for perm in permutations(range(g.n))}


def _connected_without(g: Graph, v: int) -> bool:
    keep = set(range(g.n)) - {v}
    seen = {min(keep)}
    stack = list(seen)
    while stack:
        u = stack.pop()
        for w in bit_indices(g.rows[u]):
            if w in keep and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == keep


def full_labeling_accepted(g: Graph) -> bool:
    """Canonical-deletion test with a full labeling of every graph: the
    newest vertex n-1 is accepted iff some canonical labeling puts it at
    the last position of a non-cut vertex."""
    from p3iso.enumeration import canonical_data

    if g.n == 1:
        return True
    _, labelings = canonical_data(g)
    base_pos = {v: i for i, v in enumerate(labelings[0])}
    pstar = max(base_pos[u] for u in range(g.n) if _connected_without(g, u))
    return any(lab[pstar] == g.n - 1 for lab in labelings)


def all_graphs(n: int):
    """Every labeled graph on n vertices (2^(n(n-1)/2) of them)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        yield Graph.from_edges(n, edges)


def encode_graph6_reference(g: Graph) -> str:
    """Reference graph6 encoder written directly from the format definition."""
    if g.n <= 62:
        header = chr(g.n + 63)
    elif g.n <= 258047:
        header = "~" + "".join(chr(((g.n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        header = "~~" + "".join(chr(((g.n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    bits = []
    for j in range(g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    chunks = [bits[i:i + 6] for i in range(0, len(bits), 6)]
    body = "".join(chr(sum(b << (5 - i) for i, b in enumerate(ch)) + 63) for ch in chunks)
    return header + body


def reference_refine_colors(g: Graph) -> tuple[int, ...]:
    """1-dimensional color refinement; colors are small dense ints."""
    colors = [g.degree(v) for v in range(g.n)]
    while True:
        sigs = []
        for v in range(g.n):
            nbr = sorted(colors[u] for u in bit_indices(g.rows[v]))
            sigs.append((colors[v], tuple(nbr)))
        relabel = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [relabel[s] for s in sigs]
        if new == colors:
            return tuple(new)
        colors = new


def reference_canonical_data(g: Graph, colors: tuple[int, ...] | None = None
                             ) -> tuple[tuple, list[tuple[int, ...]]]:
    """(canonical form, all labelings achieving it).

    A labeling is a tuple ``vertex_at`` with vertex_at[pos] = vertex. The
    form is the maximal tuple of adjacency columns over labelings that
    list the refinement color classes in ascending order. ``colors``, if
    given, must be ``reference_refine_colors(g)``; it saves refining again.
    """
    n = g.n
    if n == 0:
        return (0, ()), [()]
    if colors is None:
        colors = reference_refine_colors(g)
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


def reference_augmentations(g: Graph, auts: list[tuple[int, ...]]):
    """One child per Aut(g)-orbit of attachment sets, each set tested by
    its orbit's minimum image."""
    low = [v for v in range(g.n) if g.degree(v) < 3]
    seen = set()
    for k in range(1, 4):
        for sub in combinations(low, k):
            rep = min(tuple(sorted(a[s] for s in sub)) for a in auts)
            if rep in seen:
                continue
            seen.add(rep)
            rows = list(g.rows) + [0]
            for s in sub:
                rows[s] |= 1 << g.n
                rows[g.n] |= 1 << s
            yield Graph(g.n + 1, rows)
