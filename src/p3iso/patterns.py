"""Pattern detection: 3-path copies, induced k-cycles, small-graph isomorphism.

The 3-vertex path P3 is the one pattern this package isolates, so no
function here takes a pattern argument: ``contains_copy`` finds a subgraph
copy of P3 (extra edges among the three vertices are fine); induced
matching is used for induced cycles. The
canonical labeling (``canonical_data``, an exhaustive search over the
color-refinement partition in the spirit of McKay and Piperno's
"Practical graph isomorphism II", 2014) lives here and decides every
isomorphism question: ``catalog_match``, ``is_isomorphic`` (also with
pinned vertices) and the canonical augmentation in ``enumeration``. Every
witness (copy, induced cycle, isomorphism) is a plain vertex tuple, and
all operations are pure.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from .graphcore import Graph, bit_indices


# -- 3-path copies -------------------------------------------------------------

# The name of the one isolated pattern, the 3-vertex path.
P3 = "p3"


def _find_p3(g: Graph, alive: int) -> tuple[int, int, int] | None:
    """A path a-c-b inside ``alive``, centered on a max-degree vertex.

    The center is a maximum-residual-degree vertex, smallest label on ties;
    its two smallest alive neighbors are the ends.
    """
    rows = g.rows
    best = -1
    best_deg = 1
    rest = alive
    while rest:
        low = rest & -rest
        rest ^= low
        c = low.bit_length() - 1
        d = (rows[c] & alive).bit_count()
        if d > best_deg:
            best, best_deg = c, d
    if best < 0:
        return None
    ends = rows[best] & alive
    a = ends & -ends
    ends ^= a
    return (a.bit_length() - 1, best, (ends & -ends).bit_length() - 1)


def contains_copy(g: Graph, within: int) -> tuple[int, int, int] | None:
    """A 3-path a-c-b inside the vertex mask ``within`` of g, as the tuple
    (a, c, b), or None. Extra edges among the three vertices are fine. A
    mask with a bit outside 0..n-1 (or a negative one) raises ValueError.
    """
    if within >> g.n:
        raise ValueError("vertex mask has bits outside the graph")
    return _find_p3(g, within)


# -- induced cycles ------------------------------------------------------------


def has_induced_cycle(g: Graph, k: int,
                      through: int | None = None) -> tuple[int, ...] | None:
    """An induced k-cycle as a vertex tuple in cycle order, or None; with
    ``through``, only a cycle that starts at that vertex, which must lie in
    0..n-1 (else ValueError).

    Depth-first over induced paths a, b, ..., u from the minimum-labeled
    cycle vertex a (or from ``through``), on an explicit stack (no recursion
    at any k), in ascending neighbor order. b and the closing vertex u are
    both neighbors of a (its ends), the vertices in between are not, and
    u > b, so each cycle is seen in one direction only. Four prunes cut only
    branches that cannot close a cycle, and they leave the order of the
    rest alone, so the first cycle found (the witness) is the one the
    unpruned walk finds:

    - a start with fewer than two ends is skipped: a cycle needs b and u;
    - the largest end is never b, since u must be an end above b;
    - the closing level offers only the ends above b: the rest fail u > b;
    - the level before it (k >= 4) offers only inner vertices adjacent to
      an end above b, since the others have no closing candidate.
    """
    if k < 3:
        raise ValueError("cycle length must be >= 3")
    if through is not None and not 0 <= through < g.n:
        raise ValueError(f"vertex {through} outside 0..{g.n - 1}")
    if g.n < k:
        return None
    rows = g.rows
    for a in range(g.n) if through is None else (through,):
        # the other cycle vertices are above a, or any but ``through``; the
        # ends among them are where the path starts and closes
        above = rows[a] if through is not None else rows[a] >> (a + 1) << (a + 1)
        if not above & (above - 1):
            continue
        below = (2 << a) - 1 if through is None else 1 << a
        inner = ~(below | rows[a])  # where the path may run in between
        while True:
            low = above & -above
            above ^= low  # now the ends above b
            if not above:
                break
            b = low.bit_length() - 1
            # the successors each stack entry may offer
            level = [inner] * (k - 2)
            level[-1] = above
            if k >= 4:
                near = 0
                for e in bit_indices(above):
                    near |= rows[e]
                level[-2] = inner & near
            # per path vertex: [untried successors, chord ban (neighbors of
            # the earlier path vertices), vertex]; ban and N(a) cover the path
            stack = [[rows[b] & level[0], 0, b]]
            while stack:
                top = stack[-1]
                low = top[0] & -top[0]
                if not low:
                    stack.pop()
                    continue
                top[0] ^= low
                u = low.bit_length() - 1
                depth = len(stack)
                if depth == k - 2:
                    return (a, *(entry[2] for entry in stack), u)
                ban = top[1] | rows[top[2]]
                nxt = rows[u] & level[depth] & ~ban
                if nxt:
                    stack.append([nxt, ban, u])
    return None


# -- isomorphism ----------------------------------------------------------------


@lru_cache(maxsize=1 << 12)
def _neighbors(row: int) -> tuple[int, ...]:
    """The set bits of an adjacency row: a vertex's neighbors, ascending."""
    return tuple(bit_indices(row))


def _color_rounds(g: Graph) -> Iterator[list[int]]:
    """1-dimensional color refinement, round by round: the degrees first,
    then the colors after each round, as small dense ints. The last list
    is the stable partition.

    A round's colors refine the previous ones, so a round in which the
    class count stops growing, or reaches n, ends with an equitable
    partition: another round would return the same dense ranks. A vertex's
    signature is the int c*B^n - sum(B^(n-1-color(u)) for u in N(v)) with
    B = max degree + 1: the sum writes the multiset of neighbor colors as n
    base-B digits, lowest color the most significant, and stays below B^n.
    Equal colors mean equal degrees, so the signatures order the vertices
    as the tuples (c, *sorted neighbor colors) do, and the ranks are the
    same. The signature leads with the previous color, so a round never
    reorders two vertices of different colors.
    """
    nbrs = list(map(_neighbors, g.rows))
    colors = [len(nb) for nb in nbrs]
    yield colors
    n = len(colors)
    base = max(colors, default=0) + 1
    place = [base ** (n - 1 - c) for c in range(n)]
    shift = base ** n
    classes = len(set(colors))
    while True:
        weight = [place[c] for c in colors]
        sigs = [c * shift - sum(map(weight.__getitem__, nb)) for c, nb in zip(colors, nbrs)]
        relabel = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [relabel[s] for s in sigs]
        yield colors
        if len(relabel) in (classes, n):
            return
        classes = len(relabel)


def _refine_colors(g: Graph) -> tuple[int, ...]:
    """The stable partition of ``_color_rounds``."""
    for colors in _color_rounds(g):
        pass
    return tuple(colors)


def canonical_data(g: Graph, colors: tuple[int, ...] | None = None
                   ) -> tuple[tuple, list[tuple[int, ...]]]:
    """(canonical form, all labelings achieving it).

    A labeling is a tuple ``vertex_at`` with vertex_at[pos] = vertex. The
    form is the maximal tuple of adjacency columns over labelings that
    list the refinement color classes in ascending order; the column of
    the vertex at pos has bit pos-1-p set iff it is adjacent to the vertex
    at p < pos. ``colors``, if given, must be ``_refine_colors(g)``; it
    saves refining again.

    One depth-first search over each node's maximal-column candidates, in
    ascending block order, keeps ``best``: the best column sequence so far,
    or its prefix while the first descent under a new best is under way.
    A node whose top column falls below best's there is cut; one whose top
    column rises above it replaces best from that position on and clears
    the labelings; a leaf ties best and adds its labeling. No cut subtree
    holds a maximal labeling, and all of them are reached after the last
    replacement, so they come out in depth-first order.
    """
    n = g.n
    if n == 0:
        return (0, ()), [()]
    if colors is None:
        colors = _refine_colors(g)
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    block_at = []  # block_at[pos]: the color class that fills position pos
    for c in sorted(by_color):
        block_at.extend([by_color[c]] * len(by_color[c]))
    nbrs = list(map(_neighbors, g.rows))
    # col[v]: v's column at the next free position pos, shifted left by
    # n - pos; placing u at p adds 1 << (n-1-p) to each neighbor of u
    col = [0] * n
    best: list[int] = []
    labelings: list[tuple[int, ...]] = []
    vertex_at: list[int] = []

    def search(pos: int, used: int):
        if pos == n:
            labelings.append(tuple(vertex_at))
            return
        top = -1
        for v in block_at[pos]:
            if not (used >> v) & 1 and col[v] > top:
                top = col[v]
        if pos < len(best):
            if top < best[pos]:
                return
            if top > best[pos]:
                del best[pos:]
        if pos == len(best):
            best.append(top)
            labelings.clear()
        bit = 1 << (n - 1 - pos)
        for v in block_at[pos]:
            if (used >> v) & 1 or col[v] != top:
                continue
            for u in nbrs[v]:
                col[u] += bit
            vertex_at.append(v)
            search(pos + 1, used | (1 << v))
            vertex_at.pop()
            for u in nbrs[v]:
                col[u] -= bit

    search(0, 0)
    form = (n, tuple(c >> (n - pos) for pos, c in enumerate(best)))
    return form, labelings


def canonical_form(g: Graph) -> tuple:
    return canonical_data(g)[0]


def is_isomorphic(g: Graph, h: Graph,
                  fixed: dict[int, int] | None = None) -> tuple[int, ...] | None:
    """An isomorphism h -> g as a tuple (entry i: image of h-vertex i), or None.

    One canonical labeling of h paired with each labeling of g gives every
    isomorphism once; the result is the lexicographically smallest that
    sends each h-vertex in ``fixed`` to its given g-vertex (used to pin
    catalog copies to their catalog labels).
    """
    if g.n != h.n or g.edge_count != h.edge_count:
        return None
    form_g, labelings = canonical_data(g)
    form_h, h_labelings = canonical_data(h)
    if form_g != form_h:
        return None
    base = h_labelings[0]
    at = sorted(range(h.n), key=base.__getitem__)  # at[u]: u's position in base
    pins = (fixed or {}).items()
    isos = (tuple(lab[p] for p in at) for lab in labelings)
    return min((m for m in isos if all(m[i] == t for i, t in pins)), default=None)


# -- catalog lookup --------------------------------------------------------------


@lru_cache(maxsize=1)
def _catalog_forms() -> dict[tuple[int, int], dict[tuple, str]]:
    """(order, size) -> {canonical form: catalog id}, over ``catalog()``."""
    from .generators import catalog

    table: dict[tuple[int, int], dict[tuple, str]] = {}
    for e in catalog():
        h = e.graph
        table.setdefault((h.n, h.edge_count), {})[canonical_form(h)] = e.id
    return table


def catalog_match(g: Graph) -> str | None:
    """Which of the 12 exceptional graphs g is a copy of, if any.

    Only a graph whose order and size some catalog graph shares is labeled;
    its canonical form then decides.
    """
    forms = _catalog_forms().get((g.n, g.edge_count))
    return None if forms is None else forms.get(canonical_form(g))
