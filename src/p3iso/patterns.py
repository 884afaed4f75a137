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

from functools import lru_cache

from .graphcore import Graph, VertexSet, bit_indices


# -- 3-path copies -------------------------------------------------------------

# The name of the one isolated pattern, the 3-vertex path.
P3 = "p3"


def _find_p3(g: Graph, alive: int) -> tuple[int, int, int] | None:
    """A path a-c-b inside ``alive``, centered on a max-degree vertex.

    The center is a maximum-residual-degree vertex, smallest label on ties;
    its two smallest alive neighbors are the ends.
    """
    best = None
    best_deg = 1
    for c in bit_indices(alive):
        d = (g.rows[c] & alive).bit_count()
        if d > best_deg:
            best, best_deg = c, d
    if best is None:
        return None
    it = bit_indices(g.rows[best] & alive)
    a = next(it)
    b = next(it)
    return (a, best, b)


def contains_copy(g: Graph,
                  within: VertexSet | None = None) -> tuple[int, int, int] | None:
    """A 3-path a-c-b inside g (or a subset of g) as the tuple (a, c, b),
    or None. Extra edges among the three vertices are fine.
    """
    alive = g.full_mask() if within is None else within.bits
    if within is not None and within.graph_order != g.n:
        raise ValueError("vertex set does not belong to this graph")
    return _find_p3(g, alive)


# -- induced cycles ------------------------------------------------------------


def has_induced_cycle(g: Graph, k: int) -> tuple[int, ...] | None:
    """An induced k-cycle as a vertex tuple in cycle order, or None.

    Depth-first over induced paths from the minimum-labeled cycle vertex a,
    on an explicit stack (no recursion at any k), in ascending neighbor
    order; the closing vertex must exceed the second one, so each cycle is
    seen in one direction only.
    """
    if k < 3:
        raise ValueError("cycle length must be >= 3")
    if g.n < k:
        return None
    rows = g.rows
    for a in range(g.n):
        higher = ~((1 << (a + 1)) - 1)
        ends = rows[a] & higher  # where the path may start and close
        inner = higher & ~rows[a]  # where it may run in between
        for b in bit_indices(ends):
            # per path vertex: [untried successors, chord ban (neighbors of
            # the earlier path vertices), vertex]; ban and N(a) cover the path
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


# -- isomorphism ----------------------------------------------------------------


def _refine_colors(g: Graph) -> tuple[int, ...]:
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


def canonical_data(g: Graph, colors: tuple[int, ...] | None = None
                   ) -> tuple[tuple, list[tuple[int, ...]]]:
    """(canonical form, all labelings achieving it).

    A labeling is a tuple ``vertex_at`` with vertex_at[pos] = vertex. The
    form is the maximal tuple of adjacency columns over labelings that
    list the refinement color classes in ascending order. ``colors``, if
    given, must be ``_refine_colors(g)``; it saves refining again.
    """
    n = g.n
    if n == 0:
        return (0, ()), [()]
    if colors is None:
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
