"""Pattern detection: family copies, induced k-cycles, small-graph isomorphism.

This is the one module that knows the isolation families (K1, K2, K3,
P3, the k-cycle and any cycle): ``_FINDERS`` holds one copy finder per
family kind, and ``contains_copy`` looks the kind up there. "Contains a
copy" always means subgraph copy (extra edges among the image vertices
are fine); induced matching is used for induced cycles. The
canonical labeling (``canonical_data``, an exhaustive search over the
color-refinement partition in the spirit of McKay and Piperno's
"Practical graph isomorphism II", 2014) lives here and decides every
isomorphism question: ``catalog_match``, ``is_isomorphic`` (also with
pinned vertices) and the canonical augmentation in ``enumeration``. Every
witness (copy, induced cycle, isomorphism) is a plain vertex tuple, and
all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphcore import Graph, VertexSet, bit_indices


# -- family copies -----------------------------------------------------------


def _find_k2(g: Graph, alive: int) -> tuple[int, int] | None:
    """The edge v-u inside ``alive`` with the smallest v, then smallest u."""
    for v in bit_indices(alive):
        for u in bit_indices(g.rows[v] & alive & ~((1 << (v + 1)) - 1)):
            return (v, u)
    return None


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


def _find_cycle_subgraph(g: Graph, k: int, alive: int) -> tuple[int, ...] | None:
    """Vertices of a k-cycle subgraph (chords permitted), in cycle order.

    Depth-first over paths that start at their smallest vertex a, in
    ascending neighbor order; the stack holds one neighbor iterator per
    path vertex, so a long cycle needs no Python recursion.
    """
    if k > alive.bit_count():
        return None
    for a in bit_indices(alive):
        higher = alive & ~((1 << (a + 1)) - 1)
        path = [a]
        used = 1 << a
        stack = [bit_indices(g.rows[a] & higher)]
        while stack:
            u = next(stack[-1], None)
            if u is None:
                stack.pop()
                used ^= 1 << path.pop()
            elif len(path) == k - 1:
                if (g.rows[u] >> a) & 1:
                    return tuple(path) + (u,)
            else:
                path.append(u)
                used |= 1 << u
                stack.append(bit_indices(g.rows[u] & higher & ~used))
    return None


def _find_any_cycle(g: Graph, alive: int) -> tuple[int, ...] | None:
    """Vertices of some cycle in the induced subgraph, in cycle order."""
    seen = 0
    parent: dict[int, int] = {}
    for root in bit_indices(alive):
        if (seen >> root) & 1:
            continue
        stack = [(root, -1)]
        while stack:
            v, par = stack.pop()
            if (seen >> v) & 1:
                continue
            seen |= 1 << v
            parent[v] = par
            for u in bit_indices(g.rows[v] & alive):
                if u == par:
                    continue
                if (seen >> u) & 1:
                    # back edge v-u closes a cycle; walk parents to recover it
                    path_v = []
                    x = v
                    while x != -1:
                        path_v.append(x)
                        x = parent[x]
                    anc = set(path_v)
                    path_u = []
                    x = u
                    while x not in anc:
                        path_u.append(x)
                        x = parent[x]
                    meet = x
                    cyc = path_u + [meet] + path_v[: path_v.index(meet)][::-1]
                    if len(cyc) >= 3:
                        return tuple(cyc)
                else:
                    stack.append((u, v))
    return None



# One finder per family kind: (g, alive mask, k) -> a copy in path or
# cycle order, or None. The keys are the valid kinds.
_FINDERS = {
    "k1": lambda g, alive, k: ((alive & -alive).bit_length() - 1,) if alive else None,
    "k2": lambda g, alive, k: _find_k2(g, alive),
    "k3": lambda g, alive, k: _find_cycle_subgraph(g, 3, alive),
    "p3": lambda g, alive, k: _find_p3(g, alive),
    "cycle": lambda g, alive, k: _find_cycle_subgraph(g, k, alive),
    "anycycle": lambda g, alive, k: _find_any_cycle(g, alive),
}


@dataclass(frozen=True)
class IsolationFamily:
    """A family of forbidden connected graphs for isolation.

    kind is one of "k1", "k2", "k3", "p3", "cycle" (the k-cycle, k >= 3)
    or "anycycle" (every cycle): the keys of ``_FINDERS``.
    """

    kind: str
    k: int | None = None

    def __post_init__(self):
        if self.kind not in _FINDERS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "cycle" and (self.k is None or self.k < 3):
            raise ValueError("cycle family needs k >= 3")

    def __str__(self) -> str:
        return f"cycle:{self.k}" if self.kind == "cycle" else self.kind


K1 = IsolationFamily("k1")
K2 = IsolationFamily("k2")
K3 = IsolationFamily("k3")
P3 = IsolationFamily("p3")
ANY_CYCLE = IsolationFamily("anycycle")


def cycle_family(k: int) -> IsolationFamily:
    return IsolationFamily("cycle", k=k)


def family_from_name(name: str) -> IsolationFamily:
    """Parse "k1" | "k2" | "k3" | "p3" | "anycycle" | "cycle:k"."""
    name = name.strip().lower()
    if name.startswith("cycle:"):
        return cycle_family(int(name.split(":", 1)[1]))
    simple = {"k1": K1, "k2": K2, "k3": K3, "p3": P3, "anycycle": ANY_CYCLE}
    if name not in simple:
        raise ValueError(f"unknown family {name!r}")
    return simple[name]


def contains_copy(g: Graph, fam: IsolationFamily,
                  within: VertexSet | None = None) -> tuple[int, ...] | None:
    """A subgraph copy of some family member inside g (or a subset of g):
    a tuple whose entry i is the g-vertex that member vertex i maps to,
    injective and adjacency-preserving, listing the path or cycle in order.
    """
    alive = g.full_mask() if within is None else within.bits
    if within is not None and within.graph_order != g.n:
        raise ValueError("vertex set does not belong to this graph")
    return _FINDERS[fam.kind](g, alive, fam.k)


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
