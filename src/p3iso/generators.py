"""Standard graphs, the extremal construction, the exceptional catalog,
and random graph builders used by the verification harness.

Catalog edge lists are literal data transcribed from the source drawings
using the printed vertex labels (the drawings' internal node names permute
them in two subfigures); every documented property is re-verified when the
package is imported, so a transcription error cannot load silently.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .graphcore import Graph, is_connected
from . import patterns
from . import solver


class BadOrder(ValueError):
    pass


class CatalogSelfCheckFailed(RuntimeError):
    """A catalog entry failed one of its documented properties at load."""


def path(n: int) -> Graph:
    """P_n: vertices 0..n-1, edges i,i+1."""
    if n < 1:
        raise BadOrder(f"path needs n >= 1, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise BadOrder(f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise BadOrder(f"complete graph needs n >= 1, got {n}")
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    rows = list(g.rows) + [row << g.n for row in h.rows]
    return Graph._trusted(g.n + h.n, rows)


def attach_pendant(g: Graph, h: Graph, gv: int, hv: int) -> Graph:
    """Disjoint union of g and h joined by the single bridge gv -- (g.n + hv).

    A bridge creates no new cycles, so it preserves induced-6-cycle-freeness.
    """
    return disjoint_union(g, h).with_edge(gv, g.n + hv)


# -- the extremal construction -------------------------------------------------


def construction_B_p3(n: int) -> Graph:
    """The spine-with-private-copies construction B_{n,P3}.

    For n <= 3 this is just P_n. Otherwise, with a = n // 4 spine vertices
    and b = n - 3a path vertices: a path on spine vertices 1..a, the extra
    path vertices a+1..b all joined to spine vertex a, and each spine vertex
    i fully joined to its own private 3-path. Labels here are 0-based; the
    path occupies 0..b-1.
    """
    if n < 1:
        raise BadOrder(f"construction needs n >= 1, got {n}")
    if n <= 3:
        return path(n)
    a = n // 4
    b = n - 3 * a
    edges: list[tuple[int, int]] = [(i, i + 1) for i in range(a - 1)]
    edges += [(a - 1, j) for j in range(a, b)]
    for i in range(a):
        base = b + 3 * i
        edges += [(base, base + 1), (base + 1, base + 2)]
        edges += [(i, base + u) for u in range(3)]
    return Graph.from_edges(n, edges)


# -- the exceptional catalog ---------------------------------------------------

# 1-based edge lists; order 7 entries use the printed labels of the source
# drawings (subfigures e and f permute internal node names, pinned here by
# the observation suite).
_CATALOG_EDGES: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    "P3": (3, ((1, 2), (2, 3))),
    "C3": (3, ((1, 2), (2, 3), (1, 3))),
    "C7": (7, tuple((i, i + 1) for i in range(1, 7)) + ((1, 7),)),
    "G71": (7, ((1, 7), (2, 7), (6, 7), (2, 3), (3, 4), (3, 5), (4, 5), (5, 6))),
    "G72": (7, ((1, 7), (2, 7), (6, 7), (2, 3), (3, 4), (3, 5), (4, 5), (5, 6),
                (1, 2))),
    "G73": (7, ((1, 7), (2, 7), (6, 7), (2, 3), (3, 4), (3, 5), (4, 5), (5, 6),
                (1, 4))),
    "G74": (7, ((1, 7), (2, 7), (6, 7), (2, 3), (3, 4), (3, 5), (4, 5), (5, 6),
                (1, 2), (1, 4))),
    "G75": (7, ((1, 2), (1, 7), (2, 3), (2, 7), (3, 4), (3, 5), (4, 6), (5, 6),
                (6, 7))),
    "G76": (7, ((1, 2), (1, 7), (2, 3), (2, 7), (3, 4), (3, 5), (4, 6), (5, 6),
                (6, 7), (4, 5))),
    "C11": (11, tuple((i, i + 1) for i in range(1, 11)) + ((1, 11),)),
    "G11": (11, ((1, 2), (1, 11), (2, 3), (2, 11), (3, 4), (3, 9), (4, 5),
                 (4, 10), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11))),
    "G15": (15, ((1, 2), (1, 15), (2, 3), (2, 15), (3, 4), (3, 13), (4, 5),
                 (4, 14), (5, 6), (6, 7), (6, 11), (7, 8), (7, 12), (8, 9),
                 (8, 10), (9, 10), (10, 11), (11, 12), (12, 13), (13, 14),
                 (14, 15))),
}

_DOCUMENTED_MAX_DEGREE = {
    "P3": 2, "C3": 2, "C7": 2, "G71": 3, "G72": 3, "G73": 3, "G74": 3,
    "G75": 3, "G76": 3, "C11": 2, "G11": 3, "G15": 3,
}


class CatalogEntry(namedtuple("CatalogEntry", "id graph order iota max_degree")):
    """One exceptional graph with its documented properties."""

    __slots__ = ()


@lru_cache(maxsize=1)
def catalog() -> tuple[CatalogEntry, ...]:
    """All 12 exceptional graphs; every documented property is re-verified.
    The one accessor of the catalog, so every reader gets checked graphs.

    Raises CatalogSelfCheckFailed listing every violated property, which
    signals a transcription error in the embedded edge lists.
    """
    entries = []
    failures = []
    for cid, (order, edges) in _CATALOG_EDGES.items():
        g = Graph.from_edges(order, [(u - 1, v - 1) for u, v in edges])
        expected_iota = (order + 1) // 4
        if (order + 1) % 4:
            failures.append(f"{cid}: order {order} is not 3 mod 4")
        if not is_connected(g):
            failures.append(f"{cid}: not connected")
        if g.max_degree() > 3:
            failures.append(f"{cid}: not subcubic")
        if g.max_degree() != _DOCUMENTED_MAX_DEGREE[cid]:
            failures.append(f"{cid}: max degree {g.max_degree()} != documented")
        if patterns.has_induced_cycle(g, 6) is not None:
            failures.append(f"{cid}: has an induced 6-cycle")
        cert = solver.isolation_number(g)
        if cert.value != expected_iota:
            failures.append(f"{cid}: iota {cert.value} != {expected_iota}")
        entries.append(CatalogEntry(cid, g, order, expected_iota,
                                    _DOCUMENTED_MAX_DEGREE[cid]))
    if failures:
        raise CatalogSelfCheckFailed("; ".join(failures))
    return tuple(entries)


def catalog_entry(cid: str) -> CatalogEntry:
    for entry in catalog():
        if entry.id == cid:
            return entry
    raise KeyError(cid)


# -- random builders -----------------------------------------------------------


def random_subcubic_tree(n: int, rng: random.Random) -> Graph:
    if n < 1:
        raise BadOrder("tree needs n >= 1")
    edges = []
    deg = [0] * n
    for v in range(1, n):
        u = rng.choice([w for w in range(v) if deg[w] <= 2])
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
    return Graph.from_edges(n, edges)


def random_subcubic_connected(n: int, rng: random.Random) -> Graph:
    """A random connected subcubic graph: random tree plus random chords."""
    g = random_subcubic_tree(n, rng)
    for _ in range(rng.randint(0, max(1, n // 3))):
        low = [v for v in range(n) if g.degree(v) <= 2]
        rng.shuffle(low)
        added = False
        for i, u in enumerate(low):
            if added:
                break
            for v in low[i + 1:]:
                if not g.has_edge(u, v):
                    g = g.with_edge(u, v)
                    added = True
                    break
    return g


_BLOCK_CYCLE_LENGTHS = (3, 4, 5, 7, 8, 9, 10)


def random_eligible_graph(n: int, rng: random.Random) -> Graph:
    """A random connected subcubic graph with no induced 6-cycle.

    Two flavors, mixed: (a) rejection sampling over random connected
    subcubic graphs (wild structure, workable acceptance at small n), and
    (b) a pendant-block tree whose blocks are paths and cycles of length
    != 6 joined by bridges, occasionally including an exceptional-catalog
    block: every cycle lies in a single block, so no induced 6-cycle can
    arise. Graphs of order <= 15 are re-rolled if they land in the catalog.
    """
    if n < 1:
        raise BadOrder("need n >= 1")
    for _ in range(200):
        if n <= 24 and rng.random() < 0.5:
            g = random_subcubic_connected(n, rng)
            if patterns.has_induced_cycle(g, 6) is not None:
                continue
        else:
            g = _random_block_tree(n, rng)
        if g.n <= 15 and patterns.catalog_match(g) is not None:
            continue
        return g
    raise RuntimeError(f"could not sample an eligible graph of order {n}")


def _random_block(max_order: int, rng: random.Random) -> Graph:
    choices: list[Graph] = []
    if max_order >= 1:
        choices.append(path(rng.randint(1, min(6, max_order))))
    fitting = [k for k in _BLOCK_CYCLE_LENGTHS if k <= max_order]
    if fitting:
        choices.append(cycle(rng.choice(fitting)))
    if max_order >= 7 and rng.random() < 0.25:
        fits = [e.graph for e in catalog() if e.order <= max_order]
        choices.append(rng.choice(fits))
    return rng.choice(choices)


def _random_block_tree(n: int, rng: random.Random) -> Graph:
    g = _random_block(n, rng)
    while g.n < n:
        block = _random_block(n - g.n, rng)
        anchors = [v for v in range(g.n) if g.degree(v) <= 2]
        ports = [v for v in range(block.n) if block.degree(v) <= 2]
        joined = attach_pendant(g, block, rng.choice(anchors), rng.choice(ports))
        if joined.n < n and joined.min_degree() == 3:
            continue  # the next block would find nowhere to attach: draw again
        g = joined
    return g


# The self-check runs on import, so no later catalog reader pays for it.
catalog()
