import random

import pytest

from p3iso.graphcore import Graph


@pytest.fixture
def rng():
    return random.Random(0x5CA1AB1E)


_ATLAS_BY_ORDER = None


def atlas_by_order() -> dict[int, list[Graph]]:
    """All graphs on 1..7 vertices (networkx Graph Atlas), as library graphs."""
    global _ATLAS_BY_ORDER
    if _ATLAS_BY_ORDER is None:
        import networkx as nx

        out: dict[int, list[Graph]] = {n: [] for n in range(1, 8)}
        for G in nx.graph_atlas_g():
            n = G.number_of_nodes()
            if n == 0:
                continue
            relabel = {v: i for i, v in enumerate(sorted(G.nodes()))}
            out[n].append(Graph.from_edges(
                n, [(relabel[u], relabel[v]) for u, v in G.edges()]))
        # guard against misreading the atlas: known class counts per order
        assert [len(out[n]) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]
        _ATLAS_BY_ORDER = out
    return _ATLAS_BY_ORDER


def sorted_vertex_tuple(cert, n: int) -> bool:
    """The certificate's set is a sorted tuple of distinct ints in 0..n-1,
    and the certificate names the order n."""
    s = cert.set
    return (type(s) is tuple and all(type(v) is int and 0 <= v < n for v in s)
            and all(a < b for a, b in zip(s, s[1:])) and cert.graph_order == n)


def connected_subcubic_upto(max_n: int):
    from p3iso.enumeration import EnumSpec, iter_subcubic

    return list(iter_subcubic(EnumSpec(max_n)))


def spine_tree(k: int) -> Graph:
    """The subcubic tree of order 4k with iota = k: a spine path d_1..d_k,
    each d_i with a neighbor b_i carrying two leaves a_i, c_i.

    Vertex 4i is d_i, 4i+1 is b_i, and 4i+2, 4i+3 are its leaves.
    """
    edges = []
    for i in range(k):
        d = 4 * i
        edges += [(d, d + 1), (d + 1, d + 2), (d + 1, d + 3)]
        if i:
            edges.append((d - 4, d))
    return Graph.from_edges(4 * k, edges)
