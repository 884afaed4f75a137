import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p3iso import generators as gen
from p3iso.graphcore import (Graph, bit_indices, closed_mask, connected_within,
                             delete_vertices, distance, is_connected, split_off)
from p3iso.patterns import contains_copy, is_isomorphic

from conftest import connected_subcubic_upto
from oracles import component_masks, random_general_graph


def test_construction_validation():
    with pytest.raises(ValueError):
        Graph(2, [0b10])  # wrong row count
    with pytest.raises(ValueError):
        Graph(2, [0b01, 0b10])  # self-loops
    with pytest.raises(ValueError):
        Graph(2, [0b10, 0b00])  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, [0b100, 0])  # a neighbor outside 0..n-1
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    for u, v in ((0, 1), (1, 0), (2, 2)):
        with pytest.raises(ValueError, match=rf"^cannot add edge {u},{v}$"):
            gen.path(3).with_edge(u, v)
    assert gen.path(3).with_edge(0, 2) == gen.cycle(3)


def test_negative_order_is_named():
    with pytest.raises(ValueError, match=r"^order must be >= 0, got -1$"):
        Graph(-1, [])


def test_negative_order_is_named_from_edges():
    with pytest.raises(ValueError, match=r"^order must be >= 0, got -1$"):
        Graph.from_edges(-1, [])


def test_graph_is_immutable_and_shows_its_size():
    g = gen.path(3)
    for name, value in (("n", 4), ("rows", (0, 0, 0)), ("extra", 1)):
        with pytest.raises(AttributeError, match=r"^Graph is immutable$"):
            setattr(g, name, value)
    assert (g.n, g.rows) == (3, (0b10, 0b101, 0b10))
    assert repr(g) == "Graph(n=3, m=2)"


def test_trusted_sites_build_valid_graphs(rng):
    # children, deletions, added edges, edge-list builds, disjoint unions and
    # decodes skip the constructor's checks; each must still pass them and
    # count its edges right
    from p3iso.enumeration import _augmentations, automorphisms
    from p3iso.graph_io import (emit_edge_list, emit_graph6, parse_edge_list,
                                parse_graph6)

    def checked(g):
        assert Graph(g.n, g.rows) == g
        assert g.edge_count == sum(1 for _ in g.edges())

    for g in connected_subcubic_upto(6):
        for child in _augmentations(g, automorphisms(g)):
            checked(child)
    for _ in range(100):
        g = random_general_graph(rng.randint(1, 12), rng.random(), rng)
        checked(parse_graph6(emit_graph6(g)))
        checked(parse_edge_list(emit_edge_list(g)))
        edges = list(g.edges())
        rng.shuffle(edges)
        checked(Graph.from_edges(g.n, [(v, u) if rng.random() < 0.5 else (u, v)
                                       for u, v in edges]))
        checked(gen.disjoint_union(g, random_general_graph(rng.randint(0, 6),
                                                           rng.random(), rng)))
        checked(delete_vertices(g, sum(1 << v for v in range(g.n) if rng.random() < 0.4))[0])
        missing = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                   if not g.has_edge(u, v)]
        if missing:
            checked(g.with_edge(*rng.choice(missing)))


def test_closed_neighborhood_cycle():
    c5 = gen.cycle(5)
    assert list(bit_indices(closed_mask(c5, 1 << 0))) == [0, 1, 4]
    assert closed_mask(c5, 0) == 0


def test_closed_neighborhood_g11_label2():
    g11 = gen.catalog_entry("G11").graph
    # 1-based label 2 is vertex 1; its closed neighborhood carries labels 1,2,3,11
    got = [v + 1 for v in bit_indices(closed_mask(g11, 1 << 1))]
    assert got == [1, 2, 3, 11]


def test_delete_vertices_examples():
    p4 = gen.path(4)
    sub, old = delete_vertices(p4, 1 << 3)
    assert is_isomorphic(sub, gen.path(3))
    assert old == (0, 1, 2)
    for outside in (1 << 4, -1):  # a bit beyond vertex 3, or a negative mask
        with pytest.raises(ValueError):
            delete_vertices(p4, outside)

    c7 = gen.cycle(7)
    for v in range(7):
        sub, _ = delete_vertices(c7, closed_mask(c7, 1 << v))
        assert is_isomorphic(sub, gen.path(4))

    g71 = gen.catalog_entry("G71").graph
    sub, _ = delete_vertices(g71, 1 << 6)  # printed label 7
    assert not is_connected(sub)


def test_delete_nothing_is_identity():
    g = gen.catalog_entry("G11").graph
    sub, old = delete_vertices(g, 0)
    assert sub == g and old == tuple(range(g.n))


def _p3_flags(g: Graph) -> list[bool]:
    # per component, in order: does it hold a 3-path?
    return [contains_copy(g, within=m) is not None
            for m in component_masks(g)]


def test_components_examples():
    assert component_masks(gen.cycle(7)) == [0b1111111]
    assert _p3_flags(gen.cycle(7)) == [True]

    isolated = Graph.empty(3)
    assert component_masks(isolated) == [0b001, 0b010, 0b100]
    assert _p3_flags(isolated) == [False, False, False]

    c11 = gen.cycle(11)
    sub, _ = delete_vertices(c11, closed_mask(c11, 1 << 0))
    assert len(component_masks(sub)) == 1 and _p3_flags(sub) == [True]
    assert is_isomorphic(sub, gen.path(8))

    two = Graph.from_edges(5, [(0, 3), (1, 2), (2, 4)])
    assert component_masks(two) == [0b01001, 0b10110]
    assert _p3_flags(two) == [False, True]
    assert component_masks(two, within=0b00111) == [0b00001, 0b00110]


def test_components_partition_everything():
    for g in connected_subcubic_upto(6):
        bits = 0
        for comp in component_masks(g):
            assert bits & comp == 0
            bits |= comp
        assert bits == g.full_mask()


def _connected_mask(g: Graph, rng) -> int:
    """A random connected vertex set of g, grown from one vertex."""
    mask = 1 << rng.randrange(g.n)
    for _ in range(rng.randint(0, g.n - 1)):
        grow = [u for v in bit_indices(mask) for u in bit_indices(g.rows[v] & ~mask)]
        if not grow:
            break
        mask |= 1 << rng.choice(grow)
    return mask


def test_split_off_matches_component_masks(rng):
    for i in range(5000):
        if i % 2:
            g = gen.random_subcubic_connected(rng.randint(1, 40), rng)
        else:  # degree above 3 and many boundary seeds
            g = random_general_graph(rng.randint(1, 24), rng.random() * 0.3, rng)
        mask = _connected_mask(g, rng)
        assert connected_within(g, mask)
        kill = sum(1 << rng.randrange(g.n) for _ in range(rng.randint(0, 6)))
        assert split_off(g, mask, kill) == component_masks(g, within=mask & ~kill)


def test_split_off_edge_cases():
    g = gen.cycle(9)
    assert split_off(g, g.full_mask(), 0) == [g.full_mask()]
    assert split_off(g, 0b111, 0b1111) == []
    assert split_off(g, 0, 0) == []
    assert split_off(g, 1 << 4, 0) == [1 << 4]
    assert split_off(g, 1 << 4, 1 << 4) == []
    assert split_off(g, g.full_mask(), 1 << 4) == [g.full_mask() & ~(1 << 4)]
    # a spider with three legs of 40: deleting the body leaves three long
    # components, and every search has to run to its end
    legs = [(0, 1), (0, 41), (0, 81)] + [(a + i, a + i + 1) for a in (1, 41, 81)
                                         for i in range(39)]
    spider = Graph.from_edges(121, legs)
    parts = split_off(spider, spider.full_mask(), 1)
    assert parts == component_masks(spider, within=spider.full_mask() & ~1)
    assert [p.bit_count() for p in parts] == [40, 40, 40]


def test_distance_examples():
    c11 = gen.cycle(11)
    assert distance(c11, 3, 3) == 0
    assert max(distance(c11, 0, v) for v in range(11)) == 5

    g15 = gen.catalog_entry("G15").graph
    low = [v for v in range(15) if g15.degree(v) == 2]
    dists = [distance(g15, u, v) for i, u in enumerate(low) for v in low[i + 1:]]
    assert min(dists) == 4

    two = Graph.empty(2)
    assert distance(two, 0, 1) == math.inf
    for u, v in ((0, 2), (-1, 0)):
        with pytest.raises(ValueError):
            distance(two, u, v)


def test_handshake_over_enumeration():
    for g in connected_subcubic_upto(6):
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count


def test_distance_triangle_inequality():
    for g in connected_subcubic_upto(8):
        if g.n > 8:
            break
        d = [[distance(g, u, v) for v in range(g.n)] for u in range(g.n)]
        for u in range(g.n):
            for v in range(g.n):
                for w in range(g.n):
                    assert d[u][v] <= d[u][w] + d[w][v]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.data())
def test_deletion_relabels_stably(n, data):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if data.draw(st.booleans())]
    g = Graph.from_edges(n, edges)
    kill = sum(1 << v for v in range(n) if data.draw(st.booleans()))
    sub, old = delete_vertices(g, kill)
    assert list(old) == sorted(old)
    for i in range(sub.n):
        for j in range(i + 1, sub.n):
            assert sub.has_edge(i, j) == g.has_edge(old[i], old[j])
