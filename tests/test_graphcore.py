import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p3iso import generators as gen
from p3iso.graphcore import (ComponentPartition, Graph, VertexSet,
                             closed_neighborhood, components,
                             delete_closed_neighborhood, delete_vertices,
                             distance, is_connected)
from p3iso.patterns import is_isomorphic

from conftest import connected_subcubic_upto


def test_construction_validation():
    with pytest.raises(ValueError):
        Graph(2, [0b10])  # wrong row count
    with pytest.raises(ValueError):
        Graph(2, [0b01, 0b10])  # self-loops
    with pytest.raises(ValueError):
        Graph(2, [0b10, 0b00])  # asymmetric
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])


def test_closed_neighborhood_cycle():
    c5 = gen.cycle(5)
    assert sorted(closed_neighborhood(c5, [0])) == [0, 1, 4]
    assert len(closed_neighborhood(c5, [])) == 0


def test_closed_neighborhood_g11_label2():
    g11 = gen.catalog_entry("G11").graph
    # 1-based label 2 is vertex 1; its closed neighborhood carries labels 1,2,3,11
    got = sorted(v + 1 for v in closed_neighborhood(g11, [1]))
    assert got == [1, 2, 3, 11]


def test_delete_vertices_examples():
    p4 = gen.path(4)
    sub, old = delete_vertices(p4, [3])
    assert is_isomorphic(sub, gen.path(3))
    assert old == (0, 1, 2)

    c7 = gen.cycle(7)
    for v in range(7):
        sub, _ = delete_closed_neighborhood(c7, [v])
        assert is_isomorphic(sub, gen.path(4))

    g71 = gen.catalog_entry("G71").graph
    sub, _ = delete_vertices(g71, [6])  # printed label 7
    assert not is_connected(sub)


def test_delete_nothing_is_identity():
    g = gen.catalog_entry("G11").graph
    sub, old = delete_vertices(g, [])
    assert sub == g and old == tuple(range(g.n))


def test_components_examples():
    part = components(gen.cycle(7))
    assert len(part.components) == 1 and part.p3_components == (0,)

    isolated = Graph.empty(3)
    part = components(isolated)
    assert len(part.components) == 3 and part.p3_components == ()

    c11 = gen.cycle(11)
    sub, _ = delete_closed_neighborhood(c11, [0])
    part = components(sub)
    assert len(part.components) == 1 and part.p3_components == (0,)
    assert is_isomorphic(sub, gen.path(8))


def test_components_partition_everything():
    for g in connected_subcubic_upto(6):
        part = components(g)
        bits = 0
        for comp in part.components:
            assert bits & comp.bits == 0
            bits |= comp.bits
        assert bits == g.full_mask()
        assert isinstance(part, ComponentPartition)


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


def test_handshake_over_enumeration():
    for g in connected_subcubic_upto(6):
        assert sum(g.degrees()) == 2 * g.edge_count


def test_distance_triangle_inequality():
    for g in connected_subcubic_upto(8):
        if g.n > 8:
            break
        d = [[distance(g, u, v) for v in range(g.n)] for u in range(g.n)]
        for u in range(g.n):
            for v in range(g.n):
                for w in range(g.n):
                    assert d[u][v] <= d[u][w] + d[w][v]


def test_vertex_set_algebra():
    a = VertexSet.of(5, [0, 2])
    b = VertexSet.of(5, [2, 4])
    assert sorted(a | b) == [0, 2, 4]
    assert sorted(a & b) == [2]
    assert sorted(a - b) == [0]
    assert sorted(a.complement()) == [1, 3, 4]
    assert len(a) == 2 and 2 in a and 1 not in a
    with pytest.raises(ValueError):
        VertexSet.of(3, [3])
    with pytest.raises(ValueError):
        a | VertexSet.of(4, [0])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.data())
def test_deletion_relabels_stably(n, data):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if data.draw(st.booleans())]
    g = Graph.from_edges(n, edges)
    kill = [v for v in range(n) if data.draw(st.booleans())]
    sub, old = delete_vertices(g, kill)
    assert list(old) == sorted(old)
    for i in range(sub.n):
        for j in range(i + 1, sub.n):
            assert sub.has_edge(i, j) == g.has_edge(old[i], old[j])
