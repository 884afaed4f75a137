import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from p3iso import generators as gen
from p3iso.graph_io import (DuplicateEdge, MalformedHeader,
                            NonCanonicalPadding, OutOfRange, SelfLoop,
                            TruncatedBits, _decode_order, _encode_order,
                            emit_edge_list, emit_graph6, iter_graph6,
                            parse_edge_list, parse_graph6)
from p3iso.graphcore import Graph

from oracles import encode_graph6_reference

FIXTURES = Path(__file__).parent / "fixtures"


def test_reference_encoder_pins_the_examples():
    # the format oracle confirms the frozen strings before we assert on them
    assert encode_graph6_reference(Graph.empty(0)) == "?"
    assert encode_graph6_reference(gen.complete(3)) == "Bw"
    assert encode_graph6_reference(gen.path(3)) == "Bg"


def test_parse_known_strings():
    assert parse_graph6("?").n == 0
    assert parse_graph6("Bw") == gen.complete(3)
    assert parse_graph6("Bg") == gen.path(3)


def test_emit_known_strings():
    assert emit_graph6(gen.complete(3)) == "Bw"
    assert emit_graph6(Graph.empty(0)) == "?"
    assert emit_graph6(gen.path(3)) == "Bg"


def test_roundtrip_random_subcubic_label_identical():
    rng = random.Random(42)
    for _ in range(1000):
        g = gen.random_subcubic_connected(rng.randint(1, 20), rng)
        assert parse_graph6(emit_graph6(g)) == g


def test_emit_matches_reference_encoder():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(0, 30)
        g = gen.random_general_graph(n, rng.random(), rng)
        assert emit_graph6(g) == encode_graph6_reference(g)


def test_emit_matches_networkx():
    import networkx as nx

    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(0, 40)
        g = gen.random_general_graph(n, rng.random(), rng)
        G = nx.empty_graph(n)
        G.add_edges_from(g.edges())
        assert emit_graph6(g) == nx.to_graph6_bytes(G, header=False).decode().strip()


def test_emit_length_formula():
    for n in [0, 1, 2, 5, 13, 40, 62]:
        g = Graph.empty(n)
        assert len(emit_graph6(g)) == 1 + (n * (n - 1) // 2 + 5) // 6


def test_emit_extended_headers():
    rng = random.Random(5)
    for n in (63, 64, 100, 300):
        g = gen.random_subcubic_connected(n, rng)
        assert emit_graph6(g) == encode_graph6_reference(g)
    assert emit_graph6(Graph.empty(63)).startswith("~??~")
    # orders past 258047 need the 8-character header; too large to build
    for n in (0, 62, 63, 258047, 258048, 2 ** 36 - 1):
        head = _encode_order(n)
        assert len(head) == (1 if n <= 62 else 4 if n <= 258047 else 8)
        assert _decode_order(head) == (n, len(head))
    with pytest.raises(ValueError):
        _encode_order(2 ** 36)


def test_parse_accepts_extended_headers():
    rng = random.Random(3)
    for n in (63, 64, 100):
        g = gen.random_subcubic_connected(n, rng)
        assert parse_graph6(encode_graph6_reference(g)) == g


def test_parse_errors():
    with pytest.raises(MalformedHeader):
        parse_graph6("")
    with pytest.raises(MalformedHeader):
        parse_graph6("B\x1fw")
    with pytest.raises(MalformedHeader):
        parse_graph6("~B")  # incomplete extended header
    with pytest.raises(TruncatedBits):
        parse_graph6("B")  # n=3 needs one body char
    with pytest.raises(TruncatedBits):
        parse_graph6("Bww")  # too long counts as a bit-length mismatch


def test_noncanonical_padding_reported_not_fatal():
    line = "B" + chr(ord("w") + 1)  # K3 with a nonzero padding bit
    assert parse_graph6(line) == gen.complete(3)
    with pytest.raises(NonCanonicalPadding):
        parse_graph6(line, strict=True)


def test_edge_list_roundtrip_and_examples():
    g = parse_edge_list("3 2\n1 2\n2 3\n")
    assert g == gen.path(3)
    assert parse_edge_list(emit_edge_list(gen.cycle(9))) == gen.cycle(9)
    with pytest.raises(SelfLoop):
        parse_edge_list("3 1\n1 1")
    with pytest.raises(DuplicateEdge):
        parse_edge_list("3 2\n1 2\n2 1")
    with pytest.raises(OutOfRange):
        parse_edge_list("3 1\n1 4")


def test_edge_list_g11_fixture_degree_sequence():
    text = (FIXTURES / "catalog" / "G11.edges").read_text()
    g = parse_edge_list(text)
    assert g.edge_count == 14
    assert sorted(g.degrees()) == [2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3]


def test_stream_counts_and_diagnostics():
    assert list(iter_graph6(["Bw", "Bg", "?"])) == [
        (1, gen.complete(3)), (2, gen.path(3)), (3, Graph.empty(0))]

    items = list(iter_graph6(["Bw", "", "B", "Bg"]))
    assert [no for no, _ in items] == [1, 3, 4]
    assert isinstance(items[1][1], TruncatedBits)
    assert items[2][1] == gen.path(3)

    # the header shares its line with the first graph, or stands alone
    items = list(iter_graph6([">>graph6<<Bw\n", "Bg\n", ">>graph6<<\n"]))
    assert items == [(1, gen.complete(3)), (2, gen.path(3))]

    # nonzero padding is tolerated here as in parse_graph6
    assert list(iter_graph6(["B" + chr(ord("w") + 1)])) == [(1, gen.complete(3))]


def test_stream_reads_catalog_fixture():
    with open(FIXTURES / "catalog.g6") as fh:
        got = [g for _, g in iter_graph6(fh)]
    assert [g.n for g in got] == [e.order for e in gen.catalog()]
    assert got == [e.graph for e in gen.catalog()]


def test_catalog_golden_files_match_live_export():
    lines = (FIXTURES / "catalog.g6").read_text().splitlines()
    assert lines == [emit_graph6(e.graph) for e in gen.catalog()]
    for e in gen.catalog():
        text = (FIXTURES / "catalog" / f"{e.id}.edges").read_text()
        assert parse_edge_list(text) == e.graph


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 26), st.data())
def test_roundtrip_property(n, data):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if data.draw(st.booleans())]
    g = Graph.from_edges(n, edges)
    assert parse_graph6(emit_graph6(g)) == g


def random_subcubic(n, rnd):
    """Random edges under the degree cap; not necessarily connected."""
    deg = [0] * n
    edges = set()
    for _ in range(3 * n // 2):
        u, v = rnd.randrange(n), rnd.randrange(n)
        if u != v and deg[u] < 3 and deg[v] < 3 and (min(u, v), max(u, v)) not in edges:
            edges.add((min(u, v), max(u, v)))
            deg[u] += 1
            deg[v] += 1
    return Graph.from_edges(n, edges)


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 2000), st.randoms(use_true_random=False))
@example(62, random.Random(0))
@example(63, random.Random(0))
@example(2000, random.Random(0))
def test_roundtrip_large_subcubic_property(n, rnd):
    g = random_subcubic(n, rnd)
    line = emit_graph6(g)
    assert len(line) == len(_encode_order(n)) + (n * (n - 1) // 2 + 5) // 6
    assert parse_graph6(line, strict=True) == g
