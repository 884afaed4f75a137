import pytest

from p3iso import generators as gen
from p3iso.generators import BadOrder, CatalogSelfCheckFailed
from p3iso.graphcore import delete_vertices, is_connected
from p3iso.patterns import catalog_match, has_induced_cycle, is_isomorphic
from p3iso.check import is_isolating
from p3iso.solver import isolation_number


def test_standard_graphs():
    p3 = gen.path(3)
    assert p3.edge_count == 2 and p3.max_degree() == 2
    c6 = gen.cycle(6)
    assert all(c6.degree(v) == 2 for v in range(6))
    assert is_isomorphic(gen.complete(3), gen.cycle(3))
    with pytest.raises(BadOrder):
        gen.path(0)
    with pytest.raises(BadOrder):
        gen.cycle(2)
    with pytest.raises(BadOrder):
        gen.complete(0)


def test_construction_b_examples():
    assert gen.construction_B_p3(3) == gen.path(3)

    b4 = gen.construction_B_p3(4)
    # a single spine vertex joined to every vertex of one 3-path
    assert b4.n == 4 and b4.degree(0) == 3
    assert isolation_number(b4).value == 1

    b8 = gen.construction_B_p3(8)
    assert b8.n == 8
    assert isolation_number(b8).value == 2


def test_construction_b_order_and_spine():
    for n in range(1, 41):
        b = gen.construction_B_p3(n)
        assert b.n == n
        if n >= 4:
            a = n // 4
            assert is_isolating(b, range(a))


def test_catalog_entries():
    cat = gen.catalog()
    assert len(cat) == 12
    assert [e.order for e in cat] == [3, 3, 7, 7, 7, 7, 7, 7, 7, 11, 11, 15]
    assert [e.iota for e in cat] == [1, 1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 4]

    g11 = gen.catalog_entry("G11")
    assert g11.order == 11 and g11.graph.edge_count == 14
    assert g11.graph.min_degree() == 2

    assert gen.catalog_entry("G15").iota == 4

    g71 = gen.catalog_entry("G71").graph
    sub, _ = delete_vertices(g71, 1 << 6)
    assert not is_connected(sub)

    with pytest.raises(KeyError):
        gen.catalog_entry("G99")


def test_catalog_documented_flags():
    for e in gen.catalog():
        assert has_induced_cycle(e.graph, 6) is None
        assert e.max_degree == e.graph.max_degree() <= 3
        assert is_connected(e.graph)


@pytest.fixture
def tampered_catalog(monkeypatch):
    """The catalog with C7 transcribed as a path; every catalog cache is
    cleared before and after."""
    from p3iso.patterns import _catalog_forms

    bad = dict(gen._CATALOG_EDGES)
    bad["C7"] = (7, tuple((i, i + 1) for i in range(1, 7)))  # path, not cycle
    monkeypatch.setattr(gen, "_CATALOG_EDGES", bad)
    gen.catalog.cache_clear()
    _catalog_forms.cache_clear()
    yield
    gen.catalog.cache_clear()
    _catalog_forms.cache_clear()


def test_catalog_self_check_catches_transcription_errors(tampered_catalog):
    # a tampered copy of the catalog loader must refuse to load
    with pytest.raises(CatalogSelfCheckFailed):
        gen.catalog()


def test_catalog_match_reads_the_self_checked_catalog(tampered_catalog):
    # catalog matching builds its table from catalog(), so the same
    # transcription error stops it instead of matching a wrong graph
    with pytest.raises(CatalogSelfCheckFailed):
        catalog_match(gen.cycle(7))


def test_disjoint_union_and_pendant():
    u = gen.disjoint_union(gen.cycle(3), gen.path(2))
    assert u.n == 5 and u.edge_count == 4
    p = gen.attach_pendant(gen.cycle(3), gen.path(2), 0, 0)
    assert p.edge_count == 5 and is_connected(p)


def test_random_eligible_graphs_are_eligible(rng):
    for _ in range(40):
        n = rng.randint(4, 40)
        g = gen.random_eligible_graph(n, rng)
        assert g.n == n
        assert is_connected(g)
        assert g.max_degree() <= 3
        assert has_induced_cycle(g, 6) is None
        assert catalog_match(g) is None


def test_block_tree_never_runs_out_of_attachment_points(monkeypatch, rng):
    # two joined copies of G74 (one degree-2 vertex each) leave no vertex of
    # degree <= 2; the second copy is drawn again instead of stranding the
    # next block
    blocks = [gen.catalog_entry("G74").graph] * 2

    def stub(max_order, rng):
        return blocks.pop() if blocks else gen.path(min(3, max_order))

    monkeypatch.setattr(gen, "_random_block", stub)
    g = gen._random_block_tree(20, rng)
    assert g.n == 20 and is_connected(g) and g.max_degree() <= 3
    assert not blocks


def test_random_subcubic_connected(rng):
    for _ in range(40):
        g = gen.random_subcubic_connected(rng.randint(1, 30), rng)
        assert is_connected(g) and g.max_degree() <= 3
