import random
from itertools import permutations

import pytest

from p3iso import generators as gen
from p3iso.graphcore import (Graph, bit_indices, closed_mask, delete_vertices,
                             is_connected)
from p3iso.patterns import (_color_rounds, _refine_colors, canonical_data, catalog_match,
                            contains_copy, has_induced_cycle, is_isomorphic)

from conftest import connected_subcubic_upto
from oracles import (brute_has_induced_cycle, brute_is_isomorphic, random_general_graph,
                     reference_has_induced_cycle, reference_refine_colors)


def shuffled_copy(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_contains_copy_p3_examples():
    p2 = gen.path(2)
    assert contains_copy(p2, p2.full_mask()) is None
    c5 = gen.cycle(5)
    wit = contains_copy(c5, c5.full_mask())
    assert wit is not None
    a, c, b = wit
    assert c5.has_edge(a, c) and c5.has_edge(c, b)

    # C6 minus a closed neighborhood still holds a 3-path: one vertex cannot
    # isolate a 6-cycle
    c6 = gen.cycle(6)
    sub, _ = delete_vertices(c6, closed_mask(c6, 1 << 0))
    assert contains_copy(sub, sub.full_mask()) is not None

    # a mask with a bit beyond the last vertex, or a negative one, is refused
    for outside in (1 << 6, -1):
        with pytest.raises(ValueError):
            contains_copy(c6, within=outside)


def test_contains_copy_witnesses_are_copies(rng):
    def has_p3(keep, edges):
        ends = [v for e in edges for v in e]
        return any(ends.count(v) >= 2 for v in keep)

    for _ in range(400):
        g = random_general_graph(rng.randint(1, 8), rng.uniform(0.2, 0.8), rng)
        within = rng.getrandbits(g.n)
        keep = set(bit_indices(within))
        edges = [(u, v) for u, v in g.edges() if u in keep and v in keep]
        m = contains_copy(g, within=within)
        assert (m is not None) == has_p3(keep, edges), (list(g.edges()), keep)
        if m is None:
            continue
        assert len(set(m)) == len(m) and set(m) <= keep, m
        assert all(g.has_edge(u, v) for u, v in zip(m, m[1:])), m


def test_contains_copy_p3_iff_max_degree_2():
    for g in connected_subcubic_upto(7):
        assert (contains_copy(g, g.full_mask()) is not None) == (g.max_degree() >= 2)


def test_induced_cycle_examples():
    wit = has_induced_cycle(gen.cycle(6), 6)
    assert wit is not None and len(set(wit)) == 6
    assert has_induced_cycle(gen.catalog_entry("G15").graph, 6) is None
    assert has_induced_cycle(gen.complete(4), 4) is None  # every C4 is chorded
    assert has_induced_cycle(gen.cycle(7), 6) is None
    with pytest.raises(ValueError, match="cycle length"):
        has_induced_cycle(gen.cycle(7), 2)
    # a ``through`` vertex outside 0..n-1 is refused, even where n < k
    for g, through in ((gen.cycle(8), 8), (gen.cycle(8), -1), (gen.cycle(5), 9)):
        with pytest.raises(ValueError, match=f"vertex {through} outside"):
            has_induced_cycle(g, 6, through=through)


def test_long_induced_cycle_needs_no_recursion():
    # the path walk keeps its own stack, so the cycle length is not capped
    # by Python's recursion limit
    assert has_induced_cycle(gen.cycle(1500), 1500) == tuple(range(1500))


def test_induced_cycle_witness_is_an_induced_cycle():
    g = gen.catalog_entry("G11").graph
    for k in (3, 4, 5):
        cyc = has_induced_cycle(g, k)
        if cyc is None:
            continue
        for i, u in enumerate(cyc):
            for j in range(i + 1, len(cyc)):
                expected = (j - i == 1) or (i == 0 and j == k - 1)
                assert g.has_edge(u, cyc[j]) == expected


def test_induced_cycle_agrees_with_subset_scan():
    for g in connected_subcubic_upto(7):
        for k in range(3, g.n + 1):
            assert (has_induced_cycle(g, k) is not None) == \
                brute_has_induced_cycle(g, k), (g, k)


def test_induced_cycle_agrees_on_random_general_graphs(rng):
    for _ in range(150):
        n = rng.randint(4, 9)
        g = random_general_graph(n, rng.uniform(0.2, 0.7), rng)
        for k in (4, 5, 6):
            assert (has_induced_cycle(g, k) is not None) == \
                brute_has_induced_cycle(g, k)


def test_pruned_induced_cycle_keeps_the_witness(rng):
    # the prunes cut only branches that cannot close, so the first cycle
    # found is the unpruned search's, with and without ``through``
    graphs = [gen.random_subcubic_connected(rng.randint(3, 16), rng) for _ in range(150)]
    graphs += [random_general_graph(rng.randint(3, 10), rng.uniform(0.2, 0.8), rng)
               for _ in range(150)]
    graphs += [gen.random_eligible_graph(n, rng) for n in (20, 60, 150, 400)]
    for g in graphs:
        starts = [None, *range(0, g.n, max(1, g.n // 12))]
        for k in range(3, 9):
            for through in starts:
                assert has_induced_cycle(g, k, through) == \
                    reference_has_induced_cycle(g, k, through), (list(g.edges()), k, through)


def test_is_isomorphic_examples(rng):
    c7 = gen.cycle(7)
    for _ in range(10):
        assert is_isomorphic(c7, shuffled_copy(c7, rng)) is not None

    g74 = gen.catalog_entry("G74").graph
    g76 = gen.catalog_entry("G76").graph
    # oracle first: the two 10-edge graphs really are non-isomorphic
    assert not brute_is_isomorphic(g74, g76)
    assert is_isomorphic(g74, g76) is None

    assert is_isomorphic(gen.path(3), gen.complete(3)) is None


def test_is_isomorphic_matches_brute_on_small_pairs(rng):
    graphs = [g for g in connected_subcubic_upto(6) if g.n >= 4]
    for _ in range(150):
        g = rng.choice(graphs)
        h = rng.choice(graphs)
        assert (is_isomorphic(g, h) is not None) == brute_is_isomorphic(g, h)
    # general graphs, no degree bound; p = 0 gives edgeless graphs and low p
    # mostly disconnected ones. h is a shuffled g or an independent draw of
    # the same order and size, so both answers are common.
    kinds = set()
    for _ in range(200):
        n = rng.randint(1, 7)
        g = random_general_graph(n, rng.choice([0.0, 0.2, 0.4, 0.6, 0.9]), rng)
        h = shuffled_copy(g, rng)
        if rng.random() < 0.5:
            draws = (random_general_graph(n, rng.random(), rng) for _ in range(50))
            h = next((d for d in draws if d.edge_count == g.edge_count), h)
        expected = brute_is_isomorphic(g, h)
        wit = is_isomorphic(g, h)
        assert (wit is not None) == expected, (g, h)
        if wit is not None:
            assert {tuple(sorted((wit[u], wit[v])))
                    for u, v in h.edges()} == set(g.edges())
        kinds.add((expected, g.edge_count == 0, is_connected(g)))
    assert {(True, True, False), (True, False, False), (False, False, False),
            (True, False, True), (False, False, True)} <= kinds


def test_is_isomorphic_is_an_equivalence(rng):
    pool = [gen.random_subcubic_connected(rng.randint(3, 10), rng) for _ in range(40)]
    for g in pool:
        wit = is_isomorphic(g, g)
        assert wit is not None
    for _ in range(200):
        g, h = rng.choice(pool), rng.choice(pool)
        wg = is_isomorphic(g, h)
        wh = is_isomorphic(h, g)
        assert (wg is None) == (wh is None)
        if wg is not None:
            # witness maps h into g preserving both edges and non-edges
            for u in range(h.n):
                for v in range(u + 1, h.n):
                    assert h.has_edge(u, v) == g.has_edge(wg[u], wg[v])
    for _ in range(200):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        if is_isomorphic(a, b) and is_isomorphic(b, c):
            assert is_isomorphic(a, c) is not None


def test_find_isomorphism_with_pin():
    g15 = gen.catalog_entry("G15").graph
    # the two triangle degree-2 vertices (labels 1 and 9) are swappable
    wit = is_isomorphic(g15, g15, fixed={0: 8})
    assert wit is not None and wit[0] == 8
    # but label 5 is not in their orbit
    assert is_isomorphic(g15, g15, fixed={0: 4}) is None


def test_pinned_isomorphism_matches_brute_on_order_7_catalog(rng):
    # every pin of every order-7 catalog graph onto a shuffled copy: a
    # witness exists iff some permutation is an isomorphism honoring the
    # pin, and it is the lexicographically smallest such permutation
    for e in gen.catalog():
        if e.graph.n != 7:
            continue
        h = e.graph
        g = shuffled_copy(h, rng)
        g_edges = set(g.edges())
        isos = [perm for perm in permutations(range(7))
                if {tuple(sorted((perm[u], perm[v]))) for u, v in h.edges()} == g_edges]
        for i in range(7):
            for t in range(7):
                honoring = [perm for perm in isos if perm[i] == t]
                wit = is_isomorphic(g, h, fixed={i: t})
                if honoring:
                    assert wit is not None and wit == min(honoring), (e.id, i, t)
                else:
                    assert wit is None, (e.id, i, t)


def test_catalog_match_examples():
    assert catalog_match(gen.cycle(11)) == "C11"
    assert catalog_match(gen.construction_B_p3(8)) is None
    assert catalog_match(gen.cycle(15)) is None
    assert catalog_match(gen.cycle(7)) == "C7"
    assert catalog_match(gen.path(3)) == "P3"
    assert catalog_match(gen.complete(3)) == "C3"


def test_catalog_match_shuffled(rng):
    for e in gen.catalog():
        for _ in range(3):
            assert catalog_match(shuffled_copy(e.graph, rng)) == e.id


def test_catalog_match_exact_over_small_eligible_graphs():
    found = {}
    for g in connected_subcubic_upto(7):
        if has_induced_cycle(g, 6) is not None:
            continue
        cid = catalog_match(g)
        if cid:
            found[cid] = found.get(cid, 0) + 1
    assert found == {cid: 1 for cid in
                     ("P3", "C3", "C7", "G71", "G72", "G73", "G74", "G75", "G76")}


def test_canonical_data_reads_only_the_order_of_colors(rng):
    # the walk hands canonical_data the stable round's raw signatures, not
    # dense ranks; those, and any other order-preserving recoloring of
    # _refine_colors, must give the same form and labelings in the same order
    graphs = [Graph.empty(0)]
    graphs += [gen.random_subcubic_connected(rng.randint(1, 12), rng) for _ in range(150)]
    graphs += [random_general_graph(rng.randint(1, 8), rng.uniform(0.1, 0.9), rng)
               for _ in range(150)]
    assert any(g.max_degree() > 3 for g in graphs)
    moved = 0
    for g in graphs:
        ranks = _refine_colors(g)
        assert ranks == reference_refine_colors(g), g
        *_, sigs = _color_rounds(g)
        assert len(sigs) == g.n
        assert all((a < b) == (ra < rb) for a, ra in zip(sigs, ranks)
                   for b, rb in zip(sigs, ranks)), g
        moved += sigs != list(ranks)
        want = canonical_data(g)
        assert canonical_data(g, sigs) == want, g
        assert canonical_data(g, tuple(3 * r + 1 for r in ranks)) == want, g
    assert moved > 0  # the signatures are not already the ranks
