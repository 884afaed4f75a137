import hashlib
from collections import Counter
from itertools import combinations

import pytest

from p3iso import generators as gen
from p3iso.enumeration import (EnumSpec, _accepted, _augmentations, _no_induced_c6,
                               automorphisms, canonical_data, enumerate_connected_subcubic,
                               iter_subcubic)
from p3iso.graph_io import emit_graph6
from p3iso.graphcore import Graph, delete_vertices, is_connected
from p3iso.patterns import _refine_colors, canonical_form, has_induced_cycle

from conftest import atlas_by_order, spine_tree
from oracles import (all_graphs, full_labeling_accepted, random_general_graph,
                     reference_augmentations, reference_canonical_data,
                     reference_refine_colors, relabeled_edge_sets)

COUNTS = [1, 1, 2, 6, 10, 29, 64, 194, 531, 1733, 5524]  # orders 1..11


def _walk_id(value):
    """Test ids name the walk: "None" unfiltered, "no-induced-c6" filtered."""
    if isinstance(value, bool):
        return "no-induced-c6" if value else "None"
    return None


def test_spec_validation():
    with pytest.raises(ValueError):
        EnumSpec(0)


def test_tiny_orders():
    assert sum(1 for g in iter_subcubic(EnumSpec(1))) == 1
    got = [g for g in iter_subcubic(EnumSpec(3)) if g.n == 3]
    assert len(got) == 2  # the 3-path and the triangle


def test_all_emitted_are_connected_subcubic():
    for g in iter_subcubic(EnumSpec(7)):
        assert is_connected(g) and g.max_degree() <= 3


def test_counts_match_naive_oracle_to_6():
    # independent oracle: scan every labeled graph; a connected subcubic one
    # not marked yet opens a new class, and all its relabelings are marked
    for n in range(1, 7):
        classes = 0
        marked: set[frozenset] = set()
        for g in all_graphs(n):
            if frozenset(g.edges()) in marked:
                continue
            if g.max_degree() <= 3 and is_connected(g):
                classes += 1
                marked |= relabeled_edge_sets(g)
        mine = sum(1 for g in iter_subcubic(EnumSpec(n)) if g.n == n)
        assert mine == classes, n


def test_counts_match_atlas_to_7():
    atlas = atlas_by_order()
    for n in range(1, 8):
        ref = sum(1 for G in atlas[n]
                  if is_connected(G) and G.max_degree() <= 3)
        mine = sum(1 for g in iter_subcubic(EnumSpec(n)) if g.n == n)
        assert mine == ref, n


def test_counts_to_9():
    counts = enumerate_connected_subcubic(EnumSpec(9))
    assert [counts[n] for n in range(1, 10)] == COUNTS[:9]


@pytest.mark.parametrize("no_c6, digest", [
    (False, "98f90ab44985f100e0185c714929f9fc18ac1a02755e1ed49fca034f67ab077a"),
    (True, "ebd77ef49a5667da6c6047a268c63af5f1ba7f645056075eea6aca291496b33f"),
], ids=_walk_id)
def test_emitted_sequence_is_pinned(no_c6, digest):
    # the same labeled graphs in the same order as the full-labeling walk
    assert _walk_digest(9, no_c6) == digest


def _walk_digest(n, no_c6):
    """sha256 of the walk's graph6 lines, in walk order."""
    text = "\n".join(emit_graph6(g) for g in iter_subcubic(EnumSpec(n, no_induced_c6=no_c6)))
    return hashlib.sha256(text.encode()).hexdigest()


def test_filtered_walk_to_10_is_pinned():
    # the no-induced-C6 walk through order 10 (1664 graphs), graph6 lines
    # in walk order, pinned before any change to the walk's decision rules
    assert _walk_digest(10, True) == (
        "eeca1b6bec980d00d54456ad59048c2cddbca8763464d988eae1ff5eb1bdb44f")


@pytest.mark.extended
@pytest.mark.parametrize("n, no_c6, digest", [
    (11, False, "9623223726e519aae59c2595333fdda083eeecfad5ff747118ef22cc209d6756"),
    (12, True, "c183009577088e600b4caf5598735b0b5a2278c75a40918bfd703306fa7441a4"),
], ids=_walk_id)
def test_walk_is_pinned_extended(n, no_c6, digest):
    # 8095 graphs unfiltered through order 11, 14704 filtered through 12
    assert _walk_digest(n, no_c6) == digest


@pytest.mark.extended
def test_counts_to_11_extended():
    counts = enumerate_connected_subcubic(EnumSpec(11))
    assert [counts[n] for n in range(1, 12)] == COUNTS


def test_accepted_matches_full_labeling_oracle():
    # every candidate child of every graph of order <= 7, accepted or not
    tried = 0
    for g in iter_subcubic(EnumSpec(7)):
        for child in reference_augmentations(g, automorphisms(g)):
            tried += 1
            accepted, labelings = _accepted(child)
            assert accepted == full_labeling_accepted(child), child
            if labelings is not None:
                assert accepted
                assert labelings == canonical_data(child)[1]
    assert tried == 1062


def test_canonical_data_matches_reference_labeling(rng):
    # same form and same labelings in the same order as the first-written
    # labeling: on walk graphs, on candidate children (accepted or not), on
    # general graphs with degrees above 3, several components or no vertex,
    # and on graphs full of ties and twins, where the one search both cuts
    # branches and replaces its best column sequence
    walk = list(iter_subcubic(EnumSpec(10)))
    children = [c for g in walk if g.n < 8
                for c in reference_augmentations(g, automorphisms(g))]
    general = [Graph.empty(0)] + [
        random_general_graph(rng.randint(1, 7), rng.uniform(0.1, 0.9), rng)
        for _ in range(299)]
    assert any(g.max_degree() > 3 for g in general)
    assert any(g.n and not is_connected(g) for g in general)
    k2, p3 = gen.path(2), gen.path(3)
    tied = [gen.complete(k) for k in range(1, 7)] + [
        Graph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)]),  # K3,3
        Graph.from_edges(8, [(u, u | 1 << k) for u in range(8) for k in range(3)
                             if not u >> k & 1]),  # the 3-cube
        Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                         + [(i, i + 5) for i in range(5)]
                         + [(i + 5, (i + 2) % 5 + 5) for i in range(5)]),  # Petersen
        spine_tree(3),
        gen.disjoint_union(p3, p3),
        gen.disjoint_union(gen.disjoint_union(k2, k2), k2),
    ]
    for g in walk + children + general + tied:
        assert _refine_colors(g) == reference_refine_colors(g), g
        assert canonical_data(g) == reference_canonical_data(g), g


def test_orbit_closure_matches_min_over_aut_rule():
    # the walk's children are the reference children, in the same order,
    # minus doomed ones: each is rejected, and outranked by a non-cut vertex
    # of higher degree than its newest vertex
    omitted = 0
    for g in iter_subcubic(EnumSpec(8)):
        auts = automorphisms(g)
        kept = iter(_augmentations(g, auts))
        nxt = next(kept, None)
        for child in reference_augmentations(g, auts):
            if child == nxt:
                nxt = next(kept, None)
                continue
            omitted += 1
            assert not full_labeling_accepted(child), child
            d = child.degree(child.n - 1)
            assert any(child.degree(v) > d and is_connected(delete_vertices(child, 1 << v)[0])
                       for v in range(child.n - 1)), child
        assert nxt is None, g
    assert omitted > 0


def test_new_vertex_c6_check_matches_whole_graph_check():
    # the filter looks only at cycles through the newest vertex, which is
    # exact because the walk extends C6-free graphs only
    failed = 0
    for g in iter_subcubic(EnumSpec(8, no_induced_c6=True)):
        assert has_induced_cycle(g, 6) is None
        for child in reference_augmentations(g, automorphisms(g)):
            cycle = has_induced_cycle(child, 6, through=child.n - 1)
            assert _no_induced_c6(child) == (cycle is None) == (has_induced_cycle(child, 6) is None)
            if cycle is not None:
                failed += 1
                assert cycle[0] == child.n - 1 and len(set(cycle)) == 6
    assert failed > 0


def test_no_duplicates_up_to_7():
    # networkx is the oracle: the enumerator's own canonical labeling also
    # decides p3iso's isomorphism test
    import networkx as nx

    by_order: dict[int, list] = {}
    for g in iter_subcubic(EnumSpec(7)):
        nxg = nx.Graph(g.edges())
        nxg.add_nodes_from(range(g.n))
        by_order.setdefault(g.n, []).append(nxg)
    for n, graphs in by_order.items():
        for a, b in combinations(graphs, 2):
            assert not nx.is_isomorphic(a, b), (n, list(a.edges()), list(b.edges()))


def test_hereditary_filter_agrees_with_post_filtering():
    filtered = list(iter_subcubic(EnumSpec(7, no_induced_c6=True)))
    plain = [g for g in iter_subcubic(EnumSpec(7))
             if has_induced_cycle(g, 6) is None]
    assert len(filtered) == len(plain)
    assert all(has_induced_cycle(g, 6) is None for g in filtered)


def _shard_lines(n, no_c6, mod):
    """graph6 lines delivered over all shards of ``mod``, as a multiset."""
    got: Counter = Counter()
    for res in range(mod):
        spec = EnumSpec(n, no_induced_c6=no_c6, shard=(res, mod))
        enumerate_connected_subcubic(spec, sink=lambda g: got.update([emit_graph6(g)]))
    return got


def _shard_counts(n, no_c6, mod):
    """{order: count} summed over all shards of ``mod``."""
    total: Counter = Counter()
    for res in range(mod):
        total.update(enumerate_connected_subcubic(EnumSpec(n, no_c6, shard=(res, mod))))
    return dict(total)


def test_parallel_matches_serial():
    serial = enumerate_connected_subcubic(EnumSpec(8))
    assert _shard_counts(8, False, 2) == serial
    assert sum(serial.values()) == sum(1 for _ in iter_subcubic(EnumSpec(8)))


def test_parallel_with_filters_matches_serial():
    spec = EnumSpec(7, no_induced_c6=True)
    assert _shard_counts(7, True, 2) == enumerate_connected_subcubic(spec)


@pytest.mark.parametrize("no_c6", [False, True], ids=_walk_id)
def test_parallel_delivers_same_graphs(no_c6):
    # shards are the parallel units: together they deliver the same labeled
    # graphs as the serial walk, each exactly once, at every order
    for n in range(1, 10):
        serial = Counter(emit_graph6(g) for g in iter_subcubic(EnumSpec(n, no_c6)))
        assert len(serial) == sum(serial.values())
        for mod in (1, 2, 3, 7):
            assert _shard_lines(n, no_c6, mod) == serial, (n, mod)


@pytest.mark.extended
@pytest.mark.parametrize("no_c6", [False, True], ids=_walk_id)
def test_shards_deliver_same_graphs_at_11_extended(no_c6):
    serial = Counter(emit_graph6(g) for g in iter_subcubic(EnumSpec(11, no_c6)))
    for mod in (1, 2, 3, 7):
        assert _shard_lines(11, no_c6, mod) == serial, mod


@pytest.mark.parametrize("shard", [(0, 0), (-1, 2), (2, 2), (5, 3)])
def test_shard_validation(shard):
    with pytest.raises(ValueError):
        EnumSpec(5, shard=shard)


def test_canonical_form_is_an_isomorphism_invariant(rng):
    for _ in range(150):
        n = rng.randint(1, 9)
        g = gen.random_subcubic_connected(n, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert canonical_form(g) == canonical_form(h)


def test_canonical_form_separates_classes():
    forms = [canonical_form(g) for g in iter_subcubic(EnumSpec(6))]
    assert len(forms) == len(set(forms))


def test_automorphism_counts():
    assert len(automorphisms(gen.cycle(7))) == 14
    assert len(automorphisms(gen.path(4))) == 2
    assert len(automorphisms(gen.complete(4))) == 24
    # three commuting involutions: flips at the two end triangles plus the
    # global end swap
    assert len(automorphisms(gen.catalog_entry("G15").graph)) == 8
    for a in automorphisms(gen.cycle(5)):
        g = gen.cycle(5)
        for u, v in g.edges():
            assert g.has_edge(a[u], a[v])
