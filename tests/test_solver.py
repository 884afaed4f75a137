import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from p3iso import check, patterns, solver
from p3iso import generators as gen
from p3iso.check import is_isolating
from p3iso.graph_io import parse_graph6
from p3iso.graphcore import Graph, closed_mask, delete_vertices
from p3iso.patterns import contains_copy
from p3iso.solver import Certificate, isolation_number

from conftest import connected_subcubic_upto, sorted_vertex_tuple, spine_tree
from oracles import (brute_iota_p3, brute_min_isolating_sets, closed_nbhd_set,
                     component_sum_iota, random_general_graph, reference_first_isolating_set,
                     reference_packing_lower_bound)

SRC = Path(__file__).resolve().parent.parent / "src"
IOTA_MID = SRC.parent / "bench" / "data" / "iota_mid.json"


def test_is_isolating_examples():
    c7 = gen.cycle(7)
    assert is_isolating(c7, [0, 3])
    assert not is_isolating(c7, [0])
    g = gen.catalog_entry("G11").graph
    assert is_isolating(g, range(g.n))
    for outside in ([7], [0, -1]):  # vertices of C7 are 0..6
        with pytest.raises(ValueError):
            is_isolating(c7, outside)
    # the recheck's own 3-path test agrees with the search's copy finder
    rng = random.Random(26)
    for _ in range(3000):
        g = random_general_graph(rng.randint(1, 9), rng.random(), rng)
        d = [v for v in range(g.n) if rng.random() < 0.25]
        free = g.full_mask() & ~closed_mask(g, sum(1 << v for v in d))
        assert is_isolating(g, d) == (contains_copy(g, within=free) is None)


def test_recheck_catches_a_copy_finder_that_misses(monkeypatch):
    # a copy finder that misses every 3-path in a mask of more than four
    # vertices makes the search return a set that does not isolate; the
    # recheck has its own 3-path test, so it rejects that set
    real = patterns._find_p3
    monkeypatch.setattr(patterns, "_find_p3",
                        lambda g, alive: None if alive.bit_count() > 4 else real(g, alive))
    g = gen.path(9)
    cert = isolation_number(g)
    assert cert.set == (0, 1)
    assert not check.verify_certificate(g, cert)


def test_isolation_number_catalog_values():
    assert isolation_number(gen.catalog_entry("G73").graph).value == 2
    assert isolation_number(gen.catalog_entry("G15").graph).value == 4
    assert isolation_number(Graph.empty(1)).value == 0
    for e in gen.catalog():
        assert isolation_number(e.graph).value == (e.order + 1) // 4


def test_isolation_number_c6_via_oracle():
    c6 = gen.cycle(6)
    assert brute_iota_p3(c6) == 2
    cert = isolation_number(c6)
    assert cert.value == 2 and cert.exact
    assert is_isolating(c6, cert.set)


def test_budget_exceeded_is_a_result():
    c7 = gen.cycle(7)
    cert = isolation_number(c7, budget=1)
    assert not cert.exact and cert.value == 2
    assert is_isolating(c7, cert.set)  # the trivial full set still isolates
    assert cert.set == tuple(range(7)) and sorted_vertex_tuple(cert, 7)
    cert = isolation_number(c7, budget=2)
    assert cert.exact and cert.value == 2


def test_negative_budget_is_refused():
    # no certificate could state "exceeds a budget of -1" and still verify
    with pytest.raises(ValueError):
        isolation_number(gen.cycle(7), budget=-1)
    cert = isolation_number(gen.cycle(7), budget=0)
    assert not cert.exact and cert.value == 1


def test_p3_is_the_only_family():
    c7 = gen.cycle(7)
    calls = [lambda: isolation_number(c7, "k2"),
             # the packing bound exceeds the budget, so no copy is searched:
             # the family is checked before the bound is taken
             lambda: isolation_number(c7, "k2", budget=0)]
    for call in calls:
        with pytest.raises(ValueError, match="P3"):
            call()


def test_deep_search_needs_no_recursion_depth():
    # the search keeps its own stack: iota(P_1100) = 220 is 220 levels deep,
    # well past a recursion limit of 120
    script = ("import sys\n"
              "from p3iso import generators as gen\n"
              "from p3iso.solver import isolation_number\n"
              "sys.setrecursionlimit(120)\n"
              "print(isolation_number(gen.path(1100), canonical=False).value)\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "220"


def test_certificate_is_lexicographically_smallest(rng):
    graphs = [gen.cycle(6), gen.cycle(9), gen.catalog_entry("G72").graph,
              gen.construction_B_p3(9)]
    graphs += [gen.random_subcubic_connected(rng.randint(6, 12), rng) for _ in range(150)]
    for g in graphs:
        cert = isolation_number(g)
        sets = brute_min_isolating_sets(g, cert.value)  # in lexicographic order
        assert cert.set == sets[0]
        # started from the largest minimum set, the scan below the witness
        # runs at every position and must still reach the smallest one
        if cert.value:
            last = sum(1 << v for v in sets[-1])
            assert solver._Search(g).lex_min(cert.value, last) == sum(1 << v for v in sets[0])


def test_minimality_recheck_against_subset_scan(rng):
    for _ in range(500):
        g = gen.random_subcubic_connected(rng.randint(1, 10), rng)
        cert = isolation_number(g)
        assert cert.value == brute_iota_p3(g)
        if cert.value > 0:
            assert not brute_min_isolating_sets(g, cert.value - 1)


def test_differential_against_brute_force(rng):
    # general graphs: disconnected, dense and of any degree
    for _ in range(300):
        g = random_general_graph(rng.randint(1, 9), rng.uniform(0.1, 0.8), rng)
        value = brute_iota_p3(g)
        cert = isolation_number(g)
        assert cert.exact and cert.value == value, list(g.edges())
        assert cert.set == min(brute_min_isolating_sets(g, value))
        for budget in range(value):
            low = isolation_number(g, budget=budget)
            assert not low.exact and low.value == budget + 1
            assert sorted_vertex_tuple(low, g.n)
        plain = isolation_number(g, canonical=False)
        assert plain.exact and plain.value == len(plain.set) == value
        assert sorted_vertex_tuple(plain, g.n)
        assert is_isolating(g, plain.set)


def test_first_found_set_matches_unpruned_search(rng):
    # the memo, the packing bound and the dominance skip only cut subtrees
    # that fail, so the plain search returns the unpruned search's first set
    graphs = [random_general_graph(rng.randint(1, 9), rng.uniform(0.1, 0.8), rng)
              for _ in range(300)]
    graphs += [gen.random_subcubic_connected(rng.randint(1, 14), rng) for _ in range(200)]
    for g in graphs:
        want = reference_first_isolating_set(g)
        plain = isolation_number(g, canonical=False)
        assert (plain.set, plain.value, plain.exact) == want, list(g.edges())
        for budget in range(want[1]):
            low = isolation_number(g, budget=budget, canonical=False)
            assert (low.set, low.value, low.exact) == reference_first_isolating_set(g, budget)


def test_packing_bound_matches_per_offer_scan(rng):
    for _ in range(300):
        if rng.random() < 0.5:
            g = random_general_graph(rng.randint(1, 12), rng.uniform(0.1, 0.9), rng)
        else:
            g = gen.random_subcubic_connected(rng.randint(1, 20), rng)
        search = solver._Search(g)
        full = g.full_mask()
        for _ in range(10):
            alive = rng.getrandbits(g.n) if rng.random() < 0.8 else full
            hub, window, bound = search.scan(alive, alive, g.n)
            assert hub == sum(1 << v for v in range(g.n) if alive >> v & 1
                              and (g.rows[v] & alive).bit_count() >= 2)
            assert bound == reference_packing_lower_bound(g, alive)
            assert contains_copy(g, within=window) == contains_copy(g, within=alive)
            # any start mask between the hub and alive reads the same
            near = hub | (alive & rng.getrandbits(g.n))
            assert search.scan(alive, near, g.n) == (hub, window, bound)
            # stopped at a cap, the count exceeds it exactly when the full one does
            for cap in range(bound + 2):
                capped = search.scan(alive, hub, cap)[2]
                assert (capped > cap) == (bound > cap)
                assert capped == bound or capped == cap + 1


def test_ranked_offers(rng):
    # the offers come in one list, in ascending (|N[copy]|, center); at any
    # alive mask each hub center with at most one dead end has exactly one
    # live offer and no other center has one; and the walk stopped at
    # cap + 1 reads the reference bound capped the same way. General graphs
    # reach centers of degree above 3
    graphs = [random_general_graph(rng.randint(1, 12), rng.uniform(0.1, 0.9), rng)
              for _ in range(300)]
    graphs += [gen.random_subcubic_connected(rng.randint(1, 20), rng) for _ in range(150)]
    for g in graphs:
        search = solver._Search(g)
        keys = [(hood.bit_count(), cbit.bit_length()) for hood, cbit, _, _ in search.ranked]
        assert keys == sorted(keys)
        for _ in range(10):
            alive = rng.getrandbits(g.n)
            hub = search.scan(alive, alive, g.n)[0]
            for c in range(g.n):
                offers = [(ends, need) for _, cbit, ends, need in search.ranked
                          if cbit == 1 << c]
                live = [need for ends, need in offers
                        if alive >> c & 1 and ends & ~alive == need]
                at_most_one_dead = offers and (offers[0][0] & ~alive).bit_count() <= 1
                assert len(live) == (1 if hub >> c & 1 and at_most_one_dead else 0), \
                    (list(g.edges()), alive, c)
            want = reference_packing_lower_bound(g, alive)
            for cap in range(want + 2):
                assert search.scan(alive, hub, cap)[2] == min(want, cap + 1)


def _counted_solve(monkeypatch, g, reference=False, **kwargs):
    """(certificate, contains_copy calls) of ``isolation_number(g, **kwargs)``;
    with ``reference``, searched by ``oracles.WholeMaskSearch``."""
    # the solver calls contains_copy once per search node
    module = oracles if reference else solver
    calls = 0
    real = module.contains_copy

    def counted(*args, **kw):
        nonlocal calls
        calls += 1
        return real(*args, **kw)

    monkeypatch.setattr(module, "contains_copy", counted)
    if reference:
        monkeypatch.setattr(solver, "_Search", oracles.WholeMaskSearch)
    cert = isolation_number(g, **kwargs)
    monkeypatch.undo()
    return cert, calls


def test_search_node_regression_guard(monkeypatch):
    # exact counts: fewer nodes is a change of search, and none at all is a
    # search that stopped counting
    assert _counted_solve(monkeypatch, gen.construction_B_p3(26))[1] == 7
    assert _counted_solve(monkeypatch, spine_tree(8))[1] == 16
    # the canonical solve probes only candidates below its witness's next vertex
    assert _counted_solve(monkeypatch, gen.path(300))[1] == 298
    items = json.loads(IOTA_MID.read_text(encoding="ascii"))
    nodes = [_counted_solve(monkeypatch, parse_graph6(it["graph6"]))[1] for it in items]
    assert nodes == [389, 74, 211, 220, 994, 80, 7, 7]


def _assert_same_search(monkeypatch, g):
    """Plain, lex-min and below-iota budgeted certificates, and the search
    nodes of each, match the whole-mask reference search."""
    solves = [{}, {"canonical": False}]
    for kwargs in solves:
        got = _counted_solve(monkeypatch, g, **kwargs)
        assert got == _counted_solve(monkeypatch, g, reference=True, **kwargs), \
            (kwargs, list(g.edges()))
        if not kwargs and got[0].value:
            solves.append({"budget": got[0].value - 1})


def test_hub_search_matches_whole_mask_search(rng, monkeypatch):
    # eligible graphs of order >= 16 have many alive vertices outside the
    # hub; general graphs reach centers of degree above 3 and disconnected
    # alive masks
    for _ in range(25):
        _assert_same_search(monkeypatch, gen.random_eligible_graph(rng.randint(16, 60), rng))
    for _ in range(150):
        _assert_same_search(monkeypatch, random_general_graph(
            rng.randint(1, 14), rng.uniform(0.1, 0.8), rng))


@pytest.mark.extended
def test_hub_search_matches_whole_mask_search_extended(monkeypatch):
    # solve times at orders 61-100 have a heavy tail (one order-80 graph
    # takes 20 s); this seed's five graphs take seconds
    rng = random.Random(1)
    for _ in range(5):
        _assert_same_search(monkeypatch, gen.random_eligible_graph(rng.randint(61, 100), rng))


def test_additivity_examples():
    two_c7 = gen.disjoint_union(gen.cycle(7), gen.cycle(7))
    assert isolation_number(two_c7).value == component_sum_iota(two_c7).value == 4
    assert component_sum_iota(Graph.empty(5)).value == 0
    c7_k1 = gen.disjoint_union(gen.cycle(7), Graph.empty(1))
    assert isolation_number(c7_k1).value == component_sum_iota(c7_k1).value == 2


def test_additivity_matches_plain_on_unions(rng):
    pool = connected_subcubic_upto(5)
    for _ in range(80):
        g = rng.choice(pool)
        for _ in range(rng.randint(1, 2)):
            g = gen.disjoint_union(g, rng.choice(pool))
        add = component_sum_iota(g)
        assert add.value == isolation_number(g).value
        assert is_isolating(g, add.set) and len(add.set) == add.value
        assert sorted_vertex_tuple(add, g.n)


def test_union_bound_lemma(rng):
    # iota(G) <= |X| + iota(G - Y) whenever Y is inside N[X]
    for _ in range(150):
        g = gen.random_subcubic_connected(rng.randint(2, 10), rng)
        x = [v for v in range(g.n) if rng.random() < 0.3]
        hood = sorted(closed_nbhd_set(g, x))
        y = sum(1 << v for v in hood if rng.random() < 0.7)
        sub, _ = delete_vertices(g, y)
        assert isolation_number(g).value <= len(x) + isolation_number(sub).value


def test_small_graph_lemmas_subcubic():
    for g in connected_subcubic_upto(8):
        iota = isolation_number(g, budget=2, canonical=False).value
        if g.n <= 5:
            assert iota <= 1
        assert iota <= 2


def test_two_sevenths_spot_check():
    from p3iso.patterns import catalog_match, is_isomorphic

    for g in connected_subcubic_upto(9):
        if g.n < 3:
            continue
        if catalog_match(g) in ("P3", "C3"):
            continue
        if g.n == 6 and is_isomorphic(g, gen.cycle(6)):
            continue
        assert isolation_number(g, budget=3, canonical=False).value * 7 <= 2 * g.n


def test_exact_certificates_verify(rng):
    for _ in range(60):
        g = gen.random_subcubic_connected(rng.randint(2, 12), rng)
        cert = isolation_number(g)
        assert isinstance(cert, Certificate)
        assert is_isolating(g, cert.set)
        assert len(cert.set) == cert.value and cert.exact
        assert sorted_vertex_tuple(cert, g.n)
