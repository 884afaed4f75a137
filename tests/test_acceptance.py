"""Acceptance suite: the eight exit criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
Criteria needing an order-10/11 corpus are marked ``extended`` (deselected
by default); the streamed order-11 criterion skips, not fails, when the
P3ISO_N11_G6 corpus file is not provided.
"""

import functools
import os
import random
import time
from itertools import combinations_with_replacement

import pytest

from p3iso import generators as gen
from p3iso.check import is_isolating, verify_certificate
from p3iso.constructive import isolate_p3_subcubic, path_cycle_isolating_set
from p3iso.enumeration import EnumSpec, iter_subcubic
from p3iso.graph_io import emit_graph6, parse_graph6
from p3iso.graphcore import Graph, delete_vertices, is_connected
from p3iso.patterns import catalog_match, has_induced_cycle
from p3iso.solver import _Search, isolation_number
from p3iso.verify import check_observations, verify_enumerated, verify_stream

from conftest import atlas_by_order, spine_tree
from oracles import closed_nbhd_set, component_sum_iota, encode_graph6_reference


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} FAIL: {desc}")
                raise
            print(f"ACCEPTANCE {num} PASS: {desc}")
        return wrapper
    return deco


@criterion(1, "catalog reproduction: 12 graphs, documented properties, iota=(n+1)/4")
def test_criterion_1_catalog():
    gen.catalog.cache_clear()
    t0 = time.monotonic()
    cat = gen.catalog()  # the load self-check re-verifies every property
    assert len(cat) == 12
    expected = {3: 1, 7: 2, 11: 3, 15: 4}
    for e in cat:
        assert is_connected(e.graph)
        assert e.graph.max_degree() <= 3
        assert has_induced_cycle(e.graph, 6) is None
        assert isolation_number(e.graph).value == expected[e.order] == (e.order + 1) // 4
    assert sorted(e.order for e in cat) == [3, 3] + [7] * 7 + [11, 11, 15]
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"catalog checks took {elapsed:.1f}s"


@criterion(2, "sharpness families: iota(B_n) = floor(n/4) for 4 <= n <= 20, "
              "and eligible spine trees of order 4k with iota = k for 2 <= k <= 8")
def test_criterion_2_sharpness():
    t0 = time.monotonic()
    for n in range(4, 21):
        cert = isolation_number(gen.construction_B_p3(n))
        assert cert.exact and cert.value == n // 4, n
    # B_n is not subcubic from order 8 on; the spine trees are in the class
    for k in range(2, 9):
        g = spine_tree(k)
        assert g.max_degree() <= 3 and is_connected(g), k
        assert has_induced_cycle(g, 6) is None and catalog_match(g) is None, k
        cert = isolation_number(g)
        assert cert.exact and cert.value == k == g.n // 4, k
        assert _Search(g).lower_bound() == k, k  # the packing bound
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"sharpness sweep took {elapsed:.1f}s"


EXPECTED_EXCEPTIONS = {
    3: {"C3": 1, "P3": 1},
    7: {"C7": 1, "G71": 1, "G72": 1, "G73": 1, "G74": 1, "G75": 1, "G76": 1},
    11: {"C11": 1, "G11": 1},
}


@criterion(3, "exhaustive bound check n <= 9: exceptions exactly the catalog")
def test_criterion_3_exhaustive_to_9():
    t0 = time.monotonic()
    report = verify_enumerated(9)
    assert report.passed
    for n, row in report.rows.items():
        assert row.violations == []
        assert row.exceptions == EXPECTED_EXCEPTIONS.get(n, {}), n
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"sweep took {elapsed:.1f}s"


@pytest.mark.extended
@criterion(3, "exhaustive bound check, order 10 (flag-gated)")
def test_criterion_3_order_10_extended():
    report = verify_enumerated(10)
    assert report.passed
    assert report.rows[10].exceptions == {}
    assert report.rows[10].eligible > 0


@pytest.mark.extended
@pytest.mark.skipif("P3ISO_N11_G6" not in os.environ,
                    reason="no external order-11 graph6 corpus provided")
@criterion(4, "streamed order-11 corpus: exceptions exactly C11 and G11")
def test_criterion_4_streamed_order_11():
    with open(os.environ["P3ISO_N11_G6"]) as fh:
        report = verify_stream(fh)
    assert report.passed
    assert report.rows[11].exceptions == {"C11": 1, "G11": 1}


@pytest.mark.extended
@criterion(4, "self-enumerated order-11 check: exceptions exactly C11 and G11")
def test_criterion_4_self_enumerated_order_11():
    # the paper-scale corpus is optional; in-repo enumeration reaches 11
    report = verify_enumerated(11)
    assert report.passed
    assert report.rows[11].exceptions == {"C11": 1, "G11": 1}
    assert report.rows[10].exceptions == {}


@criterion(5, "constructive soundness: all eligible n <= 9 plus 1000 random, no raise")
def test_criterion_5_constructive():
    case_histogram: dict[str, int] = {}

    def drive(g):  # a failed case raises InternalCaseExhausted and fails the test
        cert, trace = isolate_p3_subcubic(g)
        assert verify_certificate(g, cert)
        assert len(cert.set) <= g.n // 4
        for c in trace.case_ids():
            case_histogram[c] = case_histogram.get(c, 0) + 1
        subs = [s.detail.get("subcase") for s in trace.steps if "subcase" in s.detail]
        for s in subs:
            case_histogram[f"sub:{s}"] = case_histogram.get(f"sub:{s}", 0) + 1

    for g in iter_subcubic(EnumSpec(9)):
        if has_induced_cycle(g, 6) is None and catalog_match(g) is None:
            drive(g)

    rng = random.Random(0xD15C0)
    for _ in range(1000):
        n = rng.randint(16, 60)
        drive(gen.random_eligible_graph(n, rng))

    print("  constructive case coverage:",
          {k: v for k, v in sorted(case_histogram.items())})


@criterion(6, "lemma suite: small-order bounds, closed forms, additivity, union bound")
def test_criterion_6_lemmas():
    atlas = atlas_by_order()

    # iota <= 1 for every graph on at most 5 vertices (all graphs, not just
    # subcubic; the atlas is complete per isomorphism class)
    for n in range(1, 6):
        for g in atlas[n]:
            assert isolation_number(g, budget=1, canonical=False).value <= 1

    # iota <= 2 for every graph on at most 8 vertices: exhaustive over
    # connected subcubic, sampled over general
    for g in iter_subcubic(EnumSpec(8)):
        assert isolation_number(g, budget=2, canonical=False).value <= 2
    rng = random.Random(88)
    for _ in range(10_000):
        g = gen.random_general_graph(rng.randint(1, 8), rng.random(), rng)
        assert isolation_number(g, budget=2, canonical=False).value <= 2

    # closed-form path/cycle sets are valid isolating sets up to n = 40
    for n in range(1, 41):
        assert is_isolating(gen.path(n), path_cycle_isolating_set(n, "path").set)
        if n >= 3:
            cert = path_cycle_isolating_set(n, "cycle")
            assert is_isolating(gen.cycle(n), cert.set)
            assert len(cert.set) == (n + 4) // 5

    # additivity over components equals the direct value on all graphs of
    # order <= 7 (atlas, disconnected included), every disconnected graph of
    # order 8 (assembled from connected atlas parts), every connected
    # subcubic graph of order 8, and random connected general graphs
    def assert_additive(g):
        direct = isolation_number(g, canonical=False)
        split = component_sum_iota(g)
        assert split.value == direct.value
        assert is_isolating(g, split.set)

    for n in range(1, 8):
        for g in atlas[n]:
            assert_additive(g)

    connected_by_order = {
        n: [g for g in atlas[n] if is_connected(g)] for n in range(1, 8)
    }

    def partitions(total, cap):
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    for part in partitions(8, 7):
        if len(part) < 2:
            continue
        groups = {}
        for p in part:
            groups[p] = groups.get(p, 0) + 1
        choices_per_order = [
            list(combinations_with_replacement(connected_by_order[p], c))
            for p, c in sorted(groups.items())
        ]

        def walk(i, acc):
            if i == len(choices_per_order):
                g = acc[0]
                for h in acc[1:]:
                    g = gen.disjoint_union(g, h)
                assert_additive(g)
                return
            for combo in choices_per_order[i]:
                walk(i + 1, acc + list(combo))

        walk(0, [])

    for g in iter_subcubic(EnumSpec(8)):
        if g.n == 8:
            assert_additive(g)
    for _ in range(300):
        g = gen.random_general_graph(8, rng.uniform(0.15, 0.5), rng)
        if is_connected(g):
            assert_additive(g)

    # union bound: iota(G) <= |X| + iota(G - Y) for Y inside N[X]
    for _ in range(1000):
        g = gen.random_general_graph(rng.randint(1, 10), rng.uniform(0.1, 0.5), rng)
        x = [v for v in range(g.n) if rng.random() < 0.25]
        y = sum(1 << v for v in closed_nbhd_set(g, x) if rng.random() < 0.6)
        sub, _ = delete_vertices(g, y)
        assert isolation_number(g, canonical=False).value <= \
            len(x) + isolation_number(sub, canonical=False).value


@criterion(7, "observation suite: every documented catalog property holds")
def test_criterion_7_observations():
    results = check_observations()
    failed = [(r.name, r.message) for r in results if not r.passed]
    assert not failed, failed


@criterion(8, "graph6 round-trip: 10^4 random graphs plus pinned decodings")
def test_criterion_8_graph6():
    # format-oracle confirmation precedes the frozen assertions
    assert encode_graph6_reference(Graph.empty(0)) == "?"
    assert encode_graph6_reference(gen.complete(3)) == "Bw"
    assert encode_graph6_reference(gen.path(3)) == "Bg"
    assert parse_graph6("?").n == 0
    assert parse_graph6("Bw") == gen.complete(3)
    assert parse_graph6("Bg") == gen.path(3)

    for e in gen.catalog():
        assert parse_graph6(emit_graph6(e.graph)) == e.graph

    rng = random.Random(0x6E6)
    for _ in range(10_000):
        n = rng.randint(0, 62)
        if rng.random() < 0.5:
            g = gen.random_general_graph(n, rng.random(), rng)
        else:
            g = gen.random_subcubic_connected(max(n, 1), rng)
        line = emit_graph6(g)
        assert parse_graph6(line) == g
        assert line == encode_graph6_reference(g)
