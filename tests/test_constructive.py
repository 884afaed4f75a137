import ast
import hashlib
import itertools
import json
import random
import sys
import time
import types
from pathlib import Path

import pytest

from p3iso import constructive, patterns, solver
from p3iso import generators as gen
from p3iso.check import is_isolating, verify_certificate
from p3iso.constructive import (InternalCaseExhausted, PreconditionViolated,
                                isolate_p3_subcubic, path_cycle_isolating_set)
from p3iso.enumeration import EnumSpec, iter_subcubic
from p3iso.graphcore import (Graph, bit_indices, closed_mask, connected_within,
                             delete_vertices, distance, split_off)
from p3iso.solver import Certificate, isolation_number

from conftest import connected_subcubic_upto, sorted_vertex_tuple
from p3iso.patterns import catalog_match, has_induced_cycle


def path_edges(a, b):
    return [(a + i, a + i + 1) for i in range(b - a)]


def cat_edges(cid, base):
    return [(u + base, v + base) for u, v in gen.catalog_entry(cid).graph.edges()]


def check(g, want_case=None, want_sub=None):
    cert, trace = isolate_p3_subcubic(g)
    assert verify_certificate(g, cert) and sorted_vertex_tuple(cert, g.n)
    assert len(cert.set) <= g.n // 4
    if want_case:
        assert want_case in trace.case_ids(), trace.case_ids()
    if want_sub:
        subs = [s.detail.get("subcase") for s in trace.steps]
        assert want_sub in subs, subs
    # trace bookkeeping: removed sets partition the vertex set, and the
    # chosen sets aggregate to at most floor(n/4)
    seen = []
    for step in trace.steps:
        seen.extend(step.removed)
    assert sorted(seen) == list(range(g.n))
    assert sum(len(s.chosen) for s in trace.steps) <= g.n // 4
    # every removed vertex is dominated by the final set or explicitly
    # recorded by its step as a deliberate leftover survivor
    d_bits = 0
    for v in cert.set:
        d_bits |= 1 << v
    dominated = closed_mask(g, d_bits)
    for step in trace.steps:
        if step.case_id in ("Base<=15", "Delta<=2-Path", "Delta<=2-Cycle"):
            continue
        leftovers = set(step.detail.get("leftover", []))
        for v in step.removed:
            assert (dominated >> v) & 1 or v in leftovers, (step, v)
    return cert, trace


# -- preconditions ------------------------------------------------------------


def test_preconditions():
    with pytest.raises(PreconditionViolated) as exc:
        isolate_p3_subcubic(gen.catalog_entry("G15").graph)
    assert exc.value.reason == "ExceptionalGraph"
    with pytest.raises(PreconditionViolated) as exc:
        isolate_p3_subcubic(gen.cycle(6))
    assert exc.value.reason == "InducedC6"
    with pytest.raises(PreconditionViolated) as exc:
        isolate_p3_subcubic(gen.disjoint_union(gen.path(2), gen.path(2)))
    assert exc.value.reason == "NotConnected"
    star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
    with pytest.raises(PreconditionViolated) as exc:
        isolate_p3_subcubic(star)
    assert exc.value.reason == "NotSubcubic"


def test_extremal_family_is_not_subcubic():
    # the spine-with-copies family exceeds degree 3 from order 8 on, so the
    # constructive algorithm correctly refuses it (its iota is still n//4,
    # which the exact solver confirms elsewhere)
    with pytest.raises(PreconditionViolated) as exc:
        isolate_p3_subcubic(gen.construction_B_p3(16))
    assert exc.value.reason == "NotSubcubic"


# -- closed forms ---------------------------------------------------------------


def test_path_formula_positions():
    cert = path_cycle_isolating_set(9, "path")
    assert sorted(v + 1 for v in cert.set) == [4, 8]
    assert is_isolating(gen.path(9), cert.set)


def test_cycle_formula_positions():
    cert = path_cycle_isolating_set(13, "cycle")
    assert sorted(v + 1 for v in cert.set) == [1, 6, 11]
    assert len(cert.set) == 3 and 3 * 4 <= 13


def test_path3_defers_to_solver():
    cert = path_cycle_isolating_set(3, "path")
    assert cert.exact and cert.value == 1 and len(cert.set) == 1


def test_formula_sets_valid_up_to_40():
    for n in range(1, 41):
        cert = path_cycle_isolating_set(n, "path")
        assert is_isolating(gen.path(n), cert.set) and sorted_vertex_tuple(cert, n)
        assert len(cert.set) <= max(1, n // 4)
        if n >= 3:
            cert = path_cycle_isolating_set(n, "cycle")
            assert is_isolating(gen.cycle(n), cert.set) and sorted_vertex_tuple(cert, n)
            assert len(cert.set) == (n + 4) // 5
            if n not in (3, 6, 7, 11):
                assert 4 * len(cert.set) <= n


def test_cycle_formula_matches_exact_value_conjecture():
    # ceil(n/5) appears to be exact for cycles; tested, not contracted
    for n in range(3, 26):
        assert isolation_number(gen.cycle(n)).value == -(-n // 5)


def test_bad_kind_and_order():
    with pytest.raises(ValueError):
        path_cycle_isolating_set(5, "clique")
    with pytest.raises(gen.BadOrder):
        path_cycle_isolating_set(0, "path")
    with pytest.raises(gen.BadOrder):
        path_cycle_isolating_set(2, "cycle")


# -- verify_certificate ----------------------------------------------------------


def test_verify_certificate():
    # the benchmark calls the recheck by its constructive name
    assert constructive.verify_certificate is verify_certificate
    c12 = gen.cycle(12)
    cert, _ = isolate_p3_subcubic(c12)
    assert verify_certificate(c12, cert)
    smaller = cert.set[:-1]
    assert not verify_certificate(c12, Certificate(smaller, cert.value, False, 12))
    edgeless = Graph.empty(4)
    assert verify_certificate(edgeless, Certificate((), 0, True, 4))
    assert not verify_certificate(gen.cycle(11), cert)  # wrong graph order
    # each bad set below isolates C12 within its value once the check at
    # fault is left out: the order, the range, then repetition
    full = tuple(range(12))
    assert verify_certificate(c12, Certificate(full, 12, False, 12))
    assert not verify_certificate(c12, Certificate(cert.set, cert.value, False, 13))
    assert not verify_certificate(c12, Certificate(full[:-1] + (12,), 12, False, 12))
    assert not verify_certificate(c12, Certificate((-1,) + full[1:], 12, False, 12))
    twice = cert.set + cert.set[:1]
    assert not verify_certificate(c12, Certificate(twice, len(twice), False, 12))
    # a vertex that is not an int is rejected, not raised on
    c7 = gen.cycle(7)
    assert verify_certificate(c7, Certificate((1, 4), 2, False, 7))
    for bad in [(1.0, 4.0), ("1", 4), (True, 4)]:
        assert not verify_certificate(c7, Certificate(bad, 2, False, 7)), bad


# -- spec examples ----------------------------------------------------------------


def test_isolate_c12_and_c15():
    cert, _ = check(gen.cycle(12))
    assert len(cert.set) <= 3
    cert, _ = check(gen.cycle(15))
    assert len(cert.set) <= 3  # C15 is not exceptional


def test_isolate_all_small_eligible():
    for g in connected_subcubic_upto(8):
        if has_induced_cycle(g, 6) is not None or catalog_match(g) is not None:
            continue
        check(g)


# -- targeted constructions driving every named case ------------------------------

FRAME = [(0, 1), (0, 2), (0, 3)]


def targeted_graphs():
    """(name, graph, expected case id, expected subcase) for each proof branch."""
    out = []
    c7 = [(i, i + 1) for i in range(4, 10)] + [(4, 10)]
    c11 = [(i, i + 1) for i in range(4, 14)] + [(4, 14)]

    out.append(("case1-two-on-x", Graph.from_edges(16, FRAME + [
        (4, 5), (5, 6), (1, 4), (7, 8), (7, 9), (8, 9), (1, 7), (2, 10)]
        + path_edges(10, 15)), "Case1", None))
    out.append(("case1-with-X", Graph.from_edges(19, FRAME + [
        (4, 5), (5, 6), (1, 4), (7, 8), (7, 9), (8, 9), (1, 7), (2, 10),
        (10, 11), (11, 12), (3, 13)] + path_edges(13, 18)), "Case1", None))

    out.append(("case21-plain", Graph.from_edges(16, FRAME + c7 + [
        (1, 4), (2, 11), (3, 15)] + path_edges(11, 14)), "Case2.1", None))
    out.append(("case21-exceptional-rest", Graph.from_edges(16, FRAME + c7 + [
        (1, 4), (1, 15), (2, 11)] + path_edges(11, 14) + [(14, 3)]),
        "Case2.1", None))

    out.append(("case221-triangle-type", Graph.from_edges(19, FRAME +
        cat_edges("G15", 4) + [(1, 4), (2, 8)]), "Case2.2.1", None))
    out.append(("case221-needs-swap", Graph.from_edges(19, FRAME +
        cat_edges("G15", 4) + [(1, 8), (2, 12)]), "Case2.2.1", None))

    out.append(("case222-g11", Graph.from_edges(17, FRAME + cat_edges("G11", 4) +
        [(1, 8), (2, 11), (3, 15), (15, 16)]), "Case2.2.2", "G11"))
    out.append(("case222-c11-connected", Graph.from_edges(17, FRAME + c11 +
        [(1, 4), (2, 9), (3, 15), (15, 16)]), "Case2.2.2", "C11-connected"))
    out.append(("case222-c11-disconnected", Graph.from_edges(17, FRAME + c11 +
        [(1, 4), (2, 5), (3, 15), (15, 16)]), "Case2.2.2", "C11-disconnected"))
    out.append(("case222-c11-swap", Graph.from_edges(17, FRAME + c11 +
        [(1, 4), (2, 5), (1, 15), (15, 16)]), "Case2.2.2", "C11-disconnected"))

    out.append(("case223-g71", Graph.from_edges(17, FRAME + cat_edges("G71", 4) +
        [(1, 4), (2, 7)] + path_edges(11, 16) + [(3, 11)]), "Case2.2.3", "G71"))
    out.append(("case223-g75", Graph.from_edges(17, FRAME + cat_edges("G75", 4) +
        [(1, 4), (2, 7)] + path_edges(11, 16) + [(3, 11)]), "Case2.2.3", "G75"))
    out.append(("case223-c7-connected", Graph.from_edges(16, FRAME + c7 +
        [(1, 4), (2, 7), (3, 11)] + path_edges(11, 15)), "Case2.2.3",
        "C7-connected"))
    out.append(("case223-c7-disconnected", Graph.from_edges(16, FRAME + c7 +
        [(1, 4), (2, 5), (3, 11)] + path_edges(11, 15)), "Case2.2.3",
        "C7-disconnected"))
    out.append(("case223-c7-then-c7", Graph.from_edges(16, FRAME + c7 +
        [(1, 4), (2, 5), (1, 15), (2, 11)] + path_edges(11, 14) + [(14, 3)]),
        "Case2.2.3", "C7-disconnected-C7"))
    g11map = {1: 11, 2: 12, 3: 13, 4: 14, 5: 2, 6: 0, 7: 3, 8: 15, 9: 16,
              10: 17, 11: 18}
    g11e = [(g11map[u + 1], g11map[v + 1])
            for u, v in gen.catalog_entry("G11").graph.edges()]
    out.append(("case223-c7-then-g11-reentry", Graph.from_edges(20,
        [(0, 1)] + g11e + c7 + [(1, 4), (2, 5), (1, 19)]), "Case2.2.2",
        "C7-disconnected-reenter"))

    h1mid = [(4, 5), (4, 6), (1, 4), (2, 5)]  # 3-path 5-4-6, middle attached
    out.append(("case224-deg2-plain", Graph.from_edges(17, FRAME + h1mid +
        [(1, 7)] + path_edges(7, 14) + [(3, 15), (15, 16)]), "Case2.2.4",
        "deg2-attached"))
    out.append(("case224-deg2-small-gv", Graph.from_edges(16, FRAME + h1mid +
        [(1, 7)] + path_edges(7, 15)), "Case2.2.4", "deg2-attached-small-gv"))
    out.append(("case224-deg2-x1p-ystar", Graph.from_edges(19, FRAME + h1mid +
        [(2, 6), (1, 7)] + path_edges(7, 18)), "Case2.2.4",
        "deg2-attached-x1p-ystar"))
    out.append(("case224-deg2-r0-triangle", Graph.from_edges(19, FRAME +
        [(4, 5), (4, 6), (5, 6), (1, 4), (2, 5), (1, 7)] + path_edges(7, 18)),
        "Case2.2.4", "deg2-attached-r0-y1p"))
    out.append(("case224-deg2-r0-path", Graph.from_edges(19, FRAME + h1mid +
        [(1, 7)] + path_edges(7, 18)), "Case2.2.4", "deg2-attached-r0-y1p"))
    out.append(("case224-deg2-r0-wy1p", Graph.from_edges(19, FRAME + h1mid +
        [(3, 6), (3, 5), (1, 7)] + path_edges(7, 18)), "Case2.2.4",
        "deg2-attached-r0-wy1p"))
    out.append(("case224-deg2-r0-x1pw", Graph.from_edges(19, FRAME + h1mid +
        [(3, 6), (2, 3), (1, 7)] + path_edges(7, 18)), "Case2.2.4",
        "deg2-attached-r0-x1pw"))
    out.append(("case224-deg2-c7-reentry", Graph.from_edges(16, FRAME + h1mid +
        [(1, 11), (2, 7)] + path_edges(7, 10) + [(10, 3)] + path_edges(11, 15)),
        "Case2.2.4", "deg2-attached-reenter"))

    h1end = [(4, 5), (5, 6), (1, 4), (2, 4)]  # 3-path 4-5-6, end 4 doubly attached
    out.append(("case224-double-gv-p3", Graph.from_edges(17, FRAME + h1end +
        [(3, 7), (1, 8)] + path_edges(8, 12) + [(2, 13)] + path_edges(13, 16)),
        "Case2.2.4", "double-attachment-P3"))
    g71m = {1: 0, 7: 3, 2: 7, 6: 8, 3: 9, 4: 10, 5: 11}
    g71e = [(g71m[u + 1], g71m[v + 1])
            for u, v in gen.catalog_entry("G71").graph.edges()]
    out.append(("case224-double-gv-g71", Graph.from_edges(17,
        [(0, 1), (0, 2)] + h1end + [(1, 12)] + g71e + path_edges(12, 16)),
        "Case2.2.4", "double-attachment-G71"))
    out.append(("case224-double-plain", Graph.from_edges(17, FRAME + h1end +
        [(3, 7)] + path_edges(7, 12) + [(1, 13)] + path_edges(13, 16)),
        "Case2.2.4", "double-attachment"))

    out.append(("case224-ends", Graph.from_edges(16, FRAME +
        [(4, 5), (5, 6), (1, 4), (2, 6), (1, 2), (3, 7)] + path_edges(7, 15)),
        "Case2.2.4", "ends-x1x1p-edge"))
    out.append(("case224-ends-c11-wside", Graph.from_edges(17, FRAME +
        [(4, 5), (5, 6), (1, 4), (2, 6), (1, 2), (3, 7)] + path_edges(7, 16) +
        [(16, 3)]), "Case2.2.4", "ends-x1x1p-edge"))
    return out


@pytest.mark.parametrize("name,g,case,sub",
                         targeted_graphs(),
                         ids=[t[0] for t in targeted_graphs()])
def test_targeted_case(name, g, case, sub):
    check(g, want_case=case, want_sub=sub)


def c11_mirror_graph():
    # x1' attaches at psi[10], not psi[1], so the C11-disconnected step takes
    # the mirrored D' = {psi[0], psi[5], psi[10]}; kept out of
    # targeted_graphs(), whose names are the golden fixture's keys
    c11 = [(i, i + 1) for i in range(4, 14)] + [(4, 14)]
    return Graph.from_edges(17, FRAME + c11 + [(1, 4), (2, 14), (3, 15), (15, 16)])


def test_case222_c11_disconnected_mirror():
    g = c11_mirror_graph()
    _, trace = check(g, want_case="Case2.2.2", want_sub="C11-disconnected")
    step = next(s for s in trace.steps if s.detail.get("subcase") == "C11-disconnected")
    psi = step.detail["normalization"]
    assert step.chosen == (4, 9, 14) == (psi[1], psi[6], psi[11])


def large_remainder_graphs():
    """(name, graph, case, subcase) whose remainder beside the case's chosen
    vertices is above order 15, so the case yields it instead of taking the
    base step; kept out of targeted_graphs(), whose names are the golden
    fixture's keys."""
    c11 = [(i, i + 1) for i in range(4, 14)] + [(4, 14)]
    return [
        ("c11-disconnected-order-18-rest", Graph.from_edges(31, FRAME + c11 +
            [(1, 4), (2, 5), (3, 15)] + path_edges(15, 30)),
         "Case2.2.2", "C11-disconnected"),
        ("ends-order-19-wside", Graph.from_edges(25, FRAME +
            [(4, 5), (5, 6), (1, 4), (2, 6), (1, 2), (3, 7)] + path_edges(7, 24)),
         "Case2.2.4", "ends-x1x1p-edge"),
    ]


@pytest.mark.parametrize("name,g,case,sub", large_remainder_graphs(),
                         ids=[t[0] for t in large_remainder_graphs()])
def test_large_remainder_is_yielded(name, g, case, sub):
    check(g, want_case=case, want_sub=sub)


def test_g73_component_cannot_be_doubly_linked():
    # the three attachable vertices of this order-7 graph are pairwise
    # joined by both a 2-path and a 3-path inside it, so every double
    # attachment closes an induced 6-cycle (with or without the link-vertex
    # chord): the G73 sub-branch of the deletion analysis has no eligible
    # instances, and the handler's generality over G71/G72/G75 covers it
    from itertools import combinations

    g73 = gen.catalog_entry("G73").graph
    ports = [t for t in range(7) if g73.degree(t) == 2]
    for p, q in combinations(ports, 2):
        for chord in (False, True):
            edges = FRAME + ([(1, 2)] if chord else [])
            edges += [(u + 4, v + 4) for u, v in g73.edges()]
            edges += [(1, p + 4), (2, q + 4), (3, 11), (11, 12)]
            g = Graph.from_edges(13, edges)
            assert has_induced_cycle(g, 6) is not None


def plain_graphs():
    """(graph, case) for the steps that meet no exceptional component."""
    return [(gen.cycle(16), "Delta<=2-Cycle"), (gen.path(17), "Delta<=2-Path"),
            (Graph.from_edges(17, FRAME + [(1, 4), (2, 5), (3, 6)] + path_edges(6, 16)),
             "NoExceptional")]


def test_no_exceptional_and_delta2_cases():
    for g, case in plain_graphs():
        check(g, want_case=case)


def test_random_eligible_corpus(rng):
    cases = {}
    for _ in range(150):
        n = rng.randint(16, 60)
        g = gen.random_eligible_graph(n, rng)
        cert, trace = check(g)
        for c in trace.case_ids():
            cases[c] = cases.get(c, 0) + 1
    assert cases.get("NoExceptional", 0) > 0


def test_trace_serialization_roundtrip():
    g = gen.cycle(12)
    cert, trace = isolate_p3_subcubic(g)
    lines = trace.to_json_lines().splitlines()
    assert len(lines) == len(trace.steps)
    for line, step in zip(lines, trace.steps):
        rec = json.loads(line)
        assert rec["case"] == step.case_id
        assert rec["chosen"] == [v + 1 for v in step.chosen]
        assert rec["removed"] == [v + 1 for v in step.removed]
        assert isinstance(rec["detail"], dict)


def test_iota_never_exceeds_constructive_size(rng):
    for _ in range(25):
        g = gen.random_eligible_graph(rng.randint(16, 20), rng)
        cert, _ = isolate_p3_subcubic(g)
        assert isolation_number(g).value <= len(cert.set) <= g.n // 4


@pytest.mark.extended
def test_random_sweep_over_orders_16_to_40_extended():
    # above order 15 the graph goes through the cases, and a failed case
    # raises; no draw may raise or miss the bound
    rng = random.Random(21)
    for _ in range(20000):
        g = gen.random_eligible_graph(rng.randint(16, 40), rng)
        cert, _ = isolate_p3_subcubic(g)
        assert verify_certificate(g, cert) and len(cert.set) <= g.n // 4


# -- failed cases ------------------------------------------------------------------


def test_failed_case_raises_at_every_order(monkeypatch):
    def broken(g, mask, trace):
        raise InternalCaseExhausted("closed form withheld")

    monkeypatch.setattr(constructive, "_delta2", broken)

    def spider(n):  # legs of length 1, 1 and n-3 at vertex 0: one deletion step
        return Graph.from_edges(n, FRAME + [(3, 4)] + path_edges(4, n - 1))

    for n in (20, 41):
        with pytest.raises(InternalCaseExhausted) as exc:
            isolate_p3_subcubic(spider(n))
        assert exc.value.partial_cases == ["NoExceptional"]
        assert str(exc.value) == f"closed form withheld (order {n}; case steps traced: 1)"


@pytest.mark.parametrize("bits", [
    lambda g: 0,                 # a set that does not isolate
    lambda g: g.full_mask(),     # an isolating set above floor(n/4)
])
def test_set_breaking_the_contract_raises(monkeypatch, bits):
    # the cases' result is rechecked: a bad set goes the way of a failed case
    monkeypatch.setattr(constructive, "_solve", lambda g, trace: bits(g))
    with pytest.raises(InternalCaseExhausted) as exc:
        isolate_p3_subcubic(gen.cycle(12))
    assert str(exc.value) == ("assembled set violates the contract "
                              "(order 12; case steps traced: 0)")
    assert exc.value.partial_cases == []


def test_piece_entry_is_the_one_check_site():
    # the cases yield pieces unchecked; _piece refuses ineligible ones on entry
    trace = constructive.CaseTrace()
    with pytest.raises(InternalCaseExhausted, match="exceptional"):
        constructive._solve(gen.cycle(7), trace)
    assert trace.steps == []


def test_whole_remainder_must_be_one_component():
    # a case that yields a piece minus a deleted set asserts, through the
    # splitter, that one component is left beside an expected one
    g = gen.path(8)
    full = g.full_mask()
    assert constructive._rest(g, full, 1 << 7) == 0b1111111
    assert constructive._rest(g, full, 1 << 1, 1 << 0, "beside", "rest") == 0b11111100
    with pytest.raises(InternalCaseExhausted, match="disconnected"):
        constructive._rest(g, full, 1 << 3)
    with pytest.raises(InternalCaseExhausted, match="beside"):
        constructive._rest(g, full, 1 << 2, 1 << 0, "beside", "rest")
    with pytest.raises(InternalCaseExhausted, match="rest"):
        constructive._rest(g, full, (1 << 1) | (1 << 4), 1 << 0, "beside", "rest")


# -- golden traces and recursion depth ---------------------------------------------

GOLDEN = Path(__file__).parent / "fixtures" / "golden_traces.json"


def caterpillar(n):
    """Path spine 0..n/2-1 with leaf n/2+i hung on spine vertex i."""
    k = n // 2
    return Graph.from_edges(2 * k, [(i, i + 1) for i in range(k - 1)] +
                            [(i, k + i) for i in range(k)])


def golden_random():
    """The criterion-5 random corpus of the golden fixture, in order."""
    rng = random.Random(0xD15C0)
    for i in range(1000):
        yield f"random-{i}", gen.random_eligible_graph(rng.randint(16, 60), rng)


def golden_corpus():
    """(name, graph) pairs whose traces are pinned in the golden fixture."""
    out = [(name, g) for name, g, _, _ in targeted_graphs()]
    out += golden_random()
    out += [(f"caterpillar-{n}", caterpillar(n)) for n in (200, 600)]
    rng = random.Random(2501)
    out += [(f"blocktree-{n}", gen.random_eligible_graph(n, rng)) for n in (120, 250, 400)]
    return out


def trace_digest(g):
    _, trace = isolate_p3_subcubic(g)
    return hashlib.sha256(trace.to_json_lines().encode()).hexdigest()


def small_class_digest():
    """One sha256 over the ``--trace`` lines of every eligible graph of
    order <= 9 in walk order: through the base step, this pins the exact
    solver's plain (first-found) sets on the whole small class."""
    digest = hashlib.sha256()
    count = 0
    for g in iter_subcubic(EnumSpec(9)):
        if has_induced_cycle(g, 6) is None and catalog_match(g) is None:
            _, trace = isolate_p3_subcubic(g)
            digest.update((trace.to_json_lines() + "\n").encode())
            count += 1
    assert count == 597
    return digest.hexdigest()


def golden_digests():
    """Every digest the golden fixture pins, by name."""
    out = {name: trace_digest(g) for name, g in golden_corpus()}
    out["eligible-order-le-9"] = small_class_digest()
    return out


def test_traces_match_golden_fixture():
    want = json.loads(GOLDEN.read_text())
    got = golden_digests()
    assert got.keys() == want.keys()
    assert [k for k in want if got[k] != want[k]] == []


def test_deep_input_needs_no_recursion_depth():
    # the order-600 caterpillar takes ~150 deletion levels; none of them may
    # cost a Python frame
    g = caterpillar(600)
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        cert, trace = isolate_p3_subcubic(g)
    finally:
        sys.setrecursionlimit(old)
    assert verify_certificate(g, cert)


def test_small_pieces_are_matched_and_solved_once_per_call(monkeypatch):
    # the order-600 caterpillar's base steps cut off the same small pieces
    # again and again; each distinct one is matched and solved once per
    # call, and no call reuses another's work
    calls = {"solve": 0, "match": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver, "isolation_number",
                        counted("solve", solver.isolation_number))
    monkeypatch.setattr(patterns, "catalog_match", counted("match", patterns.catalog_match))
    g = caterpillar(600)
    per_call = []
    for _ in range(2):
        calls.update(solve=0, match=0)
        _, trace = isolate_p3_subcubic(g)
        per_call.append(dict(calls))
    bases = [s.removed for s in trace.steps if s.case_id == constructive.CASE_BASE]
    pieces = {delete_vertices(g, g.full_mask() & ~sum(1 << u for u in vs))[0].rows
              for vs in bases}
    assert (len(bases), len(pieces)) == (197, 2)
    assert per_call[0]["solve"] <= len(pieces)
    assert per_call[0]["match"] <= len(pieces) + 1  # + the whole-graph check
    assert per_call[1] == per_call[0]
    digest = hashlib.sha256(trace.to_json_lines().encode()).hexdigest()
    assert digest == json.loads(GOLDEN.read_text())["caterpillar-600"]


def test_long_caterpillar_scales():
    # each deletion level splits its piece from the boundary of the deleted
    # set; a walk over the whole piece per level would take minutes here
    g = caterpillar(12800)
    start = time.perf_counter()
    cert, trace = isolate_p3_subcubic(g)
    assert time.perf_counter() - start < 10
    assert verify_certificate(g, cert)
    assert len(cert.set) <= g.n // 4


# -- the catalog facts that stand in for deleted branches --------------------------


def test_only_p3_and_g71_have_a_leaf():
    # _case224_double: v is a leaf of the exceptional remainder, so that
    # remainder is a P3 or a G71 copy
    assert {e.id for e in gen.catalog() if e.graph.min_degree() == 1} == {"P3", "G71"}


def test_open_slots_of_the_catalog():
    # the dispatch: a component that reaches its last branch is linked to two
    # neighbors of v and needs two open slots; G74 and G76 have one each
    slots = {e.id: 3 * e.order - 2 * e.graph.edge_count for e in gen.catalog()}
    assert slots == {"P3": 5, "C3": 3, "C7": 7, "G71": 5, "G72": 3, "G73": 3,
                     "G74": 1, "G75": 3, "G76": 1, "C11": 11, "G11": 5, "G15": 3}


def test_inner_vertex_leaves_a_connected_triple():
    # _case223_non_cycle: for an attachment a (degree <= 2) of these graphs,
    # some degree-3 y lies outside N[a], and every such y leaves H - N[y]
    # a connected 3-vertex graph
    pairs = 0
    for cid in ("G71", "G72", "G73", "G75"):
        h = gen.catalog_entry(cid).graph
        for a in (t for t in range(h.n) if h.degree(t) <= 2):
            pairs += 1
            ys = [y for y in range(h.n)
                  if h.degree(y) == 3 and not (closed_mask(h, 1 << a) >> y) & 1]
            assert ys, (cid, a)
            for y in ys:
                rest = h.full_mask() & ~closed_mask(h, 1 << y)
                assert rest.bit_count() == 3 and connected_within(h, rest), (cid, a, y)
    assert pairs == 13


def test_inner_vertex_leaves_no_catalog_remainder():
    # _case223_non_cycle: a remainder of order n - 4 >= 12 could only be a
    # G15 copy. G15 has minimum degree 2 and its degree-2 vertices are
    # pairwise at distance >= 4, so the connected triple R = H - N[y] of
    # such a copy keeps at most one edge into N[y]; in these graphs R has
    # two to four for every degree-3 y
    assert [e.id for e in gen.catalog() if e.order >= 12] == ["G15"]
    g15 = gen.catalog_entry("G15").graph
    low = [u for u in range(g15.n) if g15.degree(u) == 2]
    assert g15.min_degree() == 2
    assert min(distance(g15, a, b) for a, b in itertools.combinations(low, 2)) >= 4
    edges = {}
    for cid in ("G71", "G72", "G73", "G75"):
        h = gen.catalog_entry(cid).graph
        for y in (t for t in range(h.n) if h.degree(t) == 3):
            ny = closed_mask(h, 1 << y)
            rest = h.full_mask() & ~ny
            assert rest.bit_count() == 3 and connected_within(h, rest), (cid, y)
            edges[cid, y] = sum((h.rows[u] & ny).bit_count() for u in bit_indices(rest))
    assert len(edges) == 15
    assert all(2 <= k <= 4 for k in edges.values()), edges


def order19_configurations():
    """Every way an order-19 piece could leave a G15 copy S after Case
    2.2.3 deletes N[y*] from a doubly linked order-7 component H: a
    degree-3 v of S, the pair {x1, x1'} of its neighbors that link H, a
    3-vertex component R of S - N[v] next to either, and an isomorphism
    from R onto H - N[y*] for a degree-3 y* of H. Yields (S, v, H, N[y*]
    as a mask of H, the map from R to H)."""
    s = gen.catalog_entry("G15").graph
    for v in (u for u in range(s.n) if s.degree(u) == 3):
        nv = closed_mask(s, 1 << v)
        for x1, x1p in itertools.combinations(bit_indices(s.rows[v]), 2):
            for r in split_off(s, s.full_mask(), nv):
                if r.bit_count() != 3 or not (s.rows[x1] | s.rows[x1p]) & r:
                    continue
                for cid in ("G71", "G72", "G73", "G75"):
                    h = gen.catalog_entry(cid).graph
                    for y in (t for t in range(h.n) if h.degree(t) == 3):
                        ny = closed_mask(h, 1 << y)
                        for image in itertools.permutations(bit_indices(h.full_mask() & ~ny)):
                            phi = dict(zip(bit_indices(r), image))
                            if all((s.rows[a] >> b ^ h.rows[phi[a]] >> phi[b]) & 1 == 0
                                   for a, b in itertools.combinations(phi, 2)):
                                yield s, v, h, ny, phi


@pytest.mark.extended
def test_no_order19_piece_leaves_a_g15_remainder_extended():
    # the argument of test_inner_vertex_leaves_no_catalog_remainder, by
    # exhaustion: put N[y*] back on every configuration with every set of
    # edges between N[y*] and N(v); no graph built is subcubic
    embeddings = built = subcubic = 0
    for s, v, h, ny, phi in order19_configurations():
        embeddings += 1
        label = dict(zip(bit_indices(ny), range(s.n, s.n + 4)))
        label.update((phi[a], a) for a in phi)
        base = list(s.rows) + [0] * 4
        for a, b in h.edges():
            if (ny >> a | ny >> b) & 1:
                base[label[a]] |= 1 << label[b]
                base[label[b]] |= 1 << label[a]
        slots = [(p, q) for p in range(s.n, s.n + 4) for q in bit_indices(s.rows[v])]
        for chosen in range(1 << len(slots)):
            rows = list(base)
            for i in bit_indices(chosen):
                p, q = slots[i]
                rows[p] |= 1 << q
                rows[q] |= 1 << p
            built += 1
            subcubic += max(row.bit_count() for row in rows) <= 3
    assert (embeddings, built, subcubic) == (552, 552 << 12, 0)


# -- every statement of the cases runs ---------------------------------------------

# (function, block header, statement) of each statement of the case layer
# that no input of the gate below runs
UNRUN_ALLOWED = [
    # a failed check: only the tests that break a case on purpose reach it
    ("_require", "if not cond:", "raise InternalCaseExhausted(msg)"),
]


def case_layer():
    """The module-level functions of constructive that _solve reaches,
    directly or through the cases, and the ids of the code objects they
    hold (hashing a code object hashes its whole body)."""
    found, codes, todo = set(), set(), [constructive._solve]
    while todo:
        fn = todo.pop()
        if fn.__name__ in found:
            continue
        found.add(fn.__name__)
        inner = [fn.__code__]
        while inner:  # generator expressions and lambdas have their own code
            code = inner.pop()
            codes.add(id(code))
            inner += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            todo += [f for f in map(vars(constructive).get, code.co_names)
                     if isinstance(f, types.FunctionType)
                     and f.__module__ == constructive.__name__]
    return found, codes


def _header(src: list[bytes], node) -> tuple[str, range]:
    """A statement's source on one line, a compound one's header only, and
    the lines that text spans; ``src`` is the module's lines as UTF-8, in
    which the syntax tree counts its column offsets."""
    end = node
    if hasattr(node, "body"):
        end = [c for c in ast.iter_child_nodes(node) if isinstance(c, ast.expr)][-1]
    seg = src[node.lineno - 1:end.end_lineno]
    seg[-1] = seg[-1][:end.end_col_offset]
    seg[0] = seg[0][node.col_offset:]
    text = " ".join(b" ".join(seg).decode().split())
    return text + (":" if end is not node else ""), range(node.lineno, end.end_lineno + 1)


def _statements(src: list[bytes], name: str, guard: str, block, out: list) -> None:
    """(key, lines) of each statement in ``block``, nested ones included; a
    try statement stands for nothing itself."""
    for node in block:
        if isinstance(node, ast.Try):
            _statements(src, name, guard, node.body, out)
            for h in node.handlers:
                _statements(src, name, _header(src, h)[0], h.body, out)
            _statements(src, name, "else:", node.orelse, out)
            continue
        text, lines = _header(src, node)
        out.append(((name, guard, text), lines))
        if hasattr(node, "body"):
            _statements(src, name, text, node.body, out)
        orelse = getattr(node, "orelse", [])
        if orelse and _header(src, orelse[0])[0].startswith("elif "):
            _statements(src, name, guard, orelse, out)
        else:
            _statements(src, name, "else:", orelse, out)


def case_layer_inputs():
    """Named inputs that between them run every statement of the case layer
    but those of UNRUN_ALLOWED."""
    golden = dict(itertools.islice(golden_random(), 225))
    return ([g for _, g, _, _ in targeted_graphs()] + [c11_mirror_graph()]
            + [g for _, g, _, _ in large_remainder_graphs()]
            + [g for g, _ in plain_graphs()]
            + [golden["random-6"], golden["random-224"]])  # _case21's leftovers


def unrun_statements(graphs) -> list:
    """The statements of the case layer whose lines no run over ``graphs``
    reaches, keyed by function, block header and source text."""
    names, codes = case_layer()
    ran = set()

    def on_line(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return on_line

    before = sys.gettrace()
    sys.settrace(lambda frame, event, arg: on_line if id(frame.f_code) in codes else None)
    try:
        for g in graphs:
            isolate_p3_subcubic(g)
    finally:
        sys.settrace(before)
    src = Path(constructive.__file__).read_bytes()
    lines, statements = src.splitlines(), []
    for node in ast.parse(src).body:
        if isinstance(node, ast.FunctionDef) and node.name in names:
            body = node.body[1:] if ast.get_docstring(node) else node.body
            _statements(lines, node.name, "", body, statements)
    return sorted(key for key, span in statements if ran.isdisjoint(span))


def test_every_statement_of_the_cases_runs():
    assert unrun_statements(case_layer_inputs()) == UNRUN_ALLOWED


if __name__ == "__main__":
    # `python tests/test_constructive.py --rewrite-golden` rewrites the golden
    # fixture from the traces of the code as it stands: run it only from a
    # commit whose traces are known to be right.
    if sys.argv[1:] != ["--rewrite-golden"]:
        sys.exit("refusing to touch the golden fixture without --rewrite-golden")
    old = json.loads(GOLDEN.read_text())
    new = golden_digests()
    GOLDEN.write_text(json.dumps(new, indent=0, sort_keys=True) + "\n")
    changed = sum(1 for name in new.keys() | old.keys() if new.get(name) != old.get(name))
    print(f"{changed} of {len(new)} digests changed")
