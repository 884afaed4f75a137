import concurrent.futures
import os
import random

import pytest

from p3iso import generators as gen
from p3iso import patterns, solver, verify
from p3iso.check import is_isolating
from p3iso.enumeration import EnumSpec, iter_subcubic
from p3iso.graph_io import emit_graph6
from p3iso.graphcore import Graph
from p3iso.solver import Certificate, isolation_number
from p3iso.verify import (ObservationResult, check_observations,
                          verify_enumerated, verify_stream)


def test_verify_enumerated_small_orders():
    report = verify_enumerated(7)
    assert report.passed
    rows = report.to_dict()["orders"]
    by_order = {r["order"]: r for r in rows}
    assert by_order[3]["exceptions"] == {"C3": 1, "P3": 1}
    assert by_order[7]["exceptions"] == {cid: 1 for cid in
                                         ("C7", "G71", "G72", "G73", "G74",
                                          "G75", "G76")}
    for n in (1, 2, 4, 5, 6):
        assert by_order[n]["exceptions"] == {}
        assert by_order[n]["violations"] == []
    # report totals: eligible <= examined, and the gap is exactly the
    # induced-6-cycle graphs
    assert by_order[6]["examined"] - by_order[6]["eligible"] == 1  # the 6-cycle


def _without_times(report):
    payload = report.to_dict()
    for row in payload["orders"]:
        del row["elapsed_s"]
    return payload


def _walk_vs_stream(n, monkeypatch):
    # the stream carries sets as the walk does, so line order moves only
    # the number of solves, never a row. Descending order reads no
    # order-(n-1) line before an order-n line, so nothing can be carried:
    # it is the reference that solves every eligible graph. Walk order
    # solves exactly the graphs the walk solves. Returns the solve counts
    # of the walk and of the three orders
    graphs = list(iter_subcubic(EnumSpec(n)))
    shuffled = graphs[:]
    random.Random(n).shuffle(shuffled)
    solved = _counting_solves(monkeypatch)
    walk = _without_times(verify_enumerated(n))
    counts = [len(solved)]
    assert walk.pop("lines_read") == 0
    for order in (sorted(graphs, key=lambda g: -g.n), graphs, shuffled):
        del solved[:]
        stream = _without_times(verify_stream(emit_graph6(g) for g in order))
        assert stream.pop("lines_read") == walk["graphs"]
        assert stream == walk, n
        counts.append(len(solved))
    eligible = sum(row["eligible"] for row in walk["orders"])
    assert counts[1:3] == [eligible, counts[0]], (n, counts)
    return counts


@pytest.mark.parametrize("n", range(1, 10))
def test_carried_sets_change_no_row(monkeypatch, n):
    counts = _walk_vs_stream(n, monkeypatch)
    pinned = {8: [25, 251, 25], 9: [73, 606, 73]}  # walk, descending, walk order
    assert counts[:3] == pinned.get(n, counts[:3]), counts


@pytest.mark.extended
@pytest.mark.parametrize("n", [10, 11])
def test_carried_sets_change_no_row_extended(monkeypatch, n):
    _walk_vs_stream(n, monkeypatch)


def _counting_solves(monkeypatch):
    solved = []
    real = solver.isolation_number

    def counted(g, *args, **kwargs):
        solved.append(g)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(solver, "isolation_number", counted)
    return solved


def _filtered_stream_vs_walk(n):
    # the theorem's class, made by the filtered walk and streamed through
    # verify, gives the unfiltered walk's eligible graphs, exceptions and
    # violations at every order, and every graph it streams is eligible
    walk = verify_enumerated(n).rows
    filtered = verify_stream(emit_graph6(g) for g in
                             iter_subcubic(EnumSpec(n, no_induced_c6=True)))
    assert filtered.passed and sorted(filtered.rows) == sorted(walk)
    for k, row in filtered.rows.items():
        assert row.examined == row.eligible, k
        assert (row.eligible, row.exceptions, sorted(row.violations)) == \
            (walk[k].eligible, walk[k].exceptions, sorted(walk[k].violations)), k


def test_filtered_stream_matches_walk():
    _filtered_stream_vs_walk(9)


@pytest.mark.extended
def test_filtered_stream_matches_walk_extended():
    _filtered_stream_vs_walk(11)


@pytest.mark.parametrize("poison", [
    (),         # () and (7,) both leave a 3-path
    (0, 1),     # leaves 3..7, and at floor(8/4) = 2 takes no vertex more
    (0, 3, 6),  # isolates, but is larger than floor(8/4)
])
def test_poisoned_carry_is_solved_instead(monkeypatch, poison):
    g = gen.path(8)
    expected = verify_stream([emit_graph6(g)]).to_dict()["orders"]
    solved = _counting_solves(monkeypatch)
    carried = {7: poison}
    report = verify.VerificationReport()
    verify._check_one(g, report, carried)
    assert solved == [g]
    assert report.to_dict()["orders"] == expected
    assert len(carried[8]) <= 2 and is_isolating(g, carried[8])


def test_ineligible_or_exceptional_graph_carries_nothing():
    carried = {5: (0,), 6: (0, 1), 7: (0, 1)}
    report = verify.VerificationReport()
    verify._check_one(gen.cycle(6), report, carried)  # has an induced C6
    verify._check_one(gen.cycle(7), report, carried)  # in the catalog
    assert carried[6] is None and carried[7] is None
    assert report.passed and report.row(7).exceptions == {"C7": 1}


def test_walk_rechecks_exact_certificates(monkeypatch):
    # a solver that claims an empty exact set for every graph it is asked
    # about: each walk graph that reaches it and has a 3-path is reported,
    # and its bogus set is not carried to its children
    solved = []

    def bogus(g, budget=None, canonical=True):
        solved.append(g)
        return Certificate((), 0, True, g.n)

    monkeypatch.setattr(solver, "isolation_number", bogus)
    report = verify_enumerated(5)
    assert not report.passed
    got = sorted(v for r in report.rows.values() for v in r.violations)
    assert got == sorted(emit_graph6(g) for g in solved if not is_isolating(g, ()))
    assert {g.n for g in solved} == {1, 3, 4, 5}
    assert len(got) == len(solved) - 1  # every solved graph but K1


def test_walk_solves_only_where_carried_sets_fail(monkeypatch):
    # 25 of the 251 eligible graphs through order 8 are solved; the rest
    # take their parent's set, alone or with the newest vertex
    solved = _counting_solves(monkeypatch)
    assert verify_enumerated(8).passed
    assert len(solved) == 25


@pytest.mark.parametrize("jobs", [2, 3])
def test_parallel_reports_match_serial(monkeypatch, jobs):
    # one shard per job even on a host with fewer CPUs, so that jobs=3
    # really sums three shard reports
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(jobs)),
                        raising=False)
    for n in range(1, 10):
        assert _without_times(verify_enumerated(n, jobs=jobs)) == \
            _without_times(verify_enumerated(n)), n


def test_workers_capped_at_usable_cpus(monkeypatch):
    # a pool that records its size and maps in this process: never start
    # the processes a large jobs value asks for
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    # verify_enumerated imports the pool class when a parallel run starts,
    # so it reads the patched module attribute
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    report = verify_enumerated(7, jobs=100000)
    assert sizes == [4]
    assert _without_times(report) == _without_times(verify_enumerated(7))
    verify_enumerated(7, jobs=1)
    assert sizes == [4]  # serial runs start no pool
    with pytest.raises(ValueError):
        verify_enumerated(7, jobs=0)


def test_verify_stream_on_catalog():
    lines = [emit_graph6(e.graph) for e in gen.catalog()]
    report = verify_stream(lines)
    assert report.passed
    got = {r["order"]: r["exceptions"] for r in report.to_dict()["orders"]}
    assert got[11] == {"C11": 1, "G11": 1}
    assert got[15] == {"G15": 1}


def test_verify_stream_counts_ineligible():
    lines = [emit_graph6(gen.cycle(6)), emit_graph6(gen.cycle(5))]
    report = verify_stream(lines)
    row = report.to_dict()["orders"]
    by_order = {r["order"]: r for r in row}
    assert by_order[6]["examined"] == 1 and by_order[6]["eligible"] == 0
    assert by_order[5]["eligible"] == 1


def test_verify_stream_counts_disconnected_and_non_subcubic_as_ineligible():
    # the stream path alone tests connectivity and degree: the walk makes
    # only connected subcubic graphs
    k2 = gen.path(2)
    star = Graph.from_edges(5, [(0, v) for v in range(1, 5)])  # K1,4
    report = verify_stream([emit_graph6(gen.disjoint_union(k2, k2)), emit_graph6(star)])
    by_order = {r["order"]: r for r in report.to_dict()["orders"]}
    for n in (4, 5):
        assert (by_order[n]["examined"], by_order[n]["eligible"]) == (1, 0)
        assert by_order[n]["violations"] == [] and by_order[n]["exceptions"] == {}
    assert report.passed


def test_verify_stream_counts_every_line():
    report = verify_stream(["Bw\n", "\n", "junk\n", ">>graph6<<Bg\n", "\n"])
    assert (report.lines_read, report.graphs) == (5, 2)
    assert [no for no, _ in report.skipped] == [3] and not report.passed


def test_report_without_a_graph_does_not_pass():
    # an input that holds no graph checks nothing, so it proves nothing
    report = verify_stream(["", "  "])
    assert (report.lines_read, report.graphs, report.skipped) == (2, 0, [])
    assert report.to_dict()["passed"] is False


def test_violation_detection(monkeypatch):
    # the theorem says violations cannot exist, so force one: hide the
    # catalog match and stream an exceptional graph
    monkeypatch.setattr(patterns, "catalog_match", lambda g: None)
    report = verify_stream([emit_graph6(gen.path(3))])
    assert not report.passed
    assert report.to_dict()["orders"][0]["violations"]


def test_exact_certificate_is_rechecked(monkeypatch):
    # a solver that claims an empty exact set for the 5-cycle: the set does
    # not isolate, so the recheck turns the claim into a violation
    monkeypatch.setattr(solver, "isolation_number",
                        lambda g, budget=None, canonical=True:
                        Certificate((), 0, True, g.n))
    report = verify_stream([emit_graph6(gen.cycle(5))])
    assert not report.passed
    assert report.to_dict()["orders"][0]["violations"] == [emit_graph6(gen.cycle(5))]


def test_check_observations_all_pass():
    results = check_observations()
    assert len(results) == 10
    assert all(isinstance(r, ObservationResult) for r in results)
    failed = [r for r in results if not r.passed]
    assert not failed, failed


def _g15_with_low_edge():
    # G15 with its first two degree-2 vertices joined: one is left
    g15 = gen.catalog_entry("G15").graph
    a, b, _ = (v for v in range(15) if g15.degree(v) == 2)
    return g15.with_edge(a, b)


# two 3-paths, 1-3-5 and 2-7-4, and the isolated vertex 6 (printed labels);
# an added edge closes a triangle but never makes a catalog graph
_TWO_PATHS = Graph.from_edges(7, [(0, 2), (2, 4), (1, 6), (6, 3)])
# a 6-cycle on 1..6 with the pendant 7 at 1
_C6_PENDANT = Graph.from_edges(7, [(i, (i + 1) % 6) for i in range(6)] + [(0, 6)])


_TAMPERS = [
    ("catalog-iota-(n+1)/4", "C3", Graph.empty(3), ["C3: iota=0"]),
    ("catalog-minus-vertex-connectivity", "C7", _C6_PENDANT, ["C7: vertex 1"]),
    ("order7-remote-full-vertex", "G72", gen.cycle(7), ["G72: vertex 1"]),
    ("order7-low-degree-nonadjacent", "G72", gen.cycle(7), ["G72: edge 1-2"]),
    ("order11-15-neighborhood-deletion", "C11", gen.path(11),
     ["C11: min degree 1", "C11: vertex 3"]),
    ("order15-degree2-distance-4", "G15", _g15_with_low_edge(),
     ["G15: expected 3 degree-2 vertices, got 1", "G15: pairwise distances []"]),
    ("order7-attachable-remnant", "G72", gen.cycle(7), ["G72: vertex 1"]),
    ("order7-single-edge-additions", "G75", _TWO_PATHS,
     ["G75+1-2: match None", "G75+1-5: iota > 1"]),
    ("order7-leafy-edge-additions", "G71", _TWO_PATHS,
     ["G71+1-2: match None", "G71+2-4: iota > 1", "G71+1-2+1-4: match None"]),
    ("catalog-minus-low-vertex-bound", "C7", _C6_PENDANT, ["C7: vertex 7"]),
    ("catalog-minus-low-vertex-bound", "C7", gen.path(7), ["C7: vertex 2 disconnects"]),
]


@pytest.mark.parametrize("check, cid, graph, messages", _TAMPERS,
                         ids=[f"{check}-{cid}" for check, cid, *_ in _TAMPERS])
def test_observation_failures_name_the_graph(monkeypatch, check, cid, graph, messages):
    # one catalog graph swapped for a tampered one: the check fails, and its
    # message names the graph and the vertex or edge it fails at
    entries = tuple(e._replace(graph=graph) if e.id == cid else e for e in gen.catalog())
    monkeypatch.setattr(gen, "catalog", lambda: entries)
    result = {r.name: r for r in check_observations()}[check]
    assert not result.passed
    assert set(messages) <= set(result.message.split("; ")), result.message


def test_single_edge_addition_specials_directly():
    # the two special augmentations of the order-7 wheel-like graph drop its
    # isolation number to 1; every other legal addition stays exceptional
    g75 = gen.catalog_entry("G75").graph
    for e in ((0, 3), (0, 4)):  # printed labels {1,4}, {1,5}
        assert isolation_number(g75.with_edge(*e)).value == 1
    g72 = gen.catalog_entry("G72").graph
    legal = [(u, v) for u in range(7) for v in range(u + 1, 7)
             if not g72.has_edge(u, v) and g72.degree(u) <= 2 and g72.degree(v) <= 2]
    for e in legal:
        assert patterns.catalog_match(g72.with_edge(*e)) in ("G74", "G76")
