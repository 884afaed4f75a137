from p3iso import generators as gen
from p3iso import patterns
from p3iso.graph_io import emit_graph6
from p3iso.solver import isolation_number
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


def test_verify_stream_counts_every_line():
    report = verify_stream(["Bw\n", "\n", "junk\n", ">>graph6<<Bg\n", "\n"])
    assert (report.lines_read, report.graphs) == (5, 2)
    assert [no for no, _ in report.skipped] == [3] and not report.passed


def test_violation_detection(monkeypatch):
    # the theorem says violations cannot exist, so force one: hide the
    # catalog match and stream an exceptional graph
    monkeypatch.setattr(patterns, "catalog_match", lambda g: None)
    report = verify_stream([emit_graph6(gen.path(3))])
    assert not report.passed
    assert report.to_dict()["orders"][0]["violations"]


def test_check_observations_all_pass():
    results = check_observations()
    assert len(results) == 10
    assert all(isinstance(r, ObservationResult) for r in results)
    failed = [r for r in results if not r.passed]
    assert not failed, failed


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
