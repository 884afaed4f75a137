"""The record classes: frozen ones are immutable and hash by value, mutable
ones compare by value and survive pickling (a parallel verify run sends
its reports between processes)."""

import pickle

import pytest

from p3iso import generators as gen
from p3iso.constructive import CaseTrace, TraceStep
from p3iso.enumeration import EnumSpec
from p3iso.generators import CatalogEntry
from p3iso.solver import Certificate
from p3iso.verify import ObservationResult, OrderReport, VerificationReport


def _frozen():
    c3 = gen.cycle(3)
    return {
        "Certificate": (lambda: Certificate((0, 2), 2, True, 5), "value"),
        "CatalogEntry": (lambda: CatalogEntry("C3", c3, 3, 1, 2), "iota"),
        "EnumSpec": (lambda: EnumSpec(8, no_induced_c6=True, shard=(1, 3)), "max_n"),
        "TraceStep": (lambda: TraceStep("Base<=15", (0,), (0, 1, 2), {}), "chosen"),
        "ObservationResult": (lambda: ObservationResult("obs", True), "passed"),
    }


@pytest.mark.parametrize("make, field", _frozen().values(), ids=_frozen())
def test_frozen_records(make, field):
    a, b = make(), make()
    assert a == b and a is not b
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    if type(a) is not TraceStep:  # its detail dict is unhashable
        assert hash(a) == hash(b)


def test_reprs_and_defaults():
    assert repr(Certificate((0, 2), 2, True, 5)) == \
        "Certificate(set=(0, 2), value=2, exact=True, graph_order=5)"
    assert repr(EnumSpec(8)) == "EnumSpec(max_n=8, no_induced_c6=False, shard=(0, 1))"
    assert ObservationResult("obs", False).message == ""
    assert repr(OrderReport(3)) == ("OrderReport(order=3, examined=0, eligible=0, "
                                    "exceptions=Counter(), violations=[], elapsed=0.0)")
    assert repr(CaseTrace()) == "CaseTrace(steps=[])"


def test_enum_spec_errors():
    with pytest.raises(ValueError, match=r"^max_n must be >= 1$"):
        EnumSpec(0)
    with pytest.raises(ValueError,
                       match=r"^shard \(res, mod\) = \(2, 2\): need 0 <= res < mod$"):
        EnumSpec(5, shard=(2, 2))


def test_mutable_records():
    # built empty and filled in, as the package builds them
    report = VerificationReport()
    row = report.row(5)
    row.examined += 3
    row.exceptions["C7"] += 1
    row.violations.append("D?")
    report.lines_read = 4
    report.skipped.append((2, "bad"))
    trace = CaseTrace()
    trace.add("x", (), (0,))
    for rec in (row, report, trace):
        copy = pickle.loads(pickle.dumps(rec))
        assert copy == rec and copy is not rec
        with pytest.raises(TypeError):
            hash(rec)
    assert report != VerificationReport() and trace != CaseTrace()
    assert OrderReport(5) != OrderReport(6)
    assert OrderReport(5).violations is not OrderReport(5).violations
    assert report.row(5) is row and report.row(6) == OrderReport(6)
