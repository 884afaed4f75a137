"""Theorem and observation verification over enumerated or streamed corpora.

The headline check restates the main bound as an executable assertion: over
every eligible graph (connected, subcubic, no induced 6-cycle) of a given
order, the P3-isolation number is at most floor(n/4), and the graphs
exceeding it are exactly the exceptional-catalog members of that order. A
non-catalog offender is a violation and fails the run, and so is a solver
set within the bound that fails its independent recheck.
"""

from __future__ import annotations

import os
import time
from collections import Counter, namedtuple
from itertools import combinations

from . import generators
from . import patterns
from . import solver
from .check import verify_certificate
from .enumeration import EnumSpec, enumerate_connected_subcubic
from .graph_io import emit_graph6, iter_graph6
from .graphcore import (Graph, Record, closed_mask, delete_vertices, distance,
                        is_connected)


class OrderReport(Record):
    __slots__ = ("order", "examined", "eligible", "exceptions", "violations",
                 "elapsed")

    def __init__(self, order: int, examined: int = 0, eligible: int = 0,
                 exceptions: Counter[str] | None = None,
                 violations: list[str] | None = None, elapsed: float = 0.0):
        self.order, self.examined, self.eligible = order, examined, eligible
        self.exceptions = Counter() if exceptions is None else exceptions
        self.violations = [] if violations is None else violations
        self.elapsed = elapsed

    def add(self, other: "OrderReport") -> None:
        self.examined += other.examined
        self.eligible += other.eligible
        self.exceptions.update(other.exceptions)
        self.violations += other.violations
        self.elapsed += other.elapsed


class VerificationReport(Record):
    """Per-order results; a streamed run also counts the lines it read and
    keeps (line number, reason) for each line it could not decode."""

    __slots__ = ("rows", "lines_read", "skipped")

    def __init__(self, rows: dict[int, OrderReport] | None = None,
                 lines_read: int = 0, skipped: list[tuple[int, str]] | None = None):
        self.rows = {} if rows is None else rows
        self.lines_read = lines_read
        self.skipped = [] if skipped is None else skipped

    @property
    def graphs(self) -> int:
        return sum(r.examined for r in self.rows.values())

    @property
    def passed(self) -> bool:
        return not self.skipped and all(not r.violations for r in self.rows.values())

    def row(self, order: int) -> OrderReport:
        if order not in self.rows:
            self.rows[order] = OrderReport(order)
        return self.rows[order]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "lines_read": self.lines_read,
            "graphs": self.graphs,
            "skipped": len(self.skipped),
            "orders": [
                {
                    "order": r.order,
                    "examined": r.examined,
                    "eligible": r.eligible,
                    "exceptions": dict(sorted(r.exceptions.items())),
                    "violations": sorted(r.violations),
                    "elapsed_s": round(r.elapsed, 3),
                }
                for _, r in sorted(self.rows.items())
            ],
        }


def _check_one(g: Graph, report: VerificationReport) -> None:
    row = report.row(g.n)
    t0 = time.perf_counter()
    row.examined += 1
    try:
        if (g.max_degree() > 3 or not is_connected(g)
                or patterns.has_induced_cycle(g, 6) is not None):
            return
        row.eligible += 1
        cert = solver.isolation_number(g, budget=g.n // 4, canonical=False)
        if cert.exact:
            if not (verify_certificate(g, cert) and len(cert.set) <= g.n // 4):
                row.violations.append(emit_graph6(g))
        else:
            cid = patterns.catalog_match(g)
            if cid is None:
                row.violations.append(emit_graph6(g))
            else:
                row.exceptions[cid] += 1
    finally:
        row.elapsed += time.perf_counter() - t0


def _verify_part(max_n: int, res: int, mod: int) -> VerificationReport:
    """The bound check over shard ``res`` of ``mod`` of the walk to max_n."""
    report = VerificationReport({n: OrderReport(n) for n in range(1, max_n + 1)})
    enumerate_connected_subcubic(EnumSpec(max_n, shard=(res, mod)),
                                 sink=lambda g: _check_one(g, report))
    return report


def verify_enumerated(max_n: int, jobs: int = 1) -> VerificationReport:
    """Run the bound check over every connected subcubic graph up to max_n.
    With jobs > 1, min(jobs, usable CPUs) processes check one shard each;
    their reports are summed, so ``elapsed`` is the time of all shards."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    mod = min(jobs, cpus)
    if mod == 1:
        return _verify_part(max_n, 0, 1)
    # imported here: only a parallel run pays for loading them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    report = VerificationReport()
    # spawn, not fork: forking a process that runs threads is unsafe
    with ProcessPoolExecutor(mod, mp_context=multiprocessing.get_context("spawn")) as pool:
        for part in pool.map(_verify_part, [max_n] * mod, range(mod), [mod] * mod):
            for n, row in part.rows.items():
                report.row(n).add(row)
    return report


def verify_stream(lines) -> VerificationReport:
    """Run the bound check over a graph6 stream (one graph per line).

    Every line read, blank ones included, counts in ``lines_read``. A line
    that does not decode is recorded in ``skipped`` and fails the run.
    """
    report = VerificationReport()

    def counted():
        for line in lines:
            report.lines_read += 1
            yield line

    for lineno, item in iter_graph6(counted()):
        if isinstance(item, Graph):
            _check_one(item, report)
        else:
            report.skipped.append((lineno, str(item)))
    return report


# -- machine-checked catalog observations --------------------------------------


class ObservationResult(namedtuple("ObservationResult", "name passed message",
                                   defaults=("",))):
    __slots__ = ()


def _legal_single_additions(g: Graph):
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                continue
            if g.degree(u) <= 2 and g.degree(v) <= 2:
                yield (u, v)


def _remote_full_fails(graphs: dict[str, Graph], ids, keeps) -> list[str]:
    """Over the listed catalog graphs g, each low vertex v (degree <= 2)
    for which no full-degree vertex vp outside N[v] leaves a G - N[vp]
    that ``keeps(g, sub, old)`` accepts, ``old`` the old label of each
    vertex of ``sub``. The vp are tried in ascending order."""
    fails = []
    for cid in ids:
        g = graphs[cid]
        for v in range(g.n):
            if g.degree(v) > 2:
                continue
            nv = g.rows[v] | (1 << v)
            if not any(keeps(g, *delete_vertices(g, closed_mask(g, 1 << vp)))
                       for vp in range(g.n)
                       if not (nv >> vp) & 1 and g.degree(vp) == 3):
                fails.append(f"{cid}: vertex {v + 1}")
    return fails


def _attachable_remnant(g: Graph, sub: Graph, old: tuple[int, ...]) -> bool:
    """sub is a connected 3-vertex remnant of g: a path with an end of
    degree 2 and a middle of degree 3 in g, or a triangle holding two
    vertices of degree 3 in g."""
    if sub.n != 3 or not is_connected(sub):
        return False
    rem_deg = {old[i]: sub.degree(i) for i in range(3)}
    if sub.edge_count == 2:  # path remnant
        return (any(g.degree(y) == 2 and rem_deg[y] == 1 for y in old) and
                any(g.degree(y) == 3 and rem_deg[y] == 2 for y in old))
    return sum(1 for y in old if g.degree(y) == 3) >= 2  # triangle remnant


def check_observations() -> list[ObservationResult]:
    """Every documented catalog property, quantified exhaustively."""
    results: list[ObservationResult] = []
    graphs = {e.id: e.graph for e in generators.catalog()}
    g7_noncycle = ["G71", "G72", "G73", "G74", "G75", "G76"]

    def add(name: str, failures: list[str]):
        results.append(ObservationResult(name, not failures, "; ".join(failures)))

    # iota = (n+1)/4 across the catalog
    fails = []
    for cid, g in graphs.items():
        got = solver.isolation_number(g).value
        if got != (g.n + 1) // 4:
            fails.append(f"{cid}: iota={got}")
    add("catalog-iota-(n+1)/4", fails)

    # vertex-deleted connectivity, with the two documented exceptions
    fails = []
    allowed_cuts = {("P3", 1), ("G71", 6)}  # 0-based: middle of P3, label 7
    for cid, g in graphs.items():
        for v in range(g.n):
            sub, _ = delete_vertices(g, 1 << v)
            connected = is_connected(sub)
            if connected == ((cid, v) in allowed_cuts):
                fails.append(f"{cid}: vertex {v + 1}")
    add("catalog-minus-vertex-connectivity", fails)

    # order-7 non-cycles: a full-degree vertex far from any low vertex whose
    # closed-neighborhood deletion leaves a connected graph
    add("order7-remote-full-vertex", _remote_full_fails(
        graphs, g7_noncycle, lambda g, sub, old: is_connected(sub)))

    # order-7 non-cycles: no two low-degree vertices adjacent
    fails = []
    for cid in g7_noncycle:
        g = graphs[cid]
        for u, v in g.edges():
            if g.degree(u) <= 2 and g.degree(v) <= 2:
                fails.append(f"{cid}: edge {u + 1}-{v + 1}")
    add("order7-low-degree-nonadjacent", fails)

    # order 11 and 15: minimum degree 2, and deleting any low vertex's closed
    # neighborhood keeps the graph connected
    fails = []
    for cid in ("C11", "G11", "G15"):
        g = graphs[cid]
        if g.min_degree() != 2:
            fails.append(f"{cid}: min degree {g.min_degree()}")
        for v in range(g.n):
            if g.degree(v) > 2:
                continue
            sub, _ = delete_vertices(g, closed_mask(g, 1 << v))
            if not is_connected(sub):
                fails.append(f"{cid}: vertex {v + 1}")
    add("order11-15-neighborhood-deletion", fails)

    # order 15: degree-2 vertices pairwise at distance >= 4, minimum exactly 4
    fails = []
    g15 = graphs["G15"]
    low = [v for v in range(g15.n) if g15.degree(v) == 2]
    dists = [distance(g15, u, v) for u, v in combinations(low, 2)]
    if len(low) != 3:
        fails.append(f"expected 3 degree-2 vertices, got {len(low)}")
    if not dists or min(dists) != 4:
        fails.append(f"pairwise distances {dists}")
    add("order15-degree2-distance-4", fails)

    # the four attachable order-7 graphs: a far full-degree vertex whose
    # deletion leaves a 3-vertex remnant with the documented degree pattern
    add("order7-attachable-remnant", _remote_full_fails(
        graphs, ("G71", "G72", "G73", "G75"), _attachable_remnant))

    # single-edge additions to G72/G73/G75
    fails = []
    special = {(0, 3), (0, 4)}  # 1-based {1,4}, {1,5} on G75
    for cid in ("G72", "G73", "G75"):
        g = graphs[cid]
        for u, v in _legal_single_additions(g):
            gp = g.with_edge(u, v)
            if cid == "G75" and (u, v) in special:
                if solver.isolation_number(gp).value > 1:
                    fails.append(f"{cid}+{u + 1}-{v + 1}: iota > 1")
            else:
                got = patterns.catalog_match(gp)
                if got not in ("G74", "G76"):
                    fails.append(f"{cid}+{u + 1}-{v + 1}: match {got}")
    add("order7-single-edge-additions", fails)

    # one- and two-edge additions to G71
    fails = []
    g71 = graphs["G71"]
    low_set = {1, 3, 5}  # 1-based {2, 4, 6}
    for u, v in _legal_single_additions(g71):
        gp = g71.with_edge(u, v)
        if {u, v} <= low_set:
            if solver.isolation_number(gp).value > 1:
                fails.append(f"G71+{u + 1}-{v + 1}: iota > 1")
        else:
            got = patterns.catalog_match(gp)
            if got not in ("G71", "G72", "G73", "G74", "G76"):
                fails.append(f"G71+{u + 1}-{v + 1}: match {got}")
    for e1, e2 in combinations(list(_legal_single_additions(g71)), 2):
        gp = g71.with_edge(*e1)
        if gp.has_edge(*e2):
            continue
        u, v = e2
        if gp.degree(u) > 2 or gp.degree(v) > 2:
            continue
        gp = gp.with_edge(u, v)
        got = patterns.catalog_match(gp)
        if got not in ("G71", "G72", "G73", "G74", "G76"):
            fails.append(f"G71+{e1}+{e2}: match {got}")
    add("order7-leafy-edge-additions", fails)

    # deleting any low-degree vertex drops the isolation number by one unit
    fails = []
    for cid, g in graphs.items():
        bound = (g.n - 3) // 4
        for v in range(g.n):
            if g.degree(v) > 2:
                continue
            sub, _ = delete_vertices(g, 1 << v)
            if solver.isolation_number(sub).value > bound:
                fails.append(f"{cid}: vertex {v + 1}")
            if cid not in ("P3", "C3") and not is_connected(sub):
                fails.append(f"{cid}: vertex {v + 1} disconnects")
    add("catalog-minus-low-vertex-bound", fails)

    return results
