"""Theorem and observation verification over enumerated or streamed corpora.

The headline check restates the main bound as an executable assertion: over
every eligible graph (connected, subcubic, no induced 6-cycle) of a given
order, the P3-isolation number is at most floor(n/4), and the graphs
exceeding it are exactly the exceptional-catalog members of that order. A
non-catalog offender is a violation and fails the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations

from . import generators
from . import patterns
from . import solver
from .enumeration import EnumSpec, enumerate_connected_subcubic
from .graph_io import emit_graph6, iter_graph6
from .graphcore import Graph, bit_indices, delete_vertices, distance, is_connected
from .patterns import P3


@dataclass
class OrderReport:
    order: int
    examined: int = 0
    eligible: int = 0
    exceptions: dict[str, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    elapsed: float = 0.0


@dataclass
class VerificationReport:
    """Per-order results; a streamed run also counts the lines it read and
    keeps (line number, reason) for each line it could not decode."""

    rows: dict[int, OrderReport] = field(default_factory=dict)
    lines_read: int = 0
    skipped: list[tuple[int, str]] = field(default_factory=list)

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
        cert = solver.isolation_number(g, P3, budget=g.n // 4, canonical=False)
        if not cert.exact:
            cid = patterns.catalog_match(g)
            if cid is None:
                row.violations.append(emit_graph6(g))
            else:
                row.exceptions[cid] = row.exceptions.get(cid, 0) + 1
    finally:
        row.elapsed += time.perf_counter() - t0


def verify_enumerated(max_n: int, jobs: int = 1) -> VerificationReport:
    """Run the bound check over every connected subcubic graph up to max_n."""
    report = VerificationReport()
    for n in range(1, max_n + 1):
        report.row(n)
    enumerate_connected_subcubic(EnumSpec(max_n), sink=lambda g: _check_one(g, report),
                                 jobs=jobs)
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


@dataclass(frozen=True)
class ObservationResult:
    name: str
    passed: bool
    message: str = ""


def _legal_single_additions(g: Graph):
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                continue
            if g.degree(u) <= 2 and g.degree(v) <= 2:
                yield (u, v)


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
        got = solver.isolation_number(g, P3).value
        if got != (g.n + 1) // 4:
            fails.append(f"{cid}: iota={got}")
    add("catalog-iota-(n+1)/4", fails)

    # vertex-deleted connectivity, with the two documented exceptions
    fails = []
    allowed_cuts = {("P3", 1), ("G71", 6)}  # 0-based: middle of P3, label 7
    for cid, g in graphs.items():
        for v in range(g.n):
            sub, _ = delete_vertices(g, [v])
            connected = is_connected(sub)
            if connected == ((cid, v) in allowed_cuts):
                fails.append(f"{cid}: vertex {v + 1}")
    add("catalog-minus-vertex-connectivity", fails)

    # order-7 non-cycles: a full-degree vertex far from any low vertex whose
    # closed-neighborhood deletion leaves a connected graph
    fails = []
    for cid in g7_noncycle:
        g = graphs[cid]
        for v in range(g.n):
            if g.degree(v) > 2:
                continue
            ok = False
            nv = g.rows[v] | (1 << v)
            for vp in range(g.n):
                if (nv >> vp) & 1 or g.degree(vp) != 3:
                    continue
                sub, _ = delete_vertices(g, sorted(bit_indices(g.rows[vp] | (1 << vp))))
                if is_connected(sub):
                    ok = True
                    break
            if not ok:
                fails.append(f"{cid}: vertex {v + 1}")
    add("order7-remote-full-vertex", fails)

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
            sub, _ = delete_vertices(g, sorted(bit_indices(g.rows[v] | (1 << v))))
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
    fails = []
    for cid in ("G71", "G72", "G73", "G75"):
        g = graphs[cid]
        for v in range(g.n):
            if g.degree(v) > 2:
                continue
            nv = g.rows[v] | (1 << v)
            ok = False
            for vp in range(g.n):
                if (nv >> vp) & 1 or g.degree(vp) != 3:
                    continue
                keep = g.full_mask() & ~(g.rows[vp] | (1 << vp))
                verts = sorted(bit_indices(keep))
                if len(verts) != 3:
                    continue
                sub, old = delete_vertices(g, sorted(bit_indices(~keep & g.full_mask())))
                if not is_connected(sub):
                    continue
                rem_deg = {old[i]: sub.degree(i) for i in range(3)}
                if sub.edge_count == 2:  # path remnant
                    if any(g.degree(y) == 2 and rem_deg[y] == 1 for y in verts) and \
                       any(g.degree(y) == 3 and rem_deg[y] == 2 for y in verts):
                        ok = True
                        break
                elif sub.edge_count == 3:  # triangle remnant
                    if sum(1 for y in verts if g.degree(y) == 3) >= 2:
                        ok = True
                        break
            if not ok:
                fails.append(f"{cid}: vertex {v + 1}")
    add("order7-attachable-remnant", fails)

    # single-edge additions to G72/G73/G75
    fails = []
    special = {(0, 3), (0, 4)}  # 1-based {1,4}, {1,5} on G75
    for cid in ("G72", "G73", "G75"):
        g = graphs[cid]
        for u, v in _legal_single_additions(g):
            gp = g.with_edge(u, v)
            if cid == "G75" and (u, v) in special:
                if solver.isolation_number(gp, P3).value > 1:
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
            if solver.isolation_number(gp, P3).value > 1:
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
            sub, _ = delete_vertices(g, [v])
            if solver.isolation_number(sub, P3).value > bound:
                fails.append(f"{cid}: vertex {v + 1}")
            if cid not in ("P3", "C3") and not is_connected(sub):
                fails.append(f"{cid}: vertex {v + 1} disconnects")
    add("catalog-minus-low-vertex-bound", fails)

    return results
