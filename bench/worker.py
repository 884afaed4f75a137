"""The process that runs one workload through ``p3iso``'s public API.

Reads a job as JSON on stdin: ``mode`` ("run", "trace" or "probe"),
``seconds``, ``items`` (text inputs only, no answers) and ``spans_path``.
Writes one JSON object on stdout with every answer, the timings and the
process's peak resident memory. ``run.py`` checks the answers.

    run    repeat passes over the items for ``seconds``
    trace  a traced pass between two untraced ones, then the workload's
           extras: verify with jobs=2, or the solver with canonical=False
    probe  one untraced pass (inputs expected to hit a known defect)
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import p3iso  # noqa: E402
from p3iso import constructive, generators, graph_io, solver, verify  # noqa: E402
from p3iso.patterns import P3  # noqa: E402

from tracer import Tracer  # noqa: E402


def run_item(item: dict, canonical: bool = True, jobs: int = 1) -> dict:
    """One input through its pipeline; an exception becomes the answer."""
    try:
        if item["kind"] == "verify":
            report = verify.verify_enumerated(item["max_n"], jobs=jobs)
            return {"report": report.to_dict()}
        if item["kind"] == "iota" or item["format"] == "graph6":
            g = graph_io.parse_graph6(item["text"])
        else:
            g = graph_io.parse_edge_list(item["text"])
        out = {"n": g.n}
        if item["kind"] == "iota":
            cert = solver.isolation_number(g, P3, canonical=canonical)
        else:
            cert, trace = constructive.isolate_p3_subcubic(g)
            out["trace_steps"] = len(trace.steps)
        out.update(set=list(cert.set), value=cert.value,
                   certified=constructive.verify_certificate(g, cert))
        return out
    except Exception as exc:  # reported per item; the run goes on
        return {"error": f"{type(exc).__name__}: {exc}"}


def one_pass(items: list[dict], tracer: Tracer | None = None) -> dict:
    results = []
    start = perf_counter()
    for item in items:
        t0 = perf_counter()
        if tracer is None:
            res = run_item(item)
        else:
            tracer.item = item["id"]
            res = tracer.call("bench.item", run_item, item)
        res.update(id=item["id"], seconds=perf_counter() - t0)
        results.append(res)
    return {"wall": perf_counter() - start, "results": results}


def solver_seconds(items: list[dict], canonical: bool) -> float:
    """Time in isolation_number alone over the iota items."""
    graphs = [graph_io.parse_graph6(it["text"]) for it in items if it["kind"] == "iota"]
    start = perf_counter()
    for g in graphs:
        solver.isolation_number(g, P3, canonical=canonical)
    return perf_counter() - start


def trace_job(job: dict) -> dict:
    items = job["items"]
    # untraced passes on both sides of the traced one, so that warm-up
    # does not count as tracing overhead
    before = one_pass(items)
    with Tracer() as tracer:
        out = {"traced": one_pass(items, tracer)}
    out["untraced"] = [before, one_pass(items)]
    tracer.write_spans(job["spans_path"])
    out.update(counts=dict(tracer.counts), total_s=dict(tracer.total_s),
               layer_self_s={layer: tracer.layer_self_s(layer) for layer in
                             ("enumeration", "verify", "patterns", "solver",
                              "constructive", "graph_io")})
    if any(it["kind"] == "verify" for it in items):
        start = perf_counter()
        out["j2"] = {"results": [run_item(it, jobs=2) for it in items],
                     "wall": perf_counter() - start}
    if any(it["kind"] == "iota" for it in items):
        out["canonical_s"] = solver_seconds(items, True)
        out["plain_s"] = solver_seconds(items, False)
    return out


def main() -> int:
    if not os.path.dirname(os.path.abspath(p3iso.__file__)).startswith(SRC):
        print(f"p3iso imported from {p3iso.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    job = json.load(sys.stdin)
    generators.catalog()  # load-time self-check, measured as setup_s
    if job["mode"] == "trace":
        out = trace_job(job)
    else:
        # no pass starts that would end past the deadline, at the pace of
        # the last one
        deadline = perf_counter() + job["seconds"]
        out = {"passes": [one_pass(job["items"])]}
        while (job["mode"] == "run"
               and perf_counter() + out["passes"][-1]["wall"] <= deadline):
            out["passes"].append(one_pass(job["items"]))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
