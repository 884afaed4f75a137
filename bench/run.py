"""Benchmark for p3iso: three workloads, answer checks, per-layer trace.

    python3 bench/run.py --workload verify-enum --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; ``p3iso`` is imported from its
``src`` directory. Inputs are made from ``--seed`` in this process and
handed to a fresh worker process as text. Every answer is checked here
against a known answer. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. A result file (machine, commit, per-item times) and, when
traced, the spans are written under ``bench/results``. See
``bench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
WORKLOADS = ("verify-enum", "iota-mid", "isolate")
SETUP_REPEATS = 21
# fixed string hashing: one thing less that differs between two runs
ENV = dict(os.environ, PYTHONHASHSEED="0")
WORKER_TIMEOUT_S = 150

# A fresh interpreter importing the package and running the catalog's
# load-time self-check; it prints its own elapsed time.
SETUP_CODE = f"""
import sys
from time import perf_counter
sys.path.insert(0, {SRC!r})
t0 = perf_counter()
import p3iso
from p3iso import generators
generators.catalog()
print(perf_counter() - t0)
"""


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def declared_units() -> dict[str, dict[str, str]]:
    """Metric name -> unit for "end_to_end" and "per_layer" of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def machine() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "commit": git_commit()}


def git_commit() -> str:
    """HEAD's commit read from .git in the checkout, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_seconds(repeats: int) -> list[float]:
    """Import plus catalog self-check in fresh processes, after one warm-up."""
    times = []
    for _ in range(repeats + 1):
        # -S: no site import, so that a sample costs little beyond what it times
        proc = subprocess.run([sys.executable, "-S", "-c", SETUP_CODE], cwd=ROOT,
                              env=ENV, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"setup failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip()))
    return times[1:]


def run_worker(mode: str, items: list[dict], seconds: float,
               spans_path: str | None = None) -> dict:
    # the program sees only the text of each input, never its answer
    job = {"mode": mode, "seconds": seconds, "spans_path": spans_path,
           "items": [{k: v for k, v in it.items() if k in ("id", "kind", "text",
                                                           "format", "max_n")}
                     for it in items]}
    try:
        proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "worker.py")],
                              cwd=ROOT, env=ENV, input=json.dumps(job), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish in {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def graphs_in(item: dict) -> int:
    """Graphs one item stands for: verify-enum counts the graphs examined."""
    return sum(workloads.VERIFY_EXAMINED) if item["kind"] == "verify" else 1


def check_pass(items: list[dict], results: list[dict], failures: list[str]) -> int:
    """Check one pass's answers; return the graphs answered right."""
    good = 0
    for item, res in zip(items, results, strict=True):
        why = workloads.check_result(item, res)
        if why is None:
            good += graphs_in(item)
        else:
            failures.append(f"{item['id']}: {why}")
    return good


def end_to_end(items, out, setup) -> tuple[dict, int, int, list[str]]:
    failures: list[str] = []
    per_pass = sum(graphs_in(it) for it in items)
    attempted = per_pass * len(out["passes"])
    good = sum(check_pass(items, p["results"], failures) for p in out["passes"])
    # One pass, each item at its fastest over the run's passes. Other load on
    # a shared host only ever slows an item down, and it comes and goes
    # within seconds, so the minimum is the steadiest estimate of the
    # program's own time (see README.md, "Noise").
    wall = sum(min(p["results"][i]["seconds"] for p in out["passes"])
               for i in range(len(items)))
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "graphs_per_s": per_pass * (good / attempted) / wall,
        "peak_rss_mb": out["peak_rss_mb"],
    }
    return metrics, attempted, attempted - good, failures


def per_layer(items, out, probe) -> tuple[dict, int, int, list[str]]:
    failures: list[str] = []
    untraced = out["untraced"]
    j2 = out.get("j2")
    passes = untraced + [out["traced"]] + ([j2] if j2 else [])
    attempted = sum(graphs_in(it) for it in items) * len(passes)
    good = sum(check_pass(items, p["results"], failures) for p in passes)
    counts, total, self_s = out["counts"], out["total_s"], out["layer_self_s"]
    n = lambda name: counts.get(name, 0)  # noqa: E731
    t = lambda name: total.get(name, 0.0)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731

    wall = statistics.mean(p["wall"] for p in untraced)
    traced = out["traced"]["results"]
    emitted = n("verify.check_one")
    tried = n("enumeration.canonical_data") - n("enumeration.automorphisms")
    reported = statistics.mean(
        sum(row["elapsed_s"] for r in p["results"] if "report" in r
            for row in r["report"]["orders"]) for p in untraced)
    isolated = [r for r in traced if "trace_steps" in r]
    steps = sum(r["trace_steps"] for r in isolated)
    cats = [(it["n"], statistics.mean(p["results"][i]["seconds"] for p in untraced))
            for i, it in enumerate(items) if it["id"].startswith("caterpillar-")]
    decoded = sum(len(it["text"]) for it in items
                  if it["kind"] == "iota" or it.get("format") == "graph6")
    return {
        "enumeration.self_s": self_s["enumeration"],
        "enumeration.emitted": emitted,
        "enumeration.canonical_data_calls": n("enumeration.canonical_data"),
        "enumeration.canonical_data_s": t("enumeration.canonical_data"),
        "enumeration.labelings_per_graph": ratio(n("enumeration.canonical_data"), emitted),
        "enumeration.children_tried": tried,
        "enumeration.accept_ratio": ratio(emitted, tried),
        "enumeration.wall_j2_s": j2["wall"] if j2 else 0.0,
        "enumeration.parallel_speedup": ratio(wall, j2["wall"]) if j2 else 0.0,
        "verify.reported_elapsed_s": reported,
        "verify.unreported_s": wall - reported if emitted else 0.0,
        "patterns.has_induced_cycle_calls": n("patterns.has_induced_cycle"),
        "patterns.has_induced_cycle_s": t("patterns.has_induced_cycle"),
        "patterns.catalog_match_calls": n("patterns.catalog_match"),
        "patterns.catalog_match_s": t("patterns.catalog_match"),
        "solver.calls": n("solver.isolation_number"),
        "solver.s": self_s["solver"],
        "solver.search_nodes": n("solver.contains_copy"),
        "solver.nodes_per_call": ratio(n("solver.contains_copy"),
                                       n("solver.isolation_number")),
        "solver.lexmin_share": (1 - out["plain_s"] / out["canonical_s"]
                                if "canonical_s" in out else 0.0),
        "constructive.self_s": self_s["constructive"],
        "constructive.trace_steps": steps,
        "constructive.steps_per_vertex": ratio(steps, sum(r["n"] for r in isolated)),
        "constructive.extract_calls": n("constructive.extract"),
        "constructive.extract_s": t("constructive.extract"),
        "constructive.fit_exponent": workloads.fit_exponent(cats) if cats else 0.0,
        "constructive.recursion_errors": sum(
            r.get("error", "").startswith("RecursionError") for r in traced + probe),
        "graph_io.decode_s": t("graph_io.parse_graph6"),
        "graph_io.decode_bytes": decoded,
        "graph_io.decode_MBps": ratio(decoded / 1e6, t("graph_io.parse_graph6")),
        "graph_io.edge_list_s": t("graph_io.parse_edge_list"),
        "trace.overhead_ratio": out["traced"]["wall"] / wall,
    }, attempted, attempted - good, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "p3iso", "__init__.py")):
        print(f"no p3iso sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        units = declared_units()["per_layer" if args.trace else "end_to_end"]
        stamp = machine()
        items = workloads.make_items(args.workload, args.seed)
        probe = []
        if args.workload == "isolate":
            # The probe runs in its own process: the defect it shows must not
            # change the timed run's memory or time.
            probe_out = run_worker("probe", [workloads.probe_item()], 0)
            probe = probe_out["passes"][0]["results"]
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        os.makedirs(RESULTS_DIR, exist_ok=True)
        if args.trace:
            spans_path = os.path.join(RESULTS_DIR, tag + "-spans.jsonl")
            out = run_worker("trace", items, args.seconds, spans_path)
            metrics, attempted, failed, failures = per_layer(items, out, probe)
        else:
            # set-up samples on both sides of the timed run, so that their
            # median does not hang on one moment's load on the host
            setup = setup_seconds(SETUP_REPEATS // 2)
            out = run_worker("run", items, args.seconds)
            setup += setup_seconds(SETUP_REPEATS - SETUP_REPEATS // 2)
            out["setup_samples"] = setup
            metrics, attempted, failed, failures = end_to_end(items, out, setup)
        if set(metrics) != set(units):
            raise BenchError(f"measured {sorted(metrics)}, declared {sorted(units)}")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in stamp.items()))
    for r in probe:
        verdict = r.get("error") or workloads.check_result(workloads.probe_item(), r) or "ok"
        print(f"probe {r['id']}: {verdict}")
    for why in failures:
        print(f"FAIL {why}")
    for name, unit in units.items():
        print(f"{name:36s} {metrics[name]:14.6g} {unit}")
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    timed = out.get("passes") or out["untraced"] + [out["traced"]]
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  machine=stamp, failures=failures, setup_s=out.get("setup_samples"),
                  item_seconds=[{r["id"]: r["seconds"] for r in p["results"]}
                                for p in timed])
    with open(os.path.join(RESULTS_DIR, tag + ".json"), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
