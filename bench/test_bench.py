"""Tests of the benchmark's own helpers (stdlib unittest).

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

from p3iso import graph_io, patterns, solver  # noqa: E402
from p3iso.graphcore import Graph, is_connected  # noqa: E402

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def random_graph(n: int, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.3]
    return n, edges


def to_graph(n, edges) -> Graph:
    return Graph.from_edges(n, edges)


class Graph6Encoder(unittest.TestCase):
    def test_matches_emit_graph6_up_to_62(self):
        rng = random.Random(7)
        for n in list(range(0, 63)) + [62] * 5:
            g = to_graph(*random_graph(n, rng))
            self.assertEqual(W.encode_graph6(g.n, list(g.edges())),
                             graph_io.emit_graph6(g), n)

    def test_long_header_round_trips_through_parse_graph6(self):
        rng = random.Random(8)
        for n in (63, 64, 100, 300, 800):
            order, edges = W.block_tree(n, rng)
            text = W.encode_graph6(order, edges)
            self.assertTrue(text.startswith("~"))
            self.assertEqual(graph_io.parse_graph6(text), to_graph(order, edges), n)

    def test_short_decoder_inverts_encoder(self):
        rng = random.Random(9)
        for n in (1, 2, 17, 46):
            order, edges = random_graph(n, rng)
            self.assertEqual(W.decode_graph6_short(W.encode_graph6(order, edges)),
                             (order, edges))

    def test_edge_list_matches_library(self):
        order, edges = W.caterpillar(12)
        g = to_graph(order, edges)
        self.assertEqual(graph_io.parse_edge_list(W.encode_edge_list(order, edges)), g)


class Inputs(unittest.TestCase):
    def test_block_trees_are_eligible_and_seeded(self):
        for seed in range(5):
            order, edges = W.block_tree(40, random.Random(seed))
            self.assertEqual((order, edges), W.block_tree(40, random.Random(seed)))
            g = to_graph(order, edges)
            self.assertEqual(g.n, 40)
            self.assertTrue(is_connected(g))
            self.assertLessEqual(g.max_degree(), 3)
            self.assertIsNone(patterns.has_induced_cycle(g, 6))

    def test_block_tree_never_runs_out_of_attachment_points(self):
        # seed 509 once drew a catalog block that left every vertex at degree 3
        items = W.make_items("isolate", 509)
        self.assertEqual(sum(it["format"] == "graph6" for it in items), 5)
        for it in items:
            deg = [0] * it["n"]
            for u, v in it["edges"]:
                deg[u] += 1
                deg[v] += 1
            self.assertLessEqual(max(deg), 3)

    def test_items_depend_only_on_seed(self):
        for wl in run.WORKLOADS:
            self.assertEqual(W.make_items(wl, 3), W.make_items(wl, 3))

    def test_stored_iota_values(self):
        pool = W.iota_pool()
        for p in pool:
            n, edges = W.decode_graph6_short(p["graph6"])
            if p["name"].startswith("B"):
                self.assertEqual(p["iota"], n // 4)  # iota(B_{n,P3}) = floor(n/4)
            if n <= 24:
                cert = solver.isolation_number(to_graph(n, edges))
                self.assertEqual(cert.value, p["iota"])


class AnswerChecks(unittest.TestCase):
    def test_iota_answers(self):
        item = next(it for it in W.make_items("iota-mid", 0) if it["id"] == "B24-p3")
        g = graph_io.parse_graph6(item["text"])
        cert = solver.isolation_number(g)
        good = {"set": list(cert.set), "value": cert.value, "certified": True}
        self.assertIsNone(W.check_result(item, good))
        self.assertIsNotNone(W.check_result(item, dict(good, value=cert.value + 1)))
        self.assertIsNotNone(W.check_result(item, dict(good, set=list(cert.set)[1:])))
        self.assertIsNotNone(W.check_result(item, dict(good, certified=False)))
        self.assertIsNotNone(W.check_result(item, {"error": "RecursionError: deep"}))

    def test_isolate_answers(self):
        n, edges = W.caterpillar(16)
        item = W._isolate_item("caterpillar-16", n, edges, "edges")
        self.assertIsNone(W.check_result(item, {"set": [1, 5, 9, 12], "certified": True}))
        # 4-5-6 survives as a 3-path
        self.assertIsNotNone(W.check_result(item, {"set": [1], "certified": True}))
        # the whole spine isolates but exceeds floor(16/4)
        self.assertIsNotNone(W.check_result(item, {"set": list(range(8)),
                                                   "certified": True}))

    def test_verify_answers(self):
        rows = [{"order": n, "examined": c, "exceptions": W.VERIFY_EXCEPTIONS.get(n, {})}
                for n, c in enumerate(W.VERIFY_EXAMINED, start=1)]
        item = W.make_items("verify-enum", 0)[0]
        ok = {"report": {"passed": True, "orders": rows}}
        self.assertIsNone(W.check_result(item, ok))
        short = {"report": {"passed": True, "orders": rows[:-1]}}
        self.assertIsNotNone(W.check_result(item, short))
        self.assertIsNotNone(W.check_result(item, {"report": {"passed": False,
                                                              "orders": rows}}))


class ExponentFit(unittest.TestCase):
    def test_recovers_power_laws(self):
        for k in (1.0, 1.3, 2.0):
            pts = [(n, 3e-7 * n ** k) for n in (400, 800, 1600, 3200)]
            self.assertAlmostEqual(W.fit_exponent(pts), k, places=9)


class MetricNames(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            self.spec = json.load(fh)

    def test_names_units_and_bounds_are_valid(self):
        spec = self.spec
        self.assertEqual(list(spec), ["command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"])
        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(names, list(run.WORKLOADS))
        for w in spec["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        metrics = spec["end_to_end"] + spec["per_layer"]
        for m in metrics:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        self.assertEqual(len({m["name"] for m in metrics}), len(metrics))
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))

    def test_every_declared_metric_is_computed(self):
        items = W.make_items("iota-mid", 0)
        res = [{"id": it["id"], "set": [], "value": 0, "certified": True,
                "seconds": 1.0, "n": it["n"]} for it in items]
        one = {"wall": 2.0, "results": res}
        e2e, *_ = run.end_to_end(items, {"passes": [one], "peak_rss_mb": 30.0}, [0.1])
        self.assertEqual(set(e2e), set(run.declared_units()["end_to_end"]))
        out = {"untraced": [one, one], "traced": one, "counts": {}, "total_s": {},
               "layer_self_s": dict.fromkeys(("enumeration", "verify", "patterns",
                                              "solver", "constructive", "graph_io"),
                                             0.0),
               "canonical_s": 2.0, "plain_s": 1.0}
        layer, *_ = run.per_layer(items, out, [])
        self.assertEqual(set(layer), set(run.declared_units()["per_layer"]))


class Tracing(unittest.TestCase):
    def test_counts_repeat_and_attributes_are_restored(self):
        from p3iso import constructive
        original = solver.isolation_number
        item = W._isolate_item("blocktree-60", *W.block_tree(60, random.Random(1)),
                               "edges")
        counts = []
        for _ in range(2):
            with Tracer() as tracer:
                tracer.item = item["id"]
                g = graph_io.parse_edge_list(item["text"])
                cert, _ = constructive.isolate_p3_subcubic(g)
            counts.append(dict(tracer.counts))
            self.assertIs(solver.isolation_number, original)
            self.assertTrue(W.isolates_p3(item["n"], item["edges"], list(cert.set)))
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["constructive.isolate_p3_subcubic"], 0)
        self.assertGreater(counts[0]["solver.contains_copy"], 0)
        spans = tracer.spans
        ids = {s[0] for s in spans}
        self.assertTrue(all(s[1] is None or s[1] in ids for s in spans))
        self.assertEqual({s[2] for s in spans}, {"blocktree-60"})


if __name__ == "__main__":
    unittest.main()
