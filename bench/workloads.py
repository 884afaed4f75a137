"""Seeded inputs, text encoders and answer checks for the benchmark.

Stdlib only and independent of ``p3iso``: the inputs and the checks must
not change when the library does. A graph is ``(n, edges)`` with 0-based
vertex pairs ``u < v``.
"""

from __future__ import annotations

import json
import math
import os
import random

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# The twelve exceptional graphs (the library's catalog, copied as graph6),
# used as pendant blocks the way the library's random_eligible_graph does.
CATALOG_G6 = {
    "P3": "Bg", "C3": "Bw", "C7": "FhCKG", "G71": "FHKMG", "G72": "FhKMG",
    "G73": "FLKMG", "G74": "FlKMG", "G75": "FhG]G", "G76": "FhK]G",
    "C11": "JhCGGC@?K?_", "G11": "JhCGGC`CM?_", "G15": "NhCGGC@?WG_PG@C?w?G",
}

# verify_enumerated(8): connected subcubic graphs per order 1..8, and the
# catalog members met at each order (every other graph meets floor(n/4)).
VERIFY_MAX_N = 8
VERIFY_EXAMINED = (1, 1, 2, 6, 10, 29, 64, 194)
VERIFY_EXCEPTIONS = {
    3: {"C3": 1, "P3": 1},
    7: {"C7": 1, "G71": 1, "G72": 1, "G73": 1, "G74": 1, "G75": 1, "G76": 1},
}

# Items are kept short, so that each item's fastest pass over a run is a
# steady estimate on a shared host (README.md, "Noise").
CATERPILLAR_ORDERS = (200, 400, 600)
# Deep enough for the recursive constructive algorithm to exceed Python's
# default recursion limit; run apart from the timed items.
PROBE_CATERPILLAR_ORDER = 2400
# Many mid-size block trees rather than a few large ones: their cost varies
# with the seed, and the variation averages out over a pass.
ISOLATE_EDGES_ORDERS = tuple(range(500, 1700, 100))
ISOLATE_G6_ORDERS = (200, 250, 300, 350, 400)
_BLOCK_CYCLE_LENGTHS = (3, 4, 5, 7, 8, 9, 10)


# -- graph6 ---------------------------------------------------------------------


def encode_graph6(n: int, edges) -> str:
    """graph6 text, with the 4-byte '~' order header when 62 < n <= 258047."""
    if n <= 62:
        head = [n]
    elif n <= 258047:
        head = [63] + [(n >> s) & 63 for s in (12, 6, 0)]
    else:
        raise ValueError(f"order {n} needs the 8-byte header")
    # bit (i, j), i < j, sits at position j(j-1)/2 + i (column-major)
    nbits = n * (n - 1) // 2
    bits = bytearray(nbits + (-nbits) % 6)
    for u, v in edges:
        i, j = min(u, v), max(u, v)
        bits[j * (j - 1) // 2 + i] = 1
    body = []
    for k in range(0, len(bits), 6):
        x = 0
        for b in bits[k:k + 6]:
            x = (x << 1) | b
        body.append(x)
    return "".join(chr(c + 63) for c in head + body)


def decode_graph6_short(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Decode a graph6 line with the short header (n <= 62)."""
    n = ord(text[0]) - 63
    bits = []
    for ch in text[1:]:
        x = ord(ch) - 63
        bits.extend((x >> s) & 1 for s in range(5, -1, -1))
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges.append((i, j))
            pos += 1
    return n, edges


def encode_edge_list(n: int, edges) -> str:
    """The library's 1-based "n m" edge-list text."""
    lines = [f"{n} {len(edges)}"]
    lines += [f"{u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


# -- generators -----------------------------------------------------------------


def caterpillar(n: int) -> tuple[int, list[tuple[int, int]]]:
    """Path spine 0..n/2-1 with leaf n/2+i hung on spine vertex i."""
    k = n // 2
    edges = [(i, i + 1) for i in range(k - 1)] + [(i, k + i) for i in range(k)]
    return 2 * k, edges


def _path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def _cycle(n):
    return n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def _random_block(max_order: int, rng: random.Random):
    choices = [_path(rng.randint(1, min(6, max_order)))]
    fitting = [k for k in _BLOCK_CYCLE_LENGTHS if k <= max_order]
    if fitting:
        choices.append(_cycle(rng.choice(fitting)))
    if max_order >= 7 and rng.random() < 0.25:
        choices.append(rng.choice([b for b in _CATALOG_BLOCKS if b[0] <= max_order]))
    return rng.choice(choices)


_CATALOG_BLOCKS = [decode_graph6_short(t) for t in CATALOG_G6.values()]


def block_tree(n: int, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Paths, cycles of length != 6 and catalog graphs joined by bridges.

    The same shape as the library's ``random_eligible_graph`` above order
    24: every cycle lies inside one block, so the graph is connected,
    subcubic and free of induced 6-cycles, and for n > 15 not exceptional.
    """
    order, edges = _random_block(n, rng)
    edges = list(edges)
    deg = [0] * order
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    while order < n:
        bn, bedges = _random_block(n - order, rng)
        bdeg = [0] * bn
        for u, v in bedges:
            bdeg[u] += 1
            bdeg[v] += 1
        anchor = rng.choice([v for v in range(order) if deg[v] <= 2])
        port = rng.choice([v for v in range(bn) if bdeg[v] <= 2])
        low_left = (sum(d <= 2 for d in deg) - (deg[anchor] == 2)
                    + sum(d <= 2 for d in bdeg) - (bdeg[port] == 2))
        if order + bn < n and not low_left:
            continue  # the next block would find nowhere to attach: draw again
        edges += [(u + order, v + order) for u, v in bedges]
        edges.append((anchor, port + order))
        deg += bdeg
        deg[anchor] += 1
        deg[port + order] += 1
        order += bn
    return order, sorted((min(u, v), max(u, v)) for u, v in edges)


def iota_pool() -> list[dict]:
    """The fixed iota-mid graphs with their stored isolation numbers."""
    with open(os.path.join(DATA_DIR, "iota_mid.json"), encoding="ascii") as fh:
        return json.load(fh)


# -- workloads ------------------------------------------------------------------


def make_items(workload: str, seed: int) -> list[dict]:
    """The text items of one pass, each with what its answer is checked by."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-enum":
        return [{"id": f"verify-{VERIFY_MAX_N}", "kind": "verify",
                 "max_n": VERIFY_MAX_N}]
    if workload == "iota-mid":
        # Fixed graphs with fixed labels, whatever the seed: solver time
        # depends strongly on vertex labels, so seeded graphs or labels would
        # measure the seed rather than the program.
        items = []
        for p in iota_pool():
            n, edges = decode_graph6_short(p["graph6"])
            items.append({"id": p["name"], "kind": "iota", "text": p["graph6"],
                          "n": n, "edges": edges, "iota": p["iota"]})
        return items
    if workload == "isolate":
        # Edge lists keep decode out of the caterpillars and the larger
        # trees; the smaller trees come as graph6, where decode dominates.
        items = []
        for n in CATERPILLAR_ORDERS:
            order, edges = caterpillar(n)
            items.append(_isolate_item(f"caterpillar-{n}", order, edges, "edges"))
        for n in ISOLATE_EDGES_ORDERS:
            order, edges = block_tree(n, rng)
            items.append(_isolate_item(f"blocktree-{n}", order, edges, "edges"))
        for n in ISOLATE_G6_ORDERS:
            order, edges = block_tree(n, rng)
            items.append(_isolate_item(f"blocktree-g6-{n}", order, edges, "graph6"))
        return items
    raise ValueError(f"unknown workload {workload!r}")


def probe_item() -> dict:
    order, edges = caterpillar(PROBE_CATERPILLAR_ORDER)
    return _isolate_item(f"caterpillar-{order}", order, edges, "edges")


def _isolate_item(name, n, edges, fmt):
    text = encode_graph6(n, edges) if fmt == "graph6" else encode_edge_list(n, edges)
    return {"id": name, "kind": "isolate", "format": fmt, "text": text,
            "n": n, "edges": edges}


# -- answer checks --------------------------------------------------------------


def isolates_p3(n: int, edges, dset) -> bool:
    """True iff G - N[D] has no 3-vertex path, i.e. its edges form a matching."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dead = [False] * n
    for d in dset:
        if not 0 <= d < n:
            return False
        dead[d] = True
        for u in adj[d]:
            dead[u] = True
    for v in range(n):
        if not dead[v] and sum(1 for u in adj[v] if not dead[u]) >= 2:
            return False
    return True


def check_result(item: dict, result: dict) -> str | None:
    """None when the program's answer for ``item`` is right, else why not."""
    if result.get("error"):
        return result["error"]
    kind = item["kind"]
    if kind == "verify":
        rows = result["report"]["orders"]
        got = tuple(r["examined"] for r in rows)
        if got != VERIFY_EXAMINED:
            return f"examined per order {got} != {VERIFY_EXAMINED}"
        if not result["report"]["passed"]:
            return "verification did not pass"
        exc = {r["order"]: r["exceptions"] for r in rows if r["exceptions"]}
        if exc != VERIFY_EXCEPTIONS:
            return f"catalog exceptions {exc} != {VERIFY_EXCEPTIONS}"
        return None
    dset = result["set"]
    if len(set(dset)) != len(dset):
        return "repeated vertices in the set"
    if not result.get("certified"):
        return "verify_certificate rejected the certificate"
    if not isolates_p3(item["n"], item["edges"], dset):
        return "the set does not P3-isolate the graph"
    if kind == "iota":
        if result["value"] != item["iota"] or len(dset) != item["iota"]:
            return f"iota {result['value']} (|D|={len(dset)}) != stored {item['iota']}"
        return None
    if len(dset) > item["n"] // 4:
        return f"|D|={len(dset)} > floor(n/4)={item['n'] // 4}"
    return None


def fit_exponent(points) -> float:
    """Least-squares slope of log(time) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
