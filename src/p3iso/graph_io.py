"""Bit-exact graph6 parsing/emission and a human-readable edge-list format.

graph6: one printable line per graph; chars are 63..126, carrying 6-bit
groups. Header is n+63 for n <= 62, or '~' + 3 chars (18-bit n), or '~~' +
6 chars (36-bit n). The body packs the upper triangle of the adjacency
matrix in column-major order (bit (i, j) for i < j ordered by j then i),
zero-padded to a multiple of 6. Decoding ignores the padding bits, so a
line with nonzero padding still gives its one graph; emission uses the
shortest header that holds n and canonical zero padding. Decode and
encode visit only the set bits one by one (decode finds them with a
regular-expression scan), so a sparse graph costs time linear in the
length of its line. ``iter_graph6`` is the one reader of graph6 streams:
it pairs each nonblank line's number with its graph or its decoding
error, and accepts the optional '>>graph6<<' header.

Edge list: a header line "n m" then m lines "u v" with 1-based labels.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from math import isqrt

from .graphcore import Graph, bit_indices


class Graph6Error(ValueError):
    pass


class EdgeListError(ValueError):
    pass


_OUTSIDE_RANGE = re.compile("[^?-~]")  # chr(63)..chr(126)
_NONZERO = re.compile("[^?]")  # characters carrying at least one set bit
_TO_TEXT = bytes((b + 63) & 255 for b in range(256))


def _decode_order(line: str) -> tuple[int, int]:
    """(n, index where the body starts)."""
    if not line:
        raise Graph6Error("empty line")
    if line[0] != "~":
        return ord(line[0]) - 63, 1
    if len(line) >= 2 and line[1] == "~":
        chunk, start = line[2:8], 8
        if len(chunk) < 6:
            raise Graph6Error("incomplete 8-byte order header")
    else:
        chunk, start = line[1:4], 4
        if len(chunk) < 3:
            raise Graph6Error("incomplete 4-byte order header")
    n = 0
    for ch in chunk:
        n = (n << 6) | (ord(ch) - 63)
    return n, start


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line.

    Raises Graph6Error, with a message naming the fault, on a character
    outside 63..126, a short order header or a body of the wrong length.
    Nonzero padding bits are ignored (the payload is still unambiguous).
    """
    line = line.rstrip("\n")
    bad = _OUTSIDE_RANGE.search(line)
    if bad:
        raise Graph6Error(f"character {bad.group()!r} outside graph6 range 63..126")
    n, start = _decode_order(line)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(line) - start != need:
        raise Graph6Error(
            f"order {n} needs {need} body characters, got {len(line) - start}")
    rows = [0] * n
    # bit p of the body (from the first character's high bit) is the pair
    # (i, j), i < j, with p = j(j-1)/2 + i
    for m in _NONZERO.finditer(line, start):
        x = ord(m.group()) - 63
        p = 6 * (m.start() - start)
        j = (1 + isqrt(1 + 8 * p)) // 2
        i = p - j * (j - 1) // 2
        for b in (32, 16, 8, 4, 2, 1):
            if x & b:
                if p >= nbits:
                    break
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            p += 1
            i += 1
            if i == j:
                i, j = 0, j + 1
    return Graph._trusted(n, rows)


def _encode_order(n: int) -> str:
    """The graph6 order header: 1, 4 or 8 characters."""
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    raise ValueError(f"graph6 cannot encode order {n}")


def emit_graph6(g: Graph) -> str:
    """Encode with the shortest order header and canonical zero padding."""
    body = bytearray((g.n * (g.n - 1) // 2 + 5) // 6)
    for j in range(1, g.n):
        base = j * (j - 1) // 2
        for i in bit_indices(g.rows[j] & ((1 << j) - 1)):
            p = base + i
            body[p // 6] |= 32 >> (p % 6)
    return _encode_order(g.n) + body.translate(_TO_TEXT).decode("ascii")


_PAIR = re.compile(r"(-?[0-9]+)\s+(-?[0-9]+)")  # a stripped "n m" or "u v" line


def parse_edge_list(text: str) -> Graph:
    """Parse "n m" then m lines "u v" (1-based labels)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise EdgeListError("empty input")
    header = _PAIR.fullmatch(lines[0])
    if header is None:
        raise EdgeListError(f"bad header {lines[0]!r}, expected 'n m'")
    n, m = int(header[1]), int(header[2])
    if n < 0 or m < 0:
        raise EdgeListError("negative counts in header")
    if len(lines) - 1 != m:
        raise EdgeListError(f"header promises {m} edges, found {len(lines) - 1}")
    rows = [0] * n
    match = _PAIR.fullmatch
    for ln in lines[1:]:
        pair = match(ln)
        if pair is None:
            raise EdgeListError(f"bad edge line {ln!r}")
        u, v = int(pair[1]), int(pair[2])
        if not (1 <= u <= n and 1 <= v <= n):
            raise EdgeListError(f"edge {u} {v} outside 1..{n}")
        if u == v:
            raise EdgeListError(f"self-loop at {u}")
        u, v = u - 1, v - 1
        if (rows[u] >> v) & 1:
            raise EdgeListError(f"duplicate edge {u + 1} {v + 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph._trusted(n, rows)


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines += [f"{u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def iter_graph6(lines: Iterable[str]) -> Iterator[tuple[int, Graph | Graph6Error]]:
    """Yield (1-based line number, graph or the error that line raised) for
    each nonblank line. Nothing is buffered: each item is yielded before the
    next line is read. A leading '>>graph6<<' header on a line is stripped.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip().removeprefix(">>graph6<<")
        if not line:
            continue
        try:
            item = parse_graph6(line)
        except Graph6Error as exc:
            item = exc
        yield lineno, item
