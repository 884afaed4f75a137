"""Polynomial-time floor(n/4) isolating sets for connected subcubic graphs
with no induced 6-cycles (the twelve exceptional graphs excluded).

The algorithm mirrors the inductive argument that proves the bound: pieces
of order up to 15 take the one exact base step _base, max-degree-2 graphs
get closed forms, and otherwise a degree-3 vertex v is deleted with its
neighborhood and the components of the remainder are classified against the
exceptional catalog. Exceptional components trigger one of the named cases
below; each case assembles the answer from prescribed vertices plus
solutions of strictly smaller eligible pieces.

A piece is a vertex mask of the input graph, so every set and every trace
label is in the input's own labels. Only pieces of order <= 15 (for the
base step) and components of a catalog order (3, 7, 11, 15, for the
isomorphism tests) are extracted as relabeled graphs. Each case is a
generator that yields the mask of a smaller piece and is sent back that
piece's set; one loop over an explicit stack drives them, so the depth of
the deletion never becomes depth of the Python stack.

Deleting along a long input cuts off the same small pieces again and
again. So each isolate_p3_subcubic call keeps a memo from an extracted
piece's rows (at most 15 small ints, never the piece's n-bit mask) to its
catalog match and its base-step certificate, and matches and solves each
distinct piece once. The memo is made in _solve and dropped when it
returns: no call reuses another's work.

A yielded piece is connected by construction: it is a component found by
graphcore.split_off, which walks out from the boundary of the deleted set,
or a remainder that split_off shows to be one component (_rest). The root
piece is the whole input graph, whose connectivity isolate_p3_subcubic
checks as a precondition. _piece refuses a catalog copy on entry; the
cases check only the component shapes they rely on, and a failed check
raises InternalCaseExhausted with the case ids traced so far: a failed
case is reported, never covered by another algorithm. A branch that the
catalog's own data rules out has no code: the tests pin each such catalog
fact, and fail when a statement of the cases stops running.
"""

from __future__ import annotations

import json
from collections import namedtuple

from . import generators
from . import patterns
from . import solver
from .check import is_isolating, verify_certificate  # bench/ calls it by this name
from .graphcore import (Graph, Record, bit_indices, closed_mask,
                        connected_within, delete_vertices, is_connected, split_off)
from .solver import Certificate

# pieces of at most this order take the exact base step; _piece relies on
# it covering the largest catalog order
_BASE_ORDER = 15

CASE_BASE = f"Base<={_BASE_ORDER}"
CASE_PATH = "Delta<=2-Path"
CASE_CYCLE = "Delta<=2-Cycle"
CASE_NO_EXC = "NoExceptional"
CASE_1 = "Case1"
CASE_21 = "Case2.1"
CASE_221 = "Case2.2.1"
CASE_222 = "Case2.2.2"
CASE_223 = "Case2.2.3"
CASE_224 = "Case2.2.4"

_CATALOG_ORDERS = (3, 7, 11, 15)


class PreconditionViolated(ValueError):
    """Input outside the algorithm's contract; ``reason`` names the check."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class InternalCaseExhausted(RuntimeError):
    """No proof case matched the instance: an implementation bug.

    ``partial_cases`` lists the case ids traced before the failure.
    """

    def __init__(self, message: str, partial_cases=()):
        super().__init__(message)
        self.partial_cases = list(partial_cases)


class TraceStep(namedtuple("TraceStep", "case_id chosen removed detail")):
    """One decision of the recursion, in the original graph's labels.

    ``chosen`` went into the isolating set here; ``removed`` are the
    vertices this step accounts for (vertices handled by recursive calls
    appear in the child steps instead, so over a whole trace the removed
    sets partition V). ``detail`` carries case-specific data such as the
    catalog id hit, normalization maps, and deliberately surviving
    leftover vertices.
    """

    __slots__ = ()


class CaseTrace(Record):
    __slots__ = ("steps",)

    def __init__(self):
        self.steps: list[TraceStep] = []

    def add(self, case_id: str, chosen, removed, detail: dict | None = None):
        self.steps.append(TraceStep(case_id, tuple(sorted(chosen)),
                                    tuple(sorted(removed)), detail or {}))

    def case_ids(self) -> list[str]:
        return [s.case_id for s in self.steps]

    def to_json_lines(self) -> str:
        """One JSON object per step; vertex labels 1-based (schema in README)."""
        out = []
        for s in self.steps:
            rec = {
                "case": s.case_id,
                "chosen": [v + 1 for v in s.chosen],
                "removed": [v + 1 for v in s.removed],
                "detail": _detail_1based(s.detail),
            }
            out.append(json.dumps(rec, sort_keys=True))
        return "\n".join(out)


def _detail_1based(detail: dict) -> dict:
    out = {}
    for key, val in detail.items():
        if key == "leftover" and isinstance(val, (list, tuple)):
            out[key] = [v + 1 for v in val]
        elif key == "reenter_at":
            out[key] = val + 1
        elif key == "normalization" and isinstance(val, dict):
            out[key] = {str(k): v + 1 for k, v in val.items()}
        else:
            out[key] = val
    return out


# -- public operations -------------------------------------------------------


def _closed_form_positions(n: int, kind: str) -> range:
    """0-based positions along an n-vertex path or cycle that form its set.

    Paths take every fourth vertex from the fourth on (floor(n/4) of them);
    cycles take every fifth from the first (floor((n+4)/5) of them).
    """
    return range(3, n, 4) if kind == "path" else range(0, n, 5)


def path_cycle_isolating_set(n: int, kind: str) -> Certificate:
    """The closed-form isolating sets for paths and cycles (1-based positions).

    Paths use positions {4k : k in [floor(n/4)]}; for n = 3 that set is
    empty and invalid, so the exact solver supplies the certificate
    instead. Cycles use positions {5k-4 : 5k-4 <= n} of size
    floor((n+4)/5), which stays within n/4 except at n in {3, 6, 7, 11}.
    """
    if kind == "path":
        g = generators.path(n)
    elif kind == "cycle":
        g = generators.cycle(n)
    else:
        raise ValueError(f"kind must be 'path' or 'cycle', got {kind!r}")
    dset = tuple(_closed_form_positions(n, kind))
    if not is_isolating(g, dset):
        return solver.isolation_number(g)
    return Certificate(dset, len(dset), False, n)


def isolate_p3_subcubic(g: Graph) -> tuple[Certificate, CaseTrace]:
    """A P3-isolating set of size <= floor(n/4), with the case trace.

    Preconditions: connected, subcubic, no induced 6-cycle, not a catalog
    graph. Violations raise PreconditionViolated with the failed check's
    name. The set is always rechecked with check.verify_certificate
    against the bound before being returned. A failed proof case, or an
    assembled set that breaks the contract, raises InternalCaseExhausted
    whose ``partial_cases`` are the case ids traced before the failure.
    """
    if not is_connected(g):
        raise PreconditionViolated("NotConnected")
    if g.max_degree() > 3:
        raise PreconditionViolated("NotSubcubic")
    if patterns.has_induced_cycle(g, 6) is not None:
        raise PreconditionViolated("InducedC6")
    if patterns.catalog_match(g) is not None:
        raise PreconditionViolated("ExceptionalGraph")

    trace = CaseTrace()
    try:
        dset = tuple(bit_indices(_solve(g, trace)))
        _require(verify_certificate(g, Certificate(dset, g.n // 4, False, g.n)),
                 "assembled set violates the contract")
    except InternalCaseExhausted as exc:
        partial = trace.case_ids()
        raise InternalCaseExhausted(
            f"{exc} (order {g.n}; case steps traced: {len(partial)})", partial) from exc
    return Certificate(dset, len(dset), False, g.n), trace


# -- the explicit stack and mask helpers ---------------------------------------


def _solve(g: Graph, trace: CaseTrace) -> int:
    """Isolating set bits for the eligible graph g, the root piece.

    Each stack entry is a case generator at work on one piece; a yielded
    mask is pushed as a new piece, and a finished piece's bits are sent to
    the entry below it. ``memo`` (see _match) lives only as long as this
    call.
    """
    memo: dict = {}
    stack = [_piece(g, g.full_mask(), trace, memo)]
    bits = None
    while stack:
        try:
            sub = stack[-1].send(bits)
        except StopIteration as done:
            stack.pop()
            bits = done.value
        else:
            stack.append(_piece(g, sub, trace, memo))
            bits = None
    return bits


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InternalCaseExhausted(msg)


def _extract(g: Graph, mask: int) -> tuple[Graph, tuple[int, ...]]:
    return delete_vertices(g, g.full_mask() & ~mask)


def _degree(g: Graph, mask: int, u: int) -> int:
    return (g.rows[u] & mask).bit_count()


def _match(sub: Graph, memo: dict) -> list:
    """The memo entry [catalog id, base-step certificate or None] of an
    extracted piece, keyed on its rows; the piece is matched on first sight
    and solved on its first base step."""
    entry = memo.get(sub.rows)
    if entry is None:
        entry = memo[sub.rows] = [patterns.catalog_match(sub), None]
    return entry


def _catalog_id(g: Graph, mask: int, memo: dict) -> str | None:
    """Which exceptional graph the piece is a copy of; only catalog orders
    are extracted."""
    if mask.bit_count() not in _CATALOG_ORDERS:
        return None
    return _match(_extract(g, mask)[0], memo)[0]


def _split(g: Graph, mask: int, kill: int, v: int) -> tuple[int, list[int]]:
    """The component of the piece minus ``kill`` holding v, and the others."""
    parts = split_off(g, mask, kill)
    gv_mask = next(p for p in parts if (p >> v) & 1)
    return gv_mask, [p for p in parts if p != gv_mask]


def _rest(g: Graph, mask: int, kill: int, beside: int = 0, msg_beside: str = "",
          msg_rest: str = "recursed into a disconnected graph") -> int:
    """The single component of the piece minus ``kill`` other than
    ``beside``; ``beside``, when given, must itself be a component."""
    parts = split_off(g, mask, kill)
    if beside:
        _require(beside in parts, msg_beside)
    rest = [p for p in parts if p != beside]
    _require(len(rest) == 1, msg_rest)
    return rest[0]


def _kill(g: Graph, mask: int, y: int, others, msg: str) -> int:
    """N[y] inside the piece, which must be exactly y and ``others``."""
    kill = closed_mask(g, 1 << y) & mask
    _require(kill == sum(1 << u for u in {y, *others}), msg)
    return kill


def _each(masks):
    """Solve the pieces in the given order; the union of their sets."""
    bits = 0
    for p in masks:
        bits |= yield p
    return bits


def _attachments(g: Graph, x: int, mask: int) -> list[int]:
    return list(bit_indices(g.rows[x] & mask))


def _leftover(g: Graph, removed: int, bits: int) -> list[int]:
    return list(bit_indices(removed & ~closed_mask(g, bits)))


def _close(g, trace, bits: int, case: str, chosen, removed: int, **detail) -> int:
    """Trace a step whose undominated removed vertices survive on purpose."""
    detail["leftover"] = _leftover(g, removed, bits)
    trace.add(case, chosen, bit_indices(removed), detail)
    return bits


def _base(g: Graph, mask: int, trace: CaseTrace, memo: dict,
          note: str | None = None) -> int:
    """The one exact base step, on the piece extracted once and matched and
    solved once per call (_match). An eligible piece is solved within
    floor(n/4). An exceptional piece needs a
    ``note``, given where a case expects a small exceptional component, and
    is solved without a budget."""
    sub, old = _extract(g, mask)
    entry = _match(sub, memo)
    detail, budget = {"order": sub.n}, sub.n // 4
    if entry[0] is not None:
        _require(note is not None, "recursed into an exceptional graph")
        detail["note"], budget = note, None
    if entry[1] is None:
        entry[1] = solver.isolation_number(sub, budget=budget, canonical=False)
    cert = entry[1]
    _require(cert.exact, f"small graph needs more than floor({sub.n}/4)")
    chosen = [old[v] for v in cert.set]
    trace.add(CASE_BASE, chosen, old, detail)
    return sum(1 << u for u in chosen)


# -- the recursion ---------------------------------------------------------------


def _piece(g: Graph, mask: int, trace: CaseTrace, memo: dict):
    """Isolating set of size <= floor(n/4) for an eligible piece.

    Like every case below, a generator run by _solve: it yields the masks of
    smaller pieces and returns the set bits, in g's labels.
    Eligible: connected, subcubic, no induced 6-cycle, not exceptional.
    Connectivity follows from the split that yielded the piece, or from the
    one-component assertion where a case yields a whole remainder. This
    entry is the only place a yielded piece is checked for exceptionality,
    through the base step _base on the extracted piece (every catalog
    order is <= _BASE_ORDER).
    """
    if mask.bit_count() <= _BASE_ORDER:
        return _base(g, mask, trace, memo)
    v = next((u for u in bit_indices(mask) if _degree(g, mask, u) == 3), None)
    if v is None:
        return _delta2(g, mask, trace)
    return (yield from _solve_with_vertex(g, mask, v, trace, memo))


def _delta2(g: Graph, mask: int, trace: CaseTrace) -> int:
    """Closed forms for connected paths and cycles of order >= 16."""
    n = mask.bit_count()
    ends = [u for u in bit_indices(mask) if _degree(g, mask, u) == 1]
    if ends:
        _require(len(ends) == 2, "max-degree-2 graph is neither path nor cycle")
        kind, case = "path", CASE_PATH
    else:
        kind, case = "cycle", CASE_CYCLE
    order = _walk(g, mask, ends[0] if ends else (mask & -mask).bit_length() - 1, -1, n)
    picks = [order[p] for p in _closed_form_positions(n, kind)]
    trace.add(case, picks, bit_indices(mask), {"order": n})
    return sum(1 << p for p in picks)


def _walk(g: Graph, mask: int, start: int, prev: int, length: int) -> list[int]:
    """``length`` vertices along a path or cycle inside ``mask``, from
    ``start`` away from ``prev``: each step goes to the smaller neighbor
    other than the vertex just left."""
    walk = [start]
    while len(walk) < length:
        cur = walk[-1]
        walk.append(min(u for u in bit_indices(g.rows[cur] & mask) if u != prev))
        prev = cur
    return walk


class _Comp(namedtuple("_Comp", "mask cid linked")):
    __slots__ = ()


def _lemma_gv(g: Graph, cmask: int, y: int):
    """The deletion step for an exceptional component H and y in H, d_H(y) <= 2.

    Returns (set bits, removed-here bits): solves H - y when |V(H)| > 3
    (connected and non-exceptional, of order 4k+2), contributes nothing
    when H is a 3-vertex graph.
    """
    _require(_degree(g, cmask, y) <= 2, "attachment vertex has full degree")
    if cmask.bit_count() == 3:
        return 0, cmask
    return (yield _rest(g, cmask, 1 << y)), 1 << y


def _solve_with_vertex(g: Graph, mask: int, v: int, trace: CaseTrace, memo: dict):
    """The deletion analysis at a chosen degree-3 vertex."""
    _require(_degree(g, mask, v) == 3, "deletion vertex must have degree 3")
    nv = closed_mask(g, 1 << v) & mask
    rest = mask & ~nv
    _require(rest != 0, "closed neighborhood swallowed the graph")
    nbrs = tuple(bit_indices(g.rows[v] & mask))

    comps: list[_Comp] = []
    for cmask in split_off(g, mask, nv):
        linked = tuple(x for x in nbrs if g.rows[x] & cmask)
        _require(bool(linked), "a component is not linked to any neighbor of v")
        comps.append(_Comp(cmask, _catalog_id(g, cmask, memo), linked))
    exceptional = [c for c in comps if c.cid]
    regular = [c for c in comps if not c.cid]

    if not exceptional:
        trace.add(CASE_NO_EXC, [v], bit_indices(nv), {"components": len(comps)})
        return (1 << v) | (yield from _each(c.mask for c in regular))

    for x in nbrs:
        if sum(1 for c in exceptional if x in c.linked) >= 2:
            return (yield from _case1(g, v, x, nv, exceptional, regular, trace))

    solo = [c for c in exceptional if len(c.linked) == 1]
    if solo:
        return (yield from _case21(g, mask, v, solo[0], trace, memo))

    _require(len(exceptional) == 1,
             "several exceptional components each linked twice is impossible")
    h1 = exceptional[0]
    x1, x1p = h1.linked[0], h1.linked[1]
    w = next(u for u in nbrs if u not in (x1, x1p))

    if h1.cid in ("G15", "G11"):
        return (yield from _case_inner(g, mask, h1, x1, x1p, trace))
    if h1.cid in ("C11", "C7"):
        k = h1.mask.bit_count()
        return (yield from _cycle_component_case(g, mask, v, nv, h1, x1, x1p, w,
                                                 trace, memo, k))
    if h1.cid in ("G71", "G72", "G73", "G75"):
        return (yield from _case223_non_cycle(g, mask, h1, x1, trace))
    # P3 or C3: G74 and G76 have one open slot, so they cannot be linked twice
    return (yield from _case224(g, mask, v, nbrs, h1, trace, memo))


def _case1(g, v, x, nv, exceptional, regular, trace):
    """Two exceptional components share the link vertex x."""
    chosen_bits = (1 << v) | (1 << x)
    bits = chosen_bits
    removed = nv
    for c in exceptional:
        if x in c.linked:
            y = _attachments(g, x, c.mask)[0]
        else:
            xh = c.linked[0]
            chosen_bits |= 1 << xh
            bits |= 1 << xh
            y = _attachments(g, xh, c.mask)[0]
        sub_bits, rem = yield from _lemma_gv(g, c.mask, y)
        bits |= sub_bits
        removed |= rem
    leftover = []
    for c in exceptional:
        if c.mask.bit_count() == 3:
            leftover.extend(_leftover(g, c.mask, bits))
    trace.add(CASE_1, bit_indices(chosen_bits), bit_indices(removed),
              {"leftover": leftover, "exceptional": [c.cid for c in exceptional]})
    return bits | (yield from _each(c.mask for c in regular))


def _case21(g, mask, v, ch, trace, memo):
    """An exceptional component linked to exactly one neighbor of v."""
    xh = ch.linked[0]
    y = _attachments(g, xh, ch.mask)[0]
    bits = 1 << xh
    sub_bits, removed = yield from _lemma_gv(g, ch.mask, y)
    bits |= sub_bits
    gv_mask, others = _split(g, mask, (1 << xh) | ch.mask, v)
    detail = {"exceptional": ch.cid}
    bits |= yield from _each(others)
    gv_cid = _catalog_id(g, gv_mask, memo)
    if gv_cid is None:
        bits |= yield gv_mask
    else:
        # v lost its link vertex, so it has degree 2 in this exceptional copy
        _require(_degree(g, gv_mask, v) == 2,
                 "v should have degree 2 in the exceptional remainder")
        gbits, grem = yield from _lemma_gv(g, gv_mask, v)
        bits |= gbits
        removed |= grem
        detail["gv_exceptional"] = gv_cid
    return _close(g, trace, bits, CASE_21, [xh], removed | (1 << xh), **detail)


def _normalize(g: Graph, h_mask: int, cid: str, pin: int | None = None):
    """psi[i] = the vertex of the catalog copy h_mask playing catalog vertex
    i (0-based), with catalog vertex 0 pinned to ``pin`` if given: the
    lexicographically smallest such psi, or None if there is none."""
    sub, old = _extract(g, h_mask)
    fixed = None if pin is None else {0: old.index(pin)}
    wit = patterns.is_isomorphic(sub, generators.catalog_entry(cid).graph,
                                 fixed=fixed)
    return [old[i] for i in wit] if wit else None


def _case_inner(g, mask, h1, x1, x1p, trace):
    """The doubly linked component is a G15 or G11 copy: delete N[y] for an
    inner vertex y and recurse once. A G15 copy (Case 2.2.1) is pinned at an
    attachment of x1 or x1' and y = psi[12]; a G11 copy (Case 2.2.2, subcase
    "G11") is unpinned and y = psi[1]."""
    if h1.cid == "G15":
        pins = [t for xa in (x1, x1p) for t in _attachments(g, xa, h1.mask)]
        case, at, detail = CASE_221, 12, {}
    else:
        pins, case, at, detail = [None], CASE_222, 1, {"subcase": "G11"}
    psi = next(filter(None, (_normalize(g, h1.mask, h1.cid, pin=t) for t in pins)), None)
    _require(psi is not None, f"no normalization of the {h1.cid} copy fits its attachments")
    y = psi[at]
    _require(g.rows[y] & mask & ~h1.mask == 0, f"inner {h1.cid} vertex has outside edges")
    kill = closed_mask(g, 1 << y) & mask
    detail["normalization"] = {i + 1: u for i, u in enumerate(psi)}
    trace.add(case, [y], bit_indices(kill), detail)
    return (1 << y) | (yield _rest(g, mask, kill))


def _case223_non_cycle(g, mask, h1, x1, trace):
    """H1 in {G71, G72, G73, G75}: delete a prescribed inner degree-3 vertex.

    y* is the first vertex in label order of full degree in H1 outside the
    closed neighborhood of x1's attachment a1. It has no edge leaving H1,
    since g is subcubic, so N[y*] lies in H1 and the remainder has order
    n - 4 >= 12. R = H1 - N[y*] is a connected 3-vertex graph, and the
    remainder is never exceptional: the only catalog graph that large is
    G15, in which every vertex has degree at least 2, so a vertex of R keeps
    at most one edge into N[y*], and only as a degree-2 vertex of the copy.
    The degree-2 vertices of G15 are pairwise at distance at least 4, while
    R's are within distance 2 of each other, so R would have at most one
    edge into N[y*]; every (H1, y*) has two to four. The tests pin each of
    these catalog facts, and _piece would still refuse an exceptional
    remainder on entry.
    """
    h_mask = h1.mask
    banned = closed_mask(g, 1 << _attachments(g, x1, h_mask)[0])
    ystar = next((y for y in bit_indices(h_mask & ~banned)
                  if _degree(g, h_mask, y) == 3), None)
    _require(ystar is not None, f"no inner vertex of full degree in a {h1.cid} component")
    kill = closed_mask(g, 1 << ystar) & mask
    star = _rest(g, mask, kill)
    trace.add(CASE_223, [ystar], bit_indices(kill), {"subcase": h1.cid})
    return (1 << ystar) | (yield star)


def _cycle_component_case(g, mask, v, nv, h1, x1, x1p, w, trace, memo, k: int):
    """Doubly linked C7 (k=7) or C11 (k=11) component."""
    y_mask = nv | h1.mask
    # swap x1/x1p if needed so some neighbor of v other than x1 has an edge
    # leaving Y = N[v] union V(H1)
    outside = mask & ~y_mask
    if not (g.rows[x1p] | g.rows[w]) & outside:
        _require(bool(g.rows[x1] & outside), "no edge leaves Y although n > |Y|")
        x1, x1p = x1p, x1
    a1 = _attachments(g, x1, h1.mask)[0]
    psi = _normalize(g, h1.mask, f"C{k}", pin=a1)
    _require(psi is not None, "catalog said cycle but no isomorphism found")
    y1 = psi[0]
    kill = _kill(g, mask, y1, (x1, psi[1], psi[k - 1]),
                 "cycle attachment vertex has unexpected neighbors")
    case = CASE_222 if k == 11 else CASE_223

    if connected_within(g, y_mask & ~kill):
        gv_mask, others = _split(g, mask, kill, v)
        bits = (1 << y1) | (yield from _each([gv_mask, *others]))
        trace.add(case, [y1], bit_indices(kill),
                  {"subcase": f"C{k}-connected",
                   "normalization": {i + 1: psi[i] for i in range(k)}})
        return bits

    att_x1p = set(_attachments(g, x1p, h1.mask))
    _require(att_x1p <= {psi[1], psi[k - 1]},
             "disconnected subcase needs x1' attached next to y1")
    if k == 11:
        return (yield from _c11_disconnected(g, mask, v, w, psi, y_mask, att_x1p,
                                             trace, memo))
    return (yield from _c7_disconnected(g, mask, v, x1p, w, psi, kill, att_x1p,
                                        trace, memo))


def _c11_disconnected(g, mask, v, w, psi, y_mask, att_x1p, trace, memo):
    if psi[1] in att_x1p:
        d_prime = [psi[0], psi[1], psi[6]]
    else:
        d_prime = [psi[0], psi[5], psi[10]]
    kill = y_mask & ~((1 << v) | (1 << w))
    gv_mask, others = _split(g, mask, kill, v)
    _require((gv_mask >> w) & 1, "v and w should share a component")
    bits = sum(1 << p for p in d_prime)
    bits |= yield from _each(others)
    if gv_mask.bit_count() <= _BASE_ORDER:  # may be a small exceptional copy
        bits |= _base(g, gv_mask, trace, memo, "C11-disconnected remainder")
    else:
        bits |= yield gv_mask
    return _close(g, trace, bits, CASE_222, d_prime, kill, subcase="C11-disconnected",
                  normalization={i + 1: psi[i] for i in range(11)})


def _c7_disconnected(g, mask, v, x1p, w, psi, kill, att_x1p, trace, memo):
    # re-orient the 7-cycle so x1' attaches at position 7
    if psi[6] not in att_x1p:
        psi = [psi[0]] + psi[1:][::-1]
    _require(psi[6] in att_x1p, "x1' attachment not adjacent to y1 on the cycle")
    y1 = psi[0]
    j_mask = sum(1 << psi[i] for i in range(2, 6))
    gv_mask, others = _split(g, mask, kill, v)
    _require(j_mask in others, "the 4-path remnant of the 7-cycle is not a component")
    side_parts = [p for p in others if p != j_mask]
    for p in side_parts:
        _require(_catalog_id(g, p, memo) is None,
                 "C7-disconnected side component is exceptional")
    cm = _catalog_id(g, gv_mask, memo)

    if cm is None:
        bits = (1 << y1) | (1 << psi[4])
        bits |= yield from _each([gv_mask, *side_parts])
        return _close(g, trace, bits, CASE_223, [y1, psi[4]], kill | j_mask,
                      subcase="C7-disconnected",
                      normalization={i + 1: psi[i] for i in range(7)})

    if cm in ("C11", "G11"):
        trace.add(CASE_223, [], [], {"subcase": "C7-disconnected-reenter",
                                     "reenter_at": y1, "gv": cm})
        return (yield from _solve_with_vertex(g, mask, y1, trace, memo))

    _require(cm == "C7", f"C7-disconnected remainder is {cm}, expected C7/C11/G11")
    # G_v^* is a 7-cycle through x1'-v-w; walk it from x1' away from v
    _require(sorted(bit_indices(g.rows[v] & gv_mask)) == sorted((x1p, w)),
             "cycle through v must pass x1' and w")
    walk = _walk(g, gv_mask, x1p, v, 6)
    u2, u4 = walk[2], walk[4]
    _require(walk[5] == w, "7-cycle walk should end at w")
    kill2 = closed_mask(g, (1 << x1p) | (1 << u4)) & mask
    hdag_mask = _rest(g, mask, kill2, 1 << u2,
                      "u2 should be isolated after the double deletion",
                      "double deletion should leave one big component")
    bits = (1 << x1p) | (1 << u4)
    bits |= yield hdag_mask
    return _close(g, trace, bits, CASE_223, [x1p, u4], kill2 | (1 << u2),
                  subcase="C7-disconnected-C7")


def _case224(g, mask, v, nbrs, h1, trace, memo):
    """The doubly linked component is a 3-vertex graph."""
    h_mask = h1.mask
    h_verts = list(bit_indices(h_mask))
    deg2 = [t for t in h_verts if _degree(g, h_mask, t) == 2]
    pairs = [(t, u) for t in deg2 for u in nbrs if g.has_edge(t, u)]

    if pairs:
        return (yield from _case224_deg2_attached(g, mask, v, nbrs, h1, pairs,
                                                  trace, memo))

    # condition (1): no degree-2 vertex of H1 touches N(v); H1 must be a path
    _require(h1.cid == "P3", "triangle component always violates condition (1)")
    t2 = [t for t in h_verts
          if len([u for u in nbrs if g.has_edge(t, u)]) >= 2]
    if t2:
        y1 = t2[0]
        xs = [u for u in nbrs if g.has_edge(y1, u)]
        x1, x1p = xs[0], xs[1]
        w = next(u for u in nbrs if u not in (x1, x1p))
        y_mid = next(t for t in h_verts if g.has_edge(y1, t))
        y_far = next(t for t in h_verts if t not in (y1, y_mid))
        return (yield from _case224_double(g, mask, v, y1, x1, x1p, w, y_mid, y_far,
                                           trace, memo))

    # each H1 vertex touches at most one neighbor of v: attachments at the ends
    ends = [t for t in h_verts if _degree(g, h_mask, t) == 1]
    ystar = next(t for t in h_verts if t not in ends)
    attach = {t: [u for u in nbrs if g.has_edge(t, u)] for t in ends}
    linked_ends = [t for t in ends if attach[t]]
    _require(len(linked_ends) == 2, "both path ends must carry an attachment here")
    y1, y1p = linked_ends
    x1 = attach[y1][0]
    x1p = attach[y1p][0]
    _require(x1 != x1p, "the two ends should use distinct neighbors of v")
    w = next(u for u in nbrs if u not in (x1, x1p))
    _require(g.has_edge(x1, x1p),
             "missing x1-x1' edge would force an induced 6-cycle")
    kill = _kill(g, mask, x1, (v, x1p, y1), "x1 should be saturated by v, x1', y1")
    k2_mask = (1 << y1p) | (1 << ystar)
    gw_mask = _rest(g, mask, kill, k2_mask,
                    "the far end plus middle should come off as a K2",
                    "exactly one component should hold w")
    _require((gw_mask >> w) & 1, "w missing from its component")
    bits = 1 << x1
    if gw_mask.bit_count() <= _BASE_ORDER:  # may be a small exceptional copy
        bits |= _base(g, gw_mask, trace, memo, "Case 2.2.4 w-side remainder")
    else:
        bits |= yield gw_mask
    return _close(g, trace, bits, CASE_224, [x1], kill | k2_mask,
                  subcase="ends-x1x1p-edge")


def _case224_double(g, mask, v, y1, x1, x1p, w, y_mid, y_far, trace, memo):
    """A path end y1 of the 3-vertex component is adjacent to two of N(v)."""
    kill = _kill(g, mask, y1, (x1, x1p, y_mid), "doubly attached end should be saturated")
    gv_mask, others = _split(g, mask, kill, v)
    far_single = (1 << y_far) in others
    side_parts = [p for p in others if p != (1 << y_far)]
    cm = _catalog_id(g, gv_mask, memo)
    removed = kill | ((1 << y_far) if far_single else 0)

    if cm is None:
        bits = (1 << y1) | (yield from _each([gv_mask, *side_parts]))
        return _close(g, trace, bits, CASE_224, [y1], removed,
                      subcase="double-attachment")

    _require(_degree(g, gv_mask, v) == 1, "v should be a leaf of the exceptional remainder")
    if cm == "G71":
        _require(far_single, "two leaves adjacent to w cannot form this catalog copy")
        psi = _normalize(g, gv_mask, "G71", pin=v)
        _require(psi is not None, "leaf-pinned isomorphism to the order-7 copy failed")
        chosen = [w, y1, psi[2]]
    else:  # P3: of the catalog graphs only P3 and G71 have a leaf
        _require(not (gv_mask >> y_far) & 1,
                 "far end inside the P3 remainder forces order 7")
        chosen = [w, y1]
    bits = sum(1 << u for u in chosen) | (yield from _each(side_parts))
    return _close(g, trace, bits, CASE_224, chosen, removed | gv_mask,
                  subcase=f"double-attachment-{cm}")


def _case224_deg2_attached(g, mask, v, nbrs, h1, pairs, trace, memo):
    """Condition (1) fails: a degree-2 vertex of H1 touches N(v)."""
    h_mask = h1.mask
    y1, x1 = pairs[0]
    linked_others = [u for u in nbrs if u != x1 and g.rows[u] & h_mask]
    _require(bool(linked_others), "the component must be linked to a second neighbor")
    x1p = linked_others[0]
    w = next(u for u in nbrs if u not in (x1, x1p))
    y1p = _attachments(g, x1p, h_mask)[0]
    _require(y1p != y1, "saturated y1 cannot host a second attachment")
    ystar = next(t for t in bit_indices(h_mask) if t not in (y1, y1p))
    kill = _kill(g, mask, y1, (x1, *bit_indices(h_mask)),
                 "N[y1] should be x1 plus the component")
    gv_mask, others = _split(g, mask, kill, v)
    _require(len(others) <= 1, "x1 has one open slot, so at most one side component")
    hstar_mask = others[0] if others else 0
    _require(_catalog_id(g, hstar_mask, memo) is None,
             "side component off x1 is exceptional")
    cm = _catalog_id(g, gv_mask, memo)

    if cm is None:
        bits = (1 << y1) | (yield gv_mask)
        if hstar_mask:
            bits |= yield hstar_mask
        return _close(g, trace, bits, CASE_224, [y1], kill, subcase="deg2-attached")
    if cm in ("C7", "C11", "G11"):
        trace.add(CASE_224, [], [], {"subcase": "deg2-attached-reenter",
                                     "reenter_at": y1, "gv": cm})
        return (yield from _solve_with_vertex(g, mask, y1, trace, memo))

    _require(cm in ("P3", "C3"), f"unexpected remainder {cm} in Case 2.2.4")
    _require(gv_mask == (1 << v) | (1 << x1p) | (1 << w),
             "3-vertex remainder must be exactly v, x1', w")
    _require(hstar_mask != 0, "order at least 16 forces a side component")
    if hstar_mask.bit_count() % 4 != 0:
        bits = (1 << y1) | _base(g, gv_mask, trace, memo, "small remainder at v")
        bits |= yield hstar_mask
        return _close(g, trace, bits, CASE_224, [y1], kill,
                      subcase="deg2-attached-small-gv")

    # |V(H*)| = 4k: the prescribed second deletions
    if g.has_edge(x1p, ystar):
        kill2 = _kill(g, mask, x1p, (v, y1p, ystar), "x1' should be saturated by v, y1', y*")
        hdag = _rest(g, mask, kill2, 1 << w,
                     "w should be isolated by the second deletion",
                     "second deletion should leave one big component")
        bits = (1 << x1p) | (yield hdag)
        return _close(g, trace, bits, CASE_224, [x1p], kill2 | (1 << w),
                      subcase="deg2-attached-x1p-ystar")

    d_y1p_in_h = _degree(g, h_mask, y1p)
    if d_y1p_in_h == 2 or not g.has_edge(w, ystar):
        # delete x1' plus the whole component; the rest is connected, non-
        # exceptional, and covered from y1' (for the path shape, y* splits off)
        single = (1 << ystar) if d_y1p_in_h == 1 else 0
        kill2 = ((1 << x1p) | h_mask) & ~single
        _require(kill2 & ~closed_mask(g, 1 << y1p) == 0,
                 "second deletion set must lie inside N[y1']")
        big = _rest(g, mask, kill2, single, "y* should split off as a singleton",
                    "one component should remain beside y*")
        bits = (1 << y1p) | (yield big)
        return _close(g, trace, bits, CASE_224, [y1p], kill2 | single,
                      subcase="deg2-attached-r0-y1p")

    # path shape, w adjacent to y*: one of two closing edges must exist
    if g.has_edge(w, y1p):
        kill2 = _kill(g, mask, y1p, (x1p, w, y1), "y1' should be saturated by x1', w, y1")
        a_mask = _rest(g, mask, kill2, 1 << ystar, "y* should be isolated here",
                       "one big component expected")
        bits = (1 << y1p) | (yield a_mask)
        return _close(g, trace, bits, CASE_224, [y1p], kill2 | (1 << ystar),
                      subcase="deg2-attached-r0-wy1p")
    _require(g.has_edge(x1p, w),
             "both closing edges absent would leave an induced 6-cycle")
    kill2 = _kill(g, mask, x1p, (v, w, y1p), "x1' should be saturated by v, w, y1'")
    bits = (1 << x1p) | (yield _rest(g, mask, kill2))
    return _close(g, trace, bits, CASE_224, [x1p], kill2, subcase="deg2-attached-r0-x1pw")
