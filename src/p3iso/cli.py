"""Command-line surface: compute isolation numbers, run the constructive
algorithm, verify the bound over enumerated or streamed corpora, check the
catalog observations, and emit generator/catalog graphs.

Exit codes: 0 pass, 1 verification violation, 2 input error (a bad
argument, or a line that does not decode), 3 precondition error, 4 internal
error of the constructive algorithm, 141 standard output closed by its
reader (as in ``p3iso enum ... | head``). All vertex labels printed are
1-based; --json output is stable for golden-file tests.

A subcommand imports ``constructive``, ``enumeration``, ``verify`` or
``json`` only when it runs them, so ``p3iso gen`` or ``p3iso catalog``
loads none of the first three.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys

from . import generators
from .graph_io import (EdgeListError, Graph6Error, emit_edge_list, emit_graph6,
                       iter_graph6, parse_edge_list)
from .graphcore import Graph
from .solver import isolation_number


class InputError(Exception):
    pass


@contextlib.contextmanager
def _open(path: str):
    """The file at ``path``, or stdin for "-", read as ASCII. A byte outside
    ASCII reads as U+FFFD, so it fails its own line's character check
    instead of the whole read. Failing to open or read is an input error."""
    if path == "-" and isinstance(sys.stdin, io.TextIOWrapper):  # not a StringIO
        sys.stdin.reconfigure(encoding="ascii", errors="replace")
    try:
        with (sys.stdin if path == "-" else
              open(path, encoding="ascii", errors="replace")) as fh:
            yield fh
    except OSError as exc:
        raise InputError(str(exc)) from None


def _read_graphs(path: str) -> list[Graph]:
    """An edge list if the first nonblank line is an "n m" header of two
    all-digit tokens, else graph6 lines, which hold no digit or space."""
    with _open(path) as fh:
        text = fh.read()
    lines = text.split("\n")  # numbered as the file object numbers them
    head = next((ln.split() for ln in lines if ln.strip()), [])
    if len(head) == 2 and all(t.isdigit() for t in head):
        try:
            return [parse_edge_list(text)]
        except EdgeListError as exc:
            raise InputError(str(exc)) from None
    graphs = []
    for lineno, item in iter_graph6(lines):
        if isinstance(item, Graph6Error):
            raise InputError(f"line {lineno}: {item}")
        graphs.append(item)
    if not graphs:
        raise InputError("no graph in input")
    return graphs


def _json(value, sort_keys: bool = True) -> str:
    """``json.dumps``; json loads only when a command prints it."""
    import json

    return json.dumps(value, sort_keys=sort_keys)


def _one_based(vs: tuple[int, ...]) -> list[int]:
    return [v + 1 for v in vs]


def cmd_iota(args) -> int:
    graphs = _read_graphs(args.input)
    out = []
    for g in graphs:
        cert = isolation_number(g, budget=args.budget)
        rec = {
            "n": g.n,
            "m": g.edge_count,
            "iota": cert.value,
            "exact": cert.exact,
            "set": _one_based(cert.set),
            "graph6": emit_graph6(g),
        }
        out.append(rec)
        if not args.json:
            found = (f"iota={cert.value} set={rec['set']}" if cert.exact
                     else f"iota>{args.budget}")
            print(f"n={g.n} m={g.edge_count} {found}")
    if args.json:
        print(_json(out if len(out) > 1 else out[0]))
    return 0


def cmd_isolate(args) -> int:
    """Answers every graph, going on past a failing one: its --json record
    is {"n", "error"} and its message goes to stderr. Exits 4 if any graph
    hit an internal error, else 3 if any failed a precondition, else 0."""
    from .constructive import (InternalCaseExhausted, PreconditionViolated,
                               isolate_p3_subcubic)

    graphs = _read_graphs(args.input)
    out = []
    code = 0
    for i, g in enumerate(graphs, 1):
        try:
            cert, trace = isolate_p3_subcubic(g)
        except PreconditionViolated as exc:
            code, error = max(code, 3), f"precondition violated: {exc.reason}"
        except InternalCaseExhausted as exc:
            code, error = 4, f"internal error: {exc}"
        else:
            error = None
        if error:
            out.append({"n": g.n, "error": error})
            print(f"graph {i}: {error}", file=sys.stderr)
            continue
        rec = {
            "n": g.n,
            "size": len(cert.set),
            "bound": g.n // 4,
            "set": _one_based(cert.set),
            "cases": trace.case_ids(),
        }
        out.append(rec)
        if not args.json:
            print(f"n={g.n} |D|={rec['size']} <= {rec['bound']} set={rec['set']}")
        if args.trace:
            print(trace.to_json_lines())
    if args.json:
        print(_json(out if len(out) > 1 else out[0]))
    return code


def cmd_verify(args) -> int:
    from .verify import verify_enumerated, verify_stream

    if args.stream and args.jobs > 1:
        raise InputError("--jobs splits the enumeration; it does not apply to --stream")
    if args.stream:
        with _open(args.stream) as fh:
            report = verify_stream(fh)
        if not report.graphs and not report.skipped:
            raise InputError("no graph in input")
    else:
        report = verify_enumerated(args.max_n or 9, jobs=args.jobs)
    payload = report.to_dict()
    if args.json:
        print(_json(payload))
    else:
        for row in payload["orders"]:
            exc = ", ".join(f"{k} x{v}" for k, v in row["exceptions"].items()) or "-"
            print(f"n={row['order']:2d} examined={row['examined']:6d} "
                  f"eligible={row['eligible']:6d} exceptions=[{exc}] "
                  f"violations={len(row['violations'])} ({row['elapsed_s']}s)")
        if report.skipped:
            print(f"FAIL: {len(report.skipped)} unreadable line(s) skipped")
        else:
            print("PASS" if payload["passed"] else
                  "FAIL: bound violated by a non-catalog graph")
    for lineno, msg in report.skipped:
        print(f"input error: line {lineno}: {msg}", file=sys.stderr)
    if report.skipped:
        return 2
    return 0 if payload["passed"] else 1


def cmd_check_observations(args) -> int:
    from .verify import check_observations

    results = check_observations()
    if args.json:
        print(_json([r._asdict() for r in results]))
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name}"
                  + (f": {r.message}" if r.message else ""))
    if all(r.passed for r in results):
        return 0
    print("observation checks failed", file=sys.stderr)
    return 1


def _emit(graphs: list[tuple[str, Graph]], fmt: str) -> None:
    for name, g in graphs:
        if fmt == "graph6":
            print(emit_graph6(g))
        elif fmt == "edges":
            sys.stdout.write(emit_edge_list(g))
        else:
            print(_json({"name": name, "n": g.n,
                         "edges": [[u + 1, v + 1] for u, v in g.edges()]}))


_GENERATORS = {"path": generators.path, "cycle": generators.cycle,
               "complete": generators.complete, "bnp3": generators.construction_B_p3}


def cmd_gen(args) -> int:
    try:
        g = _GENERATORS[args.kind](args.n)
    except generators.BadOrder as exc:
        raise InputError(str(exc)) from None
    _emit([(f"{args.kind}-{args.n}", g)], args.format)
    return 0


def cmd_catalog(args) -> int:
    _emit([(e.id, e.graph) for e in generators.catalog()], args.format)
    return 0


def cmd_enum(args) -> int:
    from .enumeration import EnumSpec, enumerate_connected_subcubic

    spec = EnumSpec(args.max_n, no_induced_c6=args.no_induced_c6)
    counts = enumerate_connected_subcubic(spec, sink=lambda g: print(emit_graph6(g)))
    print(_json({"counts": {str(k): v for k, v in sorted(counts.items())}},
                sort_keys=False),
          file=sys.stderr)
    return 0


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="p3iso", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("iota", help="exact P3-isolation number of input graphs")
    p.add_argument("input", help="file of graph6 lines or an edge list; - for stdin")
    p.add_argument("--budget", type=_at_least(0), default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_iota)

    p = sub.add_parser("isolate", help="constructive floor(n/4) isolating set")
    p.add_argument("input")
    p.add_argument("--json", action="store_true")
    p.add_argument("--trace", action="store_true",
                   help="print the case trace as JSON lines")
    p.set_defaults(fn=cmd_isolate)

    p = sub.add_parser("verify", help="check the floor(n/4) bound over a corpus")
    # one corpus or the other; --max-n defaults to None (9 in cmd_verify)
    # because argparse lets a value identical to the default pass unchecked
    corpus = p.add_mutually_exclusive_group()
    corpus.add_argument("--max-n", type=_at_least(1), default=None,
                        help="largest order to enumerate (default 9)")
    corpus.add_argument("--stream", default=None,
                        help="graph6 file to verify instead of enumerating; - for stdin")
    p.add_argument("--jobs", type=_at_least(1), default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("check-observations",
                       help="machine-check the documented catalog properties")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check_observations)

    p = sub.add_parser("gen", help="emit a generated graph")
    p.add_argument("kind", choices=list(_GENERATORS))
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=["graph6", "edges", "json"], default="graph6")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("catalog", help="emit the 12 exceptional graphs")
    p.add_argument("--format", choices=["graph6", "edges", "json"], default="graph6")
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("enum", help="emit connected subcubic graphs as graph6")
    p.add_argument("--max-n", type=_at_least(1), required=True)
    p.add_argument("--no-induced-c6", action="store_true",
                   help="restrict to graphs without induced 6-cycles")
    p.set_defaults(fn=cmd_enum)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout has gone; send what is still buffered to
        # /dev/null so the flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
