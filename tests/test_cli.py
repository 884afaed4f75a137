import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from p3iso import constructive, verify
from p3iso import generators as gen
from p3iso.graphcore import Graph
from p3iso.cli import build_parser, main
from p3iso.graph_io import emit_edge_list, emit_graph6, parse_graph6

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_iota_catalog_g11(tmp_path, capsys):
    path = write(tmp_path, "g11.g6", emit_graph6(gen.catalog_entry("G11").graph))
    code, out, _ = run(capsys, "iota", path, "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["iota"] == 3 and rec["exact"]


def test_iota_k3_and_empty(tmp_path, capsys):
    path = write(tmp_path, "g.g6", "Bw\n?\n")
    code, out, _ = run(capsys, "iota", path, "--json")
    assert code == 0
    recs = json.loads(out)
    assert [r["iota"] for r in recs] == [1, 0]


def test_iota_edge_list_autodetect(tmp_path, capsys):
    path = write(tmp_path, "g.edges", emit_edge_list(gen.cycle(7)))
    code, out, _ = run(capsys, "iota", path)
    assert code == 0 and "iota=2" in out


def test_iota_text_past_the_budget(tmp_path, capsys):
    # a graph that needs more than the budget has no value or set to print
    path = write(tmp_path, "c7.g6", emit_graph6(gen.cycle(7)))
    code, out, _ = run(capsys, "iota", path, "--budget", "1")
    assert (code, out) == (0, "n=7 m=7 iota>1\n")
    code, out, _ = run(capsys, "iota", path, "--budget", "2")
    assert (code, out) == (0, "n=7 m=7 iota=2 set=[1, 3]\n")


def test_option_surface_is_pinned():
    # every argument of every subcommand; a new option means editing this
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    surface = {name: [a.option_strings[0] if a.option_strings else a.dest
                      for a in p._actions if a.dest != "help"]
               for name, p in sub.choices.items()}
    assert surface == {
        "iota": ["input", "--budget", "--json"],
        "isolate": ["input", "--json", "--trace"],
        "verify": ["--max-n", "--stream", "--jobs", "--json"],
        "check-observations": ["--json"],
        "gen": ["kind", "n", "--format"],
        "catalog": ["--format"],
        "enum": ["--max-n", "--no-induced-c6"],
    }


def test_iota_parse_failure_exits_2(tmp_path, capsys):
    path = write(tmp_path, "bad.g6", "B\n")
    code, _, err = run(capsys, "iota", path)
    assert code == 2 and "input error" in err


def test_isolate_exit_codes(tmp_path, capsys):
    path = write(tmp_path, "g15.g6", emit_graph6(gen.catalog_entry("G15").graph))
    code, _, err = run(capsys, "isolate", path)
    assert code == 3 and "ExceptionalGraph" in err

    path = write(tmp_path, "c6.g6", emit_graph6(gen.cycle(6)))
    code, _, err = run(capsys, "isolate", path)
    assert code == 3 and "InducedC6" in err


def test_isolate_json_keeps_results_before_a_failure(tmp_path, capsys):
    # C12 is solved, C6 (an induced 6-cycle) fails, and C16 is still solved
    path = write(tmp_path, "c12-c6-c16.g6",
                 "".join(emit_graph6(gen.cycle(n)) + "\n" for n in (12, 6, 16)))
    code, out, err = run(capsys, "isolate", path)
    assert code == 3 and "graph 2: precondition violated: InducedC6" in err
    assert out.splitlines()[0].startswith("n=12 |D|=3")
    assert out.splitlines()[1].startswith("n=16 |D|=4")
    code, out, err = run(capsys, "isolate", path, "--json")
    assert code == 3 and "InducedC6" in err
    recs = json.loads(out)
    assert (recs[0]["n"], recs[0]["size"], recs[0]["bound"]) == (12, 3, 3)
    assert recs[1] == {"n": 6, "error": "precondition violated: InducedC6"}
    assert (recs[2]["n"], recs[2]["size"], recs[2]["bound"]) == (16, 4, 4)


def test_isolate_answers_every_enumerated_graph(tmp_path, capsys):
    # the eligible graphs to order 9 include the nine exceptional ones of
    # orders 3 and 7; each gets an error record and the rest are solved
    code, out, _ = run(capsys, "enum", "--max-n", "9", "--no-induced-c6")
    assert code == 0
    path = write(tmp_path, "upto9.g6", out)
    code, out, err = run(capsys, "isolate", path, "--json")
    assert code == 3
    recs = json.loads(out)
    errors = [r for r in recs if "error" in r]
    assert len(recs) == 606 and len(errors) == 9
    assert all(r["error"] == "precondition violated: ExceptionalGraph" for r in errors)
    assert sorted(r["n"] for r in errors) == [3, 3] + [7] * 7
    assert err.count("ExceptionalGraph") == 9
    assert all(r["size"] <= r["bound"] for r in recs if "error" not in r)


def test_isolate_with_trace(tmp_path, capsys):
    path = write(tmp_path, "c12.g6", emit_graph6(gen.cycle(12)))
    code, out, _ = run(capsys, "isolate", path, "--trace")
    assert code == 0
    lines = out.strip().splitlines()
    assert "|D|=" in lines[0]
    rec = json.loads(lines[1])
    assert rec["case"] == "Base<=15"


def test_verify_enum_and_json(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "5")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "verify", "--max-n", "4", "--json")
    payload = json.loads(out)
    assert payload["passed"]
    assert payload["orders"][2]["exceptions"] == {"C3": 1, "P3": 1}
    for row in payload["orders"]:
        assert row["eligible"] <= row["examined"]


def test_verify_jobs_json_matches_serial(capsys):
    payloads = []
    for extra in ([], ["--jobs", "2"]):
        code, out, _ = run(capsys, "verify", "--max-n", "8", "--json", *extra)
        assert code == 0
        payloads.append(json.loads(out))
        for row in payloads[-1]["orders"]:
            del row["elapsed_s"]
    assert payloads[0] == payloads[1]


def test_verify_stream(tmp_path, capsys):
    path = write(tmp_path, "cat.g6",
                 "\n".join(emit_graph6(e.graph) for e in gen.catalog()) + "\n")
    code, out, _ = run(capsys, "verify", "--stream", path)
    assert code == 0 and "PASS" in out


def test_verify_damaged_stream_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("Bw\njunk\nBg\n"))
    code, out, err = run(capsys, "verify", "--stream", "-")
    assert code == 2 and "PASS" not in out
    assert "line 2" in err
    monkeypatch.setattr(sys, "stdin", io.StringIO("Bw\njunk\nBg\n"))
    code, out, _ = run(capsys, "verify", "--stream", "-", "--json")
    payload = json.loads(out)
    assert code == 2 and not payload["passed"]
    assert (payload["lines_read"], payload["graphs"], payload["skipped"]) == (3, 2, 1)
    # with no line that decodes, each bad line is still listed
    monkeypatch.setattr(sys, "stdin", io.StringIO("junk\n\nB\n"))
    code, out, err = run(capsys, "verify", "--stream", "-", "--json")
    assert code == 2 and json.loads(out)["skipped"] == 2
    assert "line 1" in err and "line 3" in err


@pytest.mark.parametrize("data", ["", "\n  \n\n"], ids=["empty", "blank-only"])
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_verify_stream_without_a_graph_exits_2(monkeypatch, capsys, data, flags):
    # as for iota and isolate, an input with no graph is an input error
    monkeypatch.setattr(sys, "stdin", io.StringIO(data))
    code, out, err = run(capsys, "verify", "--stream", "-", *flags)
    assert (code, out) == (2, "") and "input error: no graph in input" in err


# Each id spells out the name pytest derives from the row's values and list
# index (argvN), so the test names stay as they are and a row inserted
# anywhere renames no other row. A new row gets a short id of its own.
@pytest.mark.parametrize("data, argv, code, out, err", [
    # the optional '>>graph6<<' header shares its line with the first graph
    pytest.param(b">>graph6<<Bw\nBg\n", ["iota", "FILE"], 0,
                 "n=3 m=3 iota=1 set=[1]\nn=3 m=2 iota=1 set=[1]\n", "",
                 id=">>graph6<<Bw\nBg\n-argv0-0-n=3 m=3 iota=1 set=[1]\n"
                    "n=3 m=2 iota=1 set=[1]\n-"),
    pytest.param(b">>graph6<<Bw\nBg\n", ["iota", "-"], 0,
                 "n=3 m=3 iota=1 set=[1]\nn=3 m=2 iota=1 set=[1]\n", "",
                 id=">>graph6<<Bw\nBg\n-argv1-0-n=3 m=3 iota=1 set=[1]\n"
                    "n=3 m=2 iota=1 set=[1]\n-"),
    pytest.param(b">>graph6<<\n", ["iota", "FILE", "--json"], 2, "", "no graph",
                 id=">>graph6<<\n-argv2-2--no graph"),
    pytest.param(b">>graph6<<\n", ["isolate", "FILE", "--json"], 2, "", "no graph",
                 id=">>graph6<<\n-argv3-2--no graph"),
    # a byte outside ASCII fails its own line, on every command
    pytest.param(b"Bw\n\xe9\n", ["iota", "FILE"], 2, "", "line 2",
                 id="Bw\n\xe9\n-argv4-2--line 2"),
    pytest.param(b"Bw\n\xe9\n", ["iota", "-"], 2, "", "line 2",
                 id="Bw\n\xe9\n-argv5-2--line 2"),
    pytest.param(b"Bw\n\xe9\n", ["isolate", "FILE"], 2, "", "line 2",
                 id="Bw\n\xe9\n-argv6-2--line 2"),
    pytest.param(b"Bw\n\xe9\n", ["verify", "--stream", "FILE"], 2,
                 "FAIL: 1 unreadable line(s) skipped", "line 2",
                 id="Bw\n\xe9\n-argv7-2-FAIL: 1 unreadable line(s) skipped-line 2"),
    pytest.param(b"Bw\n\xe9\n", ["verify", "--stream", "-"], 2,
                 "FAIL: 1 unreadable line(s) skipped", "line 2",
                 id="Bw\n\xe9\n-argv8-2-FAIL: 1 unreadable line(s) skipped-line 2"),
    # bad arguments are usage errors; P3 is the only family, so argparse
    # rejects --family as an unknown option
    pytest.param(b"Bw\n", ["iota", "FILE", "--family", "foo"], 2, "", "--family",
                 id="Bw\n-argv9-2----family"),
    pytest.param(b"Bw\n", ["iota", "FILE", "--family", "cycle:2"], 2, "", "--family",
                 id="Bw\n-argv10-2----family"),
    pytest.param(b"Bw\n", ["iota", "FILE", "--budget", "-1"], 2, "", "--budget",
                 id="Bw\n-argv11-2----budget"),
    pytest.param(b"", ["verify", "--max-n", "0"], 2, "", "--max-n",
                 id="-argv12-2----max-n"),
    pytest.param(b"", ["enum", "--max-n", "0"], 2, "", "--max-n",
                 id="-argv13-2----max-n"),
    pytest.param(b"", ["verify", "--jobs", "0"], 2, "", "--jobs",
                 id="-argv14-2----jobs"),
    pytest.param(b"", ["verify", "--jobs", "-3"], 2, "", "--jobs",
                 id="-argv15-2----jobs"),
    # enum has no --jobs; a streamed verify has nothing to split
    pytest.param(b"", ["enum", "--max-n", "3", "--jobs", "2"], 2, "", "--jobs",
                 id="-argv16-2----jobs"),
    pytest.param(b"", ["verify", "--stream", "FILE", "--jobs", "2"], 2, "", "--jobs",
                 id="-argv17-2----jobs"),
    # --max-n sizes the enumeration, so a streamed verify refuses it too
    pytest.param(b"", ["verify", "--stream", "FILE", "--max-n", "3"], 2, "", "--max-n",
                 id="-argv18-2----max-n"),
    # a doubled sign in an edge list is a format error, not a crash
    pytest.param(b"3 1\n1 --2\n", ["iota", "FILE"], 2, "", "bad edge line",
                 id="3 1\n1 --2\n-argv19-2--bad edge line"),
    # "--3 0" is no "n m" header, so it is read as graph6
    pytest.param(b"--3 0\n", ["iota", "FILE"], 2, "", "character '-' outside graph6 range",
                 id="--3 0\n-argv20-2--character '-' outside graph6 range"),
    # a path that cannot be opened is an input error
    pytest.param(b"", ["iota", "MISSING"], 2, "", "input error:",
                 id="-argv21-2--input error:"),
    pytest.param(b"", ["iota", "DIR"], 2, "", "input error:",
                 id="-argv22-2--input error:"),
    # an extended order header cut short
    pytest.param(b"~~??\n", ["iota", "FILE"], 2, "", "incomplete 8-byte order header",
                 id="~~??\n-argv23-2--incomplete 8-byte order header"),
    # the input decides its own format, so iota and isolate take no --format
    pytest.param(b"Bw\n", ["iota", "FILE", "--format", "graph6"], 2, "", "--format",
                 id="Bw\n-argv24-2----format"),
    pytest.param(b"Bw\n", ["isolate", "FILE", "--format", "edges"], 2, "", "--format",
                 id="Bw\n-argv25-2----format"),
])
def test_exit_code_contract(tmp_path, monkeypatch, capsys, data, argv, code, out, err):
    path = tmp_path / "input"
    path.write_bytes(data)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    try:
        paths = {"FILE": path, "MISSING": tmp_path / "missing", "DIR": tmp_path}
        got = main([str(paths.get(a, a)) for a in argv])
    except SystemExit as exc:  # argparse rejects bad arguments this way
        got = exc.code
    captured = capsys.readouterr()
    assert got == code
    assert out in captured.out and err in captured.err
    assert "Traceback" not in captured.err


def test_isolate_internal_error_exits_4(tmp_path, monkeypatch, capsys):
    def broken(g, mask, trace):
        raise constructive.InternalCaseExhausted("closed form withheld")

    monkeypatch.setattr(constructive, "_delta2", broken)
    path = write(tmp_path, "p.g6", emit_graph6(gen.path(20)))
    code, out, err = run(capsys, "isolate", path)
    assert code == 4 and out == ""
    assert "internal error: closed form withheld" in err and "Traceback" not in err


def test_iota_json_carries_long_graph6(tmp_path, capsys):
    g = Graph.from_edges(70, [(i, i + 1) for i in range(69)])
    path = write(tmp_path, "p70.g6", emit_graph6(g))
    code, out, _ = run(capsys, "iota", path, "--json")
    assert code == 0
    assert parse_graph6(json.loads(out)["graph6"]) == g


def test_iota_json_record_keys_are_pinned(tmp_path, capsys):
    # --json output is stable for golden-file tests: no key comes or goes
    path = write(tmp_path, "g.g6", "Bw\n?\nFhCKG\n")
    code, out, _ = run(capsys, "iota", path, "--json", "--budget", "1")
    assert code == 0
    recs = json.loads(out)
    assert len(recs) == 3
    for rec in recs:
        assert set(rec) == {"n", "m", "iota", "exact", "set", "graph6"}


def test_check_observations(capsys):
    code, out, _ = run(capsys, "check-observations")
    assert code == 0
    assert out.count("PASS") == 10 and "FAIL" not in out
    code, out, _ = run(capsys, "check-observations", "--json")
    recs = json.loads(out)
    assert code == 0 and len(recs) == 10 and all(r["passed"] for r in recs)


def test_check_observations_reports_a_failure(capsys, monkeypatch):
    monkeypatch.setattr(verify, "check_observations", lambda: [
        verify.ObservationResult("holds", True),
        verify.ObservationResult("breaks", False, "vertex 3")])
    code, out, err = run(capsys, "check-observations")
    assert code == 1 and out.splitlines() == ["PASS holds", "FAIL breaks: vertex 3"]
    assert err == "observation checks failed\n"


def test_gen_and_iota_pipeline(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "bnp3", "12")
    assert code == 0
    path = write(tmp_path, "b12.g6", out)
    code, out, _ = run(capsys, "iota", path, "--json")
    assert json.loads(out)["iota"] == 3


def test_gen_cycle_11(capsys):
    code, out, _ = run(capsys, "gen", "cycle", "11")
    assert code == 0
    assert parse_graph6(out.strip()) == gen.cycle(11)


def test_long_cycle_isolate_pipeline_exits_0():
    # a 1100-vertex graph6 line (long header) piped through stdin
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    cli = [sys.executable, "-m", "p3iso.cli"]
    g6 = subprocess.run(cli + ["gen", "cycle", "1100"], capture_output=True,
                        text=True, env=env, check=True).stdout
    proc = subprocess.run(cli + ["isolate", "-"], input=g6,
                          capture_output=True, text=True, env=env, timeout=120)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0 and "|D|=220" in proc.stdout


def test_gen_bad_order_exits_2(capsys):
    code, _, err = run(capsys, "gen", "cycle", "2")
    assert code == 2 and "input error" in err


def test_catalog_formats(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0 and len(out.strip().splitlines()) == 12
    code, out, _ = run(capsys, "catalog", "--format", "json")
    names = [json.loads(ln)["name"] for ln in out.strip().splitlines()]
    assert names == [e.id for e in gen.catalog()]
    code, out, _ = run(capsys, "catalog", "--format", "edges")
    assert out.startswith("3 2\n")


def test_enum_command(capsys):
    code, out, err = run(capsys, "enum", "--max-n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10  # 1 + 1 + 2 + 6
    counts = json.loads(err.strip().splitlines()[-1])["counts"]
    assert counts == {"1": 1, "2": 1, "3": 2, "4": 6}
    for ln in lines:
        g = parse_graph6(ln)
        assert g.max_degree() <= 3


def test_enum_summary_lists_orders_numerically(capsys):
    code, _, err = run(capsys, "enum", "--max-n", "10")
    assert code == 0
    counts = json.loads(err.strip().splitlines()[-1])["counts"]
    assert list(counts) == [str(n) for n in range(1, 11)]
    assert counts["10"] == 1733


def test_closed_stdout_exits_141_without_traceback():
    # unbuffered, each graph is its own write; the reader leaves after the
    # first line while most of the enumeration is still ahead
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=path)
    proc = subprocess.Popen([sys.executable, "-m", "p3iso.cli", "enum", "--max-n", "9"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().strip()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err
