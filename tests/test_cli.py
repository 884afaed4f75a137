import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from p3iso import constructive
from p3iso import generators as gen
from p3iso.graphcore import Graph
from p3iso.cli import main
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


def test_iota_family_flag(tmp_path, capsys):
    path = write(tmp_path, "c5.g6", emit_graph6(gen.cycle(5)))
    code, out, _ = run(capsys, "iota", path, "--family", "k2", "--json")
    assert json.loads(out)["iota"] == 2


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


@pytest.mark.parametrize("data, argv, code, out, err", [
    # the optional '>>graph6<<' header shares its line with the first graph
    (b">>graph6<<Bw\nBg\n", ["iota", "FILE"], 0,
     "n=3 m=3 iota=1 set=[1]\nn=3 m=2 iota=1 set=[1]\n", ""),
    (b">>graph6<<Bw\nBg\n", ["iota", "-"], 0,
     "n=3 m=3 iota=1 set=[1]\nn=3 m=2 iota=1 set=[1]\n", ""),
    (b">>graph6<<\n", ["iota", "FILE", "--json"], 2, "", "no graph"),
    (b">>graph6<<\n", ["isolate", "FILE", "--json"], 2, "", "no graph"),
    # a byte outside ASCII fails its own line, on every command
    (b"Bw\n\xe9\n", ["iota", "FILE"], 2, "", "line 2"),
    (b"Bw\n\xe9\n", ["iota", "-"], 2, "", "line 2"),
    (b"Bw\n\xe9\n", ["isolate", "FILE"], 2, "", "line 2"),
    (b"Bw\n\xe9\n", ["verify", "--stream", "FILE"], 2,
     "FAIL: 1 unreadable line(s) skipped", "line 2"),
    (b"Bw\n\xe9\n", ["verify", "--stream", "-"], 2,
     "FAIL: 1 unreadable line(s) skipped", "line 2"),
    # bad arguments are usage errors
    (b"Bw\n", ["iota", "FILE", "--family", "foo"], 2, "", "--family"),
    (b"Bw\n", ["iota", "FILE", "--family", "cycle:2"], 2, "", "--family"),
    (b"Bw\n", ["iota", "FILE", "--budget", "-1"], 2, "", "--budget"),
    (b"", ["verify", "--max-n", "0"], 2, "", "--max-n"),
    (b"", ["enum", "--max-n", "0"], 2, "", "--max-n"),
])
def test_exit_code_contract(tmp_path, monkeypatch, capsys, data, argv, code, out, err):
    path = tmp_path / "input"
    path.write_bytes(data)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    try:
        got = main([str(path) if a == "FILE" else a for a in argv])
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
    n = constructive.FALLBACK_MAX_ORDER + 1
    path = write(tmp_path, "p.g6", emit_graph6(gen.path(n)))
    code, out, err = run(capsys, "isolate", path)
    assert code == 4 and out == ""
    assert "internal error: closed form withheld" in err and "Traceback" not in err


def test_iota_json_carries_long_graph6(tmp_path, capsys):
    g = Graph.from_edges(70, [(i, i + 1) for i in range(69)])
    path = write(tmp_path, "p70.g6", emit_graph6(g))
    code, out, _ = run(capsys, "iota", path, "--json")
    assert code == 0
    assert parse_graph6(json.loads(out)["graph6"]) == g


def test_check_observations(capsys):
    code, out, _ = run(capsys, "check-observations")
    assert code == 0
    assert out.count("PASS") == 10 and "FAIL" not in out


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


def test_gen_bad_order_exits_2(capsys):
    code, _, err = run(capsys, "gen", "cycle", "2")
    assert code == 2 and "input error" in err


def test_catalog_formats(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0 and len(out.strip().splitlines()) == 12
    code, out, _ = run(capsys, "catalog", "--format", "json")
    names = [json.loads(ln)["name"] for ln in out.strip().splitlines()]
    assert names == list(gen.CATALOG_IDS)
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
