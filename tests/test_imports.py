"""Every name a library module imports is used in it (``__init__`` re-exports),
and each entry point loads only the modules its caller runs."""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "p3iso"

# Standard modules no entry point of the package needs: records are
# namedtuples or __slots__ classes, annotations stay strings (the random
# graph functions take their generator from the caller), and only a parallel
# verify run imports the process pool.
UNNEEDED = ("dataclasses", "inspect", "typing", "multiprocessing", "concurrent.futures",
            "random")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_sees_an_unused_name():
    assert _unused_imports("import os\nfrom a import b, c as d\nb()\n") == \
        ["os (line 1)", "d (line 2)"]


def test_library_modules_use_every_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def _probe(code: str) -> None:
    """Run code in a fresh interpreter without site packages and with every
    warning an error; fail with its stderr if it exits nonzero."""
    prelude = f"import sys\nsys.path.insert(0, {str(PACKAGE.parent)!r})\n"
    proc = subprocess.run([sys.executable, "-S", "-W", "error", "-c", prelude + code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_only_the_core():
    _probe(f"""
import p3iso
generators = sys.modules["p3iso.generators"]
assert generators.catalog.cache_info().currsize == 1  # the self-check ran
generators.catalog()
lazy = ("json", "re", "p3iso.graph_io", "p3iso.constructive")
loaded = [m for m in {UNNEEDED!r} + lazy if m in sys.modules]
assert not loaded, loaded
import p3iso.verify, p3iso.cli
loaded = [m for m in {UNNEEDED!r} if m in sys.modules]
assert not loaded, loaded
""")


def test_checker_loads_no_search_code():
    # ``import p3iso`` loads the search for its re-exports, so check.py is
    # loaded under a bare package object: only its own imports run
    _probe(f"""
import types
sys.modules["p3iso"] = package = types.ModuleType("p3iso")
package.__path__ = [{str(PACKAGE)!r}]
import p3iso.check
loaded = sorted(m for m in sys.modules if m.startswith("p3iso."))
assert loaded == ["p3iso.check", "p3iso.graphcore"], loaded
""")
    # verify takes the recheck from check, not from constructive
    _probe("""
import p3iso.verify
assert "p3iso.constructive" not in sys.modules
""")


def test_cli_import_loads_no_subcommand_module():
    # each subcommand imports the modules it runs, so ``p3iso gen`` or
    # ``p3iso catalog`` loads none of them
    _probe("""
import p3iso.cli
lazy = ("p3iso.constructive", "p3iso.verify", "p3iso.enumeration", "json")
loaded = [m for m in lazy if m in sys.modules]
assert not loaded, loaded
""")


def test_lazy_reexports_are_the_submodules_objects():
    _probe("""
import p3iso
from p3iso import parse_graph6, isolate_p3_subcubic, CaseTrace
from p3iso import constructive, graph_io
assert parse_graph6 is graph_io.parse_graph6
assert isolate_p3_subcubic is constructive.isolate_p3_subcubic
assert CaseTrace is constructive.CaseTrace
star = {}
exec("from p3iso import *", star)
assert set(p3iso.__all__) <= set(star)
owners = [sys.modules[m] for m in sorted(sys.modules) if m.startswith("p3iso.")]
stray = [n for n in p3iso.__all__
         if not any(getattr(m, n, None) is star[n] for m in owners)]
assert not stray, stray
try:
    p3iso.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("p3iso.no_such_name resolved")
""")
