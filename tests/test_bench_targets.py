"""The benchmark tracer wraps library attributes by name; they must exist.

``bench/tracer.py`` patches each ``(module, attribute)`` of its SPANS and
COUNTERS at call time, so a renamed function would only show up when the
benchmark runs. The file is read here, not changed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_targets_exist_in_p3iso():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(mod, attr) for mod, attr, _ in tracer.SPANS + tracer.COUNTERS]
    assert targets
    missing = [(mod, attr) for mod, attr in targets
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []
