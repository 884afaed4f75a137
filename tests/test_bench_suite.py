"""The benchmark's own unit tests pass against the library in ``src``.

They exercise the workload checks and the tracer with library calls, so a
library change that breaks them fails here rather than when the benchmark
runs. The bench directory is only read.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_unit_tests_pass():
    proc = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s", "bench"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
