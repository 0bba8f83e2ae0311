"""The benchmark's modules import against the current ``src``.

``benchmarks/`` reads names from ``risac`` at import time, and its own tests
are not part of this suite, so a ``src`` change that removes such a name
fails here, not only when the benchmark next runs.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("checks", "workloads", "tracing", "micro", "harness", "run")


def test_benchmark_modules_import_with_warnings_as_errors():
    # A fresh interpreter: the modules import each other by bare name from
    # benchmarks/, and names such as "run" should not enter this process.
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "benchmarks")])}
    proc = subprocess.run([sys.executable, "-W", "error", "-c", f"import {', '.join(MODULES)}"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
