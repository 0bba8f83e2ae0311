"""The benchmark's modules import against the current ``src``.

``benchmarks/`` reads names from ``risac`` at import time, and its own tests
are not part of this suite, so a ``src`` change that removes such a name
fails here, not only when the benchmark next runs. So does one that breaks
a call the benchmark's micro timings make.
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
    proc = _bench_python(f"import {', '.join(MODULES)}")
    assert proc.returncode == 0, proc.stderr


def test_benchmark_kernel_timings_run_once_per_call():
    # The traced run calls these kernels with the arguments micro.py passes,
    # such as glrt_monte_carlo(scene, w, phi, 100000, det); each is timed by
    # one call here, not by batches.
    proc = _bench_python("import micro\n"
                         "micro.per_call_s = lambda fn: (fn(), 0.0)[1]\n"
                         "assert len(micro.kernel_timings()) == 7")
    assert proc.returncode == 0, proc.stderr


def _bench_python(code):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "benchmarks")])}
    return subprocess.run([sys.executable, "-W", "error", "-c", code],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
