"""Runs one workload in this process: the timed loop, the traced run, the checks.

``run.py`` imports it once per benchmark run; the tests call ``run_untraced``
and ``run_traced`` directly at tiny sizes. ``src`` must be on ``sys.path``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import platform
import shutil
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

from risac import cli
from risac.config import RunConfig, render_config

from checks import CHECKS, CheckResult, check_design_diagonal
from tracing import Tracer
from workloads import WORKLOADS


@dataclasses.dataclass
class RunStats:
    walls: list
    check: CheckResult
    digests: dict
    out_bytes: int


def write_configs(name: str, seed: int, out_dir: Path, overrides=None) -> dict:
    """Render one config file per experiment of the workload."""
    wl = WORKLOADS[name]
    values = {**wl.overrides, **(overrides or {})}
    values["seed"] = seed if wl.seeded else 0
    out_dir.mkdir(parents=True, exist_ok=True)
    configs = {}
    for exp in wl.experiments:
        cfg = RunConfig(experiment=exp, **values).validate()
        path = out_dir / f"{exp}.cfg"
        path.write_text(render_config(cfg))
        configs[exp] = (cfg, path)
    return configs


def _digests(rep_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(rep_dir.glob("*.csv"))}


def run_untraced(name: str, seed: int, seconds: float, out_dir: Path,
                 overrides=None) -> RunStats:
    """Repeat the workload until ``seconds`` are spent (at least once).

    A new repetition starts only if the median so far still fits. Every
    repetition is checked; its CSVs must match the first one byte for byte.
    """
    configs = write_configs(name, seed, out_dir, overrides)
    rep_dir = out_dir / "rep"
    walls, total, digests, out_bytes = [], CheckResult(), None, 0
    rows_per_rep = 1
    start = time.perf_counter()
    while True:
        shutil.rmtree(rep_dir, ignore_errors=True)
        argvs = [[exp, "--config", str(path), "--out", str(rep_dir), "--threads", "1"]
                 for exp, (_, path) in configs.items()]
        t0 = time.perf_counter()
        codes = [cli.main(argv) for argv in argvs]
        walls.append(time.perf_counter() - t0)

        rep = CheckResult()
        if any(codes):
            rep.attempted = rep.failed = rows_per_rep
            rep.notes.append(f"nonzero exit codes {codes}")
        else:
            for exp, (cfg, _) in configs.items():
                rep.add(CHECKS[exp](rep_dir, cfg))
            rows_per_rep = rep.attempted
            rep_digests = _digests(rep_dir)
            if digests is None:
                digests = rep_digests
                out_bytes = sum(p.stat().st_size for p in rep_dir.iterdir())
            elif rep_digests != digests:
                rep.failed = rep.attempted
                rep.notes.append(f"run {len(walls)} CSVs differ from run 1")
        if len(walls) > 1:
            rep.crbs, rep.loss = [], None  # quality comes from the first run
        total.add(rep)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    return RunStats(walls, total, digests or {}, out_bytes)


def run_traced(name: str, seed: int, out_dir: Path, overrides=None,
               micro: bool = True) -> dict:
    """One untraced and one traced repetition; per-layer metrics and overhead.

    An untimed warm-up repetition comes first, so that one-time first-call
    costs land on neither side of ``trace.overhead_s``.
    """
    warmup = run_untraced(name, seed, 0.0, out_dir / "warmup", overrides)
    plain = run_untraced(name, seed, 0.0, out_dir / "untraced", overrides)
    tracer = Tracer()
    with tracer.installed():
        traced = run_untraced(name, seed, 0.0, out_dir / "traced", overrides)
    tracer.write(out_dir / "spans.csv")

    check = CheckResult()
    check.add(warmup.check)
    check.add(plain.check)
    check.add(traced.check)
    if traced.digests != plain.digests:
        check.failed += traced.check.attempted - traced.check.failed
        check.notes.append("traced CSV digests differ from untraced ones")
    for design in tracer.designs:
        problem = check_design_diagonal(design)
        if problem:
            check.failed += traced.check.attempted - traced.check.failed
            check.notes.append(problem)

    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced.walls[0] - plain.walls[0]
    metrics["cli.out_bytes"] = plain.out_bytes
    metrics["sensing.detect_z_max"] = plain.check.z_max or 0.0
    if micro:
        from micro import kernel_timings
        metrics.update(kernel_timings())
    return {"check": check, "metrics": metrics, "digests": plain.digests,
            "walls": {"untraced": plain.walls[0], "traced": traced.walls[0]}}


def env_info() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


def crb_log10_mean(crbs) -> float:
    return float(np.mean(np.log10(crbs))) if crbs else math.nan
