#!/usr/bin/env python3
"""Benchmark entry point; run from the repository root.

    python3 benchmarks/run.py --workload ris-isac --seed 1 --seconds 35 --trace 0

``--trace 0`` times the workload for ``--seconds`` with tracing off and
reports the end-to-end metrics; ``--trace 1`` makes a warm-up, an untraced
and a traced run and reports the per-layer metrics. The workload runs in this
process, so its peak RSS is this process's. Every CSV row is checked. The
last stdout line is one JSON object with keys correct, attempted, failed and
metrics; a record with versions, digests and raw timings goes to
``.bench_runs/<workload>-seed<n>-trace<t>/record.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import END_TO_END_UNITS, LAYER_MAP, PER_LAYER_UNITS, WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
# One BLAS thread: the runs are single-threaded end to end. Set before numpy
# is first imported, which happens when ``harness`` is.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The set-up interpreter ends itself by SIGALRM if it hangs, so the parent
# can wait for it with a blocking wait: ``Popen.wait`` with a timeout polls
# with sleeps of up to 50 ms, which would quantize every sample.
SETUP_CODE = """\
import signal
signal.alarm(60)
import sys
from pathlib import Path
import risac.cli
from risac.config import parse_config, scene_from_config
from risac.ris_isac import RisIsacScenario
cfg = parse_config(Path(sys.argv[1]).read_text())
RisIsacScenario.from_scene(scene_from_config(cfg))
"""


def _setup_seconds(cfg_path: Path, env: dict) -> float:
    """Wall time of one fresh interpreter running ``SETUP_CODE``."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(cfg_path)],
                          env=env, stdout=sys.stderr)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed with exit code {proc.returncode}")
    return elapsed


def _commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _tail(walls: list) -> str:
    """Highest percentile with at least ten runs beyond it, if any."""
    n = len(walls)
    if n < 11:
        return f"max {max(walls):.4f} s (fewer than 11 runs, no tail percentile)"
    q = 1.0 - 10.0 / n
    value = sorted(walls)[math.ceil(q * n) - 1]
    return f"p{100 * q:.0f} {value:.4f} s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "risac" / "__init__.py").is_file():
        print(f"error: no risac sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    out_dir = root / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    os.environ.update(THREAD_ENV)
    env = {**os.environ, "PYTHONPATH": str(src)}  # for the set-up interpreters
    sys.path.insert(0, str(src))
    import harness  # imports numpy and risac, so only after the lines above

    wl = WORKLOADS[args.workload]
    config_seed = args.seed if wl.seeded else 0
    lines = [f"workload {wl.name}: {wl.why}",
             f"seed {args.seed} (config seed {config_seed}), trace {args.trace}"]
    if args.trace:
        res = harness.run_traced(wl.name, args.seed, out_dir)
        check, digests, walls = res["check"], res["digests"], res["walls"]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: float(res["metrics"][k]) for k in PER_LAYER_UNITS}
        units, setups = PER_LAYER_UNITS, []
    else:
        stats = harness.run_untraced(wl.name, args.seed, args.seconds, out_dir)
        check, digests, walls = stats.check, stats.digests, stats.walls
        # Read before the set-up interpreters start; they are children and
        # would not count anyway.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cfg_path = out_dir / f"{wl.experiments[0]}.cfg"
        setups = [_setup_seconds(cfg_path, env) for _ in range(SETUP_REPEATS)]
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        lines.append(f"wall_s tail: {_tail(walls)} over {len(walls)} runs")
    attempted, failed = check.attempted, check.failed
    quality_figures = {"crb_log10_mean": harness.crb_log10_mean(check.crbs),
                       "bp_loss": check.loss, "detect_z_max": check.z_max}
    if not args.trace:
        metrics["quality"] = (check.loss if wl.name == "beampattern"
                              else 10.0 ** quality_figures["crb_log10_mean"])
    for name, value in metrics.items():
        lines.append(f"{name} = {value:.6g} {units[name]}")
    lines.append(f"fail_frac = {failed}/{attempted} = {failed / max(attempted, 1):.6g}")
    for key, value in quality_figures.items():
        if value is not None and not math.isnan(value):
            lines.append(f"{key} = {value:.6g}")
    for note in check.notes:
        lines.append(f"check failed: {note}")

    src_lines = sum(len(p.read_text().splitlines()) for p in (src / "risac").glob("*.py"))
    record = {
        "workload": wl.name, "why": wl.why, "seed": args.seed,
        "config_seed": config_seed, "trace": args.trace, "seconds": args.seconds,
        "attempted": attempted, "failed": failed, "notes": check.notes,
        **quality_figures, "digests": digests, "walls": walls, "setup_runs": setups,
        "commit": _commit(root), "env": harness.env_info(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "src_risac_lines": src_lines, "peak_rss_mb": peak_rss_mb,
        "metrics": metrics, "layer_map": LAYER_MAP,
    }
    (out_dir / "record.json").write_text(json.dumps(record, indent=1, default=str))
    lines.append(f"record: {out_dir.relative_to(root) / 'record.json'}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
