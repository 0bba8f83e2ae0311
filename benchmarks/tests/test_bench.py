"""The benchmark's own tests, at tiny sizes.

Run from the repository root: ``python -m pytest benchmarks/tests``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import harness
from risac import arrays, cli, dual_waveform, optim, ris_isac
from risac.config import RunConfig, scene_from_config
from tracing import Tracer
from workloads import END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
TINY = {"n_ris": 4, "l_t": 4, "l_s": 4, "r0_points": 3, "trials": 1000,
        "grid_points": 31, "sinr_threshold_db": 3.0}


def _run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_emitted_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace,units", [(0, END_TO_END_UNITS), (1, PER_LAYER_UNITS)])
def test_every_metric_is_emitted_with_its_unit(trace, units):
    proc = _run_bench("--workload", "sensing", "--seed", "3", "--seconds", "0",
                      "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(unit)
                   for line in lines[:-1]), name


def test_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_bench("--workload", "sensing", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _tiny_run(tmp_path, experiment):
    cfg = RunConfig(experiment=experiment, **TINY)
    cli.run_experiment(cfg, tmp_path)
    return cfg


def _csv_lines(path):
    return path.read_bytes().decode().split("\r\n")


def _rewrite_csv(path, row_index, column, value):
    lines = _csv_lines(path)
    header = lines[0].split(",")
    cells = lines[row_index + 1].split(",")
    cells[header.index(column)] = value
    lines[row_index + 1] = ",".join(cells)
    path.write_bytes("\r\n".join(lines).encode())


def test_checks_pass_clean_tiny_outputs(tmp_path):
    for experiment, check in checks.CHECKS.items():
        cfg = _tiny_run(tmp_path, experiment)
        res = check(tmp_path, cfg)
        assert res.attempted > 0 and res.failed == 0, (experiment, res.notes)


def test_check_catches_rate_below_threshold(tmp_path):
    cfg = _tiny_run(tmp_path, "ris-isac-tradeoff")
    path = tmp_path / "ris-isac-tradeoff.csv"
    r0 = float(checks.read_csv(path)[1]["R0"])
    _rewrite_csv(path, 1, "rate_bits", repr(r0 - 1e-3))
    res = checks.check_ris_isac_tradeoff(tmp_path, cfg)
    assert res.failed == 1


def test_check_catches_negative_pattern_and_missing_phase(tmp_path):
    cfg = _tiny_run(tmp_path, "beampattern")
    _rewrite_csv(tmp_path / "beampattern.csv", 3, "j_sense", "-0.5")
    assert checks.check_beampattern(tmp_path, cfg).failed == 1
    phases = tmp_path / "beampattern_phases.csv"
    phases.write_bytes(("\r\n".join(_csv_lines(phases)[:-2]) + "\r\n").encode())
    assert checks.check_beampattern(tmp_path, cfg).failed == 1 + cfg.n_ris


def test_check_catches_diagonal_infeasible_design():
    cfg = RunConfig(experiment="beampattern", **TINY)
    scene = scene_from_config(cfg)
    spec = dual_waveform.make_beampattern_spec([(0.3, 0.2, 1.0)], [-0.5, 0.3], grid_points=31)
    design = dual_waveform.design_dual_waveform(scene, spec, 10 ** 0.3)
    assert checks.check_design_diagonal(design) is None
    design.covariance[0, 0] += 1e-3
    assert checks.check_design_diagonal(design) is not None


def test_check_catches_detect_mismatch(tmp_path):
    cfg = _tiny_run(tmp_path, "detect")
    _rewrite_csv(tmp_path / "detect.csv", 0, "pd_mc", "0.0")
    res = checks.check_detect(tmp_path, cfg)
    assert res.failed == 1 and res.z_max > checks.Z_BOUND


def test_traced_counts_equal_independent_counts(tmp_path):
    codes = {
        "arrays.steering_vector.calls": arrays.steering_vector.__code__,
        "ris_isac.optimize_ris_profile.calls": ris_isac.optimize_ris_profile.__code__,
        "optim.solves": optim.projected_gradient.__code__,
    }
    counted = dict.fromkeys(codes, 0)
    crb_objective = [0]
    by_code = {code: name for name, code in codes.items()}

    def profile(frame, event, arg):
        if event != "call":
            return
        name = by_code.get(frame.f_code)
        if name:
            counted[name] += 1
        elif (frame.f_code.co_name == "objective"
              and frame.f_code.co_filename == ris_isac.__file__):
            crb_objective[0] += 1

    tracer = Tracer()
    with tracer.installed():
        sys.setprofile(profile)
        try:
            stats = harness.run_untraced("ris-isac", 0, 0.0, tmp_path, TINY)
        finally:
            sys.setprofile(None)
    assert stats.check.failed == 0
    metrics = tracer.metrics()
    assert counted["ris_isac.optimize_ris_profile.calls"] == 4
    for name, count in counted.items():
        assert metrics[name] == count, name
    assert metrics["ris_isac.crb_evals"] == crb_objective[0] > 0
    # The tracer is gone after the run: the module bindings are the originals.
    assert ris_isac.projected_gradient is optim.projected_gradient
    assert cli.steering_vector is arrays.steering_vector


def test_traced_run_reports_layers_and_matching_digests(tmp_path):
    res = harness.run_traced("sensing", 2, tmp_path, TINY, micro=False)
    assert res["check"].failed == 0, res["check"].notes
    m = res["metrics"]
    assert m["sensing.marcum_q1.calls"] == 6
    assert m["channels.build_sensing_channels.calls"] > 0
    assert m["isac.crb_min_beamformer.calls"] > 0
    assert m["trace.spans"] > 0 and math.isfinite(m["trace.overhead_s"])
    spans = (tmp_path / "spans.csv").read_text().splitlines()
    assert len(spans) == m["trace.spans"] + 1


def test_repeated_runs_are_byte_identical(tmp_path):
    stats = harness.run_untraced("beampattern", 0, 0.0, tmp_path, TINY)
    first = dict(stats.digests)
    again = harness.run_untraced("beampattern", 0, 0.0, tmp_path / "again", TINY)
    assert again.digests == first and len(first) == 2
    assert np.isfinite(stats.check.loss)
