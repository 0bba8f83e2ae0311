import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from risac import cli, marcum_q1
from risac import dual_waveform as dw
from risac import ris_isac as ri
from risac import sensing
from risac.config import RunConfig, scene_from_config

TINY = "n_ris = 4\nl_t = 4\nl_s = 4\n"
TINY_RIS_ISAC = TINY + "r0_points = 5\n"
SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_python(*args):
    """Run ``python *args`` in a new interpreter with this checkout's src first on the path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True, timeout=120)


def _run_cli(tmp_path, experiment, config_text, out_name, *extra):
    """Run one experiment; returns (exit code, CSV bytes, summary minus run-specific keys)."""
    config = tmp_path / f"{experiment}.cfg"
    config.write_text(config_text)
    out = tmp_path / out_name
    code = cli.main([experiment, "--config", str(config), "--out", str(out), *extra])
    csv_bytes = (out / f"{experiment}.csv").read_bytes()
    summary = json.loads((out / f"{experiment}_summary.json").read_text())
    summary.pop("wall_clock_seconds")
    summary.pop("outputs")
    return code, csv_bytes, summary


def _run(tmp_path, out_name, *extra):
    return _run_cli(tmp_path, "ris-isac-tradeoff", TINY_RIS_ISAC, out_name, *extra)


def _rows(csv_bytes):
    text = csv_bytes.decode()
    return text.splitlines()[0], list(csv.DictReader(text.splitlines()))


def test_ris_isac_tradeoff_is_deterministic_and_feasible(tmp_path):
    first = _run(tmp_path, "a")
    assert first[0] == 0
    assert _run(tmp_path, "b") == first
    assert _run(tmp_path, "c", "--threads", "4") == first

    rows = list(csv.DictReader((tmp_path / "a" / "ris-isac-tradeoff.csv").open()))
    assert len(rows) == 3 * 5
    diag = first[2]["diagnostics"]
    assert diag["profile_converged"] is True and diag["profile_iterations"] > 0
    for row in rows:
        assert float(row["rate_bits"]) >= float(row["R0"]) - 1e-12, row


def test_ris_isac_tradeoff_solves_the_profile_once(tmp_path, monkeypatch):
    calls = []
    original = ri.optimize_ris_profile

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ri, "optimize_ris_profile", counted)
    assert _run(tmp_path, "a")[0] == 0
    assert len(calls) == 1


def test_ris_isac_tradeoff_large_strong_coupling_is_finite(tmp_path):
    # The optimized profile leaves the angle FIM badly scaled (raw condition
    # number ~4e17) but well posed, so every CRB must stay finite.
    cfg = RunConfig(experiment="ris-isac-tradeoff", coupling="strong", seed=1,
                    n_ris=256, l_t=32, l_s=32, r0_points=3)
    cli.run_experiment(cfg, tmp_path)
    rows = list(csv.DictReader((tmp_path / "ris-isac-tradeoff.csv").open()))
    assert len(rows) == 3 * 3
    for row in rows:
        assert math.isfinite(float(row["crb"])), row
        assert float(row["rate_bits"]) >= float(row["R0"]) - 1e-12, row


def test_beampattern_csv_splits_the_pattern_and_is_deterministic(tmp_path):
    cfg = RunConfig(experiment="beampattern", l_t=4, n_ris=4, grid_points=31,
                    sinr_threshold_db=3.0)
    first = cli.run_experiment(cfg, tmp_path / "a")
    cli.run_experiment(cfg, tmp_path / "b")
    for name in ("beampattern.csv", "beampattern_phases.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    rows = list(csv.DictReader((tmp_path / "a" / "beampattern.csv").open()))
    assert len(rows) == 31
    for row in rows:
        total, comm, sense = (float(row[k]) for k in ("j_total", "j_comm", "j_sense"))
        assert min(comm, sense) >= -1e-12
        assert abs(total - (comm + sense)) <= 1e-12 * max(1.0, total)
    diag = first["diagnostics"]
    assert diag["sinr"] >= diag["sinr_threshold"] * (1 - 1e-6)
    # No silent stops: the solver's status is in the summary.
    assert diag["converged"] and diag["stop"] == "tol"
    assert diag["iterations"] > 0 and math.isfinite(diag["grad_norm"])


def test_detect_is_deterministic_across_runs_and_threads(tmp_path):
    tiny = TINY + "trials = 2000\n"
    first = _run_cli(tmp_path, "detect", tiny, "a")
    assert first[0] == 0
    assert _run_cli(tmp_path, "detect", tiny, "b") == first
    assert _run_cli(tmp_path, "detect", tiny, "c", "--threads", "1") == first
    assert _run_cli(tmp_path, "detect", tiny, "d", "--threads", "4") == first

    header, rows = _rows(first[1])
    assert header == cli.CSV_HEADERS["detect"]
    cfg = RunConfig()
    assert len(rows) == len(cfg.snr_db_list) * len(cfg.pf_list)
    for row in rows:
        assert 0.0 <= float(row["pd_mc"]) <= 1.0
        assert float(row["pf"]) < float(row["pd_formula"]) <= 1.0
    assert len(first[2]["diagnostics"]["empirical_pf"]) == len(rows)


def test_detect_rows_are_monotone_in_the_false_alarm_rate(tmp_path):
    # Both Pf values of an SNR point threshold one draw, so the stricter
    # threshold never detects more, at any seed.
    for seed in range(10):
        cfg = RunConfig(experiment="detect", seed=seed, trials=2000, pf_list=(0.1, 0.099))
        diag = cli.run_experiment(cfg, tmp_path / str(seed))["diagnostics"]
        _, rows = _rows((tmp_path / str(seed) / "detect.csv").read_bytes())
        pfs = list(diag["empirical_pf"].values())
        assert len(rows) == len(pfs) == 6
        for i in range(0, 6, 2):
            loose, strict = rows[i], rows[i + 1]
            assert loose["snr_db"] == strict["snr_db"]
            assert (float(loose["pf"]), float(strict["pf"])) == (0.1, 0.099)
            assert float(loose["pd_mc"]) >= float(strict["pd_mc"]), (seed, loose, strict)
            assert pfs[i] >= pfs[i + 1], (seed, loose["snr_db"])


def test_detect_with_an_empty_grid_writes_only_the_header(tmp_path):
    for grid in ("pf_list =\n", "snr_db_list =\n"):
        code, csv_bytes, summary = _run_cli(tmp_path, "detect", TINY + grid, grid[:3])
        assert code == 0
        assert csv_bytes.decode() == cli.CSV_HEADERS["detect"] + "\r\n"
        assert summary["diagnostics"]["empirical_pf"] == {}


def test_detect_summary_reports_the_illumination_solve(tmp_path):
    code, _, summary = _run_cli(tmp_path, "detect", TINY + "trials = 2000\n", "out")
    assert code == 0
    diag = summary["diagnostics"]
    design = sensing.maximize_illumination(scene_from_config(RunConfig(n_ris=4, l_t=4, l_s=4)))
    assert diag["illumination_converged"] is design.converged is True
    assert diag["illumination_iterations"] == design.iterations > 0
    assert diag["illumination_power"] == design.power


def test_summaries_report_solver_evaluations(tmp_path, monkeypatch):
    # Evaluation counts sit next to the iteration counts: the design's sum
    # over every solve, and the winning profile run's.
    evaluations = []
    original = dw.design_dual_waveform

    def recorded(*args, **kwargs):
        design = original(*args, **kwargs)
        evaluations.append(design.evaluations)
        return design

    monkeypatch.setattr(dw, "design_dual_waveform", recorded)
    cfg = RunConfig(experiment="beampattern", l_t=4, n_ris=4, grid_points=31,
                    sinr_threshold_db=3.0)
    diag = cli.run_experiment(cfg, tmp_path / "bp")["diagnostics"]
    assert diag["evaluations"] == evaluations[0] > diag["iterations"]
    diag = _run(tmp_path, "ri")[2]["diagnostics"]
    assert diag["profile_evaluations"] > diag["profile_iterations"]


def test_detect_at_very_high_snr(tmp_path):
    # The Marcum-Q envelope underflows here, so Pd is exactly 1.
    tiny = TINY + "trials = 2000\nsnr_db_list = 80.0, 90.0, 100.0\n"
    code, csv_bytes, _ = _run_cli(tmp_path, "detect", tiny, "out")
    assert code == 0
    _, rows = _rows(csv_bytes)
    assert len(rows) == 3 * len(RunConfig().pf_list)
    for row in rows:
        assert float(row["pd_formula"]) == 1.0, row


def test_sense_sweep_smoke(tmp_path):
    tiny = TINY + "num_waypoints = 4\nblocked_from_index = 2\n"
    code, csv_bytes, _ = _run_cli(tmp_path, "sense-sweep", tiny, "out")
    assert code == 0
    header, rows = _rows(csv_bytes)
    assert header == cli.CSV_HEADERS["sense-sweep"]
    assert len(rows) == 4 * 3
    for row in rows:
        crb = float(row["crb"])
        if row["mode"] == "without_ris" and int(row["waypoint"]) >= 2:
            assert crb == math.inf, row  # the direct path is blocked
        else:
            assert math.isfinite(crb) and crb > 0, row


def test_isac_tradeoff_smoke(tmp_path):
    tiny = TINY + "r0_points = 3\nrho_list = 0.0, 0.5, 1.0\n"
    code, csv_bytes, _ = _run_cli(tmp_path, "isac-tradeoff", tiny, "out")
    assert code == 0
    header, rows = _rows(csv_bytes)
    assert header == cli.CSV_HEADERS["isac-tradeoff"]
    assert len(rows) == 3 * 3
    for row in rows:
        crb = float(row["crb"])
        assert math.isfinite(crb) and crb > 0, row
        assert float(row["rate_bits"]) >= float(row["R0"]) - 1e-12, row


def test_import_loads_no_scipy_until_marcum_q():
    # The test process has imported scipy already, so this needs a fresh one.
    probe = (
        "import sys, risac, risac.cli\n"
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n"
        "print(risac.marcum_q1(1.0, 2.0).hex())\n"
        "print('scipy.special' in sys.modules)\n"
    )
    loaded, value, special_after = _fresh_python("-c", probe).stdout.splitlines()
    assert loaded == "[]"
    assert float.fromhex(value) == marcum_q1(1.0, 2.0)
    assert special_after == "True"


def test_import_loads_no_thread_pool():
    # The pool is imported only when --threads > 1; it would load logging too.
    probe = (
        "import sys, risac, risac.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('concurrent', 'logging')))\n"
    )
    assert _fresh_python("-c", probe).stdout.strip() == "[]"


def test_detect_cold_process_threads_match(tmp_path):
    # In a fresh process the first Marcum-Q calls, and so the scipy import,
    # happen inside the worker threads.
    config = tmp_path / "detect.cfg"
    config.write_text(TINY + "trials = 2000\n")
    outputs = {}
    for threads in ("1", "4"):
        out = tmp_path / f"threads{threads}"
        _fresh_python("-m", "risac.cli", "detect", "--config", str(config),
                      "--out", str(out), "--threads", threads)
        outputs[threads] = (out / "detect.csv").read_bytes()
    assert outputs["4"] == outputs["1"]
    assert _run_cli(tmp_path, "detect", config.read_text(), "warm")[1] == outputs["1"]
    header, rows = _rows(outputs["1"])
    assert header == cli.CSV_HEADERS["detect"]
    assert len(rows) == len(RunConfig().snr_db_list) * len(RunConfig().pf_list)
