import csv
import hashlib
import json
import math
import os
import runpy
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from risac import cli, marcum_q1
from risac import dual_waveform as dw
from risac import isac
from risac import ris_isac as ri
from risac.config import EXPERIMENTS, RunConfig

TINY = "n_ris = 4\nl_t = 4\nl_s = 4\n"
TINY_RIS_ISAC = TINY + "r0_points = 5\n"
SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_python(*args):
    """Run ``python *args`` in a new interpreter with this checkout's src first on the path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True, timeout=120)


def _run_cli(tmp_path, experiment, config_text, out_name, *extra):
    """Run one experiment; returns (exit code, CSV bytes, summary minus its wall time)."""
    config = tmp_path / f"{experiment}.cfg"
    config.write_text(config_text)
    out = tmp_path / out_name
    code = cli.main([experiment, "--config", str(config), "--out", str(out), *extra])
    csv_bytes = (out / f"{experiment}.csv").read_bytes()
    summary = json.loads((out / f"{experiment}_summary.json").read_text())
    summary.pop("wall_clock_seconds")
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

    rows = list(csv.DictReader((tmp_path / "a" / "ris-isac-tradeoff.csv").read_text().splitlines()))
    assert len(rows) == 3 * 5
    assert set(first[2]["diagnostics"]) == {"max_rate_with", "max_rate_without",
                                            "max_rate_reference"}
    for row in rows:
        assert float(row["rate_bits"]) >= float(row["R0"]) - 1e-12, row


@pytest.mark.parametrize("experiment", ["sense-sweep", "isac-tradeoff", "ris-isac-tradeoff"])
def test_each_sweep_returns_the_rows_its_csv_writes(tmp_path, monkeypatch, experiment):
    # The rows the library returns, in the header's column order, are the
    # CSV's rows once formatted; the runner maps no field.
    module, name = {"sense-sweep": (cli, "trajectory_sweep"),
                    "isac-tradeoff": (isac, "tradeoff_curve"),
                    "ris-isac-tradeoff": (ri, "ris_isac_tradeoff")}[experiment]
    sweep, returned = getattr(module, name), []

    def recorded(*args, **kwargs):
        returned.append(sweep(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(module, name, recorded)
    cli.run_experiment(RunConfig(experiment=experiment), tmp_path)
    (result,) = returned
    rows = result if experiment == "sense-sweep" else result[0]
    header, *lines = (tmp_path / f"{experiment}.csv").read_text().splitlines()
    assert header == cli.CSV_HEADERS[experiment]
    assert {len(row) for row in rows} == {len(header.split(","))}
    assert [[cli._fmt(value) for value in row] for row in rows] == [
        line.split(",") for line in lines]


def test_ris_isac_tradeoff_solves_the_profile_once(tmp_path, monkeypatch):
    calls = []
    original = ri.align_profile

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ri, "align_profile", counted)
    assert _run(tmp_path, "a")[0] == 0
    assert len(calls) == 1


def test_ris_isac_tradeoff_large_strong_coupling_is_finite(tmp_path):
    # The aligned profile leaves the angle FIM badly scaled (raw condition
    # number ~2e17) but well posed, so every CRB must stay finite.
    cfg = RunConfig(experiment="ris-isac-tradeoff", coupling="strong", seed=1,
                    n_ris=256, l_t=32, l_s=32, r0_points=3)
    cli.run_experiment(cfg, tmp_path)
    rows = list(csv.DictReader((tmp_path / "ris-isac-tradeoff.csv").read_text().splitlines()))
    assert len(rows) == 3 * 3
    for row in rows:
        assert math.isfinite(float(row["crb"])), row
        assert float(row["rate_bits"]) >= float(row["R0"]) - 1e-12, row


def test_ris_isac_tradeoff_at_a_vanishing_power_keeps_finite_crbs(tmp_path):
    # The max rate rounds to 0 bits here; the reference comms channel takes
    # its norm from the aligned channel, not from 2^max_rate - 1, which
    # rounded to a zero channel and exited with DegenerateChannelError.
    code, csv_bytes, _ = _run_cli(tmp_path, "ris-isac-tradeoff",
                                  TINY_RIS_ISAC + "transmit_power = 1e-30\n", "out")
    assert code == 0
    _, rows = _rows(csv_bytes)
    assert {row["mode"] for row in rows} == {"with", "without", "reference"}
    for row in rows:
        assert math.isfinite(float(row["crb"])) and float(row["crb"]) > 0.0, row


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_summary_does_not_depend_on_the_output_directory(tmp_path, experiment):
    # Each CSV is named relative to --out, with its SHA-256, so runs into
    # different directories write the same summary bar the wall time.
    text = TINY + "trials = 500\nr0_points = 3\ngrid_points = 31\nsinr_threshold_db = 3\n"
    summaries = []
    for out_name in ("a", "deeper/b"):
        code, _, summary = _run_cli(tmp_path, experiment, text, out_name)
        assert code == 0
        summaries.append(summary)
        assert summary["outputs"] == {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((tmp_path / out_name).glob("*.csv"))}
    assert summaries[0] == summaries[1]


def test_beampattern_csv_splits_the_pattern_and_is_deterministic(tmp_path):
    cfg = RunConfig(experiment="beampattern", l_t=4, n_ris=4, grid_points=31,
                    sinr_threshold_db=3.0)
    first = cli.run_experiment(cfg, tmp_path / "a")
    cli.run_experiment(cfg, tmp_path / "b")
    for name in ("beampattern.csv", "beampattern_phases.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    rows = list(csv.DictReader((tmp_path / "a" / "beampattern.csv").read_text().splitlines()))
    assert len(rows) == 31
    for row in rows:
        total, comm, sense = (float(row[k]) for k in ("j_total", "j_comm", "j_sense"))
        assert min(comm, sense) >= 0.0
        assert abs(total - (comm + sense)) <= 1e-12 * max(1.0, total)
    diag = first["diagnostics"]
    assert diag["sinr"] >= diag["sinr_threshold"] * (1 - 1e-6)
    # No silent stops: the solver's status is in the summary.
    assert diag["converged"] and diag["stop"] == "tol"
    assert diag["iterations"] > 0 and math.isfinite(diag["grad_norm"])


def test_beampattern_with_a_zero_loss_start_returns_it(tmp_path):
    # One grid point inside one wide beam: the matched start fits the
    # desired pattern exactly. Its loss scales the Lagrangian, and the run
    # used to exit with a ZeroDivisionError.
    text = "target_angles_deg = 0\nbeam_width_deg = 1000\ngrid_points = 1\n"
    code, csv_bytes, summary = _run_cli(tmp_path, "beampattern", text, "out")
    assert code == 0
    _, rows = _rows(csv_bytes)
    assert len(rows) == 1 and all(math.isfinite(float(v)) for v in rows[0].values())
    diag = summary["diagnostics"]
    assert diag["loss"] == 0.0 and diag["converged"] and diag["stop"] == "tol"
    assert diag["iterations"] == diag["evaluations"] == 0 and diag["grad_norm"] == 0.0
    assert diag["sinr"] >= diag["sinr_threshold"]


@pytest.mark.parametrize("line", ["grid_points = 2", "beam_width_deg = -5", "beam_width_deg = 0"])
def test_beams_that_cover_no_grid_point_are_a_json_config_error(tmp_path, capsys, line):
    # Each used to exit with a plain ValueError from the loss scale.
    config = tmp_path / "beams.cfg"
    config.write_text(line + "\n")
    code = cli.main(["beampattern", "--config", str(config), "--out", str(tmp_path / "out")])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err["error"] == "ConfigError" and line.split(" = ")[0] in err["detail"]
    assert "beam_width_deg" in err["detail"]
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize("experiment", ["sense-sweep"])
def test_a_user_at_the_ris_is_a_json_error_naming_the_pair(tmp_path, capsys, experiment):
    # sense-sweep does not read the user's bearing from the RIS, yet it
    # builds it, so it exits 2 with a detail that names the pair.
    config = tmp_path / "user.cfg"
    config.write_text("user_position = 30, 30\ntrials = 500\n")
    code = cli.main([experiment, "--config", str(config), "--out", str(tmp_path / "out")])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err == {"error": "DegenerateGeometryError",
                   "detail": "ris_position and user_position coincide at [30.0, 30.0]"}


@pytest.mark.parametrize("user", ["30, 30", "0, 0"], ids=["at-ris", "at-bs"])
@pytest.mark.parametrize("experiment", ["detect", "isac-tradeoff"])
def test_a_user_position_the_run_does_not_read_leaves_its_csv_unchanged(tmp_path, experiment,
                                                                         user):
    # detect reads no position and isac-tradeoff only the BS-target pair, so
    # a user at the RIS or at the BS is no error and moves no byte.
    default = _run_cli(tmp_path, experiment, "", "default")
    moved = _run_cli(tmp_path, experiment, f"user_position = {user}\n", "moved")
    assert default[0] == moved[0] == 0
    assert moved[1] == default[1]


def test_isac_tradeoff_with_the_target_at_the_bs_is_a_json_error_naming_the_pair(tmp_path,
                                                                                 capsys):
    config = tmp_path / "target.cfg"
    config.write_text("target_position = 0, 0\n")
    code = cli.main(["isac-tradeoff", "--config", str(config), "--out", str(tmp_path / "out")])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err == {"error": "DegenerateGeometryError",
                   "detail": "bs_position and target_position coincide at [0.0, 0.0]"}


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


def test_default_detect_agrees_with_marcum_q_at_seeds_0_to_9(tmp_path):
    # The benchmark's detect check: each row's Monte Carlo Pd and Pf lie
    # within 5 binomial standard errors (variance floored at 1/trials) of
    # the formula, although one draw serves every SNR point.
    def z(empirical, p, trials):
        return abs(empirical - p) / math.sqrt(max(p * (1.0 - p), 1.0 / trials) / trials)

    for seed in range(10):
        cfg = RunConfig(experiment="detect", seed=seed)
        diag = cli.run_experiment(cfg, tmp_path / str(seed))["diagnostics"]
        _, rows = _rows((tmp_path / str(seed) / "detect.csv").read_bytes())
        pfs = list(diag["empirical_pf"].values())
        assert len(rows) == len(pfs) == len(cfg.snr_db_list) * len(cfg.pf_list)
        for row, pf_mc in zip(rows, pfs):
            assert z(float(row["pd_mc"]), float(row["pd_formula"]), cfg.trials) <= 5.0, (seed, row)
            assert z(pf_mc, float(row["pf"]), cfg.trials) <= 5.0, (seed, row, pf_mc)


def test_detect_first_snr_point_keeps_its_draw(tmp_path):
    # The shared draw is seeded with the first child of the config seed, the
    # seed the first SNR point had when each point drew its own; its cells
    # are pinned at the default config.
    cli.run_experiment(RunConfig(experiment="detect"), tmp_path)
    _, rows = _rows((tmp_path / "detect.csv").read_bytes())
    assert [(r["snr_db"], r["pf"], r["pd_mc"]) for r in rows[:2]] == [
        ("0.0", "0.1", "0.33632"), ("0.0", "0.01", "0.08434")]


def test_detect_with_an_empty_grid_writes_only_the_header(tmp_path):
    for grid in ("pf_list =\n", "snr_db_list =\n"):
        code, csv_bytes, summary = _run_cli(tmp_path, "detect", TINY + grid, grid[:3])
        assert code == 0
        assert csv_bytes.decode() == cli.CSV_HEADERS["detect"] + "\r\n"
        assert summary["diagnostics"]["empirical_pf"] == {}


def test_detect_summary_reports_only_the_empirical_pf(tmp_path):
    # detect runs at its SNR grid and lights no scene, so there is no
    # illumination power to report.
    code, _, summary = _run_cli(tmp_path, "detect", TINY + "trials = 2000\n", "out")
    assert code == 0
    assert set(summary["diagnostics"]) == {"empirical_pf"}


def test_summaries_report_solver_evaluations(tmp_path, monkeypatch):
    # Evaluation counts sit next to the iteration counts: the design's sum
    # over every solve.
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
    code, csv_bytes, summary = _run_cli(tmp_path, "sense-sweep", tiny, "out")
    assert code == 0
    assert set(summary["diagnostics"]) == {"waypoints", "blocked"}
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


def test_isac_tradeoff_without_target_gain_writes_infinite_crbs(tmp_path):
    # A target whose gain has zero variance holds no angle information, so
    # every CRB is inf, as sense-sweep writes at zero target gain; the run
    # used to exit with an untyped ZeroDivisionError.
    tiny = TINY + "r0_points = 3\nrho_list = 0.0, 1.0\ntarget_gain_var = 0\n"
    code, csv_bytes, _ = _run_cli(tmp_path, "isac-tradeoff", tiny, "out")
    assert code == 0
    _, rows = _rows(csv_bytes)
    assert len(rows) == 2 * 3
    for row in rows:
        assert row["crb"] == "inf", row
        assert float(row["rate_bits"]) >= float(row["R0"]) - 1e-12, row


def test_help_lists_every_experiment(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert all(name in out for name in EXPERIMENTS)


@pytest.mark.parametrize("argv", [[], ["nope"]], ids=["none", "unknown"])
def test_missing_or_unknown_experiment_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 2
    assert "experiment" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_every_experiment_takes_the_same_options(experiment):
    args = cli._build_parser().parse_args([
        experiment, "--config", "run.cfg", "--out", "out", "--seed", "3", "--threads", "2",
        "--emit-plot-script"])
    assert (args.experiment, args.config, args.out) == (experiment, Path("run.cfg"), Path("out"))
    assert (args.seed, args.threads, args.emit_plot_script) == (3, 2, True)


def test_config_naming_another_experiment_is_a_json_error(tmp_path, capsys):
    # Options may come before the experiment; the config's own experiment
    # key must still agree with it.
    config = tmp_path / "run.cfg"
    config.write_text("experiment = detect\n")
    code = cli.main(["--config", str(config), "--out", str(tmp_path / "out"), "sense-sweep"])
    err = json.loads(capsys.readouterr().err)
    assert code == 2 and err["error"] == "ConfigError"
    assert "'detect'" in err["detail"] and "'sense-sweep'" in err["detail"]
    assert not (tmp_path / "out").exists()


def test_config_parse_error_names_the_file_line(tmp_path, capsys):
    # The requested experiment reaches the parser as an argument, not as a
    # prepended line, so line numbers are the file's own.
    config = tmp_path / "run.cfg"
    config.write_text("seed = 3\ngarbage\n")
    code = cli.main(["detect", "--config", str(config), "--out", str(tmp_path / "out")])
    err = json.loads(capsys.readouterr().err)
    assert code == 2 and err["error"] == "ConfigError"
    assert err["detail"].startswith("line 2:")


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_default_experiments_call_no_lapack(tmp_path, monkeypatch, experiment):
    # The first LAPACK call of a process adds over 1 MB of resident memory,
    # and no default run needs one: kappa is a closed-form 2 x 2 and the
    # dual design splits its covariance with a Householder reflection.
    def no_lapack(*args, **kwargs):
        raise AssertionError(f"{experiment} called LAPACK")

    for name in ("cond", "inv", "svd", "solve", "eig", "eigh", "qr"):
        monkeypatch.setattr(np.linalg, name, no_lapack)
    cli.run_experiment(RunConfig(experiment=experiment), tmp_path)


def test_import_and_marcum_q_load_no_scipy():
    # The test process has imported scipy already, so this needs a fresh one.
    probe = (
        "import sys, risac, risac.cli\n"
        "scipy = lambda: [m for m in sys.modules if m.startswith('scipy')]\n"
        "print(scipy())\n"
        "print(risac.marcum_q1(1.0, 2.0).hex())\n"
        "print(scipy())\n"
    )
    loaded, value, loaded_after = _fresh_python("-c", probe).stdout.splitlines()
    assert loaded == "[]"
    assert float.fromhex(value) == marcum_q1(1.0, 2.0)
    assert loaded_after == "[]"


def test_detect_process_loads_no_scipy(tmp_path):
    config = tmp_path / "detect.cfg"
    config.write_text(TINY + "trials = 200\n")
    probe = (
        "import sys, risac.cli\n"
        f"code = risac.cli.main(['detect', '--config', {str(config)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    assert _fresh_python("-c", probe).stdout.strip() == "0 []"
    rows = len(RunConfig().snr_db_list) * len(RunConfig().pf_list)
    assert (tmp_path / "out" / "detect.csv").read_text().count("\n") == 1 + rows


def test_import_loads_no_thread_pool(tmp_path):
    # Every experiment runs serially; --threads is accepted and ignored. A
    # thread pool would load logging too, about 8 ms of a cold start.
    config = tmp_path / "detect.cfg"
    config.write_text(TINY + "trials = 200\n")
    probe = (
        "import sys, risac, risac.cli\n"
        "pools = lambda: sorted(m for m in sys.modules if m.split('.')[0] in "
        "('concurrent', 'logging'))\n"
        "print(pools())\n"
        f"code = risac.cli.main(['detect', '--config', {str(config)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}, '--threads', '4'])\n"
        "print(code, pools())\n"
    )
    assert _fresh_python("-c", probe).stdout.splitlines() == ["[]", "0 []"]


def test_detect_cold_process_threads_match(tmp_path):
    # In a fresh process the first Marcum-Q calls happen during the run;
    # the CSV must not depend on the --threads value it is given.
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


class _StubAxes:
    def __init__(self):
        self.lines, self.xlabel = [], None

    def plot(self, x, y, label=None):
        self.lines.append((list(x), list(y), label))

    def set_xlabel(self, label):
        self.xlabel = label

    def legend(self):
        pass


class _StubFigure:
    def __init__(self):
        self.saved = []

    def savefig(self, path, **kwargs):
        self.saved.append(path)


PLOT_CASES = [
    ("sense-sweep", TINY + "num_waypoints = 3\n", "waypoint",
     {f"{m} {c}" for m in ("ris_aided", "ris_only", "without_ris") for c in ("power_db", "crb")}),
    ("detect", TINY + "trials = 200\n", "snr_db", {"pf", "pd_formula", "pd_mc"}),
    ("isac-tradeoff", TINY + "r0_points = 4\n", "rho", {"R0", "rate_bits", "crb"}),
    ("ris-isac-tradeoff", TINY_RIS_ISAC, "R0",
     {f"{m} weak {c}" for m in ("with", "without", "reference") for c in ("rate_bits", "crb")}),
    ("beampattern", "l_t = 4\nn_ris = 4\ngrid_points = 31\nsinr_threshold_db = 3.0\n",
     "angle_deg", {"j_total", "j_comm", "j_sense"}),
]


@pytest.mark.parametrize("experiment, config_text, x_col, labels", PLOT_CASES,
                         ids=[case[0] for case in PLOT_CASES])
def test_emitted_plot_script_runs(tmp_path, monkeypatch, experiment, config_text, x_col,
                                  labels):
    # matplotlib is not a dependency: the script runs against a stub pyplot.
    config = tmp_path / "run.cfg"
    config.write_text(config_text)
    out = tmp_path / "out"
    assert cli.main([experiment, "--config", str(config), "--out", str(out),
                     "--emit-plot-script"]) == 0
    figures = []

    def subplots():
        figures.append((_StubFigure(), _StubAxes()))
        return figures[-1]

    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.subplots = subplots
    matplotlib = types.ModuleType("matplotlib")
    matplotlib.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    monkeypatch.chdir(out)
    runpy.run_path(str(out / f"{experiment}_plot.py"), run_name="__main__")
    (fig, ax), = figures
    assert fig.saved == [f"{experiment}.png"]
    assert ax.xlabel == x_col
    assert {label for _, _, label in ax.lines} == labels
    for x, y, label in ax.lines:
        assert len(x) == len(y) > 0 and all(math.isfinite(v) for v in x), label
