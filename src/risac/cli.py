"""Command-line experiment runner with CSV and JSON outputs.

One experiment per invocation; identical (config, seed) pairs produce
byte-identical CSV files. An infinite value (such as the CRB of an unlit
target) is written as "inf" and a NaN as an empty cell; hard errors exit
nonzero with a machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import dual_waveform as dw
from . import isac as isac_mod
from . import ris_isac as ri
from .arrays import steering_derivative
from .channels import RisIsacScenario, angles_from_geometry, pathloss_amplitude
from .config import EXPERIMENTS, RunConfig, parse_config, scene_from_config
from .errors import ConfigError
from .sensing import (
    DetectionConfig,
    detection_probability,
    glrt_monte_carlo,
    maximize_illumination,
    trajectory_sweep,
)

CSV_HEADERS = {
    "sense-sweep": "waypoint,mode,power_db,crb",
    "detect": "snr_db,pf,pd_formula,pd_mc",
    "isac-tradeoff": "rho,R0,rate_bits,crb",
    "ris-isac-tradeoff": "mode,coupling,R0,rate_bits,crb",
    "beampattern": "angle_deg,j_total,j_comm,j_sense",
    "beampattern-phases": "ris_element,phase_rad",
}


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if math.isnan(x):
        return ""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(x)


def _write_csv(path: Path, header: str, rows) -> str:
    """Write the table with CRLF line ends; returns the SHA-256 of its bytes."""
    import hashlib  # loads OpenSSL, about 5 ms; importing risac.cli should not pay it

    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    data = ("\r\n".join(lines) + "\r\n").encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _run_sense_sweep(cfg: RunConfig):
    scene = scene_from_config(cfg)
    start = np.asarray(cfg.road_start)
    end = np.asarray(cfg.road_end)
    fractions = np.linspace(0.0, 1.0, cfg.num_waypoints)
    waypoints = [tuple(start + f * (end - start)) for f in fractions]
    blocked = [i >= cfg.blocked_from_index for i in range(cfg.num_waypoints)]
    rows = trajectory_sweep(scene, waypoints, blocked=blocked)
    csv_rows = [(r.waypoint, r.mode, r.power_db, r.crb) for r in rows]
    diag = {"waypoints": [list(map(float, w)) for w in waypoints], "blocked": blocked}
    return {"": (CSV_HEADERS["sense-sweep"], csv_rows)}, diag


def _run_detect(cfg: RunConfig):
    scene = scene_from_config(cfg)
    design = maximize_illumination(scene)
    dets = [DetectionConfig(false_alarm_rate=pf) for pf in cfg.pf_list]
    # Calibrate the target gain so the matched-filter SNR hits each grid value.
    snrs, gain_vars = [], []
    for snr_db in cfg.snr_db_list:
        try:
            snrs.append(10.0 ** (snr_db / 10.0))
        except OverflowError:
            raise ConfigError(f"snr_db_list entry {snr_db!r} is past the float range "
                              "in linear units") from None
        gain_vars.append(snrs[-1] * scene.noise_power_sensing
                         / (scene.rx.num_elements * design.power))
        if not math.isfinite(gain_vars[-1]):
            raise ConfigError(f"snr_db = {snr_db!r} needs a target gain variance past the "
                              "float range at this noise_sensing_dbm and illumination power")
    # One draw serves every SNR point; its seed is the first child of the config seed.
    seed = int(np.random.SeedSequence(cfg.seed).spawn(1)[0].generate_state(1)[0])
    points = [(snr_db, snr, det) for snr_db, snr in zip(cfg.snr_db_list, snrs) for det in dets]
    mcs = (glrt_monte_carlo(scene, design.w, design.phi, cfg.trials, dets, seed, gain_vars)
           if points else [])  # an empty grid has no rows
    results = [(snr_db, det.false_alarm_rate, detection_probability(snr, det),
                mc.empirical_pd, mc.empirical_pf)
               for (snr_db, snr, det), mc in zip(points, mcs)]
    csv_rows = [r[:4] for r in results]
    diag = {
        "illumination_power": design.power,
        "empirical_pf": {f"{r[0]}dB/pf={r[1]}": r[4] for r in results},
    }
    return {"": (CSV_HEADERS["detect"], csv_rows)}, diag


def _run_isac_tradeoff(cfg: RunConfig):
    scene = scene_from_config(cfg)
    a_r_dot = steering_derivative(scene.rx, angles_from_geometry(scene).theta1)
    # CRB = kappa / |a_t^T w|^2, the one-target model of isac.kappa; the
    # centred receive array keeps adot_r orthogonal to a_r, so no projection.
    kappa = isac_mod.kappa(scene.noise_power_sensing, scene.samples, scene.target_gain_var,
                           float(np.real(np.vdot(a_r_dot, a_r_dot))))
    gain = pathloss_amplitude(
        float(np.linalg.norm(np.asarray(cfg.target_position) - np.asarray(cfg.bs_position))),
        cfg.pathloss_exp_direct,
    )
    rows, max_rate = isac_mod.tradeoff_curve(
        scene.tx.num_elements, kappa, scene.transmit_power, scene.noise_power_comms,
        cfg.rho_list, cfg.r0_points, channel_gain=gain
    )
    csv_rows = [(r.rho, r.rate_threshold, r.rate, r.crb) for r in rows]
    return {"": (CSV_HEADERS["isac-tradeoff"], csv_rows)}, {"max_rate_bits": max_rate}


def _run_ris_isac_tradeoff(cfg: RunConfig):
    scenario = RisIsacScenario.from_scene(scene_from_config(cfg))
    result = ri.ris_isac_tradeoff(scenario, cfg.coupling, cfg.ris_modes, cfg.r0_points)
    diag = {f"max_rate_{mode}": rate for mode, rate in result.max_rate.items()}
    csv_rows = [(r.mode, r.coupling, r.rate_threshold, r.rate, r.crb) for r in result.rows]
    return {"": (CSV_HEADERS["ris-isac-tradeoff"], csv_rows)}, diag


def _run_beampattern(cfg: RunConfig):
    scene = scene_from_config(cfg)
    angles = angles_from_geometry(scene)
    width = math.radians(cfg.beam_width_deg)
    target_angles = [math.radians(a) for a in cfg.target_angles_deg]
    beams = [(a, width, 1.0) for a in target_angles]
    beams.append((angles.omega_t, width, 1.0))  # serve the user through the RIS
    spec = dw.make_beampattern_spec(beams, target_angles, grid_points=cfg.grid_points)
    if not spec.desired.any():
        raise ConfigError(f"no beam of beam_width_deg = {cfg.beam_width_deg!r} covers a point "
                          f"of the grid_points = {cfg.grid_points} grid")
    gamma = 10.0 ** (cfg.sinr_threshold_db / 10.0)
    design = dw.design_dual_waveform(scene, spec, gamma, seed=cfg.seed)

    csv_rows = [
        (math.degrees(a), jt, jc, js)
        for a, jt, jc, js in zip(spec.grid, design.pattern, design.comm_pattern,
                                 design.sense_pattern)
    ]
    phase_rows = list(enumerate(np.angle(design.phi)))
    diag = {
        "sinr": design.sinr,
        "sinr_threshold": gamma,
        "loss": design.loss,
        "tau": design.tau,
        "converged": design.converged,
        "iterations": design.iterations,
        "evaluations": design.evaluations,
        "grad_norm": design.grad_norm,
        "stop": design.stop,
        "ris_angle_deg": math.degrees(angles.omega_t),
    }
    return {
        "": (CSV_HEADERS["beampattern"], csv_rows),
        "_phases": (CSV_HEADERS["beampattern-phases"], phase_rows),
    }, diag


_RUNNERS = {
    "sense-sweep": _run_sense_sweep,
    "detect": _run_detect,
    "isac-tradeoff": _run_isac_tradeoff,
    "ris-isac-tradeoff": _run_ris_isac_tradeoff,
    "beampattern": _run_beampattern,
}

_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Quick-look plot for {experiment} output (generated alongside the CSV).\"\"\"
import csv
from pathlib import Path

import matplotlib.pyplot as plt


def number(text):
    return float("nan") if text in ("", "inf", "-inf") else float(text)


reader = csv.DictReader(Path("{csv_name}").read_text().splitlines())
rows = list(reader)
columns = {{}}  # the numeric ones; text columns such as mode label the lines
for col in reader.fieldnames:
    try:
        columns[col] = [number(r[col]) for r in rows]
    except ValueError:
        pass
labels = [c for c in reader.fieldnames if c not in columns]
(x_col, x), *ys = columns.items()
fig, ax = plt.subplots()
for key in dict.fromkeys(tuple(r[c] for c in labels) for r in rows):
    idx = [i for i, r in enumerate(rows) if tuple(r[c] for c in labels) == key]
    for col, y in ys:
        ax.plot([x[i] for i in idx], [y[i] for i in idx], label=" ".join((*key, col)))
ax.set_xlabel(x_col)
ax.legend()
fig.savefig("{experiment}.png", dpi=150)
print("wrote {experiment}.png")
"""


def run_experiment(cfg: RunConfig, out_dir: Path, emit_plot_script: bool = False) -> dict:
    """Run one experiment; writes CSV file(s) plus a JSON summary.

    The summary's ``outputs`` maps each CSV's name in ``out_dir`` to its
    SHA-256, so two runs into different directories write the same summary
    bar ``wall_clock_seconds``.
    """
    cfg.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    tables, diagnostics = _RUNNERS[cfg.experiment](cfg)
    elapsed = time.perf_counter() - started
    for header, rows in tables.values():
        cols = header.split(",")
        # 0.0 would claim an exact estimate, and a subnormal CRB has lost its precision.
        if "crb" in cols and any(row[cols.index("crb")] < sys.float_info.min for row in rows):
            raise ConfigError("a CRB rounds to 0.0 or to a subnormal float: this config puts "
                              "the sensing SNR past the float range")

    written = {}
    for suffix, (header, rows) in tables.items():
        name = f"{cfg.experiment}{suffix}.csv"
        written[name] = _write_csv(out_dir / name, header, rows)
    summary = {
        "experiment": cfg.experiment,
        "config": {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)},
        "outputs": written,
        "diagnostics": diagnostics,
        "wall_clock_seconds": elapsed,
    }
    summary_path = out_dir / f"{cfg.experiment}_summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, default=str) + "\n")
    if emit_plot_script:
        script = _PLOT_SCRIPT.format(
            experiment=cfg.experiment, csv_name=f"{cfg.experiment}.csv"
        )
        (out_dir / f"{cfg.experiment}_plot.py").write_text(script)
    return summary


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risac",
        description="RIS-aided sensing and ISAC experiment runner",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="experiment to run")
    parser.add_argument("--config", type=Path, default=None, help="key = value config file")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=1, help="accepted for compatibility "
                        "(must be >= 1); has no effect, every experiment runs serially")
    parser.add_argument("--emit-plot-script", action="store_true",
                        help="write a matplotlib quick-look script next to the CSV")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            # Validate against the requested experiment; a line in the file wins.
            cfg = parse_config(Path(args.config).read_text(), args.experiment)
            if cfg.experiment != args.experiment:
                raise ConfigError(
                    f"config file requests {cfg.experiment!r} but the "
                    f"command line asks for {args.experiment!r}"
                )
        else:
            cfg = RunConfig()
        cfg.experiment = args.experiment
        if args.seed is not None:
            cfg.seed = args.seed
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        run_experiment(cfg, args.out, emit_plot_script=args.emit_plot_script)
        return 0
    except Exception as exc:  # error contract: machine-readable JSON, nonzero exit
        error = {"error": type(exc).__name__, "detail": str(exc)}
        print(json.dumps(error), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
