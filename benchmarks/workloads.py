"""Workload definitions, metric units and the layer -> end-to-end map.

Each workload is a closed loop with one caller: a single process runs the
workload's experiments one after another through ``risac.cli.main`` with
``--threads 1``, the way a researcher regenerates a figure.

Seeds. On ``sensing`` the benchmark seed is the config ``seed``: it draws the
Monte Carlo trials and the path-gain phases, and the work per run does not
depend on it. On the two solver-bound workloads the config seed stays at the
default (0). There the solver's work depends on the config seed far more than
on anything a code change could do: over config seeds 6..17, ``ris-isac`` made
67k to 301k CRB kernel calls (8 s to 32 s), and ``beampattern`` ran 0.7 s to
1.8 s depending on whether it converges early. No run that fits the time
budget averages that out. Seed 0 shows the defects the map below names:
line-search waste on ``ris-isac`` and a non-converged ``beampattern``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    experiments: Tuple[str, ...]
    overrides: Dict[str, object]
    seeded: bool  # True: the benchmark seed becomes the config seed
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ris-isac",
            ("ris-isac-tradeoff",),
            {},
            False,
            "default ris-isac-tradeoff: 75 rows, line-search bound CRB solves in "
            "ris_isac driven by optim; arrays, sensing and dual_waveform idle; "
            "quality is the CRB in rad^2",
        ),
        Workload(
            "beampattern",
            ("beampattern",),
            {},
            False,
            "default beampattern: dual_waveform loss/gradient and ~18.6k "
            "steering_vector calls, ends not converged, no CRB calls; "
            "quality is bp_loss",
        ),
        Workload(
            "sensing",
            ("detect", "sense-sweep", "isac-tradeoff"),
            {},
            True,
            "detect, sense-sweep and isac-tradeoff: GLRT Monte Carlo noise, "
            "illumination, channel rebuilds, Marcum Q and isac closed forms; "
            "quality is the CRB in rad^2",
        ),
    )
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "quality": "rad2_or_loss",
}

# quality: the workload's main quality number, lower is better. Its unit
# depends on the workload, as its name says: on ris-isac and sensing it is the
# geometric mean of the finite CRB rows in rad^2, i.e. 10**crb_log10_mean; on
# beampattern it is bp_loss, the dimensionless beampattern loss.

PER_LAYER_UNITS = {
    "ris_isac.crb_evals": "count",
    "ris_isac.crb_steps": "count",
    "ris_isac.crb_eval_s": "s",
    "ris_isac.coupling_evals": "count",
    "ris_isac.coupling_eval_s": "s",
    "ris_isac.optimize_ris_profile.calls": "count",
    "ris_isac.from_scene_s": "s",
    "ris_isac.self_s": "s",
    "optim.solves": "count",
    "optim.iterations": "count",
    "optim.objective_evals": "count",
    "optim.gradient_evals": "count",
    "optim.accept_ratio": "1",
    "optim.unconverged": "count",
    "optim.self_s": "s",
    "dual_waveform.converged": "count",
    "dual_waveform.trace_len": "count",
    "dual_waveform.autoscale_tau.calls": "count",
    "dual_waveform.self_s": "s",
    "arrays.steering_vector.calls": "count",
    "arrays.steering_derivative.calls": "count",
    "arrays.self_s": "s",
    "channels.calls": "count",
    "channels.build_sensing_channels.calls": "count",
    "channels.self_s": "s",
    "sensing.glrt_monte_carlo.self_s": "s",
    "sensing.glrt_trials_per_s": "1/s",
    "sensing.maximize_illumination.iterations": "count",
    "sensing.marcum_q1.calls": "count",
    "sensing.marcum_q1.self_s": "s",
    "sensing.detect_z_max": "1",
    "isac.crb_min_beamformer.calls": "count",
    "isac.self_s": "s",
    "config.self_s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "B",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "arrays.steering_vector_us": "us",
    "channels.build_sensing_channels_us": "us",
    "ris_isac.coupling_obj_grad_us": "us",
    "ris_isac.fim_theta_us": "us",
    "sensing.marcum_q1_us": "us",
    "sensing.glrt_1e5_s": "s",
    "dual_waveform.autoscale_tau_us": "us",
}

# Which end-to-end metric each layer's metrics should move, on which
# workloads, and where the prediction is no move. A faster layer saves at most
# its share of the run: marcum_q1 is under 0.1% of sensing, so no end-to-end
# metric should move for it; the CRB kernel is about 88% of ris-isac.
LAYER_MAP = {
    "ris_isac": {"moves": ["wall_s"], "holds": ["quality"],
                 "on": ["ris-isac"],
                 "no_move_on": ["beampattern", "sensing"]},
    "optim": {"moves": ["wall_s", "quality"], "holds": [],
              "on": ["ris-isac"],
              "no_move_on": ["beampattern", "sensing"]},
    "dual_waveform": {"moves": ["wall_s", "quality"], "holds": [],
                      "on": ["beampattern"],
                      "no_move_on": ["ris-isac", "sensing"]},
    "arrays": {"moves": ["wall_s"], "holds": [], "on": ["beampattern"],
               "no_move_on": ["ris-isac"]},
    "channels": {"moves": ["wall_s", "setup_s"], "holds": [], "on": ["sensing"],
                 "no_move_on": ["ris-isac"]},
    "sensing": {"moves": ["wall_s", "peak_rss_mb", "sensing.detect_z_max"],
                "holds": [], "on": ["sensing"],
                "no_move_on": ["ris-isac", "beampattern"]},
    "isac": {"moves": ["wall_s"], "holds": [], "on": ["sensing"],
             "no_move_on": ["beampattern"]},
    "config": {"moves": ["setup_s", "wall_s"], "holds": [], "on": [],
               "no_move_on": list(WORKLOADS)},
    "cli": {"moves": ["setup_s", "wall_s"], "holds": [], "on": [],
            "no_move_on": list(WORKLOADS)},
}
