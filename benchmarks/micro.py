"""Kernel micro-timings of public functions at the default scene."""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from risac import dual_waveform as dw
from risac.arrays import steering_vector
from risac.channels import angles_from_geometry, build_sensing_channels
from risac.config import RunConfig, scene_from_config
from risac.ris_isac import RisIsacScenario, coupling_gradient, coupling_objective, fim_theta
from risac.sensing import DetectionConfig, glrt_monte_carlo, marcum_q1, maximize_illumination


def per_call_s(fn, batches: int = 7, batch_s: float = 0.02) -> float:
    """Median per-call time over batches sized to take about ``batch_s`` each."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= batch_s:
            break
        n *= 2
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def kernel_timings() -> dict:
    cfg = RunConfig()
    scene = scene_from_config(cfg)
    scenario = RisIsacScenario.from_scene(scene)
    rng = np.random.default_rng(0)
    phi = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, scene.n_ris))
    w = rng.standard_normal(cfg.l_t) + 1j * rng.standard_normal(cfg.l_t)
    w *= math.sqrt(scene.transmit_power) / np.linalg.norm(w)
    args = (scenario.a_t_term, scenario.f_t, scenario.a_r_term, scenario.f_r,
            scenario.h_bu, scenario.f_c)

    angles = angles_from_geometry(scene)
    width = math.radians(cfg.beam_width_deg)
    beams = [(math.radians(a), width, 1.0) for a in cfg.target_angles_deg]
    beams.append((angles.omega_t, width, 1.0))
    spec = dw.make_beampattern_spec(
        beams, [math.radians(a) for a in cfg.target_angles_deg], grid_points=cfg.grid_points
    )
    x = rng.standard_normal((cfg.l_t, 3)) + 1j * rng.standard_normal((cfg.l_t, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    r_cov = x @ x.conj().T

    det = DetectionConfig(false_alarm_rate=0.01)
    a, b = math.sqrt(2.0 * 10.0), math.sqrt(2.0 * det.threshold)
    design = maximize_illumination(scene)
    glrt = [_timed(lambda: glrt_monte_carlo(scene, design.w, design.phi, 100000, det))
            for _ in range(3)]

    us = 1e6
    return {
        "arrays.steering_vector_us": us * per_call_s(lambda: steering_vector(scene.tx, 0.3)),
        "channels.build_sensing_channels_us":
            us * per_call_s(lambda: build_sensing_channels(scene, phi)),
        "ris_isac.coupling_obj_grad_us": us * per_call_s(
            lambda: (coupling_objective(phi, *args), coupling_gradient(phi, *args))),
        "ris_isac.fim_theta_us": us * per_call_s(lambda: fim_theta(scenario, phi, w)),
        "sensing.marcum_q1_us": us * per_call_s(lambda: marcum_q1(a, b)),
        "sensing.glrt_1e5_s": statistics.median(glrt),
        "dual_waveform.autoscale_tau_us":
            us * per_call_s(lambda: dw.autoscale_tau(r_cov, spec, scene.tx)),
    }
