"""Closed-form rate-constrained CRB minimization for a single ISAC beam.

The comms rate and the sensing CRB both use the transpose forms h_c^T w and
a_t^T w, so the power-maximizing directions are the conjugated channel
vectors. The two-branch solution below is derived for that convention: it
keeps the budget, meets the rate constraint with equality on the boundary
branch, and reduces to the printed special cases for real steering vectors.
a_t may be any transmit channel vector, not only a unit-modulus steering
vector: the solution maximizes the illumination |a_t^T w|^2, whatever the
norm of a_t.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .errors import DegenerateChannelError, InfeasibleRateError
from .sensing import Beamformer

__all__ = [
    "IsacScenario",
    "IsacSolution",
    "achievable_rate",
    "isac_crb",
    "make_coupled_channel",
    "max_illumination_beamformer",
    "crb_min_beamformer",
    "tradeoff_curve",
]


@dataclasses.dataclass(eq=False)
class IsacScenario:
    """Transmit channel (any vector), receive steering pieces, comms channel,
    and noise/budget parameters."""

    a_t: np.ndarray
    a_r: np.ndarray
    a_r_dot: np.ndarray
    h_c: np.ndarray
    noise_comms: float
    noise_sensing: float
    target_gain_var: float = 1.0
    samples: int = 64
    budget: float = 1.0

    def __post_init__(self):
        self.a_t = np.asarray(self.a_t, dtype=complex).reshape(-1)
        self.a_r = np.asarray(self.a_r, dtype=complex).reshape(-1)
        self.a_r_dot = np.asarray(self.a_r_dot, dtype=complex).reshape(-1)
        self.h_c = np.asarray(self.h_c, dtype=complex).reshape(-1)
        if self.h_c.shape != self.a_t.shape:
            raise ValueError("h_c and a_t must have equal length L_T")
        if self.a_r.shape != self.a_r_dot.shape:
            raise ValueError("a_r and a_r_dot must have equal length L_S")
        for val, name in [
            (self.noise_comms, "noise_comms"),
            (self.noise_sensing, "noise_sensing"),
            (self.budget, "budget"),
        ]:
            if not val > 0:
                raise ValueError(f"{name} must be positive")

    @property
    def adot_norm_sq(self) -> float:
        return float(np.real(np.vdot(self.a_r_dot, self.a_r_dot)))

    @property
    def max_rate(self) -> float:
        gain = float(np.real(np.vdot(self.h_c, self.h_c)))
        return math.log2(1.0 + self.budget * gain / self.noise_comms)


@dataclasses.dataclass(eq=False)
class IsacSolution:
    w: Beamformer
    branch: str  # "unconstrained" or "boundary"
    rate: float
    crb: float


def achievable_rate(h_c: np.ndarray, w, noise_comms: float) -> float:
    """Downlink rate log2(1 + |h_c^T w|^2 / sigma_c^2) in bits per use."""
    h_c = np.asarray(h_c, dtype=complex).reshape(-1)
    w_vec = w.weights if isinstance(w, Beamformer) else np.asarray(w, dtype=complex).reshape(-1)
    if h_c.shape != w_vec.shape:
        raise ValueError(f"dimension mismatch: {h_c.shape} vs {w_vec.shape}")
    snr = float(np.abs(h_c @ w_vec) ** 2) / noise_comms
    return math.log2(1.0 + snr)


def isac_crb(w, scenario: IsacScenario) -> float:
    """Angle CRB sigma_s^2 L_S / (2 T sigma_eta^2 ||adot_r||^2 |a_t^T w|^2)."""
    w_vec = w.weights if isinstance(w, Beamformer) else np.asarray(w, dtype=complex).reshape(-1)
    illum = float(np.abs(scenario.a_t @ w_vec) ** 2)
    if illum == 0.0:
        return math.inf
    l_s = scenario.a_r.shape[0]
    return scenario.noise_sensing * l_s / (
        2.0
        * scenario.samples
        * scenario.target_gain_var
        * scenario.adot_norm_sq
        * illum
    )


def make_coupled_channel(
    a_t: np.ndarray,
    rho_target: float,
    seed: int = 0,
    gain: float = 1.0,
) -> np.ndarray:
    """Synthesize a comms channel with exact coupling rho to a_t.

    Mixes the normalized steering direction with a seeded random direction
    orthogonal to it; the norm is gain * ||a_t|| so sweeps over rho keep the
    channel strength fixed.
    """
    if not 0.0 <= rho_target <= 1.0:
        raise ValueError("rho_target must lie in [0, 1]")
    a_t = np.asarray(a_t, dtype=complex).reshape(-1)
    a_hat = a_t / np.linalg.norm(a_t)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(a_t.size) + 1j * rng.standard_normal(a_t.size)
    z -= np.vdot(a_hat, z) * a_hat
    norm = np.linalg.norm(z)
    if norm < 1e-12:  # astronomically unlikely; L_T = 1 has no orthogonal part
        if rho_target < 1.0:
            raise DegenerateChannelError("no orthogonal direction available")
        u_hat = np.zeros_like(a_hat)
    else:
        u_hat = z / norm
    direction = rho_target * a_hat + math.sqrt(1.0 - rho_target**2) * u_hat
    return gain * np.linalg.norm(a_t) * direction


def max_illumination_beamformer(
    a_t: np.ndarray, h_c: np.ndarray, p_t: float, sigma_c: float, rate_threshold: float
):
    """Maximize the illumination |a_t^T w|^2 subject to a rate floor and the budget p_t.

    Returns (w, branch, rate). Two branches: if the matched filter (toward
    conj(a_t)) already meets the rate, it is optimal; otherwise the optimum
    splits between the conjugated comms direction and the conjugated residual
    of a_t, with the rate constraint tight.
    """
    if rate_threshold < 0:
        raise ValueError("rate_threshold must be nonnegative")
    snr_floor = (2.0**rate_threshold - 1.0) * sigma_c
    hc_norm_sq = float(np.real(np.vdot(h_c, h_c)))
    if hc_norm_sq == 0.0:
        raise DegenerateChannelError("comms channel is zero")
    if snr_floor > p_t * hc_norm_sq * (1.0 + 1e-12):
        raise InfeasibleRateError(rate_threshold, math.log2(1.0 + p_t * hc_norm_sq / sigma_c))

    # The matched filter sqrt(p_t) conj(a_t) / ||a_t|| delivers the SNR
    # p_t |h_c^H a_t|^2 / ||a_t||^2; it is optimal when that meets the floor.
    a_norm_sq = float(np.real(np.vdot(a_t, a_t)))
    corr = complex(np.vdot(h_c, a_t))
    if p_t * abs(corr) ** 2 >= a_norm_sq * snr_floor:
        w_vec = math.sqrt(p_t) * a_t.conj() / np.linalg.norm(a_t)
        branch = "unconstrained"
    else:
        # Boundary branch in the conjugated basis {q_hat, p_perp_hat}.
        q_hat = h_c.conj() / math.sqrt(hc_norm_sq)
        kappa = complex(np.vdot(q_hat, a_t.conj()))  # equals conj(h_c^H a_t)/||h_c||
        p_perp = a_t.conj() - kappa * q_hat
        perp_norm = float(np.linalg.norm(p_perp))
        lam1_mag = math.sqrt(snr_floor / hc_norm_sq)
        lam1 = lam1_mag * (kappa / abs(kappa) if abs(kappa) > 0 else 1.0)
        if perp_norm < 1e-14 * np.linalg.norm(a_t):
            # Channels fully aligned; all budget goes along q_hat.
            w_vec = lam1 * q_hat
        else:
            lam2 = complex(math.sqrt(max(p_t - snr_floor / hc_norm_sq, 0.0)))
            w_vec = lam1 * q_hat + lam2 * (p_perp / perp_norm)
        branch = "boundary"
    w = Beamformer(w_vec, p_t)
    return w, branch, achievable_rate(h_c, w, sigma_c)


def crb_min_beamformer(scenario: IsacScenario, rate_threshold: float) -> IsacSolution:
    """Minimize the angle CRB subject to a rate floor and a power budget.

    The CRB is inversely proportional to the illumination, so the optimum is
    ``max_illumination_beamformer``; this adds the CRB of that beam.
    """
    beam = max_illumination_beamformer(scenario.a_t, scenario.h_c, scenario.budget,
                                       scenario.noise_comms, rate_threshold)
    return IsacSolution(*beam, crb=isac_crb(beam[0], scenario))


@dataclasses.dataclass(frozen=True)
class TradeoffRow:
    rho: float
    rate_threshold: float
    rate: float
    crb: float


def tradeoff_curve(
    scenario_template: IsacScenario,
    rho_list: Sequence[float],
    r0_points: int,
    channel_gain: float = 1.0,
    seed: int = 0,
):
    """Rate/CRB trade-off rows over a coupling-by-rate grid, and the max rate.

    Every comms channel has norm channel_gain * ||a_t||, so each rho shares
    the max rate log2(1 + P g^2 L_T / sigma_c^2), taking ||a_t||^2 = L_T as
    for a steering vector. The rate floors are ``r0_points`` evenly spaced
    values from 0 to 98% of that rate, so every floor is feasible. Every rho
    reuses the same seeded residual direction, so the curves vary smoothly
    in rho. Returns (rows, max rate in bits).
    """
    if len(rho_list) == 0 or r0_points < 1:
        raise ValueError("rho_list must be non-empty and r0_points >= 1")
    max_rate = math.log2(
        1.0 + scenario_template.budget * (channel_gain**2) * scenario_template.a_t.size
        / scenario_template.noise_comms
    )
    grid = np.linspace(0.0, 0.98 * max_rate, r0_points)
    rows = []
    for rho in rho_list:
        h_c = make_coupled_channel(scenario_template.a_t, rho, seed=seed, gain=channel_gain)
        scenario = dataclasses.replace(scenario_template, h_c=h_c)
        for r0 in grid:
            sol = crb_min_beamformer(scenario, r0)
            rows.append(TradeoffRow(rho, r0, sol.rate, sol.crb))
    return rows, max_rate
