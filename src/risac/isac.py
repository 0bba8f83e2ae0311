"""Closed-form rate-constrained CRB minimization for a single ISAC beam.

The comms rate and the sensing CRB both use the transpose forms h_c^T w and
a_t^T w, so the power-maximizing directions are the conjugated channel
vectors. The two-branch solution below is derived for that convention: it
keeps the budget, meets the rate constraint with equality on the boundary
branch, and reduces to the printed special cases for real steering vectors.
a_t may be any transmit channel vector, not only a unit-modulus steering
vector: the solution maximizes the illumination |a_t^T w|^2, whatever the
norm of a_t. Each solve takes a whole curve's rate floors and computes the
channel terms once per curve; only the two branch coefficients vary.
Both trade-offs, ``isac-tradeoff`` here and ``ris-isac-tradeoff`` in
``ris_isac``, sweep their floors with ``crb_min_beamformer``, CRB = kappa /
|a_t^T w|^2 with kappa independent of w.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .errors import DegenerateChannelError, InfeasibleRateError

__all__ = [
    "make_coupled_channel",
    "max_illumination_beamformer",
    "crb_min_beamformer",
    "tradeoff_curve",
]


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
    a_t: np.ndarray, h_c: np.ndarray, p_t: float, sigma_c: float, rate_thresholds
):
    """Maximize the illumination |a_t^T w|^2 under the budget p_t, for each rate floor.

    Returns (weights, boundary, rates): one (R, L_T) row per floor, the mask
    of rows on the boundary branch, and their rates. If the matched filter
    (toward conj(a_t)) meets a floor, it is optimal; otherwise the optimum
    splits between the conjugated comms direction and the conjugated
    residual of a_t, with the rate constraint tight.
    """
    floors = np.asarray(rate_thresholds, dtype=float).reshape(-1)
    if np.any(floors < 0):
        raise ValueError("rate_threshold must be nonnegative")
    # Python's pow per floor: numpy's vectorized power rounds a few floors differently.
    snr_floor = np.array([(2.0**r - 1.0) * sigma_c for r in floors.tolist()])
    hc_norm_sq = float(np.real(np.vdot(h_c, h_c)))
    if hc_norm_sq == 0.0:
        raise DegenerateChannelError("comms channel is zero")
    over = snr_floor > p_t * hc_norm_sq * (1.0 + 1e-12)
    if over.any():
        raise InfeasibleRateError(floors[over][0], math.log2(1.0 + p_t * hc_norm_sq / sigma_c))

    # The matched filter sqrt(p_t) conj(a_t) / ||a_t|| delivers the SNR
    # p_t |h_c^H a_t|^2 / ||a_t||^2; it is optimal where that meets the floor.
    a_norm_sq = float(np.real(np.vdot(a_t, a_t)))
    corr = complex(np.vdot(h_c, a_t))
    boundary = p_t * abs(corr) ** 2 < a_norm_sq * snr_floor
    weights = np.empty((floors.size, a_t.size), dtype=complex)
    if not boundary.all():
        weights[~boundary] = math.sqrt(p_t) * a_t.conj() / np.linalg.norm(a_t)
    if boundary.any():
        # Boundary branch in the conjugated basis {q_hat, p_perp_hat}.
        q_hat = h_c.conj() / math.sqrt(hc_norm_sq)
        kappa = complex(np.vdot(q_hat, a_t.conj()))  # equals conj(h_c^H a_t)/||h_c||
        p_perp = a_t.conj() - kappa * q_hat
        perp_norm = float(np.linalg.norm(p_perp))
        snr = snr_floor[boundary]
        lam1 = np.sqrt(snr / hc_norm_sq) * (kappa / abs(kappa) if abs(kappa) > 0 else 1.0)
        rows = lam1[:, None] * q_hat
        # Fully aligned channels leave no residual: all budget goes along q_hat.
        if perp_norm >= 1e-14 * np.linalg.norm(a_t):
            lam2 = np.sqrt(np.maximum(p_t - snr / hc_norm_sq, 0.0))
            rows += lam2[:, None] * (p_perp / perp_norm)
        weights[boundary] = rows
    norm_sq = np.linalg.norm(weights, axis=1) ** 2
    if np.any(norm_sq > p_t + 1e-9 * p_t):
        raise ValueError(f"weights exceed the power budget: ||w||^2 = {norm_sq.max():.6g} "
                         f"> {p_t:.6g}")
    # Rate log2(1 + |h_c^T w|^2 / sigma_c^2) per row.
    rates = [math.log2(1.0 + float(np.abs(h_c @ w) ** 2) / sigma_c) for w in weights]
    return weights, boundary, np.array(rates)


def crb_min_beamformer(a_t: np.ndarray, h_c: np.ndarray, kappa: float, p_t: float,
                       sigma_c: float, rate_thresholds):
    """Minimize the angle CRB kappa / |a_t^T w|^2 subject to each rate floor and the budget p_t.

    kappa does not depend on w, so the optimum is ``max_illumination_beamformer``
    over the floors. Returns (rates, crbs), one per floor; a row's CRB is
    infinite at zero illumination.
    """
    weights, _, rates = max_illumination_beamformer(a_t, h_c, p_t, sigma_c, rate_thresholds)
    illums = [float(np.abs(a_t @ w) ** 2) for w in weights]
    return rates, np.array([kappa / illum if illum > 0.0 else math.inf for illum in illums])


@dataclasses.dataclass(frozen=True)
class TradeoffRow:
    rho: float
    rate_threshold: float
    rate: float
    crb: float


def tradeoff_curve(
    a_t: np.ndarray,
    kappa: float,
    p_t: float,
    sigma_c: float,
    rho_list: Sequence[float],
    r0_points: int,
    channel_gain: float = 1.0,
    seed: int = 0,
):
    """Rate/CRB trade-off rows over a coupling-by-rate grid, and the max rate.

    Every comms channel has norm channel_gain * ||a_t||, so each rho shares
    the max rate log2(1 + P g^2 L_T / sigma_c^2), taking ||a_t||^2 = L_T as
    for a steering vector. The rate floors are ``r0_points`` evenly spaced
    values from 0 to 98% of that rate, so every floor is feasible; each rho
    solves them in one ``crb_min_beamformer`` call, with its channel terms
    computed once. Every rho reuses the same seeded residual direction, so
    the curves vary smoothly in rho. Returns (rows, max rate in bits).
    """
    if len(rho_list) == 0 or r0_points < 1:
        raise ValueError("rho_list must be non-empty and r0_points >= 1")
    max_rate = math.log2(1.0 + p_t * (channel_gain**2) * a_t.size / sigma_c)
    grid = np.linspace(0.0, 0.98 * max_rate, r0_points)
    rows = []
    for rho in rho_list:
        h_c = make_coupled_channel(a_t, rho, seed=seed, gain=channel_gain)
        rates, crbs = crb_min_beamformer(a_t, h_c, kappa, p_t, sigma_c, grid)
        rows.extend(TradeoffRow(rho, *row) for row in zip(grid, rates, crbs))
    return rows, max_rate
