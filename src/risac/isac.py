"""The one-target angle CRB and its closed-form rate-constrained minimization.

Every CRB experiment writes CRB(theta1) = kappa / |a_t^T w|^2 (``kappa``).
The comms rate and the CRB use the transpose forms h_c^T w and a_t^T w, so
the optimal beam maximizes the illumination |a_t^T w|^2 under the budget P
and the rate floor. That optimum depends on the channels only through a_sq =
||a_t||^2, h_sq = ||h_c||^2 and corr_sq = |h_c^H a_t|^2, for any transmit
channel a_t. With snr = (2^R0 - 1) sigma_c^2, the matched filter sqrt(P)
conj(a_t) / ||a_t|| meets the floor where P corr_sq >= a_sq snr: illum = P
a_sq and rate = log2(1 + P corr_sq / (a_sq sigma_c^2)). Otherwise the rate
constraint is tight (rate = log2(1 + snr / sigma_c^2)) and the beam puts
power snr / h_sq along conj(h_c) and the rest along the conjugated residual
of a_t, of squared norm a_sq - corr_sq / h_sq:
illum = (sqrt(snr / h_sq) sqrt(corr_sq / h_sq)
         + sqrt(P - snr / h_sq) sqrt(a_sq - corr_sq / h_sq))^2.
Both trade-offs, ``isac-tradeoff`` here and ``ris-isac-tradeoff`` in
``ris_isac``, sweep their floors with ``crb_min_beamformer`` up to
``_max_rate``; no run forms a beam vector.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateChannelError, InfeasibleRateError

__all__ = [
    "kappa",
    "crb_min_beamformer",
    "tradeoff_curve",
]


def kappa(noise_sensing: float, samples: int, gain_sq: float, adot_perp_sq: float) -> float:
    """sigma_s^2 / (2T |gain|^2 ||P_perp adot||^2), the kappa of the angle CRB kappa / illum.

    The deterministic CRB of one target's angle from T snapshots of a known
    waveform with the complex gain a nuisance (Stoica & Nehorai, IEEE TASSP
    1989): eliminating the gain projects the receive channel out of adot and
    drops the transmit derivative. The trace form of Liu et al. (IEEE TSP
    2022) reduces to it for A = b a^H and R = w w^H. No information (a NaN
    included) gives inf; information past the float range gives 0.0, which
    ``cli.run_experiment`` rejects.
    """
    info = 2.0 * samples * gain_sq * adot_perp_sq
    if not info > 0.0:  # also a NaN
        return math.inf
    return noise_sensing / info


def _max_rate(p_t: float, h_sq: float, sigma_c: float) -> float:
    """Max rate log2(1 + P ||h_c||^2 / sigma_c^2); ``ConfigError`` if that SNR is not finite."""
    snr = p_t * h_sq / sigma_c
    if not math.isfinite(snr):
        raise ConfigError(f"the comms SNR P ||h_c||^2 / sigma_c^2 = {snr!r} is past the float "
                          "range: lower transmit_power or raise noise_comms_dbm")
    return math.log2(1.0 + snr)


def crb_min_beamformer(a_sq: float, h_sq: float, corr_sq: float, kappa: float, p_t: float,
                       sigma_c: float, rate_thresholds):
    """Minimize the angle CRB kappa / |a_t^T w|^2 subject to each rate floor and the budget p_t.

    The scalar rule of the module docstring. Returns (rates, crbs), one per
    floor; a row's CRB is infinite at zero illumination. A negative floor
    raises ``ValueError``, h_sq = 0 ``DegenerateChannelError`` and a floor
    above the max rate ``InfeasibleRateError``.
    """
    floors = np.asarray(rate_thresholds, dtype=float).reshape(-1)
    if np.any(floors < 0):
        raise ValueError("rate_threshold must be nonnegative")
    # Python's pow per floor: numpy's vectorized power rounds a few floors differently.
    snr = np.array([(2.0**r - 1.0) * sigma_c for r in floors.tolist()])
    if h_sq == 0.0:
        raise DegenerateChannelError("comms channel is zero")
    over = snr > p_t * h_sq * (1.0 + 1e-12)
    if over.any():
        raise InfeasibleRateError(floors[over][0], _max_rate(p_t, h_sq, sigma_c))
    matched = p_t * corr_sq >= a_sq * snr
    comms = snr / h_sq
    boundary_illum = (np.sqrt(comms) * math.sqrt(corr_sq) / math.sqrt(h_sq)
                      + np.sqrt(np.maximum(p_t - comms, 0.0))
                      * math.sqrt(max(a_sq - corr_sq / h_sq, 0.0))) ** 2
    illums = np.where(matched, p_t * a_sq, boundary_illum)
    rates = np.where(matched, math.log2(1.0 + p_t * (corr_sq / a_sq) / sigma_c),
                     np.log2(1.0 + snr / sigma_c))
    crbs = np.array([kappa / illum if illum > 0.0 else math.inf for illum in illums.tolist()])
    return rates, crbs


@dataclasses.dataclass(frozen=True)
class TradeoffRow:
    rho: float
    rate_threshold: float
    rate: float
    crb: float


def tradeoff_curve(
    l_t: int,
    kappa: float,
    p_t: float,
    sigma_c: float,
    rho_list: Sequence[float],
    r0_points: int,
    channel_gain: float = 1.0,
):
    """Rate/CRB trade-off rows over a coupling-by-rate grid, and the max rate.

    The transmit channel is a steering vector of ``l_t`` elements, a_sq =
    l_t; its CRB is kappa / |a_t^T w|^2 with kappa from ``kappa``. Each rho
    stands for a comms channel of norm channel_gain * ||a_t|| with coupling
    |h_c^H a_t| = rho ||h_c|| ||a_t||, so h_sq = g^2 a_sq and corr_sq =
    rho^2 a_sq h_sq, and every rho shares ``_max_rate`` at h_sq. The rate
    floors are ``r0_points`` evenly spaced values from 0 to 98% of that
    rate, so every floor is feasible; each rho solves them in one
    ``crb_min_beamformer`` call. A rho below 1 with one transmit element
    raises ``DegenerateChannelError``: no comms direction is orthogonal to
    a_t. Returns (rows, max rate in bits).
    """
    if len(rho_list) == 0 or r0_points < 1:
        raise ValueError("rho_list must be non-empty and r0_points >= 1")
    a_sq = float(l_t)
    h_sq = channel_gain**2 * a_sq
    max_rate = _max_rate(p_t, h_sq, sigma_c)
    grid = np.linspace(0.0, 0.98 * max_rate, r0_points)
    rows = []
    for rho in rho_list:
        if not 0.0 <= rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if rho < 1.0 and l_t == 1:
            raise DegenerateChannelError("one transmit element leaves no comms direction "
                                         "orthogonal to a_t")
        rates, crbs = crb_min_beamformer(a_sq, h_sq, rho**2 * a_sq * h_sq, kappa, p_t, sigma_c,
                                         grid)
        rows.extend(TradeoffRow(rho, *row) for row in zip(grid, rates, crbs))
    return rows, max_rate
