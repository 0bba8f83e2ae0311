"""Target illumination, beamforming, detection, and the angle CRB along a trajectory.

Illumination is maximized in closed form. Every scene has one RIS with
line-of-sight paths, so the RIS map F_t = g r^T is rank one and h_t = a + g s
with s = r^T phi, |s| <= ||r||_1. The best profile puts |s| at ||r||_1 in
phase with g^H a (``channels.align_profile``, after Wu & Zhang, IEEE TWC
2019), and the best precoder is the matched filter of h_t.

Detection follows an energy test on the matched filtered echo; the receive
steering vector is normalized so the noise-only statistic is unit-mean
exponential and the false-alarm rate exp(-gamma) is exact.

The GLRT Monte Carlo simulates the matched-filter output, not the L_S-antenna
snapshot, of a target with fixed amplitude |eta| = sigma_eta, as in the
Marcum-Q law. With filter v = conj(a_r_hat), echo y = eta c a_r + n and white
noise n ~ CN(0, sigma_s^2 I), the output is v^T y = eta g + v^T n with echo
gain g = c (a_r^T v), and v^T n ~ CN(0, sigma_out^2), sigma_out^2 =
sigma_s^2 ||v||^2, exactly. The output is a sufficient statistic for the
energy test, and two identities in law reduce each trial to the draws the
statistic depends on:

- H0: |v^T n|^2 / sigma_s^2 = (sigma_out^2 / sigma_s^2) E with E ~ Exp(1),
  one exponential draw per trial.
- H1: the noise is circular, so the phase of eta g does not change the law of
  |eta g + v^T n|^2, which is that of ((A + s x)^2 + (s y)^2) / sigma_s^2
  with A = sigma_eta |g|, s = sigma_out / sqrt(2) and x, y standard normal:
  no echo-phase draw, and real arithmetic only.

One call draws E, x, y once, in that order, and thresholds the statistics
at every requested false-alarm rate and target gain variance: common random
numbers, whose consequences ``glrt_monte_carlo`` states.

The analytic detection probability Q1(sqrt(2 SNR), sqrt(2 gamma)) is a
Poisson mixture evaluated with numpy and ``math`` only (``marcum_q1``).

The angle CRB of ``trajectory_sweep`` is the one-target model of
``isac.kappa``: kappa / illumination power, the gain sigma_eta^2 fixed.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

import numpy as np

from .arrays import steering_derivative, steering_vector
from .channels import (
    RisIsacScenario,
    Scene,
    align_profile,
    angles_from_geometry,
    build_sensing_channels,
)
from .errors import DegenerateChannelError
from .isac import kappa

__all__ = [
    "DetectionConfig",
    "IlluminationResult",
    "maximize_illumination",
    "marcum_q1",
    "detection_probability",
    "glrt_monte_carlo",
    "trajectory_sweep",
]


@dataclasses.dataclass(frozen=True)
class DetectionConfig:
    """False-alarm rate of the energy test; its threshold is -ln(Pf)."""

    false_alarm_rate: float

    def __post_init__(self):
        if not 0.0 < self.false_alarm_rate < 1.0:
            raise ValueError("false_alarm_rate must lie in (0, 1)")

    @property
    def threshold(self) -> float:
        return -math.log(self.false_alarm_rate)


@dataclasses.dataclass(eq=False)
class IlluminationResult:
    w: np.ndarray    # precoder, ||w||^2 = P
    phi: np.ndarray  # unit-modulus RIS profile
    power: float
    iterations: int = 0  # always 0: the closed form runs no iterations


def maximize_illumination(scene: Scene) -> IlluminationResult:
    """Closed-form maximum of the illumination power |h_t^H w|^2 over (w, phi).

    The RIS map is rank one, F_t = g r^T, so ||a + F_t phi||^2 = ||a + g s||^2
    with s = r^T phi and |s| <= ||r||_1. The maximum sits at |s| = ||r||_1
    with s in phase with g^H a, and is P (||a||^2 + 2 |g^H a| ||r||_1 +
    ||g||^2 ||r||_1^2). ``channels.align_profile(a, g, r)`` reaches it; a
    blocked direct path leaves every phase of s optimal, and g = 0 leaves
    phi = ones. The precoder is w = sqrt(P) h_t / ||h_t||. The
    scene's channel is built once per call. A channel that is identically
    zero raises ``DegenerateChannelError``.
    """
    channel = RisIsacScenario.from_scene(scene)
    p_t = scene.transmit_power
    phi = align_profile(channel.a_t_term, channel.g_t, channel.r_t)
    h_t = channel.h_t(phi)
    norm = float(np.linalg.norm(h_t))
    if norm == 0.0:
        raise DegenerateChannelError(
            "sensing channel is identically zero; nothing to illuminate"
        )
    return IlluminationResult(w=math.sqrt(p_t) * h_t / norm, phi=phi, power=p_t * norm**2)


# Loader's stirlerr(k) = log(k!) - log(sqrt(2 pi k) (k/e)^k) at k = 0..15 (the
# integer entries of R's dpois table); larger k use the Stirling series below.
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)
# a = b = 1e4 (ab = 1e8) needs about 2.1e5 terms at the default tol.
_MARCUM_MAX_TERMS = 1_000_000


def _bd0_near(k, d, v, near):
    """d v + 2k (atanh(v) - v), Loader's bd0 for |v| < 0.1 (the ``near`` entries)."""
    v2 = v * v
    # The atanh series sum_j v^(2j+1) / (2j+1), to the term below 1e-16 of the first.
    terms = max(1, math.ceil(-37.0 / math.log(max(np.max(v2, where=near, initial=0.0), 1e-300))))
    acc = 1.0 / (2 * terms + 1)
    for j in range(terms - 1, 0, -1):
        acc = acc * v2 + 1.0 / (2 * j + 1)
    return acc * v2 * v * k * 2.0 + d * v


def _poisson_pmf(k, lam):
    """Poisson(lam) pmf at integers k >= 0 (float arrays of one shape), lam > 0.

    Loader's saddle-point form exp(-stirlerr(k) - bd0(k, lam)) / sqrt(2 pi k),
    with bd0(k, lam) = k log(k / lam) + lam - k from its atanh series where
    k is near lam, so no term cancels (Loader 2000, as in R's ``dpois``).
    """
    zero = k == 0.0
    k = np.where(zero, 1.0, k)  # the k = 0 entries are e^-lam, set at the end
    d = k - lam
    v = d / (k + lam)
    near = np.abs(v) < 0.1
    bd0 = np.where(near, _bd0_near(k, d, v, near), k * np.log(k / lam) - d)
    kmin = float(k.min())
    terms = 2 if kmin > 500 else 3 if kmin > 80 else 4 if kmin > 35 else 5  # Loader's cut-offs
    inv_sq = 1.0 / np.square(k)
    stirlerr = _STIRLING[terms - 1]
    for c in _STIRLING[terms - 2::-1]:
        stirlerr = stirlerr * inv_sq + c
    stirlerr = np.where(k < 16.0, _STIRLERR[np.minimum(k, 15.0).astype(np.intp)], stirlerr / k)
    pmf = np.exp(-(bd0 + stirlerr)) / np.sqrt(k * (2.0 * math.pi))
    return np.where(zero, np.exp(-lam), pmf)


def _poisson_window(lam: float, log_eps: float):
    """Integers [lo, hi] with P(N < lo) and P(N > hi) each at most e^-log_eps, N ~ Poisson(lam).

    Chernoff bounds: P(N <= lam - t) <= exp(-t^2 / (2 lam)) and
    P(N >= lam + t) <= exp(-t^2 / (2 (lam + t/3))).
    """
    lo = lam - math.sqrt(2.0 * log_eps * lam)
    hi = lam + log_eps / 3.0 + math.sqrt(log_eps * log_eps / 9.0 + 2.0 * log_eps * lam)
    return max(0, math.floor(lo)), math.ceil(hi)


def marcum_q1(a: float, b: float, tol: float = 1e-10) -> float:
    """First-order Marcum Q function as a Poisson mixture, to within tol / 10.

    A noncentral chi-square variable with 2 degrees of freedom and
    noncentrality a^2 is a central one with 2 + 2K degrees of freedom, K ~
    Poisson(a^2/2). So Q1(a, b) = sum_k Pois(k; lam) P(Pois(mu) <= k) with
    lam = a^2/2 and mu = b^2/2, i.e. Q1 = P(N_mu <= N_lam) for independent
    Poisson variables. Each pmf is Loader's saddle-point form
    exp(-stirlerr(k) - bd0(k, .)) / sqrt(2 pi k), not exp(-lam + k log lam -
    lgamma(k + 1)), which cancels catastrophically at large k.

    Window rule, with eps = tol / 40: each Poisson is summed over
    ``_poisson_window``, which drops at most eps of its mass on either side,
    so the sum loses at most 4 eps = tol / 10. Only the overlap is evaluated:
    k from max(k_lo, j_lo) and the cdf up to min(j_hi, k_hi). Before that, the
    answer is 0 or 1 whenever (b - a)^2 / 2 >= log(1 / eps), which covers every
    pair of disjoint windows: with Z standard complex Gaussian (E|Z|^2 = 2),
    Q1 = P(|a + Z| > b) <= P(|Z| > b - a) = exp(-(b - a)^2 / 2) for b > a, and
    1 - Q1 <= P(a + Re Z <= b) <= exp(-(a - b)^2 / 2) / 2 for a > b. Also
    within tol / 10: mu <= tol / 10 gives 1 (b = 0 gives exactly 1), and
    lam <= tol / 10 gives exp(-mu) (exact at a = 0).

    The windows hold at most 2 sqrt(log(1/eps)) (a + b) + O(log(1/eps))
    terms; past ``_MARCUM_MAX_TERMS`` (a close to b, ab above about 2e9 at
    the default tol) this raises RuntimeError. Negative or non-finite
    arguments, or tol outside (0, 1), raise ValueError.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or a < 0 or b < 0:
        raise ValueError("arguments must be finite and nonnegative")
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    log_eps = math.log(40.0 / tol)
    if 0.5 * (b - a) ** 2 >= log_eps:
        return 0.0 if b > a else 1.0
    lam, mu = 0.5 * a * a, 0.5 * b * b
    if mu <= 0.1 * tol:
        return 1.0
    if lam <= 0.1 * tol:
        return math.exp(-mu)
    size = 2.0 * math.sqrt(log_eps) * (a + b)
    if size > _MARCUM_MAX_TERMS:
        raise RuntimeError(
            f"Marcum Q needs about {size:.3g} terms at ab = {a * b:.3g}, "
            f"more than {_MARCUM_MAX_TERMS}"
        )
    k_lo, k_hi = _poisson_window(lam, log_eps)
    j_lo, j_hi = _poisson_window(mu, log_eps)
    # The envelope test above leaves overlapping windows: j_lo <= k_hi, k_lo <= j_hi.
    k_lo, j_hi = max(k_lo, j_lo), min(j_hi, k_hi)
    n_k = k_hi - k_lo + 1
    k = np.concatenate((np.arange(k_lo, k_hi + 1.0), np.arange(j_lo, j_hi + 1.0)))
    rates = np.full_like(k, mu)
    rates[:n_k] = lam
    pmf = _poisson_pmf(k, rates)
    cdf = np.cumsum(pmf[n_k:])  # P(N_mu <= j) for j = j_lo..j_hi, tails dropped
    at_k = np.minimum(np.arange(k_lo - j_lo, k_hi - j_lo + 1), j_hi - j_lo)
    return min(1.0, float(pmf[:n_k] @ cdf[at_k]))  # every term is >= 0


def detection_probability(snr: float, cfg: DetectionConfig) -> float:
    """Detection probability Q1(sqrt(2 SNR), sqrt(2 gamma)) for a fixed target gain.

    Pd >= Pf, so ``marcum_q1`` runs at tol = min(1e-10, 1e-6 Pf): a tiny Pf
    still gets Pd to within 1e-7 of itself, never the 0 that the absolute
    default would allow. Pf >= 1e-4 keeps the default.
    """
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    tol = max(min(1e-10, 1e-6 * cfg.false_alarm_rate), 1e-300)
    return marcum_q1(math.sqrt(2.0 * snr), math.sqrt(2.0 * cfg.threshold), tol)


@dataclasses.dataclass(frozen=True)
class GlrtResult:
    empirical_pf: float
    empirical_pd: float
    trials: int


class GlrtResults(list):
    """``GlrtResult`` rows of one ``glrt_monte_carlo`` call, from one set of ``trials`` draws.

    Gain-major: the rows of the first target gain variance, one per detection
    config in order, then those of the next. Every row shares the H0 draw, so
    ``empirical_pf`` repeats across gains, and rows of different gains share
    the H1 draw, so they are correlated.
    """

    def __init__(self, results, trials: int):
        super().__init__(results)
        self.trials = trials


# Trials per block of the GLRT's draw and threshold passes: the block scratch
# stays in cache, and memory does not grow with the number of gains.
_GLRT_BLOCK = 1 << 14


def glrt_monte_carlo(
    scene: Scene,
    w,
    phi,
    trials: int,
    cfgs: Sequence[DetectionConfig],
    seed: int = 0,
    target_gain_vars: Optional[Sequence[float]] = None,
) -> GlrtResults:
    """Monte Carlo energy test on the matched-filter output under H0 and H1.

    The filter is v = conj(a_r_hat), the normalized receive steering vector;
    the echo gain at its output is g = c (a_r^T v) with c = h_t^H w, and the
    output noise variance is sigma_out^2 = sigma_s^2 ||v||^2. Both are
    computed from v, so a misnormalized filter shows up in Pf. The energy
    |v^T y|^2 / sigma_s^2 is drawn through the identities in law of the
    module docstring:

    - H0: (sigma_out^2 / sigma_s^2) E with E ~ Exp(1).
    - H1: ((A + s x)^2 + (s y)^2) / sigma_s^2 with A = sigma_eta |g|,
      s = sigma_out / sqrt(2), x and y standard normal.

    Draw order: E for every trial, then x, then y. The channel is built
    once, and these same draws serve every target gain variance
    sigma_eta^2 of ``target_gain_vars`` (None reads as
    ``(scene.target_gain_var,)``) and every ``cfg.threshold`` of ``cfgs``
    (a lone config reads as ``[cfg]``). The result is gain-major,
    ``len(target_gain_vars) * len(cfgs)`` rows.

    E and y are streamed through blocks of ``_GLRT_BLOCK`` trials, each
    block thresholded as it is drawn. Every x precedes every y in the
    stream, so s x is drawn whole: it is the one array that spans every
    trial. Blocking changes no draw and no count.

    Common random numbers: each row is exact in law, and equals the call
    with that gain alone and the same seed, but rows are correlated across
    gains. Pd is monotone in the threshold for one draw. It is not
    guaranteed monotone in sigma_eta^2: (A + s x)^2 falls as A grows
    wherever s x < -A.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cfgs = [cfgs] if isinstance(cfgs, DetectionConfig) else cfgs
    gammas = [cfg.threshold for cfg in cfgs]
    if not gammas:
        raise ValueError("cfgs must hold at least one DetectionConfig")
    gains = (scene.target_gain_var,) if target_gain_vars is None else tuple(target_gain_vars)
    if not gains:
        raise ValueError("target_gain_vars must hold at least one variance")
    if not all(math.isfinite(g) and g >= 0.0 for g in gains):
        raise ValueError("target gain variances must be finite and nonnegative")
    rng = np.random.default_rng(seed)
    angles = angles_from_geometry(scene)
    h_t, _ = build_sensing_channels(scene, phi)
    c = np.vdot(h_t, w)  # h_t^H w, per-snapshot deterministic part
    a_r = steering_vector(scene.rx, angles.theta1)
    v = (a_r / np.linalg.norm(a_r)).conj()  # receive matched filter
    echo_amp = abs(c * (a_r @ v))  # |g|: a_r^T v scales the echo at the filter output
    # In units of sigma_s, so no square of a large noise or echo overflows.
    out_var = float(np.real(np.vdot(v, v)))  # sigma_out^2 / sigma_s^2
    s = math.sqrt(0.5 * out_var)
    amps = [math.sqrt(gain) * echo_amp / math.sqrt(scene.noise_power_sensing) for gain in gains]
    blocks = [slice(lo, min(lo + _GLRT_BLOCK, trials)) for lo in range(0, trials, _GLRT_BLOCK)]
    buf = np.empty(min(trials, _GLRT_BLOCK))
    stat = np.empty_like(buf)

    # H0: noise only.
    false_alarms = [0] * len(gammas)
    for blk in blocks:
        e = buf[:blk.stop - blk.start]
        rng.standard_exponential(out=e)
        e *= out_var
        for j, gamma in enumerate(gammas):
            false_alarms[j] += np.count_nonzero(e > gamma)
    # H1: one draw of the noise serves every gain.
    sx = rng.standard_normal(trials)
    sx *= s
    detections = [[0] * len(gammas) for _ in gains]
    for blk in blocks:
        sy_sq = buf[:blk.stop - blk.start]
        rng.standard_normal(out=sy_sq)
        sy_sq *= s
        np.square(sy_sq, out=sy_sq)  # (s y)^2
        st = stat[:len(sy_sq)]
        for amp, hits in zip(amps, detections):
            np.add(sx[blk], amp, out=st)  # (amp + s x)^2 + (s y)^2
            np.square(st, out=st)
            st += sy_sq
            for j, gamma in enumerate(gammas):
                hits[j] += np.count_nonzero(st > gamma)
    rows = [GlrtResult(n_fa / trials, n_d / trials, trials)
            for hits in detections for n_fa, n_d in zip(false_alarms, hits)]
    return GlrtResults(rows, trials)


@dataclasses.dataclass(frozen=True)
class SweepRow:
    waypoint: int
    mode: str
    power: float
    power_db: float
    crb: float


def _power_db(power: float) -> float:
    return 10.0 * math.log10(power) if power > 0 else -math.inf


def trajectory_sweep(
    scene_template: Scene,
    waypoints: Sequence,
    blocked: Sequence[bool],
):
    """Illumination power and CRB along a target trajectory for each mode.

    Each waypoint's channel a_t + g_t (r_t^T phi) is built once, and each mode
    is lit as in ``maximize_illumination``, with power P ||h_t||^2:
    "ris_aided" keeps (a_t, g_t, r_t), "ris_only" drops a_t, and
    "without_ris" drops the entries of r_t. Blocked waypoints zero a_t, the
    direct path. The CRB is ``isac.kappa`` of the receive steering
    derivative over the power; a mode with no path to the target has power
    0 and an infinite CRB.
    """
    if len(waypoints) == 0:
        raise ValueError("need at least one waypoint")
    if len(blocked) != len(waypoints):
        raise ValueError("blocked mask length must match waypoints")

    rows = []
    for idx, (pos, blk) in enumerate(zip(waypoints, blocked)):
        scene = scene_template.replace(target_position=np.asarray(pos, dtype=float))
        channel = RisIsacScenario.from_scene(scene)
        a_t, g, r_t = channel.a_t_term, channel.g_t, channel.r_t
        if blk:
            a_t = np.zeros_like(a_t)
        adot = steering_derivative(scene.rx, angles_from_geometry(scene).theta1)
        k = kappa(scene.noise_power_sensing, scene.samples, scene.target_gain_var,
                  float(np.real(np.vdot(adot, adot))))
        for mode, a, r in (("ris_aided", a_t, r_t), ("ris_only", np.zeros_like(a_t), r_t),
                           ("without_ris", a_t, r_t[:0])):
            h_t = a + g * (r @ align_profile(a, g, r))
            power = scene.transmit_power * float(np.linalg.norm(h_t)) ** 2
            crb = k / power if power > 0.0 else math.inf
            rows.append(SweepRow(idx, mode, power, _power_db(power), crb))
    return rows
