"""Target illumination, beamforming, detection, and angle-CRB metrics.

Illumination is maximized in closed form. Every scene has one RIS with
line-of-sight paths, so the RIS map F_t = g r^T is rank one and F_t phi = g s
with s = r^T phi, |s| <= ||r||_1. The best profile puts |s| at ||r||_1 in
phase with g^H a (the single-reflector passive beamformer of Wu & Zhang, IEEE
TWC 2019), and the best precoder is the matched filter of h_t = a + F_t phi.

Detection follows an energy test on the matched filtered echo; the receive
steering vector is normalized so the noise-only statistic is unit-mean
exponential and the false-alarm rate exp(-gamma) is exact.

The GLRT Monte Carlo simulates the matched-filter output, not the L_S-antenna
snapshot. With filter v = conj(a_r_hat), echo y = eta c a_r + n and white
noise n ~ CN(0, sigma_s^2 I), the output is v^T y = eta g + v^T n with echo
gain g = c (a_r^T v), and v^T n ~ CN(0, sigma_out^2), sigma_out^2 =
sigma_s^2 ||v||^2, exactly. The output is a sufficient statistic for the
energy test, and two identities in law reduce each trial to the draws the
statistic depends on:

- H0: |v^T n|^2 / sigma_s^2 = (sigma_out^2 / sigma_s^2) E with E ~ Exp(1),
  one exponential draw per trial.
- H1: the noise is circular, so the phase of eta g does not change the law of
  |eta g + v^T n|^2. A fixed-amplitude target gives ((A + s x)^2 + (s y)^2)
  / sigma_s^2 with A = sigma_eta |g|, s = sigma_out / sqrt(2) and x, y
  standard normal: no echo-phase draw. A fluctuating (circular Gaussian) eta
  is still drawn, and eta g has the law of eta |g|, so the statistic stays
  in real arithmetic.

One call draws each statistic once and thresholds it at every requested
false-alarm rate, so its Pf and Pd estimates are monotone in the threshold.

scipy is imported inside ``marcum_q1``, on the first Marcum-Q evaluation, not
at module level: importing ``risac`` or running an experiment that never
evaluates Marcum-Q loads no scipy module.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

import numpy as np

from .arrays import steering_derivative, steering_vector
from .channels import (
    RisIsacScenario,
    RisProfile,
    Scene,
    angles_from_geometry,
    build_sensing_channels,
)
from .errors import DegenerateChannelError

__all__ = [
    "Beamformer",
    "DetectionConfig",
    "IlluminationResult",
    "maximize_illumination",
    "matched_filter_snr",
    "marcum_q1",
    "detection_probability",
    "glrt_monte_carlo",
    "crb_angle",
    "trajectory_sweep",
]


@dataclasses.dataclass(eq=False)
class Beamformer:
    """Precoder weights under a transmit power budget ||w||^2 <= budget."""

    weights: np.ndarray
    budget: float = 1.0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=complex).reshape(-1)
        if not self.budget > 0:
            raise ValueError("budget must be positive")
        norm_sq = float(np.real(np.vdot(self.weights, self.weights)))
        if norm_sq > self.budget + 1e-9 * self.budget:
            raise ValueError(
                f"weights exceed the power budget: ||w||^2 = {norm_sq:.6g} > {self.budget:.6g}"
            )


@dataclasses.dataclass(frozen=True)
class DetectionConfig:
    """False-alarm rate and the matching energy-test threshold."""

    false_alarm_rate: float
    threshold: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if not 0.0 < self.false_alarm_rate < 1.0:
            raise ValueError("false_alarm_rate must lie in (0, 1)")
        gamma = -math.log(self.false_alarm_rate)
        if self.threshold is None:
            object.__setattr__(self, "threshold", gamma)
        elif abs(self.threshold - gamma) > 1e-9 * max(1.0, gamma):
            raise ValueError("threshold must equal -ln(false_alarm_rate)")


def _weights(w) -> np.ndarray:
    if isinstance(w, Beamformer):
        return w.weights
    return np.asarray(w, dtype=complex).reshape(-1)


@dataclasses.dataclass(eq=False)
class IlluminationResult:
    w: Beamformer
    phi: RisProfile
    power: float
    iterations: int = 0  # always 0: the closed form runs no iterations


def maximize_illumination(scene: Scene) -> IlluminationResult:
    """Closed-form maximum of the illumination power |h_t^H w|^2 over (w, phi).

    The RIS map is rank one, F_t = g r^T, so ||a + F_t phi||^2 = ||a + g s||^2
    with s = r^T phi and |s| <= ||r||_1. The maximum sits at |s| = ||r||_1
    with s in phase with g^H a, and is P (||a||^2 + 2 ||F_t^H a||_1 +
    (sum_i ||F_t e_i||)^2). Phase-aligning the RIS terms F_t^H g' onto the
    direct term a^H g', for the largest column g' of F_t (parallel to g),
    reaches it; a blocked direct path leaves the reference phase at 0, and a
    zero F_t leaves phi = ones. The precoder is w = sqrt(P) h_t / ||h_t||.
    The scene's channel is built once per call. A channel that is
    identically zero raises ``DegenerateChannelError``.
    """
    channel = RisIsacScenario.from_scene(scene)
    p_t = scene.transmit_power
    f_t = channel.f_t
    phi = np.ones(channel.n_ris, dtype=complex)
    if channel.n_ris:
        g = f_t[:, np.argmax(np.linalg.norm(f_t, axis=0))]
        if np.any(g):
            c0 = np.vdot(channel.a_t_term, g)
            ref = np.angle(c0) if abs(c0) > 0 else 0.0
            phi = np.exp(1j * (np.angle(f_t.conj().T @ g) - ref))
    h_t = channel.h_t(phi)
    norm = float(np.linalg.norm(h_t))
    if norm == 0.0:
        raise DegenerateChannelError(
            "sensing channel is identically zero; nothing to illuminate"
        )
    w_vec = math.sqrt(p_t) * h_t / norm
    return IlluminationResult(w=Beamformer(w_vec, p_t), phi=RisProfile(phi),
                              power=p_t * norm**2)


def matched_filter_snr(power: float, scene: Scene) -> float:
    """Output SNR of the receive matched filter: L_S * sigma_eta^2 * power / sigma_s^2."""
    if power < 0:
        raise ValueError("power must be nonnegative")
    return scene.rx.num_elements * scene.target_gain_var * power / scene.noise_power_sensing


# Near a = b the series needs about sqrt(60 ab) terms: 7.7e4 at ab = 1e8.
_MARCUM_MAX_TERMS = 1_000_000


def marcum_q1(a: float, b: float, tol: float = 1e-10) -> float:
    """First-order Marcum Q function via the modified-Bessel term series.

    Series sum_k (a/b)^k e^{-(a^2+b^2)/2} I_k(ab), accumulated with
    exponentially scaled Bessel terms for stability; the symmetry relation
    Q1(a,b) + Q1(b,a) = 1 + e^{-(a^2+b^2)/2} I_0(ab) handles a > b, where the
    direct series converges slowly. scipy (for ``special.ive``) is imported
    here, so it loads on the first Marcum-Q evaluation of the process.

    For a <= b and x = ab the terms t_k do not increase, and t_{k+1}/t_k =
    (a/b) I_{k+1}(x)/I_k(x) < rho_k = (a/b) x / (k + sqrt(x^2 + (k+2)^2)).
    The Bessel-ratio bound follows from the recurrence I_k = I_{k+2} +
    (2(k+1)/x) I_{k+1} and Amos' lower bound I_{k+2}/I_{k+1} >= x / (k+2 +
    sqrt(x^2 + (k+2)^2)). rho_k falls with k, so everything after t_k sums
    to at most t_k rho_k / (1 - rho_k).
    The series stops at the first k where t_k and that bound are both below
    tol / 10. Terms are evaluated in blocks, accumulated in order. When the
    envelope e^{-(b-a)^2/2} underflows, every term is zero and so is Q1. A
    series that needs more than ``_MARCUM_MAX_TERMS`` terms (ab above about
    1.7e10 with a close to b) raises RuntimeError.
    """
    from scipy import special

    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or a < 0 or b < 0:
        raise ValueError("arguments must be finite and nonnegative")
    if b == 0.0:
        return 1.0
    if a > b:
        sym = math.exp(-0.5 * (a - b) ** 2) * float(special.ive(0, a * b))
        return min(1.0, max(0.0, 1.0 + sym - marcum_q1(b, a, tol)))
    # a <= b: each term is (a/b)^k ive(k, ab) e^{-(b-a)^2/2}.
    envelope = math.exp(-0.5 * (b - a) ** 2)
    if a == 0.0 or envelope == 0.0:
        return envelope  # a = 0 reduces to exp(-b^2/2)
    ratio = a / b
    x = a * b
    floor = 0.1 * tol
    total = 0.0
    scale = 1.0  # ratio^k at the block's first k
    k0, size = 0, 32
    while True:
        k = np.arange(k0, k0 + size, dtype=float)
        steps = np.full(size, ratio)
        steps[0] = scale
        scales = np.cumprod(steps)  # ratio^k by repeated multiplication
        terms = scales * special.ive(k, x) * envelope
        rho = ratio * x / (k + np.sqrt(x * x + (k + 2.0) ** 2))
        # t_k rho_k / (1 - rho_k) < floor, without dividing by 1 - rho_k
        done = np.flatnonzero((terms < floor) & (terms * rho < floor * (1.0 - rho)))
        sums = np.cumsum(np.concatenate(([total], terms)))  # sums[i+1] ends at term i
        if done.size:
            return min(1.0, max(0.0, float(sums[done[0] + 1])))
        total = float(sums[-1])
        scale = float(scales[-1]) * ratio
        k0 += size
        if k0 >= _MARCUM_MAX_TERMS:
            raise RuntimeError(
                f"Marcum series needs more than {_MARCUM_MAX_TERMS} terms at ab = {x:.3g}"
            )
        size = min(2 * size, 4096)


def detection_probability(snr: float, cfg: DetectionConfig) -> float:
    """Detection probability Q1(sqrt(2 SNR), sqrt(2 gamma)) for a fixed target gain."""
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    return marcum_q1(math.sqrt(2.0 * snr), math.sqrt(2.0 * cfg.threshold))


@dataclasses.dataclass(frozen=True)
class GlrtResult:
    empirical_pf: float
    empirical_pd: float
    trials: int


class GlrtResults(list):
    """One ``GlrtResult`` per detection config, in order, from one set of ``trials`` draws."""

    def __init__(self, results, trials: int):
        super().__init__(results)
        self.trials = trials


def glrt_monte_carlo(
    scene: Scene,
    w,
    phi,
    trials: int,
    cfgs: Sequence[DetectionConfig],
    seed: int = 0,
) -> GlrtResults:
    """Monte Carlo energy test on the matched-filter output under H0 and H1.

    The filter is v = conj(a_r_hat), the normalized receive steering vector;
    the echo gain at its output is g = c (a_r^T v) with c = h_t^H w, and the
    output noise variance is sigma_out^2 = sigma_s^2 ||v||^2. Both are
    computed from v, so a misnormalized filter shows up in Pf. The energy
    |v^T y|^2 / sigma_s^2 is drawn through the identities in law of the
    module docstring:

    - H0: (sigma_out^2 / sigma_s^2) E with E ~ Exp(1).
    - H1: ((m_x + s x)^2 + (m_y + s y)^2) / sigma_s^2, s = sigma_out /
      sqrt(2), x and y standard normal. A fixed-amplitude target has
      (m_x, m_y) = (sigma_eta |g|, 0); a fluctuating one has m_x, m_y =
      sigma_eta |g| / sqrt(2) times two standard normals.

    Draw order: E; then, for a fluctuating target, the in-phase and the
    quadrature part of eta; then x, y. Every ``cfg.threshold`` of ``cfgs`` (a
    lone config reads as ``[cfg]``) is applied to these same draws.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cfgs = [cfgs] if isinstance(cfgs, DetectionConfig) else cfgs
    gammas = [cfg.threshold for cfg in cfgs]
    if not gammas:
        raise ValueError("cfgs must hold at least one DetectionConfig")
    rng = np.random.default_rng(seed)
    angles = angles_from_geometry(scene)
    h_t, _ = build_sensing_channels(scene, phi)
    c = np.vdot(h_t, _weights(w))  # h_t^H w, per-snapshot deterministic part
    a_r = steering_vector(scene.rx, angles.theta1).entries
    v = (a_r / np.linalg.norm(a_r)).conj()  # receive matched filter
    echo_amp = abs(c * (a_r @ v))  # |g|: a_r^T v scales the echo at the filter output
    noise_var = scene.noise_power_sensing
    out_var = noise_var * float(np.real(np.vdot(v, v)))  # sigma_out^2
    s = math.sqrt(0.5 * out_var)
    sigma_eta = math.sqrt(scene.target_gain_var)
    buf = np.empty(trials)

    def energy(mean, out):
        """(mean + s z)^2 with z standard normal, written into ``out``."""
        rng.standard_normal(out=out)
        out *= s
        out += mean
        return np.square(out, out=out)

    # H0: noise only.
    rng.standard_exponential(out=buf)
    buf *= out_var / noise_var
    pfs = [np.count_nonzero(buf > gamma) / trials for gamma in gammas]
    # H1: target echo plus noise.
    if scene.fluctuating_target:
        amp = sigma_eta * echo_amp / math.sqrt(2.0)
        m_x = amp * rng.standard_normal(trials)
        m_y = amp * rng.standard_normal(trials)
    else:
        m_x, m_y = sigma_eta * echo_amp, 0.0
    stat_h1 = energy(m_x, np.empty(trials))
    stat_h1 += energy(m_y, buf)
    stat_h1 /= noise_var
    pds = [np.count_nonzero(stat_h1 > gamma) / trials for gamma in gammas]
    return GlrtResults((GlrtResult(pf, pd, trials) for pf, pd in zip(pfs, pds)), trials)


def crb_angle(snr: float, samples: int, adot_norm_sq: float, l_s: int) -> float:
    """Angle-estimation CRB: L_S / (2 T ||adot||^2) * (1/SNR + 1/SNR^2).

    Zero SNR means no sensing is possible and returns infinity.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not adot_norm_sq > 0:
        raise ValueError("adot_norm_sq must be positive")
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    if snr == 0.0:
        return math.inf
    return l_s / (2.0 * samples * adot_norm_sq) * (1.0 / snr + 1.0 / snr**2)


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
    blocked: Optional[Sequence[bool]] = None,
):
    """Illumination power and CRB along a target trajectory for each mode.

    Each mode is one variant of the waypoint's scene, illuminated by
    ``maximize_illumination``: "ris_aided" is the scene itself, "ris_only"
    blocks the direct path, and "without_ris" zeroes the RIS gain. Blocked
    waypoints zero the direct path. A mode with no path to the target has
    power 0 and an infinite CRB.
    """
    if len(waypoints) == 0:
        raise ValueError("need at least one waypoint")
    if blocked is None:
        blocked = [False] * len(waypoints)
    if len(blocked) != len(waypoints):
        raise ValueError("blocked mask length must match waypoints")

    rows = []
    for idx, (pos, blk) in enumerate(zip(waypoints, blocked)):
        base = scene_template.replace(
            target_position=np.asarray(pos, dtype=float),
            blocked_direct=bool(blk) or scene_template.blocked_direct,
        )
        angles = angles_from_geometry(base)
        adot = steering_derivative(base.rx, angles.theta1)
        adot_sq = float(np.real(np.vdot(adot, adot)))
        variants = (
            ("ris_aided", base),
            ("ris_only", base.replace(blocked_direct=True)),
            ("without_ris", base.replace(ris_gain_override=0.0)),
        )
        for mode, scene in variants:
            try:
                power = maximize_illumination(scene).power
            except DegenerateChannelError:  # no path reaches the target
                power = 0.0
            snr = matched_filter_snr(power, base)
            crb = crb_angle(snr, base.samples, adot_sq, base.rx.num_elements)
            rows.append(SweepRow(idx, mode, power, _power_db(power), crb))
    return rows
