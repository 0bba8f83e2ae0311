"""Reference implementations that only the tests use.

Each is a direct transcription of its formula, independent of the fused
kernels in ``risac`` that the tests check against it.
"""

import dataclasses
import math
from typing import Callable

import numpy as np

from risac import (
    DegenerateChannelError,
    InfeasibleRateError,
    align_profile,
    angles_from_geometry,
    build_sensing_channels,
    steering_derivative,
    steering_vector,
)
from risac.channels import path_gains
from risac.ris_isac import _apply_coupling, _kappa, _zero_ris
from risac.sensing import GlrtResult


def illumination_power(h_t: np.ndarray, w) -> float:
    """Power delivered to the target: |h_t^H w|^2."""
    h_t = np.asarray(h_t, dtype=complex).reshape(-1)
    w_vec = np.asarray(w, dtype=complex).reshape(-1)
    if h_t.shape != w_vec.shape:
        raise ValueError(f"dimension mismatch: {h_t.shape} vs {w_vec.shape}")
    return float(np.abs(np.vdot(h_t, w_vec)) ** 2)


def matched_filter_beamformer(h: np.ndarray, budget: float = 1.0) -> np.ndarray:
    """Precoder sqrt(budget) * h / ||h||, the illumination-power maximizer."""
    h = np.asarray(h, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(h))
    if norm == 0.0:
        raise DegenerateChannelError("cannot match-filter a zero channel")
    return math.sqrt(budget) * h / norm


def align_ris_phases(b_target: np.ndarray, b_incident: np.ndarray) -> np.ndarray:
    """Per-element phases that make every term of b_target^H diag(phi) b_incident add in phase."""
    b_target = np.asarray(b_target, dtype=complex).reshape(-1)
    b_incident = np.asarray(b_incident, dtype=complex).reshape(-1)
    if b_target.shape != b_incident.shape:
        raise ValueError(
            f"length mismatch: {b_target.shape[0]} vs {b_incident.shape[0]}"
        )
    terms = b_target.conj() * b_incident
    return np.exp(-1j * np.angle(terms))


def ris_maps_reference(scene) -> dict:
    """The five L x N RIS maps of a scene, each formed as a matrix.

    G = beta a(omega_t) b(omega_t)^H is the BS-RIS leg and F = G diag(b) folds
    in the RIS response toward the target or the user: F_t, F_r and F_c use
    b(theta2) and h_RU, and F_t_dot and F_r_dot use bdot(theta2). This is
    how the scenario built them before it stored the dyads (g, r).
    """
    angles, gains = angles_from_geometry(scene), path_gains(scene)
    b_in = steering_vector(scene.ris, angles.omega_t)
    g_t = gains.beta_t * np.outer(steering_vector(scene.tx, angles.omega_t), b_in.conj())
    g_r = gains.beta_r * np.outer(steering_vector(scene.rx, angles.omega_t), b_in.conj())
    b = steering_vector(scene.ris, angles.theta2)
    bdot = steering_derivative(scene.ris, angles.theta2)
    h_ru = gains.gain_ru * steering_vector(scene.ris, angles.theta_user_ris)
    return {
        "f_t": g_t * b[np.newaxis, :],
        "f_r": g_r * b[np.newaxis, :],
        "f_c": g_t * h_ru[np.newaxis, :],
        "f_t_dot": g_t * bdot[np.newaxis, :],
        "f_r_dot": g_r * bdot[np.newaxis, :],
    }


def a_t_dot_term_reference(scene) -> np.ndarray:
    """alpha_t adot_t(theta1): the transmit angle derivative of the direct term."""
    theta1 = angles_from_geometry(scene).theta1
    return path_gains(scene).alpha_t * steering_derivative(scene.tx, theta1)


def rank_one_illumination_bound(a_t: np.ndarray, f_t: np.ndarray, power: float) -> float:
    """P (||a||^2 + 2 ||F^H a||_1 + (sum_i ||F e_i||)^2) over unit-modulus phi.

    The triangle inequality bounds P ||a + F phi||^2 by this value for any F.
    A rank-one F = g r^T attains it: F phi = g s with s = r^T phi, and
    s = ||r||_1 e^{j arg(g^H a)} is reachable.
    """
    return power * (
        float(np.real(np.vdot(a_t, a_t)))
        + 2.0 * float(np.sum(np.abs(f_t.conj().T @ a_t)))
        + float(np.sum(np.linalg.norm(f_t, axis=0))) ** 2
    )


def achievable_rate(h_c: np.ndarray, w, noise_comms: float) -> float:
    """Downlink rate log2(1 + |h_c^T w|^2 / sigma_c^2) in bits per use."""
    h_c = np.asarray(h_c, dtype=complex).reshape(-1)
    w_vec = np.asarray(w, dtype=complex).reshape(-1)
    if h_c.shape != w_vec.shape:
        raise ValueError(f"dimension mismatch: {h_c.shape} vs {w_vec.shape}")
    snr = float(np.abs(h_c @ w_vec) ** 2) / noise_comms
    return math.log2(1.0 + snr)


def isac_crb(w, scenario) -> float:
    """Angle CRB sigma_s^2 / (2 T sigma_eta^2 ||adot_r||^2 |a_t^T w|^2) of one beam.

    ``scenario`` carries a_t, a_r_dot, noise_sensing, target_gain_var and
    samples. This is the single-quotient form; ``risac.isac`` computes
    kappa / |a_t^T w|^2 with kappa once per run, which rounds differently.
    """
    w_vec = np.asarray(w, dtype=complex).reshape(-1)
    illum = float(np.abs(scenario.a_t @ w_vec) ** 2)
    if illum == 0.0:
        return math.inf
    return scenario.noise_sensing / (
        2.0
        * scenario.samples
        * scenario.target_gain_var
        * float(np.real(np.vdot(scenario.a_r_dot, scenario.a_r_dot)))
        * illum
    )


def trace_form_crb(b, b_dot, a, a_dot, w, noise, samples, gain_sq) -> float:
    """Single-target angle CRB in the trace form of Liu et al. (IEEE TSP 2022).

    sigma^2 tr(A^H A R) / (2T |alpha|^2 (tr(Adot^H Adot R) tr(A^H A R)
    - |tr(Adot^H A R)|^2)) for the echo alpha A(theta) x of T snapshots
    with sample covariance R, here A = b a^H, Adot = bdot a^H + b adot^H and
    R = w w^H, every matrix formed. Infinite where the bracket is not
    positive: the beam puts no power on the target.
    """
    b, b_dot, a, a_dot, w = (np.asarray(v, dtype=complex).reshape(-1, 1)
                             for v in (b, b_dot, a, a_dot, w))
    big_a = b @ a.conj().T
    big_a_dot = b_dot @ a.conj().T + b @ a_dot.conj().T
    r = w @ w.conj().T
    t_aa = np.trace(big_a.conj().T @ big_a @ r).real
    t_dd = np.trace(big_a_dot.conj().T @ big_a_dot @ r).real
    t_da = np.trace(big_a_dot.conj().T @ big_a @ r)
    bracket = t_dd * t_aa - abs(t_da) ** 2
    if not bracket > 0.0:
        return math.inf
    return noise * t_aa / (2.0 * samples * gain_sq * bracket)


def matched_filter_snr(power: float, scene) -> float:
    """Output SNR of the receive matched filter: L_S * sigma_eta^2 * power / sigma_s^2.

    The inverse of the gain calibration of ``risac.cli``'s ``detect`` runner.
    """
    if power < 0:
        raise ValueError("power must be nonnegative")
    return scene.rx.num_elements * scene.target_gain_var * power / scene.noise_power_sensing


def glrt_full_length_reference(scene, w, phi, trials, cfgs, seed, target_gain_vars):
    """``GlrtResult`` rows of ``risac.glrt_monte_carlo``, each draw and pass over every trial.

    The same statistic and draw order (E, then x, then y, all from one
    generator at ``seed``), with no blocking: full-length buffers, one pass
    per gain over all of them. Gain-major rows, as the kernel returns.
    """
    gammas = [cfg.threshold for cfg in cfgs]
    rng = np.random.default_rng(seed)
    h_t, _ = build_sensing_channels(scene, phi)
    c = np.vdot(h_t, w)
    a_r = steering_vector(scene.rx, angles_from_geometry(scene).theta1)
    v = (a_r / np.linalg.norm(a_r)).conj()
    echo_amp = abs(c * (a_r @ v))
    out_var = float(np.real(np.vdot(v, v)))
    s = math.sqrt(0.5 * out_var)
    buf = np.empty(trials)
    rng.standard_exponential(out=buf)
    buf *= out_var
    pfs = [np.count_nonzero(buf > gamma) / trials for gamma in gammas]
    sx = rng.standard_normal(trials)
    sx *= s
    rng.standard_normal(out=buf)
    buf *= s
    np.square(buf, out=buf)  # (s y)^2
    stat = np.empty(trials)
    rows = []
    for gain in target_gain_vars:
        amp = math.sqrt(gain) * echo_amp / math.sqrt(scene.noise_power_sensing)
        np.add(sx, amp, out=stat)  # (amp + s x)^2 + (s y)^2
        np.square(stat, out=stat)
        stat += buf
        rows.extend(GlrtResult(pf, np.count_nonzero(stat > gamma) / trials, trials)
                    for pf, gamma in zip(pfs, gammas))
    return rows


def make_coupled_channel(
    a_t: np.ndarray,
    rho_target: float,
    seed: int = 0,
    gain: float = 1.0,
) -> np.ndarray:
    """A comms channel with exact coupling rho to a_t, for the vector references.

    Mixes the normalized steering direction with a seeded random direction
    orthogonal to it; the norm is gain * ||a_t|| so sweeps over rho keep the
    channel strength fixed. This is the channel ``isac-tradeoff`` once drew
    for each rho; its rows now depend on the channel only through
    ||h_c||^2 = gain^2 ||a_t||^2 and |h_c^H a_t|^2 = rho^2 ||a_t||^2 ||h_c||^2.
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


def max_illumination_reference(a_t, h_c, p_t, sigma_c, rate_threshold):
    """The beam that maximizes |a_t^T w|^2 under the budget p_t and one rate floor.

    The vector form of ``risac.isac.crb_min_beamformer``'s scalar rule,
    solved on its own for each floor. If the matched filter (toward
    conj(a_t)) meets the floor, it is optimal; otherwise the optimum splits
    between the conjugated comms direction and the conjugated residual of
    a_t, with the rate constraint tight. Returns (w, branch, rate) with
    branch "unconstrained" or "boundary".
    """
    if rate_threshold < 0:
        raise ValueError("rate_threshold must be nonnegative")
    snr_floor = (2.0**rate_threshold - 1.0) * sigma_c
    hc_norm_sq = float(np.real(np.vdot(h_c, h_c)))
    if hc_norm_sq == 0.0:
        raise DegenerateChannelError("comms channel is zero")
    if snr_floor > p_t * hc_norm_sq * (1.0 + 1e-12):
        raise InfeasibleRateError(rate_threshold, math.log2(1.0 + p_t * hc_norm_sq / sigma_c))
    a_norm_sq = float(np.real(np.vdot(a_t, a_t)))
    corr = complex(np.vdot(h_c, a_t))
    if p_t * abs(corr) ** 2 >= a_norm_sq * snr_floor:
        w_vec = math.sqrt(p_t) * a_t.conj() / np.linalg.norm(a_t)
        branch = "unconstrained"
    else:
        q_hat = h_c.conj() / math.sqrt(hc_norm_sq)
        kappa = complex(np.vdot(q_hat, a_t.conj()))
        p_perp = a_t.conj() - kappa * q_hat
        perp_norm = float(np.linalg.norm(p_perp))
        lam1_mag = math.sqrt(snr_floor / hc_norm_sq)
        lam1 = lam1_mag * (kappa / abs(kappa) if abs(kappa) > 0 else 1.0)
        if perp_norm < 1e-14 * np.linalg.norm(a_t):
            w_vec = lam1 * q_hat
        else:
            lam2 = complex(math.sqrt(max(p_t - snr_floor / hc_norm_sq, 0.0)))
            w_vec = lam1 * q_hat + lam2 * (p_perp / perp_norm)
        branch = "boundary"
    return w_vec, branch, achievable_rate(h_c, w_vec, sigma_c)


def reference_mode_reference(scenario, coupling, r0_points, seed=0):
    """(R0, rate, crb) rows of the "reference" mode, built as a scaled scenario.

    This is how ``ris_isac_tradeoff`` once built the mode: scale the RIS-free
    scenario's direct gains by amp, so that its R0 = 0 CRB (which scales as
    1 / amp^4) equals the with-RIS one, and give it a comms channel of norm
    ||h_c(phi*)|| along the part of h_c(phi*) orthogonal to the sensing
    channel, or along a ``seed``-drawn orthogonal direction if that part
    vanishes. Every beam is ``max_illumination_reference``.
    """
    shaped = _apply_coupling(scenario, coupling)
    scene = shaped.scene
    p_t, sigma_c = scene.transmit_power, scene.noise_power_comms

    def crb(sc, phi, r0):
        h_t = sc.h_t(phi)
        w, _, rate = max_illumination_reference(h_t, sc.h_c(phi), p_t, sigma_c, r0)
        illum = float(np.abs(h_t @ w) ** 2)
        return rate, (_kappa(sc, phi) / illum if illum > 0.0 else math.inf)

    phi = align_profile(shaped.a_t_term, shaped.g_t, shaped.r_t)
    h_c_star = shaped.h_c(phi)
    bare, none = _zero_ris(shaped), np.zeros(0)
    amp = (crb(bare, none, 0.0)[1] / crb(shaped, phi, 0.0)[1]) ** 0.25
    ref = dataclasses.replace(
        bare, a_t_term=amp * bare.a_t_term, a_r_term=amp * bare.a_r_term,
        a_r_dot_term=amp * bare.a_r_dot_term, beta=amp * amp * bare.beta)
    h_t_ref = ref.h_t(none)
    h_t_hat = h_t_ref / np.linalg.norm(h_t_ref)
    resid = h_c_star - np.vdot(h_t_hat, h_c_star) * h_t_hat
    if np.linalg.norm(resid) < 1e-12 * np.linalg.norm(h_c_star):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(h_t_ref.size) + 1j * rng.standard_normal(h_t_ref.size)
        resid = z - np.vdot(h_t_hat, z) * h_t_hat
    ref = dataclasses.replace(ref, h_bu=np.linalg.norm(h_c_star) * resid / np.linalg.norm(resid))
    max_rate = math.log2(1.0 + p_t * float(np.real(np.vdot(h_c_star, h_c_star))) / sigma_c)
    return [(r0, *crb(ref, none, r0)) for r0 in np.linspace(0.0, 0.97 * max_rate, r0_points)]


def coupling_coefficient(h_c: np.ndarray, a_t: np.ndarray) -> float:
    """Normalized correlation |h_c^H a_t| / (||h_c|| ||a_t||) in [0, 1]."""
    h_c = np.asarray(h_c, dtype=complex).reshape(-1)
    a_t = np.asarray(a_t, dtype=complex).reshape(-1)
    nh, na = np.linalg.norm(h_c), np.linalg.norm(a_t)
    if nh == 0.0 or na == 0.0:
        raise DegenerateChannelError("coupling undefined for zero vectors")
    return float(np.abs(np.vdot(h_c, a_t)) / (nh * na))


def finite_difference_gradient(
    objective: Callable[[np.ndarray], float],
    x: np.ndarray,
    step: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient; complex inputs get the Wirtinger d/dconj(x).

    For real x this is the plain central difference. For complex x the real
    and imaginary parts are perturbed independently and combined as
    (df/dRe + j df/dIm) / 2, matching the conjugate-gradient convention used
    by the analytic gradients in ``risac``.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    x = np.asarray(x)
    flat = x.ravel()
    is_complex = np.iscomplexobj(x)
    out = np.zeros(flat.shape, dtype=complex if is_complex else float)

    def df(delta):
        return (objective((flat + delta).reshape(x.shape))
                - objective((flat - delta).reshape(x.shape))) / (2.0 * step)

    for k in range(flat.size):
        delta = np.zeros(flat.shape, dtype=flat.dtype)
        delta[k] = step
        d_re = df(delta)
        if is_complex:
            delta[k] = 1j * step
            d_im = df(delta)
            out[k] = 0.5 * (d_re + 1j * d_im)
        else:
            out[k] = d_re
    return out.reshape(x.shape)


def _steering_matrix(geom, angles) -> np.ndarray:
    return np.column_stack([steering_vector(geom, a) for a in angles])


def radiated_power(r_cov: np.ndarray, geom, angle: float) -> float:
    """Power a^H(angle) R a(angle) radiated toward one direction."""
    a = steering_vector(geom, angle)
    return float(np.real(np.vdot(a, r_cov @ a)))


def beampattern_loss(r_cov: np.ndarray, tau: float, spec, geom) -> float:
    """Mismatch plus average squared cross-correlation loss of a covariance."""
    steer = _steering_matrix(geom, spec.grid)
    pattern = np.real(np.einsum("id,ij,jd->d", steer.conj(), r_cov, steer))
    loss = float(np.mean((pattern - tau * spec.desired) ** 2))
    k = spec.target_angles.size
    if k >= 2:
        steer_t = _steering_matrix(geom, spec.target_angles)
        cross = steer_t.conj().T @ r_cov @ steer_t
        idx = np.triu_indices(k, 1)
        loss += 2.0 / (k * k - k) * float(
            np.sum(np.abs(cross[idx]) ** 2)
        )
    return loss


def sinr_given_channel(h_c: np.ndarray, comm: np.ndarray, r_cov: np.ndarray,
                       noise_comms: float) -> float:
    """User SINR h^H c c^H h / (h^H (R - c c^H) h + sigma_c^2)."""
    h_c = np.asarray(h_c, dtype=complex).reshape(-1)
    num = float(np.abs(np.vdot(h_c, comm)) ** 2)
    total = float(np.real(np.vdot(h_c, r_cov @ h_c)))
    interference = max(total - num, 0.0)
    return num / (interference + noise_comms)

