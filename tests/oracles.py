"""Reference implementations that only the tests use.

Each is a direct transcription of its formula, independent of the fused
kernels in ``risac`` that the tests check against it.
"""

import math
from typing import Callable

import numpy as np

from risac import (
    DegenerateChannelError,
    InfeasibleRateError,
    angles_from_geometry,
    steering_derivative,
    steering_vector,
)
from risac.channels import path_gains


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
    """Angle CRB sigma_s^2 L_S / (2 T sigma_eta^2 ||adot_r||^2 |a_t^T w|^2) of one beam.

    ``scenario`` carries a_t, a_r, a_r_dot, noise_sensing, target_gain_var
    and samples. This is the single-quotient form; ``risac.isac`` computes
    kappa / |a_t^T w|^2 with kappa once per run, which rounds differently.
    """
    w_vec = np.asarray(w, dtype=complex).reshape(-1)
    illum = float(np.abs(scenario.a_t @ w_vec) ** 2)
    if illum == 0.0:
        return math.inf
    l_s = scenario.a_r.shape[0]
    return scenario.noise_sensing * l_s / (
        2.0
        * scenario.samples
        * scenario.target_gain_var
        * float(np.real(np.vdot(scenario.a_r_dot, scenario.a_r_dot)))
        * illum
    )


def max_illumination_reference(a_t, h_c, p_t, sigma_c, rate_threshold):
    """One rate floor of ``risac.isac.max_illumination_beamformer``, solved on its own.

    The per-floor form the sweep replaced, kept as its bit-for-bit reference:
    every channel term is rebuilt for the floor. Returns (w, branch, rate)
    with branch "unconstrained" or "boundary".
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
    """Weighted mismatch plus average squared cross-correlation loss of a covariance."""
    steer = _steering_matrix(geom, spec.grid)
    pattern = np.real(np.einsum("id,ij,jd->d", steer.conj(), r_cov, steer))
    loss = spec.alpha_mismatch * float(np.mean((pattern - tau * spec.desired) ** 2))
    k = spec.target_angles.size
    if k >= 2 and spec.alpha_crosscorr > 0:
        steer_t = _steering_matrix(geom, spec.target_angles)
        cross = steer_t.conj().T @ r_cov @ steer_t
        idx = np.triu_indices(k, 1)
        loss += spec.alpha_crosscorr * 2.0 / (k * k - k) * float(
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

