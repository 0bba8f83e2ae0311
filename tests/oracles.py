"""Reference implementations that only the tests use.

Each is a direct transcription of its formula, independent of the fused
kernels in ``risac`` that the tests check against it.
"""

import math
from typing import Callable

import numpy as np

from risac import Beamformer, DegenerateChannelError, RisProfile, steering_vector


def illumination_power(h_t: np.ndarray, w) -> float:
    """Power delivered to the target: |h_t^H w|^2."""
    h_t = np.asarray(h_t, dtype=complex).reshape(-1)
    w_vec = w.weights if isinstance(w, Beamformer) else np.asarray(w, dtype=complex).reshape(-1)
    if h_t.shape != w_vec.shape:
        raise ValueError(f"dimension mismatch: {h_t.shape} vs {w_vec.shape}")
    return float(np.abs(np.vdot(h_t, w_vec)) ** 2)


def matched_filter_beamformer(h: np.ndarray, budget: float = 1.0) -> Beamformer:
    """Precoder sqrt(budget) * h / ||h||, the illumination-power maximizer."""
    h = np.asarray(h, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(h))
    if norm == 0.0:
        raise DegenerateChannelError("cannot match-filter a zero channel")
    return Beamformer(math.sqrt(budget) * h / norm, budget)


def align_ris_phases(b_target: np.ndarray, b_incident: np.ndarray) -> RisProfile:
    """Per-element phases that make every term of b_target^H diag(phi) b_incident add in phase."""
    b_target = np.asarray(b_target, dtype=complex).reshape(-1)
    b_incident = np.asarray(b_incident, dtype=complex).reshape(-1)
    if b_target.shape != b_incident.shape:
        raise ValueError(
            f"length mismatch: {b_target.shape[0]} vs {b_incident.shape[0]}"
        )
    terms = b_target.conj() * b_incident
    return RisProfile(np.exp(-1j * np.angle(terms)))


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


def rank_one_coupling_grid(a_t, f_t, a_r, f_r, h_bu, f_c, radii=201, angles=720):
    """Coupling objective on a polar grid of s = r^T phi, for a rank-one [F_t; F_r; F_c].

    When the stacked RIS maps are sigma_1 g r^T, each F phi is a multiple of
    s = r^T phi and the objective -||a_t + g_t s||^2 |(a_r + g_r s)^H (h_bu +
    g_c s)|^2 is a closed form in s. Unit-modulus phi reach only |s| <=
    ||r||_1, so the grid covers that disk, rim included. Returns (grid
    minimum, ||r||_1, sigma_2 / sigma_1 of the stack).
    """
    stack = np.vstack([f_t, f_r, f_c])
    u, sig, vh = np.linalg.svd(stack, full_matrices=False)
    ratio = sig[1] / sig[0] if sig.size > 1 else 0.0
    g = sig[0] * u[:, 0]
    l_t, l_s = len(a_t), len(a_r)
    g_t, g_r, g_c = g[:l_t], g[l_t:l_t + l_s], g[l_t + l_s:]
    r_norm1 = float(np.sum(np.abs(vh[0])))
    s = np.outer(np.linspace(0.0, r_norm1, radii),
                 np.exp(1j * np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False)))
    norm_u_sq = (np.vdot(a_t, a_t).real + 2.0 * np.real(np.conj(s) * np.vdot(g_t, a_t))
                 + np.abs(s) ** 2 * np.vdot(g_t, g_t).real)
    inner = (np.vdot(a_r, h_bu) + s * np.vdot(a_r, g_c) + np.conj(s) * np.vdot(g_r, h_bu)
             + np.abs(s) ** 2 * np.vdot(g_r, g_c))
    return float(np.min(-norm_u_sq * np.abs(inner) ** 2)), r_norm1, float(ratio)
