"""Reference implementations that only the tests use.

Each is a direct transcription of its formula, independent of the fused
kernels in ``risac`` that the tests check against it.
"""

from typing import Callable

import numpy as np

from risac import DegenerateChannelError, steering_vector


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
    return np.column_stack([steering_vector(geom, a).entries for a in angles])


def radiated_power(r_cov: np.ndarray, geom, angle: float) -> float:
    """Power a^H(angle) R a(angle) radiated toward one direction."""
    a = steering_vector(geom, angle).entries
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
