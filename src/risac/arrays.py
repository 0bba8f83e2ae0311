"""Uniform linear array steering vectors and their angle derivatives.

All arrays use centered element indices m_k = k - (L-1)/2 so that the
derivative vector is exactly orthogonal to the steering vector for any
element count, which the angle-CRB expressions rely on. Broadside is 0 rad
and angles grow toward the positive array axis.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

__all__ = ["UlaGeometry", "steering_vector", "steering_log_derivative", "steering_derivative"]


@dataclasses.dataclass(frozen=True)
class UlaGeometry:
    """Uniform linear array of ``num_elements`` with spacing in wavelengths."""

    num_elements: int
    spacing_wavelengths: float = 0.5

    def __post_init__(self):
        if int(self.num_elements) != self.num_elements or self.num_elements < 1:
            raise ValueError("num_elements must be an integer >= 1")
        if not self.spacing_wavelengths > 0:
            raise ValueError("spacing_wavelengths must be positive")

    @property
    def element_offsets(self) -> np.ndarray:
        # m_k = k - (L-1)/2; symmetric around zero, so sum(m_k) = 0.
        return np.arange(self.num_elements) - (self.num_elements - 1) / 2.0


def _check_angle(angle) -> np.ndarray:
    angles = np.asarray(angle, dtype=float)
    if not all(map(math.isfinite, angles.flat)):
        raise ValueError(f"angles must be finite, got {angles.tolist()!r}")
    return angles


def steering_vector(geom: UlaGeometry, angle) -> np.ndarray:
    """Steering vector exp(j*2*pi*spacing*m_k*sin(angle)); unit-modulus entries, norm^2 = L.

    An array of K angles gives the L x K matrix whose column k is the
    steering vector at angle k.
    """
    angles = _check_angle(angle)
    offsets = 2.0 * np.pi * geom.spacing_wavelengths * geom.element_offsets
    return np.exp(1j * np.multiply.outer(offsets, np.sin(angles)))


def steering_log_derivative(geom: UlaGeometry, angle) -> np.ndarray:
    """Entrywise d/d(angle) of log a(angle): j*2*pi*spacing*cos(angle)*m_k.

    So adot = this * a, and a vector v * a(angle) for any v (a path gain, or
    the conjugated incident steering of an RIS) has derivative this * (v * a).
    An array of K angles gives the L x K matrix whose column k is the
    log-derivative at angle k.
    """
    angles = _check_angle(angle)
    return np.multiply.outer(
        1j * (2.0 * np.pi * geom.spacing_wavelengths) * geom.element_offsets, np.cos(angles))


def steering_derivative(geom: UlaGeometry, angle) -> np.ndarray:
    """Elementwise derivative of the steering vector with respect to angle.

    With centered indices the result is exactly orthogonal (Hermitian sense)
    to the steering vector at the same angle. An array of K angles gives the
    L x K matrix whose column k is the derivative at angle k.
    """
    return steering_log_derivative(geom, angle) * steering_vector(geom, angle)
