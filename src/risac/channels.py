"""Scene geometry and the one channel model h(phi) = a + F phi.

Every channel is line of sight. Path-gain magnitudes follow a power-law
amplitude d^(-exponent/2) with unit gain at 1 m (the reference constant is a
declared convention, so absolute dB levels are qualitative). Gain phases are
drawn once per scene from a seeded generator, so rebuilding channels for the
same scene is bit-for-bit reproducible.

``RisIsacScenario.from_scene`` is the one place a channel is composed. Each
channel is affine in the RIS profile phi: a direct term a (path gain times a
steering vector) plus F phi, where F = G diag(b) folds the rank-one BS-RIS
dyad G = beta a(omega_t) b(omega_t)^H into the RIS response b toward the
target (sensing) or the user (comms). Angles, gains and dyads are computed
once per scene; each h_t, h_r or h_c is then one matrix-vector product.
Sensing, ISAC and dual-waveform code all read their channels from it, and
take every RIS profile from ``align_profile``, the closed-form maximizer of
||a + F phi|| for a rank-one F.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from .arrays import UlaGeometry, steering_derivative, steering_vector
from .errors import DegenerateChannelError, DegenerateGeometryError
from .optim import _unit_modulus

__all__ = [
    "Scene",
    "SceneAngles",
    "RisProfile",
    "RisIsacScenario",
    "angles_from_geometry",
    "pathloss_amplitude",
    "path_gains",
    "build_sensing_channels",
    "align_profile",
]


def _position(p, name: str) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.shape != (2,):
        raise ValueError(f"positions are 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} coordinates must be finite, got {arr.tolist()}")
    return arr


@dataclasses.dataclass(eq=False)
class Scene:
    """Positions, array geometries, gains, and noise levels for one setup.

    ``direct_gain_override`` / ``ris_gain_override`` replace the pathloss-and-
    random-phase gains with exact complex values (both legs get the same
    value); they exist so tests and calibration sweeps can pin gains.
    """

    bs_position: np.ndarray
    ris_position: np.ndarray
    target_position: np.ndarray
    user_position: np.ndarray
    tx: UlaGeometry
    rx: UlaGeometry
    ris: Optional[UlaGeometry]
    pathloss_exp_direct: float = 2.5
    pathloss_exp_ris: float = 2.2
    noise_power_sensing: float = 1e-9
    noise_power_comms: float = 1e-9
    target_gain_var: float = 1.0
    samples: int = 64
    transmit_power: float = 1.0
    seed: int = 0
    blocked_direct: bool = False
    blocked_user_path: bool = False
    fluctuating_target: bool = True
    direct_gain_override: Optional[complex] = None
    ris_gain_override: Optional[complex] = None

    def __post_init__(self):
        self.bs_position = _position(self.bs_position, "bs_position")
        self.ris_position = _position(self.ris_position, "ris_position")
        self.target_position = _position(self.target_position, "target_position")
        self.user_position = _position(self.user_position, "user_position")
        for power, name in [
            (self.noise_power_sensing, "noise_power_sensing"),
            (self.noise_power_comms, "noise_power_comms"),
            (self.transmit_power, "transmit_power"),
        ]:
            if not (math.isfinite(power) and power > 0):
                raise ValueError(f"{name} must be finite and positive")
        if not (math.isfinite(self.target_gain_var) and self.target_gain_var >= 0):
            raise ValueError("target_gain_var must be finite and nonnegative")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")

    @property
    def n_ris(self) -> int:
        return self.ris.num_elements if self.ris is not None else 0

    def replace(self, **changes) -> "Scene":
        return dataclasses.replace(self, **changes)


@dataclasses.dataclass(frozen=True)
class SceneAngles:
    theta1: float        # target bearing at the BS arrays
    theta2: float        # target bearing at the RIS array
    omega_t: float       # RIS bearing at the BS arrays (Tx-RIS path direction)
    theta_user_bs: float
    theta_user_ris: float


@dataclasses.dataclass(eq=False)
class RisProfile:
    """Unit-modulus phase vector of length N."""

    phases: np.ndarray

    def __post_init__(self):
        self.phases = np.asarray(self.phases, dtype=complex).reshape(-1)
        if self.phases.size and np.max(np.abs(np.abs(self.phases) - 1.0)) > 1e-8:
            raise ValueError("RIS profile entries must be unit modulus")

    @classmethod
    def from_angles(cls, angles) -> "RisProfile":
        return cls(np.exp(1j * np.asarray(angles, dtype=float)))

    @classmethod
    def ones(cls, n: int) -> "RisProfile":
        return cls(np.ones(n, dtype=complex))

    @property
    def n(self) -> int:
        return self.phases.size


def _bearing(origin: np.ndarray, point: np.ndarray) -> float:
    delta = point - origin
    dist = float(np.hypot(*delta))
    if dist == 0.0:
        raise DegenerateGeometryError("coincident positions have no bearing")
    # Broadside of every array points along +x, so the bearing is the angle
    # of the displacement measured from the x axis.
    return math.atan2(delta[1], delta[0])


def angles_from_geometry(scene: Scene) -> SceneAngles:
    """Bearings of target/RIS/user as seen from the BS and RIS broadsides."""
    return SceneAngles(
        theta1=_bearing(scene.bs_position, scene.target_position),
        theta2=_bearing(scene.ris_position, scene.target_position),
        omega_t=_bearing(scene.bs_position, scene.ris_position),
        theta_user_bs=_bearing(scene.bs_position, scene.user_position),
        theta_user_ris=_bearing(scene.ris_position, scene.user_position),
    )


def pathloss_amplitude(distance: float, exponent: float) -> float:
    """Amplitude gain d^(-exponent/2): power decays as d^(-exponent)."""
    if not distance > 0:
        raise ValueError(f"distance must be positive, got {distance!r}")
    return float(distance) ** (-exponent / 2.0)


def _distance(a: np.ndarray, b: np.ndarray) -> float:
    d = float(np.hypot(*(a - b)))
    if d == 0.0:
        raise DegenerateGeometryError("coincident positions have zero distance")
    return d


@dataclasses.dataclass(frozen=True)
class PathGains:
    alpha_t: complex
    alpha_r: complex
    beta_t: complex
    beta_r: complex
    gain_bu: complex
    gain_ru: complex


def path_gains(scene: Scene) -> PathGains:
    """Complex path gains for the scene; phases are seeded per scene.

    The phase draw order is fixed, so any subset of gains is reproducible no
    matter which builder asks for them.
    """
    rng = np.random.default_rng(scene.seed)
    psi = rng.uniform(0.0, 2.0 * np.pi, size=6)

    d_bt = _distance(scene.bs_position, scene.target_position)
    d_br = _distance(scene.bs_position, scene.ris_position)
    d_rt = _distance(scene.ris_position, scene.target_position)
    d_bu = _distance(scene.bs_position, scene.user_position)
    d_ru = _distance(scene.ris_position, scene.user_position)

    if scene.direct_gain_override is not None:
        alpha_t = alpha_r = complex(scene.direct_gain_override)
    else:
        amp = pathloss_amplitude(d_bt, scene.pathloss_exp_direct)
        alpha_t = amp * np.exp(1j * psi[0])
        alpha_r = amp * np.exp(1j * psi[1])
    if scene.ris_gain_override is not None:
        beta_t = beta_r = complex(scene.ris_gain_override)
    else:
        amp_r = pathloss_amplitude(d_br, scene.pathloss_exp_ris) * pathloss_amplitude(
            d_rt, scene.pathloss_exp_ris
        )
        beta_t = amp_r * np.exp(1j * psi[2])
        beta_r = amp_r * np.exp(1j * psi[3])
    if scene.blocked_direct:
        alpha_t = alpha_r = 0.0 + 0.0j

    gain_bu = pathloss_amplitude(d_bu, scene.pathloss_exp_direct) * np.exp(1j * psi[4])
    if scene.blocked_user_path:
        gain_bu = 0.0 + 0.0j
    gain_ru = pathloss_amplitude(d_ru, scene.pathloss_exp_ris) * np.exp(1j * psi[5])
    return PathGains(alpha_t, alpha_r, beta_t, beta_r, gain_bu, gain_ru)


def _phi_vector(phi) -> np.ndarray:
    if isinstance(phi, RisProfile):
        return phi.phases
    return np.asarray(phi, dtype=complex).reshape(-1)


@dataclasses.dataclass(eq=False)
class RisIsacScenario:
    """Channel pieces of one scene: every channel is h(phi) = a + F phi.

    The direct terms carry their complex gains, so the coupling objective of
    ``ris_isac`` is a positive multiple of ||H^H h_c||^2 and minimizing it
    maximizes the gain-weighted channel correlation.
    """

    scene: Scene
    a_t_term: np.ndarray      # alpha_t * a_t(theta1)
    a_r_term: np.ndarray      # alpha_r * a_r(theta1)
    h_bu: np.ndarray
    f_t: np.ndarray           # G_t diag(b(theta2))
    f_r: np.ndarray           # G_r diag(b(theta2))
    f_c: np.ndarray           # G_t diag(h_RU)
    a_t_dot_term: np.ndarray  # alpha_t * adot_t(theta1)
    a_r_dot_term: np.ndarray  # alpha_r * adot_r(theta1)
    f_t_dot: np.ndarray       # G_t diag(bdot(theta2))
    f_r_dot: np.ndarray       # G_r diag(bdot(theta2))
    beta: complex             # alpha_r * alpha_t

    @classmethod
    def from_scene(cls, scene: Scene) -> "RisIsacScenario":
        angles = angles_from_geometry(scene)
        gains = path_gains(scene)
        a_t = steering_vector(scene.tx, angles.theta1)
        a_r = steering_vector(scene.rx, angles.theta1)
        adot_t = steering_derivative(scene.tx, angles.theta1)
        adot_r = steering_derivative(scene.rx, angles.theta1)
        h_bu = gains.gain_bu * steering_vector(scene.tx, angles.theta_user_bs)
        if scene.n_ris:
            # Rank-one dyads G = beta a(omega_t) b(omega_t)^H. The RIS side
            # reuses omega_t, the bearing of the RIS at the BS, as the source
            # model prints it.
            a_t_ris = steering_vector(scene.tx, angles.omega_t)
            a_r_ris = steering_vector(scene.rx, angles.omega_t)
            b_in = steering_vector(scene.ris, angles.omega_t)
            g_t = gains.beta_t * np.outer(a_t_ris, b_in.conj())
            g_r = gains.beta_r * np.outer(a_r_ris, b_in.conj())
            b = steering_vector(scene.ris, angles.theta2)
            bdot = steering_derivative(scene.ris, angles.theta2)
            h_ru = gains.gain_ru * steering_vector(scene.ris, angles.theta_user_ris)
            f_t = g_t * b[np.newaxis, :]
            f_r = g_r * b[np.newaxis, :]
            f_c = g_t * h_ru[np.newaxis, :]
            f_t_dot = g_t * bdot[np.newaxis, :]
            f_r_dot = g_r * bdot[np.newaxis, :]
        else:
            f_t = np.zeros((scene.tx.num_elements, 0), dtype=complex)
            f_r = np.zeros((scene.rx.num_elements, 0), dtype=complex)
            f_c = f_t.copy()
            f_t_dot = f_t.copy()
            f_r_dot = f_r.copy()
        return cls(
            scene=scene,
            a_t_term=gains.alpha_t * a_t,
            a_r_term=gains.alpha_r * a_r,
            h_bu=h_bu,
            f_t=f_t,
            f_r=f_r,
            f_c=f_c,
            a_t_dot_term=gains.alpha_t * adot_t,
            a_r_dot_term=gains.alpha_r * adot_r,
            f_t_dot=f_t_dot,
            f_r_dot=f_r_dot,
            beta=gains.alpha_r * gains.alpha_t,
        )

    @property
    def n_ris(self) -> int:
        return self.f_t.shape[1]

    def h_t(self, phi) -> np.ndarray:
        return self.a_t_term + self.f_t @ _phi_vector(phi)

    def h_r(self, phi) -> np.ndarray:
        return self.a_r_term + self.f_r @ _phi_vector(phi)

    def h_c(self, phi) -> np.ndarray:
        return self.h_bu + self.f_c @ _phi_vector(phi)

    def sensing_matrix(self, phi) -> np.ndarray:
        """H = h_r h_t^T / beta evaluated at the scene's true angles."""
        if self.beta == 0:
            raise DegenerateChannelError(
                "H(theta) is normalized by the direct gains; beta must be nonzero"
            )
        return np.outer(self.h_r(phi), self.h_t(phi)) / self.beta


def build_sensing_channels(scene: Scene, phi):
    """Tx-target and Rx-target channels h_t(phi) and h_r(phi) of a scene."""
    channel = RisIsacScenario.from_scene(scene)
    return channel.h_t(phi), channel.h_r(phi)


def align_profile(a: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Unit-modulus phi maximizing ||a + f phi|| for a rank-one f = g r^T.

    It puts s = r^T phi at |s| = ||r||_1 in phase with g^H a (Wu & Zhang, IEEE
    TWC 2019): phi = f^H a / |f^H a| entrywise, since f^H a = conj(r) g^H a.
    If f^H a = 0 every phase of s is optimal, and phi aligns the column sums
    (sum_k g_k) r of f instead, or its largest row g_k r where sum_k g_k
    cancels; f = 0 gives ones.
    """
    z = f.conj().T @ a
    if np.any(z):
        return _unit_modulus(z)
    chain = f.sum(axis=0)
    if np.sum(np.abs(chain)) < 1e-8 * np.sum(np.abs(f)):  # |sum_k g_k| < 1e-8 ||g||_1
        chain = f[np.argmax(np.sum(np.abs(f), axis=1))]
    return np.exp(-1j * np.angle(np.where(np.abs(chain) > 0, chain, 1.0)))
