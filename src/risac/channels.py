"""Scene geometry and deterministic channel construction.

Every channel is line of sight. Path-gain magnitudes follow a power-law
amplitude d^(-exponent/2) with unit gain at 1 m (the reference constant is a
declared convention, so absolute dB levels are qualitative). Gain phases are
drawn once per scene from a seeded generator, so rebuilding channels for the
same scene is bit-for-bit reproducible.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from .arrays import UlaGeometry, steering_vector
from .errors import DegenerateGeometryError

__all__ = [
    "Scene",
    "SceneAngles",
    "RisProfile",
    "ChannelSet",
    "angles_from_geometry",
    "pathloss_amplitude",
    "path_gains",
    "build_ris_dyads",
    "build_sensing_channels",
    "build_comms_channel",
    "build_channel_set",
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
    carrier_frequency: float = 3e9
    noise_power_sensing: float = 1e-9
    noise_power_comms: float = 1e-9
    target_gain_var: float = 1.0
    samples: int = 64
    transmit_power: float = 1.0
    seed: int = 0
    blocked_direct: bool = False
    blocked_user_path: bool = False
    fluctuating_target: bool = True
    ris_incidence: str = "literal"  # "literal": RIS-side angle of the dyads is omega_t
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
        if self.ris_incidence not in ("literal", "geometric"):
            raise ValueError("ris_incidence must be 'literal' or 'geometric'")

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


@dataclasses.dataclass(eq=False)
class ChannelSet:
    """All channels realized for one scene and one RIS profile."""

    h_t: np.ndarray
    h_r: np.ndarray
    h_c: np.ndarray
    g_t: np.ndarray
    g_r: np.ndarray
    h_bu: np.ndarray
    h_ru: np.ndarray
    b_target: np.ndarray
    alpha_t: complex
    alpha_r: complex
    beta_t: complex
    beta_r: complex


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


def ris_side_angle(scene: Scene, angles: SceneAngles) -> float:
    if scene.ris_incidence == "literal":
        # The dyads reuse omega_t on the RIS side exactly as printed.
        return angles.omega_t
    return _bearing(scene.ris_position, scene.bs_position)


def build_ris_dyads(scene: Scene, gains: Optional[PathGains] = None):
    """Rank-one Tx-RIS and Rx-RIS channel matrices (L x N)."""
    angles = angles_from_geometry(scene)
    gains = gains or path_gains(scene)
    n = scene.n_ris
    if n == 0:
        return (
            np.zeros((scene.tx.num_elements, 0), dtype=complex),
            np.zeros((scene.rx.num_elements, 0), dtype=complex),
        )
    ris_angle = ris_side_angle(scene, angles)
    a_t = steering_vector(scene.tx, angles.omega_t).entries
    a_r = steering_vector(scene.rx, angles.omega_t).entries
    b = steering_vector(scene.ris, ris_angle).entries
    g_t = gains.beta_t * np.outer(a_t, b.conj())
    g_r = gains.beta_r * np.outer(a_r, b.conj())
    return g_t, g_r


def build_sensing_channels(scene: Scene, phi, gains: Optional[PathGains] = None):
    """Composed Tx-target and Rx-target channels for an RIS profile."""
    angles = angles_from_geometry(scene)
    gains = gains or path_gains(scene)
    phi_vec = _phi_vector(phi)
    if phi_vec.size != scene.n_ris:
        raise ValueError(
            f"profile length {phi_vec.size} does not match N={scene.n_ris}"
        )
    g_t, g_r = build_ris_dyads(scene, gains)
    a_t = steering_vector(scene.tx, angles.theta1).entries
    a_r = steering_vector(scene.rx, angles.theta1).entries
    if scene.n_ris:
        b_target = steering_vector(scene.ris, angles.theta2).entries
        ris_t = g_t @ (phi_vec * b_target)
        ris_r = g_r @ (phi_vec * b_target)
    else:
        ris_t = np.zeros(scene.tx.num_elements, dtype=complex)
        ris_r = np.zeros(scene.rx.num_elements, dtype=complex)
    h_t = gains.alpha_t * a_t + ris_t
    h_r = gains.alpha_r * a_r + ris_r
    return h_t, h_r


def build_comms_channel(scene: Scene, phi, gains: Optional[PathGains] = None) -> np.ndarray:
    """BS-user channel: direct LoS plus the RIS-reflected path."""
    angles = angles_from_geometry(scene)
    gains = gains or path_gains(scene)
    phi_vec = _phi_vector(phi)
    if phi_vec.size != scene.n_ris:
        raise ValueError(
            f"profile length {phi_vec.size} does not match N={scene.n_ris}"
        )
    h_bu = gains.gain_bu * steering_vector(scene.tx, angles.theta_user_bs).entries
    if scene.n_ris:
        g_t, _ = build_ris_dyads(scene, gains)
        h_ru = gains.gain_ru * steering_vector(scene.ris, angles.theta_user_ris).entries
        return h_bu + g_t @ (phi_vec * h_ru)
    return h_bu


def build_channel_set(scene: Scene, phi) -> ChannelSet:
    """All channels for one scene/profile pair in a single immutable bundle."""
    angles = angles_from_geometry(scene)
    gains = path_gains(scene)
    g_t, g_r = build_ris_dyads(scene, gains)
    h_t, h_r = build_sensing_channels(scene, phi, gains)
    h_c = build_comms_channel(scene, phi, gains)
    h_bu = gains.gain_bu * steering_vector(scene.tx, angles.theta_user_bs).entries
    if scene.n_ris:
        h_ru = gains.gain_ru * steering_vector(scene.ris, angles.theta_user_ris).entries
        b_target = steering_vector(scene.ris, angles.theta2).entries
    else:
        h_ru = np.zeros(0, dtype=complex)
        b_target = np.zeros(0, dtype=complex)
    return ChannelSet(
        h_t=h_t,
        h_r=h_r,
        h_c=h_c,
        g_t=g_t,
        g_r=g_r,
        h_bu=h_bu,
        h_ru=h_ru,
        b_target=b_target,
        alpha_t=gains.alpha_t,
        alpha_r=gains.alpha_r,
        beta_t=gains.beta_t,
        beta_r=gains.beta_r,
    )
