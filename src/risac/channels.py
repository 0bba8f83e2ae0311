"""Scene geometry and the one channel model h(phi) = a + g (r^T phi).

Every channel is line of sight. Path-gain magnitudes follow a power-law
amplitude d^(-exponent/2) with unit gain at 1 m (the reference constant is a
declared convention, so absolute dB levels are qualitative). Gain phases are
drawn once per scene from a seeded generator, so rebuilding channels for the
same scene is bit-for-bit reproducible.

``RisIsacScenario.from_scene`` is the one place a channel is composed. Each
channel is affine in the RIS profile phi: a direct term a (path gain times a
steering vector) plus F phi, where the RIS map F = g r^T is the rank-one dyad
of the one reflected path. The array-side vector g = beta a(omega_t) carries
the BS-RIS gain and steering; the RIS-side vector r = conj(b(omega_t)) * b
folds the incident steering into the RIS response b toward the target
(sensing) or the user (comms). The scenario stores the dyads (g, r), not F,
so each h_t, h_r or h_c costs O(L + N): one dot product r^T phi and one
scaled vector. The matrices F are formed on each read, and no ``src`` code
reads them: the benchmark's micro timings (through the coupling metric of
``ris_isac``) and the tests do. Sensing, ISAC and dual-waveform code all
read their channels from the scenario. Every experiment that lights an RIS
takes its profile from ``align_profile(a, g, r)``, the closed-form
maximizer of ||a + g (r^T phi)||: ``sense-sweep`` for the target,
``ris-isac-tradeoff`` for the target on the coupling-shaped scene, and
``beampattern`` for the user.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from .arrays import UlaGeometry, steering_derivative, steering_vector
from .errors import DegenerateGeometryError

__all__ = [
    "Scene",
    "SceneAngles",
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
    value). No experiment sets them: they are seams through which tests pin
    gains, such as a blocked direct path (``direct_gain_override=0.0``).
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
    blocked_user_path: bool = False
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


def _displacement(scene: Scene, origin: str, point: str) -> tuple:
    """(point - origin, its length) of two named positions; coincident ones raise, naming both."""
    delta = getattr(scene, point) - getattr(scene, origin)
    dist = float(np.hypot(*delta))
    if dist == 0.0:
        raise DegenerateGeometryError(
            f"{origin} and {point} coincide at {getattr(scene, point).tolist()}")
    return delta, dist


def _bearing(scene: Scene, origin: str, point: str) -> float:
    delta = _displacement(scene, origin, point)[0]
    # Broadside of every array points along +x, so the bearing is the angle
    # of the displacement measured from the x axis.
    return math.atan2(delta[1], delta[0])


def angles_from_geometry(scene: Scene) -> SceneAngles:
    """Bearings of target/RIS/user as seen from the BS and RIS broadsides."""
    return SceneAngles(
        theta1=_bearing(scene, "bs_position", "target_position"),
        theta2=_bearing(scene, "ris_position", "target_position"),
        omega_t=_bearing(scene, "bs_position", "ris_position"),
        theta_user_bs=_bearing(scene, "bs_position", "user_position"),
        theta_user_ris=_bearing(scene, "ris_position", "user_position"),
    )


def pathloss_amplitude(distance: float, exponent: float) -> float:
    """Amplitude gain d^(-exponent/2): power decays as d^(-exponent).

    Above 1e64 it raises ``DegenerateGeometryError``: its products with the
    array gains and powers would leave the float range.
    """
    if not distance > 0:
        raise ValueError(f"distance must be positive, got {distance!r}")
    if -0.5 * exponent * math.log10(distance) > 64.0:
        raise DegenerateGeometryError(
            f"a {distance!r} m path with exponent {exponent!r} has a path-loss amplitude "
            "above 1e64")
    return float(distance) ** (-exponent / 2.0)


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

    d_bt = _displacement(scene, "bs_position", "target_position")[1]
    d_br = _displacement(scene, "bs_position", "ris_position")[1]
    d_rt = _displacement(scene, "ris_position", "target_position")[1]
    d_bu = _displacement(scene, "bs_position", "user_position")[1]
    d_ru = _displacement(scene, "ris_position", "user_position")[1]

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

    gain_bu = pathloss_amplitude(d_bu, scene.pathloss_exp_direct) * np.exp(1j * psi[4])
    if scene.blocked_user_path:
        gain_bu = 0.0 + 0.0j
    gain_ru = pathloss_amplitude(d_ru, scene.pathloss_exp_ris) * np.exp(1j * psi[5])
    return PathGains(alpha_t, alpha_r, beta_t, beta_r, gain_bu, gain_ru)


@dataclasses.dataclass(eq=False)
class RisIsacScenario:
    """Channel pieces of one scene: every channel is h(phi) = a + g (r^T phi).

    Each RIS map is the rank-one dyad F = g r^T of one reflected path: g is
    array-side, the BS-RIS gain times the array's steering toward the RIS,
    and r is RIS-side, conj(b(omega_t)) times the RIS response toward the
    target or the user. The F matrices are derived from (g, r) on each read.

    The direct terms carry their complex path gains. Of the angle
    derivatives only the receive one, a_r_dot_term, is stored: it is the
    column the angle CRB of ``ris_isac`` projects; the FIM reference forms
    the others from a_t_term and r_t (``arrays.steering_log_derivative``).
    """

    scene: Scene
    a_t_term: np.ndarray      # alpha_t * a_t(theta1)
    a_r_term: np.ndarray      # alpha_r * a_r(theta1)
    h_bu: np.ndarray
    g_t: np.ndarray           # beta_t * a_t(omega_t)
    g_r: np.ndarray           # beta_r * a_r(omega_t)
    g_c: np.ndarray           # g_t, until strong coupling rescales it
    r_t: np.ndarray           # conj(b(omega_t)) * b(theta2)
    r_c: np.ndarray           # conj(b(omega_t)) * h_RU
    a_r_dot_term: np.ndarray  # alpha_r * adot_r(theta1)
    beta: complex             # alpha_r * alpha_t

    @classmethod
    def from_scene(cls, scene: Scene) -> "RisIsacScenario":
        angles = angles_from_geometry(scene)
        gains = path_gains(scene)
        a_t = steering_vector(scene.tx, angles.theta1)
        a_r = steering_vector(scene.rx, angles.theta1)
        adot_r = steering_derivative(scene.rx, angles.theta1)
        h_bu = gains.gain_bu * steering_vector(scene.tx, angles.theta_user_bs)
        if scene.n_ris:
            # The BS-RIS leg is beta a(omega_t) b(omega_t)^H. The RIS side
            # reuses omega_t, the bearing of the RIS at the BS, as the source
            # model prints it.
            g_t = gains.beta_t * steering_vector(scene.tx, angles.omega_t)
            g_r = gains.beta_r * steering_vector(scene.rx, angles.omega_t)
            b_in_conj = steering_vector(scene.ris, angles.omega_t).conj()
            h_ru = gains.gain_ru * steering_vector(scene.ris, angles.theta_user_ris)
            r_t = b_in_conj * steering_vector(scene.ris, angles.theta2)
            r_c = b_in_conj * h_ru
        else:
            g_t = np.zeros(scene.tx.num_elements, dtype=complex)
            g_r = np.zeros(scene.rx.num_elements, dtype=complex)
            r_t = r_c = np.zeros(0, dtype=complex)
        return cls(
            scene=scene,
            a_t_term=gains.alpha_t * a_t,
            a_r_term=gains.alpha_r * a_r,
            h_bu=h_bu,
            g_t=g_t,
            g_r=g_r,
            g_c=g_t,
            r_t=r_t,
            r_c=r_c,
            a_r_dot_term=gains.alpha_r * adot_r,
            beta=gains.alpha_r * gains.alpha_t,
        )

    @property
    def n_ris(self) -> int:
        return self.r_t.size

    def h_t(self, phi) -> np.ndarray:
        return self.a_t_term + self.g_t * (self.r_t @ phi)

    def h_r(self, phi) -> np.ndarray:
        return self.a_r_term + self.g_r * (self.r_t @ phi)

    def h_c(self, phi) -> np.ndarray:
        return self.h_bu + self.g_c * (self.r_c @ phi)

    # The L x N RIS maps g r^T, formed on each read.
    @property
    def f_t(self) -> np.ndarray:
        return np.outer(self.g_t, self.r_t)

    @property
    def f_r(self) -> np.ndarray:
        return np.outer(self.g_r, self.r_t)

    @property
    def f_c(self) -> np.ndarray:
        return np.outer(self.g_c, self.r_c)


def build_sensing_channels(scene: Scene, phi):
    """Tx-target and Rx-target channels h_t(phi) and h_r(phi) of a scene."""
    channel = RisIsacScenario.from_scene(scene)
    return channel.h_t(phi), channel.h_r(phi)


def _unit_modulus(z: np.ndarray) -> np.ndarray:
    """z / |z| entrywise; an exact zero has no phase and maps to 1."""
    z = np.asarray(z, dtype=complex)
    mags = np.abs(z)
    zero = mags < 1e-300
    if zero.any():
        z, mags = np.where(zero, 1.0, z), np.where(zero, 1.0, mags)
    return z / mags


def align_profile(a: np.ndarray, g: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Unit-modulus phi maximizing ||a + g (r^T phi)||.

    It puts s = r^T phi at |s| = ||r||_1 in phase with c = g^H a (Wu & Zhang,
    IEEE TWC 2019): phi = conj(r) c / |conj(r) c| entrywise. If g^H a = 0
    every phase of s is optimal, and c = conj(1^T g) picks one, or c = 1
    where the sum of g is zero; g = 0 makes every phi optimal and gives
    ones, as do the entries where r is zero.
    """
    c = np.vdot(g, a)
    if c == 0:
        c = np.conj(np.sum(g))
        if c == 0 and np.any(g):
            c = 1.0
    return _unit_modulus(r.conj() * c)
