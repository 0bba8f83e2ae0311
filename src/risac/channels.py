"""Scene geometry and the one channel model h(phi) = a + g (r^T phi).

Every channel is line of sight. Path-gain magnitudes follow a power-law
amplitude d^(-exponent/2) with unit gain at 1 m (the reference constant is a
declared convention, so absolute dB levels are qualitative). Gain phases are
drawn once per build from a generator at the scene seed, so rebuilding
channels for the same scene is bit-for-bit reproducible.

``target_channels`` is the one place a channel is composed: one batched
build of the ``RisIsacScenario`` of each of K target positions of one
scene, with ``RisIsacScenario.from_scene`` as its one-target case. Each
channel is affine in the RIS profile phi: a direct term a (path gain times a
steering vector) plus F phi, where the RIS map F = g r^T is the rank-one dyad
of the one reflected path. The array-side vector g = beta a(omega_t) carries
the BS-RIS gain and steering; the RIS-side vector r = conj(b(omega_t)) * b
folds the incident steering into the RIS response b toward the target
(sensing) or the user (comms). The scenario stores the dyads (g, r), not F,
so each h_t, h_r or h_c costs O(L + N): one dot product r^T phi and one
scaled vector. The matrices F are formed on each read, and no ``src`` code
reads them: the benchmark's micro timings (through the coupling metric of
``ris_isac``) and the tests do. Sensing, ISAC and dual-waveform code all read
their channels from the scenario, and ``sense-sweep`` reads the scenarios of
its whole trajectory from one build. Every experiment that lights an RIS
takes its profile from ``align_profile(a, g, r)``, the closed-form maximizer
of ||a + g (r^T phi)||: ``sense-sweep`` for the target, ``ris-isac-tradeoff``
for the target on the coupling-shaped scene, and ``beampattern`` for the
user.
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
    "target_channels",
    "build_sensing_channels",
    "align_profile",
]


def _position(p, name: str) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.shape != (2,):
        raise ValueError(f"positions are 2-D, got shape {arr.shape}")
    if not all(map(math.isfinite, arr.tolist())):
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


def _sight(scene: Scene, origin: str, point: str, points=None) -> tuple:
    """Bearings and distances, two lists, from the ``origin`` position to each row of ``points``.

    ``points`` are positions of ``point`` (by default the one the scene
    holds). The first row that coincides with the origin raises
    ``DegenerateGeometryError``, naming both. Broadside of every array points
    along +x, so a bearing is the angle of the displacement measured from the
    x axis. It is ``math.atan2`` per row: numpy's vectorized arctan2 rounds
    differently on some CPUs.
    """
    if points is None:
        points = getattr(scene, point)[np.newaxis]
    delta = points - getattr(scene, origin)
    dist = np.hypot(delta[:, 0], delta[:, 1])
    if not dist.all():
        raise DegenerateGeometryError(
            f"{origin} and {point} coincide at {points[np.argmin(dist)].tolist()}")
    return [math.atan2(y, x) for x, y in delta.tolist()], dist.tolist()


# The pairs of SceneAngles, in field order: the target's two, then the fixed three.
_PAIRS = (("bs_position", "target_position"), ("ris_position", "target_position"),
          ("bs_position", "ris_position"), ("bs_position", "user_position"),
          ("ris_position", "user_position"))


def angles_from_geometry(scene: Scene) -> SceneAngles:
    """Bearings of target/RIS/user as seen from the BS and RIS broadsides."""
    return SceneAngles(*(_sight(scene, origin, point)[0][0] for origin, point in _PAIRS))


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


def _path_gains(scene: Scene, d_bt, d_rt, d_br: float, d_bu: float, d_ru: float) -> tuple:
    """Complex path gains, with the target at distances d_bt from the BS and d_rt from the RIS.

    Returns (alpha_t, alpha_r, beta_t, beta_r, gain_bu, gain_ru). The four
    target-leg gains are lists with one entry per target; the two user-leg
    gains are scalars. Six phases are drawn from one generator at the scene
    seed, one per gain in that order, so every target and every build gets
    the same phases. Each amplitude is its own ``pathloss_amplitude`` call:
    numpy's vectorized power rounds differently on some CPUs. With one
    target the amplitudes are checked in the order d_bt, d_br, d_rt, d_bu,
    d_ru.
    """
    psi = np.exp(1j * np.random.default_rng(scene.seed).uniform(0.0, 2.0 * np.pi, size=6))
    if scene.direct_gain_override is not None:
        alpha_t = alpha_r = [complex(scene.direct_gain_override)] * len(d_bt)
    else:
        amps = [pathloss_amplitude(d, scene.pathloss_exp_direct) for d in d_bt]
        alpha_t = [amp * psi[0] for amp in amps]
        alpha_r = [amp * psi[1] for amp in amps]
    if scene.ris_gain_override is not None:
        beta_t = beta_r = [complex(scene.ris_gain_override)] * len(d_rt)
    else:
        amp_br = pathloss_amplitude(d_br, scene.pathloss_exp_ris)
        amps = [amp_br * pathloss_amplitude(d, scene.pathloss_exp_ris) for d in d_rt]
        beta_t = [amp * psi[2] for amp in amps]
        beta_r = [amp * psi[3] for amp in amps]
    gain_bu = pathloss_amplitude(d_bu, scene.pathloss_exp_direct) * psi[4]
    if scene.blocked_user_path:
        gain_bu = 0.0 + 0.0j
    gain_ru = pathloss_amplitude(d_ru, scene.pathloss_exp_ris) * psi[5]
    return alpha_t, alpha_r, beta_t, beta_r, gain_bu, gain_ru


def _rows(columns: np.ndarray) -> np.ndarray:
    """The (K, L) copy, row k contiguous, of an L x K matrix of steering columns."""
    return np.ascontiguousarray(columns.T)


def _target_channels(scene: Scene, targets) -> list:
    targets = np.array(targets, dtype=float)  # a copy: each moved scene holds one of its rows
    if targets.ndim != 2 or targets.shape[1] != 2 or not np.isfinite(targets).all():
        raise ValueError("target positions must be finite 2-D points")
    # In the order of angles_from_geometry: the target's pairs, then the fixed three.
    theta1, d_bt = _sight(scene, "bs_position", "target_position", targets)
    theta2, d_rt = _sight(scene, "ris_position", "target_position", targets)
    (omega_t,), (d_br,) = _sight(scene, "bs_position", "ris_position")
    (theta_user_bs,), (d_bu,) = _sight(scene, "bs_position", "user_position")
    (theta_user_ris,), (d_ru,) = _sight(scene, "ris_position", "user_position")
    alpha_t, alpha_r, beta_t, beta_r, gain_bu, gain_ru = _path_gains(
        scene, d_bt, d_rt, d_br, d_bu, d_ru)

    alpha_r_col = np.array(alpha_r, dtype=complex)[:, np.newaxis]
    a_r_dot = _rows(steering_derivative(scene.rx, theta1))
    k = len(targets)
    if scene.n_ris:
        # The BS-RIS leg is beta a(omega_t) b(omega_t)^H. The RIS side
        # reuses omega_t, the bearing of the RIS at the BS, as the source
        # model prints it.
        g_t = np.multiply.outer(beta_t, steering_vector(scene.tx, omega_t))
        g_r = np.multiply.outer(beta_r, steering_vector(scene.rx, omega_t))
        b_in_conj = steering_vector(scene.ris, omega_t).conj()
        r_c = b_in_conj * (gain_ru * steering_vector(scene.ris, theta_user_ris))
        r_t = b_in_conj * _rows(steering_vector(scene.ris, theta2))
    else:
        g_t = np.zeros((k, scene.tx.num_elements), dtype=complex)
        g_r = np.zeros((k, scene.rx.num_elements), dtype=complex)
        r_t, r_c = np.zeros((k, 0), dtype=complex), np.zeros(0, dtype=complex)
    a_t_term = np.array(alpha_t, dtype=complex)[:, np.newaxis] * _rows(
        steering_vector(scene.tx, theta1))
    a_r_term = alpha_r_col * _rows(steering_vector(scene.rx, theta1))
    a_r_dot_term = alpha_r_col * a_r_dot
    h_bu = gain_bu * steering_vector(scene.tx, theta_user_bs)
    own = scene.target_position.tobytes()
    return [RisIsacScenario(
        scene=scene if target.tobytes() == own else scene.replace(target_position=target),
        a_t_term=a_t_term[i], a_r_term=a_r_term[i], h_bu=h_bu, g_t=g_t[i], g_r=g_r[i],
        g_c=g_t[i], r_t=r_t[i], r_c=r_c, a_r_dot=a_r_dot[i], a_r_dot_term=a_r_dot_term[i],
        beta=alpha_r[i] * alpha_t[i]) for i, target in enumerate(targets)]


def target_channels(scene: Scene, targets) -> list:
    """The ``RisIsacScenario`` of ``scene`` with its target at each of the K ``targets``.

    Scenario k holds its own scene, ``scene`` with the target at target k
    (``ris_isac`` reads the target through it); a target at the scene's own
    position, bit for bit, keeps ``scene`` itself, so
    ``RisIsacScenario.from_scene``, the one-target case, keeps the caller's
    scene. The six gain phases are drawn once. Per target only the
    BS-target and RIS-target bearings, distances and gains are formed; the
    BS-RIS and user pairs are formed once. Each steering matrix is one
    ``steering_vector`` call over the K bearings, and each scenario's
    vectors are contiguous rows of it: BLAS rounds a strided vector
    differently, so a row carries the bits of a one-target build.

    Every pair is checked, with the typed errors of a one-target build. This
    build meets faults check by check over all targets at once; a fault makes
    it rebuild the targets one at a time, so the error raised is the first
    one that building each target in turn would meet.
    """
    try:
        return _target_channels(scene, targets)
    except ValueError:  # DegenerateGeometryError is one
        for position in targets:
            one = scene.replace(target_position=position)
            _target_channels(one, one.target_position[np.newaxis])
        raise


@dataclasses.dataclass(eq=False)
class RisIsacScenario:
    """Channel pieces of one scene: every channel is h(phi) = a + g (r^T phi).

    Each RIS map is the rank-one dyad F = g r^T of one reflected path: g is
    array-side, the BS-RIS gain times the array's steering toward the RIS,
    and r is RIS-side, conj(b(omega_t)) times the RIS response toward the
    target or the user. The F matrices are derived from (g, r) on each read.

    The direct terms carry their complex path gains. Of the angle
    derivatives only the receive one is stored, twice: a_r_dot_term, with
    its path gain, is the column the angle CRB of ``ris_isac`` projects (the
    FIM reference forms the others from a_t_term and r_t,
    ``arrays.steering_log_derivative``); a_r_dot, with unit gain, is what
    ``sensing.trajectory_sweep`` reads for its kappa, until that sweep takes
    the path-gain form of ``ris_isac``.
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
    a_r_dot: np.ndarray       # adot_r(theta1)
    a_r_dot_term: np.ndarray  # alpha_r * adot_r(theta1)
    beta: complex             # alpha_r * alpha_t

    @classmethod
    def from_scene(cls, scene: Scene) -> "RisIsacScenario":
        """The scene's channels: the one-target case of ``target_channels``."""
        return target_channels(scene, scene.target_position[np.newaxis])[0]

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
