"""RIS-aided ISAC: angle CRB and the rate/CRB trade-off with and without an RIS.

Every channel comes from ``channels.RisIsacScenario``, h(phi) = a + g (r^T phi)
for the rank-one RIS map F = g r^T. The "with" mode takes the RIS profile
phi* = ``channels.align_profile(a_t, g_t, r_t)`` of the coupling-shaped
scenario, conj(r_t) g_t^H a_t / |conj(r_t) g_t^H a_t| entrywise: it puts
r_t^T phi at its largest modulus ||r_t||_1, phase-aligned with the direct
path, the profile that maximizes the illumination ||h_t||^2 (Wu & Zhang,
IEEE TWC 2019). It does not depend on the config seed. The transmit
beamformer then minimizes the angle CRB under a rate floor in closed form.
The nuisance gain beta contributes the FIM columns h_r s and i h_r s (s =
h_t^T w), so eliminating it projects h_r out of the angle columns; the
transmit-derivative terms lie along h_r and drop out. What remains is
CRB(theta1) = kappa(phi) / |h_t(phi)^T w|^2, with kappa set by the receive
side alone, so minimizing the CRB maximizes the illumination |h_t^T w|^2.
kappa is ``isac.kappa`` of sigma_eta^2 and ||P_perp adot_r-term||^2 (the
path gains sit in h_r and adot_r-term), with P_perp orthogonal to h_r, from
theta1's column alone: the nuisance angle theta2's column is zero at every
profile a run sweeps (``_kappa``). No LAPACK routine runs; the first such
call in a process adds over 1 MB of resident memory.
``ris_isac_tradeoff`` runs the whole experiment: one coupling shaping, one
aligned profile, and kappa and one closed-form sweep per channel; the sweep
is ``isac.crb_min_beamformer``, the one ``isac-tradeoff`` runs too, fed the
scalars ||h_t||^2, ||h_c||^2 and |h_c^H h_t|^2. The "reference" mode builds
no channel: it is that sweep at zero coupling, scaled to the with-RIS
max rate and R0 = 0 CRB (``ris_isac_tradeoff``).
``fim_theta`` builds the full 4 x 4 FIM instead and is the independent
reference the kappa form is tested against.

Why phi* and no descent: a Riemannian descent of the coupling proxy
||h_t||^2 |h_r^H h_c|^2 (``coupling_objective``) started from phi* ends with
a higher CRB than phi* at every rate floor, at config seeds 0-9. Its CRB
over phi*'s is 1.0045-1.0098 (weak) and 1.0029-1.0103 (strong) at the
default scene, and 1.14-1.23 (weak) and 1.0002-1.0008 (strong) at the
scaled one (n_ris = 256, l_t = l_s = 32): raising |h_r^H h_c| is not what
the CRB at a floor rewards. A grid over the profiles
unit_modulus(conj(r_t + mu r_c)) e^{j psi} finds none better than phi* at
R0 = 0 by more than 6e-6 relative (scaled scene, weak, seed 0). The
coupling metric stays as a measure of how the RIS turns the sensing and
comms subspaces; no experiment evaluates it.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .channels import RisIsacScenario, align_profile
from .errors import DegenerateChannelError
from .isac import _max_rate, crb_min_beamformer, kappa

__all__ = [
    "FimResult",
    "coupling_objective",
    "coupling_gradient",
    "fim_theta",
    "ris_isac_tradeoff",
]


def _coupling(phi, a_t, f_t, a_r, f_r, h_bu, f_c, gradient=True):
    """Value and conjugate gradient of the coupling metric from one channel evaluation.

    With ``gradient=False`` the gradient slot is None.
    """
    if len(a_r) != len(h_bu):
        raise ValueError(
            "the coupling metric pairs the receive channel with the user "
            f"channel, so L_S must equal L_T (got {len(a_r)} vs {len(h_bu)})"
        )
    u = a_t + f_t @ phi
    v = a_r + f_r @ phi
    c = h_bu + f_c @ phi
    s = np.vdot(v, c)
    norm_u_sq = float(np.vdot(u, u).real)
    abs_s_sq = float(np.abs(s) ** 2)
    value = -norm_u_sq * abs_s_sq
    if not gradient:
        return value, None
    grad = abs_s_sq * (f_t.conj().T @ u)
    grad += norm_u_sq * (s.conjugate() * (f_r.conj().T @ c) + s * (f_c.conj().T @ v))
    return value, -grad


def coupling_objective(
    phi,
    a_t: np.ndarray,
    f_t: np.ndarray,
    a_r: np.ndarray,
    f_r: np.ndarray,
    h_bu: np.ndarray,
    f_c: np.ndarray,
) -> float:
    """Negative subspace-coupling metric -||a_t + F_t phi||^2 |(a_r + F_r phi)^H (h_bu + F_c phi)|^2.

    Defined for arbitrary (not necessarily unit-modulus) phi so that gradient
    checks can probe it off the constraint set. Lower is better. The inner
    product between the receive and user channels requires equal transmit and
    receive array sizes, as in the source model.
    """
    return _coupling(phi, a_t, f_t, a_r, f_r, h_bu, f_c, gradient=False)[0]


def coupling_gradient(
    phi,
    a_t: np.ndarray,
    f_t: np.ndarray,
    a_r: np.ndarray,
    f_r: np.ndarray,
    h_bu: np.ndarray,
    f_c: np.ndarray,
) -> np.ndarray:
    """Conjugate (Wirtinger) gradient of ``coupling_objective`` in phi.

    Product rule over the two factors: d||u||^2/dphi* = F_t^H u and
    d|s|^2/dphi* = conj(s) F_r^H c + s F_c^H v for s = v^H c.
    """
    return _coupling(phi, a_t, f_t, a_r, f_r, h_bu, f_c)[1]


@dataclasses.dataclass(eq=False)
class FimResult:
    fim: np.ndarray
    crb_theta1: float
    condition_number: float
    singular: bool


def _fim_maps(scenario: RisIsacScenario, phi) -> list:
    """Per-parameter linear maps C_i with D columns C_i @ w.

    Parameters are (theta1, theta2, Re beta, Im beta); the theta columns use
    beta * dH/dtheta, which the direct gains cancel.
    """
    h_t = scenario.h_t(phi)
    h_r = scenario.h_r(phi)
    dh_t_1 = scenario.a_t_dot_term
    dh_r_1 = scenario.a_r_dot_term
    s_dot = scenario.r_t_dot @ phi
    dh_t_2 = scenario.g_t * s_dot
    dh_r_2 = scenario.g_r * s_dot
    h_mat = scenario.sensing_matrix(phi)
    c1 = np.outer(dh_r_1, h_t) + np.outer(h_r, dh_t_1)
    c2 = np.outer(dh_r_2, h_t) + np.outer(h_r, dh_t_2)
    return [c1, c2, h_mat, 1j * h_mat]


def fim_theta(scenario: RisIsacScenario, phi, w) -> FimResult:
    """Fisher information over (theta1, theta2, Re beta, Im beta) and CRB(theta1).

    Deterministic-signal Gaussian model with T unit-power samples:
    FIM = (2T sigma_eta^2 / sigma_s^2) Re(D^H D). A parameter whose FIM
    diagonal is exactly zero (for example theta2 without an RIS) is dropped
    before inversion; any other parameter is kept however weak it is, since
    treating it as known would make the CRB optimistic. A genuinely singular
    information matrix yields an infinite CRB (see ``_angle_crb``). This is
    the reference for a general profile. At the aligned profile of a run the
    theta2 entries are rounding noise (see ``_kappa``), so ``crb_theta1`` is
    not a reference there; the tests compare kappa with the inverse of the
    (theta1, Re beta, Im beta) block of ``fim`` instead.
    """
    d = np.column_stack([m @ w for m in _fim_maps(scenario, phi)])
    scene = scenario.scene
    scale = 2.0 * scene.samples * scene.target_gain_var / scene.noise_power_sensing
    fim = scale * np.real(d.conj().T @ d)
    fim = 0.5 * (fim + fim.T)
    keep = np.diag(fim) > 0.0
    keep[0] = True
    crb, cond, singular = _angle_crb(fim[np.ix_(keep, keep)])
    return FimResult(fim, crb, cond, singular)


def _angle_crb(info: np.ndarray):
    """[info^-1]_11 of a symmetric information matrix: (crb, condition number, singular).

    The condition number is that of the unit-diagonal (Jacobi-scaled)
    matrix, since parameters in different units (the beta entries carry
    1/|beta|^2) make the raw one meaningless. A nonpositive diagonal or a
    scaled condition number above 1e14 gives an infinite CRB. Any size, by
    LAPACK (an SVD and an inversion); ``fim_theta`` uses it.
    """
    diag = np.diag(info)
    if not np.all(diag > 0.0):
        return math.inf, math.inf, True
    root = np.sqrt(diag)
    unit = info / np.outer(root, root)
    cond = float(np.linalg.cond(unit))
    if not np.isfinite(cond) or cond > 1e14:
        return math.inf, cond, True
    return float(np.linalg.inv(unit)[0, 0]) / float(info[0, 0]), cond, False


def _kappa(scenario: RisIsacScenario, phi: np.ndarray) -> float:
    """kappa(phi) of CRB(theta1) = kappa / |h_t^T w|^2 (module docstring); inf if uninformed.

    theta2 is left out, with no tolerance: a run passes an RIS-free channel
    or phi* = ``align_profile(a_t_term, g_t, r_t)``, conj(r_t) e^{j psi}
    entrywise (ones if g_t = 0, and then g_r = 0 too). As rdot_t =
    j 2 pi d cos(theta2) m * r_t for the centred offsets m and every |r_t,i|
    is 1, theta2's column g_r (rdot_t^T phi*) is zero, and a parameter with
    no information and no coupling to theta1 leaves CRB(theta1) unchanged
    (Stoica & Marzetta, IEEE TSP 2001). Its rounding residue, up to
    6.2e-17 ||rdot_t||_1 at config seeds 0-9, has a noise phase; keeping
    it moved kappa by up to 8.6e-4 relative.
    """
    h_r = scenario.h_r(phi)
    adot = scenario.a_r_dot_term
    adot_perp = adot - h_r * (np.vdot(h_r, adot) / np.vdot(h_r, h_r))
    scene = scenario.scene
    return kappa(scene.noise_power_sensing, scene.samples, scene.target_gain_var,
                 float(np.vdot(adot_perp, adot_perp).real))


def _norm_sq(v: np.ndarray) -> float:
    return float(np.real(np.vdot(v, v)))


def _crb_sweep(scenario: RisIsacScenario, phi, rate_thresholds):
    """(rates, crbs) of the CRB(theta1)-minimizing beamformer, one per rate floor.

    CRB(theta1) = kappa(phi) / |h_t(phi)^T w|^2 with kappa independent of w,
    so this is ``crb_min_beamformer`` for a_t = h_t(phi) and h_c = h_c(phi).
    It raises ``InfeasibleRateError`` if any floor is above the max rate.
    The CRB is infinite at zero illumination or singular angle information.
    """
    if scenario.beta == 0:
        raise DegenerateChannelError(
            "beta = 0: no direct path, so the echo holds no theta1 information"
        )
    scene = scenario.scene
    h_t, h_c = scenario.h_t(phi), scenario.h_c(phi)
    return crb_min_beamformer(_norm_sq(h_t), _norm_sq(h_c), abs(complex(np.vdot(h_c, h_t))) ** 2,
                              _kappa(scenario, phi), scene.transmit_power,
                              scene.noise_power_comms, rate_thresholds)


@dataclasses.dataclass(frozen=True)
class RisIsacRow:
    mode: str
    coupling: str
    rate_threshold: float
    rate: float
    crb: float


@dataclasses.dataclass(eq=False)
class RisIsacTradeoff:
    rows: list  # RisIsacRow, mode by mode in the requested order
    max_rate: dict  # bits per use, by mode


def _apply_coupling(scenario: RisIsacScenario, coupling: str) -> RisIsacScenario:
    """Shape the user channel: exact alignment for 'strong', orthogonal for 'weak'.

    Strong coupling makes the user channel a scaled copy of the sensing
    channel for every RIS profile (correlation pinned to one, natural norm
    preserved); weak coupling removes the aligned component of the direct
    user channel at the reference all-ones profile.
    """
    if coupling not in ("strong", "weak"):
        raise ValueError("coupling must be 'strong' or 'weak'")
    phi0 = np.ones(scenario.n_ris, dtype=complex)
    h_t = scenario.h_t(phi0)
    if coupling == "strong":
        scale = np.linalg.norm(scenario.h_c(phi0)) / np.linalg.norm(h_t)
        return dataclasses.replace(scenario, h_bu=scale * scenario.a_t_term,
                                   g_c=scale * scenario.g_t, r_c=scenario.r_t)
    h_t_hat = h_t / np.linalg.norm(h_t)
    h_bu = scenario.h_bu
    return dataclasses.replace(scenario, h_bu=h_bu - np.vdot(h_t_hat, h_bu) * h_t_hat)


def _zero_ris(scenario: RisIsacScenario) -> RisIsacScenario:
    none = np.zeros(0, dtype=complex)
    return dataclasses.replace(scenario, r_t=none, r_c=none, r_t_dot=none)


def ris_isac_tradeoff(
    scenario: RisIsacScenario,
    coupling: str,
    ris_modes: Sequence[str] = ("with", "without", "reference"),
    r0_points: int = 25,
) -> RisIsacTradeoff:
    """Rate/CRB trade-off rows of each RIS mode under a coupling regime.

    Modes: "with" sweeps the beamformer at the aligned RIS profile phi* of
    the coupling-shaped scenario (module docstring); "without" zeroes the
    RIS paths; "reference" is the gain-matched zero-coupling baseline whose
    max rate and min CRB (at R0 = 0) equal the with-RIS run's, isolating the
    subspace-rotation part of the gain. Its comms channel h_c* = h_c(phi*) is
    moved orthogonal to a sensing channel whose R0 = 0 CRB is the with-RIS
    one, crb_with(0), so its rows are ``crb_min_beamformer`` at a_sq = 1,
    h_sq = ||h_c*||^2, corr_sq = 0 and kappa = crb_with(0) P: at each floor
    CRB = crb_with(0) P / (P - snr / h_sq). An infinite CRB to match (one
    receive element has no angle information) raises
    ``DegenerateChannelError``, and so does one transmit element, which
    leaves no comms direction orthogonal to the sensing channel. Each mode's
    rate floors run from 0 to 97% of its max rate in ``r0_points >= 1``
    steps, so every floor is feasible; without "with" rows, "reference"
    solves the with-RIS R0 = 0 floor alone.
    """
    unknown = set(ris_modes) - {"with", "without", "reference"}
    if unknown:
        raise ValueError(f"unknown ris_modes: {sorted(unknown)}")
    if r0_points < 1:
        raise ValueError("r0_points must be >= 1")
    shaped = _apply_coupling(scenario, coupling)
    p_t, sigma_c = shaped.scene.transmit_power, shaped.scene.noise_power_comms
    curves, max_rate = {}, {}  # curves: mode -> (floors, rates, crbs)
    if {"with", "reference"} & set(ris_modes):
        phi = align_profile(shaped.a_t_term, shaped.g_t, shaped.r_t)
        h_sq = _norm_sq(shaped.h_c(phi))
        max_rate["with"] = max_rate["reference"] = _max_rate(p_t, h_sq, sigma_c)
        grid = np.linspace(0.0, 0.97 * max_rate["with"], r0_points)
        floors = grid if "with" in ris_modes else grid[:1]
        curves["with"] = (floors, *_crb_sweep(shaped, phi, floors))
    if "reference" in ris_modes:
        crb0 = curves["with"][2][0]
        if not math.isfinite(crb0):
            raise DegenerateChannelError(f"the reference mode needs a finite CRB, got {crb0}")
        if shaped.a_t_term.size < 2:
            raise DegenerateChannelError("the reference mode needs a comms direction orthogonal "
                                         "to the sensing channel; one transmit element has none")
        curves["reference"] = (grid, *crb_min_beamformer(
            1.0, h_sq, 0.0, crb0 * p_t, p_t, sigma_c, grid))
    if "without" in ris_modes:
        max_rate["without"] = _max_rate(p_t, _norm_sq(shaped.h_bu), sigma_c)
        floors = np.linspace(0.0, 0.97 * max_rate["without"], r0_points)
        curves["without"] = (floors, *_crb_sweep(_zero_ris(shaped), np.zeros(0), floors))
    rows = [RisIsacRow(mode, coupling, *row) for mode in ris_modes for row in zip(*curves[mode])]
    return RisIsacTradeoff(rows, {mode: max_rate[mode] for mode in ris_modes})
