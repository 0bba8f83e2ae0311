"""RIS-aided ISAC: coupling maximization, FIM-based CRB, beamformer design.

The RIS profile is tuned first to expand and rotate the sensing/comms
subspaces (projected gradient on the unit-modulus torus), then the transmit
beamformer minimizes the FIM-based angle CRB under a rate floor in closed
form. The nuisance gain beta contributes the FIM columns h_r s and i h_r s
(s = h_t^T w), so eliminating it projects h_r out of the angle columns; the
transmit-derivative terms lie along h_r and drop out. What remains is
CRB(theta1) = kappa(phi) / |h_t(phi)^T w|^2, with kappa set by the receive
side alone, so minimizing the CRB maximizes the illumination |h_t^T w|^2.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

import numpy as np

from .arrays import steering_derivative, steering_vector
from .channels import (
    RisProfile,
    Scene,
    angles_from_geometry,
    build_ris_dyads,
    path_gains,
    ris_side_angle,
)
from .errors import DegenerateChannelError, InfeasibleRateError
from .isac import IsacScenario, crb_min_beamformer
from .optim import SolverConfig, projected_gradient
from .sensing import Beamformer

__all__ = [
    "RisIsacScenario",
    "FimResult",
    "coupling_objective",
    "coupling_gradient",
    "optimize_ris_profile",
    "fim_theta",
    "rate_constrained_crb_beamformer",
    "ris_isac_tradeoff",
]


@dataclasses.dataclass(eq=False)
class RisIsacScenario:
    """Channel pieces of the RIS-aided ISAC model, fixed per scene.

    The direct-path terms carry their complex gains, so the coupling
    objective below is a positive multiple of ||H^H h_c||^2 and minimizing it
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
        g_t, g_r = build_ris_dyads(scene, gains)
        a_t = steering_vector(scene.tx, angles.theta1).entries
        a_r = steering_vector(scene.rx, angles.theta1).entries
        adot_t = steering_derivative(scene.tx, angles.theta1)
        adot_r = steering_derivative(scene.rx, angles.theta1)
        h_bu = gains.gain_bu * steering_vector(scene.tx, angles.theta_user_bs).entries
        if scene.n_ris:
            b = steering_vector(scene.ris, angles.theta2).entries
            bdot = steering_derivative(scene.ris, angles.theta2)
            h_ru = gains.gain_ru * steering_vector(scene.ris, angles.theta_user_ris).entries
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
        return self.a_t_term + self.f_t @ _phi(phi)

    def h_r(self, phi) -> np.ndarray:
        return self.a_r_term + self.f_r @ _phi(phi)

    def h_c(self, phi) -> np.ndarray:
        return self.h_bu + self.f_c @ _phi(phi)

    def sensing_matrix(self, phi) -> np.ndarray:
        """H = h_r h_t^T / beta evaluated at the scene's true angles."""
        if self.beta == 0:
            raise DegenerateChannelError(
                "H(theta) is normalized by the direct gains; beta must be nonzero"
            )
        return np.outer(self.h_r(phi), self.h_t(phi)) / self.beta


def _phi(phi) -> np.ndarray:
    if isinstance(phi, RisProfile):
        return phi.phases
    return np.asarray(phi, dtype=complex).reshape(-1)


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
    phi_vec = _phi(phi)
    if len(a_r) != len(h_bu):
        raise ValueError(
            "the coupling metric pairs the receive channel with the user "
            f"channel, so L_S must equal L_T (got {len(a_r)} vs {len(h_bu)})"
        )
    u = a_t + f_t @ phi_vec
    v = a_r + f_r @ phi_vec
    c = h_bu + f_c @ phi_vec
    s = np.vdot(v, c)
    return -float(np.real(np.vdot(u, u))) * float(np.abs(s) ** 2)


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
    phi_vec = _phi(phi)
    u = a_t + f_t @ phi_vec
    v = a_r + f_r @ phi_vec
    c = h_bu + f_c @ phi_vec
    s = np.vdot(v, c)
    norm_u_sq = float(np.real(np.vdot(u, u)))
    abs_s_sq = float(np.abs(s) ** 2)
    grad = abs_s_sq * (f_t.conj().T @ u)
    grad += norm_u_sq * (np.conj(s) * (f_r.conj().T @ c) + s * (f_c.conj().T @ v))
    return -grad


def _unit_modulus(phi: np.ndarray) -> np.ndarray:
    out = np.asarray(phi, dtype=complex).copy()
    mags = np.abs(out)
    zero = mags < 1e-300
    out[zero] = 1.0
    mags[zero] = 1.0
    return out / mags


@dataclasses.dataclass(eq=False)
class RisProfileResult:
    phi: RisProfile
    objective: float
    objective_trace: np.ndarray
    converged: bool
    restarts_used: int


def optimize_ris_profile(
    scenario: RisIsacScenario,
    init: Optional[RisProfile] = None,
    cfg: SolverConfig = SolverConfig(),
) -> RisProfileResult:
    """Projected-gradient descent of the coupling objective on |phi_i| = 1.

    Runs ``cfg.restarts`` seeded random restarts plus the supplied (or
    all-ones) initialization and keeps the best final objective. The reported
    trace belongs to the winning run and is non-increasing.
    """
    n = scenario.n_ris
    args = (
        scenario.a_t_term,
        scenario.f_t,
        scenario.a_r_term,
        scenario.f_r,
        scenario.h_bu,
        scenario.f_c,
    )
    if n == 0:
        val = coupling_objective(np.zeros(0), *args)
        return RisProfileResult(
            RisProfile(np.zeros(0)), val, np.asarray([val]), True, 0
        )

    rng = np.random.default_rng(cfg.seed)
    inits = [init.phases if init is not None else np.ones(n, dtype=complex)]
    for _ in range(cfg.restarts):
        inits.append(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n)))

    # Path gains make the raw objective minuscule; normalize it to O(1) so
    # unit gradient steps are meaningful.
    scale = max(max(abs(coupling_objective(p, *args)) for p in inits), 1e-300)

    best = None
    for start in inits:
        res = projected_gradient(
            objective=lambda p: coupling_objective(p, *args) / scale,
            gradient=lambda p: coupling_gradient(p, *args) / scale,
            projection=_unit_modulus,
            init=start,
            cfg=cfg,
        )
        if best is None or res.objective < best.objective:
            best = res

    # Polish in phase coordinates: the unconstrained parameterization removes
    # the radial gradient component, so the line search keeps making progress
    # down to tangent stationarity.
    def phase_objective(theta):
        return coupling_objective(np.exp(1j * theta), *args) / scale

    def phase_gradient(theta):
        phi_v = np.exp(1j * theta)
        g = coupling_gradient(phi_v, *args) / scale
        return -2.0 * np.imag(np.conj(g) * phi_v)

    polish = projected_gradient(
        objective=phase_objective,
        gradient=phase_gradient,
        projection=lambda t: t,
        init=np.angle(_unit_modulus(best.x)),
        cfg=cfg,
    )
    phi_star = np.exp(1j * polish.x)
    trace = np.concatenate([best.trace, polish.trace[1:]]) * scale
    return RisProfileResult(
        phi=RisProfile(phi_star),
        objective=polish.objective * scale,
        objective_trace=trace,
        converged=best.converged and polish.converged,
        restarts_used=len(inits),
    )


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
    phi_vec = _phi(phi)
    h_t = scenario.h_t(phi_vec)
    h_r = scenario.h_r(phi_vec)
    dh_t_1 = scenario.a_t_dot_term
    dh_r_1 = scenario.a_r_dot_term
    dh_t_2 = scenario.f_t_dot @ phi_vec
    dh_r_2 = scenario.f_r_dot @ phi_vec
    h_mat = scenario.sensing_matrix(phi_vec)
    c1 = np.outer(dh_r_1, h_t) + np.outer(h_r, dh_t_1)
    c2 = np.outer(dh_r_2, h_t) + np.outer(h_r, dh_t_2)
    return [c1, c2, h_mat, 1j * h_mat]


def fim_theta(scenario: RisIsacScenario, phi, w) -> FimResult:
    """Fisher information over (theta1, theta2, Re beta, Im beta) and CRB(theta1).

    Deterministic-signal Gaussian model with T unit-power samples:
    FIM = (2T / sigma_s^2) Re(D^H D). Identically-zero parameter directions
    (for example theta2 without an RIS) are pruned before inversion; a
    genuinely singular information matrix yields an infinite CRB. The
    condition number is that of the unit-diagonal (Jacobi-scaled) matrix,
    since the beta entries carry 1/|beta|^2 and dwarf the angle entries.
    """
    w_vec = w.weights if isinstance(w, Beamformer) else np.asarray(w, dtype=complex).reshape(-1)
    maps = _fim_maps(scenario, phi)
    d = np.column_stack([m @ w_vec for m in maps])
    scale = 2.0 * scenario.scene.samples / scenario.scene.noise_power_sensing
    fim = scale * np.real(d.conj().T @ d)
    fim = 0.5 * (fim + fim.T)

    diag = np.diag(fim)
    scale_ref = float(np.max(diag)) if np.max(diag) > 0 else 0.0
    if scale_ref == 0.0 or diag[0] <= 0.0:
        return FimResult(fim, math.inf, math.inf, True)
    keep = diag > 1e-14 * scale_ref
    keep[0] = True
    sub = fim[np.ix_(keep, keep)]
    root = np.sqrt(np.diag(sub))
    unit = sub / np.outer(root, root)
    cond = float(np.linalg.cond(unit))
    if not np.isfinite(cond) or cond > 1e14:
        return FimResult(fim, math.inf, cond, True)
    crb = float(np.linalg.inv(unit)[0, 0]) / float(sub[0, 0])
    return FimResult(fim, crb, cond, False)


@dataclasses.dataclass(eq=False)
class CrbBeamformerResult:
    w: Beamformer
    crb: float
    rate: float


def rate_constrained_crb_beamformer(
    scenario: RisIsacScenario,
    phi,
    rate_threshold: float,
) -> CrbBeamformerResult:
    """Minimize the FIM-based CRB(theta1) under a rate floor and power budget.

    CRB(theta1) = kappa(phi) / |h_t(phi)^T w|^2 with kappa independent of w
    (see the module docstring), so the optimum is the closed-form
    max-illumination beamformer of ``crb_min_beamformer`` for a_t = h_t(phi),
    which also raises ``InfeasibleRateError`` above the maximum rate. The
    reported CRB comes from ``fim_theta``.
    """
    if scenario.beta == 0:
        raise DegenerateChannelError(
            "the angle FIM is normalized by the direct gains; beta must be nonzero"
        )
    phi_vec = _phi(phi)
    scene = scenario.scene
    angles = angles_from_geometry(scene)
    closed = crb_min_beamformer(
        IsacScenario(
            a_t=scenario.h_t(phi_vec),
            a_r=steering_vector(scene.rx, angles.theta1).entries,
            a_r_dot=steering_derivative(scene.rx, angles.theta1),
            h_c=scenario.h_c(phi_vec),
            noise_comms=scene.noise_power_comms,
            noise_sensing=scene.noise_power_sensing,
            target_gain_var=scene.target_gain_var,
            samples=scene.samples,
            budget=scene.transmit_power,
        ),
        rate_threshold,
    )
    crb = fim_theta(scenario, phi_vec, closed.w).crb_theta1
    return CrbBeamformerResult(w=closed.w, crb=crb, rate=closed.rate)


@dataclasses.dataclass(frozen=True)
class RisIsacRow:
    mode: str
    coupling: str
    rate_threshold: float
    rate: float
    crb: float


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
    h_c_nat = scenario.h_c(phi0)
    out = dataclasses.replace(scenario)
    if coupling == "strong":
        scale = np.linalg.norm(h_c_nat) / np.linalg.norm(h_t)
        out.h_bu = scale * scenario.a_t_term
        out.f_c = scale * scenario.f_t
    else:
        h_t_hat = h_t / np.linalg.norm(h_t)
        h_bu = scenario.h_bu
        out.h_bu = h_bu - np.vdot(h_t_hat, h_bu) * h_t_hat
    return out


def _zero_ris(scenario: RisIsacScenario) -> RisIsacScenario:
    out = dataclasses.replace(scenario)
    for name in ("f_t", "f_r", "f_c", "f_t_dot", "f_r_dot"):
        mat = getattr(scenario, name)
        setattr(out, name, np.zeros((mat.shape[0], 0), dtype=complex))
    return out


def ris_isac_tradeoff(
    scenario_template: RisIsacScenario,
    coupling_mode: str,
    ris_mode: str,
    rate_grid: Sequence[float],
    profile: Optional[RisProfile] = None,
    seed: int = 0,
) -> list:
    """Rate/CRB trade-off rows for one RIS mode under a coupling regime.

    Modes: "with" sweeps the beamformer at the tuned RIS ``profile``;
    "without" zeroes the RIS paths; "reference" is the gain-matched
    zero-coupling baseline whose max rate and min CRB equal the with-RIS
    run's, isolating the subspace-rotation part of the gain. ``profile`` is
    the ``optimize_ris_profile`` result on the coupling-shaped template and
    is required by "with" and "reference". ``seed`` draws the reference comms
    direction when the sensing channel leaves no orthogonal residual.
    """
    if ris_mode not in ("with", "without", "reference"):
        raise ValueError("ris_mode must be 'with', 'without', or 'reference'")
    if len(rate_grid) == 0:
        raise ValueError("rate_grid must be non-empty")
    if profile is None and ris_mode != "without":
        raise ValueError(f"ris_mode {ris_mode!r} needs the optimized RIS profile")
    shaped = _apply_coupling(scenario_template, coupling_mode)

    def sweep(scn, phi, grid):
        rows = []
        for r0 in grid:
            try:
                res = rate_constrained_crb_beamformer(scn, phi, r0)
            except InfeasibleRateError:
                rows.append(
                    RisIsacRow(ris_mode, coupling_mode, r0, math.nan, math.inf)
                )
                continue
            rows.append(RisIsacRow(ris_mode, coupling_mode, r0, res.rate, res.crb))
        return rows

    if ris_mode == "without":
        scn = _zero_ris(shaped)
        return sweep(scn, np.zeros(0), rate_grid)

    phi_star = _phi(profile)
    if ris_mode == "with":
        return sweep(shaped, phi_star, rate_grid)

    # Gain-matched zero-coupling reference, calibrated on the with-RIS run.
    h_c_star = shaped.h_c(phi_star)
    p_t = shaped.scene.transmit_power
    sigma_c = shaped.scene.noise_power_comms
    max_rate_with = math.log2(
        1.0 + p_t * float(np.real(np.vdot(h_c_star, h_c_star))) / sigma_c
    )
    min_crb_with = rate_constrained_crb_beamformer(shaped, phi_star, 0.0).crb

    base = _zero_ris(shaped)
    min_crb_base = rate_constrained_crb_beamformer(base, np.zeros(0), 0.0).crb
    # Scaling both direct gains by amp scales beta * dH/dtheta1 by amp^2, so
    # the angle CRB scales as 1/amp^4.
    amp = (min_crb_base / min_crb_with) ** 0.25
    ref = dataclasses.replace(base)
    ref.a_t_term = amp * base.a_t_term
    ref.a_r_term = amp * base.a_r_term
    ref.a_t_dot_term = amp * base.a_t_dot_term
    ref.a_r_dot_term = amp * base.a_r_dot_term
    ref.beta = amp * amp * base.beta
    # Comms direction orthogonal to the sensing channel, norm matched to the
    # with-RIS maximum rate.
    h_t_ref = ref.h_t(np.zeros(0))
    h_t_hat = h_t_ref / np.linalg.norm(h_t_ref)
    resid = h_c_star - np.vdot(h_t_hat, h_c_star) * h_t_hat
    if np.linalg.norm(resid) < 1e-12 * np.linalg.norm(h_c_star):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(h_t_ref.size) + 1j * rng.standard_normal(h_t_ref.size)
        resid = z - np.vdot(h_t_hat, z) * h_t_hat
    direction = resid / np.linalg.norm(resid)
    hc_norm = math.sqrt((2.0**max_rate_with - 1.0) * sigma_c / p_t)
    ref.h_bu = hc_norm * direction
    return sweep(ref, np.zeros(0), rate_grid)
