"""RIS-aided ISAC: coupling maximization, FIM-based CRB, beamformer design.

Every channel comes from ``channels.RisIsacScenario``, h(phi) = a + F phi.
The RIS profile is tuned first to expand and rotate the sensing/comms
subspaces (Riemannian descent on the circle manifold |phi_i| = 1), then the
transmit beamformer minimizes the FIM-based angle CRB under a rate floor in
closed form. The nuisance gain beta contributes the FIM columns h_r s and
i h_r s (s = h_t^T w), so eliminating it projects h_r out of the angle
columns; the transmit-derivative terms lie along h_r and drop out. What
remains is CRB(theta1) = kappa(phi) / |h_t(phi)^T w|^2, with kappa set by
the receive side alone, so minimizing the CRB maximizes the illumination
|h_t^T w|^2.

The profile descent runs once, from phi_0 = F_t^H a_t / |F_t^H a_t|
entrywise. Each RIS map is a rank-one dyad F_t = g r^T, so phi_0 puts r^T phi
at its largest modulus ||r||_1, phase-aligned with the direct path: the
optimal passive beamformer for one reflected path (Wu & Zhang, IEEE TWC
2019). Random starts reach about 1/sqrt(N) of that modulus, and at strong
coupling they stop in an interior basin. The profile does not depend on the
config seed.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

import numpy as np

from .channels import RisIsacScenario, RisProfile, _phi_vector
from .errors import DegenerateChannelError, InfeasibleRateError
from .isac import IsacScenario, crb_min_beamformer
from .optim import _unit_modulus, riemannian_descent
from .sensing import Beamformer

__all__ = [
    "FimResult",
    "coupling_objective",
    "coupling_gradient",
    "optimize_ris_profile",
    "fim_theta",
    "rate_constrained_crb_beamformer",
    "ris_isac_tradeoff",
]


def _coupling(phi_vec, a_t, f_t, a_r, f_r, h_bu, f_c, adjoints=None, gradient=True):
    """Value and conjugate gradient of the coupling metric from one channel evaluation.

    ``adjoints`` holds (F_t^H, F_r^H, F_c^H) when the caller evaluates many
    profiles of one scenario; otherwise they are formed here. With
    ``gradient=False`` the gradient slot is None.
    """
    if len(a_r) != len(h_bu):
        raise ValueError(
            "the coupling metric pairs the receive channel with the user "
            f"channel, so L_S must equal L_T (got {len(a_r)} vs {len(h_bu)})"
        )
    u = a_t + f_t @ phi_vec
    v = a_r + f_r @ phi_vec
    c = h_bu + f_c @ phi_vec
    s = np.vdot(v, c)
    norm_u_sq = float(np.vdot(u, u).real)
    abs_s_sq = float(np.abs(s) ** 2)
    value = -norm_u_sq * abs_s_sq
    if not gradient:
        return value, None
    if adjoints is None:
        adjoints = (f_t.conj().T, f_r.conj().T, f_c.conj().T)
    f_t_h, f_r_h, f_c_h = adjoints
    grad = abs_s_sq * (f_t_h @ u)
    grad += norm_u_sq * (s.conjugate() * (f_r_h @ c) + s * (f_c_h @ v))
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
    return _coupling(_phi_vector(phi), a_t, f_t, a_r, f_r, h_bu, f_c, gradient=False)[0]


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
    return _coupling(_phi_vector(phi), a_t, f_t, a_r, f_r, h_bu, f_c)[1]


@dataclasses.dataclass(eq=False)
class RisProfileResult:
    phi: RisProfile
    objective: float
    objective_trace: np.ndarray
    converged: bool
    stop: str  # the solver's stop reason: "tol", "max_iter" or "no_descent"
    iterations: int
    evaluations: int  # objective/gradient calls


def optimize_ris_profile(scenario: RisIsacScenario) -> RisProfileResult:
    """Riemannian descent of the coupling objective on the circle manifold |phi_i| = 1.

    One run from the phase-aligned start of the module docstring (an exact
    zero of F_t^H a_t maps to 1, so with zero RIS gain the start is all ones
    and is returned after 0 iterations). The trace is non-increasing;
    ``stop`` says why the solver ended.
    """
    args = (scenario.a_t_term, scenario.f_t, scenario.a_r_term, scenario.f_r,
            scenario.h_bu, scenario.f_c)
    adjoints = (scenario.f_t.conj().T, scenario.f_r.conj().T, scenario.f_c.conj().T)

    def fun(p):
        return _coupling(p, *args, adjoints=adjoints)

    start = _unit_modulus(adjoints[0] @ scenario.a_t_term)
    res = riemannian_descent(fun, "circle", start)
    return RisProfileResult(
        phi=RisProfile(res.x),
        objective=res.objective,
        objective_trace=res.trace,
        converged=res.converged,
        stop=res.stop,
        iterations=res.iterations,
        evaluations=res.evaluations,
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
    phi_vec = _phi_vector(phi)
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
    return _fim_from_maps(scenario, _fim_maps(scenario, phi), w_vec)


def _fim_from_maps(scenario: RisIsacScenario, maps: list, w_vec: np.ndarray) -> FimResult:
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
    return _crb_beamformer_at(scenario, phi)(rate_threshold)


def _crb_beamformer_at(scenario: RisIsacScenario, phi):
    """``rate_constrained_crb_beamformer`` of the rate floor, with the phi-only terms built once."""
    if scenario.beta == 0:
        raise DegenerateChannelError(
            "the angle FIM is normalized by the direct gains; beta must be nonzero"
        )
    phi_vec = _phi_vector(phi)
    scene = scenario.scene
    closed_form = IsacScenario(
        a_t=scenario.h_t(phi_vec),
        # The beamformer reads a_t and h_c alone; the receive terms feed a CRB that goes unused.
        a_r=scenario.a_r_term,
        a_r_dot=scenario.a_r_dot_term,
        h_c=scenario.h_c(phi_vec),
        noise_comms=scene.noise_power_comms,
        noise_sensing=scene.noise_power_sensing,
        target_gain_var=scene.target_gain_var,
        samples=scene.samples,
        budget=scene.transmit_power,
    )
    maps = _fim_maps(scenario, phi_vec)

    def solve(rate_threshold: float) -> CrbBeamformerResult:
        closed = crb_min_beamformer(closed_form, rate_threshold)
        crb = _fim_from_maps(scenario, maps, closed.w.weights).crb_theta1
        return CrbBeamformerResult(w=closed.w, crb=crb, rate=closed.rate)

    return solve


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
        solve = _crb_beamformer_at(scn, phi)
        rows = []
        for r0 in grid:
            try:
                res = solve(r0)
            except InfeasibleRateError:
                rows.append(RisIsacRow(ris_mode, coupling_mode, r0, math.nan, math.inf))
                continue
            rows.append(RisIsacRow(ris_mode, coupling_mode, r0, res.rate, res.crb))
        return rows

    if ris_mode == "without":
        scn = _zero_ris(shaped)
        return sweep(scn, np.zeros(0), rate_grid)

    phi_star = _phi_vector(profile)
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
