"""Joint communication precoder, sensing covariance, and RIS phase design.

The transmit covariance is R = c c^H + W W^H with unit diagonal; the loss is
a weighted beampattern mismatch plus the average squared cross-correlation
between target returns, under a user-SINR floor served through the RIS. The
cited relaxation-based solver is replaced by penalized block-coordinate
projected gradient with exact row normalization for the diagonal constraint.

The design builds the grid and target steering matrices, their conjugate
transposes, the cross-term index set and the autoscale denominator once. Its
line search evaluates loss values only; the gradient is taken once per step,
at the point where the step starts.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .arrays import UlaGeometry, steering_vector
from .channels import RisProfile, Scene
from .errors import InfeasibleSinrError
from .ris_isac import RisIsacScenario, _unit_modulus

__all__ = [
    "BeampatternSpec",
    "DualDesign",
    "make_beampattern_spec",
    "radiated_power",
    "beampattern_loss",
    "autoscale_tau",
    "sinr_given_channel",
    "user_sinr",
    "design_dual_waveform",
]


@dataclasses.dataclass(eq=False)
class BeampatternSpec:
    """Desired beampattern on a sorted angle grid, plus loss weights."""

    grid: np.ndarray           # D angles, radians, sorted
    desired: np.ndarray        # D nonnegative levels
    target_angles: np.ndarray  # radians, cross-correlation set
    alpha_mismatch: float = 1.0
    alpha_crosscorr: float = 1.0

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float).reshape(-1)
        self.desired = np.asarray(self.desired, dtype=float).reshape(-1)
        self.target_angles = np.asarray(self.target_angles, dtype=float).reshape(-1)
        if self.grid.size < 1:
            raise ValueError("grid must hold at least one angle")
        if self.grid.shape != self.desired.shape:
            raise ValueError("grid and desired must have equal length")
        if np.any(np.diff(self.grid) < 0):
            raise ValueError("grid must be sorted")
        if np.any(self.desired < 0):
            raise ValueError("desired levels must be nonnegative")
        if self.alpha_mismatch < 0 or self.alpha_crosscorr < 0:
            raise ValueError("loss weights must be nonnegative")


def make_beampattern_spec(
    beams: Sequence,
    target_angles: Sequence[float],
    grid_points: int = 181,
    alpha_mismatch: float = 1.0,
    alpha_crosscorr: float = 1.0,
) -> BeampatternSpec:
    """Superpose rectangular beams (center, width, level in radians) on a grid."""
    grid = np.linspace(-np.pi / 2, np.pi / 2, grid_points)
    desired = np.zeros(grid_points)
    for center, width, level in beams:
        mask = np.abs(grid - center) <= width / 2.0
        desired[mask] = np.maximum(desired[mask], level)
    return BeampatternSpec(
        grid, desired, np.asarray(target_angles, dtype=float),
        alpha_mismatch, alpha_crosscorr,
    )


@dataclasses.dataclass(eq=False)
class DualDesign:
    comm_precoder: np.ndarray   # c, L_T
    sensing_precoder: np.ndarray  # W, L_T x n_targets
    tau: float
    phi: RisProfile
    covariance: np.ndarray      # R = c c^H + W W^H
    sinr: float
    loss: float
    objective_trace: np.ndarray
    converged: bool


def _steering_matrix(geom: UlaGeometry, angles: np.ndarray) -> np.ndarray:
    return np.column_stack([steering_vector(geom, a).entries for a in angles])


@dataclasses.dataclass(frozen=True, eq=False)
class _Steering:
    """Steering matrices and constants of one (spec, array) pair, built once per design."""

    grid: np.ndarray       # L x D
    grid_h: np.ndarray     # D x L, conjugate transpose of grid
    targets: np.ndarray    # L x K
    targets_h: np.ndarray  # K x L
    triu: tuple            # upper-triangle index pair of the K x K cross term
    denom: float           # autoscale denominator sum(desired^2)

    @classmethod
    def build(cls, spec: BeampatternSpec, geom: UlaGeometry) -> "_Steering":
        grid = _steering_matrix(geom, spec.grid)
        targets = _steering_matrix(geom, spec.target_angles)
        return cls(
            grid, grid.conj().T, targets, targets.conj().T,
            np.triu_indices(spec.target_angles.size, 1),
            _autoscale_denominator(spec.desired),
        )


def radiated_power(r_cov: np.ndarray, geom: UlaGeometry, angle: float) -> float:
    """Power a^H(angle) R a(angle) radiated toward one direction."""
    a = steering_vector(geom, angle).entries
    val = np.real(np.vdot(a, r_cov @ a))
    return float(val)


def _pattern(r_cov: np.ndarray, steer: np.ndarray) -> np.ndarray:
    # Real diagonal of A^H R A without forming the off-diagonal part.
    return np.real(np.einsum("id,ij,jd->d", steer.conj(), r_cov, steer))


def beampattern_loss(r_cov: np.ndarray, tau: float, spec: BeampatternSpec, geom: UlaGeometry) -> float:
    """Weighted mismatch plus average squared cross-correlation loss."""
    steer = _steering_matrix(geom, spec.grid)
    pattern = _pattern(r_cov, steer)
    d = spec.grid.size
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


def _autoscale_denominator(desired: np.ndarray) -> float:
    denom = float(np.sum(desired**2))
    if not denom > 0:
        raise ValueError("desired pattern must not be identically zero")
    return denom


def _autoscale_tau(r_cov: np.ndarray, desired: np.ndarray, steer: np.ndarray, denom: float) -> float:
    pattern = _pattern(r_cov, steer)
    return max(0.0, float(np.sum(desired * pattern)) / denom)


def autoscale_tau(r_cov: np.ndarray, spec: BeampatternSpec, geom: UlaGeometry) -> float:
    """Least-squares scale between the realized and desired patterns, clamped >= 0."""
    denom = _autoscale_denominator(spec.desired)
    return _autoscale_tau(r_cov, spec.desired, _steering_matrix(geom, spec.grid), denom)


def sinr_given_channel(h_c: np.ndarray, comm: np.ndarray, r_cov: np.ndarray, noise_comms: float) -> float:
    """User SINR h^H c c^H h / (h^H (R - c c^H) h + sigma_c^2)."""
    h_c = np.asarray(h_c, dtype=complex).reshape(-1)
    num = float(np.abs(np.vdot(h_c, comm)) ** 2)
    total = float(np.real(np.vdot(h_c, r_cov @ h_c)))
    interference = max(total - num, 0.0)
    return num / (interference + noise_comms)


def user_sinr(scene: Scene, phi, comm: np.ndarray, r_cov: np.ndarray) -> float:
    """User SINR for a scene; the channel is rebuilt from the RIS profile."""
    from .channels import build_comms_channel

    h_c = build_comms_channel(scene, phi)
    return sinr_given_channel(h_c, comm, r_cov, scene.noise_power_comms)


def _row_normalize(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    norms = np.where(norms < 1e-300, 1.0, norms)
    return x / norms


def _loss_only(x: np.ndarray, tau, spec, st: _Steering) -> float:
    """The loss of ``_loss_gradient``, by the same operations, without the gradient."""
    proj = st.grid_h @ x
    pattern = np.real(np.sum(np.abs(proj) ** 2, axis=1))
    err = pattern - tau * spec.desired
    loss = spec.alpha_mismatch * float(np.mean(err**2))
    k = spec.target_angles.size
    if k >= 2 and spec.alpha_crosscorr > 0:
        proj_t = st.targets_h @ x
        cross = proj_t @ proj_t.conj().T
        weight = spec.alpha_crosscorr * 2.0 / (k * k - k)
        vals = cross[st.triu]
        loss += weight * float(np.sum(np.abs(vals) ** 2))
    return loss


def _loss_gradient(x: np.ndarray, tau, spec, st: _Steering):
    """Loss pieces and d(loss)/dX* for X = [c | W]."""
    proj = st.grid_h @ x  # D x (1+K)
    pattern = np.real(np.sum(np.abs(proj) ** 2, axis=1))
    err = pattern - tau * spec.desired
    d = spec.grid.size
    loss = spec.alpha_mismatch * float(np.mean(err**2))
    grad = (2.0 * spec.alpha_mismatch / d) * (st.grid @ (err[:, None] * proj))
    k = spec.target_angles.size
    if k >= 2 and spec.alpha_crosscorr > 0:
        proj_t = st.targets_h @ x  # K x (1+K)
        cross = proj_t @ proj_t.conj().T     # K x K, equals A^H R A
        weight = spec.alpha_crosscorr * 2.0 / (k * k - k)
        idx_i, idx_j = st.triu
        vals = cross[idx_i, idx_j]
        loss += weight * float(np.sum(np.abs(vals) ** 2))
        coef = np.zeros((k, k), dtype=complex)
        coef[idx_i, idx_j] = np.conj(vals)
        coef[idx_j, idx_i] = vals
        grad += weight * (st.targets @ (coef.T @ proj_t))
    return loss, grad


def design_dual_waveform(
    scene: Scene,
    spec: BeampatternSpec,
    sinr_threshold: float,
    seed: int = 0,
    max_outer: int = 100,
    inner_steps: int = 25,
    tol_rel: float = 1e-6,
    penalty_sinr: float = 10.0,
    penalty_diag: float = 10.0,
) -> DualDesign:
    """Block-cyclic design of (tau, c, W, phi) under the SINR and diagonal constraints.

    Blocks: closed-form autoscale, penalized projected gradient over the
    stacked precoders with exact row normalization, and SINR ascent over the
    RIS phases. Keeps and returns the best feasible iterate; penalty weights
    grow fivefold whenever a residual fails to halve.

    The steering matrices are built once per design. The backtracking line
    search evaluates penalized values only, the gradient is taken once per
    step at its start point, and an accepted candidate's value is carried
    into the next step rather than evaluated again.
    """
    if not sinr_threshold > 0:
        raise ValueError("sinr_threshold must be positive")
    if spec.target_angles.size == 0:
        raise ValueError("spec.target_angles is empty; the design needs at least one target")
    geom = scene.tx
    l_t = geom.num_elements
    k_targets = spec.target_angles.size
    rng = np.random.default_rng(seed)
    scenario = RisIsacScenario.from_scene(scene)
    n = scenario.n_ris
    sigma_c = scene.noise_power_comms

    # Phase-align the RIS for the user, then check the SINR is reachable with
    # a matched unit-modulus precoder and no sensing interference.
    if n:
        chain = scenario.f_c.sum(axis=0)  # proportional to per-element cascade
        phi = np.exp(-1j * np.angle(np.where(np.abs(chain) > 0, chain, 1.0)))
    else:
        phi = np.zeros(0, dtype=complex)
    h_c = scenario.h_c(phi)
    max_sinr = float(np.sum(np.abs(h_c))) ** 2 / sigma_c
    if max_sinr < sinr_threshold:
        raise InfeasibleSinrError(sinr_threshold, max_sinr)

    st = _Steering.build(spec, geom)

    # Feasible start: matched unit-modulus comms column, small sensing leak.
    comm = np.exp(1j * np.angle(np.where(np.abs(h_c) > 0, h_c, 1.0)))
    sense = 0.05 * (
        rng.standard_normal((l_t, k_targets)) + 1j * rng.standard_normal((l_t, k_targets))
    )
    x = _row_normalize(np.column_stack([comm, sense]))

    def split(x_mat):
        return x_mat[:, 0], x_mat[:, 1:]

    def sinr_of(x_mat, h_vec):
        c_vec, w_mat = split(x_mat)
        num = float(np.abs(np.vdot(h_vec, c_vec)) ** 2)
        interf = float(np.real(np.vdot(h_vec, w_mat @ (w_mat.conj().T @ h_vec))))
        return num / (interf + sigma_c)

    def penalized(x_mat, tau_val, h_vec, mu_s, mu_d):
        loss = _loss_only(x_mat, tau_val, spec, st)
        gap = max(0.0, sinr_threshold - sinr_of(x_mat, h_vec))
        diag_res = float(np.max(np.abs(np.sum(np.abs(x_mat) ** 2, axis=1) - 1.0)))
        return loss + mu_s * gap**2 + mu_d * diag_res**2, loss, gap, diag_res

    tau = _autoscale_tau(x @ x.conj().T, spec.desired, st.grid, st.denom)
    mu_s, mu_d = penalty_sinr, penalty_diag
    obj, loss, gap, diag_res = penalized(x, tau, h_c, mu_s, mu_d)
    trace = [obj]
    best = None
    tol_feas = 1e-6

    def consider(x_mat, tau_val, phi_vec, h_vec, loss_val, diag_val):
        # loss_val and diag_val: penalized(x_mat, tau_val, h_vec, ...) pieces.
        nonlocal best
        sinr_val = sinr_of(x_mat, h_vec)
        feasible = (
            diag_val < tol_feas and sinr_val >= sinr_threshold * (1.0 - tol_feas)
        )
        if feasible and (best is None or loss_val < best["loss"]):
            best = dict(
                x=x_mat.copy(), tau=tau_val, phi=phi_vec.copy(),
                sinr=sinr_val, loss=loss_val,
            )

    consider(x, tau, phi, h_c, loss, diag_res)
    converged = False
    for _ in range(max_outer):
        prev_obj, prev_gap, prev_diag = obj, gap, diag_res

        # (1) autoscale.
        tau = _autoscale_tau(x @ x.conj().T, spec.desired, st.grid, st.denom)

        # (2) precoders: projected gradient with row normalization.
        step = 0.1
        cur, *_ = penalized(x, tau, h_c, mu_s, mu_d)
        for _ in range(inner_steps):
            _, grad = _loss_gradient(x, tau, spec, st)
            c_vec, w_mat = split(x)
            hw = w_mat.conj().T @ h_c
            num = float(np.abs(np.vdot(h_c, c_vec)) ** 2)
            den = float(np.real(np.vdot(hw, hw))) + sigma_c
            gap_now = max(0.0, sinr_threshold - num / den)
            if gap_now > 0.0:
                # d sinr/dc* = h (h^H c)/den; d sinr/dW* = -(num/den^2) h (h^H W).
                g_c = (h_c * np.vdot(h_c, c_vec)) / den
                g_w = -(num / den**2) * np.outer(h_c, np.conj(hw))
                grad[:, 0] += -2.0 * mu_s * gap_now * g_c
                grad[:, 1:] += -2.0 * mu_s * gap_now * g_w
            accepted = False
            while step > 1e-14:
                cand = _row_normalize(x - step * grad)
                val, *_ = penalized(cand, tau, h_c, mu_s, mu_d)
                if val < cur:
                    x, cur = cand, val
                    accepted = True
                    step *= 1.5
                    break
                step *= 0.5
            if not accepted:
                break

        # (3) RIS phases: SINR ascent, accepted only if the penalized
        # objective does not increase.
        if n:
            step_phi = 0.5
            for _ in range(inner_steps):
                h_now = scenario.h_c(phi)
                c_vec, w_mat = split(x)
                num_vec = np.vdot(h_now, c_vec)
                num = float(np.abs(num_vec) ** 2)
                hw = w_mat.conj().T @ h_now
                den = float(np.real(np.vdot(hw, hw))) + sigma_c
                sinr_now = num / den
                if sinr_now >= sinr_threshold:
                    break
                g_num = scenario.f_c.conj().T @ (c_vec * np.conj(num_vec))
                g_den = scenario.f_c.conj().T @ (w_mat @ hw)
                g_phi = (den * g_num - num * g_den) / den**2
                improved = False
                while step_phi > 1e-14:
                    cand = _unit_modulus(phi + step_phi * g_phi)
                    if sinr_of(x, scenario.h_c(cand)) > sinr_now:
                        phi = cand
                        improved = True
                        step_phi *= 1.5
                        break
                    step_phi *= 0.5
                if not improved:
                    break
            h_c = scenario.h_c(phi)

        obj, loss, gap, diag_res = penalized(x, tau, h_c, mu_s, mu_d)
        if obj <= trace[-1]:
            trace.append(obj)
        consider(x, tau, phi, h_c, loss, diag_res)

        rel = (prev_obj - obj) / max(abs(prev_obj), 1e-300)
        if 0.0 <= rel < tol_rel:
            converged = True
            break
        # Penalty continuation on stalled residuals.
        if gap > 0.0 and gap > 0.5 * prev_gap:
            mu_s *= 5.0
        if diag_res > tol_feas and diag_res > 0.5 * prev_diag:
            mu_d *= 5.0

    if best is None:
        raise RuntimeError(
            f"no feasible iterate found: SINR gap {gap:.3g}, diag residual {diag_res:.3g}"
        )
    c_vec, w_mat = split(best["x"])
    r_cov = best["x"] @ best["x"].conj().T
    return DualDesign(
        comm_precoder=c_vec,
        sensing_precoder=w_mat,
        tau=best["tau"],
        phi=RisProfile(best["phi"]) if n else RisProfile(np.zeros(0)),
        covariance=r_cov,
        sinr=best["sinr"],
        loss=best["loss"],
        objective_trace=np.asarray(trace),
        converged=converged,
    )
