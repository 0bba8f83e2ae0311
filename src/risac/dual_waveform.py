"""Joint communication precoder, sensing covariance, and RIS phase design.

The transmit covariance R = X X^H, X = [c | W], has unit diagonal, so X lies
on the oblique manifold (unit-norm rows). The loss is the beampattern
mismatch plus the average squared cross-correlation between target returns;
the pattern scale tau is minimized out in closed form inside each fused loss
and gradient evaluation.

For a fixed R the best split into a comm and a sensing part has a closed
form (Liu et al., IEEE TSP 2020). With u = X^H h / ||X^H h|| and Q an
orthonormal complement of u, the parts c = X u and W = X Q keep R, null the
interference h^H W, and give the largest SINR any split of R can,
h^H R h / sigma_c^2. The user-SINR floor is then the linear constraint
h^H R h >= gamma sigma_c^2. When it binds, one augmented-Lagrangian
multiplier enforces it (Liu & Boumal 2019) over ``optim.riemannian_descent``
precoder solves. The RIS phases maximize h(phi)^H R h(phi) = ||X^H h_bu +
(X^H g_c)(r_c^T phi)||^2 exactly by ``channels.align_profile``, since the
RIS map F_c = g_c r_c^T is rank one. The steering matrices are built once
per design, and the design carries its total, comm and sensing patterns on
the spec's grid. Every reported pattern is formed from X as the loss forms
it, row sums of |A^H X|^2 (of X u and X Q for the parts): none is negative.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .arrays import UlaGeometry, steering_vector
from .channels import RisIsacScenario, Scene, align_profile
from .errors import InfeasibleSinrError
from .optim import riemannian_descent

__all__ = [
    "BeampatternSpec",
    "DualDesign",
    "make_beampattern_spec",
    "autoscale_tau",
    "design_dual_waveform",
]


@dataclasses.dataclass(eq=False)
class BeampatternSpec:
    """Desired beampattern on a sorted angle grid, and the cross-correlation targets."""

    grid: np.ndarray           # D angles, radians, sorted
    desired: np.ndarray        # D nonnegative levels
    target_angles: np.ndarray  # radians, cross-correlation set

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


def make_beampattern_spec(
    beams: Sequence,
    target_angles: Sequence[float],
    grid_points: int = 181,
) -> BeampatternSpec:
    """Superpose rectangular beams (center, width, level in radians) on a grid."""
    grid = np.linspace(-np.pi / 2, np.pi / 2, grid_points)
    desired = np.zeros(grid_points)
    for center, width, level in beams:
        mask = np.abs(grid - center) <= width / 2.0
        desired[mask] = np.maximum(desired[mask], level)
    return BeampatternSpec(grid, desired, np.asarray(target_angles, dtype=float))


@dataclasses.dataclass(eq=False)
class DualDesign:
    comm_precoder: np.ndarray   # c, L_T
    sensing_precoder: np.ndarray  # W, L_T x n_targets
    tau: float
    phi: np.ndarray             # unit-modulus RIS profile, N
    covariance: np.ndarray      # R = c c^H + W W^H
    pattern: np.ndarray         # ||X^H a(theta)||^2 = a(theta)^H R a(theta) on spec.grid
    comm_pattern: np.ndarray    # the same for c
    sense_pattern: np.ndarray   # the same for W
    sinr: float
    loss: float
    objective_trace: np.ndarray  # solver objective at accepted iterates, solve after solve
    converged: bool
    iterations: int             # over all precoder solves
    evaluations: int            # Lagrangian/gradient calls over the same solves
    grad_norm: float            # tangent-gradient norm at the end of the last precoder solve
    stop: str                   # stop reason of the last precoder solve


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
        grid = steering_vector(geom, spec.grid)
        targets = steering_vector(geom, spec.target_angles)
        return cls(
            grid, grid.conj().T, targets, targets.conj().T,
            np.triu_indices(spec.target_angles.size, 1),
            _autoscale_denominator(spec.desired),
        )


def _pattern(proj: np.ndarray) -> np.ndarray:
    """Row sums of |proj|^2: the pattern diag(A^H X X^H A) for proj = A^H X."""
    mag = np.abs(proj)
    return np.add.reduce(mag * mag, axis=1)


def _autoscale_denominator(desired: np.ndarray) -> float:
    denom = float(np.sum(desired**2))
    if not denom > 0:
        raise ValueError("desired pattern must not be identically zero")
    return denom


def _best_tau(pattern: np.ndarray, desired: np.ndarray, denom: float) -> float:
    return max(0.0, float(desired @ pattern) / denom)


def autoscale_tau(r_cov: np.ndarray, spec: BeampatternSpec, geom: UlaGeometry) -> float:
    """Least-squares scale between the realized and desired patterns, clamped >= 0."""
    steer = steering_vector(geom, spec.grid)
    # Real diagonal of A^H R A without forming the off-diagonal part.
    pattern = np.real(np.einsum("id,ij,jd->d", steer.conj(), r_cov, steer))
    return _best_tau(pattern, spec.desired, _autoscale_denominator(spec.desired))


def _received_power(x: np.ndarray, h: np.ndarray) -> float:
    """h^H R h = ||X^H h||^2 for R = X X^H."""
    v = x.conj().T @ h
    return float(np.vdot(v, v).real)


def _loss_gradient(x: np.ndarray, tau, spec, st: _Steering):
    """Loss and d(loss)/dX* for X = [c | W]; ``tau=None`` takes the best tau >= 0.

    At the minimizing tau the loss is stationary in tau, or tau sits at its
    bound 0, so the gradient with tau held fixed is the gradient of the
    reduced loss min_tau loss(X, tau).
    """
    proj = st.grid_h @ x  # D x (1+K)
    pattern = _pattern(proj)
    if tau is None:
        tau = _best_tau(pattern, spec.desired, st.denom)
    err = pattern - tau * spec.desired
    d = spec.grid.size
    # mean(err^2), op for op, minus call overhead.
    loss = float(np.add.reduce(err * err) / d)
    grad = (2.0 / d) * (st.grid @ (err[:, None] * proj))
    k = spec.target_angles.size
    if k >= 2:
        proj_t = st.targets_h @ x  # K x (1+K)
        cross = proj_t @ proj_t.conj().T     # K x K, equals A^H R A
        weight = 2.0 / (k * k - k)
        idx_i, idx_j = st.triu
        vals = cross[idx_i, idx_j]
        mag = np.abs(vals)
        loss += weight * float(np.add.reduce(mag * mag))
        coef = np.zeros((k, k), dtype=complex)
        coef[idx_i, idx_j] = np.conj(vals)
        coef[idx_j, idx_i] = vals
        grad += weight * (st.targets @ (coef.T @ proj_t))
    return loss, grad


# A precoder solve stops once its tangent-gradient norm is at most _TOL times
# its objective: 2.7e-3 at the default scene, where the loss is 53.3.
_TOL = 5e-5
# Relative SINR slack a feasible iterate may have.
_FEAS_TOL = 1e-6
_MAX_OUTER = 30


def design_dual_waveform(
    scene: Scene,
    spec: BeampatternSpec,
    sinr_threshold: float,
    seed: int = 0,
) -> DualDesign:
    """Design (tau, c, W, phi) for the beampattern loss under the SINR floor and unit diagonal.

    One Riemannian solve over X = [c | W] minimizes the loss with tau
    minimized out. If h^H R h then falls short of gamma sigma_c^2, an
    augmented-Lagrangian loop alternates precoder solves, closed-form RIS
    phases and multiplier updates. The best feasible iterate is split in
    closed form and returned. The matched comm-only start [c | 0] attains the
    largest SINR and is the first feasible iterate, so a design exists
    whenever the threshold check passes. ``converged`` means the last
    precoder solve reached its tolerance with the floor met and, if the
    multiplier is positive, active. A matched start with zero loss is
    returned as the design, converged after no solve.
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
    sigma_c = scene.noise_power_comms

    # Phase-align the RIS for the user, then check the SINR is reachable with
    # a matched unit-modulus precoder and no sensing interference.
    phi = align_profile(scenario.h_bu, scenario.g_c, scenario.r_c)
    h_c = scenario.h_c(phi)
    max_sinr = float(np.sum(np.abs(h_c))) ** 2 / sigma_c
    if max_sinr < sinr_threshold:
        raise InfeasibleSinrError(sinr_threshold, max_sinr)

    st = _Steering.build(spec, geom)
    floor = sinr_threshold * sigma_c  # on h^H R h
    comm = np.exp(1j * np.angle(np.where(np.abs(h_c) > 0, h_c, 1.0)))
    matched = np.column_stack([comm, np.zeros((l_t, k_targets))])
    scale = _loss_gradient(matched, None, spec, st)[0]
    # The best feasible iterate (loss, X, phi, h_c), from the matched start on.
    best = (scale, matched, phi, h_c)
    # Multiplier and penalty weight of the floor constraint 1 - h^H R h / floor <= 0.
    lam, rho = 0.0, 1.0
    last = {}  # the latest Lagrangian point and its loss

    def lagrangian(x_mat):
        # Augmented Lagrangian of the loss, in units of the matched start's loss.
        loss, grad = _loss_gradient(x_mat, None, spec, st)
        last.update(x=x_mat, loss=loss)
        v = x_mat.conj().T @ h_c
        mult = max(0.0, lam + rho * (1.0 - float(np.vdot(v, v).real) / floor))
        value = loss / scale + (mult * mult - lam * lam) / (2.0 * rho)
        if mult == 0.0:  # the floor is slack
            return value, grad / scale
        return value, grad / scale - (mult / floor) * np.outer(h_c, v.conj())

    # Start: the matched comm column plus a small seeded sensing part.
    x = np.column_stack([comm, 0.05 * (
        rng.standard_normal((l_t, k_targets)) + 1j * rng.standard_normal((l_t, k_targets))
    )])
    trace, iterations, evaluations, prev_viol = [], 0, 0, math.inf
    # A start with zero loss is optimal (its gradient is zero too), and the
    # Lagrangian is in units of its loss: it is the design, with no solve.
    converged, grad_norm, stop = scale == 0.0, 0.0, "tol"
    for _ in range(0 if converged else _MAX_OUTER):
        res = riemannian_descent(lagrangian, x, _TOL)
        x = res.x
        iterations += res.iterations
        evaluations += res.evaluations
        trace.extend(scale * res.trace)
        grad_norm, stop = scale * res.grad_norm, res.stop
        viol = 1.0 - _received_power(x, h_c) / floor
        if lam + rho * viol > 0:
            # The floor is active: maximize h^H R h over the RIS phases.
            phi = align_profile(x.conj().T @ scenario.h_bu, x.conj().T @ scenario.g_c,
                                scenario.r_c)
            h_c = scenario.h_c(phi)
            viol = 1.0 - _received_power(x, h_c) / floor
        # The solver's last evaluation is at its end point unless a line search failed.
        loss = (last["loss"] if np.array_equal(last["x"], x)
                else _loss_gradient(x, None, spec, st)[0])
        if loss < best[0] and _received_power(x, h_c) >= floor * (1.0 - _FEAS_TOL):
            best = (loss, x, phi, h_c)
        lam_next = max(0.0, lam + rho * viol)
        if res.stop == "tol" and viol <= _FEAS_TOL and (lam_next == 0.0 or viol >= -_FEAS_TOL):
            converged = True
            break
        if viol > max(_FEAS_TOL, 0.25 * prev_viol):
            rho *= 10.0
        prev_viol, lam = max(viol, 0.0), lam_next

    # Closed-form split of the best R: c = X u, W = X Q with Q orthonormal to
    # u. The Householder reflection that maps e_1 onto the line of u has Q as
    # its last K columns (numpy's QR would do too, at a first-call cost of
    # about 1 MB of resident memory).
    loss, x, phi, h_c = best
    v = x.conj().T @ h_c
    u = v / np.linalg.norm(v)
    w = u.copy()
    w[0] += np.exp(1j * np.angle(u[0]))
    q = np.eye(k_targets + 1, k_targets, -1) - np.outer(w, w[1:].conj()) / (1.0 + abs(u[0]))
    proj = st.grid_h @ x
    pattern = _pattern(proj)
    return DualDesign(
        comm_precoder=x @ u,
        sensing_precoder=x @ q,
        tau=_best_tau(pattern, spec.desired, st.denom),
        phi=phi,
        covariance=x @ x.conj().T,
        pattern=pattern,
        comm_pattern=_pattern(proj @ u[:, None]),
        sense_pattern=_pattern(proj @ q),
        sinr=float(np.real(np.vdot(v, v))) / sigma_c,
        loss=loss,
        objective_trace=np.asarray(trace),
        converged=converged,
        iterations=iterations,
        evaluations=evaluations,
        grad_norm=grad_norm,
        stop=stop,
    )
