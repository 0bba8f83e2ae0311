"""One Riemannian descent, on the oblique manifold.

The oblique manifold holds the complex matrices with unit-norm rows, a
product of unit spheres: the transmit factor X of a covariance R = X X^H
with unit diagonal (``dual_waveform``). ``riemannian_descent`` projects the
gradient onto the tangent space, retracts by normalization, and steps along
a limited-memory BFGS direction with monotone Armijo backtracking, so its
trace never increases (Absil, Mahony & Sepulchre 2008; Huang, Gallivan &
Absil 2015; Boumal 2023). The (s, y) pairs are steps and tangent-gradient
changes in ambient coordinates, with no vector transport; the direction is
projected onto the tangent space at x.

It stops when the tangent-gradient norm falls to ``tol * |f|``. The
tolerance is relative because the line search cannot resolve a decrease
below the rounding of f, about 1e-16 |f|; every step rule is invariant to
the scale of f too. An objective whose minimum is 0 therefore ends on
``no_descent`` or, after ``MAX_ITER`` accepted steps, on ``max_iter``, and
the result says so. The helpers are written for per-call overhead. The path
is stable at rounding level: at the default ``beampattern`` design, forming
|proj|^2 as re^2 + im^2 in the loss keeps the iteration and evaluation
counts and moves the loss by 1.2e-13 relative
(``tests/test_dual_waveform.py`` checks it).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Tuple

import numpy as np

__all__ = [
    "SolverResult",
    "riemannian_descent",
]

ARMIJO_C = 1e-4   # sufficient-decrease constant of the backtracking line search
BACKTRACK = 0.5   # step shrink factor per rejected trial
MEMORY = 96       # (s, y) pairs the quasi-Newton direction keeps
MAX_ITER = 2000   # accepted steps before a solve stops on "max_iter"


@dataclasses.dataclass(eq=False)
class SolverResult:
    x: np.ndarray
    trace: np.ndarray   # objective at the accepted iterates, non-increasing
    iterations: int
    evaluations: int    # calls of ``fun``
    grad_norm: float    # tangent-gradient norm at x
    stop: str           # "tol", "max_iter" or "no_descent"


def _normalize(x: np.ndarray) -> np.ndarray:
    """Retraction: rows to unit norm; an all-zero row maps to e_1."""
    # numpy's own body of np.linalg.norm(x, axis=1, keepdims=True).
    norms = np.sqrt(np.add.reduce((x.conj() * x).real, axis=1, keepdims=True))
    zero = norms[:, 0] < 1e-300
    if zero.any():
        x = np.where(zero[:, None], np.eye(1, x.shape[1]), x)
        norms = np.where(zero[:, None], 1.0, norms)
    return x / norms


def _tangent(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    # Remove the radial component of each row.
    return g - np.add.reduce(x.conj() * g, axis=1, keepdims=True).real * x


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, b).real)


def _flat(z: np.ndarray) -> np.ndarray:
    """The real coordinates of a complex array, as one flat view where possible."""
    return z.reshape(-1).view(float)


class _InverseHessian:
    """Limited-memory BFGS inverse Hessian in compact form (Byrd, Nocedal & Schnabel 1994).

    With the last ``MEMORY`` pairs as the rows of S and Y, R the upper
    triangle of S Y^T, D its diagonal and gamma = s^T y / y^T y of the newest
    pair,
    H g = gamma g + S^T w - gamma Y^T u,  u = R^-1 S g,
    w = R^-T ((D + gamma Y Y^T) u - gamma Y g).
    R^-1 and Y Y^T are updated as pairs come and go, so a product costs four
    (pairs x n) products and two (pairs x pairs) ones, and no solve. Vectors
    are flat real views of the complex ambient coordinates.
    """

    def __init__(self, n: int, gamma: float):
        self.s = np.empty((MEMORY, n))
        self.y = np.empty((MEMORY, n))
        self.r_inv = np.zeros((MEMORY, MEMORY))
        self.yy = np.empty((MEMORY, MEMORY))
        self.sy = np.empty(MEMORY)
        self.gamma = gamma
        self.count = 0

    def clear(self) -> None:
        self.count = 0

    def push(self, s: np.ndarray, y: np.ndarray) -> None:
        """Store the pair if s^T y > 0, dropping the oldest one when full."""
        sy = float(s @ y)
        if not sy > 0:
            return
        k = self.count
        if k == MEMORY:
            k -= 1
            self.s[:k], self.y[:k], self.sy[:k] = self.s[1:], self.y[1:], self.sy[1:]
            # The trailing block of an upper-triangular inverse inverts the
            # trailing block.
            self.r_inv[:k, :k] = self.r_inv[1:, 1:]
            self.yy[:k, :k] = self.yy[1:, 1:]
        r_col = self.s[:k] @ y
        y_col = self.y[:k] @ y
        self.s[k], self.y[k], self.sy[k] = s, y, sy
        self.r_inv[:k, k] = (self.r_inv[:k, :k] @ r_col) / -sy
        self.r_inv[k, :k] = 0.0
        self.r_inv[k, k] = 1.0 / sy
        self.yy[:k, k] = self.yy[k, :k] = y_col
        self.yy[k, k] = yy = float(y @ y)
        self.gamma = sy / yy
        self.count = k + 1

    def apply(self, g: np.ndarray) -> np.ndarray:
        """H g for a flat real g."""
        k, gamma = self.count, self.gamma
        if k == 0:
            return gamma * g
        s, y, r_inv = self.s[:k], self.y[:k], self.r_inv[:k, :k]
        u = r_inv @ (s @ g)
        w = ((self.sy[:k] * u + gamma * (self.yy[:k, :k] @ u)) - gamma * (y @ g)) @ r_inv
        return gamma * g + w @ s - gamma * (u @ y)


def riemannian_descent(
    fun: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    x0: np.ndarray,
    tol: float,
) -> SolverResult:
    """Minimize ``fun`` over the matrices with unit-norm rows, from a 2-D ``x0``.

    ``fun(x)`` returns the objective and its conjugate (Wirtinger) gradient
    d f / d conj(x) in one call; ``x0`` is normalized first. Each trial
    point costs one call; the unit quasi-Newton step is tried first, so most
    iterations cost exactly one.
    """
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    x0 = np.asarray(x0)
    if x0.ndim != 2:
        raise ValueError(f"the oblique manifold needs a 2-D start, got {x0.ndim}-D")

    def evaluate(x):
        f, g = fun(x)
        return float(f), _tangent(x, np.asarray(g))

    x = _normalize(x0.astype(complex, copy=False))
    f, rg = evaluate(x)
    gnorm = math.sqrt(_inner(rg, rg))
    trace = [f]
    # With no pairs yet, the first trial moves x by unit length.
    memory = _InverseHessian(2 * x.size, 1.0 / max(gnorm, 1e-300))
    stop, it, evaluations = "max_iter", 0, 1
    while gnorm > tol * abs(f):
        if it == MAX_ITER:
            break
        d = -_tangent(x, memory.apply(_flat(rg)).view(complex).reshape(x.shape))
        slope = _inner(rg, d)
        if not slope < 0:
            # Not a descent direction: drop the pairs, keep the scale.
            memory.clear()
            d = -memory.gamma * rg
            slope = -memory.gamma * gnorm**2
        dnorm = math.sqrt(_inner(d, d))
        # Armijo backtracking from the unit step, capped so that no row moves
        # more than half a turn; give up once the trial move is below rounding.
        t = min(1.0, np.pi / max(dnorm, 1e-300))
        while t * dnorm >= 1e-15:
            cand = _normalize(x + t * d)
            f_new, rg_new = evaluate(cand)
            evaluations += 1
            if f_new <= f + ARMIJO_C * t * slope:
                break
            t *= BACKTRACK
        else:
            stop = "no_descent"
            break
        it += 1
        memory.push(_flat(cand - x), _flat(rg_new - rg))
        x, f, rg = cand, f_new, rg_new
        gnorm = math.sqrt(_inner(rg, rg))
        trace.append(f)
    else:
        stop = "tol"
    return SolverResult(x, np.asarray(trace), it, evaluations, float(gnorm), stop)
