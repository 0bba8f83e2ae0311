"""One Riemannian descent for the package's unit-modulus problems.

Both feasible sets are products of unit spheres. The oblique manifold holds
the complex matrices with unit-norm rows (a transmit covariance R = X X^H
with unit diagonal); the complex circle manifold holds the vectors with
unit-modulus entries (an RIS profile), which is the oblique manifold of one
column. ``riemannian_descent`` projects the gradient onto the tangent space,
retracts by normalization, and takes Barzilai-Borwein (BB) steps with
monotone Armijo backtracking, so its trace never increases (Absil, Mahony &
Sepulchre 2008; Boumal 2023).

It stops when the tangent-gradient norm falls to ``tol * |f|``. The
tolerance is relative because the line search cannot resolve a decrease
below the rounding of f, about 1e-16 |f|; every step rule is invariant to
the scale of f too. An objective whose minimum is 0 therefore ends on
``no_descent`` or ``max_iter``, and the result says so. The helpers are
written for per-call overhead; a rewrite must stay bit-identical, since the
solver path is chaotic at rounding level.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Tuple

import numpy as np

__all__ = [
    "SolverConfig",
    "SolverResult",
    "riemannian_descent",
]

MANIFOLDS = ("oblique", "circle")


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-7        # stop once the tangent-gradient norm is <= tol * |f|
    max_iter: int = 2000
    armijo_c: float = 1e-4
    backtrack: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.backtrack < 1.0:
            raise ValueError("backtrack must lie in (0, 1)")
        if not self.tol >= 0:
            raise ValueError("tol must be nonnegative")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")


@dataclasses.dataclass(eq=False)
class SolverResult:
    x: np.ndarray
    objective: float
    trace: np.ndarray   # objective at the accepted iterates, non-increasing
    converged: bool     # stopped on the tolerance
    iterations: int
    evaluations: int    # calls of ``fun``
    grad_norm: float    # tangent-gradient norm at x
    stop: str           # "tol", "max_iter" or "no_descent"


def _unit_modulus(z: np.ndarray) -> np.ndarray:
    """z / |z| entrywise; an exact zero has no phase and maps to 1."""
    z = np.asarray(z, dtype=complex)
    mags = np.abs(z)
    zero = mags < 1e-300
    if zero.any():
        z, mags = np.where(zero, 1.0, z), np.where(zero, 1.0, mags)
    return z / mags


def _normalize(x: np.ndarray) -> np.ndarray:
    """Retraction: rows to unit norm; an all-zero row maps to e_1."""
    if x.shape[1] == 1:
        return _unit_modulus(x)
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


def riemannian_descent(
    fun: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    manifold: str,
    x0: np.ndarray,
    cfg: SolverConfig = SolverConfig(),
) -> SolverResult:
    """Minimize ``fun`` over the unit-norm rows of a matrix or unit-modulus entries of a vector.

    ``fun(x)`` returns the objective and its conjugate (Wirtinger) gradient
    d f / d conj(x) in one call. ``manifold`` is "oblique" for a 2-D ``x0``
    (unit-norm rows) or "circle" for a 1-D ``x0`` (unit-modulus entries);
    ``x0`` is normalized first. Each trial point costs one call; the BB step
    is tried first, so most iterations cost exactly one.
    """
    if manifold not in MANIFOLDS:
        raise ValueError(f"manifold must be one of {MANIFOLDS}")
    x0 = np.asarray(x0)
    ndim = 2 if manifold == "oblique" else 1
    if x0.ndim != ndim:
        raise ValueError(f"the {manifold} manifold needs a {ndim}-D start")
    shape = x0.shape
    rows = x0 if ndim == 2 else x0.reshape(-1, 1)  # a circle point is a column

    def evaluate(x):
        f, g = fun(x.reshape(shape))
        return float(f), _tangent(x, np.asarray(g).reshape(x.shape))

    x = _normalize(rows)
    f, rg = evaluate(x)
    gnorm = math.sqrt(_inner(rg, rg))
    trace = [f]
    step = 1.0 / max(gnorm, 1e-300)  # the first trial moves x by unit length
    stop, it, evaluations = "max_iter", 0, 1
    while gnorm > cfg.tol * abs(f):
        if it == cfg.max_iter:
            break
        # Armijo backtracking from the BB step; give up once the trial move
        # is below rounding.
        while step * gnorm >= 1e-15:
            cand = _normalize(x - step * rg)
            f_new, rg_new = evaluate(cand)
            evaluations += 1
            if f_new <= f - cfg.armijo_c * step * gnorm**2:
                break
            step *= cfg.backtrack
        else:
            stop = "no_descent"
            break
        it += 1
        s, y = cand - x, rg_new - rg
        sy = abs(_inner(s, y))
        # Alternate the long and short BB steps.
        if sy > 0:
            step = _inner(s, s) / sy if it % 2 else sy / _inner(y, y)
        x, f, rg = cand, f_new, rg_new
        gnorm = math.sqrt(_inner(rg, rg))
        trace.append(f)
        # No row moves more than half a turn per step.
        step = min(step, np.pi / max(gnorm, 1e-300))
    else:
        stop = "tol"
    return SolverResult(
        x.reshape(shape), f, np.asarray(trace), stop == "tol", it, evaluations,
        float(gnorm), stop,
    )
