import numpy as np
import pytest

from risac import optim
from risac.optim import (
    MEMORY,
    _inner,
    _normalize,
    _tangent,
    riemannian_descent,
)

from oracles import finite_difference_gradient


def bowl(target):
    """||X - target||^2 and its Wirtinger gradient X - target."""
    return lambda x: (float(np.sum(np.abs(x - target) ** 2)), x - target)


def test_quadratic_bowl():
    # On the oblique manifold the minimizer of ||X - T||^2 is T with its rows
    # normalized.
    target = np.array([[1.0, -2.0j], [3.0, 0.5 + 1j], [-0.2j, 0.1]])
    res = riemannian_descent(bowl(target), np.ones((3, 2), dtype=complex), 1e-8)
    nearest = target / np.linalg.norm(target, axis=1, keepdims=True)
    assert np.linalg.norm(res.x - nearest) < 1e-6
    assert np.all(np.diff(res.trace) <= 0.0)
    assert res.stop == "tol" and res.grad_norm <= 1e-8 * res.trace[-1]


def test_circle_projection_moves_to_nearest_point():
    # minimize |x - 2|^2 over the unit circle, the oblique manifold of one
    # 1 x 1 matrix -> x = 1
    res = riemannian_descent(
        lambda x: (float(np.abs(x[0, 0] - 2.0) ** 2), x - 2.0),
        np.array([[np.exp(1j * 2.0)]]),
        1e-12,
    )
    assert abs(res.x[0, 0] - 1.0) < 1e-6
    assert res.stop == "tol"


def test_constant_objective_returns_init():
    init = np.exp(1j * np.array([[4.0], [5.0]]))
    res = riemannian_descent(lambda x: (1.0, np.zeros_like(x)), init, 1e-7)
    assert res.iterations == 0
    assert np.allclose(res.x, init)
    assert res.stop == "tol"


def test_empty_circle_start_returns_at_once():
    # A start with no rows (one column: a point on a product of no circles)
    # is the empty manifold's only point.
    res = riemannian_descent(lambda x: (-3.0, np.zeros_like(x)), np.zeros((0, 1)), 1e-7)
    assert res.x.shape == (0, 1) and list(res.trace) == [-3.0]
    assert res.iterations == 0 and res.evaluations == 1 and res.stop == "tol"


def test_radial_gradient_is_stationary():
    # 2.5 ||x||^2 is constant on the manifold: its gradient 2.5 x is radial,
    # with no tangent part, so the start is already optimal.
    init = np.exp(1j * np.array([[0.3], [-1.2], [2.0]]))
    res = riemannian_descent(lambda x: (2.5 * float(np.sum(np.abs(x) ** 2)), 2.5 * x), init,
                             1e-7)
    assert res.iterations == 0 and res.stop == "tol"


def test_max_iter_stop_is_reported(monkeypatch):
    monkeypatch.setattr(optim, "MAX_ITER", 3)
    target = np.array([[1.0, 2.0], [0.5j, -1.0]])
    res = riemannian_descent(bowl(target), np.ones((2, 2), dtype=complex), 0.0)
    assert res.iterations == 3 and len(res.trace) == 4
    assert res.stop == "max_iter"
    assert res.grad_norm > 0.0


def test_no_descent_stop_is_reported():
    # A gradient that points uphill: no step decreases the objective.
    def uphill(x):
        return float(np.real(x[0, 0])), -0.5 * np.ones_like(x)

    res = riemannian_descent(uphill, np.array([[1j]]), 1e-7)
    assert res.stop == "no_descent"
    assert res.iterations == 0 and np.allclose(res.x, [[1j]])


def test_iterates_stay_on_the_manifold(monkeypatch):
    monkeypatch.setattr(optim, "MAX_ITER", 7)
    rng = np.random.default_rng(2)
    target = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    res = riemannian_descent(bowl(target), rng.standard_normal((4, 3)) + 0j, 1e-7)
    assert np.allclose(np.linalg.norm(res.x, axis=1), 1.0, atol=1e-15)


def test_rejects_a_start_that_is_not_2d():
    for start in (np.ones(2), np.ones((2, 2, 2)), np.array(1.0)):
        with pytest.raises(ValueError, match="2-D start"):
            riemannian_descent(bowl(start), start, 1e-7)


def test_rejects_a_negative_or_nan_tolerance():
    for tol in (-1e-7, np.nan):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            riemannian_descent(bowl(np.ones((2, 2))), np.ones((2, 2)), tol)


def test_fd_gradient_linear_exact():
    c = np.array([2.0, -3.0])
    grad = finite_difference_gradient(lambda x: float(c @ x), np.array([1.0, 1.0]))
    assert np.allclose(grad, c, atol=1e-8)


def test_fd_gradient_quadratic():
    grad = finite_difference_gradient(
        lambda x: float(np.sum(x**2)), np.array([1.0, -2.0]), step=1e-5
    )
    assert np.allclose(grad, [2.0, -4.0], atol=1e-8)


def test_fd_gradient_complex_convention():
    # f = |z|^2 has Wirtinger gradient d f / d conj(z) = z.
    z = np.array([1.0 + 2.0j, -0.5 + 0.25j])
    grad = finite_difference_gradient(lambda x: float(np.sum(np.abs(x) ** 2)), z)
    assert np.allclose(grad, z, atol=1e-7)


def test_riemannian_descent_deterministic():
    def run():
        return riemannian_descent(bowl(np.full((4, 2), 1.5 - 0.5j)),
                                  np.eye(4, 2, dtype=complex), 1e-7)

    r1, r2 = run(), run()
    assert np.array_equal(r1.trace, r2.trace)
    assert np.array_equal(r1.x, r2.x)


# The plain numpy expressions the solver helpers were trimmed from. The
# helpers equal them bit for bit, so trimming them moved no output. One
# changed rounding keeps the default design's solver path but moves its
# pattern cells by up to 6.9e-7 relative, past the goldens' 1e-9 (see
# tests/test_golden_outputs.py).
def normalize_reference(x):
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    zero = norms[:, 0] < 1e-300
    x = np.where(zero[:, None], np.eye(1, x.shape[1]), x)
    return x / np.where(zero[:, None], 1.0, norms)


def tangent_reference(x, g):
    return g - np.real(np.sum(np.conj(x) * g, axis=1, keepdims=True)) * x


def inner_reference(a, b):
    return float(np.real(np.vdot(a, b)))


def assert_same_bits(ours, ref):
    ours, ref = np.asarray(ours), np.asarray(ref)
    assert ours.dtype == ref.dtype and ours.shape == ref.shape
    assert ours.tobytes() == ref.tobytes()


def random_rows(rng, shape):
    """Complex rows whose norms span six decades, so rounding differs row to row."""
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z * 10.0 ** rng.uniform(-3.0, 3.0, (shape[0], 1))


SHAPES = [(15, 3), (4, 1), (7, 5), (3, 12), (20, 1), (1, 9)]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("shape", SHAPES)
def test_helpers_bitwise_equal_their_reference_forms(seed, shape):
    rng = np.random.default_rng(seed)
    x, g = random_rows(rng, shape), random_rows(rng, shape)
    assert_same_bits(_normalize(x), normalize_reference(x))
    u = normalize_reference(x)
    assert_same_bits(_tangent(u, g), tangent_reference(u, g))
    assert_same_bits(_inner(x, g), inner_reference(x, g))
    assert _inner(g, g) == inner_reference(g, g) and isinstance(_inner(g, g), float)


def test_zero_row_and_zero_entry_match_reference():
    # An all-zero row retracts to e_1 (an exact zero entry of one column to
    # 1), and every other row is untouched by the fix-up.
    rng = np.random.default_rng(9)
    x = random_rows(rng, (5, 3))
    x[2] = 0.0
    out = _normalize(x)
    assert_same_bits(out, normalize_reference(x))
    assert np.array_equal(out[2], [1.0, 0.0, 0.0])
    assert_same_bits(out[[0, 1, 3, 4]], normalize_reference(x[[0, 1, 3, 4]]))

    z = random_rows(rng, (6, 1))
    z[[1, 4]] = 0.0
    out = _normalize(z)
    assert_same_bits(out, normalize_reference(z))
    assert np.array_equal(out[[1, 4], 0], [1.0, 1.0])


def test_retraction_does_not_write_to_its_input():
    z = np.array([[0.0 + 0j], [2.0 - 1j]])
    before = z.copy()
    _normalize(z)
    assert_same_bits(z, before)


def counted(fun):
    calls = []

    def wrapped(x):
        calls.append(x.copy())
        return fun(x)

    return wrapped, calls


# "circle" labels the one-column starts: the oblique manifold of one column is
# the product of unit circles. ``cfg`` is (tol, MAX_ITER).
@pytest.mark.parametrize("label, start, fun, cfg", [
    ("oblique", np.ones((3, 2), dtype=complex),
     bowl(np.array([[1.0, -2.0j], [3.0, 0.5 + 1j], [-0.2j, 0.1]])), (1e-8, optim.MAX_ITER)),
    ("oblique", np.ones((2, 2), dtype=complex),
     bowl(np.array([[1.0, 2.0], [0.5j, -1.0]])), (0.0, 3)),
    ("circle", np.array([[1j]]),
     lambda x: (float(np.real(x[0, 0])), -0.5 * np.ones_like(x)), (1e-7, optim.MAX_ITER)),
    ("circle", np.exp(1j * np.array([[4.0], [5.0]])),
     lambda x: (1.0, np.zeros_like(x)), (1e-7, optim.MAX_ITER)),
])
def test_evaluations_count_every_call(monkeypatch, label, start, fun, cfg):
    tol, max_iter = cfg
    monkeypatch.setattr(optim, "MAX_ITER", max_iter)
    wrapped, calls = counted(fun)
    res = riemannian_descent(wrapped, start, tol)
    assert res.evaluations == len(calls)
    # One call at the start, at least one per accepted step; the uphill case
    # backtracks until the move is below rounding.
    assert res.evaluations >= res.iterations + 1
    if res.stop == "no_descent":
        assert res.evaluations > 40


def recorded_pushes(monkeypatch):
    """Record (s^T y, pairs before, pairs after) for every pair the solver offers."""
    log = []
    push = optim._InverseHessian.push

    def recorded(memory, s, y):
        before = memory.count
        push(memory, s, y)
        log.append((float(s @ y), before, memory.count))

    monkeypatch.setattr(optim._InverseHessian, "push", recorded)
    return log


def test_negative_curvature_pairs_are_not_stored(monkeypatch):
    # -x^H Q x with Q > 0 is concave, so some steps meet s^T y <= 0.
    log = recorded_pushes(monkeypatch)
    rng = np.random.default_rng(0)
    b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    q = b.conj().T @ b

    def concave(x):
        qx = q @ x
        return -float(np.vdot(x, qx).real), -qx

    res = riemannian_descent(concave, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (8, 1))),
                             1e-10)
    assert any(sy <= 0.0 for sy, _, _ in log)
    assert all(after == before + 1 for sy, before, after in log if sy > 0.0)
    assert all(after == before for sy, before, after in log if sy <= 0.0)
    assert np.all(np.diff(res.trace) <= 0.0)
    assert res.stop in ("tol", "max_iter", "no_descent")


def test_ill_conditioned_quadratic_runs_past_the_memory(monkeypatch):
    # Weights from 1 to 1e4 on ||X - T||^2: the ambient Hessian has condition
    # number 1e4, and the solve takes more than three memories of steps.
    log = recorded_pushes(monkeypatch)
    rng = np.random.default_rng(1)
    shape = (100, 4)
    w = np.logspace(0.0, 4.0, 400)
    rng.shuffle(w)
    w = w.reshape(shape)
    target = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def weighted_bowl(x):
        return float(np.sum(w * np.abs(x - target) ** 2)), w * (x - target)

    res = riemannian_descent(weighted_bowl, np.ones(shape, dtype=complex), 1e-7)
    assert res.iterations > 3 * MEMORY
    assert res.stop == "tol" and res.grad_norm <= 1e-7 * res.trace[-1]
    assert max(after for _, _, after in log) == MEMORY
    assert np.all(np.diff(res.trace) <= 0.0)


def test_an_uphill_direction_clears_the_memory(monkeypatch):
    # In exact arithmetic the stored pairs keep H positive definite; here H g
    # is flipped once, after three pairs, to reach the restart that rounding
    # could otherwise call for.
    apply = optim._InverseHessian.apply
    flipped, cleared = [], []

    def flip_once(memory, g):
        hg = apply(memory, g)
        if memory.count == 3 and not flipped:
            flipped.append(memory.count)
            return -hg
        return hg

    clear = optim._InverseHessian.clear

    def recorded_clear(memory):
        cleared.append(memory.count)
        clear(memory)

    monkeypatch.setattr(optim._InverseHessian, "apply", flip_once)
    monkeypatch.setattr(optim._InverseHessian, "clear", recorded_clear)
    target = np.array([[1.0, -2.0j], [3.0, 0.5 + 1j], [-0.2j, 0.1]])
    res = riemannian_descent(bowl(target), np.ones((3, 2), dtype=complex), 1e-8)
    assert flipped == [3] and cleared == [3]
    assert np.all(np.diff(res.trace) <= 0.0)
    assert res.stop == "tol"
