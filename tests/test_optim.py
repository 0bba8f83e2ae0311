import numpy as np
import pytest

from risac.optim import SolverConfig, riemannian_descent

from oracles import finite_difference_gradient


def bowl(target):
    """||X - target||^2 and its Wirtinger gradient X - target."""
    return lambda x: (float(np.sum(np.abs(x - target) ** 2)), x - target)


def test_quadratic_bowl():
    # On the oblique manifold the minimizer of ||X - T||^2 is T with its rows
    # normalized.
    target = np.array([[1.0, -2.0j], [3.0, 0.5 + 1j], [-0.2j, 0.1]])
    res = riemannian_descent(bowl(target), "oblique", np.ones((3, 2), dtype=complex),
                             SolverConfig(tol=1e-8, max_iter=5000))
    nearest = target / np.linalg.norm(target, axis=1, keepdims=True)
    assert np.linalg.norm(res.x - nearest) < 1e-6
    assert np.all(np.diff(res.trace) <= 0.0)
    assert res.converged and res.stop == "tol" and res.grad_norm <= 1e-8 * res.objective


def test_circle_projection_moves_to_nearest_point():
    # minimize |x - 2|^2 over the unit circle -> x = 1
    res = riemannian_descent(
        lambda x: (float(np.abs(x[0] - 2.0) ** 2), x - 2.0),
        "circle",
        np.array([np.exp(1j * 2.0)]),
        SolverConfig(tol=1e-12, max_iter=5000),
    )
    assert abs(res.x[0] - 1.0) < 1e-6
    assert res.converged


def test_constant_objective_returns_init():
    init = np.exp(1j * np.array([4.0, 5.0]))
    res = riemannian_descent(lambda x: (1.0, np.zeros_like(x)), "circle", init)
    assert res.iterations == 0
    assert np.allclose(res.x, init)
    assert res.converged and res.stop == "tol"


def test_radial_gradient_is_stationary():
    # 2.5 ||x||^2 is constant on the manifold: its gradient 2.5 x is radial,
    # with no tangent part, so the start is already optimal.
    init = np.exp(1j * np.array([0.3, -1.2, 2.0]))
    res = riemannian_descent(
        lambda x: (2.5 * float(np.sum(np.abs(x) ** 2)), 2.5 * x), "circle", init
    )
    assert res.iterations == 0 and res.stop == "tol"


def test_max_iter_stop_is_reported():
    target = np.array([[1.0, 2.0], [0.5j, -1.0]])
    res = riemannian_descent(bowl(target), "oblique", np.ones((2, 2), dtype=complex),
                             SolverConfig(tol=0.0, max_iter=3))
    assert res.iterations == 3 and len(res.trace) == 4
    assert not res.converged and res.stop == "max_iter"
    assert res.grad_norm > 0.0


def test_no_descent_stop_is_reported():
    # A gradient that points uphill: no step decreases the objective.
    def uphill(x):
        return float(np.real(x[0])), -0.5 * np.ones_like(x)

    res = riemannian_descent(uphill, "circle", np.array([1j]))
    assert not res.converged and res.stop == "no_descent"
    assert res.iterations == 0 and np.allclose(res.x, [1j])


def test_iterates_stay_on_the_manifold():
    rng = np.random.default_rng(2)
    target = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    res = riemannian_descent(bowl(target), "oblique",
                             rng.standard_normal((4, 3)) + 0j, SolverConfig(max_iter=7))
    assert np.allclose(np.linalg.norm(res.x, axis=1), 1.0, atol=1e-15)


def test_rejects_unknown_manifold_and_wrong_rank():
    with pytest.raises(ValueError, match="manifold"):
        riemannian_descent(bowl(np.ones(2)), "sphere", np.ones(2))
    with pytest.raises(ValueError, match="circle"):
        riemannian_descent(bowl(np.ones((2, 2))), "circle", np.ones((2, 2)))
    with pytest.raises(ValueError, match="oblique"):
        riemannian_descent(bowl(np.ones(2)), "oblique", np.ones(2))


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
        return riemannian_descent(
            bowl(np.full((4, 2), 1.5 - 0.5j)), "oblique", np.eye(4, 2, dtype=complex)
        )

    r1, r2 = run(), run()
    assert np.array_equal(r1.trace, r2.trace)
    assert np.array_equal(r1.x, r2.x)
