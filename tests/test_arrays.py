import numpy as np
import pytest

from risac import UlaGeometry, steering_derivative, steering_vector


def scalar_loop_steering(length, angle, spacing=0.5):
    """Independent elementwise oracle for the steering formula."""
    out = np.zeros(length, dtype=complex)
    for k in range(length):
        m_k = k - (length - 1) / 2.0
        out[k] = np.exp(1j * 2.0 * np.pi * spacing * m_k * np.sin(angle))
    return out


def test_single_element_is_one():
    sv = steering_vector(UlaGeometry(1), 0.3)
    assert np.allclose(sv, [1.0])


def test_broadside_two_elements():
    sv = steering_vector(UlaGeometry(2), 0.0)
    assert np.allclose(sv, [1.0, 1.0])


def test_four_element_phases_match_scalar_loop():
    sv = steering_vector(UlaGeometry(4), np.pi / 6)
    assert np.allclose(sv, scalar_loop_steering(4, np.pi / 6), atol=1e-15)
    # phases are pi * sin(pi/6) * {-1.5, -0.5, 0.5, 1.5}
    expected = np.pi * 0.5 * np.array([-1.5, -0.5, 0.5, 1.5])
    assert np.allclose(np.angle(sv), expected)


def test_nonfinite_angle_rejected():
    with pytest.raises(ValueError):
        steering_vector(UlaGeometry(3), np.nan)
    with pytest.raises(ValueError):
        steering_derivative(UlaGeometry(3), np.inf)
    with pytest.raises(ValueError):
        steering_vector(UlaGeometry(4), [0.1, np.inf])


@pytest.mark.parametrize("elements, spacing", [(1, 0.5), (6, 0.5), (15, 0.37)])
def test_angle_array_gives_one_column_per_angle(elements, spacing):
    geom = UlaGeometry(elements, spacing)
    angles = np.random.default_rng(elements).uniform(-4.0, 4.0, 9)
    matrix = steering_vector(geom, angles)
    assert matrix.shape == (elements, angles.size)
    for k, angle in enumerate(angles):
        assert np.array_equal(matrix[:, k], steering_vector(geom, angle))
    assert steering_vector(geom, angles[:0]).shape == (elements, 0)


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        UlaGeometry(0)
    with pytest.raises(ValueError):
        UlaGeometry(4, spacing_wavelengths=0.0)


def test_derivative_single_element_zero():
    assert np.allclose(steering_derivative(UlaGeometry(1), 0.7), [0.0])


def test_derivative_three_element_broadside():
    d = steering_derivative(UlaGeometry(3), 0.0)
    assert np.allclose(d, [-1j * np.pi, 0.0, 1j * np.pi])
    assert np.isclose(np.real(np.vdot(d, d)), 2.0 * np.pi**2)


def test_derivative_orthogonal_to_steering():
    geom = UlaGeometry(5)
    a = steering_vector(geom, 0.4)
    d = steering_derivative(geom, 0.4)
    assert abs(np.vdot(d, a)) < 1e-12


@pytest.mark.parametrize("length", [1, 2, 3, 8, 15, 100])
@pytest.mark.parametrize("angle", [-1.2, -0.3, 0.0, 0.5, 1.4])
def test_steering_invariants(length, angle):
    geom = UlaGeometry(length)
    a = steering_vector(geom, angle)
    d = steering_derivative(geom, angle)
    assert np.allclose(np.abs(a), 1.0)
    assert np.isclose(np.real(np.vdot(a, a)), length)
    assert abs(np.vdot(d, a)) < 1e-10 * length


@pytest.mark.parametrize("length", [2, 5, 12])
@pytest.mark.parametrize("angle", [-0.9, 0.1, 1.0])
def test_derivative_matches_finite_differences(length, angle):
    geom = UlaGeometry(length)
    step = 1e-6
    fd = (
        steering_vector(geom, angle + step)
        - steering_vector(geom, angle - step)
    ) / (2.0 * step)
    d = steering_derivative(geom, angle)
    assert np.linalg.norm(d - fd) < 1e-6 * max(np.linalg.norm(fd), 1.0)
