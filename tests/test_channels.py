import numpy as np
import pytest

from risac import (
    DegenerateGeometryError,
    RisProfile,
    Scene,
    UlaGeometry,
    angles_from_geometry,
    build_channel_set,
    build_comms_channel,
    build_ris_dyads,
    build_sensing_channels,
    pathloss_amplitude,
    steering_vector,
)
from risac.channels import path_gains


def simple_scene(**overrides):
    base = dict(
        bs_position=(0.0, 0.0),
        ris_position=(30.0, 30.0),
        target_position=(40.0, 0.0),
        user_position=(20.0, -20.0),
        tx=UlaGeometry(4),
        rx=UlaGeometry(4),
        ris=UlaGeometry(3),
        seed=5,
    )
    base.update(overrides)
    return Scene(**base)


def test_angles_table_geometry():
    scene = simple_scene()
    angles = angles_from_geometry(scene)
    assert angles.theta1 == 0.0  # target on the BS broadside axis
    assert np.isclose(angles.omega_t, np.pi / 4)  # RIS at [30, 30]


def test_target_at_ris_broadside():
    scene = simple_scene(target_position=(40.0, 30.0))
    assert np.isclose(angles_from_geometry(scene).theta2, 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "field",
    ["noise_power_sensing", "noise_power_comms", "transmit_power", "target_gain_var"],
)
def test_non_finite_powers_rejected(field, bad):
    with pytest.raises(ValueError, match=field):
        simple_scene(**{field: bad})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "field", ["bs_position", "ris_position", "target_position", "user_position"]
)
@pytest.mark.parametrize("axis", [0, 1])
def test_non_finite_positions_rejected(field, bad, axis):
    point = [10.0, -10.0]
    point[axis] = bad
    with pytest.raises(ValueError, match=field):
        simple_scene(**{field: tuple(point)})


def test_coincident_positions_rejected():
    scene = simple_scene(target_position=(0.0, 0.0))
    with pytest.raises(DegenerateGeometryError):
        angles_from_geometry(scene)


def test_pathloss_reference_and_known_values():
    assert pathloss_amplitude(1.0, 2.5) == 1.0
    assert np.isclose(pathloss_amplitude(100.0, 2.0), 0.01)
    assert np.isclose(pathloss_amplitude(40.0, 2.5), 40.0 ** (-1.25))


def test_pathloss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        pathloss_amplitude(0.0, 2.5)
    with pytest.raises(ValueError):
        pathloss_amplitude(-1.0, 2.5)


def test_dyad_scalar_case_unit_gain():
    scene = simple_scene(
        tx=UlaGeometry(1), rx=UlaGeometry(1), ris=UlaGeometry(1),
        ris_gain_override=1.0,
    )
    g_t, g_r = build_ris_dyads(scene)
    assert g_t.shape == (1, 1) and g_r.shape == (1, 1)
    assert np.allclose(g_t, [[1.0]])


def test_dyads_are_rank_one():
    scene = simple_scene(tx=UlaGeometry(6), rx=UlaGeometry(5), ris=UlaGeometry(7))
    g_t, g_r = build_ris_dyads(scene)
    assert np.linalg.matrix_rank(g_t) == 1
    assert np.linalg.matrix_rank(g_r) == 1


def test_beta_amplitude_from_table_distances():
    scene = simple_scene()
    gains = path_gains(scene)
    d_br = np.hypot(30.0, 30.0)
    d_rt = np.hypot(10.0, 30.0)
    assert np.isclose(abs(gains.beta_t), d_br ** (-1.1) * d_rt ** (-1.1))
    assert np.isclose(abs(gains.alpha_t), 40.0 ** (-1.25))


def test_blocked_direct_removes_only_alpha_terms():
    scene = simple_scene(blocked_direct=True)
    phi = RisProfile.ones(3)
    h_t, h_r = build_sensing_channels(scene, phi)
    g_t, g_r = build_ris_dyads(scene)
    angles = angles_from_geometry(scene)
    b = steering_vector(scene.ris, angles.theta2).entries
    assert np.allclose(h_t, g_t @ (phi.phases * b))
    assert np.allclose(h_r, g_r @ (phi.phases * b))


def test_no_ris_reduces_to_direct_path():
    scene = simple_scene(ris=None)
    h_t, _ = build_sensing_channels(scene, np.zeros(0))
    gains = path_gains(scene)
    angles = angles_from_geometry(scene)
    a_t = steering_vector(scene.tx, angles.theta1).entries
    assert np.allclose(h_t, gains.alpha_t * a_t)
    assert np.allclose(build_comms_channel(scene, np.zeros(0)),
                       gains.gain_bu * steering_vector(scene.tx, angles.theta_user_bs).entries)


def test_scalar_case_hand_expansion():
    scene = simple_scene(
        tx=UlaGeometry(1), rx=UlaGeometry(1), ris=UlaGeometry(1),
        direct_gain_override=1.0, ris_gain_override=1.0,
    )
    h_t, _ = build_sensing_channels(scene, RisProfile.ones(1))
    angles = angles_from_geometry(scene)
    # 1x1 arrays have scalar steering 1, so the channel is alpha + beta * conj(b_in) * b_tgt
    b_in = np.exp(1j * 2 * np.pi * 0.5 * 0 * np.sin(angles.omega_t))
    b_tgt = np.exp(1j * 2 * np.pi * 0.5 * 0 * np.sin(angles.theta2))
    assert np.allclose(h_t, [1.0 + np.conj(b_in) * b_tgt])

    h_c = build_comms_channel(scene, RisProfile.ones(1))
    gains = path_gains(scene)
    assert np.allclose(h_c, [gains.gain_bu + gains.gain_ru])


def test_ris_term_linear_in_profile():
    scene = simple_scene(blocked_direct=True)
    rng = np.random.default_rng(0)
    phi1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    phi2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    h1, _ = build_sensing_channels(scene, phi1)
    h2, _ = build_sensing_channels(scene, phi2)
    h12, _ = build_sensing_channels(scene, phi1 + phi2)
    assert np.allclose(h12, h1 + h2, atol=1e-15)


def test_channel_set_composition_bit_for_bit():
    scene = simple_scene()
    phi = RisProfile.from_angles(np.array([0.3, -1.0, 2.2]))
    cs = build_channel_set(scene, phi)
    angles = angles_from_geometry(scene)
    a_t = steering_vector(scene.tx, angles.theta1).entries
    recomposed = cs.alpha_t * a_t + cs.g_t @ (phi.phases * cs.b_target)
    assert np.array_equal(cs.h_t, recomposed)
    assert np.array_equal(cs.h_c, cs.h_bu + cs.g_t @ (phi.phases * cs.h_ru))


def test_gains_deterministic_per_seed():
    scene = simple_scene(seed=42)
    g1, g2 = path_gains(scene), path_gains(scene)
    assert g1 == g2
    g3 = path_gains(simple_scene(seed=43))
    assert g1.alpha_t != g3.alpha_t


def test_profile_validation():
    with pytest.raises(ValueError):
        RisProfile(np.array([1.0, 0.5]))
    prof = RisProfile.from_angles([0.1, 0.2])
    assert np.allclose(np.abs(prof.phases), 1.0)


def test_profile_length_mismatch():
    scene = simple_scene()
    with pytest.raises(ValueError):
        build_sensing_channels(scene, RisProfile.ones(5))
