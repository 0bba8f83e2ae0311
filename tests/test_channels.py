import numpy as np
import pytest

from risac import (
    DegenerateGeometryError,
    RisIsacScenario,
    Scene,
    UlaGeometry,
    align_profile,
    angles_from_geometry,
    build_sensing_channels,
    pathloss_amplitude,
    steering_vector,
)
from risac.channels import _unit_modulus, path_gains
from risac.config import RunConfig, scene_from_config

from oracles import rank_one_illumination_bound, ris_maps_reference


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


def test_pathloss_amplitude_beyond_1e64_is_degenerate_geometry():
    # An RIS 1e-12 m from the target with exponent 20 (amplitude 1e120)
    # used to overflow in the ris-isac-tradeoff beamformer, and exponent
    # -300 at 1e6 m overflowed the power itself.
    assert pathloss_amplitude(1e-6, 20.0) == pytest.approx(1e60)
    for distance, exponent in ((1e-12, 20.0), (1e6, -30.0), (1e6, -300.0)):
        with pytest.raises(DegenerateGeometryError, match="1e64"):
            pathloss_amplitude(distance, exponent)
    assert pathloss_amplitude(1e6, 300.0) == 0.0


def test_dyad_scalar_case_unit_gain():
    scene = simple_scene(
        tx=UlaGeometry(1), rx=UlaGeometry(1), ris=UlaGeometry(1),
        ris_gain_override=1.0,
    )
    channel = RisIsacScenario.from_scene(scene)
    # 1x1 arrays have steering 1, so F = G diag(b) is the RIS gain itself.
    assert channel.f_t.shape == (1, 1) and channel.f_r.shape == (1, 1)
    assert np.allclose(channel.f_t, [[1.0]])


def test_dyads_are_rank_one():
    scene = simple_scene(tx=UlaGeometry(6), rx=UlaGeometry(5), ris=UlaGeometry(7))
    channel = RisIsacScenario.from_scene(scene)
    assert channel.f_t.shape == (6, 7) and channel.f_r.shape == (5, 7)
    assert np.linalg.matrix_rank(channel.f_t) == 1
    assert np.linalg.matrix_rank(channel.f_r) == 1


@pytest.mark.parametrize("seed, scaled", [(seed, False) for seed in range(10)] + [(0, True)])
def test_dyads_match_the_matrix_reference(seed, scaled):
    # Each stored dyad (g, r) gives the RIS map the scenario used to build as
    # a matrix, to rounding, at the config scenes and the scaled one; the
    # scenario derives F_t, F_r and F_c from theirs.
    sizes = {"n_ris": 256, "l_t": 32, "l_s": 32} if scaled else {}
    scene = scene_from_config(RunConfig(seed=seed, **sizes))
    channel = RisIsacScenario.from_scene(scene)
    dyads = {"f_t": (channel.g_t, channel.r_t), "f_r": (channel.g_r, channel.r_t),
             "f_c": (channel.g_c, channel.r_c), "f_t_dot": (channel.g_t, channel.r_t_dot),
             "f_r_dot": (channel.g_r, channel.r_t_dot)}
    for name, reference in ris_maps_reference(scene).items():
        derived = np.outer(*dyads[name])
        if name in ("f_t", "f_r", "f_c"):
            assert np.array_equal(getattr(channel, name), derived)
        np.testing.assert_allclose(derived, reference, rtol=1e-15, atol=0)


def test_beta_amplitude_from_table_distances():
    scene = simple_scene()
    gains = path_gains(scene)
    d_br = np.hypot(30.0, 30.0)
    d_rt = np.hypot(10.0, 30.0)
    assert np.isclose(abs(gains.beta_t), d_br ** (-1.1) * d_rt ** (-1.1))
    assert np.isclose(abs(gains.alpha_t), 40.0 ** (-1.25))


def test_blocked_direct_removes_only_alpha_terms():
    phi = np.ones(3, dtype=complex)
    open_path = RisIsacScenario.from_scene(simple_scene())
    blocked = RisIsacScenario.from_scene(simple_scene(direct_gain_override=0.0))
    assert np.all(blocked.a_t_term == 0) and np.all(blocked.a_r_term == 0)
    assert np.array_equal(blocked.f_t, open_path.f_t)
    assert np.array_equal(blocked.f_r, open_path.f_r)
    assert np.array_equal(blocked.h_c(phi), open_path.h_c(phi))
    assert np.allclose(blocked.h_t(phi), open_path.f_t @ phi)
    assert np.allclose(blocked.h_r(phi), open_path.f_r @ phi)


def test_no_ris_reduces_to_direct_path():
    scene = simple_scene(ris=None)
    channel = RisIsacScenario.from_scene(scene)
    assert channel.n_ris == 0
    gains = path_gains(scene)
    angles = angles_from_geometry(scene)
    a_t = steering_vector(scene.tx, angles.theta1)
    a_r = steering_vector(scene.rx, angles.theta1)
    assert np.allclose(channel.h_t(np.zeros(0)), gains.alpha_t * a_t)
    assert np.allclose(channel.h_r(np.zeros(0)), gains.alpha_r * a_r)
    assert np.allclose(channel.h_c(np.zeros(0)),
                       gains.gain_bu * steering_vector(scene.tx, angles.theta_user_bs))


def test_scalar_case_hand_expansion():
    scene = simple_scene(
        tx=UlaGeometry(1), rx=UlaGeometry(1), ris=UlaGeometry(1),
        direct_gain_override=1.0, ris_gain_override=1.0,
    )
    channel = RisIsacScenario.from_scene(scene)
    h_t = channel.h_t(np.ones(1, dtype=complex))
    angles = angles_from_geometry(scene)
    # 1x1 arrays have scalar steering 1, so the channel is alpha + beta * conj(b_in) * b_tgt
    b_in = np.exp(1j * 2 * np.pi * 0.5 * 0 * np.sin(angles.omega_t))
    b_tgt = np.exp(1j * 2 * np.pi * 0.5 * 0 * np.sin(angles.theta2))
    assert np.allclose(h_t, [1.0 + np.conj(b_in) * b_tgt])

    h_c = channel.h_c(np.ones(1, dtype=complex))
    gains = path_gains(scene)
    assert np.allclose(h_c, [gains.gain_bu + gains.gain_ru])


def test_ris_term_linear_in_profile():
    channel = RisIsacScenario.from_scene(simple_scene(direct_gain_override=0.0))
    rng = np.random.default_rng(0)
    phi1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    phi2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    for h in (channel.h_t, channel.h_r):
        assert np.allclose(h(phi1 + phi2), h(phi1) + h(phi2), atol=1e-15)


def test_channel_composition_bit_for_bit():
    # Every channel is its direct term plus g (r^T phi), which is F phi to
    # rounding, and the sensing builder returns exactly the object's h_t and h_r.
    scene = simple_scene()
    phi = np.exp(1j * np.array([0.3, -1.0, 2.2]))
    channel = RisIsacScenario.from_scene(scene)
    for h, a, g, r, f in ((channel.h_t, channel.a_t_term, channel.g_t, channel.r_t, channel.f_t),
                          (channel.h_r, channel.a_r_term, channel.g_r, channel.r_t, channel.f_r),
                          (channel.h_c, channel.h_bu, channel.g_c, channel.r_c, channel.f_c)):
        assert np.array_equal(h(phi), a + g * (r @ phi))
        np.testing.assert_allclose(h(phi), a + f @ phi, rtol=1e-14, atol=0)
    h_t, h_r = build_sensing_channels(scene, phi)
    assert np.array_equal(h_t, channel.h_t(phi))
    assert np.array_equal(h_r, channel.h_r(phi))


def test_gains_deterministic_per_seed():
    scene = simple_scene(seed=42)
    g1, g2 = path_gains(scene), path_gains(scene)
    assert g1 == g2
    g3 = path_gains(simple_scene(seed=43))
    assert g1.alpha_t != g3.alpha_t


def test_profile_length_mismatch():
    channel = RisIsacScenario.from_scene(simple_scene())
    for h in (channel.h_t, channel.h_r, channel.h_c):
        with pytest.raises(ValueError):
            h(np.ones(5, dtype=complex))


@pytest.mark.parametrize(
    "case", ["direct", "no-direct", "zero-ris", "sparse-r", "no-columns", "cancelling-sum",
             "zero-sum"])
def test_align_profile_attains_the_rank_one_bound(case):
    # For F = g r^T no unit-modulus profile beats the closed form, and it
    # attains ||a||^2 + 2 ||F^H a||_1 + (sum_i ||F e_i||)^2. With a = 0 every
    # global phase is optimal, whether sum_k g_k is rounding noise or exactly
    # zero, since the profile aligns r itself.
    rng = np.random.default_rng(11)
    l_t, n = 6, 0 if case == "no-columns" else 5
    for _ in range(5):
        a, g, r = (rng.standard_normal(m) + 1j * rng.standard_normal(m) for m in (l_t, l_t, n))
        if case in ("no-direct", "cancelling-sum", "zero-sum"):
            a = np.zeros(l_t, dtype=complex)
        if case == "cancelling-sum":
            g -= g.mean()
        if case == "zero-sum":
            g[1::2] = -g[::2]
            assert np.sum(g) == 0
        if case == "zero-ris":
            g = np.zeros(l_t, dtype=complex)
        if case == "sparse-r":
            r[[1, 3]] = 0.0
        phi = align_profile(a, g, r)
        assert phi.shape == (n,) and np.allclose(np.abs(phi), 1.0, atol=1e-15)
        if case == "zero-ris":
            assert np.array_equal(phi, np.ones(n))
        f = np.outer(g, r)
        h = a + f @ phi
        value = float(np.vdot(h, h).real)
        assert np.isclose(value, rank_one_illumination_bound(a, f, 1.0), rtol=1e-12, atol=0.0)
        phis = np.exp(2j * np.pi * rng.uniform(size=(n, 1000)))
        values = np.sum(np.abs(a[:, None] + f @ phis) ** 2, axis=0)
        assert np.max(values) <= value * (1.0 + 1e-12)


def unit_modulus_reference(z):
    """The plain numpy form ``_unit_modulus`` was trimmed from."""
    out = np.asarray(z, dtype=complex).copy()
    mags = np.abs(out)
    zero = mags < 1e-300
    out[zero] = 1.0
    mags[zero] = 1.0
    return out / mags


def test_unit_modulus_projection():
    # Nonzero entries map to z/|z| exactly; an exact zero has no phase and
    # maps to 1. It equals its reference bit for bit, a real input is
    # promoted to complex, and the input is not written to.
    rng = np.random.default_rng(4)
    z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert np.array_equal(_unit_modulus(z), z / np.abs(z))
    assert np.array_equal(_unit_modulus(np.array([0.0, -2.0, 3j, 0j])), [1.0, -1.0, 1j, 1.0])
    for x in (z * 10.0 ** rng.uniform(-3.0, 3.0, 6), np.array([0.0, -2.0, 3.0]),
              np.array([2.0 - 1j, 0j])):
        before = x.copy()
        ours, ref = _unit_modulus(x), unit_modulus_reference(x)
        assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes()
        assert np.array_equal(x, before)
