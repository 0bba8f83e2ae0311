import math

import numpy as np
import pytest

from risac import (
    InfeasibleSinrError,
    RisProfile,
    Scene,
    UlaGeometry,
    design_dual_waveform,
    make_beampattern_spec,
    steering_vector,
)
from risac import dual_waveform as dw
from risac.channels import angles_from_geometry, build_comms_channel
from risac.dual_waveform import (
    _loss_gradient,
    _loss_only,
    _Steering,
    autoscale_tau,
    beampattern_loss,
    radiated_power,
    sinr_given_channel,
    user_sinr,
)


def dual_scene(**overrides):
    base = dict(
        bs_position=(0.0, 0.0),
        ris_position=(30.0, 30.0),
        target_position=(40.0, 0.0),
        user_position=(45.0, 38.0),
        tx=UlaGeometry(10),
        rx=UlaGeometry(10),
        ris=UlaGeometry(16),
        transmit_power=1.0,
        noise_power_sensing=1e-8,
        noise_power_comms=1e-8,
        blocked_user_path=True,
        seed=7,
    )
    base.update(overrides)
    return Scene(**base)


def default_spec(scene, width_deg=10.0, targets_deg=(-40.0, 20.0), **kw):
    angles = angles_from_geometry(scene)
    width = math.radians(width_deg)
    targets = [math.radians(a) for a in targets_deg]
    beams = [(a, width, 1.0) for a in targets] + [(angles.omega_t, width, 1.0)]
    return make_beampattern_spec(beams, targets, **kw)


def naive_loss(r_cov, tau, spec, geom):
    """Independent scalar-loop oracle for the beampattern loss."""
    total = 0.0
    for angle, level in zip(spec.grid, spec.desired):
        a = steering_vector(geom, angle).entries
        j_val = sum(
            (a[i].conjugate() * r_cov[i, j] * a[j]).real
            for i in range(len(a)) for j in range(len(a))
        )
        total += abs(j_val - tau * level) ** 2
    loss = spec.alpha_mismatch * total / spec.grid.size
    k = spec.target_angles.size
    if k >= 2:
        cross_total = 0.0
        for i in range(k - 1):
            for j in range(i + 1, k):
                ai = steering_vector(geom, spec.target_angles[i]).entries
                aj = steering_vector(geom, spec.target_angles[j]).entries
                val = 0.0
                for p in range(len(ai)):
                    for q in range(len(aj)):
                        val += ai[p].conjugate() * r_cov[p, q] * aj[q]
                cross_total += abs(val) ** 2
        loss += spec.alpha_crosscorr * 2.0 / (k * k - k) * cross_total
    return loss


class TestRadiatedPower:
    def test_identity_covariance_isotropic(self):
        geom = UlaGeometry(6)
        for angle in [-1.0, 0.0, 0.7]:
            assert np.isclose(radiated_power(np.eye(6, dtype=complex), geom, angle), 6.0)

    def test_coherent_rank_one(self):
        geom = UlaGeometry(8)
        a = steering_vector(geom, 0.4).entries
        r_cov = np.outer(a, a.conj()) / 8.0
        assert np.isclose(radiated_power(r_cov, geom, 0.4), 8.0)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        geom = UlaGeometry(5)
        x = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        r_cov = x @ x.conj().T
        for angle in [-0.8, 0.1, 1.2]:
            a = steering_vector(geom, angle).entries
            oracle = sum(
                (a[i].conjugate() * r_cov[i, j] * a[j]).real
                for i in range(5) for j in range(5)
            )
            assert abs(radiated_power(r_cov, geom, angle) - oracle) < 1e-12 * abs(oracle)


class TestBeampatternLoss:
    def test_zero_weights_zero_loss(self):
        scene = dual_scene()
        spec = default_spec(scene, alpha_mismatch=0.0, alpha_crosscorr=0.0)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
        assert beampattern_loss(x @ x.conj().T, 1.0, spec, scene.tx) == 0.0

    def test_perfect_match_no_crossterm(self):
        geom = UlaGeometry(4)
        spec = make_beampattern_spec(
            [(0.0, math.pi, 4.0)], [], grid_points=61, alpha_crosscorr=0.0
        )
        # R = I radiates exactly L = 4 everywhere, matching the flat desired level.
        assert beampattern_loss(np.eye(4, dtype=complex), 1.0, spec, geom) < 1e-24

    def test_cross_term_hand_value(self):
        geom = UlaGeometry(6)
        t1, t2 = -0.5, 0.8
        spec = make_beampattern_spec(
            [(t1, 0.1, 1.0)], [t1, t2], grid_points=11,
            alpha_mismatch=0.0, alpha_crosscorr=1.0,
        )
        r_cov = np.eye(6, dtype=complex)
        a1 = steering_vector(geom, t1).entries
        a2 = steering_vector(geom, t2).entries
        expected = abs(np.vdot(a1, a2)) ** 2  # 2/(T^2-T) = 1 for T = 2
        assert np.isclose(beampattern_loss(r_cov, 0.0, spec, geom), expected)

    def test_matches_naive_loop(self):
        scene = dual_scene(tx=UlaGeometry(4))
        spec = default_spec(scene, grid_points=21)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        r_cov = x @ x.conj().T
        fast = beampattern_loss(r_cov, 0.7, spec, scene.tx)
        slow = naive_loss(r_cov, 0.7, spec, scene.tx)
        assert abs(fast - slow) < 1e-12 * max(1.0, abs(slow))


def loss_case(k_targets, seed):
    """Random X = [c | W] on 5 elements with k targets and both weights nonzero."""
    geom = UlaGeometry(5)
    targets = [-0.9, 0.2, 0.7][:k_targets]
    spec = make_beampattern_spec(
        [(t, 0.3, 1.0) for t in targets], targets, grid_points=31,
        alpha_mismatch=0.8, alpha_crosscorr=1.7,
    )
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((5, 1 + k_targets)) + 1j * rng.standard_normal((5, 1 + k_targets))
    return geom, spec, _Steering.build(spec, geom), x


class TestLossGradient:
    @pytest.mark.parametrize("k_targets", [2, 3])
    def test_matches_wirtinger_finite_differences(self, k_targets):
        geom, spec, st, x = loss_case(k_targets, seed=10 + k_targets)
        tau = 1.3
        _, grad = _loss_gradient(x, tau, spec, st)
        # d(loss)/dX* = (d/dRe + i d/dIm) / 2, by central differences per entry.
        h = 1e-6
        fd = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            for unit in (1.0, 1j):
                e = np.zeros_like(x)
                e[idx] = unit * h
                up = _loss_only(x + e, tau, spec, st)
                down = _loss_only(x - e, tau, spec, st)
                fd[idx] += unit * (up - down) / (2.0 * h) / 2.0
        assert np.linalg.norm(fd - grad) <= 1e-6 * np.linalg.norm(grad)

    @pytest.mark.parametrize("k_targets", [1, 2, 3])
    def test_value_only_loss_is_bitwise_equal(self, k_targets):
        _, spec, st, x = loss_case(k_targets, seed=k_targets)
        for tau in (0.0, 0.4, 2.5):
            assert _loss_only(x, tau, spec, st) == _loss_gradient(x, tau, spec, st)[0]

    @pytest.mark.parametrize("k_targets", [2, 3])
    def test_agrees_with_public_loss(self, k_targets):
        geom, spec, st, x = loss_case(k_targets, seed=20 + k_targets)
        public = beampattern_loss(x @ x.conj().T, 0.9, spec, geom)
        assert abs(_loss_only(x, 0.9, spec, st) - public) <= 1e-12 * public
        assert abs(_loss_gradient(x, 0.9, spec, st)[0] - public) <= 1e-12 * public


class TestAutoscale:
    def test_identity_scale(self):
        geom = UlaGeometry(4)
        spec = make_beampattern_spec([(0.0, math.pi, 4.0)], [], grid_points=41)
        assert np.isclose(autoscale_tau(np.eye(4, dtype=complex), spec, geom), 1.0)

    def test_doubled_pattern(self):
        geom = UlaGeometry(4)
        spec = make_beampattern_spec([(0.0, math.pi, 4.0)], [], grid_points=41)
        assert np.isclose(autoscale_tau(2.0 * np.eye(4, dtype=complex), spec, geom), 2.0)

    def test_local_optimality(self):
        scene = dual_scene(tx=UlaGeometry(6))
        spec = default_spec(scene, grid_points=31, alpha_crosscorr=0.0)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        r_cov = x @ x.conj().T
        tau = autoscale_tau(r_cov, spec, scene.tx)
        base = beampattern_loss(r_cov, tau, spec, scene.tx)
        assert base <= beampattern_loss(r_cov, tau + 0.01, spec, scene.tx)
        assert base <= beampattern_loss(r_cov, max(tau - 0.01, 0.0), spec, scene.tx)


class TestUserSinr:
    def test_no_interference(self):
        h = np.array([1.0, 2.0j, -1.0])
        c = np.array([0.5, 0.0, 0.5j])
        r_cov = np.outer(c, c.conj())  # W = 0
        expected = abs(np.vdot(h, c)) ** 2 / 1e-8
        assert np.isclose(sinr_given_channel(h, c, r_cov, 1e-8), expected)

    def test_zero_precoder(self):
        h = np.array([1.0, 1.0])
        w = np.array([[1.0], [0.0]])
        r_cov = w @ w.conj().T
        assert sinr_given_channel(h, np.zeros(2), r_cov, 1e-8) == 0.0

    def test_scalar_hand_case(self):
        h = np.array([2.0 + 0.0j])
        c = np.array([0.5 + 0.0j])
        w = np.array([[0.25 + 0.0j]])
        r_cov = np.outer(c, c.conj()) + w @ w.conj().T
        # num = |2*0.5|^2 = 1; interference = |2*0.25|^2 = 0.25
        assert np.isclose(sinr_given_channel(h, c, r_cov, 0.75), 1.0 / (0.25 + 0.75))

    def test_scene_wrapper_uses_profile_channel(self):
        scene = dual_scene(tx=UlaGeometry(4), ris=UlaGeometry(3))
        phi = RisProfile.from_angles([0.2, -0.4, 1.0])
        h = build_comms_channel(scene, phi)
        rng = np.random.default_rng(8)
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x = np.column_stack([c, 0.3 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))])
        r_cov = x @ x.conj().T
        assert np.isclose(
            user_sinr(scene, phi, c, r_cov),
            sinr_given_channel(h, c, r_cov, scene.noise_power_comms),
        )


class TestDesign:
    @pytest.fixture(scope="class")
    def designed(self):
        scene = dual_scene()
        spec = default_spec(scene)
        gamma = 10.0 ** (1.8)  # 18 dB, comfortably feasible for this scene
        return scene, spec, design_dual_waveform(scene, spec, gamma, seed=1), gamma

    def test_covariance_structure(self, designed):
        _, _, design, _ = designed
        c, w = design.comm_precoder, design.sensing_precoder
        recomposed = np.outer(c, c.conj()) + w @ w.conj().T
        assert np.max(np.abs(design.covariance - recomposed)) < 1e-12
        assert np.linalg.eigvalsh(design.covariance).min() > -1e-10

    def test_unit_diagonal(self, designed):
        _, _, design, _ = designed
        assert np.max(np.abs(np.diag(design.covariance).real - 1.0)) < 1e-6

    def test_sinr_floor_met(self, designed):
        _, _, design, gamma = designed
        assert design.sinr >= gamma * (1.0 - 1e-6)

    def test_trace_non_increasing(self, designed):
        _, _, design, _ = designed
        assert np.all(np.diff(design.objective_trace) <= 1e-12)

    def test_unit_modulus_profile(self, designed):
        _, _, design, _ = designed
        assert np.allclose(np.abs(design.phi.phases), 1.0, atol=1e-12)

    def test_sensing_dip_toward_ris(self, designed):
        scene, spec, design, _ = designed
        angles = angles_from_geometry(scene)
        r_sense = design.sensing_precoder @ design.sensing_precoder.conj().T
        at_ris = radiated_power(r_sense, scene.tx, angles.omega_t)
        peak = max(
            radiated_power(r_sense, scene.tx, a) for a in spec.grid
        )
        assert at_ris <= 0.1 * peak  # at least 10 dB below the peak

    def test_comm_peak_at_ris_when_direct_blocked(self, designed):
        scene, spec, design, _ = designed
        angles = angles_from_geometry(scene)
        r_comm = np.outer(design.comm_precoder, design.comm_precoder.conj())
        values = [radiated_power(r_comm, scene.tx, a) for a in spec.grid]
        peak_angle = spec.grid[int(np.argmax(values))]
        step = spec.grid[1] - spec.grid[0]
        assert abs(peak_angle - angles.omega_t) <= step

    def test_beats_isotropic_mismatch(self, designed):
        scene, spec, design, _ = designed
        iso = np.eye(scene.tx.num_elements, dtype=complex)
        tau_iso = autoscale_tau(iso, spec, scene.tx)
        assert design.loss < beampattern_loss(iso, tau_iso, spec, scene.tx)

    def test_infeasible_sinr_raises(self):
        scene = dual_scene()
        spec = default_spec(scene)
        with pytest.raises(InfeasibleSinrError) as err:
            design_dual_waveform(scene, spec, 1e12)
        assert err.value.max_sinr < 1e12

    def test_empty_target_set_raises_before_any_steering(self, monkeypatch):
        scene = dual_scene()
        spec = default_spec(scene, targets_deg=())
        monkeypatch.setattr(dw, "steering_vector", None)  # any call would fail
        with pytest.raises(ValueError, match="target_angles"):
            design_dual_waveform(scene, spec, 5.0)

    def test_deterministic_given_seed(self):
        scene = dual_scene()
        spec = default_spec(scene)
        d1 = design_dual_waveform(scene, spec, 50.0, seed=4)
        d2 = design_dual_waveform(scene, spec, 50.0, seed=4)
        assert np.array_equal(d1.covariance, d2.covariance)
        assert np.array_equal(d1.objective_trace, d2.objective_trace)

    def test_steering_matrices_built_once_per_design(self, monkeypatch):
        scene = dual_scene(tx=UlaGeometry(6), ris=UlaGeometry(4))
        spec = default_spec(scene, grid_points=21)
        calls = []

        def counted(geom, angle):
            calls.append(angle)
            return steering_vector(geom, angle)

        monkeypatch.setattr(dw, "steering_vector", counted)
        design = design_dual_waveform(scene, spec, 5.0, seed=2, max_outer=5)
        assert len(design.objective_trace) > 1
        assert len(calls) == spec.grid.size + spec.target_angles.size
