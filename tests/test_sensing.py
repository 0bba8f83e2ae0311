import math

import numpy as np
import pytest
from scipy import integrate, special

from risac import (
    Beamformer,
    DegenerateChannelError,
    DetectionConfig,
    RisProfile,
    Scene,
    UlaGeometry,
    align_ris_phases,
    crb_angle,
    detection_probability,
    glrt_monte_carlo,
    illumination_power,
    isotropic_illumination,
    marcum_q1,
    matched_filter_beamformer,
    matched_filter_snr,
    maximize_illumination,
    steering_vector,
    trajectory_sweep,
)
from risac.channels import angles_from_geometry, build_sensing_channels, path_gains
from risac.config import RunConfig, scene_from_config


def marcum_quadrature(a, b):
    """Defining-integral oracle: integral_b^inf x exp(-(x^2+a^2)/2) I0(ax) dx."""
    def integrand(x):
        # exp-scaled Bessel keeps the integrand finite for large arguments
        return x * math.exp(-0.5 * (x - a) ** 2) * special.i0e(a * x)

    # The integrand is a Gaussian bump around x = a; past a + 45 it is below
    # 1e-300, so a finite window loses nothing. quad's self-reported error is
    # very conservative here (the realized error sits at machine precision),
    # so only a loose health bound is asserted on the estimate.
    upper = max(a, b) + 45.0
    if b < a:
        v1, e1 = integrate.quad(integrand, b, a, limit=200)
        v2, e2 = integrate.quad(integrand, a, upper, limit=200)
        val, err = v1 + v2, e1 + e2
    else:
        val, err = integrate.quad(integrand, b, upper, limit=200)
    assert err < 1e-7
    return val


def glrt_snapshot_reference(scene, w, phi, trials, cfg, seed=0):
    """Full-snapshot GLRT simulator, the form glrt_monte_carlo replaced.

    Draws an L_S-antenna noise snapshot per trial and hypothesis and projects
    it onto the normalized receive steering vector. Returns (Pf, Pd).
    """
    rng = np.random.default_rng(seed)
    angles = angles_from_geometry(scene)
    h_t, _ = build_sensing_channels(scene, phi)
    c = np.vdot(h_t, w.weights)
    a_r = steering_vector(scene.rx, angles.theta1).entries
    a_r_hat = a_r / np.linalg.norm(a_r)
    l_s = scene.rx.num_elements
    sigma_s = math.sqrt(scene.noise_power_sensing)
    sigma_eta = math.sqrt(scene.target_gain_var)

    def noise(n_rows):
        z = rng.standard_normal((n_rows, l_s)) + 1j * rng.standard_normal((n_rows, l_s))
        return (sigma_s / math.sqrt(2.0)) * z

    stat_h0 = np.abs(noise(trials) @ a_r_hat.conj()) ** 2 / scene.noise_power_sensing
    if scene.fluctuating_target:
        eta = (sigma_eta / math.sqrt(2.0)) * (
            rng.standard_normal(trials) + 1j * rng.standard_normal(trials)
        )
    else:
        eta = sigma_eta * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=trials))
    y1 = np.outer(eta * c, a_r) + noise(trials)
    stat_h1 = np.abs(y1 @ a_r_hat.conj()) ** 2 / scene.noise_power_sensing
    gamma = cfg.threshold
    return float(np.mean(stat_h0 > gamma)), float(np.mean(stat_h1 > gamma))


def at_snr(scene, design, snr):
    """Scene whose target gain puts the matched-filter SNR at ``snr``."""
    gain_var = snr * scene.noise_power_sensing / (scene.rx.num_elements * design.power)
    return scene.replace(target_gain_var=gain_var)


def binomial_z(p_mc, p, trials):
    return abs(p_mc - p) / math.sqrt(p * (1.0 - p) / trials)


def ris_scene(**overrides):
    base = dict(
        bs_position=(0.0, 0.0),
        ris_position=(30.0, 30.0),
        target_position=(40.0, 0.0),
        user_position=(20.0, -20.0),
        tx=UlaGeometry(4),
        rx=UlaGeometry(4),
        ris=UlaGeometry(8),
        transmit_power=1.0,
        seed=3,
    )
    base.update(overrides)
    return Scene(**base)


class TestIlluminationPower:
    def test_orthogonal_precoder_gives_zero(self):
        h = np.array([1.0, 1j])
        w = np.array([1j, 1.0]) / np.sqrt(2)  # h^H w = -1j/sqrt2 + 1j/sqrt2 = 0
        assert illumination_power(h, w) < 1e-30

    def test_matched_gives_channel_energy(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        w = matched_filter_beamformer(h, 1.0)
        assert np.isclose(illumination_power(h, w), np.linalg.norm(h) ** 2)

    def test_aligned_ris_reaches_n_squared(self):
        scene = ris_scene(blocked_direct=True, ris_gain_override=1.0)
        res = maximize_illumination(scene)
        assert np.isclose(res.power, 4 * 8**2, rtol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            illumination_power(np.ones(3), np.ones(4))


class TestMatchedFilter:
    def test_steering_vector_case(self):
        a = steering_vector(UlaGeometry(4), 0.5).entries
        w = matched_filter_beamformer(a, 1.0)
        assert np.allclose(w.weights, a / 2.0)

    def test_beats_random_precoders(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        best = illumination_power(h, matched_filter_beamformer(h, 1.0))
        for _ in range(50):
            z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            assert best >= illumination_power(h, z / np.linalg.norm(z)) - 1e-12

    def test_basis_vector(self):
        h = np.array([1.0, 0.0, 0.0], dtype=complex)
        assert np.allclose(matched_filter_beamformer(h, 1.0).weights, h)

    def test_zero_channel_raises(self):
        with pytest.raises(DegenerateChannelError):
            matched_filter_beamformer(np.zeros(3), 1.0)


class TestAlignRisPhases:
    def test_broadside_pair_gives_ones(self):
        geom = UlaGeometry(5)
        b = steering_vector(geom, 0.0).entries
        prof = align_ris_phases(b, b)
        assert np.allclose(prof.phases, np.ones(5))

    def test_coherent_sum_equals_n(self):
        geom = UlaGeometry(8)
        b_t = steering_vector(geom, 0.9).entries
        b_i = steering_vector(geom, -0.4).entries
        prof = align_ris_phases(b_t, b_i)
        total = np.vdot(b_t, prof.phases * b_i)
        assert abs(abs(total) - 8.0) < 1e-12

    def test_brute_force_discrete_grid(self):
        # Exhaustive 16-point phase grid on N=3 never beats the analytic
        # alignment by more than the quantization bound.
        geom = UlaGeometry(3)
        b_t = steering_vector(geom, 0.7).entries
        b_i = steering_vector(geom, -1.1).entries
        levels = np.exp(1j * 2.0 * np.pi * np.arange(16) / 16)
        best = 0.0
        for i in levels:
            for j in levels:
                for k in levels:
                    val = abs(np.vdot(b_t, np.array([i, j, k]) * b_i))
                    best = max(best, val)
        analytic = abs(np.vdot(b_t, align_ris_phases(b_t, b_i).phases * b_i))
        assert best <= analytic + 1e-12
        assert analytic - best <= 3.0 * (1.0 - math.cos(math.pi / 16)) + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            align_ris_phases(np.ones(3), np.ones(4))


class TestMaximizeIllumination:
    def test_no_ris_path_single_iteration(self):
        scene = ris_scene(ris_gain_override=0.0)
        res = maximize_illumination(scene)
        gains = path_gains(scene)
        assert res.iterations <= 2
        assert np.isclose(res.power, abs(gains.alpha_t) ** 2 * 4)

    def test_trace_monotone_and_dominates_warm_starts(self):
        scene = ris_scene(seed=12)
        res = maximize_illumination(scene)
        assert np.all(np.diff(res.power_trace) >= -1e-9 * res.power)
        gains = path_gains(scene)
        direct_power = abs(gains.alpha_t) ** 2 * scene.tx.num_elements
        ris_power = abs(gains.beta_t) ** 2 * scene.tx.num_elements * scene.n_ris**2
        assert res.power >= direct_power - 1e-12
        assert res.power >= ris_power - 1e-12

    def test_profile_exactly_unit_modulus(self):
        res = maximize_illumination(ris_scene())
        assert np.allclose(np.abs(res.phi.phases), 1.0, atol=1e-12)


class TestIsotropic:
    def test_no_ris_term(self):
        scene = ris_scene(ris_gain_override=0.0, direct_gain_override=2.0)
        assert np.isclose(isotropic_illumination(scene), 4.0 * 4)

    def test_no_direct_term(self):
        scene = ris_scene(direct_gain_override=0.0, ris_gain_override=1.0)
        assert np.isclose(isotropic_illumination(scene), 4 * 8**2)

    def test_ris_term_dominates_when_n_large(self):
        # sigma_beta^2 = rho sigma_alpha^2 with N > 1/sqrt(rho)
        rho = 0.01
        scene = ris_scene(
            direct_gain_override=1.0,
            ris_gain_override=math.sqrt(rho),
            ris=UlaGeometry(11),  # 11 > 1/sqrt(0.01) = 10
        )
        l_t, n = 4, 11
        total = isotropic_illumination(scene)
        assert np.isclose(total, l_t + rho * l_t * n**2)
        assert rho * l_t * n**2 > l_t


class TestSnr:
    def test_zero_power(self):
        assert matched_filter_snr(0.0, ris_scene()) == 0.0

    def test_known_value(self):
        scene = ris_scene(
            rx=UlaGeometry(15), target_gain_var=1.0, noise_power_sensing=1e-9
        )
        assert np.isclose(matched_filter_snr(1e-6, scene), 1.5e4)

    def test_linear_in_power(self):
        scene = ris_scene()
        assert np.isclose(
            matched_filter_snr(2.0, scene), 2.0 * matched_filter_snr(1.0, scene)
        )


class TestMarcum:
    def test_b_zero_is_one(self):
        for a in [0.0, 0.5, 3.0]:
            assert marcum_q1(a, 0.0) == 1.0

    def test_a_zero_rayleigh_tail(self):
        for b in [0.1, 1.0, 4.0]:
            assert np.isclose(marcum_q1(0.0, b), math.exp(-0.5 * b**2), atol=1e-12)

    def test_quadrature_oracle_grid(self):
        # 20-point grid over [0, 5]^2 plus the (1, 1) spec point.
        points = [(1.0, 1.0)]
        rng = np.random.default_rng(2024)
        points += [tuple(rng.uniform(0.0, 5.0, 2)) for _ in range(19)]
        for a, b in points:
            assert abs(marcum_q1(a, b) - marcum_quadrature(a, b)) < 1e-8

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            marcum_q1(-1.0, 1.0)
        with pytest.raises(ValueError):
            marcum_q1(1.0, math.nan)


class TestDetectionProbability:
    def test_zero_snr_equals_false_alarm(self):
        cfg = DetectionConfig(0.01)
        assert np.isclose(detection_probability(0.0, cfg), 0.01, atol=1e-12)

    def test_monotone_in_snr(self):
        cfg = DetectionConfig(0.05)
        values = [detection_probability(s, cfg) for s in np.linspace(0.0, 50.0, 40)]
        assert np.all(np.diff(values) >= -1e-12)

    def test_threshold_invariant(self):
        cfg = DetectionConfig(0.1)
        assert np.isclose(cfg.threshold, -math.log(0.1))
        with pytest.raises(ValueError):
            DetectionConfig(0.1, threshold=1.0)


class TestGlrt:
    @pytest.fixture
    def calibrated(self):
        scene = ris_scene(fluctuating_target=False, target_gain_var=1.0)
        design = maximize_illumination(scene)
        return scene, design

    def test_false_alarm_calibration(self, calibrated):
        scene, design = calibrated
        cfg = DetectionConfig(0.05)
        res = glrt_monte_carlo(scene, design.w, design.phi, 100000, cfg, seed=21)
        sigma = math.sqrt(0.05 * 0.95 / 100000)
        assert abs(res.empirical_pf - 0.05) <= 3.0 * sigma

    def test_zero_power_detection_matches_false_alarm(self, calibrated):
        scene, design = calibrated
        dead = scene.replace(target_gain_var=0.0)
        cfg = DetectionConfig(0.1)
        res = glrt_monte_carlo(dead, design.w, design.phi, 50000, cfg, seed=5)
        sigma = math.sqrt(0.1 * 0.9 / 50000)
        assert abs(res.empirical_pd - 0.1) <= 4.0 * sigma

    def test_high_snr_detects(self, calibrated):
        scene, design = calibrated
        snr = 100.0  # 20 dB
        gain_var = snr * scene.noise_power_sensing / (
            scene.rx.num_elements * design.power
        )
        hot = scene.replace(target_gain_var=gain_var)
        res = glrt_monte_carlo(hot, design.w, design.phi, 20000, DetectionConfig(0.01), seed=6)
        assert res.empirical_pd > 0.99

    def test_matches_marcum_formula(self, calibrated):
        scene, design = calibrated
        snr = 10.0
        gain_var = snr * scene.noise_power_sensing / (
            scene.rx.num_elements * design.power
        )
        tuned = scene.replace(target_gain_var=gain_var)
        cfg = DetectionConfig(0.01)
        res = glrt_monte_carlo(tuned, design.w, design.phi, 100000, cfg, seed=31)
        pd = detection_probability(snr, cfg)
        sigma = math.sqrt(pd * (1.0 - pd) / 100000)
        assert abs(res.empirical_pd - pd) <= 3.0 * sigma


    @pytest.mark.parametrize("pf", [0.1, 0.01])
    @pytest.mark.parametrize("snr_db", [0.0, 5.0, 10.0])
    def test_fluctuating_target_matches_exponential_law(self, calibrated, snr_db, pf):
        # A Rayleigh target makes the H1 statistic exponential with mean
        # 1 + SNR, so Pd = exp(-gamma / (1 + SNR)).
        scene, design = calibrated
        snr = 10.0 ** (snr_db / 10.0)
        rayleigh = at_snr(scene, design, snr).replace(fluctuating_target=True)
        cfg = DetectionConfig(pf)
        trials = 100000
        res = glrt_monte_carlo(rayleigh, design.w, design.phi, trials, cfg, seed=17)
        pd = math.exp(-cfg.threshold / (1.0 + snr))
        assert binomial_z(res.empirical_pd, pd, trials) <= 4.0
        assert binomial_z(res.empirical_pf, pf, trials) <= 4.0


class TestGlrtSnapshotReference:
    """The matched-filter-output draw against the full L_S-antenna snapshot."""

    @pytest.fixture(scope="class")
    def default_design(self):
        scene = scene_from_config(RunConfig(experiment="detect"))
        return scene, maximize_illumination(scene)

    @pytest.mark.parametrize("fluctuating", [False, True])
    @pytest.mark.parametrize("snr_db", [0.0, 5.0, 10.0])
    def test_two_sample_agreement(self, default_design, fluctuating, snr_db):
        scene, design = default_design
        assert scene.rx.num_elements == 15
        tuned = at_snr(scene, design, 10.0 ** (snr_db / 10.0)).replace(
            fluctuating_target=fluctuating
        )
        cfg = DetectionConfig(0.01)
        trials = 40000
        res = glrt_monte_carlo(tuned, design.w, design.phi, trials, cfg, seed=41)
        ref_pf, ref_pd = glrt_snapshot_reference(
            tuned, design.w, design.phi, trials, cfg, seed=42
        )
        for ours, theirs in [(res.empirical_pf, ref_pf), (res.empirical_pd, ref_pd)]:
            pooled = 0.5 * (ours + theirs)
            sigma = math.sqrt(2.0 * pooled * (1.0 - pooled) / trials)
            assert abs(ours - theirs) <= 5.0 * sigma

    def test_reference_matches_marcum_formula(self, default_design):
        # The reference itself is held to the closed form, so agreement with
        # it means agreement with Marcum-Q.
        scene, design = default_design
        cfg = DetectionConfig(0.1)
        tuned = at_snr(scene, design, 10.0 ** 0.5).replace(fluctuating_target=False)
        ref_pf, ref_pd = glrt_snapshot_reference(
            tuned, design.w, design.phi, 40000, cfg, seed=43
        )
        assert binomial_z(ref_pf, 0.1, 40000) <= 4.0
        assert binomial_z(ref_pd, detection_probability(10.0 ** 0.5, cfg), 40000) <= 4.0


class TestCrbAngle:
    def test_high_snr_limit(self):
        l_s, samples, adot_sq = 15, 64, 2.0 * math.pi**2
        lead = l_s / (2.0 * samples * adot_sq)
        snr = 1e9
        assert np.isclose(crb_angle(snr, samples, adot_sq, l_s) * snr, lead, rtol=1e-8)

    def test_zero_snr_infinite(self):
        assert math.isinf(crb_angle(0.0, 10, 1.0, 4))

    def test_strictly_decreasing_in_snr(self):
        values = [crb_angle(s, 16, 5.0, 8) for s in [0.5, 1.0, 2.0, 4.0, 8.0]]
        assert np.all(np.diff(values) < 0.0)

    def test_scales_inverse_with_samples(self):
        assert np.isclose(
            crb_angle(3.0, 32, 5.0, 8), 0.5 * crb_angle(3.0, 16, 5.0, 8)
        )


class TestTrajectorySweep:
    @pytest.fixture
    def sweep(self):
        scene = ris_scene(
            tx=UlaGeometry(8), rx=UlaGeometry(8), ris=UlaGeometry(16),
            target_gain_var=1e-4, noise_power_sensing=1e-9, seed=2,
        )
        start, end = np.array([10.0, 25.0]), np.array([55.0, 25.0])
        waypoints = [tuple(start + f * (end - start)) for f in np.linspace(0, 1, 4)]
        blocked = [False, False, True, True]
        rows = trajectory_sweep(scene, waypoints, blocked=blocked)
        return {(r.waypoint, r.mode): r for r in rows}, blocked

    def test_blocked_without_ris_dead(self, sweep):
        rows, blocked = sweep
        for idx, blk in enumerate(blocked):
            if blk:
                row = rows[(idx, "without_ris")]
                assert row.power == 0.0 and math.isinf(row.power_db) and row.power_db < 0
                assert math.isinf(row.crb)
                assert math.isfinite(rows[(idx, "ris_aided")].crb)

    def test_blocked_aided_equals_ris_only(self, sweep):
        rows, blocked = sweep
        for idx, blk in enumerate(blocked):
            if blk:
                assert np.isclose(
                    rows[(idx, "ris_aided")].power,
                    rows[(idx, "ris_only")].power,
                    rtol=1e-6,
                )

    def test_aided_dominates_without(self, sweep):
        rows, blocked = sweep
        for idx in range(len(blocked)):
            assert rows[(idx, "ris_aided")].power >= rows[(idx, "without_ris")].power - 1e-15
