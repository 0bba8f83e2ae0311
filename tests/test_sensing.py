import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import integrate, special, stats

from risac import (
    DegenerateChannelError,
    DetectionConfig,
    Scene,
    UlaGeometry,
    crb_angle,
    detection_probability,
    glrt_monte_carlo,
    marcum_q1,
    matched_filter_snr,
    maximize_illumination,
    steering_vector,
    trajectory_sweep,
)
from risac import channels, sensing
from risac.channels import (
    RisIsacScenario,
    angles_from_geometry,
    build_sensing_channels,
    path_gains,
)
from risac.config import RunConfig, scene_from_config

from oracles import (
    align_ris_phases,
    illumination_power,
    matched_filter_beamformer,
    rank_one_illumination_bound,
)


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
    c = np.vdot(h_t, w)
    a_r = steering_vector(scene.rx, angles.theta1)
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
        # With the direct path blocked the result is the RIS-only closed
        # form P |beta_t|^2 L_T N^2, whatever the gain phases.
        for seed in range(5):
            scene = ris_scene(seed=seed, blocked_direct=True, transmit_power=2.0)
            gains = path_gains(scene)
            expected = 2.0 * abs(gains.beta_t) ** 2 * 4 * 8**2
            assert np.isclose(maximize_illumination(scene).power, expected,
                              rtol=1e-12, atol=0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            illumination_power(np.ones(3), np.ones(4))


class TestMatchedFilter:
    def test_steering_vector_case(self):
        a = steering_vector(UlaGeometry(4), 0.5)
        w = matched_filter_beamformer(a, 1.0)
        assert np.allclose(w, a / 2.0)

    def test_beats_random_precoders(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        best = illumination_power(h, matched_filter_beamformer(h, 1.0))
        for _ in range(50):
            z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            assert best >= illumination_power(h, z / np.linalg.norm(z)) - 1e-12

    def test_basis_vector(self):
        h = np.array([1.0, 0.0, 0.0], dtype=complex)
        assert np.allclose(matched_filter_beamformer(h, 1.0), h)

    def test_zero_channel_raises(self):
        with pytest.raises(DegenerateChannelError):
            matched_filter_beamformer(np.zeros(3), 1.0)


class TestAlignRisPhases:
    def test_broadside_pair_gives_ones(self):
        geom = UlaGeometry(5)
        b = steering_vector(geom, 0.0)
        prof = align_ris_phases(b, b)
        assert np.allclose(prof, np.ones(5))

    def test_coherent_sum_equals_n(self):
        geom = UlaGeometry(8)
        b_t = steering_vector(geom, 0.9)
        b_i = steering_vector(geom, -0.4)
        prof = align_ris_phases(b_t, b_i)
        total = np.vdot(b_t, prof * b_i)
        assert abs(abs(total) - 8.0) < 1e-12

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
        # Zero RIS gain leaves the profile at ones and the power at
        # P |alpha_t|^2 L_T.
        for seed in range(5):
            scene = ris_scene(seed=seed, ris_gain_override=0.0, transmit_power=2.0)
            res = maximize_illumination(scene)
            expected = 2.0 * abs(path_gains(scene).alpha_t) ** 2 * 4
            assert np.isclose(res.power, expected, rtol=1e-12, atol=0.0)
            assert np.array_equal(res.phi, np.ones(8))

    def test_dominates_the_direct_and_ris_only_designs(self):
        scene = ris_scene(seed=12)
        res = maximize_illumination(scene)
        gains = path_gains(scene)
        direct_power = abs(gains.alpha_t) ** 2 * scene.tx.num_elements
        ris_power = abs(gains.beta_t) ** 2 * scene.tx.num_elements * scene.n_ris**2
        assert res.power >= direct_power - 1e-12
        assert res.power >= ris_power - 1e-12

    def test_profile_exactly_unit_modulus(self):
        res = maximize_illumination(ris_scene())
        assert np.allclose(np.abs(res.phi), 1.0, atol=1e-12)

    def test_channel_built_once_per_solve(self, monkeypatch):
        # h_t is formed from the channel object built at the start of the
        # solve, and build_sensing_channels is never called.
        calls = []

        def counted(geom, angle):
            calls.append(angle)
            return steering_vector(geom, angle)

        def forbidden(*args, **kwargs):
            raise AssertionError("maximize_illumination rebuilt the sensing channel")

        monkeypatch.setattr(sensing, "steering_vector", counted)
        monkeypatch.setattr(channels, "steering_vector", counted)
        monkeypatch.setattr(sensing, "build_sensing_channels", forbidden)
        for scene in (
            ris_scene(seed=12),
            ris_scene(tx=UlaGeometry(8), rx=UlaGeometry(8), ris=UlaGeometry(16), seed=2),
        ):
            calls.clear()
            maximize_illumination(scene)
            # from_scene: a_t, a_r, the user's a_t, b_target, the user's b and
            # the three dyad vectors.
            assert len(calls) == 8

    def test_one_from_scene_per_call(self, monkeypatch):
        calls = []
        original = RisIsacScenario.from_scene

        def counted(cls, scene):
            calls.append(scene)
            return original(scene)

        monkeypatch.setattr(RisIsacScenario, "from_scene", classmethod(counted))
        scene = ris_scene(seed=5)
        res = maximize_illumination(scene)
        assert calls == [scene] and res.iterations == 0
        calls.clear()
        waypoints = [(40.0, 0.0), (45.0, 5.0)]
        trajectory_sweep(scene, waypoints, blocked=[False, True])
        assert len(calls) == len(waypoints)  # one per waypoint, shared by its modes

    def test_brute_force_discrete_grid(self):
        # An exhaustive 16-level phase grid on N = 3, with the direct path on,
        # never beats the closed form, and its best point is within the
        # quantization bound of it. With every phase within pi/16 of the
        # optimum, Re(s conj(u)) >= c ||r||_1 for u the optimal direction and
        # c = cos(pi/16), so the grid loses at most P (2 (1 - c) ||F^H a||_1 +
        # (1 - c^2) (sum_i ||F e_i||)^2).
        scene = ris_scene(ris=UlaGeometry(3), direct_gain_override=0.01 * np.exp(0.4j),
                          ris_gain_override=0.004 * np.exp(-1.3j))
        channel = RisIsacScenario.from_scene(scene)
        a, f = channel.a_t_term, channel.f_t
        levels = np.exp(2j * np.pi * np.arange(16) / 16)
        grid = np.array(np.meshgrid(levels, levels, levels, indexing="ij")).reshape(3, -1)
        powers = scene.transmit_power * np.sum(np.abs(a[:, None] + f @ grid) ** 2, axis=0)
        best = float(np.max(powers))
        res = maximize_illumination(scene)
        assert best <= res.power * (1.0 + 1e-12)
        c = math.cos(math.pi / 16)
        loss = scene.transmit_power * (
            2.0 * (1.0 - c) * float(np.sum(np.abs(f.conj().T @ a)))
            + (1.0 - c * c) * float(np.sum(np.linalg.norm(f, axis=0))) ** 2
        )
        assert res.power - best <= loss * (1.0 + 1e-9)
        # The RIS terms matter here: ignoring them loses more than the grid does.
        assert res.power - scene.transmit_power * np.vdot(a, a).real > 10.0 * loss

    @pytest.mark.parametrize(
        "overrides",
        [dict(seed=12), dict(seed=1, blocked_direct=True),
         dict(tx=UlaGeometry(8), rx=UlaGeometry(8), ris=UlaGeometry(16), seed=2),
         dict(ris=UlaGeometry(5), direct_gain_override=0.01, ris_gain_override=0.002j,
              transmit_power=3.0),
         dict(target_position=(10.0, 25.0), seed=7),
         # The RIS at 30 deg: the four-element a_t(omega_t) sums to zero.
         dict(ris_position=(30.0 * math.cos(math.pi / 6), 15.0), blocked_direct=True)],
        ids=["seed-12", "blocked", "8x16", "pinned-gains", "near-ris", "blocked-cancelling"],
    )
    def test_attains_the_rank_one_bound_and_beats_random_profiles(self, overrides):
        # P (||a||^2 + 2 ||F^H a||_1 + (sum_i ||F e_i||)^2) bounds the power of
        # every unit-modulus profile; the closed form attains it.
        scene = ris_scene(**overrides)
        channel = RisIsacScenario.from_scene(scene)
        p_t = scene.transmit_power
        bound = rank_one_illumination_bound(channel.a_t_term, channel.f_t, p_t)
        res = maximize_illumination(scene)
        assert np.isclose(res.power, bound, rtol=1e-12, atol=0.0)
        h_t = channel.h_t(res.phi)
        assert np.isclose(illumination_power(h_t, res.w), bound, rtol=1e-12, atol=0.0)
        assert np.isclose(p_t * np.vdot(h_t, h_t).real, bound, rtol=1e-12, atol=0.0)
        rng = np.random.default_rng(0)
        phis = np.exp(2j * np.pi * rng.uniform(size=(scene.n_ris, 2000)))
        powers = p_t * np.sum(np.abs(channel.a_t_term[:, None] + channel.f_t @ phis) ** 2,
                              axis=0)
        assert np.max(powers) <= bound * (1.0 + 1e-12)

    def test_no_path_raises(self):
        scene = ris_scene(blocked_direct=True, ris_gain_override=0.0)
        with pytest.raises(DegenerateChannelError):
            maximize_illumination(scene)


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
        # 20-point grid over [0, 5]^2, the (1, 1) spec point, and detection
        # points at SNR 0, 10 and 30 dB with Pf = 1e-6 and 0.01.
        points = [(1.0, 1.0)]
        rng = np.random.default_rng(2024)
        points += [tuple(rng.uniform(0.0, 5.0, 2)) for _ in range(19)]
        points += [
            (math.sqrt(2.0 * 10.0 ** (snr_db / 10.0)), math.sqrt(-2.0 * math.log(pf)))
            for snr_db in (0.0, 10.0, 30.0)
            for pf in (1e-6, 0.01)
        ]
        for a, b in points:
            assert abs(marcum_q1(a, b) - marcum_quadrature(a, b)) < 1e-8

    def test_noncentral_chi2_oracle_with_large_arguments(self):
        # Q1(a, b) = P(X > b^2) for X noncentral chi-square with 2 degrees of
        # freedom and noncentrality a^2. The grid has a = b, ab up to 1e8, and
        # detection points up to 100 dB, where the series used to run until
        # k > ab and give up. Each call is timed as the best of three runs.
        points = [(a, a) for a in (0.5, 3.0, 30.0, 300.0, 3000.0, 1e4)]
        points += [(1e4, 1e4 + d) for d in (-3.0, -0.5, 0.5, 3.0)]
        points += [
            (math.sqrt(2.0 * 10.0 ** (snr_db / 10.0)), math.sqrt(-2.0 * math.log(pf)))
            for snr_db in (30.0, 80.0, 90.0, 100.0)
            for pf in (1e-6, 0.1)
        ]
        rng = np.random.default_rng(7)
        points += [tuple(rng.uniform(0.0, 50.0, 2)) for _ in range(20)]
        for a, b in points:
            seconds = []
            for _ in range(3):
                start = time.perf_counter()
                value = marcum_q1(a, b)
                seconds.append(time.perf_counter() - start)
            assert abs(value - stats.ncx2.sf(b * b, 2, a * a)) < 1e-8, (a, b)
            assert min(seconds) < 0.05, (a, b, seconds)

    @staticmethod
    def _first_separating_b(a, log_eps, rising):
        """Smallest (rising) or largest b at which the Poisson windows of a and b are disjoint."""
        k_lo, k_hi = sensing._poisson_window(0.5 * a * a, log_eps)

        def disjoint(b):
            j_lo, j_hi = sensing._poisson_window(0.5 * b * b, log_eps)
            return j_lo > k_hi if rising else j_hi < k_lo

        lo, hi = (a, a + 40.0) if rising else (0.0, a)  # disjoint(hi) if rising, disjoint(lo) if not
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if disjoint(mid) == rising:
                hi = mid
            else:
                lo = mid
        return hi if rising else lo

    def test_window_and_envelope_edges_match_noncentral_chi2(self):
        # Either side of the places the evaluation changes form: the Poisson
        # windows of lam = a^2/2 and mu = b^2/2 just overlapping or just
        # separating, and the envelope test (b - a)^2 / 2 = log(40 / tol)
        # that answers 0 or 1 without a sum.
        log_eps = math.log(40.0 / 1e-10)
        points = []
        for a in (0.3, 2.0, 8.0, 30.0, 300.0):
            for rising in (True, False):
                if not rising and a < 20.0:
                    continue  # the lower window of mu reaches 0 before it separates
                edge = self._first_separating_b(a, log_eps, rising)
                points += [(a, edge * (1.0 + d)) for d in (-1e-9, 1e-9)]
            for sign in (1.0, -1.0):
                edge = a + sign * math.sqrt(2.0 * log_eps)
                if edge > 0.0:
                    points += [(a, edge * (1.0 + d)) for d in (-1e-9, 1e-9)]
        assert len(points) == 30
        # Small a or b, up to and past the shortcuts lam or mu <= tol / 10.
        tiny = [math.sqrt(2e-11) * (1.0 + d) for d in (-1e-9, 1e-9)]
        tiny += np.geomspace(1e-6, 0.3, 12).tolist()
        points += [(t, x) for t in tiny for x in (0.5, 3.0)]
        points += [(x, t) for t in tiny for x in (0.5, 3.0)]
        for a, b in points:
            assert abs(marcum_q1(a, b) - stats.ncx2.sf(b * b, 2, a * a)) < 1e-10, (a, b)

    def test_rises_in_a_falls_in_b_and_stays_in_unit_interval(self):
        axis = np.concatenate(([0.0], np.geomspace(1e-3, 60.0, 70)))
        q = np.array([[marcum_q1(a, b) for b in axis] for a in axis])
        assert np.all((q >= 0.0) & (q <= 1.0))
        # Non-increasing in b, non-decreasing in a, up to rounding of values near 1.
        assert np.all(np.diff(q, axis=0) >= -1e-15)
        assert np.all(np.diff(q, axis=1) <= 1e-15)
        assert q[:, 0].tolist() == [1.0] * axis.size  # b = 0

    def test_symmetry_relation(self):
        # Q1(a, b) + Q1(b, a) = 1 + e^{-(a^2+b^2)/2} I_0(ab), with scipy's
        # exponentially scaled Bessel function as the oracle.
        rng = np.random.default_rng(11)
        points = [tuple(rng.uniform(0.0, 20.0, 2)) for _ in range(200)]
        points += [(a, a + d) for a in (50.0, 500.0, 5000.0) for d in (0.0, 0.3, 2.0)]
        for a, b in points:
            rhs = 1.0 + math.exp(-0.5 * (a - b) ** 2) * special.ive(0, a * b)
            assert abs(marcum_q1(a, b) + marcum_q1(b, a) - rhs) < 1e-10, (a, b)

    def test_poisson_pmf_in_loader_form(self):
        # Small rates: scipy's pmf is exact to rounding there, where its log is small.
        for lam in (1e-3, 0.5, 7.0, 30.0):
            k = np.arange(0.0, 120.0)
            ours = sensing._poisson_pmf(k, np.full_like(k, lam))
            ref = stats.poisson.pmf(k, lam)
            keep = ref > 1e-30
            np.testing.assert_allclose(ours[keep], ref[keep], rtol=1e-13, atol=0.0)
        # Large rates, where exp(-lam + k log lam - lgamma(k + 1)) is 1e-7 off:
        # the exact ratio p(k+1) / p(k) = lam / (k+1), and the window's mass.
        for lam in (5e3, 5e7):
            lo, hi = sensing._poisson_window(lam, math.log(40.0 / 1e-10))
            k = np.arange(lo, hi + 1.0)
            pmf = sensing._poisson_pmf(k, np.full_like(k, lam))
            keep = pmf[:-1] > 1e-250
            np.testing.assert_allclose((pmf[1:] / pmf[:-1])[keep], lam / k[1:][keep],
                                       rtol=1e-13, atol=0.0)
            assert abs(math.fsum(pmf) - 1.0) < 1e-12

    def test_series_too_long_raises(self):
        # ab = 2e10 with a = b needs about 2.9e6 terms: stop and say so.
        with pytest.raises(RuntimeError, match="terms"):
            marcum_q1(math.sqrt(2e10), math.sqrt(2e10))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            marcum_q1(-1.0, 1.0)
        with pytest.raises(ValueError):
            marcum_q1(1.0, math.nan)

    def test_invalid_tolerance(self):
        for tol in (0.0, -1e-10, 1.0, math.nan):
            with pytest.raises(ValueError, match="tol"):
                marcum_q1(1.0, 2.0, tol)


class TestDetectionProbability:
    def test_zero_snr_equals_false_alarm(self):
        cfg = DetectionConfig(0.01)
        assert np.isclose(detection_probability(0.0, cfg), 0.01, atol=1e-12)

    def test_tiny_false_alarm_rates_keep_relative_accuracy(self):
        # Pd >= Pf: at Pf = 1e-20 and 0 dB the absolute default tolerance of
        # marcum_q1 would read 0.
        for pf in (1e-6, 1e-12, 1e-20, 1e-50, 1e-200):
            cfg = DetectionConfig(pf)
            b = math.sqrt(2.0 * cfg.threshold)
            for snr in (0.0, 0.1, 1.0, 10.0):
                value = detection_probability(snr, cfg)
                ref = stats.ncx2.sf(b * b, 2, 2.0 * snr)
                assert value >= pf * (1.0 - 1e-7), (pf, snr, value)
                assert abs(value - ref) <= 1e-7 * ref, (pf, snr, value, ref)

    def test_monotone_in_snr(self):
        cfg = DetectionConfig(0.05)
        values = [detection_probability(s, cfg) for s in np.linspace(0.0, 50.0, 40)]
        assert np.all(np.diff(values) >= -1e-12)

    def test_threshold_invariant(self):
        cfg = DetectionConfig(0.1)
        assert np.isclose(cfg.threshold, -math.log(0.1))


class TestGlrt:
    @pytest.fixture
    def calibrated(self):
        scene = ris_scene(fluctuating_target=False, target_gain_var=1.0)
        design = maximize_illumination(scene)
        return scene, design

    def test_false_alarm_calibration(self, calibrated):
        scene, design = calibrated
        cfg = DetectionConfig(0.05)
        res = glrt_monte_carlo(scene, design.w, design.phi, 100000, [cfg], seed=21)[0]
        sigma = math.sqrt(0.05 * 0.95 / 100000)
        assert abs(res.empirical_pf - 0.05) <= 3.0 * sigma

    def test_zero_power_detection_matches_false_alarm(self, calibrated):
        scene, design = calibrated
        dead = scene.replace(target_gain_var=0.0)
        cfg = DetectionConfig(0.1)
        res = glrt_monte_carlo(dead, design.w, design.phi, 50000, [cfg], seed=5)[0]
        sigma = math.sqrt(0.1 * 0.9 / 50000)
        assert abs(res.empirical_pd - 0.1) <= 4.0 * sigma

    def test_high_snr_detects(self, calibrated):
        scene, design = calibrated
        snr = 100.0  # 20 dB
        gain_var = snr * scene.noise_power_sensing / (
            scene.rx.num_elements * design.power
        )
        hot = scene.replace(target_gain_var=gain_var)
        res = glrt_monte_carlo(
            hot, design.w, design.phi, 20000, [DetectionConfig(0.01)], seed=6
        )[0]
        assert res.empirical_pd > 0.99

    def test_matches_marcum_formula(self, calibrated):
        scene, design = calibrated
        snr = 10.0
        gain_var = snr * scene.noise_power_sensing / (
            scene.rx.num_elements * design.power
        )
        tuned = scene.replace(target_gain_var=gain_var)
        cfg = DetectionConfig(0.01)
        res = glrt_monte_carlo(tuned, design.w, design.phi, 100000, [cfg], seed=31)[0]
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
        res = glrt_monte_carlo(rayleigh, design.w, design.phi, trials, [cfg], seed=17)[0]
        pd = math.exp(-cfg.threshold / (1.0 + snr))
        assert binomial_z(res.empirical_pd, pd, trials) <= 4.0
        assert binomial_z(res.empirical_pf, pf, trials) <= 4.0

    @pytest.mark.parametrize("fluctuating", [False, True])
    @pytest.mark.parametrize("theta", [0.7, 2.1])
    def test_invariant_to_a_common_precoder_phase(self, calibrated, theta, fluctuating):
        # e^{j theta} w rotates the echo gain g; the statistic depends on |g|
        # only, so the same seed gives the same Pd and Pf.
        scene, design = calibrated
        tuned = at_snr(scene, design, 10.0 ** 0.5).replace(fluctuating_target=fluctuating)
        rotated = np.exp(1j * theta) * design.w
        cfg = DetectionConfig(0.05)
        ref = glrt_monte_carlo(tuned, design.w, design.phi, 20000, [cfg], seed=8)[0]
        res = glrt_monte_carlo(tuned, rotated, design.phi, 20000, [cfg], seed=8)[0]
        assert 0.05 < ref.empirical_pd < 0.95
        assert res.empirical_pd == ref.empirical_pd
        assert res.empirical_pf == ref.empirical_pf

    @pytest.mark.parametrize("fluctuating", [False, True])
    def test_several_thresholds_read_one_draw(self, calibrated, fluctuating):
        # Every threshold reads the same draws, so each result equals the
        # call with its config alone and the same seed.
        scene, design = calibrated
        tuned = at_snr(scene, design, 10.0 ** 0.5).replace(fluctuating_target=fluctuating)
        cfgs = [DetectionConfig(0.05), DetectionConfig(0.01)]
        both = glrt_monte_carlo(tuned, design.w, design.phi, 20000, cfgs, seed=8)
        alone = [glrt_monte_carlo(tuned, design.w, design.phi, 20000, [c], seed=8)[0]
                 for c in cfgs]
        assert len(both) == 2 and both.trials == 20000
        for res, ref in zip(both, alone):
            assert res == ref
            assert dataclasses.astuple(res) == dataclasses.astuple(ref)
        assert both[0].empirical_pf >= both[1].empirical_pf
        assert both[0].empirical_pd >= both[1].empirical_pd
        # A lone config is read as a one-element sequence.
        lone = glrt_monte_carlo(tuned, design.w, design.phi, 20000, cfgs[1], seed=8)
        assert lone == [both[1]]

    @pytest.mark.parametrize("fluctuating", [False, True])
    def test_several_gains_read_one_draw(self, calibrated, fluctuating):
        # Common random numbers: the rows of each gain equal the call with
        # that gain alone and the same seed, exactly. 40000 trials span two
        # full slices of the per-gain work and a partial one.
        scene, design = calibrated
        scene = scene.replace(fluctuating_target=fluctuating)
        gains = [0.0] + [at_snr(scene, design, 10.0 ** (db / 10.0)).target_gain_var
                         for db in (0.0, 5.0, 10.0)]
        cfgs = [DetectionConfig(0.1), DetectionConfig(0.01)]
        rows = glrt_monte_carlo(scene, design.w, design.phi, 40000, cfgs, seed=8,
                                target_gain_vars=gains)
        assert len(rows) == len(gains) * len(cfgs) and rows.trials == 40000
        for k, gain in enumerate(gains):
            alone = glrt_monte_carlo(scene.replace(target_gain_var=gain), design.w,
                                     design.phi, 40000, cfgs, seed=8)
            assert rows[k * len(cfgs):(k + 1) * len(cfgs)] == alone, gain
        # The H0 draw is shared too: Pf repeats across gains.
        assert [r.empirical_pf for r in rows] == [r.empirical_pf for r in rows[:2]] * len(gains)

    @pytest.mark.parametrize("gains", [[], [1.0, -1e-3], [math.nan], [math.inf]])
    def test_bad_gain_variances_rejected(self, calibrated, gains):
        scene, design = calibrated
        with pytest.raises(ValueError, match="target"):
            glrt_monte_carlo(scene, design.w, design.phi, 1000, [DetectionConfig(0.1)],
                             seed=0, target_gain_vars=gains)

    @pytest.mark.parametrize(
        "fluctuating,counts",
        [(False, [(1000, 12197), (172, 7380)]), (True, [(1000, 9717), (172, 6599)])],
    )
    def test_single_threshold_counts_are_pinned(self, calibrated, fluctuating, counts):
        # Detection counts of the one-threshold-per-call simulator at this
        # seed: the shared draw keeps the draw order, so they do not move.
        scene, design = calibrated
        tuned = at_snr(scene, design, 10.0 ** 0.5).replace(fluctuating_target=fluctuating)
        for pf, (false_alarms, detections) in zip([0.05, 0.01], counts):
            res = glrt_monte_carlo(
                tuned, design.w, design.phi, 20000, [DetectionConfig(pf)], seed=8
            )[0]
            assert res.empirical_pf == false_alarms / 20000
            assert res.empirical_pd == detections / 20000

    def test_empty_configs_rejected(self, calibrated):
        scene, design = calibrated
        with pytest.raises(ValueError, match="at least one"):
            glrt_monte_carlo(scene, design.w, design.phi, 1000, [], seed=0)


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
        res = glrt_monte_carlo(tuned, design.w, design.phi, trials, [cfg], seed=41)[0]
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

    def test_extreme_snr_neither_overflows_nor_divides_by_zero(self):
        # snr**2 overflows at 1e200 and underflows to zero at 1e-200.
        assert crb_angle(1e200, 2, 1.0, 4) == pytest.approx(1e-200)
        assert crb_angle(1e-200, 2, 1.0, 4) == math.inf
        assert crb_angle(1e-100, 2, 1.0, 4) == pytest.approx(1e200)

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
                # Both modes illuminate the same blocked scene.
                assert rows[(idx, "ris_aided")].power == rows[(idx, "ris_only")].power

    def test_aided_dominates_without(self, sweep):
        rows, blocked = sweep
        for idx in range(len(blocked)):
            assert rows[(idx, "ris_aided")].power >= rows[(idx, "without_ris")].power - 1e-15

    def test_no_ris_blocked_waypoints_are_dark(self):
        # Without an RIS a blocked waypoint has no path to the target: every
        # mode has power 0 and an infinite CRB instead of an error.
        scene = ris_scene(ris=None)
        rows = trajectory_sweep(scene, [(40.0, 0.0), (45.0, 5.0)], blocked=[False, True])
        assert [r.mode for r in rows[:3]] == ["ris_aided", "ris_only", "without_ris"]
        lit, dark = rows[:3], rows[3:]
        assert lit[0].power == lit[2].power > 0.0 and lit[1].power == 0.0
        for row in dark:
            assert row.power == 0.0 and math.isinf(row.crb)
