import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special, stats

from risac import (
    DegenerateChannelError,
    DetectionConfig,
    Scene,
    UlaGeometry,
    detection_probability,
    glrt_at_snrs,
    glrt_monte_carlo,
    marcum_q1,
    maximize_illumination,
    steering_vector,
    trajectory_sweep,
)
from risac import arrays, channels, cli, sensing
from risac.channels import (
    RisIsacScenario,
    angles_from_geometry,
    build_sensing_channels,
)
from risac.config import RunConfig, scene_from_config
from risac.isac import kappa

from oracles import (
    align_ris_phases,
    glrt_full_length_reference,
    illumination_power,
    matched_filter_beamformer,
    matched_filter_snr,
    path_gains,
    rank_one_illumination_bound,
    trajectory_sweep_reference,
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

    Draws an L_S-antenna noise snapshot per trial and hypothesis, with a
    fixed-amplitude target of uniform phase, and projects it onto the
    normalized receive steering vector. Returns (Pf, Pd).
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
        scene = ris_scene(direct_gain_override=0.0, ris_gain_override=1.0)
        res = maximize_illumination(scene)
        assert np.isclose(res.power, 4 * 8**2, rtol=1e-9)
        # With the direct path blocked the result is the RIS-only closed
        # form P |beta_t|^2 L_T N^2, whatever the gain phases.
        for seed in range(5):
            scene = ris_scene(seed=seed, direct_gain_override=0.0, transmit_power=2.0)
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
        # The sweep builds every waypoint in one batch and calls no from_scene.
        batches = []
        monkeypatch.setattr(sensing, "target_channels",
                            lambda *args: batches.append(args) or channels.target_channels(*args))
        waypoints = [(40.0, 0.0), (45.0, 5.0)]
        trajectory_sweep(scene, waypoints, blocked=[False, True])
        assert calls == [] and batches == [(scene, waypoints)]

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
        [dict(seed=12), dict(seed=1, direct_gain_override=0.0),
         dict(tx=UlaGeometry(8), rx=UlaGeometry(8), ris=UlaGeometry(16), seed=2),
         dict(ris=UlaGeometry(5), direct_gain_override=0.01, ris_gain_override=0.002j,
              transmit_power=3.0),
         dict(target_position=(10.0, 25.0), seed=7),
         # The RIS at 30 deg: the four-element a_t(omega_t) sums to zero.
         dict(ris_position=(30.0 * math.cos(math.pi / 6), 15.0), direct_gain_override=0.0)],
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
        scene = ris_scene(direct_gain_override=0.0, ris_gain_override=0.0)
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

    def test_inverts_the_detect_gain_calibration(self):
        scene = ris_scene()
        design = maximize_illumination(scene)
        for snr in (1e-3, 1.0, 1e4):
            tuned = at_snr(scene, design, snr)
            assert matched_filter_snr(design.power, tuned) == pytest.approx(snr, rel=1e-14)


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

    def test_poisson_pmf_of_two_rates_in_one_call(self):
        # marcum_q1's layout: a block of k at lam, then a block at mu, in one
        # call. Each block holds k = 0 and entries both near its rate, where
        # bd0 comes from the atanh series, and far from it.
        for lam, mu in ((3.0, 7.0), (7.0, 30.0), (30.0, 12.0)):
            k = np.concatenate((np.arange(0.0, 80.0), np.arange(0.0, 90.0)))
            rates = np.full_like(k, mu)
            rates[:80] = lam
            near = np.abs(k - rates) < 0.1 * (k + rates)
            assert near[:80].any() and near[80:].any() and not near.all()
            ours = sensing._poisson_pmf(k, rates)
            ref = stats.poisson.pmf(k, rates)
            keep = ref > 1e-30
            assert keep[[0, 80]].all()
            np.testing.assert_allclose(ours[keep], ref[keep], rtol=1e-13, atol=0.0)

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
        scene = ris_scene(target_gain_var=1.0)
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

    # "False" in the case ids below names the fixed-amplitude target, the one
    # model the Monte Carlo simulates; it keeps each case's id stable.
    @pytest.mark.parametrize("theta", [0.7, 2.1], ids=["0.7-False", "2.1-False"])
    def test_invariant_to_a_common_precoder_phase(self, calibrated, theta):
        # e^{j theta} w rotates the echo gain g; the statistic depends on |g|
        # only, so the same seed gives the same Pd and Pf.
        scene, design = calibrated
        tuned = at_snr(scene, design, 10.0 ** 0.5)
        rotated = np.exp(1j * theta) * design.w
        cfg = DetectionConfig(0.05)
        ref = glrt_monte_carlo(tuned, design.w, design.phi, 20000, [cfg], seed=8)[0]
        res = glrt_monte_carlo(tuned, rotated, design.phi, 20000, [cfg], seed=8)[0]
        assert 0.05 < ref.empirical_pd < 0.95
        assert res.empirical_pd == ref.empirical_pd
        assert res.empirical_pf == ref.empirical_pf

    @pytest.mark.parametrize("seed", [8], ids=["False"])
    def test_several_thresholds_read_one_draw(self, calibrated, seed):
        # Every threshold reads the same draws, so each result equals the
        # call with its config alone and the same seed.
        scene, design = calibrated
        tuned = at_snr(scene, design, 10.0 ** 0.5)
        cfgs = [DetectionConfig(0.05), DetectionConfig(0.01)]
        both = glrt_monte_carlo(tuned, design.w, design.phi, 20000, cfgs, seed=seed)
        alone = [glrt_monte_carlo(tuned, design.w, design.phi, 20000, [c], seed=seed)[0]
                 for c in cfgs]
        assert len(both) == 2 and both.trials == 20000
        for res, ref in zip(both, alone):
            assert res == ref
            assert dataclasses.astuple(res) == dataclasses.astuple(ref)
        assert both[0].empirical_pf >= both[1].empirical_pf
        assert both[0].empirical_pd >= both[1].empirical_pd
        # A lone config is read as a one-element sequence.
        lone = glrt_monte_carlo(tuned, design.w, design.phi, 20000, cfgs[1], seed=seed)
        assert lone == [both[1]]

    @pytest.mark.parametrize("seed", [8], ids=["False"])
    def test_several_gains_read_one_draw(self, calibrated, seed):
        # Common random numbers: the rows of each gain equal the call with
        # that gain alone and the same seed, exactly. 40000 trials span two
        # full blocks of the draw and threshold passes and a partial one.
        scene, design = calibrated
        gains = [0.0] + [at_snr(scene, design, 10.0 ** (db / 10.0)).target_gain_var
                         for db in (0.0, 5.0, 10.0)]
        cfgs = [DetectionConfig(0.1), DetectionConfig(0.01)]
        rows = glrt_monte_carlo(scene, design.w, design.phi, 40000, cfgs, seed=seed,
                                target_gain_vars=gains)
        assert len(rows) == len(gains) * len(cfgs) and rows.trials == 40000
        for k, gain in enumerate(gains):
            alone = glrt_monte_carlo(scene.replace(target_gain_var=gain), design.w,
                                     design.phi, 40000, cfgs, seed=seed)
            assert rows[k * len(cfgs):(k + 1) * len(cfgs)] == alone, gain
        # The H0 draw is shared too: Pf repeats across gains.
        assert [r.empirical_pf for r in rows] == [r.empirical_pf for r in rows[:2]] * len(gains)

    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("trials", [1, 1000, 16384, 16385, 40000, 100000])
    def test_blocked_draws_equal_the_full_length_reference(self, calibrated, trials, seed):
        # One block is 16384 trials: a lone trial, part of a block, one full
        # block, one trial past it, and several blocks with a partial one.
        scene, design = calibrated
        gains = [0.0] + [at_snr(scene, design, 10.0 ** (db / 10.0)).target_gain_var
                         for db in (0.0, 10.0)]
        cfgs = [DetectionConfig(0.1), DetectionConfig(0.01)]
        rows = glrt_monte_carlo(scene, design.w, design.phi, trials, cfgs, seed=seed,
                                target_gain_vars=gains)
        assert rows == glrt_full_length_reference(scene, design.w, design.phi, trials, cfgs,
                                                   seed, gains)
        assert rows.trials == trials

    def test_default_detect_call_stays_under_its_memory_bound(self):
        # tracemalloc peak of one call at the default detect scene, after a
        # warm-up: about 1.03 MiB with blocked draws (s x, 800 kB, plus two
        # blocks), 2.39 MiB if E, y and the statistic each span every trial.
        cfg = RunConfig(experiment="detect")
        scene = scene_from_config(cfg)
        design = maximize_illumination(scene)
        cfgs = [DetectionConfig(pf) for pf in cfg.pf_list]
        gains = [at_snr(scene, design, 10.0 ** (db / 10.0)).target_gain_var
                 for db in cfg.snr_db_list]
        assert (cfg.trials, len(gains), len(cfgs)) == (100000, 3, 2)

        def call():
            return glrt_monte_carlo(scene, design.w, design.phi, cfg.trials, cfgs, seed=0,
                                    target_gain_vars=gains)

        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 2**20

    @pytest.mark.parametrize("gains", [[], [1.0, -1e-3], [math.nan], [math.inf]])
    def test_bad_gain_variances_rejected(self, calibrated, gains):
        scene, design = calibrated
        with pytest.raises(ValueError, match="target"):
            glrt_monte_carlo(scene, design.w, design.phi, 1000, [DetectionConfig(0.1)],
                             seed=0, target_gain_vars=gains)

    @pytest.mark.parametrize("counts", [[(1000, 12197), (172, 7380)]], ids=["False-counts0"])
    def test_single_threshold_counts_are_pinned(self, calibrated, counts):
        # Detection counts of the one-threshold-per-call simulator at this
        # seed: the shared draw keeps the draw order, so they do not move.
        scene, design = calibrated
        tuned = at_snr(scene, design, 10.0 ** 0.5)
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

    @pytest.mark.parametrize("snrs", [[], [1.0, -1e-3], [math.nan], [math.inf]])
    def test_bad_snrs_rejected(self, snrs):
        with pytest.raises(ValueError, match="SNR"):
            glrt_at_snrs(snrs, [DetectionConfig(0.1)], 1000, 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("scene_kw", [{}, dict(n_ris=256, l_t=32, l_s=32)],
                             ids=["default", "scaled"])
    def test_snr_grid_rows_equal_the_matched_filter_at_calibrated_gains(self, scene_kw, seed):
        # detect draws at its SNR grid, with echo amplitude sqrt(SNR) and unit
        # output noise. The matched-filter model, lit by the closed-form
        # design and at the target gains that put its output SNR on that
        # grid, cancels to the same statistic: the same rows, exactly.
        cfg = RunConfig(experiment="detect", seed=seed, **scene_kw)
        scene = scene_from_config(cfg)
        design = maximize_illumination(scene)
        snrs = [10.0 ** (db / 10.0) for db in cfg.snr_db_list]
        gains = [at_snr(scene, design, snr).target_gain_var for snr in snrs]
        cfgs = [DetectionConfig(pf) for pf in cfg.pf_list]
        # The draw seed detect derives from the config seed.
        draw_seed = int(np.random.SeedSequence(seed).spawn(1)[0].generate_state(1)[0])
        rows = glrt_at_snrs(snrs, cfgs, cfg.trials, draw_seed)
        assert rows == glrt_full_length_reference(scene, design.w, design.phi, cfg.trials,
                                                   cfgs, draw_seed, gains)
        assert rows.trials == cfg.trials


class TestGlrtSnapshotReference:
    """The matched-filter-output draw against the full L_S-antenna snapshot."""

    @pytest.fixture(scope="class")
    def default_design(self):
        scene = scene_from_config(RunConfig(experiment="detect"))
        return scene, maximize_illumination(scene)

    # "False" in the case ids names the fixed-amplitude target, as in TestGlrt.
    @pytest.mark.parametrize("snr_db", [0.0, 5.0, 10.0],
                             ids=["0.0-False", "5.0-False", "10.0-False"])
    def test_two_sample_agreement(self, default_design, snr_db):
        scene, design = default_design
        assert scene.rx.num_elements == 15
        tuned = at_snr(scene, design, 10.0 ** (snr_db / 10.0))
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
        tuned = at_snr(scene, design, 10.0 ** 0.5)
        ref_pf, ref_pd = glrt_snapshot_reference(
            tuned, design.w, design.phi, 40000, cfg, seed=43
        )
        assert binomial_z(ref_pf, 0.1, 40000) <= 4.0
        assert binomial_z(ref_pd, detection_probability(10.0 ** 0.5, cfg), 40000) <= 4.0


class TestCrbAngle:
    """The angle CRB kappa / power of ``trajectory_sweep``, kappa from ``isac.kappa``."""

    def test_high_snr_limit(self):
        # The fixed-gain bound has no 1/SNR^2 term: times the matched-filter
        # SNR it is L_S / (2T ||adot||^2) at every SNR, not only at high SNR.
        l_s, samples, adot_sq, noise = 15, 64, 2.0 * math.pi**2, 1e-9
        lead = l_s / (2.0 * samples * adot_sq)
        for power in (1e-13, 1e-10, 1e-3):
            snr = l_s * power / noise
            crb = kappa(noise, samples, 1.0, adot_sq) / power
            assert crb * snr == pytest.approx(lead, rel=1e-14)

    def test_zero_snr_infinite(self):
        # No gain, no derivative or a NaN: the echo holds no angle information.
        for args in ((0.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (1.0, math.nan)):
            assert kappa(1e-9, 10, *args) == math.inf
        rows = trajectory_sweep(ris_scene(target_gain_var=0.0), [(40.0, 0.0)], [False])
        assert rows[0][2] > -math.inf and all(crb == math.inf for *_, crb in rows)

    def test_extreme_snr_neither_overflows_nor_divides_by_zero(self):
        # Information that overflows is a CRB of 0.0, which run_experiment
        # rejects; one that underflows is no information.
        assert kappa(1.0, 2, 1e300, 1e10) == 0.0
        assert kappa(1.0, 2, 1e-200, 1e-200) == math.inf
        assert kappa(1.0, 2, 1e-100, 1.0) == pytest.approx(2.5e99)
        assert kappa(1.0, 2, 1e-160, 1e-160) == math.inf  # 1 / 4e-320 overflows

    def test_strictly_decreasing_in_snr(self):
        k = kappa(1e-9, 16, 1.0, 5.0)
        values = [k / p for p in [0.5, 1.0, 2.0, 4.0, 8.0]]
        assert np.all(np.diff(values) < 0.0)
        gains = [kappa(1e-9, 16, g, 5.0) for g in [0.5, 1.0, 2.0, 4.0, 8.0]]
        assert np.all(np.diff(gains) < 0.0)

    def test_scales_inverse_with_samples(self):
        assert kappa(1.0, 32, 1.0, 5.0) == 0.5 * kappa(1.0, 16, 1.0, 5.0)


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
        return {(idx, mode): (power_db, crb) for idx, mode, power_db, crb in rows}, blocked

    def test_blocked_without_ris_dead(self, sweep):
        rows, blocked = sweep
        for idx, blk in enumerate(blocked):
            if blk:
                power_db, crb = rows[(idx, "without_ris")]
                assert power_db == -math.inf and math.isinf(crb)
                assert math.isfinite(rows[(idx, "ris_aided")][1])

    def test_blocked_aided_equals_ris_only(self, sweep):
        rows, blocked = sweep
        for idx, blk in enumerate(blocked):
            if blk:
                # Both modes illuminate the same blocked scene.
                assert rows[(idx, "ris_aided")] == rows[(idx, "ris_only")]

    def test_aided_dominates_without(self, sweep):
        rows, blocked = sweep
        for idx in range(len(blocked)):
            assert rows[(idx, "ris_aided")][0] >= rows[(idx, "without_ris")][0]

    @pytest.mark.parametrize("seed", range(10))
    def test_blocked_rows_equal_a_zero_direct_gain(self, seed):
        # A blocked waypoint of the sense-sweep CSV reads as the same waypoint,
        # unblocked, on a scene whose direct gains are pinned to 0.
        cfg = RunConfig(experiment="sense-sweep", seed=seed)
        tables, diag = cli._run_sense_sweep(cfg)
        rows = tables[""][1]
        zero = scene_from_config(cfg).replace(direct_gain_override=0.0)
        blocked = [i for i, blk in enumerate(diag["blocked"]) if blk]
        assert blocked
        for idx in blocked:
            ours = [row[1:] for row in rows if row[0] == idx]
            theirs = [row[1:] for row in trajectory_sweep(zero, [diag["waypoints"][idx]], [False])]
            assert ours == theirs

    def test_no_ris_blocked_waypoints_are_dark(self):
        # Without an RIS a blocked waypoint has no path to the target: every
        # mode has power 0 and an infinite CRB instead of an error.
        scene = ris_scene(ris=None)
        rows = trajectory_sweep(scene, [(40.0, 0.0), (45.0, 5.0)], blocked=[False, True])
        assert [row[1] for row in rows[:3]] == ["ris_aided", "ris_only", "without_ris"]
        lit, dark = rows[:3], rows[3:]
        assert lit[0][2] == lit[2][2] > -math.inf and lit[1][2] == -math.inf
        for row in dark:
            assert row[2] == -math.inf and math.isinf(row[3])


def _road(cfg):
    """(scene, waypoints, blocked) of the sense-sweep run of ``cfg``, read back from its summary."""
    diag = cli._run_sense_sweep(cfg)[1]
    return scene_from_config(cfg), diag["waypoints"], diag["blocked"]


class TestTrajectorySweepOracle:
    """One batched build per sweep writes the rows of one ``from_scene`` per waypoint, exactly."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("sizes", [{}, dict(n_ris=256, l_t=32, l_s=32)],
                             ids=["default", "scaled"])
    def test_config_scenes(self, seed, sizes):
        scene, waypoints, blocked = _road(RunConfig(experiment="sense-sweep", seed=seed, **sizes))
        assert trajectory_sweep(scene, waypoints, blocked) == trajectory_sweep_reference(
            scene, waypoints, blocked)

    @pytest.mark.parametrize("changes", [
        dict(num_waypoints=1), dict(num_waypoints=10), dict(num_waypoints=50),
        dict(blocked_from_index=0), dict(n_ris=0)],
        ids=["1-waypoint", "10-waypoints", "50-waypoints", "all-blocked", "no-ris"])
    def test_edge_configs(self, changes):
        scene, waypoints, blocked = _road(RunConfig(experiment="sense-sweep", seed=4, **changes))
        assert trajectory_sweep(scene, waypoints, blocked) == trajectory_sweep_reference(
            scene, waypoints, blocked)

    @pytest.mark.parametrize("gains", [dict(direct_gain_override=0.0),
                                       dict(ris_gain_override=3e-4 * np.exp(0.7j))],
                             ids=["direct-0", "ris-pinned"])
    def test_gain_overrides(self, gains):
        scene, waypoints, blocked = _road(RunConfig(experiment="sense-sweep", seed=6))
        scene = scene.replace(**gains)
        assert trajectory_sweep(scene, waypoints, blocked) == trajectory_sweep_reference(
            scene, waypoints, blocked)

    @pytest.mark.parametrize("scene_changes, waypoints", [
        ({}, [(10.0, 25.0), (20.0, 25.0), (30.0, 30.0), (40.0, 25.0)]),  # waypoint 2 on the RIS
        (dict(user_position=(30.0, 30.0)), [(0.0, 0.0), (10.0, 25.0)]),  # BS first, then the pair
        (dict(user_position=(30.0, 30.0)), [(10.0, 25.0), (0.0, 0.0)]),  # the fixed pair first
        ({}, [(10.0, 25.0), (20.0, 25.0), (math.nan, 25.0)]),
        ({}, [(10.0, 25.0), (20.0, 25.0, 1.0)]),
        # The path-loss amplitude of waypoint 1 passes 1e64 before waypoint 2 meets the BS.
        (dict(pathloss_exp_direct=-30.0), [(10.0, 25.0), (1e6, 0.0), (0.0, 0.0)]),
    ], ids=["on-ris", "at-bs-and-user-at-ris", "user-at-ris", "nan", "three-coordinates",
            "amplitude-before-coincidence"])
    def test_faults_raise_the_first_error_of_a_per_waypoint_build(self, scene_changes,
                                                                  waypoints):
        scene = ris_scene(**scene_changes)
        blocked = [False] * len(waypoints)
        with pytest.raises(ValueError) as expected:
            trajectory_sweep_reference(scene, waypoints, blocked)
        with pytest.raises(ValueError) as raised:
            trajectory_sweep(scene, waypoints, blocked)
        assert (type(raised.value), str(raised.value)) == (type(expected.value),
                                                           str(expected.value))

    def test_steering_calls_do_not_grow_with_waypoints(self, monkeypatch):
        # A structural guard on the batch, with no timing: the steering
        # matrices of the target's bearings are one call each, so the count
        # is that of one waypoint (a_t, a_r and adot_r at theta1, b at theta2,
        # a_t, a_r and b at omega_t, and the user's a_t and b).
        calls = []

        def counted(geom, angle):
            calls.append(geom)
            return steering_vector(geom, angle)

        monkeypatch.setattr(arrays, "steering_vector", counted)
        monkeypatch.setattr(channels, "steering_vector", counted)
        scene = scene_from_config(RunConfig(experiment="sense-sweep"))
        counts = []
        for count in (1, 10, 100):
            waypoints = [(10.0 + 45.0 * f, 25.0) for f in np.linspace(0.0, 1.0, count)]
            calls.clear()
            trajectory_sweep(scene, waypoints, [False] * count)
            counts.append(len(calls))
        assert counts == [9, 9, 9]
