import dataclasses
import math

import numpy as np
import pytest

from risac import (
    DegenerateChannelError,
    InfeasibleRateError,
    IsacScenario,
    UlaGeometry,
    achievable_rate,
    crb_min_beamformer,
    isac_crb,
    make_coupled_channel,
    max_illumination_beamformer,
    steering_vector,
    tradeoff_curve,
)
from risac import isac
from risac.arrays import steering_derivative
from risac.cli import run_experiment
from risac.config import RunConfig

from oracles import coupling_coefficient, max_illumination_reference


def table1_scenario(h_c=None, theta=0.0):
    """L_T = L_S = 15, P_T = 1 W, sigma^2 = -60 dBm, target at broadside."""
    geom = UlaGeometry(15)
    a_t = steering_vector(geom, theta)
    return IsacScenario(
        a_t=a_t,
        a_r=steering_vector(geom, theta),
        a_r_dot=steering_derivative(geom, theta),
        h_c=a_t if h_c is None else h_c,
        noise_comms=1e-9,
        noise_sensing=1e-9,
        target_gain_var=1.0,
        samples=64,
        budget=1.0,
    )


def span_search_best_illumination(scenario, rate_floor, samples, rng):
    """Randomized oracle over the conjugated 2-D span containing the optimum.

    Returns the best |a_t^T w|^2 over rate-feasible, budget-feasible samples
    of z1 * conj(h_c_hat) + z2 * conj(residual_hat).
    """
    a_t, h_c = scenario.a_t, scenario.h_c
    q_hat = h_c.conj() / np.linalg.norm(h_c)
    resid = a_t.conj() - np.vdot(q_hat, a_t.conj()) * q_hat
    if np.linalg.norm(resid) > 1e-12:
        resid /= np.linalg.norm(resid)
    snr_floor = (2.0**rate_floor - 1.0) * scenario.noise_comms
    coeffs = rng.standard_normal((samples, 4))
    z1 = coeffs[:, 0] + 1j * coeffs[:, 1]
    z2 = coeffs[:, 2] + 1j * coeffs[:, 3]
    w = z1[:, None] * q_hat + z2[:, None] * resid  # one sample per row
    norms = np.linalg.norm(w, axis=1)
    keep = norms != 0.0
    w = w[keep] * (math.sqrt(scenario.budget) / norms[keep])[:, None]  # budget sphere
    feasible = np.abs(w @ h_c) ** 2 >= snr_floor
    if not np.any(feasible):
        return -1.0
    return float(np.max(np.abs(w[feasible] @ a_t) ** 2))


def span_search_loop_reference(scenario, rate_floor, samples, rng):
    """Sample-by-sample form of ``span_search_best_illumination``."""
    a_t, h_c = scenario.a_t, scenario.h_c
    q_hat = h_c.conj() / np.linalg.norm(h_c)
    resid = a_t.conj() - np.vdot(q_hat, a_t.conj()) * q_hat
    if np.linalg.norm(resid) > 1e-12:
        resid /= np.linalg.norm(resid)
    snr_floor = (2.0**rate_floor - 1.0) * scenario.noise_comms
    best = -1.0
    for x1, y1, x2, y2 in rng.standard_normal((samples, 4)):
        w = (x1 + 1j * y1) * q_hat + (x2 + 1j * y2) * resid
        norm = np.linalg.norm(w)
        if norm == 0.0:
            continue
        w *= math.sqrt(scenario.budget) / norm
        if np.abs(h_c @ w) ** 2 < snr_floor:
            continue
        best = max(best, float(np.abs(a_t @ w) ** 2))
    return best


def edge_floor(sc):
    """A floor within the 1e-12 feasibility slack above the max rate: its SNR
    floor exceeds P ||h_c||^2, so the residual coefficient clips to zero."""
    gain = float(np.real(np.vdot(sc.h_c, sc.h_c)))
    return math.log2(1.0 + sc.budget * gain / sc.noise_comms * (1.0 + 5e-13))


def assert_sweep_matches_reference(sc, floors, sol=None):
    """Every row of ``sol``, by default ``crb_min_beamformer(sc, floors)``, equals
    the per-floor reference bit for bit."""
    sol = crb_min_beamformer(sc, floors) if sol is None else sol
    assert sol.weights.shape == (len(floors), sc.a_t.size)
    rows = zip(floors, sol.weights, sol.boundary, sol.rates, sol.crbs)
    for r0, w, boundary, rate, crb in rows:
        ref_w, branch, ref_rate = max_illumination_reference(
            sc.a_t, sc.h_c, sc.budget, sc.noise_comms, r0)
        assert np.array_equal(w, ref_w.weights)
        assert boundary == (branch == "boundary")
        assert rate == ref_rate
        assert crb == isac_crb(ref_w, sc)
    return sol


class TestRate:
    def test_orthogonal_transpose_sense(self):
        h_c = np.array([1.0, 1j], dtype=complex)
        w = np.array([1.0, 1j]) / math.sqrt(2)  # h_c^T w = 1 + (1j)(1j) = 0
        assert achievable_rate(h_c, w, 1e-9) == 0.0

    def test_conjugate_matched_gives_peak_rate(self):
        rng = np.random.default_rng(3)
        h_c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        w = h_c.conj() / np.linalg.norm(h_c)
        expected = math.log2(1.0 + np.linalg.norm(h_c) ** 2 / 1e-9)
        assert np.isclose(achievable_rate(h_c, w, 1e-9), expected)

    def test_unit_snr_is_one_bit(self):
        h_c = np.array([1.0 + 0.0j])
        w = np.array([math.sqrt(2.0)])
        assert np.isclose(achievable_rate(h_c, w, 2.0), 1.0)


class TestCrb:
    def test_orthogonal_precoder_infinite(self):
        sc = table1_scenario()
        w = np.zeros(15, dtype=complex)
        w[0], w[1] = 1.0, -1.0  # a_t^T w = 0 at broadside
        assert math.isinf(isac_crb(w / np.linalg.norm(w), sc))

    def test_matched_filter_value(self):
        sc = table1_scenario(theta=0.35)
        w = sc.a_t.conj() / np.linalg.norm(sc.a_t)
        expected = (
            sc.noise_sensing * 15
            / (2.0 * sc.samples * sc.target_gain_var * sc.adot_norm_sq * 15)
        )
        assert np.isclose(isac_crb(w, sc), expected, rtol=1e-12)

    def test_halving_power_doubles_crb(self):
        sc = table1_scenario(theta=0.2)
        w = sc.a_t.conj() / np.linalg.norm(sc.a_t)
        assert np.isclose(isac_crb(w / math.sqrt(2.0), sc), 2.0 * isac_crb(w, sc))


class TestCoupling:
    def test_collinear(self):
        a = steering_vector(UlaGeometry(8), 0.4)
        assert np.isclose(coupling_coefficient(2.0j * a, a), 1.0)

    def test_orthogonal(self):
        a = np.array([1.0, 1.0], dtype=complex)
        b = np.array([1.0, -1.0], dtype=complex)
        assert coupling_coefficient(a, b) < 1e-15

    def test_constructed_angle(self):
        rng = np.random.default_rng(9)
        a = steering_vector(UlaGeometry(10), -0.3)
        a_hat = a / np.linalg.norm(a)
        z = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        u = z - np.vdot(a_hat, z) * a_hat
        u /= np.linalg.norm(u)
        for psi in [0.0, 0.4, 1.1, np.pi / 2]:
            h = math.cos(psi) * a_hat + math.sin(psi) * u
            assert np.isclose(coupling_coefficient(h, a), abs(math.cos(psi)), atol=1e-12)


class TestMakeCoupledChannel:
    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.6, 0.9, 1.0])
    def test_exact_coupling(self, rho):
        a = steering_vector(UlaGeometry(15), 0.0)
        h = make_coupled_channel(a, rho, seed=4)
        assert abs(coupling_coefficient(h, a) - rho) < 1e-10

    def test_extremes(self):
        a = steering_vector(UlaGeometry(6), 0.5)
        h1 = make_coupled_channel(a, 1.0, seed=0)
        assert np.linalg.matrix_rank(np.column_stack([h1, a]), tol=1e-10) == 1
        h0 = make_coupled_channel(a, 0.0, seed=0)
        assert abs(np.vdot(h0, a)) < 1e-10

    def test_gain_controls_norm(self):
        a = steering_vector(UlaGeometry(6), 0.5)
        h = make_coupled_channel(a, 0.5, seed=1, gain=0.25)
        assert np.isclose(np.linalg.norm(h), 0.25 * np.linalg.norm(a))


class TestClosedForm:
    def test_full_alignment_reproduces_strong_coupling_formulas(self):
        sc = table1_scenario(h_c=make_coupled_channel(
            steering_vector(UlaGeometry(15), 0.0), 1.0, seed=8))
        for r0 in [0.0, 2.0, 10.0, 0.9 * sc.max_rate]:
            sol = crb_min_beamformer(sc, [r0])
            assert not sol.boundary[0]
            crb_expected = sc.noise_sensing * 15 / (
                2.0 * sc.target_gain_var * sc.samples * sc.adot_norm_sq * 15
            )
            rate_expected = math.log2(1.0 + np.linalg.norm(sc.h_c) ** 2 / sc.noise_comms)
            assert abs(sol.crbs[0] - crb_expected) < 1e-9 * crb_expected
            assert abs(sol.rates[0] - rate_expected) < 1e-9

    def test_zero_coupling_reproduces_formula(self):
        a_t = steering_vector(UlaGeometry(15), 0.0)
        sc = table1_scenario(h_c=make_coupled_channel(a_t, 0.0, seed=8))
        r0 = 10.0
        sol = crb_min_beamformer(sc, [r0])
        snr_floor = (2.0**r0 - 1.0) * sc.noise_comms
        crb_expected = sc.noise_sensing * 15 / (
            2.0 * sc.target_gain_var * sc.samples
            * (1.0 - snr_floor / np.linalg.norm(sc.h_c) ** 2)
            * sc.adot_norm_sq * 15
        )
        assert abs(sol.crbs[0] - crb_expected) < 1e-9 * crb_expected
        assert abs(sol.rates[0] - r0) < 1e-9

    def test_zero_threshold_is_matched_filter(self):
        sc = table1_scenario(h_c=make_coupled_channel(
            steering_vector(UlaGeometry(15), 0.0), 0.4, seed=2))
        sol = crb_min_beamformer(sc, [0.0])
        assert not sol.boundary[0]
        matched = sc.a_t.conj() / np.linalg.norm(sc.a_t)
        assert np.allclose(sol.weights[0], matched)

    def test_matched_filter_branch_uses_channel_norm(self):
        # A channel vector a_t with ||a_t||^2 != L_T: the matched filter
        # meets half its own SNR, so it is optimal.
        a = steering_vector(UlaGeometry(15), 0.0)
        sc = dataclasses.replace(
            table1_scenario(h_c=make_coupled_channel(a, 0.6, seed=4)), a_t=0.1 * a
        )
        mf_snr = sc.budget * abs(np.vdot(sc.h_c, sc.a_t)) ** 2 / np.linalg.norm(sc.a_t) ** 2
        r0 = math.log2(1.0 + 0.5 * mf_snr / sc.noise_comms)
        sol = crb_min_beamformer(sc, [r0])
        assert not sol.boundary[0]
        illum = float(np.abs(sc.a_t @ sol.weights[0]) ** 2)
        expected = sc.budget * np.linalg.norm(sc.a_t) ** 2
        assert abs(illum - expected) <= 1e-12 * expected

    def test_infeasible_rate_raises_with_max_rate(self):
        sc = table1_scenario()
        with pytest.raises(InfeasibleRateError) as err:
            crb_min_beamformer(sc, [sc.max_rate + 1.0])
        assert np.isclose(err.value.max_rate, sc.max_rate)

    def test_feasibility_on_random_instances(self):
        a_t = steering_vector(UlaGeometry(15), 0.0)
        rng = np.random.default_rng(77)
        for trial in range(1000):
            rho = rng.uniform(0.0, 1.0)
            gain = rng.uniform(0.25, 2.0)
            sc = table1_scenario(h_c=make_coupled_channel(a_t, rho, seed=trial, gain=gain))
            r0 = rng.uniform(0.0, sc.max_rate)
            sol = crb_min_beamformer(sc, [r0])
            assert np.real(np.vdot(sol.weights[0], sol.weights[0])) <= 1.0 + 1e-12
            assert sol.rates[0] >= r0 - 1e-9
            if sol.boundary[0]:
                assert abs(sol.rates[0] - r0) < 1e-9

    def test_span_search_never_beats_closed_form(self):
        a_t = steering_vector(UlaGeometry(15), 0.0)
        rng = np.random.default_rng(5)
        for trial in range(100):
            rho = rng.uniform(0.0, 0.999)
            sc = table1_scenario(h_c=make_coupled_channel(a_t, rho, seed=trial))
            r0 = rng.uniform(0.1, 0.9) * sc.max_rate
            sol = crb_min_beamformer(sc, [r0])
            closed_illum = float(np.abs(sc.a_t @ sol.weights[0]) ** 2)
            oracle = span_search_best_illumination(sc, r0, 10000, rng)
            assert oracle <= closed_illum * (1.0 + 1e-6)

    def test_span_search_matches_loop_reference(self):
        a_t = steering_vector(UlaGeometry(15), 0.0)
        for trial, rho in enumerate((0.0, 0.4, 0.95)):
            sc = table1_scenario(h_c=make_coupled_channel(a_t, rho, seed=trial))
            for frac in (0.2, 0.9, 1.2):  # 1.2: no sample meets the rate
                r0 = frac * sc.max_rate
                fast = span_search_best_illumination(sc, r0, 500, np.random.default_rng(trial))
                slow = span_search_loop_reference(sc, r0, 500, np.random.default_rng(trial))
                assert abs(fast - slow) <= 1e-12 * abs(slow)

    def test_branch_boundary_continuity(self):
        # Build an instance sitting exactly on the branch condition.
        a_t = steering_vector(UlaGeometry(15), 0.0)
        r0 = 8.0
        snr_floor = (2.0**r0 - 1.0) * 1e-9
        gain = 1.0
        hc_norm_sq = gain**2 * 15.0
        rho_star = math.sqrt(snr_floor / hc_norm_sq)  # P_T = 1
        sc = table1_scenario(h_c=make_coupled_channel(a_t, rho_star, seed=3, gain=gain))
        below = crb_min_beamformer(sc, [r0 * (1.0 - 1e-9)]).crbs[0]
        above = crb_min_beamformer(sc, [r0 * (1.0 + 1e-9)]).crbs[0]
        assert abs(below - above) < 1e-8 * below


class TestTradeoffCurve:
    def test_monotone_structure(self):
        sc = table1_scenario()
        rhos = [0.0, 0.3, 0.6, 0.9, 1.0]
        rows, max_rate = tradeoff_curve(sc, rhos, 12, channel_gain=1.0, seed=6)
        assert math.isclose(max_rate, sc.max_rate, rel_tol=1e-14)  # h_c = a_t, unit gain
        grid = np.linspace(0.0, 0.98 * max_rate, 12)
        assert [row.rate_threshold for row in rows] == list(grid) * len(rhos)
        by_rho = {}
        for row in rows:
            by_rho.setdefault(row.rho, []).append(row)
        # CRB non-decreasing in the rate threshold at fixed coupling.
        for rho, entries in by_rho.items():
            crbs = [e.crb for e in entries]
            assert all(b >= a - 1e-15 for a, b in zip(crbs, crbs[1:]))
        # CRB non-increasing in coupling at a fixed feasible threshold.
        for idx in range(len(grid)):
            crbs = [by_rho[rho][idx].crb for rho in rhos]
            assert all(b <= a * (1.0 + 1e-9) for a, b in zip(crbs, crbs[1:]))
        # Fully-aligned channels show no trade-off at all.
        flat = [e.crb for e in by_rho[1.0]]
        assert np.ptp(flat) < 1e-12 * flat[0]

    def test_rejects_empty_grids(self):
        sc = table1_scenario()
        with pytest.raises(ValueError):
            tradeoff_curve(sc, [], 1)
        with pytest.raises(ValueError):
            tradeoff_curve(sc, [0.5], 0)


class TestSweep:
    def test_both_branches_match_the_reference(self):
        sc = table1_scenario(h_c=make_coupled_channel(
            steering_vector(UlaGeometry(15), 0.0), 0.5, seed=1))
        sol = assert_sweep_matches_reference(sc, np.linspace(0.0, 0.98 * sc.max_rate, 25))
        assert sol.boundary.any() and not sol.boundary.all()

    def test_aligned_channels_match_the_reference(self):
        # h_c = a_t leaves a residual below 1e-14 ||a_t||, so the boundary
        # row puts all of its power along q_hat.
        sc = table1_scenario()
        q_hat = sc.h_c.conj() / np.linalg.norm(sc.h_c)
        p_perp = sc.a_t.conj() - np.vdot(q_hat, sc.a_t.conj()) * q_hat
        assert np.linalg.norm(p_perp) < 1e-14 * np.linalg.norm(sc.a_t)
        sol = assert_sweep_matches_reference(sc, [0.0, 0.5 * sc.max_rate, edge_floor(sc)])
        assert sol.boundary.tolist() == [False, False, True]

    def test_unlit_row_has_infinite_crb(self):
        # Exactly orthogonal channels: at the edge floor the whole budget
        # serves the user and a_t^T w is exactly zero.
        sc = IsacScenario(a_t=[1.0, 0.0], a_r=[1.0, 1.0], a_r_dot=[0.0, 1j], h_c=[0.0, 1.0],
                          noise_comms=1e-9, noise_sensing=1e-9)
        sol = assert_sweep_matches_reference(sc, [0.0, edge_floor(sc)])
        assert sol.boundary.tolist() == [False, True]
        assert math.isfinite(sol.crbs[0]) and math.isinf(sol.crbs[1])

    def test_negative_floor_raises(self):
        sc = table1_scenario()
        with pytest.raises(ValueError, match="nonnegative"):
            crb_min_beamformer(sc, [0.0, 1.0, -1e-12, 2.0])

    def test_floor_above_max_rate_raises_with_max_rate(self):
        sc = table1_scenario(h_c=make_coupled_channel(
            steering_vector(UlaGeometry(15), 0.0), 0.3, seed=2))
        floors = [0.0, 0.5 * sc.max_rate, sc.max_rate + 0.5, 0.9 * sc.max_rate]
        with pytest.raises(InfeasibleRateError) as err:
            max_illumination_beamformer(sc.a_t, sc.h_c, sc.budget, sc.noise_comms, floors)
        assert err.value.max_rate == pytest.approx(sc.max_rate, rel=1e-14)
        assert err.value.requested == floors[2]

    def test_zero_comms_channel_raises(self):
        a_t = steering_vector(UlaGeometry(4), 0.2)
        with pytest.raises(DegenerateChannelError):
            max_illumination_beamformer(a_t, np.zeros(4, dtype=complex), 1.0, 1e-9, [0.0, 1.0])

    def test_empty_grid_returns_no_rows(self):
        sc = table1_scenario()
        weights, boundary, rates = max_illumination_beamformer(
            sc.a_t, sc.h_c, sc.budget, sc.noise_comms, np.array([]))
        assert weights.shape == (0, 15) and boundary.shape == (0,) and rates.shape == (0,)
        assert crb_min_beamformer(sc, []).crbs.shape == (0,)

    def test_isac_tradeoff_sweeps_once_per_rho_and_matches_the_reference(
            self, tmp_path, monkeypatch):
        # One crb_min_beamformer call per rho (5, not 5 x 25), and every row
        # of a default run at config seeds 0-9 equals the per-floor solve.
        calls = []
        sweep = isac.crb_min_beamformer

        def recorded(scenario, rate_thresholds):
            calls.append((scenario, rate_thresholds, sweep(scenario, rate_thresholds)))
            return calls[-1][2]

        monkeypatch.setattr(isac, "crb_min_beamformer", recorded)
        for seed in range(10):
            calls.clear()
            run_experiment(RunConfig(experiment="isac-tradeoff", seed=seed), tmp_path / str(seed))
            assert [len(floors) for _, floors, _ in calls] == [25] * 5
            for call in calls:
                assert_sweep_matches_reference(*call)
