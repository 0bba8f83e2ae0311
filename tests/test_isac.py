import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from risac import (
    DegenerateChannelError,
    InfeasibleRateError,
    UlaGeometry,
    crb_min_beamformer,
    steering_vector,
    tradeoff_curve,
)
from risac import RisIsacScenario, align_profile, cli, isac
from risac.arrays import steering_derivative
from risac.channels import angles_from_geometry, pathloss_amplitude
from risac.cli import run_experiment
from risac.config import RunConfig, scene_from_config

from oracles import (
    achievable_rate,
    coupling_coefficient,
    isac_crb,
    make_coupled_channel,
    max_illumination_reference,
    trace_form_crb,
)


TABLE1_NUMBERS = {"noise_comms": 1e-9, "noise_sensing": 1e-9, "target_gain_var": 1.0,
                  "samples": 64, "budget": 1.0}


def isac_scenario(a_t, a_r, a_r_dot, h_c, **numbers):
    """The vectors and numbers of one single-beam ISAC instance; numbers
    default to ``TABLE1_NUMBERS``."""
    vectors = {"a_t": a_t, "a_r": a_r, "a_r_dot": a_r_dot, "h_c": h_c}
    return SimpleNamespace(
        **{k: np.asarray(v, dtype=complex).reshape(-1) for k, v in vectors.items()},
        **{**TABLE1_NUMBERS, **numbers})


def table1_scenario(h_c=None, theta=0.0):
    """L_T = L_S = 15, P_T = 1 W, sigma^2 = -60 dBm, target at broadside."""
    geom = UlaGeometry(15)
    a_t = steering_vector(geom, theta)
    return isac_scenario(a_t, steering_vector(geom, theta), steering_derivative(geom, theta),
                         a_t if h_c is None else h_c)


def adot_norm_sq(sc) -> float:
    return float(np.real(np.vdot(sc.a_r_dot, sc.a_r_dot)))


def kappa(sc) -> float:
    """kappa of CRB = kappa / |a_t^T w|^2: sigma_s^2 / (2 T sigma_eta^2 ||adot_r||^2)."""
    return sc.noise_sensing / (2.0 * sc.samples * sc.target_gain_var * adot_norm_sq(sc))


def max_rate(sc) -> float:
    gain = float(np.real(np.vdot(sc.h_c, sc.h_c)))
    return math.log2(1.0 + sc.budget * gain / sc.noise_comms)


def channel_terms(sc):
    """(a_sq, h_sq, corr_sq) of the instance: the three numbers the closed form reads."""
    return (float(np.real(np.vdot(sc.a_t, sc.a_t))), float(np.real(np.vdot(sc.h_c, sc.h_c))),
            abs(complex(np.vdot(sc.h_c, sc.a_t))) ** 2)


def beams(sc, floors):
    """(w, branch, rate) of ``max_illumination_reference`` for each floor of the instance."""
    return [max_illumination_reference(sc.a_t, sc.h_c, sc.budget, sc.noise_comms, r0)
            for r0 in floors]


def sweep(sc, floors):
    """(rates, crbs) of ``crb_min_beamformer`` for the instance."""
    return crb_min_beamformer(*channel_terms(sc), kappa(sc), sc.budget, sc.noise_comms, floors)


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


def assert_sweep_matches_reference(sc, floors, swept=None):
    """Every row of ``swept``, by default ``sweep(sc, floors)``, matches the
    vector reference: the rate of its beam to 1e-11 relative (1e-15 absolute
    near 0 bits) and the CRB of its beam, through |a_t^T w|^2, to 1e-14
    relative. The scalar rule and the beam round differently. Returns
    (boundary mask, CRBs)."""
    rates, crbs = sweep(sc, floors) if swept is None else swept
    assert len(rates) == len(crbs) == len(floors)
    boundary = []
    for (ref_w, branch, ref_rate), rate, crb in zip(beams(sc, floors), rates, crbs):
        boundary.append(branch == "boundary")
        assert rate == pytest.approx(ref_rate, rel=1e-11, abs=1e-15)
        assert crb == pytest.approx(isac_crb(ref_w, sc), rel=1e-14, abs=0)
    return np.array(boundary, dtype=bool), crbs


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
        expected = sc.noise_sensing / (2.0 * sc.samples * sc.target_gain_var
                                       * adot_norm_sq(sc) * 15)
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
        floors = [0.0, 2.0, 10.0, 0.9 * max_rate(sc)]
        assert not assert_sweep_matches_reference(sc, floors)[0].any()
        crb_expected = sc.noise_sensing / (
            2.0 * sc.target_gain_var * sc.samples * adot_norm_sq(sc) * 15
        )
        rate_expected = math.log2(1.0 + np.linalg.norm(sc.h_c) ** 2 / sc.noise_comms)
        for rate, crb in zip(*sweep(sc, floors)):
            assert abs(crb - crb_expected) < 1e-9 * crb_expected
            assert abs(rate - rate_expected) < 1e-9

    def test_zero_coupling_reproduces_formula(self):
        a_t = steering_vector(UlaGeometry(15), 0.0)
        sc = table1_scenario(h_c=make_coupled_channel(a_t, 0.0, seed=8))
        r0 = 10.0
        (rate,), (crb,) = sweep(sc, [r0])
        snr_floor = (2.0**r0 - 1.0) * sc.noise_comms
        crb_expected = sc.noise_sensing / (
            2.0 * sc.target_gain_var * sc.samples
            * (1.0 - snr_floor / np.linalg.norm(sc.h_c) ** 2)
            * adot_norm_sq(sc) * 15
        )
        assert abs(crb - crb_expected) < 1e-9 * crb_expected
        assert abs(rate - r0) < 1e-9

    def test_zero_threshold_is_matched_filter(self):
        sc = table1_scenario(h_c=make_coupled_channel(
            steering_vector(UlaGeometry(15), 0.0), 0.4, seed=2))
        (rate,), (crb,) = sweep(sc, [0.0])
        matched = sc.a_t.conj() / np.linalg.norm(sc.a_t)
        assert rate == pytest.approx(achievable_rate(sc.h_c, matched, sc.noise_comms), rel=1e-14)
        assert crb == pytest.approx(isac_crb(matched, sc), rel=1e-14)

    def test_matched_filter_branch_uses_channel_norm(self):
        # A channel vector a_t with ||a_t||^2 != L_T: the matched filter
        # meets half its own SNR, so it is optimal.
        a = steering_vector(UlaGeometry(15), 0.0)
        sc = table1_scenario(h_c=make_coupled_channel(a, 0.6, seed=4))
        sc.a_t = 0.1 * a
        mf_snr = sc.budget * abs(np.vdot(sc.h_c, sc.a_t)) ** 2 / np.linalg.norm(sc.a_t) ** 2
        r0 = math.log2(1.0 + 0.5 * mf_snr / sc.noise_comms)
        (crb,) = sweep(sc, [r0])[1]
        assert not assert_sweep_matches_reference(sc, [r0])[0][0]
        expected = kappa(sc) / (sc.budget * np.linalg.norm(sc.a_t) ** 2)
        assert abs(crb - expected) <= 1e-12 * expected

    def test_infeasible_rate_raises_with_max_rate(self):
        sc = table1_scenario()
        with pytest.raises(InfeasibleRateError) as err:
            sweep(sc, [max_rate(sc) + 1.0])
        assert np.isclose(err.value.max_rate, max_rate(sc))

    def test_feasibility_on_random_instances(self):
        a_t = steering_vector(UlaGeometry(15), 0.0)
        rng = np.random.default_rng(77)
        for trial in range(1000):
            rho = rng.uniform(0.0, 1.0)
            gain = rng.uniform(0.25, 2.0)
            sc = table1_scenario(h_c=make_coupled_channel(a_t, rho, seed=trial, gain=gain))
            r0 = rng.uniform(0.0, max_rate(sc))
            (w, branch, _), = beams(sc, [r0])
            (rate,), _ = sweep(sc, [r0])
            assert np.real(np.vdot(w, w)) <= 1.0 + 1e-12
            assert rate >= r0 - 1e-9
            if branch == "boundary":
                assert abs(rate - r0) < 1e-9

    def test_span_search_never_beats_closed_form(self):
        a_t = steering_vector(UlaGeometry(15), 0.0)
        rng = np.random.default_rng(5)
        for trial in range(100):
            rho = rng.uniform(0.0, 0.999)
            sc = table1_scenario(h_c=make_coupled_channel(a_t, rho, seed=trial))
            r0 = rng.uniform(0.1, 0.9) * max_rate(sc)
            closed_illum = kappa(sc) / sweep(sc, [r0])[1][0]
            oracle = span_search_best_illumination(sc, r0, 10000, rng)
            assert oracle <= closed_illum * (1.0 + 1e-6)

    def test_span_search_matches_loop_reference(self):
        a_t = steering_vector(UlaGeometry(15), 0.0)
        for trial, rho in enumerate((0.0, 0.4, 0.95)):
            sc = table1_scenario(h_c=make_coupled_channel(a_t, rho, seed=trial))
            for frac in (0.2, 0.9, 1.2):  # 1.2: no sample meets the rate
                r0 = frac * max_rate(sc)
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
        below, above = sweep(sc, [r0 * (1.0 - 1e-9), r0 * (1.0 + 1e-9)])[1]
        assert abs(below - above) < 1e-8 * below


class TestTradeoffCurve:
    def test_monotone_structure(self):
        sc = table1_scenario()
        rhos = [0.0, 0.3, 0.6, 0.9, 1.0]
        rows, rate_max = tradeoff_curve(sc.a_t.size, kappa(sc), sc.budget, sc.noise_comms, rhos,
                                        12, channel_gain=1.0)
        assert math.isclose(rate_max, max_rate(sc), rel_tol=1e-14)  # h_c = a_t, unit gain
        grid = np.linspace(0.0, 0.98 * rate_max, 12)
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
        args = (sc.a_t.size, kappa(sc), sc.budget, sc.noise_comms)
        with pytest.raises(ValueError):
            tradeoff_curve(*args, [], 1)
        with pytest.raises(ValueError):
            tradeoff_curve(*args, [0.5], 0)
        with pytest.raises(ValueError, match="rho"):
            tradeoff_curve(*args, [0.5, 1.5], 3)

    def test_one_transmit_element_needs_full_coupling(self):
        # One element leaves no comms direction orthogonal to a_t, so only
        # rho = 1 has a channel.
        sc = isac_scenario([1.0], [1.0, 1.0], [0.0, 1j], [1.0])
        args = (sc.a_t.size, kappa(sc), sc.budget, sc.noise_comms)
        with pytest.raises(DegenerateChannelError, match="one transmit element"):
            tradeoff_curve(*args, [1.0, 0.999], 3)
        rows, _ = tradeoff_curve(*args, [1.0], 3)
        assert all(math.isfinite(row.crb) for row in rows)


class TestSweep:
    def test_both_branches_match_the_reference(self):
        sc = table1_scenario(h_c=make_coupled_channel(
            steering_vector(UlaGeometry(15), 0.0), 0.5, seed=1))
        boundary, _ = assert_sweep_matches_reference(
            sc, np.linspace(0.0, 0.98 * max_rate(sc), 25))
        assert boundary.any() and not boundary.all()

    def test_aligned_channels_match_the_reference(self):
        # h_c = a_t leaves a residual below 1e-14 ||a_t||, so the boundary
        # row puts all of its power along q_hat.
        sc = table1_scenario()
        q_hat = sc.h_c.conj() / np.linalg.norm(sc.h_c)
        p_perp = sc.a_t.conj() - np.vdot(q_hat, sc.a_t.conj()) * q_hat
        assert np.linalg.norm(p_perp) < 1e-14 * np.linalg.norm(sc.a_t)
        boundary, _ = assert_sweep_matches_reference(
            sc, [0.0, 0.5 * max_rate(sc), edge_floor(sc)])
        assert boundary.tolist() == [False, False, True]

    @pytest.mark.parametrize("l_t, rho", [(1, 1.0)] + [(l_t, rho) for l_t in (2, 15)
                                                       for rho in (0.0, 0.3, 1.0 - 1e-9, 1.0)])
    def test_scalar_rule_matches_the_beam(self, l_t, rho):
        # Floors at 0, at the branch switch P corr_sq = a_sq snr and at 98%
        # of the max rate. One element has no channel with rho < 1
        # (test_one_transmit_element_needs_full_coupling).
        rx = UlaGeometry(15)
        a_t = steering_vector(UlaGeometry(l_t), 0.3)
        sc = isac_scenario(a_t, steering_vector(rx, 0.3), steering_derivative(rx, 0.3),
                           make_coupled_channel(a_t, rho, seed=l_t, gain=0.5))
        a_sq, _, corr_sq = channel_terms(sc)
        switch = math.log2(1.0 + sc.budget * corr_sq / (a_sq * sc.noise_comms))
        assert_sweep_matches_reference(sc, [0.0, switch, 0.98 * max_rate(sc)])

    def test_unlit_row_has_infinite_crb(self):
        # Exactly orthogonal channels: at the edge floor the whole budget
        # serves the user and a_t^T w is exactly zero.
        sc = isac_scenario(a_t=[1.0, 0.0], a_r=[1.0, 1.0], a_r_dot=[0.0, 1j], h_c=[0.0, 1.0])
        boundary, crbs = assert_sweep_matches_reference(sc, [0.0, edge_floor(sc)])
        assert boundary.tolist() == [False, True]
        assert math.isfinite(crbs[0]) and math.isinf(crbs[1])

    def test_negative_floor_raises(self):
        sc = table1_scenario()
        with pytest.raises(ValueError, match="nonnegative"):
            sweep(sc, [0.0, 1.0, -1e-12, 2.0])

    def test_floor_above_max_rate_raises_with_max_rate(self):
        sc = table1_scenario(h_c=make_coupled_channel(
            steering_vector(UlaGeometry(15), 0.0), 0.3, seed=2))
        floors = [0.0, 0.5 * max_rate(sc), max_rate(sc) + 0.5, 0.9 * max_rate(sc)]
        with pytest.raises(InfeasibleRateError) as err:
            sweep(sc, floors)
        assert err.value.max_rate == pytest.approx(max_rate(sc), rel=1e-14)
        assert err.value.requested == floors[2]

    def test_zero_comms_channel_raises(self):
        with pytest.raises(DegenerateChannelError):
            crb_min_beamformer(4.0, 0.0, 0.0, 1.0, 1.0, 1e-9, [0.0, 1.0])

    def test_empty_grid_returns_no_rows(self):
        sc = table1_scenario()
        rates, crbs = sweep(sc, np.array([]))
        assert rates.shape == (0,) and crbs.shape == (0,)

    def test_isac_tradeoff_sweeps_once_per_rho_and_matches_the_reference(
            self, tmp_path, monkeypatch):
        # One crb_min_beamformer call per rho (5, not 5 x 25), and every row
        # of a default run at config seeds 0-9 matches the vector reference
        # on the seeded channel the run once drew for its rho; the oracle's
        # CRB reads the receive side from the scene, so this also checks the
        # runner's kappa.
        calls = []
        shared = isac.crb_min_beamformer

        def recorded(*args):
            calls.append((args, shared(*args)))
            return calls[-1][1]

        monkeypatch.setattr(isac, "crb_min_beamformer", recorded)
        for seed in range(10):
            calls.clear()
            cfg = RunConfig(experiment="isac-tradeoff", seed=seed)
            run_experiment(cfg, tmp_path / str(seed))
            scene = scene_from_config(cfg)
            theta = angles_from_geometry(scene).theta1
            a_t = steering_vector(scene.tx, theta)
            gain = pathloss_amplitude(math.dist(cfg.target_position, cfg.bs_position),
                                      cfg.pathloss_exp_direct)
            assert [len(args[6]) for args, _ in calls] == [25] * 5
            for rho, (args, swept) in zip(cfg.rho_list, calls):
                *terms, _, p_t, sigma_c, floors = args
                sc = isac_scenario(
                    a_t, steering_vector(scene.rx, theta), steering_derivative(scene.rx, theta),
                    make_coupled_channel(a_t, rho, seed=seed, gain=gain), noise_comms=sigma_c,
                    noise_sensing=scene.noise_power_sensing,
                    target_gain_var=scene.target_gain_var, samples=scene.samples, budget=p_t)
                np.testing.assert_allclose(terms, channel_terms(sc), rtol=1e-14, atol=1e-20)
                assert_sweep_matches_reference(sc, floors, swept)

    def test_isac_tradeoff_csv_does_not_depend_on_the_seed(self, tmp_path):
        # The rows read the channels through a_sq, h_sq and corr_sq alone, so
        # no seeded comms channel moves a cell: the run once drew one per rho.
        first = None
        for seed in range(10):
            run_experiment(RunConfig(experiment="isac-tradeoff", seed=seed), tmp_path / str(seed))
            data = (tmp_path / str(seed) / "isac-tradeoff.csv").read_bytes()
            first = data if first is None else first
            assert data == first, seed

    def test_both_tradeoffs_reach_the_shared_sweep(self, tmp_path, monkeypatch):
        # isac-tradeoff sweeps once per rho and ris-isac-tradeoff once per RIS
        # mode, both through isac.crb_min_beamformer. Every risac binding of
        # it is counted, as a tracer that wraps the function would count it.
        shared, calls = isac.crb_min_beamformer, []

        def counted(*args):
            calls.append(None)
            return shared(*args)

        holders = [mod for name, mod in sys.modules.items()
                   if name.split(".")[0] == "risac"
                   and getattr(mod, "crb_min_beamformer", None) is shared]
        assert {"risac.isac", "risac.ris_isac"} <= {mod.__name__ for mod in holders}
        for mod in holders:
            monkeypatch.setattr(mod, "crb_min_beamformer", counted)
        for experiment, expected in (("isac-tradeoff", 5), ("ris-isac-tradeoff", 3)):
            calls.clear()
            run_experiment(RunConfig(experiment=experiment), tmp_path / experiment)
            assert len(calls) == expected


SCENES = {"default": {}, "scaled": dict(n_ris=256, l_t=32, l_s=32)}


class TestOneCrbModel:
    """The three CRB experiments against the trace-form oracle of Liu et al.

    Each experiment writes CRB = ``isac.kappa`` / illumination with its own
    gain convention: ``sense-sweep`` and ``isac-tradeoff`` put sigma_eta^2
    on the unit receive steering vector, ``ris-isac-tradeoff`` puts the
    receive path gain in b and sigma_eta^2 on top. The oracle forms A, Adot
    and R = w w^H for the beam each row stands for, and takes the transmit
    derivative too, which the closed form drops. The largest gap at config
    seeds 0-2 is 1.6e-15 relative.
    """

    @staticmethod
    def _oracle(scene, b, b_dot, a, a_dot, w):
        return trace_form_crb(b, b_dot, a, a_dot, w, scene.noise_power_sensing, scene.samples,
                              scene.target_gain_var)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("scene_name", SCENES)
    def test_every_finite_sense_sweep_cell(self, scene_name, seed):
        cfg = RunConfig(experiment="sense-sweep", seed=seed, **SCENES[scene_name])
        tables, diag = cli._run_sense_sweep(cfg)
        template = scene_from_config(cfg)
        checked = 0
        for idx, mode, power_db, crb in tables[""][1]:
            if not math.isfinite(crb):
                continue
            scene = template.replace(target_position=np.asarray(diag["waypoints"][idx]))
            channel = RisIsacScenario.from_scene(scene)
            on = 0.0 if diag["blocked"][idx] or mode == "ris_only" else 1.0
            a_t, r_t = on * channel.a_t_term, channel.r_t[:0 if mode == "without_ris" else None]
            h_t = a_t + channel.g_t * (r_t @ align_profile(a_t, channel.g_t, r_t))
            w = math.sqrt(scene.transmit_power) * h_t / np.linalg.norm(h_t)
            assert 10.0 * math.log10(abs(np.vdot(h_t, w)) ** 2) == pytest.approx(power_db,
                                                                                rel=1e-12)
            theta = angles_from_geometry(scene).theta1
            expected = self._oracle(scene, steering_vector(scene.rx, theta),
                                    steering_derivative(scene.rx, theta), h_t,
                                    on * channel.a_t_dot_term, w)
            assert crb == pytest.approx(expected, rel=1e-13), (idx, mode)
            checked += 1
        assert checked >= len(tables[""][1]) // 2

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("scene_name", SCENES)
    def test_isac_tradeoff_at_full_coupling_and_zero_floor(self, scene_name, seed):
        cfg = RunConfig(experiment="isac-tradeoff", seed=seed, **SCENES[scene_name])
        rows = cli._run_isac_tradeoff(cfg)[0][""][1]
        (crb,) = [r[3] for r in rows if r[0] == 1.0 and r[1] == 0.0]
        scene = scene_from_config(cfg)
        theta = angles_from_geometry(scene).theta1
        a_t = steering_vector(scene.tx, theta)
        w = math.sqrt(scene.transmit_power) * a_t.conj() / np.linalg.norm(a_t)
        expected = self._oracle(scene, steering_vector(scene.rx, theta),
                                steering_derivative(scene.rx, theta), a_t.conj(),
                                steering_derivative(scene.tx, theta).conj(), w)
        assert crb == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("scene_name", SCENES)
    @pytest.mark.parametrize("coupling", ["weak", "strong"])
    def test_ris_isac_without_at_zero_floor(self, scene_name, seed, coupling):
        cfg = RunConfig(experiment="ris-isac-tradeoff", seed=seed, coupling=coupling,
                        **SCENES[scene_name])
        rows = cli._run_ris_isac_tradeoff(cfg)[0][""][1]
        (crb,) = [r[4] for r in rows if r[0] == "without" and r[2] == 0.0]
        scene = scene_from_config(cfg)
        channel = RisIsacScenario.from_scene(scene)
        a_t = channel.a_t_term
        w = math.sqrt(scene.transmit_power) * a_t.conj() / np.linalg.norm(a_t)
        expected = self._oracle(scene, channel.a_r_term, channel.a_r_dot_term, a_t.conj(),
                                channel.a_t_dot_term.conj(), w)
        assert crb == pytest.approx(expected, rel=1e-13)
