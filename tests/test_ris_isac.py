import math

import numpy as np
import pytest

from risac import (
    DegenerateChannelError,
    InfeasibleRateError,
    RisIsacScenario,
    Scene,
    UlaGeometry,
    coupling_coefficient,
    coupling_gradient,
    coupling_objective,
    fim_theta,
    matched_filter_beamformer,
    optimize_ris_profile,
    rate_constrained_crb_beamformer,
    ris_isac_tradeoff,
)
from risac.optim import SolverConfig, finite_difference_gradient
from risac.ris_isac import _apply_coupling, _fim_maps, _unit_modulus, _zero_ris


def scalar_loop_objective(phi, a_t, f_t, a_r, f_r, h_bu, f_c):
    """Naive term-by-term evaluation of the coupling objective."""
    u = np.array([a_t[i] + sum(f_t[i, k] * phi[k] for k in range(len(phi)))
                  for i in range(len(a_t))])
    v = np.array([a_r[i] + sum(f_r[i, k] * phi[k] for k in range(len(phi)))
                  for i in range(len(a_r))])
    c = np.array([h_bu[i] + sum(f_c[i, k] * phi[k] for k in range(len(phi)))
                  for i in range(len(h_bu))])
    norm_u = sum(abs(x) ** 2 for x in u)
    inner = sum(np.conj(v[i]) * c[i] for i in range(len(v)))
    return -norm_u * abs(inner) ** 2


def random_instance(rng, l_t, l_s, n):
    a_t = rng.standard_normal(l_t) + 1j * rng.standard_normal(l_t)
    a_r = rng.standard_normal(l_s) + 1j * rng.standard_normal(l_s)
    h_bu = rng.standard_normal(l_t) + 1j * rng.standard_normal(l_t)
    f_t = rng.standard_normal((l_t, n)) + 1j * rng.standard_normal((l_t, n))
    f_r = rng.standard_normal((l_s, n)) + 1j * rng.standard_normal((l_s, n))
    f_c = rng.standard_normal((l_t, n)) + 1j * rng.standard_normal((l_t, n))
    return a_t, f_t, a_r, f_r, h_bu, f_c


def grid_oracle_loop_reference(scenario, phi, samples, snr_floor):
    """CRB(theta1) of each sphere-scaled L_T = 2 beam, one fim_theta call each.

    Beams below the rate floor get inf. This is the loop form that
    ``grid_oracle_crbs`` must reproduce.
    """
    h_c = scenario.h_c(phi)
    crbs = np.full(len(samples), math.inf)
    for i, (x1, y1, x2, y2) in enumerate(samples):
        w = np.array([x1 + 1j * y1, x2 + 1j * y2])
        w *= math.sqrt(3.0) / np.linalg.norm(w)
        if np.abs(h_c @ w) ** 2 < snr_floor:
            continue
        crbs[i] = fim_theta(scenario, phi, w).crb_theta1
    return crbs


def grid_oracle_crbs(scenario, phi, samples, snr_floor):
    """Batched ``grid_oracle_loop_reference``: every FIM built at once.

    fim_theta's pruning and Jacobi-scaled condition test are applied per
    beam; a beam that prunes a parameter or fails the condition test goes
    through fim_theta itself, so only the all-kept case is batched.
    """
    w = samples[:, 0::2] + 1j * samples[:, 1::2]
    # np.linalg.norm's 1-D complex form (real and imaginary dot products), so
    # each scaled beam equals the loop form's bit for bit.
    re, im = w.real[:, None, :], w.imag[:, None, :]
    norm = np.sqrt((re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0, 0])
    w = w * (math.sqrt(3.0) / norm)[:, None]
    crbs = np.full(len(samples), math.inf)
    rows = np.flatnonzero(np.abs(w @ scenario.h_c(phi)) ** 2 >= snr_floor)
    w = w[rows]
    # D[n] = column_stack([C_p @ w_n for p]), one batched product per beam.
    d = (np.stack(_fim_maps(scenario, phi))[None] @ w[:, None, :, None])[..., 0].transpose(0, 2, 1)
    scale = 2.0 * scenario.scene.samples / scenario.scene.noise_power_sensing
    fim = scale * np.real(np.conj(d).transpose(0, 2, 1) @ d)
    fim = 0.5 * (fim + fim.transpose(0, 2, 1))
    diag = np.diagonal(fim, axis1=1, axis2=2)
    kept = (diag[:, 0] > 0) & np.all(diag > 1e-14 * diag.max(axis=1, keepdims=True), axis=1)
    root = np.sqrt(np.where(kept[:, None], diag, 1.0))
    unit = fim / (root[:, :, None] * root[:, None, :])
    cond = np.linalg.cond(np.where(kept[:, None, None], unit, np.eye(4)))
    batched = kept & np.isfinite(cond) & (cond <= 1e14)
    crbs[rows[batched]] = np.linalg.inv(unit[batched])[:, 0, 0] / fim[batched, 0, 0]
    for i in np.flatnonzero(~batched):
        crbs[rows[i]] = fim_theta(scenario, phi, w[i]).crb_theta1
    return crbs


def desk_scene(**overrides):
    base = dict(
        bs_position=(0.0, 0.0),
        ris_position=(30.0, 30.0),
        target_position=(40.0, 0.0),
        user_position=(20.0, -20.0),
        tx=UlaGeometry(15),
        rx=UlaGeometry(15),
        ris=UlaGeometry(16),
        transmit_power=3.0,
        noise_power_sensing=1e-8,
        noise_power_comms=1e-8,
        samples=64,
        seed=11,
    )
    base.update(overrides)
    return Scene(**base)


class TestCouplingObjective:
    def test_constant_without_ris_terms(self):
        rng = np.random.default_rng(0)
        a_t, f_t, a_r, f_r, h_bu, f_c = random_instance(rng, 4, 4, 2)
        zeros = [np.zeros_like(f_t), np.zeros_like(f_r), np.zeros_like(f_c)]
        expected = -np.linalg.norm(a_t) ** 2 * abs(np.vdot(a_r, h_bu)) ** 2
        for phi in [np.ones(2), np.exp(1j * rng.uniform(0, 2 * np.pi, 2))]:
            val = coupling_objective(phi, a_t, zeros[0], a_r, zeros[1], h_bu, zeros[2])
            assert np.isclose(val, expected)

    def test_orthogonal_user_channel_zero(self):
        rng = np.random.default_rng(1)
        a_t, f_t, a_r, f_r, h_bu, f_c = random_instance(rng, 4, 4, 2)
        phi = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        v = a_r + f_r @ phi
        h_perp = h_bu - (np.vdot(v, h_bu) / np.vdot(v, v)) * v
        val = coupling_objective(phi, a_t, f_t, a_r, f_r, h_perp, np.zeros_like(f_c))
        assert abs(val) < 1e-20

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            inst = random_instance(rng, 5, 5, 4)
            phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            fast = coupling_objective(phi, *inst)
            slow = scalar_loop_objective(phi, *inst)
            assert abs(fast - slow) <= 1e-12 * max(1.0, abs(slow))


class TestCouplingGradient:
    def test_zero_for_constant_objective(self):
        rng = np.random.default_rng(3)
        a_t, f_t, a_r, f_r, h_bu, f_c = random_instance(rng, 4, 4, 2)
        zeros = [np.zeros_like(f_t), np.zeros_like(f_r), np.zeros_like(f_c)]
        g = coupling_gradient(np.ones(2), a_t, zeros[0], a_r, zeros[1], h_bu, zeros[2])
        assert np.allclose(g, 0.0)

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_matches_finite_differences(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            inst = random_instance(rng, 4, 4, n)
            phi = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            analytic = coupling_gradient(phi, *inst)
            fd = finite_difference_gradient(
                lambda p: coupling_objective(p, *inst), phi, step=1e-6
            )
            rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-30)
            assert rel < 1e-5

    def test_stationary_tangent_component_after_convergence(self):
        scene = desk_scene(
            ris=UlaGeometry(4), direct_gain_override=1.0, ris_gain_override=0.5,
        )
        scenario = RisIsacScenario.from_scene(scene)
        args = (scenario.a_t_term, scenario.f_t, scenario.a_r_term,
                scenario.f_r, scenario.h_bu, scenario.f_c)
        res = optimize_ris_profile(
            scenario, cfg=SolverConfig(tol_rel=1e-15, max_iter=50000, restarts=2)
        )
        phi = res.phi.phases
        g = coupling_gradient(phi, *args)
        tangent = g - np.real(g * np.conj(phi)) * phi
        # Dimensionless stationarity: tangent norm relative to the objective.
        assert np.linalg.norm(tangent) / abs(res.objective) < 1e-6


class TestOptimizeProfile:
    def test_single_element_matches_circle_sweep(self):
        scene = desk_scene(ris=UlaGeometry(1))
        scenario = RisIsacScenario.from_scene(scene)
        res = optimize_ris_profile(scenario, cfg=SolverConfig(restarts=4, seed=0))
        grid = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False))
        vals = [
            coupling_objective(
                np.array([g]), scenario.a_t_term, scenario.f_t,
                scenario.a_r_term, scenario.f_r, scenario.h_bu, scenario.f_c,
            )
            for g in grid
        ]
        resolution = np.max(np.abs(np.diff(vals)))
        assert res.objective <= np.min(vals) + resolution

    def test_beats_random_profiles(self):
        rng = np.random.default_rng(55)
        for seed in range(20):
            scenario = RisIsacScenario.from_scene(desk_scene(seed=seed, ris=UlaGeometry(8)))
            res = optimize_ris_profile(scenario, cfg=SolverConfig(restarts=2, seed=seed))
            args = (scenario.a_t_term, scenario.f_t, scenario.a_r_term,
                    scenario.f_r, scenario.h_bu, scenario.f_c)
            for _ in range(100):
                phi = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
                assert res.objective <= coupling_objective(phi, *args) + 1e-12

    def test_zero_ris_gain_returns_init(self):
        scene = desk_scene(ris=UlaGeometry(6), ris_gain_override=0.0,
                           blocked_user_path=False)
        scenario = RisIsacScenario.from_scene(scene)
        init = np.exp(1j * np.linspace(0.3, 2.0, 6))
        from risac.channels import RisProfile

        res = optimize_ris_profile(scenario, init=RisProfile(init),
                                   cfg=SolverConfig(restarts=0))
        assert np.allclose(res.phi.phases, init)

    def test_trace_non_increasing_and_unit_modulus(self):
        scenario = RisIsacScenario.from_scene(desk_scene())
        res = optimize_ris_profile(scenario, cfg=SolverConfig(restarts=1, seed=1))
        assert np.all(np.diff(res.objective_trace) <= 0.0)
        assert np.max(np.abs(np.abs(res.phi.phases) - 1.0)) < 1e-15

    def test_unit_modulus_projection(self):
        # Nonzero entries map to z/|z| exactly; an exact zero has no phase and
        # maps to 1 (the dual-waveform RIS update relies on this too).
        rng = np.random.default_rng(4)
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert np.array_equal(_unit_modulus(z), z / np.abs(z))
        out = _unit_modulus(np.array([0.0, -2.0, 3j, 0j]))
        assert np.array_equal(out, np.array([1.0, -1.0, 1j, 1.0]))


class TestFim:
    def test_symmetry_and_psd_on_random_instances(self):
        rng = np.random.default_rng(8)
        scenario = RisIsacScenario.from_scene(desk_scene(ris=UlaGeometry(8)))
        phi = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
        for _ in range(100):
            z = rng.standard_normal(15) + 1j * rng.standard_normal(15)
            w = math.sqrt(3.0) * z / np.linalg.norm(z)
            fr = fim_theta(scenario, phi, w)
            assert np.allclose(fr.fim, fr.fim.T)
            assert np.linalg.eigvalsh(fr.fim).min() > -1e-10 * np.abs(fr.fim).max()

    def test_doubling_samples_halves_crb(self):
        phi = np.exp(1j * np.linspace(0, 1, 8))
        base = RisIsacScenario.from_scene(desk_scene(ris=UlaGeometry(8), samples=64))
        double = RisIsacScenario.from_scene(desk_scene(ris=UlaGeometry(8), samples=128))
        w = matched_filter_beamformer(base.h_t(phi).conj(), 3.0)
        assert np.isclose(
            fim_theta(double, phi, w).crb_theta1,
            0.5 * fim_theta(base, phi, w).crb_theta1,
        )

    def test_noise_scaling_exact(self):
        phi = np.exp(1j * np.linspace(0, 1, 8))
        base_scene = desk_scene(ris=UlaGeometry(8))
        base = RisIsacScenario.from_scene(base_scene)
        scaled = RisIsacScenario.from_scene(
            base_scene.replace(noise_power_sensing=3.0 * base_scene.noise_power_sensing)
        )
        w = matched_filter_beamformer(base.h_t(phi).conj(), 3.0)
        assert np.isclose(
            fim_theta(scaled, phi, w).crb_theta1,
            3.0 * fim_theta(base, phi, w).crb_theta1,
        )

    def test_orthogonal_precoder_singular(self):
        scenario = RisIsacScenario.from_scene(desk_scene(ris=UlaGeometry(4)))
        phi = np.ones(4, dtype=complex)
        h_t = scenario.h_t(phi)
        dh_t = scenario.a_t_dot_term + scenario.f_t_dot @ phi
        # Null both the channel and its theta1-derivative direction.
        basis = np.linalg.qr(np.column_stack([h_t.conj(), dh_t.conj()]))[0]
        rng = np.random.default_rng(0)
        z = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        z -= basis @ (basis.conj().T @ z)
        w = math.sqrt(3.0) * z / np.linalg.norm(z)
        fr = fim_theta(scenario, phi, w)
        assert math.isinf(fr.crb_theta1)
        assert fr.singular

    @pytest.mark.parametrize("strip_ris", [False, True])
    @pytest.mark.parametrize("direct_gain", [None, 1e-3])
    def test_crb_is_kappa_over_illumination(self, strip_ris, direct_gain):
        # Eliminating beta projects h_r out of the receive-side derivatives,
        # so CRB(theta1) = kappa(phi) / |h_t(phi)^T w|^2 for every w. A small
        # direct gain leaves the FIM well posed but badly scaled.
        scenario = RisIsacScenario.from_scene(desk_scene(direct_gain_override=direct_gain))
        if strip_ris:
            scenario = _zero_ris(scenario)
        scale = 2.0 * 64 / 1e-8
        rng = np.random.default_rng(21)
        for _ in range(100):
            phi = np.exp(1j * rng.uniform(0, 2 * np.pi, scenario.n_ris))
            z = rng.standard_normal(15) + 1j * rng.standard_normal(15)
            w = math.sqrt(3.0) * z / np.linalg.norm(z)
            h_r = scenario.h_r(phi)

            def perp(x):
                return x - (np.vdot(h_r, x) / np.vdot(h_r, h_r)) * h_r

            d1 = perp(scenario.a_r_dot_term)
            info = np.real(np.vdot(d1, d1))
            if scenario.n_ris:  # theta2 is pruned without an RIS
                d2 = perp(scenario.f_r_dot @ phi)
                info -= np.real(np.vdot(d1, d2)) ** 2 / np.real(np.vdot(d2, d2))
            kappa = 1.0 / (scale * info)
            expected = kappa / abs(scenario.h_t(phi) @ w) ** 2
            crb = fim_theta(scenario, phi, w).crb_theta1
            assert abs(crb - expected) <= 1e-10 * expected

    def test_no_ris_reduces_to_single_angle_oracle(self):
        scene = desk_scene(ris=UlaGeometry(4), ris_gain_override=0.0)
        scenario = RisIsacScenario.from_scene(scene)
        phi = np.ones(4, dtype=complex)
        rng = np.random.default_rng(4)
        z = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        w = math.sqrt(3.0) * z / np.linalg.norm(z)
        crb = fim_theta(scenario, phi, w).crb_theta1

        # Reduced oracle: parameters (theta1, Re beta, Im beta) only, built
        # directly from the no-RIS model h_r h_t^T = beta a_r a_t^T.
        h_t, h_r = scenario.h_t(phi), scenario.h_r(phi)
        dh_t, dh_r = scenario.a_t_dot_term, scenario.a_r_dot_term
        h_mat = np.outer(h_r, h_t) / scenario.beta
        d1 = (np.outer(dh_r, h_t) + np.outer(h_r, dh_t)) @ w
        d3 = h_mat @ w
        d = np.column_stack([d1, d3, 1j * d3])
        scale = 2.0 * scene.samples / scene.noise_power_sensing
        fim = scale * np.real(d.conj().T @ d)
        oracle = np.linalg.inv(fim)[0, 0]
        assert np.isclose(crb, oracle, rtol=1e-10)


class TestRateConstrainedBeamformer:
    def test_unconstrained_no_worse_than_matched_filter(self):
        scenario = RisIsacScenario.from_scene(desk_scene())
        phi = np.exp(1j * np.linspace(0, 2, 16))
        res = rate_constrained_crb_beamformer(scenario, phi, 0.0)
        w_mf = matched_filter_beamformer(scenario.h_t(phi).conj(), 3.0)
        assert res.crb <= fim_theta(scenario, phi, w_mf).crb_theta1 * (1.0 + 1e-9)

    def test_feasibility_and_budget(self):
        scenario = RisIsacScenario.from_scene(desk_scene())
        phi = np.exp(1j * np.linspace(0, 2, 16))
        h_c = scenario.h_c(phi)
        max_rate = math.log2(1.0 + 3.0 * np.linalg.norm(h_c) ** 2 / 1e-8)
        for frac in [0.2, 0.6, 0.9]:
            r0 = frac * max_rate
            res = rate_constrained_crb_beamformer(scenario, phi, r0)
            assert res.rate >= r0 - 1e-6
            assert np.real(np.vdot(res.w.weights, res.w.weights)) <= 3.0 + 1e-9

    def test_infeasible_rate_raises(self):
        scenario = RisIsacScenario.from_scene(desk_scene())
        phi = np.ones(16, dtype=complex)
        with pytest.raises(InfeasibleRateError):
            rate_constrained_crb_beamformer(scenario, phi, 60.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("strip_ris", [False, True])
    def test_zero_direct_gain_raises_degenerate(self, strip_ris):
        scenario = RisIsacScenario.from_scene(desk_scene(direct_gain_override=0.0))
        phi = np.ones(16, dtype=complex)
        if strip_ris:
            scenario, phi = _zero_ris(scenario), np.zeros(0)
        with pytest.raises(DegenerateChannelError):
            rate_constrained_crb_beamformer(scenario, phi, 0.0)

    def test_small_array_grid_oracle(self):
        # L_T = 2: random search over the feasible ball must not beat the
        # solver by more than 1e-4 relative.
        rng = np.random.default_rng(10)
        for seed in range(10):
            scene = desk_scene(tx=UlaGeometry(2), rx=UlaGeometry(4),
                               ris=UlaGeometry(4), seed=seed)
            scenario = RisIsacScenario.from_scene(scene)
            phi = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
            h_c = scenario.h_c(phi)
            max_rate = math.log2(1.0 + 3.0 * np.linalg.norm(h_c) ** 2 / 1e-8)
            r0 = 0.5 * max_rate
            res = rate_constrained_crb_beamformer(scenario, phi, r0)
            snr_floor = (2.0**r0 - 1.0) * 1e-8
            samples = rng.standard_normal((20000, 4))
            best = float(np.min(grid_oracle_crbs(scenario, phi, samples, snr_floor)))
            assert best >= res.crb * (1.0 - 1e-4)

    @pytest.mark.parametrize("seed, strip_ris", [(0, False), (3, False), (7, True)])
    def test_grid_oracle_matches_loop_reference(self, seed, strip_ris):
        # Same per-beam CRBs as the loop form, including beams skipped by the
        # rate floor and, without an RIS, the pruned theta2 routed to fim_theta.
        rng = np.random.default_rng(100 + seed)
        scene = desk_scene(tx=UlaGeometry(2), rx=UlaGeometry(4),
                           ris=UlaGeometry(4), seed=seed)
        scenario = RisIsacScenario.from_scene(scene)
        phi = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        if strip_ris:
            scenario, phi = _zero_ris(scenario), np.zeros(0)
        # Half the largest |h_c^T w|^2 on the sphere, so some beams are skipped.
        snr_floor = 1.5 * np.linalg.norm(scenario.h_c(phi)) ** 2
        samples = rng.standard_normal((300, 4))
        batched = grid_oracle_crbs(scenario, phi, samples, snr_floor)
        loop = grid_oracle_loop_reference(scenario, phi, samples, snr_floor)
        assert np.array_equal(np.isinf(batched), np.isinf(loop))
        assert 0 < np.count_nonzero(np.isinf(loop)) < len(samples)
        finite = np.isfinite(loop)
        np.testing.assert_allclose(batched[finite], loop[finite], rtol=1e-12, atol=0)


class TestTradeoffStructure:
    def test_strong_coupling_is_exact(self):
        scenario = RisIsacScenario.from_scene(desk_scene())
        shaped = _apply_coupling(scenario, "strong")
        rng = np.random.default_rng(0)
        for _ in range(5):
            phi = np.exp(1j * rng.uniform(0, 2 * np.pi, 16))
            assert np.isclose(
                coupling_coefficient(shaped.h_c(phi), shaped.h_t(phi)), 1.0
            )

    def test_weak_coupling_starts_orthogonal(self):
        scenario = RisIsacScenario.from_scene(desk_scene())
        shaped = _apply_coupling(scenario, "weak")
        phi0 = np.ones(16, dtype=complex)
        rho = coupling_coefficient(shaped.h_c(phi0), shaped.h_t(phi0))
        assert rho < 0.05

    def test_without_mode_strips_ris(self):
        scenario = RisIsacScenario.from_scene(desk_scene())
        bare = _zero_ris(scenario)
        assert bare.f_t.shape == (15, 0)
        assert np.allclose(bare.h_t(np.zeros(0)), scenario.a_t_term)

    def test_rows_shape_and_feasibility_markers(self):
        scenario = RisIsacScenario.from_scene(desk_scene(ris=UlaGeometry(8)))
        grid = [1.0, 5.0, 100.0]  # the last threshold is infeasible
        rows = ris_isac_tradeoff(scenario, "weak", "without", grid)
        assert len(rows) == 3
        assert math.isinf(rows[-1].crb) and math.isnan(rows[-1].rate)
        assert rows[0].crb <= rows[1].crb * (1.0 + 1e-9)
