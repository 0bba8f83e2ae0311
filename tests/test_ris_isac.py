import csv
import math

import numpy as np
import pytest

from risac import (
    DegenerateChannelError,
    InfeasibleRateError,
    RisIsacScenario,
    Scene,
    UlaGeometry,
    coupling_gradient,
    coupling_objective,
    fim_theta,
    optimize_ris_profile,
    ris_isac_tradeoff,
)
from risac import ris_isac as ri
from risac.cli import run_experiment
from risac.config import RunConfig, scene_from_config
from risac.isac import max_illumination_beamformer
from risac.optim import _unit_modulus
from risac.ris_isac import _apply_coupling, _crb_sweep, _fim_maps, _zero_ris

from oracles import (
    coupling_coefficient,
    finite_difference_gradient,
    matched_filter_beamformer,
    max_illumination_reference,
    rank_one_coupling_grid,
    ris_maps_reference,
)


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

    fim_theta's pruning (a parameter goes only when its FIM diagonal is
    exactly zero) and Jacobi-scaled condition test are applied per beam; a
    beam with a zero diagonal or one that fails the condition test goes
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
    kept = np.all(diag > 0.0, axis=1)
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
        res = optimize_ris_profile(scenario)
        phi = res.phi
        g = coupling_gradient(phi, *args)
        tangent = g - np.real(g * np.conj(phi)) * phi
        # Dimensionless stationarity: tangent norm relative to the objective.
        assert np.linalg.norm(tangent) / abs(res.objective) < 1e-6


class TestOptimizeProfile:
    def test_single_element_matches_circle_sweep(self):
        scene = desk_scene(ris=UlaGeometry(1))
        scenario = RisIsacScenario.from_scene(scene)
        res = optimize_ris_profile(scenario)
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
            res = optimize_ris_profile(scenario)
            args = (scenario.a_t_term, scenario.f_t, scenario.a_r_term,
                    scenario.f_r, scenario.h_bu, scenario.f_c)
            for _ in range(100):
                phi = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
                assert res.objective <= coupling_objective(phi, *args) + 1e-12

    @pytest.mark.parametrize("coupling", ["weak", "strong"])
    def test_tuned_ris_pays_off(self, tmp_path, coupling):
        # The tuned RIS must cut the best CRB at least fivefold against the
        # RIS-free channel at every config seed, strong coupling included.
        for seed in range(10):
            cfg = RunConfig(experiment="ris-isac-tradeoff", coupling=coupling, seed=seed,
                            r0_points=3, ris_modes=("with", "without"))
            run_experiment(cfg, tmp_path / str(seed))
            text = (tmp_path / str(seed) / "ris-isac-tradeoff.csv").read_text()
            best = {}
            for row in csv.DictReader(text.splitlines()):
                best[row["mode"]] = min(best.get(row["mode"], math.inf), float(row["crb"]))
            assert best["with"] <= best["without"] / 5.0, (seed, best)

    def test_strong_coupling_reaches_the_rank_one_optimum(self):
        # At strong coupling every RIS map is g r_t^T with the same r_t, so the
        # objective is a function of s = r_t^T phi on the disk |s| <= ||r_t||_1;
        # the descent must match or beat its minimum over a fine polar grid of
        # that disk.
        for seed in range(10):
            scene = scene_from_config(RunConfig(experiment="ris-isac-tradeoff", seed=seed))
            shaped = _apply_coupling(RisIsacScenario.from_scene(scene), "strong")
            assert np.array_equal(shaped.r_c, shaped.r_t)
            grid_min = rank_one_coupling_grid(
                shaped.a_t_term, shaped.g_t, shaped.a_r_term, shaped.g_r, shaped.h_bu,
                shaped.g_c, shaped.r_t)
            res = optimize_ris_profile(shaped)
            assert res.objective <= grid_min + 1e-12 * abs(grid_min), (seed, res.objective)

    @pytest.mark.parametrize("overrides, most", [
        ({}, 25),                                  # measured: 13
        (dict(n_ris=256, l_t=32, l_s=32), 60),     # measured: 34
    ])
    def test_weak_coupling_profile_work(self, overrides, most):
        cfg = RunConfig(experiment="ris-isac-tradeoff", **overrides)
        scenario = RisIsacScenario.from_scene(scene_from_config(cfg))
        res = optimize_ris_profile(_apply_coupling(scenario, cfg.coupling))
        assert res.converged and res.evaluations <= most

    def test_zero_ris_gain_returns_init(self):
        # g_t is exactly zero, so the start is all ones, and the
        # objective does not depend on phi: the solver stops at once.
        scene = desk_scene(ris=UlaGeometry(6), ris_gain_override=0.0,
                           blocked_user_path=False)
        scenario = RisIsacScenario.from_scene(scene)
        res = optimize_ris_profile(scenario)
        assert np.array_equal(res.phi, np.ones(6, dtype=complex))
        assert res.iterations == 0 and res.converged and res.stop == "tol"

    def test_trace_non_increasing_and_unit_modulus(self):
        scenario = RisIsacScenario.from_scene(desk_scene())
        res = optimize_ris_profile(scenario)
        assert np.all(np.diff(res.objective_trace) <= 0.0)
        assert np.max(np.abs(np.abs(res.phi) - 1.0)) < 1e-15

    def test_unit_modulus_projection(self):
        # The solver's circle retraction: nonzero entries map to z/|z| exactly;
        # an exact zero has no phase and maps to 1.
        rng = np.random.default_rng(4)
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert np.array_equal(_unit_modulus(z), z / np.abs(z))
        out = _unit_modulus(np.array([0.0, -2.0, 3j, 0j]))
        assert np.array_equal(out, np.array([1.0, -1.0, 1j, 1.0]))


    def test_fused_evaluation_is_bitwise_equal_to_reference(self):
        # The plain numpy expressions the fused evaluation was trimmed from.
        rng = np.random.default_rng(12)
        scenario = RisIsacScenario.from_scene(desk_scene(ris=UlaGeometry(8)))
        args = (scenario.a_t_term, scenario.f_t, scenario.a_r_term,
                scenario.f_r, scenario.h_bu, scenario.f_c)
        a_t, f_t, a_r, f_r, h_bu, f_c = args
        for _ in range(5):
            phi = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
            u, v, c = a_t + f_t @ phi, a_r + f_r @ phi, h_bu + f_c @ phi
            s = np.vdot(v, c)
            norm_u_sq = float(np.real(np.vdot(u, u)))
            abs_s_sq = float(np.abs(s) ** 2)
            grad = abs_s_sq * (f_t.conj().T @ u)
            grad += norm_u_sq * (np.conj(s) * (f_r.conj().T @ c) + s * (f_c.conj().T @ v))
            value, ours = ri._coupling(phi, *args)
            assert value == -norm_u_sq * abs_s_sq
            assert ours.tobytes() == (-grad).tobytes()

    def test_profile_evaluations_count_the_objective_calls(self, monkeypatch):
        calls = []
        coupling = ri._coupling

        def counted(*args, **kwargs):
            calls.append(None)
            return coupling(*args, **kwargs)

        monkeypatch.setattr(ri, "_coupling", counted)
        res = optimize_ris_profile(RisIsacScenario.from_scene(desk_scene()))
        assert res.evaluations == len(calls) > res.iterations


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
        dh_t = scenario.a_t_dot_term + ris_maps_reference(scenario.scene)["f_t_dot"] @ phi
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
        f_r_dot = ris_maps_reference(scenario.scene)["f_r_dot"]
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
                d2 = perp(f_r_dot @ phi)
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


class TestSmallAngleCrb:
    @pytest.mark.parametrize("coupling", ["weak", "strong"])
    @pytest.mark.parametrize("overrides", [{}, dict(n_ris=256, l_t=32, l_s=32)])
    def test_kappa_matches_the_lapack_reference(self, monkeypatch, coupling, overrides):
        # Every kappa of a run (the tuned 2 x 2 one, the 1 x 1 RIS-free and
        # reference ones) against _angle_crb's SVD and inversion on the same
        # information matrix, at config seeds 0-9.
        infos, kappas = [], []
        small, kappa = ri._small_angle_crb, ri._kappa

        def recorded_small(info):
            infos.append(info.copy())
            return small(info)

        def recorded_kappa(scenario, phi_vec):
            kappas.append((kappa(scenario, phi_vec), scenario.scene))
            return kappas[-1][0]

        monkeypatch.setattr(ri, "_small_angle_crb", recorded_small)
        monkeypatch.setattr(ri, "_kappa", recorded_kappa)
        for seed in range(10):
            infos.clear()
            kappas.clear()
            cfg = RunConfig(experiment="ris-isac-tradeoff", seed=seed, coupling=coupling,
                            **overrides)
            ris_isac_tradeoff(RisIsacScenario.from_scene(scene_from_config(cfg)), coupling)
            assert [info.shape for info in infos] == [(2, 2), (1, 1), (1, 1)]
            for info, (value, scene) in zip(infos, kappas):
                expected = ri._angle_crb(info)[0] / (2.0 * scene.samples
                                                    / scene.noise_power_sensing)
                if info.shape == (1, 1):
                    assert value == expected
                else:
                    assert abs(value - expected) <= 1e-14 * expected, (seed, value, expected)

    @pytest.mark.parametrize("info", [
        [[0.0]], [[-1.0]], [[0.0, 0.0], [0.0, 2.0]], [[3.0, 1.0], [1.0, 0.0]],
        [[1.0, 1.0 - 1e-15], [1.0 - 1e-15, 1.0]],
        [[1.0, -(1.0 - 1e-15)], [-(1.0 - 1e-15), 1.0]],
        [[4.0, 6.0 * (1.0 - 1e-15)], [6.0 * (1.0 - 1e-15), 9.0]],
        [[1.0, 1.0 - 2.0 ** -52], [1.0 - 2.0 ** -52, 1.0]],
    ])
    def test_singular_information_gives_an_infinite_crb(self, info):
        # A nonpositive diagonal, or |c| within 1e-15 of one (scaled
        # condition number above 1e14), is singular in both routines.
        info = np.array(info)
        assert ri._small_angle_crb(info) == math.inf
        assert ri._angle_crb(info)[0] == math.inf


def sweep_weights(scenario, phi, rate_thresholds):
    """The (R, L_T) beamformer rows behind ``_crb_sweep(scenario, phi, rate_thresholds)``."""
    scene = scenario.scene
    return max_illumination_beamformer(scenario.h_t(phi), scenario.h_c(phi), scene.transmit_power,
                                       scene.noise_power_comms, rate_thresholds)[0]


class TestRateConstrainedBeamformer:
    def test_unconstrained_no_worse_than_matched_filter(self):
        scenario = RisIsacScenario.from_scene(desk_scene())
        phi = np.exp(1j * np.linspace(0, 2, 16))
        crb = _crb_sweep(scenario, phi, [0.0])[1][0]
        w_mf = matched_filter_beamformer(scenario.h_t(phi).conj(), 3.0)
        assert crb <= fim_theta(scenario, phi, w_mf).crb_theta1 * (1.0 + 1e-9)

    def test_feasibility_and_budget(self):
        scenario = RisIsacScenario.from_scene(desk_scene())
        phi = np.exp(1j * np.linspace(0, 2, 16))
        h_c = scenario.h_c(phi)
        max_rate = math.log2(1.0 + 3.0 * np.linalg.norm(h_c) ** 2 / 1e-8)
        for frac in [0.2, 0.6, 0.9]:
            r0 = frac * max_rate
            rate = _crb_sweep(scenario, phi, [r0])[0][0]
            w = sweep_weights(scenario, phi, [r0])[0]
            assert rate >= r0 - 1e-6
            assert np.real(np.vdot(w, w)) <= 3.0 + 1e-9

    def test_infeasible_rate_raises(self):
        scenario = RisIsacScenario.from_scene(desk_scene())
        phi = np.ones(16, dtype=complex)
        with pytest.raises(InfeasibleRateError):
            _crb_sweep(scenario, phi, [60.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("strip_ris", [False, True])
    def test_zero_direct_gain_raises_degenerate(self, strip_ris):
        scenario = RisIsacScenario.from_scene(desk_scene(direct_gain_override=0.0))
        phi = np.ones(16, dtype=complex)
        if strip_ris:
            scenario, phi = _zero_ris(scenario), np.zeros(0)
        with pytest.raises(DegenerateChannelError):
            _crb_sweep(scenario, phi, [0.0])

    def test_zero_gain_ris_leaves_theta2_out(self):
        # F_rdot phi is identically zero, so kappa is the single-angle 1 x 1
        # case; a 2 x 2 with theta2 would divide by its zero information.
        scenario = RisIsacScenario.from_scene(
            desk_scene(ris=UlaGeometry(4), ris_gain_override=0.0)
        )
        phi = np.ones(4, dtype=complex)
        crb = _crb_sweep(scenario, phi, [0.0])[1][0]
        oracle = fim_theta(scenario, phi, sweep_weights(scenario, phi, [0.0])[0])
        assert oracle.fim[1, 1] == 0.0 and math.isfinite(crb)
        np.testing.assert_allclose(crb, oracle.crb_theta1, rtol=1e-12, atol=0)

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
            crb = _crb_sweep(scenario, phi, [r0])[1][0]
            snr_floor = (2.0**r0 - 1.0) * 1e-8
            samples = rng.standard_normal((20000, 4))
            best = float(np.min(grid_oracle_crbs(scenario, phi, samples, snr_floor)))
            assert best >= crb * (1.0 - 1e-4)

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

    @pytest.mark.parametrize("coupling", ["weak", "strong"])
    def test_sweep_equals_per_row_solves(self, coupling):
        # Each sweep computes h_t(phi), h_c(phi) and kappa(phi) once; every
        # row must equal a one-floor solve and the per-floor reference, bit
        # for bit, and the 4 x 4 FIM at the row's beamformer to rounding.
        # The rate floors run from 0 to 97% of the max rate, so every one is
        # feasible.
        scenario = RisIsacScenario.from_scene(desk_scene(ris=UlaGeometry(8)))
        shaped = _apply_coupling(scenario, coupling)
        phi = optimize_ris_profile(shaped).phi
        h_t, h_c = shaped.h_t(phi), shaped.h_c(phi)
        max_rate = math.log2(1.0 + 3.0 * float(np.real(np.vdot(h_c, h_c))) / 1e-8)
        result = ris_isac_tradeoff(scenario, coupling, ["with"], 6)
        assert result.max_rate == {"with": max_rate}
        assert np.array_equal(result.profile.phi, phi)
        grid = np.linspace(0.0, 0.97 * max_rate, 6)
        assert [row.rate_threshold for row in result.rows] == list(grid)
        scene = shaped.scene
        for row, r0 in zip(result.rows, grid):
            w, _, rate = max_illumination_reference(
                h_t, h_c, scene.transmit_power, scene.noise_power_comms, r0)
            assert row.rate == rate
            np.testing.assert_allclose(
                row.crb, fim_theta(shaped, phi, w).crb_theta1, rtol=1e-12, atol=0
            )
            assert row.crb == _crb_sweep(shaped, phi, [r0])[1][0]
        with pytest.raises(InfeasibleRateError):
            _crb_sweep(shaped, phi, [1.5 * max_rate])

    @pytest.mark.parametrize("coupling", ["weak", "strong"])
    def test_every_row_matches_the_fim_oracle(self, tmp_path, monkeypatch, coupling):
        # Every row of a default run (the three modes' sweeps; "reference"
        # calibrates from the first rows of the other two) must give the CRB
        # of the full 4 x 4 FIM at its beamformer. At strong coupling theta2 carries
        # 1e-22 to 1e-28 of the largest FIM diagonal and must still count.
        checked = []
        build = ri._crb_sweep

        def spy(scenario, phi, rate_thresholds):
            rates, crbs = build(scenario, phi, rate_thresholds)
            weights = sweep_weights(scenario, phi, rate_thresholds)
            checked.extend((crb, fim_theta(scenario, phi, w).crb_theta1)
                           for w, crb in zip(weights, crbs))
            return rates, crbs

        monkeypatch.setattr(ri, "_crb_sweep", spy)
        for seed in range(10):
            cfg = RunConfig(experiment="ris-isac-tradeoff", coupling=coupling, seed=seed)
            run_experiment(cfg, tmp_path / str(seed))
        crb, oracle = np.array(checked).T
        assert len(checked) == 10 * 3 * 25
        assert np.all(np.isfinite(oracle))
        np.testing.assert_allclose(crb, oracle, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("coupling", ["weak", "strong"])
    def test_sweeps_equal_the_per_floor_reference(self, tmp_path, monkeypatch, coupling):
        # A default run makes three sweeps, one per mode: "reference"
        # calibrates from the R0 = 0 rows of the other two. At config seeds 0-9 every row's
        # weights and rate equal the per-floor reference and its CRB is
        # kappa / |h_t^T w|^2 at the reference weights, bit for bit.
        beams, solves = [], []
        sweep, build = ri.crb_min_beamformer, ri._crb_sweep

        def recorded_sweep(*args):
            h_t, h_c, _, p_t, sigma_c, floors = args
            beams.append((args, max_illumination_beamformer(h_t, h_c, p_t, sigma_c, floors)))
            return sweep(*args)

        def recorded_build(scenario, phi, rate_thresholds):
            solves.append((ri._kappa(scenario, phi), build(scenario, phi, rate_thresholds)))
            return solves[-1][1]

        monkeypatch.setattr(ri, "crb_min_beamformer", recorded_sweep)
        monkeypatch.setattr(ri, "_crb_sweep", recorded_build)
        for seed in range(10):
            beams.clear()
            solves.clear()
            cfg = RunConfig(experiment="ris-isac-tradeoff", coupling=coupling, seed=seed)
            run_experiment(cfg, tmp_path / str(seed))
            assert [len(args[5]) for args, _ in beams] == [25, 25, 25]
            for (args, beam), (kappa, (rates, crbs)) in zip(beams, solves):
                h_t, h_c, swept_kappa, p_t, sigma_c, floors = args
                assert swept_kappa == kappa and np.array_equal(beam[2], rates)
                for r0, w, boundary, rate, crb in zip(floors, *beam, crbs):
                    ref_w, branch, ref_rate = max_illumination_reference(
                        h_t, h_c, p_t, sigma_c, r0)
                    illum = float(np.abs(h_t @ ref_w) ** 2)
                    assert np.array_equal(w, ref_w)
                    assert boundary == (branch == "boundary") and rate == ref_rate
                    assert crb == (kappa / illum if illum > 0.0 else math.inf)

    @pytest.mark.parametrize("mode, kappas", [("with", 1), ("without", 1), ("reference", 3),
                                              ("with,without,reference", 3)])
    def test_sweep_builds_no_fim(self, monkeypatch, mode, kappas):
        # kappa is formed once per channel: "with" and "without" share theirs
        # with the calibration of "reference", which adds its own. A row adds
        # no FIM, whatever the grid length, and kappa takes no inversion,
        # condition number or SVD from LAPACK.
        calls = []
        kappa = ri._kappa

        def counted(*args, **kwargs):
            calls.append(None)
            return kappa(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("the sweep built a 4 x 4 FIM")

        def no_lapack(*args, **kwargs):
            raise AssertionError("the sweep called LAPACK")

        monkeypatch.setattr(ri, "_kappa", counted)
        monkeypatch.setattr(ri, "_fim_maps", forbidden)
        monkeypatch.setattr(ri, "fim_theta", forbidden)
        for name in ("cond", "inv", "svd"):
            monkeypatch.setattr(np.linalg, name, no_lapack)
        scenario = RisIsacScenario.from_scene(desk_scene(ris=UlaGeometry(8)))
        modes = mode.split(",")
        for points in (2, 40):
            calls.clear()
            rows = ris_isac_tradeoff(scenario, "weak", modes, points).rows
            assert len(rows) == len(modes) * points and math.isfinite(rows[0].crb)
            assert len(calls) == kappas

    def test_default_run_shapes_once_and_builds_one_kappa_per_channel(
            self, tmp_path, monkeypatch):
        # One coupling shaping and one profile solve serve every mode; kappa
        # is built for the tuned, the RIS-free and the reference channel. The
        # closed form runs three times, one sweep per mode, not once per row
        # (77); "reference" calibrates from the R0 = 0 rows of the other two.
        calls = {"_apply_coupling": 0, "optimize_ris_profile": 0, "_kappa": 0,
                 "crb_min_beamformer": 0}
        for name in calls:
            original = getattr(ri, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(ri, name, counted)
        run_experiment(RunConfig(experiment="ris-isac-tradeoff"), tmp_path)
        assert calls == {"_apply_coupling": 1, "optimize_ris_profile": 1, "_kappa": 3,
                         "crb_min_beamformer": 3}

    @pytest.mark.parametrize("coupling", ["weak", "strong"])
    def test_reference_without_angle_information_raises(self, coupling):
        # A one-element receive array has adot = 0, so both calibration CRBs
        # are infinite and the reference gain (inf / inf)^(1/4) is undefined;
        # it used to fill every reference row's rate with NaN.
        scenario = RisIsacScenario.from_scene(desk_scene(tx=UlaGeometry(1), rx=UlaGeometry(1)))
        with pytest.raises(DegenerateChannelError, match="reference"):
            ris_isac_tradeoff(scenario, coupling)
        # The modes that need no calibration report the infinite CRB.
        result = ris_isac_tradeoff(scenario, coupling, ["with", "without"], 3)
        assert all(math.isinf(row.crb) for row in result.rows)

    def test_rows_shape_and_feasibility(self):
        scenario = RisIsacScenario.from_scene(desk_scene(ris=UlaGeometry(8)))
        result = ris_isac_tradeoff(scenario, "weak", ["without", "with"], 3)
        assert [row.mode for row in result.rows] == ["without"] * 3 + ["with"] * 3
        assert list(result.max_rate) == ["without", "with"]
        for mode, rows in (("without", result.rows[:3]), ("with", result.rows[3:])):
            assert rows[0].rate_threshold == 0.0
            assert rows[-1].rate_threshold == 0.97 * result.max_rate[mode]
            for row in rows:
                assert row.rate >= row.rate_threshold - 1e-12 and math.isfinite(row.crb)
            assert rows[0].crb <= rows[1].crb * (1.0 + 1e-9)
        assert ris_isac_tradeoff(scenario, "weak", ["without"], 3).profile is None

    @pytest.mark.parametrize("coupling", ["weak", "strong"])
    def test_reference_alone_calibrates_from_one_floor_solves(self, monkeypatch, coupling):
        # Without "with" and "without" rows to read R0 = 0 from, "reference"
        # solves that floor alone for each, and its rows equal the full run's.
        scenario = RisIsacScenario.from_scene(desk_scene(ris=UlaGeometry(8)))
        full = ris_isac_tradeoff(scenario, coupling, r0_points=4)
        lengths = []
        sweep = ri.crb_min_beamformer

        def recorded(*args):
            lengths.append(len(args[5]))
            return sweep(*args)

        monkeypatch.setattr(ri, "crb_min_beamformer", recorded)
        alone = ris_isac_tradeoff(scenario, coupling, ["reference"], 4)
        assert lengths == [1, 1, 4]
        assert alone.rows == [row for row in full.rows if row.mode == "reference"]

    def test_rejects_an_empty_floor_grid(self):
        scenario = RisIsacScenario.from_scene(desk_scene(ris=UlaGeometry(8)))
        with pytest.raises(ValueError, match="r0_points"):
            ris_isac_tradeoff(scenario, "weak", ["with"], 0)
