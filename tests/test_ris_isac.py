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
    align_profile,
    fim_theta,
    ris_isac_tradeoff,
)
from risac import ris_isac as ri
from risac.cli import run_experiment
from risac.config import RunConfig, scene_from_config
from risac.ris_isac import _apply_coupling, _crb_sweep, _fim_maps, _zero_ris

from oracles import (
    coupling_coefficient,
    finite_difference_gradient,
    matched_filter_beamformer,
    max_illumination_reference,
    reference_mode_reference,
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


class TestOptimizeProfile:
    """The payoff of the "with" RIS profile, and the coupling metric's fused evaluation."""

    @pytest.mark.parametrize("coupling", ["weak", "strong"])
    def test_tuned_ris_pays_off(self, tmp_path, coupling):
        # The aligned RIS must cut the best CRB at least fivefold against the
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


def theta1_beta_crb(scenario, phi, w):
    """CRB(theta1) of the (theta1, Re beta, Im beta) block of ``fim_theta(...).fim``.

    At an aligned profile the theta2 entries are rounding noise, so the
    block, inverted here, is the reference there.
    """
    block = fim_theta(scenario, phi, w).fim[np.ix_([0, 2, 3], [0, 2, 3])]
    return float(np.linalg.inv(block)[0, 0])


class TestSmallAngleCrb:
    @pytest.mark.parametrize("coupling", ["weak", "strong"])
    @pytest.mark.parametrize("overrides", [{}, dict(n_ris=256, l_t=32, l_s=32)])
    def test_kappa_matches_the_lapack_reference(self, monkeypatch, coupling, overrides):
        # Every kappa of a run (the aligned profile's and the RIS-free one)
        # against _angle_crb's SVD and inversion on the 1 x 1 information of
        # theta1's projected column, at config seeds 0-9.
        kappas = []
        kappa = ri._kappa

        def recorded_kappa(scenario, phi_vec):
            kappas.append((kappa(scenario, phi_vec), scenario, phi_vec))
            return kappas[-1][0]

        monkeypatch.setattr(ri, "_kappa", recorded_kappa)
        for seed in range(10):
            kappas.clear()
            cfg = RunConfig(experiment="ris-isac-tradeoff", seed=seed, coupling=coupling,
                            **overrides)
            ris_isac_tradeoff(RisIsacScenario.from_scene(scene_from_config(cfg)), coupling)
            assert len(kappas) == 2
            for value, scenario, phi in kappas:
                h_r = scenario.h_r(phi)[:, None]
                col = scenario.a_r_dot_term[:, None]
                col = col - h_r @ (h_r.conj().T @ col) / np.vdot(h_r, h_r)
                scene = scenario.scene
                info = (2.0 * scene.samples * scene.target_gain_var
                        / scene.noise_power_sensing) * np.real(col.conj().T @ col)
                expected = ri._angle_crb(info)[0]
                assert abs(value - expected) <= 1e-15 * expected, (seed, value, expected)

    def test_kappa_without_angle_information_is_infinite(self):
        # One receive element has adot = 0: no information, no division by zero.
        scenario = RisIsacScenario.from_scene(desk_scene(rx=UlaGeometry(1)))
        phi = align_profile(scenario.a_t_term, scenario.g_t, scenario.r_t)
        assert ri._kappa(scenario, phi) == math.inf
        assert ri._kappa(_zero_ris(scenario), np.zeros(0)) == math.inf

    @pytest.mark.parametrize("coupling", ["weak", "strong"])
    def test_zero_target_gain_variance_holds_no_angle_information(self, tmp_path, coupling):
        # kappa reads sigma_eta^2: at zero every "with" and "without" CRB is
        # infinite, and the reference mode, which needs a finite CRB to match,
        # raises DegenerateChannelError.
        run_experiment(RunConfig(experiment="ris-isac-tradeoff", coupling=coupling,
                                 target_gain_var=0.0, ris_modes=("with", "without")), tmp_path)
        with open(tmp_path / "ris-isac-tradeoff.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 50 and all(row["crb"] == "inf" for row in rows)
        with pytest.raises(DegenerateChannelError, match="finite CRB, got inf"):
            run_experiment(RunConfig(experiment="ris-isac-tradeoff", coupling=coupling,
                                     target_gain_var=0.0), tmp_path / "reference")

    @pytest.mark.parametrize("info", [
        [[0.0]], [[-1.0]], [[0.0, 0.0], [0.0, 2.0]], [[3.0, 1.0], [1.0, 0.0]],
        [[1.0, 1.0 - 1e-15], [1.0 - 1e-15, 1.0]],
        [[1.0, -(1.0 - 1e-15)], [-(1.0 - 1e-15), 1.0]],
        [[4.0, 6.0 * (1.0 - 1e-15)], [6.0 * (1.0 - 1e-15), 9.0]],
        [[1.0, 1.0 - 2.0 ** -52], [1.0 - 2.0 ** -52, 1.0]],
    ])
    def test_singular_information_gives_an_infinite_crb(self, info):
        # A nonpositive diagonal, or |c| within 1e-15 of one (scaled
        # condition number above 1e14), is singular for fim_theta.
        assert ri._angle_crb(np.array(info))[0] == math.inf

    @pytest.mark.parametrize("coupling", ["weak", "strong"])
    @pytest.mark.parametrize("overrides", [{}, dict(n_ris=256, l_t=32, l_s=32)])
    def test_rounding_level_phase_moves_no_crb(self, coupling, overrides):
        # A global phase of 1e-13 rad on the aligned profile changes
        # rdot_t^T phi only by rounding; no CRB may follow it beyond 1e-12.
        for seed in range(10):
            cfg = RunConfig(experiment="ris-isac-tradeoff", seed=seed, coupling=coupling,
                            **overrides)
            shaped = _apply_coupling(RisIsacScenario.from_scene(scene_from_config(cfg)),
                                     coupling)
            phi = align_profile(shaped.a_t_term, shaped.g_t, shaped.r_t)
            h_c = shaped.h_c(phi)
            max_rate = math.log2(1.0 + shaped.scene.transmit_power
                                 * float(np.real(np.vdot(h_c, h_c)))
                                 / shaped.scene.noise_power_comms)
            floors = np.linspace(0.0, 0.97 * max_rate, 25)
            base = _crb_sweep(shaped, phi, floors)[1]
            for psi in (1e-13, -1e-13, 3e-13):
                crbs = _crb_sweep(shaped, phi * np.exp(1j * psi), floors)[1]
                np.testing.assert_allclose(crbs, base, rtol=1e-12, atol=0,
                                           err_msg=f"seed {seed}, phase {psi}")


def sweep_weights(scenario, phi, rate_thresholds):
    """The beams of the rows of ``_crb_sweep(scenario, phi, rate_thresholds)``, one per floor."""
    scene = scenario.scene
    return [max_illumination_reference(scenario.h_t(phi), scenario.h_c(phi),
                                       scene.transmit_power, scene.noise_power_comms, r0)[0]
            for r0 in rate_thresholds]


class TestRateConstrainedBeamformer:
    def test_unconstrained_no_worse_than_matched_filter(self):
        # At a profile that is not aligned theta2 carries information, so the
        # sweep's beamformer is compared through the 4 x 4 FIM.
        scenario = RisIsacScenario.from_scene(desk_scene())
        phi = np.exp(1j * np.linspace(0, 2, 16))
        crb = fim_theta(scenario, phi, sweep_weights(scenario, phi, [0.0])[0]).crb_theta1
        w_mf = matched_filter_beamformer(scenario.h_t(phi).conj(), 3.0)
        assert crb <= fim_theta(scenario, phi, w_mf).crb_theta1 * (1.0 + 1e-9)

    def test_feasibility_and_budget(self):
        scenario = RisIsacScenario.from_scene(desk_scene())
        phi = align_profile(scenario.a_t_term, scenario.g_t, scenario.r_t)
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
        phi = align_profile(scenario.a_t_term, scenario.g_t, scenario.r_t)
        with pytest.raises(InfeasibleRateError):
            _crb_sweep(scenario, phi, [60.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("strip_ris", [False, True])
    def test_zero_direct_gain_raises_degenerate(self, strip_ris):
        scenario = RisIsacScenario.from_scene(desk_scene(direct_gain_override=0.0))
        phi = align_profile(scenario.a_t_term, scenario.g_t, scenario.r_t)
        if strip_ris:
            scenario, phi = _zero_ris(scenario), np.zeros(0)
        with pytest.raises(DegenerateChannelError):
            _crb_sweep(scenario, phi, [0.0])

    def test_zero_gain_ris_leaves_theta2_out(self):
        # g_r = 0, so theta2's FIM column is identically zero at every
        # profile and fim_theta prunes it: kappa is exact here too.
        scenario = RisIsacScenario.from_scene(
            desk_scene(ris=UlaGeometry(4), ris_gain_override=0.0)
        )
        phi = align_profile(scenario.a_t_term, scenario.g_t, scenario.r_t)
        crb = _crb_sweep(scenario, phi, [0.0])[1][0]
        oracle = fim_theta(scenario, phi, sweep_weights(scenario, phi, [0.0])[0])
        assert oracle.fim[1, 1] == 0.0 and math.isfinite(crb)
        np.testing.assert_allclose(crb, oracle.crb_theta1, rtol=1e-12, atol=0)

    def test_small_array_grid_oracle(self):
        # L_T = 2: random search over the feasible ball must not beat the
        # solver by more than 1e-4 relative. The profiles are not aligned, so
        # theta2 carries information and the solver's beamformer is scored by
        # the 4 x 4 FIM, like the samples.
        rng = np.random.default_rng(10)
        for seed in range(10):
            scene = desk_scene(tx=UlaGeometry(2), rx=UlaGeometry(4),
                               ris=UlaGeometry(4), seed=seed)
            scenario = RisIsacScenario.from_scene(scene)
            phi = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
            h_c = scenario.h_c(phi)
            max_rate = math.log2(1.0 + 3.0 * np.linalg.norm(h_c) ** 2 / 1e-8)
            r0 = 0.5 * max_rate
            crb = fim_theta(scenario, phi, sweep_weights(scenario, phi, [r0])[0]).crb_theta1
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
        # for bit, and the (theta1, beta) block of the 4 x 4 FIM at the row's
        # beamformer to rounding.
        # The rate floors run from 0 to 97% of the max rate, so every one is
        # feasible.
        scenario = RisIsacScenario.from_scene(desk_scene(ris=UlaGeometry(8)))
        shaped = _apply_coupling(scenario, coupling)
        phi = align_profile(shaped.a_t_term, shaped.g_t, shaped.r_t)
        h_t, h_c = shaped.h_t(phi), shaped.h_c(phi)
        max_rate = math.log2(1.0 + 3.0 * float(np.real(np.vdot(h_c, h_c))) / 1e-8)
        result = ris_isac_tradeoff(scenario, coupling, ["with"], 6)
        assert result.max_rate == {"with": max_rate}
        grid = np.linspace(0.0, 0.97 * max_rate, 6)
        assert [row.rate_threshold for row in result.rows] == list(grid)
        scene = shaped.scene
        for row, r0 in zip(result.rows, grid):
            w, _, rate = max_illumination_reference(
                h_t, h_c, scene.transmit_power, scene.noise_power_comms, r0)
            assert row.rate == pytest.approx(rate, rel=1e-11, abs=1e-15)
            np.testing.assert_allclose(
                row.crb, theta1_beta_crb(shaped, phi, w), rtol=1e-12, atol=0
            )
            assert row.crb == _crb_sweep(shaped, phi, [r0])[1][0]
        with pytest.raises(InfeasibleRateError):
            _crb_sweep(shaped, phi, [1.5 * max_rate])

    @pytest.mark.parametrize("coupling", ["weak", "strong"])
    def test_every_row_matches_the_fim_oracle(self, tmp_path, monkeypatch, coupling):
        # Every "with" and "without" row of a default run must give the CRB
        # of the (theta1, beta) block of the 4 x 4 FIM at its beamformer;
        # test_reference_rows_match_the_scaled_scenario checks "reference".
        checked = []
        build = ri._crb_sweep

        def spy(scenario, phi, rate_thresholds):
            rates, crbs = build(scenario, phi, rate_thresholds)
            weights = sweep_weights(scenario, phi, rate_thresholds)
            checked.extend((crb, theta1_beta_crb(scenario, phi, w))
                           for w, crb in zip(weights, crbs))
            return rates, crbs

        monkeypatch.setattr(ri, "_crb_sweep", spy)
        for seed in range(10):
            cfg = RunConfig(experiment="ris-isac-tradeoff", coupling=coupling, seed=seed)
            run_experiment(cfg, tmp_path / str(seed))
        crb, oracle = np.array(checked).T
        assert len(checked) == 10 * 2 * 25
        assert np.all(np.isfinite(oracle))
        np.testing.assert_allclose(crb, oracle, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("coupling", ["weak", "strong"])
    def test_sweeps_equal_the_per_floor_reference(self, tmp_path, monkeypatch, coupling):
        # A default run makes two channel sweeps, "with" and "without". At
        # config seeds 0-9 every row's rate equals the rate of the per-floor
        # reference beam to 1e-11 relative, and its CRB is kappa / |h_t^T w|^2
        # at that beam to 1e-14 relative.
        solves = []
        build = ri._crb_sweep

        def recorded_build(scenario, phi, rate_thresholds):
            solves.append((scenario, phi, rate_thresholds, build(scenario, phi, rate_thresholds)))
            return solves[-1][3]

        monkeypatch.setattr(ri, "_crb_sweep", recorded_build)
        for seed in range(10):
            solves.clear()
            cfg = RunConfig(experiment="ris-isac-tradeoff", coupling=coupling, seed=seed)
            run_experiment(cfg, tmp_path / str(seed))
            assert [len(floors) for _, _, floors, _ in solves] == [25, 25]
            for scenario, phi, floors, (rates, crbs) in solves:
                h_t, h_c, kappa = scenario.h_t(phi), scenario.h_c(phi), ri._kappa(scenario, phi)
                scene = scenario.scene
                for r0, rate, crb in zip(floors, rates, crbs):
                    ref_w, _, ref_rate = max_illumination_reference(
                        h_t, h_c, scene.transmit_power, scene.noise_power_comms, r0)
                    assert rate == pytest.approx(ref_rate, rel=1e-11, abs=1e-15)
                    assert crb == pytest.approx(kappa / float(np.abs(h_t @ ref_w) ** 2),
                                                rel=1e-14, abs=0)

    @pytest.mark.parametrize("coupling", ["weak", "strong"])
    @pytest.mark.parametrize("scene", [{}, {"n_ris": 0}])
    def test_reference_rows_match_the_scaled_scenario(self, coupling, scene):
        # The scalar "reference" rows equal those of the scaled RIS-free
        # scenario with an orthogonal comms channel that the mode once built,
        # at config seeds 0-9: R0 exactly, rates to 1e-11 and CRBs to 1e-14
        # relative. Without an RIS, strong coupling leaves no orthogonal
        # residual and the old construction drew a seeded direction.
        for seed in range(10):
            cfg = RunConfig(experiment="ris-isac-tradeoff", coupling=coupling, seed=seed, **scene)
            scenario = RisIsacScenario.from_scene(scene_from_config(cfg))
            rows = ris_isac_tradeoff(scenario, coupling, ["reference"], cfg.r0_points).rows
            expected = reference_mode_reference(scenario, coupling, cfg.r0_points, seed)
            assert [row.rate_threshold for row in rows] == [r0 for r0, _, _ in expected]
            for row, (_, rate, crb) in zip(rows, expected):
                assert row.rate == pytest.approx(rate, rel=1e-11, abs=1e-15), seed
                assert row.crb == pytest.approx(crb, rel=1e-14, abs=0), seed

    @pytest.mark.parametrize("mode, kappas", [("with", 1), ("without", 1), ("reference", 1),
                                              ("with,without,reference", 2)])
    def test_sweep_builds_no_fim(self, monkeypatch, mode, kappas):
        # kappa is formed once per channel: "reference" reads the with-RIS
        # R0 = 0 CRB and builds no channel of its own. A row adds no FIM,
        # whatever the grid length, and kappa takes no inversion, condition
        # number or SVD from LAPACK.
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
        # One coupling shaping and one aligned profile serve every mode; kappa
        # is built for the aligned and the RIS-free channel. The closed form
        # runs three times, one sweep per mode, not once per row (77);
        # "reference" scales from the with-RIS R0 = 0 row.
        calls = {"_apply_coupling": 0, "align_profile": 0, "_kappa": 0,
                 "crb_min_beamformer": 0}
        for name in calls:
            original = getattr(ri, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(ri, name, counted)
        run_experiment(RunConfig(experiment="ris-isac-tradeoff"), tmp_path)
        assert calls == {"_apply_coupling": 1, "align_profile": 1, "_kappa": 2,
                         "crb_min_beamformer": 3}

    @pytest.mark.parametrize("coupling", ["weak", "strong"])
    def test_reference_without_angle_information_raises(self, coupling):
        # A one-element receive array has adot = 0, so the with-RIS CRB that
        # "reference" matches is infinite; it once filled every reference
        # row's rate with NaN.
        scenario = RisIsacScenario.from_scene(desk_scene(tx=UlaGeometry(1), rx=UlaGeometry(1)))
        with pytest.raises(DegenerateChannelError, match="reference"):
            ris_isac_tradeoff(scenario, coupling)
        # The modes that need no calibration report the infinite CRB.
        result = ris_isac_tradeoff(scenario, coupling, ["with", "without"], 3)
        assert all(math.isinf(row.crb) for row in result.rows)

    @pytest.mark.parametrize("coupling", ["weak", "strong"])
    def test_reference_with_one_transmit_element_raises(self, coupling):
        # One transmit element leaves no comms direction orthogonal to the
        # sensing channel; a residual of zero norm once gave NaN rates.
        scenario = RisIsacScenario.from_scene(desk_scene(tx=UlaGeometry(1)))
        with pytest.raises(DegenerateChannelError, match="one transmit element"):
            ris_isac_tradeoff(scenario, coupling)
        result = ris_isac_tradeoff(scenario, coupling, ["with", "without"], 3)
        assert all(math.isfinite(row.crb) and math.isfinite(row.rate) for row in result.rows)

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

    @pytest.mark.parametrize("coupling", ["weak", "strong"])
    def test_reference_alone_calibrates_from_one_floor_solves(self, monkeypatch, coupling):
        # Without "with" rows to read R0 = 0 from, "reference" solves that
        # with-RIS floor alone, and its rows equal the full run's.
        scenario = RisIsacScenario.from_scene(desk_scene(ris=UlaGeometry(8)))
        full = ris_isac_tradeoff(scenario, coupling, r0_points=4)
        lengths = []
        sweep = ri.crb_min_beamformer

        def recorded(*args):
            lengths.append(len(args[6]))
            return sweep(*args)

        monkeypatch.setattr(ri, "crb_min_beamformer", recorded)
        alone = ris_isac_tradeoff(scenario, coupling, ["reference"], 4)
        assert lengths == [1, 4]
        assert alone.rows == [row for row in full.rows if row.mode == "reference"]

    def test_rejects_an_empty_floor_grid(self):
        scenario = RisIsacScenario.from_scene(desk_scene(ris=UlaGeometry(8)))
        with pytest.raises(ValueError, match="r0_points"):
            ris_isac_tradeoff(scenario, "weak", ["with"], 0)
