"""The source paper's two claims, checked on the CSVs the CLI writes.

The abstract claims that (i) joint sensing-and-communication designs are
most beneficial when the sensing and comms channels are coupled, and (ii)
RISs offer means for controlling that coupling. Each row of ``CLAIMS``
names a claim, the experiment that shows it and the relation its CSV must
satisfy at config seeds 0-9, at the default scene and at a scaled one.

The "cost" of a curve is its CRB at the top rate floor over its CRB at
R0 = 0: what serving the user at nearly its max rate costs the sensing.
Measured at these seeds:

- ``isac-tradeoff``: 4.04, 1.85, 1.19, 1.00 and 1.00 for rho = 0, 0.3, 0.6,
  0.9 and 1 at the default scene; 3.87 to 1.00 at the scaled one.
- ``ris-isac-tradeoff``, strong coupling: exactly 1 for "with" and
  "without".
- ``ris-isac-tradeoff``, weak coupling: 2.321-2.327 for "with" against 2.749
  for "reference" (default), 2.416-2.433 against 2.645 (scaled); the
  RIS-free CRB at R0 = 0 is 6.70-6.71x (default) and 88.7x (scaled) the
  "with" one.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest

from risac import RisIsacScenario, align_profile
from risac.cli import run_experiment
from risac.config import RunConfig, scene_from_config
from risac.ris_isac import _apply_coupling, _crb_sweep

SCENES = {"default": {}, "scaled": dict(n_ris=256, l_t=32, l_s=32)}
SEEDS = range(10)
EXACT = 1e-12  # "equal" to rounding
RANDOM_PROFILES = 64


def _config(experiment, scene, seed, coupling):
    extra = {} if coupling is None else dict(coupling=coupling)
    return RunConfig(experiment=experiment, seed=seed, **SCENES[scene], **extra)


def _curves(cfg) -> dict:
    """{label: (floors, rates, crbs)} of one CLI run; the label is rho or the RIS mode."""
    with tempfile.TemporaryDirectory() as out:
        run_experiment(cfg, Path(out))
        rows = list(csv.DictReader((Path(out) / f"{cfg.experiment}.csv").read_text().splitlines()))
    label = "rho" if cfg.experiment == "isac-tradeoff" else "mode"
    curves = {}
    for row in rows:
        curves.setdefault(row[label], []).append(
            [float(row["R0"]), float(row["rate_bits"]), float(row["crb"])])
    return {key: tuple(np.array(col) for col in zip(*value)) for key, value in curves.items()}


def _cost(curve) -> float:
    crbs = curve[2]
    return crbs[-1] / crbs[0]


def cost_falls_with_coupling(curves, cfg):
    costs = [_cost(curves[rho]) for rho in sorted(curves, key=float)]
    assert costs[0] > 3.0, costs
    assert all(b <= a * (1.0 + EXACT) for a, b in zip(costs, costs[1:])), costs
    assert abs(costs[-1] - 1.0) <= EXACT, costs


def coupled_ris_channel_costs_nothing(curves, cfg):
    for mode in ("with", "without"):
        assert abs(_cost(curves[mode]) - 1.0) <= EXACT, mode


def ris_turns_the_subspaces(curves, cfg):
    assert _cost(curves["with"]) < _cost(curves["reference"])
    assert curves["without"][2][0] >= 5.0 * curves["with"][2][0]


def with_is_the_aligned_profile(curves, cfg):
    # The "with" rows are the CRB sweep at the aligned profile, bit for bit,
    # and at R0 = 0 no all-ones or random unit-modulus profile beats it.
    floors, rates, crbs = curves["with"]
    shaped = _apply_coupling(RisIsacScenario.from_scene(scene_from_config(cfg)), cfg.coupling)
    phi = align_profile(shaped.a_t_term, shaped.g_t, shaped.r_t)
    swept = _crb_sweep(shaped, phi, floors)
    assert np.array_equal(swept[0], rates) and np.array_equal(swept[1], crbs)
    rng = np.random.default_rng(cfg.seed)
    others = [np.ones(shaped.n_ris, dtype=complex)]
    others += list(np.exp(2j * np.pi * rng.uniform(size=(RANDOM_PROFILES, shaped.n_ris))))
    for other in others:
        crb = _crb_sweep(shaped, other, [0.0])[1][0]
        assert crbs[0] <= crb, (crbs[0], crb)


# (claim, experiment, coupling, relation)
CLAIMS = [
    ("(i) the CRB cost of a rate floor falls with the coupling rho and is 1 at rho = 1",
     "isac-tradeoff", None, cost_falls_with_coupling),
    ("(i) a fully coupled RIS channel costs the CRB nothing at any floor",
     "ris-isac-tradeoff", "strong", coupled_ris_channel_costs_nothing),
    ("(ii) at weak coupling the RIS costs less than the gain-matched reference "
     "that lacks its rotation, and cuts the RIS-free CRB fivefold",
     "ris-isac-tradeoff", "weak", ris_turns_the_subspaces),
    ("(ii) the weak-coupling with rows are the aligned profile's sweep",
     "ris-isac-tradeoff", "weak", with_is_the_aligned_profile),
    ("(ii) the strong-coupling with rows are the aligned profile's sweep",
     "ris-isac-tradeoff", "strong", with_is_the_aligned_profile),
]


@pytest.mark.parametrize("scene", SCENES)
@pytest.mark.parametrize("claim, experiment, coupling, relation", CLAIMS,
                         ids=[f"{row[3].__name__}-{row[2]}" for row in CLAIMS])
def test_claim_holds_at_seeds_0_to_9(claim, experiment, coupling, relation, scene):
    for seed in SEEDS:
        cfg = _config(experiment, scene, seed, coupling)
        relation(_curves(cfg), cfg)
