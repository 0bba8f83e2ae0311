"""The output grid: each run ends in the CSVs its summary hashes, or in a typed error.

The grid is every experiment at config seeds 0-9, on the default scene and
on a scaled one (n_ris = 256, l_t = l_s = 32), with ``ris-isac-tradeoff``
at both couplings: 120 runs, about 1.2 s in all. It is the grid a refactor
compares against its parent, CSV by CSV, through the summaries' SHA-256s.
"""

import csv
import hashlib
import json

import pytest

from risac import cli, errors
from risac.config import EXPERIMENTS, RunConfig

SCENES = {"default": {}, "scaled": dict(n_ris=256, l_t=32, l_s=32)}
TYPED_ERRORS = tuple(v for v in vars(errors).values()
                     if isinstance(v, type) and issubclass(v, Exception))
CASES = [(scene, experiment, coupling) for scene in SCENES for experiment in EXPERIMENTS
         for coupling in (("weak", "strong") if experiment == "ris-isac-tradeoff" else ("weak",))]


@pytest.mark.parametrize("scene, experiment, coupling", CASES)
def test_each_run_writes_the_csvs_its_summary_hashes(tmp_path, scene, experiment, coupling):
    for seed in range(10):
        cfg = RunConfig(experiment=experiment, seed=seed, coupling=coupling, **SCENES[scene])
        out = tmp_path / str(seed)
        try:
            cli.run_experiment(cfg, out)
        except TYPED_ERRORS:
            # Every check runs before the first write, so a failed run writes nothing.
            assert not list(out.glob("*")), seed
            continue
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in out.glob("*.csv")}
        summary = json.loads((out / f"{experiment}_summary.json").read_text())
        assert digests and summary["outputs"] == digests, seed
        if experiment == "beampattern":
            # Each pattern cell is a sum of squared magnitudes formed from X.
            rows = csv.DictReader((out / "beampattern.csv").read_text().splitlines())
            cells = [float(row[k]) for row in rows for k in ("j_total", "j_comm", "j_sense")]
            assert min(cells) >= 0.0, seed
