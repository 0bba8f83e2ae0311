"""The output grid: each run ends in the CSVs its summary hashes, or in a typed error.

The grid (``CASES`` of ``outputs``, at config seeds 0-9) is the one that
``python tests/outputs.py --against <rev>`` compares with another revision,
CSV by CSV; this file also checks that comparison on hand-made tables.
"""

import csv
import hashlib
import json
import math

import pytest

from outputs import CASES, SCENES, SEEDS, column_moves, compare
from risac import cli, errors
from risac.config import EXPERIMENTS, RunConfig

TYPED_ERRORS = tuple(v for v in vars(errors).values()
                     if isinstance(v, type) and issubclass(v, Exception))


def test_the_grid_covers_every_experiment():
    assert {experiment for _, experiment, _ in CASES} == set(EXPERIMENTS)


@pytest.mark.parametrize("scene, experiment, coupling", CASES)
def test_each_run_writes_the_csvs_its_summary_hashes(tmp_path, scene, experiment, coupling):
    for seed in SEEDS:
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


def test_comparison_of_two_hand_made_tables(tmp_path, capsys):
    # A finite cell moves by its difference; a text, empty (NaN) or infinite
    # cell that changes moves by inf, and so does a changed shape.
    old = "mode,R0,crb\r\nwith,0.0,2.0\r\nwith,1.0,4.0\r\nwith,2.0,inf\r\n"
    new = "mode,R0,crb\r\nwith,0.0,2.5\r\nwith,1.0,3.0\r\nwithout,2.0,\r\n"
    assert column_moves(old, old) == {}
    finite = new.replace("without,2.0,", "with,2.0,inf")
    assert column_moves(old, finite) == {"crb": [2, 1.0, 0.25]}
    assert column_moves(old, old.replace(",inf", ",1.0")) == {"crb": [1, math.inf, math.inf]}
    assert column_moves(old, new) == {"mode": [1, math.inf, math.inf],
                                      "crb": [3, math.inf, math.inf]}
    assert column_moves(old, old + "with,3.0,5.0\r\n") == {"(shape)": [1, math.inf, math.inf]}

    # Two one-run grids: the table moved, the diagnostics and a second run's
    # outcome changed, and the report says so.
    for tree, table, diag, outcome in (("old", old, 1.0, "ValueError: x"),
                                       ("new", new, 2.0, "ConfigError: x")):
        run = tmp_path / tree / "default/isac-tradeoff/weak/0"
        run.mkdir(parents=True)
        (run / "isac-tradeoff.csv").write_text(table)
        (run / "isac-tradeoff_summary.json").write_text(json.dumps({"diagnostics": {"d": diag}}))
        outcomes = {"default/isac-tradeoff/weak/0": "ok", "default/isac-tradeoff/weak/1": outcome}
        (tmp_path / tree / "outcomes.json").write_text(json.dumps(outcomes))
    assert compare(tmp_path / "old", tmp_path / "old")
    assert "1 of 1 runs byte-identical" in capsys.readouterr().out
    assert not compare(tmp_path / "old", tmp_path / "new")
    report = capsys.readouterr().out
    assert "isac-tradeoff.csv: 0 of 1 runs byte-identical" in report
    assert "crb: 3 cells in 1 runs, largest move inf absolute, inf relative" in report
    assert "default/isac-tradeoff/weak/0: diagnostics changed: d" in report
    assert "default/isac-tradeoff/weak/1: outcome ValueError: x -> ConfigError: x" in report
