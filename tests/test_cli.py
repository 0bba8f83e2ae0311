import csv
import json
import math

from risac import cli
from risac import ris_isac as ri
from risac.config import RunConfig

TINY_RIS_ISAC = "n_ris = 4\nl_t = 4\nl_s = 4\nr0_points = 5\n"


def _run(tmp_path, out_name, *extra):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_RIS_ISAC)
    out = tmp_path / out_name
    code = cli.main(["ris-isac-tradeoff", "--config", str(config), "--out", str(out), *extra])
    csv_bytes = (out / "ris-isac-tradeoff.csv").read_bytes()
    summary = json.loads((out / "ris-isac-tradeoff_summary.json").read_text())
    summary.pop("wall_clock_seconds")
    summary.pop("outputs")
    return code, csv_bytes, summary


def test_ris_isac_tradeoff_is_deterministic_and_feasible(tmp_path):
    first = _run(tmp_path, "a")
    assert first[0] == 0
    assert _run(tmp_path, "b") == first
    assert _run(tmp_path, "c", "--threads", "4") == first

    rows = list(csv.DictReader((tmp_path / "a" / "ris-isac-tradeoff.csv").open()))
    assert len(rows) == 3 * 5
    for row in rows:
        assert float(row["rate_bits"]) >= float(row["R0"]) - 1e-12, row


def test_ris_isac_tradeoff_solves_the_profile_once(tmp_path, monkeypatch):
    calls = []
    original = ri.optimize_ris_profile

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ri, "optimize_ris_profile", counted)
    assert _run(tmp_path, "a")[0] == 0
    assert len(calls) == 1


def test_ris_isac_tradeoff_large_strong_coupling_is_finite(tmp_path):
    # The optimized profile leaves the angle FIM badly scaled (raw condition
    # number ~4e17) but well posed, so every CRB must stay finite.
    cfg = RunConfig(experiment="ris-isac-tradeoff", coupling="strong", seed=1,
                    n_ris=256, l_t=32, l_s=32, r0_points=3)
    cli.run_experiment(cfg, tmp_path)
    rows = list(csv.DictReader((tmp_path / "ris-isac-tradeoff.csv").open()))
    assert len(rows) == 3 * 3
    for row in rows:
        assert math.isfinite(float(row["crb"])), row
        assert float(row["rate_bits"]) >= float(row["R0"]) - 1e-12, row
