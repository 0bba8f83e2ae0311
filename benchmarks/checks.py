"""Output checks on the CSV and summary files of one experiment run.

Every CSV row is one operation. A row fails when it fails its check; the
caller charges every row of a run that exits nonzero, or whose CSVs differ
from the first run of the same (config, seed), as failed.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path
from typing import List, Optional

RATE_TOL = 1e-6   # rate >= R0 - RATE_TOL, in bits per use
FEAS_TOL = 1e-6   # relative SINR slack and absolute diagonal residual
Z_BOUND = 5.0     # |Monte Carlo - theory| / binomial sigma, per Pd or Pf point
# einsum rounding can leave a zero beam a few ulps below zero.
PATTERN_TOL = 1e-12


@dataclasses.dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    notes: List[str] = dataclasses.field(default_factory=list)
    crbs: List[float] = dataclasses.field(default_factory=list)  # finite CRB rows
    loss: Optional[float] = None
    z_max: Optional[float] = None

    def add(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes)
        self.crbs.extend(other.crbs)
        if other.loss is not None:
            self.loss = other.loss
        if other.z_max is not None:
            self.z_max = max(other.z_max, self.z_max or 0.0)

    def tally(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if note and len(self.notes) < 20:
                self.notes.append(note)


def _num(text: str) -> float:
    return float(text) if text != "" else math.nan


def read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _summary(out_dir: Path, experiment: str) -> dict:
    return json.loads((out_dir / f"{experiment}_summary.json").read_text())


def _finite_positive(x: float) -> bool:
    return math.isfinite(x) and x > 0


def _rate_rows(rows, res: CheckResult, label: str) -> None:
    for i, row in enumerate(rows):
        r0, rate, crb = _num(row["R0"]), _num(row["rate_bits"]), _num(row["crb"])
        ok = rate >= r0 - RATE_TOL and _finite_positive(crb)
        res.tally(ok, f"{label} row {i}: R0={r0} rate={rate} crb={crb}")
        if _finite_positive(crb):
            res.crbs.append(crb)


def check_ris_isac_tradeoff(out_dir: Path, cfg) -> CheckResult:
    res = CheckResult()
    _rate_rows(read_csv(out_dir / "ris-isac-tradeoff.csv"), res, "ris-isac-tradeoff")
    return res


def check_isac_tradeoff(out_dir: Path, cfg) -> CheckResult:
    res = CheckResult()
    _rate_rows(read_csv(out_dir / "isac-tradeoff.csv"), res, "isac-tradeoff")
    return res


def check_beampattern(out_dir: Path, cfg) -> CheckResult:
    res = CheckResult()
    diag = _summary(out_dir, "beampattern")["diagnostics"]
    sinr_ok = diag["sinr"] >= diag["sinr_threshold"] * (1.0 - FEAS_TOL)
    if not sinr_ok:
        res.notes.append(f"beampattern SINR {diag['sinr']} below {diag['sinr_threshold']}")
    rows = read_csv(out_dir / "beampattern.csv")
    scale = max(_num(r["j_total"]) for r in rows)
    for i, row in enumerate(rows):
        vals = [_num(row[k]) for k in ("j_total", "j_comm", "j_sense")]
        ok = sinr_ok and all(v >= -PATTERN_TOL * scale for v in vals)
        res.tally(ok, f"beampattern row {i}: negative pattern {vals}")
    phases = read_csv(out_dir / "beampattern_phases.csv")
    count_ok = len(phases) == cfg.n_ris
    if not count_ok:
        res.notes.append(f"{len(phases)} phase rows for {cfg.n_ris} RIS elements")
    for row in phases:
        res.tally(sinr_ok and count_ok and math.isfinite(_num(row["phase_rad"])))
    # Missing phase rows are operations that failed.
    for _ in range(max(cfg.n_ris - len(phases), 0)):
        res.tally(False)
    res.loss = float(diag["loss"])
    return res


def check_design_diagonal(design) -> Optional[str]:
    """Unit-diagonal check on the returned covariance; None when it holds."""
    diag = [abs(complex(design.covariance[i, i]).real - 1.0)
            for i in range(design.covariance.shape[0])]
    worst = max(diag)
    if not worst < FEAS_TOL:
        return f"beampattern diagonal residual {worst:.3g} >= {FEAS_TOL}"
    return None


def _binomial_z(empirical: float, p: float, trials: int) -> float:
    var = max(p * (1.0 - p), 1.0 / trials) / trials
    return abs(empirical - p) / math.sqrt(var)


def check_detect(out_dir: Path, cfg) -> CheckResult:
    res = CheckResult()
    rows = read_csv(out_dir / "detect.csv")
    pf_mc = list(_summary(out_dir, "detect")["diagnostics"]["empirical_pf"].values())
    z_max = 0.0
    for i, row in enumerate(rows):
        z_pd = _binomial_z(_num(row["pd_mc"]), _num(row["pd_formula"]), cfg.trials)
        z_pf = _binomial_z(pf_mc[i], _num(row["pf"]), cfg.trials)
        z = max(z_pd, z_pf)
        z_max = max(z_max, z)
        res.tally(z <= Z_BOUND, f"detect row {i}: z={z:.2f} > {Z_BOUND}")
    res.z_max = z_max
    return res


def check_sense_sweep(out_dir: Path, cfg) -> CheckResult:
    res = CheckResult()
    blocked = _summary(out_dir, "sense-sweep")["diagnostics"]["blocked"]
    for i, row in enumerate(read_csv(out_dir / "sense-sweep.csv")):
        crb = _num(row["crb"])
        if row["mode"] == "without_ris" and blocked[int(row["waypoint"])]:
            ok = crb == math.inf  # no direct path and no RIS path by design
        else:
            ok = _finite_positive(crb)
            if ok:
                res.crbs.append(crb)
        res.tally(ok, f"sense-sweep row {i}: {row['mode']} crb={crb}")
    return res


CHECKS = {
    "ris-isac-tradeoff": check_ris_isac_tradeoff,
    "beampattern": check_beampattern,
    "detect": check_detect,
    "sense-sweep": check_sense_sweep,
    "isac-tradeoff": check_isac_tradeoff,
}
