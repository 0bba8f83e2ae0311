"""Default-config outputs of the deterministic experiments against committed copies.

``tests/data`` holds ``sense-sweep.csv``, ``isac-tradeoff.csv``,
``ris-isac-tradeoff.csv``, ``beampattern.csv`` and ``beampattern_phases.csv``
as the CLI writes them at the default config, and the
``snr_db,pf,pd_formula`` columns of ``detect.csv`` (``pd_mc`` is Monte Carlo
and moves whenever the draws do).
Numeric cells must agree to a relative 1e-9, tight enough that any change to
the numerics shows; text cells, ``inf`` cells and the headers must match
exactly. Regenerate a file only for a change that is meant to move these
numbers, and say so with the change.

The two ``beampattern`` files pin the solver's end point more tightly than
its tolerance does. Computing |proj|^2 as re^2 + im^2 instead of
np.abs(proj) ** 2, one rounding-level change, keeps the default design's
iteration and evaluation counts and moves its loss by 1.2e-13 relative, but
the loss is flat along some directions at the optimum: the ``j_total``,
``j_comm`` and ``j_sense`` cells above 1e-6 of their column's peak move by
up to 6.9e-7 relative (3.7e-5 over config seeds 0-9), the rest by up to
1.5e-10 absolute, and the RIS phases do not move. So 1e-9 is not loose
enough for another BLAS or for any change to the order of the dual-design
arithmetic: such a change must regenerate ``beampattern.csv`` and state what
moved.
"""

import math
from pathlib import Path

import pytest

from risac.cli import run_experiment
from risac.config import RunConfig

DATA = Path(__file__).resolve().parent / "data"
REL_TOL = 1e-9


def _table(text, columns=None):
    lines = text.splitlines()
    header = lines[0].split(",")
    keep = range(len(header)) if columns is None else range(columns)
    rows = [[line.split(",")[i] for i in keep] for line in lines[1:]]
    return [header[i] for i in keep], rows


def _cells_agree(ours, golden):
    try:
        x, y = float(ours), float(golden)
    except ValueError:
        return ours == golden
    if math.isinf(y) or y == 0.0:
        return x == y
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=0.0)


def _output_name(experiment, golden_name):
    """The CLI file a golden copy stands for: a suffixed table such as
    ``beampattern_phases.csv`` keeps its name, every other copy is the
    experiment's main CSV."""
    return golden_name if golden_name.startswith(f"{experiment}_") else f"{experiment}.csv"


@pytest.mark.parametrize(
    "experiment, golden_name, columns",
    [
        ("sense-sweep", "sense-sweep.csv", None),
        ("isac-tradeoff", "isac-tradeoff.csv", None),
        ("detect", "detect-formula.csv", 3),
        ("ris-isac-tradeoff", "ris-isac-tradeoff.csv", None),
        ("beampattern", "beampattern.csv", None),
        ("beampattern", "beampattern_phases.csv", None),
    ],
)
def test_default_outputs_match_golden(tmp_path, experiment, golden_name, columns):
    run_experiment(RunConfig(experiment=experiment), tmp_path)
    ours = _table((tmp_path / _output_name(experiment, golden_name)).read_text(), columns)
    golden = _table((DATA / golden_name).read_text(), columns)
    assert ours[0] == golden[0]
    assert len(ours[1]) == len(golden[1])
    for row, ref in zip(ours[1], golden[1]):
        assert all(_cells_agree(a, b) for a, b in zip(row, ref)), (row, ref)
