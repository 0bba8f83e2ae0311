"""Compare every experiment's outputs with those of another git revision.

    python tests/outputs.py --against HEAD~

extracts the revision's ``src`` with ``git archive`` into a temporary
directory and runs the output grid on it and on this checkout, each in its
own interpreter with ``PYTHONPATH`` at that tree's ``src``. The grid is every
experiment at config seeds 0-9, on the default scene and on a scaled one
(n_ris = 256, l_t = l_s = 32), with ``ris-isac-tradeoff`` at both couplings,
plus the ``sense-sweep`` and ``isac-tradeoff`` edge cases of ``EDGES`` at
seeds 0-2: 150 runs, about 1.3 s per tree. For each CSV it prints how many runs wrote
identical bytes and, per column that moved, the largest absolute and
relative move of a cell. It names every run whose error outcome or summary
``diagnostics`` changed, and exits 1 if anything differs.
"""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCENES = {"default": {}, "scaled": dict(n_ris=256, l_t=32, l_s=32)}
# Listed, not imported: the comparing process has no risac on its path, and
# both trees run this one grid.
EXPERIMENTS = ("sense-sweep", "detect", "isac-tradeoff", "ris-isac-tradeoff", "beampattern")
CASES = [(scene, experiment, coupling) for scene in SCENES for experiment in EXPERIMENTS
         for coupling in (("weak", "strong") if experiment == "ris-isac-tradeoff" else ("weak",))]
SEEDS = range(10)
# Edge cases on the default scene. sense-sweep: no RIS, a one- and a
# fifty-waypoint road, every waypoint blocked, and the RIS on waypoint 4 (an
# error outcome). isac-tradeoff: targets off the x axis, and a user at the
# RIS, a pair the run does not read. At (13.2, 20) np.hypot and
# np.linalg.norm round the BS-target distance apart in the last bit; at the
# default target (40, 0) and the other three they agree.
EDGES = {"sense-sweep": {"n_ris=0": dict(n_ris=0), "num_waypoints=1": dict(num_waypoints=1),
                         "num_waypoints=50": dict(num_waypoints=50),
                         "blocked_from_index=0": dict(blocked_from_index=0),
                         "ris_position=30,25": dict(ris_position=(30.0, 25.0))},
         "isac-tradeoff": {"target_position=-17.3,31.9": dict(target_position=(-17.3, 31.9)),
                           "target_position=63.1,-8.7": dict(target_position=(63.1, -8.7)),
                           "target_position=25,10": dict(target_position=(25.0, 10.0)),
                           "target_position=13.2,20": dict(target_position=(13.2, 20.0)),
                           "user_position=30,30": dict(user_position=(30.0, 30.0))}}
EDGE_SEEDS = range(3)
# Run name -> RunConfig keywords; the name's second field is the experiment.
RUNS = {**{f"{scene}/{experiment}/{coupling}/{seed}":
           dict(experiment=experiment, seed=seed, coupling=coupling, **SCENES[scene])
           for scene, experiment, coupling in CASES for seed in SEEDS},
        **{f"{edge}/{experiment}/weak/{seed}": dict(experiment=experiment, seed=seed, **keys)
           for experiment, edges in EDGES.items() for edge, keys in edges.items()
           for seed in EDGE_SEEDS}}


def run_grid(out: Path) -> None:
    """Run each of ``RUNS`` into ``out``; outcomes.json maps a run to "ok" or its error."""
    from risac import cli  # from the tree that PYTHONPATH names
    from risac.config import RunConfig

    out.mkdir(parents=True, exist_ok=True)
    outcomes = {}
    for run, keys in RUNS.items():
        try:
            cli.run_experiment(RunConfig(**keys), out / run)
            outcomes[run] = "ok"
        except Exception as exc:  # the outcome is compared, not raised
            outcomes[run] = f"{type(exc).__name__}: {exc}"
    (out / "outcomes.json").write_text(json.dumps(outcomes, indent=1) + "\n")


def _move(old: str, new: str) -> tuple:
    """(absolute, relative) move of a changed cell; inf unless both cells are finite numbers."""
    try:
        x, y = float(old), float(new)
    except ValueError:
        return math.inf, math.inf
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf, math.inf
    return abs(y - x), abs(y - x) / abs(x) if x else math.inf


def column_moves(old: str, new: str) -> dict:
    """Per changed column of two CSV texts: [cells changed, largest absolute, relative move].

    A changed header or row length is one infinite move of "(shape)".
    """
    old_rows, new_rows = list(csv.reader(old.splitlines())), list(csv.reader(new.splitlines()))
    if old_rows[:1] != new_rows[:1] or list(map(len, old_rows)) != list(map(len, new_rows)):
        return {"(shape)": [1, math.inf, math.inf]}
    moves = {}
    for old_row, new_row in zip(old_rows[1:], new_rows[1:]):
        for column, a, b in zip(old_rows[0], old_row, new_row):
            if a != b:
                move = moves.setdefault(column, [0, 0.0, 0.0])
                move[0] += 1
                move[1:] = map(max, move[1:], _move(a, b))
    return moves


def compare(old: Path, new: Path) -> bool:
    """Print how the grid outputs under ``new`` differ from those under ``old``; True if not."""
    old_outcomes = json.loads((old / "outcomes.json").read_text())
    new_outcomes = json.loads((new / "outcomes.json").read_text())
    runs = sorted(old_outcomes.keys() | new_outcomes.keys())
    tables = {}  # CSV name -> [runs, byte-identical runs, {column: [runs, cells, abs, rel]}]
    changed = []  # lines naming runs whose outcome or diagnostics changed
    completed = 0
    for run in runs:
        outcome = old_outcomes.get(run), new_outcomes.get(run)
        if outcome[0] != outcome[1]:
            changed.append(f"  {run}: outcome {outcome[0]} -> {outcome[1]}")
        elif outcome[0] == "ok":
            completed += 1
            summary = f"{run.split('/')[1]}_summary.json"
            was, now = (json.loads((tree / run / summary).read_text())["diagnostics"]
                        for tree in (old, new))
            # Compared as JSON text, where NaN equals NaN.
            keys = sorted(key for key in was.keys() | now.keys()
                          if json.dumps(was.get(key), sort_keys=True)
                          != json.dumps(now.get(key), sort_keys=True))
            if keys:
                changed.append(f"  {run}: diagnostics changed: {', '.join(keys)}")
        names = {path.name for tree in (old, new) for path in (tree / run).glob("*.csv")}
        for name in sorted(names):
            texts = [(tree / run / name).read_bytes() if (tree / run / name).exists() else b""
                     for tree in (old, new)]
            table = tables.setdefault(name, [0, 0, {}])
            table[0] += 1
            if texts[0] == texts[1]:
                table[1] += 1
                continue
            for column, (cells, abs_move, rel_move) in column_moves(
                    *(text.decode() for text in texts)).items():
                move = table[2].setdefault(column, [0, 0, 0.0, 0.0])
                move[0] += 1
                move[1] += cells
                move[2:] = max(move[2], abs_move), max(move[3], rel_move)
    for name, (count, identical, moves) in sorted(tables.items()):
        print(f"{name}: {identical} of {count} runs byte-identical")
        for column, (moved, cells, abs_move, rel_move) in moves.items():
            print(f"  {column}: {cells} cells in {moved} runs, largest move "
                  f"{abs_move:.3g} absolute, {rel_move:.3g} relative")
    print(f"error outcomes: {len(runs)} runs; diagnostics compared in the {completed} that "
          "completed in both trees")
    print("\n".join(changed) if changed else "  no outcome or diagnostics changed")
    return not changed and all(identical == count for count, identical, _ in tables.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--against", metavar="REV", help="git revision to compare with")
    action.add_argument("--run-grid", type=Path, metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run_grid:
        run_grid(args.run_grid)
        return 0
    with tempfile.TemporaryDirectory(prefix="risac-outputs-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.against, "src"],
                                 stdout=subprocess.PIPE)
        if archive.returncode:  # git has printed why
            return 2
        (tmp / "old").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "old")], input=archive.stdout, check=True)
        trees = {"old": tmp / "old" / "src", "new": ROOT / "src"}
        grids = [subprocess.Popen([sys.executable, __file__, "--run-grid", tmp / f"{tree}-out"],
                                  env={**os.environ, "PYTHONPATH": str(src)})
                 for tree, src in trees.items()]
        if any([grid.wait() for grid in grids]):  # a list, so both are waited for
            print("a grid run failed", file=sys.stderr)
            return 2
        print(f"outputs of {args.against} (old) against this checkout (new):")
        return 0 if compare(tmp / "old-out", tmp / "new-out") else 1


if __name__ == "__main__":
    raise SystemExit(main())
