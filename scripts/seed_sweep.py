"""Run ``verify all`` over a range of seeds and count the failures.

Usage (from any directory):

    python scripts/seed_sweep.py 500 540 [--checkout DIR]

Runs every experiment of the harness, in ``EXPERIMENTS`` order, at each
seed in [FIRST, STOP), all in one process that imports ``src/dwlab``
from DIR (default: the checkout that holds this script).  It then prints
the failures per experiment and per cell: an experiment line gives the
number of seeds at which its report did not pass and those seeds; a cell
line names a statistic of a failed report whose key path contains
``drift`` and whose value is at or above 1.5, the drift gate that every
ladder experiment shares.  A failure that no such cell explains shows
on its experiment line only.  The output holds no timing, so two
checkouts that reach the same outcomes print the same text.  Exit 0
when every experiment passes at every seed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

DRIFT_GATE = 1.5


def _drift_cells(stats, path=""):
    """(path, value) of every numeric leaf under a key path that
    contains "drift", at or above the drift gate."""
    for key, val in stats.items():
        sub = f"{path}/{key}" if path else key
        if isinstance(val, dict):
            yield from _drift_cells(val, sub)
        elif ("drift" in sub and isinstance(val, (int, float))
              and val >= DRIFT_GATE):
            yield sub, val


def _seeds(seeds):
    return " ".join(map(str, seeds))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("first", type=int)
    ap.add_argument("stop", type=int)
    ap.add_argument("--checkout", type=Path,
                    default=Path(__file__).resolve().parent.parent)
    args = ap.parse_args(argv)
    if not 0 <= args.first < args.stop:
        ap.error("need 0 <= FIRST < STOP")
    src = args.checkout.resolve() / "src"
    if not (src / "dwlab" / "__init__.py").is_file():
        ap.error(f"no dwlab sources under {src}")
    sys.path.insert(0, str(src))
    from dwlab.harness import EXPERIMENTS, run_experiment

    seeds = range(args.first, args.stop)
    by_exp = {name: [] for name in EXPERIMENTS}
    by_cell = {}
    for seed in seeds:
        for name in EXPERIMENTS:
            rep = run_experiment(name, seed=seed)
            if rep.passed:
                continue
            by_exp[name].append(seed)
            for cell, _ in _drift_cells(rep.to_dict()["stats"]):
                by_cell.setdefault((name, cell), []).append(seed)
    total = sum(len(v) for v in by_exp.values())
    print(f"seeds {seeds.start}-{seeds.stop - 1} ({len(seeds)}): "
          f"{total} failed experiment runs")
    for name, failed in by_exp.items():
        print(f"  {name:<10} {len(failed):>4}  {_seeds(failed)}".rstrip())
    for (name, cell), failed in by_cell.items():
        print(f"  {name} {cell}: {len(failed)}  {_seeds(failed)}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
