"""Compare two checkouts on one benchmark workload, in alternating pairs.

Usage (from any directory):

    python scripts/ab_bench.py PARENT CHANGE --workload weighted --pairs 10 --seed 21801

PARENT and CHANGE are two checkouts of the repository (for instance
clean ``git archive`` exports of two commits).  For each seed S, S + 1,
..., S + N - 1 the script runs ``perfbench/run.py --workload W --seed s
--trace 0`` in each checkout, one process at a time; pair i runs the
parent first when i is even and the change first when i is odd.  It
then prints, for each end-to-end metric, the median [q1, q3] of each
side (quartiles by ``statistics.quantiles``, inclusive method), the
relative change of the medians, the parent's quartile distance, the
number of pairs in which the change reads lower and whether the claim
rule holds (the change lower in at least nine tenths of the pairs, ties
counting for neither, and the parent's median above the change's by more
than the parent's quartile distance), and then every pair as

    <seed><p|c>: parent/change <metric 1>, parent/change <metric 2>, ...

with ``p`` or ``c`` naming the side that ran first.  A run that exits
non-zero or reports a failed operation stops the script with exit 1.
The script changes nothing in either checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree, workload, seed):
    """The metrics {name: (value, unit)} of one perfbench run in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: run.py exited with {proc.returncode}\n"
                         f"{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if line["failed"] or not line["correct"]:
        raise SystemExit(f"{tree}: {line['failed']} of {line['attempted']} "
                         f"operations failed at seed {seed}")
    return {k: (m["value"], m["unit"]) for k, m in line["metrics"].items()}


def _fmt(value, unit):
    return f"{value:.1f}" if unit == "MB" else f"{value:.3f}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=lambda s: int(s, 0), required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("need at least two pairs for quartiles")
    trees = {"parent": args.parent, "change": args.change}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            ap.error(f"{tree} has no perfbench/run.py")
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {side: run_once(trees[side], args.workload, seed)
               for side in order}
        pairs.append((seed, order[0][0], got["parent"], got["change"]))
        print(f"pair {i + 1}/{args.pairs} done (seed {seed})",
              file=sys.stderr, flush=True)
    names = list(pairs[0][2])
    print(f"workload {args.workload}, {args.pairs} pairs, seeds "
          f"{args.seed}-{args.seed + args.pairs - 1}")
    for name in names:
        unit = pairs[0][2][name][1]
        par = [p[name][0] for _, _, p, _ in pairs]
        chg = [c[name][0] for _, _, _, c in pairs]
        pq, cq = (statistics.quantiles(v, n=4, method="inclusive")
                  for v in (par, chg))
        lower = sum(c < p for p, c in zip(par, chg))
        iqr = pq[2] - pq[0]
        holds = 10 * lower >= 9 * len(pairs) and pq[1] - cq[1] > iqr
        print(f"  {name}: {_fmt(pq[1], unit)} [{_fmt(pq[0], unit)}, "
              f"{_fmt(pq[2], unit)}] -> {_fmt(cq[1], unit)} "
              f"[{_fmt(cq[0], unit)}, {_fmt(cq[2], unit)}] {unit} "
              f"({(cq[1] / pq[1] - 1.0) * 100:+.1f}%, parent IQR "
              f"{_fmt(iqr, unit)}, change lower in {lower}/{len(pairs)}, "
              f"claim rule {'holds' if holds else 'fails'})")
    print("  pairs: " + "; ".join(
        f"{seed}{first}: " + ", ".join(
            f"{_fmt(p[n][0], p[n][1])}/{_fmt(c[n][0], c[n][1])}"
            for n in names)
        for seed, first, p, c in pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
