"""Record every metric of every workload at the current commit.

    python3 perfbench/record_baseline.py [--seed 896284] [--out perfbench/baseline.json]

Runs perfbench/run.py once per workload with --trace 0 and once with
--trace 1, and writes the provenance and each result line to one JSON
file.  Takes about four minutes on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                         cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    prov = next(json.loads(ln.split(": ", 1)[1]) for ln in lines
                if ln.startswith("provenance: "))
    return prov, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", default="896284")
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = {"seed": int(args.seed, 0), "run_seconds": spec["run_seconds"],
           "workloads": {}}
    for wl in spec["workloads"]:
        name = wl["name"]
        entry = doc["workloads"][name] = {}
        for trace in ("0", "1"):
            prov, line = run(["--workload", name, "--seed", args.seed,
                              "--trace", trace])
            doc["provenance"] = prov
            entry["end_to_end" if trace == "0" else "per_layer"] = line
            print(f"{name} trace {trace}: correct={line['correct']}",
                  flush=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
