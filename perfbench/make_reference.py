"""Regenerate the stored reference outputs at the default seed.

    python3 perfbench/make_reference.py

Writes perfbench/reference/verify.json (the byte-stable verification
report) and perfbench/reference/envelope.json (the B and F norms of the
envelope workload's sequences).  Run it only when a change to the
program is meant to change these outputs, and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import dwlab  # noqa: E402
import workloads  # noqa: E402


def main():
    seed = workloads.DEFAULT_SEED
    out = workloads.REFERENCE_DIR
    out.mkdir(exist_ok=True)
    reports = [dwlab.run_experiment(n, seed=seed) for n in dwlab.EXPERIMENTS]
    (out / "verify.json").write_text(dwlab.emit_report(reports, seed=seed))
    inp = workloads.setup_envelope(seed, workloads.SIZES["full"],
                                   with_reference=False)
    norms = workloads.envelope_norms(inp)
    (out / "envelope.json").write_text(
        json.dumps({"seed": seed, "norms": norms}, indent=1) + "\n")


if __name__ == "__main__":
    main()
