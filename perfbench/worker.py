"""One workload in one fresh process; started by run.py, not by hand.

Usage: worker.py WORKLOAD SEED SECONDS T0 [--trace] [--setup-only] [--smoke]

T0 is the parent's time.monotonic() taken just before it started this
process, so the reported set-up time covers interpreter start, importing
dwlab and building the workload's inputs.  The worker then runs whole
passes until their summed time reaches SECONDS, checks every pass's
outputs, and prints one JSON line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    name, seed, seconds, t0 = argv[0], int(argv[1]), float(argv[2]), float(argv[3])
    flags = set(argv[4:])
    src = ROOT / "src"
    if not (src / "dwlab" / "__init__.py").is_file():
        print(f"no dwlab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import dwlab

    if Path(dwlab.__file__).resolve().parent != src / "dwlab":
        print(f"imported dwlab from {dwlab.__file__}, not {src}", file=sys.stderr)
        return 2
    rec = None
    if "--trace" in flags:
        import spans

        rec = spans.Recorder()
        spans.install(rec)
    import workloads

    size = workloads.SIZES["smoke" if "--smoke" in flags else "full"]
    setup, run_pass = workloads.WORKLOADS[name]
    inp = setup(seed, size)
    setup_s = time.monotonic() - t0
    result = {"setup_s": setup_s}
    if "--setup-only" in flags:
        print(json.dumps(result))
        return 0

    walls, attempted, failed = [], 0, 0
    while not walls or sum(walls) < seconds:
        ops = workloads.Ops()
        if rec is not None:
            rec.active = True
        start = time.perf_counter()
        run_pass(inp, ops)
        walls.append(time.perf_counter() - start)
        if rec is not None:
            rec.active = False
        ops.run_checks()
        attempted += ops.attempted
        failed += len(ops.failures)
        for op, msg in ops.failures.items():
            print(f"FAILED {name}/{op} (pass {len(walls)}): {msg}",
                  file=sys.stderr)
    result.update(
        walls=walls,
        attempted=attempted,
        failed=failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if rec is not None:
        per_label, layer_self, top, hits = spans.summarize(rec, len(walls))
        result["trace"] = {"labels": per_label, "layer_self": layer_self,
                           "top_s": top, "power_at_hits": hits}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
