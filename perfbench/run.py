"""dwlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload verify --seed 896284 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  The workloads, metric names, units and
bounds are in BENCHMARK.json; why each workload exists is in
perfbench/workloads.py.

Each workload runs in a fresh single process (perfbench/worker.py) that
imports dwlab from ./src: a closed loop with one client.  BLAS threads
are capped at the number of usable cores.

--trace 0 reports the end-to-end metrics: ``run_s`` (median wall time of
one pass after set-up), ``setup_s`` (median over several fresh processes
of interpreter start, ``import dwlab`` and building the inputs) and
``peak_rss_mb`` (peak resident memory of the measuring process).
Failed operations (errors or failed output checks) are the ``failed``
count out of ``attempted`` in the result line.

--trace 1 runs the workload untraced, then again in a second process
whose public dwlab functions are wrapped (perfbench/spans.py), and
reports the per-layer metrics, the traced share of the pass time and the
tracing overhead against the untraced run.

--smoke runs every workload at reduced size in both modes and checks
that every metric of BENCHMARK.json is emitted with its unit and that
the trace covers at least 95% of each workload's pass time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0
SMOKE_SECONDS = 1
MIN_COVERAGE = 0.95


class BenchError(Exception):
    pass


def blas_cap():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    cap = str(blas_cap())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def git_commit():
    """HEAD commit read from .git without starting git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance():
    """Context recorded with every result; never gated."""
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": blas_cap(),
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def run_worker(workload, seed, seconds, deadline, *flags):
    """Start one worker, wait for it, and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the worker started")
    t0 = time.monotonic()
    cmd = [sys.executable, str(WORKER), workload, str(seed), str(seconds),
           repr(t0), *flags]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} worker printed no result")
    return json.loads(lines[-1])


def end_to_end(workload, seed, seconds, deadline, smoke):
    flags = ["--smoke"] if smoke else []
    setups = [run_worker(workload, seed, seconds, deadline, "--setup-only",
                         *flags)["setup_s"] for _ in range(SETUP_PROBES)]
    res = run_worker(workload, seed, seconds, deadline, *flags)
    setups.append(res["setup_s"])
    print("pass walls (s): " + " ".join(f"{w:.4f}" for w in res["walls"]))
    values = {
        "run_s": statistics.median(res["walls"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return values, res


def _label_sum(labels, base, key):
    """Sum of ``key`` over the label and its variants (base.*)."""
    return sum(v[key] for k, v in labels.items()
               if k == base or k.startswith(base + "."))


def per_layer(workload, seed, seconds, deadline, smoke, names):
    flags = ["--smoke"] if smoke else []
    plain = run_worker(workload, seed, seconds, deadline, *flags)
    traced = run_worker(workload, seed, seconds, deadline, "--trace", *flags)
    tr = traced["trace"]
    labels = tr["labels"]
    wall = statistics.median(traced["walls"])
    calls = _label_sum(labels, "weights.power_at", "calls")
    values = {}
    for name in names:
        if name == "trace.coverage_frac":
            values[name] = tr["top_s"] / statistics.mean(traced["walls"])
        elif name == "trace.overhead_frac":
            values[name] = wall / statistics.median(plain["walls"]) - 1.0
        elif name == "weights.power_at.hit_ratio":
            values[name] = tr["power_at_hits"] / calls if calls else 0.0
        elif name.endswith(".self_s"):
            values[name] = tr["layer_self"][name[:-len(".self_s")]]
        elif name.endswith(".calls"):
            values[name] = _label_sum(labels, name[:-len(".calls")], "calls")
        elif name.endswith(".s"):
            values[name] = _label_sum(labels, name[:-len(".s")], "s")
        else:
            raise BenchError(f"no rule for per-layer metric {name}")
    return values, [plain, traced]


def measure(spec, workload, seed, seconds, trace, smoke=False):
    """The result line of one workload run."""
    deadline = time.monotonic() + TIME_LIMIT_S
    key = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}
    if trace:
        values, results = per_layer(workload, seed, seconds, deadline, smoke,
                                    list(units))
    else:
        values, res = end_to_end(workload, seed, seconds, deadline, smoke)
        results = [res]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u}
                    for n, u in units.items()},
    }
    return line


def print_human(workload, line, note):
    print(f"workload {workload}: {note}")
    for name, m in line["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    frac = line["failed"] / line["attempted"]
    print(f"  failed_frac = {frac:.6g} ({line['failed']} of "
          f"{line['attempted']} operations)")


def smoke(spec):
    """Reduced-size run of every workload; returns the list of problems."""
    problems = []
    for wl in spec["workloads"]:
        name = wl["name"]
        for trace in (False, True):
            line = measure(spec, name, 0xDAD1C, SMOKE_SECONDS, trace,
                           smoke=True)
            key = "per_layer" if trace else "end_to_end"
            for m in spec[key]:
                got = line["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] \
                        or not isinstance(got["value"], (int, float)):
                    problems.append(f"{name}: {m['name']} not emitted")
            if not line["correct"]:
                problems.append(f"{name}: {line['failed']} failed operations")
            if trace:
                cov = line["metrics"]["trace.coverage_frac"]["value"]
                if cov < MIN_COVERAGE:
                    problems.append(f"{name}: trace covers {cov:.3f}")
            print_human(name, line, "smoke, traced" if trace else "smoke")
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=0xDAD1C)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    bench = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "dwlab" / "__init__.py").is_file():
        print(f"no dwlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(bench.read_text())
    print("provenance: " + json.dumps(provenance(), sort_keys=True))
    names = [w["name"] for w in spec["workloads"]]
    if not args.smoke and args.workload not in names:
        ap.error(f"--workload must be one of {names}")
    seconds = args.seconds or spec["run_seconds"]
    try:
        if args.smoke:
            problems = smoke(spec)
        else:
            line = measure(spec, args.workload, args.seed, seconds,
                           bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.smoke:
        for p in problems:
            print(f"SMOKE FAIL {p}", file=sys.stderr)
        print("smoke: " + ("ok" if not problems else "FAILED"))
        return 1 if problems else 0
    print_human(args.workload, line,
                f"seed {args.seed}, {seconds} s, trace {args.trace}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
