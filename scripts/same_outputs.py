"""Check that two checkouts give the same outputs on one benchmark pass.

Usage (from any directory):

    python scripts/same_outputs.py PARENT CHANGE --workload weighted --seed 0x5EED

PARENT and CHANGE are two checkouts of the repository (for instance
clean ``git archive`` exports of two commits).  In each checkout, in a
subprocess of its own that imports that checkout's ``src/dwlab`` and
``perfbench/workloads.py``, the script builds the workload at full size
for the seed and runs one pass, recording the result of every
``Ops.run`` call in order: arrays by dtype, shape and bytes, floats by
``float.hex``, and containers, sequences, families and reports field by
field (a reducing family with its ``equivalence_bounds``; a report
without its wall time).  The output checks are not run.  It then prints
the first operation whose values differ, with the first differing value,
and exits 1; or prints ``identical (N values)`` and exits 0.  Nothing is
written to either checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import pickle
import subprocess
import sys
from pathlib import Path


def leaves(obj, path, out):
    """Append (path, comparable value) for every leaf of a result."""
    import numpy as np

    if obj is None or isinstance(obj, (bool, int, str)):
        out.append((path, repr(obj)))
    elif isinstance(obj, float):
        out.append((path, obj.hex()))
    elif isinstance(obj, complex):
        out.append((path, f"{obj.real.hex()}{obj.imag.hex()}j"))
    elif isinstance(obj, (np.ndarray, np.generic)):
        a = np.asarray(obj)
        out.append((path, (a.dtype.str, a.shape, a.tobytes())))
    elif isinstance(obj, dict):
        for k, v in obj.items():
            leaves(v, f"{path}[{k!r}]", out)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            leaves(v, f"{path}[{i}]", out)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            if f.compare and f.name != "wall_time":
                leaves(getattr(obj, f.name), f"{path}.{f.name}", out)
        if hasattr(type(obj), "equivalence_bounds"):
            leaves(obj.equivalence_bounds, f"{path}.equivalence_bounds", out)
    elif hasattr(obj, "__dict__"):
        for k, v in vars(obj).items():
            if not k.startswith("_"):
                leaves(v, f"{path}.{k}", out)
    else:
        raise TypeError(f"{path}: cannot record a {type(obj).__name__}")
    return out


def dump(tree, workload, seed):
    """One pass in ``tree``: [(operation, [(path, value), ...]), ...]."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import dwlab
    import workloads

    if Path(dwlab.__file__).resolve().parent != (tree / "src" / "dwlab"):
        raise SystemExit(f"imported dwlab from {dwlab.__file__}, not {tree}")
    results = []

    class Recorded(workloads.Ops):
        def run(self, name, fn, *args, **kwargs):
            got = super().run(name, fn, *args, **kwargs)
            results.append((name, self.failures.get(name), got))
            return got

    setup, run_pass = workloads.WORKLOADS[workload]
    run_pass(setup(seed, workloads.SIZES["full"]), Recorded())
    return [(name, [("error", err.strip().splitlines()[-1])] if err
             else leaves(got, "", [])) for name, err, got in results]


def _describe(value):
    if isinstance(value, tuple):
        dtype, shape, _ = value
        return f"array {dtype} {shape}"
    return value


def first_difference(a, b):
    """None, or a line naming the first operation whose values differ."""
    for i, ((name, va), (name_b, vb)) in enumerate(zip(a, b)):
        if name != name_b:
            return f"operation {i}: {name} against {name_b}"
        for (path, x), (path_b, y) in zip(va, vb):
            if path != path_b:
                return f"{name}: {path} against {path_b}"
            if x != y:
                return f"{name}{path}: {_describe(x)} != {_describe(y)}"
        if len(va) != len(vb):
            return f"{name}: {len(va)} values against {len(vb)}"
    if len(a) != len(b):
        return f"{len(a)} operations against {len(b)}"
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path, nargs="?")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=lambda s: int(s, 0), required=True)
    ap.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.dump:  # the subprocess: one pass in one tree, pickled
        out = dump(args.parent.resolve(), args.workload, args.seed)
        sys.stdout.buffer.write(pickle.dumps(out))
        return 0
    if args.change is None:
        ap.error("need PARENT and CHANGE")
    got = []
    for tree in (args.parent, args.change):
        if not (tree / "perfbench" / "workloads.py").is_file():
            ap.error(f"{tree} has no perfbench/workloads.py")
        proc = subprocess.run(
            [sys.executable, __file__, str(tree), "--dump", "--workload",
             args.workload, "--seed", str(args.seed)], capture_output=True)
        if proc.returncode != 0:
            raise SystemExit(f"{tree}: exited with {proc.returncode}\n"
                             f"{proc.stderr.decode()}")
        got.append(pickle.loads(proc.stdout))
    diff = first_difference(*got)
    if diff is not None:
        print(f"differ: {diff}")
        return 1
    print(f"identical ({sum(len(v) for _, v in got[0])} values)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
