"""Which statements of ``src/dwlab`` do the workloads and the CLI run?

Usage (from any directory):

    python scripts/reach.py

Traces ``src/dwlab`` line by line with ``sys.settrace`` while it runs
one full-size pass of each workload in ``perfbench/workloads.py`` and
then a fixed list of CLI invocations (the README examples, ``reduce``
with each backend, ``thresholds``, ``transform dwt`` and ``phi``, and
``verify all`` in both report formats).  It then prints, per module,
each outermost statement that nothing executed, as
``first-last  source line``, leaving out ``raise`` statements and
docstrings.  The workloads' output checks run untraced and only their
failure count is printed.  Nothing is written outside a temporary
directory.  The trace makes the run several times slower than an
untraced one.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "dwlab"

_GRID = json.dumps({"n": 1, "N": 64,
                    "values": [[float(i % 5) - 2.0, 0.5 * (i % 3)]
                               for i in range(64)]})
_NORM = json.dumps({
    "window": {"n": 1, "j_min": 0, "j_max": 4, "root_extent": 1},
    "space": {"family": "B", "s": 0.0, "p": 2, "q": 2,
              "growth": {"kind": "power", "tau": 0.0},
              "mode": "unweighted"},
    "sequence": {"m": 1,
                 "entries": [{"j": 2, "k": [0], "value": [[1.0, 0.0]]}]},
})


def cli_calls(out_dir):
    """The CLI argument lists the trace runs, in order."""
    return [
        ["norm", "--config", _NORM],
        ["reduce", "--weight", "diag_power:-0.5:-0.25", "--backend", "exact2"],
        ["reduce", "--weight", "diag_power:-0.5:-0.25", "--p", "1",
         "--backend", "mvee"],
        ["thresholds", "--space", '{"family": "F", "p": 2, "q": 2}'],
        ["transform", "dwt", "--in", _GRID],
        ["transform", "phi", "--in", _GRID],
        ["verify", "all", "--seed", "0xDAD1C",
         "--out", str(out_dir / "report.json")],
        ["verify", "all", "--format", "csv",
         "--out", str(out_dir / "report.csv")],
    ]


def trace_runs():
    """Run the workloads and the CLI calls under the tracer; returns
    {file name: set of executed line numbers} and a log of outcomes."""
    executed = defaultdict(set)
    prefix = str(PKG) + "/"

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    log = []
    sys.settrace(tracer)
    import dwlab
    import workloads
    from dwlab.cli import main

    assert Path(dwlab.__file__).resolve().parent == PKG, dwlab.__file__
    for name, (setup, run_pass) in workloads.WORKLOADS.items():
        inp = setup(workloads.DEFAULT_SEED, workloads.SIZES["full"])
        ops = workloads.Ops()
        run_pass(inp, ops)
        sys.settrace(None)
        ops.run_checks()
        log.append(f"workload {name}: {ops.attempted} operations, "
                   f"{len(ops.failures)} failed")
        sys.settrace(tracer)
    with tempfile.TemporaryDirectory() as tmp:
        for argv in cli_calls(Path(tmp)):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                status = main(argv)
            log.append(f"dwlab {' '.join(argv[:2])}: exit {status}")
    sys.settrace(None)
    return executed, log


def _header_lines(node):
    """The lines of a statement that run when it is reached: all of a
    simple statement, the head (decorators included) of a compound one."""
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", [])])
    bodies = [getattr(node, f, None) for f in ("body", "orelse", "finalbody",
                                                "handlers")]
    inner = [s.lineno for b in bodies if isinstance(b, list) for s in b]
    last = min(inner) - 1 if inner else node.end_lineno
    return range(first, max(first, last) + 1)


def _children(node):
    for f in ("body", "orelse", "finalbody", "handlers"):
        for s in getattr(node, f, None) or []:
            yield s


def _reached(node, lines):
    return (any(i in lines for i in _header_lines(node))
            or any(_reached(c, lines) for c in _children(node)))


def _is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def unexecuted(tree, lines):
    """Outermost statements of ``tree`` that never ran, minus raises and
    docstrings, in source order."""
    out = []

    def visit(nodes):
        for node in nodes:
            if isinstance(node, ast.Raise) or _is_docstring(node):
                continue
            if isinstance(node, ast.ExceptHandler) or _reached(node, lines):
                visit(_children(node))
            else:
                out.append(node)

    visit(tree.body)
    return out


def main():
    executed, log = trace_runs()
    for line in log:
        print(line)
    total = 0
    for path in sorted(PKG.rglob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        missed = unexecuted(ast.parse(source), executed.get(str(path), set()))
        total += len(missed)
        rel = path.relative_to(PKG).as_posix()
        print(f"\n{rel}: {len(missed)} unexecuted statements")
        for node in missed:
            print(f"  {node.lineno}-{node.end_lineno}  "
                  f"{text[node.lineno - 1].strip()}")
    print(f"\ntotal: {total} unexecuted statements")
    return 0


if __name__ == "__main__":
    sys.exit(main())
