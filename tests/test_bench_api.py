"""The benchmark workloads still run against the library.

One smoke-size set-up, pass and output check of each workload in
``perfbench/workloads.py``, in process: a library change that breaks a
call the benchmark makes (a removed function, keyword or mode) fails
here, without the subprocess runs of ``perfbench/run.py --smoke``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_smoke_pass_has_no_failed_operation(name):
    setup, run_pass = workloads.WORKLOADS[name]
    inp = setup(workloads.DEFAULT_SEED, workloads.SIZES["smoke"])
    ops = workloads.Ops()
    run_pass(inp, ops)
    ops.run_checks()
    assert ops.attempted > 0
    assert not ops.failures, "\n".join(f"{op}: {msg}"
                                       for op, msg in ops.failures.items())
