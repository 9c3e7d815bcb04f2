import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dwlab

from dwlab.cli import main
from dwlab.harness import (
    EXPERIMENTS,
    Report,
    emit_report,
    interval_drift,
    ratio_stats,
    run_experiment,
)
from dwlab.harness.report import ReportError


def test_ratio_stats_basic():
    st = ratio_stats([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
    assert st["min"] == 0.5 and st["max"] == 1.5 and st["median"] == 1.0
    assert st["count"] == 3 and st["divergent"] == 0


def test_ratio_stats_zero_handling():
    st = ratio_stats([0.0, 1.0, 4.0], [0.0, 0.0, 2.0])
    assert st["count"] == 1 and st["divergent"] == 1
    assert st["min"] == st["max"] == 2.0
    st = ratio_stats([0.0], [0.0])
    assert st["count"] == 0 and st["min"] is None
    none = {"min": None, "max": None, "median": None, "count": 0}
    assert ratio_stats([0.0, 0.0], [0.0, -0.0]) == {**none, "divergent": 0}
    assert ratio_stats([], []) == {**none, "divergent": 0}
    # every pair divergent, a NaN numerator included
    assert (ratio_stats([1.0, -2.0, np.nan], [0.0, -0.0, 0.0])
            == {**none, "divergent": 3})
    assert ratio_stats([-0.0, 3.0, 1.0, 6.0, 0.0],
                       [0.0, -0.0, 4.0, 2.0, 5.0]) == {
        "min": 0.0, "max": 3.0, "median": 0.25, "count": 3, "divergent": 1}
    assert ratio_stats(np.array([1, 2, 7]), np.array([2, 4, 0])) == {
        "min": 0.5, "max": 0.5, "median": 0.5, "count": 2, "divergent": 1}
    for a, b in (([1.0], [1.0, 2.0]), ([], [1.0]), ([1.0, 2.0], np.ones(3))):
        with pytest.raises(ReportError):
            ratio_stats(a, b)


def test_interval_drift():
    assert interval_drift([(1.0, 2.0)]) == 1.0
    assert interval_drift([(1.0, 2.0), (1.0, 3.0)]) == 1.5
    assert interval_drift([(2.0, 4.0), (1.0, 4.0), (1.0, 4.0)]) == 2.0


def test_emit_report_empty_and_formats():
    text = emit_report([])
    doc = json.loads(text)
    assert doc["results"] == [] and doc["all_passed"] is True
    with pytest.raises(ReportError):
        emit_report([], fmt="xml")


def test_emit_report_csv_rows():
    r = Report(name="X", criterion="c",
               stats={"w1": {"a": 1.0, "b": 2.0}, "w2": 3.0}, passed=True)
    lines = emit_report(r, fmt="csv").strip().splitlines()
    assert lines[0] == "experiment,window,stat,value"
    assert len(lines) == 4


def test_report_serialization_excludes_wall_time():
    r = Report(name="X", criterion="c", passed=True, wall_time=12.3)
    d = r.to_dict()
    assert "wall_time" not in d
    assert d["passed"] is True


def test_reports_are_byte_stable(tmp_path):
    texts = []
    for _ in range(2):
        rep = run_experiment("EMB", seed=0xDAD1C)
        texts.append(emit_report(rep, seed=0xDAD1C))
    assert texts[0] == texts[1]


def test_run_experiment_unknown_name():
    with pytest.raises(ValueError):
        run_experiment("NOPE")
    assert len(EXPERIMENTS) == 14


def test_cli_thresholds_and_norm(capsys):
    rc = main(["thresholds", "--space",
               '{"family": "F", "p": 2, "q": 2}'])
    out = capsys.readouterr().out
    assert rc == 0
    assert "subcritical" in out and "J        1" in out
    cfg = json.dumps({
        "window": {"n": 1, "j_min": 0, "j_max": 2, "root_extent": 1},
        "space": {"family": "B", "s": 0.0, "p": 1, "q": 2},
        "sequence": {"m": 1,
                     "entries": [{"j": 2, "k": [0], "value": [[1.0, 0.0]]}]},
    })
    rc = main(["norm", "--config", cfg])
    out = capsys.readouterr().out.strip()
    assert rc == 0 and abs(float(out) - 0.5) < 1e-12


def _norm_config(space=None, entry=None):
    doc = {
        "window": {"n": 1, "j_min": 0, "j_max": 2, "root_extent": 1},
        "space": {"family": "B", "s": 0.0, "p": 1, "q": 2, **(space or {})},
        "sequence": {"m": 1, "entries": [
            {"j": 2, "k": [0], "value": [[1.0, 0.0]], **(entry or {})}]},
    }
    return json.dumps(doc)


@pytest.mark.parametrize("argv", [
    ["norm", "--config", _norm_config(space={"p": 0})],
    ["norm", "--config", _norm_config(space={"q": "nan"})],
    ["norm", "--config", _norm_config(entry={"j": 3})],  # outside j_max 2
    ["norm", "--config", _norm_config(space={
        "p": 2, "mode": "matrix", "weight": "diag_power:-0.5:-0.25"})],
    ["verify", "EMB", "--seed", "zz"],
    ["norm", "--config", "{not json"],
    ["norm", "--config", '{"window": {"j_min": 0, "j_max": 2}}'],
    ["reduce", "--weight", "bogus:1"],
    ["norm", "--config", "no-such-dir/config.json"],
], ids=["p=0", "q=nan", "entry-outside-window", "2x2-weight-m=1",
        "bad-seed", "malformed-json", "missing-key", "unknown-preset",
        "unreadable-file"])
def test_cli_user_errors_exit_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    cap = capsys.readouterr()
    lines = cap.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("dwlab: error: "), cap.err
    assert cap.out == ""


def test_cli_verify_single_experiment(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    rc = main(["verify", "EMB", "--seed", "0xDAD1C", "--out", str(out_path)])
    out = capsys.readouterr().out
    assert rc == 0 and "PASS  EMB" in out
    doc = json.loads(out_path.read_text())
    assert doc["all_passed"] is True and doc["seed"] == 0xDAD1C


def test_import_loads_no_scipy():
    # scipy submodules cost seconds to import; dwlab imports them lazily
    src = os.path.dirname(os.path.dirname(dwlab.__file__))
    code = ("import sys, dwlab; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert res.stdout.strip() == "[]"


REFERENCE_REPORT = (Path(__file__).resolve().parents[1] / "perfbench"
                    / "reference" / "verify.json")


def _assert_same_tree(got, want, path):
    """Field-by-field comparison of report trees, floats at 1e-10 relative."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for k in want:
            _assert_same_tree(got[k], want[k], f"{path}/{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_tree(g, w, f"{path}/{i}")
    elif isinstance(want, float) and not isinstance(got, bool):
        assert abs(got - want) <= 1e-10 * max(abs(got), abs(want)), \
            f"{path}: {got} != {want}"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", ["SINGLE", "EQ-AW", "INV-F", "FS-GAMMA",
                                  "PEETRE", "LPFUNC", "AD-BOUND", "AD-NEC",
                                  "EQ-GSTAR", "CEX-B", "SOB", "EMB",
                                  "CALDERON", "WAV-NORM"])
def test_weighted_experiments_match_reference_report(name):
    ref = {r["name"]: r
           for r in json.loads(REFERENCE_REPORT.read_text())["results"]}
    got = run_experiment(name, seed=0xDAD1C).to_dict()
    assert got["passed"] is ref[name]["passed"]
    # name, criterion, windows, stats, passed and provenance
    _assert_same_tree(got, ref[name], name)


@pytest.mark.parametrize("name", ["EQ-AW", "INV-F", "PEETRE", "LPFUNC"])
def test_weighted_experiments_reach_no_per_point_weight_callback(
        name, monkeypatch):
    import dwlab.weights as wmod

    def refuse(fn, m):
        def batch(pts):
            raise AssertionError("a per-point weight callback was called")
        return batch

    monkeypatch.setattr(wmod, "_pointwise", refuse)
    assert run_experiment(name, seed=0xDAD1C).passed
