import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import dwlab
from dwlab import reducing
from dwlab.cli import main

# growth configs that once ended in a traceback or a silent number
GROWTH_FAULTS = [{"kind": "length", "g": 1, "p": 2},
                 {"kind": "weight_power", "field": 1, "tau": 1},
                 {"kind": "power", "tau": 1, "bogus": 3}]
BAD_NUMBERS = [0, -1, math.nan, math.inf, -math.inf, "nan", "abc", None, [1]]
# (section, key) -> invalid values; ``...`` deletes the key
FAULTS = {
    ("window", "n"): [3, 0, "x", ...],
    ("window", "j_min"): [-1, 5, 1.5, ...],
    ("window", "j_max"): [-1, "x", ...],
    ("window", "root_extent"): [0, -1, "x", [2]],
    ("space", "family"): ["X", 3, None, ...],
    ("space", "s"): BAD_NUMBERS[2:],
    ("space", "p"): BAD_NUMBERS + [...],
    ("space", "q"): BAD_NUMBERS + [...],
    ("space", "mode"): ["bogus", None, 1],
    ("space", "weight"): ["power:-1", "power:x", "diag_power:-0.5",
                          "constant:1,-1", "bogus", 7, [1],
                          {"preset": "diag_power", "alpha": -0.5},
                          {"preset": "identity", "m": "2x"}, {"alpha": 1},
                          "identity:3", ...],
    ("space", "nodes_per_cell"): [0, -2, "a", [1]],
    ("space", "growth"): [{"kind": "bogus"}, {"kind": "power", "tau": "x"},
                          {"kind": "power", "bogus": 1}, "power", {},
                          {"kind": [1]}, *GROWTH_FAULTS],
    ("sequence", "m"): [0, 3, -1, "two"],
    ("sequence", "entries"): [None, 3, [[]], [{"j": 0}],
                              [{"j": 9, "k": [0], "value": [1]}],
                              [{"j": 0, "k": [-1], "value": [1]}],
                              [{"j": 0, "k": 0, "value": 1}],
                              [{"j": 0, "k": [0, 0, 0], "value": [1]}],
                              [{"j": 0, "k": [0], "value": [[1, 2, 3]]}],
                              [{"j": 0, "k": [0], "value": [1, 2, 3]}], ...],
}
# weight presets with their size m
WEIGHTS = [("identity", 1), ("identity:2", 2), ("power:-0.5", 1),
           ("diag_power:-0.5:-0.25", 2), ("constant:1,2", 2),
           ({"preset": "power", "alpha": -0.5}, 1),
           ({"preset": "constant", "diag": [1.0, 2.0]}, 2)]


@st.composite
def norm_configs(draw):
    """A valid `dwlab norm` config, then at most one field made invalid."""
    n = draw(st.sampled_from([1, 1, 2]))
    j_min = draw(st.integers(0, 1))
    j_max = j_min + draw(st.integers(0, 3 - n))
    root = draw(st.sampled_from([1, 2]))
    weight, m = draw(st.sampled_from(WEIGHTS))
    mode = draw(st.sampled_from(["unweighted", "averaging", "matrix"]))
    p = 2 if mode == "averaging" else draw(st.sampled_from([0.5, 1, 2, 4]))
    entries = []
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(j_min, j_max))
        k = [draw(st.integers(0, root * 2**j - 1)) for _ in range(n)]
        value = [[draw(st.sampled_from([1.0, -2.5, 0.0])), 0.5]
                 for _ in range(m)]
        entries.append({"j": j, "k": k, "value": value})
    cfg = {
        "window": {"n": n, "j_min": j_min, "j_max": j_max,
                   "root_extent": root},
        "space": {"family": draw(st.sampled_from(["B", "F"])),
                  "s": draw(st.sampled_from([-1.0, 0.0, 0.5])), "p": p,
                  "q": draw(st.sampled_from([0.5, 1, 2, "inf"])),
                  "mode": mode, "weight": weight},
        "sequence": {"m": m, "entries": entries},
    }
    fault = draw(st.sampled_from([None, *FAULTS]))
    if fault is not None:
        section, key = fault
        bad = draw(st.sampled_from(FAULTS[fault]))
        if bad is ...:
            cfg[section].pop(key, None)
        else:
            cfg[section][key] = bad
    return cfg


def _run_main(argv):
    """main(argv) -> (status, stdout, stderr); any escaping exception is a
    traceback and fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(norm_configs())
def test_norm_config_fuzz_gives_a_number_or_one_error_line(cfg):
    status, out, err = _run_main(["norm", "--config", json.dumps(cfg)])
    if status == 0:
        assert err == "" and math.isfinite(float(out)) and float(out) >= 0
    else:
        lines = err.strip().splitlines()
        assert status == 2 and out == "", (status, out, err)
        assert len(lines) == 1 and lines[0].startswith("dwlab: error: "), err


@pytest.mark.parametrize("growth", GROWTH_FAULTS)
def test_growth_config_faults_give_one_error_line(growth):
    cfg = {"window": {"n": 1, "j_min": 0, "j_max": 2},
           "space": {"family": "B", "p": 2, "q": 2, "growth": growth},
           "sequence": {"entries": [{"j": 1, "k": [1], "value": [1.0]}]}}
    status, out, err = _run_main(["norm", "--config", json.dumps(cfg)])
    lines = err.strip().splitlines()
    assert status == 2 and out == "", (status, out, err)
    assert len(lines) == 1 and lines[0].startswith("dwlab: error: "), err


@pytest.mark.parametrize("space", [
    {"s": 10**400}, {"q": -10**400}, {"growth": {"kind": "power",
                                                 "tau": 10**400}},
    {"mode": "matrix", "weight": {"preset": "constant", "diag": [1, 10**400]}},
])
def test_norm_huge_integers_give_one_error_line(space):
    # a JSON integer beyond the float range once ended in an
    # OverflowError traceback from float()
    cfg = {"window": {"n": 1, "j_min": 0, "j_max": 2},
           "space": {"family": "B", "p": 2, "q": 2, **space},
           "sequence": {"entries": [{"j": 1, "k": [1], "value": [1.0]}]}}
    status, out, err = _run_main(["norm", "--config", json.dumps(cfg)])
    lines = err.strip().splitlines()
    assert status == 2 and out == "", (status, out, err)
    assert len(lines) == 1 and lines[0].startswith("dwlab: error: "), err
    assert "digits is beyond the float range" in lines[0], err


@pytest.mark.parametrize("key,value", [("j_max", 2.5), ("root_extent", 1.5),
                                       ("n", True), ("j_min", "0")])
def test_non_integer_window_fields_give_one_error_line(key, value):
    # int() once made these a silent window: exit 0, printing 0.5
    cfg = {"window": {"n": 1, "j_min": 0, "j_max": 2, key: value},
           "space": {"family": "B", "p": 2, "q": 2},
           "sequence": {"entries": [{"j": 1, "k": [1], "value": [0.5]}]}}
    status, out, err = _run_main(["norm", "--config", json.dumps(cfg)])
    lines = err.strip().splitlines()
    assert status == 2 and out == "", (status, out, err)
    assert len(lines) == 1 and lines[0].startswith("dwlab: error: "), err
    assert f"{key} must be an integer" in lines[0], err


def _norm_config(space=None, sequence=None, entry=None):
    return {"window": {"n": 1, "j_min": 0, "j_max": 2},
            "space": {"family": "B", "p": 2, "q": 2, **(space or {})},
            "sequence": {"entries": [{"j": 1, "k": [1], "value": [0.5],
                                      **(entry or {})}],
                         **(sequence or {})}}


INTEGER_FIELDS = [
    (["norm", "--config", _norm_config(sequence={"m": 1.5})], "m"),
    (["norm", "--config", _norm_config(entry={"j": 1.9})], "j"),
    (["norm", "--config", _norm_config(entry={"k": [1.7]})], "k"),
    (["norm", "--config", _norm_config(space={"nodes_per_cell": 2.7})],
     "nodes_per_cell"),
    (["norm", "--config", _norm_config(space={
        "mode": "matrix", "weight": {"preset": "identity", "m": 1.0}})], "m"),
    (["norm", "--config", _norm_config(space={
        "mode": "matrix", "weight": {"preset": "power", "alpha": -0.5,
                                     "n": True}})], "n"),
    (["transform", "dwt", "--in", {"N": 8.9, "values": [1.0] * 8}], "N"),
    (["transform", "phi", "--in", {"n": 1.0, "N": 8, "values": [1.0] * 8}],
     "n"),
    (["thresholds", "--space", {"family": "F", "p": 2, "q": 2, "n": 1.5}],
     "n"),
]


@pytest.mark.parametrize("argv,key", INTEGER_FIELDS, ids=[
    "sequence.m", "entry.j", "entry.k", "space.nodes_per_cell", "weight.m",
    "weight.n", "grid.N", "grid.n", "thresholds.n"])
def test_non_integer_config_fields_give_one_error_line(argv, key):
    # int() once truncated each of these and printed a result with exit 0
    status, out, err = _run_main(argv[:-1] + [json.dumps(argv[-1])])
    lines = err.strip().splitlines()
    assert status == 2 and out == "", (status, out, err)
    assert len(lines) == 1, err
    assert lines[0].startswith(f"dwlab: error: {key} must be an integer"), err


def test_colon_weight_presets_keep_their_digits():
    cfg = _norm_config(space={"mode": "matrix", "weight": "identity:2"},
                       sequence={"m": 2}, entry={"value": [0.5, 0.0]})
    status, out, err = _run_main(["norm", "--config", json.dumps(cfg)])
    assert (status, err) == (0, "") and float(out) == 0.5, (status, out, err)


def test_closed_stdout_ends_quietly():
    # ~380 kB of JSON: more than a pipe holds, so the write must meet the
    # closed end
    src = os.path.dirname(os.path.dirname(dwlab.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dwlab.cli", "reduce",
         "--weight", "diag_power:-0.5:-0.25", "--j-max", "9"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141 and err == b""


def test_reduce_mvee_reports_convergence(monkeypatch):
    argv = ["reduce", "--weight", "diag_power:-0.5:-0.25", "--p", "1",
            "--backend", "mvee", "--j-max", "1"]
    status, out, _ = _run_main(argv)
    rep = json.loads(out)["mvee"]
    assert status == 0 and rep["capped"] is False
    assert type(rep["iterations"]) is int
    assert 0 < rep["iterations"] < reducing.MVEE_MAX_ITERS
    assert float(rep["gap"]) <= reducing.MVEE_TOL
    monkeypatch.setattr(reducing, "MVEE_MAX_ITERS", 3)
    status, out, _ = _run_main(argv)
    rep = json.loads(out)["mvee"]
    assert status == 0 and rep["capped"] is True and rep["iterations"] == 3
    assert float(rep["gap"]) > reducing.MVEE_TOL
    status, out, _ = _run_main(argv[:3] + argv[-2:])  # exact: no solver block
    assert status == 0 and "mvee" not in json.loads(out)


GRID16 = json.dumps({"n": 1, "N": 16,
                     "values": [[float(i % 3), 0.0] for i in range(16)]})


@pytest.mark.parametrize("argv", [["dwt", "--levels", "0"],
                                  ["dwt", "--levels", "-1"],
                                  ["phi", "--levels", "4"],
                                  ["phi", "--levels", "3"],
                                  ["phi", "--filter-k", "2"]])
def test_transform_levels_faults_give_one_error_line(argv):
    # dwt levels below 1 once gave the full depth or no details; phi's
    # level count is fixed by N and it uses no wavelet filter, so
    # --levels and --filter-k apply to dwt only
    status, out, err = _run_main(["transform", argv[0], "--in", GRID16]
                                 + argv[1:])
    lines = err.strip().splitlines()
    assert status == 2 and out == "", (status, out, err)
    assert len(lines) == 1 and lines[0].startswith("dwlab: error: "), err


@pytest.mark.parametrize("kind", ["dwt", "phi"])
def test_transform_of_a_2d_grid_gives_one_error_line(kind):
    grid = json.dumps({"n": 2, "N": 8, "values": [0.0] * 64})
    status, out, err = _run_main(["transform", kind, "--in", grid])
    assert status == 2 and out == "", (status, out, err)
    assert err.strip() == ("dwlab: error: only n = 1 is supported, "
                           "got n = 2"), err


BAD_ENTRIES = [[1.0, 0.0, 5.0], [1.0], [], ["1", "2"], "1+2j", True, None,
               [[1.0, 0.0]]]


@pytest.mark.parametrize("entry", BAD_ENTRIES, ids=[
    "triple", "single", "empty", "strings", "string", "bool", "null", "nested"])
@pytest.mark.parametrize("command", ["norm", "dwt"])
def test_complex_entry_faults_give_one_error_line(command, entry):
    # [re, im, 5] once dropped the 5 and printed a number, [re] ended in
    # an IndexError traceback
    if command == "norm":
        cfg = {"window": {"n": 1, "j_min": 0, "j_max": 2},
               "space": {"family": "B", "p": 2, "q": 2},
               "sequence": {"entries": [{"j": 1, "k": [1],
                                         "value": [entry]}]}}
        argv = ["norm", "--config", json.dumps(cfg)]
    else:
        grid = {"n": 1, "N": 16, "values": [entry] + [0.0] * 15}
        argv = ["transform", "dwt", "--in", json.dumps(grid)]
    status, out, err = _run_main(argv)
    lines = err.strip().splitlines()
    assert status == 2 and out == "", (status, out, err)
    assert lines == [f"dwlab: error: a complex entry is a number or an "
                     f"[re, im] pair, got {json.dumps(entry)}"], err


def test_complex_entries_take_numbers_and_pairs():
    cfg = {"window": {"n": 1, "j_min": 0, "j_max": 2},
           "space": {"family": "B", "p": 2, "q": 2},
           "sequence": {"entries": [{"j": 1, "k": [1], "value": [3]}]}}
    norms = []
    for value in ([3], [3.0], [[3, 0]], [[0.0, -3.0]]):
        cfg["sequence"]["entries"][0]["value"] = value
        status, out, _ = _run_main(["norm", "--config", json.dumps(cfg)])
        assert status == 0
        norms.append(out)
    assert len(set(norms)) == 1, norms
    grid = json.loads(GRID16)
    plain = dict(grid, values=[v[0] for v in grid["values"]])
    got = [_run_main(["transform", "dwt", "--in", json.dumps(g)])
           for g in (grid, plain)]
    assert got[0] == got[1] and got[0][0] == 0


def test_thresholds_molecule_table_uses_the_space_dimension():
    space = json.dumps({"family": "B", "p": 1, "q": 2, "s": 0.5, "n": 3})
    status, out, _ = _run_main(["thresholds", "--space", space])
    assert status == 0
    assert "analysis molecule (K, L, M, N) > 3.5, 0.5, 3, -0.5" in out, out
    assert "wavelet smoothness k_min = 1" in out, out


def test_transform_levels_in_range():
    status, out, _ = _run_main(["transform", "dwt", "--in", GRID16,
                                "--levels", "1"])
    assert status == 0 and list(json.loads(out)["details"]) == ["3"]
    assert json.loads(out)["filter_k"] == 4  # the dwt default
    status, out, _ = _run_main(["transform", "dwt", "--in", GRID16,
                                "--filter-k", "2"])
    assert status == 0 and json.loads(out)["filter_k"] == 2
    status, out, _ = _run_main(["transform", "phi", "--in", GRID16])
    assert status == 0 and json.loads(out)["kind"] == "phi"


THRESHOLD_SPACE = {"p": 2, "q": 2, "family": "B"}


@pytest.mark.parametrize("fault,named", [
    ({"p": 0, "q": 1}, "p must"), ({"q": 0, "family": "F"}, "q must"),
    ({"p": -2}, "p must"), ({"q": math.nan}, "q must"), ({"n": 0}, "n >="),
    ({"s": math.nan}, "s must"), ({"delta1": math.nan}, "delta1 must"),
    ({"omega": math.inf}, "omega must"), ({"family": 3}, "family"),
    ({"p": [1]}, "malformed"), ({"weighted": 3}, "malformed"),
    ({"s": 10**400}, "10000000... of 401 digits"),
    ({"n": -10**400}, "-1000000... of 402 digits"),
])
def test_threshold_faults_give_one_error_line(fault, named):
    # p = 0 and q = 0 once ended in a ZeroDivisionError traceback, p = -2
    # and n = 0 printed a table, s = NaN failed inside numpy, and a list
    # for p ended in a TypeError traceback
    space = json.dumps(dict(THRESHOLD_SPACE, **fault))
    status, out, err = _run_main(["thresholds", "--space", space])
    lines = err.strip().splitlines()
    assert status == 2 and out == "", (status, out, err)
    assert len(lines) == 1 and lines[0].startswith("dwlab: error: "), err
    assert named in lines[0], err


@pytest.mark.parametrize("argv,named", [
    (["--weight", "identity:2", "--p=0", "--backend", "mvee"], "p must"),
    (["--weight", "identity:2", "--p=-1", "--backend", "mvee"], "p must"),
    (["--weight", "identity:2", "--p=inf", "--backend", "mvee"], "finite p"),
    (["--weight", "identity:2", "--p=nan", "--backend", "mvee"], "p must"),
    (["--weight", "identity:0"], "m >= 1"),
])
def test_reduce_faults_give_one_error_line(argv, named):
    # p = 0 once ended in a ZeroDivisionError traceback, p = -1 and
    # p = inf wrote operators, and m = 0 failed inside numpy
    status, out, err = _run_main(["reduce", *argv, "--j-max", "1"])
    lines = err.strip().splitlines()
    assert status == 2 and out == "", (status, out, err)
    assert len(lines) == 1 and lines[0].startswith("dwlab: error: "), err
    assert named in lines[0], err


def test_an_overflowing_weight_power_gives_one_error_line():
    # W^{1/p} = W^2 overflows: this printed a norm of 0 and exited 0
    cfg = {"window": {"n": 1, "j_min": 0, "j_max": 2},
           "space": {"family": "B", "p": 0.5, "q": 2, "mode": "matrix",
                     "weight": "constant:1e200,1"},
           "sequence": {"m": 2, "entries": [{"j": 0, "k": [0],
                                             "value": [1.0, 0.0]}]}}
    status, out, err = _run_main(["norm", "--config", json.dumps(cfg)])
    lines = err.strip().splitlines()
    assert status == 2 and out == "", (status, out, err)
    assert len(lines) == 1 and "overflows" in lines[0], err


@pytest.mark.parametrize("p", [math.nan, 0, -1.0, "2"])
def test_weight_statistics_reject_bad_exponents(p):
    # estimate_dimensions once raised LinAlgError at p = NaN, and
    # apinf_characteristic let NaN past its p <= 0 check
    W, t = dwlab.diag_power_weight(-0.5, -0.25), dwlab.Truncation(1, 0, 4, 1)
    for stat in (dwlab.estimate_dimensions, dwlab.apinf_characteristic):
        with pytest.raises(dwlab.DwlabError):
            stat(W, p, t)


@pytest.mark.parametrize("seed", ["-1", "-5", "zz", "1.5"])
def test_verify_names_the_seed_option_in_its_error(seed, capsys):
    assert main(["verify", "EMB", "--seed", seed]) == 2
    cap = capsys.readouterr()
    assert cap.err.strip() == ("dwlab: error: --seed must be a non-negative "
                               f"integer, got {seed}")
    assert cap.out == ""
