"""Acceptance suite: one test per top-level verification requirement.

Each test prints a single PASS/FAIL line via the assert message; the
heavier scenario logic lives in dwlab.harness.experiments and is reused
here rather than duplicated.
"""

import time

import numpy as np
import pytest

from dwlab.dyadic import Truncation
from dwlab.growth import make_growth
from dwlab.harness import run_all, run_experiment
from dwlab.reducing import build_family
from dwlab.seqspace import CoeffSeq, SpaceParams, build_random, seq_norm
from dwlab.weights import (
    MatrixWeight,
    constant_weight,
    diag_power_weight,
    power_weight,
)

V0 = make_growth("power", tau=0.0)


def _assert_passed(report, budget):
    assert report.passed, f"{report.name} FAILED: {report.stats}"
    assert report.wall_time < budget, (
        f"{report.name} took {report.wall_time:.1f}s (budget {budget}s)"
    )


def test_01_averaging_mode_is_exact_identity():
    # averaging-mode norm == unweighted norm of the mapped magnitudes
    # {|A_Q t_Q|}, to relative 1e-12
    t0 = time.monotonic()
    t = Truncation(1, 0, 4, 1)
    weights = {
        1: power_weight(-0.5),
        2: diag_power_weight(-0.5, -0.25),
        3: constant_weight(np.diag([0.5, 1.0, 4.0])),
    }
    combos = [("B", 0.5), ("B", 2.0), ("F", 0.5), ("F", 2.0)]
    seqs_done = 0
    seed = 0
    while seqs_done < 100:
        for m, W in weights.items():
            fam = build_family(W, 2.0, t)
            for family, q in combos:
                pa = SpaceParams(family, 0.0, 2.0, q, V0,
                                 mode="averaging", reducing=fam)
                pu = SpaceParams(family, 0.0, 2.0, q, V0)
                tv = build_random(t, m=m, seed=seed)
                seed += 1
                mapped = CoeffSeq(t, 1)
                for Q, z in tv.entries.items():
                    mapped[Q] = [np.linalg.norm(fam[Q] @ z)]
                a = seq_norm(tv, pa, t)
                b = seq_norm(mapped, pu, t)
                assert abs(a - b) <= 1e-12 * max(a, b, 1e-30), (
                    f"m={m} {family},q={q} seed={seed}: {a} vs {b}"
                )
                seqs_done += 1
    assert time.monotonic() - t0 < 5.0


def test_02_single_point_oracle():
    _assert_passed(run_experiment("SINGLE"), 10.0)


def test_03_reducing_operator_validity():
    t0 = time.monotonic()
    t = Truncation(1, 0, 2, 1)
    # exact p=2 backend: empirical equivalence within [0.999, 1.001]
    for W in (power_weight(-0.5), diag_power_weight(-0.5, -0.25)):
        lo, hi = build_family(W, 2.0, t).equivalence_bounds
        assert 0.999 <= lo and hi <= 1.001, (W.label, lo, hi)
    # MVEE backend: ratio spread within the John-ellipsoid factor 2 sqrt(m)
    def w3(x):
        r = max(np.linalg.norm(x), 1e-300)
        return np.diag([r ** -0.25, 1.0, r ** 0.25])

    weights = {
        2: diag_power_weight(-0.5, -0.25),
        3: MatrixWeight(3, w3, singular_set=[np.zeros(1)], label="diag3"),
    }
    for m, W in weights.items():
        for p in (1.0, 2.0, 4.0):
            fam = build_family(W, p, t, backend="mvee")
            lo, hi = fam.equivalence_bounds
            assert hi / lo <= 2.0 * np.sqrt(m), (m, p, lo, hi)
    assert time.monotonic() - t0 < 30.0


def test_04_averaging_vs_matrix_norm_equivalence():
    _assert_passed(run_experiment("EQ-AW"), 60.0)


def test_05_majorant_norm_equivalence():
    _assert_passed(run_experiment("EQ-GSTAR"), 30.0)


def test_06_almost_diagonal_boundedness_and_necessity():
    rb = run_experiment("AD-BOUND")
    rn = run_experiment("AD-NEC")
    assert rb.passed, rb.stats
    assert rn.passed, rn.stats
    assert rb.wall_time + rn.wall_time < 60.0


def test_07_besov_scale_counterexample():
    r = run_experiment("CEX-B")
    _assert_passed(r, 10.0)
    vals = r.stats["values"]
    # divergent scale beats the harmonic-sum lower bound ~ 1.8216
    lower = float(np.sqrt(sum(1.0 / (j + 1) for j in range(15))))
    assert vals["qq_norm"] >= lower
    assert vals["pq_norm_J14"] <= 2.0 * vals["pq_norm_J7"]


def test_08_weighted_space_invariance():
    _assert_passed(run_experiment("INV-F"), 60.0)


def test_09_sobolev_type_embedding():
    _assert_passed(run_experiment("SOB"), 30.0)


def test_10_transform_round_trips_and_norm_comparability():
    rc = run_experiment("CALDERON")
    rw = run_experiment("WAV-NORM")
    assert rc.passed, rc.stats
    assert rw.passed, rw.stats
    assert rc.wall_time + rw.wall_time < 60.0


def test_11_maximal_and_square_function_characterizations():
    rp = run_experiment("PEETRE")
    rl = run_experiment("LPFUNC")
    assert rp.passed, rp.stats
    assert rl.passed, rl.stats
    assert rp.wall_time + rl.wall_time < 120.0


def test_12_full_verification_run():
    t0 = time.monotonic()
    reports = run_all(seed=0xDAD1C)
    elapsed = time.monotonic() - t0
    failed = [r.name for r in reports if not r.passed]
    assert not failed, f"failed experiments: {failed}"
    assert elapsed < 600.0, f"full run took {elapsed:.0f}s"
