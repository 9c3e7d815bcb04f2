import itertools

import numpy as np
import pytest

from dwlab.adops import (
    ADError,
    ADParams,
    ad_apply,
    ad_entry,
    ad_thresholds,
    majorant,
    molecule_thresholds,
)
from dwlab.dyadic import CubeId, Truncation, cube_geometry, enumerate_cubes
from dwlab.seqspace import CoeffSeq, build_random, build_single_point
from oracles import _entry_matrix, level_cubes

_TH = ad_thresholds(0.0, 2.0, 2.0, "F", 0.0, 0.0, 0.0)
F22 = ADParams(_TH.D_min + 0.25, _TH.E_min + 0.25, _TH.F_min + 0.25)


def test_ad_entry_hand_values():
    # one level finer, concentric at the corner: ratio (1/2)^E
    assert ad_entry(CubeId(1, (0,)), CubeId(0, (0,)), ADParams(5.0, 2.0, 0.0)) == 0.25
    # same level, separation 4: sep^{-D}
    got = ad_entry(CubeId(0, (3,)), CubeId(0, (0,)), ADParams(2.0, 1.0, 1.0))
    assert got == 0.0625
    with pytest.raises(ADError):
        ad_entry(CubeId(0, (0,)), CubeId(0, (0, 0)), ADParams(1.0, 1.0, 1.0))


def test_envelope_with_zero_exponents_spreads_mass():
    t = Truncation(1, 0, 2, 1)
    tv = build_single_point(CubeId(1, (1,)), 3.0, t)
    out = ad_apply(ADParams(0.0, 0.0, 0.0), tv, t)
    for Q in (CubeId(0, (0,)), CubeId(2, (3,))):
        assert abs(out[Q][0] - 3.0) < 1e-15


def test_ad_apply_rejects_an_operator_that_is_not_adparams():
    t = Truncation(1, 0, 1, 1)
    tv = build_single_point(CubeId(1, (0,)), 2.0, t)
    table = {(CubeId(0, (0,)), CubeId(1, (0,))): 0.5}
    for U in (table, [3.0, 2.0, 2.0], 3.0, None):
        for seq in (tv, CoeffSeq(t, 1)):
            with pytest.raises(ADError):
                ad_apply(U, seq, t)


def _assert_matches_dense(U, tv, t):
    out = ad_apply(U, tv, t)
    cubes = enumerate_cubes(t)
    support = list(tv.entries)
    want = _entry_matrix(cubes, support, U) @ np.stack([tv[R] for R in support])
    got = np.stack([out[Q] for Q in cubes])
    assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))


@pytest.mark.parametrize("t, m, U", [
    (Truncation(1, 0, 8, 1), 1, F22),
    (Truncation(1, 0, 9, 1), 1, ADParams(6.0, 3.0, 2.0)),
    (Truncation(1, 2, 7, 3), 2, F22),
    (Truncation(1, 1, 6, 3), 2, ADParams(6.0, 3.0, 2.0)),
    (Truncation(2, 0, 4, 1), 1, ADParams(6.0, 3.0, 2.0)),
    (Truncation(2, 1, 4, 3), 2, F22),
    (Truncation(1, -2, 6, 3), 2, ADParams(6.0, 3.0, 2.0)),
    (Truncation(1, 3, 3, 40), 1, F22),
    (Truncation(2, 2, 2, 5), 2, ADParams(6.0, 3.0, 2.0)),
    (Truncation(3, -1, 1, 2), 2, F22),
])
def test_ad_apply_matches_dense_oracle(t, m, U):
    tv = build_random(t, m=m, seed=17, density=0.3, sigma=0.5)
    _assert_matches_dense(U, tv.magnitudes(), t)  # real, m = 1
    _assert_matches_dense(U, tv, t)  # complex m-vectors


def test_ad_apply_folds_down_to_two_point_levels():
    # level 0 of a 1-d j_max 11 window is transformed on 2 points, and
    # every finer source folds onto it; at D = 6 the sparse sources leave
    # entries below the FFT's absolute error, so D stays at most 3
    t = Truncation(1, 0, 11, 1)
    tv = build_random(t, m=1, seed=23, density=0.02, sigma=0.5)
    for U in (F22, ADParams(3.0, 3.0, 2.0)):
        _assert_matches_dense(U, tv.magnitudes(), t)
        _assert_matches_dense(U, tv, t)


@pytest.mark.parametrize("t", [Truncation(1, 0, 9, 1), Truncation(2, -1, 3, 3)])
def test_ad_apply_transforms_each_level_at_most_twice(t, monkeypatch):
    tv = build_random(t, seed=5, density=0.5).magnitudes()
    ad_apply(F22, tv, t)  # kernel spectra cached
    calls = []

    def counting(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn",
                 "irfftn", "fft2", "ifft2", "rfft2", "irfft2"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    ad_apply(F22, tv, t)
    levels = t.j_max - t.j_min + 1
    assert 0 < len(calls) <= 2 * levels, calls


def test_ad_apply_single_point_and_empty():
    t = Truncation(1, 0, 6, 1)
    _assert_matches_dense(
        F22, build_single_point(CubeId(3, (5,)), 2.0 - 1.0j, t), t)
    t2 = Truncation(2, 1, 4, 3)
    _assert_matches_dense(
        F22, build_single_point(CubeId(2, (0, -2)), 1.5, t2), t2)
    assert len(ad_apply(F22, CoeffSeq(t, 2), t)) == 0


def test_ad_apply_rejects_cubes_outside_window():
    t = Truncation(1, 0, 3, 1)
    with pytest.raises(ADError):
        ad_apply(F22, build_single_point(CubeId(4, (0,)), 1.0,
                                         Truncation(1, 0, 4, 1)), t)
    with pytest.raises(ADError):
        majorant(build_single_point(CubeId(1, (0, 0)), 1.0,
                                    Truncation(2, 0, 1, 1)), 2.0, 1.0, t)


def test_ad_apply_and_majorant_need_the_sequence_window():
    t = Truncation(1, 0, 3, 1)
    for other in (Truncation(1, 0, 3, 2), Truncation(1, 1, 3, 1)):
        tv = build_random(other, seed=1, density=0.5)
        for call in (lambda: ad_apply(F22, tv, t),
                     lambda: ad_apply({}, tv, t),
                     lambda: majorant(tv, 2.0, 1.0, t),
                     lambda: ad_apply(F22, CoeffSeq(other, 1), t)):
            with pytest.raises(ADError):
                call()


def test_thresholds_f22_unweighted():
    th = ad_thresholds(0.0, 2.0, 2.0, "F", 0.0, 0.0, 0.0)
    assert th.regime == "subcritical"
    assert (th.J, th.D_min, th.E_min, th.F_min) == (1.0, 1.0, 0.5, 0.5)


def test_thresholds_regimes():
    th = ad_thresholds(0.0, 2.0, 2.0, "B", 1.0, 1.0, 0.0)
    assert th.regime == "supercritical" and th.J == 1.0
    th = ad_thresholds(0.0, 2.0, 2.0, "F", 0.5, 0.5, 0.0)
    assert th.regime == "critical" and th.J == 1.0 / min(1.0, 2.0)
    th = ad_thresholds(0.0, 0.5, 0.25, "F", 0.0, 0.0, 0.0)
    assert th.regime == "subcritical" and th.J == 4.0


def test_thresholds_regime_switch_at_delta1_equal_one_over_p():
    # at p = 3, 1 - 2/3 rounds one ulp above 1/3: the same delta
    assert 1.0 - 2.0 / 3.0 != 1.0 / 3.0
    for family, q, regime in (("F", 2.0, "critical"),
                              ("F", np.inf, "supercritical"),
                              ("B", 2.0, "subcritical")):
        got = [ad_thresholds(0.0, 3.0, q, family, d, d, 0.0)
               for d in (1.0 / 3.0, 1.0 - 2.0 / 3.0)]
        a, b = got
        assert a.regime == b.regime == regime and a.J == b.J, family
        assert abs(a.F_min - b.F_min) <= 1e-12 and a.D_min == b.D_min
    above = ad_thresholds(0.0, 3.0, 2.0, "F", 1.0 / 3.0 + 1e-9, 0.5, 0.0)
    assert above.regime == "supercritical"


def test_kernel_spectra_are_shared_read_only():
    from dwlab.adops import _kernel_hat

    t = Truncation(1, 0, 6, 1)
    tv = build_random(t, seed=4, density=0.5)
    first = ad_apply(F22, tv, t)
    h = _kernel_hat(8, 1, 2, F22.D)
    assert h is _kernel_hat(8, 1, 2, F22.D) and not h.flags.writeable
    with pytest.raises(ValueError):
        h[0] = 0.0
    again = ad_apply(F22, tv, t)
    for j, a in first.levels.items():
        assert np.array_equal(again.levels[j], a)


def test_majorant_spectrum_is_the_zeroed_kernel_and_is_shared():
    from dwlab.adops import _kernel_hat

    # majorant adds the o = 0 term exactly, so its cached spectrum is that
    # of the kernel (1 + |o|)^{-lam r} with the origin zeroed, bit for bit
    for L, n, lam_r in ((16, 1, 2.5), (8, 2, 3.0)):
        o = np.fft.fftfreq(L, 1.0 / L)
        grids = np.meshgrid(*([o] * n), indexing="ij", sparse=True)
        K = (1.0 + np.sqrt(sum(g * g for g in grids))) ** (-lam_r)
        full = np.fft.rfftn(K)
        K.flat[0] = 0.0
        h = _kernel_hat(L, n, 0, lam_r, False)
        assert np.array_equal(h, np.fft.rfftn(K))
        assert h is _kernel_hat(L, n, 0, lam_r, False) and not h.flags.writeable
        assert np.array_equal(_kernel_hat(L, n, 0, lam_r), full)


def test_thresholds_shift_in_s():
    a = ad_thresholds(0.0, 2.0, 2.0, "F", 0.0, 0.0, 0.0)
    b = ad_thresholds(1.0, 2.0, 2.0, "F", 0.0, 0.0, 0.0)
    assert b.E_min - a.E_min == 1.0
    assert a.F_min - b.F_min == 1.0
    assert a.D_min == b.D_min


def test_thresholds_weighted_zero_dimensions_match_unweighted():
    """Unweighted thresholds are the weighted ones at (0, 0): both equal,
    bit for bit, the unweighted formulas D > J + min(omega, n(delta2 -
    1/p)_+), E > n/2 + s + n(delta2 - 1/p)_+, F > J - n/2 - s - n(delta1
    - 1/p)_+, over deltas at, within 1e-12 of, and away from 1/p."""
    pos = lambda x: max(x, 0.0)
    hexes = lambda xs: [float(x).hex() for x in xs]
    cases = 0
    for p, q, family, n in itertools.product(
            (0.5, 1.0, 2.0, 3.0, np.inf), (0.5, 2.0, np.inf), "BF", (1, 2)):
        inv_p = 0.0 if np.isinf(p) else 1.0 / p
        deltas = [inv_p + o for o in (-0.25, -1e-13, 0.0, 1e-13, 0.25, 0.75)]
        for d1, d2 in itertools.combinations_with_replacement(deltas, 2):
            for omega in (0.0, n * (d2 - d1) / 2, n * (d2 - d1)):
                args = (0.3, p, q, family, d1, d2, omega, n)
                a = ad_thresholds(*args)
                b = ad_thresholds(*args, weighted=(0.0, 0.0))
                want = hexes((a.J + min(omega, n * pos(d2 - inv_p)),
                              n / 2.0 + 0.3 + n * pos(d2 - inv_p),
                              a.J - n / 2.0 - 0.3 - n * pos(d1 - inv_p)))
                for th in (a, b):
                    assert hexes((th.D_min, th.E_min, th.F_min)) == want, args
                assert ((a.J, a.regime, a.weighted, b.weighted)
                        == (b.J, b.regime, False, True))
                cases += 1
    assert cases == 3780


def test_thresholds_weighted_upper_dimension_shifts_f():
    p = 2.0
    a = ad_thresholds(0.0, p, 2.0, "F", 0.0, 0.0, 0.0, weighted=(0.0, 0.0))
    b = ad_thresholds(0.0, p, 2.0, "F", 0.0, 0.0, 0.0, weighted=(0.0, p))
    assert b.F_min - a.F_min == 1.0
    assert b.D_min - a.D_min == 1.0
    assert b.E_min == a.E_min


def test_thresholds_validation():
    with pytest.raises(ADError):
        ad_thresholds(0.0, 2.0, 2.0, "F", 0.5, 0.25, 0.0)
    with pytest.raises(ADError):
        ad_thresholds(0.0, 2.0, 2.0, "F", 0.0, 0.0, 1.0)
    with pytest.raises(ADError):
        ad_thresholds(0.0, 2.0, 2.0, "G", 0.0, 0.0, 0.0)
    with pytest.raises(ADError):
        ad_thresholds(0.0, 2.0, 2.0, "F", 0.0, 0.0, 0.0, weighted=(1.5, 0.0))


def test_majorant_hand_values():
    t = Truncation(1, 0, 1, 1)
    tv = build_single_point(CubeId(1, (0,)), 1.0, t)
    out = majorant(tv, 1.0, 2.0, t)
    # neighbor one cell away: (1 + 1)^{-2} = 0.25
    assert abs(out[CubeId(1, (1,))][0] - 0.25) < 1e-15
    with pytest.raises(ADError):
        majorant(tv, 0.0, 2.0, t)


@pytest.mark.parametrize("r, lam", [
    (np.inf, 2.0), (np.nan, 2.0), (-1.0, 2.0),
    (2.0, np.nan), (2.0, np.inf), (2.0, 0.0), (2.0, -1.0),
])
def test_majorant_needs_finite_positive_exponents(r, lam):
    # the majorant is defined for 0 < r < inf (Frazier-Jawerth 1990)
    t = Truncation(1, 0, 3, 1)
    tv = build_random(t, seed=2, density=0.5)
    with pytest.raises(ADError):
        majorant(tv, r, lam, t)


def test_majorant_dominates_sequence():
    t = Truncation(1, 0, 3, 1)
    tv = build_random(t, m=1, seed=4, density=0.5)
    out = majorant(tv, 2.0, 3.0, t)
    for Q, z in tv.entries.items():
        assert out[Q][0] >= abs(z[0]) - 1e-12


def _majorant_brute(tv, r, lam, t):
    want = {}
    for j in {R.j for R in tv.entries}:
        for Q in level_cubes(t, j):
            xq, ell, _ = cube_geometry(Q)
            terms = [
                np.linalg.norm(z)
                / (1.0 + np.linalg.norm(xq - cube_geometry(R)[0]) / ell) ** lam
                for R, z in tv.entries.items() if R.j == j
            ]
            want[Q] = sum(x**r for x in terms) ** (1.0 / r)
    return want


@pytest.mark.parametrize("t, m", [
    (Truncation(1, 0, 7, 1), 1),
    (Truncation(1, 2, 6, 3), 2),
    (Truncation(2, 1, 4, 3), 1),
])
@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_majorant_matches_brute_force(t, m, r):
    tv = build_random(t, m=m, seed=9, density=0.3, sigma=-0.5)
    lam = 1.0 / min(r, 1.0) + 0.25
    out = majorant(tv, r, lam, t)
    want = _majorant_brute(tv, r, lam, t)
    assert set(out.entries) == set(want)
    for Q, v in want.items():
        assert abs(out[Q][0] - v) <= 1e-10 * v


def compose_check(p1, p2, t):
    """Brute-force composition constant over the window: with D1 = D2 the
    composed kernel should be dominated by the envelope of (D1, min E,
    min F); returns (C, claimed) with C the worst ratio of
    sum_P u1_{Q,P} u2_{P,R} to the claimed envelope entry."""
    claimed = ADParams(p1.D, min(p1.E, p2.E), min(p1.F, p2.F))
    cubes = enumerate_cubes(t)
    U1, U2, Uc = (_entry_matrix(cubes, cubes, u) for u in (p1, p2, claimed))
    return float(np.max((U1 @ U2) / Uc)), claimed


def test_compose_check_bounded_constant():
    t = Truncation(1, 0, 3, 1)
    C, claimed = compose_check(ADParams(3.0, 2.0, 2.0), ADParams(3.0, 2.0, 2.0), t)
    assert claimed == ADParams(3.0, 2.0, 2.0)
    assert 1.0 <= C <= 50.0


def test_molecule_thresholds_f22():
    th = ad_thresholds(0.0, 2.0, 2.0, "F", 0.0, 0.0, 0.0)
    mol = molecule_thresholds(th)
    K, L, M, N = mol.analysis
    assert (K, L, M, N) == (1.0, 0.0, 1.0, 0.0)
    assert mol.synthesis == (1.0, 0.0, 1.0, 0.0)
    assert mol.k_min == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_molecule_thresholds_read_the_dimension_of_the_thresholds(n):
    th = ad_thresholds(0.5, 1.0, 2.0, "B", 0.0, 0.0, 0.0, n=n)
    assert th.n == n
    D, E, F = th.D_min, th.E_min, th.F_min
    mol = molecule_thresholds(th)
    assert mol.analysis == (max(D, E + n / 2), E - n / 2, D, F - n / 2)
    assert mol.synthesis == (max(D, F + n / 2), F - n / 2, D, E - n / 2)
    assert mol.k_min == int(np.floor(max(E, F) - n / 2)) + 1
    if n == 3:  # the documented example: (3.5, 0.5, 3, -0.5), k_min 1
        assert (mol.analysis, mol.k_min) == ((3.5, 0.5, 3.0, -0.5), 1)
