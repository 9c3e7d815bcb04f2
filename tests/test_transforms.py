import tracemalloc

import numpy as np
import pytest

from dwlab import transforms

from dwlab.adops import ADParams, ad_entry
from dwlab.dyadic import CubeId, Truncation
from dwlab.seqspace import CoeffSeq
from dwlab.transforms import (
    DB_FILTERS,
    GridFunction,
    TransformError,
    WaveletCoeffs,
    build_lp_window,
    direct_weighted_field,
    dwt_analyze,
    dwt_synthesize,
    peetre_maximal,
    phi_analyze,
    phi_synthesize,
    square_functions,
)
from dwlab.weights import (MatrixWeight, diag_power_weight, identity_weight,
                           power_weight)


def _random_grid(N, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    return GridFunction(1, N, v)


def test_lp_window_profiles_nonnegative_and_disjoint():
    w = build_lp_window(128)
    for j in w.levels:
        assert np.all(w.phi_hat[j] >= 0.0)
        assert np.all(np.isreal(w.phi_hat[j]))
        for jp in w.levels:
            if abs(j - jp) >= 2:
                assert np.max(w.phi_hat[j] * w.phi_hat[jp]) == 0.0


def test_lp_window_exact_partition_on_covered_band():
    w = build_lp_window(256)
    total = sum(w.phi_hat[j] * w.psi_hat[j] for j in w.levels)
    assert np.max(np.abs(total[w.covered] - 1.0)) < 1e-12
    assert np.max(np.abs(total[~w.covered])) == 0.0


def test_lp_window_validation():
    with pytest.raises(TransformError):
        build_lp_window(100)
    with pytest.raises(TransformError):
        build_lp_window(4)


def test_single_mode_coefficients_stay_in_their_octave():
    N = 64
    w = build_lp_window(N)
    x = np.arange(N) / N
    f = GridFunction(1, N, np.exp(2j * np.pi * 12 * x))  # octave of level 4
    tv = phi_analyze(f, w)
    for Q, z in tv.entries.items():
        if abs(Q.j - 4) >= 2:
            assert np.max(np.abs(z)) < 1e-12


def test_band_limited_round_trip_is_exact():
    N = 128
    w = build_lp_window(N)
    rng = np.random.default_rng(2)
    vals2 = rng.standard_normal((N, 2)) + 1j * rng.standard_normal((N, 2))
    for raw in (_random_grid(N, seed=2), GridFunction(1, N, vals2, m=2)):
        # project onto the covered band, where the round trip is exact
        fhat = np.fft.fft(raw.values, axis=0)
        fhat[~w.covered] = 0.0
        f = GridFunction(1, N, np.fft.ifft(fhat, axis=0), m=raw.m)
        g = phi_synthesize(phi_analyze(f, w), w)
        assert g.m == f.m
        rel = np.max(np.abs(g.values - f.values)) / np.max(np.abs(f.values))
        assert rel < 1e-12


def test_phi_coefficients_live_on_the_unit_window():
    N = 64
    w = build_lp_window(N)
    tv = phi_analyze(_random_grid(N, seed=4), w)
    assert tv.t == Truncation(1, 0, w.J - 1, 1) and tv.m == 1
    assert not tv.levels[0].any()
    for j in w.levels:
        assert tv.levels[j].shape == (1 << j, 1) and tv.levels[j].all()
    bad = CoeffSeq(Truncation(1, 0, w.J, 1), 1)
    bad[CubeId(w.J, (0,))] = 1.0
    with pytest.raises(TransformError):
        phi_synthesize(bad, w)


def test_wavelet_coefficients_as_level_arrays():
    N = 32
    rng = np.random.default_rng(1)
    c = dwt_analyze(GridFunction(1, N, rng.standard_normal(N)), k=2)
    tv = c.to_coeffseq()
    assert tv.t == Truncation(1, 0, max(c.details), 1)
    assert tv.m == 1
    scale = N ** (-1 / 2.0)
    for j in range(min(c.details)):
        assert not tv.levels[j].any()
    for j, d in c.details.items():
        assert np.array_equal(tv.levels[j][..., 0], d * scale)


def test_dwt_constant_has_zero_details():
    f = GridFunction(1, 64, np.full(64, 2.5))
    c = dwt_analyze(f, k=4)
    for d in c.details.values():
        assert np.max(np.abs(d)) < 1e-12


def test_dwt_round_trip_and_parseval():
    for k in (2, 3, 4, 6, 8):
        f = _random_grid(128, seed=k)
        c = dwt_analyze(f, k=k)
        g = dwt_synthesize(c)
        assert np.max(np.abs(g.values - f.values)) < 1e-12
        assert abs(c.energy() - float(np.sum(np.abs(f.values) ** 2))) < 1e-10


def test_dwt_filter_validation():
    with pytest.raises(TransformError):
        dwt_analyze(_random_grid(64), k=5)
    with pytest.raises(TransformError):
        dwt_analyze(_random_grid(8), k=8)  # filter longer than the signal


def test_dwt_levels_none_is_full_depth_and_below_one_raises():
    f = _random_grid(64)
    # full depth stops once the approximation is shorter than the filter
    assert sorted(dwt_analyze(f, k=2).details) == [1, 2, 3, 4, 5]
    assert sorted(dwt_analyze(f, k=2, levels=2).details) == [4, 5]
    for bad in (0, -1):  # once the full depth and a silent no-op
        with pytest.raises(TransformError):
            dwt_analyze(f, k=2, levels=bad)


def wavelet_basis_function(template, j, k):
    """The discrete 1-d wavelet theta_{j,k} on the grid of a DWT template,
    of unit L^2 norm with respect to the grid measure."""
    details = {jj: np.zeros_like(d) for jj, d in template.details.items()}
    details[j][k] = 1.0
    c = WaveletCoeffs(N=template.N, filter_k=template.filter_k,
                      approx=np.zeros_like(template.approx), details=details)
    return dwt_synthesize(c).values * template.N ** 0.5


def wavelet_gram_check(filter_k, N, ad, t, level_lo, level_hi):
    """Max of |<theta_Q, theta_R>| / u_{Q,R} over the window's wavelet
    pairs on levels level_lo..level_hi: orthonormality gives an exact 0/1
    diagonal, so the ratio measures the cross-level decay of the discrete
    Gram matrix against the almost-diagonal envelope."""
    template = dwt_analyze(GridFunction(1, N, np.zeros(N)), k=filter_k)
    items = [(CubeId(j, (k,)), wavelet_basis_function(template, j, k))
             for j in range(level_lo, level_hi + 1) if j in template.details
             for k in range(1 << j) if t.contains(CubeId(j, (k,)))]
    worst = 0.0
    for i, (Q, u) in enumerate(items):
        for R, v in items[i:]:
            worst = max(worst, abs(np.vdot(u, v)) / N / ad_entry(Q, R, ad))
    return worst


def test_wavelet_basis_unit_norm_and_orthogonality():
    N = 128
    template = dwt_analyze(GridFunction(1, N, np.zeros(N)), k=4)
    u = wavelet_basis_function(template, 4, 3)
    v = wavelet_basis_function(template, 4, 9)
    w = wavelet_basis_function(template, 5, 3)
    assert abs(np.vdot(u, u).real / N - 1.0) < 1e-12
    assert abs(np.vdot(u, v)) / N < 1e-12  # same level, disjoint shifts
    assert abs(np.vdot(u, w)) / N < 1e-12  # adjacent level


def test_wavelet_gram_against_envelope():
    t = Truncation(1, 3, 6, 1)
    worst = wavelet_gram_check(4, 256, ADParams(2.0, 1.5, 1.5), t,
                               level_lo=3, level_hi=6)
    # diagonal entries force worst >= 1; decay keeps it window-stable
    assert 1.0 - 1e-12 <= worst <= 10.0


def test_peetre_constant_field():
    W = identity_weight(1)
    fj = {2: np.full(32, 3.0 - 4.0j)}
    out = peetre_maximal(fj, eta=1.5, mode="matrix", W=W, p=2.0)
    assert np.max(np.abs(out[2] - 5.0)) < 1e-12


def test_peetre_single_spike_decay():
    W = identity_weight(1)
    Ng = 64
    v = np.zeros(Ng)
    v[3] = 2.0
    out = peetre_maximal({0: v}, eta=1.0, mode="matrix", W=W, p=2.0)
    d = 7.0 / Ng  # torus distance between grid slots 10 and 3
    assert abs(out[0][10] - 2.0 / (1.0 + d)) < 1e-12
    with pytest.raises(TransformError):
        peetre_maximal({0: v}, eta=0.0, mode="matrix", W=W, p=2.0)


def test_lusin_constant_field():
    out = square_functions({1: np.full(32, 1.5)}, kind="lusin", r=2.0,
                           alpha=1.0)
    assert np.max(np.abs(out[1] - 1.5)) < 1e-12


def test_gstar_matches_brute_force():
    rng = np.random.default_rng(11)
    Ng, j, r, lam = 32, 2, 2.0, 1.75
    v = rng.standard_normal(Ng)
    out = square_functions({j: v}, kind="gstar", r=r, lam=lam)[j]
    idx = np.arange(Ng)
    for x in (0, 7, 20):
        d = np.minimum(np.abs(idx - x), Ng - np.abs(idx - x)) / Ng
        want = (np.sum(np.abs(v) ** r * 2.0**j
                       / (1.0 + 2.0**j * d) ** (lam * r)) / Ng) ** (1.0 / r)
        assert abs(out[x] - want) < 1e-12


def _square_brute(fj, kind, r, lam=2.0, alpha=1.0, W=None, p=None):
    """O(N^2) oracle: the direct sums over all grid pairs (x, y)."""
    out = {}
    for j, v in fj.items():
        vals = np.asarray(v, dtype=complex).reshape(len(v), -1)
        Ng = len(vals)
        diff = np.abs(np.arange(Ng)[:, None] - np.arange(Ng)[None, :])
        dist = np.minimum(diff, Ng - diff) / Ng
        if W is None:
            mags = np.linalg.norm(vals, axis=-1)[None, :].repeat(Ng, 0)
        else:
            Wp = W.powers(((np.arange(Ng) + 0.5) / Ng)[:, None], 1.0 / p)
            mags = np.linalg.norm(np.einsum("xab,yb->xya", Wp, vals), axis=-1)
        if kind == "lusin":
            inside = dist <= max(alpha * 2.0 ** (-j), 0.5 / Ng) + 1e-15
            out[j] = (np.sum(mags**r * inside, axis=1)
                      / np.sum(inside, axis=1)) ** (1.0 / r)
        else:
            wts = 2.0**j / (1.0 + 2.0**j * dist) ** (lam * r) / Ng
            out[j] = np.sum(mags**r * wts, axis=1) ** (1.0 / r)
    return out


_TORUS_W = MatrixWeight(1, lambda x: np.array([[abs(x[0] - 0.5) ** -0.5]]),
                        singular_set=[np.array([0.5])])


@pytest.mark.parametrize("m,W,r", [
    (1, None, 1.0), (2, None, 2.0), (2, None, 3.0),
    (1, _TORUS_W, 1.0), (1, _TORUS_W, 2.0), (1, _TORUS_W, 3.0),
    (2, diag_power_weight(-0.5, -0.25), 2.0),
])
@pytest.mark.parametrize("kind", ["gstar", "lusin"])
def test_square_functions_match_brute_force(kind, m, W, r):
    rng = np.random.default_rng(5)
    # level 7 on 32 points: the Lusin ball 2^-7 is clamped to the cell
    fj = {j: (rng.standard_normal((32, m)) + 1j * rng.standard_normal((32, m)))
          .squeeze() for j in (1, 3, 7)}
    fj[4] = np.zeros(64) if m == 1 else np.zeros((64, m))
    for lam, alpha in ((1.75, 1.0), (0.6, 0.3)):
        got = square_functions(fj, kind=kind, r=r, lam=lam, alpha=alpha,
                               W=W, p=2.0)
        want = _square_brute(fj, kind, r, lam=lam, alpha=alpha, W=W, p=2.0)
        assert sorted(got) == sorted(want)
        for j in want:
            err = np.max(np.abs(got[j] - want[j]))
            assert err <= 1e-12 * max(np.max(want[j]), 1e-300), (j, err)
            assert np.all(got[j] >= 0)


def test_square_functions_reject_matrix_weight_off_r2():
    fj = {2: np.ones((16, 2))}
    with pytest.raises(TransformError):
        square_functions(fj, kind="gstar", r=3.0,
                         W=diag_power_weight(-0.5, -0.25), p=2.0)
    with pytest.raises(TransformError):
        square_functions(fj, kind="bogus")


def test_grid_function_validation():
    with pytest.raises(TransformError):
        GridFunction(3, 8, np.zeros((8, 8, 8)))
    # the transforms are 1-d: a 2-d grid is refused whatever its shape
    for vals in (np.zeros((8, 8)), np.zeros(64), np.zeros(8)):
        with pytest.raises(TransformError, match="only n = 1"):
            GridFunction(2, 8, vals)
    with pytest.raises(TransformError):
        GridFunction(1, 12, np.zeros(12))
    with pytest.raises(TransformError):
        GridFunction(1, 8, np.zeros(9))


class _CountingWeight(MatrixWeight):
    """A custom per-point weight that counts its callback's calls."""

    def __init__(self, m):
        self.calls = 0

        def fn(x):
            self.calls += 1
            return np.diag(1.0 + np.arange(m) + np.sin(2 * np.pi * x[0]))

        super().__init__(m, fn)


@pytest.mark.parametrize("m", [1, 2])
def test_weight_evaluated_once_per_grid_point_per_call(m):
    rng = np.random.default_rng(9)
    # four levels on one 64-point grid, two on a 32-point grid
    fj = {j: rng.standard_normal((64 if j < 5 else 32, m)).squeeze()
          for j in range(1, 7)}
    calls = [
        lambda W: direct_weighted_field(fj, mode="matrix", W=W, p=2.0),
        lambda W: peetre_maximal(fj, 1.25, mode="matrix", W=W, p=2.0),
        lambda W: square_functions(fj, kind="gstar", W=W, p=2.0),
        lambda W: square_functions(fj, kind="lusin", W=W, p=2.0),
    ]
    for call in calls:
        W = _CountingWeight(m)
        call(W)
        assert W.calls == 64 + 32


def _peetre_product_oracle(fj, eta, W, p):
    """The [N, N, m] product sum: sup_y |W^{1/p}(x) f(y)| / pen^eta."""
    out = {}
    for j, v in fj.items():
        vals = np.asarray(v, dtype=complex).reshape(len(v), -1)
        Ng = len(vals)
        Wp = W.powers(((np.arange(Ng) + 0.5) / Ng)[:, None], 1.0 / p)
        diff = np.abs(np.arange(Ng)[:, None] - np.arange(Ng)[None, :])
        pen = 1.0 + 2.0**j * np.minimum(diff, Ng - diff) / Ng
        mags = np.linalg.norm(np.einsum("xab,yb->xya", Wp, vals), axis=-1)
        out[j] = np.max(mags / pen**eta, axis=1)
    return out


@pytest.mark.parametrize("eta", [0.5, 1.25, 3.0])
@pytest.mark.parametrize("W", [_TORUS_W, identity_weight(1)])
def test_peetre_scalar_path_matches_product_oracle(eta, W):
    rng = np.random.default_rng(13)
    fj = {j: rng.standard_normal(64) + 1j * rng.standard_normal(64)
          for j in (1, 3, 5)}
    fj[2] = np.zeros(64)
    fj[6] = rng.standard_normal(32)
    got = peetre_maximal(fj, eta, mode="matrix", W=W, p=2.0)
    want = _peetre_product_oracle(fj, eta, W, 2.0)
    assert sorted(got) == sorted(want)
    assert np.all(got[2] == 0.0)
    for j in want:
        assert np.max(np.abs(got[j] - want[j])) <= 1e-14 * np.max(want[j])


def test_peetre_matrix_weight_matches_product_oracle():
    rng = np.random.default_rng(14)
    W = diag_power_weight(-0.5, -0.25)
    fj = {j: rng.standard_normal((32, 2)) for j in (1, 4)}
    got = peetre_maximal(fj, 1.25, mode="matrix", W=W, p=2.0)
    want = _peetre_product_oracle(fj, 1.25, W, 2.0)
    for j in want:
        assert np.array_equal(got[j], want[j])


def _peetre_nxn_gather(fj, eta, W, p):
    """Peetre sup through the full N x N penalty: the offset table
    pen[o] = (1 + 2^j min(o, N - o) / N)^eta gathered at x - y (mod N)."""
    out = {}
    for j, v in fj.items():
        vals = np.asarray(v, dtype=complex).reshape(len(v), -1)
        N = len(vals)
        off = np.arange(N)
        pen = ((1.0 + 2.0**j * (np.minimum(off, N - off) / N)) ** eta)[
            off[:, None] - off]
        M = None if W is None else W.powers(
            ((np.arange(N) + 0.5) / N)[:, None], 1.0 / p)
        if M is None or M.shape[-1] == 1:
            sup = np.max(np.linalg.norm(vals, axis=-1) / pen, axis=1)
            out[j] = sup if M is None else np.abs(M[:, 0, 0]) * sup
        else:
            mags = np.linalg.norm(np.einsum("xab,yb->xya", M, vals), axis=-1)
            out[j] = np.max(mags / pen, axis=1)
    return out


@pytest.mark.parametrize("block", [None, 100])
@pytest.mark.parametrize("W,m", [(None, 1), (power_weight(-0.4), 1),
                                 (diag_power_weight(-0.5, -0.25), 2)])
def test_peetre_row_blocks_match_the_nxn_gather_bit_for_bit(
        monkeypatch, block, W, m):
    # block 100: one-row blocks for N > 100 and a short last block
    if block is not None:
        monkeypatch.setattr(transforms, "PAIR_BLOCK", block)
    rng = np.random.default_rng(16)
    for N in (1, 2, 3, 7, 100, 513, 1024):
        off = np.arange(N)
        dist = transforms._torus_dist(N)
        assert np.array_equal(dist, dist[(N - off) % N])  # d(x, y) = d(y, x)
        v = rng.standard_normal((N, m)) + 1j * rng.standard_normal((N, m))
        fj = {0: v, 9: v.real}
        for eta in (0.3, 1.25, 4):
            got = peetre_maximal(fj, eta, W=W, p=1.5)
            want = _peetre_nxn_gather(fj, eta, W, 1.5)
            for j in fj:
                assert np.array_equal(got[j], want[j]), (N, eta, j)


def test_peetre_memory_stays_below_the_nxn_penalty():
    # the N x N penalty at N = 4096 alone is 134 MB
    f = np.random.default_rng(17).standard_normal(4096)
    tracemalloc.start()
    try:
        peetre_maximal({6: f}, 1.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_peetre_and_direct_field_without_weight():
    rng = np.random.default_rng(15)
    fj = {3: rng.standard_normal((32, 2))}
    got = peetre_maximal(fj, 1.25)
    want = _peetre_product_oracle(fj, 1.25, identity_weight(2), 2.0)
    assert np.max(np.abs(got[3] - want[3])) <= 1e-14 * np.max(want[3])
    direct = direct_weighted_field(fj)
    assert np.allclose(direct[3], np.linalg.norm(fj[3], axis=-1), rtol=0,
                       atol=1e-15)


def test_peetre_and_direct_field_reject_modes_other_than_matrix():
    fj = {2: np.ones(16)}
    W = identity_weight(1)
    for mode in ("averaging", "unweighted", "bogus", None):
        for call in (lambda: peetre_maximal(fj, 1.25, mode=mode),
                     lambda: peetre_maximal(fj, 1.25, mode=mode, W=W, p=2.0),
                     lambda: direct_weighted_field(fj, mode=mode),
                     lambda: direct_weighted_field({}, mode=mode, W=W, p=2.0)):
            with pytest.raises(TransformError):
                call()


def _front_ends(fj, W, p):
    """Every band-limited front end on one field map and weight."""
    return (lambda: direct_weighted_field(fj, mode="matrix", W=W, p=p),
            lambda: peetre_maximal(fj, 1.25, mode="matrix", W=W, p=p),
            lambda: square_functions(fj, kind="gstar", W=W, p=p),
            lambda: square_functions(fj, kind="lusin", W=W, p=p))


@pytest.mark.parametrize("fj,W", [
    ({2: np.ones((16, 2))}, power_weight(-0.5)),  # scalar weight, m = 2
    ({2: np.ones(16)}, diag_power_weight(-0.5, -0.25)),  # 2x2, m = 1
    ({2: np.ones(16), 3: np.ones((16, 2))}, identity_weight(2)),
])
def test_front_ends_reject_a_weight_of_another_size(fj, W):
    for call in _front_ends(fj, W, 2.0):
        with pytest.raises(TransformError, match="weight is"):
            call()


@pytest.mark.parametrize("p", [None, 0.0, -1.0, np.nan, "2"])
def test_front_ends_need_an_exponent_with_a_weight(p):
    for call in _front_ends({2: np.ones(16)}, identity_weight(1), p):
        with pytest.raises(TransformError, match="p must lie"):
            call()


def test_phi_analyze_runs_each_component_on_its_own():
    N = 128
    w = build_lp_window(N)
    rng = np.random.default_rng(16)
    v = rng.standard_normal((N, 2)) + 1j * rng.standard_normal((N, 2))
    tv = phi_analyze(GridFunction(1, N, v, m=2), w)
    for i in range(2):
        part = phi_analyze(GridFunction(1, N, v[:, i]), w)
        for j, a in part.levels.items():
            assert np.array_equal(tv.levels[j][:, i], a[:, 0])


def test_lusin_rejects_negative_aperture():
    with pytest.raises(TransformError):
        square_functions({1: np.ones(16)}, kind="lusin", alpha=-0.5)


@pytest.mark.parametrize("kind, name, value", [
    ("gstar", "r", 0.0), ("gstar", "r", -1.0), ("gstar", "r", np.inf),
    ("gstar", "r", np.nan), ("gstar", "lam", np.nan), ("gstar", "lam", -1.0),
    ("gstar", "lam", np.inf), ("lusin", "r", 0.0), ("lusin", "alpha", np.nan),
    ("lusin", "alpha", np.inf), ("peetre", "eta", np.nan),
    ("peetre", "eta", np.inf),
])
def test_front_ends_need_finite_exponents(kind, name, value):
    # r, lam and eta in (0, inf), alpha in [0, inf); once a traceback,
    # a NaN or a number
    fj = {2: np.ones(16)}
    with pytest.raises(TransformError, match=name):
        if kind == "peetre":
            peetre_maximal(fj, value)
        else:
            square_functions(fj, kind=kind, **{name: value})


def test_db_filters_are_orthonormal():
    # <h, shift_2m h> = delta_m and sum h = sqrt 2 for every DB-k filter
    assert sorted(DB_FILTERS) == [2, 3, 4, 6, 8]
    for k, taps in DB_FILTERS.items():
        h = np.array(taps)
        assert h.size == 2 * k
        for shift in range(0, h.size, 2):
            dot = float(np.dot(h[: h.size - shift], h[shift:]))
            assert abs(dot - (1.0 if shift == 0 else 0.0)) <= 1e-14, (k, shift)
        assert abs(np.sum(h) - np.sqrt(2.0)) <= 1e-13, k
