import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dwlab.dyadic import CubeId, Truncation, ancestor, enumerate_cubes
from dwlab.growth import GrowthFn, make_growth
from dwlab.reducing import build_family
from dwlab.seqspace import (
    UNDERFLOW_CLAMP,
    CoeffSeq,
    SeqSpaceError,
    SpaceParams,
    _level_fields,
    build_besov_counterexample,
    build_random,
    build_single_point,
    la_norm,
    la_norms,
    seq_norm,
    seq_norms,
    single_point_oracle,
)
from dwlab.weights import (
    QuadratureSpec,
    constant_weight,
    diag_power_weight,
    identity_weight,
    power_weight,
    window_nodes,
)
from oracles import identity_family, seq_norm_one_by_one

V0 = make_growth("power", tau=0.0)
V1 = make_growth("power", tau=1.0)


def _params(family="B", s=0.0, p=2.0, q=2.0, v=V0, **kw):
    return SpaceParams(family, s, p, q, v, **kw)


def test_coeffseq_validation():
    tv = CoeffSeq(Truncation(1, 0, 1, 1), 2)
    with pytest.raises(SeqSpaceError):
        tv[CubeId(0, (0,))] = [1.0]
    with pytest.raises(SeqSpaceError):
        tv[CubeId(0, (0,))] = [1.0, np.nan]
    tv[CubeId(0, (0,))] = [1.0, 2.0j]
    assert np.allclose(tv[CubeId(1, (0,))], 0.0)  # absent -> zero
    assert len(tv) == 1
    assert abs(tv.magnitudes()[CubeId(0, (0,))][0] - np.sqrt(5.0)) < 1e-12


@pytest.mark.parametrize("call", [
    lambda t: CoeffSeq(t, 1.5),
    lambda t: CoeffSeq(t, True),
    lambda t: CoeffSeq(t, 0),
    lambda t: build_random(t, m=1.5),
    lambda t: build_random(t, density=-0.1),
    lambda t: build_random(t, density=1.5),
    lambda t: build_random(t, density=np.nan),
    lambda t: build_random(t, sigma=np.nan),
    lambda t: build_random(t, sigma=np.inf),
    lambda t: build_random(t, seed=-1),
    lambda t: build_random(t, seed=2.0),
], ids=["m=1.5", "m=True", "m=0", "build-m=1.5", "density=-0.1",
        "density=1.5", "density=nan", "sigma=nan", "sigma=inf", "seed=-1",
        "seed=2.0"])
def test_sampler_input_is_a_seqspace_error(call):
    with pytest.raises(SeqSpaceError):
        call(Truncation(1, 0, 3, 1))


def test_sampler_accepts_numpy_integers_and_the_density_ends():
    t = Truncation(1, 0, 3, 1)
    assert CoeffSeq(t, np.int64(2)).m == 2
    assert len(build_random(t, m=np.int64(1), seed=np.uint32(3),
                            density=1.0)) == 15
    assert len(build_random(t, density=0)) == 0


@pytest.mark.parametrize("n, deep, shallow", [
    (1, Truncation(1, 0, 9, 1), (0, 4, 8)),
    (1, Truncation(1, -2, 5, 3), (-2, 1, 4)),
    (2, Truncation(2, 0, 4, 1), (0, 2, 3)),
    (2, Truncation(2, -1, 2, 2), (-1, 0, 1)),
])
@pytest.mark.parametrize("m", [1, 2])
def test_a_shallower_window_draws_the_deeper_draw_restricted(n, deep,
                                                             shallow, m):
    for sigma in (-0.5, 0.0, 0.5):
        full = build_random(deep, m=m, seed=11, density=0.4, sigma=sigma)
        for jm in shallow:
            t = Truncation(n, deep.j_min, jm, deep.root_extent)
            got = full.restrict(t)
            want = build_random(t, m=m, seed=11, density=0.4, sigma=sigma)
            assert got.t == t and got.m == m
            assert {j: a.tobytes() for j, a in got.levels.items()} == {
                j: a.tobytes() for j, a in want.levels.items()}
    # a restriction is a copy
    got.levels[deep.j_min][...] = 0.0
    assert full.restrict(t).levels[deep.j_min].any()


def test_restrict_needs_a_shallower_window_of_the_same_root():
    tv = build_random(Truncation(1, 0, 4, 1), seed=1)
    for t in (Truncation(1, 0, 5, 1), Truncation(1, 1, 4, 1),
              Truncation(1, 0, 3, 2), Truncation(2, 0, 3, 1)):
        with pytest.raises(SeqSpaceError):
            tv.restrict(t)


def test_space_params_validation():
    with pytest.raises(SeqSpaceError):
        _params(family="G")
    with pytest.raises(SeqSpaceError):
        _params(family="F", p=np.inf)
    with pytest.raises(SeqSpaceError):
        _params(mode="averaging")
    with pytest.raises(SeqSpaceError):
        _params(mode="matrix")


@pytest.mark.parametrize("bad", [
    {"p": -1.0}, {"p": 0.0}, {"p": np.nan}, {"p": "2"},
    {"q": 0.0}, {"q": -2.0}, {"q": np.nan}, {"q": "nan"},
    {"s": np.inf}, {"s": -np.inf}, {"s": np.nan},
    {"mode": "bogus"}, {"mode": "scalar_weight"},
    {"family": 3}, {"family": None},  # once an AttributeError
])
def test_space_params_rejects_bad_values(bad):
    with pytest.raises(SeqSpaceError):
        _params(**bad)


def test_space_params_accepts_infinite_exponents():
    assert _params("B", p=np.inf, q=np.inf).q == np.inf
    assert _params("F", p=0.5, q=np.inf).p == 0.5


def test_seq_norm_rejects_weight_size_mismatch():
    t = Truncation(1, 0, 2, 1)
    tv = build_single_point(CubeId(1, (0,)), 1.0, t)
    W = constant_weight(np.diag([1.0, 4.0]))
    with pytest.raises(SeqSpaceError):
        seq_norm(tv, _params(mode="matrix", weight=W), t)
    fam = identity_family(t, m=2)
    with pytest.raises(SeqSpaceError):
        seq_norm(tv, _params(mode="averaging", reducing=fam), t)


def test_la_norm_constant_level_zero_field():
    t = Truncation(1, 0, 1, 1)
    R = t.cells_per_axis()
    fields = {0: np.ones(R)}
    for v in (V0, V1):
        got = la_norm(fields, _params(p=1.0, q=2.0, v=v), t)
        assert abs(got - 1.0) < 1e-12
    # no field at all is the zero field
    for family, p, q in (("B", 2.0, 2.0), ("F", 1.0, np.inf),
                         ("B", np.inf, 1.0)):
        assert la_norm({}, _params(family, p=p, q=q, v=V1), t) == 0.0


def test_single_entry_norm_hand_value():
    # t_Q = 1 on Q = [0, 1/4): field is 2 * 1_Q, every window cube P >= Q
    # sees integral 2 * 1/4 = 1/2
    t = Truncation(1, 0, 2, 1)
    tv = build_single_point(CubeId(2, (0,)), 1.0, t)
    got = seq_norm(tv, _params(p=1.0, q=3.0), t)
    assert abs(got - 0.5) < 1e-12
    got_f = seq_norm(tv, _params("F", p=1.0, q=0.5), t)
    assert abs(got_f - 0.5) < 1e-12


def test_homogeneity():
    t = Truncation(1, 0, 3, 1)
    tv = build_random(t, m=2, seed=1)
    for params in (_params(), _params("F", s=0.5, p=1.0, q=np.inf, v=V1)):
        a = seq_norm(tv, params, t)
        scaled = CoeffSeq(t, tv.m)
        scaled.levels = {j: 3.0 * lv for j, lv in tv.levels.items()}
        b = seq_norm(scaled, params, t)
        assert abs(b - 3.0 * a) < 1e-10 * max(a, 1.0)


def test_single_point_oracle_constant_matrix_weight():
    t = Truncation(1, 0, 2, 1)
    W = constant_weight(np.diag([1.0, 4.0]))
    params = _params("F", p=2.0, q=2.0, mode="matrix", weight=W)
    Q = CubeId(0, (0,))
    z = np.array([0.0, 1.0])
    assert abs(single_point_oracle(Q, z, params, t) - 2.0) < 1e-12
    got = seq_norm(build_single_point(Q, z, t), params, t)
    assert abs(got - 2.0) < 1e-10


def test_single_point_oracle_evaluates_growth_once_per_level():
    calls = []

    def field(x):
        calls.append(len(x))
        return 1.0 + x[:, 0] ** 2

    t = Truncation(1, 0, 8, 1)
    params = _params("F", v=make_growth("weight_power", field=field, tau=1.0))
    cubes = enumerate_cubes(t)
    got = [single_point_oracle(Q, 1.0, params, t) for Q in cubes]
    # one field call (and one memo entry) per level, not one per cube
    assert len(calls) == t.j_max - t.j_min + 1 and len(cubes) == 511
    # the per-cube growth values give the same floats
    ref = make_growth("weight_power", field=lambda x: 1.0 + x[:, 0] ** 2,
                      tau=1.0)
    for Q, g in zip(cubes, got):
        sup = max(1.0 / ref.on_level(lvl, np.array([ancestor(Q, lvl).k]))[0]
                  for lvl in range(t.j_min, Q.j + 1))
        assert g == sup * 2.0 ** (Q.j * 0.5) * (2.0 ** -Q.j) ** 0.5
    with pytest.raises(SeqSpaceError):
        single_point_oracle(CubeId(1, (2,)), 1.0, params, t)


def test_averaging_identity_family_matches_unweighted():
    t = Truncation(1, 0, 3, 1)
    fam = identity_family(t, m=2)
    pa = _params(p=2.0, q=1.0, mode="averaging", reducing=fam)
    pu = _params(p=2.0, q=1.0)
    for seed in range(5):
        tv = build_random(t, m=2, seed=seed)
        assert abs(seq_norm(tv, pa, t) - seq_norm(tv, pu, t)) < 1e-12


def finfty_norm(tv, s, q, t):
    """The F(q, q) norm with growth |P|^{1/q} of a scalar sequence by its
    exact cube-sum form, independent of the level-field engine:

    sup_P { (1/|P|) sum_{Q <= P} (|Q|^{-s/n-1/2} |t_Q|)^q |Q| }^{1/q};
    q = infinity collapses to sup_Q |Q|^{-s/n-1/2} |t_Q|.
    """
    n = t.n
    if np.isinf(q):
        return max([2.0 ** (Q.j * (s + n / 2.0)) * abs(z[0])
                    for Q, z in tv.entries.items()], default=0.0)
    acc = {}
    for Q, z in tv.entries.items():
        contrib = ((2.0 ** (Q.j * (s + n / 2.0)) * abs(z[0])) ** q
                   * 2.0 ** (-Q.j * n))
        for lvl in range(t.j_min, Q.j + 1):
            P = ancestor(Q, lvl)
            acc[P] = acc.get(P, 0.0) + contrib
    return max([(total / 2.0 ** (-P.j * n)) ** (1.0 / q)
                for P, total in acc.items()], default=0.0)


def test_finfty_matches_fqq_with_power_growth():
    t = Truncation(1, 0, 3, 1)
    for q, s in ((2.0, 0.0), (1.0, 0.5), (3.0, -0.25)):
        params = _params("F", s=s, p=q, q=q,
                         v=make_growth("power", tau=1.0 / q))
        for seed in range(10):
            tv = build_random(t, m=1, seed=seed)
            a = finfty_norm(tv, s, q, t)
            b = seq_norm(tv, params, t)
            assert abs(a - b) < 1e-10 * max(a, 1.0)


def test_finfty_q_inf_is_sup():
    t = Truncation(1, 0, 2, 1)
    tv = CoeffSeq(t, 1)
    tv[CubeId(2, (1,))] = [0.5]
    tv[CubeId(0, (0,))] = [1.0]
    # 2^{2(0 + 1/2)} * 0.5 = 1 vs 2^0 * 1 = 1
    assert abs(finfty_norm(tv, 0.0, np.inf, t) - 1.0) < 1e-12


def test_besov_counterexample_support():
    t = Truncation(1, 0, 2, 1)
    tv = build_besov_counterexample(2, t)
    assert set(tv.entries) == {
        CubeId(0, (0,)), CubeId(1, (0,)), CubeId(2, (0,)), CubeId(2, (3,))
    }
    for Q, z in tv.entries.items():
        assert abs(z[0] - 2.0 ** (-Q.j / 2.0)) < 1e-15


def test_out_of_window_entry_raises():
    t = Truncation(1, 0, 1, 1)
    tv = build_single_point(CubeId(3, (0,)), 1.0, Truncation(1, 0, 3, 1))
    with pytest.raises(SeqSpaceError):
        seq_norm(tv, _params(), t)


def test_b_dominates_f_at_matching_parameters():
    # l^q(L^p) >= L^p(l^q) pointwise when q <= p on each window cube
    t = Truncation(1, 0, 3, 1)
    for seed in range(5):
        tv = build_random(t, m=1, seed=seed)
        b = seq_norm(tv, _params("B", p=2.0, q=1.0), t)
        f = seq_norm(tv, _params("F", p=2.0, q=1.0), t)
        assert b >= f - 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([0.5, 1.0, 2.0, np.inf]))
def test_quasinorm_positive_definite(seed, q):
    t = Truncation(1, 0, 2, 1)
    tv = build_random(t, m=1, seed=seed, density=0.5)
    val = seq_norm(tv, _params("B", p=2.0, q=q), t)
    if len(tv):
        assert val > 0
    else:
        assert val == 0.0


def test_setitem_outside_the_window_raises():
    tv = CoeffSeq(Truncation(1, 0, 2, 1), 1)
    for Q in (CubeId(3, (0,)), CubeId(1, (2,)), CubeId(1, (-1,)),
              CubeId(1, (0, 0))):
        with pytest.raises(SeqSpaceError):
            tv[Q] = 1.0
    assert len(tv) == 0


def test_seq_norm_rejects_a_sequence_on_another_window():
    t = Truncation(1, 0, 2, 1)
    tv = build_random(t, seed=3, density=0.5)
    for other in (Truncation(1, 0, 3, 1), Truncation(1, 0, 2, 3)):
        with pytest.raises(SeqSpaceError):
            seq_norm(tv, _params(), other)
    fam = identity_family(Truncation(1, 0, 3, 1))
    with pytest.raises(SeqSpaceError):
        seq_norm(tv, _params(mode="averaging", reducing=fam), t)


def test_entries_hold_nonzero_entries_in_jk_order():
    t = Truncation(2, 0, 2, 3)  # level j runs over k in [-2^j, 2^{j+1})^2
    tv = CoeffSeq(t, 2)
    tv[CubeId(2, (3, -4))] = [1.0, 0.0]
    tv[CubeId(0, (1, -1))] = [0.0, 2j]
    tv[CubeId(2, (-4, 5))] = [0.5, 0.5]
    tv[CubeId(1, (0, 0))] = [1.0, 1.0]
    tv[CubeId(1, (0, 0))] = [0.0, 0.0]  # overwritten with zero: absent
    want = [CubeId(0, (1, -1)), CubeId(2, (-4, 5)), CubeId(2, (3, -4))]
    assert list(tv.entries) == want and len(tv) == 3
    assert np.array_equal(tv.entries[CubeId(0, (1, -1))], [0.0, 2j])
    with pytest.raises(TypeError):
        tv.entries[CubeId(1, (0, 0))] = np.ones(2)
    with pytest.raises(AttributeError):
        tv.entries = {}


@pytest.mark.parametrize("t", [
    Truncation(2, 0, 3, 1),   # n = 2
    Truncation(1, -1, 2, 3),  # root_extent = 3
    Truncation(2, 2, 4, 3),   # j_min > 0, n = 2, root_extent = 3
])
def test_level_arrays_have_the_window_shapes(t):
    tv = build_random(t, m=2, seed=5, density=0.5)
    fam = identity_family(t, m=2)
    assert sorted(tv.levels) == sorted(fam.levels) == list(
        range(t.j_min, t.j_max + 1))
    for j, a in tv.levels.items():
        c = t.root_extent << (j - t.j_min)
        assert a.shape == (c,) * t.n + (2,) and a.dtype == complex
        assert t.level_shape(j) == (c,) * t.n
        assert t.level_k(j).shape == (c,) * t.n + (t.n,)
        assert fam.levels[j].shape == (c,) * t.n + (2, 2)
        assert tv.magnitudes().levels[j].shape == (c,) * t.n + (1,)
    for Q, z in tv.entries.items():
        j, idx = t.locate(Q)
        assert np.array_equal(tv.levels[j][idx], z)


def test_build_random_draws_cube_by_cube_in_jk_order():
    t = Truncation(2, 1, 3, 3)
    rng = np.random.default_rng(7)
    want = {}
    for Q in enumerate_cubes(t):
        if rng.random() < 0.4:
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            want[Q] = z * (2.0 ** (-Q.j * t.n * 0.5) / np.sqrt(2.0))
    tv = build_random(t, m=2, seed=7, density=0.4, sigma=0.5)
    assert list(tv.entries) == list(want)
    for Q, z in want.items():
        assert np.array_equal(tv[Q], z)


def _fields_by_cube(tv, params, t):
    """Reference: each entry's field value written into its own cells."""
    mode, n, m = params.mode, t.n, tv.m
    G = params.quad.G if mode == "matrix" else 1
    R = t.cells_per_axis() * G
    if mode == "matrix":
        wp = params.weight.powers(window_nodes(t, G), 1.0 / params.p)
        wp = wp.reshape((R,) * n + (m, m))
    fields = {}
    for Q, z in tv.entries.items():
        j, idx = t.locate(Q)
        w = G << (t.j_max - j)
        sl = tuple(slice(i * w, (i + 1) * w) for i in idx)
        f = fields.setdefault(j, np.zeros((R,) * n))
        scale = 2.0 ** (j * n / 2.0)
        if mode == "unweighted":
            f[sl] = np.linalg.norm(z) * scale
        elif mode == "averaging":
            f[sl] = np.linalg.norm(params.reducing[Q] @ z) * scale
        else:
            f[sl] = np.linalg.norm(wp[sl] @ z, axis=-1) * scale
    return fields


@pytest.mark.parametrize("t, W", [
    (Truncation(1, 0, 4, 3), power_weight(-0.5)),
    (Truncation(1, 1, 4, 1), diag_power_weight(-0.5, -0.25)),
    (Truncation(2, 1, 3, 1), diag_power_weight(-0.5, -0.25, n=2)),
    (Truncation(2, 0, 2, 3), constant_weight(np.diag([0.5, 1.0, 4.0]))),
])
def test_level_fields_equal_the_per_cube_reference(t, W):
    quad = QuadratureSpec(2)
    tv = build_random(t, m=W.m, seed=13, density=0.4, sigma=0.25)
    for params in (
        _params("F", p=2.0, q=1.0),
        _params("B", p=2.0, q=2.0, mode="averaging",
                reducing=build_family(W, 2.0, t, quad)),
        _params("F", p=1.5, q=2.0, mode="matrix", weight=W, quad=quad),
    ):
        # a stack of the sequence and the zero sequence
        got = _level_fields([tv, CoeffSeq(t, W.m)], params, t)
        want = _fields_by_cube(tv, params, t)
        assert sorted(got) == sorted(want)
        for j in want:
            f = got[j]
            for ax in range(1, f.ndim):  # cube resolution onto the grid
                f = np.repeat(f, want[j].shape[0] // f.shape[ax], axis=ax)
            assert np.array_equal(f[0], want[j]), (params.mode, j)
            assert not f[1].any()


def _build_random_cube_by_cube(t, m, seed, density, sigma):
    """build_random as one draw and one write per cube, in (j, k) order."""
    rng = np.random.default_rng(seed)
    tv = CoeffSeq(t, m)
    for j, a in tv.levels.items():
        rows = a.reshape(-1, m)
        scale = 2.0 ** (-j * t.n * sigma) / np.sqrt(2.0)
        for i in range(len(rows)):
            if rng.random() < density:
                g = rng.standard_normal(2 * m)
                rows[i] = (g[:m] + 1j * g[m:]) * scale
    return tv


@pytest.mark.parametrize("t", [
    Truncation(1, -2, 5, 2),
    Truncation(2, -1, 2, 2),
    Truncation(1, 0, 9, 1),
])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_build_random_is_bitwise_the_cube_by_cube_stream(t, m):
    for sigma in (-0.5, 0.0, 0.5):
        for seed, density in ((0, 0.3), (17, 0.8), (5, 0.0)):
            got = build_random(t, m=m, seed=seed, density=density,
                               sigma=sigma)
            want = _build_random_cube_by_cube(t, m, seed, density, sigma)
            for j, a in want.levels.items():
                assert np.array_equal(got.levels[j].view(np.uint64),
                                      a.view(np.uint64)), (sigma, seed, j)


def _stack_cases():
    """(window, m, members): random sequences, an all-zero one, and one
    whose only entries sit on the coarsest level, so that finer levels
    are empty for some members only."""
    for t, m in ((Truncation(1, -1, 3, 2), 2), (Truncation(2, 0, 2, 2), 2),
                 (Truncation(1, 0, 11, 1), 1)):
        coarse = CoeffSeq(t, m)
        coarse.levels[t.j_min][...] = 0.5 + 0.25j
        yield t, m, [build_random(t, m=m, seed=s, density=0.4,
                                  sigma=(-0.5, 0.0, 0.5)[s % 3])
                     for s in range(4)] + [CoeffSeq(t, m), coarse]


def _stack_params(t, m):
    W = diag_power_weight(-0.5, -0.25, n=t.n)
    quad = QuadratureSpec(2)
    fam = build_family(W, 2.0, t, quad)
    for family in ("B", "F"):
        for p, q in ((1.0, 1.0), (2.0, 1.0), (0.5, np.inf), (3.0, 0.5)):
            yield _params(family, p=p, q=q)
            yield _params(family, s=0.25, p=p, q=q, v=V1)
            if m == 2:
                yield _params(family, p=p, q=q, mode="matrix", weight=W,
                              quad=quad)
                yield _params(family, p=p, q=q, mode="averaging",
                              reducing=fam)
    for q in (1.0, np.inf):
        yield _params("B", s=-0.5, p=np.inf, q=q)


def test_seq_norms_match_one_sequence_at_a_time():
    checked = 0
    for t, m, tvs in _stack_cases():
        for params in _stack_params(t, m):
            got = seq_norms(tvs, params, t)
            assert got.shape == (len(tvs),)
            for tv, g in zip(tvs, got):
                want = seq_norm_one_by_one(tv, params, t)
                assert abs(g - want) <= 1e-15 * want, (params, t)
                assert seq_norm(tv, params, t) == g
            assert got[4] == 0.0 and got[5] > 0.0
            checked += 1
    assert checked == 2 * (2 * 4 * 4 + 2) + (2 * 4 * 2 + 2)


def test_seq_norms_reject_a_mixed_or_empty_stack():
    t = Truncation(1, 0, 3, 1)
    tv = build_random(t, m=2, seed=1, density=0.5)
    for bad in ([], [tv, build_random(Truncation(1, 0, 4, 1), m=2, seed=1)],
                [tv, build_random(t, m=1, seed=1)]):
        with pytest.raises(SeqSpaceError):
            seq_norms(bad, _params(), t)
    with pytest.raises(SeqSpaceError):
        la_norms({0: np.ones((2, 3))}, _params(), t)  # 3 does not divide 8
    with pytest.raises(SeqSpaceError):
        la_norms({0: np.ones((2, 8)), 1: np.ones((3, 8))}, _params(), t)


def test_la_norms_reject_levels_outside_the_window():
    t = Truncation(1, 0, 3, 1)
    for fields in ({7: np.ones(8)}, {1: np.ones(2), 9: np.ones(8)},
                   {-1: np.ones(8), 0: np.ones(1)}):
        with pytest.raises(SeqSpaceError, match="outside the window"):
            la_norm(fields, _params(), t)
        with pytest.raises(SeqSpaceError, match="outside the window"):
            la_norms({j: f[None] for j, f in fields.items()}, _params(), t)


@pytest.mark.parametrize("family", ["B", "F"])
def test_a_nan_field_is_an_error_not_a_norm(family):
    # the levels were once merged with np.fmax, which drops a NaN: 0.0
    t = Truncation(1, 0, 0, 1)
    with pytest.raises(SeqSpaceError, match="NaN"):
        la_norm({0: np.array([np.nan])}, _params(family), t)
    with pytest.raises(SeqSpaceError, match="NaN"):
        la_norms({0: np.array([[1.0], [np.nan]])}, _params(family), t)


def test_growth_is_evaluated_once_per_level_over_seq_norms_calls():
    calls = []

    def ev(j, k):
        calls.append(j)
        return (2.0 ** (-j * k.shape[-1])) ** 0.5

    t = Truncation(1, -1, 4, 2)
    params = _params("F", v=GrowthFn(ev))
    tvs = [build_random(t, seed=s, density=0.5) for s in range(3)]
    first = seq_norms(tvs, params, t)
    for _ in range(3):
        assert np.array_equal(seq_norms(tvs, params, t), first)
        seq_norm(tvs[0], _params("B", v=params.v), t)
    assert sorted(calls) == list(range(t.j_min, t.j_max + 1))


def test_la_norms_read_their_grid_from_the_fields():
    t = Truncation(1, 0, 3, 1)
    rng = np.random.default_rng(4)
    coarse = {j: rng.random((2, 1 << j)) for j in range(4)}
    for family, q in (("B", 2.0), ("F", 1.0), ("F", np.inf)):
        params = _params(family, p=2.0, q=q)
        want = la_norms(coarse, params, t)
        # the same piecewise-constant fields on a 3-fold refined grid
        fine = {**coarse, 3: np.repeat(coarse[3], 3, axis=1)}
        got = la_norms(fine, params, t)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0), family
    with pytest.raises(SeqSpaceError):  # 12 cells do not refine 8 cubes
        la_norms({3: np.ones((2, 12))}, _params(), t)


def _b_norms_per_pair(fields, params, t):
    """The B family of la_norms as one call per (box level, level) pair:
    each level spread over the R-grid and box-reduced on its own, the
    reduced levels stacked on axis 1 and summed there."""
    n, p, q = t.n, params.p, params.q
    S = next(iter(fields.values())).shape[0]
    R = max([t.cells_per_axis()] + [f.shape[1] for f in fields.values()])
    subdiv = R // t.cells_per_axis()
    node_vol = (2.0 ** (-t.j_max) / subdiv) ** n
    levels = range(t.j_min, t.j_max + 1)

    def box_reduce(arr, w, op):
        for ax in range(1, arr.ndim):
            shape = arr.shape[:ax] + (arr.shape[ax] // w, w) + arr.shape[ax + 1:]
            arr = op(arr.reshape(shape), axis=ax + 1)
        return arr

    def expand(f):
        r = f.shape[1]
        if r == R:
            return f
        cells = np.broadcast_to(f.reshape((S,) + (r, 1) * n),
                                (S,) + (r, R // r) * n)
        return cells.reshape((S,) + (R,) * n)

    G = {}
    for j in levels:
        f = np.abs(fields.get(j, np.zeros((S,) + (1,) * n)))
        f[f < UNDERFLOW_CLAMP] = 0.0
        G[j] = f if np.isinf(p) else f**p
    op = np.max if np.isinf(p) else np.sum
    best = np.zeros(S)
    for jP in reversed(levels):
        w = subdiv * (1 << (t.j_max - jP))
        per_level = [box_reduce(expand(G[j]), w, op) for j in levels if j >= jP]
        if not np.isinf(p):
            per_level = [(b * node_vol) ** (1.0 / p) for b in per_level]
        stack = np.stack(per_level, axis=1)
        vals = (np.max(stack, axis=1) if np.isinf(q)
                else np.sum(stack**q, axis=1) ** (1.0 / q))
        vP = params.v.on_level(jP, t.level_k(jP))
        best = np.fmax(best, np.max((vals / vP).reshape(S, -1), axis=1))
    return best


@pytest.mark.parametrize("t,G", [(Truncation(1, 0, 10, 1), 1),
                                 (Truncation(1, -1, 4, 3), 3),
                                 (Truncation(2, 0, 3, 1), 2),
                                 (Truncation(2, -1, 2, 3), 3)])
def test_b_sweep_matches_the_per_pair_loop_bit_for_bit(t, G):
    rng = np.random.default_rng(t.n * 100 + t.j_max)
    v = make_growth("power", tau=0.5)
    S, checked = 3, 0
    for p in (0.5, 1.0, 2.0, np.inf):
        for q in (0.5, 1.0, 2.0, np.inf):
            fields = {}
            for j in range(t.j_min, t.j_max + 1):
                if j % 3 == 1:
                    continue  # an absent level
                # odd levels at cube resolution, the rest node-refined
                r = t.root_extent << (j - t.j_min)
                if j % 2 == 0:
                    r = t.cells_per_axis() * G
                size = (S,) + (r,) * t.n
                f = rng.random(size) * 10.0 ** rng.uniform(-3, 3, size)
                f[1] = 0.0  # a zero member
                fields[j] = f
            params = _params("B", p=p, q=q, v=v)
            got = la_norms(fields, params, t)
            assert np.array_equal(got, _b_norms_per_pair(fields, params, t)), \
                (p, q)
            assert got[1] == 0.0 and np.all(got[[0, 2]] > 0.0)
            checked += 1
    assert checked == 16
