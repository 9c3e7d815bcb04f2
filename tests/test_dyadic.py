import numpy as np
import pytest
from hypothesis import given, strategies as st

from dwlab import dyadic
from dwlab.dyadic import (
    CubeId,
    DyadicError,
    Truncation,
    ancestor,
    cube_geometry,
    enumerate_cubes,
    pair_blocks,
    separation,
    spread,
    spread_phases,
)
from oracles import level_cubes


def test_geometry_examples():
    x, ell, j = cube_geometry(CubeId(0, (0,)))
    assert (x[0], ell, j) == (0.0, 1.0, 0)
    x, ell, j = cube_geometry(CubeId(2, (3,)))
    assert (x[0], ell, j) == (0.75, 0.25, 2)
    x, ell, j = cube_geometry(CubeId(-1, (1, 0)))
    assert np.allclose(x, [2.0, 0.0]) and ell == 2.0


def test_children_parent():
    # the children of Q_{0,0} are the level-1 cubes of its one-cube window;
    # the parent is the ancestor one level up
    got = level_cubes(Truncation(1, 0, 1, 1), 1)
    assert got == [CubeId(1, (0,)), CubeId(1, (1,))]
    assert ancestor(CubeId(1, (1,)), 0) == CubeId(0, (0,))
    # 5 * 2^-3 = 0.625 lies in [0.5, 1)
    assert ancestor(CubeId(3, (5,)), 1) == CubeId(1, (1,))


def test_children_parent_roundtrip_2d():
    Q = CubeId(2, (1, 3))
    kids = [c for c in level_cubes(Truncation(2, 2, 3, 8), 3)
            if ancestor(c, 2) == Q]
    assert [c.k for c in kids] == [(2, 6), (2, 7), (3, 6), (3, 7)]


def test_separation_values():
    Q = CubeId(0, (3,))
    R = CubeId(0, (0,))
    assert separation(Q, Q) == 1.0
    assert separation(Q, R) == 4.0
    assert separation(CubeId(1, (0,)), CubeId(0, (2,))) == 3.0
    assert separation(Q, R) == separation(R, Q)


def test_truncation_counts():
    t = Truncation(1, 0, 1, 1)
    assert len(enumerate_cubes(t)) == 3
    t2 = Truncation(2, 0, 0, 2)
    assert len(enumerate_cubes(t2)) == 4


def test_enumeration_order_is_lexicographic():
    t = Truncation(1, 0, 2, 1)
    cubes = enumerate_cubes(t)
    assert cubes == sorted(cubes, key=lambda Q: (Q.j, Q.k))


def test_locate_covers_level_arrays():
    for t in (Truncation(1, 0, 3, 2), Truncation(2, 1, 3, 3)):
        for j in range(t.j_min, t.j_max + 1):
            covered = np.zeros(t.level_shape(j), dtype=int)
            for Q in level_cubes(t, j):
                lvl, idx = t.locate(Q)
                assert lvl == j and tuple(t.level_k(j)[idx]) == Q.k
                covered[idx] += 1
            assert np.all(covered == 1)
        assert t.locate(CubeId(t.j_max + 1, (0,) * t.n)) is None
        assert t.locate(CubeId(t.j_min, (0,) * (t.n + 1))) is None
        lo, hi = t.k_range(t.j_min)
        assert t.locate(CubeId(t.j_min, (hi,) * t.n)) is None
        assert t.locate(CubeId(t.j_min, (lo - 1,) * t.n)) is None


def test_negative_levels():
    t = Truncation(1, -2, 0, 2)
    # hull is [-4, 4); root cubes have side 4
    root = level_cubes(t, -2)
    assert len(root) == 2
    x, ell, _ = cube_geometry(root[0])
    assert x[0] == -4.0 and ell == 4.0


def test_dimension_mismatch_raises():
    with pytest.raises(DyadicError):
        separation(CubeId(0, (0,)), CubeId(0, (0, 0)))


def test_invalid_truncation():
    with pytest.raises(DyadicError):
        Truncation(1, 3, 1, 1)
    with pytest.raises(DyadicError):
        Truncation(1, 0, 1, 0)
    with pytest.raises(DyadicError):
        Truncation(0, 0, 1, 1)


@given(st.integers(0, 6), st.integers(0, 63), st.integers(0, 5))
def test_ancestor_contains(j, k, up):
    j = max(j, 0)
    k = k % (1 << j)
    Q = CubeId(j, (k,))
    lvl = max(j - up, 0)
    A = ancestor(Q, lvl)
    x, ell, _ = cube_geometry(Q)
    ax, aell, _ = cube_geometry(A)
    assert ax[0] <= x[0] and x[0] + ell <= ax[0] + aell + 1e-12


@given(st.integers(-3, 5), st.integers(-8, 8), st.integers(-3, 5),
       st.integers(-8, 8))
def test_separation_symmetric_and_at_least_one(j1, k1, j2, k2):
    Q, R = CubeId(j1, (k1,)), CubeId(j2, (k2,))
    s = separation(Q, R)
    assert s >= 1.0
    assert s == separation(R, Q)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_separation_matches_the_numpy_norm_of_the_corner_offset(n):
    rng = np.random.default_rng(n)
    for _ in range(300):
        (jq, jr), kq, kr = (rng.integers(-4, 9, 2), rng.integers(-40, 40, n),
                            rng.integers(-40, 40, n))
        Q, R = CubeId(int(jq), kq), CubeId(int(jr), kr)
        xq, lq, _ = cube_geometry(Q)
        xr, lr, _ = cube_geometry(R)
        want = 1.0 + float(np.linalg.norm(xq - xr)) / max(lq, lr)
        got = separation(Q, R)
        if n == 1:  # one product: the same bits
            assert got == want
        else:
            assert abs(got - want) <= 2 * np.spacing(want)


def _linspace_rule(total, cap):
    """The subsample that build_family, apinf_characteristic and
    estimate_dimensions took before spread."""
    if total <= cap:
        return np.arange(total)
    return np.linspace(0, total - 1, cap).astype(int)


@pytest.mark.parametrize("cap", [12, 24])
def test_spread_matches_the_linspace_rule(cap):
    for total in range(20_001):
        assert np.array_equal(spread(total, cap),
                              _linspace_rule(total, cap)), total


@pytest.mark.parametrize("total,cap", [(0, 5), (7, 12), (12, 12), (154, 64),
                                       (5, 1), (5, 0),
                                       (10**6 + 1, 999), (2**62 + 3, 1001)])
def test_spread_is_exact_and_even(total, cap):
    got = spread(total, cap)
    if total <= cap or cap < 2:
        want = list(range(min(total, cap)))
    else:  # exact in integers, where a float ramp is off at large totals
        want = [i * (total - 1) // (cap - 1) for i in range(cap)]
    assert got.tolist() == want
    gaps = np.diff(got)
    assert len(gaps) == 0 or gaps.max() - gaps.min() <= 1


def _pairs(count, cap):
    blocks = list(pair_blocks(count, cap))
    assert all(len(I) == len(J) <= dyadic.PAIR_BLOCK for I, J in blocks)
    return [(int(i), int(j)) for I, J in blocks for i, j in zip(I, J)]


def test_pair_blocks_are_row_major_within_the_cap(monkeypatch):
    monkeypatch.setattr(dyadic, "PAIR_BLOCK", 7)
    for count in (1, 2, 5):
        for cap in (count * count, count * count + 3):
            assert _pairs(count, cap) == [(i, j) for i in range(count)
                                          for j in range(count)]


@pytest.mark.parametrize("count,cap", [(9, 20), (9, 80), (40, 7), (101, 500)])
def test_pair_blocks_pick_cap_spread_pairs_above_it(monkeypatch, count, cap):
    monkeypatch.setattr(dyadic, "PAIR_BLOCK", 7)
    pairs = _pairs(count, cap)
    flat = [i * count + j for i, j in pairs]
    assert len(set(pairs)) == cap and flat == sorted(flat)
    assert all(0 <= i < count and 0 <= j < count for i, j in pairs)
    assert flat[0] == 0 and flat[-1] == count * count - 1
    gaps = np.diff(flat)
    assert gaps.max() - gaps.min() <= 1


def _phase_pairs(count, cap):
    rows, cols, K, M = spread_phases(count, cap)
    I, J = np.meshgrid(np.arange(count), np.arange(count), indexing="ij")
    return set((I * count + J)[(cols[J] - rows[I]) % M < K].tolist())


def test_spread_phases_select_the_spread_pairs():
    # caps 0, 1 and 2, caps at and above count^2, and sparse caps, which
    # leave a row without partners on some levels
    for count in [*range(1, 30), 64, 101, 256]:
        total = count * count
        caps = {0, 1, 2, 3, 7, 50, count, 2 * count + 1, total // 3,
                total - 1, total, total + 5}
        for cap in caps:
            assert _phase_pairs(count, cap) == set(spread(total, cap).tolist()), \
                (count, cap)


@pytest.mark.parametrize("cap", [2_000_000, 60_001 ** 2 - 5])
def test_spread_phases_stay_exact_where_int64_products_overflow(cap):
    # i count (cap - 1) reaches 1.3e19 at the larger cap
    count = 60_001
    rows, cols, K, M = spread_phases(count, cap)
    rng = np.random.default_rng(cap)
    flats = [int(x) for x in rng.integers(0, count * count, 500)]
    flats += [s * M // K for s in (0, 1, 77, cap - 2, cap - 1)]
    for f in flats:
        i, j = divmod(f, count)
        assert ((int(cols[j]) - int(rows[i])) % M < K) == ((-f * K) % M < K)


@pytest.mark.parametrize("args", [(1, 0, 2.5, 1), (1, 0, 2, 1.5),
                                  (True, 0, 2, 1), (1, "0", 2, 1),
                                  (1, 0, np.float64(2.0), 1)])
def test_truncation_fields_must_be_integers(args):
    # 2.5 once ended in a raw TypeError from <<, True passed as n = 1
    with pytest.raises(DyadicError, match="must be an integer"):
        Truncation(*args)


def test_truncation_takes_numpy_integers():
    t = Truncation(np.int64(1), np.int32(-1), np.int64(3), np.uint8(2))
    assert t == Truncation(1, -1, 3, 2) and t.cells_per_axis() == 32


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("root_extent", [1, 2, 3])
def test_level_k_is_one_read_only_array_per_level(n, root_extent):
    # root extents 2 and 3 and j_min = -2 put the corners below zero
    for j_min in (-2, 0):
        t = Truncation(n, j_min, j_min + 2, root_extent)
        for j in range(t.j_min, t.j_max + 1):
            k = t.level_k(j)
            assert t.level_k(j) is k and not k.flags.writeable
            with pytest.raises(ValueError):
                k[...] = 0
            axis = np.arange(*t.k_range(j))
            want = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1)
            assert np.array_equal(k, want) and k.dtype == want.dtype
        with pytest.raises(DyadicError):
            t.level_k(t.j_max + 1)


def test_level_k_arrays_leave_window_equality_alone():
    a, b = Truncation(2, -1, 3, 3), Truncation(2, -1, 3, 3)
    a.level_k(2)
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert repr(a) == repr(b) == ("Truncation(n=2, j_min=-1, j_max=3, "
                                  "root_extent=3)")
    assert a != Truncation(2, -1, 3, 1)
    # each window builds its own arrays
    assert b.level_k(2) is not a.level_k(2)
