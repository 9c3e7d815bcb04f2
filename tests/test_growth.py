import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dwlab import dyadic, growth
from dwlab.dyadic import (CubeId, Truncation, _radius, enumerate_cubes,
                          separation, spread)
from dwlab.growth import (
    FIELD_NODES,
    GrowthError,
    GrowthFn,
    class_constant,
    make_growth,
)
from dwlab.seqspace import SpaceParams, build_single_point, seq_norm
from dwlab.weights import QuadratureSpec, _libm_pow, diag_power_weight
from oracles import level_cubes


def _at(v, Q):
    """v at the one cube Q, through its level evaluation."""
    return float(v.on_level(Q.j, np.array([Q.k]))[0])


def _cell_average_per_point(field, j, k, nodes_per_axis=16):
    """The per-point midpoint rule: one field(x[n]) call per node."""
    k = np.asarray(k)
    n = k.shape[-1]
    ell = 2.0 ** (-j)
    g = nodes_per_axis
    ticks = (np.arange(g) + 0.5) / g * ell
    offs = np.stack(np.meshgrid(*[ticks] * n, indexing="ij"), axis=-1)
    pts = k[..., None, :] * ell + offs.reshape(-1, n)
    vals = np.array([field(p) for p in pts.reshape(-1, n)], dtype=float)
    return np.mean(vals.reshape(pts.shape[:-1]), axis=-1) * 2.0 ** (-j * n)


# (per-point field, its batched form): INV-F's two fields and a smooth one
FIELDS = [
    (lambda x: float(np.linalg.norm(x)) ** -0.5,
     lambda x: _libm_pow(_radius(x), -0.5)),
    (lambda x: max(float(np.linalg.norm(x)) ** -0.5, 1.0),
     lambda x: np.maximum(_libm_pow(_radius(x), -0.5), 1.0)),
    (lambda x: 1.0 + float(np.sum(x ** 2)),
     lambda x: 1.0 + np.sum(x ** 2, axis=-1)),
]


def test_power_examples():
    v0 = make_growth("power", tau=0.0)
    assert _at(v0, CubeId(5, (17,))) == 1.0
    v1 = make_growth("power", tau=1.0)
    assert _at(v1, CubeId(2, (0,))) == 0.25


def test_weight_power_constant_field():
    v = make_growth("weight_power", field=lambda x: np.ones(len(x)), tau=1.0)
    assert abs(_at(v, CubeId(1, (0,))) - 0.5) < 1e-12


def test_piecewise_power_switches_at_unit_scale():
    v = make_growth("piecewise_power", alpha=0.25, beta=1.0)
    # ell >= 1 (j <= 0) uses beta, finer cubes use alpha
    assert _at(v, CubeId(-1, (0,))) == 2.0
    assert _at(v, CubeId(0, (0,))) == 1.0
    assert _at(v, CubeId(2, (0,))) == 0.25 ** 0.25


def test_class_constant_power_is_exactly_one():
    t = Truncation(1, 0, 4, 1)
    for tau in (0.0, 0.5, 1.0):
        v = make_growth("power", tau=tau)
        assert abs(class_constant(v, tau, tau, 0.0, t) - 1.0) < 1e-12


def test_class_constant_detects_wrong_class():
    # power(1) against class (0,0;0): worst pair is the smallest vs the
    # largest cube, ratio 2^{4} = 16 on a 4-level 1-d window
    t = Truncation(1, 0, 4, 1)
    v = make_growth("power", tau=1.0)
    assert class_constant(v, 0.0, 0.0, 0.0, t) > 8.0


def test_class_constant_constant_function():
    t = Truncation(1, 0, 3, 1)
    v = GrowthFn(eval=lambda j, k: 5.0)
    assert abs(class_constant(v, 0.0, 0.0, 0.0, t) - 1.0) < 1e-12


def test_validation_errors():
    with pytest.raises(GrowthError):
        make_growth("power", tau=-1.0)
    with pytest.raises(GrowthError):
        make_growth("piecewise_power", alpha=2.0, beta=1.0)
    with pytest.raises(GrowthError):
        make_growth("no_such_kind")
    # keys the kind does not take, and a field that is not callable
    with pytest.raises(GrowthError):
        make_growth("power", tau=1.0, bogus=3)
    with pytest.raises(GrowthError):
        make_growth("weight_power", field=np.ones, tau=1.0, nodes_per_axis=4)
    with pytest.raises(GrowthError):
        make_growth("piecewise_power", alpha=0.0, beta=1.0, tau=1.0)
    for field in (1, "abs", None, np.ones(3)):
        with pytest.raises(GrowthError):
            make_growth("weight_power", field=field, tau=1.0)
    with pytest.raises(GrowthError):
        make_growth("length", g=abs, p=2.0)
    v = GrowthFn(eval=lambda j, k: -1.0)
    with pytest.raises(GrowthError):
        _at(v, CubeId(0, (0,)))
    with pytest.raises(GrowthError):
        class_constant(make_growth("power", tau=0.0), 1.0, 0.0, 0.0,
                       Truncation(1, 0, 1, 1))


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 2.0), st.integers(2, 4))
def test_power_class_membership_property(tau, depth):
    t = Truncation(1, 0, depth, 1)
    v = make_growth("power", tau=tau)
    assert class_constant(v, tau, tau, 0.0, t) <= 1.0 + 1e-9


@pytest.mark.parametrize("kind, params", [
    ("power", {"tau": 0.7}),
    ("weight_power", {"field": lambda x: 1.0 + np.sum(x ** 2, axis=-1),
                      "tau": 0.5}),
    ("weight_power", {"field": FIELDS[1][1], "tau": 0.25}),
    ("piecewise_power", {"alpha": 0.25, "beta": 1.0}),
])
@pytest.mark.parametrize("t", [Truncation(1, -2, 3, 3),
                               Truncation(2, -1, 1, 1)])
def test_level_evaluation_matches_cube_by_cube(kind, params, t):
    v = make_growth(kind, **params)
    for j in range(t.j_min, t.j_max + 1):
        got = v.on_level(j, t.level_k(j))
        assert got.shape == t.level_shape(j)
        assert np.array_equal(got.ravel(),
                              [_at(v, Q) for Q in level_cubes(t, j)])


@pytest.mark.parametrize("point_field, batch_field", FIELDS,
                         ids=["inv_f_sufficiency", "inv_f_necessity",
                              "smooth"])
@pytest.mark.parametrize("t", [Truncation(2, -1, 1, 2),
                               Truncation(1, -7, 0, 2)])
def test_weight_power_matches_per_point_oracle(point_field, batch_field, t):
    vs = {tau: make_growth("weight_power", field=batch_field, tau=tau)
          for tau in (0.25, 1.0)}
    for j in range(t.j_min, t.j_max + 1):
        k = t.level_k(j)
        avg = _cell_average_per_point(point_field, j, k).ravel().tolist()
        for tau, v in vs.items():
            assert np.array_equal(v.on_level(j, k).ravel(),
                                  [a ** tau for a in avg])


def test_weight_power_calls_its_field_once_per_level():
    calls = []

    def field(x):
        calls.append(len(x))
        return np.maximum(_libm_pow(_radius(x), -0.5), 1.0)

    # INV-F's necessity setting: two growth functions share one field
    t = Truncation(1, -7, 0, 2)
    vq = make_growth("weight_power", field=field, tau=0.25)
    vp = make_growth("weight_power", field=field, tau=1.0)
    quad = QuadratureSpec(3)
    W = diag_power_weight(-0.5, 0.0)
    for v in (vq, vp):
        params = SpaceParams("F", 0.0, 1.0, 4.0, v, mode="matrix", weight=W,
                             quad=quad)
        for k in (1, 4, 16):
            tv = build_single_point(CubeId(0, (k,)), np.array([1.0, 0.0]), t)
            seq_norm(tv, params, t)
    # one call per level and growth function, on all nodes of the level
    level_nodes = [len(t.level_k(j)) * FIELD_NODES
                   for j in range(t.j_min, t.j_max + 1)]
    assert sorted(calls) == sorted(2 * level_nodes)


@pytest.mark.parametrize("field", [
    lambda x: 1.0,                          # a scalar for the whole level
    lambda x: 1.0 + float(np.sum(x ** 2)),  # a per-point callback
    lambda x: np.ones((len(x), 1)),
    lambda x: np.ones(len(x) + 1),
])
def test_weight_power_field_must_return_one_value_per_point(field):
    v = make_growth("weight_power", field=field, tau=1.0)
    with pytest.raises(GrowthError):
        _at(v, CubeId(1, (0,)))
    with pytest.raises(GrowthError):
        v.on_level(0, Truncation(2, 0, 1, 1).level_k(0))


def _shifted_field(x):
    return 1.0 + np.sum((x - 0.3) ** 2, axis=-1)


# class_constant(weight_power(_shifted_field, 1.5), 0, 0.2, 0.4, t) as
# float.hex, from the all-pairs table that window_pairs replaced
@pytest.mark.parametrize("t,want", [
    (Truncation(1, 0, 6, 1), "0x1.e73420e6979c6p+7"),
    (Truncation(1, -1, 4, 2), "0x1.5f5db17718d75p+8"),
    (Truncation(2, 0, 3, 1), "0x1.16aef5d2cbcb6p+8"),
], ids=["1d", "1d-extent2", "2d"])
def test_class_constant_keeps_its_bits_within_the_cap(t, want):
    v = make_growth("weight_power", field=_shifted_field, tau=1.5)
    assert class_constant(v, 0.0, 0.2, 0.4, t).hex() == want


def test_class_constant_above_the_cap_runs_on_the_spread_pairs(monkeypatch):
    t = Truncation(2, 0, 2, 1)  # 21 cubes, 441 ordered pairs
    monkeypatch.setattr(growth, "PAIR_CAP", 100)
    v = make_growth("weight_power", field=_shifted_field, tau=1.5)
    cubes = enumerate_cubes(t)
    N = len(cubes)

    def ratio(Q, R):
        expo = 0.0 if Q.j >= R.j else 0.2  # delta1 if ell(Q) <= ell(R)
        bound = (separation(Q, R) ** 0.4
                 * (2.0 ** (-(Q.j - R.j) * t.n)) ** expo)
        return _at(v, Q) / _at(v, R) / bound

    want = max(ratio(cubes[f // N], cubes[f % N]) for f in spread(N * N, 100))
    got = class_constant(v, 0.0, 0.2, 0.4, t)
    assert abs(got - want) <= 1e-12 * want
    monkeypatch.setattr(growth, "PAIR_CAP", N * N)
    assert class_constant(v, 0.0, 0.2, 0.4, t) >= got


def test_class_constant_memory_stays_bounded():
    # 2,047 cubes: the all-pairs table peaked at 123 MB here
    v = make_growth("power", tau=0.5)
    tracemalloc.start()
    try:
        c = class_constant(v, 0.5, 0.5, 0.0, Truncation(1, 0, 10, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c == 1.0 and peak < 32e6


def _class_constant_per_pair(v, delta1, delta2, omega, t, cap):
    """class_constant by the per-pair formula it had before its gap table:
    separation, volume ratio and exponent of every spread pair, computed
    for each pair, in blocks of 2^16 pairs."""
    js = range(t.j_min, t.j_max + 1)
    ks = [t.level_k(j).reshape(-1, t.n) for j in js]
    lev = np.concatenate([np.full(len(k), j) for j, k in zip(js, ks)])
    ell = np.ldexp(1.0, -lev)
    x = np.concatenate(ks) * ell[:, None]
    vals = np.concatenate([v.on_level(j, k) for j, k in zip(js, ks)])
    flat = spread(len(lev) ** 2, cap)
    worst = []
    for s in range(0, len(flat), 1 << 16):
        I, J = np.divmod(flat[s:s + (1 << 16)], len(lev))
        dj = lev[I] - lev[J]
        sep = 1.0 + _radius(x[I] - x[J]) / np.maximum(ell[I], ell[J])
        vol_ratio = 2.0 ** (-dj * float(t.n))
        expo = np.where(dj >= 0, delta1, delta2)
        bound = sep**omega * vol_ratio**expo
        worst.append(np.max(vals[I] / vals[J] / bound))
    return float(np.max(worst))


_FIELD = make_growth("weight_power", field=_shifted_field, tau=1.5)
_POWER = make_growth("power", tau=0.5)
# one low cube inside level 4, so the worst ratio needs that level's least v
_DIP = GrowthFn(lambda j, k: np.where((j == 4) & (k[..., 0] == 5), 0.5, 1.0))


# (window, growth, delta1, delta2, omega, pair cap; None keeps PAIR_CAP)
@pytest.mark.parametrize("t,v,d1,d2,omega,cap", [
    (Truncation(1, 0, 6, 1), _POWER, 0.5, 0.5, 0.0, None),
    (Truncation(1, -2, 3, 3), _FIELD, 0.0, 0.2, 0.4, 50),
    (Truncation(1, -1, 4, 2), _FIELD, 0.1, 0.3, 0.0, 1000),
    (Truncation(2, -1, 2, 2), _FIELD, 0.1, 0.5, 0.0, 1000),
    (Truncation(2, 0, 3, 1), _FIELD, -0.2, 0.3, 0.7, None),
    (Truncation(2, -1, 1, 3), _POWER, 0.25, 0.75, 0.3, 50),
    (Truncation(1, 0, 10, 1), _POWER, 0.5, 0.5, 0.0, None),
    (Truncation(1, -1, 9, 1), _FIELD, 0.1, 0.6, 0.25, None),
    (Truncation(1, -1, 4, 2), _FIELD, 0.1, 0.3, 0.0, 1),
    (Truncation(1, -1, 4, 2), _FIELD, 0.1, 0.3, 0.0, 2),
    (Truncation(2, -1, 2, 2), _POWER, 0.5, 0.5, 0.0, 2),
    (Truncation(2, 0, 4, 3), _POWER, 0.25, 0.75, 0.0, None),
    (Truncation(2, 0, 4, 3), _FIELD, 0.0, 0.2, 0.0, None),
    (Truncation(1, -1, 4, 2), _DIP, 0.1, 0.3, 0.0, None),
    (Truncation(1, -1, 4, 2), _DIP, 0.1, 0.3, 0.0, 300),
    (Truncation(2, 0, 4, 3), _DIP, 0.0, 0.0, 0.0, None),
], ids=["1d", "1d-cap50", "1d-cap1000", "2d-cap1000", "2d", "2d-extent3",
        "1d-above-cap", "1d-above-cap-omega", "1d-cap1", "1d-cap2",
        "2d-cap2", "2d-above-cap", "2d-above-cap-field", "1d-dip",
        "1d-dip-cap300", "2d-dip-above-cap"])
def test_class_constant_matches_the_per_pair_formula_bit_for_bit(
        t, v, d1, d2, omega, cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(growth, "PAIR_CAP", cap)
    want = _class_constant_per_pair(v, d1, d2, omega, t, growth.PAIR_CAP)
    assert class_constant(v, d1, d2, omega, t).hex() == want.hex()


def test_class_constant_reads_separations_only_at_positive_omega(
        monkeypatch):
    def unreachable(t):
        raise AssertionError("separations read")

    monkeypatch.setattr(growth, "pair_separations", unreachable)
    t = Truncation(2, 0, 3, 1)
    assert class_constant(_POWER, 0.5, 0.5, 0.0, t) == 1.0
    with pytest.raises(AssertionError, match="separations read"):
        class_constant(_POWER, 0.5, 0.5, 0.3, t)


def test_range_min_is_the_slice_minimum():
    rng = np.random.default_rng(5)
    for size in (1, 2, 3, 7, 64, 100, 1000):
        a = rng.standard_normal(size)
        lo = rng.integers(0, size, 400)
        hi = lo + 1 + (rng.integers(0, size, 400) % (size - lo))
        want = [a[x:y].min() for x, y in zip(lo, hi)]
        assert growth._range_min(a, lo, hi).tolist() == want


def test_class_constant_forms_no_pairs_at_zero_omega(monkeypatch):
    def unreachable(*args):
        raise AssertionError("pairs formed")

    monkeypatch.setattr(growth, "window_pairs", unreachable)
    monkeypatch.setattr(dyadic, "pair_blocks", unreachable)
    t = Truncation(2, 0, 3, 1)
    assert class_constant(_POWER, 0.5, 0.5, 0.0, t) == 1.0
    with pytest.raises(AssertionError, match="pairs formed"):
        class_constant(_POWER, 0.5, 0.5, 0.3, t)


@pytest.mark.parametrize("kind,params,named", [
    ("power", {"tau": np.nan}, "tau"),
    ("power", {"tau": np.inf}, "tau"),
    ("weight_power", {"field": _shifted_field, "tau": np.nan}, "tau"),
    ("piecewise_power", {"alpha": 0.0, "beta": np.nan}, "beta"),
    ("piecewise_power", {"alpha": -np.inf, "beta": 0.0}, "alpha"),
])
def test_non_finite_growth_exponents_are_errors(kind, params, named):
    # NaN and infinite exponents once built, to fail later as a
    # "nonpositive" growth or to give class constants of 4.0
    with pytest.raises(GrowthError, match=f"{named} must be finite"):
        make_growth(kind, **params)


@pytest.mark.parametrize("d1,d2,omega,named", [
    (np.nan, np.nan, 0.0, "delta1"),
    (0.0, np.inf, 0.0, "delta2"),
    (0.0, 0.0, np.nan, "omega"),
    (0.0, 0.0, np.inf, "omega"),
])
def test_non_finite_class_exponents_are_errors(d1, d2, omega, named):
    # these once gave nan, or 1.0 through the omega = 0 shortcut
    with pytest.raises(GrowthError, match=f"{named} must be finite"):
        class_constant(make_growth("power", tau=0.0), d1, d2, omega,
                       Truncation(1, 0, 4, 1))
