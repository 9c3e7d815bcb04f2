import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dwlab.dyadic import CubeId, Truncation, enumerate_cubes
from dwlab.growth import (
    GrowthError,
    GrowthFn,
    class_constant,
    make_growth,
)


def test_power_examples():
    v0 = make_growth("power", tau=0.0)
    assert v0(CubeId(5, (17,))) == 1.0
    assert v0.declared_class == (0.0, 0.0, 0.0)
    v1 = make_growth("power", tau=1.0)
    assert v1(CubeId(2, (0,))) == 0.25


def test_weight_power_constant_field():
    v = make_growth("weight_power", field=lambda x: 1.0, tau=1.0)
    assert abs(v(CubeId(1, (0,))) - 0.5) < 1e-12


def test_piecewise_power_switches_at_unit_scale():
    v = make_growth("piecewise_power", alpha=0.25, beta=1.0)
    # ell >= 1 (j <= 0) uses beta, finer cubes use alpha
    assert v(CubeId(-1, (0,))) == 2.0
    assert v(CubeId(0, (0,))) == 1.0
    assert v(CubeId(2, (0,))) == 0.25 ** 0.25


def test_length_growth():
    v = make_growth("length", g=lambda ell: min(ell, 1.0), p=2.0)
    assert v(CubeId(3, (0,))) == 0.125
    assert v(CubeId(-2, (0,))) == 1.0
    assert v.declared_class == (0.0, 0.5, 0.0)


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
    v = GrowthFn(eval=lambda j, k: -1.0)
    with pytest.raises(GrowthError):
        v(CubeId(0, (0,)))
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
    ("weight_power", {"field": lambda x: 1.0 + float(np.sum(x ** 2)),
                      "tau": 0.5, "nodes_per_axis": 4}),
    ("length", {"g": lambda ell: min(ell, 1.0) ** 0.5, "p": 2.0}),
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
                              [v(Q) for Q in enumerate_cubes(t, level=j)])
