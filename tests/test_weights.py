from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dwlab import weights
from dwlab.dyadic import Truncation, cube_geometry
from dwlab.growth import make_growth
from dwlab.seqspace import SpaceParams, build_random, seq_norm
from dwlab.weights import (
    DILATIONS,
    SINGULAR_TOL,
    MatrixWeight,
    NotPositiveDefinite,
    QuadratureSpec,
    WeightError,
    apinf_characteristic,
    box_nodes,
    constant_weight,
    cube_blocks,
    diag_power_weight,
    estimate_dimensions,
    identity_weight,
    matrix_power,
    power_weight,
    spectral_norms,
    sphere_directions,
    window_nodes,
)
from oracles import apinf_per_cube, dimensions_per_cube, level_cubes


def _rand_hermitian(rng, m, complex_=False):
    A = rng.standard_normal((m, m))
    if complex_:
        A = A + 1j * rng.standard_normal((m, m))
    return A + A.conj().T


def test_constant_weight_rejects_nonhermitian():
    with pytest.raises(WeightError):
        constant_weight(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(WeightError):
        constant_weight(np.ones((2, 3)))
    rng = np.random.default_rng(3)
    for m in (2, 3, 5):
        for cplx in (False, True):
            H = _rand_hermitian(rng, m, cplx)
            assert np.array_equal(constant_weight(H).eval(np.zeros((2, 1))),
                                  np.stack([H, H]))


def test_matrix_power_roundtrip_real():
    rng = np.random.default_rng(7)
    B = rng.standard_normal((3, 3))
    M = B @ B.T + 3.0 * np.eye(3)
    R = matrix_power(M, 0.5)
    assert np.max(np.abs(R @ R - M)) < 1e-9
    assert np.max(np.abs(matrix_power(M, -1.0) @ M - np.eye(3))) < 1e-9


def test_matrix_power_roundtrip_complex():
    rng = np.random.default_rng(8)
    B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    M = B @ B.conj().T + 2.0 * np.eye(2)
    R = matrix_power(M, 0.5)
    assert np.max(np.abs(R @ R - M)) < 1e-10


def test_matrix_power_diagonal_and_errors():
    D = np.diag([1.0, 4.0])
    assert np.allclose(matrix_power(D, 0.5), np.diag([1.0, 2.0]))
    with pytest.raises(NotPositiveDefinite):
        matrix_power(np.diag([1.0, -1.0]), 0.5)
    with pytest.raises(WeightError):
        matrix_power(np.array([[0.0, 1.0], [2.0, 0.0]]), 0.5)


def test_weight_presets_validate():
    with pytest.raises(WeightError):
        power_weight(-1.0)
    with pytest.raises(WeightError):
        diag_power_weight(0.5, 0.25)
    W = power_weight(0.5)
    assert W.is_singular_at(0.0)
    assert not W.is_singular_at(0.25)
    assert identity_weight(3).m == 3


def test_apinf_identity_is_one():
    t = Truncation(1, 0, 2, 1)
    assert abs(apinf_characteristic(identity_weight(2), 2.0, t) - 1.0) < 1e-10


def test_apinf_sqrt_weight_single_cube(monkeypatch):
    # w(x) = sqrt(x), p = 1, one cube [0,1):
    # exp( avg_y log( (2/3) / sqrt(y) ) ) = exp( log(2/3) + 1/2 )
    W = power_weight(0.5)
    t = Truncation(1, 0, 0, 1)
    monkeypatch.setattr(weights, "APINF_NODE_CAP", 2048)
    got = apinf_characteristic(W, 1.0, t, spec=QuadratureSpec(2048))
    want = np.exp(np.log(2.0 / 3.0) + 0.5)
    assert abs(got - want) < 1e-3


def test_dimensions_identity_are_zero():
    t = Truncation(1, 0, 4, 1)
    d_low, d_up = estimate_dimensions(identity_weight(2), 2.0, t)
    assert abs(d_low) < 1e-6 and abs(d_up) < 1e-6


def test_dimensions_sqrt_weight_upper_half(monkeypatch):
    # the slope of the dilation average only reaches its limiting value
    # 1/2 once the dilates are much larger than their offset from the
    # singularity, hence the deep window and large dilation factors
    t = Truncation(1, 0, 6, 2)
    monkeypatch.setattr(weights, "DILATIONS", (8.0, 16.0, 32.0, 64.0))
    _, d_up = estimate_dimensions(power_weight(0.5), 1.0, t)
    assert abs(d_up - 0.5) < 0.1


def test_dimensions_need_room_to_dilate():
    with pytest.raises(WeightError):
        estimate_dimensions(identity_weight(1), 2.0, Truncation(1, 0, 3, 1))


def test_sphere_directions_unit_norm():
    for m in (1, 2, 3, 4):
        d = sphere_directions(m, 50)
        assert np.allclose(np.linalg.norm(d, axis=-1), 1.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.integers(0, 10_000))
def test_matrix_power_composition_property(m, cplx, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((m, m))
    if cplx:
        B = B + 1j * rng.standard_normal((m, m))
    M = B @ B.conj().T + m * np.eye(m)
    half = matrix_power(M, 0.5)
    quarter = matrix_power(M, 0.25)
    assert np.max(np.abs(quarter @ quarter - half)) < 1e-8


def _pd_stack(rng, count, m, complex_):
    B = rng.standard_normal((count, m, m))
    if complex_:
        B = B + 1j * rng.standard_normal((count, m, m))
    return B @ np.swapaxes(B.conj(), -1, -2) + m * np.eye(m)


def test_matrix_power_batched_matches_per_matrix_eigh():
    rng = np.random.default_rng(11)
    for m in (1, 2, 3):
        for cplx in (False, True):
            S = _pd_stack(rng, 7, m, cplx)
            for alpha in (0.5, -0.25, 1.0 / 3.0):
                got = matrix_power(S, alpha)
                assert got.shape == S.shape
                for M, G in zip(S, got):
                    lam, V = np.linalg.eigh(M)
                    want = V @ np.diag(lam**alpha) @ V.conj().T
                    assert np.max(np.abs(G - want)) < 1e-12 * np.max(np.abs(want))


def test_matrix_power_batch_checks_every_matrix():
    rng = np.random.default_rng(12)
    S = _pd_stack(rng, 5, 2, True)
    skew = S.copy()
    skew[3, 0, 1] += 0.5
    with pytest.raises(WeightError) as err:
        matrix_power(skew, 0.5)
    assert not isinstance(err.value, NotPositiveDefinite)
    with pytest.raises(WeightError):
        constant_weight(skew[3])
    indefinite = S.copy()
    indefinite[2] = np.diag([1.0, -1.0])
    with pytest.raises(NotPositiveDefinite):
        matrix_power(indefinite, 0.5)


def test_is_singular_at_masks_point_arrays():
    W = MatrixWeight(1, lambda x: np.eye(1),
                     singular_set=[np.zeros(2), np.array([0.5, 0.25])])
    pts = np.array([[0.0, 0.0], [0.5, 0.25], [0.5, 0.5], [1e-3, 0.0]])
    assert W.is_singular_at(pts).tolist() == [True, True, False, False]
    assert W.is_singular_at(pts.reshape(2, 2, 2)).tolist() == [[True, True],
                                                               [False, False]]
    assert not identity_weight(1).is_singular_at(pts).any()


def test_singular_points_of_another_dimension_are_an_error():
    # a 1-d point against 2-d nodes used to broadcast and mark only the
    # diagonal node (0.0625, 0.0625)
    W = MatrixWeight(1, lambda x: np.eye(1), singular_set=[[0.0625]])
    pts = window_nodes(Truncation(2, 0, 3, 1), 1)
    for call in (W.is_singular_at, W.eval, lambda x: W.powers(x, 0.5)):
        with pytest.raises(WeightError):
            call(pts)
    with pytest.raises(WeightError):
        power_weight(-0.5, n=3).eval(pts)
    assert W.is_singular_at(0.0625) and not W.is_singular_at([0.5])
    assert W.is_singular_at(pts[:, :1]).sum() == 8


def test_powers_stack_per_point_values():
    W = diag_power_weight(-0.5, -0.25)
    pts = np.array([[0.1], [0.3], [0.7]])
    P = W.powers(pts, 0.5)
    assert P.shape == (3, 2, 2)
    for x, Px in zip(pts[:, 0], P):
        assert np.allclose(Px, np.diag([x**-0.25, x**-0.125]), atol=1e-14)
    assert W.powers(pts[:0], 0.5).shape == (0, 2, 2)


# The per-point callbacks the presets were written as before they became
# array expressions: the oracle for the batched evaluation.
def _per_point_presets():
    D = np.array([[2.0, 0.5], [0.5, 1.0]])
    return [
        (identity_weight(3), lambda x: np.eye(3)),
        (constant_weight(D), lambda x: D),
        (power_weight(-0.5), lambda x: np.array([[np.linalg.norm(x) ** -0.5]])),
        (power_weight(0.75, n=2),
         lambda x: np.array([[np.linalg.norm(x) ** 0.75]])),
        (diag_power_weight(-0.5, -0.25),
         lambda x: np.diag([np.linalg.norm(x) ** -0.5,
                            np.linalg.norm(x) ** -0.25])),
        (diag_power_weight(-1.5, 0.5, n=2),
         lambda x: np.diag([np.linalg.norm(x) ** -1.5,
                            np.linalg.norm(x) ** 0.5])),
    ]


def _oracle_points(n):
    rng = np.random.default_rng(21)
    near = np.array([1e-13, -1e-13, 3e-12, 1e-300, 2.0 ** -40])
    edges = np.array([-1.0, -0.5, 0.25, 0.5, 1.0, 1.0 - 2.0 ** -52])
    axis = np.concatenate([near, edges, rng.uniform(-1, 1, 40)])
    if n == 1:
        return axis[:, None]
    return np.concatenate([np.stack([axis, axis[::-1]], axis=-1),
                           np.stack([near, np.zeros_like(near)], axis=-1),
                           rng.uniform(-1, 1, (40, 2))])


@pytest.mark.parametrize("n", [1, 2])
def test_preset_eval_matches_per_point_callback(n):
    for W, fn in _per_point_presets():
        pts = _oracle_points(n)
        if any(s.size != n for s in W.singular_set):
            # a preset on R^d is evaluated at d-dimensional points only
            with pytest.raises(WeightError):
                W.eval(pts)
            continue
        with np.errstate(divide="ignore", over="ignore"):
            got = W.eval(pts)  # 1e-300 reaches |x| = 0 and overflow
            want = np.stack([fn(x) for x in pts])
        # the singular set (|x| < SINGULAR_TOL for the power presets) is zero
        want[W.is_singular_at(pts)] = 0.0
        assert got.shape == (len(pts), W.m, W.m)
        finite = np.isfinite(want)
        assert np.array_equal(got[~finite], want[~finite]), W.label
        assert np.all(np.abs(got[finite] - want[finite])
                      <= np.spacing(np.abs(want[finite]))), W.label
        empty = W.eval(np.zeros((0, n)))
        assert empty.shape == (0, W.m, W.m)
        assert W.powers(np.zeros((0, n)), 0.5).shape == (0, W.m, W.m)


def test_harness_torus_weight_matches_per_point_callback():
    from dwlab.harness.experiments import _torus_weight

    pts = np.concatenate([(np.arange(256) + 0.5) / 256,
                          [0.0, 1.0, 0.5 - 1e-13, 0.5 + 2.0 ** -40]])[:, None]
    want = np.stack([np.array([[abs(float(x[0]) - 0.5) ** -0.5]])
                     for x in pts])
    assert np.array_equal(_torus_weight().eval(pts), want)


def test_custom_per_point_weight_powers_unchanged():
    def fn(x):
        return np.array([[1.0 + x[0] ** 2, 0.25j * x[0]],
                         [-0.25j * x[0], 2.0 + abs(x[0])]])

    W = MatrixWeight(2, fn)
    pts = np.linspace(-1.0, 1.0, 17)[:, None]
    for a in (0.5, -0.5, 1.0 / 3.0):
        want = matrix_power(np.array([fn(x) for x in pts]), a)
        assert np.array_equal(W.powers(pts, a), want)
    assert W.eval(pts[:0]).shape == (0, 2, 2)
    with pytest.raises(WeightError):
        W.eval(pts[:, 0])


def test_weight_statistics_on_presets_reach_no_per_point_callback(
        monkeypatch):
    import dwlab.weights as wmod
    from dwlab.reducing import build_family

    def refuse(fn, m):
        def batch(pts):
            raise AssertionError("a per-point weight callback was called")
        return batch

    monkeypatch.setattr(wmod, "_pointwise", refuse)
    t = Truncation(1, 0, 4, 1)
    for W in (identity_weight(2), constant_weight(np.diag([1.0, 4.0])),
              power_weight(-0.5), diag_power_weight(-0.5, -0.25)):
        p = 2.0
        build_family(W, p, t, QuadratureSpec(3))
        build_family(W, 1.0, Truncation(1, 0, 2, 1), QuadratureSpec(3),
                     backend="mvee")
        apinf_characteristic(W, p, t)
        estimate_dimensions(W, p, t)
    with pytest.raises(AssertionError):
        MatrixWeight(1, lambda x: np.eye(1)).eval(np.zeros((1, 1)))


@pytest.mark.parametrize("t", [Truncation(1, 0, 3, 1), Truncation(2, 0, 2, 1),
                               Truncation(1, -1, 3, 2), Truncation(2, 0, 2, 2)],
                         ids=["1d", "2d", "1d-extent2", "2d-extent2"])
@pytest.mark.parametrize("G", [1, 3])
def test_cube_blocks_match_per_cube_box_nodes(t, G):
    pts = window_nodes(t, G)
    assert pts.shape == ((t.cells_per_axis() * G) ** t.n, t.n)
    # one ulp of the window's largest corner: with a negative origin the
    # per-cube corner + offset sum cancels near 0
    ulp = np.spacing(max(-t.k_origin, t.k_origin + t.root_extent)
                     * 2.0 ** -t.j_min)
    for j in range(t.j_min, t.j_max + 1):
        w = G << (t.j_max - j)
        want = []
        for Q in level_cubes(t, j):
            x0, ell, _ = cube_geometry(Q)
            want.append(box_nodes(x0, x0 + ell, w)[0])
        got = cube_blocks(pts, t, G, j)
        assert got.shape == (len(want), w ** t.n, t.n)
        assert np.max(np.abs(got - np.stack(want))) <= ulp
        # trailing axes ride along: a matrix per node
        mats = cube_blocks(pts[:, :, None] * np.ones(3), t, G, j)
        assert np.array_equal(mats, got[..., None] * np.ones(3))


def test_singular_nodes_never_reach_a_per_point_weight():
    from dwlab.growth import make_growth
    from dwlab.reducing import build_family
    from dwlab.seqspace import SpaceParams, build_random, seq_norm
    from dwlab.transforms import peetre_maximal

    s = 0.0625  # a node of Truncation(1, 0, 3, 1) at G = 3 and of N = 8

    def fn(x):
        if abs(x[0] - s) < SINGULAR_TOL:
            raise AssertionError("the weight was called on its singular set")
        return np.array([[1.0 + x[0] ** 2, 0.3j], [-0.3j, 2.0]])

    W = MatrixWeight(2, fn, singular_set=[np.array([s])])
    t, quad = Truncation(1, 0, 3, 1), QuadratureSpec(3)
    assert W.is_singular_at(window_nodes(t, quad.G)).any()
    params = SpaceParams("F", 0.0, 2.0, 2.0, make_growth("power", tau=0.0),
                         mode="matrix", weight=W, quad=quad)
    assert np.isfinite(seq_norm(build_random(t, m=2, seed=3), params, t))
    for p, backend in ((2.0, "exact_p2"), (3.0, "mvee")):
        fam = build_family(W, p, t, quad, backend=backend)
        assert np.all(np.isfinite(fam.equivalence_bounds))
    assert np.isfinite(apinf_characteristic(W, 2.0, t, quad))
    vals = np.random.default_rng(5).standard_normal((8, 2)) + 0j
    pee = peetre_maximal({3: vals}, 1.5, W=W, p=2.0)
    assert ((np.arange(8) + 0.5) / 8 == s).any()
    assert np.all(np.isfinite(pee[3]))


@pytest.mark.parametrize("t", [Truncation(1, 0, 4, 1), Truncation(1, -2, 4, 2),
                               Truncation(1, -7, 0, 2), Truncation(2, -1, 1, 3)],
                         ids=["1d", "1d-extent2", "inv-f", "2d-extent3"])
@pytest.mark.parametrize("G", [1, 3, 5])
def test_window_nodes_are_within_one_ulp_of_the_midpoints(t, G):
    pts = window_nodes(t, G)
    h = Fraction(2) ** -t.j_max / G
    first = t.k_origin * G * 2 ** (t.j_max - t.j_min)
    exact = [(first + i + Fraction(1, 2)) * h
             for i in range(t.cells_per_axis() * G)]
    axis = pts.reshape((len(exact),) * t.n + (t.n,))[(0,) * (t.n - 1)][:, -1]
    # one rounding of the node spacing and one of the product: at most
    # one ulp of the node, also next to 0 on a negative origin
    for x, want in zip(axis.tolist(), exact):
        assert abs(Fraction(x) - want) <= Fraction(np.spacing(abs(x))), x
    if G == 1:  # h is a power of two: every node is exact
        assert [float(x) for x in exact] == axis.tolist()
    # the grid is the tensor product of that axis, in C order
    grid = np.stack(np.meshgrid(*[axis] * t.n, indexing="ij"), axis=-1)
    assert np.array_equal(pts, grid.reshape(-1, t.n))


def _window_nodes_fresh(t, G):
    """window_nodes' formula, built anew on every call."""
    first = t.k_origin * G << (t.j_max - t.j_min)
    axis = ((first + np.arange(t.cells_per_axis() * G) + 0.5)
            * (2.0 ** -t.j_max / G))
    grid = np.meshgrid(*[axis] * t.n, indexing="ij")
    return np.stack(grid, axis=-1).reshape(-1, t.n)


@pytest.mark.parametrize("t", [Truncation(1, -2, 4, 2), Truncation(2, -1, 1, 3),
                               Truncation(3, 0, 1, 1)])
def test_window_nodes_are_one_read_only_array_per_grid(t):
    for G in (1, 3):
        pts = window_nodes(t, G)
        assert window_nodes(t, G) is pts and not pts.flags.writeable
        with pytest.raises(ValueError):
            pts[0, 0] = 1.0
        want = _window_nodes_fresh(t, G)
        assert pts.dtype == want.dtype and np.array_equal(pts, want)
    assert window_nodes(t, 1) is not window_nodes(t, 3)
    # an equal window builds its own grid, and the window stays equal
    twin = Truncation(t.n, t.j_min, t.j_max, t.root_extent)
    assert window_nodes(twin, 3) is not window_nodes(t, 3) and twin == t


def _turning(x):
    """R(3x) diag(1, 2) R(3x)^T: a smooth m = 2 weight with no singular set
    whose eigenvectors turn across the window, so no power is diagonal."""
    th = 3.0 * x[0]
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    return R @ np.diag([1.0, 2.0]) @ R.T


def _statistic_cases():
    from dwlab.harness.experiments import _torus_weight

    return [
        ("torus", _torus_weight(), Truncation(1, 0, 4, 1)),
        ("diag", diag_power_weight(-0.5, -0.25), Truncation(1, 0, 5, 1)),
        ("sqrt", power_weight(0.5), Truncation(1, 0, 6, 2)),
        ("inv-sqrt", power_weight(-0.5), Truncation(1, -1, 5, 2)),
        ("diag-2d", diag_power_weight(-0.5, 0.5, n=2), Truncation(2, 0, 4, 1)),
        ("identity", identity_weight(2), Truncation(1, 0, 4, 1)),
        # two weights whose products are not diagonal: the LAPACK branch
        ("turning", MatrixWeight(2, _turning), Truncation(1, 0, 4, 1)),
        ("hermitian", constant_weight(np.array([[2.0, 1j], [-1j, 3.0]])),
         Truncation(1, 0, 4, 1)),
    ]


@pytest.mark.parametrize("case", range(len(_statistic_cases())),
                         ids=[c[0] for c in _statistic_cases()])
def test_weight_statistics_match_the_per_cube_oracles(case, monkeypatch):
    import oracles

    _, W, t = _statistic_cases()[case]
    dropped = []
    kept = oracles._kept_nodes

    def counted(W, pts):
        dropped.append(W.is_singular_at(pts).any())
        return kept(W, pts)

    monkeypatch.setattr(oracles, "_kept_nodes", counted)
    for p in (2.0, 1.0):
        got = [*estimate_dimensions(W, p, t), apinf_characteristic(W, p, t)]
        want = [*dimensions_per_cube(W, p, t), apinf_per_cube(W, p, t)]
        # no window node is singular here, so apinf matches to the bit
        assert not W.is_singular_at(window_nodes(t, 3)).any()
        assert got[2].hex() == want[2].hex(), p
        # a box node that the oracle drops is masked by the kernel, which
        # regroups the sums around it
        for g, w in zip(got[:2], want[:2]):
            if any(dropped):
                assert abs(g - w) <= 1e-12 * abs(w), (p, g, w)
            else:
                assert g.hex() == w.hex(), (p, g, w)
    assert any(dropped) == (case in (0, 2, 3))


def test_estimate_dimensions_evaluates_each_power_once():
    W = diag_power_weight(-0.5, -0.25)
    calls = []
    powers = W.powers

    def counted(pts, a):
        calls.append((len(pts), a))
        return powers(pts, a)

    W.powers = counted
    estimate_dimensions(W, 2.0, Truncation(1, 0, 4, 1))
    # 8 cubes, each with its own box and 4 dilates of 40 nodes
    assert calls == [(8 * 5 * 40, 0.5), (8 * 5 * 40, -0.5)]


def test_estimate_dimensions_forms_seven_eighths_of_the_products(
        monkeypatch):
    products = []
    kernel = weights._exp_log_avg

    def counted(wx, keep_x, wy_inv, keep_y, p):
        lead = np.broadcast_shapes(wx.shape[:-3], wy_inv.shape[:-3])
        products.append(int(np.prod(lead)) * wx.shape[-3] * wy_inv.shape[-3])
        return kernel(wx, keep_x, wy_inv, keep_y, p)

    monkeypatch.setattr(weights, "_exp_log_avg", counted)
    for n, g in ((1, 40), (2, 8)):
        products.clear()
        W = diag_power_weight(-0.5, -0.25, n=n)
        estimate_dimensions(W, 2.0, Truncation(n, 0, 4, 1))
        cubes = 8 if n == 1 else 12
        # both estimates pair each cube with each of its dilates; the
        # dilate by 1 is the cube itself, and that pair is formed once
        each_way = cubes * len(DILATIONS) * g ** n * g ** n
        assert sum(products) * 8 == 7 * (2 * each_way), n


def _counting_weight(calls):
    """A 2x2 weight of positive-definite array values that records the
    size of each batch its function is called on."""
    def batch(pts):
        calls.append(len(pts))
        r = np.abs(pts[:, 0])
        out = np.zeros((len(pts), 2, 2))
        out[:, 0, 0], out[:, 1, 1] = 1.0 + r, 2.0 + r * r
        out[:, 0, 1] = out[:, 1, 0] = 0.5 * r
        return out

    return MatrixWeight.from_batched(2, batch)


def test_power_at_runs_the_weight_once_per_exponent_over_seq_norm_calls():
    calls = []
    W = _counting_weight(calls)
    t, quad = Truncation(1, 0, 4, 1), QuadratureSpec(3)
    tvs = [build_random(t, m=2, seed=s, density=0.5) for s in range(4)]
    norms = 0
    for p in (2.0, 1.0):
        for family, q in (("F", 2.0), ("F", 1.0), ("B", 1.0)):
            params = SpaceParams(family, 0.0, p, q,
                                 make_growth("power", tau=0.0),
                                 mode="matrix", weight=W, quad=quad)
            for tv in tvs:
                assert seq_norm(tv, params, t) > 0.0
                norms += 1
    assert norms == 24
    R = t.cells_per_axis() * quad.G
    assert calls == [R, R] and len(W._power_cache) == 2


def test_power_at_misses_on_new_points_or_exponents_only():
    calls = []
    W = _counting_weight(calls)
    pts = window_nodes(Truncation(1, 0, 3, 1), 3)  # 24 nodes
    requests = [(pts, 0.5), (pts, 0.5), (pts.tolist(), 0.5),
                (pts[:-1], 0.5), (pts, -0.5), (pts[:-1].copy(), 0.5),
                (pts.reshape(12, 2), 0.5), (pts, -0.5)]
    grew = []
    for x, a in requests:
        before = len(W._power_cache)
        W.power_at(x, a)
        grew.append(len(W._power_cache) - before)
    # the cache grows by one entry on a miss and never on a hit
    assert grew == [1, 0, 0, 1, 1, 0, 1, 0]
    assert calls == [24, 23, 24, 12]


def test_power_at_results_are_read_only_and_per_weight():
    calls, other_calls = [], []
    W, V = _counting_weight(calls), _counting_weight(other_calls)
    pts = window_nodes(Truncation(1, 0, 3, 1), 3)
    P = W.power_at(pts, 0.5)
    assert not P.flags.writeable
    with pytest.raises(ValueError):
        P[0] = 0.0
    Q = V.power_at(pts, 0.5)
    assert calls == other_calls == [24]
    assert np.array_equal(P, Q) and not np.shares_memory(P, Q)
    assert W._power_cache is not V._power_cache
    assert W.power_at(pts, 0.5) is P and V.power_at(pts, 0.5) is Q


@pytest.mark.parametrize("W", [diag_power_weight(-0.5, -0.25),
                               power_weight(-0.5, n=2)])
def test_power_at_equals_powers_bit_for_bit(W):
    n = W.singular_set[0].size
    rng = np.random.default_rng(n)
    pts = np.concatenate([np.zeros((2, n)), rng.uniform(-1, 1, (30, n))])
    hit = W.is_singular_at(pts)
    assert hit.sum() == 2
    for a in (0.5, -0.5, 1.0 / 3.0, 1.0):
        got = W.power_at(pts, a)
        assert np.array_equal(got, W.powers(pts, a))
        assert not got[hit].any() and got[~hit].any(axis=(1, 2)).all()


def test_apinf_masks_a_singular_window_node():
    # |x - s|^{-1/2} with s a window node: the cubes around s dominate
    # the max, so a node that entered either average would show
    s, t, quad = 0.0625, Truncation(1, 0, 3, 1), QuadratureSpec(3)
    W = MatrixWeight.from_batched(
        1, lambda x: np.abs(x[:, :1, None] - s) ** -0.5, singular_set=[[s]])
    assert W.is_singular_at(window_nodes(t, quad.G)).sum() == 1
    for p in (2.0, 1.0):
        got = apinf_characteristic(W, p, t, quad)
        want = apinf_per_cube(W, p, t, quad)
        assert abs(got - want) <= 1e-12 * want, (p, got, want)


def _exp_log_avg_by_svd(wx, keep_x, wy_inv, keep_y, p):
    """_exp_log_avg with every product's norm from np.linalg.matrix_norm."""
    prods = np.einsum("...xab,...ybc->...yxac", wx, wy_inv, order="C")
    norms = np.linalg.matrix_norm(prods, ord=2) ** p
    inner = np.sum(norms, axis=-1) / np.sum(keep_x, axis=-1)[..., None]
    keep_y = np.broadcast_to(keep_y, inner.shape)
    logs = np.log(inner, out=np.zeros_like(inner), where=keep_y)
    return np.exp(np.sum(logs, axis=-1) / np.sum(keep_y, axis=-1))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exp_log_avg_1x1_norms_are_the_svd_norms(seed):
    # |a| in place of an SVD per node pair: signed entries over 16
    # decades, with masked nodes zero as MatrixWeight.powers leaves them
    rng = np.random.default_rng(seed)
    keep_x, keep_y = rng.random((6, 40)) > 0.25, rng.random((6, 30)) > 0.25
    keep_x[:, 0] = keep_y[:, 0] = True
    wx, wy = (10.0 ** rng.uniform(-8, 8, k.shape) * rng.choice([-1, 1], k.shape)
              * k for k in (keep_x, keep_y))
    wx, wy = wx[..., None, None], wy[..., None, None]
    for p in (0.5, 1.0, 2.0, 3.0):
        got = weights._exp_log_avg(wx, keep_x, wy, keep_y, p)
        want = _exp_log_avg_by_svd(wx, keep_x, wy, keep_y, p)
        assert [g.hex() for g in got] == [w.hex() for w in want], p


def _diagonal_stack(d, off=0.0):
    """Matrices [M, m, m] with diagonals d [M, m] and every other entry
    equal to off."""
    m = d.shape[-1]
    M = np.full(d.shape + (m,), off)
    M[:, range(m), range(m)] = d
    return M


def _no_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK was called")

    monkeypatch.setattr(np.linalg, "matrix_norm", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("decades", [3, 130])
def test_spectral_norms_of_diagonal_stacks_are_lapacks_bits(
        m, decades, monkeypatch):
    # signed entries over 2 * decades decades, with zeros, equal entries
    # and -0.0 off the diagonal; at m = 2 max |d| differs from LAPACK in
    # the last bit on about 1.6% of these matrices (0.16% at 130 decades)
    rng = np.random.default_rng(m + decades)
    d = (10.0 ** rng.uniform(-decades, decades, (20000, m))
         * rng.choice([-1.0, 1.0], (20000, m)))
    d[:500, 0] = 0.0
    d[500:600] = 0.0
    d[600:1100, -1] = -d[600:1100, 0]
    d[1100:1600] = d[1100:1600, :1]
    stacks = [_diagonal_stack(d), _diagonal_stack(d, off=-0.0)]
    want = [np.linalg.matrix_norm(M, ord=2) for M in stacks]
    _no_lapack(monkeypatch)
    for M, w in zip(stacks, want):
        assert np.array_equal(spectral_norms(M), w)
        assert np.array_equal(spectral_norms(M.reshape(4, -1, m, m)),
                              w.reshape(4, -1))


def _lapack_stacks():
    rng = np.random.default_rng(7)
    d = 10.0 ** rng.uniform(-3, 3, (200, 2))
    big, small, mixed = (_diagonal_stack(d) for _ in range(3))
    big[17, 1, 1] = 1.6e138
    small[17, 0, 0], small[17, 1, 1] = 6.6e-139, 5e-139
    mixed[17, 0, 1] = 1e-300
    cplx = _diagonal_stack(d).astype(complex)
    cplx[:, 0, 0] *= np.exp(1j * rng.uniform(0, 2 * np.pi, 200))
    return {"big": big, "small": small, "complex": cplx, "mixed": mixed}


@pytest.mark.parametrize("name", list(_lapack_stacks()))
def test_spectral_norms_send_other_stacks_to_lapack(name, monkeypatch):
    M = _lapack_stacks()[name]
    want = np.linalg.matrix_norm(M, ord=2)
    calls = []
    norm = np.linalg.matrix_norm

    def counted(A, **kwargs):
        calls.append(A.shape)
        return norm(A, **kwargs)

    monkeypatch.setattr(np.linalg, "matrix_norm", counted)
    assert np.array_equal(spectral_norms(M), want)
    assert calls == [M.shape]


def test_spectral_norms_outside_the_unscaled_range_differ_from_max_d():
    # dgesdd rescales there, so the diagonal read-off would be wrong
    rng = np.random.default_rng(3)
    d = 10.0 ** rng.uniform(139, 141, (2000, 2))
    M = _diagonal_stack(d)
    want = np.linalg.matrix_norm(M, ord=2)
    assert np.any(np.max(d, axis=1) != want)
    assert np.array_equal(spectral_norms(M), want)


def test_weight_statistics_of_a_diagonal_weight_call_no_lapack(monkeypatch):
    from dwlab.harness import run_experiment
    from dwlab.reducing import build_family, doubling_orders

    _no_lapack(monkeypatch)
    W = diag_power_weight(-0.5, -0.25)
    t = Truncation(1, 0, 4, 1)
    assert apinf_characteristic(W, 2.0, t) >= 1.0
    assert min(estimate_dimensions(W, 1.0, t)) >= 0.0
    assert min(doubling_orders(build_family(W, 2.0, t), t)) >= 0.0
    assert run_experiment("FS-GAMMA").passed


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weight_values_are_a_weight_error(bad):
    from dwlab.reducing import build_family

    W = MatrixWeight(2, lambda x: [[bad, 0.0], [0.0, 1.0]], label="broken")
    t, quad = Truncation(1, 0, 4, 1), QuadratureSpec(3)
    params = SpaceParams("F", 0.0, 2.0, 2.0, make_growth("power", tau=0.0),
                         mode="matrix", weight=W, quad=quad)
    calls = [lambda: apinf_characteristic(W, 2.0, t, quad),
             lambda: estimate_dimensions(W, 2.0, t),
             lambda: seq_norm(build_random(t, m=2, seed=1), params, t),
             lambda: build_family(W, 2.0, t, quad)]
    for call in calls:
        with pytest.raises(WeightError, match="broken"):
            call()
