import numpy as np
import pytest

from dwlab import reducing
from dwlab.dyadic import (CubeId, Truncation, cube_geometry, enumerate_cubes,
                          spread)
from dwlab.reducing import (
    MVEE_TOL,
    ReducingError,
    _mvee,
    build_family,
    doubling_orders,
)
from dwlab.seqspace import SpaceParams, build_single_point, seq_norm
from dwlab.growth import make_growth
from dwlab.weights import (
    MatrixWeight,
    QuadratureSpec,
    WeightError,
    box_nodes,
    constant_weight,
    diag_power_weight,
    identity_weight,
    matrix_power,
    power_weight,
    sphere_directions,
)
from oracles import identity_family


def cube_nodes(Q, t, spec):
    """Per-cube midpoint nodes of Q: G subnodes per axis in each of its
    finest-level cells (the oracle for the window grid)."""
    x0, ell, _ = cube_geometry(Q)
    return box_nodes(x0, x0 + ell, (1 << (t.j_max - Q.j)) * spec.G)


def avg_wp_z(W, p, pts, z):
    """(avg over pts of |W^{1/p}(x) z|^p)^{1/p} by the equal-weight
    midpoint rule, a singular node counting zero, for one vector z [m] or
    a batch [D, m]: the scalar MVEE oracle."""
    stack = W.powers(pts, 1.0 / p).astype(complex)
    vals = np.linalg.norm(
        np.einsum("xab,...b->x...a", stack, np.asarray(z, dtype=complex)),
        axis=-1)
    return np.mean(vals**p, axis=0) ** (1.0 / p)


def test_avg_wp_z_constant_weight_is_exact():
    W = constant_weight(np.diag([1.0, 4.0]))
    t = Truncation(1, 0, 2, 1)
    pts, _ = cube_nodes(CubeId(0, (0,)), t, QuadratureSpec(3))
    z = np.array([0.0, 1.0])
    # |W^{1/2} z| = 2 at every node
    assert abs(avg_wp_z(W, 2.0, pts, z) - 2.0) < 1e-12


def test_exact_p2_constant_diag():
    # avg_Q W = diag(1,4), so A_Q = diag(1,2) exactly
    W = constant_weight(np.diag([1.0, 4.0]))
    t = Truncation(1, 0, 2, 1)
    A = build_family(W, 2.0, t)[CubeId(1, (0,))]
    assert np.allclose(A, np.diag([1.0, 2.0]), atol=1e-12)


def test_exact_p2_scalar_linear_weight():
    # w(x) = 3x^2 on Q = [0,1): avg = 1, so A = 1 (up to quadrature)
    W = MatrixWeight(1, lambda x: np.array([[3.0 * x[0] ** 2]]))
    t = Truncation(1, 0, 0, 1)
    A = build_family(W, 2.0, t, QuadratureSpec(512))[CubeId(0, (0,))]
    assert abs(A[0, 0] - 1.0) < 1e-5


def test_exact_p2_requires_p_two():
    with pytest.raises(ReducingError):
        build_family(identity_weight(1), 1.0, Truncation(1, 0, 0, 1))


def test_mvee_scalar_matches_exact_average():
    W = power_weight(0.5)
    t = Truncation(1, 0, 2, 1)
    Q = CubeId(2, (2,))
    A = build_family(W, 3.0, t, backend="mvee")[Q]
    pts, _ = cube_nodes(Q, t, QuadratureSpec())
    want = avg_wp_z(W, 3.0, pts, np.array([1.0]))
    assert abs(A[0, 0] - want) < 1e-12


def test_mvee_agrees_with_exact_at_p2():
    W = diag_power_weight(-0.5, -0.25)
    t = Truncation(1, 0, 2, 1)
    exact = build_family(W, 2.0, t)
    mvee = build_family(W, 2.0, t, backend="mvee")
    for Q in (CubeId(0, (0,)), CubeId(2, (3,))):
        dirs = sphere_directions(2, 100)
        r_exact = np.linalg.norm(dirs @ exact[Q].T, axis=-1)
        r_mvee = np.linalg.norm(dirs @ mvee[Q].T, axis=-1)
        ratio = r_mvee / r_exact
        # John's theorem: within sqrt(m) of the exact ellipsoid
        assert np.max(ratio) / np.min(ratio) <= np.sqrt(2.0) + 1e-6


def test_build_family_identity_bounds():
    t = Truncation(1, 0, 2, 1)
    fam = build_family(identity_weight(2), 2.0, t)
    lo, hi = fam.equivalence_bounds
    assert abs(lo - 1.0) < 1e-10 and abs(hi - 1.0) < 1e-10
    assert len(enumerate_cubes(fam.truncation)) == 7
    assert fam.truncation.contains(CubeId(1, (1,)))


def test_build_family_diag_power_tight_bounds():
    t = Truncation(1, 0, 3, 1)
    fam = build_family(diag_power_weight(-0.5, -0.25), 2.0, t)
    lo, hi = fam.equivalence_bounds
    assert 0.999 <= lo <= 1.0 + 1e-9 and 1.0 - 1e-9 <= hi <= 1.001


def test_doubling_orders_identity():
    t = Truncation(1, 0, 3, 1)
    fam = identity_family(t, m=2)
    b1, b2, bw = doubling_orders(fam, t)
    assert b1 < 1e-8 and b2 < 1e-8 and bw < 1e-8


def test_doubling_orders_need_two_cubes():
    t = Truncation(1, 2, 2, 1)
    with pytest.raises(ReducingError):
        doubling_orders(identity_family(t, m=2), t)


def test_doubling_orders_reject_a_family_on_another_window():
    fam = identity_family(Truncation(1, 0, 3, 1), m=2)
    for t in (Truncation(1, 0, 2, 1), Truncation(1, 0, 3, 2),
              Truncation(2, 0, 3, 1)):
        with pytest.raises(ReducingError):
            doubling_orders(fam, t)


def test_doubling_orders_weak_exponent_power_weight():
    # |x|^{-1/2}: equal-level decay ~ sep^{-1/(2p)}, so the weak order
    # fitted on ||A_Q A_R^{-1}|| is about 1/(2p)
    p = 2.0
    t = Truncation(1, 0, 5, 1)
    fam = build_family(power_weight(-0.5), p, t)
    _, _, bw = doubling_orders(fam, t)
    assert abs(bw - 1.0 / (2.0 * p)) < 0.1


def test_family_indexing_round_trips_on_level_stacks():
    t = Truncation(2, 1, 2, 3)
    W = MatrixWeight(2, lambda x: np.diag([1.0 + x[0] ** 2, 2.0 + x[1] ** 2]))
    fam = build_family(W, 2.0, t)
    assert fam.m == 2 and fam.truncation == t
    for Q in enumerate_cubes(t):
        j, idx = t.locate(Q)
        assert np.array_equal(fam[Q], fam.levels[j][idx])
    outside = CubeId(3, (0, 0))
    assert not fam.truncation.contains(outside)
    with pytest.raises(KeyError):
        fam[outside]


def _khachiyan(X, tol):
    """Plain Khachiyan ascent (toward steps only, a full inverse per step):
    the slow oracle for the MVEE solver."""
    N, d = X.shape
    u = np.full(N, 1.0 / N)
    while True:
        Vinv = np.linalg.inv((X.T * u) @ X)
        w = np.einsum("ij,jk,ik->i", X, Vinv, X)
        i = int(np.argmax(w))
        if w[i] <= d * (1.0 + tol):
            return Vinv / w[i]
        step = (w[i] - d) / (d * (w[i] - 1.0))
        u *= 1.0 - step
        u[i] += step


def _w3(x):
    r = max(np.linalg.norm(x), 1e-300)
    return np.diag([r ** -0.25, 1.0, r ** 0.25])


def _w4(x):
    r = max(np.linalg.norm(x), 1e-300)
    return np.diag([r ** -0.5, r ** -0.25, 1.0, r ** 0.25])


def _rotating(x):
    """R(theta) diag(|x|^a, |x|^-a) R(theta)^T with a = 1/2, theta = 3x: a
    non-diagonal m = 2 weight whose eigenvectors turn across the window."""
    r, th = max(abs(x[0]), 1e-300), 3.0 * x[0]
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    return R @ np.diag([r ** 0.5, r ** -0.5]) @ R.T


def _boundary(m, D, p=1.0, Q=CubeId(1, (0,))):
    """Boundary points of the p-average unit ball, as the mvee backend
    samples them, for an m = 2, 3 or 4 weight."""
    W = (diag_power_weight(-0.5, -0.25) if m == 2
         else MatrixWeight(m, {3: _w3, 4: _w4}[m], singular_set=[np.zeros(1)]))
    dirs = sphere_directions(m, D)
    pts, _ = cube_nodes(Q, Truncation(1, 0, 2, 1), QuadratureSpec())
    return W, dirs / avg_wp_z(W, p, pts, dirs)[:, None]


def _max_leverage(E, X):
    X = np.vstack([X, -X])
    return float(np.max(np.sum((X @ E) * X, axis=1)))


@pytest.mark.parametrize("m,D", [(2, 40), (3, 60), (4, 80)])
def test_mvee_matches_khachiyan_oracle(m, D):
    _, X = _boundary(m, D)
    (E,), (iters,), (gap,) = _mvee(X[None])
    assert 0 < iters < reducing.MVEE_MAX_ITERS and 0 <= gap <= MVEE_TOL
    assert _max_leverage(E, X) <= 1.0 + 1e-12
    # both ellipsoids enclose the points within (1 + tol)^d of the optimum
    Eo = _khachiyan(X, MVEE_TOL / 4)
    assert abs(np.linalg.det(E) / np.linalg.det(Eo) - 1.0) <= m * MVEE_TOL


def test_mvee_cap_is_reported_and_still_encloses(monkeypatch):
    W, X = _boundary(2, 40)
    monkeypatch.setattr(reducing, "MVEE_MAX_ITERS", 3)
    (E,), (iters,), (gap,) = _mvee(X[None])
    assert iters == 3 and gap > MVEE_TOL
    assert _max_leverage(E, X) <= 1.0 + 1e-12
    t = Truncation(1, 0, 1, 1)
    fam = build_family(W, 1.0, t, backend="mvee")
    assert fam.mvee_capped and fam.mvee_iters == 3 and fam.mvee_gap > MVEE_TOL
    dirs = sphere_directions(2, 40)
    for Q in enumerate_cubes(t):
        rho = avg_wp_z(W, 1.0, cube_nodes(Q, t, QuadratureSpec())[0], dirs)
        assert np.max(np.linalg.norm(dirs @ fam[Q].T, axis=-1) / rho) \
            <= 1.0 + 1e-9
    exact = build_family(W, 2.0, t)
    assert (exact.mvee_gap, exact.mvee_iters, exact.mvee_capped) == (0.0, 0,
                                                                     False)


def _boundary_stack():
    """Boundary point sets of one size from several cubes, exponents and
    weights: members that need different step counts."""
    return np.stack([_boundary(2, 40, p, Q)[1] for p in (1.0, 4.0)
                     for Q in (CubeId(0, (0,)), CubeId(1, (0,)),
                               CubeId(2, (3,)))]
                    + [np.random.default_rng(5).standard_normal((40, 2))])


def test_mvee_stack_members_equal_their_solo_solves():
    X = _boundary_stack()
    E, steps, gap = _mvee(X)
    for i, x in enumerate(X):
        (Ei,), (si,), (gi,) = _mvee(x[None])
        assert steps[i] == si and abs(gap[i] - gi) <= 1e-12
        assert np.max(np.abs(E[i] - Ei)) <= 1e-13 * np.max(np.abs(Ei))


def test_mvee_stack_freezes_each_member_at_its_own_stop(monkeypatch):
    X = _boundary_stack()
    _, steps, _ = _mvee(X)
    assert len(set(steps.tolist())) >= 3
    # a cap between the step counts: the early members converge, the rest
    # stop at the cap, and every member still encloses its points
    cap = int(np.median(steps))
    monkeypatch.setattr(reducing, "MVEE_MAX_ITERS", cap)
    E, capped_steps, gap = _mvee(X)
    assert np.array_equal(capped_steps, np.minimum(steps, cap))
    early = steps <= cap
    assert early.any() and not early.all()
    assert np.all(gap[early] <= MVEE_TOL) and np.all(gap[~early] > MVEE_TOL)
    for Ei, x in zip(E, X):
        assert _max_leverage(Ei, x) <= 1.0 + 1e-12


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_mvee_family_on_a_rotating_weight(p):
    W = MatrixWeight(2, _rotating, singular_set=[np.zeros(1)])
    t = Truncation(1, 0, 3, 1)
    fam = build_family(W, p, t, backend="mvee")
    assert not fam.mvee_capped and 0.0 <= fam.mvee_gap <= MVEE_TOL
    lo, hi = fam.equivalence_bounds
    assert hi / lo <= 2.0 * np.sqrt(2.0), (lo, hi)
    dirs = sphere_directions(2, 40)
    for Q in enumerate_cubes(t):
        rho = avg_wp_z(W, p, cube_nodes(Q, t, QuadratureSpec())[0], dirs)
        X = dirs / rho[:, None]
        assert _max_leverage(fam[Q].T @ fam[Q], X) <= 1.0 + 1e-12


def test_weighted_workload_family_takes_few_newton_steps():
    # the benchmark's mvee family: first-order ascent needs thousands of
    # iterations on it, the barrier method a few dozen Newton steps
    fam = build_family(diag_power_weight(-0.5, -0.25), 1.0,
                       Truncation(1, 0, 3, 1), QuadratureSpec(3),
                       backend="mvee")
    assert 0 < fam.mvee_iters <= 150 and not fam.mvee_capped
    assert fam.mvee_gap <= MVEE_TOL


def _doubling_orders_per_pair(F, t, cap_C, pair_cap):
    """The per-pair form of doubling_orders: one SVD and one
    separation() per ordered pair Q != R of window cubes, taken from the
    row-major pairs that spread picks above pair_cap."""
    from scipy.optimize import linprog

    from dwlab.dyadic import separation

    cubes = enumerate_cubes(t)
    invs = {Q: np.linalg.inv(F[Q]) for Q in cubes}
    N = len(cubes)
    pairs = [divmod(int(f), N) for f in spread(N * N, pair_cap)]
    pairs = [(i, j) for i, j in pairs if i != j]
    rows, rhs, weak_x, weak_y = [], [], [], []
    for i, j in pairs:
        Q, R = cubes[i], cubes[j]
        v = np.log(max(np.linalg.norm(F[Q] @ invs[R], 2), 1e-300))
        ls = np.log(separation(Q, R))
        dl = (R.j - Q.j) * np.log(2.0)
        if Q.j > R.j:
            rows.append((dl - ls, -ls))
        elif Q.j < R.j:
            rows.append((-ls, -dl - ls))
        else:
            rows.append((-ls, -ls))
            if ls > np.log(2.0):
                weak_x.append(ls)
                weak_y.append(abs(v))
        rhs.append(np.log(cap_C) - v)
    res = linprog(c=[1.0, 1.0], A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=[(0, None), (0, None)], method="highs")
    bins = {}
    for x, y in zip(weak_x, weak_y):
        bins[round(x / 0.25)] = max(bins.get(round(x / 0.25), 0.0), y)
    keys = sorted(bins)
    beta_weak = 0.0
    if len(keys) >= 2:
        beta_weak = float(np.polyfit([k * 0.25 for k in keys],
                                     [bins[k] for k in keys], 1)[0])
    return float(res.x[0]), float(res.x[1]), max(beta_weak, 0.0)


@pytest.mark.parametrize("W,t,pair_cap", [
    (power_weight(-0.5), Truncation(1, 0, 5, 1), 400_000),
    (diag_power_weight(-0.5, -0.25), Truncation(1, 0, 4, 2), 400_000),
    (diag_power_weight(-0.5, -0.25), Truncation(1, 0, 5, 1), 700),
    (diag_power_weight(-0.5, 0.5, n=2), Truncation(2, 0, 2, 1), 400_000),
    (power_weight(-1.0, n=2), Truncation(2, 0, 2, 1), 150),
], ids=["1d", "1d-extent2", "1d-capped", "2d", "2d-capped"])
def test_doubling_orders_match_per_pair_oracle(W, t, pair_cap, monkeypatch):
    fam = build_family(W, 2.0, t, QuadratureSpec(2))
    # a tight C keeps the strong orders away from their floor 0
    monkeypatch.setattr(reducing, "DOUBLING_C", 1.1)
    monkeypatch.setattr(reducing, "DOUBLING_PAIR_CAP", pair_cap)
    got = doubling_orders(fam, t)
    want = _doubling_orders_per_pair(fam, t, cap_C=1.1, pair_cap=pair_cap)
    assert want[0] > 0.05
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * max(abs(w), 1.0), (got, want)


# doubling_orders at C = 1.1 as float.hex, from the all-pairs table that
# window_pairs replaced (no pair cap binds on these windows)
@pytest.mark.parametrize("W,t,want", [
    (power_weight(-0.5), Truncation(1, 0, 5, 1),
     ("0x1.dd12b33362d29p-3", "0x1.ce40d9ae51d76p-3", "0x1.cc2f7adfbda88p-3")),
    (diag_power_weight(-0.5, -0.25), Truncation(1, 0, 4, 2),
     ("0x1.cd48469a6534fp-3", "0x1.bb2ff9623aeb9p-3", "0x0.0p+0")),
    (diag_power_weight(-0.5, 0.5, n=2), Truncation(2, 0, 2, 1),
     ("0x1.66b1eb6210036p-3", "0x1.7742f4b8702f3p-3", "0x1.c0e0387a13565p-3")),
], ids=["1d", "1d-extent2", "2d"])
def test_doubling_orders_keep_their_bits_within_the_cap(W, t, want,
                                                         monkeypatch):
    fam = build_family(W, 2.0, t, QuadratureSpec(2))
    monkeypatch.setattr(reducing, "DOUBLING_C", 1.1)
    assert tuple(b.hex() for b in doubling_orders(fam, t)) == want


def _custom_singular_node():
    """A complex 2 x 2 weight singular at 1/16, which is a quadrature node
    of every cube of Truncation(1, 0, 3, 1) containing it at G = 3."""
    return MatrixWeight(2, lambda x: np.array([[1.0 + x[0] ** 2, 0.3j],
                                               [-0.3j, 2.0]]),
                        singular_set=[np.array([0.0625])])


@pytest.mark.parametrize("W,t", [
    (diag_power_weight(-0.5, -0.25), Truncation(1, 0, 5, 1)),
    (power_weight(-0.5), Truncation(1, -2, 3, 2)),
    (diag_power_weight(-0.5, 0.5, n=2), Truncation(2, 0, 2, 2)),
    (_custom_singular_node(), Truncation(1, 0, 3, 1)),
], ids=["1d", "1d-extent2", "2d", "custom-singular-node"])
def test_exact_family_matches_per_cube_average(W, t):
    spec = QuadratureSpec(3)
    fam = build_family(W, 2.0, t, spec)
    for Q in enumerate_cubes(t):
        pts, _ = cube_nodes(Q, t, spec)
        assert W.is_singular_at(pts).sum() <= 1
        # a singular node counts as the zero matrix
        want = matrix_power(np.mean(W.eval(pts), axis=0), 0.5)
        assert np.max(np.abs(fam[Q] - want)) <= 1e-14 * np.max(np.abs(want))


def test_matrix_and_averaging_norms_agree_on_singular_nodes():
    # p = q = 2: int_Q |W^{1/2} z|^2 = |A_Q z|^2 |Q| on every cube, also
    # on the cubes whose quadrature nodes include the singular point
    W, t, quad = _custom_singular_node(), Truncation(1, 0, 3, 1), \
        QuadratureSpec(3)
    v = make_growth("power", tau=0.0)
    pm = SpaceParams("F", 0.0, 2, 2, v, mode="matrix", weight=W, quad=quad)
    pa = SpaceParams("F", 0.0, 2, 2, v, mode="averaging",
                     reducing=build_family(W, 2, t, quad))
    z = np.array([1.0 + 0.5j, -0.25])
    cubes = enumerate_cubes(t)
    assert sum(bool(W.is_singular_at(cube_nodes(Q, t, quad)[0]).any())
               for Q in cubes) == 4
    for Q in cubes:
        tv = build_single_point(Q, z, t)
        assert abs(seq_norm(tv, pm, t) / seq_norm(tv, pa, t) - 1.0) <= 1e-12


def test_a_cube_with_only_singular_nodes_is_an_error():
    # G = 1 on one cube: its only node, the midpoint, is singular
    W = MatrixWeight(1, lambda x: np.array([[1.0 + x[0]]]),
                     singular_set=[np.array([0.5])])
    t, quad = Truncation(1, 0, 0, 1), QuadratureSpec(1)
    for p, backend in ((2.0, "exact_p2"), (3.0, "mvee")):
        with pytest.raises(WeightError):
            build_family(W, p, t, quad, backend=backend)
