"""Reducing operators: per-cube matrices A_Q with |A_Q z| comparable to
the L^p cube average of |W^{1/p}(x) z|.

For p = 2 the average is itself a quadratic form and A_Q = (avg_Q W)^{1/2}
is exact.  For p != 2 the unit ball of the average norm is a symmetric
convex (p >= 1) body; we sample its boundary along quasi-uniform
directions and fit the minimum-volume enclosing ellipsoid with the
Wolfe-Atwood iteration with away steps, which is within a factor
sqrt(m) of the body by John's theorem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dyadic import (CubeId, DwlabError, Truncation, check_exponent, spread,
                     window_pairs)
from .weights import (
    MatrixWeight,
    QuadratureSpec,
    WeightError,
    cube_blocks,
    matrix_power,
    sphere_directions,
    window_nodes,
)

MVEE_TOL = 1e-4
MVEE_MAX_ITERS = 20_000
VALIDATION_CUBE_CAP = 24  # build_family validates on at most this many cubes
VALIDATION_DIRS = 200  # random directions per validated cube
VALIDATION_SEED = 11
DOUBLING_C = 4.0  # the constant C at which doubling_orders fits its orders
DOUBLING_PAIR_CAP = 400_000  # doubling_orders' cube pairs; spread above it


class ReducingError(DwlabError):
    pass


def _rho_values(wp, dirs, p):
    """(avg_Q |W^{1/p}(x) z_i|^p)^{1/p} for a batch of directions [D, m],
    from W^{1/p} on each cube's nodes [c, M, m, m] -> [c, D]."""
    vals = np.linalg.norm(
        np.einsum("cxab,db->cxda", wp, dirs.astype(wp.dtype)), axis=-1)
    rho = np.mean(vals**p, axis=1) ** (1.0 / p)
    if not np.all(rho > 0):
        raise WeightError("a cube average vanishes (all nodes singular?)")
    return rho


def _mvee_centered(points):
    """Centered minimum-volume enclosing ellipsoid of the +-points.

    Returns (E, iterations, gap): E is PD with {x : x^T E x <= 1} enclosing
    every +-point, gap = max leverage / d - 1.  The leverage x^T V^{-1} x
    of V = sum u_i x_i x_i^T is even in x, so the points alone carry the
    iteration.  Each step moves weight toward the point of largest
    leverage w_max or, when the smallest leverage w_min over the supported
    points is further from d (d - w_min > w_max - d), away from that
    point, possibly to zero weight (Wolfe-Atwood away steps, linear
    convergence: Todd-Yildirim 2007).  The final ellipsoid is scaled by
    the exact worst leverage, so that it encloses the points at any stop.
    """
    X = np.asarray(points, dtype=float)
    N, d = X.shape
    u, it = np.full(N, 1.0 / N), 0
    while True:
        Vinv = np.linalg.inv((X.T * u) @ X)
        w = np.sum((X @ Vinv) * X, axis=1)
        i = int(np.argmax(w))
        if w[i] <= d * (1.0 + MVEE_TOL) or it == MVEE_MAX_ITERS:
            break
        supp = np.flatnonzero(u > 0.0)
        k = int(supp[np.argmin(w[supp])])
        drop = -u[k] / (1.0 - u[k])  # the away step that zeroes u[k]
        if w[i] - d >= d - w[k]:
            tau = (w[i] - d) / (d * (w[i] - 1.0))
        else:
            i = k
            tau = drop if w[k] <= 1.0 else max(
                (w[k] - d) / (d * (w[k] - 1.0)), drop)
        u *= 1.0 - tau
        u[i] = 0.0 if tau == drop else u[i] + tau
        it += 1
    return Vinv / w[i], it, w[i] / d - 1.0


def _mvee_level(wp, p, m):
    """MVEE operators [c, m, m] from W^{1/p} on each cube's nodes
    [c, M, m, m], and the solver's (E, iterations, gap) per cube."""
    if m == 1:
        # scalar case: the "ellipsoid" is the exact interval
        return _rho_values(wp, np.ones((1, 1)), p)[:, :, None], []
    dirs = sphere_directions(m, max(40, 20 * m * m))
    runs = [_mvee_centered(dirs / rho[:, None])
            for rho in _rho_values(wp, dirs, p)]
    E = np.stack([E for E, _, _ in runs])
    return matrix_power(0.5 * (E + np.swapaxes(E, -1, -2)), 0.5), runs


@dataclass
class ReducingFamily:
    """Reducing operators on every window cube plus validation data;
    levels[j] stacks the level-j operators like CoeffSeq levels, shape
    truncation.level_shape(j) + (m, m)."""

    p: float
    backend: str
    truncation: Truncation
    levels: dict = field(default_factory=dict)
    equivalence_bounds: tuple = (1.0, 1.0)
    # MVEE solver report over all cubes (zeros for exact families)
    mvee_gap: float = 0.0
    mvee_iters: int = 0
    mvee_capped: bool = False

    @property
    def m(self):
        return next(iter(self.levels.values())).shape[-1]

    def __getitem__(self, Q: CubeId):
        at = self.truncation.locate(Q)
        if at is None:
            raise KeyError(Q)
        return self.levels[at[0]][at[1]]


def build_family(W: MatrixWeight, p, t: Truncation, spec=None,
                 backend="exact_p2"):
    """Reducing operators for every window cube, with empirical
    equivalence bounds from VALIDATION_DIRS random directions on at most
    VALIDATION_CUBE_CAP cubes (spread over the window) and, for the
    mvee backend, the solver's worst gap, largest iteration count and
    whether it hit MVEE_MAX_ITERS.

    Every cube average reads the window_nodes grid: W (exact_p2) and
    W^{1/p} (mvee and validation) are evaluated once per window.
    """
    if backend not in ("exact_p2", "mvee"):
        raise ReducingError(f"unknown backend: {backend}")
    check_exponent(p, "p", ReducingError)
    if np.isinf(p):
        raise ReducingError("reducing operators need a finite p")
    if backend == "exact_p2" and p != 2:
        raise ReducingError("exact_p2 backend requires p = 2")
    G = (spec or QuadratureSpec()).G
    pts, js = window_nodes(t, G), range(t.j_min, t.j_max + 1)
    wp = W.powers(pts, 1.0 / p)
    blocks = {j: cube_blocks(wp, t, G, j) for j in js}
    ops, runs = {}, []
    if backend == "exact_p2":
        w = W.eval(pts)
        for j in js:
            ops[j] = matrix_power(np.mean(cube_blocks(w, t, G, j), axis=1), 0.5)
    else:
        for j in js:  # one solver run per cube, level by level
            ops[j], level_runs = _mvee_level(blocks[j], p, W.m)
            runs += level_runs
    iters = max((it for _, it, _ in runs), default=0)
    fam = ReducingFamily(p=p, backend=backend, truncation=t, levels={
        j: A.reshape(t.level_shape(j) + (W.m, W.m)) for j, A in ops.items()},
        mvee_gap=max((gap for *_, gap in runs), default=0.0),
        mvee_iters=iters, mvee_capped=iters >= MVEE_MAX_ITERS)
    rng = np.random.default_rng(VALIDATION_SEED)
    sample = [(j, i) for j in js for i in range(len(blocks[j]))]
    lo, hi = np.inf, 0.0
    for s in spread(len(sample), VALIDATION_CUBE_CAP):
        j, i = sample[s]
        z = rng.standard_normal((VALIDATION_DIRS, W.m))
        z /= np.linalg.norm(z, axis=-1, keepdims=True)
        A = ops[j][i]
        az = np.linalg.norm(np.einsum("ab,db->da", A, z.astype(A.dtype)),
                            axis=-1)
        ratios = az / _rho_values(blocks[j][i:i + 1], z, p)[0]
        lo = min(lo, float(np.min(ratios)))
        hi = max(hi, float(np.max(ratios)))
    fam.equivalence_bounds = (lo, hi)
    return fam


def doubling_orders(F: ReducingFamily, t: Truncation):
    """Fit (beta1, beta2, beta_weak) for the family's cross-cube growth.

    The strong orders are the smallest (beta1, beta2) >= 0 with

        ||A_Q A_R^{-1}|| <= C * max{(lR/lQ)^b1, (lQ/lR)^b2} * sep^{b1+b2}

    holding at C = DOUBLING_C over the window pairs (a small linear
    program): every ordered pair Q != R, or those among the
    DOUBLING_PAIR_CAP pairs that window_pairs picks above that cap.
    beta_weak is the least-squares slope of the upper envelope of
    log||A_Q A_R^{-1}|| against log sep over equal-level pairs (each
    unordered pair contributes max(v, -v), since the ordered pairs come
    in reciprocal couples whose raw slopes cancel).  F must live on the
    window t (ReducingError otherwise).
    """
    from scipy.optimize import linprog

    if F.truncation != t:
        raise ReducingError(f"family lives on {F.truncation}, not on {t}")
    A = np.concatenate([F.levels[j].reshape(-1, F.m, F.m)
                        for j in range(t.j_min, t.j_max + 1)])
    if len(A) < 2:
        raise ReducingError("doubling orders need two window cubes or more")
    Ainv = np.linalg.inv(A)
    # ordered pairs Q != R, row-major, and ||A_Q A_R^{-1}|| on them
    pairs = [[a[I != J] for a in (I, J, dj, sep)]
             for I, J, dj, sep in window_pairs(t, DOUBLING_PAIR_CAP)]
    v = np.log(np.maximum(np.concatenate(
        [np.linalg.matrix_norm(A[I] @ Ainv[J], ord=2) for I, J, *_ in pairs]),
        1e-300))
    dj = np.concatenate([dj for _, _, dj, _ in pairs])
    ls = np.log(np.concatenate([sep for *_, sep in pairs]))
    dl = -dj * np.log(2.0)  # log(ell(Q)/ell(R))
    # ell(Q) < ell(R): branch (lR/lQ)^b1; ell(Q) > ell(R): (lQ/lR)^b2
    rows = np.stack([np.where(dj > 0, dl - ls, -ls),
                     np.where(dj < 0, -dl - ls, -ls)], axis=-1)
    weak = (dj == 0) & (ls > np.log(2.0))
    weak_x, weak_y = ls[weak], np.abs(v[weak])
    res = linprog(c=[1.0, 1.0], A_ub=rows, b_ub=np.log(DOUBLING_C) - v,
                  bounds=[(0, None), (0, None)], method="highs")
    if not res.success:
        raise ReducingError(f"doubling-order fit infeasible: {res.message}")
    beta1, beta2 = float(res.x[0]), float(res.x[1])
    # envelope fit: bin by log sep, keep the worst pair in each bin
    keys, bin_of = np.unique(np.round(weak_x / 0.25), return_inverse=True)
    envelope = np.zeros(len(keys))
    np.maximum.at(envelope, bin_of, weak_y)
    beta_weak = 0.0
    if len(keys) >= 2:
        beta_weak = float(np.polyfit(keys * 0.25, envelope, 1)[0])
    return beta1, beta2, max(beta_weak, 0.0)

