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

from .dyadic import CubeId, DwlabError, Truncation, enumerate_cubes
from .weights import (
    MatrixWeight,
    QuadratureSpec,
    WeightError,
    _radius,
    box_nodes,
    cube_nodes,
    matrix_power,
    sphere_directions,
    wp_stack,
)

MVEE_TOL = 1e-4
MVEE_MAX_ITERS = 20_000
VALIDATION_CUBE_CAP = 24  # build_family validates on at most this many cubes
VALIDATION_SEED = 11
PAIR_SEED = 5  # doubling_orders' pair subsample above pair_cap


class ReducingError(DwlabError):
    pass


def _rho_values(W, p, Q, t, spec, dirs):
    """(avg_Q |W^{1/p}(x) z_i|^p)^{1/p} for a batch of directions."""
    pts, _ = cube_nodes(Q, t, spec)
    pts, stack = wp_stack(W, p, pts)
    vals = np.linalg.norm(
        np.einsum("xab,db->xda", stack, dirs.astype(stack.dtype)), axis=-1
    )
    return np.mean(vals**p, axis=0) ** (1.0 / p)


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


def _exact_p2(W, p, t, spec, j, ks):
    """(avg_Q W)^{1/2} for the level-j cubes with corners ks [c, n], from
    one evaluation of W over all their cube_nodes (singular ones dropped)."""
    if p != 2:
        raise ReducingError("exact_p2 backend requires p = 2")
    x0 = ks * 2.0 ** -j
    pts, _ = box_nodes(x0, x0 + 2.0 ** -j, (1 << (t.j_max - j)) * spec.G)
    keep = ~W.is_singular_at(pts)
    if not keep.any(axis=1).all():
        raise WeightError("all quadrature nodes singular")
    vals = W.eval(pts[keep])
    per_cube = np.zeros(keep.shape + vals.shape[1:], dtype=vals.dtype)
    per_cube[keep] = vals
    avg = per_cube.sum(axis=1) / keep.sum(axis=1)[:, None, None]
    return matrix_power(avg, 0.5)


def _reduce(W, p, Q, t, spec, backend):
    """(A_Q, solver iterations, solver gap); both are 0 off the MVEE path."""
    if backend == "exact_p2":
        return _exact_p2(W, p, t, spec, Q.j, np.array([Q.k]))[0], 0, 0.0
    if backend != "mvee":
        raise ReducingError(f"unknown backend: {backend}")
    if W.m == 1:
        # scalar case: the "ellipsoid" is the exact interval
        rho = _rho_values(W, p, Q, t, spec, np.ones((1, 1)))
        return np.array([[rho[0]]]), 0, 0.0
    dirs = sphere_directions(W.m, max(40, 20 * W.m * W.m))
    rho = _rho_values(W, p, Q, t, spec, dirs)
    E, iters, gap = _mvee_centered(dirs / rho[:, None])
    return matrix_power(0.5 * (E + E.T), 0.5), iters, gap


def reduce_cube(W: MatrixWeight, p, Q: CubeId, t: Truncation,
                spec: QuadratureSpec = None, backend="exact_p2"):
    """One reducing operator A_Q (Hermitian PD m x m)."""
    return _reduce(W, p, Q, t, spec or QuadratureSpec(), backend)[0]


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

    def __contains__(self, Q):
        return self.truncation.contains(Q)

    def cubes(self):
        return enumerate_cubes(self.truncation)


def identity_family(t: Truncation, m=1, p=2):
    levels = {j: np.tile(np.eye(m), t.level_shape(j) + (1, 1))
              for j in range(t.j_min, t.j_max + 1)}
    return ReducingFamily(p=p, backend="exact_p2", truncation=t, levels=levels)


def build_family(W: MatrixWeight, p, t: Truncation, spec=None,
                 backend="exact_p2", validation_dirs=200):
    """Reducing operators for every window cube, with empirical
    equivalence bounds from random validation directions and, for the
    mvee backend, the solver's worst gap, largest iteration count and
    whether it hit MVEE_MAX_ITERS."""
    spec = spec or QuadratureSpec()
    levels, runs = {}, [(None, 0, 0.0)]
    for j in range(t.j_min, t.j_max + 1):
        if backend == "exact_p2":  # one batch per level
            A = _exact_p2(W, p, t, spec, j, t.level_k(j).reshape(-1, t.n))
        else:
            ops = [_reduce(W, p, Q, t, spec, backend)
                   for Q in enumerate_cubes(t, level=j)]
            runs += ops
            A = [op[0] for op in ops]
        levels[j] = np.reshape(A, t.level_shape(j) + (W.m, W.m))
    iters = max(op[1] for op in runs)
    fam = ReducingFamily(p=p, backend=backend, truncation=t, levels=levels,
                         mvee_gap=max(op[2] for op in runs), mvee_iters=iters,
                         mvee_capped=iters >= MVEE_MAX_ITERS)
    rng = np.random.default_rng(VALIDATION_SEED)
    sample = fam.cubes()
    if len(sample) > VALIDATION_CUBE_CAP:
        idx = np.linspace(0, len(sample) - 1, VALIDATION_CUBE_CAP).astype(int)
        sample = [sample[i] for i in idx]
    lo, hi = np.inf, 0.0
    for Q in sample:
        z = rng.standard_normal((validation_dirs, W.m))
        z /= np.linalg.norm(z, axis=-1, keepdims=True)
        rho = _rho_values(W, p, Q, t, spec, z)
        az = np.linalg.norm(
            np.einsum("ab,db->da", fam[Q], z.astype(fam[Q].dtype)), axis=-1
        )
        ratios = az / rho
        lo = min(lo, float(np.min(ratios)))
        hi = max(hi, float(np.max(ratios)))
    fam.equivalence_bounds = (lo, hi)
    return fam


def doubling_orders(F: ReducingFamily, t: Truncation, cap_C=4.0,
                    pair_cap=400_000):
    """Fit (beta1, beta2, beta_weak) for the family's cross-cube growth.

    The strong orders are the smallest (beta1, beta2) >= 0 with

        ||A_Q A_R^{-1}|| <= C * max{(lR/lQ)^b1, (lQ/lR)^b2} * sep^{b1+b2}

    holding at C = cap_C over all window pairs (a small linear program).
    beta_weak is the least-squares slope of the upper envelope of
    log||A_Q A_R^{-1}|| against log sep over equal-level pairs (each
    unordered pair contributes max(v, -v), since the ordered pairs come
    in reciprocal couples whose raw slopes cancel).  F must live on the
    window t (ReducingError otherwise).
    """
    from scipy.optimize import linprog

    if F.truncation != t:
        raise ReducingError(f"family lives on {F.truncation}, not on {t}")
    js = range(t.j_min, t.j_max + 1)
    A = np.concatenate([F.levels[j].reshape(-1, F.m, F.m) for j in js])
    if len(A) < 2:
        raise ReducingError("doubling orders need two window cubes or more")
    Ainv = np.linalg.inv(A)
    # ordered pairs (i, j), i != j, row-major
    I, J = np.nonzero(~np.eye(len(A), dtype=bool))
    if len(I) > pair_cap:
        rng = np.random.default_rng(PAIR_SEED)
        sel = rng.choice(len(I), size=pair_cap, replace=False)
        I, J = I[sel], J[sel]
    # ||A_Q A_R^{-1}|| over the pairs, in blocks to bound the memory
    v = np.log(np.maximum(np.concatenate(
        [np.linalg.matrix_norm(A[I[s:s + 4096]] @ Ainv[J[s:s + 4096]],
                               ord=2) for s in range(0, len(I), 4096)]),
        1e-300))
    # separation(Q, R) from the lower corners and edge lengths
    ks = [t.level_k(j).reshape(-1, t.n) for j in js]
    lev = np.concatenate([np.full(len(k), j) for j, k in zip(js, ks)])
    ell = np.ldexp(1.0, -lev)
    x = np.concatenate(ks) * ell[:, None]
    ls = np.log(1.0 + _radius(x[I] - x[J]) / np.maximum(ell[I], ell[J]))
    dl = (lev[J] - lev[I]) * np.log(2.0)  # log(ell(Q)/ell(R))
    # ell(Q) < ell(R): branch (lR/lQ)^b1; ell(Q) > ell(R): (lQ/lR)^b2
    rows = np.stack([np.where(lev[I] > lev[J], dl - ls, -ls),
                     np.where(lev[I] < lev[J], -dl - ls, -ls)], axis=-1)
    weak = (lev[I] == lev[J]) & (ls > np.log(2.0))
    weak_x, weak_y = ls[weak], np.abs(v[weak])
    res = linprog(c=[1.0, 1.0], A_ub=rows, b_ub=np.log(cap_C) - v,
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

