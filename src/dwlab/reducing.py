"""Reducing operators: per-cube matrices A_Q with |A_Q z| comparable to
the L^p cube average of |W^{1/p}(x) z|.

For p = 2 the average is itself a quadratic form and A_Q = (avg_Q W)^{1/2}
is exact.  For p != 2 the unit ball of the average norm is a symmetric
convex (p >= 1) body; we sample its boundary along quasi-uniform
directions and fit the minimum-volume enclosing ellipsoid, which is
within a factor sqrt(m) of the body by John's theorem, for all window
cubes in one primal log-barrier Newton solve (Sun and Freund, Oper.
Res. 52 (2004)).  Equivalence bounds are computed on first read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .dyadic import (CubeId, DwlabError, Truncation, check_exponent,
                     pair_separations, spread, window_pairs)
from .weights import (
    MatrixWeight,
    QuadratureSpec,
    WeightError,
    cube_blocks,
    matrix_power,
    spectral_norms,
    sphere_directions,
    window_nodes,
)

MVEE_TOL = 1e-4
MVEE_MAX_ITERS = 500  # Newton steps; the largest seen is 199 (m = 4, p = 1)
# the start's largest x^T E x, the first t, and t's growth factor once a
# cube is centred (squared Newton decrement below MVEE_CENTRED)
MVEE_START, MVEE_T0, MVEE_GROWTH, MVEE_CENTRED = 0.99, 1e3, 8.0, 1e-2
VALIDATION_CUBE_CAP = 24  # equivalence_bounds reads at most this many cubes
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


def _mvee(X):
    """Centered minimum-volume enclosing ellipsoids of the +-points of a
    stack X [c, N, m] -> (E [c, m, m], steps [c], gap [c]).

    Each member minimises t (-log det E) - sum_i log(1 - x_i^T E x_i)
    over svec(E) by Newton steps damped to 1/(1 + decrement), feasible
    by self-concordance without a line search, so the stack moves in
    lockstep; t grows once a member is centred.  A member stops when the
    leverages w = x^T V(u)^{-1} x of the dual design u ~ 1/(1 - x^T E x)
    have max w <= m (1 + MVEE_TOL), or at MVEE_MAX_ITERS steps, with
    E = V(u)^{-1} / max w (enclosing every +-point) and gap = max w / m - 1.
    """
    c, N, m = X.shape
    a, b = np.triu_indices(m)
    h = np.where(a == b, 1.0, 2.0)
    B = np.zeros((len(a), m, m))  # E = sum_k e_k B_k with e = E[a, b]
    B[np.arange(len(a)), a, b] = B[np.arange(len(a)), b, a] = 1.0
    # x_i^T E x_i = e . S[:, :, i] and sum_i u_i x_i x_i^T = B (S u / h)
    S = np.swapaxes(X[..., a] * X[..., b] * h, 1, 2).copy()
    e = np.linalg.inv(np.tensordot(np.mean(S, axis=2) / h, B, 1))[:, a, b]
    e *= MVEE_START / np.max((e[:, None] @ S)[:, 0], axis=1)[:, None]
    t = np.full(c, MVEE_T0)
    E, steps, gap = np.empty((c, m, m)), np.zeros(c, dtype=int), np.empty(c)
    live, step = np.arange(c), 0
    while live.size:  # temporaries are at most [c, N, m(m+1)/2]
        slack = 1.0 - (e[:, None] @ S)[:, 0]
        q = (S @ (1.0 / slack)[..., None])[..., 0]
        Vinv = np.linalg.inv(np.tensordot(q / h, B, 1)) * np.sum(
            1.0 / slack, axis=1)[:, None, None]  # V(u)^{-1}
        w = np.max((Vinv[:, None, a, b] @ S)[:, 0], axis=1)
        stop = (w <= m * (1.0 + MVEE_TOL)) | (step >= MVEE_MAX_ITERS)
        if stop.any():  # freeze the stopped members and drop them
            E[live[stop]] = Vinv[stop] / w[stop, None, None]
            gap[live[stop]], steps[live[stop]] = w[stop] / m - 1.0, step
            go = ~stop
            live, S, e, t, q, slack = (v[go] for v in (live, S, e, t, q, slack))
        P = np.linalg.inv(np.tensordot(e, B, 1))
        PBP = P[:, None] @ B @ P[:, None]  # the Hessian of -log det E
        g = q - t[:, None] * h * P[:, a, b]
        H = (t[:, None, None] * h * PBP[:, :, a, b]
             + (S / slack[:, None] ** 2) @ np.swapaxes(S, 1, 2))
        d = np.linalg.solve(H, -g[..., None])[..., 0]
        lam2 = np.maximum(-np.sum(g * d, axis=-1), 0.0)
        e = e + d / (1.0 + np.sqrt(lam2))[:, None]
        t = np.where(lam2 < MVEE_CENTRED, t * MVEE_GROWTH, t)
        step += 1
    return E, steps, gap


@dataclass
class ReducingFamily:
    """Reducing operators on every window cube; levels[j] stacks the
    level-j operators like CoeffSeq levels, shape
    truncation.level_shape(j) + (m, m)."""

    p: float
    truncation: Truncation
    levels: dict = field(default_factory=dict)
    # MVEE solver report over all cubes (zeros for exact families)
    mvee_gap: float = 0.0
    mvee_iters: int = 0
    mvee_capped: bool = False
    # the (W, G) that built the family; None for one built by hand
    source: tuple = field(default=None, repr=False, compare=False)

    @property
    def m(self):
        return next(iter(self.levels.values())).shape[-1]

    def __getitem__(self, Q: CubeId):
        at = self.truncation.locate(Q)
        if at is None:
            raise KeyError(Q)
        return self.levels[at[0]][at[1]]

    @functools.cached_property
    def equivalence_bounds(self):
        """Empirical (lo, hi) of |A_Q z| / (avg_Q |W^{1/p} z|^p)^{1/p}
        over VALIDATION_DIRS random unit z on at most VALIDATION_CUBE_CAP
        cubes spread over the window; (1, 1) without a source."""
        if self.source is None:
            return (1.0, 1.0)
        W, G = self.source
        t, p, m = self.truncation, self.p, self.m
        wp = W.power_at(window_nodes(t, G), 1.0 / p)
        blocks = {j: cube_blocks(wp, t, G, j) for j in self.levels}
        rng = np.random.default_rng(VALIDATION_SEED)
        sample = [(j, i) for j, blk in blocks.items() for i in range(len(blk))]
        ratios = []
        for s in spread(len(sample), VALIDATION_CUBE_CAP):
            j, i = sample[s]
            z = rng.standard_normal((VALIDATION_DIRS, m))
            z /= np.linalg.norm(z, axis=-1, keepdims=True)
            A = self.levels[j].reshape(-1, m, m)[i]
            az = np.linalg.norm(np.einsum("ab,db->da", A, z.astype(A.dtype)),
                                axis=-1)
            ratios.append(az / _rho_values(blocks[j][i:i + 1], z, p)[0])
        ratios = np.concatenate(ratios)
        return (float(np.min(ratios)), float(np.max(ratios)))


def build_family(W: MatrixWeight, p, t: Truncation, spec=None,
                 backend="exact_p2"):
    """Reducing operators for every window cube and, for the mvee
    backend, the solver's worst gap, largest Newton step count and
    whether it hit MVEE_MAX_ITERS.

    Every cube average reads the window_nodes grid: W (exact_p2) or
    W^{1/p} (mvee) is evaluated once per window, and the mvee backend
    fits the ellipsoids of all window cubes in one solver call.
    """
    if backend not in ("exact_p2", "mvee"):
        raise ReducingError(f"unknown backend: {backend}")
    check_exponent(p, "p", ReducingError)
    if np.isinf(p):
        raise ReducingError("reducing operators need a finite p")
    if backend == "exact_p2" and p != 2:
        raise ReducingError("exact_p2 backend requires p = 2")
    G, m = (spec or QuadratureSpec()).G, W.m
    pts, js = window_nodes(t, G), range(t.j_min, t.j_max + 1)
    iters, gap = 0, 0.0
    if backend == "exact_p2":
        w = W.eval(pts)
        A = np.concatenate([matrix_power(
            np.mean(cube_blocks(w, t, G, j), axis=1), 0.5) for j in js])
    else:
        wp = W.power_at(pts, 1.0 / p)
        dirs = sphere_directions(m, max(40, 20 * m * m))
        rho = np.concatenate([_rho_values(cube_blocks(wp, t, G, j), dirs, p)
                              for j in js])
        if m == 1:  # scalar case: the "ellipsoid" is the exact interval
            A = rho[:, :, None]
        else:
            E, steps, gaps = _mvee(dirs / rho[..., None])
            iters, gap = int(np.max(steps)), float(np.max(gaps))
            A = matrix_power(0.5 * (E + np.swapaxes(E, -1, -2)), 0.5)
    ends = np.cumsum([np.prod(t.level_shape(j)) for j in js])[:-1]
    return ReducingFamily(p=p, truncation=t, levels={
        j: a.reshape(t.level_shape(j) + (m, m))
        for j, a in zip(js, np.split(A, ends))}, mvee_gap=gap,
        mvee_iters=iters, mvee_capped=iters >= MVEE_MAX_ITERS,
        source=(W, G))


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
    window t (ReducingError otherwise).  The norms are ``spectral_norms``
    of the stacked products, read off the diagonals when every A_Q is
    diagonal (a diagonal weight's exact_p2 family) and by SVD otherwise.
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
    sep = pair_separations(t)
    pairs = [[a[I != J] for a in (I, J, dj, sep(I, J))]
             for I, J, dj in window_pairs(t, DOUBLING_PAIR_CAP)]
    v = np.log(np.maximum(np.concatenate(
        [spectral_norms(A[I] @ Ainv[J]) for I, J, *_ in pairs]),
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

