"""Reducing operators: per-cube matrices A_Q with |A_Q z| comparable to
the L^p cube average of |W^{1/p}(x) z|.

For p = 2 the average is itself a quadratic form and A_Q = (avg_Q W)^{1/2}
is exact.  For p != 2 the unit ball of the average norm is a symmetric
convex (p >= 1) body; we sample its boundary along quasi-uniform
directions and fit the minimum-volume enclosing ellipsoid with the
centered Khachiyan iteration, which is within a factor sqrt(m) of the
body by John's theorem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dyadic import CubeId, DwlabError, Truncation, enumerate_cubes
from .weights import (
    MatrixWeight,
    QuadratureSpec,
    WeightError,
    cube_nodes,
    matrix_power,
    op_norm,
    sphere_directions,
    wp_stack,
)

MVEE_TOL = 1e-4
MVEE_MAX_ITERS = 20_000


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
    """Centered minimum-volume enclosing ellipsoid of +-points.

    Returns the PD matrix E with {x : x^T E x <= 1} enclosing all the
    points, by Khachiyan's barycentric-coordinate ascent specialized to
    the origin-symmetric case.  The ascent has a sublinear tail, so the
    loop targets a modest duality gap and the final ellipsoid is scaled
    by the exact worst leverage, which guarantees enclosure at any stop.
    """
    X = np.asarray(points, dtype=float)
    N, d = X.shape
    u = np.full(N, 1.0 / N)
    for _ in range(MVEE_MAX_ITERS):
        V = (X.T * u) @ X
        w = np.einsum("ij,jk,ik->i", X, np.linalg.inv(V), X)
        i = int(np.argmax(w))
        wmax = w[i]
        if wmax <= d * (1.0 + MVEE_TOL):
            break
        step = (wmax - d) / (d * (wmax - 1.0))
        u *= 1.0 - step
        u[i] += step
    V = (X.T * u) @ X
    Vinv = np.linalg.inv(V)
    wmax = float(np.max(np.einsum("ij,jk,ik->i", X, Vinv, X)))
    return Vinv / wmax


def reduce_cube(W: MatrixWeight, p, Q: CubeId, t: Truncation,
                spec: QuadratureSpec = None, backend="exact_p2",
                directions=None):
    """One reducing operator A_Q (Hermitian PD m x m)."""
    spec = spec or QuadratureSpec()
    m = W.m
    if backend == "exact_p2":
        if p != 2:
            raise ReducingError("exact_p2 backend requires p = 2")
        pts, _ = cube_nodes(Q, t, spec)
        pts = pts[~W.is_singular_at(pts)]
        if len(pts) == 0:
            raise WeightError("all quadrature nodes singular")
        avg = np.mean(np.stack([W(x) for x in pts]), axis=0)
        return matrix_power(avg, 0.5)
    if backend != "mvee":
        raise ReducingError(f"unknown backend: {backend}")
    if m == 1:
        # scalar case: the "ellipsoid" is the exact interval
        rho = _rho_values(W, p, Q, t, spec, np.ones((1, 1)))
        return np.array([[rho[0]]])
    D = directions or max(40, 20 * m * m)
    dirs = sphere_directions(m, D)
    rho = _rho_values(W, p, Q, t, spec, dirs)
    boundary = dirs / rho[:, None]
    E = _mvee_centered(np.vstack([boundary, -boundary]))
    return matrix_power(0.5 * (E + E.T), 0.5)


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
                 backend="exact_p2", validation_dirs=200,
                 validation_cube_cap=24, seed=11):
    """Reducing operators for every window cube, with empirical
    equivalence bounds from random validation directions."""
    spec = spec or QuadratureSpec()
    levels = {}
    for j in range(t.j_min, t.j_max + 1):
        ops = [reduce_cube(W, p, Q, t, spec, backend)
               for Q in enumerate_cubes(t, level=j)]
        levels[j] = np.reshape(ops, t.level_shape(j) + (W.m, W.m))
    fam = ReducingFamily(p=p, backend=backend, truncation=t, levels=levels)
    rng = np.random.default_rng(seed)
    sample = fam.cubes()
    if len(sample) > validation_cube_cap:
        idx = np.linspace(0, len(sample) - 1, validation_cube_cap).astype(int)
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
                    pair_cap=400_000, seed=5):
    """Fit (beta1, beta2, beta_weak) for the family's cross-cube growth.

    The strong orders are the smallest (beta1, beta2) >= 0 with

        ||A_Q A_R^{-1}|| <= C * max{(lR/lQ)^b1, (lQ/lR)^b2} * sep^{b1+b2}

    holding at C = cap_C over all window pairs (a small linear program).
    beta_weak is the least-squares slope of the upper envelope of
    log||A_Q A_R^{-1}|| against log sep over equal-level pairs (each
    unordered pair contributes max(v, -v), since the ordered pairs come
    in reciprocal couples whose raw slopes cancel).
    """
    from scipy.optimize import linprog

    from .dyadic import separation

    cubes = F.cubes()
    invs = {Q: np.linalg.inv(F[Q]) for Q in cubes}
    N = len(cubes)
    pairs = [(i, j) for i in range(N) for j in range(N) if i != j]
    if len(pairs) > pair_cap:
        rng = np.random.default_rng(seed)
        sel = rng.choice(len(pairs), size=pair_cap, replace=False)
        pairs = [pairs[i] for i in sel]
    rows, rhs = [], []
    weak_x, weak_y = [], []
    logC = np.log(cap_C)
    for i, j in pairs:
        Q, R = cubes[i], cubes[j]
        v = np.log(max(op_norm(F[Q] @ invs[R]), 1e-300))
        ls = np.log(separation(Q, R))
        dl = (R.j - Q.j) * np.log(2.0)  # log(ell(Q)/ell(R))
        if Q.j > R.j:  # ell(Q) < ell(R): branch (lR/lQ)^b1
            rows.append((-(-dl) - ls, -ls))
        elif Q.j < R.j:  # ell(Q) > ell(R): branch (lQ/lR)^b2
            rows.append((-ls, -dl - ls))
        else:
            rows.append((-ls, -ls))
            if ls > np.log(2.0):
                weak_x.append(ls)
                weak_y.append(abs(v))
        rhs.append(logC - v)
    res = linprog(c=[1.0, 1.0], A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=[(0, None), (0, None)], method="highs")
    if not res.success:
        raise ReducingError(f"doubling-order fit infeasible: {res.message}")
    beta1, beta2 = float(res.x[0]), float(res.x[1])
    if len(weak_x) >= 2 and np.ptp(weak_x) > 0:
        # envelope fit: bin by log sep, keep the worst pair in each bin
        bins = {}
        for x, y in zip(weak_x, weak_y):
            key = round(x / 0.25)
            bins[key] = max(bins.get(key, 0.0), y)
        keys = sorted(bins)
        if len(keys) >= 2:
            beta_weak = float(np.polyfit(
                [k * 0.25 for k in keys], [bins[k] for k in keys], 1)[0])
        else:
            beta_weak = 0.0
    else:
        beta_weak = 0.0
    return beta1, beta2, max(beta_weak, 0.0)


def cube_containing(x, j, t: Truncation):
    """The level-j window cube containing the point x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    k = tuple(int(np.floor(xi * 2.0**j)) for xi in x)
    Q = CubeId(j, k)
    if not t.contains(Q):
        raise ReducingError(f"point {x} at level {j} falls outside the window")
    return Q


def gamma_field(W: MatrixWeight, F: ReducingFamily, j, x, t: Truncation):
    """||W^{1/p}(x) A_Q^{-1}|| for the level-j cube Q containing x."""
    Q = cube_containing(x, j, t)
    wp = W.powers(np.reshape(x, (1, -1)), 1.0 / F.p)[0]
    return float(op_norm(wp @ np.linalg.inv(F[Q]).astype(wp.dtype)))
