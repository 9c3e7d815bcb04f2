"""Reference implementations that only the tests compare against."""

import numpy as np

from dwlab import weights
from dwlab.dyadic import Truncation, cube_geometry, enumerate_cubes, spread
from dwlab.reducing import ReducingFamily
from dwlab.weights import WeightError, box_nodes, cube_blocks, window_nodes


def level_cubes(t: Truncation, j):
    """The level-j cubes of the window ``t``, in enumerate_cubes order."""
    return [Q for Q in enumerate_cubes(t) if Q.j == j]


def identity_family(t: Truncation, m=1, p=2):
    """The reducing family A_Q = I_m on every cube of the window ``t``."""
    levels = {j: np.tile(np.eye(m), t.level_shape(j) + (1, 1))
              for j in range(t.j_min, t.j_max + 1)}
    return ReducingFamily(p=p, truncation=t, levels=levels)


def _entry_matrix(rows, cols, p):
    """Vectorized envelope entries u_{Q,R} of the (D, E, F) = ``p``
    envelope for cube lists (rows x cols).

    Dense O(rows x cols) time and memory: the oracle that the tests hold
    ``ad_apply`` to.
    """
    xr = np.array([cube_geometry(Q)[0] for Q in rows])
    xc = np.array([cube_geometry(R)[0] for R in cols])
    lr = np.array([2.0 ** (-Q.j) for Q in rows])
    lc = np.array([2.0 ** (-R.j) for R in cols])
    dist = np.linalg.norm(xr[:, None, :] - xc[None, :, :], axis=-1)
    lmax = np.maximum(lr[:, None], lc[None, :])
    sep = 1.0 + dist / lmax
    ratio = np.where(
        lr[:, None] <= lc[None, :],
        (lr[:, None] / lc[None, :]) ** p.E,
        (lc[None, :] / lr[:, None]) ** p.F,
    )
    return sep ** (-p.D) * ratio


def _box_reduce(arr, w, op):
    """Reduce an (R,)*n array over disjoint boxes of width w per axis."""
    for ax in range(arr.ndim):
        shape = arr.shape[:ax] + (arr.shape[ax] // w, w) + arr.shape[ax + 1:]
        arr = op(arr.reshape(shape), axis=ax + 1)
    return arr


def seq_norm_one_by_one(tv, params, t):
    """The sequence quasi-norm of one sequence by the per-sequence
    algorithm: its level fields on the finest (quadrature-refined) grid,
    then a sweep over the window cubes P with per-level dicts."""
    n, m, mode = t.n, tv.m, params.mode
    G = params.quad.G if mode == "matrix" else 1
    R = t.cells_per_axis() * G
    if mode == "matrix":
        wp = params.weight.powers(window_nodes(t, G), 1.0 / params.p)
    F = {}
    for j in range(t.j_min, t.j_max + 1):
        z = tv.levels[j]
        c, w = z.shape[0], G << (t.j_max - j)
        if mode == "matrix":
            blocks = wp.reshape((c, w) * n + (m, m))
            per_node = blocks @ z.reshape((c, 1) * n + (m, 1))
            f = np.linalg.norm(per_node[..., 0], axis=-1)
        else:
            if mode == "averaging":
                z = (params.reducing.levels[j] @ z[..., None])[..., 0]
            f = np.broadcast_to(np.linalg.norm(z, axis=-1).reshape((c, 1) * n),
                                (c, w) * n)
        f = 2.0 ** (j * params.s) * (f * 2.0 ** (j * n / 2.0)).reshape((R,) * n)
        F[j] = np.where(f < 1e-300, 0.0, f)
    node_vol = (2.0 ** (-t.j_max) / G) ** n
    p, q = params.p, params.q
    best = 0.0
    for jP in F:
        w = G << (t.j_max - jP)
        finer = [F[j] for j in F if j >= jP]
        if params.family == "B":
            if np.isinf(p):
                per_level = [_box_reduce(f, w, np.max) for f in finer]
            else:
                per_level = [(_box_reduce(f**p, w, np.sum) * node_vol)
                             ** (1.0 / p) for f in finer]
            stack = np.stack(per_level)
            vals = (np.max(stack, axis=0) if np.isinf(q)
                    else np.sum(stack**q, axis=0) ** (1.0 / q))
        else:
            T = (np.max(finer, axis=0) if np.isinf(q)
                 else np.sum([f**q for f in finer], axis=0) ** (1.0 / q))
            vals = (_box_reduce(T**p, w, np.sum) * node_vol) ** (1.0 / p)
        best = max(best, float(np.max(vals / params.v.on_level(
            jP, t.level_k(jP)))))
    return best


# ---------------------------------------------------------------------------
# Weight statistics, one cube at a time
# ---------------------------------------------------------------------------

def _exp_log_avg(stack_x, stack_y_inv, p):
    """exp( avg_y log( avg_x ||W^{1/p}(x) W^{-1/p}(y)||^p ) ) from the
    stacks of W^{1/p} over the x nodes and W^{-1/p} over the y nodes."""
    prods = np.einsum("xab,ybc->yxac", stack_x, stack_y_inv)
    inner = np.mean(np.linalg.matrix_norm(prods, ord=2) ** p, axis=1)
    return float(np.exp(np.mean(np.log(inner))))


def _kept_nodes(W, pts):
    keep = ~W.is_singular_at(pts)
    if not keep.any():
        raise WeightError("all quadrature nodes hit the singular set")
    return pts[keep]


def apinf_per_cube(W, p, t: Truncation, spec=None):
    """apinf_characteristic one cube at a time: each cube's kept window
    nodes, spread to at most APINF_NODE_CAP, then one exp-log average."""
    G = (spec or weights.QuadratureSpec()).G
    pts = window_nodes(t, G)
    wp, wm = W.powers(pts, 1.0 / p), W.powers(pts, -1.0 / p)
    ids = np.where(W.is_singular_at(pts), -1, np.arange(len(pts)))
    best = 0.0
    for j in range(t.j_min, t.j_max + 1):
        for cube in cube_blocks(ids, t, G, j):
            sel = cube[cube >= 0]
            if len(sel) == 0:
                raise WeightError("all quadrature nodes hit the singular set")
            sel = sel[spread(len(sel), weights.APINF_NODE_CAP)]
            best = max(best, _exp_log_avg(wp[sel], wm[sel], p))
    return best


def _dilated_box(Q, lam):
    """The concentric dilate lam*Q as (lo, hi) corner arrays."""
    x0, ell, _ = cube_geometry(Q)
    c = x0 + 0.5 * ell
    half = 0.5 * lam * ell
    return c - half, c + half


def dimensions_per_cube(W, p, t: Truncation):
    """estimate_dimensions one cube and one box at a time: W^{+-1/p} on
    the kept nodes of each dilated box, one polyfit per cube."""
    lams, g = weights.DILATIONS, 40 if t.n == 1 else 8
    wlo = t.k_origin * 2.0 ** (-t.j_min)
    whi = (t.k_origin + t.root_extent) * 2.0 ** (-t.j_min)

    def fits(lo, hi):
        return np.all(lo >= wlo - 1e-12) and np.all(hi <= whi + 1e-12)

    cubes = [Q for Q in enumerate_cubes(t)
             if fits(*_dilated_box(Q, max(lams)))]
    if not cubes:
        raise WeightError("no window cube admits the requested dilations")
    loglam = np.log(np.asarray(lams))
    d_low, d_up = 0.0, 0.0
    for i in spread(len(cubes), weights.DIMENSION_CUBE_CAP):
        Q = cubes[i]
        stacks = {}
        for lam in {1.0, *lams}:
            pts = _kept_nodes(W, box_nodes(*_dilated_box(Q, lam), g)[0])
            stacks[lam] = W.powers(pts, 1.0 / p), W.powers(pts, -1.0 / p)
        wq, wq_inv = stacks[1.0]
        low = [_exp_log_avg(wq, stacks[lam][1], p) for lam in lams]
        up = [_exp_log_avg(stacks[lam][0], wq_inv, p) for lam in lams]
        d_low = max(d_low, float(np.polyfit(loglam, np.log(low), 1)[0]))
        d_up = max(d_up, float(np.polyfit(loglam, np.log(up), 1)[0]))
    return max(d_low, 0.0), max(d_up, 0.0)
