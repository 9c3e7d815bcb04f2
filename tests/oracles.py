"""Reference implementations that only the tests compare against."""

import numpy as np

from dwlab.dyadic import Truncation, cube_geometry, enumerate_cubes
from dwlab.reducing import ReducingFamily
from dwlab.weights import window_nodes


def level_cubes(t: Truncation, j):
    """The level-j cubes of the window ``t``, in enumerate_cubes order."""
    return [Q for Q in enumerate_cubes(t) if Q.j == j]


def identity_family(t: Truncation, m=1, p=2):
    """The reducing family A_Q = I_m on every cube of the window ``t``."""
    levels = {j: np.tile(np.eye(m), t.level_shape(j) + (1, 1))
              for j in range(t.j_min, t.j_max + 1)}
    return ReducingFamily(p=p, backend="exact_p2", truncation=t, levels=levels)


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
