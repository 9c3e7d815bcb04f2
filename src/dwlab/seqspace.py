"""Coefficient sequences on dyadic windows and their quasi-norms.

The Besov-type (B) and Triebel-Lizorkin-type (F) sequence norms are

    sup_P (1/v(P)) || {2^{js} g_j 1_P}_{j >= j_P} ||_{l^q(L^p) or L^p(l^q)}

where g_j is built from the level-j coefficients:  unweighted mode uses
|t_Q| |Q|^{-1/2} on Q, averaging mode |A_Q t_Q| |Q|^{-1/2}, and matrix
mode |W^{1/p}(x) t_j(x)| at quadrature nodes.  All fields are piecewise
constant on the cells of the finest grid that any of them is given on
(the quadrature nodes in matrix mode, the finest cubes otherwise), so
the unweighted and averaging integrals are exact.  Sequences store one
array per level, and a stack of sequences on one window is evaluated
together: every field is one batched expression per level with a
leading sample axis (``seq_norms``, ``la_norms``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field as dc_field
from types import MappingProxyType
from typing import Optional

import numpy as np

from .dyadic import (
    CubeId,
    DwlabError,
    Truncation,
    ancestor,
    check_exponent,
    check_finite,
    check_integer,
    cube_geometry,
)
from .growth import GrowthFn
from .reducing import ReducingFamily
from .weights import MatrixWeight, QuadratureSpec, window_nodes

UNDERFLOW_CLAMP = 1e-300
# single_point_oracle's midpoint nodes per axis, in 1-d and in n >= 2
ORACLE_NODES_1D, ORACLE_NODES_ND = 96, 12


class SeqSpaceError(DwlabError):
    pass


# ---------------------------------------------------------------------------
# Coefficient sequences
# ---------------------------------------------------------------------------

def vector_norms(a):
    """Euclidean norms over the last axis, rounded as np.linalg.norm rounds
    one vector (sqrt(re.re + im.im); its axis= form rounds differently)."""
    x, y = a.real, a.imag
    sq = x[..., None, :] @ x[..., :, None] + y[..., None, :] @ y[..., :, None]
    return np.sqrt(sq)[..., 0, 0]


class CoeffSeq:
    """Coefficients t_Q in C^m on the cubes of a window ``t``: levels[j] is
    a complex array of shape t.level_shape(j) + (m,), indexed by the
    window-local k - lo(j), and zero means absent.  CubeIds enter only
    through tv[Q], tv[Q] = z and ``entries``."""

    def __init__(self, t: Truncation, m):
        check_integer(m, "m", SeqSpaceError, 1)
        self.t = t
        self.m = int(m)
        self.levels = {j: np.zeros(t.level_shape(j) + (self.m,), dtype=complex)
                       for j in range(t.j_min, t.j_max + 1)}

    def __setitem__(self, Q: CubeId, z):
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        if z.shape != (self.m,):
            raise SeqSpaceError(f"entry shape {z.shape} != ({self.m},)")
        if not np.all(np.isfinite(z.view(float))):
            raise SeqSpaceError("non-finite coefficient")
        at = self.t.locate(Q)
        if at is None:
            raise SeqSpaceError(f"coefficient cube {Q} outside the window")
        self.levels[at[0]][at[1]] = z

    def __getitem__(self, Q: CubeId):
        at = self.t.locate(Q)
        if at is None:
            return np.zeros(self.m, dtype=complex)
        return self.levels[at[0]][at[1]].copy()

    def __len__(self):
        return sum(int(np.count_nonzero(np.any(a != 0, axis=-1)))
                   for a in self.levels.values())

    @property
    def entries(self):
        """Read-only {CubeId: vector} of the nonzero entries, (j, k) order."""
        out = {}
        for j, a in self.levels.items():
            hit = np.any(a != 0, axis=-1)
            out.update((CubeId(j, k), z)
                       for k, z in zip(self.t.level_k(j)[hit].tolist(), a[hit]))
        return MappingProxyType(out)

    def restrict(self, t: Truncation):
        """A copy of this sequence's levels j <= t.j_max as a sequence on
        ``t``, a window with the same n, j_min and root extent and a
        j_max no deeper (SeqSpaceError otherwise)."""
        s = self.t
        if ((t.n, t.j_min, t.root_extent) != (s.n, s.j_min, s.root_extent)
                or t.j_max > s.j_max):
            raise SeqSpaceError(f"{t} is not a shallower window of {s}")
        out = CoeffSeq(t, self.m)
        for j, a in out.levels.items():
            a[...] = self.levels[j]
        return out

    def magnitudes(self):
        """The scalar sequence {|t_Q|} (Euclidean entry norms)."""
        out = CoeffSeq(self.t, 1)
        out.levels = {j: vector_norms(a)[..., None].astype(complex)
                      for j, a in self.levels.items()}
        return out


MODES = ("unweighted", "averaging", "matrix")


@dataclass
class SpaceParams:
    """(family, s, p, q, growth function, weight mode) naming a quasi-norm."""

    family: str
    s: float
    p: float
    q: float
    v: GrowthFn
    mode: str = "unweighted"
    reducing: Optional[ReducingFamily] = None
    weight: Optional[MatrixWeight] = None
    quad: QuadratureSpec = dc_field(default_factory=QuadratureSpec)

    def __post_init__(self):
        if not (isinstance(self.family, str)
                and self.family.upper() in ("B", "F")):
            raise SeqSpaceError(f"family must be B or F, got {self.family!r}")
        self.family = self.family.upper()
        if self.mode not in MODES:
            raise SeqSpaceError(f"mode must be one of {MODES}, "
                                f"got {self.mode!r}")
        check_exponent(self.p, "p", SeqSpaceError)
        check_exponent(self.q, "q", SeqSpaceError)
        check_finite(self.s, "s", SeqSpaceError)
        if np.isinf(self.p) and self.family == "F":
            raise SeqSpaceError("p = infinity is only defined for family B")
        if np.isinf(self.p) and self.mode != "unweighted":
            raise SeqSpaceError("p = infinity requires unweighted mode")
        if self.mode == "averaging" and self.reducing is None:
            raise SeqSpaceError("averaging mode needs a ReducingFamily")
        if self.mode == "matrix" and self.weight is None:
            raise SeqSpaceError("matrix mode needs a MatrixWeight")


# ---------------------------------------------------------------------------
# The L A-norm engine (suffix sums over the finest grid), on stacks
# ---------------------------------------------------------------------------

def _box_reduce(arr, w, op, n):
    """Reduce the last n (spatial) axes of an array over disjoint boxes of
    width w per axis."""
    for ax in range(arr.ndim - n, arr.ndim):
        shape = arr.shape[:ax] + (arr.shape[ax] // w, w) + arr.shape[ax + 1:]
        arr = op(arr.reshape(shape), axis=ax + 1)
    return arr


def _expand(f, R):
    """A stack (S,) + (r,)*n, constant on each of its r^n cells, spread
    over the (R,)*n grid."""
    S, r, n = f.shape[0], f.shape[1], f.ndim - 1
    if r == R:
        return f
    cells = np.broadcast_to(f.reshape((S,) + (r, 1) * n),
                            (S,) + (r, R // r) * n)
    return cells.reshape((S,) + (R,) * n)


def la_norms(fields, params: SpaceParams, t: Truncation):
    """la_norm of each member of a stack of S field sets, as an array.

    ``fields`` maps level j in [j_min, j_max] to an (S,) + (r,)*n array
    that is constant on each of the r^n equal cells of the window; absent
    levels are zero, and a level outside the window is a SeqSpaceError.
    The sweep runs on the grid of the finest field, R = max(r) cells per
    axis (at least one per finest cube), and every r must divide R:
    matrix-mode fields come at node resolution and cube-resolution fields
    at r = 2^(j - j_min) * root_extent.  The F family spreads each level
    over the R-grid only while the sweep reads it; the B family spreads
    every level once, into one (S, L) + (R,)*n stack, and reduces all
    levels j >= j_P over the level-j_P boxes in one call.  The sums run
    in the order of a one-member call, so member i equals ``la_norm`` of
    its own fields.
    """
    n = t.n
    shapes = [np.shape(f) for f in fields.values()]
    if not shapes or not shapes[0]:
        raise SeqSpaceError("need a stack of level fields")
    stray = [j for j in fields if j not in range(t.j_min, t.j_max + 1)]
    if stray:
        raise SeqSpaceError(f"field levels {stray} lie outside the window's "
                            f"[{t.j_min}, {t.j_max}]")
    S = shapes[0][0]  # every level's shape is checked when it is read
    R = max([t.cells_per_axis()] + [s[1] for s in shapes if len(s) > 1])
    subdiv, rest = divmod(R, t.cells_per_axis())  # per finest cube and axis
    if rest:
        raise SeqSpaceError(f"a field of {R} cells per axis does not refine "
                            f"the {t.cells_per_axis()} finest cubes")
    node_vol = (2.0 ** (-t.j_max) / subdiv) ** n
    p, q = params.p, params.q
    levels = range(t.j_min, t.j_max + 1)
    expo = p if params.family == "B" else q

    def level(j):
        """|f_j|, clamped, to the power that the family sums it in."""
        f = np.abs(np.asarray(fields.get(j, np.zeros((S,) + (1,) * n)),
                              dtype=float))
        r = f.shape[1] if f.ndim == n + 1 else 0
        if f.shape != (S,) + (r,) * n or not r or R % r:
            raise SeqSpaceError(f"level {j} field has shape {f.shape}")
        f[f < UNDERFLOW_CLAMP] = 0.0
        if not np.isinf(expo):
            f **= expo
        return f

    best = np.zeros(S)
    if params.family == "B":
        op = np.max if np.isinf(p) else np.sum
        fine = np.stack([_expand(level(j), R) for j in levels], axis=1)
    else:
        # suffix accumulation of |f_j|^q (running max for q = inf), fine
        # to coarse, one level at a time
        acc = np.zeros((S,) + (R,) * n)
    for jP in reversed(levels):
        w = subdiv * (1 << (t.j_max - jP))
        if params.family == "B":
            # the reduced levels j >= jP lie on axis 1 in memory order, so
            # each member sums its levels as a one-member stack does
            # (pairwise at a single cube)
            stack = _box_reduce(fine[:, jP - t.j_min:], w, op, n)
            if not np.isinf(p):
                stack = (stack * node_vol) ** (1.0 / p)
            if np.isinf(q):
                vals = np.max(stack, axis=1)
            else:
                vals = np.sum(stack**q, axis=1) ** (1.0 / q)
        else:
            # add level jP to every finest cell of its cubes, in place
            g = level(jP)
            r = g.shape[1]
            cells = acc.reshape((S,) + (r, R // r) * n)
            g = g.reshape((S,) + (r, 1) * n)
            if np.isinf(q):
                np.maximum(cells, g, out=cells)
                Tp = acc ** p
            else:
                cells += g
                Tp = acc ** (1.0 / q)
                Tp **= p
            vals = (_box_reduce(Tp, w, np.sum, n) * node_vol) ** (1.0 / p)
        vP = params.v.on_level(jP, t.level_k(jP))
        best = np.maximum(best, np.max((vals / vP).reshape(S, -1), axis=1))
    if np.isnan(best).any():
        raise SeqSpaceError("a level field holds a NaN")
    return best


def la_norm(fields, params: SpaceParams, t: Truncation):
    """sup_P (1/v(P)) ||{f_j 1_P}_{j >= j_P}|| with l^q(L^p) (B) or
    L^p(l^q) (F) mixing and the usual modifications at infinity.

    ``fields`` maps level j to a piecewise-constant array on the finest
    grid; absent levels are zero.  A one-member ``la_norms``.
    """
    stack = {j: np.asarray(f, dtype=float)[None] for j, f in fields.items()}
    return float(la_norms(stack or {t.j_min: np.zeros((1,) + (1,) * t.n)},
                          params, t)[0])


# ---------------------------------------------------------------------------
# Sequence norms
# ---------------------------------------------------------------------------

def _level_fields(tvs, params: SpaceParams, t: Truncation):
    """The unscaled level fields g_j of a stack of S sequences on ``t``:
    {j: (S,) + (r,)*n}, at node resolution (r = R) in matrix mode and at
    cube resolution otherwise (see ``la_norms``); a level that no member
    has entries on is left out."""
    if not tvs:
        raise SeqSpaceError("need at least one sequence")
    for tv in tvs:
        if tv.t != t:
            raise SeqSpaceError(f"sequence lives on {tv.t}, not on {t}")
    m = tvs[0].m
    if any(tv.m != m for tv in tvs):
        raise SeqSpaceError(f"stack mixes m = {sorted({tv.m for tv in tvs})}")
    mode = params.mode
    subdiv = params.quad.G if mode == "matrix" else 1
    n, S, R = t.n, len(tvs), t.cells_per_axis() * subdiv
    if mode == "matrix":
        W = params.weight
        if W.m != m:
            raise SeqSpaceError(f"weight is {W.m}x{W.m}, sequence has m={m}")
        # W^{1/p} on the window's node grid [R^n, m, m], kept on the weight
        wp = W.power_at(window_nodes(t, subdiv), 1.0 / params.p)
    elif mode == "averaging":
        fam = params.reducing
        if fam.truncation != t or fam.m != m:
            raise SeqSpaceError(f"reducing family (m={fam.m}) on "
                                f"{fam.truncation} does not fit m={m} on {t}")
    fields = {}
    for j in range(t.j_min, t.j_max + 1):
        z = np.stack([tv.levels[j] for tv in tvs])  # (S,) + (c,)*n + (m,)
        if not z.any():
            continue  # la_norms reads an absent level as zero
        scale = 2.0 ** (j * n / 2.0)  # |Q|^{-1/2}
        c, w = z.shape[1], subdiv << (t.j_max - j)  # cubes, cells per cube
        if mode == "matrix":
            # |W^{1/p}(x) t_Q| at the nodes of each cube Q, blocked (c, w)^n
            blocks = wp.reshape((c, w) * n + (m, m))
            per_node = blocks @ z.reshape((S,) + (c, 1) * n + (m, 1))
            f = np.linalg.norm(per_node[..., 0], axis=-1) * scale
            fields[j] = f.reshape((S,) + (R,) * n)
        else:
            if mode == "averaging":
                z = (fam.levels[j] @ z[..., None])[..., 0]
            fields[j] = vector_norms(z) * scale
    return fields


def _seq_fields(tvs, params: SpaceParams, t: Truncation):
    """The fields {2^{js} g_j} that ``seq_norms`` hands to ``la_norms``
    (one zero level if no member has entries).  They do not depend on
    the family, q or the growth, so one set serves every space that
    differs from ``params`` only in those."""
    fields = _level_fields(tvs, params, t)
    for j, f in fields.items():
        f *= 2.0 ** (j * params.s)
    return fields or {t.j_min: np.zeros((len(tvs),) + (1,) * t.n)}


def seq_norms(tvs, params: SpaceParams, t: Truncation):
    """The quasi-norms ||{2^{js} g_j}||_{LA^v_{p,q}} of a stack of
    sequences that share the window ``t`` and m, as an array: W^{1/p},
    the reducing family and the growth are read once for the stack."""
    return la_norms(_seq_fields(tvs, params, t), params, t)


def seq_norm(tv: CoeffSeq, params: SpaceParams, t: Truncation):
    """The full sequence quasi-norm ||{2^{js} g_j}||_{LA^v_{p,q}}."""
    return float(seq_norms([tv], params, t)[0])


def single_point_oracle(Q: CubeId, z, params: SpaceParams, t: Truncation):
    """Closed-form norm of a one-entry sequence, independent of q and family.

    [max over window P >= Q of 1/v(P)] * 2^{j_Q(s + n/2)}
        * (int_Q |W^{1/p}(x) z|^p dx)^{1/p},
    with the integral evaluated on an independent, denser midpoint grid.
    """
    from .weights import box_nodes

    if not t.contains(Q):
        raise SeqSpaceError(f"cube {Q} lies outside the window {t}")
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    n = t.n
    x0, ell, j = cube_geometry(Q)
    # v on each whole ancestor level, as la_norm evaluates it
    sup_inv_v = max(
        1.0 / params.v.on_level(lvl, t.level_k(lvl))[
            t.locate(ancestor(Q, lvl))[1]]
        for lvl in range(t.j_min, Q.j + 1)
    )
    if params.mode == "matrix":
        W = params.weight
        pts, wt = box_nodes(x0, x0 + ell,
                            ORACLE_NODES_1D if n == 1 else ORACLE_NODES_ND)
        pts = pts[~W.is_singular_at(pts)]
        wp = W.powers(pts, 1.0 / params.p).astype(complex)
        vals = np.linalg.norm(wp @ z, axis=-1) ** params.p
        integ = float(np.sum(vals)) * wt
    elif params.mode == "averaging":
        A = params.reducing[Q]
        integ = np.linalg.norm(A @ z.astype(complex)) ** params.p * 2.0 ** (-j * n)
    else:
        integ = np.linalg.norm(z) ** params.p * 2.0 ** (-j * n)
    return sup_inv_v * 2.0 ** (j * (params.s + n / 2.0)) * integ ** (1.0 / params.p)


# ---------------------------------------------------------------------------
# Sequence builders
# ---------------------------------------------------------------------------

def build_single_point(Q: CubeId, z, t: Truncation):
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    tv = CoeffSeq(t, z.size)
    tv[Q] = z
    return tv


def build_random(t: Truncation, m=1, seed=0, density=0.3, sigma=0.0):
    """Bernoulli(density) support over the window; |t_Q| scales like
    |Q|^sigma with standard-normal components.  Draws run cube by cube
    in (j, k) order: one uniform, then 2m normals for a kept cube; each
    level's kept entries are written at once.

    Levels are filled coarse to fine, so the draw has the prefix
    property: on a window with the same n, j_min and root extent and a
    shallower j_max, the same seed gives the deeper draw restricted to
    it (``CoeffSeq.restrict``), bit for bit.  The seed is a non-negative
    integer, density lies in [0, 1] and sigma is finite
    (SeqSpaceError otherwise).
    """
    check_integer(seed, "seed", SeqSpaceError, 0)
    if not (isinstance(density, numbers.Real) and 0.0 <= density <= 1.0):
        raise SeqSpaceError(f"density must lie in [0, 1], got {density!r}")
    check_finite(sigma, "sigma", SeqSpaceError)
    tv = CoeffSeq(t, m)
    rng = np.random.default_rng(seed)
    random, normal = rng.random, rng.standard_normal
    for j, a in tv.levels.items():
        rows = a.reshape(-1, m)
        kept, draws = [], []
        for i in range(len(rows)):
            if random() < density:
                kept.append(i)
                draws.append(normal(2 * m))  # real parts, then imaginary parts
        if kept:
            g = np.array(draws)
            scale = 2.0 ** (-j * t.n * sigma) / np.sqrt(2.0)
            rows[kept] = (g[:, :m] + 1j * g[:, m:]) * scale
    return tv


def build_besov_counterexample(J, t: Truncation):
    """Levels 0..J, entry |Q|^{1/2} wherever (1+j) divides k_1."""
    if J > t.j_max or t.j_min > 0:
        raise SeqSpaceError("window must cover levels 0..J")
    tv = CoeffSeq(t, 1)
    for j in range(0, J + 1):
        hit = t.level_k(j)[..., 0] % (1 + j) == 0
        tv.levels[j][hit] = 2.0 ** (-j * t.n / 2.0)
    return tv
