"""Matrix weights and their cube-average statistics.

A matrix weight is an a.e. positive-definite Hermitian-matrix-valued
function W(x), evaluated on whole arrays of midpoint quadrature nodes
at once (``MatrixWeight.eval``), zero on its singular set.  Weighted cube
integrals read one node grid per window (``window_nodes``, regrouped per
cube by ``cube_blocks``).  The module provides batched fractional matrix
powers (LAPACK eigh), the exp-log double-average characteristic,
and the lower/upper dimension estimates used by the weighted
almost-diagonal thresholds.  A weight keeps the powers it has evaluated
(``MatrixWeight.power_at``): matrix-mode norms, the MVEE reducing family
and its validation, the transforms and FS-GAMMA, which read W^alpha on
the same node set many times, evaluate it once per weight.  Both
statistics run on stacked node sets
through one masked exp-log kernel: the characteristic on the per-level
``cube_blocks`` of the window grid, the dimension estimates on the
dilated boxes of all sampled cubes at once.  Their spectral norms come
from ``spectral_norms``, which equals LAPACK's SVD norm bit for bit but
reads a real diagonal matrix's norm off its diagonal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .dyadic import (PAIR_BLOCK, DwlabError, Truncation, _radius,
                     _window_cubes, check_exponent, check_integer, spread)

HERMITIAN_TOL = 1e-12
SINGULAR_TOL = 1e-14  # distance at which a point hits the singular set
APINF_NODE_CAP = 64  # apinf_characteristic's nodes per cube; spread above
DILATIONS = (1.0, 2.0, 4.0, 8.0)  # estimate_dimensions' dilation factors
DIMENSION_CUBE_CAP = 12  # estimate_dimensions' cubes; spread above it
SPHERE_SEED = 0  # sphere_directions' Gaussian draw for m >= 4


class WeightError(DwlabError):
    pass


class NotPositiveDefinite(WeightError):
    pass


def _hermitian(M):
    """M as an array of square matrices, each Hermitian within tolerance."""
    M = np.asarray(M)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise WeightError("need square matrices")
    scale = np.maximum(np.max(np.abs(M), axis=(-2, -1)), 1.0)
    skew = np.max(np.abs(M - np.swapaxes(M.conj(), -1, -2)), axis=(-2, -1))
    if np.any(skew > HERMITIAN_TOL * scale):
        raise WeightError("matrix is not Hermitian within tolerance")
    return M


def matrix_power(M, alpha):
    """M^alpha for Hermitian positive-definite M; batched over leading axes.
    A power that overflows (an entry not finite) is a WeightError."""
    lam, V = np.linalg.eigh(_hermitian(M))
    if np.any(lam <= 0):
        raise NotPositiveDefinite(f"eigenvalue {np.min(lam)} <= 0")
    with np.errstate(over="ignore", invalid="ignore"):
        P = (V * lam[..., None, :] ** alpha) @ np.swapaxes(V.conj(), -1, -2)
    if not np.all(np.isfinite(P)):
        raise WeightError(f"matrix power {alpha} overflows: eigenvalues "
                          f"{np.min(lam)} to {np.max(lam)}")
    return P


# dgesdd rescales a matrix whose largest |entry| is nonzero and outside
# [sqrt(tiny)/eps, eps/sqrt(tiny)] = [2^-459, 2^459], about 6.7e-139 to
# 1.5e138; inside, it computes the singular values of the matrix itself
UNSCALED = (2.0 ** -459, 2.0 ** 459)


def _real_diagonals(M):
    """The diagonals [..., m] of M [..., m, m] if M is a real (float64)
    stack of diagonal matrices (-0.0 counts as zero), else None."""
    if (M.dtype != np.float64 or M.ndim < 2 or M.shape[-1] != M.shape[-2]
            or M.shape[-1] == 0):
        return None
    d = np.diagonal(M, axis1=-2, axis2=-1)
    return d if np.count_nonzero(M) == np.count_nonzero(d) else None


def _diagonal_norms(a):
    """Spectral norms of the real diagonal matrices whose diagonals have
    the absolute values a [..., m], rounded as LAPACK's dgesdd rounds
    them; None if dgesdd would rescale one (or one holds a NaN or an
    infinity).

    dgebrd leaves a diagonal matrix as it is (off-diagonal e = 0), and
    dlasq1 then returns the sorted |d|, except at m = 2, where dlas2
    rounds the larger of mn <= mx to mx / (2 / ((1 + mn/mx) + (mx - mn)/mx)),
    or to mx when mn = 0.  max |d| itself differs in the last bit there.
    """
    cols = list(np.moveaxis(a, -1, 0))
    mx = functools.reduce(np.maximum, cols)
    if not np.all((mx == 0) | ((mx >= UNSCALED[0]) & (mx <= UNSCALED[1]))):
        return None
    if len(cols) != 2:
        return mx
    mn = np.minimum(*cols)
    with np.errstate(invalid="ignore"):  # 0/0 where mx = 0, masked below
        c = 2.0 / ((1.0 + mn / mx) + (mx - mn) / mx)
    return np.where(mn == 0, mx, mx / c)


def spectral_norms(M):
    """``np.linalg.matrix_norm(M, ord=2)`` over a stack [..., m, m], bit
    for bit.  A real diagonal stack inside dgesdd's unscaled range
    (``UNSCALED``) reads its norms off the diagonals (``_diagonal_norms``);
    every other stack goes to LAPACK."""
    M = np.asarray(M)
    d = _real_diagonals(M)
    norms = None if d is None else _diagonal_norms(np.abs(d))
    return np.linalg.matrix_norm(M, ord=2) if norms is None else norms


# ---------------------------------------------------------------------------
# Matrix weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """Midpoint tensor quadrature: G nodes per axis per finest cell, an
    integer >= 1 (WeightError otherwise)."""

    nodes_per_axis_per_finest_cell: int = 3

    def __post_init__(self):
        check_integer(self.nodes_per_axis_per_finest_cell, "G", WeightError, 1)

    @property
    def G(self):
        return self.nodes_per_axis_per_finest_cell


def _pointwise(fn, m):
    """The batched form of a per-point callback fn(x[n]) -> [m, m]."""
    def batch(pts):
        return np.reshape([fn(x) for x in pts], (len(pts), m, m))
    return batch


def _libm_pow(r, a):
    """r**a elementwise by scalar libm pow; numpy's SIMD power can differ
    in the last bit, which would move reported values.  Python's float
    pow calls the same libm pow.  Where it raises instead (a zero base
    under a negative power, a negative base under a fractional one, an
    overflow), numpy's scalar pow gives its inf or nan as before."""
    r = np.asarray(r, dtype=float)
    try:
        vals = np.fromiter(map(pow, r.ravel().tolist(), repeat(a)), float,
                           r.size)
    except (ArithmeticError, TypeError):
        vals = np.fromiter((v ** a for v in r.ravel()), float, r.size)
    return vals.reshape(r.shape)


class MatrixWeight:
    """An m x m Hermitian-PD-valued function of x with optional singular set.

    Every consumer evaluates a weight through ``eval(points[M, n]) ->
    [M, m, m]``.  There are two ways to build one:

    * ``MatrixWeight.from_batched(m, fn)`` with an array expression
      ``fn(points[M, n]) -> [M, m, m]``; every preset below is one;
    * ``MatrixWeight(m, fn)`` with a per-point callback
      ``fn(x[n]) -> [m, m]`` for a custom weight, wrapped once into the
      batched form (which then calls ``fn`` point by point).

    On the singular set ``eval`` and ``powers`` give the zero matrix and
    never call the weight function: a singular node adds nothing.
    ``power_at`` is ``powers`` memoised on the weight.
    """

    def __init__(self, m, eval_fn, singular_set=(), label="custom"):
        self.m = int(m)
        self._batch = _pointwise(eval_fn, self.m)
        self.singular_set = [np.atleast_1d(np.asarray(s, dtype=float))
                             for s in singular_set]
        self.label = label
        # (point shape, point bytes, alpha) -> read-only W^alpha
        self._power_cache = {}

    @classmethod
    def from_batched(cls, m, batch_fn, singular_set=(), label="custom"):
        """A weight given by fn(points[M, n]) -> [M, m, m]."""
        W = cls(m, None, singular_set, label)
        W._batch = batch_fn
        return W

    def _masked(self, pts, fn):
        """fn(W(x)) stacked over points [M, n]: the weight is evaluated off
        the singular set only, and every singular point gets a zero matrix.
        A NaN or infinite value of W is a WeightError."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2:
            raise WeightError(f"need points [M, n], got shape {pts.shape}")
        hit = self.is_singular_at(pts)
        raw = self._batch(pts[~hit])
        if not np.all(np.isfinite(raw)):
            raise WeightError(f"weight {self.label} has a non-finite value "
                              "off its singular set")
        vals = fn(raw)
        out = np.zeros((len(pts),) + vals.shape[1:], dtype=vals.dtype)
        out[~hit] = vals
        return out

    def eval(self, pts):
        """W(x) stacked over points [M, n] -> [M, m, m]."""
        return self._masked(pts, lambda vals: vals)

    def is_singular_at(self, pts):
        """Mask over points [..., n]: True where x hits the singular set.
        A singular point of another dimension than n is a WeightError."""
        x = np.atleast_1d(np.asarray(pts, dtype=float))
        hit = np.zeros(x.shape[:-1], dtype=bool)
        for s in self.singular_set:
            if s.shape != x.shape[-1:]:
                raise WeightError(f"singular point {s} is {s.size}-d, the "
                                  f"points are {x.shape[-1]}-d")
            hit |= np.linalg.norm(x - s, axis=-1) < SINGULAR_TOL
        return hit

    def powers(self, pts, alpha):
        """W(x)^alpha stacked over points [M, n] -> [M, m, m]."""
        return self._masked(pts, lambda vals: matrix_power(vals, alpha))

    def power_at(self, pts, alpha):
        """``powers(pts, alpha)``, evaluated once per point set and
        exponent for the life of the weight and returned read-only.  The
        cache is unbounded: it holds one entry per distinct request."""
        pts = np.asarray(pts, dtype=float)
        key = (pts.shape, pts.tobytes(), alpha)
        got = self._power_cache.get(key)
        if got is None:
            got = self.powers(pts, alpha)
            got.flags.writeable = False
            self._power_cache[key] = got
        return got


def _constant(M):
    return lambda x: np.repeat(M[None], len(x), axis=0)


def identity_weight(m=1):
    check_integer(m, "m", WeightError, 1)
    return MatrixWeight.from_batched(m, _constant(np.eye(m)),
                                     label=f"identity({m})")


def constant_weight(M):
    M = _hermitian(M)
    return MatrixWeight.from_batched(M.shape[0], _constant(M),
                                     label="constant")


def power_weight(alpha, n=1):
    """Scalar |x|^alpha; A_1-valid for alpha in (-n, 0], usable for alpha > -n."""
    if alpha <= -n:
        raise WeightError(f"|x|^{alpha} is not locally integrable in R^{n}")
    return MatrixWeight.from_batched(
        1,
        lambda x: _libm_pow(_radius(x), alpha)[:, None, None],
        singular_set=[np.zeros(n)] if alpha != 0 else [],
        label=f"|x|^{alpha}",
    )


def diag_power_weight(alpha, beta, n=1):
    """The 2x2 example diag(|x|^alpha, |x|^beta), -n < alpha <= beta."""
    if alpha <= -n or alpha > beta:
        raise WeightError("need -n < alpha <= beta")

    def ev(x):
        r = _radius(x)
        out = np.zeros((len(x), 2, 2))
        out[:, 0, 0] = _libm_pow(r, alpha)
        out[:, 1, 1] = _libm_pow(r, beta)
        return out

    sing = [np.zeros(n)] if (alpha != 0 or beta != 0) else []
    return MatrixWeight.from_batched(2, ev, singular_set=sing,
                                     label=f"diag(|x|^{alpha},|x|^{beta})")


# ---------------------------------------------------------------------------
# Quadrature over cubes and boxes
# ---------------------------------------------------------------------------

def window_nodes(t: Truncation, G):
    """The window's midpoint nodes: each finest-level cell split G ways
    per axis.  Points [R^n, n] with R = G * t.cells_per_axis(), in C order;
    every weighted cube integral over the window uses this grid.  One
    read-only array per (window, G), built once and kept on the window."""
    def build():
        R = t.cells_per_axis() * G
        # a node's offset in spacings is exact, so only the spacing and one
        # product round: within an ulp of the midpoint, also next to 0
        first = t.k_origin * G << (t.j_max - t.j_min)
        axis = (first + np.arange(R) + 0.5) * (2.0 ** -t.j_max / G)
        grid = np.meshgrid(*[axis] * t.n, indexing="ij")
        return np.stack(grid, axis=-1).reshape(-1, t.n)

    return t._kept(("nodes", G), build)


def cube_blocks(a, t: Truncation, G, j):
    """Values a [R^n, ...] on window_nodes(t, G) regrouped per level-j
    cube: [c_j^n, w^n, ...] with w = G 2^{j_max - j} nodes per axis, the
    cubes in (j, k) order and each cube's nodes in C order (as box_nodes)."""
    n, (c, *_) = t.n, t.level_shape(j)
    w, rest = G << (t.j_max - j), a.shape[1:]
    grid = a.reshape((c, w) * n + rest)
    axes = [*range(0, 2 * n, 2), *range(1, 2 * n, 2), *range(2 * n, grid.ndim)]
    return grid.transpose(axes).reshape((c ** n, w ** n) + rest)


def box_nodes(lo, hi, g):
    """Midpoint tensor nodes over boxes [lo, hi) with corners [..., n]; g
    nodes per axis.  Returns (points [..., g^n, n], node weight [...])."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    n = lo.shape[-1]
    ticks = (np.arange(g) + 0.5) / g
    offs = np.stack(np.meshgrid(*[ticks] * n, indexing="ij"), axis=-1)
    pts = lo[..., None, :] + offs.reshape(-1, n) * (hi - lo)[..., None, :]
    return pts, np.prod((hi - lo) / g, axis=-1)


# ---------------------------------------------------------------------------
# Weight statistics
# ---------------------------------------------------------------------------

def _exp_log_avg(wx, keep_x, wy_inv, keep_y, p):
    """exp( avg_y log( avg_x ||W^{1/p}(x) W^{-1/p}(y)||^p ) ), batched over
    the broadcast leading axes of W^{1/p} on the x nodes [..., X, m, m]
    and W^{-1/p} on the y nodes [..., Y, m, m].  Only the nodes that
    keep_x [..., X] and keep_y [..., Y] mark enter the two averages, so a
    singular node is left out of both; a box with none left is an error.
    The powers are zero where a mask is False (``MatrixWeight.powers``),
    so such an x node adds nothing to the sums.  The norms are
    ``spectral_norms`` of the products; when both powers are real
    diagonal stacks, only the products' diagonals are formed."""
    if not (np.all(np.any(keep_x, axis=-1)) and np.all(np.any(keep_y, axis=-1))):
        raise WeightError("all quadrature nodes hit the singular set")
    # C order keeps each x row contiguous, so its sum is pairwise
    dx, dy = _real_diagonals(wx), _real_diagonals(wy_inv)
    norms = None
    if dx is not None and dy is not None:
        # |the products' diagonals|: each cross term of the einsum below
        # is 0, and |x| |y| is |x y| to the bit
        norms = _diagonal_norms(np.multiply(np.abs(dx)[..., None, :, :],
                                            np.abs(dy)[..., :, None, :],
                                            order="C"))
    if norms is None:
        norms = spectral_norms(np.einsum("...xab,...ybc->...yxac", wx,
                                         wy_inv, order="C"))
    norms = norms ** p
    inner = np.sum(norms, axis=-1) / np.sum(keep_x, axis=-1)[..., None]
    keep_y = np.broadcast_to(keep_y, inner.shape)
    logs = np.log(inner, out=np.zeros_like(inner), where=keep_y)
    return np.exp(np.sum(logs, axis=-1) / np.sum(keep_y, axis=-1))


def apinf_characteristic(W: MatrixWeight, p, t: Truncation, spec=None):
    """Window max of exp( avg_y log( avg_x ||W^{1/p}(x) W^{-1/p}(y)||^p ) ).

    Each cube averages over the same at most APINF_NODE_CAP of its
    window_nodes, spread over the cube; nodes on the singular set are
    left out, since the log average cannot take a zero.  One kernel call
    per block of cubes with at most PAIR_BLOCK node pairs.
    """
    check_exponent(p, "p", WeightError)
    G = (spec or QuadratureSpec()).G
    pts = window_nodes(t, G)
    wp, wm = W.powers(pts, 1.0 / p), W.powers(pts, -1.0 / p)
    keep = ~W.is_singular_at(pts)
    best = 0.0
    for j in range(t.j_min, t.j_max + 1):
        sel = spread((G << (t.j_max - j)) ** t.n, APINF_NODE_CAP)
        x, y, k = (cube_blocks(a, t, G, j)[:, sel] for a in (wp, wm, keep))
        step = max(1, PAIR_BLOCK // len(sel) ** 2)
        for b in range(0, len(k), step):
            cubes = slice(b, b + step)
            vals = _exp_log_avg(x[cubes], k[cubes], y[cubes], k[cubes], p)
            best = max(best, float(np.max(vals)))
    return best


def sphere_directions(m, count):
    """Quasi-uniform unit directions: Fibonacci spiral for m in {2,3},
    normalized Gaussian otherwise."""
    if m == 1:
        return np.ones((1, 1))
    if m == 2:
        th = np.pi * (3.0 - np.sqrt(5.0)) * np.arange(count)
        return np.stack([np.cos(th), np.sin(th)], axis=-1)
    if m == 3:
        i = np.arange(count) + 0.5
        phi = np.arccos(1.0 - 2.0 * i / count)
        th = np.pi * (1.0 + np.sqrt(5.0)) * i
        return np.stack([np.sin(phi) * np.cos(th),
                         np.sin(phi) * np.sin(th), np.cos(phi)], axis=-1)
    z = np.random.default_rng(SPHERE_SEED).standard_normal((count, m))
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def estimate_dimensions(W: MatrixWeight, p, t: Truncation):
    """(d_lower, d_upper) by log-log slope fit of the dilation averages.

    The sampled cubes are at most DIMENSION_CUBE_CAP of the window cubes
    (in (j, k) order) whose concentric dilate by max(DILATIONS) fits in
    the window, spread over them.  For each sampled cube Q and dilation
    factor lam the two exp-log quantities (inner x-average over Q and
    outer y-average over lam*Q, and the reverse) are evaluated on
    midpoint grids of every box at once; d is the largest fitted slope
    of log(value) against log(lam), floored at 0.
    """
    check_exponent(p, "p", WeightError)
    lams, g = np.asarray(DILATIONS), 40 if t.n == 1 else 8
    # every window cube's center and edge, in (j, k) order
    _, ell, corner = _window_cubes(t)
    mid = corner + 0.5 * ell[:, None]
    lo, hi = t.k_origin, t.k_origin + t.root_extent  # the window, in 2^-j_min
    half = (0.5 * lams.max() * ell)[:, None]
    fits = np.flatnonzero(
        np.all(mid - half >= lo * 2.0 ** (-t.j_min) - 1e-12, axis=-1)
        & np.all(mid + half <= hi * 2.0 ** (-t.j_min) + 1e-12, axis=-1))
    if not len(fits):
        raise WeightError("no window cube admits the requested dilations")
    cubes = fits[spread(len(fits), DIMENSION_CUBE_CAP)]
    # box 0 is Q itself, box 1 + l its dilate by lams[l]: [C, 1 + L, n]
    half = (0.5 * np.append(1.0, lams) * ell[cubes, None])[..., None]
    pts = box_nodes(mid[cubes, None] - half, mid[cubes, None] + half, g)[0]
    flat = pts.reshape(-1, t.n)
    wp, wm = (W.powers(flat, a).reshape(pts.shape[:-1] + (W.m, W.m))
              for a in (1.0 / p, -1.0 / p))
    keep = ~W.is_singular_at(pts)
    # box 1 (DILATIONS[0] = 1) is box 0 bit for bit, so its Q x Q average is
    # formed once and serves both estimates
    same = _exp_log_avg(wp[:, :1], keep[:, :1], wm[:, :1], keep[:, :1], p)
    low = _exp_log_avg(wp[:, :1], keep[:, :1], wm[:, 2:], keep[:, 2:], p)
    up = _exp_log_avg(wp[:, 2:], keep[:, 2:], wm[:, :1], keep[:, :1], p)
    low, up = (np.concatenate([same, v], axis=1) for v in (low, up))
    slopes = np.polyfit(np.log(lams), np.log(np.concatenate([low, up])).T,
                        1)[0]
    d_low, d_up = np.max(slopes.reshape(2, -1), axis=1)
    return max(0.0, float(d_low)), max(0.0, float(d_up))
