"""Dyadic cube index algebra.

A dyadic cube Q_{j,k} = 2^{-j}([0,1)^n + k) is identified by its integer
level j and integer lower-corner coordinate k.  Everything downstream
(growth functions, sequence norms, almost-diagonal kernels) indexes data
by these cubes, so coordinates are kept as exact integers and real
geometry is derived on demand.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

PAIR_BLOCK = 1 << 16  # ordered cube pairs per pair_blocks block


class DwlabError(ValueError):
    """Base of every dwlab input error; the CLI reports these as exit 2."""


class DyadicError(DwlabError):
    """Invalid cube-algebra argument (bad level, dimension mismatch, ...)."""


def check_exponent(x, name, error):
    """Raise ``error`` unless x is a real number in (0, inf]; NaN fails."""
    if not (isinstance(x, numbers.Real) and float(x) > 0):
        raise error(f"{name} must lie in (0, inf], got {x!r}")


def check_finite(x, name, error):
    """Raise ``error`` unless x is a finite real number."""
    if not (isinstance(x, numbers.Real) and np.isfinite(float(x))):
        raise error(f"{name} must be finite, got {x!r}")


@dataclass(frozen=True)
class CubeId:
    """A dyadic cube: level ``j`` and integer lower-corner vector ``k``.

    The cube is 2^{-j}([0,1)^n + k); its edge length is 2^{-j} and its
    lower corner is 2^{-j} k.
    """

    j: int
    k: tuple

    def __post_init__(self):
        object.__setattr__(self, "k", tuple(map(int, self.k)))

    @property
    def n(self):
        return len(self.k)


@dataclass(frozen=True)
class Truncation:
    """A finite dyadic window.

    All cubes of level j in [j_min, j_max] contained in the union of
    ``root_extent``^n level-j_min cubes whose lower corners per axis run
    over {-floor(root_extent/2), ...}.  The window is closed under
    children down to j_max and parents up to j_min.
    """

    n: int
    j_min: int
    j_max: int
    root_extent: int = 1

    def __post_init__(self):
        for name in ("n", "j_min", "j_max", "root_extent"):
            x = getattr(self, name)
            if isinstance(x, bool) or not isinstance(x, numbers.Integral):
                raise DyadicError(f"{name} must be an integer, got {x!r}")
        if self.n < 1:
            raise DyadicError("spatial dimension must be >= 1")
        if self.j_min > self.j_max:
            raise DyadicError("need j_min <= j_max")
        if self.root_extent < 1:
            raise DyadicError("root_extent must be >= 1")
        # read-only arrays of the window (level_k's corners, the node grids
        # of weights.window_nodes), built on first read; not a field, so
        # equality, hashing and repr see only the four numbers
        object.__setattr__(self, "_arrays", {})

    @property
    def k_origin(self):
        """Per-axis lower-corner integer of the window at level j_min."""
        return -(self.root_extent // 2)

    def k_range(self, j):
        """Half-open per-axis integer range [lo, hi) of level-j cubes."""
        if not self.j_min <= j <= self.j_max:
            raise DyadicError(f"level {j} outside [{self.j_min}, {self.j_max}]")
        scale = 1 << (j - self.j_min)
        lo = self.k_origin * scale
        return lo, lo + self.root_extent * scale

    def level_shape(self, j):
        """Shape (c_j,)*n of the level-j cube array, indexed by k - lo(j)."""
        lo, hi = self.k_range(j)
        return (hi - lo,) * self.n

    def _kept(self, key, build):
        """The array build(), made read-only and kept on the window under
        ``key``: built on the first request only."""
        a = self._arrays.get(key)
        if a is None:
            a = build()
            a.flags.writeable = False
            self._arrays[key] = a
        return a

    def level_k(self, j):
        """Level-j cube corners k, shape level_shape(j) + (n,): one
        read-only array per level, built once and kept on the window."""
        def build():
            axis = np.arange(*self.k_range(j))
            return np.stack(np.meshgrid(*[axis] * self.n, indexing="ij"),
                            axis=-1)

        return self._kept(("k", j), build)

    def locate(self, c: CubeId):
        """(level, window-local index tuple) of a window cube; None outside."""
        if c.n != self.n or not self.j_min <= c.j <= self.j_max:
            return None
        lo, hi = self.k_range(c.j)
        if not all(lo <= ki < hi for ki in c.k):
            return None
        return c.j, tuple(ki - lo for ki in c.k)

    def contains(self, c: CubeId):
        return self.locate(c) is not None

    def cells_per_axis(self):
        return self.root_extent << (self.j_max - self.j_min)


def cube_geometry(c: CubeId):
    """Return (lower corner x_Q, edge length, level) of a cube."""
    ell = 2.0 ** (-c.j)
    x = np.array(c.k, dtype=float) * ell
    return x, ell, c.j


def ancestor(c: CubeId, level: int):
    """The unique level-``level`` cube containing c; level <= j required."""
    if level > c.j:
        raise DyadicError(f"ancestor level {level} above cube level {c.j}")
    shift = c.j - level
    return CubeId(level, tuple(ki >> shift for ki in c.k))


def _radius(pts):
    """|x| over points [M, n]; x.x as a dot product, as np.linalg.norm of
    one point sums it, so per-point values keep their bits."""
    return np.sqrt((pts[:, None, :] @ pts[:, :, None])[:, 0, 0])


def separation(Q: CubeId, R: CubeId):
    """1 + |x_Q - x_R| / max(ell(Q), ell(R)), Euclidean lower-corner distance."""
    if Q.n != R.n:
        raise DyadicError("cubes live in different dimensions")
    # in Python floats: a numpy call per cube pair costs ten times more
    lq, lr = 2.0 ** (-Q.j), 2.0 ** (-R.j)
    dist2 = 0.0
    for kq, kr in zip(Q.k, R.k):
        d = kq * lq - kr * lr
        dist2 += d * d
    return 1.0 + math.sqrt(dist2) / max(lq, lr)


def enumerate_cubes(t: Truncation):
    """All window cubes in deterministic (j, k)-lexicographic order."""
    return [CubeId(j, k) for j in range(t.j_min, t.j_max + 1)
            for k in t.level_k(j).reshape(-1, t.n).tolist()]


def _spread_at(i, total, cap):
    """The entries i (< min(total, cap)) of spread(total, cap)."""
    if total <= cap or cap < 2:  # a cap of one keeps index 0
        return i
    q, r = divmod(total - 1, cap - 1)  # i (total - 1) without overflow
    f = i * r
    f //= cap - 1  # in place: a block's int64 temporaries dominate its cost
    f += i * q
    return f


def spread(total, cap):
    """The one subsample rule of every window-wide statistic: all of
    range(total) within the cap, else the cap indices i (total - 1) //
    (cap - 1), i < cap, evenly spread from 0 to total - 1 and exact in
    integers."""
    return _spread_at(np.arange(min(total, cap)), total, cap)


def pair_blocks(count, cap):
    """The ordered pairs (i, j) of range(count) in row-major order, or
    the cap of them that spread picks above the cap, as index arrays
    (I, J) of at most PAIR_BLOCK pairs, built one block at a time."""
    total = count * count
    for s in range(0, min(total, cap), PAIR_BLOCK):
        i = np.arange(s, min(s + PAIR_BLOCK, total, cap))
        f = _spread_at(i, total, cap)
        I = f // count  # a scalar floor division, far faster than np.divmod
        f -= I * count
        yield I, f


def spread_phases(count, cap):
    """Membership in pair_blocks(count, cap) as integer phases: (rows,
    cols, K, M) such that the pair (i, j) is one of those pairs exactly
    when (cols[j] - rows[i]) mod M < K.  So each row meets the columns
    whose phase lies in one cyclic window of length K.

    Above the cap, f = i count + j is a spread index exactly when
    (-f (cap - 1)) mod (count^2 - 1) < cap - 1; the phases split that
    test between i and j, in int64 without overflow for count < 2^30."""
    total, idx = count * count, np.arange(count)
    if total <= cap:
        zero = np.zeros(count, dtype=np.int64)
        return zero, zero, 1, 1
    if cap < 2:  # spread keeps the pair (0, 0) alone, or none at cap 0
        return np.where(idx == 0, 0, count), idx, cap, total
    M, K = total - 1, cap - 1
    # x K mod M, with K = a1 count + a0 and count^2 = 1 mod M
    a1, a0 = divmod(K, count)
    b1, b0 = np.divmod(idx * a1, count)
    phase = (b1 + b0 * count + idx * a0) % M
    # rows: i count K mod M; times count swaps phase's base-count digits
    hi, lo = np.divmod(phase, count)
    return lo * count + hi, (-phase) % M, K, M


def _window_cubes(t: Truncation):
    """Levels, edge lengths and lower corners [N, n] of the window cubes,
    in enumerate_cubes order."""
    js = range(t.j_min, t.j_max + 1)
    ks = [t.level_k(j).reshape(-1, t.n) for j in js]
    lev = np.concatenate([np.full(len(k), j) for j, k in zip(js, ks)])
    ell = np.ldexp(1.0, -lev)
    return lev, ell, np.concatenate(ks) * ell[:, None]


def window_pairs(t: Truncation, cap):
    """The cube pairs (Q_I, Q_J) of pair_blocks(cube count, cap), with the
    cubes in enumerate_cubes order, block by block: the index arrays I, J
    and the level differences j_I - j_J."""
    lev = _window_cubes(t)[0]
    for I, J in pair_blocks(len(lev), cap):
        yield I, J, lev[I] - lev[J]


def pair_separations(t: Truncation):
    """The function (I, J) -> separation(Q_I, Q_J) on index arrays of
    window_pairs(t, ...), built on the window geometry once."""
    _, ell, x = _window_cubes(t)
    return lambda I, J: (1.0 + _radius(x[I] - x[J])
                         / np.maximum(ell[I], ell[J]))
