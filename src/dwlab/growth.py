"""Growth functions on dyadic cubes.

A growth function v maps cubes to positive reals and is of class
(delta1, delta2; omega) when

    v(Q)/v(R) <= C * sep(Q,R)^omega * (|Q|/|R|)^(delta1 or delta2),

the exponent being delta1 when ell(Q) <= ell(R) and delta2 otherwise,
with sep(Q,R) = 1 + |x_Q - x_R|/(ell(Q) v ell(R)).  Membership is a
statement about all of the (infinite) dyadic lattice, so this module
only reports empirical class constants over finite windows; callers
compare constants across growing windows to detect non-membership.

Growth functions, and the fields of weight-power growths, are evaluated a
whole level at a time on arrays of cube corners, never point by point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dyadic import (DwlabError, Truncation, check_finite, pair_separations,
                     spread_phases, window_pairs)
from .weights import _libm_pow, box_nodes

PAIR_CAP = 2_000_000  # class_constant's cube pairs; spread picks above it
FIELD_NODES = 16  # midpoint nodes per axis of a weight_power cell integral


class GrowthError(DwlabError):
    pass


@dataclass(frozen=True)
class GrowthFn:
    """A growth function.  ``eval(j, k)`` gives v on the level-j cubes
    with integer corners k[..., n] in one call: an array of shape
    k.shape[:-1], or a scalar constant on the level.
    """

    eval: Callable[[int, np.ndarray], object]

    def on_level(self, j, k):
        """v at the cubes (j, k[..., n]) as an array, checked positive."""
        v = np.broadcast_to(np.asarray(self.eval(j, k), dtype=float),
                            k.shape[:-1])
        if not np.all(v > 0):
            raise GrowthError(f"growth function nonpositive on level {j}")
        return v


def _cell_average(field, j, k):
    """Midpoint-rule integrals of a batched scalar field over the cubes
    (j, k[..., n]), FIELD_NODES nodes per axis, in one field call."""
    n, ell = k.shape[-1], 2.0 ** (-j)
    pts, _ = box_nodes(k * ell, (k + 1) * ell, FIELD_NODES)
    vals = np.asarray(field(pts.reshape(-1, n)), dtype=float)
    if vals.shape != (pts.size // n,):
        raise GrowthError(f"growth field gave shape {vals.shape} for "
                          f"{pts.size // n} points, not one value per point")
    return np.mean(vals.reshape(pts.shape[:-1]), axis=-1) * 2.0 ** (-j * n)


_PARAMS = {"power": {"tau"}, "weight_power": {"field", "tau"},
           "piecewise_power": {"alpha", "beta"}}


def make_growth(kind, **params):
    """Build one of the standard growth-function families.

    kind = "power":  v(Q) = |Q|^tau, tau >= 0; class (tau, tau; 0).
    kind = "weight_power":  v(Q) = [int_Q field]^tau for a positive batched
        field(points[M, n]) -> [M], e.g. the operator norm of a matrix
        weight, called once per level; class not closed-form.
    kind = "piecewise_power":  v(Q) = |Q|^beta if ell(Q) >= 1 else
        |Q|^alpha, alpha <= beta; class (alpha, beta; 0).
    Unknown keys and a field that is not callable raise GrowthError.
    """
    if not isinstance(kind, str) or kind not in _PARAMS:
        raise GrowthError(f"unknown growth kind: {kind}")
    extra = sorted(set(params) - _PARAMS[kind])
    if extra:
        raise GrowthError(f"{kind} growth takes no {', '.join(extra)}")
    if kind == "power":
        tau = float(params["tau"])
        check_finite(tau, "tau", GrowthError)
        if tau < 0:
            raise GrowthError("power growth needs tau >= 0")
        return GrowthFn(lambda j, k, t=tau: (2.0 ** (-j * k.shape[-1])) ** t)
    if kind == "weight_power":
        field = params["field"]
        tau = float(params["tau"])
        check_finite(tau, "tau", GrowthError)
        if not callable(field):
            raise GrowthError("weight_power growth needs a callable field")
        cache = {}

        def ev(j, k, field=field, tau=tau, cache=cache):
            key = (j, k.shape, k.tobytes())
            if key not in cache:
                cache[key] = _libm_pow(_cell_average(field, j, k), tau)
            return cache[key]

        return GrowthFn(ev)
    alpha = float(params["alpha"])
    beta = float(params["beta"])
    check_finite(alpha, "alpha", GrowthError)
    check_finite(beta, "beta", GrowthError)
    if alpha > beta:
        raise GrowthError("piecewise_power needs alpha <= beta")

    def ev(j, k, a=alpha, b=beta):
        return (2.0 ** (-j * k.shape[-1])) ** (b if j <= 0 else a)

    return GrowthFn(ev)


def class_constant(v: GrowthFn, delta1, delta2, omega, t: Truncation):
    """Worst ratio of v(Q)/v(R) to the class bound over window pairs.

    Finite by construction on a finite window; growth of this constant
    across nested windows signals non-membership.  The pairs are those of
    dyadic.pair_blocks(cube count, PAIR_CAP); the volume factor comes from
    a table over the level gaps.

    At omega = 0 the bound depends on the pair only through the levels,
    and correctly rounded division is monotone, so the worst ratio of a
    row cube Q_I against the level-b cubes it is paired with is v_I over
    their least v, bit for bit.  spread_phases puts a row's partners on a
    level in one cyclic window of phases, so with the level's cubes sorted
    by phase that least v is a range minimum: O(N log N) per level for N
    cubes, and no pair is formed.  At omega > 0 the separations enter and
    the pairs run in window_pairs blocks, so memory stays bounded at any
    depth.
    """
    for x, name in ((delta1, "delta1"), (delta2, "delta2"), (omega, "omega")):
        check_finite(x, name, GrowthError)
    if delta2 < delta1 or omega < 0:
        raise GrowthError("need delta2 >= delta1 and omega >= 0")
    js = range(t.j_min, t.j_max + 1)
    vals = [v.on_level(j, t.level_k(j).reshape(-1, t.n)) for j in js]
    # (|Q_I| / |Q_J|)^(delta1 if ell(Q_I) <= ell(Q_J) else delta2) by the
    # level gap dj = j_I - j_J, looked up at dj + span
    span = t.j_max - t.j_min
    gaps = np.arange(-span, span + 1)
    tab = (2.0 ** (-gaps * float(t.n))) ** np.where(gaps >= 0, delta1, delta2)
    sizes = [len(a) for a in vals]
    vals = np.concatenate(vals)
    worst = []
    if omega:
        sep = pair_separations(t)
        for I, J, dj in window_pairs(t, PAIR_CAP):
            bound = sep(I, J) ** omega * tab[dj + span]
            worst.append(np.max(vals[I] / vals[J] / bound))
        return float(np.max(worst))
    lev = np.repeat(np.array(js), sizes)
    rows, cols, K, M = spread_phases(len(vals), PAIR_CAP)
    start = 0
    for b, size in zip(js, sizes):
        level = slice(start, start + size)
        start += size
        order = np.argsort(cols[level], kind="stable")
        phase = cols[level][order]
        phase = np.concatenate([phase, phase + M])  # the cycle, unrolled
        lo, hi = np.searchsorted(phase, rows), np.searchsorted(phase, rows + K)
        paired = hi > lo
        if paired.any():
            least = _range_min(np.tile(vals[level][order], 2), lo[paired],
                               hi[paired])
            worst.append(np.max(vals[paired] / least
                                / tab[lev[paired] - b + span]))
    return float(np.max(worst))


def _range_min(a, lo, hi):
    """min(a[lo[i]:hi[i]]) for each i, all ranges non-empty, from a sparse
    table built one power-of-two width at a time."""
    out = np.empty(len(lo))
    width = np.frexp(hi - lo)[1] - 1  # floor(log2(hi - lo))
    table = a  # table[x] = min(a[x : x + 2^k]) at step k
    for k in range(int(width.max()) + 1):
        sel = np.flatnonzero(width == k)
        out[sel] = np.minimum(table[lo[sel]], table[hi[sel] - (1 << k)])
        table = np.minimum(table[:-(1 << k)], table[1 << k:])
    return out
