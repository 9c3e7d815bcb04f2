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

from .dyadic import DwlabError, Truncation, check_finite
from .weights import _libm_pow, box_nodes

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

    def __post_init__(self):
        # on_level's checked arrays; not a field, so equality, hashing and
        # repr see only eval
        object.__setattr__(self, "_levels", {})

    def on_level(self, j, k):
        """v at the cubes (j, k[..., n]) as a read-only array, checked
        positive; eval runs once per level and corner array for the life
        of the growth function."""
        key = (j, k.shape, k.dtype.str, k.tobytes())
        v = self._levels.get(key)
        if v is None:
            v = np.broadcast_to(np.asarray(self.eval(j, k), dtype=float),
                                k.shape[:-1])
            if not np.all(v > 0):
                raise GrowthError(f"growth function nonpositive on level {j}")
            self._levels[key] = v
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
        return GrowthFn(lambda j, k, f=field, tau=tau:
                        _libm_pow(_cell_average(f, j, k), tau))
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
    across nested windows signals non-membership.  Only omega = 0 is
    computed (any other omega is a GrowthError).  There the bound depends
    on the pair only through the two levels, and correctly rounded
    division is monotone, so the worst ratio over all pairs of levels a
    and b is max v on a over min v on b, over the volume factor of the
    level gap (a table over the gaps), bit for bit: the constant over
    every window pair, from the L x L level pairs, with no pair formed.
    omega stays in the signature, where callers pass it by position.
    """
    for x, name in ((delta1, "delta1"), (delta2, "delta2"), (omega, "omega")):
        check_finite(x, name, GrowthError)
    if delta2 < delta1:
        raise GrowthError("need delta2 >= delta1")
    if omega != 0:
        raise GrowthError(f"class_constant computes omega = 0 only, got "
                          f"{omega!r}")
    js = range(t.j_min, t.j_max + 1)
    vals = [v.on_level(j, t.level_k(j).reshape(-1, t.n)) for j in js]
    # (|Q_I| / |Q_J|)^(delta1 if ell(Q_I) <= ell(Q_J) else delta2) by the
    # level gap dj = j_I - j_J, looked up at dj + span
    span = t.j_max - t.j_min
    gaps = np.arange(-span, span + 1)
    tab = (2.0 ** (-gaps * float(t.n))) ** np.where(gaps >= 0, delta1, delta2)
    # levels a and b (indices into js) have the gap dj = a - b
    hi = np.array([np.max(a) for a in vals])
    lo = np.array([np.min(a) for a in vals])
    idx = np.arange(len(vals))
    return float(np.max(hi[:, None] / lo[None, :]
                        / tab[idx[:, None] - idx[None, :] + span]))
