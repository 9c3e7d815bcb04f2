"""Growth functions on dyadic cubes.

A growth function v maps cubes to positive reals and is of class
(delta1, delta2; omega) when

    v(Q)/v(R) <= C * sep(Q,R)^omega * (|Q|/|R|)^(delta1 or delta2),

the exponent being delta1 when ell(Q) <= ell(R) and delta2 otherwise,
with sep(Q,R) = 1 + |x_Q - x_R|/(ell(Q) v ell(R)).  Membership is a
statement about all of the (infinite) dyadic lattice, so this module
only reports empirical class constants over finite windows; callers
compare constants across growing windows to detect non-membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dyadic import CubeId, DwlabError, Truncation

PAIR_CAP = 2_000_000
_SUBSAMPLE_SEED = 0xDAD1C


class GrowthError(DwlabError):
    pass


@dataclass(frozen=True)
class GrowthFn:
    """A growth function with an optional declared class.  ``eval(j, k)``
    gives v on the level-j cubes with integer corners k[..., n] in one
    call: an array of shape k.shape[:-1], or a scalar constant on the level.
    """

    eval: Callable[[int, np.ndarray], object]
    declared_class: Optional[tuple] = None  # (delta1, delta2, omega)
    label: str = "custom"

    def __post_init__(self):
        if self.declared_class is not None:
            d1, d2, om = self.declared_class
            if d2 < d1 or om < 0:
                raise GrowthError(
                    "declared class needs delta2 >= delta1 and omega >= 0"
                )

    def on_level(self, j, k):
        """v at the cubes (j, k[..., n]) as an array, checked positive."""
        v = np.broadcast_to(np.asarray(self.eval(j, k), dtype=float),
                            k.shape[:-1])
        if not np.all(v > 0):
            raise GrowthError(f"growth function nonpositive on level {j}")
        return v

    def __call__(self, c: CubeId):
        return float(self.on_level(c.j, np.array([c.k]))[0])


def _cell_average(field, j, k, nodes_per_axis=16):
    """Midpoint-rule integrals of a scalar field over cubes (j, k[..., n])."""
    k = np.asarray(k)
    n = k.shape[-1]
    ell = 2.0 ** (-j)
    g = nodes_per_axis
    ticks = (np.arange(g) + 0.5) / g * ell
    offs = np.stack(np.meshgrid(*[ticks] * n, indexing="ij"), axis=-1)
    pts = k[..., None, :] * ell + offs.reshape(-1, n)
    vals = np.array([field(p) for p in pts.reshape(-1, n)], dtype=float)
    return np.mean(vals.reshape(pts.shape[:-1]), axis=-1) * 2.0 ** (-j * n)


def make_growth(kind, **params):
    """Build one of the standard growth-function families.

    kind = "power":  v(Q) = |Q|^tau, tau >= 0; class (tau, tau; 0).
    kind = "weight_power":  v(Q) = [int_Q field]^tau for a positive
        scalar field (e.g. the operator norm of a matrix weight);
        class not closed-form, pass declared_class if known.
    kind = "length":  v(Q) = g(ell(Q)) for g with g(t) t^{-n/p}
        nonincreasing and g(t) nondecreasing; class (0, 1/p; 0).
    kind = "piecewise_power":  v(Q) = |Q|^beta if ell(Q) >= 1 else
        |Q|^alpha, alpha <= beta; class (alpha, beta; 0).
    """
    if kind == "power":
        tau = float(params["tau"])
        if tau < 0:
            raise GrowthError("power growth needs tau >= 0")
        return GrowthFn(
            eval=lambda j, k, t=tau: (2.0 ** (-j * k.shape[-1])) ** t,
            declared_class=(tau, tau, 0.0),
            label=f"power({tau})",
        )
    if kind == "weight_power":
        field = params["field"]
        tau = float(params["tau"])
        nodes = int(params.get("nodes_per_axis", 16))
        declared = params.get("declared_class")
        cache = {}

        def ev(j, k, field=field, tau=tau, nodes=nodes, cache=cache):
            key = (j, k.shape, k.tobytes())
            if key not in cache:
                avg = _cell_average(field, j, k, nodes)
                # scalar libm pow: numpy's SIMD power can differ in the
                # last bit, which would move reported values
                cache[key] = np.reshape([a ** tau for a in avg.ravel()
                                         .tolist()], avg.shape)
            return cache[key]

        return GrowthFn(eval=ev, declared_class=declared,
                        label=f"weight_power(tau={tau})")
    if kind == "length":
        g = params["g"]
        p = float(params["p"])
        return GrowthFn(
            eval=lambda j, k, g=g: float(g(2.0 ** (-j))),
            declared_class=(0.0, 1.0 / p, 0.0),
            label="length",
        )
    if kind == "piecewise_power":
        alpha = float(params["alpha"])
        beta = float(params["beta"])
        if alpha > beta:
            raise GrowthError("piecewise_power needs alpha <= beta")

        def ev(j, k, a=alpha, b=beta):
            return (2.0 ** (-j * k.shape[-1])) ** (b if j <= 0 else a)

        return GrowthFn(eval=ev, declared_class=(alpha, beta, 0.0),
                        label=f"piecewise_power({alpha},{beta})")
    raise GrowthError(f"unknown growth kind: {kind}")


def _pair_indices(count, rng_seed=_SUBSAMPLE_SEED):
    """All-pairs index arrays, uniformly subsampled above PAIR_CAP."""
    total = count * count
    if total <= PAIR_CAP:
        ii, jj = np.meshgrid(np.arange(count), np.arange(count), indexing="ij")
        return ii.ravel(), jj.ravel()
    rng = np.random.default_rng(rng_seed)
    flat = rng.integers(0, total, size=PAIR_CAP)
    return flat // count, flat % count


def class_constant(v: GrowthFn, delta1, delta2, omega, t: Truncation):
    """Worst ratio of v(Q)/v(R) to the class bound over window pairs.

    Finite by construction on a finite window; growth of this constant
    across nested windows signals non-membership.
    """
    if delta2 < delta1 or omega < 0:
        raise GrowthError("need delta2 >= delta1 and omega >= 0")
    ks = {j: t.level_k(j).reshape(-1, t.n)
          for j in range(t.j_min, t.j_max + 1)}
    vals = np.concatenate([v.on_level(j, k) for j, k in ks.items()])
    js = np.concatenate([np.full(len(k), j) for j, k in ks.items()])
    xs = np.concatenate([k * 2.0 ** (-j) for j, k in ks.items()])
    ells = 2.0 ** (-js.astype(float))
    ii, jj = _pair_indices(len(vals))
    sep = 1.0 + np.linalg.norm(xs[ii] - xs[jj], axis=-1) / np.maximum(
        ells[ii], ells[jj]
    )
    vol_ratio = 2.0 ** (-(js[ii] - js[jj]) * float(t.n))  # |Q_i| / |Q_j|
    expo = np.where(ells[ii] <= ells[jj], delta1, delta2)
    bound = sep**omega * vol_ratio**expo
    return float(np.max(vals[ii] / vals[jj] / bound))

