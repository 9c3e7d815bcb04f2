"""The benchmark's three workloads: set-up, one pass, and output checks.

A pass calls only public dwlab functions, through ``Ops.run`` so that an
operation that raises is counted and the pass goes on.  Output checks
are registered with ``Ops.check`` and run after the pass's timer stops,
so ``run_s`` is the program's time alone.

Why these workloads:

* ``verify`` is what users run: the 14 experiments in ``EXPERIMENTS``
  order, then the report.  AD-BOUND's dense envelope table dominates;
  it never reaches the MVEE backend.
* ``envelope`` is unweighted 1-d sequences on large windows: dyadic
  enumeration, unweighted norms, growth and the dense AD operator.  It
  does no work in weights, reducing or transforms, so a change there
  should not move it.
* ``weighted`` is matrix weights on small windows: per-node weight
  powers, reducing families (built, then read by averaging-mode norms),
  MVEE, weight statistics and the O(N^2) maximal and square functions.
  The AD operator does no work in it.

Each pass builds its ``MatrixWeight``s from scratch, as each CLI call
and each experiment does, so the ``power_at`` cache only helps within a
pass.
"""

from __future__ import annotations

import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import dwlab as dw

DEFAULT_SEED = 0xDAD1C
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SIGMAS = (-0.5, 0.0, 0.5)

# Sizes of the full workloads and of the reduced smoke mode.
SIZES = {
    "full": {
        "verify": list(dw.EXPERIMENTS),
        "envelope_windows": (10,) * 6 + (12,) * 3,
        "class_constant_j": 10,
        "weighted_windows": (6, 8),
        "weighted_seqs": 8,
        "mvee_j": 3,
        "stats_j": 4,
        "doubling_j": 5,
        "dwt_N": 2 ** 14,
        "lp_N": (512, 1024),
    },
    "smoke": {
        "verify": ["SINGLE", "AD-NEC", "CEX-B", "EMB", "CALDERON",
                   "WAV-NORM"],
        "envelope_windows": (6, 6, 8),
        "class_constant_j": 6,
        "weighted_windows": (4, 5),
        "weighted_seqs": 2,
        "mvee_j": 1,
        "stats_j": 4,
        "doubling_j": 3,
        "dwt_N": 2 ** 10,
        "lp_N": (64, 128),
    },
}


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


@dataclass
class Ops:
    """Operations attempted in one pass, their failures, deferred checks."""

    attempted: int = 0
    failures: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    def run(self, name, fn, *args, **kwargs):
        """Run one operation; a raised error counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failures[name] = traceback.format_exc(limit=3)
            return None

    def check(self, name, fn, *args):
        """Defer an output check; it returns None or a failure message."""
        self.checks.append((name, fn, args))

    def run_checks(self):
        for name, fn, args in self.checks:
            if name in self.failures:
                continue
            try:
                msg = fn(*args)
            except Exception:
                msg = traceback.format_exc(limit=3)
            if msg:
                self.failures[name] = msg
        self.checks = []


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def setup_verify(seed, size):
    ref = None
    if seed == DEFAULT_SEED:
        ref = json.loads((REFERENCE_DIR / "verify.json").read_text())
        ref = {r["name"]: r for r in ref["results"]}
    return {"seed": seed, "names": size["verify"], "reference": ref}


def _compare(got, want, path=""):
    """First mismatch between two report trees (1e-10 relative), or None."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return f"{path}: keys differ"
        for k in want:
            msg = _compare(got[k], want[k], f"{path}/{k}")
            if msg:
                return msg
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            msg = _compare(g, w, f"{path}/{i}")
            if msg:
                return msg
        return None
    if isinstance(want, float) and isinstance(got, (int, float)):
        return None if rel_err(got, want) <= 1e-10 else f"{path}: {got} != {want}"
    return None if got == want else f"{path}: {got!r} != {want!r}"


def _check_experiment(report, ref):
    if not report.passed:
        return f"{report.name} did not pass"
    if ref is not None:
        return _compare(report.to_dict()["stats"], ref["stats"], report.name)
    return None


def _check_report(text, names):
    doc = json.loads(text)
    got = [r["name"] for r in doc["results"]]
    if got != names or not doc["all_passed"]:
        return "report is incomplete or not all passed"
    return None


def pass_verify(inp, ops):
    reports = []
    for name in inp["names"]:
        rep = ops.run(name, dw.run_experiment, name, seed=inp["seed"])
        if rep is not None:
            reports.append(rep)
            ref = inp["reference"]
            ops.check(name, _check_experiment, rep,
                      None if ref is None else ref[name])
    text = ops.run("emit_report", dw.emit_report, reports, seed=inp["seed"])
    ops.check("emit_report", _check_report, text, inp["names"])


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------

def setup_envelope(seed, size, with_reference=True):
    th = dw.ad_thresholds(0.0, 2.0, 2.0, "F", 0.0, 0.0, 0.0, n=1)
    v0 = dw.make_growth("power", tau=0.0)
    seqs = [(_window(jm), seed + 7919 * i, SIGMAS[i % 3])
            for i, jm in enumerate(size["envelope_windows"])]
    ref = None
    if with_reference and seed == DEFAULT_SEED and size is SIZES["full"]:
        ref = json.loads((REFERENCE_DIR / "envelope.json").read_text())["norms"]
    return {
        "seed": seed,
        "seqs": seqs,
        "ad": dw.ADParams(th.D_min + 0.25, th.E_min + 0.25, th.F_min + 0.25),
        "B": dw.SpaceParams("B", 0.0, 2.0, 2.0, v0),
        "F": dw.SpaceParams("F", 0.0, 2.0, 2.0, v0),
        "class_window": _window(size["class_constant_j"]),
        "class_growth": dw.make_growth("power", tau=0.5),
        "reference": ref,
    }


def _envelope_seq(inp, t, seed, sigma):
    tv = dw.build_random(t, m=1, seed=seed, density=0.3, sigma=sigma)
    mags = tv.magnitudes()
    out = dw.ad_apply(inp["ad"], mags, t)
    nb = dw.seq_norm(out, inp["B"], t)
    nf = dw.seq_norm(out, inp["F"], t)
    star = dw.majorant(mags, 2.0, 0.75, t)
    return mags, out, nb, nf, star


def _check_envelope(inp, i, res, rows=4):
    t, seed, _ = inp["seqs"][i]
    mags, out, nb, nf, star = res
    # rows of the AD image at sampled targets against the entry formula
    cubes = dw.enumerate_cubes(t)
    rng = np.random.default_rng(seed)
    for q in rng.choice(len(cubes), size=rows, replace=False):
        Q = cubes[q]
        want = sum(dw.ad_entry(Q, R, inp["ad"]) * z[0]
                   for R, z in mags.entries.items())
        if rel_err(out[Q][0].real, want) > 1e-10:
            return f"ad_apply row {Q}: {out[Q][0]} != {want}"
    # at p = q = 2 the B and F norms are the same sum (Fubini)
    if rel_err(nb, nf) > 1e-10:
        return f"B norm {nb} != F norm {nf}"
    if inp["reference"] is not None:
        rb, rf = inp["reference"][i]
        if rel_err(nb, rb) > 1e-10 or rel_err(nf, rf) > 1e-10:
            return f"norms ({nb}, {nf}) != stored ({rb}, {rf})"
    for Q, z in mags.entries.items():
        if star[Q][0].real < z[0].real - 1e-12:
            return f"majorant below |t| at {Q}"
    return None


def _check_class_constant(c):
    # |Q|^(1/2) is exactly of class (1/2, 1/2; 0)
    return None if abs(c - 1.0) <= 1e-12 else f"class constant {c} != 1"


def pass_envelope(inp, ops):
    for i, (t, seed, sigma) in enumerate(inp["seqs"]):
        name = f"seq{i}_j{t.j_max}"
        res = ops.run(name, _envelope_seq, inp, t, seed, sigma)
        ops.check(name, _check_envelope, inp, i, res)
    c = ops.run("class_constant", dw.class_constant, inp["class_growth"],
                0.5, 0.5, 0.0, inp["class_window"])
    ops.check("class_constant", _check_class_constant, c)


def envelope_norms(inp):
    """Stored-reference values: the (B, F) norm pair of each sequence."""
    return [list(_envelope_seq(inp, t, s, sig)[2:4])
            for t, s, sig in inp["seqs"]]


# ---------------------------------------------------------------------------
# weighted
# ---------------------------------------------------------------------------

def _band_limited(w, rng):
    fhat = rng.standard_normal(w.N) + 1j * rng.standard_normal(w.N)
    fhat[~w.covered] = 0.0
    return dw.GridFunction(1, w.N, np.fft.ifft(fhat) * w.N)


def _window(j_max):
    return dw.Truncation(1, 0, j_max, 1)


def setup_weighted(seed, size):
    # doubling_orders imports scipy.optimize on first use; importing it here
    # puts that one-off cost in set-up instead of in the first pass only
    import scipy.optimize  # noqa: F401

    rng = np.random.default_rng(seed)
    N = size["dwt_N"]
    lp = []
    for n_grid in size["lp_N"]:
        w = dw.build_lp_window(n_grid)
        lp.append((w, _band_limited(w, rng), _window(w.J)))
    return {
        "seed": seed,
        "quad": dw.QuadratureSpec(3),
        "v0": dw.make_growth("power", tau=0.0),
        "windows": [_window(j) for j in size["weighted_windows"]],
        "seqs": size["weighted_seqs"],
        "mvee_window": _window(size["mvee_j"]),
        "stats_window": _window(size["stats_j"]),
        "doubling_window": _window(size["doubling_j"]),
        "dwt_f": dw.GridFunction(1, N, rng.standard_normal(N)
                                 + 1j * rng.standard_normal(N)),
        "lp": lp,
    }


def _torus_weight():
    """Scalar |x - 1/2|^{-1/2} as a 1x1 matrix weight on the unit torus."""
    return dw.MatrixWeight(
        1, lambda x: np.array([[abs(float(x[0]) - 0.5) ** -0.5]]),
        singular_set=[np.array([0.5])], label="|x-1/2|^-1/2")


def _weighted_norms(inp, W, fam, t, seed, sigma):
    tv = dw.build_random(t, m=2, seed=seed, density=0.3, sigma=sigma)
    out = {}
    for family, q in (("F", 2.0), ("F", 1.0), ("B", 1.0)):
        pm = dw.SpaceParams(family, 0.0, 2.0, q, inp["v0"], mode="matrix",
                            weight=W, quad=inp["quad"])
        pa = dw.SpaceParams(family, 0.0, 2.0, q, inp["v0"],
                            mode="averaging", reducing=fam)
        out[(family, q)] = (dw.seq_norm(tv, pm, t), dw.seq_norm(tv, pa, t))
    return out


def _check_weighted_norms(norms):
    # p = q = 2: int_Q |W^{1/2} t_Q|^2 = |A_Q t_Q|^2 |Q| exactly
    nm, na = norms[("F", 2.0)]
    if abs(nm / na - 1.0) > 1e-9:
        return f"matrix {nm} != averaging {na} at p=q=2"
    if not all(math.isfinite(a) and math.isfinite(b) and a > 0 and b > 0
               for a, b in norms.values()):
        return "non-finite or zero norm"
    return None


def _check_mvee(fam):
    lo, hi = fam.equivalence_bounds
    # John's theorem: the fitted ellipsoid is within sqrt(m) of the body
    if not (lo > 0 and hi / lo <= 2.0 * math.sqrt(2.0)):
        return f"MVEE equivalence bounds {lo}, {hi}"
    return None


def _check_finite(name, values, lower):
    values = [values] if isinstance(values, float) else list(values)
    if all(math.isfinite(v) and v >= lower for v in values):
        return None
    return f"{name} gave {values}"


def _dwt_round_trip(f, k):
    c = dw.dwt_analyze(f, k=k)
    return c, dw.dwt_synthesize(c)


def _check_dwt(f, res):
    c, rec = res
    err = float(np.max(np.abs(rec.values - f.values)))
    energy = float(np.sum(np.abs(f.values) ** 2))
    scale = float(np.max(np.abs(f.values)))
    if err / scale >= 1e-10 or abs(c.energy() - energy) / energy >= 1e-10:
        return f"DWT round trip {err / scale}, Parseval"
    return None


def _lp_fields(inp, w, f, t, W):
    tv = dw.phi_analyze(f, w)
    rec = dw.phi_synthesize(tv, w)
    fhat = np.fft.fft(f.values)
    fj = {j: np.fft.ifft(np.conj(w.phi_hat[j]) * fhat) for j in w.levels}
    direct = dw.direct_weighted_field(fj, mode="matrix", W=W, p=2.0)
    pee = dw.peetre_maximal(fj, 1.25, mode="matrix", W=W, p=2.0)
    gs = dw.square_functions(fj, kind="gstar", r=2.0, lam=1.25, W=W, p=2.0)
    lu = dw.square_functions(fj, kind="lusin", r=2.0, alpha=1.0, W=W, p=2.0)
    params = dw.SpaceParams("F", 0.0, 2.0, 2.0, inp["v0"])
    norms = [dw.la_norm(fld, params, t) for fld in (direct, pee, gs, lu)]
    return rec, direct, pee, norms


def _check_lp(f, res):
    rec, direct, pee, norms = res
    err = float(np.max(np.abs(rec.values - f.values)))
    if err / float(np.max(np.abs(f.values))) >= 1e-8:
        return f"phi round trip error {err}"
    for j in direct:
        if np.any(pee[j] < direct[j] - 1e-9 * np.max(direct[j])):
            return f"Peetre field below the direct field at level {j}"
    if not all(math.isfinite(v) and v > 0 for v in norms):
        return f"square-function norms {norms}"
    return None


def pass_weighted(inp, ops):
    W = dw.diag_power_weight(-0.5, -0.25)
    quad = inp["quad"]
    for t in inp["windows"]:
        fname = f"family_j{t.j_max}"
        fam = ops.run(fname, dw.build_family, W, 2.0, t, quad,
                      backend="exact_p2")
        for i in range(inp["seqs"]):
            name = f"norms_j{t.j_max}_{i}"
            norms = ops.run(name, _weighted_norms, inp, W, fam, t,
                            inp["seed"] + 7919 * i, SIGMAS[i % 3])
            ops.check(name, _check_weighted_norms, norms)
    fam = ops.run("family_mvee", dw.build_family, W, 1.0, inp["mvee_window"],
                  quad, backend="mvee")
    ops.check("family_mvee", _check_mvee, fam)
    st = inp["stats_window"]
    apinf = ops.run("apinf", dw.apinf_characteristic, W, 2.0, st, quad)
    ops.check("apinf", _check_finite, "apinf", apinf, 1.0 - 1e-12)
    dims = ops.run("dimensions", dw.estimate_dimensions, W, 2.0, st)
    ops.check("dimensions", _check_finite, "dimensions", dims, 0.0)
    dt = inp["doubling_window"]
    fam5 = ops.run("family_doubling", dw.build_family, W, 2.0, dt, quad)
    orders = ops.run("doubling", dw.doubling_orders, fam5, dt)
    ops.check("doubling", _check_finite, "doubling", orders, 0.0)
    for k in (4, 8):
        name = f"dwt_k{k}"
        res = ops.run(name, _dwt_round_trip, inp["dwt_f"], k)
        ops.check(name, _check_dwt, inp["dwt_f"], res)
    Wt = _torus_weight()
    for w, f, t in inp["lp"]:
        name = f"lp_N{w.N}"
        res = ops.run(name, _lp_fields, inp, w, f, t, Wt)
        ops.check(name, _check_lp, f, res)


WORKLOADS = {
    "verify": (setup_verify, pass_verify),
    "envelope": (setup_envelope, pass_envelope),
    "weighted": (setup_weighted, pass_weighted),
}
