"""Named verification experiments.

Each experiment computes the two sides of a norm equivalence, a
boundedness claim, or a divergence prediction across sampled inputs and
a ladder of growing windows, and applies its pass criterion.  Pass
bounds for equivalence-type claims are engineering choices (ratio
boundedness and bounded drift), never exact-constant assertions.
"""

from __future__ import annotations

import time

import numpy as np

from ..dyadic import CubeId, Truncation, _radius, enumerate_cubes
from ..growth import make_growth
from ..weights import (
    MatrixWeight,
    QuadratureSpec,
    _libm_pow,
    constant_weight,
    cube_blocks,
    diag_power_weight,
    estimate_dimensions,
    identity_weight,
    power_weight,
    spectral_norms,
    window_nodes,
)
from ..reducing import build_family
from ..seqspace import (
    SpaceParams,
    build_besov_counterexample,
    build_random,
    build_single_point,
    la_norms,
    seq_norm,
    seq_norms,
    single_point_oracle,
    vector_norms,
)
from ..adops import ADParams, ad_apply, ad_thresholds, majorant
from ..transforms import (
    GridFunction,
    build_lp_window,
    dwt_analyze,
    dwt_synthesize,
    direct_weighted_field,
    peetre_maximal,
    phi_analyze,
    phi_synthesize,
    square_functions,
)
from .report import Report, interval_drift, ratio_stats

DEFAULT_SEED = 0xDAD1C
LADDER_1D = (4, 6, 8)
BAND_GRIDS = (64, 128, 256)


def _pow0():
    return make_growth("power", tau=0.0)


def _windows(j_maxes=LADDER_1D):
    return [Truncation(1, 0, jm, 1) for jm in j_maxes]


def _sample_seqs(t, m, count, seed):
    return [build_random(t, m=m, seed=seed + 7919 * i, density=0.3,
                         sigma=(-0.5, 0.0, 0.5)[i % 3]) for i in range(count)]


def _band_limited(w, seed):
    rng = np.random.default_rng(seed)
    fhat = rng.standard_normal(w.N) + 1j * rng.standard_normal(w.N)
    fhat[~w.covered] = 0.0
    vals = np.fft.ifft(fhat) * w.N
    return GridFunction(1, w.N, vals)


def _ladder(rungs):
    """The ratio_stats of each rung's (numerators, denominators) norm
    arrays, one rung per window, and the drift of their [min, max]
    intervals."""
    stats = [ratio_stats(a, b) for a, b in rungs]
    return stats, interval_drift([(st["min"], st["max"]) for st in stats])


def _stacked(field_sets):
    """Per-level field dicts of S samples as one la_norms stack."""
    return {j: np.stack([f[j] for f in field_sets]) for j in field_sets[0]}


def _point_ratios(cubes, z, t, num, den):
    """Norm ratio num/den of the one-entry sequence z at each cube, on t."""
    tvs = [build_single_point(Q, z, t) for Q in cubes]
    return (seq_norms(tvs, num, t) / seq_norms(tvs, den, t)).tolist()


def _growth(r):
    """Whether the ratios r never decrease, and their last/first growth."""
    return all(b >= a for a, b in zip(r, r[1:])), r[-1] / r[0]


# ---------------------------------------------------------------------------
# SINGLE: one-entry sequences against the closed-form oracle
# ---------------------------------------------------------------------------

def exp_single(seed=DEFAULT_SEED):
    t = Truncation(1, 0, 3, 2)
    quad = QuadratureSpec(8)
    rng = np.random.default_rng(seed)
    cases = [
        (identity_weight(1), 1, "B", 1.0),
        (identity_weight(1), 1, "F", 2.0),
        (constant_weight(np.diag([1.0, 4.0])), 2, "B", 2.0),
        (power_weight(-0.5), 1, "F", 1.0),
        (power_weight(-0.5), 2, "B", 2.0),
        (diag_power_weight(-0.5, -0.25), 2, "F", 2.0),
        (diag_power_weight(-0.5, -0.25), 1, "B", 1.0),
    ]
    growths = [_pow0(), make_growth("power", tau=0.3)]
    worst = 0.0
    checked = 0
    for ci, (W, p, family, q) in enumerate(cases):
        v = growths[ci % 2]
        params = SpaceParams(family, 0.0, p, q, v, mode="matrix",
                             weight=W, quad=quad)
        # with a singular origin, keep cubes half an edge clear of it
        cubes = [Q for Q in enumerate_cubes(t)
                 if not W.singular_set or Q.k[0] not in (-1, 0)]
        cubes = cubes[:: max(1, len(cubes) // 8)]
        zs = [rng.standard_normal(W.m) + 1j * rng.standard_normal(W.m)
              for _ in cubes]
        measured = seq_norms([build_single_point(Q, z, t)
                              for Q, z in zip(cubes, zs)], params, t)
        for Q, z, got in zip(cubes, zs, measured):
            oracle = single_point_oracle(Q, z, params, t)
            worst = max(worst, abs(got - oracle) / oracle)
        checked += len(cubes)
    passed = worst < 1e-3 and checked >= 50
    return Report(
        name="SINGLE",
        criterion="one-entry norms match the closed-form oracle to 1e-3",
        windows=[repr(t)],
        stats={"all": {"worst_rel_err": worst, "cubes_checked": checked}},
        passed=passed,
    )


# ---------------------------------------------------------------------------
# EQ-AW: matrix-weight norm vs reducing-operator norm
# ---------------------------------------------------------------------------

def exp_eq_aw(seed=DEFAULT_SEED):
    W = diag_power_weight(-0.5, -0.25)
    quad = QuadratureSpec(3)
    rungs = []
    exact_dev = 0.0
    for t in _windows():
        fam = build_family(W, 2, t, quad, backend="exact_p2")
        # p = q = 2: int_Q |W^{1/2} t_Q|^2 = |A_Q t_Q|^2 |Q| exactly, so
        # the two norms agree to rounding -- a sharp oracle
        pm2 = SpaceParams("F", 0.0, 2, 2, _pow0(), mode="matrix",
                          weight=W, quad=quad)
        pa2 = SpaceParams("F", 0.0, 2, 2, _pow0(), mode="averaging",
                          reducing=fam)
        # q = 1: genuinely different norms, equivalent with a stable ratio
        pm1 = SpaceParams("F", 0.0, 2, 1, _pow0(), mode="matrix",
                          weight=W, quad=quad)
        pa1 = SpaceParams("F", 0.0, 2, 1, _pow0(), mode="averaging",
                          reducing=fam)
        tvs = _sample_seqs(t, 2, 30, seed)
        r2 = seq_norms(tvs, pm2, t) / seq_norms(tvs, pa2, t)
        exact_dev = max(exact_dev, float(np.max(np.abs(r2 - 1.0))))
        rungs.append((seq_norms(tvs, pm1, t), seq_norms(tvs, pa1, t)))
    rung_stats, drift = _ladder(rungs)
    stats = {f"j_max={jm}": st for jm, st in zip(LADDER_1D, rung_stats)}
    stats["drift"] = drift
    stats["q2_exact_deviation"] = exact_dev
    return Report(
        name="EQ-AW",
        criterion="q=2 weighted/averaged norms agree to 1e-9; q=1 ratio "
                  "interval drift < 1.5",
        windows=[f"j_max={jm}" for jm in LADDER_1D],
        stats=stats,
        passed=exact_dev < 1e-9 and drift < 1.5,
    )


# ---------------------------------------------------------------------------
# EQ-GSTAR: majorant-sequence norm equivalence
# ---------------------------------------------------------------------------

def exp_eq_gstar(seed=DEFAULT_SEED):
    spaces = [("F", 2.0, 2.0, 2.0), ("B", 1.0, 1.0, 1.0), ("F", 0.5, 3.0, 2.0)]
    stats = {}
    all_ok = True
    # quasi-Banach tail sums converge slowly in the window, so the
    # ladder starts deeper than the default
    ladder = (6, 8, 10)
    # one draw per window serves every space
    samples = [(t, [tv.magnitudes() for tv in _sample_seqs(t, 1, 10, seed)])
               for t in _windows(ladder)]
    for family, p, q, r in spaces:
        gamma = min(p, q) if family == "F" else p
        lam = 1.0 / min(r, gamma) + 0.25
        rungs = []
        for t, seqs in samples:
            params = SpaceParams(family, 0.0, p, q, _pow0())
            stars = [majorant(mags, r, lam, t) for mags in seqs]
            for star, mags in zip(stars, seqs):
                for j, a in mags.levels.items():
                    all_ok &= not np.any(np.abs(star.levels[j])
                                         < np.abs(a) - 1e-12)
            rungs.append((seq_norms(stars, params, t),
                          seq_norms(seqs, params, t)))
        rung_stats, drift = _ladder(rungs)
        hi = max(st["max"] for st in rung_stats)
        stats[f"{family.lower()}({p},{q})"] = {"max_ratio": hi, "drift": drift,
                                              "r": r, "lam": lam}
        all_ok = all_ok and hi <= 20 and drift < 1.5
    return Report(
        name="EQ-GSTAR",
        criterion="|t| <= t* exactly; at +0.25 margin ||t*||/||t|| <= 20 "
                  "with drift < 1.5",
        windows=[f"j_max={jm}" for jm in ladder],
        stats=stats,
        passed=all_ok,
    )


# ---------------------------------------------------------------------------
# AD-BOUND / AD-NEC: almost-diagonal boundedness and its failure
# ---------------------------------------------------------------------------

def exp_ad_bound(seed=DEFAULT_SEED):
    th = ad_thresholds(0.0, 2.0, 2.0, "F", 0.0, 0.0, 0.0, n=1)
    ad = ADParams(th.D_min + 0.25, th.E_min + 0.25, th.F_min + 0.25)
    params = SpaceParams("F", 0.0, 2.0, 2.0, _pow0())
    # at a thin +0.25 margin the operator constant converges slowly, so
    # the ladder starts deeper than the default
    ladder = (8, 10, 12)
    rungs = []
    for t in _windows(ladder):
        mags = [tv.magnitudes() for tv in _sample_seqs(t, 1, 10, seed)]
        rungs.append((seq_norms([ad_apply(ad, a, t) for a in mags], params, t),
                      seq_norms(mags, params, t)))
    rung_stats, drift = _ladder(rungs)
    stats = {f"j_max={jm}": {"min": st["min"], "max": st["max"]}
             for jm, st in zip(ladder, rung_stats)}
    hi = max(st["max"] for st in rung_stats)
    stats["drift"] = drift
    stats["thresholds"] = {"J": th.J, "D_min": th.D_min, "E_min": th.E_min,
                           "F_min": th.F_min, "regime": th.regime}
    return Report(
        name="AD-BOUND",
        criterion="envelope at +0.25 margins: ||Ut||/||t|| <= 50, "
                  "drift < 1.5",
        windows=[f"j_max={jm}" for jm in ladder],
        stats=stats,
        passed=hi <= 50 and drift < 1.5,
    )


def exp_ad_nec(seed=DEFAULT_SEED):
    # Quasi-Banach range (p = q = 1/2) where the cross-scale exponent
    # bites hardest; probe 0.5 below the admissible threshold.
    th = ad_thresholds(0.0, 0.5, 0.5, "B", 0.0, 0.0, 0.0, n=1)
    ad = ADParams(th.D_min + 0.25, th.E_min + 0.25, th.F_min - 0.5)
    params = SpaceParams("B", 0.0, 0.5, 0.5, _pow0())
    t = Truncation(1, 0, 8, 1)
    probe_levels = [2, 4, 6, 8]
    tvs = [build_single_point(CubeId(j, (0,)), 1.0, t) for j in probe_levels]
    ratios = (seq_norms([ad_apply(ad, tv, t) for tv in tvs], params, t)
              / seq_norms(tvs, params, t)).tolist()
    monotone, growth = _growth(ratios)
    return Report(
        name="AD-NEC",
        criterion="0.5 below the threshold: single-point ratios grow >= 4x",
        windows=[repr(t)],
        stats={"probe": {f"level_{j}": r for j, r in zip(probe_levels, ratios)},
               "growth": growth, "F_probe": ad.F, "F_min": th.F_min},
        passed=monotone and growth >= 4.0,
    )


# ---------------------------------------------------------------------------
# CEX-B: strictness of the mixed-exponent inclusion
# ---------------------------------------------------------------------------

def exp_cex_b(seed=DEFAULT_SEED):
    q, p, J = 2.0, 1.0, 14
    t_full = Truncation(1, 0, J, 1)
    t_half = Truncation(1, 0, 7, 1)
    vq = make_growth("power", tau=1.0 / q)
    vp = make_growth("power", tau=1.0 / p)
    tv_full = build_besov_counterexample(J, t_full)
    tv_half = build_besov_counterexample(7, t_half)
    pq = SpaceParams("B", 0.0, q, q, vq)
    pp = SpaceParams("B", 0.0, p, q, vp)
    lower = float(np.sum(1.0 / (1.0 + np.arange(J + 1)))) ** (1.0 / q)
    n_qq = seq_norm(tv_full, pq, t_full)
    n_pq_full = seq_norm(tv_full, pp, t_full)
    n_pq_half = seq_norm(tv_half, pp, t_half)
    passed = n_qq >= lower - 1e-9 and n_pq_full <= 2.0 * n_pq_half
    return Report(
        name="CEX-B",
        criterion="diagonal-index norm exceeds the harmonic lower bound "
                  "while the mixed-index norm stays bounded",
        windows=[repr(t_full), repr(t_half)],
        stats={"values": {"qq_norm": n_qq, "harmonic_lower": lower,
                          "pq_norm_J14": n_pq_full, "pq_norm_J7": n_pq_half}},
        passed=passed,
    )


# ---------------------------------------------------------------------------
# INV-F: scalar-equivalence invariance, both directions
# ---------------------------------------------------------------------------

def exp_inv_f(seed=DEFAULT_SEED):
    quad = QuadratureSpec(3)
    # sufficiency: W = w I_2 with a scalar A_infinity weight
    wfield = lambda x: _libm_pow(_radius(x), -0.5)
    Wsuf = diag_power_weight(-0.5, -0.5)
    p, q = 1.0, 2.0
    rungs = []
    for t in _windows():
        vq = make_growth("weight_power", field=wfield, tau=1.0 / q)
        vp = make_growth("weight_power", field=wfield, tau=1.0 / p)
        sq = SpaceParams("F", 0.0, q, q, vq, mode="matrix", weight=Wsuf,
                         quad=quad)
        sp = SpaceParams("F", 0.0, p, q, vp, mode="matrix", weight=Wsuf,
                         quad=quad)
        tvs = _sample_seqs(t, 2, 10, seed)
        rungs.append((seq_norms(tvs, sq, t), seq_norms(tvs, sp, t)))
    rung_stats, drift = _ladder(rungs)
    stats = {f"sufficiency_j_max={jm}": st
             for jm, st in zip(LADDER_1D, rung_stats)}
    stats["sufficiency_drift"] = drift

    # necessity: genuinely non-scalar diag(|x|^{-1/2}, 1)
    Wnec = diag_power_weight(-0.5, 0.0)
    pn, qn = 1.0, 4.0
    tn = Truncation(1, -7, 0, 2)
    nfield = lambda x: np.maximum(_libm_pow(_radius(x), -0.5), 1.0)
    vqn = make_growth("weight_power", field=nfield, tau=1.0 / qn)
    vpn = make_growth("weight_power", field=nfield, tau=1.0 / pn)
    sqn = SpaceParams("F", 0.0, qn, qn, vqn, mode="matrix", weight=Wnec,
                      quad=quad)
    spn = SpaceParams("F", 0.0, pn, qn, vpn, mode="matrix", weight=Wnec,
                      quad=quad)
    xs = (1, 4, 16, 64)
    nec = _point_ratios([CubeId(0, (k,)) for k in xs], np.array([1.0, 0.0]),
                        tn, sqn, spn)
    monotone, growth = _growth(nec)
    stats["necessity"] = {f"x_Q={k}": r for k, r in zip(xs, nec)}
    stats["necessity_growth"] = growth
    return Report(
        name="INV-F",
        criterion="scalar-multiple weights: stable ratio; genuinely matrix "
                  "weights: single-point ratios grow >= 4x",
        windows=[f"j_max={jm}" for jm in LADDER_1D] + [repr(tn)],
        stats=stats,
        passed=drift < 1.5 and monotone and growth >= 4.0,
    )


# ---------------------------------------------------------------------------
# SOB: Sobolev-type embedding, stable and violated
# ---------------------------------------------------------------------------

def exp_sob(seed=DEFAULT_SEED):
    q = 2.0
    s0, p0, s1, p1 = 1.0, 1.0, 0.5, 2.0
    P0 = SpaceParams("B", s0, p0, q, _pow0())
    P1 = SpaceParams("B", s1, p1, q, _pow0())
    rungs = []
    for t in _windows():
        tvs = _sample_seqs(t, 1, 10, seed)
        rungs.append((seq_norms(tvs, P1, t), seq_norms(tvs, P0, t)))
    rung_stats, _ = _ladder(rungs)
    stats = {f"j_max={jm}": {"min": st["min"], "max": st["max"]}
             for jm, st in zip(LADDER_1D, rung_stats)}
    # the embedding constant must not grow with the window
    sups = [st["max"] for st in rung_stats]
    sup_growth = max(b / a for a, b in zip(sups, sups[1:]))
    stats["sup_growth"] = sup_growth
    # single points are the extremizers: their ratio is level-independent
    t = Truncation(1, 0, 6, 1)
    cubes = [CubeId(j, (0,)) for j in range(0, 7)]
    sharp = _point_ratios(cubes, 1.0, t, P1, P0)
    sharp_spread = max(sharp) / min(sharp)
    stats["sharp_spread"] = sharp_spread
    # violation by 1/4 in the embedding index
    P1v = SpaceParams("B", s1 + 0.25, p1, q, _pow0())
    _, vgrowth = _growth(_point_ratios(cubes, 1.0, t, P1v, P0))
    stats["violation_growth"] = vgrowth
    return Report(
        name="SOB",
        criterion="matched indices embed with a level-independent sharp "
                  "constant; a 1/4 violation grows >= 2x over six levels",
        windows=[f"j_max={jm}" for jm in LADDER_1D],
        stats=stats,
        passed=(sup_growth <= 1.2 and sharp_spread <= 1.0 + 1e-9
                and vgrowth >= 2.0),
    )


# ---------------------------------------------------------------------------
# EMB: elementary embeddings as exact inequalities
# ---------------------------------------------------------------------------

def exp_emb(seed=DEFAULT_SEED):
    t = Truncation(1, 0, 6, 1)
    ok = True
    worst = 0.0
    mags = [tv.magnitudes() for tv in _sample_seqs(t, 1, 10, seed)]
    for family in ("B", "F"):
        n1, n2, ninf = (seq_norms(mags, SpaceParams(family, 0.0, 2.0, q,
                                                    _pow0()), t)
                        for q in (1.0, 2.0, np.inf))
        ok &= bool(np.all((n2 <= n1 * (1 + 1e-12))
                          & (ninf <= n2 * (1 + 1e-12))))
        ratio = np.divide(n2, n1, out=np.zeros_like(n2), where=n1 != 0)
        worst = max(worst, float(np.max(ratio)))
    p, qq = 2.0, 1.0
    bmin = seq_norms(mags, SpaceParams("B", 0.0, p, min(p, qq), _pow0()), t)
    fm = seq_norms(mags, SpaceParams("F", 0.0, p, qq, _pow0()), t)
    bmax = seq_norms(mags, SpaceParams("B", 0.0, p, max(p, qq), _pow0()), t)
    ok &= bool(np.all((bmax <= fm * (1 + 1e-12)) & (fm <= bmin * (1 + 1e-12))))
    return Report(
        name="EMB",
        criterion="fine-index monotonicity and the B-F-B sandwich hold "
                  "as exact inequalities",
        windows=[repr(t)],
        stats={"all": {"ok": bool(ok), "worst_q_ratio": worst}},
        passed=bool(ok),
    )


# ---------------------------------------------------------------------------
# FS-GAMMA: the scalar deviation field against the matrix norm
# ---------------------------------------------------------------------------

def exp_fs_gamma(seed=DEFAULT_SEED):
    W = diag_power_weight(-0.5, -0.25)
    quad = QuadratureSpec(3)
    p = 2.0
    rungs = {"B": [], "F": []}
    for t in _windows((4, 6)):
        fam = build_family(W, p, t, quad, backend="exact_p2")
        R = t.cells_per_axis() * quad.G
        wp = W.power_at(window_nodes(t, quad.G), 1.0 / p)
        # ||W^{1/p}(x) A_Q^{-1}|| at the nodes x of each cube Q, per level
        gam = {j: spectral_norms(cube_blocks(wp, t, quad.G, j)
                                 @ np.linalg.inv(A)[:, None])
               for j, A in fam.levels.items()}
        # the deviation fields do not depend on the family: build them once
        tvs = _sample_seqs(t, 2, 8, seed)
        fields = {}
        for j, A in fam.levels.items():
            z = np.stack([tv.levels[j] for tv in tvs])
            az = vector_norms((A @ z[..., None])[..., 0])
            fields[j] = (gam[j] * az[..., None]
                         * 2.0 ** (j / 2.0)).reshape(len(tvs), R)
        for fk, fk_rungs in rungs.items():
            pm = SpaceParams(fk, 0.0, p, 2.0, _pow0(), mode="matrix",
                             weight=W, quad=quad)
            fk_rungs.append((la_norms(fields, pm, t),
                             seq_norms(tvs, pm, t)))
    ok, stats = True, {}
    for fk, fk_rungs in rungs.items():
        rung_stats, drift = _ladder(fk_rungs)
        lo = min(st["min"] for st in rung_stats)
        stats[fk] = {"min": lo, "max": max(st["max"] for st in rung_stats),
                     "drift": drift}
        # the deviation-weighted field always dominates the matrix field
        ok &= lo >= 1.0 - 1e-9
        if fk == "B":
            ok &= drift < 1.5
    return Report(
        name="FS-GAMMA",
        criterion="deviation-weighted averaged field dominates the matrix "
                  "norm; two-sided with stable drift for the B family",
        windows=["j_max=4", "j_max=6"],
        stats=stats,
        passed=bool(ok),
    )


# ---------------------------------------------------------------------------
# CALDERON / WAV-NORM: transform round trips and norm comparability
# ---------------------------------------------------------------------------

def exp_calderon(seed=DEFAULT_SEED):
    stats = {}
    ok = True
    for N in (128, 256, 512):
        w = build_lp_window(N)
        # partition residual on the covered band
        total = np.zeros(N)
        for j in w.levels:
            total += w.phi_hat[j] * w.psi_hat[j]
        resid = float(np.max(np.abs(total[w.covered] - 1.0)))
        # annulus disjointness two levels apart
        dis = 0.0
        for j in w.levels:
            for j2 in w.levels:
                if abs(j - j2) >= 2:
                    dis = max(dis, float(np.max(w.phi_hat[j] * w.phi_hat[j2])))
        f = _band_limited(w, seed + N)
        tv = phi_analyze(f, w)
        rec = phi_synthesize(tv, w)
        err = float(np.max(np.abs(rec.values - f.values)))
        scale = float(np.max(np.abs(f.values)))
        stats[f"N={N}"] = {"round_trip_err": err / scale,
                           "partition_resid": resid,
                           "annulus_overlap": dis}
        ok &= err / scale < 1e-8 and resid < 1e-12 and dis == 0.0
    return Report(
        name="CALDERON",
        criterion="analysis/synthesis round trip < 1e-8 on the covered band",
        windows=["N=128", "N=256", "N=512"],
        stats=stats,
        passed=bool(ok),
    )


def exp_wav_norm(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    stats = {}
    # reconstruction + Parseval at N = 512
    N = 512
    f = GridFunction(1, N, rng.standard_normal(N) + 1j * rng.standard_normal(N))
    c = dwt_analyze(f, k=4)
    rec = dwt_synthesize(c)
    err = float(np.max(np.abs(rec.values - f.values)))
    energy_f = float(np.sum(np.abs(f.values) ** 2))
    parseval = abs(c.energy() - energy_f) / energy_f
    stats["N=512"] = {"round_trip_err": err / float(np.max(np.abs(f.values))),
                      "parseval_rel_err": parseval}
    ok = stats["N=512"]["round_trip_err"] < 1e-10 and parseval < 1e-10

    # norm comparability of wavelet vs band-limited coefficients, on
    # functions with a fixed frequency band so the comparison is between
    # refinements of the same function
    rungs = []
    freqs = np.arange(17, 65)
    amps = [np.random.default_rng(seed + 31 * i).standard_normal(
        (2, freqs.size)) for i in range(10)]
    grids = (128, 256, 512)
    params = SpaceParams("B", 0.0, 2.0, 2.0, _pow0())
    for N in grids:
        t = Truncation(1, 0, int(np.log2(N)) - 1, 1)
        w = build_lp_window(N)
        twavs, phis = [], []
        for a in amps:
            fhat = np.zeros(N, dtype=complex)
            fhat[freqs] = a[0] + 1j * a[1]
            fhat[-freqs] = np.conj(a[0] + 1j * a[1])
            f = GridFunction(1, N, np.fft.ifft(fhat) * N)
            twavs.append(dwt_analyze(f, k=4).to_coeffseq())
            phis.append(phi_analyze(f, w))
        rungs.append((seq_norms(twavs, params, t), seq_norms(phis, params, t)))
    rung_stats, drift = _ladder(rungs)
    for N, st in zip(grids, rung_stats):
        stats[f"norms_N={N}"] = {"min": st["min"], "max": st["max"]}
    stats["drift"] = drift
    ok = ok and drift < 1.5
    return Report(
        name="WAV-NORM",
        criterion="DWT round trip < 1e-10, Parseval < 1e-10, wavelet/band "
                  "coefficient norm ratio drift < 1.5",
        windows=[f"N={N}" for N in grids],
        stats=stats,
        passed=bool(ok),
    )


# ---------------------------------------------------------------------------
# PEETRE / LPFUNC: maximal-function and square-function characterizations
# ---------------------------------------------------------------------------

def _torus_weight():
    """Scalar |x - 1/2|^{-1/2} as a 1x1 matrix weight on the unit torus."""
    return MatrixWeight.from_batched(
        1,
        lambda x: _libm_pow(np.abs(x[:, :1] - 0.5), -0.5)[..., None],
        singular_set=[np.array([0.5])],
        label="|x-1/2|^-1/2",
    )


def _alpha_upper_bound(W, p):
    t = Truncation(1, 0, 4, 1)
    d_low, d_up = estimate_dimensions(W, p, t)
    return (d_low + d_up) / p, (d_low, d_up)


def _band_samples(W, p, seed, stride):
    """The PEETRE/LPFUNC ladder: per grid N in BAND_GRIDS, the window and
    8 band-limited samples f, each as its per-level fields phi~_j * f and
    their direct weighted field."""
    for N in BAND_GRIDS:
        t = Truncation(1, 0, int(np.log2(N)), 1)
        w = build_lp_window(N)
        samples = []
        for i in range(8):
            fhat = np.fft.fft(_band_limited(w, seed + stride * i + N).values)
            fj = {j: np.fft.ifft(np.conj(w.phi_hat[j]) * fhat)
                  for j in w.levels}
            samples.append(
                (fj, direct_weighted_field(fj, mode="matrix", W=W, p=p)))
        yield t, samples


def exp_peetre(seed=DEFAULT_SEED):
    W = _torus_weight()
    p, q, s = 2.0, 2.0, 0.0
    alpha_bound, dims = _alpha_upper_bound(W, p)
    eta = 1.0 / min(p, q) + alpha_bound + 0.25
    stats = {"eta": eta, "alpha_upper_bound": alpha_bound,
             "dims": {"d_lower": dims[0], "d_upper": dims[1]}}
    params = SpaceParams("F", s, p, q, _pow0())
    rungs = []
    ok = True
    for t, samples in _band_samples(W, p, seed, 17):
        pees = []
        for fj, direct in samples:
            pee = peetre_maximal(fj, eta, mode="matrix", W=W, p=p)
            for j in fj:
                ok &= not np.any(pee[j] < direct[j] - 1e-9 * np.max(direct[j]))
            pees.append(pee)
        rungs.append((la_norms(_stacked(pees), params, t),
                      la_norms(_stacked([d for _, d in samples]), params, t)))
    rung_stats, drift = _ladder(rungs)
    for N, st in zip(BAND_GRIDS, rung_stats):
        stats[f"N={N}"] = {"min": st["min"], "max": st["max"]}
    stats["drift"] = drift
    hi = max(st["max"] for st in rung_stats)
    ok = ok and hi <= 50 and drift < 1.5
    return Report(
        name="PEETRE",
        criterion="maximal field dominates pointwise; norm ratio <= 50 "
                  "with drift < 1.5",
        windows=[f"N={N}" for N in BAND_GRIDS],
        stats=stats,
        passed=bool(ok),
    )


def exp_lpfunc(seed=DEFAULT_SEED):
    W = _torus_weight()
    p, q, s, r, alpha = 2.0, 2.0, 0.0, 2.0, 1.0
    alpha_bound, _ = _alpha_upper_bound(W, p)
    lam = 1.0 / min(r, min(p, q)) + alpha_bound + 0.25
    stats = {"lam": lam}
    params = SpaceParams("F", s, p, q, _pow0())
    const = (1.0 + alpha) ** lam
    rungs_g, rungs_s = [], []
    ok = True
    for t, samples in _band_samples(W, p, seed, 23):
        g_sets, s_sets = [], []
        for fj, _ in samples:
            gs = square_functions(fj, kind="gstar", r=r, lam=lam, W=W, p=p)
            lu = square_functions(fj, kind="lusin", r=r, alpha=alpha,
                                  W=W, p=p)
            for j in fj:
                ok &= not np.any(lu[j] > const * gs[j] * (1 + 1e-9))
            g_sets.append(gs)
            s_sets.append(lu)
        nb = la_norms(_stacked([d for _, d in samples]), params, t)
        rungs_g.append((la_norms(_stacked(g_sets), params, t), nb))
        rungs_s.append((la_norms(_stacked(s_sets), params, t), nb))
    g_stats, dg = _ladder(rungs_g)
    s_stats, ds = _ladder(rungs_s)
    for N, g, sl in zip(BAND_GRIDS, g_stats, s_stats):
        stats[f"N={N}"] = {"gstar_min": g["min"], "gstar_max": g["max"],
                           "lusin_min": sl["min"], "lusin_max": sl["max"]}
    stats["drift"] = {"gstar": dg, "lusin": ds}
    within = all(1 / 50 <= st[k] <= 50 for st in g_stats + s_stats
                 for k in ("min", "max"))
    ok = ok and within and dg < 1.5 and ds < 1.5
    return Report(
        name="LPFUNC",
        criterion="Lusin <= (1+alpha)^lam g* pointwise; norm ratios within "
                  "a factor 50 with drift < 1.5",
        windows=[f"N={N}" for N in BAND_GRIDS],
        stats=stats,
        passed=bool(ok),
    )


EXPERIMENTS = {
    "SINGLE": exp_single,
    "EQ-AW": exp_eq_aw,
    "EQ-GSTAR": exp_eq_gstar,
    "AD-BOUND": exp_ad_bound,
    "AD-NEC": exp_ad_nec,
    "CEX-B": exp_cex_b,
    "INV-F": exp_inv_f,
    "SOB": exp_sob,
    "EMB": exp_emb,
    "FS-GAMMA": exp_fs_gamma,
    "CALDERON": exp_calderon,
    "WAV-NORM": exp_wav_norm,
    "PEETRE": exp_peetre,
    "LPFUNC": exp_lpfunc,
}


def run_experiment(name, seed=DEFAULT_SEED):
    name = name.upper()
    if name not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {name!r}; have {sorted(EXPERIMENTS)}"
        )
    t0 = time.perf_counter()
    report = EXPERIMENTS[name](seed=seed)
    report.wall_time = time.perf_counter() - t0
    report.provenance.setdefault("seed", seed)
    return report


def run_all(seed=DEFAULT_SEED):
    return [run_experiment(name, seed=seed) for name in EXPERIMENTS]
