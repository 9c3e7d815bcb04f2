"""Almost-diagonal envelopes, admissibility thresholds, majorants, and
molecule/wavelet smoothness thresholds.

The envelope entry is

    u_{Q,R} = sep(Q,R)^{-D} * (l(Q)/l(R))^E   if l(Q) <= l(R)
              sep(Q,R)^{-D} * (l(R)/l(Q))^F   otherwise,

the extremal member of the (D,E,F)-almost-diagonal class: boundedness of
the envelope operator implies boundedness of everything it dominates.

For a target level j_Q and a source level j_R with d = |j_Q - j_R|,
the entry depends only on d and on the integer offset k_Q - 2^d k_R
(j_Q >= j_R) or 2^d k_Q - k_R (j_Q < j_R): the almost-diagonal matrix
is Toeplitz within each pair of levels (Frazier-Jawerth, J. Funct.
Anal. 93 (1990)).  ``ad_apply`` and ``majorant`` therefore run as FFT
convolutions on per-level window arrays.  ``ad_apply`` transforms each
level once and inverts each level's summed output spectrum once; the
level pairs meet in the spectra (tiled upward, folded downward):
O(L N log N + L^2 N) time, 2L transforms and O(N) memory per call for
N window cubes on L levels.  The kernel spectra depend only on the
grid, the level gap and D, so they are computed once and shared by
every call (``_kernel_spectrum``, and ``_kernel_hat`` for the
majorant).  ``ad_apply_stack`` and ``majorant_stack`` take a stack of
sequences on one window and transform its members together, in chunks
of at most ``STACK_ENTRIES`` spectrum entries; ``ad_apply`` and
``majorant`` are their one-member stacks.  The tests hold ``ad_apply``
to a dense entry table built from ``ad_entry``'s formula.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dyadic import (PAIR_BLOCK, CubeId, DwlabError, Truncation,
                     check_exponent, check_finite, check_integer, separation)
from .seqspace import CoeffSeq, SeqSpaceError


# spectrum entries that one chunk of a stacked call holds, over its members
STACK_ENTRIES = PAIR_BLOCK // 4


class ADError(DwlabError):
    pass


@dataclass(frozen=True)
class ADParams:
    D: float
    E: float
    F: float


@dataclass(frozen=True)
class Thresholds:
    """Strict lower bounds for admissible (D, E, F) in dimension n, plus J."""

    J: float
    D_min: float
    E_min: float
    F_min: float
    regime: str
    n: int
    weighted: bool = False


def ad_entry(Q: CubeId, R: CubeId, p: ADParams):
    if Q.n != R.n:
        raise ADError("cubes live in different dimensions")
    lq, lr = 2.0 ** (-Q.j), 2.0 ** (-R.j)
    if lq <= lr:
        ratio = (lq / lr) ** p.E
    else:
        ratio = (lr / lq) ** p.F
    return separation(Q, R) ** (-p.D) * ratio


# ---------------------------------------------------------------------------
# Per-level window arrays and convolution kernels
# ---------------------------------------------------------------------------

def _finite(out: CoeffSeq):
    """``out`` after one finiteness check a level."""
    if not all(np.isfinite(a).all() for a in out.levels.values()):
        raise SeqSpaceError("non-finite coefficient")
    return out


def _fft_len(c):
    """Least power of two >= 2c - 1: a circular convolution of that
    length sees every offset in (-c, c) without wrap-around."""
    return 1 << (2 * c - 2).bit_length()


def _kernel(M, n, d, D):
    """The level-gap-d kernel (1 + |o|/2^d)^{-D} on the M^n grid, offset
    o at index o mod M."""
    o = np.fft.fftfreq(M, 1.0 / M)
    grids = np.meshgrid(*([o] * n), indexing="ij", sparse=True)
    return (1.0 + np.sqrt(sum(g * g for g in grids)) / 2.0 ** d) ** (-D)


@functools.lru_cache(maxsize=512)
def _kernel_hat(L, n, D):
    """rfftn of _kernel(L, n, 0, D) with its o = 0 entry zeroed: the
    majorant's spectra.  Cached and read-only, since every caller shares
    it."""
    K = _kernel(L, n, 0, D)
    K.flat[0] = 0.0
    h = np.fft.rfftn(K)
    h.flags.writeable = False
    return h


@functools.lru_cache(maxsize=512)
def _kernel_spectrum(M, n, d, D):
    """fftn of _kernel(M, n, d, D).  The kernel is even, so its spectrum
    is real and kept real, without the E or F factor.  Cached (at most
    512 spectra, about 2 MB for every level pair of a 1-d j_max 12
    window) and read-only, since every caller shares it."""
    h = np.fft.fftn(_kernel(M, n, d, D)).real.copy()  # not a view of it
    h.flags.writeable = False
    return h


def _split(x, n, r):
    """x [..., M, ..., M] (n trailing axes) viewed as [..., r, M/r, ...,
    r, M/r]: index u M/r + v of an axis becomes the pair (u, v)."""
    return x.reshape(x.shape[:-n] + (r, x.shape[-1] // r) * n)


def _on_window(tvs, t):
    """ADError unless every sequence of the stack lives on ``t``."""
    for tv in tvs:
        if tv.t != t:
            raise ADError(f"sequence lives on {tv.t}, not on {t}")


def _chunks(members, entries):
    """Consecutive slices of ``members``, each holding at most
    STACK_ENTRIES spectrum entries at ``entries`` per member (one member
    at least)."""
    step = max(1, STACK_ENTRIES // entries)
    return [members[i:i + step] for i in range(0, len(members), step)]


def ad_apply(U: ADParams, tv: CoeffSeq, t: Truncation):
    """(Ut)_Q = sum_R u_{Q,R} t_R over the window ``t``, on which ``tv``
    must live (ADError otherwise), for the (D, E, F) envelope ``U``: a
    one-member ``ad_apply_stack``.

    For levels b <= a with d = a - b, the offset k_Q - 2^d k_R (target
    on level a) or 2^d k_Q - k_R (target on level b) equals the same
    expression in window-local indices, and both directions share the
    level-a kernel B(o) = (1 + |o|/2^d)^{-D}.  Level j is transformed on
    M_j = M >> (j_max - j) points per axis, M the least power of two >=
    2 c_{j_max} - 1, so M_a = 2^d M_b and every level sees its offsets
    without wrap-around.  Each level with entries is transformed once,
    and each level's output spectrum is summed and inverted once:
      - target a: upsampling the level-b array by 2^d tiles its spectrum
        2^d times per axis; multiply by 2^{-dE} B^;
      - target b: keeping every 2^d-th output of the level-a convolution
        with 2^{-dF} B folds its spectrum, summing the 2^{dn} aliases and
        dividing by 2^{dn}.
    So a call costs 2L transforms and O(L^2) spectrum products for L
    levels.  The FFT error is absolute, about 1e-16 of the largest
    contributions to a target level, so an entry many orders below its
    neighbourhood (far from a lone source under a large D) is only
    accurate to that absolute level.
    """
    return ad_apply_stack(U, [tv], t)[0]


def ad_apply_stack(U: ADParams, tvs, t: Truncation):
    """``ad_apply`` of each member of a stack of sequences that live on
    ``t`` and share m (ADError otherwise), as a list.

    The members lie side by side on the component axis, so each chunk of
    members (at most STACK_ENTRIES spectrum entries, see ``_chunks``)
    costs 2L batched transforms.  A member without entries gives zeros,
    as alone.  Every operation acts on each member alone, so member i
    equals the one-member call bit for bit.
    """
    if not isinstance(U, ADParams):
        raise ADError(f"need ADParams (D, E, F), got {type(U).__name__}")
    _on_window(tvs, t)
    ms = sorted({tv.m for tv in tvs})
    if len(ms) > 1:
        raise ADError(f"stack mixes m = {ms}")
    n = t.n
    levels = range(t.j_min, t.j_max + 1)
    top = _fft_len(t.cells_per_axis())
    size = {j: top >> (t.j_max - j) for j in levels}
    axes = tuple(range(2, n + 2))  # (member, component) lead
    lead, back = (n,) + tuple(range(n)), tuple(range(1, n + 1)) + (0,)
    res = []
    entries = ms[0] * sum(size[j] ** n for j in levels) if ms else 1
    for chunk in _chunks(range(len(tvs)), entries):
        members = [tvs[i] for i in chunk]
        cplx = [any(np.any(a.imag) for a in tv.levels.values())
                for tv in members]
        live = [False] * len(chunk)  # whether a member has entries
        spec = {}
        for j in levels:
            z = [tv.levels[j] for tv in members]
            hit = [a.any() for a in z]
            if any(hit):
                live = [x or y for x, y in zip(live, hit)]
                x = np.array([(a if c else a.real).transpose(lead)
                              for a, c in zip(z, cplx)])
                spec[j] = np.fft.fftn(x, s=(size[j],) * n, axes=axes)
        # each level's output spectrum; every level hears from every source
        acc = {j: np.zeros((len(chunk), ms[0]) + (size[j],) * n,
                           dtype=complex) for j in levels}
        for a in levels:
            for b in range(t.j_min, a + 1):
                d = a - b
                up, down = b in spec, d > 0 and a in spec
                if not (up or down):
                    continue
                B = _kernel_spectrum(size[a], n, d, U.D)
                if up:  # X_b broadcast over the 2^d tiles of each axis
                    tiles = _split(acc[a], n, 1 << d)
                    tiles += _split(B, n, 1 << d) * _split(
                        (2.0 ** (-d)) ** U.E * spec[b], n, 1)
                if down:
                    folded = _split(B * spec[a], n, 1 << d).sum(
                        axis=tuple(range(2, 2 * n + 2, 2)))
                    folded *= (2.0 ** (-d)) ** U.F / 2.0 ** (d * n)
                    acc[b] += folded
        # outputs made only now, after the spectra: made before them,
        # they shifted the heap so that a 1-d j_max = 12 call and the
        # norm after it faulted in about four times as many fresh pages
        out = [CoeffSeq(t, ms[0]) for _ in chunk]
        for j, S in acc.items():
            c = t.level_shape(j)[0]
            v = np.fft.ifftn(S, axes=axes)[(slice(None),) * 2
                                           + (slice(0, c),) * n]
            for o, vi, cx, on in zip(out, v, cplx, live):
                if on:  # a member without entries keeps its zeros
                    o.levels[j][...] = (vi if cx else vi.real).transpose(back)
        res += out
    return [_finite(o) for o in res]


def ad_thresholds(s, p, q, family, delta1, delta2, omega, n=1,
                  weighted: Optional[tuple] = None):
    """Admissibility thresholds for (D, E, F)-almost-diagonal boundedness.

    J by regime dispatch, then, with the weight's dimensions
    (d_lower, d_upper) = ``weighted``:
        Delta = [delta2 - 1/p + d_lower/(np)]_+,
        D > J + min(n Delta, omega + d_lower/p) + d_upper/p,
        E > n/2 + s + n Delta,
        F > J - n/2 - s - n(delta1 - 1/p)_+ + d_upper/p.
    Unweighted is the weighted case at (d_lower, d_upper) = (0, 0):
    Delta = (delta2 - 1/p)_+ and D > J + min(omega, n(delta2 - 1/p)_+).
    """
    if family not in ("B", "F", "b", "f"):
        raise ADError("family must be B or F")
    family = family.upper()
    check_exponent(p, "p", ADError)
    check_exponent(q, "q", ADError)
    for name, x in (("s", s), ("delta1", delta1), ("delta2", delta2),
                    ("omega", omega)):
        check_finite(x, name, ADError)
    check_integer(n, "n", ADError, 1)
    if delta2 < delta1:
        raise ADError("need delta2 >= delta1")
    if not (0 <= omega <= n * (delta2 - delta1) + 1e-12):
        raise ADError("need omega in [0, n(delta2 - delta1)]")
    inv_p = 0.0 if np.isinf(p) else 1.0 / p
    gamma = min(p, q) if family == "F" else p
    # a delta within 1e-12 of 1/p counts as equal to it (as in the omega
    # check), so 1 - 2/3 and 1/3 at p = 3 fall in one regime
    at1, at2 = abs(delta1 - inv_p) <= 1e-12, abs(delta2 - inv_p) <= 1e-12
    if delta1 > inv_p + 1e-12 or (at1 and np.isinf(q)):
        regime, J = "supercritical", float(n)
    elif family == "F" and at1 and at2 and not np.isinf(q):
        regime, J = "critical", n / min(1.0, q)
    else:
        regime, J = "subcritical", n / min(1.0, gamma)
    pos = lambda x: max(x, 0.0)
    d_lower, d_upper = weighted or (0.0, 0.0)
    if not (0 <= d_lower < n and 0 <= d_upper < np.inf):
        raise ADError("need d_lower in [0, n) and d_upper >= 0")
    Delta = pos(delta2 - inv_p + d_lower / (n * p))
    D_min = J + min(n * Delta, omega + d_lower / p) + d_upper / p
    E_min = n / 2.0 + s + n * Delta
    F_min = J - n / 2.0 - s - n * pos(delta1 - inv_p) + d_upper / p
    return Thresholds(J, D_min, E_min, F_min, regime, n,
                      weighted=weighted is not None)


def majorant(tv: CoeffSeq, r, lam, t: Truncation):
    """The within-level majorant sequence

        t*_Q = [ sum_{l(R)=l(Q)} |t_R|^r / (1 + l(R)^{-1}|x_Q - x_R|)^{lam r} ]^{1/r}

    for finite r > 0 and lam > 0 (ADError otherwise), on every window
    cube of each level where ``tv`` has entries: a one-member
    ``majorant_stack``.

    In window-local indices l(R)^{-1}|x_Q - x_R| = |k_Q - k_R|, so each
    level is one FFT convolution of |t|^r with (1 + |o|)^{-lam r}:
    O(L N log N) time, O(N) memory.  The o = 0 term is added exactly, so
    t*_Q >= |t_Q| holds without rounding slack.  The sequence must live
    on the window ``t`` (ADError otherwise).
    """
    return majorant_stack([tv], r, lam, t)[0]


def majorant_stack(tvs, r, lam, t: Truncation):
    """``majorant`` of each member of a stack of sequences on ``t``, as a
    list.  Each level of a chunk of members (at most STACK_ENTRIES
    spectrum entries, see ``_chunks``) is one batched convolution with a
    leading member axis; member i equals the one-member call bit for bit
    (a member without entries on a level gets +0.0 there, as alone)."""
    for name, x in (("r", r), ("lam", lam)):
        check_exponent(x, name, ADError)
        check_finite(x, name, ADError)
    _on_window(tvs, t)
    n = t.n
    mags = [tv.magnitudes().levels for tv in tvs]
    res = [CoeffSeq(t, 1) for _ in tvs]
    axes = tuple(range(1, n + 1))
    top = _fft_len(t.cells_per_axis())  # bounds each level's length
    entries = sum((top >> d) ** n for d in range(t.j_max - t.j_min + 1))
    for chunk in _chunks(range(len(tvs)), entries):
        for j in mags[chunk[0]]:
            z = [mags[i][j] for i in chunk]
            if not any(a.any() for a in z):
                continue
            mag = np.array([a[..., 0].real for a in z])
            c = mag.shape[1]
            s = (_fft_len(c),) * n
            w = mag**r
            conv = np.fft.irfftn(_kernel_hat(s[0], n, lam * r)
                                 * np.fft.rfftn(w, s=s, axes=axes),
                                 s=s, axes=axes)[(slice(None),)
                                                 + (slice(0, c),) * n]
            star = (w + np.maximum(conv, 0.0)) ** (1.0 / r)
            for i, row in zip(chunk, star):
                res[i].levels[j][..., 0] = row
    return [_finite(out) for out in res]


@dataclass(frozen=True)
class MoleculeThresholds:
    """Strict lower bounds (K, L, M, N) for analysis/synthesis molecules
    and the minimal wavelet smoothness order."""

    analysis: tuple   # (K_low, L_low, M_low, N_low); L is inclusive
    synthesis: tuple
    k_min: int


def molecule_thresholds(th: Thresholds):
    """Molecule parameter bounds induced by admissibility thresholds.

    Analysis molecules need K > D v (E + n/2), L >= E - n/2, M > D,
    N > F - n/2; synthesis molecules swap the roles of E and F; the
    wavelet smoothness k_min is the least integer exceeding
    max(E - n/2, F - n/2); n is the ``th.n`` of ``ad_thresholds``.
    """
    D, E, F, n = th.D_min, th.E_min, th.F_min, th.n
    analysis = (max(D, E + n / 2.0), E - n / 2.0, D, F - n / 2.0)
    synthesis = (max(D, F + n / 2.0), F - n / 2.0, D, E - n / 2.0)
    k_min = int(np.floor(max(E - n / 2.0, F - n / 2.0))) + 1
    return MoleculeThresholds(analysis, synthesis, k_min)
