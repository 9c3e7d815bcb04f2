"""Function-level front ends on the periodic unit interval.

A GridFunction holds N = 2^J samples of a 1-d function.  The band-limited
transform uses per-level frequency multipliers supported in single
dyadic octaves, chosen so that level-j coefficients sampled on the 2^j
cube lattice are alias-free and the analysis/synthesis round trip is
exact (to roundoff) on the covered band.  The wavelet transform is the
standard periodic orthonormal Daubechies filter bank with embedded
machine-precision filter constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .dyadic import (PAIR_BLOCK, DwlabError, Truncation, check_exponent,
                     check_finite, check_integer)
from .seqspace import CoeffSeq


class TransformError(DwlabError):
    pass


@dataclass
class GridFunction:
    """Samples of a (vector-valued) function on the periodic unit interval."""

    n: int
    N: int
    values: np.ndarray  # shape (N,) for m=1, (N, m) otherwise
    m: int = 1

    def __post_init__(self):
        if self.n != 1:
            raise TransformError(f"only n = 1 is supported, got n = {self.n}")
        check_integer(self.N, "N", TransformError, 1)
        if self.N & (self.N - 1):
            raise TransformError("N must be a power of two")
        self.values = np.asarray(self.values, dtype=complex)
        want = (self.N,) if self.m == 1 else (self.N, self.m)
        if self.values.shape != want:
            raise TransformError(f"values shape {self.values.shape} != {want}")

    @property
    def J(self):
        return int(np.log2(self.N))


# ---------------------------------------------------------------------------
# Littlewood-Paley windows (n = 1, alias-free single-octave profiles)
# ---------------------------------------------------------------------------

def _profile_up(tt):
    """Smooth ramp with support (1/2, 1]:  sin^2((pi/2) log2(2t))."""
    out = np.zeros_like(tt)
    mask = (tt > 0.5) & (tt <= 1.0)
    out[mask] = np.sin(0.5 * np.pi * np.log2(2.0 * tt[mask])) ** 2
    return out


def _profile_down(tt):
    """Smooth ramp with support [1/2, 1):  cos^2((pi/2) log2(2t))."""
    out = np.zeros_like(tt)
    mask = (tt >= 0.5) & (tt < 1.0)
    out[mask] = np.cos(0.5 * np.pi * np.log2(2.0 * tt[mask])) ** 2
    return out


@dataclass
class LPWindow:
    """Per-level multipliers phi_hat[j], psi_hat[j] on the DFT lattice.

    Level j is supported on the single octave
    {xi : 2^{j-1} < xi <= 2^j} u {xi : -2^j < xi <= -2^{j-1}},
    a complete residue system modulo 2^j, so sampling the level-j band
    at 2^j points loses nothing.  psi_hat = phi_hat / sum_i phi_hat_i^2
    gives the exact partition on the covered band.
    """

    N: int
    J: int
    phi_hat: dict = dc_field(default_factory=dict)
    psi_hat: dict = dc_field(default_factory=dict)
    covered: np.ndarray = None

    @property
    def levels(self):
        return list(range(1, self.J))


def build_lp_window(N):
    check_integer(N, "N", TransformError, 1)
    J = int(np.log2(N))
    if 2**J != N:
        raise TransformError("need N = 2^J")
    if J < 3:
        raise TransformError("need J >= 3")
    xi = np.fft.fftfreq(N, d=1.0 / N)  # integer frequencies
    w = LPWindow(N=N, J=J)
    total = np.zeros(N)
    for j in range(1, J):
        ph = np.where(
            xi > 0,
            _profile_up(np.abs(xi) / 2.0**j),
            _profile_down(np.abs(xi) / 2.0**j),
        )
        ph[xi == 0] = 0.0
        w.phi_hat[j] = ph
        total += ph**2
    w.covered = total > 1e-14
    for j in range(1, J):
        psi = np.zeros(N)
        psi[w.covered] = w.phi_hat[j][w.covered] / total[w.covered]
        w.psi_hat[j] = psi
    return w


def phi_analyze(f: GridFunction, w: LPWindow):
    """Coefficients <f, phi_Q> = |Q|^{1/2} (tilde-phi_j * f)(x_Q) on the
    unit-interval window Truncation(1, 0, J - 1, 1); level 0 stays zero."""
    tv = CoeffSeq(Truncation(1, 0, w.J - 1, 1), f.m)
    fhat = np.fft.fft(f.values.reshape(f.N, f.m), axis=0)
    for j in w.levels:
        conv = np.fft.ifft(np.conj(w.phi_hat[j])[:, None] * fhat, axis=0)
        samples = conv[::f.N >> j]
        tv.levels[j][...] = samples * 2.0 ** (-j / 2.0)
    return tv


def phi_synthesize(tv: CoeffSeq, w: LPWindow):
    """sum_Q t_Q psi_Q via per-level DFTs of the coefficient arrays; the
    level-j corners k enter modulo 2^j (the unit torus)."""
    if tv.t.n != 1:
        raise TransformError("the band-limited transform is 1-d only")
    N, m = w.N, tv.m
    xi = np.fft.fftfreq(N, d=1.0 / N).astype(int)
    fhat = np.zeros((N, m), dtype=complex)
    for j, a in tv.levels.items():
        if not a.any():
            continue
        if j not in w.phi_hat:
            raise TransformError(f"coefficient level {j} outside the window")
        arr = np.zeros((1 << j, m), dtype=complex)
        arr[tv.t.level_k(j)[:, 0] % (1 << j)] = a
        A = np.fft.fft(arr, axis=0)  # A[r] = sum_k t_k e^{-2pi i r k / 2^j}
        fhat += (2.0 ** (-j / 2.0)) * w.psi_hat[j][:, None] * A[xi % (1 << j)]
    vals = np.fft.ifft(fhat, axis=0) * N
    if m == 1:
        vals = vals[:, 0]
    return GridFunction(1, N, vals, m=m)


# ---------------------------------------------------------------------------
# Periodic orthonormal Daubechies wavelets
# ---------------------------------------------------------------------------

# Low-pass filters (orthonormal, sum = sqrt(2); a test checks both) from a
# spectral factorization of the Daubechies half-band polynomial, polished.
DB_FILTERS = {
    2: (4.82962913144534156e-01, 8.36516303737807942e-01,
        2.24143868042013389e-01, -1.29409522551260370e-01),
    3: (3.32670552950082632e-01, 8.06891509311092547e-01,
        4.59877502118491543e-01, -1.35011020010254584e-01,
        -8.54412738820266582e-02, 3.52262918857095333e-02),
    4: (2.30377813308896506e-01, 7.14846570552915672e-01,
        6.30880767929858921e-01, -2.79837694168598543e-02,
        -1.87034811719093086e-01, 3.08413818355607640e-02,
        3.28830116668851966e-02, -1.05974017850690317e-02),
    6: (1.11540743350109467e-01, 4.94623890398453059e-01,
        7.51133908021095364e-01, 3.15250351709197629e-01,
        -2.26264693965439828e-01, -1.29766867567261940e-01,
        9.75016055873230425e-02, 2.75228655303057269e-02,
        -3.15820393174860298e-02, 5.53842201161496126e-04,
        4.77725751094551076e-03, -1.07730108530847959e-03),
    8: (5.44158422431040081e-02, 3.12871590914299946e-01,
        6.75630736297289758e-01, 5.85354683654206731e-01,
        -1.58291052563493059e-02, -2.84015542961546907e-01,
        4.72484573913282795e-04, 1.28747426620478472e-01,
        -1.73693010018075474e-02, -4.40882539307947546e-02,
        1.39810279173982824e-02, 8.74609404740577662e-03,
        -4.87035299345157414e-03, -3.91740373376947050e-04,
        6.75449406450569331e-04, -1.17476784124769535e-04),
}

def _get_filters(k):
    if k not in DB_FILTERS:
        raise TransformError(f"no DB-{k} filter; have {sorted(DB_FILTERS)}")
    h = np.array(DB_FILTERS[k])
    return h, ((-1.0) ** np.arange(h.size)) * h[::-1]


def _dwt_step(a, h, g):
    """One periodic analysis step: returns (approx, detail).  Tap i reads
    a[(2k + i) mod N] as a strided view of ``a`` extended once."""
    N = a.shape[0]
    ext = np.take(a, np.arange(N + h.size - 1), mode="wrap")
    lo = np.zeros_like(a[::2])
    hi = np.zeros_like(a[::2])
    for i in range(h.size):
        x = ext[i:i + N:2]
        lo += h[i] * x
        hi += g[i] * x
    return lo, hi


def _idwt_step(lo, hi, h, g):
    """Adjoint of _dwt_step (exact inverse for orthonormal filters).  Tap
    i adds h[i] lo[k] + g[i] hi[k] at output 2k + i (mod 2M), so it
    touches only the outputs of i's parity; the inputs are extended once
    at the front and read as shifted views, in the tap order of the
    zero-stuffed sum, whose skipped terms are zeros."""
    M, s = lo.shape[0], (h.size - 1) // 2
    lo_ext, hi_ext = (np.take(x, np.arange(-s, M), mode="wrap")
                      for x in (lo, hi))
    out = np.zeros(2 * M, dtype=complex)
    for i in range(h.size):
        part, x = out[i % 2::2], slice(s - i // 2, s - i // 2 + M)
        part += h[i] * lo_ext[x]
        part += g[i] * hi_ext[x]
    return out


@dataclass
class WaveletCoeffs:
    """Periodic DWT output: approx block plus per-level detail blocks.

    Details are keyed by dyadic level j (the block has 2^j entries).
    to_coeffseq() lays the details out as level arrays on the unit
    window Truncation(1, 0, J - 1, 1) with L^2 normalization
    (coefficients scaled by N^{-1/2} so that the sum of squares matches
    the grid-measure integral of |f|^2).
    """

    N: int
    filter_k: int
    approx: np.ndarray
    details: dict

    def to_coeffseq(self):
        scale = self.N ** -0.5
        tv = CoeffSeq(Truncation(1, 0, max(self.details), 1), 1)
        for j, d in self.details.items():
            tv.levels[j][..., 0] = d * scale
        return tv

    def energy(self):
        tot = float(np.sum(np.abs(self.approx) ** 2))
        for d in self.details.values():
            tot += float(np.sum(np.abs(d) ** 2))
        return tot


def dwt_analyze(f: GridFunction, k=4, levels=None):
    if f.m != 1:
        raise TransformError("dwt handles one component at a time")
    h, g = _get_filters(k)
    if h.size > f.N:
        raise TransformError("filter longer than the signal")
    J = f.J
    if levels is None:
        levels = J
    check_integer(levels, "levels", TransformError, 1)
    a = f.values
    details = {}
    for step in range(1, levels + 1):
        if a.shape[0] < h.size or a.shape[0] < 2:
            break
        a, details[J - step] = _dwt_step(a, h, g)
    return WaveletCoeffs(N=f.N, filter_k=k, approx=a, details=details)


def dwt_synthesize(c: WaveletCoeffs):
    h, g = _get_filters(c.filter_k)
    a = c.approx
    for j in sorted(c.details):
        a = _idwt_step(a, c.details[j], h, g)
    return GridFunction(1, c.N, a)


# ---------------------------------------------------------------------------
# Peetre maximal and square functions
# ---------------------------------------------------------------------------

def _torus_dist(N):
    """Periodic distance of each grid offset o = (x - y) mod N."""
    off = np.arange(N)
    return np.minimum(off, N - off) / N


def _level_grids(fj, W, p, a=1.0, mode="matrix"):
    """(j, values [Ng, m], W^{a/p} at the Ng grid midpoints [Ng, m, m])
    for each level of a field map; the power is None without a weight.
    W^{a/p} comes from ``W.power_at``, so a grid's power is evaluated
    once per weight and exponent.  A weight needs p in (0, inf] and m
    equal to every field's component count.  "matrix" is the only
    mode."""
    if mode != "matrix":
        raise TransformError(f"unknown mode {mode!r}; only 'matrix' exists")
    if W is not None:
        check_exponent(p, "p", TransformError)
    for j, vals in fj.items():
        vals = np.asarray(vals, dtype=complex).reshape(len(vals), -1)
        Ng, m = vals.shape
        if W is None:
            yield j, vals, None
            continue
        if W.m != m:
            raise TransformError(f"weight is {W.m}x{W.m}, level {j} field "
                                 f"has m={m}")
        pts = (np.arange(Ng) + 0.5) / Ng
        yield j, vals, W.power_at(pts[:, None], a / p)


def peetre_maximal(fj, eta, mode="matrix", W=None, p=None):
    """sup_y |M(x) f_j(y)| / (1 + 2^j d(x, y))^eta on the periodic grid.

    ``fj`` maps level j to grid values (N,) or (N, m); returns the same
    structure with scalar fields.  M is W^{1/p}(x), the identity when W
    is None.  For scalar M the sup is |M(x)| sup_y |f_j(y)| / pen(x - y);
    an m > 1 matrix needs the products M(x) f_j(y).  1-d only.  The sup
    is brute force in time (N^2 quotients per level) but is taken over
    blocks of max(1, PAIR_BLOCK // N) rows x, so memory per block is
    bounded by PAIR_BLOCK quotients and no N x N array is built.  eta
    must be finite and > 0 (TransformError).
    """
    check_exponent(eta, "eta", TransformError)
    check_finite(eta, "eta", TransformError)
    out = {}
    for j, vals, M in _level_grids(fj, W, p, mode=mode):
        # pen^eta once per torus offset; with y read backwards, row x of
        # pen[(x - y) mod N] is window x + 1 of the doubled penalty (a view)
        N = len(vals)
        pen = (1.0 + 2.0**j * _torus_dist(N)) ** eta
        rows = np.lib.stride_tricks.sliding_window_view(
            np.concatenate([pen, pen])[1:], N)
        scalar = M is None or M.shape[-1] == 1
        if scalar:
            mags = np.linalg.norm(vals, axis=-1)[::-1]
        sup = np.empty(N)
        step = max(1, PAIR_BLOCK // N)
        for s in range(0, N, step):
            if not scalar:
                mags = np.linalg.norm(np.einsum(
                    "xab,yb->xya", M[s:s + step], vals), axis=-1)[:, ::-1]
            sup[s:s + step] = np.max(mags / rows[s:s + step], axis=1)
        if M is not None and scalar:
            sup *= np.abs(M[:, 0, 0])
        out[j] = sup
    return out


def direct_weighted_field(fj, mode="matrix", W=None, p=None):
    """|M(x) f_j(x)| pointwise (the y = x term of the Peetre sup); M as in
    peetre_maximal."""
    out = {}
    for j, vals, M in _level_grids(fj, W, p, mode=mode):
        if M is not None:
            vals = np.einsum("xab,xb->xa", M, vals)
        out[j] = np.linalg.norm(vals, axis=-1)
    return out


def square_functions(fj, kind="gstar", r=2.0, lam=2.0, alpha=1.0,
                     W=None, p=None):
    """Discrete Lusin area function / g*_lambda fields (1-d).

    lusin: (avg_{d(x,y) <= alpha 2^{-j}} |W^{1/p}(x) f_j(y)|^r)^{1/r};
    the ball always holds x's own cell (offset 0), however small alpha.
    gstar: (sum_y 2^{jn} |W^{1/p}(x) f_j(y)|^r (1 + 2^j d)^{-lam r} dy)^{1/r}.
    Both kernels K depend on the torus offset x - y alone, so a field is
    a circular FFT convolution: |W^{1/p}(x)|^r (K * |f|^r) for W None or
    m = 1 (any r); for m > 1 only at r = 2, as W^{2/p}(x) contracted with
    K * (conj(f_a) f_b).  An m > 1 weight with r != 2 raises, and so do
    r or lam not finite and > 0 and alpha not finite and >= 0.
    """
    if kind not in ("gstar", "lusin"):
        raise TransformError(f"unknown square function kind: {kind}")
    for name, x in (("r", r), ("lam", lam)):
        check_exponent(x, name, TransformError)
        check_finite(x, name, TransformError)
    if not 0 <= alpha < np.inf:
        raise TransformError(f"alpha must be finite and >= 0, got {alpha!r}")
    a = 2.0 if W is not None and W.m > 1 else 1.0
    if a == 2.0 and r != 2:
        raise TransformError("an m > 1 weight needs r = 2")
    out = {}
    for j, vals, M in _level_grids(fj, W, p, a):
        Ng, dist = len(vals), _torus_dist(len(vals))
        if kind == "lusin":
            K = 1.0 * (dist <= alpha * 2.0**-j + 1e-15)
            K /= np.sum(K)
        else:
            K = 2.0**j / (1.0 + 2.0**j * dist) ** (lam * r) / Ng
        if a == 2.0:
            M = M.reshape(Ng, -1)
            g = (np.conj(vals)[:, :, None] * vals[:, None, :]).reshape(Ng, -1)
        else:
            g = np.linalg.norm(vals, axis=-1)[:, None] ** r
            M = np.ones((Ng, 1)) if M is None else np.abs(M[:, 0]) ** r
        conv = np.fft.ifft(np.fft.fft(K)[:, None] * np.fft.fft(g, axis=0),
                           axis=0)
        out[j] = np.maximum(np.sum(M * conv, axis=1).real, 0.0) ** (1.0 / r)
    return out

