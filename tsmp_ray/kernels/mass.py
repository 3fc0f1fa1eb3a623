"""MASS — Mueen's Algorithm for Similarity Search (z-normalized ED profiles).

Re-implementations from the published algorithm descriptions (Mueen et al.,
"The Fastest Similarity Search Algorithm for Time Series Subsequences under
Euclidean Distance") with the same capability surface as the reference:
``mass_pre`` (/root/reference/R/mass-pre.R:32-75), ``mass_v2``
(/root/reference/R/mass_v2.R:45-59), ``mass_v3`` piecewise variant
(/root/reference/R/mass_v3.R:49-110), and the ``dist_profile`` dispatcher
(/root/reference/R/dist_profile.R:69-180).

Skip semantics (shared with all profile kernels): windows whose values are not
all finite, or whose SD is below ``EPS``, are "skip locations" — their
distances are forced to +Inf and non-finite inputs are zero-filled before the
FFT (/root/reference/R/stomp.R:103-115).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import EPS
from .movstats import mov_stats

__all__ = ["MassPre", "MassPreW", "mass_pre", "mass_pre_w", "mass_v2",
           "mass_v3", "mass_weighted", "dist_profile", "clean_series"]


def clean_series(x: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero-fill non-finite values; return (clean_x, skip_mask_per_window).

    skip[i] is True when window i must be masked to +Inf (contains a
    non-finite value, or is flat: sd < EPS) — /root/reference/R/stomp.R:103-115,
    182-186.
    """
    x = np.asarray(x, dtype=np.float64)
    bad = ~np.isfinite(x)
    xc = np.where(bad, 0.0, x)
    p = len(x) - w + 1
    if p <= 0:
        return xc, np.zeros(0, dtype=bool)
    # window contains a bad value  <=>  windowed sum of bad-indicator > 0
    c = np.concatenate(([0], np.cumsum(bad.astype(np.int64))))
    has_bad = (c[w:] - c[:-w]) > 0
    _, sd, _ = mov_stats(xc, w)
    # truly-flat windows detected EXACTLY via sliding min==max: the cumsum
    # variance can round a zero variance up past EPS on large-offset series,
    # which would let different kernels disagree on skip locations
    from numpy.lib.stride_tricks import sliding_window_view

    wins = sliding_window_view(xc, w)
    flat = wins.min(axis=1) == wins.max(axis=1)
    skip = has_bad | (sd < EPS) | flat
    return xc, skip


@dataclass
class MassPre:
    """Precomputed per-series state for repeated dist-profile queries.

    Matches the capability of ``mass_pre`` (/root/reference/R/mass-pre.R:70-75):
    padded FFT of the data + moving mean/sd, computed once per series and
    reused for every query window — in the engine it lives for one
    conversation's call inside its task (SURVEY.md §2.7).
    """

    w: int
    n: int
    data: np.ndarray          # cleaned (zero-filled) series
    data_fft: np.ndarray      # rfft of data, length n
    data_mu: np.ndarray
    data_sig: np.ndarray      # sqrt(ssq) = centered window norm
    skip: np.ndarray          # per-window skip mask


def mass_pre(data: np.ndarray, w: int) -> MassPre:
    data, skip = clean_series(data, w)
    n = len(data)
    mu, _, ssq = mov_stats(data, w)
    sig = np.sqrt(ssq)
    return MassPre(w=w, n=n, data=data, data_fft=np.fft.rfft(data, n=n),
                   data_mu=mu, data_sig=sig, skip=skip)


def _qt_fft(pre: MassPre, query: np.ndarray) -> np.ndarray:
    """Sliding dot products QT[j] = <query, data[j:j+w]> via one FFT product."""
    w, n = pre.w, pre.n
    qr = np.zeros(n)
    qr[:w] = query[::-1]
    prod = np.fft.irfft(pre.data_fft * np.fft.rfft(qr), n=n)
    return prod[w - 1 :]


def _dist_from_qt(pre: MassPre, qt: np.ndarray, q_mu: float, q_sig: float) -> np.ndarray:
    """z-norm ED from sliding dot products: ed = sqrt(2w(1-corr)),
    corr = (QT - w·μq·μj) / (σ̂q·σ̂j) with σ̂ = centered window norm."""
    w = pre.w
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = (qt - w * q_mu * pre.data_mu) / (q_sig * pre.data_sig)
    corr = np.clip(corr, -1.0, 1.0)
    d = np.sqrt(np.maximum(2.0 * w * (1.0 - corr), 0.0))
    d[pre.skip] = np.inf
    return d


def _query_stats(query: np.ndarray) -> tuple[np.ndarray, float, float, bool]:
    query = np.asarray(query, dtype=np.float64)
    bad = ~np.isfinite(query)
    qc = np.where(bad, 0.0, query)
    mu = qc.mean()
    sig = float(np.sqrt(np.sum((qc - mu) ** 2)))
    degenerate = bool(bad.any() or sig < EPS)
    return qc, float(mu), sig, degenerate


def mass_v2(pre: MassPre, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full-length FFT MASS: returns (dist_profile, last_product)
    (/root/reference/R/mass_v2.R:45-59)."""
    qc, q_mu, q_sig, degenerate = _query_stats(query)
    qt = _qt_fft(pre, qc)
    if degenerate:
        return np.full(len(qt), np.inf), qt
    return _dist_from_qt(pre, qt, q_mu, q_sig), qt


def mass_v3(pre: MassPre, query: np.ndarray, k: int = 1024) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise MASS: FFTs over hardware-friendly chunks of size k
    (/root/reference/R/mass_v3.R:49-110). k is rounded up to a power of two
    and clamped to ≥ 2w and ≤ next_pow2(n).

    This is the hot per-query kernel named by the north star; chunking keeps
    each FFT in cache instead of one O(n log n) transform over a huge series.
    """
    w, n, data = pre.w, pre.n, pre.data
    p = n - w + 1
    qc, q_mu, q_sig, degenerate = _query_stats(query)

    k = max(int(k), 2 * w)
    k = 1 << int(np.ceil(np.log2(k)))
    if k >= n:
        return mass_v2(pre, query)

    qt = np.empty(p)
    q_rev = qc[::-1]
    qr = np.zeros(k)
    qr[:w] = q_rev
    q_fft = np.fft.rfft(qr)
    step = k - w + 1
    j = 0
    while j < p:
        hi = min(j + k, n)
        seg = data[j:hi]
        if len(seg) < k:
            seg = np.concatenate([seg, np.zeros(k - len(seg))])
        prod = np.fft.irfft(np.fft.rfft(seg) * q_fft, n=k)
        nwin = min(step, p - j)
        qt[j : j + nwin] = prod[w - 1 : w - 1 + nwin]
        j += step

    if degenerate:
        return np.full(p, np.inf), qt
    return _dist_from_qt(pre, qt, q_mu, q_sig), qt


@dataclass
class MassPreW:
    """Precomputed state for WEIGHTED distance profiles
    (/root/reference/R/mass-pre-w.R:35-91): moving mean/SD of the data plus
    the two sliding weighted sums Σwx, Σwx² folded into ``data_pre``."""

    w: int
    n: int
    data_fft: np.ndarray      # rfft of cleaned data, length n
    data_mu: np.ndarray       # moving mean per window
    data_sd: np.ndarray       # moving population SD per window
    data_pre: np.ndarray      # (Σwx² - 2μΣwx + μ²Σw) / σ²
    weight: np.ndarray
    skip: np.ndarray


def _slide_corr(fft_series: np.ndarray, qvec: np.ndarray, n: int,
                w: int) -> np.ndarray:
    """Sliding correlation sums Σ qvec[i]·series[j+i] via one FFT product
    (qvec reversed + zero-padded, the mass-pre-w.R:66-73 three-FFT trick)."""
    qr = np.zeros(n)
    qr[:w] = qvec[::-1]
    return np.fft.irfft(fft_series * np.fft.rfft(qr), n=n)[w - 1 :]


def mass_pre_w(data: np.ndarray, w: int, weight: np.ndarray) -> MassPreW:
    """Weighted-MASS precompute (/root/reference/R/mass-pre-w.R:35-91)."""
    weight = np.asarray(weight, dtype=np.float64)
    if len(weight) != w:
        raise ValueError("'weight' must have the same length as the window")
    data, skip = clean_series(data, w)
    n = len(data)
    mu, sd, _ = mov_stats(data, w)
    data_fft = np.fft.rfft(data, n=n)
    sumw = weight.sum()
    sumxw = _slide_corr(data_fft, weight, n, w)
    sumxw2 = _slide_corr(np.fft.rfft(data * data, n=n), weight, n, w)
    with np.errstate(divide="ignore", invalid="ignore"):
        data_pre = (sumxw2 - 2.0 * sumxw * mu + sumw * mu * mu) / (sd * sd)
    return MassPreW(w=w, n=n, data_fft=data_fft, data_mu=mu, data_sd=sd,
                    data_pre=data_pre, weight=weight, skip=skip)


def mass_weighted(pre: MassPreW, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted-query distance profile (/root/reference/R/mass_weighted.R:45-72):
    the query is z-normalized, then
    d²[j] = data_pre[j] - 2(QTw[j] - μ_j·Σwq)/σ_j + Σwq².
    Returns (ED profile, weighted last_product) — the reference returns the
    SQUARED profile and callers sqrt it (dist_profile.R example); we sqrt here
    so all dist_profile methods agree in units."""
    w = pre.w
    qc, q_mu, q_signorm, degenerate = _query_stats(query)
    sd = q_signorm / np.sqrt(w)  # centered norm -> population SD
    qz = (qc - q_mu) / sd if sd > 0 else qc - q_mu
    sumwy = float(np.sum(pre.weight * qz))
    sumwy2 = float(np.sum(pre.weight * qz * qz))
    qt = _slide_corr(pre.data_fft, pre.weight * qz, pre.n, w)
    if degenerate:
        return np.full(len(qt), np.inf), qt
    with np.errstate(divide="ignore", invalid="ignore"):
        d2 = pre.data_pre - 2.0 * (qt - sumwy * pre.data_mu) / pre.data_sd + sumwy2
    d = np.sqrt(np.maximum(d2, 0.0))
    d[pre.skip] = np.inf
    return d, qt


def _dist_profile_gap(data: np.ndarray, query: np.ndarray, w: int,
                      k: int = 1024) -> tuple[np.ndarray, None]:
    """Query-with-gap mode (/root/reference/R/dist_profile.R:101-141): the
    NaN run splits the query into two sub-queries matched independently; the
    second's profile is shifted by the gap offset and the EDs added
    (Inf-padded at the ends). Returns the SUMMED ED profile (the reference
    returns its square and callers sqrt)."""
    na = np.flatnonzero(~np.isfinite(query))
    first, last = int(na.min()), int(na.max())
    if np.any(np.diff(na) != 1):
        raise ValueError("querying with gap only supports one gap")
    q1 = query[:first] if first >= 4 else None
    s2 = last + 1
    q2 = query[s2:w] if (last + 2) <= (w - 4) else None
    if q1 is None or q2 is None:
        raise ValueError("gap query needs ≥4 points on each side of the gap")
    d1, _ = mass_v3(mass_pre(data, len(q1)), q1, k=k)
    d2, _ = mass_v3(mass_pre(data, len(q2)), q2, k=k)
    # a full-query occurrence at p matches q1 at p and q2 at p+s2, so the
    # combined profile is d1[p] + d2[p+s2]. (The reference instead PREPENDS
    # the offset padding to result2 — dist_profile.R:131-135 — which aligns
    # q2 *before* the query start; we keep the documented intent, a pattern
    # with a don't-care gap, and fix the shift direction.)
    p_out = len(data) - w + 1
    out = np.full(p_out, np.inf)
    n1 = min(p_out, len(d1))
    out[:n1] = d1[:n1]
    n2 = min(p_out, max(len(d2) - s2, 0))
    out[:n2] += d2[s2 : s2 + n2]
    out[n2:] = np.inf
    return out, None


def dist_profile(
    data: np.ndarray | MassPre | MassPreW,
    query_window: np.ndarray,
    w: int | None = None,
    method: str = "v3",
    k: int = 1024,
    weight: np.ndarray | None = None,
    paa_factor: int = 1,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Dispatcher mirroring ``dist_profile`` (/root/reference/R/dist_profile.R:69-180):
    method 'v2' | 'v3' | 'weighted'; accepts a precomputed :class:`MassPre` /
    :class:`MassPreW` for param reuse (the reference threads ``params``
    recursively; we hold the object). A query containing NaN triggers the
    query-with-gap mode; ``paa_factor`` > 1 runs the PAA approximation
    (downsample both sides, scale the result — dist_profile.R:146-150,173-176).

    Returns (distance_profile, last_product).
    """
    query_window = np.asarray(query_window, dtype=np.float64)
    if w is None:
        w = len(query_window)

    if not isinstance(data, (MassPre, MassPreW)) and np.any(~np.isfinite(query_window)):
        return _dist_profile_gap(np.asarray(data, dtype=np.float64),
                                 query_window, w, k=k)

    if paa_factor > 1:
        if isinstance(data, (MassPre, MassPreW)):
            raise ValueError("PAA mode needs the raw series, not a precompute")
        from .movstats import paa as _paa

        data = _paa(np.asarray(data, dtype=np.float64), paa_factor)
        query_window = _paa(query_window, paa_factor)
        w = w // paa_factor
        d, qt = dist_profile(data, query_window, w=w, method=method, k=k,
                             weight=weight[:w] if weight is not None else None)
        # reference scales the squared profile by the factor (:173-176)
        return d * np.sqrt(paa_factor), (qt * paa_factor if qt is not None else None)

    if method == "weighted":
        if not isinstance(data, MassPreW) and weight is None:
            raise ValueError(
                "dist_profile(method='weighted') requires a weight vector "
                "or a precomputed MassPreW")
        pre = (data if isinstance(data, MassPreW)
               else mass_pre_w(data, w, weight))
        return mass_weighted(pre, query_window)
    pre = data if isinstance(data, MassPre) else mass_pre(data, w)
    if method == "v2":
        return mass_v2(pre, query_window)
    if method == "v3":
        return mass_v3(pre, query_window, k=k)
    raise ValueError(f"unknown MASS method: {method}")
