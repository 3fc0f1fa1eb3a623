"""Moving-window statistics and small vector functions.

Pure-numpy re-implementations (NOT ports) of the reference's helper kernels:
``fast_movavg``/``fast_movsd``/``fast_avg_sd`` (/root/reference/R/misc.R:24-134),
``muinvn`` (/root/reference/src/math.cpp:204-253), ``znorm``/``normalize``/
``std``/``mode`` (/root/reference/R/misc.R:245-339), ``movmin``/``movmax``
(/root/reference/src/windowfunc.cpp:18-97), ``paa``/``ipaa``
(/root/reference/R/misc.R:463-522), ``zero_crossings``/``complexity``
(/root/reference/R/misc.R:950-1022), ``binary_split``
(/root/reference/R/misc.R:373-437), ``ed_corr``/``corr_ed``
(/root/reference/R/misc.R:77-100).

Numerical-stability convention follows the reference: the series mean is
subtracted before any sum-of-squares (``misc.R:117-131``), which kills the
catastrophic cancellation of the naive ``E[x^2]-E[x]^2`` formula while staying
O(n) (cumsum-based) — this same kernel is the tier-rollup partial aggregate.
"""

from __future__ import annotations

import numpy as np

from ..config import EPS

__all__ = [
    "mov_mean",
    "mov_std",
    "mov_stats",
    "muinvn",
    "movmin",
    "movmax",
    "znorm",
    "normalize",
    "mode",
    "paa",
    "ipaa",
    "zero_crossings",
    "complexity",
    "zero_one_norm",
    "ed_corr",
    "corr_ed",
    "binary_split",
    "diff_lag",
]


def _window_sums(x: np.ndarray, w: int) -> np.ndarray:
    """Sliding-window sums via cumsum-diff, O(n)."""
    c = np.concatenate(([0.0], np.cumsum(x)))
    return c[w:] - c[:-w]


def mov_mean(x: np.ndarray, w: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return _window_sums(x, w) / w


def mov_stats(x: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (mu, sd_pop, ssq) per window.

    ``ssq`` is the centered sum of squares ``sum((x_win - mu)^2)``;
    ``sd_pop = sqrt(ssq / w)`` (population SD, ddof=0 — matching the
    reference's ``std`` /root/reference/R/misc.R:245-267).

    Series-mean pre-centering for stability (misc.R:117-131 pattern).
    """
    x = np.asarray(x, dtype=np.float64)
    c = x - x.mean()  # global centering: cancels the big common term
    s1 = _window_sums(c, w)
    s2 = _window_sums(c * c, w)
    ssq = s2 - s1 * s1 / w
    np.maximum(ssq, 0.0, out=ssq)
    mu = _window_sums(x, w) / w
    sd = np.sqrt(ssq / w)
    return mu, sd, ssq


def mov_std(x: np.ndarray, w: int) -> np.ndarray:
    return mov_stats(x, w)[1]


def muinvn(x: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Moving mean and inverse centered norm ``1/sqrt(ssq)``.

    Degenerate (flat) windows get ``invn = inf`` replaced by 0 and are expected
    to be masked by callers via the skip mask. Mirrors the semantics of
    ``muinvn_rcpp`` (/root/reference/src/math.cpp:234-253) without porting its
    Ogita compensated-sum loop (global centering achieves the needed accuracy).
    """
    mu, _, ssq = mov_stats(x, w)
    with np.errstate(divide="ignore"):
        invn = 1.0 / np.sqrt(ssq)
    invn[~np.isfinite(invn)] = 0.0
    return mu, invn


def movmin(x: np.ndarray, w: int) -> np.ndarray:
    """Sliding-window minimum over a zero-copy strided view — O(n·w) compares
    but fully vectorized (a Python monotonic deque would be O(n) in theory
    and slower in practice for the window sizes the engine sweeps; callers
    budgeting per-step cost should count the w)."""
    x = np.asarray(x, dtype=np.float64)
    if w <= 1:
        return x.copy()
    from numpy.lib.stride_tricks import sliding_window_view

    return sliding_window_view(x, w).min(axis=1)


def movmax(x: np.ndarray, w: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if w <= 1:
        return x.copy()
    from numpy.lib.stride_tricks import sliding_window_view

    return sliding_window_view(x, w).max(axis=1)


def znorm(x: np.ndarray) -> np.ndarray:
    """Z-normalize; sd ≤ 0.01 degrades to mean-centering only
    (/root/reference/R/misc.R:288-314)."""
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean()
    sd = x.std()
    if sd <= 0.01:
        return x - mu
    return (x - mu) / sd


def normalize(x: np.ndarray, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """Min-max rescale to [lo, hi] (/root/reference/R/misc.R:316-339)."""
    x = np.asarray(x, dtype=np.float64)
    mn, mx = np.nanmin(x), np.nanmax(x)
    if mx == mn:
        return np.full_like(x, lo)
    return (x - mn) / (mx - mn) * (hi - lo) + lo


def mode(x: np.ndarray):
    """Statistical mode (first most-frequent value) —
    /root/reference/R/misc.R:269-286."""
    vals, counts = np.unique(np.asarray(x), return_counts=True)
    return vals[np.argmax(counts)]


def paa(x: np.ndarray, p: int) -> np.ndarray:
    """Piecewise aggregate approximation: mean of consecutive runs of length p
    (/root/reference/R/misc.R:463-522). Tail shorter than p is averaged too.
    This is the reference's own downsample operator; the engine's 1m/1h/1d
    bucketing generalizes it to time-keyed buckets."""
    x = np.asarray(x, dtype=np.float64)
    if p <= 1:
        return x.copy()
    n = len(x)
    nseg = int(np.ceil(n / p))
    out = np.empty(nseg)
    for i in range(nseg):
        out[i] = x[i * p : (i + 1) * p].mean()
    return out


def ipaa(x: np.ndarray, p: int) -> np.ndarray:
    """Inverse PAA: repeat each value p times (/root/reference/R/misc.R:500-522)."""
    return np.repeat(np.asarray(x, dtype=np.float64), p)


def zero_crossings(x: np.ndarray) -> int:
    """Count sign changes (/root/reference/R/misc.R:950-988)."""
    x = np.asarray(x, dtype=np.float64)
    s = np.sign(x)
    s = s[s != 0]
    if len(s) < 2:
        return 0
    return int(np.count_nonzero(np.diff(s) != 0))


def complexity(x: np.ndarray) -> float:
    """sqrt(sum(diff(x)^2)) complexity estimate (/root/reference/R/misc.R:1007-1022)."""
    d = np.diff(np.asarray(x, dtype=np.float64))
    return float(np.sqrt(np.sum(d * d)))


def zero_one_norm(x: np.ndarray) -> np.ndarray:
    """[0,1] normalize (/root/reference/R/misc.R:990-1005)."""
    return normalize(x, 0.0, 1.0)


def ed_corr(ed: np.ndarray, w: int) -> np.ndarray:
    """Euclidean distance → Pearson correlation: ``1 - ed^2/(2w)``
    (/root/reference/R/misc.R:77-100, src/mpx.cpp:84-86)."""
    ed = np.asarray(ed, dtype=np.float64)
    return 1.0 - ed * ed / (2.0 * w)


def corr_ed(corr: np.ndarray, w: int) -> np.ndarray:
    """Pearson correlation → ED: ``sqrt(2w(1-corr))``."""
    corr = np.asarray(corr, dtype=np.float64)
    return np.sqrt(np.maximum(2.0 * w * (1.0 - corr), 0.0))


def binary_split(n: int) -> list[int]:
    """Breadth-first midpoint exploration order of 1..n (0-based: 0..n-1).

    Used to order the PMP window sweep so early windows cover the range
    (/root/reference/R/misc.R:373-437). Returns 0-based indices; first index
    is 0 (the reference emits 1 first, then midpoints).
    """
    if n < 1:
        return []
    out = [0]
    from collections import deque

    q: deque[tuple[int, int]] = deque()
    if n > 1:
        q.append((1, n - 1))
    while q:
        lo, hi = q.popleft()
        mid = (lo + hi) // 2
        out.append(mid)
        if lo < mid:
            q.append((lo, mid - 1))
        if mid < hi:
            q.append((mid + 1, hi))
    return out


def diff_lag(x: np.ndarray, lag: int = 1) -> np.ndarray:
    """Lagged difference x[i+lag]-x[i] (/root/reference/src/math.cpp:51-72).
    Also the delta(-of-delta) primitive of the timestamp compressor."""
    x = np.asarray(x)
    return x[lag:] - x[:-lag]
