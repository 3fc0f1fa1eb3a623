"""STOMP — exact matrix profile via the streaming dot-product recurrence.

Re-implementation (not a port) of the algorithm behind the reference's
``stomp`` (/root/reference/R/stomp.R:49-230): row i's sliding dot products are
derived from row i-1 in O(1) per column —
``QT[i,j] = QT[i-1,j-1] - x[j-1]·x[i-1] + x[j+w-1]·x[i+w-1]``
(stomp.R:162-168) — with the first row/column seeded by one FFT dist-profile
(stomp.R:128-136). Distances via
``sqrt(2w(1 - (QT - w·μiμj)/(σ̂iσ̂j)))`` and clamped at 0 (stomp.R:167-171).

The row loop is a Python loop over O(n) vectorized numpy rows — O(n²) work,
O(n) memory. No engine code runs it: every engine profile is
``block_join.blocked_mp``, and stomp stays as the reference kernel the
agreement and known-answer tests check the others against.
"""

from __future__ import annotations

import numpy as np

from ..config import DEFAULT_EZ, exclusion_zone, raise_if_too_short
from .mass import MassPre, mass_pre, _qt_fft
from .profile_types import MatrixProfile, empty_profile


def _row_dist(qt: np.ndarray, mu_i: float, sig_i: float,
              mu: np.ndarray, sig: np.ndarray, skip: np.ndarray, w: int) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = (qt - w * mu_i * mu) / (sig_i * sig)
    corr = np.clip(corr, -1.0, 1.0)
    d = np.sqrt(np.maximum(2.0 * w * (1.0 - corr), 0.0))
    d[skip] = np.inf
    return d


def stomp(
    data: np.ndarray,
    w: int,
    query: np.ndarray | None = None,
    ez: float = DEFAULT_EZ,
) -> MatrixProfile:
    """Exact MP. Self-join (with lmp/lpi/rmp/rpi) or AB-join (no exclusion)."""
    if w < 4:
        raise ValueError("window_size must be at least 4")  # stomp.R:48
    if query is not None and len(query) > len(data):
        # stomp.R:92-94
        raise ValueError("query must be smaller or the same size as reference data")
    qs = len(data) if query is None else len(query)
    raise_if_too_short(qs, w, ceiling=True)  # stomp.R:95-97
    if query is None:
        return _stomp_self(data, w, ez)
    return _stomp_ab(data, query, w)


def _stomp_self(data: np.ndarray, w: int, ez: float) -> MatrixProfile:
    pre = mass_pre(data, w)
    x, mu, sig, skip = pre.data, pre.data_mu, pre.data_sig, pre.skip
    n = pre.n
    p = n - w + 1
    if p < 1:
        raise ValueError(f"window {w} longer than series {n}")
    zone = exclusion_zone(w, ez)
    prof = empty_profile(p, w, ez, directional=True, algorithm="stomp")

    qt_first = _qt_fft(pre, x[:w])  # QT_0[j] == QT_j[0] by symmetry
    qt = qt_first.copy()
    for i in range(p):
        if i > 0:
            new = qt[:-1] - x[: p - 1] * x[i - 1] + x[w:n] * x[i + w - 1]
            qt[1:] = new
            qt[0] = qt_first[i]
        if skip[i]:
            continue
        d = _row_dist(qt, mu[i], sig[i], mu, sig, skip, w)
        d[max(0, i - zone) : i + zone + 1] = np.inf

        j = int(np.argmin(d))
        if np.isfinite(d[j]):
            prof.mp[i] = d[j]
            prof.pi[i] = j
        if i > 0:
            jl = int(np.argmin(d[:i]))
            if np.isfinite(d[jl]):
                prof.lmp[i] = d[jl]
                prof.lpi[i] = jl
        if i < p - 1:
            jr = i + 1 + int(np.argmin(d[i + 1 :]))
            if np.isfinite(d[jr]):
                prof.rmp[i] = d[jr]
                prof.rpi[i] = jr
    return prof


def _stomp_ab(data: np.ndarray, query: np.ndarray, w: int) -> MatrixProfile:
    """AB-join: mp over data's windows vs nearest query window; also emits the
    BA orientation (mpb/pib) in the same pass (mpx does the same,
    /root/reference/src/mpx.cpp:234-248)."""
    pre_a = mass_pre(data, w)
    pre_b = mass_pre(query, w)
    xa, mu_a, sig_a, skip_a = pre_a.data, pre_a.data_mu, pre_a.data_sig, pre_a.skip
    mu_b, sig_b, skip_b = pre_b.data_mu, pre_b.data_sig, pre_b.skip
    xb = pre_b.data
    pa = pre_a.n - w + 1
    pb = pre_b.n - w + 1
    if pa < 1 or pb < 1:
        raise ValueError("window longer than one of the series")

    prof = empty_profile(pa, w, 0.0, directional=False, algorithm="stomp")
    prof.join = True
    prof.mpb = np.full(pb, np.inf)
    prof.pib = np.full(pb, -1, dtype=np.int64)

    # QT_0[j] = <data[0:w], query[j:j+w]>; QT_i[0] = <data[i:i+w], query[0:w]>
    qt_row0 = _qt_fft(pre_b, xa[:w])
    qt_col0 = _qt_fft(pre_a, xb[:w])
    qt = qt_row0.copy()
    for i in range(pa):
        if i > 0:
            new = qt[:-1] - xb[: pb - 1] * xa[i - 1] + xb[w : pb + w - 1] * xa[i + w - 1]
            qt[1:] = new
            qt[0] = qt_col0[i]
        if skip_a[i]:
            continue
        d = _row_dist(qt, mu_a[i], sig_a[i], mu_b, sig_b, skip_b, w)
        j = int(np.argmin(d))
        if np.isfinite(d[j]):
            prof.mp[i] = d[j]
            prof.pi[i] = j
        # BA orientation: column minima
        better = d < prof.mpb
        prof.mpb[better] = d[better]
        prof.pib[better] = i
    return prof
