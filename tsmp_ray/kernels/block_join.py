"""Blocked-matmul exact matrix profile — the engine's one profile kernel.

The O(n²·w) brute-force computation expressed as blocked BLAS matmuls of
unit-normalized windows: per block-pair one dgemm (compute-dense) plus
argmax passes over a block that FITS IN L2 CACHE, so the kernel stops being
DRAM-bandwidth-bound and scales across worker processes — the property the
N→4N efficiency target needs. Every self-join and AB join in the engine
runs it. w multiplies its FLOPs but not the O(n²) mpx recurrence's, so mpx
wins only at large windows: on one CPU core (best of 3–5, n = 2500)
blocked took 18.7 / 29.5 / 49.6 ms against mpx's 86.2 / 86.7 / 74.2 ms at
w = 8 / 40 / 100, with the crossover at w ≈ 200–300 (w ≈ 128 at
n = 8000). Every engine window is 6–24, so no kernel fork is kept.

Semantics identical to stomp/mpx (same exclusion zone, skip masking,
lmp/lpi/rmp/rpi; ed = sqrt(2w(1-ρ)), the reference's src/mpx.cpp:84-86);
``query=`` gives the AB join of mpx's AB mode (both orientations).
"""

from __future__ import annotations

import functools

import numpy as np

from ..config import DEFAULT_EZ, EPS, exclusion_zone
from .profile_types import MatrixProfile, corr_to_ed

__all__ = ["blocked_mp", "blocked_mp_many", "strip_splits"]

#: correlation cells (B·P²) per batched short-series matmul: 2 MB of float64
#: stays cache-resident (measured fastest of 2¹⁶–2²¹ at p ≈ 30–73)
_CHUNK_CELLS = 1 << 18
#: rows/columns per dgemm block of :func:`blocked_mp`
_BLOCK = 256


def strip_splits(p: int, zone: int, n_shards: int,
                 block: int = _BLOCK) -> list[tuple[int, int]]:
    """Equal-AREA row-block strips of the upper triangle, snapped to
    multiples of ``block``.

    Used to fan one conversation's blocked kernel out as Ray tasks
    (``row_range=`` below): strip k owns rows ``[lo, hi)`` and scans columns
    ``[i0, p)``, so the strips partition the valid (i, j) pairs exactly.
    Snapping to the kernel's own block grid means every (i-block, j-block)
    dgemm a strip computes has bit-identical operands and shapes to the full
    single-pass kernel, so the merged DISTANCE arrays (mp/lmp/rmp) are
    bit-identical to ``blocked_mp(data, w)``. Indices may differ only where
    multiple neighbors are equally minimal: the kernel compares RAW dgemm
    correlations (which can exceed 1.0 by an ulp) but partials carry the
    CLAMPED ed, so the merge resolves exact-distance ties by ascending strip
    order instead of by raw-correlation ulps. Every merged index is still an
    exact argmin (pinned by test on tie-heavy integer walks) — the
    min-merge contract of the reference's own parallel merge (its
    R/stomp-par.R:249-264)."""
    if p <= 0 or n_shards < 1:
        return []
    rows = np.arange(p, dtype=np.float64)
    per_row = np.clip(p - zone - 1 - rows, 0.0, None)
    starts = np.arange(0, p, block)
    cost = np.add.reduceat(per_row, starts)
    cum = cost.cumsum()
    if cum[-1] <= 0:
        return []
    idx = np.arange(len(starts))
    edges = np.searchsorted(cum, np.linspace(0, cum[-1], n_shards + 1)[1:-1])
    out = []
    for grp in np.split(idx, edges):
        if len(grp):
            lo = int(starts[grp[0]])
            hi = int(min(starts[grp[-1]] + block, p))
            out.append((lo, hi))
    return out


def _unit_windows(series: list[np.ndarray], w: int):
    """Row-wise prep of a ragged batch: zero-padded (B, N) series →
    unit-normalized windows Z (B, P, w) and skip mask (B, P), with every
    window past a series' own end marked skip. Bit-identical per row to
    ``clean_series`` + ``mov_stats`` on the unpadded series: each step is a
    row-wise cumsum (exact on a prefix) or elementwise, and the one
    pairwise reduction (the centering mean) runs on the unpadded slice."""
    from numpy.lib.stride_tricks import sliding_window_view

    ns = np.array([len(s) for s in series])
    X = np.zeros((len(series), int(ns.max())))
    for b, s in enumerate(series):
        X[b, :len(s)] = s
    bad = ~np.isfinite(X)
    X[bad] = 0.0
    mean = np.array([X[b, :n].mean() for b, n in enumerate(ns)])

    def wsum(a):
        c = np.zeros((a.shape[0], a.shape[1] + 1), dtype=a.dtype)
        np.cumsum(a, axis=1, out=c[:, 1:])
        return c[:, w:] - c[:, :-w]

    c = X - mean[:, None]
    s1 = wsum(c)
    ssq = wsum(c * c) - s1 * s1 / w
    np.maximum(ssq, 0.0, out=ssq)
    mu = wsum(X) / w
    wins = sliding_window_view(X, w, axis=1)
    # flat windows EXACTLY via min==max (see clean_series)
    skip = ((wsum(bad.astype(np.int64)) > 0) | (np.sqrt(ssq / w) < EPS)
            | (wins.min(axis=2) == wins.max(axis=2))
            | (np.arange(ssq.shape[1])[None, :] > (ns - w)[:, None]))
    with np.errstate(divide="ignore"):
        invn = 1.0 / np.sqrt(ssq)
    invn[~np.isfinite(invn)] = 0.0
    Z = (wins - mu[:, :, None]) * invn[:, :, None]
    return Z, skip


@functools.lru_cache(maxsize=64)
def _band(P: int, zone: int) -> np.ndarray:
    """(P, P) mask of the pairs a self-join never scores: j ≤ i + zone."""
    i = np.arange(P)
    return i[None, :] <= i[:, None] + zone


def _profile(w, ez, mp, pi, lmp, lpi, rmp, rpi) -> MatrixProfile:
    return MatrixProfile(mp=mp, pi=pi, w=w, ez=ez, lmp=lmp, lpi=lpi, rmp=rmp,
                         rpi=rpi, algorithm="blocked")


def _short_mp(series: list[np.ndarray], w: int, ez: float
              ) -> list[MatrixProfile]:
    """Exact self-join profiles of series that each fit ONE block (p ≤ 256),
    as one batched matmul: C = Z Zᵀ per series, one cached band mask OR'd
    with the skip/padding masks, argmax along rows (right neighbors) and
    columns (left neighbors). Ties go to the row side, exactly as the
    block loop in :func:`blocked_mp` resolves them, so every output array
    is bitwise equal to the per-series kernel."""
    Z, skip = _unit_windows(series, w)
    P = Z.shape[1]
    C = Z @ Z.transpose(0, 2, 1)  # unit windows: C IS the correlation
    np.putmask(C, _band(P, exclusion_zone(w, ez))[None] | skip[:, :, None]
               | skip[:, None, :], -np.inf)
    ja = np.argmax(C, axis=2)
    rc = np.take_along_axis(C, ja[:, :, None], axis=2)[:, :, 0]
    ib = np.argmax(C, axis=1)
    lc = np.take_along_axis(C, ib[:, None, :], axis=1)[:, 0, :]
    rj = np.where(rc > -np.inf, ja, -1)
    lj = np.where(lc > -np.inf, ib, -1)
    left = lc > rc
    best_c = np.where(left, lc, rc)
    best_j = np.where(left, lj, rj)
    arrays = (corr_to_ed(best_c, w), best_j, corr_to_ed(lc, w), lj,
              corr_to_ed(rc, w), rj)
    return [_profile(w, ez, *(a[b, :len(s) - w + 1] for a in arrays))
            for b, s in enumerate(series)]


def blocked_mp_many(series: list[np.ndarray], w: int, ez: float = DEFAULT_EZ
                    ) -> list[MatrixProfile]:
    """``[blocked_mp(s, w, ez) for s in series]``, bitwise, with the
    one-block series sorted by length and run through :func:`_short_mp` in
    chunks of ≈``_CHUNK_CELLS`` correlation cells — one batched matmul per
    chunk instead of one kernel call (≈300 µs fixed cost) per series.

    A chunk holds series of ONE length, so nothing is zero-padded and every
    matmul has the one-series call's shape: BLAS picks its edge kernels by
    shape (OpenBLAS on AVX-512 does), and a padded shape changes the
    summation order of the correlations."""
    out = [None if len(s) - w < _BLOCK else blocked_mp(s, w, ez)
           for s in series]
    short = sorted((k for k, prof in enumerate(out) if prof is None),
                   key=lambda k: len(series[k]))
    while short:
        n, m = 1, len(series[short[0]])
        while (n < len(short) and len(series[short[n]]) == m
               and (n + 1) * (m - w + 1) ** 2 <= _CHUNK_CELLS):
            n += 1
        chunk, short = short[:n], short[n:]
        for k, prof in zip(chunk, _short_mp([series[k] for k in chunk], w, ez)):
            out[k] = prof
    return out


def blocked_mp(data: np.ndarray, w: int, ez: float = DEFAULT_EZ,
               block: int = _BLOCK,
               row_range: tuple[int, int] | None = None,
               query: np.ndarray | None = None) -> MatrixProfile:
    """Exact self-join MP via blocked unit-window matmuls.

    ``row_range=(lo, hi)`` restricts the OUTER (row) loop to window indices
    ``[lo, hi)`` while columns still scan ``[i0, p)`` — a strip of the upper
    triangle. ``lo`` must sit on the ``block`` grid (use
    :func:`strip_splits`); the returned profile is full-length with
    untouched entries at inf/-1, ready for ``profile_types.merge_min`` in
    ascending-strip order.

    ``query=`` runs the AB join instead: the same block-pair loop over every
    (data block, query block) pair with no exclusion band, the row side
    filling the data side's ``mp``/``pi`` and the column side the query
    side's ``mpb``/``pib`` — the fields of mpx's AB mode (``join=True``,
    ``ez`` 0, no directional profiles, no length-order guard)."""
    p = len(data) - w + 1
    if p < 1:
        raise ValueError(f"window {w} longer than series {len(data)}")
    if query is None and row_range is None and p <= block:
        return _short_mp([data], w, ez)[0]
    Z, skip = _unit_windows([data], w)
    Z, skip = Z[0], skip[0]
    if query is None:
        Zc, skipc, pc, zone = Z, skip, p, exclusion_zone(w, ez)
    else:
        pc = len(query) - w + 1
        if pc < 1:
            raise ValueError(f"window {w} longer than series {len(query)}")
        Zc, skipc = _unit_windows([query], w)
        Zc, skipc, zone = Zc[0], skipc[0], None
    row_lo, row_hi = (0, p) if row_range is None else row_range
    row_hi = min(row_hi, p)
    if row_lo % block:
        raise ValueError(
            f"row_range lo={row_lo} must sit on the block grid ({block}) "
            "for bit-parity with the single-pass kernel (strip_splits)")

    NEG = -np.inf
    best_c = np.full(p, NEG)
    best_j = np.full(p, -1, dtype=np.int64)
    col_c = np.full(pc, NEG)
    col_j = np.full(pc, -1, dtype=np.int64)
    if query is None:
        # row side: j is the RIGHT neighbor of i; column side: i is the
        # LEFT neighbor of j; both feed the two-sided best
        rc = np.full(p, NEG)
        rj = np.full(p, -1, dtype=np.int64)
        rows = ((rc, rj), (best_c, best_j))
        cols = ((col_c, col_j), (best_c, best_j))
    else:
        rows, cols = ((best_c, best_j),), ((col_c, col_j),)

    any_skip = bool(skip.any() or skipc.any())
    Cbuf = np.empty((block, block))
    for i0 in range(row_lo, row_hi, block):
        i1 = min(i0 + block, p)
        Zi = Z[i0:i1]
        ski = skip[i0:i1]
        for j0 in range(0 if zone is None else i0, pc, block):
            j1 = min(j0 + block, pc)
            if i1 - i0 == block and j1 - j0 == block:
                C = Cbuf  # reuse (np.dot out= needs a C-contiguous array)
                np.dot(Zi, Zc[j0:j1].T, out=C)
            else:
                C = Zi @ Zc[j0:j1].T  # unit windows: C IS the correlation
            if any_skip:
                C[ski, :] = NEG
                C[:, skipc[j0:j1]] = NEG
            # exclusion + self/lower masking: pair (i, j) valid iff j > i+zone.
            # Only block pairs touching the diagonal band need the mask.
            if zone is not None and j0 <= (i1 - 1) + zone:
                ii = np.arange(i0, i1)[:, None]
                jj = np.arange(j0, j1)[None, :]
                C[jj <= ii + zone] = NEG

            ja = np.argmax(C, axis=1)
            va = C[np.arange(i1 - i0), ja]
            for c, j in rows:
                upd = va > c[i0:i1]
                c[i0:i1][upd] = va[upd]
                j[i0:i1][upd] = ja[upd] + j0
            ib = np.argmax(C, axis=0)
            vb = C[ib, np.arange(j1 - j0)]
            for c, j in cols:
                upd = vb > c[j0:j1]
                c[j0:j1][upd] = vb[upd]
                j[j0:j1][upd] = ib[upd] + i0

    if query is None:
        return _profile(w, ez, corr_to_ed(best_c, w), best_j,
                        corr_to_ed(col_c, w), col_j, corr_to_ed(rc, w), rj)
    return MatrixProfile(mp=corr_to_ed(best_c, w), pi=best_j, w=w, ez=0.0,
                         join=True, algorithm="blocked",
                         mpb=corr_to_ed(col_c, w), pib=col_j)
