"""mpx — FFT-free exact matrix profile via diagonal correlation recurrences.

Re-implementation from the published algorithm (Mueen/Zimmerman "mpx"; see the
reference's Rcpp variant /root/reference/src/mpx.cpp:10-252 for the capability
surface): along diagonal k the centered cross product obeys

    C_t = C_{t-1} + df[t]·dg[t+k] + df[t+k]·dg[t]
    df[t] = (x[t+w-1] - x[t-1]) / 2
    dg[t] = (x[t+w-1] - mu[t]) + (x[t-1] - mu[t-1])

so each diagonal is one numpy cumsum (O(p) per diagonal, O(p²) total, no FFT
in the inner loop). Pearson → ED via ``ed = sqrt(2w(1-ρ))``
(/root/reference/src/mpx.cpp:84-86). AB-join emits both orientations
(``mpb``/``pib`` — src/mpx.cpp:106-252).

``mpx_diagonals`` evaluates an arbitrary diagonal subset — the unit of work
for SCRIMP's random sampling; partial results min-merge.

No engine stage runs this kernel: ``block_join.blocked_mp`` is the engine's
one self-join and AB join. mpx stays as the reference's exact kernel that
the agreement tests check the others against, the base of ``scrimp``, and
the benchmark's kernel-rate comparison point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import DEFAULT_EZ, exclusion_zone
from .mass import clean_series, mass_pre, _qt_fft
from .movstats import mov_stats
from .profile_types import MatrixProfile, corr_to_ed, empty_profile

__all__ = ["mpx", "mpx_diagonals", "MpxState", "prepare_series"]


@dataclass
class MpxState:
    """Per-series precomputed state reused across diagonal batches."""

    x: np.ndarray
    w: int
    p: int
    mu: np.ndarray
    invn: np.ndarray
    skip: np.ndarray
    df: np.ndarray
    dg: np.ndarray
    qt0: np.ndarray  # <x[0:w], x[k:k+w]> for all k (seeds every diagonal)


def prepare_series(data: np.ndarray, w: int) -> MpxState:
    xc, skip = clean_series(data, w)
    n = len(xc)
    p = n - w + 1
    if p < 1:
        raise ValueError(f"window {w} longer than series {n}")
    mu, _, ssq = mov_stats(xc, w)
    with np.errstate(divide="ignore"):
        invn = 1.0 / np.sqrt(ssq)
    invn[~np.isfinite(invn)] = 0.0
    df = np.zeros(p)
    dg = np.zeros(p)
    if p > 1:
        df[1:] = 0.5 * (xc[w:n] - xc[: p - 1])
        dg[1:] = (xc[w:n] - mu[1:]) + (xc[: p - 1] - mu[: p - 1])
    pre = mass_pre(xc, w)
    qt0 = _qt_fft(pre, xc[:w])
    return MpxState(x=xc, w=w, p=p, mu=mu, invn=invn, skip=skip, df=df, dg=dg, qt0=qt0)


class _Best:
    """Running best-correlation accumulators (max corr == min ED)."""

    def __init__(self, p: int):
        self.c = np.full(p, -np.inf)   # mp
        self.j = np.full(p, -1, dtype=np.int64)
        self.lc = np.full(p, -np.inf)  # lmp
        self.lj = np.full(p, -1, dtype=np.int64)
        self.rc = np.full(p, -np.inf)  # rmp
        self.rj = np.full(p, -1, dtype=np.int64)


def _diag_self(state: MpxState, k: int, best: _Best) -> None:
    """Process self-join diagonal k (pairs (i, i+k), i = 0..p-k-1)."""
    p = state.p
    m = p - k
    c0 = state.qt0[k] - state.w * state.mu[0] * state.mu[k]
    inc = state.df[1:m] * state.dg[k + 1 : k + m] + state.df[k + 1 : k + m] * state.dg[1:m]
    c = np.empty(m)
    c[0] = c0
    if m > 1:
        np.cumsum(inc, out=c[1:])
        c[1:] += c0
    corr = c * state.invn[:m] * state.invn[k:]
    corr[state.skip[:m] | state.skip[k:]] = -np.inf

    ii = np.arange(m)
    jj = ii + k
    # i side: partner j=i+k lies to the RIGHT of i
    upd = corr > best.c[:m]
    best.c[:m][upd] = corr[upd]
    best.j[:m][upd] = jj[upd]
    updr = corr > best.rc[:m]
    best.rc[:m][updr] = corr[updr]
    best.rj[:m][updr] = jj[updr]
    # j side: partner i lies to the LEFT of j
    updj = corr > best.c[k:]
    best.c[k:][updj] = corr[updj]
    best.j[k:][updj] = ii[updj]
    updl = corr > best.lc[k:]
    best.lc[k:][updl] = corr[updl]
    best.lj[k:][updl] = ii[updl]


def _finalize_self(state: MpxState, best: _Best, ez: float, algorithm: str) -> MatrixProfile:
    w, p = state.w, state.p

    prof = empty_profile(p, w, ez, directional=True, algorithm=algorithm)
    prof.mp = corr_to_ed(best.c, w)
    prof.pi = best.j.copy()
    prof.lmp = corr_to_ed(best.lc, w)
    prof.lpi = best.lj.copy()
    prof.rmp = corr_to_ed(best.rc, w)
    prof.rpi = best.rj.copy()
    return prof


def mpx_diagonals(
    state: MpxState,
    diags: np.ndarray,
    ez: float = DEFAULT_EZ,
    algorithm: str = "mpx",
) -> MatrixProfile:
    """Partial self-join profile over an explicit diagonal subset.

    ``diags`` are offsets k ≥ exclusion_zone+1 … p-1. The result min-merges
    with other subsets' results (profile_types.merge_min).
    """
    best = _Best(state.p)
    for k in np.asarray(diags, dtype=np.int64):
        _diag_self(state, int(k), best)
    return _finalize_self(state, best, ez, algorithm)


def _self_diag_range(state: MpxState, ez: float) -> np.ndarray:
    zone = exclusion_zone(state.w, ez)
    return np.arange(zone + 1, state.p, dtype=np.int64)


def mpx(
    data: np.ndarray,
    w: int,
    query: np.ndarray | None = None,
    ez: float = DEFAULT_EZ,
) -> MatrixProfile:
    """Exact matrix profile. Self-join (all diagonals beyond the exclusion
    zone) or AB-join (all diagonals of the cross matrix, both orientations)."""
    if query is None:
        state = prepare_series(data, w)
        return mpx_diagonals(state, _self_diag_range(state, ez), ez=ez)
    return _mpx_ab(data, query, w)


def _mpx_ab(data: np.ndarray, query: np.ndarray, w: int) -> MatrixProfile:
    sa = prepare_series(data, w)
    sb = prepare_series(query, w)
    pa, pb = sa.p, sb.p
    best_a = np.full(pa, -np.inf)
    bj_a = np.full(pa, -1, dtype=np.int64)
    best_b = np.full(pb, -np.inf)
    bj_b = np.full(pb, -1, dtype=np.int64)

    pre_a = mass_pre(sa.x, w)
    pre_b = mass_pre(sb.x, w)
    qt_row0 = _qt_fft(pre_b, sa.x[:w])  # <a_0, b_k>
    qt_col0 = _qt_fft(pre_a, sb.x[:w])  # <a_k, b_0>

    def run_diag(c0: float, ia0: int, ib0: int) -> None:
        m = min(pa - ia0, pb - ib0)
        inc = (sa.df[ia0 + 1 : ia0 + m] * sb.dg[ib0 + 1 : ib0 + m]
               + sb.df[ib0 + 1 : ib0 + m] * sa.dg[ia0 + 1 : ia0 + m])
        c = np.empty(m)
        c[0] = c0
        if m > 1:
            np.cumsum(inc, out=c[1:])
            c[1:] += c0
        ia = np.arange(ia0, ia0 + m)
        ib = np.arange(ib0, ib0 + m)
        corr = c * sa.invn[ia] * sb.invn[ib]
        corr[sa.skip[ia] | sb.skip[ib]] = -np.inf
        upd = corr > best_a[ia]
        best_a[ia[upd]] = corr[upd]
        bj_a[ia[upd]] = ib[upd]
        updb = corr > best_b[ib]
        best_b[ib[updb]] = corr[updb]
        bj_b[ib[updb]] = ia[updb]

    for k in range(pb):
        run_diag(qt_row0[k] - w * sa.mu[0] * sb.mu[k], 0, k)
    for k in range(1, pa):
        run_diag(qt_col0[k] - w * sa.mu[k] * sb.mu[0], k, 0)

    prof = empty_profile(pa, w, 0.0, directional=False, algorithm="mpx")
    prof.join = True
    prof.mp = corr_to_ed(best_a, w)
    prof.pi = bj_a
    prof.mpb = corr_to_ed(best_b, w)
    prof.pib = bj_b
    return prof
