"""Downstream mining on matrix profiles: motifs, discords, chains, FLUSS/FLOSS
segmentation, MPdist, snippets, annotation vectors, pan-MP, valmod.

Each function re-implements the *semantics* of the reference (file:line cited
per function) on numpy arrays; inside the engine they run per conversation in
``per_conv_stage`` tasks (SURVEY.md §2.6, §2.8).
Conventions: 0-based indices, ED (not squared) distances, pi sentinel -1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import (DEFAULT_EZ, EPS, exclusion_zone, raise_if_bad_window,
                      raise_if_too_short)
from .block_join import blocked_mp
from .mass import mass_pre, mass_v3
from .movstats import binary_split, complexity, movmin, znorm, zero_crossings, zero_one_norm
from .profile_types import MatrixProfile

__all__ = [
    "find_motifs", "find_discords", "find_chains", "find_chains_multidim",
    "fluss_cac", "fluss_extract",
    "fluss", "fluss_score", "floss_cac_online", "mpdist", "mpdist_vect",
    "find_snippet", "av_zerocrossing", "av_complexity", "av_motion_artifact",
    "av_stop_word", "av_hardlimit_artifact", "av_apply", "pmp", "valmod",
]


# ---------------------------------------------------------------- motifs


def _greedy_neighbors(d: np.ndarray, limit: float, zone: int, n_neighbors: int,
                      seeds: list[int]) -> list[int]:
    """Pick up to n_neighbors indices by ascending distance, suppressing
    around each pick and around ``seeds`` (/root/reference/R/find-motifs.R:
    121-147). Seed zones are masked INCLUSIVE (``zone_start:zone_end``); a
    picked neighbor suppresses later candidates with STRICT ``|diff| < zone``
    (find-motifs.R:142 keeps candidates at exactly ``zone`` away).

    The reference's loop (find-motifs.R:135-145, find-discord.R:106-116)
    ALSO breaks when ``length(distance_order) < j``: entries leave its
    sorted pool on pick (pop head) and strict-zone suppression, while
    Inf-masked entries (over-limit / seed zones) stay and still count —
    ``in_pool`` tracks exactly that membership, so on small pools the
    j-th neighbor is refused once fewer than j candidates remain."""
    d = d.copy()
    d[d > limit] = np.inf
    for s in seeds:
        d[max(0, s - zone) : s + zone + 1] = np.inf
    in_pool = np.ones(d.shape[0], dtype=bool)
    out: list[int] = []
    for k in range(1, n_neighbors + 1):
        if int(in_pool.sum()) < k:
            break
        j = int(np.argmin(d))
        if not np.isfinite(d[j]):
            break
        out.append(j)
        d[j] = np.inf  # the pick itself always leaves the pool (pop head)
        in_pool[j] = False
        sl = slice(max(0, j - zone + 1), j + zone)
        d[sl] = np.inf
        in_pool[sl] = False
    return out


def _min_valid_pair(mp: np.ndarray, pi: np.ndarray) -> tuple[int, int] | None:
    """The reference's ``min_mp_idx`` valid-pair search (misc.R:539-590):
    repeatedly take the argmin of mp and accept it only if its profile-index
    partner is in range and un-masked. Rejected minima are masked in a LOCAL
    copy — so a rejected minimum ALSO invalidates any later argmin whose
    partner points at it (this local-masking detail is what ends the toy
    motif search after two motifs in test-motifs.R). Returns None when the
    search exhausts."""
    m = mp.copy()
    while True:
        i = int(np.argmin(m))
        if not np.isfinite(m[i]):
            return None
        nn = int(pi[i])
        if 0 <= nn < len(m) and np.isfinite(m[nn]):
            return i, nn
        m[i] = np.inf


def find_motifs(
    data: np.ndarray,
    profile: MatrixProfile,
    n_motifs: int = 3,
    n_neighbors: int = 10,
    radius: float = 3.0,
) -> list[dict]:
    """Top-k motif pairs + neighbors (/root/reference/R/find-motifs.R:90-157).

    Iteratively: global argmin pair of mp via the reference's valid-pair
    search (``_min_valid_pair``, misc.R:539-590); neighbors = windows whose
    distance to the ARGMIN window (find-motifs.R:113 queries at ``min_idx``,
    not the sorted-first end) is ≤ radius·motif_distance (dist profile via
    MASS), suppressing ±ez; then mask all found windows and repeat.
    """
    w, ez = profile.w, profile.ez
    zone = exclusion_zone(w, ez)
    mp = profile.mp.copy()
    pre = mass_pre(data, w)
    motifs = []
    for _ in range(n_motifs):
        got = _min_valid_pair(mp, profile.pi)
        if got is None:
            break
        i, nn = got
        pair = sorted((i, nn))
        mdist = float(mp[i])
        d, _qt = mass_v3(pre, data[i : i + w])
        neigh = _greedy_neighbors(d, radius * mdist, zone, n_neighbors, seeds=pair)
        motifs.append({"motifs": pair, "neighbors": neigh, "distance": mdist, "w": w})
        for j in pair + neigh:
            mp[max(0, j - zone) : j + zone + 1] = np.inf
    return motifs


def find_discords(
    data: np.ndarray,
    profile: MatrixProfile,
    n_discords: int = 3,
    n_neighbors: int = 3,
    radius: float = 3.0,
) -> list[dict]:
    """Top-k discords (/root/reference/R/find-discord.R:87-127): global argmax,
    neighbors within radius·discord_distance, mask, repeat."""
    w, ez = profile.w, profile.ez
    zone = exclusion_zone(w, ez)
    mp = profile.mp.copy()
    mp[~np.isfinite(mp)] = -np.inf  # skip windows can't be discords
    pre = mass_pre(data, w)
    discords = []
    for _ in range(n_discords):
        i = int(np.argmax(mp))
        if not np.isfinite(mp[i]):
            break
        ddist = float(mp[i])
        d, _qt = mass_v3(pre, data[i : i + w])
        neigh = _greedy_neighbors(d, radius * ddist, zone, n_neighbors, seeds=[i])
        discords.append({"discord": i, "neighbors": neigh, "distance": ddist, "w": w})
        for j in [i] + neigh:
            mp[max(0, j - zone) : j + zone + 1] = -np.inf
    return discords


def find_chains(profile: MatrixProfile) -> dict:
    """Time-series chains via lpi/rpi back-pointers
    (/root/reference/R/find-chains.R:18-77): follow rpi[j] while
    lpi[rpi[j]] == j; keep chains longer than 2; best = longest, then lowest
    mean finite rmp."""
    rpi, lpi, rmp = profile.rpi, profile.lpi, profile.rmp
    p = len(rpi)
    visited = np.zeros(p, dtype=bool)
    chains: list[list[int]] = []
    lengths = np.ones(p, dtype=np.int64)
    for i in range(p):
        if visited[i]:
            continue
        chain = [i]
        j = i
        while 0 <= rpi[j] < p and lpi[rpi[j]] == j:
            j = int(rpi[j])
            visited[j] = True
            chain.append(j)
        lengths[i] = len(chain)
        if len(chain) > 2:
            chains.append(chain)
    if not chains:
        return {"chains": [], "best": []}
    max_len = max(len(c) for c in chains)
    best, best_mean = [], np.inf
    for c in chains:
        if len(c) != max_len:
            continue
        vals = rmp[c]
        vals = vals[np.isfinite(vals)]
        m = float(vals.mean()) if len(vals) else np.inf
        if m < best_mean:
            best_mean = m
            best = c
    return {"chains": chains, "best": best}


def find_chains_multidim(mmp) -> dict[int, dict]:
    """Chains per k-dimensional profile row of a :class:`MultiMatrixProfile`
    (directional rows from /root/reference/R/mstomp.R:294-306 feed the same
    lpi/rpi pointer-chase as the univariate case, find-chains.R:18-77).
    Returns {k_dim (1-based): chains dict}."""
    out: dict[int, dict] = {}
    for k in range(mmp.mp.shape[0]):
        prof = MatrixProfile(mp=mmp.mp[k], pi=mmp.pi[k], w=mmp.w, ez=mmp.ez,
                             lmp=mmp.lmp[k], lpi=mmp.lpi[k],
                             rmp=mmp.rmp[k], rpi=mmp.rpi[k])
        out[k + 1] = find_chains(prof)
    return out


# ---------------------------------------------------------------- FLUSS


def fluss_cac(profile: MatrixProfile, ez_factor: float | None = None) -> np.ndarray:
    """Corrected arc counts (/root/reference/R/fluss.R:307-355): scatter +1 at
    min(i, pi), -1 at max, cumsum; divide by the beta(2,2) ideal parabola
    ``6x(1-x)·n/3``; clamp to 1; force the first/last ``round(w·ez·10)``
    entries to 1."""
    pi = profile.pi
    p = len(pi)
    if ez_factor is None:
        ez_factor = profile.ez * 10
    nnmark = np.zeros(p)
    valid = (pi >= 0) & (pi < p)
    i_idx = np.arange(p)[valid]
    j_idx = pi[valid]
    np.add.at(nnmark, np.minimum(i_idx, j_idx), 1.0)
    np.add.at(nnmark, np.maximum(i_idx, j_idx), -1.0)
    arc = np.cumsum(nnmark)
    x = np.linspace(0.0, 1.0, p)
    ideal = 6.0 * x * (1.0 - x) * p / 3.0  # dbeta(x,2,2)·n/3
    with np.errstate(divide="ignore", invalid="ignore"):
        cac = np.minimum(arc / ideal, 1.0)
    cac[~np.isfinite(cac)] = 1.0
    zone = int(round(profile.w * ez_factor + EPS))
    cac[: min(zone, p)] = 1.0
    cac[max(p - zone, 0) :] = 1.0
    return cac


def fluss_extract(cac: np.ndarray, w: int, num_segments: int = 1,
                  ez_factor: float = 5.0) -> list[int]:
    """Iterative argmin with ±zone suppression, stop when cac ≥ 1
    (/root/reference/R/fluss.R:254-282)."""
    cac = cac.copy()
    zone = int(round(w * ez_factor + EPS))
    p = len(cac)
    segs: list[int] = []
    for _ in range(num_segments):
        i = int(np.argmin(cac))
        if cac[i] >= 1:
            break
        segs.append(i)
        # the reference masks 1-based idx-zone..idx+zone-1 inclusive
        # (/root/reference/R/fluss.R:274) → 0-based slice [i-zone : i+zone);
        # note the ASYMMETRY: one fewer masked position on the right
        cac[max(0, i - zone) : min(p, i + zone)] = np.inf
    return segs


def fluss(data: np.ndarray, w: int, num_segments: int = 1,
          ez: float = DEFAULT_EZ) -> dict:
    """Batch segmentation preset: MP → CAC → extract
    (/root/reference/R/fluss.R:25-31)."""
    raise_if_bad_window(len(data), w)  # stomp's refusals
    prof = blocked_mp(data, w, ez=ez)
    cac = fluss_cac(prof)
    segs = fluss_extract(cac, w, num_segments, ez_factor=ez * 10)
    return {"cac": cac, "fluss": segs, "profile": prof}


def fluss_score(gtruth: np.ndarray, extracted: np.ndarray, data_size: int) -> float:
    """Sum over ground-truth points of the distance to the closest extracted
    point, over data size (0 best — /root/reference/R/fluss.R:476-492)."""
    gtruth = np.atleast_1d(np.asarray(gtruth, dtype=np.float64))
    extracted = np.atleast_1d(np.asarray(extracted, dtype=np.float64))
    if len(extracted) == 0:
        return 1.0
    minv = np.abs(gtruth[:, None] - extracted[None, :]).min(axis=1)
    return float(minv.sum() / data_size)


def floss_cac_online(pi_window: np.ndarray, w: int, cac_size: int,
                     online: bool = True,
                     ez: float = DEFAULT_EZ) -> np.ndarray:
    """One-sided (online) CAC over the trailing window of a streaming profile
    (/root/reference/R/fluss.R:425-433): Kumaraswamy(1.939274, 1.698150) ideal
    instead of beta(2,2) because arcs can only point right in an append-only
    stream. ``pi_window`` are profile indices re-based to the window; ``ez``
    sets the head zone forced to 1 (the caller's profile exclusion fraction —
    floss_ref uses the StreamingProfile's own ez the same way)."""
    p = cac_size
    nnmark = np.zeros(p)
    valid = (pi_window >= 0) & (pi_window < p)
    i_idx = np.arange(len(pi_window))[valid]
    j_idx = pi_window[valid]
    np.add.at(nnmark, np.minimum(i_idx, j_idx), 1.0)
    np.add.at(nnmark, np.maximum(i_idx, j_idx), -1.0)
    arc = np.cumsum(nnmark)
    x = np.linspace(0.0, 1.0, p)
    if online:
        a, b = 1.939274, 1.698150
        with np.errstate(invalid="ignore"):
            ideal = a * b * x ** (a - 1) * (1 - x ** a) ** (b - 1) * p / 4.035477
    else:
        ideal = 6.0 * x * (1.0 - x) * p / 3.0
    with np.errstate(divide="ignore", invalid="ignore"):
        cac = np.minimum(arc / ideal, 1.0)
    cac[~np.isfinite(cac) | (cac < 0)] = 1.0
    zone = exclusion_zone(w, ez)
    cac[: min(zone, p)] = 1.0
    return cac


# ---------------------------------------------------------------- MPdist


def _kth_smallest(vals: np.ndarray, k: int) -> float:
    """k-th smallest (1-based k) with the reference's overflow rule: if
    k > len, return the max (/root/reference/R/mpdist.R:194-212)."""
    if len(vals) == 0:
        return np.inf
    if k > len(vals):
        return float(np.max(vals))
    return float(np.partition(vals, k - 1)[k - 1])


def mpdist(a: np.ndarray, b: np.ndarray, w: int, thr: float = 0.05) -> float:
    """MPdist scalar: k = ceil(thr·(na+nb))-th smallest of the concatenated
    AB and BA profiles (/root/reference/R/mpdist.R:125-131, 194-212)."""
    prof = blocked_mp(np.asarray(a, dtype=np.float64), w,
                      query=np.asarray(b, dtype=np.float64))
    abba = np.concatenate([prof.mp, prof.mpb])
    k = int(np.ceil(thr * (len(a) + len(b))))
    return _kth_smallest(abba, max(k, 1))


def mpdist_vect(data: np.ndarray, query: np.ndarray, w: int,
                thr: float = 0.05) -> np.ndarray:
    """Sliding MPdist of ``query`` against every query-length window of
    ``data`` (/root/reference/R/mpdist.R:143-182): row dist-profiles per query
    subsequence; column-min histogram (BA side) + per-row sliding min (AB
    side) reconstruct each window's AB/BA profile in O(1) amortized."""
    data = np.asarray(data, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    nq, nd = len(query), len(data)
    num_subseqs = nq - w + 1
    profile_len = nd - w + 1
    pre = mass_pre(data, w)
    mat = np.empty((num_subseqs, profile_len))
    for i in range(num_subseqs):
        mat[i], _ = mass_v3(pre, query[i : i + w])
    col_min = mat.min(axis=0)  # nearest query-subseq for each data window
    slid_min = np.empty((num_subseqs, profile_len - num_subseqs + 1))
    for i in range(num_subseqs):
        slid_min[i] = movmin(mat[i], num_subseqs)
    out_len = nd - nq + 1
    k = max(int(np.ceil(thr * 2 * nq)), 1)
    out = np.empty(out_len)
    for i in range(out_len):
        right = col_min[i : i + num_subseqs]
        left = slid_min[:, i]
        out[i] = _kth_smallest(np.concatenate([left, right]), k)
    return out


# ---------------------------------------------------------------- snippets


def find_snippet(data: np.ndarray, s_size: int, n_snippets: int = 2,
                 w: int | None = None, thr: float = 0.05) -> dict:
    """Representative snippets by MPdist coverage
    (/root/reference/R/find-snippet.R:47-142): candidates at s_size-aligned
    offsets (zero-padded tail); greedily pick the candidate minimizing the
    area under elementwise-min of its MPdist profile with the running minimum;
    then assign per-window regime fractions."""
    data = np.asarray(data, dtype=np.float64)
    if w is None:
        w = s_size // 2
    if s_size < 4 or len(data) < 2 * s_size or w >= s_size:
        raise ValueError("bad snippet sizing")
    pad = int(np.ceil(len(data) / s_size)) * s_size - len(data)
    padded = np.concatenate([data, np.zeros(pad)])
    # reference candidate set (/root/reference/R/find-snippet.R:82:
    # seq.int(1, n - s_size, s_size)) EXCLUDES the final aligned
    # (mostly-zero-padding) segment — exclusive stop matches it
    starts = np.arange(0, len(padded) - s_size, s_size)
    profiles = np.stack([
        mpdist_vect(padded, padded[s : s + s_size], w, thr=thr) for s in starts
    ])
    minis = np.full(profiles.shape[1], np.inf)
    order: list[int] = []
    chosen = np.empty((n_snippets, profiles.shape[1]))
    frac = []
    for n in range(n_snippets):
        areas = np.minimum(profiles, minis).sum(axis=1)
        areas[order] = np.inf  # don't re-pick
        idx = int(np.argmin(areas))
        order.append(idx)
        minis = np.minimum(profiles[idx], minis)
        chosen[n] = profiles[idx]
    total_min = chosen.min(axis=0)
    horizontal = np.zeros(len(total_min), dtype=np.int64)
    for i in range(n_snippets):
        a = chosen[i] <= total_min
        frac.append(float(a.sum() / len(total_min)))
        total_min = np.where(a, total_min - 1, total_min)  # tie-break
        for j in starts:
            seg = a[j : j + s_size]
            seg[:] = seg.sum() > 0.5 * s_size
        horizontal[a] = i + 1
    return {
        "snippet_idx": [int(starts[i]) for i in order],
        "snippet_frac": frac,
        "snippet_size": s_size,
        "regime": horizontal,
    }


# ---------------------------------------------------------------- annotations


def _windows(data: np.ndarray, w: int) -> np.ndarray:
    """(p × w) zero-copy sliding-window view — all five annotation vectors are
    vectorized row-reductions over this view (no per-window Python calls)."""
    return np.lib.stride_tricks.sliding_window_view(data, w)


def av_zerocrossing(data: np.ndarray, w: int) -> np.ndarray:
    """Favor windows with many zero crossings
    (/root/reference/R/annotations.R:20-49)."""
    z = znorm(data)
    s = np.sign(z)
    if np.all(s != 0):
        # exact-zero-free fast path: a window's crossing count is a plain
        # windowed sum of adjacent sign flips
        flips = np.zeros(len(z))
        flips[1:] = np.diff(s) != 0
        counts = _windows(flips, w)[:, 1:].sum(axis=1)
    else:
        # zeros are dropped within each window before counting
        # (movstats.zero_crossings semantics) — window-dependent, loop it
        counts = np.array([zero_crossings(z[i : i + w])
                           for i in range(len(z) - w + 1)], dtype=np.float64)
    return zero_one_norm(counts)


def av_complexity(data: np.ndarray, w: int, dilution_factor: float = 0.0) -> np.ndarray:
    """Favor complex windows (/root/reference/R/annotations.R:68-103)."""
    z = znorm(data)
    d2 = np.diff(z) ** 2
    av = zero_one_norm(np.sqrt(_windows(d2, w - 1).sum(axis=1)))
    return (av + dilution_factor) / (dilution_factor + 1.0)


def av_motion_artifact(data: np.ndarray, w: int) -> np.ndarray:
    """Suppress high-variance (motion-artifact) windows: av=1 where window SD
    below the mean SD (/root/reference/R/annotations.R:122-157)."""
    z = znorm(data)
    win = _windows(z, w)
    sds = win.std(axis=1, ddof=1)
    return (sds < sds.mean()).astype(np.float64)


def av_stop_word(data: np.ndarray, w: int, stop_word_loc: int,
                 threshold: float = 0.1, ez: float = DEFAULT_EZ) -> np.ndarray:
    """Suppress windows similar to a 'stop word' window
    (/root/reference/R/annotations.R:183-230): av = normalized euclidean
    distance to the stop word (diff2, misc.R:341-361, takes the sqrt);
    zero out ±zone around indices below threshold. Deliberate deviation:
    the zone is round(w·ez+eps) — the reference resolves its default
    ``exclusion_zone`` from ``.mp$ez``, the FRACTION 0.5, and uses it
    directly as an index offset (annotations.R:213-218), so its default
    path zeroes only {i-1, i} regardless of w; the reference-parity
    checksum is pinned through that emulation in
    tests/test_reference_fixtures.py."""
    z = znorm(data)
    sw = z[stop_word_loc : stop_word_loc + w]
    win = _windows(z, w)
    # sum((s-sw)^2) = sum(s²) - 2·s·sw + sum(sw²), one matmul for the dot
    d2 = (win * win).sum(axis=1) - 2.0 * (win @ sw) + float(np.sum(sw * sw))
    av = zero_one_norm(np.sqrt(np.maximum(d2, 0.0)))
    zone = int(round(w * ez + EPS))
    p = len(av)
    for i in np.flatnonzero(av <= threshold):
        av[max(0, i - zone + 1) : min(i + zone, p)] = 0.0
    return av


def av_hardlimit_artifact(data: np.ndarray, w: int) -> np.ndarray:
    """Suppress windows touching the global min/max (hard limits)
    (/root/reference/R/annotations.R:249-285)."""
    z = znorm(data)
    mx, mn = z.max(), z.min()
    hits = ((z == mx) | (z == mn)).astype(np.float64)
    av = zero_one_norm(_windows(hits, w).sum(axis=1))
    return 1.0 - av


def av_apply(profile: MatrixProfile, av: np.ndarray) -> MatrixProfile:
    """Re-rank: mp' = mp + (1-av)·max(mp) (/root/reference/R/annotations.R:305-330)."""
    out = profile.copy()
    finite = out.mp[np.isfinite(out.mp)]
    mx = finite.max() if len(finite) else 0.0
    out.mp = out.mp + (1.0 - av) * mx
    out.extra["annotated"] = True
    return out


# ---------------------------------------------------------------- PMP / valmod


def pmp(data: np.ndarray, windows: np.ndarray | list[int],
        ez: float = DEFAULT_EZ) -> dict:
    """Pan-matrix-profile: blocked_mp per window, windows visited in binary-split
    order so early results cover the sweep (/root/reference/R/pmp.R:166-211).
    Returns {'pmp': {w: mp}, 'pmpi': {w: pi}, 'w': visited_windows}."""
    windows = np.asarray(sorted(set(int(w) for w in windows)), dtype=int)
    order = binary_split(len(windows))  # [] for an empty request
    out_p: dict[int, np.ndarray] = {}
    out_i: dict[int, np.ndarray] = {}
    visited = []
    for oi in order:
        w = int(windows[oi])
        if len(data) - w + 1 < 2:
            continue
        prof = blocked_mp(data, w, ez=ez)
        out_p[w] = prof.mp
        out_i[w] = prof.pi
        visited.append(w)
    return {"pmp": out_p, "pmpi": out_i, "w": visited}


def pmp_upper_bound(data: np.ndarray, threshold: float = 0.95,
                    ez: float = DEFAULT_EZ,
                    refine_stepsize: float = 0.25,
                    return_pmp: bool = False) -> int | dict:
    """Largest useful pan-MP window (/root/reference/R/pmp.R:262-350):
    double w from 8 until the profile's best correlation drops below
    ``threshold``, then test the ascending refine grid
    ``2·round(((step+1)·w_fail/2)/2)`` for step in (refine_stepsize ..< 1),
    stopping after the first failing window. Returns the LARGEST TESTED
    window — pmp.R:285 takes ``max(windows)`` where the first failing
    refine window was already appended (pmp.R:335-345 appends before the
    threshold check), so the bound deliberately includes it: it prunes a
    pan sweep, where one window past the threshold is harmless.
    Convention delta: profiles here use the engine's round(w·ez+eps)
    exclusion zone; the reference's C++ mpx admits |i-j| = floor(w/2)
    (one diagonal CLOSER), so bounds can differ by one refine step on
    threshold-straddling data — the toy-data parity (upper 20) is pinned
    in tests/test_reference_fixtures.py via the minlag-zone emulation.

    ``return_pmp=True`` mirrors the reference's default (pmp.R:264,
    ``return_pmp = TRUE``): the profiles computed during the search are
    returned as a PMP dict (passing doubling windows + every tested refine
    window, pmp.R:311-315,335-345) instead of the bare bound integer."""
    n = len(data)
    max_w = n // 2
    store_p: dict[int, np.ndarray] = {}
    store_i: dict[int, np.ndarray] = {}
    tested: dict[int, float] = {}

    def corr_max(w: int) -> float:
        # memoized: the refine grid from an immediately-failing w=8 is
        # {4, 6, 8} (banker's rounding lands the last step back on w), so
        # w=8 would otherwise be profiled twice
        if w in tested:
            return tested[w]
        prof = blocked_mp(data, w, ez=ez)
        if return_pmp:
            store_p[w] = prof.mp
            store_i[w] = prof.pi
        finite = prof.mp[np.isfinite(prof.mp)]
        c = -np.inf if len(finite) == 0 else \
            float(1.0 - (finite.min() ** 2) / (2.0 * w))
        tested[w] = c
        return c

    def result(upper: int, windows: list[int]) -> int | dict:
        if not return_pmp:
            return upper
        return {"upper_window": upper,
                "pmp": {w: store_p[w] for w in windows},
                "pmpi": {w: store_i[w] for w in windows},
                "w": list(windows)}

    windows: list[int] = []
    w = 8
    while w <= max_w:
        if corr_max(w) < threshold:
            break  # failing doubling window NOT kept (pmp.R:307-315)
        windows.append(w)
        w *= 2
    if w <= max_w:
        # the refine grid runs even when the FIRST doubling window failed —
        # pmp.R:322 gates only on window_size <= max_window, so from a
        # failing w=8 the reference refines BELOW its starting point over
        # {4, 6, 8} and the bound can come out 4 or 6
        for step in np.arange(refine_stepsize, 1.0 - 1e-5, refine_stepsize):
            wt = int(2 * round(((step + 1.0) * w / 2.0) / 2.0))
            windows.append(wt)  # refine keeps the first FAILING window too
            if corr_max(wt) < threshold:
                break
    if not windows:
        # nothing was testable (n < 16 → max_w < 8): engine floor at the
        # start point, empty pan store
        return result(8, [])
    return result(max(windows), windows)


def valmod(data: np.ndarray, window_min: int, window_max: int,
           query: np.ndarray | None = None,
           ez: float = DEFAULT_EZ) -> dict:
    """Variable-length motif discovery over [window_min, window_max]
    (/root/reference/R/valmod.R:52-702): per-window MP, length-normalized by
    ``1/sqrt(w)`` for cross-window comparability, elementwise min across
    windows keeping the best window per index.

    ``query`` switches to JOIN similarity (valmod.R:56-62): per window the
    profile is the data-side AB-join (``mp[j] = min_i d(data_j, query_i)``,
    no exclusion zone), same min-over-windows fold. Equal lengths required
    (valmod.R:90-92 stops on different sizes too).

    This is the reference's exact sweep (its lower-bound switch off), one
    ``blocked_mp`` self-join (or AB join) per window. The reference's
    default heap pruning (valmod.R:121-128,328-470) leaves uncertified
    entries un-updated, so its VALMP is partial; ours is exact at every
    entry."""
    if window_min < 4:
        raise ValueError("window_size must be at least 4")  # valmod.R:100
    if query is not None:
        query = np.asarray(query, dtype=np.float64)
        if len(query) != len(data):
            raise ValueError(
                "valmod join requires equal-length series "
                "(valmod.R:90-92: different sizes not implemented)")
    qs = len(data) if query is None else len(query)
    raise_if_too_short(qs, window_min, ceiling=False)  # valmod.R:96-98
    p_out = len(data) - window_min + 1
    best = np.full(p_out, np.inf)
    best_w = np.full(p_out, -1, dtype=np.int64)
    best_pi = np.full(p_out, -1, dtype=np.int64)
    raw = np.full(p_out, np.inf)  # non-length-normalized variant
    # best motif distance per window size — the reference's motif-evolution
    # output: min(mp)² · sqrt(1/w) per swept window (valmod.R:312,657,693)
    evolution = np.full(window_max - window_min + 1, np.inf)
    for w in range(window_min, window_max + 1):
        p = len(data) - w + 1
        if p < 2:
            break
        prof = blocked_mp(data, w, ez=ez, query=query)
        finite = prof.mp[np.isfinite(prof.mp)]
        if len(finite):
            evolution[w - window_min] = float(finite.min()) ** 2 * np.sqrt(1.0 / w)
        scaled = prof.mp * np.sqrt(1.0 / w)
        upd = scaled < best[:p]
        best[:p][upd] = scaled[upd]
        raw[:p][upd] = prof.mp[upd]
        best_w[:p][upd] = w
        best_pi[:p][upd] = prof.pi[upd]
    return {"mp": best, "mp_raw": raw, "w": best_w, "pi": best_pi,
            "evolution_motif": evolution,
            "window_min": window_min, "window_max": window_max}


# ---------------------------------------------------------- multidim motifs


def _gauss_split_points(n_bit: int) -> np.ndarray:
    """qnorm((1..2^b-1)/2^b) without scipy: inverse-normal via
    Acklam/Moro-style rational approximation (adequate for split points)."""
    q = np.arange(1, (1 << n_bit)) / (1 << n_bit)
    # Beasley-Springer-Moro approximation
    a = [2.50662823884, -18.61500062529, 41.39119773534, -25.44106049637]
    b = [-8.47351093090, 23.08336743743, -21.06224101826, 3.13082909833]
    c = [0.3374754822726147, 0.9761690190917186, 0.1607979714918209,
         0.0276438810333863, 0.0038405729373609, 0.0003951896511919,
         0.0000321767881768, 0.0000002888167364, 0.0000003960315187]
    y = q - 0.5
    out = np.empty_like(q)
    mid = np.abs(y) < 0.42
    r = y[mid] * y[mid]
    out[mid] = y[mid] * (((a[3] * r + a[2]) * r + a[1]) * r + a[0]) / (
        (((b[3] * r + b[2]) * r + b[1]) * r + b[0]) * r + 1.0)
    r = q[~mid]
    r = np.where(y[~mid] > 0, 1 - r, r)
    r = np.log(-np.log(r))
    acc = np.zeros_like(r)
    for coef in reversed(c):
        acc = acc * r + coef
    out[~mid] = np.where(y[~mid] > 0, acc, -acc)
    return out


def _discretize_motif(m: np.ndarray, split_pt: np.ndarray) -> np.ndarray:
    """Per-dim z-norm then bucket by split points (misc.R:1062-1083)."""
    mu = m.mean(axis=0, keepdims=True)
    sd = m.std(axis=0, keepdims=True)
    z = (m - mu) / np.where(sd == 0, 1.0, sd)
    return np.searchsorted(split_pt, z) + 1


def get_bit_save(motif_1: np.ndarray, motif_2: np.ndarray, n_dim: int,
                 n_bit: int = 4) -> tuple[float, np.ndarray]:
    """Bits needed to describe (motif_1, motif_2) sharing ``n_dim`` dims
    (/root/reference/R/misc.R:1024-1057). Lower = better compression.
    Returns (bit_size, chosen dim indexes)."""
    m1 = np.atleast_2d(motif_1.T).T
    m2 = np.atleast_2d(motif_2.T).T
    w, tot_dim = m1.shape
    split_pt = _gauss_split_points(n_bit)
    d1 = _discretize_motif(m1, split_pt)
    d2 = _discretize_motif(m2, split_pt)
    dim_id = np.argsort(np.abs(d1 - d2).sum(axis=0), kind="stable")[:n_dim]
    diff = d1[:, dim_id] - d2[:, dim_id]
    n_val = len(np.unique(diff))
    bit_sz = n_bit * (tot_dim * w * 2 - n_dim * w)
    bit_sz += n_dim * w * np.log2(max(n_val, 1)) + n_val * n_bit
    return float(bit_sz), dim_id


def find_multidim_motifs(data: np.ndarray, mmp, n_motifs: int = 3,
                         n_dim: int | None = None, n_bit: int = 4) -> list[dict]:
    """Multidimensional motif discovery over a MultiMatrixProfile
    (/root/reference/R/find-motifs.R:231-352).

    Guided (``n_dim`` given): search the (n_dim)-dimensional profile row.
    Unconstrained: for the best pair of each k-dim row, pick the k whose MDL
    bit save (get_bit_save) is best — the reference's dimension selection.
    Pairs masked ±exclusion zone between motifs.
    """
    from ..config import exclusion_zone as _ez

    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 1:
        data = data[:, None]
    w = mmp.w
    zone = _ez(w, mmp.ez)
    mp = mmp.mp.copy()
    out: list[dict] = []
    rows = [n_dim - 1] if n_dim is not None else list(range(mp.shape[0]))
    for _ in range(n_motifs):
        best = None
        for k in rows:
            i = int(np.argmin(mp[k]))
            if not np.isfinite(mp[k, i]):
                continue
            j = int(mmp.pi[k, i])
            if j < 0:
                continue
            m1 = data[i : i + w]
            m2 = data[j : j + w]
            bits, dims = get_bit_save(m1, m2, k + 1, n_bit)
            if best is None or bits < best["bits"]:
                best = {"motifs": sorted((i, j)), "n_dim": k + 1,
                        "dims": dims.tolist(), "bits": bits,
                        "distance": float(mp[k, i])}
        if best is None:
            break
        out.append(best)
        for idx in best["motifs"]:
            mp[:, max(0, idx - zone) : idx + zone + 1] = np.inf
    return out
