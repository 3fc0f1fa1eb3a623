"""SDTS — Scalable Dictionary learning for Time Series (weakly-labeled).

Re-implementation of the reference's ``sdts_train`` / ``sdts_predict`` /
``sdts_score`` (/root/reference/R/sdts-train.R:48-355,
/root/reference/R/sdts-predict.R:39-85, 124-187, /root/reference/R/misc.R:
616-800) following the reference's procedure step for step:

- TRAIN stage 1: concatenate positively-labeled segments with Inf
  separators; per (window, segment) the candidate pattern is the segment's
  most-conserved window (min of the concatenated self-join MP restricted to
  the segment's span).
- TRAIN stage 2: each candidate's detection threshold is fitted by
  golden-section search (misc.R:616-648) maximizing the reference's
  training F measure ``compute_f_meas`` (misc.R:719-800): a below-threshold
  RUN START spawns one window-length annotation — not every hit — so a
  degenerate everything-below threshold yields ONE annotation at position 0
  and near-zero precision instead of a spuriously perfect score.
  Candidates are then sorted by signif(score, 6) descending, stable.
- TRAIN stage 3 (sdts-train.R:176-290): greedy combination; each trial
  refits ALL thresholds by coordinate descent (``golden_section_2`` per
  pattern in reverse order, iterating until the mean signed threshold
  delta drops below 0.1% of the pooled profile range or 200 iterations);
  profiles are masked by the union of the chosen candidates' source
  regions (±max window). A candidate is accepted only on strict score
  improvement. Documented deviation: each trial masks a FRESH copy of
  the accepted-region mask — the reference shares one mask across a
  round's trials and resets each trial's range unconditionally
  (sdts-train.R:252,316), leaking overlapped accepted regions to later
  trials; emulating that was measured strictly worse on the reference's
  own test config (see the stage-3 comment in ``sdts_train``).
- PREDICT (sdts-predict.R:39-85): per pattern, run starts of
  dist < threshold, pooled, sorted, greedily deduplicated within
  ``window_size``, each surviving start painting ``window_size`` points.
- SCORE (sdts-predict.R:124-187): segment-level precision/recall/F_beta
  with the 80%-overlap rule; the overlap unit defaults to the MODE of the
  predicted segment lengths like the reference (callers may pin it).

In the engine, TRAIN and PREDICT both run on the driver over one series
(the ``sdts`` catalog query); there is no distributed SDTS stage
(SURVEY.md §2.7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import raise_if_bad_window
from .block_join import blocked_mp
from .mass import mass_pre, mass_v3

_GOLD = (1 + np.sqrt(5)) / 2


@dataclass
class SdtsModel:
    patterns: list = field(default_factory=list)   # list of np.ndarray
    tholds: list = field(default_factory=list)     # list of float
    windows: list = field(default_factory=list)    # list of int
    score: float = 0.0
    score_hist: list = field(default_factory=list)


def _segments(label: np.ndarray) -> list[tuple[int, int]]:
    """[start, end) spans of True runs."""
    pad = np.concatenate([[0], label.astype(np.int8), [0]])
    d = np.diff(pad)
    return list(zip(np.flatnonzero(d == 1), np.flatnonzero(d == -1)))


def _run_starts(dist_pro: np.ndarray, thold: float) -> np.ndarray:
    """0-based start indices of maximal runs where dist < thold (strict —
    the reference zeroes ``anno >= 0``)."""
    with np.errstate(invalid="ignore"):
        below = dist_pro < thold
    d = np.diff(np.concatenate([[0], below.astype(np.int8), [0]]))
    return np.flatnonzero(d == 1)


def _dedup_starts(starts: np.ndarray, w: int) -> np.ndarray:
    """Greedy overlap suppression over SORTED starts: keep a start only if
    it is ≥ w past the last kept one (the reference's in-place while loop,
    sdts-predict.R:60-74, is equivalent on sorted input)."""
    kept: list[int] = []
    last = -(10 ** 18)
    for s in starts:
        if s - last >= w:
            kept.append(int(s))
            last = int(s)
    return np.asarray(kept, dtype=np.int64)


def _f_meas(label: np.ndarray, segs: list[tuple[int, int]],
            dist_pros, tholds, window_size: int, beta: float) -> float:
    """The reference's training F measure (misc.R:719-800). ``dist_pros``
    is one profile (scalar threshold) or a list (vector of thresholds —
    pooled run starts are deduplicated within ``window_size``; the single-
    profile branch keeps every run start, like the reference). Every
    annotation is ``window_size`` long and both 0.8-overlap rules use
    ``window_size`` — pattern k's own window during its stage-3 refit, a
    reference quirk mirrored on purpose."""
    n = len(label)
    if isinstance(dist_pros, (list, tuple)):
        parts = [_run_starts(dp, th) for dp, th in zip(dist_pros, tholds)]
        starts = np.sort(np.concatenate(parts)) if parts else \
            np.array([], dtype=np.int64)
        starts = _dedup_starts(starts, window_size)
    else:
        starts = _run_starts(dist_pros, tholds)
    if len(starts) == 0 or not segs:
        return 0.0
    anno = np.zeros(n, dtype=bool)
    tp_pre = 0
    lim = 0.8 * window_size
    for s in starts:
        ed = min(s + window_size, n)
        anno[s:ed] = True
        if label[s:ed].sum() > lim:
            tp_pre += 1
    tp_rec = sum(anno[st:ed].sum() > lim for st, ed in segs)
    pre = tp_pre / len(starts)
    rec = tp_rec / len(segs)
    denom = beta ** 2 * pre + rec
    return float((1 + beta ** 2) * pre * rec / denom) if denom > 0 else 0.0


def _golden_bounds(dist_pro: np.ndarray) -> tuple[float, float] | None:
    a = float(np.min(dist_pro))
    finite = dist_pro[np.isfinite(dist_pro)]
    if len(finite) == 0 or not np.isfinite(a):
        return None
    return a, float(finite.max())


def _golden_section(dist_pro: np.ndarray, label: np.ndarray,
                    segs: list, w: int, beta: float) -> tuple[float, float]:
    """Single-profile threshold fit (misc.R:616-648)."""
    bounds = _golden_bounds(dist_pro)
    if bounds is None:
        return np.nan, 0.0
    a, b = bounds
    tol = max((b - a) * 0.001, 1e-4)
    c = b - (b - a) / _GOLD
    d = a + (b - a) / _GOLD
    while abs(c - d) > tol:
        cs = _f_meas(label, segs, dist_pro, c, w, beta)
        ds = _f_meas(label, segs, dist_pro, d, w, beta)
        if cs > ds:
            b = d
        else:
            a = c
        c = b - (b - a) / _GOLD
        d = a + (b - a) / _GOLD
    th = (a + b) / 2
    return th, _f_meas(label, segs, dist_pro, th, w, beta)


def _golden_section_2(pros: list, tholds: list, label: np.ndarray,
                      segs: list, w_k: int, k: int, beta: float,
                      a: float | None = None,
                      b: float | None = None) -> tuple[list, float]:
    """Coordinate refit of threshold k against the pooled annotations
    (misc.R:665-717). ``a``/``b`` optionally narrow the search bracket
    (used by the grid-seeded maximizer below)."""
    bounds = _golden_bounds(pros[k])
    if bounds is None:
        return tholds, 0.0
    if a is None:
        a = bounds[0]
    if b is None:
        b = bounds[1]
    tol = max((b - a) * 0.001, 1e-4)
    c = b - (b - a) / _GOLD
    d = a + (b - a) / _GOLD
    while abs(c - d) > tol:
        tc = list(tholds)
        td = list(tholds)
        tc[k] = c
        td[k] = d
        cs = _f_meas(label, segs, pros, tc, w_k, beta)
        ds = _f_meas(label, segs, pros, td, w_k, beta)
        if cs > ds:
            b = d
        else:
            a = c
        c = b - (b - a) / _GOLD
        d = a + (b - a) / _GOLD
    out = list(tholds)
    out[k] = (a + b) / 2
    return out, _f_meas(label, segs, pros, out, w_k, beta)


def _coord_max(pros: list, tholds: list, label: np.ndarray, segs: list,
               w_k: int, k: int, beta: float) -> tuple[list, float]:
    """1-D maximizer for coordinate k — engine extension beyond the
    reference's bare golden section (misc.R:665-717): the training F is
    piecewise-constant, so golden section's unimodality assumption fails
    and it can settle on an arbitrary plateau. Evaluate a deterministic
    25-point quantile grid of the profile's finite values first, then
    refine with the reference's golden section INSIDE the bracket around
    the best grid point, and keep the better of the two. Strictly
    dominates the plain golden section on the same F landscape."""
    fin = pros[k][np.isfinite(pros[k])]
    if len(fin) == 0:
        return list(tholds), _f_meas(label, segs, pros, tholds, w_k, beta)
    qs = np.quantile(fin, np.linspace(0.0, 1.0, 25))
    best_i, best_f = 0, -np.inf
    for i, q in enumerate(qs):
        t = list(tholds)
        t[k] = float(q)
        f = _f_meas(label, segs, pros, t, w_k, beta)
        if f > best_f:
            best_f, best_i = f, i
    lo = float(qs[max(0, best_i - 1)])
    hi = float(qs[min(len(qs) - 1, best_i + 1)])
    out, f_gold = _golden_section_2(pros, tholds, label, segs, w_k, k,
                                    beta, a=lo, b=hi)
    if f_gold >= best_f:
        return out, f_gold
    out = list(tholds)
    out[k] = float(qs[best_i])
    return out, best_f


def _signif(x: float, p: int = 6) -> float:
    if x == 0 or not np.isfinite(x):
        return x
    return float(np.round(x, int(p - 1 - np.floor(np.log10(abs(x))))))


def sdts_train(data: np.ndarray, label: np.ndarray, window_size,
               beta: float = 1.0, pat_max: int | float = np.inf) -> SdtsModel:
    data = np.asarray(data, dtype=np.float64)
    label = np.asarray(label).astype(bool)
    windows = [int(w) for w in np.atleast_1d(window_size)]
    n = len(data)
    segs = _segments(label)
    n_pos = len(segs)
    if not segs:
        raise ValueError("label has no positive segments")

    # stage 1: candidates — per (window, positive segment) the most
    # conserved window of the Inf-separated concatenation of positives
    candidates: list[dict] = []
    for w in windows:
        parts, seg_starts = [], []
        for st, ed in segs:
            seg_starts.append(sum(len(p) for p in parts) + 1)
            parts.append(np.concatenate([[np.inf], data[st:ed]]))
        pos = np.concatenate(parts)
        raise_if_bad_window(len(pos), w)  # stomp's refusals
        prof = blocked_mp(np.where(np.isfinite(pos), pos, np.nan), w)
        cands_w = []
        for k, (st, ed) in enumerate(segs):
            lo = seg_starts[k]
            # sdts-train.R:127: segments shorter than w fall back to the
            # single start slot (their pattern crosses the separator and
            # scores 0 downstream — kept for candidate-count parity)
            hi = max(lo + 1, min(lo + (ed - st) - w + 1, len(prof.mp)))
            seg_mp = prof.mp[lo:hi]
            if len(seg_mp) == 0:
                continue
            rel = int(np.argmin(np.where(np.isfinite(seg_mp), seg_mp,
                                         np.inf)))
            dist = seg_mp[rel] if np.isfinite(seg_mp[rel]) else np.inf
            cands_w.append({
                "pattern": pos[lo + rel : lo + rel + w].copy(),
                "idx": st + rel, "w": w, "dist": dist,
            })
        # sdts-train.R:139-143: per-window candidates sorted by their MP min
        cands_w.sort(key=lambda c: c["dist"])
        candidates.extend(cands_w)

    # stage 2: individual thresholds on the full weakly-labeled series
    pre_cache: dict[int, object] = {}
    for c in candidates:
        w = c["w"]
        if w not in pre_cache:
            pre_cache[w] = mass_pre(data, w)
        if np.isfinite(c["pattern"]).all():
            d, _ = mass_v3(pre_cache[w], c["pattern"])
        else:
            d = np.full(n - w + 1, np.inf)
        c["profile"] = d  # UNMASKED — stage 3 masks via the union region
        masked = d.copy()
        lo = max(0, c["idx"] - w)
        masked[lo : c["idx"] + w + 1] = np.inf
        th, sc = _golden_section(masked, label, segs, w, beta)
        c["thold"], c["score"] = th, sc
    # signif-6 stable descending sort (sdts-train.R:166-174)
    order = np.argsort([-_signif(c["score"]) for c in candidates],
                       kind="stable")
    candidates = [candidates[int(j)] for j in order]
    candidates = [c for c in candidates if np.isfinite(c.get("thold",
                                                             np.nan))] \
        + [c for c in candidates if not np.isfinite(c.get("thold", np.nan))]

    pat_max = int(min(pat_max, n_pos // 2)) if np.isfinite(pat_max) \
        else n_pos // 2
    best0 = candidates[0]
    if pat_max < 2 or len(candidates) <= 1:
        return SdtsModel(patterns=[best0["pattern"]], tholds=[best0["thold"]],
                         windows=[best0["w"]], score=best0["score"],
                         score_hist=[best0["score"]])

    # stage 3: greedy combination with full coordinate-descent refits
    max_w = max(windows)
    max_pro_len = n - min(windows) + 1
    chosen = np.zeros(len(candidates), dtype=bool)
    exc_mask = np.zeros(max_pro_len, dtype=bool)
    tholds_now = [c["thold"] for c in candidates]
    best_score = -np.inf
    hist: list[float] = []
    for _round in range(pat_max):
        pat_score = np.full(len(candidates), -np.inf)
        refit: dict[int, list] = {}
        # Documented deviation: each trial gets a FRESH copy of the round's
        # accepted-region mask. The reference shares ONE exc_mask_cur across
        # a round's trials (sdts-train.R:252) and resets each trial's RANGE
        # to FALSE unconditionally after scoring (sdts-train.R:316), so a
        # trial region overlapping an accepted candidate's region erases
        # that accepted masking for the round's later trials. Emulating the
        # leak was A/B-measured on the reference's own mp_test_data config:
        # it drives the engine's (fp-divergent) trajectory into a WORSE
        # basin — held-out F 0.5 vs the reference's published 0.8, tholds
        # (9.13, 29.5) vs (2.069, 9.125) — while the clean per-trial copy
        # reproduces the reference's published expectations exactly
        # (tests/test_reference_fixtures.py::test_sdts_known_answers_*).
        for j, cj in enumerate(candidates):
            if chosen[j]:
                continue
            lo = max(0, cj["idx"] - max_w)
            hi = min(max_pro_len, cj["idx"] + max_w + 1)
            mask = exc_mask.copy()
            mask[lo:hi] = True
            sel = np.flatnonzero(chosen | (np.arange(len(candidates)) == j))
            pros, ws, th = [], [], []
            pro_max, pro_min = -np.inf, np.inf
            for s in sel:
                p = candidates[s]["profile"].copy()
                fin = p[np.isfinite(p)]
                if len(fin):
                    pro_max = max(pro_max, float(fin.max()))
                pro_min = min(pro_min, float(np.min(p)))
                m = min(len(p), max_pro_len)
                p[:m][mask[:m]] = np.inf
                pros.append(p)
                ws.append(candidates[s]["w"])
                th.append(tholds_now[s])
            # the reference's coordinate descent (sdts-train.R:226-253),
            # with _coord_max as the 1-D maximizer (grid-seeded golden —
            # see its docstring) and an additional convergence guard on
            # the score itself: the grid maximizer is non-local, so a
            # whole sweep that changes nothing has truly converged
            score = 0.0
            for _it in range(200):
                th_old = list(th)
                score_old = score
                for k in reversed(range(len(th))):
                    th, score = _coord_max(pros, th, label, segs,
                                           ws[k], k, beta)
                delta = float(np.mean(np.asarray(th) - np.asarray(th_old)))
                if score == score_old and th == th_old:
                    break
                if np.isfinite(delta) and np.isfinite(pro_max) \
                        and delta < (pro_max - pro_min) * 0.001:
                    break
            pat_score[j] = score
            refit[j] = (sel, th)
        best_j = int(np.argmax(pat_score))
        if not (pat_score[best_j] - best_score > 0):
            break
        best_score = float(pat_score[best_j])
        hist.append(best_score)
        sel, th = refit[best_j]
        for s, t in zip(sel, th):
            tholds_now[int(s)] = t
        chosen[best_j] = True
        cj = candidates[best_j]
        exc_mask[max(0, cj["idx"] - max_w):
                 min(max_pro_len, cj["idx"] + max_w + 1)] = True
    if not chosen.any():
        return SdtsModel(patterns=[best0["pattern"]], tholds=[best0["thold"]],
                         windows=[best0["w"]], score=best0["score"],
                         score_hist=[best0["score"]])
    picked = np.flatnonzero(chosen)
    return SdtsModel(patterns=[candidates[int(j)]["pattern"] for j in picked],
                     tholds=[float(tholds_now[int(j)]) for j in picked],
                     windows=[candidates[int(j)]["w"] for j in picked],
                     score=best_score, score_hist=hist)


def sdts_predict(model: SdtsModel, data: np.ndarray,
                 window_size: int | None = None) -> np.ndarray:
    """Run-start annotations pooled over patterns (sdts-predict.R:39-85):
    every annotation is ``window_size`` long (defaults to the rounded mean
    of the model's windows, the reference example's convention)."""
    data = np.asarray(data, dtype=np.float64)
    n = len(data)
    if window_size is None:
        window_size = int(round(float(np.mean(model.windows))))
    parts = []
    pre_cache: dict[int, object] = {}  # one mass_pre per distinct window
    for pat, th, w in zip(model.patterns, model.tholds, model.windows):
        if w not in pre_cache:
            pre_cache[w] = mass_pre(data, w)
        d, _ = mass_v3(pre_cache[w], pat)
        parts.append(_run_starts(d, th))
    starts = np.sort(np.concatenate(parts)) if parts else \
        np.array([], dtype=np.int64)
    starts = _dedup_starts(starts, window_size)
    pred = np.zeros(n - window_size + 1, dtype=bool)
    for s in starts:
        pred[s : s + window_size] = True
    return pred


def sdts_score(pred: np.ndarray, gtruth: np.ndarray, beta: float = 1.0,
               sub_len: int | None = None) -> dict:
    """Segment-level F_beta with the 80%-overlap TP rule
    (sdts-predict.R:124-187). ``sub_len`` defaults to the MODE of the
    predicted segment lengths like the reference (callers may pin it)."""
    pred = np.asarray(pred).astype(bool)
    gtruth = np.asarray(gtruth).astype(bool)
    if len(pred) > len(gtruth):
        pred = pred[: len(gtruth)]
    elif len(pred) < len(gtruth):
        pred = np.concatenate([pred, np.zeros(len(gtruth) - len(pred), bool)])
    p_segs = _segments(pred)
    g_segs = _segments(gtruth)
    if sub_len is None:
        lens = [ed - st for st, ed in p_segs]
        sub_len = int(np.bincount(lens).argmax()) if lens else 1
    tp_pre = sum(gtruth[st:ed].sum() > 0.8 * sub_len for st, ed in p_segs)
    tp_rec = sum(pred[st:ed].sum() > 0.8 * sub_len for st, ed in g_segs)
    pre = tp_pre / len(p_segs) if p_segs else 0.0
    rec = tp_rec / len(g_segs) if g_segs else 0.0
    denom = beta**2 * pre + rec
    f = (1 + beta**2) * pre * rec / denom if denom > 0 else 0.0
    return {"f_score": float(f), "precision": float(pre), "recall": float(rec)}
