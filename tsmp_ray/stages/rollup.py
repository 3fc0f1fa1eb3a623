"""Tiered continuous aggregates: raw → 1m → 1h → 1d with gap-fill.

The rollup kernel is the engine generalization of the reference's
``fast_avg_sd`` one-pass moving sum/sqrsum/mean/sd
(/root/reference/R/misc.R:102-134) and its ``paa`` downsampling
(/root/reference/R/misc.R:463-522): per-bucket partial aggregates
``(n, sum, min, max, sumsq, first/last by ts)`` are MERGEABLE, so

- ``tiers_from_packed`` runs ONE task per packed block that folds every
  (conversation, signal) series of the block at once: the raw points
  enter as one-point partials, the finest tier is one segmented
  ``reduceat`` over (group, bucket) runs and every coarser tier folds the
  finer tier's partial arrays the same way — so 1h-from-1m == 1h-from-raw
  (tested point-for-point), the "continuous aggregate" property. It is the
  one rollup path: the query catalog and the benchmarks run it.

Gap-fill: per (conv_id, signal), emit missing buckets between a
conversation's first and last bucket with ``n = 0``, ``gap_filled = true``
and ``mean_v`` linearly interpolated between the neighboring real buckets
(north_star: "raw → 1m → 1h → 1d rollups with gap-fill interpolation"),
bounded by ``max_gap`` buckets.

Tier point schema (long format, one row per signal):
    conv_id:string, signal:string, bucket_ts:int64 (epoch µs),
    n:int64, sum_v:double, min_v:double, max_v:double, sumsq:double,
    first_ts:int64, first_v:double, last_ts:int64, last_v:double,
    mean_v:double, gap_filled:bool
``sumsq`` is the CENTERED-ready raw sum of squares; variance derivation uses
``sumsq/n - mean²`` only on demand (documented tradeoff: the partial must be
mergeable, so global centering isn't available here; values are integral
µs/lengths/flags so the cancellation risk of the naive form is bounded).
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import SIGNALS, TIERS, EngineConfig
from .signals import as_table, remote, repeat_labels

log = logging.getLogger("tsmp_ray")

#: filler values for a gap row's aggregate columns (``_emit_tier`` writes
#: the interpolated mean_v and gap_filled itself)
_GAP_FILLER: dict[str, np.int64 | float] = {
    "n": np.int64(0), "sum_v": np.nan, "min_v": np.nan, "max_v": np.nan,
    "sumsq": np.nan, "first_ts": np.int64(-1), "first_v": np.nan,
    "last_ts": np.int64(-1), "last_v": np.nan,
}

#: every tier's output schema (stable across blocks and the empty case)
_TIER_SCHEMA = pa.schema(
    [("conv_id", pa.string()), ("signal", pa.string()),
     ("bucket_ts", pa.int64()), ("n", pa.int64()), ("sum_v", pa.float64()),
     ("min_v", pa.float64()), ("max_v", pa.float64()),
     ("sumsq", pa.float64()), ("first_ts", pa.int64()),
     ("first_v", pa.float64()), ("last_ts", pa.int64()),
     ("last_v", pa.float64()), ("mean_v", pa.float64()),
     ("gap_filled", pa.bool_())])


def _fold(p: dict, width: int) -> dict:
    """Fold finer partial arrays — in (group, bucket_ts) order, ``gid`` the
    (row, signal) group of each — into a coarser tier: one ``reduceat``
    per column over the runs of equal (group, bucket). Valid because every
    partial column merges; add order = ts order within a run (sums of the
    integral values are exact, so they match the SQL oracle bitwise)."""
    b = (p["bucket_ts"] // width) * width
    g = p["gid"]
    new = np.ones(len(b), dtype=bool)
    new[1:] = (b[1:] != b[:-1]) | (g[1:] != g[:-1])
    starts = np.flatnonzero(new)
    last = np.append(starts[1:], len(b)) - 1
    return {
        "gid": g[starts], "bucket_ts": b[starts],
        "n": np.add.reduceat(p["n"], starts),
        "sum_v": np.add.reduceat(p["sum_v"], starts),
        "min_v": np.minimum.reduceat(p["min_v"], starts),
        "max_v": np.maximum.reduceat(p["max_v"], starts),
        "sumsq": np.add.reduceat(p["sumsq"], starts),
        "first_ts": p["first_ts"][starts], "first_v": p["first_v"][starts],
        "last_ts": p["last_ts"][last], "last_v": p["last_v"][last],
    }


def _emit_tier(p: dict, width: int, gap_fill: bool,
               max_gap: int | None) -> dict:
    """Final tier columns from partial arrays, plus (``gap_fill``) one row
    per bucket ABSENT between two present buckets of a group, placed in
    bucket order with the ``_GAP_FILLER`` fills and ``mean_v`` interpolated
    with ``np.interp``'s own formula. ``max_gap`` bounds interpolation: a
    gap wider than that many buckets is left unfilled (interpolating across
    a week of silence is noise, and unbounded fill inflates sparse series
    by orders of magnitude — the scale guard). None = fill everything."""
    bts, g = p["bucket_ts"], p["gid"]
    mean = p["sum_v"] / p["n"]
    out = {**p, "mean_v": mean, "gap_filled": np.zeros(len(bts), dtype=bool)}
    if not gap_fill or len(bts) < 2:
        return out
    step = np.diff(bts) // width
    fill = (g[1:] == g[:-1]) & (step > 1)
    if max_gap is not None:
        fill &= step <= max_gap
    k = np.zeros(len(bts), dtype=np.int64)  # gap rows after each bucket
    k[:-1] = np.where(fill, step - 1, 0)
    n_fill = int(k.sum())
    if not n_fill:
        return out
    before = np.cumsum(k) - k  # gap rows ahead of each real bucket
    at = np.arange(len(bts)) + before  # real rows' output slots
    gap = np.ones(len(bts) + n_fill, dtype=bool)
    gap[at] = False
    j = np.repeat(np.arange(len(bts)), k)  # the real bucket a gap follows
    x = bts[j] + width * (np.arange(1, n_fill + 1) - np.repeat(before, k))
    merged = {}
    for c, a in out.items():
        merged[c] = np.full(len(gap), _GAP_FILLER.get(c, 0), dtype=a.dtype)
        merged[c][at] = a
    merged["gid"][gap] = g[j]
    merged["bucket_ts"][gap] = x
    merged["gap_filled"] = gap
    # np.interp between buckets j and j + 1, NaN fallbacks included
    xp0, xp1 = bts[j].astype(np.float64), bts[j + 1].astype(np.float64)
    fp0, fp1 = mean[j], mean[j + 1]
    xf = x.astype(np.float64)
    slope = (fp1 - fp0) / (xp1 - xp0)
    y = slope * (xf - xp0) + fp0
    nan = np.isnan(y)
    y[nan] = slope[nan] * (xf[nan] - xp1[nan]) + fp1[nan]
    nan = np.isnan(y) & (fp0 == fp1)
    y[nan] = fp0[nan]
    merged["mean_v"][gap] = y
    return merged


def _tier_block(block, widths: tuple[int, ...], gap_fill: bool,
                max_gap: int | None):
    """Every tier of one packed block, one Arrow table per width in
    (row, signal, bucket_ts) order, then the block's count of conversations
    whose ``ts`` is not ascending in ``turn_idx``.

    Packed rows are in turn_idx order; the run-boundary bucketing needs
    ascending ts, so the block's points are stably sorted by (group, ts):
    signal values move with their turn, and on tied ts first/last follow
    turn_idx order (partials merge under any arrival order, so only
    first/last see it; the SQL oracle's arg_min/arg_max(v, ts) is
    tie-arbitrary there). Each (row, signal) series is one group; the raw
    points enter the first fold as one-point partials."""
    tbl = as_table(block)
    lens = (np.zeros(0, dtype=np.int64) if tbl is None else
            pc.list_value_length(tbl["ts"]).to_numpy().astype(np.int64))
    if not lens.sum():
        return (*(_TIER_SCHEMA.empty_table() for _ in widths), 0)
    flat = lambda c: pc.list_flatten(tbl[c]).to_numpy()
    ts = flat("ts").astype(np.int64, copy=False)
    row = np.repeat(np.arange(len(lens)), lens)
    down = (ts[1:] < ts[:-1]) & (row[1:] == row[:-1])
    n_disordered = len(np.unique(row[1:][down]))
    # one stable sort puts every point in (group, ts) order, group
    # g = row·S + s for the s-th signal
    n_sig = len(SIGNALS)
    gid = (row * n_sig + np.arange(n_sig)[:, None]).ravel()
    t = np.tile(ts, n_sig)
    order = np.lexsort((t, gid))
    gid, t = gid[order], t[order]
    v = np.concatenate([flat(sig) for sig in SIGNALS]).astype(
        np.float64, copy=False)[order]
    part = {"gid": gid, "bucket_ts": t, "n": np.ones(len(t), dtype=np.int64),
            "sum_v": v, "min_v": v, "max_v": v, "sumsq": v * v,
            "first_ts": t, "first_v": v, "last_ts": t, "last_v": v}
    conv = tbl["conv_id"].to_pylist()
    out = []
    for width in widths:
        part = _fold(part, width)
        cols = _emit_tier(part, width, gap_fill, max_gap)
        gid = cols.pop("gid")
        per_group = np.bincount(gid, minlength=len(lens) * n_sig)
        out.append(pa.table({
            "conv_id": repeat_labels(conv, per_group.reshape(-1, n_sig)
                                     .sum(1)),
            "signal": repeat_labels(list(SIGNALS) * len(lens), per_group),
            **{c: pa.array(cols[c]) for c in _TIER_SCHEMA.names[2:]},
        }, schema=_TIER_SCHEMA))
    return (*out, n_disordered)


def tiers_from_packed(ds_packed, *, tiers: tuple[str, ...], gap_fill: bool,
                      max_gap: int | None):
    """ALL tiers of every conversation from PACKED rows, with ZERO
    additional shuffles (the conv_id sort that built the packed rows was
    the only one) and one task per packed block: the packed Dataset is
    materialized, each block ref goes to one ``_tier_block`` task with
    ``num_returns = len(tiers) + 1``, and tier ``t`` is
    ``from_arrow_refs`` over every task's ``t``-th table. The tasks'
    disorder counts are the only values the driver reads (one ``tsmp_ray``
    warning with the total when any conversation's ts was not ascending).

    This replaces a sort-of-everything groupby per tier — the measured
    32-CPU bottleneck (the 1m Sort alone was 66s on the 12.7M-turn scaling
    shape; an all-to-all that moves ~1.4× the raw data per tier and cannot
    strong-scale on shared memory bandwidth) — with embarrassingly parallel
    block compute, which is also the right plan on a real cluster: tier
    points ride along with the conversation partitioning.

    Returns {tier: MaterializedDataset}, in (conv, signal, bucket_ts) order
    within each block; a consumer's ``.materialize()`` runs nothing (at
    100 TB the tier tables are the tier-partitioned parquet write —
    `state.lineage` layout — that each consumer reads back, with the object
    store spilling in between)."""
    widths = [(t, TIERS[t]) for t in tiers]
    # the fold chain assumes strictly WIDENING, evenly-nested tiers: each
    # coarser tier re-buckets the previous tier's partials, so ("1h", "1m")
    # would silently attribute hour-level aggregates to minute buckets
    for (ta, wa), (tb, wb) in zip(widths, widths[1:]):
        if wb <= wa or wb % wa:
            raise ValueError(
                f"tiers must be ascending and evenly nested: {tb!r} ({wb}) "
                f"does not widen/nest over {ta!r} ({wa})")
    import ray
    import ray.data

    # no block at all (e.g. after ``limit(0)``): one schema-less block, so
    # every tier still carries its schema
    blocks = [br for bundle in ds_packed.materialize()
              .iter_internal_ref_bundles() for br in bundle.block_refs
              ] or [ray.put(pa.table({}))]
    task = remote(_tier_block).options(num_returns=len(widths) + 1)
    outs = [task.remote(b, tuple(w for _, w in widths), gap_fill, max_gap)
            for b in blocks]
    n_disordered = sum(ray.get([o[-1] for o in outs]))
    if n_disordered:
        log.warning("rollup.tiers_from_packed: %d conversation(s) have ts "
                    "not ascending in turn_idx; each was stably sorted by ts",
                    n_disordered)
    return {t: ray.data.from_arrow_refs([o[i] for o in outs])
            for i, (t, _) in enumerate(widths)}


def compute_tiers(ds_packed, cfg: EngineConfig) -> dict:
    """``cfg``'s rollup of packed rows (its tiers, gap fill and fill bound),
    as ``profile_stage.compute_profiles`` is ``cfg``'s profiles."""
    return tiers_from_packed(ds_packed, tiers=cfg.tiers, gap_fill=cfg.gap_fill,
                             max_gap=cfg.gap_fill_max_buckets)
