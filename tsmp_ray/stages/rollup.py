"""Tiered continuous aggregates: raw → 1m → 1h → 1d with gap-fill.

The rollup kernel is the engine generalization of the reference's
``fast_avg_sd`` one-pass moving sum/sqrsum/mean/sd
(/root/reference/R/misc.R:102-134) and its ``paa`` downsampling
(/root/reference/R/misc.R:463-522): per-bucket partial aggregates
``(n, sum, min, max, sumsq, first/last by ts)`` are MERGEABLE, so

- ``tiers_from_packed`` buckets each packed conversation's series into the
  finest tier with ``reduceat`` and folds every coarser tier from the finer
  tier's partial arrays — so 1h-from-1m == 1h-from-raw (tested
  point-for-point), the "continuous aggregate" property. It is the one
  rollup path: ``analyze()``, the query catalog and the benchmarks run it.

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

import numpy as np
import pyarrow as pa

from ..config import SIGNALS, TIERS
from .signals import repeat_labels

#: packed conversations per ``map_batches`` batch of ``tiers_from_packed``
TIERS_BATCH_CONVS = 4


def _missing_buckets(bts: np.ndarray, width: int,
                     max_gap: int | None) -> np.ndarray:
    """Bucket timestamps ABSENT between a series' present buckets — THE
    gap-fill candidate rule. ``max_gap`` bounds interpolation: gaps wider
    than that many buckets are left unfilled (interpolating across a week of
    silence is noise, and unbounded fill inflates sparse series by orders of
    magnitude — the scale guard). None = fill everything."""
    if len(bts) < 2:
        return np.empty(0, dtype=np.int64)
    if max_gap is not None:
        gaps = np.diff(bts) // width
        idx = np.flatnonzero((gaps > 1) & (gaps <= max_gap))
        return (np.concatenate([np.arange(bts[i] + width, bts[i + 1], width)
                                for i in idx])
                if len(idx) else np.empty(0, dtype=np.int64))
    full = np.arange(bts[0], bts[-1] + width, width)
    return np.setdiff1d(full, bts)


#: filler values for a gap row's aggregate columns (``_emit_tier_arrays``
#: interpolates mean_v and sets gap_filled)
_GAP_FILLER: dict[str, np.int64 | float] = {
    "n": np.int64(0), "sum_v": np.nan, "min_v": np.nan, "max_v": np.nan,
    "sumsq": np.nan, "first_ts": np.int64(-1), "first_v": np.nan,
    "last_ts": np.int64(-1), "last_v": np.nan,
}


def _fold_arrays(p: dict, width: int) -> dict:
    """Fold finer partial arrays (ascending bucket_ts) into a coarser tier by
    re-bucketing — valid because every partial column merges. The raw series
    enters as one-point partials, so the finest tier is a fold too (add
    order = ts order; sums of the integral values are exact, so they match
    the SQL oracle bitwise)."""
    b = (p["bucket_ts"] // width) * width
    starts = np.flatnonzero(np.concatenate([[True], b[1:] != b[:-1]]))
    ends = np.concatenate([starts[1:], [len(b)]])
    return {
        "bucket_ts": b[starts],
        "n": np.add.reduceat(p["n"], starts),
        "sum_v": np.add.reduceat(p["sum_v"], starts),
        "min_v": np.minimum.reduceat(p["min_v"], starts),
        "max_v": np.maximum.reduceat(p["max_v"], starts),
        "sumsq": np.add.reduceat(p["sumsq"], starts),
        "first_ts": p["first_ts"][starts], "first_v": p["first_v"][starts],
        "last_ts": p["last_ts"][ends - 1], "last_v": p["last_v"][ends - 1],
    }


def _emit_tier_arrays(p: dict, width: int, gap_fill: bool,
                      max_gap: int | None) -> dict:
    """Final tier columns (+ optional gap rows, interpolated mean_v and the
    ``_GAP_FILLER`` NaN/-1 fills) from partial arrays."""
    bts = p["bucket_ts"]
    mean = p["sum_v"] / p["n"]
    out = {**p, "mean_v": mean,
           "gap_filled": np.zeros(len(bts), dtype=bool)}
    if not gap_fill:
        return out
    missing = _missing_buckets(bts, width, max_gap)
    if len(missing) == 0:
        return out
    nm = len(missing)
    merged = {"bucket_ts": np.concatenate([bts, missing])}
    for k, v in _GAP_FILLER.items():
        dt = np.int64 if isinstance(v, np.integer) else np.float64
        merged[k] = np.concatenate([p[k], np.full(nm, v, dtype=dt)])
    merged["mean_v"] = np.concatenate([mean, np.interp(missing, bts, mean)])
    merged["gap_filled"] = np.concatenate([np.zeros(len(bts), dtype=bool),
                                           np.ones(nm, dtype=bool)])
    order = np.argsort(merged["bucket_ts"], kind="stable")
    return {k: a[order] for k, a in merged.items()}


_TIER_EMIT_COLS = ["bucket_ts", "n", "sum_v", "min_v", "max_v", "sumsq",
                   "first_ts", "first_v", "last_ts", "last_v", "mean_v",
                   "gap_filled"]

#: combined-tier output schema (stable across batches and the empty-batch
#: case)
_TIERS_COMBINED_SCHEMA = pa.schema(
    [("conv_id", pa.string()), ("signal", pa.string()),
     ("bucket_ts", pa.int64()), ("n", pa.int64()), ("sum_v", pa.float64()),
     ("min_v", pa.float64()), ("max_v", pa.float64()),
     ("sumsq", pa.float64()), ("first_ts", pa.int64()),
     ("first_v", pa.float64()), ("last_ts", pa.int64()),
     ("last_v", pa.float64()), ("mean_v", pa.float64()),
     ("gap_filled", pa.bool_()), ("tier", pa.string())])


def tiers_from_packed(ds_packed, tiers: tuple[str, ...] = ("1m", "1h", "1d"),
                      gap_fill: bool = True, max_gap: int | None = None):
    """ALL tiers per conversation in ONE ``map_batches`` pass over PACKED
    rows — ZERO additional shuffles (the conv_id sort that built the
    packed rows was the only one). Each conversation's series is bucketed
    with ``reduceat``; coarser tiers fold the finer tier's partial ARRAYS
    in-memory. This replaces a sort-of-everything groupby per tier — the
    measured 32-CPU bottleneck (the 1m Sort alone was 66s on the
    12.7M-turn scaling shape; an all-to-all that moves ~1.4× the raw data
    per tier and cannot strong-scale on shared memory bandwidth) — with
    embarrassingly parallel per-conv compute, which is also the right plan
    on a real cluster: tier points ride along with the conversation
    partitioning.

    Returns {tier: Dataset}; all tiers come from one materialized combined
    Dataset filtered by the ``tier`` column (materialized once so three
    consumers don't recompute the pass; at 100 TB this materialize is the
    tier-partitioned parquet write — `state.lineage` layout — that each
    consumer reads back, with the object store spilling in between)."""
    widths = [(t, TIERS[t]) for t in tiers]
    # the fold chain assumes strictly WIDENING, evenly-nested tiers: each
    # coarser tier re-buckets the previous tier's partials, so ("1h", "1m")
    # would silently attribute hour-level aggregates to minute buckets
    for (ta, wa), (tb, wb) in zip(widths, widths[1:]):
        if wb <= wa or wb % wa:
            raise ValueError(
                f"tiers must be ascending and evenly nested: {tb!r} ({wb}) "
                f"does not widen/nest over {ta!r} ({wa})")

    def _all(batch: pa.Table) -> pa.Table:
        # accumulate PLAIN NUMPY per column and emit ONE Arrow table per
        # batch: the previous per-(conv, signal, tier) pandas DataFrame +
        # one concat at the end cost ~0.5 ms per tiny group — 1.35M groups
        # on a 150k-conv shape made the zero-shuffle rollup slower than the
        # shuffle it replaced (measured: this map pass 59 s → 4 s)
        cols: dict[str, list] = {c: [] for c in _TIER_EMIT_COLS}
        group_conv: list[str] = []
        group_sig: list[str] = []
        group_tier: list[str] = []
        group_len: list[int] = []
        conv_ids = batch["conv_id"].to_pylist()
        for r, conv in enumerate(conv_ids):
            ts = batch["ts"][r].values.to_numpy().astype(np.int64, copy=False)
            # packed rows are in turn_idx order; the run-boundary bucketing
            # needs ascending ts. A conversation whose ts is not ascending
            # in turn_idx is stably sorted by ts (signal values move with
            # their turn) — partials merge under any arrival order, so only
            # first/last see the order: on tied ts they follow turn_idx
            # order. The SQL oracle's arg_min/arg_max(v, ts) is
            # tie-arbitrary there.
            order = None
            if len(ts) > 1 and not (ts[1:] >= ts[:-1]).all():
                order = np.argsort(ts, kind="stable")
                ts = ts[order]
            for sig in SIGNALS:
                v = (batch[sig][r].values
                     .to_numpy(zero_copy_only=False)
                     .astype(np.float64, copy=False))
                if order is not None:
                    v = v[order]
                part = {"bucket_ts": ts, "n": np.ones(len(ts), np.int64),
                        "sum_v": v, "min_v": v, "max_v": v, "sumsq": v * v,
                        "first_ts": ts, "first_v": v,
                        "last_ts": ts, "last_v": v}
                for tier, width in widths:
                    part = _fold_arrays(part, width)
                    emit = _emit_tier_arrays(part, width, gap_fill, max_gap)
                    for c in _TIER_EMIT_COLS:
                        cols[c].append(emit[c])
                    group_conv.append(conv)
                    group_sig.append(sig)
                    group_tier.append(tier)
                    group_len.append(len(emit["bucket_ts"]))
        if not group_len:
            return _TIERS_COMBINED_SCHEMA.empty_table()
        out = {"conv_id": repeat_labels(group_conv, group_len),
               "signal": repeat_labels(group_sig, group_len)}
        for c in _TIER_EMIT_COLS:
            out[c] = pa.array(np.concatenate(cols[c]))
        out["tier"] = repeat_labels(group_tier, group_len)
        return pa.table(out).cast(_TIERS_COMBINED_SCHEMA)

    combined = ds_packed.map_batches(
        _all, batch_format="pyarrow", batch_size=TIERS_BATCH_CONVS
    ).materialize()
    keep = ["conv_id", "signal", *_TIER_EMIT_COLS]
    return {t: combined.filter(expr=f"tier == '{t}'").select_columns(keep)
            for t, _ in widths}
