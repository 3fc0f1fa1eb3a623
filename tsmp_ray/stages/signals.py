"""Per-conversation signal derivation — the engine's ingestion stages.

``add_turn_features``: stateless, vectorized ``map_batches`` over zero-copy
Arrow batches (pyarrow.compute only): ``text_len = utf8_length(text)``,
``tool_call = (tool != '')``. No ordering required, so it runs before the
shuffle and prunes ``text`` off the hot path.

``pack_series``: THE wide step — ``groupby(conv_id)`` then an in-group
stable sort by ``turn_idx`` (every kernel is order-dependent; SURVEY.md §7.4)
and the order-dependent signal ``ts_delta`` (turn cadence in integer
microseconds; first turn = 0). Emits one packed row per conversation, the
unit of work of the tier rollup and the matrix-profile stages;
``unpack_signals`` explodes it back into the wide per-turn signal table

    (conv_id, turn_idx, ts, text_len, tool_call, ts_delta)

with no shuffle. A crc32 rolling fingerprint of the stably-ordered texts is
emitted per conversation by ``conversation_fingerprints`` — the engine's
per-turn text-equality invariant (north_rule) is asserted by comparing these
between raw input and post-shuffle orderings.

Reference mapping: a conversation's ordered signal is the engine analog of
tsmp's implicit dense 1-D series (SURVEY.md §1.1: no timestamps in the
reference — indices are the join keys; here (conv_id, turn_idx) is).
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def repeat_labels(values: list[str], lens) -> pa.Array:
    """String column: ``values[i]`` repeated ``lens[i]`` times, built as a
    dictionary array (O(total) int32 indices + each label stored once) then
    cast to plain string — the cast DOES decode to O(total) string bytes in
    the returned column; the saving is CONSTRUCTION cost, not storage
    (building ['v']*n Python lists dominated wall time for small groups).
    The shared building block for batched per-group emits."""
    idx = pa.array(np.repeat(np.arange(len(values), dtype=np.int32),
                             np.asarray(lens, dtype=np.int64)))
    return pa.DictionaryArray.from_arrays(idx, pa.array(values)).cast(
        pa.string())


def add_turn_features(batch: pa.Table) -> pa.Table:
    """Vectorized per-batch features; keeps (conv_id, turn_idx, ts) keys."""
    text_len = pc.cast(pc.utf8_length(batch["text"]), pa.float64())
    tool_call = pc.cast(pc.not_equal(batch["tool"], ""), pa.float64())
    return pa.table(
        {
            "conv_id": batch["conv_id"],
            "turn_idx": batch["turn_idx"],
            "ts": batch["ts"],
            "text_len": text_len,
            "tool_call": tool_call,
        }
    )


def _group_signals(batch: pa.Table) -> pa.Table:
    """One conversation -> stably ordered wide signal rows."""
    order = pc.sort_indices(batch, sort_keys=[("turn_idx", "ascending")])
    batch = batch.take(order)
    ts = batch["ts"].cast(pa.int64()).to_numpy()
    delta = np.empty(len(ts))
    delta[0] = 0.0
    if len(ts) > 1:
        # integer microseconds kept in float64 (exact up to 2^53): sums and
        # means then match the DuckDB oracle bitwise regardless of fold order;
        # z-normalized kernels are scale-invariant so units don't matter
        delta[1:] = np.diff(ts).astype(np.float64)
    return batch.append_column("ts_delta", pa.array(delta))


def _needs_features(ds) -> bool:
    # schema(fetch_if_missing=False) avoids triggering a partial execution on
    # a lazy dataset just to sniff columns; unknown -> assume raw transcripts
    sch = ds.schema(fetch_if_missing=False)
    return sch is None or "text_len" not in sch.names


def _fingerprint_group(batch: pa.Table) -> pa.Table:
    order = pc.sort_indices(batch, sort_keys=[("turn_idx", "ascending")])
    batch = batch.take(order)
    # crc32 chained over per-turn texts == crc32 of their concatenation, and
    # an Arrow string array's value buffer IS that concatenation in order —
    # one C crc32 call over the buffer slice, no per-row as_py() (round-4
    # verdict item 7). large_binary cast: 64-bit offsets, byte (not char)
    # view; offset arithmetic handles sliced/taken arrays.
    txt = batch["text"].combine_chunks().cast(pa.large_binary())
    off = np.frombuffer(txt.buffers()[1], dtype=np.int64,
                        count=len(txt) + 1, offset=8 * txt.offset)
    crc = zlib.crc32(memoryview(txt.buffers()[2])[off[0]:off[-1]])
    return pa.table(
        {
            "conv_id": pa.array([batch["conv_id"][0].as_py()]),
            "n_turns": pa.array([batch.num_rows], pa.int64()),
            "text_crc": pa.array([crc], pa.int64()),
        }
    )


def conversation_fingerprints(ds):
    """Per-conv (n_turns, crc32-of-texts-in-stable-order) — the per-turn
    text-equality invariant (north_rule): identical between any two orderings
    of the same logical table iff per-turn texts match under stable order."""
    cols = [c for c in ("conv_id", "turn_idx", "text") if c in ds.schema().names]
    return ds.select_columns(cols).groupby("conv_id").map_groups(
        _fingerprint_group, batch_format="pyarrow"
    )


def pack_series(ds):
    """Feature (or wide-signal) Dataset -> one packed row per conversation:
    (conv_id, n_turns, ts:list<int64>, ts_delta/text_len/tool_call:list<double>).
    Computes ts_delta itself when absent, so it needs only ONE shuffle from
    raw per-turn features. This is the unit of work for the matrix-profile
    actor stages."""

    def _pack(batch: pa.Table) -> pa.Table:
        if "ts_delta" not in batch.column_names:
            batch = _group_signals(batch)
        else:
            order = pc.sort_indices(batch, sort_keys=[("turn_idx", "ascending")])
            batch = batch.take(order)
        return pa.table(
            {
                "conv_id": pa.array([batch["conv_id"][0].as_py()]),
                "n_turns": pa.array([batch.num_rows], pa.int64()),
                "turn_idx": pa.array([batch["turn_idx"].cast(pa.int64()).to_numpy()]),
                "ts": pa.array([batch["ts"].cast(pa.int64()).to_numpy()]),
                "ts_delta": pa.array([batch["ts_delta"].to_numpy()]),
                "text_len": pa.array([batch["text_len"].to_numpy()]),
                "tool_call": pa.array([batch["tool_call"].to_numpy()]),
            }
        )

    if _needs_features(ds):
        ds = ds.map_batches(add_turn_features, batch_format="pyarrow")
    return ds.groupby("conv_id").map_groups(_pack, batch_format="pyarrow")


def pack_series_arrow(ds):
    """Arrow-native vectorized pack (round-3 verdict item 8): ONE global
    ``sort(conv_id, turn_idx)`` replaces ``groupby.map_groups``, then each
    sorted block packs ALL its conversations with ZERO per-group Python
    calls — run boundaries via one vectorized comparison, list columns via
    ``ListArray.from_arrays`` over offsets, ts_delta as one global diff
    zeroed at group starts. A conversation can straddle block boundaries,
    so each block's FIRST and LAST group are conservatively marked
    fragments and merged in a second tiny ``groupby(conv_id)`` whose group
    count is ≤ 2 per block (O(blocks), not O(convs)).

    Same output rows as :func:`pack_series` (asserted value-identical in
    tests); the difference is plan shape: map_groups costs one Python call
    PER CONVERSATION (10⁸ convs → 10⁸ interpreter calls), this path costs
    one per BLOCK plus the boundary merge. Both move the data once (sort ≈
    groupby's internal sort).

    Measured (32 CPUs, min-of-2 warm, interleaved; BASELINE.md round 4):
    few big convs (500 × ~5k turns) map_groups wins 8.3s vs 12.1s; many
    small convs (150k × ~40 turns) THIS path wins 6.2s vs 13.3s warm /
    99s cold — the cross-over is conversation COUNT, so a 10⁸-conv
    deployment uses this plan (``GRAFT_PACK=arrow`` in bench)."""

    def _pack_block(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        empty = pa.schema([
            ("conv_id", pa.string()), ("n_turns", pa.int64()),
            ("turn_idx", pa.list_(pa.int64())), ("ts", pa.list_(pa.int64())),
            ("ts_delta", pa.list_(pa.float64())),
            ("text_len", pa.list_(pa.float64())),
            ("tool_call", pa.list_(pa.float64())),
            ("_frag", pa.bool_()),
        ])
        if n == 0:
            return empty.empty_table()
        conv = batch["conv_id"].to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(
            np.concatenate([[True], conv[1:] != conv[:-1]]))
        offsets = np.concatenate([starts, [n]]).astype(np.int32)
        ts_np = batch["ts"].cast(pa.int64()).to_numpy()
        delta = np.empty(n)
        delta[0] = 0.0
        if n > 1:
            delta[1:] = np.diff(ts_np).astype(np.float64)
        delta[starts] = 0.0
        lens = np.diff(offsets).astype(np.int64)
        la = pa.ListArray.from_arrays
        off = pa.array(offsets)
        ng = len(starts)
        frag = np.zeros(ng, dtype=bool)
        frag[0] = frag[-1] = True  # may continue in a neighboring block
        return pa.table({
            "conv_id": pa.array(conv[starts], pa.string()),
            "n_turns": pa.array(lens),
            "turn_idx": la(off, pa.array(
                batch["turn_idx"].cast(pa.int64()).to_numpy())),
            "ts": la(off, pa.array(ts_np)),
            "ts_delta": la(off, pa.array(delta)),
            "text_len": la(off, batch["text_len"].combine_chunks()
                           if isinstance(batch["text_len"], pa.ChunkedArray)
                           else batch["text_len"]),
            "tool_call": la(off, batch["tool_call"].combine_chunks()
                            if isinstance(batch["tool_call"], pa.ChunkedArray)
                            else batch["tool_call"]),
            "_frag": pa.array(frag),
        })

    def _merge_frag(g: pa.Table) -> pa.Table:
        order = np.argsort([g["turn_idx"][i].values[0].as_py()
                            for i in range(g.num_rows)])
        cat = lambda col: np.concatenate(
            [g[col][int(i)].values.to_numpy(zero_copy_only=False)
             for i in order])
        ts = cat("ts")
        delta = np.empty(len(ts))
        delta[0] = 0.0
        if len(ts) > 1:
            delta[1:] = np.diff(ts).astype(np.float64)
        return pa.table({
            "conv_id": pa.array([g["conv_id"][0].as_py()]),
            "n_turns": pa.array([len(ts)], pa.int64()),
            "turn_idx": pa.array([cat("turn_idx")]),
            "ts": pa.array([ts]),
            "ts_delta": pa.array([delta]),
            "text_len": pa.array([cat("text_len")]),
            "tool_call": pa.array([cat("tool_call")]),
        })

    if _needs_features(ds):
        ds = ds.map_batches(add_turn_features, batch_format="pyarrow")
    # batch_size=None: each batch is exactly ONE block, i.e. one contiguous
    # range of the global sort — the first/last-group fragment invariant in
    # _pack_block then holds by construction (a fixed row batch_size could
    # stitch non-adjacent blocks of a task bundle into one batch and emit a
    # straddling conversation as a spurious 'whole' row — ADVICE r4)
    packed = (ds.sort(["conv_id", "turn_idx"])
              .map_batches(_pack_block, batch_format="pyarrow",
                           batch_size=None)
              .materialize())
    whole = packed.filter(expr="_frag == False").drop_columns(["_frag"])
    frags = (packed.filter(expr="_frag == True").drop_columns(["_frag"])
             .groupby("conv_id").map_groups(_merge_frag,
                                            batch_format="pyarrow"))
    return whole.union(frags)


def unpack_signals(ds_packed):
    """Packed rows -> the wide per-turn signal table (the inverse of
    ``pack_series``'s packing, minus nothing): a stateless vectorized explode,
    NO shuffle. Lets one ``groupby(conv_id)`` serve both the rollup (long
    rows) and the profile stage (packed rows) — THE conv_id shuffle happens
    once per pipeline."""

    def _explode(batch: pa.Table) -> pa.Table:
        lens = pc.list_value_length(batch["ts"]).to_numpy()
        conv = np.repeat(batch["conv_id"].to_numpy(zero_copy_only=False), lens)
        flat = lambda col: pc.list_flatten(batch[col])
        return pa.table(
            {
                "conv_id": pa.array(conv, pa.string()),
                "turn_idx": flat("turn_idx").cast(pa.int32()),
                "ts": flat("ts").cast(pa.timestamp("us")),
                "text_len": flat("text_len"),
                "tool_call": flat("tool_call"),
                "ts_delta": flat("ts_delta"),
            }
        )

    return ds_packed.map_batches(_explode, batch_format="pyarrow")
