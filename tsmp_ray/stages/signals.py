"""Per-conversation signal derivation — the engine's ingestion stages.

``add_turn_features``: stateless, vectorized ``map_batches`` over zero-copy
Arrow batches (pyarrow.compute only): ``text_len = utf8_length(text)``,
``tool_call = (tool != '')``. No ordering required, so it runs before the
shuffle and prunes ``text`` off the hot path.

``pack_series``: THE wide step — one ``sort(conv_id)`` shuffle, then one
vectorized pack per block that stably orders each conversation by
``turn_idx`` (every kernel is order-dependent; SURVEY.md §7.4) and derives
the order-dependent signal ``ts_delta`` (turn cadence in integer
microseconds; first turn = 0). Emits one packed row per conversation, the
unit of work of the tier rollup and the matrix-profile stages;
``unpack_signals`` explodes it back into the wide per-turn signal table

    (conv_id, turn_idx, ts, text_len, tool_call, ts_delta)

with no shuffle. An md5 digest of the stably-ordered texts is emitted per
conversation by ``conversation_fingerprints`` — the engine's per-turn
text-equality invariant (north_rule), compared between raw input and
post-shuffle orderings and gated against DuckDB by ``fingerprints_checked``.

Reference mapping: a conversation's ordered signal is the engine analog of
tsmp's implicit dense 1-D series (SURVEY.md §1.1: no timestamps in the
reference — indices are the join keys; here (conv_id, turn_idx) is).
"""

from __future__ import annotations

import functools
import hashlib

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


def as_table(block) -> pa.Table | None:
    """A Dataset block read by ref, as Arrow; None when it is empty and
    schema-less. Ray's sort can emit SCHEMA-LESS empty blocks for empty
    range partitions, so every task that reads block refs normalizes
    through here."""
    return block if block.num_columns else None


def list_cell(tbl: pa.Table, row: int, col: str) -> np.ndarray:
    """One list cell of a packed table as float64 numpy: the cell's values
    buffer, not a Python list (``.as_py()``). THE series reader of every
    per-conversation kernel call."""
    return (tbl[col][row].values.to_numpy(zero_copy_only=False)
            .astype(np.float64, copy=False))


@functools.cache
def remote(fn, **options):
    """``fn`` as a Ray remote function (with ``options``), made once per
    process: a block task's function is exported once per session, not
    once per stage call."""
    import ray

    return ray.remote(**options)(fn) if options else ray.remote(fn)


def key_runs(batch: pa.Table, keys: list[str], order=()):
    """One block stably sorted by ``keys`` then ``order``, and the bounds of
    its key runs (run ``i`` is rows ``bounds[i]:bounds[i+1]``) — THE run
    finder of every block function behind a ``sort(key)`` shuffle. An
    ``order`` entry is a column name (ascending) or a (name, "ascending" |
    "descending") pair; run starts come from one vectorized compare per key
    column."""
    sort_keys = [(k, "ascending") for k in keys] + [
        (o, "ascending") if isinstance(o, str) else tuple(o) for o in order]
    batch = batch.take(pc.sort_indices(batch, sort_keys=sort_keys))
    n = batch.num_rows
    new_run = np.zeros(max(n - 1, 0), dtype=bool)
    for k in keys:
        col = batch[k].combine_chunks()
        new_run |= pc.not_equal(col[1:], col[:-1]).to_numpy(
            zero_copy_only=False)
    starts = np.flatnonzero(np.concatenate([[n > 0], new_run]))
    return batch, np.append(starts, n)


def sort_map(ds, keys, schema: pa.Schema, fn, *args):
    """THE keyed shuffle: ``ds.sort(keys)`` then ONE block-wide pyarrow call
    ``fn(batch, *args)`` per sorted block (``batch_size=None``: a batch is
    exactly one block). The sort range-partitions on ``keys``, so no key
    straddles blocks — the contract Ray's own grouped map rests on (it IS
    this sort followed by a ``batch_size=None`` map) — and ``fn`` finds its
    keys' runs with :func:`key_runs`, never one Python call per key.

    ``fn`` is never called on a 0-row partition (Ray's sort emits them,
    often schema-less): Ray passes a 0-row block around a batch UDF, and
    one that reaches ``block`` maps to ``schema.empty_table()``, so no
    ``fn`` types its own empty case. An all-empty result thus comes back
    schema-less; a caller that must type it does so after the map
    (``dedup._declared``). ``block`` takes ``fn``'s name, so plans and
    ``ds.stats()`` name the operator ``MapBatches(<fn>)``."""

    @functools.wraps(fn)
    def block(batch: pa.Table) -> pa.Table:
        return fn(batch, *args) if batch.num_rows else schema.empty_table()

    return ds.sort(keys).map_batches(block, batch_format="pyarrow",
                                     batch_size=None)


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


def _needs_features(ds) -> bool:
    # schema(fetch_if_missing=False) avoids triggering a partial execution on
    # a lazy dataset just to sniff columns; unknown -> assume raw transcripts
    sch = ds.schema(fetch_if_missing=False)
    return sch is None or "text_len" not in sch.names


_DIGEST_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("digest", pa.string()), ("n_turns", pa.int64()),
])


def _digest_block(batch: pa.Table) -> pa.Table:
    """Every conversation of one sorted block -> one (conv_id, digest,
    n_turns) row; one md5 call per conversation, no per-group table."""
    batch, bounds = key_runs(batch, ["conv_id"], ["turn_idx"])
    texts = batch["text"].to_pylist()
    return pa.table({
        "conv_id": batch["conv_id"].take(pa.array(bounds[:-1])).cast(
            pa.string()),
        "digest": pa.array([hashlib.md5("\x1f".join(texts[a:b]).encode())
                            .hexdigest()
                            for a, b in zip(bounds[:-1], bounds[1:])]),
        "n_turns": pa.array(np.diff(bounds)),
    })


def conversation_fingerprints(ds):
    """Per-conv (digest, n_turns): the md5 of the conversation's texts joined
    by U+001F in stable ``turn_idx`` order — the per-turn text-equality
    invariant (north_rule): identical between any two orderings of the same
    logical table iff per-turn texts match under stable order. Same plan as
    ``pack_series``: ``sort_map`` on ``conv_id``."""
    return sort_map(ds.select_columns(["conv_id", "turn_idx", "text"]),
                    "conv_id", _DIGEST_SCHEMA, _digest_block)


_PACKED_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("n_turns", pa.int64()),
    ("turn_idx", pa.list_(pa.int64())), ("ts", pa.list_(pa.int64())),
    ("ts_delta", pa.list_(pa.float64())),
    ("text_len", pa.list_(pa.float64())),
    ("tool_call", pa.list_(pa.float64())),
])


def _pack_block(batch: pa.Table) -> pa.Table:
    """Every conversation of one sorted block -> one packed row each, with
    zero per-conversation Python calls: a stable (conv_id, turn_idx) sort,
    run starts from one vectorized compare, ``ts_delta`` as one diff zeroed
    at run starts, and each list column as one ``ListArray`` over the run
    offsets."""
    batch, bounds = key_runs(batch, ["conv_id"], ["turn_idx"])
    starts = bounds[:-1]
    offsets = pa.array(bounds.astype(np.int32))
    ts = batch["ts"].cast(pa.int64()).to_numpy()
    # integer microseconds kept in float64 (exact up to 2^53): sums and means
    # then match the DuckDB oracle bitwise regardless of fold order;
    # z-normalized kernels are scale-invariant so units don't matter
    delta = np.zeros(batch.num_rows)
    delta[1:] = np.diff(ts).astype(np.float64)
    delta[starts] = 0.0
    lists = lambda values: pa.ListArray.from_arrays(offsets, pa.array(values))
    return pa.table({
        "conv_id": batch["conv_id"].take(pa.array(starts)).cast(pa.string()),
        "n_turns": pa.array(np.diff(bounds)),
        "turn_idx": lists(batch["turn_idx"].cast(pa.int64()).to_numpy()),
        "ts": lists(ts),
        "ts_delta": lists(delta),
        "text_len": lists(batch["text_len"].to_numpy()),
        "tool_call": lists(batch["tool_call"].to_numpy()),
    })


def pack_series(ds):
    """Feature Dataset (raw transcripts get ``add_turn_features`` first) ->
    one packed row per conversation:
    (conv_id, n_turns, turn_idx/ts:list<int64>,
    ts_delta/text_len/tool_call:list<double>), in ONE conv_id shuffle.

    The plan is :func:`sort_map` on ``conv_id`` with ``_pack_block``: a
    single-key sort range-partitions by conv_id, so every row of a
    conversation lands in the same output block. No conversation straddles
    blocks, so no fragment is merged afterwards, and no Python call is made
    per conversation. This is the unit of work for the rollup and
    matrix-profile stages."""
    if _needs_features(ds):
        ds = ds.map_batches(add_turn_features, batch_format="pyarrow")
    return sort_map(ds, "conv_id", _PACKED_SCHEMA, _pack_block)


def unpack_signals(ds_packed):
    """Packed rows -> the wide per-turn signal table (the inverse of
    ``pack_series``'s packing, minus nothing): a stateless vectorized explode,
    NO shuffle. Lets one ``sort(conv_id)`` serve both the rollup (long
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
