"""Distributed matrix-profile stage, and the one block plan of every
per-conversation stage (``per_block``).

Packed per-conversation series rows → long-format profile rows

    (conv_id, signal, w, window_idx, mp, pi, lmp, lpi, rmp, rpi)

One physical plan over the materialized packed Dataset (SURVEY.md §7.3),
one Ray task per packed block:

- **inline** (every conv with n ≤ ``EngineConfig.salt_turn_threshold``):
  ``_profile_block`` per block; rows above the cut never reach it.
  Conv-signals that fit one 256-window block run as one batched matmul per
  chunk (``block_join.blocked_mp_many``), bitwise equal to per-series
  ``blocked_mp``.

- **sharded** (skewed long convs, n above the cut): one conversation's
  O(n²) work is split into row-block STRIPS of the blocked kernel and
  fanned out as Ray tasks — the reference's own shard plan (its
  R/stomp-par.R:102-117); partials min-merge (stomp-par.R:249-264 via
  profile_types.merge_min) to distances bit-identical to the single-pass
  kernel. Raw tasks, because the unit of work is a *slice of one
  conversation*, which a keyed shuffle cannot express.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import SIGNALS, EngineConfig, exclusion_zone, session_cpus
from ..kernels.block_join import blocked_mp, blocked_mp_many, strip_splits
from ..kernels.profile_types import MatrixProfile, merge_min
from .signals import as_table, block_refs, list_cell, remote, repeat_labels

_VALUE_COLS = ("mp", "pi", "lmp", "lpi", "rmp", "rpi")
PROFILE_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("signal", pa.string()),
        ("w", pa.int32()),
        ("window_idx", pa.int64()),
        ("mp", pa.float64()),
        ("pi", pa.int64()),
        ("lmp", pa.float64()),
        ("lpi", pa.int64()),
        ("rmp", pa.float64()),
        ("rpi", pa.int64()),
    ]
)


def _profile_rows(keys: list[tuple[str, str]],
                 profs: list[MatrixProfile]) -> pa.Table:
    """The profile rows of each ``(conv_id, signal)`` key's profile, as ONE
    Arrow table: numpy parts and dictionary-built labels, not a
    ``pa.table`` per (conv, signal) — that plus ``concat_tables`` costs tens
    of µs per tiny group, where the profile kernels take single-digit µs."""
    lens = [len(prof.mp) for prof in profs]
    return pa.table({
        "conv_id": repeat_labels([k[0] for k in keys], lens),
        "signal": repeat_labels([k[1] for k in keys], lens),
        "w": pa.array(np.repeat(np.array([prof.w for prof in profs],
                                         dtype=np.int32), lens)),
        "window_idx": pa.array(np.concatenate(
            [np.arange(p, dtype=np.int64) for p in lens])),
        **{k: pa.array(np.concatenate([getattr(prof, k) for prof in profs]))
           for k in _VALUE_COLS},
    }, schema=PROFILE_SCHEMA)


def profile_to_rows(conv_id: str, signal: str, prof: MatrixProfile) -> pa.Table:
    """One (conv, signal) profile's rows."""
    return _profile_rows([(conv_id, signal)], [prof])


def _profile_block(tbl: pa.Table, w: int, ez: float) -> pa.Table:
    """Every conv-signal of one packed block with at least ``2w`` points ->
    profile rows. Conv-signals that fit one 256-window block run as one
    batched matmul per chunk (``blocked_mp_many``), bitwise equal to
    per-series ``blocked_mp``."""
    keys: list[tuple[str, str]] = []
    series: list[np.ndarray] = []
    for r, conv_id in enumerate(tbl["conv_id"].to_pylist()):
        for sig in SIGNALS:
            x = list_cell(tbl, r, sig)
            if len(x) >= 2 * w:
                keys.append((conv_id, sig))
                series.append(x)
    if not keys:
        return PROFILE_SCHEMA.empty_table()
    return _profile_rows(keys, blocked_mp_many(series, w, ez=ez))


#: per-shard work target in window-pair units (p² per conv-signal): sized so
#: a shard is ~0.25 s of kernel compute — big enough to amortize task
#: dispatch, small enough that the last wave never sets the stage wall.
#: Measured single-core: the blocked kernel runs ≈ 464M units/s (w=8,
#: n=18000).
SHARD_UNITS = 1.2e8


def _block_meta(block):
    tbl = as_table(block)
    if tbl is None:
        return [], []
    return tbl["conv_id"].to_pylist(), tbl["n_turns"].to_pylist()


def _parallel_block_meta(ds):
    """(conv_id, n_turns) per row for every block of ``ds``, read in ONE
    parallel wave (launch all ``_block_meta`` tasks, single ``ray.get``) —
    the serial per-block round-trip version cost ~20 ms × n_blocks of pure
    driver latency. The tasks take zero CPUs: the driver BLOCKS on these
    tiny planning reads, so they must never queue behind full CPU slots (a
    deadlock in small sessions). Returns [(block_ref, conv_ids, n_turns),
    ...]."""
    import ray

    task = remote(_block_meta, num_cpus=0)
    refs = block_refs(ds)
    metas = ray.get([task.remote(r) for r in refs])
    return [(r, cids, nts) for r, (cids, nts) in zip(refs, metas)]


def _run_block(block, schema: pa.Schema, fn, args: tuple, cut: int | None):
    """One ``per_block`` task: ``fn(table, *args)`` over the block's rows
    with at most ``cut`` turns (every row when ``cut`` is None), or the
    empty table of ``schema`` when no row is left."""
    tbl = as_table(block)
    if tbl is not None and cut is not None:
        tbl = tbl.filter(pc.less_equal(tbl["n_turns"], cut))
    if tbl is None or not tbl.num_rows:
        return schema.empty_table()
    return fn(tbl, *args)


def per_block(ds, schema: pa.Schema, fn, *args, shards=None):
    """``fn(table, *args) -> table of schema`` as ONE Ray task per block of
    the materialized ``ds`` — the plan of every per-conversation stage
    (profiles, the mining ops, mstomp, the pair ops after their sort), as
    in ``rollup.tiers_from_packed``. Returns one ``from_arrow_refs``
    Dataset over the tasks' tables; an input with no block at all runs one
    task on a schema-less empty block, so the output always carries
    ``schema``.

    ``shards = (cut, plan)`` splits the skew tail: each conversation with
    more than ``cut`` turns is left out of ``fn``'s table and handed to
    ``plan(block_ref, row, conv_id, n_turns)``, which starts its shard
    tasks and returns the refs of their ``schema`` tables. The heavy
    conversations are found from one ``_parallel_block_meta`` wave (no
    series bytes reach the driver), and every shard and block task is
    submitted before the stage waits on any of them.

    Partitioning assumption (100 TB note): the sharded bin must be the SKEW
    TAIL — the driver plans O(#sharded convs) tasks (metadata only), so the
    cut (``EngineConfig.salt_turn_threshold``) should keep the bin to
    ~10³-10⁴ convs per driver. At full scale the flagship runs per input
    shard over lineage-partitioned packed parquet, so each shard's driver
    plans only its own tail; convs below the cut stay in the block tasks
    whatever their count."""
    import ray.data

    ds = ds.materialize()
    cut, plan = shards or (None, None)
    if plan is None:
        blocks, shard_refs = block_refs(ds), []
    else:
        metas = _parallel_block_meta(ds)
        blocks = [block for block, _, _ in metas]
        shard_refs = [ref for block, conv_ids, n_turns in metas
                      for row, (cid, n) in enumerate(zip(conv_ids, n_turns))
                      if n > cut for ref in plan(block, row, cid, int(n))]
    task = remote(_run_block)
    refs = [task.remote(block, schema, fn, args, cut)
            for block in blocks or [pa.table({})]]
    return ray.data.from_arrow_refs(refs + shard_refs)


def compute_profiles(ds_packed, cfg: EngineConfig):
    """Packed series Dataset -> profile Dataset, in one plan
    (``per_block``): ``_profile_block`` over every packed block serves the
    convs with n ≤ ``cfg.salt_turn_threshold``, and the convs above it are
    strip-sharded (``_profile_shards``). Each
    (conv_id, signal, window_idx) comes from exactly one of the two."""
    return per_block(ds_packed, PROFILE_SCHEMA, _profile_block,
                     cfg.window_size, cfg.ez,
                     shards=(cfg.salt_turn_threshold, _profile_shards(cfg)))


def _profile_shard(tbl: pa.Table, row: int, sig: str, w: int, ez: float,
                   lo: int, hi: int) -> MatrixProfile:
    """One shard's partial profile: row-block strip [lo, hi) of the blocked
    kernel."""
    return blocked_mp(list_cell(tbl, row, sig), w, ez=ez, row_range=(lo, hi))


def _merge_rows(conv_id: str, sig: str, *parts) -> pa.Table:
    # ascending shard order + first-wins ties in merge_min == the
    # single-pass kernel's own tie-breaks (see strip_splits docstring)
    prof = parts[0]
    for part in parts[1:]:
        prof = merge_min(prof, part)
    return profile_to_rows(conv_id, sig, prof)


def _profile_shards(cfg: EngineConfig):
    """``compute_profiles``' shard planner: one heavy conversation's O(n²)
    work split into row-block STRIPS of the blocked kernel per signal
    (bit-identical distances to the single-pass kernel — see
    strip_splits), whose partial profiles min-merge in one reduce task per
    (conv, signal) (the reference's merge contract, its
    R/stomp-par.R:249-264); the packed block goes to the shard tasks by
    reference. Shard COUNT is work-proportional (p² units against the
    ~0.25 s ``SHARD_UNITS`` target, capped at the session's CPUs) so a
    10⁴-turn conv gets ~4 shards and a 10⁵-turn conv saturates the pool
    instead of every conv paying pool-many tiny tasks."""
    w, ez = cfg.window_size, cfg.ez
    zone = exclusion_zone(w, ez)
    pool = session_cpus()
    shard, merge = remote(_profile_shard), remote(_merge_rows)

    def plan(block, row: int, conv_id: str, n: int) -> list:
        if n < 2 * w:
            return []
        p = n - w + 1
        n_shards = int(max(2, min(pool, -(-float(p) * p // SHARD_UNITS))))
        splits = strip_splits(p, zone, n_shards)
        if not splits:
            return []
        return [merge.remote(conv_id, sig, *[
                    shard.remote(block, row, sig, w, ez, lo, hi)
                    for lo, hi in splits]) for sig in SIGNALS]

    return plan
