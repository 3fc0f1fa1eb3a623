"""Distributed matrix-profile stage.

Packed per-conversation series rows → long-format profile rows

    (conv_id, signal, w, window_idx, mp, pi, lmp, lpi, rmp, rpi)

One physical plan over the materialized packed Dataset (SURVEY.md §7.3):

- **inline** (every conv with n ≤ ``heavy_cut`` =
  ``EngineConfig.salt_turn_threshold``): ONE task-pool
  ``map_batches(profile_batch)``; rows above the cut are skipped inside the
  kernel, not filtered out. Conv-signals that fit one 256-window block run
  as one batched matmul per chunk (``block_join.blocked_mp_many``), bitwise
  equal to per-series ``blocked_mp``.

- **sharded** (skewed long convs, n > ``heavy_cut``): one conversation's
  O(n²) work is split into row-block STRIPS of the blocked kernel (w ≤ 32)
  or DIAGONAL RANGES of the mpx recurrence and fanned out as Ray tasks —
  the reference's own shard plan (its R/stomp-par.R:102-117 and
  src/mpx.cpp:339-346); partials min-merge
  (stomp-par.R:249-264 via profile_types.merge_min). Raw tasks, because
  the unit of work is a *slice of one conversation*, which a keyed
  shuffle cannot express. No heavy conv → no shard task and no ``union``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import (DEFAULT_EZ, SIGNALS, EngineConfig, exclusion_zone,
                      session_cpus)
from ..kernels.block_join import (auto_profile, blocked_mp, blocked_mp_many,
                                  use_blocked)
from ..kernels.mpx import mpx_diagonals, prepare_series
from ..kernels.profile_types import MatrixProfile, merge_min
from .signals import repeat_labels

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


def profile_to_rows(conv_id: str, signal: str, prof: MatrixProfile) -> pa.Table:
    p = len(prof.mp)
    return pa.table({
        "conv_id": repeat_labels([conv_id], [p]),
        "signal": repeat_labels([signal], [p]),
        "w": pa.array(np.full(p, prof.w, dtype=np.int32)),
        "window_idx": pa.array(np.arange(p, dtype=np.int64)),
        **{k: pa.array(getattr(prof, k)) for k in _VALUE_COLS},
    }, schema=PROFILE_SCHEMA)


class ProfileKernel:
    """Batch callable: packed conv rows -> profile rows (config parsed once
    in ``__init__``, numpy kernels per batch in ``__call__``). Rows with
    more than ``max_turns`` turns are skipped — the sharded path owns them."""

    def __init__(self, window_size: int = 8, ez: float = DEFAULT_EZ,
                 signals: tuple[str, ...] = SIGNALS,
                 max_turns: int | None = None):
        self.w = int(window_size)
        self.ez = float(ez)
        self.signals = signals
        self.max_turns = max_turns

    def _one_profile(self, series: np.ndarray) -> MatrixProfile | None:
        if len(series) < 2 * self.w:
            return None
        return auto_profile(series, self.w, ez=self.ez)

    def __call__(self, batch: pa.Table) -> pa.Table:
        # accumulate numpy parts and build ONE Arrow table per batch: a
        # per-(conv, signal) pa.table + concat_tables costs tens of µs per
        # tiny group (profile kernels there are single-digit µs each)
        keys: list[tuple[str, str]] = []
        series: list[np.ndarray] = []
        for r, conv_id in enumerate(batch["conv_id"].to_pylist()):
            for sig in self.signals:
                # zero-copy-ish: ListScalar.values -> numpy, not .as_py()
                x = (batch[sig][r].values.to_numpy(zero_copy_only=False)
                     .astype(np.float64, copy=False))
                if len(x) < 2 * self.w or (self.max_turns is not None
                                           and len(x) > self.max_turns):
                    continue
                keys.append((conv_id, sig))
                series.append(x)
        if not keys:
            return PROFILE_SCHEMA.empty_table()
        profs = (blocked_mp_many(series, self.w, ez=self.ez)
                 if use_blocked(self.w) else
                 [self._one_profile(x) for x in series])
        lens = [len(prof.mp) for prof in profs]
        return pa.table({
            "conv_id": repeat_labels([k[0] for k in keys], lens),
            "signal": repeat_labels([k[1] for k in keys], lens),
            "w": pa.array(np.full(sum(lens), self.w, dtype=np.int32)),
            "window_idx": pa.array(np.concatenate(
                [np.arange(p, dtype=np.int64) for p in lens])),
            **{k: pa.array(np.concatenate([getattr(prof, k) for prof in profs]))
               for k in _VALUE_COLS},
        }, schema=PROFILE_SCHEMA)


def profile_batch(batch: pa.Table, **kw) -> pa.Table:
    """Stateless per-batch kernel runner (task pool): tasks reuse warm Ray
    workers, so imports and numpy warm-up amortize across the session."""
    return ProfileKernel(**kw)(batch)


#: per-shard work target in window-pair units (p² per conv-signal): sized so
#: a shard is ~0.25 s of kernel compute — big enough to amortize task
#: dispatch, small enough that the last wave never sets the stage wall.
#: Measured single-core: blocked ≈ 464M units/s, mpx ≈ 121M units/s (w=8,
#: n=18000), hence the per-kernel targets.
SHARD_UNITS_BLOCKED = 1.2e8
SHARD_UNITS_MPX = 3.0e7


def _block_meta_impl(tbl):
    # Blocks may be pandas and may be SCHEMA-LESS empties (Ray's sort emits
    # those for empty partitions) — skip them.
    import pandas as pd

    if isinstance(tbl, pd.DataFrame):
        if "conv_id" not in tbl.columns:
            return [], []
        return tbl["conv_id"].tolist(), tbl["n_turns"].tolist()
    if "conv_id" not in tbl.column_names:
        return [], []
    return tbl["conv_id"].to_pylist(), tbl["n_turns"].to_pylist()


_BLOCK_META_REMOTE = None


def _block_meta_task():
    """Cached ``num_cpus=0`` remote wrapper for :func:`_block_meta_impl`
    (zero CPUs: the driver BLOCKS on these tiny planning reads — they must
    never queue behind full CPU slots, a deadlock in small sessions)."""
    global _BLOCK_META_REMOTE
    if _BLOCK_META_REMOTE is None:
        import ray

        _BLOCK_META_REMOTE = ray.remote(num_cpus=0)(_block_meta_impl)
    return _BLOCK_META_REMOTE


def _parallel_block_meta(ds):
    """(conv_id, n_turns) per row for every block of ``ds``, read in ONE
    parallel wave (launch all ``_block_meta`` tasks, single ``ray.get``) —
    the serial per-block round-trip version cost ~20 ms × n_blocks of pure
    driver latency. Returns [(block_ref, conv_ids, n_turns), ...]."""
    import ray

    task = _block_meta_task()
    refs = [br for bundle in ds.iter_internal_ref_bundles()
            for br in bundle.block_refs]
    metas = ray.get([task.remote(r) for r in refs])
    return [(r, cids, nts) for r, (cids, nts) in zip(refs, metas)]


def compute_profiles(ds_packed, cfg: EngineConfig):
    """Packed series Dataset -> profile Dataset, in one plan: a single
    ``map_batches(profile_batch)`` over the materialized packed rows serves
    every conv with n ≤ ``cfg.salt_turn_threshold``; the convs above it are
    planned from one metadata wave over the same blocks and sharded across
    tasks (see ``_sharded_profiles_ds``).
    Each (conv_id, signal, window_idx) comes from exactly one of the two."""
    # one materialization: the map and the shard planner read the same
    # blocks (at 100 TB this is the packed-series parquet checkpoint)
    ds_packed = ds_packed.materialize()
    heavy_cut = cfg.salt_turn_threshold
    profiles = ds_packed.map_batches(
        profile_batch, batch_format="pyarrow", batch_size=None, num_cpus=1,
        fn_kwargs={"window_size": cfg.window_size, "ez": cfg.ez,
                   "max_turns": heavy_cut})
    ds_big = _sharded_profiles_ds(ds_packed, cfg, session_cpus(2), heavy_cut)
    if ds_big is None:
        return profiles
    return profiles.union(ds_big)


def _diag_splits(n: int, w: int, zone: int, n_shards: int) -> list[tuple[int, int]]:
    """Equal-AREA diagonal ranges: diagonal k costs (p-k), so split the
    triangle, not the index range (skew note SURVEY.md §7.4). Planning needs
    only the series LENGTH."""
    p = n - w + 1
    ks = np.arange(zone + 1, p)
    if not len(ks):
        return []
    costs = (p - ks).cumsum()
    edges = np.searchsorted(costs, np.linspace(0, costs[-1], n_shards + 1)[1:-1])
    return [(int(sp[0]), int(sp[-1]) + 1) for sp in np.split(ks, edges) if len(sp)]


def _sharded_profiles_ds(ds_packed, cfg: EngineConfig, pool: int,
                         heavy_cut: int):
    """Strip/diagonal fan-out for the convs with more than ``heavy_cut``
    turns in the MATERIALIZED ``ds_packed``, entirely through the object
    store: the packed blocks are handed to shard tasks by reference, partial
    profiles min-merge in a reduce task per (conv, signal) (the reference's
    merge contract, its R/stomp-par.R:249-264), and the merged
    rows come back via ``from_arrow_refs``. The driver only sees
    (conv_id, n_turns) from one ``_parallel_block_meta`` wave. Returns None
    (no shard task) when no conv is over the cut.

    The shard kernel follows ``block_join.use_blocked``: w ≤ 32 → row-block
    STRIPS of the blocked-BLAS kernel (3.7× the mpx throughput at w=8, and
    bit-identical to the single-pass kernel — see strip_splits); larger w →
    mpx diagonal ranges. Shard COUNT is work-proportional (p² units against
    a per-kernel ~0.25 s target, capped at the pool) so a 10⁴-turn conv gets
    ~4 shards and a 10⁵-turn conv saturates the pool instead of every conv
    paying pool-many tiny tasks.

    Partitioning assumption (100 TB note): the sharded bin must be the SKEW
    TAIL — the driver plans O(#sharded convs) tasks (metadata only, no
    series bytes), so the cut (``salt_turn_threshold``) should
    keep the bin to ~10³-10⁴ convs per driver. At full scale the flagship
    runs per input shard over lineage-partitioned packed parquet, so each
    shard's driver plans only its own tail; convs below the cut stay inside
    the Dataset map path whatever their count."""
    import ray

    from ..kernels.block_join import strip_splits

    zone = exclusion_zone(cfg.window_size, cfg.ez)
    w, ez = cfg.window_size, cfg.ez
    blocked = use_blocked(w)
    target_units = SHARD_UNITS_BLOCKED if blocked else SHARD_UNITS_MPX

    @ray.remote
    def _shard(tbl: pa.Table, row: int, sig: str, lo: int, hi: int):
        series = (tbl[sig][row].values.to_numpy(zero_copy_only=False)
                  .astype(np.float64, copy=False))
        if blocked:
            return blocked_mp(series, w, ez=ez, row_range=(lo, hi))
        state = prepare_series(series, w)
        diags = np.arange(lo, min(hi, state.p), dtype=np.int64)
        return mpx_diagonals(state, diags, ez=ez)

    @ray.remote
    def _merge_rows(conv_id: str, sig: str, *parts):
        # ascending shard order + first-wins ties in merge_min == the
        # single-pass kernel's own tie-breaks (see strip_splits docstring)
        prof = parts[0]
        for part in parts[1:]:
            prof = merge_min(prof, part)
        return profile_to_rows(conv_id, sig, prof)

    table_refs = []
    # planning metadata for ALL blocks in one parallel wave (the serial
    # per-block ray.get added ~20 ms × n_blocks of driver latency)
    for block_ref, conv_ids, n_turns in _parallel_block_meta(ds_packed):
        for row, (cid, n) in enumerate(zip(conv_ids, n_turns)):
            if n <= heavy_cut or n < 2 * w:
                continue
            p = int(n) - w + 1
            n_shards = int(max(2, min(max(2, pool),
                                      -(-float(p) * p // target_units))))
            if blocked:
                splits = strip_splits(p, zone, n_shards)
            else:
                splits = _diag_splits(int(n), w, zone, n_shards)
            for sig in SIGNALS:
                shard_refs = [_shard.remote(block_ref, row, sig, lo, hi)
                              for lo, hi in splits]
                if shard_refs:
                    table_refs.append(_merge_rows.remote(cid, sig, *shard_refs))
    if not table_refs:
        return None
    return ray.data.from_arrow_refs(table_refs)
