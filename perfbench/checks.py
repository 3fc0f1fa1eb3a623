"""Output checks: every timed pass is compared against oracles that share no
code with the path under test.

- Tier points (non-gap rows) against ``pipelines.queries.rollup_sql`` run by
  DuckDB over the same transcript Parquet.
- Profile distances of sampled conversations against ``kernels.brute`` at
  atol 2e-5 (rtol 0). Indices are never compared: ties are arbitrary.
  Conversations below the shard cut use ``brute_mp``. The sharded one is
  checked at sampled windows with ``brute_dist_profile``, the same naive
  formula row by row, because ``brute_mp`` on it would hold several
  p x p float64 matrices (1.15 GB each at p = 12k).
- A bitwise ``unpack_series`` round trip of the packed 1m tier.
- The retention store: write/resume statuses, compaction outcome per
  partition, live rows and a scanned column sum against the count of
  ``bucket_ts >= cutoff``, and manifest rows against on-disk rows.

Each ``check_*`` returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

ATOL = 2e-5
TIER_KEY = [("conv_id", "ascending"), ("signal", "ascending"),
            ("bucket_ts", "ascending")]
TIER_VALUES = ("n", "sum_v", "min_v", "max_v", "first_ts", "first_v",
               "last_ts", "last_v", "mean_v")
SIGNALS = ("ts_delta", "text_len", "tool_call")
#: windows of the sharded conversation checked per signal
SHARDED_SAMPLE = 48


def _np(col) -> np.ndarray:
    return col.to_numpy(zero_copy_only=False)


def _over_file(sql: str) -> str:
    """Point an oracle query at the ``tr`` view of the transcript file
    instead of the derivation from the ``events`` table."""
    from tsmp_ray.sources.transcripts import TRANSCRIPTS_FROM_EVENTS_SQL

    if TRANSCRIPTS_FROM_EVENTS_SQL not in sql:
        raise ValueError("oracle SQL no longer reads the transcripts CTE")
    return sql.replace(TRANSCRIPTS_FROM_EVENTS_SQL, "SELECT * FROM tr")


def duckdb_over(path: str):
    import duckdb

    con = duckdb.connect()
    con.execute("SET threads = 1")
    con.read_parquet(path).create_view("tr")
    return con


@dataclass
class EngineOracle:
    tiers: dict[str, pa.Table]
    conv_turns: dict[str, int]
    expected_profile_rows: int
    # (conv_id, signal) -> (window indices, brute-force distances)
    profiles: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]


def engine_oracle(path: str, w: int, ez: float, tiers: tuple[str, ...],
                  shard_cut: int, n_sampled: int, seed: int) -> EngineOracle:
    from tsmp_ray.kernels.brute import brute_dist_profile, brute_mp
    from tsmp_ray.config import exclusion_zone
    from tsmp_ray.pipelines.queries import SIGNALS_SQL, rollup_sql

    con = duckdb_over(path)
    tier_tbls = {t: con.execute(_over_file(rollup_sql(t))).arrow()
                 .sort_by(TIER_KEY) for t in tiers}
    counts = con.execute("SELECT conv_id, count(*) FROM tr GROUP BY 1").fetchall()
    conv_turns = {c: int(n) for c, n in counts}
    expected_rows = sum(3 * (n - w + 1) for n in conv_turns.values()
                        if n >= 2 * w)

    rng = np.random.default_rng(seed)
    small = sorted(c for c, n in conv_turns.items() if 2 * w <= n <= shard_cut)
    big = sorted(c for c, n in conv_turns.items() if n > shard_cut)
    picked = [str(c) for c in rng.choice(small, size=min(n_sampled, len(small)),
                                         replace=False)] + big[:1]
    sig_sql = _over_file(SIGNALS_SQL)
    ids = ", ".join(f"'{c}'" for c in picked)
    sig = con.execute(f"SELECT * FROM ({sig_sql}) WHERE conv_id IN ({ids}) "
                      "ORDER BY conv_id, turn_idx").arrow()
    con.close()

    zone = exclusion_zone(w, ez)
    profiles = {}
    conv = _np(sig["conv_id"])
    for c in picked:
        rows = conv == c
        for s in SIGNALS:
            x = _np(sig[s])[rows].astype(np.float64)
            p = len(x) - w + 1
            if conv_turns[c] <= shard_cut:
                profiles[(c, s)] = (np.arange(p), brute_mp(x, w, ez=ez).mp)
                continue
            idx = np.sort(rng.choice(p, size=SHARDED_SAMPLE, replace=False))
            mp = np.empty(len(idx))
            for k, i in enumerate(idx):
                d = brute_dist_profile(x, x[i:i + w])
                d[max(0, i - zone):i + zone + 1] = np.inf
                mp[k] = d.min()
            profiles[(c, s)] = (idx, mp)
    return EngineOracle(tier_tbls, conv_turns, expected_rows, profiles)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.array_equal(a, b))


def check_tiers(tiers: dict[str, pa.Table], oracle: EngineOracle) -> list[str]:
    bad = []
    for t, want in oracle.tiers.items():
        got = tiers[t].filter(pc.invert(tiers[t]["gap_filled"])).sort_by(TIER_KEY)
        if got.num_rows != want.num_rows:
            bad.append(f"tier {t}: {got.num_rows} points, oracle {want.num_rows}")
            continue
        for col in ("conv_id", "signal", "bucket_ts", *TIER_VALUES):
            if not _same(_np(got[col]), _np(want[col])):
                bad.append(f"tier {t}: column {col} differs from the oracle")
    return bad


def check_profiles(profiles: pa.Table, oracle: EngineOracle) -> list[str]:
    bad = []
    if profiles.num_rows != oracle.expected_profile_rows:
        bad.append(f"profiles: {profiles.num_rows} rows, expected "
                   f"{oracle.expected_profile_rows}")
    convs = sorted({c for c, _ in oracle.profiles})
    sub = profiles.filter(pc.is_in(profiles["conv_id"], pa.array(convs)))
    conv, sig = _np(sub["conv_id"]), _np(sub["signal"])
    widx, mp = _np(sub["window_idx"]), _np(sub["mp"])
    for (c, s), (idx, want) in oracle.profiles.items():
        rows = (conv == c) & (sig == s)
        order = np.argsort(widx[rows], kind="stable")
        got_idx, got = widx[rows][order], mp[rows][order]
        if not _same(got_idx, np.arange(len(got_idx))) or len(got_idx) <= idx[-1]:
            bad.append(f"profiles {c}/{s}: window rows missing")
            continue
        got = got[idx]
        fin = np.isfinite(want)
        if not _same(np.isfinite(got), fin):
            bad.append(f"profiles {c}/{s}: finite mask differs from brute")
        elif not np.allclose(got[fin], want[fin], rtol=0.0, atol=ATOL):
            bad.append(f"profiles {c}/{s}: distance off by "
                       f"{np.abs(got[fin] - want[fin]).max():.3g}")
    return bad


def check_roundtrip(tier_1m: pa.Table, unpacked: pa.Table) -> list[str]:
    got = unpacked.sort_by(TIER_KEY)
    want = tier_1m.sort_by(TIER_KEY)
    if got.num_rows != want.num_rows:
        return [f"unpack: {got.num_rows} points, tier has {want.num_rows}"]
    bad = [f"unpack: column {c} differs" for c in ("conv_id", "signal", "bucket_ts")
           if not _same(_np(got[c]), _np(want[c]))]
    if not _same(_np(got["mean_v"]).view(np.int64), _np(want["mean_v"]).view(np.int64)):
        bad.append("unpack: mean_v not bit-identical")
    return bad


def check_engine_pass(out: dict, oracle: EngineOracle) -> list[str]:
    return (check_tiers(out["tiers"], oracle)
            + check_profiles(out["profiles"], oracle)
            + check_roundtrip(out["tiers"]["1m"], out["unpacked"]))


# ------------------------------------------------------------ retention

@dataclass
class RetentionOracle:
    cutoff: int
    status: dict[str, str] = field(default_factory=dict)
    live_rows: int = 0
    live_n: int = 0


def retention_oracle(tier: pa.Table, part_col: str, cutoff: int) -> RetentionOracle:
    key = _np(tier[part_col])
    b = _np(tier["bucket_ts"])
    live = b >= cutoff
    o = RetentionOracle(cutoff, live_rows=int(live.sum()),
                        live_n=int(_np(tier["n"])[live].sum()))
    for v in np.unique(key):
        rows = key == v
        nl = int(live[rows].sum())
        o.status[f"{part_col}={v}"] = ("unchanged" if nl == rows.sum()
                                       else "emptied" if nl == 0 else "compacted")
    return o


def disk_rows(store: str) -> dict[str, int]:
    out = {}
    for d in sorted(os.listdir(store)):
        p = os.path.join(store, d)
        if os.path.isdir(p):
            out[d] = sum(pq.read_metadata(os.path.join(p, f)).num_rows
                         for f in os.listdir(p) if f.endswith(".parquet"))
    return out


def check_retention_pass(res: dict, store: str, oracle: RetentionOracle) -> list[str]:
    from tsmp_ray.state.lineage import Manifest

    bad = []
    keys = set(oracle.status)
    if res["write"] != {k: "written" for k in keys}:
        bad.append("write: not every partition was written once")
    if res["resume"] != {k: "skipped" for k in keys}:
        bad.append("resume: a partition was rewritten")
    if res["compact"] != oracle.status:
        bad.append("compact: partition outcomes differ from the cutoff")
    if (res["rows"], res["n_sum"]) != (oracle.live_rows, oracle.live_n):
        bad.append(f"read: {res['rows']} rows / sum(n) {res['n_sum']}, expected "
                   f"{oracle.live_rows} / {oracle.live_n}")
    man = {k: e["rows"] for k, e in Manifest(store).data["partitions"].items()}
    on_disk = disk_rows(store)
    if man != on_disk:
        bad.append("manifest rows differ from on-disk rows")
    if sum(man.values()) != oracle.live_rows:
        bad.append("manifest rows differ from the live-row count")
    return bad
