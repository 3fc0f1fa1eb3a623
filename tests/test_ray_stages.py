"""Ray Data stage tests: events→transcripts derivation vs DuckDB, signal
derivation + text-equality invariant, tiered rollup vs SQL oracle (incl.
out-of-order ts), tier fold identity, bounded gap-fill, distributed profiles
vs numpy oracle (incl. salted path).
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from tsmp_ray.config import EngineConfig
from tsmp_ray.kernels.stomp import stomp
from tsmp_ray.pipelines.queries import ROLLUP_COLUMNS, gap_fill_sql, rollup_sql
from tsmp_ray.sources.transcripts import (
    TRANSCRIPTS_FROM_EVENTS_SQL, synthetic_transcripts, transcripts_from_events,
)
from tsmp_ray.stages.profile_stage import compute_profiles
from tsmp_ray.stages.rollup import compute_tiers, tiers_from_packed
from tsmp_ray.stages.signals import (
    add_turn_features, conversation_fingerprints, pack_series, unpack_signals,
)

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def duck():
    import duckdb

    con = duckdb.connect()
    for t in ("events",):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    con.execute(f"CREATE VIEW transcripts AS {TRANSCRIPTS_FROM_EVENTS_SQL}")
    return con


def sorted_df(df, keys):
    return df.sort_values(keys).reset_index(drop=True)


def test_transcripts_from_events_matches_sql(ray_session, duck):
    got = transcripts_from_events(SF).to_pandas()
    want = duck.sql("SELECT * FROM transcripts").df()
    got = sorted_df(got, ["conv_id", "turn_idx"])[want.columns.tolist()]
    want = sorted_df(want, ["conv_id", "turn_idx"])
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def _adversarial_events(n_users=40, seed=3):
    """events rows with ts ties inside a user (broken by event_id, which
    runs against file order), single-event users, shuffled."""
    rng = np.random.default_rng(seed)
    sizes = np.where(np.arange(n_users) % 4 == 0, 1,
                     rng.integers(2, 60, n_users))
    user = np.repeat(rng.permutation(n_users) * 7 + 1, sizes)
    n = len(user)
    ts = (1_700_000_000_000_000
          + rng.integers(0, 20, n) * 1_000_000).astype(np.int64)
    types = np.array(["view", "click", "purchase", "search"])
    tbl = pa.table({
        "event_id": pa.array(rng.permutation(n).astype(np.int64)),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array(user.astype(np.int64)),
        "event_type": pa.array(types[rng.integers(0, 4, n)]),
        "value": pa.array(rng.random(n)),
        "props": pa.array([f"p{i}" for i in range(n)]),
    })
    return tbl.take(pa.array(rng.permutation(n)))


@pytest.mark.parametrize("layout", ["row_groups", "files", "empty"])
def test_transcripts_from_events_adversarial_matches_sql(ray_session,
                                                         tmp_path, layout):
    """The block-wide ranking equals the SQL view's window ranking on
    shuffled events split over 16 row groups or 4 files (a user's events
    straddle both), on tied ts and single-event users, and on 0 rows."""
    import duckdb
    import pyarrow.parquet as pq

    tbl = _adversarial_events()
    path = tmp_path / "events.parquet"
    if layout == "files":
        path.mkdir()
        cuts = np.linspace(0, tbl.num_rows, 5).astype(int)
        for i, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
            pq.write_table(tbl.slice(lo, hi - lo), path / f"part-{i}.parquet")
        glob = f"{path}/*.parquet"
    else:
        if layout == "empty":
            tbl = tbl.slice(0, 0)
        pq.write_table(tbl, path, row_group_size=max(tbl.num_rows // 16, 1))
        assert layout == "empty" or pq.ParquetFile(path).num_row_groups >= 16
        glob = str(path)
    got = transcripts_from_events(str(tmp_path)).to_pandas()
    want = duckdb.sql(TRANSCRIPTS_FROM_EVENTS_SQL.replace(
        "FROM events", f"FROM '{glob}'")).df()
    assert len(got) == len(want) == tbl.num_rows
    if len(got):
        keys = ["conv_id", "turn_idx"]
        pd.testing.assert_frame_equal(
            sorted_df(got, keys)[want.columns.tolist()],
            sorted_df(want, keys), check_dtype=False)


def test_text_equality_invariant_under_shuffle(ray_session):
    import ray

    tbl = synthetic_transcripts(n_convs=6, seed=1, mean_turns=60)
    ds = ray.data.from_arrow(tbl)
    fp1 = conversation_fingerprints(ds).to_pandas()
    # a fully reshuffled copy must fingerprint identically (stable order wins)
    perm = np.random.default_rng(0).permutation(tbl.num_rows)
    ds2 = ray.data.from_arrow(tbl.take(pa.array(perm))).random_shuffle(seed=5)
    fp2 = conversation_fingerprints(ds2).to_pandas()
    a = sorted_df(fp1, ["conv_id"])
    b = sorted_df(fp2, ["conv_id"])
    pd.testing.assert_frame_equal(a, b)
    # the digest is the md5 of the turn_idx-ordered texts joined by U+001F
    import hashlib

    one = tbl.to_pandas()
    one = one[one["conv_id"] == a["conv_id"][0]].sort_values("turn_idx")
    assert a["n_turns"][0] == len(one)
    assert a["digest"][0] == hashlib.md5(
        "\x1f".join(one["text"]).encode()).hexdigest()


def _pack_reference(tbl: pa.Table) -> dict:
    """Independent numpy pack: per conv, an argsort by turn_idx and
    ts_delta = diff(ts) with the first value 0."""
    conv = tbl["conv_id"].to_numpy(zero_copy_only=False)
    turn = tbl["turn_idx"].to_numpy().astype(np.int64)
    ts = tbl["ts"].cast(pa.int64()).to_numpy()
    out = {}
    for cid in np.unique(conv):
        rows = np.flatnonzero(conv == cid)
        rows = rows[np.argsort(turn[rows], kind="stable")]
        t = ts[rows]
        out[cid] = {
            "n_turns": len(rows),
            "turn_idx": turn[rows],
            "ts": t,
            "ts_delta": np.concatenate([[0.0], np.diff(t).astype(np.float64)]),
            "text_len": tbl["text_len"].to_numpy()[rows],
            "tool_call": tbl["tool_call"].to_numpy()[rows],
        }
    return out


def _assert_packed_equals_reference(ds, tbl: pa.Table) -> None:
    got = ds.to_pandas()
    # every conversation exactly once: no fragment survives the pack
    assert got["conv_id"].is_unique
    want = _pack_reference(tbl)
    assert sorted(got["conv_id"]) == sorted(want)
    for _, row in got.iterrows():
        ref = want[row["conv_id"]]
        assert row["n_turns"] == ref["n_turns"]
        for col in ("turn_idx", "ts", "ts_delta", "text_len", "tool_call"):
            np.testing.assert_array_equal(np.asarray(row[col]), ref[col],
                                          err_msg=col)


def test_pack_series_equals_numpy_reference(ray_session):
    """The one pack plan (conv_id sort + one vectorized pack per block)
    against an independent numpy pack, on 16 small blocks of a row-shuffled
    input so every sort partition holds several conversations."""
    import ray

    raw = synthetic_transcripts(n_convs=12, seed=7, mean_turns=80)
    ds = ray.data.from_arrow(raw).repartition(16)
    _assert_packed_equals_reference(pack_series(ds), add_turn_features(raw))


def test_pack_series_adversarial_layouts(ray_session):
    """One conversation spread over MANY input blocks, a block holding
    exactly one row, single-turn conversations, and the empty input."""
    import ray

    rng = np.random.default_rng(11)
    # conv A: 64 turns (spread over many 4-row blocks); B/C: 1 turn each;
    # D: 3 turns
    sizes = {"convA": 64, "convB": 1, "convC": 1, "convD": 3}
    conv, turn, ts = [], [], []
    for k, (cid, n) in enumerate(sizes.items()):
        conv += [cid] * n
        turn += list(range(n))
        base = 1_700_000_000_000_000 + 1000 * k
        ts += [base + i * 7_000_000 for i in range(n)]
    n = len(conv)
    tbl = pa.table({
        "conv_id": pa.array(conv),
        "turn_idx": pa.array(turn, pa.int32()),
        "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
        "text_len": pa.array(rng.integers(1, 99, n).astype(np.float64)),
        "tool_call": pa.array((rng.random(n) < 0.5).astype(np.float64)),
    })
    shuffled = tbl.take(pa.array(rng.permutation(n)))
    packed = pack_series(ray.data.from_arrow(shuffled).repartition(17))
    _assert_packed_equals_reference(packed, shuffled)
    # a 1-row block
    one = shuffled.slice(0, 1)
    _assert_packed_equals_reference(pack_series(ray.data.from_arrow(one)), one)
    # empty input
    empty = ray.data.from_arrow(tbl.slice(0, 0))
    assert pack_series(empty).count() == 0


def test_transcripts_from_events_logs_no_schema_hash_failures(
        ray_session, schema_hash_failures):
    """events.parquet carries pandas schema metadata; unless it is dropped
    before the shuffle, Ray logs "Failed to hash the schemas" for it."""
    pack_series(transcripts_from_events(SF)).materialize()
    assert schema_hash_failures.n == 0


@pytest.mark.parametrize("query", ["mpdist_checked", "ab_join_checked"])
def test_pair_checked_queries_log_no_schema_divergence(
        ray_session, schema_divergences, query):
    """The pair oracle rows run the pair stage over every packed conv and
    skip pairs past id 9 inside the pair call; filtering convs before the
    stage's ``sort(pair_id)`` left most blocks empty and schema-less, and
    Ray logged "a RefBundle with a different schema" three times per
    query."""
    from tsmp_ray.pipelines.queries import QUERIES
    from tsmp_ray.stages.mining_stage import _conv_num

    got = QUERIES[query](SF).to_pandas()
    assert len(got) > 0
    assert max(map(_conv_num, got["conv_b"])) < 10
    assert schema_divergences.n == 0


def test_unpacked_signals_values(ray_session):
    import ray

    tbl = synthetic_transcripts(n_convs=3, seed=2, mean_turns=50)
    ds = ray.data.from_arrow(tbl)
    sig = unpack_signals(pack_series(ds)).to_pandas()
    # oracle: pandas per conv
    df = tbl.to_pandas().sort_values(["conv_id", "turn_idx"])
    for conv, g in df.groupby("conv_id"):
        s = sig[sig.conv_id == conv].sort_values("turn_idx")
        assert (s["text_len"].to_numpy() ==
                g["text"].str.len().to_numpy()).all()
        assert (s["tool_call"].to_numpy() ==
                (g["tool"] != "").astype(float).to_numpy()).all()
        ts = g["ts"].astype("int64").to_numpy()
        want = np.concatenate([[0.0], np.diff(ts).astype(float)])
        np.testing.assert_allclose(s["ts_delta"].to_numpy(), want)


ROLLUP_SQL_1M = """
WITH sig AS (
  SELECT conv_id, turn_idx, ts,
         CAST(length(text) AS DOUBLE) AS text_len,
         CAST(tool <> '' AS DOUBLE)   AS tool_call,
         CAST(COALESCE(epoch_us(ts) - lag(epoch_us(ts)) OVER
              (PARTITION BY conv_id ORDER BY turn_idx), 0) AS DOUBLE) AS ts_delta
  FROM transcripts
), long AS (
  SELECT conv_id, ts, 'ts_delta' AS signal, ts_delta AS v FROM sig
  UNION ALL
  SELECT conv_id, ts, 'text_len', text_len FROM sig
  UNION ALL
  SELECT conv_id, ts, 'tool_call', tool_call FROM sig
)
SELECT conv_id, signal,
       (epoch_us(ts) // 60000000) * 60000000 AS bucket_ts,
       count(*) AS n, sum(v) AS sum_v, min(v) AS min_v, max(v) AS max_v,
       sum(v*v) AS sumsq,
       min(epoch_us(ts)) AS first_ts, arg_min(v, epoch_us(ts)) AS first_v,
       max(epoch_us(ts)) AS last_ts,  arg_max(v, epoch_us(ts)) AS last_v,
       sum(v) / count(*) AS mean_v
FROM long
GROUP BY 1, 2, 3
"""


def test_rollup_1m_matches_duckdb(ray_session, duck):
    packed = pack_series(transcripts_from_events(SF))
    got = tiers_from_packed(packed, tiers=("1m",), gap_fill=False,
                            max_gap=None)["1m"]
    got = got.to_pandas()
    want = duck.sql(ROLLUP_SQL_1M).df()
    keys = ["conv_id", "signal", "bucket_ts"]
    got = sorted_df(got.drop(columns=["gap_filled"]), keys)
    want = sorted_df(want, keys)[got.columns.tolist()]
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_tier_fold_identity(ray_session):
    """1h-from-1m partials == 1h-from-raw (continuous-aggregate property)."""
    import ray

    tbl = synthetic_transcripts(n_convs=5, seed=3, mean_turns=120)
    packed = pack_series(ray.data.from_arrow(tbl)).materialize()
    via_1m = tiers_from_packed(packed, tiers=("1m", "1h"), gap_fill=False,
                               max_gap=None)["1h"].to_pandas()
    direct = tiers_from_packed(packed, tiers=("1h",), gap_fill=False,
                               max_gap=None)["1h"].to_pandas()
    assert len(direct) > 0
    keys = ["conv_id", "signal", "bucket_ts"]
    pd.testing.assert_frame_equal(sorted_df(via_1m, keys), sorted_df(direct, keys))


def test_gap_fill(ray_session):
    import ray

    # synthetic generator injects a 2h gap mid-conv -> 1m tier must fill
    tbl = synthetic_transcripts(n_convs=2, seed=4, mean_turns=100)
    packed = pack_series(ray.data.from_arrow(tbl))
    filled = tiers_from_packed(packed, tiers=("1m",), gap_fill=True,
                               max_gap=None)["1m"].to_pandas()
    g = filled[(filled.conv_id == filled.conv_id.iloc[0]) &
               (filled.signal == "text_len")].sort_values("bucket_ts")
    bts = g["bucket_ts"].to_numpy()
    assert (np.diff(bts) == 60_000_000).all(), "buckets contiguous after fill"
    gaps = g[g.gap_filled]
    assert len(gaps) > 0
    assert (gaps["n"] == 0).all()
    # interpolated means lie between the surrounding real means
    real = g[~g.gap_filled]["mean_v"]
    assert gaps["mean_v"].between(real.min() - 1e-9, real.max() + 1e-9).all()


def test_distributed_profiles_match_oracle(ray_session):
    import ray

    tbl = synthetic_transcripts(n_convs=4, seed=6, mean_turns=80)
    cfg = EngineConfig(window_size=8, salt_turn_threshold=10_000)
    packed = pack_series(ray.data.from_arrow(tbl))
    prof = compute_profiles(packed, cfg).to_pandas()
    # oracle: per conv/signal numpy stomp on the stably ordered series
    df = tbl.to_pandas().sort_values(["conv_id", "turn_idx"])
    checked = 0
    for conv, g in df.groupby("conv_id"):
        series = g["text"].str.len().to_numpy().astype(float)
        if len(series) < 16:
            continue
        want = stomp(series, 8)
        got = prof[(prof.conv_id == conv) & (prof.signal == "text_len")]
        got = got.sort_values("window_idx")
        np.testing.assert_allclose(got["mp"].to_numpy(), want.mp, atol=2e-5)
        np.testing.assert_allclose(got["rmp"].to_numpy(), want.rmp, atol=2e-5)
        checked += 1
    assert checked >= 3


def test_salted_path_equals_inline(ray_session):
    import ray

    tbl = synthetic_transcripts(n_convs=3, seed=7, mean_turns=60,
                                long_conv_turns=900)
    packed = pack_series(ray.data.from_arrow(tbl))
    inline = compute_profiles(
        packed, EngineConfig(window_size=8, salt_turn_threshold=10_000)
    ).to_pandas()
    salted = compute_profiles(
        packed, EngineConfig(window_size=8, salt_turn_threshold=500)
    ).to_pandas()
    keys = ["conv_id", "signal", "window_idx"]
    a = sorted_df(inline, keys)
    b = sorted_df(salted, keys)
    assert len(a) > 0  # two empty frames would compare equal vacuously
    np.testing.assert_allclose(a["mp"].to_numpy(), b["mp"].to_numpy(), atol=2e-5)
    np.testing.assert_allclose(a["rmp"].to_numpy(), b["rmp"].to_numpy(), atol=2e-5)
    np.testing.assert_allclose(a["lmp"].to_numpy(), b["lmp"].to_numpy(), atol=2e-5)


def test_salted_path_equals_inline_large_window_bitwise(ray_session):
    """Same salted-vs-inline parity at a large window (w=40), where the
    shard path still runs blocked strips: snapped to the kernel's block
    grid, their merged distances are bit-equal to the single pass (the
    ``strip_splits`` contract)."""
    import ray

    tbl = synthetic_transcripts(n_convs=2, seed=11, mean_turns=60,
                                long_conv_turns=700)
    packed = pack_series(ray.data.from_arrow(tbl))
    inline = compute_profiles(
        packed, EngineConfig(window_size=40, salt_turn_threshold=10_000)
    ).to_pandas()
    salted = compute_profiles(
        packed, EngineConfig(window_size=40, salt_turn_threshold=300)
    ).to_pandas()
    keys = ["conv_id", "signal", "window_idx"]
    a = sorted_df(inline, keys)
    b = sorted_df(salted, keys)
    assert len(a) == len(b) and len(a) > 0
    assert (a[keys].to_numpy() == b[keys].to_numpy()).all()
    for col in ["mp", "lmp", "rmp"]:
        np.testing.assert_array_equal(a[col].to_numpy(), b[col].to_numpy(),
                                      err_msg=col)


def test_sharded_mstomp_equals_single_task(ray_session):
    """compute_mstomp's index-range shard path (mstomp_par analog,
    /root/reference/R/mstomp-par.R:110-127) == the one-task-per-conv path."""
    import ray

    from tsmp_ray.stages.mining_stage import compute_mstomp

    tbl = synthetic_transcripts(n_convs=3, seed=9, mean_turns=60,
                                long_conv_turns=900)
    packed = pack_series(ray.data.from_arrow(tbl))
    inline = compute_mstomp(
        packed, EngineConfig(window_size=8, salt_turn_threshold=10_000)
    ).to_pandas()
    sharded = compute_mstomp(
        packed, EngineConfig(window_size=8, salt_turn_threshold=500)
    ).to_pandas()
    keys = ["conv_id", "k_dim", "window_idx"]
    a = sorted_df(inline, keys)
    b = sorted_df(sharded, keys)
    assert len(a) == len(b) and len(a) > 0
    for col in ["mp", "lmp", "rmp"]:
        np.testing.assert_allclose(a[col].to_numpy(), b[col].to_numpy(),
                                   atol=2e-5)
    # indices may legitimately differ only at numeric ties (FFT-seeded vs
    # recurrence-propagated QT rounding flips argmin between equidistant
    # candidates) — so any index mismatch must sit on a matching distance,
    # and mismatches must be rare
    for icol, dcol in (("pi", "mp"), ("lpi", "lmp"), ("rpi", "rmp")):
        ia, ib = a[icol].to_numpy(), b[icol].to_numpy()
        diff = ia != ib
        assert diff.mean() < 0.02, (icol, int(diff.sum()))
        np.testing.assert_allclose(a[dcol].to_numpy()[diff],
                                   b[dcol].to_numpy()[diff], atol=2e-5)


def test_conv_pair_stage_pairs_and_values(ray_session):
    """conv_pair_stage pairs c<2k> with c<2k+1> and the pair ops reproduce
    the direct kernel calls."""
    import ray

    from tsmp_ray.kernels.mining import mpdist
    from tsmp_ray.stages.mining_stage import (
        abjoin_pair_op, conv_pair_stage, mpdist_pair_op,
    )

    tbl = synthetic_transcripts(n_convs=5, seed=4, mean_turns=80)
    packed = pack_series(ray.data.from_arrow(tbl))
    w = 8

    out = conv_pair_stage(packed, mpdist_pair_op, {"w": w}).to_pandas()
    # numeric suffixes 0..4 → pairs (0,1), (2,3); 4 has no partner
    got_pairs = set(zip(out["conv_a"], out["conv_b"]))
    from tsmp_ray.stages.mining_stage import _conv_num
    df = tbl.to_pandas()
    series = {}
    for conv, g in df.sort_values(["conv_id", "turn_idx"]).groupby("conv_id"):
        series[conv] = g["text"].str.len().to_numpy().astype(np.float64)
    by_num = {_conv_num(c): c for c in series}
    nums = sorted(by_num)
    want_pairs = {(by_num[a], by_num[a + 1]) for a in nums[::2]
                  if a + 1 in by_num
                  and len(series[by_num[a]]) >= 2 * w
                  and len(series[by_num[a + 1]]) >= 2 * w}
    assert got_pairs == want_pairs and len(got_pairs) >= 1
    for _, r in out.iterrows():
        want = mpdist(series[r["conv_a"]], series[r["conv_b"]], w)
        assert abs(r["mpdist"] - want) < 1e-9

    ab = conv_pair_stage(packed, abjoin_pair_op, {"w": w}).to_pandas()
    assert set(ab["orientation"]) == {"ab", "ba"}
    from tsmp_ray.kernels.block_join import blocked_mp
    one = ab[(ab["conv_a"] == sorted(got_pairs)[0][0])
             & (ab["orientation"] == "ab")].sort_values("window_idx")
    a_id, b_id = sorted(got_pairs)[0]
    prof = blocked_mp(series[a_id], w, query=series[b_id])
    np.testing.assert_allclose(one["mp"].to_numpy(), prof.mp, atol=1e-9)



def _required_kwargs(fn) -> dict:
    """A mining op's required keyword options at the catalog's values."""
    import inspect

    values = {"w": 8, "wmin": 6, "wmax": 12, "windows": [6, 8, 10, 12],
              "s_size": 16, "shipped": {}}
    return {name: values[name]
            for name, p in inspect.signature(fn).parameters.items()
            if p.kind is p.KEYWORD_ONLY and p.default is p.empty}


_NOTHING_BACK = ["all_short", "filtered_out", "limit_0", "from_arrow_0_rows"]


def _nothing_back_input(rows: str):
    """Six packed conversations all shorter than 2w at w = 8, or no rows at
    all: filtered out, limited to 0, or one present-but-empty block."""
    import ray

    tbl = synthetic_transcripts(n_convs=6, seed=5, mean_turns=8, max_turns=15)
    packed = pack_series(ray.data.from_arrow(tbl)).materialize()
    assert packed.to_pandas()["n_turns"].max() < 16  # < 2w at w = 8
    zero_rows = ray.get(packed.to_arrow_refs())[0].slice(0, 0)
    return {"all_short": packed,
            "filtered_out": packed.filter(expr="n_turns > 1000"),
            "limit_0": packed.limit(0),
            "from_arrow_0_rows": ray.data.from_arrow(zero_rows)}[rows]


@pytest.mark.parametrize("rows", _NOTHING_BACK)
def test_mining_stages_emit_declared_schema_when_nothing_comes_back(
        ray_session, schema_divergences, rows):
    """Every op through its stage (per-conv ops through per_conv_stage,
    pair ops through conv_pair_stage), compute_profiles and compute_mstomp
    give 0 rows with exactly the declared schema, and Ray logs no schema
    divergence, when every conversation is shorter than 2w (every op call
    returns nothing), when the input has no rows at all, and when it is
    one present-but-empty packed block."""
    from tsmp_ray.stages import mining_stage as ms
    from tsmp_ray.stages.profile_stage import PROFILE_SCHEMA

    packed = _nothing_back_input(rows)
    ops = [f for f in vars(ms).values()
           if isinstance(getattr(f, "schema", None), pa.Schema)]
    assert len(ops) == 24
    cfg = EngineConfig(window_size=8)
    runs = [(fn.__name__, fn.schema,
             (ms.conv_pair_stage if "conv_a" in fn.schema.names
              else ms.per_conv_stage)(packed, fn, _required_kwargs(fn)))
            for fn in ops]
    runs += [("compute_profiles", PROFILE_SCHEMA,
              compute_profiles(packed, cfg)),
             ("compute_mstomp", ms.mstomp_op.schema,
              ms.compute_mstomp(packed, cfg))]
    for name, schema, out in runs:
        out = out.materialize()
        assert out.count() == 0, name
        assert out.schema().base_schema == schema, name
    assert schema_divergences.n == 0


@pytest.mark.parametrize("rows", _NOTHING_BACK)
def test_floss_and_registered_kernel_emit_declared_schema(
        ray_session, schema_divergences, rows):
    """``floss_op`` through per_conv_stage carries exactly its declared
    schema with no schema divergence on the same inputs: 0 rows with no
    input rows, and on short conversations one row per conversation with
    no segment."""
    from tsmp_ray.stages.floss_stage import floss_op
    from tsmp_ray.stages.mining_stage import per_conv_stage

    packed = _nothing_back_input(rows)
    n_convs = packed.count()
    floss = per_conv_stage(packed, floss_op, {"w": 8, "data_window": 60,
                                              "threshold": 0.6}).materialize()
    assert floss.schema().base_schema == floss_op.schema
    assert floss.count() == n_convs
    assert (rows == "all_short") == (n_convs > 0)
    if n_convs:
        assert set(floss.to_pandas()["n_segments"]) == {0}
    assert schema_divergences.n == 0

def test_checked_ops_gate_production_kernels(ray_session):
    """The profiles gate passes on a real ``compute_profiles`` run that
    takes both its block and its strip-shard path, and raises once that
    run's profile is poisoned or a conv is missing from it; the
    distprof/stompi _checked ops run green on the same packed data."""
    import ray

    from tsmp_ray.pipelines.queries import _oracle_signal_profiles
    from tsmp_ray.stages.mining_stage import (
        distprof_checked_op, per_conv_stage, profiles_checked_op,
        stompi_checked_op,
    )

    tbl = synthetic_transcripts(n_convs=4, seed=11, mean_turns=100)
    packed = pack_series(ray.data.from_arrow(tbl)).materialize()
    turns = sorted(packed.to_pandas()["n_turns"])
    # a cut between the shortest and the longest conv: both paths run
    cfg = EngineConfig(window_size=8, salt_turn_threshold=turns[1])
    assert turns[0] <= cfg.salt_turn_threshold < turns[-1]
    shipped = _oracle_signal_profiles(compute_profiles(packed, cfg))
    kw = {"w": 8, "shipped": shipped}
    prof = per_conv_stage(packed, profiles_checked_op, kw).to_pandas()
    dp = per_conv_stage(packed, distprof_checked_op, {"w": 8}).to_pandas()
    st = per_conv_stage(packed, stompi_checked_op, {"w": 8}).to_pandas()
    assert len(prof) > 0 and len(dp) > 0 and len(st) > 0
    # stompi emits the same oracle-order values as profiles_checked (on the
    # convs long enough for both: stompi needs ≥ 4w, profile ≥ 2w)
    prof_c = prof[prof["conv_id"].isin(set(st["conv_id"]))]
    pd.testing.assert_frame_equal(
        prof_c.sort_values(["conv_id", "window_idx"]).reset_index(drop=True),
        st.sort_values(["conv_id", "window_idx"]).reset_index(drop=True))

    # the GATE's own AssertionError must raise — a bare Exception match
    # would also pass on e.g. a TypeError from a renamed kwarg, leaving the
    # gate silently un-exercised
    moved = {cid: (idx, mp + 0.01) for cid, (idx, mp) in shipped.items()}
    missing = dict(list(shipped.items())[1:])
    for bad in (moved, missing):
        with pytest.raises(Exception, match="deviates"):
            per_conv_stage(packed, profiles_checked_op,
                           dict(kw, shipped=bad)).to_pandas()


def test_profile_kernel_batched_emit_equals_per_conv():
    """The profile block function's one-table-per-block accumulation must
    equal the per-conv profile_to_rows concat exactly — including a
    too-short conv skipped mid-block — and an all-short block must come out
    empty with the stable schema. Pure local (no Ray)."""
    from tsmp_ray.config import DEFAULT_EZ, SIGNALS
    from tsmp_ray.kernels.block_join import blocked_mp
    from tsmp_ray.stages.profile_stage import (PROFILE_SCHEMA, _profile_block,
                                               profile_to_rows)

    rng = np.random.default_rng(3)
    w = 8
    lengths = [40, 9, 55]  # middle conv < 2w -> skipped
    series = {cid: {sig: rng.integers(0, 50, n).astype(float)
                    for sig in SIGNALS}
              for cid, n in zip(["c0", "c1", "c2"], lengths)}
    batch = pa.table({
        "conv_id": pa.array(list(series)),
        **{sig: pa.array([series[c][sig] for c in series],
                         type=pa.list_(pa.float64()))
           for sig in SIGNALS},
    })
    got = _profile_block(batch, w, DEFAULT_EZ)
    want = pa.concat_tables(
        [profile_to_rows(cid, sig, blocked_mp(series[cid][sig], w,
                                              ez=DEFAULT_EZ))
         for cid in ("c0", "c2") for sig in SIGNALS])
    assert got.schema.equals(PROFILE_SCHEMA)
    assert got.equals(want)

    empty = _profile_block(batch.filter(pa.array([False, True, False])), w,
                           DEFAULT_EZ)
    assert empty.num_rows == 0 and empty.schema.equals(PROFILE_SCHEMA)


def test_blocked_mp_many_bitwise_equals_block_loop():
    """The batched short-series kernel (one matmul per chunk of one-block
    series) must equal blocked_mp's block loop BITWISE on all six arrays,
    pi included. ``row_range=(0, p)`` forces the loop, the independent
    implementation; the plain call must agree too. The ragged batch holds
    NaN, flat runs, tie-heavy integer walks, a 1e9 offset, an all-flat
    series and p = 255/256/257 at the block edge. Pure local (no Ray)."""
    from tsmp_ray.kernels.block_join import blocked_mp, blocked_mp_many

    rng = np.random.default_rng(12)
    w = 8
    series = []
    for k, n in enumerate(rng.integers(2 * w, 200, 60)):
        x = rng.standard_normal(n)
        if k % 5 == 1:
            x = np.cumsum(rng.integers(-1, 2, n)).astype(float)
        elif k % 5 == 2:
            x = x + 1e9
        elif k % 5 == 3:
            x[rng.integers(0, n, 2)] = np.nan
            x[n // 3: n // 3 + w + 2] = 3.0
        elif k % 5 == 4:
            x = rng.integers(0, 3, n).astype(float)
        series.append(x)
    series.append(np.full(30, 7.0))
    series += [rng.integers(0, 3, p + w - 1).astype(float)
               for p in (255, 256, 257)]
    got = blocked_mp_many(series, w)
    assert len(got) == len(series)
    for x, prof in zip(series, got):
        p = len(x) - w + 1
        for want in (blocked_mp(x, w, row_range=(0, p)), blocked_mp(x, w)):
            for f in ("mp", "pi", "lmp", "lpi", "rmp", "rpi"):
                a, b = getattr(prof, f), getattr(want, f)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), \
                    (len(x), f)
    assert np.isinf(got[-4].mp).all() and (got[-4].pi == -1).all()


def _mixed_length_packed():
    """Packed rows of short convs, one mid conv (290 turns: > 256 windows at
    w=8) and one heavy conv (700 turns, prefixed 'h')."""
    import ray

    short = synthetic_transcripts(n_convs=4, seed=13, mean_turns=60,
                                  max_turns=120, long_conv_turns=290)
    heavy = synthetic_transcripts(n_convs=1, seed=14, mean_turns=60,
                                  long_conv_turns=700)
    heavy = heavy.set_column(
        heavy.schema.get_field_index("conv_id"), "conv_id",
        pa.array(["h" + c for c in heavy["conv_id"].to_pylist()]))
    packed = pack_series(ray.data.from_arrow(pa.concat_tables([short, heavy])))
    return packed.materialize()


def test_profile_plan_emits_each_row_once(ray_session):
    """With salt_turn_threshold=300 (< 512, the old duplicate-row hazard)
    every (conv_id, signal, window_idx) of short, mid and heavy convs comes
    out exactly once, and the values equal the all-inline config."""
    packed = _mixed_length_packed()
    n_turns = packed.to_pandas()["n_turns"].to_numpy()
    assert n_turns.max() > 300 and ((n_turns > 263) & (n_turns <= 300)).any()
    keys = ["conv_id", "signal", "window_idx"]
    inline = compute_profiles(
        packed, EngineConfig(window_size=8, salt_turn_threshold=10_000)
    ).to_pandas()
    salted = compute_profiles(
        packed, EngineConfig(window_size=8, salt_turn_threshold=300)
    ).to_pandas()
    want_rows = 3 * int(sum(n - 7 for n in n_turns if n >= 16))
    for df in (inline, salted):
        assert len(df) == want_rows
        assert not df.duplicated(keys).any()
    a, b = sorted_df(inline, keys), sorted_df(salted, keys)
    assert (a[keys].to_numpy() == b[keys].to_numpy()).all()
    for col in ("mp", "lmp", "rmp"):
        np.testing.assert_allclose(a[col].to_numpy(), b[col].to_numpy(),
                                   atol=2e-5)


def test_no_heavy_conv_starts_no_shard_task(ray_session):
    """``per_block`` calls the shard planner for no conv (no shard task)
    when no conv is over the cut, and plans exactly the heavy conv when one
    is; the planned shards give every row of that conv."""
    from tsmp_ray.stages.profile_stage import (PROFILE_SCHEMA,
                                               _profile_shards, per_block)

    packed = _mixed_length_packed()
    cfg = EngineConfig(window_size=8)
    strips, planned = _profile_shards(cfg), []
    empty = PROFILE_SCHEMA.empty_table()

    def no_profiles(tbl):
        return empty

    def spy(block, row, conv_id, n):
        planned.append((conv_id, n))
        return strips(block, row, conv_id, n)

    none = per_block(packed, PROFILE_SCHEMA, no_profiles,
                     shards=(10_000, spy))
    assert planned == [] and none.count() == 0
    heavy = per_block(packed, PROFILE_SCHEMA, no_profiles,
                      shards=(300, spy)).to_pandas()
    assert planned == [("hconv000000", 700)]
    assert set(heavy["conv_id"]) == {"hconv000000"}
    assert len(heavy) == 3 * (700 - 7)


def test_per_conv_stages_share_one_block_plan():
    """One plan for the per-conversation stages: the profile and mining
    stage modules union nothing and type no empty block on the side
    (``per_block`` gives every output its schema), FLOSS starts no batch
    map or actor pool, and only the profile stage reads the
    heavy-conversation metadata wave."""
    import pathlib
    import re

    pkg = pathlib.Path(__file__).resolve().parent.parent / "tsmp_ray"
    stages = pkg / "stages"
    hits = [f"{path.name}:{i}: {line.strip()}"
            for path in (stages / "profile_stage.py",
                         stages / "mining_stage.py")
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"\.union\(|_typed", line)]
    # FLOSS is an op on per_conv_stage: no batch plan or actor pool of its
    # own
    path = stages / "floss_stage.py"
    hits += [f"{path.name}:{i}: {line.strip()}"
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if re.search(r"map_batches\(|concurrency=", line)]
    hits += [f"{path.relative_to(pkg)}:{i}: {line.strip()}"
             for path in sorted(pkg.rglob("*.py"))
             if path != stages / "profile_stage.py"
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if "_parallel_block_meta" in line]
    assert not hits, "\n".join(hits)


def test_compute_mstomp_mixed_lengths_each_row_once(ray_session):
    """compute_mstomp's one plan (inline op skips convs over the threshold,
    the shard path takes them) emits every (conv_id, k_dim, window_idx)
    exactly once for short, mid and heavy convs."""
    from tsmp_ray.stages.mining_stage import compute_mstomp

    packed = _mixed_length_packed()
    df = packed.to_pandas()
    out = compute_mstomp(
        packed, EngineConfig(window_size=8, salt_turn_threshold=300)).to_pandas()
    keys = ["conv_id", "k_dim", "window_idx"]
    assert not out.duplicated(keys).any()
    for cid, n in zip(df["conv_id"], df["n_turns"]):
        got = out[out.conv_id == cid]
        assert len(got) == (3 * (n - 7) if n >= 16 else 0), cid
        if n >= 16:
            assert set(got["window_idx"]) == set(range(n - 7))


def test_tiers_from_packed_matches_duckdb(ray_session, duck):
    """The shipped rollup against the SQL oracles at SF: the real (non-gap)
    rows of every tier equal ``rollup_sql(tier)``, and with ``max_gap=None``
    the 1h and 1d tiers, gap rows included, equal ``gap_fill_sql(tier)``."""
    packed = pack_series(transcripts_from_events(SF)).materialize()
    cfg = EngineConfig(window_size=8)
    keys = ["conv_id", "signal", "bucket_ts"]
    shipped = compute_tiers(packed, cfg)
    for tier in ("1m", "1h", "1d"):
        got = shipped[tier].to_pandas()
        got = sorted_df(got[~got.gap_filled][ROLLUP_COLUMNS], keys)
        want = sorted_df(duck.sql(rollup_sql(tier)).df()[ROLLUP_COLUMNS], keys)
        assert len(got) > 0
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)
    filled = tiers_from_packed(packed, tiers=("1h", "1d"), gap_fill=True,
                               max_gap=None)
    for tier in ("1h", "1d"):
        want = sorted_df(duck.sql(gap_fill_sql(tier)).df(), keys)
        got = sorted_df(filled[tier].to_pandas()[want.columns.tolist()], keys)
        assert want["gap_filled"].any()
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_tiers_from_packed_sorts_disordered_ts(ray_session, caplog):
    """A conversation whose ts is not ascending in turn_idx (its ts values
    shuffled across its turns) is stably sorted per conversation: the 1m
    tier equals the DuckDB oracle exactly, where a bare run-boundary
    bucketing would emit duplicate buckets. The sort is loud: one
    ``tsmp_ray`` warning counting the one disordered conversation, and
    none for the same input in order."""
    import duckdb
    import ray

    tbl = synthetic_transcripts(n_convs=3, seed=12, mean_turns=80)
    df = tbl.to_pandas()
    conv = sorted(df["conv_id"].unique())[1]
    rows = np.flatnonzero(df["conv_id"].to_numpy() == conv)
    ts = df["ts"].to_numpy()
    ts[rows] = ts[np.random.default_rng(7).permutation(rows)]
    df["ts"] = ts
    shuffled = pa.Table.from_pandas(df, schema=tbl.schema,
                                    preserve_index=False)
    assert not df[df.conv_id == conv].sort_values("turn_idx")[
        "ts"].is_monotonic_increasing

    warned = lambda: [r.getMessage() for r in caplog.records
                      if r.name == "tsmp_ray"]
    with caplog.at_level("WARNING", logger="tsmp_ray"):
        tiers_from_packed(pack_series(ray.data.from_arrow(tbl)),
                          tiers=("1m",), gap_fill=False, max_gap=None)
        assert warned() == []
        packed = pack_series(ray.data.from_arrow(shuffled))
        got = tiers_from_packed(packed, tiers=("1m",), gap_fill=False,
                                max_gap=None)["1m"]
    assert len(warned()) == 1
    assert warned()[0].startswith("rollup.tiers_from_packed: 1 conversation")
    con = duckdb.connect()
    con.register("transcripts", shuffled)
    keys = ["conv_id", "signal", "bucket_ts"]
    want = sorted_df(con.sql(ROLLUP_SQL_1M).df()[ROLLUP_COLUMNS], keys)
    got = sorted_df(got.to_pandas()[ROLLUP_COLUMNS], keys)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


def test_gap_fill_respects_max_gap(ray_session):
    """``max_gap`` bounds interpolation: a gap of exactly ``max_gap``
    buckets is filled, one bucket wider is left open."""
    import ray

    cfg = EngineConfig()
    mg, minute = cfg.gap_fill_max_buckets, 60_000_000
    t0 = 1_704_067_200_000_000
    # "near": buckets 0, 1 then 1 + mg; "far": buckets 0, 1 then 2 + mg
    spans = {"conv000000": [0, 1, 1 + mg], "conv000001": [0, 1, 2 + mg]}
    rows = [(c, i, t0 + m * minute) for c, ms in spans.items()
            for i, m in enumerate(ms)]
    tbl = pa.table({
        "conv_id": [r[0] for r in rows],
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "text": ["abc"] * len(rows), "tool": [""] * len(rows),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
    })
    packed = pack_series(ray.data.from_arrow(tbl))
    t1m = tiers_from_packed(packed, tiers=("1m",), gap_fill=True,
                            max_gap=mg)["1m"].to_pandas()
    gaps = t1m[t1m.gap_filled]
    assert set(gaps["conv_id"]) == {"conv000000"}
    for sig, g in gaps.groupby("signal"):
        want = t0 + np.arange(2, 1 + mg) * minute
        np.testing.assert_array_equal(np.sort(g["bucket_ts"].to_numpy()),
                                      want, err_msg=sig)
        assert (g["n"] == 0).all()
    assert set(gaps["signal"]) == {"ts_delta", "text_len", "tool_call"}
    assert (t1m[~t1m.gap_filled].groupby("conv_id").size() == 3 * 3).all()


def test_review_guards():
    """Loud-failure guards added in the round-5 review pass: unordered tier
    tuples, conv ids without a numeric pairing suffix, and FLOSS chunks
    that outrun the CAC window (each previously a silent wrong answer)."""
    from tsmp_ray.stages.floss_stage import FlossState
    from tsmp_ray.stages.mining_stage import _conv_num
    from tsmp_ray.stages.rollup import tiers_from_packed

    # tiers must widen and nest — validated before any Dataset work
    with pytest.raises(ValueError, match="ascending"):
        tiers_from_packed(None, tiers=("1h", "1m"), gap_fill=True,
                          max_gap=None)

    assert _conv_num("conv000042") == 42
    with pytest.raises(ValueError, match="numeric suffix"):
        _conv_num("alpha")

    st = FlossState(w=8, data_window=40)  # CAC window = 33
    with pytest.raises(ValueError, match="CAC window"):
        st.append(np.arange(200, dtype=np.float64), chunk=50)
