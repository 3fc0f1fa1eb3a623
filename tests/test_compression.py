"""Bit-exact round-trip tests for delta-of-delta timestamp and Gorilla XOR
float64 codecs (FIXTURES.md F3 packed_series), plus the Ray pack/unpack stage."""

import numpy as np
import pyarrow as pa
import pytest

from tsmp_ray.stages.compression import (
    decode_gorilla, decode_timestamps, encode_gorilla, encode_timestamps,
)


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(np.asarray(a, dtype=np.float64).view(np.uint64),
                          np.asarray(b, dtype=np.float64).view(np.uint64))


@pytest.mark.parametrize("ts", [
    np.array([], dtype=np.int64),
    np.array([1_700_000_000_000_000], dtype=np.int64),
    np.arange(0, 100) * 60_000_000 + 1_700_000_000_000_000,      # regular 1m
    np.array([0, 1, 3, 6, 10, 10**15, 10**15 + 5], dtype=np.int64),  # wild gaps
])
def test_timestamp_roundtrip(ts):
    assert np.array_equal(decode_timestamps(encode_timestamps(ts)), ts)


def test_pack_codes_matches_sequential_bitwriter():
    """_pack_codes documents itself as bit-identical to the sequential
    _BitWriter stream — keep that claim checkable (and the reference encoder
    exercised) instead of letting the sequential path rot as dead code."""
    from tsmp_ray.stages.compression import _BitWriter, _pack_codes

    rng = np.random.default_rng(5)
    for n in (0, 1, 7, 1000, 40_000):  # 40k spans many CH=4096-item chunks
        widths = rng.integers(0, 65, size=n)
        codes = np.array(
            [rng.integers(0, 1 << int(w), dtype=np.uint64, endpoint=False)
             if w else 0 for w in widths], dtype=np.uint64)
        wr = _BitWriter()
        for c, w in zip(codes.tolist(), widths.tolist()):
            wr.write(int(c), int(w))
        assert _pack_codes(codes, widths) == wr.bytes()


def test_timestamp_roundtrip_random_and_compression_ratio():
    rng = np.random.default_rng(0)
    base = np.cumsum(rng.integers(1, 10**7, size=5000))
    assert np.array_equal(decode_timestamps(encode_timestamps(base)), base)
    # near-regular cadence compresses well (dod ~ 0)
    regular = np.arange(5000, dtype=np.int64) * 60_000_000
    jitter = regular + rng.integers(-30, 30, size=5000)
    enc = encode_timestamps(jitter)
    assert len(enc) < 0.35 * jitter.nbytes
    assert np.array_equal(decode_timestamps(enc), jitter)


@pytest.mark.parametrize("vals", [
    np.array([]),
    np.array([3.14]),
    np.array([1.0, 1.0, 1.0, 1.0]),
    np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.7e308]),
    np.linspace(-1000, 1000, 777),
])
def test_gorilla_roundtrip_special(vals):
    assert bits_equal(decode_gorilla(encode_gorilla(vals)), vals)


def test_gorilla_roundtrip_random_and_ratio():
    rng = np.random.default_rng(1)
    x = np.cumsum(rng.standard_normal(4000))
    assert bits_equal(decode_gorilla(encode_gorilla(x)), x)
    # slowly varying repeated values compress
    steps = np.repeat(rng.standard_normal(500), 8)
    enc = encode_gorilla(steps)
    assert len(enc) < 0.6 * steps.nbytes
    assert bits_equal(decode_gorilla(enc), steps)


def test_gorilla_nan_payloads_preserved():
    a = np.array([np.nan], dtype=np.float64)
    weird = np.frombuffer(np.uint64(0x7FF8DEADBEEF0001).tobytes(), dtype=np.float64)
    vals = np.concatenate([a, weird, a])
    assert bits_equal(decode_gorilla(encode_gorilla(vals)), vals)


def test_ray_pack_unpack_stage(ray_session):
    import ray

    from tsmp_ray.sources.transcripts import synthetic_transcripts
    from tsmp_ray.stages.compression import pack_rollup_series, unpack_series
    from tsmp_ray.stages.rollup import tiers_from_packed
    from tsmp_ray.stages.signals import pack_series

    tbl = synthetic_transcripts(n_convs=3, seed=11, mean_turns=80)
    t1m = tiers_from_packed(pack_series(ray.data.from_arrow(tbl)),
                            tiers=("1m",), gap_fill=False, max_gap=None)["1m"]
    want = t1m.to_pandas()[["conv_id", "signal", "bucket_ts", "mean_v"]]
    packed = pack_rollup_series(t1m)
    got = packed.map_batches(unpack_series, batch_format="pyarrow").to_pandas()
    keys = ["conv_id", "signal", "bucket_ts"]
    a = want.sort_values(keys).reset_index(drop=True)
    b = got.sort_values(keys).reset_index(drop=True)[a.columns.tolist()]
    assert bits_equal(a["mean_v"].to_numpy(), b["mean_v"].to_numpy())
    assert (a["bucket_ts"].to_numpy() == b["bucket_ts"].to_numpy()).all()


# ------------------------------------------------- the run-batched encoder


def _layout_timestamps(ts: np.ndarray) -> bytes:
    """The DoD layout of the module docstring, written item by item."""
    from tsmp_ray.stages.compression import _BitWriter

    wr = _BitWriter()
    wr.write(len(ts), 32)
    if len(ts) >= 1:
        wr.write(int(ts[0]) & (2**64 - 1), 64)
    if len(ts) >= 2:
        delta = int(ts[1]) - int(ts[0])
        wr.write(delta & (2**64 - 1), 64)
        for i in range(2, len(ts)):
            d = int(ts[i]) - int(ts[i - 1])
            dod, delta = d - delta, d
            if dod == 0:
                wr.write(0, 1)
                continue
            for bits, prefix, plen in ((7, 0b10, 2), (9, 0b110, 3),
                                       (12, 0b1110, 4), (32, 0b11110, 5)):
                if -(1 << (bits - 1)) <= dod < (1 << (bits - 1)):
                    wr.write(prefix, plen)
                    wr.write(dod + (1 << (bits - 1)), bits)
                    break
            else:
                wr.write(0b11111, 5)
                wr.write(dod & (2**64 - 1), 64)
    return wr.bytes()


def _layout_gorilla(vals: np.ndarray) -> bytes:
    """The Gorilla layout of the module docstring (an explicit '11' window
    per nonzero XOR), written item by item."""
    from tsmp_ray.stages.compression import _BitWriter

    raw = [int(v) for v in np.asarray(vals, dtype=np.float64).view(np.uint64)]
    wr = _BitWriter()
    wr.write(len(raw), 32)
    if raw:
        wr.write(raw[0], 64)
    for prev, cur in zip(raw, raw[1:]):
        x = prev ^ cur
        if x == 0:
            wr.write(0, 1)
            continue
        lead = min(64 - x.bit_length(), 31)
        trail = (x & -x).bit_length() - 1
        mlen = 64 - lead - trail
        wr.write(0b11, 2)
        wr.write(lead, 5)
        wr.write(mlen - 1, 6)
        wr.write(x >> trail, mlen)
    return wr.bytes()


def test_run_encoder_matches_documented_layout():
    """One block-wide encoder call over runs of length 0, 1, 2, 3 and
    several hundred: every run's bytes equal the layout written bit by bit
    here, independently of the encoder, and decode back exactly. Timestamps
    include escape-level DoDs (|dod| ≥ 2^31); values include ±0.0, NaN
    payloads, ±inf and denormals."""
    from tsmp_ray.stages.compression import (encode_gorilla_runs,
                                             encode_timestamp_runs)

    rng = np.random.default_rng(23)
    specials = np.frombuffer(np.array(
        [0x0, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
         0x7FF8000000000000, 0x7FF8DEADBEEF0001, 0xFFF0000000000001,
         0x1, 0x800FFFFFFFFFFFFF], dtype=np.uint64).tobytes(), dtype=np.float64)
    lens = np.array([0, 1, 2, 3, 417, 0, 3, 2, 1, 350, 64])
    ts_runs, val_runs = [], []
    for k, n in enumerate(lens):
        gaps = rng.integers(0, 120, n) * 1_000_000
        if k % 2:  # escape-level jumps, both signs
            gaps[rng.integers(0, max(n, 1), n // 4)] += rng.choice(
                [1 << 31, 1 << 40, -(1 << 33)], n // 4)
        ts_runs.append(1_700_000_000_000_000 + np.cumsum(gaps))
        vals = np.round(rng.standard_normal(n), 2)
        pick = rng.random(n) < 0.3
        vals[pick] = rng.choice(specials, int(pick.sum()))
        val_runs.append(vals)
    ts = np.concatenate(ts_runs).astype(np.int64)
    vals = np.concatenate(val_runs)
    assert any(abs(int(d)) >= 1 << 31 for r in ts_runs for d in np.diff(r, 2))

    ts_buf, ts_off = encode_timestamp_runs(ts, lens)
    val_buf, val_off = encode_gorilla_runs(vals, lens)
    assert len(ts_off) == len(val_off) == len(lens) + 1
    assert ts_off[-1] == len(ts_buf) and val_off[-1] == len(val_buf)
    for r, (t, v) in enumerate(zip(ts_runs, val_runs)):
        blob_t = ts_buf[ts_off[r]:ts_off[r + 1]]
        blob_v = val_buf[val_off[r]:val_off[r + 1]]
        assert blob_t == _layout_timestamps(t) == encode_timestamps(t), r
        assert blob_v == _layout_gorilla(v) == encode_gorilla(v), r
        assert np.array_equal(decode_timestamps(blob_t), t)
        assert bits_equal(decode_gorilla(blob_v), v)


def _tier_table(rng, n_convs=4, signals=("a", "b"), n=30):
    rows = [(f"c{c}", s, 1_700_000_000_000_000 + 60_000_000 * i,
             float(rng.integers(0, 9)) if i % 7 else np.nan)
            for c in range(n_convs) for s in signals for i in range(n)]
    cols = list(zip(*rows))
    return pa.table({"conv_id": pa.array(cols[0], pa.string()),
                     "signal": pa.array(cols[1], pa.string()),
                     "bucket_ts": pa.array(cols[2], pa.int64()),
                     "mean_v": pa.array(cols[3], pa.float64())})


def test_pack_run_split_across_blocks(ray_session):
    """A (conv, signal) run cut across two input blocks, each shuffled,
    still packs to ONE row with the right n and the bytes of an encode of
    the whole run in ts order; an empty tier packs and unpacks to 0 rows."""
    import ray

    from tsmp_ray.stages.compression import pack_rollup_series, unpack_series

    rng = np.random.default_rng(31)
    t = _tier_table(rng)
    k = 30 * 3 + 11  # inside run (c1, b)
    shuffled = [b.take(pa.array(rng.permutation(b.num_rows)))
                for b in (t.slice(k), t.slice(0, k))]
    got = pack_rollup_series(ray.data.from_arrow(shuffled)).to_pandas()
    assert len(got) == 8
    assert not got.duplicated(["conv_id", "signal"]).any()
    want = t.to_pandas()
    for row in got.itertuples():
        run = want[(want.conv_id == row.conv_id) & (want.signal == row.signal)]
        assert row.n == len(run) == 30
        assert row.ts_dod == encode_timestamps(run.bucket_ts.to_numpy())
        assert row.val_gorilla == encode_gorilla(run.mean_v.to_numpy())

    empty = pack_rollup_series(ray.data.from_arrow(t.slice(0, 0)))
    assert empty.count() == 0
    assert empty.map_batches(unpack_series, batch_format="pyarrow").count() == 0


def test_packed_blob_bytes_pinned(ray_session):
    """The on-wire format is frozen: the sha256 of the packed 1m tier of a
    seeded synthetic input, sorted by (conv_id, signal), is pinned. Any
    change to a codec's bit layout fails here."""
    import hashlib

    import ray

    from tsmp_ray.sources.transcripts import synthetic_transcripts
    from tsmp_ray.stages.compression import pack_rollup_series
    from tsmp_ray.stages.rollup import tiers_from_packed
    from tsmp_ray.stages.signals import pack_series

    tbl = synthetic_transcripts(n_convs=20, seed=13, mean_turns=60)
    t1m = tiers_from_packed(pack_series(ray.data.from_arrow(tbl)),
                            tiers=("1m",), gap_fill=True, max_gap=None)["1m"]
    got = pack_rollup_series(t1m).to_pandas().sort_values(["conv_id", "signal"])
    h = hashlib.sha256()
    for row in got.itertuples():
        h.update(f"{row.conv_id}|{row.signal}|{row.n}|".encode())
        h.update(row.ts_dod)
        h.update(row.val_gorilla)
    assert len(got) == 60
    assert h.hexdigest() == (
        "db9f15e578619dadc1fa9ad7e7725f9fa490da7c55a75f4f4f5d6b0d60f548ca")
