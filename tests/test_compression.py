"""Bit-exact round-trip tests for delta-of-delta timestamp and Gorilla XOR
float64 codecs (FIXTURES.md F3 packed_series), plus the Ray pack/unpack stage."""

import numpy as np
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
    for n in (0, 1, 7, 1000, 40_000):  # 40k spans multiple CH=32768 chunks
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
                            tiers=("1m",), gap_fill=False)["1m"]
    want = t1m.to_pandas()[["conv_id", "signal", "bucket_ts", "mean_v"]]
    packed = pack_rollup_series(t1m)
    got = packed.map_batches(unpack_series, batch_format="pyarrow").to_pandas()
    keys = ["conv_id", "signal", "bucket_ts"]
    a = want.sort_values(keys).reset_index(drop=True)
    b = got.sort_values(keys).reset_index(drop=True)[a.columns.tolist()]
    assert bits_equal(a["mean_v"].to_numpy(), b["mean_v"].to_numpy())
    assert (a["bucket_ts"].to_numpy() == b["bucket_ts"].to_numpy()).all()
