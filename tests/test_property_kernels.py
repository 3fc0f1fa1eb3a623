"""Hypothesis property sweeps over the pure-numpy kernels and codecs.

The fixed-seed agreement tests (test_kernels_agreement.py) pin known
workloads; these sweep ADVERSARIAL shapes the seeds can't reach — integer
series riddled with exact-correlation ties, injected flat runs and NaN
gaps at arbitrary positions, shard splits in arbitrary merge order,
arbitrary bit patterns through the codecs. Mirrors the reference's own
"aggressive" randomized strategy (/root/reference/tests/testthat/
test-mass-agressive.R) with generated rather than seeded inputs.
No Ray involved — pure numpy, so examples stay milliseconds each.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from tsmp_ray.config import exclusion_zone
from tsmp_ray.kernels.brute import brute_mp
from tsmp_ray.kernels.mpx import mpx, mpx_diagonals, prepare_series
from tsmp_ray.kernels.profile_types import merge_min
from tsmp_ray.kernels.stomp import stomp
from tsmp_ray.kernels.block_join import blocked_mp

# sqrt amplifies FFT/BLAS rounding near d=0 (see test_kernels_agreement.py)
ATOL = 2e-5

# a series strategy built from the pieces that historically break MP
# kernels: small-integer values (exact-tie heaven), an optional flat run,
# an optional NaN gap — positions and lengths all generated.
_series = st.builds(
    lambda vals, flat, gap: {"vals": vals, "flat": flat, "gap": gap},
    vals=st.lists(st.integers(min_value=-4, max_value=4),
                  min_size=40, max_size=140),
    flat=st.one_of(st.none(), st.tuples(st.floats(0, 1), st.floats(0, 1))),
    gap=st.one_of(st.none(), st.tuples(st.floats(0, 1), st.integers(1, 6))),
)


def _build_series(spec) -> np.ndarray:
    x = np.cumsum(np.array(spec["vals"], dtype=np.float64))
    n = len(x)
    if spec["flat"] is not None:
        a, b = spec["flat"]
        lo = int(a * (n - 1))
        hi = min(n, lo + 2 + int(b * 30))
        x[lo:hi] = x[lo]
    if spec["gap"] is not None:
        a, k = spec["gap"]
        lo = int(a * (n - 1))
        x[lo : lo + k] = np.nan
    return x


@settings(max_examples=40, deadline=None)
@given(spec=_series, w=st.integers(min_value=4, max_value=16))
def test_exact_kernels_equal_brute(spec, w):
    """stomp == mpx == blocked == brute on generated series with ties,
    flat runs and NaN gaps: same finiteness mask, distances within ATOL,
    and every finite pi outside the exclusion zone."""
    x = _build_series(spec)
    if len(x) < 2 * w:
        return
    oracle = brute_mp(x, w)
    zone = exclusion_zone(w)
    for algo, name in [(stomp, "stomp"), (mpx, "mpx"),
                       (blocked_mp, "blocked")]:
        got = algo(x, w)
        fin = np.isfinite(oracle.mp)
        assert (np.isfinite(got.mp) == fin).all(), name
        np.testing.assert_allclose(got.mp[fin], oracle.mp[fin],
                                   atol=ATOL, err_msg=name)
        rows = fin.nonzero()[0]
        assert (got.pi[rows] >= 0).all(), name
        assert (np.abs(got.pi[rows] - rows) > zone).all(), name
        assert (got.pi[~fin] == -1).all(), name


@settings(max_examples=25, deadline=None)
@given(spec=_series, w=st.integers(min_value=4, max_value=12),
       n_parts=st.integers(min_value=2, max_value=6),
       order_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_merge_min_order_invariant(spec, w, n_parts, order_seed):
    """Diagonal shards min-merge to the full profile in ANY merge order —
    the distributed reduce must not depend on which shard lands first."""
    x = _build_series(spec)
    if len(x) < 2 * w + 4:
        return
    state = prepare_series(x, w)
    zone = exclusion_zone(w)
    diags = np.arange(zone + 1, state.p)
    if len(diags) < n_parts:
        return
    full = mpx(x, w)
    parts = [mpx_diagonals(state, dd)
             for dd in np.array_split(diags, n_parts)]
    order = np.random.default_rng(order_seed).permutation(len(parts))
    merged = parts[order[0]]
    for i in order[1:]:
        merged = merge_min(merged, parts[i])
    fin = np.isfinite(full.mp)
    assert (np.isfinite(merged.mp) == fin).all()
    np.testing.assert_allclose(merged.mp[fin], full.mp[fin], atol=ATOL)


@settings(max_examples=30, deadline=None)
@given(
    h=st.integers(1, 20), w=st.integers(1, 20),
    ch=st.sampled_from([1, 3, 4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_png_roundtrip_property(h, w, ch, seed):
    from tsmp_ray.stages.multimodal import decode_png, encode_png

    rng = np.random.default_rng(seed)
    shape = (h, w) if ch == 1 else (h, w, ch)
    img = rng.integers(0, 256, size=shape, dtype=np.uint8)
    np.testing.assert_array_equal(decode_png(encode_png(img)), img)


@settings(max_examples=40, deadline=None)
@given(vals=st.lists(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    min_size=0, max_size=200))
def test_gorilla_roundtrip_any_bit_pattern(vals):
    """Gorilla XORs raw float64 bit patterns, so round-trip must be
    BIT-exact for arbitrary values including NaN/Inf/-0.0/subnormals
    (uint64-view comparison — NaN != NaN under float equality)."""
    from tsmp_ray.stages.compression import decode_gorilla, encode_gorilla

    x = np.array(vals, dtype=np.float64)
    got = decode_gorilla(encode_gorilla(x))
    np.testing.assert_array_equal(got.view(np.uint64), x.view(np.uint64))


@settings(max_examples=40, deadline=None)
@given(deltas=st.lists(st.integers(0, 2**40), min_size=0, max_size=200),
       t0=st.integers(0, 2**50))
def test_timestamp_dod_roundtrip(deltas, t0):
    from tsmp_ray.stages.compression import decode_timestamps, encode_timestamps

    ts = t0 + np.concatenate(
        [[0], np.cumsum(np.array(deltas, dtype=np.int64))]
    ).astype(np.int64) if deltas else np.array([t0], dtype=np.int64)
    got = decode_timestamps(encode_timestamps(ts))
    np.testing.assert_array_equal(got, ts)


@settings(max_examples=40, deadline=None)
@given(vals=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=4,
                     max_size=120),
       w=st.integers(2, 12))
def test_mov_stats_match_naive(vals, w):
    """mov_mean / mov_std (the rollup partial kernel) == the direct
    per-window computation at every offset. The std tolerance is
    scale-aware: the running-sum E[x²]-E[x]² form cancels
    catastrophically on near-flat windows at large magnitude (error in
    the VARIANCE ~ eps·scale², so std error ~ sqrt(eps)·scale — found
    by hypothesis at scale 4e5; truly-flat windows are guarded in the
    kernels by the exact movmin==movmax check, not by std)."""
    from tsmp_ray.kernels.movstats import mov_mean, mov_std

    x = np.array(vals, dtype=np.float64)
    if len(x) < w:
        return
    scale = float(np.abs(x).max()) + 1.0
    windows = np.lib.stride_tricks.sliding_window_view(x, w)
    np.testing.assert_allclose(mov_mean(x, w), windows.mean(axis=1),
                               rtol=1e-9, atol=1e-9 * scale)
    np.testing.assert_allclose(mov_std(x, w), windows.std(axis=1),
                               rtol=1e-7, atol=2e-8 * scale)
