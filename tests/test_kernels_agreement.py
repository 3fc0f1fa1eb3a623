"""Agreement matrix: stomp == mpx == blocked == scrimp(full) == stamp(full)
== brute.

Mirrors the reference's core oracle strategy
(/root/reference/tests/testthat/test-stamps.R:118-199): every exact algorithm
must produce identical profiles; anytime algorithms at full sampling equal the
exact ones; incremental (stompi) equals batch. Oracle = brute O(n²·w).
No Ray involved — pure numpy kernels.
"""

import numpy as np
import pytest

from tsmp_ray.kernels.block_join import blocked_mp
from tsmp_ray.kernels.brute import brute_mp
from tsmp_ray.kernels.mpx import mpx, mpx_diagonals, prepare_series
from tsmp_ray.kernels.mstomp import mstomp
from tsmp_ray.kernels.profile_types import merge_min
from tsmp_ray.kernels.scrimp import scrimp, stamp
from tsmp_ray.kernels.stomp import stomp
from tsmp_ray.kernels.stompi import StreamingProfile
from tsmp_ray.config import exclusion_zone

# sqrt amplifies FFT rounding near d=0 (d = sqrt(d²), err ~ sqrt(1e-12));
# 2e-5 on values of order sqrt(2w) ≈ 4–8 is a strict match in practice.
ATOL = 2e-5


def random_walk(n, seed=2018):
    """The reference's bench workload: cumsum of ±1 (README.Rmd:75-78)."""
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.choice([-1.0, 1.0], size=n))


def sinusoid_with_motifs(n=300, seed=5):
    rng = np.random.default_rng(seed)
    x = np.sin(np.linspace(0, 20 * np.pi, n)) + 0.3 * rng.standard_normal(n)
    motif = np.array([0.0, 2.0, -2.0, 2.0, -2.0, 0.0, 1.0, -1.0])
    x[40:48] += motif
    x[200:208] += motif
    return x


def z_windows(x, w):
    from tsmp_ray.kernels.brute import _znorm_windows
    from tsmp_ray.kernels.mass import clean_series

    xc, _skip = clean_series(np.asarray(x, dtype=np.float64), w)
    return _znorm_windows(xc, w)[0]


def recomputed_pair_dists(x, w, i_idx, j_idx):
    """Independently recomputed z-normalized distances for (i, j) window
    pairs — the check that a profile's pi actually points at windows
    ACHIEVING its mp values (correct distances with garbage indices would
    otherwise pass every mp-only comparison)."""
    z = z_windows(x, w)
    d = z[np.asarray(i_idx)] - z[np.asarray(j_idx)]
    return np.sqrt((d * d).sum(axis=1))


def assert_pi_achieves_mp(prof, x, w, atol=ATOL):
    ok = np.isfinite(prof.mp) & (prof.pi >= 0)
    ii = np.flatnonzero(ok)
    assert len(ii) > 0
    d = recomputed_pair_dists(x, w, ii, prof.pi[ii])
    np.testing.assert_allclose(d, prof.mp[ii], atol=atol)


def assert_profiles_equal(a, b, *, check_pi=True, check_directional=True,
                          atol=ATOL, x=None, w=None, err_msg=""):
    np.testing.assert_allclose(a.mp, b.mp, atol=atol, err_msg=err_msg)
    if check_pi and x is not None:
        # pi may legitimately differ on exact ties, so exact index equality
        # is wrong — instead require each profile's OWN (i, pi[i]) pair to
        # achieve mp[i] under an independent recomputation
        assert_pi_achieves_mp(a, x, w, atol=atol)
        assert_pi_achieves_mp(b, x, w, atol=atol)
    if check_directional and a.lmp is not None and b.lmp is not None:
        np.testing.assert_allclose(a.lmp, b.lmp, atol=atol, err_msg=err_msg)
        np.testing.assert_allclose(a.rmp, b.rmp, atol=atol, err_msg=err_msg)


@pytest.mark.parametrize("w", [8, 30])
@pytest.mark.parametrize("maker", [lambda: random_walk(400), sinusoid_with_motifs])
def test_exact_agreement_matrix(w, maker):
    x = maker()
    oracle = brute_mp(x, w)
    for fn, name in [
        (lambda: stomp(x, w), "stomp"),
        (lambda: mpx(x, w), "mpx"),
        (lambda: blocked_mp(x, w), "blocked"),
        (lambda: scrimp(x, w, pre_scrimp=0, s_size=None), "scrimp-full"),
        (lambda: scrimp(x, w, pre_scrimp=0.25, s_size=None), "scrimp-full+pre"),
        (lambda: stamp(x, w), "stamp-full"),
    ]:
        got = fn()
        assert_profiles_equal(got, oracle,
                              check_directional=got.lmp is not None,
                              x=x, w=w, err_msg=name)


def test_pi_partners_are_consistent():
    x = random_walk(500)
    w = 20
    prof = stomp(x, w)
    oracle = brute_mp(x, w)
    # where finite, pi must point at a window whose RECOMPUTED distance
    # equals mp — not merely be nonnegative (correct-mp/garbage-pi passed
    # the old form of this test)
    ok = np.isfinite(prof.mp)
    assert (prof.pi[ok] >= 0).all()
    np.testing.assert_allclose(prof.mp, oracle.mp, atol=ATOL)
    assert_pi_achieves_mp(prof, x, w)
    # and the directional indices achieve their own profiles too
    for mp_d, pi_d in ((prof.lmp, prof.lpi), (prof.rmp, prof.rpi)):
        m = np.isfinite(mp_d) & (pi_d >= 0)
        ii = np.flatnonzero(m)
        d = recomputed_pair_dists(x, w, ii, pi_d[ii])
        np.testing.assert_allclose(d, mp_d[ii], atol=ATOL)


def test_flat_and_nan_windows_are_skipped():
    x = random_walk(300)
    x[100:130] = 5.0          # flat region -> sd < eps windows
    x[200:205] = np.nan       # NaN windows
    w = 16
    for algo in (stomp, mpx, blocked_mp):
        prof = algo(x, w)
        oracle = brute_mp(x, w)
        np.testing.assert_allclose(prof.mp, oracle.mp, atol=ATOL)
        # fully-flat windows must be Inf/-1
        assert np.isinf(prof.mp[105:115]).all()
        assert (prof.pi[105:115] == -1).all()
        # windows overlapping NaNs must be Inf
        assert np.isinf(prof.mp[200 - w + 1 + 4 : 201]).all()


def gaussian_walk(n, seed):
    """A walk with no exactly repeated window: the ±1 walk's exact matches
    (d = 0) put every kernel ≈2e-5 off brute force at multi-block sizes
    (sqrt amplification), which is noise, not disagreement."""
    return np.cumsum(np.random.default_rng(seed).standard_normal(n))


def test_ab_join_agreement():
    w = 12
    for a, b in [
        (random_walk(300, seed=1), random_walk(220, seed=2)),
        # both sides span several 256-window blocks, at lengths off the grid
        (gaussian_walk(843, seed=3), gaussian_walk(601, seed=4)),
        # the query is longer than the data (stomp refuses it, stomp.R:92-94)
        (gaussian_walk(150, seed=5), gaussian_walk(530, seed=6)),
    ]:
        oracle = brute_mp(a, w, query=b)
        # BA orientation equals brute of (b, query=a)
        oracle_ba = brute_mp(b, w, query=a)
        za, zb = z_windows(a, w), z_windows(b, w)
        for algo in [mpx, blocked_mp] + ([stomp] if len(b) <= len(a) else []):
            got = algo(a, w, query=b)
            msg = f"{algo.__name__} {len(a)}x{len(b)}"
            assert got.join and got.ez == 0.0 and got.lmp is None, msg
            np.testing.assert_allclose(got.mp, oracle.mp, atol=ATOL,
                                       err_msg=msg)
            np.testing.assert_allclose(got.mpb, oracle_ba.mp, atol=ATOL,
                                       err_msg=msg)
            # each orientation's index achieves its distance
            for mp, pi, z_row, z_col in ((got.mp, got.pi, za, zb),
                                         (got.mpb, got.pib, zb, za)):
                ii = np.flatnonzero(np.isfinite(mp))
                d = np.linalg.norm(z_row[ii] - z_col[pi[ii]], axis=1)
                np.testing.assert_allclose(d, mp[ii], atol=ATOL, err_msg=msg)


def test_mpx_diagonal_sharding_min_merges_to_full():
    x = random_walk(400)
    w = 16
    state = prepare_series(x, w)
    zone = exclusion_zone(w)
    diags = np.arange(zone + 1, state.p)
    split = np.array_split(diags, 3)
    parts = [mpx_diagonals(state, dd) for dd in split]
    merged = parts[0]
    for prt in parts[1:]:
        merged = merge_min(merged, prt)
    full = mpx(x, w)
    assert_profiles_equal(merged, full, x=x, w=w)


def test_blocked_strip_sharding_distances_bit_identical_indices_argmin():
    """Row-block strips of the blocked kernel min-merge to bit-identical
    DISTANCE arrays, and every merged index is an exact argmin. The ±1
    integer walk makes exact correlation ties rampant (duplicate window
    shapes → corr 1.0), so this pins the heavy-conv shard contract: strips
    snapped to the dgemm block grid give bit-equal distances; on
    equal-distance ties the merge may pick a different (equally minimal)
    neighbor than the single pass, because the in-kernel comparison sees raw
    dgemm correlations (1.0 + ulp) while partials carry the clamped ed."""
    from numpy.lib.stride_tricks import sliding_window_view

    from tsmp_ray.kernels.block_join import blocked_mp, strip_splits

    for w, n, n_shards in [(8, 1500, 4), (16, 2100, 3), (8, 900, 7)]:
        x = random_walk(n, seed=n)
        full = blocked_mp(x, w)
        zone = exclusion_zone(w)
        p = n - w + 1
        splits = strip_splits(p, zone, n_shards)
        assert splits[0][0] == 0 and splits[-1][1] == p
        # strips tile [0, p) without overlap, each lo on the 256 grid
        for (lo, hi), (lo2, _) in zip(splits, splits[1:]):
            assert hi == lo2 and lo % 256 == 0
        parts = [blocked_mp(x, w, row_range=rr) for rr in splits]
        merged = parts[0]
        for prt in parts[1:]:
            merged = merge_min(merged, prt)
        for fld in ("mp", "lmp", "rmp"):
            np.testing.assert_array_equal(
                getattr(merged, fld), getattr(full, fld), err_msg=fld)
        # every merged pi is an equally-minimal neighbor: recompute the pair
        # distance identically for merged.pi and full.pi so method error
        # cancels — if the merge ever picked a WORSE neighbor the gap shows
        # far above ulp noise
        wv = sliding_window_view(x, w)
        mu = wv.mean(axis=1, keepdims=True)
        sd = wv.std(axis=1, keepdims=True)
        Z = (wv - mu) / sd

        def pair_d(pi, rows):
            corr = np.einsum("ij,ij->i", Z[rows], Z[pi[rows]]) / w
            return np.sqrt(np.maximum(2.0 * w * (1.0 - np.minimum(corr, 1.0)), 0))

        ok = np.isfinite(merged.mp) & (merged.pi >= 0)
        rows = ok.nonzero()[0]
        assert np.array_equal(ok, np.isfinite(full.mp) & (full.pi >= 0))
        np.testing.assert_allclose(pair_d(merged.pi, rows),
                                   pair_d(full.pi, rows), atol=ATOL)
        # pairs must respect the exclusion zone
        assert (np.abs(merged.pi[ok] - rows) > zone).all()


def test_strip_splits_tile_exactly_across_shapes():
    """Property sweep: for random (p, zone, n_shards), strips start at 0,
    end at p, are contiguous, on-grid, non-empty — so the shard fan-out
    covers every valid (i, j) pair exactly once at any shape."""
    from tsmp_ray.kernels.block_join import strip_splits

    rng = np.random.default_rng(7)
    for _ in range(200):
        p = int(rng.integers(1, 5000))
        zone = int(rng.integers(0, 50))
        n_shards = int(rng.integers(1, 40))
        splits = strip_splits(p, zone, n_shards)
        if zone + 1 >= p:
            assert splits == []  # no valid pairs at all
            continue
        assert splits, (p, zone, n_shards)
        assert splits[0][0] == 0 and splits[-1][1] == p
        for (lo, hi), (lo2, _) in zip(splits, splits[1:]):
            assert hi == lo2
        for lo, hi in splits:
            assert lo % 256 == 0 and lo < hi
        assert len(splits) <= n_shards


def test_blocked_strip_off_grid_lo_rejected():
    from tsmp_ray.kernels.block_join import blocked_mp

    with pytest.raises(ValueError, match="block grid"):
        blocked_mp(random_walk(600), 8, row_range=(100, 500))


def test_anytime_scrimp_upper_bounds_exact():
    """Sampled scrimp is an upper bound of the exact mp everywhere."""
    x = random_walk(600)
    w = 24
    exact = stomp(x, w)
    approx = scrimp(x, w, pre_scrimp=0.25, s_size=0.2, seed=3)
    finite = np.isfinite(exact.mp)
    assert (approx.mp[finite] >= exact.mp[finite] - ATOL).all()
    # and reasonably tight on average (anytime ~1/10 claim, R/tsmp.R:12-15)
    gap = approx.mp[finite] - exact.mp[finite]
    assert np.mean(gap) < 0.5


def test_stompi_incremental_equals_batch():
    x = random_walk(400)
    w = 16
    sp = StreamingProfile(x[:250], w)
    sp.update(x[250:300])
    sp.update(x[300:400])
    batch = stomp(x, w)
    np.testing.assert_allclose(sp.profile.mp, batch.mp, atol=ATOL)
    np.testing.assert_allclose(sp.profile.rmp, batch.rmp, atol=ATOL)
    # lmp also exact when no truncation
    np.testing.assert_allclose(sp.profile.lmp, batch.lmp, atol=ATOL)


def test_stompi_history_truncation_offsets():
    x = random_walk(500)
    w = 16
    sp = StreamingProfile(x[:300], w, history_size=350)
    sp.update(x[300:500])
    assert sp.offset == 150
    assert len(sp.data) == 350
    # mp values for surviving windows match batch profile of the full series
    batch = stomp(x, w)
    np.testing.assert_allclose(sp.profile.mp, batch.mp[150:], atol=ATOL)


def test_mstomp_1d_equals_stomp():
    x = random_walk(300)
    w = 16
    ms = mstomp(x, w)
    st = stomp(x, w)
    np.testing.assert_allclose(ms.mp[0], st.mp, atol=ATOL)


def brute_mstomp(data, w, ez=0.5):
    """Independent multidim oracle: per-dim brute distance matrices, sort dims,
    cumulative mean of squares, sqrt at end."""
    from tsmp_ray.kernels.brute import _znorm_windows
    from tsmp_ray.kernels.mass import clean_series
    n, d = data.shape
    p = n - w + 1
    zone = exclusion_zone(w, ez)
    mats = []
    for j in range(d):
        xc, skip = clean_series(data[:, j], w)
        z, ok = _znorm_windows(xc, w)
        corr = np.clip(z @ z.T / w, -1, 1)
        dist = np.maximum(2.0 * w * (1 - corr), 0.0)
        dist[~ok | skip, :] = np.inf
        dist[:, ~ok | skip] = np.inf
        mats.append(dist)
    D = np.stack(mats)  # (d, p, p)
    for i in range(p):
        D[:, i, max(0, i - zone) : i + zone + 1] = np.inf
    srt = np.sort(D, axis=0)
    cum = np.cumsum(srt, axis=0) / np.arange(1, d + 1)[:, None, None]
    mp = np.sqrt(cum.min(axis=2))
    pi = cum.argmin(axis=2)
    return mp, pi, cum


def test_mstomp_multidim_vs_brute():
    rng = np.random.default_rng(11)
    n, d = 220, 3
    data = np.cumsum(rng.standard_normal((n, d)), axis=0)
    w = 12
    ms = mstomp(data, w)
    mp_o, _pi_o, cum = brute_mstomp(data, w)
    np.testing.assert_allclose(ms.mp, mp_o, atol=ATOL)
    # ms.pi must ACHIEVE ms.mp under the oracle's own k-dim distance at
    # (i, ms.pi[k, i]) — correct distances with garbage indices would pass
    # the mp-only comparison above (pi EQUALITY would be wrong: ties)
    for k in range(cum.shape[0]):
        fin = np.isfinite(ms.mp[k]) & (ms.pi[k] >= 0)
        ii = np.flatnonzero(fin)
        assert len(ii) > 0
        d = np.sqrt(cum[k, ii, ms.pi[k][ii]])
        np.testing.assert_allclose(d, ms.mp[k][ii], atol=ATOL)


def test_mstomp_must_exc():
    rng = np.random.default_rng(12)
    data = np.cumsum(rng.standard_normal((200, 3)), axis=0)
    w = 10
    ms = mstomp(data, w, must_dim=[1], exc_dim=[2])
    assert ms.n_dim == 2
    # row 0 = {dim1} alone; equals stomp on dim 1
    st = stomp(data[:, 1], w)
    np.testing.assert_allclose(ms.mp[0], st.mp, atol=ATOL)


def test_blocked_kernel_agreement():
    from tsmp_ray.kernels.block_join import blocked_mp

    for maker, w in [(lambda: random_walk(400), 8),
                     (sinusoid_with_motifs, 16),
                     (lambda: random_walk(1300), 30)]:
        x = maker()
        assert_profiles_equal(blocked_mp(x, w), brute_mp(x, w), x=x, w=w)


def test_blocked_kernel_flat_and_nan():
    from tsmp_ray.kernels.block_join import blocked_mp

    x = random_walk(600)
    x[100:160] = 2.0
    x[400:404] = np.nan
    for w in (8, 16):
        a = blocked_mp(x, w)
        b = brute_mp(x, w)
        assert (np.isfinite(a.mp) == np.isfinite(b.mp)).all()
        fin = np.isfinite(a.mp)
        np.testing.assert_allclose(a.mp[fin], b.mp[fin], atol=ATOL)
