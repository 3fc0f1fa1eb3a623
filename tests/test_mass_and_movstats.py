"""MASS property tests (v2 ≡ v3 ≡ brute over random windows/indices —
mirrors /root/reference/tests/testthat/test-mass-agressive.R:8-25) and
moving-stats / small-function unit tests."""

import numpy as np
import pytest

from tsmp_ray.kernels.brute import brute_dist_profile
from tsmp_ray.kernels.mass import mass_pre, mass_v2, mass_v3
from tsmp_ray.kernels.movstats import (
    binary_split, complexity, corr_ed, diff_lag, ed_corr, ipaa, mode,
    mov_mean, mov_stats, movmax, movmin, muinvn, normalize, paa, znorm,
    zero_crossings, zero_one_norm,
)

ATOL = 1e-4  # w up to 200 -> d up to ~20; sqrt amplifies FFT noise near d=0


def test_mass_v2_v3_brute_agree_aggressively():
    rng = np.random.default_rng(42)
    x = np.cumsum(rng.standard_normal(2000))
    for _ in range(60):
        w = int(rng.integers(4, 200))
        pre = mass_pre(x, w)
        i = int(rng.integers(0, len(x) - w + 1))
        q = x[i : i + w]
        d2, qt2 = mass_v2(pre, q)
        d3, qt3 = mass_v3(pre, q, k=256)
        db = brute_dist_profile(x, q)
        np.testing.assert_allclose(d2, d3, atol=ATOL)
        np.testing.assert_allclose(qt2, qt3, atol=1e-6 * np.abs(qt2).max())
        np.testing.assert_allclose(d2, db, atol=ATOL)


def test_mass_degenerate_query_all_inf():
    x = np.cumsum(np.ones(100))
    pre = mass_pre(np.random.default_rng(0).standard_normal(100), 10)
    d, _ = mass_v2(pre, np.full(10, 3.0))
    assert np.isinf(d).all()


def test_mov_stats_match_naive():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(500) * 100 + 1e6  # big offset stresses stability
    w = 25
    from numpy.lib.stride_tricks import sliding_window_view
    wins = sliding_window_view(x, w)
    mu, sd, ssq = mov_stats(x, w)
    np.testing.assert_allclose(mu, wins.mean(axis=1), rtol=1e-12)
    np.testing.assert_allclose(sd, wins.std(axis=1), rtol=1e-8)
    m2, invn = muinvn(x, w)
    np.testing.assert_allclose(invn, 1 / np.sqrt(((wins - wins.mean(axis=1, keepdims=True)) ** 2).sum(axis=1)), rtol=1e-8)


def test_movmin_movmax():
    x = np.array([3.0, 1, 4, 1, 5, 9, 2, 6])
    np.testing.assert_array_equal(movmin(x, 3), [1, 1, 1, 1, 2, 2])
    np.testing.assert_array_equal(movmax(x, 3), [4, 4, 5, 9, 9, 9])


def test_znorm_flat_degrades_to_centering():
    x = np.full(10, 7.0)
    np.testing.assert_array_equal(znorm(x), np.zeros(10))
    y = znorm(np.arange(10.0))
    assert abs(y.mean()) < 1e-12 and abs(y.std() - 1) < 1e-12


def test_normalize_and_zero_one():
    x = np.array([2.0, 4.0, 6.0])
    np.testing.assert_allclose(normalize(x), [0, 0.5, 1])
    np.testing.assert_allclose(zero_one_norm(x * 3 + 1), [0, 0.5, 1])
    np.testing.assert_allclose(normalize(x, 1, 3), [1, 2, 3])


def test_paa_ipaa_roundtrip_shape():
    x = np.arange(10.0)
    d = paa(x, 2)
    np.testing.assert_allclose(d, [0.5, 2.5, 4.5, 6.5, 8.5])
    assert len(ipaa(d, 2)) == 10
    # ragged tail averaged
    np.testing.assert_allclose(paa(np.arange(5.0), 2), [0.5, 2.5, 4.0])


def test_misc_scalars():
    assert zero_crossings(np.array([1.0, -1, 1, -1])) == 3
    assert zero_crossings(np.array([1.0, 2, 3])) == 0
    np.testing.assert_allclose(complexity(np.array([0.0, 3, 0])), np.sqrt(18))
    assert mode(np.array([1, 2, 2, 3])) == 2
    np.testing.assert_array_equal(diff_lag(np.array([1.0, 4, 9, 16]), 2), [8, 12])


def test_ed_corr_roundtrip():
    w = 30
    corr = np.array([-1.0, 0.0, 0.5, 1.0])
    np.testing.assert_allclose(ed_corr(corr_ed(corr, w), w), corr, atol=1e-12)


def test_binary_split_covers_all():
    for n in (1, 2, 7, 16):
        s = binary_split(n)
        assert sorted(s) == list(range(n))
        assert s[0] == 0
    assert binary_split(7)[:4] == [0, 3, 1, 5]  # midpoint-first exploration


# ---------------------------------------------------------------- weighted / gap / PAA


def test_weighted_equals_v3_with_unit_weights():
    """Mirror of /root/reference/tests/testthat/test-mass-agressive.R:8-25:
    weighted MASS with all-one weights ≡ plain MASS, over random (w, index)."""
    from tsmp_ray.kernels.mass import dist_profile

    rng = np.random.default_rng(2018)
    x = rng.standard_normal(800).cumsum()
    for _ in range(20):
        w = int(rng.integers(8, 120))
        i = int(rng.integers(0, len(x) - w))
        q = x[i : i + w]
        d3, _ = dist_profile(x, q, method="v3")
        dw, _ = dist_profile(x, q, method="weighted", weight=np.ones(w))
        m = np.isfinite(d3)
        np.testing.assert_allclose(dw[m], d3[m], atol=2e-5)


def test_weighted_downweights_corruption():
    from tsmp_ray.kernels.mass import dist_profile

    rng = np.random.default_rng(7)
    x = rng.standard_normal(600).cumsum()
    w = 32
    q = x[200 : 200 + w].copy()
    q[10:18] += 40.0  # corrupted segment
    wt = np.ones(w)
    wt[10:18] = 0.0
    dw, _ = dist_profile(x, q, method="weighted", weight=wt)
    d3, _ = dist_profile(x, q, method="v3")
    assert dw[200] < d3[200]  # zero-weighting the corruption recovers the match


def test_dist_profile_gap_finds_planted_site():
    from tsmp_ray.kernels.mass import dist_profile

    rng = np.random.default_rng(11)
    x = rng.standard_normal(500).cumsum()
    w = 24
    q = x[100 : 100 + w].copy()
    q[10:14] = np.nan  # don't-care gap
    d, lp = dist_profile(x, q, w=w)
    assert lp is None
    assert len(d) == len(x) - w + 1
    assert int(np.argmin(d)) == 100
    assert d[100] < 1e-3


def test_dist_profile_paa_approximates():
    from tsmp_ray.kernels.mass import dist_profile

    rng = np.random.default_rng(3)
    x = rng.standard_normal(400).cumsum()
    w = 40
    q = x[50 : 50 + w]
    d, qt = dist_profile(x, q, method="v3", paa_factor=4)
    assert len(d) == len(x) // 4 - w // 4 + 1
    assert abs(int(np.argmin(d)) - 50 // 4) <= 1  # coarse localization
    assert qt is not None


def test_dist_profile_gap_alignment_pinned_vs_brute():
    """Pins the DOCUMENTED deviation from dist_profile.R:131-135: our gap
    mode aligns the post-gap sub-query at p + gap_end (a pattern with a
    don't-care gap), i.e. d[p] == ED(q1, x[p:]) + ED(q2, x[p+s2:]) exactly —
    not the reference's prepend-shift. Differential check vs a brute-force
    z-norm ED for every p so the alignment can't silently drift."""
    from tsmp_ray.kernels.mass import dist_profile

    def zed(q, s):  # brute z-normalized ED
        q = (q - q.mean()) / q.std()
        s = (s - s.mean()) / s.std()
        return float(np.sqrt(((q - s) ** 2).sum()))

    rng = np.random.default_rng(7)
    x = rng.standard_normal(200).cumsum()
    w = 20
    q = x[60 : 60 + w].copy()
    q[8:12] = np.nan
    d, _ = dist_profile(x, q, w=w)
    q1, s2 = q[:8], 12
    q2 = q[s2:w]
    p_out = len(x) - w + 1
    for p in range(0, p_out - 1, 7):
        want = zed(q1, x[p : p + len(q1)]) + zed(q2, x[p + s2 : p + s2 + len(q2)])
        assert abs(d[p] - want) < 2e-5, p


def test_weighted_requires_weight():
    import pytest

    from tsmp_ray.kernels.mass import dist_profile

    x = np.arange(64, dtype=np.float64)
    with pytest.raises(ValueError, match="weight"):
        dist_profile(x, x[:16], method="weighted")
