"""SiMPle (non-normalized multidim MP) vs naive oracle; MDL multidim motifs."""

import numpy as np
import pytest

from tsmp_ray.kernels.mstomp import mstomp
from tsmp_ray.kernels.simple import simple_fast
from tsmp_ray.kernels.mining import find_multidim_motifs, get_bit_save


def naive_simple(data, w, query=None, ez=0.5):
    from tsmp_ray.config import exclusion_zone

    data = np.atleast_2d(data.T).T
    q = data if query is None else np.atleast_2d(query.T).T
    p = data.shape[0] - w + 1
    pq = q.shape[0] - w + 1
    zone = exclusion_zone(w, ez) if query is None else 0
    mp = np.full(p, np.inf)
    pi = np.full(p, -1)
    for i in range(p):
        best, bj = np.inf, -1
        for j in range(pq):
            if query is None and abs(i - j) <= zone:
                continue
            d = ((data[i : i + w] - q[j : j + w]) ** 2).sum()
            if d < best:
                best, bj = d, j
        mp[i] = np.sqrt(best)
        pi[i] = bj
    return mp, pi


def simple_pair_d(data, q, w, i, j):
    """SiMPle's NON-normalized pair distance, recomputed independently —
    validates that prof.pi points at windows achieving prof.mp (pi equality
    vs the naive oracle would be wrong on exact ties)."""
    data = np.atleast_2d(data.T).T
    q = np.atleast_2d(q.T).T
    return float(np.sqrt(((data[i : i + w] - q[j : j + w]) ** 2).sum()))


def assert_simple_pi_achieves_mp(prof, data, q, w, atol=1e-6):
    fin = np.isfinite(prof.mp) & (prof.pi >= 0)
    for i in np.flatnonzero(fin):
        assert abs(simple_pair_d(data, q, w, int(i), int(prof.pi[i]))
                   - prof.mp[i]) <= atol


def test_simple_fast_self_join_matches_naive():
    rng = np.random.default_rng(3)
    data = np.cumsum(rng.standard_normal((120, 3)), axis=0)
    w = 8
    prof = simple_fast(data, w)
    mp_o, pi_o = naive_simple(data, w)
    np.testing.assert_allclose(prof.mp, mp_o, atol=1e-6)
    assert_simple_pi_achieves_mp(prof, data, data, w)


def test_simple_fast_ab_join_matches_naive():
    rng = np.random.default_rng(4)
    a = np.cumsum(rng.standard_normal((100, 2)), axis=0)
    b = np.cumsum(rng.standard_normal((80, 2)), axis=0)
    w = 8
    prof = simple_fast(a, w, query=b)
    mp_o, pi_o = naive_simple(a, w, query=b)
    np.testing.assert_allclose(prof.mp, mp_o, atol=1e-6)
    assert prof.join
    assert_simple_pi_achieves_mp(prof, a, b, w)


def test_simple_fast_1d():
    rng = np.random.default_rng(5)
    x = np.cumsum(rng.standard_normal(150))
    prof = simple_fast(x, 10)
    mp_o, _ = naive_simple(x, 10)
    np.testing.assert_allclose(prof.mp, mp_o, atol=1e-6)


def test_get_bit_save_prefers_shared_dims():
    rng = np.random.default_rng(6)
    w = 16
    shared = np.sin(np.linspace(0, 2 * np.pi, w))
    m1 = np.stack([shared, rng.standard_normal(w)], axis=1)
    m2 = np.stack([shared + rng.standard_normal(w) * 0.01,
                   rng.standard_normal(w)], axis=1)
    bits1, dims1 = get_bit_save(m1, m2, 1)
    assert dims1[0] == 0  # the shared dimension compresses best


def test_find_multidim_motifs_guided_and_unconstrained():
    rng = np.random.default_rng(7)
    n, w = 400, 16
    data = rng.standard_normal((n, 3)) * 0.3
    # motif present in dims 0 and 1 only, at two locations
    pat = np.sin(np.linspace(0, 3 * np.pi, w)) * 3
    for pos in (60, 280):
        data[pos : pos + w, 0] = pat
        data[pos : pos + w, 1] = pat * 0.8
    mmp = mstomp(data, w)
    guided = find_multidim_motifs(data, mmp, n_motifs=1, n_dim=2)
    assert guided
    a, b = guided[0]["motifs"]
    assert min(abs(a - 60), abs(a - 280)) <= 2
    assert min(abs(b - 60), abs(b - 280)) <= 2
    un = find_multidim_motifs(data, mmp, n_motifs=1)
    assert un and un[0]["n_dim"] <= 3


def test_mstomp_directional_1d_equals_stomp():
    """mstomp(1-d) lmp/lpi/rmp/rpi must equal the univariate stomp's
    directional profiles (engine convention: left = j<i, right = j>i)."""
    from tsmp_ray.kernels.stomp import stomp

    rng = np.random.default_rng(8)
    x = rng.standard_normal(300).cumsum()
    w = 12
    ms = mstomp(x, w)
    st = stomp(x, w)
    np.testing.assert_allclose(ms.mp[0], st.mp, atol=2e-5)
    np.testing.assert_allclose(ms.lmp[0], st.lmp, atol=2e-5)
    np.testing.assert_allclose(ms.rmp[0], st.rmp, atol=2e-5)
    np.testing.assert_array_equal(ms.lpi[0], st.lpi)
    np.testing.assert_array_equal(ms.rpi[0], st.rpi)


def test_mstomp_directional_shapes_and_chains():
    from tsmp_ray.kernels.mining import find_chains_multidim

    rng = np.random.default_rng(9)
    n, w = 400, 10
    pat = np.sin(np.linspace(0, 2 * np.pi, w))
    x = rng.standard_normal(n) * 0.2
    # drifting repeated pattern -> chain material in dim 0
    for s in range(20, n - w, 40):
        x[s : s + w] += pat * (1 + s / 400)
    data = np.stack([x, rng.standard_normal(n).cumsum()], axis=1)
    ms = mstomp(data, w)
    assert ms.lmp.shape == ms.mp.shape == ms.rmp.shape
    # left/right envelope: mp == min(lmp, rmp) where any finite
    both = np.minimum(ms.lmp, ms.rmp)
    m = np.isfinite(both)
    np.testing.assert_allclose(ms.mp[m], both[m], atol=1e-12)
    chains = find_chains_multidim(ms)
    assert set(chains) == {1, 2}
    assert all("best" in c for c in chains.values())


def test_compute_pan_floor_on_noisy_series():
    """White noise fails the bound at the very first doubling window. The
    reference's refine grid still runs (pmp.R:322 gates only on
    window_size <= max_window): from failing w=8 it tests {4, 6, 8}, so the
    bound refines BELOW the starting point and the search keeps the tested
    profiles — an empty pan here was the regression this pins. On this
    seed: 4 passes, 6 fails → upper 6, pan {4, 6}."""
    from tsmp_ray.kernels.mining import pmp_upper_bound
    from tsmp_ray.kernels.mpx import mpx

    rng = np.random.default_rng(0)
    x = rng.standard_normal(100)
    pan = pmp_upper_bound(x, threshold=0.98, return_pmp=True)
    assert pan["upper_window"] == 6
    assert pan["w"] == [4, 6]
    for w in (4, 6):
        np.testing.assert_allclose(pan["pmp"][w], mpx(x, w).mp, atol=1e-9)
    assert pmp_upper_bound(x, threshold=0.98) == 6
    # nothing testable at all (n < 16): bare-int floor at the start point
    assert pmp_upper_bound(rng.standard_normal(12), threshold=0.98) == 8
