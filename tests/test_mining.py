"""Mining-layer tests: motifs/discords on planted patterns, chains, FLUSS
segmentation on a synthetic regime change, MPdist properties, snippets,
annotation vectors, PMP, valmod. Pure numpy (no Ray)."""

import numpy as np
import pytest

from tsmp_ray.kernels.mpx import mpx
from tsmp_ray.kernels.stomp import stomp
from tsmp_ray.kernels.mining import (
    av_apply, av_complexity, av_hardlimit_artifact, av_motion_artifact,
    av_stop_word, av_zerocrossing, find_chains, find_discords, find_motifs,
    find_snippet, fluss, fluss_cac, fluss_extract, fluss_score, mpdist,
    mpdist_vect, pmp, valmod,
)


def planted_motif_series(n=600, w=16, seed=3):
    rng = np.random.default_rng(seed)
    # regular base so planted structures dominate: slow sine + mild noise
    x = np.sin(np.linspace(0, 12 * np.pi, n)) + rng.standard_normal(n) * 0.1
    motif = np.sin(np.linspace(0, 3 * np.pi, w)) * 4
    for pos in (50, 300, 480):
        x[pos : pos + w] = motif + rng.standard_normal(w) * 0.05
    # one discord: unique spike pattern unlike anything else
    x[150 : 150 + w] = np.linspace(0, 9, w) * np.array([1, -1] * (w // 2))
    return x, [50, 300, 480], 150


def test_find_motifs_finds_planted():
    x, positions, _ = planted_motif_series()
    w = 16
    prof = stomp(x, w)
    motifs = find_motifs(x, prof, n_motifs=2, n_neighbors=5)
    assert motifs
    found = set(motifs[0]["motifs"]) | set(motifs[0]["neighbors"])
    near = {p for p in positions if any(abs(f - p) <= 3 for f in found)}
    assert len(near) >= 2  # at least two planted occurrences recovered


def test_greedy_neighbors_zone_zero_yields_distinct_indices():
    """ez=0 (join-profile convention) makes the suppression zone 0: the
    reference still pops each pick from its candidate pool
    (find-motifs.R:136-140), so neighbors must stay DISTINCT — a zone-0
    profile must not return the same index n_neighbors times."""
    from tsmp_ray.kernels.mining import _greedy_neighbors

    d = np.array([5.0, 1.0, 2.0, 3.0, 4.0])
    out = _greedy_neighbors(d, limit=10.0, zone=0, n_neighbors=3, seeds=[])
    assert out == [1, 2, 3]


def test_greedy_neighbors_small_pool_stop():
    """The reference breaks when fewer than j candidates remain in the pool
    (find-motifs.R:136 `length(distance_order) < j`): entries leave on pick
    and strict-zone suppression, Inf-masked ones stay and still count. On a
    5-entry all-finite profile with zone=1 the reference picks exactly 3
    neighbors (at j=4 the pool holds 2 < 4), never all 5."""
    from tsmp_ray.kernels.mining import _greedy_neighbors

    d = np.array([5.0, 1.0, 2.0, 3.0, 4.0])
    out = _greedy_neighbors(d, limit=10.0, zone=1, n_neighbors=10, seeds=[])
    assert out == [1, 2, 3]  # pool 5 -> 4 -> 3 -> 2; j=4 refused

    # zone=2: each pick removes itself + strict-zone survivors; the pool
    # drains to 1 < 3 before a third pick.
    out = _greedy_neighbors(d, limit=10.0, zone=2, n_neighbors=10, seeds=[])
    assert out == [1, 3]


def test_find_discords_finds_planted():
    x, _, discord_pos = planted_motif_series()
    w = 16
    prof = stomp(x, w)
    discords = find_discords(x, prof, n_discords=1)
    assert discords
    assert abs(discords[0]["discord"] - discord_pos) <= w


def test_find_chains_on_drifting_pattern():
    # pattern drifts steadily -> each occurrence's nearest left/right neighbors
    # are the previous/next occurrences -> a chain
    n, w, step = 800, 20, 80
    rng = np.random.default_rng(9)
    x = rng.standard_normal(n) * 0.1
    for k, pos in enumerate(range(40, n - w, step)):
        x[pos : pos + w] += np.sin(np.linspace(0, 2 * np.pi, w)) * (2 + 0.35 * k)
    prof = stomp(x, w)
    res = find_chains(prof)
    assert res["best"], "expected a chain"
    assert len(res["best"]) >= 3
    # chain elements should be ordered and roughly step apart
    diffs = np.diff(res["best"])
    assert (diffs > 0).all()


def regime_change_series(n=1200, seed=4):
    rng = np.random.default_rng(seed)
    a = np.sin(np.linspace(0, 60 * np.pi, n // 2)) + rng.standard_normal(n // 2) * 0.15
    b = np.sign(np.sin(np.linspace(0, 24 * np.pi, n // 2))) + rng.standard_normal(n // 2) * 0.15
    return np.concatenate([a, b])


def test_fluss_detects_regime_change():
    x = regime_change_series()
    w = 25
    res = fluss(x, w, num_segments=1)
    assert res["fluss"], "no segment found"
    seg = res["fluss"][0]
    assert abs(seg - len(x) // 2) < 120
    assert fluss_score(np.array([len(x) // 2]), np.array(res["fluss"]), len(x)) < 0.1
    # cac bounded [0,1]
    assert (res["cac"] >= 0).all() and (res["cac"] <= 1).all()


def test_fluss_extract_respects_threshold():
    cac = np.ones(500)
    assert fluss_extract(cac, 10, 3) == []
    cac[250] = 0.2
    assert fluss_extract(cac, 10, 3) == [250]


def test_mpdist_properties():
    rng = np.random.default_rng(5)
    a = np.cumsum(rng.standard_normal(200))
    w = 12
    # identical series -> distance ~ 0
    assert mpdist(a, a.copy(), w) < 1e-6
    # contains-similar-subsequence -> small; unrelated noise -> larger
    b = np.concatenate([rng.standard_normal(80), a[40:90], rng.standard_normal(60)])
    c = rng.standard_normal(190) * 3 + np.sin(np.arange(190))
    assert mpdist(a, b, w) < mpdist(a, c, w)
    # symmetry
    assert mpdist(a, b, w) == pytest.approx(mpdist(b, a, w), abs=1e-9)


def test_mpdist_vect_matches_scalar():
    rng = np.random.default_rng(6)
    data = np.cumsum(rng.standard_normal(300))
    query = np.cumsum(rng.standard_normal(60))
    w = 10
    vect = mpdist_vect(data, query, w)
    assert len(vect) == len(data) - len(query) + 1
    for i in (0, 57, 120, len(vect) - 1):
        direct = mpdist(data[i : i + len(query)], query, w,
                        thr=0.05)
        # same k-th-order statistic up to thr rounding: reference uses
        # k=ceil(thr*2*nq) in the vector path, ceil(thr*(na+nb)) in the scalar
        # path; na==nq here so they agree
        assert vect[i] == pytest.approx(direct, abs=1e-6)


def test_find_snippet_identifies_regimes():
    x = regime_change_series(n=1600)
    res = find_snippet(x, s_size=200, n_snippets=2, w=40)
    assert len(res["snippet_idx"]) == 2
    # the two snippets should come from different halves
    halves = {int(s >= 800) for s in res["snippet_idx"]}
    assert halves == {0, 1}
    assert sum(res["snippet_frac"]) == pytest.approx(1.0, abs=0.05)


def test_annotation_vectors_bounds_and_apply():
    rng = np.random.default_rng(8)
    x = np.sin(np.linspace(0, 20 * np.pi, 400)) + rng.standard_normal(400) * 0.2
    x[300:330] *= 4  # motion artifact region
    w = 20
    p = len(x) - w + 1
    for av in (av_zerocrossing(x, w), av_complexity(x, w),
               av_motion_artifact(x, w), av_hardlimit_artifact(x, w),
               av_stop_word(x, w, stop_word_loc=10)):
        assert av.shape == (p,)
        assert (av >= 0).all() and (av <= 1).all()
    # av_motion_artifact suppresses the high-variance region
    avm = av_motion_artifact(x, w)
    assert avm[300:310].mean() < 0.5
    # av_apply re-ranks: min of corrected profile moves away from suppressed area
    prof = stomp(x, w)
    corrected = av_apply(prof, avm)
    assert corrected.extra["annotated"]
    assert (corrected.mp >= prof.mp - 1e-12).all()


def test_pmp_sweep_and_valmod():
    rng = np.random.default_rng(10)
    x = np.cumsum(rng.standard_normal(300))
    windows = [8, 12, 16, 24]
    res = pmp(x, windows)
    assert set(res["w"]) == set(windows)
    for w in windows:
        np.testing.assert_allclose(res["pmp"][w], mpx(x, w).mp, atol=1e-9)

    vm = valmod(x, 8, 14)
    # every index's best window is within range and mp equals that window's
    # profile value scaled by 1/sqrt(w)
    p_check = len(x) - 14 + 1
    for i in (0, 50, p_check - 1):
        w = int(vm["w"][i])
        assert 8 <= w <= 14
        prof = mpx(x, w)
        assert vm["mp"][i] == pytest.approx(prof.mp[i] / np.sqrt(w), abs=1e-9)


def test_valmod_prefers_shorter_or_equal_normalized():
    rng = np.random.default_rng(13)
    x = np.cumsum(rng.standard_normal(250))
    vm = valmod(x, 10, 12)
    # normalized mp must be <= each single-window normalized profile
    for w in (10, 11, 12):
        prof = mpx(x, w)
        p = len(prof.mp)
        finite = np.isfinite(prof.mp)
        assert (vm["mp"][:p][finite] <= prof.mp[finite] / np.sqrt(w) + 1e-9).all()


def test_floss_cac_final_per_value_parity_with_batch():
    """FLOSS streaming ``cac_final`` bookkeeping (window rebase, online
    Kumaraswamy ideal, per-chunk append slices — fluss.R:440-448 semantics)
    must equal a BATCH recomputation at every chunk boundary, elementwise.

    With data_window ≥ len(x) the streaming profile equals the batch profile
    (stompi exactness, tested elsewhere), so each appended cac slice must
    match floss_cac_online over the batch profile prefix."""
    from tsmp_ray.kernels.mining import floss_cac_online
    from tsmp_ray.kernels.stomp import stomp
    from tsmp_ray.stages.floss_stage import FlossState

    rng = np.random.default_rng(13)
    w, chunk = 8, 25
    x = np.concatenate([
        np.sin(np.linspace(0, 20 * np.pi, 250)) + rng.standard_normal(250) * 0.1,
        rng.standard_normal(250) * 0.5,
    ])
    data_window = len(x) + 10  # no truncation: stream == batch

    st = FlossState(w, data_window, threshold=0.45)
    st.append(x, chunk=chunk)
    got = np.asarray(st.cac_final)

    # batch recomputation of every appended slice
    expect = []
    seeded = max(2 * w, w + 2)  # FlossState seeds its profile at this size
    boundaries = []
    seen = 0
    for lo in range(0, len(x), chunk):
        seen += len(x[lo : lo + chunk])
        if seen >= seeded:
            boundaries.append((seen, min(len(x[lo : lo + chunk]), seen)))
    first = True
    for seen, nappend in boundaries:
        if first:
            first = False  # seeding chunk contributes no cac slice
            continue
        prof = stomp(x[:seen], w)
        cac = floss_cac_online(prof.pi.copy(), w, len(prof.pi), online=False)
        expect.extend(cac[-nappend:].tolist())
    np.testing.assert_allclose(got, np.asarray(expect), atol=1e-12)



def test_floss_state_refused_chunk_leaves_state_unchanged():
    """A chunk longer than the CAC window (data_window - w + 1) is refused
    before it moves any state: after a caught refusal the point count, the
    cac record and the streaming profile's data and offset are as they
    were, so the stream stays aligned with cac_final."""
    from tsmp_ray.stages.floss_stage import FlossState

    x = np.cumsum(np.random.default_rng(4).standard_normal(150))
    st = FlossState(w=8, data_window=40)  # CAC window = 33
    st.append(x[:100], chunk=25)
    seen, cac, data, offset = (st.seen, list(st.cac_final),
                               st.sp.data.copy(), st.sp.offset)
    with pytest.raises(ValueError, match="CAC window"):
        st.append(x[100:], chunk=50)
    assert (st.seen, st.cac_final, st.sp.offset) == (seen, cac, offset)
    np.testing.assert_array_equal(st.sp.data, data)


@pytest.mark.parametrize("seed, w, data_window, digest", [
    (0, 8, 100,
     "d0c686e788fcf37f7ebf8aa572770485de8b67fb38e398f4ca945a31484609ac"),
    (1, 10, 150,
     "b77cea390b9d5d3bf7ea22d15062c3c9ed61d9da19951da45e41360ca7c5834e"),
    (2, 16, 200,
     "0e00458ef52c20172384f1d55ffced18eb2f13ffc16c98fa75cc7983eab9b821"),
    (3, 6, 120,
     "729c3883b65ead1e808424b2616bbeedd5141fe35eaff314157b654d969f9b48"),
])
def test_floss_ref_pinned_on_seeded_walks(seed, w, data_window, digest):
    """floss_ref's cac_final bytes and segments on seeded random walks,
    pinned by sha256: the reference known-answer test needs the reference's
    own data, so this keeps the online-CAC bookkeeping gated without it."""
    import hashlib
    import json

    from tsmp_ray.kernels.floss_ref import floss_ref

    x = np.cumsum(np.random.default_rng(seed).standard_normal(600))
    res = floss_ref(x[:data_window // 2], x[data_window // 2:], data_window, w)
    h = hashlib.sha256(np.asarray(res["cac_final"], np.float64).tobytes())
    h.update(json.dumps([list(map(int, res["floss"])),
                         list(map(float, res["floss_vals"]))]).encode())
    assert h.hexdigest() == digest

def test_valmod_equals_brute_window_sweep():
    """valmod equals an independent sweep: per window the brute-force
    profile scaled by 1/sqrt(w), min taken across windows (strict '<' keeps
    the smallest w) — including on inputs with NaNs and flat runs."""
    from tsmp_ray.kernels.brute import brute_mp

    rng = np.random.default_rng(42)
    clean = np.cumsum(rng.standard_normal(400))
    dirty = clean.copy()
    dirty[120:126] = np.nan
    dirty[200:240] = 3.25  # flat run → skip windows
    wmin, wmax = 12, 24
    for x in (clean, dirty):
        p_out = len(x) - wmin + 1
        mp = np.full(p_out, np.inf)
        raw = np.full(p_out, np.inf)
        best_w = np.full(p_out, -1)
        evolution = np.full(wmax - wmin + 1, np.inf)
        for w in range(wmin, wmax + 1):
            d = brute_mp(x, w).mp
            p = len(d)
            if np.isfinite(d).any():
                evolution[w - wmin] = d[np.isfinite(d)].min() ** 2 / np.sqrt(w)
            upd = d / np.sqrt(w) < mp[:p]
            mp[:p][upd] = d[upd] / np.sqrt(w)
            raw[:p][upd] = d[upd]
            best_w[:p][upd] = w
        vm = valmod(x, wmin, wmax)
        np.testing.assert_allclose(vm["mp"], mp, atol=2e-5)
        np.testing.assert_allclose(vm["mp_raw"], raw, atol=2e-5)
        assert (vm["w"] == best_w).all()
        np.testing.assert_allclose(vm["evolution_motif"], evolution, atol=2e-5)


def test_blocked_entry_points_keep_their_refusals():
    """fluss, sdts_train and StreamingProfile run the blocked kernel but
    refuse what stomp refused: w < 4 (stomp.R:48), the too-short band
    w > ceil(n/2) (stomp.R:95-97) and w > n. pmp and the AB joins accept
    what mpx accepted (any w, no length-order guard) and refuse only a
    side with no window (p < 1)."""
    from tsmp_ray.kernels.block_join import blocked_mp
    from tsmp_ray.kernels.sdts import sdts_train
    from tsmp_ray.kernels.stompi import StreamingProfile

    x = np.cumsum(np.random.default_rng(4).standard_normal(40))
    # one positive run of 39 points: sdts profiles [inf] + run, 40 points
    label = np.arange(40) < 39
    for name, run in [("fluss", lambda w: fluss(x, w)),
                      ("sdts_train", lambda w: sdts_train(x, label, w)),
                      ("StreamingProfile", lambda w: StreamingProfile(x, w))]:
        for w, msg in [(3, "at least 4"), (21, "too short"),
                       (41, "longer than series")]:
            with pytest.raises(ValueError, match=msg):
                run(w)
        run(20)  # w = ceil(n/2) is accepted, as stomp accepts it

    res = pmp(x, [3, 30])
    assert res["w"] == [3, 30] and len(res["pmp"][30]) == 11
    short = x[:10]  # shorter than the query and w > ceil(10/2)
    prof = blocked_mp(short, 8, query=x)
    assert len(prof.mp) == 3 and len(prof.mpb) == 33
    assert np.isfinite(mpdist(short, x, 8))
    for a, b in [(x[:7], x), (x, x[:7])]:
        with pytest.raises(ValueError, match="longer than series"):
            blocked_mp(a, 8, query=b)
