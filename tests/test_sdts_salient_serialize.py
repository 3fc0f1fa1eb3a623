"""SDTS train/predict/score, salient subsequences + MDS + score, and the
FLOSS streaming stage."""

import numpy as np
import pytest

from tsmp_ray.kernels.stomp import stomp
from tsmp_ray.kernels.sdts import sdts_predict, sdts_score, sdts_train
from tsmp_ray.kernels.salient import (
    discrete_norm, discrete_norm_pre, salient_mds, salient_score,
    salient_subsequences,
)


def labeled_series(n=1200, w=24, n_events=6, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 0.3
    label = np.zeros(n, dtype=bool)
    pattern = np.sin(np.linspace(0, 2 * np.pi, w)) * 3
    starts = np.linspace(60, n - 2 * w, n_events).astype(int)
    for s in starts:
        x[s : s + w] = pattern + rng.standard_normal(w) * 0.1
        label[s : s + w] = True
    return x, label, starts


def test_sdts_train_predict_score():
    x, label, starts = labeled_series()
    w = 24
    model = sdts_train(x, label, w, beta=1.0)
    assert model.patterns and len(model.patterns) == len(model.tholds)
    assert model.score > 0.5
    pred = sdts_predict(model, x)
    score = sdts_score(pred, label[: len(pred)], sub_len=w)
    assert score["f_score"] > 0.6
    # detects events in unseen data with the same pattern
    x2, label2, _ = labeled_series(seed=9)
    pred2 = sdts_predict(model, x2)
    score2 = sdts_score(pred2, label2[: len(pred2)], sub_len=w)
    assert score2["f_score"] > 0.5


def test_sdts_score_edge_cases():
    assert sdts_score(np.zeros(10, bool), np.zeros(10, bool))["f_score"] == 0.0
    p = np.zeros(50, bool); p[10:20] = True
    assert sdts_score(p, p)["f_score"] == 1.0


def test_discrete_norm_bounds():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(300)
    mn, mx = discrete_norm_pre(x, 16)
    q = discrete_norm(x[10:26], 4, mx, mn)
    assert q.min() >= 1 and q.max() <= 16


def test_salient_finds_repeated_structure():
    x, label, starts = labeled_series(n=1500, w=24, n_events=8, seed=5)
    w = 24
    prof = stomp(x, w)
    sal = salient_subsequences(x, prof, n_bits=6, n_cand=8)
    assert len(sal["indexes"]) > 0
    # most selected windows are near planted events
    near = sum(np.abs(i - starts).min() < w for i in sal["indexes"][:6])
    assert near >= 3
    score = salient_score(sal, starts, w)
    assert 0.0 <= score["f_score"] <= 1.0
    mds = salient_mds(x, sal)
    assert mds.shape == (len(sal["indexes"]), 2)


def test_floss_streaming_state_detects_regime():
    from tsmp_ray.stages.floss_stage import FlossState

    rng = np.random.default_rng(4)
    n = 1200
    a = np.sin(np.linspace(0, 60 * np.pi, n // 2)) + rng.standard_normal(n // 2) * 0.1
    b = np.sign(np.sin(np.linspace(0, 24 * np.pi, n // 2))) + rng.standard_normal(n // 2) * 0.1
    x = np.concatenate([a, b])
    st = FlossState(w=25, data_window=400, threshold=0.5)
    st.append(x, chunk=50)
    assert st.segments, "no regime change detected"
    assert any(abs(s - n // 2) < 150 for s in st.segments)


def test_floss_stage_over_dataset(ray_session):
    import ray

    from tsmp_ray.sources.transcripts import synthetic_transcripts
    from tsmp_ray.stages.floss_stage import FlossState, floss_op
    from tsmp_ray.stages.mining_stage import per_conv_stage
    from tsmp_ray.stages.signals import pack_series

    tbl = synthetic_transcripts(n_convs=4, seed=13, mean_turns=150)
    packed = pack_series(ray.data.from_arrow(tbl))
    out = per_conv_stage(packed, floss_op, {"w": 8, "data_window": 120,
                                            "threshold": 0.6}).to_pandas()
    assert len(out) == packed.count()
    # the stage must equal a local FlossState replay per conv (same params
    # incl. the op's chunk=50) — `n_segments >= 0` alone could never fail
    # for a count column
    want = {}
    for row in packed.to_pandas().itertuples():
        st = FlossState(8, 120, threshold=0.6)
        st.append(np.asarray(row.tool_call, dtype=np.float64), chunk=50)
        want[row.conv_id] = list(st.segments)
    assert len(want) == len(out)
    got_any = False
    for r in out.itertuples():
        assert list(r.segments) == want[r.conv_id]
        got_any = got_any or len(want[r.conv_id]) > 0
    assert got_any  # at least one conv segments on this fixture
