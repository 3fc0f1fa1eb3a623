"""Kernel-registry extension surface."""

import numpy as np
import pyarrow as pa
import pytest


def test_register_and_run(ray_session):
    import ray

    from tsmp_ray.functions.registry import (
        get_kernel, kernel_stage, list_kernels, register_kernel,
    )
    from tsmp_ray.sources.transcripts import synthetic_transcripts
    from tsmp_ray.stages.signals import pack_series

    assert {"matrix_profile", "cac", "zscore"} <= set(list_kernels())

    @register_kernel("range_ratio", {"rr": pa.float64()})
    def _rr(series, w: int = 4):
        from tsmp_ray.kernels.movstats import movmax, movmin

        hi, lo = movmax(series, w), movmin(series, w)
        return {"rr": (hi - lo) / (np.abs(hi) + np.abs(lo) + 1e-9)}

    assert get_kernel("range_ratio") is _rr
    with pytest.raises(KeyError):
        get_kernel("nope")

    tbl = synthetic_transcripts(n_convs=3, seed=17, mean_turns=60)
    packed = pack_series(ray.data.from_arrow(tbl))
    out = kernel_stage(packed, "range_ratio", signal="text_len", w=4).to_pandas()
    assert len(out) > 0
    assert out["rr"].between(0, 1).all()
    mp_out = kernel_stage(packed, "matrix_profile", signal="text_len", w=8).to_pandas()
    assert {"conv_id", "idx", "mp", "pi"} <= set(mp_out.columns)

    # batched emit == independent per-conv reference (values AND dtypes)
    from tsmp_ray.kernels.mpx import mpx

    ref = {}
    for row in packed.to_pandas().itertuples():
        prof = mpx(np.asarray(row.text_len, dtype=np.float64), 8)
        ref[row.conv_id] = prof
    for cid, grp in mp_out.groupby("conv_id"):
        grp = grp.sort_values("idx")
        assert np.array_equal(grp["idx"].to_numpy(),
                              np.arange(len(ref[cid].mp)))
        np.testing.assert_array_equal(grp["mp"].to_numpy(), ref[cid].mp)
        np.testing.assert_array_equal(grp["pi"].to_numpy(), ref[cid].pi)
    assert set(mp_out["conv_id"]) == set(ref)


def test_kernel_stage_rejects_inconsistent_keys(ray_session):
    import ray

    from tsmp_ray.functions.registry import kernel_stage, register_kernel
    from tsmp_ray.sources.transcripts import synthetic_transcripts
    from tsmp_ray.stages.signals import pack_series

    flip = {"n": 0}

    @register_kernel("_alternating_keys", {"a": pa.float64()})
    def _alt(series):
        flip["n"] += 1
        key = "a" if flip["n"] % 2 else "b"
        return {key: np.zeros(4)}

    tbl = synthetic_transcripts(n_convs=2, seed=3, mean_turns=30)
    packed = pack_series(ray.data.from_arrow(tbl)).repartition(1)
    with pytest.raises(Exception, match="returned keys"):
        kernel_stage(packed, "_alternating_keys").to_pandas()


def test_kernel_stage_rejects_key_drift_across_blocks(ray_session):
    """A kernel whose key set changes between blocks raises: each
    conversation is checked against the declared columns, so 8 single-conv
    blocks returning {a} and 8 returning {b} cannot come back as one
    Dataset null-filled in both columns."""
    import ray

    from tsmp_ray.functions.registry import kernel_stage, register_kernel

    @register_kernel("_drifting_keys", {"a": pa.float64()})
    def _drift(series):
        return {"a" if series[0] == 0 else "b": np.zeros(3)}

    blocks = [pa.table({"conv_id": [f"c{i:02d}"],
                        "text_len": pa.array([[float(i >= 8)] * 3],
                                             pa.list_(pa.float64()))})
              for i in range(16)]
    packed = ray.data.from_arrow(blocks)
    assert packed.num_blocks() == 16
    with pytest.raises(Exception, match="returned keys"):
        kernel_stage(packed, "_drifting_keys").to_pandas()


def test_kernel_stage_rejects_unequal_lengths(ray_session):
    """Per-key arrays of different lengths within one conversation must
    raise — the batched per-key concatenation would otherwise silently
    misalign rows across keys (per-key totals can still agree batch-wide)."""
    import ray

    from tsmp_ray.functions.registry import kernel_stage, register_kernel
    from tsmp_ray.sources.transcripts import synthetic_transcripts
    from tsmp_ray.stages.signals import pack_series

    @register_kernel("_ragged_keys", {"a": pa.float64(), "b": pa.float64()})
    def _ragged(series):
        return {"a": np.zeros(5), "b": np.zeros(4)}

    tbl = synthetic_transcripts(n_convs=2, seed=3, mean_turns=30)
    packed = pack_series(ray.data.from_arrow(tbl)).repartition(1)
    with pytest.raises(Exception, match="unequal lengths"):
        kernel_stage(packed, "_ragged_keys").to_pandas()


def test_kernel_stage_empty_input(ray_session):
    """Zero-conversation input returns zero rows typed by the kernel's
    declared columns."""
    import ray

    from tsmp_ray.functions.registry import kernel_stage
    from tsmp_ray.sources.transcripts import synthetic_transcripts
    from tsmp_ray.stages.signals import pack_series

    tbl = synthetic_transcripts(n_convs=2, seed=3, mean_turns=30)
    packed = pack_series(ray.data.from_arrow(tbl)) \
        .filter(expr="n_turns > 1000000")
    out = kernel_stage(packed, "zscore")
    assert out.schema().names == ["conv_id", "idx", "z"]
    assert len(out.to_pandas()) == 0


def test_materialize_shared_ctes_rules():
    """The oracle-SQL rewriter: multiply-referenced CTEs get MATERIALIZED,
    single-reference and self-referencing (recursive) CTEs are left alone,
    and WINDOW clauses never match the definition pattern — the rules the
    whole ORACLES dict relies on (row-identity A/B'd per oracle; this pins
    the regex mechanics against future SQL edits)."""
    from tsmp_ray.pipelines.queries import ORACLES, _materialize_shared_ctes

    sql = (
        "WITH RECURSIVE head AS (SELECT 1 AS x)\n"
        ", shared AS (SELECT x FROM head)\n"
        ", single AS (SELECT x + 1 AS y FROM shared)\n"
        ", walk AS (SELECT x FROM shared UNION ALL"
        " SELECT x + 1 FROM walk WHERE x < 3)\n"
        "SELECT shared.x, w.x, s.y, avg(shared.x) OVER win\n"
        "FROM shared, walk w, single s\n"
        "WINDOW win AS (PARTITION BY shared.x)"
    )
    out = _materialize_shared_ctes(sql)
    # shared: 4 refs -> materialized; head: 1 ref (shared's body) ->
    # untouched; walk: self-referencing -> untouched; single: 1 ref ->
    # untouched; WINDOW untouched
    assert ", shared AS MATERIALIZED (" in out
    assert out.count("MATERIALIZED") == 1
    assert "walk AS (" in out and "single AS (" in out
    assert "head AS (" in out
    assert "WINDOW win AS (PARTITION" in out
    # a multiply-referenced WITH-head CTE is covered too, and a WITH-head
    # that is itself the recursive member stays untouched
    out2 = _materialize_shared_ctes(
        "WITH base AS (SELECT 1 AS x)\n, a AS (SELECT x FROM base)\n"
        "SELECT a.x FROM a, base")
    assert "WITH base AS MATERIALIZED (" in out2
    rec = ("WITH RECURSIVE r AS (SELECT 1 AS x UNION ALL"
           " SELECT x + 1 FROM r WHERE x < 3)\nSELECT * FROM r, r AS r2")
    assert _materialize_shared_ctes(rec) == rec
    # a comma-separated multi-entry WINDOW clause: the 2nd+ entries start
    # with ', ' (the definition alternative) but are masked out — neither
    # gets MATERIALIZED even when referenced by several OVER clauses
    multi_win = (
        "WITH shared AS (SELECT 1 AS x)\n"
        ", other AS (SELECT 2 AS y)\n"
        "SELECT avg(s2.x) OVER wa, sum(s2.x) OVER wb, min(s2.x) OVER wb,\n"
        "  max(shared.x) OVER wa FROM shared, shared AS s2, other\n"
        "WINDOW wa AS (PARTITION BY shared.x), wb AS (ORDER BY s2.x"
        " ROWS BETWEEN coalesce(1, 2) PRECEDING AND CURRENT ROW)"
    )
    out3 = _materialize_shared_ctes(multi_win)
    assert "WITH shared AS MATERIALIZED (" in out3
    assert "wa AS (PARTITION" in out3 and "wb AS (ORDER BY" in out3
    assert out3.count("MATERIALIZED") == 1
    import duckdb
    assert duckdb.sql(out3).fetchall() == duckdb.sql(multi_win).fetchall()
    # idempotent: marked CTEs no longer match the definition pattern
    assert _materialize_shared_ctes(out) == out
    assert _materialize_shared_ctes(out3) == out3
    # and the real dict went through it: the known-heavy oracles are marked
    for name in ("snippets_checked", "mstomp_checked", "chains_checked"):
        assert "MATERIALIZED" in ORACLES[name], name


def test_cac_kernel_skips_short_series():
    """stomp now mirrors the reference's too-short guard (w > ceil(n/2)
    raises); the registry 'cac' kernel must not let that fail a whole
    kernel_stage pass — a conv with n < 2w contributes zero rows instead
    (the stage-wide `len < 2w → skip` convention)."""
    from tsmp_ray.functions.registry import get_kernel

    cac = get_kernel("cac")
    out = cac(np.arange(12, dtype=np.float64), w=8)
    assert out["cac"].size == 0
    rng = np.random.default_rng(3)
    out = cac(np.cumsum(rng.standard_normal(64)), w=8)
    assert out["cac"].size > 0
