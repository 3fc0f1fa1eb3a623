"""The block-wide tier rollup against an independent per-series reference.

``reference_tiers`` is the per-(conversation, signal) fold the engine's
block plan replaced: one Python loop over packed rows, the raw series
stably sorted by ts on disorder, ``reduceat`` per series and tier, gap
rows interpolated with ``np.interp``. Every tier of ``tiers_from_packed``
must equal it bitwise — every column, NaNs included, and the row order —
on inputs the benchmarks never produce: shuffled rows over 16 blocks,
single-turn conversations, disordered and tied ts, gaps at the ``max_gap``
edge, no fill bound, no fill, zero rows, zero blocks and schema-less
empty blocks.
"""

import pathlib
import re

import numpy as np
import pyarrow as pa
import pytest

from tsmp_ray.config import SIGNALS, TIERS, EngineConfig
from tsmp_ray.sources.transcripts import synthetic_transcripts
from tsmp_ray.stages.rollup import _TIER_SCHEMA, tiers_from_packed
from tsmp_ray.stages.signals import pack_series

ALL_TIERS = ("1m", "1h", "1d")
MAX_GAP = EngineConfig().gap_fill_max_buckets
MINUTE = TIERS["1m"]
T0 = 1_704_067_200_000_000


# ------------------------------------------------ per-series reference


def _ref_missing(bts, width, max_gap):
    if len(bts) < 2:
        return np.empty(0, dtype=np.int64)
    if max_gap is not None:
        gaps = np.diff(bts) // width
        idx = np.flatnonzero((gaps > 1) & (gaps <= max_gap))
        return (np.concatenate([np.arange(bts[i] + width, bts[i + 1], width)
                                for i in idx])
                if len(idx) else np.empty(0, dtype=np.int64))
    full = np.arange(bts[0], bts[-1] + width, width)
    return np.setdiff1d(full, bts)


_FILL = {"n": np.int64(0), "sum_v": np.nan, "min_v": np.nan,
         "max_v": np.nan, "sumsq": np.nan, "first_ts": np.int64(-1),
         "first_v": np.nan, "last_ts": np.int64(-1), "last_v": np.nan}


def _ref_fold(p, width):
    b = (p["bucket_ts"] // width) * width
    starts = np.flatnonzero(np.concatenate([[True], b[1:] != b[:-1]]))
    ends = np.concatenate([starts[1:], [len(b)]])
    return {
        "bucket_ts": b[starts],
        "n": np.add.reduceat(p["n"], starts),
        "sum_v": np.add.reduceat(p["sum_v"], starts),
        "min_v": np.minimum.reduceat(p["min_v"], starts),
        "max_v": np.maximum.reduceat(p["max_v"], starts),
        "sumsq": np.add.reduceat(p["sumsq"], starts),
        "first_ts": p["first_ts"][starts], "first_v": p["first_v"][starts],
        "last_ts": p["last_ts"][ends - 1], "last_v": p["last_v"][ends - 1],
    }


def _ref_emit(p, width, gap_fill, max_gap):
    bts = p["bucket_ts"]
    mean = p["sum_v"] / p["n"]
    out = {**p, "mean_v": mean, "gap_filled": np.zeros(len(bts), dtype=bool)}
    missing = _ref_missing(bts, width, max_gap) if gap_fill else []
    if not len(missing):
        return out
    nm = len(missing)
    merged = {"bucket_ts": np.concatenate([bts, missing])}
    for k, v in _FILL.items():
        dt = np.int64 if isinstance(v, np.integer) else np.float64
        merged[k] = np.concatenate([p[k], np.full(nm, v, dtype=dt)])
    merged["mean_v"] = np.concatenate([mean, np.interp(missing, bts, mean)])
    merged["gap_filled"] = np.concatenate([np.zeros(len(bts), dtype=bool),
                                           np.ones(nm, dtype=bool)])
    order = np.argsort(merged["bucket_ts"], kind="stable")
    return {k: a[order] for k, a in merged.items()}


def reference_tiers(packed: pa.Table, tiers, gap_fill, max_gap):
    """{tier: table}: one (conv, signal) series at a time, in row order."""
    rows = {t: [] for t in tiers}
    for r, conv in enumerate(packed["conv_id"].to_pylist()):
        ts = np.asarray(packed["ts"][r].as_py(), dtype=np.int64)
        order = np.argsort(ts, kind="stable")
        ts = ts[order]
        for sig in SIGNALS:
            v = np.asarray(packed[sig][r].as_py(), dtype=np.float64)[order]
            part = {"bucket_ts": ts, "n": np.ones(len(ts), np.int64),
                    "sum_v": v, "min_v": v, "max_v": v, "sumsq": v * v,
                    "first_ts": ts, "first_v": v, "last_ts": ts, "last_v": v}
            for t in tiers:
                part = _ref_fold(part, TIERS[t])
                emit = _ref_emit(part, TIERS[t], gap_fill, max_gap)
                n = len(emit["bucket_ts"])
                rows[t].append(pa.table({
                    "conv_id": [conv] * n, "signal": [sig] * n,
                    **{c: emit[c] for c in _TIER_SCHEMA.names[2:]}},
                    schema=_TIER_SCHEMA))
    return {t: pa.concat_tables([_TIER_SCHEMA.empty_table(), *ts])
            for t, ts in rows.items()}


# ------------------------------------------------------------- inputs


def _packed_table(tbl: pa.Table) -> pa.Table:
    import ray

    blocks = ray.get(pack_series(ray.data.from_arrow(tbl)).to_arrow_refs())
    return pa.concat_tables([b for b in blocks if b.num_rows])


def _turns(spans: dict[str, list[int]]) -> pa.Table:
    """Hand-built transcripts: conv -> the minute offset of each turn."""
    rows = [(c, i, T0 + m * MINUTE) for c, ms in spans.items()
            for i, m in enumerate(ms)]
    return pa.table({
        "conv_id": [r[0] for r in rows],
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "text": ["ab" * (r[1] % 7 + 1) for r in rows],
        "tool": ["t" if r[1] % 3 == 0 else "" for r in rows],
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
    })


def _shuffled_blocks(n_blocks=16):
    import ray

    packed = _packed_table(synthetic_transcripts(n_convs=40, seed=21,
                                                 mean_turns=60))
    perm = np.random.default_rng(5).permutation(packed.num_rows)
    packed = packed.take(pa.array(perm))
    edges = np.linspace(0, packed.num_rows, n_blocks + 1).astype(int)
    return ray.data.from_arrow([packed.slice(a, b - a)
                                for a, b in zip(edges[:-1], edges[1:])])


def _single_turns():
    import ray

    spans = {f"conv{i:06d}": [3 * i] for i in range(6)}
    spans["conv000009"] = [0, 1, 2, 70]
    return ray.data.from_arrow(_packed_table(_turns(spans)))


def _disordered_tied():
    """One conversation's ts run backwards in turn_idx with ties (turns 1,
    2 share a minute stamp with turns 4, 5); its neighbours are ordered."""
    import ray

    spans = {"conv000000": [0, 1, 5, 9],
             "conv000001": [40, 12, 12, 30, 12, 12, 3, 3],
             "conv000002": [2, 2, 8]}
    return ray.data.from_arrow(_packed_table(_turns(spans)))


def _max_gap_edges():
    """A gap of exactly ``MAX_GAP`` minute buckets and one of
    ``MAX_GAP + 1``, plus an hour-scale gap for the coarser tiers."""
    import ray

    spans = {"conv000000": [0, 1, 1 + MAX_GAP],
             "conv000001": [0, 1, 2 + MAX_GAP],
             "conv000002": [0, 2, 60 * (MAX_GAP + 1), 60 * (MAX_GAP + 3)]}
    return ray.data.from_arrow(_packed_table(_turns(spans)))


def _zero_rows():
    import ray

    packed = _packed_table(_turns({"conv000000": [0, 1]}))
    return ray.data.from_arrow(packed.slice(0, 0))


def _zero_blocks():
    return _zero_rows().limit(0)


def _schema_less_blocks():
    import ray

    packed = _packed_table(synthetic_transcripts(n_convs=6, seed=8,
                                                 mean_turns=40))
    empty = pa.table({})
    parts = [empty, packed.slice(0, 2), empty, packed.slice(2), empty]
    return ray.data.from_arrow_refs([ray.put(p) for p in parts])


CASES = {
    "shuffled_16_blocks": (_shuffled_blocks, dict(max_gap=MAX_GAP)),
    "single_turn_convs": (_single_turns, dict(max_gap=MAX_GAP)),
    "disordered_tied_ts": (_disordered_tied, dict(max_gap=MAX_GAP)),
    "max_gap_edges": (_max_gap_edges, dict(max_gap=MAX_GAP)),
    "max_gap_none": (_shuffled_blocks, dict(max_gap=None)),
    "gap_fill_false": (_shuffled_blocks, dict(gap_fill=False)),
    "zero_rows": (_zero_rows, dict(max_gap=MAX_GAP)),
    "zero_blocks": (_zero_blocks, dict(max_gap=MAX_GAP)),
    "schema_less_empty_blocks": (_schema_less_blocks, dict(max_gap=MAX_GAP)),
}


def _bitwise_equal(a: pa.Table, b: pa.Table) -> bool:
    if a.num_rows != b.num_rows or a.column_names != b.column_names:
        return False
    for c in a.column_names:
        x, y = a[c].to_numpy(), b[c].to_numpy()
        if x.dtype.kind == "f":
            x, y = x.view(np.int64), y.view(np.int64)
        if not np.array_equal(x, y):
            return False
    return True


@pytest.mark.parametrize("case", sorted(CASES))
def test_tiers_equal_per_series_reference(ray_session, schema_divergences,
                                          case):
    import ray

    build, kw = CASES[case]
    ds = build().materialize()
    refs = [r for b in ds.iter_internal_ref_bundles() for r in b.block_refs]
    assert bool(refs) == (case != "zero_blocks")
    rows = [t for t in ray.get(refs) if t.num_columns]
    packed = pa.concat_tables(rows) if rows else pa.table({"conv_id": []})
    want = reference_tiers(packed, ALL_TIERS, kw.get("gap_fill", True),
                           kw.get("max_gap"))
    got = tiers_from_packed(ds, tiers=ALL_TIERS,
                            gap_fill=kw.get("gap_fill", True),
                            max_gap=kw.get("max_gap"))
    for t in ALL_TIERS:
        tables = ray.get(got[t].to_arrow_refs())
        assert all(tb.schema.equals(_TIER_SCHEMA) for tb in tables), t
        assert got[t].schema().base_schema.equals(_TIER_SCHEMA), t
        assert _bitwise_equal(pa.concat_tables(
            [_TIER_SCHEMA.empty_table(), *tables]), want[t]), (case, t)
    if case == "max_gap_edges":  # the MAX_GAP gap filled, one wider not
        m = want["1m"].filter(want["1m"]["gap_filled"])
        convs, n = np.unique(m["conv_id"].to_numpy(zero_copy_only=False),
                             return_counts=True)
        assert dict(zip(convs, n)) == {"conv000000": 3 * (MAX_GAP - 1),
                                       "conv000002": 3}
    if not case.startswith("zero"):
        assert want["1m"].num_rows > 0
    assert schema_divergences.n == 0


def test_tiers_are_materialized_and_rollup_filters_nothing(ray_session):
    """Every tier comes back materialized, so a consumer's ``.materialize()``
    runs nothing; and the rollup plan has no per-tier ``filter`` pass."""
    from ray.data.dataset import MaterializedDataset

    got = tiers_from_packed(_single_turns(), tiers=ALL_TIERS, gap_fill=True,
                            max_gap=None)
    assert set(got) == set(ALL_TIERS)
    assert all(isinstance(ds, MaterializedDataset) for ds in got.values())
    path = (pathlib.Path(__file__).resolve().parent.parent / "tsmp_ray"
            / "stages" / "rollup.py")
    hits = [f"{i}: {line.strip()}"
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"\.filter\(", line)]
    assert not hits, "\n".join(hits)
