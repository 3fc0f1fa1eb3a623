"""Training-data pipeline ops: dedup family, text analysis, KNN, multimodal
plumbing. Uses planted-duplicate synthetic docs plus the driver's
documents/embeddings tables."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def docs_with_dups():
    base = [
        "the quick brown fox jumps over the lazy dog and runs away fast",
        "a stream of arrow batches flows through the ray data pipeline today",
        "matrix profile kernels compute sliding window distances efficiently",
        "completely unrelated text about cooking pasta with tomato sauce",
    ]
    rows = []
    did = 0
    for b in base:
        rows.append((did, b)); did += 1
    # exact duplicates
    rows.append((did, base[0])); did += 1
    rows.append((did, base[1])); did += 1
    # near duplicate: one word changed
    rows.append((did, base[0].replace("lazy", "sleepy"))); did += 1
    # near duplicate: word appended
    rows.append((did, base[2] + " indeed")); did += 1
    return pa.table({"doc_id": pa.array([r[0] for r in rows], pa.int64()),
                     "text": pa.array([r[1] for r in rows])})


def test_exact_dedup(ray_session):
    import ray
    from tsmp_ray.stages.dedup import exact_dedup

    ds = ray.data.from_arrow(docs_with_dups())
    kept = exact_dedup(ds).to_pandas().sort_values("doc_id")
    # 8 docs, 2 exact dups -> 6 kept, min ids win
    assert len(kept) == 6
    assert set(kept["doc_id"]) == {0, 1, 2, 3, 6, 7}


def test_exact_dedup_keeps_whole_rows(ray_session):
    """The survivor is the min-id ROW: a null field on the winner stays
    null instead of inheriting the loser's value (pandas groupby().first()
    takes the first NON-NULL per column — the chimera-row bug this pins)."""
    import ray
    from tsmp_ray.stages.dedup import exact_dedup

    t = pa.table({
        "doc_id": pa.array([3, 7], pa.int64()),
        "text": pa.array(["same text", "same text"]),
        "lang": pa.array([None, "fr"], pa.string()),
    })
    kept = exact_dedup(ray.data.from_arrow(t)).to_pandas()
    assert len(kept) == 1
    assert kept["doc_id"].iloc[0] == 3
    assert pd.isna(kept["lang"].iloc[0])


def test_minhash_lsh_dedup(ray_session):
    import ray
    from tsmp_ray.stages.dedup import minhash_lsh_dedup

    ds = ray.data.from_arrow(docs_with_dups())
    pairs = minhash_lsh_dedup(ds, threshold=0.5).to_pandas()
    got = set(map(tuple, pairs[["doc_id", "dup_id"]].to_numpy()))
    assert (0, 4) in got          # exact dup pair
    assert (1, 5) in got
    assert (0, 6) in got          # near dup (one word)
    assert (2, 7) in got          # near dup (appended word)
    assert not any((a == 3 or b == 3) for a, b in got)  # unrelated text clean


def test_minhash_verify_join_path_equals_broadcast(ray_session):
    """_verify_jaccard's size gate: the two-pass sort-join plan (big
    candidate-text side) must produce identical pairs to the default
    broadcast-lookup plan (small side)."""
    import ray
    from tsmp_ray.stages import dedup as dd

    ds = ray.data.from_arrow(docs_with_dups())
    bc = dd.minhash_lsh_dedup(ds, threshold=0.5).to_pandas()
    jn = dd.minhash_lsh_dedup(ds, threshold=0.5, force_join=True).to_pandas()
    key = lambda df: sorted(map(tuple, df[["doc_id", "dup_id", "jaccard"]]
                                .to_numpy().tolist()))
    assert key(bc) == key(jn)


def test_bucket_pairs_sort_plan(ray_session):
    """The bucket sort puts each bucket in one block: a hot bucket spread
    over 16 row-shuffled input blocks yields every C(n, 2) pair exactly once
    with both sides' carries; an all-one-key input (every range partition
    but one empty) and a 0-row input stay correct."""
    import itertools

    import pyarrow.compute as pc
    import ray
    from tsmp_ray.stages.dedup import _bucket_pairs

    rng = np.random.default_rng(11)
    hot = np.arange(40, dtype=np.int64)
    single = np.arange(100, 300, dtype=np.int64)
    doc = np.concatenate([hot, single])
    tbl = pa.table({
        "band": pa.array(np.concatenate([np.zeros(40), np.ones(200)])
                         .astype(np.int64)),
        "bhash": pa.array(np.concatenate([np.full(40, 7), single])
                          .astype(np.int64)),
        "doc_id": pa.array(doc),
        "sig": pa.array(doc * 1000 + 1),
    }).take(pa.array(rng.permutation(240)))

    def pairs(t, blocks):
        ds = ray.data.from_arrow(t)
        if blocks:
            ds = ds.repartition(blocks)
        return _bucket_pairs(ds, ["band", "bhash"],
                             carry={"sig": pa.int64()}).to_pandas()

    want = list(itertools.combinations(range(40), 2))
    got = pairs(tbl, 16)
    assert sorted(map(tuple, got[["doc_id", "dup_id"]].to_numpy().tolist())) \
        == want
    assert (got["sig_a"] == got["doc_id"] * 1000 + 1).all()
    assert (got["sig_b"] == got["dup_id"] * 1000 + 1).all()

    hot_only = tbl.filter(pc.equal(tbl["band"], 0))
    got = pairs(hot_only, 16)
    assert len(got) == len(want)
    assert set(map(tuple, got[["doc_id", "dup_id"]].to_numpy().tolist())) \
        == set(want)

    assert len(pairs(tbl.slice(0, 0), 0)) == 0


def test_sort_map_never_calls_fn_on_an_empty_partition(ray_session):
    """``signals.sort_map`` never calls ``fn`` (which raises on 0 rows) on a
    0-row sort partition, neither for an all-one-key input over 16 blocks
    (every range partition but one empty) nor for a 0-row input; every
    block with columns carries ``fn``'s schema, and the operator keeps
    ``fn``'s name. The Ray contract this rests on, which no engine batch
    UDF re-checks: neither ``sort_map`` nor a plain pyarrow
    ``map_batches`` calls its UDF on a 0-row block, for a 0-row typed
    input and for one row over 16 blocks alike."""
    import ray
    from tsmp_ray.stages.signals import key_runs, sort_map

    schema = pa.schema([("k", pa.int64()), ("n", pa.int64())])

    def count_per_key(batch: pa.Table) -> pa.Table:
        assert batch.num_rows, "fn called on a 0-row partition"
        batch, bounds = key_runs(batch, ["k"])
        return pa.table({"k": batch["k"].take(pa.array(bounds[:-1])),
                         "n": pa.array(np.diff(bounds))}, schema=schema)

    one_key = pa.table({"k": pa.array(np.full(64, 7), pa.int64()),
                        "v": pa.array(np.arange(64))})
    got = sort_map(ray.data.from_arrow(one_key).repartition(16), "k",
                   count_per_key).materialize()
    assert got.to_pandas().to_dict("list") == {"k": [7], "n": [64]}
    assert "MapBatches(count_per_key)" in got.stats()
    assert all(t.schema.equals(schema) for t in ray.get(got.to_arrow_refs())
               if t.num_columns)

    empty = sort_map(ray.data.from_arrow(one_key.slice(0, 0)), "k",
                     count_per_key)
    assert empty.count() == 0

    one_row = ray.data.from_arrow(one_key.slice(0, 1)).repartition(16)
    assert one_row.materialize().num_blocks() == 16
    for ds, want in ((ray.data.from_arrow(one_key.slice(0, 0)), []),
                     (one_row, [{"k": 7, "n": 1}])):
        for out in (sort_map(ds, "k", count_per_key),
                    ds.map_batches(count_per_key, batch_format="pyarrow")):
            out = out.materialize()
            assert out.take_all() == want
            assert all(t.schema.equals(schema) for t in
                       ray.get(out.to_arrow_refs()) if t.num_columns)


def _one_key_inputs():
    """Each dedup op's input where every row shares one key, spread over 16
    row-shuffled blocks, with the op's declared schema and its expected
    rows: one text (the min-id row has a null ``lang``), one embedding, one
    pair hub."""
    from tsmp_ray.stages import dedup as dd

    n = 40
    ids = np.arange(5, 5 + n, dtype=np.int64)
    text = "one text shared by every document of this corpus"
    docs = pa.table({"doc_id": pa.array(ids), "text": pa.array([text] * n),
                     "lang": pa.array([None] + ["en"] * (n - 1),
                                      pa.string())})
    pairs = [tuple(p) for p in zip(*np.triu_indices(n, k=1))]
    all_pairs = {"doc_id": [int(ids[a]) for a, _ in pairs],
                 "dup_id": [int(ids[b]) for _, b in pairs]}
    emb = pa.table({"vec_id": pa.array(ids), "embedding": pa.array(
        [np.linspace(1.0, 2.0, 16)] * n)})
    hub = pa.table({"doc_id": pa.array(np.full(n - 1, ids[0])),
                    "dup_id": pa.array(ids[1:])})
    return {
        "exact_dedup": (dd.exact_dedup, docs, docs.schema, {
            "doc_id": [5], "text": [text], "lang": [None]}),
        "minhash_lsh_dedup": (dd.minhash_lsh_dedup,
                              docs.select(["doc_id", "text"]),
                              dd._PAIR_JACCARD_SCHEMA,
                              {**all_pairs, "jaccard": [1.0] * len(pairs)}),
        "simhash_dedup": (dd.simhash_dedup, docs.select(["doc_id", "text"]),
                          dd._HAMMING_SCHEMA,
                          {**all_pairs, "hamming": [0] * len(pairs)}),
        "embedding_dedup_lsh": (dd.embedding_dedup_lsh, emb,
                                dd._EMB_PAIR_SCHEMA, {
                                    "vec_id": all_pairs["doc_id"],
                                    "dup_id": all_pairs["dup_id"]}),
        "dup_components": (dd.dup_components, hub, dd._COMP_SCHEMA, {
            "doc_id": ids.tolist(), "component": [5] * n}),
    }


@pytest.mark.parametrize("op", ["exact_dedup", "minhash_lsh_dedup",
                                "simhash_dedup", "embedding_dedup_lsh",
                                "dup_components"])
def test_dedup_ops_emit_declared_schema(ray_session, op):
    """Every dedup op returns exactly its declared Arrow schema and 0 rows
    on a 0-row input, and the right rows on an all-one-key input over 16
    blocks (``exact_dedup`` keeps the min-id row whole, null ``lang``
    included)."""
    import ray

    fn, tbl, schema, want = _one_key_inputs()[op]
    perm = np.random.default_rng(11).permutation(tbl.num_rows)

    empty = fn(ray.data.from_arrow(tbl.slice(0, 0))).materialize()
    assert empty.count() == 0
    assert empty.schema().base_schema.equals(schema)

    got = fn(ray.data.from_arrow(tbl.take(pa.array(perm)))
             .repartition(16)).materialize()
    assert got.schema().base_schema.equals(schema)
    assert all(t.schema.equals(schema) for t in ray.get(got.to_arrow_refs())
               if t.num_columns)
    got = got.to_pandas().sort_values(list(want)[:2], ignore_index=True)
    if op == "embedding_dedup_lsh":
        assert (got["cosine"] >= 0.95).all()
    for col, values in want.items():
        assert got[col].tolist() == values, col


def test_simhash_dedup(ray_session):
    import ray
    from tsmp_ray.stages.dedup import simhash_dedup

    ds = ray.data.from_arrow(docs_with_dups())
    pairs = simhash_dedup(ds, max_hamming=6).to_pandas()
    got = set(map(tuple, pairs[["doc_id", "dup_id"]].to_numpy()))
    assert (0, 4) in got and (1, 5) in got  # exact dups hamming 0
    ham = dict(((a, b), h) for a, b, h in
               pairs[["doc_id", "dup_id", "hamming"]].to_numpy())
    assert ham[(0, 4)] == 0


def test_ngram_jaccard():
    from tsmp_ray.stages.dedup import ngram_jaccard

    assert ngram_jaccard("a b c d e", "a b c d e") == 1.0
    assert ngram_jaccard("a b c d e", "x y z w v") == 0.0
    mid = ngram_jaccard("a b c d e f g h", "a b c d e f g x")
    assert 0.3 < mid < 0.9


def test_embedding_dedup(ray_session):
    import ray
    from tsmp_ray.stages.dedup import embedding_dedup

    rng = np.random.default_rng(2)
    base = rng.standard_normal((20, 16))
    dup = base[3] + rng.standard_normal(16) * 0.01  # near-identical to row 3
    emb = np.vstack([base, dup])
    tbl = pa.table({"vec_id": pa.array(np.arange(21, dtype=np.int64)),
                    "embedding": pa.array(list(emb))})
    pairs = embedding_dedup(ray.data.from_arrow(tbl), threshold=0.95).to_pandas()
    assert (3, 20) in set(map(tuple, pairs[["vec_id", "dup_id"]].to_numpy()))


def test_lang_id():
    from tsmp_ray.stages.text import classify_lang

    assert classify_lang("the cat is on the mat and it is happy") == "en"
    assert classify_lang("der Hund ist nicht mit der Katze und das ist gut") == "de"
    assert classify_lang("le chat est dans la maison et il est pour dormir") == "fr"
    assert classify_lang("el perro es un animal y no es una planta") == "es"
    assert classify_lang("今天天气很好我们去公园") == "zh"


def test_token_counts_and_quality(ray_session):
    import ray
    from tsmp_ray.stages.text import quality_batch, token_counts

    ds = ray.data.read_parquet(f"{SF}/documents.parquet")
    tc = ds.map_batches(token_counts, batch_format="pyarrow").to_pandas()
    assert (tc["n_tokens"] > 0).all()
    assert (tc["n_pieces"] >= tc["n_tokens"]).all()
    q = ds.map_batches(quality_batch, batch_format="pyarrow").to_pandas()
    assert q["quality"].between(0, 1).all()
    assert q["punct_ratio"].between(0, 1).all()


def test_fingerprints_stability(ray_session):
    import ray
    from tsmp_ray.stages.text import fingerprints

    tbl = docs_with_dups()
    fp = ray.data.from_arrow(tbl).map_batches(fingerprints,
                                              batch_format="pyarrow").to_pandas()
    m = dict(zip(fp["doc_id"], fp["fingerprint"]))
    assert m[0] == m[4]  # identical text -> identical fingerprint
    assert m[0] != m[3]
    # near-dup shares most k-min hashes
    km = dict(zip(fp["doc_id"], fp["kmin_hashes"]))
    shared = len(set(km[0]) & set(km[6]))
    assert shared >= len(km[0]) // 2


def test_fingerprints_fold_is_warning_free_and_pinned():
    """The uint64 fold wraps mod 2**64 by design: it must not warn, and its
    values are pinned so a fix to the warning cannot move a fingerprint."""
    import warnings

    from tsmp_ray.stages.text import fingerprints

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": ["the quick brown fox jumps over the lazy dog again and again",
                 "a b c", "",
                 "one two three four five six seven eight nine ten eleven twelve"],
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = fingerprints(tbl)
    assert out["fingerprint"].to_pylist() == [
        573677597199981897, 2164578142528828063, 0, -8330976694502744537]
    assert out["kmin_hashes"].to_pylist()[1:3] == [
        [112844655, 1908338681, 3904355907], [0]]
    assert out["kmin_hashes"].to_pylist()[3][:2] == [
        1459575122960349894, 3759118554910537647]


def test_brute_force_topk_matches_numpy(ray_session):
    import ray
    from tsmp_ray.stages.knn import brute_force_topk

    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    pdf = ds.to_pandas()
    emb = np.stack([np.asarray(e, dtype=np.float64) for e in pdf["embedding"]])
    qids = pdf["vec_id"].to_numpy()[:5]
    qm = emb[:5]
    got = brute_force_topk(ds, qm, qids, k=7).to_pandas()
    # numpy oracle
    nemb = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    cos = nemb[:5] @ nemb.T
    for r, q in enumerate(qids):
        order = np.lexsort((pdf["vec_id"].to_numpy(), -cos[r]))[:7]
        want_ids = pdf["vec_id"].to_numpy()[order]
        g = got[got.query_id == q].sort_values("rank")
        assert list(g["vec_id"]) == list(want_ids)
        np.testing.assert_allclose(g["cosine"].to_numpy(), cos[r][order],
                                   atol=1e-12)


def test_stack_rejects_bad_embeddings():
    import pyarrow as pa
    import pytest

    from tsmp_ray.stages.knn import _stack

    good = pa.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(_stack(good), [[1.0, 2.0], [3.0, 4.0]])
    # row null (list_flatten would drop the row and shift the matrix)
    with pytest.raises(ValueError, match="null row"):
        _stack(pa.array([[1.0, 2.0], None], type=pa.list_(pa.float64())))
    # element null: NOT a row null (null_count == 0 at the column level)
    # but flattens to NaN and poisons every cosine touching the batch
    bad_elem = pa.array([[1.0, None], [3.0, 4.0]])
    assert bad_elem.null_count == 0
    with pytest.raises(ValueError, match="null element"):
        _stack(bad_elem)
    with pytest.raises(ValueError, match="empty"):
        _stack(pa.array([], type=pa.list_(pa.float64())))
    with pytest.raises(ValueError, match="ragged"):
        _stack(pa.array([[1.0, 2.0], [3.0, 4.0, 5.0]]))


def test_knn_handles_empty_filtered_batches(ray_session):
    # an upstream filter can hand partial_topk / probe_batch an empty block;
    # both must emit typed empty partials instead of raising (review r5)
    import ray

    from tsmp_ray.stages.knn import brute_force_topk, ivf_topk

    ds = (ray.data.read_parquet(f"{SF}/embeddings.parquet")
          .filter(expr="vec_id < 6"))
    pdf = ds.to_pandas().sort_values("vec_id")
    emb = np.stack([np.asarray(e, dtype=np.float64) for e in pdf["embedding"]])
    qids = pdf["vec_id"].to_numpy()[:2]
    got = brute_force_topk(ds, emb[:2], qids, k=3).to_pandas()
    assert set(got["query_id"]) == set(qids)
    got_ivf = ivf_topk(ds, emb[:2], qids, k=3, n_centroids=2,
                       nprobe=2).to_pandas()
    assert set(got_ivf["query_id"]) == set(qids)


def test_ivf_topk_recall(ray_session):
    import ray
    from tsmp_ray.stages.knn import brute_force_topk, ivf_topk

    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    pdf = ds.to_pandas()
    emb = np.stack([np.asarray(e, dtype=np.float64) for e in pdf["embedding"]])
    qids = pdf["vec_id"].to_numpy()[:5]
    exact = brute_force_topk(ds, emb[:5], qids, k=10).to_pandas()
    approx = ivf_topk(ds, emb[:5], qids, k=10, n_centroids=8, nprobe=3).to_pandas()
    recalls = []
    for q in qids:
        a = set(exact[exact.query_id == q]["vec_id"])
        b = set(approx[approx.query_id == q]["vec_id"])
        recalls.append(len(a & b) / len(a))
    assert np.mean(recalls) >= 0.6  # nprobe=3/8 buckets


def test_multimodal_codecs_roundtrip():
    """The real stdlib BMP codec round-trips bit-exactly."""
    from tsmp_ray.stages.multimodal import decode_bmp, encode_bmp

    rng = np.random.default_rng(11)
    # odd width exercises the 4-byte row padding
    img = rng.integers(0, 256, size=(13, 7, 3), dtype=np.uint8)
    np.testing.assert_array_equal(decode_bmp(encode_bmp(img)), img)


def test_png_codec_roundtrip_and_filters():
    """encode_png/decode_png (the real compressed codec): bit-exact
    round-trips for gray/RGB/RGBA at odd sizes; chunk-CRC corruption is
    rejected; and all five scanline filters (plus multi-IDAT streams)
    decode correctly against an INDEPENDENT vectorized forward-filter
    encoder — the decoder's unfiltering (cumsum Sub, per-byte Paeth) is
    checked as the exact inverse, not against itself."""
    import struct
    import zlib

    import pytest

    from tsmp_ray.stages.multimodal import _PNG_SIG, decode_png, encode_png

    rng = np.random.default_rng(3)
    for shape in [(13, 7), (13, 7, 3), (9, 5, 4), (1, 1, 3), (2, 300, 3)]:
        img = rng.integers(0, 256, size=shape, dtype=np.uint8)
        np.testing.assert_array_equal(decode_png(encode_png(img)), img)

    # corrupt one byte inside IDAT -> chunk CRC must reject it
    pay = bytearray(encode_png(rng.integers(0, 256, (6, 6, 3),
                                            dtype=np.uint8)))
    idat_off = pay.index(b"IDAT")
    pay[idat_off + 4] ^= 0xFF
    with pytest.raises(ValueError, match="CRC"):
        decode_png(bytes(pay))
    # truncated/corrupt inputs raise the decoder's ValueError family, never
    # a bare struct/zlib error: a mid-chunk cut, a missing IDAT, and a
    # chunk-valid payload whose zlib stream is cut short
    good = bytes(encode_png(rng.integers(0, 256, (6, 6, 3), dtype=np.uint8)))
    cut = good.index(b"IDAT") + 8          # inside the IDAT data
    with pytest.raises(ValueError, match="truncated"):
        decode_png(good[:cut])

    def chunk(t, d):
        return (struct.pack(">I", len(d)) + t + d
                + struct.pack(">I", zlib.crc32(t + d) & 0xFFFFFFFF))

    ihdr = chunk(b"IHDR", struct.pack(">IIBBBBB", 4, 4, 8, 2, 0, 0, 0))
    with pytest.raises(ValueError, match="IHDR/IDAT"):
        decode_png(_PNG_SIG + ihdr + chunk(b"IEND", b""))
    bad_idat = chunk(b"IDAT", zlib.compress(b"\x00" * 52)[:5])
    with pytest.raises(ValueError, match="IDAT"):
        decode_png(_PNG_SIG + ihdr + bad_idat + chunk(b"IEND", b""))

    def encode_with_filters(img, ftypes):
        """Forward PNG filtering, implemented independently of decode_png
        (vectorized where the decoder loops and vice versa), body split
        across TWO IDAT chunks."""
        h, w, ch = img.shape
        stride = w * ch
        raw = img.reshape(h, stride).astype(int)
        lines, prev = [], np.zeros(stride, dtype=int)
        for r in range(h):
            cur, f = raw[r], ftypes[r % len(ftypes)]
            a = np.concatenate([np.zeros(ch, int), cur[:-ch]])
            b = prev
            c = np.concatenate([np.zeros(ch, int), prev[:-ch]])
            if f == 0:
                flt = cur
            elif f == 1:
                flt = (cur - a) % 256
            elif f == 2:
                flt = (cur - b) % 256
            elif f == 3:
                flt = (cur - ((a + b) >> 1)) % 256
            else:
                p = a + b - c
                pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = np.where((pa_ <= pb_) & (pa_ <= pc_), a,
                                np.where(pb_ <= pc_, b, c))
                flt = (cur - pred) % 256
            lines.append(bytes([f]) + flt.astype(np.uint8).tobytes())
            prev = cur
        body = zlib.compress(b"".join(lines))
        mid = len(body) // 2
        ihdr = struct.pack(">IIBBBBB", w, h, 8, {3: 2, 4: 6}[ch], 0, 0, 0)
        return (_PNG_SIG + chunk(b"IHDR", ihdr) + chunk(b"IDAT", body[:mid])
                + chunk(b"IDAT", body[mid:]) + chunk(b"IEND", b""))

    img = rng.integers(0, 256, size=(17, 11, 3), dtype=np.uint8)
    for ftypes in ([0, 1, 2, 3, 4], [4], [3], [1]):
        np.testing.assert_array_equal(
            decode_png(encode_with_filters(img, ftypes)), img)
    rgba = rng.integers(0, 256, size=(8, 9, 4), dtype=np.uint8)
    np.testing.assert_array_equal(
        decode_png(encode_with_filters(rgba, [4, 2, 1, 3])), rgba)


def test_session_cpus_floor(ray_session):
    """session_cpus: tracks the live session above 2, floors at 2 below
    it — the one home for the shard planners' task fanout."""
    import ray

    from tsmp_ray.config import session_cpus

    live = int(ray.cluster_resources().get("CPU"))
    assert session_cpus() == max(2, live)


def test_multimodal_plumbing(ray_session):
    import ray
    from tsmp_ray.pipelines.queries import q_multimodal
    from tsmp_ray.stages.multimodal import (
        _decode_image, _resize, decode_images, synthetic_media,
    )

    tbl = synthetic_media(24, seed=1)
    ds = ray.data.from_arrow(tbl)
    # decode tasks decode genuine BMP and PNG bytes
    feats = ds.map_batches(decode_images, batch_format="pyarrow",
                           batch_size=8).to_pandas()
    assert len(feats) == tbl.num_rows
    assert all(len(f) == 3 + 3 + 16 for f in feats["feature"])
    # the generator alternates both real image codecs
    payloads = [p.as_py() for p in tbl["payload"]]
    assert any(p[:2] == b"BM" for p in payloads)
    assert any(p[:4] == b"\x89PNG" for p in payloads)
    # the distributed features equal a local decode of the same bytes
    # (whichever codec that row landed on)
    row0 = feats.sort_values("media_id").iloc[0]
    idx0 = tbl["media_id"].to_pylist().index(row0["media_id"])
    img0 = _decode_image(tbl["payload"][idx0].as_py())
    small = _resize(img0, 16, 16).astype(np.float64)
    want = np.concatenate([small.mean(axis=(0, 1)), small.std(axis=(0, 1)),
                           small.reshape(-1, 3).mean(axis=1)[:16]])
    np.testing.assert_allclose(np.asarray(row0["feature"]), want)
    # codecs needing external libs (JPEG) stay a declared stub
    with pytest.raises(NotImplementedError):
        _decode_image(b"\xff\xd8\xff\xe0jpeg")
    # q_multimodal's plan over its own table equals a local decode, every
    # row exactly
    media = synthetic_media(64, seed=9)
    got = q_multimodal("").to_pandas().sort_values("media_id")
    want = decode_images(media).to_pandas().sort_values("media_id")
    assert got["media_id"].tolist() == want["media_id"].tolist()
    for g, w in zip(got["feature"], want["feature"]):
        np.testing.assert_array_equal(np.asarray(g), np.asarray(w))


def test_text_oracle_unicode_parity():
    """Python's \\w is Unicode; RE2's bare \\w is ASCII-only (it split
    'für' into 'f','r'). The SQL oracles spell the Unicode classes
    ([\\p{L}\\p{N}_]) instead, so token/punct/lang parity holds on
    non-ASCII text — pinned here on accented/Cyrillic/CJK docs (the
    driver's documents fixture is pure ASCII and cannot catch a drift)."""
    import duckdb

    from tsmp_ray.pipelines.queries import (
        DOC_QUALITY_SQL, LANG_ID_SQL, TOKEN_COUNTS_SQL,
    )
    from tsmp_ray.stages.text import lang_id_batch, quality_batch, token_counts

    docs = pa.table({
        "doc_id": pa.array(range(8), pa.int64()),
        "lang": pa.array(["fr", "de", "en", "und", "es", "en", "de", "en"]),
        "text": pa.array([
            "le café crème est naïve, n'est-ce pas ?",
            "der Müll und die Straße für über—alles!",
            "plain ascii text, with punct.",
            "日本語のテキスト words 混ざった",
            "el niño está aquí… y según él",
            "non\xa0breaking spaces and – dashes",
            # non-ASCII UPPERCASE: upper_ratio must count Lu, not [A-Z];
            # Ⅷ is Other_Uppercase (Nl) — isupper() counts it, \p{Lu} doesn't
            "ÜBER Ärger: ÉCLAIR МОСКВА und Ⅷ!",
            # Cc whitespace Python's \s matches but RE2's \s/\p{Z} miss:
            # these must NOT land in punct_ratio on either side
            "odd\x0bwhitespace\x1c\x1d\x1e\x1ffile seps\x85next line.",
        ]),
    })
    con = duckdb.connect()
    con.register("documents", docs)

    def norm(df):
        return (df[sorted(df.columns)].round(6)
                .sort_values("doc_id").reset_index(drop=True))

    for sql, batch_fn, cols in (
        (TOKEN_COUNTS_SQL, token_counts, ["doc_id", "n_chars", "n_tokens"]),
        (DOC_QUALITY_SQL, quality_batch, None),
        (LANG_ID_SQL, lang_id_batch, ["doc_id", "lang", "lang_pred"]),
    ):
        got = batch_fn(docs).to_pandas()
        if cols:
            got = got[cols]
        want = con.execute(sql).df()[got.columns.tolist()]
        pd.testing.assert_frame_equal(norm(got), norm(want),
                                      check_dtype=False)
