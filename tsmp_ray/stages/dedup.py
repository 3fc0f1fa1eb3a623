"""Deduplication operators over the ``documents`` table — the training-data
pipeline ops the engine adds beyond the reference (task brief; the reference's
exclusion zone is its only near-dedup notion, SURVEY.md §2.6 "Exact dedup").

All follow the scale pattern from the Ray guide: vectorized per-batch
signatures → explode to (bucket, doc) rows → co-locate each bucket → verify
candidates exactly → connected components by min-label propagation.

Every keyed shuffle here is :func:`signals.sort_map`: ``sort(<key>)``,
which range-partitions on the key so all rows sharing it land in one block,
then ONE block-wide Arrow call per block over the key's runs
(:func:`signals.key_runs`) — run-firsts for distinct and keep-first,
``np.minimum.reduceat`` for the min folds. No hash salt and no partition
count: the sort makes as many partitions as it has input blocks, so the
memory of one call is bounded by Ray's block size.

- ``exact_dedup``: content-hash sort + per-text min-id winner (texts compared
  for true equality, so hash collisions can't merge docs).
- ``minhash_lsh_dedup``: word-shingle Jaccard via MinHash (k permutations of a
  64-bit universal hash), banded LSH; candidates verified with exact n-gram
  Jaccard.
- ``simhash_dedup``: 64-bit SimHash over token hashes, banded into 4×16-bit
  chunks; candidates verified by Hamming distance.
- ``ngram_jaccard``: the exact verifier, exposed standalone.
- ``embedding_dedup``: cosine near-dup via random-hyperplane LSH buckets +
  in-bucket matmul verification.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .signals import as_table, key_runs, remote, sort_map

_H1 = np.uint64(0x9E3779B97F4A7C15)
_H2 = np.uint64(0xC2B2AE3D27D4EB4F)


def _hash64(arr: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit mix of arbitrary int64/uint64 values (splitmix-style)."""
    x = arr.astype(np.uint64)
    x = (x ^ (x >> np.uint64(30))) * _H1
    x = (x ^ (x >> np.uint64(27))) * _H2
    return x ^ (x >> np.uint64(31))


def _text_hashes(texts: list[str]) -> np.ndarray:
    """crc32(hi)<<32|crc32(lo-salted): cheap, stable 64-bit content hash."""
    out = np.empty(len(texts), dtype=np.uint64)
    for i, t in enumerate(texts):
        b = t.encode()
        out[i] = (zlib.crc32(b) << 32) | zlib.crc32(b, 0xBEEF)
    return out


def _token_hashes(text: str) -> np.ndarray:
    toks = text.split()
    if not toks:
        return np.zeros(1, dtype=np.uint64)
    return _hash64(np.fromiter((zlib.crc32(t.encode()) for t in toks),
                               dtype=np.uint64, count=len(toks)))


def _shingle_hashes(text: str, n: int = 3) -> np.ndarray:
    """Word n-gram shingle hashes."""
    toks = text.split()
    if len(toks) < n:
        return _token_hashes(text)
    crcs = np.fromiter((zlib.crc32(t.encode()) for t in toks),
                       dtype=np.uint64, count=len(toks))
    B = np.uint64(1_000_003)
    m = len(crcs) - n + 1
    arr = np.zeros(m, dtype=np.uint64)
    with np.errstate(over="ignore"):  # wraparound mod 2^64 is the point
        for j in range(n):
            arr = arr * B + crcs[j : j + m]
    return _hash64(arr)


def _shingle_set(text: str, n: int = 3) -> set[str]:
    """Distinct word n-gram STRINGS (falls back to the token set for very
    short docs) — the exact objects the DuckDB oracle builds, so the verified
    jaccard value matches the SQL bit-for-bit."""
    toks = text.split()
    if len(toks) < n:
        return set(toks)
    return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}


def ngram_jaccard(a: str, b: str, n: int = 3) -> float:
    """Exact word-n-gram Jaccard similarity (the candidate verifier).
    Union computed as |A|+|B|-|A∩B| so the division is the identical float64
    op the SQL oracle performs."""
    sa = _shingle_set(a, n)
    sb = _shingle_set(b, n)
    if not sa and not sb:
        return 1.0
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (numpy<2 has no bitwise_count)."""
    return np.unpackbits(x.astype(np.uint64).view(np.uint8)).reshape(len(x), 8 * 8).sum(axis=1)


def _declared(ds, schema: pa.Schema):
    """``ds`` materialized, or a 0-row Dataset of ``schema`` when it holds
    no rows: Ray passes a 0-row block around a batch UDF, schema-less, so a
    map over an all-empty input would come back with no schema."""
    import ray

    ds = ds.materialize()
    return ds if ds.count() else ray.data.from_arrow(schema.empty_table())


def _firsts(batch: pa.Table, keys: list[str], order=()) -> pa.Table:
    """The first row of each ``keys`` run once the block is sorted by
    ``keys`` then ``order`` — distinct on ``keys``, whole rows kept."""
    batch, bounds = key_runs(batch, keys, order)
    return batch.take(pa.array(bounds[:-1]))


# ------------------------------------------------------------------ exact


def _keep_first(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    # the min-id ROW of each distinct text, whole: a per-column first
    # non-null would give a null field on the min-id doc a loser row's value
    return _firsts(batch, ["_h", text_col], [id_col]).drop_columns(["_h"])


def exact_dedup(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Keep the min-id document per distinct text. Sorted on the content
    hash ``_h`` so equal texts share a block; the block step compares true
    texts, so hash collisions are safe. Rows are kept whole, so the output
    schema is the input's.
    Oracle SQL: SELECT min(doc_id) AS doc_id, text GROUP BY text."""

    def add_hash(batch: pa.Table) -> pa.Table:
        h = _text_hashes(batch[text_col].to_pylist())
        return batch.append_column("_h", pa.array(h.astype(np.int64)))

    schema = ds.schema().base_schema
    return _declared(sort_map(ds.map_batches(add_hash, batch_format="pyarrow"),
                              "_h", schema, _keep_first, id_col, text_col),
                     schema)


_PAIR_SCHEMA = pa.schema([("doc_id", pa.int64()), ("dup_id", pa.int64())])


def _pair_block(batch: pa.Table, keys: list[str], carry: dict) -> pa.Table:
    """Every pair of distinct docs sharing a bucket of one sorted block, as
    (doc_id, dup_id[, <col>_a, <col>_b]) rows with doc_id < dup_id. Almost
    every bucket is a singleton: only multi-doc buckets reach the loop."""
    batch, bounds = key_runs(batch, [*keys, "doc_id"])
    batch, bounds = key_runs(batch.take(pa.array(bounds[:-1])), keys)
    multi = np.flatnonzero(np.diff(bounds) > 1)
    ia, ib = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for lo, hi in zip(bounds[multi], bounds[multi + 1]):
        a, b = np.triu_indices(hi - lo, k=1)
        ia.append(a + lo)
        ib.append(b + lo)
    ia, ib = pa.array(np.concatenate(ia)), pa.array(np.concatenate(ib))
    doc = batch["doc_id"].cast(pa.int64())
    cols = {"doc_id": doc.take(ia), "dup_id": doc.take(ib)}
    for c, t in carry.items():
        cols[f"{c}_a"] = batch[c].take(ia).cast(t)
        cols[f"{c}_b"] = batch[c].take(ib).cast(t)
    return pa.table(cols)


def _bucket_pairs(bucket_ds, keys: list[str], carry: dict | None = None):
    """Distributed candidate pairs from bucket membership, in two sort
    steps (no driver materialization):
    1. ``sort_map`` on ``keys`` puts every bucket in one block, and one
       call pairs ALL buckets of its block (``_pair_block``);
    2. pairs found in several buckets collapse to one row (run-firsts)
       after a ``sort_map`` on (doc_id, dup_id).

    ``carry`` maps columns (e.g. each side's signature) to their Arrow type;
    they ride onto the pair rows as ``<col>_a`` / ``<col>_b`` so
    verification needs no further join.
    Returns a Dataset (doc_id, dup_id[, carries]), doc_id < dup_id, distinct.
    """
    carry = carry or {}
    schema = pa.schema([*_PAIR_SCHEMA, *[
        (f"{c}_{side}", t) for c, t in carry.items() for side in "ab"]])
    pairs = sort_map(bucket_ds, keys, schema, _pair_block, keys, carry)
    return sort_map(pairs, ["doc_id", "dup_id"], schema, _firsts,
                    ["doc_id", "dup_id"])


# ------------------------------------------------------------------ minhash


from functools import lru_cache


@lru_cache(maxsize=8)
def _minhash_perms(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Permutation constants, built once per WORKER PROCESS (lru_cache in the
    module global). Task-pool stages reuse warm Ray workers, so this is the
    actor-__init__ pattern without paying a fresh actor process per stage —
    process spawn (first-touch page faults) dominates in this sandbox."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 2**61, size=num_perm, dtype=np.uint64) | np.uint64(1)
    b = rng.integers(0, 2**61, size=num_perm, dtype=np.uint64)
    return a, b


def minhash_signatures(batch: pa.Table, num_perm: int = 64, shingle_n: int = 3,
                       seed: int = 7) -> pa.Table:
    a, b = _minhash_perms(num_perm, seed)
    sigs = np.empty((batch.num_rows, num_perm), dtype=np.uint64)
    for i, t in enumerate(batch["text"].to_pylist()):
        sh = _shingle_hashes(t, shingle_n)
        with np.errstate(over="ignore"):  # (num_perm × n_shingles), rowwise min
            sigs[i] = (a[:, None] * sh[None, :] + b[:, None]).min(axis=1)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "sig": pa.array(list(sigs.astype(np.int64))),
        }
    )


def minhash_lsh_dedup(ds, *, num_perm: int = 64, bands: int = 16,
                      threshold: float = 0.7, shingle_n: int = 3,
                      force_join: bool = False):
    """MinHash+LSH near-duplicate detection, fully distributed.

    Returns a Dataset of verified duplicate pairs
    (doc_id:int64, dup_id:int64, jaccard:double), doc_id < dup_id.
    Banding: ``bands`` bands of ``num_perm // bands`` rows; a pair colliding
    in ≥1 band becomes a candidate (``_bucket_pairs``' bucket sort);
    candidates are verified with exact string-shingle ``ngram_jaccard`` in a
    ``map_batches`` stage whose doc_id→text lookup is broadcast via
    ``ray.put`` — built from ONLY the candidate ids (bounded by the near-dup
    rate, never the corpus size).
    """
    rows = num_perm // bands

    sig_ds = ds.map_batches(
        minhash_signatures,
        fn_kwargs={"num_perm": num_perm, "shingle_n": shingle_n},
        batch_format="pyarrow",
    )

    def to_bands(batch: pa.Table) -> pa.Table:
        sigs = np.stack([np.asarray(s) for s in batch["sig"].to_pylist()]).astype(np.uint64)
        doc_ids = batch["doc_id"].to_numpy()
        out_band, out_hash, out_doc = [], [], []
        for b in range(bands):
            seg = sigs[:, b * rows : (b + 1) * rows]
            h = seg[:, 0].copy()
            for c in range(1, rows):
                h = _hash64(h ^ seg[:, c])
            out_band.append(np.full(len(doc_ids), b, dtype=np.int64))
            out_hash.append(h.astype(np.int64))
            out_doc.append(doc_ids)
        return pa.table(
            {
                "band": pa.array(np.concatenate(out_band)),
                "bhash": pa.array(np.concatenate(out_hash)),
                "doc_id": pa.array(np.concatenate(out_doc)),
            }
        )

    band_ds = sig_ds.map_batches(to_bands, batch_format="pyarrow")
    cand = _bucket_pairs(band_ds, ["band", "bhash"])
    return _verify_jaccard(ds, cand, threshold, shingle_n,
                           force_join=force_join)


_PAIR_JACCARD_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("dup_id", pa.int64()), ("jaccard", pa.float64()),
])


def _attach_texts(pairs_ds, texts_ds, key_col: str, out_col: str,
                  carry_text: list[str]):
    """Sort-join: attach ``texts_ds`` (doc_id, text) onto ``pairs_ds`` by
    ``pairs_ds[key_col]`` as string column ``out_col``.

    Both sides are tagged with the join key ``_k``, unioned and sorted on
    it; each block gives every pair row the text of its ``_k`` run
    (``_join_block``), so a call's memory is bounded by the block size
    however dup-heavy the corpus is — nothing global ever materializes in
    one object. ``carry_text`` names
    string columns already attached to the pair rows (previous join
    passes)."""

    def tag_pairs(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"].cast(pa.int64()),
            "dup_id": batch["dup_id"].cast(pa.int64()),
            **{c: batch[c].cast(pa.string()) for c in carry_text},
            "_k": batch[key_col].cast(pa.int64()),
            "_t": pa.nulls(batch.num_rows, pa.string()),
            "_is_txt": pa.array(np.zeros(batch.num_rows, dtype=bool)),
        })

    def tag_texts(batch: pa.Table) -> pa.Table:
        neg = pa.array(np.full(batch.num_rows, -1, dtype=np.int64))
        return pa.table({
            "doc_id": neg,
            "dup_id": neg,
            **{c: pa.nulls(batch.num_rows, pa.string()) for c in carry_text},
            "_k": batch["doc_id"].cast(pa.int64()),
            "_t": batch["text"].cast(pa.string()),
            "_is_txt": pa.array(np.ones(batch.num_rows, dtype=bool)),
        })

    schema = pa.schema([*_PAIR_SCHEMA, *[(c, pa.string()) for c in
                                         [*carry_text, out_col]]])
    both = (pairs_ds.map_batches(tag_pairs, batch_format="pyarrow")
            .union(texts_ds.map_batches(tag_texts, batch_format="pyarrow")))
    return sort_map(both, "_k", schema, _join_block, out_col)


def _join_block(batch: pa.Table, out_col: str) -> pa.Table:
    """The pair rows of one ``_k``-sorted block, each given the text of its
    run. A run sorts its text row first, so a pair row's text is its run
    start's ``_t`` (null when the run holds no text row)."""
    batch, bounds = key_runs(batch, ["_k"], [("_is_txt", "descending")])
    text = batch["_t"].take(pa.array(np.repeat(bounds[:-1], np.diff(bounds))))
    is_pair = pc.invert(batch["_is_txt"])
    return (batch.append_column(out_col, text).filter(is_pair)
            .drop_columns(["_k", "_t", "_is_txt"]))


#: candidate-text bytes below which verification broadcasts one id→text
#: lookup instead of running the two sort-join shuffles. Broadcasting a
#: SMALL side is the blessed Ray pattern (one plasma object, zero-ish-copy
#: reads, no all-to-all); the sort-join is only needed when a dup-heavy
#: corpus makes the candidate texts too big for one object.
_BROADCAST_TEXT_BYTES = 256 * 1024 * 1024


def _id_set(*blocks) -> pa.Array:
    """Every doc id of the candidate pair blocks, sorted and distinct."""
    s: set[int] = set()
    for t in filter(None, map(as_table, blocks)):
        s.update(t["doc_id"].to_pylist())
        s.update(t["dup_id"].to_pylist())
    return pa.array(sorted(s), pa.int64())


def _text_lookup(*blocks) -> dict[int, str]:
    """doc id -> text over the pruned corpus blocks (the broadcast side)."""
    d: dict[int, str] = {}
    for t in filter(None, map(as_table, blocks)):
        d.update(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    return d


def _verify_jaccard(ds, cand, threshold: float, shingle_n: int,
                    force_join: bool = False):
    """Distributed exact verification of candidate pairs.

    1. the candidate-ID set (ints only — tiny) is reduced in the object
       store and used to prune the corpus down to candidate texts;
    2. the pruned texts reach the verify tasks by a SIZE-GATED plan:
       ≤ ``_BROADCAST_TEXT_BYTES`` (the common case — candidates are the
       near-dup subset, not the corpus) → ONE broadcast id→text object,
       zero extra shuffles; larger → candidate pairs are joined
       against the texts twice (doc_id side, then dup_id side) via
       :func:`_attach_texts`, a sort-join whose per-call memory stays
       bounded by the block size however dup-heavy the corpus is;
    3. each verify task computes exact string-shingle jaccard.
    Both plans produce identical rows (the gate is exercised both ways in
    tests via the explicit ``force_join`` keyword, threaded from
    :func:`minhash_lsh_dedup` — an argument, not process-global state, so
    concurrent callers can't observe a test's plan override).
    """
    import ray

    cand = cand.materialize()
    if cand.count() == 0:
        return ray.data.from_arrow(_PAIR_JACCARD_SCHEMA.empty_table())
    cand_blocks = [br for bu in cand.iter_internal_ref_bundles()
                   for br in bu.block_refs]
    ids_ref = remote(_id_set).remote(*cand_blocks)

    def filt(batch: pa.Table) -> pa.Table:
        id_arr = ray.get(ids_ref)
        return batch.filter(pc.is_in(batch["doc_id"], value_set=id_arr))

    # materialized once (bounded by the candidate count): the size gate and
    # both consumers read it, instead of re-executing the corpus filter
    filtered = ds.select_columns(["doc_id", "text"]) \
        .map_batches(filt, batch_format="pyarrow").materialize()

    if (filtered.size_bytes() or 0) <= _BROADCAST_TEXT_BYTES \
            and not force_join:
        # small side → broadcast join: one reduce builds the lookup IN THE
        # OBJECT STORE (never on the driver), every verify task reads it
        tref = remote(_text_lookup).remote(
            *[br for bu in filtered.iter_internal_ref_bundles()
              for br in bu.block_refs])

        def verify_bc(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return _PAIR_JACCARD_SCHEMA.empty_table()
            lookup = ray.get(tref)  # zero-copy-ish plasma read per task
            a = batch["doc_id"].to_numpy()
            b = batch["dup_id"].to_numpy()
            j = np.array([ngram_jaccard(lookup[int(x)], lookup[int(y)],
                                        shingle_n)
                          for x, y in zip(a, b)])
            keep = j >= threshold
            return pa.table({"doc_id": pa.array(a[keep].astype(np.int64)),
                             "dup_id": pa.array(b[keep].astype(np.int64)),
                             "jaccard": pa.array(j[keep])},
                            schema=_PAIR_JACCARD_SCHEMA)

        return cand.map_batches(verify_bc, batch_format="pyarrow")

    sel = cand.select_columns(["doc_id", "dup_id"])
    with_a = _attach_texts(sel, filtered, "doc_id", "_ta", [])
    with_b = _attach_texts(with_a, filtered, "dup_id", "_tb", ["_ta"])

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _PAIR_JACCARD_SCHEMA.empty_table()
        a = batch["doc_id"].to_numpy()
        b = batch["dup_id"].to_numpy()
        ta = batch["_ta"].to_pylist()
        tb = batch["_tb"].to_pylist()
        j = np.array([ngram_jaccard(x, y, shingle_n)
                      for x, y in zip(ta, tb)])
        keep = j >= threshold
        return pa.table({"doc_id": pa.array(a[keep].astype(np.int64)),
                         "dup_id": pa.array(b[keep].astype(np.int64)),
                         "jaccard": pa.array(j[keep])},
                        schema=_PAIR_JACCARD_SCHEMA)

    return with_b.map_batches(verify, batch_format="pyarrow")


# ------------------------------------------------------------------ simhash


def simhash64(text: str) -> int:
    th = _token_hashes(text)
    bits = ((th[:, None] >> np.arange(64, dtype=np.uint64)[None, :])
            & np.uint64(1)).astype(np.int64)
    v = (2 * bits - 1).sum(axis=0)
    return int(((v > 0).astype(np.uint64)
                << np.arange(64, dtype=np.uint64)).sum())


def simhash_signatures(batch: pa.Table) -> pa.Table:
    hs = np.array([simhash64(t) for t in batch["text"].to_pylist()],
                  dtype=np.uint64)
    return pa.table(
        {"doc_id": batch["doc_id"], "simhash": pa.array(hs.astype(np.int64))}
    )


_HAMMING_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("dup_id", pa.int64()), ("hamming", pa.int64()),
])


def simhash_dedup(ds, max_hamming: int = 3):
    """SimHash near-dup, fully distributed with ZERO joins: 64-bit signature,
    4×16-bit chunk banding (pigeonhole: a pair within Hamming distance 3 must
    agree on ≥1 chunk — the candidate set is EXACT, not probabilistic); each
    side's signature rides along on the band rows, so the pair-emission stage
    verifies Hamming distance immediately. Returns pairs
    (doc_id, dup_id, hamming)."""
    sig = ds.map_batches(simhash_signatures, batch_format="pyarrow")

    def to_chunks(batch: pa.Table) -> pa.Table:
        h = batch["simhash"].to_numpy().astype(np.uint64)
        doc = batch["doc_id"].to_numpy()
        outc, outh, outd, outs = [], [], [], []
        for c in range(4):
            outc.append(np.full(len(doc), c, dtype=np.int64))
            outh.append(((h >> np.uint64(16 * c)) & np.uint64(0xFFFF)).astype(np.int64))
            outd.append(doc)
            outs.append(h.astype(np.int64))
        return pa.table({"chunk": pa.array(np.concatenate(outc)),
                         "chash": pa.array(np.concatenate(outh)),
                         "doc_id": pa.array(np.concatenate(outd)),
                         "simhash": pa.array(np.concatenate(outs))})

    chunk_ds = sig.map_batches(to_chunks, batch_format="pyarrow")
    cand = _bucket_pairs(chunk_ds, ["chunk", "chash"],
                         carry={"simhash": pa.int64()})

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _HAMMING_SCHEMA.empty_table()
        x = (batch["simhash_a"].to_numpy().astype(np.uint64)
             ^ batch["simhash_b"].to_numpy().astype(np.uint64))
        ham = _popcount64(x)
        keep = ham <= max_hamming
        return pa.table({
            "doc_id": pa.array(batch["doc_id"].to_numpy()[keep].astype(np.int64)),
            "dup_id": pa.array(batch["dup_id"].to_numpy()[keep].astype(np.int64)),
            "hamming": pa.array(ham[keep].astype(np.int64)),
        }, schema=_HAMMING_SCHEMA)

    return _declared(cand.map_batches(verify, batch_format="pyarrow"),
                     _HAMMING_SCHEMA)


# ------------------------------------------------------------- components


_COMP_SCHEMA = pa.schema([("doc_id", pa.int64()), ("component", pa.int64())])
_EDGE_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64())])


def _star_block(batch: pa.Table, large: bool) -> pa.Table:
    """One star step over every center of one ``center``-sorted block; a
    center's neighbour minimum is one ``np.minimum.reduceat`` over its run.

    - large-star(u): m = min(Γ(u) ∪ {u}); emit (m, v) for v ∈ Γ(u), v > u
    - small-star(u): over N≤ = {v ∈ Γ(u): v ≤ u}: m = min(N≤ ∪ {u});
      emit (m, v) for v ∈ N≤ ∪ {u}, v ≠ m
    """
    if not large:
        batch = batch.filter(pc.less_equal(batch["nbr"], batch["center"]))
    batch, bounds = key_runs(batch, ["center"])
    center = batch["center"].to_numpy()
    nbr = batch["nbr"].to_numpy()
    starts = bounds[:-1]
    m = (np.minimum(np.minimum.reduceat(nbr, starts), center[starts])
         if len(starts) else np.empty(0, dtype=np.int64))
    row_m = np.repeat(m, np.diff(bounds))
    if large:
        keep = nbr > center
        a, b = row_m[keep], nbr[keep]
    else:
        a = np.concatenate([row_m, m])               # (m, v) for v ∈ N≤ …
        b = np.concatenate([nbr, center[starts]])    # … ∪ {center}
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keep = lo != hi
    return _firsts(pa.table({"a": lo[keep], "b": hi[keep]}), ["a", "b"])


def _star_round(edges_ds, large: bool):
    """One large-star / small-star step over an undirected edge Dataset
    ``(a, b)`` with ``a < b`` (Kiveris et al., "Connected Components in
    MapReduce and Beyond", PODS'14). Fan both directions out as
    ``(center, nbr)`` rows, then ``sort_map`` on ``center`` so every
    center's neighborhood lands in one block, and ONE vectorized call per
    block (``_star_block`` — never a per-node Python call)."""

    def expand(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy().astype(np.int64)
        b = batch["b"].to_numpy().astype(np.int64)
        return pa.table({"center": pa.array(np.concatenate([a, b])),
                         "nbr": pa.array(np.concatenate([b, a]))})

    return sort_map(edges_ds.map_batches(expand, batch_format="pyarrow"),
                    "center", _EDGE_SCHEMA, _star_block, large)


def _distinct_edges(edges_ds):
    """Distinct on (a, b): ``sort_map`` on both, run-firsts per block."""
    return sort_map(edges_ds, ["a", "b"], _EDGE_SCHEMA, _firsts, ["a", "b"])


def _edge_checksum(edges_ds) -> tuple[int, int, int]:
    """(count, two INDEPENDENT order-invariant hash sums) of a distinct edge
    set — the cheap fixpoint test (tiny aggregates, no driver
    materialization). Two independently-keyed 64-bit mixes summed mod a
    30-bit prime: a round would terminate early only if count AND both sums
    collide simultaneously (~2^-60 per comparison), vs the single-sum
    variant round 3 shipped."""

    def hsum(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy().astype(np.uint64)
        b = batch["b"].to_numpy().astype(np.uint64)
        h1 = _hash64(a * np.uint64(31) ^ _hash64(b))
        h2 = _hash64(_hash64(a ^ np.uint64(0xA5A5A5A55A5A5A5A)) * np.uint64(131)
                     ^ b)
        # mod a 30-bit prime: int64 partial sums stay exact to ~8e9 edges
        prime = np.uint64(1_073_741_789)
        return pa.table({"h1": pa.array((h1 % prime).astype(np.int64)),
                         "h2": pa.array((h2 % prime).astype(np.int64))})

    hds = edges_ds.map_batches(hsum, batch_format="pyarrow").materialize()
    return hds.count(), int(hds.sum("h1") or 0), int(hds.sum("h2") or 0)


def dup_components(pairs_ds, max_rounds: int = 16):
    """Connected components over duplicate PAIRS: alternating large-star /
    small-star contraction (Kiveris et al., PODS'14) until the edge set is a
    star forest rooted at each component's min doc_id. Fully distributed:
    labels never materialize on the driver, every step is a ``sort_map``
    with one VECTORIZED Arrow call per block (no per-node Python call and no
    driver label dict), and convergence is O(log² n) rounds — no small-diameter assumption. Returns
    (doc_id, component) where component = min doc_id reachable; SQL oracle =
    recursive transitive closure (queries.DEDUP_COMPONENTS_SQL)."""
    import ray

    def to_edges(batch: pa.Table) -> pa.Table:
        a = batch["doc_id"].to_numpy().astype(np.int64)
        b = batch["dup_id"].to_numpy().astype(np.int64)
        keep = a != b
        return pa.table({
            "a": pa.array(np.minimum(a, b)[keep]),
            "b": pa.array(np.maximum(a, b)[keep]),
        })

    edges = _distinct_edges(
        pairs_ds.map_batches(to_edges, batch_format="pyarrow")).materialize()
    if edges.count() == 0:
        return ray.data.from_arrow(_COMP_SCHEMA.empty_table())

    sig = _edge_checksum(edges)
    converged = False
    for _ in range(max_rounds):
        edges = _distinct_edges(
            _star_round(_star_round(edges, large=True), large=False),
        ).materialize()
        new_sig = _edge_checksum(edges)
        if new_sig == sig:
            converged = True
            break
        sig = new_sig
    if not converged:
        # star contraction converges in O(log² n) rounds (Kiveris PODS'14);
        # 16 rounds covers any graph this engine will ever see, so a
        # non-fixpoint here is a BUG, and emitting labels from a non-star
        # edge set would silently split components (and fail the recursive-
        # closure SQL oracle downstream). Raise instead of warn (round-3
        # ADVICE).
        raise RuntimeError(
            f"dup_components: edge set did not reach a fixpoint after "
            f"{max_rounds} alternating star rounds — refusing to emit "
            f"potentially split component labels")

    # star forest: every edge is (root, node); root's own label is itself
    def labels(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy().astype(np.int64)
        b = batch["b"].to_numpy().astype(np.int64)
        return pa.table({
            "doc_id": pa.array(np.concatenate([b, a])),
            "component": pa.array(np.concatenate([a, a])),
        }, schema=_COMP_SCHEMA)

    return sort_map(edges.map_batches(labels, batch_format="pyarrow"),
                    "doc_id", _COMP_SCHEMA, _fold_min)


def _fold_min(batch: pa.Table) -> pa.Table:
    """Each doc's minimum ``component`` over its run of one sorted block."""
    batch, bounds = key_runs(batch, ["doc_id"])
    starts = bounds[:-1]
    return pa.table({
        "doc_id": batch["doc_id"].take(pa.array(starts)),
        "component": np.minimum.reduceat(batch["component"].to_numpy(),
                                         starts),
    }, schema=_COMP_SCHEMA)


# ------------------------------------------------------------------ embeddings


_EMB_PAIR_SCHEMA = pa.schema([
    ("vec_id", pa.int64()), ("dup_id", pa.int64()), ("cosine", pa.float64()),
])


def _stack_norm(col) -> np.ndarray:
    from .knn import _stack  # vectorized list_flatten + reshape densify

    m = _stack(col)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def _norm_block(block):
    """One embedding block -> (vec ids, row-normalized float64 matrix)."""
    tbl = as_table(block)
    if tbl is None or tbl.num_rows == 0:
        return np.empty(0, dtype=np.int64), np.empty((0, 1))
    return (tbl["vec_id"].to_numpy().astype(np.int64),
            _stack_norm(tbl["embedding"]))


def _cosine_pairs(na, nb, same: bool, threshold: float,
                  round_dp: int) -> pa.Table:
    """The (lo, hi, cosine) pairs of two normalized blocks whose cosine,
    rounded to ``round_dp``, is at least ``threshold``."""
    ia, ma = na
    ib, mb = nb
    if not len(ia) or not len(ib):
        return _EMB_PAIR_SCHEMA.empty_table()
    cos = np.round(ma @ mb.T, round_dp)
    mask = cos >= threshold
    # each unordered id pair must come out exactly once as (lo, hi):
    # within one block both orientations are in the matrix (keep lo<hi);
    # across two distinct blocks each pair appears once (order by id)
    mask &= (ia[:, None] < ib[None, :]) if same \
        else (ia[:, None] != ib[None, :])
    r, c = np.nonzero(mask)
    lo = np.minimum(ia[r], ib[c])
    hi = np.maximum(ia[r], ib[c])
    order = np.lexsort((hi, lo))
    return pa.table({
        "vec_id": pa.array(lo[order]),
        "dup_id": pa.array(hi[order]),
        "cosine": pa.array(cos[r, c][order]),
    }, schema=_EMB_PAIR_SCHEMA)


def embedding_dedup(ds_embeddings, *, threshold: float = 0.4,
                    round_dp: int = 6, block_rows: int = 2048):
    """EXACT cosine near-dup pair finder — the brute-force baseline, TILED:
    the Dataset's own blocks are normalized once each (tasks keyed by block
    ref, results staying in the object store), then every block PAIR (i ≤ j)
    becomes one matmul task reading both sides zero-copy from plasma — the
    same block-ref plan as ``profile_stage.per_block``. Nothing
    ever materializes on the driver and no task holds more than two blocks,
    so memory is O(block_rows²) per task at any corpus size. Compute is
    O(n²) by design (the exact baseline); ``embedding_dedup_lsh`` below is
    the sub-quadratic scale path.

    Rounding to ``round_dp`` BEFORE thresholding makes the result bit-match a
    SQL oracle computing round(dot/(na·nb), dp) (summation-order ulp noise is
    absorbed, as proven by the knn_topk oracle)."""
    import ray

    mat = ds_embeddings.select_columns(["vec_id", "embedding"]).materialize()
    n = mat.count()
    if n == 0:
        return ray.data.from_arrow(_EMB_PAIR_SCHEMA.empty_table())
    want_blocks = max(1, -(-n // block_rows))
    if mat.num_blocks() > 4 * want_blocks or mat.num_blocks() < want_blocks:
        mat = mat.repartition(want_blocks).materialize()

    blocks = [br for bundle in mat.iter_internal_ref_bundles()
              for br in bundle.block_refs]
    norm, pair = remote(_norm_block), remote(_cosine_pairs)
    normed = [norm.remote(b) for b in blocks]
    pair_refs = [pair.remote(normed[i], normed[j], i == j, threshold, round_dp)
                 for i in range(len(normed)) for j in range(i, len(normed))]
    return ray.data.from_arrow_refs(pair_refs)


def embedding_dedup_lsh(ds_embeddings, *, threshold: float = 0.95,
                        n_tables: int = 8, n_planes: int = 8, seed: int = 3):
    """Sub-quadratic scale path: multi-table random-hyperplane LSH.

    One 12-plane table (round 1) had ~45 % recall at cosine 0.98 — useless.
    ``n_tables`` independent tables of ``n_planes`` hyperplanes: a pair at
    angle θ collides in one table with (1-θ/π)^planes, across tables with
    1-(1-(1-θ/π)^p)^T ≈ 0.999+ for near-dups (θ ≤ 11°). Bucket rows fan out
    per table; candidate pairs from the ``_bucket_pairs`` bucket sort
    carry both embeddings, verified by exact cosine in the same stage."""

    import ray

    first = ds_embeddings.take(1)
    if not first:
        return ray.data.from_arrow(_EMB_PAIR_SCHEMA.empty_table())
    dim = len(first[0]["embedding"])
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((n_tables, dim, n_planes))

    def bucketize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            emb = batch["embedding"]
            return pa.table({
                "table": pa.array([], pa.int64()),
                "bucket": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
                "embedding": (emb.combine_chunks()
                              if isinstance(emb, pa.ChunkedArray) else emb),
            })
        m = _stack_norm(batch["embedding"])
        ids = batch["vec_id"].to_numpy().astype(np.int64)
        tabs, bucks, docs, embs = [], [], [], []
        for t in range(n_tables):
            sig = (m @ planes[t] > 0)
            bucket = (sig.astype(np.uint64)
                      << np.arange(n_planes, dtype=np.uint64)).sum(axis=1)
            tabs.append(np.full(len(ids), t, dtype=np.int64))
            bucks.append(bucket.astype(np.int64))
            docs.append(ids)
            embs.append(batch["embedding"])
        return pa.table({
            "table": pa.array(np.concatenate(tabs)),
            "bucket": pa.array(np.concatenate(bucks)),
            "doc_id": pa.array(np.concatenate(docs)),
            "embedding": pa.concat_arrays(
                [e.combine_chunks() if isinstance(e, pa.ChunkedArray) else e
                 for e in embs]),
        })

    bucket_ds = ds_embeddings.map_batches(bucketize, batch_format="pyarrow")
    cand = _bucket_pairs(bucket_ds, ["table", "bucket"],
                         carry={"embedding": pa.list_(pa.float64())})

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _EMB_PAIR_SCHEMA.empty_table()
        cos = (_stack_norm(batch["embedding_a"])
               * _stack_norm(batch["embedding_b"])).sum(axis=1)
        keep = pa.array(cos >= threshold)
        return pa.table({
            "vec_id": batch["doc_id"].filter(keep),
            "dup_id": batch["dup_id"].filter(keep),
            "cosine": pa.array(cos).filter(keep),
        }, schema=_EMB_PAIR_SCHEMA)

    return _declared(cand.map_batches(verify, batch_format="pyarrow"),
                     _EMB_PAIR_SCHEMA)
