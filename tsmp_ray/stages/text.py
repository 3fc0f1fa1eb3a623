"""Text-analysis operators over the ``documents`` table: language ID, quality
scoring, token counting, document fingerprinting (training-data pipeline ops
per the task brief). Every one is a stateless block function mapped as Ray
tasks; its regexes are compiled once per worker process, at import.
"""

from __future__ import annotations

import re
import unicodedata
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# tiny built-in stopword/diacritic profiles — deterministic, self-contained
_LANG_PROFILES: dict[str, set[str]] = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "that", "for"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "mit", "für", "auf"},
    "fr": {"le", "la", "les", "et", "est", "pas", "un", "une", "pour", "dans"},
    "es": {"el", "la", "los", "y", "es", "no", "un", "una", "por", "para"},
}
_CJK = re.compile(r"[一-鿿぀-ヿ]")
_WORD_RE = re.compile(r"[\w'’]+", re.UNICODE)


def classify_lang(text: str) -> str:
    """n-gram / stopword heuristic language ID of one document."""
    if _CJK.search(text):
        return "zh"
    toks = [t.lower() for t in _WORD_RE.findall(text)]
    if not toks:
        return "und"
    best, best_score = "und", 0.0
    for lang, stops in _LANG_PROFILES.items():
        score = sum(t in stops for t in toks) / len(toks)
        if score > best_score:
            best, best_score = lang, score
    return best if best_score > 0 else "en"  # latin-script default


def lang_id_batch(batch: pa.Table) -> pa.Table:
    """The batch with a ``lang_pred`` column (``classify_lang`` per doc)."""
    langs = pa.array([classify_lang(t) for t in batch["text"].to_pylist()])
    return batch.append_column("lang_pred", langs)


_TOKEN_RE = re.compile(r"\w+", re.UNICODE)
# BPE-ish sub-word pieces: runs of letters (split at case change), digits, or
# single punctuation — a deterministic stand-in for a real tokenizer
_BPE_RE = re.compile(r"[A-Z]?[a-z]+|[A-Z]+(?![a-z])|\d+|[^\w\s]", re.UNICODE)


def token_counts(batch: pa.Table) -> pa.Table:
    """(doc_id, n_chars, n_tokens, n_pieces): whitespace/word tokens plus a
    BPE-ish regex piece count. ``n_tokens`` = count of Unicode ``\\w+``
    matches — exactly ``length(regexp_extract_all(text,
    '[\\p{L}\\p{N}_]+'))`` in the SQL oracle (RE2's bare ``\\w`` is
    ASCII-only, so the oracle spells out the Unicode classes; parity on
    non-ASCII text is pinned in tests)."""
    texts = batch["text"].to_pylist()
    n_tokens = np.fromiter((len(_TOKEN_RE.findall(t)) for t in texts),
                           dtype=np.int64, count=len(texts))
    n_pieces = np.fromiter((len(_BPE_RE.findall(t)) for t in texts),
                           dtype=np.int64, count=len(texts))
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_chars": pc.cast(pc.utf8_length(batch["text"]), pa.int64()),
            "n_tokens": pa.array(n_tokens),
            "n_pieces": pa.array(n_pieces),
        }
    )


_PUNCT_RE = re.compile(r"[^\w\s]")


def quality_batch(batch: pa.Table) -> pa.Table:
    """Heuristic document quality: length, punctuation ratio, stopword ratio,
    mean word length, uppercase ratio → a [0,1] composite."""
    stop = _LANG_PROFILES["en"]
    texts = batch["text"].to_pylist()
    n = len(texts)
    punct_ratio = np.empty(n)
    stop_ratio = np.empty(n)
    mean_wlen = np.empty(n)
    upper_ratio = np.empty(n)
    for i, t in enumerate(texts):
        L = max(len(t), 1)
        punct_ratio[i] = len(_PUNCT_RE.findall(t)) / L
        words = _TOKEN_RE.findall(t)
        nw = max(len(words), 1)
        stop_ratio[i] = sum(w.lower() in stop for w in words) / nw
        mean_wlen[i] = sum(len(w) for w in words) / nw
        # general-category Lu, not str.isupper(): isupper() also counts
        # Other_Uppercase (Roman numerals, circled letters) which RE2's
        # \p{Lu} in the SQL oracle excludes — both sides must agree
        upper_ratio[i] = sum(unicodedata.category(c) == "Lu"
                             for c in t) / L
    length = np.array([len(t) for t in texts], dtype=np.float64)
    # composite: long enough, low punct noise, some stopwords (naturalness),
    # sane word lengths, not shouty
    q = (
        np.clip(length / 200.0, 0, 1) * 0.25
        + np.clip(1.0 - 4.0 * punct_ratio, 0, 1) * 0.25
        + np.clip(4.0 * stop_ratio, 0, 1) * 0.2
        + np.clip(1.0 - np.abs(mean_wlen - 5.0) / 5.0, 0, 1) * 0.2
        + np.clip(1.0 - 3.0 * upper_ratio, 0, 1) * 0.1
    )
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_chars": pa.array(length.astype(np.int64)),
            "punct_ratio": pa.array(punct_ratio),
            "stop_ratio": pa.array(stop_ratio),
            "mean_word_len": pa.array(mean_wlen),
            "upper_ratio": pa.array(upper_ratio),
            "quality": pa.array(q),
        }
    )


def fingerprints(batch: pa.Table, k: int = 8) -> pa.Table:
    """Winnowing-style document fingerprint: rolling (Rabin-Karp-style) hash
    over word 4-grams, keep the k smallest hashes, fold to one int64. Stable
    under word order, sensitive to content."""
    texts = batch["text"].to_pylist()
    fps = np.empty(len(texts), dtype=np.int64)
    kmins = []
    B = np.uint64(1_000_003)
    for i, t in enumerate(texts):
        toks = t.split()
        hs = np.fromiter((zlib.crc32(w.encode()) for w in toks),
                         dtype=np.uint64, count=len(toks))
        if len(hs) >= 4:
            roll = hs[:-3] * B**np.uint64(3) + hs[1:-2] * B**np.uint64(2) \
                + hs[2:-1] * B + hs[3:]
        else:
            roll = hs if len(hs) else np.zeros(1, dtype=np.uint64)
        sel = np.sort(roll)[:k]
        kmins.append(sel.astype(np.int64))
        acc = np.uint64(0)
        with np.errstate(over="ignore"):  # the fold wraps mod 2**64 by design
            for v in sel:
                acc = (acc * B) ^ v
        fps[i] = np.int64(acc.astype(np.int64))
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "fingerprint": pa.array(fps),
            "kmin_hashes": pa.array(kmins),
        }
    )
