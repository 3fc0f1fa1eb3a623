"""Columnar time-series compression packed into Arrow binary columns.

Two codecs from the Gorilla paper (Pelkonen et al., "Gorilla: A Fast,
Scalable, In-Memory Time Series Database", VLDB 2015), re-implemented from the
published bit layouts (no reference-repo analog — the reference has the
*primitive* ``diff_lag`` /root/reference/src/math.cpp:51-72; the engine packs
with it per north_star):

- ``encode_timestamps`` / ``decode_timestamps``: delta-of-delta int64 µs.
  Header: first ts (64b) + first delta zigzag-varint; then per point a
  variable-length code by delta-of-delta magnitude:
      '0'                     dod == 0
      '10'  +  7b            dod in [-64, 63]
      '110' +  9b            dod in [-256, 255]
      '1110' + 12b           dod in [-2048, 2047]
      '11110' + 32b          dod in [-2^31, 2^31-1]
      '11111' + 64b          otherwise (full range; Gorilla's 4-level scheme
                             extended one level so arbitrary µs gaps fit)
  Signed fields are stored offset-binary (value + 2^(bits-1)).

- ``encode_gorilla`` / ``decode_gorilla``: float64 XOR compression.
  First value raw 64b; then per value XOR with predecessor:
      '0'                      xor == 0
      '10' + meaningful bits   reuse previous (leading, length) window
      '11' + 5b leading + 6b length + bits   new window
  Round-trip is bit-exact for every float64 including ±0.0, NaN payloads,
  denormals and infinities (tested), because everything goes through raw u64
  views.

Encoding is FULLY VECTORIZED and run-batched: ``encode_timestamp_runs`` /
``encode_gorilla_runs`` encode many consecutive runs (series) in one call.
Each point maps to ≤3 (code, width) items (numpy select over magnitude
levels, vectorized clz/ctz), the items are placed at offsets from a cumsum
of per-point item counts (plus each run's count header and byte pad), and
one ``_pack_codes`` pass expands them into an MSB-first bit matrix packed
with ``np.packbits`` — no per-value and no per-run Python. Each run comes
out byte-aligned, so its slice of the buffer IS its blob;
``encode_timestamps`` / ``encode_gorilla`` are the one-run calls. The
Gorilla encoder always emits an explicit '11' window per nonzero XOR (never
the '10' previous-window reuse): the format stays decoder-compatible (reuse
is an encoder choice) and the ~10 % size cost buys a fully-parallel encode.
Decoding remains a sequential bit cursor (see ``unpack_series``).

``pack_rollup_series`` turns a tier-point Dataset into one packed row per
(conv_id, signal): (ts_dod:binary, val_gorilla:binary, n:int32), with one
``sort("conv_id")`` and one encoder call per codec per block.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .signals import key_runs, sort_map


class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, value: int, bits: int) -> None:
        if bits == 0:
            return
        self.acc = (self.acc << bits) | (value & ((1 << bits) - 1))
        self.nbits += bits
        while self.nbits >= 8:
            self.nbits -= 8
            self.buf.append((self.acc >> self.nbits) & 0xFF)
        self.acc &= (1 << self.nbits) - 1

    def bytes(self) -> bytes:
        if self.nbits:
            return bytes(self.buf) + bytes([(self.acc << (8 - self.nbits)) & 0xFF])
        return bytes(self.buf)


class _BitReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0  # bit position

    def read(self, bits: int) -> int:
        """The next ``bits`` bits, MSB first: one ``int.from_bytes`` over the
        bytes they span, not a loop per byte."""
        pos = self.pos
        head = pos & 7
        first = pos >> 3
        nbytes = (head + bits + 7) >> 3
        self.pos = pos + bits
        span = int.from_bytes(self.data[first : first + nbytes], "big")
        return (span >> (8 * nbytes - head - bits)) & ((1 << bits) - 1)


_DOD_LEVELS = ((7, 0b10, 2), (9, 0b110, 3), (12, 0b1110, 4), (32, 0b11110, 5))
#: prefix of a DoD outside every level; the dod follows as two 32-bit halves
_DOD_ESCAPE = 0b11111


def _pack_codes(codes: np.ndarray, widths: np.ndarray) -> bytes:
    """Vectorized MSB-first bit packing of (code, width≤64) items: expand to
    a masked bit matrix, compress to the flat bit stream, ``np.packbits``.
    Bit-identical to the sequential ``_BitWriter`` stream. Items go through
    in chunks, and each chunk's whole bytes are packed before the next, so
    the temporaries stay at ~``CH`` × 64 bytes however many items come in:
    a whole block's streams are one call."""
    codes = codes.astype(np.uint64)
    widths = widths.astype(np.int64)
    if len(widths) == 0:
        return b""
    out = []
    carry = np.empty(0, dtype=np.uint8)  # < 8 bits left over by a chunk
    CH = 4_096  # temps stay cache-resident: 32k-item chunks over whole
    # blocks raised the long-convs peak RSS by 5-8 %
    for lo in range(0, len(codes), CH):
        c = codes[lo : lo + CH]
        w = widths[lo : lo + CH].astype(np.int16)
        shifts = w[:, None] - 1 - np.arange(int(w.max()), dtype=np.int16)[None, :]
        bits = ((c[:, None] >> shifts.clip(min=0).astype(np.uint8))
                & np.uint64(1)).astype(np.uint8)
        flat = np.concatenate([carry, bits[shifts >= 0]])  # MSB-first per item
        whole = len(flat) & ~7
        out.append(np.packbits(flat[:whole], bitorder="big"))
        carry = flat[whole:]
    out.append(np.packbits(carry, bitorder="big"))  # zero-pads the last byte
    return np.concatenate(out).tobytes()


def _split64(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """64-bit value -> (hi32, lo32) codes (packer items are ≤64 bits; the
    5-bit escape prefix + 64-bit payload would overflow one item)."""
    v = vals.astype(np.uint64)
    return (v >> np.uint64(32)).astype(np.uint64), (v & np.uint64(0xFFFFFFFF))


def _run_pos(lens: np.ndarray) -> np.ndarray:
    """Position of every point within its run (0 at each run start)."""
    starts = np.cumsum(lens) - lens
    return np.arange(int(lens.sum()), dtype=np.int64) - np.repeat(starts, lens)


def _encode_runs(lens: np.ndarray, counts: np.ndarray,
                 slots: list[tuple[np.ndarray, np.ndarray]]
                 ) -> tuple[bytes, np.ndarray]:
    """Consecutive runs of points -> one packed buffer and the byte offset of
    every run (``len(lens) + 1`` of them).

    Point ``i`` writes ``counts[i]`` items, item ``j`` being
    ``slots[j] = (code, width)`` at ``i``. A run is its 32-bit point count,
    its points' items in order, then zero bits up to the next byte, so
    every run is the blob a one-run encode writes. Items are placed at
    offsets computed from a cumsum of ``counts`` (each run adds its count
    and pad items); one ``_pack_codes`` call packs them all."""
    n_runs = len(lens)
    bounds = np.concatenate([[0], np.cumsum(lens)])
    items_before = np.concatenate([[0], np.cumsum(counts)])
    point_bits = sum(np.where(counts > j, w, 0) for j, (_, w) in enumerate(slots))
    bits_before = np.concatenate([[0], np.cumsum(point_bits)])
    run_bits = 32 + bits_before[bounds[1:]] - bits_before[bounds[:-1]]
    pad = -run_bits % 8
    r = np.arange(n_runs)
    codes = np.zeros(int(items_before[-1]) + 2 * n_runs, dtype=np.uint64)
    widths = np.zeros(len(codes), dtype=np.int64)
    head = items_before[bounds[:-1]] + 2 * r
    codes[head], widths[head] = lens, 32
    widths[items_before[bounds[1:]] + 2 * r + 1] = pad
    at = items_before[:-1] + 2 * np.repeat(r, lens) + 1
    for j, (c, w) in enumerate(slots):
        m = counts > j
        codes[at[m] + j], widths[at[m] + j] = c[m], w[m]
    offsets = np.concatenate([[0], np.cumsum((run_bits + pad) // 8)])
    return _pack_codes(codes, widths), offsets


def encode_timestamp_runs(ts_us: np.ndarray, lens: np.ndarray
                          ) -> tuple[bytes, np.ndarray]:
    """Delta-of-delta blobs of consecutive runs (each sorted by time) as one
    buffer plus per-run byte offsets. Per point: the first two of a run
    write the first ts and the first delta (64 bits each, as two halves);
    every later one writes its dod as a level code, classified over the
    whole block at once."""
    ts = np.asarray(ts_us, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    k = _run_pos(lens)
    delta = np.zeros(len(ts), dtype=np.int64)
    delta[1:] = np.diff(ts)
    dod = np.zeros(len(ts), dtype=np.int64)
    dod[1:] = np.diff(delta)
    mags = [(-(1 << (b - 1)), (1 << (b - 1))) for b, _, _ in _DOD_LEVELS]
    conds = [dod == 0] + [(dod >= lo) & (dod < hi) for lo, hi in mags]
    level = np.select(conds, np.arange(len(conds)), default=len(conds))
    code = np.zeros(len(ts), dtype=np.uint64)
    width = np.ones(len(ts), dtype=np.int64)
    for li, (b, prefix, plen) in enumerate(_DOD_LEVELS, start=1):
        m = level == li
        offs = dod[m] + (1 << (b - 1))  # offset-binary payload
        code[m] = (np.uint64(prefix) << np.uint64(b)) | offs.astype(np.uint64)
        width[m] = plen + b
    esc = level == len(conds)
    code[esc], width[esc] = _DOD_ESCAPE, 5
    first = k < 2
    hi0, lo0 = _split64(np.where(k == 0, ts, delta))
    esc_hi, esc_lo = _split64(dod)
    counts = np.where(first, 2, np.where(esc, 3, 1))
    thirty_two = np.full(len(ts), 32, dtype=np.int64)
    return _encode_runs(lens, counts, [
        (np.where(first, hi0, code), np.where(first, 32, width)),
        (np.where(first, lo0, esc_hi), thirty_two),
        (esc_lo, thirty_two),
    ])


def encode_timestamps(ts_us: np.ndarray) -> bytes:
    return encode_timestamp_runs(ts_us, [len(ts_us)])[0]


def decode_timestamps(data: bytes) -> np.ndarray:
    r = _BitReader(data)
    n = r.read(32)
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    out[0] = _to_signed(r.read(64), 64)
    if n == 1:
        return out
    delta = _to_signed(r.read(64), 64)
    out[1] = out[0] + delta
    for i in range(2, n):
        if r.read(1) == 0:
            dod = 0
        else:
            level = 0
            while level < 4 and r.read(1) == 1:
                level += 1
            if level < 4:
                bits = _DOD_LEVELS[level][0]
                dod = r.read(bits) - (1 << (bits - 1))
            else:
                dod = _to_signed(r.read(64), 64)
        delta += dod
        out[i] = out[i - 1] + delta
    return out


def _to_signed(v: int, bits: int) -> int:
    return v - (1 << bits) if v >= (1 << (bits - 1)) else v


def _bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized bit_length for uint64 (0 -> 0). float64 log2 with an exact
    power-of-two correction (conversion can round up across a power)."""
    x = x.astype(np.uint64)
    out = np.zeros(len(x), dtype=np.int64)
    nz = x != 0
    if nz.any():
        f = x[nz].astype(np.float64)
        k = np.floor(np.log2(f)).astype(np.int64)
        # if rounding pushed f to the next power, x >> k == 0 — correct down
        too_big = (x[nz] >> k.astype(np.uint64)) == 0
        k[too_big] -= 1
        out[nz] = k + 1
    return out


def encode_gorilla_runs(values: np.ndarray, lens: np.ndarray
                        ) -> tuple[bytes, np.ndarray]:
    """Gorilla XOR blobs of consecutive runs as one buffer plus per-run byte
    offsets. Per point: a run's first value writes its raw 64 bits (two
    halves); every later one XORs with its predecessor and writes '0' for
    a zero XOR, else a '11' window header and the meaningful bits."""
    bits_v = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    lens = np.asarray(lens, dtype=np.int64)
    first = _run_pos(lens) == 0
    xors = np.zeros(len(bits_v), dtype=np.uint64)
    xors[1:] = np.bitwise_xor(bits_v[1:], bits_v[:-1])
    nz = xors != 0
    # vectorized leading/trailing zero counts
    lead = np.minimum(64 - _bit_length_u64(xors), 31)
    low = xors & (np.uint64(0) - xors)  # lowest set bit (power of two)
    trail = np.maximum(_bit_length_u64(low) - 1, 0)
    mlen = 64 - lead - trail
    # '11'+lead+mlen-1 header (13 bits), then the meaningful bits (≤64)
    header = ((np.uint64(0b11) << np.uint64(11))
              | (lead.astype(np.uint64) << np.uint64(6))
              | (mlen - 1).astype(np.uint64))
    hi, lo = _split64(bits_v)
    counts = np.where(first | nz, 2, 1)
    return _encode_runs(lens, counts, [
        (np.where(first, hi, np.where(nz, header, 0)),
         np.where(first, 32, np.where(nz, 13, 1))),
        (np.where(first, lo, xors >> trail.astype(np.uint64)),
         np.where(first, 32, mlen)),
    ])


def encode_gorilla(values: np.ndarray) -> bytes:
    return encode_gorilla_runs(values, [len(values)])[0]


def decode_gorilla(data: bytes) -> np.ndarray:
    r = _BitReader(data)
    n = r.read(32)
    out = np.empty(n, dtype=np.uint64)
    if n == 0:
        return out.view(np.float64)
    prev = r.read(64)
    out[0] = prev
    lead, mlen = 0, 0
    for i in range(1, n):
        if r.read(1) == 0:
            out[i] = prev
            continue
        if r.read(1) == 1:
            lead = r.read(5)
            mlen = r.read(6) + 1
        shift = 64 - lead - mlen
        x = r.read(mlen) << shift
        prev ^= x
        out[i] = prev
    return out.view(np.float64)


# ------------------------------------------------------------- Ray stage


def _binary(buf: bytes, offsets: np.ndarray) -> pa.Array:
    """Consecutive blobs in one buffer -> a ``binary`` column, zero-copy."""
    return pa.Array.from_buffers(
        pa.binary(), len(offsets) - 1,
        [None, pa.py_buffer(offsets.astype(np.int32)), pa.py_buffer(buf)])


def _pack_block(batch: pa.Table) -> pa.Table:
    """Every (conv_id, signal) run of one block -> one packed row each, with
    zero per-run Python calls: a stable (conv_id, signal, bucket_ts) sort,
    run starts from one vectorized compare, then one encoder call per
    codec over the whole block, its runs byte-aligned in one buffer."""
    batch, bounds = key_runs(batch, ["conv_id", "signal"], ["bucket_ts"])
    starts, lens = bounds[:-1], np.diff(bounds)
    ts_buf, ts_off = encode_timestamp_runs(batch["bucket_ts"].to_numpy(), lens)
    val_buf, val_off = encode_gorilla_runs(batch["mean_v"].to_numpy(), lens)
    first = pa.array(starts)
    return pa.table({
        "conv_id": batch["conv_id"].take(first).cast(pa.string()),
        "signal": batch["signal"].take(first).cast(pa.string()),
        "n": pa.array(lens.astype(np.int32)),
        "ts_dod": _binary(ts_buf, ts_off),
        "val_gorilla": _binary(val_buf, val_off),
    })


def pack_rollup_series(ds_tier):
    """Tier points -> one packed row per (conv_id, signal):
    (conv_id, signal, n:int32, ts_dod:binary, val_gorilla:binary).
    Values packed are the per-bucket means in bucket_ts order.

    The plan is :func:`signals.sort_map` on ``conv_id`` with
    ``_pack_block``, as in ``signals.pack_series``: the single-key sort
    range-partitions by conv_id, so every run of a (conv_id, signal) lands
    in one block, and no Python call is made per run: the two encoders see
    the whole block."""
    return sort_map(ds_tier, "conv_id", _pack_block)


def _blobs(col) -> list[memoryview]:
    """A ``binary`` column as zero-copy views of its rows' bytes: the value
    buffer and offsets are read once, not one ``as_py()`` per row."""
    arr = col.combine_chunks()
    if len(arr) == 0:
        return []
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int32)[
        arr.offset : arr.offset + len(arr) + 1].tolist()
    data = memoryview(arr.buffers()[2]).cast("B")  # Arrow's view is signed
    return [data[a:b] for a, b in zip(offs[:-1], offs[1:])]


def unpack_series(batch: pa.Table) -> pa.Table:
    """Packed rows -> long rows (conv_id, signal, bucket_ts, mean_v).

    The decode stays a sequential bit cursor per blob: item widths hang on
    prefix bits read just before them, and a vectorized pointer-doubling
    decode over every bit offset measured no faster (0.19 s against the
    cursor's 0.20 s on the long-convs Gorilla blobs, ≈33 bits per value).
    Blob bytes come from one read of each binary column, and row assembly
    is numpy (one take over the run lengths), no Python value lists."""
    ts_parts = [decode_timestamps(b) for b in _blobs(batch["ts_dod"])]
    val_parts = [decode_gorilla(b) for b in _blobs(batch["val_gorilla"])]
    lens = np.array([len(t) for t in ts_parts], dtype=np.int64)
    row = pa.array(np.repeat(np.arange(batch.num_rows), lens))
    empty_i, empty_f = np.empty(0, dtype=np.int64), np.empty(0)
    return pa.table(
        {
            "conv_id": batch["conv_id"].take(row).cast(pa.string()),
            "signal": batch["signal"].take(row).cast(pa.string()),
            "bucket_ts": pa.array(
                np.concatenate(ts_parts) if ts_parts else empty_i, pa.int64()),
            "mean_v": pa.array(
                np.concatenate(val_parts) if val_parts else empty_f, pa.float64()),
        }
    )
