"""Multimodal columns: opaque binary payloads (image/audio/video) with
typed metadata, processed by map_batches task stages.

Decode honesty: this container has no PIL/libjpeg/ffmpeg, so the REAL
decode paths are pure-numpy parsers for formats that need no external
library — binary PPM (P6/P5) for images and PCM16 WAV for audio — and
the synthetic media table emits genuine PPM/WAV payloads so the decode
stages are exercised end-to-end.  Compressed codecs (jpeg/png/h264)
raise :class:`DecodeUnavailable`; video payloads use the documented
byte-fold stand-in.

Schema convention for a multimodal table:
    id:int64, kind:string('image'|'audio'|'video'),
    payload:binary, meta:string(JSON: {codec,width,height,...})

Scale notes: payloads are large -> small ``batch_size`` (default 64)
for the decode stages; blocks carrying payloads come straight
from the read and never pass through a shuffle — every derived feature
is emitted WITHOUT the payload column.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np
import pyarrow as pa

from .sources import read_table


class DecodeUnavailable(NotImplementedError):
    """Raised by decode paths needing codecs absent from this container
    (jpeg/png/h264 — PIL/ffmpeg are not installed)."""


# ---------------------------------------------------------------------------
# pure-numpy codecs: binary PPM (P6) / PGM (P5) and PCM16 WAV
# ---------------------------------------------------------------------------

def encode_ppm(pixels: np.ndarray) -> bytes:
    """(h, w, 3) uint8 RGB -> binary PPM (P6)."""
    h, w, c = pixels.shape
    assert c == 3
    return b"P6\n%d %d\n255\n" % (w, h) + \
        np.ascontiguousarray(pixels, dtype=np.uint8).tobytes()


def decode_ppm(buf: bytes) -> np.ndarray:
    """Binary PPM (P6) / PGM (P5) -> uint8 array (h, w, 3) or (h, w).

    Full header grammar: magic, then width/height/maxval tokens
    separated by whitespace, with ``#`` comments allowed between them."""
    if buf[:2] not in (b"P6", b"P5"):
        raise DecodeUnavailable(f"unsupported image magic {buf[:2]!r} "
                                "(only binary PPM/PGM decode here)")
    gray = buf[:2] == b"P5"
    pos = 2
    vals: list[int] = []
    while len(vals) < 3:
        while pos < len(buf) and buf[pos:pos + 1].isspace():
            pos += 1
        if buf[pos:pos + 1] == b"#":
            while pos < len(buf) and buf[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(buf) and not buf[pos:pos + 1].isspace():
            pos += 1
        vals.append(int(buf[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = vals
    if maxval > 255:
        raise DecodeUnavailable("16-bit PPM not supported")
    n = w * h * (1 if gray else 3)
    arr = np.frombuffer(buf, dtype=np.uint8, count=n, offset=pos)
    return arr.reshape((h, w) if gray else (h, w, 3))


def encode_wav(samples: np.ndarray, rate: int = 8000) -> bytes:
    """int16 mono samples -> PCM16 WAV (RIFF) bytes."""
    data = np.ascontiguousarray(samples, dtype="<i2").tobytes()
    hdr = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(data), b"WAVE", b"fmt ", 16,
        1, 1, rate, rate * 2, 2, 16, b"data", len(data))
    return hdr + data


def decode_wav(buf: bytes) -> tuple[int, np.ndarray]:
    """PCM16 WAV -> (sample_rate, int16 sample array).  Walks RIFF
    chunks (fmt / data) rather than assuming a fixed 44-byte header."""
    if buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise DecodeUnavailable("not a RIFF/WAVE payload")
    pos = 12
    rate = None
    data = None
    while pos + 8 <= len(buf):
        cid, sz = struct.unpack("<4sI", buf[pos:pos + 8])
        body = buf[pos + 8:pos + 8 + sz]
        if cid == b"fmt ":
            fmt, nch, rate, _, _, bits = struct.unpack("<HHIIHH", body[:16])
            if fmt != 1 or bits != 16 or nch != 1:
                raise DecodeUnavailable(
                    f"only PCM16 mono supported (fmt={fmt} bits={bits} "
                    f"ch={nch})")
        elif cid == b"data":
            data = np.frombuffer(body, dtype="<i2")
        pos += 8 + sz + (sz & 1)
    if rate is None or data is None:
        raise DecodeUnavailable("missing fmt/data chunk")
    return rate, data


# ---------------------------------------------------------------------------
# synthetic media table (REAL ppm/wav payloads)
# ---------------------------------------------------------------------------

def synth_media_batch(batch: pa.Table) -> pa.Table:
    """documents rows -> deterministic media table.  Image rows carry a
    genuine PPM payload (seeded gradient), audio rows a genuine PCM16
    WAV (seeded tone mix), video rows raw seeded bytes (no parseable
    container without ffmpeg — documented stub)."""
    ids = batch["doc_id"].to_numpy()
    kinds = np.where(ids % 3 == 0, "image",
                     np.where(ids % 3 == 1, "audio", "video"))
    payloads = []
    metas = []
    for i, k in zip(ids.tolist(), kinds.tolist()):
        seed = hashlib.blake2b(f"media-{i}".encode(),
                               digest_size=8).digest()
        rng = np.random.default_rng(int.from_bytes(seed, "little"))
        if k == "image":
            w, h = 16 + int(i) % 16, 16 + int(i) % 8
            yy, xx = np.mgrid[0:h, 0:w]
            base = ((yy * 7 + xx * 3 + int(i)) % 256).astype(np.uint8)
            px = np.stack([base, base[::-1], rng.integers(
                0, 256, (h, w), dtype=np.uint8)], axis=-1)
            payloads.append(encode_ppm(px))
            metas.append(json.dumps({"kind": k, "codec": "ppm",
                                     "w": w, "h": h}, sort_keys=True))
        elif k == "audio":
            n = 256 + int(i) % 512
            t = np.arange(n)
            f = 0.01 + (int(i) % 7) * 0.005
            s = (3000 * np.sin(2 * np.pi * f * t)
                 + rng.integers(-500, 500, n)).astype(np.int16)
            payloads.append(encode_wav(s))
            metas.append(json.dumps({"kind": k, "codec": "wav",
                                     "n_samples": n}, sort_keys=True))
        else:
            n = 256 + int(i) % 512
            payloads.append(
                rng.integers(0, 256, n, dtype=np.uint8).tobytes())
            metas.append(json.dumps({"kind": k, "codec": "raw",
                                     "n_bytes": n}, sort_keys=True))
    return pa.table({
        "id": pa.array(ids), "kind": pa.array(kinds, pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "meta": pa.array(metas, pa.string()),
    })


def media_dataset(sf_dir: str):
    ds = read_table(f"{sf_dir}/documents.parquet", ["doc_id"])
    return ds.map_batches(synth_media_batch, batch_format="pyarrow",
                          batch_size=256)


# ---------------------------------------------------------------------------
# decode / feature stages (tasks)
# ---------------------------------------------------------------------------

def _block_mean(vec: np.ndarray, n_out: int) -> np.ndarray:
    """Average a 1-D vector into n_out equal-ish blocks (vectorized)."""
    edges = np.linspace(0, len(vec), n_out + 1).astype(np.int64)
    cs = np.concatenate([[0.0], np.cumsum(vec, dtype=np.float64)])
    widths = np.maximum(edges[1:] - edges[:-1], 1)
    return (cs[edges[1:]] - cs[edges[:-1]]) / widths


def _block_mean_2d(img: np.ndarray, side: int) -> np.ndarray:
    """Block-average a 2-D array to (side, side) via an integral image
    (the real resize kernel for the PPM decode path)."""
    h, w = img.shape
    re = np.linspace(0, h, side + 1).astype(np.int64)
    ce = np.linspace(0, w, side + 1).astype(np.int64)
    ii = np.zeros((h + 1, w + 1), dtype=np.float64)
    ii[1:, 1:] = np.cumsum(np.cumsum(img, axis=0, dtype=np.float64),
                           axis=1)
    sums = (ii[re[1:]][:, ce[1:]] - ii[re[:-1]][:, ce[1:]]
            - ii[re[1:]][:, ce[:-1]] + ii[re[:-1]][:, ce[:-1]])
    area = np.maximum((re[1:] - re[:-1])[:, None]
                      * (ce[1:] - ce[:-1])[None, :], 1)
    return sums / area


class MediaFeatures:
    """Decode + feature task stage, dispatching per row kind:

    * image/ppm -> grayscale mean over channels, block-averaged to an
      out_size x out_size grid in [0, 1] (real decode + real resize);
    * audio/wav -> per-block mean |sample| envelope over out_size^2
      blocks, normalized by int16 max (real decode);
    * video/raw -> byte-fold stand-in (documented stub: no container
      parser without ffmpeg);
    * any compressed codec -> DecodeUnavailable.
    """

    def __init__(self, out_size: int = 8):
        self.out_size = out_size

    def __call__(self, batch: pa.Table) -> pa.Table:
        side = self.out_size
        n_feat = side * side
        feats = []
        for kind, payload, meta in zip(batch["kind"].to_pylist(),
                                       batch["payload"].to_pylist(),
                                       batch["meta"].to_pylist()):
            codec = json.loads(meta).get("codec", "")
            if kind == "image":
                if codec != "ppm":
                    raise DecodeUnavailable(f"image codec {codec!r}")
                px = decode_ppm(payload)
                gray = px.mean(axis=-1) if px.ndim == 3 else \
                    px.astype(np.float64)
                grid = _block_mean_2d(gray, side)
                feats.append((grid / 255.0).reshape(-1)
                             .astype(np.float32))
            elif kind == "audio":
                if codec != "wav":
                    raise DecodeUnavailable(f"audio codec {codec!r}")
                _, samples = decode_wav(payload)
                env = _block_mean(np.abs(samples.astype(np.float64)),
                                  n_feat)
                feats.append((env / 32768.0).astype(np.float32))
            else:
                arr = np.frombuffer(payload, dtype=np.uint8) \
                    .astype(np.float32)
                reps = -(-n_feat // len(arr))
                feats.append(np.tile(arr, reps)[:n_feat] / 255.0)
        return pa.table({
            "id": batch["id"],
            "kind": batch["kind"],
            "feature": pa.array([f.tolist() for f in feats],
                                pa.list_(pa.float32(), n_feat)),
        })


class AudioFrameSampler:
    """Frame-sampling stage: decodes the WAV payload and emits every
    k-th fixed-size SAMPLE frame as its own row (flat_map shape) — the
    video/audio analog of tile extraction.  Non-audio rows frame over
    raw bytes (video container parsing stays stubbed)."""

    def __init__(self, frame_len: int = 64, every_k: int = 2):
        self.frame_len = frame_len
        self.every_k = every_k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids_out, frame_idx, frames = [], [], []
        for i, kind, payload in zip(batch["id"].to_pylist(),
                                    batch["kind"].to_pylist(),
                                    batch["payload"].to_pylist()):
            if kind == "audio":
                _, samples = decode_wav(payload)
                raw = samples.tobytes()
                unit = self.frame_len * 2  # int16
            else:
                raw = payload
                unit = self.frame_len
            n = len(raw) // unit
            for f in range(0, n, self.every_k):
                ids_out.append(i)
                frame_idx.append(f)
                frames.append(raw[f * unit:(f + 1) * unit])
        return pa.table({
            "id": pa.array(ids_out, pa.int64()),
            "frame_idx": pa.array(frame_idx, pa.int64()),
            "frame": pa.array(frames, pa.binary()),
        })


def media_features(sf_dir: str, out_size: int = 8):
    """media -> per-item decoded feature vectors (real ppm/wav decode),
    payload column dropped before any further stage.  Decode runs in
    the same task that synthesized the payloads."""
    return media_dataset(sf_dir).map_batches(
        MediaFeatures(out_size), batch_format="pyarrow", batch_size=64)


def media_frames(sf_dir: str):
    """media -> sampled frames (one row per frame)."""
    return media_dataset(sf_dir).map_batches(
        AudioFrameSampler(), batch_format="pyarrow", batch_size=64)


THUMB_SIZE = 4


class ThumbSampler:
    """Image -> nearest-neighbor thumbnail of the red channel (a
    stateless decode task stage).  Sample rule:
    src_y = out_y * h // T, src_x = out_x * w // T (integer floor) —
    the standard NN downsample, exactly mirrorable in SQL.  Emits one
    row per (id, py, px) with the sampled uint8 value as int64, so the
    oracle pins the REAL decode path per PIXEL VALUE (media_features'
    oracle only checks kind/shape arithmetic)."""

    def __init__(self, size: int = THUMB_SIZE):
        self.size = size

    def __call__(self, batch: pa.Table) -> pa.Table:
        t = self.size
        ids_out, py_out, px_out, val_out = [], [], [], []
        kinds = batch["kind"].to_numpy(zero_copy_only=False)
        ids = batch["id"].to_numpy()
        payloads = batch["payload"].to_pylist()
        grid_y, grid_x = np.mgrid[0:t, 0:t]
        gy, gx = grid_y.reshape(-1), grid_x.reshape(-1)
        for i in range(len(batch)):
            if kinds[i] != "image":
                continue
            px = decode_ppm(payloads[i])
            h, w = px.shape[:2]
            sy = gy * h // t
            sx = gx * w // t
            v = px[sy, sx, 0].astype(np.int64)
            ids_out.append(np.full(t * t, ids[i], dtype=np.int64))
            py_out.append(gy.astype(np.int64))
            px_out.append(gx.astype(np.int64))
            val_out.append(v)
        if not ids_out:
            return pa.table({"id": pa.array([], pa.int64()),
                             "py": pa.array([], pa.int64()),
                             "px": pa.array([], pa.int64()),
                             "r": pa.array([], pa.int64())})
        return pa.table({
            "id": pa.array(np.concatenate(ids_out)),
            "py": pa.array(np.concatenate(py_out)),
            "px": pa.array(np.concatenate(px_out)),
            "r": pa.array(np.concatenate(val_out))})


def image_thumbs(sf_dir: str, size: int = THUMB_SIZE):
    """media -> NN thumbnails of every image payload (one row per
    output pixel); payloads never cross a shuffle — decode + sample
    happen in the same task that synthesized them."""
    return media_dataset(sf_dir).map_batches(
        ThumbSampler(size), batch_format="pyarrow", batch_size=64)


DHASH_COLS = 9   # sample grid: 9 columns x 8 rows -> 64 gradient bits
DHASH_ROWS = 8


class ImageDHash:
    """Image -> 64-bit difference hash (dHash) of the red channel: NN
    sample a DHASH_ROWS x DHASH_COLS grid (same floor rule as
    ThumbSampler), set bit y*8+x when g[y][x] < g[y][x+1] — the
    classic perceptual near-dup fingerprint for images.  Emitted as
    two int64 halves (bits 0-31 / 32-63) because the SQL mirror
    cannot shift into bit 63 of a signed BIGINT.  Runs on the REAL
    decoded PPM bytes; the oracle recomputes from the synthetic pixel
    arithmetic, pinning the decode + sample + pack path bit-for-bit."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = DHASH_ROWS
        cols = DHASH_COLS
        gy, gx = np.mgrid[0:rows, 0:cols]
        ids_out, lo_out, hi_out = [], [], []
        kinds = batch["kind"].to_numpy(zero_copy_only=False)
        ids = batch["id"].to_numpy()
        payloads = batch["payload"].to_pylist()
        weights = (np.uint64(1)
                   << (np.arange(rows * (cols - 1), dtype=np.uint64)
                       .reshape(rows, cols - 1)))  # bit y*8+x
        for i in range(len(batch)):
            if kinds[i] != "image":
                continue
            px = decode_ppm(payloads[i])
            h, w = px.shape[:2]
            sy = gy * h // rows
            sx = gx * w // cols
            g = px[sy, sx, 0].astype(np.int64)   # (rows, cols)
            bits = (g[:, :-1] < g[:, 1:]).astype(np.uint64)
            dh = int((bits * weights).sum())
            ids_out.append(int(ids[i]))
            lo_out.append(dh & 0xFFFFFFFF)
            hi_out.append(dh >> 32)
        return pa.table({
            "id": pa.array(ids_out, pa.int64()),
            "dhash_lo": pa.array(lo_out, pa.int64()),
            "dhash_hi": pa.array(hi_out, pa.int64())})


def image_dhash(sf_dir: str):
    """media -> per-image 64-bit dHash (perceptual near-dup
    fingerprint); payloads never cross a shuffle."""
    return media_dataset(sf_dir).map_batches(
        ImageDHash(), batch_format="pyarrow", batch_size=64)
