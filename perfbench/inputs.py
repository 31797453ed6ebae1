"""Seeded input generators for the benchmark, with an on-disk cache.

Every input is a pure function of (workload, seed, size, GENERATOR_VERSION),
and the cache key holds all four, so a changed generator never reuses a
stale input: bump GENERATOR_VERSION whenever a generator's output changes.

Two kinds of input:

* documents shards -- parquet files with the ``documents`` schema
  (doc_id, text, lang, source, n_chars) that the engine's pages layer
  reads.  The seed picks each file's doc_id shard offset (and the text);
  the doc_id decides where the engine geocodes a page, so a new seed
  moves every page.
* blob mask tiles -- (oy, ox, mask) rows over a GridConfig raster: seeded
  discs and rings (a ring's centre is a hole) of class 1 or 2, large
  enough to cross tile borders.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

GENERATOR_VERSION = 1
CACHE_KEEP = 12  # cached inputs kept per workload, most recently used first

# the words, languages and sources of the repo's documents test tables
VOCAB = ("a agg batch big column customer data fast filter group hash join "
         "key line merge order part query row scan slow small sort spark "
         "stream table the value vector window").split()
LANGS = ("en", "en", "en", "zh", "es", "fr", "de")
N_SOURCES = 5
SHARD_OFFSET = 10 ** 7  # doc_id stride between shard files
MAX_SHARDS = 100_000    # doc_ids stay below 10**12


def cache_key(workload: str, seed: int, size: dict) -> str:
    blob = json.dumps({"w": workload, "seed": seed, "size": size,
                       "v": GENERATOR_VERSION}, sort_keys=True)
    return f"{workload}-s{seed}-{hashlib.sha1(blob.encode()).hexdigest()[:12]}"


def keep_recent(cache_dir: str, workload: str, used: str) -> None:
    """Mark ``used`` as just used and delete all but the CACHE_KEEP most
    recently used inputs of ``workload`` (with their cached references),
    so a long series of seeds does not fill the disk."""
    os.utime(used)
    dirs = sorted((d for d in glob.glob(os.path.join(cache_dir,
                                                     f"{workload}-s*"))
                   if os.path.isdir(d) and not d.endswith(".tmp")),
                  key=os.path.getmtime, reverse=True)
    for d in dirs[CACHE_KEEP:]:
        shutil.rmtree(d, ignore_errors=True)
        for ref in glob.glob(glob.escape(d) + ".reference-*"):
            os.remove(ref)


def _publish(tmp: str, out: str) -> str:
    """Atomically move a finished input into place (a crashed run leaves
    only a .tmp directory, which the next run overwrites)."""
    if os.path.isdir(out):
        shutil.rmtree(tmp)
    else:
        os.rename(tmp, out)
    return out


def documents_table(rng: np.random.Generator, doc_ids: np.ndarray) -> pa.Table:
    """documents rows for ``doc_ids``: 10-100 words of VOCAB per text."""
    n = len(doc_ids)
    n_words = rng.integers(10, 101, n)
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(n_words, out=offsets[1:])
    words = pa.array(VOCAB).take(pa.array(rng.integers(0, len(VOCAB),
                                                       int(offsets[-1]))))
    text = pc.binary_join(pa.ListArray.from_arrays(pa.array(offsets), words),
                          " ")
    return pa.table({
        "doc_id": pa.array(doc_ids, pa.int64()),
        "text": text,
        "lang": pa.array(LANGS).take(pa.array(rng.integers(0, len(LANGS), n))),
        "source": pc.binary_join_element_wise(
            "src", pc.cast(pa.array(doc_ids % N_SOURCES), pa.string()), ""),
        "n_chars": pc.cast(pc.utf8_length(text), pa.int64()),
    })


def documents_shards(cache_dir: str, workload: str, seed: int,
                     n_files: int, rows_per_file: int,
                     single_table: bool = False) -> str:
    """Directory of ``n_files`` parquet shards of ``rows_per_file`` docs.

    File f holds doc_ids ``shard_f * SHARD_OFFSET + [0, rows_per_file)``
    with ``shard_f`` drawn without replacement from the seed, so shards
    never overlap.  ``single_table`` concatenates the shards into one
    ``documents.parquet`` (the layout the pages source reads)."""
    size = {"files": n_files, "rows": rows_per_file, "single": single_table}
    out = os.path.join(cache_dir, cache_key(workload, seed, size))
    if os.path.isdir(out):
        return out
    rng = np.random.default_rng([seed, n_files, rows_per_file])
    shards = rng.choice(np.arange(1, MAX_SHARDS), size=n_files, replace=False)
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    tables = []
    for f, shard in enumerate(shards.tolist()):
        ids = shard * SHARD_OFFSET + np.arange(rows_per_file, dtype=np.int64)
        t = documents_table(rng, ids)
        if single_table:
            tables.append(t)
        else:
            pq.write_table(t, os.path.join(tmp, f"part-{f:05d}.parquet"))
    if single_table:
        pq.write_table(pa.concat_tables(tables),
                       os.path.join(tmp, "documents.parquet"))
    return _publish(tmp, out)


def input_layout(path: str) -> dict:
    """File count and rows per file of a parquet input directory."""
    files = sorted(f for f in os.listdir(path) if f.endswith(".parquet"))
    rows = [pq.ParquetFile(os.path.join(path, f)).metadata.num_rows
            for f in files]
    return {"files": len(files), "rows_per_file": max(rows, default=0),
            "rows": int(sum(rows))}


def blob_mask(seed: int, height: int, width: int, n_blobs: int) -> np.ndarray:
    """uint8 (height, width) raster of seeded class-1/2 discs and rings.

    Radii run from 3 to 14 px, so most blobs cross the borders of 8- or
    16-px tiles; about a third are rings whose hole is background.
    Blobs are painted in seed order, so a later blob can cut into an
    earlier one (another source of holes and odd shapes)."""
    rng = np.random.default_rng([seed, height, width, n_blobs])
    mask = np.zeros((height, width), dtype=np.uint8)
    cy = rng.integers(0, height, n_blobs)
    cx = rng.integers(0, width, n_blobs)
    r_out = rng.integers(3, 15, n_blobs)
    ring = rng.random(n_blobs) < 0.35
    cls = rng.integers(1, 3, n_blobs).astype(np.uint8)
    for y, x, r, is_ring, c in zip(cy.tolist(), cx.tolist(), r_out.tolist(),
                                   ring.tolist(), cls.tolist()):
        y0, y1 = max(0, y - r), min(height, y + r + 1)
        x0, x1 = max(0, x - r), min(width, x + r + 1)
        yy, xx = np.ogrid[y0:y1, x0:x1]
        d2 = (yy - y) ** 2 + (xx - x) ** 2
        paint = d2 <= r * r
        if is_ring:
            paint &= d2 > (r // 2) ** 2
        mask[y0:y1, x0:x1][paint] = c
    return mask


def mask_to_tiles(mask: np.ndarray, stride: int) -> pa.Table:
    """(H, W) raster -> one (oy, ox, mask) row per stride x stride tile,
    the mask tile schema polygonize consumes."""
    h, w = mask.shape
    ny, nx = h // stride, w // stride
    t = mask[:ny * stride, :nx * stride].reshape(ny, stride, nx, stride)
    flat = t.transpose(0, 2, 1, 3).reshape(ny * nx, stride * stride)
    oy, ox = np.divmod(np.arange(ny * nx, dtype=np.int64), nx)
    values = pa.array(flat.reshape(-1))
    offsets = pa.array(np.arange(0, flat.size + 1, stride * stride,
                                 dtype=np.int32))
    return pa.table({"oy": pa.array(oy), "ox": pa.array(ox),
                     "mask": pa.ListArray.from_arrays(offsets, values)})


def blob_tiles(cache_dir: str, workload: str, seed: int, height: int,
               width: int, stride: int, n_blobs: int) -> str:
    """Cached parquet file of the blob mask cut into tiles."""
    size = {"h": height, "w": width, "stride": stride, "blobs": n_blobs}
    out = os.path.join(cache_dir, cache_key(workload, seed, size))
    if os.path.isdir(out):
        return out
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    tiles = mask_to_tiles(blob_mask(seed, height, width, n_blobs), stride)
    pq.write_table(tiles, os.path.join(tmp, "tiles.parquet"))
    return _publish(tmp, out)
