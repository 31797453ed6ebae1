"""Auxiliary sources: the work-manifest reader and multi-source union —
analogs of the reference's CSV manifest / STAC band assembly.

Reference parity:
* S4 manifest reader (/root/reference/geo_inference/utils/helpers.py:
  366-413): parse {tif, gpkg, split, aoi_id} rows, pad missing columns,
  absolute-path the files, SORT BY split.  No manifest ships with the
  test data, so rows are synthesized deterministically from the ``part``
  table (SQL-mirrorable), then the same validate/pad/sort pipeline runs.
* S3 STAC per-band assembly (helpers.py:335-363): modeled as a union of
  per-source datasets selected by name — ``union_sources``.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

SPLITS = ("trn", "tst", "val")  # sorted order (reference sorts by split)


def synth_manifest_batch(batch: pa.Table) -> pa.Table:
    """part rows -> manifest rows {tif, gpkg, split, aoi_id}.

    split = p_partkey % 3 indexed into SPLITS; deterministic and
    expressible in the SQL oracle."""
    key = batch["p_partkey"]
    sid = pc.cast(key, pa.string())
    tif = pc.binary_join_element_wise(
        pa.scalar("/data/aoi_"), sid, pa.scalar(".tif"), pa.scalar(""))
    gpkg = pc.binary_join_element_wise(
        pa.scalar("/data/aoi_"), sid, pa.scalar(".gpkg"), pa.scalar(""))
    rem = pc.cast(pc.subtract(key, pc.multiply(pc.divide(key, 3), 3)),
                  pa.int64())
    split = pc.case_when(
        pc.make_struct(pc.equal(rem, 0), pc.equal(rem, 1)),
        pa.scalar(SPLITS[0]), pa.scalar(SPLITS[1]), pa.scalar(SPLITS[2]))
    return pa.table({
        "tif": tif, "gpkg": gpkg, "split": split,
        "aoi_id": pc.cast(key, pa.int64()),
    })


def manifest(sf_dir: str):
    """Deterministic manifest Dataset, sorted by split (S4 semantics)."""
    ds = read_table(f"{sf_dir}/part.parquet", ["p_partkey"])
    ds = ds.map_batches(synth_manifest_batch, batch_format="pyarrow",
                        zero_copy_batch=True)
    return ds.sort("split")


def union_sources(sf_dirs: list[str], table: str = "documents",
                  columns: list[str] | None = None):
    """Union of per-source datasets (S3/STAC analog: assemble one logical
    dataset from per-band/per-source files selected by name): one read
    over the per-source files, in ``sf_dirs`` order."""
    return read_table([f"{d}/{table}.parquet" for d in sf_dirs], columns)


class ParquetRowGroups(Datasource):
    """Parquet files, read as runs of whole row groups planned from their
    footers (``rd.read_datasource(ParquetRowGroups(path, cols))``).

    ``path`` is a file, a directory of ``*.parquet`` files (a spill) or
    a list of files; ``columns=None`` reads every column of the first
    file.  The footers give each row group's rows and bytes (the
    uncompressed size of the read columns; Ray's ``read_parquet`` runs a
    sampling task for its size estimate instead), so building the
    Dataset starts no task, and a missing file or column raises right
    there.  The row groups, in file order, are cut into at most
    ``parallelism`` contiguous runs, one read task each: no row group is
    read twice.  With fewer row groups than ``parallelism`` Ray splits
    the read's output blocks instead.

    Neither the declared schema nor the blocks carry schema metadata:
    pandas writers store a ``pandas`` entry there, and pyarrow cannot
    hash a schema that has it, which Ray logs as "Failed to hash the
    schemas" when it deduplicates block schemas.  Without it,
    ``to_pandas`` gives a timestamp column its Arrow unit."""

    def __init__(self, path, columns: list[str] | None = None):
        if isinstance(path, str):
            path = ([os.path.join(path, f) for f in sorted(os.listdir(path))
                     if f.endswith(".parquet")]
                    if os.path.isdir(path) else [path])
        self._schema = None
        self._columns = columns
        self._groups = []  # (file, row group, rows, bytes)
        for p in path:
            meta = pq.read_metadata(p)
            if self._schema is None:
                schema = meta.schema.to_arrow_schema()
                # KeyError for a column the file does not have
                self._schema = pa.schema([schema.field(c) for c in (
                    schema.names if columns is None else columns)])
            leaves = [j for j in range(meta.num_columns)
                      if columns is None or meta.schema.column(j)
                      .path.split(".")[0] in columns]
            for i in range(meta.num_row_groups):
                g = meta.row_group(i)
                self._groups.append((p, i, g.num_rows, sum(
                    g.column(j).total_uncompressed_size for j in leaves)))

    def estimate_inmemory_data_size(self) -> int:
        return sum(g[3] for g in self._groups)

    def get_name(self) -> str:
        return "ParquetRowGroups"

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        n = len(self._groups)
        k = min(parallelism, n)
        tasks = []
        for t in range(k):
            run = self._groups[n * t // k:n * (t + 1) // k]
            files = list(dict.fromkeys(g[0] for g in run))

            def read(run=run, files=files, cols=self._columns):
                for p in files:
                    with pq.ParquetFile(p) as f:
                        yield f.read_row_groups(
                            [g[1] for g in run if g[0] == p],
                            columns=cols).replace_schema_metadata(None)

            meta = BlockMetadata(
                num_rows=sum(g[2] for g in run),
                size_bytes=sum(g[3] for g in run),
                input_files=files, exec_stats=None)
            tasks.append(ReadTask(read, meta, schema=self._schema))
        return tasks


def read_table(path, columns: list[str] | None = None):
    """The package's one Ray read of a parquet table: a Dataset over
    ``path`` (a file, a spill directory or a list of files), pruned to
    ``columns``, with no schema metadata (see :class:`ParquetRowGroups`).
    Ray's default block count applies; ``synth.pages_dataset`` sets its
    own."""
    import ray.data as rd

    return rd.read_datasource(ParquetRowGroups(path, columns))


# ---------------------------------------------------------------------------
# Source seam (S1/S2): pluggable page sources
# ---------------------------------------------------------------------------
#
# The reference reads rasters (GeoTIFF / Zarr / STAC,
# geo_inference/geo_inference.py:249-302); this sandbox has no raster
# stack, so the default source synthesizes the Common-Crawl-style pages
# table from documents.parquet (sanctioned by BASELINE.json input_hint).
# The seam makes that ONE implementation of a small protocol, so a
# raster-backed source can plug into every pipeline without touching
# them.

class PagesSource:
    """Protocol: ``dataset(path) -> ray.data.Dataset`` with the pages
    schema (url, warc_ts, [html,] text, lang, doc_id)."""

    name = "abstract"

    def dataset(self, path: str, include_html: bool = True):
        raise NotImplementedError


class ParquetDocumentsSource(PagesSource):
    """Default source: documents.parquet -> deterministic pages table
    (synth.synth_pages_batch fused into the read)."""

    name = "parquet-documents"

    def dataset(self, path: str, include_html: bool = True):
        from .synth import pages_dataset

        return pages_dataset(path, include_html=include_html)


def raster_window_grid(width: int, height: int,
                       transform: tuple[float, float, float,
                                        float, float, float],
                       tile: int | tuple[int, int] = 512):
    """Enumerate the read-window grid of a raster: (idx, row_off,
    col_off, win_h, win_w, lat, lon) arrays, where (lat, lon) is the
    georeferenced window centroid via the affine ``transform``
    (GDAL/rasterio coefficient order a,b,c,d,e,f: x = a*col + b*row
    + c, y = d*col + e*row + f).  ``tile`` is a square size or a
    (tile_h, tile_w) pair (Zarr chunk grids are rectangular).  Pure
    numpy so the rasterio/zarr branches and the contract-test fake
    share one implementation (reference window logic:
    geo_inference/geo_inference.py:249-302)."""
    import numpy as np

    a, b, c, d, e, f = transform
    th, tw = (tile, tile) if isinstance(tile, int) else tile
    rows = np.arange(0, height, th, dtype=np.int64)
    cols = np.arange(0, width, tw, dtype=np.int64)
    row_off = np.repeat(rows, len(cols))
    col_off = np.tile(cols, len(rows))
    win_h = np.minimum(th, height - row_off)
    win_w = np.minimum(tw, width - col_off)
    ccol = col_off + win_w / 2.0
    crow = row_off + win_h / 2.0
    lon = a * ccol + b * crow + c
    lat = d * ccol + e * crow + f
    idx = np.arange(len(row_off), dtype=np.int64)
    return idx, row_off, col_off, win_h, win_w, lat, lon


def window_pages_table(path: str, idx, row_off, col_off, win_h, win_w,
                       lat, lon, payloads: list[bytes] | None = None,
                       include_html: bool = True):
    """Window specs -> pages-schema Arrow table (the seam contract):
    url ``raster://<path>/<idx>`` (trailing /<digits> satisfies the
    geocoder's url-id grammar); text carries the explicit
    ``geo:{lat},{lon}`` token (FIXTURES F1 priority source -> cluster
    -1); html is the standard body wrapper so ExtractText's per-url
    byte-identity invariant holds for raster rows too; the window's
    raw pixel bytes ride a separate opaque ``payload`` binary column
    (the multimodal-column pattern, multimodal.py)."""
    import numpy as np
    import pyarrow as _pa

    from .synth import EPOCH_2024  # same corpus epoch as synth pages

    n = len(idx)
    url = [f"raster://{path}/{int(i)}" for i in idx]
    text = [f"geo:{la:.6f},{lo:.6f} window {int(r)} {int(cc)} "
            f"{int(hh)}x{int(ww)}"
            for la, lo, r, cc, hh, ww
            in zip(lat, lon, row_off, col_off, win_h, win_w)]
    ts = _pa.array((np.asarray(idx, dtype=np.int64)
                    + EPOCH_2024) * 1_000_000).cast(
        _pa.timestamp("us"))
    cols = {
        "url": _pa.array(url, _pa.string()),
        "warc_ts": ts,
    }
    if include_html:
        # schema contract: html only when requested, like the default
        # ParquetDocumentsSource (union-compatibility across sources)
        html = [(f"<html><head><title>win {int(i)}</title></head>"
                 f"<body><p>{t}</p></body></html>").encode()
                for i, t in zip(idx, text)]
        cols["html"] = _pa.array(html, _pa.binary())
    cols["text"] = _pa.array(text, _pa.string())
    cols["lang"] = _pa.array(["und"] * n, _pa.string())
    cols["doc_id"] = _pa.array(np.asarray(idx, dtype=np.int64))
    if payloads is not None:
        cols["payload"] = _pa.array(payloads, _pa.binary())
    return _pa.table(cols)


class RasterSource(PagesSource):
    """The reference's raster ingestion (GeoTIFF via rasterio,
    geo_inference/geo_inference.py:249-302) behind the pages seam:
    driver enumerates the window grid from header metadata only, then
    per-window pixel reads happen INSIDE map_batches tasks (rasterio
    handle opened once per worker) — the raster never funnels through
    the driver.  Import-guarded: the container ships no rasterio, so
    constructing a dataset without it raises the documented divergence
    instead of failing deep inside a worker."""

    name = "raster"

    def __init__(self, tile: int = 512):
        self.tile = tile

    def dataset(self, path: str, include_html: bool = True):
        try:
            import rasterio  # noqa: F401
        except ImportError as exc:
            # rasterio-less fallback: the from-scratch baseline reader
            # handles uncompressed strip-based single-band GeoTIFFs
            # end-to-end; anything fancier surfaces the documented
            # divergence
            try:
                return TiffSource(self.tile).dataset(
                    path, include_html=include_html)
            except ValueError as verr:
                raise NotImplementedError(
                    "raster ingestion beyond uncompressed strip-based "
                    "single-band GeoTIFF requires rasterio/rioxarray "
                    f"(not in this environment): {verr}; see SURVEY.md "
                    "§2.1 — plug a reader in by registering a "
                    "PagesSource producing the pages schema "
                    "(tests/test_sources_tta.py exercises the seam "
                    "contract)") from exc
        import pyarrow as _pa
        import rasterio
        import ray.data as rd

        with rasterio.open(path) as src:
            width, height = src.width, src.height
            t = src.transform
            transform = (t.a, t.b, t.c, t.d, t.e, t.f)
        idx, ro, co, wh, ww, lat, lon = raster_window_grid(
            width, height, transform, self.tile)
        grid = rd.from_arrow(_pa.table({
            "idx": _pa.array(idx), "row_off": _pa.array(ro),
            "col_off": _pa.array(co), "win_h": _pa.array(wh),
            "win_w": _pa.array(ww), "lat": _pa.array(lat),
            "lon": _pa.array(lon)}))
        tile = self.tile
        read_payload = include_html  # html->payload: pixels are the "body"

        class ReadWindows:
            def __init__(self):
                self.src = rasterio.open(path)

            def __call__(self, batch: "_pa.Table") -> "_pa.Table":
                payloads = None
                if read_payload:
                    from rasterio.windows import Window

                    payloads = [
                        self.src.read(window=Window(int(c), int(r),
                                                    int(w), int(h)))
                        .tobytes()
                        for r, c, h, w in zip(
                            batch["row_off"].to_pylist(),
                            batch["col_off"].to_pylist(),
                            batch["win_h"].to_pylist(),
                            batch["win_w"].to_pylist())]
                return window_pages_table(
                    path, batch["idx"].to_numpy(),
                    batch["row_off"].to_numpy(),
                    batch["col_off"].to_numpy(),
                    batch["win_h"].to_numpy(),
                    batch["win_w"].to_numpy(),
                    batch["lat"].to_numpy(), batch["lon"].to_numpy(),
                    payloads, include_html=read_payload)

        # small batches: each row carries up to tile^2 pixel bytes
        return grid.map_batches(ReadWindows, batch_format="pyarrow",
                                concurrency=(1, 4),
                                batch_size=max(1, 2 ** 22 // tile ** 2))


# TIFF tag ids used by the minimal reader (TIFF 6.0 + GeoTIFF specs)
_TIFF_TYPE_SIZE = {1: 1, 2: 1, 3: 2, 4: 4, 11: 4, 12: 8}


def _tiff_meta(path: str):
    """Parse a baseline strip-based TIFF/GeoTIFF header + first IFD —
    header bytes only, no pixel data read (the TIFF 6.0 and GeoTIFF
    specs are public; mirrors the _zarr_meta from-scratch pattern).

    Returns (width, height, numpy dtype string, GDAL-order affine
    transform, rows_per_strip, strip_offsets, strip_byte_counts).
    Raises ValueError on layouts outside the supported envelope
    (tiled, compressed, multi-sample) so RasterSource can surface the
    rasterio divergence instead of misreading bytes."""
    import struct

    with open(path, "rb") as f:
        try:
            head = f.read(8)
            if head[:2] == b"II":
                e = "<"
            elif head[:2] == b"MM":
                e = ">"
            else:
                raise ValueError(
                    f"{path}: not a TIFF (no II/MM byte mark)")
            magic, ifd_off = struct.unpack(e + "HI", head[2:8])
            if magic != 42:
                raise ValueError(f"{path}: bad TIFF magic {magic}")
            f.seek(ifd_off)
            n_entries = struct.unpack(e + "H", f.read(2))[0]
            raw = f.read(n_entries * 12)
            tags: dict[int, tuple] = {}
            pending: list[tuple[int, int, int, int]] = []
            for i in range(n_entries):
                tag, typ, cnt = struct.unpack(e + "HHI",
                                              raw[i * 12:i * 12 + 8])
                if typ not in _TIFF_TYPE_SIZE:
                    continue
                nbytes = _TIFF_TYPE_SIZE[typ] * cnt
                if nbytes <= 4:
                    tags[tag] = _tiff_values(
                        e, typ, cnt, raw[i * 12 + 8:i * 12 + 12])
                else:
                    off = struct.unpack(
                        e + "I", raw[i * 12 + 8:i * 12 + 12])[0]
                    pending.append((tag, typ, cnt, off))
            for tag, typ, cnt, off in pending:
                f.seek(off)
                tags[tag] = _tiff_values(
                    e, typ, cnt, f.read(_TIFF_TYPE_SIZE[typ] * cnt))
        except struct.error as exc:
            # truncated header/IFD: keep the ValueError contract so
            # RasterSource's fallback maps it to the documented
            # NotImplementedError divergence
            raise ValueError(f"{path}: truncated TIFF header "
                             f"({exc})") from exc

    def one(tag: int, default=None):
        v = tags.get(tag)
        if v is None:
            return default
        return v[0]

    if 322 in tags or 324 in tags:
        raise ValueError(f"{path}: tiled TIFF not supported "
                         "(strip-based baseline reader)")
    comp = one(259, 1)
    if comp != 1:
        raise ValueError(f"{path}: compression {comp} not supported "
                         "(uncompressed baseline reader)")
    spp = one(277, 1)
    if spp != 1:
        raise ValueError(f"{path}: {spp} samples/pixel not supported "
                         "(single-band baseline reader)")
    width, height = one(256), one(257)
    if width is None or height is None or 273 not in tags:
        raise ValueError(f"{path}: missing width/height/strip offsets")
    bits = one(258, 1)
    fmt = one(339, 1)  # 1=uint 2=int 3=float
    kind = {1: "u", 2: "i", 3: "f"}.get(fmt)
    if kind is None or bits % 8 or bits // 8 not in (1, 2, 4, 8):
        raise ValueError(f"{path}: sample format {fmt}/{bits}b "
                         "not supported")
    dtype = f"{e}{kind}{bits // 8}"
    rps = one(278, height)
    offsets = tuple(int(v) for v in tags[273])
    counts = tuple(int(v) for v in tags.get(
        279, (rps * width * (bits // 8),) * len(offsets)))

    # GeoTIFF georeferencing: full ModelTransformation wins, else
    # PixelScale + Tiepoint, else the Zarr default (unit pixels, y-down)
    if 34264 in tags:
        m = tags[34264]
        transform = (m[0], m[1], m[3], m[4], m[5], m[7])
    elif 33550 in tags and 33922 in tags:
        sx, sy = tags[33550][0], tags[33550][1]
        i0, j0, _, x0, y0, _ = tags[33922][:6]
        transform = (sx, 0.0, x0 - i0 * sx, 0.0, -sy, y0 + j0 * sy)
    else:
        transform = (1.0, 0.0, 0.0, 0.0, -1.0, 0.0)
    return width, height, dtype, transform, int(rps), offsets, counts


def _tiff_values(e: str, typ: int, cnt: int, buf: bytes) -> tuple:
    import struct

    code = {1: "B", 2: "s", 3: "H", 4: "I", 11: "f", 12: "d"}[typ]
    if typ == 2:
        return (buf[:cnt],)
    return struct.unpack(f"{e}{cnt}{code}",
                         buf[:_TIFF_TYPE_SIZE[typ] * cnt])


class TiffSource(PagesSource):
    """From-scratch baseline GeoTIFF ingestion (uncompressed,
    strip-based, single-band — the TIFF 6.0/GeoTIFF public layouts),
    closing the reference's front door (GeoTIFF via rasterio,
    geo_inference/geo_inference.py:254-260) without rasterio in the
    container.  Same shape as ZarrSource: the driver parses the header
    IFD only; per-window strip reads (seek + sequential row reads)
    happen inside map_batches tasks; pixels ride the ``payload``
    binary column.  RasterSource falls back here when rasterio is
    absent, so ``get_source("raster")`` handles a real .tif
    end-to-end."""

    name = "tiff"

    def __init__(self, tile: int = 512):
        self.tile = tile

    def dataset(self, path: str, include_html: bool = True):
        import numpy as np
        import pyarrow as _pa
        import ray.data as rd

        width, height, dtype, transform, rps, offsets, _counts = \
            _tiff_meta(path)
        idx, ro, co, wh, ww, lat, lon = raster_window_grid(
            width, height, transform, self.tile)
        grid = rd.from_arrow(_pa.table({
            "idx": _pa.array(idx), "row_off": _pa.array(ro),
            "col_off": _pa.array(co), "win_h": _pa.array(wh),
            "win_w": _pa.array(ww), "lat": _pa.array(lat),
            "lon": _pa.array(lon)}))
        read_payload = include_html
        itemsize = np.dtype(dtype).itemsize
        tile = self.tile

        def read_windows(batch: "_pa.Table") -> "_pa.Table":
            """The file is opened once per batch; each window reads its
            rows strip-by-strip (offset = strip base + row-in-strip *
            width + col, all uncompressed-baseline arithmetic).  A read
            that returns fewer bytes than the row needs (a truncated
            file) raises ``ValueError``."""
            payloads = None
            if read_payload:
                payloads = []
                with open(path, "rb") as f:
                    for r0, c0, hh, www in zip(
                            batch["row_off"].to_pylist(),
                            batch["col_off"].to_pylist(),
                            batch["win_h"].to_pylist(),
                            batch["win_w"].to_pylist()):
                        rows = []
                        for r in range(r0, r0 + hh):
                            pos = offsets[r // rps] \
                                + ((r % rps) * width + c0) * itemsize
                            f.seek(pos)
                            row = f.read(www * itemsize)
                            if len(row) < www * itemsize:
                                raise ValueError(
                                    f"{path}: short strip read at "
                                    f"byte {pos} (row {r}): got "
                                    f"{len(row)} of "
                                    f"{www * itemsize} bytes")
                            rows.append(row)
                        payloads.append(b"".join(rows))
            return window_pages_table(
                path, batch["idx"].to_numpy(),
                batch["row_off"].to_numpy(),
                batch["col_off"].to_numpy(),
                batch["win_h"].to_numpy(),
                batch["win_w"].to_numpy(),
                batch["lat"].to_numpy(), batch["lon"].to_numpy(),
                payloads, include_html=read_payload)

        return grid.map_batches(read_windows, batch_format="pyarrow",
                                batch_size=max(1, 2 ** 22 // tile ** 2))


def _zarr_meta(path: str) -> tuple[tuple[int, int], tuple[int, int],
                                   str, dict | None, str, float,
                                   tuple[float, ...]]:
    """Parse a Zarr v2 2-D array's metadata from ``.zarray`` (+
    optional ``.zattrs`` carrying a GDAL-order affine ``transform``,
    the rioxarray convention).  Header-only — no chunk data read."""
    import json
    import os

    with open(os.path.join(path, ".zarray")) as f:
        za = json.load(f)
    if za.get("zarr_format") != 2 or len(za["shape"]) != 2:
        raise ValueError("ZarrSource supports 2-D Zarr v2 arrays")
    if za.get("order", "C") != "C":
        raise ValueError("ZarrSource supports C-order chunks only")
    comp = za.get("compressor")
    if comp is not None and comp.get("id") != "zlib":
        raise ValueError(
            f"ZarrSource supports null/zlib compressors, got {comp}")
    sep = za.get("dimension_separator", ".")
    transform = (1.0, 0.0, 0.0, 0.0, -1.0, 0.0)
    attrs_path = os.path.join(path, ".zattrs")
    if os.path.exists(attrs_path):
        with open(attrs_path) as f:
            attrs = json.load(f)
        if "transform" in attrs:
            transform = tuple(float(v) for v in attrs["transform"])
    return (tuple(za["shape"]), tuple(za["chunks"]), za["dtype"],
            comp, sep, za.get("fill_value", 0) or 0, transform)


class ZarrSource(PagesSource):
    """Zarr v2 ingestion (the reference's S2 reader analog,
    geo_inference/geo_inference.py:266-276) with a from-scratch
    minimal chunk reader — Zarr v2 is a public JSON + raw-chunk
    layout, so null- and zlib-compressed C-order 2-D arrays need no
    external library (zlib is stdlib).  Same shape as RasterSource:
    the driver reads ONLY ``.zarray``/``.zattrs``; per-chunk file
    reads + decompression happen inside map_batches tasks; pixels
    ride the ``payload`` binary column."""

    name = "zarr"

    def dataset(self, path: str, include_html: bool = True):
        import numpy as np
        import pyarrow as _pa
        import ray.data as rd

        (h, w), (ch, cw), dtype, comp, sep, _fill, transform = \
            _zarr_meta(path)
        idx, ro, co, wh, ww, lat, lon = raster_window_grid(
            w, h, transform, (ch, cw))
        grid = rd.from_arrow(_pa.table({
            "idx": _pa.array(idx), "row_off": _pa.array(ro),
            "col_off": _pa.array(co), "win_h": _pa.array(wh),
            "win_w": _pa.array(ww), "lat": _pa.array(lat),
            "lon": _pa.array(lon)}))
        read_payload = include_html

        def read_chunks(batch: _pa.Table) -> _pa.Table:
            import os
            import zlib

            payloads = None
            if read_payload:
                payloads = []
                for r, c, hh, www in zip(batch["row_off"].to_pylist(),
                                         batch["col_off"].to_pylist(),
                                         batch["win_h"].to_pylist(),
                                         batch["win_w"].to_pylist()):
                    key = f"{r // ch}{sep}{c // cw}"
                    with open(os.path.join(path, key), "rb") as f:
                        raw = f.read()
                    if comp is not None:
                        raw = zlib.decompress(raw)
                    arr = np.frombuffer(raw, dtype=dtype).reshape(ch, cw)
                    # edge chunks are stored full-size, fill-padded:
                    # slice to the live window
                    payloads.append(arr[:hh, :www].tobytes())
            return window_pages_table(
                path, batch["idx"].to_numpy(),
                batch["row_off"].to_numpy(),
                batch["col_off"].to_numpy(),
                batch["win_h"].to_numpy(), batch["win_w"].to_numpy(),
                batch["lat"].to_numpy(), batch["lon"].to_numpy(),
                payloads, include_html=read_payload)

        return grid.map_batches(read_chunks, batch_format="pyarrow",
                                batch_size=max(1, 2 ** 22 // (ch * cw)))


class StacCatalogSource(PagesSource):
    """STAC static-catalog ingestion (the reference's S3 multi-asset
    reader analog): walks a local STAC catalog/collection/item JSON
    tree (rel="child"/"item" links, hrefs resolved relative to each
    file — the public static-catalog layout), builds a per-asset
    dataset (parquet documents -> synthesized pages; Zarr dirs via
    ZarrSource), and unions them into one logical pages dataset."""

    name = "stac"

    @staticmethod
    def _walk_assets(path: str) -> list[tuple[str, str]]:
        import json
        import os

        with open(path) as f:
            doc = json.load(f)
        base = os.path.dirname(path)
        out: list[tuple[str, str]] = []
        if doc.get("type") == "Feature":  # STAC item
            for a in doc.get("assets", {}).values():
                out.append((os.path.normpath(
                    os.path.join(base, a["href"])), a.get("type", "")))
            return out
        for link in doc.get("links", []):
            if link.get("rel") in ("item", "child"):
                out.extend(StacCatalogSource._walk_assets(
                    os.path.normpath(os.path.join(base, link["href"]))))
        return out

    def dataset(self, path: str, include_html: bool = True):
        from .synth import synth_pages_batch

        assets = self._walk_assets(path)
        if not assets:
            raise ValueError(f"STAC catalog at {path} has no assets")
        parts = []
        for href, mtype in assets:
            if href.endswith(".parquet") or "parquet" in mtype:
                ds = read_table(href, ["doc_id", "text", "lang", "source"])
                ds = ds.map_batches(synth_pages_batch,
                                    batch_format="pyarrow",
                                    zero_copy_batch=True)
                if not include_html:
                    ds = ds.select_columns(
                        ["url", "warc_ts", "text", "lang", "doc_id"])
                parts.append(ds)
            elif "zarr" in mtype or href.rstrip("/").endswith(".zarr"):
                zd = ZarrSource().dataset(href,
                                          include_html=include_html)
                # union compatibility: the catalog-level dataset is the
                # PAGES union, so drop the raster-only payload column
                # (call ZarrSource directly for pixel payloads)
                keep = (["url", "warc_ts", "html", "text", "lang",
                         "doc_id"] if include_html else
                        ["url", "warc_ts", "text", "lang", "doc_id"])
                parts.append(zd.select_columns(keep))
            else:
                raise ValueError(
                    f"unsupported STAC asset type {mtype!r} ({href})")
        out = parts[0]
        for p in parts[1:]:
            out = out.union(p)
        return out


_SOURCES: dict[str, PagesSource] = {}


def register_source(src: PagesSource) -> None:
    _SOURCES[src.name] = src


def get_source(name: str = "parquet-documents") -> PagesSource:
    return _SOURCES[name]


register_source(ParquetDocumentsSource())
register_source(RasterSource())
register_source(TiffSource())
register_source(ZarrSource())
register_source(StacCatalogSource())


# ---------------------------------------------------------------------------
# Model fetcher + work-dir cache (S6; reference utils/helpers.py:104-196)
# ---------------------------------------------------------------------------

def fetch_artifact(url: str, work_dir: str) -> str:
    """Fetch-once-per-work-dir artifact cache.

    Reference semantics (helpers.py:104-196): download the model
    archive, extract tar.gz, cache under the work dir; later calls (and
    other actors on the node) hit the cache.  This environment has no
    network, so ``file://`` URLs / local paths are the supported scheme;
    the caching/extraction contract is identical.

    Returns the directory holding the extracted (or copied) artifact.
    """
    import hashlib
    import shutil
    import tarfile

    src = url[7:] if url.startswith("file://") else url
    if not os.path.exists(src):
        raise FileNotFoundError(f"artifact not found: {url}")
    import tempfile

    key = hashlib.md5(url.encode()).hexdigest()[:12]
    base = os.path.basename(src)
    dest = os.path.join(work_dir, "artifacts", f"{base}.{key}")
    marker = os.path.join(dest, ".complete")
    if os.path.exists(marker):
        return dest
    # staging dir is UNIQUE PER CALL (mkdtemp), not a shared dest+'.tmp':
    # actors of one pool init concurrently on a node, and a shared tmp
    # path lets one worker rmtree a sibling's in-progress extraction
    # mid-__init__.  The final os.replace is atomic; losers of the race
    # just swap in an identical tree.
    os.makedirs(os.path.dirname(dest), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f".{base}.{key}.stage.",
                           dir=os.path.dirname(dest))
    try:
        if base.endswith((".tar.gz", ".tgz")):
            with tarfile.open(src, "r:gz") as tf:
                tf.extractall(tmp, filter="data")
        else:
            shutil.copy2(src, os.path.join(tmp, base))
        with open(os.path.join(tmp, ".complete"), "w") as f:
            f.write("ok")
        if os.path.exists(marker):  # a sibling finished first — done
            return dest
        # bounded retry loop: every failed os.replace means a sibling
        # touched dest — either a finished winner (marker: keep theirs)
        # or a stale marker-less partial (clear and retry).  Two racers
        # can each rmtree and re-replace, so the RETRY replace needs the
        # same marker-check guard as the first attempt: a loser whose
        # retry fails against a now-complete dest must return it, not
        # crash its actor __init__ mid-pool-start.
        for _ in range(8):
            if os.path.exists(marker):
                return dest
            try:
                os.replace(tmp, dest)
                return dest
            except OSError:
                if os.path.exists(marker):
                    return dest
                shutil.rmtree(dest, ignore_errors=True)
        raise OSError(f"fetch_artifact: could not stage {dest} "
                      "after 8 attempts (livelock?)")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


class ArtifactScorer:
    """Scorer loaded from a fetched artifact (the S6 model-plugin path):
    a JSON params file configures the density scorer.  Fetch + parse
    happen once per actor in ``__init__`` — the fetch-once-per-worker
    contract the reference gets from its work-dir cache."""

    def __init__(self, num_classes: int = 3,
                 url: str = "", work_dir: str = "/tmp/geo_inference_ray"):
        import json as _json

        from .tiling import DensityScorer

        d = fetch_artifact(url, work_dir)
        cfg_path = None
        for root, _, files in os.walk(d):
            for fn in files:
                if fn.endswith(".json"):
                    cfg_path = os.path.join(root, fn)
        params = {}
        if cfg_path:
            with open(cfg_path) as f:
                params = _json.load(f)
        self.base = DensityScorer(params.get("num_classes", num_classes))

    def __call__(self, patch_counts):
        return self.base(patch_counts)


class TorchScriptScorer:
    """TorchScript model-backed patch scorer (the reference's ST1 model
    load, geo_inference/geo_inference.py:101-107) behind the same
    scorer seam mask_tiles already takes: the ``.pt`` artifact is
    fetched through the work-dir cache and ``torch.jit.load``-ed ONCE
    per actor in ``__init__``; ``__call__`` scores a (C, H, W) count
    patch batch through the module.  Import-guarded — the container
    ships no torch, so construction raises the documented divergence;
    the seam itself (fetch -> load-once -> per-patch __call__) is
    exercised by ArtifactScorer and the scorer contract tests."""

    def __init__(self, num_classes: int = 3, url: str = "",
                 work_dir: str = "/tmp/geo_inference_ray",
                 device: str = "cpu"):
        # num_classes is the scorer-seam contract (ScorePatches calls
        # scorer_cls(grid.num_classes) positionally — see
        # ArtifactScorer); the TorchScript module defines its own
        # output classes, so the value is accepted and ignored.
        del num_classes
        try:
            import torch
        except ImportError as exc:
            raise NotImplementedError(
                "TorchScriptScorer requires torch (not in this "
                "environment); see SURVEY.md ST1 — plug a scorer in by "
                "passing any callable class to mask_tiles(scorer_cls=)"
            ) from exc
        d = fetch_artifact(url, work_dir)
        pt = None
        for root, _, files in os.walk(d):
            for fn in files:
                if fn.endswith(".pt"):
                    pt = os.path.join(root, fn)
        if pt is None:
            raise FileNotFoundError(f"no .pt artifact under {d}")
        self.device = device
        self.model = torch.jit.load(pt, map_location=device).eval()

    def __call__(self, patch_counts):
        import numpy as np
        import torch

        with torch.no_grad():
            x = torch.as_tensor(np.asarray(patch_counts),
                                dtype=torch.float32,
                                device=self.device)
            return self.model(x).cpu().numpy()


class ConvNpzScorer:
    """REAL learned-weights patch scorer, no torch required: the
    artifact is an ``.npz`` holding a tiny conv net — ``w1`` (F,1,k,k)
    same-padded conv + ``b1`` ReLU, ``w2`` (num_classes,F,1,1) 1x1 conv
    + ``b2``, softmax over classes — executed with numpy
    (sliding_window_view + einsum).  This runs the reference's model
    contract ((C,H,W) counts in, C = 1 here, or plain (H,W) ->
    (num_classes,H,W) probabilities out,
    examples/script_model.py:4-43) with weights that actually
    come from a fetched artifact: fetch + np.load happen ONCE per
    actor in ``__init__`` (the ST1 load-once contract), scoring is
    per-patch in ``__call__`` — the closest executable stand-in for
    TorchScriptScorer in a torch-less container."""

    def __init__(self, num_classes: int = 3, url: str = "",
                 work_dir: str = "/tmp/geo_inference_ray"):
        import numpy as np

        d = fetch_artifact(url, work_dir)
        npz = None
        for root, _, files in os.walk(d):
            for fn in files:
                if fn.endswith(".npz"):
                    npz = os.path.join(root, fn)
        if npz is None:
            raise FileNotFoundError(f"no .npz artifact under {d}")
        w = np.load(npz)
        self.w1 = w["w1"].astype(np.float64)   # (F, 1, k, k)
        self.b1 = w["b1"].astype(np.float64)   # (F,)
        self.w2 = w["w2"].astype(np.float64)   # (C, F, 1, 1)
        self.b2 = w["b2"].astype(np.float64)   # (C,)
        if self.w2.shape[0] != num_classes:
            raise ValueError(
                f"artifact outputs {self.w2.shape[0]} classes, "
                f"grid expects {num_classes}")
        k = self.w1.shape[-1]
        if k % 2 != 1:
            raise ValueError(f"conv kernel must be odd, got {k}")
        self.k = k

    def __call__(self, patch_counts):
        import numpy as np

        x = np.asarray(patch_counts, dtype=np.float64)
        if x.ndim == 3 and x.shape[0] == 1:
            x = x[0]                                   # (1,H,W) -> (H,W)
        if x.ndim != 2:
            raise ValueError(
                f"expected (H,W) or (1,H,W) counts, got shape {x.shape}")
        p = self.k // 2
        xp = np.pad(x, p, mode="constant")
        win = np.lib.stride_tricks.sliding_window_view(
            xp, (self.k, self.k))                      # (H, W, k, k)
        h = np.einsum("hwij,fij->fhw", win, self.w1[:, 0]) \
            + self.b1[:, None, None]
        np.maximum(h, 0.0, out=h)                      # ReLU
        logits = np.einsum("fhw,cf->chw", h, self.w2[:, :, 0, 0]) \
            + self.b2[:, None, None]
        e = np.exp(logits - logits.max(axis=0, keepdims=True))
        return e / e.sum(axis=0, keepdims=True)


def jsonl_documents(sf_dir: str):
    """documents via the JSONL ingestion path: the parquet table is
    converted ONCE to newline-delimited JSON under a marker-guarded
    scratch dir (deterministic bytes; per-(sf, mtime) key so a changed
    input invalidates), then read back with Ray's native JSON reader
    (pyarrow json — file-parallel, projection after parse).  Proves
    the third source format (parquet / CSV manifest / JSONL) end to
    end; the oracle reads the parquet directly, so the whole
    round-trip must be lossless."""
    import hashlib as _hl
    import json
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    src = f"{sf_dir}/documents.parquet"
    st = os.stat(src)
    # key = digest of the RESOLVED path + size + mtime: basename alone
    # aliases two datasets whose leaf dirs share a name and whose
    # parquet mtimes were preserved by the copier
    key = _hl.md5(f"{os.path.realpath(src)}|{st.st_size}|"
                  f"{st.st_mtime_ns}".encode()).hexdigest()[:16]
    out_dir = os.path.join("/tmp", "geo_inference_ray_jsonl", key)
    marker = os.path.join(out_dir, "_SUCCESS")
    if not os.path.exists(marker):
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "documents.jsonl")
        # per-PID tmp name + O_EXCL marker: two processes filling the
        # same cache key race safely — each writes its own tmp, the
        # os.replace is atomic either way, and exactly one marker
        # create wins (the loser's identical bytes were just replaced)
        tmp = f"{path}.{os.getpid()}.tmp"
        pf = pq.ParquetFile(src)
        cols = pf.schema_arrow.names
        with open(tmp, "w", encoding="utf-8") as f:
            # stream row-group-wise: the driver never holds the whole
            # text column (the cache fill is one pass, not O(corpus)
            # resident)
            for rb in pf.iter_batches(batch_size=8192):
                for row in zip(*[rb.column(i).to_pylist()
                                 for i in range(rb.num_columns)]):
                    f.write(json.dumps(dict(zip(cols, row)),
                                       ensure_ascii=False,
                                       separators=(",", ":")) + "\n")
        os.replace(tmp, path)
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.write(fd, b"ok")
            os.close(fd)
        except FileExistsError:
            pass  # another process finished first; bytes identical
    return rd.read_json(out_dir, file_extensions=["jsonl"])
