"""Tests: manifest source (S4 analog), union source (S3 analog), TTA
scorer (ST2 analog)."""

import numpy as np
import pytest

from geo_inference_ray.tiling import DensityScorer, TTAScorer


def test_manifest_sorted_and_shaped(ray_session, sf_dir, duck):
    from geo_inference_ray.sources import manifest

    df = manifest(sf_dir).to_pandas()
    assert list(df.columns) == ["tif", "gpkg", "split", "aoi_id"]
    assert (df["split"].to_numpy() == np.sort(df["split"].to_numpy())).all()
    exp = duck.sql("""
        SELECT '/data/aoi_' || CAST(p_partkey AS VARCHAR) || '.tif' AS tif,
               CASE p_partkey % 3 WHEN 0 THEN 'trn' WHEN 1 THEN 'tst'
                    ELSE 'val' END AS split,
               p_partkey AS aoi_id
        FROM part ORDER BY split, aoi_id""").df()
    got = df.sort_values(["split", "aoi_id"]).reset_index(drop=True)
    assert (got["tif"].to_numpy() == exp["tif"].to_numpy()).all()
    assert (got["split"].to_numpy() == exp["split"].to_numpy()).all()


def test_union_sources(ray_session, sf_dir):
    from geo_inference_ray.sources import union_sources

    ds = union_sources([sf_dir, sf_dir], "region")
    assert ds.count() == 10  # 5 regions x 2 sources


def test_tta_identity_for_pointwise_scorer():
    """DensityScorer is per-pixel, so TTA must be a no-op (strong
    correctness property for the aug/inverse plumbing)."""
    rng = np.random.default_rng(4)
    patch = rng.integers(0, 5, (16, 16)).astype(float)
    base = DensityScorer(3)(patch)
    for mode in ("flip", "d4"):
        tta = TTAScorer(3, mode=mode)(patch)
        np.testing.assert_allclose(tta, base, atol=1e-12)


def test_tta_averages_spatial_scorer():
    """A spatially-asymmetric scorer must produce a different (averaged)
    result under TTA."""

    class ShiftScorer:
        def __init__(self, n):
            self.n = n

        def __call__(self, p):
            out = np.zeros((self.n, *p.shape))
            out[0] = np.roll(p, 1, axis=1)  # asymmetric: shift right
            out[1] = 1 - out[0]
            out[2] = 0.0
            return out

    rng = np.random.default_rng(5)
    patch = rng.uniform(size=(8, 8))
    plain = ShiftScorer(3)(patch)
    tta = TTAScorer(3, base_cls=ShiftScorer, mode="flip")(patch)
    assert not np.allclose(tta, plain)
    # mean of augmentations stays a valid probability-ish field
    assert tta.shape == plain.shape


def test_tta_pluggable_in_pipeline(ray_session, sf_dir):
    """TTAScorer drops into mask_tiles as the scorer (model-plugin
    surface); per-pixel base -> identical mask to the plain run."""
    from geo_inference_ray import stages
    from geo_inference_ray.tiling import DEFAULT_GRID, mask_tiles

    geo = stages.geo_pipeline(sf_dir, with_cells=False)
    a = mask_tiles(geo, DEFAULT_GRID).to_pandas() \
        .sort_values(["oy", "ox"]).reset_index(drop=True)
    geo2 = stages.geo_pipeline(sf_dir, with_cells=False)
    b = mask_tiles(geo2, DEFAULT_GRID, scorer_cls=TTAScorer).to_pandas() \
        .sort_values(["oy", "ox"]).reset_index(drop=True)
    assert len(a) == len(b)
    for x, y in zip(a["mask"], b["mask"]):
        np.testing.assert_array_equal(np.asarray(x), np.asarray(y))


def test_source_seam_default_matches_pages(ray_session, sf_dir):
    from geo_inference_ray.sources import get_source
    from geo_inference_ray.synth import pages_dataset

    a = get_source().dataset(sf_dir).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    b = pages_dataset(sf_dir).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert a.equals(b)


def test_raster_source_raises_documented(tmp_path):
    """Outside the baseline-TIFF fallback's envelope (a compressed
    TIFF here), the raster source raises the documented rasterio
    divergence; a missing path stays an honest FileNotFoundError."""
    import numpy as np
    import pytest as _pytest

    from geo_inference_ray.sources import get_source

    try:
        import rasterio  # noqa: F401
        _pytest.skip("rasterio available: guard branch not reachable")
    except ImportError:
        pass
    # compression tag != 1 -> ValueError -> NotImplementedError
    p = tmp_path / "lzw.tif"
    _write_tiff(str(p), np.zeros((4, 4), np.uint8), 4)
    raw = bytearray(p.read_bytes())
    # patch the compression tag value (tag 259, first IFD) to 5 (LZW)
    import struct
    ifd_off = struct.unpack("<I", raw[4:8])[0]
    n = struct.unpack("<H", raw[ifd_off:ifd_off + 2])[0]
    for i in range(n):
        base = ifd_off + 2 + 12 * i
        if struct.unpack("<H", raw[base:base + 2])[0] == 259:
            raw[base + 8:base + 12] = struct.pack("<I", 5)
    p.write_bytes(bytes(raw))
    with _pytest.raises(NotImplementedError, match="rasterio"):
        get_source("raster").dataset(str(p))
    with _pytest.raises(FileNotFoundError):
        get_source("raster").dataset("/nope")


def test_custom_source_plugs_into_pipeline(ray_session, sf_dir):
    """A registered PagesSource flows through geo_pipeline unchanged."""
    from geo_inference_ray import stages
    from geo_inference_ray.sources import (PagesSource, get_source,
                                           register_source)

    class Halved(PagesSource):
        name = "halved"

        def dataset(self, path, include_html=True):
            import pyarrow as pa

            base = get_source().dataset(path, include_html)
            return base.map_batches(
                lambda b: b.filter(
                    pa.array((b["doc_id"].to_numpy() % 2) == 0)),
                batch_format="pyarrow")

    register_source(Halved())
    full = stages.geo_pipeline(sf_dir).count()
    half = stages.geo_pipeline(sf_dir, source="halved").count()
    assert 0 < half < full


def test_fetch_artifact_cache_and_scorer(ray_session, tmp_path):
    """Fetch a tar.gz once, extract into the work-dir cache; a second
    fetch (second actor init) hits the cache without re-extracting; the
    artifact-configured scorer loads its params from it."""
    import json
    import os
    import tarfile

    import numpy as np

    from geo_inference_ray.sources import ArtifactScorer, fetch_artifact

    src = tmp_path / "model"
    src.mkdir()
    with open(src / "params.json", "w") as f:
        json.dump({"num_classes": 3}, f)
    tar = tmp_path / "model.tar.gz"
    with tarfile.open(tar, "w:gz") as tf:
        tf.add(src / "params.json", arcname="params.json")
    wd = str(tmp_path / "work")
    os.makedirs(wd)
    d1 = fetch_artifact(f"file://{tar}", wd)
    assert os.path.exists(os.path.join(d1, "params.json"))
    stamp = os.path.getmtime(os.path.join(d1, "params.json"))
    d2 = fetch_artifact(f"file://{tar}", wd)
    assert d2 == d1
    assert os.path.getmtime(os.path.join(d1, "params.json")) == stamp
    sc = ArtifactScorer(url=f"file://{tar}", work_dir=wd)
    out = sc(np.ones((4, 4)))
    assert out.shape == (3, 4, 4)
    np.testing.assert_allclose(out.sum(axis=0), 1.0)


def test_conv_npz_scorer_real_weights(ray_session, tmp_path, sf_dir):
    """Real-weights model execution without torch: an .npz conv-net
    artifact (same-padded kxk conv + ReLU + 1x1 conv + softmax) loads
    once per actor and scores patches — checked against a naive
    triple-loop conv, and driven end-to-end through mask_tiles."""
    import numpy as np

    from geo_inference_ray import tiling
    from geo_inference_ray.sources import ConvNpzScorer

    rng = np.random.default_rng(3)
    F, C, k = 4, 3, 3
    w1 = rng.normal(size=(F, 1, k, k))
    b1 = rng.normal(size=(F,))
    w2 = rng.normal(size=(C, F, 1, 1))
    b2 = rng.normal(size=(C,))
    src = tmp_path / "conv_model"
    src.mkdir()
    np.savez(src / "weights.npz", w1=w1, b1=b1, w2=w2, b2=b2)
    wd = str(tmp_path / "work")
    url = f"file://{src / 'weights.npz'}"

    sc = ConvNpzScorer(num_classes=C, url=url, work_dir=wd)
    x = rng.integers(0, 5, (6, 7)).astype(np.float64)

    # naive reference conv
    p = k // 2
    xp = np.pad(x, p)
    h = np.zeros((F, 6, 7))
    for f in range(F):
        for i in range(6):
            for j in range(7):
                h[f, i, j] = (xp[i:i + k, j:j + k] * w1[f, 0]).sum() \
                    + b1[f]
    h = np.maximum(h, 0.0)
    logits = np.einsum("fhw,cf->chw", h, w2[:, :, 0, 0]) \
        + b2[:, None, None]
    e = np.exp(logits - logits.max(axis=0, keepdims=True))
    want = e / e.sum(axis=0, keepdims=True)
    got = sc(x)
    np.testing.assert_allclose(got, want, rtol=1e-12)
    np.testing.assert_allclose(got.sum(axis=0), 1.0)
    # the documented (C,H,W) input with C = 1 scores like (H,W)
    np.testing.assert_array_equal(sc(x[None]), got)
    with pytest.raises(ValueError, match="counts"):
        sc(np.stack([x, x]))

    # end-to-end: the artifact-backed conv net drives the tile
    # pipeline through the standard scorer seam
    class BoundConv(ConvNpzScorer):
        def __init__(self, num_classes=C):
            super().__init__(num_classes, url=url, work_dir=wd)

    from geo_inference_ray import stages

    geo = stages.geo_pipeline(sf_dir, with_cells=False)
    tiles = tiling.mask_tiles(geo, tiling.DEFAULT_GRID,
                              scorer_cls=BoundConv).to_pandas()
    assert len(tiles) > 0
    classes = set()
    for m in tiles["mask"]:
        classes |= set(np.asarray(m, dtype=np.uint8).tolist())
    assert classes <= set(range(C)) | {tiling.NODATA}
    assert classes & set(range(C))  # some valid pixels got classified


def test_fused_plan_matches_staged_pipeline(ray_session, sf_dir):
    """transform_pages runs the page stages as one Ray task function
    over many small batches; its rows must equal those of the per-stage
    classes chained in-process over the whole table, in every join
    mode."""
    import pyarrow.parquet as pq

    from geo_inference_ray import stages, synth

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang", "source"])
    staged = stages.encode_cells(stages.Geocoder()(
        stages.ExtractText()(synth.synth_pages_batch(docs))))

    def rows(t):
        df = t.to_pandas()
        return df.sort_values([c for c in ("doc_id", "poly_id")
                               if c in df]).reset_index(drop=True)

    for mode in (None, "inner", "semi", "anti", "left"):
        want = rows(stages.PIPJoiner(None, mode)(staged) if mode
                    else staged)
        ds = stages.transform_pages(synth.pages_dataset(sf_dir),
                                    mode=mode, batch_size=64)
        got = rows(ds)
        assert len(want) > 0, mode
        assert list(got.columns) == list(want.columns), mode
        for c in want.columns:
            assert got[c].tolist() == want[c].tolist(), (mode, c)


def _documents(path, n_rows, row_group_size):
    """A documents.parquet of ``n_rows`` rows under ``path``, written
    in row groups of ``row_group_size``."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    ids = np.arange(n_rows, dtype=np.int64) * 7 + 3
    docs = pa.table({
        "doc_id": ids,
        "text": [f"words of doc {i} " * (1 + i % 5) for i in ids.tolist()],
        "lang": ["en", "de", "fr"] * (n_rows // 3) + ["en"] * (n_rows % 3),
        "source": ["web"] * n_rows})
    path.mkdir(exist_ok=True)
    pq.write_table(docs, path / "documents.parquet",
                   row_group_size=row_group_size)
    return docs


def test_pages_read_keeps_file_order_at_any_block_count(
        ray_session, tmp_path, monkeypatch):
    """The footer-planned pages read gives the rows of the file in file
    order, as one block per session CPU: one run of row groups per
    read task when the file has enough row groups, and the read split
    after it when it has fewer.  No row group is read twice."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from ray.data import DataContext

    from geo_inference_ray import pools, synth
    from geo_inference_ray.sources import ParquetRowGroups

    cols = ["doc_id", "text", "lang", "source"]
    many = tmp_path / "many"
    _documents(many, 1000, 100)
    path = str(many / "documents.parquet")
    want = pq.read_table(path, columns=cols)

    for parallelism, n_tasks in ((1, 1), (4, 4), (16, 10)):
        tasks = ParquetRowGroups(path, cols).get_read_tasks(parallelism)
        assert len(tasks) == n_tasks
        got = pa.concat_tables(b for t in tasks for b in t())
        assert got.equals(want)
        assert [t.metadata.num_rows for t in tasks] == \
            [b.num_rows for t in tasks for b in t()]
        assert all(t.metadata.input_files == [path] for t in tasks)

    monkeypatch.setattr(DataContext.get_current().execution_options,
                        "preserve_order", True)
    one = tmp_path / "one"
    _documents(one, 1000, 1000)
    for sf_dir, cpus in ((many, 1), (many, 4), (one, 4)):
        monkeypatch.setattr(pools, "cluster_cpus", lambda c=cpus: c)
        ds = synth.pages_dataset(str(sf_dir)).materialize()
        assert ds.num_blocks() == cpus
        got = pa.concat_tables(
            ds.iter_batches(batch_size=None, batch_format="pyarrow"))
        assert got.equals(synth.synth_pages_batch(
            pq.read_table(str(sf_dir / "documents.parquet"), columns=cols)))


def test_pages_read_raises_at_build(ray_session, tmp_path):
    """A missing file or column raises when the Dataset is built, not
    when it runs."""
    import pyarrow.parquet as pq

    from geo_inference_ray import synth

    with pytest.raises(FileNotFoundError):
        synth.pages_dataset(str(tmp_path / "nowhere"))
    docs = _documents(tmp_path / "d", 10, 5)
    pq.write_table(docs.drop_columns(["source"]),
                   tmp_path / "d" / "documents.parquet")
    with pytest.raises(KeyError, match="source"):
        synth.pages_dataset(str(tmp_path / "d"))


def test_read_table_blocks_carry_no_schema_metadata(ray_session, sf_dir):
    """``read_table`` blocks have no schema metadata, so their schema
    hashes (the testdata files carry a ``pandas`` entry, which pyarrow
    cannot hash), and their values equal ``pq.read_table``'s; a
    timestamp column reads back in its Arrow unit."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from geo_inference_ray.sources import read_table

    path = f"{sf_dir}/orders.parquet"
    cols = ["o_orderkey", "o_orderdate", "o_totalprice"]
    assert pq.read_schema(path).metadata  # the input does carry it
    ds = read_table(path, cols)
    assert ds.schema().base_schema.metadata is None
    blocks = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    assert blocks
    for b in blocks:
        assert b.schema.metadata is None
        hash(b.schema)
    assert pa.concat_tables(blocks).equals(pq.read_table(path, columns=cols))
    assert str(ds.to_pandas()["o_orderdate"].dtype) == "datetime64[us]"


def test_read_table_missing_column_raises_at_build(ray_session, sf_dir):
    """A column the file does not have raises when the Dataset is built,
    before any task runs."""
    from geo_inference_ray.sources import read_table

    with pytest.raises(KeyError, match="o_nope"):
        read_table(f"{sf_dir}/orders.parquet", ["o_orderkey", "o_nope"])


def test_read_table_directory_and_file_list(ray_session, tmp_path,
                                            monkeypatch):
    """A spill directory reads its ``*.parquet`` files in name order, a
    file list in list order, and an empty directory as no rows."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from ray.data import DataContext

    from geo_inference_ray.sources import read_table

    monkeypatch.setattr(DataContext.get_current().execution_options,
                        "preserve_order", True)
    parts = [pa.table({"k": np.arange(i * 10, i * 10 + 10),
                       "v": np.arange(10) * i}) for i in range(3)]
    for i, t in enumerate(parts):
        pq.write_table(t, tmp_path / f"part-{i}.parquet", row_group_size=4)
    (tmp_path / "notes.txt").write_text("not parquet")
    def rows(ds):
        return pa.concat_tables(ds.iter_batches(batch_size=None,
                                                batch_format="pyarrow"))

    assert rows(read_table(str(tmp_path))).equals(pa.concat_tables(parts))
    files = [str(tmp_path / f"part-{i}.parquet") for i in (2, 0)]
    got = rows(read_table(files, ["v"]))
    assert got.column_names == ["v"]
    assert got["v"].to_pylist() == (parts[2]["v"].to_pylist()
                                    + parts[0]["v"].to_pylist())
    empty = tmp_path / "empty"
    empty.mkdir()
    assert read_table(str(empty)).count() == 0


def test_pages_dataset_build_starts_no_task(ray_session, sf_dir,
                                            monkeypatch):
    """Building the pages Dataset (and the page maps on it) submits no
    Ray task: the read is planned from the parquet footer, with no
    sampling pass over the file."""
    from ray.data._internal.datasource import parquet_datasource
    from ray.remote_function import RemoteFunction

    from geo_inference_ray import stages

    def no_sampling(*a, **kw):
        raise AssertionError("the pages read sampled its file")

    submitted = []
    orig = RemoteFunction._remote

    def count(self, *a, **kw):
        submitted.append(self._function_name)
        return orig(self, *a, **kw)

    monkeypatch.setattr(parquet_datasource, "sample_fragments", no_sampling)
    monkeypatch.setattr(RemoteFunction, "_remote", count)
    stages.geo_pipeline(sf_dir, mode="inner")
    assert submitted == []


def test_raster_seam_contract_full_pipeline(ray_session):
    """The PagesSource seam carries a real (non-default) reader through
    the FULL pipeline: a fake raster source — same window grid + pages
    builders the rasterio branch uses — is registered, geo_pipeline
    reads from it by name, the geocoder picks the geo tokens (cluster
    -1), and the tile pipeline materializes masks from it."""
    import numpy as np
    import pyarrow as pa

    from geo_inference_ray import sources, stages
    from geo_inference_ray.sources import (PagesSource, raster_window_grid,
                                           register_source,
                                           window_pages_table)
    from geo_inference_ray.tiling import DEFAULT_GRID, pixel_counts

    # identity-ish affine: 0.01 deg/pixel, origin (-10, 5), north-up
    transform = (0.01, 0.0, -10.0, 0.0, -0.01, 5.0)
    W, H, TILE = 1000, 800, 256

    class FakeRaster(PagesSource):
        name = "fake-raster"

        def dataset(self, path: str, include_html: bool = True):
            import ray.data as rd

            idx, ro, co, wh, ww, lat, lon = raster_window_grid(
                W, H, transform, TILE)
            payloads = ([bytes([int(i) % 251]) * 8 for i in idx]
                        if include_html else None)
            return rd.from_arrow(window_pages_table(
                path, idx, ro, co, wh, ww, lat, lon, payloads))

    register_source(FakeRaster())
    geo = stages.geo_pipeline("/unused", source="fake-raster").to_pandas()

    idx, ro, co, wh, ww, lat, lon = raster_window_grid(W, H, transform,
                                                       TILE)
    n_win = len(idx)
    assert n_win == 4 * 4  # ceil(1000/256) x ceil(800/256)
    assert len(geo) == n_win
    geo = geo.sort_values("doc_id").reset_index(drop=True)
    # geocoder honored the geo token (not the url-id fallback)
    assert (geo["cluster"] == -1).all()
    # centroid coords survive the token round-trip at 1e-6 precision
    assert np.allclose(geo["lat"].to_numpy(), lat, atol=5e-7)
    assert np.allclose(geo["lon"].to_numpy(), lon, atol=5e-7)
    # per-url text invariant: byte-identical to the source's text
    src_tab = window_pages_table("/unused", idx, ro, co, wh, ww, lat,
                                 lon)
    assert geo["text"].tolist() == src_tab["text"].to_pylist()

    # the tile pipeline runs from the seam too
    pix = pixel_counts(
        stages.geo_pipeline("/unused", source="fake-raster",
                            with_cells=False),
        DEFAULT_GRID).to_pandas()
    assert int(pix["n"].sum()) == n_win


def test_raster_source_import_guard(tmp_path):
    """Without rasterio, a raster outside the from-scratch baseline
    reader's envelope (here: not a TIFF at all) must fail fast at
    dataset construction with the documented divergence message."""
    import pytest

    from geo_inference_ray.sources import get_source

    try:
        import rasterio  # noqa: F401
        pytest.skip("rasterio available: guard branch not reachable")
    except ImportError:
        pass
    bogus = tmp_path / "not_a.tif"
    bogus.write_bytes(b"GIF89a not a tiff at all")
    with pytest.raises(NotImplementedError, match="rasterio"):
        get_source("raster").dataset(str(bogus))


def _write_tiff(path, arr, rows_per_strip, endian="<",
                scale_tiepoint=None, truncate=0):
    """Hand-write a baseline strip-based single-band GeoTIFF from the
    public TIFF 6.0 + GeoTIFF specs (header, one IFD, uncompressed
    strips, PixelScale/Tiepoint tags) — no tiff library in the
    container, which is exactly what TiffSource's reader is for.
    ``truncate`` cuts that many bytes off the strip data while the IFD
    still lists the full strips, so the last strips lie past the end of
    the file."""
    import struct

    import numpy as np

    h, w = arr.shape
    arr = arr.astype(arr.dtype.newbyteorder(endian))
    item = arr.dtype.itemsize
    kind = {"u": 1, "i": 2, "f": 3}[arr.dtype.kind]
    strips = [arr[r:r + rows_per_strip].tobytes()
              for r in range(0, h, rows_per_strip)]
    data = b"".join(strips)
    offs, pos = [], 8
    for s in strips:
        offs.append(pos)
        pos += len(s)
    data = data[:len(data) - truncate]
    ifd_off = pos - truncate

    entries = [
        (256, 3, 1, (w,)), (257, 3, 1, (h,)), (258, 3, 1, (item * 8,)),
        (259, 3, 1, (1,)), (262, 3, 1, (1,)),
        (273, 4, len(offs), tuple(offs)), (277, 3, 1, (1,)),
        (278, 3, 1, (rows_per_strip,)),
        (279, 4, len(strips), tuple(len(s) for s in strips)),
        (339, 3, 1, (kind,)),
    ]
    if scale_tiepoint is not None:
        (sx, sy), (i0, j0, x0, y0) = scale_tiepoint
        entries.append((33550, 12, 3, (sx, sy, 0.0)))
        entries.append((33922, 12, 6, (i0, j0, 0.0, x0, y0, 0.0)))
    entries.sort()

    tsz = {3: 2, 4: 4, 12: 8}
    code = {3: "H", 4: "I", 12: "d"}
    extra = b""
    extra_base = ifd_off + 2 + 12 * len(entries) + 4
    packed = b""
    for tag, typ, cnt, vals in entries:
        vb = struct.pack(f"{endian}{cnt}{code[typ]}", *vals)
        if len(vb) <= 4:
            val = vb.ljust(4, b"\x00")
        else:
            val = struct.pack(endian + "I", extra_base + len(extra))
            extra += vb
        packed += struct.pack(endian + "HHI", tag, typ, cnt) + val
    ifd = (struct.pack(endian + "H", len(entries)) + packed
           + struct.pack(endian + "I", 0))
    with open(path, "wb") as f:
        f.write((b"II" if endian == "<" else b"MM")
                + struct.pack(endian + "HI", 42, ifd_off))
        f.write(data)
        f.write(ifd)
        f.write(extra)


@pytest.mark.parametrize("endian,dtype", [("<", "u1"), (">", "u2"),
                                          ("<", "f4")])
def test_tiff_source_reads_strips(ray_session, tmp_path, endian, dtype):
    """The from-scratch baseline TIFF reader: window payload bytes
    round-trip exactly against the written array (strip boundaries
    crossing window boundaries), centroids follow the
    PixelScale/Tiepoint affine, both byte orders."""
    import numpy as np

    from geo_inference_ray.sources import TiffSource, _tiff_meta

    rng = np.random.default_rng(7)
    arr = rng.integers(0, 200, (50, 70)).astype(dtype)
    path = str(tmp_path / "a.tif")
    # 7-row strips deliberately misaligned with the 32-px window tile
    _write_tiff(path, arr, 7, endian,
                scale_tiepoint=((0.5, 0.5), (0, 0, -20.0, 10.0)))

    w, h, dt, transform, rps, offs, counts = _tiff_meta(path)
    assert (w, h, rps) == (70, 50, 7)
    assert transform == (0.5, 0.0, -20.0, 0.0, -0.5, 10.0)

    df = TiffSource(tile=32).dataset(path).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert len(df) == 2 * 3  # ceil(50/32) x ceil(70/32)
    k = 0
    for r in (0, 32):
        hh = min(32, 50 - r)
        for c in (0, 32, 64):
            ww = min(32, 70 - c)
            got = np.frombuffer(df["payload"].iloc[k],
                                dtype=dt).reshape(hh, ww)
            assert (got == arr[r:r + hh, c:c + ww]).all()
            k += 1
    assert df["text"].iloc[0].startswith(
        f"geo:{10.0 - 0.5 * 16:.6f},{-20.0 + 0.5 * 16:.6f}")


def test_tiff_source_short_strip_read_raises(ray_session, tmp_path):
    """A TIFF whose strip table promises more bytes than the file holds
    fails loudly instead of yielding short window payloads."""
    import numpy as np

    from geo_inference_ray.sources import TiffSource

    arr = np.arange(50 * 70, dtype=np.uint8).reshape(50, 70)
    path = str(tmp_path / "cut.tif")
    _write_tiff(path, arr, 7, truncate=1000)
    # Ray Data re-raises the task's ValueError inside UserCodeException
    with pytest.raises(Exception, match="short strip read"):
        TiffSource(tile=32).dataset(path).materialize()


def test_real_tiff_through_geo_pipeline(ray_session, tmp_path):
    """S1 closure: a REAL .tif (written bytes on disk, parsed by the
    from-scratch header reader via the rasterio-less RasterSource
    fallback) flows through the FULL geo_pipeline — geocoded from its
    geo tokens, one row per window, payloads intact via TiffSource."""
    import numpy as np

    from geo_inference_ray import stages
    from geo_inference_ray.sources import get_source

    arr = (np.arange(120 * 90, dtype=np.uint8) % 251).reshape(120, 90)
    path = str(tmp_path / "scene.tif")
    _write_tiff(path, arr, 16, "<",
                scale_tiepoint=((0.01, 0.01), (0, 0, -10.0, 5.0)))

    # the "raster" source (reference front door) must fall back to the
    # baseline reader without rasterio and land one row per 64px window
    src = type(get_source("raster"))(tile=64)
    pages = src.dataset(path)
    geo = stages.transform_pages(pages).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert len(geo) == 2 * 2  # ceil(120/64) x ceil(90/64)
    assert (geo["cluster"] == -1).all()  # geo tokens honored
    # first window centroid (32, 32) through the affine
    assert abs(geo["lat"].iloc[0] - (5.0 - 0.01 * 32)) < 5e-7
    assert abs(geo["lon"].iloc[0] - (-10.0 + 0.01 * 32)) < 5e-7


def _write_zarr_v2(root, arr, chunks, compressor=None, transform=None):
    """Hand-write a Zarr v2 2-D array layout (the public spec: .zarray
    JSON + C-order fill-padded chunk files) — no zarr library in the
    container, which is exactly what ZarrSource's reader is for."""
    import json
    import os
    import zlib

    import numpy as np

    os.makedirs(root, exist_ok=True)
    h, w = arr.shape
    ch, cw = chunks
    meta = {"zarr_format": 2, "shape": [h, w], "chunks": [ch, cw],
            "dtype": arr.dtype.str, "order": "C", "fill_value": 0,
            "filters": None,
            "compressor": ({"id": "zlib", "level": 1}
                           if compressor == "zlib" else None)}
    with open(os.path.join(root, ".zarray"), "w") as f:
        json.dump(meta, f)
    if transform is not None:
        with open(os.path.join(root, ".zattrs"), "w") as f:
            json.dump({"transform": list(transform)}, f)
    for ci in range(-(-h // ch)):
        for cj in range(-(-w // cw)):
            full = np.zeros((ch, cw), dtype=arr.dtype)
            blk = arr[ci * ch:(ci + 1) * ch, cj * cw:(cj + 1) * cw]
            full[:blk.shape[0], :blk.shape[1]] = blk
            raw = full.tobytes()
            if compressor == "zlib":
                raw = zlib.compress(raw, 1)
            with open(os.path.join(root, f"{ci}.{cj}"), "wb") as f:
                f.write(raw)


@pytest.mark.parametrize("compressor", [None, "zlib"])
def test_zarr_source_reads_chunks(ray_session, tmp_path, compressor):
    """The from-scratch Zarr v2 reader: window grid = chunk grid,
    payload bytes round-trip exactly (incl. fill-padded edge chunks
    sliced to the live window), centroids follow the .zattrs affine."""
    import numpy as np

    from geo_inference_ray.sources import get_source

    rng = np.random.default_rng(11)
    arr = rng.integers(0, 255, (50, 70)).astype("<f8")
    transform = (0.5, 0.0, -20.0, 0.0, -0.5, 10.0)
    root = str(tmp_path / "a.zarr")
    _write_zarr_v2(root, arr, (32, 32), compressor, transform)

    ds = get_source("zarr").dataset(root)
    df = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert len(df) == 2 * 3  # ceil(50/32) x ceil(70/32)
    # payload round-trip per window
    k = 0
    for r in (0, 32):
        hh = min(32, 50 - r)
        for c in (0, 32, 64):
            ww = min(32, 70 - c)
            got = np.frombuffer(df["payload"].iloc[k],
                                dtype="<f8").reshape(hh, ww)
            assert (got == arr[r:r + hh, c:c + ww]).all()
            k += 1
    # geo token centroid: first window center (16, 16)
    assert df["text"].iloc[0].startswith(
        f"geo:{10.0 - 0.5 * 16:.6f},{-20.0 + 0.5 * 16:.6f}")


def test_stac_catalog_union(ray_session, tmp_path):
    """A static STAC catalog (catalog -> items -> assets) unions a
    parquet documents asset and a zarr asset into one pages dataset."""
    import json

    import numpy as np

    from geo_inference_ray.sources import get_source

    zroot = str(tmp_path / "tile.zarr")
    _write_zarr_v2(zroot, np.ones((16, 16), dtype="<f8"), (16, 16),
                   None, (0.1, 0.0, 0.0, 0.0, -0.1, 0.0))
    (tmp_path / "item1.json").write_text(json.dumps({
        "type": "Feature", "assets": {
            "docs": {"href": "/root/testdata/sf0.001/documents.parquet",
                     "type": "application/x-parquet"}}}))
    (tmp_path / "item2.json").write_text(json.dumps({
        "type": "Feature", "assets": {
            "tile": {"href": "tile.zarr",
                     "type": "application/vnd+zarr"}}}))
    cat = tmp_path / "catalog.json"
    cat.write_text(json.dumps({
        "type": "Catalog", "links": [
            {"rel": "item", "href": "item1.json"},
            {"rel": "item", "href": "item2.json"}]}))

    ds = get_source("stac").dataset(str(cat))
    df = ds.to_pandas()
    assert len(df) == 500 + 1  # sf0.001 docs + one zarr window
    assert set(["url", "warc_ts", "html", "text", "lang",
                "doc_id"]) <= set(df.columns)
    # the zarr row geocodes from its geo token through the standard
    # pipeline; the parquet rows keep their synthesized urls
    assert df["url"].str.startswith("raster://").sum() == 1
    assert df["url"].str.startswith("https://example.org/").sum() == 500


def test_torchscript_scorer_import_guard():
    """Without torch the TorchScript scorer fails fast at construction
    with the documented message (ST1 seam divergence)."""
    from geo_inference_ray.sources import TorchScriptScorer

    try:
        import torch  # noqa: F401
        pytest.skip("torch available: guard branch not reachable")
    except ImportError:
        pass
    with pytest.raises(NotImplementedError, match="torch"):
        TorchScriptScorer(url="file:///nonexistent.tar.gz")
    # scorer-seam contract: ScorePatches instantiates
    # scorer_cls(grid.num_classes) POSITIONALLY, so the first
    # parameter must be num_classes (url stays keyword) — the guard
    # must fire, not a TypeError from a wrong signature
    with pytest.raises(NotImplementedError, match="torch"):
        TorchScriptScorer(3)


def test_fused_page_stage_chunking_invariant(sf_dir):
    """FusedPageStage gives the same rows on a block of 8 chunks (one
    per source read, as Ray concatenates them) as on the same block in
    one chunk, in every join mode."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from geo_inference_ray import stages, synth

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang", "source"])
    pages = synth.synth_pages_batch(docs).combine_chunks()
    cut = np.linspace(0, pages.num_rows, 9).astype(int)
    chunked = pa.concat_tables([pages.slice(a, b - a)
                                for a, b in zip(cut[:-1], cut[1:])])
    assert chunked.column("html").num_chunks == 8
    for mode in (None, "inner", "semi", "anti", "left"):
        stage = stages.FusedPageStage(None, mode)
        assert stage(chunked).equals(stage(pages)), mode
