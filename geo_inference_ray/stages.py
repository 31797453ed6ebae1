"""Ray Data pipeline stages for the flagship spatial pipeline: the
per-row page maps and :func:`transform_pages`, which runs them.

Stage taxonomy follows SURVEY §7.3.  Every page stage is a per-batch
callable; the classes are the reusable in-process form:
  - ExtractText   (html -> text)      ~ reference's model-load-once ST1
  - Geocoder      (url/text -> point) ~ the north-rule geocoder
  - encode_cells  (point -> cell ids)
  - PIPJoiner     (STRtree broadcast) ~ reference spatial semi-join ST4/J1
    (/root/reference/geo_inference/utils/geo_transforms.py:197-258)
At run time they are fused into ONE Ray task function
(:func:`fused_page_fn`), which also runs in the read's task when it
takes whole blocks (the :func:`transform_pages` default).

All hot stages are Arrow-in/Arrow-out (``batch_format="pyarrow"``,
``zero_copy_batch=True``) with numpy / pyarrow.compute kernels; no Python
row loops.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import synth
from .cells import HEX7_SIZE, HEX9_SIZE, hex_cell, s2_cell
from .geom import STRtree, polygon_hits

_URL_ID_RE = r"/(\d+)$"


def _p_body(s: pa.StringArray) -> pa.StringArray:
    """Per row, the bytes between the first ``<p>`` and the last
    ``</p>`` after it; null when either tag is missing or the row is
    null.  Byte offsets come from two substring scans (``</p>`` is
    found as ``>p/<`` in the byte-reversed rows).  The body and the gap
    after it, for every row in order, are consecutive slices of the
    data buffer, so one zero-copy string array holds them all and a
    take of the even slots gathers the bodies.  Both tags are ASCII,
    so every body of a valid UTF-8 row is valid UTF-8."""
    n = len(s)
    first = pc.find_substring(s, "<p>").fill_null(-1).to_numpy()
    last = pc.find_substring(pc.binary_reverse(s.cast(pa.binary())),
                             ">p/<").fill_null(-1).to_numpy()
    _, offsets, data = s.buffers()
    row = np.frombuffer(offsets, np.int32, n + 1, s.offset * 4)
    lo = row[:-1] + first + 3
    hi = row[1:] - last - 4          # start of the last </p>
    ok = (first >= 0) & (last >= 0) & (hi >= lo)
    bounds = np.append(np.column_stack([np.where(ok, lo, row[:-1]),
                                        np.where(ok, hi, row[:-1])]),
                       row[-1]).astype(np.int32)
    spans = pa.StringArray.from_buffers(2 * n, pa.py_buffer(bounds), data)
    return pc.take(spans, pa.array(np.arange(0, 2 * n, 2, np.int32),
                                   mask=~ok))


class ExtractText:
    """html binary -> extracted text.  Per-row invariant (BASELINE
    input_hint): extracted text must be byte-identical to the original
    ``text`` per url.  The text is the body of the outermost
    ``<p>...</p>`` (see :func:`_p_body`); the string cast is the UTF-8
    validation, so invalid bytes raise ``ArrowInvalid``."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        html_str = pc.cast(batch["html"], pa.string())
        extracted = pa.chunked_array(
            [_p_body(c) for c in html_str.chunks], pa.string())
        cols = {n: batch[n] for n in batch.column_names if n != "html"}
        cols["text"] = extracted
        return pa.table(cols)


_GEO_TOKEN_RE = r"geo:(?P<glat>-?\d+\.\d+),(?P<glon>-?\d+\.\d+)"


class Geocoder:
    """(url, text) -> (lat, lon, cluster).

    The geocoder of the north rule.  It holds no state here (in a real
    deployment it would load a gazetteer / model).  Two sources, in
    priority order (FIXTURES.md F1 contract — a pure deterministic
    function of (url, text)):

    1. an explicit ``geo:{lat},{lon}`` token in the text (vectorized
       regex extract);
    2. else the doc id parsed back out of the url, hashed through the
       deterministic skewed-cluster mixture (synth.geocode_ids).

    Rows geocoded from a text token get cluster = -1 (no synthetic
    cluster identity).
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = pc.extract_regex(batch["url"], _URL_ID_RE.replace(r"(\d+)", r"(?P<id>\d+)"))
        doc_id = pc.cast(pc.struct_field(ids, "id"), pa.int64()).to_numpy(
            zero_copy_only=False)
        lat, lon, cluster = synth.geocode_ids(doc_id)
        if "text" in batch.column_names:
            tok = pc.extract_regex(batch["text"], _GEO_TOKEN_RE)
            valid = pc.is_valid(tok).to_numpy(zero_copy_only=False)
            if valid.any():
                glat = pc.cast(pc.struct_field(tok, "glat"),
                               pa.float64()).to_numpy(zero_copy_only=False)
                glon = pc.cast(pc.struct_field(tok, "glon"),
                               pa.float64()).to_numpy(zero_copy_only=False)
                lat = np.where(valid, glat, lat)
                lon = np.where(valid, glon, lon)
                cluster = np.where(valid, -1, cluster)
        return batch.append_column("lat", pa.array(lat)) \
                    .append_column("lon", pa.array(lon)) \
                    .append_column("cluster", pa.array(cluster))


def encode_cells(batch: pa.Table) -> pa.Table:
    """Add hex7 / hex9 / s2_12 cell columns (stateless, vectorized)."""
    lat = batch["lat"].to_numpy(zero_copy_only=False)
    lon = batch["lon"].to_numpy(zero_copy_only=False)
    return batch.append_column("hex7", pa.array(hex_cell(lat, lon, HEX7_SIZE))) \
                .append_column("hex9", pa.array(hex_cell(lat, lon, HEX9_SIZE))) \
                .append_column("s2_12", pa.array(s2_cell(lat, lon), pa.uint64()))


class PIPJoiner:
    """Broadcast STRtree point-in-polygon join.

    The small polygon layer and its STRtree are built once per instance
    in ``__init__`` (pass ``polygons_ref`` to read a ``ray.put`` layer
    from the object store); probes are vectorized numpy per batch.
    Mirrors the reference's RTree semi-join (geo_transforms.py:197-258)
    generalized to bbox-candidate -> exact ray-cast containment.

    mode="inner": emit one row per (page, polygon) hit, with poly_id/class_id.
    mode="semi":  keep pages with >=1 hit, no polygon columns.
    mode="anti":  keep pages with NO hit (the complement of semi).
    mode="left":  keep all pages; poly_id = -1 when no hit (first hit wins,
                  lowest poly_id — deterministic).
    """

    def __init__(self, polygons_ref=None, mode: str = "inner"):
        if polygons_ref is not None:
            import ray
            polys = ray.get(polygons_ref)
        else:
            polys = synth.polygon_arrays()
        self.polys = polys
        self.mode = mode
        self.tree = STRtree(np.array([p["bbox"] for p in polys]))
        self.poly_ids = np.array([p["poly_id"] for p in polys],
                                 dtype=np.int64)
        self.class_ids = np.array([p["class_id"] for p in polys],
                                  dtype=np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        rows, item = polygon_hits(self.tree, self.polys, lon, lat)
        pids, cids = self.poly_ids[item], self.class_ids[item]
        if self.mode == "semi":
            keep = np.unique(rows)
            return batch.take(pa.array(keep))
        if self.mode == "anti":
            miss = np.ones(len(batch), dtype=bool)
            miss[rows] = False
            return batch.take(pa.array(np.flatnonzero(miss)))
        # deterministic output order within batch: by (row, poly_id)
        order = np.lexsort((pids, rows))
        rows, pids, cids = rows[order], pids[order], cids[order]
        if self.mode == "inner":
            out = batch.take(pa.array(rows))
            return out.append_column("poly_id", pa.array(pids)) \
                      .append_column("class_id", pa.array(cids))
        # left join: first (lowest) poly per row, -1 for misses
        first_rows, first_pos = np.unique(rows, return_index=True)
        full_pid = np.full(len(batch), -1, dtype=np.int64)
        full_cid = np.full(len(batch), -1, dtype=np.int64)
        full_pid[first_rows] = pids[first_pos]
        full_cid[first_rows] = cids[first_pos]
        return batch.append_column("poly_id", pa.array(full_pid)) \
                    .append_column("class_id", pa.array(full_cid))


def transform_pages(ds, mode: str | None = None, with_cells: bool = True,
                    batch_size: int | None = None):
    """pages Dataset -> extract_text -> geocode -> [cells] -> [pip join],
    as one task-pool map (:func:`fused_page_fn`).

    ``html`` is projected away by ExtractText inside the task, so the
    wide binary column never reaches the object store.  The map takes
    whole blocks by default: Ray does not fuse a map that sets
    ``batch_size`` with the read or a map before it, so a batch size
    puts the read in a task of its own and its blocks through the
    object store."""
    return ds.map_batches(fused_page_fn(mode, with_cells),
                          batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)


def geo_pipeline(sf_dir: str, mode: str | None = None,
                 with_cells: bool = True, batch_size: int | None = None,
                 source: str = "parquet-documents"):
    """read pages at sf_dir (via the named PagesSource — sources.py
    seam) and run :func:`transform_pages` (the canonical SURVEY §7.2
    slice).  With the default whole-block map the page stages run in
    the read's tasks."""
    from .sources import get_source

    ds = get_source(source).dataset(sf_dir)
    return transform_pages(ds, mode=mode, with_cells=with_cells,
                           batch_size=batch_size)


class FusedPageStage:
    """extract_text + geocode + [cells] + [pip join] in one callable
    (one object-store hop instead of four).

    The composable stages above are the readable/reusable form; this is
    the physical plan a planner would produce for the flagship pipeline
    — all four are per-row maps with no shuffle between them, so fusing
    is semantics-preserving.  :func:`fused_page_fn` runs it as a Ray
    task function.
    """

    def __init__(self, polygons_ref=None, mode: str | None = "inner",
                 with_cells: bool = True):
        self.extract = ExtractText()
        self.geocode = Geocoder()
        self.with_cells = with_cells
        self.join = PIPJoiner(polygons_ref, mode) if mode else None

    def __call__(self, batch: pa.Table) -> pa.Table:
        # a block concatenated from several reads holds one chunk per
        # read; the stages run once on one chunk (zero-copy if it is one)
        batch = self.extract(batch.combine_chunks())
        batch = self.geocode(batch)
        if self.with_cells:
            batch = encode_cells(batch)
        if self.join is not None:
            batch = self.join(batch)
        return batch


def fused_page_fn(mode: str | None = "inner", with_cells: bool = True,
                  keep: list[str] | None = None):
    """Task function running :class:`FusedPageStage` — the page stages'
    only run-time form.

    A task-pool ``map_batches(fn)`` that takes whole blocks
    (``batch_size=None``) fuses with the upstream read, so page bytes
    go disk -> transform inside ONE task and the object store only
    carries the (small) transform output.  Ray does not fuse a map
    that sets ``batch_size`` with the read.  With an
    actor-pool stage the read output must cross the object store first —
    measured 2x slower and anti-scaling at 32 CPUs (plasma saturation).
    The stage (polygon layer + STRtree, a few KB pickled) is built once
    here, on the caller, and travels inside the pickled function.
    """
    stage = FusedPageStage(None, mode, with_cells)

    def fn(batch: pa.Table) -> pa.Table:
        out = stage(batch)
        if keep is not None:
            # projection pushdown: only the consumed columns leave the
            # fused task — the wide text/url columns never enter the
            # object store (a downstream select_columns is too late)
            out = out.select(keep)
        return out

    return fn


def extract_title(batch: pa.Table) -> pa.Table:
    """html binary -> <title> field (the second field-extraction stage
    next to ExtractText: a WARC pipeline extracts MANY fields from the
    same raw bytes — title, canonical link, meta lang — each a
    vectorized regex over the decoded page).  Emits the title text,
    its length, and ``title_ok`` = 1 when the title matches the
    synth contract ``doc <doc_id>`` (a cheap end-to-end page-integrity
    probe, like extract_text's byte-identity invariant)."""
    html_str = pc.cast(batch["html"], pa.string())
    ext = pc.extract_regex(html_str, r"<title>(?P<t>[^<]*)</title>")
    title = pc.struct_field(ext, "t")
    expect = pc.binary_join_element_wise(
        pa.scalar("doc "),
        pc.cast(batch["doc_id"], pa.string()), pa.scalar(""))
    ok = pc.cast(pc.equal(title, expect), pa.int64())
    return pa.table({
        "doc_id": batch["doc_id"],
        "title": title,
        "n_title_chars": pc.cast(pc.utf8_length(title), pa.int64()),
        "title_ok": ok})
