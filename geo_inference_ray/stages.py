"""Ray Data pipeline stages: map_batches callables (stateless fns and
stateful actor classes) for the flagship spatial pipeline.

Stage taxonomy follows SURVEY §7.3:
* stateless vectorized fns   -> plain functions (Ray tasks)
* stages with one-time state -> callable classes (Ray actor pools):
  - ExtractText   (no state, pooled)   ~ reference's model-load-once ST1
  - Geocoder      (compiled regex)     ~ the north-rule "stateful geocoder"
  - PIPJoiner     (STRtree broadcast)  ~ reference spatial semi-join ST4/J1
    (/root/reference/geo_inference/utils/geo_transforms.py:197-258)

All hot stages are Arrow-in/Arrow-out (``batch_format="pyarrow"``,
``zero_copy_batch=True``) with numpy / pyarrow.compute kernels; no Python
row loops.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import synth
from .cells import HEX7_SIZE, HEX9_SIZE, hex_cell, s2_cell
from .geom import STRtree, point_in_polygon

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

    The "stateful geocoder actor" of the north rule: state = compiled
    patterns (in a real deployment: a gazetteer / model).  Two sources,
    in priority order (FIXTURES.md F1 contract — a pure deterministic
    function of (url, text)):

    1. an explicit ``geo:{lat},{lon}`` token in the text (vectorized
       regex extract);
    2. else the doc id parsed back out of the url, hashed through the
       deterministic skewed-cluster mixture (synth.geocode_ids).

    Rows geocoded from a text token get cluster = -1 (no synthetic
    cluster identity).
    """

    def __init__(self):
        self.pat = re.compile(_URL_ID_RE)
        self.geo_pat = re.compile(_GEO_TOKEN_RE)

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

    The small polygon layer is built once per actor in ``__init__`` (in a
    cluster it is ``ray.put`` once and read from the object store — pass
    ``polygons_ref``); probes are vectorized numpy per batch.  Mirrors the
    reference's RTree semi-join (geo_transforms.py:197-258) generalized to
    bbox-candidate -> exact ray-cast containment.

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

    def __call__(self, batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        row_idx: list[np.ndarray] = []
        poly_ids: list[np.ndarray] = []
        class_ids: list[np.ndarray] = []
        for item, pts in self.tree.query_points_bulk(lon, lat):
            p = self.polys[item]
            inside = point_in_polygon(lon[pts], lat[pts],
                                      p["x1"], p["y1"], p["x2"], p["y2"])
            hit = pts[inside]
            if len(hit):
                row_idx.append(hit)
                poly_ids.append(np.full(len(hit), p["poly_id"], dtype=np.int64))
                class_ids.append(np.full(len(hit), p["class_id"], dtype=np.int64))
        if row_idx:
            rows = np.concatenate(row_idx)
            pids = np.concatenate(poly_ids)
            cids = np.concatenate(class_ids)
        else:
            rows = np.empty(0, dtype=np.int64)
            pids = cids = np.empty(0, dtype=np.int64)
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
                    batch_size: int = 8192, max_actors: int = 4,
                    fixed_pools: bool = False):
    """pages Dataset -> extract_text -> geocode -> [cells] -> [pip join].

    ``html`` is projected away by ExtractText immediately after
    extraction so the wide binary column never crosses a shuffle
    boundary.  ``max_actors`` sizes the actor pools — pass ~1/3 of the
    session CPU budget for compute-bound runs (three pools share the
    node; a pool that reserves every CPU starves the rest and the
    pipeline serializes).  ``fixed_pools=True`` uses exact-size pools
    (deterministic startup, benchmark mode); the default autoscales
    (1, max_actors) which is friendlier to small interactive runs.

    The narrow-session guard below counts only THIS function's pools:
    a caller that chains further actor-pool stages onto the returned
    dataset (without a materialize() barrier) must budget its own CPU
    headroom or reuse the fused fallback pattern.
    """
    import ray

    # Narrow-session guard: each chained (1, N) actor pool pins >=1 CPU
    # even while idle, so at session CPUs < n_pools + 1 the read task
    # starves and the pipeline deadlocks (Ray 2.49).  A planner would
    # pick the fused physical plan there — identical output, stage
    # state memoized per worker task instead of per actor.
    n_pools = 2 + (1 if mode else 0)
    ncpu = (int(ray.cluster_resources().get("CPU", 0))
            if ray.is_initialized() else 0)
    if ncpu and ncpu < n_pools + 1:
        if fixed_pools:
            import warnings

            warnings.warn(
                "transform_pages: fixed_pools=True requested but the "
                f"session has only {ncpu} CPUs (< {n_pools + 1}); "
                "running the fused task plan instead to avoid the "
                "actor-pool deadlock", stacklevel=2)
        return ds.map_batches(fused_page_fn(mode, with_cells),
                              batch_format="pyarrow",
                              zero_copy_batch=True,
                              batch_size=batch_size)

    cc = max_actors if fixed_pools else (1, max_actors)
    ds = ds.map_batches(ExtractText, batch_format="pyarrow",
                        zero_copy_batch=True, batch_size=batch_size,
                        concurrency=cc)
    ds = ds.map_batches(Geocoder, batch_format="pyarrow",
                        zero_copy_batch=True, batch_size=batch_size,
                        concurrency=cc)
    if with_cells:
        ds = ds.map_batches(encode_cells, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=batch_size)
    if mode:
        ref = ray.put(synth.polygon_arrays())
        ds = ds.map_batches(PIPJoiner, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=batch_size,
                            concurrency=cc,
                            fn_constructor_kwargs={"polygons_ref": ref,
                                                   "mode": mode})
    return ds


def geo_pipeline(sf_dir: str, mode: str | None = None,
                 with_cells: bool = True, batch_size: int = 8192,
                 max_actors: int = 4, source: str = "parquet-documents"):
    """read pages at sf_dir (via the named PagesSource — sources.py
    seam) and run :func:`transform_pages` (the canonical SURVEY §7.2
    slice)."""
    from .sources import get_source

    ds = get_source(source).dataset(sf_dir)
    return transform_pages(ds, mode=mode, with_cells=with_cells,
                           batch_size=batch_size, max_actors=max_actors)


class FusedPageStage:
    """Operator-fused fast path: extract_text + geocode + cells + pip
    join in ONE actor stage (one object-store hop instead of four).

    The composable stages above are the readable/reusable form; this is
    the physical plan a planner would produce for the flagship pipeline
    — all four are per-row maps with no shuffle between them, so fusing
    is semantics-preserving.  Used by bench.py; state (regexes + STRtree)
    still loads once per actor.
    """

    def __init__(self, polygons_ref=None, mode: str | None = "inner",
                 with_cells: bool = True):
        self.extract = ExtractText()
        self.geocode = Geocoder()
        self.with_cells = with_cells
        self.join = PIPJoiner(polygons_ref, mode) if mode else None

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = self.extract(batch)
        batch = self.geocode(batch)
        if self.with_cells:
            batch = encode_cells(batch)
        if self.join is not None:
            batch = self.join(batch)
        return batch


def transform_pages_fused(ds, mode: str | None = "inner",
                          with_cells: bool = True, batch_size: int = 8192,
                          max_actors: int = 8, fixed_pools: bool = False):
    import ray

    ref = ray.put(synth.polygon_arrays()) if mode else None
    cc = max_actors if fixed_pools else (1, max_actors)
    return ds.map_batches(
        FusedPageStage, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size, concurrency=cc,
        fn_constructor_kwargs={"polygons_ref": ref, "mode": mode,
                               "with_cells": with_cells})


_FUSED_MEMO: dict = {}


def fused_page_fn(mode: str | None = "inner", with_cells: bool = True,
                  keep: list[str] | None = None):
    """Stateless-fn variant of FusedPageStage for READ-FUSION.

    A task-pool ``map_batches(fn)`` fuses with the upstream ReadParquet
    operator, so page bytes go disk -> transform inside ONE task and the
    object store only carries the (small) transform output.  With an
    actor-pool stage the read output must cross the object store first —
    measured 2x slower and anti-scaling at 32 CPUs (plasma saturation).
    Stage state (regexes, STRtree) is built lazily once per worker
    process via a module-level memo — same amortization as an actor,
    without forfeiting read fusion.
    """

    def fn(batch: pa.Table) -> pa.Table:
        key = (mode, with_cells)
        stage = _FUSED_MEMO.get(key)
        if stage is None:
            stage = FusedPageStage(None, mode, with_cells)
            _FUSED_MEMO[key] = stage
        out = stage(batch)
        if keep is not None:
            # projection pushdown: only the consumed columns leave the
            # fused task — the wide text/url columns never enter the
            # object store (a downstream select_columns is too late)
            out = out.select(keep)
        return out

    return fn


class ExtractTitle:
    """html binary -> <title> field (the second field-extraction stage
    next to ExtractText: a WARC pipeline extracts MANY fields from the
    same raw bytes — title, canonical link, meta lang — each a
    vectorized regex over the decoded page).  Emits the title text,
    its length, and ``title_ok`` = 1 when the title matches the
    synth contract ``doc <doc_id>`` (a cheap end-to-end page-integrity
    probe, like extract_text's byte-identity invariant)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        html_str = pc.cast(batch["html"], pa.string())
        ext = pc.extract_regex(html_str,
                               r"<title>(?P<t>[^<]*)</title>")
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
