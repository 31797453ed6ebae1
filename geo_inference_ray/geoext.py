"""Second-order spatial analytics over the geocoded web pages.

Extends the engine's north-rule spatial core (cells.py / knn.py /
geom.py) with the derived spatial operators a web-scale geo pipeline
layers on top of the raw join:

- :func:`cell_smooth` — ring-1 neighborhood density smoothing on the
  hex grid (the H3 ``grid_disk`` aggregate);
- :func:`track_legs` — per-cluster ordered great-circle track legs
  (chord metric), the trajectory-length primitive;
- :func:`bbox_overlap_counts` — the envelope-overlap *filter phase* of
  a spatial join (the counterpart of stages.PIPJoiner's exact refine
  phase; reference analog: geo_inference's bbox prefilter before the
  RTree probe, geo_transforms.py:197-258);
- :func:`nearest_poly` — nearest-centroid polygon assignment (the
  "label every point by closest zone" broadcast pattern);
- :func:`zorder_counts` — Morton/Z-order spatial key + per-prefix
  histogram (the range-partitioner's split-point input: a Z-prefix
  range IS a spatial locality bucket, so partitioning 10^12 pages by
  this key co-locates neighbors without a learned index);
- :func:`dist_join` — great-circle distance-band join against a
  broadcast POI layer (the "pages within R km of a site" primitive);
- :func:`hotspots` — integer-exact ring-1 hot-cell detection (a
  Getis-Ord-style local-density screen with the float z-score
  replaced by an exact cross-multiplied integer inequality);
- :func:`hex_clusters` — DBSCAN-style region growing on the hex grid
  (dense cells ≥ minpts, 6-neighbor connected components), reusing
  dedup's driver/distributed union-find switch.

House rules (relational.py): every emitted float is computed with the
exact same IEEE-754 expression order as its DuckDB oracle mirror in
``__ray_entry__``; sums that would be order-dependent in float are
carried as integers (floor-quantized millimeters).  ``asin``/``atan2``
differ between numpy and DuckDB by up to 2 ulp on this box (measured),
so the leg metric is the great-circle CHORD ``2R*sin(theta/2) =
2R*sqrt(a)`` — monotone-equivalent to haversine ``2R*asin(sqrt(a))``
and bit-exact on both engines (sin/cos/sqrt/radians all match).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import synth
from .knn import HEX_RING1_OFFSETS
from .relational import _parquet_rows
from .shuffle import aggregate, collect, partitioned, run_pairs, runs

EARTH_DIAMETER_KM = 12742.0           # 2 * 6371 — folded identically in SQL
BBOX_EPS_DEG = 0.25                   # half-width of the per-page query box


def _docs_rows(sf_dir: str) -> int:
    return _parquet_rows(f"{sf_dir}/documents.parquet")


# ---------------------------------------------------------------------------
# cell_smooth — ring-1 hex density smoothing
# ---------------------------------------------------------------------------

def cell_smooth(ds):
    """Per-hex7-cell page count smoothed over the ring-1 neighborhood:
    for every target cell, the sum of counts of the cell itself and its
    6 axial neighbors (knn.HEX_RING1_OFFSETS).  Cells with no pages of
    their own still appear when a neighbor is populated — exactly the
    H3 ``grid_disk(k=1)`` density aggregate.

    Scale shape: map-side partial counts (one row per cell per batch),
    ONE groupby-sum to exact per-cell counts, then a 7x scatter of the
    *aggregated* cell rows (never the pages) and a second groupby-sum.
    Both shuffles carry O(distinct cells), not O(pages).
    """

    counts = _cell_counts(ds)

    offs = np.asarray(HEX_RING1_OFFSETS, dtype=np.int64)

    def scatter(batch: pa.Table) -> pa.Table:
        cell = batch["hex7"].to_numpy()
        n = batch["n"].to_numpy()
        idx = np.repeat(np.arange(len(cell)), len(offs))
        tgt = cell[idx] + np.tile(offs, len(cell))
        return pa.table({"hex7": pa.array(tgt),
                         "n": pa.array(n[idx])})

    return aggregate(
        counts.map_batches(scatter, batch_format="pyarrow",
                           zero_copy_batch=True),
        "hex7", {"n_smooth": ("n", "sum")},
        {"hex7": pa.int64(), "n_smooth": pa.int64()})


# ---------------------------------------------------------------------------
# moran_i / lisa_cells — spatial autocorrelation over hex7 page counts
# ---------------------------------------------------------------------------

def _cell_autocorr(ds):
    """Shared machinery for moran_i/lisa_cells: per-hex7 page counts
    -> division-free centered z' = N*x - S -> ring-1 neighbor z-sum +
    pair count via a 6x scatter of the AGGREGATED cell rows -> one
    cell-bounded inner join.  Returns (n_cells, z table, z|X|nb join);
    n_cells == 0 short-circuits (empty input)."""

    counts = aggregate(ds, "hex7", {"x": ("hex7", "count")},
                       {"hex7": pa.int64(), "x": pa.int64()}).materialize()

    n_cells = counts.count()
    if n_cells == 0:
        return 0, None, None
    s = aggregate(counts, [], {"s": ("x", "sum")},
                  {"s": pa.int64()}).take_all()[0]["s"]

    def center(batch: pa.Table) -> pa.Table:
        z = n_cells * batch["x"].to_numpy() - s
        return pa.table({"hex7": batch["hex7"], "z": pa.array(z)})

    z = counts.map_batches(center, batch_format="pyarrow",
                           zero_copy_batch=True).materialize()

    offs = np.asarray([o for o in HEX_RING1_OFFSETS if o != 0],
                      dtype=np.int64)

    def scatter(batch: pa.Table) -> pa.Table:
        cell = batch["hex7"].to_numpy()
        zz = batch["z"].to_numpy()
        idx = np.repeat(np.arange(len(cell)), len(offs))
        return pa.table({
            "hex7": pa.array(cell[idx] + np.tile(offs, len(cell))),
            "zn": pa.array(zz[idx]),
            "w": pa.array(np.ones(len(idx), dtype=np.int64))})

    nb = aggregate(
        z.map_batches(scatter, batch_format="pyarrow",
                      zero_copy_batch=True),
        "hex7", {"zn": ("zn", "sum"), "w": ("w", "sum")},
        {"hex7": pa.int64(), "zn": pa.int64(), "w": pa.int64()})

    from .relational import join_partitions_for

    joined = z.join(nb, join_type="inner",
                    num_partitions=join_partitions_for(n_cells),
                    on=("hex7",))
    return n_cells, z, joined


def lisa_cells(ds):
    """Local Moran (LISA) cluster labels per populated hex7 cell: the
    per-cell decomposition of moran_i.  Each populated cell with at
    least one populated ring-1 neighbor gets its centered value
    z' = N*x - S, the neighbor z-sum zn, the populated-neighbor count
    w, and the quadrant label — 'HH' (hot cluster, z>0 & zn>0), 'LL'
    (cold cluster), 'HL' (hot outlier), 'LH' (cold outlier), 'NS' when
    either side is exactly 0.  All-integer, same scatter machinery as
    moran_i (pages shuffle once; everything after is cell-bounded);
    isolated populated cells are omitted (no neighbors -> no local
    statistic), matching the oracle's inner join."""
    n_cells, _, joined = _cell_autocorr(ds)
    if n_cells == 0:
        import ray.data as rd
        return rd.from_arrow(pa.table({
            "hex7": pa.array([], pa.int64()),
            "z": pa.array([], pa.int64()),
            "zn": pa.array([], pa.int64()),
            "w": pa.array([], pa.int64()),
            "label": pa.array([], pa.string())}))

    def label(batch: pa.Table) -> pa.Table:
        z = batch["z"].to_numpy()
        zn = batch["zn"].to_numpy()
        lab = np.where((z > 0) & (zn > 0), "HH",
                       np.where((z < 0) & (zn < 0), "LL",
                                np.where((z > 0) & (zn < 0), "HL",
                                         np.where((z < 0) & (zn > 0),
                                                  "LH", "NS"))))
        return pa.table({"hex7": batch["hex7"], "z": batch["z"],
                         "zn": batch["zn"], "w": batch["w"],
                         "label": pa.array(lab.astype(object),
                                           pa.string())})

    return joined.map_batches(label, batch_format="pyarrow",
                              zero_copy_batch=True)

def moran_i(ds):
    """Global Moran's I spatial autocorrelation of per-hex7 page
    counts with ring-1 weights (the 6 axial hex neighbors,
    self-weight 0), over POPULATED cells only — the classic
    point-pattern clustering statistic (clustered counts -> I > 0,
    checkerboard -> I < 0).

    Division-free exact form: with N populated cells, S = sum x and
    z'_i = N*x_i - S (mean-centering cleared of the /N), the statistic
    is ``I = (N/W) * num/den`` with ``num = sum_i z'_i * sum_{j~i}
    z'_j``, ``den = sum_i z'_i^2`` and W the ordered populated
    neighbor-pair count.  This operator returns the one-row INTEGER
    component table (n_cells, w_pairs, num, den) — no float anywhere,
    so the DuckDB mirror is exact by construction (num may be
    negative; emitting components avoids engine-specific floor/trunc
    division semantics).

    Scale shape: exactly cell_smooth's — map-side per-cell partial
    counts, one groupby to exact counts, a 6x scatter of the
    AGGREGATED cell rows for the neighbor z-sum + pair count, one
    cell-bounded join, and int64 partial sums folded by a tiny final
    aggregate.  Pages shuffle once (cell partials); everything after
    is O(populated cells).  int64 bound: |num| <= N * (N*x_max)^2 —
    fine through ~1e9-page regional extracts; a planetary 100 TB run
    needs the components widened to two-limb accumulation (documented
    seam, same as the reference's area accumulators)."""
    n_cells, z, joined = _cell_autocorr(ds)
    if n_cells == 0:
        return pa.table({"n_cells": pa.array([0], pa.int64()),
                         "w_pairs": pa.array([0], pa.int64()),
                         "num": pa.array([0], pa.int64()),
                         "den": pa.array([0], pa.int64())})

    def num_partial(batch: pa.Table) -> pa.Table:
        zz = batch["z"].to_numpy()
        return pa.table({
            "num": pa.array([int((zz * batch["zn"].to_numpy()).sum())]),
            "w_pairs": pa.array([int(batch["w"].to_numpy().sum())])})

    agg = aggregate(
        joined.map_batches(num_partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None),
        [], {"num": ("num", "sum"), "w_pairs": ("w_pairs", "sum")},
        {"num": pa.int64(), "w_pairs": pa.int64()}).take_all()[0]

    def den_partial(batch: pa.Table) -> pa.Table:
        zz = batch["z"].to_numpy()
        return pa.table({"den": pa.array([int((zz * zz).sum())])})

    den = aggregate(
        z.map_batches(den_partial, batch_format="pyarrow",
                      zero_copy_batch=True, batch_size=None),
        [], {"den": ("den", "sum")}, {"den": pa.int64()}).take_all()[0]["den"]

    return pa.table({"n_cells": pa.array([n_cells], pa.int64()),
                     "w_pairs": pa.array([agg["w_pairs"] or 0], pa.int64()),
                     "num": pa.array([agg["num"] or 0], pa.int64()),
                     "den": pa.array([int(den)], pa.int64())})


# ---------------------------------------------------------------------------
# knox_pairs — space-time interaction counts per hex cell
# ---------------------------------------------------------------------------

KNOX_WINDOW_US = 3_600_000_000      # 1 h close-in-time window


def knox_pairs(ds, window_us: int = KNOX_WINDOW_US, *, rows_hint: int):
    """Knox space-time interaction per hex7 cell: the number of
    unordered page pairs that are close in space (same cell) AND close
    in time (|warc_ts difference| <= window) — the epidemiology /
    event-burst clustering screen.  Exact integer counts; the per-cell
    total is tie-order independent (it depends only on the timestamp
    multiset), so the self-join oracle matches bitwise.

    Scale shape: pages shuffle ONCE, hash-partitioned on hex7
    (``shuffle.partitioned`` — whole cells co-locate); the kernel sorts
    its partition by (cell, ts) and counts windowed successors with
    one vectorized searchsorted per cell run — O(rows log rows), never
    the O(rows^2) pair materialization the naive self-join would do.
    Only (hex7, ts) int64 columns enter the shuffle."""
    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "hex7": batch["hex7"],
            "ts": pc.cast(batch["warc_ts"], pa.int64())})

    slim = ds.map_batches(prep, batch_format="pyarrow",
                          zero_copy_batch=True)

    def kernel(g: pa.Table) -> pa.Table:
        g = g.sort_by([("hex7", "ascending"), ("ts", "ascending")])
        cell = g["hex7"].to_numpy()
        ts = g["ts"].to_numpy()
        starts, sizes = runs(cell)
        ends = starts + sizes
        out_c, out_n, out_p = [], [], []
        for s, e in zip(starts, ends):       # cells in partition
            t = ts[s:e]
            hi = np.searchsorted(t, t + window_us, side="right")
            out_c.append(cell[s])
            out_n.append(e - s)
            out_p.append(int(hi.sum()) - ((e - s) * (e - s + 1)) // 2)
        return pa.table({"hex7": np.array(out_c, dtype=np.int64),
                         "n_pages": np.array(out_n, dtype=np.int64),
                         "pairs": np.array(out_p, dtype=np.int64)})

    return partitioned(slim, "hex7", kernel,
                       {"hex7": pa.int64(), "n_pages": pa.int64(),
                        "pairs": pa.int64()},
                       rows_hint=rows_hint)


# ---------------------------------------------------------------------------
# track_legs — per-cluster ordered great-circle legs (chord metric)
# ---------------------------------------------------------------------------

def track_legs(sf_dir: str):
    """Per-cluster track statistics over the legs between consecutive
    pages ordered by doc_id: leg count, longest leg (chord km, exact
    double — max of identically-computed per-row values), and total
    length floor-quantized to integer millimeters (order-independent
    sum; overflows int64 only past ~7e8 legs *per cluster* at the
    20,000 km max-leg bound — document-scale safe).

    Chord metric: ``a = sin^2(dlat/2) + cos(lat1) cos(lat2)
    sin^2(dlon/2)`` (the haversine "a"), leg = ``12742.0 * sqrt(a)`` km
    — see module docstring for why asin is avoided.

    Scale shape: ONE hash-partition exchange on cluster, then a single
    vectorized sort + shift kernel per partition (no window shuffle,
    no per-cluster Python).
    """
    from .stages import geo_pipeline

    ds = geo_pipeline(sf_dir, with_cells=False) \
        .select_columns(["cluster", "doc_id", "lat", "lon"])

    def legs_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("cluster", "ascending"), ("doc_id", "ascending")])
        cl = g["cluster"].to_numpy()
        lat = g["lat"].to_numpy()
        lon = g["lon"].to_numpy()
        same = cl[1:] == cl[:-1]
        lat1, lat2 = lat[:-1][same], lat[1:][same]
        lon1, lon2 = lon[:-1][same], lon[1:][same]
        # expression order mirrors the SQL oracle term-for-term
        sd1 = np.sin(np.deg2rad(lat2 - lat1) / 2.0)
        c1 = np.cos(np.deg2rad(lat1))
        c2 = np.cos(np.deg2rad(lat2))
        sd2 = np.sin(np.deg2rad(lon2 - lon1) / 2.0)
        a = sd1 * sd1 + ((c1 * c2) * sd2) * sd2
        chord_km = EARTH_DIAMETER_KM * np.sqrt(a)
        mm = np.floor(chord_km * 1000000.0).astype(np.int64)
        a = pa.table({"cluster": cl[1:][same], "km": chord_km, "mm": mm}) \
            .group_by("cluster").aggregate(
                [([], "count_all"), ("km", "max"), ("mm", "sum")])
        return pa.table({"cluster": a["cluster"], "n_legs": a["count_all"],
                         "max_leg_km": a["km_max"],
                         "sum_leg_mm": a["mm_sum"]})

    return partitioned(ds, "cluster", legs_part,
                       {"cluster": pa.int64(), "n_legs": pa.int64(),
                        "max_leg_km": pa.float64(),
                        "sum_leg_mm": pa.int64()},
                       rows_hint=_docs_rows(sf_dir))


# ---------------------------------------------------------------------------
# bbox_overlap_counts — envelope-overlap join (filter phase)
# ---------------------------------------------------------------------------

def bbox_overlap_counts(sf_dir: str, eps: float = BBOX_EPS_DEG):
    """Per-polygon count of pages whose eps-box ``[lat+-eps, lon+-eps]``
    overlaps the polygon's bounding box — the candidate-generation
    filter phase of a spatial join (PIPJoiner is the exact refine
    phase).  Polygons with zero candidates are absent (inner-join
    semantics, matching the SQL mirror).

    Scale shape: the 12-entry bbox layer is a module constant (on a
    cluster: ``ray.put`` once); per batch a vectorized
    (rows x n_polys) interval-overlap mask reduces to per-polygon
    partial counts, so the shuffle carries O(batches x n_polys) rows.
    """

    from .stages import geo_pipeline

    polys = synth.polygon_arrays()
    pids = np.array([p["poly_id"] for p in polys], dtype=np.int64)
    xmin = np.array([p["bbox"][0] for p in polys])
    ymin = np.array([p["bbox"][1] for p in polys])
    xmax = np.array([p["bbox"][2] for p in polys])
    ymax = np.array([p["bbox"][3] for p in polys])

    ds = geo_pipeline(sf_dir, with_cells=False) \
        .select_columns(["lat", "lon"])

    def partial(batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        # (rows, polys) overlap mask; mirrors the SQL predicate exactly
        hit = ((lat - eps)[:, None] <= ymax[None, :]) \
            & ((lat + eps)[:, None] >= ymin[None, :]) \
            & ((lon - eps)[:, None] <= xmax[None, :]) \
            & ((lon + eps)[:, None] >= xmin[None, :])
        n = hit.sum(axis=0).astype(np.int64)
        keep = n > 0
        return pa.table({"poly_id": pa.array(pids[keep]),
                         "n": pa.array(n[keep])})

    return aggregate(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        "poly_id", {"n_docs": ("n", "sum")},
        {"poly_id": pa.int64(), "n_docs": pa.int64()})


# ---------------------------------------------------------------------------
# nearest_poly — nearest-centroid polygon assignment
# ---------------------------------------------------------------------------

def poly_centroid_terms():
    """Exact integer terms ``(poly_id, sum_x_md, sum_y_md, n_vertices)``
    of the vertex-mean centroids, poly_id-ascending.  Both engines
    derive the centroid double as ``(sum_md / 1000.0) / n`` — integer
    literals convert to double exactly and each division is correctly
    rounded, so the constants are bit-identical.  (repr() literals are
    NOT safe: DuckDB parses decimal literals via DECIMAL and the
    DOUBLE cast is off by ulps — measured on this box.)
    """
    rows = []
    for p in sorted(synth.POLYGONS, key=lambda p: p["poly_id"]):
        ring = np.asarray(p["ring_md"], dtype=np.int64)
        rows.append((int(p["poly_id"]), int(ring[:, 0].sum()),
                     int(ring[:, 1].sum()), len(ring)))
    return rows


def poly_centroids():
    """(poly_id, cx, cy) vertex-mean centroids of the synth polygon
    layer, poly_id-ascending (doubles via :func:`poly_centroid_terms`).
    """
    t = poly_centroid_terms()
    pids = np.asarray([r[0] for r in t], dtype=np.int64)
    cxs = np.asarray([float(r[1]) / 1000.0 / r[3] for r in t])
    cys = np.asarray([float(r[2]) / 1000.0 / r[3] for r in t])
    return pids, cxs, cys


def nearest_poly(sf_dir: str):
    """Assign every page to its nearest polygon centroid by squared
    degree distance (ties -> lowest poly_id) and emit the per-page
    assignment ``(doc_id, poly_id, d2)``.  The classic broadcast
    nearest-zone labeling: centroids are a tiny module constant
    (cluster: ``ray.put`` once), the per-batch kernel is one
    (rows x n_polys) vectorized distance matrix + argmin — no shuffle
    at all.
    """
    from .stages import geo_pipeline

    pids, cxs, cys = poly_centroids()

    ds = geo_pipeline(sf_dir, with_cells=False) \
        .select_columns(["doc_id", "lat", "lon"])

    def assign(batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        dlat = lat[:, None] - cys[None, :]
        dlon = lon[:, None] - cxs[None, :]
        d2 = dlat * dlat + dlon * dlon
        # centroids are poly_id-ascending, so argmin's first-min rule
        # IS the lowest-poly_id tie-break
        best = np.argmin(d2, axis=1)
        rows = np.arange(len(lat))
        return pa.table({
            "doc_id": batch["doc_id"],
            "poly_id": pa.array(pids[best]),
            "d2": pa.array(d2[rows, best])})

    return ds.map_batches(assign, batch_format="pyarrow",
                          zero_copy_batch=True)


# ---------------------------------------------------------------------------
# zorder_counts — Morton/Z-order key + per-prefix histogram
# ---------------------------------------------------------------------------

# 16 quantization bits per axis -> 32-bit Z key; the top 12 bits
# (>> ZPREFIX_SHIFT) are the range-partition bucket.  4096 buckets is a
# histogram, not a partition count: a real range partitioner consumes
# this table to pick split points (reference analog: geo-inference's
# tile grid is the same "fixed spatial buckets" idea on raster space).
ZQ_MAX = 65535
ZPREFIX_SHIFT = 20

_SPREAD_STEPS = ((8, 0x00FF00FF), (4, 0x0F0F0F0F),
                 (2, 0x33333333), (1, 0x55555555))


def _part1by1(x: np.ndarray) -> np.ndarray:
    """Spread the low 16 bits of ``x`` so bit i lands at position 2i
    (the classic Morton magic-mask ladder; int64 throughout, mirrored
    literal-for-literal by the SQL oracle's s1..s4 CTE chain)."""
    for sh, mask in _SPREAD_STEPS:
        x = (x | (x << sh)) & mask
    return x


def zorder_counts(sf_dir: str):
    """Per-Z-prefix page counts: quantize (lat, lon) to 16-bit grid
    coordinates, interleave to the 32-bit Morton key, bucket by the top
    12 bits.  This is the partition histogram a range partitioner needs
    to co-locate spatial neighbors at 10^12 rows — Z-prefix ranges are
    axis-aligned quadtree cells, so one sort key carries both axes.

    Scale shape: stateless vectorized per-batch kernel + map-side
    partial counts; the ONE shuffle carries O(batches x 4096) rows.
    """

    from .stages import geo_pipeline

    ds = geo_pipeline(sf_dir, with_cells=False) \
        .select_columns(["lat", "lon"])

    def cols(batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        # expression order mirrors the SQL oracle term-for-term
        qy = np.floor((lat + 90.0) / 180.0 * 65536.0).astype(np.int64)
        qx = np.floor((lon + 180.0) / 360.0 * 65536.0).astype(np.int64)
        qy = np.minimum(np.maximum(qy, 0), ZQ_MAX)
        qx = np.minimum(np.maximum(qx, 0), ZQ_MAX)
        z = _part1by1(qx) | (_part1by1(qy) << 1)
        return pa.table({"zprefix": pa.array(z >> ZPREFIX_SHIFT)})

    return aggregate(
        ds.map_batches(cols, batch_format="pyarrow",
                       zero_copy_batch=True),
        "zprefix", {"n_pages": ("zprefix", "count")},
        {"zprefix": pa.int64(), "n_pages": pa.int64()})


# ---------------------------------------------------------------------------
# dist_join — great-circle distance-band join (broadcast POI layer)
# ---------------------------------------------------------------------------

DIST_RADIUS_KM = 500.0


def dist_join(sf_dir: str, radius_km: float = DIST_RADIUS_KM):
    """Per-POI count of pages within ``radius_km`` great-circle chord
    distance of the POI (POIs = the synth polygon centroids).  POIs with
    zero in-range pages are absent (inner semantics, as the SQL mirror).

    Chord metric (module docstring): ``12742 * sqrt(a)`` with the
    haversine ``a`` — bit-exact across numpy/DuckDB, monotone-equivalent
    to haversine, so the < radius predicate is exact.

    Scale shape: the POI layer is tiny (cluster: ``ray.put`` once); per
    batch ONE (rows x n_pois) vectorized trig kernel reduces to
    per-POI partial counts, so the shuffle carries
    O(batches x n_pois) rows.  At a 10^6-POI layer you'd bucket POIs by
    coarse cell first (the bbox_overlap_counts filter phase) — the
    brute broadcast is correct for layer sizes up to ~10^4.
    """

    from .stages import geo_pipeline

    pids, cxs, cys = poly_centroids()

    ds = geo_pipeline(sf_dir, with_cells=False) \
        .select_columns(["lat", "lon"])

    def partial(batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        # expression order mirrors the SQL oracle term-for-term
        sd1 = np.sin(np.deg2rad(cys[None, :] - lat[:, None]) / 2.0)
        c1 = np.cos(np.deg2rad(lat))[:, None]
        c2 = np.cos(np.deg2rad(cys))[None, :]
        sd2 = np.sin(np.deg2rad(cxs[None, :] - lon[:, None]) / 2.0)
        a = sd1 * sd1 + ((c1 * c2) * sd2) * sd2
        chord_km = EARTH_DIAMETER_KM * np.sqrt(a)
        n = (chord_km < radius_km).sum(axis=0).astype(np.int64)
        keep = n > 0
        return pa.table({"poly_id": pa.array(pids[keep]),
                         "n": pa.array(n[keep])})

    return aggregate(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        "poly_id", {"n_docs": ("n", "sum")},
        {"poly_id": pa.int64(), "n_docs": pa.int64()})


# ---------------------------------------------------------------------------
# hotspots — integer-exact ring-1 hot-cell detection
# ---------------------------------------------------------------------------

HOT_FACTOR = 2  # hot iff disk density > HOT_FACTOR x the global mean


def _cell_counts(ds):
    """(hex7, n) exact per-cell page counts, one ``shuffle.aggregate``
    (shared by cell_smooth / hotspots / hex_clusters)."""

    return aggregate(ds, "hex7", {"n": ("hex7", "count")},
                     {"hex7": pa.int64(), "n": pa.int64()})


def hotspots(ds, factor: int = HOT_FACTOR):
    """Populated hex7 cells whose ring-1 disk count exceeds ``factor``
    times the expected disk count under a uniform spread — Getis-Ord
    Gi* reduced to an EXACT integer inequality: with T total pages over
    C populated cells, a 7-cell disk expects ``7*T/C`` pages, so hot is
    ``n_disk * C > factor * 7 * T`` (cross-multiplied, no float).

    Output: (hex7, n_pages, n_disk) for hot cells.

    Scale shape: one groupby to per-cell counts, a 7x scatter of the
    AGGREGATED cell rows carrying (count, self-count) so the disk sum
    and the cell's own count come back from the SAME second groupby
    (no join), then a broadcast of the two global scalars into a
    vectorized filter.  Shuffles carry O(distinct cells), never pages.
    """

    counts = _cell_counts(ds).materialize()  # O(cells) rows, 2 readers
    total = aggregate(counts, [], {"t": ("n", "sum")},  # two scalars —
                      {"t": pa.int64()}).take_all()[0]["t"] or 0
    n_cells = counts.count()                 # the only driver values

    offs = np.asarray(HEX_RING1_OFFSETS, dtype=np.int64)

    def scatter(batch: pa.Table) -> pa.Table:
        cell = batch["hex7"].to_numpy()
        n = batch["n"].to_numpy()
        idx = np.repeat(np.arange(len(cell)), len(offs))
        off = np.tile(offs, len(cell))
        return pa.table({
            "hex7": pa.array(cell[idx] + off),
            "n_src": pa.array(n[idx]),
            "self_n": pa.array(np.where(off == 0, n[idx], 0)),
        })

    disk = aggregate(
        counts.map_batches(scatter, batch_format="pyarrow",
                           zero_copy_batch=True),
        "hex7", {"n_disk": ("n_src", "sum"), "n_pages": ("self_n", "sum")},
        {"hex7": pa.int64(), "n_disk": pa.int64(), "n_pages": pa.int64()})

    thresh = factor * 7 * total

    def hot(batch: pa.Table) -> pa.Table:
        npg = batch["n_pages"].to_numpy()
        nd = batch["n_disk"].to_numpy()
        keep = (npg >= 1) & (nd * n_cells > thresh)
        return pa.table({
            "hex7": pa.array(batch["hex7"].to_numpy()[keep]),
            "n_pages": pa.array(npg[keep]),
            "n_disk": pa.array(nd[keep])})

    return disk.map_batches(hot, batch_format="pyarrow",
                            zero_copy_batch=True)


# ---------------------------------------------------------------------------
# hex_clusters — DBSCAN-style dense-cell region growing on the hex grid
# ---------------------------------------------------------------------------

HEX_MINPTS = 3


def hex_clusters(ds, minpts: int = HEX_MINPTS):
    """Connected components of DENSE hex7 cells (count >= ``minpts``)
    under 6-neighbor hex adjacency — grid DBSCAN without border points:
    the region-growing step of density clustering at web scale.  Output
    one row per component: (comp = min member cell, n_cells, n_pages).

    Scale shape: dense cells are the AGGREGATED count rows (never the
    pages).  Adjacency needs no join: each dense cell scatters its id to
    its 7-cell disk; a per-target kernel emits the edge (tgt, src) only
    when the target is itself dense (its own id arrived via offset 0)
    and src > tgt (each undirected edge exactly once).  Components come
    from dedup.dedup_clusters — driver union-find under the pair limit,
    alternating star contraction above — then ONE hash join labels the
    dense cells and a final groupby folds per-component stats.
    """

    from .dedup import dedup_clusters
    from .relational import join_partitions_for

    counts = _cell_counts(ds).materialize()

    def dense_only(batch: pa.Table) -> pa.Table:
        keep = batch["n"].to_numpy() >= minpts
        return pa.table({"hex7": pa.array(batch["hex7"].to_numpy()[keep]),
                         "n": pa.array(batch["n"].to_numpy()[keep])})

    dense = counts.map_batches(dense_only, batch_format="pyarrow",
                               zero_copy_batch=True).materialize()
    n_dense = dense.count()

    offs = np.asarray(HEX_RING1_OFFSETS, dtype=np.int64)

    def scatter(batch: pa.Table) -> pa.Table:
        cell = batch["hex7"].to_numpy()
        idx = np.repeat(np.arange(len(cell)), len(offs))
        return pa.table({
            "tgt": pa.array(cell[idx] + np.tile(offs, len(cell))),
            "src": pa.array(cell[idx])})

    def edges_part(g: pa.Table) -> pa.Table:
        """One kernel per hash partition of targets: a target is dense
        iff its own id arrived (offset 0 row), and every OTHER arrival
        is a dense neighbor.  Emits src > tgt once per edge."""
        g = g.sort_by([("tgt", "ascending"), ("src", "ascending")])
        t = g["tgt"].to_numpy()
        s = g["src"].to_numpy()
        new = np.ones(len(g), dtype=bool)
        new[1:] = t[1:] != t[:-1]
        grp = np.cumsum(new) - 1
        is_self = t == s
        tgt_dense = np.zeros(grp[-1] + 1 if len(g) else 0, dtype=bool)
        tgt_dense[grp[is_self]] = True
        keep = tgt_dense[grp] & (s > t)
        return pa.table({"doc_a": t[keep], "doc_b": s[keep]})

    pairs = partitioned(
        dense.map_batches(scatter, batch_format="pyarrow",
                          zero_copy_batch=True),
        "tgt", edges_part, {"doc_a": pa.int64(), "doc_b": pa.int64()},
        rows_hint=max(1, n_dense) * len(offs))

    def as_docs(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch["hex7"]})

    labels = dedup_clusters(
        dense.map_batches(as_docs, batch_format="pyarrow",
                          zero_copy_batch=True),
        pairs)

    def as_cells(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch["hex7"], "n": batch["n"]})

    cells = dense.map_batches(as_cells, batch_format="pyarrow",
                              zero_copy_batch=True)
    joined = labels.join(cells, join_type="inner",
                         num_partitions=join_partitions_for(n_dense),
                         on=("doc_id",))
    return aggregate(
        joined,
        "cluster", {"n_cells": ("cluster", "count"), "n_pages": ("n", "sum")},
        {"cluster": pa.int64(), "n_cells": pa.int64(), "n_pages": pa.int64()})


# ---------------------------------------------------------------------------
# stops — trajectory dwell/stop detection (gaps-and-islands on legs)
# ---------------------------------------------------------------------------

STOP_EPS_KM = 60.0   # a leg shorter than this is a "dwell" step
STOP_MIN_LEGS = 2    # a stop is >= this many consecutive dwell legs


def stops(sf_dir: str, eps_km: float = STOP_EPS_KM,
          min_legs: int = STOP_MIN_LEGS):
    """Per-cluster trajectory stop detection: order the cluster's pages
    by doc_id, flag each leg shorter than ``eps_km`` (chord metric) as
    a dwell step, and count maximal dwell runs of >= ``min_legs`` legs
    — the stop/move segmentation primitive of trajectory mining.
    Output (cluster, n_stops, max_stop_legs); clusters with no stop
    are absent (inner semantics, as the SQL mirror).

    Scale shape: identical to track_legs — ONE hash-partition exchange
    on cluster, then a single vectorized sort + run-length kernel per
    partition (no window shuffle, no per-cluster Python).
    """
    from .stages import geo_pipeline

    ds = geo_pipeline(sf_dir, with_cells=False) \
        .select_columns(["cluster", "doc_id", "lat", "lon"])

    def stops_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("cluster", "ascending"), ("doc_id", "ascending")])
        cl = g["cluster"].to_numpy()
        lat = g["lat"].to_numpy()
        lon = g["lon"].to_numpy()
        same = cl[1:] == cl[:-1]
        # expression order mirrors the SQL oracle term-for-term
        sd1 = np.sin(np.deg2rad(lat[1:] - lat[:-1]) / 2.0)
        c1 = np.cos(np.deg2rad(lat[:-1]))
        c2 = np.cos(np.deg2rad(lat[1:]))
        sd2 = np.sin(np.deg2rad(lon[1:] - lon[:-1]) / 2.0)
        a = sd1 * sd1 + ((c1 * c2) * sd2) * sd2
        dwell = same & (EARTH_DIAMETER_KM * np.sqrt(a) < eps_km)
        # run-length encode dwell islands (a break at every non-dwell
        # step or cluster boundary)
        brk = np.ones(len(dwell), dtype=bool)
        brk[1:] = (~dwell[:-1]) | (cl[1:-1] != cl[:-2])
        starts = np.flatnonzero(dwell & brk)
        # island length = consecutive dwell count starting at each start
        run_id = np.cumsum(brk) - 1
        lens = np.bincount(run_id[dwell])
        lens = lens[lens > 0]
        keep = lens >= min_legs
        a = pa.table({"cluster": cl[1:][starts][keep],
                      "len": lens[keep].astype(np.int64)}) \
            .group_by("cluster").aggregate([([], "count_all"),
                                            ("len", "max")])
        return pa.table({"cluster": a["cluster"],
                         "n_stops": a["count_all"],
                         "max_stop_legs": a["len_max"]})

    return partitioned(ds, "cluster", stops_part,
                       {"cluster": pa.int64(), "n_stops": pa.int64(),
                        "max_stop_legs": pa.int64()},
                       rows_hint=_docs_rows(sf_dir))


# ---------------------------------------------------------------------------
# bearings — per-cluster leg direction octant histogram (comparison-exact)
# ---------------------------------------------------------------------------

def bearings(sf_dir: str):
    """Per-(cluster, octant) leg counts, where the octant (0..7 = E NE
    N NW W SW S SE) comes from SIGN and MAGNITUDE comparisons on the
    raw (dlat, dlon) deltas — no atan2 (numpy and DuckDB atan2 differ
    by ulps; subtraction and comparison are exact, so the histogram is
    bit-deterministic on both engines).

    Octant rule: |dlon| >= |dlat| picks the E/W half-axes
    (dlon >= 0 ? (dlat >= 0 ? E : SE) : (dlat >= 0 ? NW... )) — see the
    code: the eight cells of the (axis-major, sign, sign) decision
    tree.  Zero-length legs land in octant 0 (E) by the >= rules.

    Scale shape: as track_legs — one cluster exchange, one vectorized
    kernel, partial counts out.
    """
    from .stages import geo_pipeline

    ds = geo_pipeline(sf_dir, with_cells=False) \
        .select_columns(["cluster", "doc_id", "lat", "lon"])

    def bearing_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("cluster", "ascending"), ("doc_id", "ascending")])
        cl = g["cluster"].to_numpy()
        lat = g["lat"].to_numpy()
        lon = g["lon"].to_numpy()
        same = cl[1:] == cl[:-1]
        dlat = (lat[1:] - lat[:-1])[same]
        dlon = (lon[1:] - lon[:-1])[same]
        ad, ao = np.abs(dlat), np.abs(dlon)
        lon_major = ao >= ad
        east, north = dlon >= 0, dlat >= 0
        octant = np.where(
            lon_major,
            np.where(east, np.where(north, 0, 7), np.where(north, 3, 4)),
            np.where(north, np.where(east, 1, 2), np.where(east, 6, 5)),
        ).astype(np.int64)
        return pa.table({"cluster": cl[1:][same], "octant": octant}) \
            .group_by(["cluster", "octant"]).aggregate(
                [([], "count_all")]) \
            .rename_columns(["cluster", "octant", "n_legs"])

    return partitioned(ds, "cluster", bearing_part,
                       {"cluster": pa.int64(), "octant": pa.int64(),
                        "n_legs": pa.int64()},
                       rows_hint=_docs_rows(sf_dir))


# ---------------------------------------------------------------------------
# zonal_mode — per-polygon modal language (zonal majority class)
# ---------------------------------------------------------------------------

def zonal_mode(sf_dir: str):
    """Per-polygon modal page language (ties -> lexicographically
    smallest lang) with its count — the vector-zone majority-class
    statistic (the categorical sibling of zonal_stats' numeric
    aggregate; reference analog: per-zone class voting over the mask).

    Scale shape: the exact PIP join emits (poly_id, lang) pairs;
    map-side partial counts collapse each batch to the distinct pairs,
    ONE groupby-sum makes them exact, and the argmax runs as a
    vectorized first-row-per-poly kernel in ONE hash partition pass
    (poly count is tiny next to pages — the shuffle carries
    O(polys x langs)).
    """

    from .stages import geo_pipeline

    ds = geo_pipeline(sf_dir, mode="inner") \
        .select_columns(["poly_id", "lang"])

    counts = aggregate(
        ds, ["poly_id", "lang"], {"n": ("poly_id", "count")},
        {"poly_id": pa.int64(), "lang": pa.string(), "n": pa.int64()})

    def argmax_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("poly_id", "ascending"), ("n", "descending"),
                       ("lang", "ascending")])
        first = np.ones(len(g), dtype=bool)
        pid = g["poly_id"].to_numpy()
        first[1:] = pid[1:] != pid[:-1]
        g = g.filter(first)
        return pa.table({"poly_id": g["poly_id"], "top_lang": g["lang"],
                         "n_docs": g["n"]})

    return partitioned(counts, "poly_id", argmax_part,
                       {"poly_id": pa.int64(), "top_lang": pa.string(),
                        "n_docs": pa.int64()},
                       rows_hint=4096)


# ---------------------------------------------------------------------------
# z_range — Morton-key range queries (bbox query via Z ranges)
# ---------------------------------------------------------------------------

# Eight fixed query ranges over the 32-bit Z space, [lo, lo + 2^27):
# each is an axis-aligned quadtree cell — the decomposition a bbox
# query compiles to before probing a Z-sorted table.
Z_RANGES = tuple((i << 29, (i << 29) + (1 << 27)) for i in range(8))


def zkeys(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """32-bit Morton keys of (lat, lon) — the zorder_counts kernel
    exposed for reuse (expression order mirrors the SQL oracle)."""
    qy = np.floor((lat + 90.0) / 180.0 * 65536.0).astype(np.int64)
    qx = np.floor((lon + 180.0) / 360.0 * 65536.0).astype(np.int64)
    qy = np.minimum(np.maximum(qy, 0), ZQ_MAX)
    qx = np.minimum(np.maximum(qx, 0), ZQ_MAX)
    return _part1by1(qx) | (_part1by1(qy) << 1)


def z_range(sf_dir: str, ranges=Z_RANGES):
    """Count pages per Morton-key query range — how a bbox query runs
    against a Z-ordered table: the box decomposes into Z ranges, each
    range is a contiguous scan.  Ranges with no pages are absent
    (inner semantics).  Output (range_id, n_pages).

    Scale shape: the range list is tiny and broadcast; each batch
    reduces through ONE (rows x n_ranges) comparison matrix to
    per-range partial counts.  On a Z-sorted table this becomes a
    row-group prune instead of a scan — zorder_counts is the histogram
    that builds that sort.
    """

    from .stages import geo_pipeline

    rid = np.arange(len(ranges), dtype=np.int64)
    lo = np.asarray([r[0] for r in ranges], dtype=np.int64)
    hi = np.asarray([r[1] for r in ranges], dtype=np.int64)

    ds = geo_pipeline(sf_dir, with_cells=False) \
        .select_columns(["lat", "lon"])

    def partial(batch: pa.Table) -> pa.Table:
        z = zkeys(batch["lat"].to_numpy(zero_copy_only=False),
                  batch["lon"].to_numpy(zero_copy_only=False))
        hit = (z[:, None] >= lo[None, :]) & (z[:, None] < hi[None, :])
        n = hit.sum(axis=0).astype(np.int64)
        keep = n > 0
        return pa.table({"range_id": pa.array(rid[keep]),
                         "n": pa.array(n[keep])})

    return aggregate(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        "range_id", {"n_pages": ("n", "sum")},
        {"range_id": pa.int64(), "n_pages": pa.int64()})


# ---------------------------------------------------------------------------
# cluster_centroid — exact per-cluster mean position (integer microdeg sums)
# ---------------------------------------------------------------------------

LATLON_SCALE = 2000000.0   # the synth geocoder's jitter denominator


def cluster_centroid(sf_dir: str):
    """Per-cluster page count and mean (lat, lon) — the cluster-center
    feature.  Exact across engines: a raw float mean is
    summation-order-dependent, so each coordinate is first recovered as
    the integer ``floor(coord * 2e6 + 0.5)`` (the synth geocoder's
    half-microdegree grid — the double is within 1e-8 of that integer,
    so the +0.5 floor is unambiguous), summed as int64, and divided
    back once: ``(sum / 2000000.0) / n``.  Int64-safe to ~4.6e9 pages
    per cluster; the sum-to-double conversion stays exact to 2^53
    half-microdegrees (~10^7 pages per cluster at extreme latitudes —
    shard the scale factor before that at the 100 TB point).

    Scale shape: a column map, ONE ``shuffle.aggregate`` count and
    int64 sums, then a stateless per-row division kernel.
    """

    from .stages import geo_pipeline

    ds = geo_pipeline(sf_dir, with_cells=False) \
        .select_columns(["cluster", "lat", "lon"])

    def cols(batch: pa.Table) -> pa.Table:
        # expression order mirrors the SQL oracle term-for-term
        ilat = np.floor(batch["lat"].to_numpy(zero_copy_only=False)
                        * LATLON_SCALE + 0.5).astype(np.int64)
        ilon = np.floor(batch["lon"].to_numpy(zero_copy_only=False)
                        * LATLON_SCALE + 0.5).astype(np.int64)
        return pa.table({"cluster": batch["cluster"],
                         "ilat": pa.array(ilat), "ilon": pa.array(ilon)})

    sums = aggregate(
        ds.map_batches(cols, batch_format="pyarrow",
                       zero_copy_batch=True),
        "cluster", {"n_pages": ("cluster", "count"),
                    "slat": ("ilat", "sum"), "slon": ("ilon", "sum")},
        {"cluster": pa.int64(), "n_pages": pa.int64(), "slat": pa.int64(),
         "slon": pa.int64()})

    def finish(batch: pa.Table) -> pa.Table:
        n = batch["n_pages"].to_numpy()
        clat = (batch["slat"].to_numpy() / LATLON_SCALE) / n
        clon = (batch["slon"].to_numpy() / LATLON_SCALE) / n
        return pa.table({"cluster": batch["cluster"],
                         "n_pages": batch["n_pages"],
                         "clat": pa.array(clat),
                         "clon": pa.array(clon)})

    return sums.map_batches(finish, batch_format="pyarrow",
                            zero_copy_batch=True)


# ---------------------------------------------------------------------------
# cell_langmix — per-cell language diversity (distinct langs + top share)
# ---------------------------------------------------------------------------

def cell_langmix(ds, rows_hint: int | None = None):
    """Per-hex7-cell language mix: distinct language count and the
    majority language's share in integer permille
    (``1000 * top // total`` — exact integer division, no float) —
    the cell-level diversity screen (mixed-language cells are crawl
    artifacts; monolingual dense cells are geography).

    Scale shape: map-side distinct (cell, lang) partial counts, ONE
    groupby-sum to exact pair counts, then one hash-partition pass
    with a vectorized per-cell fold (shuffles carry
    O(cells x langs), never pages).
    """

    counts = aggregate(
        ds, ["hex7", "lang"], {"n": ("hex7", "count")},
        {"hex7": pa.int64(), "lang": pa.string(), "n": pa.int64()})

    def mix_part(g: pa.Table) -> pa.Table:
        a = g.group_by("hex7").aggregate(
            [([], "count_all"), ("n", "max"), ("n", "sum")])
        top = 1000 * a["n_max"].to_numpy() // a["n_sum"].to_numpy()
        return pa.table({"hex7": a["hex7"], "n_langs": a["count_all"],
                         "top_permille": top.astype(np.int64)})

    # (cell, lang) rows are bounded by pages; callers with a corpus
    # hint should pass it so partitioning scales (wrapper does)
    return partitioned(counts, "hex7", mix_part,
                       {"hex7": pa.int64(), "n_langs": pa.int64(),
                        "top_permille": pa.int64()},
                       rows_hint=rows_hint or 65536)


# ---------------------------------------------------------------------------
# od_flows — origin-destination matrix over per-cluster tracks
# ---------------------------------------------------------------------------

def od_flows(sf_dir: str):
    """Origin-destination flow matrix: each cluster's track starts at
    the hex7 cell of its LOWEST doc_id and ends at the cell of its
    HIGHEST; flows are (origin_cell, dest_cell) track counts — the
    mobility OD-matrix primitive (and the aggregate a 100 TB movement
    corpus is usually reduced to before any modeling).

    Scale shape: per-batch argmin/argmax partials (2 small rows per
    cluster per batch — pages never shuffle), ONE hash-partition fold
    on cluster to the global endpoints, then a map-side pair count +
    ONE groupby-sum on (o_hex, d_hex).  Both exchanges carry
    O(clusters) rows.
    """

    from .stages import geo_pipeline

    ds = geo_pipeline(sf_dir).select_columns(
        ["cluster", "doc_id", "hex7"])

    def endpoints_partial(batch: pa.Table) -> pa.Table:
        cl = batch["cluster"].to_numpy()
        did = batch["doc_id"].to_numpy()
        hx = batch["hex7"].to_numpy()
        order = np.lexsort((did, cl))
        cl, did, hx = cl[order], did[order], hx[order]
        first = np.concatenate(([True], cl[1:] != cl[:-1])) \
            if len(cl) else np.zeros(0, dtype=bool)
        last = np.concatenate((cl[1:] != cl[:-1], [True])) \
            if len(cl) else np.zeros(0, dtype=bool)
        return pa.table({
            "cluster": pa.array(cl[first]),
            "min_doc": pa.array(did[first]),
            "o_hex": pa.array(hx[first]),
            "max_doc": pa.array(did[last]),
            "d_hex": pa.array(hx[last])})

    partials = ds.map_batches(endpoints_partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def fold(g: pa.Table) -> pa.Table:
        cl = g["cluster"].to_numpy()
        o = np.lexsort((g["min_doc"].to_numpy(), cl))
        first = np.ones(len(cl), dtype=bool)
        first[1:] = cl[o][1:] != cl[o][:-1]
        d = np.lexsort((g["max_doc"].to_numpy(), cl))
        last = np.ones(len(cl), dtype=bool)
        last[:-1] = cl[d][1:] != cl[d][:-1]
        return pa.table({"o_hex": g["o_hex"].to_numpy()[o][first],
                         "d_hex": g["d_hex"].to_numpy()[d][last]})

    tracks = partitioned(partials, "cluster", fold,
                         {"o_hex": pa.int64(), "d_hex": pa.int64()},
                         rows_hint=_docs_rows(sf_dir))
    return aggregate(
        tracks,
        ["o_hex", "d_hex"], {"n_tracks": ("o_hex", "count")},
        {"o_hex": pa.int64(), "d_hex": pa.int64(), "n_tracks": pa.int64()})


# ---------------------------------------------------------------------------
# radius_gyration — per-cluster dispersion (mobility radius)
# ---------------------------------------------------------------------------

RGYR_SCALE = 2000.0   # half-millidegree grid for the squared sums


def radius_gyration(sf_dir: str):
    """Per-cluster radius of gyration (planar degree approximation):
    ``sqrt(var(lat) + var(lon))`` — the canonical mobility dispersion
    measure (Gonzalez et al. 2008 use it over cell towers; here over
    the page scatter).

    Exactness: coordinates quantize to the half-millidegree integer
    grid (``floor(coord * 2000 + 0.5)``), and the shuffle carries ONLY
    int64 partials (n, sx, sy, sxx, syy — order-independent).  The
    final per-cluster division/sqrt runs once, with the expression
    order mirrored term-for-term by the SQL oracle; a
    ``max(v, 0)`` guard absorbs the one-ulp negative variance a
    degenerate (single-point) cluster can produce.  Int64 bound:
    sxx <= n * 3.24e10, safe to ~2.8e8 pages per cluster; past that
    shard the cluster key before this stage.

    Scale shape: a column map, ONE ``shuffle.aggregate`` of int64
    sums, stateless finish kernel.
    """

    from .stages import geo_pipeline

    ds = geo_pipeline(sf_dir, with_cells=False) \
        .select_columns(["cluster", "lat", "lon"])

    def cols(batch: pa.Table) -> pa.Table:
        qx = np.floor(batch["lat"].to_numpy(zero_copy_only=False)
                      * RGYR_SCALE + 0.5).astype(np.int64)
        qy = np.floor(batch["lon"].to_numpy(zero_copy_only=False)
                      * RGYR_SCALE + 0.5).astype(np.int64)
        return pa.table({"cluster": batch["cluster"],
                         "qx": pa.array(qx), "qy": pa.array(qy),
                         "qxx": pa.array(qx * qx),
                         "qyy": pa.array(qy * qy)})

    sums = aggregate(
        ds.map_batches(cols, batch_format="pyarrow",
                       zero_copy_batch=True),
        "cluster", {"n_pages": ("cluster", "count"), "sx": ("qx", "sum"),
         "sy": ("qy", "sum"), "sxx": ("qxx", "sum"), "syy": ("qyy", "sum")},
        {"cluster": pa.int64(), "n_pages": pa.int64(), "sx": pa.int64(),
         "sy": pa.int64(), "sxx": pa.int64(), "syy": pa.int64()})

    def finish(batch: pa.Table) -> pa.Table:
        n = batch["n_pages"].to_numpy().astype(np.float64)
        sx = batch["sx"].to_numpy().astype(np.float64)
        sy = batch["sy"].to_numpy().astype(np.float64)
        sxx = batch["sxx"].to_numpy().astype(np.float64)
        syy = batch["syy"].to_numpy().astype(np.float64)
        # expression order mirrors the SQL oracle term-for-term
        mx = sx / n
        my = sy / n
        vx = sxx / n - mx * mx
        vy = syy / n - my * my
        v = np.maximum(vx + vy, 0.0)
        rgyr = np.sqrt(v) / RGYR_SCALE
        return pa.table({"cluster": batch["cluster"],
                         "n_pages": batch["n_pages"],
                         "rgyr_deg": pa.array(rgyr)})

    return sums.map_batches(finish, batch_format="pyarrow",
                            zero_copy_batch=True)


# ---------------------------------------------------------------------------
# geohash_counts — base-32 geohash encoding (4th cell-index scheme)
# ---------------------------------------------------------------------------

GEOHASH32 = "0123456789bcdefghjkmnpqrstuvwxyz"
GH_LAT_BITS = 12          # 5-char geohash: 13 lon bits + 12 lat bits
GH_LON_BITS = 13


def geohash5(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """5-character geohash strings (object array).  A geohash is the
    Morton interleave of the lat/lon binary fractions with LONGITUDE
    first, read out 5 bits per base-32 character — so the kernel
    reuses the zorder bit ladder (``_part1by1``) and only adds the
    charset readout.  Expression order mirrors the SQL oracle.
    """
    qy = np.floor((lat + 90.0) / 180.0 * 4096.0).astype(np.int64)
    qx = np.floor((lon + 180.0) / 360.0 * 8192.0).astype(np.int64)
    qy = np.minimum(np.maximum(qy, 0), (1 << GH_LAT_BITS) - 1)
    qx = np.minimum(np.maximum(qx, 0), (1 << GH_LON_BITS) - 1)
    g = _part1by1(qx) | (_part1by1(qy) << 1)      # 25-bit, lon at even
    chars = np.array(list(GEOHASH32))
    out = chars[(g >> 20) & 31]
    for shift in (15, 10, 5, 0):
        out = np.char.add(out, chars[(g >> shift) & 31])
    return out.astype(object)


def geohash_counts(sf_dir: str):
    """Per-geohash5 page counts — the engine's fourth cell-index
    scheme (hex grid, S2, Morton/Z, geohash) demonstrating that cell
    encodings are pluggable one-batch kernels over the same geocode.

    Scale shape: stateless vectorized encode, map-side partial counts,
    ONE groupby-sum carrying O(cells) rows.
    """

    from .stages import geo_pipeline

    ds = geo_pipeline(sf_dir, with_cells=False) \
        .select_columns(["lat", "lon"])

    def cols(batch: pa.Table) -> pa.Table:
        gh = geohash5(batch["lat"].to_numpy(zero_copy_only=False),
                      batch["lon"].to_numpy(zero_copy_only=False))
        return pa.table({"ghash": pa.array(gh, pa.string())})

    return aggregate(
        ds.map_batches(cols, batch_format="pyarrow",
                       zero_copy_batch=True),
        "ghash", {"n_pages": ("ghash", "count")},
        {"ghash": pa.string(), "n_pages": pa.int64()})


# ---------------------------------------------------------------------------
# cell_markov — first-order mobility transition matrix
# ---------------------------------------------------------------------------

def cell_markov(sf_dir: str):
    """First-order cell-transition counts: for each cluster's track
    (pages ordered by doc_id), count every consecutive (from_hex,
    to_hex) hex7 move — the Markov mobility-model estimator (od_flows
    keeps only endpoints; this keeps the full chain).

    Scale shape: ONE hash-partition exchange on cluster (track_legs
    shape), a vectorized sort+shift kernel with partition-local pair
    pre-counts, then ONE groupby-sum on the pair key carrying
    O(cells^2 occupied) rows, never pages.
    """

    from .stages import geo_pipeline

    ds = geo_pipeline(sf_dir).select_columns(
        ["cluster", "doc_id", "hex7"])

    def moves_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("cluster", "ascending"), ("doc_id", "ascending")])
        cl = g["cluster"].to_numpy()
        hx = g["hex7"].to_numpy()
        same = cl[1:] == cl[:-1]
        return pa.table({"from_hex": hx[:-1][same], "to_hex": hx[1:][same]})

    moves = partitioned(ds, "cluster", moves_part,
                        {"from_hex": pa.int64(), "to_hex": pa.int64()},
                        rows_hint=_docs_rows(sf_dir))
    return aggregate(
        moves,
        ["from_hex", "to_hex"], {"n_moves": ("from_hex", "count")},
        {"from_hex": pa.int64(), "to_hex": pa.int64(), "n_moves": pa.int64()})


# ---------------------------------------------------------------------------
# mobility_entropy — per-cluster cell-visit Shannon entropy
# ---------------------------------------------------------------------------

def mobility_entropy(sf_dir: str):
    """Per-cluster Shannon entropy of the hex7 visit distribution —
    the mobility-predictability feature (Song et al. 2010 compute it
    over cell towers).  Integer milli-nat NUMERATOR convention
    (relational.user_entropy): ``sum_cell c * floor(-1000 *
    ln(c / n))``; the caller divides by n_pages for the per-visit
    entropy, so the distributed value is integer-exact and
    order-independent.

    Scale shape: ONE hash-partition exchange on cluster, one
    vectorized kernel per partition (grouped counts -> transform
    totals -> term fold); per-cluster totals never leave the kernel.
    """
    from .relational import entropy_part
    from .stages import geo_pipeline

    ds = geo_pipeline(sf_dir).select_columns(["cluster", "hex7"])

    return partitioned(ds, "cluster",
                       entropy_part("cluster", "hex7", "n_pages"),
                       {"cluster": pa.int64(), "n_pages": pa.int64(),
                        "entropy_numer_milli": pa.int64()},
                       rows_hint=_docs_rows(sf_dir))


# ---------------------------------------------------------------------------
# traj_jaccard — co-travel detection (cell-set Jaccard between clusters)
# ---------------------------------------------------------------------------

# Per-cell distinct-cluster cap for the pair kernel: a cell visited by
# more than this many clusters emits O(k^2) pairs from one partition.
# The synth scatter is cluster-disjoint by construction (occupancy is
# single digits); a real 100 TB corpus would salt or LSH-bucket hot
# cells exactly like dedup's band buckets — the loud raise marks the
# seam rather than silently OOMing.
TRAJ_MAX_CLUSTERS_PER_CELL = 4096

# Trajectory-grid size for the co-travel screen.  Deliberately COARSE
# (20 deg): co-travel asks "same region at track granularity", not
# "same block" — and the synth cluster lattice is low-discrepancy
# (1-deg-spaced centers that provably never share a fine cell), so the
# fine hex7 grid would make every pair score zero.  20 deg yields a
# discriminating pair set at every sf (4 pairs at sf0.001/0.01, 44 at
# sf0.1).
TRAJ_CELL_DEG = 20.0

# Size-table broadcast bound (clusters are user-scale): under this the
# per-cluster set sizes ship as one sorted-array ray.put; above it the
# two-hash-join fallback runs (dedup_apply's convention).
TRAJ_BROADCAST_MAX = 5_000_000


def traj_jaccard(sf_dir: str):
    """Co-travel pairs: for every pair of clusters sharing >= 1
    trajectory-grid cell (TRAJ_CELL_DEG), the Jaccard similarity of
    their visited-cell SETS in exact integer permille — the
    trajectory-similarity screen (co-travel / account-linking
    analysis), the spatial twin of source_jaccard's vocabulary
    overlap.

    Scale shape: batch-local distinct -> ONE distinct shuffle to the
    (cluster, hex7) set -> per-cell pair generation in a
    hash-partitioned kernel (bounded by TRAJ_MAX_CLUSTERS_PER_CELL,
    run-detection over sorted cells, no per-cell Python beyond
    run-size classes) -> pair-key Sum -> set sizes attached via TWO
    hash joins (clusters are user-scale, so no driver-side size dict)
    -> stateless integer finish.  Pages never cross a shuffle after
    the first distinct.
    """

    from .relational import join_partitions_for
    from .stages import geo_pipeline

    ds = geo_pipeline(sf_dir, with_cells=False) \
        .select_columns(["cluster", "lat", "lon"])

    def distinct_part(batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        tc = (np.floor((lat + 90.0) / TRAJ_CELL_DEG).astype(np.int64)
              * 4096
              + np.floor((lon + 180.0) / TRAJ_CELL_DEG)
              .astype(np.int64))
        return pa.table({"cluster": batch["cluster"],
                         "tcell": pa.array(tc)})

    distinct = aggregate(
        ds.map_batches(distinct_part, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["cluster", "tcell"], {},
        {"cluster": pa.int64(), "tcell": pa.int64()})

    sizes = aggregate(
        distinct, "cluster", {"s": ("cluster", "count")},
        {"cluster": pa.int64(), "s": pa.int64()})

    def pairs_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("tcell", "ascending"), ("cluster", "ascending")])
        hx = g["tcell"].to_numpy()
        cl = g["cluster"].to_numpy()
        starts, seg = runs(hx)
        if len(seg) and seg.max() > TRAJ_MAX_CLUSTERS_PER_CELL:
            raise ValueError(
                "traj_jaccard: a cell is visited by more than "
                f"{TRAJ_MAX_CLUSTERS_PER_CELL} clusters — salt or "
                "LSH-bucket hot cells before the pair stage")
        i, j = run_pairs(starts, seg)
        return pa.table({"c1": cl[i], "c2": cl[j]})

    n_hint = _docs_rows(sf_dir)
    inter = aggregate(
        partitioned(distinct, "tcell", pairs_part,
                    {"c1": pa.int64(), "c2": pa.int64()},
                    rows_hint=n_hint),
        ["c1", "c2"], {"n_inter": ("c1", "count")},
        {"c1": pa.int64(), "c2": pa.int64(), "n_inter": pa.int64()})

    # attach set sizes: broadcast sorted-array probe under the bound
    # (dedup_apply's drop-set convention), two hash joins above it.
    # The broadcast path also sidesteps Ray 2.49 JoinOperator resource
    # demands (two joins deadlock a 4-CPU session) and its
    # empty-left-partition ArrowInvalid.
    import ray

    sz = collect(sizes, pa.schema([("cluster", pa.int64()),
                                   ("s", pa.int64())]), TRAJ_BROADCAST_MAX)

    if sz is not None:
        k = sz["cluster"].to_numpy()
        v = sz["s"].to_numpy()
        order = np.argsort(k)
        ref = ray.put((k[order], v[order]))

        def finish(batch: pa.Table) -> pa.Table:
            kk, vv = ray.get(ref)
            c1 = batch["c1"].to_numpy()
            c2 = batch["c2"].to_numpy()
            s1 = vv[np.searchsorted(kk, c1)]
            s2 = vv[np.searchsorted(kk, c2)]
            inter_n = batch["n_inter"].to_numpy()
            union = s1 + s2 - inter_n
            out_n = np.where(union > 0, union, 1)
            return pa.table({
                "c1": batch["c1"], "c2": batch["c2"],
                "n_inter": batch["n_inter"],
                "n_union": pa.array(union),
                "jac_permille": pa.array(1000 * inter_n // out_n)})

        return inter.map_batches(finish, batch_format="pyarrow",
                                 zero_copy_batch=True)

    def r1(batch: pa.Table) -> pa.Table:
        return pa.table({"c1": batch["cluster"], "s1": batch["s"]})

    def r2(batch: pa.Table) -> pa.Table:
        return pa.table({"c2": batch["cluster"], "s2": batch["s"]})

    np_join = join_partitions_for(n_hint)
    j = inter.join(sizes.map_batches(r1, batch_format="pyarrow"),
                   join_type="inner", num_partitions=np_join,
                   on=("c1",))
    j = j.join(sizes.map_batches(r2, batch_format="pyarrow"),
               join_type="inner", num_partitions=np_join,
               on=("c2",))

    def finish_join(batch: pa.Table) -> pa.Table:
        inter_n = batch["n_inter"].to_numpy()
        union = batch["s1"].to_numpy() + batch["s2"].to_numpy() \
            - inter_n
        return pa.table({
            "c1": batch["c1"], "c2": batch["c2"],
            "n_inter": batch["n_inter"],
            "n_union": pa.array(union),
            "jac_permille": pa.array(1000 * inter_n // union)})

    return j.map_batches(finish_join, batch_format="pyarrow",
                         zero_copy_batch=True)


# ---------------------------------------------------------------------------
# peak_hour — per-cell peak visiting hour (space-time argmax)
# ---------------------------------------------------------------------------

def peak_hour(sf_dir: str):
    """Per-hex7-cell peak crawl hour: the hour-of-day with the most
    page visits (ties -> lowest hour) and its count — the space-time
    rhythm screen (commercial vs residential cells separate cleanly
    on it).

    Scale shape: map-side (cell, hour) partial counts -> ONE
    groupby-sum over the (cells x 24) keyspace -> hash-partitioned
    vectorized argmax kernel.  Pages never shuffle.
    """

    from .stages import geo_pipeline

    ds = geo_pipeline(sf_dir).select_columns(["hex7", "warc_ts"])

    def hours(batch: pa.Table) -> pa.Table:
        ts = batch["warc_ts"].to_numpy(zero_copy_only=False)
        secs = ts.astype("datetime64[s]").astype(np.int64)
        hr = (secs // 3600) % 24
        return pa.table({"hex7": batch["hex7"],
                         "hr": pa.array(hr.astype(np.int64))})

    counts = aggregate(
        ds.map_batches(hours, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None),
        ["hex7", "hr"], {"n": ("hex7", "count")},
        {"hex7": pa.int64(), "hr": pa.int64(), "n": pa.int64()})

    def argmax_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("hex7", "ascending"), ("n", "descending"),
                       ("hr", "ascending")])
        hx = g["hex7"].to_numpy()
        first = np.ones(len(hx), dtype=bool)
        first[1:] = hx[1:] != hx[:-1]
        return pa.table({"hex7": hx[first],
                         "peak_hour": g["hr"].to_numpy()[first],
                         "n_peak": g["n"].to_numpy()[first]})

    # counts rows <= occupied cells x 24 <= pages — the page count is
    # the safe upper bound (a constant would under-partition at 100 TB)
    return partitioned(counts, "hex7", argmax_part,
                       {"hex7": pa.int64(), "peak_hour": pa.int64(),
                        "n_peak": pa.int64()},
                       rows_hint=_docs_rows(sf_dir))


# ---------------------------------------------------------------------------
# hilbert_counts — Hilbert-curve keys (locality-better range partitioner)
# ---------------------------------------------------------------------------

HILBERT_BITS = 8           # 256 x 256 grid -> 16-bit d
HILBERT_PREFIX_SHIFT = 8   # histogram over d >> 8 (256 buckets)


def hilbert_d(qx: np.ndarray, qy: np.ndarray,
              bits: int = HILBERT_BITS) -> np.ndarray:
    """Hilbert-curve distance d of grid cells (qx, qy) — the classic
    xy2d bit loop (Wikipedia's algorithm), vectorized.  All-integer,
    so the SQL mirror (one generated CTE per bit level, see
    __ray_entry__._hilbert_sql_steps) is trivially exact.

    Why next to zorder: a Hilbert prefix range has ~half the
    cross-boundary adjacency of the equivalent Z prefix (no Z jumps),
    so it is the better range-partitioner key when neighbor joins
    follow the repartition."""
    x = qx.astype(np.int64).copy()
    y = qy.astype(np.int64).copy()
    d = np.zeros_like(x)
    s = 1 << (bits - 1)
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += (s * s) * ((3 * rx) ^ ry)
        flip = (ry == 0) & (rx == 1)
        x1 = np.where(flip, s - 1 - x, x)
        y1 = np.where(flip, s - 1 - y, y)
        swap = ry == 0
        x, y = np.where(swap, y1, x1), np.where(swap, x1, y1)
        s >>= 1
    return d


def hilbert_counts(sf_dir: str):
    """Per-Hilbert-prefix page histogram — zorder_counts' sibling on
    the Hilbert key (same quantization, same histogram shape), giving
    the range partitioner the lower-adjacency split-point input.

    Scale shape: stateless vectorized encode, map-side partial counts,
    ONE groupby-sum over <= 256 prefix buckets.
    """

    from .stages import geo_pipeline

    ds = geo_pipeline(sf_dir, with_cells=False) \
        .select_columns(["lat", "lon"])
    grid = 1 << HILBERT_BITS

    def cols(batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        qx = np.floor((lon + 180.0) / 360.0 * grid).astype(np.int64)
        qy = np.floor((lat + 90.0) / 180.0 * grid).astype(np.int64)
        qx = np.minimum(np.maximum(qx, 0), grid - 1)
        qy = np.minimum(np.maximum(qy, 0), grid - 1)
        return pa.table({"hprefix": pa.array(
            hilbert_d(qx, qy) >> HILBERT_PREFIX_SHIFT)})

    return aggregate(
        ds.map_batches(cols, batch_format="pyarrow",
                       zero_copy_batch=True),
        "hprefix", {"n_pages": ("hprefix", "count")},
        {"hprefix": pa.int64(), "n_pages": pa.int64()})


# ---------------------------------------------------------------------------
# cell_sample — deterministic per-cell k-sample (stratified spatial sample)
# ---------------------------------------------------------------------------

CELL_SAMPLE_K = 3
CELL_SAMPLE_MULT = 2654435761    # Knuth multiplicative (hash_sample's)
CELL_SAMPLE_MOD = 1_000_003      # prime > any per-cell count


def cell_sample(sf_dir: str, k: int = CELL_SAMPLE_K):
    """Spatially stratified corpus sample: the k pages per hex7 cell
    with the smallest deterministic hash ``(doc_id % M * MULT) % M``
    (ties impossible: the map is a bijection mod the prime M for
    doc_id < M; collisions above M break ties by doc_id) — the
    "cap every cell's contribution" sampler a geo-balanced training
    mix needs (dense cities would otherwise dominate a uniform
    sample).

    Scale shape: ONE hash-partition exchange on hex7, one vectorized
    sort + rank kernel per partition (no per-cell Python, no global
    sort).
    """
    from .stages import geo_pipeline

    ds = geo_pipeline(sf_dir).select_columns(["hex7", "doc_id"])

    def topk_part(g: pa.Table) -> pa.Table:
        did = g["doc_id"].to_numpy()
        h = (did % CELL_SAMPLE_MOD * CELL_SAMPLE_MULT) % CELL_SAMPLE_MOD
        g = g.append_column("h", pa.array(h)).sort_by(
            [("hex7", "ascending"), ("h", "ascending"),
             ("doc_id", "ascending")])
        hx = g["hex7"].to_numpy()
        starts, sizes = runs(hx)
        rank = np.arange(len(hx)) - np.repeat(starts, sizes) + 1
        return g.append_column("rank", pa.array(rank.astype(np.int64))) \
            .filter(rank <= k)

    return partitioned(ds, "hex7", topk_part,
                       {"hex7": pa.int64(), "doc_id": pa.int64(),
                        "rank": pa.int64()},
                       rows_hint=_docs_rows(sf_dir))


# ---------------------------------------------------------------------------
# z_splits — exact range-partitioner split points over the Z-key space
# ---------------------------------------------------------------------------

Z_SPLITS_N = 8             # produce N-1 split points (N ranges)


def z_splits(sf_dir: str, n_parts: int = Z_SPLITS_N):
    """Exact split points for an N-way RANGE partition of the Morton
    key space: split q_i (i = 1..N-1) is the smallest 16-bit Z prefix
    whose cumulative page count reaches ``ceil(i * total / N)`` — the
    planner input that turns zorder_counts' histogram into actual
    partition bounds (balanced ranges over 10^12 pages without a
    global sort).

    Exactness: the key space is bounded (4096 prefixes), so the
    histogram is the FULL distribution at prefix resolution and the
    quantile is exact, not a sketch.  All-integer.

    Scale shape: map-side partial histograms, ONE groupby-sum over
    <= 4096 rows, collected, then one driver fold computes all split
    points (the length_quantiles shape, but distribution-bounded
    instead of data-bounded).
    """
    import ray.data as rd

    from .stages import geo_pipeline

    ds = geo_pipeline(sf_dir, with_cells=False) \
        .select_columns(["lat", "lon"])

    def cols(batch: pa.Table) -> pa.Table:
        z = zkeys(batch["lat"].to_numpy(zero_copy_only=False),
                  batch["lon"].to_numpy(zero_copy_only=False))
        return pa.table({"zprefix": pa.array(z >> ZPREFIX_SHIFT)})

    hist = aggregate(
        ds.map_batches(cols, batch_format="pyarrow",
                       zero_copy_batch=True),
        "zprefix", {"n": ("zprefix", "count")},
        {"zprefix": pa.int64(), "n": pa.int64()})
    # the histogram is <= 4096 rows BY CONSTRUCTION (bounded by the key
    # space, not the data), so the split points come from one driver
    # fold — the length_quantiles shape
    h = collect(hist, pa.schema([("zprefix", pa.int64()), ("n", pa.int64())]))
    if not h.num_rows:
        return rd.from_arrow(pa.table({
            "split_idx": pa.array([], pa.int64()),
            "zprefix": pa.array([], pa.int64()),
            "cum_pages": pa.array([], pa.int64())}))
    order = np.argsort(h["zprefix"].to_numpy(), kind="stable")
    zp = h["zprefix"].to_numpy()[order]
    cum = np.cumsum(h["n"].to_numpy()[order])
    total = int(cum[-1])
    idx = np.arange(1, n_parts, dtype=np.int64)
    # smallest prefix with cum >= ceil(i * total / N), integer math
    pos = np.searchsorted(cum, -(-idx * total // n_parts))
    return rd.from_arrow(pa.table({"split_idx": pa.array(idx),
                                   "zprefix": pa.array(zp[pos]),
                                   "cum_pages": pa.array(cum[pos])}))


# ---------------------------------------------------------------------------
# cluster_bbox — per-track bounding box (integer micro-degrees)
# ---------------------------------------------------------------------------

def cluster_bbox(sf_dir: str):
    """Per-cluster track bounding box in half-microdegree integers
    (the cluster_centroid grid): min/max lat/lon plus the exact
    integer box area — the cheap track-extent feature next to
    radius_gyration's dispersion.

    Scale shape: map-side min/max partials, ONE groupby over cluster
    (Min/Max are associative), stateless finish.  All-integer.
    """

    from .stages import geo_pipeline

    ds = geo_pipeline(sf_dir, with_cells=False) \
        .select_columns(["cluster", "lat", "lon"])

    def partial(batch: pa.Table) -> pa.Table:
        cl = batch["cluster"].to_numpy()
        ilat = np.floor(batch["lat"].to_numpy(zero_copy_only=False)
                        * LATLON_SCALE + 0.5).astype(np.int64)
        ilon = np.floor(batch["lon"].to_numpy(zero_copy_only=False)
                        * LATLON_SCALE + 0.5).astype(np.int64)
        u, inv = np.unique(cl, return_inverse=True)
        big = np.int64(2 ** 62)
        mn_lat = np.full(len(u), big)
        mx_lat = np.full(len(u), -big)
        mn_lon = np.full(len(u), big)
        mx_lon = np.full(len(u), -big)
        np.minimum.at(mn_lat, inv, ilat)
        np.maximum.at(mx_lat, inv, ilat)
        np.minimum.at(mn_lon, inv, ilon)
        np.maximum.at(mx_lon, inv, ilon)
        return pa.table({
            "cluster": pa.array(u),
            "mn_lat": pa.array(mn_lat), "mx_lat": pa.array(mx_lat),
            "mn_lon": pa.array(mn_lon), "mx_lon": pa.array(mx_lon)})

    agg = aggregate(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        "cluster", {"mn_lat": ("mn_lat", "min"), "mx_lat": ("mx_lat", "max"),
         "mn_lon": ("mn_lon", "min"), "mx_lon": ("mx_lon", "max")},
        {"cluster": pa.int64(), "mn_lat": pa.int64(), "mx_lat": pa.int64(),
         "mn_lon": pa.int64(), "mx_lon": pa.int64()})

    def finish(batch: pa.Table) -> pa.Table:
        area = (batch["mx_lat"].to_numpy()
                - batch["mn_lat"].to_numpy()) \
            * (batch["mx_lon"].to_numpy() - batch["mn_lon"].to_numpy())
        return pa.table({
            "cluster": batch["cluster"],
            "mn_lat": batch["mn_lat"], "mx_lat": batch["mx_lat"],
            "mn_lon": batch["mn_lon"], "mx_lon": batch["mx_lon"],
            "box_area": pa.array(area)})

    return agg.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


# ---------------------------------------------------------------------------
# s2_compact — mixed-granularity cell cover (H3 compact() analog on S2)
# ---------------------------------------------------------------------------

S2_COMPACT_PARENT_LEVEL = 11
S2_CHILD_LEVEL = 12


def s2_compact(sf_dir: str):
    """Mixed-granularity cell cover: the distinct populated S2
    level-12 cells with every COMPLETE 4-sibling set replaced by its
    level-11 parent — the H3 ``compact()`` analog on the S2 hierarchy
    (public algorithm; the reference has no compaction — cells.py's
    ``s2_parent`` supplies the hierarchy).  Output ``(cell, level)``
    with level 11 for compacted parents, 12 for remaining children.

    Scale shape: pages collapse to distinct cells via map-side unique
    partials + ONE groupby (the shuffle carries O(populated cells)
    rows, never pages); the compaction itself is a hash partition on
    the PARENT id — parent is a pure function of the child (bits
    >= 39 | 1 << 38), so every sibling set co-locates without a join —
    and one vectorized run-detection kernel per partition (sorting by
    cell id groups siblings contiguously because they differ only in
    bits 37-38).
    """

    from .stages import geo_pipeline

    ds = geo_pipeline(sf_dir).select_columns(["s2_12"])

    # Ray 2.49 groupby pickles uint64 key columns (extension-type
    # round-trip), so the id rides the shuffles as its int64 BIT
    # PATTERN (lossless .view; faces 4-5 go negative, which only the
    # final uint64 view needs to care about).
    def partial(batch: pa.Table) -> pa.Table:
        u = np.unique(batch["s2_12"].to_numpy().view(np.int64))
        return pa.table({"s2i": pa.array(u, pa.int64()),
                         "one": pa.array(np.ones(len(u), np.int64))})

    cells12 = aggregate(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        "s2i", {"n": ("one", "sum")},
        {"s2i": pa.int64(), "n": pa.int64()}) \
        .select_columns(["s2i"]).materialize()  # O(populated cells)
    return compact_cells(cells12, cells12.count())


def compact_cells(cells12, n_cells: int):
    """The compaction exchange over an already-DISTINCT cell table
    (one ``s2i`` int64-bit-pattern row per populated level-12 cell).
    Split out so tests can drive it with hand-built sibling sets —
    the synthetic geocode only produces complete 4-child sets at
    sf >= 0.1."""
    from .cells import s2_parent

    def add_parent(batch: pa.Table) -> pa.Table:
        c = batch["s2i"].to_numpy().view(np.uint64)
        par = s2_parent(c, S2_COMPACT_PARENT_LEVEL).view(np.int64)
        return batch.append_column("parent", pa.array(par, pa.int64()))

    def kernel(g: pa.Table) -> pa.Table:
        c = g["s2i"].to_numpy().view(np.uint64)
        p = g["parent"].to_numpy().view(np.uint64)
        o = np.argsort(c, kind="stable")
        c, p = c[o], p[o]
        new = np.ones(len(c), dtype=bool)
        new[1:] = p[1:] != p[:-1]
        grp = np.cumsum(new) - 1
        full = np.bincount(grp)[grp] == 4   # all 4 siblings populated
        head = new & full
        cell = np.concatenate([p[head], c[~full]])
        level = np.concatenate([
            np.full(int(head.sum()), S2_COMPACT_PARENT_LEVEL, np.int64),
            np.full(int((~full).sum()), S2_CHILD_LEVEL, np.int64)])
        return pa.table({"cell": cell, "level": level})

    return partitioned(
        cells12.map_batches(add_parent, batch_format="pyarrow",
                            zero_copy_batch=True),
        "parent", kernel, {"cell": pa.uint64(), "level": pa.int64()},
        rows_hint=n_cells)


# Ring-2 axial hex offsets packed as q*65536 + r (same packing as
# knn.HEX_RING1_OFFSETS): the 12 cells at hex distance exactly 2.
HEX_RING2_OFFSETS = (
    131072, -131072,           # (±2,  0)
    2, -2,                     # ( 0, ±2)
    131070, -131070,           # (±2, ∓2)
    65537, -65537,             # (±1, ±1)
    131071, -131071,           # (±2, ∓1)
    65534, -65534,             # (±1, ∓2)
)
IDW_W_RING1 = 1000             # 1/d² weights scaled ×1000: d=1 → 1000
IDW_W_RING2 = 250              # d=2 → 1000/4


def grid_idw(ds):
    """Inverse-distance-weighted spatial interpolation onto EMPTY hex7
    cells: every unoccupied cell within hex distance ≤2 of an occupied
    cell gets the IDW estimate of the page density, weights 1/d²
    (scaled ×1000 so everything stays integer): ``est_milli =
    floor(1000 * Σ w_d·n / Σ w_d)``.  The gap-filling companion to
    ``cell_smooth`` — smoothing re-weights occupied cells, IDW
    *predicts* the holes between them.

    Scale shape: map-side per-cell partial counts -> ONE cell-bounded
    groupby -> an 18× scatter of the AGGREGATED cell rows (ring-1
    weight 1000, ring-2 weight 250) unioned with occupancy marker rows
    -> a second cell-bounded groupby -> filter occ == 0.  No join at
    all: the anti-semijoin against occupied cells is folded into the
    same groupby via the marker column.  Both shuffles carry
    O(distinct cells), never the pages.  int64 bound: 1000·num =
    10⁶ × (ring-local page count), safe below ~9·10¹² pages per
    2-ring neighborhood."""

    counts = _cell_counts(ds)

    offs = np.asarray(HEX_RING1_OFFSETS[1:] + HEX_RING2_OFFSETS,
                      dtype=np.int64)          # drop the self-offset 0
    ws = np.asarray([IDW_W_RING1] * 6 + [IDW_W_RING2] * 12,
                    dtype=np.int64)

    def scatter(batch: pa.Table) -> pa.Table:
        cell = batch["hex7"].to_numpy()
        n = batch["n"].to_numpy()
        idx = np.repeat(np.arange(len(cell)), len(offs))
        w = np.tile(ws, len(cell))
        return pa.table({
            "hex7": pa.array(np.concatenate(
                [cell[idx] + np.tile(offs, len(cell)), cell])),
            "num": pa.array(np.concatenate(
                [w * n[idx], np.zeros(len(cell), np.int64)])),
            "den": pa.array(np.concatenate(
                [w, np.zeros(len(cell), np.int64)])),
            "occ": pa.array(np.concatenate(
                [np.zeros(len(idx), np.int64),
                 np.ones(len(cell), np.int64)]))})

    agg = aggregate(
        counts.map_batches(scatter, batch_format="pyarrow",
                           zero_copy_batch=True),
        "hex7", {"num": ("num", "sum"), "den": ("den", "sum"),
         "occ": ("occ", "sum")},
        {"hex7": pa.int64(), "num": pa.int64(), "den": pa.int64(),
         "occ": pa.int64()})

    def finish(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch["occ"], 0)
        t = batch.filter(keep)
        num = t["num"].to_numpy()
        den = t["den"].to_numpy()
        est = 1000 * num // den            # den ≥ 250 by construction
        return pa.table({"hex7": t["hex7"], "num": pa.array(num),
                         "den": pa.array(den),
                         "est_milli": pa.array(est)})

    return agg.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


def emerging_hotspots(ds):
    """Emerging-hot-spot screen (the space-time-cube analysis): per
    hex7 cell, the Mann-Kendall trend statistic of the DAILY page
    count series — ``s = Σ_{i<j} sign(c_j − c_i)`` over day pairs —
    plus the day count (the variance term n(n−1)(2n+5)/18 is derivable
    from ``n_days`` downstream).  s > 0: intensifying cell, s < 0:
    cooling — the temporal companion to the static ``hotspots``
    screen, entirely integer.

    Scale shape: map-side (cell, day) partial counts -> ONE
    (cells × days)-bounded groupby -> hash-partitioned vectorized
    kernel (run-detection over cells sorted by day; the per-cell pair
    triangle is CALENDAR-bounded — O(days²) per cell with days ≤ the
    crawl span, never corpus-sized)."""

    def cols(batch: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(batch["warc_ts"], pa.int64()),
                        86_400_000_000)
        return pa.table({"hex7": batch["hex7"], "day": day})

    daily = aggregate(
        ds.map_batches(cols, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None),
        ["hex7", "day"], {"c": ("hex7", "count")},
        {"hex7": pa.int64(), "day": pa.int64(), "c": pa.int64()})

    def mk_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("hex7", "ascending"), ("day", "ascending")])
        h = g["hex7"].to_numpy()
        c = g["c"].to_numpy().astype(np.int64)
        starts, sizes = runs(h)
        hs, nd, ss = [], [], []
        for st, sz in zip(starts.tolist(), sizes.tolist()):
            v = c[st:st + sz]
            if sz < 2:
                s = 0
            else:
                ia, ib = np.triu_indices(sz, k=1)
                s = int(np.sign(v[ib] - v[ia]).sum())
            hs.append(h[st])
            nd.append(sz)
            ss.append(s)
        return pa.table({
            "hex7": np.asarray(hs, dtype=np.int64),
            "n_days": np.asarray(nd, dtype=np.int64),
            "s": np.asarray(ss, dtype=np.int64)})

    # the (cell, day) table is calendar-bounded: materialized once, its
    # row count sizes the kernel's partitions
    daily = daily.materialize()
    return partitioned(daily, "hex7", mk_part,
                       {"hex7": pa.int64(), "n_days": pa.int64(),
                        "s": pa.int64()},
                       rows_hint=daily.count())


# ---------------------------------------------------------------------------
# poly_geometry — integer vector-geometry measures + page counts
# ---------------------------------------------------------------------------

def poly_geometry(sf_dir: str):
    """Per-polygon vector-geometry measures over the broadcast layer,
    joined with the distributed point-in-polygon page count:

    - ``n_vertices``  ring length;
    - ``area2_md2``   twice the shoelace area, |sum(x_i*y_{i+1} -
      x_{i+1}*y_i)|, in squared milli-degrees — pure int64 (ring_md
      coords are integers), so the value is EXACT and
      order-independent, unlike a float shoelace sum;
    - ``perim_l1_md`` L1 (Manhattan) ring perimeter in milli-degrees —
      the integer-exact stand-in for the Euclidean perimeter (sqrt
      sums are order-dependent floats; reference analog: polygon
      area/precision handling in utils/geo_transforms.py:26-30);
    - ``minx/miny/maxx/maxy_md`` integer envelope (the RTree leaf box);
    - ``n_pages``     pages whose geocode falls inside the polygon
      (the engine's broadcast-STRtree ray-cast PIP join, distributed),
      0 for empty polygons.

    Scale shape: the geometry side is the BROADCAST vector layer — a
    module constant measured driver-side in one int64 pass (no data
    rows involved); the page side is the full distributed PIP
    pipeline pre-aggregated to one row per polygon.  The final attach
    is a dict probe over <= n_polys rows (bounded by the broadcast
    layer's size, the same guard as the layer itself).
    """
    import ray.data as rd

    from .stages import geo_pipeline

    counts_ds = aggregate(geo_pipeline(sf_dir, mode="inner"), "poly_id",
                         {"n_pages": ("poly_id", "count")},
                         {"poly_id": pa.int64(), "n_pages": pa.int64()})
    n_polys = len(synth.POLYGONS)
    t = collect(counts_ds, pa.schema([("poly_id", pa.int64()),
                                      ("n_pages", pa.int64())]), n_polys)
    if t is None:
        raise ValueError("poly_geometry: more poly_id groups than the "
                         f"{n_polys} layer polygons")
    counts = dict(zip(t["poly_id"].to_numpy().tolist(),
                      t["n_pages"].to_numpy().tolist()))

    rows = []
    for p in synth.POLYGONS:
        ring = np.asarray(p["ring_md"], dtype=np.int64)
        x, y = ring[:, 0], ring[:, 1]
        x2, y2 = np.roll(x, -1), np.roll(y, -1)
        rows.append({
            "poly_id": int(p["poly_id"]),
            "class_id": int(p["class_id"]),
            "n_vertices": len(ring),
            "area2_md2": abs(int((x * y2 - x2 * y).sum())),
            "perim_l1_md": int((np.abs(x2 - x) + np.abs(y2 - y)).sum()),
            "minx_md": int(x.min()), "miny_md": int(y.min()),
            "maxx_md": int(x.max()), "maxy_md": int(y.max()),
            "n_pages": counts.get(int(p["poly_id"]), 0),
        })
    return rd.from_pandas(pd.DataFrame(rows).astype(np.int64))
