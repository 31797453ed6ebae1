"""Deterministic synthesis of the Common-Crawl-style pages table and the
polygon layer, plus the shared SQL fragments that let DuckDB reproduce
every derivation bit-for-bit.

The BASELINE input_hint asks for a Parquet table
``(url:string, warc_ts:timestamp, html:binary, text:string, lang:string)``.
No such table ships with the test data, so we derive one *deterministically*
from ``documents.parquet`` (``doc_id,text,lang,source``): the url embeds the
doc_id, the html wraps the text, and the timestamp is an integer offset of
the doc_id.  Because every derivation is pure integer arithmetic (or float
expressions evaluated in the exact same IEEE-754 order on both sides), the
DuckDB oracle can rebuild the identical table with a CTE, which is what the
driver's value-hash comparison requires.

Geocoding is intentionally *skewed*: ~40% of pages land in one hot cluster
(cluster 0), mirroring dense web regions; this is what the salting /
hot-cell handling in :mod:`geo_inference_ray.shuffle` is exercised against
(north_rule: "skewed hot cells ... salted and range-repartitioned").

Reference parity: the reference geocodes nothing (it reads rasters), but
its vector side carries (geometry, value) polygon layers
(`/root/reference/geo_inference/utils/polygon.py:65-66`).  Our POLYGONS
constant plays that role for the broadcast spatial join.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# ---------------------------------------------------------------------------
# Constants (all public-domain mixing constants: Knuth / FNV / xxHash primes)
# ---------------------------------------------------------------------------

URL_PREFIX = "https://example.org/"
EPOCH_2024 = 1704067200  # 2024-01-01T00:00:00Z in unix seconds

H1_MULT, H1_ADD, H1_MOD = 2654435761, 40503, 1000000007
H2_MULT, H2_ADD = 2246822519, 1013904223
H3_MULT, H3_ADD = 3266489917, 374761393
JITTER_MOD = 2000001  # jitter in (-0.5, 0.5] degrees

N_TAIL_CLUSTERS = 96  # clusters 4..99
CLUSTER_CUTS = (400, 650, 800, 900)  # per-mille cumulative: 40/25/15/10/10%

HEX7_SIZE = 0.25        # degrees; H3-res-7 analog (documented divergence)
HEX9_SIZE = 0.25 / 7.0  # aperture-7 step below, H3-res-9 analog
HEX_OFF = 32768         # axial-coordinate bias for int64 cell-id packing


# ---------------------------------------------------------------------------
# Pages synthesis (Ray / Arrow side)
# ---------------------------------------------------------------------------

def synth_pages_batch(batch: pa.Table) -> pa.Table:
    """documents batch -> pages batch (url, warc_ts, html, text, lang, doc_id).

    Vectorized Arrow kernels only; zero Python per-row work.  ``doc_id`` is
    kept as a provenance column (it is re-derivable from ``url``; the
    geocoder actor does exactly that to honour the "url/text-derived"
    contract).
    """
    doc_id = batch["doc_id"]
    text = batch["text"]
    sid = pc.cast(doc_id, pa.string())
    url = pc.binary_join_element_wise(
        pa.scalar(URL_PREFIX), batch["source"], pa.scalar("/"), sid, pa.scalar("")
    )
    html_str = pc.binary_join_element_wise(
        pa.scalar("<html><head><title>doc "), sid,
        pa.scalar("</title></head><body><p>"), text,
        pa.scalar("</p></body></html>"), pa.scalar(""),
    )
    html = pc.cast(html_str, pa.binary())
    ts_us = pc.multiply(pc.add(doc_id, pa.scalar(EPOCH_2024, pa.int64())),
                        pa.scalar(1_000_000, pa.int64()))
    warc_ts = pc.cast(ts_us, pa.timestamp("us"))
    return pa.table({
        "url": url, "warc_ts": warc_ts, "html": html,
        "text": text, "lang": batch["lang"], "doc_id": doc_id,
    })


def pages_dataset(sf_dir: str, include_html: bool = True):
    """Read documents.parquet and synthesize the pages Dataset.

    Column-pruned at the read; the wide ``html`` column is only produced
    when a downstream stage actually consumes it (SURVEY §7.7: never carry
    the binary column through a shuffle).

    The read is planned from the parquet footer
    (:class:`sources.ParquetRowGroups`): building the Dataset starts no
    Ray task, and the page maps that follow run in the read's own task
    when they take whole blocks (``batch_size=None``).

    Block rule: the read asks for one block per session CPU
    (:func:`pools.cluster_cpus`).  Ray's default count (a floor of 200
    cut by the 1 MB minimum block size, raised to twice the CPUs) is
    sized for big clusters and split one 20 MB table into 18 blocks on
    one CPU.  Downstream map and write tasks take whole blocks, so
    fewer blocks means fewer tasks and fewer written files.  A file
    with fewer row groups than CPUs is read one row group per task and
    Ray splits those blocks after the read, which keeps the read out of
    the maps' tasks.  Ray still splits any block over
    ``target_max_block_size``.  Without a Ray session Ray's default
    applies.  The gain was measured on the
    flagship chain at 1 CPU only; its effect on the other consumers of
    this read and at more than one CPU is not measured.
    """
    import ray.data as rd

    from .pools import cluster_cpus
    from .sources import ParquetRowGroups

    cols = ["doc_id", "text", "lang", "source"]
    ds = rd.read_datasource(
        ParquetRowGroups(f"{sf_dir}/documents.parquet", cols),
        override_num_blocks=cluster_cpus() or None)
    ds = ds.map_batches(synth_pages_batch, batch_format="pyarrow",
                        zero_copy_batch=True)
    if not include_html:
        ds = ds.select_columns(["url", "warc_ts", "text", "lang", "doc_id"])
    return ds


# ---------------------------------------------------------------------------
# Deterministic geocode (numpy side) — mirrored by SQL_GEO below
# ---------------------------------------------------------------------------

def geocode_ids(doc_id: np.ndarray):
    """doc_id int64 -> (lat f8, lon f8, cluster i64).

    Pure integer hashing into a skewed cluster mixture, then an exact
    float jitter.  Every float op appears in the same order as in
    ``SQL_GEO`` so results are bit-identical to the DuckDB oracle.

    The id is reduced mod the modulus BEFORE the multiply — identical
    values ((d mod m) * c mod m == d * c mod m), but the intermediate
    product stays < 2^63 for every non-negative int64 id, so the hash is
    well-defined at 10^12-doc scale and the SQL mirror never overflows
    DuckDB's checked BIGINT.
    """
    d = doc_id.astype(np.int64)
    h1 = ((d % H1_MOD) * H1_MULT + H1_ADD) % H1_MOD
    sel = h1 % 1000
    cluster = np.where(
        sel < CLUSTER_CUTS[0], 0,
        np.where(sel < CLUSTER_CUTS[1], 1,
                 np.where(sel < CLUSTER_CUTS[2], 2,
                          np.where(sel < CLUSTER_CUTS[3], 3,
                                   4 + h1 % N_TAIL_CLUSTERS)))).astype(np.int64)
    center_lat = ((cluster * 7919) % 140 - 70).astype(np.float64) + 0.5
    center_lon = ((cluster * 104729) % 340 - 170).astype(np.float64) + 0.5
    h2 = ((d % JITTER_MOD) * H2_MULT + H2_ADD) % JITTER_MOD
    h3 = ((d % JITTER_MOD) * H3_MULT + H3_ADD) % JITTER_MOD
    lat = center_lat + (h2 - 1000000) / 2000000.0
    lon = center_lon + (h3 - 1000000) / 2000000.0
    return lat, lon, cluster


def cluster_center(cluster: int) -> tuple[float, float]:
    """(lat, lon) center of a cluster — used to place the polygon layer."""
    return (((cluster * 7919) % 140 - 70) + 0.5,
            ((cluster * 104729) % 340 - 170) + 0.5)


# ---------------------------------------------------------------------------
# Hex cells (H3-res-7/9 analog; axial coords + cube rounding)
# numpy mirror of SQL_HEX — identical expression order.
# ---------------------------------------------------------------------------

def hex_cell(lat: np.ndarray, lon: np.ndarray, size: float) -> np.ndarray:
    """Pointy-top axial hex cell id at the given cell size (degrees).

    id = (q + HEX_OFF) * 65536 + (r + HEX_OFF), int64.
    Cube rounding per the standard public hex-grid algorithm (Red Blob
    Games formulation).  Mirrors SQL_HEX term-for-term.
    """
    qf = (math.sqrt(3.0) / 3.0 * lon - lat / 3.0) / size
    rf = (2.0 / 3.0 * lat) / size
    yf = -qf - rf
    rx = np.round(qf)
    ry = np.round(yf)
    rz = np.round(rf)
    dx = np.abs(rx - qf)
    dy = np.abs(ry - yf)
    dz = np.abs(rz - rf)
    fix_q = (dx > dy) & (dx > dz)
    q = np.where(fix_q, -ry - rz, rx)
    r = np.where(~fix_q & ~(dy > dz), -rx - ry, rz)
    return ((q + HEX_OFF) * 65536 + (r + HEX_OFF)).astype(np.int64)


def hex_cell_center(cell: np.ndarray, size: float):
    """Inverse of :func:`hex_cell`: cell id -> (lat, lon) of cell center."""
    cell = np.asarray(cell, dtype=np.int64)
    q = (cell // 65536 - HEX_OFF).astype(np.float64)
    r = (cell % 65536 - HEX_OFF).astype(np.float64)
    lat = r * (3.0 / 2.0) * size
    lon = (math.sqrt(3.0) * (q + r / 2.0)) * size
    return lat, lon


# ---------------------------------------------------------------------------
# Polygon layer (broadcast small side of the spatial join)
# ---------------------------------------------------------------------------

def _regular_ring(clat: float, clon: float, radius: float, n: int,
                  phase: float) -> list[tuple[int, int]]:
    """Vertex ring in integer millidegrees (exact on both sides)."""
    out = []
    for k in range(n):
        th = phase + 2.0 * math.pi * k / n
        x = int(round((clon + radius * math.cos(th)) * 1000))
        y = int(round((clat + radius * math.sin(th)) * 1000))
        out.append((x, y))
    return out


def _star_ring(clat: float, clon: float, r_out: float, r_in: float,
               n: int, phase: float) -> list[tuple[int, int]]:
    """Concave star polygon (tests non-convex PIP)."""
    out = []
    for k in range(2 * n):
        th = phase + math.pi * k / n
        r = r_out if k % 2 == 0 else r_in
        x = int(round((clon + r * math.cos(th)) * 1000))
        y = int(round((clat + r * math.sin(th)) * 1000))
        out.append((x, y))
    return out


def _build_polygons():
    polys = []
    shapes = [6, 5, 4, 8, 7, 6, 5, 4]
    for c in range(8):
        clat, clon = cluster_center(c)
        if c == 1:
            ring = _star_ring(clat, clon, 0.45, 0.2, 5, 0.3)
        else:
            ring = _regular_ring(clat, clon, 0.4, shapes[c], 0.1 + 0.2 * c)
        polys.append({"poly_id": c, "class_id": 1 + c % 4, "ring_md": ring})
    # a large polygon straddling cluster 2's box edge (partial coverage)
    clat2, clon2 = cluster_center(2)
    polys.append({"poly_id": 8, "class_id": 2,
                  "ring_md": _regular_ring(clat2 + 0.35, clon2 + 0.35, 0.5, 6, 0.05)})
    # two polygons far from any cluster center (zero hits expected)
    polys.append({"poly_id": 9, "class_id": 3,
                  "ring_md": [(-175000, 85000), (-174000, 85000),
                              (-174000, 86000), (-175000, 86000)]})
    polys.append({"poly_id": 10, "class_id": 4,
                  "ring_md": _regular_ring(-80.0, 120.0, 0.8, 6, 0.0)})
    # degenerate sliver crossing cluster 3's box (FIXTURES.md F2: the
    # buffer(0)/area-floor path — a near-zero-area polygon the PIP
    # kernel must handle without blowing up)
    clat3, clon3 = cluster_center(3)
    x0, y0 = int((clon3 - 0.4) * 1000), int((clat3 - 0.4) * 1000)
    x1, y1 = int((clon3 + 0.4) * 1000), int((clat3 + 0.4) * 1000)
    polys.append({"poly_id": 11, "class_id": 1,
                  "ring_md": [(x0, y0), (x1, y1), (x1 - 2, y1 - 4)]})
    return polys


POLYGONS = _build_polygons()


def polygon_arrays():
    """POLYGONS -> dict of numpy edge arrays for the vectorized PIP kernel.

    Returns per-polygon lists of (x1,y1,x2,y2) float64 edge arrays in
    degrees, plus bbox arrays for the STRtree.
    """
    out = []
    for p in POLYGONS:
        ring = np.asarray(p["ring_md"], dtype=np.float64) / 1000.0
        x1 = ring[:, 0]
        y1 = ring[:, 1]
        x2 = np.roll(ring[:, 0], -1)
        y2 = np.roll(ring[:, 1], -1)
        out.append({
            "poly_id": p["poly_id"], "class_id": p["class_id"],
            "x1": x1, "y1": y1, "x2": x2, "y2": y2,
            "bbox": (ring[:, 0].min(), ring[:, 1].min(),
                     ring[:, 0].max(), ring[:, 1].max()),
        })
    return out


# ---------------------------------------------------------------------------
# SQL fragments (DuckDB oracle mirrors)
# ---------------------------------------------------------------------------

SQL_PAGES = f"""
pages AS (
  SELECT
    '{URL_PREFIX}' || source || '/' || CAST(doc_id AS VARCHAR) AS url,
    TIMESTAMP '2024-01-01 00:00:00' + INTERVAL (doc_id) SECOND AS warc_ts,
    encode('<html><head><title>doc ' || CAST(doc_id AS VARCHAR)
           || '</title></head><body><p>' || text || '</p></body></html>') AS html,
    text, lang, doc_id
  FROM documents
)"""

SQL_GEO = f"""
geo0 AS (
  SELECT *, (doc_id % {H1_MOD} * {H1_MULT} + {H1_ADD}) % {H1_MOD} AS h1,
         (doc_id % {JITTER_MOD} * {H2_MULT} + {H2_ADD}) % {JITTER_MOD} AS h2,
         (doc_id % {JITTER_MOD} * {H3_MULT} + {H3_ADD}) % {JITTER_MOD} AS h3
  FROM pages
),
geo1 AS (
  SELECT *, CASE WHEN h1 % 1000 < {CLUSTER_CUTS[0]} THEN 0
                 WHEN h1 % 1000 < {CLUSTER_CUTS[1]} THEN 1
                 WHEN h1 % 1000 < {CLUSTER_CUTS[2]} THEN 2
                 WHEN h1 % 1000 < {CLUSTER_CUTS[3]} THEN 3
                 ELSE 4 + h1 % {N_TAIL_CLUSTERS} END AS cluster
  FROM geo0
),
geo AS (
  SELECT url, warc_ts, text, lang, doc_id, cluster,
         CAST((cluster * 7919) % 140 - 70 AS DOUBLE) + 0.5
           + (h2 - 1000000) / 2000000.0 AS lat,
         CAST((cluster * 104729) % 340 - 170 AS DOUBLE) + 0.5
           + (h3 - 1000000) / 2000000.0 AS lon
  FROM geo1
)"""


def sql_hex(suffix: str, size_expr: str) -> str:
    """CTE chain computing hex{suffix} from (lat, lon) in relation ``geo``
    (or the previous hex CTE).  Mirrors :func:`hex_cell` exactly."""
    s = suffix
    return f"""
hexf{s} AS (
  SELECT *, (sqrt(3.0) / 3.0 * lon - lat / 3.0) / {size_expr} AS qf{s},
         (2.0 / 3.0 * lat) / {size_expr} AS rf{s}
  FROM __PREV__
),
hexr{s} AS (
  SELECT *, round(qf{s}) AS rx{s}, round(-qf{s} - rf{s}) AS ry{s},
         round(rf{s}) AS rz{s}
  FROM hexf{s}
),
hex{s} AS (
  SELECT * EXCLUDE (qf{s}, rf{s}, rx{s}, ry{s}, rz{s}),
    CAST((CASE WHEN abs(rx{s} - qf{s}) > abs(ry{s} - (-qf{s} - rf{s}))
                AND abs(rx{s} - qf{s}) > abs(rz{s} - rf{s})
               THEN -ry{s} - rz{s} ELSE rx{s} END + {HEX_OFF}) * 65536
         + (CASE WHEN NOT (abs(rx{s} - qf{s}) > abs(ry{s} - (-qf{s} - rf{s}))
                           AND abs(rx{s} - qf{s}) > abs(rz{s} - rf{s}))
                  AND NOT (abs(ry{s} - (-qf{s} - rf{s})) > abs(rz{s} - rf{s}))
                 THEN -rx{s} - ry{s} ELSE rz{s} END + {HEX_OFF})
         AS BIGINT) AS hex{s}
  FROM hexr{s}
)"""


def sql_hex_chain() -> str:
    """geo -> hex7 -> hex9 CTE chain (relation ``hex9`` has both cells)."""
    a = sql_hex("7", repr(HEX7_SIZE)).replace("__PREV__", "geo")
    b = sql_hex("9", f"({HEX7_SIZE!r} / 7.0)").replace("__PREV__", "hex7")
    return a + "," + b


def sql_polygon_edges() -> str:
    """VALUES CTEs for the polygon layer: ``polys`` and ``edges``."""
    poly_rows = ",\n    ".join(
        f"({p['poly_id']}, {p['class_id']})" for p in POLYGONS)
    edge_rows = []
    for p in POLYGONS:
        ring = p["ring_md"]
        n = len(ring)
        for i in range(n):
            x1, y1 = ring[i]
            x2, y2 = ring[(i + 1) % n]
            edge_rows.append(
                f"({p['poly_id']}, {x1} / 1000.0, {y1} / 1000.0,"
                f" {x2} / 1000.0, {y2} / 1000.0)")
    edges = ",\n    ".join(edge_rows)
    # DuckDB VALUES lists type small ints as INT32; cast to BIGINT so the
    # oracle dtypes match the engine's int64 columns exactly.
    return f"""
polys AS (
  SELECT CAST(poly_id AS BIGINT) AS poly_id,
         CAST(class_id AS BIGINT) AS class_id
  FROM (VALUES
    {poly_rows}
  ) v(poly_id, class_id)
),
edges(poly_id, ex1, ey1, ex2, ey2) AS (VALUES
    {edges}
)"""


def sql_polygon_edges_md() -> str:
    """Integer (milli-degree) edge VALUES CTE ``edges_md`` — the exact
    int64 coordinates of ring_md, for oracles that do integer-exact
    geometry (shoelace area, L1 perimeter) instead of the float /1000
    coordinates of ``edges``."""
    edge_rows = []
    for p in POLYGONS:
        ring = p["ring_md"]
        n = len(ring)
        for i in range(n):
            x1, y1 = ring[i]
            x2, y2 = ring[(i + 1) % n]
            edge_rows.append(f"({p['poly_id']}, {x1}, {y1}, {x2}, {y2})")
    edges = ",\n    ".join(edge_rows)
    return f"""
edges_md AS (
  SELECT CAST(poly_id AS BIGINT) AS poly_id,
         CAST(x1 AS BIGINT) AS x1, CAST(y1 AS BIGINT) AS y1,
         CAST(x2 AS BIGINT) AS x2, CAST(y2 AS BIGINT) AS y2
  FROM (VALUES
    {edges}
  ) v(poly_id, x1, y1, x2, y2)
)"""


SQL_PIP_PAIRS = """
pip AS (
  SELECT g.url, g.doc_id, g.lat, g.lon, p.poly_id, p.class_id
  FROM geo g, polys p
  WHERE (SELECT count(*) FROM edges e
         WHERE e.poly_id = p.poly_id
           AND ((e.ey1 > g.lat) != (e.ey2 > g.lat))
           AND g.lon < (e.ex2 - e.ex1) * (g.lat - e.ey1) / (e.ey2 - e.ey1) + e.ex1
        ) % 2 = 1
)"""
