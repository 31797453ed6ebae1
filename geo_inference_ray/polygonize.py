"""Mask -> vector polygonization with cross-tile stitching.

Reference behavior: ``rasterio.features.shapes(mask, mask=mask>0)``
groups contiguous (4-connected) equal-valued pixels into polygons with
value>0, then buffer(0) + area filter
(/root/reference/geo_inference/utils/polygon.py:20-71).  The reference
polygonizes the whole raster in one process; at 100 TB the mask is
distributed, so components spanning tile borders must be stitched
(SURVEY §7.7 "hard part").

Distributed design:
1. per mask tile: local 4-connected components of equal class (>0 and
   not nodata); emit component pixel runs + the tile's 4 border strips
   (class + local label per border pixel);
2. border strips of facing tile edges are joined (groupby on the shared
   edge key) -> equivalence pairs ((tile,label) ~ (tile',label'));
3. union-find over the equivalence pairs (driver-side: the pair count is
   bounded by mask-grid perimeter pixels, not input rows) -> global
   component ids, broadcast;
4. groupby(global id) -> assemble the component's pixels, trace boundary
   rings (outer ring + holes, pixel-edge following with interior kept on
   the left), convert to geo coords via the grid affine.

Driver path (:func:`stitch_polygons`, coarse grids): the tiles' pixels
are labeled in one pass over their raster positions, so there is no
border merge; components are numbered in the same order as the
distributed path's, which is its test oracle.

Output: one row per ring: (comp_id, class_id, ring_idx, is_hole,
n_pixels, area_px, xs, ys) with xs/ys in lon/lat degrees.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa

from .geom import split_rings
from .shuffle import collect, partitioned
from .tiling import NODATA, TILE_SCHEMA, GridConfig


# ---------------------------------------------------------------------------
# local connected components (pure numpy two-pass union-find per tile)
# ---------------------------------------------------------------------------

def label_components(mask: np.ndarray) -> np.ndarray:
    """4-connected components of equal value for value>0 and !=NODATA.
    Returns int64 labels, 0 = background; labels are dense 1..K in
    first-encounter (row-major scan) order — the same relative order as
    the per-pixel reference kernel, which downstream comp-id sorting
    relies on.  The work runs on the foreground pixels only
    (:func:`label_pixels`)."""
    h, w = mask.shape
    flat = mask.reshape(-1)
    key = np.flatnonzero((flat > 0) & (flat != NODATA))
    out = np.zeros(h * w, dtype=np.int64)
    out[key] = label_pixels(key, flat[key], w)
    return out.reshape(h, w)


def label_pixels(key: np.ndarray, vals: np.ndarray, w: int) -> np.ndarray:
    """Component labels of foreground pixels given as ascending flat
    row-major indices ``key`` (raster width ``w``) with their values:
    4-connected, equal value, dense 1..K in first-encounter order.

    Vectorized two-pass: row runs of equal value (break-flag cumsum)
    -> union-find over runs joined by vertical adjacency (deduped pair
    list, bounded by run count); memory grows with the foreground
    pixels, not the raster area."""
    n = len(key)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.int64)
    start = np.ones(n, dtype=bool)
    start[1:] = (key[1:] != key[:-1] + 1) | (key[1:] % w == 0) \
        | (vals[1:] != vals[:-1])
    run_id = np.cumsum(start)  # 1..K in scan order
    nruns = int(run_id[-1])
    # the pixel above each pixel, if it is foreground of the same value
    up = np.minimum(np.searchsorted(key, key - w), n - 1)
    adj = (key[up] == key - w) & (vals[up] == vals)
    pa = run_id[adj]
    pb = run_id[up[adj]]
    pairs = np.unique(pa * np.int64(nruns + 1) + pb)
    parent = np.arange(nruns + 1, dtype=np.int64)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p in pairs.tolist():
        x, y = divmod(p, nruns + 1)
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    roots = parent.copy()
    while True:
        nxt = roots[roots]
        if np.array_equal(nxt, roots):
            break
        roots = nxt
    # densify: min-run-id roots are order-preserving but gapped (a later
    # run merging into an earlier component leaves holes); renumber to
    # honest dense 1..K keeping the ascending (= first-encounter) order
    uniq = np.unique(roots[1:])  # component roots, ascending
    dense = np.zeros(nruns + 1, dtype=np.int64)
    dense[1:] = np.searchsorted(uniq, roots[1:]) + 1
    return dense[run_id]


def label_components_ref(mask: np.ndarray) -> np.ndarray:
    """Per-pixel reference kernel (the original implementation) — kept
    for equivalence tests and the vectorization benchmark."""
    h, w = mask.shape
    fg = (mask > 0) & (mask != NODATA)
    labels = np.zeros((h, w), dtype=np.int64)
    parent = [0]

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    nxt = 1
    for y in range(h):
        for x in range(w):
            if not fg[y, x]:
                continue
            up = labels[y - 1, x] if y and fg[y - 1, x] \
                and mask[y - 1, x] == mask[y, x] else 0
            lf = labels[y, x - 1] if x and fg[y, x - 1] \
                and mask[y, x - 1] == mask[y, x] else 0
            if up and lf:
                labels[y, x] = min(find(up), find(lf))
                union(up, lf)
            elif up or lf:
                labels[y, x] = up or lf
            else:
                labels[y, x] = nxt
                parent.append(nxt)
                nxt += 1
    # second pass: path-compress to roots, densify
    flat = labels.reshape(-1)
    roots = np.array([find(v) if v else 0 for v in flat], dtype=np.int64)
    return roots.reshape(h, w)


# ---------------------------------------------------------------------------
# boundary tracing (pixel-edge following; interior on the left)
# ---------------------------------------------------------------------------

class RingArrays(NamedTuple):
    """Boundary rings as flat arrays: ring ``r`` belongs to component
    ``comp[r]``, has the integer corner vertices ``xs[off[r]:off[r+1]]``
    / ``ys[...]`` and the signed area ``area[r]``.  Rings are ordered by
    component, then by first boundary edge in row-major pixel order."""
    comp: np.ndarray
    off: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    area: np.ndarray


def trace_rings(pixels: set[tuple[int, int]]):
    """Boundary rings of one 4-connected pixel set of (y, x) cells, as a
    list of rings, each a list of (x, y) integer corners — the list form
    of :func:`trace_rings_arrays`."""
    if not pixels:
        return []
    arr = np.array(list(pixels), dtype=np.int64)
    r = trace_rings_arrays(arr[:, 0], arr[:, 1])
    pts = list(zip(r.xs.tolist(), r.ys.tolist()))
    bounds = r.off.tolist()
    return [pts[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def trace_rings_arrays(pys: np.ndarray, pxs: np.ndarray,
                       comp: np.ndarray | None = None) -> RingArrays:
    """Boundary rings (outer ring and holes, interior on the left) of
    every component in one array pass.  ``comp`` gives each pixel's
    component id (default: all pixels form one component); pixels may
    come in any order.

    Pixels, boundary edges and junction out-edges are keyed by
    (component, y, x) in a per-component bounding-box key space, so one
    sorted key array serves every component.  The successor permutation
    over edges pairs each junction in-edge with its sharpest right
    turn; its cycles are the rings, found by pointer doubling (each
    cycle's minimum edge is its start, each edge's distance to the
    cycle's last edge its position).  Collinear vertices are dropped and
    signed areas summed over the flat vertex arrays: the areas are sums
    of products of integer corners, exact in float64 in any order."""
    pys = np.asarray(pys, dtype=np.int64)
    pxs = np.asarray(pxs, dtype=np.int64)
    comp = np.zeros(len(pys), dtype=np.int64) if comp is None \
        else np.asarray(comp, dtype=np.int64)
    if not len(pys):
        z = np.zeros(0, dtype=np.int64)
        return RingArrays(z, np.zeros(1, dtype=np.int64), z, z,
                          np.zeros(0))
    o = np.lexsort((pxs, pys, comp))  # component, then row-major
    ys, xs, cs = pys[o], pxs[o], comp[o]
    first = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
    ci = np.cumsum(np.r_[False, cs[1:] != cs[:-1]])
    # key space of a component: its bounding box grown by one cell on
    # every side, so neighbours and corners of its pixels fit
    y0 = ys[first] - 1
    x0 = np.minimum.reduceat(xs, first) - 1
    wid = np.maximum.reduceat(xs, first) - x0 + 2
    size = (ys[np.r_[first[1:], len(ys)] - 1] - y0 + 2) * wid
    base = np.cumsum(size) - size
    w = wid[ci]
    b = base[ci] - y0[ci] * w - x0[ci]  # key(y, x) = b + y * w + x
    key = b + ys * w + xs

    def member(k):
        pos = np.minimum(np.searchsorted(key, k), len(key) - 1)
        return key[pos] == k

    # directed boundary edges, interior on the LEFT of direction;
    # per-pixel side order (top, bottom, left, right)
    msk = np.stack([~member(key - w), ~member(key + w),
                    ~member(key - 1), ~member(key + 1)], 1).reshape(-1)
    SX = np.stack([xs, xs + 1, xs, xs + 1], 1).reshape(-1)[msk]
    SY = np.stack([ys, ys + 1, ys + 1, ys], 1).reshape(-1)[msk]
    EX = np.stack([xs + 1, xs, xs, xs + 1], 1).reshape(-1)[msk]
    EY = np.stack([ys, ys + 1, ys, ys + 1], 1).reshape(-1)[msk]
    epix = np.repeat(np.arange(len(ys)), 4)[msk]
    m = len(SX)
    skey = b[epix] + SY * w[epix] + SX
    ekey = b[epix] + EY * w[epix] + EX
    order = np.argsort(skey, kind="stable")
    s_sorted = skey[order]
    lo = np.searchsorted(s_sorted, ekey)
    hi = np.minimum(lo + 1, m - 1)
    # a corner has one out-edge, or two at a diagonal pinch; there the
    # sharpest right turn (smallest cross product) wins, the first
    # out-edge on a tie
    c0, c1 = order[lo], order[hi]
    dx, dy = EX - SX, EY - SY
    t0 = dx * dy[c0] - dy * dx[c0]
    t1 = dx * dy[c1] - dy * dx[c1]
    succ = np.where((s_sorted[hi] == ekey) & (hi > lo) & (t1 < t0), c1, c0)
    # the right-turn rule pairs each junction's in-edges with distinct
    # out-edges; a collision would break the permutation
    assert np.bincount(succ, minlength=m).max() == 1, \
        "junction pairing collision"
    # ring start: the cycle's minimum edge index
    idx = np.arange(m)
    lead, p = idx, succ
    while True:
        nxt = np.minimum(lead, lead[p])
        if np.array_equal(nxt, lead):
            break
        lead, p = nxt, p[p]
    # position: distance to the ring's last edge (the one whose
    # successor is the start), by pointer jumping
    last = lead[succ] == succ
    p = np.where(last, idx, succ)
    dist = (~last).astype(np.int64)
    while True:
        pp = p[p]
        if np.array_equal(pp, p):
            break
        dist = dist + dist[p]
        p = pp
    starts = np.flatnonzero(lead == idx)
    n_e = dist[starts] + 1
    e_off = np.r_[0, np.cumsum(n_e)]
    ring = np.searchsorted(starts, lead)
    seq = np.empty(m, dtype=np.int64)
    seq[e_off[ring] + dist[starts][ring] - dist] = idx
    X, Y = SX[seq], SY[seq]
    nx_, pv = idx + 1, idx - 1
    nx_[e_off[1:] - 1] = e_off[:-1]
    pv[e_off[:-1]] = e_off[1:] - 1
    keep = (X - X[pv]) * (Y[nx_] - Y) != (Y - Y[pv]) * (X[nx_] - X)
    area = np.add.reduceat(X * Y[nx_] - X[nx_] * Y, e_off[:-1]) * 0.5
    n_v = np.add.reduceat(keep.astype(np.int64), e_off[:-1])
    return RingArrays(cs[epix[starts]], np.r_[0, np.cumsum(n_v)],
                      X[keep], Y[keep], area)


def trace_rings_ref(pixels: set[tuple[int, int]]):
    """Per-edge dict-walking reference kernel (the original
    implementation) — kept for equivalence tests and the benchmark."""
    # directed boundary edges, interior on the LEFT of direction
    edges = {}  # start vertex -> list of (end vertex)
    for (y, x) in pixels:
        if (y - 1, x) not in pixels:   # top side: left-to-right? interior below
            edges.setdefault((x, y), []).append((x + 1, y))
        if (y + 1, x) not in pixels:   # bottom side: right-to-left
            edges.setdefault((x + 1, y + 1), []).append((x, y + 1))
        if (y, x - 1) not in pixels:   # left side: upwards (y decreasing? )
            edges.setdefault((x, y + 1), []).append((x, y))
        if (y, x + 1) not in pixels:   # right side: downwards
            edges.setdefault((x + 1, y), []).append((x + 1, y + 1))
    rings = []
    while edges:
        start = next(iter(edges))
        ring = [start]
        cur = start
        prev_dir = None
        while True:
            outs = edges[cur]
            if len(outs) == 1:
                nxt = outs.pop()
                del edges[cur]
            elif prev_dir is None:
                # ring starts AT a junction (two loops touching at a
                # corner): deterministic choice; either loop closes
                # consistently from here
                outs.sort()
                nxt = outs.pop(0)
                if not outs:
                    del edges[cur]
            else:
                # junction: with interior-on-left edge orientation the
                # ring must take the sharpest RIGHT turn relative to the
                # incoming direction; a left-turn preference crosses into
                # the adjacent loop at diagonal-pinch junctions and
                # produces self-touching non-simple rings
                def turn_key(cand):
                    dx, dy = cand[0] - cur[0], cand[1] - cur[1]
                    pdx, pdy = prev_dir
                    # right-turn priority: cross product ascending
                    return (pdx * dy - pdy * dx)
                outs.sort(key=turn_key)
                nxt = outs.pop(0)
                if not outs:
                    del edges[cur]
            prev_dir = (nxt[0] - cur[0], nxt[1] - cur[1])
            if nxt == ring[0]:
                break
            ring.append(nxt)
            cur = nxt
        # collapse collinear runs
        out = []
        n = len(ring)
        for i in range(n):
            a, b, c = ring[i - 1], ring[i], ring[(i + 1) % n]
            if (b[0] - a[0]) * (c[1] - b[1]) != (b[1] - a[1]) * (c[0] - b[0]):
                out.append(b)
        rings.append(out)
    return rings


def ring_signed_area(ring) -> float:
    xs = np.array([p[0] for p in ring], dtype=float)
    ys = np.array([p[1] for p in ring], dtype=float)
    x2, y2 = np.roll(xs, -1), np.roll(ys, -1)
    return float(np.sum(xs * y2 - x2 * ys) * 0.5)


# ---------------------------------------------------------------------------
# distributed stitch pipeline
# ---------------------------------------------------------------------------

def _tile_components(tiles_df: pd.DataFrame, stride: int):
    """Per-tile labeling: returns (pixel rows, border rows).

    pixel rows: (tkey, llab, class_id, py, px) absolute pixel coords;
    border rows: (edge_key, side, offset, class_id, tkey, llab).
    tkey = oy * 2**20 + ox; edge_key identifies the shared edge between
    two adjacent tiles (vertical edges keyed by (right-tile), horizontal
    by (below-tile))."""
    prows = []
    brows = []
    s = stride
    for r in tiles_df.itertuples():
        mask = np.asarray(r.mask, dtype=np.uint8).reshape(s, s)
        labs = label_components(mask)
        if not labs.any():
            continue
        tkey = r.oy * (1 << 20) + r.ox
        ys, xs = np.nonzero(labs)
        prows.append(pd.DataFrame({
            "tkey": tkey, "llab": labs[ys, xs],
            "class_id": mask[ys, xs].astype(np.int64),
            "py": r.oy * s + ys, "px": r.ox * s + xs,
        }))
        # border strips: (side 0=top,1=bottom,2=left,3=right)
        for side, (yy, xx) in enumerate([
                (np.zeros(s, int), np.arange(s)),
                (np.full(s, s - 1), np.arange(s)),
                (np.arange(s), np.zeros(s, int)),
                (np.arange(s), np.full(s, s - 1))]):
            lb = labs[yy, xx]
            nz = lb > 0
            if not nz.any():
                continue
            off = np.arange(s)[nz]
            # shared edge key: horizontal edge above row 0 belongs to
            # (oy-1/oy, ox); vertical edge left of col 0 to (oy, ox-1/ox)
            if side == 0:
                ek = (r.oy * 2 + 0) * (1 << 21) + r.ox * 2
            elif side == 1:
                ek = ((r.oy + 1) * 2 + 0) * (1 << 21) + r.ox * 2
            elif side == 2:
                ek = (r.oy * 2 + 1) * (1 << 21) + r.ox * 2
            else:
                ek = (r.oy * 2 + 1) * (1 << 21) + (r.ox + 1) * 2
            brows.append(pd.DataFrame({
                "edge_key": ek, "side": side, "offset": off,
                "class_id": mask[yy, xx][nz].astype(np.int64),
                "tkey": tkey, "llab": lb[nz],
            }))
    prows = pd.concat(prows, ignore_index=True) if prows else pd.DataFrame(
        columns=["tkey", "llab", "class_id", "py", "px"])
    brows = pd.concat(brows, ignore_index=True) if brows else pd.DataFrame(
        columns=["edge_key", "side", "offset", "class_id", "tkey", "llab"])
    return prows, brows


RING_SCHEMA = pa.schema([
    ("comp_id", pa.int64()), ("class_id", pa.int64()),
    ("ring_idx", pa.int64()), ("is_hole", pa.bool_()),
    ("n_pixels", pa.int64()), ("area_px", pa.float64()),
    ("xs", pa.list_(pa.float64())), ("ys", pa.list_(pa.float64()))])


# polygons_distributed's per-tile rows: kind 0 pixel (a, b = py, px),
# 1 border (a = edge_key * 4 + side, b = offset), 2 component registry
_LABELED_SCHEMA = pa.schema([
    ("kind", pa.int8()), ("tkey", pa.int64()), ("llab", pa.int64()),
    ("class_id", pa.int64()), ("a", pa.int64()), ("b", pa.int64())])


def _empty_rings() -> pd.DataFrame:
    """A ring table with no rows and typed columns (an untyped empty
    ``is_hole`` would make ``polys[~polys["is_hole"]]`` a column
    selection)."""
    return RING_SCHEMA.empty_table().to_pandas()


def _ring_columns(pys, pxs, comp, cls, grid: GridConfig,
                  min_area_px: float):
    """Ring rows of the components of the given pixels, traced in one
    :func:`trace_rings_arrays` call: the per-ring columns of
    RING_SCHEMA up to ``area_px``, the ring offsets and the flat lon /
    lat vertex arrays.  A component's outer ring is its ring of largest
    |signed area| (the first one on a tie), and ``area_px`` is that
    ring's |area|; components below ``min_area_px`` are dropped."""
    r = trace_rings_arrays(pys, pxs, comp)
    ucomp, first, npix = np.unique(comp, return_index=True,
                                   return_counts=True)
    rc = np.searchsorted(ucomp, r.comp)  # component index of each ring
    cstart = np.flatnonzero(np.r_[True, rc[1:] != rc[:-1]])
    aa = np.abs(r.area)
    top = np.flatnonzero(aa == np.maximum.reduceat(aa, cstart)[rc])
    outer = top[np.r_[True, rc[top][1:] != rc[top][:-1]]]
    area_px = aa[outer][rc]
    keep = area_px >= min_area_px
    is_hole = np.ones(len(rc), dtype=bool)
    is_hole[outer] = False
    n_v = np.diff(r.off)
    vkeep = np.repeat(keep, n_v)
    cols = {
        "comp_id": r.comp[keep],
        "class_id": np.asarray(cls, dtype=np.int64)[first][rc][keep],
        "ring_idx": (np.arange(len(rc)) - cstart[rc])[keep],
        "is_hole": is_hole[keep],
        "n_pixels": npix[rc][keep],
        "area_px": area_px[keep],
    }
    lon = grid.min_lon + r.xs[vkeep].astype(float) * grid.pix
    lat = grid.max_lat - r.ys[vkeep].astype(float) * grid.pix
    return cols, np.r_[0, np.cumsum(n_v[keep])], lon, lat


def stitch_polygons(tiles, grid: GridConfig,
                    min_area_px: float = 0.0) -> pd.DataFrame:
    """Driver-side polygonize of a mask-tile table (absent tiles =
    nodata), a TILE_SCHEMA ``pa.Table`` or its pandas form.  The
    foreground pixels of all tiles are labeled in one
    :func:`label_pixels` pass over their raster positions, so
    components that cross tile borders need no stitch, and the rings of
    every component are traced in one :func:`trace_rings_arrays` call
    (no per-component Python).  Memory grows with the tiles, not with
    the grid area.

    Components are numbered by their first pixel in tile-major scan
    order (tile row-major, then row-major within the tile).  That is
    the order of the minimal (tile, local label) member that
    :func:`polygons_distributed`'s per-tile labeling and border
    union-find produce, so both paths give the same ``comp_id`` and
    the same ring rows."""
    s = grid.stride
    oy = np.asarray(tiles["oy"], dtype=np.int64)
    ox = np.asarray(tiles["ox"], dtype=np.int64)
    if isinstance(tiles, pa.Table):
        # every mask list holds s*s values: the flat values reshape
        masks = tiles["mask"].combine_chunks().flatten().to_numpy()
    else:
        masks = np.array(list(tiles["mask"].to_numpy()), dtype=np.uint8)
    order = np.lexsort((ox, oy))
    oy, ox = oy[order], ox[order]
    masks = masks.reshape(-1, s * s)[order]
    # foreground pixels in tile-major scan order
    ti, pi = np.nonzero((masks > 0) & (masks != NODATA))
    if not len(ti):
        return _empty_rings()
    pys = oy[ti] * s + pi // s
    pxs = ox[ti] * s + pi % s
    cls = masks[ti, pi].astype(np.int64)
    key = pys * grid.width + pxs
    scan = np.argsort(key, kind="stable")
    labs = np.empty(len(key), dtype=np.int64)
    labs[scan] = label_pixels(key[scan], cls[scan], grid.width)
    # rank the components by their first pixel in tile-major order
    _, first = np.unique(labs, return_index=True)
    comp_of = np.empty(len(first), dtype=np.int64)
    comp_of[np.argsort(first)] = np.arange(len(first))
    comp = comp_of[labs - 1]
    cols, off, lon, lat = _ring_columns(pys, pxs, comp, cls, grid,
                                        min_area_px)
    if not len(cols["comp_id"]):
        return _empty_rings()
    return pd.DataFrame({**cols, "xs": split_rings(lon, off),
                         "ys": split_rings(lat, off)})


def polygons_from_tiles(tiles, grid: GridConfig,
                        min_area_px: float = 0.0) -> pd.DataFrame:
    """Ray entry: polygonize mask tiles on the driver
    (:func:`stitch_polygons`).  ``tiles`` is a mask-tile Dataset, which
    is collected first, or a TILE_SCHEMA ``pa.Table`` already on the
    driver (``mask_tiles``' driver route), which is used as it is.
    Mask tiles are bounded by the raster grid (not the input row
    count), so this is scale-safe for coarse grids;
    :func:`polygons_distributed` is the fine-grid path."""
    if not isinstance(tiles, pa.Table):
        tiles = collect(tiles, TILE_SCHEMA)
    return stitch_polygons(tiles, grid, min_area_px)


def polygons_distributed(tiles_ds, grid: GridConfig,
                         min_area_px: float = 0.0):
    """Fully distributed polygonize + stitch.

    1. map_batches over mask-tile blocks: per-tile component labeling;
       emits pixel rows (stay distributed) and border rows (collected —
       bounded by the mask grid's tile perimeter, not input rows);
    2. driver: border equivalence union-find -> broadcast global-id map;
    3. map_batches: relabel pixel rows with comp_id;
    4. groupby(comp_id).map_groups: assemble pixels, trace rings,
       convert to geo coords.

    Returns a Dataset of ring rows (same schema as stitch_polygons).
    Semantics identical to the driver-side path (pinned by test).
    """
    import ray

    stride = grid.stride

    # node encoding: (tkey, llab) -> tkey * mult + llab.  llab is dense
    # 1..K per tile with K <= stride^2, so mult = stride^2 + 1 keeps the
    # int64 node order identical to (tkey, llab) tuple order — comp ids
    # match the previous tuple-keyed implementation bit for bit.
    mult = stride * stride + 1

    def tile_stage(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        prows, brows = _tile_components(df, stride)
        # pack three row kinds into one table:
        # kind=0 pixel, 1 border, 2 component registry (one row per
        # distinct (tkey, llab) — lets the driver learn the component
        # universe without ever pulling pixel rows)
        p = pa.table({
            "kind": pa.array(np.zeros(len(prows), dtype=np.int8)),
            "tkey": pa.array(prows["tkey"].to_numpy(dtype=np.int64)),
            "llab": pa.array(prows["llab"].to_numpy(dtype=np.int64)),
            "class_id": pa.array(prows["class_id"].to_numpy(dtype=np.int64)),
            "a": pa.array(prows["py"].to_numpy(dtype=np.int64)),
            "b": pa.array(prows["px"].to_numpy(dtype=np.int64)),
        })
        q = pa.table({
            "kind": pa.array(np.ones(len(brows), dtype=np.int8)),
            "tkey": pa.array(brows["tkey"].to_numpy(dtype=np.int64)),
            "llab": pa.array(brows["llab"].to_numpy(dtype=np.int64)),
            "class_id": pa.array(brows["class_id"].to_numpy(dtype=np.int64)),
            "a": pa.array((brows["edge_key"].to_numpy(dtype=np.int64) * 4
                           + brows["side"].to_numpy(dtype=np.int64))),
            "b": pa.array(brows["offset"].to_numpy(dtype=np.int64)),
        })
        reg = prows[["tkey", "llab"]].drop_duplicates()
        z = np.zeros(len(reg), dtype=np.int64)
        r = pa.table({
            "kind": pa.array(np.full(len(reg), 2, dtype=np.int8)),
            "tkey": pa.array(reg["tkey"].to_numpy(dtype=np.int64)),
            "llab": pa.array(reg["llab"].to_numpy(dtype=np.int64)),
            "class_id": pa.array(z), "a": pa.array(z), "b": pa.array(z),
        })
        return pa.concat_tables([p, q, r])

    labeled = tiles_ds.map_batches(tile_stage, batch_format="pyarrow") \
                      .materialize()

    # driver combine, all vectorized (the grid-bounded small side:
    # border + registry rows only — pixel payload is dropped remotely
    # and never crosses to the driver).  A tile has at most 4 * stride
    # border rows and stride^2 registry rows, so more rows than that
    # over the grid's tiles means the tiles do not fit the grid
    def drop_pixels(bt: pa.Table) -> pa.Table:
        return bt.filter(pa.array(np.asarray(bt["kind"]) != 0))

    bound = grid.nx * grid.ny * (4 * stride + stride * stride)
    sm = collect(labeled.map_batches(drop_pixels, batch_format="pyarrow"),
                 _LABELED_SCHEMA, bound)
    if sm is None:
        raise ValueError(
            f"polygons_distributed: border and registry rows exceed "
            f"{bound} ({grid.nx}x{grid.ny} tiles of stride {stride})")
    sm = sm.to_pandas()
    reg = sm[sm["kind"] == 2]
    nodes = np.unique(reg["tkey"].to_numpy() * mult
                      + reg["llab"].to_numpy())
    parent = np.arange(len(nodes), dtype=np.int64)

    bdf = sm[sm["kind"] == 1].copy()
    if len(bdf):
        bdf["edge_key"] = bdf["a"] // 4
        bdf["side"] = bdf["a"] % 4
        bdf["offset"] = bdf["b"]
        # ONE vectorized self-merge replaces the per-edge_key groupby
        # loop (the former driver hot spot on many-component masks)
        x = bdf[bdf["side"].isin([0, 2])]
        y = bdf[bdf["side"].isin([1, 3])]
        m = x.merge(y, on=["edge_key", "offset"], suffixes=("_a", "_b"))
        m = m[m["class_id_a"] == m["class_id_b"]]
        if len(m):
            ia = np.searchsorted(nodes, m["tkey_a"].to_numpy() * mult
                                 + m["llab_a"].to_numpy())
            ib = np.searchsorted(nodes, m["tkey_b"].to_numpy() * mult
                                 + m["llab_b"].to_numpy())
            # min-label propagation to fixpoint (<= log(diameter)
            # rounds; edge pairs are grid-perimeter-bounded)
            while True:
                ra, rb = parent[ia], parent[ib]
                lo = np.minimum(ra, rb)
                np.minimum.at(parent, ia, lo)
                np.minimum.at(parent, ib, lo)
                nxt = parent[parent]
                while not np.array_equal(nxt, parent):
                    parent = nxt
                    nxt = parent[parent]
                if np.array_equal(parent[ia], parent[ib]):
                    break
    # dense global ids in ascending root order == ascending (tkey, llab)
    # order of each component's minimal member (unchanged semantics)
    uroot = np.unique(parent)
    gid = np.searchsorted(uroot, parent)
    nodes_ref = ray.put(nodes)
    gid_ref = ray.put(gid)

    def relabel(batch: pa.Table) -> pa.Table:
        keep = np.asarray(batch["kind"]) == 0
        m = batch.filter(pa.array(keep))
        node = (np.asarray(m["tkey"], dtype=np.int64) * mult
                + np.asarray(m["llab"], dtype=np.int64))
        comp = ray.get(gid_ref)[np.searchsorted(ray.get(nodes_ref), node)]
        return pa.table({
            "comp_id": pa.array(comp),
            "class_id": m["class_id"],
            "py": m["a"], "px": m["b"],
        })

    pixels = labeled.map_batches(relabel, batch_format="pyarrow")

    def trace_part(g: pa.Table) -> pa.Table:
        """Rings of every component in the hash partition, traced in one
        kernel call (a sliver-heavy fine-grid mask has millions of tiny
        components, so no per-component call)."""
        cols, off, lon, lat = _ring_columns(
            g["py"].to_numpy(), g["px"].to_numpy(), g["comp_id"].to_numpy(),
            g["class_id"].to_numpy(), grid, min_area_px)
        off = pa.array(off, pa.int32())
        return pa.table({**cols,
                         "xs": pa.ListArray.from_arrays(off, lon),
                         "ys": pa.ListArray.from_arrays(off, lat)},
                        schema=RING_SCHEMA)

    # pixel volume is bounded by the labeled table (materialized above,
    # so the count is free metadata)
    return partitioned(pixels, "comp_id", trace_part, RING_SCHEMA,
                       rows_hint=max(1, labeled.count()))
