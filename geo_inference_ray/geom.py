"""Pure-numpy computational geometry kernels.

From-scratch implementations (no shapely/geopandas in this environment;
the north rule forbids a port anyway) of the geometry the reference gets
from shapely/rtree:

* STRtree         — bulk-loaded Sort-Tile-Recursive bbox tree, the analog of
                    ``gdf.sindex`` in the reference's spatial semi-join
                    (/root/reference/geo_inference/utils/geo_transforms.py:233).
* point_in_polygon — ray-casting crossing test.  The comparison expression is
                    written in the *exact* order used by the DuckDB oracle SQL
                    (synth.SQL_PIP_PAIRS) so both sides make bit-identical
                    decisions near edges.  ``polygon_hits`` runs it over
                    a layer's STRtree candidates.
* shoelace_area   — polygon area (reference uses shapely ``.area``,
                    polygon.py:61); ``ring_areas`` over flat ring arrays.
* clip_to_rect    — Sutherland–Hodgman clip vs an axis-aligned rect
                    (reference uses shapely ``intersection`` for the YOLO
                    min_overlap filter, polygon.py:130-135).
* simplify_dp     — Douglas–Peucker (reference: ``geometry.simplify``,
                    polygon.py:67-68).
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# STR packed bbox tree
# ---------------------------------------------------------------------------

class STRtree:
    """Sort-Tile-Recursive packed R-tree over item bboxes.

    Bulk-loaded once (driver side), broadcast via ``ray.put``; queried with
    vectorized numpy per batch inside ``map_batches``.  For the polygon
    layer the fanout is small, but the structure is the 100 TB scale path:
    query cost is O(log n + hits) per probe and the tree is immutable /
    zero-copy shareable.
    """

    def __init__(self, boxes: np.ndarray, node_capacity: int = 16):
        # boxes: (n, 4) float64 [minx, miny, maxx, maxy]
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        self.boxes = boxes
        n = len(boxes)
        if n == 0:
            self.levels = []
            return
        cx = (boxes[:, 0] + boxes[:, 2]) * 0.5
        cy = (boxes[:, 1] + boxes[:, 3]) * 0.5
        # STR packing: sort by x, slice into vertical strips, sort each by y
        order = np.argsort(cx, kind="stable")
        n_leaves = int(np.ceil(n / node_capacity))
        n_strips = int(np.ceil(np.sqrt(n_leaves)))
        strip_sz = int(np.ceil(n / n_strips))
        idx = np.empty(n, dtype=np.int64)
        pos = 0
        for s in range(0, n, strip_sz):
            strip = order[s:s + strip_sz]
            strip = strip[np.argsort(cy[strip], kind="stable")]
            idx[pos:pos + len(strip)] = strip
            pos += len(strip)
        self.item_order = idx  # leaf-level item permutation
        # build levels bottom-up: each node = bbox union of <=capacity children
        levels = []
        cur = boxes[idx]
        while len(cur) > 1:
            m = int(np.ceil(len(cur) / node_capacity))
            nb = np.empty((m, 4))
            for i in range(m):
                ch = cur[i * node_capacity:(i + 1) * node_capacity]
                nb[i] = (ch[:, 0].min(), ch[:, 1].min(),
                         ch[:, 2].max(), ch[:, 3].max())
            levels.append(cur)
            cur = nb
        levels.append(cur)
        self.levels = levels[::-1]  # root first
        self.node_capacity = node_capacity

    def query_point(self, x: float, y: float) -> np.ndarray:
        """Item indices whose bbox contains (x, y)."""
        return self.query_box(x, y, x, y)

    def query_box(self, minx, miny, maxx, maxy) -> np.ndarray:
        """Item indices whose bbox intersects the query box (original ids)."""
        if not self.levels:
            return np.empty(0, dtype=np.int64)
        cand = np.array([0], dtype=np.int64)
        for li in range(len(self.levels) - 1):
            nxt = []
            child_level = self.levels[li + 1]
            for c in cand:
                lo = c * self.node_capacity
                hi = min(lo + self.node_capacity, len(child_level))
                ch = child_level[lo:hi]
                hit = ((ch[:, 0] <= maxx) & (ch[:, 2] >= minx)
                       & (ch[:, 1] <= maxy) & (ch[:, 3] >= miny))
                nxt.extend(lo + np.nonzero(hit)[0])
            if not nxt:
                return np.empty(0, dtype=np.int64)
            cand = np.asarray(nxt, dtype=np.int64)
        return self.item_order[cand]

    LINEAR_LAYER_MAX = 64

    def query_points_bulk(self, xs: np.ndarray, ys: np.ndarray):
        """Vectorized candidate generation: for each item, which probe points
        fall in its bbox.  Returns list of (item_id, point_index_array),
        items ascending, point indices ascending.

        Small layers take a dense per-item bbox mask (O(items x points),
        cheapest when the broadcast layer is tiny); above
        ``LINEAR_LAYER_MAX`` items the probes descend the packed tree as
        one batched frontier per level — O(points x log items) with pure
        array ops, no per-point Python.
        """
        if len(self.boxes) <= self.LINEAR_LAYER_MAX or not self.levels:
            return self._bulk_linear(xs, ys)
        return self._bulk_descend(xs, ys)

    def _bulk_linear(self, xs: np.ndarray, ys: np.ndarray):
        out = []
        for i, b in enumerate(self.boxes):
            m = (xs >= b[0]) & (xs <= b[2]) & (ys >= b[1]) & (ys <= b[3])
            pts = np.nonzero(m)[0]
            if len(pts):
                out.append((i, pts))
        return out

    def _bulk_descend(self, xs: np.ndarray, ys: np.ndarray):
        """Batched level-wise tree descent: the frontier is (point, node)
        pair arrays; each level expands nodes to their child slices with
        repeat/offset arithmetic and keeps pairs whose child bbox
        contains the point."""
        cap = self.node_capacity
        pts = np.arange(len(xs), dtype=np.int64)
        nodes = np.zeros(len(xs), dtype=np.int64)
        for li in range(len(self.levels) - 1):
            child = self.levels[li + 1]
            lo = nodes * cap
            counts = np.minimum(cap, len(child) - lo)
            cum = np.concatenate([[0], np.cumsum(counts)])
            pos = np.arange(cum[-1]) - np.repeat(cum[:-1], counts)
            cidx = np.repeat(lo, counts) + pos
            rpts = np.repeat(pts, counts)
            b = child[cidx]
            px, py = xs[rpts], ys[rpts]
            keep = ((px >= b[:, 0]) & (px <= b[:, 2])
                    & (py >= b[:, 1]) & (py <= b[:, 3]))
            pts, nodes = rpts[keep], cidx[keep]
            if not len(pts):
                return []
        items = self.item_order[nodes]
        order = np.argsort(items, kind="stable")
        items_s, pts_s = items[order], pts[order]
        starts = np.flatnonzero(
            np.concatenate([[True], items_s[1:] != items_s[:-1]]))
        ends = np.concatenate([starts[1:], [len(items_s)]])
        return [(int(items_s[a]), pts_s[a:b]) for a, b in zip(starts, ends)]


# ---------------------------------------------------------------------------
# Ray-casting point-in-polygon
# ---------------------------------------------------------------------------

def point_in_polygon(px: np.ndarray, py: np.ndarray,
                     x1: np.ndarray, y1: np.ndarray,
                     x2: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """Vectorized crossing-number test: points (px,py) vs one polygon given
    as edge arrays (x1,y1)->(x2,y2).

    The crossing predicate matches synth.SQL_PIP_PAIRS term-for-term:
        ((y1 > py) != (y2 > py)) AND (px < (x2-x1)*(py-y1)/(y2-y1) + x1)
    so DuckDB and numpy agree bitwise even for points near edges.
    Horizontal edges contribute nothing (first clause false); their zero
    denominator is replaced by 1.0 BEFORE the divide (a straddling edge
    always has y1 != y2, so the substitution only touches lanes the
    ``straddle &`` mask drops — xint is bit-identical where it matters).
    """
    px = px[:, None]
    py = py[:, None]
    straddle = (y1[None, :] > py) != (y2[None, :] > py)
    denom = y2 - y1
    denom = np.where(denom == 0.0, 1.0, denom)
    # over=: a near-horizontal edge (tiny nonzero denom) can overflow to
    # inf in lanes where |py-y1| >> |denom| — those lanes are exactly the
    # non-straddling ones, masked below.
    with np.errstate(over="ignore"):
        xint = (x2 - x1)[None, :] * (py - y1[None, :]) / denom[None, :] \
            + x1[None, :]
        cross = straddle & (px < xint)
    return (cross.sum(axis=1) % 2).astype(bool)


def polygon_hits(tree: STRtree, polys: list[dict], x: np.ndarray,
                 y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Point-in-polygon probe of points (x, y) against a polygon layer
    (``polys[i]`` carries edge arrays x1, y1, x2, y2; ``tree`` holds
    their bboxes): bbox candidates from ``tree``, then the exact
    ray-cast.  Returns (point index, polygon index) pairs, grouped by
    polygon in ascending index, points ascending within a polygon."""
    pts_out, items = [], []
    for item, pts in tree.query_points_bulk(x, y):
        p = polys[item]
        hit = pts[point_in_polygon(x[pts], y[pts],
                                   p["x1"], p["y1"], p["x2"], p["y2"])]
        if len(hit):
            pts_out.append(hit)
            items.append(np.full(len(hit), item, dtype=np.int64))
    if not pts_out:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(pts_out), np.concatenate(items)


# ---------------------------------------------------------------------------
# Areas / clipping / simplification
# ---------------------------------------------------------------------------

def shoelace_area(xs: np.ndarray, ys: np.ndarray) -> float:
    """Absolute polygon area of one ring (shoelace formula)."""
    x2 = np.roll(xs, -1)
    y2 = np.roll(ys, -1)
    return float(abs(np.sum(xs * y2 - x2 * ys)) * 0.5)


def split_rings(flat: np.ndarray, off: np.ndarray) -> list[np.ndarray]:
    """Per-ring views of a flat vertex array with ring offsets ``off``
    (ring ``r`` is ``flat[off[r]:off[r+1]]``)."""
    bounds = np.asarray(off).tolist()
    return [flat[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def ring_areas(xs: np.ndarray, ys: np.ndarray,
               off: np.ndarray) -> np.ndarray:
    """:func:`shoelace_area` of every ring of flat vertex arrays with
    ring offsets ``off``, bit-identical to calling it per ring.  The
    shoelace terms are the same products; when they are integers whose
    absolute sum stays below 2**52 every partial sum is exact, so one
    segment sum gives ``np.sum``'s result in any order.  Other terms
    fall back to ``np.sum`` per ring."""
    off = np.asarray(off)
    n_v = np.diff(off)
    full = n_v > 0
    if not full.any():
        return np.zeros(len(n_v))
    nxt = np.arange(len(xs)) + 1
    nxt[off[1:][full] - 1] = off[:-1][full]
    terms = xs * ys[nxt] - xs[nxt] * ys
    if np.abs(terms).sum() < 2.0 ** 52 \
            and np.array_equal(terms, np.trunc(terms)):
        out = np.zeros(len(n_v))
        out[full] = np.abs(np.add.reduceat(terms, off[:-1][full])) * 0.5
        return out
    return np.array([shoelace_area(x, y) for x, y in
                     zip(split_rings(xs, off), split_rings(ys, off))])


def clip_to_rect(xs: np.ndarray, ys: np.ndarray,
                 minx: float, miny: float, maxx: float, maxy: float):
    """Sutherland–Hodgman clip of one ring against an axis-aligned rect.

    Returns (xs, ys) of the clipped ring (possibly empty).
    """
    def clip_edge(px, py, inside, interp):
        if len(px) == 0:
            return px, py
        out_x, out_y = [], []
        n = len(px)
        for i in range(n):
            j = (i + 1) % n
            ci, cj = inside(px[i], py[i]), inside(px[j], py[j])
            if ci:
                out_x.append(px[i]); out_y.append(py[i])
                if not cj:
                    ix, iy = interp(px[i], py[i], px[j], py[j])
                    out_x.append(ix); out_y.append(iy)
            elif cj:
                ix, iy = interp(px[i], py[i], px[j], py[j])
                out_x.append(ix); out_y.append(iy)
        return np.asarray(out_x), np.asarray(out_y)

    def interp_x(bound):
        def f(ax, ay, bx, by):
            t = (bound - ax) / (bx - ax)
            return bound, ay + t * (by - ay)
        return f

    def interp_y(bound):
        def f(ax, ay, bx, by):
            t = (bound - ay) / (by - ay)
            return ax + t * (bx - ax), bound
        return f

    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    xs, ys = clip_edge(xs, ys, lambda x, y: x >= minx, interp_x(minx))
    xs, ys = clip_edge(xs, ys, lambda x, y: x <= maxx, interp_x(maxx))
    xs, ys = clip_edge(xs, ys, lambda x, y: y >= miny, interp_y(miny))
    xs, ys = clip_edge(xs, ys, lambda x, y: y <= maxy, interp_y(maxy))
    return xs, ys


def simplify_dp(xs: np.ndarray, ys: np.ndarray, tol: float):
    """Douglas–Peucker simplification of an open polyline / closed ring."""
    pts = np.column_stack([xs, ys])
    n = len(pts)
    if n <= 2:
        return xs, ys
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, n - 1)]
    while stack:
        a, b = stack.pop()
        if b - a < 2:
            continue
        seg = pts[b] - pts[a]
        L = np.hypot(*seg)
        mid = pts[a + 1:b]
        if L == 0:
            d = np.hypot(mid[:, 0] - pts[a, 0], mid[:, 1] - pts[a, 1])
        else:
            d = np.abs(seg[0] * (pts[a, 1] - mid[:, 1])
                       - (pts[a, 0] - mid[:, 0]) * seg[1]) / L
        im = int(np.argmax(d))
        if d[im] > tol:
            k = a + 1 + im
            keep[k] = True
            stack.append((a, k))
            stack.append((k, b))
    return xs[keep], ys[keep]


# ---------------------------------------------------------------------------
# Affine transforms (reference geo_transforms.convert_poly_coords analog,
# /root/reference/geo_inference/utils/geo_transforms.py:32-89)
# ---------------------------------------------------------------------------

def affine_apply(a, b, c, d, e, f, xs, ys):
    """6-term affine (rasterio order a,b,c,d,e,f):
    x' = a*x + b*y + c ; y' = d*x + e*y + f  (vectorized)."""
    return a * xs + b * ys + c, d * xs + e * ys + f


def affine_invert(a, b, c, d, e, f):
    """Inverse of a 6-term affine."""
    det = a * e - b * d
    ia, ib = e / det, -b / det
    id_, ie = -d / det, a / det
    ic = -(ia * c + ib * f)
    if_ = -(id_ * c + ie * f)
    return ia, ib, ic, id_, ie, if_
