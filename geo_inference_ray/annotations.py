"""Vector -> annotation exports: affine transforms, YOLO rows, COCO
documents — the reference's post-processing chain re-expressed over
polygon ring tables.

Reference parity (studied, not copied):
* affine transform of geometry M8/M9
  (/root/reference/geo_inference/utils/geo_transforms.py:32-136)
* geo->px conversion M11 (geo_transforms.py:138-195): spatial semi-join
  of polygons against the image bounds, then inverse affine
* area floor filter M12 (polygon.py:56-64, default min_area=40)
* YOLO bbox math M14/M15 (polygon.py:122-148): overlap fraction filter
  (default 0.66 vs the image rect), bbox -> normalized (x,y,w,h),
  space-delimited rows (class x y w h)
* COCO M16-M20 (geo_transforms.py:260-505): bbox [x,y,w,h],
  segmentation = flattened exterior ring, sequential annotation ids,
  category dedup, single-document JSON assembly
"""

from __future__ import annotations

import json

import numpy as np
import pandas as pd

from .geom import (affine_apply, affine_invert, clip_to_rect, ring_areas,
                   shoelace_area, split_rings)
from .tiling import GridConfig


def grid_affine(grid: GridConfig):
    """Pixel -> geo affine (a, b, c, d, e, f): lon = a*px + c,
    lat = e*py + f (north-up raster, rasterio ordering)."""
    return (grid.pix, 0.0, grid.min_lon, 0.0, -grid.pix, grid.max_lat)


def _px_rings(polys: pd.DataFrame, grid: GridConfig):
    """The rings of ``polys`` in pixel coordinates as flat arrays: one
    concatenation, one inverse grid affine (M11).  Returns (xs, ys,
    off), ring ``r`` being ``xs[off[r]:off[r+1]]``."""
    n_v = np.fromiter(map(len, polys["xs"]), dtype=np.int64,
                      count=len(polys))
    off = np.r_[0, np.cumsum(n_v)]
    if not off[-1]:
        return np.zeros(0), np.zeros(0), off
    x, y = affine_apply(*affine_invert(*grid_affine(grid)),
                        np.concatenate(polys["xs"].tolist()),
                        np.concatenate(polys["ys"].tolist()))
    return x, y, off


def _ring_bounds(xs: np.ndarray, ys: np.ndarray, off: np.ndarray):
    """Per-ring (minx, maxx, miny, maxy); NaN for a ring with no
    vertices."""
    full = np.diff(off) > 0
    out = np.full((4, len(full)), np.nan)
    at = off[:-1][full]
    if len(at):
        out[:, full] = [np.minimum.reduceat(xs, at),
                        np.maximum.reduceat(xs, at),
                        np.minimum.reduceat(ys, at),
                        np.maximum.reduceat(ys, at)]
    return out


def rings_to_px(polys: pd.DataFrame, grid: GridConfig) -> pd.DataFrame:
    """geo rings -> pixel rings via the inverse grid affine (M11)."""
    x, y, off = _px_rings(polys, grid)
    out = polys.copy()
    out["pxs"] = split_rings(x, off)
    out["pys"] = split_rings(y, off)
    return out


def filter_min_area(polys: pd.DataFrame, min_area: float) -> pd.DataFrame:
    """M12: drop polygons with outer-ring pixel area below min_area."""
    keep = polys["area_px"] >= min_area
    return polys[keep].reset_index(drop=True)


def simplify_rings(polys: pd.DataFrame, tolerance: float) -> pd.DataFrame:
    """M13: Douglas–Peucker simplify every ring (reference
    ``mask_to_poly_geojson(simplify=True, tolerance=...)``,
    polygon.py:67-68) — wired into the pipeline/CLI via
    ``simplify_tolerance``."""
    from .geom import simplify_dp

    out = polys.copy()
    xs_out, ys_out = [], []
    for r in polys.itertuples():
        x, y = simplify_dp(np.asarray(r.xs), np.asarray(r.ys), tolerance)
        xs_out.append(x)
        ys_out.append(y)
    out["xs"] = xs_out
    out["ys"] = ys_out
    return out


def reduce_precision(polys: pd.DataFrame, decimals: int) -> pd.DataFrame:
    """M10: round ring coordinates to n decimals (reference
    _reduce_geom_precision, geo_transforms.py:26-30)."""
    out = polys.copy()
    out["xs"] = [np.round(np.asarray(x), decimals) for x in polys["xs"]]
    out["ys"] = [np.round(np.asarray(y), decimals) for y in polys["ys"]]
    return out


def to_yolo(polys: pd.DataFrame, grid: GridConfig,
            min_overlap: float = 0.66) -> pd.DataFrame:
    """Outer rings -> YOLO rows (class_id, x, y, w, h) normalized to the
    raster dims; polygons whose clipped-area fraction inside the image
    rect is below ``min_overlap`` are dropped (M14/M15).  Zero-area
    rings are dropped.  Only rings whose bbox leaves the rect are
    clipped: a ring inside it is its own clip, fraction exactly 1."""
    outer = polys[~polys["is_hole"]]
    x, y, off = _px_rings(outer, grid)
    W, H = grid.width, grid.height
    minx, maxx, miny, maxy = _ring_bounds(x, y, off)
    area = ring_areas(x, y, off)
    inside = (minx >= 0) & (maxx <= W) & (miny >= 0) & (maxy <= H)
    keep = area != 0
    if min_overlap > 1.0:
        keep &= ~inside
    for i in np.flatnonzero(keep & ~inside).tolist():
        cx, cy = clip_to_rect(x[off[i]:off[i + 1]], y[off[i]:off[i + 1]],
                              0, 0, W, H)
        keep[i] = len(cx) > 0 \
            and not shoelace_area(cx, cy) / area[i] < min_overlap
    return pd.DataFrame({
        "class_id": outer["class_id"].to_numpy()[keep],
        "x": ((minx + maxx) / 2.0 / W)[keep],
        "y": ((miny + maxy) / 2.0 / H)[keep],
        "w": ((maxx - minx) / W)[keep],
        "h": ((maxy - miny) / H)[keep],
    })


def yolo_lines(yolo_df: pd.DataFrame) -> list[str]:
    """Space-delimited, no header (W3 sink format)."""
    cols = [yolo_df[c].tolist() for c in ("class_id", "x", "y", "w", "h")]
    return [f"{int(c)} {x} {y} {w} {h}" for c, x, y, w, h in zip(*cols)]


def to_coco(polys: pd.DataFrame, grid: GridConfig,
            image_fname: str = "mask.tif",
            starting_id: int = 0,
            category_names: dict[int, str] | None = None,
            preset_categories: list[str] | None = None,
            score_col: str | None = None,
            license_id: int | None = None,
            info: dict | None = None,
            licenses: list[dict] | None = None) -> dict:
    """Outer rings -> single-document COCO dict (M16-M20, W4).

    Annotation ids are globally sequential in deterministic
    (comp_id) order — the reference's range(starting_id, ...) id
    assignment (geo_transforms.py:469-470).  ``preset_categories``:
    classes whose name is not preset are bucketed into "other" with the
    next sequential id (M19 "other" bucketing,
    geo_transforms.py:416-470).  ``score_col`` adds the reference's
    optional per-annotation score (geo_transforms.py:474-493);
    ``license_id`` stamps the image record, and ``info``/``licenses``
    add the optional top-level COCO blocks (make_coco_image_dict,
    geo_transforms.py:352-375)."""
    px = polys[~polys["is_hole"]].sort_values("comp_id", kind="stable")
    cats = sorted(px["class_id"].unique().tolist())
    names = {int(c): (category_names or {}).get(int(c), f"class_{int(c)}")
             for c in cats}
    if preset_categories is not None:
        other_id = max(cats, default=0) + 1
        remap = {}
        for c in cats:
            if names[c] not in preset_categories:
                remap[c] = other_id
        if remap:
            px = px.copy()
            px["class_id"] = px["class_id"].map(
                lambda c: remap.get(int(c), int(c)))
            cats = sorted(px["class_id"].unique().tolist())
            names = {int(c): ("other" if c == other_id
                              else names.get(int(c), f"class_{int(c)}"))
                     for c in cats}
    cat_records = [{"id": int(c), "name": names[int(c)],
                    "supercategory": "mask"} for c in cats]
    x, y, off = _px_rings(px, grid)
    minx, maxx, miny, maxy = _ring_bounds(x, y, off)
    seg = np.empty(2 * len(x))
    seg[0::2], seg[1::2] = x, y
    seg = seg.tolist()
    bounds = (2 * off).tolist()
    cols = [px["class_id"].tolist(), ring_areas(x, y, off).tolist(),
            minx.tolist(), miny.tolist(), (maxx - minx).tolist(),
            (maxy - miny).tolist(), bounds[:-1], bounds[1:]]
    annos = [{
        "id": starting_id + i,
        "image_id": 1,
        "category_id": int(c),
        "segmentation": [seg[a:b]],
        "area": area,
        "bbox": [x0, y0, w, h],
        "iscrowd": 0,
    } for i, (c, area, x0, y0, w, h, a, b) in enumerate(zip(*cols))]
    if score_col is not None:
        for rec, sc in zip(annos, px[score_col].tolist()):
            rec["score"] = float(sc)
    image_rec = {"id": 1, "file_name": image_fname,
                 "width": grid.width, "height": grid.height}
    if license_id is not None:
        image_rec["license"] = license_id
    out = {
        "images": [image_rec],
        "categories": cat_records,
        "annotations": annos,
    }
    if info is not None:
        out["info"] = info
    if licenses is not None:
        out["licenses"] = licenses
    return out


def write_coco(coco: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(coco, f)


def bbox_corners_to_coco(minx, miny, maxx, maxy):
    """M16: [minx, miny, maxx, maxy] -> [minx, miny, w, h]."""
    return [minx, miny, maxx - minx, maxy - miny]
