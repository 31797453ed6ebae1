"""Tests: connected-component labeling, boundary tracing, cross-tile
stitching, and YOLO/COCO exports."""

import json

import numpy as np
import pandas as pd
import pytest

from geo_inference_ray.annotations import (filter_min_area, rings_to_px,
                                           to_coco, to_yolo, yolo_lines)
from geo_inference_ray.polygonize import (label_components, ring_signed_area,
                                          stitch_polygons, trace_rings)
from geo_inference_ray.tiling import GridConfig


def test_label_components_basic():
    m = np.array([
        [1, 1, 0, 2],
        [0, 1, 0, 2],
        [3, 0, 1, 0],
        [3, 3, 0, 0]], dtype=np.uint8)
    labs = label_components(m)
    assert labs[0, 0] == labs[0, 1] == labs[1, 1]
    assert labs[0, 3] == labs[1, 3]
    assert labs[2, 0] == labs[3, 0] == labs[3, 1]
    assert labs[2, 2] not in (labs[0, 0], 0)
    assert (labs[m == 0] == 0).all()


def test_label_components_distinguishes_classes():
    m = np.array([[1, 2], [0, 0]], dtype=np.uint8)
    labs = label_components(m)
    assert labs[0, 0] != labs[0, 1]  # adjacent but different class


def test_label_components_nodata_excluded():
    m = np.array([[255, 1], [1, 1]], dtype=np.uint8)
    labs = label_components(m)
    assert labs[0, 0] == 0


def test_trace_single_pixel():
    rings = trace_rings({(0, 0)})
    assert len(rings) == 1
    assert len(rings[0]) == 4
    assert abs(ring_signed_area(rings[0])) == 1.0


def test_trace_rect_and_hole():
    # 3x3 block with center removed -> outer ring + hole
    pix = {(y, x) for y in range(3) for x in range(3)} - {(1, 1)}
    rings = trace_rings(pix)
    assert len(rings) == 2
    areas = sorted(abs(ring_signed_area(r)) for r in rings)
    assert areas == [1.0, 9.0]


def test_trace_l_shape_area():
    pix = {(0, 0), (0, 1), (1, 0)}
    rings = trace_rings(pix)
    assert len(rings) == 1
    assert abs(ring_signed_area(rings[0])) == 3.0


def test_trace_pinch_junction_simple_rings():
    # 3x3 minus center minus a corner: the cavity touches the exterior
    # at a diagonal-pinch junction.  The sharpest-RIGHT-turn policy must
    # keep every ring simple (no repeated vertices) and preserve the
    # pixel-area invariant; the old left-turn preference crossed into
    # the adjacent loop here and emitted a self-touching ring.
    pix = {(y, x) for y in range(3) for x in range(3)} - {(1, 1), (2, 2)}
    rings = trace_rings(pix)
    for r in rings:
        assert len(set(r)) == len(r), "non-simple ring at pinch junction"
    areas = [ring_signed_area(r) for r in rings]
    assert abs(abs(sum(areas)) - len(pix)) < 1e-9


def test_vectorized_kernels_match_reference():
    """The vectorized labeling/tracing must match the per-pixel
    reference kernels: identical component partition in identical
    first-encounter order, and identical ring-area multisets."""
    from geo_inference_ray.polygonize import (label_components_ref,
                                              trace_rings_ref)

    rng = np.random.default_rng(5)
    for _ in range(25):
        m = (rng.random((13, 13)) < 0.5).astype(np.uint8) * \
            rng.integers(1, 4, (13, 13)).astype(np.uint8)
        a = label_components(m)
        b = label_components_ref(m)

        def parts(labs):
            comp = {}
            for y, x in zip(*np.nonzero(labs)):
                comp.setdefault(labs[y, x], []).append((y, x))
            return [frozenset(v) for _, v in
                    sorted(comp.items(), key=lambda kv: min(kv[1]))]

        assert parts(a) == parts(b)
        for lab in np.unique(a):
            if lab == 0:
                continue
            ys, xs = np.nonzero(a == lab)
            pix = set(zip(ys.tolist(), xs.tolist()))
            r1 = trace_rings(pix)
            r2 = trace_rings_ref(pix)
            a1 = sorted(round(ring_signed_area(r), 6) for r in r1)
            a2 = sorted(round(ring_signed_area(r), 6) for r in r2)
            assert a1 == a2
            assert all(len(set(r)) == len(r) for r in r1)


def test_trace_fuzz_simple_and_area_invariant():
    # fuzz random masks: every component's rings are simple and the
    # signed areas sum to +/- the component pixel count
    rng = np.random.default_rng(20240817)
    for _ in range(40):
        m = (rng.random((10, 10)) < 0.55).astype(np.uint8)
        labs = label_components(m)
        for lab in np.unique(labs):
            if lab == 0:
                continue
            ys, xs = np.nonzero(labs == lab)
            pix = set(zip(ys.tolist(), xs.tolist()))
            rings = trace_rings(pix)
            assert all(len(set(r)) == len(r) for r in rings)
            areas = [ring_signed_area(r) for r in rings]
            assert abs(abs(sum(areas)) - len(pix)) < 1e-9


def _tiles_from_dense(mask: np.ndarray, stride: int) -> pd.DataFrame:
    h, w = mask.shape
    rows = []
    for oy in range(h // stride):
        for ox in range(w // stride):
            sub = mask[oy * stride:(oy + 1) * stride,
                       ox * stride:(ox + 1) * stride]
            rows.append({"oy": oy, "ox": ox, "mask": sub.reshape(-1),
                         "n_valid": int((sub != 255).sum())})
    return pd.DataFrame(rows)


def _grid(h, w, stride):
    return GridConfig(min_lon=0.0, max_lat=float(h), pix=1.0, width=w,
                      height=h, stride=stride)


def test_stitch_component_spanning_tiles():
    # one component crossing a 2x2 tile grid (stride 4, 8x8 raster)
    mask = np.zeros((8, 8), dtype=np.uint8)
    mask[2:6, 2:6] = 1  # straddles all 4 tiles
    tiles = _tiles_from_dense(mask, 4)
    polys = stitch_polygons(tiles, _grid(8, 8, 4))
    outers = polys[~polys["is_hole"]]
    assert len(outers) == 1
    assert outers.iloc[0]["area_px"] == 16.0
    assert outers.iloc[0]["n_pixels"] == 16


def test_stitch_separate_classes_not_merged():
    mask = np.zeros((8, 8), dtype=np.uint8)
    mask[3, 2:6] = 1
    mask[4, 2:6] = 2  # touching rows, different class
    tiles = _tiles_from_dense(mask, 4)
    polys = stitch_polygons(tiles, _grid(8, 8, 4))
    outers = polys[~polys["is_hole"]]
    assert len(outers) == 2
    assert sorted(outers["class_id"].tolist()) == [1, 2]


def test_stitch_hole_across_tiles():
    mask = np.zeros((8, 8), dtype=np.uint8)
    mask[1:7, 1:7] = 1
    mask[3:5, 3:5] = 0  # hole spanning the 4-tile corner
    tiles = _tiles_from_dense(mask, 4)
    polys = stitch_polygons(tiles, _grid(8, 8, 4))
    comp = polys[polys["comp_id"] == polys["comp_id"].iloc[0]]
    assert len(comp) == 2  # outer + hole
    assert comp["is_hole"].sum() == 1
    outer = comp[~comp["is_hole"]].iloc[0]
    assert outer["area_px"] == 36.0  # outer ring area (shoelace, pre-hole)


def test_stitch_matches_unsplit_labeling():
    """Stitched tile decomposition == single-pass labeling of the dense
    mask (component count and pixel counts)."""
    rng = np.random.default_rng(5)
    mask = (rng.uniform(size=(16, 16)) < 0.4).astype(np.uint8)
    tiles = _tiles_from_dense(mask, 4)
    polys = stitch_polygons(tiles, _grid(16, 16, 4))
    outers = polys[~polys["is_hole"]]
    labs = label_components(mask)
    n_comp = len(np.unique(labs[labs > 0]))
    assert outers["comp_id"].nunique() == n_comp
    assert int(outers.drop_duplicates("comp_id")["n_pixels"].sum()) \
        == int((mask == 1).sum())


def test_geo_coords():
    mask = np.zeros((4, 4), dtype=np.uint8)
    mask[0, 0] = 1
    tiles = _tiles_from_dense(mask, 4)
    grid = GridConfig(min_lon=10.0, max_lat=50.0, pix=0.5, width=4,
                      height=4, stride=4)
    polys = stitch_polygons(tiles, grid)
    r = polys.iloc[0]
    assert set(zip(r["xs"], r["ys"])) == {
        (10.0, 50.0), (10.5, 50.0), (10.5, 49.5), (10.0, 49.5)}


def test_min_area_filter():
    mask = np.zeros((8, 8), dtype=np.uint8)
    mask[0, 0] = 1          # area 1
    mask[4:8, 4:8] = 2      # area 16
    tiles = _tiles_from_dense(mask, 4)
    polys = stitch_polygons(tiles, _grid(8, 8, 4))
    kept = filter_min_area(polys, 4.0)
    assert set(kept["class_id"]) == {2}


def test_yolo_export():
    mask = np.zeros((8, 8), dtype=np.uint8)
    mask[2:6, 2:6] = 1
    tiles = _tiles_from_dense(mask, 4)
    grid = _grid(8, 8, 4)
    polys = stitch_polygons(tiles, grid)
    y = to_yolo(polys, grid)
    assert len(y) == 1
    r = y.iloc[0]
    assert r["x"] == pytest.approx(0.5)
    assert r["y"] == pytest.approx(0.5)
    assert r["w"] == pytest.approx(0.5)
    assert r["h"] == pytest.approx(0.5)
    lines = yolo_lines(y)
    assert lines[0].startswith("1 0.5 0.5 0.5 0.5")


def test_yolo_overlap_filter():
    """Polygon clipped by the image rect below min_overlap is dropped."""
    grid = _grid(8, 8, 4)
    polys = pd.DataFrame([{
        "comp_id": 0, "class_id": 1, "ring_idx": 0, "is_hole": False,
        "n_pixels": 64, "area_px": 64.0,
        # geo ring mostly outside the raster (raster lon 0..8, lat 0..8)
        "xs": np.array([6.0, 14.0, 14.0, 6.0]),
        "ys": np.array([2.0, 2.0, 6.0, 6.0]),
    }])
    y = to_yolo(polys, grid, min_overlap=0.66)
    assert len(y) == 0
    y2 = to_yolo(polys, grid, min_overlap=0.2)
    assert len(y2) == 1


def test_coco_export():
    mask = np.zeros((8, 8), dtype=np.uint8)
    mask[2:6, 2:6] = 1
    mask[0, 6:8] = 2
    tiles = _tiles_from_dense(mask, 4)
    grid = _grid(8, 8, 4)
    polys = stitch_polygons(tiles, grid)
    coco = to_coco(polys, grid)
    assert {c["id"] for c in coco["categories"]} == {1, 2}
    assert [a["id"] for a in coco["annotations"]] == [0, 1]
    a = [x for x in coco["annotations"] if x["category_id"] == 1][0]
    assert a["bbox"] == [2.0, 2.0, 4.0, 4.0]
    assert a["area"] == 16.0
    assert a["iscrowd"] == 0
    assert coco["images"][0]["width"] == 8


def test_rings_to_px_roundtrip():
    grid = GridConfig(min_lon=-10.0, max_lat=20.0, pix=0.25, width=16,
                      height=16, stride=4)
    polys = pd.DataFrame([{
        "comp_id": 0, "class_id": 1, "ring_idx": 0, "is_hole": False,
        "n_pixels": 4, "area_px": 4.0,
        "xs": np.array([-10.0, -9.5, -9.5, -10.0]),
        "ys": np.array([20.0, 20.0, 19.5, 19.5]),
    }])
    px = rings_to_px(polys, grid)
    np.testing.assert_allclose(px.iloc[0]["pxs"], [0, 2, 2, 0])
    np.testing.assert_allclose(px.iloc[0]["pys"], [0, 0, 2, 2])


def _blob_tiles(seed: int, stride: int) -> tuple[GridConfig, pd.DataFrame]:
    """Seeded class-1/2 discs and rings (many cross tile borders), ~5%
    NODATA pixels, ~15% of the tiles absent."""
    rng = np.random.default_rng(seed)
    h = stride * int(rng.integers(3, 9))
    w = stride * int(rng.integers(3, 9))
    mask = np.zeros((h, w), dtype=np.uint8)
    yy, xx = np.mgrid[:h, :w]
    for _ in range(int(rng.integers(2, 20))):
        cy, cx = rng.integers(0, h), rng.integers(0, w)
        r = int(rng.integers(1, 10))
        d2 = (yy - cy) ** 2 + (xx - cx) ** 2
        paint = d2 <= r * r
        if rng.random() < 0.35:
            paint &= d2 > (r // 2) ** 2
        mask[paint] = rng.integers(1, 3)
    mask[rng.random((h, w)) < 0.05] = 255
    tiles = _tiles_from_dense(mask, stride)
    tiles = tiles[rng.random(len(tiles)) > 0.15].reset_index(drop=True)
    grid = GridConfig(min_lon=-10.0, max_lat=5.0, pix=0.25, width=w,
                      height=h, stride=stride)
    return grid, tiles


def test_distributed_matches_driver_stitch(ray_session, sf_dir):
    """stitch_polygons == polygons_distributed row for row (the
    distributed rows ordered by (comp_id, ring_idx)): same comp ids,
    rings, areas and bit-identical geo coords, on the real tile output
    and on seeded blob tiles with NODATA pixels and absent tiles."""
    import ray.data as rd

    from geo_inference_ray import stages
    from geo_inference_ray.polygonize import polygons_distributed
    from geo_inference_ray.tiling import DEFAULT_GRID, mask_tiles

    real = mask_tiles(stages.geo_pipeline(sf_dir, with_cells=False),
                      DEFAULT_GRID).to_pandas()
    cases = [(DEFAULT_GRID, real)] + [_blob_tiles(seed, stride)
                                      for seed, stride in
                                      [(1, 4), (2, 8), (3, 16), (4, 4)]]
    for grid, tiles in cases:
        local = stitch_polygons(tiles, grid)
        dist = polygons_distributed(rd.from_pandas(tiles), grid) \
            .to_pandas().sort_values(["comp_id", "ring_idx"]) \
            .reset_index(drop=True)
        assert len(local) == len(dist) > 0
        for c in ("comp_id", "class_id", "ring_idx", "is_hole",
                  "n_pixels"):
            assert local[c].tolist() == dist[c].tolist(), c
        assert local["area_px"].to_numpy().tobytes() \
            == dist["area_px"].to_numpy(dtype=float).tobytes()
        for c in ("xs", "ys"):
            for a, b in zip(local[c], dist[c]):
                assert np.asarray(a, dtype=float).tobytes() \
                    == np.asarray(b, dtype=float).tobytes(), c


def test_rings_to_geojson_matches_row_loop():
    """_rings_to_geojson == the groupby/iterrows reference on ring rows
    in any order, with a hole-only component (dropped) and a component
    with two outer rings (the first one wins)."""
    from geo_inference_ray.pipeline import _rings_to_geojson

    def reference(polys):
        feats = []
        for _, g in polys.groupby("comp_id"):
            outer = g[~g["is_hole"]]
            if outer.empty:
                continue
            o = outer.iloc[0]
            rings = [[[float(x), float(y)] for x, y in zip(o["xs"], o["ys"])]]
            for _, h in g[g["is_hole"]].iterrows():
                rings.append([[float(x), float(y)]
                              for x, y in zip(h["xs"], h["ys"])])
            feats.append({
                "type": "Feature",
                "properties": {"value": float(o["class_id"])},
                "geometry": {"type": "Polygon", "coordinates": rings}})
        return {"type": "FeatureCollection", "features": feats}

    grid, tiles = _blob_tiles(5, 4)
    polys = stitch_polygons(tiles, grid)
    assert polys["is_hole"].any()
    rng = np.random.default_rng(0)
    mixed = polys.sample(frac=1.0, random_state=1).reset_index(drop=True)
    mixed.loc[rng.random(len(mixed)) < 0.2, "is_hole"] = True
    mixed.loc[rng.random(len(mixed)) < 0.1, "is_hole"] = False
    for p in (polys, mixed, polys.iloc[:0]):
        assert json.dumps(_rings_to_geojson(p)) == json.dumps(reference(p))


def test_reduce_precision():
    from geo_inference_ray.annotations import reduce_precision

    polys = pd.DataFrame([{
        "comp_id": 0, "class_id": 1, "ring_idx": 0, "is_hole": False,
        "n_pixels": 1, "area_px": 1.0,
        "xs": np.array([1.23456, 2.34567]),
        "ys": np.array([-0.11111, 9.87654]),
    }])
    out = reduce_precision(polys, 2)
    np.testing.assert_allclose(out.iloc[0]["xs"], [1.23, 2.35])
    np.testing.assert_allclose(out.iloc[0]["ys"], [-0.11, 9.88])


def test_coco_other_bucketing():
    mask = np.zeros((8, 8), dtype=np.uint8)
    mask[0, 0] = 1
    mask[4, 4] = 2
    tiles = _tiles_from_dense(mask, 4)
    grid = _grid(8, 8, 4)
    polys = stitch_polygons(tiles, grid)
    coco = to_coco(polys, grid,
                   category_names={1: "building", 2: "exotic"},
                   preset_categories=["building"])
    names = {c["name"] for c in coco["categories"]}
    assert names == {"building", "other"}
    other_id = [c["id"] for c in coco["categories"]
                if c["name"] == "other"][0]
    assert other_id == 3  # max preset id + 1
    assert any(a["category_id"] == other_id for a in coco["annotations"])


def test_simplify_rings_and_pipeline_flag(ray_session, sf_dir, tmp_path):
    """simplify_rings reduces vertex counts while keeping rings closed;
    the pipeline flag wires it into the vector chain."""
    from geo_inference_ray.annotations import simplify_rings
    from geo_inference_ray.pipeline import GeoInferenceRay

    # zig-zag ring that collapses under a coarse tolerance
    xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 4.0, 0.0])
    ys = np.array([0.0, 0.05, 0.0, 0.05, 0.0, 3.0, 3.0])
    polys = pd.DataFrame([{"comp_id": 0, "class_id": 1, "ring_idx": 0,
                           "is_hole": False, "n_pixels": 12,
                           "area_px": 12.0, "xs": xs, "ys": ys}])
    out = simplify_rings(polys, 0.1)
    assert len(out["xs"].iloc[0]) < len(xs)
    gi = GeoInferenceRay(work_dir=str(tmp_path), mask_to_vec=True,
                         simplify_tolerance=0.25)
    res = gi(sf_dir, run_name="simp")
    gj = json.load(open(res["polygons"]))
    assert len(gj["features"]) > 0


def test_coco_score_license_info():
    from geo_inference_ray.annotations import to_coco

    polys = pd.DataFrame([{
        "comp_id": 0, "class_id": 1, "ring_idx": 0, "is_hole": False,
        "n_pixels": 4, "area_px": 4.0, "score": 0.875,
        "xs": np.array([0.0, 1.0, 1.0, 0.0]),
        "ys": np.array([0.0, 0.0, 1.0, 1.0])}])
    grid = GridConfig(min_lon=0.0, max_lat=4.0, pix=1.0, width=4,
                      height=4, stride=2)
    coco = to_coco(polys, grid, score_col="score", license_id=2,
                   info={"description": "test"},
                   licenses=[{"id": 2, "name": "CC0"}])
    assert coco["annotations"][0]["score"] == 0.875
    assert coco["images"][0]["license"] == 2
    assert coco["info"]["description"] == "test"
    assert coco["licenses"][0]["name"] == "CC0"
    # without the options the blocks are absent (reference behavior)
    plain = to_coco(polys, grid)
    assert "score" not in plain["annotations"][0]
    assert "license" not in plain["images"][0]
    assert "info" not in plain and "licenses" not in plain


def test_polygon_rings_oracle_with_holes(ray_session):
    """The driver-scale data has no holed components, so pin the
    background-cavity SQL against the engine on a synthetic point set
    that rasterizes into a ring with an enclosed cavity."""
    import duckdb
    import ray.data as rd

    from geo_inference_ray.polygonize import polygons_from_tiles
    from geo_inference_ray.tiling import (DEFAULT_GRID, mask_tiles,
                                          sql_polygon_rings)

    def center(py, px):
        return (90.0 - (py + 0.5) * 0.5, -180.0 + (px + 0.5) * 0.5)

    pts = []
    # 3x3 ring around an empty center -> 1 hole; plus a solo pixel
    for py in range(100, 103):
        for px in range(200, 203):
            if (py, px) != (101, 201):
                pts.append(center(py, px))
    pts.append(center(150, 300))
    df = pd.DataFrame(pts, columns=["lat", "lon"])

    geo = rd.from_pandas(df)
    tiles = mask_tiles(geo, DEFAULT_GRID)
    polys = polygons_from_tiles(tiles, DEFAULT_GRID)
    eng = polys.groupby("comp_id", as_index=False).agg(
        class_id=("class_id", "first"), n_pixels=("n_pixels", "first"),
        n_rings=("ring_idx", "size"), n_holes=("is_hole", "sum"))
    outer = polys[~polys["is_hole"]].set_index("comp_id")["area_px"]
    eng["area_px_int"] = eng["comp_id"].map(outer).round().astype("int64")
    assert eng["n_holes"].sum() == 1  # the cavity exists
    # canonical ring order: ring 0 is ALWAYS the outer ring (the
    # polygons oracle relies on this)
    assert not polys[polys["ring_idx"] == 0]["is_hole"].any()
    assert polys[polys["ring_idx"] > 0]["is_hole"].all()

    vals = ",".join(f"({la!r},{lo!r})" for la, lo in pts)
    sql = (f"WITH RECURSIVE geo(lat, lon) AS (VALUES {vals}),"
           + sql_polygon_rings())
    ora = duckdb.sql(sql).df()
    a = eng.sort_values("comp_id").reset_index(drop=True).astype("int64")
    b = ora.sort_values("comp_id").reset_index(drop=True) \
        [a.columns.tolist()].astype("int64")
    assert a.equals(b)


def _pinch_and_blob_masks():
    """Seeded masks with holes and diagonal-pinch junctions: random
    3-class fields, disc/annulus blobs, and the 3x3 pinch case."""
    rng = np.random.default_rng(13)
    masks = [(rng.random((14, 17)) < 0.55).astype(np.uint8)
             * rng.integers(1, 3, (14, 17)).astype(np.uint8)
             for _ in range(12)]
    for seed in range(4):
        grid, tiles = _blob_tiles(seed, 4)
        m = np.zeros((grid.height, grid.width), dtype=np.uint8)
        for r in tiles.itertuples():
            m[r.oy * 4:(r.oy + 1) * 4, r.ox * 4:(r.ox + 1) * 4] = \
                np.asarray(r.mask).reshape(4, 4)
        masks.append(np.where(m == 255, 0, m).astype(np.uint8))
    pinch = np.ones((5, 5), dtype=np.uint8)
    pinch[0, :] = pinch[:, 0] = 0
    pinch[2, 2] = pinch[3, 3] = 0
    masks.append(pinch)
    return masks


def test_global_trace_matches_per_component():
    """One trace_rings_arrays call over every component (pixels in any
    order) == the per-component calls concatenated in component order:
    same ring order, vertices and signed areas; the cases cover holes
    and pinch junctions."""
    from geo_inference_ray.polygonize import trace_rings_arrays

    rng = np.random.default_rng(3)
    holes = pinches = 0
    for m in _pinch_and_blob_masks():
        labs = label_components(m)
        ys, xs = np.nonzero(labs)
        comp = labs[ys, xs] * 7 + 3  # any int ids, ascending = ring order
        perm = rng.permutation(len(ys))
        got = trace_rings_arrays(ys[perm], xs[perm], comp[perm])
        parts = [trace_rings_arrays(ys[comp == c], xs[comp == c])
                 for c in np.unique(comp)]
        assert got.comp.tolist() == [c for c, p in zip(np.unique(comp), parts)
                                     for _ in range(len(p.area))]
        n_v = np.concatenate([np.diff(p.off) for p in parts])
        assert got.off.tolist() == [0] + np.cumsum(n_v).tolist()
        for f in ("xs", "ys", "area"):
            want = np.concatenate([getattr(p, f) for p in parts])
            assert getattr(got, f).tobytes() == want.tobytes(), f
        for p in parts:
            holes += len(p.area) > 1
            v = list(zip(p.xs.tolist(), p.ys.tolist()))
            pinches += len(set(v)) < len(v)
    assert holes and pinches


def _ref_rings_to_px(polys, grid):
    """The per-row rings_to_px loop the array form replaced."""
    from geo_inference_ray.annotations import grid_affine
    from geo_inference_ray.geom import affine_apply, affine_invert

    inv = affine_invert(*grid_affine(grid))
    out = polys.copy()
    pxs, pys = [], []
    for r in polys.itertuples():
        x, y = affine_apply(*inv, np.asarray(r.xs), np.asarray(r.ys))
        pxs.append(x)
        pys.append(y)
    out["pxs"] = pxs
    out["pys"] = pys
    return out


def _ref_to_yolo(polys, grid, min_overlap=0.66):
    """The per-ring to_yolo loop (clip_to_rect on every ring)."""
    from geo_inference_ray.geom import clip_to_rect, shoelace_area

    px = _ref_rings_to_px(polys[~polys["is_hole"]], grid)
    W, H = grid.width, grid.height
    rows = []
    for r in px.itertuples():
        xs, ys = np.asarray(r.pxs), np.asarray(r.pys)
        area = shoelace_area(xs, ys)
        if area == 0:
            continue
        cx, cy = clip_to_rect(xs, ys, 0, 0, W, H)
        if len(cx) == 0 or shoelace_area(cx, cy) / area < min_overlap:
            continue
        minx, maxx = xs.min(), xs.max()
        miny, maxy = ys.min(), ys.max()
        rows.append({"class_id": r.class_id,
                     "x": (minx + maxx) / 2.0 / W,
                     "y": (miny + maxy) / 2.0 / H,
                     "w": (maxx - minx) / W, "h": (maxy - miny) / H})
    return pd.DataFrame(rows, columns=["class_id", "x", "y", "w", "h"])


def _ref_coco_annotations(polys, grid, score_col=None):
    """The per-ring to_coco annotation loop."""
    from geo_inference_ray.geom import shoelace_area

    px = _ref_rings_to_px(polys[~polys["is_hole"]], grid) \
        .sort_values("comp_id", kind="stable")
    annos = []
    for i, r in enumerate(px.itertuples()):
        xs, ys = np.asarray(r.pxs), np.asarray(r.pys)
        seg = np.column_stack([xs, ys]).reshape(-1).tolist()
        minx, miny = float(xs.min()), float(ys.min())
        w, h = float(xs.max() - minx), float(ys.max() - miny)
        rec = {"id": i, "image_id": 1, "category_id": int(r.class_id),
               "segmentation": [seg],
               "area": float(shoelace_area(xs, ys)),
               "bbox": [minx, miny, w, h], "iscrowd": 0}
        if score_col is not None:
            rec["score"] = float(getattr(r, score_col))
        annos.append(rec)
    return annos


def _edge_ring_tables():
    """Seeded ring tables on two grids: traced blobs (holes, rings on
    the raster edge), plus hand rings crossing or touching the raster
    edge, fully outside it, and of zero area.  The 0.1-degree grid
    gives non-integer pixel coordinates (the per-ring area fallback)."""
    def ring(cid, cls, xs, ys, hole=False):
        return {"comp_id": cid, "class_id": cls, "ring_idx": int(hole),
                "is_hole": hole, "n_pixels": 1, "area_px": 1.0,
                "score": 0.5 + cid / 1000,
                "xs": np.asarray(xs, dtype=float),
                "ys": np.asarray(ys, dtype=float)}

    out = []
    for seed, pix in ((5, 0.25), (6, 0.1)):
        grid, tiles = _blob_tiles(seed, 4)
        grid = GridConfig(min_lon=grid.min_lon, max_lat=grid.max_lat,
                          pix=pix, width=grid.width, height=grid.height,
                          stride=4)
        polys = stitch_polygons(tiles, grid)
        polys["score"] = np.linspace(0.1, 0.9, len(polys))
        x0, y1 = grid.min_lon, grid.max_lat
        x1, y0 = x0 + grid.width * pix, y1 - grid.height * pix
        c = int(polys["comp_id"].max()) + 1
        extra = [
            ring(c, 1, [x1 - pix, x1 + 2 * pix, x1 + 2 * pix, x1 - pix],
                 [y1, y1, y1 - pix, y1 - pix]),                # crosses
            ring(c + 1, 2, [x0, x0 + pix, x0 + pix, x0],
                 [y0 + pix, y0 + pix, y0, y0]),                # touches
            ring(c + 2, 1, [x1 + pix, x1 + 2 * pix, x1 + 2 * pix],
                 [y1, y1, y1 - pix]),                          # outside
            ring(c + 3, 2, [x0, x0 + pix, x0 + 2 * pix],
                 [y1, y1 - pix, y1 - 2 * pix]),                # zero area
            ring(c + 4, 1, [x0 + pix, x0 + pix], [y1, y1]),    # zero area
            ring(c + 4, 1, [x0 + pix, x0 + pix, x0 + 2 * pix],
                 [y1 - pix, y1 - 2 * pix, y1 - 2 * pix], hole=True),
            ring(c + 5, 2, [x0 - pix, x1 + pix, x1 + pix, x0 - pix],
                 [y1 + pix, y1 + pix, y0 - pix, y0 - pix]),    # covers
            ring(c + 6, 1, [x0 + pix, x0 + 2 * pix, x0 + 2 * pix, x0 + pix],
                 [y0 + pix, y0 + pix, y0 - 2 * pix, y0 - 2 * pix]),
            ring(c + 7, 2, [x1 - 2 * pix, x1 + pix / 2, x1 + pix / 2,
                            x1 - 2 * pix],
                 [y1 - pix, y1 - pix, y1 - 2 * pix, y1 - 2 * pix]),
        ]
        polys = pd.concat([polys, pd.DataFrame(extra)], ignore_index=True)
        out.append((grid, polys.sample(frac=1.0, random_state=seed)
                    .reset_index(drop=True)))
    return out


def test_exports_match_row_loops():
    """rings_to_px, to_yolo, yolo_lines and to_coco over flat ring
    arrays == the per-ring loops they replaced: pixel rings, YOLO rows
    and COCO ``area`` / ``segmentation`` / ``bbox`` bit for bit, with
    holes, edge-crossing and zero-area rings, at several overlap
    thresholds."""
    for grid, polys in _edge_ring_tables():
        assert polys["is_hole"].any()
        got, want = rings_to_px(polys, grid), _ref_rings_to_px(polys, grid)
        assert got.drop(columns=["pxs", "pys"]).equals(
            want.drop(columns=["pxs", "pys"]))
        for c in ("pxs", "pys"):
            for a, b in zip(got[c], want[c]):
                assert a.tobytes() == b.tobytes()
        for mo in (0.0, 0.3, 0.66, 1.0, 1.5):
            y, ref = to_yolo(polys, grid, mo), _ref_to_yolo(polys, grid, mo)
            assert len(y) == len(ref)
            assert y["class_id"].tolist() == ref["class_id"].tolist()
            for c in ("x", "y", "w", "h"):
                assert y[c].to_numpy(dtype=float).tobytes() \
                    == ref[c].to_numpy(dtype=float).tobytes(), (mo, c)
            assert yolo_lines(y) == [
                f"{int(r.class_id)} {r.x} {r.y} {r.w} {r.h}"
                for r in ref.itertuples()]
        assert 0 < len(to_yolo(polys, grid)) < (~polys["is_hole"]).sum()
        for sc in (None, "score"):
            annos = to_coco(polys, grid, score_col=sc)["annotations"]
            ref = _ref_coco_annotations(polys, grid, sc)
            assert json.dumps(annos) == json.dumps(ref)
            for a, b in zip(annos, ref):
                assert np.float64(a["area"]).tobytes() \
                    == np.float64(b["area"]).tobytes()
                assert np.array(a["segmentation"][0]).tobytes() \
                    == np.array(b["segmentation"][0]).tobytes()


def test_polygons_distributed_border_bound_is_loud(ray_session):
    """More border + registry rows than the grid's tiles can hold
    (4 * stride + stride^2 per tile) raise instead of collecting an
    unbounded table: two full tiles on a one-tile grid."""
    import ray.data as rd

    from geo_inference_ray.polygonize import polygons_distributed

    tiles = _tiles_from_dense(np.ones((4, 8), dtype=np.uint8), 4)
    one = _grid(4, 4, 4)
    with pytest.raises(ValueError, match="rows exceed 32"):
        polygons_distributed(rd.from_pandas(tiles), one)
    rings = polygons_distributed(rd.from_pandas(tiles), _grid(4, 8, 4))
    assert rings.count() == 1


# sha256 of the flagship's vector artifacts on sf0.001 (patch 16),
# written by the per-component tracer and the per-ring export loops
# that the array passes replaced
_SF0001_ARTIFACTS = {
    "polygons": "cb88e6d0cbacba102709ec47b97cec7ce94876c985dc6490d478d890b632c493",
    "yolo": "a56a4a3b372a549a339a4c07a0eb3eac2793b7bee642590fef2ce447ccf76004",
    "coco": "9e9f4d7ebbc41c1450aa60aebb0538866994a28ac04ba8c8f53013a937ce14b2",
}


def test_pipeline_artifacts_match_pinned_bytes(ray_session, sf_dir,
                                               tmp_path):
    """The GeoJSON, YOLO and COCO files of a flagship run on sf0.001 are
    byte-identical to the ones the row-loop implementation wrote."""
    import hashlib

    from geo_inference_ray.pipeline import GeoInferenceRay

    out = GeoInferenceRay(work_dir=str(tmp_path), mask_to_vec=True,
                          mask_to_yolo=True, mask_to_coco=True)(sf_dir)
    for name, digest in _SF0001_ARTIFACTS.items():
        with open(out[name], "rb") as f:
            assert hashlib.sha256(f.read()).hexdigest() == digest, name


def test_pipeline_json_is_json_dump_bytes(ray_session, sf_dir, tmp_path):
    """The GeoJSON and COCO files, written through ``json.dumps`` (the C
    encoder), hold exactly the bytes that ``json.dump`` (the streaming
    pure-Python encoder) writes for the same objects."""
    import io
    import json

    from geo_inference_ray.pipeline import GeoInferenceRay

    out = GeoInferenceRay(work_dir=str(tmp_path), mask_to_vec=True,
                          mask_to_coco=True)(sf_dir)
    for name in ("polygons", "coco"):
        with open(out[name]) as f:
            text = f.read()
        obj = json.loads(text)
        assert obj["features" if name == "polygons" else "annotations"]
        buf = io.StringIO()
        json.dump(obj, buf)
        assert buf.getvalue() == text, name
