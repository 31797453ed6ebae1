"""Golden tests for the tile windows and overlapped merge — the same
geometry the reference pins in tests/test_geo_dask.py (patch=4, stride=2,
3x3 grid), with expectations derived independently here."""

import numpy as np
import pandas as pd
import pytest

from geo_inference_ray.tiling import (DensityScorer, GridConfig, MergeCells,
                                      ScorePatches, reference_merge,
                                      tiles_to_dense)
from geo_inference_ray.window import (all_windows, base_window,
                                      classify_position, hann_periodic,
                                      tile_window)

PATCH = 4
STEP = 2


def _golden_windows():
    """Independent re-derivation of the 9 variants (mirrors the reference's
    own test fixture generate_corner_windows, test_geo_dask.py:65-121)."""
    w = hann_periodic(PATCH)
    win = w[:, None] * w[None, :]
    u = np.vstack([np.tile(win[STEP:STEP + 1, :], (STEP, 1)), win[STEP:, :]])
    b = np.vstack([win[:STEP, :], np.tile(win[STEP:STEP + 1, :], (STEP, 1))])
    l = np.hstack([np.tile(win[:, STEP:STEP + 1], (1, STEP)), win[:, STEP:]])
    r = np.hstack([win[:, :STEP], np.tile(win[:, STEP:STEP + 1], (1, STEP))])
    ones = np.ones((STEP, STEP))
    ul = np.block([[ones, u[:STEP, STEP:]], [l[STEP:, :STEP], l[STEP:, STEP:]]])
    ur = np.block([[u[:STEP, :STEP], ones], [r[STEP:, :STEP], r[STEP:, STEP:]]])
    bl = np.block([[l[:STEP, :STEP], l[:STEP, STEP:]], [ones, b[STEP:, STEP:]]])
    br = np.block([[r[:STEP, :STEP], r[:STEP, STEP:]], [b[STEP:, :STEP], ones]])
    return {"ul": ul, "u": u, "ur": ur, "l": l, "c": win, "r": r,
            "bl": bl, "b": b, "br": br}


def test_hann_periodic_matches_definition():
    # hann(4, sym=False) = [0, 0.5, 1, 0.5]
    np.testing.assert_allclose(hann_periodic(4), [0.0, 0.5, 1.0, 0.5])


def test_window_variants_match_golden():
    gold = _golden_windows()
    got = all_windows(PATCH)
    for pos in gold:
        np.testing.assert_allclose(got[pos], gold[pos], err_msg=pos)


def test_corner_windows_have_ones_blocks():
    w = tile_window("ul", PATCH)
    assert (w[:STEP, :STEP] == 1.0).all()
    w = tile_window("br", PATCH)
    assert (w[STEP:, STEP:] == 1.0).all()


def test_classify_position_3x3_grid():
    # 3x3 grid: last row/col dead -> live 2x2 classified as 4 corners
    # (reference's >= n-2 conditions)
    assert classify_position(0, 0, 3, 3) == "ul"
    assert classify_position(0, 1, 3, 3) == "ur"
    assert classify_position(1, 0, 3, 3) == "bl"
    assert classify_position(1, 1, 3, 3) == "br"


def test_classify_position_5x5_grid():
    assert classify_position(0, 0, 5, 5) == "ul"
    assert classify_position(0, 1, 5, 5) == "u"
    assert classify_position(0, 3, 5, 5) == "ur"
    assert classify_position(1, 0, 5, 5) == "l"
    assert classify_position(1, 1, 5, 5) == "c"
    assert classify_position(3, 3, 5, 5) == "br"
    assert classify_position(3, 1, 5, 5) == "b"
    assert classify_position(1, 3, 5, 5) == "r"


def test_interior_windows_sum_to_one():
    """Four overlapping interior Hann windows tile to ~constant weight:
    the quadrants of the periodic window sum to 1 at every offset."""
    w = base_window(16)
    s = 8
    total = w[:s, :s] + w[:s, s:] + w[s:, :s] + w[s:, s:]
    np.testing.assert_allclose(total, np.ones((s, s)))


def test_reference_merge_quadrant_math():
    """Merge = divide(sum of contributions, weight sum) + argmax — the
    algebra of the reference's sum_overlapped_chunks tests
    (test_geo_dask.py:124-301): argmax invariant to the positive weight."""
    rng = np.random.default_rng(3)
    c1 = rng.integers(1, 5, (3, 2, 2)).astype(float)
    c2 = rng.integers(1, 5, (3, 2, 2)).astype(float)
    got = reference_merge([c1, c2], num_classes=2, threshold=0.3)
    exp = np.argmax((c1[:-1] + c2[:-1]) / (c1[-1] + c2[-1]), axis=0)
    np.testing.assert_array_equal(got, exp)


def test_merge_zero_weight_is_class_zero():
    z = np.zeros((3, 2, 2))
    got = reference_merge([z], num_classes=2, threshold=0.3)
    np.testing.assert_array_equal(got, np.zeros((2, 2), dtype=np.uint8))


def test_binary_threshold_path():
    c = np.ones((2, 2, 2))
    c[0] *= 0.2  # normalized score 0.2 < 0.3 -> 0
    got = reference_merge([c], num_classes=1, threshold=0.3)
    np.testing.assert_array_equal(got, np.zeros((2, 2), dtype=np.uint8))
    c[0] = 0.8
    got = reference_merge([c], num_classes=1, threshold=0.3)
    np.testing.assert_array_equal(got, np.ones((2, 2), dtype=np.uint8))


def _small_grid():
    # 6x6 pixels, stride 2 -> 3x3 patch grid (the reference test geometry)
    return GridConfig(min_lon=0.0, max_lat=6.0, pix=1.0, width=6, height=6,
                      stride=2, num_classes=3)


def test_score_patches_emit_and_merge_end_to_end():
    """Drive ScorePatches + MergeCells directly (no Ray) on the 3x3 grid
    and check the merged mask against a hand-built dense computation."""
    grid = _small_grid()
    scorer = DensityScorer(3)
    # pixel counts: a few points in the upper-left 4x4 region
    pix = pd.DataFrame({
        "py": [0, 1, 1, 2, 3], "px": [0, 0, 1, 2, 3],
        "n": [3, 1, 2, 5, 1],
    })
    # emit to owner patches manually via the kernel
    import pyarrow as pa

    from geo_inference_ray.tiling import emit_to_patches
    owned = emit_to_patches(grid)(pa.table(pix)).to_pandas()
    # dead last row/col excluded
    assert (owned["ty"] < grid.ny - 1).all()
    assert (owned["tx"] < grid.nx - 1).all()

    sp = ScorePatches(grid)
    contribs = []
    for (ty, tx), g in owned.groupby(["ty", "tx"]):
        contribs.append(sp(pa.Table.from_pandas(
            g, preserve_index=False)).to_pandas())
    contribs = pd.concat(contribs, ignore_index=True)
    mc = MergeCells(grid)
    tiles = []
    for (oy, ox), g in contribs.groupby(["oy", "ox"]):
        tiles.append(mc(g.reset_index(drop=True)))
    tiles = pd.concat(tiles, ignore_index=True)
    dense = tiles_to_dense(tiles, grid)

    # independent dense expectation: accumulate windowed scores over the
    # full raster with the same window variants
    s, p = grid.stride, grid.patch
    counts = np.zeros((6, 6))
    for r in pix.itertuples():
        counts[r.py, r.px] += r.n
    acc = np.zeros((4, 6, 6))  # C+1 channels
    raw = np.zeros((6, 6))
    from geo_inference_ray.window import window_for_location
    for ty in range(grid.ny - 1):
        for tx in range(grid.nx - 1):
            patch = np.zeros((p, p))
            ys, xs = ty * s, tx * s
            sub = counts[ys:ys + p, xs:xs + p]
            patch[:sub.shape[0], :sub.shape[1]] = sub
            if not patch.any():
                continue
            probs = scorer(patch)
            win = window_for_location(ty, tx, grid.ny, grid.nx, p)
            st = np.concatenate([probs * win[None], win[None]], axis=0)
            acc[:, ys:ys + p, xs:xs + p] += st
            raw[ys:ys + p, xs:xs + p] += patch
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = np.divide(acc[:-1], acc[-1][None], out=np.zeros_like(acc[:-1]),
                         where=acc[-1] != 0)
    exp_cls = np.argmax(norm, axis=0).astype(np.uint8)
    exp = np.where(raw > 0, exp_cls, 255).astype(np.uint8)
    # compare only cells the pipeline produced (others are nodata rows)
    for r in tiles.itertuples():
        ys, xs = r.oy * s, r.ox * s
        np.testing.assert_array_equal(
            dense[ys:ys + s, xs:xs + s], exp[ys:ys + s, xs:xs + s],
            err_msg=f"cell ({r.oy},{r.ox})")
    # every valid pixel of the expectation is covered by some tile
    assert ((dense != 255) == (exp != 255)).all()


def test_mask_tiles_ray(ray_session, sf_dir):
    """Full Ray pipeline: pages -> geocode -> tiles; check tile math for
    one cell against the direct kernels."""
    from geo_inference_ray import stages
    from geo_inference_ray.tiling import DEFAULT_GRID, mask_tiles

    geo = stages.geo_pipeline(sf_dir, with_cells=False)
    tiles = mask_tiles(geo, DEFAULT_GRID).to_pandas()
    assert len(tiles) > 0
    assert set(tiles.columns) == {"oy", "ox", "mask", "n_valid"}
    assert tiles["n_valid"].sum() > 0
    s = DEFAULT_GRID.stride
    m = np.concatenate([np.asarray(x, dtype=np.uint8) for x in tiles["mask"]])
    assert set(np.unique(m)) <= {0, 1, 2, 255}
    # determinism: rerun yields identical tiles
    tiles2 = mask_tiles(stages.geo_pipeline(sf_dir, with_cells=False),
                        DEFAULT_GRID).to_pandas()
    a = tiles.sort_values(["oy", "ox"]).reset_index(drop=True)
    b = tiles2.sort_values(["oy", "ox"]).reset_index(drop=True)
    assert (a["oy"] == b["oy"]).all() and (a["ox"] == b["ox"]).all()
    for x, y in zip(a["mask"], b["mask"]):
        np.testing.assert_array_equal(np.asarray(x), np.asarray(y))


@pytest.fixture(scope="module")
def sf_pixels(ray_session, sf_dir):
    """Pixel counts of the sf0.001 pages, materialized once (they do
    not depend on the stride or the class count)."""
    from geo_inference_ray import stages
    from geo_inference_ray.tiling import DEFAULT_GRID, pixel_counts

    return pixel_counts(stages.geo_pipeline(sf_dir, with_cells=False),
                        DEFAULT_GRID).materialize()


@pytest.mark.parametrize("stride", [4, 8, 16])
@pytest.mark.parametrize("num_classes", [1, 3])
def test_distributed_tiles_match_driver_suffix(sf_pixels, stride,
                                               num_classes):
    """mask_tiles_distributed (groupby score + merge) == mask_tiles's
    driver suffix, bit for bit: oy, ox, mask bytes and n_valid."""
    import ray

    from geo_inference_ray.tiling import (TILE_SCHEMA, GridConfig, mask_tiles,
                                          mask_tiles_distributed)

    grid = GridConfig(stride=stride, num_classes=num_classes)

    def rows(ds):
        t = ds.to_pandas().sort_values(["oy", "ox"]).reset_index(drop=True)
        return (t["oy"].tolist(), t["ox"].tolist(), t["n_valid"].tolist(),
                [np.asarray(m, dtype=np.uint8).tobytes() for m in t["mask"]])

    local = rows(mask_tiles(sf_pixels, grid, rasterized=True))
    dist_ds = mask_tiles_distributed(sf_pixels, grid,
                                     rasterized=True).materialize()
    # the raw blocks, uncast, hold TILE_SCHEMA (list<uint8> masks, not
    # Ray's tensor extension)
    blocks = [t for t in ray.get(dist_ds.to_arrow_refs()) if t.num_rows]
    assert blocks and all(t.schema.equals(TILE_SCHEMA) for t in blocks)
    dist = rows(dist_ds)
    assert len(local[0]) > 0
    assert local == dist


def test_windows_match_checked_in_golden():
    """FIXTURES.md F3: the 9 window variants vs the checked-in .npy
    golden (generated independently of window.py)."""
    import os

    gold = np.load(os.path.join(os.path.dirname(__file__), "data",
                                "window_golden.npy"))
    order = ["ul", "u", "ur", "l", "c", "r", "bl", "b", "br"]
    got = all_windows(4)
    for i, pos in enumerate(order):
        np.testing.assert_allclose(got[pos], gold[i], err_msg=pos)


def test_merge_matches_checked_in_cases():
    """FIXTURES.md F3: seeded merge cases parquet -> reference_merge."""
    import os

    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(os.path.dirname(__file__), "data",
                                   "merge_cases.parquet"))
    for row in t.to_pylist():
        contribs = np.asarray(row["contribs"]).reshape(
            row["n_contrib"], 3, 2, 2)
        got = reference_merge(list(contribs), num_classes=2, threshold=0.3)
        np.testing.assert_array_equal(
            got, np.asarray(row["expected"], dtype=np.uint8).reshape(2, 2),
            err_msg=f"n={row['n_contrib']} case={row['case']}")


def test_geocoder_geo_token_priority(ray_session):
    """FIXTURES.md F1: a geo:{lat},{lon} token in text overrides the
    url-derived location (cluster becomes -1)."""
    import pyarrow as pa

    from geo_inference_ray.stages import Geocoder

    batch = pa.table({
        "url": pa.array(["https://example.org/src0/5",
                         "https://example.org/src0/6"]),
        "text": pa.array(["see geo:12.5,-33.25 for details",
                          "no token here"]),
    })
    out = Geocoder()(batch)
    assert out["lat"].to_pylist()[0] == 12.5
    assert out["lon"].to_pylist()[0] == -33.25
    assert out["cluster"].to_pylist()[0] == -1
    # second row falls back to the url-hash path
    from geo_inference_ray import synth
    lat, lon, cl = synth.geocode_ids(np.array([6]))
    assert out["lat"].to_pylist()[1] == lat[0]
    assert out["cluster"].to_pylist()[1] == cl[0]


def test_mask_tiles_scorer_resources_forwarded(ray_session, sf_dir):
    """ST3 analog: a scorer_resources dict forces the distributed path
    and is forwarded to the scoring stage's Ray tasks; output is
    byte-identical to the default placement."""
    from geo_inference_ray import stages
    from geo_inference_ray.tiling import DEFAULT_GRID, mask_tiles

    base = mask_tiles(stages.geo_pipeline(sf_dir, with_cells=False),
                      DEFAULT_GRID).to_pandas() \
        .sort_values(["oy", "ox"]).reset_index(drop=True)
    res = mask_tiles(stages.geo_pipeline(sf_dir, with_cells=False),
                     DEFAULT_GRID,
                     scorer_resources={"num_cpus": 1}).to_pandas() \
        .sort_values(["oy", "ox"]).reset_index(drop=True)
    assert base["n_valid"].tolist() == res["n_valid"].tolist()
    assert [list(m) for m in base["mask"]] == [list(m) for m in res["mask"]]


def test_scorer_resources_custom_placement(ray_session, sf_dir):
    """ST3 end-to-end on CPU (VERDICT r2 item 9): requesting a custom
    resource for the scoring stage schedules its tasks against that
    resource (asserted from inside the task via assigned resources —
    a mis-forwarded request would raise and fail the pipeline), with
    byte-identical output."""
    from geo_inference_ray import stages
    from geo_inference_ray.tiling import (DEFAULT_GRID, ResourceProbeScorer,
                                          mask_tiles)

    base = mask_tiles(stages.geo_pipeline(sf_dir, with_cells=False),
                      DEFAULT_GRID).to_pandas() \
        .sort_values(["oy", "ox"]).reset_index(drop=True)
    res = mask_tiles(
        stages.geo_pipeline(sf_dir, with_cells=False), DEFAULT_GRID,
        scorer_cls=ResourceProbeScorer,
        scorer_resources={"resources": {"tile_scorer": 0.5}}).to_pandas() \
        .sort_values(["oy", "ox"]).reset_index(drop=True)
    assert base["n_valid"].tolist() == res["n_valid"].tolist()
    assert [list(m) for m in base["mask"]] == [list(m) for m in res["mask"]]


def test_tile_pyramid_parent_child_sums(ray_session, sf_dir):
    """Every level's total equals the page count, and each level-l+1
    pixel is the sum of its <=4 level-l children."""
    from geo_inference_ray import stages
    from geo_inference_ray.tiling import DEFAULT_GRID, tile_pyramid

    geo = stages.geo_pipeline(sf_dir, with_cells=False)
    pyr = tile_pyramid(geo, DEFAULT_GRID).to_pandas()
    totals = pyr.groupby("level")["n"].sum()
    assert (totals == totals.iloc[0]).all()
    for lvl in range(3):
        child = pyr[pyr["level"] == lvl].copy()
        child["ppy"] = child["py"] // 2
        child["ppx"] = child["px"] // 2
        rolled = child.groupby(["ppy", "ppx"])["n"].sum().reset_index()
        parent = pyr[pyr["level"] == lvl + 1][["py", "px", "n"]]
        m = rolled.merge(parent, left_on=["ppy", "ppx"],
                         right_on=["py", "px"], how="outer")
        assert (m["n_x"].to_numpy() == m["n_y"].to_numpy()).all()


def test_zonal_stats_against_driver_reference(ray_session, sf_dir):
    """zonal_stats equals a driver-side recomputation from the pixel
    aggregate + exact PIP on pixel centers."""
    import numpy as np

    from geo_inference_ray import stages, synth
    from geo_inference_ray.geom import point_in_polygon
    from geo_inference_ray.tiling import (DEFAULT_GRID, pixel_counts,
                                          zonal_stats)

    geo = stages.geo_pipeline(sf_dir, with_cells=False)
    out = zonal_stats(geo, DEFAULT_GRID).to_pandas() \
        .set_index("poly_id").sort_index()
    pix = pixel_counts(
        stages.geo_pipeline(sf_dir, with_cells=False),
        DEFAULT_GRID).to_pandas()
    lonc = DEFAULT_GRID.min_lon + (pix["px"].to_numpy() + 0.5) \
        * DEFAULT_GRID.pix
    latc = DEFAULT_GRID.max_lat - (pix["py"].to_numpy() + 0.5) \
        * DEFAULT_GRID.pix
    n = pix["n"].to_numpy()
    for p in synth.polygon_arrays():
        inside = point_in_polygon(lonc, latc, p["x1"], p["y1"],
                                  p["x2"], p["y2"])
        if p["poly_id"] in out.index:
            assert out.loc[p["poly_id"], "n_pixels"] == int(inside.sum())
            assert out.loc[p["poly_id"], "n_pages"] == int(n[inside].sum())
        else:
            assert not inside.any()


def test_pixel_counts_volume_bailout(ray_session, monkeypatch):
    """A many-block partial stream must route to the distributed
    groupby even when the GRID is small (driver-funnel guard), with
    identical results on both paths."""
    import pyarrow as pa
    import ray.data as rd

    from geo_inference_ray import shuffle, tiling
    from geo_inference_ray.tiling import DEFAULT_GRID, pixel_counts

    rng = np.random.default_rng(7)
    n = 4000
    tab = pa.table({
        "lat": pa.array(rng.uniform(-80, 80, n)),
        "lon": pa.array(rng.uniform(-170, 170, n)),
    })
    # many blocks -> many partials per occupied pixel
    ds = rd.from_arrow(tab).repartition(16).materialize()

    ref = pixel_counts(ds, DEFAULT_GRID).to_pandas() \
        .sort_values(["py", "px"]).reset_index(drop=True)
    assert tiling._LAST_COMBINE_PATH == "driver"

    monkeypatch.setattr(shuffle, "PARTIAL_ROWS_DRIVER_LIMIT", 100)
    out = pixel_counts(ds, DEFAULT_GRID).to_pandas() \
        .sort_values(["py", "px"]).reset_index(drop=True)
    assert tiling._LAST_COMBINE_PATH == "distributed"
    assert out.equals(ref)
    assert int(out["n"].sum()) == n

    # the same partials already on the driver, as the checkpoint write
    # hands them over: both paths, one Arrow table back
    import ray

    rows = ray.get(ds.to_arrow_refs())
    parts = [tiling.rasterize_partial(DEFAULT_GRID)(t) for t in rows]
    for limit, path in ((100, "distributed"), (16_000_000, "driver")):
        monkeypatch.setattr(shuffle, "PARTIAL_ROWS_DRIVER_LIMIT", limit)
        got = pixel_counts(parts, DEFAULT_GRID, rasterized=True)
        assert tiling._LAST_COMBINE_PATH == path
        assert got.schema.equals(tiling.PIXEL_SCHEMA)
        assert got.to_pandas().sort_values(["py", "px"]) \
            .reset_index(drop=True).equals(ref)
    # driver tables of geocoded rows are rasterized first
    assert pixel_counts(rows, DEFAULT_GRID).to_pandas().equals(ref)
    # driver tables take the driver route only
    big = GridConfig(width=4000, height=2000)
    with pytest.raises(ValueError):
        pixel_counts(parts, big, rasterized=True)
    with pytest.raises(ValueError):
        tiling.mask_tiles(parts, DEFAULT_GRID, rasterized=True,
                          scorer_resources={"num_cpus": 1})


def test_mutual_knn_is_symmetric_subset(ray_session, sf_dir):
    """Every mutual edge is a kNN edge in BOTH directions and every
    symmetric kNN pair is mutual (exact set equality vs the one-sided
    table)."""
    from geo_inference_ray.knn import knn_in_cells, mutual_knn
    from geo_inference_ray.stages import geo_pipeline

    knn = knn_in_cells(geo_pipeline(sf_dir)).to_pandas()
    mut = mutual_knn(geo_pipeline(sf_dir)).to_pandas()
    edges = set(zip(knn["doc_id"].tolist(), knn["neighbor_id"].tolist()))
    want = {(a, b) for (a, b) in edges if (b, a) in edges and a < b}
    got = set(zip(mut["doc_a"].tolist(), mut["doc_b"].tolist()))
    assert got == want and len(want) > 0
    ranks = {(r["doc_id"], r["neighbor_id"]): r["rank"]
             for _, r in knn.iterrows()}
    for _, r in mut.iterrows():
        assert r["rank_ab"] == ranks[(r["doc_a"], r["doc_b"])]
        assert r["rank_ba"] == ranks[(r["doc_b"], r["doc_a"])]
