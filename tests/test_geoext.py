"""Tests for geoext (second-order spatial analytics) plus the two
late-round analytics additions (weighted_median, streaks).

These pin SEMANTICS on tiny hand-checkable inputs (ring-1 scatter
geometry, chord-metric math, envelope-overlap edges, nearest-centroid
tie-break, weighted-median boundary, streak islands);
scripts/compare.py covers value equality vs DuckDB on the shared
tables.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


# ---------------------------------------------------------------------------
# cell_smooth
# ---------------------------------------------------------------------------

def test_cell_smooth_equals_ring1_neighborhood_sum(ray_session):
    import ray.data as rd

    from geo_inference_ray.geoext import cell_smooth
    from geo_inference_ray.knn import HEX_RING1_OFFSETS

    # three pages in one cell, one page in its +1 neighbor, one far away
    cells = [100 * 65536 + 200] * 3 + [100 * 65536 + 201] + [7_000_000]
    ds = rd.from_arrow(pa.table({"hex7": pa.array(cells, pa.int64())}))
    out = cell_smooth(ds).to_pandas().set_index("hex7")["n_smooth"]

    # brute-force reference: n_smooth(c) = sum over counts of c's disk
    counts = pd.Series(cells).value_counts()
    for cell, got in out.items():
        want = sum(counts.get(cell + o, 0) for o in HEX_RING1_OFFSETS)
        assert got == want
    # a populated cell's smoothed count covers itself + neighbors
    assert out[100 * 65536 + 200] == 4
    assert out[100 * 65536 + 201] == 4
    # an EMPTY cell adjacent to a populated one still appears
    assert out[100 * 65536 + 199] == 3
    assert out[7_000_000] == 1


# ---------------------------------------------------------------------------
# track_legs
# ---------------------------------------------------------------------------

def test_track_legs_chord_math_and_grouping(ray_session):
    from geo_inference_ray.geoext import track_legs

    res = track_legs(SF).to_pandas().sort_values("cluster")
    assert set(res.columns) == {"cluster", "n_legs", "max_leg_km",
                                "sum_leg_mm"}
    assert (res["n_legs"] >= 1).all()
    # chord distance is bounded by Earth's diameter
    assert (res["max_leg_km"] <= 12742.0).all()
    assert (res["max_leg_km"] > 0).all()
    # quantized sum is consistent with the max leg
    assert (res["sum_leg_mm"]
            >= np.floor(res["max_leg_km"] * 1e6)).all()

    # brute-force reference on the same geocode
    from geo_inference_ray import synth
    ids = pq.read_table(f"{SF}/documents.parquet")["doc_id"].to_numpy()
    lat, lon, cluster = synth.geocode_ids(np.sort(ids))
    df = pd.DataFrame({"cluster": cluster, "lat": lat, "lon": lon},
                      index=np.sort(ids)).sort_index()
    want = {}
    for cl, g in df.groupby("cluster"):
        if len(g) < 2:
            continue
        la, lo = g["lat"].to_numpy(), g["lon"].to_numpy()
        sd1 = np.sin(np.deg2rad(la[1:] - la[:-1]) / 2.0)
        c1 = np.cos(np.deg2rad(la[:-1]))
        c2 = np.cos(np.deg2rad(la[1:]))
        sd2 = np.sin(np.deg2rad(lo[1:] - lo[:-1]) / 2.0)
        a = sd1 * sd1 + ((c1 * c2) * sd2) * sd2
        chord = 12742.0 * np.sqrt(a)
        want[cl] = (len(chord), chord.max(),
                    int(np.floor(chord * 1e6).astype(np.int64).sum()))
    got = {r.cluster: (r.n_legs, r.max_leg_km, r.sum_leg_mm)
           for r in res.itertuples()}
    assert got == want


# ---------------------------------------------------------------------------
# bbox_overlap_counts
# ---------------------------------------------------------------------------

def test_bbox_overlap_is_superset_of_pip(ray_session):
    """Envelope overlap is the FILTER phase: every exact point-in-
    polygon hit must be among the bbox candidates."""
    import __ray_entry__ as entrymod

    from geo_inference_ray.geoext import bbox_overlap_counts

    cand = bbox_overlap_counts(SF).to_pandas() \
        .set_index("poly_id")["n_docs"]
    exact = entrymod.q_pip_inner(SF).to_pandas() \
        .groupby("poly_id").size()
    for pid, n_exact in exact.items():
        assert cand.get(pid, 0) >= n_exact


def test_bbox_overlap_edge_inclusive(ray_session):
    """A page exactly eps away from the bbox edge still overlaps
    (closed intervals on both sides)."""
    from geo_inference_ray import synth
    from geo_inference_ray.geoext import BBOX_EPS_DEG

    p = synth.polygon_arrays()[0]
    xmin, ymin, xmax, ymax = p["bbox"]
    lat = np.array([ymax + BBOX_EPS_DEG])
    lon = np.array([(xmin + xmax) / 2])
    hit = ((lat - BBOX_EPS_DEG) <= ymax) & ((lat + BBOX_EPS_DEG) >= ymin) \
        & ((lon - BBOX_EPS_DEG) <= xmax) & ((lon + BBOX_EPS_DEG) >= xmin)
    assert hit.all()


# ---------------------------------------------------------------------------
# nearest_poly
# ---------------------------------------------------------------------------

def test_nearest_poly_assignment_is_argmin(ray_session):
    from geo_inference_ray import synth
    from geo_inference_ray.geoext import nearest_poly, poly_centroids

    res = nearest_poly(SF).to_pandas()
    ids = res["doc_id"].to_numpy()
    lat, lon, _ = synth.geocode_ids(ids)
    pids, cxs, cys = poly_centroids()
    d2 = (lat[:, None] - cys[None, :]) ** 2 \
        + (lon[:, None] - cxs[None, :]) ** 2
    assert np.array_equal(res["poly_id"].to_numpy(),
                          pids[np.argmin(d2, axis=1)])
    assert np.array_equal(res["d2"].to_numpy(), d2.min(axis=1))
    # every page is assigned exactly once
    assert len(res) == len(np.unique(ids)) == len(ids)


def test_poly_centroid_terms_reconstruct_doubles():
    from geo_inference_ray import synth
    from geo_inference_ray.geoext import poly_centroid_terms, poly_centroids

    pids, cxs, cys = poly_centroids()
    assert list(pids) == sorted(p["poly_id"] for p in synth.POLYGONS)
    for (p, sx, sy, n), cx, cy in zip(poly_centroid_terms(), cxs, cys):
        assert cx == float(sx) / 1000.0 / n
        assert cy == float(sy) / 1000.0 / n


# ---------------------------------------------------------------------------
# weighted_median
# ---------------------------------------------------------------------------

def _write_lineitem(tmp_path, rows):
    t = pa.table({
        "l_orderkey": pa.array(range(len(rows)), pa.int64()),
        "l_partkey": pa.array([0] * len(rows), pa.int64()),
        "l_suppkey": pa.array([0] * len(rows), pa.int64()),
        "l_linenumber": pa.array([1] * len(rows), pa.int32()),
        "l_quantity": pa.array([float(r[1]) for r in rows], pa.float64()),
        "l_extendedprice": pa.array([r[2] for r in rows], pa.float64()),
        "l_discount": pa.array([0.0] * len(rows), pa.float64()),
        "l_tax": pa.array([0.0] * len(rows), pa.float64()),
        "l_returnflag": pa.array([r[0] for r in rows], pa.string()),
        "l_linestatus": pa.array(["O"] * len(rows), pa.string()),
        "l_shipdate": pa.array([0] * len(rows), pa.timestamp("us")),
    })
    d = tmp_path / "li"
    d.mkdir()
    pq.write_table(t, d / "lineitem.parquet")
    return str(d)


def test_weighted_median_lower_median_boundary(ray_session, tmp_path):
    from geo_inference_ray.analytics import weighted_median

    # flag A: prices 1.00 (qty 1), 2.00 (qty 1) -> total 2, 2*cum at
    # 1.00 is 2 >= 2 -> LOWER median 100 cents.
    # flag B: prices 1.00 (qty 1), 2.00 (qty 3) -> 2*cum at 1.00 is
    # 2 < 4 -> median 200 cents.
    sf = _write_lineitem(tmp_path, [
        ("A", 1, 1.00), ("A", 1, 2.00),
        ("B", 1, 1.00), ("B", 3, 2.00),
    ])
    res = weighted_median(sf).to_pandas() \
        .set_index("l_returnflag")["wmedian_cents"]
    assert res["A"] == 100
    assert res["B"] == 200


# ---------------------------------------------------------------------------
# streaks
# ---------------------------------------------------------------------------

def test_streaks_islands_and_duplicate_days(ray_session, tmp_path):
    from geo_inference_ray.analytics import streaks

    day_us = 86_400_000_000
    rows = []
    # user 1: days 10,11,12 then 20,21 (two events on day 11 -> dedup)
    for d in (10, 11, 11, 12, 20, 21):
        rows.append((len(rows), d * day_us + 5, 1, "view"))
    # user 2: single day
    rows.append((len(rows), 40 * day_us, 2, "view"))

    t = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "user_id": pa.array([r[2] for r in rows], pa.int64()),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
        "value": pa.array([0.0] * len(rows), pa.float64()),
        "props": pa.array(["{}"] * len(rows), pa.string()),
    })
    d = tmp_path / "ev"
    d.mkdir()
    pq.write_table(t, d / "events.parquet")

    res = streaks(str(d)).to_pandas().set_index("user_id")
    assert res.loc[1, "n_active_days"] == 5
    assert res.loc[1, "max_streak"] == 3
    assert res.loc[2, "n_active_days"] == 1
    assert res.loc[2, "max_streak"] == 1


# ---------------------------------------------------------------------------
# zorder_counts
# ---------------------------------------------------------------------------

def test_part1by1_matches_bit_interleave_reference():
    from geo_inference_ray.geoext import _part1by1

    rng = np.random.default_rng(7)
    xs = np.concatenate([[0, 1, 0xFFFF, 0x8000],
                         rng.integers(0, 65536, 64)]).astype(np.int64)
    got = _part1by1(xs.copy())
    for x, g in zip(xs.tolist(), got.tolist()):
        want = sum(((x >> i) & 1) << (2 * i) for i in range(16))
        assert g == want


def test_zorder_counts_total_and_prefix_locality(ray_session):
    from geo_inference_ray.geoext import zorder_counts

    res = zorder_counts(SF).to_pandas()
    assert res["n_pages"].sum() == 500          # every page bucketed once
    assert (res["n_pages"] >= 1).all()
    assert res["zprefix"].between(0, 4095).all()  # 32-bit z >> 20
    # locality: one geocluster's ±0.5-degree jitter box spans few
    # prefixes, so buckets are far fewer than pages
    assert len(res) < 100


# ---------------------------------------------------------------------------
# dist_join
# ---------------------------------------------------------------------------

def test_dist_join_matches_brute_force(ray_session):
    from geo_inference_ray.geoext import (
        DIST_RADIUS_KM, dist_join, poly_centroids)
    from geo_inference_ray.stages import geo_pipeline

    res = dist_join(SF).to_pandas().set_index("poly_id")["n_docs"]

    pages = geo_pipeline(SF, with_cells=False) \
        .select_columns(["lat", "lon"]).to_pandas()
    pids, cxs, cys = poly_centroids()
    lat = pages["lat"].to_numpy()[:, None]
    lon = pages["lon"].to_numpy()[:, None]
    sd1 = np.sin(np.deg2rad(cys[None, :] - lat) / 2.0)
    a = sd1 * sd1 + ((np.cos(np.deg2rad(lat))
                      * np.cos(np.deg2rad(cys[None, :])))
                     * np.sin(np.deg2rad(cxs[None, :] - lon) / 2.0)) \
        * np.sin(np.deg2rad(cxs[None, :] - lon) / 2.0)
    want = (12742.0 * np.sqrt(a) < DIST_RADIUS_KM).sum(axis=0)
    for pid, w in zip(pids.tolist(), want.tolist()):
        assert res.get(pid, 0) == w
    assert res.sum() == want.sum() > 0


# ---------------------------------------------------------------------------
# hotspots
# ---------------------------------------------------------------------------

def test_hotspots_integer_threshold(ray_session):
    import ray.data as rd

    from geo_inference_ray.geoext import hotspots
    from geo_inference_ray.knn import HEX_RING1_OFFSETS

    base = 100 * 65536 + 200
    # dense blob: 20 pages in one cell, 10 in a neighbor; 50 singletons
    # spread far apart (T=80, C=52: hot needs disk*52 > 14*80=1120,
    # i.e. disk > 21.5 — the blob's disk of 30 qualifies, nothing else)
    cells = [base] * 20 + [base + 1] * 10 + \
            [7_000_000 + 10 * i for i in range(50)]
    ds = rd.from_arrow(pa.table({"hex7": pa.array(cells, pa.int64())}))
    res = hotspots(ds, factor=2).to_pandas().set_index("hex7")

    counts = pd.Series(cells).value_counts()
    T, C = len(cells), len(counts)          # 80 pages, 52 cells
    for cell in counts.index:
        disk = sum(counts.get(cell + o, 0) for o in HEX_RING1_OFFSETS)
        want_hot = disk * C > 2 * 7 * T
        assert (cell in res.index) == want_hot
        if want_hot:
            assert res.loc[cell, "n_disk"] == disk
            assert res.loc[cell, "n_pages"] == counts[cell]
    # the blob cells are hot (disk 30 > 21.5), singletons are not
    assert base in res.index and base + 1 in res.index
    assert len(res) == 2


# ---------------------------------------------------------------------------
# hex_clusters
# ---------------------------------------------------------------------------

def test_hex_clusters_region_growing(ray_session):
    import ray.data as rd

    from geo_inference_ray.geoext import hex_clusters

    base = 50 * 65536 + 300
    cells = (
        [base] * 3                 # dense
        + [base + 1] * 4           # dense, adjacent to base
        + [base + 65536] * 3       # dense, adjacent to base (axial +r)
        + [base + 10] * 5          # dense, isolated -> own component
        + [base + 2] * 2           # SPARSE (n=2 < 3): not a member and
        + [base - 1]               # no bridge through it
    )
    ds = rd.from_arrow(pa.table({"hex7": pa.array(cells, pa.int64())}))
    res = hex_clusters(ds, minpts=3).to_pandas() \
        .sort_values("cluster").reset_index(drop=True)

    # two components: {base, base+1, base+65536} labeled min=base,
    # and the isolated {base+10}
    assert len(res) == 2
    assert res.loc[0, "cluster"] == base
    assert res.loc[0, "n_cells"] == 3
    assert res.loc[0, "n_pages"] == 10
    assert res.loc[1, "cluster"] == base + 10
    assert res.loc[1, "n_cells"] == 1
    assert res.loc[1, "n_pages"] == 5


# ---------------------------------------------------------------------------
# stops
# ---------------------------------------------------------------------------

def test_stops_matches_loop_reference(ray_session):
    from geo_inference_ray.geoext import (
        EARTH_DIAMETER_KM, STOP_EPS_KM, STOP_MIN_LEGS, stops)
    from geo_inference_ray.stages import geo_pipeline

    res = stops(SF).to_pandas().set_index("cluster")

    pages = geo_pipeline(SF, with_cells=False) \
        .select_columns(["cluster", "doc_id", "lat", "lon"]) \
        .to_pandas().sort_values(["cluster", "doc_id"])
    # plain-Python island scan per cluster (reference algorithm)
    want = {}
    for cl, g in pages.groupby("cluster"):
        lat = g["lat"].to_numpy()
        lon = g["lon"].to_numpy()
        runs, cur = [], 0
        for i in range(1, len(g)):
            sd1 = np.sin(np.deg2rad(lat[i] - lat[i - 1]) / 2.0)
            sd2 = np.sin(np.deg2rad(lon[i] - lon[i - 1]) / 2.0)
            a = sd1 * sd1 + ((np.cos(np.deg2rad(lat[i - 1]))
                              * np.cos(np.deg2rad(lat[i]))) * sd2) * sd2
            if EARTH_DIAMETER_KM * np.sqrt(a) < STOP_EPS_KM:
                cur += 1
            else:
                if cur:
                    runs.append(cur)
                cur = 0
        if cur:
            runs.append(cur)
        keep = [r for r in runs if r >= STOP_MIN_LEGS]
        if keep:
            want[cl] = (len(keep), max(keep))

    assert set(res.index) == set(want)
    for cl, (n, mx) in want.items():
        assert res.loc[cl, "n_stops"] == n
        assert res.loc[cl, "max_stop_legs"] == mx
    assert len(want) > 0          # the fixture produces real stops


# ---------------------------------------------------------------------------
# bearings
# ---------------------------------------------------------------------------

def test_bearings_octants_match_loop_reference(ray_session):
    from geo_inference_ray.geoext import bearings
    from geo_inference_ray.stages import geo_pipeline

    res = bearings(SF).to_pandas()
    got = {(r.cluster, r.octant): r.n_legs for r in res.itertuples()}

    pages = geo_pipeline(SF, with_cells=False) \
        .select_columns(["cluster", "doc_id", "lat", "lon"]) \
        .to_pandas().sort_values(["cluster", "doc_id"])
    want: dict = {}
    for cl, g in pages.groupby("cluster"):
        lat = g["lat"].to_numpy()
        lon = g["lon"].to_numpy()
        for i in range(1, len(g)):
            dlat, dlon = lat[i] - lat[i - 1], lon[i] - lon[i - 1]
            if abs(dlon) >= abs(dlat):
                o = (0 if dlat >= 0 else 7) if dlon >= 0 \
                    else (3 if dlat >= 0 else 4)
            else:
                o = (1 if dlon >= 0 else 2) if dlat >= 0 \
                    else (6 if dlon >= 0 else 5)
            want[(cl, o)] = want.get((cl, o), 0) + 1
    assert got == want
    assert res["n_legs"].sum() == len(pages) - pages["cluster"].nunique()


# ---------------------------------------------------------------------------
# zonal_mode
# ---------------------------------------------------------------------------

def test_zonal_mode_majority_and_tiebreak(ray_session):
    from geo_inference_ray.geoext import zonal_mode
    from geo_inference_ray.stages import geo_pipeline

    res = zonal_mode(SF).to_pandas().set_index("poly_id")

    pip = geo_pipeline(SF, mode="inner") \
        .select_columns(["poly_id", "lang"]).to_pandas()
    cnt = pip.groupby(["poly_id", "lang"]).size().reset_index(name="n")
    want = cnt.sort_values(["poly_id", "n", "lang"],
                           ascending=[True, False, True]) \
        .groupby("poly_id").first()
    assert set(res.index) == set(want.index)
    for pid in want.index:
        assert res.loc[pid, "top_lang"] == want.loc[pid, "lang"]
        assert res.loc[pid, "n_docs"] == want.loc[pid, "n"]


# ---------------------------------------------------------------------------
# z_range
# ---------------------------------------------------------------------------

def test_z_range_counts_match_brute(ray_session):
    from geo_inference_ray.geoext import Z_RANGES, z_range, zkeys
    from geo_inference_ray.stages import geo_pipeline

    res = z_range(SF).to_pandas().set_index("range_id")["n_pages"]

    pages = geo_pipeline(SF, with_cells=False) \
        .select_columns(["lat", "lon"]).to_pandas()
    z = zkeys(pages["lat"].to_numpy(), pages["lon"].to_numpy())
    for i, (lo, hi) in enumerate(Z_RANGES):
        want = int(((z >= lo) & (z < hi)).sum())
        assert res.get(i, 0) == want
    assert res.sum() > 0


# ---------------------------------------------------------------------------
# pip_anti (stages.PIPJoiner mode="anti")
# ---------------------------------------------------------------------------

def test_pip_anti_is_exact_complement_of_semi(ray_session):
    from geo_inference_ray.stages import geo_pipeline

    all_ids = set(geo_pipeline(SF, with_cells=False)
                  .select_columns(["doc_id"]).to_pandas()["doc_id"])
    semi = set(geo_pipeline(SF, mode="semi")
               .select_columns(["doc_id"]).to_pandas()["doc_id"])
    anti = set(geo_pipeline(SF, mode="anti")
               .select_columns(["doc_id"]).to_pandas()["doc_id"])

    assert semi | anti == all_ids
    assert semi & anti == set()
    assert len(anti) > 0          # synth scatter leaves misses


# ---------------------------------------------------------------------------
# cluster_centroid
# ---------------------------------------------------------------------------

def test_cluster_centroid_matches_integer_sum_reference(ray_session):
    from geo_inference_ray import synth
    from geo_inference_ray.geoext import LATLON_SCALE, cluster_centroid

    res = cluster_centroid(SF).to_pandas().set_index("cluster")

    ids = np.sort(pq.read_table(f"{SF}/documents.parquet")["doc_id"]
                  .to_numpy())
    lat, lon, cluster = synth.geocode_ids(ids)
    ilat = np.floor(lat * LATLON_SCALE + 0.5).astype(np.int64)
    ilon = np.floor(lon * LATLON_SCALE + 0.5).astype(np.int64)
    df = pd.DataFrame({"cluster": cluster, "ilat": ilat, "ilon": ilon})
    want = df.groupby("cluster").agg(n=("ilat", "size"),
                                     slat=("ilat", "sum"),
                                     slon=("ilon", "sum"))

    assert set(res.index) == set(want.index)
    for cl in want.index:
        n = want.loc[cl, "n"]
        assert res.loc[cl, "n_pages"] == n
        # bitwise: same expression order as the kernel and the oracle
        assert res.loc[cl, "clat"] == (want.loc[cl, "slat"]
                                       / LATLON_SCALE) / n
        assert res.loc[cl, "clon"] == (want.loc[cl, "slon"]
                                       / LATLON_SCALE) / n
    # the integer grid recovery is lossless on the synth geocoder
    assert np.allclose(ilat / LATLON_SCALE, lat, atol=1e-7)


# ---------------------------------------------------------------------------
# cell_langmix
# ---------------------------------------------------------------------------

def test_cell_langmix_distinct_and_majority_share(ray_session):
    import ray.data as rd

    from geo_inference_ray.geoext import cell_langmix

    # cell 10: 3 en + 1 fr -> 2 langs, 750 permille
    # cell 20: 2 de        -> 1 lang, 1000 permille
    # cell 30: 1 en + 1 fr + 1 de -> 3 langs, 333 permille (floor)
    t = pa.table({
        "hex7": pa.array([10, 10, 10, 10, 20, 20, 30, 30, 30],
                         pa.int64()),
        "lang": pa.array(["en", "en", "en", "fr", "de", "de",
                          "en", "fr", "de"]),
    })
    res = cell_langmix(rd.from_arrow(t)).to_pandas().set_index("hex7")

    assert res.loc[10, "n_langs"] == 2
    assert res.loc[10, "top_permille"] == 750
    assert res.loc[20, "n_langs"] == 1
    assert res.loc[20, "top_permille"] == 1000
    assert res.loc[30, "n_langs"] == 3
    assert res.loc[30, "top_permille"] == 333
    assert res["top_permille"].dtype == np.int64


# ---------------------------------------------------------------------------
# od_flows
# ---------------------------------------------------------------------------

def test_od_flows_matches_endpoint_reference(ray_session):
    from geo_inference_ray import synth
    from geo_inference_ray.cells import HEX7_SIZE, hex_cell
    from geo_inference_ray.geoext import od_flows

    res = od_flows(SF).to_pandas()
    assert set(res.columns) == {"o_hex", "d_hex", "n_tracks"}

    ids = np.sort(pq.read_table(f"{SF}/documents.parquet")["doc_id"]
                  .to_numpy())
    lat, lon, cluster = synth.geocode_ids(ids)
    hx = hex_cell(lat, lon, HEX7_SIZE)
    df = pd.DataFrame({"cluster": cluster, "doc_id": ids, "hex7": hx})
    lo = df.loc[df.groupby("cluster")["doc_id"].idxmin()] \
        .set_index("cluster")["hex7"]
    hi = df.loc[df.groupby("cluster")["doc_id"].idxmax()] \
        .set_index("cluster")["hex7"]
    want = pd.DataFrame({"o_hex": lo, "d_hex": hi}) \
        .groupby(["o_hex", "d_hex"]).size()

    got = res.set_index(["o_hex", "d_hex"])["n_tracks"]
    assert len(got) == len(want)
    for k, v in want.items():
        assert got[k] == v
    # every cluster contributes exactly one track
    assert int(res["n_tracks"].sum()) == df["cluster"].nunique()


# ---------------------------------------------------------------------------
# radius_gyration
# ---------------------------------------------------------------------------

def test_radius_gyration_matches_quantized_variance(ray_session):
    from geo_inference_ray import synth
    from geo_inference_ray.geoext import RGYR_SCALE, radius_gyration

    res = radius_gyration(SF).to_pandas().set_index("cluster")

    ids = np.sort(pq.read_table(f"{SF}/documents.parquet")["doc_id"]
                  .to_numpy())
    lat, lon, cluster = synth.geocode_ids(ids)
    qx = np.floor(lat * RGYR_SCALE + 0.5).astype(np.int64)
    qy = np.floor(lon * RGYR_SCALE + 0.5).astype(np.int64)
    df = pd.DataFrame({"cluster": cluster, "qx": qx, "qy": qy})
    for cl, g in df.groupby("cluster"):
        n = float(len(g))
        sx, sy = float(g["qx"].sum()), float(g["qy"].sum())
        sxx = float((g["qx"].to_numpy() ** 2).sum())
        syy = float((g["qy"].to_numpy() ** 2).sum())
        mx, my = sx / n, sy / n
        v = max((sxx / n - mx * mx) + (syy / n - my * my), 0.0)
        want = np.sqrt(v) / RGYR_SCALE
        assert res.loc[cl, "rgyr_deg"] == want   # bitwise
        assert res.loc[cl, "n_pages"] == len(g)
    # dispersion is bounded by the synth cluster jitter (~0.5 deg box)
    assert (res["rgyr_deg"] <= 1.0).all()
    assert (res["rgyr_deg"] >= 0.0).all()


# ---------------------------------------------------------------------------
# geohash
# ---------------------------------------------------------------------------

def test_geohash5_matches_bisection_reference():
    """Pin the ladder kernel against the textbook bit-bisection
    geohash algorithm (lon-first interleave, base-32 readout)."""
    from geo_inference_ray.geoext import GEOHASH32, geohash5

    rng = np.random.RandomState(7)
    lat = rng.uniform(-89.9, 89.9, 200)
    lon = rng.uniform(-179.9, 179.9, 200)

    def ref_one(la, lo, nchars=5):
        lat_rng, lon_rng = [-90.0, 90.0], [-180.0, 180.0]
        bits, even, out = 0, True, []
        ch = 0
        for _ in range(nchars * 5):
            if even:
                mid = (lon_rng[0] + lon_rng[1]) / 2
                bit = lo >= mid
                lon_rng[0 if bit else 1] = mid
            else:
                mid = (lat_rng[0] + lat_rng[1]) / 2
                bit = la >= mid
                lat_rng[0 if bit else 1] = mid
            ch = ch * 2 + int(bit)
            even = not even
            bits += 1
            if bits % 5 == 0:
                out.append(GEOHASH32[ch])
                ch = 0
        return "".join(out)

    got = geohash5(lat, lon)
    for i in range(len(lat)):
        assert got[i] == ref_one(lat[i], lon[i]), \
            (lat[i], lon[i], got[i], ref_one(lat[i], lon[i]))


def test_geohash_counts_total(ray_session):
    from geo_inference_ray.geoext import geohash_counts

    res = geohash_counts(SF).to_pandas()
    assert int(res["n_pages"].sum()) == 500
    assert res["ghash"].str.len().eq(5).all()
    assert res["ghash"].is_unique


# ---------------------------------------------------------------------------
# cell_markov
# ---------------------------------------------------------------------------

def test_cell_markov_matches_loop_reference(ray_session):
    from geo_inference_ray import synth
    from geo_inference_ray.cells import HEX7_SIZE, hex_cell
    from geo_inference_ray.geoext import cell_markov

    res = cell_markov(SF).to_pandas() \
        .set_index(["from_hex", "to_hex"])["n_moves"]

    ids = np.sort(pq.read_table(f"{SF}/documents.parquet")["doc_id"]
                  .to_numpy())
    lat, lon, cluster = synth.geocode_ids(ids)
    hx = hex_cell(lat, lon, HEX7_SIZE)
    want: dict = {}
    df = pd.DataFrame({"cluster": cluster, "doc_id": ids, "hex7": hx}) \
        .sort_values(["cluster", "doc_id"])
    for _, g in df.groupby("cluster"):
        h = g["hex7"].to_numpy()
        for a, b in zip(h[:-1], h[1:]):
            want[(a, b)] = want.get((a, b), 0) + 1

    assert len(res) == len(want)
    for k, v in want.items():
        assert res[k] == v
    # chain length identity: moves = pages - clusters
    assert int(res.sum()) == len(ids) - df["cluster"].nunique()


# ---------------------------------------------------------------------------
# emb_quantize
# ---------------------------------------------------------------------------

def test_emb_quantize_codes_exact(ray_session):
    from geo_inference_ray.ann import emb_quantize

    res = emb_quantize(SF).to_pandas()
    emb = np.stack(pq.read_table(f"{SF}/embeddings.parquet")
                   ["embedding"].to_numpy(zero_copy_only=False)) \
        .astype(np.float64)
    vec_ids = pq.read_table(f"{SF}/embeddings.parquet")["vec_id"] \
        .to_numpy()
    q = np.floor(1000.0 * emb).astype(np.int64)
    mn = q.min(axis=0)
    rng = np.maximum(q.max(axis=0) - mn, 1)
    want = (q - mn) * 255 // rng

    assert len(res) == emb.size
    piv = res.pivot(index="vec_id", columns="dim_idx", values="code") \
        .loc[vec_ids].to_numpy()
    assert (piv == want).all()
    assert want.min() == 0 and want.max() == 255
    # every dim's min maps to 0 and max to 255 (range-exact codes)
    assert (want.min(axis=0) == 0).all()
    assert (want.max(axis=0) == 255).all()


# ---------------------------------------------------------------------------
# mobility_entropy
# ---------------------------------------------------------------------------

def test_mobility_entropy_matches_loop_reference(ray_session):
    from geo_inference_ray import synth
    from geo_inference_ray.cells import HEX7_SIZE, hex_cell
    from geo_inference_ray.geoext import mobility_entropy

    res = mobility_entropy(SF).to_pandas().set_index("cluster")

    ids = np.sort(pq.read_table(f"{SF}/documents.parquet")["doc_id"]
                  .to_numpy())
    lat, lon, cluster = synth.geocode_ids(ids)
    hx = hex_cell(lat, lon, HEX7_SIZE)
    df = pd.DataFrame({"cluster": cluster, "hex7": hx})
    for cl, g in df.groupby("cluster"):
        cnt = g["hex7"].value_counts().to_numpy().astype(np.float64)
        n = cnt.sum()
        term = np.floor(-1000.0 * np.log(cnt / n)).astype(np.int64)
        numer = int((cnt.astype(np.int64) * term).sum())
        assert res.loc[cl, "n_pages"] == int(n)
        assert res.loc[cl, "entropy_numer_milli"] == numer
    # single-cell clusters have exactly zero entropy numerator
    one_cell = df.groupby("cluster")["hex7"].nunique() == 1
    for cl in one_cell[one_cell].index:
        assert res.loc[cl, "entropy_numer_milli"] == 0


# ---------------------------------------------------------------------------
# traj_jaccard
# ---------------------------------------------------------------------------

def test_traj_jaccard_matches_set_reference(ray_session):
    from geo_inference_ray import synth
    from geo_inference_ray.geoext import TRAJ_CELL_DEG, traj_jaccard

    res = traj_jaccard(SF).to_pandas()
    assert len(res) > 0          # the 20-deg grid yields real pairs

    ids = np.sort(pq.read_table(f"{SF}/documents.parquet")["doc_id"]
                  .to_numpy())
    lat, lon, cluster = synth.geocode_ids(ids)
    hx = (np.floor((lat + 90.0) / TRAJ_CELL_DEG).astype(np.int64)
          * 4096
          + np.floor((lon + 180.0) / TRAJ_CELL_DEG).astype(np.int64))
    sets = {cl: set(g)
            for cl, g in pd.Series(hx).groupby(pd.Series(cluster))}
    want = {}
    cls = sorted(sets)
    for i, a in enumerate(cls):
        for b in cls[i + 1:]:
            inter = len(sets[a] & sets[b])
            if inter:
                union = len(sets[a] | sets[b])
                want[(a, b)] = (inter, union, 1000 * inter // union)

    got = {(r.c1, r.c2): (r.n_inter, r.n_union, r.jac_permille)
           for r in res.itertuples()}
    assert got == want
    # permille range + identity sanity
    assert all(0 < v[2] <= 1000 for v in got.values())


def test_traj_jaccard_join_path_matches_broadcast(ray_session,
                                                 monkeypatch):
    """Over TRAJ_BROADCAST_MAX clusters the set sizes attach through
    two hash joins instead of the broadcast probe: same pairs."""
    import geo_inference_ray.geoext as gx

    cols = ["c1", "c2", "n_inter", "n_union", "jac_permille"]
    a = gx.traj_jaccard(SF).to_pandas()[cols] \
        .sort_values(["c1", "c2"]).reset_index(drop=True)
    monkeypatch.setattr(gx, "TRAJ_BROADCAST_MAX", 0)
    b = gx.traj_jaccard(SF).to_pandas()[cols] \
        .sort_values(["c1", "c2"]).reset_index(drop=True)
    assert len(a) > 0
    pd.testing.assert_frame_equal(a.astype("int64"), b.astype("int64"))


def test_traj_jaccard_cell_cap_raises(ray_session):
    """The pair kernel refuses a cell hotter than the documented cap
    instead of emitting O(k^2) pairs silently."""
    import geo_inference_ray.geoext as gx

    old = gx.TRAJ_MAX_CLUSTERS_PER_CELL
    gx.TRAJ_MAX_CLUSTERS_PER_CELL = 1
    try:
        with pytest.raises(Exception):
            gx.traj_jaccard(SF).to_pandas()
    finally:
        gx.TRAJ_MAX_CLUSTERS_PER_CELL = old


# ---------------------------------------------------------------------------
# peak_hour
# ---------------------------------------------------------------------------

def test_peak_hour_matches_loop_reference(ray_session):
    from geo_inference_ray import synth
    from geo_inference_ray.cells import HEX7_SIZE, hex_cell
    from geo_inference_ray.geoext import peak_hour

    res = peak_hour(SF).to_pandas().set_index("hex7")

    ids = np.sort(pq.read_table(f"{SF}/documents.parquet")["doc_id"]
                  .to_numpy())
    lat, lon, _ = synth.geocode_ids(ids)
    hx = hex_cell(lat, lon, HEX7_SIZE)
    hr = (ids // 3600) % 24       # warc_ts = 2024-01-01 + doc_id sec
    df = pd.DataFrame({"hex7": hx, "hr": hr})
    for cell, g in df.groupby("hex7"):
        vc = g.groupby("hr").size()
        top = vc.max()
        # tie-break: lowest hour among the maxima
        want_hr = min(h for h, v in vc.items() if v == top)
        assert res.loc[cell, "peak_hour"] == want_hr
        assert res.loc[cell, "n_peak"] == top
    assert res["peak_hour"].between(0, 23).all()


# ---------------------------------------------------------------------------
# hilbert
# ---------------------------------------------------------------------------

def test_hilbert_d_is_a_bijection_and_adjacent():
    """The 256x256 Hilbert map is a bijection onto [0, 65536) and
    consecutive d values are always grid-adjacent (the defining
    property Z-order lacks)."""
    from geo_inference_ray.geoext import hilbert_d

    n = 256
    xx, yy = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    d = hilbert_d(xx.ravel(), yy.ravel())
    assert sorted(d.tolist()) == list(range(n * n))
    # invert and check the walk is king-move-free unit steps
    inv_x = np.empty(n * n, np.int64)
    inv_y = np.empty(n * n, np.int64)
    inv_x[d] = xx.ravel()
    inv_y[d] = yy.ravel()
    step = np.abs(np.diff(inv_x)) + np.abs(np.diff(inv_y))
    assert (step == 1).all()


def test_hilbert_counts_total(ray_session):
    from geo_inference_ray.geoext import hilbert_counts

    res = hilbert_counts(SF).to_pandas()
    assert int(res["n_pages"].sum()) == 500
    assert res["hprefix"].between(0, 255).all()


# ---------------------------------------------------------------------------
# cell_sample
# ---------------------------------------------------------------------------

def test_cell_sample_picks_k_smallest_hashes(ray_session):
    from geo_inference_ray import synth
    from geo_inference_ray.cells import HEX7_SIZE, hex_cell
    from geo_inference_ray.geoext import (CELL_SAMPLE_K,
                                          CELL_SAMPLE_MOD,
                                          CELL_SAMPLE_MULT, cell_sample)

    res = cell_sample(SF).to_pandas()

    ids = np.sort(pq.read_table(f"{SF}/documents.parquet")["doc_id"]
                  .to_numpy())
    lat, lon, _ = synth.geocode_ids(ids)
    hx = hex_cell(lat, lon, HEX7_SIZE)
    h = (ids % CELL_SAMPLE_MOD * CELL_SAMPLE_MULT) % CELL_SAMPLE_MOD
    df = pd.DataFrame({"hex7": hx, "doc_id": ids, "h": h}) \
        .sort_values(["hex7", "h", "doc_id"], kind="stable")
    df["rank"] = df.groupby("hex7").cumcount() + 1
    want = df[df["rank"] <= CELL_SAMPLE_K][["hex7", "doc_id", "rank"]]

    got = res.sort_values(["hex7", "rank"]).reset_index(drop=True)
    want = want.sort_values(["hex7", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["hex7", "doc_id", "rank"]], want, check_dtype=False)
    # every cell contributes at most k, and dense cells exactly k
    per = got.groupby("hex7").size()
    assert (per <= CELL_SAMPLE_K).all()
    dense = df.groupby("hex7").size()
    assert (per[dense[dense >= CELL_SAMPLE_K].index]
            == CELL_SAMPLE_K).all()


# ---------------------------------------------------------------------------
# z_splits
# ---------------------------------------------------------------------------

def test_z_splits_balance_and_exactness(ray_session):
    from geo_inference_ray import synth
    from geo_inference_ray.geoext import (Z_SPLITS_N, ZPREFIX_SHIFT,
                                          z_splits, zkeys)
    from geo_inference_ray.stages import geo_pipeline

    res = z_splits(SF).to_pandas().set_index("split_idx")
    assert len(res) == Z_SPLITS_N - 1

    ids = np.sort(pq.read_table(f"{SF}/documents.parquet")["doc_id"]
                  .to_numpy())
    lat, lon, _ = synth.geocode_ids(ids)
    zp = zkeys(lat, lon) >> ZPREFIX_SHIFT
    u, cnt = np.unique(zp, return_counts=True)
    cum = np.cumsum(cnt)
    total = int(cum[-1])
    for i in range(1, Z_SPLITS_N):
        target = -(-i * total // Z_SPLITS_N)
        pos = int(np.searchsorted(cum, target))
        assert res.loc[i, "zprefix"] == u[pos]
        assert res.loc[i, "cum_pages"] == cum[pos]
        # defining property: smallest prefix reaching the target
        assert cum[pos] >= target
        if pos:
            assert cum[pos - 1] < target
    # split points are non-decreasing (valid range bounds)
    assert (np.diff(res["zprefix"].to_numpy()) >= 0).all()


# ---------------------------------------------------------------------------
# cluster_bbox
# ---------------------------------------------------------------------------

def test_cluster_bbox_matches_reference_and_contains_pages(ray_session):
    from geo_inference_ray import synth
    from geo_inference_ray.geoext import LATLON_SCALE, cluster_bbox

    res = cluster_bbox(SF).to_pandas().set_index("cluster")

    ids = np.sort(pq.read_table(f"{SF}/documents.parquet")["doc_id"]
                  .to_numpy())
    lat, lon, cluster = synth.geocode_ids(ids)
    ilat = np.floor(lat * LATLON_SCALE + 0.5).astype(np.int64)
    ilon = np.floor(lon * LATLON_SCALE + 0.5).astype(np.int64)
    df = pd.DataFrame({"cluster": cluster, "ilat": ilat, "ilon": ilon})
    want = df.groupby("cluster").agg(
        mn_lat=("ilat", "min"), mx_lat=("ilat", "max"),
        mn_lon=("ilon", "min"), mx_lon=("ilon", "max"))
    for cl in want.index:
        w = want.loc[cl]
        r = res.loc[cl]
        assert (r["mn_lat"], r["mx_lat"], r["mn_lon"], r["mx_lon"]) \
            == (w["mn_lat"], w["mx_lat"], w["mn_lon"], w["mx_lon"])
        assert r["box_area"] == (w["mx_lat"] - w["mn_lat"]) \
            * (w["mx_lon"] - w["mn_lon"])
    # jitter is +-0.5 deg -> box edge bounded by 1 deg = 2e6 half-us
    assert (res["mx_lat"] - res["mn_lat"] <= 2_000_000).all()
    assert (res["mx_lon"] - res["mn_lon"] <= 2_000_000).all()


# ---------------------------------------------------------------------------
# s2_compact
# ---------------------------------------------------------------------------

def test_s2_compact_cover_is_exact_and_minimal(ray_session):
    """Expanding every level-11 row to its 4 children plus the level-12
    rows reproduces the distinct populated cell set EXACTLY, and no
    level-12 row's sibling set is complete (else it would have been
    compacted)."""
    from geo_inference_ray.cells import s2_parent
    from geo_inference_ray.geoext import s2_compact
    from geo_inference_ray.stages import geo_pipeline

    pages = geo_pipeline(SF).select_columns(["s2_12"]).to_pandas()
    want = np.unique(pages["s2_12"].to_numpy())          # uint64

    out = s2_compact(SF).to_pandas()
    assert set(out.columns) == {"cell", "level"}
    assert out["cell"].dtype == np.uint64
    assert set(out["level"].unique()) <= {11, 12}
    assert not out["cell"].duplicated().any()

    par = out.loc[out["level"] == 11, "cell"].to_numpy()
    kids = out.loc[out["level"] == 12, "cell"].to_numpy()
    # children of a level-11 parent: high bits | pos2 << 37 | 1 << 36
    high = par >> np.uint64(39) << np.uint64(39)
    expand = (high[:, None]
              | (np.arange(4, dtype=np.uint64) << np.uint64(37))[None, :]
              | np.uint64(1 << 36)).ravel()
    got = np.sort(np.concatenate([expand, kids]))
    assert np.array_equal(got, want)

    # minimality: every surviving level-12 sibling set is incomplete
    kp = s2_parent(kids, 11)
    _, cnt = np.unique(kp, return_counts=True)
    assert cnt.max() < 4
    # and no surviving child sits under an emitted parent
    assert not np.isin(kp, par).any()


def test_compact_cells_collapses_complete_sibling_sets(ray_session):
    """Hand-built sets (the sf0.001 geocode never produces a complete
    4-child set): two complete parents collapse, a 3-child parent and
    a singleton pass through — including a face-5 id whose int64 bit
    pattern is negative."""
    import ray.data as rd

    from geo_inference_ray.cells import s2_parent
    from geo_inference_ray.geoext import compact_cells

    def child(face, pos11, pos2):
        return np.uint64((face << 61) | (pos11 << 39)
                         | (pos2 << 37) | (1 << 36))

    cells = (
        [child(0, 5, p) for p in range(4)]      # complete -> parent
        + [child(5, 9, p) for p in range(4)]    # complete, face 5
        + [child(1, 7, p) for p in range(3)]    # incomplete (3/4)
        + [child(2, 3, 1)])                     # singleton
    arr = np.array(cells, dtype=np.uint64)
    ds = rd.from_arrow(pa.table(
        {"s2i": pa.array(arr.view(np.int64), pa.int64())}))
    out = compact_cells(ds, len(arr)).to_pandas()

    par = np.sort(out.loc[out["level"] == 11, "cell"].to_numpy())
    kids = np.sort(out.loc[out["level"] == 12, "cell"].to_numpy())
    want_par = np.sort(np.array(
        [s2_parent(np.array([child(0, 5, 0)]), 11)[0],
         s2_parent(np.array([child(5, 9, 0)]), 11)[0]], dtype=np.uint64))
    want_kids = np.sort(np.array(
        [child(1, 7, p) for p in range(3)] + [child(2, 3, 1)],
        dtype=np.uint64))
    assert np.array_equal(par, want_par)
    assert np.array_equal(kids, want_kids)


def test_knox_pairs_window_and_equal_ts(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from geo_inference_ray.geoext import knox_pairs

    us = 1_000_000
    base = 1_700_000_000 * us
    # cell 5: ts at 0, +30min, +2h -> only (0, 30min) within 1h -> 1;
    # plus an equal-ts pair at +2h -> (2h, 2h) dt=0 counts once, and
    # (30min, 2h) is 90min apart (out).  total = 1 + 1 + (0,2h? 2h>1h
    # no) = 2.  cell 9: single page -> 0 pairs.
    ds = rd.from_arrow(pa.table({
        "hex7": pa.array([5, 5, 5, 5, 9], pa.int64()),
        "warc_ts": pa.array([base, base + 1800 * us,
                             base + 7200 * us, base + 7200 * us,
                             base], pa.timestamp("us"))}))
    out = knox_pairs(ds, rows_hint=5).to_pandas().set_index("hex7")
    assert (int(out.loc[5, "n_pages"]), int(out.loc[5, "pairs"])) == (4, 2)
    assert (int(out.loc[9, "n_pages"]), int(out.loc[9, "pairs"])) == (1, 0)


def test_ks_drift_disjoint_distributions_max_out(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from geo_inference_ray.textops import ks_drift

    # A: lengths [1, 1]; B: [3] -> at v=1: |nb*2 - na*0| = 2 = na*nb
    # (D = 1, fully disjoint)
    t = pa.table({
        "source": pa.array(["A", "A", "B"], pa.string()),
        "n_chars": pa.array([1, 1, 3], pa.int64())})
    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(t, d / "documents.parquet")
    ds = rd.read_parquet(str(d / "documents.parquet"))
    out = ks_drift(ds).to_pandas().set_index("source")
    assert (int(out.loc["A", "n_src"]), int(out.loc["A", "d_scaled"])) \
        == (2, 2)
    assert (int(out.loc["B", "n_src"]), int(out.loc["B", "d_scaled"])) \
        == (1, 2)


def test_poly_geometry_invariants(ray_session, sf_dir):
    """Integer shoelace/L1 measures agree with an independent float
    shoelace (scaled), the envelope bounds every vertex, and n_pages
    sums to the inner PIP join row count."""
    from geo_inference_ray import synth
    from geo_inference_ray.geoext import poly_geometry
    from geo_inference_ray.stages import geo_pipeline

    out = poly_geometry(sf_dir).to_pandas().set_index("poly_id")
    assert len(out) == len(synth.POLYGONS)
    for p in synth.POLYGONS:
        ring = np.asarray(p["ring_md"], dtype=np.float64)
        x, y = ring[:, 0], ring[:, 1]
        x2, y2 = np.roll(x, -1), np.roll(y, -1)
        row = out.loc[p["poly_id"]]
        assert row["n_vertices"] == len(ring)
        assert row["area2_md2"] == round(abs((x * y2 - x2 * y).sum()))
        assert row["minx_md"] <= x.min() and row["maxx_md"] >= x.max()
        assert row["area2_md2"] >= 0 and row["perim_l1_md"] > 0
    n_inner = geo_pipeline(sf_dir, mode="inner").count()
    assert int(out["n_pages"].sum()) == n_inner
