"""Round-4 batch: Benford first-digit profile, exact chi-square
contingency components, Heaps'-law vocabulary growth, and last-touch
conversion attribution.

These pin the semantics the SQL oracles rely on — digit extraction,
arbitrary-precision floor division, the power-of-two grid, lookback
window and tie order — on tiny constructed inputs; scripts/compare.py
covers value equality on the shared tables.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from geo_inference_ray import textops


def _docs_ds(rows):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        k: pa.array([r[k] for r in rows]) for k in rows[0]}))


def _write_events(tmp_path, rows):
    t = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "user_id": pa.array([r[2] for r in rows], pa.int64()),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
        "value": pa.array([r[4] for r in rows], pa.float64()),
        "props": pa.array(["{}"] * len(rows), pa.string()),
    })
    d = tmp_path / "ev"
    d.mkdir()
    pq.write_table(t, d / "events.parquet")
    return str(d)


# ---------------------------------------------------------------- benford

def test_benford_digit_extraction_and_expectation(ray_session):
    rows = [
        {"source": "a", "n_chars": 1},
        {"source": "a", "n_chars": 19},
        {"source": "a", "n_chars": 1999},
        {"source": "a", "n_chars": 905},
        {"source": "b", "n_chars": 42},
        {"source": "b", "n_chars": 0},     # excluded: no leading digit
    ]
    df = textops.benford(_docs_ds(rows)).to_pandas() \
        .sort_values(["source", "digit"]).reset_index(drop=True)
    got = {(r.source, r.digit): r.n for r in df.itertuples()}
    assert got == {("a", 1): 3, ("a", 9): 1, ("b", 4): 1}
    # exp_milli matches floor(1000*log10(1+1/d)) — string-digit oracle
    for r in df.itertuples():
        assert r.exp_milli == int(np.floor(
            1000 * np.log10(1 + 1.0 / r.digit)))
    # digits agree with the SQL string-head extraction on random ints
    rng = np.random.default_rng(7)
    xs = rng.integers(1, 10**17, 500)
    d = xs.copy()
    while (d >= 10).any():
        np.floor_divide(d, 10, out=d, where=d >= 10)
    assert all(int(str(x)[0]) == dd for x, dd in zip(xs, d))


# ------------------------------------------------------- chi2_contingency

def test_chi2_contingency_exact_small_case(ray_session):
    # 2x2 table: O = [[10, 20], [30, 40]]
    rows = ([{"lang": "en", "source": "s1"}] * 10
            + [{"lang": "en", "source": "s2"}] * 20
            + [{"lang": "de", "source": "s1"}] * 30
            + [{"lang": "de", "source": "s2"}] * 40)
    df = textops.chi2_contingency(_docs_ds(rows)).to_pandas()
    assert len(df) == 4
    n = 100
    for r in df.itertuples():
        assert r.n_tot == n
        dev = r.o * n - r.r_tot * r.c_tot
        assert r.comp_micro == dev * dev * 10**6 // (
            r.r_tot * r.c_tot * n)
    en_s1 = df[(df.lang == "en") & (df.source == "s1")].iloc[0]
    assert (en_s1.o, en_s1.r_tot, en_s1.c_tot) == (10, 30, 40)
    # (10*100 - 30*40)^2 * 1e6 // (30*40*100) = 200^2*1e6//120000
    assert en_s1.comp_micro == 200 * 200 * 10**6 // 120000
    # marginal identity: sum of o per lang == r_tot
    assert (df.groupby("lang").o.sum()
            .eq(df.groupby("lang").r_tot.first())).all()


def test_chi2_contingency_bigint_safe(ray_session):
    # values chosen so (O*N - R*C)^2 * 1e6 overflows int64 if done in
    # numpy — the kernel must use Python ints
    rows = ([{"lang": "en", "source": "s1"}] * 5000
            + [{"lang": "de", "source": "s2"}] * 5000)
    df = textops.chi2_contingency(_docs_ds(rows)).to_pandas()
    r = df[(df.lang == "en") & (df.source == "s1")].iloc[0]
    dev = 5000 * 10000 - 5000 * 5000     # 25e6; squared*1e6 = 6.25e20
    assert r.comp_micro == dev * dev * 10**6 // (5000 * 5000 * 10000)


# --------------------------------------------------------------- heaps_law

def test_heaps_law_grid_and_counts(ray_session):
    rows = [
        {"doc_id": 0, "text": "a b a"},      # new: a b
        {"doc_id": 1, "text": "b c"},        # new: c
        {"doc_id": 2, "text": "a"},          # new: -
        {"doc_id": 3, "text": "d d"},        # new: d
        {"doc_id": 4, "text": "e"},          # new: e
    ]
    df = textops.heaps_law(_docs_ds(rows), n_docs=5).to_pandas() \
        .sort_values("n_docs").reset_index(drop=True)
    # grid = 1, 2, 4, 5 (powers of two below n, then n)
    assert df.n_docs.tolist() == [1, 2, 4, 5]
    assert df.vocab.tolist() == [2, 3, 4, 5]


def test_heaps_law_monotone_on_synth(ray_session):
    import ray.data as rd

    ds = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text"])
    df = textops.heaps_law(ds).to_pandas().sort_values("n_docs")
    v = df.vocab.to_numpy()
    assert (np.diff(v) >= 0).all()
    # final point = total distinct tokens over the corpus
    toks = rd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "text"]).map_batches(
        textops.doc_token_tf, batch_format="pyarrow")
    n_distinct = toks.to_pandas().token.nunique()
    assert v[-1] == n_distinct


# ------------------------------------------------------------- attribution

def test_attribution_window_ties_and_none(ray_session, tmp_path):
    TS = 1_700_000_000_000_000
    M = 60_000_000
    rows = [
        # u1: click at t0, purchase 10 min later -> credited to click
        (1, TS, 1, "click", 1.0),
        (2, TS + 10 * M, 1, "purchase", 5.0),
        # u1: second purchase 40 min after the click -> out of window
        (3, TS + 41 * M, 1, "purchase", 7.0),
        # u2: view then click (later), purchase -> last touch = click
        (4, TS, 2, "view", 1.0),
        (5, TS + 5 * M, 2, "click", 1.0),
        (6, TS + 6 * M, 2, "purchase", 11.0),
        # u3: purchase with NO prior event at all -> (none)
        (7, TS, 3, "purchase", 3.0),
        # u4: tie in ts — non-purchase with SMALLER event_id counts,
        # the one with larger event_id does not
        (8, TS, 4, "signup", 1.0),
        (9, TS, 4, "purchase", 13.0),
        (10, TS, 4, "error", 1.0),
    ]
    from geo_inference_ray import relational

    sf = _write_events(tmp_path, rows)
    df = relational.attribution(sf).to_pandas() \
        .sort_values("src_type").reset_index(drop=True)
    got = {r.src_type: (r.n_conv, r.value_milli)
           for r in df.itertuples()}
    assert got == {
        "(none)": (2, 10000),     # events 3 (stale) and 7 (no touch)
        "click": (2, 16000),      # events 2 and 6
        "signup": (1, 13000),     # event 9 (tie: event_id 8 < 9)
    }


def test_attribution_exact_window_boundary(ray_session, tmp_path):
    TS = 1_700_000_000_000_000
    rows = [
        (1, TS, 1, "view", 1.0),
        # exactly 30 min later: still in window (<=)
        (2, TS + 1_800_000_000, 1, "purchase", 2.0),
        (3, TS, 2, "view", 1.0),
        # 30 min + 1 us: out
        (4, TS + 1_800_000_001, 2, "purchase", 2.0),
    ]
    from geo_inference_ray import relational

    sf = _write_events(tmp_path, rows)
    df = relational.attribution(sf).to_pandas()
    got = {r.src_type: r.n_conv for r in df.itertuples()}
    assert got == {"view": 1, "(none)": 1}


# ---------------------------------------------------------------- grid_idw

def test_grid_idw_weights_and_occupancy(ray_session):
    import ray.data as rd
    from geo_inference_ray import geoext

    # two occupied cells packed as q*65536+r: (0,0) x3 pages, (2,0) x6
    a, b = 0, 2 * 65536
    ds = rd.from_arrow(pa.table({
        "hex7": pa.array([a] * 3 + [b] * 6, pa.int64())}))
    df = geoext.grid_idw(ds).to_pandas().set_index("hex7")
    # occupied cells never appear
    assert a not in df.index and b not in df.index
    # (1,0) is ring-1 of both: num = 1000*3 + 1000*6, den = 2000
    mid = 65536
    r = df.loc[mid]
    assert (r.num, r.den) == (9000, 2000)
    assert r.est_milli == 1000 * 9000 // 2000
    # (0,2) is ring-2 of BOTH (0,0) and (2,0) (axial distance 2 each)
    r2 = df.loc[2]
    assert (r2.num, r2.den) == (250 * 3 + 250 * 6, 500)
    assert r2.est_milli == 1000 * 2250 // 500
    # (-1,-1) is ring-2 of (0,0) only (distance 3 from (2,0))
    r3 = df.loc[-65537]
    assert (r3.num, r3.den) == (250 * 3, 250)
    assert r3.est_milli == 3000
    # (4,0) is ring-2 of (2,0) only
    r4 = df.loc[4 * 65536]
    assert (r4.num, r4.den) == (250 * 6, 250)
    # nothing farther than distance 2 from any occupied cell
    offs = set(geoext.HEX_RING1_OFFSETS[1:]) | set(
        geoext.HEX_RING2_OFFSETS)
    assert all(h - a in offs or h - b in offs for h in df.index)


# ------------------------------------------------------------ rolling_median

def test_rolling_median_frames(ray_session, tmp_path):
    from geo_inference_ray import relational

    TS = 0
    D = 86_400_000_000
    # type "x": daily counts 5,1,9,3 on days 0,1,2,4 (gap at 3 —
    # ROWS frame uses observed days only)
    rows, eid = [], 0
    for day, cnt in [(0, 5), (1, 1), (2, 9), (4, 3)]:
        for _ in range(cnt):
            rows.append((eid, TS + day * D + eid, 7, "x", 1.0))
            eid += 1
    sf = _write_events(tmp_path, rows)
    df = relational.rolling_median(sf).to_pandas() \
        .sort_values("day").reset_index(drop=True)
    assert df.day.tolist() == [0, 1, 2, 4]
    assert df.c.tolist() == [5, 1, 9, 3]
    # frames: [5] [5,1] [5,1,9] [5,1,9,3] -> med2 = 10, 6, 10, 8
    assert df.med2.tolist() == [10, 6, 10, 8]


# ------------------------------------------------------- session_path_topk

def test_session_path_topk_order_and_truncation(ray_session, tmp_path):
    from geo_inference_ray import analytics

    TS = 1_700_000_000_000_000
    M = 60_000_000
    rows = []
    eid = 0
    # 3 sessions "view>click", 1 session "click>view"
    for u, order in [(1, ["view", "click"]), (2, ["view", "click"]),
                     (3, ["view", "click"]), (4, ["click", "view"])]:
        for i, et in enumerate(order):
            rows.append((eid, TS + i * M, u, et, 1.0))
            eid += 1
    # u5: one long session of 10 views -> truncated to 8
    for i in range(10):
        rows.append((eid, TS + i * M, 5, "view", 1.0))
        eid += 1
    # u1 again 2 h later: NEW session, single event
    rows.append((eid, TS + 120 * M, 1, "error", 1.0))
    sf = _write_events(tmp_path, rows)
    df = analytics.session_path_topk(sf).to_pandas()
    got = list(zip(df.path, df.n))
    assert got[0] == ("view>click", 3)
    d = dict(got)
    assert d["click>view"] == 1
    assert d[">".join(["view"] * 8)] == 1      # truncated at 8
    assert d["error"] == 1
    # sorted by n desc then path asc
    assert all(got[i][1] > got[i + 1][1]
               or (got[i][1] == got[i + 1][1]
                   and got[i][0] < got[i + 1][0])
               for i in range(len(got) - 1))


# ------------------------------------------------------------ out_of_order

def test_out_of_order_watermark(ray_session, tmp_path):
    from geo_inference_ray import analytics

    TS = 1_700_000_000_000_000
    rows = [
        # arrival order = event_id; event times jump around
        (0, TS + 100, 1, "view", 1.0),
        (1, TS + 50, 1, "click", 1.0),    # late by 50
        (2, TS + 200, 2, "view", 1.0),
        (3, TS + 200, 2, "view", 1.0),    # equal: NOT late (strict <)
        (4, TS + 10, 3, "error", 1.0),    # late by 190
        (5, TS + 300, 3, "view", 1.0),
    ]
    sf = _write_events(tmp_path, rows)
    df = analytics.out_of_order(sf, range_ids=2).to_pandas() \
        .set_index("event_type")
    assert df.loc["view"].n_events == 4
    assert df.loc["view"].n_late == 0
    assert df.loc["click"].n_late == 1
    assert df.loc["click"].max_late_us == 50
    assert df.loc["error"].n_late == 1
    assert df.loc["error"].max_late_us == 190
    assert df.loc["error"].sum_late_us == 190


# -------------------------------------------------------------- silhouette

def test_silhouette_identities(ray_session):
    from geo_inference_ray import ann

    df = ann.silhouette("/root/testdata/sf0.001").to_pandas()
    km = ann.kmeans_assign("/root/testdata/sf0.001").to_pandas()
    # one row per non-empty cluster; n matches the kmeans assignment
    sizes = km.groupby("cluster").size()
    assert df.set_index("cluster").n.sort_index() \
        .equals(sizes.sort_index().astype("int64"))
    # silhouette is in [0, 1000] per point -> bounded sums
    assert (df.s_milli_sum >= 0).all()
    assert (df.s_milli_sum <= 1000 * df.n).all()


# ------------------------------------------------------------- empty guards

def test_new_ops_empty_inputs(ray_session, tmp_path):
    import ray.data as rd
    from geo_inference_ray import analytics, relational

    # benford: all rows excluded (n_chars = 0)
    df = textops.benford(_docs_ds(
        [{"source": "a", "n_chars": 0}])).to_pandas()
    assert len(df) == 0
    # chi2 on empty dataset
    empty_docs = rd.from_arrow(pa.table({
        "lang": pa.array([], pa.string()),
        "source": pa.array([], pa.string())}))
    assert len(textops.chi2_contingency(empty_docs).to_pandas()) == 0
    # heaps_law on empty corpus
    assert len(textops.heaps_law(
        rd.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "text": pa.array([], pa.string())})),
        n_docs=0).to_pandas()) == 0
    # attribution with zero purchases -> empty result
    sf = _write_events(tmp_path, [(1, 1_700_000_000_000_000, 1,
                                   "view", 1.0)])
    assert len(relational.attribution(sf).to_pandas()) == 0
    # out_of_order single event -> never late
    df = analytics.out_of_order(sf).to_pandas()
    assert df.n_late.tolist() == [0]


# ------------------------------------------------- randomized vs naive

def _random_events(seed, n=2000, users=40, span_min=600):
    rng = np.random.default_rng(seed)
    TS = 1_700_000_000_000_000
    ts = TS + rng.integers(0, span_min * 60_000_000, n)
    return [(i, int(ts[i]), int(rng.integers(1, users + 1)),
             ["view", "click", "purchase", "signup", "error"][
                 int(rng.integers(0, 5))],
             float(rng.integers(1, 10000)) / 100.0)
            for i in range(n)]


def test_attribution_matches_naive_bruteforce(ray_session, tmp_path):
    from geo_inference_ray import relational

    rows = _random_events(11)
    sf = _write_events(tmp_path, rows)
    got = relational.attribution(sf).to_pandas() \
        .set_index("src_type").sort_index()

    df = pd.DataFrame(rows, columns=["event_id", "t", "user_id",
                                     "et", "value"])
    df = df.sort_values(["user_id", "t", "event_id"]) \
        .reset_index(drop=True)
    W = 1_800_000_000
    agg = {}
    for uid, g in df.groupby("user_id"):
        g = g.reset_index(drop=True)
        for i in range(len(g)):
            if g.et[i] != "purchase":
                continue
            src = "(none)"
            for j in range(i - 1, -1, -1):
                if g.et[j] != "purchase":
                    if g.t[i] - g.t[j] <= W:
                        src = g.et[j]
                    break
            n, v = agg.get(src, (0, 0))
            agg[src] = (n + 1, v + round(g.value[i] * 1000))
    exp = pd.DataFrame(
        [(k, n, v) for k, (n, v) in agg.items()],
        columns=["src_type", "n_conv", "value_milli"]) \
        .set_index("src_type").sort_index()
    pd.testing.assert_frame_equal(
        got.astype("int64"), exp.astype("int64"))


def test_rolling_median_matches_pandas(ray_session, tmp_path):
    from geo_inference_ray import relational

    rows = _random_events(12, n=3000, span_min=20 * 24 * 60)
    sf = _write_events(tmp_path, rows)
    got = relational.rolling_median(sf).to_pandas() \
        .sort_values(["event_type", "day"]).reset_index(drop=True)

    df = pd.DataFrame(rows, columns=["event_id", "t", "user_id",
                                     "et", "value"])
    df["day"] = df.t // 86_400_000_000
    daily = df.groupby(["et", "day"]).size().rename("c").reset_index()
    daily = daily.sort_values(["et", "day"]).reset_index(drop=True)
    exp_med2 = daily.groupby("et")["c"].transform(
        lambda s: 2 * s.rolling(7, min_periods=1).median())
    assert got.med2.tolist() == exp_med2.astype("int64").tolist()
    assert got.c.tolist() == daily.c.tolist()


def test_out_of_order_matches_naive(ray_session, tmp_path):
    from geo_inference_ray import analytics

    rows = _random_events(13, n=2500)
    sf = _write_events(tmp_path, rows)
    got = analytics.out_of_order(sf, range_ids=64).to_pandas() \
        .set_index("event_type").sort_index()

    df = pd.DataFrame(rows, columns=["event_id", "t", "user_id",
                                     "et", "value"]) \
        .sort_values("event_id").reset_index(drop=True)
    pm = df.t.cummax().shift(1)
    late = df.t < pm
    lateness = np.where(late, (pm - df.t).fillna(0), 0).astype(np.int64)
    exp = pd.DataFrame({"et": df.et, "late": late.astype(np.int64),
                        "lateness": lateness}) \
        .groupby("et").agg(n_events=("late", "size"),
                           n_late=("late", "sum"),
                           max_late_us=("lateness", "max"),
                           sum_late_us=("lateness", "sum"))
    pd.testing.assert_frame_equal(
        got.astype("int64"),
        exp.rename_axis("event_type").astype("int64"))


# -------------------------------------------------------------- hybrid_rrf

def test_hybrid_rrf_fusion_identities(ray_session):
    import ray.data as rd
    from geo_inference_ray import ann
    from geo_inference_ray.textops import search_topk

    sf = "/root/testdata/sf0.001"
    df = ann.hybrid_rrf(sf).to_pandas()
    assert len(df) == 20
    # descending by (rrf, doc_id asc)
    assert all(
        (df.rrf_milli[i], -df.doc_id[i])
        >= (df.rrf_milli[i + 1], -df.doc_id[i + 1])
        or df.rrf_milli[i] > df.rrf_milli[i + 1]
        for i in range(len(df) - 1))
    # every fused doc is a member of at least one list
    assert ((df.in_lex + df.in_sem) >= 1).all()
    # docs in both lists score the sum of both reciprocal ranks:
    # cross-check one doc against the raw rankings
    docs = rd.read_parquet(f"{sf}/documents.parquet",
                           columns=["doc_id", "text"])
    lex = {r["doc_id"]: r["rk"]
           for r in search_topk(docs, 500).take_all()}
    sem_all = ann.ann_topk(sf).take_all()
    qmin = min(r["query_id"] for r in sem_all)
    sem = {r["neighbor_id"]: r["rank"] for r in sem_all
           if r["query_id"] == qmin}
    for r in df.itertuples():
        exp = (1000 // (60 + lex[r.doc_id]) if r.doc_id in lex else 0) \
            + (1000 // (60 + sem[r.doc_id]) if r.doc_id in sem else 0)
        assert r.rrf_milli == exp
        assert r.in_lex == int(r.doc_id in lex)
        assert r.in_sem == int(r.doc_id in sem)


# ------------------------------------------------------- emerging_hotspots

def test_emerging_hotspots_mann_kendall(ray_session):
    import ray.data as rd
    from geo_inference_ray import geoext

    # cell 1: strictly rising 1,2,3 -> S = 3; cell 2: flat -> S = 0;
    # cell 3: single day -> S = 0, n_days = 1
    D = 86_400_000_000
    rows = {"hex7": [], "warc_ts": []}
    for cell, days_counts in [(1, [(0, 1), (1, 2), (2, 3)]),
                              (2, [(0, 2), (1, 2)]),
                              (3, [(5, 4)])]:
        for day, cnt in days_counts:
            for _ in range(cnt):
                rows["hex7"].append(cell)
                rows["warc_ts"].append(day * D + 1)
    ds = rd.from_arrow(pa.table({
        "hex7": pa.array(rows["hex7"], pa.int64()),
        "warc_ts": pa.array(rows["warc_ts"], pa.timestamp("us"))}))
    df = geoext.emerging_hotspots(ds).to_pandas().set_index("hex7")
    assert (df.loc[1].n_days, df.loc[1].s) == (3, 3)
    assert (df.loc[2].n_days, df.loc[2].s) == (2, 0)
    assert (df.loc[3].n_days, df.loc[3].s) == (1, 0)


# ------------------------------------------------------------ extract_title

def test_extract_title_integrity(ray_session):
    from geo_inference_ray import stages, synth

    ds = synth.pages_dataset("/root/testdata/sf0.001")
    df = ds.map_batches(stages.extract_title,
                        batch_format="pyarrow").to_pandas()
    assert (df.title_ok == 1).all()
    assert (df.title == "doc " + df.doc_id.astype(str)).all()
    assert (df.n_title_chars == df.title.str.len()).all()
