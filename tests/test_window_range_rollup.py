"""Mid-round-4 operator-family tests: fixed-width window frames
(moving_window), broadcast range/band join (range_join), regex
redaction (redact_pii), and multi-level ROLLUP (rollup_counts).

These pin frame semantics (clamp at the partition start, sample-row
emission vs full-frame accumulation), band-edge boundary behavior,
RE2 parity, and the rollup driver-fold guard on tiny synthetic
inputs; scripts/compare.py covers value equality on the shared
tables.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write_events(tmp_path, rows):
    t = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "user_id": pa.array([r[2] for r in rows], pa.int64()),
        "event_type": pa.array(["view"] * len(rows), pa.string()),
        "value": pa.array([r[3] for r in rows], pa.float64()),
        "props": pa.array(["{}"] * len(rows), pa.string()),
    })
    d = tmp_path / "ev"
    d.mkdir()
    pq.write_table(t, d / "events.parquet")
    return str(d)


def test_moving_window_matches_pandas_rolling(ray_session, sf_dir):
    from geo_inference_ray.relational import (MW_FRAME_PRECEDING,
                                              MW_SAMPLE_MOD,
                                              moving_window)

    out = moving_window(sf_dir).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    ev = pd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts", "value"])
    ev = ev.sort_values(["user_id", "ts", "event_id"],
                        kind="stable").reset_index(drop=True)
    ev["vm"] = np.round(ev["value"].to_numpy() * 1000).astype(np.int64)
    g = ev.groupby("user_id")["vm"]
    win = MW_FRAME_PRECEDING + 1
    ev["win_sum"] = g.rolling(win, min_periods=1).sum() \
        .reset_index(level=0, drop=True).astype(np.int64)
    ev["win_n"] = g.rolling(win, min_periods=1).count() \
        .reset_index(level=0, drop=True).astype(np.int64)
    exp = ev[ev["event_id"] % MW_SAMPLE_MOD == 0] \
        .sort_values("event_id").reset_index(drop=True)
    assert len(out) == len(exp) > 0
    assert (out["win_value_milli"].to_numpy()
            == exp["win_sum"].to_numpy()).all()
    assert (out["win_n"].to_numpy() == exp["win_n"].to_numpy()).all()


def test_moving_window_frame_clamps_at_user_start(ray_session, tmp_path):
    """First rows of a user never see the previous user's frame, even
    when both users land in the same hash partition."""
    from geo_inference_ray import relational
    from geo_inference_ray.relational import moving_window

    rows = []
    eid = 0
    for uid in (1, 2):
        for i in range(6):
            rows.append((eid, 1_000_000 * (i + 1), uid, 1.0))
            eid += 1
    d = _write_events(tmp_path, rows)
    old = relational.MW_SAMPLE_MOD
    relational.MW_SAMPLE_MOD = 1          # emit every row
    try:
        out = moving_window(d).to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
    finally:
        relational.MW_SAMPLE_MOD = old
    assert list(out["win_n"]) == [1, 2, 3, 4, 4, 4] * 2
    assert list(out["win_value_milli"]) == [1000, 2000, 3000, 4000,
                                            4000, 4000] * 2


def test_range_join_band_boundaries(ray_session, tmp_path):
    """Prices exactly ON an edge belong to the opening band ([lo, hi));
    the last band is open-ended."""
    from geo_inference_ray.relational import (RJ_BAND_CENTS,
                                              RJ_NUM_BANDS, range_join)

    last_lo = (RJ_NUM_BANDS - 1) ** 2 * RJ_BAND_CENTS
    prices_cents = [RJ_BAND_CENTS,            # exactly edge k=1 -> band 1
                    4 * RJ_BAND_CENTS - 1,    # just below edge 2 -> band 1
                    4 * RJ_BAND_CENTS,        # exactly edge 2 -> band 2
                    last_lo + 12345]          # beyond last edge -> band 47
    t = pa.table({
        "o_orderkey": pa.array(range(len(prices_cents)), pa.int64()),
        "o_custkey": pa.array([0] * len(prices_cents), pa.int64()),
        "o_orderstatus": pa.array(["O"] * len(prices_cents)),
        "o_totalprice": pa.array([c / 100.0 for c in prices_cents]),
        "o_orderdate": pa.array([0] * len(prices_cents),
                                pa.timestamp("us")),
        "o_orderpriority": pa.array(["1-URGENT"] * len(prices_cents)),
    })
    d = tmp_path / "rj"
    d.mkdir()
    pq.write_table(t, d / "orders.parquet")
    out = range_join(str(d)).to_pandas() \
        .sort_values("band_id").reset_index(drop=True)
    assert list(out["band_id"]) == [1, 2, RJ_NUM_BANDS - 1]
    assert list(out["n_orders"]) == [2, 1, 1]
    assert out.loc[0, "min_price_cents"] == RJ_BAND_CENTS
    assert out.loc[0, "max_price_cents"] == 4 * RJ_BAND_CENTS - 1
    assert out.loc[2, "sum_price_cents"] == last_lo + 12345


def test_redact_pii_counts_and_text(ray_session):
    import ray.data as rd

    from geo_inference_ray.textops import (REDACT_TOKEN, redact_pii)

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["the key of customer value",
                          "keyboard values are not terms",
                          "no match"])}))
    out = redact_pii(ds).to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    assert list(out["n_hits"]) == [3, 0, 0]
    assert out.loc[0, "text"] == (
        f"the {REDACT_TOKEN} of {REDACT_TOKEN} {REDACT_TOKEN}")
    # word boundary: 'keyboard'/'values' must NOT be redacted
    assert out.loc[1, "text"] == "keyboard values are not terms"


def test_url_dedup_collapses_variants_and_keeps_min_doc(ray_session):
    import ray.data as rd

    from geo_inference_ray.textops import url_dedup

    # two docs sharing one URL: all 6 variants collapse to one row
    ds = rd.from_arrow(pa.table({
        "url": pa.array(["https://example.org/a/1",
                         "https://example.org/a/1",
                         "https://example.org/b/2"]),
        "doc_id": pa.array([7, 3, 2], pa.int64())}))
    out = url_dedup(ds).to_pandas().sort_values("url") \
        .reset_index(drop=True)
    assert len(out) == 2
    assert out.loc[0, "url"] == "https://example.org/a/1"
    assert out.loc[0, "doc_id"] == 3          # min over the group
    assert out.loc[0, "n_variants"] == 6
    assert out.loc[1, "n_variants"] == 3


def test_rollup_counts_levels_consistent(ray_session, sf_dir):
    from geo_inference_ray.textops import ROLLUP_ALL, rollup_counts
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["source", "lang", "n_chars"])
    out = rollup_counts(ds).to_pandas()
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["source", "lang", "n_chars"])
    grain = out[(out["source"] != ROLLUP_ALL)
                & (out["lang"] != ROLLUP_ALL)]
    per_src = out[(out["source"] != ROLLUP_ALL)
                  & (out["lang"] == ROLLUP_ALL)].set_index("source")
    tot = out[(out["source"] == ROLLUP_ALL)
              & (out["lang"] == ROLLUP_ALL)]
    assert len(tot) == 1
    assert tot["n"].iloc[0] == len(docs)
    assert tot["sum_chars"].iloc[0] == docs["n_chars"].sum()
    assert grain["n"].sum() == len(docs)
    # each per-source row equals the sum of its grain rows
    gsum = grain.groupby("source")["n"].sum()
    assert (per_src["n"].sort_index() == gsum.sort_index()).all()
    exp_grain = docs.groupby(["source", "lang"]).size()
    assert len(grain) == len(exp_grain)


def test_sliding_distinct_two_owner_windows(ray_session, tmp_path):
    """An event at minute 45 lands in the windows starting :30 and
    :00; repeat events of the same user in one window count once."""
    from geo_inference_ray.relational import sliding_distinct

    MIN = 60_000_000
    rows = [(0, 45 * MIN, 1, 1.0),     # user 1 @ :45
            (1, 50 * MIN, 1, 1.0),     # same user, same windows
            (2, 10 * MIN, 2, 1.0)]     # user 2 @ :10 -> :00 and -:30
    d = _write_events(tmp_path, rows)
    out = sliding_distinct(d).to_pandas()
    out["ws_min"] = out["window_start"].astype("int64") // MIN
    got = dict(zip(out["ws_min"], out["n_users"]))
    assert got == {30: 1, 0: 2, -30: 1}


def test_mad_by_lang_matches_bruteforce(ray_session, sf_dir):
    import math

    import ray.data as rd

    from geo_inference_ray.textops import mad_by_lang

    out = mad_by_lang(rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"])) \
        .to_pandas().set_index("lang").sort_index()
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["lang", "n_chars"])

    def q50(v):
        v = np.sort(np.asarray(v))
        return int(v[math.ceil(0.5 * len(v)) - 1])

    for lg, g in docs.groupby("lang"):
        med = q50(g["n_chars"])
        mad = q50(np.abs(g["n_chars"].to_numpy() - med))
        assert out.loc[lg, "med"] == med, lg
        assert out.loc[lg, "mad"] == mad, lg


def test_search_topk_matches_bruteforce(ray_session, sf_dir):
    import math

    import pyarrow.parquet as pq_
    import ray.data as rd

    from geo_inference_ray.textops import (SEARCH_TERMS, SEARCH_TOPK,
                                           search_topk)

    n_docs = pq_.read_metadata(
        f"{sf_dir}/documents.parquet").num_rows
    out = search_topk(rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        n_docs=n_docs).to_pandas()
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    tf = {}
    df = {t: 0 for t in SEARCH_TERMS}
    for did, text in zip(docs["doc_id"], docs["text"]):
        words = text.split(" ")
        for t in SEARCH_TERMS:
            c = words.count(t)
            if c:
                tf[(did, t)] = c
                df[t] += 1
    idf = {t: math.floor(1000.0 * math.log(n_docs / df[t]))
           for t in SEARCH_TERMS if df[t]}
    scores = {}
    for (did, t), c in tf.items():
        scores[did] = scores.get(did, 0) + c * idf[t]
    exp = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    exp = exp[:SEARCH_TOPK]
    got = list(zip(out.sort_values("rk")["doc_id"],
                   out.sort_values("rk")["score_milli"]))
    assert got == exp
    assert list(out.sort_values("rk")["rk"]) == list(
        range(1, len(exp) + 1))


def test_winsorize_stats_matches_bruteforce(ray_session, sf_dir):
    import math

    import ray.data as rd

    from geo_inference_ray.textops import (WINSOR_HI, WINSOR_LO,
                                           winsorize_stats)

    out = winsorize_stats(rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"])) \
        .to_pandas().set_index("lang").sort_index()
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["lang", "n_chars"])
    for lg, g in docs.groupby("lang"):
        v = np.sort(g["n_chars"].to_numpy())
        lo = int(v[math.ceil(WINSOR_LO * len(v)) - 1])
        hi = int(v[math.ceil(WINSOR_HI * len(v)) - 1])
        assert out.loc[lg, "p_lo"] == lo
        assert out.loc[lg, "p_hi"] == hi
        assert out.loc[lg, "n"] == len(v)
        assert out.loc[lg, "sum_clipped"] == int(
            np.clip(v, lo, hi).sum())


def test_weekly_growth_lag_and_truncation(ray_session, tmp_path):
    """First week sentinel-0 delta/pct (plain int64); negative pct
    truncates toward zero (DuckDB // semantics)."""
    from geo_inference_ray.relational import WEEK_US, weekly_growth

    rows = []
    eid = 0
    for week, cnt in ((0, 7), (1, 3), (3, 9)):   # gap at week 2
        for i in range(cnt):
            rows.append((eid, week * WEEK_US + i, 1, 1.0))
            eid += 1
    d = _write_events(tmp_path, rows)
    out = weekly_growth(d).to_pandas().sort_values("week") \
        .reset_index(drop=True)
    assert list(out["week"]) == [0, 1, 3]
    assert list(out["n"]) == [7, 3, 9]
    assert out.loc[0, "delta"] == 0 and out.loc[0, "pct_milli"] == 0
    assert out["delta"].dtype == "int64"
    assert out.loc[1, "delta"] == -4
    # -4000/7 = -571.43: truncation gives -571 (floor would be -572)
    assert out.loc[1, "pct_milli"] == -571
    assert out.loc[2, "delta"] == 6           # LAG skips the gap
    assert out.loc[2, "pct_milli"] == 2000


def test_weekly_growth_week_bound_is_loud(ray_session, tmp_path,
                                         monkeypatch):
    """More weeks than WEEKLY_MAX_WEEKS raise instead of folding a
    truncated week table; exactly the bound still folds."""
    from geo_inference_ray import relational

    d = _write_events(tmp_path, [(w, w * relational.WEEK_US, 1, 1.0)
                                 for w in range(3)])
    monkeypatch.setattr(relational, "WEEKLY_MAX_WEEKS", 3)
    assert relational.weekly_growth(d).count() == 3
    monkeypatch.setattr(relational, "WEEKLY_MAX_WEEKS", 2)
    with pytest.raises(ValueError, match="week count exceeds 2"):
        relational.weekly_growth(d)


def test_user_growth_day_bound_is_loud(ray_session, tmp_path, monkeypatch):
    """More days than GROWTH_MAX_DAYS raise instead of folding a
    truncated day table, and the per-day collect stops at the bound
    without pulling the new-user table; exactly the bound still folds."""
    from geo_inference_ray import relational

    day = 86_400_000_000
    d = _write_events(tmp_path, [(i, i * day, i % 2, 1.0)
                                 for i in range(3)])
    monkeypatch.setattr(relational, "GROWTH_MAX_DAYS", 3)
    out = relational.user_growth(d).to_pandas()
    assert out["d"].tolist() == [0, 1, 2]
    assert out["n_active_users"].tolist() == [1, 1, 1]
    assert out["n_new_users"].tolist() == [1, 1, 0]

    collected = []
    real_collect = relational.collect

    def spy(*args):
        collected.append(real_collect(*args))
        return collected[-1]

    monkeypatch.setattr(relational, "collect", spy)
    monkeypatch.setattr(relational, "GROWTH_MAX_DAYS", 2)
    with pytest.raises(ValueError, match="day count exceeds 2"):
        relational.user_growth(d)
    assert collected == [None]


def test_transitions_golden_and_user_isolation(ray_session, tmp_path):
    """user 1: A->B->B ; user 2: B->A.  No cross-user pair even when
    both users share a hash partition."""
    import pyarrow.parquet as pq_

    from geo_inference_ray.relational import transitions

    t = pa.table({
        "event_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "ts": pa.array([1, 2, 3, 1, 2], pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 2, 2], pa.int64()),
        "event_type": pa.array(["A", "B", "B", "B", "A"]),
        "value": pa.array([0.0] * 5),
        "props": pa.array(["{}"] * 5)})
    d = tmp_path / "tr"
    d.mkdir()
    pq_.write_table(t, d / "events.parquet")
    out = transitions(str(d)).to_pandas() \
        .sort_values(["from_type", "to_type"]).reset_index(drop=True)
    got = {(r.from_type, r.to_type): r.n for r in out.itertuples()}
    assert got == {("A", "B"): 1, ("B", "B"): 1, ("B", "A"): 1}


def test_lang_confusion_totals_match_langid(ray_session, sf_dir):
    import ray.data as rd

    from geo_inference_ray.textops import LangId, lang_confusion

    out = lang_confusion(rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "text"])) \
        .to_pandas()
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "lang", "text"])
    assert out["n"].sum() == len(docs)
    # per-label row sums equal label counts
    lbl = out.groupby("lang")["n"].sum().sort_index()
    exp = docs.groupby("lang").size().sort_index()
    assert (lbl.to_numpy() == exp.to_numpy()).all()
    # per-prediction column sums match a direct LangId pass
    pred, _ = LangId().predict(pa.chunked_array([pa.array(
        docs["text"].tolist())]))
    exp_pred = pd.Series(pred).value_counts().sort_index()
    got_pred = out.groupby("pred_lang")["n"].sum().sort_index()
    assert (got_pred.to_numpy() == exp_pred.to_numpy()).all()


def test_rollup_counts_bails_on_free_cardinality(ray_session,
                                                 monkeypatch):
    import ray.data as rd

    from geo_inference_ray import textops

    n = 64
    ds = rd.from_arrow(pa.table({
        "source": pa.array([f"s{i}" for i in range(n)]),
        "lang": pa.array([f"l{i}" for i in range(n)]),
        "n_chars": pa.array([1] * n, pa.int64())}))
    monkeypatch.setattr(textops, "ROLLUP_MAX_GROUPS", 16)
    with pytest.raises(ValueError, match="grain exceeds"):
        textops.rollup_counts(ds)
