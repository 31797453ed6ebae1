"""Round-4 operator-family tests: second-moment sufficient statistics
(corr_stats), keyed set EXCEPT (except_days), windowed running totals
(running_total), wide pivot (pivot_counts), packed-key argmax
(argmax_doc), and grouped string-tie-break mode (mode_word).

These pin the SEMANTICS the SQL oracles rely on — tie-break order,
guard rails, and the sample-vs-frame distinction — on tiny synthetic
inputs; scripts/compare.py covers value equality on the shared tables.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _docs_ds(rows):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        k: pa.array([r[k] for r in rows]) for k in rows[0]}))


def _write_events(tmp_path, rows):
    import pyarrow.parquet as pq

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


def test_corr_stats_matches_numpy_and_is_mergeable(ray_session, sf_dir):
    from geo_inference_ray.relational import corr_stats

    out = corr_stats(sf_dir).to_pandas().set_index("l_returnflag")
    li = pd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_returnflag", "l_quantity",
                                  "l_discount"])
    for flag, g in li.groupby("l_returnflag"):
        q = np.round(g["l_quantity"].to_numpy()).astype(np.int64)
        d = np.round(g["l_discount"].to_numpy() * 10000).astype(np.int64)
        ref = np.corrcoef(q, d)[0, 1]
        got = out.loc[flag, "corr_qd"]
        assert abs(got - ref) < 1e-9, (flag, got, ref)
        assert abs(out.loc[flag, "std_q"] - q.std()) < 1e-9
        assert out.loc[flag, "n"] == len(g)


def test_corr_stats_overflow_guard(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from geo_inference_ray.relational import corr_stats

    d = tmp_path / "li"
    d.mkdir()
    pq.write_table(pa.table({
        "l_returnflag": pa.array(["A"]),
        "l_quantity": pa.array([float(1 << 21)]),
        "l_discount": pa.array([0.01])}), d / "lineitem.parquet")
    with pytest.raises(Exception, match="overflow guard"):
        corr_stats(str(d)).to_pandas()


def test_except_days_flag_logic(ray_session, tmp_path):
    from geo_inference_ray.relational import except_days

    day = 86_400_000_000
    rows = [
        # user 1, day 0: purchase only -> kept
        (1, 10, 1, "purchase", 1.0),
        # user 1, day 1: purchase AND signup -> dropped
        (2, day + 10, 1, "purchase", 1.0),
        (3, day + 20, 1, "signup", 1.0),
        # user 2, day 0: signup only -> dropped (not a purchase day)
        (4, 30, 2, "signup", 1.0),
        # user 2, day 2: click only -> ignored entirely
        (5, 2 * day + 5, 2, "click", 1.0),
    ]
    out = except_days(_write_events(tmp_path, rows)).to_pandas()
    got = sorted(map(tuple, out[["user_id", "d"]].to_numpy()))
    assert got == [(1, 0)]


def test_running_total_accumulates_unsampled_rows(ray_session,
                                                  tmp_path):
    """Rows excluded from the OUTPUT sample must still feed the running
    frame: user 7's third event (id 82) sums all three values."""
    from geo_inference_ray.relational import running_total

    rows = [
        (82, 300, 7, "click", 3.0),     # sampled (82 % 41 == 0)
        (11, 100, 7, "click", 1.0),     # not sampled, still counted
        (41, 200, 7, "click", 2.5),     # sampled
        (13, 50, 8, "click", 9.0),      # other user, never sampled
    ]
    out = running_total(_write_events(tmp_path, rows)) \
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    assert out["event_id"].tolist() == [41, 82]
    assert out["run_value_milli"].tolist() == [3500, 6500]
    assert out["run_n"].tolist() == [2, 3]


def test_pivot_counts_unknown_lang_total_only(ray_session):
    from geo_inference_ray.textops import pivot_counts

    ds = _docs_ds([
        {"source": "s", "lang": "en"},
        {"source": "s", "lang": "tlh"},   # not a pivot column
        {"source": "t", "lang": "de"},
    ])
    out = pivot_counts(ds).to_pandas().set_index("source")
    assert out.loc["s", "n_en"] == 1 and out.loc["s", "n_total"] == 2
    assert int(out.loc["s", ["n_de", "n_es", "n_fr", "n_zh"]].sum()) == 0
    assert out.loc["t", "n_de"] == 1 and out.loc["t", "n_total"] == 1


def test_argmax_doc_tiebreak_and_guard(ray_session):
    from geo_inference_ray.textops import argmax_doc

    ds = _docs_ds([
        {"lang": "en", "source": "s", "doc_id": 5, "n_chars": 10},
        {"lang": "en", "source": "s", "doc_id": 3, "n_chars": 10},
        {"lang": "en", "source": "s", "doc_id": 9, "n_chars": 4},
    ])
    out = argmax_doc(ds).to_pandas()
    assert len(out) == 1
    assert out.iloc[0]["doc_id"] == 3 and out.iloc[0]["n_chars"] == 10

    big = _docs_ds([{"lang": "en", "source": "s",
                     "doc_id": 1 << 40, "n_chars": 1}])
    with pytest.raises(Exception, match="packing range"):
        argmax_doc(big).to_pandas()


def test_mode_word_string_tiebreak(ray_session):
    from geo_inference_ray.textops import mode_word

    ds = _docs_ds([
        {"lang": "en", "text": "zeta apple zeta apple"},   # tie -> apple
        {"lang": "de", "text": "bb bb aa"},                # bb wins on count
    ])
    out = mode_word(ds).to_pandas().set_index("lang")
    assert out.loc["en", "token"] == "apple" and out.loc["en", "n"] == 2
    assert out.loc["de", "token"] == "bb" and out.loc["de", "n"] == 2


def test_mode_word_lang_bound_is_loud(ray_session, monkeypatch):
    """More languages than MODE_MAX_LANGS raise, and the per-language
    max collect stops at the bound instead of pulling every language
    first; exactly the bound still folds."""
    from geo_inference_ray import textops

    ds = _docs_ds([{"lang": lang, "text": "a b"} for lang in
                   ("en", "de", "fr")])
    monkeypatch.setattr(textops, "MODE_MAX_LANGS", 3)
    assert textops.mode_word(ds).count() == 3

    collected = []
    real_collect = textops.collect

    def spy(*args):
        collected.append(real_collect(*args))
        return collected[-1]

    monkeypatch.setattr(textops, "collect", spy)
    monkeypatch.setattr(textops, "MODE_MAX_LANGS", 2)
    with pytest.raises(ValueError, match="lang count exceeds the 2"):
        textops.mode_word(ds)
    assert collected == [None]


def test_order_gap_single_event_user_nulls(ray_session, tmp_path):
    from geo_inference_ray.relational import order_gap

    rows = [
        (1, 100, 1, "click", 0.0),
        (2, 400, 1, "click", 0.0),     # gap 300
        (3, 250, 1, "click", 0.0),     # gap 150 then 150
        (4, 999, 2, "click", 0.0),     # single event -> sentinel -1
    ]
    out = order_gap(_write_events(tmp_path, rows)) \
        .to_pandas().set_index("user_id")
    assert out.loc[1, "n_gaps"] == 2
    assert out.loc[1, "sum_gap_us"] == 300
    assert out.loc[1, "max_gap_us"] == 150
    assert out.loc[1, "avg_gap_us"] == 150.0
    assert out.loc[2, "n_gaps"] == 0
    # empty LAG window -> sentinel -1 as plain int64 (the mirror
    # COALESCEs the same; nullable Int64 hash-diverges vs duckdb)
    assert out.loc[2, "max_gap_us"] == -1
    assert out.loc[2, "min_gap_us"] == -1
    assert out.loc[2, "avg_gap_us"] == 0.0


def test_cooccur_types_basket_pairs(ray_session, tmp_path):
    from geo_inference_ray.relational import cooccur_types

    day = 86_400_000_000
    rows = [
        # user 1 day 0: {a, b, c} -> pairs ab, ac, bc
        (1, 10, 1, "a", 0.0), (2, 20, 1, "b", 0.0),
        (3, 30, 1, "c", 0.0), (4, 40, 1, "a", 0.0),  # dup type ignored
        # user 1 day 1: {a, b} -> ab again
        (5, day + 1, 1, "a", 0.0), (6, day + 2, 1, "b", 0.0),
        # user 2 day 0: {a} -> no pair
        (7, 50, 2, "a", 0.0),
    ]
    out = cooccur_types(_write_events(tmp_path, rows)).to_pandas()
    got = {(r.ta, r.tb): r.n for r in out.itertuples()}
    assert got == {("a", "b"): 2, ("a", "c"): 1, ("b", "c"): 1}


def test_byte_prefix_key_is_order_preserving(ray_session):
    from geo_inference_ray.textops import _byte_prefix_key

    toks = ["", "a", "ab", "abc", "b", "zz", "z", "éclair", "Z"]
    keys = _byte_prefix_key(pa.chunked_array([pa.array(toks)]))
    by_bytes = sorted(range(len(toks)),
                      key=lambda i: toks[i].encode("utf-8"))
    ordered_keys = keys[np.array(by_bytes)]
    assert (np.diff(ordered_keys) >= 0).all()


def test_vocab_ids_dense_rank_across_buckets(ray_session):
    from geo_inference_ray.textops import vocab_ids

    ds = _docs_ds([
        {"text": "pear apple pear zebra"},
        {"text": "apple aardvark mango zebra apple"},
    ])
    out = vocab_ids(ds).to_pandas().sort_values("token_id")
    assert out["token"].tolist() == [
        "aardvark", "apple", "mango", "pear", "zebra"]
    assert out["token_id"].tolist() == [0, 1, 2, 3, 4]


def test_source_jaccard_small(ray_session):
    from geo_inference_ray.textops import source_jaccard

    ds = _docs_ds([
        {"source": "s1", "text": "a b c"},
        {"source": "s2", "text": "b c d"},
        {"source": "s3", "text": "x y"},
    ])
    out = source_jaccard(ds).to_pandas()
    got = {(r.sa, r.sb): (r.n_inter, r.n_union, r.jaccard)
           for r in out.itertuples()}
    # s1={a,b,c}, s2={b,c,d}: inter 2, union 4; s3 disjoint -> absent
    assert got == {("s1", "s2"): (2, 4, 0.5)}


def test_source_jaccard_source_bound_is_loud(ray_session, monkeypatch):
    """More sources than MODE_MAX_LANGS raise, and the per-source size
    collect stops at the bound instead of pulling every source first;
    exactly the bound still folds."""
    from geo_inference_ray import textops

    ds = _docs_ds([
        {"source": "s1", "text": "a b c"},
        {"source": "s2", "text": "b c d"},
        {"source": "s3", "text": "x y"},
    ])
    monkeypatch.setattr(textops, "MODE_MAX_LANGS", 3)
    assert textops.source_jaccard(ds).count() == 1

    collected = []
    real_collect = textops.collect

    def spy(*args):
        collected.append(real_collect(*args))
        return collected[-1]

    monkeypatch.setattr(textops, "collect", spy)
    monkeypatch.setattr(textops, "MODE_MAX_LANGS", 2)
    with pytest.raises(ValueError, match="source count exceeds the 2"):
        textops.source_jaccard(ds)
    assert collected == [None]


def test_user_growth_first_touch(ray_session, tmp_path):
    from geo_inference_ray.relational import user_growth

    day = 86_400_000_000
    rows = [
        (1, 10, 1, "click", 0.0),           # user 1 first on day 0
        (2, 20, 1, "click", 0.0),
        (3, day + 5, 1, "click", 0.0),      # returning on day 1
        (4, day + 6, 2, "click", 0.0),      # user 2 first on day 1
        (5, 2 * day + 1, 2, "click", 0.0),  # returning on day 2
    ]
    out = user_growth(_write_events(tmp_path, rows)) \
        .to_pandas().set_index("d")
    assert out.loc[0, "n_events"] == 2
    assert out.loc[0, "n_active_users"] == 1
    assert out.loc[0, "n_new_users"] == 1
    assert out.loc[1, "n_events"] == 2
    assert out.loc[1, "n_active_users"] == 2
    assert out.loc[1, "n_new_users"] == 1
    assert out.loc[2, "n_new_users"] == 0


def test_bloom_join_exact_on_both_verify_paths(ray_session, sf_dir,
                                               duck, monkeypatch):
    """The Bloom stage is pruning only: result must equal the plain
    semi-join on BOTH the broadcast-isin path and the distributed
    hash-join path (forced via BJ_BROADCAST_KEYS=0)."""
    from geo_inference_ray import relational

    exp = duck.sql("""
        SELECT l_returnflag, COUNT(*) AS n,
          CAST(SUM(CAST(round(l_quantity) AS BIGINT)) AS BIGINT)
            AS sum_qty
        FROM lineitem
        WHERE l_orderkey IN (SELECT o_orderkey FROM orders
                             WHERE o_orderpriority = '1-URGENT')
        GROUP BY l_returnflag ORDER BY l_returnflag""").df()

    def run():
        return relational.bloom_join(sf_dir).to_pandas() \
            .sort_values("l_returnflag").reset_index(drop=True)

    assert run().equals(exp)
    monkeypatch.setattr(relational, "BJ_BROADCAST_KEYS", 0)
    assert run().equals(exp)


def test_bloom_join_empty_filter_side(ray_session, tmp_path):
    """No qualifying orders -> empty result on the broadcast path
    (the sorted-isin verify must not index into an empty key set)."""
    import pyarrow.parquet as pq

    from geo_inference_ray.relational import bloom_join

    d = tmp_path / "bj"
    d.mkdir()
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2], pa.int64()),
        "o_orderpriority": pa.array(["5-LOW", "5-LOW"])}),
        d / "orders.parquet")
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 2], pa.int64()),
        "l_returnflag": pa.array(["N", "N"]),
        "l_quantity": pa.array([1.0, 2.0])}), d / "lineitem.parquet")
    out = bloom_join(str(d)).to_pandas()
    assert len(out) == 0
