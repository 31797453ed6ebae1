"""Round-4 widening ops: integer PageRank (graph.py), cohort retention,
JSON props extraction, grouped HLL, per-lang quantiles."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _pdf(ds):
    return ds.to_pandas()


def test_pagerank_matches_oracle_both_paths(ray_session, sf_dir, duck):
    """Broadcast and distributed-join paths produce the identical
    integer rank table, and both match the DuckDB CTE chain."""
    from geo_inference_ray.graph import pagerank, pagerank_oracle_sql

    exp = duck.execute(pagerank_oracle_sql()).df() \
        .sort_values("node").reset_index(drop=True)
    got_b = _pdf(pagerank(sf_dir)).sort_values("node") \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got_b.astype("int64"),
                                  exp.astype("int64"))
    got_d = _pdf(pagerank(sf_dir, broadcast_cap=0)) \
        .sort_values("node").reset_index(drop=True)[["node", "rank_ppm"]]
    pd.testing.assert_frame_equal(got_d.astype("int64"),
                                  exp.astype("int64"))


def test_pagerank_invariants(ray_session, sf_dir):
    """Every node keeps at least the teleport base rank; the node set
    is exactly the parts and suppliers that appear in lineitem (even /
    odd ids); total rank never exceeds n * SCALE (floor divisions only
    lose mass)."""
    import pyarrow.parquet as pq

    from geo_inference_ray.graph import PR_BASE, PR_SCALE, pagerank

    got = _pdf(pagerank(sf_dir))
    assert (got["rank_ppm"] >= PR_BASE).all()
    li = pq.read_table(f"{sf_dir}/lineitem.parquet",
                       columns=["l_partkey", "l_suppkey"])
    parts = set(np.unique(li["l_partkey"].to_numpy()) * 2)
    supps = set(np.unique(li["l_suppkey"].to_numpy()) * 2 + 1)
    assert set(got["node"]) == parts | supps
    assert got["rank_ppm"].sum() <= len(got) * PR_SCALE


def test_retention_paths_and_shape(ray_session, sf_dir, duck):
    """Broadcast and join paths agree; offset-0 row of each cohort
    equals the cohort's size (every user is active on their first
    day); all offsets are non-negative."""
    from geo_inference_ray.relational import retention

    a = _pdf(retention(sf_dir)) \
        .sort_values(["cohort_day", "day_offset"]).reset_index(drop=True)
    b = _pdf(retention(sf_dir, broadcast_cap=0)) \
        .sort_values(["cohort_day", "day_offset"]) \
        .reset_index(drop=True)[a.columns.tolist()]
    pd.testing.assert_frame_equal(a.astype("int64"), b.astype("int64"))
    assert (a["day_offset"] >= 0).all()
    cohort_sizes = duck.execute("""
        SELECT MIN(CAST(epoch_us(ts) // 86400000000 AS BIGINT))
                   AS cohort_day,
               user_id
        FROM events GROUP BY user_id""").df() \
        .groupby("cohort_day").size()
    zero = a[a["day_offset"] == 0].set_index("cohort_day")["n_users"]
    for day, n in cohort_sizes.items():
        assert zero[day] == n


def test_props_extract_oracle(ray_session, sf_dir, duck):
    from geo_inference_ray.relational import props_extract

    got = _pdf(props_extract(sf_dir)).sort_values("event_type") \
        .reset_index(drop=True)
    exp = duck.execute(r"""
WITH x AS (SELECT event_type,
                  TRY_CAST(NULLIF(regexp_extract(
                      props, '"k":\s*(-?\d+)', 1), '') AS BIGINT) AS k
           FROM events)
SELECT event_type, COUNT(*) AS n_events,
       CAST(COUNT(k) AS BIGINT) AS n_with_k,
       CAST(COALESCE(SUM(k), 0) AS BIGINT) AS sum_k,
       MIN(k) AS min_k, MAX(k) AS max_k
FROM x GROUP BY event_type""").df().sort_values("event_type") \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_props_extract_miss_rows(ray_session):
    """Rows whose props lack the field count in n_events but not in
    n_with_k, and an all-miss group gets NULL min/max (SQL MIN/MAX
    over the empty set)."""
    import ray.data as rd

    from geo_inference_ray.relational import props_extract  # noqa: F401
    import geo_inference_ray.relational as rel

    # exercise the kernel directly on a crafted batch
    import pyarrow.compute as pc

    batch = pa.table({
        "event_type": pa.array(["a", "a", "b"]),
        "props": pa.array(['{"k": 3}', '{"x": 1}', 'not json'])})
    m = pc.extract_regex(batch["props"], pattern=r'"k":\s*(?P<v>-?\d+)')
    k = pc.cast(pc.struct_field(m, "v"), pa.int64())
    assert k.to_pylist() == [3, None, None]

    # end-to-end with a temp parquet shaped like events
    import tempfile

    import pyarrow.parquet as pq

    with tempfile.TemporaryDirectory() as d:
        pq.write_table(pa.table({
            "event_type": pa.array(["a", "a", "b"]),
            "props": pa.array(['{"k": 3}', '{"x": 1}', '{}'])}),
            f"{d}/events.parquet")
        got = _pdf(props_extract(d)).set_index("event_type")
        assert got.loc["a", "n_events"] == 2
        assert got.loc["a", "n_with_k"] == 1
        assert got.loc["a", "sum_k"] == 3
        assert got.loc["b", "n_with_k"] == 0
        assert pd.isna(got.loc["b", "min_k"])
        assert pd.isna(got.loc["b", "max_k"])


def test_hll_by_source_folds_to_global(ray_session, sf_dir):
    """The grouped registers are a MERGEABLE sketch: per-bucket MAX
    over all sources reproduces the global hll_registers table
    exactly (the merge contract a sharded pipeline relies on)."""
    import ray.data as rd

    from geo_inference_ray.dedup import hll_by_source, hll_registers

    grouped = _pdf(hll_by_source(rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "text"])))
    folded = grouped.groupby("bucket")["rho"].max().sort_index()
    glob = _pdf(hll_registers(rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"]))) \
        .set_index("bucket")["rho"].sort_index()
    pd.testing.assert_series_equal(folded, glob,
                                   check_names=False)


def test_quantiles_by_lang_consistency(ray_session, sf_dir):
    """Per-lang quantiles are ordered (p50<=p90<=p99) and agree with
    the global length_quantiles when the corpus is filtered to one
    language."""
    import ray.data as rd

    from geo_inference_ray.textops import (length_quantiles,
                                           quantiles_by_lang)

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["lang", "text"])
    got = _pdf(quantiles_by_lang(ds)).set_index("lang")
    assert (got["p50"] <= got["p90"]).all()
    assert (got["p90"] <= got["p99"]).all()
    one = ds.filter(expr="lang == 'en'")
    glob = _pdf(length_quantiles(one)).iloc[0]
    for q in ("p50", "p90", "p99"):
        assert got.loc["en", q] == glob[q]


def test_quantiles_by_lang_empty(ray_session):
    """Empty corpus returns a typed empty table, not a crash."""
    import ray.data as rd

    from geo_inference_ray.textops import quantiles_by_lang

    empty = rd.from_arrow(pa.table({
        "lang": pa.array([], pa.string()),
        "text": pa.array([], pa.string())}))
    out = quantiles_by_lang(empty)
    assert out.count() == 0
    # assert on the Dataset schema: Ray 2.49's to_pandas() drops the
    # columns of a 0-row dataset
    assert set(out.schema().names) == {"lang", "p50", "p90", "p99"}


def test_hits_matches_oracle_both_paths(ray_session, sf_dir, duck):
    """Broadcast and distributed-join HITS paths produce the identical
    integer score table, and both match the DuckDB CTE chain."""
    from geo_inference_ray.graph import hits, hits_oracle_sql

    exp = duck.execute(hits_oracle_sql()).df() \
        .sort_values(["is_hub", "node"]).reset_index(drop=True)
    got_b = _pdf(hits(sf_dir)).sort_values(["is_hub", "node"]) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got_b.astype("int64"),
                                  exp.astype("int64"))
    got_d = _pdf(hits(sf_dir, broadcast_cap=0)) \
        .sort_values(["is_hub", "node"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got_d.astype("int64"),
                                  exp.astype("int64"))


def test_graph_components_naive_reference(ray_session, sf_dir):
    """Star-contraction CC vs a driver union-find over the same
    sparsified edge set: identical (node, min-id component) labels,
    and the sparsification yields MULTIPLE components (the full graph
    is one giant component, which would verify nothing)."""
    import pyarrow.parquet as pq

    from geo_inference_ray.graph import CC_MOD, CC_QTY_MAX, \
        graph_components

    got = _pdf(graph_components(sf_dir)).sort_values("node") \
        .reset_index(drop=True)
    li = pq.read_table(f"{sf_dir}/lineitem.parquet",
                       columns=["l_partkey", "l_suppkey", "l_quantity"])
    p = li["l_partkey"].to_numpy().astype(np.int64)
    s = li["l_suppkey"].to_numpy().astype(np.int64)
    q = li["l_quantity"].to_numpy(zero_copy_only=False)
    m = (q < CC_QTY_MAX) & (p % CC_MOD == s % CC_MOD)
    a, b = p[m] * 2, s[m] * 2 + 1
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(a.tolist(), b.tolist()):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    want = {n: find(n) for n in parent}
    assert dict(zip(got["node"], got["comp"])) == want
    assert got["comp"].nunique() > 1


def test_kcore_broadcast_and_join_paths_agree(ray_session, sf_dir):
    """kcore's broadcast alive set and its distributed semi-join rounds
    (broadcast_cap=0) return the identical core."""
    from geo_inference_ray.graph import kcore

    a = _pdf(kcore(sf_dir)).sort_values("node").reset_index(drop=True)
    b = _pdf(kcore(sf_dir, broadcast_cap=0)).sort_values("node") \
        .reset_index(drop=True)[a.columns.tolist()]
    assert len(a) > 0
    pd.testing.assert_frame_equal(a.astype("int64"), b.astype("int64"))


def test_hits_empty_edges(ray_session, tmp_path):
    """Empty lineitem -> HITS returns a typed empty (node, is_hub,
    score) table on BOTH paths instead of raising on the empty Max
    aggregate (kcore's explicit-empty contract)."""
    import pyarrow.parquet as pq

    from geo_inference_ray.graph import hits

    pq.write_table(pa.table({
        "l_partkey": pa.array([], pa.int64()),
        "l_suppkey": pa.array([], pa.int64())}),
        tmp_path / "lineitem.parquet")
    for cap in (None, 0):
        kw = {} if cap is None else {"broadcast_cap": cap}
        out = hits(str(tmp_path), work_dir=str(tmp_path / "wk"), **kw)
        assert out.count() == 0
        assert set(out.schema().names) == {"node", "is_hub", "score"}


def test_hits_invariants(ray_session, sf_dir):
    """Hubs are exactly the parts, authorities exactly the suppliers;
    each side's max score is HITS_SCALE (max-normalization); all
    scores positive (every node has at least one edge)."""
    import pyarrow.parquet as pq

    from geo_inference_ray.graph import HITS_SCALE, hits

    got = _pdf(hits(sf_dir))
    li = pq.read_table(f"{sf_dir}/lineitem.parquet",
                       columns=["l_partkey", "l_suppkey"])
    parts = set(np.unique(li["l_partkey"].to_numpy()) * 2)
    supps = set(np.unique(li["l_suppkey"].to_numpy()) * 2 + 1)
    assert set(got.loc[got["is_hub"] == 1, "node"]) == parts
    assert set(got.loc[got["is_hub"] == 0, "node"]) == supps
    for side in (0, 1):
        s = got.loc[got["is_hub"] == side, "score"]
        assert s.max() == HITS_SCALE
        assert (s > 0).all()
