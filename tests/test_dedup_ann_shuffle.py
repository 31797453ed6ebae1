"""Tests: dedup family (exact, minhash, simhash), ANN, skew salting."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from geo_inference_ray.dedup import (MinHasher, SimHasher, _token_hashes,
                                     add_md5)
from geo_inference_ray.shuffle import MAX_SALTS, salt_plan


def test_token_hashes_stable_and_shingled():
    a = _token_hashes("one two three four")
    b = _token_hashes("one two three four")
    assert set(a.tolist()) == set(b.tolist())
    assert len(a) == 2  # 2 distinct 3-shingles
    short = _token_hashes("one two")
    assert len(short) == 1  # sub-shingle doc -> whole text


def test_minhash_similarity_tracks_jaccard():
    mh = MinHasher()
    s1 = mh.signature("the quick brown fox jumps over the lazy dog " * 3)
    s2 = mh.signature("the quick brown fox jumps over the lazy dog " * 3)
    assert (s1 == s2).all()
    s3 = mh.signature("a completely different document with other words here")
    est_same = (s1 == s2).mean()
    est_diff = (s1 == s3).mean()
    assert est_same == 1.0
    assert est_diff < 0.3
    # near-duplicate: one token changed -> high but not full agreement
    s4 = mh.signature("the quick brown fox jumps over the lazy cat " * 3)
    assert 0.3 < (s1 == s4).mean() < 1.0


def test_simhash_hamming_for_near_dup():
    sh = SimHasher()
    t = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "text": pa.array([
                      "alpha beta gamma delta epsilon zeta eta theta " * 4,
                      "alpha beta gamma delta epsilon zeta eta iota " * 4,
                      "totally unrelated words appear in this one here now",
                  ])})
    out = sh(t)
    h = out["simhash"].to_numpy()
    d01 = bin(int(h[0]) ^ int(h[1])).count("1")
    d02 = bin(int(h[0]) ^ int(h[2])).count("1")
    assert d01 < d02
    # 4x16-bit segments present
    assert {"seg0", "seg1", "seg2", "seg3"} <= set(out.column_names)


def test_add_md5_matches_hashlib():
    import hashlib

    t = pa.table({"doc_id": pa.array([0], pa.int64()),
                  "text": pa.array(["hello world"])})
    out = add_md5(t)
    assert out["text_md5"].to_pylist() == [
        hashlib.md5(b"hello world").hexdigest()]


def test_salt_plan_bounds():
    counts = {1: 100, 2: 5000, 3: 100000}
    plan = salt_plan(counts, cap=1024)
    assert 1 not in plan               # cold key untouched
    assert plan[2] == 5               # ceil(5000/1024)
    assert plan[3] == MAX_SALTS       # bounded
    assert salt_plan({}, 10) == {}


def test_minhash_lsh_finds_planted_dups(ray_session):
    """Planted near-duplicates surface as candidate pairs; unrelated
    docs don't."""
    import ray.data as rd

    from geo_inference_ray.dedup import minhash_candidates

    base = ("data processing engines shuffle sort join aggregate "
            "stream batch " * 4)
    rows = []
    for i in range(30):
        rows.append({"doc_id": i,
                     "text": f"document {i} " + " ".join(
                         f"w{i}x{j}" for j in range(40))})
    rows.append({"doc_id": 100, "text": base})
    rows.append({"doc_id": 101, "text": base})  # exact dup of 100
    ds = rd.from_pandas(pd.DataFrame(rows))
    pairs = minhash_candidates(ds).to_pandas()
    assert ((pairs["doc_a"] == 100) & (pairs["doc_b"] == 101)).any()
    # no unrelated pair among the unique docs
    uniq = pairs[(pairs["doc_a"] < 100) & (pairs["doc_b"] < 100)]
    assert len(uniq) == 0


def test_jaccard_verify_distributed(ray_session):
    """Distributed shingle-join Jaccard verify: exact dup scores 1000,
    near-dup scores high-but-below, without any driver text broadcast."""
    import ray.data as rd

    from geo_inference_ray.dedup import jaccard_pairs, minhash_candidates

    base = ("data processing engines shuffle sort join aggregate "
            "stream batch " * 4)
    near = base.replace("sort", "order", 1)
    rows = [{"doc_id": i,
             "text": f"document {i} " + " ".join(
                 f"w{i}x{j}" for j in range(40))} for i in range(20)]
    rows += [{"doc_id": 100, "text": base},
             {"doc_id": 101, "text": base},
             {"doc_id": 102, "text": near}]
    docs = rd.from_pandas(pd.DataFrame(rows))
    pairs = minhash_candidates(docs)
    out = jaccard_pairs(pairs, docs).to_pandas()
    exact = out[(out["doc_a"] == 100) & (out["doc_b"] == 101)]
    assert len(exact) == 1 and exact["jaccard_milli"].iloc[0] == 1000
    nd = out[(out["doc_a"].isin([100, 101])) & (out["doc_b"] == 102)]
    assert (nd["jaccard_milli"] < 1000).all()
    assert (nd["jaccard_milli"] > 500).all()


def test_containment_detects_inclusion(ray_session):
    """A short doc embedded verbatim in a long one: containment on the
    short side is 1000 even though Jaccard is well below 1000."""
    import ray.data as rd

    from geo_inference_ray.dedup import (containment_pairs, jaccard_pairs,
                                         minhash_candidates)

    # long doc = short doc + a 15% tail: similar enough for LSH to emit
    # the candidate, asymmetric enough that containment != jaccard
    short = " ".join(f"tok{j}" for j in range(80))
    long_ = short + " " + " ".join(f"extra{j}" for j in range(12))
    rows = [{"doc_id": i,
             "text": " ".join(f"u{i}v{j}" for j in range(40))}
            for i in range(10)]
    rows += [{"doc_id": 100, "text": short},
             {"doc_id": 101, "text": long_}]
    docs = rd.from_pandas(pd.DataFrame(rows))
    pairs = minhash_candidates(docs)
    out = containment_pairs(pairs, docs).to_pandas()
    hit = out[(out["doc_a"] == 100) & (out["doc_b"] == 101)]
    assert len(hit) == 1
    assert hit["contain_a_milli"].iloc[0] == 1000  # short fully inside
    assert hit["contain_b_milli"].iloc[0] < 1000
    jac = jaccard_pairs(pairs, docs).to_pandas()
    jhit = jac[(jac["doc_a"] == 100) & (jac["doc_b"] == 101)]
    # jaccard is dragged below containment_a by the asymmetric tail
    assert jhit["jaccard_milli"].iloc[0] < 1000


def test_containment_empty_pairs(ray_session):
    import ray.data as rd

    from geo_inference_ray.dedup import containment_pairs

    docs = rd.from_pandas(pd.DataFrame(
        {"doc_id": [1], "text": ["lone document"]}))
    empty = rd.from_pandas(pd.DataFrame(
        {"doc_a": pd.Series([], dtype="int64"),
         "doc_b": pd.Series([], dtype="int64")}))
    out = containment_pairs(empty, docs)
    assert out.count() == 0
    # (to_pandas on a zero-row Dataset drops columns — assert on the
    # Dataset schema instead)
    assert out.schema().names == ["doc_a", "doc_b",
                                  "contain_a_milli", "contain_b_milli"]


def test_ann_topk_matches_bruteforce(ray_session, sf_dir):
    from geo_inference_ray.ann import N_QUERIES_DEFAULT, ann_topk

    import pyarrow.parquet as pq

    got = ann_topk(sf_dir).to_pandas().sort_values(
        ["query_id", "rank"]).reset_index(drop=True)
    t = pq.read_table(f"{sf_dir}/embeddings.parquet").to_pandas() \
        .sort_values("vec_id")
    M = np.stack(t["embedding"].to_numpy()).astype(np.float64)
    ids = t["vec_id"].to_numpy()
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    rows = []
    for qi in range(N_QUERIES_DEFAULT):
        sims = Mn[qi] @ Mn.T
        order = np.lexsort((ids, -sims))
        order = [j for j in order if ids[j] != ids[qi]][:10]
        for r, j in enumerate(order):
            rows.append((ids[qi], ids[j], r + 1))
    exp = pd.DataFrame(rows, columns=["query_id", "neighbor_id", "rank"])
    assert got.equals(exp)


def test_embedding_near_dup_finds_planted(ray_session, tmp_path):
    """Plant two nearly-identical vectors in a copy of the embeddings
    table; the LSH near-dup pipeline finds exactly that pair."""
    import pyarrow.parquet as pq

    from geo_inference_ray.ann import embedding_near_dup

    t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet")
    df = t.to_pandas()
    v = np.asarray(df["embedding"].iloc[0], dtype=np.float32)
    df.loc[len(df)] = {"vec_id": 9000, "embedding": v.tolist(), "label": 0}
    df.loc[len(df)] = {"vec_id": 9001,
                       "embedding": (v + 1e-4).tolist(), "label": 0}
    d = tmp_path / "emb"
    d.mkdir()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / "embeddings.parquet"))
    pairs = embedding_near_dup(str(d)).to_pandas()
    assert len(pairs) >= 1
    assert ((pairs["vec_a"] == 9000) & (pairs["vec_b"] == 9001)).any() or \
        ((pairs["vec_a"] == 0) & (pairs["vec_b"].isin([9000, 9001]))).any()


def test_lsh_planes_scale_with_corpus():
    from geo_inference_ray.ann import LSH_MIN_PLANES, lsh_planes_for

    assert lsh_planes_for(100) == LSH_MIN_PLANES
    assert lsh_planes_for(2_000) == 6
    assert lsh_planes_for(130_000) == 12
    assert lsh_planes_for(10**12) < 63  # gkey stays int64
    assert lsh_planes_for(10**9) > lsh_planes_for(10**6)


def test_embedding_near_dup_salts_degenerate_bucket(ray_session, tmp_path):
    """300 identical vectors form one degenerate LSH bucket in every
    band; with a low cap the bucket must be salted (bounded group size)
    while near-dup pairs are still found within each salt group."""
    import pyarrow.parquet as pq

    from geo_inference_ray.ann import HyperplaneLSH, embedding_near_dup
    from geo_inference_ray.shuffle import (MAX_SALTS, add_salt, key_counts,
                                           salt_plan)
    import ray.data as rd

    rng = np.random.default_rng(3)
    v = rng.standard_normal(16).astype(np.float32)
    df = pd.DataFrame({
        "vec_id": np.arange(300, dtype=np.int64),
        "embedding": [v.tolist()] * 300,
    })
    d = tmp_path / "emb2"
    d.mkdir()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / "embeddings.parquet"))
    cap = 32
    pairs = embedding_near_dup(str(d), bucket_cap=cap).to_pandas()
    # identical vectors -> sim_milli 1000 pairs exist
    assert (pairs["sim_milli"] == 1000).all()
    assert len(pairs) >= 1
    # verify the salted group sizes are bounded by ceil(n_bucket/n_salts)
    ds = rd.read_parquet(str(d / "embeddings.parquet"))
    lsh = ds.map_batches(HyperplaneLSH(16), batch_format="pyarrow") \
        .materialize()
    counts = key_counts(lsh, "gkey")
    plan = salt_plan(counts, cap=cap)
    assert plan  # the degenerate bucket is hot
    salted = add_salt(lsh, "gkey", plan, "vec_id").to_pandas()
    sizes = salted.groupby(["gkey", "salt"]).size()
    for (gk, _), sz in sizes.items():
        n_b = counts[gk]
        bound = -(-n_b // plan.get(gk, 1))
        assert sz <= max(bound, cap), (gk, sz, n_b)
    assert sizes.max() <= -(-300 // MAX_SALTS) + cap


def test_ivf_topk_recall_vs_exact(ray_session, sf_dir):
    """IVF-probed ANN returns the same schema/row count as the exact
    baseline and reaches >=0.85 recall at nprobe/nlist = 4/16."""
    from geo_inference_ray.ann import ann_topk, ivf_topk

    ex = ann_topk(sf_dir).to_pandas()
    ap = ivf_topk(sf_dir).to_pandas()
    assert list(ap.columns) == ["query_id", "neighbor_id", "rank"]
    assert len(ap) == len(ex)
    e = set(map(tuple, ex[["query_id", "neighbor_id"]].values.tolist()))
    a = set(map(tuple, ap[["query_id", "neighbor_id"]].values.tolist()))
    assert len(e & a) / len(e) >= 0.85


def test_dedup_clusters_transitive(ray_session):
    """a-b and b-c pairs collapse into one cluster with the min id as
    representative; untouched docs stay singletons wherever they fall
    among the paired ids (before, between, after the last), also when
    there are no pairs at all."""
    import ray.data as rd

    from geo_inference_ray.dedup import dedup_clusters

    def clusters(ids, a, b):
        docs = rd.from_arrow(pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(["x"] * len(ids)),
        }))
        pairs = rd.from_arrow(pa.table({
            "doc_a": pa.array(a, pa.int64()),
            "doc_b": pa.array(b, pa.int64()),
        }))
        out = dedup_clusters(docs, pairs).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        assert out["doc_id"].tolist() == ids
        return out["cluster"].tolist()

    assert clusters([1, 2, 3, 4, 9], [1, 2], [2, 3]) == [1, 1, 1, 4, 9]
    ids = [0, 2, 3, 5, 6, 7, 8, 11]
    assert clusters(ids, [7, 5, 11], [5, 2, 8]) == [0, 2, 3, 2, 6, 2, 8, 8]
    assert clusters(ids, [], []) == ids


def test_length_quantiles_golden(ray_session):
    import ray.data as rd

    from geo_inference_ray.textops import length_quantiles

    texts = ["a" * n for n in range(1, 101)]  # lengths 1..100
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(list(range(100)), pa.int64()),
        "text": pa.array(texts),
    }))
    out = length_quantiles(docs).to_pandas()
    assert out["p50"].tolist() == [50]
    assert out["p90"].tolist() == [90]
    assert out["p99"].tolist() == [99]


def test_short_doc_oracle_parity(tmp_path):
    """Docs with fewer than SHINGLE_K tokens take the fold fallback in
    _token_hashes; the SQL chain mirrors it with a UNION branch.  Pin
    engine == oracle on a corpus of 1-, 2- and 3-token docs."""
    import duckdb
    import pyarrow.parquet as pq

    import __ray_entry__ as entry
    from geo_inference_ray.dedup import MinHasher, SimHasher, band_rows

    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array(["one", "one two", "one two three", "one two"]),
    })
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")

    # band keys: engine vs the shared SQL chain
    bands = band_rows(MinHasher()(docs))
    eng_keys = {(d, g) for d, g in zip(bands["doc_id"].to_pylist(),
                                       bands["gid"].to_pylist())}
    rows = con.execute(
        "WITH RECURSIVE " + entry._minhash_sql_chain().lstrip()
        + " SELECT doc_id, band * 2147483648 + band_key FROM bkeys"
    ).fetchall()
    assert {(d, g) for d, g in rows} == eng_keys
    # docs 1 and 3 are identical 2-token texts -> a candidate pair on
    # both sides
    pair_rows = con.execute(
        "WITH RECURSIVE " + entry._minhash_sql_chain().lstrip()
        + " SELECT doc_a, doc_b FROM cand").fetchall()
    assert (1, 3) in set(pair_rows)

    # simhash rows exist (and match) for every doc incl. short ones
    sh = SimHasher()(docs)
    eng_sim = dict(zip(sh["doc_id"].to_pylist(),
                       sh["simhash"].to_pylist()))
    sim_rows = con.execute(
        "WITH RECURSIVE " + entry._minhash_sql_chain().lstrip()
        + entry._simhash_sql()).fetchall()
    assert {r[0]: r[1] for r in sim_rows} == eng_sim


# ---------------------------------------------------------------------------
# Round 3: distributed connected components, size-aware partitioning,
# jaccard candidate-set guard, pool sizing, spill cleanup
# ---------------------------------------------------------------------------

def _synthetic_pair_graph(n_nodes=40_000, n_random=110_000, path_len=4_000,
                          seed=11):
    """Random edges (dense blobs) + one long path (diameter stress):
    >=1e5 pairs, known-awkward for naive min-propagation."""
    import ray.data as rd

    rng = np.random.default_rng(seed)
    a = rng.integers(0, n_nodes, n_random)
    b = rng.integers(0, n_nodes, n_random)
    m = a != b
    lo = np.minimum(a[m], b[m]).astype(np.int64)
    hi = np.maximum(a[m], b[m]).astype(np.int64)
    p = np.arange(n_nodes - path_len, n_nodes, dtype=np.int64)
    lo = np.concatenate([lo, p[:-1]])
    hi = np.concatenate([hi, p[1:]])
    pairs = rd.from_arrow(pa.table({"doc_a": pa.array(lo),
                                    "doc_b": pa.array(hi)}))
    docs = rd.from_arrow(pa.table(
        {"doc_id": pa.array(np.arange(n_nodes, dtype=np.int64))}))
    return docs, pairs, len(lo)


def test_distributed_components_matches_driver(ray_session):
    """The VERDICT r2 done-criterion: the distributed star-contraction
    path produces IDENTICAL clusters to the driver union-find on a
    >=1e5-pair synthetic graph (random blobs + a long path)."""
    from geo_inference_ray.dedup import dedup_clusters

    docs, pairs, n_pairs = _synthetic_pair_graph()
    assert n_pairs >= 100_000
    drv = dedup_clusters(docs, pairs).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    dist = dedup_clusters(docs, pairs, force_distributed=True).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert (drv["doc_id"].to_numpy() == dist["doc_id"].to_numpy()).all()
    assert (drv["cluster"].to_numpy() == dist["cluster"].to_numpy()).all()
    assert dist["cluster"].dtype == np.int64


def test_star_kernels_on_path_and_clique():
    """Kernel-level: large-star then small-star on a path contracts
    toward the min; both are identity on a star."""
    from geo_inference_ray.dedup import _star_kernel

    def run(kern, edges):
        bidir = pd.DataFrame({
            "u": [e[0] for e in edges] + [e[1] for e in edges],
            "v": [e[1] for e in edges] + [e[0] for e in edges]})
        out = kern(pa.table(bidir))
        return set(zip(out["a"].to_pylist(), out["b"].to_pylist()))

    star = [(1, 2), (1, 3), (1, 4)]
    assert run(_star_kernel(True), star) == set(star)
    assert run(_star_kernel(False), star) == set(star)
    path = [(1, 2), (2, 3), (3, 4)]
    l1 = run(_star_kernel(True), path)
    assert l1 == {(1, 2), (1, 3), (2, 4)}
    l2 = run(_star_kernel(False), list(l1))
    l3 = run(_star_kernel(True), list(l2))
    assert l3 == {(1, 2), (1, 3), (1, 4)}


def test_partitions_scale_with_rows():
    """shuffle.partitioned's partition count grows with the row hint
    and is bounded per partition (VERDICT r2 item 2)."""
    from geo_inference_ray.shuffle import (HP_MIN_PARTITIONS,
                                           HP_TARGET_ROWS, partitions_for)

    assert partitions_for(0) == HP_MIN_PARTITIONS
    assert partitions_for(HP_TARGET_ROWS * 100) == 100
    assert partitions_for(HP_TARGET_ROWS * 100 + 1) == 101
    # monotone growth, bounded per-partition rows
    prev = 0
    for rows in (10**4, 10**6, 10**8, 10**10):
        np_ = partitions_for(rows)
        assert np_ >= prev
        assert rows / np_ <= HP_TARGET_ROWS or np_ == HP_MIN_PARTITIONS \
            or rows / np_ <= HP_TARGET_ROWS + 1
        prev = np_


def test_jaccard_guard_join_path_matches_broadcast(ray_session):
    """Forcing the distributed id-filter path (cand_driver_limit=0)
    yields the same verified pairs as the broadcast path."""
    import ray.data as rd

    from geo_inference_ray.dedup import jaccard_pairs

    texts = ["alpha beta gamma delta epsilon zeta", 
             "alpha beta gamma delta epsilon zeta",
             "alpha beta gamma delta epsilon eta",
             "completely different words in here now"]
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array(texts)}))
    pairs = rd.from_arrow(pa.table({
        "doc_a": pa.array([0, 0, 2], pa.int64()),
        "doc_b": pa.array([1, 2, 3], pa.int64())}))

    def norm(ds):
        df = ds.to_pandas().sort_values(["doc_a", "doc_b"]) \
            .reset_index(drop=True)
        return df

    bc = norm(jaccard_pairs(pairs, docs))
    jn = norm(jaccard_pairs(pairs, docs, cand_driver_limit=0))
    pd.testing.assert_frame_equal(bc, jn)
    assert bc.loc[0, "jaccard_milli"] == 1000  # identical docs


def test_spill_dir_cleanup(tmp_path):
    """Spill dirs live under a per-pid tree (atexit-removed) and trees
    from dead pids are swept on first use (ADVICE r2: /tmp leak)."""
    import os

    from geo_inference_ray import pools

    base = str(tmp_path)
    # plant a dead-pid tree: pid 1 is init (alive) -> kept;
    # an absurd pid -> swept
    root = os.path.join(base, "geo_inference_ray_spill")
    os.makedirs(os.path.join(root, "pid999999999"))
    d1 = pools.spill_dir("bands", work_dir=base)
    assert os.path.isdir(d1)
    assert not os.path.exists(os.path.join(root, "pid999999999"))
    d2 = pools.spill_dir("bands", work_dir=base)
    assert d1 != d2
    assert os.path.dirname(d1) == os.path.dirname(d2)
    assert os.path.basename(os.path.dirname(d1)) == f"pid{os.getpid()}"


def test_head_by_id_prunes_row_groups(tmp_path):
    """_head_by_id returns exactly the n smallest-id rows while reading
    only the row groups the statistics require (VERDICT r2 item 3:
    no whole-table driver reads on the embeddings path)."""
    import pyarrow.parquet as pq

    from geo_inference_ray.ann import _head_by_id

    rng = np.random.default_rng(3)
    ids = rng.permutation(10_000).astype(np.int64)
    emb = [list(map(float, rng.standard_normal(4))) for _ in ids]
    t = pa.table({"vec_id": pa.array(ids),
                  "embedding": pa.array(emb, pa.list_(pa.float64()))})
    # sorted file -> the head must come from row group 0 alone
    t_sorted = t.take(pa.array(np.argsort(ids)))
    p_sorted = str(tmp_path / "sorted.parquet")
    pq.write_table(t_sorted, p_sorted, row_group_size=512)
    out = _head_by_id(p_sorted, 8, ["vec_id", "embedding"])
    assert out["vec_id"].to_pylist() == list(range(8))
    # unsorted file -> still exactly the 8 globally smallest ids
    p_shuf = str(tmp_path / "shuffled.parquet")
    pq.write_table(t, p_shuf, row_group_size=512)
    out2 = _head_by_id(p_shuf, 8, ["vec_id", "embedding"])
    assert sorted(out2["vec_id"].to_pylist()) == list(range(8))
    # matching embeddings came along
    want = {i: e for i, e in zip(t["vec_id"].to_pylist(),
                                 t["embedding"].to_pylist())}
    for i, e in zip(out2["vec_id"].to_pylist(),
                    out2["embedding"].to_pylist()):
        assert e == want[i]


def test_kmeans_assign_invariants(ray_session, sf_dir):
    """Every vector lands on its exact nearest final centroid (driver
    recompute), cluster ids are within range, distances are exact
    integers reproduced from the quantized data."""
    import numpy as np
    import pyarrow.parquet as pq

    from geo_inference_ray.ann import (KMEANS_K, KMEANS_SCALE,
                                       kmeans_assign)

    out = kmeans_assign(sf_dir).to_pandas().sort_values("vec_id") \
        .reset_index(drop=True)
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    df = t.to_pandas().sort_values("vec_id").reset_index(drop=True)
    Q = np.floor(np.stack(df["embedding"].to_numpy()).astype(np.float64)
                 * KMEANS_SCALE).astype(np.int64)
    assert out["cluster"].between(0, KMEANS_K - 1).all()
    assert (out["vec_id"].to_numpy() == df["vec_id"].to_numpy()).all()
    # recompute the 2-iteration Lloyd driver-side
    seed = Q[np.argsort(df["vec_id"].to_numpy())[:KMEANS_K]]
    def assign(C):
        d = ((Q[:, None, :] - C[None, :, :]).astype(np.int64) ** 2) \
            .sum(axis=2)
        lab = np.argmin(d, axis=1)
        return lab, d[np.arange(len(Q)), lab]
    lab1, _ = assign(seed)
    C = seed.copy()
    for ci in range(KMEANS_K):
        sel = Q[lab1 == ci]
        if len(sel):
            C[ci] = np.floor(sel.sum(axis=0).astype(np.float64)
                             / float(len(sel))).astype(np.int64)
    lab2, d2 = assign(C)
    assert (out["cluster"].to_numpy() == lab2).all()
    assert (out["dist"].to_numpy() == d2).all()


def test_semdedup_keep_naive_reference(ray_session, sf_dir):
    """Cluster-scoped semantic prune vs a driver-side brute-force
    reference: keep=0 iff SOME lower-id vector in the same kmeans
    cluster passes the integer quantized-cosine predicate; clusters
    match kmeans_assign; both outcomes occur at the oracle threshold."""
    import numpy as np
    import pyarrow.parquet as pq

    from geo_inference_ray.ann import (SEM_SCALE, SEM_T_MILLI,
                                       kmeans_assign, semdedup_keep)

    out = semdedup_keep(sf_dir).to_pandas().sort_values("vec_id") \
        .reset_index(drop=True)
    ka = kmeans_assign(sf_dir).to_pandas().sort_values("vec_id") \
        .reset_index(drop=True)
    assert (out["cluster"].to_numpy() == ka["cluster"].to_numpy()).all()

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    df = t.to_pandas().sort_values("vec_id").reset_index(drop=True)
    QS = np.floor(np.stack(df["embedding"].to_numpy())
                  .astype(np.float64) * SEM_SCALE).astype(np.int64)
    n2 = (QS * QS).sum(axis=1)
    lab = out["cluster"].to_numpy()
    t2 = SEM_T_MILLI * SEM_T_MILLI
    S = QS @ QS.T
    cond = (S > 0) & (1_000_000 * S * S >= t2 * np.outer(n2, n2)) \
        & (lab[:, None] == lab[None, :])
    drop = np.triu(cond, k=1).any(axis=0)
    assert (out["keep"].to_numpy() == (~drop).astype(np.int64)).all()
    assert 0 < int(out["keep"].sum()) < len(out)


def test_simhash_pairs_hamming_semantics(ray_session):
    """Identical docs pair at hamming 0; near-identical docs pair with
    small hamming; unrelated docs with distant hashes don't pair."""
    import ray.data as rd

    from geo_inference_ray.dedup import (SIM_MAX_HAMMING, SimHasher,
                                         simhash_pairs)

    base = " ".join(f"tok{i}" for i in range(60))
    near = base + " extra"
    other = " ".join(f"zzz{i}" for i in range(60))
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([base, base, near, other]),
    }))
    out = simhash_pairs(docs, rows_hint=4).to_pandas()
    pairs = {(a, b): h for a, b, h in
             out[["doc_a", "doc_b", "hamming"]].itertuples(index=False)}
    assert pairs[(1, 2)] == 0
    assert all(h <= SIM_MAX_HAMMING for h in pairs.values())
    # exact hamming cross-check against the per-doc table
    tab = SimHasher()(pa.table({
        "doc_id": pa.array([1, 3], pa.int64()),
        "text": pa.array([base, near])}))
    h1, h3 = (np.uint64(v.as_py() & 0xFFFFFFFFFFFFFFFF)
              for v in tab["simhash"])
    true_ham = bin(int(h1 ^ h3)).count("1")
    if true_ham <= SIM_MAX_HAMMING:
        assert pairs.get((1, 3)) == true_ham
    else:
        assert (1, 3) not in pairs


def test_bloom_probe_no_false_negatives(ray_session):
    """A probe doc whose text exists in the build half MUST hit
    (Bloom filters have no false negatives); a probe with a unique
    text is almost surely a miss at this fill factor."""
    import ray.data as rd

    from geo_inference_ray.dedup import bloom_probe

    texts = [f"unique build text {i}" for i in range(40)]
    docs, ids = [], []
    for i in range(40):
        ids.append(2 * i)          # build half (even)
        docs.append(texts[i])
    ids.append(1); docs.append(texts[0])       # dup of a build doc
    ids.append(3); docs.append("never seen before text")
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(docs, pa.string())}))
    out = bloom_probe(ds).to_pandas().set_index("doc_id")
    assert out.loc[1, "maybe_seen"] == 1
    assert out.loc[3, "maybe_seen"] == 0   # 160/65536 bits set -> fp ~1e-10


def test_kmv_sketch_exact_and_estimate(ray_session, sf_dir):
    """kth_hash equals a driver-side recompute of the k-th smallest
    distinct shingle hash per source; the KMV estimate lands within
    ~25% of the true distinct count at k=128 (stderr ~ 1/sqrt(k))."""
    import pyarrow.parquet as pq

    from geo_inference_ray.dedup import (KMV_K, MERSENNE, _token_hashes,
                                         kmv_distinct)

    out = kmv_distinct(
        __import__("ray").data.read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "source", "text"])
    ).to_pandas().set_index("source")
    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["source", "text"])
    per_src: dict = {}
    for s, txt in zip(t["source"].to_pylist(), t["text"].to_pylist()):
        per_src.setdefault(s, set()).update(
            _token_hashes(txt).tolist())
    assert set(out.index) == set(per_src)
    for s, hs in per_src.items():
        h = sorted(hs)
        true_n = len(h)
        if true_n >= KMV_K:
            kth = h[KMV_K - 1]
            assert out.loc[s, "kth_hash"] == kth
            est = (KMV_K - 1) * MERSENNE // kth
            assert out.loc[s, "est_distinct"] == est
            assert abs(est - true_n) <= 0.25 * true_n + 10
        else:
            assert out.loc[s, "kth_hash"] == -1
            assert out.loc[s, "est_distinct"] == true_n


def test_kmv_small_source_exact_path(ray_session):
    """A source with fewer than k distinct shingles reports the exact
    count with kth_hash = -1."""
    import ray.data as rd

    from geo_inference_ray.dedup import _token_hashes, kmv_distinct

    txt = "tiny vocabulary only a few words here"
    docs = rd.from_pandas(pd.DataFrame(
        {"doc_id": [1, 2], "source": ["s", "s"], "text": [txt, txt]}))
    out = kmv_distinct(docs).to_pandas()
    assert len(out) == 1
    assert out["kth_hash"].iloc[0] == -1
    assert out["est_distinct"].iloc[0] == len(set(
        _token_hashes(txt).tolist()))


def test_hll_registers_match_reference(ray_session, sf_dir):
    """Registers equal a driver-side recompute over the exact distinct
    token set, and the standard HLL estimate lands near the true
    cardinality."""
    import hashlib

    import pyarrow.parquet as pq

    from geo_inference_ray.dedup import HLL_BUCKETS, hll_registers

    out = hll_registers(
        __import__("ray").data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ).to_pandas().set_index("bucket")["rho"]
    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"])
    vocab = set()
    for txt in t["text"].to_pylist():
        vocab.update(txt.split(" "))
    regs = {}
    for tok in vocab:
        h = int(hashlib.md5(tok.encode()).hexdigest()[:15], 16)
        b, rest = h % HLL_BUCKETS, h // HLL_BUCKETS
        rho = 53 if rest == 0 else (rest & -rest).bit_length()
        regs[b] = max(regs.get(b, 0), rho)
    assert dict(out) == regs
    # epilogue estimate (not part of the exact contract): within 2x
    m = HLL_BUCKETS
    full = [regs.get(b, 0) for b in range(m)]
    z = sum(2.0 ** -r for r in full)
    est = 0.7213 / (1 + 1.079 / m) * m * m / z
    nz = sum(1 for r in full if r == 0)
    if est <= 2.5 * m and nz:
        import math
        est = m * math.log(m / nz)
    assert 0.5 * len(vocab) <= est <= 2.0 * len(vocab)


def test_simhash_pairs_bucket_cap(ray_session):
    """A degenerate LSH bucket (many identical simhashes — web
    boilerplate) is truncated to the cap SMALLEST doc_ids: pair count
    stays O(cap^2) and every surviving pair is within the cap set."""
    import ray.data as rd

    from geo_inference_ray.dedup import simhash_pairs

    base = " ".join(f"tok{i}" for i in range(60))
    n = 12
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(list(range(1, n + 1)), pa.int64()),
        "text": pa.array([base] * n),
    }))
    cap = 5
    out = simhash_pairs(docs, rows_hint=n, bucket_cap=cap).to_pandas()
    # identical docs: every within-cap pair survives at hamming 0
    assert len(out) == cap * (cap - 1) // 2
    assert out["doc_a"].max() < cap + 1 and out["doc_b"].max() <= cap
    assert (out["hamming"] == 0).all()
    # uncapped control: the full quadratic set
    full = simhash_pairs(docs, rows_hint=n).to_pandas()
    assert len(full) == n * (n - 1) // 2


def test_length_quantiles_empty_corpus(ray_session):
    import ray.data as rd

    from geo_inference_ray.textops import length_quantiles

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
    }))
    res = length_quantiles(docs)
    assert res.schema().names == ["p50", "p90", "p99"]
    assert len(res.to_pandas()) == 0


def test_chunk_dedup_packed_key_guard(ray_session):
    """doc_id beyond 2^43 must raise instead of silently corrupting
    the packed winner key."""
    import pytest
    import ray.data as rd

    from geo_inference_ray.textops import chunk_dedup

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1 << 44], pa.int64()),
        "text": pa.array(["a b c d"]),
    }))
    with pytest.raises(Exception, match="overflow"):
        chunk_dedup(docs, chunk_tokens=2).to_pandas()


def test_token_cache_bounded():
    """The per-worker token->hash memo clears at its cap instead of
    growing with corpus vocabulary."""
    from geo_inference_ray import dedup as dd

    saved = dict(dd._TOKEN_CACHE)
    saved_max = dd._TOKEN_CACHE_MAX
    try:
        dd._TOKEN_CACHE.clear()
        dd._TOKEN_CACHE_MAX = 100
        for i in range(5):
            dd._hash_tokens([f"t{i}_{j}" for j in range(60)])
            assert len(dd._TOKEN_CACHE) <= 100
        # determinism across a clear: same token -> same hash
        h1 = dd._hash_tokens(["stable_tok"])[0]
        dd._TOKEN_CACHE.clear()
        h2 = dd._hash_tokens(["stable_tok"])[0]
        assert h1 == h2
    finally:
        dd._TOKEN_CACHE_MAX = saved_max
        dd._TOKEN_CACHE.clear()
        dd._TOKEN_CACHE.update(saved)


def test_hash_mix_spreads_structured_keys():
    """Regression guard for the partition-collapse bug: packed keys
    with all-zero low bits (hex7 << 24 | salt=0) must spread across
    every partition count, including the power-of-two counts
    partitions_for's CPU floor produces."""
    from geo_inference_ray.shuffle import hash_mix

    gid = (np.arange(5000, dtype=np.int64) + 4_000_000) << 24
    for P in (8, 16, 64, 48, 997):
        pk = hash_mix(gid, P)
        assert pk.min() >= 0 and pk.max() < P
        u, c = np.unique(pk, return_counts=True)
        assert len(u) == P  # every partition used
        assert c.max() / len(gid) < 4.0 / P  # no partition > 4x fair share
    # determinism: pure function of the key
    assert (hash_mix(gid, 64) == hash_mix(gid.copy(), 64)).all()


PART_SCHEMA = pa.schema([("row", pa.int64()), ("key", pa.int64()),
                         ("call", pa.int32())])


def _run_partitioned(table: pa.Table, rows_hint: int):
    """shuffle.partitioned over ``table`` (row, key) with a kernel that
    tags every row it sees with one random id per call.  Returns the
    raw output blocks, uncast."""
    import ray
    import ray.data as rd

    from geo_inference_ray.shuffle import partitioned

    def kernel(t: pa.Table) -> pa.Table:
        assert t.column_names == ["row", "key"]
        assert t.schema.metadata is None  # dropped by the key map
        call = np.random.randint(0, 2**31 - 1)
        # int64 call ids and reversed columns: the primitive casts and
        # reorders to the declared schema
        return pa.table({"call": np.full(t.num_rows, call, np.int64),
                         "key": t["key"], "row": t["row"]})

    ds = rd.from_arrow([table.slice(i, 700)
                        for i in range(0, max(1, table.num_rows), 700)])
    out = partitioned(ds, "key", kernel, PART_SCHEMA, rows_hint=rows_hint)
    return ray.get(out.materialize().to_arrow_refs())


@pytest.fixture
def small_blocks():
    """Ray's block size target lowered to 64 KiB, so a block split
    would show as a partition reaching two kernel calls."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 64 * 1024
    yield
    ctx.target_max_block_size = old


@pytest.mark.parametrize("case", ["skewed", "single_key", "empty"])
def test_partitioned_one_call_per_key(ray_session, small_blocks, case):
    """Every row of a key reaches exactly one kernel call, no row is
    lost or duplicated, and every populated output block carries
    exactly the declared schema (Ray's sort hands no kernel the
    partitions that got no rows; their blocks stay schema-less)."""
    rng = np.random.default_rng(7)
    if case == "skewed":
        # one hot key, a long tail, and packed keys with zero low bits
        keys = np.concatenate([np.full(3000, 11), rng.integers(0, 500, 2000),
                               (np.arange(200) + 5) << 24])
    elif case == "single_key":
        keys = np.full(1500, 42)
    else:
        keys = np.empty(0, np.int64)
    table = pa.table({"row": np.arange(len(keys), dtype=np.int64),
                      "key": keys.astype(np.int64)}).replace_schema_metadata(
        {"pandas": "{}"})
    blocks = [b for b in _run_partitioned(table, rows_hint=len(keys))
              if b.num_rows]
    assert all(b.schema.equals(PART_SCHEMA) for b in blocks)
    out = pa.concat_tables(blocks) if blocks else PART_SCHEMA.empty_table()
    assert sorted(out["row"].to_pylist()) == list(range(len(keys)))
    got = out.to_pandas()
    assert (got["key"].to_numpy() == keys[got["row"].to_numpy()]).all()
    assert (got.groupby("key")["call"].nunique() == 1).all()
    if case == "single_key":
        assert got["call"].nunique() == 1


def test_partitioned_populated_partitions_are_typed(ray_session):
    """Each populated partition comes out as typed blocks: the
    boundary sort makes one block per partition, so only partitions
    that got no key can be schema-less, and a block with rows never
    is."""
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 5, 4000).astype(np.int64)
    table = pa.table({"row": np.arange(len(keys), dtype=np.int64),
                      "key": keys})
    blocks = _run_partitioned(table, rows_hint=len(keys))
    typed = [b for b in blocks if b.schema.equals(PART_SCHEMA)]
    assert sum(b.num_rows for b in typed) == len(keys)
    assert all(b.schema.equals(PART_SCHEMA) for b in blocks if b.num_rows)
    # 5 keys fill at most 5 of the partitions; the others are empty
    assert len([b for b in blocks if not b.num_rows]) <= len(blocks) - 1


def test_partitioned_missing_column_is_loud(ray_session):
    """A populated kernel output missing a declared column raises; an
    empty one becomes a typed empty block."""
    import ray
    import ray.data as rd

    from geo_inference_ray.shuffle import partitioned

    ds = rd.from_arrow(pa.table({"key": np.arange(50, dtype=np.int64)}))
    schema = pa.schema([("key", pa.int64()), ("n", pa.int64())])
    bad = partitioned(ds, "key", lambda t: t, schema, rows_hint=50)
    with pytest.raises(Exception, match=r"missing \['n'\]"):
        bad.materialize()
    empty = partitioned(ds, "key", lambda t: t.slice(0, 0), schema,
                        rows_hint=50)
    blocks = ray.get(empty.materialize().to_arrow_refs())
    assert all(b.num_rows == 0 for b in blocks)
    assert any(b.schema.equals(schema) for b in blocks)


def _count_folds(monkeypatch, sh) -> list:
    """Record each shuffle.fold_partials call: a driver fold ran."""
    calls = []
    fold = sh.fold_partials

    def spy(*args):
        calls.append(1)
        return fold(*args)

    monkeypatch.setattr(sh, "fold_partials", spy)
    return calls


def test_minhash_bucket_count_bailout(ray_session, monkeypatch):
    """With a tiny driver budget the bucket-count pre-pass must route
    through the distributed groupby and produce the identical pair
    set."""
    import ray.data as rd

    from geo_inference_ray import dedup as dd
    from geo_inference_ray import shuffle as sh

    base = ("data processing engines shuffle sort join aggregate "
            "stream batch " * 4)
    rows = [{"doc_id": i,
             "text": f"document {i} " + " ".join(
                 f"w{i}x{j}" for j in range(40))} for i in range(25)]
    rows += [{"doc_id": 100, "text": base},
             {"doc_id": 101, "text": base}]
    docs = rd.from_pandas(pd.DataFrame(rows))
    folds = _count_folds(monkeypatch, sh)
    ref = dd.minhash_candidates(docs).to_pandas() \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    assert folds == [1]  # driver fold
    monkeypatch.setattr(sh, "PARTIAL_ROWS_DRIVER_LIMIT", 3)
    out = dd.minhash_candidates(docs).to_pandas() \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    assert folds == [1]  # distributed groupby: no second driver fold
    assert out.equals(ref)
    assert ((out["doc_a"] == 100) & (out["doc_b"] == 101)).any()


def test_minhash_hot_gid_join_fallback(ray_session, monkeypatch):
    """Above hot_driver_limit the >=2-member bucket set must NOT
    concatenate on the driver: the filter routes through the
    distributed inner join and yields the identical pair set.  A zero
    PARTIAL_ROWS_DRIVER_LIMIT forces the distributed-groupby pre-pass
    as well."""
    import ray.data as rd

    from geo_inference_ray import dedup as dd
    from geo_inference_ray import shuffle as sh

    base = ("data processing engines shuffle sort join aggregate "
            "stream batch " * 4)
    rows = [{"doc_id": i,
             "text": f"document {i} " + " ".join(
                 f"w{i}x{j}" for j in range(40))} for i in range(25)]
    rows += [{"doc_id": 100, "text": base},
             {"doc_id": 101, "text": base},
             {"doc_id": 102, "text": base + " extra tail words"}]
    docs = rd.from_pandas(pd.DataFrame(rows))
    ref = dd.minhash_candidates(docs).to_pandas() \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    monkeypatch.setattr(sh, "PARTIAL_ROWS_DRIVER_LIMIT", 0)
    out = dd.minhash_candidates(docs, hot_driver_limit=0).to_pandas() \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    assert out.equals(ref)
    assert ((out["doc_a"] == 100) & (out["doc_b"] == 101)).any()


def test_minhash_mega_bucket_capped(ray_session):
    """Adversarial boilerplate corpus: N identical docs put every doc
    in one band bucket per band.  With bucket_cap=8 the pair volume is
    C(8,2) + (N-8) star edges (not C(N,2)), every doc still appears in
    at least one pair, and near-dup clustering over the verified pairs
    recovers ONE cluster covering all N docs — the star edges keep the
    beyond-prefix tail connected (the round-5 review found plain
    truncation split identical docs into N-cap+1 clusters)."""
    import ray.data as rd

    from geo_inference_ray import dedup as dd

    boiler = "page not found error the requested url was not on server "
    n = 40
    docs = rd.from_pandas(pd.DataFrame(
        {"doc_id": np.arange(n, dtype=np.int64),
         "text": [boiler * 6] * n}))
    cap = 8
    pairs_ds = dd.minhash_candidates(docs, bucket_cap=cap)
    pairs = pairs_ds.to_pandas()
    # bounded volume: identical docs -> every band forms ONE bucket ->
    # the distinct pair set is the prefix C(cap,2) + the star tail
    assert len(pairs) == cap * (cap - 1) // 2 + (n - cap)
    covered = set(pairs["doc_a"]) | set(pairs["doc_b"])
    assert covered == set(range(n))
    # connectivity: clustering the capped pair set yields ONE cluster
    clusters = dd.dedup_clusters(docs, pairs_ds).to_pandas()
    assert clusters["cluster"].nunique() == 1
    assert len(clusters) == n
    # uncapped: the full C(n,2) (sanity that the cap did something)
    full = dd.minhash_candidates(docs).to_pandas()
    assert len(full) == n * (n - 1) // 2


def test_key_counts_bailout_equivalence(ray_session, monkeypatch):
    """key_counts' driver combine and its distributed bail-out path
    return the identical dict."""
    import ray.data as rd

    from geo_inference_ray import shuffle as sh

    rng = np.random.default_rng(5)
    tab = pa.table({"k": pa.array(rng.integers(0, 37, 4000,
                                               dtype=np.int64))})
    ds = rd.from_arrow(tab).repartition(8).materialize()
    folds = _count_folds(monkeypatch, sh)
    ref = sh.key_counts(ds, "k")
    assert folds == [1]  # driver fold
    assert sum(ref.values()) == 4000
    monkeypatch.setattr(sh, "PARTIAL_ROWS_DRIVER_LIMIT", 5)
    out = sh.key_counts(ds, "k")
    assert folds == [1]  # distributed groupby
    assert out == ref


def test_collect_limit_is_inclusive(ray_session):
    """collect returns the rows at exactly ``limit`` and None one row
    past it, for a Dataset and for driver tables alike."""
    import ray.data as rd

    from geo_inference_ray.shuffle import collect

    schema = pa.schema([("k", pa.int64())])
    tables = [pa.table({"k": pa.array(np.arange(i, i + 3))})
              for i in range(0, 12, 3)]
    for source in (tables, rd.from_arrow(tables)):
        got = collect(source, schema, limit=12)
        assert got["k"].to_pylist() == list(range(12))
        assert collect(source, schema, limit=11) is None


def test_collect_stops_pulling_past_limit():
    """Over the limit, collect returns without reading the rest."""
    from geo_inference_ray.shuffle import collect

    pulled = []

    def tables():
        for i in range(10):
            pulled.append(i)
            yield pa.table({"k": pa.array([i, i], pa.int64())})

    assert collect(tables(), pa.schema([("k", pa.int64())]), 3) is None
    assert pulled == [0, 1]


def test_collect_byte_bound(monkeypatch):
    """A bounded collect also stops past COLLECT_BYTES_LIMIT bytes of
    the cast rows, under its row limit; an unbounded one does not."""
    from geo_inference_ray import shuffle as sh

    schema = pa.schema([("s", pa.string())])
    tables = [pa.table({"s": pa.array(["x" * 100] * 4)})
              for _ in range(3)]
    monkeypatch.setattr(sh, "COLLECT_BYTES_LIMIT", 2 * tables[0].nbytes)
    assert sh.collect(tables[:2], schema, 100).num_rows == 8
    assert sh.collect(tables, schema, 100) is None
    assert sh.collect(tables, schema).num_rows == 12


def test_collect_empty_and_schemaless_blocks(ray_session):
    """Empty and schema-less blocks are skipped; no rows give the typed
    empty table."""
    import ray.data as rd

    from geo_inference_ray.shuffle import collect

    schema = pa.schema([("k", pa.int64()), ("n", pa.int64())])
    empty = [pa.table({}), schema.empty_table(),
             pa.table({"n": pa.array([], pa.int32())})]
    schemaless = rd.range(8, override_num_blocks=2).map_batches(
        lambda b: pa.table({}), batch_format="pyarrow")
    for source in (empty, schemaless, []):
        got = collect(source, schema)
        assert got.num_rows == 0 and got.schema.equals(schema)
    mixed = empty + [pa.table({"n": pa.array([7], pa.int32()),
                               "x": pa.array(["drop"]),
                               "k": pa.array([1], pa.int32())})]
    got = collect(mixed, schema)
    assert got.schema.equals(schema)
    assert got.to_pylist() == [{"k": 1, "n": 7}]


def test_collect_dataset_equals_tables(ray_session):
    """A Dataset and the same rows as a list of tables collect to equal
    tables (columns selected and cast to the schema, stream order)."""
    import ray.data as rd

    from geo_inference_ray.shuffle import collect

    rng = np.random.default_rng(3)
    tables = [pa.table({"x": pa.array(rng.random(n)),
                        "k": pa.array(rng.integers(0, 9, n), pa.int32())})
              for n in (5, 0, 17, 2)]
    schema = pa.schema([("k", pa.int64())])
    got = collect(rd.from_arrow(tables), schema)
    want = collect(tables, schema)
    assert got.equals(want) and want.num_rows == 24
    assert want["k"].to_pylist() == [
        v for t in tables for v in t["k"].to_pylist()]


def test_fold_partials_matches_counter():
    """fold_partials == a Counter over the partial rows, keys ascending,
    for a summed and a count column (a count partial folds by sum)."""
    from collections import Counter

    from geo_inference_ray.shuffle import fold_partials

    rng = np.random.default_rng(11)
    k = rng.integers(-50, 50, 3000)
    a = rng.integers(0, 1000, 3000)
    b = rng.integers(0, 7, 3000)
    t = pa.table({"key": pa.array(k), "a": pa.array(a),
                  "b": pa.array(b)})
    aggs = {"a": ("x", "sum"), "b": ("key", "count")}
    schema = pa.schema([("key", pa.int64()), ("a", pa.int64()),
                        ("b", pa.int64())])
    got = fold_partials(t, ["key"], aggs, schema)
    assert got.column_names == ["key", "a", "b"]
    keys = got["key"].to_pylist()
    assert keys == sorted(set(k.tolist()))
    for col, vals in (("a", a), ("b", b)):
        want = Counter()
        for kk, vv in zip(k.tolist(), vals.tolist()):
            want[kk] += vv
        assert dict(zip(keys, got[col].to_pylist())) == want
    empty = fold_partials(t.slice(0, 0), ["key"], aggs, schema)
    assert empty.num_rows == 0 and empty.schema.equals(schema)


AGG_SCHEMA = {"s": pa.int64(), "lo": pa.float64(), "hi": pa.float64(),
              "n": pa.int64()}


def _agg_case(case: str):
    """(blocks, keys, key schema) of one aggregate test input."""
    import datetime

    rng = np.random.default_rng(5)
    n = 2000
    v = rng.integers(0, 100, n)
    f = rng.random(n)
    k = rng.integers(0, 40, n)
    keys, kschema = ["k"], {"k": pa.int64()}
    cols = {"k": pa.array(k), "v": pa.array(v), "f": pa.array(f)}
    if case == "skewed":
        cols["k"] = pa.array(np.where(rng.random(n) < 0.8, 7, k))
    elif case == "one_key":
        cols["k"] = pa.array(np.full(n, 3))
    elif case == "empty":
        cols = {c: a.slice(0, 0) for c, a in cols.items()}
    elif case == "null_values":
        mask = rng.random(n) < 0.3
        cols["v"] = pa.array(v, mask=mask)
        cols["f"] = pa.array(f, mask=mask)
    elif case == "null_keys":
        cols["k"] = pa.array(k, mask=rng.random(n) < 0.1)
    elif case == "ts_key":
        base = datetime.datetime(2024, 1, 1)
        cols["k"] = pa.array([base + datetime.timedelta(microseconds=int(
            x) * 1_000_003) for x in k], pa.timestamp("us"))
        kschema = {"k": pa.timestamp("us")}
    elif case == "string_key":
        cols["k"] = pa.array([f"key{x}" for x in k])
        kschema = {"k": pa.string()}
    elif case == "two_keys":
        cols["j"] = pa.array(rng.integers(0, 3, n))
        keys, kschema = ["k", "j"], {"k": pa.int64(), "j": pa.int64()}
    t = pa.table(cols)
    step = 37 if case == "many_blocks" else 400
    blocks = [t.slice(i, step) for i in range(0, max(t.num_rows, 1), step)]
    return blocks, keys, kschema


AGG_CASES = ["skewed", "one_key", "empty", "many_blocks", "null_values",
             "null_keys", "ts_key", "string_key", "two_keys"]


@pytest.mark.parametrize("path", ["driver", "fallback"])
@pytest.mark.parametrize("case", AGG_CASES)
def test_aggregate_equals_arrow_group_by(ray_session, monkeypatch, case,
                                         path):
    """shuffle.aggregate == a key-sorted ``pa.Table.group_by`` over the
    concatenated input, on the driver fold and past its bound (Ray's
    groupby over the partials), with the declared key types kept."""
    import ray
    import ray.data as rd

    from geo_inference_ray import shuffle as sh

    blocks, keys, kschema = _agg_case(case)
    if path == "fallback":
        monkeypatch.setattr(sh, "PARTIAL_ROWS_DRIVER_LIMIT", 3)
    folds = _count_folds(monkeypatch, sh)
    schema = pa.schema({**kschema, **AGG_SCHEMA})
    out = sh.aggregate(rd.from_arrow(blocks), keys,
                       {"s": ("v", "sum"), "lo": ("f", "min"),
                        "hi": ("f", "max"), "n": ("v", "count")}, schema)
    # no partial rows never pass the bound
    assert folds == ([1] if path == "driver" or case == "empty" else [])
    got = [b for b in ray.get(out.to_arrow_refs()) if b.num_rows]
    assert all(b.schema.equals(schema) for b in got)
    got = pa.concat_tables(got) if got else schema.empty_table()
    t = pa.concat_tables(blocks)
    want = t.group_by(keys).aggregate(
        [("v", "sum"), ("f", "min"), ("f", "max"),
         ("v", "count", pc.CountOptions("all"))])
    want = want.rename_columns([{"v_sum": "s", "f_min": "lo",
                                 "f_max": "hi", "v_count": "n"}.get(c, c)
                                for c in want.column_names])
    want = want.sort_by([(k, "ascending") for k in keys]) \
        .select(schema.names).cast(schema)
    if path == "fallback":
        # Ray's sort places null keys by its own rule
        got = got.sort_by([(k, "ascending") for k in keys])
    assert got.equals(want), (got.to_pandas(), want.to_pandas())
    if path == "driver":
        assert out.num_blocks() == max(1, -(-got.num_rows
                                             // sh.HP_TARGET_ROWS))


@pytest.mark.parametrize("path", ["driver", "fallback"])
def test_aggregate_scalar_and_distinct(ray_session, monkeypatch, path):
    """No keys give one whole-Dataset row (nulls over no rows); no
    aggregates give the distinct keys."""
    import ray.data as rd

    from geo_inference_ray import shuffle as sh

    if path == "fallback":
        monkeypatch.setattr(sh, "PARTIAL_ROWS_DRIVER_LIMIT", 1)
    blocks, _, _ = _agg_case("many_blocks")
    ds = rd.from_arrow(blocks)
    t = pa.concat_tables(blocks)
    row = sh.aggregate(ds, [], {"s": ("v", "sum"), "hi": ("f", "max")},
                       {"s": pa.int64(), "hi": pa.float64()}).take_all()
    assert row == [{"s": pc.sum(t["v"]).as_py(),
                    "hi": pc.max(t["f"]).as_py()}]
    none = sh.aggregate(rd.from_arrow(t.slice(0, 0)), [],
                        {"s": ("v", "sum")}, {"s": pa.int64()}).take_all()
    assert none == [{"s": None}]
    keys = sh.aggregate(ds, "k", {}, {"k": pa.int64()}).to_pandas()
    assert sorted(keys["k"]) == sorted(set(t["k"].to_pylist()))


def test_sq_topk_quantizer_and_recall(ray_session, sf_dir):
    """Scalar quantization: codes within [0,255], constant dims -> 0,
    reconstruction orders like the original, and sq_topk's integer
    ranking overlaps heavily with exact cosine top-k on the unit-norm
    synthetic embeddings."""
    from geo_inference_ray.ann import (TOPK_DEFAULT, ann_topk,
                                       embedding_absmax, sq_quantize,
                                       sq_topk)
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    A = embedding_absmax(ds)
    # empty-corpus contract: None (sq_topk returns a typed empty
    # dataset instead of crashing)
    empty = rd.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float64()))}))
    assert embedding_absmax(empty) is None
    M = np.stack(ds.to_pandas()["embedding"].to_numpy()).astype(np.float64)
    q = sq_quantize(M, A)
    assert q.min() >= -127 and q.max() <= 127
    # all-zero corpus quantizes to 0
    assert (sq_quantize(np.zeros((3, 4)), 0.0) == 0).all()

    got = sq_topk(sf_dir).to_pandas()
    assert set(got.columns) == {"query_id", "neighbor_id", "rank",
                                "score"}
    # per-query: k rows, ranks 1..k, no self matches
    for qid, g in got.groupby("query_id"):
        assert g["rank"].tolist() == list(range(1, TOPK_DEFAULT + 1))
        assert (g["neighbor_id"] != qid).all()
    # quantized INNER-PRODUCT ranking approximates the exact
    # inner-product ranking (sq_topk's score space; cosine requires
    # unit-norm inputs)
    ids = ds.to_pandas()["vec_id"].to_numpy()
    ov = []
    for qid in got["query_id"].unique():
        qi = int(np.flatnonzero(ids == qid)[0])
        dots = M[qi] @ M.T
        order = np.lexsort((ids, -dots))
        top = [int(ids[j]) for j in order if ids[j] != qid][:TOPK_DEFAULT]
        b = set(got[got["query_id"] == qid]["neighbor_id"])
        ov.append(len(set(top) & b) / TOPK_DEFAULT)
    assert np.mean(ov) > 0.6


def test_pq_codes_subspace_equals_sliced_kmeans(ray_session, sf_dir,
                                                tmp_path):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from geo_inference_ray.ann import PQ_SUBS, kmeans_assign, pq_codes

    out = pq_codes(sf_dir).to_pandas()
    n_vecs = pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows
    assert len(out) == PQ_SUBS * n_vecs
    assert set(out["sub"]) == set(range(PQ_SUBS))

    # independence: sub-0 codes/dists must equal full kmeans_assign
    # run on a table holding ONLY the first d/PQ_SUBS dims
    emb = pd.read_parquet(f"{sf_dir}/embeddings.parquet")
    w = len(emb["embedding"].iloc[0]) // PQ_SUBS
    sliced = pa.table({
        "vec_id": pa.array(emb["vec_id"].to_numpy(), pa.int64()),
        "embedding": pa.array(
            [list(np.asarray(v[:w], dtype=np.float32))
             for v in emb["embedding"]],
            pa.list_(pa.float32()))})
    d = tmp_path / "sliced"
    d.mkdir()
    pq.write_table(sliced, d / "embeddings.parquet")
    ref = kmeans_assign(str(d)).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    got = out[out["sub"] == 0].sort_values("vec_id") \
        .reset_index(drop=True)
    assert (got["code"].to_numpy() == ref["cluster"].to_numpy()).all()
    assert (got["dist"].to_numpy() == ref["dist"].to_numpy()).all()


def test_ppjoin_exact_recall_vs_bruteforce(ray_session):
    """Prefix-filtered self-join returns EXACTLY the brute-force
    Jaccard >= tau pair set (recall 1.0, precision 1.0) — the property
    the AllPairs/PPJoin prefix bound guarantees."""
    import ray.data as rd

    from geo_inference_ray.dedup import (_token_hashes, jaccard_pairs,
                                         ppjoin_pairs)

    rng = np.random.RandomState(7)
    vocab = [f"tok{v}" for v in range(60)]
    rows = []
    for i in range(30):
        words = list(rng.choice(vocab, size=25))
        rows.append({"doc_id": i, "text": " ".join(words)})
        if i % 3 == 0:  # planted near-dup: small edit
            w2 = list(words)
            w2[5] = "edited"
            rows.append({"doc_id": 1000 + i, "text": " ".join(w2)})
    docs = rd.from_pandas(pd.DataFrame(rows))
    out = ppjoin_pairs(docs, tau_milli=500).to_pandas()

    # brute force over all pairs
    sets = {r["doc_id"]: set(_token_hashes(r["text"]).tolist())
            for r in rows}
    ids = sorted(sets)
    want = set()
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            inter = len(sets[a] & sets[b])
            union = len(sets[a] | sets[b])
            if union and 1000 * inter >= 500 * union:
                want.add((a, b))
    got = set(zip(out["doc_a"].tolist(), out["doc_b"].tolist()))
    assert got == want and len(want) >= 10
    # milli-Jaccard values are the exact floor integers
    for _, r in out.iterrows():
        inter = len(sets[r["doc_a"]] & sets[r["doc_b"]])
        union = len(sets[r["doc_a"]] | sets[r["doc_b"]])
        assert r["jaccard_milli"] == 1000 * inter // union


def test_ppjoin_empty_and_boundary(ray_session):
    import ray.data as rd

    from geo_inference_ray.dedup import ppjoin_pairs

    empty = rd.from_pandas(pd.DataFrame(
        {"doc_id": pd.Series([], dtype=np.int64),
         "text": pd.Series([], dtype=object)}))
    assert ppjoin_pairs(empty).count() == 0

    # exactly-at-threshold pair must be included (J == tau)
    a = "a b c d e f"      # 4 shingles
    b = "a b c d x y"      # shares 2 of its 4 -> J = 2/6 = 0.333
    docs = rd.from_pandas(pd.DataFrame(
        [{"doc_id": 1, "text": a}, {"doc_id": 2, "text": b},
         {"doc_id": 3, "text": a}]))
    out = ppjoin_pairs(docs, tau_milli=333).to_pandas()
    got = set(zip(out["doc_a"].tolist(), out["doc_b"].tolist()))
    assert (1, 3) in got          # identical pair, J = 1000
    assert (1, 2) in got          # floor(1000*2/6) = 333 >= 333
    out2 = ppjoin_pairs(docs, tau_milli=334).to_pandas()
    got2 = set(zip(out2["doc_a"].tolist(), out2["doc_b"].tolist()))
    assert (1, 2) not in got2 and (1, 3) in got2


def test_dedup_best_picks_longest_then_min_id(ray_session):
    """Quality representative: most chars wins; equal chars -> min id;
    singletons keep themselves; member counts are exact."""
    import ray.data as rd

    from geo_inference_ray.dedup import dedup_best, minhash_candidates

    base = ("data processing engines shuffle sort join aggregate "
            "stream batch " * 4)
    rows = [
        {"doc_id": 10, "text": base},
        {"doc_id": 11, "text": base + "extra tail words here"},  # longest
        {"doc_id": 12, "text": base},
        {"doc_id": 50, "text": "a lonely unique document " + " ".join(
            f"z{j}" for j in range(30))},
    ]
    docs = rd.from_pandas(pd.DataFrame(rows))
    pairs = minhash_candidates(docs)
    out = dedup_best(docs, pairs, rows_hint=len(rows)).to_pandas() \
        .set_index("cluster")
    big = out.loc[10]
    assert big["kept_doc"] == 11 and big["n_members"] == 3
    assert big["kept_n_chars"] == len(rows[1]["text"])
    assert out.loc[50]["kept_doc"] == 50 and out.loc[50]["n_members"] == 1
    # tie case: same length -> min doc_id
    rows2 = [{"doc_id": 7, "text": base}, {"doc_id": 3, "text": base}]
    docs2 = rd.from_pandas(pd.DataFrame(rows2))
    out2 = dedup_best(docs2, minhash_candidates(docs2),
                      rows_hint=2).to_pandas()
    assert out2["kept_doc"].tolist() == [3]


def test_minhash_estimate_tracks_exact(ray_session):
    """Sketch calibration: exact duplicates estimate 1000/1000; near
    dups estimate within a loose band of the exact Jaccard (the
    statistical guarantee at NUM_PERM permutations)."""
    import ray.data as rd

    from geo_inference_ray.dedup import minhash_candidates, minhash_estimate

    base = ("data processing engines shuffle sort join aggregate "
            "stream batch " * 4)
    near = base.replace("sort", "order", 2)
    rows = [{"doc_id": 1, "text": base},
            {"doc_id": 2, "text": base},
            {"doc_id": 3, "text": near}]
    docs = rd.from_pandas(pd.DataFrame(rows))
    out = minhash_estimate(minhash_candidates(docs), docs).to_pandas()
    ex = out[(out["doc_a"] == 1) & (out["doc_b"] == 2)]
    assert len(ex) == 1
    assert ex["est_milli"].iloc[0] == 1000
    assert ex["jaccard_milli"].iloc[0] == 1000
    nd = out[(out["doc_a"].isin([1, 2])) & (out["doc_b"] == 3)]
    assert len(nd) >= 1
    for _, r in nd.iterrows():
        assert r["jaccard_milli"] < 1000
        assert abs(r["est_milli"] - r["jaccard_milli"]) <= 300


def test_novelty_docs_drops_cross_source_dups(ray_session):
    """Newest-source docs keep only genuinely novel pages: a near-dup
    of an older-source page is dropped, a same-source dup is kept, a
    unique page is kept."""
    import ray.data as rd

    from geo_inference_ray.dedup import minhash_candidates, novelty_docs

    base = ("data processing engines shuffle sort join aggregate "
            "stream batch " * 4)
    uniq = " ".join(f"n{j}m{j * 5}" for j in range(40))
    rows = [
        {"doc_id": 1, "text": base, "lang": "en", "source": "a_old"},
        # near-dup of an old page -> dropped from the new slice
        {"doc_id": 2, "text": base, "lang": "en", "source": "b_new"},
        # novel page -> kept
        {"doc_id": 3, "text": uniq, "lang": "de", "source": "b_new"},
        # intra-new-source dup pair -> BOTH kept (only cross-source
        # near-dups are ingestion blockers)
        {"doc_id": 4, "text": uniq, "lang": "de", "source": "b_new"},
    ]
    docs = rd.from_pandas(pd.DataFrame(rows))
    out = novelty_docs(docs, minhash_candidates(docs),
                       rows_hint=len(rows)).to_pandas()
    assert sorted(out["doc_id"].tolist()) == [3, 4]
