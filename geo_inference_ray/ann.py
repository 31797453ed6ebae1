"""Similarity search over the embeddings table.

* brute-force cosine top-k: numpy matmul per batch against a broadcast
  query matrix (``ray.put`` once, ``ray.get`` per batch) — the
  baseline required by the build brief.  Per-batch partial top-k is
  reduced by a final small sort, so nothing materializes the full
  score matrix.
* LSH-bucketed variant (random-hyperplane signatures -> groupby bucket)
  as the documented scale path.

Oracle: DuckDB ``list_cosine_similarity`` reproduces cosine ranks; exact
float ties are broken by vec_id on both sides.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .shuffle import aggregate
from .sources import read_table

TOPK_DEFAULT = 10
N_QUERIES_DEFAULT = 8
N_HYPERPLANES = 12


def _head_by_id(path: str, n: int, columns: list[str],
                id_col: str = "vec_id") -> "pa.Table":
    """The n rows with the smallest ``id_col`` values, reading row
    groups — not the whole file — in ascending stats-min order and
    stopping once the n-th smallest id seen is <= every unread group's
    minimum.  Replaces driver-side ``pq.read_table`` of the full
    embeddings table (an input-sized driver materialization at 100 TB)
    with a footer-metadata walk + typically ONE row-group read.  Files
    without column statistics fall back to reading every group."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(path)
    md = pf.metadata
    if md.num_rows <= n or md.num_row_groups <= 1:
        return pf.read(columns=columns)
    # leaf index of the id column (parquet metadata flattens nested
    # columns, so locate it by path, not by arrow field index)
    rg0 = md.row_group(0)
    leaf = next((i for i in range(rg0.num_columns)
                 if rg0.column(i).path_in_schema == id_col), None)

    def group_min(rg: int):
        if leaf is None:
            return None
        st = md.row_group(rg).column(leaf).statistics
        return st.min if st is not None and st.has_min_max else None

    # stats-less groups FIRST: their min is UNKNOWN (could be the
    # smallest id), so they must be read unconditionally before the
    # ascending-min early stop below can be trusted; sorting them last
    # would let `nth <= next group's min` break before reading them
    order = sorted(range(md.num_row_groups),
                   key=lambda rg: (group_min(rg) is not None,
                                   group_min(rg) or 0))
    parts = []
    have = 0
    for pos, rg in enumerate(order):
        parts.append(pf.read_row_group(rg, columns=columns))
        have += parts[-1].num_rows
        if have < n:
            continue
        ids = np.sort(np.concatenate(
            [p[id_col].to_numpy() for p in parts]))
        nth = ids[n - 1]
        nxt = (group_min(order[pos + 1])
               if pos + 1 < len(order) else None)
        if nxt is None and pos + 1 < len(order):
            continue  # stats missing downstream: keep reading
        if nxt is None or nth <= nxt:
            break
    t = pa.concat_tables(parts)
    take = np.argsort(t[id_col].to_numpy(), kind="stable")[:n]
    return t.take(pa.array(take))


def load_queries(sf_dir: str, n_queries: int = N_QUERIES_DEFAULT):
    """First n embeddings (by vec_id) are the deterministic query set
    (row-group-pruned read; never the whole table)."""
    df = _head_by_id(f"{sf_dir}/embeddings.parquet", n_queries,
                     ["vec_id", "embedding"]).to_pandas() \
        .sort_values("vec_id").head(n_queries)
    q = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    return df["vec_id"].to_numpy(), q


class BruteForceTopK:
    """Task stage: per batch, cosine of all rows vs the broadcast query
    matrix (``ray.get`` of ``queries_ref`` per batch, or the in-process
    ``queries``); emit per-(query, batch) partial top-k candidate
    rows."""

    def __init__(self, queries_ref=None, queries=None, k: int = TOPK_DEFAULT):
        self.queries_ref = queries_ref
        self.queries = queries
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray

        qids, Q = (ray.get(self.queries_ref) if self.queries_ref is not None
                   else self.queries)
        Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
        ids = batch["vec_id"].to_numpy()
        M = np.stack(batch["embedding"].to_numpy(zero_copy_only=False)) \
            .astype(np.float64)
        Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
        sims = Qn @ Mn.T  # (nq, nb)
        nq, nb = sims.shape
        # k+1 so a self-match (sim=1.0, filtered downstream) can't evict a
        # true neighbor from the partial top-k
        kk = min(self.k + 1, nb)
        # partial top-k per query within this batch.  argpartition on sim
        # alone can evict the lower-id neighbor when exact ties straddle
        # the kk boundary, breaking the (sim desc, id asc) tie contract;
        # widen the cut to every candidate tied with the boundary value,
        # then lexsort by (-sim, id) before truncating.  nq is small by
        # design, so the per-query loop is off the hot axis.
        part = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
        boundary = np.take_along_axis(sims, part, axis=1).min(axis=1)
        qs, ns, ss = [], [], []
        for qi in range(nq):
            sel = np.flatnonzero(sims[qi] >= boundary[qi])
            order = np.lexsort((ids[sel], -sims[qi][sel]))[:kk]
            pick = sel[order]
            qs.append(np.full(len(pick), qids[qi], dtype=np.int64))
            ns.append(ids[pick])
            ss.append(sims[qi][pick])
        return pa.table({
            "query_id": pa.array(np.concatenate(qs)),
            "neighbor_id": pa.array(np.concatenate(ns).astype(np.int64)),
            "sim": pa.array(np.concatenate(ss)),
        })


def ann_topk(sf_dir: str, k: int = TOPK_DEFAULT,
             n_queries: int = N_QUERIES_DEFAULT):
    """embeddings -> (query_id, neighbor_id, rank) exact top-k by cosine.

    Self-matches (query_id == neighbor_id) are excluded.  The final
    reduce handles only n_queries * k * n_batches candidate rows.
    """
    import ray

    ds = read_table(f"{sf_dir}/embeddings.parquet", ["vec_id", "embedding"])
    qref = ray.put(load_queries(sf_dir, n_queries))
    cand = ds.map_batches(BruteForceTopK(queries_ref=qref, k=k),
                          batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=4096)

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["neighbor_id"] != g["query_id"]]
        g = g.sort_values(["sim", "neighbor_id"],
                          ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["query_id", "neighbor_id", "rank"]]

    return cand.groupby("query_id").map_groups(final_topk,
                                               batch_format="pandas")


LSH_BANDS = 8
LSH_MIN_PLANES = 3
LSH_TARGET_BUCKET = 32   # aim for ~this many vectors per (band, bucket)
LSH_BUCKET_CAP = 512     # salt buckets above this before all-pairs


def lsh_planes_for(n: int) -> int:
    """Planes per band as a function of corpus size: bucket space grows
    with n so the expected bucket stays ~LSH_TARGET_BUCKET (a fixed
    plane count means buckets of n/2^planes rows -> O(n^2) all-pairs at
    scale).  n=2e3 -> 6 planes, 1.3e5 -> 12, 1e12 -> 35 (fits int64)."""
    return max(LSH_MIN_PLANES,
               int(np.ceil(np.log2(max(2.0, n / LSH_TARGET_BUCKET)))))


class HyperplaneLSH:
    """Banded random-hyperplane signatures (the ANN scale path):
    LSH_BANDS bands of ``planes`` sign bits each; a pair is a candidate
    if ANY band matches (the MinHash-band pattern applied to cosine
    space).  Bucket space scales with the corpus (lsh_planes_for), which
    tunes the generator to the high-similarity near-dup regime: recall
    at sim>=0.9 stays >~0.9 for any-of-8 bands, while the expected
    bucket stays ~LSH_TARGET_BUCKET so the in-bucket all-pairs never
    approaches O(n^2).  Emits gkey = band * 2^planes + bucket as one
    int64 group key.

    The plane entries are DERANDOMIZED Rademacher +-1 signs (Achlioptas
    sparse-projection family) drawn from the engine's shared LCG mix —
    sign(p, d) = +1 iff ((p*SH_C1 + d*SH_C2) mod M) is even — so the
    whole bucketing step has an exact DuckDB mirror (a sign flip would
    need a projection within float ULPs of zero; measure-zero for
    continuous embeddings)."""

    def __init__(self, dim: int, planes: int = LSH_MIN_PLANES):
        from .dedup import MERSENNE, SH_C1, SH_C2

        self.planes = planes
        p = np.arange(LSH_BANDS * planes, dtype=np.int64)[:, None]
        d = np.arange(dim, dtype=np.int64)[None, :]
        mix = (p * SH_C1 + d * SH_C2) % MERSENNE
        self.H = np.where(mix % 2 == 0, 1.0, -1.0)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy()
        M = np.stack(batch["embedding"].to_numpy(zero_copy_only=False))
        bits = (M @ self.H.T) > 0  # (n, bands*planes)
        n = len(ids)
        p = self.planes
        out_id = np.tile(ids, LSH_BANDS)
        emb_idx = np.tile(np.arange(n), LSH_BANDS)
        gkeys = np.empty((LSH_BANDS, n), dtype=np.int64)
        weights = (1 << np.arange(p)).astype(np.int64)
        for b in range(LSH_BANDS):
            seg = bits[:, b * p:(b + 1) * p]
            gkeys[b] = (seg * weights).sum(axis=1) + (b << p)
        emb = batch["embedding"]
        return pa.table({
            "gkey": pa.array(gkeys.reshape(-1)),
            "vec_id": pa.array(out_id),
            "embedding": emb.take(pa.array(emb_idx)),
        })


def _embedding_dim(path: str) -> int:
    """Embedding dimension from the first row group only (a full-column
    read would be an input-sized driver materialization)."""
    import pyarrow.parquet as pq

    first = pq.ParquetFile(path).read_row_group(0, columns=["embedding"])
    return len(first["embedding"][0])


def embedding_near_dup(sf_dir: str, sim_milli_threshold: int = 400,
                       bucket_cap: int = LSH_BUCKET_CAP):
    """Embedding-cosine near-dup pairs via banded hyperplane LSH:
    candidates from any matching (band, bucket), verified cosine >=
    threshold, deduplicated.  Returns (vec_a, vec_b, sim_milli).

    Scale path: planes-per-band grows with corpus size (bounded expected
    bucket), and a counting pre-pass salts any bucket above
    ``bucket_cap`` (shuffle.salt_plan — pairs split across salts of a
    degenerate bucket are an accepted recall trade-off there, bounded by
    MAX_SALTS).  The pair stage and the pair dedup are hash-partitioned
    vectorized kernels (one call per partition, never per bucket or per
    pair)."""
    import pyarrow.parquet as pq

    from .shuffle import add_salt, key_counts, salt_plan

    meta = pq.read_metadata(f"{sf_dir}/embeddings.parquet")
    n_rows = meta.num_rows
    dim = _embedding_dim(f"{sf_dir}/embeddings.parquet")
    planes = lsh_planes_for(n_rows)

    ds = read_table(f"{sf_dir}/embeddings.parquet", ["vec_id", "embedding"])
    ds = ds.map_batches(HyperplaneLSH(dim, planes), batch_format="pyarrow",
                        zero_copy_batch=True)
    # NOT materialized: the count pre-pass re-executes the (cheap)
    # signature stage instead of pinning the bands-exploded table (ids +
    # embeddings x LSH_BANDS) in the object store; the pre-pass only
    # ships (gkey, partial count) rows
    counts = key_counts(ds, "gkey")
    plan = salt_plan(counts, cap=bucket_cap)
    # combinatorial pair bound from the (salt-split) bucket sizes —
    # sizes the hash-partitioned pair kernels to the data
    pair_bound = 0
    for gk, n in counts.items():
        s = plan.get(gk, 1)
        per = -(-n // s)
        pair_bound += s * (per * (per - 1) // 2)
    salted = add_salt(ds, "gkey", plan, "vec_id")

    from .shuffle import MAX_SALTS, partitioned, runs

    def add_gsk(batch: pa.Table) -> pa.Table:
        # one packed int64 group key: (gkey, salt) -> gkey*MAX_SALTS+salt
        # (gkey < 2^38 for planes <= 35, so the product is int64-safe)
        gk = batch["gkey"].to_numpy()
        st = batch["salt"].to_numpy()
        return batch.append_column(
            "gsk", pa.array(gk * MAX_SALTS + st))

    keyed = salted.map_batches(add_gsk, batch_format="pyarrow",
                               zero_copy_batch=True)

    def bucket_pairs_part(g: pa.Table) -> pa.Table:
        """ONE kernel for every (bucket, salt) group in the partition
        (a map_groups per bucket is one kernel call per bucket — the
        bucket count grows with the corpus via lsh_planes_for, so that
        trap scales with n)."""
        g = g.sort_by([("gsk", "ascending"), ("vec_id", "ascending")])
        gs = g["gsk"].to_numpy()
        ids = g["vec_id"].to_numpy()
        emb = g["embedding"].to_numpy()
        starts, sizes = runs(gs)
        oa, ob, om = [], [], []
        for st, sz in zip(starts.tolist(), sizes.tolist()):
            if sz < 2:
                continue
            d = ids[st:st + sz]  # sorted within the run
            M = np.stack(emb[st:st + sz]).astype(np.float64)
            Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
            S = Mn @ Mn.T
            ia, ib = np.triu_indices(sz, k=1)
            sm = (S[ia, ib] * 1000).astype(np.int64)
            keep = sm >= sim_milli_threshold
            oa.append(d[ia[keep]])
            ob.append(d[ib[keep]])
            om.append(sm[keep])
        if not oa:
            return g.slice(0, 0)
        return pa.table({"vec_a": np.concatenate(oa),
                         "vec_b": np.concatenate(ob),
                         "sim_milli": np.concatenate(om)})

    schema = {"vec_a": pa.int64(), "vec_b": pa.int64(),
              "sim_milli": pa.int64()}
    pairs = partitioned(keyed, "gsk", bucket_pairs_part, schema,
                        rows_hint=n_rows * LSH_BANDS)

    # a pair can fire in several bands; per-bucket BLAS rounding can
    # differ at the milli boundary, so take the MIN sim_milli per pair
    # (deterministic, matching the previous Min aggregate) with one
    # vectorized group_by per partition — never per pair
    def distinct_part(g: pa.Table) -> pa.Table:
        return g.group_by(["vec_a", "vec_b"]).aggregate(
            [("sim_milli", "min")]).rename_columns(
                ["vec_a", "vec_b", "sim_milli"])

    return partitioned(pairs, "vec_a", distinct_part, schema,
                       rows_hint=max(1, pair_bound))


# ---------------------------------------------------------------------------
# IVF-style ANN (coarse quantizer + probed-cell search) — the scale path
# next to the exact brute-force baseline
# ---------------------------------------------------------------------------

IVF_NLIST_DEFAULT = 16
IVF_NPROBE_DEFAULT = 4


def _ivf_centroids(sf_dir: str, nlist: int):
    """Deterministic coarse quantizer: the first ``nlist`` embeddings by
    vec_id, L2-normalized (no iterative training — reproducible across
    runs and cluster sizes; at scale swap in a trained codebook via the
    same broadcast slot).  Row-group-pruned read, never the full
    table."""
    t = _head_by_id(f"{sf_dir}/embeddings.parquet", nlist,
                    ["vec_id", "embedding"]).to_pandas() \
        .sort_values("vec_id").head(nlist)
    C = np.stack(t["embedding"].to_numpy()).astype(np.float64)
    return C / np.linalg.norm(C, axis=1, keepdims=True)


class IVFSearch:
    """Task stage: per batch, assign rows to their nearest centroid
    (cosine), keep only rows in cells probed by at least one query, and
    emit per-(query, batch) partial top-k candidates for the queries
    probing that cell.  The broadcast state is a ``ray.get`` of
    ``state_ref`` per batch, or the in-process ``state``."""

    def __init__(self, state_ref=None, state=None, k: int = TOPK_DEFAULT):
        self.state_ref = state_ref
        self.state = state
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray

        qids, Qn, Cn, probe = (ray.get(self.state_ref)
                               if self.state_ref is not None else self.state)
        ids = batch["vec_id"].to_numpy()
        M = np.stack(batch["embedding"].to_numpy(zero_copy_only=False)) \
            .astype(np.float64)
        Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
        cid = np.argmax(Cn @ Mn.T, axis=0)  # (nb,)
        qs, ns, ss = [], [], []
        kk = self.k + 1
        for qi in range(len(qids)):
            sel = np.flatnonzero(np.isin(cid, probe[qi]))
            if not len(sel):
                continue
            sims = Qn[qi] @ Mn[sel].T
            cut = min(kk, len(sel))
            part = np.argpartition(-sims, cut - 1)[:cut]
            boundary = sims[part].min()
            wide = np.flatnonzero(sims >= boundary)
            order = np.lexsort((ids[sel][wide], -sims[wide]))[:cut]
            pick = sel[wide[order]]
            qs.append(np.full(len(pick), qids[qi], dtype=np.int64))
            ns.append(ids[pick])
            ss.append(Qn[qi] @ Mn[pick].T)
        if not qs:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(qs)),
            "neighbor_id": pa.array(np.concatenate(ns).astype(np.int64)),
            "sim": pa.array(np.concatenate(ss)),
        })


def ivf_topk(sf_dir: str, k: int = TOPK_DEFAULT,
             n_queries: int = N_QUERIES_DEFAULT,
             nlist: int = IVF_NLIST_DEFAULT,
             nprobe: int = IVF_NPROBE_DEFAULT):
    """Approximate top-k by cosine: IVF coarse quantizer (nlist cells),
    each query searches only its nprobe nearest cells.  Work per batch
    drops from O(nq x nb) to O(nq x nb x nprobe/nlist) — at scale the
    assignment becomes a partitioned index and probed cells map to
    partition pruning at the read.  Exact within probed cells; recall
    vs the exact baseline is pinned by test."""
    import pandas as pd
    import ray

    qids, Q = load_queries(sf_dir, n_queries)
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    Cn = _ivf_centroids(sf_dir, nlist)
    sims_qc = Qn @ Cn.T  # (nq, nlist)
    probe = {qi: np.argsort(-sims_qc[qi], kind="stable")[:nprobe]
             for qi in range(len(qids))}
    state_ref = ray.put((qids, Qn, Cn, probe))

    ds = read_table(f"{sf_dir}/embeddings.parquet", ["vec_id", "embedding"])
    cand = ds.map_batches(IVFSearch(state_ref=state_ref, k=k),
                          batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=4096)

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["neighbor_id"] != g["query_id"]]
        g = g.sort_values(["sim", "neighbor_id"],
                          ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["query_id", "neighbor_id", "rank"]]

    return cand.groupby("query_id").map_groups(final_topk,
                                               batch_format="pandas")


KMEANS_K = 8
KMEANS_ITERS = 2
KMEANS_SCALE = 1 << 20   # fixed-point quantization: qx = floor(x * 2^20)


def _quantize(emb_col) -> np.ndarray:
    """float32 list column -> (n, d) int64 fixed-point matrix.
    floor(double(x) * 2^20): float32 widens exactly, the product and
    floor are the same IEEE ops as the SQL mirror — bit-exact."""
    M = np.stack(emb_col.to_numpy(zero_copy_only=False)).astype(np.float64)
    return np.floor(M * KMEANS_SCALE).astype(np.int64)


def kmeans_assign(sf_dir: str, k: int = KMEANS_K,
                  iters: int = KMEANS_ITERS):
    """Lloyd's k-means over the embedding column, integer-exact — the
    corpus-clustering step of a training-data pipeline (semantic
    balancing / cluster-based curation).  Returns the final
    (vec_id, cluster, dist) assignment.

    Determinism contract (shared with the SQL oracle):
    * vectors quantized to int64 fixed-point (floor(x * 2^20)) — every
      distance is an EXACT integer, order-independent;
    * initial centroids = the quantized embeddings of the k smallest
      vec_ids (footer-pruned ``_head_by_id`` read, never the table);
    * assignment = argmin squared L2, ties to the lowest cluster id;
    * update = elementwise floor(double(sum)/count) (exact while
      |sum| < 2^53 — documented bound; same IEEE division both sides);
      empty clusters keep their previous centroid.

    Scale shape per iteration: centroids broadcast via ``ray.put``;
    ONE map_batches pass emits per-batch partial (cluster, count,
    dim-sum) rows — k x (d+2) ints per batch — folded on the driver
    (k-bounded state, like the reference's grid-bounded merges); no
    shuffle of the vectors, ``iters`` passes over the data total."""
    import ray

    ds, cents = _lloyd_cents(sf_dir, k, iters)
    cref = ray.put(cents)

    def final(batch: pa.Table) -> pa.Table:
        C = ray.get(cref)
        Q = _quantize(batch["embedding"])
        lab, d = _assign_int(Q, C)
        return pa.table({"vec_id": batch["vec_id"],
                         "cluster": pa.array(lab.astype(np.int64)),
                         "dist": pa.array(d)})

    return ds.map_batches(final, batch_format="pyarrow",
                          zero_copy_batch=True)


def _lloyd_cents(sf_dir: str, k: int, iters: int):
    """The Lloyd centroid loop of ``kmeans_assign`` (see its
    determinism contract), extracted so silhouette scoring shares the
    exact centroids.  Returns (embedding Dataset, final int64
    centroids)."""
    import ray

    head = _head_by_id(f"{sf_dir}/embeddings.parquet", k,
                       ["vec_id", "embedding"])
    order = np.argsort(head["vec_id"].to_numpy())[:k]
    cents = _quantize(head["embedding"].combine_chunks())[order]

    ds = read_table(f"{sf_dir}/embeddings.parquet", ["vec_id", "embedding"])

    for _ in range(iters - 1):
        cref = ray.put(cents)

        def partial(batch: pa.Table, cref=cref) -> pa.Table:
            C = ray.get(cref)
            Q = _quantize(batch["embedding"])
            lab, _ = _assign_int(Q, C)
            rows = []
            for ci in np.unique(lab):
                sel = Q[lab == ci]
                rows.append((int(ci), len(sel),
                             sel.sum(axis=0, dtype=np.int64)))
            return pa.table({
                "cid": pa.array([r[0] for r in rows], pa.int64()),
                "cnt": pa.array([r[1] for r in rows], pa.int64()),
                "s": pa.array([r[2] for r in rows],
                              pa.list_(pa.int64()))})

        cnt = np.zeros(k, dtype=np.int64)
        acc = np.zeros_like(cents)
        for b in ds.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True, batch_size=None) \
                .iter_batches(batch_size=65536, batch_format="pyarrow"):
            ci = b["cid"].to_numpy()
            cnt_b = b["cnt"].to_numpy()
            S = np.stack(b["s"].to_numpy(zero_copy_only=False))
            np.add.at(cnt, ci, cnt_b)
            np.add.at(acc, ci, S)
        nz = cnt > 0
        # same IEEE double division + floor as the SQL mirror
        cents = cents.copy()
        cents[nz] = np.floor(acc[nz].astype(np.float64)
                             / cnt[nz, None].astype(np.float64)) \
            .astype(np.int64)

    return ds, cents


SEM_SCALE = 128          # int8-range cosine quantization: floor(x*128)
# Drop threshold (quantized cosine >= t/1000).  Real web corpora use
# ~0.95 (the SemDeDup paper's operating point); the synthetic test
# embeddings are near-orthogonal (max pairwise cosine ~0.51), so the
# oracle default sits where BOTH outcomes occur — pass t_milli to tune.
SEM_T_MILLI = 380


def semdedup_keep(sf_dir: str, k: int = KMEANS_K,
                  iters: int = KMEANS_ITERS,
                  t_milli: int = SEM_T_MILLI):
    """SemDeDup (Abbas et al. '23, public): k-means-cluster the
    embedding column (integer-exact Lloyd, centroids shared with
    :func:`kmeans_assign`), then within each cluster drop every vector
    whose quantized cosine similarity to a LOWER-vec_id cluster member
    reaches ``t_milli``/1000 — the cluster-scoped semantic near-dup
    prune of a training-data pipeline.

    Determinism contract (shared with the SQL mirror): similarity is
    tested on ``qs = floor(double(x) * 128)`` components as the pure
    integer predicate ``dot > 0 AND 1e6 * dot^2 >= t^2 * |a|^2 *
    |b|^2`` — no float division, no sqrt; with unit-normalized inputs
    every term stays below 2^62 (asserted).  Keep rule: a vector
    survives iff NO smaller-id same-cluster vector is that similar
    (drop-against-all-earlier, not greedy-against-kept — SQL
    EXISTS-expressible and order-independent).

    Scale shape: centroid loop is ``iters`` broadcast passes (see
    kmeans_assign); the prune shuffles each vector ONCE on its cluster
    id and runs one vectorized int-matmul kernel per cluster.
    Within-cluster work is O(|c|^2) — the published algorithm's shape;
    at corpus scale ``k`` must grow with n so clusters stay bounded
    (SemDeDup uses n/1000-ish), which this parameterizes but the
    oracle pins at KMEANS_K.

    Returns (vec_id, cluster, keep)."""
    import pandas as pd
    import ray

    ds, cents = _lloyd_cents(sf_dir, k, iters)
    cref = ray.put(cents)

    def assign_q(batch: pa.Table) -> pa.Table:
        C = ray.get(cref)
        Q = _quantize(batch["embedding"])
        lab, _ = _assign_int(Q, C)
        M = np.stack(batch["embedding"].to_numpy(
            zero_copy_only=False)).astype(np.float64)
        qs = np.floor(M * SEM_SCALE).astype(np.int64)
        return pa.table({"vec_id": batch["vec_id"],
                         "cluster": pa.array(lab.astype(np.int64)),
                         "qs": pa.array(list(qs))})

    keyed = ds.map_batches(assign_q, batch_format="pyarrow",
                           zero_copy_batch=True)

    t2 = int(t_milli) * int(t_milli)

    def prune(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("vec_id").reset_index(drop=True)
        Q = np.stack(g["qs"].to_numpy())
        n2 = (Q * Q).sum(axis=1)
        S = Q @ Q.T
        # int64 headroom: |S| <= max(n2) by Cauchy-Schwarz, so
        # n2 < 2^21 bounds BOTH 1e6*S^2 (< 1e6*2^42 < 2^62) and
        # t^2 * n2*n2 (< 2^20 * 2^42 = 2^62)
        assert int(n2.max(initial=0)) < 1 << 21
        cond = (S > 0) & (1_000_000 * S * S >= t2 * np.outer(n2, n2))
        drop = np.triu(cond, k=1).any(axis=0)  # [a, b] with a < b
        return pd.DataFrame({
            "vec_id": g["vec_id"].to_numpy(),
            "cluster": g["cluster"].to_numpy(),
            "keep": (~drop).astype(np.int64)})

    return keyed.groupby("cluster").map_groups(prune,
                                               batch_format="pandas")


def silhouette(sf_dir: str, k: int = KMEANS_K,
               iters: int = KMEANS_ITERS):
    """Per-cluster simplified (centroid) silhouette of the kmeans
    clustering, integer-exact: for each vector, ``a2`` = squared
    distance to its own (nearest) centroid and ``b2`` = squared
    distance to the second-nearest; the squared-distance silhouette
    ``s_milli = floor(1000·(b2 − a2) / b2)`` (0 when b2 = 0) is summed
    per cluster — the standard "how separated are the clusters"
    diagnostic, computed without any pairwise point-point pass.
    Output: (cluster, n, s_milli_sum); the mean is s_milli_sum / n
    downstream.

    Scale shape: identical to kmeans_assign's final pass — centroids
    broadcast once, ONE map over the vectors emitting k-bounded
    partial rows, one k-bounded groupby.  b2 comes from
    ``np.partition`` (second-smallest of the k distances), not a
    second scan."""
    import ray

    ds, cents = _lloyd_cents(sf_dir, k, iters)
    cref = ray.put(cents)

    def cols(batch: pa.Table) -> pa.Table:
        C = ray.get(cref)
        Q = _quantize(batch["embedding"])
        dists = np.empty((len(Q), len(C)), dtype=np.int64)
        for ci in range(len(C)):
            diff = Q - C[ci][None, :]
            dists[:, ci] = np.einsum("ij,ij->i", diff, diff)
        lab = np.argmin(dists, axis=1)
        two = np.partition(dists, 1, axis=1)
        a2, b2 = two[:, 0], two[:, 1]
        s = np.where(b2 > 0, 1000 * (b2 - a2) // np.maximum(b2, 1), 0)
        return pa.table({"cluster": pa.array(lab.astype(np.int64)),
                         "one": pa.array(np.ones(len(Q), np.int64)),
                         "s": pa.array(s.astype(np.int64))})

    return aggregate(
        ds.map_batches(cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        "cluster", {"n": ("one", "sum"), "s_milli_sum": ("s", "sum")},
        {"cluster": pa.int64(), "n": pa.int64(), "s_milli_sum": pa.int64()})


PQ_SUBS = 4          # product-quantization subspaces (d must divide)


def _assign_int(Q: np.ndarray, C: np.ndarray):
    """(n,d) x (k,d) int64 -> (labels, dists): exact squared-L2 argmin
    with lowest-cluster tie-break (np.argmin takes the first min) —
    the shared kernel of kmeans_assign / pq_codes."""
    dists = np.empty((len(Q), len(C)), dtype=np.int64)
    for ci in range(len(C)):
        diff = Q - C[ci][None, :]
        dists[:, ci] = np.einsum("ij,ij->i", diff, diff)
    lab = np.argmin(dists, axis=1)
    return lab, dists[np.arange(len(Q)), lab]


def pq_codes(sf_dir: str, k: int = KMEANS_K, iters: int = KMEANS_ITERS,
             n_sub: int = PQ_SUBS):
    """Product-quantization codebook assignment — the vector
    COMPRESSION scale path of an ANN index (IVF-PQ's second stage):
    the embedding is split into ``n_sub`` contiguous dim subspaces and
    an independent integer-exact Lloyd's k-means (kmeans_assign's
    exact determinism contract: 2^20 fixed point, k-smallest-vec_id
    seeds, argmin ties to lowest cid, floor(double(sum)/count)
    updates) runs per subspace.  Output: one (vec_id, sub, code, dist)
    row per vector per subspace — the 64-dim float vector compresses
    to n_sub codebook bytes.

    Scale shape per iteration: ONE pass over the data trains ALL
    subspaces (per-batch partial (sub, cid, cnt, dim-sum) rows —
    n_sub x k x (w+3) ints per batch — folded on the driver,
    k*n_sub-bounded state); centroid lists broadcast via ``ray.put``;
    no shuffle of the vectors ever."""
    import ray

    head = _head_by_id(f"{sf_dir}/embeddings.parquet", k,
                       ["vec_id", "embedding"])
    order = np.argsort(head["vec_id"].to_numpy())[:k]
    full = _quantize(head["embedding"].combine_chunks())[order]
    d = full.shape[1]
    if d % n_sub:
        raise ValueError(f"dim {d} not divisible by {n_sub} subspaces")
    w = d // n_sub
    cents = [np.ascontiguousarray(full[:, s * w:(s + 1) * w])
             for s in range(n_sub)]

    ds = read_table(f"{sf_dir}/embeddings.parquet", ["vec_id", "embedding"])

    for _ in range(iters - 1):
        cref = ray.put(cents)

        def partial(batch: pa.Table, cref=cref) -> pa.Table:
            C = ray.get(cref)
            Q = _quantize(batch["embedding"])
            subs, cids, cnts, sums = [], [], [], []
            for si in range(n_sub):
                Qs = Q[:, si * w:(si + 1) * w]
                lab, _ = _assign_int(Qs, C[si])
                for ci in np.unique(lab):
                    sel = Qs[lab == ci]
                    subs.append(si)
                    cids.append(int(ci))
                    cnts.append(len(sel))
                    sums.append(sel.sum(axis=0, dtype=np.int64))
            return pa.table({
                "sub": pa.array(subs, pa.int64()),
                "cid": pa.array(cids, pa.int64()),
                "cnt": pa.array(cnts, pa.int64()),
                "s": pa.array(sums, pa.list_(pa.int64()))})

        cnt = np.zeros((n_sub, k), dtype=np.int64)
        acc = np.zeros((n_sub, k, w), dtype=np.int64)
        for b in ds.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True, batch_size=None) \
                .iter_batches(batch_size=65536, batch_format="pyarrow"):
            si = b["sub"].to_numpy()
            ci = b["cid"].to_numpy()
            cnt_b = b["cnt"].to_numpy()
            S = np.stack(b["s"].to_numpy(zero_copy_only=False))
            np.add.at(cnt, (si, ci), cnt_b)
            np.add.at(acc, (si, ci), S)
        new = []
        for si in range(n_sub):
            c = cents[si].copy()
            nz = cnt[si] > 0
            c[nz] = np.floor(acc[si][nz].astype(np.float64)
                             / cnt[si][nz, None].astype(np.float64)) \
                .astype(np.int64)
            new.append(c)
        cents = new

    cref = ray.put(cents)

    def final(batch: pa.Table) -> pa.Table:
        C = ray.get(cref)
        Q = _quantize(batch["embedding"])
        vid = batch["vec_id"].to_numpy()
        out_v, out_s, out_c, out_d = [], [], [], []
        for si in range(n_sub):
            lab, dist = _assign_int(Q[:, si * w:(si + 1) * w], C[si])
            out_v.append(vid)
            out_s.append(np.full(len(vid), si, dtype=np.int64))
            out_c.append(lab.astype(np.int64))
            out_d.append(dist)
        return pa.table({
            "vec_id": pa.array(np.concatenate(out_v)),
            "sub": pa.array(np.concatenate(out_s)),
            "code": pa.array(np.concatenate(out_c)),
            "dist": pa.array(np.concatenate(out_d))})

    return ds.map_batches(final, batch_format="pyarrow",
                          zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Scalar-quantized top-k (the PQ-family compression scale path)
# ---------------------------------------------------------------------------

SQ_LEVELS = 127  # symmetric int8 quantization grid [-127, 127]


def embedding_absmax(ds) -> float | None:
    """Global max(|x|) over the embedding column — the symmetric
    quantizer's only training statistic (same expression as the SQL
    mirror's MAX(abs(x))).  One scalar partial per block -> driver
    max fold; double max is exact, so fold order is irrelevant.
    Returns None for an empty corpus."""
    def partial(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({"a": pa.array([], pa.float64())})
        M = np.stack(batch["embedding"].to_numpy(zero_copy_only=False)) \
            .astype(np.float64)
        return pa.table({"a": pa.array([float(np.abs(M).max())])})

    part = ds.select_columns(["embedding"]).map_batches(
        partial, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=None)
    absmax = None
    for b in part.iter_batches(batch_size=65536, batch_format="pyarrow"):
        a = b["a"].to_numpy()
        if len(a):
            m = float(a.max())
            absmax = m if absmax is None else max(absmax, m)
    return absmax


def sq_quantize(M: np.ndarray, absmax: float) -> np.ndarray:
    """SYMMETRIC int8 scalar quantization (one global scale), int64
    output.  A single scale keeps the quantized inner product
    proportional to the original one (q ~ x * 127/A, so q.q' ~
    (127/A)^2 x.x') — a per-dimension affine quantizer would add
    shift cross-terms that destroy the ranking.  EXACT double
    arithmetic in the same order as the SQL mirror:
    scale = A / 127.0; q = clip(floor(x / scale + 0.5), -127, 127);
    an all-zero corpus (A == 0) quantizes to 0."""
    if absmax == 0.0:
        return np.zeros(M.shape, dtype=np.int64)
    scale = absmax / float(SQ_LEVELS)
    return np.clip(np.floor(M / scale + 0.5),
                   -SQ_LEVELS, SQ_LEVELS).astype(np.int64)


class SQTopK:
    """Task stage: integer dot products of the batch's QUANTIZED vectors
    against the broadcast quantized query matrix (``ray.get`` of
    ``state_ref`` per batch, or the in-process ``state``); per-batch
    partial top-k.  All scoring is int64 (exact oracle; no float tie
    ambiguity)."""

    def __init__(self, state_ref=None, state=None, k: int = TOPK_DEFAULT):
        self.state_ref = state_ref
        self.state = state
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray

        qids, Q, absmax = (ray.get(self.state_ref)
                           if self.state_ref is not None else self.state)
        ids = batch["vec_id"].to_numpy()
        M = np.stack(batch["embedding"].to_numpy(zero_copy_only=False)) \
            .astype(np.float64)
        qv = sq_quantize(M, absmax)
        scores = Q @ qv.T  # (nq, nb) int64
        nq, nb = scores.shape
        kk = min(self.k + 1, nb)  # +1: self-match filtered downstream
        qs, ns, ss = [], [], []
        for qi in range(nq):
            order = np.lexsort((ids, -scores[qi]))[:kk]
            qs.append(np.full(len(order), qids[qi], dtype=np.int64))
            ns.append(ids[order])
            ss.append(scores[qi][order])
        return pa.table({
            "query_id": pa.array(np.concatenate(qs)),
            "neighbor_id": pa.array(np.concatenate(ns).astype(np.int64)),
            "score": pa.array(np.concatenate(ss)),
        })


def sq_topk(sf_dir: str, k: int = TOPK_DEFAULT,
            n_queries: int = N_QUERIES_DEFAULT):
    """Scalar-quantized similarity search: embeddings are compressed to
    per-dimension uint8 codes (4x over f32, 8x over f64 — the memory/
    bandwidth scale path of the similarity-search family) and ranked by
    exact INTEGER dot product in the quantized space, (score DESC,
    neighbor_id ASC), self-matches excluded.

    Shape: one streaming pass trains the quantizer (per-dim min/max,
    D-bounded combine), the codes + query matrix broadcast once, then
    the scan is a per-batch int matmul with partial top-k -> one tiny
    final reduce.  Integer scoring makes the whole pipeline
    hash-exact against the SQL mirror."""
    import ray
    import ray.data as rd

    path = f"{sf_dir}/embeddings.parquet"
    ds = read_table(path, ["vec_id", "embedding"])
    absmax = embedding_absmax(ds)
    if absmax is None:  # empty corpus: typed empty result
        return rd.from_arrow(pa.table({
            "query_id": pa.array([], pa.int64()),
            "neighbor_id": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64()),
            "score": pa.array([], pa.int64())}))
    qids, Qf = load_queries(sf_dir, n_queries)
    Q = sq_quantize(Qf, absmax)
    state_ref = ray.put((qids, Q, absmax))
    cand = read_table(path, ["vec_id", "embedding"]) \
        .map_batches(SQTopK(state_ref=state_ref, k=k),
                     batch_format="pyarrow", zero_copy_batch=True,
                     batch_size=4096)

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["neighbor_id"] != g["query_id"]]
        g = g.sort_values(["score", "neighbor_id"],
                          ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["query_id", "neighbor_id", "rank", "score"]]

    return cand.groupby("query_id").map_groups(final_topk,
                                               batch_format="pandas")


def centroid_by_label(sf_dir: str):
    """Per-label embedding centroid SUMS (list-column aggregation):
    component-wise sum of floor(1000 * e) over each label's vectors,
    plus the label count — divide sum_milli by n for the mean.  The
    milli-quantization makes the float aggregation order-independent
    and bit-exact against SQL (float32 -> double widening is identical
    on both sides).

    Scale shape: per-batch partials collapse each block to
    <= |labels| x D rows (component-wise int64 sums via np.add.at on
    the label index), then ONE groupby over the (label, dim) keyspace
    — input vectors never cross the shuffle."""

    ds = read_table(f"{sf_dir}/embeddings.parquet", ["label", "embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:   # np.stack needs >= 1 array
            e = pa.array([], pa.int64())
            return pa.table({"label": e, "dim_idx": e, "s": e, "n": e})
        emb = np.stack(batch["embedding"].to_numpy(
            zero_copy_only=False)).astype(np.float64)
        q = np.floor(1000.0 * emb).astype(np.int64)      # (n, D)
        labels = batch["label"].to_numpy(
            zero_copy_only=False).astype(np.int64)
        u, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(u), q.shape[1]), dtype=np.int64)
        np.add.at(sums, inv, q)
        counts = np.bincount(inv, minlength=len(u)).astype(np.int64)
        d = q.shape[1]
        return pa.table({
            "label": pa.array(np.repeat(u, d)),
            "dim_idx": pa.array(np.tile(np.arange(d, dtype=np.int64),
                                        len(u))),
            "s": pa.array(sums.reshape(-1)),
            "n": pa.array(np.repeat(counts, d)),
        })

    return aggregate(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["label", "dim_idx"], {"sum_milli": ("s", "sum"), "n": ("n", "sum")},
        {"label": pa.int64(), "dim_idx": pa.int64(), "sum_milli": pa.int64(),
         "n": pa.int64()})


# ---------------------------------------------------------------------------
# emb_quantize — global-min/max int8 quantization codes
# ---------------------------------------------------------------------------

def emb_quantize(sf_dir: str):
    """Scalar (per-dimension min/max) int8 quantization of the
    embedding column — the memory-compression step before an ANN
    index is built at 100 TB (256-level codes cut a float32 corpus
    4x).  Codes are EXACT integers end-to-end: values quantize to the
    milli grid first (floor(1000*v), the centroid_by_label trick), the
    per-dim [mn, mx] range is an int64 aggregate, and
    ``code = (q - mn) * 255 // (mx - mn)`` is pure integer floor
    arithmetic — no float scale factor to drift between engines.

    Scale shape: pass 1 collapses each batch to <= D (dim, mn, mx)
    partial rows -> ONE tiny groupby (D rows) -> driver collect
    bounded by DIMENSIONALITY (not data) broadcast via ray.put;
    pass 2 is a stateless per-batch encode.  Two reads of the
    embedding column, zero data shuffles.
    """
    import ray

    from .shuffle import collect

    path = f"{sf_dir}/embeddings.parquet"
    ds = read_table(path, ["vec_id", "embedding"])

    def minmax_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            e = pa.array([], pa.int64())
            return pa.table({"dim_idx": e, "mn": e, "mx": e})
        emb = np.stack(batch["embedding"].to_numpy(
            zero_copy_only=False)).astype(np.float64)
        q = np.floor(1000.0 * emb).astype(np.int64)
        d = q.shape[1]
        return pa.table({
            "dim_idx": pa.array(np.arange(d, dtype=np.int64)),
            "mn": pa.array(q.min(axis=0)),
            "mx": pa.array(q.max(axis=0))})

    stats = aggregate(
        ds.map_batches(minmax_partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        "dim_idx", {"mn": ("mn", "min"), "mx": ("mx", "max")},
        {"dim_idx": pa.int64(), "mn": pa.int64(), "mx": pa.int64()})
    dim = _embedding_dim(path)
    stats = collect(stats, pa.schema([("dim_idx", pa.int64()),
                                      ("mn", pa.int64()),
                                      ("mx", pa.int64())]), dim)
    if stats is None:
        raise ValueError(f"emb_quantize: more than {dim} dimensions "
                         "(embeddings of unequal length)")
    stats = stats.sort_by("dim_idx")
    mn = stats["mn"].to_numpy()
    rng = np.maximum(stats["mx"].to_numpy() - mn, 1)
    ref = ray.put((mn, rng))

    def encode(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            e = pa.array([], pa.int64())
            return pa.table({"vec_id": e, "dim_idx": e, "code": e})
        b_mn, b_rng = ray.get(ref)
        emb = np.stack(batch["embedding"].to_numpy(
            zero_copy_only=False)).astype(np.float64)
        q = np.floor(1000.0 * emb).astype(np.int64)
        codes = (q - b_mn) * 255 // b_rng            # (n, D) int64
        n, d = codes.shape
        return pa.table({
            "vec_id": pa.array(np.repeat(
                batch["vec_id"].to_numpy(), d)),
            "dim_idx": pa.array(np.tile(np.arange(d, dtype=np.int64),
                                        n)),
            "code": pa.array(codes.reshape(-1))})

    return ds.map_batches(encode, batch_format="pyarrow",
                          zero_copy_batch=True)


RRF_C = 60                 # the standard reciprocal-rank-fusion offset
RRF_TOPK = 20


def hybrid_rrf(sf_dir: str, c: int = RRF_C, k: int = RRF_TOPK):
    """Hybrid retrieval via reciprocal-rank fusion: the lexical tf-idf
    ranking (``textops.search_topk``, fixed demo query) and the
    semantic cosine ranking (``ann_topk`` for query_id 0, neighbors
    over the shared doc/vec id domain) are fused with the standard RRF
    score ``Σ 1000 // (c + rank)`` (integer milli-units, c = 60) — the
    production hybrid-search pattern (BM25 ∪ dense retrieval → one
    list).  Ids absent from a list contribute 0 from it; output the
    top-k by (rrf_milli DESC, doc_id) with membership flags.

    Scale shape: both input rankings are already k-bounded engine
    pipelines (partial top-k reductions — nothing here rescans the
    corpus); both come to the driver through ``shuffle.collect``
    bounded by their top-k sizes, and the fusion is a 30-row driver
    join."""
    import ray.data as rd

    from .relational import _parquet_rows
    from .shuffle import collect
    from .textops import SEARCH_TOPK, search_topk

    path = f"{sf_dir}/documents.parquet"
    docs = read_table(path, ["doc_id", "text"])
    i64 = pa.int64()
    lex = collect(search_topk(docs, _parquet_rows(path)),
                  pa.schema([("doc_id", i64), ("rk", i64)]), SEARCH_TOPK)
    sem = collect(ann_topk(sf_dir),
                  pa.schema([("query_id", i64), ("neighbor_id", i64),
                             ("rank", i64)]),
                  N_QUERIES_DEFAULT * TOPK_DEFAULT)
    if lex is None or sem is None:
        raise ValueError("hybrid_rrf: a ranking exceeds its top-k bound")
    qid = sem["query_id"].to_numpy()
    sem = sem.filter(pa.array(qid == (qid.min() if len(qid) else 0)))

    fused: dict[int, list[int]] = {}
    for t, ids, ranks, flag in ((lex, "doc_id", "rk", 1),
                                (sem, "neighbor_id", "rank", 2)):
        for d, r in zip(t[ids].to_pylist(), t[ranks].to_pylist()):
            f = fused.setdefault(d, [0, 0, 0])
            f[0] += 1000 // (c + r)
            f[flag] = 1
    rows = sorted(fused.items(), key=lambda kv: (-kv[1][0], kv[0]))[:k]
    return rd.from_arrow(pa.table({
        "doc_id": pa.array([d for d, _ in rows], pa.int64()),
        "rrf_milli": pa.array([v[0] for _, v in rows], pa.int64()),
        "in_lex": pa.array([v[1] for _, v in rows], pa.int64()),
        "in_sem": pa.array([v[2] for _, v in rows], pa.int64())}))
