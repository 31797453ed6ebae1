"""Deduplication operators over the documents table.

Training-data-pipeline first-class components (build brief): exact dedup,
MinHash+LSH near-dup, SimHash, n-gram Jaccard verification, and
embedding-cosine near-dup.  All designed as streaming Ray Data stages:

* exact:    md5(text) column per batch -> groupby(hash) -> keep min doc_id.
            SQL oracle: md5() GROUP BY (DuckDB's md5 matches hashlib).
* minhash:  per-batch shingle->minhash sigs (vectorized), explode to
            (gid, doc_id) rows, groupby band buckets ->
            candidate pairs -> n-gram Jaccard verify.  The whole family
            is derandomized mod-Mersenne-31 arithmetic with an exact
            DuckDB oracle (see __ray_entry__._minhash_sql_chain).
* simhash:  64-bit simhash over shingle hashes; near-dup = hamming<=3
            via 4-segment LSH (exact-match segments); exact SQL oracle.
* embedding: cosine near-dup over the embeddings table (see ann.py).

Scale notes: every step pre-aggregates inside map_batches before its
groupby; candidate verification joins only within buckets.  At 100 TB the
only all-to-all exchanges are groupbys on short hash keys (no payload
columns are shuffled — text is re-read per candidate-pair group via a
broadcast only at small scale; at large scale the verify stage carries
the shingle sets, which are bounded by NUM_PERM ints).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import shuffle
from .shuffle import aggregate, partitioned, partitions_for, runs
from .sources import read_table

# MinHash parameters.  The whole hash family is DERANDOMIZED and kept
# inside mod-Mersenne-31 arithmetic so every step has an exact DuckDB
# mirror (operands < 2^31 keep all products < 2^62, i.e. BIGINT-safe on
# both sides — see __ray_entry__.oracle_sql 'minhash_pairs'):
#   token t  = ('0x' || substr(md5(tok), 1, 15))::BIGINT % M
#   shingle  = (t1*C1 % M + t2*C2 % M + t3*C3 % M) % M     (token 3-gram)
#   sig_p    = min over shingles of (a_p*sh + b_p) % M
#   band key = fold over the band's sig rows: k = (k*KB % M + s) % M
NUM_PERM = 64
NUM_BANDS = 16  # rows per band = 4
SHINGLE_K = 3   # token 3-grams
MERSENNE = (1 << 31) - 1

# Public LCG multipliers/increments (Numerical Recipes, glibc, VAX,
# Borland) as the fixed mixing constants — all < 2^31.
SH_C1 = 1664525
SH_C2 = 1103515245
SH_C3 = 69069
BAND_KB = 22695477

# SimHash: three LCG mixes of the 31-bit shingle hash supply the 64
# vote bits (31 + 31 + 2).
SIM_BITS = 64
SIM_SEGS = 4  # hamming<=3 guarantees one equal 16-bit segment
SIM_G1, SIM_H1 = 1664525, 1013904223
SIM_G2, SIM_H2 = 1103515245, 12345
SIM_G3, SIM_H3 = 69069, 362437


def _rng_coeffs(seed: int = 20240817):
    """Fixed-seed universal-hash coefficients; the literal values are
    embedded into the SQL oracle, so the RNG is just a one-time
    constant generator."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, MERSENNE, NUM_PERM, dtype=np.int64)
    b = rng.integers(0, MERSENNE, NUM_PERM, dtype=np.int64)
    return a, b


MINHASH_A, MINHASH_B = _rng_coeffs()

# Max hot (>=2-member) band-bucket gids collected to a driver array for
# the broadcast filter; above this the filter becomes a distributed
# inner join (the jaccard_pairs cand_driver_limit shape).  A
# boilerplate-heavy crawl can make the hot set O(corpus).
HOT_GID_DRIVER_LIMIT = 16_000_000
# Within-bucket all-pairs cap: a band bucket over this many members is
# truncated to the cap smallest doc_ids before pair generation (the
# SIM_BUCKET_CAP recall-guard pattern; C(n,2) on a degenerate
# mega-bucket of identical boilerplate pages is quadratic in n).
MINHASH_BUCKET_CAP = 4096

_TOKEN_CACHE: dict[str, int] = {}
# Hard cap on the per-worker token->hash memo: web-scale corpora have
# an effectively unbounded long-tail vocabulary, so an uncapped dict
# grows with every distinct token the worker ever sees.  Clear-on-full
# keeps the hot head cached — Zipf means the head re-fills instantly
# and the tail misses anyway.
_TOKEN_CACHE_MAX = 1_000_000


def _hash_tokens(toks: list[str]) -> np.ndarray:
    """md5-derived 31-bit hash per token (process-cached with a
    _TOKEN_CACHE_MAX clear-on-full bound), as int64 < M.
    Matches ('0x' || substr(md5(tok),1,15))::BIGINT % M in DuckDB.
    Factorized first so each DISTINCT token pays one cache probe / md5
    per call regardless of its multiplicity (web text repeats its
    vocabulary head constantly)."""
    import pandas as pd

    cache = _TOKEN_CACHE
    codes, uniq = pd.factorize(np.asarray(toks, dtype=object), sort=False)
    uh = np.empty(len(uniq), dtype=np.int64)
    for i, t in enumerate(uniq):
        h = cache.get(t)
        if h is None:
            h = int(hashlib.md5(t.encode()).hexdigest()[:15], 16) % MERSENNE
            if len(cache) >= _TOKEN_CACHE_MAX:
                cache.clear()
            cache[t] = h
        uh[i] = h
    return uh[codes]


def _token_hashes(text: str) -> np.ndarray:
    """Stable 31-bit hashes of the (unique) token k-shingles of one
    document: cached per-token md5 + vectorized positional combine mod
    Mersenne-31.  31-bit shingle identity is deliberate: collisions
    only add rare false candidate pairs (verified downstream) and keep
    the family SQL-expressible."""
    th = _hash_tokens(text.split(" "))
    M = MERSENNE
    if len(th) < SHINGLE_K:
        combo = 0
        for h in th.tolist():
            combo = (combo * SH_C2 % M + h) % M
        return np.array([combo], dtype=np.int64)
    sh = (th[:-2] * SH_C1 % M + th[1:-1] * SH_C2 % M
          + th[2:] * SH_C3 % M) % M
    return np.unique(sh)


def add_md5(batch: pa.Table) -> pa.Table:
    """Exact-dedup key: hex md5 of text (matches DuckDB md5())."""
    h = [hashlib.md5(t.encode()).hexdigest()
         for t in batch["text"].to_pylist()]
    return batch.append_column("text_md5", pa.array(h, pa.string()))


def exact_dedup(ds):
    """Keep the lowest doc_id per identical text.  groupby on the hash
    only (no text through the shuffle); the reduce is a vectorized Min
    aggregate — never per-group Python (a map_groups here costs one
    pandas call per group, i.e. per distinct document)."""

    keyed = ds.map_batches(add_md5, batch_format="pyarrow",
                           zero_copy_batch=True) \
              .select_columns(["doc_id", "text_md5"])
    return aggregate(
        keyed,
        "text_md5", {"doc_id": ("doc_id", "min")},
        {"text_md5": pa.string(), "doc_id": pa.int64()})


# doc-aligned shingle chunk bound for the batched universal-hash matrix:
# (NUM_PERM x chunk) int64 intermediates stay ~32 MB per step.
_SIG_CHUNK_SHINGLES = 65_536


class MinHasher:
    """Per-batch MinHash signatures (a task stage; the permutation
    coefficients are module constants).  BATCH-vectorized: token hashes
    for the whole batch in one factorized pass, shingles for all docs in
    one modular combine over the concatenated hash array (doc-boundary
    positions masked out), then (a*sh+b) % M for doc-aligned shingle
    chunks with a per-doc ``np.minimum.reduceat`` — the per-doc-Python
    version spent its time in 80 K tiny (64 x n) matmuls.  min over the
    shingle MULTISET equals min over the set, so the per-doc np.unique
    the verify path needs is skipped here."""

    def __init__(self):
        self.a = MINHASH_A[:, None]
        self.b = MINHASH_B[:, None]

    def signature(self, text: str) -> np.ndarray:
        th = _token_hashes(text)[None, :]
        v = (self.a * th + self.b) % MERSENNE
        return v.min(axis=1)

    def _signatures(self, texts: list[str]) -> np.ndarray:
        M = MERSENNE
        tok_lists = [t.split(" ") for t in texts]
        lens = np.array([len(tl) for tl in tok_lists], dtype=np.int64)
        th = _hash_tokens([t for tl in tok_lists for t in tl])
        ends = np.cumsum(lens)
        starts = ends - lens
        # global 3-gram combine; positions whose window crosses a doc
        # boundary are dropped (doc_of is sorted, so the valid shingles
        # stay grouped by doc)
        if len(th) >= SHINGLE_K:
            sh_all = (th[:-2] * SH_C1 % M + th[1:-1] * SH_C2 % M
                      + th[2:] * SH_C3 % M) % M
            doc_of = np.repeat(np.arange(len(lens)), lens)
            valid = doc_of[:-2] == doc_of[2:]
            sh_all = sh_all[valid]
            sh_doc = doc_of[:-2][valid]
        else:
            sh_all = np.array([], dtype=np.int64)
            sh_doc = np.array([], dtype=np.int64)
        # docs with < SHINGLE_K tokens: sequential fold fallback (same
        # formula as _token_hashes)
        n_sh = np.zeros(len(lens), dtype=np.int64)
        if len(sh_doc):
            np.add.at(n_sh, sh_doc, 1)
        sigs = np.empty((len(lens), NUM_PERM), dtype=np.int64)
        for d in np.flatnonzero(lens < SHINGLE_K):
            combo = 0
            for h in th[starts[d]:ends[d]].tolist():
                combo = (combo * SH_C2 % M + h) % M
            sigs[d] = ((self.a[:, 0] * combo + self.b[:, 0]) % M)
        # doc-aligned chunks over the shingled docs
        sh_docs = np.flatnonzero(n_sh > 0)
        sh_starts = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(n_sh, out=sh_starts[1:])
        i0 = 0
        while i0 < len(sh_docs):
            i1 = i0
            base = sh_starts[sh_docs[i0]]
            while (i1 < len(sh_docs)
                   and sh_starts[sh_docs[i1]] + n_sh[sh_docs[i1]]
                   - base <= _SIG_CHUNK_SHINGLES):
                i1 += 1
            i1 = max(i1, i0 + 1)  # one oversize doc still advances
            docs = sh_docs[i0:i1]
            lo = sh_starts[docs[0]]
            hi = sh_starts[docs[-1]] + n_sh[docs[-1]]
            v = (self.a * sh_all[None, lo:hi] + self.b) % M
            offs = (sh_starts[docs] - lo).astype(np.int64)
            mins = np.minimum.reduceat(v, offs, axis=1)
            sigs[docs] = mins.T
            i0 = i1
        return sigs

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        sigs = self._signatures(batch["text"].to_pylist())
        return pa.table({
            "doc_id": pa.array(ids),
            "sig": pa.array(list(sigs), pa.list_(pa.int64(), NUM_PERM)),
        })


def band_rows(batch: pa.Table) -> pa.Table:
    """Explode signatures into (gid, doc_id) rows for LSH, where
    gid = band * 2^31 + band_key packs the (band, band_key < M31) pair
    into one int64 group key (vectorized isin / partitioning all the
    way down; the SQL oracle joins on the equivalent (band, key))."""
    ids = batch["doc_id"].to_numpy()
    sig = np.stack(batch["sig"].to_numpy(zero_copy_only=False))
    n, _ = sig.shape
    rows_per_band = NUM_PERM // NUM_BANDS
    out_doc = np.tile(ids, NUM_BANDS)
    keys = np.empty((NUM_BANDS, n), dtype=np.int64)
    for bnd in range(NUM_BANDS):
        seg = sig[:, bnd * rows_per_band:(bnd + 1) * rows_per_band]
        k = seg[:, 0].copy()
        for r in range(1, rows_per_band):
            k = (k * BAND_KB % MERSENNE + seg[:, r]) % MERSENNE
        keys[bnd] = k + (bnd << 31)
    return pa.table({
        "gid": pa.array(keys.reshape(-1)),
        "doc_id": pa.array(out_doc),
    })


def minhash_candidates(ds, work_dir: str | None = None,
                       bucket_cap: int = MINHASH_BUCKET_CAP,
                       hot_driver_limit: int = HOT_GID_DRIVER_LIMIT):
    """documents -> candidate near-dup pairs (doc_a < doc_b) via LSH.

    Pipeline: MinHash sigs (a task stage) -> band explode -> bucket-size
    pre-pass (vectorized Count aggregate; almost every bucket is a
    singleton, and per-group Python over 80K singleton buckets was the
    whole runtime) ->
    hot-bucket filter (broadcast set below ``hot_driver_limit`` ids,
    distributed inner join above — a boilerplate-heavy crawl puts
    O(corpus) gids in the hot set, which must never concatenate on the
    driver) -> pairs within the surviving buckets -> distinct pairs.
    The pre-pass also yields exact row bounds for the downstream
    hash-partitioned kernels (hot-bucket rows; per-bucket C(n,2) pair
    bound) so partition counts scale with the data.

    ``bucket_cap`` bounds the within-bucket all-pairs blowup: a bucket
    over the cap emits all-pairs over its ``bucket_cap`` smallest
    doc_ids PLUS one star edge (min_id, member) for every member
    beyond the prefix — C(cap,2) + (n - cap) pairs instead of C(n,2),
    deterministic, and the star edges keep the WHOLE bucket
    transitively connected, so a mega-bucket of identical boilerplate
    pages still clusters as ONE near-dup group after verify + CC
    (identical docs pass any Jaccard threshold; for merely-similar
    docs beyond the prefix the star edge is the single candidate
    tested, a recall trade-off logged at runtime).  The sf oracles run
    uncapped — per-band buckets there are far below the cap.
    """
    import ray
    import ray.data as rd

    from .pools import spill_dir

    sigs = ds.map_batches(MinHasher(), batch_format="pyarrow",
                          zero_copy_batch=True)
    # the band table is consumed twice (count pre-pass + pair pass) and
    # MinHash signatures are expensive to recompute — spill the compact
    # (gid, doc_id) table to parquet scratch and re-read it,
    # instead of pinning it in the object store (at 100 TB the spill is
    # disk-backed and partition-resumable; plasma pinning is not).
    # The scratch tree is per-process and removed at exit (pools.spill_dir)
    spill = spill_dir("minhash_bands", work_dir)
    sigs.map_batches(band_rows, batch_format="pyarrow") \
        .write_parquet(spill)
    bands = read_table(spill)

    # bucket-size pre-pass: shuffle.aggregate_table's per-block counts,
    # folded on the driver under its bound (measured 8-9 s cheaper than
    # routing 1.28 M band rows through Ray's sort-based groupby at the
    # bench's 16x-dup corpus): the hot set and its bounds come straight
    # from the folded table
    counts = shuffle.aggregate_table(
        bands, "gid", {"n": ("gid", "count")},
        {"gid": pa.int64(), "n": pa.int64()})
    hot_ds = None  # set on the distributed (join) path only
    if isinstance(counts, pa.Table):
        sums = counts["n"].to_numpy()
        hm = sums >= 2
        hot = counts["gid"].to_numpy()[hm]  # the fold sorts its keys
        nh = sums[hm]
        hot_rows = int(nh.sum())
        pair_bound = int((nh * (nh - 1) // 2).sum())
    else:
        # past the fold bound: spill the >=2-count bucket set to
        # parquet scratch, since it is consumed twice (scalar bounds
        # stream + broadcast-or-join side) and re-running the
        # distributed groupby for each read would double the shuffle
        def keep_hot(b: pa.Table) -> pa.Table:
            return b.filter(pc.greater_equal(b["n"], 2))

        hot_spill = spill_dir("minhash_hot", work_dir)
        counts.map_batches(keep_hot, batch_format="pyarrow",
                           zero_copy_batch=True).write_parquet(hot_spill)
        hot_tbl = read_table(hot_spill)
        hot_parts: list | None = []
        n_hot = 0
        hot_rows = 0
        pair_bound = 0
        for b in hot_tbl.iter_batches(batch_size=65536,
                                      batch_format="pyarrow"):
            n = b["n"].to_numpy()
            n_hot += len(n)
            hot_rows += int(n.sum())
            pair_bound += int((n * (n - 1) // 2).sum())
            if hot_parts is not None:
                hot_parts.append(b["gid"].to_numpy())
                if n_hot > hot_driver_limit:
                    # too many hot gids for a driver array — drop the
                    # buffer, keep streaming the scalar bounds, and
                    # route the filter through a distributed join
                    hot_parts = None
        if hot_parts is not None:
            hot = (np.sort(np.concatenate(hot_parts)) if hot_parts
                   else np.array([], dtype=np.int64))
        else:
            hot = None
            hot_ds = hot_tbl.select_columns(["gid"])
    if hot_ds is None and not len(hot):
        import ray.data as rd
        return rd.from_items([]).map_batches(
            lambda b: pa.table({"doc_a": pa.array([], pa.int64()),
                                "doc_b": pa.array([], pa.int64())}),
            batch_format="pyarrow")

    from .relational import join_partitions_for

    if hot_ds is not None:
        # distributed hot filter: inner-join the band table to the hot
        # gid set (the jaccard_pairs cand_driver_limit shape) — no
        # driver-side id array at any duplicate rate.
        # join_partitions_for, NOT partitions_for: Ray 2.49 hash joins
        # emit schema-less empty partitions when over-partitioned
        survivors = bands.join(
            hot_ds, join_type="inner",
            num_partitions=join_partitions_for(hot_rows), on=("gid",))
    else:
        hot_ref = ray.put(hot)

        def filter_hot(batch: pa.Table) -> pa.Table:
            # hot_ref holds the sorted int64 gid array
            keep = np.isin(batch["gid"].to_numpy(), ray.get(hot_ref))
            return batch.filter(pa.array(keep))

        survivors = bands.map_batches(filter_hot, batch_format="pyarrow",
                                      zero_copy_batch=True)

    def bucket_pairs_part(g: pa.Table) -> pa.Table:
        """ONE kernel for every bucket in the partition: sort by
        (gid, doc_id), find group runs, emit within-group all-pairs.
        The per-group work is a 2-line numpy slice — the per-group
        call trap only bites when each group is a map_groups
        invocation.  Runs over ``bucket_cap`` emit all-pairs on the
        cap prefix plus min-id star edges for the tail, keeping the
        bucket connected (see the function docstring)."""
        g = g.sort_by([("gid", "ascending"), ("doc_id", "ascending")])
        gi = g["gid"].to_numpy()
        ids = g["doc_id"].to_numpy()
        starts, sizes = runs(gi)
        out_a, out_b = [], []
        n_capped = 0
        for st, sz in zip(starts.tolist(), sizes.tolist()):
            if sz < 2:
                continue
            d = ids[st:st + sz]  # already sorted within the run
            if sz > bucket_cap:
                n_capped += 1
                # star edges keep the beyond-prefix tail transitively
                # connected to the bucket's min id
                out_a.append(np.full(sz - bucket_cap, d[0],
                                     dtype=np.int64))
                out_b.append(d[bucket_cap:])
                d = d[:bucket_cap]
                sz = bucket_cap
            ia, ib = np.triu_indices(sz, k=1)
            out_a.append(d[ia])
            out_b.append(d[ib])
        if n_capped:
            print(f"minhash_candidates: {n_capped} band bucket(s) over "
                  f"{bucket_cap} members: all-pairs on the cap-smallest "
                  "prefix + min-id star edges for the tail (recall "
                  "guard; see MINHASH_BUCKET_CAP)")
        if not out_a:
            return g.slice(0, 0)
        return pa.table({"doc_a": np.concatenate(out_a),
                         "doc_b": np.concatenate(out_b)})

    pairs = partitioned(survivors, "gid", bucket_pairs_part, PAIR_SCHEMA,
                        rows_hint=hot_rows)

    # distinct pairs (the same pair fires in up to NUM_BANDS bands):
    # hash-partition on doc_a (all firings of a pair share it) and
    # dedupe vectorized per partition — one single-key exchange
    # instead of a two-key groupby over the pre-distinct pair volume
    # (the two-key hash shuffle measured ~10x slower here)
    return partitioned(pairs, "doc_a", distinct_rows, PAIR_SCHEMA,
                       rows_hint=pair_bound)


PAIR_SCHEMA = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())])


def distinct_rows(g: pa.Table) -> pa.Table:
    """Partition kernel: the distinct rows of ``g``."""
    return g.group_by(g.column_names).aggregate([])


def _verified_schema(containment: bool) -> pa.Schema:
    cols = (["contain_a_milli", "contain_b_milli"] if containment
            else ["jaccard_milli"])
    return pa.schema(list(PAIR_SCHEMA) + [(c, pa.int64()) for c in cols])


def _empty_verified(containment: bool = False):
    import ray.data as rd

    return rd.from_arrow(_verified_schema(containment).empty_table())


def containment_pairs(pairs_ds, docs_ds, num_partitions: int = 8,
                      cand_driver_limit: int = 5_000_000):
    """Asymmetric shingle CONTAINMENT per candidate pair — the
    quote/inclusion detector Jaccard misses: a short page embedded
    verbatim inside a long one has tiny Jaccard but containment_a
    near 1000.  Same fully-distributed machinery as
    :func:`jaccard_pairs` (one hash join, partitioned intersect
    kernel); only the final arithmetic differs:
    ``contain_x_milli = 1000 * |A ∩ B| // |X|`` for each side.

    Returns (doc_a, doc_b, contain_a_milli, contain_b_milli)."""
    return jaccard_pairs(pairs_ds, docs_ds,
                         num_partitions=num_partitions,
                         cand_driver_limit=cand_driver_limit,
                         containment=True)


def jaccard_pairs(pairs_ds, docs_ds, num_partitions: int = 8,
                  cand_driver_limit: int = 5_000_000,
                  containment: bool = False):
    """Verify candidate pairs with exact token-shingle Jaccard — fully
    distributed.

    Document TEXT never reaches the driver.  Below
    ``cand_driver_limit`` candidate ids (2 * pair count as the bound),
    the candidate doc-id SET is collected and broadcast (ints, bounded
    by the duplicate rate — cheap); above it, even the id set stays
    distributed: candidate ids are deduped with a vectorized aggregate
    and semi-joined to the documents table instead (web-crawl dup rates
    make the pair table O(corpus), where a driver id set is an OOM).
    Either way, shingle-hash arrays are computed inside map_batches for
    candidate docs only, then hash-joined to the pair rows on each
    side; the Jaccard is an intersect of two sorted unique int64 arrays
    per pair (31-bit shingle hashes).
    """
    import ray

    pairs = pairs_ds.materialize()  # candidate pairs only (small side)
    n_pairs = pairs.count()
    if n_pairs == 0:
        return _empty_verified(containment)
    # scale the join fan-out to the candidate volume: Ray 2.49's hash
    # join emits schema-less empty partitions (which crash downstream),
    # so never create more partitions than ~10k pair-rows can fill
    num_partitions = max(1, min(num_partitions, -(-n_pairs // 10_000)))

    if 2 * n_pairs > cand_driver_limit:
        # distributed id filter: dedup candidate ids with a vectorized
        # Count aggregate (never collected), inner-join the documents
        # table to the id set, shingle only the matches

        def explode_ids(batch: pa.Table) -> pa.Table:
            a = batch["doc_a"].to_numpy()
            b = batch["doc_b"].to_numpy()
            return pa.table({"doc_id": pa.array(np.concatenate([a, b]))})

        ids_ds = aggregate(
            pairs.map_batches(explode_ids, batch_format="pyarrow",
                              zero_copy_batch=True),
            "doc_id", {"nref": ("doc_id", "count")},
            {"doc_id": pa.int64(), "nref": pa.int64()})
        jp = max(num_partitions, partitions_for(2 * n_pairs))
        cand_docs = docs_ds.select_columns(["doc_id", "text"]).join(
            ids_ds, join_type="inner", num_partitions=jp, on=("doc_id",))

        def shingle_all(batch: pa.Table) -> pa.Table:
            d = batch["doc_id"].to_numpy()
            texts = batch["text"].to_pylist()
            sh = [_token_hashes(t).tobytes() for t in texts]
            return pa.table({"doc_id": pa.array(d),
                             "sh": pa.array(sh, pa.binary())})

        shingles = cand_docs.map_batches(shingle_all,
                                         batch_format="pyarrow")
    else:
        cand: set = set()
        for b in pairs.iter_batches(batch_size=65536,
                                    batch_format="pyarrow"):
            cand.update(b["doc_a"].to_pylist())
            cand.update(b["doc_b"].to_pylist())
        ids_ref = ray.put(np.fromiter(cand, dtype=np.int64,
                                      count=len(cand)))

        # Stateless TASK fn that reads the candidate-id array with
        # ray.get per batch: an actor pool here pins a CPU next to the
        # hash-join aggregator actors, which deadlocks narrow sessions
        # (2 CPUs: pool + join actor starve the read task).  Emits
        # (doc_id, sh: binary) for candidate docs only; the shingle-hash
        # array travels as raw int64 bytes because Acero hash joins
        # accept binary payloads but not list columns.
        def cand_shingles(batch: pa.Table) -> pa.Table:
            d = batch["doc_id"].to_numpy()
            keep = np.isin(d, ray.get(ids_ref))
            d = d[keep]
            texts = batch.filter(pa.array(keep))["text"].to_pylist()
            sh = [_token_hashes(t).tobytes() for t in texts]
            return pa.table({
                "doc_id": pa.array(d),
                "sh": pa.array(sh, pa.binary()),
            })

        shingles = docs_ds.map_batches(cand_shingles,
                                       batch_format="pyarrow",
                                       zero_copy_batch=True)

    # ONE hash join only (chaining Ray 2.49 joins trips on empty
    # schema-less partitions): explode each pair into two doc-keyed
    # rows, join the shingle table once, then group by pair and
    # intersect the two shingle arrays.
    def explode(batch: pa.Table) -> pa.Table:
        a = batch["doc_a"].to_numpy()
        b = batch["doc_b"].to_numpy()
        return pa.table({
            "doc_id": pa.array(np.concatenate([a, b])),
            "doc_a": pa.array(np.concatenate([a, a])),
            "doc_b": pa.array(np.concatenate([b, b])),
        })

    pairrows = pairs.map_batches(explode, batch_format="pyarrow",
                                 zero_copy_batch=True)
    j = pairrows.join(shingles, join_type="inner",
                      num_partitions=num_partitions, on=("doc_id",))

    def verify_part(g: pa.Table) -> pa.Table:
        """ONE kernel for every pair in the partition (both sides of a
        pair share doc_a, so partitioning on doc_a keeps them
        together).  A map_groups per pair costs one kernel call per
        candidate — 33 s for 34 K pairs; this kernel is a numpy loop
        over consecutive pair duos.

        The doc_id tiebreak in the sort is load-bearing for
        containment=True: a duo's two rows share (doc_a, doc_b), so
        without it their order is join-output order and
        contain_a/contain_b could swap nondeterministically.  The
        explicit doc_id check below keeps the assignment correct even
        for caller-supplied pairs without the doc_a < doc_b
        invariant."""
        g = g.sort_by([("doc_a", "ascending"), ("doc_b", "ascending"),
                       ("doc_id", "ascending")])
        a = g["doc_a"].to_numpy()
        b = g["doc_b"].to_numpy()
        did = g["doc_id"].to_numpy()
        n = len(g)
        starts, sizes = runs(a, b)
        sh = g["sh"].to_numpy()
        oa, ob, oj, oca, ocb = [], [], [], [], []
        for st, sz in zip(starts.tolist(), sizes.tolist()):
            if sz != 2:  # a side vanished (shouldn't happen on inner)
                continue
            ia, ib = (st, st + 1) if did[st] == a[st] else (st + 1, st)
            xa = np.frombuffer(sh[ia], dtype=np.int64)
            xb = np.frombuffer(sh[ib], dtype=np.int64)
            inter = np.intersect1d(xa, xb, assume_unique=True).size
            # pure integer arithmetic (floor), // in the oracle too
            oa.append(a[st])
            ob.append(b[st])
            if containment:
                oca.append(1000 * inter // max(1, xa.size))
                ocb.append(1000 * inter // max(1, xb.size))
            else:
                oj.append(1000 * inter
                          // max(1, xa.size + xb.size - inter))
        out = {"doc_a": np.array(oa, dtype=np.int64),
               "doc_b": np.array(ob, dtype=np.int64)}
        if containment:
            out["contain_a_milli"] = np.array(oca, dtype=np.int64)
            out["contain_b_milli"] = np.array(ocb, dtype=np.int64)
        else:
            out["jaccard_milli"] = np.array(oj, dtype=np.int64)
        return pa.table(out)

    return partitioned(j, "doc_a", verify_part,
                       _verified_schema(containment),
                       rows_hint=2 * n_pairs)


# ---------------------------------------------------------------------------
# Connected components over the candidate-pair graph
# ---------------------------------------------------------------------------
#
# Two paths, split on pair volume (the mask_tiles driver/distributed
# pattern):
#   * small pair tables -> driver union-find (fast, zero shuffles);
#   * large -> distributed alternating large-star / small-star edge
#     contraction (Kiveris et al., "Connected Components in MapReduce
#     and Beyond", public algorithm): every round is ONE hash-partition
#     shuffle of the (int64, int64) edge table + a vectorized
#     per-partition kernel — no joins (Ray 2.49 chained-join traps),
#     no driver state, O(log n) rounds.  At a web-crawl dup rate the
#     pair table is O(corpus), where the driver path is an OOM.

CC_DRIVER_PAIR_LIMIT = 200_000
CC_MAX_ROUNDS = 64


def _star_kernel(large: bool):
    """One vectorized kernel per hash partition: for every node u in the
    partition (all (u, v) rows co-located), compute
    m = min(neighbors(u) | {u}) and emit the star edges —
    large-star: (m, v) for neighbors v > u;
    small-star: (m, v) for neighbors v < u plus (m, u).
    Edges are emitted canonical (a=parent < b=child) and deduped within
    the partition; cross-partition duplicates collapse next round."""
    def kernel(g: pa.Table) -> pa.Table:
        u = g["u"].to_numpy()
        v = g["v"].to_numpy()
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        keep = np.ones(len(u), dtype=bool)
        keep[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
        u, v = u[keep], v[keep]
        starts, sizes = runs(u)
        # v ascending within each run -> v[starts] is the min neighbor;
        # min(N<=(u) | {u}) == min(N(u) | {u}) (see small-star note)
        m = np.minimum(v[starts], u[starts])
        mrep = np.repeat(m, sizes)
        if large:
            sel = v > u
            child, par = v[sel], mrep[sel]
        else:
            sel = v < u
            child = np.concatenate([v[sel], u[starts]])
            par = np.concatenate([mrep[sel], m])
        ok = child != par
        return pa.table({"a": par[ok], "b": child[ok]})

    return kernel


def _cc_round(edges, large: bool, n_edges: int):
    """One star-contraction round: explode to both directions,
    hash-partition on u, run the star kernel, materialize (each round
    is consumed by the next plus the convergence check)."""
    def bidir(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy()
        b = batch["b"].to_numpy()
        return pa.table({"u": pa.array(np.concatenate([a, b])),
                         "v": pa.array(np.concatenate([b, a]))})

    bd = edges.map_batches(bidir, batch_format="pyarrow",
                           zero_copy_batch=True)
    return partitioned(bd, "u", _star_kernel(large),
                       {"a": pa.int64(), "b": pa.int64()},
                       rows_hint=max(1, 2 * n_edges)).materialize()


def _edges_fingerprint(edges) -> tuple[int, int]:
    """(row count, order-independent checksum) of an edge table —
    the convergence probe (two consecutive unchanged rounds = the
    alternation hit its star-forest fixpoint).  Only two scalars reach
    the driver."""
    def cs_part(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy() % MERSENNE
        b = batch["b"].to_numpy() % MERSENNE
        s = int(((a * SH_C1 + b * SH_C2) % MERSENNE).sum() % MERSENNE)
        return pa.table({"cs": pa.array([s], pa.int64())})

    n = edges.count()
    if n == 0:
        return (0, 0)
    cs = aggregate(edges.map_batches(cs_part, batch_format="pyarrow"), [],
                   {"cs": ("cs", "sum")}, {"cs": pa.int64()}).take_all()[0]["cs"]
    return (n, int(cs) % MERSENNE)


def distributed_components(pairs, n_pairs: int,
                           max_rounds: int = CC_MAX_ROUNDS):
    """Labels (doc_id, cluster=component min) for every node of the pair
    graph, computed by alternating large/small-star contraction.
    ``pairs`` must be materialized with doc_a < doc_b rows."""
    def canon(batch: pa.Table) -> pa.Table:
        return pa.table({"a": batch["doc_a"], "b": batch["doc_b"]})

    edges = pairs.map_batches(canon, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()
    n_edges = n_pairs
    fp = _edges_fingerprint(edges)
    streak = 0
    for rnd in range(max_rounds):
        edges = _cc_round(edges, large=(rnd % 2 == 0), n_edges=n_edges)
        nfp = _edges_fingerprint(edges)
        n_edges = nfp[0]
        streak = streak + 1 if nfp == fp else 0
        fp = nfp
        # one unchanged large-star AND one unchanged small-star round
        # back to back == star-forest fixpoint (a single unchanged round
        # is NOT sufficient: a path graph has small-star-stable
        # intermediate states that large-star still contracts)
        if streak >= 2:
            break
    else:
        raise RuntimeError(
            f"distributed_components: no fixpoint in {max_rounds} rounds")

    def as_labels(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch["b"], "cluster": batch["a"]})

    return edges.map_batches(as_labels, batch_format="pyarrow",
                             zero_copy_batch=True)


def dedup_clusters(docs_ds, pairs_ds, *,
                   driver_pair_limit: int = CC_DRIVER_PAIR_LIMIT,
                   force_distributed: bool = False):
    """Connected components over the near-dup pair graph -> one cluster
    representative (min doc_id) per document; the "drop duplicates"
    step after candidate generation.

    Below ``driver_pair_limit`` pairs, union-find runs driver-side over
    pair ids only and the cluster map is broadcast (zero shuffles of the
    corpus).  Above it (or with ``force_distributed``), components come
    from distributed star contraction and the corpus is labeled with one
    (doc_id, cluster) int-pair shuffle: docs union'd with the label
    table, then a vectorized Min aggregate per doc_id (the component
    root is the min id, so min(doc_id-as-label, any root label) is
    exactly the cluster)."""
    import ray

    pairs = pairs_ds.materialize()
    n_pairs = pairs.count()

    if (force_distributed or n_pairs > driver_pair_limit) and n_pairs > 0:

        labels = distributed_components(pairs, n_pairs)

        def self_label(batch: pa.Table) -> pa.Table:
            d = batch["doc_id"]
            return pa.table({"doc_id": d, "cluster": d})

        allmap = docs_ds.select_columns(["doc_id"]).map_batches(
            self_label, batch_format="pyarrow", zero_copy_batch=True)
        return aggregate(allmap.union(labels), "doc_id",
                         {"cluster": ("cluster", "min")},
                         {"doc_id": pa.int64(), "cluster": pa.int64()})

    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:
            parent[x], x = r, parent[x]
        return r

    for b in pairs.iter_batches(batch_size=65536,
                                batch_format="pyarrow"):
        for a, bb in zip(b["doc_a"].to_pylist(), b["doc_b"].to_pylist()):
            ra, rb = find(a), find(bb)
            if ra != rb:  # union by min id keeps the rep deterministic
                if ra < rb:
                    parent[rb] = ra
                else:
                    parent[ra] = rb
    # sorted (doc_id, root) arrays over the paired docs only
    keys = np.sort(np.fromiter(parent, dtype=np.int64, count=len(parent)))
    roots = np.fromiter((find(x) for x in keys.tolist()), dtype=np.int64,
                        count=len(keys))
    cmap_ref = ray.put((keys, roots))

    def attach_cluster(batch: pa.Table) -> pa.Table:
        keys, roots = ray.get(cmap_ref)
        ids = batch["doc_id"].to_numpy()
        out = ids.astype(np.int64)      # unpaired docs keep their own id
        pos = np.searchsorted(keys, out)
        hit = pos < len(keys)
        hit[hit] = keys[pos[hit]] == out[hit]
        out[hit] = roots[pos[hit]]
        return pa.table({"doc_id": pa.array(ids),
                         "cluster": pa.array(out)})

    return docs_ds.map_batches(attach_cluster, batch_format="pyarrow",
                               zero_copy_batch=True)


def dedup_apply(docs_ds, pairs_ds, *,
                drop_driver_limit: int = 5_000_000,
                rows_hint: int | None = None, **cluster_kw):
    """The dedup END PRODUCT: the corpus with every near-duplicate
    cluster reduced to its representative (min doc_id) — what a
    training-data pipeline actually writes out after candidate
    generation, verification and clustering.

    Only the DROP SET (non-representative cluster members, bounded by
    the duplicate count, not the corpus) leaves the cluster stage.
    Below ``drop_driver_limit`` ids it is collected and broadcast
    (``ray.put`` once, ``np.isin`` filter per batch — zero shuffles of
    the corpus); above it, a native ``left_anti`` hash join keeps
    everything distributed (web-crawl dup rates make the drop set
    O(corpus)).  ``docs_ds`` needs (doc_id, text) for clustering; all
    its other columns pass through to the output."""
    import ray

    from .relational import join_partitions_for

    clusters = dedup_clusters(
        docs_ds.select_columns(["doc_id", "text"])
        if "text" in docs_ds.schema().names else docs_ds,
        pairs_ds, **cluster_kw)

    def non_reps(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy()
        c = batch["cluster"].to_numpy()
        return pa.table({"doc_id": pa.array(d[d != c])})

    drops = clusters.map_batches(non_reps, batch_format="pyarrow",
                                 zero_copy_batch=True).materialize()
    n_drop = drops.count()
    out_cols = [c for c in docs_ds.schema().names if c != "text"]
    corpus = docs_ds.select_columns(out_cols)

    if n_drop == 0:
        return corpus
    if n_drop > drop_driver_limit:
        # size the join by the CORPUS side (rows_hint: parquet footer
        # count or caller estimate), not the drop set — the drop set is
        # the small side and under-sizes the big probe side at scale
        corpus_rows = rows_hint if rows_hint is not None else max(
            n_drop * 2, docs_ds.count())
        return corpus.join(
            drops, join_type="left_anti",
            num_partitions=join_partitions_for(corpus_rows),
            on=("doc_id",))

    ids = np.sort(shuffle.collect(drops, pa.schema(
        [("doc_id", pa.int64())]))["doc_id"].to_numpy())
    ids_ref = ray.put(ids)

    def keep_filter(batch: pa.Table) -> pa.Table:
        keep = ~np.isin(batch["doc_id"].to_numpy(), ray.get(ids_ref))
        return batch.filter(pa.array(keep))

    return corpus.map_batches(keep_filter, batch_format="pyarrow",
                              zero_copy_batch=True)


class RepetitionRatio:
    """Per-document duplicate-shingle ratio (Gopher/C4-style web-text
    quality signal): rep_milli = 1000 * (total - distinct) // total over
    token 3-grams.  Shares the SQL-mirrorable shingle family, so the
    oracle reuses the same CTE chain."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        texts = batch["text"].to_pylist()
        tot = np.empty(len(ids), dtype=np.int64)
        dis = np.empty(len(ids), dtype=np.int64)
        for i, t in enumerate(texts):
            ntok = t.count(" ") + 1
            tot[i] = max(ntok - (SHINGLE_K - 1), 1)
            dis[i] = len(_token_hashes(t))
        return pa.table({
            "doc_id": pa.array(ids),
            "n_shingles": pa.array(tot),
            "n_distinct": pa.array(dis),
            "rep_milli": pa.array(1000 * (tot - dis) // tot),
        })


class SimHasher:
    """64-bit SimHash over shingle hashes; emits 4x16-bit LSH segments.

    The 64 vote bits per shingle come from three LCG mixes of the
    31-bit shingle hash (31 + 31 + 2 bits), so every bit is exactly
    SQL-expressible; the assembled simhash is emitted as the
    two's-complement int64 bit pattern (BIGINT-comparable)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        texts = batch["text"].to_pylist()
        out = np.empty(len(ids), dtype=np.uint64)
        M = np.uint64(MERSENNE)
        shifts = np.arange(64, dtype=np.uint64)
        for i, t in enumerate(texts):
            sh = _token_hashes(t).astype(np.uint64)
            g1 = (sh * np.uint64(SIM_G1) + np.uint64(SIM_H1)) % M
            g2 = (sh * np.uint64(SIM_G2) + np.uint64(SIM_H2)) % M
            g3 = (sh * np.uint64(SIM_G3) + np.uint64(SIM_H3)) % M
            vb = g1 | (g2 << np.uint64(31)) | ((g3 & np.uint64(3))
                                               << np.uint64(62))
            bits = ((vb[:, None] >> shifts[None, :])
                    & np.uint64(1)).astype(np.int64)
            vote = (2 * bits - 1).sum(axis=0)
            out[i] = np.bitwise_or.reduce(
                (vote > 0).astype(np.uint64) << shifts)
        tbl = {"doc_id": pa.array(ids),
               "simhash": pa.array(out.view(np.int64))}
        for s in range(SIM_SEGS):
            seg = (out >> np.uint64(16 * s)) & np.uint64(0xFFFF)
            tbl[f"seg{s}"] = pa.array(seg.astype(np.int64))
        return pa.table(tbl)


def simhash_table(ds):
    return ds.map_batches(SimHasher(), batch_format="pyarrow",
                          zero_copy_batch=True)


SIM_MAX_HAMMING = 3   # with 4 segments, pigeonhole guarantees recall 1.0


# Per-LSH-bucket size cap for simhash pair generation.  A web-scale
# boilerplate cluster can put millions of near-identical simhashes in
# ONE 16-bit-segment bucket; uncapped all-pairs is O(size^2) rows from
# a single partition (minhash/embedding-LSH already guard this with
# salting).  Buckets over the cap are truncated to the cap SMALLEST
# doc_ids (deterministic, SQL-mirrorable via row_number()<=cap).
# Recall trade-off: a true pair whose members both sort beyond the cap
# in ALL four segment buckets is missed — run exact dedup first (the
# standard pipeline order), which collapses the identical-text mass
# that creates such buckets.
SIM_BUCKET_CAP = 4096


def simhash_pairs(ds, max_hamming: int = SIM_MAX_HAMMING,
                  rows_hint: int | None = None,
                  bucket_cap: int = SIM_BUCKET_CAP):
    """SimHash near-duplicate pairs: segment-LSH candidates + exact
    Hamming verification — the third dedup family (MinHash covers set
    similarity, embedding-LSH covers cosine; SimHash covers weighted
    bit-vector similarity with guaranteed recall: hamming <= 3 over 4
    x 16-bit segments pigeonholes at least one equal segment).

    Scale shape mirrors ``minhash_candidates``: only (segment-key,
    doc_id, simhash) ints cross the shuffle; pair generation +
    dedup + popcount verify are hash-partitioned vectorized kernels
    (one Arrow kernel call per partition).  Returns (doc_a, doc_b,
    hamming), doc_a < doc_b, hamming <= max_hamming."""
    sims = simhash_table(ds)

    def seg_rows(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        h = batch["simhash"].to_numpy()
        keys, docs, hs = [], [], []
        for s in range(SIM_SEGS):
            seg = batch[f"seg{s}"].to_numpy()
            keys.append(seg + (s << 16))
            docs.append(ids)
            hs.append(h)
        return pa.table({
            "gid": pa.array(np.concatenate(keys)),
            "doc_id": pa.array(np.concatenate(docs)),
            "h": pa.array(np.concatenate(hs))})

    segs = sims.map_batches(seg_rows, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=None)
    # rows_hint: pass the corpus row count (parquet footer) to skip the
    # counting pass over the doc pipeline
    n_rows = SIM_SEGS * (rows_hint if rows_hint is not None
                         else ds.count())

    def bucket_pairs_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("gid", "ascending"), ("doc_id", "ascending")])
        gi = g["gid"].to_numpy()
        ids = g["doc_id"].to_numpy()
        hs = g["h"].to_numpy()
        starts, sizes = runs(gi)
        oa, ob, ha, hb = [], [], [], []
        n_truncated = 0
        for st, sz in zip(starts.tolist(), sizes.tolist()):
            if sz < 2:
                continue
            if sz > bucket_cap:
                # rows are sorted by (gid, doc_id): the first
                # bucket_cap rows of the run ARE the smallest doc_ids
                n_truncated += 1
                sz = bucket_cap
            ia, ib = np.triu_indices(sz, k=1)
            oa.append(ids[st:st + sz][ia])
            ob.append(ids[st:st + sz][ib])
            ha.append(hs[st:st + sz][ia])
            hb.append(hs[st:st + sz][ib])
        if n_truncated:
            print(f"simhash_pairs: truncated {n_truncated} LSH "
                  f"bucket(s) over {bucket_cap} members to the cap "
                  "smallest doc_ids (recall guard; see SIM_BUCKET_CAP)")
        if not oa:
            return g.slice(0, 0)
        return pa.table({"doc_a": np.concatenate(oa),
                         "doc_b": np.concatenate(ob),
                         "ha": np.concatenate(ha),
                         "hb": np.concatenate(hb)})

    pairs = partitioned(segs, "gid", bucket_pairs_part,
                        {"doc_a": pa.int64(), "doc_b": pa.int64(),
                         "ha": pa.int64(), "hb": pa.int64()},
                        rows_hint=n_rows)

    def verify_part(g: pa.Table) -> pa.Table:
        # a pair's duplicates carry the same two hashes
        g = distinct_rows(g)
        x = np.bitwise_xor(g["ha"].to_numpy().view(np.uint64),
                           g["hb"].to_numpy().view(np.uint64))
        ham = np.unpackbits(x.view(np.uint8)).reshape(-1, 64) \
            .sum(axis=1).astype(np.int64)
        return g.append_column("hamming", pa.array(ham)) \
            .filter(ham <= max_hamming)

    return partitioned(pairs, "doc_a", verify_part,
                       {"doc_a": pa.int64(), "doc_b": pa.int64(),
                        "hamming": pa.int64()},
                       rows_hint=n_rows)


BLOOM_M = 1 << 16   # filter bits
BLOOM_K = 4         # probes per key


def bloom_probe(ds, m: int = BLOOM_M, k: int = BLOOM_K):
    """Bloom-filter membership probe — the incremental-dedup sketch: a
    filter is built over the "seen" half of the corpus (doc_id % 2 ==
    0, the deterministic stand-in for a previously-ingested crawl) and
    every new doc (doc_id % 2 == 1) is probed against it.

    Double hashing (Kirsch–Mitzenmacher, public construction):
    pos_i = (h1 + i*h2) % m with h1/h2 from disjoint md5 halves.
    Scale shape: per-batch partial DISTINCT positions (bounded by m,
    never rows) -> one small global distinct -> the m-bit mask is
    broadcast once (8 KB at m=2^16) -> probing is batch-local with no
    shuffle.  Returns (doc_id, maybe_seen 0/1) for the probe half."""
    import ray

    def hashes(batch: pa.Table):
        hx = [hashlib.md5(t.encode()).hexdigest()
              for t in batch["text"].to_pylist()]
        h1 = np.fromiter((int(x[0:15], 16) % m for x in hx),
                         dtype=np.int64, count=len(hx))
        h2 = np.fromiter((int(x[16:31], 16) % m for x in hx),
                         dtype=np.int64, count=len(hx))
        return h1, h2

    def build_partial(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy()
        sel = d % 2 == 0
        if not sel.any():
            return pa.table({"p": pa.array([], pa.int64())})
        h1, h2 = hashes(batch.filter(pa.array(sel)))
        pos = (h1[:, None] + np.arange(k)[None, :] * h2[:, None]) % m
        return pa.table({"p": pa.array(np.unique(pos))})

    bits = aggregate(
        ds.map_batches(build_partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        "p", {"c": ("p", "count")},
        {"p": pa.int64(), "c": pa.int64()})
    mask = np.zeros(m, dtype=bool)
    for b in bits.iter_batches(batch_size=65536, batch_format="pyarrow"):
        mask[b["p"].to_numpy()] = True
    mref = ray.put(mask)

    def probe(batch: pa.Table) -> pa.Table:
        bm = ray.get(mref)
        d = batch["doc_id"].to_numpy()
        sel = d % 2 == 1
        if not sel.any():
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "maybe_seen": pa.array([], pa.int64())})
        sub = batch.filter(pa.array(sel))
        h1, h2 = hashes(sub)
        pos = (h1[:, None] + np.arange(k)[None, :] * h2[:, None]) % m
        seen = bm[pos].all(axis=1).astype(np.int64)
        return pa.table({"doc_id": sub["doc_id"],
                         "maybe_seen": pa.array(seen)})

    return ds.map_batches(probe, batch_format="pyarrow",
                          zero_copy_batch=True)


HLL_BUCKETS_LOG2 = 8   # 256 registers
HLL_BUCKETS = 1 << HLL_BUCKETS_LOG2


def hll_registers(ds):
    """HyperLogLog register table over the corpus's token stream —
    the cardinality-sketch build of a distinct-count pipeline (the
    registers ARE the mergeable sketch; the float estimate is a
    driver-side epilogue and deliberately not part of the exact
    contract).

    Register math (integer-exact, same in SQL): token hash h = md5
    60-bit int; bucket = h % 256; rho = 1 + floor(log2(lowbit(h //
    256))) (lowest-set-bit rank of the remaining bits; log2 of an
    exact power of two is exact in double), rho = 53 for a zero
    suffix.  Shuffle is register-bounded: per-batch partial MAX per
    bucket -> one 256-row global Max."""

    B = HLL_BUCKETS

    def cols(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(
            pc.split_pattern(batch["text"], " "))
        uniq = pc.unique(toks).to_pylist()
        if not uniq:
            return pa.table({"bucket": pa.array([], pa.int64()),
                             "rho": pa.array([], pa.int64())})
        h = np.fromiter(
            (int(hashlib.md5(t.encode()).hexdigest()[:15], 16)
             for t in uniq), dtype=np.int64, count=len(uniq))
        bucket = h % B
        rest = h // B
        low = rest & -rest
        # log2 of an exact power of 2 is exact; zero suffix -> 53
        rho = np.where(rest == 0, np.int64(53),
                       np.floor(np.log2(
                           np.maximum(low, 1).astype(np.float64)))
                       .astype(np.int64) + 1)
        t = pa.table({"bucket": pa.array(bucket),
                      "rho": pa.array(rho)})
        return t

    return aggregate(
        ds.map_batches(cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        "bucket", {"rho": ("rho", "max")},
        {"bucket": pa.int64(), "rho": pa.int64()})


def hll_by_source(ds):
    """GROUPED HyperLogLog: one register table per source — the
    per-domain distinct-token sketch of a crawl-monitoring pipeline
    (mergeable across shards by (source, bucket) MAX, same contract as
    the global ``hll_registers``).  Register math is identical (md5
    60-bit hash, bucket = h % HLL_BUCKETS, rho = lowest-set-bit rank);
    the shuffle is bounded by sources x HLL_BUCKETS rows per batch,
    never the token stream."""

    B = HLL_BUCKETS

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch["text"], " ")
        flat = pc.list_flatten(toks)
        src = pc.take(batch["source"], pc.list_parent_indices(toks))
        pairs = pa.table({"source": src, "tok": flat}) \
            .group_by(["source", "tok"]).aggregate([])
        if len(pairs) == 0:
            return pa.table({"source": pa.array([], pa.string()),
                             "bucket": pa.array([], pa.int64()),
                             "rho": pa.array([], pa.int64())})
        # hash each DISTINCT token once, then map over the pair table
        uniq = pc.unique(pairs["tok"]).to_pylist()
        hmap = {t: int(hashlib.md5(t.encode()).hexdigest()[:15], 16)
                for t in uniq}
        h = np.fromiter((hmap[t] for t in pairs["tok"].to_pylist()),
                        dtype=np.int64, count=len(pairs))
        bucket = h % B
        rest = h // B
        low = rest & -rest
        rho = np.where(rest == 0, np.int64(53),
                       np.floor(np.log2(
                           np.maximum(low, 1).astype(np.float64)))
                       .astype(np.int64) + 1)
        t = pa.table({"source": pairs["source"],
                      "bucket": pa.array(bucket),
                      "rho": pa.array(rho)})
        return t

    return aggregate(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["source", "bucket"], {"rho": ("rho", "max")},
        {"source": pa.string(), "bucket": pa.int64(), "rho": pa.int64()})


KMV_K = 128                  # bottom-k sketch width


def kmv_distinct(ds, k: int = KMV_K):
    """Per-source KMV (k-minimum-values / bottom-k) distinct-shingle
    sketch (Bar-Yossef et al. RANDOM'02 — public algorithm): keep the
    k smallest distinct 31-bit shingle hashes per source; the k-th
    smallest value estimates distinct count as ``(k-1) * M // h_k``
    (hashes uniform on [0, M)).  The mergeable complement to the
    HLL registers: a bottom-k sketch also supports set
    intersection/union estimates across shards, which registers do
    not.

    Scale shape: each batch emits at most ``sources x k`` partial rows
    (its per-source bottom-k of DISTINCT hashes — a superset-free
    cover of the global bottom-k, since any of the k global minima is
    a batch-local minimum in the batch that holds it); the final
    combine is a per-source unique + select, grouped on the (low
    cardinality) source key.  The token stream itself never shuffles.

    Returns (source, kth_hash, est_distinct); ``kth_hash`` is -1 and
    the estimate exact when a source holds fewer than k distinct
    shingles (the union of partials is then the complete set)."""
    import pandas as pd

    M = MERSENNE

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        src = batch["source"].to_pylist()
        codes, uniq = pd.factorize(np.asarray(src, dtype=object),
                                   sort=False)
        out_s, out_h = [], []
        for si, s in enumerate(uniq):
            hs = [_token_hashes(t) for t, c in zip(texts, codes.tolist())
                  if c == si]
            h = np.unique(np.concatenate(hs))[:k]  # unique is sorted
            out_s.append(np.full(len(h), s, dtype=object))
            out_h.append(h)
        if not out_s:
            return pa.table({"source": pa.array([], pa.string()),
                             "h": pa.array([], pa.int64())})
        return pa.table({
            "source": pa.array(np.concatenate(out_s), pa.string()),
            "h": pa.array(np.concatenate(out_h))})

    parts = ds.select_columns(["source", "text"]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True)

    def combine(g: pa.Table) -> pa.Table:
        h = np.unique(g["h"].to_numpy())
        if len(h) >= k:
            kth = int(h[k - 1])
            est = (k - 1) * M // kth
        else:
            kth = -1
            est = len(h)
        return pa.table({"source": g["source"].slice(0, 1),
                         "kth_hash": pa.array([kth], pa.int64()),
                         "est_distinct": pa.array([est], pa.int64())})

    return parts.groupby("source").map_groups(combine,
                                              batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Exact set-similarity self-join (AllPairs / PPJoin prefix filtering)
# ---------------------------------------------------------------------------

PPJOIN_TAU_MILLI = 500       # default Jaccard threshold (milli-units)
PPJOIN_BUCKET_CAP = 4096     # per-prefix-token candidate-bucket cap


def ppjoin_pairs(docs_ds, tau_milli: int = PPJOIN_TAU_MILLI,
                 bucket_cap: int = PPJOIN_BUCKET_CAP):
    """EXACT Jaccard set-similarity self-join via prefix filtering
    (AllPairs/PPJoin family, Bayardo et al. WWW'07 / Xiao et al.
    ICDE'08 — public algorithms): every document pair whose shingle
    Jaccard is >= tau is returned with its exact (floor) milli-Jaccard
    — no probabilistic recall gap, unlike the MinHash path.

    Pipeline (all distributed, text never leaves its batch):

    1. shingle explode: (doc_id, sh, sz) rows via the shared
       ``_token_hashes`` 3-gram family (same sets the SQL oracle
       builds, so the verify arithmetic mirrors bit-for-bit);
    2. global document frequency per shingle: groupby count (an
       all-to-all on the short hash key only);
    3. prefix selection: each doc keeps the first
       ``p = sz - ceil(tau*sz) + 1`` of its shingles in the global
       (df asc, sh asc) total order — the classic prefix-filter bound:
       two sets with J >= tau MUST share a prefix token, so recall is
       1.0 by construction.  Rare-first ordering makes prefix buckets
       small even when the corpus shares a huge head vocabulary;
    4. candidate pairs per prefix token (hash-partitioned vectorized
       kernel, one call per partition) with the length filter
       ``1000*|x| >= tau_milli*|y|`` (J <= |x|/|y| for |x| <= |y|);
       degenerate buckets (mass-duplicated docs) are truncated to the
       ``bucket_cap`` smallest (sz, doc_id) rows — the SIM_BUCKET_CAP
       recall guard; run exact dedup first to collapse such mass;
    5. distinct pairs (same pair found via several prefix tokens) then
       exact verification through :func:`jaccard_pairs` (distributed
       shingle join, integer milli-Jaccard), filtered at the
       threshold.  ``floor(1000*J) >= tau_milli  <=>  J >= tau`` for
       integer thresholds, so the filter is exact.

    Scale shape: the shingle explode is re-executed by the df pass and
    the join pass instead of pinning an O(corpus * shingles) table in
    the object store (the knn_in_cells doctrine); the only shuffles
    carry (int, int) rows.  Returns (doc_a, doc_b, jaccard_milli),
    doc_a < doc_b.
    """

    from .relational import join_partitions_for

    docs = docs_ds.select_columns(["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        shs = [_token_hashes(t) for t in batch["text"].to_pylist()]
        lens = np.array([len(s) for s in shs], dtype=np.int64)
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, lens)),
            "sh": pa.array(np.concatenate(shs)
                           if shs else np.empty(0, np.int64)),
            "sz": pa.array(np.repeat(lens, lens)),
        })

    def ex():
        return docs.map_batches(explode, batch_format="pyarrow",
                                zero_copy_batch=True)

    n_sh = ex().count()
    if n_sh == 0:
        return _empty_verified()

    df = aggregate(
        ex(),
        "sh", {"df": ("sh", "count")},
        {"sh": pa.int64(), "df": pa.int64()})
    jp = join_partitions_for(n_sh)
    joined = ex().join(df, join_type="inner", num_partitions=jp,
                       on=("sh",))

    def prefix_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("doc_id", "ascending"), ("df", "ascending"),
                       ("sh", "ascending")])
        ids = g["doc_id"].to_numpy()
        sz = g["sz"].to_numpy()
        n = len(g)
        new = np.ones(n, dtype=bool)
        new[1:] = ids[1:] != ids[:-1]
        starts = np.flatnonzero(new)
        run_id = np.cumsum(new) - 1
        rank = np.arange(n) - starts[run_id]
        p = sz - ((tau_milli * sz + 999) // 1000) + 1
        keep = rank < p
        return g.filter(keep)

    prefixes = partitioned(joined, "doc_id", prefix_part,
                           {"sh": pa.int64(), "doc_id": pa.int64(),
                            "sz": pa.int64()},
                           rows_hint=n_sh)

    def pair_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("sh", "ascending"), ("sz", "ascending"),
                       ("doc_id", "ascending")])
        shv = g["sh"].to_numpy()
        ids = g["doc_id"].to_numpy()
        sz = g["sz"].to_numpy()
        n = len(g)
        starts, sizes = runs(shv)
        oa, ob = [], []
        n_trunc = 0
        for st, szr in zip(starts.tolist(), sizes.tolist()):
            if szr < 2:
                continue
            if szr > bucket_cap:
                n_trunc += 1
                szr = bucket_cap
            ia, ib = np.triu_indices(szr, k=1)
            la, lb = sz[st:st + szr][ia], sz[st:st + szr][ib]
            ok = 1000 * la >= tau_milli * lb  # la <= lb by sort order
            a = ids[st:st + szr][ia][ok]
            b = ids[st:st + szr][ib][ok]
            swap = a > b
            oa.append(np.where(swap, b, a))
            ob.append(np.where(swap, a, b))
        if n_trunc:
            print(f"ppjoin_pairs: truncated {n_trunc} prefix "
                  f"bucket(s) over {bucket_cap} members (recall "
                  "guard; run exact dedup first)")
        if not oa:
            return g.slice(0, 0)
        return pa.table({"doc_a": np.concatenate(oa),
                         "doc_b": np.concatenate(ob)})

    raw = partitioned(prefixes, "sh", pair_part, PAIR_SCHEMA,
                      rows_hint=n_sh)
    cand = partitioned(raw, "doc_a", distinct_rows, PAIR_SCHEMA,
                       rows_hint=n_sh)

    ver = jaccard_pairs(cand, docs_ds)

    def thresh(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.greater_equal(batch["jaccard_milli"], tau_milli))

    return ver.map_batches(thresh, batch_format="pyarrow",
                           zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Quality-based cluster representative ("keep the best copy")
# ---------------------------------------------------------------------------

# winner packing: n_chars in the high bits, bit-inverted doc_id in the
# low 43 (so Max() picks max n_chars, ties -> MIN doc_id).  Bounds are
# asserted per batch (the chunk_dedup int-overflow guard).
_BEST_ID_BITS = 43
_BEST_ID_MASK = (1 << _BEST_ID_BITS) - 1


def dedup_best(docs_ds, pairs_ds, *, rows_hint: int | None = None,
               **cluster_kw):
    """Near-dup cluster representative by QUALITY: for every cluster of
    the candidate-pair graph keep the member with the most characters
    (ties -> min doc_id) — the "keep the best copy" policy real
    training-data pipelines use instead of min-id (a boilerplate-heavy
    short copy can carry the min id).

    Composition: :func:`dedup_clusters` (driver/distributed CC switch)
    labels every doc; a vectorized per-batch character count joins the
    labels on one int-pair hash join; the winner is a map-side partial
    MAX over a packed (n_chars << 43 | ~doc_id) key — associative, so
    hot clusters never need salting — plus a member Count.  Returns
    (cluster, kept_doc, kept_n_chars, n_members)."""

    from .relational import join_partitions_for

    clusters = dedup_clusters(docs_ds, pairs_ds, **cluster_kw)

    def chars(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_chars": pc.cast(pc.utf8_length(batch["text"]), pa.int64())})

    q = docs_ds.select_columns(["doc_id", "text"]).map_batches(
        chars, batch_format="pyarrow", zero_copy_batch=True)

    n = rows_hint if rows_hint is not None else docs_ds.count()
    j = q.join(clusters, join_type="inner",
               num_partitions=join_partitions_for(n), on=("doc_id",))

    def pack(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        nc = batch["n_chars"].to_numpy()
        if len(ids):
            assert int(nc.max()) < (1 << 20), "n_chars >= 2^20"
            assert int(ids.max()) < (1 << _BEST_ID_BITS), "doc_id >= 2^43"
        packed = (nc << _BEST_ID_BITS) | (_BEST_ID_MASK - ids)
        return pa.table({"cluster": batch["cluster"],
                         "packed": pa.array(packed)})

    agg = aggregate(
        j.map_batches(pack, batch_format="pyarrow",
                      zero_copy_batch=True, batch_size=None),
        "cluster", {"packed": ("packed", "max"),
                    "n_members": ("cluster", "count")},
        {"cluster": pa.int64(), "packed": pa.int64(), "n_members": pa.int64()})

    def decode(batch: pa.Table) -> pa.Table:
        packed = batch["packed"].to_numpy()
        return pa.table({
            "cluster": batch["cluster"],
            "kept_doc": pa.array(_BEST_ID_MASK - (packed & _BEST_ID_MASK)),
            "kept_n_chars": pa.array(packed >> _BEST_ID_BITS),
            "n_members": pc.cast(batch["n_members"], pa.int64())})

    return agg.map_batches(decode, batch_format="pyarrow",
                           zero_copy_batch=True)


# ---------------------------------------------------------------------------
# MinHash sketch calibration: estimated vs exact Jaccard per pair
# ---------------------------------------------------------------------------

def minhash_estimate(pairs_ds, docs_ds, rows_hint: int | None = None):
    """Sketch calibration table: for every candidate pair, the
    MinHash-ESTIMATED Jaccard (equal signature components / NUM_PERM)
    next to the EXACT shingle Jaccard — the measurement a pipeline
    operator uses to tune bands/rows against a recall/precision
    target before running at full scale.

    Composition (no new shuffle machinery): the exact side is
    :func:`jaccard_pairs` verbatim; the estimate side joins the pair
    rows to the corpus signature table (the same MinHasher task stage
    LSH uses) and counts equal components per pair; the two
    small pair-keyed tables then join on (doc_a, doc_b) via one
    packed-key hash-partitioned kernel.  Returns
    (doc_a, doc_b, est_milli, jaccard_milli)."""
    from .relational import join_partitions_for

    pairs = pairs_ds.materialize()
    n_pairs = pairs.count()
    if n_pairs == 0:
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "est_milli": pa.array([], pa.int64()),
            "jaccard_milli": pa.array([], pa.int64())}))

    exact = jaccard_pairs(pairs, docs_ds)

    sigs = docs_ds.select_columns(["doc_id", "text"]).map_batches(
        MinHasher(), batch_format="pyarrow", zero_copy_batch=True)

    def sig_bytes(batch: pa.Table) -> pa.Table:
        s = batch["sig"]
        flat = s.combine_chunks().flatten() if isinstance(
            s, pa.ChunkedArray) else s.flatten()
        arr = flat.to_numpy(zero_copy_only=False).reshape(-1, NUM_PERM)
        return pa.table({
            "doc_id": batch["doc_id"],
            "sigb": pa.array([r.tobytes() for r in arr], pa.binary())})

    sigb = sigs.map_batches(sig_bytes, batch_format="pyarrow",
                            zero_copy_batch=True)

    def explode(batch: pa.Table) -> pa.Table:
        a = batch["doc_a"].to_numpy()
        b = batch["doc_b"].to_numpy()
        return pa.table({
            "doc_id": pa.array(np.concatenate([a, b])),
            "doc_a": pa.array(np.concatenate([a, a])),
            "doc_b": pa.array(np.concatenate([b, b]))})

    pairrows = pairs.map_batches(explode, batch_format="pyarrow",
                                 zero_copy_batch=True)
    n = rows_hint if rows_hint is not None else 2 * n_pairs
    j = pairrows.join(sigb, join_type="inner",
                      num_partitions=join_partitions_for(max(n, 2 * n_pairs)),
                      on=("doc_id",))

    def est_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("doc_a", "ascending"), ("doc_b", "ascending")])
        a = g["doc_a"].to_numpy()
        b = g["doc_b"].to_numpy()
        n_ = len(g)
        starts, sizes = runs(a, b)
        sb = g["sigb"].to_numpy()
        oa, ob, oe = [], [], []
        for st, sz in zip(starts.tolist(), sizes.tolist()):
            if sz != 2:
                continue
            xa = np.frombuffer(sb[st], dtype=np.int64)
            xb = np.frombuffer(sb[st + 1], dtype=np.int64)
            oa.append(a[st])
            ob.append(b[st])
            oe.append(1000 * int((xa == xb).sum()) // NUM_PERM)
        return pa.table({
            "doc_a": np.array(oa, dtype=np.int64),
            "doc_b": np.array(ob, dtype=np.int64),
            "est_milli": np.array(oe, dtype=np.int64)})

    est = partitioned(j, "doc_a", est_part,
                      {"doc_a": pa.int64(), "doc_b": pa.int64(),
                       "est_milli": pa.int64()},
                      rows_hint=2 * n_pairs)

    # final attach: both sides are pair-keyed and pair-table-sized;
    # one two-column hash join (no packed key: bench-scale shard ids
    # exceed 2^31, so a (a << 31 | b) pack would overflow)
    merged = est.join(exact, join_type="inner",
                      num_partitions=join_partitions_for(n_pairs),
                      on=("doc_a", "doc_b"))

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_a": batch["doc_a"], "doc_b": batch["doc_b"],
            "est_milli": batch["est_milli"],
            "jaccard_milli": batch["jaccard_milli"]})

    return merged.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Cross-source novelty (incremental-crawl ingestion decision)
# ---------------------------------------------------------------------------

def novelty_docs(docs_ds, pairs_ds, tau_milli: int = 500,
                 rows_hint: int | None = None):
    """Novelty filter for incremental ingestion: documents of the
    NEWEST source (max ``source`` value — the deterministic stand-in
    for "this week's crawl") that have NO verified near-duplicate
    (exact shingle Jaccard >= tau) in any OLDER source.  This is the
    decision an incremental pipeline makes before admitting a new
    crawl slice: near-dups of already-ingested content are dropped,
    genuinely novel pages pass.

    Scale shape: verification is :func:`jaccard_pairs` (distributed);
    sources attach to the pair table with ONE hash join of exploded
    pair rows against the (doc_id, source) projection; the cross-source
    screen is a hash-partitioned duo kernel; the final subtraction is
    a ``left_anti`` join of the new-source slice against the (pair-
    bounded) cross-dup id set.  Returns (doc_id, lang)."""
    from .relational import join_partitions_for

    new_source = aggregate(docs_ds, [], {"s": ("source", "max")},
                           {"s": pa.string()}).take_all()[0]["s"]

    ver = jaccard_pairs(pairs_ds, docs_ds)

    def thresh(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.greater_equal(batch["jaccard_milli"], tau_milli))

    ver = ver.map_batches(thresh, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()
    n_ver = ver.count()

    def newdocs():
        def pick(batch: pa.Table) -> pa.Table:
            t = batch.filter(pc.equal(batch["source"], new_source))
            return pa.table({"doc_id": t["doc_id"], "lang": t["lang"]})

        return docs_ds.select_columns(
            ["doc_id", "lang", "source"]).map_batches(
                pick, batch_format="pyarrow", zero_copy_batch=True)

    if n_ver == 0:
        return newdocs()

    def explode(batch: pa.Table) -> pa.Table:
        a = batch["doc_a"].to_numpy()
        b = batch["doc_b"].to_numpy()
        return pa.table({
            "doc_id": pa.array(np.concatenate([a, b])),
            "doc_a": pa.array(np.concatenate([a, a])),
            "doc_b": pa.array(np.concatenate([b, b]))})

    pairrows = ver.map_batches(explode, batch_format="pyarrow",
                               zero_copy_batch=True)
    src = docs_ds.select_columns(["doc_id", "source"])
    n = rows_hint if rows_hint is not None else docs_ds.count()
    j = pairrows.join(src, join_type="inner",
                      num_partitions=join_partitions_for(n),
                      on=("doc_id",))

    def cross_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("doc_a", "ascending"), ("doc_b", "ascending"),
                       ("doc_id", "ascending")])
        a = g["doc_a"].to_numpy()
        b = g["doc_b"].to_numpy()
        d = g["doc_id"].to_numpy()
        s = g["source"].to_numpy()
        n_ = len(g)
        starts, _ = runs(a, b)
        out = []
        for st in starts.tolist():
            if st + 1 >= n_ or a[st] != a[st + 1] or b[st] != b[st + 1]:
                continue  # a side vanished (shouldn't happen on inner)
            # rows sorted by doc_id within the duo: map side -> source
            sa = s[st] if d[st] == a[st] else s[st + 1]
            sb = s[st + 1] if d[st + 1] == b[st] else s[st]
            if sa == sb:
                continue
            if sa == new_source:
                out.append(a[st])
            if sb == new_source:
                out.append(b[st])
        return pa.table({"doc_id": np.array(out, dtype=np.int64)})

    drops = partitioned(j, "doc_a", cross_part, {"doc_id": pa.int64()},
                        rows_hint=2 * n_ver).materialize()
    if drops.count() == 0:
        return newdocs()
    return newdocs().join(drops, join_type="left_anti",
                          num_partitions=join_partitions_for(n),
                          on=("doc_id",))
