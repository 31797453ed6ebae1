"""Sequence, window and frontier analytics over the web-table schema.

The reference engine (NRCan/geo-inference) stops at raster->vector
conversion; this module extends the engine with the classic
warehouse/feature-pipeline operators a web-scale corpus needs that no
other module covers yet: interval union (merged-session coverage),
sequence trigram mining, NTILE bucketing, CUBE grouping sets,
per-dimension embedding moments, a distributed Pareto skyline, an
integer-exact EWMA fold, multi-source BFS hop counts over the
``graph.py`` bipartite graph, and SymSpell-style deletion-neighborhood
edit-distance pairs.

Every operator follows the house rules (see ``relational.py``): the
result is integer-exact (or a deterministic sequential fold) so a
DuckDB oracle reproduces it bit-for-bit; partition counts derive from
row hints via ``partitions_for``; per-row Python never touches a
corpus-scale stage (vocabulary- or group-count-bounded loops are
called out where they exist).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .relational import _parquet_rows, join_partitions_for
from .shuffle import aggregate, collect, partitioned, runs
from .sources import read_table

# interval_union: half-open activity window opened by every event
IU_WINDOW_US = 1_800_000_000          # 30 min in epoch-us

# bfs_hops: seed predicate + fixed round budget (exact-oracle contract)
BFS_SEED_MAX_SUPPKEY = 2              # seeds = suppliers 0, 1, 2
BFS_ROUNDS = 4
BFS_BROADCAST_CAP = 5_000_000         # nodes; dedup_apply's convention

# typo_pairs: vocabulary bounds + degenerate-bucket guard
TYPO_MIN_LEN = 3
TYPO_MAX_LEN = 12
TYPO_MAX_DIST = 2
TYPO_BUCKET_CAP = 4_096               # words sharing one deletion key


# ---------------------------------------------------------------------------
# interval_union — merged-session coverage per user
# ---------------------------------------------------------------------------

def interval_union(sf_dir: str):
    """Per-user union length of the 30-minute activity intervals
    opened by each event — the classic interval-merge ("islands")
    operator, the time-coverage complement of ``sessionize``.

    Scale shape: ONE hash-partition exchange on user_id, then a single
    vectorized kernel per partition (sort + island starts against the
    previous end + ``np.add.reduceat`` over island boundaries).  No
    window shuffle, no per-user Python.
    """

    path = f"{sf_dir}/events.parquet"
    ev = read_table(path, ["user_id", "ts"])

    def islands_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("user_id", "ascending"), ("ts", "ascending")])
        u = g["user_id"].to_numpy()
        s = pc.cast(g["ts"], pa.int64()).to_numpy()
        # running max of interval end within each user run: every
        # interval has the same width and starts are sorted within the
        # run, so the ends already ascend
        cm = s + IU_WINDOW_US
        new_user = np.ones(len(g), dtype=bool)
        new_user[1:] = u[1:] != u[:-1]
        pmax = np.empty_like(cm)
        pmax[0] = np.iinfo(np.int64).min
        pmax[1:] = cm[:-1]
        start = new_user | (s > pmax)
        starts = np.flatnonzero(start)
        # island end = cummax at the island's LAST row
        ends = np.empty(len(starts), dtype=np.int64)
        ends[:-1] = cm[starts[1:] - 1]
        ends[-1] = cm[-1]
        lengths = ends - s[starts]
        iu = u[starts]
        ustart = np.ones(len(starts), dtype=bool)
        ustart[1:] = iu[1:] != iu[:-1]
        ub = np.flatnonzero(ustart)
        covered = np.add.reduceat(lengths, ub)
        counts = np.diff(np.append(ub, len(starts)))
        return pa.table({
            "user_id": iu[ub],
            "n_sessions": counts.astype(np.int64),
            "covered_us": covered.astype(np.int64)})

    return partitioned(ev, "user_id", islands_part,
                       {"user_id": pa.int64(), "n_sessions": pa.int64(),
                        "covered_us": pa.int64()},
                       rows_hint=_parquet_rows(path))


# ---------------------------------------------------------------------------
# trigram_paths — 3-event sequence mining
# ---------------------------------------------------------------------------

def trigram_paths(sf_dir: str):
    """Counts of consecutive event-type TRIPLES per user ordered by
    (ts, event_id) — the sequence-mining big sibling of the bigram
    ``transitions`` operator.

    Scale shape: one user_id hash partition; the kernel is a sort +
    two vectorized shifts + a per-partition Arrow group_by PARTIAL, so
    the final trigram shuffle carries at most
    (partitions x |types|^3) rows, never the event count.
    """

    path = f"{sf_dir}/events.parquet"
    ev = read_table(path, ["user_id", "ts", "event_id", "event_type"])

    def tri_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        u = g["user_id"].to_numpy()
        t = g["event_type"]
        m = (u[:-2] == u[1:-1]) & (u[1:-1] == u[2:])
        part = pa.table({"t1": t[:-2].filter(m), "t2": t[1:-1].filter(m),
                         "t3": t[2:].filter(m)})
        return part.group_by(["t1", "t2", "t3"]).aggregate(
            [([], "count_all")]).rename_columns(["t1", "t2", "t3", "cnt"])

    partials = partitioned(ev, "user_id", tri_part,
                           {"t1": pa.string(), "t2": pa.string(),
                            "t3": pa.string(), "cnt": pa.int64()},
                           rows_hint=_parquet_rows(path))
    return aggregate(
        partials, ["t1", "t2", "t3"], {"cnt": ("cnt", "sum")},
        {"t1": pa.string(), "t2": pa.string(), "t3": pa.string(),
         "cnt": pa.int64()})


# ---------------------------------------------------------------------------
# ntile_buckets — NTILE(4) quartile assignment per language
# ---------------------------------------------------------------------------

NTILE_N = 4


def ntile_buckets(sf_dir: str):
    """Per-language NTILE(4) over (n_chars, doc_id) with per-tile
    count/min/max — the ranked-bucketing window operator.

    Scale shape: per-GROUP sort via ``groupby(lang).map_groups`` —
    valid because language cardinality is bounded (dozens), stated as
    the partitioning assumption.  At petabyte scale with a single
    dominant language the exact-NTILE contract itself becomes the
    bottleneck; the scale path is quantile-approximate bucketing
    (``length_quantiles``), kept as a separate operator because the
    two contracts differ.
    """

    docs = read_table(f"{sf_dir}/documents.parquet",
                      ["lang", "n_chars", "doc_id"])

    def tiles(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n_chars", "doc_id"], kind="stable")
        n = len(g)
        base, rem = divmod(n, NTILE_N)
        sizes = np.full(NTILE_N, base, dtype=np.int64)
        sizes[:rem] += 1
        tile = np.repeat(np.arange(1, NTILE_N + 1), sizes)
        nc = g["n_chars"].to_numpy()
        out = pd.DataFrame({"tile": tile, "n_chars": nc}) \
            .groupby("tile", as_index=False) \
            .agg(cnt=("n_chars", "size"), min_chars=("n_chars", "min"),
                 max_chars=("n_chars", "max"))
        out.insert(0, "lang", g["lang"].iloc[0])
        out["cnt"] = out["cnt"].astype(np.int64)
        return out

    return docs.groupby("lang").map_groups(tiles, batch_format="pandas")


# ---------------------------------------------------------------------------
# cube_counts — GROUP BY CUBE(lang, source)
# ---------------------------------------------------------------------------

def cube_counts(sf_dir: str):
    """All four grouping sets of CUBE(lang, source) over documents:
    (lang, source), (lang), (source), () — counts and n_chars sums,
    with the sentinel string '(all)' marking rolled-up dimensions
    (COALESCEd identically in the mirror; NULL markers render
    differently across duckdb versions and hash-diverge driver-side).
    Real lang/source values are non-null and never '(all)'.

    Scale shape: ONE corpus pass builds the (lang, source) base
    aggregate via per-batch partials + a tiny groupby; the other three
    grouping sets re-aggregate the BASE (|langs| x |sources| rows),
    never the corpus, as three more tiny distributed aggregations.
    """

    docs = read_table(f"{sf_dir}/documents.parquet",
                      ["lang", "source", "n_chars"])

    base = aggregate(
        docs, ["lang", "source"],
        {"cnt": ("n_chars", "count"), "chars": ("n_chars", "sum")},
        {"lang": pa.string(), "source": pa.string(), "cnt": pa.int64(),
         "chars": pa.int64()})

    def with_nulls(lang_col: bool, source_col: bool):
        def fix(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            allv = pa.array(["(all)"] * n, pa.string())
            return pa.table({
                "lang": (pc.cast(batch["lang"], pa.string())
                         if lang_col else allv),
                "source": (pc.cast(batch["source"], pa.string())
                           if source_col else allv),
                "cnt": pc.cast(batch["cnt"], pa.int64()),
                "chars": pc.cast(batch["chars"], pa.int64())})
        return fix

    sums = {"cnt": ("cnt", "sum"), "chars": ("chars", "sum")}
    by_lang = aggregate(
        base, "lang", sums,
        {"lang": pa.string(), "cnt": pa.int64(), "chars": pa.int64()}) \
        .map_batches(with_nulls(True, False), batch_format="pyarrow")
    by_source = aggregate(
        base, "source", sums,
        {"source": pa.string(), "cnt": pa.int64(), "chars": pa.int64()}) \
        .map_batches(with_nulls(False, True), batch_format="pyarrow")

    def all_row(batch: pa.Table) -> pa.Table:
        allv = pa.array(["(all)"] * batch.num_rows, pa.string())
        return pa.table({"lang": allv, "source": allv,
                         "cnt": batch["cnt"], "chars": batch["chars"]})

    total_row = aggregate(
        base, [], sums, {"cnt": pa.int64(), "chars": pa.int64()}) \
        .map_batches(all_row, batch_format="pyarrow")
    fine = base.map_batches(with_nulls(True, True), batch_format="pyarrow")
    return fine.union(by_lang).union(by_source).union(total_row)


# ---------------------------------------------------------------------------
# dim_variance — per-dimension embedding moments
# ---------------------------------------------------------------------------

def dim_variance(sf_dir: str):
    """Per-dimension count / sum / sum-of-squares of the embedding
    matrix in fixed-point millis (floor(1000*v) per element, the
    centroid_by_label convention) — the list-column explode +
    re-aggregate shape, feeding feature whitening at training time.

    Scale shape: each batch reduces to AT MOST ``dim`` partial rows
    (vectorized column sums over the stacked float32 matrix), so the
    one shuffle carries (batches x dim) rows regardless of corpus
    size; variance = (s2 - s1^2/n)/n stays with the caller so the
    result is integer-exact.
    """

    emb = read_table(f"{sf_dir}/embeddings.parquet", ["embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        col = batch["embedding"].combine_chunks()
        n = len(col)
        if n == 0:
            return pa.table({"dim": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "s1": pa.array([], pa.int64()),
                             "s2": pa.array([], pa.int64())})
        flat = col.flatten().to_numpy(zero_copy_only=False)
        dim = len(flat) // n
        q = np.floor(1000.0 * flat.astype(np.float64)).astype(np.int64) \
            .reshape(n, dim)
        return pa.table({
            "dim": pa.array(np.arange(dim, dtype=np.int64)),
            "n": pa.array(np.full(dim, n, dtype=np.int64)),
            "s1": pa.array(q.sum(axis=0)),
            "s2": pa.array((q * q).sum(axis=0))})

    return aggregate(
        emb.map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True),
        "dim", {"n": ("n", "sum"), "s1": ("s1", "sum"), "s2": ("s2", "sum")},
        {"dim": pa.int64(), "n": pa.int64(), "s1": pa.int64(),
         "s2": pa.int64()})


# ---------------------------------------------------------------------------
# skyline_docs — distributed Pareto frontier
# ---------------------------------------------------------------------------

def _skyline_kernel(batch: pa.Table) -> pa.Table:
    """2-D maximal-vector scan: keep rows not dominated on
    (n_words MAX, n_chars MIN) — the token-density frontier.  Sort
    desc on both optimization directions, then a row survives iff its
    second key equals its first-key-group max AND strictly exceeds the
    running max over all strictly-better first-key groups (equal
    points are mutually non-dominating and all kept)."""
    c = batch["n_words"].to_numpy()
    w = -batch["n_chars"].to_numpy()
    if len(c) == 0:
        return batch
    order = np.lexsort((-w, -c))
    cs, ws = c[order], w[order]
    new_grp = np.ones(len(cs), dtype=bool)
    new_grp[1:] = cs[1:] != cs[:-1]
    gidx = np.cumsum(new_grp) - 1
    gmax_w = ws[np.flatnonzero(new_grp)]        # per-group max (sorted)
    prior = np.empty_like(gmax_w)
    prior[0] = np.iinfo(np.int64).min
    np.maximum.accumulate(gmax_w[:-1], out=prior[1:])
    keep_sorted = (ws == gmax_w[gidx]) & (ws > prior[gidx])
    keep = np.zeros(len(c), dtype=bool)
    keep[order[keep_sorted]] = True
    return batch.filter(pa.array(keep))


def skyline_docs(sf_dir: str):
    """Pareto frontier of documents maximizing (n_chars, n_words):
    rows no other document dominates (>= on both, > on one) — the
    multi-criteria data-selection operator.

    Scale shape: the classic two-level distributed skyline — a local
    vectorized skyline per block (global frontier points always
    survive their local pass), then ONE final pass over the union of
    the tiny local frontiers (repartition(1), no driver collect).  A
    2-D frontier is at most one point per distinct n_chars value;
    pathological all-frontier inputs degrade the final pass, which is
    the documented assumption.
    """

    docs = read_table(f"{sf_dir}/documents.parquet",
                      ["doc_id", "text", "n_chars"])

    def metrics(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch["text"], " ")
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_chars": pc.cast(batch["n_chars"], pa.int64()),
            "n_words": pc.cast(pc.list_value_length(toks), pa.int64())})

    local = docs.map_batches(metrics, batch_format="pyarrow",
                             zero_copy_batch=True) \
        .map_batches(_skyline_kernel, batch_format="pyarrow")
    return local.repartition(1).map_batches(
        _skyline_kernel, batch_format="pyarrow", batch_size=None)


# ---------------------------------------------------------------------------
# ewma_daily — integer-exact exponential smoothing
# ---------------------------------------------------------------------------

def ewma_daily(sf_dir: str):
    """Per-event-type EWMA over the daily count series (observed days,
    alpha = 1/2) in fixed-point: e_1 = 1000*c_1,
    e_t = (1000*c_t + e_{t-1}) // 2 — all-integer, so the sequential
    fold is order-deterministic and a recursive-CTE oracle matches
    bit-for-bit.

    Scale shape: the corpus pass reduces to (type, day) partial counts
    map-side; the fold itself runs per type over the ~days-long
    aggregate (group-count-bounded Python, never corpus rows).
    """

    ev = read_table(f"{sf_dir}/events.parquet", ["event_type", "ts"])

    def day_cols(batch: pa.Table) -> pa.Table:
        # epoch-day int64 (the except_days/retention convention — no
        # date32<->datetime64 dtype skew against the oracle)
        day = pc.divide(pc.cast(batch["ts"], pa.int64()),
                        86_400_000_000)
        return pa.table({"event_type": batch["event_type"], "day": day})

    daily = aggregate(
        ev.map_batches(day_cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["event_type", "day"], {"c": ("event_type", "count")},
        {"event_type": pa.string(), "day": pa.int64(), "c": pa.int64()})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("day", kind="stable")
        c = g["c"].to_numpy()
        e = np.empty(len(c), dtype=np.int64)
        prev = 0
        for i, ci in enumerate(c):       # days-long loop, not corpus
            prev = ci * 1000 if i == 0 else (ci * 1000 + prev) // 2
            e[i] = prev
        return pd.DataFrame({"event_type": g["event_type"].to_numpy(),
                             "day": g["day"].to_numpy(), "ewma_fp": e})

    return daily.groupby("event_type").map_groups(
        fold, batch_format="pandas")


# ---------------------------------------------------------------------------
# cusum_shift — integer-exact change-point scan over daily counts
# ---------------------------------------------------------------------------

def cusum_shift(sf_dir: str):
    """Per-event-type change-point detection over the daily count
    series — the drift monitor of a streaming ingest pipeline.  With
    observed days d_1 < ... < d_n and counts c_i, the scaled CUSUM
    statistic at k is ``stat_k = |n * S_k - k * S_n|`` (S = prefix
    sum) — the classic mean-shift scan with the division cleared, so
    every term is int64 and the argmax is bit-deterministic.  Reports
    per type the max statistic, the EARLIEST day attaining it, and the
    series length.

    Scale shape: the corpus pass reduces map-side to (type, day)
    partial counts (``ewma_daily``'s epoch-day convention); the scan
    itself is one vectorized kernel per type over the ~days-long
    aggregate.  Partitioning assumption: event-type cardinality is
    bounded (same contract as ewma_daily/ntile_buckets).
    """

    ev = read_table(f"{sf_dir}/events.parquet", ["event_type", "ts"])

    def day_cols(batch: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(batch["ts"], pa.int64()),
                        86_400_000_000)
        return pa.table({"event_type": batch["event_type"], "day": day})

    daily = aggregate(
        ev.map_batches(day_cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["event_type", "day"], {"c": ("event_type", "count")},
        {"event_type": pa.string(), "day": pa.int64(), "c": pa.int64()})

    def scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("day", kind="stable")
        c = g["c"].to_numpy()
        n = np.int64(len(c))
        s = np.cumsum(c)
        k = np.arange(1, n + 1, dtype=np.int64)
        stat = np.abs(n * s - k * s[-1])
        i = int(np.argmax(stat))        # first max == earliest day
        return pd.DataFrame({
            "event_type": [g["event_type"].iloc[0]],
            "shift_day": [np.int64(g["day"].to_numpy()[i])],
            "shift_stat": [np.int64(stat[i])],
            "n_days": [n]})

    return daily.groupby("event_type").map_groups(
        scan, batch_format="pandas")


# ---------------------------------------------------------------------------
# theilsen_slope — robust daily-count trend per event type
# ---------------------------------------------------------------------------

def theilsen_slope(sf_dir: str):
    """Per-event-type Theil–Sen trend over the daily count series —
    the robust (median-of-pairwise-slopes) alternative to least
    squares, immune to count spikes.  Each pair of observed days
    (i < j) contributes ``floor(1000 * ((c_j - c_i) / (d_j - d_i)))``
    (one IEEE division then floor — bit-deterministic), and the
    reported statistic is the LOWER median (the ceil(m/2)-th smallest)
    of those integer milli-slopes, avoiding the engine-specific
    even-count interpolation of a true median.  Types with a single
    observed day have no pairs and are absent (both sides).

    Scale shape: the corpus pass reduces map-side to (type, day)
    partials; the O(days^2) pair scan runs per type over the
    ~days-long aggregate (days are calendar-bounded — 365/year — so
    pairs are ~66K/type/year, a vectorized triu kernel, never corpus
    rows).  Same bounded-type-cardinality contract as ewma_daily."""

    ev = read_table(f"{sf_dir}/events.parquet", ["event_type", "ts"])

    def day_cols(batch: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(batch["ts"], pa.int64()),
                        86_400_000_000)
        return pa.table({"event_type": batch["event_type"], "day": day})

    daily = aggregate(
        ev.map_batches(day_cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["event_type", "day"], {"c": ("event_type", "count")},
        {"event_type": pa.string(), "day": pa.int64(), "c": pa.int64()})

    def scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("day", kind="stable")
        d = g["day"].to_numpy()
        c = g["c"].to_numpy()
        if len(d) < 2:
            return pd.DataFrame({"event_type": pd.Series([], dtype=object),
                                 "slope_milli": pd.Series([], dtype=np.int64),
                                 "n_pairs": pd.Series([], dtype=np.int64)})
        ia, ib = np.triu_indices(len(d), k=1)
        sm = np.floor(1000.0 * ((c[ib] - c[ia]).astype(np.float64)
                                / (d[ib] - d[ia]).astype(np.float64))) \
            .astype(np.int64)
        sm.sort()
        m = len(sm)
        return pd.DataFrame({
            "event_type": [g["event_type"].iloc[0]],
            "slope_milli": [np.int64(sm[(m + 1) // 2 - 1])],
            "n_pairs": [np.int64(m)]})

    return daily.groupby("event_type").map_groups(
        scan, batch_format="pandas")


# ---------------------------------------------------------------------------
# fano_factor — burstiness of per-type daily counts
# ---------------------------------------------------------------------------

def fano_factor(sf_dir: str):
    """Per-event-type burstiness (Fano factor, variance-to-mean of
    the daily count series) in exact micro units:
    ``fano_micro = (1_000_000 * (n*s2 - s1^2)) // (n * s1)`` with
    n observed days, s1 = sum c, s2 = sum c^2 — the numerator is the
    population variance scaled by n^2, non-negative, so integer floor
    division is engine-agnostic.  ~1 = Poisson arrivals, >1 bursty,
    <1 regular.

    Scale shape: one corpus pass to (type, day) map-side partials,
    one groupby to exact daily counts, then a SECOND map-side partial
    (c, c^2, 1) fold and a |types|-row final aggregate — no per-group
    Python, no sort."""

    ev = read_table(f"{sf_dir}/events.parquet", ["event_type", "ts"])

    def day_cols(batch: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(batch["ts"], pa.int64()),
                        86_400_000_000)
        return pa.table({"event_type": batch["event_type"], "day": day})

    daily = aggregate(
        ev.map_batches(day_cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["event_type", "day"], {"c": ("event_type", "count")},
        {"event_type": pa.string(), "day": pa.int64(), "c": pa.int64()})

    def mom_cols(batch: pa.Table) -> pa.Table:
        c = batch["c"].to_numpy()
        return pa.table({"event_type": batch["event_type"],
                         "s1": pa.array(c), "s2": pa.array(c * c),
                         "n": pa.array(np.ones(len(c), dtype=np.int64))})

    mom = aggregate(
        daily.map_batches(mom_cols, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None),
        "event_type", {"s1": ("s1", "sum"),
                       "s2": ("s2", "sum"),
                       "n": ("n", "sum")},
        {"event_type": pa.string(), "s1": pa.int64(), "s2": pa.int64(),
         "n": pa.int64()})

    def fano(batch: pa.Table) -> pa.Table:
        s1 = batch["s1"].to_numpy()
        s2 = batch["s2"].to_numpy()
        n = batch["n"].to_numpy()
        f = (1_000_000 * (n * s2 - s1 * s1)) // (n * s1)
        return pa.table({"event_type": batch["event_type"],
                         "n_days": pa.array(n),
                         "fano_micro": pa.array(f.astype(np.int64))})

    return mom.map_batches(fano, batch_format="pyarrow",
                           zero_copy_batch=True)


# ---------------------------------------------------------------------------
# peak_concurrency — max concurrent fixed-length sessions per type
# ---------------------------------------------------------------------------

CONC_WINDOW_US = 1_800_000_000     # 30-min session length


def peak_concurrency(sf_dir: str, window_us: int = CONC_WINDOW_US):
    """Per-event-type PEAK CONCURRENCY — the max number of
    simultaneously-open fixed-length sessions (every event opens a
    ``window_us`` interval), the capacity-planning statistic of a
    streaming backend.  Because all intervals share one length, the
    step function's maximum occurs at an event start t with value
    ``#{ts in (t - W, t]}``; reported per type with the EARLIEST
    attaining timestamp.

    Scale shape: one slim (type, t) pass scatters each event to its
    own W-bucket and the NEXT one (a window ending in bucket b starts
    in b-1 or b, so two copies give every kernel its full context —
    the ghost-row trick, one 2x int-pair shuffle); a per-(type,
    bucket) vectorized searchsorted kernel evaluates its OWN bucket's
    candidate starts only (no double counting), and a |types x
    buckets|-bounded final groupby folds (max, earliest t).  No global
    sort, no driver scan."""

    ev = read_table(f"{sf_dir}/events.parquet", ["event_type", "ts"])

    def scatter(batch: pa.Table) -> pa.Table:
        t = pc.cast(batch["ts"], pa.int64()).to_numpy()
        b = t // window_us
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        return pa.table({
            "event_type": pa.array(np.concatenate([et, et])),
            "bucket": pa.array(np.concatenate([b, b + 1])),
            "t": pa.array(np.concatenate([t, t])),
            "own": pa.array(np.concatenate([
                np.ones(len(t), dtype=bool),
                np.zeros(len(t), dtype=bool)]))})

    slim = ev.map_batches(scatter, batch_format="pyarrow",
                          zero_copy_batch=True)

    def kernel(g: pa.Table) -> pa.Table:
        t = g["t"].to_numpy()
        all_t = np.sort(t)
        own_t = np.unique(t[g["own"].to_numpy(zero_copy_only=False)])
        if not len(own_t):
            return pa.table({"event_type": pa.array([], pa.string()),
                             "conc": pa.array([], pa.int64()),
                             "at_us": pa.array([], pa.int64())})
        hi = np.searchsorted(all_t, own_t, side="right")
        lo = np.searchsorted(all_t, own_t - window_us, side="right")
        conc = hi - lo
        i = int(np.argmax(conc))          # first max == earliest start
        return pa.table({"event_type": g["event_type"].slice(0, 1),
                         "conc": pa.array([conc[i]], pa.int64()),
                         "at_us": pa.array([own_t[i]], pa.int64())})

    per_bucket = slim.groupby(["event_type", "bucket"]).map_groups(
        kernel, batch_format="pyarrow")

    def fold_partial(batch: pa.Table) -> pa.Table:
        b = batch.sort_by([("event_type", "ascending"),
                           ("conc", "descending"), ("at_us", "ascending")])
        starts, _ = runs(b["event_type"].to_numpy(zero_copy_only=False))
        return b.take(starts)

    return per_bucket.map_batches(fold_partial, batch_format="pyarrow") \
        .repartition(1) \
        .map_batches(fold_partial, batch_format="pyarrow",
                     batch_size=None)

def acf_lag1(sf_dir: str):
    """Per-event-type lag-1 autocorrelation components of the daily
    count series — the "is yesterday predictive of today"
    seasonality/momentum screen.  Emits the one-row-per-type INTEGER
    component table (n_days, s1, s2, n_adj, sxy) with sxy =
    sum of c_t * c_{t+1} over CONSECUTIVE observed days (day delta
    exactly 1 — gaps contribute no adjacent pair); r1 is derivable
    downstream as (n*sxy - s1*s1-ish moments) without any float
    reduction crossing the engine/oracle boundary.

    Scale shape: ewma_daily's — corpus pass to (type, day) map-side
    partials, one groupby, then a vectorized per-type kernel over the
    ~days-long aggregate (bounded type cardinality)."""

    ev = read_table(f"{sf_dir}/events.parquet", ["event_type", "ts"])

    def day_cols(batch: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(batch["ts"], pa.int64()),
                        86_400_000_000)
        return pa.table({"event_type": batch["event_type"], "day": day})

    daily = aggregate(
        ev.map_batches(day_cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["event_type", "day"], {"c": ("event_type", "count")},
        {"event_type": pa.string(), "day": pa.int64(), "c": pa.int64()})

    def scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("day", kind="stable")
        d = g["day"].to_numpy()
        c = g["c"].to_numpy()
        adj = (d[1:] - d[:-1]) == 1 if len(d) > 1 \
            else np.zeros(0, dtype=bool)
        return pd.DataFrame({
            "event_type": [g["event_type"].iloc[0]],
            "n_days": [np.int64(len(c))],
            "s1": [np.int64(c.sum())],
            "s2": [np.int64((c * c).sum())],
            "n_adj": [np.int64(int(adj.sum()))],
            "sxy": [np.int64(int((c[:-1][adj] * c[1:][adj]).sum())
                             if len(c) > 1 else 0)]})

    return daily.groupby("event_type").map_groups(
        scan, batch_format="pandas")


# ---------------------------------------------------------------------------
# gini_by_source — exact integer Gini of document lengths
# ---------------------------------------------------------------------------

def gini_by_source(sf_dir: str):
    """Per-source Gini coefficient of document lengths (micro units,
    exact) — the inequality profile of a crawl: 0 = every page the
    same length, ->1 = a few giant pages dominate.  Uses the sorted
    formula ``G = sum_i (2i - n - 1) x_(i) / (n * sum x)`` whose
    numerator is tie-order invariant (equal x share a contiguous rank
    run), evaluated entirely in arbitrary-precision Python ints from
    the per-source LENGTH HISTOGRAM, then floor-divided:
    ``gini_micro = (1_000_000 * num) // den`` — no float anywhere.

    Scale shape: the corpus pass reduces map-side to (source, n_chars)
    partial counts; the kernel runs per source over the
    histogram-sized aggregate (distinct lengths x sources, never
    docs).  For a run of count c ending at cumulative rank C (start
    s = C - c), sum of (2i - n - 1) over the run collapses to
    C(C+1) - s(s+1) - c(n+1)."""

    docs = read_table(f"{sf_dir}/documents.parquet", ["source", "n_chars"])

    hist = aggregate(
        docs.map_batches(lambda b: pa.table({"source": b["source"],
                                             "x": b["n_chars"]}),
                         batch_format="pyarrow", zero_copy_batch=True,
                         batch_size=None),
        ["source", "x"], {"c": ("x", "count")},
        {"source": pa.string(), "x": pa.int64(), "c": pa.int64()})

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("x", kind="stable")
        x = [int(v) for v in g["x"].to_numpy()]
        c = [int(v) for v in g["c"].to_numpy()]
        n = sum(c)
        sumx = sum(ci * xi for ci, xi in zip(c, x))
        num, C = 0, 0
        for ci, xi in zip(c, x):
            s = C
            C += ci
            num += xi * (C * (C + 1) - s * (s + 1) - ci * (n + 1))
        den = n * sumx
        gini = (1_000_000 * num) // den if den else 0
        return pd.DataFrame({"source": [g["source"].iloc[0]],
                             "n_docs": [np.int64(n)],
                             "gini_micro": [np.int64(gini)]})

    return hist.groupby("source").map_groups(
        kernel, batch_format="pandas")


# ---------------------------------------------------------------------------
# bfs_hops — multi-source BFS hop counts over the bipartite graph
# ---------------------------------------------------------------------------

def bfs_hops(sf_dir: str, *, rounds: int = BFS_ROUNDS,
             broadcast_cap: int = BFS_BROADCAST_CAP):
    """Minimum hop distance from the seed suppliers (s_suppkey <=
    BFS_SEED_MAX_SUPPKEY, node id 2k+1) to every node reached within
    ``rounds`` hops of the part<->supplier graph (``graph.py``'s node
    encoding) — the frontier-expansion primitive under crawl-frontier
    scheduling and graph-distance features.

    Scale shape: the edge table is built once (per-batch pre-dedup +
    one distinct shuffle, spilled to parquet scratch) and SCANNED once
    per round; frontiers and the visited set are node-scale, not
    edge-scale.  Under ``broadcast_cap`` estimated nodes the frontier
    and visited sets ride ``ray.put`` + sorted ``searchsorted`` probes
    (zero joins; the dedup_apply convention); above it every round is
    two node-scale hash joins (inner frontier-expand + left_anti
    novelty filter) sized by ``join_partitions_for``, and the visited
    set is re-unioned, never collected."""

    from .graph import _edge_spill

    spill, n_edges = _edge_spill(sf_dir, None)

    def edges():
        return read_table(spill)

    sup = read_table(f"{sf_dir}/supplier.parquet", ["s_suppkey"])

    def seed_rows(batch: pa.Table) -> pa.Table:
        k = batch["s_suppkey"].to_numpy().astype(np.int64)
        k = k[k <= BFS_SEED_MAX_SUPPKEY]
        return pa.table({"node": pa.array(k * 2 + 1),
                         "hops": pa.array(
                             np.zeros(len(k), dtype=np.int64))})

    seeds = sup.map_batches(seed_rows, batch_format="pyarrow",
                            zero_copy_batch=True)

    # node universe is bounded by 2x the (deduped) edge count
    if 2 * n_edges <= broadcast_cap:
        return _bfs_broadcast(edges, seeds, rounds)
    return _bfs_join(edges, seeds, rounds, n_edges)


def _bfs_broadcast(edges, seeds, rounds: int):
    """Broadcast-frontier BFS: per round ONE distributed edge scan
    (sorted-array membership probe) + a distinct-dst groupby; only
    node-scale arrays ever reach the driver (documented cap)."""
    import ray
    import ray.data as rd

    seed_np = np.unique(collect(seeds, pa.schema(
        [("node", pa.int64())]))["node"].to_numpy())
    visited = seed_np
    levels = [(seed_np, 0)]
    frontier = seed_np
    for d in range(1, rounds + 1):
        if len(frontier) == 0:
            break
        f_ref = ray.put(frontier)           # sorted

        def probe(batch: pa.Table, _f=f_ref) -> pa.Table:
            f = _f if isinstance(_f, np.ndarray) else ray.get(_f)
            src = batch["src"].to_numpy()
            idx = np.searchsorted(f, src)
            idx[idx == len(f)] = 0
            hit = f[idx] == src
            dst = np.unique(batch["dst"].to_numpy()[hit])
            return pa.table({"dst": pa.array(dst)})

        dsts = aggregate(
            edges().map_batches(probe, batch_format="pyarrow",
                                zero_copy_batch=True),
            "dst", {}, {"dst": pa.int64()})
        reached = np.sort(collect(dsts, pa.schema(
            [("dst", pa.int64())]))["dst"].to_numpy())
        new = np.setdiff1d(reached, visited, assume_unique=True)
        if len(new) == 0:
            break
        levels.append((new, d))
        visited = np.sort(np.concatenate([visited, new]))
        frontier = new
    nodes = np.concatenate([n for n, _ in levels])
    hops = np.concatenate([np.full(len(n), h, dtype=np.int64)
                           for n, h in levels])
    return rd.from_arrow(pa.table({"node": pa.array(nodes),
                                   "hops": pa.array(hops)}))


def _bfs_join(edges, seeds, rounds: int, n_edges: int):
    """Join-path BFS for node sets beyond the broadcast cap: frontier
    expansion is an inner hash join on the edge table, novelty is a
    left_anti join against the visited set; both node-scale tables
    stay distributed."""
    np_join = join_partitions_for(n_edges)
    visited = seeds.materialize()
    frontier = visited
    for d in range(1, rounds + 1):
        expanded = edges().join(
            frontier.select_columns(["node"]), join_type="inner",
            num_partitions=np_join, on=("src",), right_on=("node",))
        dsts = aggregate(expanded, "dst", {}, {"dst": pa.int64()})
        new = dsts.join(visited.select_columns(["node"]),
                        join_type="left_anti",
                        num_partitions=np_join,
                        on=("dst",), right_on=("node",))
        new = new.map_batches(
            lambda b, _d=d: pa.table({
                "node": b["dst"],
                "hops": pa.array(np.full(b.num_rows, _d,
                                         dtype=np.int64))}),
            batch_format="pyarrow").materialize()
        if new.count() == 0:
            break
        visited = visited.union(new).materialize()
        frontier = new
    return visited


# ---------------------------------------------------------------------------
# typo_pairs — SymSpell-style deletion-neighborhood edit-distance pairs
# ---------------------------------------------------------------------------

def _del_variants(words: np.ndarray, length: int):
    """All distinct 1- and 2-deletion variants of equal-length ASCII
    words, vectorized: the (n, L) uint8 code matrix is column-sliced
    per deletion position (L + C(L,2) <= 78 slices for L <= 12, each a
    whole-array numpy op — no per-word Python)."""
    mat = words.astype(f"U{length}").view(np.uint32) \
        .reshape(len(words), length).astype(np.uint8)
    keys, owners = [], []

    def emit(m: np.ndarray):
        k = np.ascontiguousarray(m).view(f"S{m.shape[1]}").ravel()
        keys.append(k.astype(object))
        owners.append(np.arange(len(words)))

    for i in range(length):
        emit(np.delete(mat, i, axis=1))
    if length >= 2:
        for i in range(length):
            for j in range(i + 1, length):
                emit(np.delete(mat, (i, j), axis=1))
    kk = np.concatenate(keys)
    oo = np.concatenate(owners)
    return kk, oo


def _pair_dp_distance(w1: np.ndarray, w2: np.ndarray,
                      max_len: int = TYPO_MAX_LEN) -> np.ndarray:
    """Exact Levenshtein distance for a BATCH of short ASCII word
    pairs: one (max_len x max_len) grid of whole-batch numpy ops (<=
    144 vectorized steps regardless of pair count), reading each
    pair's answer at its own (len1, len2) cell."""
    n = len(w1)
    A = w1.astype(f"U{max_len}").view(np.uint32) \
        .reshape(n, max_len).astype(np.uint8)
    B = w2.astype(f"U{max_len}").view(np.uint32) \
        .reshape(n, max_len).astype(np.uint8)
    la = (A != 0).sum(axis=1).astype(np.int32)
    lb = (B != 0).sum(axis=1).astype(np.int32)
    cur = np.tile(np.arange(max_len + 1, dtype=np.int32), (n, 1))
    ans = np.where(la == 0, lb, 0).astype(np.int32)
    rows = np.arange(n)
    for i in range(1, max_len + 1):
        nxt = np.empty_like(cur)
        nxt[:, 0] = i
        for j in range(1, max_len + 1):
            sub = cur[:, j - 1] + (A[:, i - 1] != B[:, j - 1])
            nxt[:, j] = np.minimum(np.minimum(cur[:, j] + 1,
                                              nxt[:, j - 1] + 1), sub)
        cur = nxt
        m = la == i
        if m.any():
            ans[m] = cur[rows[m], lb[m]]
    return ans.astype(np.int64)


def typo_pairs(sf_dir: str, *, bucket_cap: int = TYPO_BUCKET_CAP):
    """Vocabulary word pairs within Levenshtein distance 2 (typo /
    variant candidates), via the SymSpell deletion-neighborhood join:
    if lev(a, b) = d <= 2, deleting the d unmatched characters from
    each side yields a COMMON variant with <= 2 deletions per side, so
    every true pair shares a deletion key (recall 1.0); candidates are
    then verified with an exact vectorized DP.  Output (w1 < w2, dist
    in {1, 2}), ASCII words of TYPO_MIN_LEN..TYPO_MAX_LEN chars.

    Scale shape: everything beyond the first corpus pass is
    VOCABULARY-scale.  One distinct shuffle builds the vocab; variant
    generation emits <= 79 rows per word map-side; pair generation is
    the hash-partitioned bucket kernel (simhash_pairs pattern) with
    the same deterministic bucket cap; the DP verify is a whole-batch
    numpy grid, never per-pair Python."""

    docs = read_table(f"{sf_dir}/documents.parquet", ["text"])

    def vocab_partial(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern(batch["text"], " "))
        nchars = pc.utf8_length(toks)
        nbytes = pc.binary_length(pc.cast(toks, pa.binary()))
        keep = pc.and_(pc.and_(
            pc.greater_equal(nchars, TYPO_MIN_LEN),
            pc.less_equal(nchars, TYPO_MAX_LEN)),
            pc.equal(nchars, nbytes))         # ASCII only
        return pa.table({"w": toks.filter(keep)})

    # vocabulary-scale materialization: the distinct-word table is
    # consumed twice (variant pass + row-hint count)
    vocab = aggregate(
        docs.map_batches(vocab_partial, batch_format="pyarrow",
                         zero_copy_batch=True, batch_size=None),
        "w", {}, {"w": pa.string()}).materialize()
    n_vocab = vocab.count()

    def variants(batch: pa.Table) -> pa.Table:
        words = np.asarray(batch["w"].to_pylist(), dtype=object)
        if len(words) == 0:
            return pa.table({"key": pa.array([], pa.string()),
                             "kh": pa.array([], pa.int64()),
                             "w": pa.array([], pa.string())})
        lens = np.char.str_len(words.astype("U"))
        out_k, out_w = [], []
        for length in np.unique(lens):
            grp = words[lens == length]
            out_k.append(grp.copy())          # depth-0 identity rows
            out_w.append(grp)
            kk, oo = _del_variants(grp, int(length))
            out_k.append(np.char.decode(
                kk.astype("S"), "ascii").astype(object))
            out_w.append(grp[oo])
        key = np.concatenate(out_k)
        ww = np.concatenate(out_w)
        t = pa.table({"key": pa.array(key, pa.string()),
                      "w": pa.array(ww, pa.string())})
        # per-word dedupe ("aaab" deletions collide) keeps the pair
        # kernel's buckets duplicate-free
        t = t.group_by(["key", "w"]).aggregate([([], "count_all")]) \
            .select(["key", "w"])
        if t.num_rows == 0:
            return pa.table({"key": pa.array([], pa.string()),
                             "kh": pa.array([], pa.int64()),
                             "w": pa.array([], pa.string())})
        kh = np.frombuffer(
            "\x00".join(t["key"].to_pylist()).encode(), np.uint8)
        # vectorized FNV-1a over the NUL-joined key bytes
        h = _fnv_per_segment(kh)
        return pa.table({"key": t["key"], "kh": pa.array(h),
                         "w": t["w"]})

    var = vocab.map_batches(variants, batch_format="pyarrow")

    def bucket_pairs_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("key", "ascending"), ("w", "ascending")])
        ks = g["key"].to_numpy()
        ws = g["w"].to_numpy()
        starts, sizes = runs(ks)
        oa, ob = [], []
        n_trunc = 0
        for st, sz in zip(starts.tolist(), sizes.tolist()):
            if sz < 2:
                continue
            if sz > bucket_cap:
                n_trunc += 1          # cap smallest words (sorted)
                sz = bucket_cap
            ia, ib = np.triu_indices(sz, k=1)
            oa.append(ws[st:st + sz][ia])
            ob.append(ws[st:st + sz][ib])
        if n_trunc:
            print(f"typo_pairs: truncated {n_trunc} deletion "
                  f"bucket(s) over {bucket_cap} members "
                  "(recall guard; see TYPO_BUCKET_CAP)")
        if not oa:
            return g.slice(0, 0)
        return pa.table({"w1": pa.array(np.concatenate(oa), pa.string()),
                         "w2": pa.array(np.concatenate(ob), pa.string())})

    cand = partitioned(var, "kh", bucket_pairs_part,
                       {"w1": pa.string(), "w2": pa.string()},
                       rows_hint=79 * max(n_vocab, 1))
    distinct = aggregate(
        cand,
        ["w1", "w2"], {},
        {"w1": pa.string(), "w2": pa.string()})

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"w1": pa.array([], pa.string()),
                             "w2": pa.array([], pa.string()),
                             "dist": pa.array([], pa.int64())})
        w1 = np.asarray(batch["w1"].to_pylist(), dtype=object)
        w2 = np.asarray(batch["w2"].to_pylist(), dtype=object)
        d = _pair_dp_distance(w1, w2)
        keep = (d >= 1) & (d <= TYPO_MAX_DIST)
        return pa.table({"w1": pa.array(w1[keep], pa.string()),
                         "w2": pa.array(w2[keep], pa.string()),
                         "dist": pa.array(d[keep])})

    return distinct.map_batches(verify, batch_format="pyarrow")


def _fnv_per_segment(joined: np.ndarray) -> np.ndarray:
    """int64 FNV-1a hash of each NUL-separated segment of a uint8
    stream — vectorized per-chunk fold (segment-count-bounded loop
    over the LONGEST segment length, not a per-string Python loop)."""
    seps = np.flatnonzero(joined == 0)
    starts = np.concatenate([[0], seps + 1])
    ends = np.concatenate([seps, [len(joined)]])
    n = len(starts)
    h = np.full(n, 0xCBF29CE484222325, dtype=np.uint64)
    prime = np.uint64(0x100000001B3)
    max_len = int((ends - starts).max()) if n else 0
    for off in range(max_len):
        idx = starts + off
        m = idx < ends
        hv = h[m]
        h[m] = (hv ^ joined[idx[m]].astype(np.uint64)) * prime
    return (h >> np.uint64(1)).astype(np.int64)


# ---------------------------------------------------------------------------
# lang_concat — ordered string aggregation per group
# ---------------------------------------------------------------------------

def lang_concat(sf_dir: str):
    """Per-source distinct-language roster: count + the sorted
    comma-joined language list (the string_agg shape — deterministic
    because the join order is the sort order).

    Scale shape: per-batch (source, lang) distinct partials collapse
    the corpus before ONE tiny two-key groupby; the roster kernel then
    runs per source over the |sources| x |langs| distinct table
    (group-count-bounded, never corpus rows)."""

    docs = read_table(f"{sf_dir}/documents.parquet", ["source", "lang"])

    pairs = aggregate(docs, ["source", "lang"], {},
                      {"source": pa.string(), "lang": pa.string()})

    def roster(g: pd.DataFrame) -> pd.DataFrame:
        langs = sorted(g["lang"].tolist())
        return pd.DataFrame({
            "source": [g["source"].iloc[0]],
            "n_langs": np.array([len(langs)], dtype=np.int64),
            "langs_csv": [",".join(langs)]})

    return pairs.groupby("source").map_groups(roster,
                                              batch_format="pandas")


# ---------------------------------------------------------------------------
# hierarchy_rollup — prefix-trie subtree aggregation
# ---------------------------------------------------------------------------

HIER_LEVELS = 7       # j = 0..6: part keys < 10^6 all roll up to node 0


def hierarchy_rollup(sf_dir: str):
    """Subtree revenue totals over the implicit decimal prefix trie of
    part keys (node k at level j covers every part whose key has k as
    its base-10 prefix k = key // 10^j) — the hierarchical-rollup
    operator WITHOUT recursion: each line explodes to its
    ``HIER_LEVELS`` ancestor nodes map-side, pre-aggregated per batch,
    then ONE groupby.  Lineage rollups (site -> section -> domain) are
    this exact shape.

    Scale shape: the explode multiplies rows by a CONSTANT (7), and
    the per-batch partial collapses them to distinct-ancestor counts
    before the shuffle; no iterative joins, no recursion depth tied to
    data size."""

    from .relational import _rev_cents

    path = f"{sf_dir}/lineitem.parquet"
    li = read_table(path, ["l_partkey", "l_extendedprice", "l_discount"])

    def explode_cols(batch: pa.Table) -> pa.Table:
        k = batch["l_partkey"].to_numpy().astype(np.int64)
        rev = _rev_cents(batch["l_extendedprice"],
                         batch["l_discount"]).to_numpy()
        # distinct ancestors only: once the prefix chain reaches 0 it
        # would repeat 0 for every remaining level — keep level j > 0
        # only while the PARENT level was still nonzero, so the root
        # counts each line exactly once
        node_parts, rev_parts = [k], [rev]
        for j in range(1, HIER_LEVELS):
            live = (k // 10 ** (j - 1)) > 0
            node_parts.append(k[live] // 10 ** j)
            rev_parts.append(rev[live])
        nodes = np.concatenate(node_parts)
        revs = np.concatenate(rev_parts)
        return pa.table({"node": pa.array(nodes), "rev": pa.array(revs)})

    return aggregate(
        li.map_batches(explode_cols, batch_format="pyarrow",
                       zero_copy_batch=True),
        "node", {"rev_cents": ("rev", "sum"), "n_lines": ("node", "count")},
        {"node": pa.int64(), "rev_cents": pa.int64(), "n_lines": pa.int64()})


# ---------------------------------------------------------------------------
# covisit_pairs — co-visitation similarity join
# ---------------------------------------------------------------------------

COVISIT_MIN_DAYS = 3        # pair survives with >= this many shared days
COVISIT_DAY_CAP = 4_096     # per-day distinct-user cap (pair blowup
                            # guard, simhash convention: cap SMALLEST
                            # user_ids, SQL-mirrorable via row_number)


def covisit_pairs(sf_dir: str):
    """User pairs active on >= COVISIT_MIN_DAYS common days — the
    co-visitation similarity join (audience-overlap / sock-puppet
    signal): distinct (day, user) -> per-day pairs -> pair-count
    filter.

    Scale shape: the corpus collapses to distinct (day, user) map-side
    + one groupby; pair generation is the hash-partitioned bucket
    kernel with the deterministic per-day cap (quadratic blowup
    guard); pair counts pre-aggregate inside the kernel so the final
    shuffle carries per-partition partials, not raw pair firings."""

    path = f"{sf_dir}/events.parquet"
    ev = read_table(path, ["user_id", "ts"])

    def day_user_cols(batch: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(batch["ts"], pa.int64()),
                        86_400_000_000)
        return pa.table({"day": day, "user_id": batch["user_id"]})

    du = aggregate(
        ev.map_batches(day_user_cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["day", "user_id"], {},
        {"day": pa.int64(), "user_id": pa.int64()})

    def day_pairs_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("day", "ascending"), ("user_id", "ascending")])
        ds_ = g["day"].to_numpy()
        us = g["user_id"].to_numpy()
        starts, sizes = runs(ds_)
        oa, ob = [], []
        n_trunc = 0
        for st, sz in zip(starts.tolist(), sizes.tolist()):
            if sz < 2:
                continue
            if sz > COVISIT_DAY_CAP:
                n_trunc += 1         # sorted: cap smallest user_ids
                sz = COVISIT_DAY_CAP
            ia, ib = np.triu_indices(sz, k=1)
            oa.append(us[st:st + sz][ia])
            ob.append(us[st:st + sz][ib])
        if n_trunc:
            print(f"covisit_pairs: truncated {n_trunc} day bucket(s) "
                  f"over {COVISIT_DAY_CAP} users (see COVISIT_DAY_CAP)")
        if not oa:
            return g.slice(0, 0)
        return pa.table({"u1": np.concatenate(oa),
                         "u2": np.concatenate(ob)}).group_by(
            ["u1", "u2"]).aggregate([([], "count_all")]) \
            .rename_columns(["u1", "u2", "days"])

    partials = partitioned(du, "day", day_pairs_part,
                           {"u1": pa.int64(), "u2": pa.int64(),
                            "days": pa.int64()},
                           rows_hint=_parquet_rows(path))
    counts = aggregate(
        partials,
        ["u1", "u2"], {"days": ("days", "sum")},
        {"u1": pa.int64(), "u2": pa.int64(), "days": pa.int64()})

    def floor_filter(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch["days"],
                                             COVISIT_MIN_DAYS))

    return counts.map_batches(floor_filter, batch_format="pyarrow",
                              zero_copy_batch=True)


# ---------------------------------------------------------------------------
# weighted_median — quantity-weighted median price per return flag
# ---------------------------------------------------------------------------

def weighted_median(sf_dir: str):
    """Per l_returnflag, the quantity-weighted LOWER median of
    l_extendedprice in exact integer cents: the smallest price where
    the cumulative quantity reaches half the flag's total
    (``2 * cum >= total``).  Integer-exact end to end.

    Scale shape: map-side partial (flag, price_cents) -> qty sums, ONE
    groupby-sum whose output is bounded by the price DOMAIN (not the
    row count), then a per-flag sorted cumulative scan over that
    bounded table via map_groups (|flags| = 3 tiny groups).
    """

    from .relational import _cents

    path = f"{sf_dir}/lineitem.parquet"
    ds = read_table(path, ["l_returnflag", "l_quantity", "l_extendedprice"])

    def cols(batch: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": batch["l_returnflag"],
            "price_c": _cents(batch["l_extendedprice"]),
            "q": pc.cast(batch["l_quantity"], pa.int64()),
        })

    by_price = aggregate(
        ds.map_batches(cols, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["l_returnflag", "price_c"], {"qs": ("q", "sum")},
        {"l_returnflag": pa.string(), "price_c": pa.int64(), "qs": pa.int64()})

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("price_c", kind="stable")
        cum = g["qs"].to_numpy().cumsum()
        tot = cum[-1]
        i = int(np.searchsorted(2 * cum, tot))
        return pd.DataFrame({
            "l_returnflag": [g["l_returnflag"].iloc[0]],
            "wmedian_cents": np.array([g["price_c"].iloc[i]],
                                      dtype=np.int64)})

    return by_price.groupby("l_returnflag") \
        .map_groups(pick, batch_format="pandas")


# ---------------------------------------------------------------------------
# streaks — longest consecutive-active-day run per user
# ---------------------------------------------------------------------------

def streaks(sf_dir: str):
    """Per user: number of distinct active days and the longest run of
    CONSECUTIVE active days (gaps-and-islands).  Days are integer
    epoch-days of the event timestamp; everything is integer-exact.

    Scale shape: map-side per-batch (user, day) dedup, ONE hash
    partition on user_id, then a single vectorized sort + diff kernel
    per partition handling all its users — no window shuffle, no
    per-user Python.
    """

    path = f"{sf_dir}/events.parquet"
    ev = read_table(path, ["user_id", "ts"])

    def to_days(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        day = ts // 86_400_000_000
        u = batch["user_id"].to_numpy()
        t = pd.DataFrame({"user_id": u, "day": day}) \
            .drop_duplicates(["user_id", "day"])
        return pa.Table.from_pandas(t, preserve_index=False)

    du = ev.map_batches(to_days, batch_format="pyarrow",
                        zero_copy_batch=True)

    def streak_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("user_id", "ascending"), ("day", "ascending")])
        u = g["user_id"].to_numpy()
        d = g["day"].to_numpy()
        # the map-side dedupe is per batch: drop repeated (user, day)
        first = np.ones(len(u), dtype=bool)
        first[1:] = (u[1:] != u[:-1]) | (d[1:] != d[:-1])
        u, d = u[first], d[first]
        # run starts: new user OR a day gap
        start = np.ones(len(u), dtype=bool)
        start[1:] = (u[1:] != u[:-1]) | (d[1:] != d[:-1] + 1)
        sidx = np.flatnonzero(start)
        runlen = np.diff(np.append(sidx, len(u)))
        ru = u[sidx]
        ustart = np.ones(len(sidx), dtype=bool)
        ustart[1:] = ru[1:] != ru[:-1]
        ub = np.flatnonzero(ustart)
        return pa.table({
            "user_id": ru[ub],
            "n_active_days": np.add.reduceat(runlen, ub).astype(np.int64),
            "max_streak": np.maximum.reduceat(runlen, ub).astype(np.int64)})

    return partitioned(du, "user_id", streak_part,
                       {"user_id": pa.int64(), "n_active_days": pa.int64(),
                        "max_streak": pa.int64()},
                       rows_hint=_parquet_rows(path))


SESSION_PATH_MAXLEN = 8     # event types kept per session path
SESSION_PATH_TOPK = 20


def session_path_topk(sf_dir: str, gap_minutes: int = 30,
                      maxlen: int = SESSION_PATH_MAXLEN,
                      k: int = SESSION_PATH_TOPK):
    """Frequent-session-path mining: sessionize per user (30-min gap,
    the sessionize rule), concatenate the first ``maxlen`` event types
    of each session in (ts, event_id) order into a '>'-joined path
    string, and report the top-k paths by count (ties broken by path
    text) — the classic clickstream "what do users actually do"
    query.

    Scale shape: one user-hash shuffle; session ids and in-session
    positions are the sessionize segmented-cumsum kernel; the path
    string_agg is a pandas groupby join per partition (one
    string build per SESSION — inherent to the output, never per
    event); partial path counts per partition, one
    path-bounded groupby (≤ |types|^maxlen distinct paths), and a
    driver-free sort-limit."""

    path = f"{sf_dir}/events.parquet"
    ev = read_table(path, ["user_id", "ts", "event_id", "event_type"])
    gap_us = gap_minutes * 60 * 1_000_000

    def paths_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        ts = pc.cast(g["ts"], pa.int64()).to_numpy()
        uid = g["user_id"].to_numpy()
        newu = np.ones(len(g), dtype=bool)
        newu[1:] = uid[1:] != uid[:-1]
        is_new = newu.copy()
        is_new[1:] |= (ts[1:] - ts[:-1]) > gap_us
        sess = np.cumsum(is_new.astype(np.int64))   # partition-unique
        starts = np.flatnonzero(is_new)
        sizes = np.diff(np.concatenate([starts, [len(g)]]))
        pos = np.arange(len(g)) - np.repeat(starts, sizes)
        head = pos < maxlen
        p = pd.Series(g["event_type"].to_numpy()[head]) \
            .groupby(sess[head]).agg(">".join)
        return pa.table({"path": pa.array(p.to_numpy(), pa.string())})

    counts = aggregate(
        partitioned(ev, "user_id", paths_part, {"path": pa.string()},
                    rows_hint=_parquet_rows(path)),
        "path", {"n": ("path", "count")},
        {"path": pa.string(), "n": pa.int64()})
    return counts.sort(["n", "path"], descending=[True, False]) \
        .limit(k)


OOO_RANGE_IDS = 4096        # event_ids per prefix-max range (floor)
OOO_MAX_DRIVER_RANGES = 2_000_000   # driver-state bound on range rows


def out_of_order(sf_dir: str, range_ids: int | None = None):
    """Out-of-orderness audit of the event stream: with arrival order
    = event_id and event time = ts, an event is LATE when its ts is
    below the running maximum ts of all earlier arrivals (the
    watermark).  Per event type: event count, late count, max and
    total lateness (µs) — the statistics that size a streaming
    watermark delay.

    Scale shape: the running max is a distributed EXCLUSIVE PREFIX MAX
    in the pack_sequences two-stage pattern — per-range MAX(ts)
    partials (driver state = id_space/range_ids rows — ``range_ids``
    defaults to corpus_rows / OOO_MAX_DRIVER_RANGES so the driver
    fold stays ≤ 2 M rows at ANY corpus size), an exclusive max-scan
    over the sorted ranges broadcast once, then a per-partition
    exclusive cummax kernel over the rows and their range offsets.  No
    global sort; one hash shuffle on the range key."""
    import ray
    import ray.data as rd

    path = f"{sf_dir}/events.parquet"
    if range_ids is None:
        range_ids = max(OOO_RANGE_IDS,
                        _parquet_rows(path) // OOO_MAX_DRIVER_RANGES)
    ev = read_table(path, ["event_id", "ts", "event_type"])

    def keyed(batch: pa.Table) -> pa.Table:
        t = pc.cast(batch["ts"], pa.int64())
        return pa.table({
            "event_id": batch["event_id"],
            "t": t,
            "event_type": batch["event_type"],
            "rkey": pa.array(batch["event_id"].to_numpy()
                             // range_ids)})

    kev = ev.map_batches(keyed, batch_format="pyarrow",
                         zero_copy_batch=True, batch_size=None)

    def range_cols(batch: pa.Table) -> pa.Table:
        return batch.select(["rkey", "t"])

    t = collect(aggregate(
        kev.map_batches(range_cols, batch_format="pyarrow",
                        zero_copy_batch=True, batch_size=None),
        "rkey", {"m": ("t", "max")},
        {"rkey": pa.int64(), "m": pa.int64()}),
                pa.schema([("rkey", pa.int64()), ("m", pa.int64())]))
    if not t.num_rows:
        e = pa.array([], pa.int64())
        return rd.from_arrow(pa.table({
            "event_type": pa.array([], pa.string()), "n_events": e,
            "n_late": e, "max_late_us": e, "sum_late_us": e}))
    rk = t["rkey"].to_numpy()
    mx = t["m"].to_numpy()
    order = np.argsort(rk)
    rk, mx = rk[order], mx[order]
    lowest = np.iinfo(np.int64).min
    premax = np.concatenate([[lowest],
                             np.maximum.accumulate(mx)[:-1]])
    state_ref = ray.put((rk, premax))

    def scan_part(g: pa.Table) -> pa.Table:
        rkeys, offsets = ray.get(state_ref)
        g = g.sort_by("event_id")
        t = g["t"].to_numpy()
        base = offsets[np.searchsorted(rkeys, g["rkey"].to_numpy())]
        # watermark = max(range offset, earlier ts of the same range).
        # An earlier range's rows never exceed a later range's offset
        # (its global prefix max), so one exclusive running max over
        # max(t, offset) serves every range of the partition.
        run = np.maximum.accumulate(np.maximum(t, base))
        prev = base.copy()
        prev[1:] = np.maximum(base[1:], run[:-1])
        late = t < prev
        a = pa.table({
            "event_type": g["event_type"],
            "late": late.astype(np.int64),
            "lateness": np.where(late, prev - t, 0).astype(np.int64)}) \
            .group_by("event_type").aggregate(
                [([], "count_all"), ("late", "sum"), ("lateness", "max"),
                 ("lateness", "sum")])
        return pa.table({"event_type": a["event_type"],
                         "n_events": a["count_all"],
                         "n_late": a["late_sum"],
                         "max_late_us": a["lateness_max"],
                         "sum_late_us": a["lateness_sum"]})

    return aggregate(
        partitioned(kev, "rkey", scan_part,
                    {"event_type": pa.string(), "n_events": pa.int64(),
                     "n_late": pa.int64(), "max_late_us": pa.int64(),
                     "sum_late_us": pa.int64()},
                    rows_hint=_parquet_rows(path)),
        "event_type", {"n_events": ("n_events", "sum"),
         "n_late": ("n_late", "sum"), "max_late_us": ("max_late_us", "max"),
         "sum_late_us": ("sum_late_us", "sum")},
        {"event_type": pa.string(), "n_events": pa.int64(),
         "n_late": pa.int64(), "max_late_us": pa.int64(),
         "sum_late_us": pa.int64()})
