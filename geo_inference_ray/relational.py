"""Relational operator layer: grouped aggregates with map-side partials,
broadcast hash joins, bucketed large-large joins, per-group top-k, and
time-bucket aggregation — demonstrated over the TPC-H-ish test tables.

The reference engine has no relational ops (SURVEY §2.4 "absent"), but a
complete data-processing engine needs them; these are the generic
patterns the spatial pipeline's specialized joins build on.  Money
aggregates are emitted as integer cents (sum of per-row rounded cents)
so every result is order-independent and hash-exact against the DuckDB
oracle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .shuffle import (aggregate, collect, partitioned, partitions_for,
                      run_pairs, runs)
from .sources import read_table


def _cents(col: pa.ChunkedArray) -> pa.ChunkedArray:
    """dollars (2-decimal double) -> exact integer cents.
    round() ties cannot occur: inputs are N.XX doubles whose *100 lands
    within 1e-10 of an integer."""
    return pc.cast(pc.round(pc.multiply(col, 100.0)), pa.int64())


def pricing_summary(sf_dir: str):
    """TPC-H Q1 analog: lineitem grouped by (returnflag, linestatus) with
    map-side partial aggregation — one row per key per batch crosses the
    shuffle."""

    ds = read_table(f"{sf_dir}/lineitem.parquet",
                    ["l_returnflag", "l_linestatus", "l_quantity",
                     "l_extendedprice", "l_discount"])

    def cols(batch: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": batch["l_returnflag"],
            "l_linestatus": batch["l_linestatus"],
            "qty": pc.cast(batch["l_quantity"], pa.int64()),
            "base_cents": _cents(batch["l_extendedprice"]),
            "disc_pct": pc.cast(pc.round(pc.multiply(
                batch["l_discount"], 100.0)), pa.int64())})

    return aggregate(
        ds.map_batches(cols, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None),
        ["l_returnflag", "l_linestatus"],
        {"sum_qty": ("qty", "sum"), "sum_base_cents": ("base_cents", "sum"),
         "sum_disc_pct": ("disc_pct", "sum"),
         "count_order": ("qty", "count")},
        {"l_returnflag": pa.string(), "l_linestatus": pa.string(),
         "sum_qty": pa.int64(), "sum_base_cents": pa.int64(),
         "sum_disc_pct": pa.int64(), "count_order": pa.int64()})


def top_customers(sf_dir: str, k: int = 10):
    """Broadcast hash join (orders x customer) + grouped aggregate +
    exact top-k: the small dimension table is ray.put once and looked up
    per batch; ranking ties broken by c_custkey."""
    import ray

    import pyarrow.parquet as pq

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_name", "c_mktsegment"]) \
        .rename_columns(["o_custkey", "c_name", "c_mktsegment"]) \
        .replace_schema_metadata(None)
    cust_ref = ray.put(cust)

    orders = read_table(f"{sf_dir}/orders.parquet",
                        ["o_custkey", "o_totalprice"])

    def cents(batch: pa.Table) -> pa.Table:
        return pa.table({"o_custkey": batch["o_custkey"],
                         "cents": _cents(batch["o_totalprice"])})

    per_cust = aggregate(
        orders.map_batches(cents, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None),
        "o_custkey",
        {"total_cents": ("cents", "sum"), "n_orders": ("cents", "count")},
        {"o_custkey": pa.int64(), "total_cents": pa.int64(),
         "n_orders": pa.int64()})

    def attach_name(batch: pa.Table) -> pa.Table:
        joined = batch.join(ray.get(cust_ref), keys="o_custkey",
                            join_type="inner")
        return joined.select(["o_custkey", "c_name", "c_mktsegment",
                              "total_cents", "n_orders"])

    named = per_cust.map_batches(attach_name, batch_format="pyarrow")
    # exact global top-k: sort is a small shuffle over the aggregate
    top = named.sort(["total_cents", "o_custkey"],
                     descending=[True, False]).limit(k)
    return top


def bucketed_join_agg(sf_dir: str, buckets: int = 16):
    """Large-large partitioned hash join: orders x lineitem on orderkey,
    co-partitioned by ``orderkey % buckets``, joined per bucket inside
    map_groups, aggregated to (o_orderstatus, l_returnflag) counts.

    The explicit-bucket pattern of SURVEY §7.4 / ray_guide 'Joins':
    both sides shuffle ONCE on the same key; skew in orderkey is
    structurally absent (uniform keys), hot-bucket salting would follow
    shuffle.salt_plan otherwise."""

    orders = read_table(f"{sf_dir}/orders.parquet",
                        ["o_orderkey", "o_orderstatus"])
    li = read_table(f"{sf_dir}/lineitem.parquet",
                    ["l_orderkey", "l_returnflag", "l_quantity"])

    def tag_o(batch: pa.Table) -> pa.Table:
        key = batch["o_orderkey"].to_numpy() % buckets
        return pa.table({"bucket": pa.array(key), "side": pa.array(
            np.zeros(len(batch), dtype=np.int8)),
            "k": batch["o_orderkey"], "s1": batch["o_orderstatus"],
            "s2": pa.nulls(len(batch), pa.string()),
            "q": pa.nulls(len(batch), pa.int64())})

    def tag_l(batch: pa.Table) -> pa.Table:
        key = batch["l_orderkey"].to_numpy() % buckets
        return pa.table({"bucket": pa.array(key), "side": pa.array(
            np.ones(len(batch), dtype=np.int8)),
            "k": batch["l_orderkey"],
            "s1": pa.nulls(len(batch), pa.string()),
            "s2": batch["l_returnflag"],
            "q": pc.cast(batch["l_quantity"], pa.int64())})

    both = orders.map_batches(tag_o, batch_format="pyarrow",
                              zero_copy_batch=True).union(
        li.map_batches(tag_l, batch_format="pyarrow", zero_copy_batch=True))

    def join_bucket(g: pa.Table) -> pa.Table:
        side = g["side"].to_numpy()
        o = g.filter(side == 0).select(["k", "s1"])
        l = g.filter(side == 1).select(["k", "s2", "q"])
        j = l.join(o, "k", join_type="inner").group_by(["s1", "s2"]) \
            .aggregate([("q", "sum"), ("q", "count", pc.CountOptions("all"))])
        return pa.table({"s1": j["s1"], "s2": j["s2"], "nq": j["q_sum"],
                         "n": j["q_count"]})

    per_bucket = both.groupby("bucket").map_groups(join_bucket,
                                                   batch_format="pyarrow")
    agg = aggregate(
        per_bucket,
        ["s1", "s2"], {"sum_qty": ("nq", "sum"), "n_rows": ("n", "sum")},
        {"s1": pa.string(), "s2": pa.string(), "sum_qty": pa.int64(),
         "n_rows": pa.int64()})

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"o_orderstatus": batch["s1"],
                         "l_returnflag": batch["s2"],
                         "sum_qty": pc.cast(batch["sum_qty"], pa.int64()),
                         "n_rows": pc.cast(batch["n_rows"], pa.int64())})

    return agg.map_batches(rename, batch_format="pyarrow")


def top_orders_per_customer(sf_dir: str, k: int = 3):
    """Per-group top-k (window-function analog): rank orders within each
    customer by (totalprice desc, orderkey asc), keep k."""

    orders = read_table(f"{sf_dir}/orders.parquet",
                        ["o_custkey", "o_orderkey", "o_totalprice"])

    def add_cents(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": batch["o_custkey"],
            "o_orderkey": batch["o_orderkey"],
            "cents": _cents(batch["o_totalprice"]),
        })

    keyed = orders.map_batches(add_cents, batch_format="pyarrow",
                               zero_copy_batch=True)

    def topk_part(g: pa.Table) -> pa.Table:
        # ONE vectorized kernel for every customer in the partition:
        # lexsort + per-group rank from run starts (a map_groups per
        # customer costs one kernel call per group — death by overhead
        # at millions of customers)
        g = g.sort_by([("o_custkey", "ascending"), ("cents", "descending"),
                       ("o_orderkey", "ascending")])
        ck = g["o_custkey"].to_numpy()
        newc = np.ones(len(g), dtype=bool)
        newc[1:] = ck[1:] != ck[:-1]
        starts = np.flatnonzero(newc)
        sizes = np.diff(np.concatenate([starts, [len(g)]]))
        rnk = np.arange(len(g)) - np.repeat(starts, sizes) + 1
        return g.append_column("rnk", pa.array(rnk.astype(np.int64))) \
            .filter(rnk <= k)

    return partitioned(
        keyed, "o_custkey", topk_part,
        {"o_custkey": pa.int64(), "o_orderkey": pa.int64(),
         "cents": pa.int64(), "rnk": pa.int64()},
        rows_hint=_parquet_rows(f"{sf_dir}/orders.parquet"))


JOIN_TARGET_ROWS = 50_000   # min rows to justify one extra join partition


def join_partitions_for(rows: int) -> int:
    """Partition count for Ray 2.49 hash joins: grows with the input
    (ceil(rows / JOIN_TARGET_ROWS), so per-partition join input stays
    bounded at ANY size — a fixed cap of 8 meant ~10^9 rows per
    aggregator at the 100 TB design point), but stays at 1 for tiny
    inputs (Ray 2.49 hash joins emit schema-less EMPTY partitions that
    crash downstream column access when over-partitioned)."""
    rows = int(rows)
    return max(1, min(partitions_for(rows),
                      -(-rows // JOIN_TARGET_ROWS)))


def _parquet_rows(path: str) -> int:
    """Row count from parquet footer metadata only (no data read)."""
    import pyarrow.parquet as pq

    return pq.read_metadata(path).num_rows


def events_hourly(sf_dir: str):
    """Time-bucket aggregation over the events stream table: per
    (user_id, event_type, hour) counts and milli-value sums — the
    tumbling-window analog (ray_guide 'Streaming-shaped workloads')."""

    ev = read_table(f"{sf_dir}/events.parquet",
                    ["user_id", "event_type", "ts", "value"])

    def cols(batch: pa.Table) -> pa.Table:
        hour = pc.cast(pc.floor_temporal(batch["ts"], unit="hour"),
                       pa.timestamp("us"))
        vm = pc.cast(pc.round(pc.multiply(batch["value"], 1000.0)),
                     pa.int64())
        return pa.table({"user_id": batch["user_id"],
                         "event_type": batch["event_type"],
                         "hour": hour, "vm": vm})

    return aggregate(
        ev.map_batches(cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["user_id", "event_type", "hour"], {"value_milli": ("vm", "sum"),
                                            "n_events": ("vm", "count")},
        {"user_id": pa.int64(), "event_type": pa.string(),
         "hour": pa.timestamp("us"), "value_milli": pa.int64(),
         "n_events": pa.int64()})


def native_join_agg(sf_dir: str, num_partitions: int = 8):
    """Ray Data's native hash-partitioned ``Dataset.join`` (available in
    this Ray version) — the third join strategy next to broadcast
    (top_customers) and explicit bucketing (bucketed_join_agg).  orders
    x customer on custkey -> per-mktsegment order counts + cents."""

    orders = read_table(f"{sf_dir}/orders.parquet",
                        ["o_custkey", "o_totalprice"])

    def cents_col(batch: pa.Table) -> pa.Table:
        return pa.table({"o_custkey": batch["o_custkey"],
                         "cents": _cents(batch["o_totalprice"])})

    orders = orders.map_batches(cents_col, batch_format="pyarrow",
                                zero_copy_batch=True)
    cust = read_table(f"{sf_dir}/customer.parquet",
                      ["c_custkey", "c_mktsegment"])
    joined = orders.join(cust, join_type="inner",
                         num_partitions=num_partitions,
                         on=("o_custkey",), right_on=("c_custkey",))

    return aggregate(
        joined,
        "c_mktsegment", {"total_cents": ("cents", "sum"),
                         "n_orders": ("cents", "count")},
        {"c_mktsegment": pa.string(), "total_cents": pa.int64(),
         "n_orders": pa.int64()})


def _rev_cents(ext: pa.ChunkedArray, disc: pa.ChunkedArray):
    """Per-line revenue cents: floor(ext*(1-disc)*100 + 0.5), the SAME
    IEEE-754 expression the SQL mirrors use — the product CAN land on
    exact .5 ties (unlike _cents' two-decimal inputs), where Arrow's
    round (half-to-even) and DuckDB's (half-away) disagree; a shared
    floor(+0.5) sidesteps both."""
    prod = pc.multiply(pc.multiply(
        ext, pc.subtract(pa.scalar(1.0), disc)), 100.0)
    return pc.cast(pc.floor(pc.add(prod, 0.5)), pa.int64())


Q3_SEGMENT = "BUILDING"
Q3_CUTOFF_US = 866_073_600_000_000   # 1997-06-12 epoch microseconds
Q3_TOPK = 10


def q3_shipping(sf_dir: str):
    """TPC-H Q3 analog — the canonical 3-way join
    (customer x orders x lineitem) with selective filters and a
    revenue top-k, ordered for scale:

    1. lineitem revenue is PRE-AGGREGATED per orderkey behind the
       shipdate filter (map-side partial + one groupby), so the join
       never sees line-level rows;
    2. the filtered orders side hash-joins the per-order revenue on
       Ray's native join (both sides corpus-scale, join_partitions_for
       sized);
    3. the customer segment filter is applied through a second hash
       join (the segment keeps ~1/5 of a corpus-scale table — too big
       to broadcast blindly, unlike top_customers' full-dimension
       broadcast);
    4. top-k is per-batch partial top-k + a final k-bounded reduce —
       never a global sort.

    Revenue cents = round(extprice * (1-disc) * 100) per LINE, same
    IEEE-754 expression order as the SQL mirror, summed as int64."""

    li = read_table(f"{sf_dir}/lineitem.parquet",
                    ["l_orderkey", "l_extendedprice", "l_discount",
                     "l_shipdate"])

    def rev_cols(batch: pa.Table) -> pa.Table:
        keep = pc.greater(pc.cast(batch["l_shipdate"], pa.int64()),
                          Q3_CUTOFF_US)
        b = batch.filter(keep)
        rev = _rev_cents(b["l_extendedprice"], b["l_discount"])
        return pa.table({"l_orderkey": b["l_orderkey"], "rev": rev})

    li_rows = _parquet_rows(f"{sf_dir}/lineitem.parquet")
    rev = aggregate(
        li.map_batches(rev_cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        "l_orderkey", {"revenue_cents": ("rev", "sum")},
        {"l_orderkey": pa.int64(), "revenue_cents": pa.int64()})

    orders = read_table(f"{sf_dir}/orders.parquet",
                        ["o_orderkey", "o_custkey", "o_orderdate",
                         "o_orderpriority"])

    def ord_filter(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less(
            pc.cast(batch["o_orderdate"], pa.int64()), Q3_CUTOFF_US))

    orders = orders.map_batches(ord_filter, batch_format="pyarrow",
                                zero_copy_batch=True)

    np_join = join_partitions_for(li_rows // 4)
    joined = rev.join(orders, join_type="inner",
                      num_partitions=np_join,
                      on=("l_orderkey",), right_on=("o_orderkey",))

    cust = read_table(f"{sf_dir}/customer.parquet",
                      ["c_custkey", "c_mktsegment"])

    def seg_filter(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["c_mktsegment"],
                                     Q3_SEGMENT)) \
            .select(["c_custkey"])

    cust = cust.map_batches(seg_filter, batch_format="pyarrow",
                            zero_copy_batch=True)
    cust_rows = _parquet_rows(f"{sf_dir}/customer.parquet")
    joined = joined.join(cust, join_type="inner",
                         num_partitions=join_partitions_for(
                             max(1, cust_rows // 5)),
                         on=("o_custkey",), right_on=("c_custkey",))

    def topk_part(batch: pa.Table) -> pa.Table:
        t = batch.select(["l_orderkey", "o_orderdate",
                          "o_orderpriority", "revenue_cents"])
        idx = pc.sort_indices(t, sort_keys=[
            ("revenue_cents", "descending"), ("l_orderkey", "ascending")])
        return t.take(idx[:Q3_TOPK])

    return joined.map_batches(topk_part, batch_format="pyarrow") \
        .repartition(1) \
        .map_batches(topk_part, batch_format="pyarrow",
                     batch_size=None)


RFM_TILES = 4         # NTILE bucket count
RFM_RANGES = 4096     # equal-width value ranges for the rank prefix sum


def _ntile(rank: np.ndarray, n: int, k: int) -> np.ndarray:
    """SQL NTILE(k) bucket for 1-based row_number ``rank`` over n rows:
    the first (n % k) buckets hold ceil(n/k) rows, the rest floor(n/k)
    — exactly DuckDB's distribution."""
    q, m = divmod(int(n), int(k))
    cut = m * (q + 1)
    small = (rank - 1) // (q + 1) + 1
    if q == 0:
        return small.astype(np.int64)
    big = m + (rank - 1 - cut) // q + 1
    return np.where(rank <= cut, small, big).astype(np.int64)


RFM_MAX_RANGE_ROWS = 5_000_000   # per-range co-location bound


def _metric_offsets_all(base, metrics):
    """{metric: (lo, width, ray.put(offsets))} for every metric's
    equal-width range grid, in TWO passes over ``base`` total: one
    aggregate for all min/max scalars, one (metric, range)-keyed count
    pre-pass (a ``shuffle.aggregate`` count -> a <= |metrics| x
    RFM_RANGES-row table) -> exclusive prefix offsets, broadcast
    once each.

    Loud bail when any single range holds more than
    RFM_MAX_RANGE_ROWS rows: the rank kernel needs a whole range (in
    particular one tie run of a low-cardinality metric — think order
    FREQUENCY over 10^8 customers) co-located in one partition, and
    past this bound that silently degrades to a near-global
    single-task sort.  Callers must re-bucket (finer grid only helps
    when values differ) or split ties by a secondary key."""
    import ray

    bounds = {f"{op}_{m}": (m, op) for m in metrics for op in ("min", "max")}
    mm = aggregate(base, [], bounds,
                   {n: pa.int64() for n in bounds}).take_all()[0]
    lo_w = {}
    for m in metrics:
        lo, hi = mm[f"min_{m}"], mm[f"max_{m}"]
        lo_w[m] = (lo, max(1, -(-(hi - lo + 1) // RFM_RANGES)))

    def range_ids(batch: pa.Table) -> pa.Table:
        # one (metric, range) row per row and metric
        mids, rids = [], []
        for i, m in enumerate(metrics):
            lo, width = lo_w[m]
            rids.append((batch[m].to_numpy() - lo) // width)
            mids.append(np.full(len(batch), i, np.int64))
        return pa.table({"mid": pa.array(np.concatenate(mids)),
                         "rid": pa.array(np.concatenate(rids)
                                         .astype(np.int64))})

    counts = {m: np.zeros(RFM_RANGES, dtype=np.int64) for m in metrics}
    for b in aggregate(
        base.map_batches(range_ids, batch_format="pyarrow",
                         zero_copy_batch=True, batch_size=None),
        ["mid", "rid"], {"n": ("mid", "count")},
        {"mid": pa.int64(), "rid": pa.int64(), "n": pa.int64()}) \
            .iter_batches(batch_size=RFM_RANGES,
                          batch_format="pyarrow"):
        mid = b["mid"].to_numpy()
        rid = b["rid"].to_numpy()
        n = b["n"].to_numpy()
        for i, m in enumerate(metrics):
            sel = mid == i
            counts[m][rid[sel]] = n[sel]
    grids = {}
    for m in metrics:
        c = counts[m]
        if int(c.max(initial=0)) > RFM_MAX_RANGE_ROWS:
            raise ValueError(
                f"rank pass: metric {m!r} has a single range/tie run "
                f"of {int(c.max())} rows (> {RFM_MAX_RANGE_ROWS}); "
                "co-locating it would single-task-sort — split ties "
                "by a secondary key")
        grids[m] = (lo_w[m][0], lo_w[m][1],
                    ray.put(np.cumsum(c) - c))
    return grids


def _rank_pass(ds, schema: pa.Schema, metric: str, out_col: str,
               total: int, lo: int, width: int, state, tiebreak: str):
    """Append ``out_col`` = NTILE(RFM_TILES) by (metric, tiebreak)
    order — an exact global row_number WITHOUT a global sort: rows
    hash-partition on their range id (pure key function -> a range
    never splits), and one vectorized kernel per partition sorts
    locally and adds the broadcast exclusive-prefix offset.

    Co-location assumption (same as length_percentile_rank): all rows
    of one range — in particular one tie run of a low-cardinality
    metric — fit in a partition."""
    import ray

    def add_rid(batch: pa.Table) -> pa.Table:
        rid = (batch[metric].to_numpy() - lo) // width
        return batch.append_column("rid",
                                   pa.array(rid.astype(np.int64)))

    keyed = ds.map_batches(add_rid, batch_format="pyarrow",
                           zero_copy_batch=True)

    def rank_part(g: pa.Table) -> pa.Table:
        offs = ray.get(state)
        g = g.sort_by([(metric, "ascending"), (tiebreak, "ascending")])
        rid = g["rid"].to_numpy()
        starts, sizes = runs(rid)
        local = np.arange(len(g)) - np.repeat(starts, sizes)
        rank = local + offs[rid] + 1
        return g.drop_columns(["rid"]).append_column(
            out_col, pa.array(_ntile(rank, total, RFM_TILES)))

    return partitioned(keyed, "rid", rank_part,
                       schema.append(pa.field(out_col, pa.int64())),
                       rows_hint=total)


def rfm_scores(sf_dir: str):
    """RFM quartile scoring — recency / frequency / monetary NTILE(4)
    per customer, the marketing-segmentation pipeline: one orders
    groupby builds the per-customer metric table (materialized once —
    it feeds three rank passes and their pre-passes), then three
    chained range-partitioned exact-rank passes append the scores.
    Nothing ever global-sorts; each pass is one slim-row shuffle."""

    orders = read_table(f"{sf_dir}/orders.parquet",
                        ["o_custkey", "o_orderdate", "o_totalprice"])

    def cols(batch: pa.Table) -> pa.Table:
        return pa.table({"o_custkey": batch["o_custkey"],
                         "r_us": pc.cast(batch["o_orderdate"], pa.int64()),
                         "m_cents": _cents(batch["o_totalprice"]),
                         "f": pa.array(np.ones(len(batch), np.int64))})

    base = aggregate(
        orders.map_batches(cols, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None),
        "o_custkey", {"r_us": ("r_us", "max"),
                      "m_cents": ("m_cents", "sum"),
                      "f": ("f", "sum")},
        {"o_custkey": pa.int64(), "r_us": pa.int64(), "m_cents": pa.int64(),
         "f": pa.int64()}).materialize()
    total = base.count()

    # all three offset grids come from the materialized base in TWO
    # passes (one combined min/max aggregate + one keyed count
    # pre-pass), so each chained rank pass consumes its input once
    grids = _metric_offsets_all(base, ("r_us", "f", "m_cents"))
    out = base
    schema = pa.schema([(c, pa.int64())
                        for c in ("o_custkey", "r_us", "m_cents", "f")])
    for metric, col in (("r_us", "r_score"), ("f", "f_score"),
                        ("m_cents", "m_score")):
        lo, width, state = grids[metric]
        out = _rank_pass(out, schema, metric, col, total, lo, width, state,
                         tiebreak="o_custkey")
        schema = schema.append(pa.field(col, pa.int64()))
    return out.select_columns(["o_custkey", "r_score", "f_score",
                               "m_score"])


Q5_LO_US = 820_454_400_000_000   # 1996-01-01
Q5_HI_US = 852_076_800_000_000   # 1997-01-01
Q5_BROADCAST_KEYS = 5_000_000    # dim-map broadcast bound (rows)


def _keymap_broadcast(path: str, key: str, val: str):
    """(sorted keys, values) ray.put handle for a two-int dimension
    map, or None when the table exceeds Q5_BROADCAST_KEYS rows (the
    caller must fall back to a distributed hash join — a 10^8-supplier
    corpus map is gigabytes, not a broadcast)."""
    import pyarrow.parquet as pq
    import ray

    if pq.read_metadata(path).num_rows > Q5_BROADCAST_KEYS:
        return None
    t = pq.read_table(path, columns=[key, val])
    k = t[key].to_numpy().astype(np.int64)
    v = t[val].to_numpy().astype(np.int64)
    order = np.argsort(k)
    return ray.put((k[order], v[order]))


def _name_map_broadcast(path: str, key: str, val: str):
    """(sorted int64 keys, string values) ray.put handle — the
    string-valued sibling of _keymap_broadcast.  UNCONDITIONAL
    broadcast: for dimensions bounded by a constant (|nations|),
    never a corpus-scale table."""
    import pyarrow.parquet as pq
    import ray

    t = pq.read_table(path, columns=[key, val])
    k = t[key].to_numpy().astype(np.int64)
    v = t[val].to_numpy(zero_copy_only=False)
    order = np.argsort(k)
    return ray.put((k[order], v[order]))


def _probe_names(ref, keys: np.ndarray, what: str) -> np.ndarray:
    """Validated sorted-array probe into a _name_map_broadcast handle:
    RAISES on a key missing from the map (the _attach_nat loudness
    contract) instead of clamping to a wrong neighbor."""
    import ray

    k, v = ray.get(ref)
    kk = keys.astype(np.int64, copy=False)
    pos = np.searchsorted(k, kk)
    pos = np.minimum(pos, max(0, len(k) - 1))
    if len(k) == 0 or not bool((k[pos] == kk).all()):
        raise ValueError(f"{what}: key missing from the name map")
    return v[pos]


def _attach_derived(ds, key_col: str, out_col: str, dim_path: str,
                    dim_cols: list, derive, rows_hint: int):
    """Append ``out_col`` (int64, DERIVED from one or more dimension
    columns via ``derive(pa.Table) -> np.int64 array`` aligned with
    ``dim_cols[0]``) by probing a broadcast sorted-array map under
    Q5_BROADCAST_KEYS, or via a left_outer hash join + LOUD null check
    above it — the _attach_nat contract for derived values (q14's
    is_promo flag, q19's arm bitmask, q2's acctbal cents)."""
    import pyarrow.parquet as pq
    import ray

    dim_key = dim_cols[0]
    if pq.read_metadata(dim_path).num_rows <= Q5_BROADCAST_KEYS:
        t = pq.read_table(dim_path, columns=dim_cols)
        k = t[dim_key].to_numpy().astype(np.int64)
        v = np.asarray(derive(t), dtype=np.int64)
        order = np.argsort(k)
        ref = ray.put((k[order], v[order]))

        def probe(batch: pa.Table) -> pa.Table:
            kk, vv = ray.get(ref)
            keys = batch[key_col].to_numpy()
            pos = np.searchsorted(kk, keys)
            pos = np.minimum(pos, max(0, len(kk) - 1))
            if len(kk) == 0 or not bool((kk[pos] == keys).all()):
                raise ValueError(f"{key_col}: key missing from "
                                 f"{dim_path}")
            return batch.append_column(out_col, pa.array(vv[pos]))

        return ds.map_batches(probe, batch_format="pyarrow",
                              zero_copy_batch=True)

    dim = read_table(dim_path, dim_cols)

    def derive_batch(batch: pa.Table) -> pa.Table:
        # int64 key for the same reason as _attach_nat's fallback: a
        # narrower parquet dim key must match the int64 fact column
        return pa.table({dim_key: pc.cast(batch[dim_key], pa.int64()),
                         out_col: pa.array(np.asarray(
                             derive(batch), dtype=np.int64))})

    dim = dim.map_batches(derive_batch, batch_format="pyarrow",
                          zero_copy_batch=True)
    joined = ds.join(dim, join_type="left_outer",
                     num_partitions=join_partitions_for(rows_hint),
                     on=(key_col,), right_on=(dim_key,))

    def check(batch: pa.Table) -> pa.Table:
        if batch[out_col].null_count:
            raise ValueError(f"{key_col}: key missing from {dim_path}")
        return batch

    return joined.map_batches(check, batch_format="pyarrow",
                              zero_copy_batch=True)


def _attach_nat(ds, key_col: str, out_col: str, ref, dim_path: str,
                dim_key: str, dim_val: str, rows_hint: int):
    """Append ``out_col`` by probing the broadcast (keys, vals) map —
    or, when ``ref`` is None (dim over the broadcast cap), by a Ray
    native hash join sized on the FACT side."""
    import ray

    if ref is not None:
        def probe(batch: pa.Table) -> pa.Table:
            k, v = ray.get(ref)
            kk = batch[key_col].to_numpy()
            pos = np.searchsorted(k, kk)
            pos = np.minimum(pos, max(0, len(k) - 1))
            if len(k) == 0 or not bool((k[pos] == kk).all()):
                raise ValueError(f"{key_col}: key missing from "
                                 f"{dim_path}")
            return batch.append_column(out_col, pa.array(v[pos]))

        return ds.map_batches(probe, batch_format="pyarrow",
                              zero_copy_batch=True)

    dim = read_table(dim_path, [dim_key, dim_val])

    def rename(batch: pa.Table) -> pa.Table:
        # cast the join key too: a narrower parquet dim key (e.g. an
        # int32 n_nationkey) must match the int64 fact column or the
        # Acero hash join rejects the key pair
        return pa.table({dim_key: pc.cast(batch[dim_key], pa.int64()),
                         out_col: pc.cast(batch[dim_val], pa.int64())})

    dim = dim.map_batches(rename, batch_format="pyarrow",
                          zero_copy_batch=True)
    # left_outer + loud null check: the broadcast path RAISES on a
    # fact key missing from the dimension, so the fallback must too —
    # an inner join would silently drop those rows and the two paths
    # would diverge exactly when the data is bad
    joined = ds.join(dim, join_type="left_outer",
                     num_partitions=join_partitions_for(rows_hint),
                     on=(key_col,), right_on=(dim_key,))

    def check(batch: pa.Table) -> pa.Table:
        if batch[out_col].null_count:
            raise ValueError(f"{key_col}: key missing from {dim_path}")
        return batch

    return joined.map_batches(check, batch_format="pyarrow",
                              zero_copy_batch=True)


def q5_local_supply(sf_dir: str):
    """TPC-H Q5 analog — the star join: revenue by nation for orders in
    [1996, 1997) where the CUSTOMER and the SUPPLIER share a nation.

    Scale shape: the two dimension maps (custkey->nation,
    suppkey->nation) broadcast as sorted-array probes under
    Q5_BROADCAST_KEYS and fall back to native hash joins above it
    (dedup_apply's pattern); the one unavoidable large-large exchange
    is the orderkey hash join between the filtered order side and the
    line side, sized by join_partitions_for on the LINE side; the
    nation-name attach is a 25-row batch-local lookup; the final
    groupby is map-side-partial over <= |nations| keys."""

    li_path = f"{sf_dir}/lineitem.parquet"
    o_path = f"{sf_dir}/orders.parquet"
    li_rows = _parquet_rows(li_path)

    cust_ref = _keymap_broadcast(f"{sf_dir}/customer.parquet",
                                 "c_custkey", "c_nationkey")
    sup_ref = _keymap_broadcast(f"{sf_dir}/supplier.parquet",
                                "s_suppkey", "s_nationkey")

    orders = read_table(o_path, ["o_orderkey", "o_custkey", "o_orderdate"])

    def o_filter(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["o_orderdate"], pa.int64())
        keep = pc.and_(pc.greater_equal(us, Q5_LO_US),
                       pc.less(us, Q5_HI_US))
        return batch.filter(keep).select(["o_orderkey", "o_custkey"])

    orders = orders.map_batches(o_filter, batch_format="pyarrow",
                                zero_copy_batch=True)
    orders = _attach_nat(orders, "o_custkey", "cnat", cust_ref,
                         f"{sf_dir}/customer.parquet", "c_custkey",
                         "c_nationkey",
                         rows_hint=_parquet_rows(o_path)) \
        .select_columns(["o_orderkey", "cnat"])

    li = read_table(li_path, ["l_orderkey", "l_suppkey", "l_extendedprice",
                              "l_discount"])

    def rev_col(batch: pa.Table) -> pa.Table:
        return pa.table({"l_orderkey": batch["l_orderkey"],
                         "l_suppkey": batch["l_suppkey"],
                         "rev": _rev_cents(batch["l_extendedprice"],
                                           batch["l_discount"])})

    li = li.map_batches(rev_col, batch_format="pyarrow",
                        zero_copy_batch=True)
    li = _attach_nat(li, "l_suppkey", "snat", sup_ref,
                     f"{sf_dir}/supplier.parquet", "s_suppkey",
                     "s_nationkey", rows_hint=li_rows) \
        .select_columns(["l_orderkey", "snat", "rev"])

    joined = li.join(orders, join_type="inner",
                     num_partitions=join_partitions_for(li_rows // 4),
                     on=("l_orderkey",), right_on=("o_orderkey",))

    nat_ref = _name_map_broadcast(f"{sf_dir}/nation.parquet",
                                  "n_nationkey", "n_name")

    def local_cols(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch["cnat"], batch["snat"])
        b = batch.filter(keep)
        return pa.table({"nk": b["cnat"], "rev": b["rev"],
                         "n": pa.array(np.ones(len(b), np.int64))})

    agg = aggregate(
        joined.map_batches(local_cols, batch_format="pyarrow"),
        "nk", {"revenue_cents": ("rev", "sum"), "n_lines": ("n", "sum")},
        {"nk": pa.int64(), "revenue_cents": pa.int64(), "n_lines": pa.int64()})

    def name_attach(batch: pa.Table) -> pa.Table:
        names = _probe_names(nat_ref, batch["nk"].to_numpy(), "nk")
        return pa.table({"n_name": pa.array(names),
                         "revenue_cents": batch["revenue_cents"],
                         "n_lines": batch["n_lines"]})

    return agg.map_batches(name_attach, batch_format="pyarrow",
                           zero_copy_batch=True)


SLIDE_HOP_US = 1_800_000_000   # 30-minute hop; 1-hour windows


def sliding_distinct(sf_dir: str):
    """Distinct users per 1-hour SLIDING window (30-minute hop) — the
    windowed COUNT DISTINCT, which cannot be pre-summed like the
    counting case (events_sliding): each event flat-emits to its two
    owner windows, per-batch pre-dedup collapses repeat (window, user)
    pairs before the ONE distinct shuffle, and the per-window count is
    a second map-side-partial groupby over the (windows x active
    users)-bounded pair table."""

    ev = read_table(f"{sf_dir}/events.parquet", ["user_id", "ts"])

    def emit(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["ts"], pa.int64()).to_numpy()
        ws = us // SLIDE_HOP_US * SLIDE_HOP_US
        uid = batch["user_id"].to_numpy()
        t = pa.table({
            "ws_us": pa.array(np.concatenate([ws, ws - SLIDE_HOP_US])),
            "user_id": pa.array(np.concatenate([uid, uid]))})
        return t

    pairs = aggregate(
        ev.map_batches(emit, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["ws_us", "user_id"], {},
        {"ws_us": pa.int64(), "user_id": pa.int64()})

    agg = aggregate(pairs, "ws_us", {"n_users": ("ws_us", "count")},
                    {"ws_us": pa.int64(), "n_users": pa.int64()})

    def to_ts(batch: pa.Table) -> pa.Table:
        return pa.table({
            "window_start": pc.cast(batch["ws_us"],
                                    pa.timestamp("us")),
            "n_users": batch["n_users"]})

    return agg.map_batches(to_ts, batch_format="pyarrow",
                           zero_copy_batch=True)


WEEK_US = 7 * 86_400_000_000
WEEKLY_MAX_WEEKS = 100_000   # driver-fold bound for the week table


def weekly_growth(sf_dir: str):
    """Week-over-week event-volume deltas: weekly counts (one
    map-side-partial groupby bounded by weeks x batches) then the LAG
    difference and integer milli-percent change, folded on the driver
    under a loud WEEKLY_MAX_WEEKS bound — the time axis is
    calendar-bounded (a century is ~5,200 weeks), unlike user/doc
    keys.  The first observed week (empty LAG window) emits sentinel
    0 delta/pct as plain int64 — COALESCEd the same in the mirror;
    nullable Int64 renders differently across duckdb versions and
    hash-diverges driver-side (the asof_prior_anchor lesson).  So a
    first week's delta = pct_milli = 0 cannot be told apart from a
    flat week (same count as the week before); only its position as
    the earliest week marks it."""
    import ray.data as rd

    ev = read_table(f"{sf_dir}/events.parquet", ["ts"])

    def weeks(batch: pa.Table) -> pa.Table:
        return pa.table({"week": pa.array(
            pc.cast(batch["ts"], pa.int64()).to_numpy() // WEEK_US)})

    agg = aggregate(
        ev.map_batches(weeks, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        "week", {"n": ("week", "count")},
        {"week": pa.int64(), "n": pa.int64()})

    t = collect(agg, pa.schema([("week", pa.int64()), ("n", pa.int64())]),
                WEEKLY_MAX_WEEKS)
    if t is None:
        raise ValueError("weekly_growth: week count exceeds "
                         f"{WEEKLY_MAX_WEEKS}")
    if not t.num_rows:
        return rd.from_arrow(pa.table(
            {"week": pa.array([], pa.int64()),
             "n": pa.array([], pa.int64()),
             "delta": pa.array([], pa.int64()),
             "pct_milli": pa.array([], pa.int64())}))
    w = t["week"].to_numpy()
    c = t["n"].to_numpy()
    order = np.argsort(w)
    w, c = w[order], c[order]
    # LAG over the ORDERED week axis: gaps in the calendar still use
    # the previous OBSERVED week (SQL LAG over ORDER BY week)
    delta = np.zeros(len(w), dtype=np.int64)
    pct = np.zeros(len(w), dtype=np.int64)
    if len(w) > 1:
        d = c[1:] - c[:-1]
        delta[1:] = d
        t = d * 1000
        # DuckDB's integer // TRUNCATES toward zero on negative
        # numerators (numpy // floors) — measured -194 vs -195
        pct[1:] = np.where(t >= 0, t // c[:-1], -((-t) // c[:-1]))
    t = pa.table({
        "week": pa.array(w),
        "n": pa.array(c),
        "delta": pa.array(delta),
        "pct_milli": pa.array(pct)})
    return rd.from_arrow(t)


def transitions(sf_dir: str):
    """Event-type transition (Markov) matrix: per-user consecutive
    event-type bigrams in (ts, event_id) order — the LAG self-pair,
    distributed as ONE user-hash shuffle + a vectorized shift kernel
    per partition (the order_gap shape), then a |types|^2-bounded
    count aggregate.  First event per user has no predecessor and
    emits nothing (SQL LAG NULL)."""

    path = f"{sf_dir}/events.parquet"
    ev = read_table(path, ["event_id", "user_id", "ts", "event_type"])

    def pair_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        uid = g["user_id"].to_numpy()
        et = g["event_type"]
        same = uid[1:] == uid[:-1]
        return pa.table({"from_type": et[:-1].filter(same),
                         "to_type": et[1:].filter(same)})

    pairs = partitioned(ev, "user_id", pair_part,
                        {"from_type": pa.string(), "to_type": pa.string()},
                        rows_hint=_parquet_rows(path))
    return aggregate(
        pairs, ["from_type", "to_type"], {"n": ("from_type", "count")},
        {"from_type": pa.string(), "to_type": pa.string(), "n": pa.int64()})


def hash_sample(sf_dir: str, pct: int = 10):
    """Deterministic hash-based sampling (reproducible across cluster
    sizes, unlike random_sample): keep rows where
    (doc_id % 100 * 2654435761) % 100 < pct (mod-before-multiply keeps
    the product overflow-free at any int64 id)."""

    ds = read_table(f"{sf_dir}/documents.parquet", ["doc_id", "lang"])

    def pick(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy()
        keep = (d % 100 * 2654435761) % 100 < pct
        return batch.filter(pa.array(keep))

    return ds.map_batches(pick, batch_format="pyarrow",
                          zero_copy_batch=True)


HRW_SHARDS = 16            # rendezvous shard count (oracle contract)
HRW_MOD = (1 << 31) - 1    # Mersenne-31 universal-hash field


def _hrw_coeffs(n_shards: int, seed: int = 20250820):
    """Fixed-seed per-shard universal-hash coefficients (the dedup
    _rng_coeffs convention — literals embedded into the SQL oracle)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, HRW_MOD, n_shards, dtype=np.int64)
    b = rng.integers(0, HRW_MOD, n_shards, dtype=np.int64)
    return a, b


HRW_A, HRW_B = _hrw_coeffs(HRW_SHARDS)


def rendezvous_shards(sf_dir: str, n_shards: int = HRW_SHARDS):
    """Rendezvous / highest-random-weight shard assignment (Thaler &
    Ravishankar '98 — the consistent-sharding scheme behind resumable
    partitioned output): each document goes to the shard maximizing
    ``h_s(doc) = (A_s * (doc_id % M) + B_s) % M`` (Mersenne-31
    universal hashes, ties to the lowest shard id).  Removing a shard
    moves ONLY that shard's documents (the HRW minimal-disruption
    property — pinned by a pytest), which is exactly what a 100 TB
    partitioned writer wants when a shard range must be rebuilt.

    Output: per-shard (shard, n_docs, id_sum) — counts plus an id
    checksum, one tiny groupby after a batch-local argmax; the
    (docs x shards) score matrix never leaves the task."""

    a, b = (HRW_A, HRW_B) if n_shards == HRW_SHARDS \
        else _hrw_coeffs(n_shards)

    def assign(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy() % HRW_MOD
        # (n, S) scores; argmax picks the FIRST max = lowest shard id
        sc = (d[:, None] * a[None, :] + b[None, :]) % HRW_MOD
        sh = np.argmax(sc, axis=1).astype(np.int64)
        return pa.table({"shard": pa.array(sh),
                         "doc_id": batch["doc_id"]})

    return aggregate(
        read_table(f"{sf_dir}/documents.parquet", ["doc_id"]).map_batches(
            assign, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None),
        "shard", {"n_docs": ("shard", "count"),
                  "id_sum": ("doc_id", "sum")},
        {"shard": pa.int64(), "n_docs": pa.int64(), "id_sum": pa.int64()})


PRI_HMOD = 1_000_000_007   # uniform grid for the pseudo-random u
PRI_HMULT = 2_654_435_761  # (id % MOD) * MULT stays < 2^63
PRI_HADD = 1_013_904_223


def weighted_sample(sf_dir: str, k: int = 50):
    """Priority sampling (Duffield/Lund/Thorup): a one-pass,
    MERGEABLE weighted sample without replacement — each row gets
    priority w / u (w = n_chars, u = deterministic hash-uniform in
    (0,1]); the global sample is the top-k by priority.  The training
    analog: pick documents proportionally to length without a shuffle
    or a global RNG sequence.

    Scale shape: per-batch partial top-k (one argpartition per batch,
    <= k rows per block cross the wire), then one tiny global sort —
    the same partial-top-k reduce as ann_topk.  Every float op
    (u = (h+1)/MOD, pri = w/u) is a single correctly-rounded IEEE
    double in the same order as the SQL mirror, so the kept set and
    the priority VALUES are bit-exact."""

    ds = read_table(f"{sf_dir}/documents.parquet", ["doc_id", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy()
        w = batch["n_chars"].to_numpy().astype(np.float64)
        h = ((d % PRI_HMOD) * PRI_HMULT + PRI_HADD) % PRI_HMOD
        u = (h + 1).astype(np.float64) / float(PRI_HMOD)
        pri = w / u
        if len(pri) > k:
            idx = np.argpartition(-pri, k)[:k]
        else:
            idx = np.arange(len(pri))
        return pa.table({
            "doc_id": pa.array(d[idx]),
            "n_chars": pa.array(batch["n_chars"].to_numpy()[idx]),
            "pri": pa.array(pri[idx]),
        })

    return ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .sort(["pri", "doc_id"], descending=[True, False]).limit(k)


def stratified_sample(sf_dir: str, k: int = 5):
    """Deterministic stratified sampling: the first ``k`` documents per
    source, ranked by a reproducible integer hash — the data-mixing
    primitive of a training pipeline (equal-ish representation per
    stratum regardless of stratum size), stable across cluster sizes.

    Rank hash: (doc_id % M31 * 2654435761) % M31 (mod-before-multiply:
    product < 2^63 at any int64 id), ties broken by doc_id.  Strata are
    hash-partitioned by an md5-derived int key, then ONE vectorized
    lexsort+run-rank kernel per partition handles all its strata."""
    import hashlib

    M = (1 << 31) - 1
    K = 2654435761

    ds = read_table(f"{sf_dir}/documents.parquet", ["doc_id", "source"])

    def keyed(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy()
        h = (d % M * K) % M
        # md5 per UNIQUE source only (stratum cardinality << rows), then
        # a vectorized inverse-index expansion — same idiom as
        # dedup._hash_tokens
        src = np.asarray(batch["source"].to_pylist(), dtype=object)
        uniq, inv = np.unique(src, return_inverse=True)
        ukeys = np.fromiter(
            (int(hashlib.md5(s.encode()).hexdigest()[:15], 16) % M
             for s in uniq.tolist()),
            dtype=np.int64, count=len(uniq))
        skey = ukeys[inv]
        return pa.table({"source": batch["source"], "doc_id": batch["doc_id"],
                         "h": pa.array(h), "skey": pa.array(skey)})

    def rank_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("source", "ascending"), ("h", "ascending"),
                       ("doc_id", "ascending")])
        src = g["source"].to_numpy()
        starts, sizes = runs(src)
        rnk = np.arange(len(g)) - np.repeat(starts, sizes) + 1
        return g.append_column("rnk", pa.array(rnk.astype(np.int64))) \
            .filter(rnk <= k)

    base = ds.map_batches(keyed, batch_format="pyarrow",
                          zero_copy_batch=True)
    return partitioned(
        base, "skey", rank_part,
        {"source": pa.string(), "doc_id": pa.int64(), "rnk": pa.int64()},
        rows_hint=_parquet_rows(f"{sf_dir}/documents.parquet"))


def union_counts(sf_dir: str):
    """Set-op demo: union of region + nation name columns with source
    tags, counted per source (Dataset.union)."""

    r = read_table(f"{sf_dir}/region.parquet", ["r_name"])
    n = read_table(f"{sf_dir}/nation.parquet", ["n_name"])

    def tag(src):
        def fn(batch: pa.Table) -> pa.Table:
            name = batch[batch.column_names[0]]
            return pa.table({"name": name,
                             "src": pa.array([src] * len(batch))})
        return fn

    u = r.map_batches(tag("region"), batch_format="pyarrow").union(
        n.map_batches(tag("nation"), batch_format="pyarrow"))
    return aggregate(
        u,
        "src", {"n": ("src", "count")},
        {"src": pa.string(), "n": pa.int64()})


def events_sliding(sf_dir: str):
    """Sliding windows: 1-hour windows hopping every 30 minutes — each
    event lands in exactly two windows (flat emit to both owners, then
    the same grouped aggregate as the tumbling case)."""

    ev = read_table(f"{sf_dir}/events.parquet", ["event_type", "ts"])

    def emit(batch: pa.Table) -> pa.Table:
        ts = batch["ts"]
        half = pc.floor_temporal(ts, multiple=30, unit="minute")
        prev = pc.add(half, pa.scalar(-1800, pa.duration("s")))
        t1 = pa.table({"event_type": batch["event_type"],
                       "window_start": half})
        t2 = pa.table({"event_type": batch["event_type"],
                       "window_start": prev})
        return pa.concat_tables([t1, t2]).combine_chunks()

    return aggregate(
        ev.map_batches(emit, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["event_type", "window_start"], {"n_events": ("event_type", "count")},
        {"event_type": pa.string(), "window_start": pa.timestamp("us"),
         "n_events": pa.int64()})


def sessionize(sf_dir: str, gap_minutes: int = 30):
    """Session windows per user: events sorted by ts within user; a new
    session starts when the gap to the previous event exceeds
    ``gap_minutes``.  Emits (user_id, session_idx, n_events,
    start_ts, end_ts).  Oracle: SQL window functions (lag + cumulative
    sum over the gap indicator)."""

    ev = read_table(f"{sf_dir}/events.parquet", ["user_id", "ts"])

    gap_us = gap_minutes * 60 * 1_000_000

    def sessions_part(g: pa.Table) -> pa.Table:
        # ONE vectorized kernel for every user in the partition:
        # sort by (user, ts), gap/new-user flags, per-user cumsum via
        # global cumsum minus run-start offsets
        g = g.sort_by([("user_id", "ascending"), ("ts", "ascending")])
        ts = pc.cast(g["ts"], pa.int64()).to_numpy()
        uid = g["user_id"].to_numpy()
        newu = np.ones(len(g), dtype=bool)
        newu[1:] = uid[1:] != uid[:-1]
        is_new = newu.copy()
        is_new[1:] |= (ts[1:] - ts[:-1]) > gap_us
        cs = np.cumsum(is_new.astype(np.int64))
        starts = np.flatnonzero(newu)
        sizes = np.diff(np.concatenate([starts, [len(g)]]))
        sess = cs - np.repeat(cs[starts] - 1, sizes)
        a = pa.table({"user_id": uid, "session_idx": sess, "ts": g["ts"]}) \
            .group_by(["user_id", "session_idx"]).aggregate(
                [([], "count_all"), ("ts", "min"), ("ts", "max")])
        return pa.table({"user_id": a["user_id"],
                         "session_idx": a["session_idx"],
                         "n_events": a["count_all"], "start_ts": a["ts_min"],
                         "end_ts": a["ts_max"]})

    return partitioned(
        ev, "user_id", sessions_part,
        {"user_id": pa.int64(), "session_idx": pa.int64(),
         "n_events": pa.int64(), "start_ts": pa.timestamp("us"),
         "end_ts": pa.timestamp("us")},
        rows_hint=_parquet_rows(f"{sf_dir}/events.parquet"))


def asof_prior_anchor(sf_dir: str, anchor_type: str = "purchase"):
    """Backward as-of join, the classic Ray-Data gap: every event is
    joined to the same user's latest STRICTLY-prior anchor event
    (``event_type == anchor_type``), null if none exists yet.

    Scale shape: one hash-partition shuffle on user_id, then ONE
    ``pd.merge_asof`` (C merge over two sorted frames) per partition —
    no per-key Python, no pairwise blowup.  Partitioning assumption:
    a single user's events fit in a partition (bounded by
    ``partitions_for``'s per-partition row target).

    Tie rule (shared with the SQL mirror): among equal anchor
    timestamps the max event_id wins — the right frame is sorted by
    (ts, event_id) and merge_asof takes the last matching row.

    No-anchor rows are sentinel-filled (anchor_event_id=-1,
    anchor_ts=epoch 0) so the output carries plain non-null
    int64/timestamp columns: nullable Int64/NaT hash differently
    across pandas/duckdb representations even when values agree.
    """

    ev = read_table(f"{sf_dir}/events.parquet",
                    ["event_id", "user_id", "ts", "event_type"])

    def asof_part(t: pa.Table) -> pa.Table:
        g = t.to_pandas().sort_values(["ts", "event_id"],
                                      kind="stable").reset_index(drop=True)
        anchors = g.loc[g["event_type"] == anchor_type,
                        ["user_id", "ts", "event_id"]].copy()
        anchors["anchor_ts"] = anchors["ts"]
        m = pd.merge_asof(g, anchors, on="ts", by="user_id",
                          direction="backward",
                          allow_exact_matches=False,
                          suffixes=("", "_anchor"))
        m["anchor_event_id"] = (
            m["event_id_anchor"].fillna(-1).astype("int64"))
        m["anchor_ts"] = m["anchor_ts"].fillna(pd.Timestamp(0))
        return pa.Table.from_pandas(m, preserve_index=False)

    return partitioned(
        ev, "user_id", asof_part,
        {"event_id": pa.int64(), "user_id": pa.int64(),
         "ts": pa.timestamp("us"), "event_type": pa.string(),
         "anchor_event_id": pa.int64(), "anchor_ts": pa.timestamp("us")},
        rows_hint=_parquet_rows(f"{sf_dir}/events.parquet"))


def anchor_window_follow(sf_dir: str, anchor_type: str = "signup",
                         within_minutes: int = 60):
    """Windowed range join: for each anchor event, the count and
    milli-value sum of the same user's events in
    ``(ts, ts + within_minutes]`` — an interval join with NO pairwise
    row blowup.

    Per partition the window aggregate is two ``merge_asof`` probes
    against the user-cumulative count/sum frame: F(ts + w) - F(ts),
    where F is the per-user running (count, sum) at-or-before a time.
    That turns an O(anchors x window_size) join into O(n log n) sorts
    plus two C merges, independent of window width — the shape that
    survives hot users at 100 TB.
    """

    ev = read_table(f"{sf_dir}/events.parquet",
                    ["event_id", "user_id", "ts", "event_type", "value"])
    # microsecond-unit timedelta: parquet timestamps are [us] and a
    # default pd.Timedelta upcasts the probe column to [ns], which
    # merge_asof rejects against the [us] cumulative frame
    w = np.timedelta64(within_minutes * 60 * 10 ** 6, "us")

    def window_part(t: pa.Table) -> pa.Table:
        g = t.to_pandas().sort_values(["ts", "event_id"],
                                      kind="stable").reset_index(drop=True)
        vm = np.round(g["value"].to_numpy() * 1000.0).astype(np.int64)
        cum = pd.DataFrame({
            "user_id": g["user_id"],
            "ts": g["ts"],
            "cum_n": g.groupby("user_id").cumcount().to_numpy() + 1,
            "cum_v": pd.Series(vm).groupby(
                g["user_id"].to_numpy()).cumsum().to_numpy(),
        })
        anchors = g.loc[g["event_type"] == anchor_type,
                        ["event_id", "user_id", "ts"]].reset_index(
                            drop=True)
        # F(ts): events at-or-before the anchor (the anchor itself
        # included — subtracted out, making the window ts-exclusive)
        lo = pd.merge_asof(anchors, cum, on="ts", by="user_id",
                           direction="backward")
        hi_probe = anchors.assign(ts=anchors["ts"] + w)
        hi = pd.merge_asof(hi_probe, cum, on="ts", by="user_id",
                           direction="backward")
        n = (hi["cum_n"].fillna(0) - lo["cum_n"].fillna(0)) \
            .to_numpy().astype(np.int64)
        v = (hi["cum_v"].fillna(0) - lo["cum_v"].fillna(0)) \
            .to_numpy().astype(np.int64)
        return pa.table({
            "event_id": anchors["event_id"], "user_id":
            anchors["user_id"], "ts": anchors["ts"],
            "n_follow": n, "vm_follow": v})

    return partitioned(
        ev, "user_id", window_part,
        {"event_id": pa.int64(), "user_id": pa.int64(),
         "ts": pa.timestamp("us"), "n_follow": pa.int64(),
         "vm_follow": pa.int64()},
        rows_hint=_parquet_rows(f"{sf_dir}/events.parquet"))


TS_HASH_M = (1 << 31) - 1
TS_HASH_K = 2654435761
TS_RANGE_BITS = 23   # hash-range buckets: M31 >> 23 = 256 ranges


def train_shuffle(sf_dir: str, num_shards: int = 8):
    """Deterministic training shuffle: assign every document a shard and
    an exact position inside it — the materialize-shuffled-shards step
    that turns a curated corpus into training input.  Reproducible
    across cluster sizes (pure function of doc_id, unlike
    ``random_shuffle``): h = (doc_id % M31 * K) % M31, shard = h %
    num_shards, pos = 1-based rank of (h, doc_id) within the shard.

    The rank is a distributed two-stage prefix sum (the
    ``pack_sequences`` scan shape — no global sort): (1) counts per
    (shard, hash-range) aggregate to num_shards * 256 rows; the driver
    cumsums per shard and broadcasts the offset table once; (2) each
    hash partition holds complete (shard, range) cells, where one
    vectorized sort + local rank + broadcast offset yields exact global
    positions.  SQL mirror: ROW_NUMBER() OVER (PARTITION BY shard
    ORDER BY h, doc_id)."""
    import ray
    import ray.data as rd

    M, K = TS_HASH_M, TS_HASH_K
    n_ranges = (M >> TS_RANGE_BITS) + 1

    ds = read_table(f"{sf_dir}/documents.parquet", ["doc_id"])

    def keyed(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy()
        h = (d % M * K) % M
        shard = h % num_shards
        rng = h >> TS_RANGE_BITS
        return pa.table({
            "doc_id": batch["doc_id"], "h": pa.array(h),
            "shard": pa.array(shard),
            "cell": pa.array(shard * n_ranges + rng)})

    # NOT materialized: the keyed view is a cheap projection of the
    # doc_id column — re-executing the read for the second pass beats
    # pinning an input-sized table in the object store at 100 TB
    base = ds.map_batches(keyed, batch_format="pyarrow",
                          zero_copy_batch=True)

    t = collect(aggregate(
        base,
        "cell", {"n": ("cell", "count")},
        {"cell": pa.int64(), "n": pa.int64()}),
                pa.schema([("cell", pa.int64()), ("n", pa.int64())]))
    if not t.num_rows:
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "shard": pa.array([], pa.int64()),
            "pos": pa.array([], pa.int64())}))
    cells = t["cell"].to_numpy()
    counts = t["n"].to_numpy()
    order = np.argsort(cells)
    cells, counts = cells[order], counts[order]
    # exclusive cumsum per shard: reset at each shard's first cell
    offs = np.cumsum(counts) - counts
    shard_of = cells // n_ranges
    first = np.ones(len(cells), dtype=bool)
    first[1:] = shard_of[1:] != shard_of[:-1]
    shard_base = offs[np.flatnonzero(first)]
    offs = offs - np.repeat(shard_base,
                            np.diff(np.concatenate(
                                [np.flatnonzero(first), [len(cells)]])))
    state = ray.put((cells, offs))

    def rank_part(g: pa.Table) -> pa.Table:
        cell_keys, cell_offs = ray.get(state)
        g = g.sort_by([("cell", "ascending"), ("h", "ascending"),
                       ("doc_id", "ascending")])
        cellv = g["cell"].to_numpy()
        starts, sizes = runs(cellv)
        local = np.arange(len(g)) - np.repeat(starts, sizes)
        pos = local + cell_offs[np.searchsorted(cell_keys,
                                                cellv)] + 1
        return pa.table({
            "doc_id": g["doc_id"], "shard": g["shard"],
            "pos": pa.array(pos.astype(np.int64))})

    return partitioned(
        base, "cell", rank_part,
        {"doc_id": pa.int64(), "shard": pa.int64(), "pos": pa.int64()},
        rows_hint=_parquet_rows(f"{sf_dir}/documents.parquet"))


FUNNEL_STEPS = ("view", "click", "purchase")


def funnel_stages(sf_dir: str, steps: tuple = FUNNEL_STEPS):
    """Funnel analysis: per user, the deepest strictly-ordered funnel
    stage reached — stage k requires an event of type steps[k-1]
    STRICTLY AFTER the earliest completion time of stage k-1 (classic
    product-analytics funnel; deterministic because each stage keeps
    the MIN qualifying timestamp).

    Scale shape: hash-partitioned on user_id (every user's events
    co-located), ONE vectorized kernel per partition running
    len(steps) groupby-min passes — no per-user Python, no driver
    state.  Returns (user_id, stage) with stage 0..len(steps)."""

    ds = read_table(f"{sf_dir}/events.parquet",
                    ["user_id", "ts", "event_type"])

    def kernel(g: pa.Table) -> pa.Table:
        users, inv = np.unique(g["user_id"].to_numpy(), return_inverse=True)
        ts = pc.cast(g["ts"], pa.int64()).to_numpy()
        et = g["event_type"].to_numpy()
        stage = np.zeros(len(users), dtype=np.int64)
        never = np.iinfo(np.int64).max
        # per user: completion time of the last stage reached (every
        # user has completed stage 0; users that missed a stage never
        # complete the next one)
        done = np.full(len(users), np.iinfo(np.int64).min)
        for k, ev in enumerate(steps, start=1):
            sel = (et == ev) & (ts > done[inv])
            if not sel.any():
                break
            done = np.full(len(users), never)
            np.minimum.at(done, inv[sel], ts[sel])
            stage[done < never] = k
        return pa.table({"user_id": users, "stage": stage})

    return partitioned(
        ds, "user_id", kernel, {"user_id": pa.int64(), "stage": pa.int64()},
        rows_hint=_parquet_rows(f"{sf_dir}/events.parquet"))


ROLLUP_ALL = "ALL"          # sentinel for rolled-up string keys
ROLLUP_HOUR_ALL = -1        # sentinel for rolled-up hour keys


def events_rollup(sf_dir: str):
    """GROUPING-SETS rollup over the events stream: (event_type, hour),
    (event_type), and grand-total aggregates in ONE shuffle — the
    warehouse rollup pattern: every batch emits partials for all three
    levels (key space = 3x types x hours, never rows), then a single
    groupby Sum.  Rolled-up keys use sentinels ('ALL', -1) instead of
    NULLs so the group keys stay non-nullable through Ray's shuffle."""

    ev = read_table(f"{sf_dir}/events.parquet", ["event_type", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        hour = pc.cast(pc.floor_temporal(batch["ts"], unit="hour"),
                       pa.timestamp("us"))
        # epoch-hour as int64 so the rolled-up sentinel stays one dtype
        hkey = pc.divide(pc.cast(hour, pa.int64()), 3600 * 1000000)
        vm = pc.cast(pc.round(pc.multiply(batch["value"], 1000.0)),
                     pa.int64())
        t = pa.table({"event_type": batch["event_type"],
                      "hour": pc.cast(hkey, pa.int64()), "vm": vm})
        levels = []
        for lvl in range(3):
            et = (t["event_type"] if lvl < 2
                  else pa.array([ROLLUP_ALL] * len(t), pa.string()))
            hr = (t["hour"] if lvl < 1
                  else pa.array(np.full(len(t), ROLLUP_HOUR_ALL,
                                        dtype=np.int64)))
            lt = pa.table({
                "level": pa.array(np.full(len(t), lvl, dtype=np.int64)),
                "event_type": et, "hour": hr, "vm": t["vm"]})
            g = lt.group_by(["level", "event_type", "hour"]).aggregate(
                [("vm", "sum"), ("vm", "count")])
            levels.append(pa.table({
                "level": g["level"], "event_type": g["event_type"],
                "hour": g["hour"], "v": g["vm_sum"],
                "n": pc.cast(g["vm_count"], pa.int64())}))
        return pa.concat_tables(levels)

    return aggregate(
        ev.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["level", "event_type", "hour"], {"value_milli": ("v", "sum"),
         "n_events": ("n", "sum")},
        {"level": pa.int64(), "event_type": pa.string(), "hour": pa.int64(),
         "value_milli": pa.int64(), "n_events": pa.int64()})


def distinct_users(sf_dir: str):
    """Exact COUNT(DISTINCT user_id) per event_type via two-stage
    distinct: per-batch (type, user) dedup partials -> one global
    distinct groupby -> a type-bounded count aggregate.  The shuffle
    carries one row per DISTINCT (type, user) pair, never the event
    stream."""

    ev = read_table(f"{sf_dir}/events.parquet", ["event_type", "user_id"])

    pairs = aggregate(ev, ["event_type", "user_id"], {},
                      {"event_type": pa.string(), "user_id": pa.int64()})
    return aggregate(
        pairs, "event_type", {"n_users": ("event_type", "count")},
        {"event_type": pa.string(), "n_users": pa.int64()})


def length_percentile_rank(sf_dir: str):
    """Global order statistics: each document's exact rank and
    milli-percentile by (n_chars, doc_id) order — the corpus-wide
    percentile feature of a quality-scoring pipeline, WITHOUT a global
    sort: ranks come from the two-stage distributed prefix sum
    (per-length counts -> broadcast exclusive cumsum over the sorted
    length histogram -> per-partition local rank + offset), the same
    scan shape as ``train_shuffle``/``pack_sequences``.  The driver
    state is one row per DISTINCT length (value-space-bounded)."""
    import ray
    import ray.data as rd

    ds = read_table(f"{sf_dir}/documents.parquet", ["doc_id", "text"])

    def keyed(batch: pa.Table) -> pa.Table:
        n = pc.cast(pc.utf8_length(batch["text"]), pa.int64())
        return pa.table({"doc_id": batch["doc_id"], "n_chars": n})

    base = ds.map_batches(keyed, batch_format="pyarrow",
                          zero_copy_batch=True)

    def lengths(batch: pa.Table) -> pa.Table:
        return pa.table({"L": batch["n_chars"]})

    t = collect(aggregate(
        base.map_batches(lengths, batch_format="pyarrow",
                         zero_copy_batch=True, batch_size=None),
        "L", {"n": ("L", "count")},
        {"L": pa.int64(), "n": pa.int64()}),
                pa.schema([("L", pa.int64()), ("n", pa.int64())]))
    if not t.num_rows:
        return rd.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "n_chars": pa.array([], pa.int64()),
            "rnk": pa.array([], pa.int64()),
            "pct_milli": pa.array([], pa.int64())}))
    L = t["L"].to_numpy()
    c = t["n"].to_numpy()
    order = np.argsort(L)
    L, c = L[order], c[order]
    offs = np.cumsum(c) - c
    total = int(c.sum())
    state = ray.put((L, offs))

    def rank_part(g: pa.Table) -> pa.Table:
        lens, offsets = ray.get(state)
        g = g.sort_by([("n_chars", "ascending"), ("doc_id", "ascending")])
        nc = g["n_chars"].to_numpy()
        starts, sizes = runs(nc)
        local = np.arange(len(g)) - np.repeat(starts, sizes)
        rnk = local + offsets[np.searchsorted(lens, nc)] + 1
        pct = ((rnk - 1) * 1000 // max(1, total - 1)) \
            if total > 1 else np.zeros(len(g), dtype=np.int64)
        return pa.table({
            "doc_id": g["doc_id"], "n_chars": nc,
            "rnk": rnk.astype(np.int64),
            "pct_milli": np.asarray(pct, dtype=np.int64)})

    return partitioned(
        base, "n_chars", rank_part,
        {"doc_id": pa.int64(), "n_chars": pa.int64(), "rnk": pa.int64(),
         "pct_milli": pa.int64()},
        rows_hint=_parquet_rows(f"{sf_dir}/documents.parquet"))


RET_DAY_US = 86_400_000_000  # one day in epoch microseconds


def retention(sf_dir: str, *, broadcast_cap: int = 5_000_000):
    """Cohort retention matrix over the events stream: users are
    cohorted by their FIRST active day, and each (cohort_day,
    day_offset) cell counts the distinct users from that cohort active
    offset days later — the standard product-analytics retention
    triangle, built scale-first:

    - activity is reduced to DISTINCT (user_id, day) pairs with
      per-batch pre-dedup before the one global distinct groupby (the
      shuffle carries user-days, never raw events);
    - the first-day map (one row per user) is BROADCAST (``ray.put`` +
      sorted-array ``searchsorted`` probe) under ``broadcast_cap``
      users, else joined with Ray's native hash join sized by
      ``join_partitions_for`` on the user-day side;
    - day keys are integer floor epoch-days (``epoch_us // 86400e6``,
      same arithmetic in the DuckDB oracle), so the result is exact."""
    import ray

    from .pools import spill_dir

    ev = read_table(f"{sf_dir}/events.parquet", ["user_id", "ts"])

    def day_partial(batch: pa.Table) -> pa.Table:
        day = batch["ts"].to_numpy().astype("datetime64[us]") \
            .astype(np.int64) // RET_DAY_US
        t = pa.table({"user_id": batch["user_id"],
                      "day": pa.array(day)})
        return t

    # the distinct user-day table is consumed twice (first-day groupby +
    # cohort attach): spill it to parquet scratch instead of recomputing
    # the distinct shuffle or pinning it in plasma (minhash band pattern)
    spill = spill_dir("retention_userdays")
    aggregate(
        ev.map_batches(day_partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["user_id", "day"], {},
        {"user_id": pa.int64(), "day": pa.int64()}).write_parquet(spill)

    def user_days_ds():
        return read_table(spill, ["user_id", "day"])

    # first-day map: one row per user
    first = aggregate(
        user_days_ds(),
        "user_id", {"cohort_day": ("day", "min")},
        {"user_id": pa.int64(), "cohort_day": pa.int64()})

    firsts = collect(first, pa.schema([("user_id", pa.int64()),
                                       ("cohort_day", pa.int64())]),
                     broadcast_cap)

    def cell_cols(batch: pa.Table) -> pa.Table:
        """(cohort_day, day_offset) rows; input rows are distinct
        user-days, so their COUNT is distinct users."""
        return pa.table({"cohort_day": batch["cohort_day"],
                         "day_offset": pc.subtract(batch["day"],
                                                   batch["cohort_day"])})

    if firsts is not None:
        u = firsts["user_id"].to_numpy()
        order = np.argsort(u)
        u = u[order]
        cd = firsts["cohort_day"].to_numpy()[order]
        fref = ray.put((u, cd))

        def attach_cohort(batch: pa.Table) -> pa.Table:
            users, cohort = ray.get(fref)
            idx = np.searchsorted(users, batch["user_id"].to_numpy())
            b = batch.append_column("cohort_day", pa.array(cohort[idx]))
            return cell_cols(b)

        cells = user_days_ds().map_batches(attach_cohort,
                                           batch_format="pyarrow")
    else:
        # big-user-space path: native hash join sized by the user-day
        # side (the user count is only known to exceed the cap)
        joined = user_days_ds().join(
            first, join_type="inner",
            num_partitions=join_partitions_for((broadcast_cap + 1) * 4),
            on=("user_id",))
        cells = joined.map_batches(cell_cols, batch_format="pyarrow")

    return aggregate(
        cells, ["cohort_day", "day_offset"],
        {"n_users": ("cohort_day", "count")},
        {"cohort_day": pa.int64(), "day_offset": pa.int64(),
         "n_users": pa.int64()})


def props_extract(sf_dir: str):
    """Semi-structured metadata extraction: pull the integer ``k`` field
    out of the JSON ``props`` string column with ONE vectorized RE2
    extraction per batch (``pc.extract_regex`` — no per-row JSON
    parser), then aggregate per event_type: row count, extracted count,
    sum/min/max of k.  Both sides use RE2 ('"k":\\s*(-?\\d+)'), so the
    DuckDB ``regexp_extract`` oracle is exact."""

    ev = read_table(f"{sf_dir}/events.parquet", ["event_type", "props"])

    def cols(batch: pa.Table) -> pa.Table:
        m = pc.extract_regex(batch["props"],
                             pattern=r'"k":\s*(?P<v>-?\d+)')
        k = pc.cast(pc.struct_field(m, "v"), pa.int64())
        has = pc.cast(pc.is_valid(k), pa.int64())
        k0 = pc.fill_null(k, 0)
        return pa.table({"event_type": batch["event_type"],
                         "k": k0, "has": has,
                         # min/max must ignore misses: sentinel to extremes
                         "kmin": pc.fill_null(k, np.iinfo(np.int64).max),
                         "kmax": pc.fill_null(k, np.iinfo(np.int64).min)})

    agg = aggregate(
        ev.map_batches(cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        "event_type", {"n_events": ("has", "count"),
                       "n_with_k": ("has", "sum"),
                       "sum_k": ("k", "sum"),
                       "min_k": ("kmin", "min"),
                       "max_k": ("kmax", "max")},
        {"event_type": pa.string(), "n_events": pa.int64(),
         "n_with_k": pa.int64(), "sum_k": pa.int64(), "min_k": pa.int64(),
         "max_k": pa.int64()})

    def finish(batch: pa.Table) -> pa.Table:
        """NULL the min/max sentinels for groups with zero extractions
        (matches SQL MIN/MAX over an empty set)."""
        none = pc.equal(batch["n_with_k"], 0)
        return pa.table({
            "event_type": batch["event_type"],
            "n_events": batch["n_events"],
            "n_with_k": batch["n_with_k"],
            "sum_k": batch["sum_k"],
            "min_k": pc.if_else(none, pa.scalar(None, pa.int64()),
                                batch["min_k"]),
            "max_k": pc.if_else(none, pa.scalar(None, pa.int64()),
                                batch["max_k"])})

    return agg.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


def corr_stats(sf_dir: str):
    """Per-group correlation via MERGEABLE sufficient statistics — the
    second-moment member of the mergeable-aggregate family (Sum/Count,
    HLL, CMS, priority sample): per l_returnflag, the Pearson
    correlation, population covariance and stddevs of (quantity,
    discount-in-basis-points).

    Scale shape: each batch emits ONE row per group carrying the six
    integer moments (n, Σq, Σd, Σq², Σd², Σqd); the shuffle is
    key-bounded and the float finish runs on the tiny aggregate.  All
    moments are exact int64 — inputs are guarded to [0, 2^13), so
    every Σx² stays exact int64 up to ~1.4e11 rows per group.  The finish casts each moment to
    double and evaluates the SAME expression tree as the SQL mirror
    (IEEE ops are correctly rounded, so identical op order ⇒ bitwise
    equality — the engine-wide float-exactness convention)."""

    li = read_table(f"{sf_dir}/lineitem.parquet",
                    ["l_returnflag", "l_quantity", "l_discount"])

    def partial(batch: pa.Table) -> pa.Table:
        q = pc.cast(pc.round(batch["l_quantity"]), pa.int64())
        d = pc.cast(pc.round(pc.multiply(batch["l_discount"], 10000.0)),
                    pa.int64())
        qn = q.to_numpy(zero_copy_only=False)
        dn = d.to_numpy(zero_copy_only=False)
        # squares <= 2^26, so the GLOBAL int64 sums are exact up to
        # 2^37 (~1.4e11) rows per group; past that the moments need
        # split-hi/lo accumulators, so fail loudly at the input guard
        # rather than wrap silently downstream
        if len(qn) and (qn.max() >= 1 << 13 or dn.max() >= 1 << 13
                        or qn.min() < 0 or dn.min() < 0):
            raise ValueError("corr_stats moment overflow guard: "
                             "inputs outside [0, 2^13)")
        return pa.table({"l_returnflag": batch["l_returnflag"],
                         "q": q, "d": d,
                         "qq": pa.array(qn * qn), "dd": pa.array(dn * dn),
                         "qd": pa.array(qn * dn)})

    agg = aggregate(
        li.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        "l_returnflag", {"sq": ("q", "sum"),
                         "sd": ("d", "sum"),
                         "sqq": ("qq", "sum"),
                         "sdd": ("dd", "sum"),
                         "sqd": ("qd", "sum"),
                         "n": ("q", "count")},
        {"l_returnflag": pa.string(), "sq": pa.int64(), "sd": pa.int64(),
         "sqq": pa.int64(), "sdd": pa.int64(), "sqd": pa.int64(),
         "n": pa.int64()})

    def finish(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy().astype(np.float64)
        sq = batch["sq"].to_numpy().astype(np.float64)
        sd = batch["sd"].to_numpy().astype(np.float64)
        sqq = batch["sqq"].to_numpy().astype(np.float64)
        sdd = batch["sdd"].to_numpy().astype(np.float64)
        sqd = batch["sqd"].to_numpy().astype(np.float64)
        # Shared expression tree with the SQL mirror — keep in sync.
        covq = n * sqq - sq * sq
        covd = n * sdd - sd * sd
        covqd = n * sqd - sq * sd
        ok = (covq * covd) > 0.0
        corr = np.where(ok, covqd / np.sqrt(covq * covd), 0.0)
        return pa.table({
            "l_returnflag": batch["l_returnflag"],
            "n": batch["n"],
            "corr_qd": pa.array(corr),
            "covar_pop_qd": pa.array(covqd / (n * n)),
            "std_q": pa.array(np.sqrt(covq) / n),
            "std_d": pa.array(np.sqrt(covd) / n)})

    return agg.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


def except_days(sf_dir: str):
    """Distributed set EXCEPT: (user_id, epoch-day) pairs that saw a
    'purchase' but NO 'signup' — the keyed set-difference pattern
    (decontaminate is the broadcast variant; this is the shuffle
    variant for when BOTH sides are corpus-scale).

    One key-bounded shuffle: each batch emits per-(user, day) partial
    flags (had-purchase, had-signup), a single groupby Max merges them,
    and a vectorized filter keeps p=1 ∧ s=0.  No row-level anti-join,
    no driver collect."""

    ev = read_table(f"{sf_dir}/events.parquet",
                    ["user_id", "ts", "event_type"])

    def cols(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(batch["event_type"],
                        value_set=pa.array(["purchase", "signup"]))
        b = batch.filter(keep)
        day = pc.divide(pc.cast(b["ts"], pa.int64()),
                        86_400_000_000)
        return pa.table({
               "user_id": b["user_id"], "d": day,
               "p": pc.cast(pc.equal(b["event_type"], "purchase"),
                            pa.int64()),
               "s": pc.cast(pc.equal(b["event_type"], "signup"),
                            pa.int64())})

    flags = aggregate(
        ev.map_batches(cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["user_id", "d"], {"p": ("p", "max"), "s": ("s", "max")},
        {"user_id": pa.int64(), "d": pa.int64(), "p": pa.int64(),
         "s": pa.int64()})

    def keep_except(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.equal(batch["p"], 1), pc.equal(batch["s"], 0))
        return batch.filter(m).select(["user_id", "d"])

    return flags.map_batches(keep_except, batch_format="pyarrow",
                             zero_copy_batch=True)


def running_total(sf_dir: str, sample_mod: int = 41):
    """Per-user running (cumulative) milli-value sum and event count in
    event-time order — the window-function SUM ... OVER (PARTITION BY
    user ORDER BY ts ROWS UNBOUNDED PRECEDING), distributed: one
    hash-partition shuffle on user_id, then a single vectorized kernel
    per partition (global cumsum minus run-start offsets — the
    sessionize trick).  Only rows with event_id % sample_mod == 0 are
    EMITTED (output stays a bounded sample) but every row contributes
    to the running frame.

    Partitioning assumption (shared with sessionize/asof): one user's
    events fit in a partition."""

    path = f"{sf_dir}/events.parquet"
    ev = read_table(path, ["event_id", "user_id", "ts", "value"])

    def run_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        vm = np.round(g["value"].to_numpy() * 1000.0).astype(np.int64)
        uid = g["user_id"].to_numpy()
        newu = np.ones(len(g), dtype=bool)
        newu[1:] = uid[1:] != uid[:-1]
        starts = np.flatnonzero(newu)
        sizes = np.diff(np.concatenate([starts, [len(g)]]))
        cs = np.cumsum(vm)
        base = cs[starts] - vm[starts]          # sum before each run
        run_v = cs - np.repeat(base, sizes)
        idx = np.arange(len(g), dtype=np.int64)
        run_n = idx - np.repeat(idx[starts], sizes) + 1
        out = pa.table({"event_id": g["event_id"], "user_id": uid,
                        "run_value_milli": run_v, "run_n": run_n})
        return out.filter(g["event_id"].to_numpy() % sample_mod == 0)

    return partitioned(ev, "user_id", run_part,
                       {"event_id": pa.int64(), "user_id": pa.int64(),
                        "run_value_milli": pa.int64(), "run_n": pa.int64()},
                       rows_hint=_parquet_rows(path))


MW_FRAME_PRECEDING = 3      # ROWS BETWEEN 3 PRECEDING AND CURRENT ROW
MW_SAMPLE_MOD = 37          # emit only event_id % 37 == 0 rows


def moving_window(sf_dir: str):
    """Per-user FIXED-WIDTH moving-window aggregate in event-time order
    — SUM/COUNT OVER (PARTITION BY user ORDER BY ts, event_id ROWS
    BETWEEN 3 PRECEDING AND CURRENT ROW), the bounded-frame sibling of
    running_total's unbounded frame.  Distributed the same way: one
    user-hash shuffle, then a vectorized kernel per partition — frame
    sums come from ONE global cumsum (frame = cs[i] - cs[j-1] where j
    clamps to max(run_start, i-3)), no per-row loop, no per-user
    pandas group dispatch.  Values are milli-units so the window sums
    are integer-exact regardless of accumulation order.  Only
    event_id % MW_SAMPLE_MOD rows are EMITTED (bounded output) but
    every row contributes to the frames.

    Partitioning assumption (shared with running_total/sessionize):
    one user's events fit in a partition."""

    path = f"{sf_dir}/events.parquet"
    ev = read_table(path, ["event_id", "user_id", "ts", "value"])
    k = MW_FRAME_PRECEDING

    def win_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        vm = np.round(g["value"].to_numpy() * 1000.0).astype(np.int64)
        uid = g["user_id"].to_numpy()
        newu = np.ones(len(g), dtype=bool)
        newu[1:] = uid[1:] != uid[:-1]
        starts = np.flatnonzero(newu)
        sizes = np.diff(np.concatenate([starts, [len(g)]]))
        cs = np.cumsum(vm)
        idx = np.arange(len(g), dtype=np.int64)
        run_start = np.repeat(starts, sizes)
        j = np.maximum(run_start, idx - k)      # first row of the frame
        prev = j - 1
        before = np.where(prev >= 0, cs[np.maximum(prev, 0)], 0)
        out = pa.table({"event_id": g["event_id"], "user_id": uid,
                        "win_value_milli": cs - before,
                        "win_n": idx - j + 1})
        return out.filter(g["event_id"].to_numpy() % MW_SAMPLE_MOD == 0)

    return partitioned(ev, "user_id", win_part,
                       {"event_id": pa.int64(), "user_id": pa.int64(),
                        "win_value_milli": pa.int64(), "win_n": pa.int64()},
                       rows_hint=_parquet_rows(path))


RJ_BAND_CENTS = 25_000      # quadratic band-edge scale (cents)
RJ_NUM_BANDS = 48           # lo_k = k*k*RJ_BAND_CENTS; last band open


def range_join(sf_dir: str):
    """Range (interval/band) join: every order lands in the price band
    whose ``[lo, hi)`` interval contains it, then per-band aggregates —
    the ip-geolocation / tax-bracket lookup shape.  Band edges are
    IRREGULAR (quadratic, lo_k = k^2 * RJ_BAND_CENTS) so this cannot be
    reduced to arithmetic bucketing; the join is a BROADCAST range
    join: the sorted edge array is a module constant (tiny; at scale it
    would be one ``ray.put`` handle) and every batch resolves its band
    with one vectorized ``np.searchsorted`` — no shuffle touches the
    big side, and the only exchange is the map-side-combined per-band
    partial table (<= RJ_NUM_BANDS rows per batch)."""

    edges = (np.arange(RJ_NUM_BANDS, dtype=np.int64) ** 2
             * RJ_BAND_CENTS)

    ds = read_table(f"{sf_dir}/orders.parquet", ["o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        cents = _cents(batch["o_totalprice"]).to_numpy()
        band = np.searchsorted(edges, cents, side="right") - 1
        if len(band) and band.min() < 0:
            raise ValueError("range_join: price below the first band")
        return pa.table({"band_id": pa.array(band),
                         "n_orders": pa.array(np.ones(len(band), np.int64)),
                         "sum_price_cents": pa.array(cents),
                         "min_price_cents": pa.array(cents),
                         "max_price_cents": pa.array(cents)})

    return aggregate(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        "band_id", {"n_orders": ("n_orders", "sum"),
                    "sum_price_cents": ("sum_price_cents", "sum"),
                    "min_price_cents": ("min_price_cents", "min"),
                    "max_price_cents": ("max_price_cents", "max")},
        {"band_id": pa.int64(), "n_orders": pa.int64(),
         "sum_price_cents": pa.int64(), "min_price_cents": pa.int64(),
         "max_price_cents": pa.int64()})


def order_gap(sf_dir: str):
    """Per-user inter-event gap statistics — the LAG window function
    (gap = ts - lag(ts) OVER (PARTITION BY user ORDER BY ts,
    event_id)) distributed as one user-hash shuffle + a vectorized
    diff kernel.  Ties in ts leave the gap MULTISET unchanged, so the
    aggregates are deterministic under any stable tie order.  Users
    with a single event get n_gaps=0 and sentinel -1 max/min (SQL
    MAX/MIN over an empty window, COALESCEd in the mirror)."""

    path = f"{sf_dir}/events.parquet"
    ev = read_table(path, ["event_id", "user_id", "ts"])

    def gaps_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        ts = pc.cast(g["ts"], pa.int64()).to_numpy()
        uid = g["user_id"].to_numpy()
        starts, n_events = runs(uid)
        n_gaps = n_events - 1
        # the gaps of a user telescope: their sum is last ts - first ts
        sum_gap = ts[starts + n_events - 1] - ts[starts]
        gap = np.empty(len(ts), dtype=np.int64)
        gap[1:] = ts[1:] - ts[:-1]
        # sentinel -1 for single-event users (empty LAG window): plain
        # int64 on both sides — nullable Int64 hash-diverges vs duckdb
        gap[starts] = -1
        max_gap = np.maximum.reduceat(gap, starts) if len(ts) else gap
        gap[starts] = np.iinfo(np.int64).max
        min_gap = np.minimum.reduceat(gap, starts) if len(ts) else gap
        min_gap[n_gaps == 0] = -1
        n = n_gaps.astype(np.float64)
        s = sum_gap.astype(np.float64)
        return pa.table({
            "user_id": uid[starts], "n_events": n_events,
            "n_gaps": n_gaps, "sum_gap_us": sum_gap,
            "max_gap_us": max_gap, "min_gap_us": min_gap,
            "avg_gap_us": np.where(n > 0, s / np.where(n > 0, n, 1.0), 0.0)})

    return partitioned(ev, "user_id", gaps_part,
                       {"user_id": pa.int64(), "n_events": pa.int64(),
                        "n_gaps": pa.int64(), "sum_gap_us": pa.int64(),
                        "max_gap_us": pa.int64(), "min_gap_us": pa.int64(),
                        "avg_gap_us": pa.float64()},
                       rows_hint=_parquet_rows(path))


COOCCUR_DAY_BITS = 20       # epoch-day field width in the packed key
COOCCUR_MAX_TYPES = 64      # per-(user, day) distinct-type bound


def cooccur_types(sf_dir: str):
    """Event-type co-occurrence matrix: for every unordered pair of
    event types, the number of (user, day) combinations where BOTH
    occurred — the market-basket self-join WITHOUT the row blowup: the
    join never runs on rows, only on the distinct (user, day, type)
    set, and pairs are generated inside a per-partition kernel bounded
    by COOCCUR_MAX_TYPES choose 2 per basket."""

    ev = read_table(f"{sf_dir}/events.parquet",
                    ["user_id", "ts", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(batch["ts"], pa.int64()),
                        86_400_000_000)
        uid = batch["user_id"].to_numpy()
        dn = day.to_numpy()
        if len(uid) and (uid.max() >= 1 << (63 - COOCCUR_DAY_BITS)
                         or dn.max() >= 1 << COOCCUR_DAY_BITS
                         or dn.min() < 0 or uid.min() < 0):
            raise ValueError("cooccur_types packed-key range exceeded")
        t = pa.table({
            "uk": pa.array((uid << COOCCUR_DAY_BITS) | dn),
            "event_type": batch["event_type"]})
        return t

    baskets = aggregate(
        ev.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["uk", "event_type"], {},
        {"uk": pa.int64(), "event_type": pa.string()})

    def pairs_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("uk", "ascending"), ("event_type", "ascending")])
        et = g["event_type"]
        starts, sizes = runs(g["uk"].to_numpy())
        if len(sizes) and sizes.max() > COOCCUR_MAX_TYPES:
            raise ValueError("cooccur_types basket exceeds "
                             f"{COOCCUR_MAX_TYPES} distinct types")
        i, j = run_pairs(starts, sizes)
        return pa.table({"ta": et.take(i), "tb": et.take(j)})

    ev_rows = _parquet_rows(f"{sf_dir}/events.parquet")

    def drop_cnt(batch: pa.Table) -> pa.Table:
        return batch.select(["uk", "event_type"])

    pairs = partitioned(
        baskets.map_batches(drop_cnt, batch_format="pyarrow",
                            zero_copy_batch=True),
        "uk", pairs_part,
        {"ta": pa.string(), "tb": pa.string()},
        rows_hint=ev_rows)
    return aggregate(
        pairs,
        ["ta", "tb"], {"n": ("ta", "count")},
        {"ta": pa.string(), "tb": pa.string(), "n": pa.int64()})


GROWTH_MAX_DAYS = 200_000   # driver-fold bound for the per-day tables


def user_growth(sf_dir: str):
    """Daily growth accounting: per epoch-day, total events, distinct
    active users, and NEW users (first-ever event that day) — the
    new-vs-returning attribution rollup.  Three key-bounded aggregates
    over ONE distinct-pair shuffle: (user, day) partials -> global
    distinct; actives = per-day count of the pairs; news = per-day
    count of per-user MIN(day); event counts ride a separate partial
    Sum.  The per-day tables (bounded by the day dimension) arrive
    through a collect that stops past GROWTH_MAX_DAYS rows and raises,
    and are merged driver-side."""
    import ray.data as rd

    ev = read_table(f"{sf_dir}/events.parquet", ["user_id", "ts"])

    def pair_cols(batch: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(batch["ts"], pa.int64()),
                        86_400_000_000)
        return pa.table({"user_id": batch["user_id"], "d": day})

    pairs = aggregate(
        ev.map_batches(pair_cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["user_id", "d"], {"c": ("d", "count")},
        {"user_id": pa.int64(), "d": pa.int64(), "c": pa.int64()})

    per_day = aggregate(
        pairs,
        "d", {"n_active": ("user_id", "count"), "n_events": ("c", "sum")},
        {"d": pa.int64(), "n_active": pa.int64(), "n_events": pa.int64()})

    first = aggregate(pairs, "user_id", {"d": ("d", "min")},
                      {"user_id": pa.int64(), "d": pa.int64()})
    news = aggregate(first, "d", {"n_new": ("user_id", "count")},
                     {"d": pa.int64(), "n_new": pa.int64()})

    act = collect(per_day, pa.schema([("d", pa.int64()),
                                      ("n_events", pa.int64()),
                                      ("n_active", pa.int64())]),
                  GROWTH_MAX_DAYS)
    # every user's first day is an active day, so news never has more
    # days than act
    nw = act is not None and collect(
        news, pa.schema([("d", pa.int64()), ("n_new", pa.int64())]),
        GROWTH_MAX_DAYS)
    if act is None or nw is None:
        raise ValueError("user_growth: day count exceeds "
                         f"{GROWTH_MAX_DAYS}")
    act = act.sort_by("d")
    n_new = np.zeros(act.num_rows, np.int64)
    n_new[np.searchsorted(act["d"].to_numpy(), nw["d"].to_numpy())] = \
        nw["n_new"].to_numpy()
    return rd.from_arrow(pa.table({
        "d": act["d"], "n_events": act["n_events"],
        "n_active_users": act["n_active"], "n_new_users": n_new}))


BJ_M = 1 << 20          # bloom bits (128 KB broadcast mask)
BJ_K = 4                # probes per key
BJ_BROADCAST_KEYS = 5_000_000   # exact-set broadcast ceiling


def bloom_join(sf_dir: str, priority: str = "1-URGENT"):
    """Bloom-prefiltered EXACT semi-join — the shuffle-minimizing join
    pattern for a selective filter side at 100 TB: lineitem rows whose
    order is ``priority``, aggregated per returnflag.

    Plan: (1) build an m-bit Bloom filter over the qualifying
    o_orderkey set with map-side partial DISTINCT bit positions
    (bounded by m, never rows; integer double-hashing, Fibonacci mix)
    and broadcast the 128 KB mask once; (2) probe lineitem batch-local
    — only the ~selectivity + false-positive fraction survives;
    (3) make it EXACT: under BJ_BROADCAST_KEYS qualifying keys the
    exact key set is broadcast for a batch-local isin verify, above it
    the SURVIVORS (not the full table) go through a distributed hash
    semi-join sized by join_partitions_for.  The oracle is the plain
    SQL semi-join — the Bloom stage is pure pruning, invisible in the
    result."""
    import ray

    FIB = np.uint64(0x9E3779B97F4A7C15)
    FIB2 = np.uint64(0xC2B2AE3D27D4EB4F)

    def _h12(keys: np.ndarray):
        k = keys.astype(np.uint64, copy=False)
        h1 = ((k * FIB) >> np.uint64(24)) % np.uint64(BJ_M)
        h2 = (((k * FIB2) >> np.uint64(24)) % np.uint64(BJ_M)) | \
            np.uint64(1)
        return h1.astype(np.int64), h2.astype(np.int64)

    orders = read_table(f"{sf_dir}/orders.parquet",
                        ["o_orderkey", "o_orderpriority"])

    def key_partial(batch: pa.Table) -> pa.Table:
        sel = pc.equal(batch["o_orderpriority"], priority)
        return pa.table({"o_orderkey": batch.filter(sel)["o_orderkey"]})

    keys = orders.map_batches(key_partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    def bits_partial(batch: pa.Table) -> pa.Table:
        kk = batch["o_orderkey"].to_numpy()
        if not len(kk):
            return pa.table({"p": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64())})
        h1, h2 = _h12(kk)
        pos = (h1[:, None] + np.arange(BJ_K)[None, :] * h2[:, None]) \
            % BJ_M
        up = np.unique(pos)
        # the batch's key count rides the first row, so ONE pass over
        # the filter side yields both the bit set and the key count
        c = np.zeros(len(up), np.int64)
        c[0] = len(kk)
        return pa.table({"p": pa.array(up), "c": pa.array(c)})

    mask = np.zeros(BJ_M, dtype=bool)
    key_rows = 0
    for b in aggregate(
        keys.map_batches(bits_partial, batch_format="pyarrow",
                         zero_copy_batch=True, batch_size=None),
        "p", {"c": ("c", "sum")},
        {"p": pa.int64(), "c": pa.int64()}) \
            .iter_batches(batch_size=65536, batch_format="pyarrow"):
        mask[b["p"].to_numpy()] = True
        key_rows += int(b["c"].to_numpy().sum())
    mref = ray.put(mask)

    li = read_table(f"{sf_dir}/lineitem.parquet",
                    ["l_orderkey", "l_returnflag", "l_quantity"])

    def probe(batch: pa.Table) -> pa.Table:
        bm = ray.get(mref)
        kk = batch["l_orderkey"].to_numpy()
        h1, h2 = _h12(kk)
        hit = np.ones(len(kk), dtype=bool)
        for i in range(BJ_K):
            hit &= bm[(h1 + i * h2) % BJ_M]
        return batch.filter(pa.array(hit))

    survivors = li.map_batches(probe, batch_format="pyarrow",
                               zero_copy_batch=True)

    # exact verify: kill Bloom false positives
    if key_rows <= BJ_BROADCAST_KEYS:
        kset = np.unique(collect(keys, pa.schema(
            [("o_orderkey", pa.int64())]))["o_orderkey"].to_numpy())
        kref = ray.put(kset)

        def verify(batch: pa.Table) -> pa.Table:
            ks = ray.get(kref)
            kk = batch["l_orderkey"].to_numpy()
            if not len(ks):
                return batch.slice(0, 0)
            idx = np.searchsorted(ks, kk)
            idx[idx >= len(ks)] = 0
            return batch.filter(pa.array(ks[idx] == kk))

        exact = survivors.map_batches(verify, batch_format="pyarrow",
                                      zero_copy_batch=True)
    else:
        exact = survivors.join(
            aggregate(keys, "o_orderkey", {}, {"o_orderkey": pa.int64()}),
            join_type="inner",
            num_partitions=join_partitions_for(key_rows),
            on=("l_orderkey",), right_on=("o_orderkey",))

    def agg_cols(batch: pa.Table) -> pa.Table:
        q = pc.cast(pc.round(batch["l_quantity"]), pa.int64())
        return pa.table({"l_returnflag": batch["l_returnflag"], "q": q})

    return aggregate(
        exact.map_batches(agg_cols, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None),
        "l_returnflag", {"n": ("q", "count"), "sum_qty": ("q", "sum")},
        {"l_returnflag": pa.string(), "n": pa.int64(), "sum_qty": pa.int64()})


# ---------------------------------------------------------------------------
# TPC-H Q10 / Q14 / Q18 / Q7 analogs — four more canonical join-aggregate
# shapes (returned-item revenue top-k, conditional promo ratio, HAVING
# filter on a grouped sum, fact-fact join with a two-sided dimension
# attach).  The reference has no relational layer (SURVEY §2.4); these
# extend the engine the same way q3_shipping / q5_local_supply do.

Q10_LO_US = 820_454_400_000_000   # 1996-01-01
Q10_HI_US = 836_179_200_000_000   # 1996-07-01
Q10_TOPK = 20


def q10_returned(sf_dir: str):
    """TPC-H Q10 analog — revenue lost to returned items per customer,
    deterministic top-20.

    Scale shape: line-level rows never cross a join — returned-line
    revenue is pre-aggregated per orderkey (map-side partial + one
    groupby) BEFORE the orderkey hash join with the date-filtered
    orders side; the per-customer re-aggregation shrinks the table to
    <= |customers| rows before the customer-attribute hash join (both
    sides corpus-scale at the design point, join_partitions_for
    sized); the nation-name attach is a 25-row broadcast probe; top-k
    is per-batch partial top-k + a k-bounded final reduce, never a
    global sort."""

    li_path = f"{sf_dir}/lineitem.parquet"
    li_rows = _parquet_rows(li_path)
    li = read_table(li_path, ["l_orderkey", "l_extendedprice", "l_discount",
                              "l_returnflag"])

    def rev_cols(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch["l_returnflag"], "R"))
        return pa.table({"l_orderkey": b["l_orderkey"],
                         "rev": _rev_cents(b["l_extendedprice"],
                                           b["l_discount"])})

    rev = aggregate(
        li.map_batches(rev_cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        "l_orderkey", {"rev": ("rev", "sum")},
        {"l_orderkey": pa.int64(), "rev": pa.int64()})

    orders = read_table(f"{sf_dir}/orders.parquet",
                        ["o_orderkey", "o_custkey", "o_orderdate"])

    def o_filter(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["o_orderdate"], pa.int64())
        keep = pc.and_(pc.greater_equal(us, Q10_LO_US),
                       pc.less(us, Q10_HI_US))
        return batch.filter(keep).select(["o_orderkey", "o_custkey"])

    orders = orders.map_batches(o_filter, batch_format="pyarrow",
                                zero_copy_batch=True)
    joined = rev.join(orders, join_type="inner",
                      num_partitions=join_partitions_for(li_rows // 4),
                      on=("l_orderkey",), right_on=("o_orderkey",))

    def cust_partial(batch: pa.Table) -> pa.Table:
        return batch.select(["o_custkey", "rev"])

    per_cust = aggregate(
        joined.map_batches(cust_partial, batch_format="pyarrow"),
        "o_custkey", {"revenue_cents": ("rev", "sum")},
        {"o_custkey": pa.int64(), "revenue_cents": pa.int64()})

    cust_path = f"{sf_dir}/customer.parquet"
    cust = read_table(cust_path,
                      ["c_custkey", "c_name", "c_acctbal", "c_nationkey"])

    def cust_cols(batch: pa.Table) -> pa.Table:
        return pa.table({"c_custkey": batch["c_custkey"],
                         "c_name": batch["c_name"],
                         "acctbal_cents": _cents(batch["c_acctbal"]),
                         "c_nationkey": batch["c_nationkey"]})

    cust = cust.map_batches(cust_cols, batch_format="pyarrow",
                            zero_copy_batch=True)
    per_cust = per_cust.join(
        cust, join_type="inner",
        num_partitions=join_partitions_for(_parquet_rows(cust_path)),
        on=("o_custkey",), right_on=("c_custkey",))

    nat_ref = _name_map_broadcast(f"{sf_dir}/nation.parquet",
                                  "n_nationkey", "n_name")

    def topk_part(batch: pa.Table) -> pa.Table:
        names = _probe_names(nat_ref,
                             batch["c_nationkey"].to_numpy(),
                             "c_nationkey")
        t = pa.table({"c_custkey": batch["o_custkey"],
                      "c_name": batch["c_name"],
                      "revenue_cents": batch["revenue_cents"],
                      "acctbal_cents": batch["acctbal_cents"],
                      "n_name": pa.array(names)})
        idx = pc.sort_indices(t, sort_keys=[
            ("revenue_cents", "descending"), ("c_custkey", "ascending")])
        return t.take(idx[:Q10_TOPK])

    return per_cust.map_batches(topk_part, batch_format="pyarrow") \
        .repartition(1) \
        .map_batches(lambda b: b.take(pc.sort_indices(b, sort_keys=[
            ("revenue_cents", "descending"),
            ("c_custkey", "ascending")])[:Q10_TOPK]),
            batch_format="pyarrow", batch_size=None)


Q14_LO_US = 820_454_400_000_000   # 1996-01-01
Q14_HI_US = 852_076_800_000_000   # 1997-01-01


def q14_promo(sf_dir: str):
    """TPC-H Q14 analog — promo revenue share for a shipdate window:
    one row (promo_cents, total_cents, promo_milli).

    Scale shape: the part dimension is reduced to a (partkey,
    is_promo) two-int map BEFORE it moves — _attach_derived's
    broadcast probe under Q5_BROADCAST_KEYS, left_outer hash join
    with a loud null check above it; the conditional sums are
    map-side partials so only two int64 scalars per batch reach the
    final fold."""

    part_path = f"{sf_dir}/part.parquet"
    li_path = f"{sf_dir}/lineitem.parquet"
    li_rows = _parquet_rows(li_path)

    li = read_table(li_path, ["l_partkey", "l_extendedprice", "l_discount",
                              "l_shipdate"])

    def rev_col(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["l_shipdate"], pa.int64())
        keep = pc.and_(pc.greater_equal(us, Q14_LO_US),
                       pc.less(us, Q14_HI_US))
        b = batch.filter(keep)
        return pa.table({"l_partkey": b["l_partkey"],
                         "rev": _rev_cents(b["l_extendedprice"],
                                           b["l_discount"])})

    li = li.map_batches(rev_col, batch_format="pyarrow",
                        zero_copy_batch=True)

    def derive_promo(t: pa.Table) -> np.ndarray:
        return pc.equal(t["p_type"], "PROMO").to_numpy(
            zero_copy_only=False).astype(np.int64)

    li = _attach_derived(li, "l_partkey", "promo", part_path,
                         ["p_partkey", "p_type"], derive_promo,
                         rows_hint=li_rows)

    def sums_partial(batch: pa.Table) -> pa.Table:
        rev = batch["rev"].to_numpy()
        promo = batch["promo"].to_numpy(zero_copy_only=False)
        return pa.table({"pc_": pa.array([int((rev * promo).sum())]),
                         "tc": pa.array([int(rev.sum())])})

    agg = aggregate(
        li.map_batches(sums_partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        [], {"p": ("pc_", "sum"), "t": ("tc", "sum")},
        {"p": pa.int64(), "t": pa.int64()}).take_all()[0]
    p = int(agg["p"] or 0)
    t = int(agg["t"] or 0)
    # empty window -> NULL ratio (the oracle's SUM-over-no-rows shape),
    # not a ZeroDivisionError
    milli = pa.array([p * 1000 // t if t else None], pa.int64())
    return pa.table({"promo_cents": pa.array([p], pa.int64()),
                     "total_cents": pa.array([t], pa.int64()),
                     "promo_milli": milli})


Q18_QTY_MIN = 250   # HAVING sum(quantity) > this
Q18_TOPK = 100


def q18_big_orders(sf_dir: str):
    """TPC-H Q18 analog — large-volume orders: HAVING filter on a
    grouped sum, then order/customer attribute attach and a
    deterministic top-100.

    Scale shape: the HAVING side is a map-side-partial quantity sum
    per orderkey (line rows collapse before the shuffle) and the
    filter keeps a tiny survivor set; both attribute joins are hash
    joins sized on their corpus-scale fact side; top-k never sorts
    globally."""

    li_path = f"{sf_dir}/lineitem.parquet"
    o_path = f"{sf_dir}/orders.parquet"
    li = read_table(li_path, ["l_orderkey", "l_quantity"])

    def qty_cols(batch: pa.Table) -> pa.Table:
        return pa.table({"l_orderkey": batch["l_orderkey"],
                         "q": pc.cast(pc.round(batch["l_quantity"]),
                                      pa.int64())})

    qty = aggregate(
        li.map_batches(qty_cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        "l_orderkey", {"sum_qty": ("q", "sum")},
        {"l_orderkey": pa.int64(), "sum_qty": pa.int64()})
    big = qty.map_batches(
        lambda b: b.filter(pc.greater(b["sum_qty"], Q18_QTY_MIN)),
        batch_format="pyarrow", zero_copy_batch=True)

    orders = read_table(o_path, ["o_orderkey", "o_custkey", "o_orderdate",
                                 "o_totalprice"])

    def o_cols(batch: pa.Table) -> pa.Table:
        return pa.table({"o_orderkey": batch["o_orderkey"],
                         "o_custkey": batch["o_custkey"],
                         "o_orderdate": batch["o_orderdate"],
                         "total_cents": _cents(batch["o_totalprice"])})

    orders = orders.map_batches(o_cols, batch_format="pyarrow",
                                zero_copy_batch=True)
    big = big.join(orders, join_type="inner",
                   num_partitions=join_partitions_for(
                       _parquet_rows(o_path)),
                   on=("l_orderkey",), right_on=("o_orderkey",))

    cust_path = f"{sf_dir}/customer.parquet"
    cust = read_table(cust_path, ["c_custkey", "c_name"])
    big = big.join(cust, join_type="inner",
                   num_partitions=join_partitions_for(
                       _parquet_rows(cust_path)),
                   on=("o_custkey",), right_on=("c_custkey",))

    def topk_part(batch: pa.Table) -> pa.Table:
        t = pa.table({"o_orderkey": batch["l_orderkey"],
                      "o_custkey": batch["o_custkey"],
                      "c_name": batch["c_name"],
                      "o_orderdate": batch["o_orderdate"],
                      "total_cents": batch["total_cents"],
                      "sum_qty": batch["sum_qty"]})
        idx = pc.sort_indices(t, sort_keys=[
            ("total_cents", "descending"), ("o_orderkey", "ascending")])
        return t.take(idx[:Q18_TOPK])

    def topk_final(b: pa.Table) -> pa.Table:
        return b.take(pc.sort_indices(b, sort_keys=[
            ("total_cents", "descending"),
            ("o_orderkey", "ascending")])[:Q18_TOPK])

    return big.map_batches(topk_part, batch_format="pyarrow") \
        .repartition(1) \
        .map_batches(topk_final, batch_format="pyarrow",
                     batch_size=None)


Q7_LO_US = 820_454_400_000_000   # 1996-01-01
Q7_HI_US = 883_612_800_000_000   # 1998-01-01


def q7_volume(sf_dir: str):
    """TPC-H Q7 analog — shipping volume between DIFFERENT nations,
    grouped by (supplier nation, customer nation, order year).

    Scale shape: q5_local_supply's star-join plan with the equality
    flipped to inequality and the order YEAR carried through the
    orderkey join as an int64 column (epoch-us -> year vectorized on
    the filtered orders side, never per row); the final groupby is
    map-side-partial over <= |nations|^2 x |years| keys and the two
    nation-name attaches are one 25-row broadcast probe."""

    li_path = f"{sf_dir}/lineitem.parquet"
    o_path = f"{sf_dir}/orders.parquet"
    li_rows = _parquet_rows(li_path)

    cust_ref = _keymap_broadcast(f"{sf_dir}/customer.parquet",
                                 "c_custkey", "c_nationkey")
    sup_ref = _keymap_broadcast(f"{sf_dir}/supplier.parquet",
                                "s_suppkey", "s_nationkey")

    orders = read_table(o_path, ["o_orderkey", "o_custkey", "o_orderdate"])

    def o_filter(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["o_orderdate"], pa.int64())
        keep = pc.and_(pc.greater_equal(us, Q7_LO_US),
                       pc.less(us, Q7_HI_US))
        b = batch.filter(keep)
        yr = b["o_orderdate"].to_numpy().astype("datetime64[Y]") \
            .astype(np.int64) + 1970
        return pa.table({"o_orderkey": b["o_orderkey"],
                         "o_custkey": b["o_custkey"],
                         "yr": pa.array(yr)})

    orders = orders.map_batches(o_filter, batch_format="pyarrow",
                                zero_copy_batch=True)
    orders = _attach_nat(orders, "o_custkey", "cnat", cust_ref,
                         f"{sf_dir}/customer.parquet", "c_custkey",
                         "c_nationkey",
                         rows_hint=_parquet_rows(o_path)) \
        .select_columns(["o_orderkey", "cnat", "yr"])

    li = read_table(li_path, ["l_orderkey", "l_suppkey", "l_extendedprice",
                              "l_discount"])

    def rev_col(batch: pa.Table) -> pa.Table:
        return pa.table({"l_orderkey": batch["l_orderkey"],
                         "l_suppkey": batch["l_suppkey"],
                         "rev": _rev_cents(batch["l_extendedprice"],
                                           batch["l_discount"])})

    li = li.map_batches(rev_col, batch_format="pyarrow",
                        zero_copy_batch=True)
    li = _attach_nat(li, "l_suppkey", "snat", sup_ref,
                     f"{sf_dir}/supplier.parquet", "s_suppkey",
                     "s_nationkey", rows_hint=li_rows) \
        .select_columns(["l_orderkey", "snat", "rev"])

    joined = li.join(orders, join_type="inner",
                     num_partitions=join_partitions_for(li_rows // 4),
                     on=("l_orderkey",), right_on=("o_orderkey",))

    def vol_cols(batch: pa.Table) -> pa.Table:
        keep = pc.invert(pc.equal(batch["cnat"], batch["snat"]))
        b = batch.filter(keep)
        return pa.table({"snat": b["snat"], "cnat": b["cnat"],
                         "yr": b["yr"], "rev": b["rev"],
                         "n": pa.array(np.ones(len(b), np.int64))})

    agg = aggregate(
        joined.map_batches(vol_cols, batch_format="pyarrow"),
        ["snat", "cnat", "yr"], {"revenue_cents": ("rev", "sum"),
                                 "n_lines": ("n", "sum")},
        {"snat": pa.int64(), "cnat": pa.int64(), "yr": pa.int64(),
         "revenue_cents": pa.int64(), "n_lines": pa.int64()})

    nat_ref = _name_map_broadcast(f"{sf_dir}/nation.parquet",
                                  "n_nationkey", "n_name")

    def name_attach(batch: pa.Table) -> pa.Table:
        sn = _probe_names(nat_ref, batch["snat"].to_numpy(), "snat")
        cn = _probe_names(nat_ref, batch["cnat"].to_numpy(), "cnat")
        return pa.table({"supp_nation": pa.array(sn),
                         "cust_nation": pa.array(cn),
                         "yr": batch["yr"],
                         "revenue_cents": batch["revenue_cents"],
                         "n_lines": batch["n_lines"]})

    return agg.map_batches(name_attach, batch_format="pyarrow",
                           zero_copy_batch=True)


# ---------------------------------------------------------------------------
# TPC-H Q13 / Q17 / Q22 analogs — three further shapes: outer-join
# zero-count histogram, per-key average threshold, anti-join against a
# global scalar.

def q13_count_dist(sf_dir: str):
    """TPC-H Q13 analog — distribution of customers by order count,
    INCLUDING zero-order customers (the left-outer-join histogram).

    Scale shape: order rows collapse to per-customer counts via
    map-side partials BEFORE the join; the customer key table
    left-outer hash-joins the count table (both corpus-scale,
    join_partitions_for sized); nulls become 0 batch-locally; the
    final histogram groupby is map-side-partial over <= |distinct
    counts| keys."""

    o_path = f"{sf_dir}/orders.parquet"
    c_path = f"{sf_dir}/customer.parquet"
    orders = read_table(o_path, ["o_custkey"])

    cnt = aggregate(
        orders,
        "o_custkey", {"c": ("o_custkey", "count")},
        {"o_custkey": pa.int64(), "c": pa.int64()})

    cust = read_table(c_path, ["c_custkey"])
    joined = cust.join(cnt, join_type="left_outer",
                       num_partitions=join_partitions_for(
                           _parquet_rows(c_path)),
                       on=("c_custkey",), right_on=("o_custkey",))

    def c_count(batch: pa.Table) -> pa.Table:
        # zero-order customers arrive as join nulls
        return pa.table({"c_count": pc.fill_null(
            pc.cast(batch["c"], pa.int64()), 0)})

    return aggregate(
        joined.map_batches(c_count, batch_format="pyarrow"),
        "c_count", {"custdist": ("c_count", "count")},
        {"c_count": pa.int64(), "custdist": pa.int64()})


Q17_BRAND = "Brand#1"


def q17_small_qty(sf_dir: str):
    """TPC-H Q17 analog — revenue from small-quantity lines of one
    brand's parts: quantity below 1/5 of the part's average quantity.
    The fractional-average compare is integer-exact:
    q < (1/5)(tq/cnt)  <=>  q * 5 * cnt < tq.

    Scale shape: the brand's partkey set broadcasts as a sorted-array
    probe under Q5_BROADCAST_KEYS (a native hash join above it); the
    per-part (sum, count) aggregate runs on the brand-filtered lines
    only (part determines brand, so the per-part average is
    unchanged); the threshold join is a hash join sized by the
    filtered line count; the final fold is two int64 scalars."""
    import ray
    import pyarrow.parquet as pq

    part_path = f"{sf_dir}/part.parquet"
    li_path = f"{sf_dir}/lineitem.parquet"
    li_rows = _parquet_rows(li_path)

    ref = None
    if _parquet_rows(part_path) <= Q5_BROADCAST_KEYS:
        t = pq.read_table(part_path, columns=["p_partkey", "p_brand"])
        keep = pc.equal(t["p_brand"], Q17_BRAND)
        k = np.sort(t.filter(keep)["p_partkey"].to_numpy()
                    .astype(np.int64))
        ref = ray.put(k)

    li = read_table(li_path, ["l_partkey", "l_quantity", "l_extendedprice",
                              "l_discount"])

    def line_cols(batch: pa.Table) -> pa.Table:
        return pa.table({
            "l_partkey": batch["l_partkey"],
            "q": pc.cast(pc.round(batch["l_quantity"]), pa.int64()),
            "rev": _rev_cents(batch["l_extendedprice"],
                              batch["l_discount"])})

    li = li.map_batches(line_cols, batch_format="pyarrow",
                        zero_copy_batch=True)

    if ref is not None:
        def probe(batch: pa.Table) -> pa.Table:
            k = ray.get(ref)
            kk = batch["l_partkey"].to_numpy()
            if not len(k):
                return batch.slice(0, 0)
            pos = np.searchsorted(k, kk)
            pos = np.minimum(pos, len(k) - 1)
            return batch.filter(pa.array(k[pos] == kk))

        lines = li.map_batches(probe, batch_format="pyarrow",
                               zero_copy_batch=True)
    else:
        dim = read_table(part_path, ["p_partkey", "p_brand"])
        dim = dim.map_batches(
            lambda b: b.filter(pc.equal(b["p_brand"], Q17_BRAND))
                       .select(["p_partkey"]),
            batch_format="pyarrow", zero_copy_batch=True)
        lines = li.join(dim, join_type="inner",
                        num_partitions=join_partitions_for(li_rows),
                        on=("l_partkey",), right_on=("p_partkey",))
        lines = lines.select_columns(["l_partkey", "q", "rev"])

    # consumed twice (per-part aggregate + threshold join) and bounded
    # by the brand's share of lineitem — pin it (the q15 'consumed
    # twice' pattern) instead of re-running the brand filter lineage
    lines = lines.materialize()

    def pk_q(batch: pa.Table) -> pa.Table:
        return pa.table({"pk": batch["l_partkey"], "q": batch["q"]})

    per_part = aggregate(
        lines.map_batches(pk_q, batch_format="pyarrow"),
        "pk", {"tq": ("q", "sum"), "cnt": ("q", "count")},
        {"pk": pa.int64(), "tq": pa.int64(), "cnt": pa.int64()})

    joined = lines.join(per_part, join_type="inner",
                        num_partitions=join_partitions_for(
                            max(1, li_rows // 25)),
                        on=("l_partkey",), right_on=("pk",))

    def keep_small(batch: pa.Table) -> pa.Table:
        q = batch["q"].to_numpy()
        keep = q * 5 * batch["cnt"].to_numpy() < batch["tq"].to_numpy()
        b = batch.filter(pa.array(keep))
        return pa.table({
            "rc": pa.array([int(b["rev"].to_numpy().sum())]),
            "n": pa.array([len(b)])})

    agg = aggregate(
        joined.map_batches(keep_small, batch_format="pyarrow",
                           batch_size=None),
        [], {"rc": ("rc", "sum"), "n": ("n", "sum")},
        {"rc": pa.int64(), "n": pa.int64()}).take_all()[0]
    return pa.table({
        "rev_cents": pa.array([int(agg["rc"])], pa.int64()),
        "n_lines": pa.array([int(agg["n"])], pa.int64())})


Q22_PRIORITY = "1-URGENT"


def q22_idle_rich(sf_dir: str):
    """TPC-H Q22 analog — positive-balance customers RICHER than the
    global positive-balance average with no urgent orders, grouped by
    nation.  The fractional global average is integer-exact:
    ac > sum/n  <=>  ac * n > sum.

    Scale shape: the global scalar is one two-int aggregate; the
    urgent-customer exclusion broadcasts a sorted distinct-key array
    under Q5_BROADCAST_KEYS and falls back to a native left_anti hash
    join above it (dedup_apply's pattern); the final groupby is
    map-side-partial over <= |nations| keys."""
    import ray

    c_path = f"{sf_dir}/customer.parquet"
    o_path = f"{sf_dir}/orders.parquet"
    cust = read_table(c_path, ["c_custkey", "c_nationkey", "c_acctbal"])

    def pos_cols(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.greater(batch["c_acctbal"], 0.0))
        return pa.table({"c_custkey": b["c_custkey"],
                         "c_nationkey": pc.cast(b["c_nationkey"],
                                                pa.int64()),
                         "ac": _cents(b["c_acctbal"])})

    # consumed twice (global (s, n) scalar + the rich-filter pipeline)
    # and shrunken to three int64 columns — pin it instead of
    # re-scanning customer.parquet
    pos = cust.map_batches(pos_cols, batch_format="pyarrow",
                           zero_copy_batch=True).materialize()

    def sum_partial(batch: pa.Table) -> pa.Table:
        return pa.table({
            "s": pa.array([int(batch["ac"].to_numpy().sum())]),
            "n": pa.array([len(batch)])})

    g = aggregate(
        pos.map_batches(sum_partial, batch_format="pyarrow",
                        batch_size=None),
        [], {"s": ("s", "sum"), "n": ("n", "sum")},
        {"s": pa.int64(), "n": pa.int64()}).take_all()[0]
    s, n = int(g["s"]), int(g["n"])

    urgent = read_table(o_path, ["o_custkey", "o_orderpriority"])
    urgent = urgent.map_batches(
        lambda b: b.filter(pc.equal(b["o_orderpriority"], Q22_PRIORITY))
                   .select(["o_custkey"]),
        batch_format="pyarrow", zero_copy_batch=True)

    def rich(batch: pa.Table) -> pa.Table:
        keep = batch["ac"].to_numpy() * n > s
        return batch.filter(pa.array(keep))

    pos = pos.map_batches(rich, batch_format="pyarrow",
                          zero_copy_batch=True)

    o_rows = _parquet_rows(o_path)
    if o_rows <= Q5_BROADCAST_KEYS:
        uk = np.unique(collect(urgent, pa.schema(
            [("o_custkey", pa.int64())]))["o_custkey"].to_numpy())
        uref = ray.put(uk)

        def anti(batch: pa.Table) -> pa.Table:
            k = ray.get(uref)
            kk = batch["c_custkey"].to_numpy()
            if not len(k):
                return batch
            pos_ = np.searchsorted(k, kk)
            pos_ = np.minimum(pos_, len(k) - 1)
            return batch.filter(pa.array(k[pos_] != kk))

        kept = pos.map_batches(anti, batch_format="pyarrow",
                               zero_copy_batch=True)
    else:
        kept = pos.join(urgent, join_type="left_anti",
                        num_partitions=join_partitions_for(o_rows),
                        on=("c_custkey",), right_on=("o_custkey",))

    def nat_cols(batch: pa.Table) -> pa.Table:
        return pa.table({"c_nationkey": batch["c_nationkey"],
                         "ac": batch["ac"],
                         "one": pa.array(np.ones(len(batch), np.int64))})

    return aggregate(
        kept.map_batches(nat_cols, batch_format="pyarrow"),
        "c_nationkey", {"acct_cents": ("ac", "sum"), "n_cust": ("one", "sum")},
        {"c_nationkey": pa.int64(), "acct_cents": pa.int64(),
         "n_cust": pa.int64()})


DEBOUNCE_US = 21_600_000_000   # 6-hour suppression window


def debounce_scan(uid: np.ndarray, ts: np.ndarray,
                  window: int) -> np.ndarray:
    """Keep-indices of the greedy jump scan over (user, ts) rows that
    are ALREADY sorted by (user, ts, tiebreak): each kept event finds
    its successor with one searchsorted into the user run.  Module
    level so tests drive the exact production kernel."""
    newu = np.ones(len(uid), dtype=bool)
    newu[1:] = uid[1:] != uid[:-1]
    starts = np.flatnonzero(newu)
    ends = np.concatenate([starts[1:], [len(uid)]])
    keep: list[int] = []
    for s0, s1 in zip(starts.tolist(), ends.tolist()):
        run = ts[s0:s1]
        i = 0
        n = s1 - s0
        while i < n:
            keep.append(s0 + i)
            i = int(np.searchsorted(run, run[i] + window,
                                    side="right"))
    return np.array(keep, dtype=np.int64)


def debounce(sf_dir: str, window_us: int = DEBOUNCE_US):
    """Per-user event debounce — keep an event only if it is more than
    ``window_us`` after the last KEPT event of the same user (the
    first event per user is always kept).  This is the genuinely
    SEQUENTIAL stateful streaming op: whether an event survives
    depends on which earlier events survived, so no window function
    expresses it directly (the oracle is a recursive CTE).

    Scale shape: one hash-partition exchange on user_id, then a
    greedy jump scan per user run — each kept event finds its
    successor with ONE searchsorted into the run's (sorted) timestamp
    slice, so the Python loop iterates once per KEPT event, not once
    per event.  Partitioning assumption: one user's events fit in a
    partition (sessionize's assumption).  Tie rule (shared with the
    SQL mirror): events are ordered by (ts, event_id); equal-ts
    followers of a kept event are suppressed (gap must be strictly
    positive)."""

    path = f"{sf_dir}/events.parquet"
    ev = read_table(path, ["event_id", "user_id", "ts"])

    def debounce_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        return g.take(debounce_scan(g["user_id"].to_numpy(),
                                    pc.cast(g["ts"], pa.int64()).to_numpy(),
                                    window_us))

    return partitioned(ev, "user_id", debounce_part,
                       {"event_id": pa.int64(), "user_id": pa.int64(),
                        "ts": pa.timestamp("us")},
                       rows_hint=_parquet_rows(path))


Q15_LO_US = 820_454_400_000_000   # 1996-01-01
Q15_HI_US = 836_179_200_000_000   # 1996-07-01


def q15_top_supplier(sf_dir: str):
    """TPC-H Q15 analog — supplier(s) whose windowed revenue EQUALS the
    global maximum (ties all returned, the view-vs-max shape).

    Scale shape: line rows collapse to per-supplier revenue via
    map-side partials + one groupby (keyspace = |suppliers|); the
    global max is a one-scalar aggregate over that table; the
    equality filter is batch-local; the name attach hash-joins the
    (tiny) winner set against the supplier table sized by the
    supplier side."""
    import ray.data as rd

    li_path = f"{sf_dir}/lineitem.parquet"
    s_path = f"{sf_dir}/supplier.parquet"
    li = read_table(li_path, ["l_suppkey", "l_extendedprice", "l_discount",
                              "l_shipdate"])

    def rev_cols(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["l_shipdate"], pa.int64())
        keep = pc.and_(pc.greater_equal(us, Q15_LO_US),
                       pc.less(us, Q15_HI_US))
        b = batch.filter(keep)
        return pa.table({"l_suppkey": b["l_suppkey"],
                         "rev": _rev_cents(b["l_extendedprice"],
                                           b["l_discount"])})

    rev = aggregate(
        li.map_batches(rev_cols, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        "l_suppkey", {"rc": ("rev", "sum")},
        {"l_suppkey": pa.int64(), "rc": pa.int64()}) \
        .materialize()  # consumed twice (max + filter); |suppliers| rows
    mx_raw = aggregate(rev, [], {"mx": ("rc", "max")},
                       {"mx": pa.int64()}).take_all()[0]["mx"]
    if mx_raw is None:  # empty shipdate window -> empty result, no crash
        return rd.from_arrow(pa.table({
            "s_suppkey": pa.array([], pa.int64()),
            "s_name": pa.array([], pa.string()),
            "revenue_cents": pa.array([], pa.int64())}))
    mx = int(mx_raw)

    winners = rev.map_batches(
        lambda b: b.filter(pc.equal(b["rc"], mx)),
        batch_format="pyarrow", zero_copy_batch=True)
    sup = read_table(s_path, ["s_suppkey", "s_name"])
    out = winners.join(sup, join_type="inner",
                       num_partitions=join_partitions_for(
                           _parquet_rows(s_path)),
                       on=("l_suppkey",), right_on=("s_suppkey",))
    return out.map_batches(
        lambda b: pa.table({"s_suppkey": b["l_suppkey"],
                            "s_name": b["s_name"],
                            "revenue_cents": b["rc"]}),
        batch_format="pyarrow", zero_copy_batch=True)


# Q19 disjunctive predicate arms: (brand test, size floor, qty lo, qty hi).
Q19_ARMS = (("Brand#1", None, 1, 20),
            ("Brand#2", None, 10, 30),
            (None, 40, 20, 40))


def q19_disjunctive(sf_dir: str):
    """TPC-H Q19 analog — revenue under an OR-of-ANDs predicate across
    the lineitem x part join (each arm pairs a part attribute test
    with a quantity range).  One row (rev_cents, n_lines).

    Scale shape: the part dimension collapses to a per-partkey ARM
    BITMASK (3 bits) via _attach_derived (broadcast probe under
    Q5_BROADCAST_KEYS, loud left_outer join above it); the disjunction
    is then a batch-local vectorized any-arm test — no per-arm scan of
    the fact table, no join amplification."""

    part_path = f"{sf_dir}/part.parquet"
    li_path = f"{sf_dir}/lineitem.parquet"
    li_rows = _parquet_rows(li_path)

    def part_bits(t: pa.Table) -> np.ndarray:
        bits = np.zeros(t.num_rows, dtype=np.int64)
        for i, (brand, size, _lo, _hi) in enumerate(Q19_ARMS):
            m = np.ones(t.num_rows, dtype=bool)
            if brand is not None:
                m &= pc.equal(t["p_brand"], brand).to_numpy(
                    zero_copy_only=False)
            if size is not None:
                m &= t["p_size"].to_numpy() >= size
            bits |= m.astype(np.int64) << i
        return bits

    li = read_table(li_path, ["l_partkey", "l_quantity", "l_extendedprice",
                              "l_discount"])

    def line_cols(batch: pa.Table) -> pa.Table:
        return pa.table({
            "l_partkey": batch["l_partkey"],
            "q": pc.cast(pc.round(batch["l_quantity"]), pa.int64()),
            "rev": _rev_cents(batch["l_extendedprice"],
                              batch["l_discount"])})

    li = li.map_batches(line_cols, batch_format="pyarrow",
                        zero_copy_batch=True)
    li = _attach_derived(li, "l_partkey", "bits", part_path,
                         ["p_partkey", "p_brand", "p_size"], part_bits,
                         rows_hint=li_rows)

    def keep_partial(batch: pa.Table) -> pa.Table:
        q = batch["q"].to_numpy()
        bits = batch["bits"].to_numpy(zero_copy_only=False)
        keep = np.zeros(len(q), dtype=bool)
        for i, (_brand, _size, lo, hi) in enumerate(Q19_ARMS):
            keep |= ((bits >> i) & 1).astype(bool) & (q >= lo) & (q <= hi)
        rev = batch["rev"].to_numpy()[keep]
        return pa.table({"rc": pa.array([int(rev.sum())]),
                         "n": pa.array([int(keep.sum())])})

    agg = aggregate(
        li.map_batches(keep_partial, batch_format="pyarrow",
                       batch_size=None),
        [], {"rc": ("rc", "sum"), "n": ("n", "sum")},
        {"rc": pa.int64(), "n": pa.int64()}).take_all()[0]
    return pa.table({
        "rev_cents": pa.array([int(agg["rc"])], pa.int64()),
        "n_lines": pa.array([int(agg["n"])], pa.int64())})


def user_entropy(sf_dir: str):
    """Per-user event-type Shannon entropy (engagement-diversity
    feature), as the integer milli-nat NUMERATOR
    sum_t c_ut * floor(-1000*ln(c_ut/n_u)) — divide by n_events for
    the per-event entropy; the division stays with the caller so the
    result is integer-exact and order-independent (the kl_by_source
    convention).

    Scale shape: ONE hash-partition exchange on user_id, then a
    single vectorized kernel per partition: Arrow group_by
    ((user, type) counts) -> per-user totals by an indexed sum ->
    integer term fold.  No per-user Python, no corpus-scale
    join (the per-user total never leaves the kernel that computed
    it)."""

    path = f"{sf_dir}/events.parquet"
    ev = read_table(path, ["user_id", "event_type"])

    return partitioned(ev, "user_id",
                       entropy_part("user_id", "event_type", "n_events"),
                       {"user_id": pa.int64(), "n_events": pa.int64(),
                        "entropy_numer_milli": pa.int64()},
                       rows_hint=_parquet_rows(path))


def entropy_part(key: str, cat: str, n_col: str):
    """Partition kernel of the integer entropy numerator: per ``key``,
    ``n_col`` = its row count and ``entropy_numer_milli`` =
    sum_cat c * floor(-1000 * ln(c / n)) over its ``cat`` counts."""
    def part(g: pa.Table) -> pa.Table:
        c = g.group_by([key, cat]).aggregate([([], "count_all")])
        cnt = c["count_all"].to_numpy()
        u, inv = np.unique(c[key].to_numpy(), return_inverse=True)
        n = np.zeros(len(u), np.int64)
        np.add.at(n, inv, cnt)
        term = np.floor(-1000.0 * np.log(
            cnt.astype(np.float64) / n[inv].astype(np.float64))) \
            .astype(np.int64)
        e = np.zeros(len(u), np.int64)
        np.add.at(e, inv, cnt * term)
        return pa.table({key: u, n_col: n, "entropy_numer_milli": e})

    return part


def q2_min_cost_supplier(sf_dir: str):
    """TPC-H Q2 analog — for every part, the supplier(s) with the
    MINIMUM account balance among the suppliers that shipped it
    (tie-complete): the correlated-min-through-a-join shape.

    Scale shape: the supply relation is DISTINCT (partkey, suppkey)
    pairs pre-deduped map-side before the one shuffle; the supplier
    cost attaches via _attach_derived (broadcast probe under
    Q5_BROADCAST_KEYS, loud left_outer join above it — acctbal is a
    double, derived to exact cents); per-part min and the
    tie-complete winner filter run in ONE vectorized kernel per hash
    partition (all of a part's pairs co-located), so there is no
    second join against a min table."""

    li_path = f"{sf_dir}/lineitem.parquet"
    li = read_table(li_path, ["l_partkey", "l_suppkey"])

    def dedup_partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"l_partkey": batch["l_partkey"],
                      "l_suppkey": batch["l_suppkey"]})
        g = t.group_by(["l_partkey", "l_suppkey"]).aggregate([])
        return g

    supply = li.map_batches(dedup_partial, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=None)

    def derive_cents(t: pa.Table) -> np.ndarray:
        return _cents(t["s_acctbal"]).to_numpy()

    costed = _attach_derived(supply, "l_suppkey", "cost",
                             f"{sf_dir}/supplier.parquet",
                             ["s_suppkey", "s_acctbal"], derive_cents,
                             rows_hint=_parquet_rows(li_path))

    def winners_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("l_partkey", "ascending"), ("cost", "ascending"),
                       ("l_suppkey", "ascending")])
        pk = g["l_partkey"].to_numpy()
        sk = g["l_suppkey"].to_numpy()
        cost = g["cost"].to_numpy()
        new = np.ones(len(g), dtype=bool)
        new[1:] = pk[1:] != pk[:-1]
        # per-row group-min = cost at the group's first row (sorted)
        gmin = cost[np.flatnonzero(new)]
        gidx = np.cumsum(new) - 1
        keep = cost == gmin[gidx]
        # the map-side pair dedup is per-batch only; the same (part,
        # supplier) pair can arrive from several batches — drop sorted
        # consecutive duplicates here (all co-located by partkey)
        first = np.ones(len(g), dtype=bool)
        first[1:] = (pk[1:] != pk[:-1]) | (sk[1:] != sk[:-1])
        keep &= first
        return pa.table({"l_partkey": pk[keep], "l_suppkey": sk[keep],
                         "acctbal_cents": cost[keep]})

    return partitioned(costed, "l_partkey", winners_part,
                       {"l_partkey": pa.int64(), "l_suppkey": pa.int64(),
                        "acctbal_cents": pa.int64()},
                       rows_hint=_parquet_rows(li_path))


Q4_LATE_US = 5_184_000_000_000   # 60 days in epoch-us


def q4_late_orders(sf_dir: str):
    """TPC-H Q4 analog — orders with AT LEAST ONE line shipped more
    than 60 days after the order date, counted per priority: the
    EXISTS shape with a CROSS-TABLE predicate (l_shipdate vs
    o_orderdate), which no single-side filter can evaluate.

    Scale shape: the one orderkey hash join carries only (orderkey,
    orderdate-us, priority) x (orderkey, shipdate-us); the late test
    is batch-local; the EXISTS dedup is a map-side per-batch distinct
    on orderkey followed by ONE groupby(orderkey) first-priority
    reduce (keyspace = qualifying orders, not lines); the final
    priority count is map-side-partial over <= 5 keys."""

    o_path = f"{sf_dir}/orders.parquet"
    li_path = f"{sf_dir}/lineitem.parquet"
    li_rows = _parquet_rows(li_path)

    orders = read_table(o_path,
                        ["o_orderkey", "o_orderdate", "o_orderpriority"])

    def o_cols(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": batch["o_orderkey"],
            "odate_us": pc.cast(batch["o_orderdate"], pa.int64()),
            "o_orderpriority": batch["o_orderpriority"]})

    orders = orders.map_batches(o_cols, batch_format="pyarrow",
                                zero_copy_batch=True)

    li = read_table(li_path, ["l_orderkey", "l_shipdate"])

    def l_cols(batch: pa.Table) -> pa.Table:
        return pa.table({
            "l_orderkey": batch["l_orderkey"],
            "sdate_us": pc.cast(batch["l_shipdate"], pa.int64())})

    li = li.map_batches(l_cols, batch_format="pyarrow",
                        zero_copy_batch=True)
    joined = li.join(orders, join_type="inner",
                     num_partitions=join_partitions_for(li_rows // 4),
                     on=("l_orderkey",), right_on=("o_orderkey",))

    def late_cols(batch: pa.Table) -> pa.Table:
        late = pc.greater(batch["sdate_us"],
                          pc.add(batch["odate_us"],
                                 pa.scalar(Q4_LATE_US, pa.int64())))
        b = batch.filter(late)
        # per-batch distinct orderkeys (priority rides along — it is
        # functionally dependent on the key)
        return pa.table({"k": b["l_orderkey"],
                      "p": b["o_orderpriority"]})

    qual = aggregate(
        joined.map_batches(late_cols, batch_format="pyarrow"),
        "k", {"p": ("p", "min")},
        {"k": pa.int64(), "p": pa.string()})

    def count_cols(batch: pa.Table) -> pa.Table:
        return pa.table({"o_orderpriority": batch["p"],
                      "one": pa.array(np.ones(batch.num_rows,
                                              np.int64))})

    return aggregate(
        qual.map_batches(count_cols, batch_format="pyarrow"),
        "o_orderpriority", {"n_orders": ("one", "sum")},
        {"o_orderpriority": pa.string(), "n_orders": pa.int64()})


Q6_LO_US = 852_076_800_000_000   # 1997-01-01 epoch-us
Q6_HI_US = 883_612_800_000_000   # 1998-01-01
Q6_DISC_LO = 0.05
Q6_DISC_HI = 0.07
Q6_QTY_MAX = 24.0


def q6_forecast(sf_dir: str):
    """TPC-H Q6 analog — the revenue-forecast scan: one selective
    filter (shipdate year, discount band, quantity ceiling) and a
    single global SUM of ``l_extendedprice * l_discount``, returned as
    one row.

    Scale shape: pure map-side — every batch folds to ONE partial row
    (revenue cents + line count) behind a projection-pruned read, so
    the only exchange is a <= |blocks|-row groupby on a constant key.
    Revenue uses the shared floor(x*100 + 0.5) fixed-point convention
    (_rev_cents rationale) so the distributed sum is order-independent
    and bitwise-equal to the SQL mirror."""

    li = read_table(f"{sf_dir}/lineitem.parquet",
                    ["l_shipdate", "l_discount", "l_quantity",
                     "l_extendedprice"])

    def partial(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["l_shipdate"], pa.int64())
        keep = pc.and_(
            pc.and_(pc.greater_equal(us, Q6_LO_US),
                    pc.less(us, Q6_HI_US)),
            pc.and_(
                pc.and_(pc.greater_equal(batch["l_discount"], Q6_DISC_LO),
                        pc.less_equal(batch["l_discount"], Q6_DISC_HI)),
                pc.less(batch["l_quantity"], Q6_QTY_MAX)))
        b = batch.filter(keep)
        cents = pc.cast(pc.floor(pc.add(pc.multiply(pc.multiply(
            b["l_extendedprice"], b["l_discount"]), 100.0), 0.5)),
            pa.int64())
        return pa.table({
            "g": pa.array([0], pa.int64()),
            "rev": pa.array([pc.sum(cents).as_py() or 0], pa.int64()),
            "n": pa.array([b.num_rows], pa.int64())})

    agg = aggregate(
        li.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        "g", {"revenue_cents": ("rev", "sum"), "n_lines": ("n", "sum")},
        {"g": pa.int64(), "revenue_cents": pa.int64(), "n_lines": pa.int64()})
    return agg.map_batches(
        lambda b: b.drop_columns(["g"]), batch_format="pyarrow")


Q12_LO_US = 852_076_800_000_000   # shipped in [1997-01-01, 1998-01-01)
Q12_HI_US = 883_612_800_000_000
Q12_LATE_US = 2_592_000_000_000   # 30 days: ship > orderdate + 30d
Q12_HIGH = ("1-URGENT", "2-HIGH")


def q12_late_priority(sf_dir: str):
    """TPC-H Q12 analog — per line status (the shipmode stand-in: this
    corpus has no l_shipmode column), count HIGH-priority vs
    lower-priority orders among lines shipped in 1997 more than 30
    days after the order date: the conditional-aggregate join shape.

    Scale shape: the lineitem side is filtered to the ship-year BEFORE
    the one orderkey hash join (sized on the surviving fact rows); the
    late test and the priority split are batch-local vectorized
    kernels; the final groupby is map-side-partial over exactly two
    keys ('F'/'O')."""

    o_path = f"{sf_dir}/orders.parquet"
    li_path = f"{sf_dir}/lineitem.parquet"
    li_rows = _parquet_rows(li_path)

    li = read_table(li_path, ["l_orderkey", "l_linestatus", "l_shipdate"])

    def l_filter(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["l_shipdate"], pa.int64())
        keep = pc.and_(pc.greater_equal(us, Q12_LO_US),
                       pc.less(us, Q12_HI_US))
        b = batch.filter(keep)
        return pa.table({
            "l_orderkey": b["l_orderkey"],
            "l_linestatus": b["l_linestatus"],
            "sdate_us": pc.cast(b["l_shipdate"], pa.int64())})

    li = li.map_batches(l_filter, batch_format="pyarrow",
                        zero_copy_batch=True)

    orders = read_table(o_path,
                        ["o_orderkey", "o_orderdate", "o_orderpriority"])

    def o_cols(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": batch["o_orderkey"],
            "odate_us": pc.cast(batch["o_orderdate"], pa.int64()),
            "o_orderpriority": batch["o_orderpriority"]})

    orders = orders.map_batches(o_cols, batch_format="pyarrow",
                                zero_copy_batch=True)
    # the ship-year filter keeps roughly 1/7 of lines; size the join on
    # that surviving fraction, not the raw table
    joined = li.join(orders, join_type="inner",
                     num_partitions=join_partitions_for(li_rows // 4),
                     on=("l_orderkey",), right_on=("o_orderkey",))

    def split_cols(batch: pa.Table) -> pa.Table:
        late = pc.greater(batch["sdate_us"],
                          pc.add(batch["odate_us"],
                                 pa.scalar(Q12_LATE_US, pa.int64())))
        b = batch.filter(late)
        high = pc.is_in(b["o_orderpriority"],
                        value_set=pa.array(Q12_HIGH)).to_numpy(
            zero_copy_only=False).astype(np.int64)
        return pa.table({"l_linestatus": b["l_linestatus"],
                      "h": pa.array(high),
                      "l": pa.array(1 - high)})

    return aggregate(
        joined.map_batches(split_cols, batch_format="pyarrow"),
        "l_linestatus", {"high_count": ("h", "sum"), "low_count": ("l", "sum")},
        {"l_linestatus": pa.string(), "high_count": pa.int64(),
         "low_count": pa.int64()})


Q8_LO_US = 820_454_400_000_000   # orders in [1996-01-01, 1998-01-01)
Q8_HI_US = 883_612_800_000_000
Q8_REGION = "ASIA"
Q8_TYPE = "ECONOMY"
Q8_NATION = "NATION_7"


def _dim_key_for_name(path: str, key: str, name_col: str,
                      name: str) -> int:
    """Driver-side key lookup for a constant-bounded dimension
    (|regions| = 5, |nations| = 25): resolve a NAME predicate to its
    integer key once, so the distributed plan only ever compares
    int64s."""
    import pyarrow.parquet as pq

    t = pq.read_table(path, columns=[key, name_col])
    mask = pc.equal(t[name_col], name)
    keys = t.filter(mask)[key].to_numpy()
    if len(keys) != 1:
        raise ValueError(f"{name!r}: expected exactly one {name_col} "
                         f"match in {path}, got {len(keys)}")
    return int(keys[0])


def q8_share(sf_dir: str):
    """TPC-H Q8 analog — national market share: of the revenue from
    one part TYPE sold to customers of one REGION over two order
    years, the fraction supplied by one NATION, per year.

    Scale shape: q5's star-join plan with THREE dimension attaches —
    part-type flag and supplier nation ride the line side as broadcast
    probes (join fallback over the cap), customer nation -> region
    rides the filtered order side (the region filter drops ~4/5 of
    orders before the join); the single large-large exchange is the
    orderkey hash join; the share split is a batch-local vectorized
    conditional; the final groupby is map-side-partial over <= |years|
    keys, and the one float division happens ONCE per output row after
    integer-exact cent sums (bitwise-stable vs the SQL mirror)."""

    li_path = f"{sf_dir}/lineitem.parquet"
    o_path = f"{sf_dir}/orders.parquet"
    part_path = f"{sf_dir}/part.parquet"
    nation_path = f"{sf_dir}/nation.parquet"
    li_rows = _parquet_rows(li_path)

    region_key = _dim_key_for_name(f"{sf_dir}/region.parquet",
                                   "r_regionkey", "r_name", Q8_REGION)
    focus_nat = _dim_key_for_name(nation_path, "n_nationkey",
                                  "n_name", Q8_NATION)
    cust_ref = _keymap_broadcast(f"{sf_dir}/customer.parquet",
                                 "c_custkey", "c_nationkey")
    sup_ref = _keymap_broadcast(f"{sf_dir}/supplier.parquet",
                                "s_suppkey", "s_nationkey")
    # nation -> region: constant-bounded, always broadcastable
    nat_region_ref = _keymap_broadcast(nation_path, "n_nationkey",
                                       "n_regionkey")

    orders = read_table(o_path, ["o_orderkey", "o_custkey", "o_orderdate"])

    def o_filter(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["o_orderdate"], pa.int64())
        keep = pc.and_(pc.greater_equal(us, Q8_LO_US),
                       pc.less(us, Q8_HI_US))
        b = batch.filter(keep)
        yr = b["o_orderdate"].to_numpy().astype("datetime64[Y]") \
            .astype(np.int64) + 1970
        return pa.table({"o_orderkey": b["o_orderkey"],
                         "o_custkey": b["o_custkey"],
                         "yr": pa.array(yr)})

    orders = orders.map_batches(o_filter, batch_format="pyarrow",
                                zero_copy_batch=True)
    orders = _attach_nat(orders, "o_custkey", "cnat", cust_ref,
                         f"{sf_dir}/customer.parquet", "c_custkey",
                         "c_nationkey",
                         rows_hint=_parquet_rows(o_path))
    orders = _attach_nat(orders, "cnat", "cregion", nat_region_ref,
                         nation_path, "n_nationkey", "n_regionkey",
                         rows_hint=_parquet_rows(o_path))
    orders = orders.map_batches(
        lambda b: b.filter(pc.equal(b["cregion"], region_key))
                   .select(["o_orderkey", "yr"]),
        batch_format="pyarrow", zero_copy_batch=True)

    li = read_table(li_path, ["l_orderkey", "l_partkey", "l_suppkey",
                              "l_extendedprice", "l_discount"])

    def rev_col(batch: pa.Table) -> pa.Table:
        return pa.table({"l_orderkey": batch["l_orderkey"],
                         "l_partkey": batch["l_partkey"],
                         "l_suppkey": batch["l_suppkey"],
                         "rev": _rev_cents(batch["l_extendedprice"],
                                           batch["l_discount"])})

    li = li.map_batches(rev_col, batch_format="pyarrow",
                        zero_copy_batch=True)
    li = _attach_derived(
        li, "l_partkey", "is_type", part_path,
        ["p_partkey", "p_type"],
        lambda t: pc.equal(t["p_type"], Q8_TYPE).to_numpy(
            zero_copy_only=False).astype(np.int64),
        rows_hint=li_rows)
    li = li.map_batches(
        lambda b: b.filter(pc.equal(b["is_type"], 1)),
        batch_format="pyarrow", zero_copy_batch=True)
    li = _attach_nat(li, "l_suppkey", "snat", sup_ref,
                     f"{sf_dir}/supplier.parquet", "s_suppkey",
                     "s_nationkey", rows_hint=li_rows) \
        .select_columns(["l_orderkey", "snat", "rev"])

    joined = li.join(orders, join_type="inner",
                     num_partitions=join_partitions_for(li_rows // 8),
                     on=("l_orderkey",), right_on=("o_orderkey",))

    def share_cols(batch: pa.Table) -> pa.Table:
        is_focus = pc.equal(batch["snat"], focus_nat).to_numpy(
            zero_copy_only=False).astype(np.int64)
        rev = batch["rev"].to_numpy()
        return pa.table({"yr": batch["yr"],
                      "f": pa.array(rev * is_focus),
                      "t": pa.array(rev)})

    agg = aggregate(
        joined.map_batches(share_cols, batch_format="pyarrow"),
        "yr", {"focus_cents": ("f", "sum"), "total_cents": ("t", "sum")},
        {"yr": pa.int64(), "focus_cents": pa.int64(),
         "total_cents": pa.int64()})

    def share_col(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "mkt_share",
            pc.divide(pc.cast(batch["focus_cents"], pa.float64()),
                      pc.cast(batch["total_cents"], pa.float64())))

    return agg.map_batches(share_col, batch_format="pyarrow",
                           zero_copy_batch=True)


Q9_NEEDLE = "gear"   # parts whose p_name contains this substring
# cost analog (no partsupp table): 40% of retail per unit.  Profit is
# reported in FIFTH-cents so the whole expression stays integer:
#   profit_fc = rev_cents*5 - qty*retail_cents*2
# (0.4 * retail * qty in cents = qty * retail_cents * 2 / 5).


def q9_profit(sf_dir: str):
    """TPC-H Q9 analog — product-line profit by supplier nation and
    ship year, for parts whose NAME contains a substring.  Profit per
    line is revenue minus a 40%%-of-retail unit cost, kept in integer
    fifth-cents end to end (no float accumulation anywhere).

    Scale shape: NO order join (the year comes from l_shipdate); the
    part attach is ONE broadcast probe carrying a fused
    (name-match ? retail_cents : -1) payload so the match filter and
    the cost basis ride a single int64 column (join fallback over the
    cap); supplier nation is a second probe; the final groupby is
    map-side-partial over <= |nations| x |years| keys."""

    li_path = f"{sf_dir}/lineitem.parquet"
    part_path = f"{sf_dir}/part.parquet"
    li_rows = _parquet_rows(li_path)

    sup_ref = _keymap_broadcast(f"{sf_dir}/supplier.parquet",
                                "s_suppkey", "s_nationkey")
    nat_ref = _name_map_broadcast(f"{sf_dir}/nation.parquet",
                                  "n_nationkey", "n_name")

    li = read_table(li_path, ["l_partkey", "l_suppkey", "l_quantity",
                              "l_extendedprice", "l_discount", "l_shipdate"])

    def line_cols(batch: pa.Table) -> pa.Table:
        yr = batch["l_shipdate"].to_numpy().astype("datetime64[Y]") \
            .astype(np.int64) + 1970
        return pa.table({
            "l_partkey": batch["l_partkey"],
            "l_suppkey": batch["l_suppkey"],
            "qty": pc.cast(batch["l_quantity"], pa.int64()),
            "rev": _rev_cents(batch["l_extendedprice"],
                              batch["l_discount"]),
            "yr": pa.array(yr)})

    li = li.map_batches(line_cols, batch_format="pyarrow",
                        zero_copy_batch=True)

    def derive_retail(t: pa.Table) -> np.ndarray:
        match = pc.match_substring(t["p_name"], Q9_NEEDLE).to_numpy(
            zero_copy_only=False)
        cents = pc.cast(pc.floor(pc.add(pc.multiply(
            t["p_retailprice"], 100.0), 0.5)), pa.int64()).to_numpy()
        return np.where(match, cents, -1)

    li = _attach_derived(li, "l_partkey", "retail_cents", part_path,
                         ["p_partkey", "p_name", "p_retailprice"],
                         derive_retail, rows_hint=li_rows)

    def profit_partial(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.greater_equal(batch["retail_cents"], 0))
        profit = (b["rev"].to_numpy() * 5
                  - b["qty"].to_numpy() * b["retail_cents"].to_numpy()
                  * 2)
        g = pa.table({"nk": b["l_suppkey"], "yr": b["yr"],
                      "p": pa.array(profit),
                      "n": pa.array(np.ones(len(b), np.int64))})
        return g

    # supplier nation attach BEFORE the final groupby so the reduce
    # keyspace is |nations| x |years|, not |suppliers| x |years|
    li = li.map_batches(profit_partial, batch_format="pyarrow",
                        zero_copy_batch=True)
    li = _attach_nat(li, "nk", "snat", sup_ref,
                     f"{sf_dir}/supplier.parquet", "s_suppkey",
                     "s_nationkey", rows_hint=li_rows)

    def nat_cols(batch: pa.Table) -> pa.Table:
        return pa.table({"snat": batch["snat"], "yr": batch["yr"],
                      "p": batch["p"], "n": batch["n"]})

    agg = aggregate(
        li.map_batches(nat_cols, batch_format="pyarrow"),
        ["snat", "yr"], {"profit_fcents": ("p", "sum"),
                         "n_lines": ("n", "sum")},
        {"snat": pa.int64(), "yr": pa.int64(), "profit_fcents": pa.int64(),
         "n_lines": pa.int64()})

    def name_attach(batch: pa.Table) -> pa.Table:
        names = _probe_names(nat_ref, batch["snat"].to_numpy(), "snat")
        return pa.table({"n_name": pa.array(names),
                         "yr": batch["yr"],
                         "profit_fcents": batch["profit_fcents"],
                         "n_lines": batch["n_lines"]})

    return agg.map_batches(name_attach, batch_format="pyarrow",
                           zero_copy_batch=True)


Q21_LATE_US = Q4_LATE_US   # a line is "kept waiting" past 60 days


def q21_waiting(sf_dir: str):
    """TPC-H Q21 analog — suppliers who were the SOLE late supplier on
    a finished multi-supplier order (the EXISTS + NOT-EXISTS
    self-join shape, re-expressed as two key-local aggregations).

    Scale shape: one orderkey hash join (lines x finished orders)
    carries three int64 columns; per-(order, supplier) lateness is a
    batch-local partial distinct + ONE groupby whose keyspace is the
    supply relation (far below line count); the per-order verdict is a
    second groupby over |orders| keys where SUM(late) == 1 pins the
    unique late supplier via SUM(suppkey * late) — no self-join, no
    row explosion; the winner set (<= |suppliers| rows) then joins the
    supplier table for names."""

    o_path = f"{sf_dir}/orders.parquet"
    li_path = f"{sf_dir}/lineitem.parquet"
    s_path = f"{sf_dir}/supplier.parquet"
    li_rows = _parquet_rows(li_path)

    orders = read_table(o_path, ["o_orderkey", "o_orderdate", "o_orderstatus"])

    def o_finished(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch["o_orderstatus"], "F"))
        return pa.table({
            "o_orderkey": b["o_orderkey"],
            "odate_us": pc.cast(b["o_orderdate"], pa.int64())})

    orders = orders.map_batches(o_finished, batch_format="pyarrow",
                                zero_copy_batch=True)

    li = read_table(li_path, ["l_orderkey", "l_suppkey", "l_shipdate"])

    def l_cols(batch: pa.Table) -> pa.Table:
        return pa.table({
            "l_orderkey": batch["l_orderkey"],
            "l_suppkey": batch["l_suppkey"],
            "sdate_us": pc.cast(batch["l_shipdate"], pa.int64())})

    li = li.map_batches(l_cols, batch_format="pyarrow",
                        zero_copy_batch=True)
    joined = li.join(orders, join_type="inner",
                     num_partitions=join_partitions_for(li_rows // 2),
                     on=("l_orderkey",), right_on=("o_orderkey",))

    def late_cols(batch: pa.Table) -> pa.Table:
        late = pc.greater(
            batch["sdate_us"],
            pc.add(batch["odate_us"],
                   pa.scalar(Q21_LATE_US, pa.int64()))).to_numpy(
            zero_copy_only=False).astype(np.int64)
        return pa.table({"k": batch["l_orderkey"],
                      "s": batch["l_suppkey"],
                      "late": pa.array(late)})

    supply = aggregate(
        joined.map_batches(late_cols, batch_format="pyarrow"),
        ["k", "s"], {"late": ("late", "max")},
        {"k": pa.int64(), "s": pa.int64(), "late": pa.int64()})

    def order_cols(batch: pa.Table) -> pa.Table:
        late = batch["late"].to_numpy()
        return pa.table({"k": batch["k"],
                      "ns": pa.array(np.ones(batch.num_rows, np.int64)),
                      "nl": pa.array(late),
                      "ws": pa.array(batch["s"].to_numpy() * late)})

    per_order = aggregate(
        supply.map_batches(order_cols,
                           batch_format="pyarrow"),
        "k", {"n_supp": ("ns", "sum"),
              "n_late": ("nl", "sum"),
              "late_supp": ("ws", "sum")},
        {"k": pa.int64(), "n_supp": pa.int64(), "n_late": pa.int64(),
         "late_supp": pa.int64()})

    def wait_cols(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater(batch["n_supp"], 1),
                       pc.equal(batch["n_late"], 1))
        b = batch.filter(keep)
        return pa.table({"s": b["late_supp"],
                      "n": pa.array(np.ones(len(b), np.int64))})

    waits = aggregate(
        per_order.map_batches(wait_cols,
                              batch_format="pyarrow"),
        "s", {"numwait": ("n", "sum")},
        {"s": pa.int64(), "numwait": pa.int64()})

    sup = read_table(s_path, ["s_suppkey", "s_name"])
    out = waits.join(sup, join_type="inner",
                     num_partitions=join_partitions_for(
                         _parquet_rows(s_path)),
                     on=("s",), right_on=("s_suppkey",))
    return out.map_batches(
        lambda b: pa.table({"s_name": b["s_name"],
                            "numwait": b["numwait"]}),
        batch_format="pyarrow", zero_copy_batch=True)


Q16_EXCL_BRAND = "Brand#1"


def q16_supplier_cnt(sf_dir: str):
    """TPC-H Q16 analog — COUNT(DISTINCT supplier) per part
    (brand, type, size) combination, excluding one brand and all
    suppliers with negative account balance (the NOT-IN shape).

    Scale shape: the supplier exclusion rides the line side as a
    derived broadcast flag (join fallback over the cap) and drops rows
    BEFORE the one partkey hash join; the brand exclusion filters the
    part side BEFORE the same join; distinctness is a batch-local
    partial distinct + ONE groupby over the (combo, supplier) supply
    relation; the final count is map-side-partial over |combos|
    keys."""

    li_path = f"{sf_dir}/lineitem.parquet"
    part_path = f"{sf_dir}/part.parquet"
    s_path = f"{sf_dir}/supplier.parquet"
    li_rows = _parquet_rows(li_path)

    li = read_table(li_path, ["l_partkey", "l_suppkey"])
    li = _attach_derived(
        li, "l_suppkey", "excl", s_path, ["s_suppkey", "s_acctbal"],
        lambda t: pc.less(t["s_acctbal"], 0.0).to_numpy(
            zero_copy_only=False).astype(np.int64),
        rows_hint=li_rows)
    li = li.map_batches(
        lambda b: b.filter(pc.equal(b["excl"], 0))
                   .select(["l_partkey", "l_suppkey"]),
        batch_format="pyarrow", zero_copy_batch=True)

    part = read_table(part_path, ["p_partkey", "p_brand", "p_type", "p_size"])

    def p_filter(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.not_equal(batch["p_brand"],
                                      Q16_EXCL_BRAND))
        return pa.table({"p_partkey": b["p_partkey"],
                         "p_brand": b["p_brand"],
                         "p_type": b["p_type"],
                         "p_size": pc.cast(b["p_size"], pa.int64())})

    part = part.map_batches(p_filter, batch_format="pyarrow",
                            zero_copy_batch=True)
    joined = li.join(part, join_type="inner",
                     num_partitions=join_partitions_for(li_rows),
                     on=("l_partkey",), right_on=("p_partkey",))

    def supply_cols(batch: pa.Table) -> pa.Table:
        return pa.table({
            "p_brand": batch["p_brand"], "p_type": batch["p_type"],
            "p_size": batch["p_size"],
            "s": batch["l_suppkey"]})

    supply = aggregate(
        joined.map_batches(supply_cols,
                           batch_format="pyarrow"),
        ["p_brand", "p_type", "p_size", "s"], {},
        {"p_brand": pa.string(), "p_type": pa.string(), "p_size": pa.int64(),
         "s": pa.int64()})

    return aggregate(
        supply, ["p_brand", "p_type", "p_size"],
        {"supplier_cnt": ("s", "count")},
        {"p_brand": pa.string(), "p_type": pa.string(), "p_size": pa.int64(),
         "supplier_cnt": pa.int64()})


Q11_NATION = "NATION_3"
Q11_THRESH_NUM = 8        # keep parts with value > 8/10000 of the
Q11_THRESH_DEN = 10_000   # nation's total (0.8 permille), integer-exact


def q11_important_parts(sf_dir: str):
    """TPC-H Q11 analog — "important stock": parts whose revenue from
    ONE nation's suppliers exceeds a fixed fraction of that nation's
    total (the HAVING-vs-global-scalar shape; q15 is the max variant,
    this is the threshold variant).

    Scale shape: the nation filter rides the line side as a broadcast
    probe and drops ~24/25 of rows BEFORE any exchange; per-part value
    is map-side partials + ONE groupby over |parts| keys; the global
    total is a one-scalar aggregate over that (materialized,
    |parts|-row) table, and the threshold compare is batch-local
    integer math (value * 10000 > total * 8 — no float share)."""
    import ray.data as rd

    li_path = f"{sf_dir}/lineitem.parquet"
    li_rows = _parquet_rows(li_path)

    focus_nat = _dim_key_for_name(f"{sf_dir}/nation.parquet",
                                  "n_nationkey", "n_name", Q11_NATION)
    sup_ref = _keymap_broadcast(f"{sf_dir}/supplier.parquet",
                                "s_suppkey", "s_nationkey")

    li = read_table(li_path, ["l_partkey", "l_suppkey", "l_extendedprice",
                              "l_discount"])
    li = _attach_nat(li, "l_suppkey", "snat", sup_ref,
                     f"{sf_dir}/supplier.parquet", "s_suppkey",
                     "s_nationkey", rows_hint=li_rows)

    def value_cols(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch["snat"], focus_nat))
        return pa.table({"p_partkey": b["l_partkey"],
                         "v": _rev_cents(b["l_extendedprice"],
                                         b["l_discount"])})

    per_part = aggregate(
        li.map_batches(value_cols, batch_format="pyarrow",
                       zero_copy_batch=True),
        "p_partkey", {"value_cents": ("v", "sum")},
        {"p_partkey": pa.int64(), "value_cents": pa.int64()}) \
        .materialize()  # consumed twice: global total + filter
    total_raw = aggregate(per_part, [], {"t": ("value_cents", "sum")},
                          {"t": pa.int64()}).take_all()[0]["t"]
    if total_raw is None:  # no lines from the focus nation
        return rd.from_arrow(pa.table({
            "p_partkey": pa.array([], pa.int64()),
            "value_cents": pa.array([], pa.int64())}))
    total = int(total_raw)

    return per_part.map_batches(
        lambda b: b.filter(pc.greater(
            pc.multiply(b["value_cents"],
                        pa.scalar(Q11_THRESH_DEN, pa.int64())),
            pa.scalar(total * Q11_THRESH_NUM, pa.int64()))),
        batch_format="pyarrow", zero_copy_batch=True)


Q20_NEEDLE = "gear"
Q20_LO_US = 852_076_800_000_000   # shipped in [1997-01-01, 1998-01-01)
Q20_HI_US = 883_612_800_000_000
Q20_SHARE_MUL = 5   # qualifies when supplier qty * 5 > part total qty


def q20_excess_share(sf_dir: str):
    """TPC-H Q20 analog — suppliers holding an EXCESS SHARE: for some
    name-matched part, the supplier shipped more than 1/5 of that
    part's total windowed quantity (the nested semi-join against a
    per-group threshold; Q17 is the per-part AVG variant, this is the
    per-(part, supplier)-vs-part variant).

    Scale shape: the name-match flag rides the line side as a
    broadcast probe (join fallback over the cap) and drops rows before
    any exchange; (part, supplier) quantities collapse via map-side
    partials + ONE groupby over the supply relation; per-part totals
    are a second small groupby over |parts| keys, joined back on
    partkey SIZED BY THE PAIR SIDE; the share test is batch-local
    integer math and the winner set (<= |suppliers|) joins the
    supplier table for names."""

    li_path = f"{sf_dir}/lineitem.parquet"
    part_path = f"{sf_dir}/part.parquet"
    s_path = f"{sf_dir}/supplier.parquet"
    li_rows = _parquet_rows(li_path)

    li = read_table(li_path,
                    ["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"])

    def l_filter(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["l_shipdate"], pa.int64())
        keep = pc.and_(pc.greater_equal(us, Q20_LO_US),
                       pc.less(us, Q20_HI_US))
        b = batch.filter(keep)
        return pa.table({"l_partkey": b["l_partkey"],
                         "l_suppkey": b["l_suppkey"],
                         "qty": pc.cast(b["l_quantity"], pa.int64())})

    li = li.map_batches(l_filter, batch_format="pyarrow",
                        zero_copy_batch=True)
    li = _attach_derived(
        li, "l_partkey", "is_match", part_path,
        ["p_partkey", "p_name"],
        lambda t: pc.match_substring(t["p_name"], Q20_NEEDLE)
        .to_numpy(zero_copy_only=False).astype(np.int64),
        rows_hint=li_rows)

    def pair_cols(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch["is_match"], 1))
        return pa.table({"l_partkey": b["l_partkey"],
                      "l_suppkey": b["l_suppkey"], "q": b["qty"]})

    pairs = aggregate(
        li.map_batches(pair_cols, batch_format="pyarrow"),
        ["l_partkey", "l_suppkey"], {"q": ("q", "sum")},
        {"l_partkey": pa.int64(), "l_suppkey": pa.int64(), "q": pa.int64()}) \
        .materialize()  # consumed twice: per-part totals + share join

    def tot_cols(batch: pa.Table) -> pa.Table:
        return pa.table({"l_partkey": batch["l_partkey"],
                      "tq": batch["q"]})

    totals = aggregate(
        pairs.map_batches(tot_cols, batch_format="pyarrow"),
        "l_partkey", {"tq": ("tq", "sum")},
        {"l_partkey": pa.int64(), "tq": pa.int64()})

    shared = pairs.join(totals, join_type="inner",
                        num_partitions=join_partitions_for(li_rows // 8),
                        on=("l_partkey",))

    def win_cols(batch: pa.Table) -> pa.Table:
        keep = pc.greater(
            pc.multiply(batch["q"],
                        pa.scalar(Q20_SHARE_MUL, pa.int64())),
            batch["tq"])
        b = batch.filter(keep)
        return pa.table({"s": b["l_suppkey"],
                      "n": pa.array(np.ones(len(b), np.int64))})

    winners = aggregate(
        shared.map_batches(win_cols, batch_format="pyarrow"),
        "s", {"n_parts": ("n", "sum")},
        {"s": pa.int64(), "n_parts": pa.int64()})

    sup = read_table(s_path, ["s_suppkey", "s_name"])
    out = winners.join(sup, join_type="inner",
                       num_partitions=join_partitions_for(
                           _parquet_rows(s_path)),
                       on=("s",), right_on=("s_suppkey",))
    return out.map_batches(
        lambda b: pa.table({"s_name": b["s_name"],
                            "n_parts": b["n_parts"]}),
        batch_format="pyarrow", zero_copy_batch=True)


ATTR_WINDOW_US = 1_800_000_000   # 30-min lookback, matches SESSION_GAP


def attribution(sf_dir: str):
    """Last-touch conversion attribution: every ``purchase`` event is
    credited to the most recent PRIOR non-purchase event by the same
    user within a 30-minute lookback (ties in ts broken by event_id,
    the usual deterministic event order); purchases with no in-window
    prior touch fall into the ``(none)`` bucket.  Output: per credited
    event type, the conversion count and the summed purchase value in
    integer milli-units.

    Scale shape: one user-hash shuffle (the sessionize partitioning
    assumption: one user's events fit in a partition), then a fully
    vectorized kernel — the "last prior non-purchase index" is a
    single ``np.maximum.accumulate`` over masked global indices with a
    cheap same-user post-check (no per-user loop, no pandas group
    dispatch), partial (type, count, value) rows per partition, one
    type-bounded groupby Sum."""

    path = f"{sf_dir}/events.parquet"
    ev = read_table(path, ["event_id", "user_id", "ts", "event_type", "value"])

    def attr_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        uid = g["user_id"].to_numpy()
        t = pc.cast(g["ts"], pa.int64()).to_numpy()
        et = g["event_type"].to_numpy()
        vm = np.round(g["value"].to_numpy() * 1000.0).astype(np.int64)
        is_p = et == "purchase"
        idx = np.arange(len(g), dtype=np.int64)
        # last non-purchase index at-or-before each row (may leak
        # across the user boundary; the uid check below rejects that)
        last_np = np.maximum.accumulate(np.where(is_p, -1, idx))
        # credit strictly PRIOR events: at a non-purchase row last_np
        # is the row itself, but purchases only read last_np, and at a
        # purchase row last_np is < idx by construction.
        pi = np.flatnonzero(is_p)
        if len(pi) == 0:
            return g.slice(0, 0)
        j = last_np[pi]
        ok = (j >= 0)
        ok &= np.where(ok, uid[np.maximum(j, 0)] == uid[pi], False)
        ok &= np.where(ok, t[pi] - t[np.maximum(j, 0)]
                       <= ATTR_WINDOW_US, False)
        src = np.where(ok, et[np.maximum(j, 0)], "(none)")
        a = pa.table({"src_type": pa.array(src, pa.string()),
                      "vm": vm[pi]}).group_by("src_type").aggregate(
            [([], "count_all"), ("vm", "sum")])
        return pa.table({"src_type": a["src_type"],
                         "n_conv": a["count_all"], "value_milli": a["vm_sum"]})

    parts = partitioned(ev, "user_id", attr_part,
                        {"src_type": pa.string(), "n_conv": pa.int64(),
                         "value_milli": pa.int64()},
                        rows_hint=_parquet_rows(path))
    return aggregate(
        parts,
        "src_type", {"n_conv": ("n_conv", "sum"),
         "value_milli": ("value_milli", "sum")},
        {"src_type": pa.string(), "n_conv": pa.int64(),
         "value_milli": pa.int64()})


ROLLMED_FRAME = 7          # ROWS BETWEEN 6 PRECEDING AND CURRENT ROW


def rolling_median(sf_dir: str):
    """Per-event-type daily counts with the EXACT rolling median over
    the trailing 7 observed days (ROWS frame, matching the SQL window
    aggregate) — the robust-baseline sibling of ewma_daily (EWMA is
    mean-ish and outlier-sensitive; the median is the robust anomaly
    baseline).  ``med2`` is the DOUBLED median so even-width frames
    stay integer (2·median of ints is always an int).

    Scale shape: map-side (type, day) partial counts -> one
    (type × day)-bounded groupby -> a per-type vectorized
    sliding-window kernel over the DAILY series (calendar-bounded, not
    corpus-bounded — a year is 365 rows per type no matter how many
    events the corpus holds), dispatched through the hash-partitioned
    kernel runner."""

    ev = read_table(f"{sf_dir}/events.parquet", ["event_type", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(batch["ts"], pa.int64()),
                        86_400_000_000)
        return pa.table({"event_type": batch["event_type"], "day": day})

    daily = aggregate(
        ev.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["event_type", "day"], {"c": ("event_type", "count")},
        {"event_type": pa.string(), "day": pa.int64(), "c": pa.int64()})

    k = ROLLMED_FRAME

    def med_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([("event_type", "ascending"), ("day", "ascending")])
        et = g["event_type"].to_numpy()
        c = g["c"].to_numpy().astype(np.int64)
        n = len(g)
        run = np.zeros(n, dtype=np.int64)
        run[1:] = np.cumsum(et[1:] != et[:-1])
        first = np.ones(n, dtype=bool)
        first[1:] = run[1:] != run[:-1]
        start = np.maximum.accumulate(np.where(first,
                                               np.arange(n), 0))
        lo = np.maximum(start, np.arange(n) - (k - 1))
        # frame width ≤ 7: sort each frame via a padded 2-D gather
        # (pad with int64 max so pads sort to the tail)
        pad = np.iinfo(np.int64).max
        cols = lo[:, None] + np.arange(k)[None, :]
        valid = cols <= np.arange(n)[:, None]
        fr = np.where(valid, c[np.minimum(cols, n - 1)], pad)
        fr.sort(axis=1)
        w = valid.sum(axis=1)
        hi_i = w // 2
        lo_i = (w - 1) // 2
        r = np.arange(n)
        med2 = fr[r, lo_i] + fr[r, hi_i]
        return pa.table({"event_type": g["event_type"],
                         "day": pc.cast(g["day"], pa.int64()),
                         "c": c, "med2": med2})

    # per-GROUP dispatch is safe here: groups == event types (a
    # handful), each a calendar-bounded daily series
    return daily.groupby("event_type").map_groups(
        med_part, batch_format="pyarrow")
