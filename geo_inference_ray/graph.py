"""Distributed iterative graph algorithms over table-derived graphs.

The reference engine (NRCan/geo-inference) has no graph operators; this
module extends the engine for web-scale training-data pipelines, where
link-graph signals (host authority for quality weighting, crawl-frontier
prioritisation) need exactly this join-aggregate-per-round shape.  It is
the fixed-point sibling of the alternating-star connected components in
``polygonize.py``/``dedup.py``: one key-partitioned shuffle per round,
never an all-pairs step.

PageRank here is the fixed-iteration, INTEGER-EXACT variant: ranks are
parts-per-million int64 and every neighbour contribution is
floor-divided (``rank // outdeg``), so a DuckDB CTE chain reproduces the
result bit-for-bit — no float summation-order hazard.  The graph is the
part<->supplier bipartite graph derived from ``lineitem`` (node id
``2*partkey`` / ``2*suppkey + 1``; both edge directions, so every node
has out-degree >= 1 and the rank update needs no dangling-node term).

Scale shape (100 TB design point):
- the distinct-edge table is built with per-batch pre-dedup before the
  one global distinct shuffle, then SPILLED to parquet scratch
  (pools.spill_dir) because it is consumed once per iteration —
  disk-backed and column-pruned instead of plasma-pinned;
- per iteration the per-node contribution table is either BROADCAST
  (``ray.put`` + sorted-array ``searchsorted`` probe per batch) when the
  node count is under ``broadcast_cap`` — zero shuffles of the edge
  table beyond the incoming-sum groupby — or joined with Ray's native
  hash join sized by ``join_partitions_for`` on the EDGE side;
- the incoming-sum groupby is preceded by a per-batch partial sum per
  destination, so the shuffle carries at most (batches x nodes-touched)
  rows, not edges.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .shuffle import aggregate, collect
from .sources import read_table

PR_SCALE = 1_000_000       # rank unit: parts-per-million
PR_ITERS = 3               # fixed iteration count (exact-oracle contract)
PR_DAMP_NUM = 85           # damping 0.85 as an integer ratio
PR_BASE = 150_000          # (1 - damping) * PR_SCALE
PR_BROADCAST_CAP = 5_000_000   # nodes; same bound as dedup_apply's drop set


def _edge_spill(sf_dir: str, work_dir: str | None,
                directed: bool = False):
    """Distinct edge table (src, dst) of the part<->supplier graph,
    spilled to parquet scratch (consumed once per iteration;
    disk-backed, not plasma-pinned).  Both directions by default
    (PageRank needs outdeg >= 1 everywhere); ``directed=True`` keeps
    only part -> supplier (the HITS hub -> authority orientation).
    Returns (path, n_edges) with the count taken from the spill
    footers — no data read."""
    import glob
    import os

    import pyarrow.parquet as pq

    from .pools import spill_dir

    li = read_table(f"{sf_dir}/lineitem.parquet", ["l_partkey", "l_suppkey"])

    def edge_partial(batch: pa.Table) -> pa.Table:
        p = batch["l_partkey"].to_numpy().astype(np.int64) * 2
        s = batch["l_suppkey"].to_numpy().astype(np.int64) * 2 + 1
        if directed:
            t = pa.table({"src": pa.array(p), "dst": pa.array(s)})
        else:
            t = pa.table({"src": pa.array(np.concatenate([p, s])),
                          "dst": pa.array(np.concatenate([s, p]))})
        return t

    distinct = aggregate(
        li.map_batches(edge_partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["src", "dst"], {},
        {"src": pa.int64(), "dst": pa.int64()})
    spill = spill_dir("hits_edges" if directed else "pagerank_edges",
                      work_dir)
    distinct.write_parquet(spill)
    n_edges = sum(pq.read_metadata(f).num_rows for f in
                  glob.glob(os.path.join(spill, "*.parquet")))
    return spill, n_edges


def _src_node(batch: pa.Table) -> pa.Table:
    return pa.table({"node": batch["src"]})


def _degrees(edges_ds):
    """(node, outdeg): the count of each ``src``."""
    return aggregate(
        edges_ds.map_batches(_src_node, batch_format="pyarrow",
                             zero_copy_batch=True, batch_size=None),
        "node", {"outdeg": ("node", "count")},
        {"node": pa.int64(), "outdeg": pa.int64()})


def pagerank(sf_dir: str, *, iters: int = PR_ITERS,
             broadcast_cap: int = PR_BROADCAST_CAP,
             work_dir: str | None = None):
    """Fixed-iteration integer PageRank over the part<->supplier graph.

    Returns a Dataset of (node, rank_ppm): rank_ppm starts at PR_SCALE
    and each round becomes ``PR_BASE + (PR_DAMP_NUM * sum_in(rank //
    outdeg)) // 100`` — all int64, so the DuckDB oracle matches exactly.
    """
    import ray
    import ray.data as rd

    from .relational import join_partitions_for

    spill, n_edges = _edge_spill(sf_dir, work_dir)

    def edges():
        return read_table(spill, ["src", "dst"])

    deg = _degrees(edges())

    def inc_cols(batch: pa.Table) -> pa.Table:
        """(destination node, incoming contribution) per edge."""
        return pa.table({"node": batch["dst"], "i": batch["contrib"]})

    def new_rank(inc_ds):
        def formula(batch: pa.Table) -> pa.Table:
            r = PR_BASE + (PR_DAMP_NUM
                           * batch["inc"].to_numpy()) // 100
            return pa.table({"node": batch["node"],
                             "rank_ppm": pa.array(r)})
        return inc_ds.map_batches(formula, batch_format="pyarrow",
                                  zero_copy_batch=True)

    # ---- broadcast path: node table fits the driver/worker heap ------
    nd = collect(deg, pa.schema([("node", pa.int64()),
                                 ("outdeg", pa.int64())]), broadcast_cap)
    # over the cap the node count is only known to exceed it
    n_nodes = broadcast_cap + 1 if nd is None else nd.num_rows

    if nd is not None and n_nodes > 0:
        node_arr = nd["node"].to_numpy()
        order = np.argsort(node_arr)
        node_arr = node_arr[order]
        deg_arr = nd["outdeg"].to_numpy()[order]
        rank = np.full(n_nodes, PR_SCALE, dtype=np.int64)
        for _ in range(iters):
            contrib = rank // deg_arr
            cref = ray.put((node_arr, contrib))

            def add_contrib(batch: pa.Table) -> pa.Table:
                nodes, contrib = ray.get(cref)
                idx = np.searchsorted(nodes, batch["src"].to_numpy())
                return pa.table({"node": batch["dst"],
                                 "i": pa.array(contrib[idx])})

            inc = aggregate(
                edges().map_batches(add_contrib, batch_format="pyarrow"),
                "node", {"inc": ("i", "sum")},
                {"node": pa.int64(), "inc": pa.int64()})
            # fold the node-bounded aggregate back into the rank array
            new = np.empty(n_nodes, dtype=np.int64)
            seen = 0
            for b in inc.iter_batches(batch_size=65536,
                                      batch_format="pyarrow"):
                idx = np.searchsorted(node_arr, b["node"].to_numpy())
                new[idx] = (PR_BASE
                            + (PR_DAMP_NUM * b["inc"].to_numpy()) // 100)
                seen += len(idx)
            assert seen == n_nodes, "incoming sum lost a node"
            rank = new
        return rd.from_arrow(pa.table({
            "node": pa.array(node_arr), "rank_ppm": pa.array(rank)}))

    # ---- distributed path: native hash joins sized by the edge side --
    # deg is consumed 1 + 2*iters times below; materialize the
    # node-bounded table once instead of recomputing its groupby per
    # consumer (object-store spill covers the large-node case)
    deg = deg.materialize()
    state = deg.map_batches(
        lambda b: pa.table({"node": b["node"],
                            "outdeg": b["outdeg"],
                            "rank_ppm": pa.array(np.full(
                                len(b), PR_SCALE, dtype=np.int64))}),
        batch_format="pyarrow", zero_copy_batch=True)
    np_edges = join_partitions_for(n_edges)
    for _ in range(iters):
        contrib = state.map_batches(
            lambda b: pa.table({
                "node": b["node"],
                "contrib": pa.array(b["rank_ppm"].to_numpy()
                                    // b["outdeg"].to_numpy())}),
            batch_format="pyarrow", zero_copy_batch=True)
        joined = edges().join(contrib, join_type="inner",
                              num_partitions=np_edges,
                              on=("src",), right_on=("node",))
        inc = aggregate(
            joined.map_batches(inc_cols, batch_format="pyarrow"),
            "node", {"inc": ("i", "sum")},
            {"node": pa.int64(), "inc": pa.int64()})
        ranked = new_rank(inc)
        state = ranked.join(deg.map_batches(
            lambda b: pa.table({"dnode": b["node"],
                                "outdeg": b["outdeg"]}),
            batch_format="pyarrow", zero_copy_batch=True),
            join_type="inner",
            num_partitions=join_partitions_for(max(n_nodes, 1)),
            on=("node",), right_on=("dnode",)) \
            .select_columns(["node", "outdeg", "rank_ppm"])
    return state.select_columns(["node", "rank_ppm"])


def pagerank_oracle_sql(iters: int = PR_ITERS) -> str:
    """DuckDB CTE chain mirroring ``pagerank`` bit-for-bit (all-integer
    arithmetic; ``//`` floor division on both sides)."""
    sql = [f"""
WITH e0 AS (
  SELECT DISTINCT l_partkey * 2 AS src, l_suppkey * 2 + 1 AS dst
  FROM lineitem),
edges AS (SELECT src, dst FROM e0
          UNION ALL SELECT dst, src FROM e0),
deg AS (SELECT src AS node, COUNT(*) AS outdeg FROM edges GROUP BY src),
r0 AS (SELECT node, CAST({PR_SCALE} AS BIGINT) AS rank_ppm FROM deg)"""]
    for t in range(1, iters + 1):
        sql.append(f""",
i{t} AS (SELECT e.dst AS node,
                SUM(r.rank_ppm // d.outdeg) AS inc
         FROM edges e
         JOIN r{t - 1} r ON e.src = r.node
         JOIN deg d ON e.src = d.node
         GROUP BY e.dst),
r{t} AS (SELECT node,
                CAST({PR_BASE} + ({PR_DAMP_NUM} * inc) // 100
                     AS BIGINT) AS rank_ppm
         FROM i{t})""")
    sql.append(f"\nSELECT node, rank_ppm FROM r{iters}")
    return "".join(sql)


HITS_SCALE = 1_000_000     # score unit after each max-normalization
HITS_ITERS = 2             # fixed iteration count (exact-oracle contract)


def hits(sf_dir: str, *, iters: int = HITS_ITERS,
         broadcast_cap: int = PR_BROADCAST_CAP,
         work_dir: str | None = None):
    """Fixed-iteration integer HITS (Kleinberg '99 — public algorithm)
    over the DIRECTED part -> supplier graph: parts are hubs,
    suppliers are authorities.

    Integer-exact normalization replaces the usual L2 norm: after each
    sweep the vector is rescaled to ``x * HITS_SCALE // max(x)`` (all
    int64 floor arithmetic), so a DuckDB CTE chain reproduces every
    score bit-for-bit.  Per iteration: ``auth[v] = sum of hub[u] over
    edges (u, v)`` then rescale; ``hub[u] = sum of auth[v]`` then
    rescale.  Sums stay below 2^63 while max-degree * HITS_SCALE^2
    < 2^63 (degree < ~9.2e6).  The binding bound is whichever side's
    degree is largest, so BOTH paths assert per-sweep on the max
    aggregated sum before the rescale multiply — that covers hub
    out-degree and authority in-degree alike.

    Scale shape mirrors :func:`pagerank`: the distinct directed edge
    table is spilled once and re-read per sweep; under
    ``broadcast_cap`` nodes the score vector is broadcast (ray.put +
    searchsorted probe, shuffles carry per-batch partial sums only);
    above it each sweep is one hash join sized by the edge count plus
    a scalar Max aggregate.

    Returns (node, is_hub, score)."""
    import ray
    import ray.data as rd

    from .relational import join_partitions_for

    spill, n_edges = _edge_spill(sf_dir, work_dir, directed=True)

    if n_edges == 0:
        # empty edge table: no hubs, no authorities (kcore's
        # explicit-empty contract — the empty spill has no readable
        # schema and the distributed Max would raise)
        return rd.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "is_hub": pa.array([], pa.int64()),
            "score": pa.array([], pa.int64())}))

    def edges():
        return read_table(spill, ["src", "dst"])

    def sum_cols(key: str):
        def cols(batch: pa.Table) -> pa.Table:
            return pa.table({"node": batch[key], "s": batch["contrib"]})
        return cols

    # node inventories (hub side = distinct src, auth side = distinct
    # dst): a count per node, of which only the node is read
    def side_nodes(key: str):
        return aggregate(
            edges().map_batches(
                lambda b: pa.table({"node": b[key]}),
                batch_format="pyarrow", zero_copy_batch=True),
            "node", {"deg": ("node", "count")},
            {"node": pa.int64(), "deg": pa.int64()})

    hub_nodes = side_nodes("src")

    hubs = collect(hub_nodes, pa.schema([("node", pa.int64())]),
                   broadcast_cap)

    # hubs has >= 1 row here: n_edges == 0 returned above, and every
    # edge contributes a src to side_nodes('src')
    if hubs is not None:
        # ---- broadcast path -----------------------------------------
        hub_arr = np.sort(hubs["node"].to_numpy())
        n_hub = len(hub_arr)
        hub = np.full(n_hub, HITS_SCALE, dtype=np.int64)
        auth_arr = auth = None

        def sweep(src_key, dst_key, nodes, scores):
            """One half-iteration: push ``scores`` (indexed by sorted
            ``nodes`` = the src side) across edges, return the dst
            side's (sorted nodes, rescaled scores)."""
            cref = ray.put((nodes, scores))

            def push(batch: pa.Table) -> pa.Table:
                nodes, scores = ray.get(cref)
                idx = np.searchsorted(nodes, batch[src_key].to_numpy())
                return pa.table({"node": batch[dst_key],
                                 "s": pa.array(scores[idx])})

            agg = aggregate(
                edges().map_batches(push, batch_format="pyarrow"),
                "node", {"s": ("s", "sum")},
                {"node": pa.int64(), "s": pa.int64()})
            t = collect(agg, pa.schema([("node", pa.int64()),
                                        ("s", pa.int64())]))
            nn = t["node"].to_numpy()
            ss = t["s"].to_numpy()
            o = np.argsort(nn)
            nn, ss = nn[o], ss[o]
            mx = max(1, int(ss.max()))
            assert mx < (1 << 63) // HITS_SCALE, \
                "per-sweep sum overflows int64 HITS rescale"
            return nn, ss * HITS_SCALE // mx

        for _ in range(iters):
            auth_arr, auth = sweep("src", "dst", hub_arr, hub)
            hub_arr2, hub = sweep("dst", "src", auth_arr, auth)
            assert len(hub_arr2) == n_hub
            hub_arr = hub_arr2
        return rd.from_arrow(pa.table({
            "node": pa.array(np.concatenate([hub_arr, auth_arr])),
            "is_hub": pa.array(np.concatenate(
                [np.ones(len(hub_arr), np.int64),
                 np.zeros(len(auth_arr), np.int64)])),
            "score": pa.array(np.concatenate([hub, auth]))}))

    # ---- distributed path: per sweep one hash join + scalar Max ------
    np_edges = join_partitions_for(n_edges)
    state = hub_nodes.map_batches(
        lambda b: pa.table({"node": b["node"],
                            "s": pa.array(np.full(len(b), HITS_SCALE,
                                                  dtype=np.int64))}),
        batch_format="pyarrow", zero_copy_batch=True)

    def sweep_ds(state_ds, src_key, dst_key):
        joined = edges().join(
            state_ds.map_batches(
                lambda b: pa.table({"jnode": b["node"],
                                    "contrib": b["s"]}),
                batch_format="pyarrow", zero_copy_batch=True),
            join_type="inner", num_partitions=np_edges,
            on=(src_key,), right_on=("jnode",))
        agg = aggregate(
            joined.map_batches(sum_cols(dst_key), batch_format="pyarrow"),
            "node", {"s": ("s", "sum")},
            {"node": pa.int64(), "s": pa.int64()}).materialize()
        mx = max(1, aggregate(agg, [], {"mx": ("s", "max")},
                              {"mx": pa.int64()}).take_all()[0]["mx"])
        assert mx < (1 << 63) // HITS_SCALE, \
            "per-sweep sum overflows int64 HITS rescale"

        def rescale(batch: pa.Table) -> pa.Table:
            return pa.table({
                "node": batch["node"],
                "s": pa.array(batch["s"].to_numpy()
                              * HITS_SCALE // mx)})

        return agg.map_batches(rescale, batch_format="pyarrow",
                               zero_copy_batch=True)

    auth_state = None
    for _ in range(iters):
        auth_state = sweep_ds(state, "src", "dst")
        state = sweep_ds(auth_state, "dst", "src")

    def tag(is_hub: int):
        def f(batch: pa.Table) -> pa.Table:
            return pa.table({
                "node": batch["node"],
                "is_hub": pa.array(np.full(len(batch), is_hub,
                                           dtype=np.int64)),
                "score": batch["s"]})
        return f

    return state.map_batches(tag(1), batch_format="pyarrow") \
        .union(auth_state.map_batches(tag(0), batch_format="pyarrow"))


def hits_oracle_sql(iters: int = HITS_ITERS) -> str:
    """DuckDB CTE chain mirroring ``hits`` bit-for-bit (integer floor
    arithmetic, max-normalization per half-sweep)."""
    sql = [f"""
WITH e AS (
  SELECT DISTINCT l_partkey * 2 AS src, l_suppkey * 2 + 1 AS dst
  FROM lineitem),
h0 AS (SELECT DISTINCT src AS node, CAST({HITS_SCALE} AS BIGINT) AS s
       FROM e)"""]
    for t in range(1, iters + 1):
        sql.append(f""",
a{t}r AS (SELECT e.dst AS node, CAST(SUM(h.s) AS BIGINT) AS s
          FROM e JOIN h{t - 1} h ON h.node = e.src GROUP BY e.dst),
a{t} AS (SELECT node, CAST(s * {HITS_SCALE}
                // GREATEST(1, (SELECT MAX(s) FROM a{t}r)) AS BIGINT)
                AS s
         FROM a{t}r),
h{t}r AS (SELECT e.src AS node, CAST(SUM(a.s) AS BIGINT) AS s
          FROM e JOIN a{t} a ON a.node = e.dst GROUP BY e.src),
h{t} AS (SELECT node, CAST(s * {HITS_SCALE}
                // GREATEST(1, (SELECT MAX(s) FROM h{t}r)) AS BIGINT)
                AS s
         FROM h{t}r)""")
    sql.append(f"""
SELECT node, CAST(1 AS BIGINT) AS is_hub, s AS score FROM h{iters}
UNION ALL
SELECT node, CAST(0 AS BIGINT) AS is_hub, s AS score FROM a{iters}""")
    return "".join(sql)


KCORE_MAX_ROUNDS = 8       # peel-round bound (exact-oracle contract)


def _median_from_hist(vals: np.ndarray, counts: np.ndarray) -> int:
    """Exact lower median from a (value, count) histogram — the
    element at sorted index (n-1)//2, matching DuckDB
    quantile_disc(x, 0.5)."""
    o = np.argsort(vals)
    vals, counts = vals[o], counts[o]
    cum = np.cumsum(counts)
    n = int(cum[-1])
    return int(vals[np.searchsorted(cum, (n - 1) // 2 + 1)])


def kcore(sf_dir: str, *, k: int | None = None,
          max_rounds: int = KCORE_MAX_ROUNDS,
          broadcast_cap: int = PR_BROADCAST_CAP,
          work_dir: str | None = None):
    """k-core of the undirected part<->supplier graph by parallel
    peeling (Matula & Beck '83 degeneracy peeling, simultaneous-removal
    variant): each round drops EVERY node whose degree within the
    current subgraph is < k, until a fixpoint.  ``k`` defaults to the
    exact lower MEDIAN of the initial degree distribution, computed
    scale-safely from the (degree value, node count) histogram — the
    histogram is distinct-degree-sized, never node-sized, so the
    driver fold is bounded even at 10^12 edges.

    Rounds are bounded by ``max_rounds`` (asserted at convergence —
    the SQL oracle unrolls exactly this many rounds, so an input that
    needs more must raise, not silently diverge from the mirror).

    Scale shape mirrors :func:`pagerank`: spilled distinct edge table
    re-read per round; alive set under ``broadcast_cap`` is a sorted
    broadcast array probed per batch (shuffles carry per-batch partial
    degree sums only); above it each round is two hash semi-joins
    sized by the edge count.

    Returns (node, core_deg): the surviving nodes with their degree
    inside the core."""
    import ray
    import ray.data as rd

    from .relational import join_partitions_for

    spill, n_edges = _edge_spill(sf_dir, work_dir)

    def edges():
        return read_table(spill, ["src", "dst"])

    deg = _degrees(edges()).materialize()

    if k is None:
        # (degree value -> node count) histogram: tiny by construction
        hsch = pa.schema([("outdeg", pa.int64()), ("c", pa.int64())])
        h = collect(aggregate(deg, "outdeg", {"c": ("outdeg", "count")},
                              hsch), hsch)
        k = _median_from_hist(h["outdeg"].to_numpy(), h["c"].to_numpy())

    empty = pa.table({"node": pa.array([], pa.int64()),
                      "core_deg": pa.array([], pa.int64())})

    # ---- broadcast path ----------------------------------------------
    nodes = collect(deg, pa.schema([("node", pa.int64())]), broadcast_cap)

    if nodes is not None:
        alive = np.sort(nodes["node"].to_numpy())

        def alive_degrees(alive_arr: np.ndarray):
            aref = ray.put(alive_arr)

            def deg_alive(batch: pa.Table) -> pa.Table:
                alive = ray.get(aref)
                s = batch["src"].to_numpy()
                d = batch["dst"].to_numpy()
                keep = np.isin(s, alive) & np.isin(d, alive)
                return pa.table({"node": pa.array(s[keep])})

            agg = aggregate(
                edges().map_batches(deg_alive, batch_format="pyarrow"),
                "node", {"c": ("node", "count")},
                {"node": pa.int64(), "c": pa.int64()})
            t = collect(agg, pa.schema([("node", pa.int64()),
                                        ("c", pa.int64())]))
            nn = t["node"].to_numpy()
            cc = t["c"].to_numpy()
            o = np.argsort(nn)
            return nn[o], cc[o]

        for rnd in range(max_rounds + 1):
            if len(alive) == 0:
                return rd.from_arrow(empty)
            nn, cc = alive_degrees(alive)
            keepm = cc >= k
            # isolated alive nodes (all edges gone) have no degree row
            new_alive = nn[keepm]
            if len(new_alive) == len(alive) and \
                    np.array_equal(new_alive, alive):
                return rd.from_arrow(pa.table({
                    "node": pa.array(nn[keepm]),
                    "core_deg": pa.array(cc[keepm])}))
            alive = new_alive
        raise AssertionError(
            f"k-core did not converge in {max_rounds} rounds "
            "(oracle contract)")

    # ---- distributed path: two semi-joins per round -------------------
    np_edges = join_partitions_for(n_edges)
    alive_ds = deg.select_columns(["node"]).materialize()
    prev_n = alive_ds.count()

    for rnd in range(max_rounds + 1):
        if prev_n == 0:
            return rd.from_arrow(empty)
        dsub = aggregate(edges().join(
            alive_ds.map_batches(
                lambda b: pa.table({"anode": b["node"]}),
                batch_format="pyarrow", zero_copy_batch=True),
            join_type="inner", num_partitions=np_edges,
            on=("src",), right_on=("anode",)) \
            .join(alive_ds.map_batches(
                lambda b: pa.table({"bnode": b["node"]}),
                batch_format="pyarrow", zero_copy_batch=True),
                join_type="inner", num_partitions=np_edges,
                on=("dst",), right_on=("bnode",))
            .map_batches(_src_node, batch_format="pyarrow"),
            "node", {"c": ("node", "count")},
            {"node": pa.int64(), "c": pa.int64()}).materialize()

        def keep_core(batch: pa.Table) -> pa.Table:
            t = batch.filter(pc.greater_equal(batch["c"],
                                              pa.scalar(int(k))))
            return t

        core = dsub.map_batches(keep_core, batch_format="pyarrow",
                                zero_copy_batch=True).materialize()
        n_now = core.count()
        if n_now == prev_n:
            return core.map_batches(
                lambda b: pa.table({"node": b["node"],
                                    "core_deg": b["c"]}),
                batch_format="pyarrow", zero_copy_batch=True)
        prev_n = n_now
        alive_ds = core.select_columns(["node"]).materialize()
    raise AssertionError(
        f"k-core did not converge in {max_rounds} rounds "
        "(oracle contract)")


def kcore_oracle_sql(max_rounds: int = KCORE_MAX_ROUNDS) -> str:
    """DuckDB chained-CTE mirror of ``kcore`` (adaptive median k,
    ``max_rounds`` unrolled peel rounds, final in-core degrees).
    Exact by construction when the engine converges within the same
    round bound (it asserts that).

    Every a{t} is AS MATERIALIZED: each is referenced TWICE by the
    next round's degree join, and DuckDB's default inlining then
    re-evaluates the whole prefix per reference — a 2^rounds blowup
    that ran the sf0.1 oracle out of temp disk.  Materialization makes
    the chain linear (duckdb >= 0.9 syntax)."""
    sql = ["""
WITH e0 AS MATERIALIZED (
  SELECT DISTINCT l_partkey * 2 AS src, l_suppkey * 2 + 1 AS dst
  FROM lineitem),
edges AS MATERIALIZED (SELECT src, dst FROM e0
          UNION ALL SELECT dst, src FROM e0),
d0 AS (SELECT src AS node, COUNT(*) AS c FROM edges GROUP BY src),
kv AS MATERIALIZED (SELECT quantile_disc(c, 0.5) AS k FROM d0),
a0 AS MATERIALIZED (SELECT node FROM d0)"""]
    for t in range(1, max_rounds + 1):
        sql.append(f""",
d{t} AS (SELECT e.src AS node, COUNT(*) AS c
         FROM edges e
         JOIN a{t - 1} x ON x.node = e.src
         JOIN a{t - 1} y ON y.node = e.dst
         GROUP BY e.src),
a{t} AS MATERIALIZED (SELECT node FROM d{t}
                      WHERE c >= (SELECT k FROM kv))""")
    R = max_rounds
    sql.append(f""",
df AS (SELECT e.src AS node, COUNT(*) AS c
       FROM edges e
       JOIN a{R} x ON x.node = e.src
       JOIN a{R} y ON y.node = e.dst
       GROUP BY e.src)
SELECT node, c AS core_deg FROM df
WHERE c >= (SELECT k FROM kv)""")
    return "".join(sql)


TRI_MAX_PART_DEG = 4096    # per-part supplier-count cap (pair blowup)
TRI_MAX_FWD_DEG = 65_536   # per-node forward-degree cap (wedge blowup)
TRI_NODE_BITS = 31         # suppkeys must fit in 31 bits for packing


def triangles(sf_dir: str):
    """Per-node triangle counts over the co-supplier graph (suppliers
    sharing a part are adjacent) — the clustering-coefficient /
    community-density primitive, distributed with the classic
    compact-forward shape and NO all-pairs step anywhere:

    1. distinct (part, supplier) pairs (map-side pre-dedup + one
       groupby);
    2. per-part supplier pairs u<v (hash-partitioned kernel, per-part
       degree capped at TRI_MAX_PART_DEG with a loud bail), then one
       distinct groupby on the PACKED edge ``u<<32|v``;
    3. wedges: edges hash-partition on their lower endpoint u; one
       vectorized kernel emits (u, v<<32|w) for every ordered neighbor
       pair v<w — node-id ordering, so each triangle is generated
       exactly once (for a dense component this equals the triangle
       count itself, the compact-forward optimum);
    4. closure probe: wedges UNION the edge table (tagged u=-1),
       hash-partitioned on the packed (v,w) key; the per-partition
       kernel resolves membership with one sorted searchsorted and
       emits per-node partial counts (each closed triangle contributes
       its three corners);
    5. final groupby Sum -> (s_suppkey, n_triangles).

    The shuffles carry distinct pairs, wedges, and count partials —
    never lineitem rows.  Wedge volume is sum_u C(deg_hi(u), 2); for
    web-scale sparse graphs the node ordering bounds it by arboricity
    (document: TPC-H's co-supplier graph is pathologically dense, a
    worst case real link graphs don't hit)."""

    from .relational import _parquet_rows
    from .shuffle import partitioned, run_pairs, runs

    li_path = f"{sf_dir}/lineitem.parquet"
    li = read_table(li_path, ["l_partkey", "l_suppkey"])

    def ps_partial(batch: pa.Table) -> pa.Table:
        return pa.table({"p": batch["l_partkey"], "s": batch["l_suppkey"]})

    ps = aggregate(
        li.map_batches(ps_partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["p", "s"], {},
        {"p": pa.int64(), "s": pa.int64()})

    def pair_kernel(g: pa.Table) -> pa.Table:
        g = g.sort_by([("p", "ascending"), ("s", "ascending")])
        p = g["p"].to_numpy()
        s = g["s"].to_numpy()
        if len(s) and (s.max() >= 1 << TRI_NODE_BITS or s.min() < 0):
            raise ValueError("triangles: suppkey outside 31-bit range")
        starts, sizes = runs(p)
        if len(sizes) and sizes.max() > TRI_MAX_PART_DEG:
            raise ValueError("triangles: a part exceeds "
                             f"{TRI_MAX_PART_DEG} suppliers")
        i, j = run_pairs(starts, sizes)
        return pa.table({"e": (s[i] << 32) | s[j]})

    raw_pairs = partitioned(ps, "p", pair_kernel, {"e": pa.int64()},
                            rows_hint=_parquet_rows(li_path))

    edges = aggregate(raw_pairs, "e", {}, {"e": pa.int64()})
    edges = edges.materialize()   # consumed twice: wedges + probe side
    n_edges = edges.count()

    def with_u(batch: pa.Table) -> pa.Table:
        e = batch["e"].to_numpy()
        return pa.table({"u": pa.array(e >> 32), "e": batch["e"]})

    keyed = edges.map_batches(with_u, batch_format="pyarrow",
                              zero_copy_batch=True)

    # exact wedge volume = sum_u C(fwd_deg(u), 2): one degree
    # aggregate over the edge table, one scalar Sum.  Sizes the
    # wedge and closure stages honestly (the earlier n_edges*8 guess
    # under-partitions dense graphs) and drives the loud forward-
    # degree bail below.
    deg = aggregate(keyed, "u", {"d": ("u", "count")},
                    {"u": pa.int64(), "d": pa.int64()})

    def wedge_count(batch: pa.Table) -> pa.Table:
        d = batch["d"].to_numpy()
        return pa.table({"w": pa.array(d * (d - 1) // 2),
                         "dmax": batch["d"]})

    stats = aggregate(
        deg.map_batches(wedge_count, batch_format="pyarrow",
                        zero_copy_batch=True),
        [], {"n_wedges": ("w", "sum"), "max_fwd_deg": ("dmax", "max")},
        {"n_wedges": pa.int64(), "max_fwd_deg": pa.int64()}).take_all()[0]
    n_wedges = int(stats["n_wedges"] or 0)
    max_fwd = int(stats["max_fwd_deg"] or 0)
    if max_fwd > TRI_MAX_FWD_DEG:
        raise ValueError(
            f"triangles: a node's forward degree ({max_fwd}) exceeds "
            f"{TRI_MAX_FWD_DEG}; one wedge kernel would materialize "
            "C(deg, 2) rows — re-orient edges by degree order or raise "
            "the cap deliberately")

    def wedge_kernel(g: pa.Table) -> pa.Table:
        g = g.sort_by([("u", "ascending"), ("e", "ascending")])
        u = g["u"].to_numpy()
        v = (g["e"].to_numpy() & 0x7FFFFFFF)
        starts, sizes = runs(u)
        i, j = run_pairs(starts, sizes)
        return pa.table({"vw": (v[i] << 32) | v[j], "u": u[i]})

    wedges = partitioned(keyed, "u", wedge_kernel,
                         {"vw": pa.int64(), "u": pa.int64()},
                         rows_hint=max(1, n_wedges))

    def tag_edges(batch: pa.Table) -> pa.Table:
        return pa.table({"vw": batch["e"],
                         "u": pa.array(np.full(len(batch), -1,
                                               np.int64))})

    probe_in = wedges.union(edges.map_batches(
        tag_edges, batch_format="pyarrow", zero_copy_batch=True))

    def close_kernel(g: pa.Table) -> pa.Table:
        vw = g["vw"].to_numpy()
        u = g["u"].to_numpy()
        is_edge = u < 0
        evw = np.sort(vw[is_edge])
        wvw = vw[~is_edge]
        wu = u[~is_edge]
        pos = np.searchsorted(evw, wvw)
        pos_c = np.minimum(pos, max(0, len(evw) - 1))
        hit = np.zeros(len(wvw), dtype=bool) if not len(evw) else \
            (evw[pos_c] == wvw) & (pos < len(evw))
        tvw = wvw[hit]
        nodes = np.concatenate([wu[hit], tvw >> 32,
                                tvw & 0x7FFFFFFF])
        un, c = np.unique(nodes, return_counts=True)
        return pa.table({"node": un.astype(np.int64),
                         "c": c.astype(np.int64)})

    partials = partitioned(probe_in, "vw", close_kernel,
                           {"node": pa.int64(), "c": pa.int64()},
                           rows_hint=max(1, n_wedges + n_edges))

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"s_suppkey": batch["node"],
                         "n_triangles": batch["n_triangles"]})

    return aggregate(
        partials,
        "node", {"n_triangles": ("c", "sum")},
        {"node": pa.int64(), "n_triangles": pa.int64()}) \
        .map_batches(rename, batch_format="pyarrow",
                     zero_copy_batch=True)


# graph_components: congruence-class sparsification keeps the test
# graph multi-component (the full part<->supplier graph is one giant
# component at every sf); both predicates are integer/float-exact in
# the SQL mirror
CC_QTY_MAX = 2.0
CC_MOD = 7


def graph_components(sf_dir: str, *, qty_max: float = CC_QTY_MAX,
                     mod: int = CC_MOD):
    """Connected components of the sparsified part<->supplier graph
    (edges where ``l_quantity < qty_max`` and part/supplier agree mod
    ``mod``): every node with at least one edge labeled with its
    component's minimum node id.

    Engine shape: per-batch pre-deduped edge emit -> distinct pair
    groupby -> :func:`dedup.distributed_components` (alternating
    star-contraction rounds, asserted fixpoint) -> one (node, label)
    union + Min aggregate (a root labels itself).  The SQL mirror is a
    recursive-CTE transitive closure — O(component^2) rows, viable
    because the sparsified test graph is small; the engine path is the
    scale shape (star contraction is O(E) per round).

    Returns (node, comp)."""
    import ray.data as rd

    from .dedup import distributed_components

    li = read_table(f"{sf_dir}/lineitem.parquet",
                    ["l_partkey", "l_suppkey", "l_quantity"])

    def edge_partial(batch: pa.Table) -> pa.Table:
        p = batch["l_partkey"].to_numpy().astype(np.int64)
        s = batch["l_suppkey"].to_numpy().astype(np.int64)
        q = batch["l_quantity"].to_numpy(zero_copy_only=False)
        m = (q < qty_max) & (p % mod == s % mod)
        # doc_a < doc_b invariant: part ids are even, supplier ids odd
        a = np.minimum(p[m] * 2, s[m] * 2 + 1)
        b = np.maximum(p[m] * 2, s[m] * 2 + 1)
        return pa.table({"doc_a": pa.array(a), "doc_b": pa.array(b)})

    pairs = aggregate(
        li.map_batches(edge_partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["doc_a", "doc_b"], {},
        {"doc_a": pa.int64(), "doc_b": pa.int64()}).materialize()
    n_pairs = pairs.count()
    if n_pairs == 0:
        return rd.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "comp": pa.array([], pa.int64())}))

    labels = distributed_components(pairs, n_pairs)

    def self_rows(batch: pa.Table) -> pa.Table:
        u = pa.concat_arrays([batch["doc_a"].combine_chunks(),
                              batch["doc_b"].combine_chunks()])
        return pa.table({"doc_id": u, "cluster": u})

    nodes = pairs.map_batches(self_rows, batch_format="pyarrow",
                              zero_copy_batch=True)

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["doc_id"],
                         "comp": batch["min(cluster)"]})

    return aggregate(
        labels.union(nodes),
        "doc_id", {"min(cluster)": ("cluster", "min")},
        {"doc_id": pa.int64(), "min(cluster)": pa.int64()}) \
        .map_batches(rename, batch_format="pyarrow",
                     zero_copy_batch=True)
