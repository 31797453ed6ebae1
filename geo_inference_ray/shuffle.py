"""Skew handling: hot-key detection and salting (north rule: "skewed hot
cells (dense web regions) are salted and range-repartitioned before a
groupby-cell aggregate-sort shuffle").

Pattern: a cheap counting pre-pass over the key column finds keys whose
group size exceeds ``cap``; those are split into ``ceil(n / cap)`` salt
sub-groups.  Consumers either (a) aggregate per (key, salt) then combine
the small per-salt partials (associative aggregates), or (b) replicate
the group's shared side to every salt (the kNN candidate pattern in
knn.py).  The driver-side hot map is bounded by the key-space (spatial
cells), not the row count, so broadcasting it via ``ray.put`` is safe at
100 TB.

Driver collects: :func:`collect` is the package's one bounded collect
of a Dataset (or of driver Arrow tables) into one driver table.

Aggregates: :func:`aggregate` is the package's one grouped (or
whole-Dataset) sum/min/max/count.  It runs one Arrow ``group_by`` per
block, collects the partials under ``PARTIAL_ROWS_DRIVER_LIMIT`` (and
``COLLECT_BYTES_LIMIT``) and folds them on the driver with
:func:`fold_partials`; past the bound :func:`fold_distributed` runs
Ray's groupby over the partials.

Group kernels: :func:`partitioned` is the package's one hash-partitioned
group primitive.  It shuffles rows on ``hash_mix(key)`` into
``partitions_for(rows_hint)`` partitions and runs one Arrow kernel per
partition over all of its groups; its output blocks always carry the
declared schema, so only typed Arrow reaches the next all-to-all.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .pools import cluster_cpus

DEFAULT_CAP = 1024
MAX_SALTS = 8  # replication-factor bound: candidate-replicating consumers
               # pay O(n_salts) duplication, so hot groups are split into
               # at most this many sub-groups (work per sub-group stays
               # bounded by the in-group pruning instead)


# Max buffered partial rows one driver fold takes before it bails to a
# distributed groupby: every aggregate, textops.dup_spans and
# tiling.pixel_counts.  Read at call time, so tests can lower it.
PARTIAL_ROWS_DRIVER_LIMIT = 16_000_000
# Max Arrow bytes any bounded collect buffers, whatever its row limit:
# a row bound alone lets string or multi-column partials (md5 keys,
# word pairs) hold several times this on the driver.
COLLECT_BYTES_LIMIT = 256 << 20


def collect(source, schema: pa.Schema,
            limit: int | None = None) -> pa.Table | None:
    """The package's one driver collect: the rows of ``source`` (a
    Dataset, or an iterable of ``pa.Table``) as one Arrow table with
    ``schema``'s columns, cast to its types, in stream order.  Empty
    and schema-less blocks are skipped; no rows give
    ``schema.empty_table()``.  With a ``limit``, returns ``None`` as
    soon as more than ``limit`` rows or ``COLLECT_BYTES_LIMIT`` bytes
    have arrived, without pulling the rest: the caller then takes its
    distributed path or fails loudly."""
    if hasattr(source, "iter_batches"):
        source = source.iter_batches(batch_size=None,
                                     batch_format="pyarrow")
    tables, n, nbytes = [], 0, 0
    for t in source:
        if not t.num_rows:
            continue
        t = t.select(schema.names).cast(schema)
        n += t.num_rows
        nbytes += t.nbytes
        if limit is not None and (n > limit
                                  or nbytes > COLLECT_BYTES_LIMIT):
            return None
        tables.append(t)
    return pa.concat_tables(tables) if tables else schema.empty_table()


def _group(t: pa.Table, keys: list[str], aggs: dict, schema: pa.Schema,
           *, fold: bool) -> pa.Table:
    """One Arrow ``group_by(keys)`` over ``t``: output ``name`` is
    ``op`` of ``t[col]`` for each ``name -> (col, op)`` of ``aggs``.  A
    count counts rows, nulls included; in a fold (``fold=True``) it
    sums the partial counts, and the keys come out ascending.  Cast to
    ``schema``."""
    cols = {k: t[k] for k in keys}
    cols.update({name: t[col] for name, (col, _) in aggs.items()})
    spec = [(name, "count", pc.CountOptions("all"))
            if op == "count" and not fold
            else (name, "sum" if op == "count" else op)
            for name, (_, op) in aggs.items()]
    g = pa.table(cols).group_by(keys, use_threads=False).aggregate(spec)
    g = g.rename_columns([c if c in keys else c.rsplit("_", 1)[0]
                          for c in g.column_names])
    if fold and keys:
        g = g.sort_by([(k, "ascending") for k in keys])
    return g.select(schema.names).cast(schema)


def fold_partials(partials: pa.Table, keys: list[str], aggs: dict,
                  schema) -> pa.Table:
    """The driver fold of :func:`aggregate`'s partials (one column per
    output name of ``aggs``): one row per key in ascending key order
    (one row with no keys), a count folded by sum, cast to
    ``schema``."""
    return _group(partials, list(keys),
                  {n: (n, op) for n, (_, op) in aggs.items()},
                  pa.schema(schema), fold=True)


def fold_distributed(partials, keys: list[str], aggs: dict, schema):
    """:func:`fold_partials` as Ray's sort groupby over the partials
    Dataset (one column per output name of ``aggs``): the bail-out of
    every driver fold, and the package's one ``ray.data.aggregate``
    use.  Lazy; cast to ``schema``."""
    from ray.data import aggregate as ra

    schema = pa.schema(schema)
    fns = {"sum": ra.Sum, "min": ra.Min, "max": ra.Max, "count": ra.Sum}
    folds = [fns[op](n, alias_name=n) for n, (_, op) in aggs.items()]
    return partials.groupby(list(keys) or None).aggregate(
        *(folds or [ra.Count()])).map_batches(
        lambda t: t.select(schema.names).cast(schema),
        batch_format="pyarrow", zero_copy_batch=True)


def aggregate_table(ds, keys, aggs: dict, schema):
    """:func:`aggregate`'s result as one driver ``pa.Table`` when the
    per-block partials fit the driver bound, else the lazy Dataset of
    :func:`fold_distributed` over them.  For callers that consume the
    result on the driver either way.  Runs its input."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    schema = pa.schema(schema)
    part = ds.map_batches(lambda t: _group(t, keys, aggs, schema, fold=False),
                          batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None)
    t = collect(part, schema, PARTIAL_ROWS_DRIVER_LIMIT)
    if t is None:
        return fold_distributed(part, keys, aggs, schema)
    return fold_partials(t, keys, aggs, schema)


def aggregate(ds, keys, aggs: dict, schema):
    """The package's one aggregate: ``ds`` grouped by ``keys`` (a name,
    a list of names, or ``[]`` for one whole-Dataset row), with
    ``aggs`` mapping each output name to ``(column, "sum" | "min" |
    "max" | "count")``.  A count counts rows; sum, min and max skip
    nulls.  Returns a Dataset of one row per key, keys ascending, cast
    to ``schema`` (keys first, then the outputs, in its order).

    It runs its input when it is called: one Arrow ``group_by`` per
    whole block, the partials collected with :func:`collect` up to
    ``PARTIAL_ROWS_DRIVER_LIMIT`` rows (and ``COLLECT_BYTES_LIMIT``
    bytes) and folded on the driver by :func:`fold_partials`, in
    blocks of at most ``HP_TARGET_ROWS`` rows.  Past the bound the
    partials go through :func:`fold_distributed` instead, which runs
    lazily.  An Arrow fold keeps every key type (Ray's aggregate
    changes the unit of ``timestamp[us]`` keys; the cast to ``schema``
    restores it on that path)."""
    t = aggregate_table(ds, keys, aggs, schema)
    return table_dataset(t) if isinstance(t, pa.Table) else t


def table_dataset(t: pa.Table):
    """A driver table as a Dataset in blocks of at most
    ``HP_TARGET_ROWS`` rows."""
    import ray.data as rd

    return rd.from_arrow([t.slice(i, HP_TARGET_ROWS) for i in
                          range(0, max(t.num_rows, 1), HP_TARGET_ROWS)])


def key_counts(ds, key: str) -> dict[int, int]:
    """Exact group sizes for one int key column, as a driver dict:
    :func:`aggregate_table`'s count, so only one row per key per block
    crosses the wire (Ray's sort groupby took 8-9 s on a 1.28 M-partial
    input).  Like :func:`aggregate`, it runs its input."""
    schema = pa.schema([(key, pa.int64()), ("cnt", pa.int64())])
    t = aggregate_table(ds, key, {"cnt": (key, "count")}, schema)
    if not isinstance(t, pa.Table):
        t = collect(t, schema)
    # numpy tolist: Arrow's to_pylist is ~15x slower per element
    return dict(zip(t[key].to_numpy().tolist(), t["cnt"].to_numpy().tolist()))


def salt_plan(counts: dict[int, int], cap: int = DEFAULT_CAP,
              max_salts: int = MAX_SALTS) -> dict[int, int]:
    """key -> number of salt buckets (1 for cold keys,
    min(ceil(n/cap), max_salts) hot)."""
    return {k: min(max(1, -(-n // cap)), max_salts)
            for k, n in counts.items() if n > cap}


def plan_lookup(plan: dict[int, int]):
    """Vectorized salt-plan lookup: plan dict -> ``n_salt(keys_arr)``
    returning the per-key salt-bucket count (1 for keys outside the
    plan).  The single implementation of the sorted-keys/searchsorted
    probe — knn's emit stage and its emitted-row estimator must agree
    exactly or partition sizing drifts from the actual emission."""
    if plan:
        k = np.fromiter(plan.keys(), dtype=np.int64)
        v = np.fromiter(plan.values(), dtype=np.int64)
        o = np.argsort(k)
        k, v = k[o], v[o]
    else:
        k = np.empty(0, np.int64)
        v = np.empty(0, np.int64)

    def n_salt(keys_arr: np.ndarray) -> np.ndarray:
        n = np.ones(len(keys_arr), dtype=np.int64)
        if len(k) and len(keys_arr):
            pos = np.clip(np.searchsorted(k, keys_arr), 0, len(k) - 1)
            hit = k[pos] == keys_arr
            n[hit] = v[pos[hit]]
        return n

    return n_salt


def add_salt(ds, key: str, plan: dict[int, int], id_col: str):
    """Append a deterministic ``salt`` column: id % n_salts(key), 0 for
    cold keys.  Use before groupby([key, "salt"]) with per-salt partial
    aggregation.

    A stateless TASK fn that reads the broadcast plan with ``ray.get``
    per batch (the hot-key map is small, so :func:`plan_lookup` sorts
    it per batch), not an actor pool: a second actor pool in the same
    dataset pins another CPU even while idle, which deadlocks narrow
    sessions (2 CPUs: upstream pool + this pool starve the read task)
    — and task fns keep operator fusion available."""
    import ray

    plan_ref = ray.put(plan)

    def salter(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy()
        n_salt = plan_lookup(ray.get(plan_ref))(batch[key].to_numpy())
        salt = ids % n_salt
        return batch.append_column("salt", pa.array(salt))

    return ds.map_batches(salter, batch_format="pyarrow",
                          zero_copy_batch=True)


HP_TARGET_ROWS = 250_000   # per-partition kernel-input row bound
HP_MIN_PARTITIONS = 8
HP_MAX_PARTITIONS = 1 << 20
HP_PARALLEL_ROWS = 2048    # min rows to justify one extra partition


def partitions_for(rows: int, target_rows: int = HP_TARGET_ROWS) -> int:
    """Partition count that (a) bounds each kernel's input to
    ~target_rows — ceil(rows / target), so the single-task kernel stays
    memory-bounded at ANY input size (a fixed count means partition
    size = input/64: a multi-terabyte table per task at 100 TB) — and
    (b) never STARVES the cluster: the floor is 2x the cluster CPU
    count (clamped so tiny inputs don't pay thousands of near-empty
    partitions), because a size-only rule hands a 1.28 M-row kernel 8
    partitions on a 32-CPU box and 24 cores idle (measured 2x slowdown
    on the minhash pair stage, round 3)."""
    rows = int(rows)
    floor = min(2 * cluster_cpus(),
                max(HP_MIN_PARTITIONS, -(-rows // HP_PARALLEL_ROWS)))
    floor = max(HP_MIN_PARTITIONS, floor)
    return int(min(HP_MAX_PARTITIONS,
                   max(floor, -(-rows // target_rows))))


def hash_mix(keys: np.ndarray, num_partitions: int) -> np.ndarray:
    """Partition id for an int64 key column: Fibonacci multiplicative
    mix (golden-ratio constant, wrap-around uint64) before the modulo.
    A raw ``key % P`` collapses when the key's low bits are structured
    — e.g. a packed key ``cell << 24 | salt`` with salt mostly 0 maps
    EVERY row to partition 0 for any P dividing 2^24 (power-of-two P
    is the common case from partitions_for's 2x-CPU floor).  Pure
    function of the key, so groups are never split."""
    h = keys.astype(np.uint64, copy=False) * np.uint64(
        0x9E3779B97F4A7C15)
    return ((h >> np.uint64(33))
            % np.uint64(num_partitions)).astype(np.int64)


def runs(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, sizes) of the runs of equal rows over sorted key
    arrays: the group boundaries a partition kernel walks after its
    sort."""
    new = np.zeros(len(keys[0]), dtype=bool)
    new[:1] = True
    for k in keys:
        new[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(new)
    return starts, np.diff(np.append(starts, len(new)))


def run_pairs(starts: np.ndarray,
              sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row indices (i, j), i < j, of every pair of rows inside each run
    of :func:`runs`, built one triangle per distinct run size."""
    ia, ib = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for k in np.unique(sizes[sizes > 1]):
        rows = starts[sizes == k][:, None] + np.arange(k)
        a, b = np.triu_indices(int(k), 1)
        ia.append(rows[:, a].ravel())
        ib.append(rows[:, b].ravel())
    return np.concatenate(ia), np.concatenate(ib)


def partitioned(ds, key: str, kernel, schema, *, rows_hint: int):
    """Hash-partition ``ds`` on the int column ``key`` and run ONE
    vectorized ``kernel(pa.Table) -> pa.Table`` per partition over all
    of its groups (every row of a key reaches exactly one call).  This
    replaces a per-group ``map_groups`` for high-cardinality keys,
    where one call per tiny group dominates the runtime.

    ``rows_hint`` is an upper-bound row estimate (parquet footer
    metadata, a pre-pass count or a combinatorial bound) and sets the
    partition count through :func:`partitions_for`.  ``schema`` (a
    ``pa.Schema`` or a name -> type mapping) is the output contract:
    every kernel output is cast to it, an empty one becomes a typed
    empty table, and a populated one missing a column raises.

    The exchange is Ray's sort on ``pkey`` with the boundaries given
    (``1 .. n_parts - 1``), so no sampling pass runs and each sort
    output block is exactly one partition; a whole-block
    ``map_batches`` then runs the kernel once per partition.  A
    partition that got no rows stays a schema-less empty block that
    reaches no kernel.

    Ray 2.49 stalls the exchange at ~zero CPU when untyped or
    schema-less blocks feed the next shuffle (measured: 58 s for a
    540 K-row two-key groupby that took 6 s on typed Arrow), which is
    why the cast lives here.  The key map also drops the input's
    schema metadata, which Ray otherwise fails to hash when it
    deduplicates block schemas: ``sources.read_table`` blocks carry
    none, but Ray adds a ``pandas`` entry when it turns a pandas block
    (a ``batch_format="pandas"`` map's output) into Arrow.  The
    exchange is Ray's sort: ``repartition(keys=)`` under
    ``HASH_SHUFFLE`` deadlocks a 1-CPU session, and with its
    aggregator-CPU override it ran ~9x slower (120 K rows, 8
    partitions, 1 vCPU)."""
    schema = pa.schema(schema)
    n_parts = partitions_for(rows_hint)

    def add_pkey(batch: pa.Table) -> pa.Table:
        return batch.replace_schema_metadata(None).append_column(
            "pkey", pa.array(hash_mix(batch[key].to_numpy(), n_parts)))

    def run(t: pa.Table) -> pa.Table:
        out = kernel(t.drop_columns(["pkey"]))
        if not out.num_rows:
            return schema.empty_table()
        missing = [n for n in schema.names if n not in out.column_names]
        if missing:
            raise KeyError(f"partitioned: kernel output missing {missing} "
                           f"(has {out.column_names})")
        return out.select(schema.names).cast(schema)

    return ds.map_batches(add_pkey, batch_format="pyarrow",
                          zero_copy_batch=True).sort(
        "pkey", boundaries=list(range(1, n_parts))).map_batches(
        run, batch_format="pyarrow", batch_size=None)
