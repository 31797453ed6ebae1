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
of a Dataset (or of driver Arrow tables) into one driver table, and
:func:`sum_partials` its one driver fold of (key, partial count) rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

DEFAULT_CAP = 1024
MAX_SALTS = 8  # replication-factor bound: candidate-replicating consumers
               # pay O(n_salts) duplication, so hot groups are split into
               # at most this many sub-groups (work per sub-group stays
               # bounded by the in-group pruning instead)


# Max buffered partial rows one driver fold takes before it bails to a
# distributed groupby: key_counts, the minhash bucket counts,
# textops.dup_spans and tiling.pixel_counts (~256 MB of int64 pairs at
# the bound).  Read at call time, so tests can lower it.
PARTIAL_ROWS_DRIVER_LIMIT = 16_000_000


def collect(source, schema: pa.Schema,
            limit: int | None = None) -> pa.Table | None:
    """The package's one driver collect: the rows of ``source`` (a
    Dataset, or an iterable of ``pa.Table``) as one Arrow table with
    ``schema``'s columns, cast to its types, in stream order.  Empty
    and schema-less blocks are skipped; no rows give
    ``schema.empty_table()``.  With a ``limit``, returns ``None`` as
    soon as more than ``limit`` rows have arrived, without pulling the
    rest: the caller then takes its distributed path or fails loudly."""
    if hasattr(source, "iter_batches"):
        source = source.iter_batches(batch_size=None,
                                     batch_format="pyarrow")
    tables, n = [], 0
    for t in source:
        if not t.num_rows:
            continue
        n += t.num_rows
        if limit is not None and n > limit:
            return None
        tables.append(t.select(schema.names).cast(schema))
    return pa.concat_tables(tables) if tables else schema.empty_table()


def sum_partials(table: pa.Table, key: str, values: list[str]) -> pa.Table:
    """The driver partial-count fold: (key, partial counts) rows -> one
    row per distinct key in ascending key order, each ``values`` column
    summed as int64."""
    uk, inv = np.unique(table[key].to_numpy(), return_inverse=True)
    out = {key: pa.array(uk)}
    for v in values:
        sums = np.zeros(len(uk), dtype=np.int64)
        np.add.at(sums, inv, table[v].to_numpy())
        out[v] = pa.array(sums)
    return pa.table(out)


def key_counts(ds, key: str) -> dict[int, int]:
    """Exact group sizes for one int key column, computed with map-side
    partial counts (one row per key per batch crosses the wire).  The
    result is a DRIVER dict either way, so bounded partial volume is
    collected and folded with :func:`sum_partials`, skipping Ray's
    sort-based groupby entirely (measured 8-9 s on a 1.28 M-partial
    input); above PARTIAL_ROWS_DRIVER_LIMIT it bails to the groupby."""

    def partial(batch: pa.Table) -> pa.Table:
        k = batch[key].to_numpy()
        u, c = np.unique(k, return_counts=True)
        return pa.table({key: pa.array(u),
                         "cnt": pa.array(c.astype(np.int64))})

    part = ds.select_columns([key]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None)
    schema = pa.schema([(key, pa.int64()), ("cnt", pa.int64())])
    t = collect(part, schema, PARTIAL_ROWS_DRIVER_LIMIT)
    if t is not None:
        t = sum_partials(t, key, ["cnt"])
    else:
        from ray.data.aggregate import Sum

        t = collect(part.groupby(key).aggregate(Sum("cnt", alias_name="cnt")),
                    schema)
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


def arrow_bridge(ds, schema: "dict[str, pa.DataType]"):
    """Typed Arrow re-emission between a pandas ``map_groups`` output and
    a following all-to-all.

    Ray 2.49 pathological path (measured): pandas group-kernel blocks
    (including schema-less empties) feeding the next shuffle stall the
    exchange at ~zero CPU — 58 s for a 540 K-row two-key groupby that
    takes 6 s with one cheap Arrow normalization map in between.  Also
    shields downstream operators from schema-less empty blocks (the
    "RefBundle with a different schema" warnings)."""
    names = list(schema)

    def fix(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # the Ray 2.49 shield: schema-less/odd empty blocks
            return pa.table({n: pa.array([], t) for n, t in schema.items()})
        # a POPULATED batch missing a column is a real schema bug in the
        # upstream kernel — raise, never silently drop rows
        missing = [n for n in names if n not in batch.column_names]
        if missing:
            raise KeyError(
                f"arrow_bridge: populated batch missing {missing} "
                f"(has {batch.column_names})")
        return pa.table({n: batch[n] for n in names}).cast(
            pa.schema(schema))

    return ds.map_batches(fix, batch_format="pyarrow")
