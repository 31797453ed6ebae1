"""Cell-local kNN over the geocoded pages (north-rule operator) and
skew-aware groupby-cell aggregation.

kNN semantics: for each page, the k nearest other pages *within the same
hex7 cell* (planar squared-degree distance), ties broken by neighbor
doc_id.  This is the "cell-local kNN over sorted H3 rings" of the north
rule restricted to ring-0; a ring>0 extension re-keys each point to its
neighbor cells with the same machinery.

Skew (the load-bearing part): dense clusters make some hex cells hold
1000x the median row count, and a plain groupby(cell).map_groups dies on
the straggler group.  Two-pass salted design (shuffle.py):

1. count rows per cell (map-side partial counts — tiny shuffle);
2. every row is emitted to EVERY salt bucket of its cell as a
   *candidate*, and to exactly one (doc_id % n_salts) as a *probe*;
   groupby([hex7, salt]) then bounds each task at ~cap probes x n_cell
   candidates, parallelizing the hot cell across n_salts tasks.

The in-group kernel is fully vectorized: candidates pre-sorted by
doc_id, then a stable argsort of the distance matrix yields exact
(d2 asc, id asc) order — ties resolve identically to the SQL oracle
(ROW_NUMBER OVER (ORDER BY d2, neighbor_id)) because every distance is
computed with the same IEEE-754 expression on both sides.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .shuffle import (DEFAULT_CAP, aggregate, key_counts, partitioned, runs,
                      salt_plan)

K_DEFAULT = 5

# packed-id offsets of the 6 axial hex neighbors + self (ring 1):
# cell id = (q + OFF) * 65536 + (r + OFF), so (q±1, r) -> ±65536,
# (q, r±1) -> ±1, (q+1, r-1) -> +65535, (q-1, r+1) -> -65535
HEX_RING1_OFFSETS = (0, 1, -1, 65536, -65536, 65535, -65535)


def _emit_salted(plan_ref, k_col: str = "hex7", ring: int = 0):
    """pages batch -> (doc_id, lat, lon, gid, is_probe) rows with
    candidate replication across the cell's salt buckets; ``gid =
    target_cell << _SALT_BITS | salt`` keys one (cell, salt) group.

    ``ring=1``: each row is additionally emitted as a *candidate* to its
    6 hex-neighbor cells (HEX_RING1_OFFSETS), so a probe's group holds
    the full ring-1 neighborhood — the north rule's "cell-local kNN over
    sorted H3 rings".

    Returns a stateless task FUNCTION that reads the broadcast plan with
    ``ray.get`` per batch (as :func:`shuffle.add_salt` does): it fuses
    into the upstream read and, unlike an actor pool, never pins CPUs —
    an actor pool here deadlocked 2-CPU sessions once the projection
    stopped being materialized (read tasks + pool + shuffle aggregators
    competing)."""
    import ray

    from .shuffle import plan_lookup

    offsets = HEX_RING1_OFFSETS if ring == 1 else (0,)

    def fn(batch: pa.Table) -> pa.Table:
        n_salt_of = plan_lookup(ray.get(plan_ref))
        cell = batch[k_col].to_numpy()
        ids = batch["doc_id"].to_numpy()
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        parts = []
        for off in offsets:
            target = cell + off
            n_salt = n_salt_of(target)
            own = ids % n_salt
            reps = n_salt
            idx = np.repeat(np.arange(len(cell)), reps)
            salt = np.concatenate(
                [np.arange(r) for r in reps]) if len(reps) \
                else np.empty(0, dtype=np.int64)
            is_probe = (salt == own[idx]) if off == 0 \
                else np.zeros(len(idx), dtype=bool)
            parts.append((target[idx], idx, salt, is_probe))
        tcell = np.concatenate([p[0] for p in parts])
        idx = np.concatenate([p[1] for p in parts])
        salt = np.concatenate([p[2] for p in parts])
        is_probe = np.concatenate([p[3] for p in parts])
        return pa.table({
            "doc_id": pa.array(ids[idx]),
            "lat": pa.array(lat[idx]),
            "lon": pa.array(lon[idx]),
            "gid": pa.array((tcell << _SALT_BITS)
                            | salt.astype(np.int64)),
            "is_probe": pa.array(is_probe),
        })

    return fn


def _topk_exact(d2: np.ndarray, ids_c: np.ndarray, kk: int) -> np.ndarray:
    """Exact (d2 asc, id asc) top-kk column indices per row.

    ``ids_c`` must be ascending so stable sorts break distance ties by
    id.  argpartition fast path with a full-sort fallback for rows whose
    kk-th distance touches the partition boundary (possible outside
    ties)."""
    n = d2.shape[1]
    if n <= kk + 16:
        return np.argsort(d2, axis=1, kind="stable")[:, :kk]
    K2 = kk + 16
    part = np.argpartition(d2, K2 - 1, axis=1)[:, :K2]
    pd2 = np.take_along_axis(d2, part, axis=1)
    pid = ids_c[part]
    ordr = np.lexsort((pid, pd2), axis=-1)[:, :kk]
    sel = np.take_along_axis(part, ordr, axis=1)
    kth = np.take_along_axis(pd2, ordr[:, -1:], axis=1)[:, 0]
    bound = pd2.max(axis=1)
    for r in np.nonzero(kth >= bound)[0]:
        sel[r] = np.argsort(d2[r], kind="stable")[:kk]
    return sel


_DENSE_GRID_THRESHOLD = 4096


def _group_knn_arrays(ids: np.ndarray, lat: np.ndarray, lon: np.ndarray,
                      probe: np.ndarray, k: int):
    """Exact kNN for one (cell, salt) group, array-in/array-out:
    returns (doc_id, neighbor_id, rank) int64 arrays or None for an
    empty result.  Array form so the hash-partitioned caller pays ZERO
    table construction per group (the per-group dispatch overhead was
    the whole runtime on high-cardinality keys — dedup.py:247).

    Dense cells (> _DENSE_GRID_THRESHOLD candidates) use sub-grid ring
    pruning — the "sorted rings" scale path: candidates are binned into
    a fine grid; each probe bin expands Chebyshev rings until the
    worst kk-th distance in the bin beats the bound to the unsearched
    region (R * min_bin_size), which keeps the result EXACT while
    cutting the n^2 distance matrix to the local neighborhood."""
    probe = probe.astype(bool)
    order = np.argsort(ids, kind="stable")  # candidates in id order
    ids_c, lat_c, lon_c = ids[order], lat[order], lon[order]
    p_idx = np.nonzero(probe)[0]
    if len(ids_c) < 2 or len(p_idx) == 0:
        return None
    ids_p, lat_p, lon_p = ids[p_idx], lat[p_idx], lon[p_idx]
    n_cand = len(ids_c)
    kk = min(k, n_cand - 1)
    if n_cand <= _DENSE_GRID_THRESHOLD:
        out_doc = np.empty(len(ids_p) * kk, dtype=np.int64)
        out_nbr = np.empty(len(ids_p) * kk, dtype=np.int64)
        CH = 1024
        pos = 0
        for s in range(0, len(ids_p), CH):
            e = min(s + CH, len(ids_p))
            m = e - s
            dlat = lat_p[s:e, None] - lat_c[None, :]
            dlon = lon_p[s:e, None] - lon_c[None, :]
            d2 = dlat * dlat + dlon * dlon
            d2[ids_p[s:e, None] == ids_c[None, :]] = np.inf
            sel = _topk_exact(d2, ids_c, kk)
            out_doc[pos:pos + m * kk] = np.repeat(ids_p[s:e], kk)
            out_nbr[pos:pos + m * kk] = ids_c[sel.reshape(-1)]
            pos += m * kk
        return (out_doc, out_nbr,
                np.tile(np.arange(1, kk + 1, dtype=np.int64),
                        len(ids_p)))
    # ---- dense path: sub-grid ring pruning ----
    nb = max(2, int(np.sqrt(n_cand / 64.0)))
    minx, maxx = lon_c.min(), lon_c.max()
    miny, maxy = lat_c.min(), lat_c.max()
    bx = (maxx - minx) / nb or 1.0
    by = (maxy - miny) / nb or 1.0
    bmin = min(bx, by)
    cbx = np.clip(((lon_c - minx) / bx).astype(np.int64), 0, nb - 1)
    cby = np.clip(((lat_c - miny) / by).astype(np.int64), 0, nb - 1)
    cbin = cby * nb + cbx
    border = np.argsort(cbin, kind="stable")
    cbin_s = cbin[border]
    starts = np.searchsorted(cbin_s, np.arange(nb * nb))
    ends = np.searchsorted(cbin_s, np.arange(nb * nb), side="right")
    pbx = np.clip(((lon_p - minx) / bx).astype(np.int64), 0, nb - 1)
    pby = np.clip(((lat_p - miny) / by).astype(np.int64), 0, nb - 1)
    pbin = pby * nb + pbx
    out_frames = []
    for b in np.unique(pbin):
        pm = pbin == b
        pids, plat, plon = ids_p[pm], lat_p[pm], lon_p[pm]
        byy, bxx = int(b // nb), int(b % nb)
        R = 1
        while True:
            y0, y1 = max(0, byy - R), min(nb - 1, byy + R)
            x0, x1 = max(0, bxx - R), min(nb - 1, bxx + R)
            # gather candidate indices in the bin window
            rows = []
            for yy in range(y0, y1 + 1):
                s0, s1 = starts[yy * nb + x0], ends[yy * nb + x1]
                if s1 > s0:
                    rows.append(border[s0:s1])
            cand = np.concatenate(rows) if rows else np.empty(0, np.int64)
            # keep only within Chebyshev window on x (rows gathered span
            # contiguous bins x0..x1 already since bins sorted row-major)
            full_cover = (y0 == 0 and y1 == nb - 1
                          and x0 == 0 and x1 == nb - 1)
            if len(cand) >= kk + 1 or full_cover:
                cand = np.sort(cand)  # id order preserved via ids_c order
                dlat = plat[:, None] - lat_c[cand][None, :]
                dlon = plon[:, None] - lon_c[cand][None, :]
                d2 = dlat * dlat + dlon * dlon
                d2[pids[:, None] == ids_c[cand][None, :]] = np.inf
                ckk = min(kk, len(cand) - 1) if len(cand) > 1 else 0
                if ckk > 0:
                    sel = _topk_exact(d2, ids_c[cand], ckk)
                    kth = np.take_along_axis(
                        d2, sel[:, -1:], axis=1)[:, 0]
                    bound2 = (R * bmin) * (R * bmin)
                    if full_cover or (ckk == kk
                                      and bool((kth < bound2).all())):
                        out_frames.append((
                            np.repeat(pids, ckk),
                            ids_c[cand][sel.reshape(-1)],
                            np.tile(
                                np.arange(1, ckk + 1, dtype=np.int64),
                                len(pids)),
                        ))
                        break
            R += 1
    if not out_frames:
        return None
    return (np.concatenate([f[0] for f in out_frames]),
            np.concatenate([f[1] for f in out_frames]),
            np.concatenate([f[2] for f in out_frames]))


# salt fits in the low bits of the partition id: gid = hex7 << 24 | salt
# (hex7 < 2^33 packed axial id -> gid < 2^57; salt < 2^24 means a single
# cell can carry cap * 2^24 rows before the packing would collide)
_SALT_BITS = 24


def knn_in_cells(ds, k: int = K_DEFAULT, cap: int = DEFAULT_CAP,
                 ring: int = 0):
    """ds with (doc_id, lat, lon, hex7, ...) -> (doc_id, neighbor_id,
    rank) within-cell kNN, salted for hot cells.

    ``ring=1`` widens the candidate set to the 6 hex-neighbor cells
    (full ring-1 neighborhood; probes stay keyed to their own cell).

    The kernel runs through ``shuffle.partitioned`` on the packed
    (cell, salt) key gid: rows shuffle once, then ONE vectorized
    kernel per partition run-detects every (cell, salt) group over
    sorted gid and calls the array-form group kernel — a per-GROUP
    map_groups here paid one dispatch per (cell, salt, probe-bin)
    group, which dominated the runtime (group count is cells x salts;
    cf. dedup.py bucket_pairs_part)."""
    import ray

    # NOT materialized: the projection is re-executed by the count
    # pre-pass and the salted pass.  Re-running a column-pruned fused
    # read+transform twice streams; pinning an input-sized table in the
    # object store does not survive 100 TB.
    proj = ds.select_columns(["doc_id", "lat", "lon", "hex7"])
    counts = key_counts(proj, "hex7")
    plan = salt_plan(counts, cap)
    plan_ref = ray.put(plan)
    salted = proj.map_batches(_emit_salted(plan_ref, ring=ring),
                              batch_format="pyarrow", zero_copy_batch=True)

    # exact emitted-row count from the driver-side count + salt plan
    # (each row replicates to every salt bucket of each target cell):
    # sizes the partition count so per-kernel input stays bounded.
    # plan_lookup is the SAME lookup _emit_salted uses, so the
    # estimate equals the actual emission.
    from .shuffle import plan_lookup

    ck = np.fromiter(counts.keys(), dtype=np.int64) if counts \
        else np.empty(0, np.int64)
    cv = np.fromiter(counts.values(), dtype=np.int64) if counts \
        else np.empty(0, np.int64)
    n_salt = plan_lookup(plan)
    offsets = HEX_RING1_OFFSETS if ring == 1 else (0,)
    emitted = int(sum(int((cv * n_salt(ck + off)).sum())
                      for off in offsets))

    def knn_part(g: pa.Table) -> pa.Table:
        gid = g["gid"].to_numpy()
        order = np.argsort(gid, kind="stable")
        gid = gid[order]
        ids = g["doc_id"].to_numpy()[order]
        lat = g["lat"].to_numpy()[order]
        lon = g["lon"].to_numpy()[order]
        probe = g["is_probe"].to_numpy()[order]
        starts, sizes = runs(gid)
        ends = starts + sizes
        docs, nbrs, ranks = [], [], []
        for st, en in zip(starts.tolist(), ends.tolist()):
            res = _group_knn_arrays(ids[st:en], lat[st:en],
                                    lon[st:en], probe[st:en], k)
            if res is not None:
                docs.append(res[0])
                nbrs.append(res[1])
                ranks.append(res[2])
        if not docs:
            return g.slice(0, 0)
        return pa.table({"doc_id": np.concatenate(docs),
                         "neighbor_id": np.concatenate(nbrs),
                         "rank": np.concatenate(ranks)})

    # hash_mix inside the primitive, NOT gid % P: unsalted rows have
    # gid's low 24 bits all zero, so a raw modulo with power-of-two P
    # would send every row to partition 0
    return partitioned(salted, "gid", knn_part,
                       {"doc_id": pa.int64(), "neighbor_id": pa.int64(),
                        "rank": pa.int64()},
                       rows_hint=max(1, emitted))


def cell_aggregate(ds):
    """Per-hex7-cell aggregate with map-side partial aggregation.

    Emits (hex7, n_pages, min/max lat/lon) — ``shuffle.aggregate``
    combines each block first, so one row per (cell, block) crosses
    the wire instead of one per page (SURVEY §7.4).  Associative partials make
    hot cells a non-issue here — this IS the salting-free fast path for
    algebraic aggregates.  Counts are integers -> the DuckDB oracle hash
    is exact; min/max pick exact float values (order-independent).
    """
    return aggregate(
        ds.select_columns(["hex7", "lat", "lon"]),
        "hex7", {"n_pages": ("hex7", "count"), "min_lat": ("lat", "min"),
         "max_lat": ("lat", "max"), "min_lon": ("lon", "min"),
         "max_lon": ("lon", "max")},
        {"hex7": pa.int64(), "n_pages": pa.int64(), "min_lat": pa.float64(),
         "max_lat": pa.float64(), "min_lon": pa.float64(),
         "max_lon": pa.float64()})


def mutual_knn(ds, k: int = K_DEFAULT, cap: int = DEFAULT_CAP):
    """Mutual-kNN graph over the cell-local kNN: the edge (a, b)
    survives only when b is in a's top-k AND a is in b's top-k — the
    standard density-robust graph for clustering / outlier screening
    (one-sided kNN edges from a dense blob into a sparse neighbor are
    dropped).

    One :func:`knn_in_cells` pass is materialized (the kNN table is
    k*n rows of three ints — at 10^12 pages spill it to parquet
    scratch instead, the minhash band-table pattern), self-joined on
    the reversed (doc_id, neighbor_id) key, then normalized to
    doc_a < doc_b.  Returns (doc_a, doc_b, rank_ab, rank_ba)."""
    from .relational import join_partitions_for

    knn = knn_in_cells(ds, k=k, cap=cap).materialize()
    n = knn.count()
    if n == 0:
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "rank_ab": pa.array([], pa.int64()),
            "rank_ba": pa.array([], pa.int64())}))

    def swap(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["neighbor_id"],
            "neighbor_id": batch["doc_id"],
            "rank_ba": batch["rank"]})

    rev = knn.map_batches(swap, batch_format="pyarrow",
                          zero_copy_batch=True)
    j = knn.join(rev, join_type="inner",
                 num_partitions=join_partitions_for(n),
                 on=("doc_id", "neighbor_id"))

    def norm(batch: pa.Table) -> pa.Table:
        a = batch["doc_id"].to_numpy()
        b = batch["neighbor_id"].to_numpy()
        keep = a < b  # each mutual edge appears once per direction
        return pa.table({
            "doc_a": pa.array(a[keep]),
            "doc_b": pa.array(b[keep]),
            "rank_ab": batch["rank"].filter(pa.array(keep)),
            "rank_ba": batch["rank_ba"].filter(pa.array(keep))})

    return j.map_batches(norm, batch_format="pyarrow",
                         zero_copy_batch=True)
