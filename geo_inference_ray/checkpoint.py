"""Checkpointed, resumable partitioned runs with per-partition lineage.

North rule: "every partition emits lineage records and checkpoints so a
killed job resumes without recomputing completed cells."  The reference
has nothing here (crash => full rerun, SURVEY §4); this module is the
designed replacement:

* output layout: ``<out_root>/<stage>/key=<key>/part-*.parquet`` — one
  directory per partition key, written to a temp dir and atomically
  renamed, so a partition is either absent or complete;
* ``manifest.jsonl``: one lineage record per completed partition
  ``{stage, key, input_fingerprint, rows_out, bytes_out, wall_ms,
  attempt, finished_at}`` — appended after the rename;
* resume: completed keys are read from the manifest AND validated
  against the directory (both must agree); pending keys are recomputed.
  If the input fingerprint of a completed key changed, it is
  invalidated and recomputed;
* per-task reductions: ``run_single_pass`` can hand every write task's
  rows to a ``reduce_fn`` and return the small per-task results, so a
  consumer that needs a summary of the written rows (the flagship's
  pixel counts) gets it from the same pass instead of re-running the
  input pipeline.

The unit of partitioning is the caller's key (hex-cell prefix, shard id,
tile range...).  Keys must deterministically map to their input slice —
resume correctness follows from outputs being pure functions of keys.
"""

from __future__ import annotations

import json
import os
import shutil
import time

from ray.data import Datasink

from .sources import read_table


class PartitionedRun:
    def __init__(self, out_root: str, stage: str):
        self.stage_dir = os.path.join(out_root, stage)
        self.stage = stage
        os.makedirs(self.stage_dir, exist_ok=True)
        self.manifest_path = os.path.join(self.stage_dir, "manifest.jsonl")

    # -- lineage -----------------------------------------------------------
    def records(self) -> list[dict]:
        if not os.path.exists(self.manifest_path):
            return []
        out = []
        with open(self.manifest_path) as f:
            for line in f:
                line = line.strip()
                if line:
                    out.append(json.loads(line))
        return out

    def completed(self, fingerprints: dict[str, str] | None = None) -> set[str]:
        """Keys whose manifest record exists, whose directory exists, and
        whose recorded fingerprint matches the expected one (if given).
        Only a key's latest record counts: its directory holds the rows
        of the last write, whatever earlier runs recorded."""
        done = set()
        latest = {rec["key"]: rec for rec in self.records()}
        for key, rec in latest.items():
            kdir = os.path.join(self.stage_dir, f"key={key}")
            if not os.path.isdir(kdir):
                continue
            if fingerprints is not None and \
                    rec.get("input_fingerprint") != fingerprints.get(key):
                continue
            done.add(key)
        return done

    def _append(self, rec: dict) -> None:
        with open(self.manifest_path, "a") as f:
            f.write(json.dumps(rec, sort_keys=True) + "\n")

    # -- execution ---------------------------------------------------------
    def run(self, keys: list[str], make_ds, fingerprints: dict[str, str]
            | None = None, attempt: int = 1) -> dict:
        """Process every pending key: ``make_ds(key)`` -> Dataset, write
        its parquet partition atomically, append the lineage record.

        Returns {"computed": [...], "skipped": [...]}.
        """
        fingerprints = fingerprints or {}
        done = self.completed(fingerprints if fingerprints else None)
        computed, skipped = [], []
        for key in keys:
            if key in done:
                skipped.append(key)
                continue
            t0 = time.time()
            ds = make_ds(key)
            kdir = os.path.join(self.stage_dir, f"key={key}")
            tmp = kdir + ".tmp"
            if os.path.exists(tmp):
                shutil.rmtree(tmp)
            if os.path.exists(kdir):
                shutil.rmtree(kdir)  # stale partial without manifest record
            os.makedirs(tmp)  # empty partitions still get a directory
            ds.write_parquet(tmp)
            rows, nbytes = _parquet_stats(tmp)
            os.rename(tmp, kdir)
            self._append({
                "stage": self.stage, "key": key,
                "input_fingerprint": fingerprints.get(key),
                "rows_out": rows, "bytes_out": nbytes,
                "wall_ms": int((time.time() - t0) * 1000),
                "attempt": attempt,
                "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            })
            computed.append(key)
        return {"computed": computed, "skipped": skipped}

    def run_single_pass(self, keys: list[str], ds, key_fn,
                        fingerprints: dict[str, str] | None = None,
                        attempt: int = 1, reduce_fn=None) -> dict:
        """Write every pending partition in ONE dataset execution.

        ``key_fn(batch) -> pa.Table`` appends a string ``part_key``
        column; each write task of the hive-partitioned sink
        (:class:`_HivePartitionSink`) writes its rows under
        ``part_key=<key>/``, then each completed subdirectory is
        atomically renamed into the ``key=<key>`` layout with its
        lineage record.  Replaces the one-filter-pass-per-key pattern
        (10 keys meant 10 full input scans); rows not belonging to any
        pending key are filtered out before the write, so resume skips
        finished partitions without recomputing them.

        Files per key = write tasks: every write task that holds rows
        of a key writes one file under it.  Ray runs at most one write
        task per input block (it may bundle small blocks into one), so
        ``ds``'s block count bounds the files per partition; the
        flagship's pages read gives one block per session CPU (see
        :func:`synth.pages_dataset`).

        ``reduce_fn(table) -> pa.Table``, if given, runs in every write
        task over the rows that task wrote (``part_key`` included); the
        per-task results come back as ``"reduced"`` — one table per
        write task that wrote rows, so a caller can summarise the
        written rows without a second pass over ``ds``.  Rows of skipped
        partitions are not in them.
        """
        import pyarrow as pa
        import pyarrow.compute as pc

        fingerprints = fingerprints or {}
        # hive-layout safety: key strings become directory names
        # (key=<key>); characters needing URL-encoding would make the
        # written dir diverge from the os.path lookup and silently
        # produce empty partitions — reject them up front
        import re

        bad = [k for k in keys
               if not re.fullmatch(r"[A-Za-z0-9._-]+", k)]
        if bad:
            raise ValueError(
                f"run_single_pass: partition keys must match "
                f"[A-Za-z0-9._-]+ (hive-dir safe); got {bad[:5]}")
        done = self.completed(fingerprints if fingerprints else None)
        pending = [k for k in keys if k not in done]
        skipped = [k for k in keys if k in done]
        if not pending:
            return {"computed": [], "skipped": skipped, "reduced": []}
        t0 = time.time()
        known = pa.array(keys, pa.string())
        pend = pa.array(pending, pa.string())
        all_pending = len(pending) == len(keys)

        def keyed(batch):
            out = key_fn(batch)
            pk = out["part_key"]
            declared = pc.is_in(pk, value_set=known)
            if not pc.all(declared, min_count=0).as_py():
                # a key outside `keys` would be silently dropped —
                # that's data loss, not resume-skipping; fail loudly
                novel = pk.filter(pc.invert(declared)).unique()
                raise ValueError(
                    f"run_single_pass: key_fn produced partition keys "
                    f"outside the declared key list: "
                    f"{sorted(novel.to_pylist())[:5]}")
            if all_pending:
                return out
            return out.filter(pc.is_in(pk, value_set=pend))

        tmp_root = os.path.join(self.stage_dir, "_singlepass.tmp")
        if os.path.exists(tmp_root):
            shutil.rmtree(tmp_root)
        os.makedirs(tmp_root)
        sink = _HivePartitionSink(tmp_root, reduce_fn)
        ds.map_batches(keyed, batch_format="pyarrow",
                       zero_copy_batch=True).write_datasink(sink)
        wall_ms = int((time.time() - t0) * 1000)
        computed = []
        for key in pending:
            src = os.path.join(tmp_root, f"part_key={key}")
            kdir = os.path.join(self.stage_dir, f"key={key}")
            if os.path.exists(kdir):
                shutil.rmtree(kdir)  # stale partial without manifest record
            if os.path.isdir(src):
                os.rename(src, kdir)
            else:
                os.makedirs(kdir)  # empty partitions still get a directory
            rows, nbytes = _parquet_stats(kdir)
            self._append({
                "stage": self.stage, "key": key,
                "input_fingerprint": fingerprints.get(key),
                "rows_out": rows, "bytes_out": nbytes,
                "wall_ms": wall_ms, "attempt": attempt,
                "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            })
            computed.append(key)
        shutil.rmtree(tmp_root, ignore_errors=True)
        return {"computed": computed, "skipped": skipped,
                "reduced": sink.reduced}

    def read(self, keys: list[str] | None = None,
             columns: list[str] | None = None):
        """Dataset over completed partitions (all, or the given keys),
        optionally pruned to ``columns``.  Partitions that hold no file
        (empty keys) contribute nothing; if none holds a file the
        dataset is empty."""
        done = sorted(self.completed()) if keys is None else keys
        paths = []
        for k in done:
            kdir = os.path.join(self.stage_dir, f"key={k}")
            paths.extend(os.path.join(kdir, f)
                         for f in sorted(os.listdir(kdir))
                         if f.endswith(".parquet"))
        return read_table(paths, columns)


class _HivePartitionSink(Datasink):
    """Parquet sink for ``run_single_pass``: each write task writes its
    rows under ``<root>/part_key=<key>/`` and returns ``reduce_fn`` of
    them; the driver collects the returns in ``reduced``.  File names
    carry the write task's index, so a retried task overwrites the
    files of its failed attempt instead of adding to them.

    Pages are written without dictionary encoding: the page rows' values
    are almost all unique, so dictionary pages cost write time and make
    the files larger (60 000 flagship rows: 9 122 828 -> 8 924 482 B)."""

    def __init__(self, root: str, reduce_fn=None):
        self.root = root
        self.reduce_fn = reduce_fn
        self.reduced: list = []

    def write(self, blocks, ctx):
        import pyarrow as pa
        import pyarrow.dataset as pads
        from ray.data.block import BlockAccessor

        # empty blocks may arrive without a schema; they hold nothing
        tables = [t for t in (BlockAccessor.for_block(b).to_arrow()
                              for b in blocks) if t.num_rows]
        if not tables:
            return None
        table = pa.concat_tables(tables)
        pads.write_dataset(
            table, self.root, format="parquet",
            file_options=pads.ParquetFileFormat().make_write_options(
                use_dictionary=False),
            partitioning=["part_key"], partitioning_flavor="hive",
            basename_template=f"part-{ctx.task_idx:06d}-{{i}}.parquet",
            existing_data_behavior="overwrite_or_ignore")
        return None if self.reduce_fn is None else self.reduce_fn(table)

    def on_write_complete(self, write_result) -> None:
        self.reduced = [r for r in write_result.write_returns
                        if r is not None]


def _parquet_stats(d: str) -> tuple[int, int]:
    import pyarrow.parquet as pq

    rows = nbytes = 0
    for root, _, files in os.walk(d):
        for fn in files:
            if fn.endswith(".parquet"):
                p = os.path.join(root, fn)
                rows += pq.ParquetFile(p).metadata.num_rows
                nbytes += os.path.getsize(p)
    return rows, nbytes


# ---------------------------------------------------------------------------
# Zone maps: footer-stats manifest + file-pruned reads
# ---------------------------------------------------------------------------
#
# "Prune at the read" infrastructure: per-file min/max of chosen columns
# (from parquet FOOTER statistics only — no data pages are touched) are
# written once to zonemap.json next to the files; a range query then
# opens only the files whose zone intersects the predicate.  On a
# Z-order / Hilbert-sorted layout (relational.zorder, geoext.hilbert)
# this turns a spatial range scan from O(all files) into O(overlapping
# files) — the single biggest read-side lever at 100 TB.

ZONEMAP_NAME = "zonemap.json"


def build_zonemap(root: str, columns: list[str]) -> dict:
    """Scan parquet footers under ``root`` and write ``zonemap.json``
    mapping each file (relative path) to {column: [min, max]} over its
    row groups.  Returns the map.  Columns missing statistics raise —
    a silent None would disable pruning for that file and read as
    "covered" when it wasn't."""
    import pyarrow.parquet as pq

    zmap: dict[str, dict] = {}
    for dirpath, _, files in os.walk(root):
        for fn in sorted(files):
            if not fn.endswith(".parquet"):
                continue
            p = os.path.join(dirpath, fn)
            md = pq.ParquetFile(p).metadata
            names = {md.schema.column(i).name: i
                     for i in range(md.num_columns)}
            ent: dict[str, list] = {}
            for col in columns:
                if col not in names:
                    raise ValueError(f"zonemap: column {col!r} not in "
                                     f"{p} (has {sorted(names)})")
                lo = hi = None
                for g in range(md.num_row_groups):
                    st = md.row_group(g).column(names[col]).statistics
                    if st is None or not st.has_min_max:
                        raise ValueError(
                            f"zonemap: no min/max stats for {col!r} in "
                            f"{p} row group {g}")
                    lo = st.min if lo is None else min(lo, st.min)
                    hi = st.max if hi is None else max(hi, st.max)
                ent[col] = [lo, hi]
            zmap[os.path.relpath(p, root)] = ent
    with open(os.path.join(root, ZONEMAP_NAME), "w") as f:
        json.dump(zmap, f, sort_keys=True)
    return zmap


def read_pruned(root: str, column: str, lo, hi,
                columns: list[str] | None = None):
    """Range-pruned Dataset over a zonemapped directory: only files
    whose [min, max] zone for ``column`` intersects [lo, hi] are
    opened; the exact row filter still runs on the survivors (zones
    are a superset screen).  Returns (dataset, n_files_total,
    n_files_read)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    zpath = os.path.join(root, ZONEMAP_NAME)
    with open(zpath) as f:
        zmap = json.load(f)
    keep = [os.path.join(root, rel) for rel, ent in sorted(zmap.items())
            if ent[column][0] <= hi and ent[column][1] >= lo]
    if not keep:
        # empty selection: an explicit empty table carrying the footer
        # schema (a fully-filtered read loses its columns downstream)
        import pyarrow.parquet as pq

        sch = pq.read_schema(
            os.path.join(root, next(iter(sorted(zmap)))))
        if columns is not None:
            sch = pa.schema([sch.field(c) for c in columns])
        return rd.from_arrow(sch.empty_table()), len(zmap), 0
    expr = (pc.field(column) >= lo) & (pc.field(column) <= hi)

    def in_range(batch: pa.Table) -> pa.Table:
        rows = batch.filter(expr)
        return rows if columns is None else rows.select(columns)

    # the filter column is read even when the caller does not keep it
    read = None if columns is None else list(dict.fromkeys([*columns,
                                                            column]))
    ds = read_table(keep, read).map_batches(
        in_range, batch_format="pyarrow", zero_copy_batch=True)
    return ds, len(zmap), len(keep)


def zonemap_range_query(sf_dir: str, lat_lo: float, lat_hi: float):
    """End-to-end zone-map demo with an exact-SQL contract: the
    geocoded pages are written ONCE (cached under /tmp per sf) into
    latitude-banded parquet partitions, a footer-stats zonemap is
    built, and the range read opens only the intersecting band files —
    yet must return exactly the rows a full-scan SQL filter returns
    (pruning is a superset screen; the exact predicate still runs).

    Returns a Dataset of (doc_id, lat, lon) with lat in
    [lat_lo, lat_hi]."""
    import numpy as np
    import pyarrow as pa

    from .stages import geo_pipeline

    base = os.path.basename(sf_dir.rstrip("/"))
    root = f"/tmp/graft_zonemap/{base}"
    marker = os.path.join(root, "_SUCCESS")
    if not os.path.exists(marker):
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root, exist_ok=True)

        def band(batch: pa.Table) -> pa.Table:
            lat = batch["lat"].to_numpy(zero_copy_only=False)
            b = np.clip(((lat + 90.0) // 15.0).astype(np.int64), 0, 11)
            return pa.table({
                "doc_id": batch["doc_id"], "lat": batch["lat"],
                "lon": batch["lon"],
                "band": pa.array([f"{x:02d}" for x in b.tolist()])})

        geo_pipeline(sf_dir, with_cells=False) \
            .select_columns(["doc_id", "lat", "lon"]) \
            .map_batches(band, batch_format="pyarrow",
                         zero_copy_batch=True) \
            .write_parquet(root, partition_cols=["band"])
        build_zonemap(root, ["lat"])
        with open(marker, "w") as f:
            f.write("ok")

    ds, _, _ = read_pruned(root, "lat", lat_lo, lat_hi,
                           columns=["doc_id", "lat", "lon"])
    return ds
