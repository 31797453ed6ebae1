"""The benchmark's four workloads.

Each workload knows its input sizes, builds its seeded input, computes a
reference for that input once (cached next to the input, never timed),
runs one job through the package's public API, checks the job's output
against the reference, and, for traced runs, times its layers.

* pip_join        read_parquet -> synth pages -> fused stages (extract,
                  geocode, cells, PIP join); map-only, read-fused.
* knn_cells       the same pages layer feeding knn.knn_in_cells (key
                  counts, salt plan, hash shuffle, group kernel).
* flagship_chain  GeoInferenceRay with mask -> vec -> YOLO -> COCO over
                  one documents.parquet (checkpoint sink, mask tiles,
                  polygons_from_tiles, annotations).
* polygonize_grid polygonize.polygons_distributed over seeded blob mask
                  tiles, then annotations.to_yolo / to_coco.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import inputs

DOC_COLS = ["doc_id", "text", "lang", "source"]
REFERENCE_VERSION = 2


class Mismatch(AssertionError):
    """A job's output differs from its reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def same(a: np.ndarray, b: np.ndarray, what: str) -> None:
    """Exact equality; floats compare bit for bit."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype.kind == "f" and b.dtype.kind == "f":
        a, b = a.astype(np.float64).view(np.int64), \
            b.astype(np.float64).view(np.int64)
    expect(a.shape == b.shape and np.array_equal(a, b),
           f"{what}: {a.shape} vs {b.shape} values differ")


def cached_reference(path: str, compute) -> dict:
    """npz cache of a reference dict of arrays (strings as 0-d arrays)."""
    if os.path.exists(path):
        with np.load(path, allow_pickle=False) as z:
            return {k: z[k] for k in z.files}
    ref = compute()
    tmp = path + ".tmp.npz"
    np.savez(tmp, **ref)
    os.replace(tmp, path)
    return ref


def duckdb_con(views: dict):
    """Single-threaded DuckDB with ``views`` (name -> parquet path or
    Arrow table) registered, the oracle environment."""
    import duckdb

    con = duckdb.connect()
    con.execute("SET threads=1")
    for name, src in views.items():
        if isinstance(src, str):
            con.execute(f"CREATE VIEW {name} AS SELECT * FROM "
                        f"read_parquet('{src}')")
        else:
            con.register(name, src)
    return con


def oracle(name: str) -> str:
    from __ray_entry__ import oracle_sql

    return oracle_sql()[name]


def consume(ds) -> pa.Table:
    """Pull every block of a Dataset into this process (iter_batches keeps
    ds.stats() populated, unlike count())."""
    blocks = [b for b in ds.iter_batches(batch_size=None,
                                         batch_format="pyarrow")]
    return pa.concat_tables(blocks) if blocks else None


def pages_ds(path: str, mode: str | None, keep=None, batch_size=8192):
    """The pages layer over a shard directory: read_parquet -> synthesized
    pages -> fused extract/geocode/cells[/PIP] map (read-fused)."""
    import ray.data as rd

    from geo_inference_ray import stages, synth

    ds = rd.read_parquet(path, columns=DOC_COLS)
    ds = ds.map_batches(synth.synth_pages_batch, batch_format="pyarrow",
                        zero_copy_batch=True)
    return ds.map_batches(stages.fused_page_fn(mode, True, keep=keep),
                          batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)


def replay_stages(path: str) -> dict[str, float]:
    """Replay the pages kernels in-process over the same parquet files
    the job reads, timing each public stage separately."""
    import time

    from geo_inference_ray import stages, synth

    extract, geocode = stages.ExtractText(), stages.Geocoder()
    join = stages.PIPJoiner(None, "inner")
    out = {"synth.pages_s": 0.0, "stages.extract_s": 0.0,
           "stages.geocode_s": 0.0, "stages.cells_s": 0.0,
           "stages.pip_s": 0.0, "stages.rows_in": 0, "stages.rows_joined": 0}
    files = sorted(f for f in os.listdir(path) if f.endswith(".parquet"))
    for f in files:
        b = pq.read_table(os.path.join(path, f), columns=DOC_COLS)
        for name, fn in (("synth.pages_s", synth.synth_pages_batch),
                         ("stages.extract_s", extract),
                         ("stages.geocode_s", geocode),
                         ("stages.cells_s", stages.encode_cells),
                         ("stages.pip_s", join)):
            t0 = time.perf_counter()
            nxt = fn(b)
            out[name] += time.perf_counter() - t0
            if name == "synth.pages_s":
                out["stages.rows_in"] += nxt.num_rows
            b = nxt
        out["stages.rows_joined"] += b.num_rows
    return out


class Workload:
    name = ""
    why = ""
    sizes: dict = {}

    def __init__(self, cache_dir: str, work_dir: str, seed: int,
                 scale: str):
        self.cache_dir = cache_dir
        self.work_dir = os.path.join(work_dir, self.name)
        self.seed = seed
        self.size = self.sizes[scale]
        self.path = None
        self.ref = None

    def prepare(self) -> None:
        """Build (or reuse) the seeded input and its reference."""
        self.path = self.make_input()
        inputs.keep_recent(self.cache_dir, self.name, self.path)
        # beside the input, not in it: readers list the whole directory
        self.ref = cached_reference(
            f"{self.path}.reference-v{REFERENCE_VERSION}.npz",
            self.reference)

    def layout(self) -> dict:
        return inputs.input_layout(self.path)

    def before_job(self) -> None:
        """Untimed clean-up before each job: outputs of earlier jobs go,
        so no job resumes from another's checkpoint."""
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def make_input(self) -> str:
        raise NotImplementedError

    def reference(self) -> dict:
        raise NotImplementedError

    def job(self, job_id: str):
        raise NotImplementedError

    def check(self, out) -> None:
        raise NotImplementedError

    def trace(self, tracer, job_id: str) -> tuple[dict[str, float], object]:
        """One job with spans around the layers' public calls; returns
        the layer metrics and the job's output (for ``check``)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# pip_join
# ---------------------------------------------------------------------------

_PIP_COLS = ["doc_id", "poly_id", "class_id", "hex7", "lat", "lon"]


def _pip_canon(t: pa.Table | None) -> dict:
    if t is None:
        return {c: np.empty(0) for c in _PIP_COLS}
    cols = {c: t[c].to_numpy() for c in _PIP_COLS}
    order = np.lexsort((cols["poly_id"], cols["doc_id"]))
    return {c: v[order] for c, v in cols.items()}


class PipJoin(Workload):
    name = "pip_join"
    why = ("North-star headline: pages -> extract/geocode/cells/PIP join as "
           "one read-fused map; 200 parquet files x 400 docs; bypasses "
           "shuffle, tiling and writes")
    sizes = {"full": {"files": 200, "rows": 400},
             "tiny": {"files": 4, "rows": 100}}

    def make_input(self) -> str:
        return inputs.documents_shards(self.cache_dir, self.name, self.seed,
                                       self.size["files"], self.size["rows"])

    def reference(self) -> dict:
        """The stage kernels replayed in-process (no Ray) over every file,
        plus the DuckDB ``pip_inner`` oracle over one seeded file: a job
        must match the replay everywhere and the oracle on that file."""
        from geo_inference_ray import stages, synth

        stage = stages.FusedPageStage(None, "inner", True)
        files = sorted(f for f in os.listdir(self.path)
                       if f.endswith(".parquet"))
        parts = [stage(synth.synth_pages_batch(
            pq.read_table(os.path.join(self.path, f), columns=DOC_COLS)))
            for f in files]
        ref = _pip_canon(pa.concat_tables(parts))
        sample = os.path.join(self.path, files[self.seed % len(files)])
        con = duckdb_con({"documents": sample})
        got = _pip_canon(con.execute(oracle("pip_inner")).arrow())
        con.close()
        ref.update({f"s_{c}": v for c, v in got.items()})
        ref["sample_ids"] = pq.read_table(
            sample, columns=["doc_id"])["doc_id"].to_numpy()
        return ref

    def job(self, job_id: str):
        return consume(pages_ds(self.path, "inner", batch_size=None))

    def check(self, out) -> None:
        got = _pip_canon(out)
        keep = np.isin(got["doc_id"], self.ref["sample_ids"])
        for c in _PIP_COLS:
            same(got[c][keep], self.ref[f"s_{c}"], f"pip_join oracle {c}")
            same(got[c], self.ref[c], f"pip_join replay {c}")

    def trace(self, tracer, job_id: str):
        with tracer.job(job_id):
            with tracer.span("stages.fused_page_fn"):
                out = consume(pages_ds(self.path, "inner", batch_size=None))
        return replay_stages(self.path), out


# ---------------------------------------------------------------------------
# knn_cells
# ---------------------------------------------------------------------------

N_SAMPLE_CELLS = 6


class KnnCells(Workload):
    name = "knn_cells"
    why = ("Shuffle layer: knn_in_cells key counts, salted hash shuffle, "
           "group kernel; 32 files x 1000 docs, under 200 files so Ray "
           "splits each file and the read does not fuse")
    sizes = {"full": {"files": 32, "rows": 1000},
             "tiny": {"files": 4, "rows": 250}}

    def make_input(self) -> str:
        return inputs.documents_shards(self.cache_dir, self.name, self.seed,
                                       self.size["files"], self.size["rows"])

    def reference(self) -> dict:
        """Per-page neighbour counts for every page (min(k, cell size - 1),
        cell sizes from the DuckDB hex oracle) and exact rows from the
        DuckDB ``knn_cell`` oracle for the hottest cell plus seeded cells
        (kNN is cell-local, so a cell's rows need only that cell)."""
        from geo_inference_ray.knn import K_DEFAULT

        con = duckdb_con({"documents": os.path.join(self.path, "*.parquet")})
        cells = con.execute(oracle("hex_cells")).arrow()
        con.close()
        doc = cells["doc_id"].to_numpy()
        hex7 = cells["hex7"].to_numpy()
        _, inv, cnt = np.unique(hex7, return_inverse=True,
                                return_counts=True)
        per_doc = np.minimum(K_DEFAULT, cnt[inv] - 1)
        rng = np.random.default_rng([self.seed, 7])
        multi = np.flatnonzero(cnt > 1)
        pick = rng.choice(multi, size=min(N_SAMPLE_CELLS, len(multi)),
                          replace=False)
        pick = np.union1d(pick, [int(np.argmax(cnt))])
        sample_docs = doc[np.isin(inv, pick)]
        docs = pq.read_table(self.path, columns=DOC_COLS)
        docs = docs.filter(pa.array(np.isin(docs["doc_id"].to_numpy(),
                                            sample_docs)))
        con = duckdb_con({"documents": docs})
        got = con.execute(oracle("knn_cell")).arrow()
        con.close()
        o = np.lexsort((got["rank"].to_numpy(), got["doc_id"].to_numpy()))
        keep = per_doc > 0
        return {"doc_id": doc[keep], "n_nbrs": per_doc[keep],
                "sample_docs": np.sort(sample_docs),
                "s_doc": got["doc_id"].to_numpy()[o],
                "s_nbr": got["neighbor_id"].to_numpy()[o],
                "s_rank": got["rank"].to_numpy()[o]}

    def _ds(self):
        return pages_ds(self.path, None, keep=["doc_id", "lat", "lon",
                                               "hex7"])

    def job(self, job_id: str):
        from geo_inference_ray import knn

        return consume(knn.knn_in_cells(self._ds()))

    def check(self, out) -> None:
        doc = out["doc_id"].to_numpy()
        nbr = out["neighbor_id"].to_numpy()
        rank = out["rank"].to_numpy()
        ud, n = np.unique(doc, return_counts=True)
        o = np.argsort(self.ref["doc_id"])
        same(ud, self.ref["doc_id"][o], "knn_cells pages with neighbours")
        same(n, self.ref["n_nbrs"][o], "knn_cells neighbours per page")
        s = np.isin(doc, self.ref["sample_docs"])
        o = np.lexsort((rank[s], doc[s]))
        same(doc[s][o], self.ref["s_doc"], "knn_cells sampled doc_id")
        same(nbr[s][o], self.ref["s_nbr"], "knn_cells sampled neighbor_id")
        same(rank[s][o], self.ref["s_rank"], "knn_cells sampled rank")

    def trace(self, tracer, job_id: str):
        from geo_inference_ray import knn
        from geo_inference_ray.shuffle import plan_lookup

        seen = {}

        def salt_plan(counts, *a, **kw):
            seen["counts"] = counts
            seen["plan"] = orig_plan(counts, *a, **kw)
            return seen["plan"]

        orig_plan = knn.salt_plan
        knn.salt_plan = salt_plan
        undo = tracer.wrap(knn, "key_counts", "shuffle.key_counts")
        try:
            with tracer.job(job_id):
                with tracer.span("stages.fused_page_fn"):
                    pages = self._ds().materialize()
                with tracer.span("knn.knn_in_cells"):
                    out = consume(knn.knn_in_cells(pages))
        finally:
            undo()
            knn.salt_plan = orig_plan
        ops = tracer.ops_under("knn.knn_in_cells", job_id)
        sort = [r for r in ops if "Sort" in r["op"]]
        reduce = [r for r in ops if r["op"] == "SortReduce"]
        kernel = [r for r in ops if r["op"].endswith("MapBatches(run)")]
        ck = np.fromiter(seen["counts"].keys(), dtype=np.int64)
        cv = np.fromiter(seen["counts"].values(), dtype=np.int64)
        emitted = int((cv * plan_lookup(seen["plan"])(ck)).sum())
        metrics = {
            "shuffle.key_counts_s": tracer.duration("shuffle.key_counts",
                                                    job_id),
            "shuffle.salted_keys": len(seen["plan"]),
            "shuffle.salt_ratio": emitted / max(1, int(cv.sum())),
            "knn.sort_s": sum(r["wall_s"] for r in sort),
            "knn.kernel_s": sum(r["wall_s"] for r in kernel),
            "knn.partition_skew": (max(r["rows_max"] for r in reduce)
                                   / max(r["rows_mean"] for r in reduce))
            if reduce else 1.0,
            "knn.rows_out": out.num_rows,
        }
        metrics.update(replay_stages(self.path))
        return metrics, out


# ---------------------------------------------------------------------------
# flagship_chain
# ---------------------------------------------------------------------------

def _decile_key(cluster: np.ndarray) -> np.ndarray:
    """Checkpoint partition of a page as GeoInferenceRay keys it: the
    decile of its geocode cluster, "geo" for text-token geocodes."""
    lo = (cluster // 10) * 10
    key = np.char.add(np.char.add(lo.astype("U3"), "-"),
                      (lo + 10).astype("U3"))
    return np.where(cluster < 0, "geo", key)


class FlagshipChain(Workload):
    name = "flagship_chain"
    why = ("User-facing GeoInferenceRay mask->vec->YOLO->COCO chain: "
           "checkpoint sink, mask tiles, polygons_from_tiles; one "
           "documents.parquet of 60000 docs, read twice, write-heavy")
    sizes = {"full": {"files": 1, "rows": 60_000},
             "tiny": {"files": 1, "rows": 2_000}}

    def make_input(self) -> str:
        return inputs.documents_shards(self.cache_dir, self.name, self.seed,
                                       self.size["files"], self.size["rows"],
                                       single_table=True)

    def reference(self) -> dict:
        """DuckDB oracles: ``mask_tiles`` (tile grid + valid-pixel counts)
        and the geocode cluster of every page (rows per checkpoint
        partition)."""
        con = duckdb_con({"documents": os.path.join(self.path,
                                                    "documents.parquet")})
        tiles = con.execute(oracle("mask_tiles")).arrow()
        geo = con.execute(oracle("geocode")).arrow()
        con.close()
        o = np.lexsort((tiles["ox"].to_numpy(), tiles["oy"].to_numpy()))
        keys, counts = np.unique(_decile_key(geo["cluster"].to_numpy()),
                                 return_counts=True)
        return {"oy": tiles["oy"].to_numpy()[o],
                "ox": tiles["ox"].to_numpy()[o],
                "n_valid": tiles["n_valid"].to_numpy()[o],
                "part_keys": keys.astype(str), "part_rows": counts}

    def _gi(self, job_id: str):
        from geo_inference_ray.pipeline import GeoInferenceRay

        return GeoInferenceRay(work_dir=os.path.join(self.work_dir, job_id),
                               mask_to_vec=True, mask_to_yolo=True,
                               mask_to_coco=True)

    def job(self, job_id: str):
        return self._gi(job_id)(self.path, patch_size=16, run_name="run")

    def check(self, out) -> None:
        from geo_inference_ray.checkpoint import PartitionedRun

        tiles = pq.read_table(out["mask_tiles"])
        o = np.lexsort((tiles["ox"].to_numpy(), tiles["oy"].to_numpy()))
        for c in ("oy", "ox", "n_valid"):
            same(tiles[c].to_numpy()[o], self.ref[c], f"mask tiles {c}")
        rec = {r["key"]: r["rows_out"] for r in
               PartitionedRun(out["work_dir"], "run").records()}
        got = np.array([rec.get(k, 0) for k in self.ref["part_keys"]])
        same(got, self.ref["part_rows"], "checkpoint rows per partition")
        expect(sum(rec.values()) == int(self.ref["part_rows"].sum()),
               "checkpoint rows outside the reference partitions")
        with open(out["polygons"]) as f:
            feats = json.load(f)["features"]
        with open(out["coco"]) as f:
            annos = json.load(f)["annotations"]
        with open(out["yolo"]) as f:
            yolo = [line for line in f.read().splitlines() if line]
        expect(len(annos) == len(feats) > 0,
               f"{len(annos)} COCO annotations for {len(feats)} polygons")
        expect([a["id"] for a in annos] == list(range(len(annos))),
               "COCO ids not sequential")
        expect(sorted(a["category_id"] for a in annos)
               == sorted(int(f["properties"]["value"]) for f in feats),
               "COCO categories differ from polygon classes")
        expect(0 < len(yolo) <= len(annos), "YOLO rows vs annotations")

    def trace(self, tracer, job_id: str):
        from geo_inference_ray import pipeline, tiling
        from geo_inference_ray.checkpoint import PartitionedRun

        undo = [tracer.wrap(PartitionedRun, "run_single_pass",
                            "checkpoint.run_single_pass"),
                tracer.wrap(pipeline, "mask_tiles", "tiling.mask_tiles"),
                tracer.wrap(tiling, "pixel_counts", "tiling.pixel_counts"),
                tracer.wrap(pipeline, "polygons_from_tiles",
                            "polygonize.polygons_from_tiles"),
                tracer.wrap(pipeline, "to_yolo", "annotations.to_yolo"),
                tracer.wrap(pipeline, "to_coco", "annotations.to_coco")]
        try:
            gi = self._gi(job_id)
            with tracer.job(job_id):
                with tracer.span("pipeline.GeoInferenceRay"):
                    out = gi(self.path, patch_size=16, run_name="run")
        finally:
            for u in undo:
                u()
        written = sum(r["bytes_out"] for r in
                      PartitionedRun(out["work_dir"], "run").records())
        n_tiles = pq.read_table(out["mask_tiles"], columns=["oy"]).num_rows
        # an execution's rows start with its final operator: the partials
        pix = tracer.ops_under("tiling.pixel_counts", job_id)
        d = tracer.duration
        metrics = {
            "checkpoint.run_single_pass_s": d("checkpoint.run_single_pass",
                                              job_id),
            "checkpoint.bytes_written": written,
            "tiling.pixel_counts_s": d("tiling.pixel_counts", job_id),
            "tiling.partial_rows": pix[0]["rows"] if pix else 0,
            "tiling.suffix_s": d("tiling.mask_tiles", job_id)
            - d("tiling.pixel_counts", job_id),
            "tiling.tiles": n_tiles,
            "pipeline.self_s": tracer.self_time("pipeline.GeoInferenceRay",
                                                job_id),
            "annotations.to_yolo_s": d("annotations.to_yolo", job_id),
            "annotations.to_coco_s": d("annotations.to_coco", job_id),
        }
        metrics.update(replay_stages(self.path))
        return metrics, out


# ---------------------------------------------------------------------------
# polygonize_grid
# ---------------------------------------------------------------------------

_RING_COLS = ["comp_id", "class_id", "ring_idx", "is_hole", "n_pixels",
              "area_px"]


def _rings_canon(df) -> dict:
    df = df.sort_values(["comp_id", "ring_idx"], kind="stable")
    out = {c: df[c].to_numpy().astype(np.float64 if c == "area_px"
                                      else np.int64) for c in _RING_COLS}
    out["ring_len"] = np.array([len(x) for x in df["xs"]], dtype=np.int64)
    out["xs"] = np.concatenate([np.asarray(x, float) for x in df["xs"]]) \
        if len(df) else np.empty(0)
    out["ys"] = np.concatenate([np.asarray(y, float) for y in df["ys"]]) \
        if len(df) else np.empty(0)
    return out


def _exports(rings, grid) -> tuple[str, str]:
    from geo_inference_ray import annotations

    yolo = sorted(annotations.yolo_lines(annotations.to_yolo(rings, grid)))
    coco = json.dumps(annotations.to_coco(rings, grid), sort_keys=True)
    return "\n".join(yolo), coco


class PolygonizeGrid(Workload):
    name = "polygonize_grid"
    why = ("polygons_distributed + YOLO/COCO over a 256x512 seeded blob "
           "mask in 16-px tiles (holes, border-crossing blobs); these "
           "layers are under 1% of flagship_chain")
    sizes = {"full": {"h": 256, "w": 512, "stride": 16, "blobs": 400},
             "tiny": {"h": 64, "w": 64, "stride": 16, "blobs": 6}}

    @property
    def grid(self):
        from geo_inference_ray.tiling import GridConfig

        return GridConfig(width=self.size["w"], height=self.size["h"],
                          stride=self.size["stride"])

    def make_input(self) -> str:
        s = self.size
        return inputs.blob_tiles(self.cache_dir, self.name, self.seed,
                                 s["h"], s["w"], s["stride"], s["blobs"])

    def reference(self) -> dict:
        """In-process ``polygonize.stitch_polygons`` over the same tiles,
        and the YOLO / COCO exports of its rings."""
        from geo_inference_ray.polygonize import stitch_polygons

        tiles = pq.read_table(os.path.join(self.path, "tiles.parquet"))
        rings = stitch_polygons(tiles.to_pandas(), self.grid)
        ref = _rings_canon(rings)
        ref["yolo"], ref["coco"] = _exports(rings, self.grid)
        return ref

    def _rings(self):
        import ray.data as rd

        from geo_inference_ray.polygonize import polygons_distributed

        tiles = rd.read_parquet(os.path.join(self.path, "tiles.parquet"))
        return polygons_distributed(tiles, self.grid)

    def job(self, job_id: str):
        rings = self._rings().to_pandas()
        return rings, _exports(rings, self.grid)

    def check(self, out) -> None:
        rings, (yolo, coco) = out
        got = _rings_canon(rings)
        for c in _RING_COLS + ["ring_len", "xs", "ys"]:
            same(got[c], self.ref[c], f"polygonize rings {c}")
        expect(yolo == str(self.ref["yolo"]), "YOLO export differs")
        expect(coco == str(self.ref["coco"]), "COCO export differs")

    def trace(self, tracer, job_id: str):
        from geo_inference_ray import annotations

        grid = self.grid
        with tracer.job(job_id):
            with tracer.span("polygonize.polygons_distributed"):
                rings = self._rings().materialize().to_pandas()
            with tracer.span("annotations.to_yolo"):
                annotations.to_yolo(rings, grid)
            with tracer.span("annotations.to_coco"):
                annotations.to_coco(rings, grid)
        ops = tracer.ops_under("polygonize.polygons_distributed", job_id)
        # rows collected for the stitch: border strips + component registry
        border = [r for r in ops if r["op"].endswith("drop_pixels)")]
        metrics = {
            "polygonize.distributed_s": tracer.duration(
                "polygonize.polygons_distributed", job_id),
            "polygonize.components": int(rings["comp_id"].nunique()),
            "polygonize.border_rows": sum(r["rows"] for r in border),
            "polygonize.rings": len(rings),
            "annotations.to_yolo_s": tracer.duration("annotations.to_yolo",
                                                     job_id),
            "annotations.to_coco_s": tracer.duration("annotations.to_coco",
                                                     job_id),
        }
        return metrics, (rings, _exports(rings, grid))


WORKLOADS = {w.name: w for w in (PipJoin, KnnCells, FlagshipChain,
                                 PolygonizeGrid)}
