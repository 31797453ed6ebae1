"""Checkpoint/lineage/resume semantics + the pipeline API/CLI surface."""

import json
import os

import numpy as np
import pandas as pd
import pytest

from geo_inference_ray.checkpoint import PartitionedRun


def _mk(tmp_path):
    return PartitionedRun(str(tmp_path), "stage1")


def _ds_for(key: str):
    import ray.data as rd

    n = int(key) + 3
    return rd.from_pandas(pd.DataFrame({"k": [key] * n,
                                        "v": list(range(n))}))


def test_run_and_manifest(ray_session, tmp_path):
    run = _mk(tmp_path)
    res = run.run(["1", "2"], _ds_for, fingerprints={"1": "f1", "2": "f2"})
    assert res["computed"] == ["1", "2"]
    recs = run.records()
    assert len(recs) == 2
    assert {r["key"] for r in recs} == {"1", "2"}
    assert all(r["rows_out"] == int(r["key"]) + 3 for r in recs)
    assert all(r["wall_ms"] >= 0 for r in recs)
    assert all(r["input_fingerprint"].startswith("f") for r in recs)


def test_resume_skips_completed(ray_session, tmp_path):
    run = _mk(tmp_path)
    calls = []

    def make(key):
        calls.append(key)
        return _ds_for(key)

    run.run(["1", "2"], make)
    assert calls == ["1", "2"]
    res = run.run(["1", "2", "3"], make)
    assert calls == ["1", "2", "3"]  # only "3" recomputed
    assert res["skipped"] == ["1", "2"]
    assert res["computed"] == ["3"]


def test_resume_after_failure(ray_session, tmp_path):
    """Kill mid-run: completed partitions survive, pending recompute."""
    run = _mk(tmp_path)
    boom = {"armed": True}

    def make(key):
        if key == "2" and boom["armed"]:
            raise RuntimeError("killed")
        return _ds_for(key)

    with pytest.raises(RuntimeError):
        run.run(["1", "2", "3"], make)
    assert run.completed() == {"1"}
    boom["armed"] = False
    res = run.run(["1", "2", "3"], make)
    assert res["skipped"] == ["1"]
    assert sorted(res["computed"]) == ["2", "3"]
    # outputs readable and complete
    df = run.read().to_pandas()
    assert len(df) == 4 + 5 + 6


def test_single_pass_write_and_resume(ray_session, tmp_path):
    """run_single_pass writes all pending partitions in one dataset
    execution, records lineage per key, creates empty-key dirs, and a
    resume only rewrites the missing keys."""
    import pyarrow as pa
    import ray.data as rd

    run = _mk(tmp_path)
    df = pd.DataFrame({"k": ["a"] * 4 + ["b"] * 6, "v": range(10)})
    ds = rd.from_pandas(df)

    def key_fn(batch: pa.Table) -> pa.Table:
        return batch.append_column("part_key", batch["k"])

    res = run.run_single_pass(["a", "b", "empty"], ds, key_fn)
    assert sorted(res["computed"]) == ["a", "b", "empty"]
    recs = {r["key"]: r for r in run.records()}
    assert recs["a"]["rows_out"] == 4
    assert recs["b"]["rows_out"] == 6
    assert recs["empty"]["rows_out"] == 0
    assert os.path.isdir(os.path.join(str(tmp_path), "stage1", "key=empty"))
    # resume: nothing recomputed
    res2 = run.run_single_pass(["a", "b", "empty"], ds, key_fn)
    assert res2["computed"] == []
    assert sorted(res2["skipped"]) == ["a", "b", "empty"]
    # partial resume: drop one key dir -> only it is rewritten
    import shutil

    shutil.rmtree(os.path.join(str(tmp_path), "stage1", "key=b"))

    def n_rows(table: pa.Table) -> pa.Table:
        return pa.table({"n": [table.num_rows]})

    res3 = run.run_single_pass(["a", "b", "empty"], ds, key_fn,
                               reduce_fn=n_rows)
    assert res3["computed"] == ["b"]
    # the write tasks' reductions cover exactly the rewritten rows
    assert sum(t["n"][0].as_py() for t in res3["reduced"]) == 6
    assert res2["reduced"] == []
    got = run.read(["a", "b"]).to_pandas()
    assert len(got) == 10
    assert list(run.read(["a", "b"], columns=["v"]).to_pandas()
                .columns) == ["v"]
    # a partition without files reads as an empty dataset
    assert run.read(["empty"]).count() == 0
    assert run.read(["empty"], columns=["v"]).count() == 0


def test_single_pass_pages_have_no_dictionary(ray_session, tmp_path):
    """run_single_pass files carry no dictionary page in their float and
    int64 column chunks, and read back to the rows written."""
    import glob

    import pyarrow.parquet as pq
    import ray.data as rd

    rng = np.random.default_rng(0)
    n = 4000
    df = pd.DataFrame({"row": np.arange(n),
                       "k": np.where(np.arange(n) % 3, "a", "b"),
                       "i": rng.integers(0, 50, n),
                       "f": rng.random(n).round(2),
                       "s": [f"doc {j % 40}" for j in range(n)]})
    run = _mk(tmp_path)
    run.run_single_pass(["a", "b"], rd.from_pandas(df),
                        lambda b: b.append_column("part_key", b["k"]))
    files = glob.glob(os.path.join(str(tmp_path), "stage1", "key=*",
                                   "*.parquet"))
    kinds = set()
    for f in files:
        md = pq.ParquetFile(f).metadata
        for g in range(md.num_row_groups):
            for j in range(md.num_columns):
                c = md.row_group(g).column(j)
                kinds.add(c.physical_type)
                if c.physical_type in ("DOUBLE", "INT64"):
                    assert not c.has_dictionary_page, (f, c.path_in_schema)
                    assert not {"PLAIN_DICTIONARY", "RLE_DICTIONARY"} \
                        & set(c.encodings)
    assert {"DOUBLE", "INT64"} <= kinds
    got = run.read().to_pandas().sort_values("row")
    for c in df.columns:
        assert got[c].tolist() == df[c].tolist(), c


def test_single_pass_rejects_undeclared_key(ray_session, tmp_path):
    """A key_fn that emits a key outside the declared list must fail
    the run (its rows would otherwise be dropped), naming the key."""
    import pyarrow as pa
    import ray.data as rd

    run = _mk(tmp_path)
    ds = rd.from_pandas(pd.DataFrame({"k": ["a", "b", "zz"], "v": [1, 2, 3]}))

    def key_fn(batch: pa.Table) -> pa.Table:
        return batch.append_column("part_key", batch["k"])

    # Ray wraps the task's ValueError (UserCodeException), so match on
    # the message
    with pytest.raises(Exception, match=r"outside the declared key "
                                        r"list: \['zz'\]"):
        run.run_single_pass(["a", "b"], ds, key_fn)


def test_fingerprint_invalidation(ray_session, tmp_path):
    run = _mk(tmp_path)
    run.run(["1"], _ds_for, fingerprints={"1": "a"})
    res = run.run(["1"], _ds_for, fingerprints={"1": "b"})  # input changed
    assert res["computed"] == ["1"]


def test_pipeline_api_end_to_end(ray_session, sf_dir, tmp_path):
    from geo_inference_ray.pipeline import GeoInferenceRay

    gi = GeoInferenceRay(work_dir=str(tmp_path), mask_to_vec=True,
                         mask_to_yolo=True, mask_to_coco=True)
    out = gi(sf_dir, patch_size=16)
    assert os.path.exists(out["mask_tiles"])
    assert os.path.exists(out["polygons"])
    assert os.path.exists(out["yolo"])
    assert os.path.exists(out["coco"])
    gj = json.load(open(out["polygons"]))
    assert gj["type"] == "FeatureCollection"
    assert len(gj["features"]) > 0
    coco = json.load(open(out["coco"]))
    assert len(coco["annotations"]) > 0
    with open(out["yolo"]) as f:
        lines = [ln for ln in f.read().splitlines() if ln]
    assert all(len(ln.split()) == 5 for ln in lines)
    # checkpointed partitions + lineage present
    man = os.path.join(str(tmp_path), "run", "manifest.jsonl")
    assert os.path.exists(man)
    # 10 cluster deciles + the "geo" partition for geo-token rows
    assert len(open(man).read().splitlines()) == 11


def test_pipeline_bbox_crop(ray_session, sf_dir, tmp_path):
    from geo_inference_ray.pipeline import GeoInferenceRay

    gi = GeoInferenceRay(work_dir=str(tmp_path))
    out = gi(sf_dir, bbox=(-75.0, -75.0, -60.0, -60.0), run_name="crop")
    tiles = pd.read_parquet(out["mask_tiles"])
    # cluster 0 center is (-69.5, -169.5); bbox excludes it -> few tiles
    full = GeoInferenceRay(work_dir=str(tmp_path))(sf_dir, run_name="full")
    assert len(tiles) < len(pd.read_parquet(full["mask_tiles"]))


def test_pipeline_bbox_rerun_recomputes_partitions(ray_session, sf_dir,
                                                   tmp_path):
    """The crop is part of the checkpoint fingerprint: re-running the
    same work_dir/run_name with a bbox rewrites every partition, and a
    later uncropped re-run does not resume the cropped rows."""
    import glob

    import pyarrow.parquet as pq

    from geo_inference_ray.pipeline import GeoInferenceRay

    gi = GeoInferenceRay(work_dir=str(tmp_path))

    def run(bbox=None):
        res = gi(sf_dir, bbox=bbox, run_name="rerun")["pages_partitions"]
        rows = {}
        for d in glob.glob(os.path.join(str(tmp_path), "rerun", "key=*")):
            rows[os.path.basename(d)] = sum(
                pq.read_metadata(f).num_rows
                for f in glob.glob(os.path.join(d, "*.parquet")))
        return res, rows

    res, full = run()
    assert not res["skipped"]
    res, crop = run((-75.0, -75.0, -60.0, -60.0))
    assert not res["skipped"]
    assert crop != full
    assert all(crop[k] <= full[k] for k in full)
    assert sum(crop.values()) < sum(full.values())
    res, again = run()
    assert not res["skipped"] and again == full
    res, _ = run()
    assert not res["computed"]  # unchanged input still resumes


def test_pipeline_decodes_pages_once(ray_session, sf_dir, tmp_path,
                                     monkeypatch):
    """The checkpoint write is the only pass over the pages: a marker
    stage appended to the page pipeline sees every row once, not once
    for the partitions and again for the mask tiles."""
    import uuid

    from geo_inference_ray import pipeline

    log_dir = tmp_path / "decoded"
    log_dir.mkdir()
    orig = pipeline.stages.geo_pipeline

    def log_rows(batch):
        (log_dir / uuid.uuid4().hex).write_text(str(batch.num_rows))
        return batch

    def logged(*a, **kw):
        return orig(*a, **kw).map_batches(
            log_rows, batch_format="pyarrow", zero_copy_batch=True)

    monkeypatch.setattr(pipeline.stages, "geo_pipeline", logged)
    out = pipeline.GeoInferenceRay(work_dir=str(tmp_path / "wd"))(sf_dir)
    decoded = sum(int(f.read_text()) for f in log_dir.iterdir())
    written = sum(r["rows_out"] for r in
                  PartitionedRun(out["work_dir"], "run").records())
    assert written > 0
    assert decoded == written


def _crop(ds, bbox):
    import pyarrow as pa

    min_lon, min_lat, max_lon, max_lat = bbox

    def keep(batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array((lon >= min_lon) & (lon <= max_lon)
                                     & (lat >= min_lat) & (lat <= max_lat)))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


# (-75, -75, -60, -60) holds no page at sf0.001; the second crop keeps
# clusters 0 and 2 and drops the rest
@pytest.mark.parametrize("bbox, n_tiles_min", [
    (None, 1), ((-75.0, -75.0, -60.0, -60.0), 0),
    ((-180.0, -75.0, -140.0, 0.0), 1)])
def test_pipeline_mask_tiles_match_direct(ray_session, sf_dir, tmp_path,
                                          bbox, n_tiles_min):
    """The tiles built from the checkpoint write's partial counts equal
    mask_tiles over the geocoded pages, with and without a crop, and
    the GeoJSON and COCO exports are written from them (a crop with no
    pages gives empty ones)."""
    from geo_inference_ray import stages
    from geo_inference_ray.pipeline import GeoInferenceRay
    from geo_inference_ray.tiling import DEFAULT_GRID, mask_tiles

    out = GeoInferenceRay(work_dir=str(tmp_path), mask_to_coco=True)(
        sf_dir, bbox=bbox)
    got = pd.read_parquet(out["mask_tiles"])
    with open(out["polygons"]) as f, open(out["coco"]) as g:
        geojson, coco = json.load(f), json.load(g)
    assert (len(geojson["features"]) > 0) == (n_tiles_min > 0)
    assert (len(coco["annotations"]) > 0) == (n_tiles_min > 0)
    geo = stages.geo_pipeline(sf_dir)
    if bbox is not None:
        geo = _crop(geo, bbox)
    want = mask_tiles(geo, DEFAULT_GRID).to_pandas()
    assert len(got) == len(want) >= n_tiles_min
    if not len(want):
        return  # Ray's to_pandas() drops the columns of an empty dataset
    got = got.sort_values(["oy", "ox"]).reset_index(drop=True)
    want = want.sort_values(["oy", "ox"]).reset_index(drop=True)
    assert got[["oy", "ox", "n_valid"]].equals(want[["oy", "ox", "n_valid"]])
    assert [bytes(m) for m in got["mask"]] == \
        [bytes(m) for m in want["mask"]]


def test_flagship_plan_one_block_per_cpu(ray_session, sf_dir, tmp_path):
    """The flagship chain reads its pages as at most one block per
    session CPU, so each checkpoint partition holds at most one file
    per CPU (one per write task), and the small-grid mask artifact is
    a single file.  The input is the sf0.001 documents tiled 120 times
    with fresh doc ids (60 000 rows): Ray's default read sizing splits
    it into more blocks than CPUs and writes 7 files per key at 4
    CPUs."""
    import glob

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray

    from geo_inference_ray.pipeline import GeoInferenceRay

    cpus = int(ray.cluster_resources()["CPU"])
    docs = pq.read_table(os.path.join(sf_dir, "documents.parquet"))
    ids = docs["doc_id"]
    tiled = pa.concat_tables(
        docs.set_column(docs.schema.get_field_index("doc_id"), "doc_id",
                        pc.add(ids, pa.scalar(k * 1_000_000, ids.type)))
        for k in range(120))
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pq.write_table(tiled, corpus / "documents.parquet")
    out = GeoInferenceRay(work_dir=str(tmp_path / "work"))(str(corpus))
    files = {os.path.basename(d): len(glob.glob(os.path.join(d, "*.parquet")))
             for d in glob.glob(str(tmp_path / "work" / "run" / "key=*"))}
    assert len(files) == 11 and sum(files.values()) >= 10
    assert max(files.values()) <= cpus, files
    assert len(glob.glob(os.path.join(out["mask_tiles"], "*.parquet"))) == 1


def test_flagship_plan_is_one_fused_operator(ray_session, sf_dir, tmp_path,
                                             monkeypatch):
    """With at least one row group per session CPU, the flagship's one
    Ray Data execution is a single operator: the pages read, the page
    maps, the partition key and the checkpoint write run in the same
    tasks, so no page block crosses the object store."""
    import pyarrow.parquet as pq
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    from geo_inference_ray.pipeline import GeoInferenceRay

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pq.write_table(pq.read_table(os.path.join(sf_dir, "documents.parquet")),
                   corpus / "documents.parquet", row_group_size=100)
    executions = []
    orig = StreamingExecutor.shutdown

    def shutdown(ex, *a, **kw):
        first = not ex._shutdown
        orig(ex, *a, **kw)
        if first:
            ops, todo = [], [ex._final_stats.to_summary()]
            while todo:  # an operator's inputs sit in parent summaries
                s = todo.pop()
                todo.extend(s.parents or [])
                ops += [op.operator_name for op in s.operators_stats]
            executions.append(ops)

    monkeypatch.setattr(StreamingExecutor, "shutdown", shutdown)
    GeoInferenceRay(work_dir=str(tmp_path / "work"))(str(corpus))
    assert len(executions) == 1, executions
    [ops] = executions
    assert len(ops) == 1, ops
    assert ops[0].startswith("Read") and ops[0].endswith("->Write"), ops


def test_pipeline_empty_crop_reruns(ray_session, sf_dir, tmp_path):
    """A bbox that excludes every page writes only empty partitions and
    a typed empty mask artifact; a re-run resumes every key (all of
    them empty, so nothing is read back) and gives the same artifact."""
    import pyarrow.parquet as pq

    from geo_inference_ray.pipeline import GeoInferenceRay
    from geo_inference_ray.tiling import TILE_SCHEMA

    gi = GeoInferenceRay(work_dir=str(tmp_path))
    bbox = (-179.99, 89.98, -179.98, 89.99)
    first = gi(sf_dir, bbox=bbox, run_name="none")
    assert len(first["pages_partitions"]["computed"]) == 11
    recs = PartitionedRun(str(tmp_path), "none").records()
    assert sum(r["rows_out"] for r in recs) == 0
    second = gi(sf_dir, bbox=bbox, run_name="none")
    assert second["pages_partitions"]["computed"] == []
    assert len(second["pages_partitions"]["skipped"]) == 11
    for out in (first, second):
        tiles = pq.read_table(out["mask_tiles"])
        assert tiles.num_rows == 0
        assert tiles.schema.equals(TILE_SCHEMA)


def test_cli_yaml(ray_session, sf_dir, tmp_path):
    from geo_inference_ray.pipeline import cmd_interface

    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "arguments:\n"
        f"  input: {sf_dir}\n"
        f"  work_dir: {tmp_path}/wd\n"
        "  mask_to_vec: True\n"
        "  patch_size: 8\n"
        "  num_classes: 3\n")
    ns = cmd_interface(["-a", str(cfg)])
    assert ns.input == sf_dir
    assert ns.mask_to_vec is True
    assert ns.patch_size == 8
    assert ns.work_dir == f"{tmp_path}/wd"


def test_cli_requires_input():
    from geo_inference_ray.pipeline import cmd_interface

    with pytest.raises(SystemExit):
        cmd_interface([])


def test_pipeline_geo_token_rows_partition(ray_session, tmp_path):
    """Regression (self-review r3): rows geocoded from an explicit
    geo:{lat},{lon} token get cluster = -1; before the 'geo' partition
    key existed they tripped run_single_pass's novel-key guard and
    aborted the whole run."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from geo_inference_ray.pipeline import GeoInferenceRay

    docs = pa.table({
        "doc_id": pa.array(list(range(20)), pa.int64()),
        "text": pa.array(
            ["see geo:12.5,-33.25 for details"] +
            [f"regular document number {i} with words" for i in range(19)]),
        "lang": pa.array(["en"] * 20),
        "source": pa.array(["src0"] * 20),
        "n_chars": pa.array([30] * 20, pa.int64()),
    })
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pq.write_table(docs, corpus / "documents.parquet")
    gi = GeoInferenceRay(work_dir=str(tmp_path / "work"))
    out = gi(str(corpus), run_name="geo")  # must not raise
    assert out["mask_tiles"]
    geo_part = os.path.join(str(tmp_path / "work"), "geo", "key=geo")
    assert os.path.isdir(geo_part)
    rows = pd.read_parquet(geo_part)
    assert (rows["cluster"] == -1).all() and len(rows) == 1


def test_flagship_resume_after_kill_sf01(ray_session, tmp_path, monkeypatch):
    """North-rule resumability, end-to-end at sf0.1: the flagship run
    dies after 4 of its 11 partition commits; the re-run skips exactly
    the committed keys, recomputes the rest, and the final partition
    tree is value-identical to an uninterrupted control run."""
    import pytest

    from geo_inference_ray import checkpoint as cp
    from geo_inference_ray.pipeline import GeoInferenceRay

    sf = "/root/testdata/sf0.1"

    # control: uninterrupted run
    ctl = GeoInferenceRay(work_dir=str(tmp_path / "ctl"))(sf,
                                                          run_name="flag")

    # interrupted run: simulated driver death mid-commit-loop (after
    # the 4th lineage append; the 5th key's dir may exist without a
    # manifest record — the stale-partial crash window)
    orig_append = cp.PartitionedRun._append
    committed = []

    def dying(self, rec):
        if len(committed) >= 4:
            raise RuntimeError("simulated driver kill")
        orig_append(self, rec)
        committed.append(rec["key"])

    monkeypatch.setattr(cp.PartitionedRun, "_append", dying)
    with pytest.raises(RuntimeError, match="simulated driver kill"):
        GeoInferenceRay(work_dir=str(tmp_path / "res"))(sf,
                                                        run_name="flag")
    monkeypatch.setattr(cp.PartitionedRun, "_append", orig_append)

    out = GeoInferenceRay(work_dir=str(tmp_path / "res"))(sf,
                                                          run_name="flag")
    res = out["pages_partitions"]
    assert sorted(res["skipped"]) == sorted(committed)
    assert len(committed) == 4
    assert len(res["computed"]) == 11 - 4

    run_res = cp.PartitionedRun(str(tmp_path / "res"), "flag")
    run_ctl = cp.PartitionedRun(str(tmp_path / "ctl"), "flag")
    recs = run_res.records()
    assert len(recs) == 11  # 4 pre-kill + 7 resumed
    keys_ctl = {r["key"]: r for r in run_ctl.records()}
    for r in recs:
        assert r["rows_out"] == keys_ctl[r["key"]]["rows_out"]

    # value-identical partition tree (every key, resumed vs control;
    # rows_out==0 keys have an empty dir — nothing to read)
    for key, rec in keys_ctl.items():
        if rec["rows_out"] == 0:
            continue
        a = run_res.read([key]).to_pandas()
        b = run_ctl.read([key]).to_pandas()
        sort_cols = sorted(a.columns)
        a = a.sort_values(sort_cols).reset_index(drop=True)[sort_cols]
        b = b.sort_values(sort_cols).reset_index(drop=True)[sort_cols]
        assert a.equals(b), f"partition key={key} diverged after resume"

    # mask tiles artifact also value-identical
    t_res = pd.read_parquet(out["mask_tiles"]) \
        .sort_values(["oy", "ox"]).reset_index(drop=True)
    t_ctl = pd.read_parquet(ctl["mask_tiles"]) \
        .sort_values(["oy", "ox"]).reset_index(drop=True)
    assert t_res[["oy", "ox", "n_valid"]].equals(
        t_ctl[["oy", "ox", "n_valid"]])
    assert all((x == y).all() for x, y in
               zip(t_res["mask"], t_ctl["mask"]))


def test_pipeline_rerun_overwrites_mask_sink(ray_session, sf_dir, tmp_path):
    """Re-running the pipeline with the SAME work_dir/run_name must
    OVERWRITE the mask-tiles artifact, not append to it (Ray's
    write_parquet default is append: a second run silently doubled
    every tile before mode='overwrite')."""
    from geo_inference_ray.pipeline import GeoInferenceRay

    gi = GeoInferenceRay(work_dir=str(tmp_path))
    first = pd.read_parquet(gi(sf_dir, run_name="again")["mask_tiles"])
    second = pd.read_parquet(gi(sf_dir, run_name="again")["mask_tiles"])
    assert len(second) == len(first)
    a = first.sort_values(["oy", "ox"]).reset_index(drop=True)
    b = second.sort_values(["oy", "ox"]).reset_index(drop=True)
    assert a[["oy", "ox", "n_valid"]].equals(b[["oy", "ox", "n_valid"]])


def test_zonemap_prunes_files_and_preserves_results(ray_session, tmp_path):
    """Zone-map range read opens only intersecting files and returns
    exactly the rows an unpruned filter returns."""
    import json
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from geo_inference_ray.checkpoint import (ZONEMAP_NAME, build_zonemap,
                                              read_pruned)

    root = str(tmp_path / "zm")
    os.makedirs(root)
    # 8 range-partitioned files over key 0..799 (sorted layout)
    for i in range(8):
        keys = np.arange(i * 100, (i + 1) * 100, dtype=np.int64)
        pq.write_table(pa.table({"k": keys, "v": keys * 3}),
                       os.path.join(root, f"part-{i}.parquet"))
    zmap = build_zonemap(root, ["k"])
    assert len(zmap) == 8
    assert json.load(open(os.path.join(root, ZONEMAP_NAME)))

    ds, total, opened = read_pruned(root, "k", 150, 349)
    assert total == 8 and opened == 3  # files 1, 2, 3
    got = ds.to_pandas().sort_values("k")
    assert got["k"].tolist() == list(range(150, 350))
    assert (got["v"] == got["k"] * 3).all()

    # no-overlap range: zero files opened, empty result, schema intact
    ds0, total0, opened0 = read_pruned(root, "k", 5000, 6000)
    assert total0 == 8 and opened0 == 0
    assert ds0.count() == 0
    # Ray's to_pandas drops columns on ANY empty dataset; the Dataset
    # schema is the contract that must survive
    assert set(ds0.schema().names) == {"k", "v"}
