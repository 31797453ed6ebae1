"""User-facing pipeline API + YAML/CLI — the analog of the reference's
``GeoInference`` class and ``geo_inference`` CLI
(/root/reference/geo_inference/geo_inference.py:82-162,
utils/helpers.py:416-553, config/sample.yaml).

Surface parity:
* constructor flags: mask_to_vec / mask_to_yolo / mask_to_coco chain
  toggles (reference geo_inference.py:400-405), num_classes,
  prediction_threshold, work_dir, pluggable scorer (the model plugin);
* call args: inference input (sf_dir), patch size, bbox crop (S8);
* YAML config: an ``arguments:`` block mirroring the reference's
  sample.yaml keys where they translate.

Everything runs as one lazy Ray Data pipeline; outputs are checkpointed
parquet partitions + lineage manifest (checkpoint.py), GeoJSON-style
ring tables, YOLO csv, COCO json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import stages, synth
from .annotations import filter_min_area, to_coco, to_yolo, yolo_lines
from .checkpoint import PartitionedRun
from .polygonize import polygons_from_tiles
from .shuffle import collect
from .tiling import (PIXEL_SCHEMA, DensityScorer, GridConfig, mask_tiles,
                     rasterize, rasterize_partial)


class GeoInferenceRay:
    """Flagship engine entry point.

    >>> gi = GeoInferenceRay(mask_to_vec=True, mask_to_yolo=True)
    >>> out = gi("/root/testdata/sf0.001", patch_size=16)
    """

    def __init__(self, scorer_cls=DensityScorer,
                 work_dir: str = "/tmp/geo_inference_ray",
                 mask_to_vec: bool = False, mask_to_coco: bool = False,
                 mask_to_yolo: bool = False, num_classes: int = 3,
                 prediction_threshold: float = 0.3,
                 min_area: float = 0.0,
                 simplify_tolerance: float | None = None):
        self.scorer_cls = scorer_cls
        self.work_dir = work_dir
        self.mask_to_vec = mask_to_vec or mask_to_coco or mask_to_yolo
        self.mask_to_coco = mask_to_coco
        self.mask_to_yolo = mask_to_yolo
        self.num_classes = num_classes
        self.prediction_threshold = prediction_threshold
        self.min_area = min_area
        # reference default tolerance is 0.5 px when simplify=True
        # (polygon.py:67-68); None = no simplification
        self.simplify_tolerance = simplify_tolerance
        os.makedirs(work_dir, exist_ok=True)

    def __call__(self, inference_input: str, patch_size: int = 16,
                 bbox: tuple[float, float, float, float] | None = None,
                 join_mode: str | None = "inner",
                 run_name: str = "run") -> dict:
        """Run the pipeline over the pages table at ``inference_input``
        (a testdata sf dir).  ``bbox`` = (min_lon, min_lat, max_lon,
        max_lat) crop, the S8 analog.  Returns artifact paths."""
        grid = GridConfig(stride=patch_size // 2,
                          num_classes=self.num_classes,
                          prediction_threshold=self.prediction_threshold)
        geo = stages.geo_pipeline(inference_input, mode=None)
        if bbox is not None:
            min_lon, min_lat, max_lon, max_lat = bbox

            def crop(batch: pa.Table) -> pa.Table:
                lat = batch["lat"].to_numpy(zero_copy_only=False)
                lon = batch["lon"].to_numpy(zero_copy_only=False)
                keep = (lon >= min_lon) & (lon <= max_lon) \
                    & (lat >= min_lat) & (lat <= max_lat)
                return batch.filter(pa.array(keep))

            geo = geo.map_batches(crop, batch_format="pyarrow",
                                  zero_copy_batch=True)

        out: dict = {"work_dir": self.work_dir}
        run = PartitionedRun(self.work_dir, run_name)

        # checkpointed, partitioned outputs: one partition per cluster
        # decile of the geocoded pages (pure function of the key),
        # written in ONE dataset pass via the hive-partitioned sink.
        # "geo" partition: rows geocoded from an explicit geo-token get
        # cluster = -1 (stages.Geocoder, FIXTURES F1) — without a
        # declared key they'd trip run_single_pass's novel-key guard
        keys = ["geo"] + [f"{lo}-{lo + 10}" for lo in range(0, 100, 10)]

        def decile_key(batch: pa.Table) -> pa.Table:
            c = batch["cluster"]
            # integer divide truncates; c < 0 becomes "geo" below
            lo = pc.multiply(pc.divide(c, 10), 10)
            part = pc.binary_join_element_wise(
                pc.cast(lo, pa.string()),
                pc.cast(pc.add(lo, 10), pa.string()), "-")
            part = pc.if_else(pc.less(c, 0), "geo", part)
            return batch.drop_columns(["warc_ts"]).append_column(
                "part_key", part)

        # the crop changes every partition's rows, so it is part of the
        # input identity; uncropped runs keep the bare path so their
        # existing checkpoints still resume
        fp = inference_input if bbox is None else \
            f"{inference_input}|bbox={tuple(map(float, bbox))}"
        # the write tasks also rasterize the rows they write, so the
        # pages are decoded once per run: the tiles are built from
        # those per-task partial counts, never from a second pass
        res = run.run_single_pass(
            keys, geo, decile_key,
            fingerprints={k: fp for k in keys},
            reduce_fn=rasterize_partial(grid))
        # the partials, the tiles and the polygons stay driver Arrow
        # tables: no Dataset, no second execution
        partials = res.pop("reduced")
        if res["skipped"]:
            # resume: partitions finished by an earlier run were not
            # rewritten, so their pixels come from the checkpoint
            partials.append(collect(rasterize(
                run.read(res["skipped"], columns=["lat", "lon"]), grid),
                PIXEL_SCHEMA))
        out["pages_partitions"] = res
        mask_path = os.path.join(self.work_dir, f"{run_name}_mask_tiles.parquet")
        tiles = mask_tiles(partials, grid, self.scorer_cls, rasterized=True)
        # overwrite, not append: a re-run with the same work_dir/run_name
        # (the kill-resume workflow) must not duplicate or stale-mix
        # tiles; an empty table still writes a typed file, so the
        # artifact always reads back
        shutil.rmtree(mask_path, ignore_errors=True)
        os.makedirs(mask_path)
        pq.write_table(tiles, os.path.join(mask_path, "part-0.parquet"))
        out["mask_tiles"] = mask_path

        if self.mask_to_vec:
            polys = polygons_from_tiles(tiles, grid)
            polys = filter_min_area(polys, self.min_area)
            if self.simplify_tolerance is not None:
                from .annotations import simplify_rings

                polys = simplify_rings(polys, self.simplify_tolerance)
            vec_path = os.path.join(self.work_dir, f"{run_name}_polygons.json")
            # json.dumps runs the C encoder; json.dump streams through
            # the pure-Python one (same bytes, slower)
            with open(vec_path, "w") as f:
                f.write(json.dumps(_rings_to_geojson(polys)))
            out["polygons"] = vec_path
            if self.mask_to_yolo:
                y = to_yolo(polys, grid)
                ypath = os.path.join(self.work_dir, f"{run_name}_yolo.csv")
                with open(ypath, "w") as f:
                    f.write("\n".join(yolo_lines(y)) + "\n")
                out["yolo"] = ypath
            if self.mask_to_coco:
                coco = to_coco(polys, grid)
                cpath = os.path.join(self.work_dir, f"{run_name}_coco.json")
                with open(cpath, "w") as f:
                    f.write(json.dumps(coco))
                out["coco"] = cpath
        return out


def _rings_to_geojson(polys) -> dict:
    """One Polygon feature per component, in ascending ``comp_id``: its
    first outer ring, then its holes in row order.  A component with no
    outer ring is dropped."""
    cid = polys["comp_id"].to_numpy()
    hole = polys["is_hole"].to_numpy(dtype=bool)
    cls = polys["class_id"].to_numpy()
    xs = polys["xs"].to_numpy()
    ys = polys["ys"].to_numpy()
    order = np.argsort(cid, kind="stable")
    cs = cid[order]
    bounds = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1], True])

    def coords(i):
        return np.column_stack([np.asarray(xs[i], dtype=float),
                                np.asarray(ys[i], dtype=float)]).tolist()

    feats = []
    for s0, s1 in zip(bounds[:-1], bounds[1:]):
        rows = order[s0:s1]
        outer = rows[~hole[rows]]
        if not len(outer):
            continue
        o = outer[0]
        feats.append({
            "type": "Feature",
            "properties": {"value": float(cls[o])},
            "geometry": {"type": "Polygon", "coordinates":
                         [coords(o)] + [coords(h) for h in rows[hole[rows]]]},
        })
    return {"type": "FeatureCollection", "features": feats}


# ---------------------------------------------------------------------------
# YAML / CLI (M22 analog)
# ---------------------------------------------------------------------------

def _parse_simple_yaml(path: str) -> dict:
    """Tiny YAML subset parser (flat ``arguments:`` block of key: value)
    — the reference's config shape needs nothing more and PyYAML is not
    a guaranteed dependency."""
    out: dict = {}
    section = None
    with open(path) as f:
        for raw in f:
            line = raw.rstrip()
            if not line or line.lstrip().startswith("#"):
                continue
            if not line.startswith(" ") and line.endswith(":"):
                section = line[:-1].strip()
                continue
            if ":" in line:
                k, v = line.split(":", 1)
                k, v = k.strip(), v.strip()
                if v.lower() in ("true", "false"):
                    val = v.lower() == "true"
                elif v.lower() in ("null", "none", "~", ""):
                    val = None
                else:
                    try:
                        val = int(v)
                    except ValueError:
                        try:
                            val = float(v)
                        except ValueError:
                            val = v.strip("'\"")
                if section == "arguments" or section is None:
                    out[k] = val
    return out


def cmd_interface(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(
        prog="geo-inference-ray",
        description="Ray-Data-native spatial-join + tiling engine")
    p.add_argument("-a", "--args", help="YAML config with an arguments: block")
    p.add_argument("-i", "--input", help="input sf dir (pages source)")
    p.add_argument("-w", "--work-dir", default="/tmp/geo_inference_ray")
    p.add_argument("-p", "--patch-size", type=int, default=16)
    p.add_argument("-v", "--mask-to-vec", action="store_true")
    p.add_argument("-y", "--mask-to-yolo", action="store_true")
    p.add_argument("-c", "--mask-to-coco", action="store_true")
    p.add_argument("--num-classes", type=int, default=3)
    p.add_argument("--prediction-threshold", type=float, default=0.3)
    p.add_argument("--min-area", type=float, default=0.0,
                   help="polygon area floor in px^2 (reference default "
                        "is 40 on its full-resolution rasters)")
    p.add_argument("--simplify-tolerance", type=float, default=None,
                   help="Douglas-Peucker tolerance in coordinate units "
                        "(reference simplify=True uses 0.5 px)")
    p.add_argument("--bbox", help="min_lon,min_lat,max_lon,max_lat")
    ns = p.parse_args(argv)
    if ns.args:
        cfg = _parse_simple_yaml(ns.args)
        for k, v in cfg.items():
            k2 = k.replace("-", "_")
            if hasattr(ns, k2) and v is not None:
                setattr(ns, k2, v)
    if ns.input is None:
        p.error("an input is required (-i or YAML 'input:')")
    if not os.path.isfile(os.path.join(ns.input, "documents.parquet")):
        p.error(f"input dir {ns.input!r} has no documents.parquet "
                "(expected a testdata sf directory)")
    if ns.bbox:
        parts = ns.bbox.split(",")
        if len(parts) != 4:
            p.error("--bbox must be min_lon,min_lat,max_lon,max_lat")
        try:
            [float(x) for x in parts]
        except ValueError:
            p.error(f"--bbox values must be numbers, got {ns.bbox!r}")
    return ns


def main(argv=None) -> None:
    ns = cmd_interface(argv)
    import ray

    owns_ray = not ray.is_initialized()
    if owns_ray:
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")
    try:
        gi = GeoInferenceRay(
            work_dir=ns.work_dir, mask_to_vec=ns.mask_to_vec,
            mask_to_yolo=ns.mask_to_yolo, mask_to_coco=ns.mask_to_coco,
            num_classes=ns.num_classes,
            prediction_threshold=ns.prediction_threshold,
            min_area=ns.min_area,
            simplify_tolerance=ns.simplify_tolerance)
        bbox = tuple(float(x) for x in ns.bbox.split(",")) if ns.bbox else None
        out = gi(ns.input, patch_size=ns.patch_size, bbox=bbox)
        print(json.dumps(out, default=str))
    finally:
        if owns_ray:
            ray.shutdown()


if __name__ == "__main__":
    main()
