"""Overlapped-tile scoring + windowed merge — the reference's core
pipeline (geo_inference/geo_dask.py) re-expressed as Ray Data stages.

Reference semantics preserved (studied from /root/reference/geo_inference/
geo_dask.py:14-320 and geo_inference.py:355-397):

* raster chunked into stride x stride cells; each grid location anchors a
  patch of size P = 2*stride covering itself + right/bottom neighbors;
* patches in the LAST grid row/col are dead (no ghost pixels -> reference
  returns zeros, geo_dask.py:193-199) and emit nothing;
* the model scores each patch -> (C, P, P); scores are multiplied by the
  position-dependent Hann window (window.py) and the window itself is
  appended as a weight plane -> (C+1, P, P);
* each output stride cell sums the windowed quadrants of the <=4 live
  patches covering it (1 at raster corners, 2 at edges, 4 interior —
  geo_dask.py:210-320), then normalizes sum(w*p)/sum(w) (0 where the
  weight is 0), then argmax (multiclass) or threshold (binary), uint8;
* cells with no valid input pixels become nodata 255
  (geo_inference.py:394-397).

Ray Data re-expression (no dask ghost reads — position is data, not
context; SURVEY §2.8): pages -> rasterize partial counts per batch ->
flat-emit pixels to <=4 owner patches -> groupby(patch).map_groups(score)
-> flat-emit 4 windowed quadrants to owner cells ->
groupby(cell).map_groups(merge) -> mask tiles.  Two hash shuffles on
short integer keys; payloads are fixed-size float lists, never the raw
pages.  At 100 TB the patch key space is bounded by the raster grid (not
the input rows) and empty patches are never materialized, mirroring the
reference's all-nodata short-circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa

from . import shuffle
from .window import classify_position, tile_window

NODATA = 255


def pc_cast_i64(col):
    import pyarrow.compute as _pc
    return _pc.cast(col, pa.int64())


@dataclass(frozen=True)
class GridConfig:
    """Raster grid over lon/lat. Defaults: global extent, 0.5-deg pixels,
    stride 8 (patch 16) -> 90x45 stride cells."""
    min_lon: float = -180.0
    max_lat: float = 90.0
    pix: float = 0.5
    width: int = 720   # pixels (x)
    height: int = 360  # pixels (y)
    stride: int = 8
    num_classes: int = 3
    prediction_threshold: float = 0.3

    @property
    def patch(self) -> int:
        return 2 * self.stride

    @property
    def nx(self) -> int:
        return self.width // self.stride

    @property
    def ny(self) -> int:
        return self.height // self.stride


DEFAULT_GRID = GridConfig()


class DensityScorer:
    """Deterministic stand-in for the reference's TorchScript model
    (contract: (B,C,H,W) -> (B,num_classes,H,W) probabilities,
    /root/reference/examples/script_model.py:4-43).  v = c/(1+c) of the
    pixel count, logits (1-v, v, 4v(1-v)), softmax.  Any callable with
    this signature plugs in — the model-plugin surface of the reference
    (§2.9) maps to passing a different scorer class."""

    def __init__(self, num_classes: int = 3):
        self.num_classes = num_classes

    def __call__(self, patch_counts: np.ndarray) -> np.ndarray:
        v = patch_counts / (1.0 + patch_counts)
        logits = np.stack([1.0 - v, v, 4.0 * v * (1.0 - v)]
                          [:self.num_classes])
        e = np.exp(logits - logits.max(axis=0, keepdims=True))
        return e / e.sum(axis=0, keepdims=True)


class ResourceProbeScorer(DensityScorer):
    """Placement diagnostic (ST3): a DensityScorer that asserts, from
    INSIDE the scoring task, that the custom Ray resource named by
    ``expected_resource`` was assigned to the task — i.e. that a
    ``scorer_resources={"resources": {...}}`` request actually reached
    the scheduler.  Lives in the library (not tests) so Ray workers can
    unpickle it."""

    expected_resource = "tile_scorer"

    def __call__(self, patch_counts: np.ndarray) -> np.ndarray:
        import ray

        assigned = ray.get_runtime_context().get_assigned_resources()
        if assigned.get(self.expected_resource, 0) <= 0:
            raise AssertionError(
                f"scorer task not placed on {self.expected_resource!r}: "
                f"{assigned}")
        return super().__call__(patch_counts)


class TTAScorer:
    """Test-time-augmentation wrapper: score flipped/rotated variants of
    the patch, invert each augmentation on the output, mean-merge —
    the reference's SegmentationTTAWrapper(d4/flip, merge='mean')
    (/root/reference/geo_inference/geo_inference.py:108-124).

    Wraps any scorer with the (C, P, P) contract.  ``mode``: 'flip'
    (identity + ud + lr) or 'd4' (adds the 3 rotations)."""

    def __init__(self, num_classes: int = 3, base_cls=None,
                 mode: str = "flip"):
        self.base = (base_cls or DensityScorer)(num_classes)
        self.num_classes = num_classes
        ident = (lambda a: a, lambda a: a)
        ud = (lambda a: a[..., ::-1, :], lambda a: a[..., ::-1, :])
        lr = (lambda a: a[..., :, ::-1], lambda a: a[..., :, ::-1])
        self.augs = [ident, ud, lr]
        if mode == "d4":
            for k in (1, 2, 3):
                self.augs.append((
                    lambda a, k=k: np.rot90(a, k, axes=(-2, -1)),
                    lambda a, k=k: np.rot90(a, -k, axes=(-2, -1))))

    def __call__(self, patch_counts: np.ndarray) -> np.ndarray:
        acc = np.zeros((self.num_classes, *patch_counts.shape))
        for fwd, inv in self.augs:
            acc += inv(self.base(fwd(patch_counts)))
        return acc / len(self.augs)


def rasterize_partial(grid: GridConfig):
    """map_batches kernel: geocoded batch -> per-batch partial pixel
    counts (py, px, n).  floor arithmetic matches the SQL oracle:
    px = floor((lon - min_lon)/pix), py = floor((max_lat - lat)/pix)."""

    def fn(batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        px = np.floor((lon - grid.min_lon) / grid.pix).astype(np.int64)
        py = np.floor((grid.max_lat - lat) / grid.pix).astype(np.int64)
        px = np.clip(px, 0, grid.width - 1)
        py = np.clip(py, 0, grid.height - 1)
        key = py * grid.width + px
        cells, counts = np.unique(key, return_counts=True)
        return pa.table({
            "py": pa.array(cells // grid.width),
            "px": pa.array(cells % grid.width),
            "n": pa.array(counts.astype(np.int64)),
        })

    return fn


DRIVER_COMBINE_MAX_PIXELS = 4_000_000

# diagnostic: which combine path the last pixel_counts call took
# ("driver" | "distributed") — read by tests, never by library code
_LAST_COMBINE_PATH: str | None = None


def rasterize(geo_ds, grid: GridConfig = DEFAULT_GRID):
    """Geocoded rows -> one partial-count table (py, px, n) per block:
    the distributed half of :func:`pixel_counts`."""
    # Column pruning only when the schema is ALREADY known (parquet
    # metadata / materialized): schema(fetch_if_missing=True) on a lazy
    # map_batches chain executes the upstream pipeline with limit-1 —
    # measured ~1-7 s of pure probe cost per mask_tiles/rasterize call
    # at the bench input.  With an unknown schema the partial kernel
    # reads only lat/lon anyway and the maps are fused, so skipping the
    # Project costs nothing.
    sch = geo_ds.schema(fetch_if_missing=False)
    if sch is not None:
        cols = [c for c in ("lat", "lon") if c in sch.names]
        geo_ds = geo_ds.select_columns(cols)
    # batch_size=None: one partial per BLOCK, not per 1024-row default
    # slice — measured 13.5x fewer partial rows (80 K vs 1.08 M at the
    # bench's 10.24 M-row input) for the same per-task memory (the
    # kernel touches two int64 columns only)
    return geo_ds.map_batches(
        rasterize_partial(grid), batch_format="pyarrow",
        zero_copy_batch=True, batch_size=None)


def fits_driver(grid: GridConfig) -> bool:
    """Whether ``grid``'s pixel and tile suffix runs on the driver (up to
    DRIVER_COMBINE_MAX_PIXELS pixels) rather than as Ray Data
    shuffles."""
    return grid.width * grid.height <= DRIVER_COMBINE_MAX_PIXELS


def _check_driver_route(grid: GridConfig, scorer_resources=None):
    """Driver-resident input (a ``pa.Table`` or a list of them) runs the
    driver route only."""
    if scorer_resources is not None or not fits_driver(grid):
        raise ValueError(
            "driver tables need a grid of at most DRIVER_COMBINE_MAX_PIXELS"
            " pixels and no scorer_resources; pass a Dataset instead")


PIXEL_SCHEMA = pa.schema([("py", pa.int64()), ("px", pa.int64()),
                          ("n", pa.int64())])


def pixel_counts(geo_ds, grid: GridConfig = DEFAULT_GRID, *,
                 rasterized: bool = False):
    """Full rasterization: partial counts per batch -> global sum.

    ``rasterized=True`` means ``geo_ds`` already holds partial counts
    (``rasterize_partial`` output, e.g. the per-task reductions of a
    checkpoint write) and only the combine runs.  ``geo_ds`` may also
    be already on the driver, a ``pa.Table`` or a list of them, on a
    grid up to DRIVER_COMBINE_MAX_PIXELS: the sum then comes back as
    one ``pa.Table``, and the driver combine starts no Ray Data
    execution.  A Dataset input gives a Dataset.

    The partial stream is bounded by (n_batches x occupied pixels) and
    the final key space by the raster grid, NOT the input rows.  A
    Dataset input goes through ``shuffle.aggregate_table``: its
    partials are folded on the driver under
    ``shuffle.PARTIAL_ROWS_DRIVER_LIMIT`` (measured 2x faster than the
    groupby at 8 CPUs, because a downstream AllToAll throttles the
    dominant map stage), and past it by Ray's groupby, whatever the
    grid.  Driver tables are collected and folded with
    ``shuffle.fold_partials`` over the packed ``py * width + px`` key;
    past the same bound (many-block inputs, where one driver fold
    would become a single-threaded funnel even on a small grid) they
    go straight to ``shuffle.fold_distributed``."""
    import ray.data as rd

    global _LAST_COMBINE_PATH
    sum_n = {"n": ("n", "sum")}
    if not isinstance(geo_ds, (pa.Table, list)):
        part = geo_ds if rasterized else rasterize(geo_ds, grid)
        pix = shuffle.aggregate_table(part, ["py", "px"], sum_n,
                                      PIXEL_SCHEMA)
        on_driver = isinstance(pix, pa.Table)
        _LAST_COMBINE_PATH = "driver" if on_driver else "distributed"
        return shuffle.table_dataset(pix) if on_driver else pix
    _check_driver_route(grid)
    part = [geo_ds] if isinstance(geo_ds, pa.Table) else geo_ds
    if not rasterized:
        part = [rasterize_partial(grid)(t) for t in part]
    pix = shuffle.collect(part, PIXEL_SCHEMA,
                          shuffle.PARTIAL_ROWS_DRIVER_LIMIT)
    if pix is None:
        # the volume bail-out: too many partial rows for one driver fold
        _LAST_COMBINE_PATH = "distributed"
        part = rd.from_arrow([t for t in part if t.num_rows]
                             or [PIXEL_SCHEMA.empty_table()])
        return shuffle.collect(shuffle.fold_distributed(
            part, ["py", "px"], sum_n, PIXEL_SCHEMA), PIXEL_SCHEMA)
    _LAST_COMBINE_PATH = "driver"
    w = grid.width
    key = pix["py"].to_numpy() * w + pix["px"].to_numpy()
    summed = shuffle.fold_partials(
        pa.table({"key": key, "n": pix["n"]}), ["key"], sum_n,
        {"key": pa.int64(), "n": pa.int64()})
    key = summed["key"].to_numpy()
    return pa.table({"py": key // w, "px": key % w, "n": summed["n"]},
                    schema=PIXEL_SCHEMA)


def emit_to_patches(grid: GridConfig):
    """map_batches kernel: pixel partial counts -> rows keyed by the <=4
    live owner patches (dead last grid row/col excluded — reference
    parity)."""

    def fn(batch: pa.Table) -> pa.Table:
        py = batch["py"].to_numpy()
        px = batch["px"].to_numpy()
        n = batch["n"].to_numpy()
        s = grid.stride
        outs = []
        for dy in (0, -1):
            for dx in (0, -1):
                ty = py // s + dy
                tx = px // s + dx
                # owner must contain the pixel: t*s <= p < t*s + 2s
                ok = (ty >= 0) & (tx >= 0) & (py < (ty + 2) * s) \
                    & (px < (tx + 2) * s)
                # dead last row/col patches never score
                ok &= (ty < grid.ny - 1) & (tx < grid.nx - 1)
                if ok.any():
                    outs.append((ty[ok], tx[ok], py[ok], px[ok], n[ok]))
        if not outs:
            # Ray map_batches can deliver empty blocks; emit an empty
            # table with the output schema instead of np.concatenate([]).
            empty = pa.array([], pa.int64())
            return pa.table({"ty": empty, "tx": empty, "py": empty,
                             "px": empty, "n": empty})
        ty = np.concatenate([o[0] for o in outs])
        tx = np.concatenate([o[1] for o in outs])
        return pa.table({
            "ty": pa.array(ty), "tx": pa.array(tx),
            "py": pa.array(np.concatenate([o[2] for o in outs])),
            "px": pa.array(np.concatenate([o[3] for o in outs])),
            "n": pa.array(np.concatenate([o[4] for o in outs])),
        })

    return fn


class ScorePatches:
    """map_groups kernel per (ty, tx): assemble the dense P x P count
    patch, score it, window it by grid position, and emit the 4 windowed
    stride-quadrants to their owner output cells.

    Emitted row: (oy, ox, src_ty, src_tx, data) where data =
    [scores*win (C), win, rawcount] x stride x stride flattened float32.
    src keys give the merge a deterministic summation order.
    """

    def __init__(self, grid: GridConfig = DEFAULT_GRID, scorer_cls=DensityScorer):
        self.grid = grid
        self.scorer = scorer_cls(grid.num_classes)
        # cache all 9 window variants once per actor
        from .window import all_windows
        self._wins = all_windows(grid.patch)

    def score_core(self, ty: int, tx: int, py: np.ndarray,
                   px: np.ndarray, n: np.ndarray) -> np.ndarray:
        """Numpy core shared by the map_groups wrapper and the driver-
        local suffix: one patch's pixel counts -> its 4 windowed
        stride-quadrants, float32 (4, C+2, s, s) in (qy, qx) order; quadrant
        ``qy * 2 + qx`` belongs to output cell (ty + qy, tx + qx)."""
        grid = self.grid
        s = grid.stride
        p = grid.patch
        patch = np.zeros((p, p), dtype=np.float64)
        np.add.at(patch, (py - ty * s, px - tx * s),
                  n.astype(np.float64))
        probs = self.scorer(patch)  # (C, P, P)
        pos = classify_position(ty, tx, grid.ny, grid.nx)
        win = self._wins[pos]
        stacked = np.concatenate(
            [probs * win[None, :, :], win[None, :, :], patch[None, :, :]],
            axis=0).astype(np.float32)  # (C+2, P, P)
        c2 = stacked.shape[0]
        return stacked.reshape(c2, 2, s, 2, s).transpose(1, 3, 0, 2, 4) \
            .reshape(4, c2, s, s)

    def __call__(self, g: pa.Table) -> pa.Table:
        ty = g["ty"][0].as_py()
        tx = g["tx"][0].as_py()
        quads = self.score_core(ty, tx, g["py"].to_numpy(),
                                g["px"].to_numpy(), g["n"].to_numpy())
        return pa.table({
            "oy": ty + _QY, "ox": tx + _QX,
            "src_ty": np.full(4, ty, dtype=np.int64),
            "src_tx": np.full(4, tx, dtype=np.int64),
            "data": pa.ListArray.from_arrays(
                np.arange(0, quads.size + 1, quads[0].size, dtype=np.int32),
                pa.array(quads.reshape(-1))),
        })


# quadrant q of a patch at (ty, tx) lands on cell (ty + _QY[q], tx + _QX[q])
_QY = np.array([0, 0, 1, 1], dtype=np.int64)
_QX = np.array([0, 1, 0, 1], dtype=np.int64)


def decide_cells(acc: np.ndarray, grid: GridConfig):
    """Summed contributions of N cells, float64 (N, C+2, s, s) -> flat
    uint8 masks (N, s*s) and n_valid (N,): normalize sum(w*p)/sum(w)
    (0 where the weight is 0), argmax (multiclass) or threshold
    (binary), nodata where no input pixel was valid."""
    c = grid.num_classes
    scores, weight, raw = acc[:, :c], acc[:, c], acc[:, c + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = np.divide(scores, weight[:, None], out=np.zeros_like(scores),
                         where=weight[:, None] != 0)
    if c == 1:
        cls = (norm[:, 0] > grid.prediction_threshold).astype(np.uint8)
    else:
        cls = np.argmax(norm, axis=1).astype(np.uint8)
    valid = raw > 0
    mask = np.where(valid, cls, np.uint8(NODATA)).astype(np.uint8)
    flat = (len(acc), acc.shape[2] * acc.shape[3])
    return mask.reshape(flat), valid.reshape(flat).sum(axis=1)


class MergeCells:
    """map_groups kernel per (oy, ox): deterministic-order sum of the
    contributing windowed quadrants, normalize by the weight plane,
    argmax/threshold, nodata overlay — geo_dask.py:210-320 semantics."""

    def __init__(self, grid: GridConfig = DEFAULT_GRID):
        self.grid = grid

    def merge_core(self, datas_sorted) -> tuple[np.ndarray, int]:
        """Contributions ALREADY in (src_ty, src_tx) order -> (flat uint8
        mask, n_valid).  Accumulation order is the determinism contract
        — callers must pre-sort."""
        grid = self.grid
        s = grid.stride
        acc = np.zeros((1, grid.num_classes + 2, s, s), dtype=np.float64)
        for d in datas_sorted:
            acc[0] += np.asarray(d, dtype=np.float64).reshape(acc.shape[1:])
        mask, n_valid = decide_cells(acc, grid)
        return mask[0], int(n_valid[0])

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["src_ty", "src_tx"], kind="stable")
        mask, n_valid = self.merge_core(list(g["data"]))
        return pd.DataFrame({
            "oy": [int(g["oy"].iloc[0])],
            "ox": [int(g["ox"].iloc[0])],
            "mask": [mask],
            "n_valid": [n_valid],
        })


# output schema of the tile pipeline (mask_tiles / mask_tiles_distributed)
TILE_SCHEMA = pa.schema([
    ("oy", pa.int64()), ("ox", pa.int64()),
    ("mask", pa.list_(pa.uint8())), ("n_valid", pa.int64())])


def mask_tiles(geo_ds, grid: GridConfig = DEFAULT_GRID,
               scorer_cls=DensityScorer, scorer_resources=None, *,
               rasterized: bool = False):
    """Full tile pipeline: geocoded pages -> mask tile rows
    (oy, ox, mask uint8[s*s], n_valid).  With ``rasterized=True`` the
    input is partial pixel counts instead (see :func:`pixel_counts`).

    The input reduction (rows -> per-pixel counts) is the distributed
    part; everything after is bounded by the raster grid, not the input.
    For grids under DRIVER_COMBINE_MAX_PIXELS the whole tile suffix runs
    driver-side with the same kernels (saves ~5 s of small-data operator
    latency per run); larger grids use the distributed groupby path
    below — identical semantics, shared kernels.

    ``scorer_resources`` maps the reference's device-selection step
    (helpers.py:199-276: GPU probe + model placement) onto Ray resource
    requests: e.g. ``{"num_gpus": 0.25}`` schedules the scoring stage
    on GPU workers; ``None`` keeps the default CPU placement.  A dict
    forces the distributed path (a device request is meaningless
    driver-side).

    ``geo_ds`` may also be already on the driver (a ``pa.Table`` or a
    list of them, as :func:`pixel_counts` takes); such input runs the
    driver route only and stays there: the tiles come back as one
    TILE_SCHEMA ``pa.Table`` and the suffix starts no Ray Data
    execution.  A Dataset input gives a Dataset."""
    import ray.data as rd

    on_driver = isinstance(geo_ds, (pa.Table, list))
    if on_driver:
        _check_driver_route(grid, scorer_resources)
    if scorer_resources is None and fits_driver(grid):
        pix = pixel_counts(geo_ds, grid, rasterized=rasterized)
        if not on_driver:
            pix = shuffle.collect(pix, PIXEL_SCHEMA)
        tiles = _tiles_from_pixels_local(pix, grid, scorer_cls)
        return tiles if on_driver else rd.from_arrow(tiles)
    return mask_tiles_distributed(geo_ds, grid, scorer_cls,
                                  scorer_resources, rasterized=rasterized)


def _tiles_from_pixels_local(pix: pa.Table, grid: GridConfig,
                             scorer_cls=DensityScorer) -> pa.Table:
    """Driver-side tile suffix over the (grid-bounded) pixel counts
    (py, px, n), with the same scorer and decision as the distributed
    path; returns the TILE_SCHEMA table.

    One ``ScorePatches.score_core`` call per live patch, in ascending
    (ty, tx) order; each patch's 4 windowed quadrants are added into a
    float64 accumulator with one row per output cell, so every cell
    sums its contributions in (src_ty, src_tx) order — the determinism
    contract of ``MergeCells.merge_core``.  The accumulator holds only
    the cells of the two cell rows the current patch row touches; the
    rows above are complete and ``decide_cells`` turns them into masks
    in one call per patch row.  Memory grows with the live cells, not
    with the grid area."""
    if not pix.num_rows:
        return TILE_SCHEMA.empty_table()
    owned = emit_to_patches(grid)(pix)
    if owned.num_rows == 0:
        return TILE_SCHEMA.empty_table()
    ty = owned["ty"].to_numpy()
    tx = owned["tx"].to_numpy()
    py = owned["py"].to_numpy()
    px = owned["px"].to_numpy()
    n = owned["n"].to_numpy()
    # sort once by packed patch key; contiguous runs are the patches
    key = ty * grid.nx + tx
    order = np.argsort(key, kind="stable")
    key = key[order]
    ty, tx, py, px, n = ty[order], tx[order], py[order], px[order], n[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    ends = np.r_[starts[1:], len(key)]
    # the output cells (ascending (oy, ox)) and each patch's 4 of them
    pty, ptx = ty[starts], tx[starts]
    cell_keys = (pty[:, None] + _QY) * grid.nx + (ptx[:, None] + _QX)
    cells = np.unique(cell_keys)
    slot = np.searchsorted(cells, cell_keys)
    s = grid.stride
    planes = (grid.num_classes + 2, s, s)
    # first cell of each cell row; cell row oy gets its last
    # contribution from patch row oy
    row_start = np.searchsorted(cells, np.arange(grid.ny + 1) * grid.nx)
    masks = np.empty((len(cells), s * s), dtype=np.uint8)
    n_valid = np.empty(len(cells), dtype=np.int64)
    score = ScorePatches(grid, scorer_cls)
    # acc holds cells [base, base + len(acc)) of patch row `row`
    base, acc, row = 0, np.zeros((0, *planes)), -1
    for i, (s0, s1) in enumerate(zip(starts.tolist(), ends.tolist())):
        if pty[i] != row:
            # new patch row: the cells above it are complete; the
            # partial sums of the rest carry over
            row = int(pty[i])
            lo, hi = row_start[row], row_start[row + 2]
            masks[base:lo], n_valid[base:lo] = decide_cells(
                acc[:lo - base], grid)
            nxt = np.zeros((hi - lo, *planes))
            nxt[:base + len(acc) - lo] = acc[lo - base:]
            base, acc = lo, nxt
        acc[slot[i] - base] += score.score_core(
            row, int(ptx[i]), py[s0:s1], px[s0:s1], n[s0:s1])
    masks[base:], n_valid[base:] = decide_cells(acc, grid)
    return pa.table({
        "oy": pa.array(cells // grid.nx),
        "ox": pa.array(cells % grid.nx),
        "mask": pa.ListArray.from_arrays(
            np.arange(0, masks.size + 1, s * s, dtype=np.int32),
            pa.array(masks.reshape(-1))),
        "n_valid": pa.array(n_valid)}, schema=TILE_SCHEMA)


def mask_tiles_distributed(geo_ds, grid: GridConfig = DEFAULT_GRID,
                           scorer_cls=DensityScorer, scorer_resources=None,
                           *, rasterized: bool = False):
    """Distributed tile suffix (fine grids): groupby(patch) scoring and
    groupby(cell) merge as Ray Data shuffles.  ``scorer_resources``
    (e.g. {"num_gpus": 0.25}) is forwarded to the scoring stage's Ray
    tasks — the ST3 device-selection analog."""
    # two-stage aggregation BEFORE the patch shuffle: per-batch partial
    # counts -> global per-pixel sum (the shuffle shrinks to the number
    # of occupied pixels, bounded by the raster grid — without this the
    # patch groupby sorts one partial row per (batch, pixel), which at
    # 20M input rows meant a 20M-row shuffle and a 7x slowdown)
    pix = pixel_counts(geo_ds, grid, rasterized=rasterized)

    def rename_n(batch: pa.Table) -> pa.Table:
        return pa.table({"py": batch["py"], "px": batch["px"],
                         "n": pc_cast_i64(batch["n"])})

    pix = pix.map_batches(rename_n, batch_format="pyarrow")
    owned = pix.map_batches(emit_to_patches(grid), batch_format="pyarrow",
                            zero_copy_batch=True)
    _score = ScorePatches(grid, scorer_cls)
    _merge = MergeCells(grid)

    def merge_cell_group(g: pd.DataFrame) -> pa.Table:
        # Arrow out, so the blocks hold TILE_SCHEMA's list<uint8> mask:
        # a pandas mask column would become Ray's tensor extension
        return pa.Table.from_pandas(_merge(g), schema=TILE_SCHEMA,
                                    preserve_index=False)

    def score_patch_group(g: pa.Table) -> pa.Table:
        return _score(g)

    # Arrow out of the scoring groups: pandas group blocks feeding the
    # next shuffle hit a Ray 2.49 stall (see shuffle.partitioned)
    scored = owned.groupby(["ty", "tx"]).map_groups(
        score_patch_group, batch_format="pyarrow",
        **(scorer_resources or {}))
    merged = scored.groupby(["oy", "ox"]).map_groups(
        merge_cell_group, batch_format="pandas")
    return merged


PYRAMID_LEVELS = 4


def tile_pyramid(geo_ds, grid: GridConfig = DEFAULT_GRID,
                 levels: int = PYRAMID_LEVELS):
    """Raster overview pyramid — the gdaladdo/COG-overviews analog: for
    each zoom level ``l`` in 0..levels-1, per-pixel page counts at 2^l x
    coarser resolution (level-l pixel (py, px) sums the level-0 counts
    of the 2^l x 2^l block it covers).

    One pass: the (grid-bounded) level-0 pixel aggregate is flat-emitted
    to its ``levels`` ancestor keys, then ONE groupby(level, py, px)
    Sum — shuffle volume is occupied-pixels x levels, never input rows.
    At 100 TB the input reduction happens in ``pixel_counts``; the
    pyramid itself touches only raster-bounded data."""

    pix = pixel_counts(geo_ds, grid)

    def emit(batch: pa.Table) -> pa.Table:
        py = batch["py"].to_numpy()
        px = batch["px"].to_numpy()
        n = pc_cast_i64(batch["n"]).to_numpy()
        lv = np.repeat(np.arange(levels, dtype=np.int64), len(py))
        pyt = np.tile(py, levels) >> lv
        pxt = np.tile(px, levels) >> lv
        return pa.table({
            "level": pa.array(lv), "py": pa.array(pyt),
            "px": pa.array(pxt),
            "n": pa.array(np.tile(n, levels))})

    return shuffle.aggregate(
        pix.map_batches(emit, batch_format="pyarrow",
                        zero_copy_batch=True, batch_size=None),
        ["level", "py", "px"], {"n": ("n", "sum")},
        {"level": pa.int64(), "py": pa.int64(), "px": pa.int64(),
         "n": pa.int64()})


def zonal_stats(geo_ds, grid: GridConfig = DEFAULT_GRID,
                polygons_ref=None):
    """Zonal statistics — per-polygon aggregate of the rasterized page
    density (the classic raster<->vector zonal-sum: for every polygon,
    how many occupied pixels fall inside it and how many pages they
    hold).  A pixel belongs to a polygon iff its CENTER is inside
    (exact ray-cast, same kernel as the PIP join); pixels inside
    multiple overlapping polygons count for each.

    Scale shape: the input reduction is ``pixel_counts`` (shuffle
    bounded by the raster grid); the polygon layer and its STRtree ride
    in the probe function and are probed batch-locally
    (:func:`geom.polygon_hits`, the PIP join's loop); the final groupby
    is polygon-bounded."""
    import ray

    from . import synth
    from .geom import STRtree, polygon_hits

    polys = (synth.polygon_arrays() if polygons_ref is None
             else ray.get(polygons_ref))
    tree = STRtree(np.array([p["bbox"] for p in polys]))
    poly_ids = np.array([p["poly_id"] for p in polys], dtype=np.int64)

    def probe(batch: pa.Table) -> pa.Table:
        py = batch["py"].to_numpy()
        px = batch["px"].to_numpy()
        n = pc_cast_i64(batch["n"]).to_numpy()
        # pixel centers, same expression order as the SQL mirror
        lonc = grid.min_lon + (px + 0.5) * grid.pix
        latc = grid.max_lat - (py + 0.5) * grid.pix
        rows, item = polygon_hits(tree, polys, lonc, latc)
        return pa.table({"poly_id": pa.array(poly_ids[item]),
                         "n": pa.array(n[rows])})

    pix = pixel_counts(geo_ds, grid)
    # the pixel stream is raster-bounded (small), so a stateless task fn
    # that carries the layer is cheaper than an actor pool here
    return shuffle.aggregate(
        pix.map_batches(probe, batch_format="pyarrow",
                        zero_copy_batch=True, batch_size=None),
        "poly_id", {"n_pixels": ("poly_id", "count"), "n_pages": ("n", "sum")},
        {"poly_id": pa.int64(), "n_pixels": pa.int64(), "n_pages": pa.int64()})


def sql_tile_pyramid(grid: GridConfig = DEFAULT_GRID,
                     levels: int = PYRAMID_LEVELS) -> str:
    """Oracle for :func:`tile_pyramid` (compose after the geo CTE):
    integer ancestor keys via right-shift, one GROUP BY."""
    lv = ", ".join(f"({i})" for i in range(levels))
    return sql_pix_cte(grid) + f""",
lv(l) AS (VALUES {lv})
SELECT CAST(l AS BIGINT) AS level, py >> l AS py, px >> l AS px,
       CAST(SUM(n) AS BIGINT) AS n
FROM pix, lv GROUP BY 1, 2, 3"""


def sql_zonal_stats(grid: GridConfig = DEFAULT_GRID) -> str:
    """Oracle for :func:`zonal_stats`: pixel centers against the same
    edge-crossing PIP predicate as the join oracles (compose after
    geo + polygon edges CTEs)."""
    return f""",
pixc AS (
  SELECT py, px, n,
         {grid.min_lon!r} + (px + 0.5) * {grid.pix!r} AS lonc,
         {grid.max_lat!r} - (py + 0.5) * {grid.pix!r} AS latc
  FROM pix
),
zhits AS (
  SELECT g.n, p.poly_id
  FROM pixc g, polys p
  WHERE (SELECT count(*) FROM edges e
         WHERE e.poly_id = p.poly_id
           AND ((e.ey1 > g.latc) != (e.ey2 > g.latc))
           AND g.lonc < (e.ex2 - e.ex1) * (g.latc - e.ey1)
                        / (e.ey2 - e.ey1) + e.ex1
        ) % 2 = 1
)
SELECT poly_id, COUNT(*) AS n_pixels, CAST(SUM(n) AS BIGINT) AS n_pages
FROM zhits GROUP BY poly_id"""


def tiles_to_dense(tiles_df: pd.DataFrame,
                   grid: GridConfig = DEFAULT_GRID) -> np.ndarray:
    """Assemble mask tiles into a dense (H, W) uint8 raster (absent
    tiles = nodata) with one scatter of every tile's pixels."""
    out = np.full((grid.height, grid.width), NODATA, dtype=np.uint8)
    s = grid.stride
    masks = np.array(list(tiles_df["mask"]), dtype=np.uint8)
    r = np.arange(s)
    oy = tiles_df["oy"].to_numpy(dtype=np.int64)[:, None, None]
    ox = tiles_df["ox"].to_numpy(dtype=np.int64)[:, None, None]
    out[oy * s + r[:, None], ox * s + r] = masks.reshape(-1, s, s)
    return out


def reference_merge(contribs: list[np.ndarray], num_classes: int,
                    threshold: float) -> np.ndarray:
    """Pure-numpy merge identity used by the golden tests: sum the stacked
    (C+1, s, s) contributions, normalize, decide — the algebra of
    geo_dask.py:307-319 (independent re-derivation, mirrors the
    reference's own test expectations)."""
    acc = np.zeros_like(contribs[0], dtype=np.float64)
    for q in contribs:
        acc += q
    scores, weight = acc[:-1], acc[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = np.divide(scores, weight[None, :, :],
                         out=np.zeros_like(scores), where=weight != 0)
    if num_classes == 1:
        return (norm[0] > threshold).astype(np.uint8)
    return np.argmax(norm, axis=0).astype(np.uint8)


# ---------------------------------------------------------------------------
# SQL oracle mirrors (DuckDB CTE fragments; compose after the geo CTE)
# ---------------------------------------------------------------------------

def sql_pix_cte(grid: GridConfig = DEFAULT_GRID) -> str:
    """``pix`` CTE: occupied raster pixels with page counts — the SQL
    mirror of :func:`pixel_counts` (floor + clip arithmetic identical
    to ``rasterize_partial``).  Compose after the geo CTE."""
    w, h = grid.width, grid.height
    return f"""
pix AS (
  SELECT LEAST(GREATEST(CAST(floor((lon - {grid.min_lon!r}) / {grid.pix!r})
                        AS BIGINT), 0), {w - 1}) AS px,
         LEAST(GREATEST(CAST(floor(({grid.max_lat!r} - lat) / {grid.pix!r})
                        AS BIGINT), 0), {h - 1}) AS py,
         count(*) AS n
  FROM geo GROUP BY 1, 2
)"""


def sql_tile_ctes(grid: GridConfig = DEFAULT_GRID) -> str:
    """CTE chain mirroring the tile pipeline's integer skeleton:

    * ``pix``     — occupied raster pixels with counts (= rasterize);
    * ``patches`` — LIVE patch keys that received >=1 occupied pixel
      (last grid row/col is dead — reference parity, geo_dask.py:193);
    * ``cells``   — output cells receiving >=1 windowed quadrant.

    The scorer is pointwise and the merge normalizes by the summed
    window, so mask semantics reduce to integer relations on these sets
    (see sql_fg_cte) — no float scoring appears in the oracle."""
    s = grid.stride
    ny, nx = grid.ny, grid.nx
    return sql_pix_cte(grid) + f""",
patches AS (
  SELECT DISTINCT (py // {s} + dy.d) AS ty, (px // {s} + dx.d) AS tx
  FROM pix, (VALUES (0), (-1)) dy(d), (VALUES (0), (-1)) dx(d)
  WHERE py // {s} + dy.d >= 0 AND px // {s} + dx.d >= 0
    AND py // {s} + dy.d <= {ny - 2} AND px // {s} + dx.d <= {nx - 2}
),
cells AS (
  SELECT DISTINCT ty + qy.q AS oy, tx + qx.q AS ox
  FROM patches, (VALUES (0), (1)) qy(q), (VALUES (0), (1)) qx(q)
)"""


def sql_mask_tiles(grid: GridConfig = DEFAULT_GRID) -> str:
    """Final SELECT for the mask_tiles oracle: every output cell with its
    count of valid (= occupied) pixels.  Every occupied pixel's own cell
    always receives that pixel's raw count (its containing live patch
    exists by construction), so valid == occupied."""
    s = grid.stride
    return sql_tile_ctes(grid) + f""",
validpix AS (
  SELECT py // {s} AS oy, px // {s} AS ox, count(*) AS nv
  FROM pix GROUP BY 1, 2
)
SELECT c.oy, c.ox, CAST(COALESCE(v.nv, 0) AS BIGINT) AS n_valid
FROM cells c LEFT JOIN validpix v ON c.oy = v.oy AND c.ox = v.ox"""


_POS_ORDER = ("ul", "u", "ur", "l", "c", "r", "bl", "b", "br")


def sql_window_positive(grid: GridConfig = DEFAULT_GRID) -> str:
    """VALUES CTE of (pos, ry, rx) offsets where each of the 9 window
    variants is strictly positive.  The mask oracle only needs the ZERO
    structure of the windows (sum-of-weights > 0 <=> any covering window
    positive), which is exact in both numpy and SQL."""
    from .window import all_windows

    wins = all_windows(grid.patch)
    rows = []
    for pi, p in enumerate(_POS_ORDER):
        ys, xs = np.nonzero(wins[p] > 0)
        rows.extend(f"({pi},{y},{x})" for y, x in zip(ys, xs))
    return "winpos(pos, ry, rx) AS (VALUES " + ",".join(rows) + ")"


def sql_fg_cte(grid: GridConfig = DEFAULT_GRID) -> str:
    """``fg`` CTE: foreground mask pixels (class > 0, not nodata) with
    their class, derived WITHOUT float scoring:

    * the DensityScorer is pointwise, and the merge divides by the
      summed window weight, so the normalized score of a pixel is
      exactly the scorer's softmax of its own count whenever any
      covering window weight is positive;
    * argmax of that softmax is integer logic on the count: class 2 for
      n in {1, 2}, class 1 for n >= 3 (the n = 3 logit tie resolves to
      the lower index, matching np.argmax);
    * zero summed weight -> all-zero scores -> argmax 0 -> background.
    """
    s = grid.stride
    ny, nx = grid.ny, grid.nx
    return sql_window_positive(grid) + f""",
pcls AS (
  SELECT ty, tx,
    CASE WHEN tx >= {nx - 2} AND ty = 0 THEN 2
         WHEN tx >= {nx - 2} AND ty > 0 AND ty < {ny - 2} THEN 5
         WHEN tx >= {nx - 2} AND ty >= {ny - 2} THEN 8
         WHEN ty >= {ny - 2} AND tx > 0 AND tx < {nx - 2} THEN 7
         WHEN ty >= {ny - 2} AND tx = 0 THEN 6
         WHEN ty = 0 AND tx = 0 THEN 0
         WHEN tx = 0 AND ty > 0 THEN 3
         WHEN tx > 0 AND tx < {nx - 2} AND ty = 0 THEN 1
         ELSE 4 END AS pos
  FROM patches
),
fg AS (
  SELECT p.py, p.px,
         CASE WHEN p.n >= 3 THEN 1 ELSE 2 END AS cls,
         p.py * {grid.width} + p.px AS pk
  FROM pix p
  WHERE EXISTS (
    SELECT 1 FROM pcls t JOIN winpos w ON w.pos = t.pos
    WHERE t.ty IN (p.py // {s}, p.py // {s} - 1)
      AND t.tx IN (p.px // {s}, p.px // {s} - 1)
      AND w.ry = p.py - t.ty * {s} AND w.rx = p.px - t.tx * {s}
  )
)"""


def _sql_comp_chain(grid: GridConfig = DEFAULT_GRID) -> str:
    """Shared CTE chain: occupied pixels -> fg mask -> 4-connected
    components (recursive min-label) -> per-component stats ``cst``
    (root, mk order key, npx, cls) + pixel map ``comp``."""
    s = grid.stride
    return sql_tile_ctes(grid) + "," + sql_fg_cte(grid) + f""",
adj AS (
  SELECT a.pk AS src, b.pk AS dst FROM fg a JOIN fg b
  ON a.cls = b.cls
   AND ((a.py = b.py AND abs(a.px - b.px) = 1)
     OR (a.px = b.px AND abs(a.py - b.py) = 1))
),
reach AS (
  SELECT pk, pk AS lbl FROM fg
  UNION
  SELECT a.src AS pk, r.lbl FROM adj a JOIN reach r ON a.dst = r.pk
),
comp AS (SELECT pk, MIN(lbl) AS root FROM reach GROUP BY pk),
kk AS (
  SELECT f.pk, f.cls, c.root,
         ((f.py // {s}) * {1 << 20} + (f.px // {s})) * {s * s}
           + (f.py % {s}) * {s} + (f.px % {s}) AS ordkey
  FROM fg f JOIN comp c ON f.pk = c.pk
),
cst AS (SELECT root, MIN(ordkey) AS mk, COUNT(*) AS npx, MIN(cls) AS cls
        FROM kk GROUP BY root),
bb AS (
  SELECT c.root, MIN(f.py) AS miny, MAX(f.py) AS maxy,
         MIN(f.px) AS minx, MAX(f.px) AS maxx
  FROM fg f JOIN comp c ON f.pk = c.pk GROUP BY c.root
)"""


def _sql_cavity_ctes() -> str:
    """Background-cavity CTEs over the comp chain: enumerate each
    component's bbox+1 cells, min-label the 4-connected background
    regions with a second recursive CTE, keep regions with no frame
    contact (= enclosed holes)."""
    return """,
bby AS (  -- unnest(generate_series(..)) supports column args;
          -- the FROM-clause table function form does not
  SELECT root, miny, maxy, minx, maxx,
         unnest(generate_series(miny - 1, maxy + 1)) AS y
  FROM bb
),
bbyx AS (
  SELECT root, miny, maxy, minx, maxx, y,
         unnest(generate_series(minx - 1, maxx + 1)) AS x
  FROM bby
),
bgn AS (  -- background nodes: bbox+1 cells not in the component
  SELECT b.root, b.y, b.x,
         (b.root * 1099511627776 + (b.y - b.miny + 1) * 1048576
          + (b.x - b.minx + 1)) AS nk,
         (b.y = b.miny - 1 OR b.y = b.maxy + 1
          OR b.x = b.minx - 1 OR b.x = b.maxx + 1) AS on_frame
  FROM bbyx b
  WHERE NOT EXISTS (
    SELECT 1 FROM fg f JOIN comp c ON f.pk = c.pk
    WHERE c.root = b.root AND f.py = b.y AND f.px = b.x)
),
badj AS (
  SELECT a.nk AS src, b2.nk AS dst FROM bgn a JOIN bgn b2
  ON a.root = b2.root
   AND ((a.y = b2.y AND abs(a.x - b2.x) = 1)
     OR (a.x = b2.x AND abs(a.y - b2.y) = 1))
),
breach AS (
  SELECT nk, nk AS lbl FROM bgn
  UNION
  SELECT a.src AS nk, r.lbl FROM badj a JOIN breach r ON a.dst = r.nk
),
bcc AS (SELECT nk, MIN(lbl) AS blbl FROM breach GROUP BY nk),
regions AS (
  SELECT n.root, c.blbl, COUNT(*) AS n_cells,
         BOOL_OR(n.on_frame) AS touches_frame
  FROM bgn n JOIN bcc c ON n.nk = c.nk
  GROUP BY n.root, c.blbl
),
holes AS (
  SELECT root, COUNT(*) AS n_holes, SUM(n_cells) AS cav_px
  FROM regions WHERE NOT touches_frame GROUP BY root
)"""


def sql_polygon_components(grid: GridConfig = DEFAULT_GRID) -> str:
    """Oracle for per-component polygonize output (comp_id, class_id,
    n_pixels): 4-connected equal-class components of ``fg`` via a
    recursive min-label propagation, renumbered in the engine's
    deterministic order (tile-row-major first tile, then row-major first
    pixel within it — the stitch's sorted (tkey, llab) root order)."""
    return _sql_comp_chain(grid) + """
SELECT CAST(DENSE_RANK() OVER (ORDER BY mk) - 1 AS BIGINT) AS comp_id,
       CAST(cls AS BIGINT) AS class_id,
       CAST(npx AS BIGINT) AS n_pixels
FROM cst"""


def sql_polygon_rings(grid: GridConfig = DEFAULT_GRID) -> str:
    """Oracle for per-component RING structure (comp_id, class_id,
    n_pixels, n_rings, n_holes, area_px_int).

    Holes of a 4-connected pixel component are exactly its enclosed
    4-connected background cavities (consistent with the tracer's
    interior-on-left + sharpest-right-turn pairing — a diagonal-pinch
    cavity still counts as a hole).  Outer-ring area = pixels + cavity
    cells."""
    return _sql_comp_chain(grid) + _sql_cavity_ctes() + """
SELECT CAST(DENSE_RANK() OVER (ORDER BY mk) - 1 AS BIGINT) AS comp_id,
       CAST(cls AS BIGINT) AS class_id,
       CAST(npx AS BIGINT) AS n_pixels,
       CAST(1 + COALESCE(h.n_holes, 0) AS BIGINT) AS n_rings,
       CAST(COALESCE(h.n_holes, 0) AS BIGINT) AS n_holes,
       CAST(npx + COALESCE(h.cav_px, 0) AS BIGINT) AS area_px_int
FROM cst LEFT JOIN holes h ON cst.root = h.root"""


def sql_coco_annotations(grid: GridConfig = DEFAULT_GRID) -> str:
    """Oracle for the COCO annotation table (id, category_id, area,
    iscrowd): annotation ids are the dense comp_id order, area is the
    outer-ring pixel area (geo->px roundtrip is exact because the grid
    affine uses power-of-two pixel size), iscrowd constant 0."""
    return _sql_comp_chain(grid) + _sql_cavity_ctes() + """
SELECT CAST(DENSE_RANK() OVER (ORDER BY mk) - 1 AS BIGINT) AS id,
       CAST(cls AS BIGINT) AS category_id,
       CAST(npx + COALESCE(h.cav_px, 0) AS DOUBLE) AS area,
       CAST(0 AS BIGINT) AS iscrowd
FROM cst LEFT JOIN holes h ON cst.root = h.root"""


def sql_yolo(grid: GridConfig = DEFAULT_GRID) -> str:
    """Oracle for the YOLO export (class_id, x, y, w, h): bbox corners
    come from the component's pixel extents (ring vertex max = pixel
    max + 1), normalized with the engine's exact float expression
    order.  The clip/overlap filter never fires for in-grid masks
    (clip == identity, fraction 1 >= 0.66), so every component with a
    nonzero outer ring emits one row."""
    w, h = float(grid.width), float(grid.height)
    return _sql_comp_chain(grid) + f"""
SELECT CAST(cst.cls AS BIGINT) AS class_id,
       (CAST(bb.minx AS DOUBLE) + (bb.maxx + 1)) / 2.0 / {w!r} AS x,
       (CAST(bb.miny AS DOUBLE) + (bb.maxy + 1)) / 2.0 / {h!r} AS y,
       (CAST(bb.maxx + 1 AS DOUBLE) - bb.minx) / {w!r} AS w,
       (CAST(bb.maxy + 1 AS DOUBLE) - bb.miny) / {h!r} AS h
FROM cst JOIN bb ON cst.root = bb.root"""


def sql_polygons(grid: GridConfig = DEFAULT_GRID) -> str:
    """Oracle for the ring-row polygonize output (comp_id, class_id,
    ring_idx, is_hole, n_pixels).

    The vectorized tracer enumerates rings by first boundary edge in
    row-major order, so ring 0 is always the outer ring (the topmost-
    leftmost pixel's top edge is the first edge) and rings 1..k are the
    holes — the row set is fully determined by the per-component ring
    count from the cavity CTEs."""
    return _sql_comp_chain(grid) + _sql_cavity_ctes() + """,
ranked AS (
  SELECT DENSE_RANK() OVER (ORDER BY mk) - 1 AS comp_id,
         cst.cls, cst.npx,
         1 + COALESCE(h.n_holes, 0) AS nr
  FROM cst LEFT JOIN holes h ON cst.root = h.root
),
expanded AS (
  SELECT comp_id, cls, npx,
         unnest(generate_series(0, nr - 1)) AS ring_idx
  FROM ranked
)
SELECT CAST(comp_id AS BIGINT) AS comp_id,
       CAST(cls AS BIGINT) AS class_id,
       CAST(ring_idx AS BIGINT) AS ring_idx,
       ring_idx <> 0 AS is_hole,
       CAST(npx AS BIGINT) AS n_pixels
FROM expanded"""
