"""Session CPU count + per-process parquet spill scratch.

``cluster_cpus`` is the Ray session's CPU count.  Every ``map_batches``
stage in the package runs as a Ray task: a stage that needs a broadcast
reads its ``ray.put`` ref inside the task, and a stage built from
constants is constructed once on the driver and travels inside the
task function.  The one actor pool left is the rasterio window reader
(``ReadWindows`` in ``sources.RasterSource``): each actor holds an open
dataset handle, which a task would reopen per batch.

``spill_dir`` replaces ad-hoc ``tempfile.mkdtemp(dir="/tmp")`` scratch:
spills live under ``<tmp>/geo_inference_ray_spill/pid<NNN>/``, the whole
per-process tree is removed at interpreter exit, and dirs left behind by
dead processes (crashed runs) are swept on first use — so repeated
bench/compare runs no longer grow /tmp without bound.
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile


def cluster_cpus() -> int:
    """CPU count of the current Ray session; 0 when no session is
    running.  The one place that asks Ray for it: hash-partition
    floors and the pages read's block count scale with it."""
    import ray

    if not ray.is_initialized():
        return 0
    return int(ray.cluster_resources().get("CPU", 0))


_SPILL_ROOTS: dict[str, str] = {}
_SPILL_SEQ = 0


def _sweep_dead(base: str) -> None:
    """Remove pid-tagged spill trees whose owning process is gone."""
    try:
        names = os.listdir(base)
    except OSError:
        return
    for name in names:
        if not name.startswith("pid"):
            continue
        try:
            pid = int(name[3:])
        except ValueError:
            continue
        if pid == os.getpid():
            continue
        try:
            os.kill(pid, 0)  # liveness probe only
        except ProcessLookupError:
            shutil.rmtree(os.path.join(base, name), ignore_errors=True)
        except PermissionError:
            pass  # alive under another user — leave it


def spill_dir(tag: str, work_dir: str | None = None) -> str:
    """Fresh scratch dir for a parquet spill, auto-removed at process
    exit (atexit on the per-pid tree) and swept if this process dies
    without running atexit (next process' dead-pid sweep)."""
    global _SPILL_SEQ

    base = os.path.join(work_dir or tempfile.gettempdir(),
                        "geo_inference_ray_spill")
    root = _SPILL_ROOTS.get(base)
    if root is None:
        os.makedirs(base, exist_ok=True)
        _sweep_dead(base)
        root = os.path.join(base, f"pid{os.getpid()}")
        os.makedirs(root, exist_ok=True)
        atexit.register(shutil.rmtree, root, ignore_errors=True)
        _SPILL_ROOTS[base] = root
    _SPILL_SEQ += 1
    d = os.path.join(root, f"{tag}_{_SPILL_SEQ:04d}")
    os.makedirs(d)
    return d
