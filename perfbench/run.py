"""geo_inference_ray benchmark: one workload, one fresh local Ray session.

    python3 perfbench/run.py --workload pip_join --seed 1 --seconds 8 --trace 0

Runs from any working directory; the package is taken from the checkout
that holds this file, and everything the run writes (inputs, references,
job outputs, reports, Ray's session files) stays under ``.perfbench/`` and
``.rt/`` at the root of that checkout.

A run:

1. builds the seeded input and its reference (cached; never timed);
2. starts a local Ray session with ``num_cpus = nproc`` SETUP_CYCLES
   times (the last one stays up), then runs the workload once on its
   tiny input; ``setup_s`` is the import time plus the median session
   start plus that warm-up;
3. runs jobs back to back for ``--seconds`` (at least MIN_JOBS), each
   checked against the reference;
4. with ``--trace 1``, runs one traced job (spans around the layers'
   public calls, Ray Data per-operator stats) and the other workloads'
   tiny traced jobs for the layers this workload does not reach.

``--workload`` takes any workload of ``workloads.WORKLOADS``;
BENCHMARK.json benches pip_join and flagship_chain, and the other two
reach the benchmark only as trace companions.

The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}`` with the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``).  The line before it holds the calibration block,
the input layout and the raw samples; a traced run also writes its spans
and operator rows to ``.perfbench/reports/``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)

SETUP_CYCLES = 3
MIN_JOBS = 1
MAX_JOBS = 60
OBJECT_STORE_BYTES = 768 * 1024 * 1024
# AF_UNIX paths are capped at 107 bytes; Ray adds ~64 below its temp dir
RAY_TEMP_MAX_LEN = 40

END_TO_END = {"job_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "ray_data.tasks": "count",
    "ray_data.executions": "count",
    "ray_data.remote_cpu_s": "s",
    "ray_data.overhead_s": "s",
    "synth.pages_s": "s",
    "stages.extract_s": "s",
    "stages.geocode_s": "s",
    "stages.cells_s": "s",
    "stages.pip_s": "s",
    "stages.rows_in": "count",
    "stages.rows_joined": "count",
    "shuffle.key_counts_s": "s",
    "shuffle.salted_keys": "count",
    "shuffle.salt_ratio": "ratio",
    "knn.sort_s": "s",
    "knn.kernel_s": "s",
    "knn.partition_skew": "ratio",
    "knn.rows_out": "count",
    "checkpoint.run_single_pass_s": "s",
    "checkpoint.bytes_written": "bytes",
    "tiling.pixel_counts_s": "s",
    "tiling.partial_rows": "count",
    "tiling.suffix_s": "s",
    "tiling.tiles": "count",
    "pipeline.self_s": "s",
    "polygonize.distributed_s": "s",
    "polygonize.components": "count",
    "polygonize.border_rows": "count",
    "polygonize.rings": "count",
    "annotations.to_yolo_s": "s",
    "annotations.to_coco_s": "s",
    "trace.overhead_ratio": "ratio",
}


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input size; 'tiny' is for the self-test")
    return p.parse_args(argv)


def prepare_environment() -> dict:
    """Point the package import, temp files and Ray's session directory
    at the checkout.  Workers start from the raylet's environment, so
    PYTHONPATH (not just sys.path) must carry the checkout root."""
    state = os.path.join(ROOT, ".perfbench")
    dirs = {k: os.path.join(state, k)
            for k in ("cache", "work", "tmp", "reports")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    dirs["ray"] = os.path.join(ROOT, ".rt")
    if len(dirs["ray"]) > RAY_TEMP_MAX_LEN:
        dirs["ray"] = tempfile.mkdtemp(prefix="pb-ray-", dir="/tmp")
        dirs["ray_owned"] = dirs["ray"]
        log(f"checkout path too long for Ray's sockets; session files in "
            f"{dirs['ray']} (removed at exit)")
    sys.path[:0] = [ROOT, PERF_DIR]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                  if p])
    os.environ["TMPDIR"] = dirs["tmp"]
    tempfile.tempdir = None  # re-read TMPDIR on next use
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    return dirs


class Session:
    """One local Ray session at a time; ``stop`` waits until every
    process the session started has ended."""

    def __init__(self, ray_dir: str, num_cpus: int):
        self.ray_dir = ray_dir
        self.num_cpus = num_cpus
        self.live = False

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        self.live = True  # a start cut short is still stopped
        ray.init(address="local", num_cpus=self.num_cpus,
                 include_dashboard=False, logging_level="ERROR",
                 object_store_memory=OBJECT_STORE_BYTES,
                 _temp_dir=self.ray_dir)
        DataContext.get_current().enable_progress_bars = False

    def stop(self, grace_s: float = 5.0) -> None:
        """Shut Ray down, then SIGKILL whatever of the session's process
        tree outlives ``grace_s``, and wait until all of it is gone."""
        import ray

        from probes import process_tree

        if not self.live:
            return
        started = [p for p in process_tree() if p != os.getpid()]
        ray.shutdown()
        self.live = False
        deadline = time.monotonic() + grace_s
        killed = False
        while True:
            _reap()
            alive = [p for p in started if _alive(p)]
            if not alive:
                return
            if not killed and time.monotonic() > deadline:
                log(f"killing {len(alive)} Ray processes still alive "
                    f"{grace_s:.0f} s after shutdown: {_cmdlines(alive)}")
                for p in alive:
                    _kill(p)
                killed = True
            time.sleep(0.05)


def _reap() -> None:
    try:
        while os.waitpid(-1, os.WNOHANG)[0] > 0:
            pass
    except ChildProcessError:
        pass


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def _cmdlines(pids) -> list[str]:
    out = []
    for p in pids:
        try:
            with open(f"/proc/{p}/cmdline", "rb") as f:
                out.append(f.read().replace(b"\0", b" ")[:80].decode())
        except OSError:
            pass
    return out


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _on_sigterm(signum, frame):
    """SIGTERM unwinds like an error, so ``finally`` stops the session."""
    raise SystemExit(128 + signum)


def median(xs):
    return float(statistics.median(xs))


def checked(w, run, job_id: str, result: dict) -> None:
    """Check the output of ``run(job_id)``; a wrong output or an
    exception counts as a failed operation."""
    from workloads import Mismatch

    result["attempted"] += 1
    try:
        w.check(run(job_id))
        return
    except Mismatch as e:
        log(f"{w.name} {job_id}: wrong output: {e}")
    except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
        log(f"{w.name} {job_id} raised:\n{traceback.format_exc()}")
    result["failed"] += 1


def run_jobs(w, seconds: float, result: dict) -> list[dict]:
    """Back-to-back checked jobs for ``seconds`` (at least MIN_JOBS).
    Every job is timed, failed or not: the failure shows in the count."""
    from probes import TreeCpu, peak_rss_mb, reset_peak_rss

    samples = []
    t_start = time.perf_counter()
    while len(samples) < MIN_JOBS or (
            time.perf_counter() - t_start < seconds
            and len(samples) < MAX_JOBS):
        w.before_job()
        reset_peak_rss()
        with TreeCpu() as cpu:
            t0 = time.perf_counter()
            checked(w, w.job, f"job{len(samples)}", result)
            t1 = time.perf_counter()
        samples.append({"job_s": t1 - t0, "cpu_s": cpu.cpu_s,
                        "peak_rss_mb": peak_rss_mb()})
    return samples


def traced_metrics(w, companions, job_s: float, result: dict,
                   reports_dir: str) -> dict:
    """One traced job of ``w``, then the companions' tiny traced jobs
    for the layers ``w`` does not reach (``w``'s own figures win)."""
    from probes import Tracer

    tracer = Tracer()
    tracer.hook_ray_data()
    metrics = {}
    try:
        for x, job_id in [(w, "trace")] + [(c, f"companion.{c.name}")
                                           for c in companions]:
            layer = {}

            def run(job_id, x=x, layer=layer):
                m, out = x.trace(tracer, job_id)
                layer.update(m)
                return out

            x.before_job()
            checked(x, run, job_id, result)
            for k, v in layer.items():
                metrics.setdefault(k, v)
            if x is w:
                metrics.update(tracer.ray_data_metrics(job_id))
                metrics["trace.overhead_ratio"] = (
                    tracer.duration("job", job_id) / job_s)
    finally:
        tracer.unhook()
    path = os.path.join(reports_dir,
                        f"trace-{w.name}-s{w.seed}-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump({"metrics": metrics, **tracer.dump()}, f)
    missing = sorted(set(PER_LAYER) - set(metrics))
    if missing:
        raise RuntimeError(f"trace did not measure {missing}")
    return {k: metrics[k] for k in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _on_sigterm)
    if not os.path.isfile(os.path.join(ROOT, "geo_inference_ray",
                                       "__init__.py")):
        log(f"no geo_inference_ray package in {ROOT}: run from a full "
            "checkout")
        return 2
    dirs = prepare_environment()

    import probes
    import ray  # noqa: F401 - imported here so setup_s counts the import
    import ray.data  # noqa: F401

    import geo_inference_ray.pipeline  # noqa: F401
    from workloads import WORKLOADS

    import_s = time.time() - probes.process_start_epoch()
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        return 2
    calibration = {"loadavg_before": os.getloadavg(),
                   "kernel_s": probes.calibration_kernel_s(),
                   "cpu_count": os.cpu_count(), "nproc": probes.nproc()}

    cls = WORKLOADS[args.workload]
    w = cls(dirs["cache"], dirs["work"], args.seed, args.scale)
    warm = cls(dirs["cache"], dirs["work"], args.seed, "tiny")
    companions = [c(dirs["cache"], dirs["work"], args.seed, "tiny")
                  for name, c in WORKLOADS.items()
                  if args.trace and name != args.workload]
    t0 = time.perf_counter()
    for x in [w, warm] + companions:
        x.prepare()
    log(f"inputs + references ready in {time.perf_counter() - t0:.1f} s")

    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    session = Session(dirs["ray"], probes.nproc())
    setup = []
    try:
        for cycle in range(SETUP_CYCLES):
            if cycle:
                session.stop()
            t0 = time.perf_counter()
            session.start()
            setup.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        warm.before_job()
        warm.job("warmup")
        warmup_s = time.perf_counter() - t0
        samples = run_jobs(w, args.seconds, result)
        job_s = median([s["job_s"] for s in samples])
        if args.trace:
            result["metrics"] = {
                k: {"value": v, "unit": PER_LAYER[k]} for k, v in
                traced_metrics(w, companions, job_s, result,
                               dirs["reports"]).items()}
        else:
            values = {"job_s": job_s,
                      "cpu_s": median([s["cpu_s"] for s in samples]),
                      "setup_s": import_s + median(setup) + warmup_s,
                      "peak_rss_mb": median([s["peak_rss_mb"]
                                             for s in samples])}
            result["metrics"] = {k: {"value": values[k], "unit": u}
                                 for k, u in END_TO_END.items()}
        result["correct"] = result["failed"] == 0
    finally:
        session.stop()
        for x in [w, warm] + companions:
            x.before_job()
        # Ray names a session directory after the pid of the process that
        # called ray.init
        for d in glob.glob(os.path.join(dirs["ray"],
                                        f"session_*_{os.getpid()}")):
            shutil.rmtree(d, ignore_errors=True)
        if "ray_owned" in dirs:
            shutil.rmtree(dirs["ray_owned"], ignore_errors=True)
    calibration["loadavg_after"] = os.getloadavg()
    print(json.dumps({"report": {
        "workload": w.name, "seed": args.seed, "scale": args.scale,
        "num_cpus": session.num_cpus, "input_layout": w.layout(),
        "calibration": calibration, "import_s": import_s,
        "session_start_s": setup, "warmup_s": warmup_s,
        "jobs": samples}}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
