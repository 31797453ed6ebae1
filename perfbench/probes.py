"""Measurement probes: process-tree CPU, main-process peak RSS, calibration,
and the in-memory tracer used by ``--trace 1`` runs.

The tracer records spans (name, start, end, parent, job id) around calls
into the package's public functions, from the benchmark's own files, and
captures Ray Data's per-operator stats for every dataset execution that
finishes while a span is open.  Nothing is written until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time

import numpy as np

_CLK = os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------------
# /proc readers
# ---------------------------------------------------------------------------

def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:  # the process ended between listing and reading
        return None
    # comm (field 2) may hold spaces; everything after its ')' is fixed
    return raw[raw.rindex(")") + 2:].split()


def process_tree(root: int | None = None) -> list[int]:
    """``root`` (default: this process) and all its live descendants."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        f = _stat_fields(int(name))
        if f is not None:
            children.setdefault(int(f[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def _tree_ticks(root: int) -> dict[int, int]:
    """CPU ticks per process of the tree: user+sys, plus what each has
    reaped from its own ended children (stat fields 14-17)."""
    out = {}
    for pid in process_tree(root):
        f = _stat_fields(pid)
        if f is not None:
            out[pid] = sum(int(x) for x in f[11:15])
    return out


class TreeCpu:
    """user+sys CPU seconds of this process tree (this process, GCS, raylet,
    workers) over a ``with`` block.

    The tree is sampled every ``period_s`` and a process keeps the CPU
    it was last seen with after it ends: Ray's raylet does not wait()
    for the idle workers it kills, so their time reaches no parent's
    counters, and a before/after difference would lose it (or go
    negative)."""

    def __init__(self, period_s: float = 0.25):
        self.period_s = period_s
        self.cpu_s = 0.0

    def __enter__(self):
        self._root = os.getpid()
        self._base = _tree_ticks(self._root)
        self._last = dict(self._base)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self) -> None:
        while not self._stop.wait(self.period_s):
            self._last.update(_tree_ticks(self._root))

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._last.update(_tree_ticks(self._root))
        ticks = sum(t - self._base.get(p, 0) for p, t in self._last.items())
        self.cpu_s = ticks / _CLK
        return False


def process_start_epoch() -> float:
    """Wall-clock time this process started (from /proc, 10 ms ticks)."""
    with open("/proc/stat") as f:
        btime = next(int(line.split()[1]) for line in f
                     if line.startswith("btime"))
    return btime + int(_stat_fields(os.getpid())[19]) / _CLK


def reset_peak_rss() -> None:
    """Reset the kernel's peak-RSS mark of this process (Linux >= 4.0)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def nproc() -> int:
    """What coreutils ``nproc`` prints: OMP_NUM_THREADS when set, else the
    CPUs this process may run on."""
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0].strip()
    if omp.isdigit() and int(omp) > 0:
        return int(omp)
    return len(os.sched_getaffinity(0))


def calibration_kernel_s(repeats: int = 5) -> float:
    """Median time of a fixed numpy kernel (matmul + sort), a yardstick
    for how fast this box is right now."""
    rng = np.random.default_rng(0)
    a = rng.random((192, 192))
    v = rng.random(400_000)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(8):
            a = a @ a
            a /= np.abs(a).max()
        np.sort(v)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def _op_rows(summary, seen: set) -> list[dict]:
    """Per-operator rows of one finished execution: walk the stats
    summary and its parents, skipping operators already recorded (a
    materialized input carries its producer's stats along)."""
    rows = []
    todo = [summary]
    while todo:
        s = todo.pop()
        todo.extend(s.parents or [])
        for op in s.operators_stats:
            key = (op.operator_name, op.earliest_start_time)
            if op.wall_time is None or key in seen:
                continue
            seen.add(key)
            rows.append({
                "op": op.operator_name,
                "wall_s": float(op.wall_time["sum"]),
                "cpu_s": float(op.cpu_time["sum"]),
                "udf_s": float(op.udf_time["sum"]),
                "rows": int(op.output_num_rows["sum"])
                if op.output_num_rows else 0,
                "rows_max": int(op.output_num_rows["max"])
                if op.output_num_rows else 0,
                "rows_mean": float(op.output_num_rows["mean"])
                if op.output_num_rows else 0.0,
                "bytes": int(op.output_size_bytes["sum"])
                if op.output_size_bytes else 0,
                "tasks": int(op.task_rows["count"]) if op.task_rows else 0,
            })
    return rows


class Tracer:
    """Spans and Ray Data operator rows of traced jobs, kept in memory.

    ``span(name)`` is a context manager; spans nest, and each finished
    Ray Data execution is filed under the innermost open span.  Install
    the execution hook with ``hook_ray_data()`` (only traced runs do:
    it wraps Ray's executor shutdown, where the final stats are built).
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.ops: list[dict] = []
        self.exec_jobs: list = []  # the job of each finished execution
        self._stack: list[int] = []
        self._job = None
        self._seen: set = set()
        self._unhook = None

    # -- spans -------------------------------------------------------------
    @contextlib.contextmanager
    def job(self, job_id: str):
        self._job = job_id
        try:
            with self.span("job") as s:
                yield s
        finally:
            self._job = None

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "job": self._job,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str):
        """Replace ``owner.attr`` with a span-recording wrapper; returns
        an undo callable."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*a, **kw):
            with self.span(name):
                return fn(*a, **kw)

        setattr(owner, attr, traced)
        return lambda: setattr(owner, attr, fn)

    # -- Ray Data executions -------------------------------------------------
    def hook_ray_data(self) -> None:
        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor,
        )

        orig = StreamingExecutor.shutdown
        tracer = self

        def shutdown(ex, *a, **kw):
            first = not ex._shutdown
            orig(ex, *a, **kw)
            stats = getattr(ex, "_final_stats", None)
            if first and stats is not None:
                tracer._record_execution(stats.to_summary())

        StreamingExecutor.shutdown = shutdown
        self._unhook = lambda: setattr(StreamingExecutor, "shutdown", orig)

    def unhook(self) -> None:
        if self._unhook is not None:
            self._unhook()
            self._unhook = None

    def _record_execution(self, summary) -> None:
        span = self._stack[-1] if self._stack else None
        self.exec_jobs.append(self._job)
        for row in _op_rows(summary, self._seen):
            row.update(span=span, job=self._job, exec=len(self.exec_jobs))
            self.ops.append(row)

    # -- queries -------------------------------------------------------------
    def duration(self, name: str, job: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and s["job"] == job)

    def ops_under(self, name: str, job: str) -> list[dict]:
        """Operator rows recorded inside any span called ``name``
        (directly or in a child span) of ``job``."""
        ids = {i for i, s in enumerate(self.spans)
               if s["name"] == name and s["job"] == job}
        out = []
        for row in self.ops:
            i = row["span"]
            while i is not None and i not in ids:
                i = self.spans[i]["parent"]
            if i is not None:
                out.append(row)
        return out

    def self_time(self, name: str, job: str) -> float:
        """Duration of the ``name`` spans minus their direct children."""
        total = 0.0
        for i, s in enumerate(self.spans):
            if s["name"] != name or s["job"] != job:
                continue
            kids = sum(c["end"] - c["start"] for c in self.spans
                       if c["parent"] == i)
            total += s["end"] - s["start"] - kids
        return total

    def ray_data_metrics(self, job: str) -> dict[str, float]:
        """Totals over every Ray Data execution of ``job``; overhead is
        the job's wall time not spent inside an operator's remote work."""
        ops = [r for r in self.ops if r["job"] == job]
        return {
            "ray_data.tasks": sum(r["tasks"] for r in ops),
            "ray_data.executions": self.exec_jobs.count(job),
            "ray_data.remote_cpu_s": sum(r["cpu_s"] for r in ops),
            "ray_data.overhead_s": (self.duration("job", job)
                                    - sum(r["wall_s"] for r in ops)),
        }

    def dump(self) -> dict:
        return {"spans": self.spans, "ops": self.ops,
                "executions": self.exec_jobs}
