"""Host health and memory of one run.

``health_probe`` mirrors ``bench.py:_host_health_probe`` at a smaller
size: shared VMs have windows where first-touch page faults slow ~100x
or the hypervisor steals CPU (BASELINE.md host-variance study).  A run
in such a window is marked degraded in its report, not dropped.

``RssSampler`` samples the summed resident set of the driver and its Ray
worker processes from ``/proc``.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

FRESH_ALLOC_FLOOR_GBPS = 1.0  # bench.py _HEALTH_FLOOR_GBPS
STEAL_CEIL_PCT = 5.0  # bench.py _degraded


def cpu_ticks() -> list[int] | None:
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return None


def steal_pct(before: list[int] | None, after: list[int] | None) -> float | None:
    if not before or not after or len(before) < 8:
        return None
    d = [a - b for a, b in zip(after, before)]
    return 100.0 * d[7] / sum(d) if sum(d) else 0.0


def health_probe(alloc_mb: int = 64) -> dict:
    """Fresh-allocation bandwidth and a fixed compute spin with the CPU
    steal share over it."""
    n = alloc_mb * 1024 * 1024 // 8
    t0 = time.perf_counter()
    a = np.zeros(n)
    a[:: 4096 // 8] = 1.0  # touch every page
    dt = time.perf_counter() - t0
    del a
    out = {"fresh_alloc_gbps": n * 8 / dt / 1e9}
    before = cpu_ticks()
    b = np.ones(1_000_000)
    t0 = time.perf_counter()
    for _ in range(20):
        np.multiply(b, 1.000001, out=b)
    out["cpu_spin_ms"] = (time.perf_counter() - t0) * 1e3
    out["steal_pct"] = steal_pct(before, cpu_ticks())
    return out


def _spin() -> float:
    t0 = time.perf_counter()
    sum(i * i for i in range(40_000))
    return time.perf_counter() - t0


class CorePicker:
    """Keeps the driver and every process it started on one core: the one
    of the allowed cores on which a fixed loop runs fastest.

    On a shared VM each vCPU's speed follows its co-tenants' load and can
    stay halved for tens of seconds.  Between timed operations ``repick``
    probes every allowed core (a few ms each) and moves the whole process
    tree, every thread, to the fastest one."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cpu = None
        self.moves = 0

    def fastest(self) -> int:
        speed = {}
        for c in self.cpus:
            os.sched_setaffinity(0, {c})
            speed[c] = _spin()
        return min(self.cpus, key=speed.__getitem__)

    def repick(self) -> None:
        cpu = self.fastest() if len(self.cpus) > 1 else self.cpus[0]
        if cpu != self.cpu:
            self.moves += self.cpu is not None
        self.cpu = cpu
        for pid in [os.getpid()] + descendants():
            try:
                tids = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for tid in tids:
                try:
                    os.sched_setaffinity(int(tid), {cpu})
                except OSError:
                    pass  # the thread ended


def degraded(pre: dict, post: dict, run_steal: float | None) -> bool:
    return (
        min(pre["fresh_alloc_gbps"], post["fresh_alloc_gbps"]) < FRESH_ALLOC_FLOOR_GBPS
        or (run_steal or 0.0) > STEAL_CEIL_PCT
    )


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(d))
    return kids


def descendants() -> list[int]:
    kids = _children()
    out, todo = [], list(kids.get(os.getpid(), ()))
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(kids.get(pid, ()))
    return out


def ray_worker_pids() -> list[int]:
    """Descendants of this process whose command line is a Ray worker."""
    out = []
    for pid in descendants():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
        except OSError:
            continue
        if cmd.startswith(b"ray::") or b"default_worker.py" in cmd:
            out.append(pid)
    return out


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return 0


class RssSampler:
    """Peak of the summed RSS of the driver and the Ray workers, sampled
    every ``interval`` seconds while running and not paused.  The worker
    list is refreshed every second (workers start lazily)."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.peak = 0
        self.paused = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="rss-sampler", daemon=True)

    def _run(self) -> None:
        pids: list[int] = []
        refreshed = 0.0
        while not self._stop.is_set():
            if not self.paused:
                now = time.monotonic()
                if now - refreshed > 1.0:
                    pids, refreshed = [os.getpid()] + ray_worker_pids(), now
                self.peak = max(self.peak, sum(_rss_bytes(p) for p in pids))
            self._stop.wait(self.interval)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    @property
    def peak_mb(self) -> float:
        return self.peak / (1024 * 1024)

