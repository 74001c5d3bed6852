#!/usr/bin/env python3
"""Run one benchmark workload once and print its result.

    python3 perfbench/run.py --workload ingest|query|nrt --seed N \\
        --seconds S --trace 0|1 [--out DIR]

Run from the repository root.  Ray gets one CPU (``num_cpus=1``) and the
whole process tree is pinned to one core.  The last line of standard
output is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when ``--trace 0`` and the per-layer metrics
when ``--trace 1``.  The line before it is the full report (workload-specific
metrics, host health, sample counts); the report is also written to
``DIR/<workload>-seed<N>-trace<T>-<pid>.json`` (default
``perfbench/out``), and a traced run writes its spans and per-layer
summary to the directory named in the report.  Scratch data (corpora,
indexes, the Ray session) lives in ``.perfbench/`` under the root and is
removed at exit.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
RAY_SOCKET_MAX = 107  # AF_UNIX path limit Ray checks its socket paths against
RAY_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_4194304/sockets/plasma_store.1")
DEADLINE_S = 170  # a run must end within 180 s


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["ingest", "query", "nrt"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", default=os.path.join(HERE, "out"))
    ap.add_argument("--max-ops", type=int, default=None,
                    help="stop after this many timed operations instead of --seconds")
    return ap.parse_args(argv)


def _deadline(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S}s")


def _ray_init(trace_dir: str | None) -> None:
    import ray

    tmp = os.path.join(WORK, "ray")
    if len(tmp) + RAY_SOCKET_SUFFIX > RAY_SOCKET_MAX:
        tmp = None  # socket paths would be too long: Ray's default temp dir
    runtime_env = {}
    if trace_dir:
        runtime_env["worker_process_setup_hook"] = "perfbench.trace.worker_setup"
    ray.init(
        address="local",
        num_cpus=1,
        include_dashboard=False,
        object_store_memory=256 * 1024 * 1024,
        _temp_dir=tmp,
        logging_level=logging.ERROR,
        log_to_driver=False,
        runtime_env=runtime_env or None,
    )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    for name in ("ray", "ray.data"):
        logging.getLogger(name).setLevel(logging.ERROR)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "lucene_ray")):
        print(f"perfbench: no lucene_ray package under {ROOT}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)

    # one thread per numeric library, one core for the driver and every
    # process it starts; scratch files and worker imports stay in the checkout
    os.environ.update(
        PYTHONPATH=ROOT,
        OMP_NUM_THREADS="1",
        TMPDIR=os.path.join(WORK, "tmp"),
        LUCENE_RAY_CACHE_DIR=os.path.join(WORK, "cache"),
    )
    sys.path.insert(0, ROOT)
    from perfbench import host, trace, workloads

    cores = host.CorePicker()
    cores.repick()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(os.path.join(WORK, "tmp"))
    os.makedirs(args.out, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    trace_dir = os.path.join(args.out, stem + "-spans") if args.trace else None
    if trace_dir:
        os.environ[trace.TRACE_DIR_ENV] = trace_dir

    import ray

    pre = host.health_probe()
    ticks0 = host.cpu_ticks()
    _ray_init(trace_dir)
    try:
        tracer = trace.start_driver(trace_dir) if trace_dir else trace.NullTracer()
        with host.RssSampler() as sampler:
            ctx = workloads.Context(
                args.seed, args.seconds, os.path.join(WORK, "data"), tracer, sampler, cores,
                args.max_ops,
            )
            os.makedirs(ctx.work_dir)
            result = workloads.WORKLOADS[args.workload](ctx)
        if trace_dir:
            tracer.close()
    finally:
        ray.shutdown()
    run_steal = host.steal_pct(ticks0, host.cpu_ticks())
    post = host.health_probe()
    signal.alarm(0)

    e2e = dict(result["e2e"], peak_rss_mb=sampler.peak_mb)
    failed_op_ratio = ctx.failed / max(ctx.ops, 1)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "attempted": ctx.ops,
        "failed": ctx.failed,
        "failed_op_ratio": failed_op_ratio,
        "errors": ctx.errors,
        "timed_s": ctx.timed,
        "e2e": {k: e2e[k] for k in workloads.E2E},
        "detail": dict(result["detail"], setup_s=e2e["setup_s"], peak_rss_mb=e2e["peak_rss_mb"],
                       failed_op_ratio=failed_op_ratio),
        "digest": result["digest"],
        "host": {
            "cpus": cores.cpus,
            "core_moves": cores.moves,
            "pre": pre,
            "post": post,
            "run_steal_pct": run_steal,
            "degraded": host.degraded(pre, post, run_steal),
        },
    }
    if trace_dir:
        summary = trace.summarize(trace_dir, result.get("layer_extra", {}))
        report["trace_summary"] = {
            "dir": trace_dir,
            "traced_wall_s": summary["traced_wall_s"],
            "self_s_by_layer": summary["self_s_by_layer"],
        }
        metrics = {
            name: {"value": summary["per_layer"][name], "unit": unit}
            for name, unit in trace.PER_LAYER_METRICS
        }
    else:
        metrics = {
            name: {"value": e2e[name], "unit": unit} for name, unit in workloads.E2E.items()
        }
    with open(os.path.join(args.out, stem + ".json"), "w") as f:
        json.dump(report, f, indent=1)
    shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": ctx.failed == 0,
        "attempted": ctx.ops,
        "failed": ctx.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
