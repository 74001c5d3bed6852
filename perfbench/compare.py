#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or summarize one.

    python3 perfbench/compare.py BASE_DIR [NEW_DIR]

Each directory holds the run reports ``perfbench/run.py`` writes
(``<workload>-seed<N>-trace<T>-<pid>.json``).  For every workload and
end-to-end metric of ``BENCHMARK.json`` this prints each side's median
and quartiles over its untraced runs, and the change of the medians.  A
row is marked ``unresolved`` when either side's spread (quartile distance
over median) exceeds the metric's bound: the runs cannot tell a change of
that size from noise.  Otherwise a change worse than the bound is marked
``REGRESSION``.  Where a directory also holds traced runs of a workload,
the tracing overhead (traced over untraced median) is printed as well.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(run_dir: str) -> dict[tuple[str, int], list[dict]]:
    """(workload, trace) -> reports."""
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(glob.glob(os.path.join(run_dir, "*-trace[01]-*.json"))):
        with open(path) as f:
            rep = json.load(f)
        runs.setdefault((rep["workload"], int(rep["trace"])), []).append(rep)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def _cell(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:12.4g} [{q1:.4g}, {q3:.4g}]"


def _count(runs: list[dict]) -> str:
    return f"{len(runs)} ({sum(r['host']['degraded'] for r in runs)} degraded)"


def compare(base: dict, new: dict | None, metrics: list[dict]) -> list[str]:
    lines = []
    workloads = sorted({w for w, _ in base} | ({w for w, _ in new} if new else set()))
    for w in workloads:
        a = base.get((w, 0), [])
        b = new.get((w, 0), []) if new else []
        lines.append(f"== {w}  runs: base {_count(a)}" + (f", new {_count(b)}" if new else ""))
        for m in metrics:
            name, bound, better = m["name"], m["bound"], m["better"]
            va = [r["e2e"][name] for r in a]
            vb = [r["e2e"][name] for r in b]
            row = f"  {name:28s} base {_cell(va) if va else '-':>32s}"
            if new and va and vb:
                delta = statistics.median(vb) / statistics.median(va) - 1
                worse = -delta if better == "higher" else delta
                if max(spread(va), spread(vb)) > bound:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "REGRESSION"
                else:
                    verdict = "within bound" if worse >= -bound else "improved"
                row += f"  new {_cell(vb):>32s}  {delta:+8.2%}  {verdict}"
            lines.append(row)
        for side, runs in (("base", base), ("new", new or {})):
            untraced, traced = runs.get((w, 0), []), runs.get((w, 1), [])
            if untraced and traced:
                over = {
                    m["name"]: statistics.median(r["e2e"][m["name"]] for r in traced)
                    / statistics.median(r["e2e"][m["name"]] for r in untraced) - 1
                    for m in metrics
                }
                lines.append(f"  tracing overhead ({side}): "
                             + ", ".join(f"{k} {v:+.1%}" for k, v in over.items()))
    return lines


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base = load(argv[0])
    new = load(argv[1]) if len(argv) == 2 else None
    if not base or (new is not None and not new):
        print("no run reports found", file=sys.stderr)
        return 1
    print("\n".join(compare(base, new, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
