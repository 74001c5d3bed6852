"""One launcher for rowless fan-out: one plain Ray task per call.

Build, merge, addIndexes copies, the per-segment point / shape / vector
trees and CheckIndex each run one independent task per segment that reads
and writes its own files; no rows flow between the tasks.  Ray Data's
streaming executor only adds start-up cost there, so it stays where rows
stream (parquet reads, per-row maps, aggregates).
"""

from __future__ import annotations


def run_tasks(fn, calls, num_cpus: float = 1, **kwargs) -> list:
    """Run ``fn(*args, **kwargs)`` for every ``args`` tuple in ``calls``,
    one Ray task each holding ``num_cpus``, and return the results in
    input order.  Tasks are submitted in input order, so put the longest
    first.  ``fn`` is wrapped with ``ray.remote`` here, not where it is
    defined, so a module-level function reaches the workers by reference.
    A task whose worker dies is retried (Ray's default ``max_retries``).
    An empty ``calls`` returns ``[]`` without touching Ray."""
    if not calls:
        return []
    import ray

    task = ray.remote(num_cpus=num_cpus)(fn)
    return ray.get([task.remote(*args, **kwargs) for args in calls])
