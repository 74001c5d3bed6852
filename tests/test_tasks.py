"""``tasks.run_tasks``: one plain Ray task per call, results in input
order, a dead worker's task retried, an empty call list never touching
Ray."""

import os

import ray

from lucene_ray.tasks import run_tasks


def _square_once_dying(i: int, marker_dir: str) -> int:
    """Item 2's first attempt kills its worker process outright."""
    marker = os.path.join(marker_dir, "died")
    if i == 2 and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return i * i


def test_results_in_input_order_after_worker_exit(ray_session, tmp_path):
    """Item 2's worker exits on the first attempt: the task is retried and
    every result comes back in input order."""
    items = [5, 3, 2, 0, 4, 1]
    out = run_tasks(_square_once_dying, [(i,) for i in items], marker_dir=str(tmp_path))
    assert os.path.exists(tmp_path / "died")
    assert out == [i * i for i in items]


def test_empty_calls_skip_ray(monkeypatch):
    def boom(*_a, **_k):
        raise AssertionError("Ray touched for an empty call list")

    monkeypatch.setattr(ray, "remote", boom)
    monkeypatch.setattr(ray, "get", boom)
    assert run_tasks(_square_once_dying, []) == []
