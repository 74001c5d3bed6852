"""Commit-point deletion policy: garbage-collect old generations.

Reference: lucene/core/src/java/org/apache/lucene/index/
``IndexDeletionPolicy.java`` + ``KeepOnlyLastCommitDeletionPolicy.java``
(and IndexFileDeleter, which physically removes files no surviving
commit references).  Our commit points are manifest generations; each
references immutable segment dirs plus per-generation livedocs / dv
sidecars.  ``prune_generations`` keeps the newest N commit points,
deletes the older manifests, then removes every artifact (segment dir,
docs fragment dir, livedocs file, dv-update file) referenced by NO
surviving generation — the IndexFileDeleter refcount sweep in one pass.

Point-in-time readers of pruned generations break, exactly like the
reference when a deletion policy releases their commit."""

from __future__ import annotations

import os

from .. import store
from . import manifest as mf


def _referenced(*mans: dict) -> tuple[set, set]:
    """(dirs, files) the manifests reference."""
    dirs, files = set(), set()
    for seg in (seg for man in mans for seg in man["segments"]):
        dirs.add(seg["dir"].rstrip("/"))
        if seg.get("docs_dir"):
            dirs.add(seg["docs_dir"].rstrip("/"))
        if seg.get("livedocs"):
            files.add(seg["livedocs"])
        for p in (seg.get("dv_updates") or {}).values():
            files.add(p)
    return dirs, files


def _sweep(index_dir: str, dead: tuple[set, set], keep_gens) -> tuple[int, int]:
    """Remove the ``dead`` (dirs, files) that no generation in
    ``keep_gens`` references — the IndexFileDeleter refcount sweep.
    Returns how many dirs and files were candidates."""
    keep_dirs, keep_files = _referenced(
        *(mf.read_manifest(index_dir, g) for g in keep_gens)
    )
    dead_dirs, dead_files = dead[0] - keep_dirs, dead[1] - keep_files
    for p in sorted(dead_files):
        if store.exists(p):
            store.rmtree(p) if store.isdir(p) else _rm_file(p)
    for p in sorted(dead_dirs):
        if store.exists(p):
            store.rmtree(p)
    return len(dead_dirs), len(dead_files)


def _snapshots_path(index_dir: str) -> str:
    return os.path.join(index_dir, "snapshots.json")


def _read_snapshots(index_dir: str) -> dict:
    p = _snapshots_path(index_dir)
    if not store.exists(p):
        return {}
    return {int(k): int(v) for k, v in store.read_json(p).items()}


def snapshot(index_dir: str, gen: int | None = None) -> int:
    """SnapshotDeletionPolicy.snapshot() analogue (reference
    index/SnapshotDeletionPolicy.java): pin a commit point so
    ``prune_generations`` never deletes it (backup / replication hold).
    Refcounted per generation, persisted in ``snapshots.json`` (the
    PersistentSnapshotDeletionPolicy behavior — snapshots survive process
    restarts).  Returns the pinned generation."""
    if gen is None:
        gen = mf.latest_generation(index_dir)
        if gen is None:
            raise FileNotFoundError(f"no commit point in {index_dir}")
    if not store.exists(mf.manifest_path(index_dir, gen)):
        raise ValueError(f"generation {gen} is not a live commit point")
    snaps = _read_snapshots(index_dir)
    snaps[gen] = snaps.get(gen, 0) + 1
    store.write_json_atomic(_snapshots_path(index_dir), snaps)
    return gen


def release_snapshot(index_dir: str, gen: int) -> None:
    """SnapshotDeletionPolicy.release(): drop one reference; the commit
    becomes prunable when its refcount reaches zero."""
    snaps = _read_snapshots(index_dir)
    if snaps.get(gen, 0) <= 0:
        raise ValueError(f"generation {gen} is not snapshotted")
    snaps[gen] -= 1
    if snaps[gen] == 0:
        del snaps[gen]
    store.write_json_atomic(_snapshots_path(index_dir), snaps)


def prune_generations(index_dir: str, keep_last: int = 1) -> dict:
    """Delete all but the newest ``keep_last`` manifest generations and
    every artifact only they referenced; snapshotted generations
    (``snapshot()``) are always kept, exactly like the reference's
    SnapshotDeletionPolicy wrapping KeepOnlyLastCommit.  Returns a
    summary dict."""
    if keep_last < 1:
        raise ValueError("keep_last must be >= 1")
    gens = mf.generations(index_dir)
    keep = set(gens[-keep_last:]) | {
        g for g in _read_snapshots(index_dir) if g in set(gens)
    }
    drop = [g for g in gens if g not in keep]

    n_dirs, n_files = _sweep(
        index_dir, _referenced(*(mf.read_manifest(index_dir, g) for g in drop)), keep
    )
    for g in drop:
        _rm_file(mf.manifest_path(index_dir, g))
    return {
        "kept_generations": sorted(keep),
        "dropped_generations": drop,
        "removed_dirs": n_dirs,
        "removed_files": n_files,
    }


def _rm_file(path: str) -> None:
    if store.is_remote(path):
        fs, p = store._fs(path)
        fs.rm(p)
    else:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
