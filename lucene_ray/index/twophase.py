"""Two-phase commit: prepareCommit / commit / rollback.

Reference: lucene/core/src/java/org/apache/lucene/index/IndexWriter.java
(``prepareCommit()`` / ``commit()`` / ``rollback()``) and
``SegmentInfos.java`` (``prepareCommit`` writes ``pending_segments_N``,
``finishCommit`` renames it to ``segments_N``).  The analogue here:

- ``prepare_commit(index_dir, mutate)`` stages the output of the same
  mutation ``manifest.commit`` would publish as
  ``pending-manifest-{gen}.json`` — segment directories referenced by it
  may already exist on shared storage, but readers only list committed
  generations so nothing is visible yet.  Only ONE commit may be in
  flight (a second prepare raises, like the reference's "prepareCommit
  was already called with no corresponding call to commit").
- ``commit_pending`` publishes the staged manifest through
  ``manifest.commit``.  A commit that another writer superseded (the
  latest generation is no longer the one it was prepared on) raises
  ValueError; a writer that publishes the same generation concurrently
  makes the exclusive publish raise FileExistsError.  Either way the
  pending file stays for ``rollback_pending``.  The publish IS the
  durability point; the pending file is removed after it.
- ``rollback_pending`` discards the pending manifest and physically
  removes every artifact it referenced that no COMMITTED generation
  references — the IndexFileDeleter decref sweep on rollback.

External transaction coordinators get the standard contract: after
``prepare_commit`` returns, ``commit_pending`` cannot fail for lack of
durability (the pending bytes are already on the store); crashing
between the two leaves a pending file a recovering coordinator can
either commit or roll back.
"""

from __future__ import annotations

import os

from .. import store
from . import manifest as mf
from .deletion_policy import _referenced, _rm_file, _sweep


def pending_path(index_dir: str, gen: int) -> str:
    return os.path.join(index_dir, f"pending-manifest-{gen:06d}.json")


def pending_generation(index_dir: str) -> int | None:
    """Generation of the in-flight pending commit, if any."""
    gens = mf.generations(index_dir, prefix="pending-manifest-")
    return gens[-1] if gens else None


def prepare_commit(index_dir: str, mutate) -> dict | None:
    """Stage ``mutate(base, gen)`` (see ``manifest.commit``) as the
    pending next commit point; returns the staged manifest, or None when
    the mutation is a no-op."""
    inflight = pending_generation(index_dir)
    if inflight is not None:
        raise RuntimeError(
            f"prepareCommit already called (pending generation {inflight}) "
            "with no corresponding commit/rollback"
        )
    _base, man = mf.next_manifest(index_dir, mutate)
    if man is not None:
        path = pending_path(index_dir, man["generation"])
        store.write_json_atomic(path, man, default=mf._json_default)
    return man


def commit_pending(index_dir: str, gen: int | None = None) -> dict:
    """Publish the pending manifest as the new commit point (finishCommit).
    Returns the committed manifest."""
    if gen is None:
        gen = pending_generation(index_dir)
        if gen is None:
            raise RuntimeError("commit called with no pending commit")
    path = pending_path(index_dir, gen)
    pending = store.read_json(path)

    def mutate(_base, next_gen):
        if next_gen != int(pending["generation"]):
            raise ValueError(
                f"generation {pending['generation']} was superseded by "
                f"{next_gen - 1}; roll back and re-prepare"
            )
        return pending

    man = mf.commit(index_dir, mutate)
    _rm_file(path)
    return man


def rollback_pending(index_dir: str, gen: int | None = None) -> dict:
    """Discard the pending commit and remove every artifact only it
    referenced (segment dirs, docs fragments, livedocs, dv sidecars).
    Returns a summary dict."""
    if gen is None:
        gen = pending_generation(index_dir)
        if gen is None:
            return {"rolled_back": None, "removed_dirs": 0, "removed_files": 0}
    path = pending_path(index_dir, gen)
    n_dirs, n_files = _sweep(
        index_dir, _referenced(store.read_json(path)), mf.generations(index_dir)
    )
    _rm_file(path)
    return {
        "rolled_back": gen,
        "removed_dirs": n_dirs,
        "removed_files": n_files,
    }
