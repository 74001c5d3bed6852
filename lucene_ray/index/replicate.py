"""Index replication: revision snapshots + incremental replica sync.

Reference: lucene/replicator — the primary publishes the commit point's
file set with per-file metadata (length + checksum,
replicator/nrt/CopyState.java, FileMetaData.java); a replica copies only
files it does not already hold bit-identically, publishes the commit
point LAST, then deletes local files the new commit no longer references
(replicator/nrt/ReplicaNode.java, ReplicaFileDeleter.java).

Our commit point is a manifest generation; segment/docs dirs are
immutable once committed (tmp-dir + atomic rename), so file identity is
(relative path, length, crc32).  ``sync`` is therefore incremental: after
a merge, only the new merged segments and the new manifest ship; replica
search results are bit-identical to the primary's.

Scale note: on a real cluster ``sync`` is one Ray task per replica (the
file set rides object-store-free via shared storage or rsync-style copy);
revisions are tiny (per-file metadata only), so a 256-node fan-out
broadcasts a single revision dict via ray.put.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib

from .manifest import manifest_path, read_manifest

_PATH_FIELDS = ("dir", "docs_dir", "livedocs")


def _crc32(path: str) -> int:
    crc = 0
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            crc = zlib.crc32(chunk, crc)
    return crc


def _referenced_dirs(index_dir: str, man: dict) -> list[str]:
    out = []
    for seg in man["segments"]:
        for field in ("dir", "docs_dir"):
            d = seg.get(field)
            if d and os.path.isdir(d):
                out.append(d)
    return out


def revision(index_dir: str) -> dict:
    """CopyState analogue: the current generation + its referenced file
    set with (length, crc32) per file, paths relative to the index dir."""
    man = read_manifest(index_dir)
    files: dict[str, dict] = {}

    def add(path: str) -> None:
        rel = os.path.relpath(path, index_dir)
        files[rel] = {"length": os.path.getsize(path), "checksum": _crc32(path)}

    for d in _referenced_dirs(index_dir, man):
        for root, _dirs, names in os.walk(d):
            for n in sorted(names):
                add(os.path.join(root, n))
    for seg in man["segments"]:
        # per-commit files outside the segment dirs: the live-docs bitset
        # and the doc-values update overlays (soft deletes included)
        for path in [seg.get("livedocs"), *(seg.get("dv_updates") or {}).values()]:
            if path and os.path.exists(path):
                add(path)
    # the commit point itself ships LAST in sync()
    gen = man["generation"]
    add(manifest_path(index_dir, gen))
    return {"generation": gen, "manifest": os.path.basename(manifest_path(index_dir, gen)), "files": files}


def sync(src_index_dir: str, dst_index_dir: str) -> dict:
    """Incremental replica sync: copy files of the primary's current
    revision that the replica lacks (or holds with a different
    length/crc32), publish the manifest last (path fields rewritten to
    the replica root), then delete unreferenced replica files.

    Returns {"generation", "copied", "skipped", "deleted"}."""
    rev = revision(src_index_dir)
    os.makedirs(dst_index_dir, exist_ok=True)
    copied = skipped = 0
    manifest_rel = rev["manifest"]
    for rel, meta in rev["files"].items():
        if rel == manifest_rel:
            continue
        dst = os.path.join(dst_index_dir, rel)
        if (
            os.path.exists(dst)
            and os.path.getsize(dst) == meta["length"]
            and _crc32(dst) == meta["checksum"]
        ):
            skipped += 1
            continue
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        tmp = dst + ".tmp-copy"
        shutil.copyfile(os.path.join(src_index_dir, rel), tmp)
        os.replace(tmp, dst)
        copied += 1

    # publish the commit point: manifest with path fields rebased onto the
    # replica root (manifests store absolute paths)
    man = read_manifest(src_index_dir)
    src_abs = os.path.abspath(src_index_dir)
    dst_abs = os.path.abspath(dst_index_dir)

    def rebase(p: str) -> str:
        return os.path.join(dst_abs, os.path.relpath(os.path.abspath(p), src_abs))

    for seg in man["segments"]:
        for field in _PATH_FIELDS:
            if seg.get(field):
                seg[field] = rebase(seg[field])
        if seg.get("dv_updates"):
            seg["dv_updates"] = {f: rebase(p) for f, p in seg["dv_updates"].items()}
    dst_manifest = os.path.join(dst_index_dir, manifest_rel)
    tmp = dst_manifest + ".tmp-copy"
    with open(tmp, "w") as f:
        json.dump(man, f, indent=1)
    os.replace(tmp, dst_manifest)

    # ReplicaFileDeleter: drop replica files the new commit doesn't reference
    deleted = 0
    keep = set(rev["files"])
    for root, _dirs, names in os.walk(dst_index_dir, topdown=False):
        for n in names:
            full = os.path.join(root, n)
            rel = os.path.relpath(full, dst_index_dir)
            if rel not in keep:
                os.remove(full)
                deleted += 1
        if not os.listdir(root) and os.path.abspath(root) != dst_abs:
            os.rmdir(root)
    return {
        "generation": rev["generation"],
        "copied": copied,
        "skipped": skipped,
        "deleted": deleted,
    }
