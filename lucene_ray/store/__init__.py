"""Directory seam: shared-storage IO for segments, manifests and sidecars.

Reference: lucene/core/src/java/org/apache/lucene/store/Directory.java:1
(abstract byte store) and MMapDirectory.java (the local mmap fast path).
Lucene separates "where index bytes live" from "how they are read"; this
module is the same seam for the Ray engine so a build running on one set of
nodes can publish segments to a SHARED prefix and search actors on other
nodes can serve them.

Path convention: a plain path (``/tmp/idx``) is LOCAL and takes the
zero-overhead fast path (np.load mmap, os.replace atomicity) — identical to
the pre-seam behavior.  A URL with a scheme (``file:///...``, ``s3://...``,
``memory://...``) is REMOTE and is routed through fsspec:

- writes: segment directories are BUILT in a local scratch dir and
  PUBLISHED with ``publish_dir`` — all files uploaded, ``meta.json`` LAST,
  so a reader (``segment_is_complete``/``localize_dir``) never sees a
  partial segment.  Object stores have no rename; meta-last + the
  manifest-written-last commit protocol (index/SegmentInfos.java two-phase
  commit analogue) give the same atomicity.
- reads: ``localize_dir`` syncs an immutable remote directory into a local
  read-through cache (keyed by URL hash) once per node, then everything
  downstream mmaps the cached files exactly like a local index.  Segments
  are immutable by construction, so the cache never invalidates; mutable
  names (manifest generations, livedocs) embed their generation in the
  filename and are therefore immutable per name too.

The local cache root is ``$LUCENE_RAY_CACHE_DIR`` (default
``/tmp/lucene_ray_cache``) — per-node scratch, safe to wipe.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import uuid
from contextlib import contextmanager

import numpy as np


def is_remote(path: str) -> bool:
    return "://" in str(path)


def _fs(path: str):
    """(fsspec filesystem, fs-native path) for a remote URL."""
    import fsspec

    fs, root = fsspec.core.url_to_fs(path)
    return fs, root


def cache_root() -> str:
    return os.environ.get("LUCENE_RAY_CACHE_DIR", "/tmp/lucene_ray_cache")


# --- plain file ops --------------------------------------------------------

def exists(path: str) -> bool:
    if not is_remote(path):
        return os.path.exists(path)
    fs, p = _fs(path)
    return fs.exists(p)


def isdir(path: str) -> bool:
    if not is_remote(path):
        return os.path.isdir(path)
    fs, p = _fs(path)
    return fs.isdir(p)


def listdir(path: str) -> list[str]:
    """Base names of entries in a directory (sorted)."""
    if not is_remote(path):
        return sorted(os.listdir(path))
    fs, p = _fs(path)
    return sorted(os.path.basename(e.rstrip("/")) for e in fs.ls(p, detail=False))


def makedirs(path: str) -> None:
    if not is_remote(path):
        os.makedirs(path, exist_ok=True)
    else:
        fs, p = _fs(path)
        fs.makedirs(p, exist_ok=True)


def rmtree(path: str) -> None:
    if not is_remote(path):
        shutil.rmtree(path, ignore_errors=True)
    else:
        fs, p = _fs(path)
        if fs.exists(p):
            fs.rm(p, recursive=True)


def glob_names(pattern: str) -> list[str]:
    """Base names matching a glob pattern (local or remote)."""
    if not is_remote(pattern):
        import glob as _glob

        return sorted(os.path.basename(p) for p in _glob.glob(pattern))
    fs, p = _fs(pattern)
    return sorted(os.path.basename(m) for m in fs.glob(p))


@contextmanager
def open_read(path: str):
    if not is_remote(path):
        with open(path, "rb") as f:
            yield f
    else:
        fs, p = _fs(path)
        with fs.open(p, "rb") as f:
            yield f


def read_bytes(path: str) -> bytes:
    with open_read(path) as f:
        return f.read()


def read_json(path: str) -> dict:
    return json.loads(read_bytes(path).decode("utf-8"))


def write_bytes_atomic(path: str, data: bytes) -> None:
    """Local: tmp + rename.  Remote: single put (object stores are
    all-or-nothing per object)."""
    if not is_remote(path):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    else:
        fs, p = _fs(path)
        parent = os.path.dirname(p)
        if parent:
            fs.makedirs(parent, exist_ok=True)
        fs.pipe_file(p, data)


def create_bytes(path: str, data: bytes) -> None:
    """Exclusive create: write ``data`` at ``path`` or raise
    FileExistsError when it exists.  Local: tmp + hard link (readers never
    see a partial file; ``link`` refuses an existing name).  Remote: an
    exclusive-create open."""
    if not is_remote(path):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
        with open(tmp, "wb") as f:
            f.write(data)
        try:
            os.link(tmp, path)
        finally:
            os.remove(tmp)
    else:
        fs, p = _fs(path)
        parent = os.path.dirname(p)
        if parent:
            fs.makedirs(parent, exist_ok=True)
        with fs.open(p, "xb") as f:
            f.write(data)


def write_json_atomic(path: str, obj: dict, default=None) -> None:
    write_bytes_atomic(path, json.dumps(obj, indent=1, default=default).encode("utf-8"))


# --- numpy / parquet helpers ------------------------------------------------

def np_load(path: str, mmap_mode: str | None = None) -> np.ndarray:
    """Local fast path mmaps in place; remote files are localized into the
    read-through cache first so mmap still works."""
    if not is_remote(path):
        return np.load(path, mmap_mode=mmap_mode)
    return np.load(localize_file(path), mmap_mode=mmap_mode)


def np_save(path: str, arr: np.ndarray) -> None:
    if not is_remote(path):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.save(path, arr)
        return
    buf = io.BytesIO()
    np.save(buf, arr)
    write_bytes_atomic(path, buf.getvalue())


def pq_read(path: str, columns: list[str] | None = None):
    import pyarrow.parquet as pq

    if not is_remote(path):
        return pq.read_table(path, columns=columns)
    with open_read(path) as f:
        return pq.read_table(f, columns=columns)


def pq_write(tbl, path: str) -> None:
    import pyarrow.parquet as pq

    if not is_remote(path):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        pq.write_table(tbl, path)
        return
    buf = io.BytesIO()
    pq.write_table(tbl, buf)
    write_bytes_atomic(path, buf.getvalue())


# --- directory protocol ------------------------------------------------------

def local_build_dir(dest_dir: str) -> str:
    """A LOCAL scratch dir to build ``dest_dir``'s contents in.  For a local
    dest this is the sibling ``<dest>.tmp-<token>`` (same filesystem, so the
    final os.replace is atomic); for a remote dest it lives under the cache
    root."""
    token = uuid.uuid4().hex[:8]
    if not is_remote(dest_dir):
        return f"{dest_dir}.tmp-{token}"
    d = os.path.join(cache_root(), "build", f"{_key(dest_dir)}-{token}")
    os.makedirs(d, exist_ok=True)
    return d


def publish_dir(local_tmp: str, dest_dir: str, last: str = "meta.json") -> None:
    """Atomically publish a locally-built directory to ``dest_dir``.

    Local dest: rmtree + os.replace (the original segment commit protocol).
    Remote dest: upload every file with ``last`` uploaded LAST — its
    presence is the completeness marker (segment_is_complete and
    localize_dir both key on it)."""
    if not is_remote(dest_dir):
        if os.path.exists(dest_dir):
            shutil.rmtree(dest_dir)
        os.makedirs(os.path.dirname(dest_dir) or ".", exist_ok=True)
        os.replace(local_tmp, dest_dir)
        return
    fs, droot = _fs(dest_dir)
    fs.makedirs(droot, exist_ok=True)
    names = sorted(os.listdir(local_tmp))
    tail = [n for n in names if n == last]
    for n in [n for n in names if n != last] + tail:
        src = os.path.join(local_tmp, n)
        if os.path.isdir(src):
            fs.put(src, f"{droot}/{n}", recursive=True)
        else:
            fs.put_file(src, f"{droot}/{n}")
    shutil.rmtree(local_tmp, ignore_errors=True)


def _key(url: str) -> str:
    h = hashlib.sha1(url.encode("utf-8")).hexdigest()[:16]
    base = os.path.basename(url.rstrip("/")) or "root"
    return f"{base}-{h}"


def _cache_size_bytes(root: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, f))
            except OSError:
                pass
    return total


def prune_cache(max_bytes: int | None = None) -> int:
    """Evict least-recently-USED localized dirs/files until the cache fits
    ``max_bytes`` (default: $LUCENE_RAY_CACHE_MAX_BYTES, off when unset).
    Recency = mtime of the ``.localized`` marker (touched on reuse), so a
    long-lived node serving a 100-TB index keeps its working set and sheds
    segments it no longer reads.  Returns bytes freed."""
    if max_bytes is None:
        env = os.environ.get("LUCENE_RAY_CACHE_MAX_BYTES")
        if not env:
            return 0
        max_bytes = int(env)
    root = cache_root()
    entries: list[tuple[float, str, int]] = []  # (atime, path, bytes)
    for sub, marker in (("dirs", ".localized"), ("files", None)):
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for name in os.listdir(base):
            p = os.path.join(base, name)
            try:
                stamp = os.path.join(p, marker) if marker else p
                t = os.path.getmtime(stamp)
                size = _cache_size_bytes(p) if marker else os.path.getsize(p)
            except OSError:
                continue
            entries.append((t, p, size))
    total = sum(s for _, _, s in entries)
    freed = 0
    for _t, p, size in sorted(entries):
        if total - freed <= max_bytes:
            break
        shutil.rmtree(p, ignore_errors=True)
        if os.path.exists(p):
            try:
                os.remove(p)
            except OSError:
                pass
        freed += size
    return freed


def localize_dir(path: str) -> str:
    """Read-through cache for an IMMUTABLE remote directory: returns a local
    path holding a synced copy (downloaded once per node).  Local paths are
    returned unchanged (zero overhead).  Concurrency-safe: downloads land in
    a unique tmp dir and are renamed in; a lost rename race reuses the
    winner's copy."""
    if not is_remote(path):
        return path
    dst = os.path.join(cache_root(), "dirs", _key(path))
    marker = os.path.join(dst, ".localized")
    if os.path.exists(marker):
        os.utime(marker)  # recency stamp for prune_cache's LRU
        return dst
    fs, root = _fs(path)
    tmp = f"{dst}.tmp-{uuid.uuid4().hex[:8]}"
    os.makedirs(tmp, exist_ok=True)
    try:
        # trailing-slash source = copy CONTENTS of the dir
        fs.get(root.rstrip("/") + "/", tmp + "/", recursive=True)
        with open(os.path.join(tmp, ".localized"), "w") as f:
            f.write(path)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        prune_cache()  # no-op unless LUCENE_RAY_CACHE_MAX_BYTES is set
        try:
            os.rename(tmp, dst)
        except OSError:
            if not os.path.exists(os.path.join(dst, ".localized")):
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return dst


def localize_file(path: str) -> str:
    """Read-through cache for one immutable remote file."""
    if not is_remote(path):
        return path
    dst = os.path.join(cache_root(), "files", _key(path))
    if os.path.exists(dst):
        return dst
    fs, root = _fs(path)
    os.makedirs(os.path.dirname(dst), exist_ok=True)
    tmp = f"{dst}.tmp-{uuid.uuid4().hex[:8]}"
    fs.get_file(root, tmp)
    try:
        os.rename(tmp, dst)
    except OSError:
        if not os.path.exists(dst):
            raise
        os.remove(tmp)
    return dst
