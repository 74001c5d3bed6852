"""IndexWriter.addIndexes(Directory...) analogue: import another index's
segments wholesale — no re-analysis, no merge.

Reference: lucene/core/src/java/org/apache/lucene/index/IndexWriter.java
``addIndexes(Directory... dirs)`` — each incoming segment is copied into
the destination, registered in the next commit with a rebased doc base,
and keeps its own deletes; the writer validates index compatibility but
never re-inverts documents.  (The ``addIndexes(CodecReader...)`` variant
that re-writes through a merge is covered by this repo's merge path.)

Ray shape: segment copies are independent tasks (one per incoming
segment, metadata + byte copy only), then ONE driver-side manifest commit
appends the rebased entries — the natural bulk-ingest path for promoting
per-shard indexes into one searchable index at scale.
"""

from __future__ import annotations

import os

import pyarrow as pa

from .. import store
from . import manifest as mf

_COMPAT_KEYS = ("analyzer", "index_options", "term_vectors")


def _copy_flat_dir(src: str, dst: str, last: str | None = "meta.json") -> None:
    """Copy a flat artifact dir through the store seam; ``last`` (if
    present) is written after everything else — the same
    publish-manifest-last commit protocol the build uses."""
    store.makedirs(dst)
    names = sorted(store.listdir(src))
    tail = [n for n in names if n == last]
    for n in [n for n in names if n != last] + tail:
        p = os.path.join(src, n)
        if store.isdir(p):
            _copy_flat_dir(p, os.path.join(dst, n), last=None)
        else:
            store.write_bytes_atomic(os.path.join(dst, n), store.read_bytes(p))


def add_indexes(
    dest_index_dir: str, src_index_dirs: list[str] | tuple[str, ...]
) -> dict:
    """Append every segment of each source index to the destination and
    commit one new manifest generation.  Sources are left untouched;
    incoming livedocs (deletes) carry over.  Raises ValueError when the
    indexes are incompatible (different analyzer / index options / term
    vectors — IndexWriter's codec-compatibility check analogue)."""
    return mf.commit(
        dest_index_dir,
        lambda man, gen: _import(dest_index_dir, man, gen, src_index_dirs),
    )


def _import(dest_index_dir: str, dest_man: dict, gen: int, src_index_dirs) -> dict | None:
    import ray.data as rd

    plans = []
    doc_base = sum(int(s["max_doc"]) for s in dest_man["segments"])
    for src_idx in src_index_dirs:
        src_man = mf.read_manifest(src_idx)
        for key in _COMPAT_KEYS:
            if src_man.get(key) != dest_man.get(key):
                raise ValueError(
                    f"incompatible {key}: {src_man.get(key)!r} != {dest_man.get(key)!r}"
                )
        for seg in src_man["segments"]:
            name = f"seg_g{gen:04d}_addidx_{len(plans):03d}"
            src_docs = seg.get("docs_dir", "")
            plans.append(
                {
                    "src_dir": seg["dir"],
                    "src_docs": src_docs if src_docs and store.isdir(src_docs) else "",
                    "src_livedocs": seg.get("livedocs", ""),
                    "dst_dir": os.path.join(dest_index_dir, name),
                    "dst_docs": os.path.join(dest_index_dir, "docs", name),
                    "dst_livedocs": (
                        os.path.join(
                            dest_index_dir, "livedocs", f"{name}-imported-g{gen}.npy"
                        )
                        if seg.get("livedocs")
                        else ""
                    ),
                    "doc_base": doc_base,
                    "del_count": int(seg.get("del_count", 0)),
                }
            )
            doc_base += int(seg["max_doc"])
    if not plans:
        return None

    def _copy(batch: pa.Table) -> pa.Table:
        for p in batch.to_pylist():
            _copy_flat_dir(p["src_dir"], p["dst_dir"])
            if p["src_docs"]:
                _copy_flat_dir(p["src_docs"], p["dst_docs"], last=None)
            if p["src_livedocs"]:
                store.write_bytes_atomic(
                    p["dst_livedocs"], store.read_bytes(p["src_livedocs"])
                )
        return batch.select(["dst_dir"])

    rd.from_items(plans).map_batches(
        _copy, batch_size=1, batch_format="pyarrow", num_cpus=1
    ).materialize()

    entries = []
    for p in plans:
        entry = mf.segment_entry(
            p["dst_dir"], p["doc_base"], p["dst_docs"] if p["src_docs"] else ""
        )
        entry["lineage"] = {**entry["lineage"], "imported_from": p["src_dir"]}
        if p["dst_livedocs"]:
            entry["livedocs"] = p["dst_livedocs"]
            entry["del_count"] = p["del_count"]
        entries.append(entry)
    return {**dest_man, "segments": list(dest_man["segments"]) + entries}
