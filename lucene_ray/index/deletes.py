"""Live-docs deletes: delete-by-query / delete-by-key without rebuilding.

Reference semantics (index/IndexWriter.java:1844 updateDocument /
deleteDocuments, codecs/lucene90/Lucene90LiveDocsFormat.java):

- a delete writes a new per-segment LIVE-DOCS bitmap under
  ``index_dir/livedocs/<segment>-g<gen>.npy`` and commits a new manifest
  generation referencing it — segments stay immutable, old generations
  keep working (point-in-time reads).
- search masks deleted docs at COLLECTION time; collection/term statistics
  keep counting deleted docs until a merge rewrites the segment (exactly
  the reference behavior — BM25 scores of surviving docs do not change
  when a neighbor is deleted).
- a merge EXPUNGES deletes: deleted rows are dropped, surviving docids are
  renumbered dense, and downstream doc_bases re-chain (the reference also
  renumbers on merge).
- matching goes through ``IndexSearcher.weigh`` (one rewrite + index-wide
  Weight per write), the same weight a search of that query uses.
- ``update_documents`` = delete-by-key + a fresh segment at the end of the
  manifest, committed as ONE generation.  The segment is flushed by the
  bulk builder (``build.FusedSegmentBuilder.build_one`` over the in-memory
  table, with the manifest's analyzer, index options, term vectors and
  index sort), so it is written exactly as ``build_index`` writes the same
  rows; ``add_documents`` is the append alone.
"""

from __future__ import annotations

import os

import numpy as np

from .. import store
from ..search.query import DocValuesTermsQuery
from . import manifest as mf



def load_dv_overlay(store, path):
    """Decode one numeric doc-values overlay sidecar (the npz with aligned
    ``docids``/``values`` arrays) — the ONE place the on-disk overlay
    format is read; segment.py, check.py and softdeletes.py all route
    through here."""
    import io

    z = np.load(io.BytesIO(store.read_bytes(path)))
    return np.asarray(z["docids"], np.int64), np.asarray(z["values"], np.int64)


def save_dv_overlay(store, path, docids, values) -> None:
    """Write one overlay sidecar (ascending ``docids``, aligned ``values``);
    the doc-values update and the merge both write through here."""
    import io

    buf = io.BytesIO()
    np.savez_compressed(buf, docids=docids, values=values)
    store.write_bytes_atomic(path, buf.getvalue())


def _matching_local_docids(reader, query, weight) -> np.ndarray:
    """All local docids matching ``query`` in one segment, deleted docs
    included (re-deleting is a no-op).  ``query`` is rewritten and
    ``weight`` is its index-wide Weight (``IndexSearcher.weigh``);
    matching is non-scoring."""
    from ..search.query import build_scorer
    from ..search.scorers import live_docids

    saved_live = reader.live
    reader.live = None  # match against ALL docs, deleted included
    try:
        return live_docids(build_scorer(query, weight, reader, 1.0, "COMPLETE_NO_SCORES"), None)
    finally:
        reader.live = saved_live


def delete_by_query(index_dir: str, query) -> dict:
    """Mark every doc matching ``query`` deleted; commit + return the new
    manifest.  Returns the unchanged manifest when nothing matches."""
    return mf.commit(index_dir, lambda man, gen: _delete(index_dir, man, gen, query))


def _delete(index_dir: str, man: dict, gen: int, query) -> dict | None:
    """``man`` with every doc matching ``query`` marked deleted in
    generation-``gen`` livedocs, or None when nothing new matched."""
    from ..search.searcher import IndexSearcher

    searcher = IndexSearcher(index_dir, generation=man["generation"])
    query, weight = searcher.weigh(query)
    live_dir = os.path.join(index_dir, "livedocs")
    entries = []
    total_deleted = 0
    for reader, seg in zip(searcher.readers, man["segments"]):
        hits = _matching_local_docids(reader, query, weight)
        live = (
            np.asarray(reader.live, dtype=bool).copy()
            if reader.live is not None
            else np.ones(reader.max_doc, dtype=bool)
        )
        before = int(live.sum())
        if len(hits):
            live[hits] = False
        newly = before - int(live.sum())
        entry = dict(seg)
        if newly:
            path = os.path.join(live_dir, f"{seg['name']}-g{gen:04d}.npy")
            store.np_save(path, live)
            entry["livedocs"] = path
            entry["del_count"] = int(reader.max_doc - live.sum())
        entries.append(entry)
        total_deleted += newly
    if total_deleted == 0:
        return None
    return {**man, "segments": entries}


def update_numeric_docvalue(index_dir: str, query, field: str, value: int) -> dict:
    """In-place numeric doc-values update WITHOUT reindexing (reference
    index/IndexWriter.java ``updateNumericDocValue(Term, field, value)``,
    generalized to any non-scoring query): every doc matching ``query``
    gets stored ``field`` = ``value`` in the NEXT manifest generation.

    Like the reference's DocValuesFieldUpdates, segments stay immutable:
    the update is a per-segment sidecar overlay (sorted docids + values
    npz under ``index_dir/dvu/``) referenced from the new generation;
    readers overlay it in ``stored_column`` and earlier generations keep
    serving the old values (point-in-time reads).  Repeated updates merge
    (newest wins), and merges carry the overlay through their doc map.
    The index-sort field cannot be updated (the reference IndexWriter
    refuses it too): a changed key would break the sort invariant that
    early termination relies on."""
    return mf.commit(
        index_dir, lambda man, gen: _dv_update(index_dir, man, gen, query, field, value)
    )


def _dv_update(index_dir: str, man: dict, gen: int, query, field: str, value: int):
    from ..search.searcher import IndexSearcher

    if field == (man.get("index_sort") or [None])[0]:
        raise ValueError(f"cannot update docvalues field {field!r} involved in the index sort")
    searcher = IndexSearcher(index_dir, generation=man["generation"])
    query, weight = searcher.weigh(query)
    dvu_dir = os.path.join(index_dir, "dvu")
    entries = []
    total = 0
    for reader, seg in zip(searcher.readers, man["segments"]):
        hits = _matching_local_docids(reader, query, weight)
        prev = seg.get("dv_updates", {}).get(field)
        entry = dict(seg)
        if len(hits) == 0:
            entries.append(entry)
            continue
        docids = hits
        values = np.full(len(hits), int(value), dtype=np.int64)
        if prev:
            pd_, pv = load_dv_overlay(store, prev)
            keep = ~np.isin(pd_, docids)  # newest wins
            docids = np.concatenate([pd_[keep], docids])
            values = np.concatenate([pv[keep], values])
            order = np.argsort(docids)
            docids, values = docids[order], values[order]
        path = os.path.join(dvu_dir, f"{seg['name']}-{field}-g{gen:04d}.npz")
        save_dv_overlay(store, path, docids, values)
        entry["dv_updates"] = {**seg.get("dv_updates", {}), field: path}
        entries.append(entry)
        total += len(hits)
    if total == 0:
        return None
    return {**man, "segments": entries}


def delete_by_key(index_dir: str, field: str, values: list[str]) -> dict:
    """Delete docs whose stored metadata ``field`` equals any of ``values``
    (the deleteDocuments(Term...) analogue over stored columns): one
    generation, one pass of one set query over the key values."""
    return delete_by_query(index_dir, DocValuesTermsQuery(field, tuple(values)))


def add_documents(
    index_dir: str,
    table,
    content_column: str = "text",
    meta_columns: tuple[str, ...] | None = None,
    two_phase: bool = False,
) -> dict:
    """Append one fresh segment holding ``table``'s rows at the end of the
    manifest (docids continue after the current last segment).  The
    analyzer and index options come from the manifest, so the new segment
    is scored consistently with the rest of the index.  ``two_phase``
    stages the generation (``twophase.prepare_commit``) instead of
    publishing it."""

    def mutate(man, gen):
        return _append(index_dir, man, gen, table, content_column, meta_columns)

    if two_phase:
        # IndexWriter.prepareCommit: the new segment is on storage but
        # invisible until twophase.commit_pending publishes the manifest
        from .twophase import prepare_commit

        return prepare_commit(index_dir, mutate)
    return mf.commit(index_dir, mutate)


def _append(index_dir: str, man: dict, gen: int, table, content_column, meta_columns) -> dict:
    """``man`` plus one generation-``gen`` segment holding ``table``'s rows,
    flushed by the bulk builder with the manifest's build settings."""
    from .build import FusedSegmentBuilder

    name = f"seg_g{gen:04d}_add"
    seg = {"name": name, "fragments": [[None, 0, len(table)]], "max_doc": len(table),
           "doc_base": sum(int(s["max_doc"]) for s in man["segments"]),
           "lineage": {"signature": f"add:g{gen}"}}
    cols = meta_columns or [c for c in table.column_names if c != content_column]
    FusedSegmentBuilder(
        index_dir, man.get("analyzer", "standard"), content_column,
        index_options=man.get("index_options") or "docs_freqs", meta_columns=list(cols),
        write_doc_tables=True, index_sort=man.get("index_sort"),
        term_vectors=bool(man.get("term_vectors")),
    ).build_one(seg, tables=[table])
    entry = mf.segment_entry(
        os.path.join(index_dir, name), seg["doc_base"], os.path.join(index_dir, "docs", name)
    )
    return {**man, "segments": [*man["segments"], entry]}


def update_documents(
    index_dir: str,
    key_field: str,
    table,
    content_column: str = "text",
) -> dict:
    """updateDocument analogue: ONE generation that deletes every doc whose
    ``key_field`` equals a row's key and appends the rows as a fresh
    segment (IndexWriter.updateDocuments) — no generation shows the old
    version deleted without the new one."""
    return mf.commit(
        index_dir,
        lambda man, gen: _update(index_dir, man, gen, key_field, table, content_column),
    )


def _update(index_dir, man, gen, key_field, table, content_column) -> dict:
    keys = DocValuesTermsQuery(key_field, tuple(table.column(key_field).to_pylist()))
    man = _delete(index_dir, man, gen, keys) or man
    return _append(index_dir, man, gen, table, content_column, None)


def clone_for_deletes(src_index: str, dst_index: str) -> str:
    """Manifest-level snapshot clone: copy only the manifest files into
    ``dst_index`` (segment entries hold absolute paths, so segment data is
    SHARED); subsequent deletes write livedocs + generations under the
    clone and never touch the source — the point-in-time-reader property
    at directory granularity."""
    store.makedirs(dst_index)
    for g in mf.generations(src_index):
        store.write_bytes_atomic(
            mf.manifest_path(dst_index, g),
            store.read_bytes(mf.manifest_path(src_index, g)),
        )
    return dst_index


def live_doc_count(manifest: dict) -> int:
    return sum(
        int(s["max_doc"]) - int(s.get("del_count", 0)) for s in manifest["segments"]
    )
