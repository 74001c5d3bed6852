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
- ``update_documents`` = delete-by-key + append a fresh segment at the
  end of the manifest, committed as ONE generation.
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


def _matching_local_docids(reader, query) -> np.ndarray:
    """All local docids matching ``query`` in one segment (COMPLETE walk,
    ignores the current live mask — re-deleting is a no-op)."""
    from ..search.query import build_scorer
    from ..search.scorers import NO_MORE_DOCS

    # a throwaway weight with stats from this segment alone is fine:
    # matching is non-scoring
    from ..search.bm25 import CollectionStatistics, TermStatistics
    from ..search.query import Weight, collect_terms

    stats = reader.collection_partials()
    cs = CollectionStatistics(
        max_doc=reader.max_doc,
        doc_count=stats["doc_count"],
        sum_total_term_freq=stats["sum_total_term_freq"],
        sum_doc_freq=stats["sum_doc_freq"],
    )
    tstats = {}
    for t in collect_terms(query):
        df, ttf = reader.term_stats(t)
        tstats[t] = TermStatistics(t, max(df, 1), max(ttf, 1))
    weight = Weight(collection_stats=cs, term_stats=tstats)
    saved_live = reader.live
    reader.live = None  # match against ALL docs, deleted included
    try:
        scorer = build_scorer(query, weight, reader, 1.0, "COMPLETE_NO_SCORES", False)
        if scorer is None:
            return np.empty(0, dtype=np.int64)
        out = []
        doc = scorer.advance(0)
        while doc != NO_MORE_DOCS:
            out.append(doc)
            doc = scorer.next_doc()
        return np.asarray(out, dtype=np.int64)
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
    live_dir = os.path.join(index_dir, "livedocs")
    entries = []
    total_deleted = 0
    for reader, seg in zip(searcher.readers, man["segments"]):
        hits = _matching_local_docids(reader, query)
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
    (newest wins)."""
    return mf.commit(
        index_dir, lambda man, gen: _dv_update(index_dir, man, gen, query, field, value)
    )


def _dv_update(index_dir: str, man: dict, gen: int, query, field: str, value: int):
    import io

    from ..search.searcher import IndexSearcher

    searcher = IndexSearcher(index_dir, generation=man["generation"])
    dvu_dir = os.path.join(index_dir, "dvu")
    entries = []
    total = 0
    for reader, seg in zip(searcher.readers, man["segments"]):
        hits = _matching_local_docids(reader, query)
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
        buf = io.BytesIO()
        np.savez_compressed(buf, docids=docids, values=values)
        path = os.path.join(dvu_dir, f"{seg['name']}-{field}-g{gen:04d}.npz")
        store.write_bytes_atomic(path, buf.getvalue())
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
    """``man`` plus one generation-``gen`` segment holding ``table``'s rows."""
    import pyarrow as pa

    from ..analysis.analyzers import make_analyzer
    from ..smallfloat import int_to_byte4_array
    from .segment import build_segment_from_ids

    analyzer = make_analyzer(man.get("analyzer", "standard"))
    with_off = bool(man.get("index_options") == "offsets") or any(
        store.exists(os.path.join(s["dir"], "off_start.npy"))
        for s in man["segments"][:1]
    )
    with_pos = with_off or bool(man.get("index_options") == "positions") or any(
        store.exists(os.path.join(s["dir"], "pos_data.npy"))
        for s in man["segments"][:1]
    )
    with_pay = bool(man.get("index_options") == "payloads") or any(
        store.exists(os.path.join(s["dir"], "pay_data.npy"))
        for s in man["segments"][:1]
    )
    with_pos = with_pos or with_pay
    with_tv = bool(man.get("term_vectors")) or any(
        store.exists(os.path.join(s["dir"], "tv_row_start.npy"))
        for s in man["segments"][:1]
    )
    texts = table.column(content_column).to_pylist()
    presorted = False
    offsets = None
    payloads = None
    if with_pos:
        from .build import _gather_row_slices

        if with_off or with_pay:
            (
                vocab, tids, docs, tfs, lengths, pos, off_s, off_e,
            ) = analyzer.analyze_batch_offsets(texts)
        else:
            vocab, tids, docs, tfs, lengths, pos = analyzer.analyze_batch_positions(texts)
        tids = np.asarray(tids, dtype=np.int64)
        docs = np.asarray(docs, dtype=np.int64)
        tfs = np.asarray(tfs, dtype=np.int64)
        if len(tids):
            order = np.lexsort((docs, tids))
            pos = _gather_row_slices(np.asarray(pos), tfs, order)
            if with_off:
                offsets = (
                    _gather_row_slices(np.asarray(off_s), tfs, order),
                    _gather_row_slices(np.asarray(off_e), tfs, order),
                )
            if with_pay:
                payloads = _gather_row_slices(np.asarray(off_s), tfs, order)
            tids, docs, tfs = tids[order], docs[order], tfs[order]
        else:
            if with_off:
                offsets = (np.empty(0, np.int64), np.empty(0, np.int64))
            if with_pay:
                payloads = np.empty(0, np.int64)
        presorted = True
    else:
        vocab, tids, docs, tfs, lengths = analyzer.analyze_batch(texts)
        pos = None
    norms = int_to_byte4_array(np.asarray(lengths, dtype=np.int64)).astype(np.uint8)
    doc_base = sum(int(s["max_doc"]) for s in man["segments"])
    name = f"seg_g{gen:04d}_add"
    seg_dir = os.path.join(index_dir, name)
    meta = {
        "name": name,
        "max_doc": len(texts),
        "doc_base": doc_base,
        "lineage": {"signature": f"add:g{gen}"},
    }
    build_segment_from_ids(
        pa.array(vocab, type=pa.large_string()),
        np.asarray(tids, dtype=np.int64),
        np.asarray(docs, dtype=np.int32),
        np.asarray(tfs, dtype=np.int32),
        norms,
        None,
        seg_dir,
        meta,
        presorted=presorted,
        positions=pos,
        offsets=offsets,
        payloads=payloads,
        term_vectors=with_tv,
    )
    # stored fields beside the other segments' tables
    cols = list(meta_columns or [c for c in table.column_names if c != content_column])
    docs_dir = os.path.join(index_dir, "docs", name)
    import hashlib

    stored = table.select(cols) if cols else table.select([])
    stored = stored.add_column(
        0, "docid", pa.array(np.arange(len(texts), dtype=np.int32))
    )
    shas = [
        hashlib.sha256((t or "").encode("utf-8")).hexdigest() for t in texts
    ]
    stored = stored.append_column("sha256", pa.array(shas))
    store.pq_write(stored, os.path.join(docs_dir, "rg_000000.parquet"))

    return {
        **man,
        "segments": list(man["segments"]) + [mf.segment_entry(seg_dir, doc_base, docs_dir)],
    }


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
