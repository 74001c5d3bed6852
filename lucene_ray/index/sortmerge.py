"""Sorted-index force-merge: merging segments of an index-sorted index
re-sorts the merged docids by the sort key.

Reference: lucene/core/src/java/org/apache/lucene/index/Sorter.java (the
merge-time doc re-sort; MergeState.java builds the per-input DocMaps) —
concatenating sorted segments would break the index-sort invariant that
IndexSortSortedNumericDocValuesRangeQuery's binary search relies on, so
the reference (and this engine) re-derives a global permutation: stable
sort of the concatenated sort keys, ties by (segment ordinal, local
docid) — exactly the Sorter stability contract.

Unlike the streaming sectioned merge (``index/merge.py``, the unsorted
fast path), this path materializes the merged postings in RAM: the
permutation destroys docid monotonicity so every term's postings need a
full re-sort anyway, and TieredMergePolicy's max-segment-size bounds the
allocation in practice.  Deletes are expunged; supports docs_freqs and
positions indexes (offsets/payloads/term-vector sorted merges raise)."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .. import store
from . import manifest as mf
from .postings import decode_term
from .segment import SegmentReader, build_segment_from_ids


def _docs_table(seg: dict, seg_dir: str) -> pa.Table:
    inline = os.path.join(seg_dir, "docs.parquet")
    if store.exists(inline):
        return store.pq_read(inline)
    frag_dir = seg.get("docs_dir") or os.path.join(
        os.path.dirname(seg_dir.rstrip("/")), "docs", os.path.basename(seg_dir)
    )
    local = store.localize_dir(frag_dir)
    parts = [
        pq.read_table(os.path.join(local, f))
        for f in sorted(os.listdir(local))
        if f.endswith(".parquet")
    ]
    return pa.concat_tables(parts).sort_by("docid")


def force_merge_sorted(index_dir: str) -> dict:
    """Merge every segment of an index-sorted index into ONE segment whose
    docids ascend by the index sort; commits a new manifest generation."""
    return mf.commit(index_dir, lambda man, gen: _sorted_merge(index_dir, man, gen))


def _sorted_merge(index_dir: str, man: dict, gen: int) -> dict:
    sort = man.get("index_sort")
    if not sort:
        raise ValueError("index has no index_sort; use the sectioned force_merge")
    field, direction = sort
    if man.get("index_options") in ("offsets", "payloads") or man.get("term_vectors"):
        raise NotImplementedError("sorted merge supports docs_freqs/positions only")

    readers: list[SegmentReader] = []
    for seg in man["segments"]:
        r = SegmentReader(seg["dir"])
        lp = seg.get("livedocs")
        if lp:
            r.live = store.np_load(lp)
        readers.append(r)

    # global permutation: stable sort of concatenated keys (kept docs in
    # (segment ordinal, local docid) order — the Sorter tie-break)
    keys, kept_locals = [], []
    for r in readers:
        k = r.stored_column(field).to_numpy(zero_copy_only=False).astype(np.int64)
        live = (
            np.asarray(r.live, dtype=bool)
            if r.live is not None
            else np.ones(r.max_doc, dtype=bool)
        )
        loc = np.nonzero(live)[0]
        keys.append(k[loc])
        kept_locals.append(loc)
    all_keys = np.concatenate(keys) if keys else np.empty(0, np.int64)
    order = np.argsort(-all_keys if direction == "desc" else all_keys, kind="stable")
    return _merge_with_order(
        index_dir,
        man,
        readers,
        kept_locals,
        order,
        gen,
        name=f"seg_g{gen:04d}_sorted",
        signature=f"sortmerge:g{gen}",
        index_sort=[field, direction],
    )


def _merge_with_order(
    index_dir: str,
    man: dict,
    readers: list[SegmentReader],
    kept_locals: list[np.ndarray],
    order: np.ndarray,
    gen: int,
    name: str,
    signature: str,
    index_sort: list | None,
) -> dict:
    """Merge every segment into ONE whose new docid j holds concatenated
    kept doc ``order[j]`` — the Sorter/MergeState doc-map application
    shared by the key-sorted merge and the BP reorder (index/bp.py).
    Returns the manifest that replaces ``man``'s segments with it."""
    n_new = len(order)
    new_of_kept = np.empty(n_new, np.int64)
    new_of_kept[order] = np.arange(n_new, dtype=np.int64)
    kept_base = np.concatenate(([0], np.cumsum([len(x) for x in kept_locals])))
    loc2kept = []
    for i, (r, loc) in enumerate(zip(readers, kept_locals)):
        m = np.full(r.max_doc, -1, np.int64)
        m[loc] = kept_base[i] + np.arange(len(loc), dtype=np.int64)
        loc2kept.append(m)

    # merged vocabulary + per-reader tid -> merged-code maps
    dicts = [r.terms_array() for r in readers]
    union = pc.unique(pa.concat_arrays(dicts))
    vocab = union.take(pc.sort_indices(union))
    codes = [
        pc.index_in(d, vocab).to_numpy(zero_copy_only=False).astype(np.int64)
        for d in dicts
    ]

    has_pos = all(r.has_positions for r in readers)
    rows_t, rows_d, rows_f = [], [], []
    pos_rows: list[np.ndarray] = []
    for i, r in enumerate(readers):
        for tid in range(r.n_terms):
            docs, tfs = decode_term(r.enc, tid)
            kidx = loc2kept[i][docs]
            keep = kidx >= 0
            if not keep.any():
                continue
            rows_t.append(np.full(int(keep.sum()), codes[i][tid], np.int64))
            rows_d.append(new_of_kept[kidx[keep]])
            rows_f.append(tfs[keep].astype(np.int64))
            if has_pos:
                pls = r.term_positions(tid)
                pos_rows.extend(pls[j] for j in np.nonzero(keep)[0])
    t = np.concatenate(rows_t) if rows_t else np.empty(0, np.int64)
    d = np.concatenate(rows_d) if rows_d else np.empty(0, np.int64)
    f = np.concatenate(rows_f) if rows_f else np.empty(0, np.int64)

    # norms: permute the kept per-doc bytes into the new order
    norms_kept = np.concatenate(
        [np.asarray(r.norms)[loc] for r, loc in zip(readers, kept_locals)]
    ) if readers else np.empty(0, np.uint8)
    norms_new = np.empty(n_new, np.uint8)
    norms_new[new_of_kept] = norms_kept

    # stored fields: concat kept rows, permute, renumber docids dense
    tbls = []
    for seg, r, loc in zip(man["segments"], readers, kept_locals):
        tbl = _docs_table(seg, seg["dir"])
        tbls.append(tbl.take(pa.array(loc)))
    if tbls:
        cat = pa.concat_tables(tbls)
        cat = cat.take(pa.array(order))
        cat = cat.set_column(
            cat.schema.get_field_index("docid"),
            "docid",
            pa.array(np.arange(n_new, dtype=np.int32)),
        )
    else:
        cat = None

    seg_dir = os.path.join(index_dir, name)
    meta = {
        "name": name,
        "max_doc": n_new,
        "doc_base": 0,
        "lineage": {"signature": signature},
        "index_sort": index_sort,
    }
    presorted = False
    positions = None
    if has_pos and len(t):
        from .build import _gather_row_slices

        row_order = np.lexsort((d, t))
        positions = _gather_row_slices(np.concatenate(pos_rows), f, row_order)
        t, d, f = t[row_order], d[row_order], f[row_order]
        presorted = True
    build_segment_from_ids(
        vocab, t, d, f.astype(np.int32), norms_new, cat, seg_dir, meta,
        presorted=presorted, positions=positions,
    )
    return {**man, "segments": [mf.segment_entry(seg_dir, 0, "")]}
