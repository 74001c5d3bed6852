"""CheckIndex analogue: exhaustive integrity validation of an index.

Reference: lucene/core/src/java/org/apache/lucene/index/CheckIndex.java:113,570
— walk every structure and verify every invariant.  Ours validates, per
segment (one Ray task per segment — segments are independent):

0. layout (before anything is derived from it): every column of the
   segment's term/block column file is present, per-term columns have
   n_terms entries and per-block columns n_blocks (both as in meta.json;
   n_blocks also as doc_freq implies), singleton_doc holds exactly one
   entry per doc_freq == 1 term, the impact and exception pools match
   their counts, the term lengths cover the dictionary bytes, and the
   derived block byte offsets end exactly at the packed buffers' ends
1. term dictionary strictly sorted in UTF-8 byte order
2. per-term postings: docids strictly increasing, in [0, max_doc);
   freqs >= 1; doc_freq == decoded count; total_term_freq == sum(freqs)
3. impacts are UPPER BOUNDS: every block's skyline dominates every
   (freq, norm) pair actually present in the block (pruning legality,
   SURVEY §7.5) and term-level skylines dominate block-level ones
4. norms: byte-quantization fixed-point (int_to_byte4(byte4_to_int(b)) == b)
   and norm == quantized sum(tf) per doc
5. segment stats == recomputed aggregates (doc_count, sum_ttf, sum_df)
6. manifest: doc_base prefix-sum density, ordinal order, collection
   stats == sum of segment partials, and a declared ``index_sort`` is
   declared by every segment's meta (whose keys 3e checks monotone)

Returns a report dict; raises CheckIndexError on the first violation if
``raise_on_error``.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .. import store
from ..smallfloat import int_to_byte4, byte4_to_int
from . import bloom
from . import manifest as mf
from . import postings as codec
from . import segment as sg
from .segment import SegmentReader


class CheckIndexError(AssertionError):
    pass


def _chk(cond: bool, msg: str, errors: list[str], raise_on_error: bool) -> None:
    if not cond:
        if raise_on_error:
            raise CheckIndexError(msg)
        errors.append(msg)


def _check_layout(seg_dir: str, meta: dict, chk) -> None:
    """Check 0 (module docstring) on the raw stored columns."""
    cols = sg.read_columns(seg_dir)
    missing = {"term_len", "term_bytes", *sg.STORED_COLUMNS} - set(cols)
    chk(not missing, f"missing columns {sorted(missing)}")
    if missing:
        return
    n_terms = len(cols["term_len"])
    m = meta.get("metrics", {})
    chk(n_terms == m.get("n_terms", n_terms), f"{n_terms} terms != meta n_terms {m.get('n_terms')}")
    chk(int(cols["term_len"].sum()) == len(cols["term_bytes"]), "term lengths do not cover the dictionary bytes")
    for c in sg.TERM_COLUMNS:
        chk(len(cols[c]) == n_terms, f"column {c} has {len(cols[c])} entries, not n_terms {n_terms}")
    if len(cols["doc_freq"]) != n_terms:
        return
    df = cols["doc_freq"].astype(np.int64)
    n_single = int((df == 1).sum())
    chk(len(cols["singleton_doc"]) == n_single, f"singleton_doc has {len(cols['singleton_doc'])} entries for {n_single} singleton terms")
    n_blocks = int(((np.where(df == 1, 0, df) + codec.BLOCK_SIZE - 1) // codec.BLOCK_SIZE).sum())
    chk(n_blocks == m.get("n_blocks", n_blocks), f"doc_freq implies {n_blocks} blocks, meta n_blocks {m.get('n_blocks')}")
    for c in sg.BLOCK_COLUMNS:
        chk(len(cols[c]) == n_blocks, f"column {c} has {len(cols[c])} entries, not n_blocks {n_blocks}")
    for pool, count in (
        ("imp_freq", "block_imp_count"), ("imp_norm", "block_imp_count"),
        ("term_imp_freq", "term_imp_count"), ("term_imp_norm", "term_imp_count"),
        ("exc_pos", "block_exc_count"), ("exc_high", "block_exc_count"),
    ):
        chk(len(cols[pool]) == int(cols[count].sum()), f"pool {pool} has {len(cols[pool])} entries, {count} sums to {int(cols[count].sum())}")


def check_segment(seg_dir: str, raise_on_error: bool = True) -> dict:
    errors: list[str] = []
    local = store.localize_dir(seg_dir)
    with open(os.path.join(local, "meta.json")) as f:
        meta = json.load(f)
    name = meta.get("name", seg_dir)
    _check_layout(
        local, meta, lambda cond, msg: _chk(cond, f"{name}: {msg}", errors, raise_on_error)
    )
    r = None if errors else SegmentReader(seg_dir)
    if r is not None:
        enc = r.enc
        for packed, bits in ((enc.packed_docs, enc.block_doc_bits), (enc.packed_freqs, enc.block_freq_bits)):
            end = int(((enc.block_len.astype(np.int64) * bits + 7) // 8).sum())
            _chk(end == len(packed), f"{name}: derived block offsets end at byte {end} of a {len(packed)}-byte packed buffer", errors, raise_on_error)
    if errors:  # decoding would read past (or short of) the stored bytes
        return {
            "segment": name, "max_doc": int(meta["max_doc"]),
            "n_terms": int(meta.get("metrics", {}).get("n_terms", 0)), "n_postings": 0,
            "index_sort": meta.get("index_sort"), "errors": errors,
        }

    # 1. term dictionary sorted
    offs = np.asarray(r.term_offsets)
    prev = None
    for i in range(r.n_terms):
        t = r._term_at(i)
        if prev is not None:
            _chk(prev < t, f"{name}: terms not strictly sorted at {i}", errors, raise_on_error)
        prev = t
    bl = r._bloom()
    if bl is not None:
        # the build is deterministic, so the stored bitset must equal a
        # rebuild from the dictionary (stronger than never-false-negative)
        _chk(
            np.array_equal(bloom.build_bloom_from_dict(offs, np.asarray(r.term_bytes)), bl),
            f"{name}: bloom bitset does not match the term dictionary",
            errors,
            raise_on_error,
        )

    norms = np.asarray(r.norms)
    _chk(len(norms) == r.max_doc, f"{name}: norms length != max_doc", errors, raise_on_error)

    # 2-3. postings + impacts
    sum_ttf = 0
    sum_df = 0
    tf_per_doc = np.zeros(r.max_doc, dtype=np.int64)
    for tid in range(r.n_terms):
        docs, freqs = codec.decode_term(enc, tid)
        df = int(enc.doc_freq[tid])
        _chk(len(docs) == df, f"{name}: term {tid} doc_freq {df} != decoded {len(docs)}", errors, raise_on_error)
        if df == 0:
            continue
        _chk(bool((np.diff(docs) > 0).all()), f"{name}: term {tid} docids not strictly increasing", errors, raise_on_error)
        _chk(0 <= int(docs[0]) and int(docs[-1]) < r.max_doc, f"{name}: term {tid} docid out of range", errors, raise_on_error)
        _chk(bool((freqs >= 1).all()), f"{name}: term {tid} freq < 1", errors, raise_on_error)
        ttf = int(freqs.sum())
        _chk(ttf == int(enc.total_term_freq[tid]), f"{name}: term {tid} ttf mismatch", errors, raise_on_error)
        sum_ttf += ttf
        sum_df += df
        np.add.at(tf_per_doc, docs, freqs)

        # impacts: per-block skyline dominates actual (freq, norm) pairs
        bs, bc = int(enc.block_start[tid]), int(enc.block_count[tid])
        if int(enc.singleton_doc[tid]) < 0 and bc > 0:
            pos = 0
            for b in range(bs, bs + bc):
                n = int(enc.block_len[b])
                bdocs = docs[pos : pos + n]
                bfreqs = freqs[pos : pos + n]
                _chk(int(bdocs[-1]) == int(enc.block_last_doc[b]), f"{name}: term {tid} block {b} last_doc mismatch", errors, raise_on_error)
                s, c = int(enc.block_imp_start[b]), int(enc.block_imp_count[b])
                ifr = np.asarray(enc.imp_freq[s : s + c], dtype=np.int64)
                inr = np.asarray(enc.imp_norm[s : s + c], dtype=np.int64)
                bnorms = norms[bdocs].astype(np.int64)
                for f, nb in zip(bfreqs.tolist(), bnorms.tolist()):
                    # dominated iff exists skyline pair with freq >= f and norm <= nb
                    # norms compare as UNSIGNED bytes (longer doc = bigger byte)
                    dominated = bool(((ifr >= f) & (inr <= nb)).any())
                    _chk(dominated, f"{name}: term {tid} block {b} impact does not cover (f={f}, n={nb})", errors, raise_on_error)
                pos += n

    # 3b. positions (when present): per-posting lists ascending, in range,
    # and count == tf (IndexOptions DOCS_AND_FREQS_AND_POSITIONS)
    if getattr(r, "has_positions", False):
        pos_off = np.asarray(r.pos_off)
        row = 0
        for tid in range(r.n_terms):
            docs, freqs = codec.decode_term(enc, tid)
            for i in range(len(docs)):
                p = np.asarray(r.pos_data[pos_off[row] : pos_off[row + 1]])
                _chk(len(p) == int(freqs[i]), f"{name}: term {tid} posting {i} pos count != tf", errors, raise_on_error)
                if len(p):
                    _chk(bool((np.diff(p) > 0).all()) if len(p) > 1 else True, f"{name}: term {tid} posting {i} positions not ascending", errors, raise_on_error)
                    _chk(int(p[0]) >= 0, f"{name}: term {tid} posting {i} negative position", errors, raise_on_error)
                row += 1
        _chk(row == len(pos_off) - 1, f"{name}: position row count mismatch", errors, raise_on_error)

    # 4. norms are quantized token counts
    for d in range(r.max_doc):
        nb = int(norms[d])
        _chk(int_to_byte4(byte4_to_int(nb)) == nb, f"{name}: norm byte {nb} not a fixed point", errors, raise_on_error)
        _chk(nb == int_to_byte4(int(tf_per_doc[d])), f"{name}: doc {d} norm != quantized length", errors, raise_on_error)

    # 3b2. offsets (when present): aligned 1:1 with positions, start < end,
    # ascending starts within each posting (CheckIndex.checkFields offset
    # rules: startOffset monotone, endOffset >= startOffset)
    if getattr(r, "has_offsets", False):
        _chk(getattr(r, "has_positions", False), f"{name}: offsets without positions", errors, raise_on_error)
        os_, oe_ = np.asarray(r.off_start), np.asarray(r.off_end)
        _chk(len(os_) == len(np.asarray(r.pos_data)), f"{name}: offset stream length != positions", errors, raise_on_error)
        _chk(bool((oe_ > os_).all()) if len(os_) else True, f"{name}: end offset <= start offset", errors, raise_on_error)
        _chk(bool((os_ >= 0).all()) if len(os_) else True, f"{name}: negative start offset", errors, raise_on_error)
        pos_off = np.asarray(r.pos_off)
        for row in range(len(pos_off) - 1):
            s = os_[pos_off[row] : pos_off[row + 1]]
            if len(s) > 1:
                _chk(bool((np.diff(s) > 0).all()), f"{name}: row {row} start offsets not ascending", errors, raise_on_error)

    # 3b3. payloads (when present): the stream is 1:1 with positions
    # (CheckIndex.checkFields payload rule: a payload per position slot)
    if getattr(r, "has_payloads", False):
        _chk(getattr(r, "has_positions", False), f"{name}: payloads without positions", errors, raise_on_error)
        pay = np.asarray(r.pay_data)
        _chk(len(pay) == len(np.asarray(r.pos_data)), f"{name}: payload stream length != positions", errors, raise_on_error)

    # 3c. term vectors (when present): the forward index must be the exact
    # transpose of the postings — same (doc, term, tf) triples both ways
    # (CheckIndex.testTermVectors crosschecks against postings the same way)
    if getattr(r, "has_term_vectors", False):
        tv_rs = np.asarray(r.tv_row_start)
        _chk(len(tv_rs) == r.max_doc + 1, f"{name}: tv_row_start length", errors, raise_on_error)
        _chk(bool((np.diff(tv_rs) >= 0).all()), f"{name}: tv_row_start not monotonic", errors, raise_on_error)
        fwd_docs = np.repeat(np.arange(r.max_doc, dtype=np.int64), np.diff(tv_rs))
        fwd = np.stack(
            [np.asarray(r.tv_tid, dtype=np.int64), fwd_docs,
             np.asarray(r.tv_tf, dtype=np.int64)], axis=1
        )
        inv_rows = []
        for tid in range(r.n_terms):
            docs, freqs = codec.decode_term(enc, tid)
            if len(docs):
                inv_rows.append(
                    np.stack([np.full(len(docs), tid, dtype=np.int64),
                              docs.astype(np.int64), freqs.astype(np.int64)], axis=1)
                )
        inv = np.concatenate(inv_rows) if inv_rows else np.zeros((0, 3), np.int64)
        fwd_sorted = fwd[np.lexsort((fwd[:, 1], fwd[:, 0]))]
        _chk(fwd_sorted.shape == inv.shape and bool((fwd_sorted == inv).all()),
             f"{name}: term vectors are not the postings transpose", errors, raise_on_error)
        # within each doc, tv term ids ascending (CSR row sorted)
        for d in range(r.max_doc):
            row = np.asarray(r.tv_tid[tv_rs[d]:tv_rs[d + 1]])
            if len(row) > 1:
                _chk(bool((np.diff(row) > 0).all()), f"{name}: doc {d} tv tids not ascending", errors, raise_on_error)

    # 3d. BKD point tree (when present): every leaf doc inside its cell
    # bounds, cells inside their parents, all docs covered exactly once
    import glob as _glob
    import os as _os

    for ppath in sorted(_glob.glob(_os.path.join(seg_dir, "points-*.npz"))):
        from .points import check_points

        for e in check_points(ppath, max_doc=r.max_doc):
            _chk(False, f"{name}: {_os.path.basename(ppath)}: {e}", errors, raise_on_error)

    # 3e. index-time sort invariant (when declared): the sort key column is
    # monotone in docid order (index/Sorter.java contract)
    sort_meta = r.meta.get("index_sort")
    if sort_meta:
        field, direction = sort_meta
        col = r.stored_column(field).to_numpy(zero_copy_only=False).astype(np.int64)
        mono = (col[1:] <= col[:-1]) if direction == "desc" else (col[1:] >= col[:-1])
        _chk(bool(mono.all()), f"{name}: index_sort({field},{direction}) violated", errors, raise_on_error)

    # 5. stats
    st = r.collection_partials()
    _chk(st["sum_total_term_freq"] == sum_ttf, f"{name}: stats sum_ttf mismatch", errors, raise_on_error)
    _chk(st["sum_doc_freq"] == sum_df, f"{name}: stats sum_df mismatch", errors, raise_on_error)
    _chk(st["doc_count"] == int((norms > 0).sum()), f"{name}: stats doc_count mismatch", errors, raise_on_error)

    return {
        "segment": name,
        "max_doc": r.max_doc,
        "n_terms": r.n_terms,
        "n_postings": sum_df,
        "index_sort": sort_meta,
        "errors": errors,
    }


def check_index(index_dir: str, generation: int | None = None, raise_on_error: bool = True, use_ray: bool = True) -> dict:
    """Validate every segment (one Ray task each) + manifest invariants."""
    man = mf.read_manifest(index_dir, generation)
    errors: list[str] = []

    base = 0
    for seg in man["segments"]:
        _chk(seg["doc_base"] == base, f"manifest: {seg['name']} doc_base {seg['doc_base']} != prefix sum {base}", errors, raise_on_error)
        base += seg["max_doc"]

    if use_ray:
        from ..tasks import run_tasks

        reports = run_tasks(check_segment, [(s["dir"], raise_on_error) for s in man["segments"]])
    else:
        reports = [check_segment(s["dir"], raise_on_error) for s in man["segments"]]

    # doc-values update overlays (IndexWriter.updateNumericDocValue
    # analogue): sidecar must exist, docids strictly ascending and in
    # [0, max_doc) — the DocValuesFieldUpdates integrity rules
    import io

    import numpy as np

    from .. import store as _store

    for seg in man["segments"]:
        for fld, path in (seg.get("dv_updates") or {}).items():
            if not _store.exists(path):
                _chk(False, f"{seg['name']}: dv_updates[{fld}] missing {path}", errors, raise_on_error)
                continue
            from .deletes import load_dv_overlay

            d, v = load_dv_overlay(_store, path)
            _chk(len(d) == len(v), f"{seg['name']}: dv_updates[{fld}] docids/values length mismatch", errors, raise_on_error)
            if len(d):
                _chk(bool((np.diff(d) > 0).all()), f"{seg['name']}: dv_updates[{fld}] docids not strictly ascending", errors, raise_on_error)
                _chk(int(d[0]) >= 0 and int(d[-1]) < int(seg["max_doc"]), f"{seg['name']}: dv_updates[{fld}] docid out of range", errors, raise_on_error)

    # an index sort is an index-wide promise (early termination, sorted
    # range queries): every segment must declare it, not just be checked
    # when it does
    sort = man.get("index_sort")
    if sort:
        for seg, rep in zip(man["segments"], reports):
            _chk(rep["index_sort"] == list(sort), f"{seg['name']}: meta index_sort {rep['index_sort']} != manifest {list(sort)}", errors, raise_on_error)

    cs = mf.collection_stats_from(man)
    tot_postings = sum(rep["n_postings"] for rep in reports)
    _chk(cs["sum_doc_freq"] == tot_postings, f"manifest: collection sum_doc_freq {cs['sum_doc_freq']} != recomputed {tot_postings}", errors, raise_on_error)
    for rep in reports:
        errors.extend(rep["errors"])
    return {
        "generation": man["generation"],
        "segments": len(reports),
        "max_doc": base,
        "n_postings": tot_postings,
        "errors": errors,
        "ok": not errors,
    }
