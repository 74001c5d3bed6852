"""Segment build + SegmentReader.

A segment is one immutable mini-index (reference: index/SegmentInfo.java,
SegmentReader.java) produced by one partition of the build pipeline:

    seg_<name>/
      terms_bytes.npy, terms_offsets.npy   sorted UTF-8 term dictionary
      <per-term & per-block codec arrays>.npy   (see postings.EncodedPostings)
      norms.npy                            uint8 per local docid
      docs.parquet                         stored-fields table (docid, repo,
                                           path, commit, lang, sha256)
      meta.json                            maxDoc, docBase, partial stats,
                                           lineage + metrics (north rule)

Terms are sorted in UTF-8 byte order == unicode codepoint order, matching
Lucene's unsigned-byte term order (SURVEY §2.8).  docIDs are segment-local
dense ints; global docID = meta["doc_base"] + local (LeafReaderContext
docBase semantics).

Write is atomic: build into ``<dir>.tmp-<token>`` then rename, so a retried
task overwrites rather than duplicates (SURVEY §4 fault-tolerance row).
"""

from __future__ import annotations

import json
import os
import shutil
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import bloom as bloom_mod

from .. import store
from . import postings as codec

NO_MORE_DOCS = 2**31 - 1


def build_segment(
    terms: np.ndarray,
    docids: np.ndarray,
    tfs: np.ndarray,
    norms: np.ndarray,
    doc_table: pa.Table | None,
    seg_dir: str,
    meta: dict,
) -> dict:
    """Encode and atomically write one segment from STRING term rows.

    ``terms`` is an object/str numpy array (or pyarrow StringArray) aligned
    with ``docids``/``tfs`` (one row per (term, doc) posting, ANY order —
    sorted here).  ``norms`` is uint8[max_doc].  ``meta`` must contain
    ``max_doc`` and ``doc_base``.
    Returns the metrics dict written into meta.json.
    """
    if not isinstance(terms, pa.Array) and not isinstance(terms, pa.ChunkedArray):
        terms = pa.array(terms, type=pa.large_string())
    tbl = pa.table(
        {
            "term": terms,
            "docid": pa.array(np.asarray(docids, dtype=np.int32)),
            "tf": pa.array(np.asarray(tfs, dtype=np.int32)),
        }
    )
    # THE per-partition sort (FreqProxTermsWriter.flush analogue,
    # FreqProxTermsWriter.java:83-135): term order = UTF-8 byte order.
    tbl = tbl.sort_by([("term", "ascending"), ("docid", "ascending")])
    term_col = tbl.column("term").combine_chunks()
    dict_arr = pc.dictionary_encode(term_col)
    if isinstance(dict_arr, pa.ChunkedArray):
        dict_arr = dict_arr.combine_chunks()
    term_ids = dict_arr.indices.to_numpy().astype(np.int64)
    uniq = dict_arr.dictionary  # sorted unique terms (column was sorted)
    return build_segment_from_ids(
        uniq,
        term_ids,
        tbl.column("docid").to_numpy(),
        tbl.column("tf").to_numpy(),
        norms,
        doc_table,
        seg_dir,
        meta,
        presorted=True,
    )


def build_segment_from_ids(
    uniq: pa.Array,
    term_ids: np.ndarray,
    docids: np.ndarray,
    tfs: np.ndarray,
    norms: np.ndarray,
    doc_table: pa.Table | None,
    seg_dir: str,
    meta: dict,
    presorted: bool = False,
    positions: np.ndarray | None = None,
    offsets: tuple[np.ndarray, np.ndarray] | None = None,
    term_vectors: bool = False,
    payloads: np.ndarray | None = None,
) -> dict:
    """Encode and atomically write one segment from dictionary-encoded rows.

    ``uniq`` must already be sorted in UTF-8 byte order and ``term_ids``
    index into it; the row sort is a pure integer lexsort — the fast path
    the vectorized analyzer feeds directly.

    ``positions`` (optional, IndexOptions DOCS_AND_FREQS_AND_POSITIONS):
    flat int array of each row's ascending position list, aligned with the
    PRESORTED row order (requires ``presorted=True``); per-row offsets are
    the prefix sum of ``tfs``.  Stored as delta-friendly raw int32 (the
    reference bit-packs prox deltas, Lucene104PostingsFormat positions
    blocks; value equality is what matters for phrase semantics).
    """
    term_ids = np.asarray(term_ids, dtype=np.int64)
    docids = np.asarray(docids)
    tfs = np.asarray(tfs)
    if not presorted:
        assert positions is None, "positions require presorted rows"
        order = np.lexsort((docids, term_ids))
        term_ids, docids, tfs = term_ids[order], docids[order], tfs[order]
    n_terms = len(uniq)

    enc = codec.encode_postings(term_ids, docids, tfs, norms, n_terms)

    # build locally, publish through the Directory seam (store module): a
    # remote seg_dir gets its files uploaded with meta.json LAST
    tmp = store.local_build_dir(seg_dir)
    os.makedirs(tmp, exist_ok=True)
    try:
        # term dictionary as bytes + offsets (bisect-able without
        # materializing Python strings)
        buf = pc.cast(uniq, pa.large_binary())
        dict_offsets = np.frombuffer(buf.buffers()[1], dtype=np.int64)[
            buf.offset : buf.offset + len(buf) + 1
        ].copy()
        data = np.frombuffer(buf.buffers()[2], dtype=np.uint8).copy()
        np.save(os.path.join(tmp, "terms_offsets.npy"), dict_offsets)
        np.save(os.path.join(tmp, "terms_bytes.npy"), data)
        # bloom-filtered term dictionary (BloomFilteringPostingsFormat):
        # point lookups skip this segment on a bloom miss without touching
        # the dictionary pages
        np.save(
            os.path.join(tmp, bloom_mod.FILE),
            bloom_mod.build_bloom_from_dict(dict_offsets, data),
        )
        for name, arr in enc.arrays().items():
            np.save(os.path.join(tmp, f"{name}.npy"), arr)
        np.save(os.path.join(tmp, "norms.npy"), norms.astype(np.uint8))
        if term_vectors:
            # forward index (TermVectorsWriter analogue,
            # codecs/lucene90/compressing/Lucene90CompressingTermVectorsWriter.java):
            # per-doc (tid, tf) rows as CSR over local docids — the same
            # flush rows transposed by one integer lexsort
            tv_order = np.lexsort((term_ids, docids))
            np.save(os.path.join(tmp, "tv_tid.npy"), term_ids[tv_order].astype(np.int64))
            np.save(os.path.join(tmp, "tv_tf.npy"), np.asarray(tfs)[tv_order].astype(np.int32))
            np.save(
                os.path.join(tmp, "tv_row_start.npy"),
                np.searchsorted(
                    np.asarray(docids)[tv_order], np.arange(int(meta["max_doc"]) + 1)
                ).astype(np.int64),
            )
        if positions is not None:
            np.save(os.path.join(tmp, "pos_data.npy"), np.asarray(positions, dtype=np.int32))
            # row index of each term's first posting (for position lookup)
            row_start = np.concatenate(
                ([0], np.cumsum(enc.doc_freq, dtype=np.int64))
            )
            np.save(os.path.join(tmp, "pos_row_start.npy"), row_start)
            np.save(
                os.path.join(tmp, "pos_off.npy"),
                np.concatenate(([0], np.cumsum(tfs, dtype=np.int64))),
            )
            if offsets is not None:
                # per-occurrence char offsets, 1:1 with pos_data (IndexOptions
                # DOCS_AND_FREQS_AND_POSITIONS_AND_OFFSETS; OffsetAttribute)
                np.save(
                    os.path.join(tmp, "off_start.npy"),
                    np.asarray(offsets[0], dtype=np.int32),
                )
                np.save(
                    os.path.join(tmp, "off_end.npy"),
                    np.asarray(offsets[1], dtype=np.int32),
                )
            if payloads is not None:
                # per-occurrence payload stream, 1:1 with pos_data (the
                # PayloadAttribute stream, analysis/tokenattributes/
                # PayloadAttribute.java; int32 payloads — the reference's
                # byte[] generalization is not needed for scoring)
                np.save(
                    os.path.join(tmp, "pay_data.npy"),
                    np.asarray(payloads, dtype=np.int32),
                )
        if doc_table is not None:
            pq.write_table(doc_table, os.path.join(tmp, "docs.parquet"))

        n_postings = len(term_ids)
        metrics = {
            "n_terms": int(n_terms),
            "n_postings": int(n_postings),
            "n_blocks": int(len(enc.block_last_doc)),
            "packed_doc_bytes": int(enc.packed_docs.nbytes),
            "packed_freq_bytes": int(enc.packed_freqs.nbytes),
            "freq_exception_bytes": int(enc.exc_pos.nbytes + enc.exc_high.nbytes),
            "sum_total_term_freq": int(enc.total_term_freq.sum()),
            "sum_doc_freq": int(enc.doc_freq.sum()),
            "doc_count": int((norms > 0).sum()),
        }
        full_meta = dict(meta)
        full_meta["metrics"] = metrics
        full_meta["stats"] = {
            "max_doc": int(meta["max_doc"]),
            "doc_count": metrics["doc_count"],
            "sum_total_term_freq": metrics["sum_total_term_freq"],
            "sum_doc_freq": metrics["sum_doc_freq"],
        }
        with open(os.path.join(tmp, "meta.json"), "w") as f:
            json.dump(full_meta, f, indent=1)
        store.publish_dir(tmp, seg_dir)
    finally:
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
    return metrics


class NpyAppender:
    """Append-only .npy writer: a fixed 128-byte rewritable header, then raw
    little-endian chunks; the final shape is patched in on close.  Lets the
    sectioned merge stream arbitrarily large arrays to disk with O(chunk)
    memory (np.save would need the whole array)."""

    _MAGIC = b"\x93NUMPY\x01\x00"

    def __init__(self, path: str, dtype):
        self.dtype = np.dtype(dtype)
        self.n = 0
        self.f = open(path, "wb")
        self.f.write(self._header(0))

    def _header(self, n: int) -> bytes:
        d = "{'descr': '%s', 'fortran_order': False, 'shape': (%d,), }" % (
            self.dtype.str,
            n,
        )
        hlen = 128 - len(self._MAGIC) - 2
        pad = hlen - len(d) - 1
        assert pad >= 0, "header overflow"
        import struct

        return self._MAGIC + struct.pack("<H", hlen) + (d + " " * pad + "\n").encode("latin1")

    def append(self, arr: np.ndarray) -> None:
        arr = np.ascontiguousarray(arr, dtype=self.dtype)
        self.f.write(arr.tobytes())
        self.n += len(arr)

    def close(self) -> None:
        self.f.flush()
        self.f.seek(0)
        self.f.write(self._header(self.n))
        self.f.close()


class StreamingSegmentWriter:
    """Incremental segment writer for the sectioned merge: encoded term-range
    sections are APPENDED with running offset rebasing (block_start,
    byte offsets, impact-pool starts), so peak memory is one section, not
    the segment (SegmentMerger streams the same way; our on-disk layout is
    identical to build_segment_from_ids's).

    Contract: sections arrive in term order and never split a term; the
    vocabulary and norms are known up front (term METADATA is RAM-resident
    by design — postings dominate bytes by ~2 orders of magnitude)."""

    _APPEND_DTYPES = {
        "doc_freq": np.int32,
        "total_term_freq": np.int64,
        "block_start": np.int64,
        "block_count": np.int32,
        "singleton_doc": np.int32,
        "singleton_freq": np.int32,
        "max_freq": np.int32,
        "min_norm_at_max": np.uint8,
        "term_imp_start": np.int64,
        "term_imp_count": np.int32,
        "block_last_doc": np.int32,
        "block_len": np.int32,
        "block_doc_bits": np.uint8,
        "block_freq_bits": np.uint8,
        "block_doc_off": np.int64,
        "block_freq_off": np.int64,
        "block_imp_start": np.int64,
        "block_imp_count": np.int32,
        "imp_freq": np.int32,
        "imp_norm": np.uint8,
        "term_imp_freq": np.int32,
        "term_imp_norm": np.uint8,
        "block_exc_start": np.int64,
        "block_exc_count": np.int32,
        "exc_pos": np.uint8,
        "exc_high": np.uint8,
        "packed_docs": np.uint8,
        "packed_freqs": np.uint8,
    }

    def __init__(
        self,
        seg_dir: str,
        vocab: pa.Array,
        norms: np.ndarray,
        meta: dict,
        with_positions: bool = False,
        with_offsets: bool = False,
        with_payloads: bool = False,
    ):
        self.seg_dir = seg_dir
        self.tmp = store.local_build_dir(seg_dir)
        os.makedirs(self.tmp, exist_ok=True)
        self.norms = np.asarray(norms, dtype=np.uint8)
        self.meta = meta
        self.with_positions = with_positions
        self.with_offsets = with_offsets
        self.with_payloads = with_payloads
        self.n_terms = len(vocab)

        buf = pc.cast(vocab, pa.large_binary())
        if len(vocab):
            offsets = np.frombuffer(buf.buffers()[1], dtype=np.int64)[
                buf.offset : buf.offset + len(buf) + 1
            ].copy()
            data = np.frombuffer(buf.buffers()[2], dtype=np.uint8).copy()
        else:
            offsets = np.zeros(1, dtype=np.int64)
            data = np.empty(0, dtype=np.uint8)
        np.save(os.path.join(self.tmp, "terms_offsets.npy"), offsets)
        np.save(os.path.join(self.tmp, "terms_bytes.npy"), data)
        np.save(
            os.path.join(self.tmp, bloom_mod.FILE),
            bloom_mod.build_bloom_from_dict(offsets, data),
        )

        self.w = {
            name: NpyAppender(os.path.join(self.tmp, f"{name}.npy"), dt)
            for name, dt in self._APPEND_DTYPES.items()
        }
        if with_positions:
            self.w["pos_data"] = NpyAppender(os.path.join(self.tmp, "pos_data.npy"), np.int32)
            self.w["pos_row_start"] = NpyAppender(
                os.path.join(self.tmp, "pos_row_start.npy"), np.int64
            )
            self.w["pos_off"] = NpyAppender(os.path.join(self.tmp, "pos_off.npy"), np.int64)
            self.w["pos_row_start"].append(np.zeros(1, dtype=np.int64))
            self.w["pos_off"].append(np.zeros(1, dtype=np.int64))
        if with_offsets:
            self.w["off_start"] = NpyAppender(os.path.join(self.tmp, "off_start.npy"), np.int32)
            self.w["off_end"] = NpyAppender(os.path.join(self.tmp, "off_end.npy"), np.int32)
        if with_payloads:
            self.w["pay_data"] = NpyAppender(os.path.join(self.tmp, "pay_data.npy"), np.int32)

        # running bases for the rebased offset arrays / accumulated metrics
        self._blocks = 0
        self._doc_bytes = 0
        self._freq_bytes = 0
        self._imp = 0
        self._term_imp = 0
        self._freq_exc = 0
        self._rows = 0
        self._pos_vals = 0
        self._terms_written = 0
        self._n_postings = 0
        self._sum_ttf = 0
        self._sum_df = 0

    def append_section(
        self,
        enc: "codec.EncodedPostings",
        row_tfs: np.ndarray | None = None,
        positions: np.ndarray | None = None,
        offsets: tuple[np.ndarray, np.ndarray] | None = None,
        payloads: np.ndarray | None = None,
    ) -> None:
        """Append one encoded term-range section (term ids 0-based within
        the section).  ``row_tfs``/``positions`` (sorted row order) are
        required iff the writer carries positions; ``offsets`` (start, end
        streams 1:1 with positions) iff it carries offsets."""
        w = self.w
        w["doc_freq"].append(enc.doc_freq)
        w["total_term_freq"].append(enc.total_term_freq)
        w["block_start"].append(enc.block_start + self._blocks)
        w["block_count"].append(enc.block_count)
        w["singleton_doc"].append(enc.singleton_doc)
        w["singleton_freq"].append(enc.singleton_freq)
        w["max_freq"].append(enc.max_freq)
        w["min_norm_at_max"].append(enc.min_norm_at_max)
        w["term_imp_start"].append(enc.term_imp_start + self._term_imp)
        w["term_imp_count"].append(enc.term_imp_count)
        w["block_last_doc"].append(enc.block_last_doc)
        w["block_len"].append(enc.block_len)
        w["block_doc_bits"].append(enc.block_doc_bits)
        w["block_freq_bits"].append(enc.block_freq_bits)
        w["block_doc_off"].append(enc.block_doc_off + self._doc_bytes)
        w["block_freq_off"].append(enc.block_freq_off + self._freq_bytes)
        w["block_imp_start"].append(enc.block_imp_start + self._imp)
        w["block_imp_count"].append(enc.block_imp_count)
        w["imp_freq"].append(enc.imp_freq)
        w["imp_norm"].append(enc.imp_norm)
        w["term_imp_freq"].append(enc.term_imp_freq)
        w["term_imp_norm"].append(enc.term_imp_norm)
        w["block_exc_start"].append(enc.block_exc_start + self._freq_exc)
        w["block_exc_count"].append(enc.block_exc_count)
        w["exc_pos"].append(enc.exc_pos)
        w["exc_high"].append(enc.exc_high)
        w["packed_docs"].append(enc.packed_docs)
        w["packed_freqs"].append(enc.packed_freqs)

        n_rows = int(enc.doc_freq.sum())
        if self.with_positions:
            assert positions is not None and row_tfs is not None
            w["pos_data"].append(positions)
            df = enc.doc_freq.astype(np.int64)
            w["pos_row_start"].append(np.cumsum(df) + self._rows)
            w["pos_off"].append(np.cumsum(row_tfs.astype(np.int64)) + self._pos_vals)
            self._pos_vals += int(row_tfs.sum())
        if self.with_offsets:
            assert offsets is not None
            w["off_start"].append(np.asarray(offsets[0], dtype=np.int32))
            w["off_end"].append(np.asarray(offsets[1], dtype=np.int32))
        if self.with_payloads:
            assert payloads is not None
            w["pay_data"].append(np.asarray(payloads, dtype=np.int32))

        self._blocks += len(enc.block_last_doc)
        self._doc_bytes += int(enc.packed_docs.nbytes)
        self._freq_bytes += int(enc.packed_freqs.nbytes)
        self._imp += len(enc.imp_freq)
        self._term_imp += len(enc.term_imp_freq)
        self._freq_exc += len(enc.exc_pos)
        self._rows += n_rows
        self._terms_written += len(enc.doc_freq)
        self._n_postings += n_rows
        self._sum_ttf += int(enc.total_term_freq.sum())
        self._sum_df += int(enc.doc_freq.sum())

    def term_vector_sink(
        self, total_rows: int, max_doc: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Open memmapped term-vector arrays in the tmp dir for incremental
        fill (merge carry-through: the caller streams remapped CSR chunks
        in merged-doc order, bounding memory to one chunk).  Layout matches
        build_segment_from_ids's flush-time tv files, so SegmentReader
        serves merged and flushed segments identically."""
        from numpy.lib.format import open_memmap

        tid = open_memmap(
            os.path.join(self.tmp, "tv_tid.npy"),
            mode="w+",
            dtype=np.int64,
            shape=(int(total_rows),),
        )
        tf = open_memmap(
            os.path.join(self.tmp, "tv_tf.npy"),
            mode="w+",
            dtype=np.int32,
            shape=(int(total_rows),),
        )
        rs = open_memmap(
            os.path.join(self.tmp, "tv_row_start.npy"),
            mode="w+",
            dtype=np.int64,
            shape=(int(max_doc) + 1,),
        )
        return tid, tf, rs

    def finalize(self) -> dict:
        assert self._terms_written == self.n_terms, (self._terms_written, self.n_terms)
        for a in self.w.values():
            a.close()
        np.save(os.path.join(self.tmp, "norms.npy"), self.norms)
        metrics = {
            "n_terms": int(self.n_terms),
            "n_postings": int(self._n_postings),
            "n_blocks": int(self._blocks),
            "packed_doc_bytes": int(self._doc_bytes),
            "packed_freq_bytes": int(self._freq_bytes),
            "freq_exception_bytes": int(2 * self._freq_exc),
            "sum_total_term_freq": int(self._sum_ttf),
            "sum_doc_freq": int(self._sum_df),
            "doc_count": int((self.norms > 0).sum()),
        }
        full_meta = dict(self.meta)
        full_meta["metrics"] = metrics
        full_meta["stats"] = {
            "max_doc": int(self.meta["max_doc"]),
            "doc_count": metrics["doc_count"],
            "sum_total_term_freq": metrics["sum_total_term_freq"],
            "sum_doc_freq": metrics["sum_doc_freq"],
        }
        with open(os.path.join(self.tmp, "meta.json"), "w") as f:
            json.dump(full_meta, f, indent=1)
        store.publish_dir(self.tmp, self.seg_dir)
        return metrics

    def abort(self) -> None:
        if os.path.exists(self.tmp):
            shutil.rmtree(self.tmp)


class SegmentReader:
    """Opens one segment's arrays (memory-mapped) and serves term lookups,
    postings cursors and norms.  Held inside query actors (SURVEY §2.1
    Segment reader row)."""

    def __init__(self, seg_dir: str, mmap: bool = True, decode_cache: int = 256):
        # Directory seam: a remote seg_dir (scheme://) is synced once into
        # the node-local read-through cache; everything below mmaps the
        # local copy (MMapDirectory fast path over any shared prefix)
        self.src_dir = seg_dir
        self.dir = seg_dir = store.localize_dir(seg_dir)
        mm = "r" if mmap else None
        # hot-term decoded-postings LRU (Lucene leans on the OS page cache +
        # branch-free decode; we amortize the Python block loop instead)
        self._decode_cache_size = decode_cache
        self._decode_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.term_offsets = np.load(os.path.join(seg_dir, "terms_offsets.npy"), mmap_mode=mm)
        self.term_bytes = np.load(os.path.join(seg_dir, "terms_bytes.npy"), mmap_mode=mm)
        arrays = {}
        for name in codec.EncodedPostings.__dataclass_fields__:
            path = os.path.join(seg_dir, f"{name}.npy")
            if not os.path.exists(path) and name in (
                "block_exc_start", "block_exc_count", "exc_pos", "exc_high"
            ):
                # pre-PFoR segment: no freq exceptions anywhere
                n_blk = len(arrays["block_last_doc"])
                arrays[name] = (
                    np.zeros(n_blk, dtype=np.int64)
                    if name == "block_exc_start"
                    else np.zeros(n_blk, dtype=np.int32)
                    if name == "block_exc_count"
                    else np.empty(0, dtype=np.uint8)
                )
                continue
            arrays[name] = np.load(path, mmap_mode=mm)
        self.enc = codec.EncodedPostings.from_arrays(arrays)
        self.norms = np.load(os.path.join(seg_dir, "norms.npy"), mmap_mode=mm)
        pos_path = os.path.join(seg_dir, "pos_data.npy")
        self.has_positions = os.path.exists(pos_path)
        if self.has_positions:
            self.pos_data = np.load(pos_path, mmap_mode=mm)
            self.pos_row_start = np.load(os.path.join(seg_dir, "pos_row_start.npy"), mmap_mode=mm)
            self.pos_off = np.load(os.path.join(seg_dir, "pos_off.npy"), mmap_mode=mm)
        off_path = os.path.join(seg_dir, "off_start.npy")
        self.has_offsets = os.path.exists(off_path)
        if self.has_offsets:
            self.off_start = np.load(off_path, mmap_mode=mm)
            self.off_end = np.load(os.path.join(seg_dir, "off_end.npy"), mmap_mode=mm)
        pay_path = os.path.join(seg_dir, "pay_data.npy")
        self.has_payloads = os.path.exists(pay_path)
        if self.has_payloads:
            self.pay_data = np.load(pay_path, mmap_mode=mm)
        tv_path = os.path.join(seg_dir, "tv_row_start.npy")
        self.has_term_vectors = os.path.exists(tv_path)
        if self.has_term_vectors:
            self.tv_row_start = np.load(tv_path, mmap_mode=mm)
            self.tv_tid = np.load(os.path.join(seg_dir, "tv_tid.npy"), mmap_mode=mm)
            self.tv_tf = np.load(os.path.join(seg_dir, "tv_tf.npy"), mmap_mode=mm)
        with open(os.path.join(seg_dir, "meta.json")) as f:
            self.meta = json.load(f)
        self.max_doc = int(self.meta["max_doc"])
        self.doc_base = int(self.meta["doc_base"])
        self.n_terms = len(self.term_offsets) - 1
        # live-docs mask (None = all live); set by the searcher from the
        # manifest entry (deletes.py), masked at COLLECTION time
        self.live: np.ndarray | None = None

    # --- term dictionary -------------------------------------------------
    def _term_at(self, i: int) -> bytes:
        return self.term_bytes[self.term_offsets[i] : self.term_offsets[i + 1]].tobytes()

    def _prefix_index(self) -> np.ndarray:
        """Big-endian uint64 of each term's first 8 bytes (zero-padded) —
        sorted like the dictionary, so ONE numpy searchsorted replaces
        ~log2(V) Python bisect steps of memmap slicing; ties within an
        8-byte prefix are resolved with at most a few exact compares.
        Built lazily, 8 bytes/term (term METADATA is RAM-resident by
        design, like the block-tree index the reference keeps on heap)."""
        pref = getattr(self, "_term_prefix", None)
        if pref is None:
            n = self.n_terms
            offs = np.asarray(self.term_offsets)
            data = np.asarray(self.term_bytes)
            lens = np.minimum(np.diff(offs), 8)
            m = np.zeros((n, 8), dtype=np.uint8)
            for k in range(8):
                sel = lens > k
                m[sel, k] = data[offs[:-1][sel] + k]
            pref = self._term_prefix = m.reshape(-1).view(">u8").copy()
        return pref

    def _bloom(self) -> np.ndarray | None:
        """Lazy mmap of the segment's bloom bitset (absent on pre-bloom
        segments and on ones whose bitset uses the earlier hash, written
        under another name — lookups then fall through to the dictionary)."""
        bl = getattr(self, "_bloom_words", False)
        if bl is False:
            d = getattr(self, "dir", None)  # synthetic readers have no dir
            path = os.path.join(d, bloom_mod.FILE) if d else None
            bl = self._bloom_words = (
                np.load(path, mmap_mode="r")
                if path and os.path.exists(path)
                else None
            )
        return bl

    def term_id(self, term: str) -> int | None:
        """Dictionary lookup in UTF-8 byte order; None if absent.  Memoized
        per reader (queries repeat terms: the stats phase and the scorer
        both seek the same keys — TermStates caching analogue)."""
        memo = getattr(self, "_term_id_memo", None)
        if memo is None:
            memo = self._term_id_memo = {}
        if term in memo:
            return memo[term]
        key = term.encode("utf-8")
        # BloomFilteringPostingsFormat probe: a miss answers "absent"
        # without touching the dictionary pages (never false-negative)
        bl = self._bloom()
        if bl is not None and not bloom_mod.contains(bl, key):
            self.bloom_skips = getattr(self, "bloom_skips", 0) + 1
            if len(memo) < 1 << 16:
                memo[term] = None
            return None
        key8 = int.from_bytes(key[:8].ljust(8, b"\x00"), "big")
        pref = self._prefix_index()
        lo = int(np.searchsorted(pref, key8, side="left"))
        hi = int(np.searchsorted(pref, key8, side="right"))
        out = None
        for i in range(lo, hi):
            t = self._term_at(i)
            if t == key:
                out = i
                break
            if t > key:
                break
        if len(memo) < 1 << 16:
            memo[term] = out
        return out

    def _bisect_left(self, key: bytes) -> int:
        lo, hi = 0, self.n_terms
        while lo < hi:
            mid = (lo + hi) // 2
            if self._term_at(mid) < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def term_id_range(self, lower: bytes | None, upper: bytes | None) -> range:
        """Term ids with lower <= term < upper (UTF-8 byte order); None ends
        are open.  Serves PrefixQuery/TermRangeQuery rewrites."""
        lo = 0 if lower is None else self._bisect_left(lower)
        hi = self.n_terms if upper is None else self._bisect_left(upper)
        return range(lo, hi)

    def term_stats(self, term: str) -> tuple[int, int]:
        """(doc_freq, total_term_freq); (0, 0) if absent."""
        tid = self.term_id(term)
        if tid is None:
            return 0, 0
        return int(self.enc.doc_freq[tid]), int(self.enc.total_term_freq[tid])

    def term_string(self, tid: int) -> str:
        return self._term_at(tid).decode("utf-8")

    def terms_array(self) -> pa.Array:
        """The whole sorted term dictionary as a zero-copy Arrow array."""
        offsets = np.ascontiguousarray(self.term_offsets, dtype=np.int64)
        data = np.ascontiguousarray(self.term_bytes, dtype=np.uint8)
        return pa.Array.from_buffers(
            pa.large_utf8(),
            self.n_terms,
            [None, pa.py_buffer(offsets), pa.py_buffer(data)],
        )

    def cursor(self, term: str | int):
        from ..search.scorers import PostingsCursor  # cycle-free at runtime

        tid = self.term_id(term) if isinstance(term, str) else term
        if tid is None:
            return None
        return PostingsCursor(self, int(tid))

    def decode_term_cached(self, tid: int):
        """(docids, freqs) with a small per-reader LRU for hot terms."""
        hit = self._decode_cache.get(tid)
        if hit is not None:
            return hit
        out = codec.decode_term(self.enc, tid)
        if len(self._decode_cache) >= self._decode_cache_size:
            self._decode_cache.pop(next(iter(self._decode_cache)))
        self._decode_cache[tid] = out
        return out

    def term_vector(self, local_doc: int) -> tuple[np.ndarray, np.ndarray]:
        """(tids, tfs) of one doc from the forward index
        (IndexReader.getTermVector analogue); tids ascend."""
        if not self.has_term_vectors:
            raise ValueError("segment was built without term_vectors")
        lo = int(self.tv_row_start[local_doc])
        hi = int(self.tv_row_start[local_doc + 1])
        return np.asarray(self.tv_tid[lo:hi]), np.asarray(self.tv_tf[lo:hi])

    def term_positions(self, tid: int) -> list[np.ndarray]:
        """Per-posting ascending position arrays for one term (row order ==
        docid order, matching decode_term)."""
        if not self.has_positions:
            raise ValueError("segment was built without positions")
        r0 = int(self.pos_row_start[tid])
        r1 = int(self.pos_row_start[tid + 1])
        return [
            np.asarray(self.pos_data[self.pos_off[r] : self.pos_off[r + 1]])
            for r in range(r0, r1)
        ]

    def term_offset_spans(self, tid: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-posting (start_offsets, end_offsets) char-span arrays for one
        term, aligned 1:1 with term_positions (OffsetAttribute /
        PostingsEnum.startOffset-endOffset analogue)."""
        if not self.has_offsets:
            raise ValueError("segment was built without offsets")
        r0 = int(self.pos_row_start[tid])
        r1 = int(self.pos_row_start[tid + 1])
        return [
            (
                np.asarray(self.off_start[self.pos_off[r] : self.pos_off[r + 1]]),
                np.asarray(self.off_end[self.pos_off[r] : self.pos_off[r + 1]]),
            )
            for r in range(r0, r1)
        ]

    def term_payloads(self, tid: int) -> list[np.ndarray]:
        """Per-posting payload arrays for one term, aligned 1:1 with
        term_positions (PayloadAttribute / PostingsEnum.getPayload
        analogue; int32 payloads)."""
        if not self.has_payloads:
            raise ValueError("segment was built without payloads")
        r0 = int(self.pos_row_start[tid])
        r1 = int(self.pos_row_start[tid + 1])
        return [
            np.asarray(self.pay_data[self.pos_off[r] : self.pos_off[r + 1]])
            for r in range(r0, r1)
        ]

    def docs_table(self) -> pa.Table:
        return pq.read_table(os.path.join(self.dir, "docs.parquet"))

    def stored_column(self, field: str) -> pa.Array:
        """One stored-fields column aligned with LOCAL docids (cached).

        The pragmatic doc-values analogue (reference index/DocValuesType
        .java): per-segment columnar metadata served from the stored-field
        parquet (docs.parquet inside the segment, or the index-level
        docs/<name>/ fragment dir), sorted by docid — query-time filters
        mask against it (search/PointRangeQuery.java semantics for the
        equality case).
        """
        cache = getattr(self, "_stored_cols", None)
        if cache is None:
            cache = self._stored_cols = {}
        # numeric doc-values UPDATES overlay (IndexWriter.updateNumericDocValue
        # analogue): the searcher attaches per-segment overlay paths from the
        # manifest; the cache keys on the overlay so NRT reopens across
        # generations never serve stale values
        upd = getattr(self, "dv_updates", {}).get(field)
        key = (field, upd)
        if key in cache:
            return cache[key]
        inline = os.path.join(self.dir, "docs.parquet")
        # the docs fragment dir is a SIBLING of the segment in the (possibly
        # remote) index root, so derive it from src_dir, not the cache path
        name = os.path.basename(self.src_dir.rstrip("/"))
        frag_dir = os.path.join(
            os.path.dirname(self.src_dir.rstrip("/")), "docs", name
        )
        if os.path.exists(inline):
            tbl = pq.read_table(inline, columns=["docid", field])
        elif store.isdir(frag_dir):
            local_frag = store.localize_dir(frag_dir)
            parts = [
                pq.read_table(os.path.join(local_frag, f), columns=["docid", field])
                for f in sorted(os.listdir(local_frag))
                if f.endswith(".parquet")
            ]
            tbl = pa.concat_tables(parts)
        else:
            raise FileNotFoundError(f"no stored fields for segment {self.src_dir}")
        tbl = tbl.sort_by("docid")
        if len(tbl) != self.max_doc:
            raise ValueError(
                f"stored fields cover {len(tbl)} of {self.max_doc} docs in {name}"
            )
        col = tbl.column(field).combine_chunks()
        if upd is not None:
            from .deletes import load_dv_overlay

            od, ov = load_dv_overlay(store, upd)
            vals = col.to_numpy(zero_copy_only=False).copy()
            vals[od] = ov
            col = pa.chunked_array([pa.array(vals)])
        cache[key] = col
        return col

    def _sidecar_path(self, fname: str) -> str | None:
        """Local path of a segment sidecar file (points/vectors npz) that may
        have been published AFTER the segment was localized — falls back to a
        file-level fetch from the remote src dir."""
        local = os.path.join(self.dir, fname)
        if os.path.exists(local):
            return local
        if store.is_remote(self.src_dir):
            remote = os.path.join(self.src_dir, fname)
            if store.exists(remote):
                return store.localize_file(remote)
        return None

    def point_tree(self, fields: tuple[str, ...]):
        """Persisted BKD-style point tree for these fields, or None when
        the artifact hasn't been built (index.points.build_point_index).
        Cached per reader like stored columns."""
        from .points import PointTree, point_file

        cache = getattr(self, "_point_trees", None)
        if cache is None:
            cache = self._point_trees = {}
        key = tuple(fields)
        if key not in cache:
            fname = os.path.basename(point_file("", "_".join(fields)))
            path = self._sidecar_path(fname)
            cache[key] = PointTree.load(path) if path else None
        return cache[key]

    def vector_index(self, field: str):
        """Persisted per-segment HNSW graph for a vector field, or None
        when absent (index.vectors.build_vector_index writes it).  Cached
        per reader — in the SegmentSearchWorker actor pool the graph is
        loaded once and reused across queries."""
        from ..ops.hnsw import HnswGraph
        from .vectors import vector_file

        cache = getattr(self, "_vector_graphs", None)
        if cache is None:
            cache = self._vector_graphs = {}
        if field not in cache:
            path = self._sidecar_path(os.path.basename(vector_file("", field)))
            if path:
                with open(path, "rb") as f:
                    cache[field] = HnswGraph.from_npz_bytes(f.read())
            else:
                cache[field] = None
        return cache[field]

    def collection_partials(self) -> dict:
        return self.meta["stats"]
