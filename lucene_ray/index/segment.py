"""Segment build + SegmentReader.

A segment is one immutable mini-index (reference: index/SegmentInfo.java,
SegmentReader.java) produced by one partition of the build pipeline:

    seg_<name>/
      terms.bin                            term dictionary + every term and
                                           block column (layout below)
      packed_docs.npy, packed_freqs.npy    bit-packed postings blocks
      norms.npy                            uint8 per local docid
      bloom_sm64.npy                       bloom bitset of the dictionary
      pos_data.npy, pos_off.npy            positions (optional), with
      [off_start.npy, off_end.npy,         offsets and payloads 1:1 with
       pay_data.npy]                       pos_data
      [tv_tid.npy, tv_tf.npy,              term vectors (optional)
       tv_row_start.npy]
      docs.parquet                         stored-fields table (docid, repo,
                                           path, commit, lang, sha256)
      meta.json                            maxDoc, docBase, partial stats,
                                           lineage + metrics (north rule),
                                           incl. the bytes of each part

``terms.bin`` bundles the small per-term and per-block columns into one
file (Lucene90CompoundFormat bundles a small segment's files the same
way): an 8-byte magic, a little-endian uint32 length, a JSON column
directory ``[[name, dtype, offset, length], ...]``, then every column,
8-byte aligned.  Only columns that no other column determines are stored
(the block-tree terms writer likewise keeps counts and derives file
pointers), each at the narrowest unsigned dtype that holds its values:

    dictionary  term_len (per term), term_bytes
    per term    doc_freq, total_term_freq, term_imp_count
    singletons  singleton_doc (one per doc_freq == 1 term, in term order)
    per block   block_last_doc, block_doc_bits, block_freq_bits,
                block_imp_count, block_exc_count
    pools       imp_freq, imp_norm, term_imp_freq, term_imp_norm,
                exc_pos, exc_high

At open the reader derives the rest (``_postings_from_columns``): every
start and byte offset is an exclusive prefix sum of a count (a block's
packed bytes are ``ceil(block_len * bits / 8)``), block counts and lengths
follow from doc_freq and the 256-posting block size, a singleton's freq is
its total_term_freq, and max_freq / min_norm_at_max are the last entry of
each term's impact skyline.  The result is the same in-memory
``postings.EncodedPostings``, dtypes included, that ``encode_postings``
returns, so nothing above this module sees the on-disk layout.  The
positions' per-term row starts (prefix sums of doc_freq) are derived too.

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
import struct

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import bloom as bloom_mod

from .. import store
from . import postings as codec

NO_MORE_DOCS = 2**31 - 1

COLUMNS_FILE = "terms.bin"
_COLUMNS_MAGIC = b"LRTERMS1"
# EncodedPostings arrays stored in COLUMNS_FILE, by length
TERM_COLUMNS = ("doc_freq", "total_term_freq", "term_imp_count")
BLOCK_COLUMNS = (
    "block_last_doc", "block_doc_bits", "block_freq_bits", "block_imp_count",
    "block_exc_count",
)
POOL_COLUMNS = ("imp_freq", "imp_norm", "term_imp_freq", "term_imp_norm", "exc_pos", "exc_high")
STORED_COLUMNS = TERM_COLUMNS + ("singleton_doc",) + BLOCK_COLUMNS + POOL_COLUMNS


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

    The flush is the one-section case of ``StreamingSegmentWriter``, so a
    flushed and a merged segment over the same rows hold the same bytes.
    It calls the writer's underscore methods: perfbench/trace.py counts
    the public ``append_section`` / ``finalize`` as merge writes.
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

    with_pos = positions is not None
    writer = StreamingSegmentWriter(
        seg_dir, uniq, norms, meta, with_pos,
        with_offsets=with_pos and offsets is not None,
        with_payloads=with_pos and payloads is not None,
    )
    try:
        writer._append(enc, tfs, positions, offsets, payloads)
        if term_vectors:
            # forward index (TermVectorsWriter analogue,
            # codecs/lucene90/compressing/Lucene90CompressingTermVectorsWriter.java):
            # per-doc (tid, tf) rows as CSR over local docids — the same
            # flush rows transposed by one integer lexsort
            tv_order = np.lexsort((term_ids, docids))
            tid, tf, rs = writer.term_vector_sink(len(term_ids), int(meta["max_doc"]))
            tid[:] = term_ids[tv_order]
            tf[:] = tfs[tv_order]
            rs[:] = np.searchsorted(docids[tv_order], np.arange(int(meta["max_doc"]) + 1))
            del tid, tf, rs  # flush memmaps
        if doc_table is not None:
            pq.write_table(doc_table, os.path.join(writer.tmp, "docs.parquet"))
        return writer._finalize()
    except BaseException:
        writer.abort()
        raise


def _narrowest(a: np.ndarray) -> np.ndarray:
    """``a`` at the narrowest little-endian unsigned dtype holding its
    values (uint8 when empty), so the dtype depends only on the values."""
    a = np.asarray(a)
    if len(a) and int(a.min()) < 0:
        raise ValueError("negative value in an unsigned segment column")
    top = int(a.max()) if len(a) else 0
    for dt in ("<u1", "<u2", "<u4", "<u8"):
        if top <= np.iinfo(dt).max:
            return a.astype(dt, copy=False)
    raise ValueError(f"value {top} does not fit 64 bits")


def _pad8(n: int) -> int:
    return (n + 7) & ~7


def write_columns(seg_dir: str, cols: dict[str, np.ndarray]) -> dict[str, int]:
    """Write named non-negative integer columns into ``seg_dir``'s
    COLUMNS_FILE (layout in the module docstring), each at its narrowest
    dtype.  Returns the padded bytes each column takes."""
    narrow = {name: _narrowest(a) for name, a in cols.items()}
    entries, sizes, off = [], {}, 0
    for name, a in narrow.items():
        entries.append([name, a.dtype.str, off, len(a)])
        sizes[name] = _pad8(a.nbytes)
        off += sizes[name]
    head = json.dumps(entries, separators=(",", ":")).encode()
    head_len = len(_COLUMNS_MAGIC) + 4 + len(head)
    with open(os.path.join(seg_dir, COLUMNS_FILE), "wb") as f:
        f.write(_COLUMNS_MAGIC + struct.pack("<I", len(head)) + head)
        f.write(bytes(_pad8(head_len) - head_len))
        for name, a in narrow.items():
            f.write(a.tobytes())
            f.write(bytes(sizes[name] - a.nbytes))
    return sizes


def read_columns(seg_dir: str) -> dict[str, np.ndarray]:
    """Every column of ``seg_dir``'s COLUMNS_FILE at its stored dtype
    (views into one in-memory read of the file)."""
    path = os.path.join(seg_dir, COLUMNS_FILE)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"{seg_dir}: no {COLUMNS_FILE}; segments in the older layout (one "
            ".npy file per array) cannot be opened, rebuild the index"
        )
    raw = np.fromfile(path, dtype=np.uint8)
    magic = len(_COLUMNS_MAGIC)
    if raw[:magic].tobytes() != _COLUMNS_MAGIC:
        raise ValueError(f"{path}: not a segment column file")
    n = int.from_bytes(raw[magic : magic + 4].tobytes(), "little")
    base = _pad8(magic + 4 + n)
    out = {}
    for name, dt, off, length in json.loads(raw[magic + 4 : magic + 4 + n].tobytes()):
        dt = np.dtype(dt)
        out[name] = raw[base + off : base + off + length * dt.itemsize].view(dt)
    return out


def _stored_columns(enc: "codec.EncodedPostings") -> dict[str, np.ndarray]:
    """The EncodedPostings columns COLUMNS_FILE keeps, in file order."""
    return {
        n: enc.singleton_doc[enc.doc_freq == 1] if n == "singleton_doc" else getattr(enc, n)
        for n in STORED_COLUMNS
    }


def _excl_cumsum(counts: np.ndarray) -> np.ndarray:
    """int64 exclusive prefix sum: the start of each run of ``counts``."""
    out = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], dtype=np.int64, out=out[1:])
    return out


def _postings_from_columns(
    cols: dict[str, np.ndarray], packed_docs: np.ndarray, packed_freqs: np.ndarray
) -> "codec.EncodedPostings":
    """Rebuild ``encode_postings``'s EncodedPostings (values and dtypes)
    from the stored columns; see the module docstring for each rule."""
    bs = codec.BLOCK_SIZE
    df = cols["doc_freq"].astype(np.int32)
    single = df == 1
    blocked_df = np.where(single, 0, df).astype(np.int64)
    block_count = (blocked_df + bs - 1) // bs
    block_start = _excl_cumsum(block_count)
    # every block is full but a term's last
    block_len = np.full(int(block_count.sum()), bs, dtype=np.int32)
    has = block_count > 0
    block_len[(block_start + block_count - 1)[has]] = (
        blocked_df[has] - bs * (block_count[has] - 1)
    )
    ttf = cols["total_term_freq"].astype(np.int64)
    singleton_doc = np.full(len(df), -1, dtype=np.int32)
    singleton_doc[single] = cols["singleton_doc"]
    term_imp_count = cols["term_imp_count"].astype(np.int32)
    term_imp_start = _excl_cumsum(term_imp_count)
    term_imp_freq = cols["term_imp_freq"].astype(np.int32)
    term_imp_norm = cols["term_imp_norm"].astype(np.uint8)
    # a skyline ascends in freq: its last pair is the term's top impact
    max_freq = np.zeros(len(df), dtype=np.int32)
    min_norm_at_max = np.zeros(len(df), dtype=np.uint8)
    has = term_imp_count > 0
    last = (term_imp_start + term_imp_count - 1)[has]
    max_freq[has] = term_imp_freq[last]
    min_norm_at_max[has] = term_imp_norm[last]
    doc_bits = cols["block_doc_bits"].astype(np.uint8)
    freq_bits = cols["block_freq_bits"].astype(np.uint8)
    lens = block_len.astype(np.int64)
    block_imp_count = cols["block_imp_count"].astype(np.int32)
    block_exc_count = cols["block_exc_count"].astype(np.int32)
    return codec.EncodedPostings(
        doc_freq=df,
        total_term_freq=ttf,
        block_start=block_start,
        block_count=block_count.astype(np.int32),
        singleton_doc=singleton_doc,
        singleton_freq=np.where(single, ttf, 0).astype(np.int32),
        max_freq=max_freq,
        min_norm_at_max=min_norm_at_max,
        term_imp_start=term_imp_start,
        term_imp_count=term_imp_count,
        block_last_doc=cols["block_last_doc"].astype(np.int32),
        block_len=block_len,
        block_doc_bits=doc_bits,
        block_freq_bits=freq_bits,
        block_doc_off=_excl_cumsum((lens * doc_bits + 7) // 8),
        block_freq_off=_excl_cumsum((lens * freq_bits + 7) // 8),
        block_imp_start=_excl_cumsum(block_imp_count),
        block_imp_count=block_imp_count,
        imp_freq=cols["imp_freq"].astype(np.int32),
        imp_norm=cols["imp_norm"].astype(np.uint8),
        term_imp_freq=term_imp_freq,
        term_imp_norm=term_imp_norm,
        block_exc_start=_excl_cumsum(block_exc_count),
        block_exc_count=block_exc_count,
        exc_pos=cols["exc_pos"].astype(np.uint8),
        exc_high=cols["exc_high"].astype(np.uint8),
        packed_docs=packed_docs,
        packed_freqs=packed_freqs,
    )


def _dictionary(vocab: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(offsets int64[n + 1], UTF-8 bytes) of a sorted term array."""
    buf = pc.cast(vocab, pa.large_binary())
    if not len(buf):
        return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.uint8)
    offs = np.frombuffer(buf.buffers()[1], dtype=np.int64)[
        buf.offset : buf.offset + len(buf) + 1
    ]
    data = np.frombuffer(buf.buffers()[2], dtype=np.uint8)[offs[0] : offs[-1]].copy()
    return offs - offs[0], data


def _part_of(fname: str) -> str:
    """The ``bytes_by_part`` bucket of a segment file."""
    if fname.startswith("packed_"):
        return "postings"
    if fname.startswith(("pos_", "off_", "pay_")):
        return "positions"
    if fname.startswith("tv_"):
        return "term_vectors"
    return {"norms.npy": "norms", bloom_mod.FILE: "bloom", "docs.parquet": "stored"}[fname]


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
    """The one segment writer.  The flush (``build_segment_from_ids``)
    appends its whole encoded run as one section; the sectioned merge
    appends term-range sections in term order, so peak memory is one
    section of postings, not the segment (SegmentMerger streams the same
    way).  Packed postings and positions stream to disk section by
    section.  The term and block columns are gathered in RAM (a few bytes
    per term and per block) and written once, at finalize, into
    COLUMNS_FILE: none of them is an offset, so sections concatenate
    without rebasing, and each column's dtype is chosen from its final
    values — a flushed and a merged segment over the same rows hold the
    same bytes.

    Contract: sections arrive in term order and never split a term; the
    vocabulary and norms are known up front."""

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

        offsets, data = _dictionary(vocab)
        # bloom-filtered term dictionary (BloomFilteringPostingsFormat):
        # point lookups skip this segment on a bloom miss without touching
        # the dictionary
        np.save(
            os.path.join(self.tmp, bloom_mod.FILE),
            bloom_mod.build_bloom_from_dict(offsets, data),
        )
        self._cols: dict[str, list[np.ndarray]] = {
            "term_len": [np.diff(offsets)], "term_bytes": [data],
            **{name: [] for name in STORED_COLUMNS},
        }

        self.w = {
            name: NpyAppender(os.path.join(self.tmp, f"{name}.npy"), np.uint8)
            for name in ("packed_docs", "packed_freqs")
        }
        if with_positions:
            self.w["pos_data"] = NpyAppender(os.path.join(self.tmp, "pos_data.npy"), np.int32)
            self.w["pos_off"] = NpyAppender(os.path.join(self.tmp, "pos_off.npy"), np.int64)
            self.w["pos_off"].append(np.zeros(1, dtype=np.int64))
        if with_offsets:
            # per-occurrence char offsets, 1:1 with pos_data (IndexOptions
            # DOCS_AND_FREQS_AND_POSITIONS_AND_OFFSETS; OffsetAttribute)
            self.w["off_start"] = NpyAppender(os.path.join(self.tmp, "off_start.npy"), np.int32)
            self.w["off_end"] = NpyAppender(os.path.join(self.tmp, "off_end.npy"), np.int32)
        if with_payloads:
            # per-occurrence int32 payloads, 1:1 with pos_data (the
            # PayloadAttribute stream; the reference's byte[] generalization
            # is not needed for scoring)
            self.w["pay_data"] = NpyAppender(os.path.join(self.tmp, "pay_data.npy"), np.int32)

        # accumulated metrics (and the running position-stream base)
        self._blocks = 0
        self._doc_bytes = 0
        self._freq_bytes = 0
        self._freq_exc = 0
        self._pos_vals = 0
        self._terms_written = 0
        self._n_postings = 0
        self._sum_ttf = 0

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
        self._append(enc, row_tfs, positions, offsets, payloads)

    def _append(self, enc, row_tfs, positions, offsets, payloads) -> None:
        for name, col in _stored_columns(enc).items():
            self._cols[name].append(col)
        w = self.w
        w["packed_docs"].append(enc.packed_docs)
        w["packed_freqs"].append(enc.packed_freqs)
        if self.with_positions:
            assert positions is not None and row_tfs is not None
            w["pos_data"].append(positions)
            w["pos_off"].append(np.cumsum(row_tfs, dtype=np.int64) + self._pos_vals)
            self._pos_vals += int(row_tfs.sum())
        if self.with_offsets:
            assert offsets is not None
            w["off_start"].append(offsets[0])
            w["off_end"].append(offsets[1])
        if self.with_payloads:
            assert payloads is not None
            w["pay_data"].append(payloads)

        self._blocks += len(enc.block_last_doc)
        self._doc_bytes += int(enc.packed_docs.nbytes)
        self._freq_bytes += int(enc.packed_freqs.nbytes)
        self._freq_exc += len(enc.exc_pos)
        self._terms_written += len(enc.doc_freq)
        self._n_postings += int(enc.doc_freq.sum())
        self._sum_ttf += int(enc.total_term_freq.sum())

    def term_vector_sink(
        self, total_rows: int, max_doc: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Open memmapped term-vector arrays in the tmp dir for incremental
        fill: the flush writes its transposed rows, a merge streams
        remapped CSR chunks in merged-doc order (memory bounded to one
        chunk)."""
        from numpy.lib.format import open_memmap

        def sink(name, dtype, n):
            return open_memmap(
                os.path.join(self.tmp, name), mode="w+", dtype=dtype, shape=(int(n),)
            )

        return (
            sink("tv_tid.npy", np.int64, total_rows),
            sink("tv_tf.npy", np.int32, total_rows),
            sink("tv_row_start.npy", np.int64, int(max_doc) + 1),
        )

    def finalize(self) -> dict:
        return self._finalize()

    def _finalize(self) -> dict:
        assert self._terms_written == self.n_terms, (self._terms_written, self.n_terms)
        for a in self.w.values():
            a.close()
        np.save(os.path.join(self.tmp, "norms.npy"), self.norms)
        sizes = write_columns(
            self.tmp,
            {
                name: np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint8)
                for name, parts in self._cols.items()
            },
        )
        parts = dict.fromkeys(
            ("dictionary", "term_meta", "postings", "positions", "term_vectors",
             "norms", "bloom", "stored"),
            0,
        )
        for fname in os.listdir(self.tmp):
            size = os.path.getsize(os.path.join(self.tmp, fname))
            if fname == COLUMNS_FILE:
                dict_bytes = sizes["term_len"] + sizes["term_bytes"]
                parts["dictionary"] += dict_bytes
                parts["term_meta"] += size - dict_bytes
            else:
                parts[_part_of(fname)] += size
        metrics = {
            "n_terms": int(self.n_terms),
            "n_postings": int(self._n_postings),
            "n_blocks": int(self._blocks),
            "packed_doc_bytes": int(self._doc_bytes),
            "packed_freq_bytes": int(self._freq_bytes),
            "freq_exception_bytes": int(2 * self._freq_exc),
            "sum_total_term_freq": int(self._sum_ttf),
            "sum_doc_freq": int(self._n_postings),
            "doc_count": int((self.norms > 0).sum()),
            "bytes_by_part": parts,
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
        for a in self.w.values():
            if not a.f.closed:
                a.f.close()
        if os.path.exists(self.tmp):
            shutil.rmtree(self.tmp)


class SegmentReader:
    """Opens one segment: the term and block columns are read into RAM
    and widened (COLUMNS_FILE, one read), the packed postings, norms and
    positions are memory-mapped.  Serves term lookups, postings cursors
    and norms.  Held inside query actors (SURVEY §2.1 Segment reader
    row)."""

    def __init__(self, seg_dir: str, mmap: bool = True, decode_cache: int = 256):
        # Directory seam: a remote seg_dir (scheme://) is synced once into
        # the node-local read-through cache; everything below reads the
        # local copy (MMapDirectory fast path over any shared prefix)
        self.src_dir = seg_dir
        self.dir = seg_dir = store.localize_dir(seg_dir)
        mm = "r" if mmap else None
        # hot-term decoded-postings LRU (Lucene leans on the OS page cache +
        # branch-free decode; we amortize the Python block loop instead)
        self._decode_cache_size = decode_cache
        self._decode_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        cols = read_columns(seg_dir)
        self.term_offsets = np.zeros(len(cols["term_len"]) + 1, dtype=np.int64)
        np.cumsum(cols["term_len"], dtype=np.int64, out=self.term_offsets[1:])
        self.term_bytes = cols["term_bytes"]
        self.enc = _postings_from_columns(
            cols,
            np.load(os.path.join(seg_dir, "packed_docs.npy"), mmap_mode=mm),
            np.load(os.path.join(seg_dir, "packed_freqs.npy"), mmap_mode=mm),
        )
        self.norms = np.load(os.path.join(seg_dir, "norms.npy"), mmap_mode=mm)
        pos_path = os.path.join(seg_dir, "pos_data.npy")
        self.has_positions = os.path.exists(pos_path)
        if self.has_positions:
            self.pos_data = np.load(pos_path, mmap_mode=mm)
            # row index of each term's first posting
            self.pos_row_start = np.zeros(self.enc.doc_freq.size + 1, dtype=np.int64)
            np.cumsum(self.enc.doc_freq, dtype=np.int64, out=self.pos_row_start[1:])
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
        ~log2(V) Python bisect steps of dictionary slicing; ties within an
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
