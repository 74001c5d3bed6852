"""Posting-list block codec: FOR bit-packing, skip metadata, impacts.

Semantic contract (reference citations into /root/reference/lucene/core/src/
java/org/apache/lucene/):

- 256-doc blocks of delta-encoded docIDs + term freqs, bit-packed at a
  per-block width (codecs/lucene104/ForUtil.java:26-80 BLOCK_SIZE=256,
  Lucene104PostingsWriter.java:389-538).  The byte layout here is our own
  (numpy little-endian bit matrix); only decoded values and skip/impact
  semantics must match, per SURVEY §1.3.
- Per-block skip entry: last docID + byte offsets (level-0 skip,
  Lucene104PostingsFormat.java:152-226).  Only the last docID and the bit
  widths reach disk: the byte offsets are prefix sums of each block's
  ``ceil(len * width / 8)`` and are derived at open (segment.py).
- Per-block competitive impacts: the Pareto skyline of (freq, norm) pairs,
  freq strictly increasing with unsigned-byte norm
  (codecs/CompetitiveImpactAccumulator.java:26-123).
- Singleton pulsing: docFreq==1 terms store (docID, freq) inline in the term
  table and have no blocks (Lucene104PostingsFormat.java:138-141); on disk
  the docID column holds singletons only and the freq is the term's
  totalTermFreq.

All encode paths are vectorized over the whole segment (no per-term Python
loop): see ``encode_postings``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BLOCK_SIZE = 256  # ForUtil.java:34


def pack_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Pack non-negative ints < 2**width into a uint8 buffer (LSB-first rows).

    Layout: a (n, width) bit matrix, row-major, bit b of row i = bit b of
    values[i]; flattened then packbits(bitorder='little').  Width 0 -> empty.
    """
    if width == 0:
        return np.empty(0, dtype=np.uint8)
    n = len(values)
    v = values.astype(np.uint64)
    shifts = np.arange(width, dtype=np.uint64)
    bits = ((v[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    return np.packbits(bits.ravel(), bitorder="little")


def unpack_bits(buf: np.ndarray, n: int, width: int) -> np.ndarray:
    """Inverse of pack_bits -> int64 array of length n."""
    if width == 0:
        return np.zeros(n, dtype=np.int64)
    bits = np.unpackbits(buf, count=n * width, bitorder="little")
    bits = bits.reshape(n, width).astype(np.int64)
    weights = (1 << np.arange(width, dtype=np.int64))
    return bits @ weights


def _bit_width(values: np.ndarray) -> np.ndarray:
    """Element-wise number of bits needed (0 for value 0)."""
    out = np.zeros(len(values), dtype=np.int32)
    nz = values > 0
    out[nz] = np.floor(np.log2(values[nz].astype(np.float64))).astype(np.int32) + 1
    return out


@dataclass
class EncodedPostings:
    """Columnar encoded postings for one segment (one field), in memory.

    Per-term arrays are aligned with the sorted unique term list (not held
    here; see segment.py).  The dtypes below are what ``encode_postings``
    returns and what ``SegmentReader`` rebuilds.  On disk (segment.py) the
    starts, offsets, block counts and lengths, singleton freqs and
    max_freq / min_norm_at_max are not stored — they follow from the
    counts — and every other integer column is stored at its narrowest
    unsigned width.
    """

    # per term
    doc_freq: np.ndarray  # int32
    total_term_freq: np.ndarray  # int64
    block_start: np.ndarray  # int64 index into block arrays (derived on disk)
    block_count: np.ndarray  # int32 ceil(doc_freq / BLOCK_SIZE), 0 for singletons
    singleton_doc: np.ndarray  # int32, -1 if df != 1
    singleton_freq: np.ndarray  # int32 == total_term_freq where df == 1, else 0
    max_freq: np.ndarray  # int32 global max freq per term
    min_norm_at_max: np.ndarray  # uint8 — norm of global top impact (see impacts)
    term_imp_start: np.ndarray  # int64 into term-level impact arrays
    term_imp_count: np.ndarray  # int32
    # per block
    block_last_doc: np.ndarray  # int32
    block_len: np.ndarray  # int32 number of postings in block (BLOCK_SIZE but a term's last)
    block_doc_bits: np.ndarray  # uint8
    block_freq_bits: np.ndarray  # uint8
    block_doc_off: np.ndarray  # int64 byte offset into packed_docs
    block_freq_off: np.ndarray  # int64
    block_imp_start: np.ndarray  # int64 into block impact arrays
    block_imp_count: np.ndarray  # int32
    # impact pools
    imp_freq: np.ndarray  # int32
    imp_norm: np.ndarray  # uint8
    term_imp_freq: np.ndarray  # int32  (whole-term skyline)
    term_imp_norm: np.ndarray  # uint8
    # PFoR exception pools for freq blocks (PForUtil.java:29,51-121: up to
    # 7 patched exceptions per block, byte-sized high parts)
    block_exc_start: np.ndarray  # int64 into exc pools
    block_exc_count: np.ndarray  # int32
    exc_pos: np.ndarray  # uint8 — value index within the block
    exc_high: np.ndarray  # uint8 — bits above the block width
    # packed buffers
    packed_docs: np.ndarray  # uint8
    packed_freqs: np.ndarray  # uint8

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def _segmented_skyline(keys: np.ndarray, norms: np.ndarray, freqs: np.ndarray):
    """Competitive (freq, norm) skylines for many groups at once.

    For each group id in ``keys`` (non-decreasing), with per-entry (norm,
    freq), computes the skyline per CompetitiveImpactAccumulator
    .getCompetitiveFreqNormPairs: scan norms in ascending unsigned order,
    keep pairs whose max-freq strictly exceeds every lower norm's max-freq.

    Returns (group_of_kept, kept_freq, kept_norm) sorted by (group, norm).
    """
    if len(keys) == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.astype(np.int32), e.astype(np.uint8)
    # max freq per (group, norm): one single-key sort on a packed int64
    # (group << 40 | norm << 32 | freq; freq < 2^32, group < 2^23 per the
    # 256-posting block ids of a <=5GB segment) — ~2x a 3-key lexsort
    if len(keys) and int(keys.max()) < (1 << 23) and int(freqs.max()) < (1 << 32):
        packed = (
            (keys.astype(np.int64) << 40)
            | (norms.astype(np.int64) << 32)
            | freqs.astype(np.int64)
        )
        order = np.argsort(packed, kind="stable")
    else:  # giant vocab/freq fallback: keys do not fit the packed key
        order = np.lexsort((freqs, norms, keys))
    k, n, f = keys[order], norms[order], freqs[order]
    # last entry of each (group, norm) run has the max freq (sorted by freq)
    boundary = np.ones(len(k), dtype=bool)
    boundary[:-1] = (k[1:] != k[:-1]) | (n[1:] != n[:-1])
    k, n, f = k[boundary], n[boundary], f[boundary]
    # segmented running max over norm-ascending entries within each group
    group_start = np.ones(len(k), dtype=bool)
    group_start[1:] = k[1:] != k[:-1]
    # segmented cummax: lift each group into its own monotonic band
    band = np.cumsum(group_start.astype(np.int64)) << 33
    cummax = np.maximum.accumulate(f.astype(np.int64) + band) - band
    prev_cummax = np.empty_like(cummax)
    prev_cummax[0] = -1
    prev_cummax[1:] = cummax[:-1]
    prev_cummax[group_start] = -1
    keep = f.astype(np.int64) > prev_cummax
    return k[keep], f[keep].astype(np.int32), n[keep].astype(np.uint8)


MAX_EXCEPTIONS = 7  # PForUtil.java:29 MAX_EXCEPTIONS
MAX_HIGH_BITS = 8  # exception high parts are byte-sized (PForUtil.java:51-121)


def _pfor_select(
    values: np.ndarray, blk_first: np.ndarray, block_len: np.ndarray
):
    """Per-block patched-FOR width selection for one value stream.

    For each block choose the bit width w minimizing
    ``ceil(len*w/8) + 2 * #exceptions`` subject to the reference limits
    (<= MAX_EXCEPTIONS patched values, high parts <= MAX_HIGH_BITS bits).
    Fully vectorized: a (n_blocks, 34) width histogram + suffix counts,
    then an argmin over candidate widths.

    Returns (widths uint8[n_blocks], masked_values, exc_start int64,
    exc_count int32, exc_pos uint8 pool, exc_high uint8 pool).
    """
    n_blocks = len(blk_first)
    m = len(values)
    if m == 0:
        e8 = np.empty(0, dtype=np.uint8)
        return (
            np.empty(0, dtype=np.uint8),
            values,
            np.zeros(n_blocks, dtype=np.int64),
            np.zeros(n_blocks, dtype=np.int32),
            e8,
            e8,
        )
    w_val = _bit_width(values)  # int32 per value, <= 33 for our freq/delta range
    blk_of = np.repeat(np.arange(n_blocks, dtype=np.int64), block_len)
    hist = np.zeros((n_blocks, 35), dtype=np.int32)
    np.add.at(hist, (blk_of, w_val), 1)
    # suffix[b, w] = #values with width >= w; count_gt[b, w] = width > w
    suffix = np.cumsum(hist[:, ::-1], axis=1)[:, ::-1]
    count_gt = suffix[:, 1:34]  # candidate widths w = 0..32
    wmax = np.maximum.reduceat(w_val, blk_first).astype(np.int32)
    ws = np.arange(33, dtype=np.int64)[None, :]
    cost = (block_len[:, None].astype(np.int64) * ws + 7) // 8 + 2 * count_gt
    valid = (
        (count_gt <= MAX_EXCEPTIONS)
        & (ws >= (wmax[:, None] - MAX_HIGH_BITS))
        & (ws <= wmax[:, None])
    )
    cost = np.where(valid, cost, 1 << 40)
    w_sel = cost.argmin(axis=1).astype(np.uint8)  # ties -> smallest width

    w_rep = w_sel[blk_of].astype(np.int32)
    is_exc = w_val > w_rep
    exc_count = np.bincount(blk_of[is_exc], minlength=n_blocks).astype(np.int32)
    exc_start = np.concatenate(([0], np.cumsum(exc_count, dtype=np.int64)))[:-1]
    idx_in_block = np.arange(m, dtype=np.int64) - np.repeat(blk_first, block_len)
    exc_pos = idx_in_block[is_exc].astype(np.uint8)
    exc_high = (values[is_exc] >> w_rep[is_exc]).astype(np.uint8)
    masked = values & ((np.int64(1) << w_rep.astype(np.int64)) - 1)
    return w_sel, masked, exc_start, exc_count, exc_pos, exc_high


def encode_postings(
    term_ids: np.ndarray,
    docids: np.ndarray,
    tfs: np.ndarray,
    norms: np.ndarray,
    n_terms: int,
) -> EncodedPostings:
    """Encode a fully term/doc-sorted postings run for one segment.

    ``term_ids`` must be non-decreasing; ``docids`` strictly increasing within
    each term (enforced, mirroring Lucene104PostingsWriter.java:265-267).
    ``norms`` is the per-doc uint8 norm array (indexed by local docid).
    """
    m = len(term_ids)
    docids = docids.astype(np.int64)
    tfs = tfs.astype(np.int64)

    # term run boundaries.  Zero-df terms are legal (delete-expunge merges
    # keep the dictionary slot); their term_start equals the NEXT term's
    # start — or m for a trailing one, which reduceat cannot take — so the
    # ttf reduction runs over nonzero-df starts only.
    df = np.bincount(term_ids, minlength=n_terms).astype(np.int64)
    term_start = np.concatenate(([0], np.cumsum(df)))[:-1]
    ttf = np.zeros(n_terms, dtype=np.int64)
    nz = df > 0
    if m and nz.any():
        ttf[nz] = np.add.reduceat(tfs, term_start[nz])

    # deltas (prev docid, -1 at term starts)
    prev = np.empty(m, dtype=np.int64)
    if m:
        prev[0] = -1
        prev[1:] = docids[:-1]
        prev[term_start[nz]] = -1
        deltas = docids - prev - 1  # >= 0
        if (deltas < 0).any():
            raise ValueError("docids out of order within term")
    else:
        deltas = docids

    # singleton pulsing
    singleton = df == 1
    singleton_doc = np.full(n_terms, -1, dtype=np.int32)
    singleton_freq = np.zeros(n_terms, dtype=np.int32)
    if m:
        s_idx = term_start[singleton]
        singleton_doc[singleton] = docids[s_idx].astype(np.int32)
        singleton_freq[singleton] = tfs[s_idx].astype(np.int32)

    # postings that go into blocks (df >= 2)
    in_blocks = np.repeat(~singleton, df)
    b_tids = term_ids[in_blocks]
    b_docs = docids[in_blocks]
    b_tfs = tfs[in_blocks]
    b_deltas = deltas[in_blocks]
    mb = len(b_tids)

    bdf = np.where(singleton, 0, df)
    b_term_start = np.concatenate(([0], np.cumsum(bdf)))[:-1]
    # index within term, block-of-term
    idx_in_term = np.arange(mb, dtype=np.int64) - np.repeat(b_term_start, bdf)
    blk_of_term = idx_in_term // BLOCK_SIZE
    blocks_per_term = ((bdf + BLOCK_SIZE - 1) // BLOCK_SIZE).astype(np.int64)
    block_start = np.concatenate(([0], np.cumsum(blocks_per_term)))[:-1]
    n_blocks = int(blocks_per_term.sum())
    blk_id = np.repeat(block_start, bdf) + blk_of_term  # per posting

    # per-block boundaries
    if mb:
        pstart = np.ones(mb, dtype=bool)
        pstart[1:] = blk_id[1:] != blk_id[:-1]
        blk_first = np.flatnonzero(pstart)
        block_len = np.diff(np.concatenate((blk_first, [mb]))).astype(np.int32)
        block_last_doc = b_docs[np.concatenate((blk_first[1:] - 1, [mb - 1]))].astype(np.int32)
    else:
        blk_first = np.empty(0, dtype=np.int64)
        block_len = np.empty(0, dtype=np.int32)
        block_last_doc = np.empty(0, dtype=np.int32)

    # per-block widths: docs at width-of-max FOR; freqs via patched FOR
    # (PForUtil semantics — freq streams are Zipfian, one hot value per
    # block would otherwise inflate the whole block's width)
    if mb:
        dmax = np.maximum.reduceat(b_deltas, blk_first)
        doc_bits = _bit_width(dmax).astype(np.uint8)
        (
            freq_bits,
            freq_masked,
            exc_start,
            exc_count,
            exc_pos,
            exc_high,
        ) = _pfor_select(b_tfs - 1, blk_first, block_len.astype(np.int64))
    else:
        doc_bits = np.empty(0, dtype=np.uint8)
        freq_bits = np.empty(0, dtype=np.uint8)
        freq_masked = b_tfs
        exc_start = np.empty(0, dtype=np.int64)
        exc_count = np.empty(0, dtype=np.int32)
        exc_pos = np.empty(0, dtype=np.uint8)
        exc_high = np.empty(0, dtype=np.uint8)

    # pack: group blocks by width, pack each group's postings contiguously,
    # then reassemble in block order
    def pack_all(values: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pack every block in ONE vectorized pass per distinct width.

        For width w, every value j of block i owns bits
        ``[block_bit_off[i] + j*w, ... + w)`` of a global (byte-padded per
        block) bit vector; a single scatter + np.packbits produces the
        whole byte stream — no per-block Python loop (merges re-encode
        millions of small tail blocks, where the loop dominated).
        """
        blens = ((block_len.astype(np.int64) * widths.astype(np.int64)) + 7) // 8
        offs = np.concatenate(([0], np.cumsum(blens)))
        buf = np.zeros(int(offs[-1]), dtype=np.uint8)
        for w in np.unique(widths):
            if w == 0:
                continue
            w = int(w)
            sel = np.flatnonzero(widths == w)
            lens = block_len[sel].astype(np.int64)
            n_vals = int(lens.sum())
            # value index per (block, j): ragged ranges
            val_base = np.repeat(blk_first[sel].astype(np.int64), lens)
            new_off = np.concatenate(([0], np.cumsum(lens[:-1])))
            within = np.arange(n_vals, dtype=np.int64) - np.repeat(new_off, lens)
            vals = values[val_base + within].astype(np.uint64)
            # bit matrix (n_vals, w), then scatter into the padded bit vector
            shifts = np.arange(w, dtype=np.uint64)
            bits = ((vals[:, None] >> shifts) & 1).astype(np.uint8)
            total_bits = int(blens[sel].sum()) * 8
            bitvec = np.zeros(total_bits, dtype=np.uint8)
            # remap per-block byte regions to a compact local bit space
            local_byte_off = np.concatenate(([0], np.cumsum(blens[sel])))[:-1]
            local_bit_start = np.repeat(local_byte_off * 8, lens) + within * w
            pos = (local_bit_start[:, None] + shifts.astype(np.int64)).ravel()
            bitvec[pos] = bits.ravel()
            packed = np.packbits(bitvec, bitorder="little")
            # scatter the contiguous local bytes back to global offsets
            dest = np.repeat(offs[sel], blens[sel]) + (
                np.arange(int(blens[sel].sum()), dtype=np.int64)
                - np.repeat(local_byte_off, blens[sel])
            )
            buf[dest] = packed
        return buf, offs[:-1]

    packed_docs, block_doc_off = pack_all(b_deltas, doc_bits)
    packed_freqs, block_freq_off = pack_all(freq_masked, freq_bits)

    # impacts: per block and whole-term skylines
    if mb:
        p_norms = norms[b_docs].astype(np.uint8)
        gk, gf, gn = _segmented_skyline(blk_id, p_norms, b_tfs.astype(np.int64))
        block_imp_count = np.bincount(gk, minlength=n_blocks).astype(np.int32)
        block_imp_start = np.concatenate(([0], np.cumsum(block_imp_count)))[:-1]
        tk, tf_imp, tn = _segmented_skyline(b_tids, p_norms, b_tfs.astype(np.int64))
        term_imp_count = np.bincount(tk, minlength=n_terms).astype(np.int32)
        term_imp_start = np.concatenate(([0], np.cumsum(term_imp_count)))[:-1]
    else:
        gf = np.empty(0, dtype=np.int32)
        gn = np.empty(0, dtype=np.uint8)
        tf_imp = np.empty(0, dtype=np.int32)
        tn = np.empty(0, dtype=np.uint8)
        block_imp_count = np.empty(0, dtype=np.int32)
        block_imp_start = np.empty(0, dtype=np.int64)
        term_imp_count = np.zeros(n_terms, dtype=np.int32)
        term_imp_start = np.zeros(n_terms, dtype=np.int64)

    # singleton terms: their whole-term impact is the single (freq, norm)
    if singleton.any():
        s_ids = np.flatnonzero(singleton)
        s_freq = singleton_freq[s_ids]
        s_norm = norms[singleton_doc[s_ids]].astype(np.uint8)
        # merge into the term-level impact pools (rebuild pools including them)
        all_tids = np.concatenate((np.repeat(np.arange(n_terms), term_imp_count), s_ids))
        all_f = np.concatenate((tf_imp, s_freq.astype(np.int32)))
        all_n = np.concatenate((tn, s_norm))
        order = np.argsort(all_tids, kind="stable")
        tk2, tf2, tn2 = _segmented_skyline(
            all_tids[order], all_n[order], all_f[order].astype(np.int64)
        )
        term_imp_count = np.bincount(tk2, minlength=n_terms).astype(np.int32)
        term_imp_start = np.concatenate(([0], np.cumsum(term_imp_count)))[:-1]
        tf_imp, tn = tf2, tn2

    max_freq = np.zeros(n_terms, dtype=np.int32)
    min_norm_at_max = np.zeros(n_terms, dtype=np.uint8)
    if len(tf_imp):
        last = term_imp_start + term_imp_count - 1
        has = term_imp_count > 0
        max_freq[has] = tf_imp[last[has]]
        min_norm_at_max[has] = tn[last[has]]

    return EncodedPostings(
        doc_freq=df.astype(np.int32),
        total_term_freq=ttf.astype(np.int64),
        block_start=block_start.astype(np.int64),
        block_count=blocks_per_term.astype(np.int32),
        singleton_doc=singleton_doc,
        singleton_freq=singleton_freq,
        max_freq=max_freq,
        min_norm_at_max=min_norm_at_max,
        term_imp_start=term_imp_start.astype(np.int64),
        term_imp_count=term_imp_count,
        block_last_doc=block_last_doc,
        block_len=block_len,
        block_doc_bits=doc_bits,
        block_freq_bits=freq_bits,
        block_doc_off=block_doc_off.astype(np.int64),
        block_freq_off=block_freq_off.astype(np.int64),
        block_imp_start=block_imp_start.astype(np.int64),
        block_imp_count=block_imp_count,
        imp_freq=gf.astype(np.int32),
        imp_norm=gn.astype(np.uint8),
        term_imp_freq=tf_imp.astype(np.int32),
        term_imp_norm=tn.astype(np.uint8),
        block_exc_start=exc_start.astype(np.int64),
        block_exc_count=exc_count.astype(np.int32),
        exc_pos=exc_pos,
        exc_high=exc_high,
        packed_docs=packed_docs,
        packed_freqs=packed_freqs,
    )


def decode_block(enc: EncodedPostings, block_idx: int, prev_last_doc: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode one block -> (docids int64, freqs int64)."""
    n = int(enc.block_len[block_idx])
    w = int(enc.block_doc_bits[block_idx])
    off = int(enc.block_doc_off[block_idx])
    nbytes = (n * w + 7) // 8
    deltas = unpack_bits(enc.packed_docs[off : off + nbytes], n, w)
    docids = np.cumsum(deltas + 1) + prev_last_doc
    fw = int(enc.block_freq_bits[block_idx])
    foff = int(enc.block_freq_off[block_idx])
    fbytes = (n * fw + 7) // 8
    raw = unpack_bits(enc.packed_freqs[foff : foff + fbytes], n, fw)
    ec = int(enc.block_exc_count[block_idx])
    if ec:
        es = int(enc.block_exc_start[block_idx])
        pos = np.asarray(enc.exc_pos[es : es + ec], dtype=np.int64)
        raw[pos] |= np.asarray(enc.exc_high[es : es + ec], dtype=np.int64) << fw
    return docids, raw + 1


def _ragged_within(lens: np.ndarray) -> np.ndarray:
    """[0..lens[0]), [0..lens[1]), ... concatenated."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lens[:-1])))
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lens)


def _unpack_all_blocks(
    packed: np.ndarray, widths: np.ndarray, lens: np.ndarray, offs: np.ndarray
) -> np.ndarray:
    """Unpack every block in one vectorized pass per distinct width.

    Returns the concatenated per-block values in block order (the inverse
    of pack_all's layout).
    """
    val_off = np.concatenate(([0], np.cumsum(lens)))
    out = np.zeros(int(val_off[-1]), dtype=np.int64)
    packed = np.asarray(packed)
    for w in np.unique(widths):
        w = int(w)
        sel = np.flatnonzero(widths == w)
        slens = lens[sel]
        gpos = np.repeat(val_off[sel], slens) + _ragged_within(slens)
        if w == 0:
            out[gpos] = 0
            continue
        blens = (slens * w + 7) // 8
        byte_idx = np.repeat(offs[sel], blens) + _ragged_within(blens)
        bits = np.unpackbits(packed[byte_idx], bitorder="little")
        local_byte_off = np.concatenate(([0], np.cumsum(blens[:-1])))
        local_bit_start = np.repeat(local_byte_off * 8, slens) + _ragged_within(slens) * w
        idx = local_bit_start[:, None] + np.arange(w)
        weights = (1 << np.arange(w, dtype=np.int64))
        out[gpos] = bits[idx].astype(np.int64) @ weights
    return out


def decode_range(
    enc: EncodedPostings, t_lo: int, t_hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode the postings of terms [t_lo, t_hi) -> (term_ids, docids,
    freqs), term-major order, term ids ABSOLUTE.

    The sectioned-merge primitive: a term's blocks are contiguous in block
    order and packed bytes, so a term range touches one contiguous slice
    of every per-block array — memory is bounded by the range's postings,
    never the segment (reference SegmentMerger.java:120-160 streams the
    same way via iterators).  Fully vectorized: singletons emitted
    wholesale, blocks unpacked in one pass per distinct bit width, docids
    recovered with a per-term segmented cumsum.
    """
    rng = np.arange(t_lo, t_hi, dtype=np.int64)
    sing_mask = enc.singleton_doc[rng] >= 0
    sing_tids = rng[sing_mask]
    s_docs = enc.singleton_doc[sing_tids].astype(np.int64)
    s_tfs = enc.singleton_freq[sing_tids].astype(np.int64)

    blocked = rng[~sing_mask & (enc.doc_freq[rng] > 0)]
    if len(blocked) == 0:
        order = np.argsort(sing_tids, kind="stable")
        return sing_tids[order], s_docs[order], s_tfs[order]

    block_start = np.asarray(enc.block_start, dtype=np.int64)
    b_lo = int(block_start[blocked[0]])
    b_hi = int(block_start[blocked[-1]] + enc.block_count[blocked[-1]])
    bl = np.asarray(enc.block_len[b_lo:b_hi], dtype=np.int64)
    deltas = _unpack_all_blocks(
        enc.packed_docs,
        np.asarray(enc.block_doc_bits[b_lo:b_hi], dtype=np.int64),
        bl,
        np.asarray(enc.block_doc_off[b_lo:b_hi], dtype=np.int64),
    )
    raw_f = _unpack_all_blocks(
        enc.packed_freqs,
        np.asarray(enc.block_freq_bits[b_lo:b_hi], dtype=np.int64),
        bl,
        np.asarray(enc.block_freq_off[b_lo:b_hi], dtype=np.int64),
    )
    # patch PFoR freq exceptions for this block range (pools contiguous)
    ec = np.asarray(enc.block_exc_count[b_lo:b_hi], dtype=np.int64)
    n_exc = int(ec.sum())
    if n_exc:
        es0 = int(enc.block_exc_start[b_lo])
        pos = np.asarray(enc.exc_pos[es0 : es0 + n_exc], dtype=np.int64)
        high = np.asarray(enc.exc_high[es0 : es0 + n_exc], dtype=np.int64)
        voff = np.concatenate(([0], np.cumsum(bl)))[:-1]
        gpos = np.repeat(voff, ec) + pos
        shifts = np.repeat(
            np.asarray(enc.block_freq_bits[b_lo:b_hi], dtype=np.int64), ec
        )
        raw_f[gpos] |= high << shifts
    tfs_b = raw_f + 1
    # docids: per-term segmented cumsum of (delta + 1) starting at -1; a
    # term's blocks are contiguous in block order, so value order is right
    val_off = np.concatenate(([0], np.cumsum(bl)))
    t_counts = enc.doc_freq[blocked].astype(np.int64)
    t_first_val = val_off[block_start[blocked] - b_lo]
    inc = deltas + 1
    cum = np.cumsum(inc)
    base = cum[t_first_val] - inc[t_first_val]
    docs_b = cum - np.repeat(base, t_counts) - 1
    tids_b = np.repeat(blocked, t_counts)

    tids = np.concatenate((sing_tids, tids_b))
    docs = np.concatenate((s_docs, docs_b))
    tfs = np.concatenate((s_tfs, tfs_b))
    order = np.argsort(tids, kind="stable")  # term-major; docids sorted per term
    return tids[order], docs[order], tfs[order]


def decode_all(enc: EncodedPostings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode a whole segment -> (term_ids, docids, freqs), term-major order."""
    return decode_range(enc, 0, len(enc.doc_freq))


def decode_term(enc: EncodedPostings, term_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode a whole posting list -> (docids, freqs); includes singletons."""
    if enc.doc_freq[term_id] == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if enc.singleton_doc[term_id] >= 0:
        return (
            np.array([enc.singleton_doc[term_id]], dtype=np.int64),
            np.array([enc.singleton_freq[term_id]], dtype=np.int64),
        )
    bs = int(enc.block_start[term_id])
    bc = int(enc.block_count[term_id])
    docs_out, freqs_out = [], []
    prev = -1
    for b in range(bs, bs + bc):
        d, f = decode_block(enc, b, prev)
        prev = int(d[-1])
        docs_out.append(d)
        freqs_out.append(f)
    return np.concatenate(docs_out), np.concatenate(freqs_out)
