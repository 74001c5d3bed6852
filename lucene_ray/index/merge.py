"""Tiered segment merging: planner + Ray merge tasks + manifest commit.

Planner: a faithful adaptation of the reference TieredMergePolicy budget
and scoring (index/TieredMergePolicy.java:77-83 defaults, :375-419 budget,
:676-742 candidate score = skew * totAfterMergeBytes^0.05 * nonDelRatio^2
— we are append-only, so nonDelRatio == 1), with ONE deliberate deviation:
candidates are runs of ADJACENT segments in manifest order.  Our global
docID contract (global = doc_base + local, bases contiguous in manifest
order, SURVEY §1.1 docID row) makes merges of adjacent runs preserve every
global docID of an unsorted index — which keeps ranking bit-reproducible
across merges, a property the differential tests rely on.  (Lucene itself
renumbers docIDs on merge; LogMergePolicy is likewise adjacent-only.)

Merge task: ONE executor, ``merge_segments_task``, runs every merge —
tiered, forced, expunging, index-sorted and BP-reordered.  It is
STREAMING and sectioned: the merged vocabulary is cut at term boundaries
into <= section_postings-posting sections; each section decodes its term
range from every input (contiguous block/byte slices), maps docids into
the merged segment, re-encodes, and appends to a StreamingSegmentWriter.
Impacts and skip data are REBUILT from scratch exactly like SegmentMerger
(SegmentMerger.java:120-160); live-docs are EXPUNGED with dense
renumbering; stored-field tables are rewritten with merged-local docids.
A prefetch thread prepares section i+1 while section i appends (two
sections in flight).

Doc map (MergeState.DocMap / Sorter): the kept (live) docs of the inputs,
concatenated in doc_base order, get dense ids k.  Without an order, new
docid = k (k-way merge degenerates to concat because input docid ranges
are disjoint and ordered — reference DocIDMerger.java:32-122
sequential-base path), so global docids survive merges of an unsorted
index up to expunged deletes.  With an order, new docid j holds kept doc
``order[j]``: an index-sorted manifest derives it from the inputs' stored
sort column (the build's stable key, ties by segment ordinal and local
docid) and writes ``index_sort`` into the merged meta, and the BP
reorderer (index/bp.py) passes its permutation.  Postings, positions,
offsets, payloads, norms, term vectors, the stored ``docid`` column and
the doc-values update overlays all follow the same map, so a sorted merge
renumbers docs only inside the merged run's doc_base range.

Commit: a new manifest generation listing the post-merge segment set;
old segment dirs are garbage-collected only when no manifest generation
references them (``gc_unreferenced``), mirroring IndexFileDeleter
refcounting.

Scale: one Ray task per planned merge (ConcurrentMergeScheduler analogue;
merges are independent).  Peak task memory ~ 2 decoded sections
(DEFAULT_SECTION_POSTINGS = 1M postings each) + the RAM-resident merged
vocabulary, per-doc arrays and term/block columns (the writer gathers the
latter until finalize: a few bytes per term and per 256-posting block, so
well under a byte per posting) — the packed postings themselves stream.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa

from .. import store
from ..tasks import run_tasks
from . import manifest as mf
from . import postings as codec
from .deletes import load_dv_overlay, save_dv_overlay
from .segment import SegmentReader

# reference defaults, TieredMergePolicy.java:77-83
SEGS_PER_TIER = 8.0
FLOOR_SEGMENT_BYTES = 2 * 1024 * 1024  # scaled floor for our segment sizes
MAX_MERGED_SEGMENT_BYTES = 5 * 1024 ** 3
MAX_MERGE_AT_ONCE = 10


def _seg_bytes(entry: dict) -> int:
    m = entry.get("metrics", {})
    b = int(m.get("packed_doc_bytes", 0)) + int(m.get("packed_freq_bytes", 0))
    return max(b, 1024)


def allowed_segment_count(sizes: list[int]) -> int:
    """Budget from geometric tiers (TieredMergePolicy.java:375-419)."""
    total = sum(sizes)
    floor = FLOOR_SEGMENT_BYTES
    min_size = max(floor, min(sizes) if sizes else floor)
    allowed = 0.0
    level = min_size
    remaining = float(total)
    while True:
        seg_count_level = remaining / level
        if seg_count_level < SEGS_PER_TIER:
            allowed += np.ceil(seg_count_level)
            break
        allowed += SEGS_PER_TIER
        remaining -= SEGS_PER_TIER * level
        level *= SEGS_PER_TIER
    return max(int(allowed), 1)


def score_candidate(sizes: list[int]) -> float:
    """Lower is better (TieredMergePolicy.java:676-742; nonDelRatio == 1)."""
    total = sum(sizes)
    biggest = max(sizes)
    skew = biggest / total if total else 1.0
    return skew * (total ** 0.05)


def plan_merges(manifest: dict) -> list[list[int]]:
    """Ordinal runs to merge (adjacent-only; see module docstring)."""
    segs = manifest["segments"]
    sizes = [_seg_bytes(s) for s in segs]
    merges: list[list[int]] = []
    taken = [False] * len(segs)

    while True:
        live = [i for i in range(len(segs)) if not taken[i]]
        live_sizes = [sizes[i] for i in live]
        budget = allowed_segment_count(live_sizes)
        if len(live) <= budget:
            break
        best: tuple[float, list[int]] | None = None
        # enumerate adjacent windows of 2..MAX_MERGE_AT_ONCE live segments
        for wlen in range(2, min(MAX_MERGE_AT_ONCE, len(live)) + 1):
            for start in range(len(live) - wlen + 1):
                window = live[start : start + wlen]
                # window must be adjacent ordinals (no taken segment inside)
                if window[-1] - window[0] != wlen - 1:
                    continue
                wsizes = [sizes[i] for i in window]
                if sum(wsizes) > MAX_MERGED_SEGMENT_BYTES:
                    continue
                sc = score_candidate(wsizes)
                # prefer bigger merges on ties (reduces count faster)
                key = (sc, -wlen)
                if best is None or key < (best[0], -len(best[1])):
                    best = (sc, window)
        if best is None:
            break
        merges.append(best[1])
        for i in best[1]:
            taken[i] = True
    return merges


def plan_force_merge(manifest: dict, max_segments: int = 1) -> list[list[int]]:
    """forceMerge(max): adjacent runs partitioning the index into
    <= max_segments outputs (IndexWriter.forceMerge analogue)."""
    n = len(manifest["segments"])
    if n <= max_segments:
        return []
    sizes = [_seg_bytes(s) for s in manifest["segments"]]
    total = sum(sizes)
    target = total / max_segments
    runs: list[list[int]] = []
    cur: list[int] = []
    acc = 0
    for i in range(n):
        cur.append(i)
        acc += sizes[i]
        if acc >= target and len(runs) < max_segments - 1:
            runs.append(cur)
            cur, acc = [], 0
    if cur:
        runs.append(cur)
    return [r for r in runs if len(r) > 1]


# --- the MergePolicy seam (reference index/MergePolicy.java) ---------------
#
# A policy is any object with ``plan(manifest) -> list[list[int]]`` where
# each inner list is a run of ADJACENT segment ordinals (the global-docID
# contract; module docstring).  ``maybe_merge(index_dir, policy=...)``
# plugs any of them into the same streaming merge executor.

LEVEL_LOG_SPAN = 0.75  # reference LogMergePolicy.java:48
LOG_MERGE_FACTOR = 10  # LogMergePolicy.java:51 DEFAULT_MERGE_FACTOR


class TieredPolicy:
    """The default: the TieredMergePolicy budget planner above."""

    def plan(self, manifest: dict) -> list[list[int]]:
        return plan_merges(manifest)


class NoMergePolicy:
    """reference index/NoMergePolicy.java: never merges anything."""

    def plan(self, manifest: dict) -> list[list[int]]:
        return []


class LogMergePolicy:
    """Faithful adaptation of reference index/LogMergePolicy.java
    findMerges(): quantize log_mergeFactor(size) into levels (floored at
    ``min_merge_size``), sweep left to right claiming the rightmost
    segment within LEVEL_LOG_SPAN of each unquantized max (one unbounded
    level when every remaining segment sits at or below the floor, and
    levelBottom clamped up to the floor otherwise — the reference's
    floor-boundary rules), then emit runs of exactly ``merge_factor`` adjacent
    segments per level — skipping (as singleton no-ops) runs whose first
    segment alone exceeds ``max_merge_size`` / ``max_merge_docs``, and
    packing past mergeFactor while the accumulated run stays under
    ``min_merge_size`` (the small-segment packing rule).  Deviations: no
    concurrent-merge registry at plan time (our merges apply atomically
    between plan rounds), and size(info) has no deletes discount (the
    planner runs on append-only manifests; deletes expunge via
    expunge_deletes)."""

    merge_factor = LOG_MERGE_FACTOR
    min_merge_size = 0
    max_merge_size = 1 << 62
    max_merge_docs = 1 << 62

    def __init__(
        self,
        merge_factor: int = LOG_MERGE_FACTOR,
        target_search_concurrency: int = 1,
    ):
        if merge_factor < 2:
            raise ValueError("mergeFactor must be >= 2")
        self.merge_factor = int(merge_factor)
        self.target_search_concurrency = max(1, int(target_search_concurrency))

    def _size(self, entry: dict) -> int:
        raise NotImplementedError

    def _docs(self, entry: dict) -> int:
        return int(entry["max_doc"]) - int(entry.get("del_count", 0))

    def plan(self, manifest: dict) -> list[list[int]]:
        segs = manifest["segments"]
        n = len(segs)
        if n == 0:
            return []
        norm = float(np.log(self.merge_factor))
        sizes = [max(self._size(s), 1) for s in segs]
        docs = [self._docs(s) for s in segs]
        levels = [float(np.log(float(sz))) / norm for sz in sizes]
        total_docs = sum(docs)
        level_floor = (
            0.0
            if self.min_merge_size <= 0
            else float(np.log(float(self.min_merge_size))) / norm
        )
        # precomputed max level to the right (LogMergePolicy.java maxLevels)
        max_right = [-1.0] * (n + 1)
        for i in range(n - 1, -1, -1):
            max_right[i] = max(levels[i], max_right[i + 1])

        max_merge_docs = min(
            self.max_merge_docs,
            -(-total_docs // self.target_search_concurrency),  # ceilDiv
        )
        plans: list[list[int]] = []
        start = 0
        while start < n:
            max_level = max_right[start]
            if max_level <= level_floor:
                # all remaining segments are sub-floor: one unbounded level
                # (LogMergePolicy.findMerges levelBottom = -1.0F; levels are
                # log(size>=1) >= 0 so -1 admits everything)
                level_bottom = -1.0
            else:
                level_bottom = max_level - LEVEL_LOG_SPAN
                # force a boundary at the level floor
                if level_bottom < level_floor:
                    level_bottom = level_floor
            upto = n - 1
            while upto >= start and levels[upto] < level_bottom:
                upto -= 1
            # record all viable mergeFactor-runs at this level
            s0 = start
            end = s0 + self.merge_factor
            while end <= 1 + upto:
                merge_size = merge_docs = 0
                for i in range(s0, end):
                    if (
                        merge_size + sizes[i] > self.max_merge_size
                        or merge_docs + docs[i] > max_merge_docs
                    ):
                        # full: singleton skip if the FIRST segment alone
                        # is oversized, else cut the run before i
                        end = i + 1 if i == s0 else i
                        break
                    merge_size += sizes[i]
                    merge_docs += docs[i]
                else:
                    # packing rule: a full-factor run still under
                    # minMergeSize keeps absorbing neighbours
                    if (
                        end - s0 >= self.merge_factor
                        and self.min_merge_size < self.max_merge_size
                        and merge_size < self.min_merge_size
                    ):
                        while end < 1 + upto:
                            if (
                                merge_size + sizes[end] > self.min_merge_size
                                or merge_docs + docs[end] > max_merge_docs
                            ):
                                break
                            merge_size += sizes[end]
                            merge_docs += docs[end]
                            end += 1
                if end - s0 > 1:
                    plans.append(list(range(s0, end)))
                s0 = end
                end = s0 + self.merge_factor
            start = 1 + upto
        return plans


class LogDocMergePolicy(LogMergePolicy):
    """reference index/LogDocMergePolicy.java: size = live doc count,
    minMergeSize = DEFAULT_MIN_MERGE_DOCS = 1000, no byte cap."""

    def __init__(self, merge_factor: int = LOG_MERGE_FACTOR, **kw):
        super().__init__(merge_factor, **kw)
        self.min_merge_size = 1000
        self.max_merge_size = 1 << 62

    def _size(self, entry: dict) -> int:
        return self._docs(entry)


class LogByteSizeMergePolicy(LogMergePolicy):
    """reference index/LogByteSizeMergePolicy.java: size = packed postings
    bytes, minMergeSize 16MB / maxMergeSize 2GB defaults (:28,:34)."""

    def __init__(self, merge_factor: int = LOG_MERGE_FACTOR, **kw):
        super().__init__(merge_factor, **kw)
        self.min_merge_size = 16 * 1024 * 1024
        self.max_merge_size = 2048 * 1024 * 1024

    def _size(self, entry: dict) -> int:
        return _seg_bytes(entry)


class MergeOnFlushMergePolicy:
    """reference misc/index/MergeOnCommitMergePolicy-style wrapper: on a
    flush/commit trigger, additionally merges the TRAILING run of small
    segments (< ``small_bytes``) into one, so NRT flush storms don't pile
    up tiny segments; natural merges delegate to the wrapped policy."""

    def __init__(self, inner=None, small_bytes: int = FLOOR_SEGMENT_BYTES):
        self.inner = inner or TieredPolicy()
        self.small_bytes = int(small_bytes)

    def plan(self, manifest: dict) -> list[list[int]]:
        plans = self.inner.plan(manifest)
        taken = {i for p in plans for i in p}
        segs = manifest["segments"]
        run: list[int] = []
        for i in range(len(segs) - 1, -1, -1):
            if i in taken or _seg_bytes(segs[i]) >= self.small_bytes:
                break
            run.append(i)
        if len(run) > 1:
            plans.append(sorted(run))
        return plans


# 1M postings/section: per-section temporaries (~50MB) stay inside the
# malloc arena (lucene_ray._tune_malloc) and are REUSED by every later
# section, so a merge task pays first-touch page faults once instead of
# per-section — measured 4-4.5x faster per task in fresh worker processes
# on this host (13-19s vs 60-78s for a 1.8M-posting 25-way merge in a
# degraded-fault window; equal or better in quiet windows).  Fixed
# per-section overhead (per-reader searchsorted + decode-range slices +
# one writer append) is microseconds, so even a 5GB segment (~1.3e9
# postings -> ~1300 sections) stays append-bound.
DEFAULT_SECTION_POSTINGS = 1024 * 1024


def merge_segments_task(
    seg_entries: list[dict],
    out_dir: str,
    name: str,
    section_postings: int = DEFAULT_SECTION_POSTINGS,
    index_sort: list | None = None,
    order: np.ndarray | None = None,
) -> dict:
    """STREAMING sectioned merge: decode -> map docids -> re-encode one
    merged segment in bounded term-range sections.

    The merged vocabulary (sorted union of the input dictionaries, RAM-
    resident; on a small segment it and the term columns outweigh the
    packed postings, see segment.py) is split
    at term boundaries into sections of <= ``section_postings`` decoded
    postings; each section decodes only its term range from every input
    (``codec.decode_range`` — contiguous block/byte slices), remaps ids
    with the per-input monotone ``pc.index_in`` map, sorts by (merged term
    id, new docid), re-encodes, and APPENDS to a
    ``StreamingSegmentWriter``.  Peak memory ~ one section, regardless of
    segment size — the reference streams merges the same way
    (index/SegmentMerger.java:120-160 iterator-based mergeTerms,
    DocIDMerger.java:32-122 sequential-base path; impacts/skips rebuilt).
    A single pathological term larger than the budget gets a section of
    its own (terms never split).

    ``order`` is the doc map (module docstring): new docid j holds kept
    doc ``order[j]``.  When it is None and ``index_sort`` = (field,
    direction) is given, it is derived from the inputs' stored sort
    column; when both are None the kept docs keep their concatenated
    order.  Returns the segment metrics plus ``dv_updates``, the merged
    doc-values overlay paths by field.
    """
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from .build import _gather_row_slices, _row_slices
    from .segment import StreamingSegmentWriter

    t0 = time.time()
    readers = [SegmentReader(e["dir"]) for e in seg_entries]
    new_base = seg_entries[0]["doc_base"]
    max_doc = sum(int(e["max_doc"]) for e in seg_entries)
    with_pos = all(r.has_positions for r in readers)
    with_off = with_pos and all(getattr(r, "has_offsets", False) for r in readers)
    with_pay = with_pos and all(getattr(r, "has_payloads", False) for r in readers)

    # merged vocabulary: sorted union of the per-segment dictionaries.
    # ONE dictionary_encode over the concatenation yields both the unique
    # set and every input's mapping into it (first-appearance codes), then
    # a single sort permutation of the dictionary turns those codes into
    # sorted-vocab ids — ~9x faster than per-input hash joins (index_in)
    # and allocation-light, which matters on hosts where fresh page faults
    # stall (see BASELINE.md host-variance note).
    vocab_parts = [r.terms_array() for r in readers]
    _cat = pa.concat_arrays(vocab_parts)
    _de = pc.dictionary_encode(_cat)
    _dict = _de.dictionary
    _perm = pc.sort_indices(_dict)
    merged_vocab = _dict.take(_perm)
    n_merged = len(merged_vocab)
    _rank = np.empty(len(_dict), dtype=np.int64)
    _rank[_perm.to_numpy()] = np.arange(len(_dict), dtype=np.int64)
    _codes = _rank[_de.indices.to_numpy()]

    # live-docs expunge (deletes.py): deleted rows are dropped and the
    # surviving docids renumbered dense, reference SegmentMerger semantics
    lives: list[np.ndarray | None] = []
    live_prefix: list[np.ndarray | None] = []
    live_bases: list[int] = []
    shifts: list[int] = []
    remaps: list[np.ndarray] = []
    norm_parts: list[np.ndarray] = []
    local = 0
    live_local = 0
    _voff = 0
    for e, r, vp in zip(seg_entries, readers, vocab_parts):
        shift = int(e["doc_base"]) - new_base
        assert shift == local, "merge inputs must be adjacent in doc_base order"
        lp = e.get("livedocs")
        live = store.np_load(lp) if lp else None
        lives.append(live)
        if live is None:
            live_prefix.append(None)
            norm_parts.append(np.asarray(r.norms))
            n_live = r.max_doc
        else:
            live_prefix.append(np.cumsum(live, dtype=np.int64) - 1)
            norm_parts.append(np.asarray(r.norms)[live])
            n_live = int(live.sum())
        live_bases.append(live_local)
        shifts.append(shift)
        # strictly increasing: input dict is a sorted subset of the merged
        remaps.append(_codes[_voff : _voff + len(vp)])
        _voff += len(vp)
        local += r.max_doc
        live_local += n_live
    max_doc = live_local
    norms = (
        np.concatenate(norm_parts) if norm_parts else np.zeros(0, dtype=np.uint8)
    )
    if order is None and index_sort:
        order = _index_sort_order(readers, lives, index_sort)
    new_of_kept = None
    if order is not None:
        new_of_kept = np.empty(max_doc, dtype=np.int64)
        new_of_kept[order] = np.arange(max_doc, dtype=np.int64)
        norms = norms[order]

    # section boundaries from the merged per-term posting totals
    tot = np.zeros(n_merged, dtype=np.int64)
    for r, remap in zip(readers, remaps):
        tot += np.bincount(remap, weights=r.enc.doc_freq, minlength=n_merged).astype(
            np.int64
        )
    cum = np.cumsum(tot)

    meta = {
        "name": name,
        "max_doc": max_doc,
        "doc_base": new_base,
        "lineage": {
            "signature": "merge:" + "+".join(e["name"] for e in seg_entries),
            "inputs": [
                {"segment": e["name"], "doc_base": e["doc_base"], "max_doc": e["max_doc"]}
                for e in seg_entries
            ],
        },
    }
    if index_sort:
        meta["index_sort"] = list(index_sort)
    seg_dir = os.path.join(out_dir, name)
    writer = StreamingSegmentWriter(
        seg_dir, merged_vocab, norms, meta, with_pos,
        with_offsets=with_off, with_payloads=with_pay,
    )

    # section boundaries up front (term-aligned, <= section_postings each)
    bounds: list[tuple[int, int]] = []
    lo = 0
    while lo < n_merged:
        base = int(cum[lo - 1]) if lo else 0
        hi = int(np.searchsorted(cum, base + section_postings, side="right"))
        hi = max(hi, lo + 1)
        hi = min(hi, n_merged)
        bounds.append((lo, hi))
        lo = hi

    def _prepare(lo: int, hi: int):
        """Gather + remap + sort + encode one section (runs in the
        prefetch thread — numpy/Arrow kernels release the GIL, so the
        NEXT section's decode overlaps the CURRENT section's disk append;
        two sections in flight bound the memory)."""
        sec_tids: list[np.ndarray] = []
        sec_docs: list[np.ndarray] = []
        sec_tfs: list[np.ndarray] = []
        sec_pos: list[np.ndarray] = []
        sec_os: list[np.ndarray] = []
        sec_oe: list[np.ndarray] = []
        sec_pay: list[np.ndarray] = []
        for r, remap, live, lpfx, lbase in zip(
            readers, remaps, lives, live_prefix, live_bases
        ):
            a = int(np.searchsorted(remap, lo, side="left"))
            b = int(np.searchsorted(remap, hi, side="left"))
            if a == b:
                continue
            tids, docs, freqs = codec.decode_range(r.enc, a, b)
            if not len(tids):
                continue
            if with_pos:
                # decode_range row order == stored position row order (the
                # offset streams are 1:1 with pos_data, so the same slices
                # and gathers carry them)
                r0, r1 = int(r.pos_row_start[a]), int(r.pos_row_start[b])
                pos_slice = np.asarray(
                    r.pos_data[r.pos_off[r0] : r.pos_off[r1]]
                )
                if with_off:
                    os_slice = np.asarray(r.off_start[r.pos_off[r0] : r.pos_off[r1]])
                    oe_slice = np.asarray(r.off_end[r.pos_off[r0] : r.pos_off[r1]])
                if with_pay:
                    pay_slice = np.asarray(r.pay_data[r.pos_off[r0] : r.pos_off[r1]])
            if live is not None:
                keep = live[docs]
                if with_pos:
                    kept_rows = np.nonzero(keep)[0]
                    if with_off:
                        os_slice = _gather_row_slices(os_slice, freqs, kept_rows)
                        oe_slice = _gather_row_slices(oe_slice, freqs, kept_rows)
                    if with_pay:
                        pay_slice = _gather_row_slices(pay_slice, freqs, kept_rows)
                    pos_slice = _gather_row_slices(pos_slice, freqs, kept_rows)
                tids, freqs = tids[keep], freqs[keep]
                docs = lpfx[docs[keep]] + lbase
                if not len(tids):
                    continue
            else:
                docs = docs + lbase
            sec_tids.append(remap[tids])
            sec_docs.append(docs)
            sec_tfs.append(freqs)
            if with_pos:
                sec_pos.append(pos_slice)
            if with_off:
                sec_os.append(os_slice)
                sec_oe.append(oe_slice)
            if with_pay:
                sec_pay.append(pay_slice)

        tids = np.concatenate(sec_tids) if sec_tids else np.empty(0, dtype=np.int64)
        docs = np.concatenate(sec_docs) if sec_docs else np.empty(0, dtype=np.int64)
        tfs = np.concatenate(sec_tfs) if sec_tfs else np.empty(0, dtype=np.int64)
        if new_of_kept is None:
            # inputs are appended in doc_base order, so a STABLE sort on
            # the term id alone leaves docids ascending within each term
            rows = np.argsort(tids, kind="stable")
        else:
            docs = new_of_kept[docs]
            rows = np.lexsort((docs, tids))
        positions = None
        offsets = None
        if with_pos:
            pos_flat = (
                np.concatenate(sec_pos) if sec_pos else np.empty(0, dtype=np.int32)
            )
            positions = _gather_row_slices(pos_flat, tfs, rows)
        if with_off:
            os_flat = np.concatenate(sec_os) if sec_os else np.empty(0, dtype=np.int32)
            oe_flat = np.concatenate(sec_oe) if sec_oe else np.empty(0, dtype=np.int32)
            offsets = (
                _gather_row_slices(os_flat, tfs, rows),
                _gather_row_slices(oe_flat, tfs, rows),
            )
        payloads = None
        if with_pay:
            pay_flat = np.concatenate(sec_pay) if sec_pay else np.empty(0, dtype=np.int32)
            payloads = _gather_row_slices(pay_flat, tfs, rows)
        tids, docs, tfs = tids[rows] - lo, docs[rows], tfs[rows]
        enc = codec.encode_postings(
            tids, docs.astype(np.int64), tfs.astype(np.int64), norms, hi - lo
        )
        return enc, tfs, positions, offsets, payloads

    def _merge_term_vectors() -> None:
        """Carry the per-doc CSR forward index through the merge: term ids
        remap via the merged-vocab codes, deleted docs drop and rows follow
        the doc map.  No transpose is needed — tv is already doc-major —
        and the fill is chunked (~4M rows) through memmapped outputs, so
        memory stays bounded like the postings sections (reference
        Lucene90CompressingTermVectorsWriter.merge streams the same way).
        Only runs when EVERY input has term vectors."""
        CHUNK = 4 * 1024 * 1024
        # per new docid: the input it comes from and its local docid there
        src_input = np.repeat(
            np.arange(len(readers)), np.diff(np.append(live_bases, max_doc))
        )
        src_local = np.concatenate(
            [np.arange(r.max_doc) if live is None else np.nonzero(live)[0]
             for r, live in zip(readers, lives)]
        ).astype(np.int64)
        if order is not None:
            src_input, src_local = src_input[order], src_local[order]
        lens = np.zeros(max_doc, dtype=np.int64)
        for i, r in enumerate(readers):
            m = src_input == i
            lens[m] = np.diff(np.asarray(r.tv_row_start))[src_local[m]]
        tvt, tvf, tvrs = writer.term_vector_sink(int(lens.sum()), max_doc)
        tvrs[0] = 0
        np.cumsum(lens, out=tvrs[1:])
        doc_lo = 0
        while doc_lo < max_doc:
            doc_hi = int(np.searchsorted(tvrs, int(tvrs[doc_lo]) + CHUNK, side="left"))
            doc_hi = min(max(doc_hi, doc_lo + 1), max_doc)
            for i, (r, remap) in enumerate(zip(readers, remaps)):
                sel = doc_lo + np.nonzero(src_input[doc_lo:doc_hi] == i)[0]
                if not len(sel):
                    continue
                rs = np.asarray(r.tv_row_start)
                take = _row_slices(rs[src_local[sel]], lens[sel])
                put = _row_slices(tvrs[sel], lens[sel])
                tvt[put] = remap[np.asarray(r.tv_tid)[take]]
                tvf[put] = np.asarray(r.tv_tf)[take]
            doc_lo = doc_hi
        del tvt, tvf, tvrs  # flush memmaps

    try:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as pool:
            fut = pool.submit(_prepare, *bounds[0]) if bounds else None
            for i in range(len(bounds)):
                enc, tfs, positions, offsets, payloads = fut.result()
                fut = (
                    pool.submit(_prepare, *bounds[i + 1])
                    if i + 1 < len(bounds)
                    else None
                )
                writer.append_section(
                    enc, row_tfs=tfs, positions=positions, offsets=offsets,
                    payloads=payloads
                )
        if all(r.has_term_vectors for r in readers):
            _merge_term_vectors()
        metrics = writer.finalize()
    except BaseException:
        writer.abort()
        raise
    metrics["merge_sec"] = round(time.time() - t0, 3)
    metrics["merged_from"] = [e["name"] for e in seg_entries]
    metrics["section_postings"] = int(section_postings)

    # stored-fields doc tables: rewrite fragments into the merged docs dir
    # with docids mapped to the merged segment's local space, so the
    # doc_base + docid invariant survives any number of merge levels
    # (reference SegmentMerger.mergeFields rewrites stored fields too).
    # Fragments are named by their ordinal in this merge, so names stay the
    # same length at every merge level; readers sort by docid, so a doc
    # map only rewrites the docid column.
    docs_out = None
    n_frags = 0
    for e, live, lpfx, lbase in zip(seg_entries, lives, live_prefix, live_bases):
        src = e.get("docs_dir")
        if src and store.isdir(src):
            # src is index_dir/docs/<old>; the merged table lives beside it
            # at index_dir/docs/<name> (must match the manifest docs_dir).
            docs_out = docs_out or os.path.join(os.path.dirname(src.rstrip("/")), name)
            for f in store.listdir(src):
                if not f.endswith(".parquet"):
                    continue
                tbl = store.pq_read(os.path.join(src, f))
                old_ids = tbl.column("docid").to_numpy()
                if live is not None:
                    keep = live[old_ids]
                    tbl = tbl.filter(pa.array(keep))
                    new_ids = lpfx[old_ids[keep]] + lbase
                else:
                    new_ids = old_ids.astype(np.int64) + lbase
                if new_of_kept is not None:
                    new_ids = new_of_kept[new_ids]
                i = tbl.schema.get_field_index("docid")
                tbl = tbl.set_column(i, "docid", pa.array(new_ids.astype(np.int32)))
                store.pq_write(tbl, os.path.join(docs_out, f"part_{n_frags:06d}.parquet"))
                n_frags += 1

    # doc-values update overlays (incl. soft deletes) follow the same doc
    # map: one merged sidecar per field, deleted docs dropped
    metrics["dv_updates"] = {}
    fields = sorted({f for e in seg_entries for f in e.get("dv_updates") or {}})
    for field in fields:
        ids_parts, val_parts = [], []
        for e, live, lpfx, lbase in zip(seg_entries, lives, live_prefix, live_bases):
            path = (e.get("dv_updates") or {}).get(field)
            if not path:
                continue
            ids, vals = load_dv_overlay(store, path)
            if live is not None:
                keep = live[ids]
                ids, vals = lpfx[ids[keep]], vals[keep]
            ids_parts.append(ids + lbase)
            val_parts.append(vals)
        ids, vals = np.concatenate(ids_parts), np.concatenate(val_parts)
        if not len(ids):
            continue
        if new_of_kept is not None:
            ids = new_of_kept[ids]
            by_doc = np.argsort(ids)
            ids, vals = ids[by_doc], vals[by_doc]
        path = os.path.join(out_dir, "dvu", f"{name}-{field}.npz")
        save_dv_overlay(store, path, ids, vals)
        metrics["dv_updates"][field] = path
    return metrics


def _index_sort_order(readers, lives, index_sort) -> np.ndarray:
    """Sorter's doc map for a merge: the stable argsort of the kept docs'
    stored sort keys (the build's key, ``build._apply_index_sort``), so
    ties keep (segment ordinal, local docid) order."""
    field, direction = index_sort
    parts = []
    for r, live in zip(readers, lives):
        k = r.stored_column(field).to_numpy(zero_copy_only=False).astype(np.int64)
        parts.append(k if live is None else k[live])
    v = np.concatenate(parts)
    return np.argsort(-v if direction == "desc" else v, kind="stable")


def _apply_merges(index_dir: str, plan, order_of=None) -> dict:
    """Commit one generation that replaces each ``plan(base)`` group of
    segment ordinals with its merged segment (a no-op when the plan is
    empty).  One ``merge_segments_task`` per merge, launched through
    ``tasks.run_tasks`` like the build's segment tasks; the manifest's
    ``index_sort`` reaches every task, and ``order_of(entries)``, when
    given, is the doc map of the merge of those segment entries.

    Concurrency follows ConcurrentMergeScheduler's default thread budget
    (ConcurrentMergeScheduler.setDefaultMaxMergesAndThreads: maxThreadCount
    = max(1, min(4, cores/8))) — merges are memory-bandwidth-bound, and
    running many at once slows ALL of them (measured on this host: 8
    concurrent 45-54s wall vs 4 concurrent 7.2s for the same 8 merges).
    Enforced through the task's num_cpus share so Ray packs accordingly on
    any node size."""
    import ray

    def mutate(manifest, gen):
        plans = plan(manifest)
        if not plans:
            return None
        segs = manifest["segments"]
        total_cpus = (
            int(ray.cluster_resources().get("CPU", 8))
            if ray.is_initialized()
            else (os.cpu_count() or 8)
        )
        max_threads = max(1, min(4, total_cpus // 8))
        names = [f"seg_g{gen:04d}_m{mi:04d}" for mi in range(len(plans))]
        calls = []
        for p, name in zip(plans, names):
            entries = [segs[i] for i in p]
            order = order_of(entries) if order_of else None
            calls.append((entries, index_dir, name, DEFAULT_SECTION_POSTINGS,
                          manifest.get("index_sort"), order))
        results = run_tasks(
            merge_segments_task, calls, num_cpus=max(1, total_cpus // max_threads)
        )

        new_entries: list[dict] = []
        merged_ords = {i for p in plans for i in p}
        by_first = {p[0]: mi for mi, p in enumerate(plans)}
        for i, seg in enumerate(segs):
            if i not in merged_ords:
                new_entries.append(dict(seg))
            elif i in by_first:
                mi = by_first[i]
                # meta max_doc = LIVE docs after delete expunge
                entry = mf.segment_entry(
                    os.path.join(index_dir, names[mi]),
                    seg["doc_base"],
                    os.path.join(index_dir, "docs", names[mi]),
                )
                dv_updates = results[mi].pop("dv_updates")
                if dv_updates:
                    entry["dv_updates"] = dv_updates
                entry["metrics"] = {**entry["metrics"], **results[mi]}
                new_entries.append(entry)
        # re-chain doc_bases: merged segments shrink when deletes are
        # expunged, so every downstream base shifts (global docid = base +
        # local)
        base = 0
        for e in new_entries:
            e["doc_base"] = base
            base += int(e["max_doc"])
        return {
            **manifest,
            "segments": new_entries,
            "merges": [
                {"inputs": [segs[i]["name"] for i in p], "output": name}
                for p, name in zip(plans, names)
            ],
        }

    return mf.commit(index_dir, mutate)


def maybe_merge(index_dir: str, policy=None) -> dict:
    """Natural merging under ``policy`` (default: the tiered planner)
    until its plan comes back empty — the MergePolicy seam."""
    return _apply_merges(index_dir, (policy or TieredPolicy()).plan)


def force_merge(index_dir: str, max_segments: int = 1) -> dict:
    return _apply_merges(index_dir, lambda m: plan_force_merge(m, max_segments))


def force_merge_sorted(index_dir: str) -> dict:
    """``force_merge(index_dir, 1)`` of an index that declares an
    ``index_sort`` (every merge keeps the sort; this refuses an unsorted
    index, so a caller relying on the sort learns it has none)."""
    if not mf.read_manifest(index_dir).get("index_sort"):
        raise ValueError("index has no index_sort; use the sectioned force_merge")
    return force_merge(index_dir, 1)


def expunge_deletes(index_dir: str) -> dict:
    """Rewrite every segment that carries deletes as a singleton 'merge'
    (IndexWriter.forceMergeDeletes analogue): live docs renumber dense,
    masks disappear, doc_bases re-chain.  Segments without deletes are
    untouched."""
    return _apply_merges(
        index_dir,
        lambda m: [
            [i]
            for i, s in enumerate(m["segments"])
            if s.get("livedocs") and int(s.get("del_count", 0)) > 0
        ],
    )


def gc_unreferenced(index_dir: str) -> list[str]:
    """Delete segment dirs referenced by NO manifest generation (run after
    old generations are pruned with ``deletion_policy.prune_generations``);
    returns removed dir names."""
    referenced: set[str] = set()
    for g in mf.generations(index_dir):
        for s in mf.read_manifest(index_dir, g)["segments"]:
            referenced.add(s["name"])
    removed = []
    for d in store.listdir(index_dir):
        full = os.path.join(index_dir, d)
        if d.startswith("seg_") and store.isdir(full) and d not in referenced:
            store.rmtree(full)
            removed.append(d)
    return removed
