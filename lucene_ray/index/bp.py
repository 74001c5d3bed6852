"""BP doc reordering — recursive graph bisection for index locality.

Reference: lucene/misc/src/java/org/apache/lucene/misc/index/
BPIndexReorderer.java (+ AbstractBPReorderer.java DEFAULT_MAX_ITERS=20,
BPReorderingMergePolicy.java), implementing "Compressing Graphs and
Indexes with Recursive Graph Bisection" (Dhulipala et al., KDD 2016):
permute docids so docs sharing terms sit close together, shrinking
posting-list delta gaps (better compression, better block locality).

Algorithm (BPIndexReorderer.IndexReorderingTask + shuffle):
- recursively halve the current doc range; at each level run up to
  ``max_iters`` passes:
  - per-doc bias = Σ over the doc's (qualifying) terms of
    log2(df_right[t]) − log2(df_left[t]) (ComputeBiasTask.computeBias;
    positive = attracted to the right half),
  - stop when ``max(bias_left) − min(bias_right) <= iter`` — Mackenzie
    et al.'s simulated-annealing threshold ("Tradeoff Options for
    Bipartite Graph Partitioning"; BPIndexReorderer.java:395-402),
  - repartition the range by (bias, docid) ascending so the midPoint
    smallest biases form the new left (the IntroSelector partition with
    the reference's docid tie-break).
- only terms with ``min_doc_freq <= df <= max_doc_freq * n_docs`` join
  the forward index (setMinDocFreq / setMaxDocFreq; stop-words add cost
  but no ordering signal).

Deviations (documented): biases use exact float64 ``np.log2`` instead of
the reference's 1024-entry float table + Math.log, halves recompute
side doc-freqs per pass instead of maintaining them incrementally under
swaps (same fixpoint, simpler vectorization), and the partition is a
full lexsort rather than an introselect (same resulting halves).

``bp_reorder_merge`` passes the permutation as the doc map of the one
merge executor (index/merge.merge_segments_task), so postings,
positions, offsets, payloads, norms, term vectors and stored fields are
rebuilt in the new order and CheckIndex covers the result;
``log_gap_cost`` is the compression objective the tests assert shrinks.
"""

from __future__ import annotations

import numpy as np

from .. import store
from .postings import decode_term
from .segment import SegmentReader

DEFAULT_MAX_ITERS = 20  # AbstractBPReorderer.DEFAULT_MAX_ITERS


def _log2f(x: np.ndarray) -> np.ndarray:
    """log2 with the reference's log2(0) -> 0 convention."""
    out = np.zeros_like(x, dtype=np.float64)
    nz = x > 0
    out[nz] = np.log2(x[nz])
    return out


def build_forward_index(
    readers: list[SegmentReader],
    kept_locals: list[np.ndarray],
    min_doc_freq: int = 1,
    max_doc_freq: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, int]:
    """CSR (indptr, indices) doc -> qualifying-term ids over the
    concatenated kept docs (the reference's ForwardIndex, built from the
    postings like BPIndexReorderer.writeForwardIndex)."""
    kept_base = np.concatenate(([0], np.cumsum([len(x) for x in kept_locals])))
    n_docs = int(kept_base[-1])

    # global df per (reader, tid) -> merged term code
    import pyarrow as pa
    import pyarrow.compute as pc

    dicts = [r.terms_array() for r in readers]
    union = pc.unique(pa.concat_arrays(dicts))
    vocab = union.take(pc.sort_indices(union))
    codes = [
        pc.index_in(d, vocab).to_numpy(zero_copy_only=False).astype(np.int64)
        for d in dicts
    ]
    n_vocab = len(vocab)

    rows_d: list[np.ndarray] = []
    rows_t: list[np.ndarray] = []
    df = np.zeros(n_vocab, np.int64)
    per_reader: list[list[tuple[int, np.ndarray]]] = []
    for i, (r, loc) in enumerate(zip(readers, kept_locals)):
        m = np.full(r.max_doc, -1, np.int64)
        m[loc] = kept_base[i] + np.arange(len(loc), dtype=np.int64)
        pairs: list[tuple[int, np.ndarray]] = []
        for tid in range(r.n_terms):
            docs, _tfs = decode_term(r.enc, tid)
            kd = m[docs]
            kd = kd[kd >= 0]
            if len(kd):
                code = int(codes[i][tid])
                df[code] += len(kd)
                pairs.append((code, kd))
        per_reader.append(pairs)

    lo, hi = min_doc_freq, max_doc_freq * n_docs
    keep_term = (df >= lo) & (df <= hi)
    for pairs in per_reader:
        for code, kd in pairs:
            if keep_term[code]:
                rows_d.append(kd)
                rows_t.append(np.full(len(kd), code, np.int64))

    if rows_d:
        d = np.concatenate(rows_d)
        t = np.concatenate(rows_t)
        order = np.argsort(d, kind="stable")
        d, t = d[order], t[order]
    else:
        d = np.empty(0, np.int64)
        t = np.empty(0, np.int64)
    indptr = np.zeros(n_docs + 1, np.int64)
    np.add.at(indptr, d + 1, 1)
    indptr = np.cumsum(indptr)
    return indptr, t, n_vocab


def _gather(indptr, indices, docs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(flat term ids of all docs, per-doc lengths) in docs order."""
    lens = (indptr[docs + 1] - indptr[docs]).astype(np.int64)
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, np.int64), lens
    starts = indptr[docs]
    # vectorized ragged gather: flat position j belongs to doc i with
    # offset j - cum_lens[i]; index = starts[i] + offset
    cum = np.concatenate(([0], np.cumsum(lens)))[:-1]
    flat_idx = np.repeat(starts - cum, lens) + np.arange(total, dtype=np.int64)
    return indices[flat_idx], lens


def bp_permutation(
    indptr: np.ndarray,
    indices: np.ndarray,
    n_terms: int,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> np.ndarray:
    """The BP doc order: position j of the result holds the ORIGINAL doc
    index placed at new docid j."""
    n_docs = len(indptr) - 1
    order = np.arange(n_docs, dtype=np.int64)
    stack = [(0, n_docs)] if n_docs > 1 else []
    while stack:
        lo, hi = stack.pop()
        mid = (lo + hi) >> 1
        for it in range(max_iters):
            left, right = order[lo:mid], order[mid:hi]
            fl, ll = _gather(indptr, indices, left)
            fr, lr = _gather(indptr, indices, right)
            df_l = np.bincount(fl, minlength=n_terms)
            df_r = np.bincount(fr, minlength=n_terms)
            lg = _log2f(df_r) - _log2f(df_l)  # >0 = attracted right
            seg = np.concatenate((fl, fr))
            lens = np.concatenate((ll, lr))
            bias = np.zeros(len(lens), np.float64)
            if len(seg):
                bounds = np.concatenate(([0], np.cumsum(lens)))[:-1]
                # reduceat needs non-empty slices; emulate with cumsum
                csum = np.concatenate(([0.0], np.cumsum(lg[seg])))
                ends = np.concatenate(([0], np.cumsum(lens)))
                bias = csum[ends[1:]] - csum[ends[:-1]]
                del bounds
            nl = mid - lo
            gain = (bias[:nl].max() if nl else -np.inf) - (
                bias[nl:].min() if len(bias) > nl else np.inf
            )
            # simulated-annealing stop (BPIndexReorderer.java:395-402)
            if gain <= it:
                break
            rng_docs = order[lo:hi]
            part = np.lexsort((rng_docs, bias))
            order[lo:hi] = rng_docs[part]
        if mid - lo > 1:
            stack.append((lo, mid))
        if hi - mid > 1:
            stack.append((mid, hi))
    return order


def log_gap_cost(indptr, indices, n_terms: int, order: np.ndarray) -> float:
    """The BP objective: Σ over terms of Σ log2(docid delta) under the
    given order (Dhulipala et al.'s log-gap cost; first posting costs
    log2(docid+1))."""
    n_docs = len(indptr) - 1
    new_of_old = np.empty(n_docs, np.int64)
    new_of_old[order] = np.arange(n_docs, dtype=np.int64)
    lens = np.diff(indptr)
    docs = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
    nd = new_of_old[docs]
    o = np.lexsort((nd, indices))
    t_s, d_s = indices[o], nd[o]
    same = np.concatenate(([False], t_s[1:] == t_s[:-1]))
    gaps = np.where(same, d_s - np.concatenate(([0], d_s[:-1])), d_s + 1)
    return float(np.log2(gaps).sum())


def bp_reorder_merge(
    index_dir: str,
    min_doc_freq: int = 1,
    max_doc_freq: float = 1.0,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> dict:
    """Force-merge every segment into ONE whose docids follow the BP
    permutation (the BPReorderingMergePolicy shape: reorder happens at
    merge time); commits a new manifest generation.  Refuses an
    index-sorted index — BP would break the Sorter invariant."""
    from .merge import _apply_merges

    def plan(man: dict) -> list[list[int]]:
        if man.get("index_sort"):
            raise ValueError("BP reorder would violate the index sort")
        n = len(man["segments"])
        return [list(range(n))] if n else []

    def order_of(entries: list[dict]) -> np.ndarray:
        readers: list[SegmentReader] = []
        kept_locals: list[np.ndarray] = []
        for seg in entries:
            r = SegmentReader(seg["dir"])
            lp = seg.get("livedocs")
            live = store.np_load(lp) if lp else np.ones(r.max_doc, dtype=bool)
            readers.append(r)
            kept_locals.append(np.nonzero(live)[0])
        indptr, indices, n_terms = build_forward_index(
            readers, kept_locals, min_doc_freq, max_doc_freq
        )
        return bp_permutation(indptr, indices, n_terms, max_iters)

    return _apply_merges(index_dir, plan, order_of)
