"""IndexSearcher: rewrite + weight + per-segment top-k + merge.

Mirrors the reference flow (search/IndexSearcher.java:612-850): rewrite
the query, build index-wide CollectionStatistics/TermStatistics once per
query (the Weight), score each segment independently with dynamic
pruning and a min-competitive floor carried across segments, reduce with
TopDocs.merge tie-break (score desc, segment ordinal asc, docID asc).

Per segment, ``search_segment`` answers in TOP_SCORES with one partial
select over a whole match set: a dense query type (query.
``DENSE_KERNELS``: phrase, multi-term, span, doc-values, point, feature,
kNN, ...) through ``query.dense_matches``, and a term, match-all or
Boolean tree of such leaves (any occur, any min_should_match, nested)
through the bulk kernel ``query.bulk_matches``.  A tree with a leaf the
kernel cannot express, and every query in COMPLETE mode or with
``allow_bulk=False`` — the exhaustive differential arm — is answered by
collecting ``build_scorer``'s per-doc scorer tree, which also answers
``count`` and ``explain``.

``IndexSearcher`` is the only place that does this; every other searcher
calls it:
- the time-limited, counting and profiled searches, and the MultiReader
  view (``multireader.MultiIndexSearcher``),
- ``DistributedSearcher``: a pool of Ray actors, each holding an
  IndexSearcher over the whole commit (index-wide stats and feature
  pivots) but scoring only its own strided slice of segment ordinals
  (the IndexSearcher leaf-slice analogue, :106-108).  One RPC round per
  query.
"""

from __future__ import annotations

import numpy as np

from ..index.manifest import collection_stats_from, read_manifest
from .. import store
from ..index.segment import SegmentReader
from .bm25 import BM25Similarity, CollectionStatistics, TermStatistics
from .collector import TopKCollector, merge_top_docs
from .query import (
    DENSE_KERNELS,
    Query,
    Weight,
    build_scorer,
    bulk_expressible,
    bulk_matches,
    collect_terms,
    live_matches,
)
from .scorers import NO_MORE_DOCS, live_docids

DEFAULT_TOTAL_HITS_THRESHOLD = 1000  # IndexSearcher.java:100

# Bulk scoring (``query.bulk_matches``) answers term, match-all and
# Boolean trees on segments up to this many docs — the BooleanScorer /
# TermScorer nextDocsAndScores analogue (reference search/TermScorer.java:
# 134-167 bulk block scoring; search/MaxScoreBulkScorer.java dense
# windows).  The gate is a MEMORY bound (a Boolean node holds a few
# max_doc-long arrays — a float64 sum, an int32 count, bool masks — tens
# of MB at 4M docs, fine inside a query actor), not a speed crossover: in
# this Python engine the vectorized scan beats the per-doc WAND and
# conjunction loops at every feasible segment size — block-max pruning
# only wins for compiled per-doc scorers like the reference's.  The
# scorer tree is the COMPLETE-mode verification arm and answers exactly
# above the gate; no workload or stress build makes a segment that large.
BULK_MAX_DOC = 1 << 22

# Per-process counters of how ``search_segment`` answered: segments
# answered from a whole match set ("dense") or by the scorer tree
# ("tree"), and the matches the dense path scored before its top-k
# select.  ``QueryProfilerSearcher`` reads their deltas; they never
# change results.
SEGMENT_PATH_STATS = {"dense": 0, "tree": 0, "candidates": 0}


class TimeExceededException(Exception):
    """search/TimeLimitingCollector.TimeExceededException analogue: the
    allowed budget, the elapsed time, and how many segments finished;
    ``partial_hits`` carries the top-k collected before the deadline."""

    def __init__(self, timeout: float, elapsed: float, segments_searched: int):
        super().__init__(
            f"Elapsed time: {elapsed!r} exceeded allowed search time: "
            f"{timeout!r} after {segments_searched} segments"
        )
        self.timeout = timeout
        self.elapsed = elapsed
        self.segments_searched = segments_searched
        self.partial_hits: list = []


def _top_k(docs: np.ndarray, sc: np.ndarray, k: int) -> list[tuple[int, np.float32]]:
    """[(doc, float32 score)] of the k best in (score desc, docid asc)
    order — the TopScoreDocCollector tie-break — from parallel arrays
    with ASCENDING ``docs``: a partial select keeps what scores at least
    the k-th best, ties at the k-th score taken by position (the
    smallest docids), then one lexsort of those k.  O(n) however many
    scores tie."""
    if len(docs) > k:
        if (sc[:k] == sc.max()).all():
            # the k smallest docids tie at the best score (constant scores)
            return list(zip(docs[:k].tolist(), sc[:k]))
        kth = np.partition(sc, len(sc) - k)[len(sc) - k]
        keep = np.flatnonzero(sc >= kth)
        if len(keep) > k:
            above = keep[sc[keep] > kth]
            keep = np.concatenate((above, keep[sc[keep] == kth][: k - len(above)]))
        docs, sc = docs[keep], sc[keep]
    order = np.lexsort((docs, -sc))[:k]
    return list(zip(docs[order].tolist(), sc[order]))


def open_segment(
    seg: dict, mmap: bool = True, reader: SegmentReader | None = None
) -> SegmentReader:
    """One manifest entry as a reader at that commit: the segment (or a
    reused ``reader`` of it, opened at the same ``_commit_view``) with the
    entry's live-docs mask and numeric doc-values update overlays
    applied."""
    if reader is None:
        reader = SegmentReader(seg["dir"], mmap=mmap)
    lp = seg.get("livedocs")
    if lp and reader.live is None:
        reader.live = store.np_load(lp)
    # the stored-column cache keys on the overlay path
    reader.dv_updates = seg.get("dv_updates", {})
    return reader


def _commit_view(seg: dict) -> tuple:
    """What a reader of manifest entry ``seg`` sees beyond its immutable
    files: the segment, its live-docs mask and its doc-values overlays.
    A reader is shared between two commits only when this is equal."""
    return (seg["dir"], seg.get("livedocs"), tuple(sorted(seg.get("dv_updates", {}).items())))


class IndexSearcher:
    def __init__(
        self,
        index_dir: str,
        generation: int | None = None,
        mmap: bool = True,
        similarity=None,
        _reuse: dict | None = None,
    ):
        self.index_dir = index_dir
        self._open(read_manifest(index_dir, generation), mmap, similarity, _reuse)

    def _open(self, manifest: dict, mmap: bool, similarity, reuse: dict | None = None):
        """Open every segment of ``manifest`` at that commit (reusing
        ``reuse[_commit_view(seg)]`` readers) and aggregate its
        statistics."""
        self.mmap = mmap
        self.manifest = manifest
        self.generation = int(manifest["generation"])
        segments = manifest["segments"]
        self.readers = [
            open_segment(seg, mmap, reuse.get(_commit_view(seg)) if reuse else None)
            for seg in segments
        ]
        self.doc_bases = [int(seg["doc_base"]) for seg in segments]
        self.collection_stats = CollectionStatistics(**collection_stats_from(manifest))
        self.similarity = similarity if similarity is not None else BM25Similarity()

    def term_statistics(self, terms: set[str]) -> dict[str, TermStatistics]:
        """TermStates.build analogue: sum df/ttf across segments."""
        out = {}
        for t in sorted(terms):
            df = ttf = 0
            for r in self.readers:
                d, f = r.term_stats(t)
                df += d
                ttf += f
            out[t] = TermStatistics(t, df, ttf)
        return out

    def make_weight(
        self, query: Query, term_stats: dict[str, TermStatistics] | None = None
    ) -> Weight:
        if term_stats is None:
            term_stats = self.term_statistics(collect_terms(query))
        return Weight(
            collection_stats=self.collection_stats,
            term_stats=term_stats,
            similarity=self.similarity,
        )

    def weigh(self, query: Query) -> tuple[Query, Weight]:
        """createWeight(rewrite(query)): the rewritten query and its
        index-wide Weight — every search entry point starts here."""
        query = self.rewrite(query)
        return query, self.make_weight(query)

    def compute_feature_pivot(self, field: str) -> float:
        """FeatureField.computePivotFeatureValue (FeatureField.java): pivot
        = decodeFeatureValue(float32(ttf / df)) where ttf sums the
        feature's ENCODED postings freqs and df counts docs carrying it.
        Per-segment partials (one tiny (sum, n) pair each), final here —
        the CollectionStatistics partial+final shape."""
        from .query import decode_feature_value, encode_feature_value

        ttf = 0
        df = 0
        for r in self.readers:
            v = (
                r.stored_column(field)
                .to_numpy(zero_copy_only=False)
                .astype(np.float64)
            )
            m = v > 0
            if getattr(r, "live", None) is not None:
                m &= r.live
            ttf += int(encode_feature_value(v[m]).sum())
            df += int(m.sum())
        if df == 0:
            return 1.0  # reference: term absent, any legal value
        avg_freq = np.float32(np.float64(ttf) / df)  # (float)((double)ttf/df)
        return float(decode_feature_value(np.array([int(avg_freq)]))[0])

    def rewrite(self, query: Query) -> Query:
        """Query.rewrite analogue for SaturationFunction's pivot=None:
        resolve the pivot once per query (FeatureField SaturationFunction
        .rewrite).  Walks BooleanQuery/BoostQuery wrappers — the javadoc
        composition shapes."""
        import dataclasses

        from .query import BooleanQuery, BoostQuery, FeatureQuery

        if isinstance(query, FeatureQuery):
            if query.function == "satu" and query.pivot is None:
                return dataclasses.replace(
                    query, pivot=self.compute_feature_pivot(query.field)
                )
            return query
        if isinstance(query, BoostQuery):
            inner = self.rewrite(query.query)
            return dataclasses.replace(query, query=inner) if inner is not query.query else query
        if isinstance(query, BooleanQuery):
            new_clauses = tuple(
                dataclasses.replace(c, query=self.rewrite(c.query))
                for c in query.clauses
            )
            if any(n.query is not o.query for n, o in zip(new_clauses, query.clauses)):
                return dataclasses.replace(query, clauses=new_clauses)
            return query
        return query

    def leaves(
        self,
        query: Query,
        weight: Weight,
        k: int,
        total_hits_threshold: float = DEFAULT_TOTAL_HITS_THRESHOLD,
        score_mode: str = "TOP_SCORES",
        ords=None,
    ):
        """Yield ``(ordinal, hits)`` per segment, in ordinal order, over
        ``ords`` (default: every segment) — lazily, so a caller may stop
        or time between leaves.  ``query`` is already rewritten and
        ``weight`` is its index-wide Weight.

        Carries the cross-segment min-competitive floor
        (MaxScoreAccumulator.java:23-41): once k hits exist, their k-th
        score floors every later segment's pruning.  Ties lose to earlier
        segments, so this is exact for any increasing ``ords``."""
        floor = -np.inf
        scores_so_far: list[float] = []
        for o in range(len(self.readers)) if ords is None else ords:
            hits = search_segment(
                self.readers[o], query, weight, k, total_hits_threshold, score_mode,
                floor=floor,
            )
            yield o, hits
            if score_mode == "TOP_SCORES":
                scores_so_far.extend(float(s) for _, s in hits)
                if len(scores_so_far) >= k:
                    scores_so_far.sort(reverse=True)
                    del scores_so_far[k:]
                    floor = max(floor, scores_so_far[k - 1])

    def search(
        self,
        query: Query,
        k: int,
        total_hits_threshold: float = DEFAULT_TOTAL_HITS_THRESHOLD,
        score_mode: str = "TOP_SCORES",
    ) -> list[tuple[int, np.float32]]:
        """Top-k as [(global docid, float32 score)].

        ``score_mode="COMPLETE"`` (with threshold=inf) disables all pruning —
        the exhaustive arm of the CheckHits.checkTopScores differential
        (SURVEY §5.3).
        """
        query, weight = self.weigh(query)
        per_segment = [
            hits for _, hits in self.leaves(query, weight, k, total_hits_threshold, score_mode)
        ]
        return merge_top_docs(per_segment, k, self.doc_bases)

    def search_with_time_limit(
        self,
        query: Query,
        k: int,
        timeout: float,
        clock=None,
        partial: bool = True,
    ):
        """TimeLimitingCollector analogue (search/TimeLimitingCollector.
        java): the clock is checked at segment (leaf) granularity — the
        natural bulk unit of this engine's vectorized scorers, standing in
        for the reference's per-doc collect() check.  ``clock`` is
        injectable (the reference's TimerThread counter seam) and defaults
        to time.monotonic.  With ``partial=True`` returns
        ``(hits, terminated_early, segments_searched)`` — the partial
        top-k collected before the deadline (the reference pattern of
        catching TimeExceededException and reading the collector's
        TopDocs).  With ``partial=False`` raises TimeExceededException
        with ``.partial_hits`` attached."""
        import time as _time

        clock = clock if clock is not None else _time.monotonic
        query, weight = self.weigh(query)
        t0 = clock()
        per_segment = []
        terminated = False
        leaves = self.leaves(query, weight, k)
        for _ in self.readers:
            elapsed = clock() - t0
            if elapsed > timeout:
                if not partial:
                    exc = TimeExceededException(timeout, elapsed, len(per_segment))
                    exc.partial_hits = merge_top_docs(per_segment, k, self.doc_bases)
                    raise exc
                terminated = True
                break
            per_segment.append(next(leaves)[1])
        merged = merge_top_docs(per_segment, k, self.doc_bases)
        return merged, terminated, len(per_segment)

    def search_after(
        self,
        query: Query,
        k: int,
        after: tuple[float, int] | None,
    ) -> list[tuple[int, np.float32]]:
        """Pagination (IndexSearcher.searchAfter analogue): the next k hits
        strictly after ``after = (score, global docid)`` in (score desc,
        docid asc) order.  Implemented as over-fetch + filter: exact
        because our per-segment paths return ties deterministically."""
        if after is None:
            return self.search(query, k)
        a_score, a_doc = np.float32(after[0]), int(after[1])
        # fetch enough to cover everything at/above the after-score
        fetch = k
        while True:
            fetch = fetch * 4 + len(self.readers) * k
            hits = self.search(query, fetch)
            worse = [
                (d, s)
                for d, s in hits
                if (s < a_score) or (s == a_score and d > a_doc)
            ]
            if len(worse) >= k or len(hits) < fetch:
                return worse[:k]

    def count(self, query: Query) -> int:
        """Exhaustive match count (non-scoring)."""
        from .query import MatchAllDocsQuery, TermQuery

        query, weight = self.weigh(query)
        total = 0
        for reader in self.readers:
            # Weight#count fast paths (search/TermQuery.java count,
            # MatchAllDocsQuery.java count): on a delete-free segment a
            # term's count IS its doc_freq and match-all's is maxDoc —
            # no postings decode, no iteration
            if reader.live is None:
                if isinstance(query, TermQuery):
                    total += reader.term_stats(query.term)[0]
                    continue
                if isinstance(query, MatchAllDocsQuery):
                    total += reader.max_doc
                    continue
            scorer = build_scorer(query, weight, reader, 1.0, "COMPLETE_NO_SCORES")
            total += len(live_docids(scorer, reader.live))
        return total


def search_segment(
    reader: SegmentReader,
    query: Query,
    weight: Weight,
    k: int,
    total_hits_threshold: float,
    score_mode: str,
    allow_bulk: bool = True,
    floor: float = -np.inf,
) -> list[tuple[int, np.float32]]:
    """One segment's top-k.  In TOP_SCORES a dense query type, and (with
    ``allow_bulk``, up to ``BULK_MAX_DOC`` docs) a ``bulk_expressible``
    tree, is one partial select over its whole match set; every other
    query, and every query in COMPLETE mode, collects ``build_scorer``'s
    tree."""
    if score_mode == "TOP_SCORES" and (type(query) in DENSE_KERNELS or (
        allow_bulk and reader.max_doc <= BULK_MAX_DOC and bulk_expressible(query)
    )):
        matches = live_matches(reader, bulk_matches(query, weight, reader))
        SEGMENT_PATH_STATS["dense"] += 1
        if matches is None:
            return []
        SEGMENT_PATH_STATS["candidates"] += len(matches[0])
        return _top_k(*matches, k)
    SEGMENT_PATH_STATS["tree"] += 1
    scorer = build_scorer(query, weight, reader, 1.0, score_mode, top_level=True)
    return collect_top_docs(scorer, reader.live, k, total_hits_threshold, score_mode, floor)


def collect_top_docs(
    scorer, live, k: int, total_hits_threshold: float = np.inf,
    score_mode: str = "COMPLETE", floor: float = -np.inf,
) -> list[tuple[int, np.float32]]:
    """One segment's top-k from a scorer tree (None: no match): every
    match that ``live`` keeps (None: all) goes to a TopKCollector.  In
    TOP_SCORES mode the collector's min-competitive score, seeded by the
    cross-segment ``floor``, feeds back into the scorer; COMPLETE mode
    collects exhaustively."""
    if scorer is None:
        return []
    collector = TopKCollector(k, total_hits_threshold)
    if floor > -np.inf and score_mode == "TOP_SCORES":
        mc = np.nextafter(np.float32(floor), np.float32(np.inf), dtype=np.float32)
        collector.min_competitive = mc
        scorer.set_min_competitive_score(mc)
    doc = scorer.advance(0)
    while doc != NO_MORE_DOCS:
        if live is None or live[doc]:
            collector.collect(doc, scorer.score())
        if score_mode == "TOP_SCORES":
            mc = collector.competitive_score()
            if mc is not None:
                scorer.set_min_competitive_score(mc)
        doc = scorer.next_doc()
    return collector.top_docs()


# --- distributed search over Ray actors ---------------------------------

class SegmentSearchWorker:
    """A service worker: an IndexSearcher over the WHOLE commit at
    ``generation`` — index-wide term stats and feature pivots — that
    scores only its own segment ordinals ``ords``.  Created once and
    reused per query (stateful actor: open mmaps + term dictionaries,
    SURVEY §7.3)."""

    def __init__(self, index_dir: str, generation: int, ords: list[int]):
        self.searcher = IndexSearcher(index_dir, generation)
        self.ords = ords

    def term_stats(self, terms) -> dict[str, TermStatistics]:
        """The worker's stats step: index-wide TermStatistics."""
        return self.searcher.term_statistics(terms)

    def search(
        self,
        query: Query,
        k: int,
        total_hits_threshold: float,
        score_mode: str,
    ) -> list[tuple[int, list[tuple[int, float]]]]:
        """[(ordinal, [(local docid, score)])] for this worker's segments."""
        query = self.searcher.rewrite(query)
        weight = self.searcher.make_weight(query, self.term_stats(collect_terms(query)))
        leaves = self.searcher.leaves(
            query, weight, k, total_hits_threshold, score_mode, self.ords
        )
        return [(o, [(d, float(s)) for d, s in hits]) for o, hits in leaves]


class DistributedSearcher:
    """Query coordinator: broadcast the query to the actor pool — worker
    i scores segment ordinals i, i+n, i+2n, ... — then TopDocs.merge
    (SURVEY §3.2).  One RPC round per query: each worker derives the
    index-wide Weight from its own view of the whole commit."""

    def __init__(self, index_dir: str, num_workers: int = 4, generation: int | None = None):
        import ray

        self.index_dir = index_dir
        self.num_workers = num_workers
        self.manifest = read_manifest(index_dir, generation)
        self.doc_bases = [s["doc_base"] for s in self.manifest["segments"]]
        n = min(num_workers, len(self.doc_bases))
        # a worker's whole state is (index_dir, generation, ords), so a
        # restarted actor reopens the same commit (remote segments re-hit
        # the node's read-through cache) and the call in flight is retried
        Worker = ray.remote(max_restarts=1, max_task_retries=1)(SegmentSearchWorker)
        gen = int(self.manifest["generation"])
        self.workers = [
            Worker.remote(index_dir, gen, list(range(i, len(self.doc_bases), n)))
            for i in range(n)
        ]

    def refresh(self) -> bool:
        """Service-level NRT refresh (SearcherManager.maybeRefresh
        analogue): when a newer manifest generation exists, rebuild the
        actor pool against it (workers re-localize only NEW segments —
        unchanged ones hit the node's read-through cache).  Returns True
        if anything changed."""
        from ..index.manifest import latest_generation

        gen = latest_generation(self.index_dir)
        if gen is None or gen == int(self.manifest["generation"]):
            return False
        self.__init__(self.index_dir, num_workers=self.num_workers, generation=gen)
        return True

    def search(
        self,
        query: Query,
        k: int,
        total_hits_threshold: float = DEFAULT_TOTAL_HITS_THRESHOLD,
        score_mode: str = "TOP_SCORES",
    ) -> list[tuple[int, np.float32]]:
        import ray

        results = ray.get(
            [
                w.search.remote(query, k, total_hits_threshold, score_mode)
                for w in self.workers
            ]
        )
        per_segment: list[list[tuple[int, np.float32]]] = [[] for _ in self.doc_bases]
        for part in results:
            for ord_, hits in part:
                per_segment[ord_] = [(d, np.float32(s)) for d, s in hits]
        return merge_top_docs(per_segment, k, self.doc_bases)


def _find_reader(searcher: "IndexSearcher", doc: int):
    for reader, base in zip(searcher.readers, searcher.doc_bases):
        if base <= doc < base + reader.max_doc:
            return reader, doc - base
    raise ValueError(f"docid {doc} out of range")


def _explain_node(searcher: "IndexSearcher", q, weight: Weight, reader, local: int):
    """One query node's Explanation dict (None = no match for this doc)."""
    from .query import BooleanQuery, BoostQuery, ConstantScoreQuery, TermQuery

    if isinstance(q, TermQuery):
        return _explain_term(searcher, q.term, 1.0, weight, reader, local)
    if isinstance(q, BoostQuery):
        inner = _explain_node(searcher, q.query, weight, reader, local)
        if inner is None:
            return None
        if isinstance(q.query, TermQuery):
            return _explain_term(searcher, q.query.term, q.boost, weight, reader, local)
        val = np.float32(np.float64(inner["value"]) * q.boost)
        return {
            "value": float(val),
            "description": f"boost({q.boost}) * inner score",
            "details": [inner],
        }
    if isinstance(q, ConstantScoreQuery):
        inner = _explain_node(searcher, q.query, weight, reader, local)
        if inner is None:
            return None
        return {
            "value": float(np.float32(getattr(q, "score", 1.0))),
            "description": "ConstantScore",
            "details": [],
        }
    if isinstance(q, BooleanQuery):
        details, musts, shoulds = [], [], []
        for c in q.clauses:
            sub = _explain_node(searcher, c.query, weight, reader, local)
            if c.occur == "MUST_NOT":
                if sub is not None:
                    return None
            elif sub is None:
                if c.occur in ("MUST", "FILTER"):
                    return None
            # FILTER matches are required but never contribute score
            elif c.occur != "FILTER":
                details.append(sub)
                (musts if c.occur == "MUST" else shoulds).append(np.float64(sub["value"]))
        msm = getattr(q, "min_should_match", 0)
        required = any(c.occur in ("MUST", "FILTER") for c in q.clauses)
        if len(shoulds) < msm or not (required or shoulds):
            return None
        # search's float nesting (combine_clause_scorers): the SHOULD side
        # is one float32 sum, added to the float32 MUST sum when optional
        opt = np.float32(sum(shoulds)) if shoulds else None
        if not musts:
            val = opt if opt is not None else np.float32(0.0)
        elif opt is None:
            val = np.float32(sum(musts))
        elif msm > 0:
            val = np.float32(sum(musts) + np.float64(opt))
        else:
            val = np.float32(np.float64(np.float32(sum(musts))) + np.float64(opt))
        return {"value": float(val), "description": "sum of:", "details": details}
    raise NotImplementedError(f"explain: unsupported query {type(q).__name__}")


def _explain_term(searcher, term: str, boost: float, weight: Weight, reader, local: int):
    from ..index.postings import decode_term
    from ..smallfloat import LENGTH_TABLE

    tid = reader.term_id(term)
    if tid is None:
        return None
    docs, tfs = decode_term(reader.enc, tid)
    i = np.searchsorted(docs, local)
    if i >= len(docs) or docs[i] != local:
        return None
    freq = float(tfs[i])
    norm_byte = int(reader.norms[local])
    sim = weight.sim_scorer(term, boost)
    score = sim.score(freq, norm_byte)
    ts = weight.term_stats[term]
    cs = weight.collection_stats
    sim_obj = getattr(weight, "similarity", None)
    sim_name = type(sim_obj).__name__ if sim_obj is not None else "BM25Similarity"
    node = {
        "value": float(score),
        "description": f"weight({term} in {local}) [{sim_name}], result of:",
        "details": [],
    }
    # the BM25 decomposition is only emitted when the weight actually
    # scores with BM25 (ADVICE r3: Classic/LMDirichlet roots were exact
    # but the details misdescribed them); other similarities keep the
    # exact root with a freq/norm leaf instead
    from .bm25 import BM25Similarity

    if sim_obj is None or isinstance(sim_obj, BM25Similarity):
        k1 = getattr(sim_obj, "k1", 1.2)
        b = getattr(sim_obj, "b", 0.75)
        dl = float(LENGTH_TABLE[norm_byte])
        # doc_count == 0 cannot match a posting, but guard avgdl anyway
        avgdl = cs.sum_total_term_freq / cs.doc_count if cs.doc_count else 1.0
        node["details"] = [
            {
                "value": float(np.log(1 + (cs.doc_count - ts.doc_freq + 0.5) / (ts.doc_freq + 0.5))),
                "description": f"idf, computed as ln(1 + (N - n + 0.5) / (n + 0.5)) with n={ts.doc_freq}, N={cs.doc_count}",
                "details": [],
            },
            {
                "value": freq / (freq + k1 * (1 - b + b * dl / avgdl)),
                "description": f"tf, computed as freq / (freq + k1 * (1 - b + b * dl / avgdl)) with freq={freq}, k1={k1}, b={b}, dl={dl}, avgdl={avgdl}",
                "details": [],
            },
            {"value": float(boost), "description": "boost", "details": []},
        ]
    else:
        node["details"] = [
            {"value": freq, "description": f"freq={freq}", "details": []},
            {"value": float(norm_byte), "description": f"norm_byte={norm_byte}", "details": []},
            {"value": float(boost), "description": "boost", "details": []},
        ]
    return node


def explain(searcher: "IndexSearcher", query, doc: int) -> dict:
    """IndexSearcher.explain analogue (search/IndexSearcher.java explain ->
    Weight.explain): a nested Explanation dict {value, description,
    details} whose root value is EXACTLY the float32 score search() gives
    this doc; non-matching docs explain as value 0 / 'no matching term'.
    Supported: Term / Boost / ConstantScore / Boolean trees (the scoring
    clauses the BM25 explanation decomposes)."""
    reader, local = _find_reader(searcher, doc)
    query, weight = searcher.weigh(query)
    node = _explain_node(searcher, query, weight, reader, local)
    if node is None:
        return {"value": 0.0, "description": "no matching term", "details": []}
    return node


IndexSearcher.explain = (
    lambda self, query, doc: explain(self, query, doc)
)


def open_if_changed(searcher: IndexSearcher) -> IndexSearcher | None:
    """NRT refresh (reference index/StandardDirectoryReader.java
    openIfChanged): None when the latest manifest generation equals the
    searcher's; otherwise a NEW IndexSearcher against the latest commit
    that REUSES the old searcher's SegmentReader objects (mmaps, decode
    caches, query caches) for every segment whose ``_commit_view`` (dir,
    livedocs, doc-values overlays) is unchanged.  A segment whose live
    docs or overlays moved to a new generation gets a SHALLOW reader copy
    sharing the immutable arrays but carrying its own live mask and
    overlays — the old searcher keeps serving its point-in-time view
    (reader-sharing semantics of the reference's SegmentReader liveDocs
    and doc-values updates wrap).  A copy whose overlays changed starts
    a fresh query cache: cached stored-column filters read the old
    values."""
    import copy

    from ..index.manifest import latest_generation

    gen = latest_generation(searcher.index_dir)
    if gen is None or gen == searcher.generation:
        return None
    reuse: dict = {}
    by_dir: dict = {}
    for r, seg in zip(searcher.readers, searcher.manifest["segments"]):
        reuse[_commit_view(seg)] = r
        by_dir[seg["dir"]] = (r, seg)
    new_man = read_manifest(searcher.index_dir, gen)
    for seg in new_man["segments"]:
        key = _commit_view(seg)
        if key not in reuse and seg["dir"] in by_dir:
            old, old_seg = by_dir[seg["dir"]]
            clone = copy.copy(old)
            clone.live = None  # open_segment loads this commit's mask
            if _commit_view(old_seg)[2] != key[2]:
                clone.query_cache = None
            reuse[key] = clone
    return IndexSearcher(
        searcher.index_dir,
        generation=gen,
        mmap=searcher.mmap,
        similarity=searcher.similarity,
        _reuse=reuse,
    )


IndexSearcher.open_if_changed = open_if_changed


class SearcherLifetimeManager:
    """Point-in-time searcher leasing (reference search/
    SearcherLifetimeManager.java): ``record(searcher)`` returns a token —
    the reader VERSION, here the manifest generation (:146) — that
    ``acquire`` later resolves to the SAME point-in-time searcher so a
    user's follow-on page (searchAfter) sees exactly the hits of their
    first page even while the index keeps committing; ``prune(max_age)``
    drops trackers whose age exceeds the cutoff (PruneByAge semantics,
    :94-109 record-time ordering).

    Beyond the reference's in-RAM reader refcounts, recording PINS the
    generation through SnapshotDeletionPolicy (snapshots.json) so
    ``prune_generations`` cannot delete the commit point's artifacts
    while a lease is live — on shared storage the old files, not just
    the old reader object, must survive.  The clock is injectable (the
    TimeLimitingCollector testing seam)."""

    def __init__(self, clock=None):
        import time as _time

        self._clock = clock if clock is not None else _time.monotonic
        self._trackers: dict[int, dict] = {}  # version -> {searcher, t}

    def record(self, searcher: IndexSearcher) -> int:
        """Token for the searcher's commit point; idempotent per version
        (the reference's putIfAbsent double-check, :147-158)."""
        from ..index.deletion_policy import snapshot

        version = searcher.generation
        tr = self._trackers.get(version)
        if tr is None:
            snapshot(searcher.index_dir, version)
            self._trackers[version] = {
                "searcher": searcher,
                "t": self._clock(),
            }
        elif tr["searcher"] is not searcher:
            # same version recorded through a different instance: keep
            # the first (reference records per-version trackers)
            pass
        return version

    def acquire(self, token: int) -> IndexSearcher | None:
        """The recorded searcher, or None when pruned (the caller should
        tell the user their session timed out, reference javadoc :62-66)."""
        tr = self._trackers.get(token)
        return tr["searcher"] if tr is not None else None

    def prune(self, max_age_sec: float) -> list[int]:
        """Drop every tracker older than ``max_age_sec`` and release its
        snapshot pin; returns the pruned tokens."""
        from ..index.deletion_policy import release_snapshot

        now = self._clock()
        pruned = []
        for version, tr in sorted(self._trackers.items()):
            if now - tr["t"] > max_age_sec:
                release_snapshot(tr["searcher"].index_dir, version)
                pruned.append(version)
        for v in pruned:
            del self._trackers[v]
        return pruned
