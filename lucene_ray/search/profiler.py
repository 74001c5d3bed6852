"""Query profiler: phase/segment timing breakdown for one search.

Reference: lucene/sandbox/src/java/org/apache/lucene/sandbox/search/
``QueryProfilerIndexSearcher.java`` + ``QueryProfilerBreakdown.java`` /
``QueryProfilerTimingType.java`` — wraps a searcher and records where a
query's wall time goes (weight creation, scorer building, scoring) plus
match counts, without changing results.

This engine's phases map naturally: CREATE_WEIGHT = the rewrite and the
term-stats gather, per-segment SCORE = one vectorized search_segment call
(scorer build and bulk scoring are fused in the dense path), plus the
final TopDocs merge.  Each segment entry also says which path answered
it (``path``: "dense" — one select over a whole match set — or "tree",
the per-doc scorer tree) and, on the dense path, how many matches it
scored before the top-k select (``candidates``; None on the tree path),
read from ``searcher.SEGMENT_PATH_STATS``.  The profile rides back
beside bit-identical hits.
"""

from __future__ import annotations

import time

from .searcher import DEFAULT_TOTAL_HITS_THRESHOLD, SEGMENT_PATH_STATS, IndexSearcher
from .collector import merge_top_docs


class QueryProfilerSearcher(IndexSearcher):
    """IndexSearcher whose ``profile_search`` returns (hits, profile);
    hits are bit-identical to ``IndexSearcher.search`` (the wrapper adds
    observation only, QueryProfilerIndexSearcher's contract)."""

    def profile_search(
        self,
        query,
        k: int,
        total_hits_threshold: float = DEFAULT_TOTAL_HITS_THRESHOLD,
        score_mode: str = "TOP_SCORES",
    ):
        t0 = time.perf_counter_ns()
        query, weight = self.weigh(query)
        t1 = time.perf_counter_ns()
        per_segment = []
        seg_profiles = []
        leaves = self.leaves(query, weight, k, total_hits_threshold, score_mode)
        for reader in self.readers:
            dense0, cand0 = SEGMENT_PATH_STATS["dense"], SEGMENT_PATH_STATS["candidates"]
            s0 = time.perf_counter_ns()
            ord_, hits = next(leaves)
            s1 = time.perf_counter_ns()
            dense = SEGMENT_PATH_STATS["dense"] > dense0
            seg_profiles.append(
                {
                    "ordinal": ord_,
                    "max_doc": int(reader.max_doc),
                    "score_ns": s1 - s0,
                    "n_hits": len(hits),
                    "path": "dense" if dense else "tree",
                    "candidates": SEGMENT_PATH_STATS["candidates"] - cand0 if dense else None,
                }
            )
            per_segment.append(hits)
        m0 = time.perf_counter_ns()
        merged = merge_top_docs(per_segment, k, self.doc_bases)
        m1 = time.perf_counter_ns()
        profile = {
            "create_weight_ns": t1 - t0,
            "segments": seg_profiles,
            "merge_ns": m1 - m0,
            "total_ns": m1 - t0,
            "n_segments": len(self.readers),
            "total_hits_collected": int(sum(p["n_hits"] for p in seg_profiles)),
        }
        return merged, profile
