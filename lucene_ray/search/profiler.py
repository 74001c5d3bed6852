"""Query profiler: phase/segment timing breakdown for one search.

Reference: lucene/sandbox/src/java/org/apache/lucene/sandbox/search/
``QueryProfilerIndexSearcher.java`` + ``QueryProfilerBreakdown.java`` /
``QueryProfilerTimingType.java`` — wraps a searcher and records where a
query's wall time goes (weight creation, scorer building, scoring) plus
match counts, without changing results.

This engine's phases map naturally: CREATE_WEIGHT = the rewrite and the
term-stats gather, per-segment SCORE = one vectorized search_segment call
(scorer build and bulk scoring are fused in the dense path), plus the
final TopDocs merge.  The profile rides back beside bit-identical hits.
"""

from __future__ import annotations

import time

from .searcher import DEFAULT_TOTAL_HITS_THRESHOLD, IndexSearcher
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
            s0 = time.perf_counter_ns()
            ord_, hits = next(leaves)
            s1 = time.perf_counter_ns()
            seg_profiles.append(
                {
                    "ordinal": ord_,
                    "max_doc": int(reader.max_doc),
                    "score_ns": s1 - s0,
                    "n_hits": len(hits),
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
