"""MemoryIndex: one document indexed into in-RAM arrays (no filesystem),
serving the full Query/Scorer machinery.

Reference: lucene/memory MemoryIndex.java — "a high-performance
single-document main memory index" whose primary use is matching
individual queries against one document (percolation, classification).
Our in-memory segment is the SAME array layout SegmentReader mmaps from
disk (dict offsets/bytes, EncodedPostings, norms, positions), so every
query type — term/boolean/phrase/multiterm/interval — runs against it
unmodified through build_scorer; nothing is special-cased.

``search(query)`` scores the document with 1-doc collection stats exactly
like MemoryIndex.search (BM25 by default, any pluggable similarity);
``matches(query)`` is the percolation predicate for ARBITRARY queries —
the vectorized ops/monitor matchers remain the bulk path, this is the
single-doc exact path.
"""

from __future__ import annotations

import numpy as np

from .. import smallfloat
from ..analysis.analyzers import make_analyzer, postings_rows
from . import postings as codec
from .segment import SegmentReader


class MemoryIndex:
    def __init__(self, text: str, analyzer="standard"):
        a = make_analyzer(analyzer) if isinstance(analyzer, str) else analyzer
        # rows sorted by term (one doc), positions row after row
        vocab, tids, _dids, tfs, lengths, pos_flat, _os, _oe = postings_rows(
            a._batch_token_stream([text]), "positions"
        )
        length = int(lengths[0]) if len(lengths) else 0
        norms = np.array([smallfloat.int_to_byte4(length)], dtype=np.uint8)
        n_terms = len(vocab)

        r = SegmentReader.__new__(SegmentReader)
        r.dir = "<memory>"
        r._decode_cache_size = 16
        r._decode_cache = {}
        keys = [v.encode("utf-8") for v in vocab]
        offs = np.zeros(n_terms + 1, dtype=np.int64)
        np.cumsum([len(k) for k in keys], out=offs[1:])
        r.term_offsets = offs
        r.term_bytes = np.frombuffer(b"".join(keys), dtype=np.uint8)
        r.enc = codec.encode_postings(
            tids, np.zeros(len(tids), dtype=np.int64), tfs, norms, n_terms
        )
        r.norms = norms
        r.has_positions = True
        r.pos_data = pos_flat.astype(np.int32)
        # one row per nonzero-df term, in tid order; row_start by term
        df = np.asarray(r.enc.doc_freq, dtype=np.int64)
        r.pos_row_start = np.concatenate(([0], np.cumsum(df)))
        r.pos_off = np.concatenate(
            ([0], np.cumsum(tfs, dtype=np.int64))
        )
        r.has_term_vectors = False
        r.has_offsets = False  # term_offset_spans raises ValueError, not AttributeError
        r._bloom_words = None  # no bloom artifact for the in-heap reader
        r.meta = {"max_doc": 1, "doc_base": 0}
        r.max_doc = 1
        r.doc_base = 0
        r.n_terms = n_terms
        r.live = None
        self._reader = r
        self._length = length

    def reader(self) -> SegmentReader:
        return self._reader

    def _weight(self, query, similarity=None):
        from ..search.bm25 import (
            BM25Similarity,
            CollectionStatistics,
            TermStatistics,
        )
        from ..search.query import Weight, collect_terms

        r = self._reader
        cs = CollectionStatistics(
            max_doc=1,
            doc_count=1 if self._length else 0,
            sum_total_term_freq=self._length,
            sum_doc_freq=int(np.asarray(r.enc.doc_freq).sum()),
        )
        stats = {}
        for t in collect_terms(query):
            df, ttf = r.term_stats(t)
            stats[t] = TermStatistics(t, df, ttf)
        return Weight(
            collection_stats=cs,
            term_stats=stats,
            similarity=similarity or BM25Similarity(),
        )

    def search(self, query, similarity=None) -> float:
        """Score of the document for ``query`` (0.0 = no match) — the
        MemoryIndex.search float contract."""
        from ..search.query import build_scorer
        from ..search.scorers import NO_MORE_DOCS

        scorer = build_scorer(
            query, self._weight(query, similarity), self._reader, 1.0, "COMPLETE"
        )
        if scorer is None:
            return 0.0
        if scorer.advance(0) == NO_MORE_DOCS:
            return 0.0
        return float(scorer.score())

    def matches(self, query) -> bool:
        return self.search(query) > 0.0 or self._matches_nonscoring(query)

    def _matches_nonscoring(self, query) -> bool:
        """Queries whose scorers can legitimately yield score 0 (e.g.
        LMDirichlet-clamped or constant-0 boosts) still 'match'; re-check
        pure iteration."""
        from ..search.query import build_scorer
        from ..search.scorers import NO_MORE_DOCS

        scorer = build_scorer(
            query,
            self._weight(query),
            self._reader,
            1.0,
            "COMPLETE_NO_SCORES",
        )
        return scorer is not None and scorer.advance(0) != NO_MORE_DOCS
