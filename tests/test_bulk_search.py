"""Differential: dense bulk scorer vs the WAND/ImpactsDISI scorer loop.

The bulk path (searcher.BULK_MAX_DOC gate) must be score- and
rank-identical to both the pruned scorer path and the exhaustive COMPLETE
path — the CheckHits.checkTopScores discipline (SURVEY §5.3) applied to a
third implementation.
"""

from __future__ import annotations

import numpy as np
import pytest

from lucene_ray.corpus import generate_corpus
from lucene_ray.index.build import build_index_local
from lucene_ray.search.query import BoostQuery, TermQuery, bool_query
from lucene_ray.search.searcher import IndexSearcher, search_segment


@pytest.fixture(scope="module")
def idx(tmp_path_factory):
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("bulk_corpus")
    pq.write_table(generate_corpus(800, seed=21), str(d / "c.parquet"), row_group_size=100)
    out = str(tmp_path_factory.mktemp("bulk_idx"))
    build_index_local(str(d), out, docs_per_segment=100)
    return out


QUERIES = [
    TermQuery("def"),
    TermQuery("return"),
    TermQuery("zzz_not_a_term"),
    bool_query(should=[TermQuery("def"), TermQuery("import")]),
    bool_query(should=[TermQuery("func"), TermQuery("const"), TermQuery("static")]),
    bool_query(
        should=[BoostQuery(TermQuery("def"), 2.5), TermQuery("class")],
    ),
    bool_query(
        should=[TermQuery("def"), TermQuery("return"), TermQuery("import")],
        min_should_match=2,
    ),
]


@pytest.mark.parametrize("k", [5, 10, 50])
def test_bulk_matches_scorer_paths(idx, k):
    s = IndexSearcher(idx)
    for q in QUERIES:
        weight = s.make_weight(q)
        for reader in s.readers:
            bulk = search_segment(reader, q, weight, k, 1000, "TOP_SCORES", allow_bulk=True)
            wand = search_segment(reader, q, weight, k, 1000, "TOP_SCORES", allow_bulk=False)
            complete = search_segment(
                reader, q, weight, k, np.inf, "COMPLETE", allow_bulk=False
            )
            assert [d for d, _ in bulk] == [d for d, _ in wand] == [d for d, _ in complete]
            for (_, a), (_, b), (_, c) in zip(bulk, wand, complete):
                assert np.float32(a) == np.float32(b) == np.float32(c)


def test_bulk_used_in_searcher(idx):
    # end-to-end equality through the full searcher (merge included)
    s = IndexSearcher(idx)
    for q in QUERIES:
        top = s.search(q, 10)
        exhaustive = s.search(q, 10, total_hits_threshold=np.inf, score_mode="COMPLETE")
        assert [(d, np.float32(sc)) for d, sc in top] == [
            (d, np.float32(sc)) for d, sc in exhaustive
        ]


def test_search_after_pagination(idx):
    s = IndexSearcher(idx)
    for q in [TermQuery("def"), bool_query(should=[TermQuery("def"), TermQuery("import")])]:
        total = s.count(q)
        full = s.search(q, total, total_hits_threshold=np.inf, score_mode="COMPLETE")
        assert len(full) == total
        pages = []
        after = None
        while True:
            page = s.search_after(q, 7, after)
            if not page:
                break
            pages.extend(page)
            after = (float(page[-1][1]), page[-1][0])
        got = [(d, np.float32(sc)) for d, sc in pages]
        want = [(d, np.float32(sc)) for d, sc in full]
        assert got == want


def test_dismax_scorer_paths(idx):
    """DisjunctionMaxQuery: dense TOP_SCORES path vs build_scorer COMPLETE
    path (independent code), count(), and nesting as a boolean clause."""
    from lucene_ray.search.query import DisjunctionMaxQuery

    s = IndexSearcher(idx)
    for tb in (0.0, 0.3, 1.0):
        q = DisjunctionMaxQuery(
            (TermQuery("def"), BoostQuery(TermQuery("import"), 1.7), TermQuery("class")),
            tie_breaker=tb,
        )
        top = s.search(q, 10)
        complete = s.search(q, 10, total_hits_threshold=np.inf, score_mode="COMPLETE")
        assert [(d, np.float32(sc)) for d, sc in top] == [
            (d, np.float32(sc)) for d, sc in complete
        ]
        # count() goes through build_scorer — must not raise and must equal
        # the number of docs matching any clause
        n = s.count(q)
        union = s.count(bool_query(should=[TermQuery("def"), TermQuery("import"), TermQuery("class")]))
        assert n == union > 0
        # dismax nested inside a BooleanQuery
        nested = bool_query(must=[q, TermQuery("return")])
        got = s.search(nested, 10, total_hits_threshold=np.inf, score_mode="COMPLETE")
        assert s.count(nested) > 0 and len(got) > 0


def test_block_max_conjunction_pruning(idx):
    """Conjunctions with an aggressive threshold (pruning active from the
    first k hits) must still equal the exhaustive COMPLETE arm — the
    BlockMaxConjunctionScorer skip logic is exact."""
    s = IndexSearcher(idx)
    conj_queries = [
        bool_query(must=[TermQuery("def"), TermQuery("return")]),
        bool_query(must=[TermQuery("def"), TermQuery("import"), TermQuery("return")]),
        bool_query(must=[BoostQuery(TermQuery("def"), 3.0), TermQuery("class")]),
        bool_query(must=[TermQuery("def")], filter=[TermQuery("return")]),
    ]
    for q in conj_queries:
        for k in (3, 10):
            aggressive = s.search(q, k, total_hits_threshold=1)
            complete = s.search(q, k, total_hits_threshold=np.inf, score_mode="COMPLETE")
            assert [(d, np.float32(sc)) for d, sc in aggressive] == [
                (d, np.float32(sc)) for d, sc in complete
            ], (q, k)
