"""One matcher per dense query type: ``query.dense_matches`` answers top-k
search, COMPLETE search, count and use as a FILTER clause alike, on a
3-segment index with deletes and a doc-values update."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index.build import build_index_local
from lucene_ray.index.deletes import delete_by_query, update_numeric_docvalue
from lucene_ray.index.points import build_segment_points
from lucene_ray.index.vectors import build_segment_vectors
from lucene_ray.search.intervals import parse_fn
from lucene_ray.search.query import (
    DENSE_KERNELS,
    BlendedTermQuery,
    BoostQuery,
    CoveringQuery,
    DisjunctionMaxQuery,
    DistanceFeatureQuery,
    DocValuesTermsQuery,
    FeatureQuery,
    FieldExistsQuery,
    FunctionRangeQuery,
    FunctionScoreQuery,
    FuzzyQuery,
    IndexOrDocValuesQuery,
    IndriAndQuery,
    IntervalQuery,
    KnnFloatVectorQuery,
    MultiPhraseQuery,
    PayloadScoreQuery,
    PhraseQuery,
    PointBoxQuery,
    PointInSetQuery,
    PointMultiRangeQuery,
    PrefixQuery,
    RegexpQuery,
    SpanPayloadCheckQuery,
    SpanScoreQuery,
    StoredFieldFilter,
    StoredFieldRange,
    SynonymQuery,
    TermInSetQuery,
    TermQuery,
    TermRangeQuery,
    WildcardQuery,
    bool_query,
)
from lucene_ray.search.searcher import IndexSearcher, _top_k
from lucene_ray.search.spans import SpanNear, SpanTerm
from tests.util import DV_WORDS

N_DOCS = 60
DIM = 4
VEC = (0.3, -0.2, 0.9, 0.1)

MUST_SHOULD = bool_query(must=[TermQuery("red")], should=[TermQuery("blue"), TermQuery("green")])

CASES = [
    PrefixQuery("s"),
    TermRangeQuery("b", "g"),
    WildcardQuery("*e*"),
    FuzzyQuery("sprak"),
    RegexpQuery("[a-d].*"),
    TermInSetQuery(("red", "blue")),
    PhraseQuery(("red", "green")),
    PhraseQuery(("red", "green"), slop=2),
    MultiPhraseQuery((("red", "blue"), ("green", "alpha"))),
    SpanScoreQuery(SpanNear((SpanTerm("red"), SpanTerm("blue")), 2, False)),
    SpanPayloadCheckQuery(("red",), (10,), "gte"),
    PayloadScoreQuery("red", "max"),
    CoveringQuery((TermQuery("red"), TermQuery("blue"), TermQuery("spark")), "n"),
    FeatureQuery("n", "satu"),
    FeatureQuery("n", "log", weight=2.0, a=1.5),
    DistanceFeatureQuery("n", 20, 5),
    StoredFieldRange("n", 10, 40),
    StoredFieldFilter("lang", "en"),
    DocValuesTermsQuery("lang", ("en", "fr")),
    FieldExistsQuery("lang"),
    PointBoxQuery(("n",), (10,), (40,)),
    PointMultiRangeQuery(("n",), (((0,), (5,)), ((30,), (1000,)))),
    PointInSetQuery(("n",), 0, (3, 17, 999)),
    FunctionRangeQuery("n * 2", 10, 60),
    SynonymQuery(("red", "blue"), (1.0, 0.5)),
    IntervalQuery(parse_fn("fn:ordered(red green)")),
    DisjunctionMaxQuery((TermQuery("red"), BoostQuery(TermQuery("blue"), 2.0)), 0.1),
    BlendedTermQuery(("red", "scan")),
    BlendedTermQuery(("red", "scan"), rewrite="boolean"),
    FunctionScoreQuery(TermQuery("red"), field="n"),
    FunctionScoreQuery(TermQuery("red"), expression="_score * 2 + n"),
    IndriAndQuery(("red", "blue")),
    KnnFloatVectorQuery("embedding", VEC, 5),
    KnnFloatVectorQuery("embedding", VEC, 5, filter=TermQuery("red")),
]

# inner queries of every kind: a dense leaf, a Boolean tree, and one the
# bulk kernel cannot express (scored by a COMPLETE tree walk)
INNER_CASES = [
    pytest.param(FunctionScoreQuery(PhraseQuery(("red", "green")), field="n"),
                 id="FunctionScoreQuery_of_phrase"),
    pytest.param(CoveringQuery((PrefixQuery("s"), TermQuery("red")), "n"),
                 id="CoveringQuery_of_prefix_and_term"),
    pytest.param(FunctionScoreQuery(MUST_SHOULD, field="n"), id="FunctionScoreQuery_of_boolean"),
    pytest.param(
        FunctionScoreQuery(
            IndexOrDocValuesQuery(StoredFieldFilter("lang", "en"),
                                  DocValuesTermsQuery("lang", ("en",))),
            expression="_score + n",
        ),
        id="FunctionScoreQuery_of_index_or_docvalues",
    ),
]


@pytest.fixture(scope="module")
def dense_index(tmp_path_factory):
    """60 docs in three 20-doc segments with positions and payloads,
    stored ``doc_id`` / ``n`` / ``lang`` (some null), a point tree on
    ``n`` in two segments (the third takes the column scan), an HNSW
    graph per segment, then deletes of ``delta`` docs and ``n = 999``
    for ``spark`` docs."""
    root = tmp_path_factory.mktemp("dense")
    rng = np.random.default_rng(11)
    texts = [
        " ".join(rng.choice(DV_WORDS, size=int(rng.integers(3, 12))).tolist())
        for _ in range(N_DOCS)
    ]
    langs = [None if i % 7 == 0 else ["en", "de", "fr"][i % 3] for i in range(N_DOCS)]
    src = str(root / "c.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(N_DOCS), pa.int64()),
            "n": pa.array(rng.integers(0, 50, N_DOCS), pa.int64()),
            "lang": pa.array(langs, pa.string()),
            "text": pa.array(texts),
        }),
        src,
        row_group_size=20,
    )
    emb = str(root / "emb.parquet")
    pq.write_table(
        pa.table({
            "vec_id": pa.array(range(N_DOCS), pa.int64()),
            "embedding": pa.array(rng.standard_normal((N_DOCS, DIM)).astype(np.float32).tolist(),
                                  pa.list_(pa.float32())),
        }),
        emb,
    )
    idx = str(root / "idx")
    man = build_index_local(src, idx, docs_per_segment=20, content_column="text",
                            meta_columns=("doc_id", "n", "lang"), index_options="payloads")
    assert len(man["segments"]) == 3
    for i, seg in enumerate(man["segments"]):
        build_segment_vectors(seg["dir"], emb, "embedding", "vec_id")
        if i != 2:
            build_segment_points(seg["dir"], ("n",))
    delete_by_query(idx, TermQuery("delta"))
    update_numeric_docvalue(idx, TermQuery("spark"), "n", 999)
    s = IndexSearcher(idx)
    assert sum(r.live is not None for r in s.readers) >= 2
    return idx


@pytest.fixture(scope="module")
def no_token_index(tmp_path_factory):
    """One segment of three docs with stored fields but empty text: the
    collection has no field length to average, so no SimScorer can be
    built."""
    root = tmp_path_factory.mktemp("no_tokens")
    src = str(root / "c.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "n": pa.array([1, 20, 3], pa.int64()),
            "lang": pa.array(["en", None, "fr"], pa.string()),
            "text": pa.array(["", "", ""]),
        }),
        src,
    )
    idx = str(root / "idx")
    build_index_local(src, idx, content_column="text", meta_columns=("doc_id", "n", "lang"),
                      index_options="payloads")
    return idx


def test_cases_cover_every_dense_type():
    assert {type(q) for q in CASES} == set(DENSE_KERNELS)


@pytest.mark.parametrize("index", ["dense_index", "no_token_index"])
@pytest.mark.parametrize("q", CASES + INNER_CASES, ids=lambda q: type(q).__name__)
def test_dense_type_answers_alike(request, index, q):
    """count == the COMPLETE hit count; TOP_SCORES top-10 == the COMPLETE
    top-10 (docids and float32 scores); as a FILTER beside a term, the
    count is the intersection of the two COMPLETE match sets."""
    s = IndexSearcher(request.getfixturevalue(index))
    complete = s.search(q, N_DOCS, score_mode="COMPLETE")
    assert s.count(q) == len(complete)
    assert s.search(q, 10) == complete[:10]
    assert all(isinstance(sc, np.float32) for _, sc in s.search(q, 10))
    term = TermQuery("blue")
    term_docs = {d for d, _ in s.search(term, N_DOCS, score_mode="COMPLETE")}
    expected = term_docs & {d for d, _ in complete}
    assert s.count(bool_query(must=[term], filter=[q])) == len(expected)


def test_top_k_takes_first_docids_among_ties():
    n = 10**6
    got = _top_k(np.arange(n, dtype=np.int64), np.ones(n, dtype=np.float32), 10)
    assert got == [(d, np.float32(1.0)) for d in range(10)]
    sc = np.ones(n, dtype=np.float32)
    sc[[500, 900_000]] = 2.0
    got = _top_k(np.arange(n, dtype=np.int64), sc, 4)
    assert [d for d, _ in got] == [500, 900_000, 0, 1]


def test_knn_filter_and_seed_terms_are_weighed(dense_index):
    """The Weight carries a kNN filter's and seed's term stats: a term
    filter keeps the kNN hits holding the term, and is not empty."""
    s = IndexSearcher(dense_index)
    red = {d for d, _ in s.search(TermQuery("red"), N_DOCS, score_mode="COMPLETE")}
    hits = s.search(KnnFloatVectorQuery("embedding", VEC, 5, filter=TermQuery("red")), N_DOCS)
    assert hits and {d for d, _ in hits} <= red
    seeded = KnnFloatVectorQuery("embedding", VEC, 5, seed=TermQuery("red"))
    assert s.count(seeded) == len(s.search(seeded, N_DOCS))


def test_function_score_inner_scores_like_search(dense_index):
    """An inner query's ``_score`` is the engine's own score for it: the
    float nesting of a MUST+SHOULD tree, not one flat sum."""
    s = IndexSearcher(dense_index)
    for inner in (TermQuery("red"), bool_query(should=[TermQuery("red"), TermQuery("blue")]),
                  MUST_SHOULD):
        want = s.search(inner, N_DOCS, score_mode="COMPLETE")
        got = s.search(FunctionScoreQuery(inner, expression="_score"), N_DOCS, score_mode="COMPLETE")
        assert got, inner
        assert sorted((d, sc.view(np.uint32)) for d, sc in got) == sorted(
            (d, sc.view(np.uint32)) for d, sc in want
        ), inner
