"""Multi-field indexing: aligned per-field indexes, cross-field boolean
scoring with per-field stats, field-prefixed parsing."""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_ray.analysis.analyzers import make_analyzer
from lucene_ray.corpus import generate_corpus
from lucene_ray.index.multifield import (
    FieldedClause,
    FieldSpec,
    MultiFieldSearcher,
    build_multi_field_index,
    parse_multi_field,
)
from lucene_ray.search.query import PhraseQuery, TermQuery
from lucene_ray.search.searcher import IndexSearcher


@pytest.fixture(scope="module")
def mf_idx(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("mf_corpus")
    tbl = generate_corpus(400, seed=47)
    pq.write_table(tbl, str(d / "c.parquet"), row_group_size=50)
    out = str(tmp_path_factory.mktemp("mf_idx"))
    build_multi_field_index(
        str(d),
        out,
        [
            FieldSpec("content", "content", "standard"),
            FieldSpec("lang", "lang", "keyword"),
            FieldSpec("repo", "repo", "keyword"),
        ],
        docs_per_segment=50,
    )
    return out, tbl


def test_single_field_clause_equals_plain_searcher(mf_idx):
    out, _ = mf_idx
    ms = MultiFieldSearcher(out)
    assert ms.fields == ["content", "lang", "repo"]
    plain = IndexSearcher(out + "/content")
    for term in ("def", "return", "import"):
        got = ms.search([FieldedClause("content", TermQuery(term), "MUST")], 15)
        want = plain.search(TermQuery(term), 15, total_hits_threshold=np.inf,
                            score_mode="COMPLETE")
        assert [(d, np.float32(s)) for d, s in got] == [
            (d, np.float32(s)) for d, s in want
        ]
        assert ms.count([FieldedClause("content", TermQuery(term), "MUST")]) == \
            plain.count(TermQuery(term))


def test_cross_field_conjunction_scores(mf_idx):
    out, tbl = mf_idx
    ms = MultiFieldSearcher(out)
    langs = tbl.column("lang").to_pylist()
    value = langs[0]
    n = len(langs)
    content = IndexSearcher(out + "/content")
    lang_idx = IndexSearcher(out + "/lang")
    c_scores = dict(content.search(TermQuery("def"), n,
                                   total_hits_threshold=np.inf, score_mode="COMPLETE"))
    l_scores = dict(lang_idx.search(TermQuery(value), n,
                                    total_hits_threshold=np.inf, score_mode="COMPLETE"))
    clauses = [
        FieldedClause("content", TermQuery("def"), "MUST"),
        FieldedClause("lang", TermQuery(value), "MUST"),
    ]
    hits = ms.search(clauses, n)
    expected_docs = set(c_scores) & set(l_scores)
    assert {d for d, _ in hits} == expected_docs and hits
    for d, sc in hits:
        want = np.float32(float(c_scores[d]) + float(l_scores[d]))
        assert np.float32(sc) == want
    assert ms.count(clauses) == len(expected_docs)
    # the lang clause's own BM25 uses per-FIELD stats: every lang doc has
    # length 1, so all matching docs share one lang score
    assert len({np.float32(v) for v in l_scores.values()}) == 1


def test_cross_field_must_not_and_should(mf_idx):
    out, tbl = mf_idx
    ms = MultiFieldSearcher(out)
    langs = tbl.column("lang").to_pylist()
    value = langs[0]
    content = IndexSearcher(out + "/content")
    base = {d for d, _ in content.search(TermQuery("def"), 10**6,
                                         total_hits_threshold=np.inf,
                                         score_mode="COMPLETE")}
    excl = {i for i, l in enumerate(langs) if l == value}
    got = ms.search(
        [
            FieldedClause("content", TermQuery("def"), "MUST"),
            FieldedClause("lang", TermQuery(value), "MUST_NOT"),
        ],
        10**6,
    )
    assert {d for d, _ in got} == base - excl
    # FILTER keeps content scores unchanged
    flt = ms.search(
        [
            FieldedClause("content", TermQuery("def"), "MUST"),
            FieldedClause("lang", TermQuery(value), "FILTER"),
        ],
        10**6,
    )
    c_scores = dict(content.search(TermQuery("def"), 10**6,
                                   total_hits_threshold=np.inf, score_mode="COMPLETE"))
    for d, sc in flt:
        assert np.float32(sc) == np.float32(c_scores[d])
    assert {d for d, _ in flt} == base & excl


def test_parse_multi_field(mf_idx):
    out, _ = mf_idx
    analyzers = {
        "content": make_analyzer("standard"),
        "lang": make_analyzer("keyword"),
    }
    clauses = parse_multi_field('+lang:en -content:join "def return" spark',
                                analyzers, "content")
    assert clauses[0] == FieldedClause("lang", TermQuery("en"), "MUST")
    assert clauses[1] == FieldedClause("content", TermQuery("join"), "MUST_NOT")
    assert clauses[2].field == "content" and isinstance(clauses[2].query, PhraseQuery)
    assert clauses[3] == FieldedClause("content", TermQuery("spark"), "SHOULD")
    ms = MultiFieldSearcher(out)
    got = ms.search(
        parse_multi_field("+content:def lang:" +
                          "xx_nonexistent", analyzers, "content"), 5
    )
    assert got  # MUST matches even when the SHOULD lang value is absent


def test_parse_multifield_expansion():
    """MultiFieldQueryParser shape: unqualified terms expand SHOULD across
    all fields with per-field boosts; field: prefixes pin; unknown
    prefixes stay literal terms; analyzer normalizes case."""
    from lucene_ray.index.multifield import parse_multifield

    cl = parse_multifield(
        "Spark title:Group other:x", ("text", "title"), {"title": 2.0}
    )
    shapes = [(c.field, c.query.term, c.occur, c.boost) for c in cl]
    assert shapes == [
        ("text", "spark", "SHOULD", 1.0),
        ("title", "spark", "SHOULD", 2.0),
        ("title", "group", "SHOULD", 2.0),
        ("text", "other:x", "SHOULD", 1.0),
        ("title", "other:x", "SHOULD", 2.0),
    ]


def test_multi_similarity_sums_subscorer_scores():
    # misc/search/similarity/MultiSimilarity.java: score == sum of subs
    import numpy as np

    from lucene_ray.search.bm25 import CollectionStatistics, TermStatistics
    from lucene_ray.search.similarities import (
        BooleanSimilarity,
        ClassicSimilarity,
        MultiSimilarity,
    )

    cs = CollectionStatistics(
        max_doc=100, doc_count=100, sum_total_term_freq=5000, sum_doc_freq=4000
    )
    ts = TermStatistics(term="t", doc_freq=7, total_term_freq=30)
    subs = (ClassicSimilarity(), BooleanSimilarity())
    multi = MultiSimilarity(subs).scorer(1.0, cs, ts)
    parts = [s.scorer(1.0, cs, ts) for s in subs]
    freqs = np.array([1.0, 3.0, 10.0])
    norms = np.array([7, 100, 200])
    want = np.float32(
        sum(p.score_bulk(freqs, norms).astype(np.float64) for p in parts)
    )
    np.testing.assert_array_equal(multi.score_bulk(freqs, norms), want)
    for f, nb in zip(freqs, norms):
        assert multi.score(f, int(nb)) == np.float32(
            float(parts[0].score(f, int(nb))) + float(parts[1].score(f, int(nb)))
        )


def test_satu_feature_clause_rewrites_pivot(tmp_path, ray_session):
    """A satu FeatureQuery(pivot=None) clause gets its pivot from its
    field's searcher (the field holding the stored feature column) and
    scores like the same boolean query on that field's plain searcher."""
    import pyarrow.compute as pc

    from lucene_ray.search.query import FeatureQuery, bool_query

    tbl = generate_corpus(200, seed=11)
    tbl = tbl.append_column("n_chars", pc.utf8_length(tbl.column("content")))
    pq.write_table(tbl, str(tmp_path / "c.parquet"), row_group_size=50)
    out = str(tmp_path / "idx")
    build_multi_field_index(
        str(tmp_path / "c.parquet"),
        out,
        [FieldSpec("content", "content", "standard"), FieldSpec("lang", "lang", "keyword")],
        docs_per_segment=50,
    )
    ms = MultiFieldSearcher(out)
    plain = IndexSearcher(out + "/content")
    pivot = plain.compute_feature_pivot("n_chars")
    feature = FeatureQuery("n_chars", "satu", weight=2.0)
    clauses = [
        FieldedClause("content", TermQuery("def"), "MUST"),
        FieldedClause("content", feature, "SHOULD"),
    ]
    got = ms.search(clauses, 10)
    pinned = ms.search(
        [clauses[0], FieldedClause("content", FeatureQuery("n_chars", "satu", 2.0, pivot=pivot))],
        10,
    )
    want = plain.search(
        bool_query(must=[TermQuery("def")], should=[feature]), 10,
        total_hits_threshold=np.inf, score_mode="COMPLETE",
    )
    assert got and got == pinned
    assert [(d, np.float32(s)) for d, s in got] == [(d, np.float32(s)) for d, s in want]
    assert ms.count(clauses) == plain.count(TermQuery("def"))
