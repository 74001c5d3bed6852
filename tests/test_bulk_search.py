"""Differential: the bulk Boolean kernel vs the per-doc scorer tree.

The bulk path (``query.bulk_matches`` under the searcher.BULK_MAX_DOC
gate) must be score- and rank-identical to both the pruned scorer tree
(``allow_bulk=False``) and the exhaustive COMPLETE path — the
CheckHits.checkTopScores discipline (SURVEY §5.3) applied to a third
implementation — for every Boolean shape: any occur, any
min_should_match, boosts, nesting, dense leaves, deletes and segments
whose docs hold no tokens.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.corpus import generate_corpus
from lucene_ray.index.build import build_index_local
from lucene_ray.index.deletes import delete_by_query
from lucene_ray.search.query import (
    FILTER,
    MUST,
    MUST_NOT,
    SHOULD,
    BooleanClause,
    BooleanQuery,
    BoostQuery,
    ConstantScoreQuery,
    MatchAllDocsQuery,
    PhraseQuery,
    PrefixQuery,
    TermQuery,
    bool_query,
    bulk_matches,
    live_matches,
)
from lucene_ray.search.searcher import IndexSearcher, search_segment


@pytest.fixture(scope="module")
def idx(tmp_path_factory):
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("bulk_corpus")
    pq.write_table(generate_corpus(800, seed=21), str(d / "c.parquet"), row_group_size=100)
    out = str(tmp_path_factory.mktemp("bulk_idx"))
    build_index_local(str(d), out, docs_per_segment=100, index_options="positions")
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
    bool_query(must=[TermQuery("def")]),
    bool_query(must=[TermQuery("def"), TermQuery("return")]),
    bool_query(must=[TermQuery("return")], must_not=[TermQuery("import")]),
    bool_query(must=[TermQuery("class")], filter=[TermQuery("return")]),
    bool_query(should=[TermQuery("def"), TermQuery("static")], filter=[TermQuery("return")]),
    *(
        bool_query(
            must=[TermQuery("return")],
            should=[TermQuery("def"), TermQuery("import"), TermQuery("class")],
            min_should_match=msm,
        )
        for msm in (0, 1, 2)
    ),
    bool_query(
        must=[BoostQuery(TermQuery("return"), 1.5)],
        should=[BoostQuery(TermQuery("def"), 0.5), TermQuery("import")],
    ),
    bool_query(
        must=[bool_query(should=[TermQuery("def"), TermQuery("import")])],
        should=[TermQuery("class")],
        must_not=[bool_query(must=[TermQuery("static"), TermQuery("void")])],
    ),
    bool_query(must=[PhraseQuery(("return", "import"))], should=[TermQuery("class")]),
    bool_query(must=[PrefixQuery("cla")], should=[TermQuery("return")]),
    bool_query(must=[TermQuery("zzz_not_a_term"), TermQuery("def")]),
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


WORDS = "red green blue spark join merge alpha beta".split()


def _index(root, texts, docs_per_segment):
    src = str(root / "c.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": pa.array(texts)}),
        src,
        row_group_size=docs_per_segment,
    )
    out = str(root / "idx")
    build_index_local(src, out, docs_per_segment=docs_per_segment, content_column="text",
                      meta_columns=("doc_id",), index_options="positions")
    return out


@pytest.fixture(scope="module")
def shapes_index(tmp_path_factory):
    """Six 20-doc segments over an 8-word vocabulary; the last segment's
    docs hold no tokens, and every ``merge`` doc is deleted (so ``merge``
    keeps its term statistics but matches no live doc)."""
    rng = np.random.default_rng(5)
    texts = [
        " ".join(rng.choice(WORDS, size=int(rng.integers(1, 10))).tolist()) if i < 100 else ""
        for i in range(120)
    ]
    out = _index(tmp_path_factory.mktemp("shapes"), texts, 20)
    delete_by_query(out, TermQuery("merge"))
    return out


@pytest.fixture(scope="module")
def no_token_index(tmp_path_factory):
    """One segment of three docs whose text is empty: the collection has
    no field length to average, so no SimScorer can be built."""
    return _index(tmp_path_factory.mktemp("no_tokens"), ["", "", ""], 20)


def _leaf(rng):
    x = rng.random()
    if x < 0.5:
        q = TermQuery(str(rng.choice(WORDS + ["absent"])))
    elif x < 0.62:
        q = PhraseQuery(tuple(rng.choice(WORDS, 2, replace=False).tolist()))
    elif x < 0.72:
        q = PrefixQuery(str(rng.choice(["b", "s", "m", "zz"])))
    elif x < 0.82:
        q = ConstantScoreQuery(TermQuery(str(rng.choice(WORDS))))
    elif x < 0.86:
        q = MatchAllDocsQuery()
    else:
        q = TermQuery(str(rng.choice(WORDS)))
    if rng.random() < 0.25:
        q = BoostQuery(q, float(rng.choice([0.5, 2.0, 3.25])))
    return q


def random_shape(rng, depth=0):
    """A random Boolean tree: 1-4 clauses of any occur over term, phrase,
    prefix, constant-score and match-all leaves (some boosted), nested up
    to two levels, min_should_match from 0 to one past the SHOULD count."""
    clauses = []
    for _ in range(int(rng.integers(1, 5))):
        occur = str(rng.choice([SHOULD, SHOULD, MUST, MUST, FILTER, MUST_NOT]))
        sub = random_shape(rng, depth + 1) if depth < 2 and rng.random() < 0.25 else _leaf(rng)
        clauses.append(BooleanClause(sub, occur))
    n_should = sum(c.occur == SHOULD for c in clauses)
    msm = int(rng.integers(0, n_should + 2)) if rng.random() < 0.4 else 0
    q = BooleanQuery(tuple(clauses), msm)
    return BoostQuery(q, 1.5) if rng.random() < 0.1 else q


def _bits(hits):
    return [(d, int(np.float32(sc).view(np.uint32))) for d, sc in hits]


@pytest.mark.parametrize("index", ["shapes_index", "no_token_index"])
@pytest.mark.parametrize("seed", range(4))
def test_random_boolean_shapes_agree(request, index, seed):
    """Three arms agree bitwise (docids and float32 score bits) on every
    segment and k: the bulk kernel (TOP_SCORES), the pruned scorer tree
    (``allow_bulk=False``) and the exhaustive COMPLETE tree; the merged
    search equals the COMPLETE search; ``count`` equals the COMPLETE
    match count and the bulk kernel's live match count."""
    s = IndexSearcher(request.getfixturevalue(index))
    n_docs = sum(r.max_doc for r in s.readers)
    rng = np.random.default_rng(seed)
    for _ in range(60):
        q, weight = s.weigh(random_shape(rng))
        for reader in s.readers:
            for k in (3, 10, reader.max_doc):
                bulk = search_segment(reader, q, weight, k, 1000, "TOP_SCORES")
                tree = search_segment(reader, q, weight, k, 1000, "TOP_SCORES", allow_bulk=False)
                complete = search_segment(reader, q, weight, k, np.inf, "COMPLETE")
                assert _bits(bulk) == _bits(tree) == _bits(complete), (q, k)
        everything = s.search(q, n_docs, total_hits_threshold=np.inf, score_mode="COMPLETE")
        assert _bits(s.search(q, 10)) == _bits(everything[:10]), q
        bulk_count = 0
        for reader in s.readers:
            m = live_matches(reader, bulk_matches(q, weight, reader))
            bulk_count += 0 if m is None else len(m[0])
        assert s.count(q) == len(everything) == bulk_count, q


def test_min_should_match_equal_to_present_should_clauses(shapes_index):
    """msm equal to the number of SHOULD clauses present in a segment
    makes every one required; the tree answers it (it raised ValueError
    from WANDScorer, which needs msm below the clause count) like the
    bulk kernel."""
    s = IndexSearcher(shapes_index)
    for q in (
        bool_query(should=[TermQuery("red"), TermQuery("blue")], min_should_match=2),
        bool_query(
            must=[TermQuery("alpha")],
            should=[TermQuery("red"), TermQuery("blue"), TermQuery("absent")],
            min_should_match=2,
        ),
    ):
        top = s.search(q, 10)
        complete = s.search(q, 10, total_hits_threshold=np.inf, score_mode="COMPLETE")
        assert top and _bits(top) == _bits(complete)


@pytest.mark.parametrize("should", ["green", "absent", "merge"])
def test_should_beside_filter_is_optional(shapes_index, should):
    """With msm = 0, a SHOULD clause beside a FILTER clause only scores:
    the match set is the FILTER's on every arm, whether the SHOULD term
    occurs in the segment (``green``), nowhere (``absent``) or only in
    deleted docs (``merge``)."""
    s = IndexSearcher(shapes_index)
    q, weight = s.weigh(bool_query(filter=[TermQuery("red")], should=[TermQuery(should)]))
    f, f_weight = s.weigh(bool_query(filter=[TermQuery("red")]))
    for reader in s.readers:
        n = reader.max_doc
        want = sorted(d for d, _ in search_segment(reader, f, f_weight, n, np.inf, "COMPLETE"))
        for arm in (
            search_segment(reader, q, weight, n, 1000, "TOP_SCORES"),
            search_segment(reader, q, weight, n, 1000, "TOP_SCORES", allow_bulk=False),
            search_segment(reader, q, weight, n, np.inf, "COMPLETE"),
        ):
            assert sorted(d for d, _ in arm) == want, (should, reader)
    assert s.count(q) == s.count(f) > 0
