"""End-to-end build + differential pruned-vs-exhaustive-vs-brute-force over
the synthetic corpus (FIXTURES F3 acceptance + CheckHits.checkTopScores
pattern, SURVEY §5.3), plus the per-row sha256 invariant."""

import hashlib
import math
import os
import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_ray.corpus import generate_corpus
from lucene_ray.index.build import build_index_local
from lucene_ray.search.oracle import brute_force_topk
from lucene_ray.search.query import BoostQuery, TermQuery, bool_query
from lucene_ray.search.searcher import IndexSearcher


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    corpus_dir = str(root / "corpus")
    os.makedirs(corpus_dir)
    tbl = generate_corpus(600, seed=11)
    pq.write_table(tbl, corpus_dir + "/part-0000.parquet", row_group_size=97)
    index_dir = str(root / "index")
    build_index_local(corpus_dir, index_dir, docs_per_segment=150)
    return tbl, IndexSearcher(index_dir)


def _query_set(searcher):
    """Hot / mid / rare / absent terms + disjunctions (FIXTURES F3 mix)."""
    qs = []
    hot = ["import", "return", "the", "def", "public", "func"]
    mid = ["dize", "bisane", "gabavaza", "wesu"]
    absent = ["zzzznope", "qqqq"]
    for t in hot + mid + absent:
        qs.append(TermQuery(t))
    qs.append(bool_query(should=[TermQuery("import"), TermQuery("return")]))
    qs.append(bool_query(should=[TermQuery(t) for t in hot[:5]]))
    qs.append(bool_query(should=[TermQuery("the"), TermQuery("dize"), TermQuery("zzzznope")]))
    qs.append(
        bool_query(
            should=[BoostQuery(TermQuery("import"), 2.5), TermQuery("def"),
                    BoostQuery(TermQuery("return"), 0.5)]
        )
    )
    qs.append(bool_query(should=[TermQuery(t) for t in hot[:4]], min_should_match=2))
    qs.append(bool_query(must=[TermQuery("import")], filter=[TermQuery("def")]))
    qs.append(bool_query(must=[TermQuery("import")], must_not=[TermQuery("def")]))
    qs.append(bool_query(should=[TermQuery("import"), TermQuery("dize")],
                         must=[TermQuery("return")]))
    return qs


def test_segment_map_offsets_by_doc_base(built, ray_session):
    """segment_map hands each kernel its segment's doc_base, so local
    docid + doc_base is the global docid on a multi-segment index."""
    from lucene_ray.pipelines.fulltext import _seg_postings, gather, segment_map

    _tbl, searcher = built
    assert len(searcher.readers) > 1
    got = gather(segment_map(searcher.index_dir, _seg_postings, terms=["import"]))
    want = []
    for r, seg in zip(searcher.readers, searcher.manifest["segments"]):
        want += (r.decode_term_cached(r.term_id("import"))[0] + seg["doc_base"]).tolist()
    assert sorted(got["doc_id"].to_pylist()) == sorted(want)
    assert max(want) >= searcher.manifest["segments"][-1]["doc_base"]


def test_hits_table_is_typed_without_hits(built):
    import pyarrow as pa

    from lucene_ray.pipelines.fulltext import hits_table

    _tbl, searcher = built
    schema = pa.schema([("qid", pa.int64()), ("rnk", pa.int64()), ("doc_id", pa.int64())])
    empty = hits_table(searcher, [TermQuery("zzzznope"), None, TermQuery("qqqq")], 10)
    assert empty.num_rows == 0 and empty.schema == schema
    t = hits_table(searcher, [None, TermQuery("import")], 3)
    assert t.schema == schema
    assert t["qid"].to_pylist() == [1, 1, 1] and t["rnk"].to_pylist() == [1, 2, 3]
    assert t["doc_id"].to_pylist() == [d for d, _ in searcher.search(TermQuery("import"), 3)]


@pytest.mark.parametrize("k", [1, 10, 100])
def test_differential_complete_vs_pruned_vs_brute(built, k):
    _, searcher = built
    for q in _query_set(searcher):
        pruned = searcher.search(q, k)  # TOP_SCORES, threshold 1000
        aggressive = searcher.search(q, k, total_hits_threshold=1)
        complete = searcher.search(q, k, total_hits_threshold=math.inf,
                                   score_mode="COMPLETE")
        brute = brute_force_topk(searcher, q, k)
        assert pruned == complete, q
        assert aggressive == complete, q
        p = [(d, float(s)) for d, s in pruned]
        b = [(d, float(s)) for d, s in brute]
        assert [d for d, _ in p] == [d for d, _ in b], q
        assert np.allclose([s for _, s in p], [s for _, s in b], rtol=1e-6), q


def test_count_matches_brute(built):
    _, searcher = built
    for q in _query_set(searcher)[:8]:
        brute = brute_force_topk(searcher, q, 10**6)
        assert searcher.count(q) == len(brute), q


def test_sha256_invariant(built):
    """Per-row content sha256 equality: stored doc tables vs source
    (BASELINE.json input_hint invariant)."""
    tbl, searcher = built
    src_sha = [
        hashlib.sha256(c.as_py().encode("utf-8")).hexdigest() for c in tbl.column("content")
    ]
    seen = 0
    for seg in searcher.manifest["segments"]:
        docs_dir = seg["docs_dir"]
        assert os.path.isdir(docs_dir), docs_dir
        parts = sorted(os.listdir(docs_dir))
        for p in parts:
            dt = pq.read_table(os.path.join(docs_dir, p))
            for docid, sha in zip(dt.column("docid").to_pylist(), dt.column("sha256").to_pylist()):
                gdoc = seg["doc_base"] + docid
                assert sha == src_sha[gdoc]
                seen += 1
    assert seen == len(src_sha)


def test_collection_stats_match_reanalysis(built):
    tbl, searcher = built
    from lucene_ray.analysis.analyzers import StandardAnalyzer

    an = StandardAnalyzer()
    total_tokens = sum(len(an.tokens(c.as_py())) for c in tbl.column("content"))
    # norms quantize doc length, but sum_total_term_freq is exact
    assert searcher.collection_stats.sum_total_term_freq == total_tokens
    assert searcher.collection_stats.max_doc == 600


def test_resume_skips_complete_segments(built, tmp_path):
    """FIXTURES F7: rerun over a partially-built index only rebuilds the
    missing segments and yields an identical manifest content."""
    tbl, searcher = built
    corpus_dir = str(tmp_path / "corpus")
    os.makedirs(corpus_dir)
    pq.write_table(tbl, corpus_dir + "/part-0000.parquet", row_group_size=97)
    index_dir = str(tmp_path / "index")
    m1 = build_index_local(corpus_dir, index_dir, docs_per_segment=150)
    assert m1["skipped_segments"] == []
    # kill one segment, rerun
    victim = m1["segments"][1]
    shutil.rmtree(victim["dir"])
    m2 = build_index_local(corpus_dir, index_dir, docs_per_segment=150)
    assert len(m2["skipped_segments"]) == len(m1["segments"]) - 1
    assert [s["stats"] for s in m2["segments"]] == [s["stats"] for s in m1["segments"]]
    s2 = IndexSearcher(index_dir)
    r1 = searcher.search(TermQuery("import"), 10)
    r2 = s2.search(TermQuery("import"), 10)
    assert r1 == r2


def test_stored_field_filter(built):
    """FILTER on a stored metadata column: matches restricted, scores
    IDENTICAL to the unfiltered query (filters never contribute to BM25)."""
    from lucene_ray.search.query import StoredFieldFilter, bool_query

    tbl, searcher = built
    langs = tbl.column("lang").to_pylist() if "lang" in tbl.column_names else None
    if langs is None:
        import pytest

        pytest.skip("corpus has no lang column")
    term = "def"
    value = langs[0]
    unfiltered = dict(searcher.search(TermQuery(term), 10**6,
                                      total_hits_threshold=np.inf, score_mode="COMPLETE"))
    q = bool_query(must=[TermQuery(term)], filter=[StoredFieldFilter("lang", value)])
    hits = searcher.search(q, 10**6, total_hits_threshold=np.inf, score_mode="COMPLETE")
    assert hits
    for doc, score in hits:
        assert langs[doc] == value
        assert np.float32(score) == np.float32(unfiltered[doc])
    expected = {d for d, s in unfiltered.items() if langs[d] == value}
    assert {d for d, _ in hits} == expected
    assert searcher.count(q) == len(expected)


def test_classic_similarity_pruned_equals_complete(built):
    """Pluggable similarity: the TOP_SCORES pruned path must equal COMPLETE
    under ClassicSimilarity too (the impact machinery is similarity-
    generic), and scores must match the TF-IDF formula."""
    from lucene_ray.search.searcher import IndexSearcher
    from lucene_ray.search.similarities import BooleanSimilarity, ClassicSimilarity

    _, searcher = built
    idx = searcher.manifest["segments"][0]["dir"]
    root = os.path.dirname(idx)
    cs = IndexSearcher(root, similarity=ClassicSimilarity())
    for q in _query_set(cs)[:6]:
        pruned = cs.search(q, 10)
        complete = cs.search(q, 10, total_hits_threshold=np.inf, score_mode="COMPLETE")
        assert [(d, np.float32(s)) for d, s in pruned] == [
            (d, np.float32(s)) for d, s in complete
        ], q
    # boolean similarity: every match scores the boost
    bs = IndexSearcher(root, similarity=BooleanSimilarity())
    hits = bs.search(TermQuery("def"), 20)
    assert hits and all(np.float32(s) == np.float32(1.0) for _, s in hits)


def test_stored_field_range_filter(built):
    """Numeric range FILTER (PointRangeQuery analogue): lower inclusive /
    upper exclusive over a stored int column, scores unchanged."""
    from lucene_ray.search.query import StoredFieldRange, bool_query

    tbl, searcher = built
    if "content" not in tbl.column_names:
        import pytest

        pytest.skip("corpus shape")
    lens = [len(c.as_py()) for c in tbl.column("content")]
    # index stores no n_chars — use a range over lang? use doc-level repo?
    # The generate_corpus index stores (repo, path, commit, lang); range
    # filters need a numeric column, so run this against a temp index with
    # n_chars stored.
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_ray.index.build import build_index_local
    from lucene_ray.search.searcher import IndexSearcher

    t2 = tbl.append_column("n_chars", pa.array([len(c.as_py()) for c in tbl.column("content")], pa.int64()))
    d = tempfile.mkdtemp()
    pq.write_table(t2, d + "/c.parquet", row_group_size=50)
    idx = tempfile.mkdtemp() + "/i"
    build_index_local(d, idx, docs_per_segment=50,
                      meta_columns=("repo", "lang", "n_chars"))
    s = IndexSearcher(idx)
    lo, hi = 150, 400
    unfiltered = dict(s.search(TermQuery("def"), 10**6,
                               total_hits_threshold=np.inf, score_mode="COMPLETE"))
    q = bool_query(must=[TermQuery("def")],
                   filter=[StoredFieldRange("n_chars", lo, hi)])
    hits = s.search(q, 10**6, total_hits_threshold=np.inf, score_mode="COMPLETE")
    expected = {d_ for d_ in unfiltered if lo <= lens[d_] < hi}
    assert {d_ for d_, _ in hits} == expected and hits
    for d_, sc in hits:
        assert np.float32(sc) == np.float32(unfiltered[d_])
    # open ends
    q2 = bool_query(must=[TermQuery("def")],
                    filter=[StoredFieldRange("n_chars", None, hi)])
    hits2 = s.search(q2, 10**6, total_hits_threshold=np.inf, score_mode="COMPLETE")
    assert {d_ for d_, _ in hits2} == {d_ for d_ in unfiltered if lens[d_] < hi}


def test_lmdirichlet_pruned_equals_complete_and_formula(built):
    """LMDirichlet through the same impact machinery: TOP_SCORES == COMPLETE,
    and the top hit's score matches the closed-form double-eval formula."""
    from lucene_ray.search.searcher import IndexSearcher
    from lucene_ray.search.similarities import LMDirichletSimilarity

    _, searcher = built
    root = os.path.dirname(searcher.manifest["segments"][0]["dir"])
    lm = IndexSearcher(root, similarity=LMDirichletSimilarity())
    for q in _query_set(lm)[:6]:
        pruned = lm.search(q, 10)
        complete = lm.search(q, 10, total_hits_threshold=np.inf, score_mode="COMPLETE")
        assert [(d, np.float32(s)) for d, s in pruned] == [
            (d, np.float32(s)) for d, s in complete
        ], q
    # formula spot check on the top TermQuery hit
    from lucene_ray.index.postings import decode_term
    from lucene_ray.index.segment import SegmentReader
    from lucene_ray.smallfloat import LENGTH_TABLE

    term = "def"
    hits = lm.search(TermQuery(term), 3)
    assert hits
    cstats = lm.collection_stats
    tstats = lm.term_statistics({term})[term]
    p = (tstats.total_term_freq + 1.0) / (cstats.sum_total_term_freq + 1.0)
    doc, score = hits[0]
    # locate the doc's tf and norm
    for seg in lm.manifest["segments"]:
        r = SegmentReader(seg["dir"])
        lo = seg["doc_base"]
        if lo <= doc < lo + r.max_doc:
            tid = r.term_id(term)
            docs, tfs = decode_term(r.enc, tid)
            tf = int(tfs[list(docs).index(doc - lo)])
            ql = float(LENGTH_TABLE[int(r.norms[doc - lo])])
            expect = np.float32(
                max(np.log1p(tf / (2000.0 * p)) + np.log(2000.0 / (ql + 2000.0)), 0.0)
            )
            assert np.float32(score) == expect
            break
    else:
        raise AssertionError("hit doc not found in any segment")


def test_lmjm_pruned_equals_complete_and_formula(built):
    """LMJelinekMercer through the same impact machinery: TOP_SCORES ==
    COMPLETE, and the top hit's score matches the closed-form double-eval
    formula (similarities/LMJelinekMercerSimilarity.java score())."""
    from lucene_ray.index.postings import decode_term
    from lucene_ray.index.segment import SegmentReader
    from lucene_ray.search.searcher import IndexSearcher
    from lucene_ray.search.similarities import LMJelinekMercerSimilarity
    from lucene_ray.smallfloat import LENGTH_TABLE

    _, searcher = built
    root = os.path.dirname(searcher.manifest["segments"][0]["dir"])
    lm = IndexSearcher(root, similarity=LMJelinekMercerSimilarity(lam=0.1))
    for q in _query_set(lm)[:6]:
        pruned = lm.search(q, 10)
        complete = lm.search(q, 10, total_hits_threshold=np.inf, score_mode="COMPLETE")
        assert [(d, np.float32(s)) for d, s in pruned] == [
            (d, np.float32(s)) for d, s in complete
        ], q

    term = "def"
    hits = lm.search(TermQuery(term), 3)
    assert hits
    cstats = lm.collection_stats
    tstats = lm.term_statistics({term})[term]
    p = (tstats.total_term_freq + 1.0) / (cstats.sum_total_term_freq + 1.0)
    doc, score = hits[0]
    for seg in lm.manifest["segments"]:
        r = SegmentReader(seg["dir"])
        lo = seg["doc_base"]
        if lo <= doc < lo + r.max_doc:
            tid = r.term_id(term)
            docs, tfs = decode_term(r.enc, tid)
            tf = int(tfs[list(docs).index(doc - lo)])
            ql = max(float(LENGTH_TABLE[int(r.norms[doc - lo])]), 1.0)
            expect = np.float32(max(np.log1p((1.0 - 0.1) * tf / ql / (0.1 * p)), 0.0))
            assert np.float32(score) == expect
            break
    else:
        raise AssertionError("hit doc not found in any segment")


def test_dfr_ib_axiomatic_pruned_equals_complete_and_formula(built):
    """DFR I(n)L2, IB LL/DF/H2 and AxiomaticF2EXP through the same impact
    machinery: TOP_SCORES == COMPLETE, and the top TermQuery hit matches
    each closed-form double-eval formula (similarities/DFRSimilarity.java,
    IBSimilarity.java, AxiomaticF2EXP.java)."""
    from lucene_ray.index.postings import decode_term
    from lucene_ray.index.segment import SegmentReader
    from lucene_ray.search.searcher import IndexSearcher
    from lucene_ray.search.similarities import (
        AxiomaticF2EXP,
        DFRSimilarity,
        IBSimilarity,
    )
    from lucene_ray.smallfloat import LENGTH_TABLE

    _, searcher = built
    root = os.path.dirname(searcher.manifest["segments"][0]["dir"])

    def closed_form(name, tf, ql, df, n, avgdl):
        if name == "dfr":
            tfn = tf * np.log2(1.0 + avgdl / ql)
            return np.log2((n + 1) / (df + 0.5)) * tfn / (1.0 + tfn)
        if name == "ib":
            tfn = tf * np.log2(1.0 + avgdl / ql)
            return np.log1p(tfn / ((df + 1.0) / (n + 1.0)))
        return ((n + 1.0) / df) ** 0.35 * tf / (tf + 0.5 + 0.5 * ql / avgdl)

    for name, sim in (
        ("dfr", DFRSimilarity()),
        ("ib", IBSimilarity()),
        ("ax", AxiomaticF2EXP()),
    ):
        s = IndexSearcher(root, similarity=sim)
        for q in _query_set(s)[:6]:
            pruned = s.search(q, 10)
            complete = s.search(
                q, 10, total_hits_threshold=np.inf, score_mode="COMPLETE"
            )
            assert [(d, np.float32(sc)) for d, sc in pruned] == [
                (d, np.float32(sc)) for d, sc in complete
            ], (name, q)

        term = "def"
        hits = s.search(TermQuery(term), 3)
        assert hits, name
        cstats = s.collection_stats
        tstats = s.term_statistics({term})[term]
        avgdl = cstats.sum_total_term_freq / float(cstats.doc_count)
        doc, score = hits[0]
        for seg in s.manifest["segments"]:
            r = SegmentReader(seg["dir"])
            lo = seg["doc_base"]
            if lo <= doc < lo + r.max_doc:
                tid = r.term_id(term)
                docs, tfs = decode_term(r.enc, tid)
                tf = int(tfs[list(docs).index(doc - lo)])
                ql = max(float(LENGTH_TABLE[int(r.norms[doc - lo])]), 1.0)
                expect = np.float32(
                    max(
                        closed_form(
                            name, tf, ql, tstats.doc_freq, cstats.doc_count, avgdl
                        ),
                        0.0,
                    )
                )
                assert np.float32(score) == expect, name
                break
        else:
            raise AssertionError("hit doc not found in any segment")


def test_explain_matches_search_scores(built):
    """IndexSearcher.explain: the root Explanation value must equal the
    float32 score search() returns, for term / boosted / boolean queries,
    and a non-matching doc explains as 0."""
    from lucene_ray.search.query import BoostQuery, bool_query

    _, searcher = built
    queries = [
        TermQuery("def"),
        BoostQuery(TermQuery("return"), 2.0),
        bool_query(should=[TermQuery("def"), TermQuery("import")]),
        bool_query(must=[TermQuery("def")], must_not=[TermQuery("zzz_q")]),
        bool_query(must=[TermQuery("import")], filter=[TermQuery("def")]),
        # MUST + optional SHOULD: f32(f32(Σ MUST) + f32(Σ SHOULD)), not one
        # flat sum (the two differ by an ulp on some of these hits)
        bool_query(must=[TermQuery("import")], should=[TermQuery("return"), TermQuery("def")]),
        bool_query(
            must=[TermQuery("the")],
            should=[TermQuery("public"), TermQuery("func"), TermQuery("import")],
        ),
        bool_query(
            must=[TermQuery("return")],
            should=[TermQuery("def"), TermQuery("the"), TermQuery("import")],
            min_should_match=2,
        ),
        bool_query(
            must=[BoostQuery(TermQuery("return"), 2.0)],
            should=[TermQuery("def"), TermQuery("import")],
            min_should_match=1,
        ),
    ]
    for q in queries:
        hits = searcher.search(q, 50, total_hits_threshold=np.inf, score_mode="COMPLETE")
        assert hits
        for doc, score in hits:
            ex = searcher.explain(q, int(doc))
            assert np.float32(ex["value"]) == np.float32(score), (q, doc)
            assert ex["details"] or "weight(" in ex["description"]
    # a doc that matches nothing
    miss = searcher.explain(TermQuery("zzz_not_a_term"), 0)
    assert miss["value"] == 0.0 and "no matching" in miss["description"]


def test_sweetspot_functions_pinned():
    """SweetSpot tf/lengthNorm closed forms pinned against hand-computed
    values (misc/SweetSpotSimilarity.java: lengthNorm plateau of 1.0
    inside [min, max]; baselineTf base below tf_min; hyperbolicTf
    midpoint = (min+max)/2 at xoffset and hard max far above)."""
    import numpy as np

    from lucene_ray.search.bm25 import CollectionStatistics, TermStatistics
    from lucene_ray.search.similarities import SweetSpotSimilarity
    from lucene_ray.smallfloat import LENGTH_TABLE

    cs = CollectionStatistics(100, 100, 10000, 5000)
    ts = TermStatistics("t", 10, 50)

    s = SweetSpotSimilarity(ln_min=100, ln_max=400, steepness=0.5,
                            tf_base=1.5, tf_min=2.0)
    sc = s.scorer(1.0, cs, ts)
    idf = np.log(101 / 11.0) + 1.0
    # a norm byte whose quantized length sits inside the plateau -> 1.0
    b_in = int(np.searchsorted(LENGTH_TABLE, 200))  # some length in [100,400]
    ql = float(LENGTH_TABLE[b_in])
    assert 100 <= ql <= 400
    assert np.float32(sc.score(1.0, b_in)) == np.float32(idf * 1.5)
    assert np.float32(sc.score(9.0, b_in)) == np.float32(
        idf * np.sqrt(9.0 + 1.5 * 1.5 - 2.0)
    )
    # hyperbolic: at freq == xoffset the ramp is the midpoint (max+min)/2
    h = SweetSpotSimilarity(ln_min=100, ln_max=400, hyperbolic_tf=True)
    hs = h.scorer(1.0, cs, ts)
    assert np.float32(hs.score(10.0, b_in)) == np.float32(idf * 1.0)
    # far above xoffset the tf approaches the hard max 2.0
    assert abs(float(hs.score(1000.0, b_in)) - idf * 2.0) < 1e-4


def test_indri_negative_scores_and_formula(built):
    """IndriDirichletSimilarity (similarities/IndriDirichletSimilarity.java
    mu=2000, IndriCollectionModel p = ttf/sumTtf): scores are NEGATIVE
    log-probabilities (no clamp), ranking still works in COMPLETE mode,
    and the top hit matches the closed-form double-eval formula."""
    from lucene_ray.index.postings import decode_term
    from lucene_ray.index.segment import SegmentReader
    from lucene_ray.search.searcher import IndexSearcher
    from lucene_ray.search.similarities import IndriDirichletSimilarity
    from lucene_ray.smallfloat import LENGTH_TABLE

    _, searcher = built
    root = os.path.dirname(searcher.manifest["segments"][0]["dir"])
    s = IndexSearcher(root, similarity=IndriDirichletSimilarity())
    term = "def"
    hits = s.search(TermQuery(term), 5, total_hits_threshold=np.inf,
                    score_mode="COMPLETE")
    assert hits
    assert all(sc < 0 for _d, sc in hits)  # log-probabilities
    scores = [float(sc) for _d, sc in hits]
    assert scores == sorted(scores, reverse=True)
    cstats = s.collection_stats
    tstats = s.term_statistics({term})[term]
    p = tstats.total_term_freq / float(cstats.sum_total_term_freq)
    doc, score = hits[0]
    for seg in s.manifest["segments"]:
        r = SegmentReader(seg["dir"])
        lo = seg["doc_base"]
        if lo <= doc < lo + r.max_doc:
            tid = r.term_id(term)
            docs, tfs = decode_term(r.enc, tid)
            tf = int(tfs[list(docs).index(doc - lo)])
            dl = float(LENGTH_TABLE[int(r.norms[doc - lo])])
            expect = np.float32(np.log((tf + 2000.0 * p) / (dl + 2000.0)))
            assert np.float32(score) == expect
            break
    else:
        raise AssertionError("hit doc not found in any segment")


def test_indri_and_union_and_smoothing(built):
    """IndriAndQuery (search/IndriAndQuery.java): the match set is the
    UNION of the clause postings, docs matching only one clause still
    get the other clause's freq=0 smoothing score, and every score is
    the boost-weighted mean of the closed-form per-clause values."""
    from lucene_ray.index.postings import decode_term
    from lucene_ray.index.segment import SegmentReader
    from lucene_ray.search.query import IndriAndQuery
    from lucene_ray.search.searcher import IndexSearcher
    from lucene_ray.search.similarities import IndriDirichletSimilarity
    from lucene_ray.smallfloat import LENGTH_TABLE

    _, searcher = built
    root = os.path.dirname(searcher.manifest["segments"][0]["dir"])
    s = IndexSearcher(root, similarity=IndriDirichletSimilarity())
    t1, t2 = "def", "return"
    q = IndriAndQuery((t1, t2), (1.0, 0.5))
    hits = s.search(q, 10_000, total_hits_threshold=np.inf, score_mode="COMPLETE")
    assert hits and all(sc < 0 for _d, sc in hits)
    got = {d: float(sc) for d, sc in hits}

    # brute recompute over every segment
    cstats = s.collection_stats
    ts = s.term_statistics({t1, t2})
    expect: dict[int, float] = {}
    for seg in s.manifest["segments"]:
        r = SegmentReader(seg["dir"])
        lo = seg["doc_base"]
        tf_by_term = {}
        union: set[int] = set()
        for t in (t1, t2):
            tid = r.term_id(t)
            if tid is None:
                tf_by_term[t] = {}
                continue
            docs, tfs = decode_term(r.enc, tid)
            tf_by_term[t] = dict(zip(docs.tolist(), tfs.tolist()))
            union.update(docs.tolist())
        for local in union:
            dl = float(LENGTH_TABLE[int(r.norms[local])])
            acc = 0.0
            for t, b in ((t1, 1.0), (t2, 0.5)):
                p = ts[t].total_term_freq / float(cstats.sum_total_term_freq)
                tf = tf_by_term[t].get(local, 0)
                acc += float(np.float32(np.log((tf + 2000.0 * p) / (dl + 2000.0)))) * b
            expect[lo + local] = float(np.float32(acc / 1.5))
    assert got == expect


def test_doc_values_stats_matches_numpy(ray_session):
    """DocValuesStats: the exact-integer-partial mean/variance equal
    numpy's population statistics over the matching docs."""
    import duckdb

    from lucene_ray.pipelines.fulltext import QUERY_TERMS, doc_values_stats

    sf = "/root/testdata/sf0.001"
    got = doc_values_stats(sf).to_pandas().set_index("qid")
    docs = duckdb.execute(
        f"select doc_id, lower(text) t, n_chars from read_parquet('{sf}/documents.parquet')"
    ).df()
    import re

    from lucene_ray.ops.util import TOKEN_PATTERN

    pat = re.compile(TOKEN_PATTERN)
    toks = [set(pat.findall(t)) for t in docs["t"]]
    for qid, term in enumerate(QUERY_TERMS):
        vals = docs["n_chars"].to_numpy()[[term in s for s in toks]].astype(np.int64)
        row = got.loc[qid]
        assert row["n"] == len(vals)
        assert row["min_v"] == vals.min() and row["max_v"] == vals.max()
        assert row["sum_v"] == vals.sum()
        assert row["mean"] == pytest.approx(vals.mean(), rel=1e-12)
        assert row["variance"] == pytest.approx(vals.var(), rel=1e-9)


def test_quality_stats_reference_semantics(ray_session):
    """QualityStats semantics (benchmark/quality/QualityStats.java):
    MRR counts only a first relevant hit within the top 5 (:88-89),
    AP = sum of precision at each relevant rank / maxGoodPoints (:123)."""
    from lucene_ray.pipelines.fulltext import quality_judged_run, quality_stats

    # hand-built run: relevant at ranks 2 and 4 of 5; maxGood 4
    rows = [
        {"qid": 0, "rnk": r, "doc_id": 100 + r, "relevant": int(r in (2, 4)),
         "rel_so_far": [0, 0, 1, 1, 2, 2][r]}
        for r in range(1, 6)
    ]
    import pyarrow as pa_
    st = quality_stats(pa_.Table.from_pylist(rows), {0: 4})[0]
    assert st["mrr"] == 0.5                      # first relevant at rank 2
    assert st["ap"] == (1 / 2 + 2 / 4) / 4       # precision at hits / maxGood
    assert st["recall"] == 2 / 4
    # first relevant BEYOND rank 5 -> mrr stays 0 (the reference quirk)
    rows2 = [
        {"qid": 1, "rnk": r, "doc_id": r, "relevant": int(r == 6),
         "rel_so_far": int(r >= 6)}
        for r in range(1, 8)
    ]
    st2 = quality_stats(pa_.Table.from_pylist(rows2), {1: 1})[1]
    assert st2["mrr"] == 0.0 and st2["ap"] == 1 / 6

    # integration: stats derive cleanly from the real judged run
    run = quality_judged_run("/root/testdata/sf0.001")
    df = run.to_pandas()
    max_good = {int(q): int(g["relevant"].sum()) for q, g in df.groupby("qid")}
    stats = quality_stats(run, max_good)  # recall == 1 by this maxGood
    for qid, s in stats.items():
        assert 0.0 <= s["p_at_10"] <= 1.0 and 0.0 <= s["mrr"] <= 1.0
