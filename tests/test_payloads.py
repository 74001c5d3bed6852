"""Payload stream (PayloadAttribute / PayloadScoreQuery analogues):
per-occurrence int32 stream parallel to positions; default payload source
is the occurrence's char start offset (TokenOffsetPayloadTokenFilter
shape), so every value is independently recomputable from the text."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.corpus import generate_corpus
from lucene_ray.index.build import build_index_local
from lucene_ray.index.deletes import add_documents
from lucene_ray.index.merge import force_merge
from lucene_ray.index.segment import SegmentReader
from lucene_ray.search.query import PayloadScoreQuery, TermQuery
from lucene_ray.search.searcher import IndexSearcher


@pytest.fixture(scope="module")
def pay_index(tmp_path_factory):
    d = tmp_path_factory.mktemp("pay")
    src = d / "c.parquet"
    pq.write_table(generate_corpus(150, seed=13), str(src))
    idx = str(d / "idx")
    build_index_local(str(src), idx, docs_per_segment=50, index_options="payloads")
    return idx, str(src)


def test_payloads_match_recomputed_offsets(pay_index):
    """Every stored payload equals the occurrence's char start offset,
    recomputed from the raw text with the same analyzer."""
    idx, src = pay_index
    from lucene_ray.analysis.analyzers import StandardAnalyzer, postings_rows

    texts = pq.read_table(src, columns=["content"]).column("content").to_pylist()
    a = StandardAnalyzer()
    r = SegmentReader(idx + "/seg_000000")
    assert r.has_payloads and r.has_positions and not r.has_offsets
    term = "import"
    tid = r.term_id(term)
    assert tid is not None
    docs, _tfs = r.decode_term_cached(tid)
    pays = r.term_payloads(tid)
    for doc, p in zip(docs[:10], pays[:10]):
        text = texts[int(doc)]
        # recompute: start offsets of this term's occurrences
        vocab, tids, dd, tfs, _l, pos, off_s, off_e = postings_rows(a._batch_token_stream([text]), "offsets")
        gid = vocab.index(term)
        starts = np.concatenate(([0], np.cumsum(tfs)))
        row = int(np.flatnonzero(tids == gid)[0])
        want = off_s[starts[row] : starts[row + 1]]
        assert p.tolist() == want.tolist()


def test_payload_score_query_functions(pay_index):
    idx, _src = pay_index
    s = IndexSearcher(idx)
    term = "import"
    base = {d: None for d, _ in s.search(TermQuery(term), k=10**6)}
    for func in ("sum", "max", "min", "avg"):
        hits = s.search(PayloadScoreQuery(term, func), k=10**6, score_mode="COMPLETE",
                        total_hits_threshold=float("inf"))
        assert {d for d, _ in hits} == set(base)
    # verify one segment's sum against term_payloads directly
    r = s.readers[0]
    tid = r.term_id(term)
    docs, _ = r.decode_term_cached(tid)
    pays = r.term_payloads(tid)
    want = {int(d): float(np.float32(float(p.sum()))) for d, p in zip(docs, pays)}
    got = dict(
        (int(d), float(sc))
        for d, sc in s.search(PayloadScoreQuery(term, "sum"), k=10**6,
                              score_mode="COMPLETE", total_hits_threshold=float("inf"))
        if int(d) < r.max_doc
    )
    assert got == want


def test_payloads_survive_merge_and_add(pay_index, tmp_path, ray_session):
    idx, src = pay_index
    import shutil

    idx2 = str(tmp_path / "idx2")
    shutil.copytree(idx, idx2)
    before = [
        (int(d), float(sc))
        for d, sc in IndexSearcher(idx2).search(PayloadScoreQuery("import", "sum"), k=20)
    ]
    add_documents(
        idx2,
        pa.table({"text": ["qqq import zzz import"], "repo": ["r"]}),
        content_column="text",
        meta_columns=("repo",),
    )
    man = force_merge(idx2, max_segments=1)
    assert len(man["segments"]) == 1
    r = SegmentReader(man["segments"][0]["dir"])
    assert r.has_payloads
    s = IndexSearcher(idx2)
    after = [(int(d), float(sc)) for d, sc in s.search(PayloadScoreQuery("import", "sum"), k=20)]
    assert after[: len(before)] == before or set(before) <= set(after)
    # the added doc: "import" at char offsets 4 and 15 -> sum 19
    new_doc_hits = dict(s.search(PayloadScoreQuery("import", "sum"), k=10**6,
                                 score_mode="COMPLETE", total_hits_threshold=float("inf")))
    max_doc = max(new_doc_hits)
    assert float(new_doc_hits[max_doc]) == 19.0


def test_span_payload_check_query(pay_index):
    """SpanPayloadCheckQuery (queries/payloads/SpanPayloadCheckQuery.java,
    INT payloads = char start offsets here): EQ/GT/LT occurrence filters
    match a brute recompute from the analyzer's offsets, and phrase-form
    checks require the predicate at EVERY span position."""
    from lucene_ray.analysis.analyzers import StandardAnalyzer, postings_rows
    from lucene_ray.search.query import SpanPayloadCheckQuery

    idx, src = pay_index
    s = IndexSearcher(idx)
    texts = pq.read_table(src, columns=["content"]).column("content").to_pylist()
    a = StandardAnalyzer()

    def occs(term, doc):
        vocab, tids, _d, tfs, _l, _pos, off_s, _off_e = postings_rows(
            a._batch_token_stream([texts[doc]]), "offsets"
        )
        if term not in vocab:
            return np.empty(0, np.int64)
        gid = vocab.index(term)
        starts = np.concatenate(([0], np.cumsum(tfs)))
        row = int(np.flatnonzero(tids == gid)[0])
        return off_s[starts[row] : starts[row + 1]]

    term = "import"
    all_docs = {d for d, _ in s.search(TermQuery(term), 10**6, score_mode="COMPLETE",
                                       total_hits_threshold=np.inf)}
    # GT 40: docs with an occurrence starting after char 40
    hits = s.search(SpanPayloadCheckQuery((term,), (40,), "gt"), 10**6,
                    score_mode="COMPLETE", total_hits_threshold=np.inf)
    got = {d for d, _ in hits}
    expect = {d for d in all_docs if (occs(term, d) > 40).any()}
    assert got == expect and got < all_docs
    # EQ on a known payload value round-trips
    d0 = sorted(all_docs)[0]
    v0 = int(occs(term, d0)[0])
    eq_hits = {d for d, _ in s.search(SpanPayloadCheckQuery((term,), (v0,), "eq"),
                                      10**6, score_mode="COMPLETE",
                                      total_hits_threshold=np.inf)}
    assert d0 in eq_hits
    assert eq_hits == {d for d in all_docs if (occs(term, d) == v0).any()}
    # phrase form: both positions must pass; an impossible second-position
    # payload kills every span even where the phrase exists
    from lucene_ray.search.multiterm import phrase_matches_segment

    r = SegmentReader(idx + "/seg_000000")
    pd_, _f = phrase_matches_segment(r, ("import", "numpy"))
    if len(pd_):
        ok = s.search(SpanPayloadCheckQuery(("import", "numpy"), (0, 0), "gte"),
                      10**6, score_mode="COMPLETE", total_hits_threshold=np.inf)
        assert {d for d, _ in ok} >= set(pd_.tolist())
        none = s.search(SpanPayloadCheckQuery(("import", "numpy"), (10**9, 10**9), "gt"),
                        10**6, score_mode="COMPLETE", total_hits_threshold=np.inf)
        assert none == []


def test_delimited_payload_analyzer(tmp_path):
    """DelimitedPayloadTokenFilter: 'term|N' carries payload N through
    the real payloads index; undelimited tokens keep the char-offset
    default."""
    import pyarrow as pa

    docs = ["apple|5 banana cherry|9", "apple|5 apple|5 dog"]
    src = tmp_path / "d.parquet"
    pq.write_table(
        pa.table({"content": docs, "repo": ["r"] * 2, "path": ["a", "b"],
                  "commit": ["x"] * 2, "lang": ["en"] * 2}),
        str(src),
    )
    idx = str(tmp_path / "idx")
    build_index_local(
        str(src), idx, index_options="payloads", analyzer="delimited_payload"
    )
    r = SegmentReader(idx + "/seg_000000")
    assert r.has_payloads
    for term, want in [("apple", [[5], [5, 5]]), ("cherry", [[9]]),
                       ("banana", [[8]]), ("dog", [[16]])]:
        tid = r.term_id(term)
        assert tid is not None, term
        pays = r.term_payloads(tid)
        assert [p.tolist() for p in pays] == want, term
    # payload suffix must be an integer (IntegerEncoder contract)
    from lucene_ray.analysis.analyzers import make_analyzer
    import pytest as _pt

    with _pt.raises(ValueError):
        make_analyzer("delimited_payload").tokens("bad|xx")


def test_delimited_negative_payload():
    from lucene_ray.analysis.analyzers import make_analyzer

    an = make_analyzer("delimited_payload")
    v, t, d, p, l, n, os_, oe = an._batch_token_stream(["rank|-2 plain"])
    got = dict(zip((v[i] for i in t), os_.tolist()))
    assert got["rank"] == -2  # negative payloads survive
    assert got["plain"] == 8  # char-offset default


def test_delimited_term_frequency(tmp_path):
    """DelimitedTermFrequencyTokenFilter: term|N indexes term with tf N
    (and the norm counts it N times)."""
    import pyarrow as pa

    from lucene_ray.analysis.analyzers import make_analyzer

    docs = ["apple|3 banana", "apple cherry|2"]
    src = tmp_path / "t.parquet"
    pq.write_table(
        pa.table({"content": docs, "repo": ["r"] * 2, "path": ["a", "b"],
                  "commit": ["x"] * 2, "lang": ["en"] * 2}),
        str(src),
    )
    idx = str(tmp_path / "idx")
    build_index_local(str(src), idx, analyzer="delimited_tf")
    r = SegmentReader(idx + "/seg_000000")
    from lucene_ray.index.postings import decode_term

    tid = r.term_id("apple")
    d, f = decode_term(r.enc, tid)
    assert d.tolist() == [0, 1] and f.tolist() == [3, 1]
    df, ttf = r.term_stats("apple")
    assert (df, ttf) == (2, 4)
    # norms count the repeated frequency (doc 0: 3 + 1 = 4 tokens)
    from lucene_ray.smallfloat import int_to_byte4

    assert r.norms[0] == int_to_byte4(4)
    assert r.norms[1] == int_to_byte4(3)
    # tf must be >= 1
    import pytest as _pt

    with _pt.raises(ValueError):
        make_analyzer("delimited_tf").tokens("bad|0")
