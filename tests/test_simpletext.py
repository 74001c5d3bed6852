"""SimpleText codec: human-readable round-trip with search parity
through the reader protocol."""

import os

import numpy as np

from lucene_ray.index.segment import SegmentReader
from lucene_ray.index.simpletext import SimpleTextSegment, write_simpletext
from lucene_ray.index import manifest as mf
from lucene_ray.pipelines import fulltext as ft
from lucene_ray.search.bm25 import CollectionStatistics, TermStatistics
from lucene_ray.search.query import TermQuery, Weight, bool_query
from lucene_ray.search.searcher import search_segment

SF = "/root/testdata/sf0.001"


def test_simpletext_round_trip_and_search_parity(tmp_path, ray_session):
    idx = ft.ensure_index(SF, index_options="positions")
    seg = mf.read_manifest(idx)["segments"][0]
    r = SegmentReader(seg["dir"])
    path = str(tmp_path / "seg.txt")
    write_simpletext(r, path)
    # the dump is genuinely human-readable
    head = open(path).read(200)
    assert head.startswith("field text\n  term ")
    st = SimpleTextSegment(path)
    assert st.n_terms == r.n_terms and st.max_doc == r.max_doc
    assert st.has_positions
    # postings + positions identical for every term
    for tid in range(0, r.n_terms, 7):
        d0, f0 = r.decode_term_cached(tid)
        d1, f1 = st.decode_term_cached(tid)
        assert np.array_equal(d0, d1) and np.array_equal(f0, f1)
        for a, b in zip(r.term_positions(tid), st.term_positions(tid)):
            assert np.array_equal(a, b)
    assert np.array_equal(np.asarray(r.norms), st.norms)
    # search parity: the bulk kernel runs unchanged on SimpleText
    stats = st.collection_partials()
    cs = CollectionStatistics(
        max_doc=st.max_doc,
        doc_count=stats["doc_count"],
        sum_total_term_freq=stats["sum_total_term_freq"],
        sum_doc_freq=stats["sum_doc_freq"],
    )
    for terms in (["spark"], ["join", "merge"]):
        tstats = {t: TermStatistics(t, *st.term_stats(t)) for t in terms}
        w = Weight(collection_stats=cs, term_stats=tstats)
        q = bool_query(should=[TermQuery(t) for t in terms])
        got = search_segment(st, q, w, 10, 1000, "TOP_SCORES")
        want = search_segment(r, q, w, 10, 1000, "TOP_SCORES")
        assert got and got == want
