"""QueryProfiler: bit-identical hits + a sane timing/count breakdown."""

from lucene_ray.pipelines import fulltext as ft
from lucene_ray.search.profiler import QueryProfilerSearcher
from lucene_ray.search.query import TermQuery, bool_query
from lucene_ray.search.searcher import IndexSearcher

SF = "/root/testdata/sf0.001"


def test_profile_search_matches_plain(ray_session):
    idx = ft.ensure_index(SF)
    plain = IndexSearcher(idx)
    prof = QueryProfilerSearcher(idx)
    for q in (
        TermQuery("spark"),
        bool_query(should=[TermQuery("join"), TermQuery("merge")]),
        bool_query(must=[TermQuery("window")], must_not=[TermQuery("batch")]),
    ):
        want = plain.search(q, 10)
        got, profile = prof.profile_search(q, 10)
        assert got == want
        assert profile["n_segments"] == len(plain.readers)
        assert len(profile["segments"]) == profile["n_segments"]
        assert profile["total_ns"] >= profile["create_weight_ns"]
        assert profile["total_ns"] >= sum(s["score_ns"] for s in profile["segments"])
        assert profile["total_hits_collected"] >= len(got)
        assert all(s["score_ns"] >= 0 and s["n_hits"] >= 0 for s in profile["segments"])


def test_profile_reports_path_and_candidates(tmp_path):
    """Each segment entry says which path answered it and how many
    matches the dense path scored; hits stay bit-identical to a plain
    search in both score modes."""
    from lucene_ray.search.query import IndexOrDocValuesQuery, PointBoxQuery, StoredFieldRange
    from tests.util import small_dv_index

    idx = small_dv_index(tmp_path, "prof", n_docs=60, per_segment=20)
    plain = IndexSearcher(idx)
    prof = QueryProfilerSearcher(idx)
    red_and_blue = bool_query(must=[TermQuery("red"), TermQuery("blue")])
    for q, mode, path in (
        (TermQuery("red"), "TOP_SCORES", "dense"),
        (red_and_blue, "TOP_SCORES", "dense"),
        (bool_query(must=[TermQuery("red")], should=[TermQuery("blue")],
                    must_not=[TermQuery("spark")]), "TOP_SCORES", "dense"),
        (red_and_blue, "COMPLETE", "tree"),
        # a leaf the bulk kernel cannot express keeps the scorer tree
        (bool_query(must=[TermQuery("red")], filter=[IndexOrDocValuesQuery(
            PointBoxQuery(("n",), (0,), (25,)), StoredFieldRange("n", 0, 25))]),
         "TOP_SCORES", "tree"),
    ):
        want = plain.search(q, 5, score_mode=mode)
        got, profile = prof.profile_search(q, 5, score_mode=mode)
        assert [(d, sc.view("uint32")) for d, sc in got] == [(d, sc.view("uint32")) for d, sc in want]
        assert {s["path"] for s in profile["segments"]} == {path}, q
        for seg, reader in zip(profile["segments"], prof.readers):
            if path == "tree":
                assert seg["candidates"] is None
            else:
                # the segment's whole live match set was scored
                matches = plain.search(q, reader.max_doc * 3, score_mode="COMPLETE")
                base = prof.doc_bases[seg["ordinal"]]
                in_seg = [d for d, _ in matches if base <= d < base + reader.max_doc]
                assert seg["candidates"] == len(in_seg) >= seg["n_hits"], q
