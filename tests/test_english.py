"""English analysis chain: Porter golden vectors, possessive/minimal/fold
units, chain semantics (stop + stem + norms), synonym expansion."""

import io
import os
import zipfile

import numpy as np
import pytest

from lucene_ray.analysis.analyzers import (
    EnglishAnalyzer,
    EnglishMinimalAnalyzer,
    StandardAnalyzer,
    SynonymExpandAnalyzer,
    make_analyzer,
    postings_rows,
)
from lucene_ray.analysis.english import (
    ENGLISH_STOP_WORDS,
    ascii_fold,
    english_minimal_stem,
    porter_stem,
    strip_possessive,
)

PORTER_GOLDEN = (
    "/root/reference/lucene/analysis/common/src/test/org/apache/lucene/"
    "analysis/en/porterTestData.zip"
)


@pytest.mark.skipif(
    not os.path.isfile(PORTER_GOLDEN), reason="reference checkout not available"
)
def test_porter_golden_vectors():
    """Every one of the reference's 23,531 porterTestData pairs."""
    with zipfile.ZipFile(PORTER_GOLDEN) as z:
        voc = z.read("voc.txt").decode().split()
        out = z.read("output.txt").decode().split()
    assert len(voc) == len(out) == 23531
    bad = [(v, o, porter_stem(v)) for v, o in zip(voc, out) if porter_stem(v) != o]
    assert not bad, bad[:10]


def test_porter_short_words_untouched():
    for w in ("", "a", "is", "by"):
        assert porter_stem(w) == w


def test_possessive():
    assert strip_possessive("lucene's") == "lucene"
    assert strip_possessive("lucene’s") == "lucene"
    assert strip_possessive("lucene＇S") == "lucene"
    assert strip_possessive("its") == "its"
    assert strip_possessive("'s") == ""


def test_minimal_stem():
    # EnglishMinimalStemmer semantics (TestEnglishMinimalStemFilter cases)
    cases = {
        "queries": "query",
        "phrases": "phrase",
        "corpus": "corpus",
        "stress": "stress",
        "kings": "king",
        "grass": "grass",
        "dies": "dy",
        "ties": "ty",
        "ies": "ies",
        "as": "as",
        "windows": "window",
        "types": "type",
        "shoes": "shoes",  # -oes guarded: unchanged per EnglishMinimalStemmer
    }
    for w, want in cases.items():
        assert english_minimal_stem(w) == want, w


def test_ascii_fold():
    assert ascii_fold("café") == "cafe"
    assert ascii_fold("résumé") == "resume"
    assert ascii_fold("über") == "uber"
    assert ascii_fold("straße") == "strasse"
    assert ascii_fold("œuvre") == "oeuvre"
    assert ascii_fold("Łódź") == "Lodz"
    assert ascii_fold("plain") == "plain"
    assert ascii_fold("日本") == "日本"  # outside the fold set: pass-through


def test_english_chain_tokens():
    a = EnglishAnalyzer()
    # possessive before stop: "it's" -> "it" -> stopped
    assert a.tokens("It's the manager's running reports") == [
        "manag",
        "run",
        "report",
    ]
    assert a.normalize("Running") == "run"
    assert a.normalize("the") == ""


def test_batch_matches_per_doc():
    texts = [
        "the cats were running quickly",
        "a programmer's agreement with these libraries",
        "",
        "run runs running runner",
    ]
    for a in (EnglishAnalyzer(), EnglishMinimalAnalyzer()):
        vocab, tids, docs, tfs, lengths = a.analyze_batch(texts)
        got = {}
        for t, d, f in zip(tids, docs, tfs):
            got.setdefault(int(d), {})[vocab[int(t)]] = int(f)
        from collections import Counter

        for i, text in enumerate(texts):
            toks = a.tokens(text)
            assert got.get(i, {}) == dict(Counter(toks)), (i, type(a).__name__)
            assert lengths[i] == len(toks)


def test_positions_skip_stopped_tokens():
    a = EnglishAnalyzer()
    vocab, tids, docs, tfs, lengths, pos, _os, _oe = postings_rows(
        a._batch_token_stream(["the quick rabbits jumped"]), "positions"
    )
    by_term = {
        vocab[int(t)]: pos[int(s) : int(s + f)]
        for t, s, f in zip(tids, np.concatenate(([0], np.cumsum(tfs)))[:-1], tfs)
    }
    # positions keep pre-stop ordinals: the=0 dropped, quick=1 rabbit=2 jump=3
    assert by_term["quick"].tolist() == [1]
    assert by_term["rabbit"].tolist() == [2]
    assert by_term["jump"].tolist() == [3]
    assert lengths.tolist() == [3]


def test_synonym_expansion_batch():
    a = SynonymExpandAnalyzer(synonyms={"spark": ["flint"]})
    vocab, tids, docs, tfs, lengths = a.analyze_batch(["spark join spark", "join"])
    stats = {
        (vocab[int(t)], int(d)): int(f) for t, d, f in zip(tids, docs, tfs)
    }
    assert stats[("spark", 0)] == 2
    assert stats[("flint", 0)] == 2  # inserted at both spark positions
    assert stats[("join", 0)] == 1
    assert ("flint", 1) not in stats
    # norm length counts original tokens only (posInc-0 overlaps discounted)
    assert lengths.tolist() == [3, 1]


def test_english_index_end_to_end(tmp_path):
    """Index built with the english analyzer: morphology variants collapse
    to one term; stop words are absent; norms reflect post-stop lengths."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_ray.index.build import build_index_local
    from lucene_ray.index.segment import SegmentReader
    from lucene_ray.search.query import TermQuery
    from lucene_ray.search.searcher import IndexSearcher
    from lucene_ray.smallfloat import int_to_byte4

    docs = [
        "the manager is running the reports",
        "managers ran reporting systems",
        "a completely unrelated document about turtles",
    ]
    src = tmp_path / "c.parquet"
    pq.write_table(
        pa.table({"content": docs, "repo": ["r"] * 3, "path": list("abc"),
                  "commit": ["x"] * 3, "lang": ["en"] * 3}),
        str(src),
    )
    idx = str(tmp_path / "idx")
    build_index_local(str(src), idx, analyzer="english")
    r = SegmentReader(idx + "/seg_000000")
    assert r.term_stats("the") == (0, 0)  # stopped
    df_manag, _ = r.term_stats("manag")
    assert df_manag == 2  # manager + managers
    assert r.term_stats("run")[0] == 1
    assert r.term_stats("running")[0] == 0  # only the stem is indexed
    # norm of doc 0: survivors = manager running reports -> 3 tokens
    assert r.norms[0] == int_to_byte4(3)
    s = IndexSearcher(idx)
    hits = s.search(TermQuery("report"), k=5)
    assert {d for d, _ in hits} == {0, 1}


def test_make_analyzer_registry():
    for name in ("english", "english_minimal", "english_folded", "synonym"):
        a = make_analyzer(name)
        assert a.tokens("tests") is not None


def test_length_filter_and_keyword_marker():
    from lucene_ray.analysis.analyzers import EnglishAnalyzer

    a = EnglishAnalyzer(stem_exclusions=frozenset({"running"}), min_len=3)
    # 'is'/'it' are stopped anyway; 'up' (len 2) dropped by LengthFilter;
    # 'running' protected by the KeywordMarker; 'jumped' stems
    assert a.tokens("it is running and jumped up") == ["running", "jump"]
    # dropped tokens still leave position gaps
    import numpy as np

    vocab, tids, docs, tfs, lengths, pos, _os, _oe = postings_rows(
        a._batch_token_stream(["up running up jumped"]), "positions"
    )
    by_term = {}
    starts = np.concatenate(([0], np.cumsum(tfs)))
    for i, t in enumerate(tids):
        by_term[vocab[int(t)]] = pos[starts[i] : starts[i + 1]].tolist()
    assert by_term == {"running": [1], "jump": [3]}
    assert lengths.tolist() == [2]


def test_shingle_analyzer_batch_matches_tokens():
    from collections import Counter

    from lucene_ray.analysis.analyzers import ShingleAnalyzer

    a = ShingleAnalyzer()
    texts = ["the quick brown fox", "one", "", "a b a b a"]
    vocab, tids, docs, tfs, lengths = a.analyze_batch(texts)
    got = {}
    for t, d, f in zip(tids, docs, tfs):
        got.setdefault(int(d), {})[vocab[int(t)]] = int(f)
    for i, text in enumerate(texts):
        toks = a.tokens(text)
        assert got.get(i, {}) == dict(Counter(toks)), i
        assert lengths[i] == len(toks)
    assert a.tokens("a b a b a") == ["a b", "b a", "a b", "b a"]


def test_shingle_index_end_to_end(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_ray.index.build import build_index_local
    from lucene_ray.search.query import TermQuery
    from lucene_ray.search.searcher import IndexSearcher

    docs = ["spark join merge", "join merge spark", "merge alone here"]
    src = tmp_path / "c.parquet"
    pq.write_table(
        pa.table({"content": docs, "repo": ["r"] * 3, "path": list("abc"),
                  "commit": ["x"] * 3, "lang": ["en"] * 3}),
        str(src),
    )
    idx = str(tmp_path / "idx")
    build_index_local(str(src), idx, analyzer="shingle")
    s = IndexSearcher(idx)
    assert {d for d, _ in s.search(TermQuery("spark join"), 5)} == {0}
    assert {d for d, _ in s.search(TermQuery("join merge"), 5)} == {0, 1}
    assert s.count(TermQuery("spark")) == 0  # unigrams are not emitted


def test_english_phrase_respects_stop_gaps(tmp_path):
    """Stop-filter position gaps survive into the positions index: an exact
    phrase across a dropped stop word does NOT match (Lucene posInc
    semantics), a slop-1 phrase does."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_ray.index.build import build_index_local
    from lucene_ray.search.query import PhraseQuery
    from lucene_ray.search.searcher import IndexSearcher

    docs = [
        "manager of the reports",  # manag _ _ report: gap of 2
        "manager reports daily",   # manag report: adjacent
    ]
    src = tmp_path / "c.parquet"
    pq.write_table(
        pa.table({"content": docs, "repo": ["r"] * 2, "path": list("ab"),
                  "commit": ["x"] * 2, "lang": ["en"] * 2}),
        str(src),
    )
    idx = str(tmp_path / "idx")
    build_index_local(str(src), idx, analyzer="english", index_options="positions")
    s = IndexSearcher(idx)
    exact = {d for d, _ in s.search(PhraseQuery(("manag", "report")), 5)}
    assert exact == {1}
    sloppy2 = {d for d, _ in s.search(PhraseQuery(("manag", "report"), slop=2), 5)}
    assert sloppy2 == {0, 1}
