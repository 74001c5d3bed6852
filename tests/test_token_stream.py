"""The batch token stream contract (``analyzers`` module docstring) across
the whole analyzer registry: every analyzer's ``analyze_batch`` rows agree
with its per-doc ``analyze``, every analyzer builds under every index
option, and the stream helpers keep the vocabulary in UTF-8 byte order."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.analysis import analyzers as am
from lucene_ray.corpus import generate_corpus
from lucene_ray.index.build import build_index_local
from lucene_ray.index.check import check_index
from lucene_ray.index.manifest import read_manifest
from lucene_ray.search.multiterm import phrase_matches_segment
from lucene_ray.search.query import PhraseQuery
from lucene_ray.search.searcher import IndexSearcher

LAZY = ["japanese", "korean", "chinese", "icu_folding", "classic", "uax29_url_email"]
NAMES = sorted(am.ANALYZERS) + LAZY
OPTIONS = ["docs_freqs", "positions", "offsets", "payloads"]

# an empty doc, a stop-word-only doc, a 300-char token, CJK, Hangul,
# accented capitals, `|` payload syntax and paths
CORPUS = [
    "",
    "the and of a to",
    "x" * 300 + " tail",
    "我是中国人。今天天气很好。すもももももももものうち",
    "안녕하세요 세계 한국어",
    "ÉCOLE Çà Ñandú RÉSUMÉ naïve İstanbul",
    "rank|3 plain word|2 the|1",
    "src/main/java/Foo.java /usr/local/bin a//b/",
    "getHTTPResponse foo_bar Spark order by key spark joins the running cats",
    "<b>spark</b> &amp; group by fire-storm wi-fi PowerShot",
]


def _spec(name):
    if name == "pattern_replace_char":
        return {"name": name, "pattern": "[aeiou]+", "replacement": "_"}
    return name


@pytest.mark.parametrize("corpus", [CORPUS, ["", " ", "。"]], ids=["mixed", "tokenless"])
@pytest.mark.parametrize("name", NAMES)
def test_analyze_batch_rows_match_analyze(name, corpus):
    a = am.make_analyzer(_spec(name))
    vocab, tids, docs, tfs, lengths = a.analyze_batch(corpus)
    assert vocab == sorted(vocab, key=lambda t: t.encode("utf-8"))
    assert len(lengths) == len(corpus)
    got: dict[int, dict[str, int]] = {}
    for t, d, f in zip(tids.tolist(), docs.tolist(), tfs.tolist()):
        got.setdefault(d, {})[vocab[t]] = f
    for i, text in enumerate(corpus):
        terms, counts, length = a.analyze(text)
        assert got.get(i, {}) == dict(zip(terms, counts)), (name, i)
        assert lengths[i] == length, (name, i)


def test_reverse_analyze_matches_the_index():
    a = am.make_analyzer("reverse")
    assert a.analyze("Hello World hello") == (["olleh", "dlrow"], [2, 1], 3)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("ts_corpus")
    tbl = pa.table({"content": CORPUS, "path": [f"p{i}" for i in range(len(CORPUS))]})
    pq.write_table(tbl, str(d / "c.parquet"), row_group_size=4)
    return str(d)


# CheckIndex findings these analyzers produce at the parent too.  Those
# that insert posIncrement-0 overlaps discount them from the norm length
# (FieldInvertState discountOverlaps) while CheckIndex compares each norm
# with the doc's summed tf; ngram grams and delimited_tf repeats share a
# position (CheckIndex asks for strictly ascending positions, the
# reference for non-decreasing ones); synonym_graph rows list inserted
# tokens after the originals, so a term's positions can run backwards.
NORM = "norm != quantized length"
POS, OFF = "positions not ascending", "start offsets not ascending"
KNOWN = {
    "synonym": (NORM,),
    "keyword_repeat": (NORM,),
    "common_grams": (NORM,),
    "edge_ngram": (NORM,),
    "ngram": (NORM, POS),
    "synonym_graph": (NORM, POS, OFF),
    "delimited_tf": (POS, OFF),
}


@pytest.mark.parametrize("option", OPTIONS)
@pytest.mark.parametrize("name", NAMES)
def test_every_analyzer_builds_every_index_option(name, option, corpus_dir, tmp_path):
    out = str(tmp_path / "idx")
    build_index_local(
        corpus_dir, out, analyzer=_spec(name), docs_per_segment=8,
        meta_columns=("path",), index_options=option,
    )
    report = check_index(out, use_ray=False, raise_on_error=False)
    assert report["max_doc"] == len(CORPUS)
    known = KNOWN.get(name, ())
    assert [e for e in report["errors"] if not any(k in e for k in known)] == []


def test_code_phrase_matches_brute_force(tmp_path):
    tbl = generate_corpus(120, seed=5)
    pq.write_table(tbl, str(tmp_path / "c.parquet"), row_group_size=32)
    out = str(tmp_path / "idx")
    build_index_local(
        str(tmp_path), out, analyzer="code", docs_per_segment=64, index_options="positions"
    )
    a = am.make_analyzer("code")
    toks = [a.tokens(t) for t in tbl.column("content").to_pylist()]
    s = IndexSearcher(out)
    man = read_manifest(out)
    # camelCase (foWoZuLe) and snake_case (le_wo) parts of the corpus
    for words in (("ro", "la"), ("fo", "wo", "zu", "le"), ("le", "wo")):
        n = len(words)
        expected = {}
        for i, tl in enumerate(toks):
            c = sum(1 for j in range(len(tl) - n + 1) if tuple(tl[j : j + n]) == words)
            if c:
                expected[i] = c
        got = {}
        for reader, seg in zip(s.readers, man["segments"]):
            d, f = phrase_matches_segment(reader, words)
            got.update({int(dd) + seg["doc_base"]: int(ff) for dd, ff in zip(d, f)})
        assert expected and got == expected, words
        assert s.count(PhraseQuery(words)) == len(expected)


def test_stream_helpers_keep_byte_order():
    # U+FB01 sorts after U+00E9 by code point and by UTF-8 bytes alike
    s = am.token_stream(["ﬁ", "é", "a", "é"], [0, 0, 1, 1], [0, 1, 0, 1], 2, [0, 2, 0, 2], [1, 3, 1, 3])
    assert s.vocab == ["a", "é", "ﬁ"] and s.tids.tolist() == [2, 1, 0, 1]
    kept = s.keep(s.tids != 1)
    assert kept.vocab == ["a", "ﬁ"] and kept.tids.tolist() == [1, 0]
    assert kept.lengths.tolist() == [1, 1] and kept.positions.tolist() == [0, 0]
    merged = s.relabel(["b", None, "b"])
    assert merged.vocab == ["b"] and merged.doc_ids.tolist() == [0, 1]
    assert merged.lengths.tolist() == [1, 1]
    stacked = s.stack([(0, "z")])
    assert stacked.vocab == ["a", "z", "é", "ﬁ"] and stacked.lengths.tolist() == [2, 2]
    assert stacked.positions.tolist() == [0, 1, 0, 1, 0]
    empty = am.empty_stream(3)
    assert am.postings_rows(empty)[0] == [] and empty.lengths.tolist() == [0, 0, 0]
    rows = am.postings_rows(s, "positions")
    assert rows[3].tolist() == [1, 1, 1, 1] and rows[5].tolist() == [1, 0, 0, 1]
    assert np.array_equal(rows[1], [1, 2, 0, 1]) and np.array_equal(rows[2], [0, 0, 1, 1])
