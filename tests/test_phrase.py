"""Positions index + PhraseQuery: matcher semantics and brute-force parity."""

from __future__ import annotations

import numpy as np
import pytest

from lucene_ray.analysis.analyzers import make_analyzer
from lucene_ray.corpus import generate_corpus
from lucene_ray.index.build import build_index_local
from lucene_ray.index.manifest import read_manifest
from lucene_ray.search.multiterm import phrase_matches_segment
from lucene_ray.search.query import PhraseQuery
from lucene_ray.search.searcher import IndexSearcher


@pytest.fixture(scope="module")
def pos_idx(tmp_path_factory):
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("ph_corpus")
    pq.write_table(generate_corpus(300, seed=17), str(d / "c.parquet"), row_group_size=64)
    out = str(tmp_path_factory.mktemp("ph_idx"))
    build_index_local(str(d), out, docs_per_segment=64, index_options="positions")
    return out


def _brute_phrase(texts, words):
    """Oracle: per doc, count of i with tokens[i:i+n] == words."""
    a = make_analyzer("standard")
    n = len(words)
    out = {}
    for i, t in enumerate(texts):
        toks = a.tokens(t)
        c = sum(1 for j in range(len(toks) - n + 1) if toks[j : j + n] == list(words))
        if c:
            out[i] = c
    return out


def test_phrase_matches_brute(pos_idx):
    texts = generate_corpus(300, seed=17).column("content").to_pylist()
    s = IndexSearcher(pos_idx)
    man = read_manifest(pos_idx)
    for words in (("def", "return"), ("return", "return"), ("import", "def", "return")):
        expected = _brute_phrase(texts, words)
        got = {}
        for reader, seg in zip(s.readers, man["segments"]):
            d, f = phrase_matches_segment(reader, words)
            for dd, ff in zip(d, f):
                got[int(dd) + seg["doc_base"]] = int(ff)
        assert got == expected, words


def test_phrase_search_scoring(pos_idx):
    s = IndexSearcher(pos_idx)
    q = PhraseQuery(("def", "return"))
    hits = s.search(q, 10)
    assert hits and all(isinstance(sc, np.float32) for _, sc in hits)
    scores = [float(sc) for _, sc in hits]
    assert scores == sorted(scores, reverse=True)
    assert s.count(q) >= len(hits)


def test_phrase_survives_merge(pos_idx, ray_session):
    from lucene_ray.index.merge import force_merge

    s = IndexSearcher(pos_idx)
    qs = [PhraseQuery(("def", "return")), PhraseQuery(("return", "return"))]
    before = [[(d, float(sc)) for d, sc in s.search(q, 10)] for q in qs]
    man = force_merge(pos_idx, max_segments=1)
    assert len(man["segments"]) == 1
    s2 = IndexSearcher(pos_idx)
    after = [[(d, float(sc)) for d, sc in s2.search(q, 10)] for q in qs]
    assert before == after and any(before)


def test_phrase_requires_positions(tmp_path):
    import pyarrow.parquet as pq

    d = tmp_path / "c"
    d.mkdir()
    pq.write_table(generate_corpus(50, seed=18), str(d / "c.parquet"))
    idx = str(tmp_path / "idx")
    build_index_local(str(d), idx, docs_per_segment=64)  # no positions
    s = IndexSearcher(idx)
    with pytest.raises(ValueError, match="positions"):
        s.search(PhraseQuery(("def", "return")), 5)


def _brute_sloppy(texts, w1, w2, slop):
    """Oracle: per doc, count of position pairs |pb - pa - 1| <= slop."""
    a = make_analyzer("standard")
    out = {}
    for i, t in enumerate(texts):
        toks = a.tokens(t)
        pa_ = [p for p, w in enumerate(toks) if w == w1]
        pb_ = [p for p, w in enumerate(toks) if w == w2]
        c = sum(1 for x in pa_ for y in pb_ if abs(y - x - 1) <= slop)
        if c:
            out[i] = c
    return out


def test_sloppy_phrase_matches_brute(pos_idx):
    from lucene_ray.search.multiterm import sloppy_phrase_matches_segment

    texts = generate_corpus(300, seed=17).column("content").to_pylist()
    s = IndexSearcher(pos_idx)
    man = read_manifest(pos_idx)
    for w1, w2, slop in (
        ("def", "return", 1),
        ("return", "return", 2),
        ("import", "def", 3),
        ("def", "def", 0),
    ):
        expected = _brute_sloppy(texts, w1, w2, slop)
        got = {}
        for reader, seg in zip(s.readers, man["segments"]):
            d, f = sloppy_phrase_matches_segment(reader, (w1, w2), slop)
            for dd, ff in zip(d, f):
                got[int(dd) + seg["doc_base"]] = int(ff)
        assert got == expected, (w1, w2, slop)


def test_sloppy_phrase_query_and_parser(pos_idx):
    from lucene_ray.search.parser import parse_query

    a = make_analyzer("standard")
    s = IndexSearcher(pos_idx)
    q = parse_query('"def return"~2', a)
    assert isinstance(q, PhraseQuery) and q.slop == 2
    hits = s.search(q, 10)
    assert hits, "sloppy phrase should match in the synthetic corpus"
    # exact (slop=0) is a subset of sloppy matches and count() agrees
    n_exact = s.count(PhraseQuery(("def", "return")))
    n_sloppy = s.count(q)
    assert n_sloppy >= n_exact > 0
    # reversed adjacency matches at slop=2 (reference transposition cost)
    texts = generate_corpus(300, seed=17).column("content").to_pylist()
    brute = _brute_sloppy(texts, "def", "return", 2)
    assert n_sloppy == len(brute)


def test_multi_phrase_matches_brute(pos_idx):
    from lucene_ray.search.multiterm import multi_phrase_matches_segment

    texts = generate_corpus(300, seed=17).column("content").to_pylist()
    s = IndexSearcher(pos_idx)
    man = read_manifest(pos_idx)
    a = make_analyzer("standard")
    for slots in (
        (("def", "import"), ("return", "def")),
        (("return",), ("return", "import")),
        (("def",), ("x", "y", "return"), ("import", "def")),
    ):
        expected = {}
        n = len(slots)
        for i, t in enumerate(texts):
            toks = a.tokens(t)
            c = sum(
                1
                for j in range(len(toks) - n + 1)
                if all(toks[j + k] in slots[k] for k in range(n))
            )
            if c:
                expected[i] = c
        got = {}
        for reader, seg in zip(s.readers, man["segments"]):
            d, f = multi_phrase_matches_segment(reader, slots)
            for dd, ff in zip(d, f):
                got[int(dd) + seg["doc_base"]] = int(ff)
        assert got == expected, slots


def test_proximity_matches_brute(pos_idx):
    """Unordered window co-occurrence vs brute enumeration."""
    from lucene_ray.search.multiterm import proximity_matches_segment

    texts = generate_corpus(300, seed=17).column("content").to_pylist()
    s = IndexSearcher(pos_idx)
    man = read_manifest(pos_idx)
    a = make_analyzer("standard")
    for terms, w in ((("def", "return"), 5), (("def", "import", "return"), 12)):
        expected = set()
        for i, t in enumerate(texts):
            toks = a.tokens(t)
            pos = {term: [p for p, x in enumerate(toks) if x == term] for term in terms}
            if any(not v for v in pos.values()):
                continue
            found = False
            for start in range(len(toks)):
                if all(any(start <= p < start + w for p in pos[term]) for term in terms):
                    found = True
                    break
            if found:
                expected.add(i)
        got = set()
        for reader, seg in zip(s.readers, man["segments"]):
            d, n = proximity_matches_segment(reader, terms, w)
            assert (n >= 1).all()
            got.update((d + seg["doc_base"]).tolist())
        assert got == expected, (terms, w)


def test_ordered_proximity_matches_brute(pos_idx):
    from lucene_ray.search.multiterm import ordered_proximity_matches_segment

    texts = generate_corpus(300, seed=17).column("content").to_pylist()
    s = IndexSearcher(pos_idx)
    man = read_manifest(pos_idx)
    a = make_analyzer("standard")
    for terms, w in ((("def", "return"), 6), (("import", "def", "return"), 15)):
        expected = {}
        for i, t in enumerate(texts):
            toks = a.tokens(t)
            pos = {term: [p for p, x in enumerate(toks) if x == term] for term in terms}
            if any(not v for v in pos.values()):
                continue
            n = 0
            for p0 in pos[terms[0]]:
                # any increasing chain within the window?
                def ok(level, prev):
                    if level == len(terms):
                        return True
                    return any(
                        p > prev and p - p0 + 1 <= w and ok(level + 1, p)
                        for p in pos[terms[level]]
                    )
                if ok(1, p0):
                    n += 1
            if n:
                expected[i] = n
        got = {}
        for reader, seg in zip(s.readers, man["segments"]):
            d, n = ordered_proximity_matches_segment(reader, terms, w)
            for dd, nn in zip(d, n):
                got[int(dd) + seg["doc_base"]] = int(nn)
        assert got == expected, (terms, w)


def _brute_sloppy_k(texts, terms, slop):
    """Oracle: per doc, count of k-tuples with max(p_i - i) - min(p_i - i)
    <= slop (itertools.product brute force over the position lists)."""
    import itertools

    a = make_analyzer("standard")
    out = {}
    for i, t in enumerate(texts):
        toks = a.tokens(t)
        lists = [[p - j for p, w in enumerate(toks) if w == term] for j, term in enumerate(terms)]
        if any(not l for l in lists):
            continue
        c = sum(1 for tup in itertools.product(*lists) if max(tup) - min(tup) <= slop)
        if c:
            out[i] = c
    return out


def test_sloppy_phrase_k_terms_brute(pos_idx):
    """k >= 3 term sloppy phrases (SloppyPhraseMatcher generalization):
    vectorized inclusion-exclusion tuple count == itertools brute force."""
    from lucene_ray.search.multiterm import sloppy_phrase_matches_segment

    texts = generate_corpus(300, seed=17).column("content").to_pylist()
    s = IndexSearcher(pos_idx)
    man = read_manifest(pos_idx)
    for terms, slop in (
        (("def", "x", "return"), 4),
        (("import", "def", "return"), 8),
        (("def", "return", "import", "x"), 10),
        (("def", "x", "return"), 0),
    ):
        expected = _brute_sloppy_k(texts, terms, slop)
        got = {}
        for reader, seg in zip(s.readers, man["segments"]):
            d, f = sloppy_phrase_matches_segment(reader, terms, slop)
            for dd, ff in zip(d, f):
                got[int(dd) + seg["doc_base"]] = int(ff)
        assert got == expected, (terms, slop)


def test_sloppy_k_reduces_to_pairs(pos_idx):
    """k=2 path of the generalized matcher == the legacy pair-count rule."""
    from lucene_ray.search.multiterm import sloppy_phrase_matches_segment

    texts = generate_corpus(300, seed=17).column("content").to_pylist()
    s = IndexSearcher(pos_idx)
    man = read_manifest(pos_idx)
    for w1, w2, slop in (("def", "return", 1), ("return", "return", 2)):
        expected = _brute_sloppy(texts, w1, w2, slop)
        got = {}
        for reader, seg in zip(s.readers, man["segments"]):
            d, f = sloppy_phrase_matches_segment(reader, (w1, w2), slop)
            for dd, ff in zip(d, f):
                got[int(dd) + seg["doc_base"]] = int(ff)
        assert got == expected, (w1, w2, slop)


def test_sloppy_phrase_query_3_terms(pos_idx):
    """3-term sloppy PhraseQuery end-to-end through IndexSearcher.search
    (the former NotImplementedError path, VERDICT r2 item 6)."""
    s = IndexSearcher(pos_idx)
    q = PhraseQuery(("import", "def", "return"), slop=6)
    hits = s.search(q, 10)
    texts = generate_corpus(300, seed=17).column("content").to_pylist()
    brute = _brute_sloppy_k(texts, ("import", "def", "return"), 6)
    assert s.count(q) == len(brute)
    assert hits and all(isinstance(sc, np.float32) for _, sc in hits)
