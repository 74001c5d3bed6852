"""IndexOptions offsets (DOCS_AND_FREQS_AND_POSITIONS_AND_OFFSETS): char
spans per occurrence must reconstruct the token text exactly."""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_ray.corpus import generate_corpus
from lucene_ray.index.build import build_index_local
from lucene_ray.index.check import check_index
from lucene_ray.index.manifest import read_manifest
from lucene_ray.index.postings import decode_term
from lucene_ray.index.segment import SegmentReader


@pytest.fixture(scope="module")
def off_idx(tmp_path_factory):
    d = tmp_path_factory.mktemp("off_corpus")
    pq.write_table(generate_corpus(150, seed=17), str(d / "c.parquet"), row_group_size=50)
    out = str(tmp_path_factory.mktemp("off_idx"))
    build_index_local(str(d), out, docs_per_segment=60, index_options="offsets")
    return out, str(d / "c.parquet")


def test_offsets_reconstruct_tokens(off_idx):
    """text[start:end].lower() == the indexed term, for EVERY occurrence
    (OffsetAttribute contract), and spans align with positions."""
    idx, corpus = off_idx
    texts = pq.read_table(corpus).column("content").to_pylist()
    checked = 0
    for seg in read_manifest(idx)["segments"]:
        r = SegmentReader(seg["dir"])
        assert r.has_offsets and r.has_positions
        base_rows = {}  # local doc -> source text
        docs_in_seg = r.stored_column("path").to_pylist()
        # local doc i corresponds to global doc_base + i in corpus order
        for tid in range(r.n_terms):
            term = r.terms_array()[tid].as_py()
            docs, tfs = decode_term(r.enc, tid)
            spans = r.term_offset_spans(tid)
            poss = r.term_positions(tid)
            assert len(spans) == len(docs)
            for i, d in enumerate(docs):
                text = texts[seg["doc_base"] + int(d)]
                starts, ends = spans[i]
                assert len(starts) == int(tfs[i]) == len(poss[i])
                for s, e in zip(starts, ends):
                    assert text[s:e].lower() == term
                    checked += 1
    assert checked > 1000


def test_offsets_checkindex_and_corruption(off_idx, tmp_path):
    import os
    import shutil

    idx, _ = off_idx
    assert check_index(idx, use_ray=False)["ok"]
    seg = read_manifest(idx)["segments"][0]["dir"]
    bad = str(tmp_path / "badoff")
    shutil.copytree(seg, bad)
    o = np.load(os.path.join(bad, "off_end.npy"))
    o[0] = np.load(os.path.join(bad, "off_start.npy"))[0]  # end == start
    np.save(os.path.join(bad, "off_end.npy"), o)
    from lucene_ray.index.check import check_segment

    rep = check_segment(bad, raise_on_error=False)
    assert any("end offset" in e for e in rep["errors"])


def test_offsets_survive_merge_with_deletes(tmp_path, ray_session):
    """Offsets carry through the sectioned merge with delete expunge: the
    reconstruction invariant must hold on the merged segment."""
    import pyarrow.parquet as _pq

    from lucene_ray.index.deletes import delete_by_query
    from lucene_ray.index.merge import force_merge
    from lucene_ray.search.query import TermQuery

    d = tmp_path / "c"
    d.mkdir()
    _pq.write_table(generate_corpus(200, seed=29), str(d / "c.parquet"), row_group_size=40)
    out = str(tmp_path / "idx")
    build_index_local(str(d), out, docs_per_segment=50, index_options="offsets")
    texts = _pq.read_table(str(d / "c.parquet")).column("content").to_pylist()
    # map surviving merged docs back to source texts via the sha
    import hashlib

    sha2text = {hashlib.sha256(t.encode()).hexdigest(): t for t in texts}
    delete_by_query(out, TermQuery("package"))
    man = force_merge(out, max_segments=1)
    assert len(man["segments"]) == 1
    r = SegmentReader(man["segments"][0]["dir"])
    assert r.has_offsets
    shas = r.stored_column("sha256").to_pylist()
    checked = 0
    for tid in range(r.n_terms):
        term = r.terms_array()[tid].as_py()
        docs, tfs = decode_term(r.enc, tid)
        spans = r.term_offset_spans(tid)
        for i, dloc in enumerate(docs):
            text = sha2text[shas[int(dloc)]]
            starts, ends = spans[i]
            for s, e in zip(starts, ends):
                assert text[s:e].lower() == term
                checked += 1
    assert checked > 500
    assert check_index(out, use_ray=False)["ok"]


def test_offsets_survive_add_documents(off_idx, ray_session):
    """add_documents on an offsets index must write the offset streams for
    the appended segment (otherwise a later merge silently drops the
    artifact index-wide)."""
    import pyarrow as pa
    import shutil

    idx, _ = off_idx
    clone = idx + "-addoff"
    shutil.rmtree(clone, ignore_errors=True)
    shutil.copytree(idx, clone)
    from lucene_ray.index.deletes import add_documents
    from lucene_ray.index.manifest import read_manifest

    tbl = pa.table(
        {
            "text": ["The Quick brown Fox appended here", "another new doc body"],
            "lang": ["en", "en"],
        }
    )
    man = add_documents(clone, tbl, content_column="text")
    new_seg = man["segments"][-1]
    r = SegmentReader(new_seg["dir"])
    assert r.has_offsets
    texts = tbl.column("text").to_pylist()
    for tid in range(r.n_terms):
        term = r.terms_array()[tid].as_py()
        docs, _tfs = decode_term(r.enc, tid)
        for i, d in enumerate(docs):
            starts, ends = r.term_offset_spans(tid)[i]
            for s, e in zip(starts, ends):
                assert texts[int(d)][s:e].lower() == term
    shutil.rmtree(clone, ignore_errors=True)


def test_mapped_charfilter_offsets_point_at_original_text():
    """MappingCharFilter + BaseCharFilter.correct: tokens from REPLACED
    text carry offsets into the ORIGINAL text (the span of the matched
    rule), tokens after a replacement shift by the cumulative diff."""
    import numpy as np

    from lucene_ray.analysis.analyzers import MappedCharFilterAnalyzer

    a = MappedCharFilterAnalyzer(mappings=(("spark", "fire"), ("group by", "groupby")))
    text = "a spark b group by c"
    v, tids, docs, pos, lens, n, os_, oe = a._batch_token_stream([text])
    toks = [(v[tids[i]], int(os_[i]), int(oe[i])) for i in range(len(tids))]
    assert toks == [
        ("a", 0, 1),
        ("fire", 2, 7),       # original span of "spark"
        ("b", 8, 9),
        ("groupby", 10, 18),  # original span of "group by"
        ("c", 19, 20),
    ]
    # every corrected span slices the ORIGINAL text to the rule's source
    assert text[2:7] == "spark" and text[10:18] == "group by"
    assert a.tokens(text) == ["a", "fire", "b", "groupby", "c"]
    # normalization applies the charfilter (Analyzer.initReaderForNormalization)
    # to the RAW term — an uppercase input misses the lowercase rule, as
    # in the reference (charfilter runs before LowerCaseFilter)
    assert a.normalize("spark") == "fire"
    assert a.normalize("SPARK") == "spark"
    # longest pattern wins at the same position
    b = MappedCharFilterAnalyzer(mappings=(("ab", "x"), ("abc", "y")))
    assert b.tokens("abc ab") == ["y", "x"]
