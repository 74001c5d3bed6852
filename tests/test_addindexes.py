"""IndexWriter.addIndexes(Directory...): segment import with rebased doc
bases, carried deletes, and compatibility validation."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index import manifest as mf
from lucene_ray.index.addindexes import add_indexes
from lucene_ray.index.build import build_index
from lucene_ray.search.query import TermQuery
from lucene_ray.search.searcher import IndexSearcher

SF = "/root/testdata/sf0.001"

META = ("doc_id", "lang", "source", "n_chars")


def _build(tmp, rows: pa.Table, name: str) -> str:
    src = os.path.join(tmp, f"{name}.parquet")
    pq.write_table(rows, src, row_group_size=100)
    idx = os.path.join(tmp, f"idx_{name}")
    build_index(
        src, idx, content_column="text", meta_columns=META,
        docs_per_segment=150,
    )
    return idx


@pytest.fixture(scope="module")
def corpus():
    return pq.read_table(os.path.join(SF, "documents.parquet"))


def test_add_indexes_matches_single_build(ray_session, tmp_path, corpus):
    tmp = str(tmp_path)
    half = corpus.num_rows // 2
    a = _build(tmp, corpus.slice(0, half), "a")
    b = _build(tmp, corpus.slice(half), "b")
    whole = _build(tmp, corpus, "whole")

    man = add_indexes(a, [b])
    assert man["generation"] == mf.read_manifest(a)["generation"]
    # doc bases chain contiguously
    bases = [(s["doc_base"], s["max_doc"]) for s in man["segments"]]
    expect = 0
    for base, n in bases:
        assert base == expect
        expect += n
    assert expect == corpus.num_rows

    sa = IndexSearcher(a)
    sw = IndexSearcher(whole)
    # collection stats equal the single whole-corpus build
    assert sa.collection_stats == sw.collection_stats
    # search results identical (docids line up because the halves
    # concatenate in the same row order)
    for term in ("spark", "join", "window", "customer"):
        assert sa.search(TermQuery(term), 20) == sw.search(TermQuery(term), 20)


def test_add_indexes_carries_deletes(ray_session, tmp_path, corpus):
    from lucene_ray.index.deletes import delete_by_query

    tmp = str(tmp_path)
    half = corpus.num_rows // 2
    a = _build(tmp, corpus.slice(0, half), "a")
    b = _build(tmp, corpus.slice(half), "b")
    # find a doc in b matching 'spark' and delete it there
    sb = IndexSearcher(b)
    victim_local = sb.search(TermQuery("spark"), 1)[0][0]
    delete_by_query(b, TermQuery("spark"))
    add_indexes(a, [b])
    sa = IndexSearcher(a)
    hits = {d for d, _ in sa.search(TermQuery("spark"), 1000)}
    # no hit can come from the imported half (all its spark docs deleted)
    assert all(d < half for d in hits)
    assert victim_local + half not in hits


def test_add_indexes_rejects_incompatible(ray_session, tmp_path, corpus):
    tmp = str(tmp_path)
    a = _build(tmp, corpus.slice(0, 100), "a")
    srcp = os.path.join(tmp, "c.parquet")
    pq.write_table(corpus.slice(100, 100), srcp)
    c = os.path.join(tmp, "idx_c")
    build_index(
        srcp, c, content_column="text", meta_columns=META,
        analyzer="english_minimal", docs_per_segment=150,
    )
    with pytest.raises(ValueError, match="incompatible analyzer"):
        add_indexes(a, [c])


def test_add_indexes_carries_dv_updates_and_soft_deletes(ray_session, tmp_path):
    from lucene_ray.index.check import check_index
    from lucene_ray.index.deletes import update_numeric_docvalue
    from lucene_ray.index.softdeletes import soft_delete_by_query
    from tests.util import dv_counts, small_dv_index

    src = small_dv_index(tmp_path, "src")
    dst = small_dv_index(tmp_path, "dst")
    update_numeric_docvalue(src, TermQuery("spark"), "n", 999)
    soft_delete_by_query(src, TermQuery("alpha"))
    n999, soft_alpha, alpha = dv_counts(src)
    assert n999 > 0 and soft_alpha == 0 < alpha
    assert dv_counts(dst)[0] == 0

    add_indexes(dst, [src])
    # the imported half keeps its updated values and its soft deletes; the
    # destination's own docs have neither
    assert dv_counts(dst) == (n999, alpha, 2 * alpha)
    for seg in mf.read_manifest(dst)["segments"]:
        for path in (seg.get("dv_updates") or {}).values():
            assert path.startswith(os.path.join(dst, "dvu")) and os.path.exists(path)
    assert check_index(dst, use_ray=False)["ok"]
