"""Sorted force-merge (Sorter-on-merge): the merged segment keeps the
index-sort invariant, search results survive by content, and CheckIndex's
sort-monotonicity rule stays satisfied."""

import shutil

import numpy as np
import pytest

from lucene_ray.index import manifest as mf
from lucene_ray.index.merge import force_merge_sorted
from lucene_ray.index.segment import SegmentReader
from lucene_ray.pipelines import fulltext as ft
from lucene_ray.search.query import TermQuery
from lucene_ray.search.searcher import IndexSearcher

SF = "/root/testdata/sf0.001"


@pytest.fixture()
def sorted_idx(tmp_path, ray_session):
    import os

    from lucene_ray.index.build import build_index

    import pyarrow.parquet as pq

    # small row groups so the build packs MULTIPLE segments
    src = str(tmp_path / "docs.parquet")
    pq.write_table(
        pq.read_table(os.path.join(SF, "documents.parquet")),
        src,
        row_group_size=150,
    )
    dst = str(tmp_path / "idx")
    build_index(
        src,
        dst,
        content_column="text",
        meta_columns=("doc_id", "lang", "source", "n_chars"),
        docs_per_segment=150,
        index_sort=ft.INDEX_SORT,
    )
    return dst


def _by_content(searcher, term, k=10_000):
    """[(stored doc_id, f32 score)] — docids change across a sorted merge,
    the stored doc_id column is the stable identity."""
    out = []
    for gdoc, score in searcher.search(TermQuery(term), k):
        for seg, r in zip(searcher.manifest["segments"], searcher.readers):
            if seg["doc_base"] <= gdoc < seg["doc_base"] + seg["max_doc"]:
                col = r.stored_column("doc_id").to_numpy(zero_copy_only=False)
                out.append((int(col[gdoc - seg["doc_base"]]), float(score)))
                break
    return out


def test_sorted_merge_preserves_sort_and_results(sorted_idx, ray_session):
    before = IndexSearcher(sorted_idx)
    assert len(before.readers) > 1
    want = {t: _by_content(before, t) for t in ("spark", "join", "window")}
    man = force_merge_sorted(sorted_idx)
    assert len(man["segments"]) == 1
    after = IndexSearcher(sorted_idx)
    r = after.readers[0]
    keys = r.stored_column("n_chars").to_numpy(zero_copy_only=False)
    # the merged segment is globally DESC-sorted on the sort field
    assert (np.diff(keys) <= 0).all()
    for t, w in want.items():
        got = _by_content(after, t)
        # scores are identical (stats unchanged by an expunging merge of a
        # delete-free index); identities match as multisets, and rank
        # order only changes within exact score ties (docid tie-break
        # follows the new sort order)
        assert sorted(got) == sorted(w)
        assert [s for _, s in got] == [s for _, s in w]
    # binary-search range semantics on the merged segment: span == scan
    lo, hi = 100, 300
    asc = -keys
    start = int(np.searchsorted(asc, -(hi - 1), side="left"))
    # count via contiguous span vs brute scan
    span = int(((keys >= lo) & (keys < hi)).sum())
    inside = keys[(keys >= lo) & (keys < hi)]
    assert len(inside) == span  # scan self-consistency
    s_idx = np.searchsorted(-keys, -(hi - 1), side="left")
    e_idx = np.searchsorted(-keys, -lo, side="right")
    assert e_idx - s_idx == span  # one contiguous docid span


def test_sorted_merge_expunges_deletes(sorted_idx, ray_session):
    from lucene_ray.index.deletes import delete_by_query

    before = IndexSearcher(sorted_idx)
    n_spark = before.count(TermQuery("spark"))
    assert n_spark > 0
    delete_by_query(sorted_idx, TermQuery("spark"))
    force_merge_sorted(sorted_idx)
    after = IndexSearcher(sorted_idx)
    assert after.count(TermQuery("spark")) == 0
    r = after.readers[0]
    assert r.live is None or np.asarray(r.live).all()
    keys = r.stored_column("n_chars").to_numpy(zero_copy_only=False)
    assert (np.diff(keys) <= 0).all()


def test_unsorted_index_refuses(tmp_path, ray_session):
    src = ft.ensure_index(SF)
    dst = str(tmp_path / "plain")
    shutil.copytree(src, dst)
    with pytest.raises(ValueError, match="no index_sort"):
        force_merge_sorted(dst)
