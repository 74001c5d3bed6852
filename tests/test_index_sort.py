"""Index-time sort (reference index/Sorter.java + IndexWriterConfig
.setIndexSort): segment docids are remapped at flush so docid order ==
(sort field, ties by arrival).  These tests pin what the SQL oracle
(ft_index_sorted_topk in test_entry_oracle) cannot see:

- the early-termination counter: the postings cursor visits <= its df,
  and strictly fewer docs than a full scan for at least one query;
- stored-fields integrity under the permutation: the sorted index's doc
  table is a row-permutation of the source corpus (doc_id<->text pairs);
- docid order really is sort order (the invariant early termination
  relies on);
- positions survive the remap: a positions+sorted build is CheckIndex
  clean and phrase counts (permutation-invariant) match the unsorted
  index.
"""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_ray.index.check import check_index
from lucene_ray.pipelines import fulltext as ft
from lucene_ray.search.searcher import IndexSearcher

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def sorted_idx(ray_session):
    return ft.ensure_index(SF_DIR, index_sort=ft.INDEX_SORT)


def test_docid_order_is_sort_order(sorted_idx):
    readers = IndexSearcher(sorted_idx).readers
    assert readers
    for r in readers:
        assert r.meta["index_sort"] == list(ft.INDEX_SORT)
        vals = r.stored_column(ft.INDEX_SORT[0]).to_numpy(zero_copy_only=False)
        assert (np.diff(vals) <= 0).all()  # n_chars desc within the segment


def test_stored_fields_are_a_permutation(sorted_idx):
    import hashlib

    src = pq.read_table(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])
    expected = {
        i: hashlib.sha256((t or "").encode()).hexdigest()
        for i, t in zip(src["doc_id"].to_pylist(), src["text"].to_pylist())
    }
    got = {}
    for r in IndexSearcher(sorted_idx).readers:
        ids = r.stored_column("doc_id").to_pylist()
        shas = r.stored_column("sha256").to_pylist()
        got.update(zip(ids, shas))
    assert got == expected


def test_early_termination_visits_fewer_docs(sorted_idx, ray_session):
    parts = ft.gather(
        ft.segment_map(
            sorted_idx, ft._seg_index_sorted_topk, terms=ft.INDEX_SORTED_QUERIES, k=5
        )
    ).to_pandas()
    assert len(parts)
    assert (parts["visited"] <= parts["df"]).all()
    # the whole point: at least one cursor stopped before exhausting its
    # postings list (visited < df <= max_doc full scan)
    assert (parts["visited"] < parts["df"]).any()


def test_positions_survive_remap(ray_session, tmp_path):
    from lucene_ray.index.build import build_index
    from lucene_ray.search.searcher import IndexSearcher

    common = dict(
        docs_per_segment=200,
        content_column="text",
        meta_columns=("doc_id", "n_chars"),
        index_options="positions",
    )
    plain = str(tmp_path / "plain")
    srt = str(tmp_path / "sorted")
    src = f"{SF_DIR}/documents.parquet"
    build_index(src, plain, **common)
    build_index(src, srt, index_sort=ft.INDEX_SORT, **common)
    rep = check_index(srt, use_ray=False)
    assert rep["ok"]

    # phrase match COUNT is invariant under any docid permutation
    from lucene_ray.search.multiterm import phrase_matches_segment

    phrase = ("order", "fast")
    def count(idx):
        total = 0
        s = IndexSearcher(idx)
        for rdr in s.readers:
            docs, _ = phrase_matches_segment(rdr, phrase)
            total += len(docs)
        return total

    n_plain = count(plain)
    assert n_plain > 0 and count(srt) == n_plain


def test_sorted_numeric_range_binary_search_equals_scan(sorted_idx, ray_session):
    """The two-binary-search span must equal the brute per-doc range scan
    on every segment, and the matching docids must be contiguous (the
    BoundedDocIdSetIterator invariant)."""
    import numpy as np

    from lucene_ray.index.manifest import read_manifest
    from lucene_ray.index.segment import SegmentReader

    man = read_manifest(sorted_idx)
    for seg in man["segments"]:
        r = SegmentReader(seg["dir"])
        col = r.stored_column("n_chars").to_numpy()
        asc = -col
        for lo, hi in [(100, 400), (None, 200), (250, None), (380, 390), (0, 1)]:
            start = 0 if hi is None else int(np.searchsorted(asc, -hi, side="right"))
            end = len(asc) if lo is None else int(np.searchsorted(asc, -lo, side="right"))
            mask = np.ones(len(col), bool)
            if lo is not None:
                mask &= col >= lo
            if hi is not None:
                mask &= col < hi
            docs = np.nonzero(mask)[0]
            assert max(0, end - start) == len(docs), (lo, hi)
            if len(docs):
                # contiguity: the span IS the match set
                assert docs[0] == start and docs[-1] == end - 1, (lo, hi)
