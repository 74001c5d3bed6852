"""NRT searcher refresh: open_if_changed reuses unchanged SegmentReaders
(reference index/StandardDirectoryReader.java openIfChanged)."""

import pyarrow as pa
import pyarrow.parquet as pq

from lucene_ray.corpus import generate_corpus
from lucene_ray.index.build import build_index_local
from lucene_ray.index.deletes import add_documents, delete_by_key
from lucene_ray.search.query import TermQuery
from lucene_ray.search.searcher import IndexSearcher, open_if_changed


def _build(tmp_path, n=120):
    src = tmp_path / "c.parquet"
    pq.write_table(generate_corpus(n, seed=9), str(src))
    idx = str(tmp_path / "idx")
    build_index_local(str(src), idx, docs_per_segment=40)
    return idx


def test_unchanged_returns_none(tmp_path):
    idx = _build(tmp_path)
    s = IndexSearcher(idx)
    assert open_if_changed(s) is None
    assert s.open_if_changed() is None  # method form


def test_reopen_after_add_reuses_readers(tmp_path):
    idx = _build(tmp_path)
    s = IndexSearcher(idx)
    old_readers = list(s.readers)
    add_documents(
        idx,
        pa.table({"text": ["nrt reopen probe xylophonic"], "repo": ["r"]}),
        content_column="text",
        meta_columns=("repo",),
    )
    s2 = open_if_changed(s)
    assert s2 is not None and s2.generation == s.generation + 1
    # every pre-existing segment reader object is REUSED (same identity)
    assert s2.readers[: len(old_readers)] == old_readers
    assert len(s2.readers) == len(old_readers) + 1
    assert len(s2.search(TermQuery("xylophonic"), 3)) == 1
    # the old point-in-time searcher is untouched
    assert len(s.search(TermQuery("xylophonic"), 3)) == 0
    # idempotent: nothing newer now
    assert open_if_changed(s2) is None


def test_reopen_after_delete_shares_arrays_not_live(tmp_path):
    idx = _build(tmp_path)
    s = IndexSearcher(idx)
    from lucene_ray.index.segment import SegmentReader

    victim_path = SegmentReader(s.manifest["segments"][0]["dir"]).stored_column(
        "path"
    )[0].as_py()
    before = s.count(TermQuery("import"))
    delete_by_key(idx, "path", [victim_path])
    s2 = open_if_changed(s)
    assert s2 is not None
    # shallow clone: same immutable postings arrays, fresh live mask
    assert s2.readers[0].enc is s.readers[0].enc
    assert s2.readers[0].live is not None and s.readers[0].live is None
    assert s2.count(TermQuery("import")) <= before
    # old searcher still sees the pre-delete view
    assert s.count(TermQuery("import")) == before


def test_distributed_refresh(tmp_path, ray_session):
    from lucene_ray.search.searcher import DistributedSearcher

    idx = _build(tmp_path)
    ds = DistributedSearcher(idx, num_workers=2)
    assert ds.refresh() is False
    add_documents(
        idx,
        pa.table({"text": ["distributed refresh probe quuxify"], "repo": ["r"]}),
        content_column="text",
        meta_columns=("repo",),
    )
    assert len(ds.search(TermQuery("quuxify"), 3)) == 0  # pre-refresh view
    assert ds.refresh() is True
    assert len(ds.search(TermQuery("quuxify"), 3)) == 1
    assert ds.refresh() is False


def test_reopen_keeps_overlays_point_in_time(tmp_path):
    """A doc-values update and a soft delete reach the reopened searcher
    only: the old one keeps counting like a fresh searcher of its own
    generation, cached stored-column filters included."""
    from lucene_ray.index.deletes import update_numeric_docvalue
    from lucene_ray.index.softdeletes import soft_delete_by_query, wrap_soft_deletes
    from lucene_ray.search.query import DocValuesTermsQuery, StoredFieldRange, bool_query
    from tests.util import small_dv_index

    idx = small_dv_index(tmp_path, "pit")
    in_range = bool_query(filter=[StoredFieldRange("n", 999, 1000)])
    in_set = DocValuesTermsQuery("n", (999,))

    def view(s):
        return (s.count(in_range), s.count(in_set), wrap_soft_deletes(s).count(TermQuery("alpha")))

    s1 = IndexSearcher(idx)
    for _ in range(2):  # the second use puts in_set in the query cache
        before = view(s1)
    assert before[:2] == (0, 0)
    update_numeric_docvalue(idx, TermQuery("spark"), "n", 999)
    soft_delete_by_query(idx, TermQuery("alpha"))
    s2 = open_if_changed(s1)
    assert view(s1) == before == view(IndexSearcher(idx, generation=s1.generation))
    after = view(IndexSearcher(idx))
    assert after != before and after[2] == 0
    assert view(s2) == after
