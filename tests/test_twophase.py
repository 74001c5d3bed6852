"""Two-phase commit: prepareCommit staging, publish, rollback sweep.

Reference: index/IndexWriter.java prepareCommit()/commit()/rollback() +
SegmentInfos.java pending_segments_N -> segments_N."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray import store
from lucene_ray.index import manifest as mf
from lucene_ray.index import twophase as tp
from lucene_ray.index.check import check_index
from lucene_ray.index.deletes import add_documents
from lucene_ray.search.query import TermQuery
from lucene_ray.search.searcher import IndexSearcher

SF = "/root/testdata/sf0.001"


def _fresh_idx(tmp_path):
    from lucene_ray.index.build import build_index

    src = str(tmp_path / "docs.parquet")
    pq.write_table(
        pq.read_table(os.path.join(SF, "documents.parquet")), src,
        row_group_size=200,
    )
    idx = str(tmp_path / "idx")
    build_index(src, idx, content_column="text",
                meta_columns=("doc_id", "lang", "source", "n_chars"),
                docs_per_segment=200)
    return idx


def _new_docs():
    return pa.table(
        {
            "doc_id": pa.array([900001, 900002], pa.int64()),
            "text": pa.array(["zebra quorum flight", "zebra zebra spark"]),
            "lang": pa.array(["en", "en"]),
            "source": pa.array(["tp", "tp"]),
            "n_chars": pa.array([19, 17], pa.int64()),
        }
    )


def test_prepare_then_commit(tmp_path, ray_session):
    idx = _fresh_idx(tmp_path)
    g0 = mf.latest_generation(idx)
    before = IndexSearcher(idx).count(TermQuery("zebra"))
    assert before == 0

    add_documents(idx, _new_docs(), two_phase=True)
    # staged, not visible: latest committed generation unchanged
    assert mf.latest_generation(idx) == g0
    assert tp.pending_generation(idx) == g0 + 1
    assert IndexSearcher(idx).count(TermQuery("zebra")) == 0

    # a second prepare while one is in flight raises (reference contract)
    with pytest.raises(RuntimeError):
        tp.prepare_commit(idx, lambda man, gen: man)

    man = tp.commit_pending(idx)
    assert man["generation"] == g0 + 1
    assert mf.latest_generation(idx) == g0 + 1
    assert tp.pending_generation(idx) is None
    assert IndexSearcher(idx).count(TermQuery("zebra")) == 2
    check_index(idx)


def test_rollback_sweeps_orphans(tmp_path, ray_session):
    idx = _fresh_idx(tmp_path)
    g0 = mf.latest_generation(idx)
    committed_dirs = {
        s["dir"] for s in mf.read_manifest(idx)["segments"]
    }

    add_documents(idx, _new_docs(), two_phase=True)
    pend = store.read_json(tp.pending_path(idx, g0 + 1))
    new_dirs = {s["dir"] for s in pend["segments"]} - committed_dirs
    assert new_dirs and all(store.exists(d) for d in new_dirs)

    out = tp.rollback_pending(idx)
    assert out["rolled_back"] == g0 + 1
    assert tp.pending_generation(idx) is None
    assert mf.latest_generation(idx) == g0
    # the staged segment is physically gone; committed ones intact
    assert all(not store.exists(d) for d in new_dirs)
    assert all(store.exists(d) for d in committed_dirs)
    assert IndexSearcher(idx).count(TermQuery("zebra")) == 0
    check_index(idx)


def test_commit_superseded_generation_refused(tmp_path, ray_session):
    idx = _fresh_idx(tmp_path)
    g0 = mf.latest_generation(idx)
    add_documents(idx, _new_docs(), two_phase=True)
    # another writer publishes g0+1 directly (the race loser scenario)
    man = dict(mf.read_manifest(idx))
    man["generation"] = g0 + 1
    mf.write_manifest(idx, man)
    with pytest.raises(ValueError):
        tp.commit_pending(idx)
    # rollback still cleans up without touching the committed artifacts
    tp.rollback_pending(idx)
    assert mf.latest_generation(idx) == g0 + 1
    check_index(idx)
