"""The Ray Data build and the in-process build write the same index
(byte-identical files, same stats, same query results), and the
distributed searcher agrees with the in-process one."""

import os
import time

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_ray.corpus import generate_corpus
from lucene_ray.index import bloom
from lucene_ray.index.build import build_index, build_index_local
from lucene_ray.search.query import TermQuery, bool_query
from lucene_ray.search.searcher import DistributedSearcher, IndexSearcher


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("corpus"))
    tbl = generate_corpus(400, seed=3)
    pq.write_table(tbl, d + "/part-0000.parquet", row_group_size=64)
    return d


QUERIES = [
    TermQuery("import"),
    bool_query(should=[TermQuery("import"), TermQuery("return"), TermQuery("def")]),
    bool_query(should=[TermQuery("the"), TermQuery("func")], min_should_match=1),
    bool_query(must=[TermQuery("return")], should=[TermQuery("import"), TermQuery("def")]),
    bool_query(must=[TermQuery("def")], must_not=[TermQuery("import")]),
]


def _results(index_dir):
    s = IndexSearcher(index_dir)
    return [
        [(d, float(x)) for d, x in s.search(q, 10)] for q in QUERIES
    ], s.collection_stats


def _index_files(index_dir):
    """{relative path: bytes} of every file but the manifests, which hold
    build timings (segment meta.json holds none)."""
    out = {}
    for root, _dirs, files in os.walk(index_dir):
        for f in files:
            if not f.startswith("manifest-"):
                path = os.path.join(root, f)
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, index_dir)] = fh.read()
    return out


def test_build_index_matches_local(ray_session, corpus_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("ray_idx")
    local_dir = str(root / "local")
    fused_dir = str(root / "fused")
    build_index_local(corpus_dir, local_dir, docs_per_segment=120)
    build_index(corpus_dir, fused_dir, docs_per_segment=120)
    local_files = _index_files(local_dir)
    assert any(f.endswith(bloom.FILE) for f in local_files)
    assert any(f.startswith("docs" + os.sep) for f in local_files)
    assert local_files == _index_files(fused_dir)
    r_local, cs_local = _results(local_dir)
    r_fused, cs_fused = _results(fused_dir)
    assert cs_local == cs_fused
    assert r_local == r_fused


def test_unknown_build_mode_rejected(tmp_path):
    with pytest.raises(ValueError, match="fused"):
        build_index(str(tmp_path / "corpus"), str(tmp_path / "i"), mode="shuffle")


@pytest.fixture(scope="module")
def dsearch_idx(corpus_dir, tmp_path_factory):
    idx = str(tmp_path_factory.mktemp("dsearch") / "index")
    build_index_local(corpus_dir, idx, docs_per_segment=80)
    return idx


def _hits32(hits):
    return [(d, np.float32(x)) for d, x in hits]


def test_distributed_searcher_matches(ray_session, dsearch_idx):
    """Each worker scores a strided, non-contiguous slice of segment
    ordinals and carries the min-competitive floor across it: results are
    rank- and float32-identical to in-process for 1, 2 and 3 workers."""
    s = IndexSearcher(dsearch_idx)
    assert len(s.readers) >= 4
    for num_workers in (1, 2, 3):
        ds = DistributedSearcher(dsearch_idx, num_workers=num_workers)
        assert len(ds.workers) == num_workers
        for q in QUERIES:
            assert _hits32(ds.search(q, 10)) == _hits32(s.search(q, 10)), (num_workers, q)


def test_distributed_worker_restarts(ray_session, dsearch_idx):
    """A killed worker restarts from (index_dir, generation, ords) and the
    next search returns the same top-k without raising."""
    import ray

    ds = DistributedSearcher(dsearch_idx, num_workers=2)
    q = QUERIES[3]
    first = _hits32(ds.search(q, 10))
    victim = ds.workers[0]
    ray.kill(victim, no_restart=False)
    # the kill is asynchronous: wait until the GCS has seen the death, so
    # the next search really meets a dead (restarting) worker
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        state = ray._private.state.actors(victim._actor_id.hex())
        if state["State"] != "ALIVE" or state["NumRestarts"] > 0:
            break
        time.sleep(0.05)
    else:
        pytest.fail("killed worker still reported alive")
    assert _hits32(ds.search(q, 10)) == first
