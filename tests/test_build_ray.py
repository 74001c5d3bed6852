"""The Ray build and the in-process build write the same index
(byte-identical files, same stats, same query results) without going
through Ray Data, and the distributed searcher agrees with the in-process
one."""

import os
import time

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from lucene_ray.corpus import generate_corpus
from lucene_ray.index import bloom
from lucene_ray.index.build import build_index, build_index_local
from lucene_ray.index.check import check_index
from lucene_ray.index.merge import maybe_merge
from lucene_ray.search.query import TermQuery, bool_query
from lucene_ray.search.searcher import DistributedSearcher, IndexSearcher


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("corpus"))
    tbl = generate_corpus(400, seed=3)
    tbl = tbl.append_column("n_chars", pc.utf8_length(tbl.column("content")))
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


@pytest.fixture()
def no_ray_data(monkeypatch):
    """Build and merge launch plain Ray tasks: a Ray Data launch fails."""
    import ray.data

    def boom(*_a, **_k):
        raise AssertionError("Ray Data launched where no rows flow")

    monkeypatch.setattr(ray.data, "from_items", boom)


@pytest.mark.parametrize(
    "settings",
    [
        dict(index_options="docs_freqs"),
        dict(index_options="positions"),
        dict(index_options="offsets"),
        dict(
            meta_columns=("repo", "path", "commit", "lang", "n_chars"),
            index_sort=("n_chars", "desc"),
        ),
    ],
    ids=["docs_freqs", "positions", "offsets", "index_sort"],
)
def test_build_index_matches_local(ray_session, no_ray_data, corpus_dir, tmp_path, settings):
    local_dir = str(tmp_path / "local")
    fused_dir = str(tmp_path / "fused")
    m_local = build_index_local(corpus_dir, local_dir, docs_per_segment=120, **settings)
    m_fused = build_index(corpus_dir, fused_dir, docs_per_segment=120, **settings)
    assert len(m_fused["segments"]) == 4
    for key in ("index_options", "index_sort"):
        assert m_local[key] == m_fused[key]
    local_files = _index_files(local_dir)
    assert any(f.endswith(bloom.FILE) for f in local_files)
    assert any(f.startswith("docs" + os.sep) for f in local_files)
    assert local_files == _index_files(fused_dir)
    r_local, cs_local = _results(local_dir)
    r_fused, cs_fused = _results(fused_dir)
    assert cs_local == cs_fused
    assert r_local == r_fused


def test_merge_until_stable_without_ray_data(ray_session, no_ray_data, corpus_dir, tmp_path):
    """Natural merging to a fixed point launches its merges as plain Ray
    tasks; without deletes the merged index answers like the flushed one."""
    idx = str(tmp_path / "index")
    manifest = build_index(corpus_dir, idx, docs_per_segment=120)
    before = _results(idx)
    n_flushed = len(manifest["segments"])
    while True:
        gen = manifest["generation"]
        manifest = maybe_merge(idx)
        if manifest["generation"] == gen:
            break
    assert len(manifest["segments"]) < n_flushed
    assert check_index(idx)["ok"]
    assert _results(idx) == before


def test_build_index_empty_corpus(ray_session, no_ray_data, tmp_path):
    """A zero-row corpus commits the same (empty-segment) list as the
    in-process build."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pq.write_table(generate_corpus(0, seed=3), str(corpus / "part-0000.parquet"))
    m_local = build_index_local(str(corpus), str(tmp_path / "local"))
    m_fused = build_index(str(corpus), str(tmp_path / "fused"))

    def seg_list(m):
        return [(s["name"], s["doc_base"], s["max_doc"]) for s in m["segments"]]

    assert seg_list(m_fused) == seg_list(m_local)
    assert sum(s["max_doc"] for s in m_fused["segments"]) == 0


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
