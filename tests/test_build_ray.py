"""The Ray Data build and the in-process build write the same index
(byte-identical files, same stats, same query results), and the
distributed searcher agrees with the in-process one."""

import os

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


def test_distributed_searcher_matches(ray_session, corpus_dir, tmp_path_factory):
    idx = str(tmp_path_factory.mktemp("dsearch") / "index")
    build_index_local(corpus_dir, idx, docs_per_segment=80)
    s = IndexSearcher(idx)
    ds = DistributedSearcher(idx, num_workers=3)
    for q in QUERIES:
        a = [(d, float(x)) for d, x in s.search(q, 10)]
        b = [(d, float(x)) for d, x in ds.search(q, 10)]
        assert a == b, q
