"""MultiPassIndexSplitter analogue: round-robin/seq splits, standalone
compacted parts, exact content-union with the source."""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_ray.corpus import generate_corpus
from lucene_ray.index.build import build_index_local
from lucene_ray.index.manifest import read_manifest
from lucene_ray.index.segment import SegmentReader
from lucene_ray.index.split import split_index
from lucene_ray.search.query import TermQuery
from lucene_ray.search.searcher import IndexSearcher


@pytest.fixture(scope="module")
def src(tmp_path_factory):
    root = tmp_path_factory.mktemp("split")
    d = root / "corpus"
    d.mkdir()
    pq.write_table(generate_corpus(300, seed=7), str(d / "c.parquet"), row_group_size=50)
    out = str(root / "src")
    build_index_local(str(d), out, docs_per_segment=70)
    return out


def _doc_shas(idx):
    """content sha per doc, from the stored-field tables."""
    out = []
    for seg in read_manifest(idx)["segments"]:
        r = SegmentReader(seg["dir"])
        col = r.stored_column("sha256")
        live = r.live
        for doc in range(r.max_doc):
            if live is None or live[doc]:
                out.append(col[doc].as_py())
    return out


@pytest.mark.parametrize("mode", ["round_robin", "seq"])
def test_split_parts_union_source(src, tmp_path, mode):
    outs = [str(tmp_path / f"{mode}{i}") for i in range(3)]
    mans = split_index(src, outs, mode=mode)
    sizes = [sum(int(s["max_doc"]) for s in m["segments"]) for m in mans]
    assert sum(sizes) == 300
    assert max(sizes) - min(sizes) <= 3  # balanced
    # content union == source, no overlap
    all_shas = sorted(sha for o in outs for sha in _doc_shas(o))
    assert all_shas == sorted(_doc_shas(src))
    # each part is a standalone, searchable, compacted index
    total = 0
    for o in outs:
        man = read_manifest(o)
        assert len(man["segments"]) == 1
        s = IndexSearcher(o)
        total += s.count(TermQuery("package"))
    assert total == IndexSearcher(src).count(TermQuery("package"))


def test_split_uncompacted_keeps_masks(src, tmp_path):
    outs = [str(tmp_path / f"nc{i}") for i in range(2)]
    mans = split_index(src, outs, compact=False)
    for part, (o, man) in enumerate(zip(outs, mans)):
        for seg in man["segments"]:
            live = np.load(seg["livedocs"])
            gids = int(seg["doc_base"]) + np.arange(len(live))
            assert ((gids[live] % 2) == part).all()


def test_add_indexes_inverse_of_split(src, tmp_path):
    """split -> add_indexes round-trips the corpus: same content shas, same
    term counts, CheckIndex-clean combined index."""
    from lucene_ray.index.addindexes import add_indexes
    from lucene_ray.index.check import check_index

    outs = [str(tmp_path / f"ai{i}") for i in range(3)]
    split_index(src, outs)
    combined = outs[0]
    man = add_indexes(combined, [outs[1], outs[2]])
    assert sum(int(s["max_doc"]) for s in man["segments"]) == 300
    assert sorted(_doc_shas(combined)) == sorted(_doc_shas(src))
    s = IndexSearcher(combined)
    assert s.count(TermQuery("package")) == IndexSearcher(src).count(TermQuery("package"))
    assert check_index(combined, use_ray=False)["ok"]


def test_add_indexes_rejects_config_mismatch(src, tmp_path):
    import shutil

    from lucene_ray.index import manifest as mf
    from lucene_ray.index.addindexes import add_indexes

    dst = str(tmp_path / "dstcfg")
    other = str(tmp_path / "othercfg")
    shutil.copytree(src, dst)
    shutil.copytree(src, other)
    # a committed generation of ``other`` claims a different analyzer
    mf.commit(other, lambda man, gen: {**man, "analyzer": "code"})
    with pytest.raises(ValueError, match="incompatible analyzer"):
        add_indexes(dst, [other])


def test_pk_split_by_query(src, tmp_path):
    """PKIndexSplitter: matching docs -> part 1, the rest -> part 2."""
    from lucene_ray.index.split import split_index_by_query

    q = TermQuery("package")
    n_match = IndexSearcher(src).count(q)
    assert 0 < n_match < 300
    o1, o2 = str(tmp_path / "pk1"), str(tmp_path / "pk2")
    m1, m2 = split_index_by_query(src, o1, o2, q)
    n1 = sum(int(s["max_doc"]) for s in m1["segments"])
    n2 = sum(int(s["max_doc"]) for s in m2["segments"])
    assert n1 == n_match and n1 + n2 == 300
    # every doc in part 1 matches, none in part 2 does
    assert IndexSearcher(o1).count(q) == n1
    assert IndexSearcher(o2).count(q) == 0
    # content union == source
    assert sorted(_doc_shas(o1) + _doc_shas(o2)) == sorted(_doc_shas(src))


def test_rearrange_index(src, tmp_path):
    """IndexRearranger: selector order = segment order, exact doc sets."""
    from lucene_ray.index.split import rearrange_index

    # three selectors with a deliberate non-monotonic order, one empty
    sels = [
        np.arange(200, 300),
        np.arange(0, 50),
        np.array([], dtype=np.int64),
        np.arange(50, 200),
    ]
    out = str(tmp_path / "rearranged")
    man = rearrange_index(src, out, sels)
    sizes = [int(s["max_doc"]) for s in man["segments"]]
    assert sizes == [100, 50, 150]  # empty selector discarded
    # content union == source and per-segment membership is exact
    assert sorted(_doc_shas(out)) == sorted(_doc_shas(src))
    src_shas = _doc_shas(src)
    segs = read_manifest(out)["segments"]
    r0 = SegmentReader(segs[0]["dir"])
    got = [r0.stored_column("sha256")[d].as_py() for d in range(r0.max_doc)]
    assert sorted(got) == sorted(src_shas[200:300])


def test_pk_split_rewrites_query(tmp_path):
    """The split weighs its query like a search does: a satu feature
    clause gets its pivot from the rewrite."""
    from lucene_ray.index.split import split_index_by_query
    from lucene_ray.search.query import FeatureQuery, bool_query
    from tests.util import small_dv_index

    src = small_dv_index(tmp_path, "src")
    q = bool_query(must=[TermQuery("spark")], should=[FeatureQuery("n", "satu")])
    n_match = IndexSearcher(src).count(q)
    assert 0 < n_match < 40
    m1, m2 = split_index_by_query(src, str(tmp_path / "pk1"), str(tmp_path / "pk2"), q)
    assert sum(int(s["max_doc"]) for s in m1["segments"]) == n_match
    assert sum(int(s["max_doc"]) for s in m2["segments"]) == 40 - n_match
