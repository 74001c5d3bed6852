"""CheckIndex validator: clean indexes pass; corrupted structures are caught."""

from __future__ import annotations

import numpy as np
import pytest

from lucene_ray.corpus import generate_corpus
from lucene_ray.index.build import build_index_local
from lucene_ray.index.check import CheckIndexError, check_index, check_segment
from lucene_ray.index.merge import force_merge
from lucene_ray.index.segment import read_columns, write_columns


@pytest.fixture(scope="module")
def idx(tmp_path_factory):
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("chk_corpus")
    pq.write_table(generate_corpus(400, seed=31), str(d / "c.parquet"), row_group_size=64)
    out = str(tmp_path_factory.mktemp("chk_idx"))
    build_index_local(str(d), out, docs_per_segment=64)
    return out


def test_clean_index_passes(idx, ray_session):
    report = check_index(idx, use_ray=True)
    assert report["ok"] and report["segments"] == 7 and report["n_postings"] > 0


def test_merged_index_passes(idx, ray_session):
    force_merge(idx, max_segments=2)
    report = check_index(idx, use_ray=False)
    assert report["ok"] and report["segments"] == 2


def test_corruption_detected(idx, tmp_path):
    import os
    import shutil

    from lucene_ray.index import manifest as mf

    man = mf.read_manifest(idx)
    src = man["segments"][0]["dir"]
    bad = str(tmp_path / "bad_seg")
    shutil.copytree(src, bad)
    # flip a norm byte -> "norm != quantized length" must fire
    norms = np.load(os.path.join(bad, "norms.npy"))
    norms[0] = 255 if norms[0] != 255 else 1
    np.save(os.path.join(bad, "norms.npy"), norms)
    with pytest.raises(CheckIndexError):
        check_segment(bad)
    rep = check_segment(bad, raise_on_error=False)
    assert rep["errors"]


def test_corrupt_postings_detected(idx, tmp_path):
    import os
    import shutil

    from lucene_ray.index import manifest as mf

    man = mf.read_manifest(idx)
    src = man["segments"][0]["dir"]
    bad = str(tmp_path / "bad_seg2")
    shutil.copytree(src, bad)
    # inflate a doc_freq -> decoded-count mismatch must fire
    cols = read_columns(bad)
    cols["doc_freq"] = cols["doc_freq"].copy()
    cols["doc_freq"][0] += 1
    write_columns(bad, cols)
    with pytest.raises(CheckIndexError):
        check_segment(bad)


def test_positions_validated(tmp_path, ray_session):
    import os
    import shutil

    import numpy as np
    import pyarrow.parquet as pq

    from lucene_ray.corpus import generate_corpus
    from lucene_ray.index import manifest as mf2
    from lucene_ray.index.build import build_index_local

    d = tmp_path / "c"
    d.mkdir()
    pq.write_table(generate_corpus(100, seed=51), str(d / "c.parquet"))
    idx = str(tmp_path / "idx")
    build_index_local(str(d), idx, docs_per_segment=128, index_options="positions")
    assert check_index(idx, use_ray=False)["ok"]
    # corrupt a position -> descending within a posting
    seg = mf2.read_manifest(idx)["segments"][0]["dir"]
    bad = str(tmp_path / "badp")
    shutil.copytree(seg, bad)
    p = np.load(os.path.join(bad, "pos_data.npy"))
    off = np.load(os.path.join(bad, "pos_off.npy"))
    row = next(i for i in range(len(off) - 1) if off[i + 1] - off[i] >= 2)
    p[off[row]], p[off[row] + 1] = p[off[row] + 1], p[off[row]]
    np.save(os.path.join(bad, "pos_data.npy"), p)
    rep = check_segment(bad, raise_on_error=False)
    assert any("positions not ascending" in e or "pos count" in e for e in rep["errors"])


def test_term_vectors_and_sort_validated(tmp_path, ray_session):
    import os
    import shutil

    import numpy as np
    import pyarrow.parquet as pq

    from lucene_ray.corpus import generate_corpus
    from lucene_ray.index import manifest as mf2
    from lucene_ray.index.build import build_index_local

    d = tmp_path / "c2"
    d.mkdir()
    pq.write_table(generate_corpus(120, seed=52), str(d / "c.parquet"))
    idx = str(tmp_path / "idx2")
    build_index_local(str(d), idx, docs_per_segment=128, term_vectors=True)
    assert check_index(idx, use_ray=False)["ok"]
    # corrupt one tv tf -> transpose mismatch
    seg = mf2.read_manifest(idx)["segments"][0]["dir"]
    bad = str(tmp_path / "badtv")
    shutil.copytree(seg, bad)
    tf = np.load(os.path.join(bad, "tv_tf.npy"))
    tf[0] += 1
    np.save(os.path.join(bad, "tv_tf.npy"), tf)
    rep = check_segment(bad, raise_on_error=False)
    assert any("transpose" in e for e in rep["errors"])


def test_points_tree_validated(tmp_path, ray_session):
    import numpy as np

    from lucene_ray.index.points import PointTree, check_points

    rng = np.random.default_rng(3)
    vals = rng.integers(0, 10**6, size=(500, 2))
    tree = PointTree.build(vals, np.arange(500))
    path = str(tmp_path / "points-xy.npz")
    tree.save(path)
    assert check_points(path, max_doc=500) == []
    # tamper a bound -> not tight
    z = dict(np.load(path))
    z["maxs"][0][0] += 1
    np.savez_compressed(str(tmp_path / "bad.tmp"), **z)
    import os as _os

    _os.replace(str(tmp_path / "bad.tmp.npz"), path)
    assert any("not tight" in e for e in check_points(path, max_doc=500))


def test_check_catches_truncated_payloads(tmp_path):
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_ray.corpus import generate_corpus
    from lucene_ray.index.build import build_index_local
    from lucene_ray.index.check import check_segment

    src = tmp_path / "c.parquet"
    pq.write_table(generate_corpus(40, seed=3), str(src))
    idx = str(tmp_path / "idx")
    build_index_local(str(src), idx, index_options="payloads")
    seg = idx + "/seg_000000"
    assert check_segment(seg)["errors"] == []
    pay = np.load(seg + "/pay_data.npy")
    np.save(seg + "/pay_data.npy", pay[:-3])  # truncate the stream
    out = check_segment(seg, raise_on_error=False)
    assert any("payload stream length" in e for e in out["errors"])
