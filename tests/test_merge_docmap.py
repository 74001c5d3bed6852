"""One merge executor with a doc map (MergeState.DocMap / Sorter).

Every merge — tiered, forced, expunging, index-sorted and BP-reordered —
runs ``merge.merge_segments_task``.  These tests pin:

- differential bytes: merging a multi-segment index (sorted or not, every
  index-options shape, term vectors) writes the same segment files as one
  bulk ``build_index_local`` segment over the same rows (only
  ``meta.json`` differs), with equal stored fields;
- a merged segment of a sorted index declares and keeps the sort, so the
  early-terminating top-k stays exact;
- doc-values update overlays (and soft deletes) survive every merge,
  remapped through the doc map, deleted docs dropped;
- the index-sort field cannot be updated, and CheckIndex requires every
  segment of a sorted index to declare the sort;
- BP reordering runs on offsets / term-vector indexes.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index import merge as merge_mod
from lucene_ray.index import manifest as mf
from lucene_ray.index.build import build_index_local
from lucene_ray.index.check import check_index
from lucene_ray.index.deletes import delete_by_query, update_numeric_docvalue
from lucene_ray.index.merge import (
    expunge_deletes,
    force_merge,
    force_merge_sorted,
    maybe_merge,
)
from lucene_ray.index.postings import decode_term
from lucene_ray.index.softdeletes import soft_delete_by_query, wrap_soft_deletes
from lucene_ray.search.query import StoredFieldRange, TermQuery, bool_query
from lucene_ray.search.searcher import IndexSearcher

WORDS = (
    "spark join merge window scan alpha beta gamma delta epsilon red green "
    "blue cyan magenta sort index query term doc"
).split()
META = ("doc_id", "n", "n_chars")
SORT = ("n_chars", "desc")


class MergeAll:
    """A policy whose plan merges every segment into one."""

    def plan(self, manifest):
        n = len(manifest["segments"])
        return [list(range(n))] if n > 1 else []


def _corpus(n_docs: int, seed: int = 7) -> pa.Table:
    rng = np.random.default_rng(seed)
    texts = [
        " ".join(rng.choice(WORDS, size=int(rng.integers(3, 14))).tolist())
        for _ in range(n_docs)
    ]
    return pa.table(
        {
            "doc_id": pa.array(range(n_docs), pa.int64()),
            "n": pa.array(rng.integers(0, 50, n_docs), pa.int64()),
            # few distinct keys: ties exercise the stable tie-break
            "n_chars": pa.array(rng.integers(0, 12, n_docs), pa.int64()),
            "text": pa.array(texts),
        }
    )


def _build(tmp_path, name, tbl, per_segment, **settings) -> str:
    src = str(tmp_path / f"{name}.parquet")
    pq.write_table(tbl, src, row_group_size=per_segment)
    out = str(tmp_path / name)
    build_index_local(src, out, docs_per_segment=per_segment, content_column="text",
                      meta_columns=META, **settings)
    return out


def _segment_files(seg_dir):
    out = {}
    for f in sorted(os.listdir(seg_dir)):
        with open(os.path.join(seg_dir, f), "rb") as fh:
            out[f] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _stored(seg):
    return pq.read_table(seg["docs_dir"]).sort_by("docid")


def _by_doc_id(searcher, query, k=10_000):
    """Sorted [(stored doc_id, f32 score)]: the identity that survives a
    doc map."""
    out = []
    for gdoc, score in searcher.search(query, k):
        for seg, r in zip(searcher.manifest["segments"], searcher.readers):
            if seg["doc_base"] <= gdoc < seg["doc_base"] + seg["max_doc"]:
                col = r.stored_column("doc_id").to_numpy(zero_copy_only=False)
                out.append((int(col[gdoc - seg["doc_base"]]), float(score)))
    return sorted(out)


def _assert_sorted(index_dir):
    searcher = IndexSearcher(index_dir)
    for r in searcher.readers:
        assert r.meta["index_sort"] == list(SORT)
        keys = r.stored_column(SORT[0]).to_numpy(zero_copy_only=False)
        assert (np.diff(keys) <= 0).all()


SHAPES = [
    {"index_options": "docs_freqs"},
    {"index_options": "positions"},
    {"index_options": "offsets"},
    {"index_options": "payloads"},
    {"term_vectors": True},
]
SHAPE_IDS = ["docs_freqs", "positions", "offsets", "payloads", "term_vectors"]


@pytest.mark.parametrize("sort", [SORT, None], ids=["sorted", "unsorted"])
@pytest.mark.parametrize("how", ["force_merge", "maybe_merge"])
@pytest.mark.parametrize("settings", SHAPES, ids=SHAPE_IDS)
def test_merge_matches_one_segment_build(tmp_path, monkeypatch, ray_session, settings, how, sort):
    """A merged multi-segment index holds the same segment bytes as one
    bulk-built segment over the same rows; small sections make the merge
    run many of them."""
    tbl = _corpus(300)
    idx = _build(tmp_path, "idx", tbl, 60, index_sort=sort, **settings)
    ref = _build(tmp_path, "ref", tbl, 1000, index_sort=sort, **settings)
    assert len(mf.read_manifest(idx)["segments"]) == 5
    monkeypatch.setattr(merge_mod, "DEFAULT_SECTION_POSTINGS", 500)
    man = force_merge(idx, 1) if how == "force_merge" else maybe_merge(idx, MergeAll())
    (seg,) = man["segments"]
    (ref_seg,) = mf.read_manifest(ref)["segments"]
    got, want = _segment_files(seg["dir"]), _segment_files(ref_seg["dir"])
    assert got.pop("meta.json") and want.pop("meta.json")
    assert got == want
    assert _stored(seg).equals(_stored(ref_seg))
    with open(os.path.join(seg["dir"], "meta.json")) as fh:
        assert json.load(fh).get("index_sort") == (list(sort) if sort else None)
    assert check_index(idx, use_ray=False)["ok"]


def test_tiered_merge_keeps_early_termination_exact(tmp_path, ray_session):
    """After a default (tiered) maybe_merge of a sorted index, the
    early-terminating top-k equals a brute-force top-k."""
    from lucene_ray.pipelines import fulltext as ft

    assert tuple(ft.INDEX_SORT) == SORT
    idx = _build(tmp_path, "idx", _corpus(240), 40, index_sort=SORT)
    man = maybe_merge(idx)
    assert len(man["segments"]) < 6
    terms = ["spark", "alpha", "red", "doc"]
    k = 5
    for seg, r in zip(man["segments"], IndexSearcher(idx).readers):
        got = ft._seg_index_sorted_topk(r, seg["doc_base"], terms, k).to_pandas()
        keys = r.stored_column(SORT[0]).to_numpy(zero_copy_only=False)
        for qid, term in enumerate(terms):
            docs, _ = decode_term(r.enc, r.term_id(term))
            brute = np.sort(keys[docs])[::-1][:k]
            assert got[got.qid == qid]["key"].tolist() == brute.tolist()


@pytest.mark.parametrize("how", ["force_merge", "expunge_deletes"])
def test_sorted_merge_expunging_deletes(tmp_path, ray_session, how):
    idx = _build(tmp_path, "idx", _corpus(200), 50, index_sort=SORT)
    delete_by_query(idx, TermQuery("spark"))
    queries = [TermQuery("alpha"), TermQuery("red"), bool_query(should=[TermQuery("join"), TermQuery("blue")])]
    want = [_by_doc_id(IndexSearcher(idx), q) for q in queries]
    if how == "force_merge":
        force_merge(idx, 1)
    else:
        expunge_deletes(idx)
    assert check_index(idx, use_ray=False)["ok"]
    _assert_sorted(idx)
    after = IndexSearcher(idx)
    assert after.count(TermQuery("spark")) == 0
    # the deletes are expunged, so collection stats (and scores) change:
    # compare identities
    assert [[d for d, _ in _by_doc_id(after, q)] for q in queries] == [
        [d for d, _ in w] for w in want
    ]


def _dv_state(index_dir):
    s = IndexSearcher(index_dir)
    hit_999 = bool_query(filter=[StoredFieldRange("n", 999, 1000)])
    return (
        sorted(d for d, _ in _by_doc_id(s, hit_999)),
        s.count(hit_999),
        wrap_soft_deletes(s).count(TermQuery("alpha")),
        s.count(TermQuery("alpha")),
    )


@pytest.mark.parametrize("how", ["force_merge", "maybe_merge", "expunge_deletes", "sorted"])
def test_merges_keep_dv_updates_and_soft_deletes(tmp_path, ray_session, how):
    idx = _build(tmp_path, "idx", _corpus(60), 20, index_sort=SORT if how == "sorted" else None)
    update_numeric_docvalue(idx, TermQuery("spark"), "n", 999)
    soft_delete_by_query(idx, TermQuery("alpha"))
    if how == "expunge_deletes":
        delete_by_query(idx, TermQuery("beta"))
    before = _dv_state(idx)
    assert before[1] > 0 and before[2] == 0 and before[3] > 0
    if how == "force_merge":
        force_merge(idx, 1)
    elif how == "maybe_merge":
        maybe_merge(idx, MergeAll())
    elif how == "expunge_deletes":
        expunge_deletes(idx)
    else:
        force_merge_sorted(idx)
    man = mf.read_manifest(idx)
    assert all(not s.get("livedocs") for s in man["segments"])
    assert len(man["segments"]) < 3 or how == "expunge_deletes"
    assert _dv_state(idx) == before
    assert check_index(idx, use_ray=False)["ok"]
    if how == "sorted":
        _assert_sorted(idx)


def test_update_refuses_index_sort_field(tmp_path):
    idx = _build(tmp_path, "idx", _corpus(40), 20, index_sort=SORT)
    gen = mf.latest_generation(idx)
    with pytest.raises(ValueError, match="index sort"):
        update_numeric_docvalue(idx, TermQuery("spark"), SORT[0], 999)
    assert mf.latest_generation(idx) == gen
    update_numeric_docvalue(idx, TermQuery("spark"), "n", 999)  # another field is fine


def test_check_index_requires_every_segment_to_declare_the_sort(tmp_path):
    idx = _build(tmp_path, "idx", _corpus(40), 20, index_sort=SORT)
    assert check_index(idx, use_ray=False)["ok"]
    seg_dir = mf.read_manifest(idx)["segments"][1]["dir"]
    path = os.path.join(seg_dir, "meta.json")
    with open(path) as fh:
        meta = json.load(fh)
    del meta["index_sort"]
    with open(path, "w") as fh:
        json.dump(meta, fh)
    rep = check_index(idx, use_ray=False, raise_on_error=False)
    assert not rep["ok"]
    assert any("index_sort" in e for e in rep["errors"])


def test_bp_reorder_merge_offsets_and_term_vectors(tmp_path, ray_session):
    from lucene_ray.index import bp

    idx = _build(tmp_path, "idx", _corpus(200), 50, index_options="offsets", term_vectors=True)
    queries = [TermQuery("spark"), TermQuery("alpha"), TermQuery("red")]

    def offsets_by_doc_id(searcher, term):
        out = {}
        for seg, r in zip(searcher.manifest["segments"], searcher.readers):
            tid = r.term_id(term)
            docs, _ = decode_term(r.enc, tid)
            ids = r.stored_column("doc_id").to_numpy(zero_copy_only=False)
            for d, (s, e) in zip(docs, r.term_offset_spans(tid)):
                out[int(ids[d])] = (s.tolist(), e.tolist())
        return out

    before = IndexSearcher(idx)
    want = [_by_doc_id(before, q) for q in queries]
    want_off = offsets_by_doc_id(before, "spark")
    man = bp.bp_reorder_merge(idx, min_doc_freq=2)
    assert len(man["segments"]) == 1
    assert check_index(idx, use_ray=False)["ok"]
    after = IndexSearcher(idx)
    assert [_by_doc_id(after, q) for q in queries] == want
    assert offsets_by_doc_id(after, "spark") == want_off
    assert after.readers[0].has_term_vectors
