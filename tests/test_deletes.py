"""Live-docs deletes: masking across query paths, stats semantics,
merge-time expunge with docid renumbering, update_documents."""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.corpus import generate_corpus
from lucene_ray.index import manifest as mf
from lucene_ray.index.build import build_index_local
from lucene_ray.index.deletes import (
    add_documents,
    delete_by_key,
    delete_by_query,
    live_doc_count,
    update_documents,
)
from lucene_ray.index.merge import force_merge
from lucene_ray.search.query import (
    DisjunctionMaxQuery,
    PhraseQuery,
    PrefixQuery,
    StoredFieldFilter,
    TermQuery,
    bool_query,
)
from lucene_ray.search.searcher import IndexSearcher


@pytest.fixture()
def idx(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    tbl = generate_corpus(300, seed=41)
    pq.write_table(tbl, str(d / "c.parquet"), row_group_size=30)
    out = str(tmp_path / "idx")
    build_index_local(str(d), out, docs_per_segment=30, index_options="positions")
    return out, tbl


def _deleted_set(searcher):
    out = set()
    for reader, seg in zip(searcher.readers, searcher.manifest["segments"]):
        if reader.live is not None:
            out.update(
                (np.nonzero(~reader.live)[0] + seg["doc_base"]).tolist()
            )
    return out


def test_delete_by_query_masks_all_paths(idx):
    out, tbl = idx
    s0 = IndexSearcher(out)
    stats_before = s0.collection_stats
    before = {
        "term": s0.search(TermQuery("def"), 400, total_hits_threshold=np.inf,
                          score_mode="COMPLETE"),
        "bool": s0.search(bool_query(should=[TermQuery("def"), TermQuery("import")]),
                          400, total_hits_threshold=np.inf, score_mode="COMPLETE"),
    }

    man = delete_by_query(out, TermQuery("return"))
    assert any("livedocs" in e for e in man["segments"])
    s = IndexSearcher(out)
    deleted = _deleted_set(s)
    assert deleted and live_doc_count(man) == 300 - len(deleted)

    # stats unchanged until merge (reference live-docs semantics)
    assert s.collection_stats == stats_before

    for qname, q in [
        ("term", TermQuery("def")),
        ("bool", bool_query(should=[TermQuery("def"), TermQuery("import")])),
        ("conj", bool_query(must=[TermQuery("def"), TermQuery("import")])),
        ("phrase", PhraseQuery(("def", "return"))),
        ("sloppy", PhraseQuery(("def", "return"), slop=2)),
        ("prefix", PrefixQuery("de")),
        ("dismax", DisjunctionMaxQuery((TermQuery("def"), TermQuery("import")), 0.3)),
        ("filter", bool_query(must=[TermQuery("def")],
                              filter=[StoredFieldFilter("lang", tbl.column("lang")[0].as_py())])),
    ]:
        hits = s.search(q, 400, total_hits_threshold=np.inf, score_mode="COMPLETE")
        assert not ({d for d, _ in hits} & deleted), qname
        assert s.count(q) == len(hits), qname
        # pruned mode agrees with COMPLETE under deletes
        pruned = s.search(q, 10)
        assert pruned == hits[:10] or [
            (d, np.float32(sc)) for d, sc in pruned
        ] == [(d, np.float32(sc)) for d, sc in hits[:10]], qname

    # surviving docs keep their exact scores (stats unchanged)
    for qname in before:
        after_hits = dict(
            s.search(TermQuery("def") if qname == "term"
                     else bool_query(should=[TermQuery("def"), TermQuery("import")]),
                     400, total_hits_threshold=np.inf, score_mode="COMPLETE")
        )
        for d, sc in before[qname]:
            if d not in deleted:
                assert np.float32(after_hits[d]) == np.float32(sc)


def test_delete_by_key_and_idempotence(idx):
    out, tbl = idx
    langs = sorted(set(tbl.column("lang").to_pylist()))
    man1 = delete_by_query(out, StoredFieldFilter("lang", langs[0]))
    n1 = live_doc_count(man1)
    man2 = delete_by_key(out, "lang", [langs[0]])  # re-delete: no-op
    assert live_doc_count(man2) == n1
    s = IndexSearcher(out)
    q = bool_query(must=[TermQuery("def")], filter=[StoredFieldFilter("lang", langs[0])])
    assert s.count(q) == 0


def test_merge_expunges_deletes(idx):
    out, tbl = idx
    delete_by_query(out, TermQuery("return"))
    s1 = IndexSearcher(out)
    deleted = _deleted_set(s1)
    survivors_hits = {
        d: np.float32(sc)
        for d, sc in s1.search(TermQuery("def"), 400,
                               total_hits_threshold=np.inf, score_mode="COMPLETE")
    }
    n_live = live_doc_count(s1.manifest)

    man = force_merge(out, max_segments=1)
    assert len(man["segments"]) == 1
    seg = man["segments"][0]
    assert seg["max_doc"] == n_live and "livedocs" not in seg
    s2 = IndexSearcher(out)
    # stats now EXCLUDE the expunged docs
    assert s2.collection_stats.max_doc == n_live

    # stored fields: every surviving source row present exactly once, sha
    # invariant intact under the renumbered docids
    src_sha = {
        i: hashlib.sha256(c.as_py().encode("utf-8")).hexdigest()
        for i, c in enumerate(tbl.column("content"))
        if i not in deleted
    }
    seen = {}
    for f in sorted(os.listdir(seg["docs_dir"])):
        dt = pq.read_table(os.path.join(seg["docs_dir"], f))
        for docid, sha in zip(dt.column("docid").to_pylist(), dt.column("sha256").to_pylist()):
            seen[seg["doc_base"] + docid] = sha
    assert sorted(seen) == list(range(n_live))
    assert sorted(seen.values()) == sorted(src_sha.values())

    # search after merge: same score multiset for the surviving matches
    post = s2.search(TermQuery("def"), 400, total_hits_threshold=np.inf,
                     score_mode="COMPLETE")
    # scores can shift: stats now exclude deleted docs (smaller N) — but
    # the MATCH COUNT must equal the surviving pre-merge matches
    assert len(post) == len(survivors_hits)


def test_update_documents(idx):
    out, tbl = idx
    new_rows = pa.table(
        {
            "repo": pa.array(["r_upd"]),
            "path": pa.array([tbl.column("path")[0].as_py()]),
            "commit": pa.array(["c_upd"]),
            "lang": pa.array(["xx"]),
            "content": pa.array(["zzzuniquetoken zzzuniquetoken fresh text"]),
        }
    )
    man = update_documents(out, "path", new_rows, content_column="content")
    assert man["segments"][-1]["name"].endswith("_add")
    s = IndexSearcher(out)
    hits = s.search(TermQuery("zzzuniquetoken"), 10)
    assert len(hits) == 1
    # the new doc's global id lives in the appended segment
    last = man["segments"][-1]
    assert hits[0][0] >= last["doc_base"]
    # old doc with that path no longer matches path-filtered count
    q = bool_query(must=[TermQuery("def")],
                   filter=[StoredFieldFilter("path", tbl.column("path")[0].as_py())])
    assert s.count(q) == 0


def test_add_documents_plain(idx):
    out, tbl = idx
    n0 = live_doc_count(mf.read_manifest(out))
    rows = pa.table(
        {
            "repo": pa.array(["r2"]),
            "path": pa.array(["p/new.py"]),
            "commit": pa.array(["c2"]),
            "lang": pa.array(["py"]),
            "content": pa.array(["def added_function(): return 1"]),
        }
    )
    man = add_documents(out, rows, content_column="content")
    assert live_doc_count(man) == n0 + 1
    s = IndexSearcher(out)
    assert s.count(TermQuery("added_function")) == 1


def test_distributed_searcher_masks_deletes(idx, ray_session):
    from lucene_ray.search.searcher import DistributedSearcher

    out, _tbl = idx
    delete_by_query(out, TermQuery("return"))
    local = IndexSearcher(out)
    deleted = _deleted_set(local)
    ds = DistributedSearcher(out, num_workers=2)
    for q in (TermQuery("def"),
              bool_query(should=[TermQuery("def"), TermQuery("import")])):
        hits = ds.search(q, 400, total_hits_threshold=np.inf, score_mode="COMPLETE")
        assert hits and not ({d for d, _ in hits} & deleted)
        want = local.search(q, 400, total_hits_threshold=np.inf, score_mode="COMPLETE")
        assert [(d, np.float32(s)) for d, s in hits] == [
            (d, np.float32(s)) for d, s in want
        ]


def test_segment_map_sees_live_docs(idx, tmp_path, ray_session):
    """Scatter kernels open each manifest segment at its commit: deletes
    made on a clone_for_deletes snapshot reach them as the live mask."""
    from lucene_ray.index.deletes import clone_for_deletes
    from lucene_ray.pipelines.fulltext import gather, segment_map

    out, _tbl = idx
    clone = clone_for_deletes(out, str(tmp_path / "clone"))
    delete_by_query(clone, TermQuery("return"))

    def _live(reader, doc_base):
        n = reader.max_doc if reader.live is None else int(reader.live.sum())
        return pa.table(
            {"doc_base": [doc_base], "masked": [reader.live is not None], "live": [n]}
        )

    got = gather(segment_map(clone, _live)).to_pandas().sort_values("doc_base")
    searcher = IndexSearcher(clone)
    assert got["live"].tolist() == [
        r.max_doc if r.live is None else int(r.live.sum()) for r in searcher.readers
    ]
    assert got["masked"].any()
    assert got["live"].sum() == live_doc_count(mf.read_manifest(clone)) < 300
    # the snapshot's deletes never reach the source index
    assert not gather(segment_map(out, _live)).to_pandas()["masked"].any()


def test_full_lifecycle_chain(idx, ray_session):
    """build -> delete -> natural merge -> add -> update -> delete again ->
    force merge: counts and searchability stay coherent at every step."""
    out, tbl = idx
    langs = sorted(set(tbl.column("lang").to_pylist()))

    man = delete_by_query(out, StoredFieldFilter("lang", langs[0]))
    n1 = live_doc_count(man)
    assert n1 < 300

    man = force_merge(out, max_segments=4)
    assert live_doc_count(man) == n1  # expunge preserves live count

    rows = pa.table(
        {
            "repo": pa.array(["rx"] * 3),
            "path": pa.array([f"px/{i}.py" for i in range(3)]),
            "commit": pa.array(["cx"] * 3),
            "lang": pa.array(["nl"] * 3),
            "content": pa.array([f"lifecycle token{i} shared_lifecycle" for i in range(3)]),
        }
    )
    man = add_documents(out, rows, content_column="content")
    assert live_doc_count(man) == n1 + 3
    s = IndexSearcher(out)
    assert s.count(TermQuery("shared_lifecycle")) == 3

    upd = pa.table(
        {
            "repo": pa.array(["rx"]),
            "path": pa.array(["px/1.py"]),
            "commit": pa.array(["cy"]),
            "lang": pa.array(["nl"]),
            "content": pa.array(["replaced_lifecycle only"]),
        }
    )
    man = update_documents(out, "path", upd, content_column="content")
    s = IndexSearcher(out)
    assert s.count(TermQuery("shared_lifecycle")) == 2
    assert s.count(TermQuery("replaced_lifecycle")) == 1

    man = delete_by_query(out, TermQuery("shared_lifecycle"))
    man = force_merge(out, max_segments=1)
    s = IndexSearcher(out)
    assert s.count(TermQuery("shared_lifecycle")) == 0
    assert s.count(TermQuery("replaced_lifecycle")) == 1
    assert len(man["segments"]) == 1
    assert live_doc_count(man) == s.collection_stats.max_doc


def test_add_documents_carries_term_vectors(tmp_path, ray_session):
    """add_documents on a term_vectors=True index writes the forward index
    for the new segment (ADVICE r3: a later merge would otherwise silently
    drop term vectors)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_ray.corpus import generate_corpus
    from lucene_ray.index.build import build_index_local
    from lucene_ray.index.deletes import add_documents
    from lucene_ray.index.merge import force_merge
    from lucene_ray.index.segment import SegmentReader

    src = tmp_path / "c.parquet"
    pq.write_table(generate_corpus(60, seed=5), str(src))
    idx = str(tmp_path / "idx")
    build_index_local(str(src), idx, docs_per_segment=30, term_vectors=True)
    man = add_documents(
        idx,
        pa.table({"text": ["fresh vectorful document"], "repo": ["r"]}),
        content_column="text",
        meta_columns=("repo",),
    )
    new_seg = man["segments"][-1]
    r = SegmentReader(new_seg["dir"])
    assert r.has_term_vectors
    tids, tfs = r.term_vector(0)
    terms = {r.term_string(int(t)) for t in tids}
    assert terms == {"fresh", "vectorful", "document"}
    # merge keeps the forward index (the all(has_term_vectors) gate holds)
    man2 = force_merge(idx, max_segments=1)
    rm = SegmentReader(man2["segments"][0]["dir"])
    assert rm.has_term_vectors


def _segment_files(seg_dir):
    out = {}
    for root, _dirs, files in os.walk(seg_dir):
        for f in files:
            p = os.path.join(root, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, seg_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize(
    "settings",
    [
        {"index_options": "docs_freqs"},
        {"index_options": "positions"},
        {"index_options": "offsets"},
        {"index_options": "payloads"},
        {"term_vectors": True},
        {"index_sort": ("n", "desc")},
    ],
    ids=["docs_freqs", "positions", "offsets", "payloads", "term_vectors", "index_sort"],
)
def test_append_flushes_like_bulk_build(tmp_path, monkeypatch, settings):
    """One flush path: a segment appended by add_documents is written by the
    bulk builder from the in-memory table, so it holds the same bytes as
    build_index_local over the same rows (only meta.json differs: names,
    lineage, timings), with the manifest's index options and index sort."""
    import pyarrow.compute as pc

    from lucene_ray.index import build as build_mod
    from lucene_ray.index.check import check_index

    tbl = generate_corpus(90, seed=7)
    tbl = tbl.append_column("n", pc.utf8_length(tbl.column("content")))
    meta_columns = ("repo", "path", "commit", "lang", "n")
    base_src, ref_src = tmp_path / "base.parquet", tmp_path / "ref.parquet"
    pq.write_table(tbl.slice(0, 60), str(base_src), row_group_size=30)
    pq.write_table(tbl.slice(60), str(ref_src))
    idx, ref = str(tmp_path / "idx"), str(tmp_path / "ref")
    build_index_local(str(base_src), idx, docs_per_segment=30, meta_columns=meta_columns,
                      **settings)
    ref_seg = build_index_local(str(ref_src), ref, docs_per_segment=1000,
                                meta_columns=meta_columns, **settings)["segments"][0]

    def no_parquet(*_a, **_kw):
        raise AssertionError("the append read parquet")

    monkeypatch.setattr(build_mod, "_read_fragment", no_parquet)
    man = add_documents(idx, tbl.slice(60), content_column="content")
    new_seg = man["segments"][-1]

    got, want = _segment_files(new_seg["dir"]), _segment_files(ref_seg["dir"])
    assert got.pop("meta.json") and want.pop("meta.json")
    assert got == want
    assert pq.read_table(new_seg["docs_dir"]).equals(pq.read_table(ref_seg["docs_dir"]))
    with open(os.path.join(new_seg["dir"], "meta.json")) as fh:
        meta = json.load(fh)
    assert meta["index_options"] == settings.get("index_options", "docs_freqs")
    assert meta.get("index_sort") == (list(settings["index_sort"]) if "index_sort" in settings else None)
    assert check_index(idx, use_ray=False)["ok"]


def test_delete_by_query_rewrites_satu_feature(tmp_path):
    """A delete weighs its query through IndexSearcher once per write, so a
    satu FeatureQuery(pivot=None) clause gets its pivot rewritten there."""
    import pyarrow.compute as pc

    from lucene_ray.search.query import FeatureQuery

    tbl = generate_corpus(120, seed=3)
    tbl = tbl.append_column("n_chars", pc.utf8_length(tbl.column("content")))
    pq.write_table(tbl, str(tmp_path / "c.parquet"), row_group_size=30)
    out = str(tmp_path / "idx")
    build_index_local(str(tmp_path / "c.parquet"), out, docs_per_segment=30,
                      meta_columns=("repo", "path", "n_chars"))
    n_def = IndexSearcher(out).count(TermQuery("def"))
    assert 0 < n_def < 120
    man = delete_by_query(
        out, bool_query(must=[TermQuery("def")], should=[FeatureQuery("n_chars", "satu")])
    )
    assert live_doc_count(man) == 120 - n_def
    assert IndexSearcher(out).count(TermQuery("def")) == 0


def test_writes_match_a_term_of_one_segment(idx):
    """A term that occurs in one segment only: the index-wide weight
    matches it there and nowhere else, for deletes and doc-values updates."""
    from lucene_ray.index.deletes import update_numeric_docvalue

    out, _tbl = idx
    rows = pa.table(
        {
            "repo": pa.array(["r3", "r3"]),
            "path": pa.array(["p/a.py", "p/b.py"]),
            "commit": pa.array(["c3", "c3"]),
            "lang": pa.array(["py", "py"]),
            "content": pa.array(["zzonesegment alpha", "beta"]),
        }
    )
    add_documents(out, rows, content_column="content")
    man = update_numeric_docvalue(out, TermQuery("zzonesegment"), "n", 7)
    assert [("dv_updates" in s) for s in man["segments"]] == [False] * 10 + [True]
    man = delete_by_query(out, TermQuery("zzonesegment"))
    assert [s.get("del_count", 0) for s in man["segments"]] == [0] * 10 + [1]
    assert live_doc_count(man) == 301
