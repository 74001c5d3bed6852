"""The on-disk segment layout: the term and block columns live in one file
(``segment.COLUMNS_FILE``), only what no other column determines is
stored, each column at its narrowest unsigned width, and the reader
rebuilds exactly the ``EncodedPostings`` that ``encode_postings``
returned (values and dtypes), for flushed and merged segments alike."""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index import manifest as mf
from lucene_ray.index import postings as codec
from lucene_ray.index import segment as sg
from lucene_ray.index.build import build_index_local
from lucene_ray.index.check import CheckIndexError, check_segment
from lucene_ray.index.merge import merge_segments_task
from lucene_ray.smallfloat import int_to_byte4

WORDS = (
    "spark join merge window scan alpha beta gamma delta epsilon red green "
    "blue cyan magenta sort index query term doc"
).split()


def _corpus(n_docs: int, seed: int = 11) -> pa.Table:
    rng = np.random.default_rng(seed)
    texts = []
    for i in range(n_docs):
        words = rng.choice(WORDS, size=int(rng.integers(3, 30))).tolist()
        words.append(f"only{i}")  # one singleton term per doc
        texts.append(" ".join(words))
    return pa.table({"doc_id": pa.array(range(n_docs), pa.int64()), "text": pa.array(texts)})


def _capture_encodes(monkeypatch) -> list:
    """Record every EncodedPostings that ``encode_postings`` returns."""
    seen = []
    real = codec.encode_postings

    def spy(*args, **kwargs):
        enc = real(*args, **kwargs)
        seen.append(enc)
        return enc

    monkeypatch.setattr(codec, "encode_postings", spy)
    return seen


def _assert_same_postings(got: codec.EncodedPostings, want: codec.EncodedPostings):
    for name in codec.EncodedPostings.__dataclass_fields__:
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert a.dtype == b.dtype, (name, a.dtype, b.dtype)
        np.testing.assert_array_equal(a, b, err_msg=name)


SHAPES = [
    {"index_options": "docs_freqs"},
    {"index_options": "positions"},
    {"index_options": "offsets"},
    {"index_options": "payloads"},
]


@pytest.mark.parametrize("term_vectors", [False, True], ids=["no_tv", "tv"])
@pytest.mark.parametrize("settings", SHAPES, ids=[s["index_options"] for s in SHAPES])
def test_round_trip_flushed_and_merged(tmp_path, monkeypatch, settings, term_vectors):
    # 600 docs: the common words get > 256 postings (several blocks each)
    tbl = _corpus(600)
    src = str(tmp_path / "c.parquet")
    pq.write_table(tbl, src, row_group_size=200)
    seen = _capture_encodes(monkeypatch)

    one = str(tmp_path / "one")
    build_index_local(src, one, docs_per_segment=1000, content_column="text",
                      meta_columns=("doc_id",), term_vectors=term_vectors, **settings)
    (seg,) = mf.read_manifest(one)["segments"]
    assert len(seen) == 1
    r = sg.SegmentReader(seg["dir"])
    _assert_same_postings(r.enc, seen[0])
    assert r.enc.block_count.max() > 1 and (r.enc.doc_freq == 1).any()

    three = str(tmp_path / "three")
    build_index_local(src, three, docs_per_segment=200, content_column="text",
                      meta_columns=("doc_id",), term_vectors=term_vectors, **settings)
    entries = mf.read_manifest(three)["segments"]
    assert len(entries) == 3
    seen.clear()
    merge_segments_task(entries, str(tmp_path), "merged", section_postings=10**9)
    assert len(seen) == 1  # one section: the whole merged run
    m = sg.SegmentReader(str(tmp_path / "merged"))
    _assert_same_postings(m.enc, seen[0])
    # merged and one-segment build agree on every postings array too
    _assert_same_postings(m.enc, r.enc)

    # no per-array files besides the packed postings; no stored row starts
    files = set(os.listdir(seg["dir"]))
    per_array = {f"{n}.npy" for n in codec.EncodedPostings.__dataclass_fields__}
    assert files & per_array == {"packed_docs.npy", "packed_freqs.npy"}
    assert "pos_row_start.npy" not in files
    if r.has_positions:
        want_rs = np.concatenate(([0], np.cumsum(r.enc.doc_freq, dtype=np.int64)))
        np.testing.assert_array_equal(r.pos_row_start, want_rs)
        assert r.pos_row_start.dtype == np.int64
        assert r.pos_row_start[-1] == len(r.pos_off) - 1
    assert check_segment(seg["dir"])["errors"] == []
    assert check_segment(str(tmp_path / "merged"))["errors"] == []


def _write(tmp_path, name, rows: list[tuple[str, int, int]], max_doc: int) -> str:
    """One segment from (term, docid, tf) rows through build_segment_from_ids."""
    terms = sorted({t for t, _, _ in rows}, key=lambda t: t.encode())
    tid = {t: i for i, t in enumerate(terms)}
    ids = np.array([tid[t] for t, _, _ in rows], dtype=np.int64)
    docs = np.array([d for _, d, _ in rows], dtype=np.int64)
    tfs = np.array([f for _, _, f in rows], dtype=np.int64)
    lengths = np.bincount(docs, weights=tfs, minlength=max_doc).astype(np.int64)
    norms = np.array([int_to_byte4(int(n)) for n in lengths], dtype=np.uint8)
    seg_dir = str(tmp_path / name)
    sg.build_segment_from_ids(
        pa.array(terms, pa.large_string()), ids, docs, tfs, norms, None, seg_dir,
        {"name": name, "max_doc": max_doc, "doc_base": 0},
    )
    return seg_dir


def _assert_round_trip(seg_dir, rows):
    r = sg.SegmentReader(seg_dir)
    # the reader's arrays equal a fresh encode of the same rows
    terms = r.terms_array().to_pylist()
    tid = {t: i for i, t in enumerate(terms)}
    rows = sorted(rows, key=lambda x: (x[0].encode(), x[1]))
    ids = np.array([tid[t] for t, _, _ in rows], dtype=np.int64)
    docs = np.array([d for _, d, _ in rows], dtype=np.int64)
    tfs = np.array([f for _, _, f in rows], dtype=np.int64)
    want = codec.encode_postings(ids, docs, tfs, np.asarray(r.norms), len(terms))
    _assert_same_postings(r.enc, want)
    for i in tid.values():
        d, f = r.decode_term_cached(i)
        np.testing.assert_array_equal(d, docs[ids == i])
        np.testing.assert_array_equal(f, tfs[ids == i])
    assert check_segment(seg_dir)["errors"] == []
    return r


def test_zero_term_segment(tmp_path):
    seg = _write(tmp_path, "empty", [], max_doc=3)
    r = _assert_round_trip(seg, [])
    assert r.n_terms == 0 and len(r.enc.block_len) == 0
    assert r.term_id("anything") is None
    assert r.meta["metrics"]["bytes_by_part"]["postings"] > 0  # two .npy headers


def test_all_singleton_segment(tmp_path):
    rows = [(f"t{i:03d}", i % 7, 1 + i % 3) for i in range(50)]
    seg = _write(tmp_path, "single", rows, max_doc=7)
    r = _assert_round_trip(seg, rows)
    assert (r.enc.doc_freq == 1).all() and len(r.enc.block_len) == 0
    assert len(sg.read_columns(seg)["singleton_doc"]) == 50


def test_long_posting_list_and_long_term(tmp_path):
    rng = np.random.default_rng(3)
    long_term = "x" * 300  # > 255 bytes: term lengths need 16 bits
    # 700 docs: blocks of 256 + 256 + 188; a few freq outliers force PFoR
    # exceptions
    rows = [("common", d, int(1 + (d % 100 == 0) * rng.integers(1000, 3000))) for d in range(700)]
    rows += [(long_term, 3, 2), ("rare", 5, 1), ("pair", 1, 1), ("pair", 699, 4)]
    seg = _write(tmp_path, "long", rows, max_doc=700)
    r = _assert_round_trip(seg, rows)
    cols = sg.read_columns(seg)
    assert cols["term_len"].dtype == np.dtype("<u2")
    assert cols["doc_freq"].dtype == np.dtype("<u2")  # 700 > 255
    assert cols["block_last_doc"].dtype == np.dtype("<u2")
    assert cols["block_doc_bits"].dtype == np.dtype("u1")
    common = r.term_id("common")
    assert r.enc.block_count[common] == 3
    assert r.enc.block_len.tolist()[:3] == [256, 256, 188]
    assert r.enc.block_exc_count.sum() > 0
    assert r.term_string(r.term_id(long_term)) == long_term


def test_column_dtype_follows_values(tmp_path):
    """Flush and merge pick the same dtype for the same rows because the
    writer narrows each column from its final values only."""
    cols = {"a": np.array([0, 255], np.int64), "b": np.array([256], np.int32),
            "c": np.array([], np.int64), "d": np.array([2**40], np.uint64)}
    sg.write_columns(str(tmp_path), cols)
    back = sg.read_columns(str(tmp_path))
    assert {k: v.dtype.str for k, v in back.items()} == {"a": "|u1", "b": "<u2", "c": "|u1", "d": "<u8"}
    for k in cols:
        np.testing.assert_array_equal(back[k], cols[k])
    with pytest.raises(ValueError):
        sg.write_columns(str(tmp_path), {"neg": np.array([-1])})


def test_old_layout_fails_at_open(tmp_path):
    rows = [("a", 0, 1), ("b", 0, 2), ("b", 1, 1)]
    seg = _write(tmp_path, "old", rows, max_doc=2)
    os.remove(os.path.join(seg, sg.COLUMNS_FILE))
    np.save(os.path.join(seg, "doc_freq.npy"), np.array([1, 2], np.int32))
    with pytest.raises(FileNotFoundError, match="older layout"):
        sg.SegmentReader(seg)


def test_bytes_by_part_accounts_for_every_segment_file(tmp_path):
    rows = [(w, d, 1 + (d + i) % 3) for i, w in enumerate(WORDS) for d in range(0, 40, 1 + i % 5)]
    seg = _write(tmp_path, "parts", rows, max_doc=40)
    with open(os.path.join(seg, "meta.json")) as f:
        parts = json.load(f)["metrics"]["bytes_by_part"]
    on_disk = sum(os.path.getsize(os.path.join(seg, f)) for f in os.listdir(seg) if f != "meta.json")
    assert sum(parts.values()) == on_disk
    assert parts["dictionary"] > 0 and parts["term_meta"] > 0 and parts["postings"] > 0
    assert parts["norms"] == os.path.getsize(os.path.join(seg, "norms.npy"))


def _corrupt(seg, **changes):
    cols = {k: v.copy() for k, v in sg.read_columns(seg).items()}
    for k, fn in changes.items():
        cols[k] = fn(cols[k])
    sg.write_columns(seg, cols)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"singleton_doc": lambda a: a[:-1]}, "singleton_doc has"),
        ({"block_doc_bits": lambda a: a[:-1]}, "not n_blocks"),
        ({"total_term_freq": lambda a: a[:-1]}, "not n_terms"),
        ({"exc_high": lambda a: np.append(a, 1)}, "pool exc_high"),
        ({"term_len": lambda a: a + 1}, "dictionary bytes"),
        ({"block_doc_bits": lambda a: a + 1}, "packed buffer"),
    ],
    ids=["singletons", "block_col", "term_col", "pool", "dictionary", "packed_end"],
)
def test_check_index_catches_layout_corruption(tmp_path, change, message):
    rows = [("common", d, int(1 + (d % 50 == 0) * 300)) for d in range(300)]
    rows += [(f"s{i}", i, 1) for i in range(20)]
    seg = _write(tmp_path, "seg", rows, max_doc=300)
    assert check_segment(seg)["errors"] == []
    assert sg.read_columns(seg)["exc_high"].size > 0
    bad = str(tmp_path / "bad")
    shutil.copytree(seg, bad)
    _corrupt(bad, **change)
    with pytest.raises(CheckIndexError, match=message):
        check_segment(bad)
    rep = check_segment(bad, raise_on_error=False)
    assert any(message in e for e in rep["errors"])
