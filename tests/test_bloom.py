"""Bloom-filtered term dictionary (BloomFilteringPostingsFormat +
FuzzySet analogue): never false-negative, low fpp, lookup short-circuit,
CheckIndex invariant, scalar/vectorized hash identity."""

import os

import numpy as np
import pyarrow.parquet as pq

from lucene_ray.index import bloom
from lucene_ray.index.check import check_index
from lucene_ray.index.segment import SegmentReader
from lucene_ray.search.query import TermQuery
from lucene_ray.search.searcher import IndexSearcher

SF = "/root/testdata/sf0.001"


def _build(tmp_path):
    from lucene_ray.index.build import build_index

    src = str(tmp_path / "docs.parquet")
    pq.write_table(pq.read_table(os.path.join(SF, "documents.parquet")), src,
                   row_group_size=200)
    idx = str(tmp_path / "idx")
    build_index(src, idx, content_column="text",
                meta_columns=("doc_id", "lang", "source", "n_chars"),
                docs_per_segment=200)
    return idx


def _seg_dirs(idx):
    return [
        os.path.join(idx, d) for d in sorted(os.listdir(idx))
        if d.startswith("seg_")
    ]


def _dict(keys):
    offs = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum([len(k) for k in keys], out=offs[1:])
    return offs, np.frombuffer(b"".join(keys), dtype=np.uint8)


def _reference_build(keys):
    """Brute-force scalar bitset: one _hash2 and k single-bit sets per key."""
    m = bloom._n_bits(len(keys))
    words = [0] * (m // 64)
    for k in keys:
        h1, h2 = bloom._hash2(k)
        for j in range(bloom.BLOOM_K):
            b = (h1 + j * h2) % (1 << 64) & (m - 1)
            words[b >> 6] |= 1 << (b & 63)
    return np.array(words, dtype=np.uint64)


def _assert_hash_identity(offs, data, keys):
    h1, h2 = bloom.hash_dict(offs, data)
    assert [(int(a), int(b)) for a, b in zip(h1, h2)] == [
        bloom._hash2(k) for k in keys
    ]


def test_bloom_kernel_properties():
    keys = [f"term{i:05d}".encode() for i in range(5000)]
    words = bloom.build_bloom_from_dict(*_dict(keys))
    # power-of-two sizing at ~10 bits/key
    assert (len(words) * 64) & (len(words) * 64 - 1) == 0
    # never false-negative
    assert all(bloom.contains(words, k) for k in keys)
    # fpp on absent keys stays near the k=7 / 10-bits design point (~1%)
    absent = [f"absent{i:05d}".encode() for i in range(5000)]
    fp = sum(bloom.contains(words, k) for k in absent)
    assert fp / len(absent) < 0.03


def test_hash_identity_edge_cases():
    keys = [
        b"", b"a", b"a\x00", b"\x00", b"\x00\x00",
        b"abcdefg", b"abcdefgh", b"abcdefghi",
        b"0123456789abcdef", b"0123456789abcdefg",
        "straße".encode(), "日本語のテキスト".encode(), "émoji🙂".encode(),
    ]
    offs, data = _dict(keys)
    _assert_hash_identity(offs, data, keys)
    # length seeding keeps a zero-padded word apart from its shorter key
    assert bloom._hash2(b"a") != bloom._hash2(b"a\x00")
    assert bloom._hash2(b"") != bloom._hash2(b"\x00")
    assert all(h2 & 1 for _, h2 in map(bloom._hash2, keys))
    # a dictionary whose offsets do not start at 0 (a sliced Arrow array)
    pad = np.full(5, 0xFF, np.uint8)
    _assert_hash_identity(offs[3:] - offs[3] + 5, np.concatenate([pad, data[offs[3]:]]), keys[3:])
    np.testing.assert_array_equal(
        bloom.build_bloom_from_dict(offs, data), _reference_build(keys)
    )
    # the empty dictionary builds the minimum-size, all-zero bitset
    empty = bloom.build_bloom_from_dict(np.zeros(1, np.int64), np.empty(0, np.uint8))
    assert len(empty) * 64 == 1024 and not empty.any()


def test_bloom_rides_the_segment(tmp_path, ray_session):
    idx = _build(tmp_path)
    seg_dirs = _seg_dirs(idx)
    assert seg_dirs
    for d in seg_dirs:
        assert os.path.exists(os.path.join(d, bloom.FILE))
    r = SegmentReader(seg_dirs[0])
    keys = [r._term_at(i) for i in range(r.n_terms)]
    # the scalar probe hash equals the vectorized build hash on every term,
    # and the stored bitset equals a brute-force scalar build
    _assert_hash_identity(r.term_offsets, r.term_bytes, keys)
    np.testing.assert_array_equal(np.asarray(r._bloom()), _reference_build(keys))
    # every dictionary term passes; an absent term short-circuits
    assert all(bloom.contains(r._bloom(), k) for k in keys)
    assert r.term_id("qqqqzzzz-not-a-token") is None
    assert getattr(r, "bloom_skips", 0) >= 1
    # search results are unaffected
    s = IndexSearcher(idx)
    assert s.count(TermQuery("spark")) > 0
    assert s.count(TermQuery("qqqqzzzz-not-a-token")) == 0
    check_index(idx)


def test_pre_bloom_segment_falls_through(tmp_path, ray_session):
    idx = _build(tmp_path)
    seg = _seg_dirs(idx)[0]
    os.remove(os.path.join(seg, bloom.FILE))
    r = SegmentReader(seg)
    assert r._bloom() is None
    assert r.term_id("spark") is not None
    check_index(idx)


def test_old_format_bitset_is_never_probed(tmp_path, ray_session):
    """A segment written with the earlier hash carries ``bloom.npy``; an
    all-zero one there would reject every term if it were probed."""
    idx = _build(tmp_path)
    seg = _seg_dirs(idx)[0]
    n_words = len(np.load(os.path.join(seg, bloom.FILE)))
    os.remove(os.path.join(seg, bloom.FILE))
    np.save(os.path.join(seg, "bloom.npy"), np.zeros(n_words, np.uint64))
    r = SegmentReader(seg)
    assert r._bloom() is None
    for i in range(r.n_terms):
        assert r.term_id(r._term_at(i).decode("utf-8")) == i
    check_index(idx)


def test_check_index_flags_a_flipped_bloom_bit(tmp_path, ray_session):
    idx = _build(tmp_path)
    seg = _seg_dirs(idx)[-1]
    path = os.path.join(seg, bloom.FILE)
    words = np.load(path)
    # clear one set bit: the probe could now false-negative
    b = int(np.flatnonzero(np.unpackbits(words.view(np.uint8), bitorder="little"))[0])
    words[b >> 6] ^= np.uint64(1) << np.uint64(b & 63)
    np.save(path, words)
    rep = check_index(idx, raise_on_error=False)
    assert not rep["ok"]
    name = SegmentReader(seg).meta.get("name", seg)
    assert any(e.startswith(f"{name}: bloom") for e in rep["errors"])
