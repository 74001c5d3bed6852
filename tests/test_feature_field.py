"""FeatureField analogue (reference core/document/FeatureField.java):
encode/decode quantization, the four FeatureFunctions, the satu
computed-pivot rewrite, and pruned==COMPLETE rank identity."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from lucene_ray.search.query import (
    FeatureQuery,
    TermQuery,
    bool_query,
    decode_feature_value,
    encode_feature_value,
)

SF_DIR = "/root/testdata/sf0.001"


def _java_encode(v: float) -> int:
    # floatToIntBits(v) >>> 15, via struct — the reference's exact bit op
    return struct.unpack("<i", struct.pack("<f", np.float32(v)))[0] >> 15


def _java_decode(tf: int) -> float:
    return struct.unpack("<f", struct.pack("<i", tf << 15))[0]


def test_encode_matches_java_bits():
    vals = [1.0, 2.0, 3.5, 100.0, 511.0, 513.0, 12345.0, 0.25, 1e6]
    enc = encode_feature_value(np.array(vals))
    assert [int(x) for x in enc] == [_java_encode(v) for v in vals]
    dec = decode_feature_value(enc)
    assert [float(x) for x in dec] == [_java_decode(_java_encode(v)) for v in vals]


def test_quantization_properties():
    v = np.arange(1, 5000, dtype=np.float64)
    dec = decode_feature_value(encode_feature_value(v)).astype(np.float64)
    # truncating mantissa bits can only round DOWN, never up
    assert (dec <= v).all()
    # monotone non-decreasing in the input
    assert (np.diff(dec) >= 0).all()
    # integers below 2^9 survive exactly (9 significant mantissa bits)
    assert np.array_equal(dec[:511], v[:511])
    # above 2^9 the quantization genuinely bites somewhere
    assert (dec[512:] < v[512:]).any()


def test_feature_functions_and_pivot_rewrite(ray_session):
    from lucene_ray.pipelines.fulltext import ensure_index
    from lucene_ray.search.searcher import DistributedSearcher, IndexSearcher

    idx = ensure_index(SF_DIR)
    s = IndexSearcher(idx)

    # satu pivot=None rewrites to computePivotFeatureValue
    piv = s.compute_feature_pivot("n_chars")
    assert piv > 0
    q = bool_query(
        must=[TermQuery("spark")],
        should=[FeatureQuery("n_chars", "satu", weight=2.0)],
    )
    explicit = bool_query(
        must=[TermQuery("spark")],
        should=[FeatureQuery("n_chars", "satu", weight=2.0, pivot=piv)],
    )
    want = s.search(q, 10)
    assert len(want) == 10 and want == s.search(explicit, 10)
    # one rewrite point: the time-limited search, count and the Ray
    # service answer the pivot=None query like search
    assert s.search_with_time_limit(q, 10, timeout=10**9) == (want, False, len(s.readers))
    complete = s.search(q, 10_000, total_hits_threshold=np.inf, score_mode="COMPLETE")
    assert s.count(q) == len(complete)
    for n in (1, 2, 3):
        got = DistributedSearcher(idx, num_workers=n).search(q, 10)
        assert [(d, np.float32(x)) for d, x in got] == [(d, np.float32(x)) for d, x in want]

    # pruned == COMPLETE for every function arm
    for fn, kw in [
        ("linear", dict(weight=0.5)),
        ("log", dict(weight=1.5, a=2.0)),
        ("satu", dict(weight=2.0, pivot=None)),
        ("sigm", dict(weight=2.0, a=2.0, pivot=256.0)),
    ]:
        fq = FeatureQuery("n_chars", fn, **kw)
        bq = bool_query(must=[TermQuery("join")], should=[fq])
        top = s.search(bq, 10)
        complete = s.search(bq, 10, total_hits_threshold=np.inf, score_mode="COMPLETE")
        assert [(d, float(sc)) for d, sc in top] == [
            (d, float(sc)) for d, sc in complete
        ], fn

    # linear scores are exactly w * decoded(quantized(v)) + BM25
    fq = FeatureQuery("n_chars", "linear", weight=0.5)
    hits_feat = s.search(bool_query(must=[TermQuery("join")], should=[fq]), 5)
    hits_text = dict(s.search(TermQuery("join"), 10_000, score_mode="COMPLETE",
                              total_hits_threshold=np.inf))
    r = s.readers[0]
    n_chars = r.stored_column("n_chars").to_numpy(zero_copy_only=False)
    for doc, score in hits_feat:
        f = float(decode_feature_value(encode_feature_value(
            np.array([n_chars[doc]], dtype=np.float64)))[0])
        expect = np.float64(hits_text[doc]) + np.float64(np.float32(0.5) * np.float32(f))
        assert float(score) == pytest.approx(float(expect), rel=1e-6)


def test_feature_query_ignores_nonpositive(ray_session):
    """Docs with feature value <= 0 carry no feature term: a pure
    FeatureQuery must not match them."""
    from lucene_ray.pipelines.fulltext import ensure_index
    from lucene_ray.search.searcher import IndexSearcher

    idx = ensure_index(SF_DIR)
    s = IndexSearcher(idx)
    hits = s.search(FeatureQuery("n_chars", "linear", weight=1.0), 10_000,
                    score_mode="COMPLETE", total_hits_threshold=np.inf)
    r = s.readers[0]
    n_chars = r.stored_column("n_chars").to_numpy(zero_copy_only=False)
    matched = {d for d, _ in hits}
    for doc in range(min(len(n_chars), 200)):
        assert (doc in matched) == (n_chars[doc] > 0)
