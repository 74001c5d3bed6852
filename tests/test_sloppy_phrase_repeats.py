"""Sloppy phrases with a repeated term: the tuple-semantics contract.

``multiterm.sloppy_phrase_matches_segment`` counts position tuples
(p_0..p_{k-1}), p_i from term i's position list, whose shifted positions
p_i - i span at most ``slop``.  A repeated term draws from the same
position list in each of its slots, so p_i == p_j is admitted — a
documented deviation from the reference's SloppyPhraseMatcher, which
forces repeat occurrences onto distinct positions.  These tests pin that
contract against an itertools brute force over the raw token lists.
"""

from __future__ import annotations

import itertools

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index.build import build_index_local
from lucene_ray.search.multiterm import sloppy_phrase_matches_segment
from lucene_ray.search.searcher import IndexSearcher

WORDS = ("red", "green", "blue")
PHRASES = [
    ("red", "green", "red"),
    ("red", "red", "green"),
    ("green", "red", "red"),
    ("blue", "blue", "blue"),
]


def _texts():
    rng = np.random.default_rng(3)
    texts = [" ".join(rng.choice(WORDS, size=int(rng.integers(1, 9))).tolist()) for _ in range(57)]
    # one "red" beside one "green": a repeat-term phrase matches it only
    # because both "red" slots may take the same position
    return texts + ["red green", "green red", "blue"]


@pytest.fixture(scope="module")
def repeat_index(tmp_path_factory):
    root = tmp_path_factory.mktemp("sloppy_repeats")
    texts = _texts()
    src = str(root / "c.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": pa.array(texts)}),
        src,
        row_group_size=20,
    )
    out = str(root / "idx")
    build_index_local(src, out, docs_per_segment=20, content_column="text",
                      meta_columns=("doc_id",), index_options="positions")
    return out


def _brute(texts, terms, slop):
    """{doc: number of tuples with max(p_i - i) - min(p_i - i) <= slop},
    each slot drawing from its term's whole position list."""
    out = {}
    for d, text in enumerate(texts):
        toks = text.split()
        lists = [[p - i for p, w in enumerate(toks) if w == t] for i, t in enumerate(terms)]
        n = sum(1 for tup in itertools.product(*lists) if max(tup) - min(tup) <= slop)
        if n:
            out[d] = n
    return out


def _engine(index, terms, slop):
    s = IndexSearcher(index)
    out = {}
    for reader, base in zip(s.readers, s.doc_bases):
        docs, freqs = sloppy_phrase_matches_segment(reader, terms, slop)
        out.update({int(d) + base: int(f) for d, f in zip(docs, freqs)})
    return out


@pytest.mark.parametrize("slop", range(4))
@pytest.mark.parametrize("terms", PHRASES, ids="-".join)
def test_repeat_term_tuple_count_matches_brute_force(repeat_index, terms, slop):
    assert _engine(repeat_index, terms, slop) == _brute(_texts(), terms, slop)


def test_repeat_slots_may_share_a_position(repeat_index):
    """"red green" holds one "red", yet ("red", "green", "red") matches it
    at slop 2: both "red" slots take position 0 (shifted 0 and -2)."""
    texts = _texts()
    doc = texts.index("red green")
    assert _engine(repeat_index, ("red", "green", "red"), 1).get(doc) is None
    assert _engine(repeat_index, ("red", "green", "red"), 2)[doc] == 1
