"""One seed gives byte-identical inputs; two seeds give different ones."""

import os

import pytest

from perfbench import inputs

N_DOCS = 200
TERMS = [f"term{i}" for i in range(300)] + ["retry", "return", "result", "select"]


def _inputs(seed: int, out_dir: str) -> dict[str, bytes]:
    corpus = inputs.balanced_corpus(seed, N_DOCS)
    inputs.write_corpus(corpus, out_dir, 64)
    with open(os.path.join(out_dir, "part-0000.parquet"), "rb") as f:
        corpus_bytes = f.read()
    adds = inputs.nrt_adds(seed, 20)
    bodies = inputs.nrt_update_bodies(seed, 4)
    paths = corpus.column("path").to_pylist()
    return {
        "corpus": corpus_bytes,
        "queries": repr(inputs.query_texts(seed, TERMS, 500)).encode(),
        "hot": repr(inputs.hot_query_texts(seed, TERMS, 50, 200)).encode(),
        "adds": repr(adds.to_pydict()).encode(),
        "bodies": repr(bodies.to_pydict()).encode(),
        "keys": repr([inputs.update_keys(seed, r, paths, 2) for r in range(5)]).encode(),
    }


def test_same_seed_gives_identical_inputs(tmp_path):
    a = _inputs(7, str(tmp_path / "a"))
    b = _inputs(7, str(tmp_path / "b"))
    assert a == b


def test_two_seeds_give_different_inputs(tmp_path):
    a = _inputs(7, str(tmp_path / "a"))
    b = _inputs(8, str(tmp_path / "b"))
    for key in a:
        assert a[key] != b[key], key


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_balanced_corpus_has_fixed_size(seed):
    corpus = inputs.balanced_corpus(seed, N_DOCS)
    total = int(inputs.content_bytes(corpus).sum())
    assert len(corpus) == N_DOCS
    assert abs(total - N_DOCS * inputs.DOC_BYTES) <= N_DOCS * inputs.DOC_BYTES * inputs.BALANCE_TOLERANCE
    assert int(inputs.content_bytes(corpus).max()) <= inputs.MAX_DOC_BYTES
    assert len(set(corpus.column("path").to_pylist())) == N_DOCS


def test_query_mix_and_prefix_repeats():
    texts = inputs.query_texts(3, TERMS, 4000)
    kinds = [k for k, _ in texts]
    for kind, share in inputs.QUERY_MIX.items():
        assert abs(kinds.count(kind) / len(texts) - share) < 0.03, kind
    prefixes = {t for k, t in texts if k == "prefix"}
    assert len(prefixes) <= inputs.PREFIX_SOURCES
    assert all(t.endswith("*") for t in prefixes)
