"""Seeded inputs for the workloads.

Everything a workload feeds the engine comes from here and depends only
on the seed: the code corpus (``lucene_ray.corpus``), the query texts and
the NRT write batches.  The engine sees only these generated inputs.

Three choices keep one seed's run comparable with another's:

- The generator's own seed is fixed (``CORPUS_SEED``): it fixes the
  vocabulary, the "language" of the corpus.  The run seed picks which
  rows of that infinite corpus a run uses (a disjoint row range per
  seed), so seeds differ in documents, not in word lengths or vocabulary
  size, which would otherwise move index size and throughput by seed.
- Docs above ``MAX_DOC_BYTES`` are dropped.  The generator plants a
  200k-token (~1.4 MB) outlier in about one doc in 2000; one such doc
  is over half the text of a 1000-doc corpus, so it would swing
  throughput by seed.
- ``balanced_corpus`` picks docs so the corpus holds the same number of
  docs *and* the same number of content bytes for every seed.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from lucene_ray.corpus import generate_corpus_slice

MAX_DOC_BYTES = 96 * 1024
DOC_BYTES = 2400  # mean content bytes per doc of a balanced corpus
BALANCE_TOLERANCE = 0.005

# query mix of the ``query`` workload (kind -> share)
QUERY_MIX = {"term": 0.50, "or": 0.30, "and": 0.12, "mixed": 0.05, "prefix": 0.03}
ZIPF_S = 1.0
ZIPF_RANKS = 5000  # dictionary ranks (by doc freq) the query terms come from
PREFIX_SOURCES = 12  # distinct prefixes, so prefix queries repeat

CORPUS_SEED = 42
SEED_STRIDE = 10_000_000  # rows of the corpus reserved per run seed
# row ranges within a seed's stride, kept apart per use
_NRT_ADD_START = 1_000_000
_NRT_UPDATE_START = 2_000_000


def content_bytes(tbl: pa.Table) -> np.ndarray:
    return pc.binary_length(tbl.column("content")).to_numpy().astype(np.int64)


def doc_pool(seed: int, start: int, count: int) -> pa.Table:
    """Rows [start, start+count) of the run seed's range of the corpus,
    outliers dropped."""
    base = (seed % 100_000) * SEED_STRIDE
    tbl = generate_corpus_slice(base + start, count, CORPUS_SEED)
    return tbl.filter(pa.array(content_bytes(tbl) <= MAX_DOC_BYTES))


def balanced_corpus(seed: int, n_docs: int) -> pa.Table:
    """``n_docs`` docs of the seed's corpus holding ``n_docs * DOC_BYTES``
    content bytes (within ``BALANCE_TOLERANCE``), in corpus order.

    Starts from the first ``n_docs`` docs of a 25% larger pool and, while
    the total is off, makes the one swap of a chosen for an unchosen doc
    that brings it closest to the target.
    """
    pool = doc_pool(seed, 0, n_docs * 5 // 4)
    if len(pool) < n_docs:
        raise ValueError(f"pool of {len(pool)} docs is smaller than {n_docs}")
    lens = content_bytes(pool)
    chosen = np.zeros(len(pool), dtype=bool)
    chosen[:n_docs] = True
    target = n_docs * DOC_BYTES
    diff = int(lens[chosen].sum()) - target
    while abs(diff) > target * BALANCE_TOLERANCE:
        ins = np.flatnonzero(chosen)
        outs = np.flatnonzero(~chosen)
        order = np.argsort(lens[outs], kind="stable")
        out_lens = lens[outs][order]
        # for each chosen doc, the unchosen length that would close the gap
        want = lens[ins] - diff
        pos = np.clip(np.searchsorted(out_lens, want), 1, len(out_lens) - 1)
        below = np.abs(out_lens[pos - 1] - want) <= np.abs(out_lens[pos] - want)
        cand = np.where(below, pos - 1, pos)
        err = np.abs(out_lens[cand] - want)
        k = int(np.argmin(err))
        if err[k] >= abs(diff):
            raise ValueError(f"cannot balance corpus for seed {seed}: {diff} bytes off")
        i, j = ins[k], outs[order[cand[k]]]
        chosen[i], chosen[j] = False, True
        diff += int(lens[j] - lens[i])
    return pool.filter(pa.array(chosen))


def write_corpus(tbl: pa.Table, corpus_dir: str, row_group_size: int) -> str:
    """One parquet file whose row groups are the build's flush units."""
    os.makedirs(corpus_dir, exist_ok=True)
    pq.write_table(tbl, os.path.join(corpus_dir, "part-0000.parquet"), row_group_size=row_group_size)
    return corpus_dir


def _query_terms(terms_by_df: list[str]) -> list[str]:
    """Dictionary terms the query syntax carries verbatim: ASCII letters,
    digits and ``_`` (no operators, no CJK), highest doc freq first."""
    return [t for t in terms_by_df if t.isascii() and t.replace("_", "a").isalnum()]


def query_texts(seed: int, terms_by_df: list[str], n: int) -> list[tuple[str, str]]:
    """``n`` (kind, query text) pairs in the ``QUERY_MIX`` shares.

    Terms are drawn Zipf-weighted by doc-freq rank from the index's own
    dictionary (``terms_by_df``: most frequent first).  Prefix queries use
    a small fixed set of 3-letter prefixes, so they repeat.
    """
    terms = _query_terms(terms_by_df)[:ZIPF_RANKS]
    rng = np.random.default_rng((seed, 1))
    cdf = np.cumsum(1.0 / np.arange(1, len(terms) + 1) ** ZIPF_S)
    cdf /= cdf[-1]
    long_terms = [t for t in terms if len(t) >= 4]
    prefixes = sorted({t[:3] for t in long_terms[: PREFIX_SOURCES * 4]})[:PREFIX_SOURCES]
    kinds = list(QUERY_MIX)
    picks = rng.choice(len(kinds), size=n, p=list(QUERY_MIX.values()))

    def draw(k: int) -> list[str]:
        out: list[str] = []
        while len(out) < k:
            t = terms[min(int(np.searchsorted(cdf, rng.random())), len(terms) - 1)]
            if t not in out:
                out.append(t)
        return out

    out = []
    for p in picks:
        kind = kinds[p]
        if kind == "term":
            text = draw(1)[0]
        elif kind == "or":
            text = " ".join(draw(int(rng.integers(2, 5))))
        elif kind == "and":
            a, b = draw(2)
            text = f"+{a} +{b}"
        elif kind == "mixed":
            a, b, c = draw(3)
            text = f"+{a} {b} {c}"
        else:
            text = prefixes[int(rng.integers(len(prefixes)))] + "*"
        out.append((kind, text))
    return out


def hot_query_texts(seed: int, terms_by_df: list[str], n_terms: int, n: int) -> list[str]:
    """``n`` single-term and 2-3-term OR texts over the ``n_terms`` most
    frequent dictionary terms (a working set that fits the caches)."""
    terms = _query_terms(terms_by_df)[:n_terms]
    rng = np.random.default_rng((seed, 3))
    out = []
    for _ in range(n):
        k = 1 if rng.random() < 0.6 else int(rng.integers(2, 4))
        out.append(" ".join(rng.choice(terms, size=k, replace=False).tolist()))
    return out


def nrt_adds(seed: int, n: int) -> pa.Table:
    """New docs for the NRT rounds, consumed in order."""
    return doc_pool(seed, _NRT_ADD_START, n * 5 // 4 + 8)


def nrt_update_bodies(seed: int, n: int) -> pa.Table:
    """New versions for updated docs; their ``path`` is replaced by the
    key being updated."""
    return doc_pool(seed, _NRT_UPDATE_START, n * 5 // 4 + 8)


def update_keys(seed: int, round_no: int, live_paths: list[str], k: int) -> list[str]:
    rng = np.random.default_rng((seed, 2, round_no))
    return [live_paths[i] for i in rng.choice(len(live_paths), size=k, replace=False)]
