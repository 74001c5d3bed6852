"""Bigram language-model quality scoring — the CCNet-style LM filter
stage of a training-data pipeline (Wenzek et al. 2020, "CCNet: Extracting
High Quality Monolingual Datasets from Web Crawl Data", scores documents
with an n-gram LM and buckets by perplexity; Lee et al. 2021 and Gopher
both gate on similar LM signals).

This implementation trains the LM distributedly on the corpus itself and
scores every document under it, all in Ray Data:

1. TRAIN — per-batch vectorized bigram partial counts (polars) ->
   ONE ``groupby(w1, w2).sum`` (the bigram table is corpus-vocab bounded,
   far smaller than the corpus; this is the only big exchange).
2. BROADCAST the small side — unigram counts are vocab-bounded, so they
   ship once via ``ray.put`` and every scoring task reads the dict
   (broadcast-join the small side, shuffle-join the big side).
3. SCORE — doc-bigram rows co-group with the count table by bigram key
   (a schema-matched union + ``groupby(w1, w2).map_groups``: the
   shuffle-join shape Ray Data expresses without a join operator), each
   group emits per-doc integer contribution partials.
4. REDUCE — ``groupby(doc_id).sum`` assembles per-doc totals.

Scores are EXACT integers: each bigram's add-one log-probability
``ln((c12 + 1) / (c1 + V))`` is computed in double, cast to float32, and
quantized onto the 2^-40 dyadic grid (the repo's order-independent
summation discipline) — so combine order can never perturb a result and
the DuckDB oracle reproduces the sums bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa

from .util import TOKEN_PATTERN

LM_SCALE = float(1 << 40)

# training-mix LM gate: keep docs whose AVERAGE per-bigram logprob is at
# least -3.4 (in 2^-40 grid units) — an integer-exact comparison
# lm_logprob_q >= LM_MIN_AVG_Q * n_bigrams on both engine and oracle side
LM_MIN_AVG_Q = -3738339534438  # round(-3.4 * 2^40)

# worker-local broadcast memo: the unigram dict is fetched from the object
# store once per worker process, not once per map_groups call
_UNI_MEMO: dict[str, dict] = {}


def _get_broadcast(ref) -> dict:
    import ray

    key = ref.hex()
    got = _UNI_MEMO.get(key)
    if got is None:
        _UNI_MEMO.clear()  # at most one live broadcast per worker
        got = _UNI_MEMO[key] = ray.get(ref)
    return got


def _doc_bigrams_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, w1, w2, n): per-doc adjacent-token bigram counts."""
    df = (
        pl.from_arrow(batch.select(["doc_id", "text"]))
        .with_columns(
            pl.col("text")
            .fill_null("")
            .str.to_lowercase()
            .str.extract_all(TOKEN_PATTERN)
            .alias("ts")
        )
        .select(
            "doc_id",
            pl.col("ts").list.slice(0, pl.col("ts").list.len() - 1).alias("w1s"),
            pl.col("ts").list.slice(1).alias("w2s"),
        )
        .explode(["w1s", "w2s"])
        .drop_nulls()
        .group_by(["doc_id", "w1s", "w2s"])
        .len()
        .rename({"w1s": "w1", "w2s": "w2", "len": "n"})
        .with_columns(pl.col("n").cast(pl.Int64))
    )
    return df.to_arrow().cast(
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("w1", pa.large_string()),
                ("w2", pa.large_string()),
                ("n", pa.int64()),
            ]
        )
    )


def bigram_counts(ds):
    """Corpus bigram count table (w1, w2, c) — one groupby sum."""
    return (
        ds.map_batches(_doc_bigrams_batch, batch_format="pyarrow")
        .groupby(["w1", "w2"])
        .sum("n")
    )


def unigram_counts_and_vocab(ds) -> tuple[dict, int]:
    """Unigram counts of bigram LEFT contexts (w, c) and vocab size V —
    vocab-bounded, collected to the driver for a ``ray.put`` broadcast.
    c1(w) is defined as the number of bigrams whose context is w (token
    count minus one per doc tail), the standard conditional denominator."""

    def _partial(batch: pa.Table) -> pa.Table:
        df = (
            pl.from_arrow(batch.select(["text"]))
            .with_columns(
                pl.col("text")
                .fill_null("")
                .str.to_lowercase()
                .str.extract_all(TOKEN_PATTERN)
                .alias("ts")
            )
            .select(
                pl.col("ts").list.slice(0, pl.col("ts").list.len() - 1).alias("ws")
            )
            .explode("ws")
            .drop_nulls()
            .group_by("ws")
            .len()
            .rename({"ws": "w", "len": "c"})
            .with_columns(pl.col("c").cast(pl.Int64))
        )
        return df.to_arrow().cast(
            pa.schema([("w", pa.large_string()), ("c", pa.int64())])
        )

    agg = ds.map_batches(_partial, batch_format="pyarrow").groupby("w").sum("c")
    tbl = agg.to_pandas()  # vocab-bounded (the broadcastable small side)
    # (an empty corpus aggregates to a frame without columns)
    counts = dict(zip(tbl["w"], tbl["sum(c)"].astype(int))) if len(tbl) else {}
    # V = distinct token vocabulary (for add-one smoothing's denominator)
    def _vocab_partial(batch: pa.Table) -> pa.Table:
        df = (
            pl.from_arrow(batch.select(["text"]))
            .with_columns(
                pl.col("text")
                .fill_null("")
                .str.to_lowercase()
                .str.extract_all(TOKEN_PATTERN)
                .alias("ts")
            )
            .explode("ts")
            .drop_nulls()
            .select(pl.col("ts").unique().alias("w"))
        )
        return df.to_arrow().cast(pa.schema([("w", pa.large_string())]))

    vocab = (
        ds.map_batches(_vocab_partial, batch_format="pyarrow")
        .groupby("w")
        .count()
        .count()
    )
    return counts, int(vocab)


def lm_scores(ds):
    """Per-doc bigram-LM score Dataset (doc_id, n_bigrams, lm_logprob_q):
    ``lm_logprob_q`` is the exact integer sum over the doc's bigram
    occurrences of round(float32(ln((c12 + 1) / (c1 + V))) * 2^40)."""
    import ray

    uni, V = unigram_counts_and_vocab(ds)
    uni_ref = ray.put(uni)
    counts = bigram_counts(ds).map_batches(
        lambda b: pa.table(
            {
                "doc_id": pa.array(np.full(b.num_rows, -1, np.int64)),
                "w1": b.column("w1").cast(pa.large_string()),
                "w2": b.column("w2").cast(pa.large_string()),
                "n": b.column("sum(n)").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    docbg = ds.map_batches(_doc_bigrams_batch, batch_format="pyarrow")

    def _group(df):
        # one count row (doc_id == -1) per bigram group + the doc rows
        import pandas as pd

        c12 = int(df.loc[df["doc_id"] == -1, "n"].iloc[0])
        docs = df[df["doc_id"] != -1]
        if not len(docs):
            return pd.DataFrame(
                {"doc_id": [], "n_bigrams": [], "lm_logprob_q": []}
            ).astype({"doc_id": "int64", "n_bigrams": "int64", "lm_logprob_q": "int64"})
        c1 = int(_get_broadcast(uni_ref)[df["w1"].iloc[0]])
        lp = np.float32(np.log((c12 + 1.0) / (c1 + V)))
        q = int(np.round(np.float64(lp) * LM_SCALE))
        return pd.DataFrame(
            {
                "doc_id": docs["doc_id"].to_numpy(),
                "n_bigrams": docs["n"].to_numpy(),
                "lm_logprob_q": q * docs["n"].to_numpy(),
            }
        )

    merged = counts.union(docbg).groupby(["w1", "w2"]).map_groups(_group)
    return merged.groupby("doc_id").sum(["n_bigrams", "lm_logprob_q"]).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_bigrams": b.column("sum(n_bigrams)").cast(pa.int64()),
                "lm_logprob_q": b.column("sum(lm_logprob_q)").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
