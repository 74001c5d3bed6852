"""End-to-end corpus cleaning pipeline: quality filter -> exact dedup ->
partitioned Parquet sink.

The composition a training-data pipeline actually runs before indexing:

    docs -> quality signals (vectorized map_batches, polars kernels)
         -> keep is_quality == 1           (vectorized mask, no row fns)
         -> exact-dedup survivors among the kept docs: the md5
            fingerprint groupby carries the FULL doc rows and each group
            keeps its min-doc_id row — one shuffle, no survivor-id set on
            the driver, no second pass over the corpus
         -> write_parquet partitioned by hash bucket (one directory per
            bucket => a failed run resumes per-partition; never one
            giant file)

Returns a single summary row of exact integers so the DuckDB oracle can
check the whole pipeline: (n_docs, n_quality, n_kept).
"""

from __future__ import annotations

import os

import numpy as np

import pyarrow as pa
import pyarrow.compute as pc

from .dedup import _duck
from .text import quality_stats_batch
from .util import strip_schema_metadata


N_OUTPUT_BUCKETS = 16


def _quality_filter(batch: pa.Table) -> pa.Table:
    q = quality_stats_batch(batch)
    mask = pc.equal(q.column("is_quality"), 1)
    return strip_schema_metadata(batch.filter(mask))


def _fp_append(batch: pa.Table) -> pa.Table:
    """Append the md5 content fingerprint (DuckDB vectorized kernel)."""
    sub = batch.select(["text"])  # noqa: F841 — DuckDB replacement scan
    fp = _duck().execute("select md5(coalesce(text, '')) fp from sub").arrow()
    return batch.append_column("fp", fp.column("fp"))


def _keep_min_doc(group: pa.Table) -> pa.Table:
    """One surviving row per fingerprint group: the min doc_id."""
    ids = group.column("doc_id")
    winner = pc.index(ids, pc.min(ids)).as_py()
    return group.slice(winner, 1)


def clean_corpus(ds, out_dir: str | None = None) -> pa.Table:
    """(n_docs, n_quality, n_kept) summary; optionally writes the cleaned
    corpus as bucket-partitioned parquet under ``out_dir``."""
    ds = ds.map_batches(strip_schema_metadata, batch_format="pyarrow")
    n_docs = ds.count()
    quality = ds.map_batches(_quality_filter, batch_format="pyarrow")
    n_quality = int(quality.count())

    kept = (
        quality.map_batches(_fp_append, batch_format="pyarrow")
        .groupby("fp")
        .map_groups(_keep_min_doc, batch_format="pyarrow")
    )

    if out_dir:

        def _bucketize(batch: pa.Table) -> pa.Table:
            out = batch.drop_columns(["fp"])
            bucket = pc.cast(
                pc.bit_wise_and(out.column("doc_id"), N_OUTPUT_BUCKETS - 1),
                pa.int32(),
            )
            return out.append_column("bucket", bucket)

        import shutil

        # overwrite semantics: a rerun must not append duplicate files
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir, exist_ok=True)
        kept.map_batches(_bucketize, batch_format="pyarrow").write_parquet(
            out_dir, partition_cols=["bucket"]
        )
        # count what actually landed (doubles as a sink sanity check)
        import pyarrow.parquet as pq

        n_kept = pq.read_table(out_dir, columns=["doc_id"]).num_rows
    else:
        n_kept = int(kept.count())

    return pa.table(
        {
            "n_docs": pa.array([int(n_docs)], pa.int64()),
            "n_quality": pa.array([n_quality], pa.int64()),
            "n_kept": pa.array([int(n_kept)], pa.int64()),
        }
    )


def training_mix(ds):
    """The composed LLM training-data pipeline over the documents table:

        read -> language gate (lang in {en, de})
             -> quality gate  (is_quality == 1 AND max_bigram_tf <= 4,
                               the stopword + repetition rules from the
                               single-pass doc profile)
             -> exact dedup   (min doc_id per identical text, full rows
                               riding the fingerprint groupby)
             -> near-dup collapse (connected components over verified
                               n-gram-Jaccard pairs AMONG THE SURVIVORS;
                               each cluster keeps its min-doc_id
                               representative)
             -> final mix     (doc_id, lang, n_tokens)

    Every stage is a Ray Data transform: the gates are vectorized
    map_batches masks, the dedups shuffle fingerprints/shingles (never
    full text to the driver), and the near-dup drop set — doc_ids that
    lost their cluster — is cluster-bounded and ships once via ray.put.
    """
    import ray

    from .dedup import duplicate_clusters
    from .text import doc_stats_batch

    def _gate(batch: pa.Table) -> pa.Table:
        s = doc_stats_batch(batch)
        import polars as pl

        left = pl.from_arrow(batch.select(["doc_id", "text", "lang"]))
        stats = pl.from_arrow(
            s.select(["doc_id", "n_tokens", "is_quality", "max_bigram_tf"])
        )
        j = left.join(stats, on="doc_id", how="inner").filter(
            pl.col("lang").is_in(["en", "de"])
            & (pl.col("is_quality") == 1)
            & (pl.col("max_bigram_tf") <= 4)
        )
        return strip_schema_metadata(
            j.select(["doc_id", "text", "lang", "n_tokens"]).to_arrow()
        )

    gated = ds.map_batches(_gate, batch_format="pyarrow")

    # CCNet-style LM gate (Wenzek et al. 2020): a bigram LM trained
    # distributedly on the FULL corpus scores every doc; docs whose
    # average per-bigram logprob falls below LM_MIN_AVG_Q drop.  The
    # per-doc scores are corpus-sized (never broadcast): the gate is a
    # schema-matched union + one uniform doc_id-keyed groupby — the
    # co-group join shape.  The comparison is integer-exact
    # (lm_logprob_q >= LM_MIN_AVG_Q * n_bigrams on the 2^-40 grid).
    from .lm import LM_MIN_AVG_Q, lm_scores

    score_rows = lm_scores(ds).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "text": pa.array([""] * b.num_rows, pa.string()),
                "lang": pa.array([""] * b.num_rows, pa.string()),
                "n_tokens": pa.array(np.full(b.num_rows, -1, np.int64)),
                "n_bigrams": b.column("n_bigrams"),
                "lm_logprob_q": b.column("lm_logprob_q"),
            }
        ),
        batch_format="pyarrow",
    )
    gated_marked = gated.map_batches(
        lambda b: b.append_column(
            "n_bigrams", pa.array(np.full(b.num_rows, -1, np.int64))
        ).append_column("lm_logprob_q", pa.array(np.zeros(b.num_rows, np.int64))),
        batch_format="pyarrow",
    )

    def _lm_gate(df):
        import pandas as pd

        doc = df[df["n_bigrams"] == -1]
        if not len(doc):  # score row for a doc the earlier gates dropped
            return doc
        sc = df[df["n_bigrams"] >= 0]
        if len(sc):
            nb = int(sc["n_bigrams"].iloc[0])
            q = int(sc["lm_logprob_q"].iloc[0])
            if nb > 0 and q < LM_MIN_AVG_Q * nb:
                return doc.iloc[0:0]
        return doc

    gated = (
        gated_marked.union(score_rows)
        .groupby("doc_id")
        .map_groups(_lm_gate)
        # the pandas groups come back carrying pandas schema metadata
        .map_batches(
            lambda b: strip_schema_metadata(
                b.select(["doc_id", "text", "lang", "n_tokens"])
            ),
            batch_format="pyarrow",
        )
    )
    fps = gated.map_batches(_fp_append, batch_format="pyarrow")
    survivors = fps.groupby("fp").map_groups(
        _keep_min_doc, batch_format="pyarrow"
    ).materialize()

    clusters = duplicate_clusters(survivors).to_pandas()
    dropped = set(
        clusters.loc[clusters["doc_id"] != clusters["cluster_id"], "doc_id"]
    )
    drop_ref = ray.put(dropped)

    def _collapse(batch: pa.Table) -> pa.Table:
        d = ray.get(drop_ref)
        ids = batch.column("doc_id").to_numpy()
        keep = ~np.isin(ids, list(d)) if d else np.ones(len(ids), dtype=bool)
        return batch.filter(pa.array(keep)).select(["doc_id", "lang", "n_tokens"])

    return survivors.map_batches(_collapse, batch_format="pyarrow")
