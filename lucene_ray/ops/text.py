"""Text-analysis operators for large-scale training-data pipelines.

Each operator is a pure batch transform (``Dataset.map_batches`` with
``batch_format="pyarrow"``) over a documents table ``(doc_id, text, ...)``;
string kernels run vectorized in polars (zero-copy from Arrow).  Every
output column is an integer, string, or deterministically-derived value so
the DuckDB oracle comparisons in ``__ray_entry__.py`` are exact.

Operators:
- ``token_stats``      token / unique / char counts, max term frequency
- ``quality_stats``    quality-scoring signals (alpha ratio ingredients,
                       stopword counts, whitespace token counts) as integers
- ``lang_id``          n-gram/stopword-list language heuristic
- ``fingerprints``     md5 document fingerprint of the normalized token
                       stream (rolling-hash analogue, collision-free in
                       practice and SQL-checkable)

At 100 TB these all stay embarrassingly parallel: no shuffle, zero-copy
Arrow in/out, polars kernels release the GIL.
"""

from __future__ import annotations

import hashlib

import polars as pl
import pyarrow as pa

from .util import TOKEN_PATTERN

# Small per-language stopword lists for the heuristic language ID.  Counting
# is by token occurrence (with multiplicity).  Tie-break: alphabetically
# first language code wins (mirrored exactly in the oracle SQL CASE).
LANG_WORDS: dict[str, list[str]] = {
    "de": ["der", "die", "und", "das", "ist", "nicht", "ein", "mit"],
    "en": ["the", "a", "of", "and", "is", "in", "to", "for"],
    "es": ["el", "la", "de", "que", "y", "los", "una", "por"],
    "fr": ["le", "la", "de", "et", "les", "des", "une", "dans"],
}

EN_STOPWORDS = LANG_WORDS["en"]


def _tok_expr() -> pl.Expr:
    return pl.col("text").str.to_lowercase().str.extract_all(TOKEN_PATTERN)


# GPT2-ish byte-pair pre-tokenizer shape, restricted to RE2/rust-regex
# common syntax (no lookarounds) so polars and DuckDB agree exactly
BPE_PATTERN = r" ?[\p{L}]+| ?[\p{N}]+| ?[^\s\p{L}\p{N}]+"


def token_stats_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, n_tokens, n_unique, max_tf, n_chars, n_bpe_tokens) — int64."""
    df = pl.from_arrow(batch.select(["doc_id", "text"]))
    toks = df.select(
        pl.col("doc_id"),
        _tok_expr().alias("ts"),
        pl.col("text").str.len_chars().cast(pl.Int64).alias("n_chars"),
        pl.col("text").str.count_matches(BPE_PATTERN).cast(pl.Int64).alias("n_bpe_tokens"),
    )
    tf = (
        toks.select("doc_id", "ts")
        .explode("ts", empty_as_null=True)
        .drop_nulls("ts")
        .group_by("doc_id", "ts")
        .len()
        .group_by("doc_id")
        .agg(
            pl.len().cast(pl.Int64).alias("n_unique"),
            pl.col("len").max().cast(pl.Int64).alias("max_tf"),
        )
    )
    out = (
        toks.select(
            "doc_id",
            pl.col("ts").list.len().cast(pl.Int64).alias("n_tokens"),
            "n_chars",
            "n_bpe_tokens",
        )
        .join(tf, on="doc_id", how="left")
        .with_columns(
            pl.col("n_unique").fill_null(0),
            pl.col("max_tf").fill_null(0),
        )
        .select("doc_id", "n_tokens", "n_unique", "max_tf", "n_chars", "n_bpe_tokens")
        .sort("doc_id")
    )
    return out.to_arrow()


def doc_stats_batch(batch: pa.Table) -> pa.Table:
    """token_stats + quality_stats + repetition signals fused: ONE tokenizer
    pass feeds every column family (doc_id, n_tokens, n_unique, max_tf,
    n_chars, n_bpe_tokens, n_alpha, n_stop, n_ws_tokens, is_quality,
    max_bigram_tf, dup_bigram_extra).  The repetition columns are the
    integer cores of the Gopher duplicate-n-gram quality rules (Rae et al.
    2021 §A1.1): max_bigram_tf = the most repeated 2-gram's count,
    dup_bigram_extra = sum over 2-grams of (count-1), i.e. how many bigram
    occurrences are duplicates."""
    df = pl.from_arrow(batch.select(["doc_id", "text"]))
    toks = df.select(
        pl.col("doc_id"),
        _tok_expr().alias("ts"),
        pl.col("text").str.len_chars().cast(pl.Int64).alias("n_chars"),
        pl.col("text").str.count_matches(BPE_PATTERN).cast(pl.Int64).alias("n_bpe_tokens"),
        pl.col("text").str.count_matches("[a-zA-Z]").cast(pl.Int64).alias("n_alpha"),
        pl.col("text").str.split(" ").list.len().cast(pl.Int64).alias("n_ws_tokens"),
    )
    tf = (
        toks.select("doc_id", "ts")
        .explode("ts", empty_as_null=True)
        .drop_nulls("ts")
        .group_by("doc_id", "ts")
        .len()
        .group_by("doc_id")
        .agg(
            pl.len().cast(pl.Int64).alias("n_unique"),
            pl.col("len").max().cast(pl.Int64).alias("max_tf"),
        )
    )
    # repetition: bigram counts via one explode + shift-within-doc
    big = (
        toks.select("doc_id", "ts")
        .explode("ts", empty_as_null=True)
        .drop_nulls("ts")
        .with_columns(pl.col("ts").shift(-1).over("doc_id").alias("nxt"))
        .drop_nulls("nxt")
        .group_by("doc_id", "ts", "nxt")
        .len()
        .group_by("doc_id")
        .agg(
            pl.col("len").max().cast(pl.Int64).alias("max_bigram_tf"),
            (pl.col("len") - 1).sum().cast(pl.Int64).alias("dup_bigram_extra"),
        )
    )
    out = (
        toks.with_columns(
            pl.col("ts").list.len().cast(pl.Int64).alias("n_tokens"),
            pl.col("ts")
            .list.eval(pl.element().is_in(EN_STOPWORDS))
            .list.sum()
            .cast(pl.Int64)
            .alias("n_stop"),
        )
        .join(tf, on="doc_id", how="left")
        .join(big, on="doc_id", how="left")
        .with_columns(
            pl.col("n_unique").fill_null(0),
            pl.col("max_tf").fill_null(0),
            pl.col("max_bigram_tf").fill_null(0),
            pl.col("dup_bigram_extra").fill_null(0),
            ((pl.col("n_tokens") >= 10) & (pl.col("n_stop") * 50 <= pl.col("n_tokens") * 45))
            .cast(pl.Int64)
            .alias("is_quality"),
        )
        .select(
            "doc_id", "n_tokens", "n_unique", "max_tf", "n_chars", "n_bpe_tokens",
            "n_alpha", "n_stop", "n_ws_tokens", "is_quality",
            "max_bigram_tf", "dup_bigram_extra",
        )
        .sort("doc_id")
    )
    return out.to_arrow()


def quality_stats_batch(batch: pa.Table) -> pa.Table:
    """Integer quality signals per doc.

    ``n_alpha``: count of ASCII letters; ``n_stop``: occurrences of English
    stopwords; ``n_ws_tokens``: single-space split count; ``is_quality``:
    integer-threshold flag (>= 10 tokens and stopword count * 50 <= token
    count * 45 — i.e. stopword ratio <= 90%).
    """
    df = pl.from_arrow(batch.select(["doc_id", "text"]))
    out = df.select(
        pl.col("doc_id"),
        _tok_expr().alias("ts"),
        pl.col("text").str.count_matches("[a-zA-Z]").cast(pl.Int64).alias("n_alpha"),
        pl.col("text").str.split(" ").list.len().cast(pl.Int64).alias("n_ws_tokens"),
    ).with_columns(
        pl.col("ts").list.len().cast(pl.Int64).alias("n_tokens"),
        pl.col("ts")
        .list.eval(pl.element().is_in(EN_STOPWORDS))
        .list.sum()
        .cast(pl.Int64)
        .alias("n_stop"),
    )
    out = out.with_columns(
        ((pl.col("n_tokens") >= 10) & (pl.col("n_stop") * 50 <= pl.col("n_tokens") * 45))
        .cast(pl.Int64)
        .alias("is_quality")
    )
    return (
        out.select("doc_id", "n_tokens", "n_alpha", "n_stop", "n_ws_tokens", "is_quality")
        .sort("doc_id")
        .to_arrow()
    )


def lang_id_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, c_de, c_en, c_es, c_fr, lang_pred)."""
    df = pl.from_arrow(batch.select(["doc_id", "text"]))
    out = df.select(pl.col("doc_id"), _tok_expr().alias("ts"))
    for lang in sorted(LANG_WORDS):
        out = out.with_columns(
            pl.col("ts")
            .list.eval(pl.element().is_in(LANG_WORDS[lang]))
            .list.sum()
            .cast(pl.Int64)
            .alias(f"c_{lang}")
        )
    langs = sorted(LANG_WORDS)
    pred = pl.lit(langs[-1])
    # alphabetically-first max: fold from the end so earlier langs win ties
    for lang in reversed(langs[:-1]):
        others = [f"c_{o}" for o in langs if o > lang]
        cond = pl.all_horizontal([pl.col(f"c_{lang}") >= pl.col(o) for o in others])
        pred = pl.when(cond).then(pl.lit(lang)).otherwise(pred)
    out = out.with_columns(pred.alias("lang_pred"))
    return (
        out.select("doc_id", *[f"c_{lang}" for lang in langs], "lang_pred")
        .sort("doc_id")
        .to_arrow()
    )


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, fp): md5 hex of the space-joined normalized token stream."""
    df = pl.from_arrow(batch.select(["doc_id", "text"]))
    norm = df.select(
        pl.col("doc_id"), _tok_expr().list.join(" ").alias("norm_text")
    )
    fps = [hashlib.md5(s.encode("utf-8")).hexdigest() for s in norm["norm_text"].to_list()]
    return pa.table(
        {
            "doc_id": norm["doc_id"].to_arrow(),
            "fp": pa.array(fps, type=pa.string()),
        }
    )


# Polynomial rolling-hash fingerprint over the normalized token stream:
# h = sum_i v_i * B^(n-1-i) mod P with v_i = md5_u64(token) % 2^31.
# All arithmetic stays below 2^62, so DuckDB BIGINT (with a HUGEINT sum)
# reproduces it exactly; appending a token is h*B + v (a true rolling hash).
ROLL_B = 1000003
ROLL_P = 2147483647  # 2^31 - 1


def rolling_fingerprint_batch(batch: pa.Table, max_len: int = 512) -> pa.Table:
    """(doc_id, roll_fp): polynomial token-stream hash (int64)."""
    import numpy as np

    from .util import md5_u64, tokenize

    # precomputed B powers mod P (shared with the oracle SQL VALUES table)
    powers = np.empty(max_len, dtype=np.uint64)
    acc = 1
    for j in range(max_len):
        powers[j] = acc
        acc = (acc * ROLL_B) % ROLL_P
    ids, fps = [], []
    for doc_id, text in zip(
        batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
    ):
        toks = tokenize(text)[:max_len]
        n = len(toks)
        if n == 0:
            h = 0
        else:
            v = np.array([md5_u64(t) % (1 << 31) for t in toks], dtype=np.uint64)
            prods = (v * powers[:n][::-1]) % np.uint64(ROLL_P)
            h = int(prods.sum() % np.uint64(ROLL_P))
        ids.append(doc_id)
        fps.append(h)
    return pa.table(
        {"doc_id": pa.array(ids, pa.int64()), "roll_fp": pa.array(fps, pa.int64())}
    )


def rolling_fingerprints(ds):
    return ds.map_batches(rolling_fingerprint_batch, batch_format="pyarrow")


def _map(ds, fn, **kw):
    return ds.map_batches(fn, batch_format="pyarrow", **kw)


def token_stats(ds):
    return _map(ds, token_stats_batch)


def quality_stats(ds):
    return _map(ds, quality_stats_batch)


def doc_stats(ds):
    return _map(ds, doc_stats_batch)


def lang_id(ds):
    return _map(ds, lang_id_batch)


def fingerprints(ds):
    return _map(ds, fingerprint_batch)


def fingerprints_combined(ds):
    """(doc_id, fp, roll_fp) in ONE pass: md5 fingerprint + polynomial
    rolling hash computed from the same batch (both per-doc, row-aligned)."""

    def _both(batch: pa.Table) -> pa.Table:
        a = fingerprint_batch(batch)
        b = rolling_fingerprint_batch(batch)
        return a.append_column("roll_fp", b.column("roll_fp"))

    return _map(ds, _both)


def doc_profile(ds, bench_grams: frozenset | None = None, dsir=None, nb=None):
    """token/quality stats + language-ID + both fingerprints (+ optional
    benchmark-contamination, DSIR importance-weight and NB quality-vote
    columns) as ONE per-doc table in a single read pass (one map_batches
    stage, no shuffle): the doc_stats columns plus (c_<lang>...,
    lang_pred, fp, roll_fp[, contam_hits, contam_flag][, dsir_weight]
    [, nb_votes, nb_label]).

    When ``nb`` (a votes table from nb_votes) is given, the float NB
    log-odds rides along as an ``nb_logodds`` column for the CALLER's
    corpus-level agreement gate (per-batch agreement is too noisy to
    gate on; see __ray_entry__'s tx_doc_stats wrapper)."""

    def _all(batch: pa.Table) -> pa.Table:
        stats = doc_stats_batch(batch).sort_by("doc_id")
        lang = lang_id_batch(batch).sort_by("doc_id")
        fp = fingerprint_batch(batch).sort_by("doc_id")
        roll = rolling_fingerprint_batch(batch).sort_by("doc_id")
        extras = [lang, fp, roll]
        if bench_grams is not None:
            extras.append(contamination_batch(batch, bench_grams).sort_by("doc_id"))
        if dsir is not None:
            extras.append(dsir_weight_batch(batch, dsir).sort_by("doc_id"))
        if nb is not None:
            extras.append(nb_quality_batch(batch, nb).sort_by("doc_id"))
        out = stats
        for extra in extras:
            for name in extra.column_names:
                if name != "doc_id":
                    out = out.append_column(name, extra.column(name))
        return out

    return _map(ds, _all)


# --- benchmark decontamination --------------------------------------------
# The GPT-3 Appendix-C / The-Pile decontamination step: flag training docs
# sharing an exact token n-gram with the evaluation set.  The benchmark
# side is TINY (eval sets are KBs against TBs of training data), so it is
# read once with column+row pruning and broadcast into the profile stage;
# the doc side is one vectorized rolling-gram membership pass per batch —
# no shuffle, no driver loop.  N=5 here (the papers use 8-13 on web text;
# our synthetic docs are short).  The scenario is "eval text leaked into
# the corpus": the benchmark is the first CONTAM_BENCH_PREFIX tokens of a
# fixed set of corpus docs, so true positives exist at every scale.

CONTAM_BENCH_DOC_IDS = (7, 42, 99)
CONTAM_N = 5
CONTAM_BENCH_PREFIX = 10


def benchmark_grams(path: str) -> frozenset:
    """Token n-grams of the benchmark docs' prefixes — the broadcast
    small side (a handful of strings)."""
    import pyarrow.dataset as pads

    tbl = pads.dataset(path).to_table(
        columns=["doc_id", "text"],
        filter=pads.field("doc_id").isin(list(CONTAM_BENCH_DOC_IDS)),
    )
    from .util import tokenize

    grams = set()
    for t in tbl["text"].to_pylist():
        ts = tokenize(t or "")[:CONTAM_BENCH_PREFIX]
        for i in range(len(ts) - CONTAM_N + 1):
            grams.add(" ".join(ts[i : i + CONTAM_N]))
    return frozenset(grams)


def contamination_batch(batch: pa.Table, grams: frozenset) -> pa.Table:
    """(doc_id, contam_hits, contam_flag): the number of token POSITIONS
    whose n-gram is in the benchmark set (duplicates counted — the
    papers' overlap count), flag = any hit.  Vectorized: explode +
    shift-over builds every rolling gram, is_in does membership."""
    df = pl.from_arrow(batch.select(["doc_id", "text"])).with_columns(
        pl.col("text")
        .fill_null("")
        .str.to_lowercase()
        .str.extract_all(TOKEN_PATTERN)
        .alias("ts")
    )
    ex = df.select("doc_id", "ts").explode("ts", empty_as_null=True)
    parts = [pl.col("ts").shift(-k).over("doc_id") for k in range(CONTAM_N)]
    hits = (
        ex.with_columns(pl.concat_str(parts, separator=" ").alias("gram"))
        .with_columns(
            pl.col("gram").is_in(sorted(grams)).fill_null(False).alias("hit")
        )
        .group_by("doc_id")
        .agg(pl.col("hit").sum().cast(pl.Int64).alias("contam_hits"))
    )
    out = (
        df.select("doc_id")
        .join(hits, on="doc_id", how="left")
        .with_columns(pl.col("contam_hits").fill_null(0))
        .with_columns((pl.col("contam_hits") > 0).cast(pl.Int64).alias("contam_flag"))
        .sort("doc_id")
    )
    return out.to_arrow().cast(
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("contam_hits", pa.int64()),
                ("contam_flag", pa.int64()),
            ]
        )
    )


# --- DSIR importance weights ------------------------------------------------
# Data Selection via Importance Resampling (Xie et al. 2023, arXiv
# 2302.03169): score each raw doc by the log-likelihood ratio of its
# hashed n-gram features under a TARGET domain model vs the RAW corpus
# model; high-weight docs look like the target.  Deviations (documented):
# features are md5-hashed token UNIGRAMS in DSIR_DIM buckets (the paper
# hashes uni+bigrams into 10k buckets; our corpora are tiny), and the
# per-bucket log ratios are quantized to integers s_b = floor(K*lnr + 0.5)
# so the per-doc weight is an EXACT integer dot product — combine order
# can't perturb it.  The oracle derives the same score table in SQL; the
# only inexact step is ln (numpy's SIMD log vs DuckDB's libm differ by
# ~1 ulp), whose floor-quantization boundary risk at K=1000 is ~1e-13
# per bucket — far below the engine's other float32-exactness bars.
#
# Scale shape: the raw model is ONE aggregate scan (per-batch bincount
# partials summed); the target model reads only the benchmark docs
# (column+row pruned); scoring is one vectorized dot per batch.

DSIR_DIM = 64
DSIR_K = 1000


def dsir_scores(
    path: str,
    bench_doc_ids: tuple[int, ...] = CONTAM_BENCH_DOC_IDS,
    dim: int = DSIR_DIM,
    k_quant: int = DSIR_K,
):
    """int64 per-bucket quantized log ratios s_b = floor(K * ln(p_target_b
    / p_raw_b) + 0.5), add-1 smoothed.  Deterministic single-process
    helper shared by the engine and the oracle builder."""
    import numpy as np

    from .dedup import _duck

    ids = ", ".join(str(i) for i in bench_doc_ids)
    rows = _duck().execute(
        f"""
        with toks as (
          select doc_id, unnest(regexp_extract_all(lower(coalesce(text, '')),
                 '{TOKEN_PATTERN}')) tok
          from read_parquet('{path}')
        ),
        b as (select doc_id, cast(md5_number_lower(tok) % {dim} as bigint) bk
              from toks)
        select bk,
               count(*) filter (where doc_id in ({ids}))::bigint t,
               count(*)::bigint r
        from b group by bk
        """
    ).fetchall()
    t = np.zeros(dim, np.int64)
    r = np.zeros(dim, np.int64)
    for bk, tc, rc in rows:
        t[bk], r[bk] = tc, rc
    pt = (t + 1.0) / (t.sum() + dim)
    pr = (r + 1.0) / (r.sum() + dim)
    return np.floor(k_quant * np.log(pt / pr) + 0.5).astype(np.int64)


# --- Naive-Bayes quality classifier ----------------------------------------
# The fastText/CCNet-style learned quality filter (GPT-3 App. A, LLaMA's
# wiki-reference classifier) as a deterministic, oracle-checkable stand-in:
# multinomial NB trained on seed classes derived from SQL-visible state
# (doc_id % 7 == 0 positive, == 3 negative), with the CHECKED output in
# integer-exact VOTING form — each token votes sign((c_pos+1)(N_neg+V) -
# (c_neg+1)(N_pos+V)), a doc's score is the order-free integer sum of its
# occurrences' votes — so the oracle reproduces it bit-for-bit (float
# log-likelihood sums are order-sensitive; the true float NB log-odds runs
# beside it as an in-engine agreement GATE).  The votes table is
# vocab-bounded and broadcast once (the CCNet-LM discipline).

NB_POS_MOD = 0
NB_NEG_MOD = 3


def nb_votes(path: str) -> dict[str, int]:
    """token -> vote in {-1, 0, +1} trained on the seed classes; also
    returns the float log-odds table under key ``None`` mapping to
    (logodds_dict, prior_logodds) for the in-engine gate."""
    import math

    from .dedup import _duck

    rows = _duck().execute(
        f"""
        with toks as (
          select doc_id, unnest(regexp_extract_all(lower(coalesce(text, '')),
                 '{TOKEN_PATTERN}')) tok
          from read_parquet('{path}')
          where doc_id % 7 in ({NB_POS_MOD}, {NB_NEG_MOD})
        )
        select tok,
               count(*) filter (where doc_id % 7 = {NB_POS_MOD})::bigint cp,
               count(*) filter (where doc_id % 7 = {NB_NEG_MOD})::bigint cn
        from toks group by tok
        """
    ).fetchall()
    n_pos = sum(cp for _, cp, _ in rows)
    n_neg = sum(cn for _, _, cn in rows)
    v = len(rows)
    votes: dict = {}
    lo: dict[str, float] = {}
    for tok, cp, cn in rows:
        a = (cp + 1) * (n_neg + v)
        b = (cn + 1) * (n_pos + v)
        votes[tok] = 1 if a > b else (-1 if a < b else 0)
        lo[tok] = math.log((cp + 1.0) / (n_pos + v)) - math.log(
            (cn + 1.0) / (n_neg + v)
        )
    votes[None] = lo
    return votes


def nb_quality_batch(batch: pa.Table, votes: dict) -> pa.Table:
    """(doc_id, nb_votes, nb_label): integer vote sums + sign labels, and
    the float NB log-odds computed alongside for the agreement gate
    (returned as nb_logodds, dropped before the driver table)."""
    import numpy as np

    from .dedup import _duck

    sub = batch.select(["doc_id", "text"])  # noqa: F841 — duckdb scan
    tf = (
        _duck()
        .execute(
            f"""
            with toks as (
              select doc_id, unnest(regexp_extract_all(lower(coalesce(text, '')),
                     '{TOKEN_PATTERN}')) tok
              from sub)
            select doc_id, tok, count(*)::bigint c from toks group by 1, 2
            """
        )
        .arrow()
    )
    ids = batch.column("doc_id").to_numpy()
    pos = {int(d): i for i, d in enumerate(ids)}
    score = np.zeros(len(ids), np.int64)
    logodds = np.zeros(len(ids), np.float64)
    lo = votes[None]
    for d, tok, c in zip(
        tf.column("doc_id").to_pylist(),
        tf.column("tok").to_pylist(),
        tf.column("c").to_pylist(),
    ):
        i = pos[int(d)]
        score[i] += votes.get(tok, 0) * c
        logodds[i] += lo.get(tok, 0.0) * c
    label = np.sign(score).astype(np.int64)
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "nb_votes": pa.array(score, pa.int64()),
            "nb_label": pa.array(label, pa.int64()),
            "nb_logodds": pa.array(logodds, pa.float64()),
        }
    )


def dsir_weight_batch(batch: pa.Table, scores) -> pa.Table:
    """(doc_id, dsir_weight): exact integer dot of the doc's hashed-token
    bucket counts with the broadcast score table."""
    import numpy as np

    from .semdedup import hashed_tf_counts

    ids, mat = hashed_tf_counts(batch.select(["doc_id", "text"]), dim=len(scores))
    w = mat @ np.asarray(scores, np.int64)
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "dsir_weight": pa.array(w, pa.int64()),
        }
    )


# --- PII scrubbing --------------------------------------------------------

# RE2/rust-regex-common patterns (no lookarounds) so polars and the DuckDB
# oracle agree byte-for-byte; replacement ORDER matters and is mirrored.
PII_PATTERNS = [
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ipv4", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    ("longnum", r"\b\d{9,}\b", "<NUM>"),
]


def scrub_pii_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, n_email, n_ipv4, n_longnum, clean_sha): counts of scrubbed
    spans + md5 of the scrubbed text (applied in PII_PATTERNS order).
    Vectorized: polars count_matches/replace_all, DuckDB md5."""
    from .dedup import _duck

    df = pl.from_arrow(batch.select(["doc_id", "text"]))
    exprs = [pl.col("doc_id")]
    clean = pl.col("text").fill_null("")
    for name, pat, repl in PII_PATTERNS:
        exprs.append(clean.str.count_matches(pat).cast(pl.Int64).alias(f"n_{name}"))
    for name, pat, repl in PII_PATTERNS:
        clean = clean.str.replace_all(pat, repl)
    exprs.append(clean.alias("clean"))
    out = df.select(exprs)
    sub = out.select(["doc_id", "clean"])  # noqa: F841 — DuckDB replacement scan
    sha = _duck().execute("select doc_id, md5(clean) clean_sha from sub").arrow()
    tbl = out.drop("clean").to_arrow()
    return tbl.append_column("clean_sha", sha.column("clean_sha")).cast(
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("n_email", pa.int64()),
                ("n_ipv4", pa.int64()),
                ("n_longnum", pa.int64()),
                ("clean_sha", pa.string()),
            ]
        )
    )


def scrub_pii(ds):
    return _map(ds, scrub_pii_batch)


# --- deterministic stratified sampling ------------------------------------

SAMPLE_SALT = "graft"


def stratified_sample_batch(batch: pa.Table, pct_by_group: dict, group_col: str) -> pa.Table:
    """Hash-gated per-group sampling: keep doc iff
    ``md5_number_lower(salt || doc_id) % 100 < pct[group]`` — deterministic,
    shuffle-free, exactly reproducible in SQL (the per-stratum downsampling
    step of a training-data mix)."""
    from .dedup import _duck

    sub = batch  # noqa: F841 — DuckDB replacement scan
    cases = " ".join(
        f"WHEN '{g}' THEN {int(p)}" for g, p in sorted(pct_by_group.items())
    )
    q = (
        f"select doc_id, {group_col} from sub "
        f"where md5_number_lower('{SAMPLE_SALT}' || cast(doc_id as varchar)) % 100 "
        f"< (case {group_col} {cases} else 0 end) order by doc_id"
    )
    return _duck().execute(q).arrow()


def stratified_sample(ds, pct_by_group: dict, group_col: str = "lang"):
    """Sampled (doc_id, group) rows at per-group percentages."""
    return ds.map_batches(
        stratified_sample_batch,
        batch_format="pyarrow",
        fn_kwargs={"pct_by_group": pct_by_group, "group_col": group_col},
    )


# --- token-budget domain mixing --------------------------------------------
# The "data mixture" step of a pretraining pipeline (fixed per-domain token
# quotas, the Pile / DoReMi-style static mixture): docs are taken in a
# DETERMINISTIC pseudo-random order (md5 hash of the doc_id — the same
# salt/kernel as the stratified sampler, so SQL reproduces it bit-for-bit)
# until each domain's cumulative token count reaches its budget.  The doc
# that CROSSES the budget is still taken (greedy fill: keep iff the
# exclusive prefix sum of tokens before it is < budget).
#
# Distributed shape (no global sort):
#   1. one map_batches annotates (lang, bucket, toks) where bucket = the
#      TOP 8 bits of the hash — a prefix of the order key, so bucket
#      ascending == hash-range ascending; groupby(lang, bucket).sum gives
#      per-bucket totals.  At most |domains| x 256 rows reach the driver
#      (a bounded constant, stated here), which computes each bucket's
#      EXCLUSIVE prefix offset within its domain.
#   2. groupby(lang, bucket).map_groups sorts each bucket by (h, doc_id),
#      local-cumsums tokens, adds the broadcast bucket offset and keeps
#      docs under the budget.  Only docs of budgeted domains ride either
#      shuffle.

MIX_BUCKET_BITS = 8


def _mix_annotate(batch: pa.Table, budgets: dict) -> pa.Table:
    """(doc_id, lang, h, bucket, toks) for budgeted-domain docs — DuckDB
    md5_number_lower so the hash/order is exactly the oracle's."""
    from .dedup import _duck

    sub = batch.select(["doc_id", "lang", "text"])  # noqa: F841 — duckdb scan
    langs = ", ".join(f"'{g}'" for g in sorted(budgets))
    return (
        _duck()
        .execute(
            f"""
            select doc_id, lang,
                   md5_number_lower('{SAMPLE_SALT}' || cast(doc_id as varchar)) as h,
                   cast(md5_number_lower('{SAMPLE_SALT}' || cast(doc_id as varchar))
                        >> {64 - MIX_BUCKET_BITS} as bigint) as bucket,
                   cast(len(regexp_extract_all(lower(coalesce(text, '')),
                        '{TOKEN_PATTERN}')) as bigint) as toks
            from sub where lang in ({langs})
            """
        )
        .arrow()
    )


def token_budget_sample(ds, budgets: dict[str, int]):
    """(doc_id, lang, n_tokens) of the docs selected by the per-domain
    token-budget mixture (greedy fill in deterministic hash order)."""
    import numpy as np
    import ray

    # ONE tokenize+hash scan, reused by the offset pass and the keep pass
    # (budgeted-domain rows only, so the materialization is the sample's
    # working set, not the corpus)
    annotated = ds.map_batches(
        _mix_annotate, batch_format="pyarrow", fn_kwargs={"budgets": budgets}
    ).materialize()
    # bounded driver table: <= |domains| * 2^MIX_BUCKET_BITS rows
    per_bucket = (
        annotated.groupby(["lang", "bucket"]).sum("toks").to_pandas()
    ).sort_values(["lang", "bucket"])
    per_bucket["offset"] = (
        per_bucket.groupby("lang")["sum(toks)"].cumsum() - per_bucket["sum(toks)"]
    )
    offsets = {
        (r.lang, int(r.bucket)): int(r.offset) for r in per_bucket.itertuples()
    }
    offsets_ref = ray.put(offsets)

    def _keep(group: pa.Table) -> pa.Table:
        off_map = ray.get(offsets_ref)
        lang = group.column("lang")[0].as_py()
        bucket = int(group.column("bucket")[0].as_py())
        order = np.lexsort(
            (
                group.column("doc_id").to_numpy(),
                group.column("h").to_numpy(zero_copy_only=False),
            )
        )
        toks = group.column("toks").to_numpy()[order]
        ids = group.column("doc_id").to_numpy()[order]
        prefix = off_map.get((lang, bucket), 0) + np.concatenate(
            ([0], np.cumsum(toks[:-1]))
        )
        keep = prefix < budgets[lang]
        return pa.table(
            {
                "doc_id": pa.array(ids[keep], pa.int64()),
                "lang": pa.array([lang] * int(keep.sum()), pa.string()),
                "n_tokens": pa.array(toks[keep], pa.int64()),
            }
        )

    return annotated.groupby(["lang", "bucket"]).map_groups(
        _keep, batch_format="pyarrow"
    )


def _pct_with_tokens(batch: pa.Table, pct_by_group: dict) -> pa.Table:
    """The stratified pct gate, emitting token counts alongside (so the
    sampling family's two arms share one schema)."""
    from .dedup import _duck

    sub = batch.select(["doc_id", "lang", "text"])  # noqa: F841 — duckdb scan
    cases = " ".join(
        f"WHEN '{g}' THEN {int(p)}" for g, p in sorted(pct_by_group.items())
    )
    return (
        _duck()
        .execute(
            f"""
            select doc_id, lang,
                   cast(len(regexp_extract_all(lower(coalesce(text, '')),
                        '{TOKEN_PATTERN}')) as bigint) as n_tokens
            from sub
            where md5_number_lower('{SAMPLE_SALT}' || cast(doc_id as varchar))
                  % 100 < (case lang {cases} else 0 end)
            """
        )
        .arrow()
    )


def sample_family(ds, pct_by_group: dict, budgets: dict[str, int]):
    """(mode, doc_id, lang, n_tokens): the sampling FAMILY — mode='pct'
    rows from the hash-gated per-stratum sampler, mode='budget' rows from
    the token-budget domain mixture.  Both arms are deterministic and
    SQL-exact."""

    def _label(mode: str):
        def _add(batch: pa.Table) -> pa.Table:
            return batch.add_column(
                0, "mode", pa.array([mode] * len(batch), pa.string())
            )

        return _add

    pct = ds.map_batches(
        _pct_with_tokens, batch_format="pyarrow",
        fn_kwargs={"pct_by_group": pct_by_group},
    ).map_batches(_label("pct"), batch_format="pyarrow")
    budget = token_budget_sample(ds, budgets).map_batches(
        _label("budget"), batch_format="pyarrow"
    )
    return pct.union(budget)
