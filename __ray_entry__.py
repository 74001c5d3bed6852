"""Driver contract: entry() smoke, queries() pipelines, oracle_sql() oracles.

Ray is initialised by the driver BEFORE this module is imported; nothing
here (nor in lucene_ray) calls ray.init()/ray.shutdown().

Query families (SURVEY.md §2 + the training-data-pipeline operators):

- fulltext index pipelines (lucene_ray.pipelines.fulltext): every answer is
  read back from the *encoded* segmented index built by the Ray Data build
  pipeline, so an oracle match certifies tokenization, postings round-trip,
  SmallFloat norms, collection stats, float32 BM25 and WAND pruning.
- dedup operators (lucene_ray.ops.dedup): exact, MinHash+LSH, SimHash,
  n-gram Jaccard — hash constants chosen for exact DuckDB parity.
- text analysis (lucene_ray.ops.text): token/quality stats, language ID,
  fingerprints.
- similarity search (lucene_ray.ops.ann): brute-force + IVF cosine top-k,
  embedding near-dup pairs.
- multimodal plumbing (lucene_ray.ops.multimodal): binary payload +
  actor-pool decode stage (deterministic stub kernel).

The oracle SQL mirrors each pipeline exactly (same tokenizer regex, same
integer hash arithmetic, same tie-breaks); float comparisons are avoided in
oracle-checked outputs — ranks and integer statistics only.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from functools import partial
from typing import Any

import pyarrow as pa

from lucene_ray.ops.util import (
    LSH_ROWS_PER_BAND,
    MINHASH_A,
    MINHASH_B,
    MINHASH_BASE_MOD,
    MINHASH_P,
    NUM_MINHASH,
    TOKEN_PATTERN,
    read_parquet,
)
from lucene_ray.ops import dedup as dedup_mod
from lucene_ray.pipelines import fulltext as ft
from lucene_ray.smallfloat import LENGTH_TABLE

# ---------------------------------------------------------------------------
# shared SQL fragments
# ---------------------------------------------------------------------------

_TOKS = f"""
toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_PATTERN}') AS ts
  FROM documents
),
tok AS (SELECT doc_id, unnest(ts) AS tok FROM toks),
tf AS (SELECT doc_id, tok, count(*)::BIGINT AS tf FROM tok GROUP BY doc_id, tok),
dl AS (SELECT doc_id, len(ts)::BIGINT AS dl FROM toks)
"""

_LT_VALUES = ", ".join(f"({b}, {int(LENGTH_TABLE[b])})" for b in range(256))
_LT = f"lt(nb, L) AS (VALUES {_LT_VALUES})"

# The BM25 reference is spelled once, by these SQL helpers; every scoring
# oracle composes them:
#
# - _collection(toks) / _COLLECTION: the token stream, the SmallFloat
#   length table `lt` and the collection statistics.  `dlq(doc_id, dl,
#   ql)` carries each doc's length and its quantized length
#   LENGTH_TABLE[intToByte4(dl)] (the norm the index stores); `stats`
#   carries doc_count (docs with a non-empty field) and sum_ttf.
# - _idf(df) / _bm25(tf, df): idf = ln(1 + (N - df + 0.5)/(df + 0.5)) and
#   the BM25 term weight idf * (1 - 1/(1 + tf/(k1*((1-b) + b*ql/avgdl))))
#   with k1=1.2 b=0.75, operation for operation as the engine computes it.
# - _postings(q, on): `posting` = q's columns plus tf.doc_id/tf.tf/tf.tok
#   for every tf row matching q (tf.tok = q.term by default); `df` carries
#   df and ttf per (qid, tok).
# - _clauses(score, joins, combine): `clause` scores every posting
#   (aliases p, df, d = dlq, s = stats, plus any `joins`) with `score`,
#   BM25 by default; `scored` combines the clauses per (qid, doc_id),
#   a sum by default, and counts them in nmatch.
#   _term_scores(score, q) is the two in a row.
# - _topk(src, order): the `ranked` CTE (row_number per qid) plus the
#   final `rnk <= k` select.  The order key is the caller's: engine
#   scores are float32, so `score::FLOAT DESC, doc_id` ranks float32 ties
#   by doc_id; a plain `score DESC` orders the double.  Each site keeps
#   its own key: swapping one for the other reorders ties.
# - _phrase_topk(src, freq, idfs): BM25 top-10 over a per-doc phrase/span
#   frequency, with a per-query summed idf over `tdf`.
def _collection(toks: str = _TOKS) -> str:
    return f"""{toks}, {_LT},
dlq AS (
  SELECT d.doc_id, d.dl, (SELECT max(L) FROM lt WHERE lt.L <= d.dl)::BIGINT AS ql
  FROM dl d
),
stats AS (
  SELECT count(*) FILTER (WHERE dl > 0)::BIGINT AS doc_count,
         coalesce(sum(dl), 0)::BIGINT AS sum_ttf
  FROM dl
)"""


_COLLECTION = _collection()


def _idf(df: str, s: str = "s") -> str:
    return f"ln(1 + ({s}.doc_count - {df} + 0.5) / ({df} + 0.5))"


def _bm25(
    tf: str, df: str = "df.df", ql: str = "d.ql", s: str = "s",
    idf: str | None = None, sum_ttf: str = "sum_ttf",
) -> str:
    return f"""{idf or _idf(df, s)}
           * (1 - 1 / (1 + {tf} / (1.2 * ((1 - 0.75) + 0.75 * {ql}
              / ({s}.{sum_ttf} * 1.0 / {s}.doc_count)))))"""


def _postings(q: str = "q", on: str = "tf.tok = q.term") -> str:
    return f"""posting AS (
  SELECT q.*, tf.doc_id, tf.tf, tf.tok FROM {q} q JOIN tf ON {on}
),
df AS (
  SELECT qid, tok, count(*)::BIGINT AS df, sum(tf)::BIGINT AS ttf
  FROM posting GROUP BY qid, tok
)"""


def _clauses(
    score: str | None = None, joins: str = "", combine: str = "sum(score)"
) -> str:
    return f"""clause AS (
  SELECT p.*, {score or _bm25("p.tf")} AS score
  FROM posting p
  JOIN df ON df.qid = p.qid AND df.tok = p.tok
  JOIN dlq d ON d.doc_id = p.doc_id
  CROSS JOIN stats s{joins}
),
scored AS (
  SELECT qid, doc_id, {combine} AS score, count(*)::BIGINT AS nmatch
  FROM clause GROUP BY qid, doc_id
)"""


def _term_scores(score: str | None = None, q: str = "q", **kw) -> str:
    return f"{_postings(q)},\n{_clauses(score, **kw)}"


# BlendedTermQuery/SynonymQuery: every member term shares the group's
# df = max(per-term df) (search/BlendedTermQuery.java blend())
_BLEND = "blend AS (SELECT qid, max(df)::BIGINT AS df FROM df GROUP BY qid)"
_BLEND_JOIN = "\n  JOIN blend b ON b.qid = p.qid"


def _topk(
    src: str, order: str = "score::FLOAT DESC, doc_id", k: int = 10,
    out: str = "qid::BIGINT AS qid, rnk::BIGINT AS rnk, doc_id",
) -> str:
    return f"""ranked AS (
  SELECT *, row_number() OVER (PARTITION BY qid ORDER BY {order}) AS rnk
  FROM {src}
)
SELECT {out} FROM ranked WHERE rnk <= {k}"""


_TDF = "tdf AS (SELECT tok, count(*)::BIGINT AS df FROM tf GROUP BY tok)"


def _term_idf(term: str) -> str:
    return f"(SELECT {_idf('tdf.df', 'st')} FROM tdf WHERE tok = '{term}')"


def _phrase_topk(src: str, freq: str, idfs: list[str]) -> str:
    """BM25 top-10 of `src(qid, doc_id, <freq>)`, the per-doc phrase/span
    frequency, with idfs[qid] as query qid's idf (sums of _term_idf)."""
    cases = " ".join(f"WHEN {qid} THEN {idf}" for qid, idf in enumerate(idfs))
    idf = f"(CASE x.qid {cases} ELSE 0 END)"
    return f"""{_TDF},
scored AS (
  SELECT x.qid, x.doc_id,
         {_bm25(f"x.{freq}", ql="q.ql", s="st", idf=idf)} AS score
  FROM {src} x JOIN dlq q ON q.doc_id = x.doc_id CROSS JOIN stats st
),
{_topk("scored", "score DESC, doc_id", out="qid, rnk::BIGINT AS rnk, doc_id")}"""


def _en_min_stem_case(col: str) -> str:
    """EnglishMinimalStemmer (en/EnglishMinimalStemFilter.java) as one SQL
    CASE — mirrors lucene_ray.analysis.english.english_minimal_stem."""
    return f"""CASE
  WHEN len({col}) < 3 OR substr({col}, len({col}), 1) != 's' THEN {col}
  WHEN substr({col}, len({col}) - 1, 1) IN ('u', 's') THEN {col}
  WHEN len({col}) > 3 AND substr({col}, len({col}) - 1, 1) = 'e'
       AND substr({col}, len({col}) - 2, 1) = 'i'
       AND substr({col}, len({col}) - 3, 1) NOT IN ('a', 'e')
    THEN substr({col}, 1, len({col}) - 3) || 'y'
  WHEN substr({col}, len({col}) - 1, 1) = 'e'
       AND substr({col}, len({col}) - 2, 1) IN ('i', 'a', 'o', 'e') THEN {col}
  ELSE substr({col}, 1, len({col}) - 1)
END"""


def _english_stop_in() -> str:
    from lucene_ray.analysis.english import ENGLISH_STOP_WORDS

    return ", ".join(f"'{w}'" for w in sorted(ENGLISH_STOP_WORDS))


# english_minimal analyzer token stream: same tf/dl CTE names as _TOKS so
# _collection() composes over either chain.  dl = SURVIVING token count
# (FieldInvertState.length counts post-StopFilter tokens).
from lucene_ray.analysis.analyzers import DEFAULT_SYNONYMS as _DEF_SYN

_SYNONYM_VALUES = ", ".join(
    f"('{a}', '{b}')" for a, mem in sorted(_DEF_SYN.items()) for b in mem
)

_TOKS_EN = f"""
toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_PATTERN}') AS ts
  FROM documents
),
tokr AS (SELECT doc_id, unnest(ts) AS rawtok FROM toks),
keptr AS (SELECT doc_id, rawtok FROM tokr WHERE rawtok NOT IN ({_english_stop_in()})),
stemr AS (SELECT doc_id, {_en_min_stem_case('rawtok')} AS tok FROM keptr),
tf AS (SELECT doc_id, tok, count(*)::BIGINT AS tf FROM stemr GROUP BY doc_id, tok),
dl AS (
  SELECT t.doc_id, coalesce(k.n, 0)::BIGINT AS dl
  FROM toks t
  LEFT JOIN (SELECT doc_id, count(*) AS n FROM keptr GROUP BY doc_id) k
  ON k.doc_id = t.doc_id
)
"""

_SHINGLES = """
starts AS (
  SELECT doc_id, ts, unnest(range(greatest(len(ts) - 2, 1))) AS i
  FROM toks WHERE len(ts) > 0
),
sh AS (
  SELECT DISTINCT doc_id, array_to_string(ts[i + 1 : i + 3], ' ') AS shingle
  FROM starts
)
"""

_A_LIST = "[" + ", ".join(str(a) for a in MINHASH_A) + "]"
_B_LIST = "[" + ", ".join(str(b) for b in MINHASH_B) + "]"

_MINHASH = f"""
base AS (
  SELECT doc_id, (md5_number_lower(shingle) % {MINHASH_BASE_MOD})::BIGINT AS b
  FROM sh
),
perm AS (
  SELECT doc_id, p.i::BIGINT AS i,
         min((({_A_LIST})[p.i + 1]::BIGINT * b + ({_B_LIST})[p.i + 1]::BIGINT)
             % {MINHASH_P})::BIGINT AS sig
  FROM base, (SELECT unnest(range({NUM_MINHASH})) AS i) p
  GROUP BY doc_id, p.i
)
"""

_QTERMS_VALUES = ", ".join(f"({i}, '{t}')" for i, t in enumerate(ft.QUERY_TERMS))
_Q_TERMS = f"q(qid, term) AS (VALUES {_QTERMS_VALUES})"
_INDRI_AND_VALUES = ", ".join(
    f"({i}, '{t1}', '{t2}')" for i, (t1, t2) in enumerate(ft.INDRI_AND_QUERIES)
)
_MF_VALUES = ", ".join(
    f"({i}, '{t}', '{lv}')" for i, (t, lv) in enumerate(ft.MULTIFIELD_QUERIES)
)
_SORTED_VALUES = ", ".join(
    f"({i}, '{t}', '{fld}', '{d}')"
    for i, (t, fld, d) in enumerate(ft.SORTED_QUERIES)
)
_ISORT_VALUES = ", ".join(
    f"({i}, '{t}')" for i, t in enumerate(ft.INDEX_SORTED_QUERIES)
)
_SHAPE_BOX_VALUES = ", ".join(
    f"({i}, {a}, {b}, {c}, {d})"
    for i, (a, b, c, d) in enumerate(ft.SHAPE_BOX_QUERIES)
)
_SHAPE_PT_VALUES = ", ".join(
    f"({i}, {x}, {y})" for i, (x, y) in enumerate(ft.SHAPE_POINT_QUERIES)
)
_PBOX_VALUES = ", ".join(
    "({}, '{}', {}, {}, {}, {})".format(
        i, t, *("NULL" if v is None else v for v in (clo, chi, dlo, dhi))
    )
    for i, (t, clo, chi, dlo, dhi) in enumerate(ft.POINT_BOX_QUERIES)
)
_RANGEF_VALUES = ", ".join(
    f"({i}, '{t}', {lo if lo is not None else 'NULL'}, {hi if hi is not None else 'NULL'})"
    for i, (t, lo, hi) in enumerate(ft.RANGE_FILTERED_QUERIES)
)
_FILTERED_VALUES = ", ".join(
    f"({i}, '{t}', '{fld}', '{val}')"
    for i, (t, fld, val) in enumerate(ft.FILTERED_QUERIES)
)
_DISJ_VALUES = ", ".join(
    f"({qi}, '{t}')" for qi, terms in enumerate(ft.DISJUNCTIONS) for t in terms
)
_BOOSTED_VALUES = ", ".join(
    f"({qi}, '{t}', {b})"
    for qi, clauses in enumerate(ft.BOOSTED_DISJUNCTIONS)
    for t, b in clauses
)
_JOIN_VALUES = ", ".join(
    f"({qi}, '{t}')" for qi, terms in enumerate(ft.JOIN_QUERIES) for t in terms
)
_FSQ_VALUES = ", ".join(
    f"({qi}, '{t}')"
    for qi, terms in enumerate(ft.FUNCTION_SCORE_QUERIES)
    for t in terms
)
def _feature_arm_sql(
    fn_label: str, feat_expr: str, pivot_cte: bool = False, raw: bool = False
) -> str:
    """One FeatureField oracle arm: BM25 over the conjunctive text query
    (all terms MUST match) plus the feature score.  The encode CTE is the
    integer-exact image of floatToIntBits(float32(v)) >>> 15 for
    0 < v < 2^24 (e = bit_length-1; 8 surviving mantissa bits), the
    decode CTE mirrors FeatureField.decodeFeatureValue, and the pivot CTE
    (satu only) mirrors computePivotFeatureValue: trunc(float32(avg of
    encoded freqs)) decoded back."""
    extra = ""
    from_feat = "fdec"
    if pivot_cte:
        extra = """
piv AS (SELECT trunc((sum(enc)::DOUBLE / count(*))::FLOAT4)::BIGINT AS tfp FROM enc),
pivv AS (SELECT ((1.0 + (tfp % 256) / 256.0) * pow(2.0, (tfp // 256) - 127))::FLOAT4 AS p FROM piv),"""
        from_feat = "fdec CROSS JOIN pivv"
    feat_block = f"""
enc AS (
  SELECT doc_id,
         ((length(bin(n_chars)) - 1) + 127) * 256
           + (n_chars * CAST(pow(2, 23 - (length(bin(n_chars)) - 1)) AS BIGINT)
              - 8388608) // 32768 AS enc
  FROM documents WHERE n_chars > 0
),
fdec AS (
  SELECT doc_id,
         ((1.0 + (enc % 256) / 256.0) * pow(2.0, (enc // 256) - 127))::FLOAT4 AS f
  FROM enc
),{extra}
feat AS (SELECT doc_id, {feat_expr} AS fs FROM {from_feat}),"""
    if raw:
        # LongDistanceFeatureQuery: raw field value, no feature
        # quantization, every doc carries the feature
        feat_block = f"""
feat AS (SELECT doc_id, {feat_expr} AS fs FROM documents),"""
    return f"""
SELECT '{fn_label}' AS fn, r.* FROM (
WITH {_COLLECTION},
q(qid, term) AS (VALUES {_FSQ_VALUES}),
nterm AS (SELECT qid, count(*)::BIGINT AS n FROM q GROUP BY qid),
{_term_scores()},
matched AS (
  SELECT s.qid, s.doc_id, s.score
  FROM scored s JOIN nterm n ON n.qid = s.qid AND s.nmatch = n.n
),
{feat_block}
total AS (
  SELECT m.qid, m.doc_id, m.score + coalesce(ft.fs::DOUBLE, 0) AS t
  FROM matched m LEFT JOIN feat ft ON ft.doc_id = m.doc_id
),
{_topk("total", "t::FLOAT DESC, doc_id")}
) r"""


# float32-chain / double-then-cast expressions per FeatureFunction —
# literals match ft.FEATURE_ARMS (weight/a/pivot)
_FEATURE_SQL = "\nUNION ALL\n".join(
    [
        _feature_arm_sql("linear", "(0.5::FLOAT4 * f)"),
        _feature_arm_sql("log", "(1.5 * ln(2.0 + f::DOUBLE))::FLOAT4"),
        _feature_arm_sql(
            "satu", "(2.0::FLOAT4 * (1.0::FLOAT4 - (p / (f + p))))", pivot_cte=True
        ),
        _feature_arm_sql(
            "sigm", "(2.0 * (1.0 - 65536.0 / (pow(f::DOUBLE, 2.0) + 65536.0)))::FLOAT4"
        ),
        # LongDistanceFeatureQuery: boost * pivot/(pivot + |v - origin|),
        # one double expression, one float cast (literals match
        # ft.DISTANCE_FEATURE_*)
        _feature_arm_sql(
            "distance",
            "(2.0 * (500.0 / (500.0 + abs(n_chars - 300)::DOUBLE)))::FLOAT4",
            raw=True,
        ),
    ]
)

_COVERING_VALUES = ", ".join(
    f"({qi}, '{t}')"
    for qi, terms in enumerate(ft.COVERING_QUERIES)
    for t in terms
)
_GROUPED_VALUES = ", ".join(
    f"({qi}, '{t}')" for qi, terms in enumerate(ft.GROUPED_QUERIES) for t in terms
)
_SYN_VALUES = ", ".join(
    f"({qi}, '{t}', {b})"
    for qi, (terms, boosts) in enumerate(ft.SYNONYM_QUERIES)
    for t, b in zip(terms, boosts)
)

# plain BM25 top-10 over q(qid, term), ranked on the double sum
_BM25_COMMON = f"""{_term_scores()},
{_topk("scored", "score DESC, doc_id")}
"""


# One similarity arm per row: (sim label, score of one posting p over
# df (df, ttf), d = dlq, s = stats).  Every arm is a single-term query,
# so the arm ranks its clauses directly.
_SIM_ARMS = [
    # ClassicSimilarity: (ln((N+1)/(df+1)) + 1) * sqrt(tf) / sqrt(quantized dl)
    ("classic", """(ln((s.doc_count + 1) / (df.df + 1.0)) + 1) * sqrt(p.tf)
           / sqrt(greatest(d.ql, 1))"""),
    # LMDirichlet (mu=2000, p=(ttf+1)/(sumTtf+1)):
    #   max(0, ln(1 + tf/(mu*p)) + ln(mu/(ql+mu)))
    ("lmdirichlet", """greatest(
           ln(1 + p.tf / (2000.0 * (df.ttf + 1.0) / (s.sum_ttf + 1.0)))
             + ln(2000.0 / (d.ql + 2000.0)),
           0.0)"""),
    # LMJelinekMercer (lambda=0.1, p=(ttf+1)/(sumTtf+1)):
    #   max(0, ln(1 + ((1-lambda)*tf/ql) / (lambda*p)))
    ("lmjm", """greatest(
           ln(1 + (0.9 * p.tf / greatest(d.ql, 1))
                    / (0.1 * (df.ttf + 1.0) / (s.sum_ttf + 1.0))),
           0.0)"""),
    # DFR I(n)L2 (c=1): tfn = tf*log2(1+avgdl/ql);
    #   score = log2((N+1)/(df+0.5)) * tfn/(1+tfn)
    ("dfr_inl2", """greatest(
           log2((s.doc_count + 1) / (df.df + 0.5))
             * (p.tf * log2(1 + (s.sum_ttf * 1.0 / s.doc_count) / greatest(d.ql, 1)))
             / (1 + p.tf * log2(1 + (s.sum_ttf * 1.0 / s.doc_count) / greatest(d.ql, 1))),
           0.0)"""),
    # IB LL/DF/H2: lambda = (df+1)/(N+1); score = ln(1 + tfn/lambda)
    ("ib_ll", """greatest(
           ln(1 + (p.tf * log2(1 + (s.sum_ttf * 1.0 / s.doc_count) / greatest(d.ql, 1)))
                    / ((df.df + 1.0) / (s.doc_count + 1.0))),
           0.0)"""),
    # DFR G + B + H1: tfn = tf*avgdl/ql; lam = F/(N+F), F = ttf+1;
    #   score = (B - (B-A)/(1+tfn)) * (ttf+2)/(df+1),
    #   A = log2(lam+1), B = log2((1+lam)/lam)
    ("dfr_gb1", """greatest(
           (log2((1 + (df.ttf + 1.0) / (s.doc_count + df.ttf + 1.0))
                 / ((df.ttf + 1.0) / (s.doc_count + df.ttf + 1.0)))
            - (log2((1 + (df.ttf + 1.0) / (s.doc_count + df.ttf + 1.0))
                    / ((df.ttf + 1.0) / (s.doc_count + df.ttf + 1.0)))
               - log2((df.ttf + 1.0) / (s.doc_count + df.ttf + 1.0) + 1))
              / (1 + p.tf * ((s.sum_ttf * 1.0 / s.doc_count) / greatest(d.ql, 1))))
           * ((df.ttf + 2.0) / (df.df + 1.0)),
           0.0)"""),
    # DFR IF + B + H3 (mu=800): tfn = (tf + 800*(ttf+1)/(sumTtf+1))/(ql+800)*800;
    #   score = log2(1 + (N+1)/(ttf+0.5)) * (ttf+2)/(df+1) * (1 - 1/(1+tfn))
    ("dfr_ifb3", """greatest(
           log2(1 + (s.doc_count + 1) / (df.ttf + 0.5))
           * ((df.ttf + 2.0) / (df.df + 1.0))
           * (1 - 1 / (1 + (p.tf + 800.0 * ((df.ttf + 1.0) / (s.sum_ttf + 1.0)))
                           / (greatest(d.ql, 1) + 800.0) * 800.0)),
           0.0)"""),
    # DFR Ine + L + Z (z=0.30): ne = N*(1-((N-1)/N)^ttf);
    #   tfn = tf*(avgdl/ql)^0.3; score = log2((N+1)/(ne+0.5)) * (1 - 1/(1+tfn))
    ("dfr_inez", """greatest(
           log2((s.doc_count + 1)
                / (s.doc_count * (1 - power((s.doc_count - 1.0) / s.doc_count, df.ttf)) + 0.5))
           * (1 - 1 / (1 + p.tf * power((s.sum_ttf * 1.0 / s.doc_count) / greatest(d.ql, 1), 0.3))),
           0.0)"""),
    # IB SPL + TTF + H2: lam = float32((ttf+1)/(N+1)); tfn = tf*log2(1+avgdl/ql);
    #   q = 1 - 1/(tfn+1); score = -ln((lam^q - lam)/(1 - lam))
    ("ib_spl_ttf", """greatest(
           -ln((power(cast((df.ttf + 1.0) / (s.doc_count + 1.0) AS FLOAT),
                      1 - 1 / (p.tf * log2(1 + (s.sum_ttf * 1.0 / s.doc_count) / greatest(d.ql, 1)) + 1))
                - cast((df.ttf + 1.0) / (s.doc_count + 1.0) AS FLOAT))
               / (1 - cast((df.ttf + 1.0) / (s.doc_count + 1.0) AS FLOAT))),
           0.0)"""),
    # AxiomaticF2EXP (s=0.5, k=0.35):
    #   score = ((N+1)/df)^0.35 * tf/(tf + 0.5 + 0.5*ql/avgdl)
    ("ax_f2exp", """greatest(
           pow((s.doc_count + 1.0) / df.df, 0.35)
             * p.tf / (p.tf + 0.5 + 0.5 * greatest(d.ql, 1)
                        / (s.sum_ttf * 1.0 / s.doc_count)),
           0.0)"""),
    # AxiomaticF1EXP (s=0.25 k=0.35 reference defaults):
    #   ((N+1)/df)^k * (1+ln(1+ln(tf+1))) * (avgdl+s)/(avgdl+ql*s)
    ("ax_f1exp", """greatest(
           pow((s.doc_count + 1.0) / df.df, 0.35)
             * (1 + ln(1 + ln(p.tf + 1.0)))
             * ((s.sum_ttf * 1.0 / s.doc_count + 0.25)
                / (s.sum_ttf * 1.0 / s.doc_count + greatest(d.ql, 1) * 0.25)),
           0.0)"""),
    # AxiomaticF1LOG: ln((N+1)/df) * (1+ln(1+ln(tf+1))) * (avgdl+s)/(avgdl+ql*s)
    ("ax_f1log", """greatest(
           ln((s.doc_count + 1.0) / df.df)
             * (1 + ln(1 + ln(p.tf + 1.0)))
             * ((s.sum_ttf * 1.0 / s.doc_count + 0.25)
                / (s.sum_ttf * 1.0 / s.doc_count + greatest(d.ql, 1) * 0.25)),
           0.0)"""),
    # AxiomaticF2LOG (s=0.25): ln((N+1)/df) * tf/(tf + s + s*ql/avgdl)
    ("ax_f2log", """greatest(
           ln((s.doc_count + 1.0) / df.df)
             * p.tf / (p.tf + (0.25 + 0.25 * greatest(d.ql, 1)
                                 / (s.sum_ttf * 1.0 / s.doc_count))),
           0.0)"""),
    # AxiomaticF3EXP (s=0.25 k=0.35 queryLen=1):
    #   max(0, ((N+1)/df)^k * (1+ln(1+ln(tf+1))) - (ql-1)*s*1/avgdl)
    ("ax_f3exp", """greatest(
           pow((s.doc_count + 1.0) / df.df, 0.35)
             * (1 + ln(1 + ln(p.tf + 1.0)))
             - (greatest(d.ql, 1) - 1.0) * 0.25 * 1.0
                 / (s.sum_ttf * 1.0 / s.doc_count),
           0.0)"""),
    # AxiomaticF3LOG: max(0, ln((N+1)/df) * (1+ln(1+ln(tf+1))) - (ql-1)*s*1/avgdl)
    ("ax_f3log", """greatest(
           ln((s.doc_count + 1.0) / df.df)
             * (1 + ln(1 + ln(p.tf + 1.0)))
             - (greatest(d.ql, 1) - 1.0) * 0.25 * 1.0
                 / (s.sum_ttf * 1.0 / s.doc_count),
           0.0)"""),
    # SweetSpotSimilarity (ln_min=100 ln_max=400 steep=0.5, tf_base=1.5
    # tf_min=2): Classic idf * baselineTf * plateau lengthNorm
    ("sweetspot", """(ln((s.doc_count + 1) / (df.df + 1.0)) + 1)
           * (CASE WHEN p.tf <= 2.0 THEN 1.5
                   ELSE sqrt(p.tf + 2.25 - 2.0) END)
           * (CASE WHEN d.ql > 0 THEN
                1 / sqrt(0.5 * (abs(d.ql - 100) + abs(d.ql - 400) - 300) + 1)
              ELSE 0 END)"""),
    # IndriDirichletSimilarity (mu=2000, IndriCollectionModel p = ttf/sumTtf):
    # score = ln((tf + mu*p) / (dl + mu)) — negative log-probability, NO clamp
    ("indri", "ln((p.tf + 2000.0 * df.ttf / s.sum_ttf) / (d.ql + 2000.0))"),
]
# DFI (IndependenceStandardized/ChiSquared/Saturated.java): expected =
# (ttf+1)*dl/(sumTtf+1); score = 0 when tf <= expected, else
# log2(measure(tf, expected) + 1)
_DFI_EXP = "((df.ttf + 1.0) * greatest(d.ql, 1) / (s.sum_ttf + 1.0))"
_SIM_ARMS += [
    (label, f"""CASE WHEN p.tf > {_DFI_EXP}
              THEN log2({measure.format(e=_DFI_EXP)} + 1)
              ELSE 0.0 END""")
    for label, measure in [
        ("dfi_std", "(p.tf - {e}) / sqrt({e})"),
        ("dfi_chisq", "(p.tf - {e}) * (p.tf - {e}) / {e}"),
        ("dfi_sat", "(p.tf - {e}) / {e}"),
    ]
]


# the keyword lang field (ft_multifield_topk): per-FIELD stats, every doc
# is one token long; joined to a posting p whose query carries lv
_LANG_FIELD = """lstats AS (
  SELECT count(*)::BIGINT AS doc_count, count(*)::BIGINT AS sum_ttf FROM documents
),
ldf AS (SELECT lang, count(*)::BIGINT AS df FROM documents GROUP BY lang)"""
_LANG_BM25 = _bm25(
    "1", "ldf.df", ql="(SELECT max(L) FROM lt WHERE lt.L <= 1)", s="ls"
)
_LANG_JOINS = """
  JOIN documents doc ON doc.doc_id = p.doc_id AND doc.lang = p.lv
  JOIN ldf ON ldf.lang = p.lv
  CROSS JOIN lstats ls"""
# perfield_sim: the text clause scored with ClassicSimilarity, the lang
# clause with BM25, each its own float32
_PERFIELD_SCORE = f"""CAST(
           CAST({dict(_SIM_ARMS)["classic"]} AS FLOAT)::DOUBLE
           + CAST({_LANG_BM25} AS FLOAT)::DOUBLE
           AS FLOAT)"""


def _similarity_sql() -> str:
    arms = [
        (label, f"{_term_scores(score)},\n{_topk('clause')}")
        for label, score in _SIM_ARMS
    ] + [
        # BooleanSimilarity: constant score -> rank by doc_id
        ("boolean", f"{_term_scores('1.0')},\n{_topk('clause', 'doc_id')}"),
        # RawTFSimilarity: score = freq
        ("raw_tf", f"{_term_scores('1.0')},\n"
         f"{_topk('clause', '(tf * 1.0)::FLOAT DESC, doc_id')}"),
        # LegacyBM25Similarity (misc): score = (k1+1) * BM25, a monotone
        # scale, so the rank oracle is the plain BM25 ranking
        ("legacy_bm25", _BM25_COMMON),
    ]
    sql = "\nUNION ALL\n".join(
        f"""SELECT '{label}' AS sim, r.* FROM (
WITH {_COLLECTION},
{_Q_TERMS},
{body}
) r"""
        for label, body in arms
    )
    # IndriAndQuery (boosts 1.0/0.5): union match set, boost-weighted MEAN
    # of per-clause f32 Indri scores (freq=0 smoothing for absent clauses)
    return sql + f"""
UNION ALL
SELECT 'indri_and', r.* FROM (
WITH {_COLLECTION},
q(qid, t1, t2) AS (VALUES {_INDRI_AND_VALUES}),
ttfs AS (SELECT tok, sum(tf)::BIGINT AS ttf FROM tf GROUP BY tok),
union_docs AS (
  SELECT DISTINCT q.qid, tf.doc_id
  FROM q JOIN tf ON tf.tok IN (q.t1, q.t2)
),
scored AS (
  SELECT u.qid, u.doc_id,
         ((CAST(ln((coalesce(f1.tf, 0) + 2000.0 * x1.ttf / st.sum_ttf)
                   / (d.ql + 2000.0)) AS FLOAT4)::DOUBLE * 1.0
           + CAST(ln((coalesce(f2.tf, 0) + 2000.0 * x2.ttf / st.sum_ttf)
                     / (d.ql + 2000.0)) AS FLOAT4)::DOUBLE * 0.5)
          / 1.5) AS score
  FROM union_docs u
  JOIN q ON q.qid = u.qid
  LEFT JOIN tf f1 ON f1.doc_id = u.doc_id AND f1.tok = q.t1
  LEFT JOIN tf f2 ON f2.doc_id = u.doc_id AND f2.tok = q.t2
  JOIN ttfs x1 ON x1.tok = q.t1
  JOIN ttfs x2 ON x2.tok = q.t2
  JOIN dlq d ON d.doc_id = u.doc_id
  CROSS JOIN stats st
),
{_topk("scored")}
) r
"""


def _dyn_range_sql() -> str:
    """DynamicRangeUtil.computeDynamicNumericRanges mirrored in SQL: the
    greedy 'accumulate weight until >= totalWeight/min(topN,len), then
    reset' scan is unrolled into DYN_TOPN chained break-finding CTEs
    (break k = first sorted row whose cumulative weight reaches break
    k-1's cumulative weight + target), plus a terminal pseudo-break for
    the remainder range.  Emits the same three integer facet rows as the
    engine: count / weight / value-sum per range."""
    cte = [
        f"""
dynsrc AS (
  SELECT qid, n_chars AS v, (n_chars % {ft.DYN_WEIGHT_MOD})::BIGINT AS w
  FROM m WHERE n_chars % {ft.DYN_WEIGHT_MOD} <> 0
),
dynsort AS (
  SELECT qid, v, w,
         row_number() OVER (PARTITION BY qid ORDER BY v, w) AS rn,
         sum(w) OVER (PARTITION BY qid ORDER BY v, w
                      ROWS UNBOUNDED PRECEDING) AS cw,
         sum(v) OVER (PARTITION BY qid ORDER BY v, w
                      ROWS UNBOUNDED PRECEDING) AS cv
  FROM dynsrc
),
dyntgt AS (
  SELECT qid, count(*)::BIGINT AS len,
         sum(w) * 1.0 / least({ft.DYN_TOPN}, count(*)) AS target
  FROM dynsrc GROUP BY qid
),
dynb0 AS (SELECT qid, 0::BIGINT AS brk, 0::BIGINT AS cw FROM dyntgt)"""
    ]
    for k in range(1, ft.DYN_TOPN + 1):
        cte.append(
            f"""
dynm{k} AS (
  SELECT p.qid, min(s.rn) AS brk
  FROM dynb{k - 1} p
  JOIN dyntgt t ON t.qid = p.qid
  JOIN dynsort s ON s.qid = p.qid AND s.cw >= p.cw + t.target
  GROUP BY p.qid
),
dynb{k} AS (
  SELECT b.qid, b.brk, s.cw FROM dynm{k} b
  JOIN dynsort s ON s.qid = b.qid AND s.rn = b.brk
)"""
        )
    unions = " UNION ALL ".join(
        f"SELECT qid, brk FROM dynb{k}" for k in range(ft.DYN_TOPN + 1)
    )
    cte.append(
        f"""
dynbrk AS ({unions}),
dynedge AS (
  SELECT qid, brk FROM dynbrk
  UNION ALL
  SELECT t.qid, t.len FROM dyntgt t
  WHERE t.len > (SELECT max(brk) FROM dynbrk b WHERE b.qid = t.qid)
),
dynrng AS (
  SELECT qid, brk,
         lag(brk) OVER (PARTITION BY qid ORDER BY brk) AS pbrk,
         row_number() OVER (PARTITION BY qid ORDER BY brk) - 2 AS k
  FROM dynedge
),
dynout AS (
  SELECT r.qid,
         r.k::VARCHAR || ':[' || lo.v::VARCHAR || ',' || hi.v::VARCHAR
           || ']' AS lab,
         (r.brk - r.pbrk)::BIGINT AS cnt,
         (hi.cw - coalesce(pb.cw, 0))::BIGINT AS wsum,
         (hi.cv - coalesce(pb.cv, 0))::BIGINT AS vsum
  FROM dynrng r
  JOIN dynsort lo ON lo.qid = r.qid AND lo.rn = r.pbrk + 1
  JOIN dynsort hi ON hi.qid = r.qid AND hi.rn = r.brk
  LEFT JOIN dynsort pb ON pb.qid = r.qid AND pb.rn = r.pbrk
  WHERE r.pbrk IS NOT NULL
)"""
    )
    return ",".join(cte)


def _lang_sql() -> str:
    from lucene_ray.ops.text import LANG_WORDS

    langs = sorted(LANG_WORDS)
    count_cols = ",\n  ".join(
        "len(list_filter(ts, x -> list_contains(["
        + ", ".join(f"'{w}'" for w in LANG_WORDS[lang])
        + f"], x)))::BIGINT AS c_{lang}"
        for lang in langs
    )
    # alphabetically-first max wins ties
    branches = []
    for lang in langs[:-1]:
        conds = " AND ".join(f"c_{lang} >= c_{o}" for o in langs if o > lang)
        branches.append(f"WHEN {conds} THEN '{lang}'")
    case = "CASE " + " ".join(branches) + f" ELSE '{langs[-1]}' END"
    return f"""
WITH {_TOKS},
counted AS (SELECT doc_id, {count_cols} FROM toks)
SELECT doc_id, {", ".join(f"c_{lang}" for lang in langs)}, {case} AS lang_pred
FROM counted
"""


def _doc_stats_sql() -> str:
    """token_stats + quality_stats columns in one per-doc table (matches
    ops/text.doc_stats_batch)."""
    from lucene_ray.ops.text import EN_STOPWORDS

    stop_list = ", ".join(f"'{w}'" for w in EN_STOPWORDS)
    return f"""
WITH {_TOKS},
u AS (
  SELECT doc_id, count(*)::BIGINT AS n_unique, max(tf)::BIGINT AS max_tf
  FROM tf GROUP BY doc_id
),
ex AS (
  SELECT doc_id, unnest(ts) AS tok, unnest(range(len(ts))) AS i FROM toks
),
big AS (
  SELECT a.doc_id, a.tok AS w1, b.tok AS w2, count(*)::BIGINT AS c
  FROM ex a JOIN ex b ON b.doc_id = a.doc_id AND b.i = a.i + 1
  GROUP BY 1, 2, 3
),
rep AS (
  SELECT doc_id, max(c)::BIGINT AS max_bigram_tf,
         sum(c - 1)::BIGINT AS dup_bigram_extra
  FROM big GROUP BY doc_id
)
SELECT t.doc_id, len(ts)::BIGINT AS n_tokens,
       coalesce(u.n_unique, 0)::BIGINT AS n_unique,
       coalesce(u.max_tf, 0)::BIGINT AS max_tf,
       length(d.text)::BIGINT AS n_chars,
       len(regexp_extract_all(d.text,
           ' ?[\\p{{L}}]+| ?[\\p{{N}}]+| ?[^\\s\\p{{L}}\\p{{N}}]+'))::BIGINT AS n_bpe_tokens,
       length(regexp_replace(d.text, '[^a-zA-Z]', '', 'g'))::BIGINT AS n_alpha,
       len(list_filter(ts, x -> list_contains([{stop_list}], x)))::BIGINT AS n_stop,
       len(string_split(d.text, ' '))::BIGINT AS n_ws_tokens,
       (CASE WHEN len(ts) >= 10
              AND len(list_filter(ts, x -> list_contains([{stop_list}], x))) * 50
                  <= len(ts) * 45
             THEN 1 ELSE 0 END)::BIGINT AS is_quality,
       coalesce(r.max_bigram_tf, 0)::BIGINT AS max_bigram_tf,
       coalesce(r.dup_bigram_extra, 0)::BIGINT AS dup_bigram_extra
FROM toks t JOIN documents d USING (doc_id) LEFT JOIN u USING (doc_id)
LEFT JOIN rep r USING (doc_id)
"""


# the token-position CTEs of the positional oracles: `s` = one row per
# (doc, position i, the doc's token list ts), `p` = (doc_id, tok, i)
_S_CTE = "s AS (SELECT doc_id, ts, unnest(range(len(ts))) AS i FROM toks WHERE len(ts) > 0)"
_SPAN_POS_CTE = f"{_S_CTE},\np AS (SELECT doc_id, ts[i + 1] AS tok, i FROM s)"


def _union_cte(name: str, parts: list[str], pos: str = _SPAN_POS_CTE) -> str:
    """The ``pos`` CTEs, then ``name`` AS the UNION ALL of the per-query
    ``parts``."""
    return f"{pos},\n{name} AS (" + " UNION ALL ".join(parts) + ")"


def _term_stats(src: str = "tfs") -> str:
    """(term, doc_freq, total_term_freq) over a (doc_id, tok, tf) relation."""
    return (
        "SELECT tok AS term, count(*)::BIGINT AS doc_freq, sum(tf)::BIGINT AS total_term_freq\n"
        f"FROM {src} GROUP BY tok"
    )


def _path_tokens(name: str, slice_: str) -> str:
    """The PathHierarchyTokenizer arms' tokens: the derived
    source/lang/bN/doc_N.txt path split on '/', one token per ``slice_``
    of the parts ``ps`` at 1-based part index i."""
    return f"""{name}p AS (
  SELECT doc_id, string_split(
           source || '/' || lang || '/b' || CAST(doc_id % 10 AS VARCHAR)
           || '/doc_' || CAST(doc_id AS VARCHAR) || '.txt', '/') AS ps
  FROM documents
),
{name} AS (
  SELECT doc_id, array_to_string({slice_}, '/') AS tok
  FROM (SELECT doc_id, ps, unnest(range(1, len(ps) + 1)) AS i FROM {name}p)
)"""


def _term_stats_sql() -> str:
    """ft_term_stats: one arm per analyzer.  A token arm is (label, CTEs,
    token relation): the CTEs end in a (doc_id, tok) relation holding one
    row per emitted token, counted into tf per (doc, term); a golden arm
    maps doc_id % 10 to a pinned per-template (t, term, tf) list (the
    VALUES-mapped pattern of the lattice tokenizers and ICU folding)."""
    def grams(gram: str, src: str = "g1") -> str:  # 1..2-char grams per token
        return f"""{_TOKS},
g1 AS (
  SELECT doc_id, tok, unnest(range(1, least(length(tok), 2) + 1)) AS g FROM tok
),
grams AS (SELECT doc_id, {gram} AS tok FROM {src})"""

    pairs = "spos AS (SELECT doc_id, ts, unnest(range(len(ts))) AS i FROM toks WHERE len(ts) > 1)"
    ith = "ts[CAST(i AS INT) + 1]"
    nxt = "ts[CAST(i AS INT) + 2]"
    token_arms = [
        ("standard", _TOKS, "tok"),
        # code analyzer: WordDelimiter-lite camelCase / snake_case split
        ("code", """runs AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS run
  FROM documents
),
subs AS (
  SELECT doc_id,
         unnest(string_split_regex(
           lower(regexp_replace(run, '([a-z0-9])([A-Z])', '\\1 \\2', 'g')),
           '[ _]+')) AS tok
  FROM runs
),
kept AS (SELECT doc_id, tok FROM subs WHERE tok != '')""", "kept"),
        ("english_minimal", _TOKS_EN, "stemr"),
        ("synonym", f"""{_TOKS},
syn(a, b) AS (VALUES {_SYNONYM_VALUES}),
expanded AS (
  SELECT doc_id, tok FROM tok
  UNION ALL
  SELECT t.doc_id, s.b FROM tok t JOIN syn s ON s.a = t.tok
)""", "expanded"),
        # CommonGramsFilter: unigrams + '_'-joined bigrams for adjacent
        # pairs where either side is a common word
        ("common_grams", f"""{_TOKS},
{pairs},
grams AS (
  SELECT doc_id, {ith} || '_' || {nxt} AS tok
  FROM spos
  WHERE i < len(ts) - 1
    AND ({ith} IN ('key', 'order', 'scan') OR {nxt} IN ('key', 'order', 'scan'))
),
allt AS (SELECT doc_id, tok FROM tok UNION ALL SELECT doc_id, tok FROM grams)""", "allt"),
        # EdgeNGramTokenFilter (min_gram=1, max_gram=2 Lucene defaults):
        # each token contributes its 1..min(len,2)-char prefixes
        ("edge_ngram", grams("substr(tok, 1, CAST(g AS INT))"), "grams"),
        # NGramTokenFilter (same defaults): each token contributes ALL its
        # 1..2-char substrings (every occurrence counted)
        ("ngram", grams(
            "substr(tok, CAST(i AS INT), CAST(g AS INT))",
            "(SELECT doc_id, tok, g, unnest(range(1, length(tok) - g + 2)) AS i FROM g1)",
        ), "grams"),
        # ReverseStringFilter: every token reversed (the leading-wildcard shape)
        ("reverse", f"{_TOKS},\nrev AS (SELECT doc_id, reverse(tok) AS tok FROM tok)", "rev"),
        # MappingCharFilter: literal rewrites BEFORE tokenization (rules
        # are non-overlapping, so sequential replace == the engine's scan)
        ("mapped", f"""toksm AS (
  SELECT doc_id,
         unnest(regexp_extract_all(replace(replace(lower(text), 'spark', 'fire'),
                                           'group by', 'groupby'),
                                   '{TOKEN_PATTERN}')) AS tok
  FROM documents
)""", "toksm"),
        # CustomAnalyzer chain: LimitTokenCount(40) -> PatternReplace(strip
        # vowels) -> Truncate(6) -> Length(min 2)
        ("custom_chain", f"""mappedc AS (
  SELECT doc_id, substr(regexp_replace(tok, '[aeiou]', '', 'g'), 1, 6) AS tok
  FROM (SELECT doc_id,
               unnest(list_slice(regexp_extract_all(lower(text), '{TOKEN_PATTERN}'), 1, 40)) AS tok
        FROM documents)
),
keptc AS (SELECT doc_id, tok FROM mappedc WHERE length(tok) >= 2)""", "keptc"),
        # PatternTokenizer (match mode, '[a-z]{3,}') + LowerCase
        ("pattern", """tokp AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]{3,}')) AS tok
  FROM documents
)""", "tokp"),
        # FingerprintFilter (miscellaneous/FingerprintFilter.java): one
        # token per doc = sorted de-duplicated tokens joined by ' ';
        # >1024 chars emits none
        ("fingerprint", f"""{_TOKS},
fps AS (
  SELECT doc_id, array_to_string(list_sort(list_distinct(ts)), ' ') AS tok
  FROM toks WHERE len(ts) > 0
),
fpk AS (SELECT doc_id, tok FROM fps WHERE length(tok) <= 1024)""", "fpk"),
        # KeywordRepeatFilter -> EnglishMinimalStem -> RemoveDuplicates:
        # each occurrence emits the original and (when different) its stem
        ("keyword_repeat", f"""{_TOKS},
pairs AS (
  SELECT doc_id, unnest(list_distinct([tok, {_en_min_stem_case('tok')}])) AS tok
  FROM tok
)""", "pairs"),
        # SynonymGraphFilter multi-token rules + FlattenGraph, expand
        # mode: phrase "order by" => orderby, word spark => "fire storm"
        ("synonym_graph", f"""{_TOKS},
{pairs},
grams AS (
  SELECT doc_id, 'orderby' AS tok
  FROM spos
  WHERE i < len(ts) - 1 AND {ith} = 'order' AND {nxt} = 'by'
),
expd AS (SELECT doc_id, unnest(['fire', 'storm']) AS tok FROM tok WHERE tok = 'spark'),
allt AS (
  SELECT doc_id, tok FROM tok
  UNION ALL SELECT doc_id, tok FROM grams
  UNION ALL SELECT doc_id, tok FROM expd
)""", "allt"),
        # PathHierarchyTokenizer: each path emits its cumulative
        # '/'-prefixes; ReversePathHierarchyTokenizer its '/'-suffixes
        ("path_hierarchy", _path_tokens("pathf", "ps[1:CAST(i AS INT)]"), "pathf"),
        ("path_hierarchy_reverse", _path_tokens("pathr", "ps[CAST(i AS INT):len(ps)]"), "pathr"),
        # ClassicAnalyzer over the derived contact line: the grammar's
        # expected tokens by construction (HOST src.io, NUM en/docN +
        # version + date, EMAIL, APOSTROPHE-'s, ACRONYM dots removed,
        # COMPANY; 'or'/'on' stopped, 'visit' twice)
        ("classic", """tokcl AS (
  SELECT doc_id, unnest([
    'visit', 'visit', 'https', source || '.io',
    lang || '/doc' || CAST(doc_id AS VARCHAR),
    'email',
    'user_' || CAST(doc_id AS VARCHAR) || '@' || source || '.example.com',
    're', 'o''brien', 'usa', 'at&t', 'rev',
    '1.' || CAST(doc_id % 7 AS VARCHAR) || '.' || CAST(doc_id % 13 AS VARCHAR),
    '2024-03-' || CAST(doc_id % 28 + 1 AS VARCHAR)
  ]) AS tok FROM documents
)""", "tokcl"),
        # UAX29URLEmailAnalyzer over the same line: whole URL + EMAIL
        # tokens, UAX#29 for the rest (u.s.a keeps inner dots, AT&T splits
        # and 'at' is stopped, the date splits on hyphens)
        ("uax29_url_email", """tokue AS (
  SELECT doc_id, unnest([
    'visit', 'visit',
    'https://' || source || '.io/' || lang || '/doc' || CAST(doc_id AS VARCHAR),
    'email',
    'user_' || CAST(doc_id AS VARCHAR) || '@' || source || '.example.com',
    're', 'o''brien''s', 'u.s.a', 't', 'rev',
    '1.' || CAST(doc_id % 7 AS VARCHAR) || '.' || CAST(doc_id % 13 AS VARCHAR),
    '2024', '03', CAST(doc_id % 28 + 1 AS VARCHAR)
  ]) AS tok FROM documents
)""", "tokue"),
        # CJKBigramFilter over 'cjk <han(doc_id)> mid かな end': the Han
        # numerals form one bigram run (unigram when doc_id has one
        # digit), the kana pair another; ASCII words pass through
        ("cjk_bigram", f"""basec AS (
  SELECT doc_id,
         translate(CAST(doc_id AS VARCHAR), '0123456789', '{ft.HAN_DIGITS}') AS h
  FROM documents
),
tokcj AS (
  SELECT doc_id, substr(h, CAST(i AS INT), 2) AS tok
  FROM (SELECT doc_id, h, unnest(range(1, greatest(length(h) - 1, 1) + 1)) AS i
        FROM basec)
  UNION ALL SELECT doc_id, unnest(['cjk', 'mid', 'かな', 'end']) FROM documents
)""", "tokcj"),
    ]
    arms = [
        f"""SELECT '{label}' AS analyzer, a{i}.* FROM (
WITH {ctes},
tfs AS (SELECT doc_id, tok, count(*)::BIGINT AS tf FROM {src} GROUP BY doc_id, tok)
{_term_stats()}
) a{i}"""
        for i, (label, ctes, src) in enumerate(token_arms)
    ]
    # the lattice tokenizers (ja kuromoji-style, ko nori-style, zh
    # smartcn-style) and ICU folding: the segmentation is the pinned
    # golden list (ft.*_GOLDENS, asserted by their analyzer tests)
    for label, goldens in (
        ("ja", ft.JA_GOLDENS), ("ko", ft.KO_GOLDENS),
        ("icu_folding", ft.ICU_GOLDENS), ("zh", ft.ZH_GOLDENS),
    ):
        arms.append(f"""SELECT '{label}' AS analyzer, a{len(arms)}.* FROM (
WITH gt(t, tok, tf) AS (VALUES {ft.goldens_sql_values(goldens)}),
tfs AS (SELECT d.doc_id, gt.tok, gt.tf FROM documents d JOIN gt ON d.doc_id % 10 = gt.t)
{_term_stats()}
) a{len(arms)}""")
    return "\nUNION ALL\n".join(arms)


def _phrase_match_sql() -> str:
    """Per-phrase (qid, doc_id, pf) via consecutive-position checks."""
    parts = []
    for qid, words in enumerate(ft.PHRASES):
        n = len(words)
        conds = " AND ".join(f"ts[i + {k + 1}] = '{w}'" for k, w in enumerate(words))
        parts.append(
            f"SELECT {qid}::BIGINT AS qid, doc_id, count(*)::BIGINT AS pf "
            f"FROM s WHERE i + {n} <= len(ts) AND {conds} GROUP BY doc_id"
        )
    return _union_cte("ph", parts, _S_CTE)


def _multi_phrase_sql() -> str:
    """Per-position alternatives: ts[i+k] IN (alts_k) consecutive checks."""
    parts = []
    for qid, slots in enumerate(ft.MULTI_PHRASES):
        n = len(slots)
        conds = " AND ".join(
            "ts[i + {}] IN ({})".format(k + 1, ", ".join(f"'{w}'" for w in alts))
            for k, alts in enumerate(slots)
        )
        parts.append(
            f"SELECT {qid}::BIGINT AS qid, doc_id, count(*)::BIGINT AS pf "
            f"FROM s WHERE i + {n} <= len(ts) AND {conds} GROUP BY doc_id"
        )
    return _union_cte("mph", parts, _S_CTE)


def _proximity_sql() -> str:
    """Unordered within-window co-occurrence: k-way positions join with
    greatest - least + 1 <= W (Intervals.unordered maxwidth analogue)."""
    parts = []
    for qid, (terms, w) in enumerate(ft.PROXIMITY_QUERIES):
        aliases = [f"p{i}" for i in range(len(terms))]
        froms = ", ".join(f"p {a}" for a in aliases)
        conds = " AND ".join(
            [f"{a}.doc_id = p0.doc_id" for a in aliases[1:]]
            + [f"{a}.tok = '{t}'" for a, t in zip(aliases, terms)]
        )
        g = ", ".join(f"{a}.i" for a in aliases)
        parts.append(
            f"SELECT DISTINCT {qid}::BIGINT AS qid, p0.doc_id FROM {froms} "
            f"WHERE {conds} AND greatest({g}) - least({g}) + 1 <= {w}"
        )
    return _union_cte("prox", parts)


def _containing_sql() -> str:
    """Intervals.containing / notContaining: MINIMAL covering windows
    ((l, r) covers all terms, but neither (l+1, r) nor (l, r-1) does —
    exactly the sweep's minimal-interval set), width-filtered, then kept by
    [non-]containment of the filter term."""
    parts = []
    for qid, (terms, w, f, neg) in enumerate(ft.CONTAINING_QUERIES):
        tin = ", ".join(f"'{t}'" for t in dict.fromkeys(terms))

        def cover(lo: str, hi: str) -> str:
            return " AND ".join(
                f"EXISTS (SELECT 1 FROM p x WHERE x.doc_id = a.doc_id "
                f"AND x.tok = '{t}' AND x.i BETWEEN {lo} AND {hi})"
                for t in dict.fromkeys(terms)
            )

        exist = "NOT EXISTS" if neg else "EXISTS"
        parts.append(
            f"SELECT {qid}::BIGINT AS qid, doc_id, count(*)::BIGINT AS n FROM ("
            f"  SELECT a.doc_id, a.i AS l, b.i AS r FROM p a, p b"
            f"  WHERE b.doc_id = a.doc_id AND a.tok IN ({tin}) AND b.tok IN ({tin})"
            f"    AND b.i >= a.i AND b.i - a.i + 1 <= {w}"
            f"    AND {cover('a.i', 'b.i')}"
            f"    AND NOT ({cover('a.i + 1', 'b.i')})"
            f"    AND NOT ({cover('a.i', 'b.i - 1')})"
            f") wnd WHERE {exist} (SELECT 1 FROM p f WHERE f.doc_id = wnd.doc_id "
            f"AND f.tok = '{f}' AND f.i BETWEEN wnd.l AND wnd.r) "
            f"GROUP BY doc_id"
        )
    return _union_cte("cprox", parts)


def _or_proximity_sql() -> str:
    """Unordered minimal windows where each SLOT is a term disjunction
    (Intervals.unordered over Intervals.or): coverage per slot = any
    alternative present in the window."""
    parts = []
    for qid, (slots, w) in enumerate(ft.OR_PROXIMITY_QUERIES):
        all_terms = ", ".join(
            f"'{t}'" for t in dict.fromkeys(t for s in slots for t in s)
        )

        def cover(lo: str, hi: str) -> str:
            return " AND ".join(
                "EXISTS (SELECT 1 FROM p x WHERE x.doc_id = a.doc_id "
                f"AND x.tok IN ({', '.join(chr(39) + t + chr(39) for t in s)}) "
                f"AND x.i BETWEEN {lo} AND {hi})"
                for s in slots
            )

        parts.append(
            f"SELECT {qid}::BIGINT AS qid, doc_id, count(*)::BIGINT AS n FROM ("
            f"  SELECT a.doc_id, a.i AS l, b.i AS r FROM p a, p b"
            f"  WHERE b.doc_id = a.doc_id AND a.tok IN ({all_terms}) AND b.tok IN ({all_terms})"
            f"    AND b.i >= a.i AND b.i - a.i + 1 <= {w}"
            f"    AND {cover('a.i', 'b.i')}"
            f"    AND NOT ({cover('a.i + 1', 'b.i')})"
            f"    AND NOT ({cover('a.i', 'b.i - 1')})"
            f") wnd GROUP BY doc_id"
        )
    return _union_cte("orprox", parts)


def _ordered_proximity_sql() -> str:
    """Ordered chains: count DISTINCT first-term positions p0 admitting an
    increasing chain p0 < p1 < ... within the window (equivalent to the
    engine's greedy-chain check: greedy minimizes the chain end)."""
    parts = []
    for qid, (terms, w) in enumerate(ft.PROXIMITY_QUERIES):
        aliases = [f"p{i}" for i in range(len(terms))]
        froms = ", ".join(f"p {a}" for a in aliases)
        conds = (
            [f"{a}.doc_id = p0.doc_id" for a in aliases[1:]]
            + [f"{a}.tok = '{t}'" for a, t in zip(aliases, terms)]
            + [f"{aliases[i]}.i < {aliases[i+1]}.i" for i in range(len(terms) - 1)]
            + [f"{aliases[-1]}.i - p0.i + 1 <= {w}"]
        )
        parts.append(
            f"SELECT {qid}::BIGINT AS qid, p0.doc_id, "
            f"count(DISTINCT p0.i)::BIGINT AS n_starts "
            f"FROM {froms} WHERE {' AND '.join(conds)} GROUP BY p0.doc_id"
        )
    return _union_cte("oprox", parts)


def _span_sub(node) -> str:
    """Compile one SpanQuery AST node to a subquery producing its doc's
    FULL DISTINCT span set (doc_id, s, e) — term = positions, or = UNION
    (dedup), near = k-way span join with the SpanNearQuery width rule
    ((span width) - sum(child widths) <= slop; ordered adds e_i < s_{i+1}),
    not/first/containing/within = row filters.  The compiler walks the
    SAME AST the engine evaluates (search/spans.py), so set and count are
    a true semantic cross-check."""
    from lucene_ray.search.spans import (
        SpanContaining,
        SpanFieldMasked,
        SpanFirst,
        SpanNear,
        SpanNot,
        SpanOr,
        SpanPositionRange,
        SpanTerm,
        SpanWithin,
    )

    def sub(node, ptab: str = "p") -> str:
        if isinstance(node, SpanFieldMasked):
            # FieldMaskingSpanQuery: the child reads the masked field's
            # positions table; everything above composes them unchanged
            return sub(node.child, f"p_{node.field}")
        if isinstance(node, SpanTerm):
            return f"(SELECT doc_id, i AS s, i AS e FROM {ptab} WHERE tok = '{node.term}')"
        if isinstance(node, SpanOr):
            u = " UNION ".join(
                f"SELECT doc_id, s, e FROM {sub(c, ptab)} AS u{i}"
                for i, c in enumerate(node.children)
            )
            return f"({u})"
        if isinstance(node, SpanNear):
            k = len(node.children)
            al = [f"c{i}" for i in range(k)]
            froms = ", ".join(f"{sub(c, ptab)} {a}" for c, a in zip(node.children, al))
            conds = [f"{a}.doc_id = c0.doc_id" for a in al[1:]]
            wsum = " + ".join(f"({a}.e - {a}.s + 1)" for a in al)
            if node.in_order:
                conds += [f"{al[i]}.e < {al[i + 1]}.s" for i in range(k - 1)]
                span_s, span_e = "c0.s", f"{al[-1]}.e"
            else:
                span_s = "least(" + ", ".join(f"{a}.s" for a in al) + ")"
                span_e = "greatest(" + ", ".join(f"{a}.e" for a in al) + ")"
            conds.append(f"({span_e} - {span_s} + 1) - ({wsum}) <= {node.slop}")
            return (
                f"(SELECT DISTINCT c0.doc_id AS doc_id, {span_s} AS s, "
                f"{span_e} AS e FROM {froms} WHERE {' AND '.join(conds)})"
            )
        if isinstance(node, SpanNot):
            return (
                f"(SELECT i.doc_id, i.s, i.e FROM {sub(node.include, ptab)} i "
                f"WHERE NOT EXISTS (SELECT 1 FROM {sub(node.exclude, ptab)} x "
                f"WHERE x.doc_id = i.doc_id AND x.s <= i.e + {node.post} "
                f"AND x.e >= i.s - {node.pre}))"
            )
        if isinstance(node, SpanFirst):
            return (
                f"(SELECT doc_id, s, e FROM {sub(node.child, ptab)} f "
                f"WHERE e < {node.end})"
            )
        if isinstance(node, SpanPositionRange):
            return (
                f"(SELECT doc_id, s, e FROM {sub(node.child, ptab)} f "
                f"WHERE s >= {node.start} AND e < {node.end})"
            )
        if isinstance(node, SpanContaining):
            return (
                f"(SELECT b.doc_id, b.s, b.e FROM {sub(node.big, ptab)} b "
                f"WHERE EXISTS (SELECT 1 FROM {sub(node.little, ptab)} l "
                f"WHERE l.doc_id = b.doc_id AND b.s <= l.s AND l.e <= b.e))"
            )
        assert isinstance(node, SpanWithin)
        return (
            f"(SELECT l.doc_id, l.s, l.e FROM {sub(node.little, ptab)} l "
            f"WHERE EXISTS (SELECT 1 FROM {sub(node.big, ptab)} b "
            f"WHERE b.doc_id = l.doc_id AND b.s <= l.s AND l.e <= b.e))"
        )

    return sub(node)


def _spans_sql() -> str:
    """Per-doc distinct-span counts for every SpanQuery AST (see
    _span_sub)."""
    parts = [
        f"SELECT {qid}::BIGINT AS qid, doc_id, count(*)::BIGINT AS n "
        f"FROM {_span_sub(q)} r GROUP BY doc_id"
        for qid, q in enumerate(ft._span_queries())
    ]
    return _union_cte("spn", parts)


def _masked_spans_sql() -> str:
    """FieldMaskingSpanQuery arm: the title field's positions ARE the
    first TITLE_TOKENS text positions (the titled corpus derives title =
    first-5-token join, both tokenized by the same pattern), so the
    masked positions table is one row filter on p."""
    parts = [
        f"SELECT {qid}::BIGINT AS qid, doc_id, count(*)::BIGINT AS n "
        f"FROM {_span_sub(q)} r GROUP BY doc_id"
        for qid, q in enumerate(ft._masked_span_queries())
    ]
    return _union_cte(
        "mspn", parts,
        f"{_SPAN_POS_CTE},\np_title AS (SELECT doc_id, tok, i FROM p WHERE i < {ft.TITLE_TOKENS})",
    )


def _span_topk_sql() -> str:
    """BM25 top-k over distinct-span counts — the SpanScoreQuery oracle:
    freq = the span count from _span_sub, idf = sum of the BM25 idfs over
    EVERY term occurrence in the tree (SpanWeight.buildSimWeight)."""
    from lucene_ray.search.spans import span_terms

    qs = ft._span_queries()
    counts = " UNION ALL ".join(
        f"SELECT {qid}::BIGINT AS qid, doc_id, count(*)::BIGINT AS n "
        f"FROM {_span_sub(q)} r GROUP BY doc_id"
        for qid, q in enumerate(qs)
    )
    idfs = [" + ".join(_term_idf(w) for w in span_terms(node)) for node in qs]
    return f"""
WITH {_COLLECTION},
{_SPAN_POS_CTE},
spc AS ({counts}),
{_phrase_topk("spc", "n", idfs)}
"""


def _surround_sql() -> str:
    """Compile each surround query's parsed AST straight to a match-set
    predicate over the positions table p — booleans become AND/OR/AND NOT
    of EXISTS, distance nodes a k-way positions join with the SpanNear
    width rule (span <= k + dist - 1; ordered adds strictly-increasing
    positions), truncation becomes LIKE over the token column.  The
    compiler walking the same AST the engine evaluates makes the oracle a
    true semantic cross-check rather than a second hand-derivation."""
    from lucene_ray.search.surround import SBool, SProx, STerm, parse_surround

    def tokcond(node, a: str) -> str:
        if isinstance(node, STerm):
            if "*" in node.text or "?" in node.text:
                pat = (
                    node.text.replace("\\", "\\\\")
                    .replace("%", "\\%")
                    .replace("_", "\\_")
                    .replace("*", "%")
                    .replace("?", "_")
                )
                return f"{a}.tok LIKE '{pat}' ESCAPE '\\'"
            return f"{a}.tok = '{node.text}'"
        assert isinstance(node, SBool) and node.op == "or"
        return "(" + " OR ".join(tokcond(c, a) for c in node.children) + ")"

    def pred(node) -> str:
        if isinstance(node, STerm):
            return (
                "EXISTS (SELECT 1 FROM p x WHERE x.doc_id = d.doc_id "
                f"AND {tokcond(node, 'x')})"
            )
        if isinstance(node, SBool):
            a, b = (pred(c) for c in node.children)
            return {
                "and": f"({a} AND {b})",
                "or": f"({a} OR {b})",
                "not": f"({a} AND NOT {b})",
            }[node.op]
        assert isinstance(node, SProx)
        k = len(node.children)
        win = k + node.dist - 1
        aliases = [f"a{i}" for i in range(k)]
        froms = ", ".join(f"p {a}" for a in aliases)
        conds = [f"{a}.doc_id = d.doc_id" for a in aliases]
        conds += [tokcond(c, a) for a, c in zip(aliases, node.children)]
        if node.ordered:
            conds += [f"{aliases[i]}.i < {aliases[i + 1]}.i" for i in range(k - 1)]
            conds.append(f"{aliases[-1]}.i - {aliases[0]}.i + 1 <= {win}")
        else:
            g = ", ".join(f"{a}.i" for a in aliases)
            conds.append(f"greatest({g}) - least({g}) + 1 <= {win}")
        return f"EXISTS (SELECT 1 FROM {froms} WHERE {' AND '.join(conds)})"

    parts = [
        f"SELECT {qid}::BIGINT AS qid, d.doc_id FROM documents d "
        f"WHERE {pred(parse_surround(qs))}"
        for qid, qs in enumerate(ft.SURROUND_QUERIES)
    ]
    return _union_cte("sur", parts)


def _phrase_sloppy_sql() -> str:
    """k-term sloppy phrase tuple counts: greatest(p_i - i) - least(p_i - i)
    <= slop (the match-width oracle for search/multiterm.
    sloppy_phrase_matches_segment; for 2 terms this is |pb - pa - 1| <=
    slop)."""
    parts = []
    for qid, (terms, slop) in enumerate(ft.SLOPPY_PHRASES):
        joins = " ".join(f"JOIN p p{i} USING (doc_id)" for i in range(1, len(terms)))
        toks = " AND ".join(f"p{i}.tok = '{t}'" for i, t in enumerate(terms))
        shifted = ", ".join(f"p{i}.i - {i}" for i in range(len(terms)))
        parts.append(
            f"SELECT {qid}::BIGINT AS qid, p0.doc_id, count(*)::BIGINT AS sloppy_freq "
            f"FROM p p0 {joins} "
            f"WHERE {toks} "
            f"AND greatest({shifted}) - least({shifted}) <= {slop} GROUP BY p0.doc_id"
        )
    return _union_cte("sp", parts)


def _phrase_counts_sql() -> str:
    return f"""
WITH {_TOKS},
{_phrase_match_sql()}
SELECT qid, doc_id, pf AS phrase_freq FROM ph
"""


def _phrase_topk_sql() -> str:
    # idf = sum over phrase terms (duplicates counted) of the BM25 idf
    idfs = [" + ".join(_term_idf(w) for w in words) for words in ft.PHRASES]
    return f"""
WITH {_COLLECTION},
{_phrase_match_sql()},
{_phrase_topk("ph", "pf", idfs)}
"""


def _pw_slot_cond(col: str, spec) -> str:
    kind, pat = spec
    if kind == "term":
        return f"{col} = '{pat}'"
    if kind == "prefix":
        return f"{col} LIKE '{pat}%'"
    # wildcard: '?' -> '.', '*' -> '.*', anchored (patterns are [a-z?*])
    return f"regexp_matches({col}, '^{pat.replace('?', '.').replace('*', '.*')}$')"


_ANN_OUT = "qid::BIGINT AS query_id, rnk::BIGINT AS rnk, vec_id::BIGINT AS neighbor_id"
_EN_ONLY = "\n  JOIN documents d ON d.doc_id = e.vec_id AND d.lang = 'en'"
_IN_DOCS = "\n  JOIN documents d ON d.doc_id = e.vec_id"


def _cosine_topk(join: str = "") -> str:
    """Exact cosine top-10 of query vectors 0..4 (self excluded): the
    answer every ANN arm returns once its in-engine recall gate passes."""
    return f"""
WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id <= 4),
sims AS (
  SELECT q.qid, e.vec_id, list_cosine_similarity(q.qe, e.embedding) AS s
  FROM q, embeddings e{join}
  WHERE e.vec_id != q.qid
),
{_topk("sims", "s DESC, vec_id", out=_ANN_OUT)}
"""


# INDEX-TIME block join: blocks keyed (source, doc_id // B), children in
# doc_id order then one textless parent; `cpos` gives each child its
# block-index docid and its parent's from one window cumsum over
# (source, bucket) binary order (mirrors pipelines/fulltext.ensure_block_corpus)
_BLOCK_POS = f"""bchild AS (
  SELECT doc_id, source, doc_id // {ft.BLOCK_BUCKET} AS bucket FROM documents
),
bcnt AS (
  SELECT source, bucket, count(*)::BIGINT AS n FROM bchild GROUP BY source, bucket
),
bord AS (
  SELECT source, bucket, n,
         sum(n + 1) OVER (ORDER BY source, bucket ROWS UNBOUNDED PRECEDING)::BIGINT AS cum
  FROM bcnt
),
cpos AS (
  SELECT c.doc_id, c.source, b.cum - 1 AS parent_docid,
         b.cum - 1 - b.n
           + row_number() OVER (PARTITION BY c.source, c.bucket ORDER BY c.doc_id)
           - 1 AS child_docid
  FROM bchild c JOIN bord b ON b.source = c.source AND b.bucket = c.bucket
)"""


def _rrf_hybrid_sql() -> str:
    """TopDocs.rrf oracle: BM25 lexical ranking + cosine vector ranking,
    each cut at RRF_CAND, fused by sum(1/(60 + rank)), final ties by doc
    id (the reference's TopDocs#merge tie-break)."""
    qvals = ", ".join(
        f"({i}, '{ft.QUERY_TERMS[i]}')" for i in ANN_QUERY_IDS
    )
    return f"""
WITH {_COLLECTION},
q(qid, term) AS (VALUES {qvals}),
{_term_scores()},
lexr AS (
  SELECT qid, doc_id, rnk FROM (
    SELECT qid, doc_id,
           -- float32 cast: the engine arm ranks searcher.search's f32
           -- scores (same discipline as every searcher-backed oracle)
           row_number() OVER (PARTITION BY qid ORDER BY score::FLOAT DESC, doc_id) AS rnk
    FROM clause) z WHERE rnk <= {RRF_CAND}
),
vq AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id <= 4),
vsims AS (
  SELECT vq.qid, e.vec_id, list_cosine_similarity(vq.qe, e.embedding) AS s
  FROM vq, embeddings e WHERE e.vec_id != vq.qid
),
vecr AS (
  SELECT qid, vec_id, rnk FROM (
    SELECT qid, vec_id,
           row_number() OVER (PARTITION BY qid ORDER BY s DESC, vec_id) AS rnk
    FROM vsims) z WHERE rnk <= {RRF_CAND}
),
contrib AS (
  SELECT qid, doc_id, 1.0 / (60 + rnk) AS c FROM lexr
  UNION ALL
  SELECT qid, vec_id, 1.0 / (60 + rnk) FROM vecr
),
fused AS (SELECT qid, doc_id, sum(c) AS s FROM contrib GROUP BY qid, doc_id),
{_topk("fused", "s DESC, doc_id", out="qid::BIGINT AS query_id, rnk::BIGINT AS rnk, doc_id::BIGINT AS neighbor_id")}
"""


def _parsed_fn_ctes() -> str:
    """q12/q13 CTEs for the flexible-parser fn: arms of ft_parsed_topk:
    interval chains compiled from the SAME parsed ASTs, scored by the
    saturation function over the fixed-point sloppy freq."""
    from lucene_ray.search.intervals import (
        SLOPPY_SCALE,
        fn_sql_ctes,
        freeze,
        min_extent,
        parse_fn,
    )

    ctes: list[str] = []
    counter = [9000]  # names disjoint from _intervals_fn_sql's
    # q12: fn:maxgaps(1 fn:ordered(the customer))^2
    n12 = freeze(parse_fn("fn:maxgaps(1 fn:ordered(the customer))"))
    r12 = fn_sql_ctes(n12, "pspos", ctes, counter)
    me12 = min_extent(n12)
    # q13: lang:en AND fn:ordered(join order) — MUST filter scores 1
    n13 = freeze(parse_fn("fn:ordered(join order)"))
    r13 = fn_sql_ctes(n13, "pspos", ctes, counter)
    me13 = min_extent(n13)
    ctes.append(
        f"""q12 AS (
  SELECT doc_id,
         2.0 * (1.0 - 1.0 / (1.0 + sum({SLOPPY_SCALE} //
           greatest(e - s + 1 - {me12} + 1, 1)) / {SLOPPY_SCALE}.0)) AS score
  FROM {r12} GROUP BY doc_id
)"""
    )
    ctes.append(
        f"""q13 AS (
  SELECT f.doc_id,
         1.0 + (1.0 - 1.0 / (1.0 + f.fi / {SLOPPY_SCALE}.0)) AS score
  FROM (
    SELECT doc_id, sum({SLOPPY_SCALE} //
      greatest(e - s + 1 - {me13} + 1, 1))::BIGINT AS fi
    FROM {r13} GROUP BY doc_id
  ) f
  JOIN documents d ON d.doc_id = f.doc_id
  WHERE d.lang = 'en'
)"""
    )
    return ",\n".join(ctes)


def _intervals_fn_sql() -> str:
    """CTE chain for every fn: interval expression + the final per-doc
    minimal-interval counts, compiled from the engine's parsed ASTs."""
    from lucene_ray.search.intervals import fn_sql_ctes

    ctes: list[str] = []
    counter = [0]
    tops = []
    for qid, node in enumerate(ft._fn_queries()):
        rel = fn_sql_ctes(node, "posx", ctes, counter)
        tops.append(
            f"SELECT {qid}::BIGINT AS qid, doc_id, count(*)::BIGINT AS n "
            f"FROM {rel} GROUP BY doc_id"
        )
    return ",\n".join(ctes) + ",\nivfn AS (" + " UNION ALL ".join(tops) + ")\nSELECT qid, doc_id, n FROM ivfn"


def _interval_score_sql() -> str:
    """IntervalQuery saturation top-k oracle: per-doc fixed-point sloppy
    freq (sum of 2^20 // max(len - minExtent + 1, 1) — exact integers)
    through 1 - pivot/(pivot + f/2^20), compiled from the same ASTs."""
    from lucene_ray.search.intervals import (
        SLOPPY_SCALE,
        fn_sql_ctes,
        min_extent,
    )

    ctes: list[str] = []
    counter = [0]
    tops = []
    for qid, node in enumerate(ft._fn_queries()):
        rel = fn_sql_ctes(node, "ivspos", ctes, counter)
        me = min_extent(node)
        tops.append(
            f"SELECT {qid}::BIGINT AS qid, doc_id, "
            f"sum({SLOPPY_SCALE} // greatest(e - s + 1 - {me} + 1, 1))::BIGINT AS fi "
            f"FROM {rel} GROUP BY doc_id"
        )
    pivot = ft.INTERVAL_PIVOT
    return f"""
WITH {_TOKS},
ivspos AS (
  SELECT doc_id, ts[i + 1] AS tok, i AS p
  FROM (SELECT doc_id, ts, unnest(range(len(ts))) AS i FROM toks)
),
{",".join(ctes)},
ivsf AS ({" UNION ALL ".join(tops)}),
ivscored AS (
  SELECT qid, doc_id,
         1.0 - {pivot} / ({pivot} + fi / {SLOPPY_SCALE}.0) AS score
  FROM ivsf WHERE fi > 0
),
{_topk("ivscored", "score DESC, doc_id", out="qid, rnk::BIGINT AS rnk, doc_id")}
"""


def _phrase_wildcard_sql() -> str:
    """PhraseWildcardQuery arm: multi-phrase matching with slot
    conditions (=, prefix LIKE, wildcard regexp) and idf summed over the
    DISTINCT index terms each multi-term expands to (the ample-budget
    collection == all matching dictionary terms)."""
    match_parts = []
    idfs = []
    for qid, slots in enumerate(ft.PW_PHRASES):
        n = len(slots)
        conds = " AND ".join(
            _pw_slot_cond(f"ts[i + {k + 1}]", spec)
            for k, spec in enumerate(slots)
        )
        match_parts.append(
            f"SELECT {qid}::BIGINT AS qid, doc_id, count(*)::BIGINT AS pf "
            f"FROM pws WHERE i + {n} <= len(ts) AND {conds} GROUP BY doc_id"
        )
        idfs.append(
            " + ".join(
                f"(SELECT coalesce(sum({_idf('tdf.df', 'st')}), 0) FROM tdf "
                f"WHERE {_pw_slot_cond('tok', spec)})"
                for spec in slots
            )
        )
    return f"""
WITH {_COLLECTION},
pws AS (SELECT doc_id, ts, unnest(range(len(ts))) AS i FROM toks WHERE len(ts) > 0),
pwm AS ({" UNION ALL ".join(match_parts)}),
{_phrase_topk("pwm", "pf", idfs)}
"""


def _training_mix_sql() -> str:
    """The composed pipeline, mirrored stage for stage: lang gate ->
    quality + repetition + bigram-LM gate -> exact dedup -> near-dup
    components over THE SURVIVOR SET ONLY -> representatives."""
    from lucene_ray.ops.lm import LM_MIN_AVG_Q
    from lucene_ray.ops.text import EN_STOPWORDS

    stop_list = ", ".join(f"'{w}'" for w in EN_STOPWORDS)
    return f"""
WITH RECURSIVE {_TOKS},
stopc AS (
  SELECT t.doc_id, len(ts)::BIGINT AS n_tokens,
         len(list_filter(ts, x -> list_contains([{stop_list}], x)))::BIGINT AS n_stop
  FROM toks t
),
exx AS (SELECT doc_id, unnest(ts) AS tok, unnest(range(len(ts))) AS i FROM toks),
bigg AS (
  SELECT a.doc_id, a.tok AS w1, b.tok AS w2, count(*)::BIGINT AS c
  FROM exx a JOIN exx b ON b.doc_id = a.doc_id AND b.i = a.i + 1
  GROUP BY 1, 2, 3
),
repp AS (SELECT doc_id, max(c)::BIGINT AS max_bigram_tf FROM bigg GROUP BY doc_id),
-- CCNet-style bigram-LM gate: add-one logprob per bigram, quantized to
-- the 2^-40 grid (float32 cast first) so the sum is an exact integer
c12 AS (SELECT w1, w2, sum(c)::BIGINT AS c FROM bigg GROUP BY w1, w2),
c1q AS (SELECT w1, sum(c)::BIGINT AS c FROM bigg GROUP BY w1),
vv AS (SELECT count(DISTINCT tok)::BIGINT AS v FROM exx),
lmq AS (
  SELECT b.doc_id, sum(b.c)::BIGINT AS n_bigrams,
         sum(round(ln((c12.c + 1.0) / (c1q.c + vv.v))::FLOAT::DOUBLE
                   * 1099511627776.0)::BIGINT * b.c)::BIGINT AS q
  FROM bigg b JOIN c12 ON c12.w1 = b.w1 AND c12.w2 = b.w2
  JOIN c1q ON c1q.w1 = b.w1 CROSS JOIN vv
  GROUP BY b.doc_id
),
gated AS (
  SELECT d.doc_id, d.text, d.lang, s.n_tokens
  FROM documents d JOIN stopc s USING (doc_id) LEFT JOIN repp r USING (doc_id)
  LEFT JOIN lmq USING (doc_id)
  WHERE d.lang IN ('en', 'de') AND s.n_tokens >= 10
    AND s.n_stop * 50 <= s.n_tokens * 45
    AND coalesce(r.max_bigram_tf, 0) <= 4
    AND (lmq.n_bigrams IS NULL OR lmq.n_bigrams = 0
         OR lmq.q >= {LM_MIN_AVG_Q} * lmq.n_bigrams)
),
surv AS (SELECT min(doc_id) AS doc_id FROM gated GROUP BY text),
sdocs AS (SELECT g.* FROM gated g JOIN surv USING (doc_id)),
sstarts AS (
  SELECT t.doc_id, t.ts, unnest(range(greatest(len(t.ts) - 2, 1))) AS i
  FROM toks t JOIN surv USING (doc_id) WHERE len(t.ts) > 0
),
ssh AS (
  SELECT DISTINCT doc_id, array_to_string(ts[i + 1 : i + 3], ' ') AS shingle
  FROM sstarts
),
inter AS (
  SELECT a.doc_id AS da, b.doc_id AS db_, count(*)::BIGINT AS inter
  FROM ssh a JOIN ssh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
sizes AS (SELECT doc_id, count(*)::BIGINT AS sz FROM ssh GROUP BY doc_id),
pairs AS (
  SELECT da, db_ FROM inter
  JOIN sizes sa ON sa.doc_id = da
  JOIN sizes sb ON sb.doc_id = db_
  WHERE 100 * inter >= 20 * (sa.sz + sb.sz - inter)
),
edges AS (SELECT da AS a, db_ AS b FROM pairs UNION ALL SELECT db_, da FROM pairs),
nodes AS (SELECT DISTINCT a AS node FROM edges),
reach(node, lbl) AS (
  SELECT node, node FROM nodes
  UNION
  SELECT e.b, r2.lbl FROM reach r2 JOIN edges e ON e.a = r2.node
),
lab AS (SELECT node, min(lbl) AS cid FROM reach GROUP BY node)
SELECT s.doc_id, s.lang, s.n_tokens FROM sdocs s
WHERE s.doc_id NOT IN (SELECT node FROM lab WHERE node != cid)
"""


def _clean_corpus_sql() -> str:
    from lucene_ray.ops.text import EN_STOPWORDS

    stop_list = ", ".join(f"'{w}'" for w in EN_STOPWORDS)
    return f"""
WITH {_TOKS},
q AS (
  SELECT t.doc_id, d.text,
         (CASE WHEN len(ts) >= 10
                AND len(list_filter(ts, x -> list_contains([{stop_list}], x))) * 50
                    <= len(ts) * 45
               THEN 1 ELSE 0 END) AS is_quality
  FROM toks t JOIN documents d USING (doc_id)
)
SELECT (SELECT count(*) FROM documents)::BIGINT AS n_docs,
       count(*)::BIGINT AS n_quality,
       (SELECT count(*) FROM (
          SELECT min(doc_id) FROM q WHERE is_quality = 1 GROUP BY text
        ) s)::BIGINT AS n_kept
FROM q WHERE is_quality = 1
"""


def _match_rows(qid: int, docs: str) -> str:
    """Constant-score match rows of query qid: rnk 0 carries the number of
    matching docs, rnks 1..10 the first matches in doc_id order; `docs`
    selects each matching doc_id once."""
    return (
        f"SELECT {qid}::BIGINT AS qid, 0::BIGINT AS rnk, "
        f"(SELECT count(*) FROM ({docs}) c{qid})::BIGINT AS doc_id "
        f"UNION ALL "
        f"SELECT {qid}::BIGINT, rn::BIGINT, doc_id FROM ("
        f"  SELECT doc_id, row_number() OVER (ORDER BY doc_id) AS rn "
        f"  FROM ({docs}) m{qid}"
        f") r{qid} WHERE rn <= 10"
    )


def _token_matches(preds: list[str]) -> str:
    """_match_rows per query over the docs holding a token that matches
    preds[qid]."""
    return f"WITH {_TOKS} " + " UNION ALL ".join(
        _match_rows(qid, f"SELECT DISTINCT doc_id FROM tok WHERE {pred}")
        for qid, pred in enumerate(preds)
    )


def _prefix_sql() -> str:
    return _token_matches([f"tok LIKE '{p}%'" for p in ft.PREFIXES])


def _prefix_scored_sql() -> str:
    """SCORING_BOOLEAN rewrite oracle: the prefix's matching dictionary
    terms score as a BM25 SHOULD disjunction (each term its own idf)."""
    pvals = ", ".join(f"({i}, '{p}')" for i, p in enumerate(ft.PREFIXES))
    return f"""
WITH {_COLLECTION},
q(qid, p) AS (VALUES {pvals}),
{_postings(on="tf.tok LIKE q.p || '%'")},
{_clauses()},
{_topk("scored", "score DESC, doc_id")}
"""


def _in_set_sql() -> str:
    in_lists = [", ".join(f"'{t}'" for t in terms) for terms in ft.TERM_SETS]
    return _token_matches([f"tok IN ({in_list})" for in_list in in_lists])


def _stored_in_sql(sets, fmt) -> str:
    """DocValuesTermsQuery / DocValuesNumbersQuery: set membership on the
    STORED column (no token relation involved)."""
    return " UNION ALL ".join(
        _match_rows(
            qid,
            f"SELECT doc_id FROM documents "
            f"WHERE {field} IN ({', '.join(fmt(v) for v in values)})",
        )
        for qid, (field, values) in enumerate(sets)
    )


def _in_set_dv_sql() -> str:
    return _stored_in_sql(ft.DV_TERM_SETS, lambda v: f"'{v}'")


def _in_set_numbers_dv_sql() -> str:
    return _stored_in_sql(ft.DV_NUMBER_SETS, str)


def _wildcard_sql() -> str:
    # fnmatch * -> SQL %, ? -> _ (term alphabet [a-z0-9_] has no literal
    # LIKE metacharacters except '_', which we escape)
    return _token_matches(
        [
            "tok LIKE '{}' ESCAPE '\\'".format(
                p.replace("_", "\\_").replace("*", "%").replace("?", "_")
            )
            for p in ft.WILDCARDS
        ]
    )


def _dismax_sql() -> str:
    dm_values = ", ".join(
        f"({qi}, '{t}', {tb})"
        for qi, (terms, tb) in enumerate(ft.DISMAX_QUERIES)
        for t in terms
    )
    return f"""
WITH {_COLLECTION},
q(qid, term, tb) AS (VALUES {dm_values}),
{_term_scores(combine="max(score) + any_value(tb) * (sum(score) - max(score))")},
{_topk("scored")}
"""


def _blended_sql(rewrite: str) -> str:
    """BlendedTermQuery arm: every member term scored as its own clause but
    with the group's EQUALIZED df = max(per-term df)
    (search/BlendedTermQuery.java blend()), clause = boost * idf_blend *
    tf-saturation, combined dismax(tie=0.01) or SHOULD-sum."""
    combine = (
        "sum(score)"
        if rewrite == "boolean"
        else "max(score) + 0.01 * (sum(score) - max(score))"
    )
    return f"""
WITH {_COLLECTION},
q(qid, term, boost) AS (VALUES {_SYN_VALUES}),
{_postings()},
{_BLEND},
{_clauses(_bm25("p.tf", idf=f"p.boost * {_idf('b.df')}"), _BLEND_JOIN, combine)},
{_topk("scored")}
"""


def _regexp_sql() -> str:
    return _token_matches([f"regexp_full_match(tok, '{p}')" for p in ft.REGEXPS])


def _fuzzy_sql() -> str:
    return _token_matches(
        [f"damerau_levenshtein(tok, '{t}') <= {me}" for t, me in ft.FUZZY_QUERIES]
    )


def _fuzzy_scored_sql() -> str:
    """FuzzyQuery TopTermsBlendedFreqScoringRewrite: Damerau candidates,
    boost = 1 - ed/min(len), top-50 by (boost DESC, term ASC), blended
    BOOLEAN rewrite (clauses share df = max df across the group)."""
    vals = ", ".join(
        f"({i}, '{t}', {me})" for i, (t, me) in enumerate(ft.FUZZY_QUERIES)
    )
    return f"""
WITH {_COLLECTION},
q(qid, qt, me) AS (VALUES {vals}),
ts AS (SELECT tok AS term FROM tf GROUP BY tok),
cand AS (
  SELECT q.qid, ts.term, q.qt,
         damerau_levenshtein(ts.term, q.qt)::BIGINT AS ed
  FROM q JOIN ts ON damerau_levenshtein(ts.term, q.qt) <= q.me
),
boosted AS (
  SELECT qid, term,
         CASE WHEN ed = 0 THEN 1.0
              ELSE 1.0 - ed / least(length(term), length(qt))::DOUBLE END AS boost
  FROM cand
),
topt AS (
  SELECT qid, term, boost FROM (
    SELECT *, row_number() OVER (PARTITION BY qid ORDER BY boost DESC, term) AS r
    FROM boosted) t WHERE r <= {ft.FUZZY_SCORED_MAX_EXPANSIONS}
),
{_postings("topt")},
{_BLEND},
{_clauses(_bm25("p.tf", idf=f"p.boost * {_idf('b.df')}"), _BLEND_JOIN)},
{_topk("scored")}
"""


def _fn_range_sql() -> str:
    """FunctionRangeQuery arm: expression SQL is a mechanical rename of
    the engine's own expression strings (max->greatest, min->least)."""
    parts = []
    for qid, (expr, lo, hi) in enumerate(ft.FUNCTION_RANGE_QUERIES):
        sql_expr = expr.replace("max(", "greatest(").replace("min(", "least(")
        conds = []
        if lo is not None:
            conds.append(f"v >= {lo}")
        if hi is not None:
            conds.append(f"v <= {hi}")
        where = " AND ".join(conds) or "TRUE"
        parts.append(
            f"SELECT {qid}::BIGINT AS qid, rnk::BIGINT AS rnk, doc_id FROM ("
            f"SELECT doc_id, row_number() OVER (ORDER BY v::FLOAT DESC, doc_id) AS rnk"
            f" FROM (SELECT doc_id, ({sql_expr})::DOUBLE AS v FROM documents)"
            f" WHERE {where}) WHERE rnk <= 10"
        )
    return " UNION ALL ".join(parts)


def _point_in_set_sql() -> str:
    """PointInSetQuery arm: count docs whose n_chars is in the set."""
    parts = []
    for qid, values in enumerate(ft.POINT_IN_SETS):
        in_list = ", ".join(str(v) for v in values)
        parts.append(
            f"SELECT {qid}::BIGINT AS qid, "
            f"(SELECT count(*) FROM documents WHERE n_chars IN ({in_list}))"
            f"::BIGINT AS cnt"
        )
    return " UNION ALL ".join(parts)


def _geo_box_sql() -> str:
    """LatLonPoint box arm: recount per-doc encoded lat/lon against the
    SAME integer bounds the engine used (ft.geo_encode_bounds, shared
    verbatim); the per-doc encode mirrors _geo_values' double expression
    operation for operation."""
    elat = (
        "CAST(floor((((doc_id * 37) % 18000) / 100.0 - 90.0)"
        " / 90.0 * 2147483648.0) AS BIGINT)"
    )
    elon = (
        "CAST(floor((((doc_id * 53) % 36000) / 100.0 - 180.0)"
        " / 180.0 * 2147483648.0) AS BIGINT)"
    )
    parts = []
    for qid, box in enumerate(ft.GEO_BOXES):
        lat0, lat1, lon0, lon1, crosses = ft.geo_encode_bounds(box)
        lon_cond = (
            f"(elon >= {lon0} OR elon <= {lon1})"
            if crosses
            else f"elon BETWEEN {lon0} AND {lon1}"
        )
        parts.append(
            f"SELECT {qid}::BIGINT AS qid, (SELECT count(*) FROM "
            f"(SELECT {elat} AS elat, {elon} AS elon FROM documents) g "
            f"WHERE elat BETWEEN {lat0} AND {lat1} AND {lon_cond})::BIGINT AS cnt"
        )
    return " UNION ALL ".join(parts)


def _double_range_sql() -> str:
    """DoublePoint arm: recount on the raw doubles — the sortable-bits
    encoding is order-isomorphic, so integer-tree membership == double
    membership; coefficients/bounds are exact binary fractions."""
    parts = []
    for qid, (lo, hi) in enumerate(ft.DOUBLE_RANGES):
        parts.append(
            f"SELECT {qid}::BIGINT AS qid, (SELECT count(*) FROM documents "
            f"WHERE (n_chars * CAST(0.25 AS DOUBLE) - doc_id * CAST(0.5 AS DOUBLE))"
            f" BETWEEN CAST({lo!r} AS DOUBLE) AND CAST({hi!r} AS DOUBLE))"
            f"::BIGINT AS cnt"
        )
    return " UNION ALL ".join(parts)


def _multi_range_sql() -> str:
    """MultiRangeQuery arm: count docs whose n_chars falls in the UNION
    of the query's [lo, hi) ranges (overlaps dedupe via OR)."""
    parts = []
    for qid, ranges in enumerate(ft.MULTI_RANGES):
        ors = []
        for lo, hi in ranges:
            conds = []
            if lo is not None:
                conds.append(f"n_chars >= {lo}")
            if hi is not None:
                conds.append(f"n_chars < {hi}")
            ors.append("(" + (" AND ".join(conds) or "TRUE") + ")")
        parts.append(
            f"SELECT {qid}::BIGINT AS qid, "
            f"(SELECT count(*) FROM documents WHERE {' OR '.join(ors)})::BIGINT AS cnt"
        )
    return " UNION ALL ".join(parts)


def _range_counts_sql() -> str:
    parts = []
    for qid, (lo, hi) in enumerate(ft.TERM_RANGES):
        conds = []
        if lo is not None:
            conds.append(f"tok >= '{lo}'")
        if hi is not None:
            conds.append(f"tok < '{hi}'")
        where = " AND ".join(conds) or "TRUE"
        parts.append(
            f"SELECT {qid}::BIGINT AS qid, "
            f"(SELECT count(DISTINCT doc_id) FROM tok WHERE {where})::BIGINT AS cnt"
        )
    return f"WITH {_TOKS} " + " UNION ALL ".join(parts)


def _range_field_sql() -> str:
    """LongRange relations over the synthesized per-doc [lo, hi] range
    (CROSSES = intersects AND NOT within AND NOT contains)."""
    qvals = ", ".join(
        f"({i}, {lo}, {hi})" for i, (lo, hi) in enumerate(ft.RANGE_FIELD_QUERIES)
    )
    return f"""
WITH rr AS (
  SELECT doc_id, (doc_id * 17) % 2000 AS lo,
         (doc_id * 17) % 2000 + 1 + (n_chars % 97) AS hi
  FROM documents
),
rq(qid, qlo, qhi) AS (VALUES {qvals}),
rel AS (
  SELECT rq.qid, rr.doc_id,
         (rr.lo <= rq.qhi AND rr.hi >= rq.qlo) AS isect,
         (rr.lo >= rq.qlo AND rr.hi <= rq.qhi) AS within,
         (rr.lo <= rq.qlo AND rr.hi >= rq.qhi) AS contains
  FROM rq LEFT JOIN rr ON true
)
SELECT 'range_field_contains' AS family, qid::BIGINT AS qid,
       count(*) FILTER (WHERE contains)::BIGINT AS cnt FROM rel GROUP BY qid
UNION ALL
SELECT 'range_field_crosses', qid::BIGINT,
       count(*) FILTER (WHERE isect AND NOT within AND NOT contains)::BIGINT
FROM rel GROUP BY qid
UNION ALL
SELECT 'range_field_intersects', qid::BIGINT,
       count(*) FILTER (WHERE isect)::BIGINT FROM rel GROUP BY qid
UNION ALL
SELECT 'range_field_within', qid::BIGINT,
       count(*) FILTER (WHERE within)::BIGINT FROM rel GROUP BY qid
"""


def _latlon_bbox_sql() -> str:
    """LatLonBoundingBox relations over the synthesized per-doc 2-D box
    on the integer grid (4-dim range field; CROSSES = intersects minus
    within minus contains)."""
    qvals = ", ".join(
        f"({i}, {a}, {b}, {c}, {d})"
        for i, (a, b, c, d) in enumerate(ft.LATLON_BBOX_QUERIES)
    )
    return f"""
WITH bb AS (
  SELECT doc_id,
         (doc_id * 37) % 18000 AS lat0,
         (doc_id * 37) % 18000 + 1 + doc_id % 50 AS lat1,
         (doc_id * 53) % 36000 AS lon0,
         (doc_id * 53) % 36000 + 1 + doc_id % 80 AS lon1
  FROM documents
),
bq(qid, qlat0, qlat1, qlon0, qlon1) AS (VALUES {qvals}),
rel AS (
  SELECT bq.qid, bb.doc_id,
         (bb.lat0 <= bq.qlat1 AND bb.lat1 >= bq.qlat0
          AND bb.lon0 <= bq.qlon1 AND bb.lon1 >= bq.qlon0) AS isect,
         (bb.lat0 >= bq.qlat0 AND bb.lat1 <= bq.qlat1
          AND bb.lon0 >= bq.qlon0 AND bb.lon1 <= bq.qlon1) AS within,
         (bb.lat0 <= bq.qlat0 AND bb.lat1 >= bq.qlat1
          AND bb.lon0 <= bq.qlon0 AND bb.lon1 >= bq.qlon1) AS contains
  FROM bq LEFT JOIN bb ON true
)
SELECT 'latlon_bbox_contains' AS family, qid::BIGINT AS qid,
       count(*) FILTER (WHERE contains)::BIGINT AS cnt FROM rel GROUP BY qid
UNION ALL
SELECT 'latlon_bbox_crosses', qid::BIGINT,
       count(*) FILTER (WHERE isect AND NOT within AND NOT contains)::BIGINT
FROM rel GROUP BY qid
UNION ALL
SELECT 'latlon_bbox_intersects', qid::BIGINT,
       count(*) FILTER (WHERE isect)::BIGINT FROM rel GROUP BY qid
UNION ALL
SELECT 'latlon_bbox_within', qid::BIGINT,
       count(*) FILTER (WHERE within)::BIGINT FROM rel GROUP BY qid
"""


def _sorted_numeric_range_sql() -> str:
    parts = []
    for qid, (lo, hi) in enumerate(ft.SORTED_NUMERIC_RANGES):
        conds = []
        if lo is not None:
            conds.append(f"n_chars >= {lo}")
        if hi is not None:
            conds.append(f"n_chars < {hi}")
        where = " AND ".join(conds) or "TRUE"
        parts.append(
            f"SELECT {qid}::BIGINT AS qid, "
            f"(SELECT count(*) FROM documents WHERE {where})::BIGINT AS cnt"
        )
    return " UNION ALL ".join(parts)


def _rolling_fp_sql() -> str:
    from lucene_ray.ops.text import ROLL_B, ROLL_P

    powers = []
    acc = 1
    for j in range(512):
        powers.append(f"({j}, {acc})")
        acc = (acc * ROLL_B) % ROLL_P
    pw = ", ".join(powers)
    return f"""
WITH {_TOKS},
tokpos AS (
  SELECT doc_id, ts, least(len(ts), 512)::BIGINT AS n,
         unnest(range(least(len(ts), 512))) AS i
  FROM toks WHERE len(ts) > 0
),
vals AS (
  SELECT doc_id, n, i,
         (md5_number_lower(ts[i + 1]) % 2147483648)::BIGINT AS v
  FROM tokpos
),
pw(j, p) AS (VALUES {pw}),
summed AS (
  SELECT v.doc_id, sum((v.v * pw.p) % {ROLL_P}) AS s
  FROM vals v JOIN pw ON pw.j = v.n - 1 - v.i
  GROUP BY v.doc_id
)
SELECT t.doc_id, coalesce(s % {ROLL_P}, 0)::BIGINT AS roll_fp
FROM toks t LEFT JOIN summed USING (doc_id)
"""


def _boosted_sql() -> str:
    return f"""
WITH {_COLLECTION},
q(qid, term, boost) AS (VALUES {_BOOSTED_VALUES}),
{_term_scores(_bm25("p.tf", idf=f"p.boost * {_idf('df.df')}"))},
{_topk("scored")}
"""


def _percolate_both_paths(sf_dir: str):
    """Percolator through BOTH execution paths — evaluate-everything
    (match_batch) and the TermFilteredPresearcher candidate-pruned actor
    pool — asserted identical in-engine (a presearcher false-negative
    turns the row red), one result returned for the SQL oracle."""
    from lucene_ray.ops import monitor

    base = monitor.percolate_counts(_docs(sf_dir))
    pre = monitor.percolate_counts_presearch(_docs(sf_dir))
    if not base.to_pandas().equals(pre.to_pandas()):
        raise AssertionError("presearcher path diverged from evaluate-everything")
    return base


def _percolate_sql() -> str:
    """Monitor/percolator oracle: per registered query, aggregate stats of
    the matching doc set (same tokenizer CTE, membership/phrase preds)."""
    from lucene_ray.ops.monitor import MONITOR_QUERIES

    def pred_of(q) -> str:
        kind = q[0]
        if kind == "term":
            return f"list_contains(ts, '{q[1]}')"
        if kind == "and":
            return " AND ".join(f"list_contains(ts, '{t}')" for t in q[1])
        if kind == "or":
            return "(" + " OR ".join(f"list_contains(ts, '{t}')" for t in q[1]) + ")"
        if kind == "and_not":
            return " AND ".join(
                [f"list_contains(ts, '{t}')" for t in q[1]]
                + [f"NOT list_contains(ts, '{t}')" for t in q[2]]
            )
        if kind == "phrase":
            a, b = q[1]
            return (
                f"doc_id IN (SELECT doc_id FROM s WHERE i + 2 <= len(ts)"
                f" AND ts[i + 1] = '{a}' AND ts[i + 2] = '{b}')"
            )
        if kind == "or_of":  # QueryDecomposer disjunction of clauses
            return "(" + " OR ".join(f"({pred_of(sub)})" for sub in q[1]) + ")"
        raise ValueError(kind)  # pragma: no cover

    parts = []
    for qid, q in enumerate(MONITOR_QUERIES):
        pred = pred_of(q)
        parts.append(
            f"SELECT {qid}::BIGINT AS qid,"
            f" count(*) FILTER (WHERE {pred})::BIGINT AS n_matches,"
            f" coalesce(sum(doc_id) FILTER (WHERE {pred}), 0)::BIGINT AS sum_doc,"
            f" coalesce(min(doc_id) FILTER (WHERE {pred}), -1)::BIGINT AS min_doc,"
            f" coalesce(max(doc_id) FILTER (WHERE {pred}), -1)::BIGINT AS max_doc"
            f" FROM toks"
        )
    return (
        f"WITH {_TOKS},\n{_S_CTE}\n" + " UNION ALL ".join(parts)
    )


def _bool_counts_sql() -> str:
    parts = []
    for qid, (op, a, b) in enumerate(ft.BOOL_COUNTS):
        ca = f"SELECT doc_id FROM tf WHERE tok = '{a}'"
        cb = f"SELECT doc_id FROM tf WHERE tok = '{b}'"
        if op == "and":
            sub = f"{ca} INTERSECT {cb}"
        elif op == "or":
            sub = f"{ca} UNION {cb}"
        else:
            sub = f"{ca} EXCEPT {cb}"
        parts.append(
            f"SELECT {qid}::BIGINT AS qid, (SELECT count(*) FROM ({sub}) s{qid})::BIGINT AS cnt"
        )
    return f"WITH {_TOKS} " + " UNION ALL ".join(parts)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def _docs(sf_dir: str, columns: tuple[str, ...] | None = ("doc_id", "text")):
    """documents table pruned at the READ (VERDICT r3 minor: most consumers
    only touch (doc_id, text); pass the columns each pipeline needs, or
    None for the full table)."""
    return read_parquet(os.path.join(sf_dir, "documents.parquet"), columns)


def _no_docs(sf_dir: str, columns: tuple[str, ...] = ("doc_id", "text")) -> pa.Table:
    """A zero-row batch of the documents ``columns``.  Ray runs no batch
    function over zero rows, so a per-document map's result over an empty
    corpus has no columns; its batch function over this batch names them."""
    import pyarrow.parquet as pq

    schema = pq.read_schema(os.path.join(sf_dir, "documents.parquet")).remove_metadata()
    return schema.empty_table().select(list(columns))


def _per_doc(pipeline, batch_fn, columns: tuple[str, ...] = ("doc_id", "text")):
    """An entry that maps the documents ``columns`` through ``pipeline``
    (whose batch function is ``batch_fn``), typed when the corpus is
    empty."""
    return lambda sf: _frame(
        pipeline(_docs(sf, columns)), batch_fn(_no_docs(sf, columns)).schema
    )


def _embs(sf_dir: str):
    return read_parquet(os.path.join(sf_dir, "embeddings.parquet"))


def _events(sf_dir: str):
    return read_parquet(os.path.join(sf_dir, "events.parquet"))


def _frame(result, schema=None):
    """A pipeline result (DataFrame, Arrow table or bounded Dataset) as
    pandas; ``schema`` types an all-empty Dataset (``ft.gather``)."""
    import pandas as pd

    return result if isinstance(result, pd.DataFrame) else ft.gather(result, schema).to_pandas()


def _family(col: str, *arms, schema=None):
    """A family entry: every (label, pipeline) arm runs in order and its
    rows are tagged with the label in the discriminator column ``col``;
    an arm that returns a dict contributes one part per key (label + key,
    keys sorted).  Only ever applied to already-reduced outputs (top-k /
    count tables), never to bulk data."""
    import pandas as pd

    def run(sf_dir: str):
        dfs = []
        for label, arm in arms:
            out = arm(sf_dir)
            for key, part in sorted(out.items()) if isinstance(out, dict) else [("", out)]:
                df = _frame(part, schema).copy()
                df[col] = label + key
                dfs.append(df)
        return pd.concat(dfs, ignore_index=True)

    return run


def _n_starts(pipeline, col: str | None = None):
    """An intervals-family arm: the pipeline's count column ``col`` renamed
    n_starts, or n_starts = -1 for a match-set-only pipeline."""

    def arm(sf_dir: str):
        df = _frame(pipeline(sf_dir))
        if col is None:
            df["n_starts"] = -1
            return df
        return df.rename(columns={col: "n_starts"})

    return arm


ANN_QUERY_IDS = [0, 1, 2, 3, 4]
HNSW_MIN_RECALL = 0.9
SQ8_MIN_RECALL = 0.9
LSH_MIN_RECALL = 0.7
RADIUS_TAU = 0.30
RRF_CAND = 20  # per-arm candidate depth feeding the fusion


def _ann_queries(sf_dir: str):
    """The ANN_QUERY_IDS embeddings: every ANN arm's query vectors."""
    from lucene_ray.ops import ann

    return ann.load_queries(os.path.join(sf_dir, "embeddings.parquet"), ANN_QUERY_IDS)


def _ann(topk, *args, embs=_embs, **kw):
    """An ANN arm: ``topk(embeddings, query vectors, *args, **kw)``."""
    return lambda sf_dir: topk(embs(sf_dir), _ann_queries(sf_dir), *args, **kw)


def _lang_embs(sf_dir: str, lang: str | None = "en"):
    """The embeddings of the docs (whose lang is ``lang``, unless None)."""
    import duckdb
    import numpy as np

    where = f" WHERE lang = '{lang}'" if lang else ""
    allowed = set(
        duckdb.sql(
            f"SELECT doc_id FROM read_parquet('{os.path.join(sf_dir, 'documents.parquet')}')"
            + where
        ).df()["doc_id"]
    )

    def _mask(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy()
        return batch.filter(pa.array(np.array([int(i) in allowed for i in ids], bool)))

    return _embs(sf_dir).map_batches(_mask, batch_format="pyarrow")


def _recall_gated(what: str, approx, min_recall: float, embs=_embs):
    """An approximate ANN arm made driver-checkable: run ``approx``, assert
    per-query recall@10 >= ``min_recall`` against the exact brute cosine
    top-k over ``embs`` (a regression, or an empty result, turns the row
    red instead of silently passing), and return that exact top-k, which
    the DuckDB list_cosine_similarity oracle reproduces hash-exactly."""
    from lucene_ray.ops import ann

    def arm(sf_dir: str):
        got = _frame(approx(sf_dir), _ANN_SCHEMA)
        exact = _frame(_ann(ann.brute_topk, k=10, embs=embs)(sf_dir), _ANN_SCHEMA)
        if len(exact) == 0 == len(got):  # no vectors to find
            return pa.Table.from_pandas(exact, preserve_index=False)
        got = got.groupby("query_id")["neighbor_id"].apply(set)
        e = exact.groupby("query_id")["neighbor_id"].apply(set)
        recalls = {int(q): len(got.get(q, set()) & e[q]) / len(e[q]) for q in e.index}
        worst = min(recalls.values(), default=0.0)
        if worst < min_recall:
            raise AssertionError(
                f"{what} recall@10 regression: min over queries {worst:.3f} < "
                f"{min_recall} ({recalls})"
            )
        return pa.Table.from_pandas(exact, preserve_index=False)

    return arm


_ANN_SCHEMA = pa.schema([("query_id", pa.int64()), ("rnk", pa.int64()), ("neighbor_id", pa.int64())])
_doc_embs = partial(_lang_embs, lang=None)


def _knn(**kw):
    """A KnnFloatVectorQuery arm: per-SEGMENT persisted HNSW graphs
    (index/vectors.py, the Lucene99HnswVectorsWriter shape, one graph per
    segment keyed on local docids) searched through the ordinary
    distributed search path with the TopDocs merge."""
    return lambda sf_dir: ft.knn_index_topk(sf_dir, ANN_QUERY_IDS, k=10, **kw)


def _ann_rrf_hybrid(sf_dir: str):
    """Hybrid lexical+vector retrieval fused by reciprocal rank fusion
    (reference core/search/TopDocs.java rrf + TestTopDocsRRF): arm one is
    the BM25 top-RRF_CAND for QUERY_TERMS[qid] over documents, arm two
    the brute cosine top-RRF_CAND for embedding qid (documents and
    embeddings share the 0..N id space); fused score = sum of
    1/(60 + rank), ties by doc id."""
    from lucene_ray.ops import ann
    from lucene_ray.search.collector import rrf
    from lucene_ray.search.query import TermQuery
    from lucene_ray.search.searcher import IndexSearcher

    searcher = IndexSearcher(ft.ensure_index(sf_dir))
    vec = _ann(ann.brute_topk, k=RRF_CAND)(sf_dir).to_pandas()
    ranked = []
    for qid in ANN_QUERY_IDS:
        lex = [doc for doc, _s in searcher.search(TermQuery(ft.QUERY_TERMS[qid]), RRF_CAND)]
        v = vec[vec.query_id == qid].sort_values("rnk")["neighbor_id"].tolist()
        ranked.append((qid, [doc for doc, _s in rrf([lex, v], 10)]))
    return ft.ranked_table(ranked).rename_columns(["query_id", "rnk", "neighbor_id"])


def _ann_ivf_persisted(sf_dir: str):
    """PERSISTED IVF: kmeans + cell-partitioned parquet index on disk,
    query reads only the probed cell partitions (storage-level pruning).
    nprobe = ALL cells -> exact, so the brute-force SQL oracle applies;
    the scan reduction at nprobe < all is exercised in tests."""
    import glob

    from lucene_ray.ops import ann

    idx = os.path.join("/tmp", "lucene_ray_ivf", os.path.basename(sf_dir.rstrip("/")))
    if not glob.glob(os.path.join(idx, "cell=*")):
        ann.build_ivf_index(_embs(sf_dir), idx, k=8, iters=3)
    return ann.ivf_index_topk(idx, _ann_queries(sf_dir), k=10, nprobe=8)


def _ann_kmeans_ivf(sf_dir: str):
    """Learned-centroid IVF (distributed mini-batch k-means, the iterative
    broadcast+partial-reduce pattern).  nprobe = ALL cells makes the
    result exactly brute force, so the brute-force SQL oracle applies even
    though k-means itself is not SQL-expressible; partial probing is
    exercised in tests/test_ops_semantics.py."""
    from lucene_ray.ops import ann

    cents = ann.kmeans(_embs(sf_dir), k=8, iters=3)
    return ann.ivf_topk_kmeans(_embs(sf_dir), _ann_queries(sf_dir), cents, k=10, nprobe=8)


def _augmented_embs(sf_dir: str):
    """embeddings + planted near-duplicates: an exact copy of every 97th
    vec_id (id + 1_000_000) and a x2-scaled copy of every 89th
    (id + 2_000_000, cosine-invariant scaling).  The base corpus has no
    pair above ~0.6 cosine, so the >= 0.95 result is EXACTLY the planted
    pairs — the oracle SQL derives the same rows — and the near-dup LSH
    family is non-vacuous at driver scale (identical sign bits guarantee
    bucket recall 1.0 for the planted pairs)."""
    import numpy as np
    import pyarrow as _pa
    import pyarrow.compute as _pc

    def _plant(batch: _pa.Table) -> _pa.Table:
        batch = batch.select(["vec_id", "embedding"])
        ids = batch.column("vec_id").to_numpy()
        parts = [batch]
        m = np.nonzero(ids % 97 == 0)[0]
        if len(m):
            t = batch.take(m)
            parts.append(t.set_column(0, "vec_id", _pa.array(ids[m] + 1_000_000)))
        m = np.nonzero(ids % 89 == 0)[0]
        if len(m):
            t = batch.take(m)
            emb = t.column("embedding").combine_chunks()
            scaled = _pa.ListArray.from_arrays(
                emb.offsets, _pc.multiply(emb.values, _pa.scalar(2.0, _pa.float32()))
            )
            t = t.set_column(0, "vec_id", _pa.array(ids[m] + 2_000_000))
            parts.append(t.set_column(1, "embedding", scaled))
        return _pa.concat_tables(parts, promote_options="permissive")

    return _embs(sf_dir).map_batches(_plant, batch_format="pyarrow")


def _tx_doc_stats(sf_dir: str):
    """doc_profile + the NB quality-voting columns; the float NB log-odds
    labeling must agree with the integer voting labels on >= 70% of
    decided docs CORPUS-WIDE (measured 0.70-0.77 across driver sf — the
    doc_id-derived seed classes are deliberately weak signal, so the
    floor is 0.6: it still catches gross regressions like a flipped
    comparison, which lands near 0.3), then the float column is dropped
    so the checked output stays integer-exact."""
    import numpy as np

    from lucene_ray.ops import text

    path = os.path.join(sf_dir, "documents.parquet")
    kw = {
        "bench_grams": text.benchmark_grams(path),
        "dsir": text.dsir_scores(path),
        "nb": text.nb_votes(path),
    }
    cols = ("doc_id", "text", "lang")
    df = _frame(
        text.doc_profile(_docs(sf_dir, cols), **kw),
        text.doc_profile_batch(_no_docs(sf_dir, cols), **kw).schema,
    )
    votes = df["nb_label"].to_numpy()
    flo = np.sign(df["nb_logodds"].to_numpy()).astype(np.int64)
    decided = (votes != 0) & (flo != 0)
    if int(decided.sum()):
        agree = float((votes[decided] == flo[decided]).mean())
        assert agree >= 0.6, (
            f"NB voting/log-odds label agreement regressed: {agree:.3f}"
        )
    return df.drop(columns=["nb_logodds"])


def _merged_bm25(sf_dir: str):
    """BM25 over an index that went through tiered force-merge: many tiny
    segments -> 1.  Results must equal the unmerged oracle rank-identically
    (SegmentMerger invariant: impacts/skips rebuilt, docIDs preserved)."""
    from lucene_ray.index import manifest as mfst
    from lucene_ray.index.merge import force_merge
    from lucene_ray.search.query import TermQuery
    from lucene_ray.search.searcher import IndexSearcher

    idx = ft.ensure_index(sf_dir, docs_per_segment=64)
    if len(mfst.read_manifest(idx)["segments"]) > 1:
        force_merge(idx, max_segments=1)
    return ft.hits_table(IndexSearcher(idx), [TermQuery(t) for t in ft.QUERY_TERMS], 10)


def _distributed_bm25(sf_dir: str):
    from lucene_ray.search.query import TermQuery
    from lucene_ray.search.searcher import DistributedSearcher

    searcher = DistributedSearcher(ft.ensure_index(sf_dir), num_workers=2)
    return ft.hits_table(searcher, [TermQuery(t) for t in ft.QUERY_TERMS], 10)


def _page2_bm25(sf_dir: str):
    from lucene_ray.search.query import TermQuery
    from lucene_ray.search.searcher import IndexSearcher

    searcher = IndexSearcher(ft.ensure_index(sf_dir))
    ranked = []
    for qid, term in enumerate(ft.QUERY_TERMS):
        page1 = searcher.search(TermQuery(term), 10)
        if not page1:
            continue
        after = (float(page1[-1][1]), int(page1[-1][0]))
        ranked.append((qid, [d for d, _s in searcher.search_after(TermQuery(term), 10, after)]))
    return ft.ranked_table(ranked)


def _dd_duplicate_clusters(sf_dir: str):
    """Duplicate-cluster FAMILY (family, doc_id, cluster_id, cluster_size):

    - family='jaccard': connected components over verified n-gram-Jaccard
      near-dup pairs (ops/dedup.duplicate_clusters).
    - family='semantic': SemDeDup (Abbas et al. 2023), the SCALE path:
      sign-bucketed exact cosine>=0.9 components (integer-exact
      threshold restricted to same-sign-bucket pairs; the oracle applies
      the identical bucketing, so rows are bit-exact).  Two driver-scale
      GATES run beside it: (a) the bucketed edge set must recall >= 90%
      of the all-pairs exact edges (sign buckets rarely split true
      near-dups), and (b) the k-means drops path must drop only exact-
      component members and cover >= 50% of the exact non-representative
      set (measured 0.65-0.68 at k=16) — a regression in either turns
      this row red."""
    import pandas as pd

    from lucene_ray.ops import dedup, semdedup

    clusters = pa.schema([(c, pa.int64()) for c in ("doc_id", "cluster_id", "cluster_size")])
    jac = _frame(dedup.duplicate_clusters(_docs(sf_dir)), clusters)
    jac.insert(0, "family", "jaccard")
    # ONE tokenize+hash scan shared by the checked bucketed arm and the
    # two driver-scale gates
    tf = semdedup.hashed_tf(_docs(sf_dir)).materialize()
    if not tf.count():  # an empty corpus: no clusters, nothing to gate
        return jac
    sem = semdedup.semantic_duplicate_clusters_bucketed(None, tf=tf).to_pandas()
    sem.insert(0, "family", "semantic")

    # gate (a): bucketed edges vs all-pairs exact edges
    exact_pairs = semdedup.semantic_pair_edges(tf).to_pandas()
    bucketed_pairs = semdedup.semantic_pair_edges_bucketed(tf).to_pandas()
    exact_set = set(zip(exact_pairs["doc_a"], exact_pairs["doc_b"]))
    bucket_set = set(zip(bucketed_pairs["doc_a"], bucketed_pairs["doc_b"]))
    assert bucket_set <= exact_set, "bucketed edge not in the exact edge set"
    if exact_set:
        recall = len(bucket_set) / len(exact_set)
        assert recall >= 0.9, f"sign-bucket edge recall regressed: {recall:.3f}"

    # gate (b): k-means drops vs the exact components
    exact = semdedup.semantic_duplicate_clusters(None, tf=tf).to_pandas()
    drops = semdedup.semdedup_drops(None, k=16, tf=tf).to_pandas()
    members = set(exact["doc_id"]) if len(exact) else set()
    assert set(drops["doc_id"]) <= members, "SemDeDup dropped a non-duplicate"
    nonrep = len(exact) - (exact["cluster_id"].nunique() if len(exact) else 0)
    if nonrep > 0:  # a duplicate-free corpus has nothing to cover
        coverage = len(drops) / nonrep
        assert coverage >= 0.5, f"SemDeDup coverage regressed: {coverage:.3f}"

    return pd.concat([jac, sem], ignore_index=True)


def _dd_signatures(sf_dir: str):
    """MinHash signature matrix + SimHash 64-bit signatures in one entry:
    (method, doc_id, i, sig) with sig as uint64 (simhash rows carry i=0)."""
    import pandas as pd

    from lucene_ray.ops import dedup

    parts = []
    for method, fn, cols in (
        ("minhash", dedup.minhash_signatures, ("doc_id", "i", "sig")),
        ("simhash", dedup.simhash, ("doc_id", "simhash")),
        ("exact", dedup.exact_survivor_signatures, ("doc_id", "sig")),
        # duplicate-substring window hashes (Lee et al. shape; window=20
        # so the short driver docs yield multiple windows)
        ("substr", partial(dedup.substring_window_signatures, window=20), ("doc_id", "i", "sig")),
        # CCNet/RefinedWeb line-level dedup riding this family (driver
        # 50-entry cap): i packs (kept, dropped) counts, sig = the uint64
        # md5_number_lower image of the reassembled text (digest bytes
        # [8:16] little-endian — exactly md5_u64 of the kept text)
        ("line_dedup", dedup.line_dedup, ("doc_id", "kept", "dropped", "digest")),
    ):
        # typed: an empty corpus yields no columns
        df = _frame(fn(_docs(sf_dir)), pa.schema([(c, pa.string() if c == "digest" else pa.int64()) for c in cols]))
        df = df.rename(columns={"simhash": "sig"})
        if method == "line_dedup":
            df["i"] = df["kept"] * 1_000_000 + df["dropped"]
            df["sig"] = df["digest"].map(lambda h: int.from_bytes(bytes.fromhex(h)[8:16], "little"))
        # cast each part before the concat (int64+uint64 would promote to
        # float64 and shred the high bits)
        df["sig"] = df["sig"].astype("uint64")
        parts.append(df.assign(method=method, i=df["i"] if "i" in df else 0)[["method", "doc_id", "i", "sig"]])
    out = pd.concat(parts, ignore_index=True)
    out["i"] = out["i"].astype("int64")
    return out


def _rescore_sql() -> str:
    """QueryRescorer oracle: first_n base hits by float32 score, combined
    = f32(base_f32 + w * second_f32) re-ranked top-10 (the engine's exact
    cast discipline)."""
    rq = ", ".join(
        f"({qi}, '{a}', '{b}', {w})"
        for qi, (a, b, w) in enumerate(ft.RESCORE_QUERIES)
    )
    return f"""
WITH {_COLLECTION},
q(qid, ta, tb, w) AS (VALUES {rq}),
allt(qid, term) AS (SELECT 0, ta FROM q UNION SELECT 0, tb FROM q),
{_term_scores(q="allt")},
sc AS (SELECT term, doc_id, score::FLOAT AS sf FROM clause),
firstn AS (
  SELECT * FROM (
    SELECT q.qid, s.doc_id, s.sf, q.w, q.tb,
           row_number() OVER (
             PARTITION BY q.qid ORDER BY s.sf DESC, s.doc_id
           ) AS brnk
    FROM q JOIN sc s ON s.term = q.ta
  ) WHERE brnk <= {ft.RESCORE_FIRST_N}
),
comb AS (
  SELECT f.qid, f.doc_id,
         CAST(f.sf + f.w * coalesce(x.sf, 0) AS FLOAT) AS cs
  FROM firstn f
  LEFT JOIN sc x ON x.term = f.tb AND x.doc_id = f.doc_id
),
{_topk("comb", "cs DESC, doc_id")}
"""


def _mfp_values() -> str:
    """(qid, field, term, boost) rows compiled from the SAME
    parse_multifield expansion the engine executes."""
    from lucene_ray.index.multifield import parse_multifield

    rows = []
    for qid, qs in enumerate(ft.MULTIFIELD_PARSE_QUERIES):
        for c in parse_multifield(qs, ("text", "title"), {"title": ft.TITLE_BOOST}):
            rows.append(f"({qid}, '{c.field}', '{c.query.term}', {c.boost})")
    return ", ".join(rows)


def _clean_corpus(sf_dir: str):
    import hashlib as _h

    from lucene_ray.ops.clean import clean_corpus

    out = os.path.join(
        "/tmp", "lucene_ray_clean", _h.sha256(sf_dir.encode()).hexdigest()[:10]
    )
    return clean_corpus(_docs(sf_dir, ("doc_id", "text", "lang")), out_dir=out)


def _dd_near_pairs(sf_dir: str):
    """LSH-banded MinHash candidates + SimHash near pairs + n-gram Jaccard
    pairs in one entry: (method, doc_a, doc_b, m1, m2) where m1/m2 are the
    method's own integers (lsh: -1/-1, simhash: hamming/-1, ngram:
    intersection/union sizes)."""
    from lucene_ray.ops import dedup

    def pairs(fn, cols, **kw):  # typed: an empty corpus yields no columns
        schema = pa.schema([(c, pa.int64()) for c in ("doc_a", "doc_b", *cols)])
        return lambda sf: _frame(fn(_docs(sf), max_group=10**6, **kw), schema).rename(columns=cols)

    out = _family(
        "method",
        ("lsh", pairs(dedup.lsh_candidate_pairs, {})),
        ("simhash", pairs(dedup.simhash_near_pairs, {"hamming": "m1"})),
        ("ngram", pairs(dedup.ngram_jaccard_pairs, {"inter": "m1", "union_sz": "m2"}, min_jaccard_pct=20)),
    )(sf_dir).fillna({"m1": -1, "m2": -1})
    return out.astype({c: "int64" for c in ("doc_a", "doc_b", "m1", "m2")})[
        ["method", "doc_a", "doc_b", "m1", "m2"]
    ]


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _table() -> list[tuple[str, Callable[[str], Any], str]]:
    """The driver entries in order: (name, pipeline, oracle SQL)."""
    import pandas as pd

    from lucene_ray.ops import ann, events, multimodal, text
    from lucene_ray.ops import semdedup as semdedup_mod
    from lucene_ray.ops.clean import training_mix

    qterms_in = ", ".join(f"'{t}'" for t in ft.QUERY_TERMS)
    # ft_quality_run: cumulative relevant count per rank
    quality_out = (
        "qid::BIGINT AS qid, rnk::BIGINT AS rnk, doc_id, relevant, "
        "sum(relevant) OVER (PARTITION BY qid ORDER BY rnk)::BIGINT AS rel_so_far"
    )
    # ft_suggest_family: suggestions ranked per query
    suggest_out = "qid::BIGINT AS qid, rnk::BIGINT AS rnk, term, weight"
    return [
        # --- fulltext index pipelines (the flagship) ---
        # standard + code analyzer (WordDelimiter-lite camelCase/snake_case
        # split) term stats as one analyzer-tagged family entry
        ("ft_term_stats", _family(
            "analyzer",
            *[
                (name, partial(ft.term_stats_all, analyzer=name))
                for name in (
                    "standard", "code", "english_minimal", "synonym", "edge_ngram",
                    "ngram", "reverse", "mapped", "custom_chain", "pattern",
                    "common_grams", "fingerprint", "keyword_repeat", "synonym_graph",
                )
            ],
            *[(arm, partial(ft.derived_term_stats, arm=arm)) for arm in ft.DERIVED_ARMS],
            schema=ft.TERM_STATS_SCHEMA,
        ), _term_stats_sql()),
        # inverted postings + term-vector forward index (one oracle both
        # ways certifies the TermVectorsWriter-analogue artifact)
        ("ft_term_postings", _family(
            "family", ("postings", ft.term_postings), ("vectors", ft.term_vectors_dump)
        ), f"""
WITH {_TOKS}
SELECT 'postings' AS family, tok AS term, doc_id, tf
FROM tf WHERE tok IN ({qterms_in})
UNION ALL
SELECT 'vectors', tok, doc_id, tf
FROM tf WHERE doc_id IN ({", ".join(str(d) for d in ft.TV_SAMPLE_DOCS)})
"""),
        ("ft_doc_norms", ft.doc_norms, f"""
WITH {_COLLECTION}
SELECT d.doc_id,
       (SELECT max(nb) FROM lt WHERE lt.L <= d.dl)::BIGINT AS norm_byte,
       d.ql AS dl_quantized
FROM dlq d
"""),
        ("ft_collection_stats", ft.collection_stats, f"""
WITH {_COLLECTION}
SELECT (SELECT count(*) FROM documents)::BIGINT AS max_doc,
       doc_count,
       sum_ttf AS sum_total_term_freq,
       (SELECT count(*) FROM tf)::BIGINT AS sum_doc_freq
FROM stats
"""),
        ("ft_top_terms", ft.top_terms, f"""
WITH {_TOKS},
ts AS ({_term_stats("tf")})
-- HighFreqTerms (misc/HighFreqTerms.java): both comparators
SELECT 'ttf' AS ord, term, doc_freq, total_term_freq FROM
  (SELECT * FROM ts ORDER BY total_term_freq DESC, term ASC LIMIT 25)
UNION ALL
SELECT 'df' AS ord, term, doc_freq, total_term_freq FROM
  (SELECT * FROM ts ORDER BY doc_freq DESC, term ASC LIMIT 25)
"""),
        # family: same query set answered from a LOCAL index root and from
        # a REMOTE (fsspec file://) root through the store Directory seam —
        # one oracle certifies BM25 and the shared-storage IO path at once
        ("ft_bm25_topk", _family(
            "store",
            ("local", _family(
                "analyzer",
                ("standard", ft.bm25_topk),
                # the english_minimal analysis chain (stop set + S-stemmer)
                ("english_minimal", partial(ft.bm25_topk, analyzer="english_minimal")),
            )),
            ("remote", _family("analyzer", ("standard", ft.bm25_topk_remote))),
        ), f"""
SELECT s.store, 'standard' AS analyzer, r.* FROM (
WITH {_COLLECTION},
{_Q_TERMS},
{_BM25_COMMON}
) r CROSS JOIN (VALUES ('local'), ('remote')) s(store)
UNION ALL
SELECT 'local', 'english_minimal', r2.* FROM (
WITH {_collection(_TOKS_EN)},
{_Q_TERMS},
{_BM25_COMMON}
) r2
"""),
        ("ft_bool_counts", ft.bool_counts, _bool_counts_sql()),
        ("ft_multiterm_matches", _family(
            "family",
            ("prefix", ft.prefix_matches),
            ("prefix_scored", ft.prefix_scored_matches),
            ("in_set", ft.term_in_set_matches),
            # doc-values twin of in_set (sandbox DocValuesTermsQuery)
            ("in_set_dv", ft.dv_terms_matches),
            # numeric-set twin (sandbox DocValuesNumbersQuery)
            ("in_set_numbers_dv", ft.dv_numbers_matches),
            # IDVersion PK seekExact (sandbox idversion + PerThreadPK
            # Lookup): rnk=0 row carries found, rnk=1 the version
            ("pk_lookup", ft.pk_lookup_rows),
            ("wildcard", ft.wildcard_matches),
            ("regexp", ft.regexp_matches),
            ("fuzzy", ft.fuzzy_matches),
            # FuzzyQuery's DEFAULT rewrite: top-terms blended-freq scoring
            ("fuzzy_scored", ft.fuzzy_scored_matches),
        ), f"""
SELECT 'prefix' AS family, * FROM ({_prefix_sql()})
UNION ALL SELECT 'prefix_scored', * FROM ({_prefix_scored_sql()})
UNION ALL SELECT 'in_set', * FROM ({_in_set_sql()})
UNION ALL SELECT 'in_set_dv', * FROM ({_in_set_dv_sql()})
UNION ALL SELECT 'in_set_numbers_dv', * FROM ({_in_set_numbers_dv_sql()})
UNION ALL SELECT 'pk_lookup', * FROM (
WITH q(qid, id, minv) AS (VALUES {", ".join(f"({i}, {idv}, {mv})" for i, (idv, mv) in enumerate(ft.PK_LOOKUPS))}),
pk AS (
  SELECT q.qid::BIGINT AS qid,
         (CASE WHEN d.doc_id IS NOT NULL AND d.n_chars >= q.minv
               THEN 1 ELSE 0 END)::BIGINT AS found,
         (CASE WHEN d.doc_id IS NOT NULL AND d.n_chars >= q.minv
               THEN d.n_chars ELSE -1 END)::BIGINT AS version
  FROM q LEFT JOIN documents d ON d.doc_id = q.id
)
SELECT qid, 0::BIGINT AS rnk, found AS doc_id FROM pk
UNION ALL SELECT qid, 1::BIGINT, version FROM pk
)
UNION ALL SELECT 'fuzzy_scored', * FROM ({_fuzzy_scored_sql()})
UNION ALL SELECT 'wildcard', * FROM ({_wildcard_sql()})
UNION ALL SELECT 'regexp', * FROM ({_regexp_sql()})
UNION ALL SELECT 'fuzzy', * FROM ({_fuzzy_sql()})
"""),
        # SynonymQuery (one pseudo-term: df=max, ttf=sum, freq=sum(boost*tf))
        # beside BlendedTermQuery (separate clauses with EQUALIZED df=max
        # stats, dismax tie=0.01 / SHOULD-sum rewrites) over the same groups
        # + the DisjunctionMax / QueryRescorer arms (driver 50-entry cap)
        # SynonymQuery blended scoring (SynonymQuery.java): ONE idf from the
        # blended df=max(term df); freq = sum(boost*tf); terms with df=0
        # drop out of both naturally
        ("ft_synonym_topk", _family(
            "arm",
            ("synonym", ft.synonym_topk),
            ("blended_dismax", partial(ft.blended_topk, rewrite="dismax")),
            ("blended_bool", partial(ft.blended_topk, rewrite="boolean")),
            ("dismax", ft.dismax_topk),
            ("rescored", ft.rescored_topk),
        ), f"""
WITH syn AS (
WITH {_COLLECTION},
q(qid, term, boost) AS (VALUES {_SYN_VALUES}),
{_postings()},
{_BLEND},
freqs AS (
  SELECT qid, doc_id, sum(boost * tf) AS freq FROM posting GROUP BY qid, doc_id
),
scored AS (
  SELECT f.qid, f.doc_id, {_bm25("f.freq", "b.df")} AS score
  FROM freqs f
  JOIN blend b ON b.qid = f.qid
  JOIN dlq d ON d.doc_id = f.doc_id
  CROSS JOIN stats s
),
{_topk("scored")}
)
SELECT 'synonym' AS arm, s.* FROM syn s
UNION ALL SELECT 'blended_dismax', b.* FROM ({_blended_sql("dismax")}) b
UNION ALL SELECT 'blended_bool', b2.* FROM ({_blended_sql("boolean")}) b2
UNION ALL SELECT 'dismax', d.* FROM ({_dismax_sql()}) d
UNION ALL SELECT 'rescored', r.* FROM ({_rescore_sql()}) r
"""),
        # lucene/suggest family: weighted prefix completion from the term
        # dictionary + the DirectSpellChecker candidate scan and the other
        # suggesters, all (qid, rnk, term, weight)
        # suggester: completions = dictionary terms under the prefix,
        # weight = doc freq, ties broken term-ascending
        ("ft_suggest_family", _family(
            "method",
            ("prefix", ft.suggest_prefix),
            # RegexCompletionQuery: regex-accepted prefix completions
            ("regex", ft.regex_suggest),
            ("spell", ft.spell_suggest),
            ("freetext", ft.freetext_suggest),
            ("wordbreak", ft.wordbreak_suggest),
            ("spell_jaro", ft.spell_suggest_jaro),
            # AnalyzingInfixSuggester: prefix matches EITHER bigram token
            ("infix", ft.infix_suggest),
            # BlendedInfixSuggester: weight blended by first-match
            # position (linear / reciprocal), reference long math
            ("blended_linear", partial(ft.blended_infix_suggest, blender="linear")),
            ("blended_recip", partial(ft.blended_infix_suggest, blender="reciprocal")),
            # FuzzySuggester: prefix within 1 Damerau edit completes
            ("fuzzy", ft.fuzzy_suggest),
            # DocumentDictionary: entries from stored doc fields
            # (title, n_chars weight), whole-entry prefix lookup
            ("document", ft.document_suggest),
            # ContextQuery: lang-context filtering + boosting over
            # ContextSuggestField-style entries
            ("context", ft.context_suggest),
        ), f"""
SELECT r.*, 'prefix' AS method FROM (
WITH {_TOKS},
ts AS (SELECT tok AS term, count(*)::BIGINT AS weight FROM tf GROUP BY tok),
q(qid, p) AS (VALUES {", ".join(f"({i}, '{p}')" for i, p in enumerate(ft.PREFIXES))}),
cand AS (SELECT q.qid, ts.term, ts.weight FROM q JOIN ts ON ts.term LIKE q.p || '%'),
{_topk("cand", "weight DESC, term", out=suggest_out)}
) r
UNION ALL
-- RegexCompletionQuery: the regex accepts some PREFIX of the suggestion
-- (anchored, unbounded end — '^(?:...)' with unanchored regexp_matches)
SELECT r.*, 'regex' FROM (
WITH {_TOKS},
ts AS (SELECT tok AS term, count(*)::BIGINT AS weight FROM tf GROUP BY tok),
q(qid, p) AS (VALUES {", ".join(f"({i}, '{p}')" for i, p in enumerate(ft.REGEX_SUGGEST_QUERIES))}),
cand AS (SELECT q.qid, ts.term, ts.weight FROM q JOIN ts ON regexp_matches(ts.term, '^(?:' || q.p || ')')),
{_topk("cand", "weight DESC, term", out=suggest_out)}
) r
UNION ALL
SELECT r.*, 'spell' FROM (
WITH {_TOKS},
ts AS (SELECT tok AS term, count(*)::BIGINT AS weight FROM tf GROUP BY tok),
q(qid, misspelled) AS (VALUES {", ".join(f"({i}, '{m}')" for i, m in enumerate(ft.SPELL_QUERIES))}),
cand AS (
  SELECT q.qid, ts.term, ts.weight,
         damerau_levenshtein(ts.term, q.misspelled)::BIGINT AS d
  FROM q JOIN ts ON abs(len(ts.term) - len(q.misspelled)) <= {ft.SPELL_MAX_EDITS}
  WHERE damerau_levenshtein(ts.term, q.misspelled) BETWEEN 1 AND {ft.SPELL_MAX_EDITS}
),
{_topk("cand", "d, weight DESC, term", k=ft.SPELL_TOP_N, out=suggest_out)}
) r
UNION ALL
-- FreeTextSuggester 2-gram arm: next-word completions after a context
-- word, weighted by corpus bigram count (adjacent token-list pairs)
SELECT r.*, 'freetext' FROM (
WITH {_TOKS},
q(qid, ctx, pref) AS (VALUES {", ".join(f"({i}, '{c}', '{p}')" for i, (c, p) in enumerate(ft.FREETEXT_QUERIES))}),
pairs AS (
  SELECT doc_id, ts[i + 1] AS w1, ts[i + 2] AS w2
  FROM (SELECT doc_id, ts, unnest(range(len(ts) - 1)) AS i
        FROM toks WHERE len(ts) > 1)
),
bg AS (
  SELECT q.qid, p.w2 AS term, count(*)::BIGINT AS weight
  FROM q JOIN pairs p ON p.w1 = q.ctx AND p.w2 LIKE q.pref || '%'
  GROUP BY q.qid, p.w2
),
{_topk("bg", "weight DESC, term", out=suggest_out)}
) r
UNION ALL
-- WordBreakSpellChecker.generateBreakUpSuggestions: single splits into
-- two dictionary words, ranked by summed doc freq
SELECT r.*, 'wordbreak' FROM (
WITH {_TOKS},
ts AS (SELECT tok AS term, count(*)::BIGINT AS df FROM tf GROUP BY tok),
q(qid, w) AS (VALUES {", ".join(f"({i}, '{w}')" for i, w in enumerate(ft.WORDBREAK_QUERIES))}),
splits AS (
  SELECT qid, w, CAST(i AS INT) AS i
  FROM (SELECT qid, w, unnest(range(1, len(w))) AS i FROM q)
),
cand AS (
  SELECT s.qid, substr(s.w, 1, s.i) || ' ' || substr(s.w, s.i + 1) AS term,
         tl.df + tr.df AS weight
  FROM splits s
  JOIN ts tl ON tl.term = substr(s.w, 1, s.i)
  JOIN ts tr ON tr.term = substr(s.w, s.i + 1)
),
{_topk("cand", "weight DESC, term", k=ft.WORDBREAK_TOP_N, out=suggest_out)}
) r
UNION ALL
-- SpellChecker + JaroWinklerDistance comparator: same Damerau-bounded
-- candidate set, ranked similarity DESC, doc freq DESC, term ASC
SELECT r.*, 'spell_jaro' FROM (
WITH {_TOKS},
ts AS (SELECT tok AS term, count(*)::BIGINT AS weight FROM tf GROUP BY tok),
q(qid, misspelled) AS (VALUES {", ".join(f"({i}, '{m}')" for i, m in enumerate(ft.SPELL_QUERIES))}),
cand AS (
  SELECT q.qid, ts.term, ts.weight,
         jaro_winkler_similarity(ts.term, q.misspelled) AS jw
  FROM q JOIN ts ON abs(len(ts.term) - len(q.misspelled)) <= {ft.SPELL_MAX_EDITS}
  WHERE damerau_levenshtein(ts.term, q.misspelled) BETWEEN 1 AND {ft.SPELL_MAX_EDITS}
),
{_topk("cand", "jw DESC, weight DESC, term", k=ft.SPELL_TOP_N, out=suggest_out)}
) r
UNION ALL
-- AnalyzingInfixSuggester: bigram suggestion entries, the query prefix
-- matches EITHER token (the infix property)
SELECT r.*, 'infix' FROM (
WITH {_TOKS},
q(qid, p) AS (VALUES {", ".join(f"({i}, '{p}')" for i, p in enumerate(ft.INFIX_QUERIES))}),
pairs AS (
  SELECT doc_id, ts[i + 1] AS w1, ts[i + 2] AS w2
  FROM (SELECT doc_id, ts, unnest(range(len(ts) - 1)) AS i
        FROM toks WHERE len(ts) > 1)
),
bg AS (SELECT w1, w2, count(*)::BIGINT AS weight FROM pairs GROUP BY w1, w2),
cand AS (
  SELECT q.qid, b.w1 || ' ' || b.w2 AS term, b.weight
  FROM q JOIN bg b ON b.w1 LIKE q.p || '%' OR b.w2 LIKE q.p || '%'
),
{_topk("cand", "weight DESC, term", out=suggest_out)}
) r
UNION ALL
-- BlendedInfixSuggester (POSITION_LINEAR / POSITION_RECIPROCAL): the
-- infix weight blended by first-match position with the reference's
-- long arithmetic (|w|<10 rescales by 10, final trunc-to-long)
{" UNION ALL ".join(f'''
SELECT r.*, 'blended_{lbl}' FROM (
WITH {_TOKS},
q(qid, p) AS (VALUES {", ".join(f"({i}, '{p}')" for i, p in enumerate(ft.INFIX_QUERIES))}),
pairs AS (
  SELECT doc_id, ts[i + 1] AS w1, ts[i + 2] AS w2
  FROM (SELECT doc_id, ts, unnest(range(len(ts) - 1)) AS i
        FROM toks WHERE len(ts) > 1)
),
bg AS (SELECT w1, w2, count(*)::BIGINT AS weight FROM pairs GROUP BY w1, w2),
cand AS (
  SELECT q.qid, b.w1 || ' ' || b.w2 AS term,
         CASE WHEN b.w1 LIKE q.p || '%' THEN 0 ELSE 1 END AS pos,
         CASE WHEN b.weight < 10 AND b.weight > -10
              THEN trunc(b.weight * 10.0)::BIGINT ELSE b.weight END AS base
  FROM q JOIN bg b ON b.w1 LIKE q.p || '%' OR b.w2 LIKE q.p || '%'
),
blended AS (
  SELECT qid, term, trunc(base * ({coef}))::BIGINT AS weight FROM cand
),
{_topk("blended", "weight DESC, term", out=suggest_out)}
) r''' for lbl, coef in (("linear", "1.0 - 0.1 * pos"), ("recip", "1.0 / (pos + 1.0)")))}
UNION ALL
-- DocumentDictionary: title entries (first 5 tokens) weighted by the
-- stored n_chars, duplicates collapse to max weight, whole-entry prefix
SELECT r.*, 'document' FROM (
WITH {_TOKS},
titles AS (
  SELECT array_to_string(ts[1:5], ' ') AS term,
         max(d.n_chars)::BIGINT AS weight
  FROM toks JOIN documents d USING (doc_id) GROUP BY 1
),
q(qid, p) AS (VALUES {", ".join(f"({i}, '{p}')" for i, p in enumerate(ft.DOC_SUGGEST_QUERIES))}),
cand AS (
  SELECT q.qid, t.term, t.weight FROM q JOIN titles t ON t.term LIKE q.p || '%'
),
{_topk("cand", "weight DESC, term", out=suggest_out)}
) r
UNION ALL
-- ContextQuery (suggest/document/ContextQuery.java over
-- ContextSuggestField entries): contexts = doc lang, only ADDED contexts
-- match, score = weight * boost (CompletionScorer.score:98-106), best
-- context per surface form
SELECT r.*, 'context' FROM (
WITH {_TOKS},
entries AS (
  SELECT array_to_string(ts[1:5], ' ') AS term, d.lang AS ctx,
         max(d.n_chars)::BIGINT AS weight
  FROM toks JOIN documents d USING (doc_id) GROUP BY 1, 2
),
scoredx AS (
  SELECT term,
         max(weight * CASE ctx WHEN 'en' THEN 2 WHEN 'fr' THEN 1 END)::BIGINT AS weight
  FROM entries WHERE ctx IN ('en', 'fr') GROUP BY term
),
q(qid, p) AS (VALUES {", ".join(f"({i}, '{p}')" for i, p in enumerate(ft.DOC_SUGGEST_QUERIES))}),
cand AS (
  SELECT q.qid, s.term, s.weight FROM q JOIN scoredx s ON s.term LIKE q.p || '%'
),
{_topk("cand", "weight DESC, term", out=suggest_out)}
) r
UNION ALL
-- FuzzySuggester: completions whose prefix is within 1 Damerau edit of
-- the typed query (first char exact = nonFuzzyPrefix 1; queries shorter
-- than minFuzzyLength 3 complete exact-prefix only); DL(a,b) >=
-- abs(len(a)-len(b)) bounds qualifying prefix lengths to len(q) +- 1
SELECT r.*, 'fuzzy' FROM (
WITH {_TOKS},
ts AS (SELECT tok AS term, count(*)::BIGINT AS weight FROM tf GROUP BY tok),
q(qid, p) AS (VALUES {", ".join(f"({i}, '{p}')" for i, p in enumerate(ft.FUZZY_SUGGEST_QUERIES))}),
cand AS (
  SELECT q.qid, ts.term, ts.weight
  FROM q JOIN ts ON substr(ts.term, 1, {ft.FUZZY_NON_FUZZY_PREFIX})
                    = substr(q.p, 1, {ft.FUZZY_NON_FUZZY_PREFIX})
  WHERE CASE WHEN len(q.p) < {ft.FUZZY_MIN_LENGTH}
        THEN ts.term LIKE q.p || '%'
        ELSE least(
          damerau_levenshtein(q.p, substr(ts.term, 1, len(q.p) - 1)),
          damerau_levenshtein(q.p, substr(ts.term, 1, len(q.p))),
          damerau_levenshtein(q.p, substr(ts.term, 1, len(q.p) + 1))
        ) <= {ft.FUZZY_MAX_EDITS} END
),
{_topk("cand", "weight DESC, term", out=suggest_out)}
) r
"""),
        # lucene/grouping analogue: top groups by best hit + top docs per
        # group, beside AllGroupsCollector (group set + sizes) and
        # AllGroupHeadsCollector (global best doc per group)
        # grouping: groups ranked by their best hit (float32 score desc,
        # head doc asc), docs within a group by (score desc, doc asc)
        ("ft_grouped_topk", _family(
            "arm",
            ("top_groups", ft.grouped_topk),
            ("", lambda sf: dict(zip(("all_groups", "all_group_heads"), ft.group_all(sf)))),
            # BlockGroupingCollector: groups are index-time doc blocks
            ("block", ft.block_grouped_topk),
            # DistinctValuesCollector: distinct lang count per group
            ("distinct_values", ft.distinct_values_groups),
        ), f"""
WITH {_COLLECTION},
q(qid, term) AS (VALUES {_GROUPED_VALUES}),
{_term_scores()},
gs AS (
  SELECT s.qid, d.{ft.GROUP_FIELD} AS grp, s.doc_id, s.score::FLOAT AS fscore
  FROM scored s JOIN documents d ON d.doc_id = s.doc_id
),
within AS (
  SELECT qid, grp, doc_id,
         row_number() OVER (PARTITION BY qid, grp ORDER BY fscore DESC, doc_id) AS rnk
  FROM gs
),
heads AS (
  SELECT qid, grp, fscore, doc_id FROM (
    SELECT qid, grp, fscore, doc_id,
           row_number() OVER (PARTITION BY qid, grp ORDER BY fscore DESC, doc_id) AS hr
    FROM gs) h WHERE hr = 1
),
granks AS (
  SELECT qid, grp,
         row_number() OVER (PARTITION BY qid ORDER BY fscore DESC, doc_id) AS grp_rnk
  FROM heads
),
-- BlockGroupingCollector (grouping/BlockGroupingCollector.java): groups
-- are the index-time _BLOCK_POS blocks, scored by the join queries
bscored AS (
  WITH q(qid, term) AS (VALUES {_JOIN_VALUES}),
  {_term_scores()}
  SELECT qid, doc_id, score::FLOAT AS fscore FROM scored
),
{_BLOCK_POS},
bg AS (
  SELECT s.qid, cp.parent_docid AS grp, cp.child_docid AS cdoc, s.fscore
  FROM bscored s JOIN cpos cp ON cp.doc_id = s.doc_id
),
bheads AS (
  SELECT qid, grp, fscore, cdoc FROM (
    SELECT qid, grp, fscore, cdoc,
           row_number() OVER (PARTITION BY qid, grp ORDER BY fscore DESC, cdoc) AS hr
    FROM bg) h WHERE hr = 1
),
bgrank AS (
  SELECT qid, grp,
         row_number() OVER (PARTITION BY qid ORDER BY fscore DESC, cdoc) AS grp_rnk
  FROM bheads
),
bwithin AS (
  SELECT qid, grp, cdoc,
         row_number() OVER (PARTITION BY qid, grp ORDER BY fscore DESC, cdoc) AS rnk
  FROM bg
)
SELECT 'top_groups' AS arm, w.qid::BIGINT AS qid, g.grp_rnk::BIGINT AS grp_rnk,
       w.grp, w.rnk::BIGINT AS rnk, w.doc_id
FROM within w JOIN granks g ON g.qid = w.qid AND g.grp = w.grp
WHERE g.grp_rnk <= {ft.N_GROUPS} AND w.rnk <= {ft.K_IN_GROUP}
UNION ALL
-- AllGroupsCollector: the full matching group set (+ sizes in doc_id)
SELECT 'all_groups', qid::BIGINT, row_number() OVER (PARTITION BY qid ORDER BY grp)::BIGINT,
       grp, 0::BIGINT, count(*)::BIGINT
FROM gs GROUP BY qid, grp
UNION ALL
-- AllGroupHeadsCollector: global best doc per group, every group
SELECT 'all_group_heads', qid::BIGINT,
       row_number() OVER (PARTITION BY qid ORDER BY grp)::BIGINT,
       grp, 0::BIGINT, doc_id
FROM (
  SELECT qid, grp, doc_id,
         row_number() OVER (PARTITION BY qid, grp ORDER BY fscore DESC, doc_id) AS hr
  FROM gs) h WHERE hr = 1
UNION ALL
SELECT 'block', w.qid::BIGINT, g.grp_rnk::BIGINT, w.grp::VARCHAR,
       w.rnk::BIGINT, w.cdoc
FROM bwithin w JOIN bgrank g ON g.qid = w.qid AND g.grp = w.grp
WHERE g.grp_rnk <= {ft.N_GROUPS} AND w.rnk <= {ft.K_IN_GROUP}
UNION ALL
-- DistinctValuesCollector: distinct lang values per group of matches
SELECT 'distinct_values', z.qid::BIGINT,
       row_number() OVER (PARTITION BY z.qid ORDER BY z.grp)::BIGINT,
       z.grp, 0::BIGINT, z.nd
FROM (
  SELECT s.qid, d.{ft.GROUP_FIELD} AS grp, count(DISTINCT d.lang)::BIGINT AS nd
  FROM scored s JOIN documents d ON d.doc_id = s.doc_id
  GROUP BY s.qid, d.{ft.GROUP_FIELD}
) z
"""),
        # queries/function FunctionScoreQuery: score * ln(1 + n_chars)
        # FunctionScoreQuery: float32 inner BM25 score times ln(1+n_chars)
        # in double, float32 cast for ranking
        ("ft_function_score_topk", _family(
            "family",
            ("fn", ft.function_score_topk),
            ("covering", ft.covering_topk),
            # FunctionRangeQuery: expression-valued match + score
            ("fn_range", ft.function_range_topk),
            # FeatureField: one arm per feature function, the fn
            # discriminator folded into the label
            ("feature_", lambda sf: {
                fn: g.drop(columns=["fn"]).reset_index(drop=True)
                for fn, g in ft.feature_topk(sf).to_pandas().groupby("fn")
            }),
            # RescoreTopNQuery: match set re-scored purely by a
            # DoubleValuesSource at rewrite time, cut to top n
            ("rescore_topn", ft.rescore_topn_topk),
        ), f"""
SELECT 'fn' AS family, r.* FROM (
WITH {_COLLECTION},
q(qid, term) AS (VALUES {_FSQ_VALUES}),
{_term_scores()},
fs AS (
  SELECT s.qid, s.doc_id,
         (s.score::FLOAT * ln(1 + d.{ft.FUNCTION_SCORE_FIELD}))::FLOAT AS fscore
  FROM scored s JOIN documents d ON d.doc_id = s.doc_id
),
{_topk("fs", "fscore DESC, doc_id")}
) r
UNION ALL
-- CoveringQuery (sandbox): docs matching >= greatest(1, 1 + n_chars % 3)
-- clauses, scored by the sum of the matching clauses' BM25 scores
SELECT 'covering', r.* FROM (
WITH {_COLLECTION},
q(qid, term) AS (VALUES {_COVERING_VALUES}),
{_term_scores()},
cov AS (
  SELECT a.qid, a.doc_id, a.score
  FROM scored a JOIN documents d ON d.doc_id = a.doc_id
  WHERE a.nmatch >= greatest(1, 1 + (d.n_chars % 3))
),
{_topk("cov")}
) r
UNION ALL
-- FunctionRangeQuery: expression value is both the match predicate
-- (inclusive range) and the score
SELECT 'fn_range', fr.* FROM ({_fn_range_sql()}) fr
UNION ALL
-- FeatureField: BM25 conjunction + per-function feature score over the
-- 9-bit-mantissa-quantized n_chars "static rank" (fn label folded into
-- the family discriminator — driver 50-entry cap)
SELECT 'feature_' || f.fn, f.qid, f.rnk, f.doc_id FROM ({_FEATURE_SQL}) f
UNION ALL
-- RescoreTopNQuery: the inner match set (COMPLETE_NO_SCORES — the
-- inner score never contributes) re-scored by the expression alone
SELECT 'rescore_topn', rt.* FROM (
WITH {_TOKS},
rq(qid, expr_id) AS (VALUES (0, 0), (1, 1), (2, 2)),
m0 AS (SELECT DISTINCT 0 AS qid, doc_id FROM tf WHERE tok = 'spark'),
m1 AS (SELECT DISTINCT 1 AS qid, doc_id FROM tf WHERE tok IN ('join', 'order')),
m2 AS (SELECT DISTINCT 2 AS qid, doc_id FROM tf WHERE tok = 'the'),
mm AS (SELECT * FROM m0 UNION ALL SELECT * FROM m1 UNION ALL SELECT * FROM m2),
vals AS (
  SELECT mm.qid, mm.doc_id,
         CASE mm.qid
           WHEN 0 THEN ln(1 + d.n_chars)
           WHEN 1 THEN d.n_chars - 97 * floor(d.n_chars / 97.0)
           ELSE -abs(d.n_chars - 250)
         END AS v
  FROM mm JOIN documents d ON d.doc_id = mm.doc_id
),
{_topk("vals", "v DESC, doc_id", k=ft.RESCORE_TOPN_N)}
) rt
"""),
        # core/document/FeatureField: BM25 MUST + feature SHOULD, one arm
        # per FeatureFunction (linear/log/satu/sigm) over the 9-bit-
        # mantissa-quantized n_chars feature; satu exercises the
        # computed-pivot rewrite
        # misc DocValuesStatsCollector: per-query aggregate stats of the
        # n_chars doc-values column over matching docs (exact integer
        # partials per segment; mean/variance one double expression)
        # DocValuesStatsCollector: exact integer stats + double mean/var
        # (the engine's (sum_sq - sum^2/n)/n expression, mirrored)
        ("ft_dv_stats", ft.doc_values_stats, f"""
WITH {_TOKS},
{_Q_TERMS},
m AS (
  SELECT q.qid, d.doc_id, d.n_chars
  FROM q JOIN tf ON tf.tok = q.term
  JOIN documents d ON d.doc_id = tf.doc_id
)
SELECT q.qid::BIGINT AS qid,
       count(n_chars)::BIGINT AS n,
       (count(m.doc_id) - count(n_chars))::BIGINT AS missing,
       coalesce(min(n_chars), 0)::BIGINT AS min_v,
       coalesce(max(n_chars), 0)::BIGINT AS max_v,
       coalesce(sum(n_chars), 0)::BIGINT AS sum_v,
       CASE WHEN count(n_chars) > 0
            THEN sum(n_chars)::DOUBLE / count(n_chars) ELSE 0.0 END AS mean,
       CASE WHEN count(n_chars) > 0
            THEN (sum(n_chars::BIGINT * n_chars)::DOUBLE
                  - (sum(n_chars)::DOUBLE * sum(n_chars)::DOUBLE)
                    / count(n_chars)) / count(n_chars)
            ELSE 0.0 END AS variance
FROM q LEFT JOIN m ON m.qid = q.qid GROUP BY q.qid
"""),
        # benchmark/quality (QualityBenchmark + TrecJudge + QualityStats):
        # BM25 top-20 judged against tf>=2 relevance — integer-exact
        # per-rank rows; judgments from INDEX postings, oracle recounts text
        # benchmark/quality judged run: BM25 top-20 + tf>=2 judgment,
        # cumulative relevant count per rank (all integers)
        ("ft_quality_run", ft.quality_judged_run, f"""
WITH {_COLLECTION},
{_Q_TERMS},
{_term_scores()},
-- one term per query: a hit is relevant when its own tf is high enough
judged AS (
  SELECT *, (CASE WHEN tf >= {ft.QUALITY_REL_TF} THEN 1 ELSE 0 END)::BIGINT AS relevant
  FROM clause
),
{_topk("judged", k=ft.QUALITY_K, out=quality_out)}
"""),
        # lucene/join JoinUtil query-time self-join (modes max/min/total/avg
        # over the source join field) beside the INDEX-TIME block join family
        # (ToParent ScoreModes + ToChildBlockJoin children, block-index
        # docids) — one mode-discriminated table
        # JoinUtil ScoreMode.Max: join value's best float32 from-score
        # becomes every to-side doc's score; ties by doc_id
        ("ft_join_topk", lambda sf: pa.concat_tables(
            [ft.join_topk(sf), ft.block_join_topk(sf)]
        ), f"""
WITH {_COLLECTION},
q(qid, term) AS (VALUES {_JOIN_VALUES}),
{_term_scores(combine="sum(score)::FLOAT")},
-- f32 from-scores are exact integers on the 2^-40 grid: TOTAL/AVG become
-- order-independent integer sums (mirrors pipelines/fulltext.py)
vals AS (
  SELECT s.qid, d.{ft.JOIN_FIELD} AS v,
         max(s.score) AS max_s, min(s.score) AS min_s,
         sum((s.score::DOUBLE * 1099511627776.0)::BIGINT)::BIGINT AS sum_i,
         count(*)::BIGINT AS cnt
  FROM scored s JOIN documents d ON d.doc_id = s.doc_id
  GROUP BY s.qid, d.{ft.JOIN_FIELD}
),
modes AS (
  SELECT 'max' AS mode, qid, v, max_s::DOUBLE AS jscore FROM vals
  UNION ALL SELECT 'min', qid, v, min_s::DOUBLE FROM vals
  UNION ALL SELECT 'total', qid, v, sum_i::DOUBLE FROM vals
  UNION ALL SELECT 'avg', qid, v, sum_i::DOUBLE / cnt::DOUBLE FROM vals
),
to_side AS (
  SELECT m.mode, m.qid, dd.doc_id, m.jscore
  FROM modes m JOIN documents dd ON dd.{ft.JOIN_FIELD} = m.v
),
ranked AS (
  SELECT mode, qid, doc_id,
         row_number() OVER (
           PARTITION BY mode, qid ORDER BY jscore DESC, doc_id
         ) AS rnk
  FROM to_side
),
-- INDEX-TIME block join over the _BLOCK_POS docids
{_BLOCK_POS},
bagg AS (
  SELECT s.qid, cp.parent_docid,
         max(s.score) AS mx, min(s.score) AS mn,
         sum((s.score::DOUBLE * 1099511627776.0)::BIGINT)::BIGINT AS si,
         count(*)::BIGINT AS c
  FROM scored s JOIN cpos cp ON cp.doc_id = s.doc_id
  GROUP BY s.qid, cp.parent_docid
),
bmodes AS (
  SELECT 'block_max' AS mode, qid, parent_docid AS did, mx::DOUBLE AS jscore FROM bagg
  UNION ALL SELECT 'block_min', qid, parent_docid, mn::DOUBLE FROM bagg
  UNION ALL SELECT 'block_total', qid, parent_docid, si::DOUBLE FROM bagg
  UNION ALL SELECT 'block_avg', qid, parent_docid, si::DOUBLE / c::DOUBLE FROM bagg
  UNION ALL SELECT 'block_none', qid, parent_docid, 0.0 FROM bagg
),
branked AS (
  SELECT mode, qid, did,
         row_number() OVER (PARTITION BY mode, qid ORDER BY jscore DESC, did) AS rnk
  FROM bmodes
),
tchild AS (
  SELECT 'block_children' AS mode, 0 AS qid, child_docid AS did,
         row_number() OVER (ORDER BY child_docid) AS rnk
  FROM cpos WHERE source IN ({", ".join(f"'{s}'" for s in ft.BLOCK_CHILD_SOURCES)})
),
-- ToChildBlockJoin doScores: each child carries its parent's qid-0
-- ToParent-max score
tchildsc AS (
  SELECT 'block_child_scores' AS mode, 0 AS qid, cp.child_docid AS did,
         row_number() OVER (ORDER BY b.mx DESC, cp.child_docid) AS rnk
  FROM bagg b JOIN cpos cp ON cp.parent_docid = b.parent_docid
  WHERE b.qid = 0
)
SELECT mode, qid::BIGINT AS qid, rnk::BIGINT AS rnk, doc_id FROM ranked WHERE rnk <= 10
UNION ALL
SELECT mode, qid::BIGINT, rnk::BIGINT, did FROM branked WHERE rnk <= 10
UNION ALL
SELECT mode, qid::BIGINT, rnk::BIGINT, did FROM tchild WHERE rnk <= 10
UNION ALL
SELECT mode, qid::BIGINT, rnk::BIGINT, did FROM tchildsc WHERE rnk <= 10
"""),
        # queries/mlt MoreLikeThis (seed term vector -> tf*idf term
        # selection -> SHOULD disjunction, seed excluded) + FuzzyLikeThisQuery
        # (sandbox/queries/FuzzyLikeThisQuery.java, ignoreTF mode) as one
        # method-tagged family
        # MoreLikeThis: seed's term vector -> tf*(ln((N+1)/(df+1))+1) term
        # selection (top 10, ties term-asc) -> BM25 SHOULD disjunction,
        # seed doc excluded from the hits
        ("ft_mlt_topk", _family(
            "method",
            ("mlt", ft.mlt_topk),
            ("flt", ft.fuzzy_like_this_topk),
            ("mlt_text", ft.mlt_text_topk),
        ), f"""
SELECT 'mlt' AS method, m.* FROM (
WITH {_COLLECTION},
seeds(sid, sdoc) AS (VALUES {", ".join(f"({i}, {d})" for i, d in enumerate(ft.MLT_SEEDS))}),
dfs AS (SELECT tok, count(*)::BIGINT AS df FROM tf GROUP BY tok),
seedterms AS (
  SELECT s.sid, t.tok,
         t.tf * (ln((st.doc_count + 1.0) / (d.df + 1.0)) + 1.0) AS mscore
  FROM seeds s
  JOIN tf t ON t.doc_id = s.sdoc
  JOIN dfs d ON d.tok = t.tok
  CROSS JOIN stats st
  WHERE t.tf >= {ft.MLT_MIN_TF} AND d.df >= {ft.MLT_MIN_DF}
),
q AS (
  SELECT sid AS qid, tok AS term FROM (
    SELECT sid, tok,
           row_number() OVER (PARTITION BY sid ORDER BY mscore DESC, tok) AS r
    FROM seedterms) z
  WHERE r <= {ft.MLT_MAX_TERMS}
),
{_term_scores()},
excl AS (
  SELECT sc.qid, sc.doc_id, sc.score
  FROM scored sc JOIN seeds s ON s.sid = sc.qid
  WHERE sc.doc_id != s.sdoc
),
{_topk("excl", out="qid::BIGINT AS sid, rnk::BIGINT AS rnk, doc_id")}
) m
UNION ALL
-- FuzzyLikeThisQuery (sandbox/queries/FuzzyLikeThisQuery.java, ignoreTF):
-- fuzzify sources over the dictionary, boost = 1 - ed/minlen (1.0 exact),
-- top 50 variants per source, score = boost^2 * idf(source df | avg
-- variant df), global top maxNumTerms, constant-score SHOULD sum
SELECT 'flt', fz.* FROM (
WITH {_TOKS},
vocab AS (SELECT tok AS term, count(*)::BIGINT AS df FROM tf GROUP BY tok),
srcs(qid, source) AS (VALUES {", ".join(f"({q}, '{t}')" for q, t in ft._flt_sources())}),
cand AS (
  SELECT s.qid, s.source, v.term AS variant,
         damerau_levenshtein(s.source, v.term)::BIGINT AS dist, v.df
  FROM srcs s JOIN vocab v
    ON damerau_levenshtein(s.source, v.term) <= {ft.FLT_MAX_EDITS}
),
boosted AS (
  SELECT qid, source, variant, df, dist,
         CASE WHEN dist = 0 THEN 1.0::FLOAT
              ELSE (1.0::FLOAT
                    - dist::FLOAT / least(length(source), length(variant))::FLOAT)
         END AS boost
  FROM cand
),
src_df AS (
  SELECT qid, source,
         coalesce(max(CASE WHEN dist = 0 THEN df END),
                  sum(df) // count(*))::BIGINT AS df_src
  FROM cand GROUP BY qid, source
),
topvar AS (
  SELECT * FROM (
    SELECT b.*,
           row_number() OVER (PARTITION BY qid, source
                              ORDER BY boost DESC, variant ASC) AS vr
    FROM boosted b) z WHERE vr <= {ft.FLT_MAX_VARIANTS}
),
scored AS (
  SELECT t.qid, t.variant,
         ((t.boost * t.boost)
          * (ln(((SELECT count(*) FROM documents) + 1) / (s.df_src + 1.0))
             + 1.0)::FLOAT)::FLOAT AS score
  FROM topvar t JOIN src_df s ON s.qid = t.qid AND s.source = t.source
),
sel AS (
  SELECT * FROM (
    SELECT qid, variant, score,
           row_number() OVER (PARTITION BY qid
                              ORDER BY score DESC, variant ASC) AS tr
    FROM scored) z WHERE tr <= {ft.FLT_MAX_TERMS}
),
docscore AS (
  SELECT s.qid, f.doc_id, sum(s.score::DOUBLE) AS ds
  FROM sel s JOIN tf f ON f.tok = s.variant
  GROUP BY s.qid, f.doc_id
)
SELECT qid::BIGINT AS sid, rnk::BIGINT AS rnk, doc_id FROM (
  SELECT qid, doc_id,
         row_number() OVER (PARTITION BY qid ORDER BY ds DESC, doc_id ASC) AS rnk
  FROM docscore) z WHERE rnk <= {ft.FLT_K}
) fz
UNION ALL
-- MoreLikeThisQuery like-TEXT mode: interesting terms from the free
-- text's own tf, df from the index, same selection + BM25 disjunction
SELECT 'mlt_text', mt.* FROM (
WITH {_COLLECTION},
ltq(qid, qtext) AS (VALUES {", ".join(f"({i}, '{t}')" for i, t in enumerate(ft.MLT_TEXTS))}),
qtf AS (
  SELECT qid, tok, count(*)::BIGINT AS qf
  FROM (SELECT qid, unnest(regexp_extract_all(qtext, '{TOKEN_PATTERN}')) AS tok
        FROM ltq)
  GROUP BY qid, tok
),
dfs AS (SELECT tok, count(*)::BIGINT AS df FROM tf GROUP BY tok),
candt AS (
  SELECT q.qid, q.tok,
         q.qf * (ln((st.doc_count + 1.0) / (d.df + 1.0)) + 1.0) AS mscore
  FROM qtf q JOIN dfs d ON d.tok = q.tok CROSS JOIN stats st
  WHERE q.qf >= {ft.MLT_MIN_TF} AND d.df >= {ft.MLT_MIN_DF}
),
qsel AS (
  SELECT qid, tok AS term FROM (
    SELECT qid, tok,
           row_number() OVER (PARTITION BY qid ORDER BY mscore DESC, tok) AS r
    FROM candt) z
  WHERE r <= {ft.MLT_MAX_TERMS}
),
{_term_scores(q="qsel")},
{_topk("scored", out="qid::BIGINT AS sid, rnk::BIGINT AS rnk, doc_id")}
) mt
"""),
        # lucene/monitor percolator: registered queries broadcast, the
        # corpus STREAMS through matchers (inverted dataflow)
        ("ft_percolate_counts", _percolate_both_paths, _percolate_sql()),
        # lucene/highlighter analogue: best W-token passage per top doc,
        # integer (n_uniq, n_hits, earliest) scoring over the positions
        # index (BreakIterator-passage deviation documented in the module)
        # highlighter: window anchored at a match position, scored by
        # (distinct terms, total hits, earliest start) — all integers
        ("ft_highlight_passages", ft.highlight_passages, f"""
WITH {_COLLECTION},
q(qid, term) AS (VALUES {_DISJ_VALUES}),
{_term_scores()},
top AS (
  SELECT qid, doc_id FROM (
    SELECT qid, doc_id,
           row_number() OVER (PARTITION BY qid ORDER BY score::FLOAT DESC, doc_id) AS rnk
    FROM scored) z WHERE rnk <= {ft.HIGHLIGHT_K}
),
s AS (SELECT doc_id, ts, unnest(range(len(ts))) AS i FROM toks WHERE len(ts) > 0),
mp AS (
  SELECT q.qid, s.doc_id, s.i AS p, s.ts[s.i + 1] AS tok
  FROM s JOIN q ON s.ts[s.i + 1] = q.term
),
mpt AS (SELECT mp.* FROM mp JOIN top ON top.qid = mp.qid AND top.doc_id = mp.doc_id),
win AS (
  SELECT a.qid, a.doc_id, a.p AS pstart,
         count(*)::BIGINT AS n_hits, count(DISTINCT b.tok)::BIGINT AS n_uniq
  FROM mpt a JOIN mpt b ON b.qid = a.qid AND b.doc_id = a.doc_id
       AND b.p >= a.p AND b.p < a.p + {ft.HIGHLIGHT_WINDOW}
  GROUP BY a.qid, a.doc_id, a.p
),
best AS (
  SELECT qid, doc_id, pstart, n_hits, n_uniq,
         row_number() OVER (
           PARTITION BY qid, doc_id ORDER BY n_uniq DESC, n_hits DESC, pstart
         ) AS r
  FROM win
)
SELECT qid::BIGINT AS qid, doc_id, pstart, n_hits, n_uniq FROM best WHERE r = 1
"""),
        # term-dictionary ranges + the sandbox index-sort binary-search
        # numeric range (one contiguous span per segment, no scan)
        ("ft_range_counts", _family(
            "family",
            ("term", ft.range_counts),
            ("index_sorted_numeric", ft.index_sorted_range_counts),
            # sandbox MultiRangeQuery: deduped union of BKD ranges
            ("multi_range", ft.multi_range_counts),
            # PointInSetQuery: one shared traversal per sorted set
            ("point_in_set", ft.point_in_set_counts),
            # LatLonPoint.newBoxQuery over GeoEncodingUtils-encoded
            # lat/lon (incl. the dateline-crossing split)
            ("geo_box", ft.geo_box_counts),
            # spatial3d Geo3D shapes: unit-sphere circle/polygon/path
            # membership, tree-pruned + exact-verified
            ("geo3d", ft.geo3d_counts),
            # DoublePoint/FloatPoint ranges via the sortable-bits
            # encodings (NumericUtils), cross-checked in-engine
            ("double_range", ft.double_range_counts),
            # RangeFieldQuery (LongRange): the four QueryType relations
            ("range_field_", ft.range_field_counts),
            # LatLonBoundingBox: 2-D box relations on the 4-dim tree
            ("latlon_bbox_", ft.latlon_bbox_counts),
            # InetAddressPoint exact / CIDR-prefix / range queries
            ("inet", ft.inet_range_counts),
            # HalfFloatPoint ranges via sortable-short encoding
            ("half_float", ft.half_float_range_counts),
        ), f"""
SELECT 'term' AS family, t.* FROM ({_range_counts_sql()}) t
UNION ALL
SELECT 'index_sorted_numeric', s.* FROM ({_sorted_numeric_range_sql()}) s
UNION ALL
SELECT 'multi_range', m.* FROM ({_multi_range_sql()}) m
UNION ALL
SELECT 'point_in_set', p.* FROM ({_point_in_set_sql()}) p
UNION ALL
SELECT 'geo_box', g.* FROM ({_geo_box_sql()}) g
UNION ALL
SELECT 'geo3d', g3.* FROM ({ft.geo3d_sql()}) g3
UNION ALL
SELECT 'double_range', dr.* FROM ({_double_range_sql()}) dr
UNION ALL
SELECT r.* FROM ({_range_field_sql()}) r
UNION ALL
SELECT bb.* FROM ({_latlon_bbox_sql()}) bb
UNION ALL
-- InetAddressPoint over ip = 10.0.0.0 + doc_id: bounds derived by hand
-- from the CIDR arithmetic (exact 10.0.0.7 -> 7; 10.0.0.4/30 -> 4..7;
-- 10.0.64.0/18 -> 16384..32767; 10.0.0.0/9 -> 0..2^23-1;
-- 10.0.1.5..10.0.200.250 -> 261..51450)
SELECT 'inet', i2.* FROM (
WITH iq(qid, lo, hi) AS (VALUES
  (0, 7, 7), (1, 4, 7), (2, 16384, 32767), (3, 0, 8388607), (4, 261, 51450))
SELECT iq.qid::BIGINT AS qid,
       (SELECT count(*) FROM documents d
        WHERE d.doc_id BETWEEN iq.lo AND iq.hi)::BIGINT AS cnt
FROM iq
) i2
UNION ALL
-- HalfFloatPoint over value = doc_id % 2048 (exact in half precision,
-- so the sortable-short range equals the integer range)
SELECT 'half_float', hf.* FROM (
WITH hq(qid, lo, hi) AS (VALUES {", ".join(f"({i}, {int(lo)}, {int(hi)})" for i, (lo, hi) in enumerate(ft.HALF_FLOAT_RANGES))})
SELECT hq.qid::BIGINT AS qid,
       (SELECT count(*) FROM documents d
        WHERE d.doc_id % 2048 BETWEEN hq.lo AND hq.hi)::BIGINT AS cnt
FROM hq
) hf
"""),
        ("ft_bm25_topk_variants", _family(
            "variant",
            ("distributed", _distributed_bm25),
            ("merged", _merged_bm25),
            ("disjunction", ft.bm25_disjunction_topk),
            ("boosted", ft.bm25_boosted_topk),
            ("common_terms", ft.common_terms_topk),
            # DiversifiedTopDocsCollector: per-key-capped top-k
            ("diversified", ft.diversified_topk),
            # IndexSearcher.searchAfter: hits strictly after page 1's last
            # (score, doc) cursor, re-ranked 1..10
            ("page2", _page2_bm25),
        ), f"""
SELECT v.variant, b.*
FROM (WITH {_COLLECTION},
{_Q_TERMS},
{_BM25_COMMON}) b
CROSS JOIN (VALUES ('distributed'), ('merged')) v(variant)
UNION ALL
SELECT 'disjunction', b.*
FROM (WITH {_COLLECTION},
q(qid, term) AS (VALUES {_DISJ_VALUES}),
{_BM25_COMMON}) b
UNION ALL
-- searchAfter page 2: ranks 11..20 of the page-1 ordering, renumbered
SELECT 'page2', b.qid, b.rnk - 10 AS rnk, b.doc_id
FROM (WITH {_COLLECTION},
{_Q_TERMS},
{_term_scores()},
{_topk("scored", "score DESC, doc_id", k=20)}) b
WHERE b.rnk > 10
UNION ALL
SELECT 'boosted', b.* FROM ({_boosted_sql()}) b
UNION ALL
-- CommonTermsQuery: df/maxDoc > cutoff -> high-freq; docs must match a
-- low-freq term (when any exist), every matching term's BM25 sums
SELECT 'common_terms', b.* FROM (
WITH {_COLLECTION},
q(qid, term) AS (VALUES {", ".join(f"({qi}, '{t}')" for qi, terms in enumerate(ft.COMMON_TERMS_QUERIES) for t in terms)}),
{_postings()},
cls AS (
  SELECT d.qid, d.tok, d.df,
         CASE WHEN d.df * 1.0 / (SELECT count(*) FROM documents) > {ft.CTQ_MAX_TERM_FREQ}
              THEN 1 ELSE 0 END AS hi
  FROM df d
),
haslow AS (SELECT DISTINCT qid FROM cls WHERE hi = 0),
lowmatch AS (
  SELECT DISTINCT p.qid, p.doc_id
  FROM posting p JOIN cls c ON c.qid = p.qid AND c.tok = p.tok AND c.hi = 0
),
{_clauses()},
ctq AS (
  SELECT c.qid, c.doc_id, sum(c.score) AS score
  FROM clause c
  WHERE c.qid NOT IN (SELECT qid FROM haslow)
     OR EXISTS (SELECT 1 FROM lowmatch lm
                WHERE lm.qid = c.qid AND lm.doc_id = c.doc_id)
  GROUP BY c.qid, c.doc_id
),
{_topk("ctq", "score DESC, doc_id")}
) b
UNION ALL
-- DiversifiedTopDocsCollector: global top-k with at most
-- DIVERSIFY_MAX_PER_KEY hits per lang == per-key top-m (the collector's
-- per-key queues) then a global top-k of the survivors; f32 scores,
-- docid ties
SELECT 'diversified', b.* FROM (
WITH {_COLLECTION},
{_Q_TERMS},
{_term_scores(combine="sum(score)::FLOAT")},
keyed AS (
  SELECT s.qid, s.doc_id, s.score, dd.{ft.DIVERSIFY_KEY} AS key
  FROM scored s JOIN documents dd ON dd.doc_id = s.doc_id
),
perkey AS (
  SELECT *, row_number() OVER (
    PARTITION BY qid, key ORDER BY score DESC, doc_id) AS kr
  FROM keyed
),
{_topk("perkey WHERE kr <= " + str(ft.DIVERSIFY_MAX_PER_KEY), "score DESC, doc_id")}
) b
"""),
        ("ft_phrase_topk", _family(
            "family",
            ("exact", ft.phrase_topk),
            # SpanScoreQuery (SpanWeight / SpanScorer: freq = distinct-span count)
            ("span", ft.span_score_topk),
            # PhraseWildcardQuery (sandbox): multi-term slots, idf summed
            # over every budget-collected expansion
            ("wildcard", ft.phrase_wildcard_topk),
            # IntervalQuery saturation scoring over the fn: expressions
            ("interval_score", ft.interval_score_topk),
        ), f"""
SELECT 'exact' AS family, p.* FROM ({_phrase_topk_sql()}) p
UNION ALL
SELECT 'span', s.* FROM ({_span_topk_sql()}) s
UNION ALL
SELECT 'wildcard', w.* FROM ({_phrase_wildcard_sql()}) w
UNION ALL
SELECT 'interval_score', i.* FROM ({_interval_score_sql()}) i
"""),
        ("ft_proximity_matches", _family(
            "family",
            ("unordered", _n_starts(ft.proximity_matches)),
            ("ordered", ft.ordered_proximity_matches),
            ("containing", _n_starts(ft.containing_proximity_matches, "n")),
            ("or", _n_starts(ft.or_proximity_matches, "n")),
            # queryparser/surround language (booleans + W/N distance +
            # truncation), parsed then evaluated per segment
            ("surround", _n_starts(ft.surround_matches)),
            # SpanQuery family (queries/spans): distinct-span counts from
            # the compositional span algebra, oracle-compiled from the same ASTs
            ("spans", _n_starts(ft.span_matches, "n")),
            # FieldMaskingSpanQuery: masked clauses read the title
            # sub-index's positions
            ("masked", _n_starts(ft.field_masked_matches, "n")),
            # TermAutomatonQuery (sandbox): graph proximity
            ("automaton", _n_starts(ft.automaton_matches)),
            # StandardQueryParser fn: interval functions (queryparser/
            # flexible) over the minimal-interval algebra
            ("intervals_fn", _n_starts(ft.intervals_fn_matches, "n")),
            # phrase-frequency counts ride this family too (driver
            # 50-entry cap): exact / multi-slot / sloppy phrase freqs
            ("phrase_exact", _n_starts(ft.phrase_counts, "phrase_freq")),
            ("phrase_multi", _n_starts(ft.multi_phrase_counts, "phrase_freq")),
            ("phrase_sloppy", _n_starts(ft.phrase_sloppy_counts, "sloppy_freq")),
        ), f"""
SELECT 'unordered' AS family, qid, doc_id, -1::BIGINT AS n_starts
FROM (WITH {_TOKS}, {_proximity_sql()} SELECT qid, doc_id FROM prox)
UNION ALL
SELECT 'ordered', qid, doc_id, n_starts
FROM (WITH {_TOKS}, {_ordered_proximity_sql()} SELECT qid, doc_id, n_starts FROM oprox)
UNION ALL
SELECT 'containing', qid, doc_id, n
FROM (WITH {_TOKS}, {_containing_sql()} SELECT qid, doc_id, n FROM cprox)
UNION ALL
SELECT 'or', qid, doc_id, n
FROM (WITH {_TOKS}, {_or_proximity_sql()} SELECT qid, doc_id, n FROM orprox)
UNION ALL
SELECT 'surround', qid, doc_id, -1::BIGINT
FROM (WITH {_TOKS}, {_surround_sql()} SELECT qid, doc_id FROM sur)
UNION ALL
SELECT 'spans', qid, doc_id, n
FROM (WITH {_TOKS}, {_spans_sql()} SELECT qid, doc_id, n FROM spn)
UNION ALL
-- FieldMaskingSpanQuery: masked clauses over the title positions table
SELECT 'masked', qid, doc_id, n
FROM (WITH {_TOKS}, {_masked_spans_sql()} SELECT qid, doc_id, n FROM mspn)
UNION ALL
-- TermAutomatonQuery (sandbox): path-enumerated positional joins,
-- compiled from the SAME automaton objects the engine's DP runs
SELECT 'automaton', qid, doc_id, -1::BIGINT
FROM (WITH {_TOKS},
posx AS (
  SELECT doc_id, ts[i + 1] AS tok, i AS p
  FROM (SELECT doc_id, ts, unnest(range(len(ts))) AS i FROM toks)
)
{ft.automaton_oracle_sql()})
UNION ALL
-- fn: interval functions (queryparser/flexible StandardSyntaxParser
-- IntervalExpr), oracle compiled from the SAME parsed ASTs over the
-- minimal-interval algebra (search/intervals.fn_sql_ctes)
SELECT 'intervals_fn', qid, doc_id, n
FROM (WITH {_TOKS},
posx AS (
  SELECT doc_id, ts[i + 1] AS tok, i AS p
  FROM (SELECT doc_id, ts, unnest(range(len(ts))) AS i FROM toks)
),
{_intervals_fn_sql()})
UNION ALL
-- phrase-frequency counts (exact / multi-slot / sloppy) riding this
-- family: n_starts carries the per-doc phrase frequency
SELECT 'phrase_exact', qid, doc_id, phrase_freq
FROM ({_phrase_counts_sql()})
UNION ALL
SELECT 'phrase_multi', qid, doc_id, pf
FROM (WITH {_TOKS}, {_multi_phrase_sql()} SELECT qid, doc_id, pf FROM mph)
UNION ALL
SELECT 'phrase_sloppy', qid, doc_id, sloppy_freq
FROM (WITH {_TOKS}, {_phrase_sloppy_sql()}
  SELECT qid, doc_id, sloppy_freq FROM sp)
"""),
        ("ft_filtered_topk", ft.filtered_topk, f"""
WITH {_COLLECTION},
q(qid, term, fld, val) AS (VALUES {_FILTERED_VALUES}),
{_term_scores()},
-- BM25 stats and scores are UNFILTERED (BooleanWeight: filters never
-- contribute); the metadata filter only masks candidates before ranking
filtered AS (
  SELECT c.qid, c.doc_id, c.score
  FROM clause c
  JOIN q ON q.qid = c.qid
  JOIN documents doc ON doc.doc_id = c.doc_id
  WHERE (q.fld = 'lang' AND doc.lang = q.val)
     OR (q.fld = 'source' AND doc.source = q.val)
),
{_topk("filtered", "score DESC, doc_id")}
"""),
        # the engine runs the same predicate through BOTH filter executions
        # (plain doc-values range AND IndexOrDocValuesQuery) and asserts they
        # agree, so the oracle is the one ranking under each method label
        ("ft_range_filtered_topk", ft.range_filtered_topk, f"""
SELECT m.method, r.* FROM (
WITH {_COLLECTION},
q(qid, term, lo, hi) AS (VALUES {_RANGEF_VALUES}),
{_term_scores()},
-- lower inclusive, upper EXCLUSIVE, NULL = open (PointRangeQuery 1-dim)
filtered AS (
  SELECT c.qid, c.doc_id, c.score
  FROM clause c
  JOIN q ON q.qid = c.qid
  JOIN documents doc ON doc.doc_id = c.doc_id
  WHERE (q.lo IS NULL OR doc.n_chars >= q.lo)
    AND (q.hi IS NULL OR doc.n_chars < q.hi)
),
{_topk("filtered", "score DESC, doc_id")}
) r, (VALUES ('dv'), ('index_or_dv')) m(method)
"""),
        # 2-dim BKD point tree (util/bkd BKDWriter/BKDReader analogue):
        # per-segment persisted block k-d tree, box filter clause
        ("ft_point_box_topk", ft.point_box_topk, f"""
WITH {_COLLECTION},
q(qid, term, clo, chi, dlo, dhi) AS (VALUES {_PBOX_VALUES}),
{_term_scores()},
-- 2-dim box: per dimension lower inclusive, upper EXCLUSIVE, NULL = open
inbox AS (
  SELECT q.qid, doc.doc_id
  FROM q JOIN documents doc
    ON (q.clo IS NULL OR doc.n_chars >= q.clo)
   AND (q.chi IS NULL OR doc.n_chars < q.chi)
   AND (q.dlo IS NULL OR doc.doc_id >= q.dlo)
   AND (q.dhi IS NULL OR doc.doc_id < q.dhi)
),
boxcnt AS (SELECT qid, count(*)::BIGINT AS n_match FROM inbox GROUP BY qid),
filtered AS (
  SELECT c.qid, c.doc_id, c.score, bc.n_match
  FROM clause c
  JOIN inbox i ON i.qid = c.qid AND i.doc_id = c.doc_id
  JOIN boxcnt bc ON bc.qid = c.qid
),
-- indexed shapes: per-doc rectangle synthesized from (doc_id, n_chars);
-- boundary-INCLUSIVE relations (ShapeField.QueryRelation semantics)
shp AS (
  SELECT doc_id,
         (doc_id * 37) % 1200 AS x0,
         (doc_id * 91 + n_chars) % 1100 AS y0,
         (doc_id * 37) % 1200 + 8 + (doc_id % 73) AS x1,
         (doc_id * 91 + n_chars) % 1100 + 8 + (n_chars % 61) AS y1
  FROM documents WHERE doc_id % {ft.SHAPE_MOD} <> 0
),
bq(qid, qxlo, qxhi, qylo, qyhi) AS (VALUES {_SHAPE_BOX_VALUES}),
pq(qid, px, py) AS (VALUES {_SHAPE_PT_VALUES}),
sfam AS (
  SELECT 'shape_intersects' AS family, b.qid, s.doc_id
  FROM bq b JOIN shp s
    ON s.x0 <= b.qxhi AND s.x1 >= b.qxlo AND s.y0 <= b.qyhi AND s.y1 >= b.qylo
  UNION ALL
  SELECT 'shape_within', b.qid, s.doc_id
  FROM bq b JOIN shp s
    ON s.x0 >= b.qxlo AND s.x1 <= b.qxhi AND s.y0 >= b.qylo AND s.y1 <= b.qyhi
  UNION ALL
  SELECT 'shape_disjoint', b.qid, s.doc_id
  FROM bq b JOIN shp s
    ON NOT (s.x0 <= b.qxhi AND s.x1 >= b.qxlo AND s.y0 <= b.qyhi AND s.y1 >= b.qylo)
  UNION ALL
  SELECT 'shape_contains_pt', p.qid, s.doc_id
  FROM pq p JOIN shp s
    ON s.x0 <= p.px AND p.px <= s.x1 AND s.y0 <= p.py AND p.py <= s.y1
),
sranked AS (
  SELECT family, qid, doc_id,
         row_number() OVER (PARTITION BY family, qid ORDER BY doc_id) AS rnk,
         count(*) OVER (PARTITION BY family, qid) AS n_match
  FROM sfam
),
{_topk("filtered", "score DESC, doc_id", out="'box' AS family, qid::BIGINT AS qid, rnk::BIGINT AS rnk, doc_id, n_match")}
UNION ALL
SELECT family, qid::BIGINT, rnk::BIGINT, doc_id, n_match::BIGINT
FROM sranked WHERE rnk <= 10
"""),
        # LatLonPoint distance query analogue: BKD radius traversal,
        # integer squared distances, sorted nearest-first — plus the
        # 'haversine' arm: true great-circle radius on GeoEncodingUtils-
        # encoded lat/lon via the monotone haversinSortKey (asin-free)
        ("ft_point_distance", lambda sf: pa.concat_tables(
            [
                ft.point_distance_topk(sf),
                (lambda t: t.add_column(
                    0, "family", pa.array(["haversine"] * len(t), pa.string())
                ))(ft.geo_distance_topk(sf)),
            ]
        ), f"""
WITH q(qid, cx, cy, r2) AS (VALUES {", ".join(f"({i}, {cx}, {cy}, {r2})" for i, (cx, cy, r2) in enumerate(ft.POINT_DISTANCE_QUERIES))}),
d2 AS (
  SELECT q.qid, d.doc_id,
         ((d.n_chars - q.cx) * (d.n_chars - q.cx)
          + (d.doc_id - q.cy) * (d.doc_id - q.cy))::BIGINT AS dist2,
         q.r2
  FROM q, documents d
),
ranked AS (
  SELECT qid, doc_id, dist2,
         row_number() OVER (PARTITION BY qid ORDER BY dist2, doc_id) AS rnk
  FROM d2 WHERE dist2 <= r2
),
-- family='nearest': true k-NN, no radius (NearestNeighbor.java best-first)
nranked AS (
  SELECT qid, doc_id, dist2,
         row_number() OVER (PARTITION BY qid ORDER BY dist2, doc_id) AS rnk
  FROM d2
)
SELECT 'radius' AS family, qid::BIGINT AS qid, rnk::BIGINT AS rnk, doc_id, dist2
FROM ranked WHERE rnk <= 10
UNION ALL
SELECT 'nearest', qid::BIGINT, rnk::BIGINT, doc_id, dist2
FROM nranked WHERE rnk <= 10
UNION ALL
-- 'haversine': great-circle radius on the derived lat/lon grid; the
-- sort key mirrors ft._geo_sortkey operation for operation (sin/cos are
-- bit-identical numpy<->DuckDB on this libm; asin deliberately avoided),
-- thresholds/literals are the exact Python doubles the engine used
SELECT 'haversine', qid::BIGINT, rnk::BIGINT, doc_id, dist2 FROM (
WITH hq(qid, qlat, qlon, thr) AS (VALUES {", ".join(f"({i}, {qlat!r}, {qlon!r}, {ft.geo_sortkey_threshold(r)!r})" for i, (qlat, qlon, r) in enumerate(ft.GEO_DISTANCE_QUERIES))}),
g AS (
  SELECT doc_id,
         (((doc_id * 37) % 18000) / 100.0 - 90.0) AS lat,
         (((doc_id * 53) % 36000) / 100.0 - 180.0) AS lon
  FROM documents
),
sk AS (
  SELECT hq.qid, g.doc_id,
         sin((hq.qlat - g.lat) * {ft.GEO_TO_RAD!r} * 0.5)
           * sin((hq.qlat - g.lat) * {ft.GEO_TO_RAD!r} * 0.5)
         + cos(g.lat * {ft.GEO_TO_RAD!r}) * cos(hq.qlat * {ft.GEO_TO_RAD!r})
           * sin((hq.qlon - g.lon) * {ft.GEO_TO_RAD!r} * 0.5)
           * sin((hq.qlon - g.lon) * {ft.GEO_TO_RAD!r} * 0.5) AS sk,
         hq.thr
  FROM hq, g
),
hranked AS (
  SELECT qid, doc_id,
         CAST(floor(sk * {ft.GEO_KEY_SCALE!r}) AS BIGINT) AS dist2,
         row_number() OVER (PARTITION BY qid ORDER BY CAST(floor(sk * {ft.GEO_KEY_SCALE!r}) AS BIGINT), doc_id) AS rnk
  FROM sk WHERE sk <= thr
)
SELECT qid, rnk, doc_id, dist2 FROM hranked WHERE rnk <= 10
) h
"""),
        # classic query parser end-to-end (queryparser/classic semantics:
        # grouping, AND/OR/NOT promotion, ^boosts, [a TO b] ranges)
        ("ft_parsed_topk", ft.parsed_topk, f"""
WITH {_COLLECTION},
-- per-(doc, term) BM25 for every term any parsed query scores
pq(qid, term) AS (VALUES {", ".join(f"(0, '{t}')" for t in ("spark", "join", "merge", "window", "scan"))}),
{_term_scores(q="pq")},
p AS (
  SELECT doc_id,
         max(CASE WHEN tok = 'spark'  THEN score END) AS s_spark,
         max(CASE WHEN tok = 'join'   THEN score END) AS s_join,
         max(CASE WHEN tok = 'merge'  THEN score END) AS s_merge,
         max(CASE WHEN tok = 'window' THEN score END) AS s_window,
         max(CASE WHEN tok = 'scan'   THEN score END) AS s_scan
  FROM clause GROUP BY doc_id
),
-- q0: (spark OR join) AND merge -> ((spark join) MUST, merge MUST)
q0 AS (
  SELECT 0 AS qid, doc_id,
         coalesce(s_spark, 0) + coalesce(s_join, 0) + s_merge AS score
  FROM p WHERE (s_spark IS NOT NULL OR s_join IS NOT NULL)
          AND s_merge IS NOT NULL
),
-- q1: spark AND NOT join
q1 AS (
  SELECT 1 AS qid, doc_id, s_spark AS score
  FROM p WHERE s_spark IS NOT NULL AND s_join IS NULL
),
-- q2: +window -merge scan
q2 AS (
  SELECT 2 AS qid, doc_id, s_window + coalesce(s_scan, 0) AS score
  FROM p WHERE s_window IS NOT NULL AND s_merge IS NULL
),
-- q3: spark^2 OR join^0.5
q3 AS (
  SELECT 3 AS qid, doc_id,
         coalesce(2 * s_spark, 0) + coalesce(0.5 * s_join, 0) AS score
  FROM p WHERE s_spark IS NOT NULL OR s_join IS NOT NULL
),
-- q4: wind* AND [scan TO spark] -> two constant-score MUSTs; every match
-- scores the same, so ranking degenerates to doc_id order
q4 AS (
  SELECT DISTINCT 4 AS qid, t1.doc_id, 0.0 AS score
  FROM tok t1
  WHERE t1.tok LIKE 'wind%'
    AND EXISTS (SELECT 1 FROM tok t2 WHERE t2.doc_id = t1.doc_id
                 AND t2.tok >= 'scan' AND t2.tok <= 'spark')
),
-- q5: text:spark AND lang:en (stored-field filter adds a rank-neutral
-- constant to every match, so ordering is by the spark score alone)
q5 AS (
  SELECT 5 AS qid, p.doc_id, p.s_spark AS score
  FROM p JOIN documents d ON d.doc_id = p.doc_id
  WHERE p.s_spark IS NOT NULL AND d.lang = 'en'
),
-- q6: text:"spark join"~1^2 OR merge — sloppy (slop=1) phrase freq =
-- count of (pa, pb) with |pb - pa - 1| <= 1; phrase idf = sum of idfs
{_TDF},
spos AS (SELECT doc_id, ts, unnest(range(len(ts))) AS i FROM toks WHERE len(ts) > 0),
pp AS (SELECT doc_id, ts[i + 1] AS tok, i FROM spos),
sl AS (
  SELECT a.doc_id, count(*)::BIGINT AS sf
  FROM pp a JOIN pp b USING (doc_id)
  WHERE a.tok = 'spark' AND b.tok = 'join' AND abs(b.i - a.i - 1) <= 1
  GROUP BY a.doc_id
),
phsc AS (
  SELECT sl.doc_id,
         {_bm25("sl.sf", s="st", idf=f"({_term_idf('spark')} + {_term_idf('join')})")} AS s
  FROM sl JOIN dlq d ON d.doc_id = sl.doc_id CROSS JOIN stats st
),
q6 AS (
  SELECT 6 AS qid, coalesce(phsc.doc_id, m.doc_id) AS doc_id,
         coalesce(2 * phsc.s, 0) + coalesce(m.s_merge, 0) AS score
  FROM phsc FULL OUTER JOIN
       (SELECT doc_id, s_merge FROM p WHERE s_merge IS NOT NULL) m
       USING (doc_id)
),
-- q7: lang:(en OR fr) AND spark — grouped field scope; the filter group
-- is rank-neutral (constant-score SHOULD arms, lang single-valued), so
-- ordering is the spark score over the lang-restricted doc set
q7 AS (
  SELECT 7 AS qid, p.doc_id, p.s_spark AS score
  FROM p JOIN documents d ON d.doc_id = p.doc_id
  WHERE p.s_spark IS NOT NULL AND d.lang IN ('en', 'fr')
),
-- q8: SimpleQueryParser "spark|join merge" (default op MUST) — the
-- right-to-left state machine builds ((spark OR join) MUST, merge MUST),
-- identical scoring shape to classic q0
q8 AS (
  SELECT 8 AS qid, doc_id,
         coalesce(s_spark, 0) + coalesce(s_join, 0) + s_merge AS score
  FROM p WHERE (s_spark IS NOT NULL OR s_join IS NOT NULL)
          AND s_merge IS NOT NULL
),
-- q9..q11: XML CoreParser arms — each XML document builds the SAME tree
-- as a classic string above (asserted in the engine), so the rankings
-- are the q0 / q3 / q4 shapes under new qids
-- q12/q13: flexible-parser fn: interval clauses (IntervalQuery
-- saturation scoring; q13's MUST lang filter scores the constant 1)
pspos AS (
  SELECT doc_id, ts[i + 1] AS tok, i AS p
  FROM (SELECT doc_id, ts, unnest(range(len(ts))) AS i FROM toks)
),
{_parsed_fn_ctes()},
-- q14..q16: PrecedenceQueryParser — AND binds tighter than OR, so each
-- AND-group is a sub-clause of a top-level SHOULD disjunction
q14 AS (
  SELECT 14 AS qid, doc_id,
         (CASE WHEN s_spark IS NOT NULL AND s_join IS NOT NULL
               THEN s_spark + s_join ELSE 0 END)
         + (CASE WHEN s_merge IS NOT NULL AND s_scan IS NOT NULL
                 THEN s_merge + s_scan ELSE 0 END) AS score
  FROM p
  WHERE (s_spark IS NOT NULL AND s_join IS NOT NULL)
     OR (s_merge IS NOT NULL AND s_scan IS NOT NULL)
),
q15 AS (
  SELECT 15 AS qid, doc_id,
         coalesce(s_spark, 0)
         + (CASE WHEN s_join IS NULL AND s_merge IS NOT NULL
                 THEN s_merge ELSE 0 END) AS score
  FROM p
  WHERE s_spark IS NOT NULL OR (s_join IS NULL AND s_merge IS NOT NULL)
),
q16 AS (
  SELECT 16 AS qid, doc_id,
         (CASE WHEN s_window IS NOT NULL AND s_merge IS NULL
               THEN s_window ELSE 0 END)
         + coalesce(s_scan, 0) AS score
  FROM p
  WHERE (s_window IS NOT NULL AND s_merge IS NULL) OR s_scan IS NOT NULL
),
u AS (
  SELECT * FROM q0 UNION ALL SELECT * FROM q1 UNION ALL SELECT * FROM q2
  UNION ALL SELECT * FROM q3 UNION ALL SELECT * FROM q4
  UNION ALL SELECT * FROM q5 UNION ALL SELECT * FROM q6
  UNION ALL SELECT * FROM q7 UNION ALL SELECT * FROM q8
  UNION ALL SELECT 9 AS qid, doc_id, score FROM q0
  UNION ALL SELECT 10 AS qid, doc_id, score FROM q3
  UNION ALL SELECT 11 AS qid, doc_id, score FROM q4
  UNION ALL SELECT 12 AS qid, doc_id, score FROM q12
  UNION ALL SELECT 13 AS qid, doc_id, score FROM q13
  UNION ALL SELECT * FROM q14 UNION ALL SELECT * FROM q15
  UNION ALL SELECT * FROM q16
),
{_topk("u")}
"""),
        ("ft_delete_search", ft.delete_search_topk, f"""
WITH {_COLLECTION},
{_Q_TERMS},
{_term_scores()},
-- live-docs semantics: stats/scores computed over the FULL corpus
-- (deletes don't change them until a merge), deleted docs just drop out
live AS (
  SELECT c.qid, c.doc_id, c.score
  FROM clause c JOIN documents doc ON doc.doc_id = c.doc_id
  WHERE doc.lang != '{ft.DELETE_LANG}'
),
{_topk("live", "score DESC, doc_id")}
"""),
        ("ft_multifield_topk", _family(
            "family",
            ("conj", ft.multifield_topk),
            ("parsed", ft.multifield_parsed_topk),
            # PerFieldSimilarityWrapper: text=Classic, lang=BM25
            ("perfield_sim", ft.multifield_perfield_topk),
        ), f"""
SELECT 'conj' AS family, r.* FROM (
WITH {_COLLECTION},
q(qid, term, lv) AS (VALUES {_MF_VALUES}),
{_LANG_FIELD},
{_postings()},
{_clauses(f"{_bm25('p.tf')} + {_LANG_BM25}", _LANG_JOINS)},
{_topk("clause", "score DESC, doc_id")}
) r
UNION ALL
-- PerFieldSimilarityWrapper: same conjunction, text clause scored with
-- ClassicSimilarity (its field stats), lang clause with BM25
SELECT 'perfield_sim', r.* FROM (
WITH {_COLLECTION},
q(qid, term, lv) AS (VALUES {_MF_VALUES}),
{_LANG_FIELD},
{_postings()},
-- engine: each clause is ITS OWN float32 score; the conjunction sums
-- them in double with one final float32 cast (ConjunctionScorer.score)
{_clauses(_PERFIELD_SCORE, _LANG_JOINS)},
{_topk("clause", "score DESC, doc_id")}
) r
UNION ALL
-- MultiFieldQueryParser expansion over text+title: SHOULD sum of
-- per-(field, term) BM25 clauses, each with ITS field's stats and the
-- per-field boost (title = first {ft.TITLE_TOKENS} tokens of text)
SELECT 'parsed', r.* FROM (
WITH {_COLLECTION},
q(qid, fld, term, boost) AS (VALUES {_mfp_values()}),
ttf AS (
  SELECT doc_id, tok, count(*)::BIGINT AS tf
  FROM (SELECT doc_id, unnest(ts[1 : {ft.TITLE_TOKENS}]) AS tok FROM toks)
  GROUP BY doc_id, tok
),
tdl AS (SELECT t.doc_id, least(len(ts), {ft.TITLE_TOKENS})::BIGINT AS tl FROM toks t),
tstats AS (
  SELECT count(*) FILTER (WHERE tl > 0)::BIGINT AS doc_count,
         coalesce(sum(tl), 0)::BIGINT AS sum_ttf
  FROM tdl
),
ptext AS (
  SELECT q.qid, q.term, q.boost, tf.doc_id, tf.tf
  FROM q JOIN tf ON tf.tok = q.term WHERE q.fld = 'text'
),
ptitle AS (
  SELECT q.qid, q.term, q.boost, tt.doc_id, tt.tf
  FROM q JOIN ttf tt ON tt.tok = q.term WHERE q.fld = 'title'
),
dfx AS (SELECT qid, term, count(*)::BIGINT AS df FROM ptext GROUP BY qid, term),
dft AS (SELECT qid, term, count(*)::BIGINT AS df FROM ptitle GROUP BY qid, term),
clauses AS (
  SELECT p.qid, p.doc_id,
         {_bm25("p.tf", idf=f"p.boost * {_idf('dfx.df')}")} AS score
  FROM ptext p
  JOIN dfx ON dfx.qid = p.qid AND dfx.term = p.term
  JOIN dlq d ON d.doc_id = p.doc_id
  CROSS JOIN stats s
  UNION ALL
  SELECT p.qid, p.doc_id,
         {_bm25("p.tf", ql="(SELECT max(L) FROM lt WHERE lt.L <= td.tl)",
                s="ts", idf=f"p.boost * {_idf('dft.df', 'ts')}")} AS score
  FROM ptitle p
  JOIN dft ON dft.qid = p.qid AND dft.term = p.term
  JOIN tdl td ON td.doc_id = p.doc_id
  CROSS JOIN tstats ts
),
scored AS (SELECT qid, doc_id, sum(score) AS score FROM clauses GROUP BY qid, doc_id),
{_topk("scored")}
) r
"""),
        # Classic TF-IDF + Boolean + LMDirichlet over the same index: the
        # pluggable-similarity (SimScorer) seam as one family entry
        ("ft_similarity_topk", ft.similarity_topk, _similarity_sql()),
        ("ft_combined_field_topk", ft.combined_field_topk, f"""
WITH {_TOKS}, {_LT},
{_Q_TERMS},
-- title = first {ft.TITLE_TOKENS} tokens; blended BM25F virtual field:
-- tf' = tf_text + {ft.TITLE_WEIGHT}*tf_title, dl' = dlq_text + {ft.TITLE_WEIGHT}*dlq_title
ttf AS (
  SELECT doc_id, tok, count(*)::BIGINT AS tf
  FROM (SELECT doc_id, unnest(ts[1 : {ft.TITLE_TOKENS}]) AS tok FROM toks)
  GROUP BY doc_id, tok
),
dlb AS (
  SELECT t.doc_id,
         (SELECT max(L) FROM lt WHERE lt.L <= len(ts))
           + {ft.TITLE_WEIGHT} * (SELECT max(L) FROM lt WHERE lt.L <= least(len(ts), {ft.TITLE_TOKENS}))
           AS dlc
  FROM toks t
),
stats AS (
  SELECT (SELECT count(*) FROM dl WHERE dl > 0)::BIGINT AS doc_count,
         (SELECT sum(dlc) FROM dlb) AS sum_dlc
),
blended AS (
  SELECT q.qid, d.doc_id,
         coalesce(tf.tf, 0) + {ft.TITLE_WEIGHT} * coalesce(tt.tf, 0) AS tfc
  FROM q
  CROSS JOIN documents d
  LEFT JOIN tf ON tf.doc_id = d.doc_id AND tf.tok = q.term
  LEFT JOIN ttf tt ON tt.doc_id = d.doc_id AND tt.tok = q.term
),
matches AS (SELECT * FROM blended WHERE tfc > 0),
dfq AS (SELECT qid, count(*)::BIGINT AS df FROM matches GROUP BY qid),
scored AS (
  SELECT m.qid, m.doc_id,
         {_bm25("m.tfc", "dfq.df", ql="b.dlc", sum_ttf="sum_dlc")} AS score
  FROM matches m
  JOIN dfq ON dfq.qid = m.qid
  JOIN dlb b ON b.doc_id = m.doc_id
  CROSS JOIN stats s
),
{_topk("scored")}
"""),
        # SortField top-k + index-time-sorted early-terminating top-k
        # (search/Sort.java + index/Sorter.java) as one family entry
        ("ft_sort_family", _family(
            "family",
            ("stored", ft.sort_by_field_topk),
            ("index_sorted", ft.index_sorted_topk),
            ("compound", ft.compound_sort_topk),
            # SortedNumericSortField: selector-collapsed multi-valued sort
            ("sorted_numeric", ft.sorted_numeric_sort_topk),
            # SortedSetSortField: lexicographic MIN/MAX over a
            # multi-valued string field
            ("sorted_set", ft.sorted_set_sort_topk),
            # LatLonPointSortField: nearest-first distance comparator
            ("distance", ft.distance_sort_topk),
            # SortRescorer: re-sort the BM25 first pass by a field sort
            ("sort_rescorer", ft.sort_rescored_topk),
        ), f"""
SELECT 'stored' AS family, s.* FROM (
WITH {_TOKS},
q(qid, term, fld, dir) AS (VALUES {_SORTED_VALUES}),
m AS (
  SELECT q.qid, q.fld, q.dir, tf.doc_id,
         (CASE q.fld WHEN 'n_chars' THEN d.n_chars ELSE d.doc_id END)::BIGINT AS v
  FROM q JOIN tf ON tf.tok = q.term JOIN documents d ON d.doc_id = tf.doc_id
),
{_topk("m", "(CASE WHEN dir = 'desc' THEN -v ELSE v END), doc_id")}
) s
UNION ALL SELECT 'index_sorted', i.* FROM (
WITH {_TOKS},
q(qid, term) AS (VALUES {_ISORT_VALUES}),
m AS (
  SELECT q.qid, tf.doc_id, d.n_chars
  FROM q JOIN tf ON tf.tok = q.term JOIN documents d ON d.doc_id = tf.doc_id
),
{_topk("m", "n_chars DESC, doc_id")}
) i
UNION ALL SELECT 'compound', c.* FROM (
WITH {_TOKS},
q(qid, term) AS (VALUES {", ".join(f"({i}, '{t}')" for i, t in enumerate(ft.COMPOUND_SORT_QUERIES))}),
m AS (
  SELECT q.qid, tf.doc_id, d.lang, d.n_chars
  FROM q JOIN tf ON tf.tok = q.term JOIN documents d ON d.doc_id = tf.doc_id
),
{_topk("m", "lang, n_chars DESC, doc_id")}
) c
UNION ALL SELECT 'sorted_numeric', sn.* FROM (
WITH {_TOKS},
q(qid, term, sel, dir) AS (VALUES {", ".join(f"({i}, '{t}', '{s}', '{d}')" for i, (t, s, d) in enumerate(ft.SORTED_NUMERIC_QUERIES))}),
m AS (
  SELECT q.qid, q.dir, tf.doc_id,
         (CASE q.sel WHEN 'min'
            THEN least(d.n_chars, (d.doc_id * 7) % 1000, (d.doc_id * 13) % 1000)
            ELSE greatest(d.n_chars, (d.doc_id * 7) % 1000, (d.doc_id * 13) % 1000)
          END)::BIGINT AS v
  FROM q JOIN tf ON tf.tok = q.term JOIN documents d ON d.doc_id = tf.doc_id
),
{_topk("m", "(CASE WHEN dir = 'desc' THEN -v ELSE v END), doc_id")}
) sn
UNION ALL SELECT 'sorted_set', ss.* FROM (
WITH {_TOKS},
q(qid, term, sel, dir) AS (VALUES {", ".join(f"({i}, '{t}', '{s}', '{d}')" for i, (t, s, d) in enumerate(ft.SORTED_SET_QUERIES))}),
m AS (
  SELECT q.qid, q.dir, tf.doc_id,
         CASE q.sel WHEN 'min' THEN least(d.lang, d.source)
                    ELSE greatest(d.lang, d.source) END AS v
  FROM q JOIN tf ON tf.tok = q.term JOIN documents d ON d.doc_id = tf.doc_id
),
{_topk("m", "CASE WHEN dir = 'desc' THEN v END DESC NULLS LAST, CASE WHEN dir = 'asc' THEN v END ASC NULLS LAST, doc_id")}
) ss
UNION ALL SELECT 'distance', dd.* FROM (
WITH {_TOKS},
q(qid, term, cx, cy) AS (VALUES {", ".join(f"({i}, '{t}', {cx}, {cy})" for i, (t, cx, cy) in enumerate(ft.DISTANCE_SORT_QUERIES))}),
m AS (
  SELECT q.qid, tf.doc_id,
         ((d.n_chars - q.cx) * (d.n_chars - q.cx)
          + (d.doc_id - q.cy) * (d.doc_id - q.cy))::BIGINT AS dist2
  FROM q JOIN tf ON tf.tok = q.term JOIN documents d ON d.doc_id = tf.doc_id
),
{_topk("m", "dist2, doc_id")}
) dd
UNION ALL SELECT 'sort_rescorer', sr.* FROM (
WITH {_COLLECTION},
q(qid, term) AS (VALUES {", ".join(f"({i}, '{t}')" for i, t in enumerate(ft.SORT_RESCORE_QUERIES))}),
{_term_scores()},
first_pass AS (
  SELECT qid, doc_id,
         row_number() OVER (
           PARTITION BY qid ORDER BY score::FLOAT DESC, doc_id
         ) AS r1
  FROM clause
),
resorted AS (
  SELECT f.qid, f.doc_id,
         row_number() OVER (
           PARTITION BY f.qid ORDER BY d.n_chars DESC, f.doc_id
         ) AS rnk
  FROM first_pass f JOIN documents d ON d.doc_id = f.doc_id
  WHERE f.r1 <= {ft.SORT_RESCORE_FIRST_N}
)
SELECT qid::BIGINT AS qid, rnk::BIGINT AS rnk, doc_id FROM resorted WHERE rnk <= 10
) sr
"""),
        # facet family + the misc DocValuesStats rows (same facet-tagged
        # shape; dv_stats reduces min/max/sum/count on the driver) + the
        # DynamicRangeUtil equi-weight ranges (greedy scan over globally
        # sorted (value, weight) pairs — pair partials per segment)
        ("ft_facet_counts", lambda sf: pd.concat(
            [
                _frame(arm(sf))
                for arm in (
                    ft.facet_counts, ft.dv_stats, ft.dynamic_range_facets,
                    # GroupFacetCollector: distinct-group counts per facet value
                    ft.grouped_facet_counts,
                )
            ],
            ignore_index=True,
        ), f"""
WITH {_TOKS},
{_Q_TERMS},
m AS (
  SELECT q.qid, d.doc_id, d.lang, d.source, d.n_chars
  FROM q JOIN tf ON tf.tok = q.term
  JOIN documents d ON d.doc_id = tf.doc_id
),
{_dyn_range_sql()}
SELECT 'lang' AS facet, qid, lang AS value, count(*)::BIGINT AS n
FROM m GROUP BY qid, lang
UNION ALL
-- RandomSamplingFacetsCollector: lang counts over the deterministic
-- md5-gated doc sample, plus amortizeFacetCounts (integer floor scale
-- back by the inverse sampling rate, applied to the summed counts)
SELECT 'sampled_lang', qid, lang, count(*)::BIGINT
FROM m WHERE md5_number_lower('graft' || cast(doc_id as varchar)) % 100
        < {ft.SAMPLE_FACET_PCT}
GROUP BY qid, lang
UNION ALL
SELECT 'sampled_lang_amortized', qid, lang,
       (count(*) * 100 // {ft.SAMPLE_FACET_PCT})::BIGINT
FROM m WHERE md5_number_lower('graft' || cast(doc_id as varchar)) % 100
        < {ft.SAMPLE_FACET_PCT}
GROUP BY qid, lang
UNION ALL
SELECT 'source', qid, source, count(*)::BIGINT FROM m GROUP BY qid, source
UNION ALL
-- RangeOnRangeFacetCounts: per-doc [lo, hi] range vs CLOSED buckets,
-- multi-bucket overlap membership
SELECT 'range_on_range', qid, rb.lab, count(*)::BIGINT
FROM m JOIN (VALUES {", ".join(f"('{lab}', {blo}, {bhi})" for lab, blo, bhi in ft.RANGE_FACET_BUCKETS)}) rb(lab, blo, bhi)
  ON ((m.doc_id * 17) % 2000) <= rb.bhi
 AND ((m.doc_id * 17) % 2000 + 1 + (m.n_chars % 97)) >= rb.blo
GROUP BY qid, rb.lab
UNION ALL
SELECT 'n_chars_range', qid,
       CASE WHEN n_chars < 100 THEN '[0,100)'
            WHEN n_chars < 200 THEN '[100,200)'
            WHEN n_chars < 400 THEN '[200,400)'
            ELSE '[400,inf)' END,
       count(*)::BIGINT
FROM m WHERE n_chars >= 0 GROUP BY 2, 3
UNION ALL
SELECT 'drilldown_lang', qid, lang, count(*)::BIGINT
FROM m WHERE n_chars >= 100 AND n_chars < 400 GROUP BY qid, lang
UNION ALL
-- DrillSideways (facet/DrillSideways.java) over dims {{lang = '{ft.DRILL_LANG}',
-- n_chars range}}: range counts with the range dim dropped + all-dims hits
SELECT 'sideways_range', qid,
       CASE WHEN n_chars < 100 THEN '[0,100)'
            WHEN n_chars < 200 THEN '[100,200)'
            WHEN n_chars < 400 THEN '[200,400)'
            ELSE '[400,inf)' END,
       count(*)::BIGINT
FROM m WHERE lang = '{ft.DRILL_LANG}' AND n_chars >= 0 GROUP BY 2, 3
UNION ALL
SELECT 'drill_hits', qid, 'hits', count(*)::BIGINT
FROM m WHERE lang = '{ft.DRILL_LANG}' AND n_chars >= 100 AND n_chars < 400
GROUP BY qid
UNION ALL
-- hierarchical taxonomy dim lang/source: child counts + parent rollup
SELECT 'taxo', qid, lang || '/' || source, count(*)::BIGINT
FROM m GROUP BY qid, lang, source
UNION ALL
SELECT 'taxo', qid, lang, count(*)::BIGINT FROM m GROUP BY qid, lang
UNION ALL
-- ordinal-machinery twin (index/taxonomy.py DirectoryTaxonomyWriter /
-- FastTaxonomyFacetCounts analogue): same hierarchical counts, computed
-- in-engine over stable int ordinals with a post-sum parent rollup
SELECT 'taxo_ord', qid, lang || '/' || source, count(*)::BIGINT
FROM m GROUP BY qid, lang, source
UNION ALL
SELECT 'taxo_ord', qid, lang, count(*)::BIGINT FROM m GROUP BY qid, lang
UNION ALL
-- Int-association facet (TaxonomyFacetIntAssociations SUM): each
-- matching doc's n_chars association sums into its lang label
SELECT 'assoc_sum_lang', qid, lang, sum(n_chars)::BIGINT
FROM m GROUP BY qid, lang
UNION ALL
-- sandbox facet LongAggregationsFacetRecorder: per-label MAX
SELECT 'assoc_max_lang', qid, lang, max(n_chars)::BIGINT
FROM m GROUP BY qid, lang
UNION ALL
-- LongValueFacetCounts: per-distinct-value counts of the value source
-- n_chars // {ft.LONG_VALUE_DIV}
SELECT 'long_value', qid, cast(n_chars // {ft.LONG_VALUE_DIV} as varchar),
       count(*)::BIGINT
FROM m GROUP BY qid, 3
UNION ALL
-- HistogramCollector (sandbox facet/plain/histograms): match-all
-- floorDiv(n_chars, W) buckets; the engine bulk-counts whole point-tree
-- cells (PointTreeBulkCollector), SQL recounts per doc
SELECT 'histogram', 0, cast(n_chars // {ft.HIST_BUCKET_W} as varchar),
       count(*)::BIGINT
FROM documents GROUP BY 3
UNION ALL
-- FacetSet ExactFacetSetMatcher: doc set (n_chars % 8, n_chars // 100)
SELECT 'facetset_exact', qid, s.lab, count(*)::BIGINT
FROM m JOIN (VALUES {", ".join(f"('{a}/{b}', {a}, {b})" for a, b in ft.FACETSET_EXACT)})
  s(lab, a, b) ON m.n_chars % 8 = s.a AND m.n_chars // 100 = s.b
GROUP BY qid, s.lab
UNION ALL
-- FacetSet RangeFacetSetMatcher: per-dim inclusive ranges
SELECT 'facetset_range', qid, s.lab, count(*)::BIGINT
FROM m JOIN (VALUES {", ".join(f"('{lab}', {l0}, {h0}, {l1}, {h1})" for lab, (l0, h0), (l1, h1) in ft.FACETSET_RANGES)})
  s(lab, l0, h0, l1, h1)
  ON m.n_chars % 8 BETWEEN s.l0 AND s.h0
 AND m.n_chars // 100 BETWEEN s.l1 AND s.h1
GROUP BY qid, s.lab
UNION ALL
-- GroupFacetCollector: DISTINCT source groups per lang facet value
SELECT 'grouped_lang', qid, lang, count(DISTINCT source)::BIGINT
FROM m GROUP BY qid, lang
UNION ALL
-- DynamicRangeUtil equi-weight ranges: count / weight / value-sum rows
SELECT 'dynamic_range', qid, lab, cnt FROM dynout
UNION ALL
SELECT 'dynamic_range_weight', qid, lab, wsum FROM dynout
UNION ALL
SELECT 'dynamic_range_vsum', qid, lab, vsum FROM dynout
UNION ALL
-- misc DocValuesStats (LongDocValuesStats): n_chars over matching docs
SELECT 'dv_stats', qid, s.value, s.n FROM (
  SELECT qid,
         min(n_chars)::BIGINT AS "min", max(n_chars)::BIGINT AS "max",
         sum(n_chars)::BIGINT AS "sum", count(*)::BIGINT AS "count",
         0::BIGINT AS "missing"
  FROM m GROUP BY qid
) u, LATERAL (VALUES ('min', u."min"), ('max', u."max"), ('sum', u."sum"),
                     ('count', u."count"), ('missing', u."missing")) s(value, n)
"""),
        # --- text analysis ---
        # token_stats + quality_stats + lang-ID + fingerprints fused into
        # one per-doc profile (single read pass; frees driver-cap slots)
        # + benchmark decontamination columns (GPT-3 App. C / The Pile
        # n-gram overlap vs a leaked eval set; small side broadcast)
        # + DSIR importance weights (Xie et al. 2023) vs the same target
        # docs — integer dot products against a broadcast score table
        # + NB quality-voting classifier columns (fastText-filter stand-in;
        # integer voting checked, float log-odds agreement-gated in-engine)
        # per-doc profile: token/quality stats + lang-ID + fingerprints
        # joined on doc_id (mirrors ops/text.doc_profile's fused pass)
        ("tx_doc_stats", _tx_doc_stats, f"""
SELECT s.*, l.* EXCLUDE (doc_id), f.fp, f.roll_fp,
       COALESCE(c.contam_hits, 0)::BIGINT AS contam_hits,
       (CASE WHEN COALESCE(c.contam_hits, 0) > 0 THEN 1 ELSE 0 END)::BIGINT
         AS contam_flag,
       COALESCE(w.dsir_weight, 0)::BIGINT AS dsir_weight,
       COALESCE(nb.s, 0)::BIGINT AS nb_votes,
       (CASE WHEN COALESCE(nb.s, 0) > 0 THEN 1
             WHEN COALESCE(nb.s, 0) < 0 THEN -1 ELSE 0 END)::BIGINT
         AS nb_label
FROM ({_doc_stats_sql()}) s
JOIN ({_lang_sql()}) l USING (doc_id)
JOIN (SELECT a.doc_id, a.fp, b.roll_fp
      FROM (WITH {_TOKS}
            SELECT doc_id, md5(array_to_string(ts, ' ')) AS fp FROM toks) a
      JOIN ({_rolling_fp_sql()}) b USING (doc_id)) f USING (doc_id)
LEFT JOIN (
  -- benchmark decontamination: doc token positions whose {text.CONTAM_N}-gram
  -- appears in the eval set (first {text.CONTAM_BENCH_PREFIX} tokens of the
  -- leaked benchmark docs)
  WITH {_TOKS},
  bgrams AS (
    SELECT DISTINCT array_to_string(ts[i:i+{text.CONTAM_N - 1}], ' ') AS gram
    FROM (SELECT ts[1:{text.CONTAM_BENCH_PREFIX}] AS ts FROM toks
          WHERE doc_id IN {text.CONTAM_BENCH_DOC_IDS}),
         unnest(range(1, len(ts) - {text.CONTAM_N - 2})) AS t(i)
  ),
  dgrams AS (
    SELECT doc_id, array_to_string(ts[i:i+{text.CONTAM_N - 1}], ' ') AS gram
    FROM toks, unnest(range(1, len(ts) - {text.CONTAM_N - 2})) AS t(i)
  )
  SELECT d.doc_id, count(b.gram)::BIGINT AS contam_hits
  FROM dgrams d LEFT JOIN bgrams b USING (gram)
  GROUP BY d.doc_id
) c USING (doc_id)
LEFT JOIN (
  -- DSIR importance weight (Xie et al. 2023): integer dot of the doc's
  -- hashed-token bucket counts with floor(K*ln(p_target/p_raw)+0.5)
  -- quantized per-bucket log ratios (add-1 smoothed; target = the
  -- decontamination benchmark docs)
  WITH bk AS (
    SELECT doc_id, cast(md5_number_lower(tok) % {text.DSIR_DIM} as bigint) AS b
    FROM (WITH {_TOKS} SELECT doc_id, tok FROM tok)
  ),
  m AS (
    SELECT b,
           count(*) FILTER (WHERE doc_id IN {text.CONTAM_BENCH_DOC_IDS})::BIGINT AS t,
           count(*)::BIGINT AS r
    FROM bk GROUP BY b
  ),
  tots AS (SELECT sum(t)::BIGINT AS tt, sum(r)::BIGINT AS rt FROM m),
  sc AS (
    SELECT b, floor({text.DSIR_K} * ln(((t + 1.0) / (tots.tt + {text.DSIR_DIM}))
                 / ((r + 1.0) / (tots.rt + {text.DSIR_DIM}))) + 0.5)::BIGINT AS s
    FROM m, tots
  ),
  cnts AS (SELECT doc_id, b, count(*)::BIGINT AS c FROM bk GROUP BY doc_id, b)
  SELECT cnts.doc_id, sum(cnts.c * sc.s)::BIGINT AS dsir_weight
  FROM cnts JOIN sc USING (b) GROUP BY cnts.doc_id
) w USING (doc_id)
LEFT JOIN (
  -- NB quality voting classifier (ops/text.nb_votes): seed classes
  -- doc_id%7==0 (pos) / ==3 (neg); token vote = sign of the exact
  -- integer comparison (c_pos+1)(N_neg+V) vs (c_neg+1)(N_pos+V);
  -- doc score = order-free integer sum over token occurrences
  WITH seedtoks AS (
    SELECT doc_id, tok FROM (WITH {_TOKS} SELECT doc_id, tok FROM tok)
    WHERE doc_id % 7 IN ({text.NB_POS_MOD}, {text.NB_NEG_MOD})
  ),
  seed AS (
    SELECT tok,
           count(*) FILTER (WHERE doc_id % 7 = {text.NB_POS_MOD})::BIGINT AS cp,
           count(*) FILTER (WHERE doc_id % 7 = {text.NB_NEG_MOD})::BIGINT AS cn
    FROM seedtoks GROUP BY tok
  ),
  nstats AS (SELECT sum(cp)::BIGINT AS np, sum(cn)::BIGINT AS nn,
                    count(*)::BIGINT AS v FROM seed),
  vote AS (
    SELECT tok, CASE WHEN (cp + 1) * (nn + v) > (cn + 1) * (np + v) THEN 1
                     WHEN (cp + 1) * (nn + v) < (cn + 1) * (np + v) THEN -1
                     ELSE 0 END AS vt
    FROM seed, nstats
  )
  SELECT t.doc_id, sum(COALESCE(vote.vt, 0))::BIGINT AS s
  FROM (WITH {_TOKS} SELECT doc_id, tok FROM tok) t
  LEFT JOIN vote USING (tok)
  GROUP BY t.doc_id
) nb USING (doc_id)
"""),
        ("tx_scrub_pii", _per_doc(text.scrub_pii, text.scrub_pii_batch), """
SELECT doc_id,
       len(regexp_extract_all(coalesce(text, ''), '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}'))::BIGINT AS n_email,
       len(regexp_extract_all(coalesce(text, ''), '\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\b'))::BIGINT AS n_ipv4,
       len(regexp_extract_all(coalesce(text, ''), '\b\\d{9,}\b'))::BIGINT AS n_longnum,
       md5(regexp_replace(regexp_replace(regexp_replace(coalesce(text, ''), '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', '<EMAIL>', 'g'), '\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\b', '<IP>', 'g'), '\b\\d{9,}\b', '<NUM>', 'g')) AS clean_sha
FROM documents
"""),
        # sampling family: hash-gated per-stratum pct arm + token-budget
        # domain-mixture arm (greedy fill in deterministic hash order —
        # the Pile/DoReMi-style static mixture step)
        ("tx_stratified_sample", lambda sf: _frame(text.sample_family(
            _docs(sf, ("doc_id", "text", "lang")),
            {"en": 50, "de": 25, "fr": 10},
            {"en": 4000, "de": 1500, "fr": 2000},
        ), text.SAMPLE_FAMILY_SCHEMA), f"""
WITH per AS (
  SELECT doc_id, lang,
         md5_number_lower('graft' || cast(doc_id as varchar)) AS h,
         cast(len(regexp_extract_all(lower(coalesce(text, '')),
              '{text.TOKEN_PATTERN}')) as bigint) AS n_tokens
  FROM documents
)
SELECT 'pct' AS mode, doc_id, lang, n_tokens
FROM per
WHERE h % 100
      < (CASE lang WHEN 'de' THEN 25 WHEN 'en' THEN 50 WHEN 'fr' THEN 10 ELSE 0 END)
UNION ALL
-- token-budget domain mixture: greedy fill in deterministic hash order;
-- the doc CROSSING the budget is kept (exclusive prefix < budget)
SELECT 'budget', doc_id, lang, n_tokens FROM (
  SELECT doc_id, lang, n_tokens,
         coalesce(sum(n_tokens) OVER (PARTITION BY lang ORDER BY h, doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS prefix
  FROM per WHERE lang IN ('de', 'en', 'fr')
)
WHERE prefix < (CASE lang WHEN 'en' THEN 4000 WHEN 'de' THEN 1500 ELSE 2000 END)
"""),
        # --- dedup ---
        # MinHash + SimHash + exact-survivor signatures in one family entry
        ("dd_signatures", _dd_signatures, f"""
SELECT 'exact' AS method, min(doc_id)::BIGINT AS doc_id, 0::BIGINT AS i,
       (md5_number_lower(coalesce(text, '')) % 9223372036854775808)::UBIGINT AS sig
FROM documents GROUP BY text, 4
UNION ALL
SELECT 'minhash' AS method, doc_id, i::BIGINT AS i, sig::UBIGINT AS sig
FROM (
WITH {_TOKS}, {_SHINGLES}, {_MINHASH}
SELECT doc_id, i, sig FROM perm
)
UNION ALL
SELECT 'simhash', doc_id, 0::BIGINT, simhash::UBIGINT
FROM (
WITH {_TOKS},
bits AS (
  SELECT doc_id, p.b::BIGINT AS b,
         sum(CASE WHEN (md5_number_lower(tok) >> p.b) & 1 = 1 THEN tf ELSE -tf END) AS v
  FROM tf, (SELECT unnest(range(64)) AS b) p
  GROUP BY doc_id, p.b
)
SELECT doc_id,
       sum(CASE WHEN v > 0 THEN (1::UBIGINT << b) ELSE 0::UBIGINT END)::UBIGINT AS simhash
FROM bits GROUP BY doc_id
)
UNION ALL
SELECT 'substr', doc_id, i::BIGINT,
       (md5_number_lower(array_to_string(ts[i * 20 + 1 : i * 20 + 20], ' '))
        % 9223372036854775808)::UBIGINT
FROM (
WITH {_TOKS}
SELECT doc_id, ts, unnest(range(len(ts) // 20)) AS i
FROM toks WHERE len(ts) >= 20
)
UNION ALL
-- CCNet/RefinedWeb line-level dedup: corpus-wide duplicated pseudo-lines
-- ({dedup_mod.LINE_W}-token chunks) removed from every doc; i packs
-- (kept, dropped), sig = md5_number_lower of the reassembled text
SELECT 'line_dedup', doc_id, (kept * 1000000 + dropped)::BIGINT,
       md5_number_lower(kt)::UBIGINT
FROM (
WITH {_TOKS},
ldex AS (SELECT doc_id, unnest(ts) AS tok, unnest(range(len(ts))) AS i FROM toks),
ldlines AS (
  SELECT doc_id, i // {dedup_mod.LINE_W} AS idx,
         string_agg(tok, ' ' ORDER BY i) AS line
  FROM ldex GROUP BY doc_id, i // {dedup_mod.LINE_W}
),
ldcnt AS (SELECT line, count(*)::BIGINT AS c FROM ldlines GROUP BY line),
ldmarked AS (
  SELECT l.doc_id, l.idx, l.line, (c.c >= {dedup_mod.LINE_DUP_MIN}) AS dup
  FROM ldlines l JOIN ldcnt c USING (line)
)
SELECT doc_id,
       count(*) FILTER (WHERE NOT dup)::BIGINT AS kept,
       count(*) FILTER (WHERE dup)::BIGINT AS dropped,
       coalesce(string_agg(line, ' ' ORDER BY idx) FILTER (WHERE NOT dup), '') AS kt
FROM ldmarked GROUP BY doc_id
)
"""),
        # LSH-band / SimHash-band / n-gram-Jaccard near-pair family
        ("dd_near_pairs", _dd_near_pairs, f"""
SELECT 'lsh' AS method, doc_a, doc_b, -1::BIGINT AS m1, -1::BIGINT AS m2
FROM (
WITH {_TOKS}, {_SHINGLES}, {_MINHASH},
bands AS (
  SELECT doc_id, (i // {LSH_ROWS_PER_BAND})::BIGINT AS band,
         string_agg(sig::VARCHAR, '_' ORDER BY i) AS key
  FROM perm GROUP BY doc_id, band
)
SELECT DISTINCT a.doc_id::BIGINT AS doc_a, b.doc_id::BIGINT AS doc_b
FROM bands a JOIN bands b
  ON a.band = b.band AND a.key = b.key AND a.doc_id < b.doc_id
)
UNION ALL
SELECT 'simhash', doc_a, doc_b, hamming, -1::BIGINT
FROM (
WITH {_TOKS},
bits AS (
  SELECT doc_id, p.b::BIGINT AS b,
         sum(CASE WHEN (md5_number_lower(tok) >> p.b) & 1 = 1 THEN tf ELSE -tf END) AS v
  FROM tf, (SELECT unnest(range(64)) AS b) p
  GROUP BY doc_id, p.b
),
sigs AS (
  SELECT doc_id,
         sum(CASE WHEN v > 0 THEN (1::UBIGINT << b) ELSE 0::UBIGINT END)::UBIGINT AS simhash
  FROM bits GROUP BY doc_id
),
bands AS (
  SELECT doc_id, q.b::BIGINT AS b,
         ((simhash >> (16 * q.b)::BIGINT) & 65535)::BIGINT AS bval
  FROM sigs, (SELECT unnest(range(4)) AS b) q
),
cand AS (
  SELECT DISTINCT a.doc_id AS da, bb.doc_id AS db_
  FROM bands a JOIN bands bb
    ON a.b = bb.b AND a.bval = bb.bval AND a.doc_id < bb.doc_id
)
SELECT da::BIGINT AS doc_a, db_::BIGINT AS doc_b,
       bit_count(xor(sa.simhash, sb.simhash))::BIGINT AS hamming
FROM cand
JOIN sigs sa ON sa.doc_id = da
JOIN sigs sb ON sb.doc_id = db_
WHERE bit_count(xor(sa.simhash, sb.simhash)) <= 8
)
UNION ALL
SELECT 'ngram', doc_a, doc_b, inter, union_sz
FROM (
WITH {_TOKS}, {_SHINGLES},
inter AS (
  SELECT a.doc_id AS da, b.doc_id AS db_, count(*)::BIGINT AS inter
  FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
sizes AS (SELECT doc_id, count(*)::BIGINT AS sz FROM sh GROUP BY doc_id)
SELECT da::BIGINT AS doc_a, db_::BIGINT AS doc_b, inter,
       (sa.sz + sb.sz - inter)::BIGINT AS union_sz
FROM inter
JOIN sizes sa ON sa.doc_id = da
JOIN sizes sb ON sb.doc_id = db_
WHERE 100 * inter >= 20 * (sa.sz + sb.sz - inter)
)
"""),
        # connected components over the verified near-dup pairs: distributed
        # min-label propagation, every round a Ray Data shuffle.  Family:
        # jaccard (shingle-overlap edges) + semantic (SemDeDup, Abbas et
        # al. 2023: exact hashed-TF cosine components returned, the k-means
        # scale path gated in-engine — see _dd_duplicate_clusters)
        ("dd_duplicate_clusters", _dd_duplicate_clusters, f"""
WITH RECURSIVE {_TOKS}, {_SHINGLES},
inter AS (
  SELECT a.doc_id AS da, b.doc_id AS db_, count(*)::BIGINT AS inter
  FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
sizes AS (SELECT doc_id, count(*)::BIGINT AS sz FROM sh GROUP BY doc_id),
pairs AS (
  SELECT da, db_ FROM inter
  JOIN sizes sa ON sa.doc_id = da
  JOIN sizes sb ON sb.doc_id = db_
  WHERE 100 * inter >= 20 * (sa.sz + sb.sz - inter)
),
edges AS (
  SELECT da AS a, db_ AS b FROM pairs
  UNION ALL SELECT db_, da FROM pairs
),
nodes AS (SELECT DISTINCT a AS node FROM edges),
reach(node, lbl) AS (
  SELECT node, node FROM nodes
  UNION
  SELECT e.b, r.lbl FROM reach r JOIN edges e ON e.a = r.node
),
lab AS (SELECT node, min(lbl) AS cluster_id FROM reach GROUP BY node),
-- SemDeDup exact arm: hashed-TF (feature-hashing) vectors, cosine >= 0.9
-- evaluated as the EXACT integer comparison 100*dot^2 >= 81*|a|^2*|b|^2,
-- then the same min-label components
stf AS (
  SELECT doc_id, cast(md5_number_lower(tok) % {semdedup_mod.DIM} as bigint) AS b,
         count(*)::BIGINT AS c
  FROM tok GROUP BY 1, 2
),
sn2 AS (SELECT doc_id, sum(c * c)::BIGINT AS n2 FROM stf GROUP BY doc_id),
-- multi-probe sign-bucket restriction (the engine's scale path): plane
-- dots against md5-derived integer hyperplanes h_p(b) in [-1000,1000];
-- a plane with dot² < WILD_M2·|v|² is a WILDCARD and the doc lands in
-- every consistent bucket (same rule as ops/semdedup.probe_buckets)
shyp AS (
  SELECT p.p, b.b,
         (md5_number_lower('sem|' || p.p || '|' || b.b) % 2001)::BIGINT - 1000 AS h
  FROM (SELECT unnest(range({semdedup_mod.N_PLANES})) AS p) p,
       (SELECT unnest(range({semdedup_mod.DIM})) AS b) b
),
splane AS (
  SELECT d.doc_id, d.p, d.dot > 0 AS pos,
         d.dot * d.dot < {semdedup_mod.WILD_M2} * n.n2 AS wild
  FROM (
    SELECT stf.doc_id, shyp.p, sum(stf.c * shyp.h)::BIGINT AS dot
    FROM stf JOIN shyp ON shyp.b = stf.b GROUP BY 1, 2
  ) d JOIN sn2 n ON n.doc_id = d.doc_id
),
sbkt AS (
  SELECT s.doc_id, k.k AS bucket
  FROM splane s, (SELECT unnest(range({1 << semdedup_mod.N_PLANES})) AS k) k
  GROUP BY s.doc_id, k.k
  HAVING bool_and(((k.k >> s.p) & 1 = CASE WHEN s.pos THEN 1 ELSE 0 END) OR s.wild)
),
sdots AS (
  SELECT a.doc_id AS da, b.doc_id AS db_, sum(a.c * b.c)::BIGINT AS dot
  FROM stf a JOIN stf b ON a.b = b.b AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
spairs AS (
  SELECT da, db_ FROM sdots
  JOIN sn2 x ON x.doc_id = da JOIN sn2 y ON y.doc_id = db_
  WHERE dot > 0
    AND EXISTS (SELECT 1 FROM sbkt ba JOIN sbkt bb ON ba.bucket = bb.bucket
                WHERE ba.doc_id = da AND bb.doc_id = db_)
    AND {semdedup_mod.TAU_DEN} * dot * dot >= {semdedup_mod.TAU_NUM} * x.n2 * y.n2
),
sedges AS (
  SELECT da AS a, db_ AS b FROM spairs UNION ALL SELECT db_, da FROM spairs
),
snodes AS (SELECT DISTINCT a AS node FROM sedges),
sreach(node, lbl) AS (
  SELECT node, node FROM snodes
  UNION
  SELECT e.b, r.lbl FROM sreach r JOIN sedges e ON e.a = r.node
),
slab AS (SELECT node, min(lbl) AS cluster_id FROM sreach GROUP BY node)
SELECT 'jaccard' AS family, node::BIGINT AS doc_id, cluster_id::BIGINT AS cluster_id,
       (count(*) OVER (PARTITION BY cluster_id))::BIGINT AS cluster_size
FROM lab
UNION ALL
SELECT 'semantic', node::BIGINT, cluster_id::BIGINT,
       (count(*) OVER (PARTITION BY cluster_id))::BIGINT
FROM slab
"""),
        # --- similarity search ---
        ("ann_topk_variants", _family(
            "variant",
            ("brute", _ann(ann.brute_topk, k=10)),
            # nprobe = all partitions -> exact (oracle-checked); lower nprobe
            # is the approximate scale path exercised in tests/test_ops_ann.py
            ("ivf", _ann(ann.ivf_topk, k=10, nprobe=10)),
            ("kmeans_ivf", _ann_kmeans_ivf),
            # int8-scalar-quantized brute cosine (ScalarQuantizer /
            # Lucene99ScalarQuantizedVectorsFormat analogue, per-block scale)
            ("sq8", _recall_gated("SQ8", _ann(ann.sq8_topk, k=10), SQ8_MIN_RECALL)),
            # LSH-bucketed ANN (random-hyperplane band buckets gate the scoring)
            ("lsh", _recall_gated("LSH", _ann(ann.lsh_topk, k=10), LSH_MIN_RECALL)),
            # FloatVectorSimilarityQuery: ALL matches with cosine >= RADIUS_TAU
            ("radius", _ann(ann.radius_matches, RADIUS_TAU)),
            # ColBERT MaxSim over deterministic rolled multi-vectors
            # (LateInteractionFloatValuesSource SumMaxSimilarity)
            ("late_interaction", _ann(ann.late_interaction_topk, k=10)),
            # LateInteractionRescorer: single-vector top-50 nominate,
            # MaxSim REPLACES the first-pass score for ranking
            ("late_rescored", _ann(ann.late_rescored_topk, k=10, first_n=50)),
            # TopDocs.rrf: BM25 + cosine rankings fused by 1/(60+rank)
            ("rrf_hybrid", _ann_rrf_hybrid),
            # KnnByteVectorQuery DOT_PRODUCT: fixed int8 quantization,
            # exact integer-dot ranking (score monotone in the dot)
            ("byte_dot", _ann(ann.byte_dot_topk, k=10)),
            # MAXIMUM_INNER_PRODUCT: raw-dot ranking (scale fn monotone)
            ("max_inner_product", _ann(ann.mip_topk, k=10)),
            # EUCLIDEAN: ascending squared-L2 ranking (1/(1+d2) monotone)
            ("euclidean", _ann(ann.euclidean_topk, k=10)),
        ), f"""
SELECT v.variant, b.*
FROM ({_cosine_topk()}) b
CROSS JOIN (VALUES ('brute'), ('ivf'), ('kmeans_ivf'), ('sq8'), ('lsh')) v(variant)
UNION ALL
-- radius search: every match with cosine >= 0.30, ranked sim DESC
SELECT 'radius', r.* FROM (
WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id <= 4),
sims AS (
  SELECT q.qid, e.vec_id, list_cosine_similarity(q.qe, e.embedding) AS s
  FROM q, embeddings e WHERE e.vec_id != q.qid
),
m AS (SELECT * FROM sims WHERE s >= 0.30),
ranked AS (
  SELECT qid, vec_id,
         row_number() OVER (PARTITION BY qid ORDER BY s DESC, vec_id) AS rnk
  FROM m
)
SELECT qid::BIGINT AS query_id, rnk::BIGINT AS rnk, vec_id::BIGINT AS neighbor_id
FROM ranked
) r
UNION ALL
-- late interaction (ColBERT MaxSim, SumMaxSimilarity over Lucene COSINE
-- (1+cos)/2): token vectors = the embedding rolled left by k*16
SELECT 'late_interaction', li.* FROM (
WITH mv AS (
  SELECT vec_id,
         unnest([embedding,
                 embedding[17:] || embedding[1:16],
                 embedding[33:] || embedding[1:32],
                 embedding[49:] || embedding[1:48]]) AS tv,
         unnest([0, 1, 2, 3]) AS tk
  FROM embeddings
),
q AS (SELECT vec_id AS qid, tk AS qtk, tv AS qv FROM mv WHERE vec_id <= 4),
pair AS (
  SELECT q.qid, q.qtk, d.vec_id,
         (1.0 + list_cosine_similarity(q.qv, d.tv)) / 2.0 AS s
  FROM q, mv d WHERE d.vec_id != q.qid
),
mx AS (SELECT qid, qtk, vec_id, max(s) AS ms FROM pair GROUP BY qid, qtk, vec_id),
sc AS (SELECT qid, vec_id, sum(ms) AS score FROM mx GROUP BY qid, vec_id),
{_topk("sc", "score DESC, vec_id", out=_ANN_OUT)}
) li
UNION ALL
-- LateInteractionRescorer: single-vector cosine top-50 nominate, then
-- the MaxSim score replaces the first-pass score for the final ranking
SELECT 'late_rescored', lr.* FROM (
WITH q1 AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id <= 4),
s1 AS (
  SELECT q1.qid, e.vec_id, list_cosine_similarity(q1.qe, e.embedding) AS s
  FROM q1, embeddings e WHERE e.vec_id != q1.qid
),
nominated AS (
  SELECT qid, vec_id FROM (
    SELECT qid, vec_id,
           row_number() OVER (PARTITION BY qid ORDER BY s DESC, vec_id) AS rnk
    FROM s1) z WHERE rnk <= 50
),
mv AS (
  SELECT vec_id,
         unnest([embedding,
                 embedding[17:] || embedding[1:16],
                 embedding[33:] || embedding[1:32],
                 embedding[49:] || embedding[1:48]]) AS tv,
         unnest([0, 1, 2, 3]) AS tk
  FROM embeddings
),
q AS (SELECT vec_id AS qid, tk AS qtk, tv AS qv FROM mv WHERE vec_id <= 4),
pair AS (
  SELECT q.qid, q.qtk, d.vec_id,
         (1.0 + list_cosine_similarity(q.qv, d.tv)) / 2.0 AS s
  FROM q
  JOIN nominated nmd ON nmd.qid = q.qid
  JOIN mv d ON d.vec_id = nmd.vec_id
),
mx AS (SELECT qid, qtk, vec_id, max(s) AS ms FROM pair GROUP BY qid, qtk, vec_id),
sc AS (SELECT qid, vec_id, sum(ms) AS score FROM mx GROUP BY qid, vec_id),
{_topk("sc", "score DESC, vec_id", out=_ANN_OUT)}
) lr
UNION ALL
-- TopDocs.rrf hybrid: BM25 top-RRF_CAND for QUERY_TERMS[qid] fused with
-- the cosine top-RRF_CAND for embedding qid; contribution 1/(60 + rank)
SELECT 'rrf_hybrid', h.* FROM ({_rrf_hybrid_sql()}) h
UNION ALL
-- KnnByteVectorQuery DOT_PRODUCT: fixed int8 quantization (floor(x*127
-- + 0.5) clamped), ranking = the exact INTEGER dot (dotProductScore is
-- monotone in it)
SELECT 'byte_dot', bd.* FROM (
WITH bq AS (
  SELECT vec_id,
         list_transform(embedding,
           x -> greatest(-127, least(127, floor(x * 127.0 + 0.5)))::BIGINT) AS bv
  FROM embeddings
),
q AS (SELECT vec_id AS qid, bv AS qv FROM bq WHERE vec_id <= 4),
dots AS (
  SELECT q.qid, e.vec_id, list_dot_product(q.qv, e.bv) AS dot
  FROM q, bq e WHERE e.vec_id != q.qid
),
{_topk("dots", "dot DESC, vec_id", out=_ANN_OUT)}
) bd
UNION ALL
-- MAXIMUM_INNER_PRODUCT: scaleMaxInnerProductScore is monotone in the
-- dot, so ranks come from the raw inner product
SELECT 'max_inner_product', mip.* FROM (
WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id <= 4),
dots AS (
  SELECT q.qid, e.vec_id, list_dot_product(q.qe, e.embedding) AS dot
  FROM q, embeddings e WHERE e.vec_id != q.qid
),
{_topk("dots", "dot DESC, vec_id", out=_ANN_OUT)}
) mip
UNION ALL
-- EUCLIDEAN: 1/(1+d2) is monotone decreasing in the squared L2; d2 in
-- the expanded dot-product form the engine computes
SELECT 'euclidean', l2.* FROM (
WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id <= 4),
dd AS (
  SELECT q.qid, e.vec_id,
         list_dot_product(e.embedding, e.embedding)
           + list_dot_product(q.qe, q.qe)
           - 2 * list_dot_product(q.qe, e.embedding) AS d2
  FROM q, embeddings e WHERE e.vec_id != q.qid
),
{_topk("dd", "d2, vec_id", out=_ANN_OUT)}
) l2
"""),
        ("ann_ivf_persisted", _ann_ivf_persisted, _cosine_topk()),
        # approximate (HNSW): each arm asserts recall >= HNSW_MIN_RECALL vs
        # the in-engine exact top-k, then returns that exact top-k, which
        # the oracle reproduces (tests/test_ops_semantics.py pins recall)
        # the index-integrated arms index the vectors of the corpus docs:
        # neighbors are embeddings of documents (_IN_DOCS)
        ("ann_hnsw_topk", _family(
            "variant",
            ("plain", _recall_gated("HNSW", _knn(), HNSW_MIN_RECALL, embs=_doc_embs)),
            # KnnFloatVectorQuery with a lang = 'en' filter Query, gated
            # against the exact top-k over the en embeddings
            ("filtered", _recall_gated(
                "filtered-HNSW", _knn(filter_lang="en"), HNSW_MIN_RECALL, embs=_lang_embs
            )),
            # SeededKnnVectorQuery: seed-query matches (lang='en' docs) as
            # entry points instead of the graph's global entry
            ("seeded", _recall_gated("seeded-HNSW", _knn(seed_lang="en"), HNSW_MIN_RECALL, embs=_doc_embs)),
            # PatienceKnnVectorQuery: saturation early exit, same
            # recall gate (a too-eager exit turns the row red)
            ("patience", _recall_gated("HNSW", _knn(patience=True), HNSW_MIN_RECALL, embs=_doc_embs)),
        ), f"""
SELECT 'plain' AS variant, p.* FROM ({_cosine_topk(_IN_DOCS)}) p
UNION ALL
-- filtered kNN: only lang='en' docs may be returned (pre-filter Query)
SELECT 'filtered', f.* FROM ({_cosine_topk(_EN_ONLY)}) f
UNION ALL
-- SeededKnnVectorQuery: seeding changes entry points, not semantics —
-- the exact top-k is the same as the plain arm
SELECT 'seeded', s.* FROM ({_cosine_topk(_IN_DOCS)}) s
UNION ALL
-- PatienceKnnVectorQuery: the saturation early exit changes traversal
-- cost, not semantics — gated on recall, exact top-k returned
SELECT 'patience', pt.* FROM ({_cosine_topk(_IN_DOCS)}) pt
"""),
        ("ann_near_dup_pairs", lambda sf: ann.near_dup_pairs(_augmented_embs(sf), tau=0.95), """
-- same planted-near-duplicate derivation as _augmented_embs: exact
-- copies of every 97th vec_id, x2-scaled copies of every 89th
WITH aug AS (
  SELECT vec_id, embedding FROM embeddings
  UNION ALL
  SELECT vec_id + 1000000, embedding FROM embeddings WHERE vec_id % 97 = 0
  UNION ALL
  SELECT vec_id + 2000000, list_transform(embedding, x -> x * 2.0)
  FROM embeddings WHERE vec_id % 89 = 0
)
SELECT a.vec_id::BIGINT AS doc_a, b.vec_id::BIGINT AS doc_b
FROM aug a JOIN aug b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.95
"""),
        # --- multimodal: REAL BMP/PNG header decode + resize, one pass ---
        # mm_image_stats verifies the REAL BMP/PNG encode->header-parse round
        # trip: the Ray side parses width/height/channels from actual binary
        # headers (struct-packed, CRC-checked for PNG); the oracle recomputes
        # the dimension derivation + header size (54B BMP / 33B PNG prefix)
        ("mm_image_stats", _per_doc(
            multimodal.image_stats, multimodal.image_stats_batch, ("doc_id", "text")
        ), """
SELECT doc_id,
       (CASE WHEN doc_id % 2 = 0 THEN 'bmp' ELSE 'png' END) AS format,
       (strlen(text) + CASE WHEN doc_id % 2 = 0 THEN 54 ELSE 33 END)::BIGINT AS n_bytes,
       (128 + md5_number_lower(text) % 896)::BIGINT AS width,
       (128 + md5_number_upper(text) % 896)::BIGINT AS height,
       3::BIGINT AS channels,
       md5_number_lower(text || '|feat')::UBIGINT AS feat,
       (CASE WHEN (128 + md5_number_lower(text) % 896) <= (128 + md5_number_upper(text) % 896)
             THEN 224
             ELSE ((128 + md5_number_lower(text) % 896) * 224) // (128 + md5_number_upper(text) % 896)
        END)::BIGINT AS rs_width,
       (CASE WHEN (128 + md5_number_lower(text) % 896) <= (128 + md5_number_upper(text) % 896)
             THEN ((128 + md5_number_upper(text) % 896) * 224) // (128 + md5_number_lower(text) % 896)
             ELSE 224
        END)::BIGINT AS rs_height,
       md5_number_lower(text || '|resize224')::UBIGINT AS resized_fp
FROM documents
"""),
        ("mm_frame_samples", _per_doc(
            multimodal.frame_samples, multimodal.frame_samples_batch, ("doc_id", "text")
        ), """
WITH n AS (
  SELECT doc_id, text,
         (1 + (md5_number_lower(text) % 16) // 4)::BIGINT AS n_frames
  FROM documents
)
SELECT doc_id, k AS frame,
       md5_number_lower(text || '|frame' || k)::UBIGINT AS frame_fp
FROM n, unnest(range(n_frames)) AS t(k)
"""),
        # --- full cleaning pipeline (quality -> dedup -> partitioned sink) ---
        ("pl_clean_corpus", _clean_corpus, _clean_corpus_sql()),
        # the composed LLM training-data pipeline: lang gate -> quality +
        # repetition gate -> exact dedup -> near-dup cluster collapse
        ("pl_training_mix", lambda sf: _frame(
            training_mix(_docs(sf, ("doc_id", "text", "lang"))),
            pa.schema([("doc_id", pa.int64()), ("lang", pa.string()), ("n_tokens", pa.int64())]),
        ), _training_mix_sql()),
        # --- event-table operators (windowed agg / sessions / as-of join) ---
        ("ev_window_counts", _family(
            "kind",
            ("tumbling", lambda sf: events.windowed_counts(_events(sf))),
            ("hopping", lambda sf: events.hopping_counts(_events(sf))),
            # the watermark kind drops events arriving behind the
            # running-max-ts watermark minus the allowed lateness
            ("tumbling_watermark", lambda sf: events.watermark_windowed_counts(_events(sf))),
            # HLL-gated exact distinct users (ops/sketch.py): the sketch
            # estimate is asserted within 5% per group, exact returned
            ("hll_distinct_users", lambda sf: events.hll_distinct_users(_events(sf))),
            # CMS-screened exact heavy hitters (rank rides sum_cents)
            ("cm_top_events", lambda sf: events.cm_top_events(_events(sf))),
            # KMV bottom-k quantile sketch: the deterministic md5 bottom-m
            # sample (mergeable partials) beside the exact quantiles; the
            # sample's TRUE rank error is gated in-engine, and BOTH arms
            # are hash-exact (the sample itself is SQL-reproducible)
            ("value_quantiles_", lambda sf: dict(
                zip(("exact", "sample"), events.value_quantiles(_events(sf)))
            )),
        ), """
SELECT 'tumbling' AS kind, event_type, date_trunc('hour', ts) AS window_start,
       count(*)::BIGINT AS n_events,
       sum(floor(value * 100.0 + 0.5)::BIGINT)::BIGINT AS sum_cents
FROM events GROUP BY event_type, window_start
UNION ALL
SELECT 'hopping', event_type, window_start, count(*)::BIGINT, sum(cents)::BIGINT
FROM (
  SELECT event_type, date_trunc('hour', ts) AS window_start,
         floor(value * 100.0 + 0.5)::BIGINT AS cents
  FROM events
  UNION ALL
  SELECT event_type,
         date_trunc('hour', ts - INTERVAL 30 MINUTE) + INTERVAL 30 MINUTE,
         floor(value * 100.0 + 0.5)::BIGINT
  FROM events
) hops GROUP BY event_type, window_start
UNION ALL
-- watermark semantics: arrival order = event_id; an event is LATE when
-- its ts is more than the allowed lateness behind the running max ts of
-- earlier-arriving events
SELECT 'tumbling_watermark', event_type, date_trunc('hour', ts),
       count(*)::BIGINT, sum(floor(value * 100.0 + 0.5)::BIGINT)::BIGINT
FROM (
  SELECT *, max(ts) OVER (
           ORDER BY event_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
         ) AS wm
  FROM events
) w
WHERE wm IS NULL OR ts + INTERVAL 10 MINUTE >= wm
GROUP BY event_type, date_trunc('hour', ts)
UNION ALL
-- HLL-gated exact distinct users per (event_type, hour)
SELECT 'hll_distinct_users', event_type, date_trunc('hour', ts),
       count(DISTINCT user_id)::BIGINT, 0::BIGINT
FROM events GROUP BY event_type, date_trunc('hour', ts)
UNION ALL
-- CMS-screened heavy hitters: exact top-5 event types per hour, rank in
-- the sum_cents slot
SELECT 'cm_top_events', event_type, window_start, n_events, rnk FROM (
  SELECT event_type, window_start, n_events,
         row_number() OVER (
           PARTITION BY window_start ORDER BY n_events DESC, event_type
         ) AS rnk
  FROM (SELECT event_type, date_trunc('hour', ts) AS window_start,
               count(*)::BIGINT AS n_events
        FROM events GROUP BY 1, 2)
) WHERE rnk <= 5
UNION ALL
-- KMV quantiles: exact arm (pct in the n_events slot, quantile cents in
-- sum_cents); quantile fractions must be constants, so aggregate three
-- columns then unpivot via LATERAL VALUES (the dv_stats pattern)
SELECT 'value_quantiles_exact', event_type, window_start, p.pct, p.q FROM (
  SELECT event_type, date_trunc('hour', ts) AS window_start,
         quantile_disc(floor(value * 100.0 + 0.5)::BIGINT, 0.50)::BIGINT AS q50,
         quantile_disc(floor(value * 100.0 + 0.5)::BIGINT, 0.95)::BIGINT AS q95,
         quantile_disc(floor(value * 100.0 + 0.5)::BIGINT, 0.99)::BIGINT AS q99
  FROM events GROUP BY 1, 2
) u, LATERAL (VALUES (50::BIGINT, u.q50), (95, u.q95), (99, u.q99)) p(pct, q)
UNION ALL
-- KMV quantiles: the deterministic bottom-256-by-md5 sample arm
SELECT 'value_quantiles_sample', event_type, window_start, p.pct, p.q FROM (
  SELECT event_type, window_start,
         quantile_disc(cents, 0.50)::BIGINT AS q50,
         quantile_disc(cents, 0.95)::BIGINT AS q95,
         quantile_disc(cents, 0.99)::BIGINT AS q99
  FROM (
    SELECT event_type, window_start, cents FROM (
      SELECT event_type, date_trunc('hour', ts) AS window_start,
             floor(value * 100.0 + 0.5)::BIGINT AS cents,
             row_number() OVER (
               PARTITION BY event_type, date_trunc('hour', ts)
               ORDER BY (md5_number_lower('graft' || cast(event_id as varchar))
                         % 9223372036854775808)
             ) AS rn
      FROM events
    ) WHERE rn <= 256
  ) GROUP BY 1, 2
) u, LATERAL (VALUES (50::BIGINT, u.q50), (95, u.q95), (99, u.q99)) p(pct, q)
"""),
        ("ev_sessionize", lambda sf: events.sessionize(_events(sf)), """
WITH e AS (
  SELECT user_id, ts,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)
                   > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS brk
  FROM events
)
SELECT user_id, (sum(brk) + 1)::BIGINT AS n_sessions, count(*)::BIGINT AS n_events
FROM e GROUP BY user_id
"""),
        # event-time join family: as-of (latest login <= purchase) +
        # stream-stream interval join (clicks in the preceding hour)
        ("ev_asof_last_login", lambda sf: events.join_family(_events(sf)), """
SELECT 'asof' AS kind, p.event_id,
       coalesce((SELECT epoch_us(max(l.ts)) FROM events l
                 WHERE l.user_id = p.user_id AND l.event_type = 'login'
                   AND l.ts <= p.ts), -1)::BIGINT AS v
FROM events p WHERE p.event_type = 'purchase'
UNION ALL
-- stream-stream interval join: same-user clicks in the preceding hour,
-- (p.ts - 60min, p.ts]
SELECT 'interval_clicks', p.event_id,
       (SELECT count(*) FROM events c
        WHERE c.user_id = p.user_id AND c.event_type = 'click'
          AND c.ts <= p.ts AND c.ts > p.ts - INTERVAL 60 MINUTE)::BIGINT
FROM events p WHERE p.event_type = 'purchase'
"""),
    ]


def queries() -> dict[str, Callable[[str], Any]]:
    return {name: pipeline for name, pipeline, _sql in _table()}


def oracle_sql() -> dict[str, str]:
    return {name: sql for name, _pipeline, sql in _table()}


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

def entry() -> Any:
    """Flagship: build the segmented index over sf0.001 documents with the
    Ray Data pipeline, then answer the reference query set (single-term +
    WAND disjunctions) from the encoded postings."""
    import pandas as pd

    sf_dir = "/root/testdata/sf0.001"
    single = ft.bm25_topk(sf_dir).to_pandas()
    single["family"] = "term"
    disj = ft.bm25_disjunction_topk(sf_dir).to_pandas()
    disj["family"] = "wand"
    return pd.concat([single, disj], ignore_index=True)
