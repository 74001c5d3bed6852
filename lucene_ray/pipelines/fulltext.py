"""Index-backed fulltext query pipelines over a driver testdata directory.

These are the oracle-checked entry points: each builds (or reuses) a real
segmented index over ``<sf_dir>/documents.parquet`` (content column
``text``) with the StandardAnalyzer, then answers from the *encoded*
segments — so a DuckDB match here certifies the whole chain: tokenization,
postings encode/decode round-trip, norms/SmallFloat quantization,
CollectionStatistics partial+final aggregation, float32 BM25 and the
WAND/impacts pruned query path.

Every index-wide answer has one shape — a partial per segment, then one
final merge (SURVEY §3.2):

- scatter: ``segment_map(idx, fn, **kw)`` calls ``fn(reader, doc_base,
  **kw) -> pa.Table`` once per manifest segment, the reader opened at the
  commit (live docs and doc-values updates applied), and streams the
  partials as a Ray Dataset.  Scoring kernels get the ``Weight`` the
  driver built once with ``IndexSearcher.make_weight``;
- reduce: the caller's own step — a Ray groupby, or a partial top-k;
- gather: ``gather(ds, schema)`` pulls a bounded result to the driver as
  one Arrow table, typed even when every partial is empty;
- searcher-driven top-k families return ``hits_table(searcher, queries,
  k)`` rows (qid, rnk, doc_id), one call per arm when a key column (fn,
  sim, method, ...) tells the arms apart.

The index cache lives under /tmp (one per sf_dir), built by the Ray Data
pipeline in lucene_ray.index.build (fused mode: embarrassingly parallel,
no shuffle).  docs_per_segment is set small so even the 500-doc driver
tables exercise multi-segment search, doc_base remapping and the
TopDocs.merge tie-break.
"""

from __future__ import annotations

import hashlib
import os
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..index import manifest as mf
from ..index.build import build_index
from ..index.postings import decode_term
from ..ops.util import gather, rank_rows, read_parquet, top_rows
from ..search.query import TermQuery, bool_query
from ..search.searcher import IndexSearcher, open_segment
from ..smallfloat import LENGTH_TABLE

DOCS_PER_SEGMENT = 200

# Fixed query vocabulary for the driver correctness gate (terms present in
# the synthetic documents tables at every sf).
QUERY_TERMS = ["spark", "join", "merge", "window", "customer", "hash", "stream", "vector"]
DISJUNCTIONS = [
    ["spark", "join"],
    ["merge", "window", "customer"],
    ["hash", "stream"],
    ["vector", "dup", "batch"],
]
BOOSTED_DISJUNCTIONS = [
    [("spark", 2.0), ("join", 1.0)],
    [("merge", 0.5), ("window", 3.0), ("hash", 1.0)],
    [("customer", 1.5), ("vector", 1.5), ("stream", 0.25)],
]

BOOL_COUNTS = [
    ("and", "spark", "join"),
    ("or", "spark", "join"),
    ("and_not", "merge", "window"),
    ("and", "customer", "vector"),
]


# stored-field layout version: bump when meta_columns / segment schema
# changes so stale /tmp caches can never be picked up by a newer build
INDEX_LAYOUT_V = 4


def _sf_slug(sf_dir: str) -> str:
    """``<sf basename>-<sha256(realpath | layout version)[:12]>``: the name
    every index and derived corpus of ``sf_dir`` starts with."""
    digest = hashlib.sha256(
        (os.path.realpath(sf_dir) + f"|v{INDEX_LAYOUT_V}").encode()
    ).hexdigest()[:12]
    return f"{os.path.basename(sf_dir.rstrip('/'))}-{digest}"


def index_dir_for(
    sf_dir: str,
    docs_per_segment: int = DOCS_PER_SEGMENT,
    index_options: str = "docs_freqs",
    analyzer: str = "standard",
    index_sort: tuple[str, str] | None = None,
    term_vectors: bool = False,
) -> str:
    suffix = "" if index_options == "docs_freqs" else f"-{index_options}"
    if analyzer != "standard":
        suffix += f"-{analyzer}"
    if index_sort is not None:
        suffix += f"-sorted-{index_sort[0]}-{index_sort[1]}"
    if term_vectors:
        suffix += "-tv"
    # LUCENE_RAY_INDEX_ROOT may be a remote URL (file://, s3://): every
    # index build/read goes through the store Directory seam, so the whole
    # oracle suite can run with its indexes on shared storage
    base = os.environ.get("LUCENE_RAY_INDEX_ROOT", "/tmp/lucene_ray_idx")
    return os.path.join(base, f"{_sf_slug(sf_dir)}-d{docs_per_segment}{suffix}")


def ensure_index(
    sf_dir: str,
    docs_per_segment: int = DOCS_PER_SEGMENT,
    index_options: str = "docs_freqs",
    analyzer: str = "standard",
    index_sort: tuple[str, str] | None = None,
    term_vectors: bool = False,
) -> str:
    """Build the index over documents.parquet once per sf_dir (resumable —
    a rerun over an existing index skips all complete segments)."""
    idx = index_dir_for(
        sf_dir, docs_per_segment, index_options, analyzer, index_sort, term_vectors
    )
    src = os.path.join(sf_dir, "documents.parquet")
    if mf.latest_generation(idx) is None:
        build_index(
            src,
            idx,
            analyzer=analyzer,
            docs_per_segment=docs_per_segment,
            content_column="text",
            meta_columns=("doc_id", "lang", "source", "n_chars"),
            index_options=index_options,
            index_sort=index_sort,
            term_vectors=term_vectors,
        )
    return idx


# --- scatter / gather ----------------------------------------------------

def segment_map(idx: str, fn, **kw):
    """The scatter half of every per-segment pipeline: one Ray Data row per
    manifest segment, on which ``fn(reader, doc_base, **kw) -> pa.Table``
    runs with the segment's reader opened at the commit (live docs and
    doc-values updates applied, as IndexSearcher opens it).  Returns the
    Dataset of concatenated partials; it streams, and the caller adds its
    own reduce (groupby, partial top-k merge, gather)."""
    import ray.data as rd

    segs = mf.read_manifest(idx)["segments"]

    def _segments(batch: pa.Table) -> pa.Table:
        return pa.concat_tables(
            [
                fn(open_segment(segs[i]), segs[i]["doc_base"], **kw)
                for i in batch.column("seg").to_pylist()
            ]
        )

    return rd.from_items([{"seg": i} for i in range(len(segs))]).map_batches(
        _segments, batch_format="pyarrow"
    )


def ranked_table(ranked) -> pa.Table:
    """(qid, rnk, doc_id) int64 rows from ``(qid, doc ids in rank order)``
    pairs, rnk counting from 1."""
    qids, rnks, docs = [], [], []
    for qid, ids in ranked:
        ids = [int(d) for d in ids]
        qids += [qid] * len(ids)
        rnks += range(1, len(ids) + 1)
        docs += ids
    return pa.table(
        {
            "qid": pa.array(qids, pa.int64()),
            "rnk": pa.array(rnks, pa.int64()),
            "doc_id": pa.array(docs, pa.int64()),
        }
    )


def hits_table(searcher, queries, k: int, **search_kw) -> pa.Table:
    """(qid, rnk, doc_id) for ``enumerate(queries)``: the hits of
    ``searcher.search(q, k, **search_kw)`` in rank order.  A ``None``
    query has no hits but keeps its qid."""
    return ranked_table(
        (qid, [] if q is None else [d for d, _s in searcher.search(q, k, **search_kw)])
        for qid, q in enumerate(queries)
    )


def _keyed_concat(col: str, arms, col_type=pa.string()) -> pa.Table:
    """Concatenate ``(label, table)`` arms under a leading ``col`` column
    holding each arm's label."""
    return pa.concat_tables(
        [t.add_column(0, col, pa.array([label] * len(t), col_type)) for label, t in arms]
    )


def _schema(**cols) -> pa.Schema:
    return pa.schema(list(cols.items()))


def _corpus(sf_dir: str, columns: list[str]):
    """documents.parquet as a Ray Dataset of ``columns``."""
    return read_parquet(os.path.join(sf_dir, "documents.parquet"), columns)


def _paired_segments(idx: str, field: str) -> dict[int, dict]:
    """doc_base -> manifest entry of a multi-field index's ``field``
    sub-index.  The sub-indexes share one segmentation, so a kernel
    mapped over one opens its twin segment by doc_base."""
    return {s["doc_base"]: s for s in mf.read_manifest(os.path.join(idx, field))["segments"]}


def _terms_query(terms):
    """One term as a TermQuery, several as a SHOULD disjunction."""
    if len(terms) == 1:
        return TermQuery(terms[0])
    return bool_query(should=[TermQuery(t) for t in terms])


def _terms_weight(searcher: IndexSearcher, terms):
    """The Weight (index-wide collection + term statistics) kernels score
    ``terms`` with — built once on the driver, shipped to every segment."""
    return searcher.make_weight(bool_query(should=[TermQuery(t) for t in terms]))


def _alive(reader, docs: np.ndarray) -> np.ndarray:
    """Mask over ``docs``: True where the document is not deleted."""
    return np.ones(len(docs), bool) if reader.live is None else reader.live[docs]


def _live_docs(reader, term: str) -> np.ndarray:
    """The local docids of ``term``'s live matches in the segment (empty
    when the segment does not hold the term)."""
    tid = reader.term_id(term)
    if tid is None:
        return np.empty(0, np.int64)
    docs = reader.decode_term_cached(tid)[0]
    return docs if reader.live is None else docs[reader.live[docs]]


def _term_matches(reader, terms=QUERY_TERMS):
    """(qid, live local docids) for each of ``terms`` that matches in the
    segment — the per-term partial loop of the facet and stats kernels."""
    for qid, t in enumerate(terms):
        docs = _live_docs(reader, t)
        if len(docs):
            yield qid, docs


# --- term-level dumps (Ray pipelines over the segment list) ---------------

TERM_STATS_SCHEMA = pa.schema(
    [("term", pa.string()), ("doc_freq", pa.int64()), ("total_term_freq", pa.int64())]
)


def _seg_term_stats(r, doc_base: int) -> pa.Table:
    # zero-copy Arrow view over the term offsets/bytes arrays — no
    # per-term Python objects in the vocab dump
    return pa.table(
        {
            "term": r.terms_array().cast(pa.string()),
            "df": pa.array(np.asarray(r.enc.doc_freq, dtype=np.int64)),
            "ttf": pa.array(np.asarray(r.enc.total_term_freq, dtype=np.int64)),
        }
    )


def _term_stats_ds(idx: str):
    from ray.data.aggregate import Sum

    return (
        segment_map(idx, _seg_term_stats)
        .groupby("term")
        .aggregate(Sum("df", alias_name="doc_freq"), Sum("ttf", alias_name="total_term_freq"))
    )


def term_stats_all(sf_dir: str, analyzer: str = "standard"):
    """(term, doc_freq, total_term_freq) summed across segments
    (TERM_STATS_SCHEMA)."""
    return _term_stats_ds(ensure_index(sf_dir, analyzer=analyzer))


def _derived_corpus(sf_dir: str, tag: str, parts: dict, write_part) -> str:
    """A derived corpus of ``sf_dir``: parquet part files under
    /tmp/lucene_ray_idx/<slug>-<tag>-src.  Derived corpora are LOCAL
    inputs (not index artifacts), so they stay under /tmp even when
    LUCENE_RAY_INDEX_ROOT points at shared storage.  One Ray task per
    ``parts`` item ``name: key`` runs ``write_part(key, path)`` into a
    temporary path and renames it to ``part-<name>.parquet`` (distributed,
    streaming, no driver-side corpus); ``_DONE`` marks a complete corpus,
    which is reused as it is."""
    out_dir = os.path.join("/tmp", "lucene_ray_idx", f"{_sf_slug(sf_dir)}-{tag}-src")
    done = os.path.join(out_dir, "_DONE")
    if not os.path.exists(done):
        import ray.data as rd

        os.makedirs(out_dir, exist_ok=True)

        def _derive(batch: pa.Table) -> pa.Table:
            for name, key in zip(batch.column("name").to_pylist(), batch.column("key").to_pylist()):
                part = os.path.join(out_dir, f"part-{name}.parquet")
                write_part(key, part + ".tmp")
                os.replace(part + ".tmp", part)
            return batch

        rd.from_items([{"name": n, "key": k} for n, k in parts.items()]).map_batches(
            _derive, batch_size=1, batch_format="pyarrow", num_cpus=1
        ).materialize()
        with open(done, "w") as f:
            f.write("ok")
    return out_dir


def _row_group_corpus(sf_dir: str, tag: str, derive, row_group_size: int, columns=None) -> str:
    """A derived corpus with one part per documents.parquet row group,
    ``derive(row group table) -> pa.Table`` (ordinal part names keep docid
    order == input row order)."""
    import pyarrow.parquet as pq

    src = os.path.join(sf_dir, "documents.parquet")

    def _write(rg: int, path: str) -> None:
        tbl = pq.ParquetFile(src).read_row_group(rg, columns=columns)
        pq.write_table(derive(tbl), path, row_group_size=row_group_size)

    n = pq.ParquetFile(src).metadata.num_row_groups
    return _derived_corpus(sf_dir, tag, {f"{rg:06d}": rg for rg in range(n)}, _write)


def _path_values(ids, sources, langs):
    """A deterministic SQL-reproducible hierarchy
    ``source/lang/b<doc_id%10>/doc_<doc_id>.txt`` — the input for the
    PathHierarchyTokenizer analyzer arms (a path facet over a code corpus
    is the tokenizer's reference use case)."""
    return [
        f"{sv}/{lv}/b{iv % 10}/doc_{iv}.txt"
        for iv, sv, lv in zip(ids, sources, langs)
    ]


def _contact_values(ids, sources, langs):
    """A line with a URL, an email, an apostrophe possessive, an acronym,
    a company name, a version number and a date — the grammar surface
    ClassicTokenizer and UAX29URLEmailTokenizer exist for."""
    return [
        f"Visit https://{sv}.io/{lv}/doc{iv} or email "
        f"user_{iv}@{sv}.example.com re O'Brien's U.S.A. AT&T "
        f"rev 1.{iv % 7}.{iv % 13} on 2024-03-{iv % 28 + 1} visit"
        for iv, sv, lv in zip(ids, sources, langs)
    ]


# digit -> Han numeral map shared with the oracle's translate() call
HAN_DIGITS = "零一二三四五六七八九"


def _cjk_values(ids, sources, langs):
    """Han numerals (doc_id digits) form one bigram run and the kana pair
    another."""
    tr = str.maketrans("0123456789", HAN_DIGITS)
    return [
        f"cjk {str(iv).translate(tr)} mid かな end" for iv in ids
    ]


def _template_values(templates, ids, sources, langs):
    """doc_id % len(templates) picks one fixed sentence per doc."""
    return [templates[iv % len(templates)] for iv in ids]


# Japanese lattice-tokenizer fixture: doc_id % 10 picks one of ten fixed
# sentences; JA_GOLDENS pins each sentence's SEARCH-mode segmentation
# (hand-verified against the kuromoji reference's canonical outputs —
# tests/test_japanese.py asserts the tokenizer still produces them, and
# the oracle SQL re-derives term stats from the SAME pinned lists, the
# VALUES-mapped-golden pattern for non-SQL-expressible analyzers).
JA_TEMPLATES = [
    "関西国際空港へ行きたい。",
    "お寿司が食べたい。",
    "日本の大学で勉強する。",
    "東京タワーを見ました。",
    "すもももももももものうち。",
    "学生は図書館で本を読む。",
    "ラーメンとビールを注文した。",
    "水を飲みたいです。",
    "空港から東京まで電車で行く。",
    "国際会議は明日です。",
]
JA_GOLDENS = [
    ["関西", "国際", "空港", "へ", "行き", "たい"],
    ["お", "寿司", "が", "食べ", "たい"],
    ["日本", "の", "大学", "で", "勉強", "する"],
    ["東京", "タワー", "を", "見", "まし", "た"],
    ["すもも", "も", "もも", "も", "もも", "の", "うち"],
    ["学生", "は", "図書館", "で", "本", "を", "読む"],
    ["ラーメン", "と", "ビール", "を", "注文", "し", "た"],
    ["水", "を", "飲み", "たい", "です"],
    ["空港", "から", "東京", "まで", "電車", "で", "行く"],
    ["国際", "会議", "は", "明日", "です"],
]


def goldens_sql_values(goldens: list[list[str]]) -> str:
    """Pinned per-template goldens as the (t, term, tf) rows of a SQL
    VALUES body."""
    from collections import Counter

    rows = []
    for t, toks in enumerate(goldens):
        for term, tf in sorted(Counter(toks).items()):
            rows.append(f"({t}, '{term}', {tf})")
    return ", ".join(rows)


# Korean (nori-style) fixture: same VALUES-mapped-golden pattern as the
# Japanese arm; DISCARD decompound is the analyzer default, so the
# goldens contain the decompounded parts (역삼역 -> 역삼 + 역).
KO_TEMPLATES = [
    "한국어를 공부합니다.",
    "서울에서 친구를 만나다.",
    "학생이 책을 읽는다.",
    "삼성전자는 큰 회사입니다.",
    "물을 마시다.",
    "한국 음식은 맛있다.",
    "컴퓨터와 인터넷을 사용한다.",
    "내일 회의가 있습니다.",
    "역삼역에서 만나요.",
    "대학교에서 공부하다.",
]
KO_GOLDENS = [
    ["한국", "어", "를", "공부", "합니다"],
    ["서울", "에서", "친구", "를", "만나다"],
    ["학생", "이", "책", "을", "읽는다"],
    ["삼성", "전자", "는", "큰", "회사", "입니다"],
    ["물", "을", "마시다"],
    ["한국", "음식", "은", "맛있다"],
    ["컴퓨터", "와", "인터넷", "을", "사용", "한다"],
    ["내일", "회의", "가", "있습니다"],
    ["역삼", "역", "에서", "만나요"],
    ["대학교", "에서", "공부", "하다"],
]


# ICU folding fixture (analysis/icu ICUFoldingFilter): ten phrases whose
# folds exercise casefold (ß, İ, final sigma), accent strip (composed +
# decomposed), native digits, stroked/ligature Latin, Arabic presentation
# forms and width/compat foldings; goldens pinned, VALUES-mapped oracle.
ICU_TEMPLATES = [
    "Ruß résumé",
    "ΜΆΪΟΣ Μάϊος",
    "đis is cræzy",
    "ELİF naïve",
    "৭০৬ and ٣٤٥",
    "HÔTEL façade",
    "Łódź świat",
    "ﴳﴺﰧ",
    "ŒUF œuf Æsir",
    "Tōkyō №5 ½kg",
]
ICU_GOLDENS = [
    ["russ", "resume"],
    ["μαιοσ", "μαιοσ"],
    ["dis", "is", "craezy"],
    ["elif", "naive"],
    ["706", "and", "345"],
    ["hotel", "facade"],
    ["lodz", "swiat"],
    ["طمطمطم"],
    ["oeuf", "oeuf", "aesir"],
    ["tokyo", "5", "kg"],
]


# Chinese (smartcn-style) fixture: same VALUES-mapped-golden pattern.
ZH_TEMPLATES = [
    "我是中国人。",
    "他喜欢学习中文。",
    "北京大学的学生很多。",
    "今天天气很好。",
    "我们在图书馆看书。",
    "人工智能改变世界。",
    "明天我去上海。",
    "这是一本好书。",
    "计算机科学很有趣。",
    "朋友们一起吃饭。",
]
ZH_GOLDENS = [
    ["我", "是", "中国", "人"],
    ["他", "喜欢", "学习", "中文"],
    ["北京", "大学", "的", "学生", "很", "多"],
    ["今天", "天气", "很", "好"],
    ["我们", "在", "图书馆", "看", "书"],
    ["人工", "智能", "改变", "世界"],
    ["明天", "我", "去", "上海"],
    ["这", "是", "一", "本", "好", "书"],
    ["计算机", "科学", "很", "有趣"],
    ["朋友", "们", "一起", "吃饭"],
]


# analyzer arm -> (corpus tag, corpus column, values(ids, sources, langs),
# index tag, analyzer): the derived-corpus term-stats fixtures
DERIVED_ARMS = {
    "path_hierarchy": (
        "paths", "path", _path_values, "path-fwd", {"name": "path_hierarchy", "reverse": False},
    ),
    "path_hierarchy_reverse": (
        "paths", "path", _path_values, "path-rev", {"name": "path_hierarchy", "reverse": True},
    ),
    "classic": ("contact", "contact", _contact_values, "contact-classic", "classic"),
    "uax29_url_email": (
        "contact", "contact", _contact_values, "contact-uax29_url_email", "uax29_url_email",
    ),
    "cjk_bigram": ("cjk", "cjk", _cjk_values, "cjk-bigram", "cjk_bigram"),
    "ja": ("ja", "ja", partial(_template_values, JA_TEMPLATES), "ja", "japanese"),
    "ko": ("ko", "ko", partial(_template_values, KO_TEMPLATES), "ko", "korean"),
    "icu_folding": (
        "icu", "icu", partial(_template_values, ICU_TEMPLATES), "icu-folding", "icu_folding",
    ),
    "zh": ("zh", "zh", partial(_template_values, ZH_TEMPLATES), "zh", "chinese"),
}


def derived_term_stats(sf_dir: str, arm: str):
    """(term, doc_freq, total_term_freq) of one DERIVED_ARMS analyzer arm:
    the (doc_id, <column>) corpus derived from SQL-visible columns only
    (so the oracle reproduces the text by construction), indexed once
    with the arm's analyzer."""
    tag, column, values, index_tag, analyzer = DERIVED_ARMS[arm]

    def _derive(tbl: pa.Table) -> pa.Table:
        vals = values(
            tbl.column("doc_id").to_numpy().tolist(),
            tbl.column("source").to_pylist(),
            tbl.column("lang").to_pylist(),
        )
        return pa.table({"doc_id": tbl.column("doc_id"), column: pa.array(vals, pa.string())})

    src = _row_group_corpus(sf_dir, tag, _derive, 2000, ["doc_id", "lang", "source"])
    idx = index_dir_for(sf_dir, analyzer=index_tag)
    if mf.latest_generation(idx) is None:
        build_index(
            sorted(os.path.join(src, f) for f in os.listdir(src) if f.endswith(".parquet")),
            idx,
            analyzer=analyzer,
            docs_per_segment=DOCS_PER_SEGMENT,
            content_column=column,
            meta_columns=("doc_id",),
        )
    return _term_stats_ds(idx)


def _seg_postings(r, base: int, terms: list[str]) -> pa.Table:
    out_t, out_d, out_f = [], [], []
    for t in terms:
        tid = r.term_id(t)
        if tid is None:
            continue
        docs, freqs = decode_term(r.enc, tid)
        out_t.extend([t] * len(docs))
        out_d.extend((docs + base).tolist())
        out_f.extend(freqs.tolist())
    return pa.table(
        {
            "term": pa.array(out_t, pa.string()),
            "doc_id": pa.array(out_d, pa.int64()),
            "tf": pa.array(out_f, pa.int64()),
        }
    )


def term_postings(sf_dir: str, terms: list[str] | None = None):
    """Decoded posting lists (term, doc_id, tf) for the query vocabulary."""
    return segment_map(ensure_index(sf_dir), _seg_postings, terms=terms or QUERY_TERMS)


TV_SAMPLE_DOCS = [0, 3, 17, 42, 99, 123, 250, 311]


def term_vectors_dump(sf_dir: str, doc_ids: list[int] | None = None):
    """(term, doc_id, tf) straight from the per-doc forward index
    (IndexReader.getTermVector analogue) for the sample docs — must agree
    row-for-row with the inverted postings."""
    idx = ensure_index(sf_dir, term_vectors=True)
    sample = doc_ids or TV_SAMPLE_DOCS

    def _seg_tv(r, base: int) -> pa.Table:
        out_t, out_d, out_f = [], [], []
        for gdoc in sample:
            local = gdoc - base
            if not (0 <= local < r.max_doc):
                continue
            tids, tfs = r.term_vector(local)
            for tid, tf in zip(tids, tfs):
                out_t.append(r.term_string(int(tid)))
                out_d.append(gdoc)
                out_f.append(int(tf))
        return pa.table(
            {
                "term": pa.array(out_t, pa.string()),
                "doc_id": pa.array(out_d, pa.int64()),
                "tf": pa.array(out_f, pa.int64()),
            }
        )

    return segment_map(idx, _seg_tv)


# MoreLikeThis (queries/mlt/MoreLikeThis.java): interesting terms come
# from the seed's TERM VECTOR, scored tf * ClassicSimilarity idf
MLT_SEEDS = [0, 7, 42, 123]
MLT_MIN_TF = 2
MLT_MIN_DF = 2
MLT_MAX_TERMS = 10


def mlt_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """More-like-this: top-k docs for each seed doc (seed excluded).
    Term selection: tf >= MLT_MIN_TF, df >= MLT_MIN_DF, score =
    tf * (ln((docCount+1)/(df+1)) + 1), top MLT_MAX_TERMS by (score desc,
    term asc); the selected terms run as a SHOULD disjunction."""
    idx = ensure_index(sf_dir, term_vectors=True)
    searcher = IndexSearcher(idx)
    dc = searcher.collection_stats.doc_count
    ranked = []
    for sid, seed in enumerate(MLT_SEEDS):
        reader = None
        for r, s in zip(searcher.readers, searcher.manifest["segments"]):
            if s["doc_base"] <= seed < s["doc_base"] + r.max_doc:
                reader, base = r, s["doc_base"]
                break
        if reader is None:
            continue
        tids, tfs = reader.term_vector(seed - base)
        terms = [reader.term_string(int(t)) for t in tids]
        stats = searcher.term_statistics(set(terms))
        cand = []
        for t, tf in zip(terms, tfs):
            df = stats[t].doc_freq
            if tf >= MLT_MIN_TF and df >= MLT_MIN_DF:
                cand.append((float(tf) * (np.log((dc + 1.0) / (df + 1.0)) + 1.0), t))
        cand.sort(key=lambda x: (-x[0], x[1]))
        sel = [t for _, t in cand[:MLT_MAX_TERMS]]
        if not sel:
            continue
        hits = searcher.search(bool_query(should=[TermQuery(t) for t in sel]), k + 1)
        ranked.append((sid, [d for d, _s in hits if d != seed][:k]))
    return ranked_table(ranked).rename_columns(["sid", "rnk", "doc_id"])


# MoreLikeThisQuery (queries/mlt/MoreLikeThisQuery.java): the like-TEXT
# mode — interesting terms come from the free text's own tf (analyzed),
# df from the index; same selection + scoring as the seed-doc mode, no
# seed exclusion
MLT_TEXTS = [
    "spark join merge spark join spark",
    "window scan window stream stream scan",
    "customer order order group group total",
]


def mlt_text_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """Top-k docs for each like-text (sid, rnk, doc_id)."""
    from collections import Counter

    from ..analysis.analyzers import make_analyzer
    from ..search.query import TermQuery, bool_query

    idx = ensure_index(sf_dir)
    searcher = IndexSearcher(idx)
    dc = searcher.collection_stats.doc_count
    ana = make_analyzer("standard")
    queries = []
    for text in MLT_TEXTS:
        qf = Counter(ana.tokens(text))
        stats = searcher.term_statistics(set(qf))
        cand = []
        for t, tf in qf.items():
            df = stats[t].doc_freq
            if tf >= MLT_MIN_TF and df >= MLT_MIN_DF:
                cand.append((float(tf) * (np.log((dc + 1.0) / (df + 1.0)) + 1.0), t))
        cand.sort(key=lambda x: (-x[0], x[1]))
        sel = [t for _, t in cand[:MLT_MAX_TERMS]]
        queries.append(bool_query(should=[TermQuery(t) for t in sel]) if sel else None)
    return hits_table(searcher, queries, k).rename_columns(["sid", "rnk", "doc_id"])


# FuzzyLikeThisQuery (sandbox/queries/FuzzyLikeThisQuery.java): fuzzify
# every analyzed source term over the index dictionary, keep the top
# MAX_VARIANTS_PER_TERM variants by edit-distance boost, rescore each as
# boost^2 * ClassicSimilarity.idf(source df | avg variant df), keep the
# global top maxNumTerms, and run them as constant-score SHOULD clauses
# (the ignoreTF=true mode).  Query strings carry typos so fuzzification
# actually fires against the corpus vocabulary.
FLT_QUERIES = ["mergge sorrt", "windoww scan", "vektor hash"]
FLT_MAX_EDITS = 1
FLT_MAX_VARIANTS = 50  # MAX_VARIANTS_PER_TERM
FLT_MAX_TERMS = 10  # maxNumTerms
FLT_K = 10


def _flt_sources() -> list[tuple[int, str]]:
    from ..analysis.analyzers import make_analyzer

    ana = make_analyzer("standard")
    out: list[tuple[int, str]] = []
    for qid, qs in enumerate(FLT_QUERIES):
        seen: set[str] = set()
        for t in ana.tokens(qs):
            if t not in seen:
                seen.add(t)
                out.append((qid, t))
    return out


def _seg_flt_candidates(r, base: int, sources: list) -> pa.Table:
    """Per-segment FuzzyTermsEnum scan: dictionary terms within
    FLT_MAX_EDITS Damerau edits of each source term, with partial df."""
    from ..search.multiterm import fuzzy_term_dists_multi

    q, s, v, d, df = [], [], [], [], []
    df_arr = np.asarray(r.enc.doc_freq, np.int64)
    scans = fuzzy_term_dists_multi(r, sorted({t for _, t in sources}), FLT_MAX_EDITS)
    for qid, src in sources:
        tids, dists = scans[src]
        for tid, dist in zip(tids, dists):
            q.append(qid)
            s.append(src)
            v.append(r.term_string(int(tid)))
            d.append(int(dist))
            df.append(int(df_arr[tid]))
    return pa.table(
        {
            "qid": pa.array(q, pa.int64()),
            "source": pa.array(s, pa.string()),
            "variant": pa.array(v, pa.string()),
            "dist": pa.array(d, pa.int64()),
            "df": pa.array(df, pa.int64()),
        }
    )


def _seg_flt_score(r, base: int, sel: list, k: int) -> pa.Table:
    """Constant-score disjunction per segment: score(doc) = sum of the
    selected variants' f32 scores (exact in f64: <= maxNumTerms f32
    addends with a tiny exponent spread, so addition order cannot
    matter); per-segment top-k by (score desc, doc asc)."""
    out_q, out_d, out_s = [], [], []
    acc: dict[int, np.ndarray] = {}
    matched: dict[int, np.ndarray] = {}
    for qid, variant, score in sel:
        tid = r.term_id(variant)
        if tid is None:
            continue
        docs = decode_term(r.enc, tid)[0]
        docs = docs[_alive(r, docs)]
        a = acc.get(qid)
        if a is None:
            a = acc[qid] = np.zeros(r.max_doc, np.float64)
            matched[qid] = np.zeros(r.max_doc, bool)
        a[docs] += np.float64(score)
        matched[qid][docs] = True
    for qid, a in acc.items():
        # membership, not score > 0: a zero-boost variant still MATCHES
        # (the oracle's docscore ranks such docs too)
        hit = np.flatnonzero(matched[qid])
        order = np.lexsort((hit, -a[hit]))[:k]
        out_q.extend([qid] * len(order))
        out_d.extend((hit[order] + base).tolist())
        out_s.extend(a[hit[order]].tolist())
    return pa.table(
        {
            "qid": pa.array(out_q, pa.int64()),
            "doc_id": pa.array(out_d, pa.int64()),
            "score": pa.array(out_s, pa.float64()),
        }
    )


def fuzzy_like_this_topk(sf_dir: str, k: int = FLT_K) -> pa.Table:
    """(qid, rnk, doc_id): FuzzyLikeThisQuery top-k per query string.

    Distributed shape: one dictionary scan per segment (the FuzzyTermsEnum
    analogue) -> one tiny groupby over (qid, source, variant) partial dfs
    -> driver-side variant selection (bounded by |sources| x |dictionary
    hits|, a few hundred rows) -> broadcast of <= maxNumTerms scored terms
    -> one postings decode per segment with per-segment top-k."""
    from ray.data.aggregate import Sum

    idx = ensure_index(sf_dir)
    sources = _flt_sources()
    man = mf.read_manifest(idx)
    n_docs = int(mf.collection_stats_from(man)["max_doc"])

    keys = ["qid", "source", "variant", "dist"]
    cand = (
        segment_map(idx, _seg_flt_candidates, sources=sources)
        .groupby(keys)
        .aggregate(Sum("df", alias_name="df"))
    )
    # driver pull bounded: |sources| x |dict terms within 1 edit|
    cp = gather(cand, _schema(qid=pa.int64(), source=pa.string(), variant=pa.string(),
                              dist=pa.int64(), df=pa.int64())).to_pandas()

    sel: list[tuple[int, str, float]] = []  # (qid, variant, f32 score)
    for (qid, src), g in cp.groupby(["qid", "source"], sort=False):
        dist = g["dist"].to_numpy()
        dfs = g["df"].to_numpy()
        variants = g["variant"].to_numpy()
        vlens = np.array([len(v) for v in variants], np.int64)
        minlen = np.minimum(len(src), vlens).astype(np.float32)
        boost = np.where(
            dist == 0,
            np.float32(1.0),
            np.float32(1.0) - dist.astype(np.float32) / minlen,
        ).astype(np.float32)
        # top MAX_VARIANTS_PER_TERM by (boost desc, variant asc) — the
        # ScoreTerm queue's comparator (score, then term reversed)
        order = np.lexsort((variants, -boost))[:FLT_MAX_VARIANTS]
        exact = dfs[dist == 0]
        df_src = int(exact[0]) if len(exact) else int(dfs.sum()) // len(g)
        idf = np.float32(np.log((n_docs + 1) / (df_src + 1.0)) + 1.0)
        for i in order:
            score = np.float32(np.float32(boost[i] * boost[i]) * idf)
            sel.append((int(qid), str(variants[i]), float(score)))

    # global top maxNumTerms per qid by (score desc, variant asc)
    final: list[tuple[int, str, float]] = []
    for qid in sorted({q for q, _, _ in sel}):
        rows = [(v, s) for q2, v, s in sel if q2 == qid]
        rows.sort(key=lambda r: (-np.float32(r[1]), r[0]))
        final.extend((qid, v, s) for v, s in rows[:FLT_MAX_TERMS])

    parts = gather(segment_map(idx, _seg_flt_score, sel=final, k=k))
    return top_rows(parts, ["score", "doc_id"], [False, True], k).rename_columns(
        ["sid", "rnk", "doc_id"]
    )


def _seg_norms(r, base: int) -> pa.Table:
    norms = np.asarray(r.norms, dtype=np.int64)
    return pa.table(
        {
            "doc_id": pa.array(base + np.arange(r.max_doc, dtype=np.int64)),
            "norm_byte": pa.array(norms),
            "dl_quantized": pa.array(LENGTH_TABLE.astype(np.int64)[norms]),
        }
    )


def doc_norms(sf_dir: str):
    """(doc_id, norm_byte, dl_quantized): the SmallFloat norm pipeline."""
    return segment_map(ensure_index(sf_dir), _seg_norms)


def collection_stats(sf_dir: str) -> pa.Table:
    """Single-row index-wide stats (partial-per-segment + final sum)."""
    idx = ensure_index(sf_dir)
    cs = mf.collection_stats_from(mf.read_manifest(idx))
    return pa.table(
        {
            "max_doc": pa.array([cs["max_doc"]], pa.int64()),
            "doc_count": pa.array([cs["doc_count"]], pa.int64()),
            "sum_total_term_freq": pa.array([cs["sum_total_term_freq"]], pa.int64()),
            "sum_doc_freq": pa.array([cs["sum_doc_freq"]], pa.int64()),
        }
    )


def _top_terms_by(sf_dir: str, key: str, k: int) -> "pd.DataFrame":
    """Top-k terms by ``key`` (tie: term asc).

    Distributed: after the per-term groupby-sum, each BLOCK of the
    aggregated stream keeps its local top-k (ties at the k-th value kept,
    so pruning is exact); the driver reduce sees only ~k * num_blocks rows
    — never the vocabulary (code corpora reach 1e8+ terms; the
    TopDocs.merge discipline applied to terms, VERDICT r1 item 3)."""

    def _partial(batch: pa.Table) -> pa.Table:
        if len(batch) <= k:
            return batch
        v = batch.column(key).to_numpy()
        kth = np.partition(-v, k - 1)[k - 1]
        return batch.filter(pa.array(-v <= kth))

    cands = gather(  # <= k * num_blocks rows by construction
        term_stats_all(sf_dir).map_batches(_partial, batch_format="pyarrow"),
        TERM_STATS_SCHEMA,
    ).to_pandas()
    return cands.sort_values([key, "term"], ascending=[False, True]).head(k)


def top_terms(sf_dir: str, k: int = 25) -> pa.Table:
    """(ord, term, doc_freq, total_term_freq) — HighFreqTerms
    (misc/HighFreqTerms.java): top-k terms under BOTH comparators,
    ord='ttf' = TotalTermFreqComparator (the original benchmark dump) and
    ord='df' = DocFreqComparator."""
    import pandas as pd

    frames = []
    for order, key in (("df", "doc_freq"), ("ttf", "total_term_freq")):
        df = _top_terms_by(sf_dir, key, k).copy()
        df.insert(0, "ord", order)
        frames.append(df)
    out = pd.concat(frames, ignore_index=True)
    return pa.Table.from_pandas(out.reset_index(drop=True), preserve_index=False)


# --- search entry points --------------------------------------------------

def bm25_topk(
    sf_dir: str,
    k: int = 10,
    score_mode: str = "TOP_SCORES",
    analyzer: str = "standard",
) -> pa.Table:
    """Single-term BM25 top-k per query: (qid, rnk, doc_id).  Query terms
    run through the same analyzer chain as the index (QueryParser analyzes
    query text, so e.g. english stems the term before lookup)."""
    from ..analysis.analyzers import make_analyzer

    idx = ensure_index(sf_dir, analyzer=analyzer)
    an = make_analyzer(analyzer) if analyzer != "standard" else None
    queries = []
    for term in QUERY_TERMS:
        toks = [term] if an is None else an.tokens(term)
        queries.append(TermQuery(toks[0]) if toks else None)
    return hits_table(IndexSearcher(idx), queries, k, score_mode=score_mode)


def bm25_topk_remote(sf_dir: str, k: int = 10) -> pa.Table:
    """bm25_topk with the index on a REMOTE root (fsspec file:// — same
    byte-store protocol as s3://): the build publishes segments through the
    store Directory seam and the searcher pulls them through the node-local
    read-through cache.  Identical results to bm25_topk certify the seam
    (reference store/Directory.java:1)."""
    old = os.environ.get("LUCENE_RAY_INDEX_ROOT")
    os.environ["LUCENE_RAY_INDEX_ROOT"] = "file:///tmp/lucene_ray_remote_idx"
    try:
        return bm25_topk(sf_dir, k)
    finally:
        if old is None:
            os.environ.pop("LUCENE_RAY_INDEX_ROOT", None)
        else:
            os.environ["LUCENE_RAY_INDEX_ROOT"] = old


def bm25_disjunction_topk(sf_dir: str, k: int = 10, score_mode: str = "TOP_SCORES") -> pa.Table:
    """Boolean SHOULD (WAND-pruned) top-k per query: (qid, rnk, doc_id)."""
    return hits_table(
        IndexSearcher(ensure_index(sf_dir)),
        [bool_query(should=[TermQuery(t) for t in terms]) for terms in DISJUNCTIONS],
        k,
        score_mode=score_mode,
    )


# grouping (lucene/grouping two-pass collectors): group docs by a stored
# field, rank groups by their best hit, keep top docs per group
GROUP_FIELD = "source"
N_GROUPS = 5
K_IN_GROUP = 3
GROUP_ROWS_SCHEMA = _schema(qid=pa.int64(), grp=pa.string(), doc_id=pa.int64(), score=pa.float64())
GROUPED_SCHEMA = _schema(
    qid=pa.int64(), grp_rnk=pa.int64(), grp=pa.string(), rnk=pa.int64(), doc_id=pa.int64()
)
GROUPED_QUERIES = [
    ("spark",),
    ("join",),
    ("window", "batch"),
    ("stream", "vector"),
]


def _scored_matches(reader, queries, weight):
    """(qid, live matching docs, their scores) for each non-empty query
    of ``queries`` (term tuples) in one segment — dense COMPLETE
    scoring."""
    from ..search.query import scored_matches

    for qid, terms in enumerate(queries):
        docs, scores = scored_matches(_terms_query(terms), weight, reader, 1.0)
        m = _alive(reader, docs)
        if m.any():
            yield qid, docs[m], scores[m]


def _seg_grouped_partials(
    reader, doc_base: int, queries: list, field: str, k: int, weight
) -> pa.Table:
    """Per-segment pass: score every match (dense COMPLETE semantics),
    attach the group key from the stored column, keep top-k per (query,
    group).  The FirstPass/TopGroups collector state, as one vectorized
    stage (reference grouping/FirstPassGroupingCollector.java)."""
    out_qid, out_grp, out_doc, out_score = [], [], [], []
    groups = reader.stored_column(field).to_numpy(zero_copy_only=False)
    for qid, docs, scores in _scored_matches(reader, queries, weight):
        sc64 = scores.astype(np.float64)
        g = groups[docs]
        for grp in np.unique(g):
            sel = g == grp
            d, s = docs[sel], sc64[sel]
            order = np.lexsort((d, -s))[:k]
            for i in order:
                out_qid.append(qid)
                out_grp.append(str(grp))
                out_doc.append(int(d[i]) + doc_base)
                out_score.append(float(s[i]))
    return pa.table(
        {
            "qid": pa.array(out_qid, pa.int64()),
            "grp": pa.array(out_grp, pa.string()),
            "doc_id": pa.array(out_doc, pa.int64()),
            "score": pa.array(out_score, pa.float64()),
        }
    )


def _seg_group_all(reader, doc_base: int, queries: list, field: str, weight) -> pa.Table:
    """Per-segment AllGroups/AllGroupHeads partials: per (qid, grp) the
    matching-doc count and the segment-best head (f32 score desc, docid
    asc) — reference grouping/AllGroupsCollector.java (the group SET) and
    AllGroupHeadsCollector.java (one best doc per group, over ALL
    groups)."""
    cols = {c: [] for c in ("qid", "grp", "n", "head_doc", "head_score")}
    groups = reader.stored_column(field).to_numpy(zero_copy_only=False)
    for qid, docs, scores in _scored_matches(reader, queries, weight):
        s32 = scores.astype(np.float32)
        g = groups[docs]
        for grp in np.unique(g):
            sel = g == grp
            d, s = docs[sel], s32[sel]
            i = int(np.lexsort((d, -s))[0])
            cols["qid"].append(qid)
            cols["grp"].append(str(grp))
            cols["n"].append(int(sel.sum()))
            cols["head_doc"].append(int(d[i]) + doc_base)
            cols["head_score"].append(float(s[i]))
    return pa.table(
        {
            "qid": pa.array(cols["qid"], pa.int64()),
            "grp": pa.array(cols["grp"], pa.string()),
            "n": pa.array(cols["n"], pa.int64()),
            "head_doc": pa.array(cols["head_doc"], pa.int64()),
            "head_score": pa.array(cols["head_score"], pa.float64()),
        }
    )


def group_all(sf_dir: str) -> tuple[pa.Table, pa.Table]:
    """AllGroupsCollector + AllGroupHeadsCollector in one distributed
    pass.  Returns two tables shaped like the grouped family (qid,
    grp_rnk, grp, rnk, doc_id): ``all_groups`` rows carry the matching-doc
    count in doc_id (the group SET plus its size), ``all_group_heads``
    rows carry the global head docid; grp_rnk ranks groups by grp ASC."""
    idx = ensure_index(sf_dir)
    weight = _terms_weight(IndexSearcher(idx), {t for q in GROUPED_QUERIES for t in q})
    part = gather(  # bounded: segments x qids x groups
        segment_map(
            idx, _seg_group_all, queries=GROUPED_QUERIES, field=GROUP_FIELD, weight=weight
        )
    ).to_pandas()
    agg_n = part.groupby(["qid", "grp"], sort=True)["n"].sum().reset_index()
    heads = rank_rows(part, ["qid", "grp"], ["head_score", "head_doc"], [False, True], k=1)
    cols = ["qid", "grp_rnk", "grp", "rnk", "doc_id"]
    return tuple(
        pa.Table.from_pandas(
            rank_rows(t, ["qid"], ["grp"], [True], rnk="grp_rnk")
            .rename(columns={key: "doc_id"}).assign(rnk=0)[cols].reset_index(drop=True),
            preserve_index=False,
        )
        for t, key in ((agg_n, "n"), (heads, "head_doc"))
    )


def grouped_topk(sf_dir: str) -> pa.Table:
    """Top-N_GROUPS groups per query ranked by best hit (score desc, head
    doc asc), top-K_IN_GROUP docs within each group: (qid, grp_rnk, grp,
    rnk, doc_id).  Two-pass grouping collapsed into one distributed pass:
    per-segment per-group top-k partials -> Ray groupby reduce -> tiny
    driver group-ranking step (bounded by n_queries * n_groups * k)."""
    idx = ensure_index(sf_dir)
    weight = _terms_weight(IndexSearcher(idx), {t for q in GROUPED_QUERIES for t in q})
    ds = segment_map(
        idx,
        _seg_grouped_partials,
        queries=GROUPED_QUERIES,
        field=GROUP_FIELD,
        k=K_IN_GROUP,
        weight=weight,
    )

    def _reduce_group(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.sort_values(["score", "doc_id"], ascending=[False, True]).head(K_IN_GROUP)

    part = gather(
        ds.groupby(["qid", "grp"]).map_groups(_reduce_group, batch_format="pandas"),
        GROUP_ROWS_SCHEMA,
    ).to_pandas()
    return _group_heads_topk(part)


def _group_heads_topk(part: "pd.DataFrame") -> pa.Table:
    """The grouping families' final ranking over complete per-group rows
    (qid, grp, doc_id, score): groups ranked per qid by their head (best
    row by score desc, doc_id asc), the top N_GROUPS groups kept with
    their top K_IN_GROUP rows, as (qid, grp_rnk, grp, rnk, doc_id)."""
    order, asc = ["score", "doc_id"], [False, True]
    heads = rank_rows(part, ["qid", "grp"], order, asc, k=1)
    heads = rank_rows(heads, ["qid"], order, asc, k=N_GROUPS, rnk="grp_rnk")
    out = rank_rows(part, ["qid", "grp"], order, asc, k=K_IN_GROUP)
    out = out.merge(heads[["qid", "grp", "grp_rnk"]], on=["qid", "grp"], how="inner")
    out = out.sort_values(["qid", "grp_rnk", "rnk"])[["qid", "grp_rnk", "grp", "rnk", "doc_id"]]
    return pa.Table.from_pandas(out, schema=GROUPED_SCHEMA, preserve_index=False)


# highlighter (lucene/highlighter UnifiedHighlighter analogue): best
# passage per (query, top doc) = the fixed-width token window anchored at
# a match position maximizing (distinct query terms, total occurrences,
# earliest start).  Deviation documented: BreakIterator sentence passages
# are replaced by W-token windows so scoring stays integer-exact; offsets
# come from the POSITIONS index, not stored-field re-analysis
# (highlighter/uhighlight/FieldHighlighter.java passage formation,
# PassageScorer.java term weighting).
HIGHLIGHT_WINDOW = 8
HIGHLIGHT_K = 5


def _seg_highlight(reader, doc_base: int, hits: list, window: int) -> pa.Table:
    """Best passage of every (qid, doc_id, terms) hit inside this segment."""
    out = {"qid": [], "doc_id": [], "pstart": [], "n_hits": [], "n_uniq": []}
    for qid, doc_id, terms in hits:
        local = doc_id - doc_base
        if not 0 <= local < reader.max_doc:
            continue
        pos_term: list[tuple[np.ndarray, int]] = []
        for ti, t in enumerate(terms):
            tid = reader.term_id(t)
            if tid is None:
                continue
            docs_arr, _ = reader.decode_term_cached(tid)
            j = int(np.searchsorted(docs_arr, local))
            if j < len(docs_arr) and docs_arr[j] == local:
                pos_term.append((reader.term_positions(tid)[j], ti))
        if not pos_term:
            continue
        allp = np.sort(np.concatenate([p for p, _ in pos_term]))
        best = None
        for p in allp:
            hi = p + window
            n_hits = int(
                np.searchsorted(allp, hi, side="left")
                - np.searchsorted(allp, p, side="left")
            )
            n_uniq = sum(
                1
                for pp, _ in pos_term
                if np.searchsorted(pp, hi, side="left")
                > np.searchsorted(pp, p, side="left")
            )
            key = (-n_uniq, -n_hits, int(p))
            if best is None or key < best[0]:
                best = (key, int(p), n_hits, n_uniq)
        out["qid"].append(qid)
        out["doc_id"].append(doc_id)
        out["pstart"].append(best[1])
        out["n_hits"].append(best[2])
        out["n_uniq"].append(best[3])
    return pa.table({k: pa.array(v, pa.int64()) for k, v in out.items()})


def highlight_passages(sf_dir: str, k: int = HIGHLIGHT_K) -> pa.Table:
    """(qid, doc_id, pstart, n_hits, n_uniq): best passage for each of the
    query's top-k BM25 docs.  Search is the ordinary distributed machinery;
    highlighting fans out per segment over the (k*queries)-bounded doc
    list."""
    idx = ensure_index(sf_dir, index_options="positions")
    searcher = IndexSearcher(idx)
    hits = [
        (qid, doc, terms)
        for qid, terms in enumerate(DISJUNCTIONS)
        for doc, _s in searcher.search(bool_query(should=[TermQuery(t) for t in terms]), k)
    ]
    ds = segment_map(idx, _seg_highlight, hits=hits, window=HIGHLIGHT_WINDOW)
    return gather(ds).to_pandas().sort_values(["qid", "doc_id"]).reset_index(drop=True)


# query-time join (lucene/join JoinUtil.createJoinQuery, ScoreMode.Max):
# fromQuery matches aggregate a per-join-value max score; the to side
# matches every doc sharing the value, scored by that aggregate
JOIN_QUERIES = [
    ("spark",),
    ("join", "merge"),
    ("customer",),
    ("vector", "stream"),
]
JOIN_FIELD = "source"


# float32 from-scores convert exactly to integers on the 2^-40 dyadic grid
# (any f32 with magnitude >= 2^-16 has ulp >= 2^-39), making SUM and AVG
# order-independent — groupby combine order and DuckDB aggregation order
# cannot perturb the TOTAL/AVG score modes
JOIN_SCORE_SCALE = float(1 << 40)


JOIN_FROM_SCHEMA = _schema(
    qid=pa.int64(),
    val=pa.string(),
    max_s=pa.float64(),
    min_s=pa.float64(),
    sum_i=pa.int64(),
    cnt=pa.int64(),
)


def _seg_join_from(reader, doc_base: int, queries: list, field: str, weight) -> pa.Table:
    """Phase 1: per-segment per-(qid, join_value) from-score PARTIALS
    carrying every JoinUtil score mode at once: max/min of the float32
    scores plus the exact integer-surrogate sum and match count."""
    out = {k: [] for k in JOIN_FROM_SCHEMA.names}
    vals = reader.stored_column(field).to_numpy(zero_copy_only=False)
    for qid, docs, scores in _scored_matches(reader, queries, weight):
        s32 = scores.astype(np.float32)
        scaled = s32.astype(np.float64) * JOIN_SCORE_SCALE
        # unconditional round (ADVICE r3): scores below ~2^-17 have f32
        # ulp < 2^-40 and fall off the grid — they quantize with
        # <= 2^-41 rounding error instead of crashing the whole query
        # (ubiquitous terms on huge corpora produce such scores)
        s_int = np.round(scaled).astype(np.int64)
        v = vals[docs]
        for val in np.unique(v):
            m = v == val
            out["qid"].append(qid)
            out["val"].append(str(val))
            out["max_s"].append(float(s32[m].max()))
            out["min_s"].append(float(s32[m].min()))
            out["sum_i"].append(int(s_int[m].sum()))
            out["cnt"].append(int(m.sum()))
    return pa.table(out, schema=JOIN_FROM_SCHEMA)


JOIN_SCORE_MODES = ("max", "total", "avg", "min")


def join_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """JoinUtil analogue across ALL score modes (join/JoinUtil.java
    ScoreMode.Max/Total/Avg/Min): (mode, qid, rnk, doc_id) of to-side docs
    scored by the mode's aggregate of their join value's from-scores.
    Phase 1 partial-aggregates per segment — one pass carries every mode's
    partial — and reduces per (qid, value); phase 2 broadcasts the small
    value->score side and scans to-side segments for per-segment top-k.
    TOTAL/AVG use the exact 2^-40 integer-surrogate sum, so combine order
    can't perturb ranks; AVG's double division of the same ints is
    bit-identical in numpy and the DuckDB oracle."""
    from ray.data.aggregate import Max, Min, Sum

    idx = ensure_index(sf_dir)
    weight = _terms_weight(IndexSearcher(idx), {t for q in JOIN_QUERIES for t in q})
    part = gather(
        segment_map(idx, _seg_join_from, queries=JOIN_QUERIES, field=JOIN_FIELD, weight=weight)
        .groupby(["qid", "val"])
        .aggregate(
            Max("max_s", alias_name="max_s"),
            Min("min_s", alias_name="min_s"),
            Sum("sum_i", alias_name="sum_i"),
            Sum("cnt", alias_name="cnt"),
        ),
        JOIN_FROM_SCHEMA,
    ).to_pandas()
    # value->score maps are join-key-bounded (not corpus-bounded): ship once
    joined: dict[str, dict[int, dict[str, float]]] = {m: {} for m in JOIN_SCORE_MODES}
    for _, r in part.iterrows():
        qid = int(r["qid"])
        joined["max"].setdefault(qid, {})[r["val"]] = float(r["max_s"])
        joined["min"].setdefault(qid, {})[r["val"]] = float(r["min_s"])
        joined["total"].setdefault(qid, {})[r["val"]] = float(r["sum_i"])
        joined["avg"].setdefault(qid, {})[r["val"]] = float(r["sum_i"]) / float(r["cnt"])

    def _seg_to_side(reader, doc_base: int) -> pa.Table:
        out_mode, out_qid, out_doc, out_score = [], [], [], []
        vals = reader.stored_column(JOIN_FIELD).to_numpy(zero_copy_only=False)
        # factorize once: the python lookup walks UNIQUE join values
        # (key-bounded), the per-doc expansion is a numpy gather
        uniq, inv = np.unique(vals, return_inverse=True)
        for mode, jmap in joined.items():
            for qid, vmap in jmap.items():
                sc = np.array([vmap.get(u, np.nan) for u in uniq], dtype=np.float64)[inv]
                docs = np.nonzero(~np.isnan(sc))[0]
                docs = docs[_alive(reader, docs)]
                order = np.lexsort((docs, -sc[docs]))[:k]
                out_mode.extend([mode] * len(order))
                out_qid.extend([qid] * len(order))
                out_doc.extend((docs[order] + doc_base).tolist())
                out_score.extend(sc[docs[order]].tolist())
        return pa.table(
            {
                "mode": pa.array(out_mode, pa.string()),
                "qid": pa.array(out_qid, pa.int64()),
                "doc_id": pa.array(out_doc, pa.int64()),
                "score": pa.array(out_score, pa.float64()),
            }
        )

    cand = gather(segment_map(idx, _seg_to_side))
    return top_rows(cand, ["score", "doc_id"], [False, True], k, by=("mode", "qid"))


# --- index-time block join (lucene/join ToParent/ToChildBlockJoinQuery) --

# children per block: block key = (source, doc_id // BLOCK_BUCKET)
BLOCK_BUCKET = 16
# the ToChildBlockJoin arm's parent filter: blocks of these sources
BLOCK_CHILD_SOURCES = ("src3", "src12")
BLOCK_JOIN_MODES = ("max", "total", "avg", "min", "none")


def ensure_block_corpus(sf_dir: str) -> str:
    """Derive the BLOCK corpus: documents grouped into parent/child doc
    blocks keyed (source, doc_id // BLOCK_BUCKET) — children in doc_id
    order immediately followed by one synthesized textless parent row
    (doc_id=-1, parent=1).  Global order is (source, bucket) ascending
    with binary string collation, so block-index docids are deterministic
    and SQL-reproducible via one window cumsum.

    IndexWriter.addDocuments's never-split-a-block contract is realized
    structurally: one Ray task per source writes its own part file and
    cuts parquet row groups ONLY at block boundaries; plan_segments packs
    whole row groups, so every segment boundary is a block boundary.  At
    scale the block key doubles as the ingest partition key (blocks must
    arrive assembled — the same contract addDocuments imposes)."""
    import pyarrow.parquet as pq

    src_path = os.path.join(sf_dir, "documents.parquet")
    schema = _schema(
        doc_id=pa.int64(), text=pa.string(), lang=pa.string(), source=pa.string(),
        n_chars=pa.int64(), parent=pa.int64(),
    )

    def _write(src: str, path: str) -> None:
        import polars as pl

        df = (
            pl.from_arrow(pq.read_table(src_path, filters=[("source", "==", src)]))
            .with_columns((pl.col("doc_id") // BLOCK_BUCKET).alias("bucket"))
            .sort(["bucket", "doc_id"])
        )
        writer = pq.ParquetWriter(path, schema)
        pend: list[pa.Table] = []
        pend_rows = 0
        for (_bucket,), grp in df.group_by(["bucket"], maintain_order=True):
            child = grp.drop("bucket").with_columns(pl.lit(0, dtype=pl.Int64).alias("parent"))
            parent = pl.DataFrame(
                {"doc_id": [-1], "text": [""], "lang": [""], "source": [src], "n_chars": [0], "parent": [1]},
                schema=child.schema,
            )
            block = pl.concat([child, parent]).to_arrow().cast(schema)
            pend.append(block)
            pend_rows += block.num_rows
            # row groups cut ONLY here, at a block boundary
            if pend_rows >= 200:
                writer.write_table(pa.concat_tables(pend), row_group_size=pend_rows)
                pend, pend_rows = [], 0
        if pend:
            writer.write_table(pa.concat_tables(pend), row_group_size=pend_rows)
        writer.close()

    sources = sorted(pq.read_table(src_path, columns=["source"]).column("source").unique().to_pylist())
    return _derived_corpus(sf_dir, f"d{DOCS_PER_SEGMENT}-blocks", {s: s for s in sources}, _write)


def ensure_block_index(sf_dir: str) -> str:
    """Build the block-structured index over the derived block corpus."""
    from ..index.build import build_index

    src_dir = ensure_block_corpus(sf_dir)
    idx = index_dir_for(sf_dir) + "-blocks"
    if mf.latest_generation(idx) is None:
        build_index(
            src_dir,
            idx,
            analyzer="standard",
            docs_per_segment=DOCS_PER_SEGMENT,
            content_column="text",
            meta_columns=("doc_id", "lang", "source", "n_chars", "parent"),
            index_options="docs_freqs",
        )
    return idx


BLOCK_JOIN_SCHEMA = _schema(mode=pa.string(), qid=pa.int64(), doc_id=pa.int64(), jscore=pa.float64())


def _seg_block_join(
    reader, base: int, queries: list, weight, child_sources: tuple, k: int
) -> pa.Table:
    """Per-segment block-join partials.  Blocks never split segments, so a
    parent's child aggregate is COMPLETE within one segment; each mode
    emits its per-segment top-k parents and the driver only merges heads.

    ToParent modes (join/ToParentBlockJoinQuery.java ScoreMode): child
    disjunction scores aggregate per block parent (max/total/avg/min;
    none = matched parents at score 0, i.e. docid order).  ToChild
    (join/ToChildBlockJoinQuery.java): a constant-score parent filter
    (source IN ...) fans out to child docids at score 0."""
    from ..search.blockjoin import (
        check_join_index,
        children_of,
        parent_docids,
        to_parent_partials,
    )
    from ..search.query import scored_matches

    out = {c: [] for c in BLOCK_JOIN_SCHEMA.names}

    def emit(mode, qid, pids, jscores):
        order = np.lexsort((pids, -jscores))[:k]
        for i in order:
            out["mode"].append(mode)
            out["qid"].append(qid)
            out["doc_id"].append(int(pids[i]))
            out["jscore"].append(float(jscores[i]))

    check_join_index(reader, BLOCK_BUCKET)
    parents = parent_docids(reader)
    for qid, terms in enumerate(queries):
        docs, scores = scored_matches(_terms_query(terms), weight, reader, 1.0)
        if len(docs) == 0:
            continue
        pids, mx, mn, sum_i, cnt = to_parent_partials(docs, scores, parents)
        gids = pids + base
        emit("block_max", qid, gids, mx.astype(np.float64))
        emit("block_min", qid, gids, mn.astype(np.float64))
        emit("block_total", qid, gids, sum_i.astype(np.float64))
        emit("block_avg", qid, gids, sum_i / cnt)
        emit("block_none", qid, gids, np.zeros(len(gids)))
    src = reader.stored_column("source").to_numpy(zero_copy_only=False)
    matched = parents[np.isin(src[parents], np.asarray(child_sources))]
    kids = children_of(matched, parents)[:k]
    emit("block_children", 0, kids + base, np.zeros(len(kids)))
    # ToChildBlockJoinQuery with doScores=true: the PARENT's score
    # (here: the qid-0 ToParent-max aggregate) propagates to every
    # child (join/ToChildBlockJoinQuery.java parentScore passthrough)
    docs, scores = scored_matches(_terms_query(JOIN_QUERIES[0]), weight, reader, 1.0)
    if len(docs):
        pids, mx, _mn, _si, _c = to_parent_partials(docs, scores, parents)
        kids2 = children_of(pids, parents)
        # parent of child c = first parent docid > c
        pdoc = parents[np.searchsorted(parents, kids2)]
        sc = mx[np.searchsorted(pids, pdoc)].astype(np.float64)
        # per-segment partial top-k children by (parent score, docid)
        emit("block_child_scores", 0, kids2 + base, sc)
    return pa.table(out, schema=BLOCK_JOIN_SCHEMA)


def block_join_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """Block-join family: (mode, qid, rnk, doc_id) — doc_id is a BLOCK
    index docid (parent for the to_parent modes, child for the to_child
    arm).  One per-segment pass computes every mode's partial top-k; the
    driver merges only segment heads (bounded by segments x modes x k)."""
    idx = ensure_block_index(sf_dir)
    cand = segment_map(
        idx,
        _seg_block_join,
        queries=JOIN_QUERIES,
        weight=_terms_weight(IndexSearcher(idx), {t for q in JOIN_QUERIES for t in q}),
        child_sources=BLOCK_CHILD_SOURCES,
        k=k,
    )
    # an empty corpus has no blocks, so no segments: name the schema
    return top_rows(
        gather(cand, BLOCK_JOIN_SCHEMA), ["jscore", "doc_id"], [False, True], k, by=("mode", "qid")
    )


def distinct_values_groups(sf_dir: str) -> pa.Table:
    """DistinctValuesCollector analogue (reference grouping/
    DistinctValuesCollector.java): per GROUP_FIELD group of each query's
    matches, the count of DISTINCT ``lang`` values.  Per segment only the
    distinct (qid, grp, lang) TRIPLES leave the task (bounded by label
    cardinalities, never docs); the Ray groupby dedupes across segments
    and the driver counts the tiny result.  Family shape: (qid, grp_rnk
    by grp, grp, 0, doc_id = n_distinct) — counts ride the doc_id column
    exactly like the all_groups sizes."""
    schema = _schema(qid=pa.int64(), grp=pa.string(), val=pa.string())

    def _seg(r, doc_base: int) -> pa.Table:
        out = {c: [] for c in schema.names}
        grp_col = r.stored_column(GROUP_FIELD).to_numpy(zero_copy_only=False)
        lang_col = r.stored_column("lang").to_numpy(zero_copy_only=False)
        for qid, terms in enumerate(GROUPED_QUERIES):
            docs = np.unique(np.concatenate([_live_docs(r, t) for t in terms]))
            pairs = np.unique(
                np.char.add(
                    np.char.add(grp_col[docs].astype(str), "\x1f"),
                    lang_col[docs].astype(str),
                )
            )
            for pv in pairs:
                g, v = pv.split("\x1f")
                out["qid"].append(qid)
                out["grp"].append(g)
                out["val"].append(v)
        return pa.table(out, schema=schema)

    part = gather(
        segment_map(ensure_index(sf_dir), _seg).groupby(["qid", "grp", "val"]).count(), schema
    ).to_pandas()
    agg = (
        part.groupby(["qid", "grp"], sort=True)
        .size()
        .reset_index(name="n_distinct")
    )
    agg = rank_rows(agg, ["qid"], ["grp"], [True], rnk="grp_rnk")
    return pa.table(
        {
            "qid": pa.array(agg["qid"].to_numpy().astype(np.int64), pa.int64()),
            "grp_rnk": pa.array(agg["grp_rnk"].to_numpy().astype(np.int64), pa.int64()),
            "grp": pa.array(agg["grp"].tolist(), pa.string()),
            "rnk": pa.array(np.zeros(len(agg), np.int64), pa.int64()),
            "doc_id": pa.array(
                agg["n_distinct"].to_numpy().astype(np.int64), pa.int64()
            ),
        }
    )


def block_grouped_topk(sf_dir: str) -> pa.Table:
    """BlockGroupingCollector analogue (reference grouping/
    BlockGroupingCollector.java): the GROUP is the index-time doc block
    (children + their textless parent, IndexWriter.addDocuments
    contract).  Blocks never split segments, so every group is COMPLETE
    inside one segment: each segment emits its local top-N_GROUPS groups
    (ranked by best child score) with their top-K_IN_GROUP children, and
    the driver merge is bounded by segments x N x K — per-group state
    never crosses the exchange.  (qid, grp_rnk, grp, rnk, doc_id): grp =
    parent block docid (string, the family's group-key column), doc_id =
    child block-index docid."""
    from ..search.blockjoin import parent_docids
    from ..search.query import scored_matches

    idx = ensure_block_index(sf_dir)
    weight = _terms_weight(IndexSearcher(idx), {t for q in JOIN_QUERIES for t in q})

    def _seg(reader, base: int) -> pa.Table:
        out = {c: [] for c in GROUP_ROWS_SCHEMA.names}
        parents = parent_docids(reader)
        for qid, qterms in enumerate(JOIN_QUERIES):
            docs, scores = scored_matches(_terms_query(qterms), weight, reader, 1.0)
            if not len(docs):
                continue
            # the parent is the first parent docid ABOVE the child
            pdoc = parents[np.searchsorted(parents, docs)]
            s64 = scores.astype(np.float64)
            order = np.lexsort((docs, -s64, pdoc))
            pd_sorted = pdoc[order]
            grp_ids, first = np.unique(pd_sorted, return_index=True)
            # segment-local top-N groups by (best child score, grp)
            best = s64[order][first]
            gsel = np.lexsort((grp_ids, -best))[:N_GROUPS]
            bounds = np.append(first, len(order))
            for gi in gsel:
                rows = order[bounds[gi] : bounds[gi + 1]][:K_IN_GROUP]
                gid = int(grp_ids[gi]) + base
                for r in rows:
                    out["qid"].append(qid)
                    out["grp"].append(str(gid))
                    out["doc_id"].append(int(docs[r]) + base)
                    out["score"].append(float(scores[r]))
        return pa.table(out, schema=GROUP_ROWS_SCHEMA)

    # rows per group are already complete inside their segment
    return _group_heads_topk(gather(segment_map(idx, _seg), GROUP_ROWS_SCHEMA).to_pandas())


# (expression, lower, upper) — inclusive bounds, None = open (reference
# queries/function/FunctionRangeQuery.java defaults)
FUNCTION_RANGE_QUERIES = [
    ("ln(1 + n_chars) * sqrt(n_chars)", 40.0, 90.0),
    ("n_chars - doc_id", None, 0.0),
    ("max(n_chars, 300.0) + doc_id / 1000.0", 301.0, None),
]


def function_range_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """FunctionRangeQuery top-k (reference queries/function/
    FunctionRangeQuery.java): docs whose expression value sits in the
    range, SCORED BY THE VALUE — (qid, rnk, doc_id)."""
    from ..search.query import FunctionRangeQuery

    return hits_table(
        IndexSearcher(ensure_index(sf_dir)),
        [FunctionRangeQuery(expr, lo, hi) for expr, lo, hi in FUNCTION_RANGE_QUERIES],
        k,
    )


FUNCTION_SCORE_QUERIES = [
    ("spark",),
    ("join", "order"),
    ("window",),
    ("customer", "hash"),
]
FUNCTION_SCORE_FIELD = "n_chars"


def function_score_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """FunctionScoreQuery top-k: BM25 score boosted by ln(1 + n_chars)
    (queries/function boostByValue over a long-field DoubleValuesSource)."""
    from ..search.query import FunctionScoreQuery

    return hits_table(
        IndexSearcher(ensure_index(sf_dir)),
        [
            FunctionScoreQuery(_terms_query(terms), FUNCTION_SCORE_FIELD)
            for terms in FUNCTION_SCORE_QUERIES
        ],
        k,
    )


COVERING_QUERIES = [
    ("spark", "join", "order"),
    ("window", "batch"),
    ("the", "customer", "group", "query"),
    ("merge", "hash", "stream"),
]


def covering_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """CoveringQuery top-k (sandbox CoveringQuery.java): docs matching at
    least ``1 + n_chars % 3`` of the term clauses, scored by the sum of
    the matching clauses' BM25 scores (qid, rnk, doc_id)."""
    from ..search.query import CoveringQuery

    return hits_table(
        IndexSearcher(ensure_index(sf_dir)),
        [
            CoveringQuery(tuple(TermQuery(t) for t in terms), FUNCTION_SCORE_FIELD, 3)
            for terms in COVERING_QUERIES
        ],
        k,
    )


# FeatureField arms: one per reference FeatureFunction.  The feature is
# n_chars (a deterministic positive per-doc "static rank"); values stay
# well below 2^24 so the 9-bit-mantissa encode is integer-exact in the
# SQL oracle.  satu pivot=None exercises the SaturationFunction.rewrite
# (pivot from the index-wide average ENCODED freq).
FEATURE_ARMS = [
    ("linear", dict(function="linear", weight=0.5)),
    ("log", dict(function="log", weight=1.5, a=2.0)),
    ("satu", dict(function="satu", weight=2.0, pivot=None)),
    ("sigm", dict(function="sigm", weight=2.0, a=2.0, pivot=256.0)),
]
# LongDistanceFeatureQuery literals (document/LongDistanceFeatureQuery.java)
DISTANCE_FEATURE_ORIGIN = 300
DISTANCE_FEATURE_PIVOT = 500
DISTANCE_FEATURE_BOOST = 2.0


def feature_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """FeatureField top-k (core/document/FeatureField.java): the javadoc
    composition — text MUST clause + FeatureQuery SHOULD clause — so the
    final score is BM25 + feature(fn(quantized n_chars)).  One arm per
    feature function, (fn, qid, rnk, doc_id)."""
    from ..search.query import BoostQuery, DistanceFeatureQuery, FeatureQuery

    searcher = IndexSearcher(ensure_index(sf_dir))
    arms = [
        (fn_label, FeatureQuery(FUNCTION_SCORE_FIELD, **kwargs))
        for fn_label, kwargs in FEATURE_ARMS
    ]
    # LongDistanceFeatureQuery arm: recency/proximity boost as a SHOULD,
    # boost via BoostQuery (the reference composition)
    arms.append(
        (
            "distance",
            BoostQuery(
                DistanceFeatureQuery(
                    FUNCTION_SCORE_FIELD,
                    origin=DISTANCE_FEATURE_ORIGIN,
                    pivot=DISTANCE_FEATURE_PIVOT,
                ),
                DISTANCE_FEATURE_BOOST,
            ),
        )
    )
    return _keyed_concat(
        "fn",
        (
            (
                fn_label,
                hits_table(
                    searcher,
                    [
                        bool_query(must=[TermQuery(t) for t in terms], should=[feat])
                        for terms in FUNCTION_SCORE_QUERIES
                    ],
                    k,
                ),
            )
            for fn_label, feat in arms
        ),
    )


# (terms, boosts): boosts are exact binary fractions so the float32 freq
# sum in the engine equals the oracle's double sum bit-for-bit
SYNONYM_QUERIES = [
    (("join", "merge"), (1.0, 0.5)),
    (("spark", "stream"), (1.0, 1.0)),
    (("customer", "order"), (1.0, 0.25)),
    (("window", "batch"), (0.5, 1.0)),
    (("vector", "hash", "stream"), (1.0, 0.5, 0.25)),
]


def synonym_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """SynonymQuery blended-stats top-k (search/SynonymQuery.java): one
    pseudo-term with df=max, ttf=sum, per-doc freq=sum(boost*tf)."""
    from ..search.query import SynonymQuery

    return hits_table(
        IndexSearcher(ensure_index(sf_dir)),
        [SynonymQuery(terms, boosts) for terms, boosts in SYNONYM_QUERIES],
        k,
    )


def blended_topk(sf_dir: str, rewrite: str = "dismax", k: int = 10) -> pa.Table:
    """BlendedTermQuery top-k (search/BlendedTermQuery.java): member terms
    scored as separate clauses but with EQUALIZED stats (df = max df across
    the group), combined as dismax(tie=0.01) or a SHOULD sum.  Same term
    groups as the synonym arm so the two blending policies are directly
    comparable in one family."""
    from ..search.query import BlendedTermQuery

    return hits_table(
        IndexSearcher(ensure_index(sf_dir)),
        [BlendedTermQuery(terms, boosts, rewrite=rewrite) for terms, boosts in SYNONYM_QUERIES],
        k,
    )


PHRASES = [
    ["batch", "batch"],
    ["join", "order"],
    ["the", "customer"],
    ["window", "window", "window"],
    ["spark", "group", "query"],
]


def phrase_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """Exact-phrase BM25 top-k over a positions index: (qid, rnk, doc_id)."""
    from ..search.query import PhraseQuery

    return hits_table(
        IndexSearcher(ensure_index(sf_dir, index_options="positions")),
        [PhraseQuery(tuple(words)) for words in PHRASES],
        k,
    )


# PhraseWildcardQuery phrases: slots are single terms or multi-terms
# (prefix / wildcard); patterns chosen so every slot expands at both sf
PW_PHRASES = [
    (("prefix", "win"), ("term", "window")),
    (("term", "the"), ("prefix", "cust")),
    (("prefix", "jo"), ("prefix", "ord")),
    (("wildcard", "gr?up"), ("term", "query")),
]
PW_MAX_EXPANSIONS = 1000  # ample at bench sf: no truncation in the oracle arm


def _idf64(df: int, doc_count: int) -> float:
    """BM25 idf in float64, mirroring the oracle's ln expression."""
    import math

    return math.log(1.0 + (doc_count - df + 0.5) / (df + 0.5))


def _pw_expand_tids(reader, spec) -> list[int]:
    """PW slot spec -> term ids (shared expansion primitive)."""
    from ..search.multiterm import expand_pattern_tids

    return expand_pattern_tids(reader, spec[0], spec[1])


def phrase_wildcard_collect(
    searcher, slots, max_expansions: int, optimize_segments: bool = True
) -> tuple[float, list[tuple[tuple[str, ...], ...]], int] | None:
    """PhraseWildcardQuery's term-collection phase (reference sandbox/
    search/PhraseWildcardQuery.java rewrite:140-218): segments visited in
    increasing distinct-term-count order (SegmentTermsSizeComparator);
    single terms resolve first — early stop if absent everywhere, their
    stats are whole-index TermStates.build sums, and non-matching
    segments are PRUNED from the list (:399-404); multi-terms then expand
    sequentially with budget maxExpansionsForTerm = remainingExpansions
    // remainingMultiTerms (integer division, unused credits roll to the
    next multi-term, :189), each (segment, term) expansion costing one
    credit in segment order / lexicographic term order, iteration
    stopping when the term's budget is spent (:516-518); zero-expansion
    segments are pruned; per UNIQUE term the stats sum df/ttf over the
    segments actually visited (:508).  The SimScorer then receives ONE
    TermStatistics per collected term, so idf = the sum over every
    expansion (:253-259).

    Returns (idf_sum_f64, per-segment slot term sets aligned to
    searcher.readers — empty tuple marks a pruned / never-expanded
    segment, total_expansions), or None on early stop."""
    readers = searcher.readers
    cs = searcher.collection_stats
    order = sorted(range(len(readers)), key=lambda i: (readers[i].n_terms, i))
    seg_terms: list[list[tuple[str, ...] | None]] = [
        [None] * len(slots) for _ in readers
    ]
    idf_sum = 0.0
    multi_idx = [i for i, s in enumerate(slots) if s[0] != "term"]
    for pos, spec in enumerate(slots):
        if spec[0] != "term":
            continue
        term = spec[1]
        # whole-index stats regardless of pruning (TermStates.build :378)
        df = sum(r.term_stats(term)[0] for r in readers)
        if df == 0:
            return None  # earlyStopWeight: single term matches nowhere
        kept = []
        for si in order:
            if readers[si].term_stats(term)[0]:
                kept.append(si)
                seg_terms[si][pos] = (term,)
        if optimize_segments:  # segmentOptimizationEnabled (reference flag)
            order = kept  # prune segments the single term misses
        idf_sum += _idf64(df, cs.doc_count)
    remaining = max_expansions
    remaining_multi = len(multi_idx)
    total = 0
    for pos in multi_idx:
        budget = remaining // remaining_multi
        stats: dict[str, list[int]] = {}
        used = 0
        kept = []
        stop = False
        for si in order:
            if stop:
                kept.append(si)  # un-visited segments stay in the list
                continue
            r = readers[si]
            tids = _pw_expand_tids(r, slots[pos])[: budget - used]
            if tids:
                terms = []
                for tid in tids:
                    s = r.term_string(int(tid))
                    d, t = r.term_stats(s)
                    st = stats.setdefault(s, [0, 0])
                    st[0] += d
                    st[1] += t
                    terms.append(s)
                seg_terms[si][pos] = tuple(terms)
                used += len(tids)
                kept.append(si)
            elif not optimize_segments:
                # with segment optimization OFF, zero-expansion segments
                # stay visited so later multi-term slots still collect
                # their stats there (the oracle arm's corpus-wide df sums)
                kept.append(si)
            # else: zero-expansion segment pruned (segmentIterator.remove)
            stop = used == budget
        if used == 0:
            return None  # earlyStopWeight: multi-term expands nowhere
        order = kept
        remaining -= used
        remaining_multi -= 1
        total += used
        for df, _t in stats.values():
            if df:
                idf_sum += _idf64(df, cs.doc_count)
    out = [
        tuple(s if s is not None else () for s in per_seg)
        for per_seg in seg_terms
    ]
    return idf_sum, out, total


def phrase_wildcard_topk(
    sf_dir: str, k: int = 10, max_expansions: int = PW_MAX_EXPANSIONS
) -> pa.Table:
    """PhraseWildcardQuery BM25 top-k (reference sandbox/search/
    PhraseWildcardQuery.java): a phrase whose slots may be multi-terms;
    matching is MultiPhraseQuery's (slot i matches ANY collected
    expansion at start+i) restricted per segment to the terms the
    budgeted collection phase actually expanded there; scoring is the
    phrase similarity with idf summed over every collected term.  With
    an ample budget this equals the unbounded multi-phrase — asserted by
    tests/test_phrase_wildcard.py; the oracle mirrors that form."""
    from ..search.multiterm import multi_phrase_matches_segment
    from ..smallfloat import byte4_to_int

    idx = ensure_index(sf_dir, index_options="positions")
    searcher = IndexSearcher(idx)
    cs = searcher.collection_stats
    avgdl = cs.sum_total_term_freq * 1.0 / cs.doc_count if cs.doc_count else 1.0
    ql_lut = np.array([byte4_to_int(b) for b in range(256)], dtype=np.int64)
    ranked = []
    for qid, slots in enumerate(PW_PHRASES):
        # segment optimization OFF for the oracle arm: pruned segments
        # would shrink multi-term df sums segment-dependently, which no
        # corpus-level SQL can mirror (the reference exposes the same
        # setSegmentOptimizationEnabled(false) switch)
        got = phrase_wildcard_collect(
            searcher, slots, max_expansions, optimize_segments=False
        )
        if got is None:
            continue
        idf_sum, seg_slots, _ = got
        all_docs, all_scores = [], []
        for reader, seg, per_seg in zip(
            searcher.readers, searcher.manifest["segments"], seg_slots
        ):
            if any(len(s) == 0 for s in per_seg):
                continue  # a slot collected nothing here: cannot match
            d, pf = multi_phrase_matches_segment(reader, per_seg)
            m = _alive(reader, d)
            d, pf = d[m], pf[m]
            if not len(d):
                continue
            ql = ql_lut[reader.norms[d]]
            score = idf_sum * (
                1.0 - 1.0 / (1.0 + pf / (1.2 * (0.25 + 0.75 * ql / avgdl)))
            )
            all_docs.append(d + seg["doc_base"])
            all_scores.append(score)
        if not all_docs:
            continue
        dd = np.concatenate(all_docs)
        ss = np.concatenate(all_scores)
        ranked.append((qid, dd[np.lexsort((dd, -ss))[:k]]))
    return ranked_table(ranked)


def _seg_positional_matches(
    r, base: int, queries: list, kind: str, out_col: str | None
) -> pa.Table:
    """Per-segment positional matches for EVERY query of one pipeline —
    the segment_map kernel behind the distributed phrase / proximity
    entries; the reader is opened in the task, so the driver never holds
    segment state (VERDICT r2 "driver-serial pipelines" fix).  Output rows
    are global (qid, doc_id[, out_col]) matches only — never postings."""
    from ..search import multiterm as mt

    qids: list[int] = []
    docs: list[int] = []
    ns: list[int] = []
    for qid, payload in enumerate(queries):
        if kind == "phrase":
            d, n = mt.phrase_matches_segment(r, tuple(payload))
        elif kind == "multi_phrase":
            d, n = mt.multi_phrase_matches_segment(
                r, tuple(tuple(s) for s in payload)
            )
        elif kind == "sloppy":
            terms, slop = payload
            d, n = mt.sloppy_phrase_matches_segment(r, tuple(terms), slop)
        elif kind == "proximity":
            d, n = mt.proximity_matches_segment(r, tuple(payload[0]), payload[1])
        elif kind == "ordered_proximity":
            d, n = mt.ordered_proximity_matches_segment(
                r, tuple(payload[0]), payload[1]
            )
        elif kind == "containing_proximity":
            terms, w, f, neg = payload
            d, n = mt.containing_proximity_matches_segment(
                r, tuple(terms), w, f, negate=neg
            )
        elif kind == "or_proximity":
            d, n = mt.or_proximity_matches_segment(
                r, tuple(tuple(s) for s in payload[0]), payload[1]
            )
        elif kind == "surround":
            from ..search.surround import parse_surround, surround_matches_segment

            d, n = surround_matches_segment(r, parse_surround(payload))
        elif kind == "spans":
            from ..search.spans import span_matches_segment

            d, n = span_matches_segment(r, payload)
        elif kind == "automaton":
            from ..search.automaton import term_automaton_matches_segment

            d = term_automaton_matches_segment(r, payload)
            n = np.empty(0, np.int64)
        elif kind == "intervals_fn":
            from ..search.intervals import interval_matches_segment

            d, n = interval_matches_segment(r, payload)
        else:  # pragma: no cover
            raise ValueError(kind)
        qids.extend([qid] * len(d))
        docs.extend((np.asarray(d, np.int64) + base).tolist())
        if out_col is not None:
            ns.extend(np.asarray(n, np.int64).tolist())
    cols = {
        "qid": pa.array(qids, pa.int64()),
        "doc_id": pa.array(docs, pa.int64()),
    }
    if out_col is not None:
        cols[out_col] = pa.array(ns, pa.int64())
    return pa.table(cols)


def _positional_matches_ds(idx: str, queries: list, kind: str, out_col: str | None):
    """Dataset of positional matches: all queries evaluated against each
    open segment reader (amortizes the mmap/dict open across the query
    batch, the SegmentSearchWorker pattern without long-lived actors —
    match sets stream out, nothing gathers on the driver)."""
    return segment_map(
        idx, _seg_positional_matches, queries=queries, kind=kind, out_col=out_col
    )


def phrase_counts(sf_dir: str):
    """(qid, doc_id, phrase_freq) for every match of each phrase —
    distributed per segment (ExactPhraseMatcher semantics)."""
    idx = ensure_index(sf_dir, index_options="positions")
    return _positional_matches_ds(idx, PHRASES, "phrase", "phrase_freq")


RANGE_FILTERED_QUERIES = [
    ("spark", 100, 400),
    ("join", None, 300),
    ("merge", 250, None),
    ("window", 150, 350),
]


def range_filtered_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """BM25 top-k restricted by a NUMERIC range filter, run through BOTH
    filter executions (method, qid, rnk, doc_id): ``dv`` is the plain
    stored-column range (PointRangeQuery-analogue FILTER clause), and
    ``index_or_dv`` wraps the same predicate in IndexOrDocValuesQuery
    (search/IndexOrDocValuesQuery.java) — a BKD point-tree index side
    beside the doc-values side, chosen per segment by the reference's
    ``threshold = indexCost >>> 3`` lead-cost rule.  The two methods must
    return IDENTICAL hits (asserted here — a planner regression turns
    the driver row red); scores stay identical to the unfiltered query."""
    from ..index.points import build_point_index
    from ..search.query import IndexOrDocValuesQuery, PointBoxQuery, StoredFieldRange

    idx = ensure_index(sf_dir)
    build_point_index(idx, POINT_FIELDS)
    searcher = IndexSearcher(idx)
    dv = [StoredFieldRange("n_chars", lo, hi) for _, lo, hi in RANGE_FILTERED_QUERIES]
    filters = {
        "dv": dv,
        "index_or_dv": [
            IndexOrDocValuesQuery(
                index_query=PointBoxQuery(POINT_FIELDS, (lo, None), (hi, None)),
                dv_query=f,
            )
            for (_, lo, hi), f in zip(RANGE_FILTERED_QUERIES, dv)
        ],
    }
    hits = {
        method: [
            searcher.search(bool_query(must=[TermQuery(term)], filter=[f]), k)
            for (term, _, _), f in zip(RANGE_FILTERED_QUERIES, fs)
        ]
        for method, fs in filters.items()
    }
    for q, a, b in zip(RANGE_FILTERED_QUERIES, hits["dv"], hits["index_or_dv"]):
        assert a == b, ("IndexOrDocValuesQuery diverged from the dv filter", q)
    return _keyed_concat(
        "method",
        (
            (method, ranked_table((qid, [d for d, _s in h]) for qid, h in enumerate(hs)))
            for method, hs in hits.items()
        ),
        pa.large_string(),
    )


def knn_index_topk(
    sf_dir: str,
    query_ids: list[int],
    k: int = 10,
    filter_lang: str | None = None,
    seed_lang: str | None = None,
    patience: bool = False,
) -> pa.Table:
    """INDEX-INTEGRATED KnnFloatVectorQuery (query_id, rnk, neighbor_id):
    per-segment persisted HNSW graphs (index/vectors.py, the
    Lucene99HnswVectorsWriter shape) searched through the ordinary
    DistributedSearcher — each SegmentSearchWorker actor loads its
    segments' graphs once and beam-searches per query; the TopDocs merge
    keeps the global k.  Self-matches excluded (the query vectors are
    rows of the same table).  ``filter_lang`` runs the FILTERED kNN path
    (KnnFloatVectorQuery with a filter Query): only docs with that lang
    may be returned — HnswGraph.search documents the over-fetch +
    exact-fallback budget rule."""
    from ..index.vectors import build_vector_index
    from ..ops.ann import load_queries
    from ..search.query import KnnFloatVectorQuery, StoredFieldFilter
    from ..search.searcher import DistributedSearcher

    emb = os.path.join(sf_dir, "embeddings.parquet")
    idx = ensure_index(sf_dir)
    build_vector_index(idx, emb)
    searcher = DistributedSearcher(idx, num_workers=4)
    q_ids, q_mat, _ = load_queries(emb, query_ids)
    filt = StoredFieldFilter("lang", filter_lang) if filter_lang else None
    # SeededKnnVectorQuery path: the seed query's per-segment matches
    # become the HNSW entry points (SeededHnswGraphSearcher)
    seed = StoredFieldFilter("lang", seed_lang) if seed_lang else None
    # PatienceKnnVectorQuery default: max(7, 0.3*k)
    pat = max(7, int(0.3 * (k + 1))) if patience else None
    ranked = []
    for j, qid in enumerate(q_ids):
        hits = searcher.search(
            KnnFloatVectorQuery(
                "embedding", tuple(map(float, q_mat[j])), k + 1,
                filter=filt, seed=seed, patience=pat,
            ),
            k + 1,
        )
        ranked.append((int(qid), [d for d, _s in hits if d != int(qid)][:k]))
    return ranked_table(ranked).rename_columns(["query_id", "rnk", "neighbor_id"])


# classic query-parser strings exercised end-to-end (grouping, AND/OR/NOT,
# +/- modifiers, ^boosts, prefix + inclusive term range); every construct
# here is SQL-expressible so the oracle can replicate scoring exactly
PARSED_QUERIES = [
    "(spark OR join) AND merge",
    "spark AND NOT join",
    "+window -merge scan",
    "spark^2 OR join^0.5",
    "wind* AND [scan TO spark]",
    # field scoping (QueryParserBase field handling): default-field scope +
    # a stored-metadata filter, and a field-scoped boosted sloppy
    # phrase-in-clause (r3 verdict item #10)
    "text:spark AND lang:en",
    'text:"spark join"~1^2 OR merge',
    # grouped field scope (classic ``field:(a OR b)`` syntax): the scope
    # applies to every atom in the group; filters are rank-neutral
    "lang:(en OR fr) AND spark",
]

# SimpleQueryParser strings (queryparser/simple) run through parse_simple
# with default operator MUST; "spark|join merge" builds the same tree as
# classic q0 "(spark OR join) AND merge" via the right-to-left state
# machine, so the oracle SQL is shared shape-for-shape
SIMPLE_PARSED_QUERIES = ["spark|join merge"]

# StandardQueryParser interval clauses (flexible-parser fn: syntax)
# parsed by the SAME classic grammar extended with fn: atoms; scored by
# IntervalQuery's saturation function (a MUST metadata filter scores
# the constant 1, shifting every candidate equally — rank-neutral)
FN_PARSED_QUERIES = [
    "fn:maxgaps(1 fn:ordered(the customer))^2",
    "lang:en AND fn:ordered(join order)",
]

# PrecedenceQueryParser strings (queryparser/flexible/precedence): AND
# binds tighter than OR, so these parse to different trees than classic
# (classic's addClause would flatten q14 to +spark +join +merge +scan)
PRECEDENCE_PARSED_QUERIES = [
    "spark AND join OR merge AND scan",
    "spark OR NOT join AND merge",
    "window AND NOT merge OR scan",
]

# XML query syntax (queryparser/xml/CoreParser.java) run through
# parse_xml; each document builds the SAME tree as a classic string
# above (asserted at parse time), so the oracle SQL is shared
# shape-for-shape: q9 == q0, q10 == q3 (boost attributes), q11 == q4
# (UserQuery delegation to the classic parser)
XML_PARSED_QUERIES = [
    (
        """<BooleanQuery>
  <Clause occurs="must"><BooleanQuery>
    <Clause occurs="should"><TermQuery>spark</TermQuery></Clause>
    <Clause occurs="should"><TermQuery>join</TermQuery></Clause>
  </BooleanQuery></Clause>
  <Clause occurs="must"><TermQuery>merge</TermQuery></Clause>
</BooleanQuery>""",
        "(spark OR join) AND merge",
    ),
    (
        """<BooleanQuery>
  <Clause occurs="should"><TermQuery boost="2">spark</TermQuery></Clause>
  <Clause occurs="should"><TermQuery boost="0.5">join</TermQuery></Clause>
</BooleanQuery>""",
        "spark^2 OR join^0.5",
    ),
    ("<UserQuery>wind* AND [scan TO spark]</UserQuery>", "wind* AND [scan TO spark]"),
]


def parsed_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """BM25 top-k for CLASSIC-parsed query strings (qid, rnk, doc_id):
    each string runs through parse_classic (reference
    queryparser/classic/QueryParser.jj semantics — addClause conjunction
    promotion, boosts as BoostQuery, constant-score multi-term atoms) and
    then the ordinary distributed search path.  The tail qids are the
    SimpleQueryParser and XML (CoreParser) arms; each XML document is
    asserted to build the SAME tree as its classic twin, so a parser
    divergence turns the driver row red."""
    from ..analysis.analyzers import make_analyzer
    from ..search.parser import parse_classic, parse_simple
    from ..search.searcher import DistributedSearcher
    from ..search.xmlparser import parse_xml

    # positions index: the phrase-in-clause strings need them (TermQuery
    # scoring is identical on a positions index)
    idx = ensure_index(sf_dir, index_options="positions")
    searcher = DistributedSearcher(idx, num_workers=4)
    analyzer = make_analyzer("standard")
    parses = [
        (s, parse_classic(s, analyzer, stored_fields=("lang", "source")))
        for s in PARSED_QUERIES
    ] + [
        (s, parse_simple(s, analyzer, default_operator="MUST"))
        for s in SIMPLE_PARSED_QUERIES
    ]
    for xml, classic_twin in XML_PARSED_QUERIES:
        q = parse_xml(xml, analyzer, stored_fields=("lang", "source"))
        assert q == parse_classic(
            classic_twin, analyzer, stored_fields=("lang", "source")
        ), ("XML parse diverged from its classic twin", classic_twin)
        parses.append((xml, q))
    # flexible-parser interval clauses (fn:) — qids continue after XML
    parses += [
        (s, parse_classic(s, analyzer, stored_fields=("lang", "source")))
        for s in FN_PARSED_QUERIES
    ]
    # PrecedenceQueryParser arms (AND > OR operator precedence)
    from ..search.parser import parse_precedence

    parses += [
        (s, parse_precedence(s, analyzer, stored_fields=("lang", "source")))
        for s in PRECEDENCE_PARSED_QUERIES
    ]
    return hits_table(searcher, [q for _s, q in parses], k)


POINT_FIELDS = ("n_chars", "doc_id")
# (term, n_chars_lo, n_chars_hi, doc_id_lo, doc_id_hi) — [lo, hi) per dim
POINT_BOX_QUERIES = [
    ("spark", 100, 400, None, 400),
    ("join", None, 300, 100, None),
    ("merge", 250, None, None, 450),
    ("window", 150, 350, 50, 480),
]


# --- indexed shapes (document/LatLonShape.java + Tessellator.java) ---------
# each doc carries a deterministic rectangle synthesized from its stored
# (doc_id, n_chars); docs with doc_id % SHAPE_MOD == 0 carry NO shape (they
# exercise the has-a-shape precondition of DISJOINT).  The engine runs the
# full triangle path (ear-clip tessellation -> per-segment 4-dim bbox BKD ->
# exact SAT / point-in-triangle tests); the rectangle synthesis keeps the
# oracle expressible as interval algebra, and tests/test_shapes.py covers
# non-convex polygons against scalar brute force.
SHAPE_MOD = 23
# (qxlo, qxhi, qylo, qyhi) — boundary-INCLUSIVE boxes, ShapeField semantics
SHAPE_BOX_QUERIES = [
    (100, 400, 150, 450),
    (0, 60, 0, 60),
    (300, 1199, 200, 1099),
    (700, 707, 800, 803),
]
SHAPE_POINT_QUERIES = [(120, 133), (555, 444), (901, 1002), (50, 1050)]


def synth_rect_shapes(reader) -> list:
    """One rectangle per doc from stored fields (None = no shape)."""
    ids = (
        reader.stored_column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    )
    nch = (
        reader.stored_column("n_chars")
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    x0 = (ids * 37) % 1200
    y0 = (ids * 91 + nch) % 1100
    x1 = x0 + 8 + ids % 73
    y1 = y0 + 8 + nch % 61
    return [
        None
        if ids[i] % SHAPE_MOD == 0
        else (
            [int(x0[i]), int(x1[i]), int(x1[i]), int(x0[i])],
            [int(y0[i]), int(y0[i]), int(y1[i]), int(y1[i])],
        )
        for i in range(len(ids))
    ]


def point_box_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """(family, qid, rnk, doc_id, n_match) — the point/shape BOX family.

    family='box': BM25 top-k restricted by a 2-DIM point BOX filter:
    n_chars x doc_id boxes answered from the per-segment BKD-style point
    tree (util/bkd/BKDReader.intersect pruning: fully-inside subtrees
    contribute contiguous docid slices with zero comparisons), composed as
    a FILTER clause so BM25 scores are untouched.  ``n_match`` is the
    box-filter-alone match count — the Weight#count(LeafReaderContext)
    fast path PointRangeQuery exposes (search/PointRangeQuery.java), here
    a per-segment tree count summed across segments.

    family='shape_intersects' / 'shape_within' / 'shape_disjoint' /
    'shape_contains_pt': indexed-shape relations (document/LatLonShape.java
    QueryRelation semantics) over per-doc tessellated rectangles — first
    ``k`` matching doc_ids ascending, ``n_match`` = total matches.  Each
    segment contributes a bounded partial (local top-k + local count); the
    global merge is tiny.  Trees and triangle tables are persisted
    per-segment artifacts (build once, resumable); query fan-out is a
    segment_map over the segment list."""
    from ..index.points import PointTree, build_point_index, point_file
    from ..index.shapes import ShapeReader, build_shape_index
    from ..search.query import PointBoxQuery
    from ..search.searcher import DistributedSearcher

    idx = ensure_index(sf_dir)
    build_point_index(idx, POINT_FIELDS)
    build_shape_index(idx, "rect", synth_rect_shapes)

    box = hits_table(
        DistributedSearcher(idx, num_workers=4),
        [
            bool_query(
                must=[TermQuery(term)],
                filter=[PointBoxQuery(POINT_FIELDS, (clo, dlo), (chi, dhi))],
            )
            for term, clo, chi, dlo, dhi in POINT_BOX_QUERIES
        ],
        k,
    )

    # per-segment bounded partials: (family, qid, doc_id, cnt) where
    # doc_id=-1 rows carry the segment-local count and doc_id>=0 rows are
    # the segment-local ascending top-k
    def _seg(reader, doc_base: int) -> pa.Table:
        out = {"family": [], "qid": [], "doc_id": [], "cnt": []}

        def emit(family, qid, ids):
            out["family"].append(family)
            out["qid"].append(qid)
            out["doc_id"].append(-1)
            out["cnt"].append(len(ids))
            for d in ids[:k]:
                out["family"].append(family)
                out["qid"].append(qid)
                out["doc_id"].append(int(d))
                out["cnt"].append(0)

        tree = PointTree.load(point_file(reader.src_dir, "_".join(POINT_FIELDS)))
        for qid, (_t, clo, chi, dlo, dhi) in enumerate(POINT_BOX_QUERIES):
            got, _ = tree.intersect((clo, dlo), (chi, dhi))
            emit("box", qid, got + doc_base)
        sr = ShapeReader(reader.src_dir, "rect")
        ids = reader.stored_column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        for qid, (qxlo, qxhi, qylo, qyhi) in enumerate(SHAPE_BOX_QUERIES):
            for rel in ("intersects", "within", "disjoint"):
                local = sr.query_box(qxlo, qxhi, qylo, qyhi, rel)
                emit(f"shape_{rel}", qid, np.sort(ids[local]))
        for qid, (px, py) in enumerate(SHAPE_POINT_QUERIES):
            local = sr.query_point(px, py)
            emit("shape_contains_pt", qid, np.sort(ids[local]))
        return pa.table(
            out,
            schema=_schema(family=pa.string(), qid=pa.int64(), doc_id=pa.int64(), cnt=pa.int64()),
        )

    part = gather(segment_map(idx, _seg))
    counts = part.to_pandas().query("doc_id < 0").groupby(["family", "qid"])["cnt"].sum()
    # box ranks come from the BM25 search, shape ranks from the docid
    # order; n_match is the tree count either way
    shapes = part.filter(
        pc.and_(pc.greater_equal(part["doc_id"], 0), pc.not_equal(part["family"], "box"))
    )
    tbl = pa.concat_tables(
        [
            _keyed_concat("family", [("box", box)]),
            top_rows(shapes, ["doc_id"], [True], k, by=("family", "qid")),
        ]
    )
    n_match = [
        int(counts.get((f, q), 0))
        for f, q in zip(tbl["family"].to_pylist(), tbl["qid"].to_pylist())
    ]
    tbl = tbl.append_column("n_match", pa.array(n_match, pa.int64()))
    return tbl.sort_by([("family", "ascending"), ("qid", "ascending"), ("rnk", "ascending")])


# point distance queries (document/LatLonPointDistanceQuery analogue over
# the 2-dim BKD tree): center (n_chars, doc_id), squared radius — integer
# math end to end, results sorted by distance
POINT_DISTANCE_QUERIES = [
    (300, 250, 10000),
    (100, 50, 40000),
    (500, 400, 22500),
    (200, 0, 62500),
]


# LatLonPoint.newDistanceQuery analogue (document/LatLonPointDistance
# Query.java): filter + rank on the MONOTONE haversine SORT KEY
# (SloppyMath.haversinSortKey — the reference itself defers the asin to
# presentation time), because asin is the one libm call DuckDB and numpy
# disagree on by 1 ulp.  True libm sin/cos replace SloppyMath's table
# approximation (documented deviation).  The radius converts to a sort-key
# threshold ONCE in Python (sin^2(r / 2R_e)) and the same double literal
# feeds engine and oracle.
GEO_TO_RAD = float(np.pi / 180.0)
GEO_EARTH_R = 6371008.7714  # SloppyMath TO_METERS mean earth radius
GEO_KEY_SCALE = 4503599627370496.0  # 2^52: sort-key -> int64 grid
GEO_DISTANCE_QUERIES = [
    # (qlat, qlon, radius_meters) — centers sit ON the doc-id coordinate
    # lattice (the coords of docs 123 / 321 / 77 / 678 at every sf), so
    # neighbouring lattice docs (~60 km apart) fall inside each radius;
    # q3's center hugs the dateline (its cap box wraps east)
    (-44.49, -114.81, 500_000.0),
    (28.77, -9.87, 1_000_000.0),
    (-61.51, -139.19, 2_000_000.0),
    (-19.14, 179.9, 700_000.0),
]


def geo_sortkey_threshold(radius_m: float) -> float:
    import math

    return math.sin(radius_m / (2.0 * GEO_EARTH_R)) ** 2


def _geo_sortkey(lat, lon, qlat: float, qlon: float):
    """Vectorized haversine sort key, operation order mirrored verbatim
    by the SQL oracle expression (sin/cos proved bit-identical between
    numpy and DuckDB on this libm; asin deliberately avoided)."""
    sdphi = np.sin((qlat - lat) * GEO_TO_RAD * 0.5)
    sdlam = np.sin((qlon - lon) * GEO_TO_RAD * 0.5)
    return sdphi * sdphi + np.cos(lat * GEO_TO_RAD) * np.cos(
        qlat * GEO_TO_RAD
    ) * sdlam * sdlam


def _geo_cap_boxes(qlat: float, qlon: float, radius_m: float):
    """Encoded SUPERSET bounding boxes for the spherical cap (the
    reference's LatLonPointDistanceQuery also over-approximates with a
    box and verifies exactly): generous 110km/degree margins, pole caps
    widen to the full longitude band, dateline wrap splits in two.
    Returns [(lat_lo, lat_hi, lon_lo, lon_hi)] encoded int bounds,
    intersect-style [lo, hi+1)."""
    import math

    dlat = radius_m / 110000.0  # <= real meters/degree: degree superset
    lat_min, lat_max = max(-90.0, qlat - dlat), min(90.0, qlat + dlat)
    band = min(89.999, max(abs(lat_min), abs(lat_max)))
    min_cos = math.cos(band * GEO_TO_RAD)
    dlon = dlat / max(min_cos, 1e-9)
    enc_lat = lambda v: math.floor(v / 90.0 * 2147483648.0)  # noqa: E731
    enc_lon = lambda v: math.floor(v / 180.0 * 2147483648.0)  # noqa: E731
    la0, la1 = enc_lat(lat_min) - 1, enc_lat(lat_max) + 1
    if lat_min <= -89.999 or lat_max >= 89.999 or dlon >= 180.0:
        return [(la0, la1, enc_lon(-180.0) - 1, enc_lon(180.0) + 1)]
    lon_min, lon_max = qlon - dlon, qlon + dlon
    if lon_min < -180.0:  # wraps west
        return [
            (la0, la1, enc_lon(-180.0) - 1, enc_lon(lon_max) + 1),
            (la0, la1, enc_lon(lon_min + 360.0) - 1, enc_lon(180.0) + 1),
        ]
    if lon_max > 180.0:  # wraps east
        return [
            (la0, la1, enc_lon(lon_min) - 1, enc_lon(180.0) + 1),
            (la0, la1, enc_lon(-180.0) - 1, enc_lon(lon_max - 360.0) + 1),
        ]
    return [(la0, la1, enc_lon(lon_min) - 1, enc_lon(lon_max) + 1)]


def geo_distance_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """(qid, rnk, doc_id, dist2) nearest-first inside each haversine
    radius; dist2 = floor(sortkey * 2^52) (monotone integer surrogate so
    the family schema stays int64).  Per segment: geo-tree box candidates
    -> exact vectorized sort-key verify -> bounded partial top-k."""
    from ..index.points import PointTree, build_point_index_fn, point_file

    idx = ensure_index(sf_dir)
    build_point_index_fn(idx, "geo", _geo_values)
    thresholds = [geo_sortkey_threshold(r) for _, _, r in GEO_DISTANCE_QUERIES]

    def _seg(reader, doc_base: int) -> pa.Table:
        out = {"qid": [], "doc_id": [], "dist2": []}
        tree = PointTree.load(point_file(reader.src_dir, "geo"))
        gids_col = reader.stored_column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        for qid, (qlat, qlon, radius) in enumerate(GEO_DISTANCE_QUERIES):
            cand_parts = [
                tree.intersect((b[0], b[2]), (b[1] + 1, b[3] + 1))[0]
                for b in _geo_cap_boxes(qlat, qlon, radius)
            ]
            cand = np.unique(np.concatenate(cand_parts))
            if not len(cand):
                continue
            gids = gids_col[cand]
            lat = ((gids * 37) % 18000) / 100.0 - 90.0
            lon = ((gids * 53) % 36000) / 100.0 - 180.0
            sk = _geo_sortkey(lat, lon, qlat, qlon)
            keep = sk <= thresholds[qid]
            gids, sk = gids[keep], sk[keep]
            d2 = np.floor(sk * GEO_KEY_SCALE).astype(np.int64)
            if len(gids) > k:
                order = np.lexsort((gids, d2))[:k]
                gids, d2 = gids[order], d2[order]
            out["qid"].extend([qid] * len(gids))
            out["doc_id"].extend(gids.tolist())
            out["dist2"].extend(d2.tolist())
        return pa.table({c: pa.array(out[c], pa.int64()) for c in out})

    cand = gather(segment_map(idx, _seg))
    return top_rows(cand, ["dist2", "doc_id"], [True, True], k, cols=("doc_id", "dist2"))


def point_distance_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """(family, qid, rnk, doc_id, dist2) — the point-distance FAMILY:

    - family='radius': nearest docs INSIDE each radius, by the BKD
      distance traversal (cells skipped when their closest corner is
      beyond r, bulk-taken when their farthest corner is inside).
    - family='nearest': true k-NN with NO radius — best-first cell
      traversal (document/NearestNeighbor.java behind
      LatLonPointPrototypeQueries.nearest; PointTree.nearest), per
      segment a partial (dist², docid) top-k, global merge of ≤
      k·segments candidates."""
    from ..index.points import PointTree, build_point_index, point_file

    idx = ensure_index(sf_dir)
    build_point_index(idx, POINT_FIELDS)

    def _seg(reader, base: int) -> pa.Table:
        out = {"family": [], "qid": [], "doc_id": [], "dist2": []}

        def emit(family, qid, docs, d2):
            # per-segment partial top-k by (dist, docid)
            if len(docs) > k:
                order = np.lexsort((docs, d2))[:k]
                docs, d2 = docs[order], d2[order]
            out["family"].extend([family] * len(docs))
            out["qid"].extend([qid] * len(docs))
            out["doc_id"].extend((docs + base).tolist())
            out["dist2"].extend(d2.tolist())

        tree = PointTree.load(point_file(reader.src_dir, "_".join(POINT_FIELDS)))
        for qid, (cx, cy, r2) in enumerate(POINT_DISTANCE_QUERIES):
            docs, d2, _stats = tree.intersect_distance((cx, cy), r2)
            emit("radius", qid, docs, d2)
            ndocs, nd2, _nstats = tree.nearest((cx, cy), k)
            emit("nearest", qid, ndocs, nd2)
        return pa.table(
            out,
            schema=_schema(family=pa.string(), qid=pa.int64(), doc_id=pa.int64(), dist2=pa.int64()),
        )

    cand = gather(segment_map(idx, _seg))
    return top_rows(
        cand, ["dist2", "doc_id"], [True, True], k, by=("family", "qid"), cols=("doc_id", "dist2")
    )


FILTERED_QUERIES = [
    ("spark", "lang", "en"),
    ("join", "lang", "de"),
    ("merge", "lang", "zh"),
    ("query", "source", "src3"),
    ("window", "source", "src7"),
]


def filtered_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """BM25 top-k restricted by a stored-metadata FILTER clause
    (qid, rnk, doc_id): scores are identical to the unfiltered query
    (filters never contribute to BM25 — BooleanWeight semantics), ranking
    runs among docs whose ``lang``/``source`` matches."""
    from ..search.query import StoredFieldFilter

    return hits_table(
        IndexSearcher(ensure_index(sf_dir)),
        [
            bool_query(must=[TermQuery(term)], filter=[StoredFieldFilter(field, value)])
            for term, field, value in FILTERED_QUERIES
        ],
        k,
    )


MULTIFIELD_QUERIES = [
    ("spark", "en"),
    ("join", "fr"),
    ("merge", "zh"),
    ("query", "es"),
    ("window", "de"),
]


def ensure_multifield_index(sf_dir: str) -> str:
    """text (standard analyzer) + lang (keyword analyzer) sub-indexes over
    documents.parquet, one shared docid space (index/multifield.py)."""
    from ..index.multifield import FieldSpec, build_multi_field_index

    idx = index_dir_for(sf_dir) + "-mf"
    src = os.path.join(sf_dir, "documents.parquet")
    if any(
        mf.latest_generation(os.path.join(idx, f)) is None for f in ("text", "lang")
    ):
        build_multi_field_index(
            src,
            idx,
            [
                FieldSpec("text", "text", "standard"),
                FieldSpec("lang", "lang", "keyword"),
            ],
            docs_per_segment=DOCS_PER_SEGMENT,
        )
    return idx


def _multifield_clauses() -> list:
    """MULTIFIELD_QUERIES as (text MUST, lang MUST) clause lists."""
    from ..index.multifield import FieldedClause

    return [
        [
            FieldedClause("text", TermQuery(term), "MUST"),
            FieldedClause("lang", TermQuery(lang), "MUST"),
        ]
        for term, lang in MULTIFIELD_QUERIES
    ]


def multifield_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """Cross-field conjunction top-k (qid, rnk, doc_id): score =
    BM25_text(term) + BM25_lang(value), each clause with ITS field's
    statistics (FieldInfos per-field stats semantics)."""
    from ..index.multifield import MultiFieldSearcher

    return hits_table(MultiFieldSearcher(ensure_multifield_index(sf_dir)), _multifield_clauses(), k)


def multifield_perfield_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """PerFieldSimilarityWrapper arm (reference similarities/
    PerFieldSimilarityWrapper.java): the SAME cross-field conjunction as
    multifield_topk, but the text field scores with ClassicSimilarity
    while the lang field keeps BM25 — each clause through ITS field's
    similarity AND stats."""
    from ..index.multifield import MultiFieldSearcher
    from ..search.similarities import ClassicSimilarity, PerFieldSimilarityWrapper

    ms = MultiFieldSearcher(
        ensure_multifield_index(sf_dir),
        similarity=PerFieldSimilarityWrapper(
            default=None, per_field={"text": ClassicSimilarity()}
        ),
    )
    return hits_table(ms, _multifield_clauses(), k)


MULTIFIELD_PARSE_QUERIES = [
    "spark window",
    "join customer",
    "title:group query",
    "batch merge stream",
]
TITLE_BOOST = 2.0  # exact binary fraction: engine f32*2.0 == oracle double


def multifield_parsed_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """MultiFieldQueryParser top-k over the text+title index (qid, rnk,
    doc_id): unqualified terms expand SHOULD across both fields with the
    title boost, ``title:`` pins a clause; every clause scores with ITS
    field's statistics."""
    from ..index.multifield import MultiFieldSearcher, parse_multifield

    return hits_table(
        MultiFieldSearcher(ensure_combined_index(sf_dir)),
        [
            parse_multifield(qs, ("text", "title"), {"title": TITLE_BOOST})
            for qs in MULTIFIELD_PARSE_QUERIES
        ],
        k,
    )


def classic_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """TF-IDF (ClassicSimilarity) top-k per query term: (qid, rnk, doc_id).
    Same index, pluggable similarity — the SimScorer seam (SURVEY §2.9)."""
    from ..search.similarities import ClassicSimilarity

    return _sim_topk(sf_dir, ClassicSimilarity(), k)


def _sim_topk(sf_dir: str, sim, k: int, **search_kw) -> pa.Table:
    return hits_table(
        IndexSearcher(ensure_index(sf_dir), similarity=sim),
        [TermQuery(t) for t in QUERY_TERMS],
        k,
        **search_kw,
    )


def similarity_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """(sim, qid, rnk, doc_id) across the pluggable similarities — Classic
    TF-IDF, Boolean, LMDirichlet, LMJelinekMercer, DFR I(n)L2, IB LL/DF/H2
    and AxiomaticF2EXP — over the SAME index: the SimScorer seam (SURVEY
    §2.9; reference similarities/ module)."""
    from ..search.similarities import (
        AxiomaticF1EXP,
        AxiomaticF1LOG,
        AxiomaticF2EXP,
        AxiomaticF2LOG,
        AxiomaticF3EXP,
        AxiomaticF3LOG,
        BooleanSimilarity,
        ClassicSimilarity,
        DFISimilarity,
        DFRSimilarity,
        IBSimilarity,
        IndriDirichletSimilarity,
        LegacyBM25Similarity,
        LMDirichletSimilarity,
        LMJelinekMercerSimilarity,
        RawTFSimilarity,
        SweetSpotSimilarity,
    )

    arms = []
    for name, sim in (
        ("classic", ClassicSimilarity()),
        ("boolean", BooleanSimilarity()),
        ("lmdirichlet", LMDirichletSimilarity()),
        ("lmjm", LMJelinekMercerSimilarity(lam=0.1)),
        ("dfr_inl2", DFRSimilarity()),
        ("ib_ll", IBSimilarity()),
        # the component-composed DFR/IB space (round 5): every remaining
        # reference component appears in at least one arm — basic models
        # G/IF/Ine, after-effect B, normalizations H1/H3/Z, distribution
        # SPL, lambda TTF (BasicModel*.java, AfterEffectB.java,
        # Normalization{H1,H3,Z}.java, DistributionSPL.java, LambdaTTF.java)
        ("dfr_gb1", DFRSimilarity("g", "b", "h1")),
        ("dfr_ifb3", DFRSimilarity("if", "b", "h3")),
        ("dfr_inez", DFRSimilarity("ine", "l", "z")),
        ("ib_spl_ttf", IBSimilarity("spl", "ttf", "h2")),
        ("ax_f2exp", AxiomaticF2EXP()),
        # the remaining four Axiomatic arms (reference defaults s=0.25,
        # k=0.35, queryLen=1; AxiomaticF1EXP/F1LOG/F2LOG/F3EXP/F3LOG.java)
        ("ax_f1exp", AxiomaticF1EXP()),
        ("ax_f1log", AxiomaticF1LOG()),
        ("ax_f2log", AxiomaticF2LOG()),
        ("ax_f3exp", AxiomaticF3EXP()),
        ("ax_f3log", AxiomaticF3LOG()),
        ("dfi_std", DFISimilarity("standardized")),
        # the other two Independence measures + the raw-tf building block
        ("dfi_chisq", DFISimilarity("chisquared")),
        ("dfi_sat", DFISimilarity("saturated")),
        ("raw_tf", RawTFSimilarity()),
        ("legacy_bm25", LegacyBM25Similarity()),
        # plateau norm is non-monotone in length -> impact pruning invalid,
        # COMPLETE mode only (see SweetSpotSimilarity docstring)
        ("sweetspot", SweetSpotSimilarity()),
        # log-probability scores are NEGATIVE -> the 0-floored pruning is
        # invalid, COMPLETE mode only (see _IndriDirichletScorer)
        ("indri", IndriDirichletSimilarity()),
    ):
        complete = {"total_hits_threshold": np.inf, "score_mode": "COMPLETE"}
        arms.append(
            (name, _sim_topk(sf_dir, sim, k, **(complete if name in ("sweetspot", "indri") else {})))
        )
    arms.append(("indri_and", indri_and_topk(sf_dir, k)))
    return _keyed_concat("sim", arms)


# (t1, t2) pairs with boosts (1.0, 0.5) — exact binary fractions so the
# double boost products are bit-stable in engine and oracle alike
INDRI_AND_QUERIES = [
    (QUERY_TERMS[i], QUERY_TERMS[(i + 1) % len(QUERY_TERMS)])
    for i in range(len(QUERY_TERMS))
]
INDRI_AND_BOOSTS = (1.0, 0.5)


def indri_and_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """IndriAndQuery top-k (search/IndriAndQuery.java): union match set,
    boost-weighted mean of per-clause Indri log-probabilities with freq=0
    smoothing for absent clauses; COMPLETE mode (negative scores)."""
    from ..search.query import IndriAndQuery
    from ..search.similarities import IndriDirichletSimilarity

    return hits_table(
        IndexSearcher(ensure_index(sf_dir), similarity=IndriDirichletSimilarity()),
        [IndriAndQuery(tuple(pair), INDRI_AND_BOOSTS) for pair in INDRI_AND_QUERIES],
        k,
        total_hits_threshold=np.inf,
        score_mode="COMPLETE",
    )


MULTI_PHRASES = [
    (("the", "a"), ("customer", "supplier")),
    (("join", "merge"), ("order", "group")),
    (("batch", "window"), ("batch", "query")),
    (("spark",), ("group", "query"), ("query", "by")),
]


def multi_phrase_counts(sf_dir: str):
    """(qid, doc_id, phrase_freq) for MultiPhraseQueries: slot i matches
    any of its alternative terms at position start+i (union postings,
    search/MultiPhraseQuery.java semantics) — distributed per segment."""
    idx = ensure_index(sf_dir, index_options="positions")
    return _positional_matches_ds(idx, MULTI_PHRASES, "multi_phrase", "phrase_freq")


DELETE_LANG = "de"


def delete_search_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """BM25 top-k AFTER deleting every ``lang = 'de'`` doc via live-docs
    (qid, rnk, doc_id): per reference semantics, collection/term stats
    still count the deleted docs (no merge ran), so surviving docs keep
    their exact scores and ranking simply skips deleted candidates.
    Runs against a manifest-level snapshot CLONE of the cached index —
    segment data is shared, livedocs/generations land in the clone."""
    import shutil

    from ..index.deletes import clone_for_deletes, delete_by_query
    from ..search.query import StoredFieldFilter

    idx = ensure_index(sf_dir)
    clone = idx.rstrip("/") + "-delq"
    shutil.rmtree(clone, ignore_errors=True)
    clone_for_deletes(idx, clone)
    delete_by_query(clone, StoredFieldFilter("lang", DELETE_LANG))
    return hits_table(IndexSearcher(clone), [TermQuery(t) for t in QUERY_TERMS], k)


SLOPPY_PHRASES = [
    (("join", "order"), 1),
    (("the", "customer"), 2),
    (("spark", "query"), 3),
    (("batch", "window"), 2),
    # k > 2 terms (SloppyPhraseMatcher generalization, VERDICT r2 item 6)
    (("the", "customer", "spark"), 3),
    (("join", "order", "group", "window"), 6),
]


def phrase_sloppy_counts(sf_dir: str):
    """(qid, doc_id, sloppy_freq) for each k-term sloppy phrase: the count
    of position tuples whose shifted span max(p_i - i) - min(p_i - i) <=
    slop (SloppyPhraseMatcher match width; see
    search/multiterm.sloppy_phrase_matches_segment for the tuple-count
    deviation) — distributed per segment."""
    idx = ensure_index(sf_dir, index_options="positions")
    return _positional_matches_ds(idx, SLOPPY_PHRASES, "sloppy", "sloppy_freq")


def bm25_boosted_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """Boosted SHOULD disjunctions (BoostQuery per clause): (qid, rnk, doc_id)."""
    from ..search.query import BoostQuery

    return hits_table(
        IndexSearcher(ensure_index(sf_dir)),
        [
            bool_query(should=[BoostQuery(TermQuery(t), b) for t, b in clauses])
            for clauses in BOOSTED_DISJUNCTIONS
        ],
        k,
    )


PREFIXES = ["sp", "wi", "c", "ba", "jo"]


SUGGEST_SCHEMA = _schema(qid=pa.int64(), term=pa.string(), weight=pa.int64())


def _suggest_table(qids, terms, weights) -> pa.Table:
    """(qid, term, weight) columns as a SUGGEST_SCHEMA table."""
    return pa.table({"qid": qids, "term": terms, "weight": weights}, schema=SUGGEST_SCHEMA)


def _partial_topn(ds, n: int, fn=None):
    """Each block's top n per qid (of ``fn(block)`` when given) — the
    suggesters' bounded exchange; exact because the rows are already
    (qid, term)-unique."""
    from ..search import suggest

    return ds.map_batches(
        lambda b: suggest.partial_topn(b if fn is None else fn(b), n), batch_format="pyarrow"
    )


def _summed_topn(ds, n: int):
    """(qid, term, weight) partials summed per (qid, term), then each
    block's top n per qid."""
    from ray.data.aggregate import Sum

    return _partial_topn(ds.groupby(["qid", "term"]).aggregate(Sum("weight", alias_name="weight")), n)


def _suggest_rows(cand, n: int, order=("weight", "term"), ascending=(False, True)):
    """The suggesters' final merge of the candidates (a bounded Dataset or
    a table): (qid, rnk, term, weight), the top n per qid by (weight DESC,
    term ASC) unless told otherwise."""
    return top_rows(gather(cand, SUGGEST_SCHEMA), list(order), list(ascending), n, cols=("term", "weight"))


def _prefix_candidates(b: pa.Table, prefixes) -> pa.Table:
    """(qid, term, weight) for every row of ``b`` whose term starts with
    ``prefixes[qid]``."""
    subs = [b.filter(pc.starts_with(b.column("term"), pref)) for pref in prefixes]
    return pa.concat_tables(
        _suggest_table(pa.array([qid] * sub.num_rows, pa.int64()), sub.column("term"), sub.column("weight"))
        for qid, sub in enumerate(subs)
    )


def suggest_prefix(sf_dir: str, n: int = 10) -> pa.Table:
    """Weighted prefix completion (lucene/suggest WFSTCompletionLookup +
    HighFrequencyDictionary analogue): top-N dictionary terms under each
    prefix by (doc_freq DESC, term ASC), summed across segments.
    (qid, rnk, term, weight)."""
    from ..search import suggest

    prefixes = PREFIXES

    def _seg(r, doc_base: int) -> pa.Table:
        return _suggest_table(*suggest.segment_completions(r, prefixes))

    cand = gather(_summed_topn(segment_map(ensure_index(sf_dir), _seg), n), SUGGEST_SCHEMA)
    out = _suggest_rows(cand, n)
    df = out.to_pandas()
    # WFST topology cross-check (suggest/fst/WFSTCompletionLookup.java):
    # the max-weight-pushed trie's best-first top_n must equal the
    # scan-and-sort result for every prefix — percolator discipline: two
    # paths, asserted identical, ONE oracle-backed output
    all_rows = cand.to_pandas()
    fst_src = all_rows.groupby("term", sort=False)["weight"].max()
    fst = suggest.WFSTCompletion(
        fst_src.index.tolist(), fst_src.to_numpy().tolist()
    )
    for qid, p in enumerate(prefixes):
        want = [
            (r.term, int(r.weight))
            for r in df[df["qid"] == qid].itertuples()
        ]
        got, _ = fst.top_n(p, n)
        # scan path weights are per-(qid,term) sums; terms under multiple
        # queried prefixes keep one weight in the shared trie, so compare
        # per-qid against the per-term max seen for that qid
        got = [(t, w) for t, w in got]
        assert got == want, f"WFST completion diverged for prefix {p!r}"
    return out


# RegexCompletionQuery (suggest/document/RegexCompletionQuery.java): the
# regex is intersected with the completion automaton as a PREFIX — a
# suggestion matches when the regex accepts some prefix of it (anchored
# re.match here; keep patterns RE2-safe so the DuckDB '^(?:...)' oracle
# agrees)
REGEX_SUGGEST_QUERIES = ["sp[aeiou]r", "c[ou]+", "ba(se|nk)", "w.n"]


def regex_suggest(sf_dir: str, n: int = 10) -> pa.Table:
    """(qid, rnk, term, weight) — weighted regex-prefix completion: each
    pattern's DFA literal common prefix (search/regexp.py — any accepted
    string, hence any matched term, starts with it) bounds a sorted-
    dictionary range per segment; only that slice is re.match-scanned.
    Weights (doc freq) sum across segments, block-local partial top-n
    bounds the merge."""
    import re as _re

    from ..search.regexp import UnsupportedRegexp, _prefix_upper, compile_regexp

    patterns = REGEX_SUGGEST_QUERIES

    def _pattern_prefix(p: str) -> str:
        try:
            return compile_regexp(p).common_prefix()
        except UnsupportedRegexp:
            return ""

    def _seg(r, doc_base: int) -> pa.Table:
        rxs = [_re.compile(p) for p in patterns]
        prefixes = [_pattern_prefix(p) for p in patterns]
        qids, terms, ws = [], [], []
        df = np.asarray(r.enc.doc_freq)
        for qid, (rx, pfx) in enumerate(zip(rxs, prefixes)):
            lo = pfx.encode("utf-8") if pfx else None
            hi = _prefix_upper(lo) if lo else None
            for tid in r.term_id_range(lo, hi):
                t = r.term_string(tid)
                if rx.match(t):
                    qids.append(qid)
                    terms.append(t)
                    ws.append(int(df[tid]))
        return _suggest_table(qids, terms, ws)

    return _suggest_rows(_summed_topn(segment_map(ensure_index(sf_dir), _seg), n), n)


# (context word, completion prefix) — empty prefix = any next word
FREETEXT_QUERIES = [("the", "c"), ("spark", ""), ("group", "b"), ("customer", "o")]


def _bigrams(batch: pa.Table):
    """(vocab, left, right): the batch's standard-analyzer vocabulary and
    the term ids of every adjacent token pair, or None for a batch
    without tokens."""
    from ..analysis.analyzers import make_analyzer

    texts = batch.column("text").to_pylist()
    vocab, tids, doc_ids, positions, *_ = make_analyzer("standard")._batch_token_stream(texts)
    if not vocab:
        return None
    order = np.lexsort((positions, doc_ids))
    t, d, p = tids[order], doc_ids[order], positions[order]
    adj = (d[1:] == d[:-1]) & (p[1:] == p[:-1] + 1)
    return vocab, t[:-1][adj], t[1:][adj]


def _freetext_partials(batch: pa.Table, queries: list) -> pa.Table:
    """Per-batch bigram partial counts filtered to the query contexts —
    query-bounded rows leave the task, never the corpus bigram table."""
    out_q, out_t, out_w = [], [], []
    bigrams = _bigrams(batch)
    if bigrams is not None:
        vocab, left, right = bigrams
        varr = np.asarray(vocab, dtype=object)
        pos_of = {v: i for i, v in enumerate(vocab)}
        for qid, (ctx, pref) in enumerate(queries):
            ctx_tid = pos_of.get(ctx)
            if ctx_tid is None:
                continue
            r = right[left == ctx_tid]
            if len(r) == 0:
                continue
            cand, counts = np.unique(r, return_counts=True)
            if pref:
                keep = np.array(
                    [vocab[int(c)].startswith(pref) for c in cand], bool
                )
                cand, counts = cand[keep], counts[keep]
            out_q.extend([qid] * len(cand))
            out_t.extend(varr[cand].tolist())
            out_w.extend(counts.tolist())
    return _suggest_table(out_q, out_t, out_w)


def freetext_suggest(sf_dir: str, n: int = 10) -> pa.Table:
    """FreeTextSuggester analogue (reference
    suggest/analyzing/FreeTextSuggester.java, separator-joined word
    n-grams): completions for (context, prefix) are corpus words that
    FOLLOW ``context`` and start with ``prefix``, weighted by the corpus
    bigram count — the suggester's 2-gram order without the Katz-backoff
    blend into lower orders (documented deviation; counts keep the oracle
    exact).  Top-N by (weight DESC, term ASC).  Distributed: per-batch
    vectorized bigram partials (query-bounded output) -> one small
    groupby sum -> partial top-N -> driver merge.  (qid, rnk, term,
    weight)."""
    parts = _corpus(sf_dir, ["text"]).map_batches(
        _freetext_partials, batch_format="pyarrow", fn_kwargs={"queries": FREETEXT_QUERIES}
    )
    # bounded: <= n * num_blocks rows per qid
    return _suggest_rows(_summed_topn(parts, n), n)


# AnalyzingInfixSuggester lookups: a token prefix that may match EITHER
# word of a bigram suggestion entry
INFIX_QUERIES = ["str", "cust", "win", "jo"]


def _infix_partials(batch: pa.Table, queries: list) -> pa.Table:
    """Per-batch bigram partials where the query prefix matches EITHER
    token of the bigram — the infix property.  Output is query-bounded."""
    out_q, out_t, out_w = [], [], []
    bigrams = _bigrams(batch)
    if bigrams is not None:
        vocab, left, right = bigrams
        varr = np.asarray(vocab, dtype=object)
        pairs = left * len(vocab) + right
        cand, counts = np.unique(pairs, return_counts=True)
        cl, cr = cand // len(vocab), cand % len(vocab)
        for qid, pref in enumerate(queries):
            starts = np.array([v.startswith(pref) for v in vocab], bool)
            m = starts[cl] | starts[cr]
            if not m.any():
                continue
            out_q.extend([qid] * int(m.sum()))
            out_t.extend(f"{varr[int(a)]} {varr[int(b)]}" for a, b in zip(cl[m], cr[m]))
            out_w.extend(counts[m].tolist())
    return _suggest_table(out_q, out_t, out_w)


def infix_suggest(sf_dir: str, n: int = 10) -> pa.Table:
    """AnalyzingInfixSuggester analogue (reference
    suggest/analyzing/AnalyzingInfixSuggester.java): suggestion entries
    are multi-word texts (here: corpus bigrams weighted by count) and the
    query token prefix-matches a token ANYWHERE in the entry — not just
    its start (the infix property; the reference indexes suggestion
    tokens with edge grams for exactly this).  Top-N by (weight DESC,
    text ASC); the reference's blender sort by weight is the same
    ordering.  (qid, rnk, term, weight)."""
    parts = _corpus(sf_dir, ["text"]).map_batches(
        _infix_partials, batch_format="pyarrow", fn_kwargs={"queries": INFIX_QUERIES}
    )
    # bounded: <= n * num_blocks rows per qid
    return _suggest_rows(_summed_topn(parts, n), n)


def blended_weights(
    w: np.ndarray, pos: np.ndarray, blender: str
) -> np.ndarray:
    """BlendedInfixSuggester's exact long arithmetic
    (BlendedInfixSuggester.java:258-271 + calculateCoefficient:357-378):
    zero weights become 1, |weight| < 10 rescales by 10 (so the blend
    survives the long truncation — and makes w=9 outscore w=10, the
    reference's own discontinuity), then (long)(weight * coefficient)."""
    w = w.copy()
    w[w == 0] = 1
    w = np.where((w < 10) & (w > -10), (w * 10.0).astype(np.int64), w)
    coef = 1.0 - 0.1 * pos if blender == "linear" else 1.0 / (pos + 1.0)
    return (w * coef).astype(np.int64)


def blended_infix_suggest(
    sf_dir: str, blender: str = "linear", n: int = 10
) -> pa.Table:
    """BlendedInfixSuggester analogue (reference suggest/analyzing/
    BlendedInfixSuggester.java): the infix suggester's raw weight is
    blended by the position of the FIRST (closest) query-matching token
    — POSITION_LINEAR coef = 1 - 0.10*position (:362), POSITION_
    RECIPROCAL coef = 1/(position+1) (:366) — with the reference's exact
    long arithmetic: zero weights become 1 (:265-267), |weight| < 10
    rescales by 10 so the coefficient survives the final (long)
    truncation (:268-271).  That rescale makes the blended score
    NON-monotone in the raw weight (w=9 scores 90, w=10 scores 10), so
    blending happens BEFORE any top-n trimming; the reference's
    numFactor candidate-pool cut is an approximation we don't reproduce
    — we blend every entry exactly.  Top-n by (score DESC, term ASC)."""
    from ray.data.aggregate import Sum

    parts = _corpus(sf_dir, ["text"]).map_batches(
        _infix_partials, batch_format="pyarrow", fn_kwargs={"queries": INFIX_QUERIES}
    )
    agg = parts.groupby(["qid", "term"]).aggregate(Sum("weight", alias_name="weight"))

    def _blend(b: pa.Table) -> pa.Table:
        qid = b.column("qid").to_numpy()
        terms = b.column("term").to_pylist()
        pos = np.empty(len(terms), np.int64)
        for i, (q, t) in enumerate(zip(qid, terms)):
            pref = INFIX_QUERIES[int(q)]
            pos[i] = 0 if t.split(" ", 1)[0].startswith(pref) else 1
        weights = blended_weights(b.column("weight").to_numpy(), pos, blender)
        return _suggest_table(b.column("qid"), b.column("term"), weights)

    # bounded: <= n * num_blocks rows per qid
    return _suggest_rows(_partial_topn(agg, n, _blend), n)


# DocumentDictionary suggester: entries from STORED doc content (title =
# first TITLE_TOKENS tokens) weighted by a stored long (n_chars)
DOC_SUGGEST_QUERIES = ["the", "spark", "join", "window b"]


def document_suggest(sf_dir: str, n: int = 10) -> pa.Table:
    """DocumentDictionary-backed suggester (reference suggest/
    DocumentDictionary.java feeding AnalyzingSuggester): suggestion
    entries come from DOCUMENT FIELDS — here title = the doc's first
    TITLE_TOKENS tokens, weight = the stored n_chars long — instead of
    the term dictionary; the typed query prefix-matches the WHOLE entry
    string.  Duplicate titles collapse to their max weight (the
    highest-weight surface form wins, the suggester's dedup rule).
    Top-n by (weight DESC, entry ASC): (qid, rnk, term, weight)."""
    from ray.data.aggregate import Max

    def _titles(batch: pa.Table) -> pa.Table:
        import polars as pl

        return pl.from_arrow(batch).select(
            title_expr().alias("term"), pl.col("n_chars").alias("weight")
        ).to_arrow()

    agg = (
        _corpus(sf_dir, ["text", "n_chars"])
        .map_batches(_titles, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Max("weight", alias_name="weight"))
    )
    cand = _partial_topn(agg, n, partial(_prefix_candidates, prefixes=DOC_SUGGEST_QUERIES))
    # bounded: <= n * num_blocks rows per qid
    return _suggest_rows(cand, n)


# ContextQuery (suggest/document/ContextQuery.java wrapping a
# PrefixCompletionQuery over ContextSuggestField entries): contexts are
# the docs' lang; only ADDED contexts match, score = weight * boost
# (CompletionScorer.score:98-106).  Integer boosts keep the score column
# BIGINT-exact for the oracle.
CONTEXT_SUGGEST_BOOSTS = {"en": 2, "fr": 1}


def context_suggest(sf_dir: str, n: int = 10) -> pa.Table:
    """ContextQuery completions: DocumentDictionary-style (title, weight)
    entries carrying their doc's lang CONTEXT; completions from contexts
    outside the boost map are FILTERED, the rest score weight * boost;
    duplicate surface forms keep their best score (the NRTSuggester
    surface dedup).  (qid, rnk, term, weight=score) top-n by
    (score DESC, term ASC)."""
    from ray.data.aggregate import Max

    ds = _corpus(sf_dir, ["text", "lang", "n_chars"])

    def _entries(batch: pa.Table) -> pa.Table:
        import polars as pl

        return pl.from_arrow(batch).select(
            title_expr().alias("term"),
            pl.col("lang").alias("ctx"),
            pl.col("n_chars").alias("weight"),
        ).to_arrow()

    # per (surface, context) the max entry weight rides the exchange
    agg = (
        ds.map_batches(_entries, batch_format="pyarrow")
        .groupby(["term", "ctx"])
        .aggregate(Max("weight", alias_name="weight"))
    )

    def _score(b: pa.Table) -> pa.Table:
        # context filter + score = weight * boost; qid-independent
        ctxs = b.column("ctx").to_pylist()
        keep = [i for i, c in enumerate(ctxs) if c in CONTEXT_SUGGEST_BOOSTS]
        b = b.take(pa.array(keep, pa.int64()))
        score = pa.array(
            [
                int(w) * CONTEXT_SUGGEST_BOOSTS[c]
                for w, c in zip(
                    b.column("weight").to_pylist(), b.column("ctx").to_pylist()
                )
            ],
            pa.int64(),
        )
        return pa.table({"term": b.column("term"), "weight": score})

    # surface dedup BEFORE any top-n cut: the best-context score per term
    # (cutting a term's best row per block would under-score it)
    best = (
        agg.map_batches(_score, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Max("weight", alias_name="weight"))
    )

    cand = _partial_topn(best, n, partial(_prefix_candidates, prefixes=DOC_SUGGEST_QUERIES))
    # bounded: <= n * num_blocks rows per qid
    return _suggest_rows(cand, n)


WORDBREAK_QUERIES = ["sparkjoin", "windowbatch", "customerorder", "thegroup"]
WORDBREAK_TOP_N = 5


def wordbreak_suggest(sf_dir: str, n: int = WORDBREAK_TOP_N) -> pa.Table:
    """WordBreakSpellChecker.generateBreakUpSuggestions analogue
    (reference suggest/spell/WordBreakSpellChecker.java): single-split
    break-ups of each input into TWO dictionary words (minBreakWordLength
    = 1, the reference default), ranked by summed doc freq DESC (the
    NUM_CHANGES_THEN_SUMMED_FREQUENCY sort at one change), then split
    text ASC for determinism (documented tie-break).  Distribution: each
    segment emits per-split PARTIAL dfs (zero when absent), one
    vocabulary-bounded groupby sums them, validity (both sides present
    SOMEWHERE) is decided on the summed dfs — not per segment.
    (qid, rnk, term='left right', weight)."""
    from ray.data.aggregate import Sum

    queries = WORDBREAK_QUERIES
    schema = _schema(qid=pa.int64(), si=pa.int64(), dfl=pa.int64(), dfr=pa.int64())

    def _seg(r, doc_base: int) -> pa.Table:
        out = {c: [] for c in schema.names}
        df = np.asarray(r.enc.doc_freq)

        def seg_df(t: str) -> int:
            tid = r.term_id(t)
            return int(df[tid]) if tid is not None else 0

        for qid, w in enumerate(queries):
            for i in range(1, len(w)):
                out["qid"].append(qid)
                out["si"].append(i)
                out["dfl"].append(seg_df(w[:i]))
                out["dfr"].append(seg_df(w[i:]))
        return pa.table(out, schema=schema)

    agg = gather(
        segment_map(ensure_index(sf_dir), _seg)
        .groupby(["qid", "si"])
        .aggregate(Sum("dfl", alias_name="dfl"), Sum("dfr", alias_name="dfr")),
        schema,
    ).to_pandas()
    # bounded: sum(len(w)) rows total, never corpus-scaled
    agg = agg[(agg.dfl > 0) & (agg.dfr > 0)]
    cand = pa.table(
        {
            "qid": pa.array(agg.qid, pa.int64()),
            "term": pa.array(
                [f"{queries[q][:i]} {queries[q][i:]}" for q, i in zip(agg.qid, agg.si)],
                pa.string(),
            ),
            "weight": pa.array(agg.dfl + agg.dfr, pa.int64()),
        }
    )
    return _suggest_rows(cand, n)


SPELL_QUERIES = ["cusotmer", "fitler", "windwo", "spakr", "streem"]
SPELL_MAX_EDITS = 2
SPELL_TOP_N = 5


def spell_suggest(sf_dir: str, n: int = SPELL_TOP_N) -> pa.Table:
    """DirectSpellChecker analogue (suggest/spell/DirectSpellChecker.java):
    per misspelled input, dictionary terms within SPELL_MAX_EDITS
    Damerau-Levenshtein edits, ranked (distance ASC, doc_freq DESC, term
    ASC) — an integer comparator standing in for the reference's
    similarity-score float ordering (documented deviation; ties and ranks
    stay oracle-exact).  Candidate scan is the vectorized FuzzyQuery DP per
    segment; doc freqs sum across segments via one small groupby.
    (qid, rnk, term, weight=df)."""
    return _suggest_rows(
        spell_candidates(sf_dir), n, order=("dist", "weight", "term"), ascending=(True, False, True)
    )


def spell_suggest_jaro(sf_dir: str, n: int = SPELL_TOP_N) -> pa.Table:
    """SpellChecker with a pluggable StringDistance, JaroWinklerDistance
    (reference suggest/spell/SpellChecker.java suggestSimilar +
    JaroWinklerDistance.java): the SAME Damerau-bounded candidate set as
    spell_suggest, re-ranked by the SuggestWordScoreComparator order —
    similarity DESC, then doc freq DESC, then term ASC.  The jw doubles
    are bit-identical to DuckDB's jaro_winkler_similarity, so ranks stay
    hash-exact.  (qid, rnk, term, weight=df)."""
    from ..search.suggest import jaro_winkler

    base = spell_candidates(sf_dir)
    jw = [
        jaro_winkler(t, SPELL_QUERIES[q])
        for t, q in zip(base["term"].to_pylist(), base["qid"].to_pylist())
    ]
    return _suggest_rows(
        base.append_column("jw", pa.array(jw, pa.float64())),
        n,
        order=("jw", "weight", "term"),
        ascending=(False, False, True),
    )


def spell_candidates(sf_dir: str):
    """Aggregated (qid, term, weight=df, dist) Damerau candidates — the
    shared distributed phase behind both spell comparators."""
    from ray.data.aggregate import Min, Sum

    from ..search.multiterm import fuzzy_term_dists

    schema = _schema(qid=pa.int64(), term=pa.string(), weight=pa.int64(), dist=pa.int64())

    def _seg(r, doc_base: int) -> pa.Table:
        out = {c: [] for c in schema.names}
        vocab = r.terms_array()
        for qid, q in enumerate(SPELL_QUERIES):
            ids, dd = fuzzy_term_dists(r, q, SPELL_MAX_EDITS)
            keep = dd > 0  # never suggest the input itself
            for tid, dist in zip(ids[keep], dd[keep]):
                out["qid"].append(qid)
                out["term"].append(vocab[int(tid)].as_py())
                out["weight"].append(int(r.enc.doc_freq[int(tid)]))
                out["dist"].append(int(dist))
        return pa.table(out, schema=schema)

    # dist is identical wherever the term appears (same dictionary DP), so
    # Min is just "the" distance; df sums across segments
    agg = (
        segment_map(ensure_index(sf_dir), _seg)
        .groupby(["qid", "term"])
        .aggregate(Sum("weight", alias_name="weight"), Min("dist", alias_name="dist"))
    )
    return gather(agg, schema)


# FuzzySuggester (suggest/analyzing/FuzzySuggester.java) reference
# defaults: maxEdits=1, transpositions=true, nonFuzzyPrefix=1,
# minFuzzyLength=3.  Queries exercise insertion (sprk->spark),
# transposition (colunm->column), exact prefix (windo->window),
# substitution (strem->stream) and the minFuzzyLength short-circuit
# ("cu" is shorter than 3, so it completes exact-prefix only).
FUZZY_SUGGEST_QUERIES = ["sprk", "colunm", "windo", "strem", "cu"]
FUZZY_MAX_EDITS = 1
FUZZY_NON_FUZZY_PREFIX = 1
FUZZY_MIN_LENGTH = 3


def fuzzy_suggest(sf_dir: str, n: int = 10) -> pa.Table:
    """FuzzySuggester analogue: completions whose ANALYZED PREFIX is
    within FUZZY_MAX_EDITS Damerau edits of the typed query (first
    FUZZY_NON_FUZZY_PREFIX chars exact, queries shorter than
    FUZZY_MIN_LENGTH match exact-prefix only), ranked weight=df DESC then
    term ASC — the reference's weight-ordered FST traversal.  Per-segment
    vectorized prefix-DP scan, doc freqs summed via one small groupby.
    (qid, rnk, term, weight)."""
    from ray.data.aggregate import Sum

    from ..search.multiterm import fuzzy_prefix_dists

    def _seg(r, doc_base: int) -> pa.Table:
        qids, terms, dfs = [], [], []
        vocab = r.terms_array()
        for qid, q in enumerate(FUZZY_SUGGEST_QUERIES):
            if len(q) < FUZZY_MIN_LENGTH:
                ids = np.nonzero(pc.starts_with(vocab, q).to_numpy(zero_copy_only=False))[0]
            else:
                ids, _ = fuzzy_prefix_dists(r, q, FUZZY_MAX_EDITS, FUZZY_NON_FUZZY_PREFIX)
            for tid in ids:
                qids.append(qid)
                terms.append(vocab[int(tid)].as_py())
                dfs.append(int(r.enc.doc_freq[int(tid)]))
        return _suggest_table(qids, terms, dfs)

    agg = (
        segment_map(ensure_index(sf_dir), _seg)
        .groupby(["qid", "term"])
        .aggregate(Sum("weight", alias_name="weight"))
    )
    return _suggest_rows(agg, n)


TERM_RANGES = [("a", "d"), ("m", "s"), ("s", None), (None, "h")]


MAX_CLAUSE_COUNT = 1024  # IndexSearcher.maxClauseCount default


def prefix_scored_matches(sf_dir: str, k: int = 10) -> pa.Table:
    """MultiTermQuery.SCORING_BOOLEAN_REWRITE for PrefixQuery (reference
    search/ScoringRewrite.java SCORING_BOOLEAN_REWRITE +
    IndexSearcher.getMaxClauseCount): the prefix expands to the
    dictionary terms under it — union across ALL segments, the
    cross-segment TermStates collection — and runs as a plain BM25
    SHOULD disjunction (each expanded term keeps its own idf, unlike the
    CONSTANT_SCORE rewrite the other multiterm arms use); more than
    MAX_CLAUSE_COUNT expanded terms raises the TooManyClauses error.
    (qid, rnk, doc_id)."""
    searcher = IndexSearcher(ensure_index(sf_dir))
    queries = []
    for p in PREFIXES:
        lo = p.encode("utf-8")
        hi = lo + b"\xff\xff\xff\xff"
        terms: set[str] = set()
        for r in searcher.readers:
            for tid in r.term_id_range(lo, hi):
                terms.add(r.term_string(tid))
        if len(terms) > MAX_CLAUSE_COUNT:
            raise ValueError(
                f"TooManyClauses: prefix '{p}' expands to {len(terms)} terms"
            )
        queries.append(bool_query(should=[TermQuery(t) for t in sorted(terms)]) if terms else None)
    return hits_table(searcher, queries, k)


def _counts_and_hits(searcher, queries: list, k: int) -> pa.Table:
    """The constant-score families' (qid, rnk, doc_id) shape: per query a
    rnk=0 row carrying the match count in doc_id, then its top-k hits."""
    counts = pa.table(
        {
            "qid": pa.array(range(len(queries)), pa.int64()),
            "rnk": pa.array([0] * len(queries), pa.int64()),
            "doc_id": pa.array([searcher.count(q) for q in queries], pa.int64()),
        }
    )
    return pa.concat_tables([counts, hits_table(searcher, queries, k)]).sort_by(
        [("qid", "ascending"), ("rnk", "ascending")]
    )


def prefix_matches(sf_dir: str, k: int = 10) -> pa.Table:
    """Constant-score prefix queries: (qid, cnt, top-k doc ids as rnk rows).

    Returned rows: (qid, rnk, doc_id) for the k lowest matching docids plus
    rnk=0 rows carrying the total count in doc_id — all integers.
    """
    from ..search.query import PrefixQuery

    return _counts_and_hits(
        IndexSearcher(ensure_index(sf_dir)), [PrefixQuery(p) for p in PREFIXES], k
    )


TERM_SETS = [
    ("spark", "join", "vector"),
    ("merge", "window"),
    ("customer", "hash", "stream", "nosuchterm"),
    ("batch",),
]


def term_in_set_matches(sf_dir: str, k: int = 10) -> pa.Table:
    """TermInSetQuery (constant-score "IN (...)" filter): same row shape as
    prefix_matches — rnk=0 carries the match count, rnk 1..k the lowest
    matching docids."""
    from ..search.query import TermInSetQuery

    return _counts_and_hits(
        IndexSearcher(ensure_index(sf_dir)), [TermInSetQuery(t) for t in TERM_SETS], k
    )


DV_TERM_SETS = [
    ("lang", ("en", "fr")),
    ("source", ("src1", "src2", "src3")),
    ("lang", ("zh",)),
]


def dv_terms_matches(sf_dir: str, k: int = 10) -> pa.Table:
    """DocValuesTermsQuery (sandbox/search/DocValuesTermsQuery.java): the
    doc-values twin of TermInSetQuery — set membership verified against
    the stored column instead of a postings union.  Same row shape as
    term_in_set_matches: rnk=0 carries the match count, rnk 1..k the
    lowest matching docids."""
    from ..search.query import DocValuesTermsQuery

    return _counts_and_hits(
        IndexSearcher(ensure_index(sf_dir)),
        [bool_query(filter=[DocValuesTermsQuery(f, v)]) for f, v in DV_TERM_SETS],
        k,
    )


# DocValuesNumbersQuery (sandbox/search/DocValuesNumbersQuery.java):
# the numeric-set twin — same doc-values membership check over a LONG
# column; sets over n_chars (one empty-ish set exercises the no-match path)
DV_NUMBER_SETS = [
    ("n_chars", (100, 150, 200, 250)),
    ("n_chars", tuple(range(48, 120))),
    ("n_chars", (1, 2, 3)),
]


def dv_numbers_matches(sf_dir: str, k: int = 10) -> pa.Table:
    """DocValuesNumbersQuery (sandbox/search/DocValuesNumbersQuery.java):
    set membership of a LONG doc-values column — identical execution to
    DocValuesTermsQuery with a typed value set (the engine's is_in is
    column-type-generic).  Same row shape as the dv-terms arm."""
    from ..search.query import DocValuesTermsQuery

    return _counts_and_hits(
        IndexSearcher(ensure_index(sf_dir)),
        [bool_query(filter=[DocValuesTermsQuery(f, v)]) for f, v in DV_NUMBER_SETS],
        k,
    )


SORTED_NUMERIC_RANGES = [(100, 400), (None, 200), (250, None), (380, 390)]


COUNT_SCHEMA = _schema(qid=pa.int64(), cnt=pa.int64())


def _count_sums(ds, n_queries: int) -> pa.Table:
    """Gathered per-segment (qid, cnt) partial counts summed per qid: one
    row for each of the ``n_queries`` queries, 0 when nothing matched."""
    cnt = gather(ds, COUNT_SCHEMA).to_pandas().groupby("qid")["cnt"].sum()
    df = cnt.reindex(range(n_queries), fill_value=0).rename_axis("qid").reset_index()
    return pa.Table.from_pandas(df, schema=COUNT_SCHEMA, preserve_index=False)


def count_table(searcher, queries) -> pa.Table:
    """(qid, cnt) for ``enumerate(queries)``: ``searcher.count(q)``, one
    row per query (built like ``hits_table``)."""
    return pa.table(
        {
            "qid": pa.array(range(len(queries)), pa.int64()),
            "cnt": pa.array([searcher.count(q) for q in queries], pa.int64()),
        }
    )


def _seg_point_counts(r, doc_base: int, field: str, queries: list) -> pa.Table:
    """Per-segment (qid, cnt) partials over the segment's persisted
    ``field`` point tree: query qid counts sum(sign * points in [low,
    high)) over its (sign, low, high) boxes — disjoint boxes add, an
    inclusion-exclusion relation subtracts."""
    from ..index.points import PointTree, point_file

    tree = PointTree.load(point_file(r.src_dir, field))
    cnt = [sum(s * len(tree.intersect(lo, hi)[0]) for s, lo, hi in boxes) for boxes in queries]
    return pa.table({"qid": pa.array(range(len(queries)), pa.int64()), "cnt": pa.array(cnt, pa.int64())})


def _point_counts(sf_dir: str, field: str, values, queries: list) -> pa.Table:
    """(qid, cnt) of ``_seg_point_counts`` summed over the segments, the
    ``field`` tree built per segment from ``values(reader)``."""
    from ..index.points import build_point_index_fn

    idx = ensure_index(sf_dir)
    build_point_index_fn(idx, field, values)
    return _count_sums(segment_map(idx, _seg_point_counts, field=field, queries=queries), len(queries))


def index_sorted_range_counts(sf_dir: str) -> pa.Table:
    """IndexSortSortedNumericDocValuesRangeQuery analogue (reference
    sandbox/search/IndexSortSortedNumericDocValuesRangeQuery.java): when
    the range field IS the index sort field, each segment's matching docs
    form ONE CONTIGUOUS docid span located by two binary searches over
    the sorted doc values (the BoundedDocIdSetIterator) — no scan, no
    per-doc compare.  n_chars ranges are [lo, hi) over the n_chars-DESC
    sorted index; (qid, cnt) summed across segments."""
    idx = ensure_index(sf_dir, index_sort=INDEX_SORT)

    def _seg(r, doc_base: int) -> pa.Table:
        cnts = []
        # ascending view of the DESC-sorted doc values (negate once)
        asc = -r.stored_column("n_chars").to_numpy()
        for lo, hi in SORTED_NUMERIC_RANGES:
            start = 0 if hi is None else int(np.searchsorted(asc, -hi, side="right"))
            end = len(asc) if lo is None else int(np.searchsorted(asc, -lo, side="right"))
            n = max(0, end - start)
            if r.live is not None and n:
                n = int(r.live[start:end].sum())
            cnts.append(n)
        return pa.table({"qid": pa.array(range(len(cnts)), pa.int64()), "cnt": pa.array(cnts, pa.int64())})

    return _count_sums(segment_map(idx, _seg), len(SORTED_NUMERIC_RANGES))


# --- range fields (document/RangeFieldQuery.java + LongRange.java) ---------
# each doc carries ONE closed [lo, hi] long range synthesized from its
# stored (doc_id, n_chars); LongRange encodes [min, max] as a 2*ndim point
# and RangeFieldQuery's QueryType answers the four relations as pure
# bounding predicates on that point space — exactly what the per-segment
# 2-dim (lo, hi) tree gives us.  CROSSES is defined as overlapping-but-
# neither-within-nor-contains (RangeFieldQuery.QueryType.CROSSES).
RANGE_FIELD_QUERIES = [
    (100, 300),
    (0, 1999),
    (500, 520),
    (1500, 1700),
]


def _range_field_values(reader) -> np.ndarray:
    ids = (
        reader.stored_column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    )
    nch = (
        reader.stored_column("n_chars")
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    lo = (ids * 17) % 2000
    return np.stack([lo, lo + 1 + nch % 97], axis=1)


RELATIONS = ("contains", "crosses", "intersects", "within")


def _relation_counts(sf_dir: str, field: str, values, boxes: list) -> dict:
    """{relation: (qid, cnt) DataFrame} for the RangeFieldQuery relations
    of each query box ((min, max) per dim, inclusive) over range points
    laid out (min_0, max_0, min_1, max_1, ...).  Each relation is a
    bounding predicate on that point space (intersect bounds [low,
    high)); CROSSES = intersects - within - contains + (within AND
    contains), as within and contains both lie inside intersects."""

    def box(dims, low, high):
        return (
            tuple(x for a, b in dims for x in low(a, b)),
            tuple(x for a, b in dims for x in high(a, b)),
        )

    def signed(dims) -> dict:
        inter = box(dims, lambda a, b: (None, a), lambda a, b: (b + 1, None))
        within = box(dims, lambda a, b: (a, None), lambda a, b: (None, b + 1))
        contains = box(dims, lambda a, b: (None, b), lambda a, b: (a + 1, None))
        equal = box(dims, lambda a, b: (a, b), lambda a, b: (a + 1, b + 1))
        return {
            "contains": [(1, *contains)],
            "crosses": [(1, *inter), (-1, *within), (-1, *contains), (1, *equal)],
            "intersects": [(1, *inter)],
            "within": [(1, *within)],
        }

    per_box = [signed(dims) for dims in boxes]
    queries = [b[rel] for rel in RELATIONS for b in per_box]
    cnt = _point_counts(sf_dir, field, values, queries).to_pandas()
    n = len(boxes)
    return {
        rel: cnt.iloc[i * n:(i + 1) * n].assign(qid=np.arange(n, dtype=np.int64)).reset_index(drop=True)
        for i, rel in enumerate(RELATIONS)
    }


def range_field_counts(sf_dir: str) -> dict:
    """{relation: (qid, cnt) DataFrame} for LongRange.newIntersectsQuery /
    newWithinQuery / newContainsQuery / newCrossesQuery counts; only
    (qid, cnt) partials leave the per-segment task."""
    boxes = [((lo, hi),) for lo, hi in RANGE_FIELD_QUERIES]
    return _relation_counts(sf_dir, "range_field", _range_field_values, boxes)


# --- LatLonBoundingBox (sandbox/document/LatLonBoundingBox.java): each
# doc carries a 2-D BOX encoded as a 4-dim point (latMin, latMax,
# lonMin, lonMax) and the four RangeFieldQuery relations become per-dim
# bounding predicates on the 4-dim tree.  Boxes and queries live
# directly on the integer grid (the float->int quantization itself is
# covered by the geo_box arm).
LATLON_BBOX_QUERIES = [
    # (latMin, latMax, lonMin, lonMax) on the integer grid
    (0, 6000, 0, 12000),
    (9000, 9400, 18000, 18600),
    (0, 17999, 0, 35999),
    (17000, 17050, 100, 140),
]


def _latlon_bbox_values(reader) -> np.ndarray:
    ids = (
        reader.stored_column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    )
    lat_min = (ids * 37) % 18000
    lon_min = (ids * 53) % 36000
    return np.stack(
        [lat_min, lat_min + 1 + ids % 50, lon_min, lon_min + 1 + ids % 80],
        axis=1,
    )


def latlon_bbox_counts(sf_dir: str) -> dict:
    """{relation: (qid, cnt)} for LatLonBoundingBox newIntersects /
    newWithin / newContains / newCrosses queries on the 4-dim tree."""
    boxes = [((a, b), (c, d)) for a, b, c, d in LATLON_BBOX_QUERIES]
    return _relation_counts(sf_dir, "latlon_bbox", _latlon_bbox_values, boxes)


# --- LatLonPoint box queries (document/LatLonPoint.java newBoxQuery +
# geo/GeoEncodingUtils.java int32-grid quantization) -------------------------
# Deterministic per-doc coordinates on a 0.01-degree grid derived from
# doc_id; encoded with the reference's floor(val / 90|180 * 2^31) rule.
# The tree stores int64 (no int32 clamp at the +-90/+-180 poles — a
# documented deviation; the grid spacing is identical).

GEO_BOXES = [
    # (minLat, maxLat, minLon, maxLon)
    (-10.0, 45.0, -90.0, 30.0),
    (20.0, 60.0, 150.0, -120.0),  # minLon > maxLon: crosses the dateline
    (-90.0, 90.0, -180.0, 180.0),  # whole world
    (33.0, 34.5, -5.0, 8.25),
]


def _geo_values(reader) -> np.ndarray:
    ids = (
        reader.stored_column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    )
    lat = ((ids * 37) % 18000) / 100.0 - 90.0
    lon = ((ids * 53) % 36000) / 100.0 - 180.0
    return np.stack(
        [
            np.floor(lat / 90.0 * 2147483648.0).astype(np.int64),
            np.floor(lon / 180.0 * 2147483648.0).astype(np.int64),
        ],
        axis=1,
    )


def geo_encode_bounds(box) -> tuple[int, int, int, int, bool]:
    """Query-box quantization (GeoEncodingUtils.encodeLatitudeCeil on the
    mins, encodeLatitude floor on the maxs — a box never matches points
    its double bounds exclude): returns encoded (lat0, lat1, lon0, lon1,
    crosses_dateline).  Shared VERBATIM by the engine and the SQL-literal
    generator, so bound encoding cannot diverge."""
    import math

    min_lat, max_lat, min_lon, max_lon = box
    return (
        math.ceil(min_lat / 90.0 * 2147483648.0),
        math.floor(max_lat / 90.0 * 2147483648.0),
        math.ceil(min_lon / 180.0 * 2147483648.0),
        math.floor(max_lon / 180.0 * 2147483648.0),
        min_lon > max_lon,
    )


# --- Geo3D (spatial3d): unit-sphere shapes over the SAME lat/lon points,
# pruned by the 2-dim geo tree with conservative outward bounds, exact
# spherical membership on the candidates (index/geo3d.py) -------------------


def _geo3d_shapes():
    from ..index.geo3d import Geo3DCircle, Geo3DConvexPolygon, Geo3DPath

    # anchored ON the doc-id coordinate curve (lat = .37·id - 90, lon =
    # .53·id - 180 mod wraps) so every shape is non-vacuous at driver sf
    return [
        Geo3DCircle(20.0, 30.0, 0.5),
        Geo3DCircle(-45.0, -120.0, 0.9),
        Geo3DConvexPolygon([(-25.0, -85.0), (-5.0, -80.0), (-15.0, -58.0)]),
        Geo3DConvexPolygon(
            [(48.0, 15.0), (48.0, 48.0), (68.0, 48.0), (68.0, 15.0)]
        ),
        Geo3DPath([(-71.5, -153.5), (-44.49, -114.81), (-16.0, -74.0)], 0.2),
        Geo3DCircle(-89.0, 0.0, 0.4),  # pole-containing cap
    ]


def geo3d_counts(sf_dir: str) -> pa.Table:
    """(qid, cnt) for Geo3D shapes (GeoStandardCircle / GeoConvexPolygon /
    GeoStandardPath membership, spatial3d/geom) over the derived lat/lon
    points: per segment, the 2-dim geo tree prunes with the shape's
    conservative lat/lon bounds (floor/ceil OUTWARD — superset), then the
    exact unit-sphere test runs on candidates only."""
    import math as _math

    from ..index.geo3d import latlon_to_xyz
    from ..index.points import PointTree, build_point_index_fn, point_file

    idx = ensure_index(sf_dir)
    build_point_index_fn(idx, "geo", _geo_values)
    shapes = _geo3d_shapes()
    enc_180, enc_m180 = 2147483648, -2147483648

    def _enc_out(lat0, lat1, lon0, lon1):
        return (
            _math.floor(lat0 / 90.0 * 2147483648.0),
            _math.ceil(lat1 / 90.0 * 2147483648.0),
            _math.floor(lon0 / 180.0 * 2147483648.0),
            _math.ceil(lon1 / 180.0 * 2147483648.0),
        )

    def _seg(r, doc_base: int) -> pa.Table:
        qs, cs = [], []
        tree = PointTree.load(point_file(r.src_dir, "geo"))
        ids = r.stored_column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        lat = ((ids * 37) % 18000) / 100.0 - 90.0
        lon = ((ids * 53) % 36000) / 100.0 - 180.0
        for qid, shape in enumerate(shapes):
            b0, b1, l0, l1, wrap = shape.latlon_bounds()
            e0, e1, f0, f1 = _enc_out(b0, b1, max(l0, -180.0), min(l1, 180.0))
            if wrap:
                west, _ = tree.intersect((e0, f0), (e1 + 1, enc_180 + 1))
                east, _ = tree.intersect((e0, enc_m180), (e1 + 1, f1 + 1))
                cand = np.concatenate([np.asarray(west), np.asarray(east)])
            else:
                hits, _ = tree.intersect((e0, f0), (e1 + 1, f1 + 1))
                cand = np.asarray(hits)
            if len(cand):
                cand = cand.astype(np.int64)
                x, y, z = latlon_to_xyz(lat[cand], lon[cand])
                n = int(np.count_nonzero(shape.is_within(x, y, z)))
            else:
                n = 0
            qs.append(qid)
            cs.append(n)
        return pa.table(
            {"qid": pa.array(qs, pa.int64()), "cnt": pa.array(cs, pa.int64())}
        )

    return _count_sums(segment_map(idx, _seg), len(shapes))


def geo3d_sql() -> str:
    """The oracle body: same doc-id lat/lon derivation, same xyz
    expressions, the shapes' own sql_expr() — engine/SQL share every
    double constant via repr."""
    from ..index.geo3d import TO_RAD

    shapes = _geo3d_shapes()
    arms = "\nUNION ALL\n".join(
        f"SELECT {qid}::BIGINT AS qid, count(*)::BIGINT AS cnt "
        f"FROM g3xyz WHERE {s.sql_expr()}"
        for qid, s in enumerate(shapes)
    )
    return f"""
WITH g3pts AS (
  SELECT doc_id,
         ((doc_id * 37) % 18000) / 100.0 - 90.0 AS plat,
         ((doc_id * 53) % 36000) / 100.0 - 180.0 AS plon
  FROM documents
),
g3xyz AS (
  SELECT doc_id,
         cos(plat * {TO_RAD!r}) * cos(plon * {TO_RAD!r}) AS x,
         cos(plat * {TO_RAD!r}) * sin(plon * {TO_RAD!r}) AS y,
         sin(plat * {TO_RAD!r}) AS z
  FROM g3pts
)
{arms}
"""


def geo_box_counts(sf_dir: str) -> pa.Table:
    """(qid, cnt) for LatLonPoint.newBoxQuery over the per-segment geo
    point tree; a dateline-crossing box splits into the western + eastern
    longitude ranges (LatLonPointBoundingBoxQuery's crossesDateline
    path), two disjoint intersects per segment."""
    enc_180 = 2147483648  # floor(180/180 * 2^31); int64 tree, no clamp
    queries = []
    for box in GEO_BOXES:
        lat0, lat1, lon0, lon1, crosses = geo_encode_bounds(box)
        lons = [(lon0, enc_180), (-enc_180, lon1)] if crosses else [(lon0, lon1)]
        queries.append([(1, (lat0, a), (lat1 + 1, b + 1)) for a, b in lons])
    return _point_counts(sf_dir, "geo", _geo_values, queries)


# --- DoublePoint / FloatPoint (document/DoublePoint.java newRangeQuery
# via util/NumericUtils.java doubleToSortableLong / floatToSortableInt):
# IEEE bits flipped into an order-isomorphic integer, so the BKD int tree
# answers floating-point ranges exactly ---------------------------------------


def double_to_sortable_long(v: np.ndarray) -> np.ndarray:
    """NumericUtils.doubleToSortableLong: bits ^ ((bits >> 63) & 0x7ff..f)
    — negative doubles flip their magnitude bits so the int64 order equals
    the double order (NaN excluded, as in the reference)."""
    bits = np.ascontiguousarray(v, np.float64).view(np.int64)
    return bits ^ ((bits >> 63) & np.int64(0x7FFFFFFFFFFFFFFF))


def float_to_sortable_int(v: np.ndarray) -> np.ndarray:
    """NumericUtils.floatToSortableInt (the 32-bit twin)."""
    bits = np.ascontiguousarray(v, np.float32).view(np.int32)
    return (bits ^ ((bits >> 31) & np.int32(0x7FFFFFFF))).astype(np.int64)


# derived per-doc doubles with EXACT binary-fraction coefficients (and a
# float32 copy), so engine and SQL literals denote identical values;
# ranges include a negative-crossing one (the encoding's interesting case)
DOUBLE_RANGES = [
    (-50.0, 120.5),
    (0.25, 300.75),
    (-10000.0, -2.5),
    (250.125, 1e9),
]


def _double_point_values(reader) -> np.ndarray:
    ids = (
        reader.stored_column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    )
    nch = (
        reader.stored_column("n_chars")
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    v = nch * 0.25 - ids * 0.5
    return np.stack(
        [double_to_sortable_long(v), float_to_sortable_int(v.astype(np.float32))],
        axis=1,
    )


def double_range_counts(sf_dir: str) -> pa.Table:
    """(qid, cnt) per DoublePoint range [lo, hi] (dim 0), plus the
    FloatPoint recount on dim 1 asserted equal in-engine when the bounds
    are exactly representable in float32 (all of DOUBLE_RANGES are)."""

    def enc(fn, v, dtype=np.float64):
        return int(fn(np.array([v], dtype))[0])

    dbl = [
        [(1, (enc(double_to_sortable_long, lo), None), (enc(double_to_sortable_long, hi) + 1, None))]
        for lo, hi in DOUBLE_RANGES
    ]
    flt = [
        [(1, (None, enc(float_to_sortable_int, lo, np.float32)),
          (None, enc(float_to_sortable_int, hi, np.float32) + 1))]
        for lo, hi in DOUBLE_RANGES
    ]
    cnt = _point_counts(sf_dir, "double_pt", _double_point_values, dbl + flt)
    n = len(DOUBLE_RANGES)
    d, f = cnt["cnt"].to_pylist()[:n], cnt["cnt"].to_pylist()[n:]
    if d != f:
        # f32-representable bounds: only docs whose double rounds across
        # a bound could differ — none by design
        raise AssertionError(f"Double/Float point range counts disagree: {d} vs {f}")
    return cnt.slice(0, n)


# InetAddressPoint (document/InetAddressPoint.java): every doc carries
# the derived IPv4 ``10.0.0.0 + doc_id`` (v4-mapped 16-byte encoding);
# queries mix exact / CIDR-prefix / explicit ranges.  kind: "exact" ip,
# "prefix" (ip, plen), "range" (lo, hi) inclusive
INET_QUERIES = [
    ("exact", ("10.0.0.7",)),
    ("prefix", ("10.0.0.4", 30)),
    ("prefix", ("10.0.64.0", 18)),
    ("prefix", ("10.0.0.0", 9)),
    ("range", ("10.0.1.5", "10.0.200.250")),
]


def _inet_point_values(reader):
    from ..index import inet

    ids = (
        reader.stored_column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    )
    # encode("10.0.0.0") + doc_id, shifted by the v4-mapped base so the
    # 128-bit point value fits the int64 tree (see index/inet.py)
    base = inet.as_int("10.0.0.0") - inet.V4_MAPPED_BASE
    return (base + ids).reshape(-1, 1)


# HalfFloatPoint ranges over value = doc_id % 2048 (integers <= 2048 are
# exactly representable in half precision, so the RNE rounding is the
# identity and the oracle is an integer range count); [lo, hi] inclusive
HALF_FLOAT_RANGES = [(0.0, 100.0), (512.0, 1024.0), (1.0, 1.0), (2000.0, 2047.0)]


def _half_point_values(reader):
    from ..index.halffloat import half_to_sortable_short

    ids = (
        reader.stored_column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    )
    return (
        half_to_sortable_short((ids % 2048).astype(np.float32))
        .astype(np.int64)
        .reshape(-1, 1)
    )


def half_float_range_counts(sf_dir: str) -> pa.Table:
    """(qid, cnt) per HalfFloatPoint range query — values and bounds go
    through the real half-float sortable-short encoding."""
    from ..index.halffloat import half_to_sortable_short

    queries = [
        [(1, (int(half_to_sortable_short([lo])[0]),), (int(half_to_sortable_short([hi])[0]) + 1,))]
        for lo, hi in HALF_FLOAT_RANGES
    ]
    return _point_counts(sf_dir, "half_pt", _half_point_values, queries)


def inet_range_counts(sf_dir: str) -> pa.Table:
    """(qid, cnt) per InetAddressPoint query over the derived per-doc
    IPv4 point tree (exact = degenerate range, prefix = CIDR bounds)."""
    from ..index import inet

    bounds = []
    for kind, args in INET_QUERIES:
        if kind == "exact":
            v = inet.as_int(args[0])
            bounds.append((v, v))
        elif kind == "prefix":
            bounds.append(inet.prefix_range(*args))
        else:
            bounds.append(inet.range_bounds(*args))
    # shift into the tree's int64 space (all bounds are v4-mapped here)
    base = inet.V4_MAPPED_BASE
    queries = [[(1, (lo - base,), (hi - base + 1,))] for lo, hi in bounds]
    return _point_counts(sf_dir, "inet_pt", _inet_point_values, queries)


def range_counts(sf_dir: str) -> pa.Table:
    """(qid, cnt) for TermRangeQuery [lower, upper) matches."""
    from ..search.query import TermRangeQuery

    searcher = IndexSearcher(ensure_index(sf_dir))
    return count_table(searcher, [TermRangeQuery(lo, hi) for lo, hi in TERM_RANGES])


# MultiRangeQuery range unions over n_chars ([lo, hi), None = open);
# q3's ranges OVERLAP on purpose (union must dedupe)
MULTI_RANGES = [
    [(None, 100), (400, None)],
    [(100, 200), (300, 400)],
    [(None, 50), (150, 250), (350, 450)],
    [(100, 300), (200, 400)],
]


def multi_range_counts(sf_dir: str) -> pa.Table:
    """(qid, cnt) for PointMultiRangeQuery — a UNION of n_chars ranges
    answered by per-segment BKD intersects per range, deduplicated
    (reference sandbox/search/MultiRangeQuery.java)."""
    from ..index.points import build_point_index
    from ..search.query import PointMultiRangeQuery

    idx = ensure_index(sf_dir)
    build_point_index(idx, POINT_FIELDS)
    queries = [
        PointMultiRangeQuery(POINT_FIELDS, tuple(((lo, None), (hi, None)) for lo, hi in ranges))
        for ranges in MULTI_RANGES
    ]
    return count_table(IndexSearcher(idx), queries)


POINT_IN_SETS = [
    (100, 150, 200, 250),
    (60, 400, 777),
    (3, 401),
    (9999,),  # matches nothing
]


def point_in_set_counts(sf_dir: str) -> pa.Table:
    """(qid, cnt) for PointInSetQuery — n_chars IN (set) answered by ONE
    BKD traversal per query shared across the whole sorted value set
    (reference search/PointInSetQuery.java MergePointVisitor)."""
    from ..index.points import build_point_index
    from ..search.query import PointInSetQuery

    idx = ensure_index(sf_dir)
    build_point_index(idx, POINT_FIELDS)
    queries = [PointInSetQuery(POINT_FIELDS, 0, values) for values in POINT_IN_SETS]
    return count_table(IndexSearcher(idx), queries)


WILDCARDS = ["s*k", "w?ndow", "*tor", "b*", "?a??"]


def wildcard_matches(sf_dir: str, k: int = 10) -> pa.Table:
    """Wildcard queries (constant score): count row (rnk 0) + lowest-k
    matching docids per pattern — same shape as prefix_matches."""
    from ..search.query import WildcardQuery

    return _counts_and_hits(
        IndexSearcher(ensure_index(sf_dir)), [WildcardQuery(p) for p in WILDCARDS], k
    )


FUZZY_QUERIES = [
    ("spark", 1),
    ("merg", 1),
    ("windo", 2),
    ("customer", 2),
    # adjacent transpositions are ONE edit (FuzzyQuery.java default):
    # "saprk"~1 must reach "spark", "wnidow"~1 must reach "window"
    ("saprk", 1),
    ("wnidow", 1),
]


def fuzzy_matches(sf_dir: str, k: int = 10) -> pa.Table:
    """Fuzzy queries (Damerau-Levenshtein with transpositions, constant
    score): count row (rnk 0) + lowest-k matching docids per query."""
    from ..search.query import FuzzyQuery

    return _counts_and_hits(
        IndexSearcher(ensure_index(sf_dir)), [FuzzyQuery(t, me) for t, me in FUZZY_QUERIES], k
    )


FUZZY_SCORED_MAX_EXPANSIONS = 50


def fuzzy_scored_matches(sf_dir: str, k: int = 10) -> pa.Table:
    """FuzzyQuery under its DEFAULT rewrite —
    TopTermsBlendedFreqScoringRewrite (reference search/FuzzyQuery.java
    defaultRewriteMethod + MultiTermQuery.java:198-233): candidate terms
    within max_edits get boost = 1 at exact match else
    1 - ed/min(len(term), len(query)) (FuzzyTermsEnum.java:251-258), the
    top maxExpansions by (boost DESC, term ASC) build a BlendedTermQuery
    with BOOLEAN_REWRITE (SHOULD-sum clauses over EQUALIZED df=max
    stats).  (qid, rnk, doc_id) top-k; boosts computed in double
    (documented f32 deviation)."""
    from ..search.multiterm import fuzzy_term_dists
    from ..search.query import BlendedTermQuery

    searcher = IndexSearcher(ensure_index(sf_dir))
    queries = []
    for t, me in FUZZY_QUERIES:
        best: dict[str, int] = {}
        for r in searcher.readers:
            ids, dd = fuzzy_term_dists(r, t, me)
            for tid, ed in zip(ids.tolist(), dd.tolist()):
                s = r.term_string(int(tid))
                if s not in best or ed < best[s]:
                    best[s] = int(ed)
        cands = sorted(
            (
                (
                    s,
                    1.0 if ed == 0 else 1.0 - ed / min(len(s), len(t)),
                )
                for s, ed in best.items()
            ),
            key=lambda x: (-x[1], x[0]),
        )[:FUZZY_SCORED_MAX_EXPANSIONS]
        queries.append(
            BlendedTermQuery(
                tuple(s for s, _ in cands), tuple(b for _, b in cands), rewrite="boolean"
            )
            if cands
            else None
        )
    return hits_table(searcher, queries, k)


# CommonTermsQuery inputs: 'dup' is the one genuinely low-df corpus term
# (df/maxDoc ~5%), everything else sits ~77% — the 0.5 cutoff splits them
COMMON_TERMS_QUERIES = [
    ("dup", "the", "spark"),
    ("dup", "merge"),
    ("the", "spark"),  # all high-freq -> pure SHOULD fallback
    ("dup",),  # all low-freq -> pure SHOULD
]
CTQ_MAX_TERM_FREQ = 0.5


def common_terms_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """CommonTermsQuery (reference queries/CommonTermsQuery.java
    buildQuery/rewrite): terms split by document frequency against
    ``maxTermFrequency`` (df / maxDoc > cutoff -> high-freq); low-freq
    terms form the REQUIRED group (a SHOULD subquery under MUST —
    default lowFreqOccur SHOULD, minShouldMatch 1 via the MUST wrap),
    high-freq terms only BOOST docs the low group already matched; when
    one group is empty the other stands alone as a plain SHOULD.
    (qid, rnk, doc_id)."""
    idx = ensure_index(sf_dir)
    searcher = IndexSearcher(idx)
    all_terms = {t for q in COMMON_TERMS_QUERIES for t in q}
    stats = searcher.term_statistics(all_terms)
    max_doc = searcher.collection_stats.max_doc
    queries = []
    for terms in COMMON_TERMS_QUERIES:
        high = [
            t
            for t in terms
            if max_doc and stats[t].doc_freq / float(max_doc) > CTQ_MAX_TERM_FREQ
        ]
        low = [t for t in terms if t not in high]
        if low and high:
            q = bool_query(
                must=[bool_query(should=[TermQuery(t) for t in low])],
                should=[bool_query(should=[TermQuery(t) for t in high])],
            )
        else:
            q = bool_query(should=[TermQuery(t) for t in (low or high)])
        queries.append(q)
    return hits_table(searcher, queries, k)


# DiversifiedTopDocsCollector key field and per-key hit cap
DIVERSIFY_KEY = "lang"
DIVERSIFY_MAX_PER_KEY = 2


DIVERSIFIED_SCHEMA = _schema(
    qid=pa.int64(), key=pa.string(), doc_id=pa.int64(), score=pa.float64()
)


def _seg_diversified(
    reader, base: int, queries: list, weight, key_field: str, m: int
) -> pa.Table:
    """Per-segment diversified partials: each (qid, key)'s top-m hits by
    (float32 score desc, docid asc).  Per-key top-m merges associatively,
    so the driver reduce is bounded by segments x keys x m x qids rows."""
    import pandas as pd

    frames = []
    keys = reader.stored_column(key_field).to_numpy(zero_copy_only=False)
    for qid, docs, scores in _scored_matches(reader, [(t,) for t in queries], weight):
        frames.append(
            pd.DataFrame(
                {
                    "qid": qid,
                    "key": keys[docs],
                    "doc_id": docs + base,
                    "score": scores.astype(np.float32).astype(np.float64),
                }
            )
        )
    if not frames:
        return DIVERSIFIED_SCHEMA.empty_table()
    df = rank_rows(pd.concat(frames, ignore_index=True), ["qid", "key"], ["score", "doc_id"], [False, True], k=m)
    return pa.Table.from_pandas(df, schema=DIVERSIFIED_SCHEMA, preserve_index=False)


def diversified_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """DiversifiedTopDocsCollector analogue (reference
    misc/src/java/org/apache/lucene/misc/search/DiversifiedTopDocsCollector.java):
    global top-k in which no diversity key contributes more than
    DIVERSIFY_MAX_PER_KEY hits — equivalent to per-key top-m (the
    collector's per-key queues) followed by a global top-k of the
    survivors; docid tie-break is this engine's uniform discipline.
    (qid, rnk, doc_id)."""
    idx = ensure_index(sf_dir)
    cand = segment_map(
        idx,
        _seg_diversified,
        queries=QUERY_TERMS,
        weight=_terms_weight(IndexSearcher(idx), QUERY_TERMS),
        key_field=DIVERSIFY_KEY,
        m=DIVERSIFY_MAX_PER_KEY,
    )
    # per-key cap across segments, then the global top-k of the survivors
    df = rank_rows(
        gather(cand).to_pandas(), ["qid", "key"], ["score", "doc_id"], [False, True],
        k=DIVERSIFY_MAX_PER_KEY,
    )
    return top_rows(
        pa.Table.from_pandas(df, schema=DIVERSIFIED_SCHEMA, preserve_index=False),
        ["score", "doc_id"],
        [False, True],
        k,
    )


# (base term, rescore term, rescore weight) — weights are exact binary
# fractions so the double combine mirrors the oracle bit-for-bit
RESCORE_QUERIES = [
    ("spark", "join", 2.0),
    ("window", "group", 0.5),
    ("customer", "order", 1.0),
    ("merge", "stream", 0.25),
]
RESCORE_FIRST_N = 30


def rescored_topk(sf_dir: str, first_n: int = RESCORE_FIRST_N, k: int = 10) -> pa.Table:
    """QueryRescorer.rescore analogue (reference
    search/QueryRescorer.java:49-116): take the top ``first_n`` hits of
    the base query (by float32 score, docid tie), recombine each as
    ``base + weight * second`` when the doc also matches the rescore
    query (combine(firstPassScore, secondPassMatches, secondPassScore)),
    re-rank by the float32 combined score and return top-k.  Docs outside
    the first pass are never revisited — the rescorer's contract.
    (qid, rnk, doc_id)."""
    searcher = IndexSearcher(ensure_index(sf_dir))
    ranked = []
    for qid, (a, b, w) in enumerate(RESCORE_QUERIES):
        base = searcher.search(
            TermQuery(a), first_n, total_hits_threshold=np.inf, score_mode="COMPLETE"
        )
        second = dict(
            searcher.search(
                TermQuery(b),
                10**9,
                total_hits_threshold=np.inf,
                score_mode="COMPLETE",
            )
        )
        combined = [
            (
                d,
                np.float32(
                    float(s) + (w * float(second[d]) if d in second else 0.0)
                ),
            )
            for d, s in base
        ]
        combined.sort(key=lambda t: (-t[1], t[0]))
        ranked.append((qid, [d for d, _s in combined[:k]]))
    return ranked_table(ranked)


DISMAX_QUERIES = [
    (["spark", "join"], 0.0),
    (["merge", "window", "customer"], 0.3),
    (["hash", "stream", "vector"], 1.0),
]


def dismax_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """DisjunctionMax top-k: (qid, rnk, doc_id)."""
    from ..search.query import DisjunctionMaxQuery

    return hits_table(
        IndexSearcher(ensure_index(sf_dir)),
        [DisjunctionMaxQuery(tuple(TermQuery(t) for t in terms), tb) for terms, tb in DISMAX_QUERIES],
        k,
    )


REGEXPS = ["s.*k", "[bw].ndow|batch", "(jo|me).*", "[a-d].+r"]


def regexp_matches(sf_dir: str, k: int = 10) -> pa.Table:
    """Regexp queries (constant score): count row (rnk 0) + lowest-k docids."""
    from ..search.query import RegexpQuery

    return _counts_and_hits(
        IndexSearcher(ensure_index(sf_dir)), [RegexpQuery(p) for p in REGEXPS], k
    )


def bool_counts(sf_dir: str) -> pa.Table:
    """Exhaustive boolean match counts: (qid, cnt)."""
    queries = []
    for op, a, b in BOOL_COUNTS:
        if op == "and":
            queries.append(bool_query(must=[TermQuery(a), TermQuery(b)]))
        elif op == "or":
            queries.append(bool_query(should=[TermQuery(a), TermQuery(b)]))
        else:  # and_not
            queries.append(bool_query(must=[TermQuery(a)], must_not=[TermQuery(b)]))
    return count_table(IndexSearcher(ensure_index(sf_dir)), queries)


PROXIMITY_QUERIES = [
    (("spark", "join"), 6),
    (("merge", "window", "customer"), 12),
    (("hash", "stream"), 8),
    (("the", "customer", "spark"), 10),
]

# (source terms, window, filter term, negate) — Intervals.containing /
# notContaining over unordered()+maxwidth() sources
CONTAINING_QUERIES = [
    (("spark", "join"), 8, "order", False),
    (("spark", "join"), 8, "order", True),
    (("merge", "customer"), 10, "the", False),
    (("hash", "stream"), 9, "row", True),
]

# (slots of alternatives, window) — Intervals.unordered over Intervals.or
OR_PROXIMITY_QUERIES = [
    ((("spark", "merge"), ("customer",)), 7),
    ((("join", "order"), ("window", "batch")), 6),
    ((("hash",), ("stream", "vector"), ("row",)), 12),
]

# Surround query-language strings (queryparser/surround QueryParser.jj);
# one per grammar production: infix booleans, ordered W / unordered N
# distance (infix + prefix forms), OR sources inside distance, truncation,
# grouping, precedence mixing.  Kept lowercase (standard analyzer norm).
SURROUND_QUERIES = [
    "spark AND join",
    "merge OR window",
    "customer NOT stream",
    "spark 3W join",
    "merge 4N customer",
    "3N(hash, stream, row)",
    "2W(the, customer)",
    "(spark OR merge) 5N customer",
    "cust* AND join",
    "spark AND join 2W order",
]


def containing_proximity_matches(sf_dir: str):
    """(qid, doc_id, n) for Intervals.containing/notContaining — minimal
    unordered windows filtered by containment of a third term."""
    idx = ensure_index(sf_dir, index_options="positions")
    return _positional_matches_ds(idx, CONTAINING_QUERIES, "containing_proximity", "n")


def or_proximity_matches(sf_dir: str):
    """(qid, doc_id, n) for unordered proximity with OR-slot sources."""
    idx = ensure_index(sf_dir, index_options="positions")
    return _positional_matches_ds(idx, OR_PROXIMITY_QUERIES, "or_proximity", "n")


def proximity_matches(sf_dir: str):
    """(qid, doc_id) docs where ALL the query's terms co-occur inside a
    window of W consecutive token positions, any order (reference
    queries/intervals Intervals.unordered().maxwidth() analogue) —
    distributed per segment."""
    idx = ensure_index(sf_dir, index_options="positions")
    return _positional_matches_ds(idx, PROXIMITY_QUERIES, "proximity", None)


def ordered_proximity_matches(sf_dir: str):
    """(qid, doc_id, n_starts): in-ORDER within-window chains (reference
    Intervals.ordered().maxwidth()); n_starts = first-term positions that
    begin a valid chain — distributed per segment."""
    idx = ensure_index(sf_dir, index_options="positions")
    return _positional_matches_ds(idx, PROXIMITY_QUERIES, "ordered_proximity", "n_starts")


def surround_matches(sf_dir: str):
    """(qid, doc_id) match sets for the surround query-language set
    (queryparser/surround: booleans + W/N distance + truncation), parsed
    and evaluated per segment — distributed like the intervals family."""
    idx = ensure_index(sf_dir, index_options="positions")
    return _positional_matches_ds(idx, SURROUND_QUERIES, "surround", None)


def _span_queries():
    """The SpanQuery driver set — one AST per combinator (near ordered /
    unordered, or-source nesting, not with pre/post, first, containing,
    within) so every span relation is oracle-checked.  Built lazily (a
    function, not a module constant) to keep the spans import off the
    module-load path."""
    from ..search.spans import (
        SpanContaining,
        SpanFirst,
        SpanNear,
        SpanNot,
        SpanOr,
        SpanPositionRange,
        SpanTerm,
        SpanWithin,
    )

    t = SpanTerm
    return [
        # ordered near over plain terms
        SpanNear((t("spark"), t("join")), slop=4, in_order=True),
        # unordered near, 3 terms
        SpanNear((t("merge"), t("window"), t("customer")), slop=8, in_order=False),
        # nested: or-source inside an ordered near (SpanOrQuery as clause)
        SpanNear((SpanOr((t("join"), t("order"))), t("customer")), slop=3, in_order=True),
        # not: unordered near windows with no nearby "batch" (pre/post buffer)
        SpanNot(
            SpanNear((t("window"), t("group")), slop=6, in_order=False),
            t("batch"),
            pre=1,
            post=1,
        ),
        # first: "query" within the first 8 positions
        SpanFirst(t("query"), 8),
        # position range: near pairs fully inside positions [2, 30)
        # (SpanPositionRangeQuery — SpanFirst with a lower bound)
        SpanPositionRange(
            SpanNear((t("hash"), t("join")), slop=5, in_order=False), 2, 30
        ),
        # containing: ordered near spans that contain an "order" occurrence
        SpanContaining(
            SpanNear((t("the"), t("customer")), slop=5, in_order=True), t("order")
        ),
        # within: "group" occurrences inside an unordered near window
        SpanWithin(
            t("group"), SpanNear((t("window"), t("query")), slop=6, in_order=False)
        ),
        # nested near-of-near: ordered chain whose second clause is itself
        # an unordered pair (composition depth 2)
        SpanNear(
            (t("spark"), SpanNear((t("group"), t("query")), slop=4, in_order=False)),
            slop=6,
            in_order=True,
        ),
    ]


def span_matches(sf_dir: str):
    """(qid, doc_id, n) distinct-span counts for the SpanQuery family
    (queries/spans: SpanTerm/Near/Or/Not/First/Containing/Within) —
    distributed per segment like the intervals family."""
    idx = ensure_index(sf_dir, index_options="positions")
    return _positional_matches_ds(idx, _span_queries(), "spans", "n")


def ensure_masked_index(sf_dir: str) -> str:
    """text + title sub-indexes with POSITIONS over the titled corpus
    (one shared docid space) — the FieldMaskingSpanQuery fixture."""
    from ..index.multifield import FieldSpec, build_multi_field_index

    src_dir = ensure_titled_corpus(sf_dir)
    idx = index_dir_for(sf_dir) + "-masked"
    if any(
        mf.latest_generation(os.path.join(idx, f)) is None for f in ("text", "title")
    ):
        build_multi_field_index(
            src_dir,
            idx,
            [
                FieldSpec("text", "text", "standard", "positions"),
                FieldSpec("title", "title", "standard", "positions"),
            ],
            docs_per_segment=DOCS_PER_SEGMENT,
        )
    return idx


def _masked_span_queries():
    """FieldMaskingSpanQuery driver set (queries/spans/FieldMaskingSpan
    Query.java): masked clauses read the TITLE field's positions (the
    first TITLE_TOKENS text positions, so cross-field nearness is
    well-defined) inside text-field span combinators."""
    from ..search.spans import SpanFieldMasked, SpanNear, SpanOr, SpanTerm

    t = SpanTerm
    m = lambda term: SpanFieldMasked(SpanTerm(term), "title")  # noqa: E731
    return [
        # ordered: a title occurrence of "window" then a text "group"
        SpanNear((m("window"), t("group")), slop=6, in_order=True),
        # unordered mix across the two fields
        SpanNear((m("scan"), t("order")), slop=4, in_order=False),
        # SpanOr across fields: title "merge" or text "merge" occurrences
        SpanOr((m("merge"), t("merge"))),
        # masked pair entirely in the title, contained near a text term
        SpanNear((m("key"), m("value"), t("join")), slop=8, in_order=False),
    ]


def field_masked_matches(sf_dir: str):
    """(qid, doc_id, n) distinct-span counts for the FieldMaskingSpanQuery
    family — per aligned (text, title) segment pair."""
    from ..search.spans import MultiFieldSpanReader, span_matches_segment

    idx = ensure_masked_index(sf_dir)
    titles = _paired_segments(idx, "title")
    queries = _masked_span_queries()

    def _seg(text, doc_base: int) -> pa.Table:
        out_q, out_d, out_n = [], [], []
        view = MultiFieldSpanReader(
            text, {"text": text, "title": open_segment(titles[doc_base])}
        )
        for qid, node in enumerate(queries):
            docs, n = span_matches_segment(view, node)
            out_q.extend([qid] * len(docs))
            out_d.extend((docs + doc_base).tolist())
            out_n.extend(n.tolist())
        return pa.table(
            {
                "qid": pa.array(out_q, pa.int64()),
                "doc_id": pa.array(out_d, pa.int64()),
                "n": pa.array(out_n, pa.int64()),
            }
        )

    return segment_map(os.path.join(idx, "text"), _seg)


def _automaton_queries():
    """The TermAutomatonQuery driver set (sandbox/search/
    TermAutomatonQuery.java): gapped phrase, branching slot, double gap,
    and a two-length diamond — each shape the plain phrase family can't
    express in one query."""
    from ..search.automaton import ANY, TermAutomatonQuery as TA

    return [
        # spark . ANY . join  (one-token gap)
        TA(4, ((0, 1, "spark"), (1, 2, ANY), (2, 3, "join")), (3,)),
        # (join | merge) order  (branching first slot)
        TA(3, ((0, 1, "join"), (0, 1, "merge"), (1, 2, "order")), (2,)),
        # customer . ANY . ANY . order  (two-token gap)
        TA(
            5,
            ((0, 1, "customer"), (1, 2, ANY), (2, 3, ANY), (3, 4, "order")),
            (4,),
        ),
        # diamond: window group  OR  window . ANY . group (two path lengths)
        TA(
            5,
            (
                (0, 1, "window"),
                (1, 4, "group"),
                (1, 2, ANY),
                (2, 4, "group"),
            ),
            (4,),
        ),
    ]


# IDVersion PK lookups: (id, min_version) pairs hitting the found /
# version-too-low / absent paths (version field = n_chars)
PK_LOOKUPS = [(0, 0), (1, 100), (2, 10000), (123, 0), (499, 50), (99999, 0)]


def pk_lookup_rows(sf_dir: str) -> pa.Table:
    """IDVersion seekExact over the PK sidecar (sandbox/codecs/idversion
    + PerThreadPKLookup — see index/idversion.py) in the multiterm
    family's (qid, rnk, doc_id) shape: rnk=0 carries found (0/1), rnk=1
    the version, -1 when the seek fails (absent id OR version below
    min_version — seekExact returns false for both)."""
    from ..index.idversion import PKLookup

    idx = ensure_index(sf_dir)
    pk = PKLookup(idx, id_field="doc_id", version_field="n_chars")
    qids, rnks, vals = [], [], []
    for qid, (idv, minv) in enumerate(PK_LOOKUPS):
        v = pk.seek_exact(idv, minv)
        qids += [qid, qid]
        rnks += [0, 1]
        vals += [int(v is not None), -1 if v is None else int(v)]
    return pa.table(
        {
            "qid": pa.array(qids, pa.int64()),
            "rnk": pa.array(rnks, pa.int64()),
            "doc_id": pa.array(vals, pa.int64()),
        }
    )


# StandardQueryParser fn: interval expressions (queryparser/flexible
# StandardSyntaxParser.jj IntervalExpr) — parsed by search/intervals
# .parse_fn, evaluated as minimal-interval sets, oracle compiled from
# the same ASTs.  Terms chosen from the corpus vocabulary.
FN_QUERIES = [
    "fn:ordered(join order batch)",
    "fn:maxgaps(2 fn:ordered(window query))",
    'fn:or("the customer" "the supplier")',
    "fn:atleast(2 spark group query)",
    "fn:unordered(fn:or(join merge) customer)",
    "fn:before(join order)",
    "fn:within(group 3 spark)",
    "fn:maxwidth(5 fn:unordered(window batch))",
    "fn:containing(fn:extend(the 0 3) customer)",
    "fn:notContainedBy(join fn:unordered(the order))",
    "fn:overlapping(fn:extend(spark 0 2) fn:ordered(group query))",
    "fn:unorderedNoOverlaps(fn:extend(window 0 1) batch)",
    "fn:after(merge fn:or(join group))",
    "fn:notWithin(order 2 customer)",
    "fn:phrase(the fn:or(customer supplier))",
]


def _fn_queries():
    from ..search.intervals import parse_fn

    return [parse_fn(s) for s in FN_QUERIES]


def intervals_fn_matches(sf_dir: str):
    """(qid, doc_id, n) minimal-interval match sets for the fn: interval
    expression set — distributed per segment like the spans arm."""
    idx = ensure_index(sf_dir, index_options="positions")
    return _positional_matches_ds(idx, _fn_queries(), "intervals_fn", "n")


# RescoreTopNQuery inputs: (inner match terms, rescore expression)
RESCORE_TOPN_QUERIES = [
    (("spark",), "ln(1 + n_chars)"),
    (("join", "order"), "n_chars - 97 * floor(n_chars / 97)"),
    (("the",), "-abs(n_chars - 250)"),
]
RESCORE_TOPN_N = 10


def rescore_topn_topk(sf_dir: str) -> pa.Table:
    """RescoreTopNQuery (core/search/RescoreTopNQuery.java): the inner
    query's MATCH SET (collected with COMPLETE_NO_SCORES — the inner
    score never contributes, unlike FunctionScoreQuery) is re-scored
    purely by a DoubleValuesSource over stored columns at rewrite time
    and cut to the top n by HitQueue order (score DESC, lower doc wins
    ties).  Inner = SHOULD-of-terms; expression compiled by the
    expressions module (the DoubleValuesSource seam).  (qid, rnk,
    doc_id)."""
    from ..search.expressions import compile_expression

    searcher = IndexSearcher(ensure_index(sf_dir))
    ranked = []
    for qid, (terms, expr_src) in enumerate(RESCORE_TOPN_QUERIES):
        expr = compile_expression(expr_src)
        all_docs, all_vals = [], []
        for reader, seg in zip(searcher.readers, searcher.manifest["segments"]):
            # match set only — reuse the non-scoring count machinery's
            # per-segment union (terms are plain postings reads)
            d = np.unique(np.concatenate([_live_docs(reader, t) for t in terms]))
            if not len(d):
                continue
            cols = {"n_chars": reader.stored_column("n_chars").to_numpy()[d]}
            all_docs.append(d + seg["doc_base"])
            all_vals.append(np.asarray(expr.evaluate(cols), dtype=np.float64))
        if not all_docs:
            continue
        dd = np.concatenate(all_docs)
        vv = np.concatenate(all_vals)
        ranked.append((qid, dd[np.lexsort((dd, -vv))[:RESCORE_TOPN_N]]))
    return ranked_table(ranked)


INTERVAL_PIVOT = 1.0  # IntervalQuery's default saturation pivot


def _seg_interval_sloppy(r, base: int, queries: list) -> pa.Table:
    """(qid, doc_id, fi) per segment: fixed-point sloppy interval
    frequencies (see intervals.sloppy_freq_int)."""
    from ..search.intervals import eval_intervals, min_extent, sloppy_freq_int

    qids, docs, fis = [], [], []
    for qid, node in enumerate(queries):
        me = min_extent(node)
        res = eval_intervals(r, node)
        for d in sorted(res):
            if r.live is not None and not r.live[d]:
                continue
            fi = sloppy_freq_int(res[d], me)
            if fi:
                qids.append(qid)
                docs.append(base + d)
                fis.append(fi)
    return pa.table(
        {
            "qid": pa.array(qids, pa.int64()),
            "doc_id": pa.array(docs, pa.int64()),
            "fi": pa.array(fis, pa.int64()),
        }
    )


def interval_score_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """IntervalQuery top-k (queries/intervals/IntervalQuery.java +
    IntervalScoreFunction.saturationFunction(1): score = boost * (1 -
    pivot/(pivot + freq)) over the sloppy interval frequency) for every
    fn: expression.  freq rides the 2^-20 fixed-point grid so the
    distributed partials are combine-order exact; the final score is one
    double expression mirrored by the oracle.  (qid, rnk, doc_id)."""
    from ..search.intervals import SLOPPY_SCALE

    idx = ensure_index(sf_dir, index_options="positions")
    # bounded: one row per (query, matching doc)
    parts = gather(segment_map(idx, _seg_interval_sloppy, queries=_fn_queries()))
    score = 1.0 - INTERVAL_PIVOT / (INTERVAL_PIVOT + parts["fi"].to_numpy() / SLOPPY_SCALE)
    parts = parts.append_column("score", pa.array(score, pa.float64()))
    return top_rows(parts, ["score", "doc_id"], [False, True], k)


def automaton_matches(sf_dir: str):
    """(qid, doc_id) match sets of the TermAutomatonQuery set —
    distributed per segment like the intervals family."""
    idx = ensure_index(sf_dir, index_options="positions")
    return _positional_matches_ds(idx, _automaton_queries(), "automaton", None)


def automaton_oracle_sql() -> str:
    """The automaton arm's oracle, COMPILED from the same query objects
    the engine runs (path enumeration -> positional joins)."""
    from ..search.automaton import automaton_path_sql

    selects = [
        automaton_path_sql(q.paths(), qid)
        for qid, q in enumerate(_automaton_queries())
    ]
    return " UNION ALL ".join(selects)


def span_score_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """BM25 top-k over the SpanQuery set through SpanScoreQuery — the
    SpanWeight/SpanScorer scoring analogue: freq = distinct-span count,
    idf summed over every term occurrence in the tree (qid, rnk,
    doc_id)."""
    from ..search.query import SpanScoreQuery

    return hits_table(
        IndexSearcher(ensure_index(sf_dir, index_options="positions")),
        [SpanScoreQuery(node) for node in _span_queries()],
        k,
    )


# --- facet counts (lucene/facet module analogue) --------------------------

# LongRangeFacetCounts buckets over n_chars (facet/range/LongRange.java:
# min inclusive, max exclusive) + the DrillDownQuery drill range
FACET_RANGES = [(0, 100), (100, 200), (200, 400), (400, 1 << 62)]
# RangeOnRangeFacetCounts (facet/rangeonrange/RangeOnRangeFacetCounts.java
# + OverlappingLongRangeCounter): CLOSED facet buckets counted against the
# per-doc [lo, hi] range field (the range_field_counts synthesis) — a doc
# lands in EVERY bucket its range overlaps
RANGE_FACET_BUCKETS = [
    ("0-499", 0, 499),
    ("500-999", 500, 999),
    ("1000-1499", 1000, 1499),
    ("1500-2047", 1500, 2047),
]
DRILL_RANGE = (100, 400)
# DrillSideways dims: {lang = DRILL_LANG, n_chars in DRILL_RANGE}.  The
# lang-dimension sideways counts (all dims but lang) are the existing
# 'drilldown_lang' facet; 'sideways_range' drops the range dim instead,
# 'drill_hits' applies every dim (facet/DrillSideways.java semantics).
DRILL_LANG = "en"
# RandomSamplingFacetsCollector analogue: facet counts over a SAMPLE of
# the matching docs, then amortized back by the inverse sampling rate
# (facet/RandomSamplingFacetsCollector.java createSample +
# amortizeFacetCounts).  Deviation (documented): the sample gate is the
# repo's deterministic md5 hash gate on the STORED doc_id (stable under
# merges and re-segmentation, exactly reproducible in SQL) instead of
# the reference's XORShift64 random stream; amortization is integer
# floor division (n * 100 // pct) so combine order can't perturb it.
SAMPLE_FACET_PCT = 33
# LongValueFacetCounts (facet/LongValueFacetCounts.java): counts per
# distinct value of a LongValuesSource over the matching docs — the
# source here is the expression n_chars // LONG_VALUE_DIV
LONG_VALUE_DIV = 64
# HistogramCollector bucketWidth (PRIME, so tree cells produced by the
# power-of-2-ish median splits genuinely cross buckets and both the bulk
# and the scan path get exercised); reference default maxBuckets = 1024
HIST_BUCKET_W = 37
# FacetSet family (facet/facetset/): each doc carries ONE 2-dim long
# facet set (n_chars % 8, n_chars // 100); ExactFacetSetMatcher counts
# docs whose set equals a target tuple, RangeFacetSetMatcher counts docs
# whose dims fall in per-dim inclusive ranges (MatchingFacetSetsCounts
# increments per matching set per doc — one set per doc here)
FACETSET_DIMS = lambda nc: (nc % 8, nc // 100)  # noqa: E731
FACETSET_EXACT = [(4, 3), (0, 2), (6, 0), (1, 1)]
FACETSET_RANGES = [  # (label, (d0_lo, d0_hi), (d1_lo, d1_hi)) all inclusive
    ("r0", (2, 5), (0, 2)),
    ("r1", (0, 3), (1, 3)),
]
# DynamicRangeUtil (facet/range/DynamicRangeUtil.java): equi-weight
# dynamic ranges over value = n_chars with weight = n_chars % DYN_WEIGHT_MOD
# (zero-weight docs are skipped — the reference's skew guard), topN bins
DYN_TOPN = 7
DYN_WEIGHT_MOD = 5


def _sample_gate(stored_ids: np.ndarray, pct: int) -> np.ndarray:
    """Deterministic per-doc sample mask: md5_u64('graft'||doc_id) % 100
    < pct (the tx_stratified_sample kernel, DuckDB md5_number_lower
    parity)."""
    from ..ops.util import md5_u64

    return np.fromiter(
        (md5_u64(f"graft{int(i)}") % 100 < pct for i in stored_ids),
        dtype=bool,
        count=len(stored_ids),
    )


def _range_labels(vals, ranges) -> tuple:
    """Bucket int values into range labels '[lo,hi)' ('inf' for the open
    top); values outside every range get None (Lucene counts only docs
    inside some range)."""
    import numpy as np

    # searchsorted over the start edges assumes sorted CONTIGUOUS ranges
    # (a gap would silently count gap values into the preceding bucket) —
    # assert it instead of relying on the caller (ADVICE r3)
    for (lo_a, hi_a), (lo_b, _hi_b) in zip(ranges, ranges[1:]):
        assert lo_a < hi_a and hi_a == lo_b, f"ranges not sorted/contiguous: {ranges}"
    edges = np.array([r[0] for r in ranges] + [ranges[-1][1]], dtype=np.int64)
    idx = np.searchsorted(edges, vals, side="right") - 1
    ok = (idx >= 0) & (idx < len(ranges))
    labels = [
        f"[{lo},{'inf' if hi >= 1 << 62 else hi})" for lo, hi in ranges
    ]
    return idx, ok, labels


_TAX_CACHE: dict = {}


def _tax(path: str):
    """Per-worker taxonomy cache (the artifact is label-set-sized)."""
    r = _TAX_CACHE.get(path)
    if r is None:
        from ..index.taxonomy import load_taxonomy

        r = _TAX_CACHE[path] = load_taxonomy(path)
    return r


def ensure_taxonomy(idx: str, sf_dir: str) -> str:
    """Build the side-car taxonomy (DirectoryTaxonomyWriter analogue:
    index/taxonomy.py) for the lang/source hierarchical dim if absent:
    one Ray pass emits per-batch DISTINCT (lang, source) pairs — a
    label-set-sized partial, never doc-scale — and the writer assigns
    ordinals deterministically."""
    from .. import store as _store
    from ..index.taxonomy import TaxonomyWriter

    tax_path = os.path.join(idx, "taxonomy.json")
    if _store.exists(tax_path):
        return tax_path
    ds = _corpus(sf_dir, ["lang", "source"])

    def _uniq(b: pa.Table) -> pa.Table:
        return b.group_by(["lang", "source"]).aggregate([])

    # bounded driver collect: distinct label pairs only (taxonomies are
    # small by definition; the doc-scale work stayed in the map phase)
    pairs = gather(
        ds.map_batches(_uniq, batch_format="pyarrow"),
        pa.schema([("lang", pa.string()), ("source", pa.string())]),
    ).to_pandas()
    w = TaxonomyWriter(tax_path)
    w.add_categories(
        {f"{l}/{s}" for l, s in zip(pairs["lang"], pairs["source"])}
    )
    w.commit()
    return tax_path


FACET_SCHEMA = _schema(facet=pa.string(), qid=pa.int64(), value=pa.string(), n=pa.int64())


def _facet_table(rows) -> pa.Table:
    """(facet, qid, value, n) rows as a FACET_SCHEMA table."""
    return pa.Table.from_pylist([dict(zip(FACET_SCHEMA.names, row)) for row in rows], FACET_SCHEMA)


def _seg_facet_counts(r, doc_base: int, terms: list[str], tax_path: str | None = None) -> pa.Table:
    """Per-segment PARTIAL facet counts for the facet FAMILY: for each
    query term, matching-doc counts per (a) string facet value ('lang',
    'source' — reference facet/ FastTaxonomyFacetCounts over our
    stored-column doc values), (b) numeric range bucket over n_chars
    (facet/range/LongRangeFacetCounts), and (c) lang counts after
    drilling into the n_chars DRILL_RANGE (DrillDownQuery: base query +
    dimension filter).  One postings decode per term feeds all four
    facets; the shuffle sees only (facet, qid, value, n) partials —
    never doc lists."""
    rows = []

    def add(facet: str, qid: int, counts) -> None:
        rows.extend((facet, qid, str(v), int(n)) for v, n in counts)

    def emit(facet: str, qid: int, arr: pa.Array) -> None:
        add(facet, qid, ((it["values"], it["counts"]) for it in pc.value_counts(arr).to_pylist()))

    def bucket_counts(facet: str, qid: int, vals, ranges) -> None:
        idx, ok, labels = _range_labels(vals, ranges)
        if ok.any():
            cnt = np.bincount(idx[ok], minlength=len(labels))
            add(facet, qid, ((lab, c) for lab, c in zip(labels, cnt) if c))

    lang = r.stored_column("lang")
    source = r.stored_column("source")
    nchars = r.stored_column("n_chars").to_numpy()
    ids_np = r.stored_column("doc_id").to_numpy()
    # HistogramCollector (reference sandbox/facet/plain/histograms/
    # HistogramCollector.java floorDiv buckets + HistogramCollector
    # Manager merge = this family's groupby-sum) with the
    # PointTreeBulkCollector.java fast path: the match-all histogram
    # counts whole point-tree cells that land in one bucket without
    # visiting values.  Segments with deletes fall back to the
    # doc-values scan (the reference bulk path requires no liveDocs).
    from ..index.points import PointTree, point_file

    hist_tree = point_file(r.src_dir, "n_chars_doc_id")
    if r.live is None and os.path.exists(hist_tree):
        hb, hc, _ = PointTree.load(hist_tree).histogram(0, HIST_BUCKET_W)
    else:
        live_nc = nchars if r.live is None else nchars[r.live]
        hb, hc = np.unique(live_nc // HIST_BUCKET_W, return_counts=True)
    add("histogram", 0, ((int(v), c) for v, c in zip(hb, hc)))
    # FastTaxonomyFacetCounts analogue: one leaf-ordinal per doc
    # (facet/taxonomy/FastTaxonomyFacetCounts.java counts int
    # ordinals, not strings); the exchange below carries bincount
    # partials over ordinals, rollup happens after the global sum
    doc_ord = None
    if tax_path is not None:
        tax = _tax(tax_path)
        lang_all = lang.to_numpy(zero_copy_only=False).astype(str)
        src_all = source.to_numpy(zero_copy_only=False).astype(str)
        pair = np.char.add(np.char.add(lang_all, "/"), src_all)
        uniq, inv = np.unique(pair, return_inverse=True)
        uniq_ords = np.array([tax.ordinal(p) for p in uniq], np.int64)
        if (uniq_ords < 0).any():
            missing = [p for p, o in zip(uniq, uniq_ords) if o < 0]
            raise ValueError(f"labels missing from taxonomy: {missing[:5]}")
        doc_ord = uniq_ords[inv]
        n_ords = len(tax)
    # one deterministic sample mask per segment (stored ids: stable
    # under merges), shared by every term's sampled-facet pass
    sample_mask = _sample_gate(ids_np, SAMPLE_FACET_PCT)
    # per-doc [lo, hi] range field (range_field_counts synthesis)
    rf_lo = (ids_np.astype(np.int64) * 17) % 2000
    rf_hi = rf_lo + 1 + nchars.astype(np.int64) % 97
    for qid, docs in _term_matches(r, terms):
        take = pa.array(docs)
        emit("lang", qid, lang.take(take))
        emit("source", qid, source.take(take))
        # RandomSamplingFacetsCollector: lang counts over the doc
        # SAMPLE only (amortization happens after the global sum)
        sampled = docs[sample_mask[docs]]
        if len(sampled):
            emit("sampled_lang", qid, lang.take(pa.array(sampled)))
        # hierarchical taxonomy dim lang/source (facet/taxonomy
        # FacetsConfig.setHierarchical + TaxonomyFacetCounts rollup):
        # child counts at 'lang/source', parent counts at 'lang' are
        # the rollup sums over the children
        paths = pc.binary_join_element_wise(
            lang.take(take).cast(pa.string()),
            source.take(take).cast(pa.string()),
            "/",
        )
        emit("taxo", qid, paths)
        emit("taxo", qid, lang.take(take))
        # ordinal-machinery twin of the string 'taxo' rows above:
        # per-segment bincount over LEAF ordinals (ints on the wire)
        if doc_ord is not None:
            cnt = np.bincount(doc_ord[docs], minlength=n_ords)
            add("taxo_ord_leaf", qid, ((int(o), cnt[o]) for o in np.nonzero(cnt)[0]))
        nc = nchars[docs]
        bucket_counts("n_chars_range", qid, nc, FACET_RANGES)
        # RangeOnRangeFacetCounts: the doc's [lo, hi] RANGE counts in
        # every CLOSED bucket it overlaps (multi-bucket membership,
        # unlike the single-bucket n_chars point ranges above)
        dlo, dhi = rf_lo[docs], rf_hi[docs]
        overlaps = (
            (lab, int(((dlo <= bhi) & (dhi >= blo)).sum())) for lab, blo, bhi in RANGE_FACET_BUCKETS
        )
        add("range_on_range", qid, ((lab, c) for lab, c in overlaps if c))
        # Int-association facet (facet/taxonomy/
        # TaxonomyFacetIntAssociations.java, AssociationAggregation
        # Function.SUM over IntAssociationFacetField): each matching
        # doc contributes its n_chars association value to its lang
        # label; partials sum in the same (facet, qid, value, n) shape
        lang_np = lang.take(take).to_numpy(zero_copy_only=False)
        add("assoc_sum_lang", qid, ((lab, nc[lang_np == lab].sum()) for lab in np.unique(lang_np)))
        # LongValueFacetCounts (facet/LongValueFacetCounts.java):
        # per-distinct-value counts of the LongValuesSource
        # n_chars // LONG_VALUE_DIV over the matching docs
        add("long_value", qid, ((int(v), c) for v, c in zip(*np.unique(nc // LONG_VALUE_DIV, return_counts=True))))
        # FacetSet matchers (facet/facetset/MatchingFacetSetsCounts +
        # ExactFacetSetMatcher / RangeFacetSetMatcher): one 2-dim set
        # per doc; counts per matcher label (only nonzero emitted,
        # matching getTopChildren's skip-zero rule)
        d0, d1 = FACETSET_DIMS(nc)
        exact = ((f"{t0}/{t1}", ((d0 == t0) & (d1 == t1)).sum()) for t0, t1 in FACETSET_EXACT)
        add("facetset_exact", qid, ((lab, c) for lab, c in exact if c))
        boxes = (
            (lab, ((d0 >= l0) & (d0 <= h0) & (d1 >= l1) & (d1 <= h1)).sum())
            for lab, (l0, h0), (l1, h1) in FACETSET_RANGES
        )
        add("facetset_range", qid, ((lab, c) for lab, c in boxes if c))
        drill = (nc >= DRILL_RANGE[0]) & (nc < DRILL_RANGE[1])
        if drill.any():
            emit("drilldown_lang", qid, lang.take(pa.array(docs[drill])))
        # DrillSideways over dims {lang, n_chars range}: range-bucket
        # counts with the range dim DROPPED (lang dim still applied),
        # plus the all-dims hit count
        lang_match = pc.equal(lang.take(take), DRILL_LANG).to_numpy(zero_copy_only=False)
        if lang_match.any():
            bucket_counts("sideways_range", qid, nc[lang_match], FACET_RANGES)
        n_hits = int((drill & lang_match).sum())
        add("drill_hits", qid, [("hits", n_hits)] if n_hits else [])
    return _facet_table(rows)


def facet_counts(sf_dir: str):
    """(facet, qid, value, n): the facet family — string facets, numeric
    range buckets, and drill-down counts per query term — partial per
    segment, summed in one small groupby."""
    from ray.data.aggregate import Sum

    from ..index.points import build_point_index

    idx = ensure_index(sf_dir)
    # persisted per-segment point trees feed the histogram bulk path
    build_point_index(idx, POINT_FIELDS)
    tax_path = ensure_taxonomy(idx, sf_dir)
    partials = segment_map(idx, _seg_facet_counts, terms=QUERY_TERMS, tax_path=tax_path)
    final = partials.groupby(["facet", "qid", "value"]).aggregate(Sum("n", alias_name="n"))

    # per-QID groups (map_groups, not map_batches): the taxonomy rollup
    # needs every leaf-ordinal row of a qid in one call — an arbitrary
    # batch boundary after the sum could split them and double-emit
    def _finish(b: pa.Table) -> pa.Table:
        out = pa.table(
            {
                "facet": b.column("facet"),
                "qid": b.column("qid"),
                "value": b.column("value"),
                "n": pc_cast_i64(b.column("n")),
            }
        )
        # amortizeFacetCounts: scale the sampled counts back by the
        # inverse sampling rate AFTER the global sum (each grouped key
        # appears exactly once, so per-row derivation is sound); integer
        # floor keeps the result combine-order-independent

        # taxonomy rollup (TaxonomyFacets.java): the exchange carried
        # LEAF-ordinal bincount partials; after the global sum, add each
        # child's count into its parent and translate ordinals to paths.
        # The summed vector is taxonomy-sized (labels, not docs).
        tm = pc.equal(out.column("facet"), "taxo_ord_leaf")
        if pc.any(tm).as_py():
            tax = _tax(tax_path)
            leaf = out.filter(tm)
            out = out.filter(pc.invert(tm))
            rows = {"facet": [], "qid": [], "value": [], "n": []}
            qarr = leaf.column("qid").to_numpy(zero_copy_only=False)
            oarr = leaf.column("value").to_numpy(zero_copy_only=False)
            narr = leaf.column("n").to_numpy(zero_copy_only=False)
            for q in np.unique(qarr):
                vec = np.zeros(len(tax), np.int64)
                sel = qarr == q
                vec[oarr[sel].astype(np.int64)] = narr[sel]
                vec = tax.rollup(vec)
                for o in np.nonzero(vec)[0]:
                    if o == 0:
                        continue  # root "" is not a facet label
                    rows["facet"].append("taxo_ord")
                    rows["qid"].append(int(q))
                    rows["value"].append(tax.path(int(o)))
                    rows["n"].append(int(vec[o]))
            out = pa.concat_tables(
                [
                    out,
                    pa.table(
                        {
                            "facet": pa.array(rows["facet"], pa.string()),
                            "qid": pa.array(rows["qid"], out.column("qid").type),
                            "value": pa.array(rows["value"], pa.string()),
                            "n": pa.array(rows["n"], pa.int64()),
                        }
                    ),
                ]
            )

        m = pc.equal(out.column("facet"), "sampled_lang")
        if pc.any(m).as_py():
            s = out.filter(m)
            amort = pa.table(
                {
                    "facet": pa.array(
                        ["sampled_lang_amortized"] * len(s), pa.string()
                    ),
                    "qid": s.column("qid"),
                    "value": s.column("value"),
                    "n": pa.array(
                        [
                            int(v) * 100 // SAMPLE_FACET_PCT
                            for v in s.column("n").to_pylist()
                        ],
                        pa.int64(),
                    ),
                }
            )
            out = pa.concat_tables([out, amort])
        return out

    return final.groupby("qid").map_groups(_finish, batch_format="pyarrow")


DV_STATS_SCHEMA = _schema(
    qid=pa.int64(), lang=pa.string(), n=pa.int64(), missing=pa.int64(),
    mn=pa.int64(), mx=pa.int64(), sm=pa.int64(), sq=pa.int64(),
)
_I64 = np.iinfo(np.int64)


def _seg_dv_stats(r, doc_base: int) -> pa.Table:
    """Per-segment PARTIAL stats of the n_chars doc values over each
    QUERY_TERMS term's live matches: one whole-query row (lang "") and one
    row per lang of (n, missing, min, max, sum, sum of squares) — exact
    integers that merge by sum / min / max (``dv_stats``,
    ``doc_values_stats``)."""
    col = r.stored_column("n_chars")
    vals = col.to_numpy(zero_copy_only=False)
    null = col.is_null().to_numpy(zero_copy_only=False)
    langs = r.stored_column("lang").to_numpy(zero_copy_only=False)
    rows = []
    for qid, docs in _term_matches(r):
        lv = langs[docs]
        for lab in ["", *np.unique(lv)]:
            d = docs if lab == "" else docs[lv == lab]
            v = vals[d[~null[d]]].astype(np.int64)
            lo, hi = (int(v.min()), int(v.max())) if len(v) else (_I64.max, _I64.min)
            rows.append((qid, str(lab), len(v), len(d) - len(v), lo, hi, int(v.sum()), int((v * v).sum())))
    return pa.Table.from_pylist([dict(zip(DV_STATS_SCHEMA.names, r)) for r in rows], DV_STATS_SCHEMA)


def _dv_stats_parts(sf_dir: str):
    """``_seg_dv_stats`` partials of every segment (<= segments * queries *
    (langs + 1) rows) as pandas, whole-query rows reduced per qid."""
    parts = gather(segment_map(ensure_index(sf_dir), _seg_dv_stats), DV_STATS_SCHEMA).to_pandas()
    whole = parts[parts["lang"] == ""].groupby("qid").agg(
        n=("n", "sum"), missing=("missing", "sum"), mn=("mn", "min"),
        mx=("mx", "max"), sm=("sm", "sum"), sq=("sq", "sum"),
    )
    return parts, whole


def dv_stats(sf_dir: str):
    """DocValuesStats analogue (reference misc/search/DocValuesStats.java
    LongDocValuesStats + DocValuesStatsCollector): min / max / sum /
    count / missing of the n_chars doc-values over each query term's
    matching docs, from the ``_seg_dv_stats`` partials; emitted in the
    facet family's (facet, qid, value, n) shape as facet='dv_stats'."""
    parts, whole = _dv_stats_parts(sf_dir)
    rows = []
    for qid, g in whole.iterrows():
        for stat, v in (("min", g.mn), ("max", g.mx), ("sum", g.sm), ("count", g.n), ("missing", g.missing)):
            rows.append(("dv_stats", int(qid), stat, int(v)))
    # sandbox facet LongAggregationsFacetRecorder (sandbox/facet/
    # recorders/LongAggregationsFacetRecorder.java): per facet label,
    # a long aggregation over matching docs — max(n_chars) per lang
    per_label = parts[parts["lang"] != ""].groupby(["qid", "lang"])["mx"].max()
    rows += [("assoc_max_lang", int(qid), lab, int(mx)) for (qid, lab), mx in per_label.items()]
    return _facet_table(rows)


def grouped_facet_counts(sf_dir: str) -> pa.Table:
    """GroupFacetCollector (reference grouping/GroupFacetCollector.java
    + TermGroupFacetCollector): per facet value (lang), the number of
    DISTINCT GROUPS (group field = source) among each query's matching
    docs — group counts, not doc counts.  Per-segment partials emit the
    distinct (qid, lang, source) triples; one groupby dedupes them
    across segments (bounded by qids x langs x sources — the facet/group
    vocabulary, never the doc count) and the driver counts groups per
    (qid, lang).  Facet-shaped rows: facet='grouped_lang'."""
    schema = _schema(qid=pa.int64(), lang=pa.string(), source=pa.string())

    def _seg(r, doc_base: int) -> pa.Table:
        qids, langs, srcs = [], [], []
        lang = r.stored_column("lang").to_numpy(zero_copy_only=False)
        source = r.stored_column("source").to_numpy(zero_copy_only=False)
        for qid, docs in _term_matches(r):
            for lv, sv in {(a, b) for a, b in zip(lang[docs], source[docs])}:
                qids.append(qid)
                langs.append(str(lv))
                srcs.append(str(sv))
        return pa.table(
            {
                "qid": pa.array(qids, pa.int64()),
                "lang": pa.array(langs, pa.string()),
                "source": pa.array(srcs, pa.string()),
            }
        )

    triples = gather(  # <= queries * langs * sources rows
        segment_map(ensure_index(sf_dir), _seg).groupby(["qid", "lang", "source"]).count(),
        schema,
    ).to_pandas()
    counts = triples.groupby(["qid", "lang"]).size()
    return _facet_table(("grouped_lang", int(q), str(lab), int(n)) for (q, lab), n in counts.items())


def compute_dynamic_numeric_ranges(
    values: np.ndarray, weights: np.ndarray, top_n: int
) -> list[tuple[int, int, int, int, int]]:
    """The greedy equi-weight scan of DynamicRangeUtil.compute
    DynamicNumericRanges (facet/range/DynamicRangeUtil.java:240-264),
    vectorized: sort by (value, weight), break at the first row whose
    per-range accumulated weight reaches totalWeight/min(topN, len)
    (long-vs-double compare, exactly the reference's), remainder rows
    form a final short range.  Returns (count, weight, min, max,
    value_sum) per range — centroid = value_sum / count, pinned against
    the reference's TestDynamicRangeUtil golden vectors."""
    order = np.lexsort((weights, values))
    v, w = values[order], weights[order]
    n = len(v)
    if n == 0 or top_n == 0:
        return []
    cumw = np.cumsum(w)
    cumv = np.cumsum(v)
    target = float(cumw[-1]) / min(top_n, n)
    out = []
    start, prev_w, prev_v = 0, 0.0, 0
    while start < n:
        # first row where accumulated weight reaches the target
        brk = int(np.searchsorted(cumw, prev_w + target, side="left"))
        brk = min(brk, n - 1)  # remainder forms the final range
        out.append(
            (
                brk - start + 1,
                int(cumw[brk] - prev_w),
                int(v[start]),
                int(v[brk]),
                int(cumv[brk] - prev_v),
            )
        )
        prev_w, prev_v = float(cumw[brk]), int(cumv[brk])
        start = brk + 1
    return out


def dynamic_range_facets(sf_dir: str) -> pa.Table:
    """DynamicRangeUtil analogue (reference facet/range/DynamicRangeUtil
    .java computeDynamicNumericRanges): equi-weight dynamic ranges over
    value = n_chars, weight = n_chars % DYN_WEIGHT_MOD for each query
    term's matching docs.  Zero-weight docs are skipped (the reference's
    skew guard); pairs sort by (value, weight) — the reference's
    InPlaceMergeSorter tiebreak — and ranges break greedily at the first
    row where the accumulated weight reaches totalWeight/min(topN, len),
    with any remainder forming a final short range (:240-264).

    Per-segment partials are (value, weight)->count pairs (bounded by
    distinct n_chars x DYN_WEIGHT_MOD, a few hundred rows/segment); the
    driver expands and scans — the REFERENCE likewise gathers every
    matching doc's (value, weight) into one array before the sequential
    scan, so this is parity, not a shortcut.  At 10^9 matches the scan
    stays exact without expansion: breakpoints inside an equal-pair run
    are ceil((target-base)/w) arithmetic over the pair-level prefix sums.

    Deviation (documented): DynamicRangeInfo's double `centroid` is
    emitted as the integer value-sum row ('dynamic_range_vsum', centroid
    = vsum/count exactly) so every facet row stays int64."""
    from ray.data.aggregate import Sum

    schema = _schema(qid=pa.int64(), v=pa.int64(), w=pa.int64(), c=pa.int64())

    def _seg(r, doc_base: int) -> pa.Table:
        qids, vs, ws, cs = [], [], [], []
        nchars = r.stored_column("n_chars").to_numpy()
        for qid, docs in _term_matches(r):
            v = nchars[docs]
            w = v % DYN_WEIGHT_MOD
            keep = w != 0  # reference: zero weights are skipped
            pairs, cnt = np.unique(
                np.stack([v[keep], w[keep]]), axis=1, return_counts=True
            )
            qids += [qid] * len(cnt)
            vs += pairs[0].tolist()
            ws += pairs[1].tolist()
            cs += cnt.tolist()
        return pa.table(
            {
                "qid": pa.array(qids, pa.int64()),
                "v": pa.array(vs, pa.int64()),
                "w": pa.array(ws, pa.int64()),
                "c": pa.array(cs, pa.int64()),
            }
        )

    parts = gather(  # <= queries * distinct(n_chars) * DYN_WEIGHT_MOD rows
        segment_map(ensure_index(sf_dir), _seg)
        .groupby(["qid", "v", "w"])
        .aggregate(Sum("c", alias_name="c")),
        schema,
    ).to_pandas()
    rows = []
    for qid, g in parts.groupby("qid"):
        v = np.repeat(g["v"].to_numpy(), g["c"].to_numpy())
        w = np.repeat(g["w"].to_numpy(), g["c"].to_numpy())
        for k, (cnt, wsum, mn, mx, vsum) in enumerate(
            compute_dynamic_numeric_ranges(v, w, DYN_TOPN)
        ):
            lab = f"{k}:[{mn},{mx}]"
            rows += [
                ("dynamic_range", int(qid), lab, cnt),
                ("dynamic_range_weight", int(qid), lab, wsum),
                ("dynamic_range_vsum", int(qid), lab, vsum),
            ]
    return _facet_table(rows)


def pc_cast_i64(col):
    return pc.cast(col, pa.int64())


# --- CombinedFieldQuery / BM25F (sandbox/CombinedFieldQuery.java) ---------

TITLE_WEIGHT = 2.0
TITLE_TOKENS = 5


def title_expr(col: str = "text"):
    """The derived title of a text column as a polars expression: its
    first TITLE_TOKENS lowercase ``[a-z0-9_]+`` tokens joined by ' ' (the
    oracle's array_to_string(ts[1:5], ' '))."""
    import polars as pl

    return (
        pl.col(col).fill_null("").str.to_lowercase().str.extract_all("[a-z0-9_]+")
        .list.slice(0, TITLE_TOKENS).list.join(" ")
    )


def ensure_titled_corpus(sf_dir: str) -> str:
    """documents.parquet + a derived ``title`` column (``title_expr``) —
    the two-text-field corpus CombinedField needs."""
    import polars as pl

    def _derive(tbl: pa.Table) -> pa.Table:
        return pl.from_arrow(tbl).with_columns(title_expr().alias("title")).to_arrow()

    return _row_group_corpus(sf_dir, f"d{DOCS_PER_SEGMENT}-titled", _derive, 200)


def ensure_combined_index(sf_dir: str) -> str:
    from ..index.multifield import FieldSpec, build_multi_field_index

    src_dir = ensure_titled_corpus(sf_dir)
    idx = index_dir_for(sf_dir) + "-combined"
    if any(
        mf.latest_generation(os.path.join(idx, f)) is None for f in ("text", "title")
    ):
        build_multi_field_index(
            src_dir,  # a directory of ordinal part files (plan_segments sorts)
            idx,
            [
                FieldSpec("text", "text", "standard"),
                FieldSpec("title", "title", "standard"),
            ],
            docs_per_segment=DOCS_PER_SEGMENT,
        )
    return idx


def _blended_tf_segment(rt, rl, term: str, title_weight: float) -> np.ndarray:
    """Dense blended tf' = tf_text + w * tf_title over one segment pair
    (bounded by docs_per_segment — lives in the worker, never the driver)."""
    tfc = np.zeros(rt.max_doc, dtype=np.float64)
    for reader, w in ((rt, 1.0), (rl, title_weight)):
        tid = reader.term_id(term)
        if tid is None:
            continue
        d, f = reader.decode_term_cached(tid)
        tfc[d] += w * f
    return tfc


def _seg_combined_stats(
    rt, doc_base: int, titles: dict, terms: list[str], title_weight: float
) -> pa.Table:
    """Phase-A partials: per segment, the blended-length sum (one float)
    and per-term blended df (one int per term) — CombinedFieldQuery's
    pseudo-field statistics (sandbox/CombinedFieldQuery.java term stats),
    gathered the way Weight gathers stats before scoring."""
    lt = LENGTH_TABLE.astype(np.float64)
    rl = open_segment(titles[doc_base])
    dl_sum = float((lt[np.asarray(rt.norms)] + title_weight * lt[np.asarray(rl.norms)]).sum())
    return pa.table(
        {
            "doc_base": pa.array([doc_base] * len(terms), pa.int64()),
            "qid": pa.array(range(len(terms)), pa.int64()),
            "df": pa.array(
                [int((_blended_tf_segment(rt, rl, t, title_weight) > 0).sum()) for t in terms],
                pa.int64(),
            ),
            "dl_sum": pa.array([dl_sum] * len(terms), pa.float64()),
        }
    )


def _seg_combined_score(
    rt,
    doc_base: int,
    titles: dict,
    terms: list[str],
    title_weight: float,
    idf_by_qid: dict[int, float],
    avgdl: float,
    k: int,
) -> pa.Table:
    """Phase-B: per-segment sparse BM25F scoring + partial top-k with ties
    kept at the k-th score — only (qid, score_f32, doc_id) candidates
    cross to the reduce (the r2 dense-per-segment-on-the-driver fix)."""
    qids, scs, gdocs = [], [], []
    rl = open_segment(titles[doc_base])
    lt = LENGTH_TABLE.astype(np.float64)
    dl = lt[np.asarray(rt.norms)] + title_weight * lt[np.asarray(rl.norms)]
    for qid, term in enumerate(terms):
        if qid not in idf_by_qid:
            continue
        idf = idf_by_qid[qid]
        tfc = _blended_tf_segment(rt, rl, term, title_weight)
        m = tfc > 0
        if not m.any():
            continue
        sc = (
            idf
            * (1.0 - 1.0 / (1.0 + tfc[m] / (1.2 * ((1 - 0.75) + 0.75 * dl[m] / avgdl))))
        ).astype(np.float32)
        ids = np.nonzero(m)[0] + doc_base
        if len(sc) > k:
            kth = np.partition(-sc, k - 1)[k - 1]
            keep = -sc <= kth
            sc, ids = sc[keep], ids[keep]
        qids.extend([qid] * len(sc))
        scs.extend(sc.tolist())
        gdocs.extend(ids.tolist())
    return pa.table(
        {
            "qid": pa.array(qids, pa.int64()),
            "score": pa.array(np.asarray(scs, np.float32)),
            "doc_id": pa.array(gdocs, pa.int64()),
        }
    )


def combined_field_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """BM25F-style CombinedField top-k (qid, rnk, doc_id): fields are
    blended into ONE virtual field (reference sandbox/
    CombinedFieldQuery.java + the SimpleBM25F model): per doc,
    tf' = tf_text + TITLE_WEIGHT * tf_title and dl' = dlq_text +
    TITLE_WEIGHT * dlq_title (quantized lengths); idf from the blended
    df (docs matching in ANY field); k1/b = 1.2/0.75.  Two distributed
    phases over the segment pairs (stats, then score with the broadcast
    idf/avgdl); the reduce sees <= (k + ties) * segments candidates per
    query.  Doubles throughout, f32 cast per candidate (the ::FLOAT
    oracle discipline)."""
    idx = ensure_combined_index(sf_dir)
    text = os.path.join(idx, "text")
    titles = _paired_segments(idx, "title")
    doc_count = int(mf.collection_stats_from(mf.read_manifest(text))["doc_count"])

    stats = gather(  # segments * queries rows — stats partials only
        segment_map(
            text, _seg_combined_stats, titles=titles, terms=QUERY_TERMS, title_weight=TITLE_WEIGHT
        )
    ).to_pandas()
    # avgdl: per-segment float64 sums added in segment order (matches the
    # single-process accumulation exactly)
    dl_by_seg = stats.drop_duplicates("doc_base").sort_values("doc_base")["dl_sum"]
    # an empty corpus has no matches to score
    avgdl = float(sum(float(v) for v in dl_by_seg)) / doc_count if doc_count else 0.0
    idf_by_qid: dict[int, float] = {}
    for qid in range(len(QUERY_TERMS)):
        df_c = int(stats[stats["qid"] == qid]["df"].sum())
        if df_c:
            idf_by_qid[qid] = float(np.log(1.0 + (doc_count - df_c + 0.5) / (df_c + 0.5)))

    cands = segment_map(  # <= (k + ties) * segments rows per query
        text,
        _seg_combined_score,
        titles=titles,
        terms=QUERY_TERMS,
        title_weight=TITLE_WEIGHT,
        idf_by_qid=idf_by_qid,
        avgdl=avgdl,
        k=k,
    )
    return top_rows(gather(cands), ["score", "doc_id"], [False, True], k)


SORTED_QUERIES = [
    ("spark", "n_chars", "desc"),
    ("join", "n_chars", "asc"),
    ("merge", "doc_id", "desc"),
]


# SortedSetSortField + SortedSetSelector (search/SortedSetSortField.java,
# SortedSetSelector.Type MIN/MAX): the multi-valued STRING field is the
# doc's {lang, source} value set; the selector picks the lexicographic
# extreme BEFORE the ordinary string comparator (tie: docid).  Exchange:
# per-segment partial top-k rows (key string, global docid) only.
SORTED_SET_QUERIES = [
    ("spark", "min", "asc"),
    ("join", "max", "desc"),
    ("merge", "max", "asc"),
    ("window", "min", "desc"),
]


def sorted_set_sort_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """(qid, rnk, doc_id) top-k under a SortedSetSortField (reference
    search/SortedSetSortField.java + SortedSetSelector.java MIN/MAX over
    SORTED_SET doc values): vectorized per-segment selector collapse,
    bounded partial-top-k exchange, tiny driver merge."""

    def keys(r, base, docs, selector):
        lang = _stored(r, "lang", docs).astype(str)
        src = _stored(r, "source", docs).astype(str)
        lt = lang < src  # unicode widths differ: compare, then pick
        pick = np.where(lt, lang, src) if selector == "min" else np.where(lt, src, lang)
        return [pick, _stored(r, "doc_id", docs)]

    sorts = [(t, d == "desc", s) for t, s, d in SORTED_SET_QUERIES]
    return _sort_topk(ensure_index(sf_dir), sorts, keys, pa.string(), k)


# SortedNumericSortField + SortedNumericSelector (search/
# SortedNumericSortField.java, SortedNumericSelector.Type MIN/MAX): the
# multi-valued numeric field is three synthesized values per doc —
# {n_chars, (doc_id*7)%1000, (doc_id*13)%1000} — reduced by the selector
# BEFORE the ordinary sort comparator
SORTED_NUMERIC_QUERIES = [
    ("spark", "min", "asc"),
    ("join", "max", "desc"),
    ("merge", "min", "desc"),
    ("window", "max", "asc"),
]


def sorted_numeric_sort_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """(qid, rnk, doc_id) top-k under a SortedNumericSortField: per
    segment the selector collapses the value set vectorized, then the
    same bounded partial-top-k exchange as the stored-field sort."""

    def keys(r, base, docs, selector):
        ids = _stored(r, "doc_id", docs)
        vset = np.stack([_stored(r, "n_chars", docs), (ids * 7) % 1000, (ids * 13) % 1000])
        return [vset.min(axis=0) if selector == "min" else vset.max(axis=0), ids]

    sorts = [(t, d == "desc", s) for t, s, d in SORTED_NUMERIC_QUERIES]
    return _sort_topk(ensure_index(sf_dir), sorts, keys, pa.int64(), k)


# LatLonPointSortField + LatLonPointDistanceComparator (document/
# LatLonPointSortField.java): matching docs ordered by distance from a
# fixed point — here the integer SQUARED euclidean distance over the
# (n_chars, doc_id) plane (monotone with the true distance, so the order
# is the comparator's; ties doc asc)
DISTANCE_SORT_QUERIES = [
    ("spark", 300, 250),
    ("join", 100, 50),
    ("merge", 500, 400),
    ("window", 200, 0),
]


def distance_sort_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """(qid, rnk, doc_id) nearest-first matching docs; same bounded
    per-segment partial-top-k exchange as the other sort arms."""

    def keys(r, base, docs, center):
        ids = _stored(r, "doc_id", docs)
        return [(_stored(r, "n_chars", docs) - center[0]) ** 2 + (ids - center[1]) ** 2, ids]

    sorts = [(t, False, (cx, cy)) for t, cx, cy in DISTANCE_SORT_QUERIES]
    return _sort_topk(ensure_index(sf_dir), sorts, keys, pa.int64(), k)


COMPOUND_SORT_QUERIES = ["spark", "join", "window"]


def compound_sort_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """Multi-key Sort — a SortField LIST (search/Sort.java: setSort(
    SortField...), compared field by field): matching docs ordered by
    (lang ASC, n_chars DESC, doc ASC).  The compound key ends in the
    unique doc id, so per-segment partial top-k rows merge exactly; the
    exchange carries <= k * segments rows of (qid, lang, -n_chars,
    doc_id).  (qid, rnk, doc_id)."""

    def keys(r, base, docs, _):
        return [_stored(r, "lang", docs).astype(str), -_stored(r, "n_chars", docs), docs + base]

    sorts = [(t, False, None) for t in COMPOUND_SORT_QUERIES]
    return _sort_topk(ensure_index(sf_dir), sorts, keys, [pa.string(), pa.int64()], k)


SORT_RESCORE_QUERIES = ["spark", "merge", "window"]
SORT_RESCORE_FIRST_N = 40


def sort_rescored_topk(
    sf_dir: str, first_n: int = SORT_RESCORE_FIRST_N, k: int = 10
) -> pa.Table:
    """SortRescorer.rescore analogue (reference search/SortRescorer
    .java:38-90): take the top ``first_n`` hits of the BM25 first pass,
    re-sort ONLY those hits by Sort(n_chars DESC) with the
    TopFieldCollector doc-id tie-break, return top-k.  Docs outside the
    first pass are never revisited; ``first_n`` is small by the
    rescorer's contract so the second pass is a bounded driver-side
    gather (one stored-column take per touched segment).
    (qid, rnk, doc_id)."""
    searcher = IndexSearcher(ensure_index(sf_dir))
    bases = np.array([s["doc_base"] for s in searcher.manifest["segments"]], dtype=np.int64)
    ranked = []
    for qid, term in enumerate(SORT_RESCORE_QUERIES):
        hits = searcher.search(
            TermQuery(term), first_n, total_hits_threshold=np.inf,
            score_mode="COMPLETE",
        )
        gdocs = np.array([d for d, _ in hits], dtype=np.int64)
        if not len(gdocs):
            continue
        seg_of = np.searchsorted(bases, gdocs, side="right") - 1
        keys = np.empty(len(gdocs), dtype=np.int64)
        for si in np.unique(seg_of):
            sel = np.flatnonzero(seg_of == si)
            col = searcher.readers[si].stored_column("n_chars")
            keys[sel] = col.take(
                pa.array(gdocs[sel] - bases[si])
            ).to_numpy(zero_copy_only=False)
        ranked.append((qid, gdocs[np.lexsort((gdocs, -keys))[:k]]))
    return ranked_table(ranked)


INDEX_SORT = ("n_chars", "desc")
INDEX_SORTED_QUERIES = ["spark", "join", "merge", "window"]


def _seg_index_sorted_topk(r, doc_base: int, terms: list[str], k: int) -> pa.Table:
    """EARLY-TERMINATING per-segment sort-field top-k over an index-time-
    sorted index (reference TopFieldCollector canEarlyTerminate +
    index/Sorter.java): docid order == sort order, so the first k live
    matches of the postings cursor ARE the segment's top-k — the cursor
    stops there, decoding only the blocks it touched.  Emits the stored
    doc_id (docids were remapped by the sort) + the sort key + docs_visited
    so callers can report visited << df."""
    from ..search.scorers import NO_MORE_DOCS, PostingsCursor

    qids, keys, ids, visited_col, df_col = [], [], [], [], []
    assert r.meta.get("index_sort") == list(INDEX_SORT), (
        "early termination needs the index sorted by the query sort"
    )
    vals = r.stored_column(INDEX_SORT[0])
    stored_ids = r.stored_column("doc_id")
    for qid, term in enumerate(terms):
        tid = r.term_id(term)
        if tid is None:
            continue
        cur = PostingsCursor(r, tid)
        hit_local = []
        visited = 0
        doc = cur.next_doc()
        while doc != NO_MORE_DOCS and len(hit_local) < k:
            visited += 1
            if r.live is None or r.live[doc]:
                hit_local.append(doc)
            doc = cur.next_doc()
        for d in hit_local:
            qids.append(qid)
            keys.append(int(vals[d].as_py()))
            ids.append(int(stored_ids[d].as_py()))
            visited_col.append(visited)
            df_col.append(cur.df)
    return pa.table(
        {
            "qid": pa.array(qids, pa.int64()),
            "key": pa.array(keys, pa.int64()),
            "doc_id": pa.array(ids, pa.int64()),
            "visited": pa.array(visited_col, pa.int64()),
            "df": pa.array(df_col, pa.int64()),
        }
    )


def index_sorted_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """Top-k matching docs by n_chars DESC over an index-SORTED index
    (IndexWriterConfig.setIndexSort analogue): per segment the postings
    cursor early-terminates after k matches (docid order == sort order);
    the reduce merges <= k * segments candidates by (key desc, doc_id
    asc).  Result (qid, rnk, doc_id) uses the STORED doc_id column — the
    internal docids were remapped by the sort."""
    idx = ensure_index(sf_dir, index_sort=INDEX_SORT)
    parts = segment_map(  # <= k * segments * queries candidate rows
        idx, _seg_index_sorted_topk, terms=INDEX_SORTED_QUERIES, k=k
    )
    return top_rows(gather(parts), ["key", "doc_id"], [False, True], k)


def _stored(r, field: str, docs: np.ndarray) -> np.ndarray:
    """Segment ``r``'s stored ``field`` values at local ``docs`` (integer
    columns as int64)."""
    v = r.stored_column(field).take(pa.array(docs)).to_numpy(zero_copy_only=False)
    return v.astype(np.int64) if v.dtype.kind in "iu" else v


def _seg_sort_partials(r, base: int, sorts: list, keys, k: int, schema: pa.Schema) -> pa.Table:
    """Per-segment PARTIAL sort-field top-k.  For every (term, desc, arg)
    of ``sorts`` (qid = position), ``keys(r, base, docs, arg)`` gives the
    term's live matches' sort columns in ``schema`` order, the global
    doc_id last; the segment keeps its first k rows in that order (the
    first column descending when ``desc``), ranking each column by its
    dense codes so strings sort like integers.  Only these (qid, key...,
    doc_id) rows cross the exchange, never a doc-values column."""
    parts = [schema.empty_table()]
    for qid, (term, desc, arg) in enumerate(sorts):
        docs = _live_docs(r, term)
        if not len(docs):
            continue
        cols = keys(r, base, docs, arg)
        ranks = [np.unique(c, return_inverse=True)[1] for c in cols]
        if desc:
            ranks[0] = -ranks[0]
        top = np.lexsort(ranks[::-1])[:k]
        parts.append(pa.table([np.full(len(top), qid, np.int64)] + [c[top] for c in cols], schema=schema))
    return pa.concat_tables(parts)


def _sort_topk(idx: str, sorts: list, keys, key_types, k: int) -> pa.Table:
    """(qid, rnk, doc_id) sort-field top-k: ``_seg_sort_partials`` per
    segment (key columns of ``key_types``), merged by ``top_rows`` — the
    ascending and the descending queries apart."""
    key_types = key_types if isinstance(key_types, list) else [key_types]
    schema = _schema(qid=pa.int64(), **{f"k{i}": t for i, t in enumerate(key_types)}, doc_id=pa.int64())
    parts = gather(segment_map(idx, _seg_sort_partials, sorts=sorts, keys=keys, k=k, schema=schema), schema)
    desc = pc.is_in(parts["qid"], pa.array([q for q, s in enumerate(sorts) if s[1]], pa.int64()))
    order = schema.names[1:]
    rest = [True] * (len(order) - 1)
    return pa.concat_tables(
        [
            top_rows(parts.filter(pc.invert(desc)), order, [True] + rest, k),
            top_rows(parts.filter(desc), order, [False] + rest, k),
        ]
    ).sort_by([("qid", "ascending"), ("rnk", "ascending")])


def sort_by_field_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """Top-k matching docs ordered by a STORED FIELD instead of score
    (qid, rnk, doc_id) — the Sort/SortField analogue over the columnar
    stored fields (search/Sort.java + SortField.java; our doc-values are
    the per-segment parquet metadata columns).  Tie-break: doc_id asc.
    Per segment only the matching docs' column values are gathered and a
    partial top-k is emitted; the reduce sees k * segments rows."""
    sorts = [(t, d == "desc", f) for t, f, d in SORTED_QUERIES]
    keys = lambda r, base, docs, field: [_stored(r, field, docs), docs + base]  # noqa: E731
    return _sort_topk(ensure_index(sf_dir), sorts, keys, pa.int64(), k)


def doc_values_stats(sf_dir: str) -> pa.Table:
    """DocValuesStatsCollector (reference misc/search/DocValuesStats.java
    + DocValuesStatsCollector.java): per query, aggregate stats of the
    n_chars doc-values column over the MATCHING docs — (qid, n, missing,
    min_v, max_v, sum_v, mean, variance), a row per query even when
    nothing matches.  Deviation (documented): the reference accumulates
    mean/variance with Welford's streaming update
    (DocValuesStats.java:167-169); this engine keeps exact integer
    (count, sum, sum_sq, min, max) partials per segment — order-
    independent, mergeable, the repo's summation discipline — and derives
    mean = sum/n, variance = (sum_sq - sum*sum/n)/n (the same population
    variance Welford converges to, modulo fp round) in one double
    expression mirrored by the SQL oracle."""
    whole = _dv_stats_parts(sf_dir)[1].reindex(range(len(QUERY_TERMS)), fill_value=0)
    rows = []
    for qid, g in whole.iterrows():
        n, s, sq = int(g.n), int(g.sm), int(g.sq)
        rows.append(
            {
                "qid": int(qid), "n": n, "missing": int(g.missing),
                "min_v": int(g.mn) if n else 0, "max_v": int(g.mx) if n else 0, "sum_v": s,
                "mean": float(s) / n if n else 0.0,
                "variance": (float(sq) - (float(s) * float(s)) / n) / n if n else 0.0,
            }
        )
    return pa.Table.from_pylist(rows).cast(
        _schema(
            qid=pa.int64(), n=pa.int64(), missing=pa.int64(), min_v=pa.int64(),
            max_v=pa.int64(), sum_v=pa.int64(), mean=pa.float64(), variance=pa.float64(),
        )
    )


QUALITY_K = 20
QUALITY_REL_TF = 2  # judgment: doc is relevant to a query iff tf >= 2


def quality_judged_run(sf_dir: str, k: int = QUALITY_K) -> pa.Table:
    """TREC-style judged run (reference benchmark/quality/
    QualityBenchmark.java + TrecJudge.java + QualityStats.java): the BM25
    top-k per query joined against a deterministic relevance judgment
    (relevant iff the query term occurs >= QUALITY_REL_TF times — judged
    from the INDEX postings, while the oracle recounts from raw text).
    Emits integer-exact per-rank rows (qid, rnk, doc_id, relevant,
    rel_so_far) — the QualityStats.addResult stream — from which P@n,
    MRR (the reference's first-5-ranks form, QualityStats.java:88-89)
    and AP (pReleventSum / maxGoodPoints, :123) derive exactly;
    quality_stats() below computes them per the reference."""
    import pandas as pd

    searcher = IndexSearcher(ensure_index(sf_dir))
    # judgment sets from the index postings (tf >= threshold)
    relevant: list[set[int]] = []
    for term in QUERY_TERMS:
        judged: set[int] = set()
        for reader, seg in zip(searcher.readers, searcher.manifest["segments"]):
            tid = reader.term_id(term)
            if tid is None:
                continue
            d, f = reader.decode_term_cached(tid)
            m = _alive(reader, d) & (f >= QUALITY_REL_TF)
            judged.update((d[m] + seg["doc_base"]).tolist())
        relevant.append(judged)
    run = hits_table(searcher, [TermQuery(t) for t in QUERY_TERMS], k)
    qids = run["qid"].to_numpy()
    rel = np.array(
        [int(d in relevant[q]) for q, d in zip(qids, run["doc_id"].to_pylist())], np.int64
    )
    cum = pd.Series(rel, dtype=np.int64).groupby(qids).cumsum().to_numpy()
    return run.append_column("relevant", pa.array(rel, pa.int64())).append_column(
        "rel_so_far", pa.array(cum, pa.int64())
    )


def quality_stats(run: pa.Table, max_good: dict[int, int]) -> dict[int, dict]:
    """QualityStats per query from a judged run: P@10, MRR (1/rank of the
    first relevant, only if within the top 5 — QualityStats.java:88-89),
    AP = sum of precision at each relevant rank / maxGoodPoints
    (QualityStats.java:123), recall = good/maxGood."""
    import collections

    by_q: dict[int, list] = collections.defaultdict(list)
    for r in run.to_pylist():
        by_q[r["qid"]].append(r)
    out = {}
    for qid, rows in by_q.items():
        rows.sort(key=lambda r: r["rnk"])
        p_rel_sum = 0.0
        mrr = 0.0
        first = True
        good = 0
        p10 = 0.0
        for r in rows:
            if r["relevant"]:
                good += 1
                p_rel_sum += good / r["rnk"]
                if first and r["rnk"] <= 5:
                    mrr = 1.0 / r["rnk"]
                first = False
            if r["rnk"] == 10:
                p10 = good / 10.0
        mg = max_good.get(qid, 0)
        out[qid] = {
            "p_at_10": p10,
            "mrr": mrr,
            "ap": (p_rel_sum / mg) if mg else 0.0,
            "recall": (good / mg) if mg else 0.0,
        }
    return out
