"""Percolator: match a STREAM of documents against registered queries
(lucene/monitor module analogue — Monitor.match(Document...)).

The dataflow is inverted from search: the compiled query set is the small
side (broadcast once per run via the closure / ray.put at scale), and the
corpus streams through stateless map_batches tasks; each batch tokenizes
once (same polars tokenizer as the text ops) and evaluates every query
vectorized — term membership via list.contains, phrases via an exploded
(doc, pos, tok) self-join.  The reference prunes candidate queries with a
presearcher term index (monitor/Presearcher.java); evaluating the
vectorized membership tests IS that prune here: a query's columns never
materialize per-doc state beyond one boolean mask per batch.

Registered query forms: ("term", t) | ("and", [t...]) | ("or", [t...]) |
("and_not", [t...], [neg...]) | ("phrase", [a, b]).

Output is aggregation-friendly: per query (n_matches, sum/min/max of the
matching doc ids) — partials combine across batches with sum/sum/min/max.
"""

from __future__ import annotations

import polars as pl
import pyarrow as pa

MONITOR_QUERIES: list[tuple] = [
    ("term", "spark"),
    ("and", ["join", "order"]),
    ("and_not", ["vector", "stream"], ["hash"]),
    ("phrase", ["the", "customer"]),
    ("and", ["window", "batch"]),
    # disjunction of COMPLEX clauses: QueryDecomposer splits it so each
    # disjunct presearches with its OWN all-terms filter
    ("or_of", (("and", ["merge", "sort"]), ("phrase", ["window", "batch"]))),
]


def decompose(q: tuple) -> list[tuple]:
    """QueryDecomposer (reference monitor/QueryDecomposer.java): pure
    disjunctions split into separately-registered subqueries — each
    disjunct gets its own (finer) presearcher filter, and a doc matches
    the parent when it matches ANY subquery.  ``or`` splits per term,
    ``or_of`` recursively per clause; everything else is atomic."""
    kind = q[0]
    if kind == "or":
        return [("term", t) for t in q[1]]
    if kind == "or_of":
        out: list[tuple] = []
        for sub in q[1]:
            out.extend(decompose(sub))
        return out
    return [q]


def _tok_expr() -> pl.Expr:
    from .text import _tok_expr as t

    return t()


def _contains(tok: pl.Expr, term: str) -> pl.Expr:
    return tok.list.contains(term)


def _eval_query(toks: pl.DataFrame, pos_df: pl.DataFrame | None, q: tuple):
    """Matched doc_id series for ONE registered query over a (doc_id, ts)
    token-list frame — the vectorized evaluators shared by the evaluate-
    everything path (match_batch) and the presearcher's candidate path."""
    kind = q[0]
    if kind == "term":
        mask = toks.select(_contains(pl.col("ts"), q[1]).alias("m"))["m"]
    elif kind == "and":
        e = pl.lit(True)
        for t in q[1]:
            e = e & _contains(pl.col("ts"), t)
        mask = toks.select(e.alias("m"))["m"]
    elif kind == "or":
        e = pl.lit(False)
        for t in q[1]:
            e = e | _contains(pl.col("ts"), t)
        mask = toks.select(e.alias("m"))["m"]
    elif kind == "and_not":
        e = pl.lit(True)
        for t in q[1]:
            e = e & _contains(pl.col("ts"), t)
        for t in q[2]:
            e = e & ~_contains(pl.col("ts"), t)
        mask = toks.select(e.alias("m"))["m"]
    elif kind == "phrase":
        a, b = q[1]
        pa_ = pos_df.filter(pl.col("tok") == a).select("doc_id", "p")
        pb_ = pos_df.filter(pl.col("tok") == b).select(
            "doc_id", (pl.col("p") - 1).alias("p")
        )
        hit_docs = (
            pa_.join(pb_, on=["doc_id", "p"], how="inner")
            .select("doc_id")
            .unique()["doc_id"]
        )
        mask = toks.select(pl.col("doc_id").is_in(hit_docs.implode()).alias("m"))["m"]
    elif kind == "or_of":
        # disjunction of sub-specs: union of the sub evaluators
        hit = None
        for sub in q[1]:
            s = _eval_query(toks, pos_df, sub)
            hit = s if hit is None else pl.concat([hit, s])
        docs = hit.unique() if hit is not None else pl.Series("doc_id", [])
        mask = toks.select(pl.col("doc_id").is_in(docs.implode()).alias("m"))["m"]
    else:  # pragma: no cover
        raise ValueError(kind)
    return toks.filter(mask)["doc_id"]


def _has_phrase(q: tuple) -> bool:
    if q[0] == "phrase":
        return True
    return q[0] == "or_of" and any(_has_phrase(s) for s in q[1])


def match_batch(batch: pa.Table, queries: list[tuple]) -> pa.Table:
    """Per-batch percolation partials: (qid, n_matches, sum_doc, min_doc,
    max_doc) for every registered query (queries with no batch matches
    still emit a zero row so the reduce sees every qid)."""
    df = pl.from_arrow(batch.select(["doc_id", "text"]))
    toks = df.select(pl.col("doc_id"), _tok_expr().alias("ts"))

    # exploded positions view, built lazily only if a phrase query exists
    # (anywhere in the tree — or_of disjunctions may nest one)
    pos_df = None
    if any(_has_phrase(q) for q in queries):
        pos_df = (
            toks.with_columns(pl.int_ranges(pl.col("ts").list.len()).alias("p"))
            .explode(["ts", "p"], empty_as_null=True)
            .rename({"ts": "tok"})
        )

    out_qid, out_n, out_sum, out_min, out_max = [], [], [], [], []
    for qid, q in enumerate(queries):
        matched = _eval_query(toks, pos_df, q)
        out_qid.append(qid)
        out_n.append(len(matched))
        out_sum.append(int(matched.sum()) if len(matched) else 0)
        out_min.append(int(matched.min()) if len(matched) else 2**62)
        out_max.append(int(matched.max()) if len(matched) else -1)
    return pa.table(
        {
            "qid": pa.array(out_qid, pa.int64()),
            "n_matches": pa.array(out_n, pa.int64()),
            "sum_doc": pa.array(out_sum, pa.int64()),
            "min_doc": pa.array(out_min, pa.int64()),
            "max_doc": pa.array(out_max, pa.int64()),
        }
    )


def percolate_counts(ds, queries: list[tuple] | None = None) -> pa.Table:
    """Stream the dataset through the registered queries; reduce partials
    to one row per query: (qid, n_matches, sum_doc, min_doc, max_doc)."""
    queries = queries if queries is not None else MONITOR_QUERIES
    return _reduce_matches(
        ds.map_batches(lambda b: match_batch(b, queries), batch_format="pyarrow"), len(queries)
    )


MATCH_SCHEMA = pa.schema(
    [(c, pa.int64()) for c in ("qid", "n_matches", "sum_doc", "min_doc", "max_doc")]
)


def _reduce_matches(parts, n_queries: int) -> pa.Table:
    """Per-batch match partials (MATCH_SCHEMA) -> one row per query in qid
    order, a query no document matches (or an empty corpus) included."""
    from ray.data.aggregate import Max, Min, Sum

    from .util import gather

    part = (
        gather(
            parts.groupby("qid").aggregate(
                Sum("n_matches", alias_name="n_matches"),
                Sum("sum_doc", alias_name="sum_doc"),
                Min("min_doc", alias_name="min_doc"),
                Max("max_doc", alias_name="max_doc"),
            ),
            MATCH_SCHEMA,
        )
        .to_pandas()
        .set_index("qid")
        .reindex(range(n_queries), fill_value=0)
        .rename_axis("qid")
        .reset_index()
    )
    # zero-match queries keep sentinel min/max; normalize to -1
    part.loc[part["n_matches"] == 0, ["min_doc", "max_doc"]] = -1
    return pa.Table.from_pandas(part, preserve_index=False)


def compile_query(spec: tuple):
    """Registered-query spec -> first-class Query object (the exact path)."""
    from ..search.query import PhraseQuery, TermQuery, bool_query

    kind = spec[0]
    if kind == "term":
        return TermQuery(spec[1])
    if kind == "and":
        return bool_query(must=[TermQuery(t) for t in spec[1]])
    if kind == "or":
        return bool_query(should=[TermQuery(t) for t in spec[1]])
    if kind == "and_not":
        return bool_query(
            must=[TermQuery(t) for t in spec[1]],
            must_not=[TermQuery(t) for t in spec[2]],
        )
    if kind == "phrase":
        return PhraseQuery(tuple(spec[1]))
    if kind == "or_of":
        return bool_query(should=[compile_query(s) for s in spec[1]])
    raise ValueError(f"unknown query spec {spec!r}")


class ExactPercolator:
    """Actor-pool percolation stage for ARBITRARY Query objects: each actor
    compiles the registered queries once (__init__), then every document in
    a batch is indexed into a MemoryIndex and evaluated exactly — the
    reference Monitor.match shape (each doc batch goes into a one-doc
    memory index, monitor/Monitor.java + memory/MemoryIndex.java).  The
    vectorized match_batch above is the bulk fast path; this is the
    fallback for query types it cannot express (fuzzy, intervals, nested
    boolean trees...).  Emits the same partial shape, so the same reduce
    applies."""

    def __init__(self, queries: list[tuple] | None = None):
        specs = queries if queries is not None else MONITOR_QUERIES
        self.compiled = [compile_query(s) for s in specs]

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..index.memory import MemoryIndex

        doc_ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        rows = {qid: [] for qid in range(len(self.compiled))}
        for doc_id, text in zip(doc_ids, texts):
            mi = MemoryIndex(text or "")
            for qid, q in enumerate(self.compiled):
                if mi.matches(q):
                    rows[qid].append(doc_id)
        qids, n, s, lo, hi = [], [], [], [], []
        for qid, docs in rows.items():
            qids.append(qid)
            n.append(len(docs))
            s.append(sum(docs))
            lo.append(min(docs) if docs else (1 << 62))
            hi.append(max(docs) if docs else -(1 << 62))
        return pa.table(
            {
                "qid": pa.array(qids, pa.int64()),
                "n_matches": pa.array(n, pa.int64()),
                "sum_doc": pa.array(s, pa.int64()),
                "min_doc": pa.array(lo, pa.int64()),
                "max_doc": pa.array(hi, pa.int64()),
            }
        )


def percolate_counts_exact(ds, queries: list[tuple] | None = None) -> pa.Table:
    """percolate_counts via the MemoryIndex exact path (actor pool)."""
    queries = queries if queries is not None else MONITOR_QUERIES
    return _reduce_matches(
        ds.map_batches(
            ExactPercolator,
            fn_constructor_kwargs={"queries": queries},
            batch_format="pyarrow",
            concurrency=(1, 4),
            batch_size=256,
        ),
        len(queries),
    )


def _filter_terms(q: tuple) -> tuple[list[str], int]:
    """(filter terms, required count) for the presearcher index: a doc is
    a CANDIDATE for the query iff it contains >= count of the terms —
    always a superset of true matches (negations never pre-filter;
    phrase adjacency and NOT clauses refine at evaluation)."""
    kind = q[0]
    if kind == "term":
        return [q[1]], 1
    if kind == "or":
        terms = list(dict.fromkeys(q[1]))
        return terms, 1
    if kind in ("and", "and_not", "phrase"):
        terms = list(dict.fromkeys(q[1]))
        return terms, len(terms)
    raise ValueError(kind)  # pragma: no cover


class PresearchPercolator:
    """TermFilteredPresearcher analogue (reference monitor/
    TermFilteredPresearcher.java + Monitor.match): the registered queries
    are INDEXED once per actor — a (tok, qid) frame plus per-qid required
    counts — and each batch gathers candidate (doc, query) pairs with ONE
    distinct-token explode + join + groupby instead of evaluating every
    query against every batch.  Candidates then run the SAME vectorized
    evaluators as match_batch, restricted to that query's candidate docs,
    so partials (and percolate_counts results) are identical; with 10^5+
    registered queries the per-batch cost follows the doc vocabulary
    instead of the registry size.  ``last_stats`` records evaluated vs
    possible (query, batch-doc) pairs — the pruning the reference gets
    from its presearcher query index."""

    def __init__(self, queries: list[tuple] | None = None):
        queries = queries if queries is not None else MONITOR_QUERIES
        self.queries = queries
        # QueryDecomposer pass (monitor/QueryDecomposer.java): pure
        # disjunctions register one subquery per clause, each with its
        # OWN all-terms presearcher filter; the parent matches when any
        # subquery does
        self.subs: list[tuple] = []
        self.sub_parent: list[int] = []
        for qid, q in enumerate(queries):
            for sub in decompose(q):
                self.subs.append(sub)
                self.sub_parent.append(qid)
        toks, sids, need = [], [], []
        for sid, q in enumerate(self.subs):
            terms, n = _filter_terms(q)
            toks.extend(terms)
            sids.extend([sid] * len(terms))
            need.append(n)
        self.filter_df = pl.DataFrame(
            {"tok": pl.Series(toks, dtype=pl.String),
             "qid": pl.Series(sids, dtype=pl.Int64)}
        )
        self.need_df = pl.DataFrame(
            {"qid": pl.Series(range(len(self.subs)), dtype=pl.Int64),
             "need": pl.Series(need, dtype=pl.UInt32)}
        )
        self.last_stats: dict = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch.select(["doc_id", "text"]))
        toks = df.select(pl.col("doc_id"), _tok_expr().alias("ts"))
        # candidate gathering: distinct (doc, tok) x filter index
        dt = toks.explode("ts", empty_as_null=True).rename({"ts": "tok"}).unique()
        cand = (
            dt.join(self.filter_df, on="tok")
            .group_by(["doc_id", "qid"])
            .len()
            .join(self.need_df, on="qid")
            .filter(pl.col("len") >= pl.col("need"))
            .select("doc_id", "qid")
        )
        pos_df = None
        if any(q[0] == "phrase" for q in self.subs):
            pos_df = (
                toks.with_columns(pl.int_ranges(pl.col("ts").list.len()).alias("p"))
                .explode(["ts", "p"], empty_as_null=True)
                .rename({"ts": "tok"})
            )
        out_qid, out_n, out_sum, out_min, out_max = [], [], [], [], []
        evaluated = 0
        by_s = {int(k[0]): g["doc_id"] for k, g in cand.group_by("qid")}
        # evaluate each decomposed subquery on ITS candidates, then union
        # the sub-matches per parent (Monitor reports the parent query)
        per_parent: dict[int, list] = {}
        for sid, q in enumerate(self.subs):
            docs = by_s.get(sid)
            if docs is None or len(docs) == 0:
                continue
            sub = toks.filter(pl.col("doc_id").is_in(docs.implode()))
            sub_pos = (
                pos_df.filter(pl.col("doc_id").is_in(docs.implode()))
                if q[0] == "phrase"
                else None
            )
            evaluated += len(sub)
            m = _eval_query(sub, sub_pos, q)
            if len(m):
                per_parent.setdefault(self.sub_parent[sid], []).append(m)
        for qid in range(len(self.queries)):
            parts = per_parent.get(qid)
            matched = (
                pl.concat(parts).unique()
                if parts
                else pl.Series("doc_id", [], dtype=toks["doc_id"].dtype)
            )
            out_qid.append(qid)
            out_n.append(len(matched))
            out_sum.append(int(matched.sum()) if len(matched) else 0)
            out_min.append(int(matched.min()) if len(matched) else 2**62)
            out_max.append(int(matched.max()) if len(matched) else -1)
        self.last_stats = {
            "evaluated_pairs": evaluated,
            "possible_pairs": len(toks) * len(self.subs),
        }
        return pa.table(
            {
                "qid": pa.array(out_qid, pa.int64()),
                "n_matches": pa.array(out_n, pa.int64()),
                "sum_doc": pa.array(out_sum, pa.int64()),
                "min_doc": pa.array(out_min, pa.int64()),
                "max_doc": pa.array(out_max, pa.int64()),
            }
        )


def percolate_counts_presearch(
    ds, queries: list[tuple] | None = None, concurrency: int = 4
) -> pa.Table:
    """percolate_counts through the presearcher actor pool (the registry
    index builds once per actor in __init__, batches stream through) —
    identical output, registry-size-independent per-batch cost."""
    import ray

    queries = queries if queries is not None else MONITOR_QUERIES
    if ray.is_initialized():
        # leave head-room for the read + reduce operators, or a small
        # session deadlocks with the whole CPU budget parked in the pool
        avail = int(ray.cluster_resources().get("CPU", concurrency + 2))
        concurrency = max(1, min(concurrency, avail - 2))
    return _reduce_matches(
        ds.map_batches(
            PresearchPercolator,
            fn_constructor_kwargs={"queries": queries},
            batch_format="pyarrow",
            concurrency=concurrency,
        ),
        len(queries),
    )
