"""Multi-field indexing: per-field indexes over ONE shared docid space.

Reference semantics (index/FieldInfos.java: independent per-field postings
+ per-field statistics; search: a BooleanQuery of per-field term queries,
each clause scored with ITS field's stats):

- ``build_multi_field_index`` builds one sub-index per field under
  ``index_dir/<field>/`` from the SAME corpus parquet with the same
  ``docs_per_segment`` — segmentation is derived deterministically from
  the parquet row-group layout, so every field's segment i covers the same
  docid range (LeafReaderContext alignment without a shared writer).
- ``MultiFieldSearcher`` scores a list of ``FieldedClause``s per segment:
  clause scorers come from each field's own SegmentReader + Weight
  (per-field BM25 stats, exactly Lucene's per-field IDF), then combine
  through the SAME BooleanScorerSupplier logic as single-field booleans.

Scale: fields build independently (ray tasks per field x segment) and
add no shuffle; a field is just another column pruned at the read.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import manifest as mf
from .build import build_index
from .segment import SegmentReader

SHOULD, MUST, MUST_NOT, FILTER = "SHOULD", "MUST", "MUST_NOT", "FILTER"


@dataclass(frozen=True)
class FieldSpec:
    name: str
    column: str
    analyzer: str = "standard"
    index_options: str = "docs_freqs"


@dataclass(frozen=True)
class FieldedClause:
    """One boolean clause routed to a field's index."""

    field: str
    query: object  # lucene_ray.search.query.Query
    occur: str = SHOULD
    boost: float = 1.0


def parse_multifield(
    query: str,
    fields: tuple[str, ...],
    boosts: dict[str, float] | None = None,
    analyzer=None,
) -> list["FieldedClause"]:
    """MultiFieldQueryParser.parse analogue (reference
    queryparser/classic/MultiFieldQueryParser.java:55-116): each
    UNQUALIFIED term expands to one SHOULD clause per field, boosted by
    the per-field boost map; a ``field:`` prefix naming a known field
    pins the clause to that field alone.  This is the parser's
    default-OR term surface — the classic grammar's boolean operators
    stay with parse_classic."""
    from ..analysis.analyzers import make_analyzer
    from ..search.query import TermQuery

    a = analyzer if analyzer is not None else make_analyzer("standard")
    boosts = boosts or {}
    out: list[FieldedClause] = []
    for tok in query.split():
        pinned = None
        if ":" in tok:
            f, rest = tok.split(":", 1)
            if f in fields and rest:
                pinned, tok = f, rest
        for f in (pinned,) if pinned else fields:
            out.append(
                FieldedClause(
                    f, TermQuery(a.normalize(tok)), SHOULD, boosts.get(f, 1.0)
                )
            )
    return out


def build_multi_field_index(
    corpus_paths,
    index_dir: str,
    fields: list[FieldSpec],
    docs_per_segment: int = 4096,
    meta_columns: tuple[str, ...] | None = None,
) -> dict:
    """One sub-index per field; returns {field: manifest}.  Stored-field
    doc tables are written once (under the FIRST field's sub-index) — the
    other fields index postings only."""
    import pyarrow.parquet as pq

    if meta_columns is None:
        first = corpus_paths[0] if isinstance(corpus_paths, list) else corpus_paths
        if os.path.isdir(first):
            import glob

            first = sorted(glob.glob(os.path.join(first, "*.parquet")))[0]
        names = pq.ParquetFile(first).schema_arrow.names
        meta_columns = tuple(n for n in names if n not in {f.column for f in fields})
    out = {}
    for i, spec in enumerate(fields):
        out[spec.name] = build_index(
            corpus_paths,
            os.path.join(index_dir, spec.name),
            analyzer=spec.analyzer,
            docs_per_segment=docs_per_segment,
            content_column=spec.column,
            meta_columns=meta_columns,
            write_doc_tables=(i == 0),
            index_options=spec.index_options,
        )
    return out


class MultiFieldSearcher:
    """Per-segment boolean scoring across aligned per-field indexes."""

    def __init__(
        self,
        index_dir: str,
        fields: list[str] | None = None,
        mmap: bool = True,
        similarity=None,
    ):
        """``similarity``: None (per-field default), one similarity for
        every field, or a PerFieldSimilarityWrapper routing each field to
        its own (reference similarities/PerFieldSimilarityWrapper.java —
        each per-field sub-searcher scores with get(field))."""
        from ..search.searcher import IndexSearcher

        if fields is None:
            fields = sorted(
                d
                for d in os.listdir(index_dir)
                if mf.latest_generation(os.path.join(index_dir, d)) is not None
            )
        if not fields:
            raise ValueError(f"no field sub-indexes under {index_dir}")
        self.fields = fields

        def _sim(f):
            if similarity is None:
                return None
            return similarity.get(f) if hasattr(similarity, "get") else similarity

        self.searchers = {
            f: IndexSearcher(
                os.path.join(index_dir, f), mmap=mmap, similarity=_sim(f)
            )
            for f in fields
        }
        bases = {
            f: [s["doc_base"] for s in se.manifest["segments"]]
            for f, se in self.searchers.items()
        }
        first = bases[fields[0]]
        for f, b in bases.items():
            if b != first:
                raise ValueError(
                    f"field '{f}' segmentation differs — rebuild all fields "
                    "with the same corpus and docs_per_segment"
                )
        self.doc_bases = first
        self.n_segments = len(first)

    def _weigh(self, clauses: list[FieldedClause]):
        """(clause, rewritten query, Weight) per clause, each through its
        field's IndexSearcher: per-field stats, and a satu
        FeatureQuery(pivot=None) resolves its pivot there."""
        return [(c, *self.searchers[c.field].weigh(c.query)) for c in clauses]

    def _segment_scorer(self, weighed, seg_ord: int, score_mode: str):
        from ..search.query import build_scorer, combine_clause_scorers

        shoulds, musts, must_nots, filters = [], [], [], []
        for c, query, weight in weighed:
            reader = self.searchers[c.field].readers[seg_ord]
            mode = (
                "COMPLETE_NO_SCORES"
                if c.occur in (FILTER, MUST_NOT)
                else score_mode
            )
            s = build_scorer(query, weight, reader, c.boost, mode, False)
            if c.occur == SHOULD:
                if s is not None:
                    shoulds.append(s)
            elif c.occur == MUST:
                if s is None:
                    return None
                musts.append(s)
            elif c.occur == FILTER:
                if s is None:
                    return None
                filters.append(s)
            elif c.occur == MUST_NOT:
                if s is not None:
                    must_nots.append(s)
        return combine_clause_scorers(
            shoulds, musts, must_nots, filters, 0, score_mode
        )

    def search(self, clauses: list[FieldedClause], k: int):
        """Global top-k [(docid, float32 score)] — (score desc, docid asc).
        Live masks come from the first clause's field (all fields share
        one docid space)."""
        from ..search.collector import merge_top_docs
        from ..search.searcher import collect_top_docs

        weighed = self._weigh(clauses)
        per_segment = [
            collect_top_docs(self._segment_scorer(weighed, i, "COMPLETE"), r.live, k)
            for i, r in enumerate(self.searchers[clauses[0].field].readers)
        ]
        return merge_top_docs(per_segment, k, self.doc_bases)

    def count(self, clauses: list[FieldedClause]) -> int:
        from ..search.scorers import live_docids

        weighed = self._weigh(clauses)
        return sum(
            len(live_docids(self._segment_scorer(weighed, i, "COMPLETE_NO_SCORES"), r.live))
            for i, r in enumerate(self.searchers[clauses[0].field].readers)
        )


def parse_multi_field(text: str, analyzers: dict[str, object], default_field: str):
    """``lang:en +content:spark -content:join "a b"`` -> FieldedClauses.

    ``field:`` prefixes route a clause to that field's index; unprefixed
    clauses go to ``default_field``.  The clause body supports the same
    syntax as parser.parse_query (term / phrase / prefix / fuzzy ...).
    """
    import re

    from ..search.parser import parse_query

    out: list[FieldedClause] = []
    token_re = re.compile(r'(?P<mod>[+-]?)(?:(?P<fld>\w+):)?(?P<body>"[^"]*"(?:~\d+)?|\S+)')
    for m in token_re.finditer(text):
        fld = m.group("fld") if m.group("fld") in analyzers else None
        body = m.group("body") if fld else (m.group(0)[len(m.group("mod")) :])
        field = fld or default_field
        q = parse_query(body, analyzers[field])
        if q is None:
            continue
        occur = {"+": MUST, "-": MUST_NOT, "": SHOULD}[m.group("mod")]
        out.append(FieldedClause(field, q, occur))
    return out
