"""Query tree + per-segment scorer planning (the BooleanWeight analogue).

Supported query surface (SURVEY §2.7 "in scope" rows): TermQuery,
BooleanQuery (SHOULD / MUST / FILTER / MUST_NOT, minimumNumberShouldMatch),
ConstantScoreQuery, BoostQuery, MatchAllDocsQuery.  Scorer selection follows
BooleanScorerSupplier: scoring SHOULD disjunctions -> WANDScorer; MUST/FILTER
-> conjunction; MUST_NOT -> exclusion (reference
search/BooleanScorerSupplier.java:288-554, BooleanQuery.java rewrite).

Every other query type is dense: one kernel per type in ``DENSE_KERNELS``
computes its whole per-segment match set and float32 scores, and
``dense_matches`` is the one entry point to them.  Top-k search, count,
use as a Boolean clause, the doc-values side of IndexOrDocValuesQuery,
deletes and splits all read a dense type's matches from there (the
single Weight/Scorer per query type of the reference).

``bulk_matches`` is the whole-match-set twin of the scorer tree for
term, match-all and dense leaves under any Boost / ConstantScore /
Boolean nesting: the searcher's TOP_SCORES path, and the inner scores of
covering and function-score queries (``scored_matches``).  It reproduces
``combine_clause_scorers``' float nesting exactly; the tree stays the
COMPLETE-mode arm and answers count and explain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bm25 import BM25Similarity, CollectionStatistics, TermStatistics
from .cache import cached_filter_docs
from .multiterm import (
    _multi_term_matches,
    multi_phrase_matches_segment,
    payload_check_matches_segment,
    phrase_matches_segment,
    sloppy_phrase_matches_segment,
)
from .scorers import (
    NO_MORE_DOCS,
    ConjunctionScorer,
    ConstantScoreScorer,
    ImpactsDISI,
    MatchAllScorer,
    PrecomputedScorer,
    ReqExclScorer,
    ReqOptSumScorer,
    Scorer,
    TermScorer,
    WANDScorer,
    live_docids,
)

SHOULD, MUST, MUST_NOT, FILTER = "SHOULD", "MUST", "MUST_NOT", "FILTER"


@dataclass(frozen=True)
class TermQuery:
    term: str


@dataclass(frozen=True)
class MatchAllDocsQuery:
    pass


@dataclass(frozen=True)
class ConstantScoreQuery:
    query: "Query"


@dataclass(frozen=True)
class BoostQuery:
    query: "Query"
    boost: float


@dataclass(frozen=True)
class PhraseQuery:
    """Phrase query: terms at consecutive positions (slop=0) or within
    ``slop`` total displacement (slop>0).

    Reference: search/PhraseQuery.java + ExactPhraseMatcher /
    SloppyPhraseMatcher.java; scoring uses the phrase frequency with a
    SimScorer whose idf is the SUM of the terms' idfs
    (BM25Similarity.scorer with a TermStatistics array).  Requires an
    index built with index_options="positions".

    Sloppy deviation (documented): supported for TWO-term phrases, where
    a doc matches iff positions (pa, pb) exist with |pb - pa - 1| <= slop
    — exactly the reference's 2-term sloppy matcher (a reversed pair
    costs 2, SloppyPhraseMatcher.java); the sloppy frequency is the COUNT
    of satisfying pairs (integer, oracle-exact) rather than the
    reference's sum of 1/(1+dist) match weights.
    """

    terms: tuple[str, ...]
    slop: int = 0


@dataclass(frozen=True)
class PrefixQuery:
    """All terms starting with ``prefix`` (reference search/PrefixQuery.java),
    evaluated with the CONSTANT_SCORE rewrite (MultiTermQuery.java): matches
    = union of the term range's postings, score = boost for every match,
    ties broken by docID — the classic multi-term rewrite."""

    prefix: str


@dataclass(frozen=True)
class WildcardQuery:
    """``*`` (any run) / ``?`` (any one char) wildcard over terms
    (reference search/WildcardQuery.java), CONSTANT_SCORE rewrite.  The
    literal prefix before the first wildcard bounds the dictionary scan
    (the automaton-intersection analogue for the common leading-literal
    case)."""

    pattern: str


@dataclass(frozen=True)
class FuzzyQuery:
    """Terms within ``max_edits`` edits of ``term`` (reference
    search/FuzzyQuery.java).  ``transpositions=True`` is the reference
    default (FuzzyQuery.java:66): an adjacent swap counts as ONE edit
    (full Damerau-Levenshtein, DuckDB damerau_levenshtein() oracle);
    False gives plain Levenshtein.  Deviation: CONSTANT_SCORE rewrite
    instead of the blended-freq scoring rewrite.  The edit distance runs
    as one vectorized DP over the whole segment dictionary."""

    term: str
    max_edits: int = 2
    transpositions: bool = True


@dataclass(frozen=True)
class PayloadScoreQuery:
    """Scores each matching doc by a FUNCTION of the payloads at the
    term's occurrences (reference queries/src/java/org/apache/lucene/
    queries/payloads/PayloadScoreQuery.java with PayloadFunction
    Min/Max/Sum/Average; the includeSpanScore=False form — score is the
    payload function alone, cast to float32).  Requires an index built
    with index_options="payloads" (per-occurrence int32 stream parallel
    to positions)."""

    term: str
    func: str = "sum"  # sum | max | min | avg


@dataclass(frozen=True)
class SpanPayloadCheckQuery:
    """Only spans whose payloads satisfy the check match (reference
    queries/payloads/SpanPayloadCheckQuery.java, PayloadType.INT):
    ``terms`` is an exact consecutive span (a single term is the common
    case), ``payloads`` one reference value per span position, ``op`` the
    MatchOperation (eq/gt/gte/lt/lte) applied at every position.  Scored
    like a span query: freq = accepted spans through the phrase
    SimScorer.  Requires index_options='payloads'."""

    terms: tuple[str, ...]
    payloads: tuple[int, ...]
    op: str = "eq"


@dataclass(frozen=True)
class TermInSetQuery:
    """Constant-score FILTER matching docs containing ANY of ``terms`` —
    the everyday "id IN (...)" query (reference search/TermInSetQuery.java:1,
    semantics in core/src/test/.../search/TestTermInSetQuery.java).  Unlike
    a SHOULD-of-TermQueries it never WAND-scores: the rewrite visits the
    set's terms in sorted order against the sorted dictionary (seekExact
    analogue = one binary search per term) and unions their postings;
    score = boost for every match."""

    terms: tuple[str, ...]


@dataclass(frozen=True)
class RegexpQuery:
    """Terms fully matching ``pattern`` (reference search/RegexpQuery.java
    + util/automaton/CompiledAutomaton.java): the pattern compiles to a
    DFA whose literal common prefix bounds a sorted-dictionary range scan
    and whose accepted-length bounds pre-filter candidates before ONE
    vectorized DFA run (search/regexp.py).  Non-regular constructs fall
    back to a Python-re full scan — keep patterns RE2-compatible so the
    DuckDB regexp_full_match oracle agrees.  CONSTANT_SCORE rewrite."""

    pattern: str


@dataclass(frozen=True)
class DisjunctionMaxQuery:
    """score = max(clause scores) + tie_breaker * (sum - max), computed in
    double and cast to float32 (reference search/DisjunctionMaxQuery.java,
    DisjunctionMaxScorer).  Clauses must be term leaves (possibly boosted)
    in this engine."""

    queries: tuple["Query", ...]
    tie_breaker: float = 0.0


@dataclass(frozen=True)
class TermRangeQuery:
    """Terms between ``lower`` and ``upper`` by UTF-8 byte order
    (search/TermRangeQuery.java), CONSTANT_SCORE rewrite like PrefixQuery.
    ``lower=None`` / ``upper=None`` leave that end open.  Default bounds
    are [lower, upper); the include flags give the classic parser's
    ``[a TO b]`` (both inclusive) / ``{a TO b}`` (both exclusive) exactly
    via byte-order tricks (an excluded bound is shifted by b"\\x00")."""

    lower: str | None
    upper: str | None
    include_lower: bool = True
    include_upper: bool = False


@dataclass(frozen=True)
class MultiPhraseQuery:
    """Phrase with per-position ALTERNATIVES: slot i matches any of its
    terms at position start+i (reference search/MultiPhraseQuery.java;
    union postings per slot).  Scored like PhraseQuery with idf = sum over
    ALL alternative terms' idfs (the MultiPhraseWeight TermStatistics
    array) and tf = the phrase frequency."""

    slots: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class IntervalQuery:
    """Scores docs by their minimal-interval sloppy frequency through
    IntervalScoreFunction.saturationFunction (reference queries/
    intervals/IntervalQuery.java: score = boost * (1 - pivot/(pivot +
    freq)), default pivot 1; IntervalScorer.java:63-66 freq = Σ 1 /
    max(len - minExtent + 1, 1) — here on the 2^-20 fixed-point grid,
    see intervals.sloppy_freq_int).  ``node`` is a FROZEN fn: AST
    (intervals.parse_fn output passed through intervals.freeze)."""

    node: tuple
    pivot: float = 1.0


@dataclass(frozen=True)
class FieldExistsQuery:
    """Matches every doc that HAS a value for the field (reference
    search/FieldExistsQuery.java — norms/doc-values/points existence
    check); here existence = non-null in the stored metadata column,
    constant score (the reference's usual FILTER/ConstantScore use)."""

    field: str


@dataclass(frozen=True)
class CoveringQuery:
    """Matches docs where at least minimumNumberMatch(doc) of the clauses
    match (reference sandbox/.../search/CoveringQuery.java +
    CoveringScorer.java): score = the sum of the MATCHING clauses' scores;
    the per-doc minimum is a LongValuesSource, clamped low at 1
    (CoveringScorer: ``minMatch = max(1, minMatchValues.longValue())``) —
    here the expression ``1 + field % mod`` over a stored long column
    (the LongValuesSource-from-expression shape).  A minimum above
    len(clauses) matches nothing for that doc."""

    clauses: tuple
    min_field: str
    min_mod: int = 3


@dataclass(frozen=True)
class SpanScoreQuery:
    """Scoring wrapper over a span AST (spans.py) — the SpanWeight /
    SpanScorer analogue (reference queries/spans/SpanWeight.java +
    SpanScorer.java): matches = docs with >= 1 span, freq = the DISTINCT-
    SPAN count (documented deviation from the reference's sum of
    1/(1+slop_width) sloppyFreq weights — the same integer-count
    convention PhraseQuery's sloppy mode uses), scored through the
    similarity with idf summed over EVERY term occurrence in the tree
    (SpanWeight.buildSimWeight collects termStates from all clauses,
    including SpanNot's exclusion arm).  Requires
    index_options='positions'."""

    node: object


@dataclass(frozen=True)
class SynonymQuery:
    """Terms that are synonyms of one another, scored as ONE pseudo-term:
    blended df = max(per-term df), blended ttf = sum(per-term ttf), and
    per-doc freq = sum(boost_i * tf_i) fed to a single SimScorer.

    Reference: search/SynonymQuery.java:205-231 (blended TermStatistics —
    docFreq max, totalTermFreq sum over terms with df > 0) and :610-700
    (SynonymScorer.freq() sums FreqBoostTermScorer boost*freq).  Boosts
    must be in (0, 1] like the reference builder enforces."""

    terms: tuple[str, ...]
    boosts: tuple[float, ...] | None = None

    def term_boosts(self) -> tuple[tuple[str, float], ...]:
        bs = self.boosts or tuple(1.0 for _ in self.terms)
        return tuple(zip(self.terms, bs))


@dataclass(frozen=True)
class BlendedTermQuery:
    """Related terms scored as SEPARATE clauses but with EQUALIZED term
    statistics: every member term is scored as if it had df = max(per-term
    df) and ttf = max(per-term ttf), so rare variants aren't IDF-inflated
    over common ones.  The adjusted clauses combine via dismax with
    tie_breaker (the reference's DISJUNCTION_MAX_REWRITE, tie = 0.01) or a
    SHOULD sum (BOOLEAN_REWRITE).

    Reference: search/BlendedTermQuery.java — ``blend()`` takes the max
    docFreq / max totalTermFreq across the group's TermStates and rewrites
    each clause with those stats; the builder wraps boosted terms in
    BoostQuery before handing them to the rewrite."""

    terms: tuple[str, ...]
    boosts: tuple[float, ...] | None = None
    tie_breaker: float = 0.01
    rewrite: str = "dismax"  # or "boolean" (SHOULD-sum)

    def term_boosts(self) -> tuple[tuple[str, float], ...]:
        bs = self.boosts or tuple(1.0 for _ in self.terms)
        return tuple(zip(self.terms, bs))


@dataclass(frozen=True)
class FunctionScoreQuery:
    """Replace the inner query's score with a function of it and stored
    numeric fields.  Default form: score' = float32(double(score) *
    ln(1 + field_value)) — FunctionScoreQuery.boostByValue.  With
    ``expression`` set, score' = float32(expr(_score, fields...)) — the
    lucene/expressions surface (JavascriptCompiler analogue,
    search/expressions.py): the compiled expression reads ``_score`` plus
    any stored numeric fields it names, vectorized per segment.

    Reference: queries/function/FunctionScoreQuery.java (DoubleValuesSource
    evaluated in double, cast to float) with
    DoubleValuesSource.fromLongField over the columnar stored field (the
    NumericDocValues analogue); expressions/js/JavascriptCompiler.java."""

    query: "Query"
    field: str = ""
    expression: str = ""


def encode_feature_value(v: np.ndarray) -> np.ndarray:
    """FeatureField.java:185 — the feature rides the postings term-freq as
    freqBits = floatToIntBits(float32(S)) >>> 15 (9 significant mantissa
    bits).  Positive finite inputs only (sign bit 0, so >>> == >>)."""
    f = np.asarray(v, dtype=np.float32)
    return f.view(np.int32).astype(np.int64) >> 15


def decode_feature_value(tf: np.ndarray) -> np.ndarray:
    """FeatureField.decodeFeatureValue (FeatureField.java:240-249):
    intBitsToFloat(tf << 15)."""
    bits = (np.asarray(tf, dtype=np.int64) << 15).astype(np.int32)
    return bits.view(np.float32)


@dataclass(frozen=True)
class FeatureQuery:
    """FeatureField query (reference core/document/FeatureField.java):
    a static per-doc relevance feature S > 0 (pagerank, freshness, ...)
    quantized to 9 significant mantissa bits (the encode/decode pair
    above) and turned into a score by one of the reference's functions:

      linear: w * S                        (float32 arithmetic)
      log:    float32(w * ln(a + S))       (double math, f32 cast; a >= 1)
      satu:   w * (1 - pivot/(S + pivot))  (float32 arithmetic chain —
              the reference writes 1 - k/(f+k) so rounding can't make the
              score decrease with f)
      sigm:   float32(w * (1 - pivot^a/(S^a + pivot^a)))  (double, cast)

    Typically a SHOULD clause beside the text query (the javadoc's
    ``boost`` example).  ``pivot=None`` on satu takes the
    SaturationFunction.rewrite path: pivot = decodeFeatureValue(
    float32(ttf / df)) over the feature's ENCODED freqs
    (computePivotFeatureValue) — resolved once per query by
    IndexSearcher's rewrite.  The feature source is a stored numeric
    column (this engine's doc-values seam); docs with value <= 0 carry
    no feature term and never match this clause."""

    field: str
    function: str = "satu"  # linear | log | satu | sigm
    weight: float = 1.0
    a: float = 1.0
    pivot: float | None = None


@dataclass(frozen=True)
class DistanceFeatureQuery:
    """document/LongDistanceFeatureQuery.java (LongField /
    LongPoint#newDistanceFeatureQuery): recency/proximity boosting —
    score = (float)(boost * (pivot / (pivot + (double)|value - origin|)))
    with the whole expression in double and ONE float cast (reference
    line 266).  Matches every live doc carrying the field; typically a
    SHOULD clause (wrapped in BoostQuery for the boost) beside the text
    query."""

    field: str
    origin: int
    pivot: int  # pivotDistance, must be > 0


@dataclass(frozen=True)
class IndriAndQuery:
    """Indri AND (reference search/IndriAndQuery.java + IndriAndScorer
    .java:44-69 + IndriDisjunctionScorer.java): the match set is the
    UNION of the clause postings, but EVERY clause scores every matched
    doc — a clause absent from the doc contributes its smoothing score
    (sim.score(freq=0, norm), TermScorer.smoothingScore:108-114, the
    Dirichlet background probability) — and the final score is the
    boost-weighted MEAN: f32((sum_i boost_i * double(f32 s_i)) /
    sum_i boost_i).  Scores are negative log-probabilities: COMPLETE
    mode only (the IndriDirichletSimilarity discipline)."""

    terms: tuple[str, ...]
    boosts: tuple[float, ...] = ()


@dataclass(frozen=True)
class StoredFieldFilter:
    """Constant-score match on a stored metadata column (``lang``,
    ``source``, ...) — the pragmatic doc-values filter (reference
    index/DocValuesType.java + search/PointRangeQuery.java equality case,
    declared SURVEY §0 deviation: columnar parquet metadata instead of a
    BKD tree).  Typically composed as a FILTER clause:
    ``bool_query(must=[TermQuery(t)], filter=[StoredFieldFilter("lang",
    "en")])`` — scores stay identical to the unfiltered query (filters
    never contribute to BM25, BooleanWeight semantics)."""

    field: str
    value: str


@dataclass(frozen=True)
class StoredFieldRange:
    """Constant-score NUMERIC RANGE match on a stored metadata column —
    the PointRangeQuery analogue over the columnar stored fields
    (search/PointRangeQuery.java semantics for one dimension: lower
    inclusive, upper EXCLUSIVE; None = open end).  Compose as a FILTER
    clause like StoredFieldFilter."""

    field: str
    lower: float | int | None
    upper: float | int | None


@dataclass(frozen=True)
class KnnFloatVectorQuery:
    """Approximate k-nearest-neighbor by cosine over the per-SEGMENT
    persisted HNSW graphs (reference search/KnnFloatVectorQuery.java over
    codecs/lucene99 per-segment graphs): each segment's graph returns its
    local top-k with cosine scores, the ordinary TopDocs merge keeps the
    global k.  Build graphs with index.vectors.build_vector_index.
    Deviation (documented): live-docs filtering is applied AFTER the beam
    search (the reference threads an acceptDocs bitset through it), so a
    heavily-deleted segment can return < k hits."""

    field: str
    vector: tuple[float, ...]
    k: int
    ef_search: int = 64
    # optional pre-filter Query (KnnFloatVectorQuery(..., filter): only
    # docs matching it may be returned; HnswGraph.search documents the
    # over-fetch + exact-fallback budget rule)
    filter: object = None
    # optional seed Query (reference search/SeededKnnVectorQuery.java):
    # its per-segment matches become the HNSW entry points instead of the
    # graph's global entry (SeededHnswGraphSearcher).  Deviation
    # (documented): seeds are the seed query's first max(2k, 16) matches
    # in docid order, not its top-k by score — entry-point quality, not
    # ranking semantics; segments where the seed matches nothing fall
    # back to the ordinary entry point, like the reference.
    seed: object = None
    # PatienceKnnVectorQuery (search/PatienceKnnVectorQuery.java): early
    # exit when the beam's result queue saturates for more than this many
    # consecutive candidate expansions (the reference default is
    # max(7, 0.3*k)); None = no early exit
    patience: int | None = None


@dataclass(frozen=True)
class PointBoxQuery:
    """Constant-score multi-dimensional BOX match against the per-segment
    BKD-style point tree (reference search/PointRangeQuery.java over
    util/bkd/BKDReader.intersect): per dimension lower INCLUSIVE, upper
    EXCLUSIVE, None = open end.  Compose as a FILTER clause.  Falls back
    to a stored-column scan when a segment has no persisted tree (same
    semantics, no pruning) — build trees with
    index.points.build_point_index."""

    fields: tuple[str, ...]
    lows: tuple[int | None, ...]
    highs: tuple[int | None, ...]


@dataclass(frozen=True)
class FunctionRangeQuery:
    """Matches docs whose compiled-EXPRESSION value (over stored numeric
    columns, search/expressions.py) falls inside the range, and scores
    each match with THE VALUE ITSELF (reference queries/function/
    FunctionRangeQuery.java: matching and scoring both come from the
    ValueSource; includeLower/includeUpper default true).  Covers
    FunctionMatchQuery (a DoubleValuesSource predicate) as the range
    special case."""

    expression: str
    lower: float | None = None
    upper: float | None = None
    include_lower: bool = True
    include_upper: bool = True


@dataclass(frozen=True)
class PointMultiRangeQuery:
    """Union of BOXES over the same point fields in one constant-score
    query (reference sandbox/search/MultiRangeQuery.java — a disjunction
    of ranges merged into a single BKD intersect;
    DocValuesMultiRangeQuery is the doc-values twin).  ``boxes`` is a
    tuple of (lows, highs) per-dimension bounds (lower inclusive, upper
    exclusive, None = open); matching docids are the deduplicated union.
    Composes as a FILTER clause like PointBoxQuery and shares its
    stored-column fallback."""

    fields: tuple[str, ...]
    boxes: tuple[tuple[tuple[int | None, ...], tuple[int | None, ...]], ...]


@dataclass(frozen=True)
class PointInSetQuery:
    """Constant-score match on docs whose point value on ONE dimension is
    in the set (reference search/PointInSetQuery.java: a single BKD
    traversal shared by the whole SORTED value set via MergePointVisitor
    — each cell visited once regardless of set size).  ``fields`` names
    the persisted tree, ``dim`` the coordinate; falls back to a
    stored-column isin scan when no tree exists.  Composes as a FILTER
    clause like PointBoxQuery."""

    fields: tuple[str, ...]
    dim: int
    values: tuple[int, ...]


@dataclass(frozen=True)
class DocValuesTermsQuery:
    """Constant-score match on docs whose STORED column value is in the
    set — the doc-values twin of TermInSetQuery (reference
    sandbox/src/java/org/apache/lucene/sandbox/search/DocValuesTermsQuery.java;
    its javadoc recommends exactly the
    ``IndexOrDocValuesQuery(TermInSetQuery, DocValuesTermsQuery)``
    pairing this engine supports).  Verification is one vectorized
    ``is_in`` over the resident column — random-access semantics, no
    postings decode, no match-set sort."""

    field: str
    values: tuple[str, ...]


@dataclass(frozen=True)
class IndexOrDocValuesQuery:
    """Cost-based choice between two semantically-IDENTICAL executions of
    one predicate (reference search/IndexOrDocValuesQuery.java): the
    ``index_query`` side materializes its match set from an index
    structure (BKD point tree, postings), the ``dv_query`` side verifies
    candidates by random access against the stored columns.  As a FILTER
    clause the boolean planner passes the lead cost (the cheapest
    required clause); the reference rule ``threshold = indexCost >>> 3;
    index iff threshold <= leadCost`` (IndexOrDocValuesQuery.java:178-183
    — dv gets an arbitrary 8x penalty because it compares once per
    visited doc) picks the dv side only when the lead is much more
    selective than the index-side match set.  Standalone (no lead), the
    index side always wins, like the reference's bulkScorer()."""

    index_query: "Query"
    dv_query: "Query"


@dataclass(frozen=True)
class BooleanClause:
    query: "Query"
    occur: str


@dataclass(frozen=True)
class BooleanQuery:
    clauses: tuple[BooleanClause, ...]
    min_should_match: int = 0


Query = (
    TermQuery
    | MatchAllDocsQuery
    | ConstantScoreQuery
    | BoostQuery
    | BooleanQuery
    | PhraseQuery
    | PrefixQuery
    | TermRangeQuery
    | WildcardQuery
    | FuzzyQuery
    | RegexpQuery
    | TermInSetQuery
    | PayloadScoreQuery
    | DisjunctionMaxQuery
    | StoredFieldFilter
    | StoredFieldRange
    | PointBoxQuery
    | PointMultiRangeQuery
    | FunctionRangeQuery
    | KnnFloatVectorQuery
    | MultiPhraseQuery
    | IndexOrDocValuesQuery
    | DocValuesTermsQuery
    | PointInSetQuery
    | FeatureQuery
    | DistanceFeatureQuery
    | SpanPayloadCheckQuery
    | IndriAndQuery
)


def bool_query(
    should=(), must=(), must_not=(), filter=(), min_should_match: int = 0
) -> BooleanQuery:
    cl = [BooleanClause(q, SHOULD) for q in should]
    cl += [BooleanClause(q, MUST) for q in must]
    cl += [BooleanClause(q, MUST_NOT) for q in must_not]
    cl += [BooleanClause(q, FILTER) for q in filter]
    return BooleanQuery(tuple(cl), min_should_match)


def collect_terms(q: Query) -> set[str]:
    if isinstance(q, TermQuery):
        return {q.term}
    if isinstance(q, (PhraseQuery, SpanPayloadCheckQuery)):
        return set(q.terms)
    if isinstance(q, MultiPhraseQuery):
        return {t for alts in q.slots for t in alts}
    if isinstance(q, (PrefixQuery, TermRangeQuery, WildcardQuery, FuzzyQuery,
                      RegexpQuery, TermInSetQuery, StoredFieldFilter,
                      StoredFieldRange, FieldExistsQuery, PointBoxQuery,
                      PointMultiRangeQuery, FunctionRangeQuery,
                      PayloadScoreQuery,
                      DocValuesTermsQuery, PointInSetQuery, FeatureQuery,
                      DistanceFeatureQuery)):
        return set()  # constant-score / payload / feature scoring needs no term stats
    if isinstance(q, (ConstantScoreQuery, BoostQuery)):
        return collect_terms(q.query)
    if isinstance(q, IndexOrDocValuesQuery):
        return collect_terms(q.index_query) | collect_terms(q.dv_query)
    if isinstance(q, KnnFloatVectorQuery):
        return {t for sub in (q.filter, q.seed) if sub is not None for t in collect_terms(sub)}
    if isinstance(q, SpanScoreQuery):
        from .spans import span_terms

        return set(span_terms(q.node))
    if isinstance(q, CoveringQuery):
        out: set[str] = set()
        for c in q.clauses:
            out |= collect_terms(c)
        return out
    if isinstance(q, (SynonymQuery, BlendedTermQuery, IndriAndQuery)):
        return set(q.terms)
    if isinstance(q, FunctionScoreQuery):
        return collect_terms(q.query)
    if isinstance(q, DisjunctionMaxQuery):
        out: set[str] = set()
        for sub in q.queries:
            out |= collect_terms(sub)
        return out
    if isinstance(q, BooleanQuery):
        out: set[str] = set()
        for c in q.clauses:
            out |= collect_terms(c.query)
        return out
    return set()


@dataclass
class Weight:
    """Query-wide state: per-term BM25 scorers built from index-wide stats
    (TermQuery.TermWeight ctor, TermQuery.java:60-95)."""

    collection_stats: CollectionStatistics
    term_stats: dict[str, TermStatistics]
    similarity: BM25Similarity = field(default_factory=BM25Similarity)
    _sim_cache: dict = field(default_factory=dict)

    def sim_scorer(self, term: str, boost: float):
        key = (term, float(boost))
        s = self._sim_cache.get(key)
        if s is None:
            ts = self.term_stats[term]
            s = self.similarity.scorer(boost, self.collection_stats, ts)
            self._sim_cache[key] = s
        return s

    def synonym_sim_scorer(self, terms: tuple[str, ...], boost: float):
        """Single SimScorer over blended pseudo-term stats: df = max df,
        ttf = sum ttf over terms with df > 0 (SynonymQuery.java:205-231)."""
        key = ("synonym", terms, float(boost))
        s = self._sim_cache.get(key)
        if s is None:
            df = 0
            ttf = 0
            for t in terms:
                ts = self.term_stats[t]
                if ts.doc_freq > 0:
                    df = max(df, ts.doc_freq)
                    ttf += ts.total_term_freq
            blended = TermStatistics("synonym pseudo-term", df, ttf)
            s = self.similarity.scorer(boost, self.collection_stats, blended)
            self._sim_cache[key] = s
        return s

    def blended_sim_scorer(self, group: tuple[str, ...], boost: float):
        """SimScorer over EQUALIZED stats: df = max df, ttf = max ttf
        across the group (BlendedTermQuery.java blend()) — every member
        clause shares it, only the clause boost differs."""
        key = ("blended", group, float(boost))
        s = self._sim_cache.get(key)
        if s is None:
            df = 0
            ttf = 0
            for t in group:
                ts = self.term_stats[t]
                df = max(df, ts.doc_freq)
                ttf = max(ttf, ts.total_term_freq)
            blended = TermStatistics("blended pseudo-term", df, ttf)
            s = self.similarity.scorer(boost, self.collection_stats, blended)
            self._sim_cache[key] = s
        return s

    def phrase_sim_scorer(self, terms: tuple[str, ...], boost: float):
        """Phrase SimScorer: idf = float32 cast of the double sum of the
        terms' idfs (PhraseWeight -> BM25Similarity.scorer(ts...))."""
        key = (terms, float(boost))
        s = self._sim_cache.get(key)
        if s is None:
            ts = [self.term_stats[t] for t in terms]
            s = self.similarity.scorer(boost, self.collection_stats, *ts)
            self._sim_cache[key] = s
        return s


class _NoMatchScorer(Scorer):
    def __init__(self):
        self.doc = NO_MORE_DOCS

    def cost(self) -> int:
        return 0

    def advance(self, target: int) -> int:
        self.doc = NO_MORE_DOCS
        return self.doc

    def score(self):
        return np.float32(0)

    def get_max_score(self, up_to):
        return np.float32(0)


# per-process counters proving which IndexOrDocValuesQuery path ran
# (tests reset + assert; the choice never changes results)
INDEX_OR_DV_STATS = {"index": 0, "dv": 0}


def _estimate_filter_cost(q: Query, weight: Weight, reader) -> int:
    """Match-count ESTIMATE for a filter's index side without executing
    it (the ScorerSupplier.cost() analogue): BKD estimate for point
    queries, df for terms, max_doc otherwise."""
    if isinstance(q, PointBoxQuery):
        tree = reader.point_tree(q.fields)
        if tree is not None:
            return tree.estimate_count(q.lows, q.highs)
        return reader.max_doc
    if isinstance(q, PointMultiRangeQuery):
        tree = reader.point_tree(q.fields)
        if tree is not None:
            return min(
                reader.max_doc,
                sum(tree.estimate_count(lo, hi) for lo, hi in q.boxes),
            )
        return reader.max_doc
    if isinstance(q, TermQuery):
        ts = weight.term_stats.get(q.term)
        return int(ts.doc_freq) if ts is not None else reader.max_doc
    if isinstance(q, (ConstantScoreQuery, BoostQuery)):
        return _estimate_filter_cost(q.query, weight, reader)
    return reader.max_doc


def _dv_predicate(q: Query, weight: Weight, reader):
    """() -> bool mask of len max_doc for the dv side's random-access
    verification (live docs folded in): the dv query's own match set."""

    def mask() -> np.ndarray:
        m = np.zeros(reader.max_doc, dtype=bool)
        s = build_scorer(q, weight, reader, 1.0, "COMPLETE_NO_SCORES")
        m[live_docids(s, getattr(reader, "live", None))] = True
        return m

    return mask


def build_scorer(
    q: Query,
    weight: Weight,
    reader,
    boost: float = 1.0,
    score_mode: str = "TOP_SCORES",
    top_level: bool = False,
    lead_cost: int | None = None,
) -> Scorer | None:
    """Per-segment scorer tree; None = query matches nothing in this segment.

    ``top_level`` enables single-term impacts pruning (ImpactsDISI wrap),
    mirroring ScorerSupplier.setTopLevelScoringClause.  ``lead_cost`` is
    the cheapest required clause's estimated cost when this query is a
    FILTER beside one (ScorerSupplier.get(leadCost)) — only
    IndexOrDocValuesQuery consults it.  A dense query type
    (``DENSE_KERNELS``) is answered by ``dense_matches``.
    """
    if type(q) in DENSE_KERNELS:
        matches = dense_matches(q, weight, reader, boost)
        if matches is None:
            return None
        return PrecomputedScorer(*matches)

    if isinstance(q, IndexOrDocValuesQuery):
        index_cost = _estimate_filter_cost(q.index_query, weight, reader)
        # IndexOrDocValuesQuery.java:178-183: threshold = cost >>> 3;
        # index iff threshold <= leadCost (dv pays an 8x penalty)
        if lead_cost is not None and lead_cost < (index_cost >> 3):
            INDEX_OR_DV_STATS["dv"] += 1
            from .scorers import DocValuesVerifyScorer

            return DocValuesVerifyScorer(
                reader.max_doc, _dv_predicate(q.dv_query, weight, reader), boost
            )
        INDEX_OR_DV_STATS["index"] += 1
        return build_scorer(q.index_query, weight, reader, boost, score_mode)

    if isinstance(q, TermQuery):
        ts = weight.term_stats.get(q.term)
        if ts is None or ts.doc_freq == 0:
            return None
        cursor = reader.cursor(q.term)
        if cursor is None:
            return None
        scorer = TermScorer(cursor, weight.sim_scorer(q.term, boost), reader.norms)
        if top_level and score_mode == "TOP_SCORES":
            return ImpactsDISI(scorer)
        return scorer

    if isinstance(q, MatchAllDocsQuery):
        return MatchAllScorer(reader.max_doc, boost)

    if isinstance(q, BoostQuery):
        return build_scorer(q.query, weight, reader, boost * q.boost, score_mode, top_level)

    if isinstance(q, ConstantScoreQuery):
        inner = build_scorer(q.query, weight, reader, 1.0, "COMPLETE_NO_SCORES", False)
        if inner is None:
            return None
        return ConstantScoreScorer(inner, boost)

    if isinstance(q, BooleanQuery):
        return _boolean_scorer(q, weight, reader, boost, score_mode, top_level)

    raise TypeError(f"unsupported query: {q!r}")


def dense_matches(q: Query, weight: Weight, reader, boost: float = 1.0):
    """(ascending live docids, float32 scores) of a dense query type in
    one segment, or None when nothing matches — the only place each
    dense type's matching and scoring lives.  Its kernel
    (``DENSE_KERNELS[type(q)]``) returns the pre-live match set (or None);
    the live mask is applied here."""
    return live_matches(reader, DENSE_KERNELS[type(q)](q, weight, reader, boost))


def live_matches(reader, matches):
    """``matches`` (None, or parallel docids / scores arrays) restricted
    to the docs ``reader.live`` keeps; None when none is left."""
    if matches is None:
        return None
    docs, scores = matches
    live = getattr(reader, "live", None)
    if live is not None and len(docs):
        keep = live[docs]
        docs, scores = docs[keep], scores[keep]
    return (docs, scores) if len(docs) else None


def scored_matches(q: Query, weight: Weight, reader, boost: float = 1.0):
    """(ascending docids, float32 scores) of ANY query in one segment,
    empty arrays when nothing matches: ``bulk_matches`` when it can
    express ``q``, else one COMPLETE walk of ``build_scorer``'s tree.
    Deleted docs may remain (term leaves are pre-live)."""
    if bulk_expressible(q):
        matches = bulk_matches(q, weight, reader, boost)
    else:
        scorer = build_scorer(q, weight, reader, boost, "COMPLETE")
        matches = None
        if scorer is not None:
            docs, scores = [], []
            doc = scorer.advance(0)
            while doc != NO_MORE_DOCS:
                docs.append(doc)
                scores.append(scorer.score())
                doc = scorer.next_doc()
            matches = np.asarray(docs, np.int64), np.asarray(scores, np.float32)
    if matches is None:
        return np.empty(0, np.int64), np.empty(0, np.float32)
    return matches


def _constant(docs: np.ndarray, boost: float):
    return docs, np.full(len(docs), boost, dtype=np.float32)


def _freq_scored(docs, freqs, reader, sim):
    """(docs, float32 scores of ``freqs`` by the SimScorer ``sim()``), or
    None when ``docs`` is empty — no SimScorer is built then (an empty
    index has no average field length)."""
    if len(docs) == 0:
        return None
    return docs, sim().score_bulk(freqs, np.asarray(reader.norms)[docs])


def _column(reader, field: str, dtype) -> np.ndarray:
    return reader.stored_column(field).to_numpy(zero_copy_only=False).astype(dtype)


def _multi_term_dense(q, weight, reader, boost):
    """CONSTANT_SCORE rewrite: the union of the matching terms' postings
    (cached per reader, pre-live), score = boost."""
    return _constant(
        cached_filter_docs(reader, q, lambda: _multi_term_matches(reader, q)), boost
    )


def _phrase_dense(q: PhraseQuery, weight, reader, boost):
    if q.slop > 0:
        docs, freqs = sloppy_phrase_matches_segment(reader, q.terms, q.slop)
    else:
        docs, freqs = phrase_matches_segment(reader, q.terms)
    return _freq_scored(docs, freqs, reader, lambda: weight.phrase_sim_scorer(q.terms, boost))


def _multi_phrase_dense(q: MultiPhraseQuery, weight, reader, boost):
    docs, freqs = multi_phrase_matches_segment(reader, q.slots)
    flat = tuple(t for alts in q.slots for t in alts)
    return _freq_scored(docs, freqs, reader, lambda: weight.phrase_sim_scorer(flat, boost))


def _span_dense(q: SpanScoreQuery, weight, reader, boost):
    from .spans import span_matches_segment, span_terms

    docs, freqs = span_matches_segment(reader, q.node)
    return _freq_scored(
        docs, freqs, reader, lambda: weight.phrase_sim_scorer(span_terms(q.node), boost)
    )


def _payload_check_dense(q: SpanPayloadCheckQuery, weight, reader, boost):
    docs, freqs = payload_check_matches_segment(reader, q.terms, q.payloads, q.op)
    return _freq_scored(docs, freqs, reader, lambda: weight.phrase_sim_scorer(q.terms, boost))


def _payload_score_dense(q: PayloadScoreQuery, weight, reader, boost):
    tid = reader.term_id(q.term)
    if tid is None:
        return None
    if not getattr(reader, "has_payloads", False):
        raise ValueError("PayloadScoreQuery needs index_options='payloads'")
    docs, tfs = reader.decode_term_cached(tid)
    r0 = int(reader.pos_row_start[tid])
    r1 = int(reader.pos_row_start[tid + 1])
    base = int(reader.pos_off[r0])
    flat = np.asarray(reader.pay_data[base : int(reader.pos_off[r1])], dtype=np.float64)
    starts = np.asarray(reader.pos_off[r0:r1], dtype=np.int64) - base
    if q.func == "sum":
        vals = np.add.reduceat(flat, starts)
    elif q.func == "max":
        vals = np.maximum.reduceat(flat, starts)
    elif q.func == "min":
        vals = np.minimum.reduceat(flat, starts)
    elif q.func == "avg":
        vals = np.add.reduceat(flat, starts) / tfs
    else:
        raise ValueError(f"unknown payload function: {q.func}")
    return docs, (vals * boost).astype(np.float32)


def _covering_dense(q: CoveringQuery, weight, reader, boost):
    sums = np.zeros(reader.max_doc, dtype=np.float64)
    cnt = np.zeros(reader.max_doc, dtype=np.int32)
    for c in q.clauses:
        docs, scores = scored_matches(c, weight, reader, boost)
        sums[docs] += scores.astype(np.float64)
        cnt[docs] += 1
    required = np.maximum(1, 1 + _column(reader, q.min_field, np.int64) % q.min_mod)
    docs = np.nonzero(cnt >= required)[0]
    return docs, sums[docs].astype(np.float32)


def _feature_dense(q: FeatureQuery, weight, reader, boost):
    vals = _column(reader, q.field, np.float64)
    docs = np.nonzero(vals > 0)[0]
    if len(docs) == 0:
        return None
    # encode -> decode: score on the 9-bit-mantissa quantized value,
    # exactly what the reference reads back from the postings freq
    f = decode_feature_value(encode_feature_value(vals[docs]))
    if q.function == "linear":
        sc = np.float32(q.weight) * f  # pure float32 multiply
    elif q.function == "log":
        sc = (float(q.weight) * np.log(float(q.a) + f.astype(np.float64))).astype(np.float32)
    elif q.function == "satu":
        if q.pivot is None:
            raise ValueError("satu FeatureQuery needs rewrite (pivot=None)")
        pv = np.float32(q.pivot)
        sc = np.float32(q.weight) * (np.float32(1.0) - pv / (f + pv))
    elif q.function == "sigm":
        if q.pivot is None:
            raise ValueError("sigm FeatureQuery needs an explicit pivot")
        pivot_pa = float(q.pivot) ** float(q.a)
        fd = f.astype(np.float64)
        sc = (
            float(q.weight) * (1.0 - pivot_pa / (fd ** float(q.a) + pivot_pa))
        ).astype(np.float32)
    else:
        raise ValueError(f"unknown feature function {q.function!r}")
    if boost != 1.0:
        sc = (np.float32(boost) * sc).astype(np.float32)
    return docs, sc


def _distance_feature_dense(q: DistanceFeatureQuery, weight, reader, boost):
    dist = np.abs(_column(reader, q.field, np.int64) - np.int64(q.origin)).astype(np.float64)
    # one double expression, ONE float cast (reference :266) — the boost
    # folds in BEFORE the cast
    sc = (float(boost) * (float(q.pivot) / (float(q.pivot) + dist))).astype(np.float32)
    return np.arange(reader.max_doc, dtype=np.int64), sc


def _stored_range_dense(q: StoredFieldRange, weight, reader, boost):
    import pyarrow.compute as pc

    col = reader.stored_column(q.field)
    m = np.ones(len(col), dtype=bool)
    if q.lower is not None:
        m &= pc.greater_equal(col, q.lower).to_numpy(zero_copy_only=False)
    if q.upper is not None:
        m &= pc.less(col, q.upper).to_numpy(zero_copy_only=False)
    return _constant(np.nonzero(m)[0], boost)


def _cached_column_dense(q, reader, boost, column_mask):
    """Constant-score match on ``column_mask(stored column)`` — cached
    per reader like a multi-term filter."""
    def compute():
        return np.nonzero(column_mask(reader.stored_column(q.field)))[0]

    return _constant(cached_filter_docs(reader, q, compute), boost)


def _stored_filter_dense(q: StoredFieldFilter, weight, reader, boost):
    import pyarrow.compute as pc

    return _cached_column_dense(
        q, reader, boost,
        lambda col: pc.equal(col, q.value).to_numpy(zero_copy_only=False),
    )


def _dv_terms_dense(q: DocValuesTermsQuery, weight, reader, boost):
    import pyarrow as pa
    import pyarrow.compute as pc

    return _cached_column_dense(
        q, reader, boost,
        lambda col: pc.is_in(
            col, value_set=pa.array(list(q.values), col.type)
        ).to_numpy(zero_copy_only=False),
    )


def _field_exists_dense(q: FieldExistsQuery, weight, reader, boost):
    import pyarrow.compute as pc

    return _cached_column_dense(
        q, reader, boost, lambda col: pc.is_valid(col).to_numpy(zero_copy_only=False)
    )


def _box_docs(reader, tree, fields, lows, highs) -> np.ndarray:
    """Docids inside one [low, high) box: the BKD tree when the segment
    has one, else a stored-column scan with identical semantics."""
    if tree is not None:
        return tree.intersect(lows, highs)[0]
    m = np.ones(reader.max_doc, dtype=bool)
    for f, lo, hi in zip(fields, lows, highs):
        col = reader.stored_column(f).to_numpy(zero_copy_only=False)
        if lo is not None:
            m &= col >= lo
        if hi is not None:
            m &= col < hi
    return np.nonzero(m)[0]


def _point_box_dense(q: PointBoxQuery, weight, reader, boost):
    tree = reader.point_tree(q.fields)
    return _constant(_box_docs(reader, tree, q.fields, q.lows, q.highs), boost)


def _point_multi_range_dense(q: PointMultiRangeQuery, weight, reader, boost):
    tree = reader.point_tree(q.fields)
    parts = [_box_docs(reader, tree, q.fields, lo, hi) for lo, hi in q.boxes]
    parts = [d for d in parts if len(d)]
    if not parts:
        return None
    return _constant(np.unique(np.concatenate(parts)), boost)  # overlap-deduped union


def _point_in_set_dense(q: PointInSetQuery, weight, reader, boost):
    tree = reader.point_tree(q.fields)
    if tree is not None:
        docs = tree.in_set(q.dim, q.values)[0]
    else:
        # fallback: stored-column isin scan (identical semantics)
        col = reader.stored_column(q.fields[q.dim]).to_numpy(zero_copy_only=False)
        docs = np.nonzero(np.isin(col, np.asarray(q.values, np.int64)))[0]
    return _constant(docs, boost)


def _function_range_dense(q: FunctionRangeQuery, weight, reader, boost):
    from .expressions import compile_expression

    expr = compile_expression(q.expression)
    vals = expr.evaluate({v: _column(reader, v, np.float64) for v in expr.variables})
    m = np.ones(reader.max_doc, dtype=bool)
    if q.lower is not None:
        m &= (vals >= q.lower) if q.include_lower else (vals > q.lower)
    if q.upper is not None:
        m &= (vals <= q.upper) if q.include_upper else (vals < q.upper)
    docs = np.nonzero(m)[0]
    return docs, (vals[docs] * boost).astype(np.float32)


def _synonym_dense(q: SynonymQuery, weight, reader, boost):
    """Dense SynonymScorer (SynonymQuery.java SynonymScorer.freq()):
    per-doc freq = sum(boost * tf) over the member terms (float32 —
    boosts restricted to exact binary fractions keep the sum bit-stable),
    scored once by the blended SimScorer."""
    freq = np.zeros(reader.max_doc, dtype=np.float32)
    for term, tb in q.term_boosts():
        tid = reader.term_id(term)
        if tid is None:
            continue
        docs, tfs = reader.decode_term_cached(tid)
        freq[docs] += np.float32(tb) * tfs.astype(np.float32)
    cand = np.nonzero(freq)[0]
    return _freq_scored(
        cand, freq[cand], reader, lambda: weight.synonym_sim_scorer(q.terms, boost)
    )


def _interval_dense(q: IntervalQuery, weight, reader, boost):
    from .intervals import eval_intervals, min_extent, sloppy_freq_int

    res = eval_intervals(reader, q.node)
    me = min_extent(q.node)
    docs_l, scores_l = [], []
    for d in sorted(res):
        fi = sloppy_freq_int(res[d], me)
        if fi:
            docs_l.append(d)
            # saturationFunction: w * (1 - pivot/(pivot + freq)), f32
            scores_l.append(np.float32(boost * (1.0 - q.pivot / (q.pivot + fi / (1 << 20)))))
    return np.asarray(docs_l, np.int64), np.asarray(scores_l, np.float32)


def _max_and_sum(term_boosts, sim_of, reader):
    """Per-doc float64 max and sum of the clause scores of ``(term,
    boost)`` pairs, each scored by ``sim_of(term, boost)``, and the docs
    any clause matched."""
    norms = np.asarray(reader.norms)
    mx = np.full(reader.max_doc, -np.inf, dtype=np.float64)
    sm = np.zeros(reader.max_doc, dtype=np.float64)
    matched = np.zeros(reader.max_doc, dtype=bool)
    for term, b in term_boosts:
        tid = reader.term_id(term)
        if tid is None:
            continue
        docs, freqs = reader.decode_term_cached(tid)
        sc = sim_of(term, b).score_bulk(freqs, norms[docs]).astype(np.float64)
        np.maximum.at(mx, docs, sc)
        sm[docs] += sc
        matched[docs] = True
    cand = np.nonzero(matched)[0]
    return cand, mx[cand], sm[cand]


def _dismax_dense(q: DisjunctionMaxQuery, weight, reader, boost):
    """Per-doc max and sum of clause scores in float64, score =
    f32(max + tie_breaker * (sum - max)) (DisjunctionMaxScorer
    double-accumulator shape, search/DisjunctionMaxScorer.java)."""

    def leaf(sub: Query, b: float):
        if isinstance(sub, TermQuery):
            return (sub.term, b)
        if isinstance(sub, BoostQuery):
            return leaf(sub.query, b * sub.boost)
        raise TypeError("DisjunctionMaxQuery clauses must be (boosted) terms")

    leaves = [leaf(sub, boost) for sub in q.queries]
    cand, mx, sm = _max_and_sum(leaves, weight.sim_scorer, reader)
    tb = float(q.tie_breaker)
    return cand, (mx + tb * (sm - mx)).astype(np.float32)


def _blended_dense(q: BlendedTermQuery, weight, reader, boost):
    """Per-clause float32 scores from ONE stats-equalized SimScorer per
    boost (BlendedTermQuery.java blend()), combined in float64 as dismax
    (max + tie * (sum - max), DISJUNCTION_MAX_REWRITE shape) or a SHOULD
    sum (BOOLEAN_REWRITE), cast to float32."""
    cand, mx, sm = _max_and_sum(
        [(t, boost * float(tb)) for t, tb in q.term_boosts()],
        lambda t, b: weight.blended_sim_scorer(q.terms, b),
        reader,
    )
    if q.rewrite == "boolean":
        return cand, sm.astype(np.float32)
    tb = float(q.tie_breaker)
    return cand, (mx + tb * (sm - mx)).astype(np.float32)


def _function_score_dense(q: FunctionScoreQuery, weight, reader, boost):
    """The inner query's COMPLETE scores (``scored_matches``) remapped by
    the DoubleValuesSource product in double, boost folded in before the
    one float32 cast (queries/function/FunctionScoreQuery.java
    boostByValue)."""
    docs, scores = scored_matches(q.query, weight, reader, 1.0)
    if len(docs) == 0:
        return None
    if q.expression:
        from .expressions import compile_expression

        expr = compile_expression(q.expression)
        bindings = {"_score": scores.astype(np.float64)}
        for name in expr.variables:
            if name != "_score":
                bindings[name] = _column(reader, name, np.float64)[docs]
        vals = expr.evaluate(bindings)
    else:
        v = reader.stored_column(q.field).to_numpy(zero_copy_only=False)[docs]
        vals = scores.astype(np.float64) * np.log(1.0 + v.astype(np.float64))
    return docs, (boost * vals).astype(np.float32)


def _indri_and_dense(q: IndriAndQuery, weight, reader, boost):
    """IndriAndScorer.scoreDoc (search/IndriAndScorer.java:44-69): union
    match set; every clause scores every matched doc (freq=0 smoothing
    when absent, TermScorer.smoothingScore); boost-weighted mean — per-
    clause f32 score widened to double, boost-multiplied, summed, divided
    by boostSum, one final f32 cast (the reference's arithmetic)."""
    boosts = q.boosts or tuple(1.0 for _ in q.terms)
    boost_sum = sum(float(b) for b in boosts)
    if boost_sum == 0:
        return None
    freqs_by_term: list[np.ndarray | None] = []
    union_mask = np.zeros(reader.max_doc, dtype=bool)
    for t in q.terms:
        tid = reader.term_id(t)
        if tid is None:
            freqs_by_term.append(None)
            continue
        docs, fr = reader.decode_term_cached(tid)
        f = np.zeros(reader.max_doc, dtype=np.int64)
        f[docs] = fr
        union_mask[docs] = True
        freqs_by_term.append(f)
    docs = np.nonzero(union_mask)[0]
    if len(docs) == 0:
        return None
    total = np.zeros(len(docs), dtype=np.float64)
    nb = np.asarray(reader.norms)[docs]
    zeros = np.zeros(len(docs), dtype=np.int64)
    for t, b, f in zip(q.terms, boosts, freqs_by_term):
        fr = f[docs] if f is not None else zeros
        total += weight.sim_scorer(t, 1.0).score_bulk(fr, nb).astype(np.float64) * float(b)
    return docs, (boost * total / boost_sum).astype(np.float32)


def _knn_dense(q: KnnFloatVectorQuery, weight, reader, boost):
    """Per-segment HNSW search; the filter's live matches are the accept
    set and the seed query's first max(2k, 16) live matches the entry
    points."""
    graph = reader.vector_index(q.field)
    if graph is None or not len(graph.ids):
        return None
    live = getattr(reader, "live", None)

    def docs_of(sub: Query) -> np.ndarray:
        return live_docids(
            build_scorer(sub, weight, reader, 1.0, "COMPLETE_NO_SCORES"), live
        )

    accept = None
    if q.filter is not None:
        fdocs = docs_of(q.filter)
        if len(fdocs) == 0:
            return None
        accept = np.zeros(reader.max_doc, dtype=bool)
        accept[fdocs] = True
    seeds = docs_of(q.seed)[: max(2 * q.k, 16)] if q.seed is not None else None
    hits = graph.search(
        np.asarray(q.vector, dtype=np.float32), q.k, q.ef_search,
        accept=accept, seeds=seeds, patience=q.patience,
    )
    hits.sort()  # ascending docids
    docs = np.array([d for d, _ in hits], np.int64)
    return docs, np.array([s * boost for _, s in hits], np.float32)


# The dense query types: each kernel answers (q, weight, reader, boost)
# with its pre-live (ascending docids, float32 scores), or None.
DENSE_KERNELS = {
    **dict.fromkeys(
        (PrefixQuery, TermRangeQuery, WildcardQuery, FuzzyQuery, RegexpQuery,
         TermInSetQuery),
        _multi_term_dense,
    ),
    PhraseQuery: _phrase_dense,
    MultiPhraseQuery: _multi_phrase_dense,
    SpanScoreQuery: _span_dense,
    SpanPayloadCheckQuery: _payload_check_dense,
    PayloadScoreQuery: _payload_score_dense,
    CoveringQuery: _covering_dense,
    FeatureQuery: _feature_dense,
    DistanceFeatureQuery: _distance_feature_dense,
    StoredFieldRange: _stored_range_dense,
    StoredFieldFilter: _stored_filter_dense,
    DocValuesTermsQuery: _dv_terms_dense,
    FieldExistsQuery: _field_exists_dense,
    PointBoxQuery: _point_box_dense,
    PointMultiRangeQuery: _point_multi_range_dense,
    PointInSetQuery: _point_in_set_dense,
    FunctionRangeQuery: _function_range_dense,
    SynonymQuery: _synonym_dense,
    IntervalQuery: _interval_dense,
    DisjunctionMaxQuery: _dismax_dense,
    BlendedTermQuery: _blended_dense,
    FunctionScoreQuery: _function_score_dense,
    IndriAndQuery: _indri_and_dense,
    KnnFloatVectorQuery: _knn_dense,
}


# --- the bulk Boolean kernel ---------------------------------------------

def bulk_expressible(q: Query) -> bool:
    """True when ``bulk_matches`` answers ``q``: term, match-all and
    ``DENSE_KERNELS`` leaves under any nesting of Boost, ConstantScore
    and Boolean queries."""
    t = type(q)
    if t is TermQuery or t is MatchAllDocsQuery or t in DENSE_KERNELS:
        return True
    if t is BoostQuery or t is ConstantScoreQuery:
        return bulk_expressible(q.query)
    if t is BooleanQuery:
        return all(bulk_expressible(c.query) for c in q.clauses)
    return False


def bulk_matches(q: Query, weight: Weight, reader, boost: float = 1.0, scores: bool = True):
    """(ascending docids, float32 scores) of a ``bulk_expressible`` query
    in one segment — its whole match set at once, scored with exactly the
    float nesting of ``build_scorer``'s tree — or None exactly where
    ``build_scorer`` returns None: a Boolean parent counts a present
    clause that matches nothing apart from an absent one, as the tree
    does.  With ``scores=False`` the scores are None (a FILTER, MUST_NOT
    or ConstantScore operand).  Term leaves are pre-live; dense leaves
    come through ``dense_matches``, so they are live."""
    t = type(q)
    if t is TermQuery:
        ts = weight.term_stats.get(q.term)
        tid = reader.term_id(q.term) if ts is not None and ts.doc_freq else None
        if tid is None:
            return None
        docs, freqs = reader.decode_term_cached(tid)
        if not scores:
            return docs, None
        sim = weight.sim_scorer(q.term, boost)
        return docs, sim.score_bulk(freqs, np.asarray(reader.norms)[docs])
    if t is BoostQuery:
        return bulk_matches(q.query, weight, reader, boost * q.boost, scores)
    if t is MatchAllDocsQuery:
        docs = np.arange(reader.max_doc, dtype=np.int64)
        return _constant(docs, boost) if scores else (docs, None)
    if t is ConstantScoreQuery:
        inner = bulk_matches(q.query, weight, reader, 1.0, False)
        if inner is None:
            return None
        return _constant(inner[0], boost) if scores else (inner[0], None)
    if t is BooleanQuery:
        return _boolean_bulk(q, weight, reader, boost, scores)
    return dense_matches(q, weight, reader, boost)


def _boolean_bulk(q: BooleanQuery, weight: Weight, reader, boost: float, scores: bool):
    """``combine_clause_scorers`` over whole match sets.  A doc matches
    every MUST and FILTER clause and no MUST_NOT clause; the SHOULD side
    (docs matching >= max(msm, 1) present SHOULD clauses) is required
    when msm > 0 or when no MUST or FILTER clause is present.  Sums are
    float64 in clause order: conj = Σ MUST, opt = f32(Σ SHOULD) (the
    WANDScorer accumulator); the score is f32(conj + opt) when msm > 0,
    f32(f32(conj) + opt) where the optional SHOULD side matches, f32(conj)
    elsewhere, opt (0 where no SHOULD clause matches) without a MUST
    clause, 0 for FILTER alone."""
    msm = q.min_should_match
    musts, filters, shoulds = [], [], []
    for c in q.clauses:
        if c.occur == MUST or c.occur == FILTER:
            must = c.occur == MUST
            m = bulk_matches(c.query, weight, reader, boost if must else 1.0, scores and must)
            if m is None:
                return None
            (musts if must else filters).append(m)
    # optional SHOULD clauses only score: skip them when nothing is scored
    required = musts + filters
    if scores or msm > 0 or not required:
        for c in q.clauses:
            if c.occur == SHOULD:
                m = bulk_matches(c.query, weight, reader, boost, scores)
                if m is not None:
                    shoulds.append(m)
    if len(shoulds) < msm or not (required or shoulds):
        return None
    n = reader.max_doc

    sc = None
    if len(musts) + len(filters) + len(shoulds) == 1:
        # one positive clause: its own match set and score
        cand, sc = (musts or filters or shoulds)[0]
        if filters and scores:
            sc = np.zeros(len(cand), np.float32)
    else:
        mask = _in_at_least(n, required, len(required)) if required else None
        if shoulds:
            smatch = _in_at_least(n, shoulds, msm)
            if msm > 0 or not required:
                mask = smatch if mask is None else mask & smatch
        cand = np.flatnonzero(mask)
    excl = None
    for c in q.clauses:
        if c.occur == MUST_NOT and len(cand):
            m = bulk_matches(c.query, weight, reader, 1.0, False)
            if m is not None:
                if excl is None:
                    excl = np.zeros(n, dtype=bool)
                excl[m[0]] = True
    if excl is not None:
        keep = ~excl[cand]
        cand = cand[keep]
        if sc is not None:
            sc = sc[keep]
    if not scores or sc is not None:
        return cand, sc

    if shoulds:
        opt = _sum_at(n, shoulds, cand).astype(np.float32)
    if not musts:
        return cand, opt if shoulds else np.zeros(len(cand), np.float32)
    conj = _sum_at(n, musts, cand)
    if not shoulds:
        return cand, conj.astype(np.float32)
    if msm > 0:
        return cand, (conj + opt).astype(np.float32)
    sc = conj.astype(np.float32)
    hit = smatch[cand]
    sc[hit] = (sc[hit].astype(np.float64) + opt[hit]).astype(np.float32)
    return cand, sc


def _in_at_least(n: int, matches, need: int) -> np.ndarray:
    """Bool mask over ``n`` docs: in at least max(need, 1) of the
    ``matches`` (docids, scores) pairs' doc sets."""
    if need <= 1:
        mask = np.zeros(n, dtype=bool)
        for docs, _ in matches:
            mask[docs] = True
        return mask
    cnt = np.zeros(n, dtype=np.int32)
    for docs, _ in matches:
        cnt[docs] += 1
    return cnt >= need


def _sum_at(n: int, matches, cand: np.ndarray) -> np.ndarray:
    """float64 sums at ``cand`` of the ``matches`` pairs' float32 scores,
    added in order (the scorer tree's double accumulator)."""
    acc = np.zeros(n, dtype=np.float64)
    for docs, s in matches:
        acc[docs] += s
    return acc[cand]


def _boolean_scorer(
    q: BooleanQuery, weight: Weight, reader, boost: float, score_mode: str, top_level: bool
) -> Scorer | None:
    shoulds, musts, must_nots, filters = [], [], [], []
    for c in q.clauses:
        if c.occur == SHOULD:
            s = build_scorer(c.query, weight, reader, boost, score_mode)
            if s is not None:
                shoulds.append(s)
        elif c.occur == MUST:
            s = build_scorer(c.query, weight, reader, boost, score_mode)
            if s is None:
                return None
            musts.append(s)
    # lead cost for FILTER ScorerSupplier.get(leadCost): the cheapest
    # required clause drives the conjunction; a SHOULD-side lead (msm>0)
    # costs at most the sum of its clauses (disjunction cost)
    lead_cost: int | None = None
    if musts:
        lead_cost = min(s.cost() for s in musts)
    elif shoulds and q.min_should_match > 0:
        lead_cost = sum(s.cost() for s in shoulds)
    for c in q.clauses:
        if c.occur == FILTER:
            s = build_scorer(
                c.query, weight, reader, 1.0, "COMPLETE_NO_SCORES",
                lead_cost=lead_cost,
            )
            if s is None:
                return None
            filters.append(s)
        elif c.occur == MUST_NOT:
            s = build_scorer(c.query, weight, reader, 1.0, "COMPLETE_NO_SCORES")
            if s is not None:
                must_nots.append(s)

    return combine_clause_scorers(
        shoulds, musts, must_nots, filters, q.min_should_match, score_mode, top_level
    )


def combine_clause_scorers(
    shoulds, musts, must_nots, filters, msm, score_mode, top_level=False
) -> Scorer | None:
    """BooleanScorerSupplier combination over ALREADY-BUILT clause scorers
    (shared by the single-index boolean planner and the multi-field
    searcher, whose clauses come from different per-field indexes over the
    same docid space)."""
    if not shoulds and msm > 0:
        return None
    if not shoulds and not musts and not filters:
        return None  # pure MUST_NOT is non-matching (BooleanQuery semantics)
    if shoulds and len(shoulds) < msm:
        return None

    # SHOULD side
    opt: Scorer | None = None
    if len(shoulds) == 1:
        opt = shoulds[0]
    elif len(shoulds) == msm > 1:
        # every present SHOULD clause must match: their conjunction, which
        # sums like the WANDScorer accumulator (WANDScorer needs msm < n)
        opt = ConjunctionScorer(shoulds, shoulds)
    elif shoulds:
        opt = WANDScorer(shoulds, msm, score_mode)

    # required side
    required = musts + filters
    positive: Scorer | None
    if required:
        if opt is not None and msm > 0:
            required = required + [opt]
            scoring = musts + [opt]
            positive = ConjunctionScorer(required, scoring)
        elif opt is not None:
            # msm = 0 beside a required clause: the SHOULD side only scores
            positive = ReqOptSumScorer(ConjunctionScorer(required, musts), opt)
        else:
            if not musts:
                # filter-only query: constant zero scores? give constant 0
                positive = ConjunctionScorer(required, [])
            else:
                positive = ConjunctionScorer(required, musts)
    else:
        if opt is None:
            return None
        if isinstance(opt, TermScorer) and top_level and score_mode == "TOP_SCORES":
            opt = ImpactsDISI(opt)
        positive = opt

    if must_nots:
        if len(must_nots) == 1:
            excl = must_nots[0]
        else:
            excl = WANDScorer(must_nots, 0, "COMPLETE_NO_SCORES")
        positive = ReqExclScorer(positive, excl)
    return positive
