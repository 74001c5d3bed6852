"""Analyzers: tokenizer + filter chains producing per-document terms.

Reproduces the reference's ``StandardAnalyzer`` chain — ``StandardTokenizer
-> LowerCaseFilter -> StopFilter`` with an EMPTY default stop set and
``maxTokenLength=255`` (reference: lucene/core/src/java/org/apache/lucene/
analysis/standard/StandardAnalyzer.java:37,51-53,85-96) — and a
``SimpleCodeAnalyzer`` whose semantics are exactly expressible in ANSI SQL
(used for the DuckDB oracle comparisons).

The batch token stream
----------------------
Every analyzer analyzes a batch of documents through ONE method,
``_batch_token_stream(texts) -> TokenStream`` (the reference's TokenStream,
one whole batch at a time).  A stream has one entry per emitted token, in
document order, in 8 fields ``(vocab, tids, doc_ids, positions, lengths,
n_docs, off_s, off_e)``:

- ``vocab``: the batch's distinct terms (``list[str]``) in UTF-8 byte
  order; every entry is used by at least one token.
- ``tids`` / ``doc_ids`` / ``positions`` / ``off_s`` / ``off_e`` (int64,
  one per token): the token's index into ``vocab``, its document
  (``0..n_docs-1``), its position in that document (a dropped token leaves
  a gap, a posIncrement-0 overlap shares its source's position) and its
  char offsets into the document.
- ``lengths`` (int64, one per document): the norm length
  (FieldInvertState length — posIncrement-0 overlaps are discounted).

Each decision of that contract is one function: ``byte_order`` (the only
vocabulary sort — the reference sorts term bytes once, at flush),
``empty_stream``, ``token_stream`` (a stream from token strings or unique
strings + ids), ``TokenStream.keep`` (drop tokens), ``TokenStream.relabel``
(rename, merge or drop vocabulary entries), ``TokenStream.extend`` (insert
tokens), ``scan_stream`` (the vectorized scan prelude of the UAX#29 and
whitespace tokenizers), ``stream_from_doc_tokens`` (per-document
tokenizers, see ``DocTokensAnalyzer``) and ``postings_rows`` (the stream as
postings rows for an index option; ``analyze_batch`` is its docs_freqs
view).  A custom analyzer plugs in by defining ``_batch_token_stream`` or,
per document, ``_doc_tokens``.

An analyzer is instantiated ONCE per Ray actor (tables loaded in __init__)
and invoked per Arrow batch; see lucene_ray/index/build.py.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import NamedTuple

import numpy as np

from . import scanner


def byte_order(terms: list[str]) -> tuple[list[str], np.ndarray]:
    """The vocabulary order: the distinct ``terms`` sorted by their UTF-8
    bytes, and each input term's index into that list.  UTF-8 byte order
    is code point order, which is how Python compares ``str``.  The dedup
    keeps first-seen order, so the sorted runs callers pass (one per token
    length, one per fragment) stay runs for the sort."""
    vocab = sorted(dict.fromkeys(terms))
    index = dict(zip(vocab, range(len(vocab))))
    return vocab, np.fromiter(map(index.__getitem__, terms), np.int64, len(terms))


class TokenStream(NamedTuple):
    """A batch's tokens; the contract is in the module docstring."""

    vocab: list[str]
    tids: np.ndarray
    doc_ids: np.ndarray
    positions: np.ndarray
    lengths: np.ndarray
    n_docs: int
    off_s: np.ndarray
    off_e: np.ndarray

    def keep(self, mask: np.ndarray) -> TokenStream:
        """Drop the tokens where ``mask`` is False (survivors keep their
        positions, the StopFilter gap), recount ``lengths`` and drop the
        vocabulary entries left without tokens."""
        if mask.all():
            return self
        doc_ids = self.doc_ids[mask]
        lengths = np.bincount(doc_ids, minlength=self.n_docs).astype(np.int64)
        if not len(doc_ids):
            return empty_stream(self.n_docs, lengths)
        tids = self.tids[mask]
        used = np.unique(tids)
        compact = np.full(len(self.vocab), -1, np.int64)
        compact[used] = np.arange(len(used), dtype=np.int64)
        return TokenStream(
            [self.vocab[i] for i in used.tolist()],
            compact[tids],
            doc_ids,
            self.positions[mask],
            lengths,
            self.n_docs,
            self.off_s[mask],
            self.off_e[mask],
        )

    def relabel(self, mapped: list[str | None]) -> TokenStream:
        """Rename vocabulary entry i to ``mapped[i]``; entries given the
        same name merge into one term.  A None entry drops its tokens, as
        ``keep`` does."""
        live = [i for i, m in enumerate(mapped) if m is not None]
        vocab, ids = byte_order([mapped[i] for i in live])
        if len(live) == len(mapped):
            return self._replace(vocab=vocab, tids=ids[self.tids])
        old2new = np.full(len(mapped), -1, np.int64)
        old2new[live] = ids
        tids = old2new[self.tids]
        return self._replace(vocab=vocab, tids=tids).keep(tids >= 0)

    def extend(self, groups) -> TokenStream:
        """This stream with tokens inserted, one group of ``(term, doc_ids,
        positions, off_s, off_e)`` at a time, then ordered stably by (doc,
        position): an inserted token follows the stream's own tokens at its
        position, so every posting lists its positions in order.
        ``lengths`` stay as they are (inserted tokens are posIncrement-0
        overlaps unless the caller recounts)."""
        if not groups:
            return self
        ids = np.repeat(
            np.arange(len(groups), dtype=np.int64) + len(self.vocab),
            [len(g[1]) for g in groups],
        )
        d, p, os_, oe = (
            np.concatenate([a] + [g[k] for g in groups]).astype(np.int64)
            for k, a in enumerate((self.doc_ids, self.positions, self.off_s, self.off_e), 1)
        )
        order = np.lexsort((p, d))
        return token_stream(
            self.vocab + [g[0] for g in groups],
            d[order],
            p[order],
            self.n_docs,
            os_[order],
            oe[order],
            lengths=self.lengths,
            ids=np.concatenate((self.tids, ids))[order],
        )

    def stack(self, pairs) -> TokenStream:
        """For each ``(g, term)`` of ``pairs``, insert ``term`` on every
        token of vocabulary entry ``g``, at its position and offsets
        (posIncrement 0)."""
        groups = []
        for g, term in pairs:
            sel = np.flatnonzero(self.tids == g)
            groups.append((term, self.doc_ids[sel], self.positions[sel], self.off_s[sel], self.off_e[sel]))
        return self.extend(groups)


def empty_stream(n_docs: int, lengths: np.ndarray | None = None) -> TokenStream:
    """The stream of ``n_docs`` documents without tokens."""
    e = np.empty(0, np.int64)
    if lengths is None:
        lengths = np.zeros(n_docs, np.int64)
    return TokenStream([], e, e, e, lengths, n_docs, e, e)


def token_stream(
    terms, doc_ids, positions, n_docs, off_s, off_e, lengths=None, ids=None
) -> TokenStream:
    """The stream whose token j is ``terms[j]`` or, with ``ids``,
    ``terms[ids[j]]`` (``terms`` may then repeat a string); its vocabulary
    is ``byte_order(terms)``.  ``lengths`` defaults to each document's
    token count."""
    vocab, tids = byte_order(terms)
    doc_ids = np.asarray(doc_ids, np.int64)
    if lengths is None:
        lengths = np.bincount(doc_ids, minlength=n_docs).astype(np.int64)
    return TokenStream(
        vocab,
        tids if ids is None else tids[ids],
        doc_ids,
        np.asarray(positions, np.int64),
        lengths,
        n_docs,
        np.asarray(off_s, np.int64),
        np.asarray(off_e, np.int64),
    )


def scan_stream(texts: list[str], spans, fold: np.ndarray | None = None) -> TokenStream:
    """The vectorized scan prelude: the batch as one code point array
    (documents joined by '\\n'), ``spans(cps) -> (starts, ends)`` its token
    spans in document order, positions = token ordinals per document, and
    one unique pass per token length over the code points (mapped through
    ``fold`` first, e.g. the lowercase table).  No per-token Python
    objects; lengths count the tokens."""
    if not texts:
        return empty_stream(0)
    joined = "\n".join(t or "" for t in texts)
    cps = np.frombuffer(joined.encode("utf-32-le"), dtype="<u4")
    doc_lens = np.array([len(t or "") for t in texts], dtype=np.int64)
    # doc i occupies [doc_off[i], doc_off[i] + len_i); +1 for the '\n'
    doc_off = np.concatenate(([0], np.cumsum(doc_lens + 1)))[:-1]
    starts, ends = spans(cps)
    n_tok = len(starts)
    if n_tok == 0:
        return empty_stream(len(texts))
    doc_ids = np.searchsorted(doc_off, starts, side="right") - 1
    # position = token ordinal within its doc (scan order is doc order)
    run_start = np.empty(n_tok, dtype=np.int64)
    first = np.empty(n_tok, dtype=bool)
    first[0] = True
    first[1:] = doc_ids[1:] != doc_ids[:-1]
    run_start[first] = np.flatnonzero(first)
    np.maximum.accumulate(np.where(first, run_start, 0), out=run_start)
    positions = np.arange(n_tok, dtype=np.int64) - run_start

    chars = cps if fold is None else fold[cps]
    tok_lens = ends - starts
    ids = np.zeros(n_tok, dtype=np.int64)
    terms: list[str] = []
    for L in np.unique(tok_lens):
        sel = np.flatnonzero(tok_lens == L)
        mat = chars[starts[sel, None] + np.arange(L)[None, :]]
        mat = np.ascontiguousarray(mat.astype("<u4"))
        uniq, inv = np.unique(mat.view(f"V{int(L) * 4}").ravel(), return_inverse=True)
        ids[sel] = len(terms) + inv
        ubytes = uniq.tobytes()
        step = int(L) * 4
        terms.extend(
            ubytes[i : i + step].decode("utf-32-le") for i in range(0, len(ubytes), step)
        )
    # doc-relative char offsets per occurrence
    off = doc_off[doc_ids]
    return token_stream(terms, doc_ids, positions, len(texts), starts - off, ends - off, ids=ids)


def stream_from_doc_tokens(texts: list[str], fn) -> TokenStream:
    """The stream of a per-document tokenizer ``fn(text) ->
    list[(term, start, end)]`` (tokens in position order, posIncrement 1
    each) or ``list[(term, pos, start, end)]`` with explicit positions
    (StopFilter gaps); a document's length is its token count.  For short
    whole-value fields (paths, derived contact lines) a per-doc Python
    expansion is the honest shape — vocabulary dedup and the stream
    arrays stay numpy."""
    rows: list[tuple] = []
    counts = np.zeros(len(texts), np.int64)
    for di, text in enumerate(texts):
        toks = fn(text or "")
        counts[di] = len(toks)
        rows.extend(t if len(t) == 4 else (t[0], p, t[1], t[2]) for p, t in enumerate(toks))
    terms, pos, starts, ends = zip(*rows) if rows else ((), (), (), ())
    doc_ids = np.repeat(np.arange(len(texts), dtype=np.int64), counts)
    return token_stream(list(terms), doc_ids, pos, len(texts), starts, ends)


def postings_rows(s: TokenStream, index_options: str = "docs_freqs"):
    """The stream as postings rows, one per (doc, term), sorted by doc
    then term (stream order is doc order, so the sort is short):
    ``(vocab, tids, doc_ids, tfs, lengths)``.  Any other index option adds
    the rows' token positions, start and end offsets, concatenated row
    after row in stream order (``tfs`` gives each row's count, so row
    offsets are a prefix sum): ``(vocab, tids, doc_ids, tfs, lengths,
    positions, off_s, off_e)``."""
    V = np.int64(max(len(s.vocab), 1))
    keys = s.doc_ids * V + s.tids
    if index_options == "docs_freqs":
        ukeys, tfs = np.unique(keys, return_counts=True)
        return s.vocab, ukeys % V, ukeys // V, tfs.astype(np.int64), s.lengths
    order = np.argsort(keys, kind="stable")  # stable: in-row stream order kept
    k = keys[order]
    first = np.flatnonzero(np.diff(k, prepend=-1))
    tfs = np.diff(np.append(first, len(k)))
    o = order[first]
    return (
        s.vocab,
        s.tids[o],
        s.doc_ids[o],
        tfs,
        s.lengths,
        s.positions[order],
        s.off_s[order],
        s.off_e[order],
    )


class StandardAnalyzer:
    """UAX#29 tokenize -> per-codepoint lowercase -> stop filter.

    ``analyze(text)`` returns ``(terms, tfs, length)`` where ``length`` is the
    number of tokens that survived the chain (the FieldInvertState length used
    for the norm, reference IndexingChain.java:1150-1166; with no graph
    filters there are no position overlaps, so
    ``norm = SmallFloat.intToByte4(length)``).
    """

    def __init__(self, stop_words: frozenset[str] | None = None, max_token_length: int = 255):
        self.tables = scanner.tables()
        # Default stop set is EMPTY, matching StandardAnalyzer.java:51-53
        # (CharArraySet.EMPTY_SET), critical for rank-identity.
        self.stop_words = stop_words or frozenset()
        self.max_token_length = max_token_length

    def tokens(self, text: str) -> list[str]:
        """All chain-surviving tokens, in order."""
        if not text:
            return []
        cps = np.frombuffer(text.encode("utf-32-le"), dtype="<u4")
        spans = scanner.scan_spans(cps, self.max_token_length)
        if not spans:
            return []
        low_text = self.tables.lower[cps].astype("<u4").tobytes().decode("utf-32-le")
        toks = [low_text[s:e] for s, e, _ in spans]
        if self.stop_words:
            toks = [t for t in toks if t not in self.stop_words]
        return toks

    def analyze(self, text: str) -> tuple[list[str], list[int], int]:
        toks = self.tokens(text)
        if not toks:
            return [], [], 0
        counts = Counter(toks)
        terms = list(counts.keys())
        tfs = list(counts.values())
        return terms, tfs, len(toks)

    def normalize(self, term: str) -> str:
        """Query-term normalization (Analyzer.normalize): lowercase only."""
        cps = np.frombuffer(term.encode("utf-32-le"), dtype="<u4")
        return self.tables.lower[cps].astype("<u4").tobytes().decode("utf-32-le")

    def analyze_batch(self, texts: list[str]):
        """Vectorized whole-batch analysis: the docs_freqs rows of the
        batch's token stream, ``(vocab, term_ids, doc_ids, tfs, lengths)``
        (see ``postings_rows``); ``lengths[i]`` is doc i's norm length.
        A docs_freqs build analyzes through this method."""
        return postings_rows(self._batch_token_stream(texts))

    def _batch_token_stream(self, texts: list[str]) -> TokenStream:
        """UAX#29 spans, lowercased through the code point table, then the
        stop filter (dropped tokens leave position gaps)."""
        s = scan_stream(
            texts,
            lambda cps: scanner.scan_spans_batch(cps, self.max_token_length),
            self.tables.lower,
        )
        if not self.stop_words:
            return s
        stopped = np.array([t in self.stop_words for t in s.vocab], dtype=bool)
        return s.keep(~stopped[s.tids])


class DocTokensAnalyzer(StandardAnalyzer):
    """An analyzer whose tokenizer runs per document: ``_doc_tokens(text)``
    lists a document's tokens as ``(term, start, end)`` or ``(term,
    position, start, end)``, and ``stream_from_doc_tokens`` builds the
    batch stream from them."""

    def _batch_token_stream(self, texts: list[str]) -> TokenStream:
        return stream_from_doc_tokens(texts, self._doc_tokens)


class SimpleCodeAnalyzer(DocTokensAnalyzer):
    """ASCII identifier tokenizer with exact SQL-oracle parity.

    Semantics: ``regexp_extract_all(lower(text), '[a-z0-9_]+')`` — the Python
    implementation below produces identical tokens for any input because both
    sides lowercase with full Unicode case mapping and then keep only ASCII
    ``[a-z0-9_]`` runs (non-ASCII lowercase output never matches the class).
    Used by the DuckDB-checked query entries in __ray_entry__.py.  Offsets
    refer to the lowercased text (identical to the original unless a char
    changes length when lowercased, as PatternAnalyzer documents); a stop
    word leaves a position gap, an over-long token none.
    """

    _PAT = re.compile(r"[a-z0-9_]+")

    def __init__(self, stop_words: frozenset[str] | None = None, max_token_length: int = 255):
        self.stop_words = stop_words or frozenset()
        self.max_token_length = max_token_length

    def tokens(self, text: str) -> list[str]:
        toks = self._PAT.findall(text.lower())
        if self.stop_words:
            toks = [t for t in toks if t not in self.stop_words]
        if self.max_token_length:
            toks = [t for t in toks if len(t) <= self.max_token_length]
        return toks

    def analyze(self, text: str) -> tuple[list[str], list[int], int]:
        toks = self.tokens(text)
        if not toks:
            return [], [], 0
        counts = Counter(toks)
        return list(counts.keys()), list(counts.values()), len(toks)

    def normalize(self, term: str) -> str:
        return term.lower()

    def _matches(self, text: str):
        return self._PAT.finditer(text.lower())

    def _doc_tokens(self, text: str) -> list[tuple[str, int, int, int]]:
        out = []
        pos = 0
        cap = self.max_token_length
        for m in self._matches(text):
            t = m.group(0).lower()
            if cap and len(t) > cap:
                continue
            if t not in self.stop_words:
                out.append((t, pos, m.start(), m.end()))
            pos += 1
        return out


class CodeAnalyzer(SimpleCodeAnalyzer):
    """Code-aware analyzer: WordDelimiterGraphFilter-lite.

    Splits identifiers on camelCase boundaries and underscores BEFORE
    lowercasing (reference extension surface: analysis-common
    miscellaneous/WordDelimiterGraphFilter.java — the camelCase/snake_case
    "code-token" candidate called out in SURVEY §2.2).  Semantics are kept
    RE2-expressible for exact DuckDB-oracle parity:

        regexp_replace(tok, '([a-z0-9])([A-Z])', '\\1 \\2', 'g')
        -> lower -> split on [ _]+

    over raw ``[A-Za-z0-9_]+`` runs of the ORIGINAL (case-preserved) text.
    A part is an upper-case run followed by a lower-case/digit run, so the
    stream finds the parts, with their offsets, as matches of ``_PART``.
    """

    _RUN = re.compile(r"[A-Za-z0-9_]+")
    _CAMEL = re.compile(r"([a-z0-9])([A-Z])")
    _PART = re.compile(r"[A-Z]+[a-z0-9]*|[a-z0-9]+")

    def tokens(self, text: str) -> list[str]:
        out: list[str] = []
        for run in self._RUN.findall(text or ""):
            split = self._CAMEL.sub(r"\1 \2", run).lower()
            for part in re.split(r"[ _]+", split):
                if part and len(part) <= self.max_token_length:
                    if not self.stop_words or part not in self.stop_words:
                        out.append(part)
        return out

    def normalize(self, term: str) -> str:
        return term.lower()

    def _matches(self, text: str):
        return self._PART.finditer(text)


class KeywordAnalyzer(DocTokensAnalyzer):
    """Whole-value-as-one-token analyzer (reference
    analysis/core/KeywordAnalyzer.java): no tokenization, no case folding —
    the field for exact-match metadata like ``lang`` / ``source`` / ids.
    Every non-empty doc has length 1 (norm = intToByte4(1))."""

    def __init__(self, **_kw):
        pass

    def tokens(self, text: str) -> list[str]:
        return [text] if text else []

    def analyze(self, text: str) -> tuple[list[str], list[int], int]:
        return ([text], [1], 1) if text else ([], [], 0)

    def normalize(self, term: str) -> str:
        return term

    def _doc_tokens(self, text: str) -> list[tuple[str, int, int]]:
        return [(text, 0, len(text))] if text else []


class ChainedVocabAnalyzer(StandardAnalyzer):
    """StandardTokenizer + LowerCase, then a per-UNIQUE-TERM filter chain.

    ``map_term(term) -> str | None`` is the whole post-tokenize chain
    (possessive strip, stop drop via None, stemming, folding) applied ONCE
    per unique batch term instead of once per token — the vectorized
    equivalent of Lucene's TokenFilter pipeline (reference Analyzer
    createComponents, analysis/Analyzer.java).  Dropped terms preserve the
    positions of survivors (StopFilter posIncrement semantics: positions
    are assigned before filtering); terms that map to the same string merge
    into one posting with summed tf and unioned positions."""

    def __init__(self, max_token_length: int = 255, **_kw):
        super().__init__(stop_words=None, max_token_length=max_token_length)

    def map_term(self, term: str) -> str | None:
        return term

    def _stream_keep(self, doc_ids, positions):
        """Optional stream-level mask BEFORE the per-term chain (the
        LimitTokenCountFilter seam); return a bool keep-array or None."""
        return None

    def tokens(self, text: str) -> list[str]:
        toks = super().tokens(text)
        keep = self._stream_keep(
            np.zeros(len(toks), np.int64), np.arange(len(toks), dtype=np.int64)
        )
        if keep is not None:
            toks = [t for t, k in zip(toks, keep) if k]
        out = []
        for t in toks:
            m = self.map_term(t)
            if m is not None:
                out.append(m)
        return out

    def normalize(self, term: str) -> str:
        m = self.map_term(super().normalize(term))
        return m if m is not None else ""

    def _batch_token_stream(self, texts: list[str]) -> TokenStream:
        s = super()._batch_token_stream(texts)
        keep = self._stream_keep(s.doc_ids, s.positions)
        if keep is not None:
            s = s.keep(keep)
        # FieldInvertState.length counts only the tokens map_term keeps
        return s.relabel([self.map_term(t) for t in s.vocab])


class EnglishAnalyzer(ChainedVocabAnalyzer):
    """Reference en/EnglishAnalyzer.java:1 chain: StandardTokenizer ->
    EnglishPossessiveFilter -> LowerCaseFilter -> StopFilter(33-word set) ->
    [SetKeywordMarkerFilter(stem_exclusions)] -> PorterStemFilter.
    ``fold=True`` inserts ASCIIFoldingFilter after the possessive strip
    (a custom-chain variant, miscellaneous/ASCIIFoldingFilter.java);
    ``stem_exclusions`` is the KeywordMarkerFilter seam (terms in the set
    pass the stemmer untouched, miscellaneous/SetKeywordMarkerFilter.java);
    ``min_len``/``max_len`` give LengthFilter (miscellaneous/LengthFilter
    .java: out-of-range tokens DROP like stop words, preserving position
    gaps).  Porter output is pinned to the reference's porterTestData
    golden vectors in tests/test_english.py."""

    def __init__(
        self,
        stop_words: frozenset[str] | None = None,
        max_token_length: int = 255,
        fold: bool = False,
        stem_exclusions: frozenset[str] = frozenset(),
        min_len: int = 0,
        max_len: int = 1 << 30,
    ):
        from .english import ENGLISH_STOP_WORDS

        super().__init__(max_token_length)
        self.stop = ENGLISH_STOP_WORDS if stop_words is None else stop_words
        self.fold = fold
        self.stem_exclusions = frozenset(stem_exclusions)
        self.min_len = min_len
        self.max_len = max_len
        self._cache: dict[str, str | None] = {}

    def map_term(self, term: str) -> str | None:
        from .english import ascii_fold, strip_possessive

        if term in self._cache:
            return self._cache[term]
        t = strip_possessive(term)
        if self.fold:
            t = ascii_fold(t)
        if t in self.stop or not (self.min_len <= len(t) <= self.max_len):
            m = None
        elif t in self.stem_exclusions:
            m = t  # KeywordMarker: protected from stemming
        else:
            m = self._stem(t)
        if len(self._cache) < 1 << 20:  # bounded per-actor memo
            self._cache[term] = m
        return m

    @staticmethod
    def _stem(t: str) -> str:
        from .english import porter_stem

        return porter_stem(t)


class EnglishFoldedAnalyzer(EnglishAnalyzer):
    def __init__(self, **kw):
        kw.pop("fold", None)
        super().__init__(fold=True, **kw)


class EnglishSnowballAnalyzer(EnglishAnalyzer):
    """EnglishAnalyzer chain with SnowballFilter(EnglishStemmer) in place
    of PorterStemFilter (reference analysis/snowball/SnowballFilter.java:1
    wrapping tartarus/snowball/ext/EnglishStemmer.java:1, Snowball 3.0.0
    — the Porter2 algorithm).  KeywordMarker exclusions honored exactly as
    SnowballFilter's KeywordAttribute check does."""

    @staticmethod
    def _stem(t: str) -> str:
        from .snowball import porter2_stem

        return porter2_stem(t)


class EnglishMinimalAnalyzer(ChainedVocabAnalyzer):
    """StandardTokenizer -> LowerCase -> StopFilter(EN) ->
    EnglishMinimalStemFilter (Harman S-stemmer, reference
    en/EnglishMinimalStemFilter.java:1).  Chosen for the DuckDB-oracle
    driver family because the stemmer is exactly SQL-expressible (one CASE);
    the full Porter chain is pytest-verified instead (no offline DuckDB fts
    extension in this environment)."""

    def map_term(self, term: str) -> str | None:
        from .english import ENGLISH_STOP_WORDS, english_minimal_stem

        if term in ENGLISH_STOP_WORDS:
            return None
        return english_minimal_stem(term)


# index-time synonym map used by the driver family (members chosen from the
# synthetic corpus vocabulary so expansion actually fires)
DEFAULT_SYNONYMS = {
    "spark": ["flint"],
    "join": ["unite"],
    "window": ["pane"],
}


class SynonymExpandAnalyzer(StandardAnalyzer):
    """Index-time synonym expansion (reference synonym/SynonymGraphFilter
    .java:1, single-token -> single-token rules): each member is INSERTED at
    the matched token's position with posIncrement 0.  With discountOverlaps
    (BM25Similarity default) inserted tokens are overlaps, so the norm and
    per-doc length exclude them while tf/df of member terms grow — which is
    exactly what ``lengths`` (surviving originals only) feeds the norm."""

    def __init__(self, synonyms: dict[str, list[str]] | None = None, **kw):
        super().__init__(**kw)
        self.synonyms = {k: list(v) for k, v in (synonyms or DEFAULT_SYNONYMS).items()}

    def tokens(self, text: str) -> list[str]:
        out: list[str] = []
        for t in super().tokens(text):
            out.append(t)
            out.extend(self.synonyms.get(t, ()))
        return out

    def analyze(self, text: str) -> tuple[list[str], list[int], int]:
        base = super().tokens(text)
        toks: list[str] = []
        for t in base:
            toks.append(t)
            toks.extend(self.synonyms.get(t, ()))
        if not toks:
            return [], [], 0
        counts = Counter(toks)
        # length counts ORIGINAL tokens only (inserted = posInc-0 overlaps)
        return list(counts.keys()), list(counts.values()), len(base)

    def _batch_token_stream(self, texts: list[str]) -> TokenStream:
        s = super()._batch_token_stream(texts)
        # members stack on the source (posInc 0): lengths stay, overlaps
        # are discounted from the norm
        return s.stack(
            [(g, m) for g, t in enumerate(s.vocab) for m in self.synonyms.get(t, ())]
        )


# multi-word synonym rules for the driver's graph arm, chosen from the
# corpus vocabulary: a 2-token phrase contracting to one synonym, and a
# 1-token expanding to a 2-token phrase
GRAPH_SYNONYM_PHRASES = {("order", "by"): "orderby"}
GRAPH_SYNONYM_EXPANSIONS = {"spark": ("fire", "storm")}


class SynonymGraphAnalyzer(StandardAnalyzer):
    """SynonymGraphFilter + FlattenGraphFilter, index-time expand mode
    (reference synonym/SynonymGraphFilter.java:1 multi-token rules,
    core/FlattenGraphFilter.java:1 — the documented index-time chain):

    - phrase -> word ("order by" => orderby): the synonym is inserted at
      the phrase's FIRST position with posInc 0 / posLength 2; flattening
      keeps it a posInc-0 overlap at that position.
    - word -> phrase ("spark" => fire storm): the first output token
      stacks on the source (posInc 0, an overlap); flattening gives each
      LATER output token posInc 1, stacking onto the position of the
      following original token (the known lossy flatten squash).

    Norm length counts originals plus the posInc-1 tail tokens (overlaps
    are discounted; posInc-1 insertions are not — FieldInvertState
    numOverlap counts only posInc==0)."""

    def __init__(self, phrases=None, expansions=None, **kw):
        super().__init__(**kw)
        self.phrases = dict(GRAPH_SYNONYM_PHRASES if phrases is None else phrases)
        self.expansions = dict(
            GRAPH_SYNONYM_EXPANSIONS if expansions is None else expansions
        )

    def _base_with_positions(self, text: str) -> list[tuple[str, int]]:
        """Surviving (token, position) pairs — stop words leave position
        GAPS (StopFilter semantics), matching the batch stream exactly."""
        if not text:
            return []
        cps = np.frombuffer(text.encode("utf-32-le"), dtype="<u4")
        spans = scanner.scan_spans(cps, self.max_token_length)
        if not spans:
            return []
        low = self.tables.lower[cps].astype("<u4").tobytes().decode("utf-32-le")
        return [
            (low[s:e], p)
            for p, (s, e, _) in enumerate(spans)
            if low[s:e] not in self.stop_words
        ]

    def _expanded_pairs(self, text: str) -> list[tuple[str, int]]:
        base = self._base_with_positions(text)
        out: list[tuple[str, int]] = []
        for i, (t, p) in enumerate(base):
            out.append((t, p))
            exp = self.expansions.get(t)
            if exp:
                out.extend((w, p + j) for j, w in enumerate(exp))
            for (a, b), syn in self.phrases.items():
                # POSITION adjacency, like the batch stream (a stop-word
                # gap between a and b blocks the rule)
                if t == b and i > 0 and base[i - 1] == (a, p - 1):
                    out.append((syn, p - 1))
        return out

    def tokens(self, text: str) -> list[str]:
        return [t for t, _ in self._expanded_pairs(text)]

    def analyze(self, text: str):
        base = self._base_with_positions(text)
        toks = self.tokens(text)
        if not toks:
            return [], [], 0
        counts = Counter(toks)
        # posInc-1 flatten tails (every expansion token after the first)
        tails = sum(
            (len(self.expansions[t]) - 1) for t, _ in base if t in self.expansions
        )
        return list(counts.keys()), list(counts.values()), len(base) + tails

    def _batch_token_stream(self, texts: list[str]) -> TokenStream:
        s = super()._batch_token_stream(texts)
        tids, doc_ids, positions, off_s, off_e = s.tids, s.doc_ids, s.positions, s.off_s, s.off_e
        tid_of = {t: i for i, t in enumerate(s.vocab)}
        # inserted rows: (term, docs, positions, off_start, off_end)
        inserts: list[tuple[str, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        extra_lengths = np.zeros(s.n_docs, np.int64)

        # phrase -> word: adjacent stream rows (a at p, b at p+1, same doc)
        same = (doc_ids[1:] == doc_ids[:-1]) & (positions[1:] == positions[:-1] + 1)
        for (a, b), syn in sorted(self.phrases.items()):
            ga, gb = tid_of.get(a), tid_of.get(b)
            if ga is None or gb is None:
                continue
            hit = np.flatnonzero(same & (tids[:-1] == ga) & (tids[1:] == gb))
            if len(hit):
                # first position (posInc 0); offsets span both source tokens
                inserts.append(
                    (syn, doc_ids[hit], positions[hit], off_s[hit], off_e[hit + 1])
                )

        # word -> phrase: first output overlaps the source; later outputs
        # take the following positions (flatten squash)
        for src, outs in sorted(self.expansions.items()):
            g = tid_of.get(src)
            if g is None:
                continue
            sel = np.flatnonzero(tids == g)
            for j, w in enumerate(outs):
                inserts.append(
                    (w, doc_ids[sel], positions[sel] + j, off_s[sel], off_e[sel])
                )
                if j > 0:  # posInc-1 tail: counts toward the norm
                    np.add.at(extra_lengths, doc_ids[sel], 1)
        return s.extend(inserts)._replace(lengths=s.lengths + extra_lengths)


class ShingleAnalyzer(StandardAnalyzer):
    """Word-bigram shingles (reference analysis/shingle/ShingleFilter.java
    with outputUnigrams=false, shingle size 2, ' ' separator): token i
    emits "tok_i tok_{i+1}" at position i.  SQL-mirrorable as
    array_to_string(ts[i:i+2], ' ') — the same shingle the MinHash dedup
    oracle builds.  Norm length = number of shingles (n_tokens - 1 per
    doc with >= 2 tokens)."""

    def _batch_token_stream(self, texts: list[str]) -> TokenStream:
        s = super()._batch_token_stream(texts)
        # stream is in doc order with positions = in-doc ordinals: adjacent
        # rows within a doc are consecutive tokens
        same_doc = s.doc_ids[1:] == s.doc_ids[:-1]
        V = np.int64(len(s.vocab))
        pair_keys = s.tids[:-1][same_doc] * V + s.tids[1:][same_doc]
        upairs, inv = np.unique(pair_keys, return_inverse=True)
        return token_stream(
            [f"{s.vocab[int(k // V)]} {s.vocab[int(k % V)]}" for k in upairs],
            s.doc_ids[:-1][same_doc],
            s.positions[:-1][same_doc],
            s.n_docs,
            s.off_s[:-1][same_doc],
            s.off_e[1:][same_doc],
            ids=inv,
        )

    def tokens(self, text: str) -> list[str]:
        toks = super().tokens(text)
        return [f"{a} {b}" for a, b in zip(toks, toks[1:])]

    def analyze(self, text: str):
        toks = self.tokens(text)
        if not toks:
            return [], [], 0
        counts = Counter(toks)
        return list(counts.keys()), list(counts.values()), len(toks)

    def normalize(self, term: str) -> str:
        return " ".join(super().normalize(w) for w in term.split())


# common-word set for the CommonGrams driver arm, chosen from the
# testdata corpus's high-df vocabulary (the reference ships a 32-word
# English list in CommonGramsFilterFactory's commongrams.txt convention)
COMMON_GRAMS_WORDS = frozenset({"scan", "order", "key"})


class CommonGramsAnalyzer(StandardAnalyzer):
    """CommonGramsFilter (reference analysis/commongrams/
    CommonGramsFilter.java): unigrams pass through unchanged; every
    adjacent pair where EITHER side is a common word additionally emits
    the bigram ``w1_w2`` (SEPARATOR '_', gramToken) at w1's position
    with posInc 0 — offsets span w1.start..w2.end — so phrase queries
    over stopword-heavy text can run on pre-joined grams.
    discountOverlaps norms: the posInc-0 gram tokens do NOT count toward
    the field length, so norms equal the plain StandardAnalyzer's.
    (The reference's query-side CommonGramsQueryFilter, which keeps only
    the grams, is a query-building concern this engine expresses by
    searching the gram terms directly.)"""

    common = COMMON_GRAMS_WORDS

    def _batch_token_stream(self, texts: list[str]) -> TokenStream:
        s = super()._batch_token_stream(texts)
        tids, doc_ids = s.tids, s.doc_ids
        is_common = np.array([v in self.common for v in s.vocab], dtype=bool)[tids]
        pm = (doc_ids[1:] == doc_ids[:-1]) & (is_common[:-1] | is_common[1:])
        if not pm.any():
            return s
        V = np.int64(len(s.vocab))
        upairs, inv = np.unique(tids[:-1][pm] * V + tids[1:][pm], return_inverse=True)
        # gram strings may collide with genuine '_'-bearing tokens — the
        # reference's separator has the same property
        grams = [f"{s.vocab[int(k // V)]}_{s.vocab[int(k % V)]}" for k in upairs]
        ids = np.concatenate((tids, inv + V))
        docs = np.concatenate((doc_ids, doc_ids[:-1][pm]))
        pos = np.concatenate((s.positions, s.positions[:-1][pm]))  # gram at w1's slot
        # doc-ordered stream, grams after their unigram at the same slot
        # (unigram index < gram index; lexsort is stable)
        order = np.lexsort((pos, docs))
        return token_stream(
            s.vocab + grams,
            docs[order],
            pos[order],
            s.n_docs,
            np.concatenate((s.off_s, s.off_s[:-1][pm]))[order],
            np.concatenate((s.off_e, s.off_e[1:][pm]))[order],
            lengths=s.lengths,  # discountOverlaps skips posInc-0 tokens
            ids=ids[order],
        )

    def _with_grams(self, toks: list[str]) -> list[str]:
        out: list[str] = []
        for i, t in enumerate(toks):
            out.append(t)
            if i + 1 < len(toks) and (
                t in self.common or toks[i + 1] in self.common
            ):
                out.append(f"{t}_{toks[i + 1]}")
        return out

    def tokens(self, text: str) -> list[str]:
        return self._with_grams(super().tokens(text))

    def analyze(self, text: str):
        uni = super().tokens(text)  # tokenize ONCE; grams derive from it
        toks = self._with_grams(uni)
        if not toks:
            return [], [], 0
        counts = Counter(toks)
        # field length counts only the unigrams (discountOverlaps)
        return list(counts.keys()), list(counts.values()), len(uni)


class WhitespaceAnalyzer(StandardAnalyzer):
    """WhitespaceTokenizer (reference core/analysis/WhitespaceAnalyzer
    .java / analysis/util/CharTokenizer.java isTokenChar=!isWhitespace):
    maximal runs of non-whitespace codepoints, CASE PRESERVED (no
    LowerCaseFilter — the word-delimiter graph needs case information).
    Tokens longer than ``max_token_length`` split into chunks (the
    CharTokenizer maxTokenLen behavior, not the skip the UAX#29 scanner
    applies)."""

    _WS_CPS = None  # lazy class-level whitespace codepoint table

    @classmethod
    def _ws_cps(cls):
        if cls._WS_CPS is None:
            cls._WS_CPS = np.array(
                [c for c in range(0x3001) if chr(c).isspace()], dtype=np.uint32
            )
        return cls._WS_CPS

    def tokens(self, text: str) -> list[str]:
        out = []
        for t in text.split():
            while len(t) > self.max_token_length:
                out.append(t[: self.max_token_length])
                t = t[self.max_token_length :]
            if t:
                out.append(t)
        return out

    def normalize(self, term: str) -> str:
        return term  # no lowercase: KeywordTokenizer-style normalization

    def _batch_token_stream(self, texts: list[str]) -> TokenStream:
        return scan_stream(texts, self._spans)

    def _spans(self, cps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        is_tok = ~np.isin(cps, self._ws_cps())
        starts = np.flatnonzero(is_tok & ~np.concatenate(([False], is_tok[:-1])))
        ends = np.flatnonzero(is_tok & ~np.concatenate((is_tok[1:], [False]))) + 1
        cap = self.max_token_length
        if len(starts) and (ends - starts).max() > cap:  # chunk long runs (rare path)
            ns, ne = [], []
            for s, t in zip(starts.tolist(), ends.tolist()):
                while t - s > cap:
                    ns.append(s)
                    ne.append(s + cap)
                    s += cap
                ns.append(s)
                ne.append(t)
            starts = np.array(ns, dtype=np.int64)
            ends = np.array(ne, dtype=np.int64)
        return starts, ends


class WordDelimiterGraphAnalyzer(WhitespaceAnalyzer):
    """WhitespaceTokenizer -> WordDelimiterGraphFilter -> LowerCaseFilter
    (reference miscellaneous/WordDelimiterGraphFilter.java; the chain
    order Lucene documents — lowercase AFTER the graph filter so case
    changes still split).  The per-unique-term expansion
    (worddelim.expand_term) is replayed over the whole stream with numpy
    repeat/cumsum: subword parts advance positions (downstream tokens
    shift, the graph behavior), overlays (preserve_original /
    catenate_*) sit at their first part's position with posIncrement 0
    and are DISCOUNTED from the norm length (FieldInvertState.numOverlap
    semantics); a token of pure delimiters leaves a position gap."""

    def __init__(self, max_token_length: int = 255, **flags):
        super().__init__(max_token_length=max_token_length)
        self.flags = flags
        self._memo: dict[str, list] = {}

    def _expand(self, term: str):
        from .worddelim import expand_term

        m = self._memo.get(term)
        if m is None:
            m = expand_term(term, **self.flags)
            if len(self._memo) < 1 << 20:
                self._memo[term] = m
        return m

    def tokens(self, text: str) -> list[str]:
        out = []
        for t in super().tokens(text):
            out.extend(e.text for e in self._expand(t) if e.text is not None)
        return out

    def analyze(self, text: str):
        toks: list[str] = []
        n_real = 0
        for t in super().tokens(text):
            for em in self._expand(t):
                if em.text is not None:
                    toks.append(em.text)
                    if em.advance:
                        n_real += 1
        if not toks:
            return [], [], 0
        counts = Counter(toks)
        return list(counts.keys()), list(counts.values()), n_real

    def normalize(self, term: str) -> str:
        return term.lower()  # query-side single-term normalization

    def _batch_token_stream(self, texts: list[str]) -> TokenStream:
        s = super()._batch_token_stream(texts)
        tids, n_docs = s.tids, s.n_docs

        # per-unique-term expansion tables
        exps = [self._expand(t) for t in s.vocab]
        emits = [em for ex in exps for em in ex]
        counts = np.array([len(ex) for ex in exps], dtype=np.int64)
        tbase = np.concatenate(([0], np.cumsum(counts)))[:-1]
        names = [em.text for em in emits if em.text is not None]
        has_text = np.array([em.text is not None for em in emits], dtype=bool)
        flat_tid = np.full(len(emits), -1, np.int64)
        flat_tid[has_text] = np.arange(len(names), dtype=np.int64)
        flat_rs = np.array([em.rel_s for em in emits], dtype=np.int64)
        flat_re = np.array([em.rel_e for em in emits], dtype=np.int64)
        flat_adv = np.array([em.advance for em in emits], dtype=np.int64)

        # replay: row r emits counts[tids[r]] sub-rows in stream order
        per_row = counts[tids]
        total = int(per_row.sum())
        rep = np.repeat(np.arange(len(tids), dtype=np.int64), per_row)
        row_base = np.concatenate(([0], np.cumsum(per_row)))[:-1]
        k = np.arange(total, dtype=np.int64) - row_base[rep]
        eidx = tbase[tids[rep]] + k

        adv = flat_adv[eidx]
        new_docs = s.doc_ids[rep]
        # per-doc position = inclusive cumsum of advances - 1, reset per doc
        g = np.cumsum(adv)
        doc_first = np.ones(total, dtype=bool)
        doc_first[1:] = new_docs[1:] != new_docs[:-1]
        seed = np.where(doc_first, g - adv, 0)
        np.maximum.accumulate(seed, out=seed)
        new_pos = np.maximum(g - seed - 1, 0)  # clamp: overlap before any real token

        new_tids = flat_tid[eidx]
        new_os = s.off_s[rep] + flat_rs[eidx]
        new_oe = s.off_s[rep] + flat_re[eidx]

        real = new_tids >= 0
        return token_stream(
            names,
            new_docs[real],
            new_pos[real],
            n_docs,
            new_os[real],
            new_oe[real],
            lengths=np.bincount(new_docs[real & (adv == 1)], minlength=n_docs).astype(np.int64),
            ids=new_tids[real],
        )


class EdgeNGramAnalyzer(StandardAnalyzer):
    """StandardTokenizer + LowerCase + EdgeNGramTokenFilter (reference
    analysis/ngram/EdgeNGramTokenFilter.java): each token emits its
    prefixes of length min_gram..max_gram, ALL at the token's position
    (grams after the first are posIncrement-0 overlaps, discounted from
    the norm); ``preserve_original`` also emits tokens longer than
    max_gram in full; tokens shorter than min_gram DROP with a position
    gap.  The autocomplete index shape: index with grams, search with
    the plain standard analyzer."""

    def __init__(
        self,
        min_gram: int = 1,
        max_gram: int = 2,
        preserve_original: bool = False,
        **kw,
    ):
        if not (1 <= min_gram <= max_gram):
            raise ValueError("need 1 <= min_gram <= max_gram")
        super().__init__(**kw)
        self.min_gram = min_gram
        self.max_gram = max_gram
        self.preserve_original = preserve_original

    def _grams(self, t: str) -> list[str]:
        if len(t) < self.min_gram:
            return []
        out = [t[:i] for i in range(self.min_gram, min(len(t), self.max_gram) + 1)]
        if self.preserve_original and len(t) > self.max_gram:
            out.append(t)
        return out

    def _grams_off(self, t: str) -> list[tuple[str, int]]:
        """(gram, start offset within the source token) pairs — edge grams
        all start at 0; NGramAnalyzer overrides with sliding starts."""
        return [(g, 0) for g in self._grams(t)]

    def tokens(self, text: str) -> list[str]:
        out: list[str] = []
        for t in super().tokens(text):
            out.extend(self._grams(t))
        return out

    def analyze(self, text: str):
        base = super().tokens(text)
        toks: list[str] = []
        n_real = 0
        for t in base:
            g = self._grams(t)
            toks.extend(g)
            n_real += bool(g)
        if not toks:
            return [], [], 0
        counts = Counter(toks)
        return list(counts.keys()), list(counts.values()), n_real

    def normalize(self, term: str) -> str:
        return super().normalize(term)[: self.max_gram]

    def _batch_token_stream(self, texts: list[str]) -> TokenStream:
        s = super()._batch_token_stream(texts)
        exps = [self._grams_off(t) for t in s.vocab]
        counts = np.array([len(ex) for ex in exps], dtype=np.int64)
        tbase = np.concatenate(([0], np.cumsum(counts)))[:-1]
        flat_len = np.array([len(g) for ex in exps for g, _ in ex], dtype=np.int64)
        flat_off = np.array([o for ex in exps for _, o in ex], dtype=np.int64)

        per_row = counts[s.tids]
        rep = np.repeat(np.arange(len(s.tids), dtype=np.int64), per_row)
        row_base = np.concatenate(([0], np.cumsum(per_row)))[:-1]
        k = np.arange(int(per_row.sum()), dtype=np.int64) - row_base[rep]
        eidx = tbase[s.tids[rep]] + k
        # grams keep the source token's position (posInc 0 overlaps after
        # the first); norm length counts source tokens that emitted >= 1
        start = s.off_s[rep] + flat_off[eidx]
        return token_stream(
            [g for ex in exps for g, _ in ex],
            s.doc_ids[rep],
            s.positions[rep],
            s.n_docs,
            start,
            start + flat_len[eidx],
            lengths=np.bincount(s.doc_ids[per_row > 0], minlength=s.n_docs).astype(np.int64),
            ids=eidx,
        )


class NGramAnalyzer(EdgeNGramAnalyzer):
    """StandardTokenizer + LowerCase + NGramTokenFilter (reference
    analysis/ngram/NGramTokenFilter.java, DEFAULT_MIN/MAX_NGRAM_SIZE =
    1/2): each token emits ALL its substrings of length
    min_gram..max_gram, every gram at the source token's position
    (posInc-0 overlaps after the first, discounted from the norm);
    ``preserve_original`` also keeps tokens falling OUTSIDE
    [min_gram, max_gram] in full (keepShortTerm/keepLongTerm).  Gram
    offsets are the substring's char range inside the source token."""

    def _grams_off(self, t: str) -> list[tuple[str, int]]:
        out = [
            (t[i : i + n], i)
            for n in range(self.min_gram, min(len(t), self.max_gram) + 1)
            for i in range(len(t) - n + 1)
        ]
        if self.preserve_original and not (self.min_gram <= len(t) <= self.max_gram):
            out.append((t, 0))
        return out

    def _grams(self, t: str) -> list[str]:
        return [g for g, _ in self._grams_off(t)]

    def normalize(self, term: str) -> str:
        # query terms are grams the user supplies directly — lowercase only
        return StandardAnalyzer.normalize(self, term)


class MappedCharFilterAnalyzer(StandardAnalyzer):
    """MappingCharFilter + BaseCharFilter offset correction (reference
    analysis/charfilter/MappingCharFilter.java +
    BaseCharFilter.java:correct): literal (match -> replacement) rules
    rewrite the text BEFORE tokenization — earliest match wins, longest
    pattern at the same position (the FST greediness), non-overlapping
    left-to-right — while a per-doc correction table maps token offsets
    back into the ORIGINAL text (correctOffset: off + cumulative length
    diff at the last correction point <= off).  Rules should be mutually
    non-overlapping so the sequential-replace SQL oracle mirror is
    equivalent to the simultaneous scan."""

    def __init__(self, mappings=(("spark", "fire"), ("group by", "groupby")), **kw):
        super().__init__(**kw)
        self.mappings = tuple((str(a), str(b)) for a, b in mappings)

    def _filter_one(self, t: str) -> tuple[str, np.ndarray, np.ndarray]:
        """(filtered text, correction output-offsets, cumulative diffs)."""
        res: list[str] = []
        out_len = 0
        cum = 0
        pts = [0]
        diffs = [0]
        i = 0
        while True:
            best = None
            for pat, rep in self.mappings:
                j = t.find(pat, i)
                if j != -1 and (
                    best is None
                    or j < best[0]
                    or (j == best[0] and len(pat) > len(best[1]))
                ):
                    best = (j, pat, rep)
            if best is None:
                res.append(t[i:])
                break
            j, pat, rep = best
            res.append(t[i:j])
            res.append(rep)
            out_len += (j - i) + len(rep)
            cum += len(pat) - len(rep)
            pts.append(out_len)
            diffs.append(cum)
            i = j + len(pat)
        return "".join(res), np.asarray(pts, np.int64), np.asarray(diffs, np.int64)

    def _correct(self, pts: np.ndarray, diffs: np.ndarray, offs: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(pts, offs, side="right") - 1
        return offs + diffs[idx]

    def tokens(self, text: str) -> list[str]:
        return super().tokens(self._filter_one(text)[0])

    def analyze(self, text: str):
        return super().analyze(self._filter_one(text)[0])

    def normalize(self, term: str) -> str:
        # charfilters apply at query normalization too
        # (Analyzer.initReaderForNormalization)
        return super().normalize(self._filter_one(term)[0])

    def _batch_token_stream(self, texts: list[str]) -> TokenStream:
        filtered = [self._filter_one(t or "") for t in texts]
        s = super()._batch_token_stream([f[0] for f in filtered])
        off_s, off_e = s.off_s.copy(), s.off_e.copy()
        for d in np.unique(s.doc_ids):
            pts, diffs = filtered[int(d)][1], filtered[int(d)][2]
            if len(pts) == 1:
                continue  # no replacements in this doc
            m = s.doc_ids == d
            off_s[m] = self._correct(pts, diffs, off_s[m])
            off_e[m] = self._correct(pts, diffs, off_e[m])
        return s._replace(off_s=off_s, off_e=off_e)


class PatternReplaceCharFilterAnalyzer(MappedCharFilterAnalyzer):
    """PatternReplaceCharFilter (reference analysis/pattern/
    PatternReplaceCharFilter.java): regex replacement applied BEFORE
    tokenization, with the same cumulative offset-correction table the
    mapping char filter uses, so token offsets point into the ORIGINAL
    text.  Replacement uses Python backreference syntax (``\\1`` /
    ``\\g<1>``) instead of Java's ``$1`` — documented deviation."""

    def __init__(self, pattern: str, replacement: str = "", **kw):
        super().__init__(mappings=(), **kw)
        self.pr_pattern = pattern
        self.pr_replacement = replacement
        self._pr_rx = re.compile(pattern)

    def _filter_one(self, t: str) -> tuple[str, np.ndarray, np.ndarray]:
        res: list[str] = []
        out_len = 0
        cum = 0
        pts = [0]
        diffs = [0]
        i = 0
        for m in self._pr_rx.finditer(t):
            rep = m.expand(self.pr_replacement)
            res.append(t[i : m.start()])
            res.append(rep)
            out_len += (m.start() - i) + len(rep)
            cum += (m.end() - m.start()) - len(rep)
            pts.append(out_len)
            diffs.append(cum)
            i = m.end()
        res.append(t[i:])
        return "".join(res), np.asarray(pts, np.int64), np.asarray(diffs, np.int64)


class HTMLStripAnalyzer(MappedCharFilterAnalyzer):
    """HTMLStripCharFilter (reference analysis/charfilter/
    HTMLStripCharFilter.java, the common subset of its generated state
    machine): tags ``<...>`` drop, the basic named/numeric entities
    decode, and BaseCharFilter-style correction tables map every token
    offset back into the ORIGINAL markup.  Deviation (documented): no
    script/style content elision and no exotic entities — the regex
    subset covers the markup that actually appears in crawled text
    pipelines."""

    _RX = re.compile(r"<[^>]*>|&(?:amp|lt|gt|quot|apos|#\d+);")
    _ENT = {"&amp;": "&", "&lt;": "<", "&gt;": ">", "&quot;": '"', "&apos;": "'"}

    def __init__(self, **kw):
        StandardAnalyzer.__init__(self, **kw)
        self.mappings = ()

    def _decode(self, s: str) -> str:
        if s.startswith("<"):
            return ""
        if s in self._ENT:
            return self._ENT[s]
        if s.startswith("&#"):
            try:
                return chr(int(s[2:-1]))
            except (ValueError, OverflowError):
                return s
        return s

    def _filter_one(self, t: str) -> tuple[str, np.ndarray, np.ndarray]:
        res: list[str] = []
        out_len = 0
        cum = 0
        pts = [0]
        diffs = [0]
        i = 0
        for m in self._RX.finditer(t):
            rep = self._decode(m.group(0))
            res.append(t[i : m.start()])
            res.append(rep)
            out_len += (m.start() - i) + len(rep)
            cum += (m.end() - m.start()) - len(rep)
            pts.append(out_len)
            diffs.append(cum)
            i = m.end()
        res.append(t[i:])
        return "".join(res), np.asarray(pts, np.int64), np.asarray(diffs, np.int64)


class ReverseAnalyzer(StandardAnalyzer):
    """StandardTokenizer + LowerCase + ReverseStringFilter (reference
    analysis/reverse/ReverseStringFilter.java, without the marker char):
    every token is emitted reversed at its position, offsets spanning the
    whole source token.  The leading-wildcard index shape: a ``*suffix``
    query against the standard field becomes the PREFIX scan
    ``reverse(suffix)*`` against this field (Solr's
    ReversedWildcardFilter strategy), turning an O(V) dictionary walk
    into a bounded range scan."""

    def tokens(self, text: str) -> list[str]:
        return [t[::-1] for t in super().tokens(text)]

    def normalize(self, term: str) -> str:
        return super().normalize(term)[::-1]

    def _batch_token_stream(self, texts: list[str]) -> TokenStream:
        s = super()._batch_token_stream(texts)
        return s.relabel([v[::-1] for v in s.vocab])


# --- CustomAnalyzer-style composable filter chain -------------------------

# French-style elision articles (reference analysis/util/ElisionFilter.java
# + fr/FrenchAnalyzer.DEFAULT_ARTICLES)
ELISION_ARTICLES = frozenset(
    ["l", "m", "t", "qu", "n", "s", "j", "d", "c", "jusqu", "quoiqu", "lorsqu", "puisqu"]
)


def _decimal_digit_fold(t: str) -> str:
    """DecimalDigitFilter: any Unicode decimal digit -> its ASCII 0-9."""
    import unicodedata

    if t.isascii():
        return t
    return "".join(
        str(unicodedata.decimal(c)) if c.isdigit() and not c.isascii() else c
        for c in t
    )


def _elide(t: str) -> str:
    head, apos, rest = t.partition("'")
    if apos and head in ELISION_ARTICLES and rest:
        return rest
    return t


_SOUNDEX_CODE = {}
for _grp, _dig in (
    ("bfpv", "1"), ("cgjkqsxz", "2"), ("dt", "3"),
    ("l", "4"), ("mn", "5"), ("r", "6"),
):
    for _c in _grp:
        _SOUNDEX_CODE[_c] = _dig


def soundex(t: str) -> str:
    """American Soundex, commons-codec ``Soundex.US_ENGLISH`` semantics
    (reference analysis/phonetic/PhoneticFilter.java wrapping
    org.apache.commons.codec.language.Soundex): first letter kept, BFPV=1
    CGJKQSXZ=2 DT=3 L=4 MN=5 R=6, vowels separate duplicate codes, H/W do
    NOT, padded/truncated to 4.  Lowercase in/out (this engine's terms are
    lowercased before the filter chain; documented deviation from the
    codec's uppercase)."""
    letters = [c for c in t if "a" <= c <= "z"]
    if not letters:
        return t
    out = [letters[0]]
    last = _SOUNDEX_CODE.get(letters[0], "")
    for c in letters[1:]:
        d = _SOUNDEX_CODE.get(c)
        if d is None:
            if c in "hw":
                continue  # H/W transparent: do not separate duplicates
            last = ""  # vowel: resets duplicate suppression
            continue
        if d != last:
            out.append(d)
            if len(out) == 4:
                break
        last = d
    return "".join(out + ["0"] * (4 - len(out)))


def _scandinavian_fold(t: str) -> str:
    """ScandinavianFoldingFilter (reference miscellaneous/
    ScandinavianFoldingFilter.java:26-34): å ä æ -> a, ö ø -> o, and the
    double vowels aa ae ao oe oo collapse to their first letter.  The pair
    check runs over the FOLDED output stream (the javadoc's own examples:
    raeksmoergaas -> raksmorgas, ræksmörgaos -> raksmorgas).  Lowercase
    only — this engine's chain runs post-LowerCaseFilter."""
    out: list[str] = []
    for ch in t:
        ch = "a" if ch in "åäæ" else ("o" if ch in "öø" else ch)
        if out:
            p = out[-1]
            if (p == "a" and ch in "aeo") or (p == "o" and ch in "eo"):
                continue
        out.append(ch)
    return "".join(out)


# filter names that honor KeywordAttribute (stemmers skip marked terms) —
# the set a keyword_marker spec in a CustomChainAnalyzer chain suppresses
_STEM_FILTER_NAMES = frozenset({"porter", "s_stem", "snowball", "stemmer_override"})


def _token_type_name(term: str) -> str:
    """StandardTokenizer type of a single already-tokenized term (the DFA
    is deterministic per string, so type resolves at vocab granularity)."""
    from .scanner import TOKEN_TYPE_NAMES, scan

    hits = scan(term)
    if len(hits) != 1:
        return "<OTHER>"  # should not happen for chain-produced terms
    return TOKEN_TYPE_NAMES[hits[0][3]]


def make_term_filter(name: str, **kw):
    """One per-term filter from the analysis-common registry; returns a
    ``str -> str | None`` callable (None = drop, StopFilter-style gap).

    Reference factories (lucene/analysis/common/src/java/org/apache/
    lucene/analysis/...): tr/ApostropheFilter, miscellaneous/TrimFilter,
    miscellaneous/TruncateTokenFilter, pattern/PatternReplaceFilter,
    core/DecimalDigitFilter, miscellaneous/LengthFilter, core/StopFilter,
    miscellaneous/KeepWordFilter, util/ElisionFilter,
    en/PorterStemFilter, en/EnglishMinimalStemFilter,
    miscellaneous/ASCIIFoldingFilter, en/EnglishPossessiveFilter,
    miscellaneous/ScandinavianFoldingFilter, core/TypeTokenFilter,
    miscellaneous/StemmerOverrideFilter, en/KStemFilter (via snowball)."""
    from .english import (
        ascii_fold,
        english_minimal_stem,
        porter_stem,
        strip_possessive,
    )

    if name == "apostrophe":
        return lambda t: t.partition("'")[0]
    if name == "trim":
        return lambda t: t.strip()
    if name == "truncate":
        n = int(kw["length"])
        return lambda t: t[:n]
    if name == "pattern_replace":
        rx = re.compile(kw["pattern"])
        rep = kw.get("replacement", "")
        if kw.get("all", True):
            return lambda t: rx.sub(rep, t)
        return lambda t: rx.sub(rep, t, count=1)
    if name == "decimal_digit":
        return _decimal_digit_fold
    if name == "length":
        lo, hi = int(kw.get("min", 0)), int(kw.get("max", 1 << 30))
        return lambda t: t if lo <= len(t) <= hi else None
    if name == "stop":
        s = frozenset(kw["words"])
        return lambda t: None if t in s else t
    if name == "keep":
        s = frozenset(kw["words"])
        return lambda t: t if t in s else None
    if name == "elision":
        return _elide
    if name == "porter":
        return porter_stem
    if name == "s_stem":
        return english_minimal_stem
    if name == "fold":
        return ascii_fold
    if name == "possessive":
        return strip_possessive
    if name == "soundex":
        return soundex
    if name == "reverse":
        # reverse/ReverseStringFilter.java (sans the U+0001 marker its
        # wildcard helper prepends — the caller composes markers): the
        # classic leading-wildcard trick indexes reversed terms so
        # ``*suffix`` becomes a prefix scan over the reversed dictionary
        return lambda t: t[::-1]
    if name == "scandinavian_fold":
        return _scandinavian_fold
    if name == "type_token":
        # core/TypeTokenFilter.java: drop (or with useWhitelist=true keep
        # only) tokens whose StandardTokenizer type is in the set
        types = frozenset(kw["types"])
        if kw.get("use_whitelist", False):
            return lambda t: t if _token_type_name(t) in types else None
        return lambda t: None if _token_type_name(t) in types else t
    if name == "stemmer_override":
        # miscellaneous/StemmerOverrideFilter.java: dictionary hits replace
        # the term AND set KeywordAttribute so the downstream stemmer skips
        # it; ``then`` names that downstream stemmer (fused here because
        # the per-term chain carries no attribute channel — CustomChain
        # handles the separate keyword_marker spec the faithful way)
        rules = dict(kw["rules"])
        then = kw.get("then")
        stem = make_term_filter(then) if then else (lambda t: t)
        return lambda t: rules[t] if t in rules else stem(t)
    if name == "snowball":
        from .snowball import porter2_stem

        return porter2_stem
    if name == "metaphone":
        # phonetic/PhoneticFilter.java with the commons-codec Metaphone
        # encoder (replace=true mode: the code replaces the term)
        from .metaphone import metaphone as _mp

        mlen = int(kw.get("max_code_len", 4))
        return lambda t: (_mp(t, mlen) or t)
    if name == "hunspell":
        # hunspell/HunspellStemFilter.java (longestOnly mode) over the
        # scoped .aff/.dic parser — dictionaries passed as text
        from .hunspell import HunspellDictionary, HunspellStemmer

        st = HunspellStemmer(HunspellDictionary(kw["aff"], kw["dic"]))
        return st.stem_filter_term
    if name == "refined_soundex":
        from .metaphone import refined_soundex as _rs

        return lambda t: (_rs(t) or t)
    if name == "cologne":
        from .metaphone import cologne_phonetic as _cg

        return lambda t: (_cg(t) or t)
    if name in (
        "french_minimal",
        "german_minimal",
        "spanish_minimal",
        "swedish_minimal",
        "russian_light",
        "italian_light",
        "german_light",
        "german",
        "norwegian_minimal",
        "swedish_light",
        "spanish_light",
        "spanish_plural",
        "french_light",
        "finnish_light",
        "hungarian_light",
        "portuguese_light",
        "latvian",
        "indonesian",
        "hindi_normalization",
        "persian_normalization",
        "persian",
        "bengali_normalization",
        "hindi",
        "czech",
        "polish",
        "bengali",
        "telugu",
        "telugu_normalization",
        "bulgarian",
        "arabic_normalization",
        "arabic",
        "sorani_normalization",
        "sorani",
    ):
        from . import lightstem

        fn = {
            "czech": "czech_stem",
            "polish": "polish_stem",
            "bengali": "bengali_stem",
            "telugu": "telugu_stem",
            "telugu_normalization": "telugu_normalize",
            "spanish_plural": "spanish_plural_stem",
            "german": "german_stem",
            "bulgarian": "bulgarian_stem",
            "arabic_normalization": "arabic_normalize",
            "arabic": "arabic_stem",
            "sorani_normalization": "sorani_normalize",
            "sorani": "sorani_stem",
            "latvian": "latvian_stem",
            "indonesian": "indonesian_stem",
            "hindi_normalization": "hindi_normalize",
            "persian_normalization": "persian_normalize",
            "persian": "persian_stem",
            "bengali_normalization": "bengali_normalize",
            "hindi": "hindi_stem",
        }.get(name) or name.replace("minimal", "minimal_stem").replace(
            "light", "light_stem"
        )
        return getattr(lightstem, fn)
    if name == "turkish_lowercase":
        return _turkish_lower
    if name == "serbian_normalization":
        # sr/SerbianNormalizationFilter.java (the "bald" Latin folding,
        # table machine-extracted from the reference switch): Cyrillic
        # AND diacritic Latin fold to bare Latin, ђ/đ->dj, љ->lj,
        # њ->nj, џ->dz, ж/з/ž->z, ћ/ц/ч/č/ć->c, ш/š->s
        m = {
            "а": "a", "б": "b", "в": "v", "г": "g", "д": "d",
            "ђ": "dj", "đ": "dj", "е": "e", "ж": "z", "з": "z",
            "ž": "z", "и": "i", "ј": "j", "к": "k", "л": "l",
            "љ": "lj", "м": "m", "н": "n", "њ": "nj", "о": "o",
            "п": "p", "р": "r", "с": "s", "т": "t", "ћ": "c",
            "ц": "c", "ч": "c", "č": "c", "ć": "c", "у": "u",
            "ф": "f", "х": "h", "џ": "dz", "ш": "s", "š": "s",
        }
        return lambda t: "".join(m.get(c, c) for c in t)
    if name == "scandinavian_normalization":
        # miscellaneous/ScandinavianNormalizer.java processToken with
        # ALL_FOLDINGS (the ScandinavianNormalizationFilter default):
        # ä->æ, ö->ø, and aa/ao->å, ae->æ, oe/oo->ø digraph collapse
        def _scan_norm(t: str) -> str:
            out: list[str] = []
            i = 0
            n = len(t)
            while i < n:
                c = t[i]
                nxt = t[i + 1] if i + 1 < n else ""
                if c == "ä":
                    out.append("æ")
                elif c == "Ä":
                    out.append("Æ")
                elif c == "ö":
                    out.append("ø")
                elif c == "Ö":
                    out.append("Ø")
                elif c in "aA" and nxt in ("a", "A", "o", "O"):
                    out.append("å" if c == "a" else "Å")
                    i += 1
                elif c in "aA" and nxt in ("e", "E"):
                    out.append("æ" if c == "a" else "Æ")
                    i += 1
                elif c in "oO" and nxt in ("e", "E", "o", "O"):
                    out.append("ø" if c == "o" else "Ø")
                    i += 1
                else:
                    out.append(c)
                i += 1
            return "".join(out)

        return _scan_norm
    if name == "codepoint_count":
        # miscellaneous/CodepointCountFilter.java — Python strings index
        # codepoints, so this IS the length filter's semantics
        lo, hi = int(kw.get("min", 0)), int(kw.get("max", 1 << 30))
        return lambda t: t if lo <= len(t) <= hi else None
    if name == "date_recognizer":
        # miscellaneous/DateRecognizerFilter.java: keep only tokens the
        # date format parses; default ISO yyyy-MM-dd
        from datetime import datetime

        fmt = kw.get("format", "%Y-%m-%d")

        def _date_keep(t: str, fmt=fmt):
            try:
                datetime.strptime(t, fmt)
                return t
            except ValueError:
                return None

        return _date_keep
    if name == "greek_lowercase":
        return _greek_lower
    if name == "irish_lowercase":
        return _irish_lower
    if name == "protected":
        # miscellaneous/ProtectedTermFilter.java (a ConditionalTokenFilter):
        # the wrapped filter applies only to terms NOT in the protected set
        s = frozenset(kw["words"])
        inner = make_term_filter(kw["then"], **kw.get("then_kw", {}))
        return lambda t: t if t in s else inner(t)
    if name == "uppercase":
        # core/UpperCaseFilter.java (the rare inverse of lowercase; the
        # javadoc's warning about case-folding asymmetry applies)
        return lambda t: t.upper()
    if name == "capitalization":
        # miscellaneous/CapitalizationFilter.java defaults (processWord):
        # first char uppercased, the rest lowercased
        return lambda t: t[:1].upper() + t[1:].lower()
    if name == "german_normalization":
        return _german_normalize
    if name == "icu_folding":
        from .icufold import icu_fold

        return lambda t: icu_fold(t) or None
    if name == "galician_minimal":
        # gl/GalicianMinimalStemmer.java (RSLP Plural step)
        from .rslp import galician_minimal_stem

        return galician_minimal_stem
    if name == "brazilian":
        # br/BrazilianStemmer.java (null -> keep the original token,
        # the BrazilianStemFilter contract)
        from .brazilian import brazilian_stem

        return lambda t: brazilian_stem(t) or t
    if name == "portuguese_rslp":
        # pt/PortugueseStemmer.java (full RSLP step flow)
        from .rslp import portuguese_rslp_stem

        return portuguese_rslp_stem
    if name == "galician":
        # gl/GalicianStemmer.java (full RSLG step flow)
        from .rslp import galician_stem

        return galician_stem
    if name == "portuguese_minimal":
        # pt/PortugueseMinimalStemmer.java (RSLP Plural step)
        from .rslp import portuguese_minimal_stem

        return portuguese_minimal_stem
    if name == "greek_stem":
        # el/GreekStemmer.java (expects greek_lowercase output)
        from .greek import greek_stem

        return greek_stem
    raise ValueError(f"unknown term filter: {name}")


# el/GreekLowerCaseFilter.java:55-105 — final sigma standardized, tonos /
# dialytika diacritics folded to the lowercase base vowel
_GREEK_FOLD = str.maketrans(
    {
        "ς": "σ",
        "Ά": "α", "ά": "α",
        "Έ": "ε", "έ": "ε",
        "Ή": "η", "ή": "η",
        "Ί": "ι", "Ϊ": "ι", "ί": "ι",
        "ϊ": "ι", "ΐ": "ι",
        "Ύ": "υ", "Ϋ": "υ", "ύ": "υ",
        "ϋ": "υ", "ΰ": "υ",
        "Ό": "ο", "ό": "ο",
        "Ώ": "ω", "ώ": "ω",
        "΢": "ς",
    }
)


def _turkish_lower(t: str) -> str:
    """tr/TurkishLowerCaseFilter.java: dotted capital İ lowers to i,
    dotless capital I to ı — unless followed by a combining dot above
    (U+0307), which is consumed to produce i."""
    out: list[str] = []
    i = 0
    while i < len(t):
        c = t[i]
        if c == "İ":
            out.append("i")
        elif c == "I":
            if i + 1 < len(t) and t[i + 1] == "̇":
                out.append("i")
                i += 1  # consume the combining dot
            else:
                out.append("ı")
        else:
            out.append(c.lower())
        i += 1
    return "".join(out)


def _greek_lower(t: str) -> str:
    return t.translate(_GREEK_FOLD).lower().translate(_GREEK_FOLD)


def _irish_lower(t: str) -> str:
    """ga/IrishLowerCaseFilter.java:44-58: n/t prothesis before an
    uppercase (possibly fada) vowel gets a hyphen (nAthair ->
    n-athair), then ordinary lowercase."""
    if (
        len(t) > 1
        and t[0] in "nt"
        and t[1] in "AEIOUÁÉÍÓÚ"
    ):
        return t[0] + "-" + t[1:].lower()
    return t.lower()


def _german_normalize(t: str) -> str:
    """de/GermanNormalizationFilter.java three-state FSM: ß -> ss,
    umlauts dropped to base vowels, 'ae'/'oe' -> 'a'/'o', and 'ue' -> 'u'
    except after a vowel or q."""
    N, V, U = 0, 1, 2
    state = N
    out: list[str] = []
    for c in t:
        if c in "ao":
            out.append(c)
            state = U
        elif c == "u":
            out.append(c)
            state = U if state == N else V
        elif c == "e":
            if state == U:
                state = V
                continue  # e-deletion in umlaut state
            out.append(c)
            state = V
        elif c in "iqy":
            out.append(c)
            state = V
        elif c == "ä":
            out.append("a")
            state = V
        elif c == "ö":
            out.append("o")
            state = V
        elif c == "ü":
            out.append("u")
            state = V
        elif c == "ß":
            out.append("ss")
            state = N
        else:
            out.append(c)
            state = N
    return "".join(out)


class CustomChainAnalyzer(ChainedVocabAnalyzer):
    """CustomAnalyzer.builder() analogue (reference analysis/custom/
    CustomAnalyzer.java): StandardTokenizer + LowerCase, then an ordered
    list of analysis-common token filters given as JSON-able specs
    ``[("trim", {}), ("truncate", {"length": 5}), ...]`` so the chain
    threads through build -> manifest -> reopen like any parameterized
    analyzer.  ``limit`` is LimitTokenCountFilter placed directly after
    the tokenizer (it counts tokenizer output, the placement-dependent
    reference semantics — miscellaneous/LimitTokenCountFilter.java);
    dropped tokens leave StopFilter-style position gaps."""

    def __init__(self, filters=(), limit: int | None = None, max_token_length: int = 255):
        super().__init__(max_token_length)
        self.filter_specs = [
            (f[0], dict(f[1]) if len(f) > 1 else {})
            for f in (filters if isinstance(filters, (list, tuple)) else [])
        ]
        # keyword_marker (miscellaneous/KeywordMarkerFilter.java) sets
        # KeywordAttribute: stem filters LATER in the chain skip the term.
        # Represented as (name, frozenset) entries; everything else is
        # (name, callable).
        self._chain = [
            (n, frozenset(p["words"]) if n == "keyword_marker" else make_term_filter(n, **p))
            for n, p in self.filter_specs
        ]
        self.limit = limit
        self._cache: dict[str, str | None] = {}

    def map_term(self, term: str) -> str | None:
        if term in self._cache:
            return self._cache[term]
        t: str | None = term
        is_keyword = False
        for name, f in self._chain:
            if name == "keyword_marker":
                is_keyword = is_keyword or t in f
                continue
            if is_keyword and name in _STEM_FILTER_NAMES:
                continue
            t = f(t)
            if t is None:
                break
        if len(self._cache) < 1 << 20:
            self._cache[term] = t
        return t

    def _stream_keep(self, doc_ids, positions):
        if self.limit is None:
            return None
        return positions < int(self.limit)


class PatternAnalyzer(DocTokensAnalyzer):
    """PatternTokenizer in MATCH mode + LowerCaseFilter (reference
    analysis/pattern/PatternTokenizer.java with group=0, the
    PatternAnalyzer chain): tokens are the regex matches over the
    lowercased text.  Keep patterns RE2-compatible so the DuckDB
    ``regexp_extract_all`` oracle tokenizes identically; offsets refer to
    the lowercased text (identical to the original for ASCII corpora —
    documented deviation otherwise).  The per-doc scan is one compiled
    ``finditer`` (the reference's own shape: Matcher.find in a loop)."""

    def __init__(
        self,
        pattern: str = "[a-z]{3,}",
        max_token_length: int = 255,
        stop_words: frozenset[str] | None = None,
        **_kw,
    ):
        super().__init__(stop_words=None, max_token_length=max_token_length)
        self.pattern = pattern
        self._rx = re.compile(pattern)
        self.stop = stop_words or frozenset()

    def tokens(self, text: str) -> list[str]:
        cap = self.max_token_length
        return [
            m.group(0)
            for m in self._rx.finditer((text or "").lower())
            if len(m.group(0)) <= cap and m.group(0) not in self.stop
        ]

    def normalize(self, term: str) -> str:
        return term.lower()

    def _doc_tokens(self, text: str) -> list[tuple[str, int, int, int]]:
        out = []
        p = 0
        for m in self._rx.finditer(text.lower()):
            t = m.group(0)
            if len(t) > self.max_token_length:
                continue
            if t not in self.stop:
                out.append((t, p, m.start(), m.end()))
            p += 1  # a stop word leaves a posIncrement gap
        return out


class PatternSplitAnalyzer(PatternAnalyzer):
    """SimplePatternSplitTokenizer (reference analysis/pattern/
    SimplePatternSplitTokenizer.java): the pattern matches the
    SEPARATORS — tokens are the non-empty text runs between matches
    (PatternTokenizer group=-1 split mode), lowercased like the pattern
    analyzer chain."""

    def _doc_tokens(self, text: str) -> list[tuple[str, int, int]]:
        low = text.lower()
        out = []
        prev = 0
        for m in list(self._rx.finditer(low)) + [None]:
            s, e = (m.start(), m.end()) if m is not None else (len(low), len(low))
            t = low[prev:s]
            if t and len(t) <= self.max_token_length and t not in self.stop:
                out.append((t, prev, s))
            prev = e
        return out

    def tokens(self, text: str) -> list[str]:
        cap = self.max_token_length
        return [
            t
            for t in self._rx.split((text or "").lower())
            if t and len(t) <= cap and t not in self.stop
        ]


class SimpleLetterAnalyzer(PatternAnalyzer):
    """SimpleAnalyzer (reference core/SimpleAnalyzer.java): LetterTokenizer
    + LowerCaseFilter — maximal runs of Unicode letters, lowercased.
    Expressed as the letter-run pattern over the lowered text (CharTokenizer
    isTokenChar=isLetter); oversized runs drop rather than chunk
    (documented deviation from CharTokenizer's 255-char split)."""

    def __init__(self, **kw):
        kw.setdefault("pattern", r"[^\W\d_]+")
        super().__init__(**kw)


class StopWordsAnalyzer(SimpleLetterAnalyzer):
    """StopAnalyzer (reference core/StopAnalyzer.java): LetterTokenizer +
    LowerCase + StopFilter; the stop set is REQUIRED, like the reference
    constructor (defaults to the English set for convenience)."""

    def __init__(self, stop_words=None, **kw):
        from .english import ENGLISH_STOP_WORDS

        super().__init__(
            stop_words=frozenset(stop_words) if stop_words else ENGLISH_STOP_WORDS,
            **kw,
        )


class DriverCustomChainAnalyzer(CustomChainAnalyzer):
    """A fixed CustomAnalyzer chain for the driver's oracle family —
    LimitTokenCount(40) -> PatternReplace(strip vowels) -> Truncate(6) ->
    Length(min 2); every stage is exactly SQL-expressible."""

    def __init__(self, **_kw):
        super().__init__(
            filters=[
                ("pattern_replace", {"pattern": "[aeiou]", "replacement": ""}),
                ("truncate", {"length": 6}),
                ("length", {"min": 2}),
            ],
            limit=40,
        )


class FingerprintAnalyzer(StandardAnalyzer):
    """FingerprintFilter over the standard chain (reference analysis/
    miscellaneous/FingerprintFilter.java:37-70, the FingerprintAnalyzer
    shape used for clustering/record-linkage): ONE output token per doc —
    the sorted, de-duplicated input tokens joined by ``separator``.  If
    the concatenation exceeds ``max_output_token_size`` the doc emits NO
    token (reference javadoc line 62-64).  Sort order here is UTF-8 byte
    order (the vocab contract); the reference sorts UTF-16 code units —
    identical for ASCII corpora, documented deviation beyond the BMP.
    Offsets span min(start)..max(end) of the inputs, as the reference's
    offsetAtt does."""

    def __init__(self, max_output_token_size: int = 1024, separator: str = " ", **kw):
        super().__init__(**kw)
        self.max_output_token_size = int(max_output_token_size)
        self.separator = separator

    def tokens(self, text: str) -> list[str]:
        toks = super().tokens(text)
        if not toks:
            return []
        fp = self.separator.join(sorted(set(toks), key=lambda s: s.encode("utf-8")))
        return [fp] if len(fp) <= self.max_output_token_size else []

    def analyze(self, text: str):
        toks = self.tokens(text)
        if not toks:
            return [], [], 0
        return toks, [1], 1

    def _batch_token_stream(self, texts: list[str]) -> TokenStream:
        s = super()._batch_token_stream(texts)
        n_docs, V = s.n_docs, np.int64(len(s.vocab))
        # unique (doc, term) pairs — doc-major; tid order within a doc IS
        # byte order because the vocab contract sorts by utf-8
        ukeys = np.unique(s.doc_ids * V + s.tids)
        udocs = (ukeys // max(V, 1)).astype(np.int64)
        uterms = (ukeys % max(V, 1)).astype(np.int64)
        min_s = np.full(n_docs, np.iinfo(np.int64).max, np.int64)
        np.minimum.at(min_s, s.doc_ids, s.off_s)
        max_e = np.zeros(n_docs, np.int64)
        np.maximum.at(max_e, s.doc_ids, s.off_e)
        starts = np.flatnonzero(np.diff(udocs, prepend=-1))  # each doc's first pair
        fps: list[str] = []
        fdocs: list[int] = []
        for a, b in zip(starts, np.append(starts[1:], len(udocs))):
            fp = self.separator.join(s.vocab[int(i)] for i in uterms[a:b])
            if len(fp) <= self.max_output_token_size:
                fps.append(fp)
                fdocs.append(int(udocs[a]))
        return token_stream(
            fps, fdocs, np.zeros(len(fps), np.int64), n_docs, min_s[fdocs], max_e[fdocs]
        )


class KeywordRepeatAnalyzer(StandardAnalyzer):
    """KeywordRepeatFilter -> stemmer -> RemoveDuplicatesTokenFilter
    (reference miscellaneous/KeywordRepeatFilter.java:1,
    miscellaneous/RemoveDuplicatesTokenFilter.java:1): every token is
    emitted twice — the original (KeywordAttribute set, stemmer-exempt)
    and its stemmed form at the SAME position (posInc 0) — then the
    posInc-0 duplicate is removed when the stem equals the original.
    The stemmer is the SQL-expressible EnglishMinimalStemmer so the
    driver arm mirrors exactly; the engine's Porter chain is covered by
    the english analyzer arm.  Norm length counts originals only
    (posInc-0 stems are overlaps under discountOverlaps)."""

    def tokens(self, text: str) -> list[str]:
        from .english import english_minimal_stem

        out: list[str] = []
        for t in super().tokens(text):
            out.append(t)
            s = english_minimal_stem(t)
            if s != t:
                out.append(s)
        return out

    def analyze(self, text: str):
        base = super().tokens(text)
        from .english import english_minimal_stem

        toks: list[str] = []
        for t in base:
            toks.append(t)
            s = english_minimal_stem(t)
            if s != t:
                toks.append(s)
        if not toks:
            return [], [], 0
        counts = Counter(toks)
        return list(counts.keys()), list(counts.values()), len(base)

    def _batch_token_stream(self, texts: list[str]) -> TokenStream:
        from .english import english_minimal_stem

        s = super()._batch_token_stream(texts)
        # stems stack on the original (posInc 0): overlaps leave lengths
        return s.stack(
            [(g, st) for g, t in enumerate(s.vocab) if (st := english_minimal_stem(t)) != t]
        )


class PathHierarchyAnalyzer(DocTokensAnalyzer):
    """PathHierarchyTokenizer (reference analysis/path/
    PathHierarchyTokenizer.java:113-182) / ReversePathHierarchyTokenizer
    (ReversePathHierarchyTokenizer.java:126-175) as a whole-value
    tokenizer: ``a/b/c`` emits the cumulative prefixes ``a``, ``a/b``,
    ``a/b/c`` (reverse mode: the suffixes ``a/b/c``, ``b/c``, ``c``),
    each at its own position (posIncrement 1 per token in both reference
    tokenizers).  ``skip`` drops the first (reverse: last) ``skip``
    components — skipped tokens keep the delimiter that follows them, so
    with skip=1 ``a/b/c`` yields ``/b``, ``/b/c`` exactly as the
    reference's startPosition accounting does; consecutive delimiters
    each produce a boundary (``a//b`` -> ``a``, ``a/``, ``a//b``) and a
    trailing delimiter emits a final token ending in it.  ``delimiter``
    chars are rewritten to ``replacement`` in emitted terms.  No
    lowercasing, no stop filter (the reference wires the bare tokenizer).
    """

    def __init__(
        self,
        delimiter: str = "/",
        replacement: str | None = None,
        skip: int = 0,
        reverse: bool = False,
        **kw,
    ):
        if skip < 0:
            raise ValueError("skip cannot be negative")
        if len(delimiter) != 1:
            raise ValueError("delimiter must be a single char")
        super().__init__(**kw)
        self.delimiter = delimiter
        self.replacement = replacement if replacement is not None else delimiter
        self.skip = skip
        self.reverse = reverse

    def _spans(self, text: str) -> list[tuple[int, int]]:
        """(start, end) char spans of emitted tokens, in emit order."""
        if not text:
            return []
        d, s = self.delimiter, self.skip
        idxs = [i for i, c in enumerate(text) if c == d]
        if not self.reverse:
            if s == 0:
                start = 0
            else:
                # a leading delimiter is consumed into component 1 (the
                # reference's first-char branch increments `skipped` once
                # for ANY first char), so it is not a skip boundary
                inner = idxs[1:] if idxs and idxs[0] == 0 else idxs
                if len(inner) < s:
                    return []  # fewer components than skip: no tokens
                start = inner[s - 1]
            spans = [(start, i) for i in idxs if i > start]
            spans.append((start, len(text)))
            return spans
        # reverse: boundaries AFTER each delimiter, plus 0 and len
        bounds = [0] + [i + 1 for i in idxs]
        if bounds[-1] < len(text):
            bounds.append(len(text))
        count = len(bounds)
        k = count - 1 - s
        if k < 1:
            return []
        end = bounds[k]
        return [(bounds[j], end) for j in range(k)]

    def _doc_tokens(self, text: str) -> list[tuple[str, int, int]]:
        rep = text.replace(self.delimiter, self.replacement)
        return [(rep[a:b], a, b) for a, b in self._spans(text)]

    def tokens(self, text: str) -> list[str]:
        return [t for t, _, _ in self._doc_tokens(text)]

    def normalize(self, term: str) -> str:
        return term.replace(self.delimiter, self.replacement)

    def analyze(self, text: str):
        toks = self.tokens(text)
        if not toks:
            return [], [], 0
        counts = Counter(toks)
        return list(counts.keys()), list(counts.values()), len(toks)


class DelimitedPayloadAnalyzer(WhitespaceAnalyzer):
    """WhitespaceTokenizer -> DelimitedPayloadTokenFilter (reference
    analysis/payloads/DelimitedPayloadTokenFilter.java with the
    IntegerEncoder): ``term|7`` indexes ``term`` carrying payload 7 —
    the split is at the LAST delimiter, like the reference's
    end-to-start scan.  Payloads ride the engine's payload channel (the
    off_s stream under index_options="payloads", see index/build.py):
    tokens WITHOUT a delimiter keep the default char-start-offset
    payload.  A non-integer payload suffix raises, matching
    IntegerEncoder's NumberFormatException."""

    def __init__(self, delimiter: str = "|", **kw):
        super().__init__(**kw)
        if len(delimiter) != 1:
            raise ValueError("delimiter must be a single char")
        self.pay_delimiter = delimiter

    def _split(self, term: str) -> tuple[str, int | None]:
        i = term.rfind(self.pay_delimiter)
        if i < 0:
            return term, None
        return term[:i], int(term[i + 1 :])

    def tokens(self, text: str) -> list[str]:
        return [self._split(t)[0] for t in super().tokens(text)]

    def normalize(self, term: str) -> str:
        return self._split(term)[0]

    def _batch_token_stream(self, texts: list[str]) -> TokenStream:
        s = super()._batch_token_stream(texts)
        splits = [self._split(t) for t in s.vocab]
        pays = np.array([0 if p is None else p for _, p in splits], dtype=np.int64)
        has_pay = np.array([p is not None for _, p in splits], dtype=bool)
        # delimited tokens carry their parsed payload (negative values
        # included — IntegerEncoder encodes them faithfully); others keep
        # the char-start-offset default
        off_s = np.where(has_pay[s.tids], pays[s.tids], s.off_s)
        return s._replace(off_s=off_s).relabel([b for b, _ in splits])


class DelimitedTermFrequencyAnalyzer(WhitespaceAnalyzer):
    """WhitespaceTokenizer -> DelimitedTermFrequencyTokenFilter
    (reference miscellaneous/DelimitedTermFrequencyTokenFilter.java):
    ``term|3`` indexes ``term`` with termFreq 3 — the occurrence is
    repeated in the stream so tf aggregation and the norm length both
    count it ``freq`` times (FieldInvertState.length += termFreq).
    SCOPE: docs_freqs indexes (the reference filter likewise requires
    omitted positions — it throws when positions are indexed)."""

    def __init__(self, delimiter: str = "|", **kw):
        super().__init__(**kw)
        self.tf_delimiter = delimiter

    def _split(self, term: str) -> tuple[str, int]:
        i = term.rfind(self.tf_delimiter)
        if i < 0:
            return term, 1
        f = int(term[i + 1 :])
        if f < 1:
            raise ValueError(f"Term frequency must be 1 or greater: {f}")
        return term[:i], f

    def tokens(self, text: str) -> list[str]:
        out: list[str] = []
        for t in super().tokens(text):
            b, f = self._split(t)
            out.extend([b] * f)
        return out

    def normalize(self, term: str) -> str:
        return self._split(term)[0]

    def _batch_token_stream(self, texts: list[str]) -> TokenStream:
        s = super()._batch_token_stream(texts)
        splits = [self._split(t) for t in s.vocab]
        freqs = np.array([f for _, f in splits], dtype=np.int64)[s.tids]
        # each occurrence repeats freq times at its position: tf and the
        # norm length both count it freq times
        idx = np.repeat(np.arange(len(s.tids), dtype=np.int64), freqs)
        return token_stream(
            [b for b, _ in splits],
            s.doc_ids[idx],
            s.positions[idx],
            s.n_docs,
            s.off_s[idx],
            s.off_e[idx],
            ids=s.tids[idx],
        )


class CJKBigramAnalyzer(DocTokensAnalyzer):
    """StandardTokenizer -> LowerCase -> CJKBigramFilter (reference
    analysis/cjk/CJKBigramFilter.java, default flags HAN | HIRAGANA |
    KATAKANA | HANGUL, outputUnigrams=false): characters of consecutive
    CJK-typed tokens are buffered into one run (the filter only checks
    posIncrement==1, so a run continues across whitespace and across
    scripts) and emitted as overlapping character bigrams; a run of a
    single character emits the unigram (the filter's loneState).
    Non-CJK tokens pass through.  DEVIATION: no CJKWidthFilter
    (half/full-width folding) in front — the reference CJKAnalyzer
    chain includes it, our corpus has no half-width forms."""

    _CJK_TYPES = frozenset(
        (scanner.IDEOGRAPHIC, scanner.HIRAGANA, scanner.KATAKANA, scanner.HANGUL)
    )

    def _doc_tokens(self, text: str) -> list[tuple[str, int, int]]:
        if not text:
            return []
        cps = np.frombuffer(text.encode("utf-32-le"), dtype="<u4")
        spans = scanner.scan_spans(cps, self.max_token_length)
        if not spans:
            return []
        low = self.tables.lower[cps].astype("<u4").tobytes().decode("utf-32-le")
        out: list[tuple[str, int, int, int]] = []  # (term, pos, off_s, off_e)
        run: list[tuple[str, int, int]] = []  # (char, off_s, off_e)
        pos = 0

        def flush():
            nonlocal pos
            if len(run) == 1:
                out.append((run[0][0], pos, run[0][1], run[0][2]))
                pos += 1
            else:
                for a, b in zip(run, run[1:]):
                    out.append((a[0] + b[0], pos, a[1], b[2]))
                    pos += 1
            run.clear()

        for s, e, typ in spans:
            if typ in self._CJK_TYPES:
                run.extend((low[i], i, i + 1) for i in range(s, e))
                continue
            if run:
                flush()
            tok = low[s:e]
            if self.stop_words and tok in self.stop_words:
                pos += 1  # StopFilter posIncrement gap
                continue
            out.append((tok, pos, s, e))
            pos += 1
        if run:
            flush()
        return out

    def tokens(self, text: str) -> list[str]:
        return [it[0] for it in self._doc_tokens(text or "")]

    def analyze(self, text: str):
        toks = self.tokens(text)
        if not toks:
            return [], [], 0
        counts = Counter(toks)
        return list(counts.keys()), list(counts.values()), len(toks)


ANALYZERS = {
    "standard": StandardAnalyzer,
    "simple_code": SimpleCodeAnalyzer,
    "code": CodeAnalyzer,
    "keyword": KeywordAnalyzer,
    "english": EnglishAnalyzer,
    "english_folded": EnglishFoldedAnalyzer,
    "english_minimal": EnglishMinimalAnalyzer,
    "english_snowball": EnglishSnowballAnalyzer,
    "synonym": SynonymExpandAnalyzer,
    "synonym_graph": SynonymGraphAnalyzer,
    "shingle": ShingleAnalyzer,
    "common_grams": CommonGramsAnalyzer,
    "whitespace": WhitespaceAnalyzer,
    "word_delimiter": WordDelimiterGraphAnalyzer,
    "edge_ngram": EdgeNGramAnalyzer,
    "ngram": NGramAnalyzer,
    "reverse": ReverseAnalyzer,
    "mapped": MappedCharFilterAnalyzer,
    "custom": CustomChainAnalyzer,
    "custom_chain": DriverCustomChainAnalyzer,
    "fingerprint": FingerprintAnalyzer,
    "keyword_repeat": KeywordRepeatAnalyzer,
    "pattern": PatternAnalyzer,
    "html_strip": HTMLStripAnalyzer,
    "path_hierarchy": PathHierarchyAnalyzer,
    "cjk_bigram": CJKBigramAnalyzer,
    "delimited_payload": DelimitedPayloadAnalyzer,
    "delimited_tf": DelimitedTermFrequencyAnalyzer,
    "simple": SimpleLetterAnalyzer,
    "pattern_replace_char": PatternReplaceCharFilterAnalyzer,
    "pattern_split": PatternSplitAnalyzer,
    "stop": StopWordsAnalyzer,
}


def make_analyzer(name: str | dict = "standard", **kw):
    """Build an analyzer from a registry name, or from a JSON-able dict
    spec ``{"name": ..., **kwargs}`` — the dict form threads parameterized
    analyzers (edge_ngram gram sizes, word_delimiter flags) through the
    build -> manifest -> reopen path unchanged."""
    if isinstance(name, dict):
        spec = dict(name)
        name = spec.pop("name")
        kw = {**spec, **kw}
    if name not in ANALYZERS and name in ("classic", "uax29_url_email"):
        from . import classic  # lazy: classic.py imports this module

        ANALYZERS["classic"] = classic.ClassicAnalyzer
        ANALYZERS["uax29_url_email"] = classic.UAX29URLEmailAnalyzer
    if name not in ANALYZERS and name == "japanese":
        from . import japanese  # lazy: kuromoji-style lattice tokenizer

        ANALYZERS["japanese"] = japanese.JapaneseAnalyzer
    if name not in ANALYZERS and name == "korean":
        from . import korean  # lazy: nori-style lattice tokenizer

        ANALYZERS["korean"] = korean.KoreanAnalyzer
    if name not in ANALYZERS and name == "icu_folding":
        from . import icufold  # lazy: ICUFoldingFilter-equivalent chain

        ANALYZERS["icu_folding"] = icufold.ICUFoldingAnalyzer
    if name not in ANALYZERS and name == "chinese":
        from . import chinese  # lazy: smartcn-style lattice segmenter

        ANALYZERS["chinese"] = chinese.SmartChineseAnalyzer
    return ANALYZERS[name](**kw)
