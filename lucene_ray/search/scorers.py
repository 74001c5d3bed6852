"""Per-segment scorers: postings cursor, impacts pruning, WAND.

Reproduces the reference query-evaluation semantics (citations into
/root/reference/lucene/core/src/java/org/apache/lucene/search/):

- ``PostingsCursor``: block-at-a-time postings iterator with skip-based
  ``advance`` and impact metadata (Lucene104PostingsReader.java:278-690).
- ``TermScorer``: BM25 scoring of (freq, norm) (TermScorer.java:36-167), with
  vectorized whole-block scoring (nextDocsAndScores analogue).
- ``ImpactsDISI``: skips blocks whose max score cannot beat the current
  minimum competitive score (ImpactsDISI.java:67-122 + MaxScoreCache.java).
- ``WANDScorer``: block-max WAND for SHOULD disjunctions with minShouldMatch,
  using the same scaled-long max-score arithmetic (WANDScorer.java:55-687);
  the scaling scheme is kept because correctness of pruning depends only on
  the upper-bound validity it guarantees.
- Conjunction / req-opt / exclusion scorers for MUST / FILTER / MUST_NOT
  (BooleanWeight semantics).

Two-phase iteration: every scorer exposes ``approx_advance(target)`` plus
``matches()``; plain scorers are single-phase (``matches`` is True).
"""

from __future__ import annotations

import math

import numpy as np

from ..index import postings as codec

NO_MORE_DOCS = 2**31 - 1
F32 = np.float32

FLOAT_MANTISSA_BITS = 24
MAX_SCALED_SCORE = (1 << 24) - 1


# --- float helpers (MathUtil.java) --------------------------------------

def sum_relative_error_bound(num_values: int) -> float:
    if num_values <= 1:
        return 0.0
    return (num_values - 1) * math.ldexp(1.0, -52)


def sum_upper_bound(s: float, num_values: int) -> float:
    """MathUtil.sumUpperBound:177-194."""
    if num_values <= 2:
        return s
    return (1.0 + 2 * sum_relative_error_bound(num_values)) * s


def scaling_factor(f: float) -> int:
    """WANDScorer.scalingFactor:71-86."""
    if f < 0:
        raise ValueError("Scores must be positive or null")
    if f == 0:
        return scaling_factor(1.401298464324817e-45) + 1  # Float.MIN_VALUE
    if math.isinf(f):
        return scaling_factor(3.4028234663852886e38) - 1  # Float.MAX_VALUE
    # Math.getExponent(double)
    m, e = math.frexp(float(f))
    return FLOAT_MANTISSA_BITS - 1 - (e - 1)


def scale_max_score(max_score: float, sf: int) -> int:
    """Round-up scaling (WANDScorer.scaleMaxScore:92-107)."""
    scaled = math.ldexp(float(max_score), sf)
    if scaled > MAX_SCALED_SCORE:
        return MAX_SCALED_SCORE
    return int(math.ceil(scaled))


def scale_min_score(min_score: float, sf: int) -> int:
    """Round-down scaling (WANDScorer.scaleMinScore:110-122)."""
    return int(math.floor(math.ldexp(float(min_score), sf)))


# --- postings cursor -----------------------------------------------------

class PostingsCursor:
    """Iterator over one term's postings in one segment with impacts."""

    __slots__ = (
        "reader", "enc", "tid", "df", "doc", "freq",
        "_single", "_bs", "_bc", "_cur_blk", "_docs", "_freqs", "_pos",
        "_shallow_blk",
    )

    def __init__(self, reader, tid: int):
        self.reader = reader
        self.enc = reader.enc
        self.tid = tid
        self.df = int(self.enc.doc_freq[tid])
        self.doc = -1
        self.freq = 0
        sd = int(self.enc.singleton_doc[tid])
        self._single = sd >= 0
        self._bs = int(self.enc.block_start[tid])
        self._bc = int(self.enc.block_count[tid])
        self._cur_blk = -1
        self._docs = None
        self._freqs = None
        self._pos = -1
        self._shallow_blk = self._bs

    def cost(self) -> int:
        return self.df

    # -- iteration
    def next_doc(self) -> int:
        return self.advance(self.doc + 1)

    def advance(self, target: int) -> int:
        if self._single:
            sd = int(self.enc.singleton_doc[self.tid])
            if self.doc == NO_MORE_DOCS or target > sd:
                self.doc = NO_MORE_DOCS
            else:
                self.doc = sd
                self.freq = int(self.enc.singleton_freq[self.tid])
            return self.doc
        blk_last = self.enc.block_last_doc
        # find first block (>= current) whose last doc >= target
        b = self._cur_blk if self._cur_blk >= self._bs else self._bs
        if self._cur_blk < 0 or target > int(blk_last[self._cur_blk]):
            lo = np.searchsorted(blk_last[self._bs : self._bs + self._bc], target, side="left")
            b = self._bs + int(lo)
            if b >= self._bs + self._bc:
                self.doc = NO_MORE_DOCS
                return self.doc
            self._load_block(b)
        # scan within the decoded block
        pos = int(np.searchsorted(self._docs, target, side="left"))
        self._pos = pos
        self.doc = int(self._docs[pos])
        self.freq = int(self._freqs[pos])
        return self.doc

    def _load_block(self, b: int) -> None:
        prev = int(self.enc.block_last_doc[b - 1]) if b > self._bs else -1
        self._docs, self._freqs = codec.decode_block(self.enc, b, prev)
        self._cur_blk = b

    # -- impacts (ImpactsEnum semantics: level 0 = block, level 1 = term)
    def advance_shallow(self, target: int) -> int:
        """Returns the last docID for which level-0 max score is valid."""
        if self._single:
            sd = int(self.enc.singleton_doc[self.tid])
            return sd if target <= sd else NO_MORE_DOCS
        blk_last = self.enc.block_last_doc
        lo = np.searchsorted(blk_last[self._bs : self._bs + self._bc], target, side="left")
        b = self._bs + int(lo)
        if b >= self._bs + self._bc:
            self._shallow_blk = self._bs + self._bc
            return NO_MORE_DOCS
        self._shallow_blk = b
        return int(blk_last[b])

    def block_impacts(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """(freqs, norms) impact pairs for the given level at the current
        shallow position; level 0 = current block, level 1 = whole term."""
        enc = self.enc
        if level == 1 or self._single or self._shallow_blk >= self._bs + self._bc:
            s = int(enc.term_imp_start[self.tid])
            c = int(enc.term_imp_count[self.tid])
            return enc.term_imp_freq[s : s + c], enc.term_imp_norm[s : s + c]
        b = self._shallow_blk
        s = int(enc.block_imp_start[b])
        c = int(enc.block_imp_count[b])
        return enc.imp_freq[s : s + c], enc.imp_norm[s : s + c]

    def level_up_to(self, level: int) -> int:
        if level == 1 or self._single or self._shallow_blk >= self._bs + self._bc:
            return NO_MORE_DOCS
        return int(self.enc.block_last_doc[self._shallow_blk])

    # -- bulk access for the collector fast path
    def current_block(self) -> tuple[np.ndarray, np.ndarray]:
        return self._docs, self._freqs


# --- scorers -------------------------------------------------------------

class Scorer:
    doc: int = -1

    def cost(self) -> int:
        raise NotImplementedError

    def next_doc(self) -> int:
        return self.advance(self.doc + 1)

    def advance(self, target: int) -> int:
        raise NotImplementedError

    def score(self) -> np.float32:
        raise NotImplementedError

    # two-phase
    def approx_advance(self, target: int) -> int:
        return self.advance(target)

    def approx_next(self) -> int:
        return self.approx_advance(self.doc + 1)

    def matches(self) -> bool:
        return True

    # impacts / block-max (defaults: no block structure)
    def advance_shallow(self, target: int) -> int:
        return NO_MORE_DOCS

    def get_max_score(self, up_to: int) -> np.float32:
        raise NotImplementedError

    def set_min_competitive_score(self, min_score: np.float32) -> None:
        pass


class TermScorer(Scorer):
    """BM25-scored single term (TermScorer.java)."""

    def __init__(self, cursor: PostingsCursor, sim_scorer, norms: np.ndarray):
        self.cursor = cursor
        self.sim = sim_scorer
        self.norms = norms
        self.doc = -1
        self._max_score_cache: dict[tuple[int, int], np.float32] = {}

    def cost(self) -> int:
        return self.cursor.cost()

    def advance(self, target: int) -> int:
        self.doc = self.cursor.advance(target)
        return self.doc

    def score(self) -> np.float32:
        d = self.doc
        return self.sim.score(self.cursor.freq, int(self.norms[d]))

    def advance_shallow(self, target: int) -> int:
        return self.cursor.advance_shallow(target)

    def get_max_score(self, up_to: int) -> np.float32:
        """MaxScoreCache.getMaxScoreForLevel semantics: pick the innermost
        level whose upTo covers ``up_to``; max over its impact pairs."""
        level = 0 if up_to <= self.cursor.level_up_to(0) else 1
        key = (level, self.cursor._shallow_blk if level == 0 else -1)
        cached = self._max_score_cache.get(key)
        if cached is not None:
            return cached
        freqs, norms = self.cursor.block_impacts(level)
        if len(freqs) == 0:
            result = F32(0)
        else:
            result = F32(self.sim.score_bulk(np.asarray(freqs), np.asarray(norms)).max())
        self._max_score_cache[key] = result
        return result


class ConstantScoreScorer(Scorer):
    """ConstantScoreQuery / FILTER wrapping: fixed score, no block structure
    (so under WAND it degrades to plain WAND, matching the reference)."""

    def __init__(self, inner_iter, score: float):
        self.inner = inner_iter  # any object with advance/next_doc/cost/doc
        self._score = F32(score)
        self.doc = -1

    def cost(self) -> int:
        return self.inner.cost()

    def advance(self, target: int) -> int:
        self.doc = self.inner.advance(target)
        return self.doc

    def score(self) -> np.float32:
        return self._score

    def get_max_score(self, up_to: int) -> np.float32:
        return self._score


class ImpactsDISI(Scorer):
    """Wraps a top-level scoring TermScorer, skipping non-competitive blocks
    (ImpactsDISI.java:67-122)."""

    def __init__(self, term_scorer: TermScorer):
        self.inner = term_scorer
        self.min_competitive = F32(0)
        self.up_to = -1
        self.doc = -1

    def cost(self) -> int:
        return self.inner.cost()

    def set_min_competitive_score(self, min_score: np.float32) -> None:
        if min_score > self.min_competitive:
            self.min_competitive = F32(min_score)

    def _advance_target(self, target: int) -> int:
        """ImpactsDISI.advanceTarget:67-99."""
        if target <= self.up_to:
            return target
        while True:
            self.up_to = self.inner.advance_shallow(target)
            if self.up_to == NO_MORE_DOCS:
                return NO_MORE_DOCS
            max_score = self.inner.get_max_score(self.up_to)
            if max_score >= self.min_competitive:
                return target
            target = self.up_to + 1

    def advance(self, target: int) -> int:
        self.doc = self.inner.advance(self._advance_target(target))
        return self.doc

    def score(self) -> np.float32:
        return self.inner.score()

    def advance_shallow(self, target: int) -> int:
        return self.inner.advance_shallow(target)

    def get_max_score(self, up_to: int) -> np.float32:
        return self.inner.get_max_score(up_to)


# --- DisiWrapper + doc-ordered priority queue (DisiPriorityQueue.java) ---

class DisiWrapper:
    __slots__ = ("scorer", "doc", "cost", "scaled_max_score", "next")

    def __init__(self, scorer: Scorer):
        self.scorer = scorer
        self.doc = -1
        self.cost = scorer.cost()
        self.scaled_max_score = 0
        self.next = None


class DisiPriorityQueue:
    """Min-heap of DisiWrapper ordered by doc."""

    def __init__(self) -> None:
        self.heap: list[DisiWrapper] = []

    def __len__(self) -> int:
        return len(self.heap)

    def __iter__(self):
        return iter(self.heap)

    def top(self) -> DisiWrapper | None:
        return self.heap[0] if self.heap else None

    def add(self, w: DisiWrapper) -> None:
        h = self.heap
        h.append(w)
        i = len(h) - 1
        while i > 0:
            p = (i - 1) >> 1
            if h[p].doc <= w.doc:
                break
            h[i] = h[p]
            i = p
        h[i] = w

    def pop(self) -> DisiWrapper | None:
        h = self.heap
        if not h:
            return None
        result = h[0]
        last = h.pop()
        if h:
            h[0] = last
            self._down(0)
        return result

    def update_top(self, w: DisiWrapper | None = None) -> DisiWrapper | None:
        if w is not None:
            self.heap[0] = w
        if self.heap:
            self._down(0)
        return self.top()

    def _down(self, i: int) -> None:
        h = self.heap
        n = len(h)
        node = h[i]
        while True:
            l = 2 * i + 1
            if l >= n:
                break
            r = l + 1
            c = r if r < n and h[r].doc < h[l].doc else l
            if h[c].doc >= node.doc:
                break
            h[i] = h[c]
            i = c
        h[i] = node


# --- WANDScorer ----------------------------------------------------------

def _greater_max_score(w1: DisiWrapper, w2: DisiWrapper) -> bool:
    """Tail heap order (WANDScorer.greaterMaxScore:666-676)."""
    if w1.scaled_max_score != w2.scaled_max_score:
        return w1.scaled_max_score > w2.scaled_max_score
    return w1.cost < w2.cost


class WANDScorer(Scorer):
    """Block-max WAND over SHOULD sub-scorers (WANDScorer.java).

    ``score_mode`` "TOP_SCORES" enables pruning; anything else evaluates the
    plain (min-should-match) disjunction exhaustively.
    """

    def __init__(self, scorers: list[Scorer], min_should_match: int = 0,
                 score_mode: str = "TOP_SCORES"):
        if min_should_match >= len(scorers):
            raise ValueError("minShouldMatch should be < the number of scorers")
        self.score_mode = score_mode
        self.min_should_match = min_should_match
        self.min_competitive_score = 0  # scaled long
        self.doc = -1
        self.up_to = -1
        self.lead: DisiWrapper | None = None
        self.lead_score = 0.0  # double accumulator
        self.freq = 0
        self.head = DisiPriorityQueue()
        self.tail: list[DisiWrapper] = []
        self.tail_max_score = 0

        if score_mode == "TOP_SCORES":
            max_score_sum = 0.0
            for s in scorers:
                s.advance_shallow(0)
                max_score_sum += float(s.get_max_score(NO_MORE_DOCS))
            max_score_sum_f = F32(sum_upper_bound(max_score_sum, len(scorers)))
            self.scaling_factor = scaling_factor(float(max_score_sum_f))
        else:
            self.scaling_factor = 0

        for s in scorers:
            w = DisiWrapper(s)
            w.next = self.lead
            self.lead = w
            self.freq += 1
        self._cost = sum(s.cost() for s in scorers)  # approximation of
        # costWithMinShouldMatch; only used as a hint
        self.lead_cost = self._cost

    def cost(self) -> int:
        return self._cost

    def set_min_competitive_score(self, min_score: np.float32) -> None:
        scaled = scale_min_score(float(min_score), self.scaling_factor)
        self.min_competitive_score = scaled

    # -- two-phase approximation (WANDScorer.twoPhaseIterator approximation)
    def approx_advance(self, target: int) -> int:
        self._push_back_leads(target)
        head_top = self._advance_head(target)
        if self.score_mode == "TOP_SCORES" and (head_top is None or head_top.doc > self.up_to):
            self._move_to_next_block(target)
            head_top = self.head.top()
        if head_top is None:
            self.doc = NO_MORE_DOCS
        else:
            self.doc = head_top.doc
        return self.doc

    def matches(self) -> bool:
        """twoPhaseIterator.matches()."""
        self._move_to_next_candidate()
        scaled_lead_score = 0
        if self.score_mode == "TOP_SCORES":
            scaled_lead_score = scale_max_score(
                float(F32(sum_upper_bound(self.lead_score, FLOAT_MANTISSA_BITS))),
                self.scaling_factor,
            )
        while (scaled_lead_score < self.min_competitive_score
               or self.freq < self.min_should_match):
            if (scaled_lead_score + self.tail_max_score < self.min_competitive_score
                    or self.freq + len(self.tail) < self.min_should_match):
                return False
            prev_lead = self.lead
            self._advance_tail()
            if self.score_mode == "TOP_SCORES" and self.lead is not prev_lead:
                scaled_lead_score = scale_max_score(
                    float(F32(sum_upper_bound(self.lead_score, FLOAT_MANTISSA_BITS))),
                    self.scaling_factor,
                )
        return True

    def advance(self, target: int) -> int:
        """Single-phase driver: approximation + matches."""
        while True:
            doc = self.approx_advance(target)
            if doc == NO_MORE_DOCS:
                return doc
            if self.matches():
                return doc
            target = doc + 1

    def score(self) -> np.float32:
        self._advance_all_tail()
        lead_score = self.lead_score
        if self.score_mode != "TOP_SCORES":
            lead_score = 0.0
            w = self.lead
            while w is not None:
                lead_score += float(w.scorer.score())
                w = w.next
        return F32(lead_score)

    def get_max_score(self, up_to: int) -> np.float32:
        total = 0.0
        n = 0
        w = self.lead
        # all scorers are reachable through lead/tail/head at any time; we
        # conservatively sum over all registered scorers
        for wrap in self._all_wrappers():
            n += 1
            if wrap.doc <= up_to:
                total += float(wrap.scorer.get_max_score(up_to))
        return F32(sum_upper_bound(total, max(n, 1)))

    def _all_wrappers(self):
        w = self.lead
        while w is not None:
            yield w
            w = w.next
        yield from self.head
        yield from self.tail

    # -- internals, mirroring the reference implementation
    def _add_lead(self, w: DisiWrapper) -> None:
        w.next = self.lead
        self.lead = w
        self.freq += 1
        if self.score_mode == "TOP_SCORES":
            self.lead_score += float(w.scorer.score())

    def _push_back_leads(self, target: int) -> None:
        w = self.lead
        while w is not None:
            nxt = w.next
            evicted = self._insert_tail_with_overflow(w)
            if evicted is not None:
                evicted.doc = evicted.scorer.advance(target)
                self.head.add(evicted)
            w = nxt
        self.lead = None

    def _advance_head(self, target: int) -> DisiWrapper | None:
        head_top = self.head.top()
        while head_top is not None and head_top.doc < target:
            evicted = self._insert_tail_with_overflow(head_top)
            if evicted is not None:
                evicted.doc = evicted.scorer.advance(target)
                head_top = self.head.update_top(evicted)
            else:
                self.head.pop()
                head_top = self.head.top()
        return head_top

    def _advance_tail_wrapper(self, w: DisiWrapper) -> None:
        w.doc = w.scorer.advance(self.doc)
        if w.doc == self.doc:
            self._add_lead(w)
        else:
            self.head.add(w)

    def _advance_tail(self) -> None:
        top = self._pop_tail()
        self._advance_tail_wrapper(top)

    def _update_max_scores(self, target: int) -> None:
        """WANDScorer.updateMaxScores:436-486."""
        new_up_to = NO_MORE_DOCS
        for w in self.head:
            if w.doc <= new_up_to and w.cost <= self.lead_cost:
                new_up_to = min(w.scorer.advance_shallow(w.doc), new_up_to)
        if new_up_to == NO_MORE_DOCS and self.tail and self.tail[0].cost <= self.lead_cost:
            new_up_to = self.tail[0].scorer.advance_shallow(target)
            head_top = self.head.top()
            if head_top is not None:
                new_up_to = max(new_up_to, head_top.doc)
        self.up_to = new_up_to

        for w in self.head:
            if w.doc <= self.up_to:
                w.scaled_max_score = scale_max_score(
                    float(w.scorer.get_max_score(new_up_to)), self.scaling_factor
                )

        self.tail_max_score = 0
        for i in range(len(self.tail)):
            w = self.tail[i]
            w.scorer.advance_shallow(target)
            w.scaled_max_score = scale_max_score(
                float(w.scorer.get_max_score(self.up_to)), self.scaling_factor
            )
            self._up_heap_max_score(i)
            self.tail_max_score += w.scaled_max_score

        # tail alone must not be able to produce a competitive hit
        while self.tail and self.tail_max_score >= self.min_competitive_score:
            w = self._pop_tail()
            w.doc = w.scorer.advance(target)
            self.head.add(w)

    def _move_to_next_block(self, target: int) -> None:
        """WANDScorer.moveToNextBlock:492-517."""
        while self.up_to < NO_MORE_DOCS:
            if len(self.head) == 0:
                target = max(target, self.up_to + 1)
                self._update_max_scores(target)
            elif self.head.top().doc > self.up_to:
                self._update_max_scores(target)
                break
            else:
                break

    def _move_to_next_candidate(self) -> None:
        self.lead = self.head.pop()
        self.lead.next = None
        self.freq = 1
        if self.score_mode == "TOP_SCORES":
            self.lead_score = float(self.lead.scorer.score())
        while len(self.head) > 0 and self.head.top().doc == self.doc:
            self._add_lead(self.head.pop())

    def _advance_all_tail(self) -> None:
        for i in range(len(self.tail) - 1, -1, -1):
            self._advance_tail_wrapper(self.tail[i])
        self.tail.clear()
        self.tail_max_score = 0

    def _insert_tail_with_overflow(self, s: DisiWrapper) -> DisiWrapper | None:
        """WANDScorer.insertTailWithOverFlow:600-620."""
        if (self.tail_max_score + s.scaled_max_score < self.min_competitive_score
                or len(self.tail) + 1 < self.min_should_match):
            self._add_tail(s)
            self.tail_max_score += s.scaled_max_score
            return None
        elif len(self.tail) == 0:
            return s
        else:
            top = self.tail[0]
            if not _greater_max_score(top, s):
                return s
            self.tail[0] = s
            self._down_heap_max_score()
            self.tail_max_score = self.tail_max_score - top.scaled_max_score + s.scaled_max_score
            return top

    def _add_tail(self, s: DisiWrapper) -> None:
        self.tail.append(s)
        self._up_heap_max_score(len(self.tail) - 1)

    def _pop_tail(self) -> DisiWrapper:
        t = self.tail
        result = t[0]
        last = t.pop()
        if t:
            t[0] = last
            self._down_heap_max_score()
        self.tail_max_score -= result.scaled_max_score
        return result

    def _up_heap_max_score(self, i: int) -> None:
        h = self.tail
        node = h[i]
        j = (i - 1) >> 1
        while j >= 0 and _greater_max_score(node, h[j]):
            h[i] = h[j]
            i = j
            j = (j - 1) >> 1
        h[i] = node

    def _down_heap_max_score(self) -> None:
        h = self.tail
        size = len(h)
        i = 0
        node = h[0]
        j = 1
        if j < size:
            k = 2
            if k < size and _greater_max_score(h[k], h[j]):
                j = k
            if _greater_max_score(h[j], node):
                while True:
                    h[i] = h[j]
                    i = j
                    j = 2 * i + 1
                    k = j + 1
                    if k < size and _greater_max_score(h[k], h[j]):
                        j = k
                    if not (j < size and _greater_max_score(h[j], node)):
                        break
                h[i] = node


# --- conjunction / req-opt / exclusion (BooleanWeight semantics) ---------

class ConjunctionScorer(Scorer):
    """MUST/FILTER intersection; score = sum of scoring clauses' scores.

    Two-phase aware: drives on approximations, then verifies ``matches()``
    on every clause (ConjunctionDISI semantics).

    BLOCK-MAX pruning (reference search/BlockMaxConjunctionScorer.java:
    60-118): once a minCompetitiveScore is set, an agreed candidate is
    scored only if the SUM of the scoring clauses' block-level max scores
    (MaxScoreCache via advance_shallow) can reach it; otherwise the whole
    block window [doc, up_to] is skipped without scoring.  Clauses that
    expose no block structure fall back to their whole-tail bound.
    """

    def __init__(self, required: list[Scorer], scoring: list[Scorer]):
        self.required = sorted(required, key=lambda s: s.cost())
        self.scoring = scoring
        self.doc = -1
        self.min_competitive = F32(0)

    def cost(self) -> int:
        return self.required[0].cost()

    def _block_bound(self, doc: int) -> tuple[float, int]:
        """(float64 upper bound for [doc, up_to], up_to)."""
        up_to = NO_MORE_DOCS
        for s in self.scoring:
            shallow = getattr(s, "advance_shallow", None)
            if shallow is not None:
                up_to = min(up_to, shallow(doc))
        bound = sum(float(s.get_max_score(up_to)) for s in self.scoring)
        return sum_upper_bound(bound, max(len(self.scoring), 1)), up_to

    def advance(self, target: int) -> int:
        doc = self.required[0].approx_advance(target)
        while doc != NO_MORE_DOCS:
            # align all approximations
            agreed = True
            for s in self.required[1:]:
                d = s.doc
                if d < doc:
                    d = s.approx_advance(doc)
                if d > doc:
                    doc = self.required[0].approx_advance(d)
                    agreed = False
                    break
            if agreed:
                if self.min_competitive > 0 and self.scoring:
                    bound, up_to = self._block_bound(doc)
                    if F32(bound) < self.min_competitive:
                        # nothing in [doc, up_to] can compete: skip the block
                        doc = self.required[0].approx_advance(up_to + 1)
                        continue
                if all(s.matches() for s in self.required):
                    self.doc = doc
                    return doc
                doc = self.required[0].approx_advance(doc + 1)
        self.doc = NO_MORE_DOCS
        return self.doc

    def score(self) -> np.float32:
        return F32(sum(float(s.score()) for s in self.scoring))

    def set_min_competitive_score(self, min_score: np.float32) -> None:
        self.min_competitive = F32(min_score)
        # propagate only when a single scoring clause exists (safe)
        if len(self.scoring) == 1:
            self.scoring[0].set_min_competitive_score(min_score)

    def get_max_score(self, up_to: int) -> np.float32:
        total = sum(float(s.get_max_score(up_to)) for s in self.scoring)
        return F32(sum_upper_bound(total, max(len(self.scoring), 1)))


class ReqExclScorer(Scorer):
    """required AND NOT excluded (ReqExclScorer.java semantics)."""

    def __init__(self, required: Scorer, excluded: Scorer):
        self.required = required
        self.excluded = excluded
        self.doc = -1

    def cost(self) -> int:
        return self.required.cost()

    def advance(self, target: int) -> int:
        doc = self.required.approx_advance(target)
        while doc != NO_MORE_DOCS:
            ex = self.excluded.doc
            if ex < doc:
                ex = self.excluded.approx_advance(doc)
            if ex != doc or not self.excluded.matches():
                if self.required.matches():
                    self.doc = doc
                    return doc
            doc = self.required.approx_advance(doc + 1)
        self.doc = NO_MORE_DOCS
        return self.doc

    def score(self) -> np.float32:
        return self.required.score()

    def set_min_competitive_score(self, min_score: np.float32) -> None:
        self.required.set_min_competitive_score(min_score)

    def get_max_score(self, up_to: int) -> np.float32:
        return self.required.get_max_score(up_to)


class ReqOptSumScorer(Scorer):
    """required + optional score sum when optional matches
    (ReqOptSumScorer.java semantics, no pruning on the optional side)."""

    def __init__(self, required: Scorer, optional: Scorer):
        self.required = required
        self.optional = optional
        self.doc = -1

    def cost(self) -> int:
        return self.required.cost()

    def advance(self, target: int) -> int:
        doc = self.required.advance(target)
        self.doc = doc
        return doc

    def score(self) -> np.float32:
        s = float(self.required.score())
        opt = self.optional.doc
        if opt < self.doc:
            opt = self.optional.approx_advance(self.doc)
        if opt == self.doc and self.optional.matches():
            s += float(self.optional.score())
        return F32(s)

    def get_max_score(self, up_to: int) -> np.float32:
        return F32(float(self.required.get_max_score(up_to))
                   + float(self.optional.get_max_score(up_to)))


class MatchAllScorer(Scorer):
    def __init__(self, max_doc: int, score: float = 1.0):
        self.max_doc = max_doc
        self._score = F32(score)
        self.doc = -1

    def cost(self) -> int:
        return self.max_doc

    def advance(self, target: int) -> int:
        self.doc = target if target < self.max_doc else NO_MORE_DOCS
        return self.doc

    def score(self) -> np.float32:
        return self._score

    def get_max_score(self, up_to: int) -> np.float32:
        return self._score


class PrecomputedScorer(Scorer):
    """Scorer over a precomputed sorted (docids, scores) pair: how
    ``query.build_scorer`` hands out a dense query type's match set
    (``query.dense_matches`` — multi-term, phrase, span, doc-values,
    point, feature, kNN, ...), whether the query is a Boolean clause, a
    top-level COMPLETE search, a count or a delete.  ``get_max_score``
    returns the global max of the remaining tail (a valid upper bound for
    WAND)."""

    def __init__(self, docids, scores):
        import numpy as np

        self.docids = np.asarray(docids, dtype=np.int64)
        self.scores = np.asarray(scores, dtype=np.float32)
        self._i = -1
        self.doc = -1
        # suffix max for tail upper bounds
        if len(self.scores):
            self._suffix_max = np.maximum.accumulate(self.scores[::-1])[::-1]
        else:
            self._suffix_max = self.scores

    def cost(self) -> int:
        return len(self.docids)

    def next_doc(self) -> int:
        self._i += 1
        self.doc = int(self.docids[self._i]) if self._i < len(self.docids) else NO_MORE_DOCS
        return self.doc

    def advance(self, target: int) -> int:
        import numpy as np

        i = int(np.searchsorted(self.docids, target, side="left"))
        self._i = i
        self.doc = int(self.docids[i]) if i < len(self.docids) else NO_MORE_DOCS
        return self.doc

    def score(self):
        import numpy as np

        return np.float32(self.scores[self._i])

    def get_max_score(self, up_to):
        import numpy as np

        if self._i < 0:
            return np.float32(self._suffix_max[0]) if len(self._suffix_max) else np.float32(0)
        if self._i >= len(self._suffix_max):
            return np.float32(0)
        return np.float32(self._suffix_max[self._i])


class DocValuesVerifyScorer(Scorer):
    """Random-access doc-values verification — the dv side of
    IndexOrDocValuesQuery (reference search/IndexOrDocValuesQuery.java:
    the dv scorer iterates ALL docs and verifies per doc, so it must
    never lead a conjunction; cost() = max_doc makes ConjunctionScorer
    sort it last and drive on the selective clause).

    The approximation is the full [0, max_doc) range; ``matches()``
    consults a predicate mask built LAZILY on first verification.
    Deviation (documented): the mask is one vectorized column compare
    (cost ∝ max_doc SIMD) rather than per-doc fetches — the saving vs
    the index side is skipping the match-set materialization + sort, not
    the column read, which is already resident (numpy idiom)."""

    def __init__(self, max_doc: int, predicate, boost: float = 1.0):
        import numpy as np

        self.max_doc = int(max_doc)
        self._predicate = predicate  # () -> bool ndarray of len max_doc
        self._mask = None
        self.doc = -1
        self._boost = np.float32(boost)

    def cost(self) -> int:
        return self.max_doc

    def approx_advance(self, target: int) -> int:
        self.doc = target if target < self.max_doc else NO_MORE_DOCS
        return self.doc

    def matches(self) -> bool:
        if self._mask is None:
            self._mask = self._predicate()
        return bool(self._mask[self.doc])

    def advance(self, target: int) -> int:
        import numpy as np

        doc = self.approx_advance(target)
        if doc == NO_MORE_DOCS:
            return doc
        if self._mask is None:
            self._mask = self._predicate()
        nxt = np.nonzero(self._mask[doc:])[0]
        if len(nxt) == 0:
            self.doc = NO_MORE_DOCS
        else:
            self.doc = doc + int(nxt[0])
        return self.doc

    def score(self):
        return self._boost

    def get_max_score(self, up_to):
        return self._boost


def live_docids(scorer, live) -> np.ndarray:
    """Ascending local docids of a scorer tree's matches (None: none) that
    ``live`` keeps (None: all) — the one answer to "which docs match": a
    ``PrecomputedScorer`` already holds its dense match set, any other
    tree takes one non-scoring walk."""
    if scorer is None:
        return np.empty(0, dtype=np.int64)
    if isinstance(scorer, PrecomputedScorer):
        docs = scorer.docids
    else:
        out = []
        doc = scorer.advance(0)
        while doc != NO_MORE_DOCS:
            out.append(doc)
            doc = scorer.next_doc()
        docs = np.asarray(out, dtype=np.int64)
    if live is not None and len(docs):
        docs = docs[live[docs]]
    return docs
