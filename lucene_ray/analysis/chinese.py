"""Chinese word segmentation (smartcn-style) on the shared lattice.

Reference: lucene/analysis/smartcn/src/java/org/apache/lucene/analysis/
cn/smart/ — ``HMMChineseTokenizer`` segments Han text with a hidden
Markov model over a bundled bigram dictionary (``WordDictionary`` +
``BiSegGraph``: word arcs over the sentence, best path by frequency-
derived costs).  A Viterbi lattice with per-word costs + a class
connection matrix is the same computation with the bigram table
collapsed to class level, so the shared ``analysis/lattice.py`` engine
(also powering the kuromoji- and nori-style tokenizers) serves here with
a Chinese pack.

As with the other packs, the DICTIONARY is a small original embedded
lexicon (pronouns, particles, common verbs/adjectives/adverbs, nouns)
— the reference's bundled coredict/bigramdict binaries are not
shippable.  Unknown Han characters emit single + pair arcs (the lattice
composes longer spans); latin/digit runs group.  Deviation (documented):
no sentence-level HMM probabilities — class-level connection costs stand
in for the bigram table.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .analyzers import DocTokensAnalyzer

# --- character classes ------------------------------------------------------

HAN, LATIN, DIGIT, SYMBOL, SPACE = range(5)


def char_class(c: str) -> int:
    o = ord(c)
    if 0x4E00 <= o <= 0x9FFF or 0x3400 <= o <= 0x4DBF:
        return HAN
    if c.isalpha():
        return LATIN
    if c.isdigit():
        return DIGIT
    if c.isspace():
        return SPACE
    return SYMBOL


# --- connection model -------------------------------------------------------
BOS = 0
NOUN, PROPN, PRON, VERB, PART, ADJ, ADV, NUM, SYM, UNK, MEAS = range(1, 12)
_N_CTX = 12

_DEFAULT_CONN = 1500
_CONN_OVERRIDES = {
    (BOS, NOUN): 0, (BOS, PROPN): 0, (BOS, PRON): 0, (BOS, VERB): 500,
    (BOS, ADJ): 400, (BOS, ADV): 300, (BOS, NUM): 200, (BOS, SYM): 0,
    (BOS, PART): 2500,
    (PRON, VERB): 0, (PRON, PART): 300, (PRON, NOUN): 600,
    (VERB, NOUN): 100, (VERB, PROPN): 100, (VERB, PRON): 200,
    (VERB, VERB): 600, (VERB, PART): 200, (VERB, ADJ): 500, (VERB, NUM): 200,
    (NOUN, PART): 100, (PROPN, PART): 100, (NOUN, VERB): 300,
    (PROPN, VERB): 300, (NOUN, NOUN): 800, (PROPN, NOUN): 600,
    (NOUN, ADV): 500, (PROPN, ADV): 500,
    (PART, NOUN): 0, (PART, PROPN): 0, (PART, VERB): 300, (PART, ADJ): 300,
    (PART, PRON): 300, (PART, PART): 2500, (PART, ADV): 400,
    (ADV, ADJ): 0, (ADV, VERB): 100, (ADJ, NOUN): 200, (ADJ, PART): 400,
    (NUM, MEAS): 0, (MEAS, NOUN): 0, (MEAS, ADJ): 300,
    (PRON, ADV): 500, (ADV, ADV): 600, (NOUN, ADJ): 700,
}
CONN = np.full((_N_CTX, _N_CTX), _DEFAULT_CONN, np.int32)
for (r, l), v in _CONN_OVERRIDES.items():
    CONN[r, l] = v
CONN[:, SYM] = 0
CONN[SYM, :] = 0
CONN[SYM, PART] = 1000
CONN[:, UNK] = np.minimum(CONN[:, UNK], 900)
CONN[UNK, :] = np.minimum(CONN[UNK, :], 900)

# --- embedded lexicon -------------------------------------------------------
_LEXICON: list[tuple] = [
    # pronouns
    ("我", PRON, 1500), ("你", PRON, 1500), ("他", PRON, 1500),
    ("她", PRON, 1500), ("我们", PRON, 1800), ("你们", PRON, 1900),
    ("他们", PRON, 1800), ("这", PRON, 1700), ("那", PRON, 1700),
    # particles / function words
    ("的", PART, 500), ("了", PART, 600), ("吗", PART, 700), ("呢", PART, 700),
    ("在", PART, 900), ("和", PART, 800), ("们", PART, 900), ("把", PART, 900),
    # verbs
    ("是", VERB, 1200), ("有", VERB, 1400), ("去", VERB, 1800),
    ("来", VERB, 1800), ("看", VERB, 1900), ("吃", VERB, 1900),
    ("学习", VERB, 2600), ("喜欢", VERB, 2600), ("改变", VERB, 2800),
    ("吃饭", VERB, 2700), ("工作", VERB, 2700), ("知道", VERB, 2600),
    # adjectives / adverbs / numbers / measure words
    ("好", ADJ, 1800), ("多", ADJ, 1900), ("大", ADJ, 1900), ("小", ADJ, 1900),
    ("有趣", ADJ, 2700), ("很", ADV, 1200), ("一起", ADV, 2500),
    ("一", NUM, 1500), ("二", NUM, 1600), ("三", NUM, 1600),
    ("本", MEAS, 1400), ("个", MEAS, 1200),
    # nouns
    ("人", NOUN, 1800), ("书", NOUN, 1900), ("学生", NOUN, 2500),
    ("大学", NOUN, 2500), ("中文", NOUN, 2600), ("汉语", NOUN, 2600),
    ("今天", NOUN, 2400), ("明天", NOUN, 2400), ("天气", NOUN, 2500),
    ("时间", NOUN, 2500), ("朋友", NOUN, 2500), ("图书馆", NOUN, 2900),
    ("计算机", NOUN, 2900), ("科学", NOUN, 2500), ("人工", NOUN, 2700),
    ("智能", NOUN, 2600), ("世界", NOUN, 2500),
    # proper nouns
    ("中国", PROPN, 2400), ("北京", PROPN, 2500), ("上海", PROPN, 2500),
]

_UNK_COST = {HAN: 3200, LATIN: 4000, DIGIT: 3500, SYMBOL: 500}
_UNK_CTX = {HAN: UNK, LATIN: UNK, DIGIT: NUM, SYMBOL: SYM}


def _make_pack():
    from .lattice import LanguagePack

    return LanguagePack(
        lexicon=_LEXICON,
        conn=CONN,
        char_class=char_class,
        space_class=SPACE,
        symbol_class=SYMBOL,
        unk_cost=_UNK_COST,
        unk_ctx=_UNK_CTX,
        unk_group=frozenset((LATIN, DIGIT)),
        unk_pair_class=HAN,
    )


_TOKENIZER = None


def _tokenizer(user_dict=None):
    from .lattice import LatticeTokenizer, with_user_entries

    global _TOKENIZER
    if user_dict:
        # UserDictionary entries (nori dict/UserDictionary.java shape:
        # surfaces or (surface, parts) compounds; a user entry wins its span)
        return LatticeTokenizer(with_user_entries(_make_pack(), user_dict))
    if _TOKENIZER is None:
        _TOKENIZER = LatticeTokenizer(_make_pack())
    return _TOKENIZER


def tokenize(text: str, discard_punctuation: bool = True, user_dict=None):
    """[(surface, start, end)] — codepoint offsets, punctuation dropped
    (smartcn's tokenizer emits words and drops sentence punctuation)."""
    return _tokenizer(user_dict).tokenize(text, "normal", discard_punctuation)


class SmartChineseAnalyzer(DocTokensAnalyzer):
    """smartcn-shaped analyzer: lattice word segmentation + punctuation
    discard + latin lowercase (analysis/cn/smart/SmartChineseAnalyzer.java
    without its stopword list — see module docstring)."""

    def __init__(self, user_dict=None, **_kw):
        self._tok = _tokenizer(tuple(user_dict) if user_dict else None)

    def _doc_tokens(self, text: str) -> list[tuple[str, int, int, int]]:
        out = []
        for pos, (surf, s, e) in enumerate(
            self._tok.tokenize(text or "", "normal", True)
        ):
            out.append((surf.lower(), pos, s, e))
        return out

    def tokens(self, text: str) -> list[str]:
        return [t[0] for t in self._doc_tokens(text)]

    def normalize(self, term: str) -> str:
        return term.lower()

    def analyze(self, text: str):
        toks = self.tokens(text)
        if not toks:
            return [], [], 0
        counts = Counter(toks)
        return list(counts.keys()), list(counts.values()), len(toks)
