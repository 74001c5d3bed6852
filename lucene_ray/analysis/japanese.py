"""Japanese morphological tokenizer: Viterbi lattice segmentation.

Reference: lucene/analysis/kuromoji/src/java/org/apache/lucene/analysis/ja/
``JapaneseTokenizer.java`` — a MeCab-style lattice tokenizer: dictionary
entries spanning the text form lattice arcs, each arc carries a word cost
and (left, right) connection ids, and the Viterbi best path minimizes
``sum(word_cost) + sum(connection_cost(right_prev, left_next))``.  SEARCH
mode adds a length penalty to long arcs so compounds decompose into their
parts (``calcSearchPenalty``: (len - 2) * 3100 for all-kanji arcs longer
than 2, (len - 7) * 1700 for others longer than 7 — the reference's
public constants).  Unknown words are grouped by character class
(katakana / latin / digit runs; kanji singles and pairs), mirroring
``UnknownDictionary`` + ``characterDefinition`` semantics.

The DICTIONARY here is NOT the reference's (the multi-megabyte
IPADIC/UniDic binaries are neither shippable nor public-domain): it is a
small embedded lexicon — common particles, auxiliaries, verbs and the
nouns used by the driver corpus — with hand-assigned costs over a
13-class connection model.  The MACHINERY (lattice, Viterbi, connection
matrix, search-mode decompounding, unknown grouping) is the reference
architecture; the data is original and deliberately tiny.  Out-of-lexicon
text still tokenizes via the unknown-word classes.

``JapaneseAnalyzer`` follows the reference analyzer's shape
(analysis/ja/JapaneseAnalyzer.java): tokenizer in SEARCH mode,
punctuation discarded (discardPunctuation=true), latin lowercased.
Deviations (documented): no BaseFormFilter / POS-stop / CJKWidth /
KatakanaStemmer — the surface forms are what the driver oracle pins.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .analyzers import DocTokensAnalyzer

# --- character classes ------------------------------------------------------

KANJI, HIRAGANA, KATAKANA, LATIN, DIGIT, SYMBOL, SPACE = range(7)


def char_class(c: str) -> int:
    o = ord(c)
    if 0x4E00 <= o <= 0x9FFF or 0x3400 <= o <= 0x4DBF or c in "々〆ヶ":
        return KANJI
    if 0x3041 <= o <= 0x309F:
        return HIRAGANA
    if 0x30A0 <= o <= 0x30FF or o == 0x30FC or 0xFF66 <= o <= 0xFF9D:
        return KATAKANA
    if c.isalpha():
        return LATIN
    if c.isdigit():
        return DIGIT
    if c.isspace():
        return SPACE
    return SYMBOL


# --- connection model -------------------------------------------------------
# context classes (both left and right ids use the same 13-class space)
BOS = 0
NOUN, PROPN, PART, VERB, AUX, SUF, ADJ, NUM, SYM, UNK, PREF, ADV = range(1, 13)
_N_CTX = 13

_DEFAULT_CONN = 1500
_CONN_OVERRIDES = {
    (BOS, NOUN): 0, (BOS, PROPN): 0, (BOS, VERB): 600, (BOS, ADJ): 400,
    (BOS, ADV): 300, (BOS, PREF): 200, (BOS, NUM): 200, (BOS, SYM): 0,
    (BOS, PART): 3000, (BOS, AUX): 3000,
    (NOUN, PART): 0, (PROPN, PART): 0, (NUM, PART): 100, (ADJ, PART): 400,
    (NOUN, NOUN): 800, (PROPN, NOUN): 800, (NOUN, PROPN): 900,
    (PROPN, PROPN): 900, (NUM, NOUN): 200, (NOUN, SUF): 0, (PROPN, SUF): 0,
    (NUM, SUF): 0,
    (PART, NOUN): 0, (PART, PROPN): 0, (PART, VERB): 100, (PART, ADJ): 200,
    (PART, NUM): 200, (PART, PREF): 200, (PART, ADV): 200, (PART, PART): 3000,
    (VERB, AUX): 0, (ADJ, AUX): 200, (AUX, AUX): 0, (NOUN, AUX): 600,
    (PROPN, AUX): 600, (VERB, PART): 400, (AUX, PART): 400,
    (PREF, NOUN): 0, (PREF, PROPN): 0, (ADV, VERB): 200, (ADV, ADJ): 200,
    (NOUN, VERB): 700, (PROPN, VERB): 700, (VERB, NOUN): 800,
    (AUX, NOUN): 900, (VERB, VERB): 700,
}
CONN = np.full((_N_CTX, _N_CTX), _DEFAULT_CONN, np.int32)
for (r, l), v in _CONN_OVERRIDES.items():
    CONN[r, l] = v
# punctuation attaches freely on either side
CONN[:, SYM] = 0
CONN[SYM, :] = 0
CONN[SYM, PART] = 1000  # a particle should not START after punctuation
CONN[SYM, AUX] = 1000
# unknown runs connect at a flat moderate cost
CONN[:, UNK] = np.minimum(CONN[:, UNK], 900)
CONN[UNK, :] = np.minimum(CONN[UNK, :], 900)

# --- embedded lexicon -------------------------------------------------------
# (surface, context_class, word_cost); left id == right id == class here
# (the reference's dictionaries distinguish them; one id per class is
# enough for this lexicon's grammar)
_LEXICON: list[tuple[str, int, int]] = [
    # particles
    ("は", PART, 400), ("が", PART, 400), ("を", PART, 400), ("に", PART, 450),
    ("で", PART, 500), ("と", PART, 500), ("も", PART, 500), ("の", PART, 400),
    ("へ", PART, 500), ("から", PART, 600), ("まで", PART, 600),
    ("より", PART, 700), ("や", PART, 600), ("か", PART, 700), ("ね", PART, 800),
    ("よ", PART, 800),
    # auxiliaries / verb suffixes
    ("た", AUX, 400), ("たい", AUX, 600), ("です", AUX, 500), ("ます", AUX, 500),
    ("まし", AUX, 600), ("ない", AUX, 600),
    ("だ", AUX, 600), ("だっ", AUX, 700), ("て", AUX, 500), ("れる", AUX, 700),
    ("られ", AUX, 700),
    # verbs (stems / dictionary forms)
    ("行き", VERB, 3000), ("行く", VERB, 3000), ("行っ", VERB, 3000),
    ("食べ", VERB, 3000), ("食べる", VERB, 3200), ("飲み", VERB, 3000),
    ("飲む", VERB, 3000), ("見", VERB, 3200), ("見る", VERB, 3200),
    ("読む", VERB, 3000), ("読み", VERB, 3000), ("する", VERB, 2800),
    ("し", VERB, 2900), ("来る", VERB, 3000), ("来", VERB, 3300),
    ("買い", VERB, 3000), ("買う", VERB, 3000), ("書く", VERB, 3000),
    ("書き", VERB, 3000), ("話す", VERB, 3000), ("使う", VERB, 3000),
    # adjectives / adverbs / prefixes
    ("おいしい", ADJ, 3200), ("高い", ADJ, 3200), ("新しい", ADJ, 3400),
    ("とても", ADV, 3000), ("お", PREF, 1500), ("ご", PREF, 1600),
    # nouns
    ("寿司", NOUN, 3000), ("空港", NOUN, 3000), ("国際", NOUN, 3000),
    ("大学", NOUN, 3000), ("学生", NOUN, 3000), ("図書館", NOUN, 3400),
    ("本", NOUN, 3100), ("水", NOUN, 3100), ("電車", NOUN, 3000),
    ("会議", NOUN, 3000), ("明日", NOUN, 3000), ("今日", NOUN, 3000),
    ("勉強", NOUN, 3000), ("注文", NOUN, 3000), ("うち", NOUN, 3200),
    ("すもも", NOUN, 3400), ("もも", NOUN, 3200), ("こと", NOUN, 3000),
    ("もの", NOUN, 3100), ("ところ", NOUN, 3200), ("タワー", NOUN, 3300),
    ("駅", NOUN, 3100), ("時間", NOUN, 3000), ("仕事", NOUN, 3000),
    # proper nouns
    ("関西", PROPN, 3300), ("東京", PROPN, 3200), ("日本", PROPN, 3100),
    ("大阪", PROPN, 3300), ("京都", PROPN, 3300),
    # compounds (SEARCH mode decompounds these via the kanji penalty)
    ("関西国際空港", PROPN, 7000), ("日本語", NOUN, 3400),
]

_DICT: dict[str, list[tuple[str, int, int]]] = {}
_MAX_SURFACE = 1
for surf, ctx, cost in _LEXICON:
    _DICT.setdefault(surf[0], []).append((surf, ctx, cost))
    _MAX_SURFACE = max(_MAX_SURFACE, len(surf))

# search-mode penalty constants (JapaneseTokenizer.java)
SEARCH_MODE_KANJI_LENGTH = 2
SEARCH_MODE_OTHER_LENGTH = 7
SEARCH_MODE_KANJI_PENALTY = 3100
SEARCH_MODE_OTHER_PENALTY = 1700

# unknown-word costs per class
_UNK_COST = {
    KATAKANA: 4500,
    LATIN: 4000,
    DIGIT: 3500,
    HIRAGANA: 6500,
    KANJI: 6000,
    SYMBOL: 500,
}
_UNK_CTX = {
    KATAKANA: UNK,
    LATIN: UNK,
    DIGIT: NUM,
    HIRAGANA: UNK,
    KANJI: UNK,
    SYMBOL: SYM,
}


def _search_penalty(surface: str, mode: str) -> int:
    if mode != "search":
        return 0
    n = len(surface)
    if all(char_class(c) == KANJI for c in surface):
        if n > SEARCH_MODE_KANJI_LENGTH:
            return (n - SEARCH_MODE_KANJI_LENGTH) * SEARCH_MODE_KANJI_PENALTY
    elif n > SEARCH_MODE_OTHER_LENGTH:
        return (n - SEARCH_MODE_OTHER_LENGTH) * SEARCH_MODE_OTHER_PENALTY
    return 0


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
        unk_group=frozenset((KATAKANA, LATIN, DIGIT)),
        unk_pair_class=KANJI,
        penalty=_search_penalty,
    )


_TOKENIZER = None


def _tokenizer(user_dict=None):
    from .lattice import LatticeTokenizer, with_user_entries

    global _TOKENIZER
    if user_dict:
        # per-analyzer tokenizer with UserDictionary entries (kuromoji
        # dict/UserDictionary.java: a user entry always wins its span)
        return LatticeTokenizer(with_user_entries(_make_pack(), user_dict))
    if _TOKENIZER is None:
        _TOKENIZER = LatticeTokenizer(_make_pack())
    return _TOKENIZER


def tokenize(
    text: str,
    mode: str = "search",
    discard_punctuation: bool = True,
    user_dict=None,
):
    """[(surface, start, end)] over the full text (offsets in codepoints);
    whitespace splits the lattice into independent chunks."""
    return _tokenizer(user_dict).tokenize(text, mode, discard_punctuation)


class JapaneseAnalyzer(DocTokensAnalyzer):
    """SEARCH-mode lattice tokenizer + punctuation discard + latin
    lowercase (analysis/ja/JapaneseAnalyzer.java shape; see module
    docstring for deviations).  Interface-compatible with the analyzers
    registry (same contract as StandardAnalyzer)."""

    def __init__(self, mode: str = "search", user_dict=None, **_kw):
        self.mode = mode
        self._tok = _tokenizer(tuple(user_dict) if user_dict else None)

    def _doc_tokens(self, text: str) -> list[tuple[str, int, int, int]]:
        out = []
        # decompound=True: inert for the built-in lexicon (no parts
        # entries) but lets user-dictionary entries carry a custom
        # segmentation, like kuromoji's UserDictionary
        for pos, (surf, s, e) in enumerate(
            self._tok.tokenize(text or "", self.mode, decompound=True)
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
