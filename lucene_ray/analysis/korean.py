"""Korean morphological tokenizer (nori-style) on the shared lattice.

Reference: lucene/analysis/nori/src/java/org/apache/lucene/analysis/ko/
``KoreanTokenizer.java`` — the same MeCab lattice as kuromoji over
mecab-ko-dic, plus DECOMPOUND handling: dictionary compounds carry their
morpheme parts (``Dictionary.Morpheme``) and the default analyzer mode
(``KoreanAnalyzer`` -> DecompoundMode.DISCARD) emits the parts instead
of the compound surface.

As with the Japanese pack, the DICTIONARY is a small original embedded
lexicon (particles/josa, common verbs and adjectives in their sentence
forms, nouns, two compounds with decompound parts) over an 11-class
connection model; mecab-ko-dic itself is not shippable.  Unknown Hangul
runs get arcs of EVERY length 1..8 (base + 1000/char) so a known josa
can split off an unknown stem — the pack-level analogue of mecab-ko's
unknown invocation.  Deviations (documented): segmentation stays at
syllable boundaries — the reference emits sub-syllable jamo morphemes
for contracted verb endings (e.g. 합니다 -> 하 + ㅂ니다); here inflected
forms are single lexicon entries.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .analyzers import DocTokensAnalyzer

# --- character classes ------------------------------------------------------

HANGUL, LATIN, DIGIT, SYMBOL, SPACE = range(5)


def char_class(c: str) -> int:
    o = ord(c)
    if 0xAC00 <= o <= 0xD7A3 or 0x1100 <= o <= 0x11FF or 0x3130 <= o <= 0x318F:
        return HANGUL
    if c.isalpha():
        return LATIN
    if c.isdigit():
        return DIGIT
    if c.isspace():
        return SPACE
    return SYMBOL


# --- connection model -------------------------------------------------------
BOS = 0
NOUN, PROPN, JOSA, VERB, ADJ, NUM, SYM, UNK, ADV, SUF = range(1, 11)
_N_CTX = 11

_DEFAULT_CONN = 1500
_CONN_OVERRIDES = {
    (BOS, NOUN): 0, (BOS, PROPN): 0, (BOS, VERB): 600, (BOS, ADJ): 300,
    (BOS, ADV): 300, (BOS, NUM): 200, (BOS, SYM): 0,
    (BOS, JOSA): 3000,
    (NOUN, JOSA): 0, (PROPN, JOSA): 0, (NUM, JOSA): 100, (SUF, JOSA): 0,
    (NOUN, NOUN): 800, (PROPN, NOUN): 800, (NOUN, PROPN): 900,
    (NUM, NOUN): 200, (NOUN, SUF): 0, (PROPN, SUF): 0,
    (JOSA, NOUN): 0, (JOSA, PROPN): 0, (JOSA, VERB): 100, (JOSA, ADJ): 200,
    (JOSA, NUM): 200, (JOSA, ADV): 200, (JOSA, JOSA): 3000,
    (NOUN, VERB): 200,  # N + 하다-style light verb attaches tightly
    (PROPN, VERB): 300, (ADJ, NOUN): 300, (ADV, VERB): 200, (ADV, ADJ): 200,
    (VERB, JOSA): 600, (NOUN, ADJ): 900, (VERB, NOUN): 900,
}
CONN = np.full((_N_CTX, _N_CTX), _DEFAULT_CONN, np.int32)
for (r, l), v in _CONN_OVERRIDES.items():
    CONN[r, l] = v
CONN[:, SYM] = 0
CONN[SYM, :] = 0
CONN[SYM, JOSA] = 1000
CONN[:, UNK] = np.minimum(CONN[:, UNK], 900)
CONN[UNK, :] = np.minimum(CONN[UNK, :], 900)
CONN[UNK, JOSA] = 0  # an unknown stem still takes its particle

# --- embedded lexicon -------------------------------------------------------
# (surface, ctx, cost[, decompound_parts])
_LEXICON: list[tuple] = [
    # josa (particles)
    ("은", JOSA, 400), ("는", JOSA, 400), ("이", JOSA, 450), ("가", JOSA, 400),
    ("을", JOSA, 400), ("를", JOSA, 400), ("에", JOSA, 450), ("에서", JOSA, 500),
    ("의", JOSA, 450), ("와", JOSA, 500), ("과", JOSA, 500), ("도", JOSA, 500),
    ("로", JOSA, 550), ("으로", JOSA, 550), ("부터", JOSA, 600),
    ("까지", JOSA, 600), ("만", JOSA, 600),
    # verbs / adjectives (sentence forms as single entries; see deviations)
    ("하다", VERB, 2800), ("합니다", VERB, 2900), ("한다", VERB, 2900),
    ("했다", VERB, 2900), ("입니다", VERB, 2600), ("이다", VERB, 2700),
    ("있다", VERB, 2800), ("있습니다", VERB, 2900), ("없다", VERB, 2800),
    ("만나다", VERB, 3000), ("만나요", VERB, 3100), ("읽는다", VERB, 3000),
    ("읽다", VERB, 3000), ("마시다", VERB, 3000), ("먹다", VERB, 3000),
    ("가다", VERB, 3000), ("오다", VERB, 3000), ("보다", VERB, 3000),
    ("맛있다", ADJ, 3200), ("크다", ADJ, 3100), ("큰", ADJ, 3000),
    ("좋다", ADJ, 3100), ("새", ADJ, 3000),
    # nouns
    ("공부", NOUN, 3000), ("학생", NOUN, 3000), ("책", NOUN, 3100),
    ("물", NOUN, 3100), ("음식", NOUN, 3000), ("회사", NOUN, 3000),
    ("회의", NOUN, 3000), ("내일", NOUN, 3000), ("오늘", NOUN, 3000),
    ("친구", NOUN, 3000), ("사람", NOUN, 3000), ("학교", NOUN, 3000),
    ("대학교", NOUN, 3300), ("사용", NOUN, 3100), ("컴퓨터", NOUN, 3200),
    ("인터넷", NOUN, 3200), ("시간", NOUN, 3000), ("말", NOUN, 3200),
    ("어", SUF, 2000), ("들", SUF, 1800), ("역", NOUN, 3100),
    # proper nouns
    ("한국", PROPN, 3100), ("서울", PROPN, 3100), ("부산", PROPN, 3300),
    ("역삼", PROPN, 3400),
    # compounds with decompound parts (Dictionary.Morpheme analogue)
    ("한국어", NOUN, 3300, ("한국", "어")),
    ("삼성전자", PROPN, 6800, ("삼성", "전자")),
    ("삼성", PROPN, 3400), ("전자", NOUN, 3200),
    ("역삼역", PROPN, 6600, ("역삼", "역")),
]

_UNK_COST = {HANGUL: 3500, LATIN: 4000, DIGIT: 3500, SYMBOL: 500}
_UNK_CTX = {HANGUL: UNK, LATIN: UNK, DIGIT: NUM, SYMBOL: SYM}


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
        unk_pair_class=None,
        unk_all=frozenset((HANGUL,)),
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


def tokenize(
    text: str,
    decompound: bool = True,
    discard_punctuation: bool = True,
    user_dict=None,
):
    """[(surface, start, end)]; DISCARD decompound mode by default (the
    KoreanAnalyzer default)."""
    return _tokenizer(user_dict).tokenize(
        text, "normal", discard_punctuation, decompound=decompound
    )


class KoreanAnalyzer(DocTokensAnalyzer):
    """Nori-shaped analyzer: lattice tokenizer, DISCARD decompound,
    punctuation discard, latin lowercase (analysis/ko/KoreanAnalyzer.java;
    no POS-stop filter or reading-form filter — see module docstring)."""

    def __init__(self, decompound: bool = True, user_dict=None, **_kw):
        self.decompound = decompound
        self._tok = _tokenizer(tuple(user_dict) if user_dict else None)

    def _doc_tokens(self, text: str) -> list[tuple[str, int, int, int]]:
        out = []
        for pos, (surf, s, e) in enumerate(
            self._tok.tokenize(
                text or "", "normal", True, decompound=self.decompound
            )
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
