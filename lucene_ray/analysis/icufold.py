"""ICUFoldingFilter-equivalent Unicode folding.

Reference: lucene/analysis/icu/src/java/org/apache/lucene/analysis/icu/
``ICUFoldingFilter.java`` — applies the custom "utr30" Normalizer2
(generated from published Unicode folding data): case folding + NFKC
compatibility normalization + accent/diacritic removal + default-
ignorable removal + native-digit, dash, width, space and letterform
foldings, output composed.

Engine shape: the fold is expressed with ``unicodedata`` primitives —
full casefold, NFKC, NFKD, then a single categorized pass (strip Mn
combining marks and Cf format/default-ignorable characters, fold Nd
native digits to ASCII via their numeric value, fold Pd dashes to '-',
map the stroked/ligature Latin letters NFKD cannot reach), recomposed
NFC.  This covers the full reference test-vector suite
(TestICUFoldingFilter.testDefaults — asserted in tests/test_icufold.py);
the remaining utr30 tables (Han radical, Hebrew alternates, vertical/
small/positional presentation forms beyond what NFKC reaches) are a
documented deviation of this subset.
"""

from __future__ import annotations

import unicodedata as ud
from collections import Counter

from .analyzers import DocTokensAnalyzer

# stroked / ligature Latin letters with no canonical or compatibility
# decomposition (the reference reaches these through its diacritic- and
# letterform-folding tables; ASCIIFoldingFilter folds them identically)
_SPECIAL = {
    "æ": "ae", "œ": "oe", "đ": "d", "ð": "d", "ø": "o", "ł": "l",
    "ħ": "h", "ŧ": "t", "ĳ": "ij", "ƀ": "b", "ǥ": "g", "ɨ": "i",
    "ɉ": "j", "ø": "o", "ƚ": "l", "ꝉ": "l", "ơ": "o", "ư": "u",
    "ɍ": "r", "ŉ": "'n", "ẜ": "s", "ẝ": "s", "ꝥ": "th",
}


def icu_fold(s: str) -> str:
    """Folded form of one term (empty input folds to empty)."""
    s = s.casefold()
    s = ud.normalize("NFKC", s)
    s = ud.normalize("NFKD", s)
    out: list[str] = []
    for c in s:
        cat = ud.category(c)
        if cat == "Mn" or cat == "Cf":
            continue  # accents/viramas; ZWJ/ZWNJ/soft hyphen/bidi marks
        if cat == "Nd":
            out.append(str(ud.digit(c)))  # native digits -> ASCII
            continue
        if cat == "Pd":
            out.append("-")  # dash folding
            continue
        out.append(_SPECIAL.get(c, c))
    return ud.normalize("NFC", "".join(out))


class ICUFoldingAnalyzer(DocTokensAnalyzer):
    """StandardTokenizer -> ICU fold (the reference's usual composition:
    ICUFoldingFilter subsumes lowercase + ASCII-fold + width folding).
    Registry-compatible (same contract as StandardAnalyzer)."""

    def __init__(self, **_kw):
        from . import scanner

        self.tables = scanner.tables()
        self.max_token_length = 255

    def _doc_tokens(self, text: str) -> list[tuple[str, int, int, int]]:
        import numpy as np

        from . import scanner

        if not text:
            return []
        cps = np.frombuffer(text.encode("utf-32-le"), dtype="<u4")
        spans = scanner.scan_spans(cps, self.max_token_length)
        out = []
        pos = 0
        for s, e, _typ in spans:
            tok = icu_fold(text[s:e])
            if tok:
                out.append((tok, pos, s, e))
            pos += 1
        return out

    def tokens(self, text: str) -> list[str]:
        return [t[0] for t in self._doc_tokens(text)]

    def normalize(self, term: str) -> str:
        return icu_fold(term)

    def analyze(self, text: str):
        toks = self.tokens(text)
        if not toks:
            return [], [], 0
        counts = Counter(toks)
        return list(counts.keys()), list(counts.values()), len(toks)
