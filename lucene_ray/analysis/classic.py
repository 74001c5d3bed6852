"""ClassicTokenizer / ClassicAnalyzer and UAX29URLEmailAnalyzer.

ClassicTokenizer (reference analysis/common/src/java/org/apache/lucene/
analysis/classic/ClassicTokenizerImpl.jflex:70-127) is the pre-3.1
StandardTokenizer: a maximal-munch scanner with rules ALPHANUM,
APOSTROPHE (O'Reilly), ACRONYM (U.S.A.), COMPANY (AT&T), EMAIL, HOST,
NUM (alternating digit segments) and CJ ideographs.  JFlex semantics are
longest-match with rule-order tiebreak; we reproduce that with a
per-position try-all-rules scan (the reference DFA's observable
behavior, not its table encoding).  ClassicFilter
(classic/ClassicFilter.java:48-70) then strips possessive ``'s`` from
APOSTROPHE tokens and dots from ACRONYM tokens; ClassicAnalyzer wires
ClassicFilter -> LowerCaseFilter -> StopFilter(ENGLISH_STOP_WORDS_SET)
(classic/ClassicAnalyzer.java).

UAX29URLEmailAnalyzer (analysis/common/.../email/UAX29URLEmailAnalyzer
.java:90-95) = UAX29URLEmailTokenizer -> LowerCase -> Stop(english).
The tokenizer is the UAX#29 scanner plus whole-token URL and EMAIL
rules (email/UAX29URLEmailTokenizerImpl.jflex:185-198).  DEVIATION: the
reference's URL grammar is the full RFC-3986/1738 production set
(IPv6 hosts, userinfo, query/fragment, registered TLD validation via
ASCIITLD.jflex); we implement the common scheme://host/path subset and
standard local@domain emails as a pre-pass, then UAX#29-scan the rest.
"""

from __future__ import annotations

import re

import numpy as np

from . import scanner
from .analyzers import DocTokensAnalyzer
from .english import ENGLISH_STOP_WORDS

# CJ ranges per ClassicTokenizerImpl.jflex:116 (Chinese + Japanese kana,
# NOT Korean)
_CJ = (
    "\u3100-\u312f\u3040-\u309F\u30A0-\u30FF\u31F0-\u31FF"
    "\u3300-\u337f\u3400-\u4dbf\u4e00-\u9fff\uf900-\ufaff\uff65-\uff9f"
)
_LETTER = rf"(?:(?![{_CJ}])[^\W\d_])"  # unicode letter minus CJ
_THAI = "\u0E00-\u0E59"
_AN = rf"(?:{_LETTER}|[{_THAI}]|\d)+"  # ALPHANUM
_ALPHA = rf"{_LETTER}+"
_P = r"[_\-/.,]"
_HD = rf"(?:{_LETTER}|\d)*\d(?:{_LETTER}|\d)*"  # HAS_DIGIT

# (type, pattern) in the jflex file's rule order; NUM's six alternatives
# are separate entries so greedy-per-alternative still finds the overall
# longest NUM match (maximal munch picks the max across entries)
_CLASSIC_RULES: list[tuple[str, re.Pattern]] = [
    (t, re.compile(p))
    for t, p in [
        ("ALPHANUM", _AN),
        ("APOSTROPHE", rf"{_ALPHA}(?:'{_ALPHA})+"),
        ("ACRONYM", rf"{_LETTER}\.(?:{_LETTER}\.)+"),
        ("COMPANY", rf"{_ALPHA}[&@]{_ALPHA}"),
        ("EMAIL", rf"{_AN}(?:[._-]{_AN})*@{_AN}(?:[.-]{_AN})+"),
        ("HOST", rf"{_AN}(?:\.{_AN})+"),
        ("NUM", rf"{_AN}{_P}{_HD}(?:{_P}{_AN}{_P}{_HD})+"),
        ("NUM", rf"{_HD}{_P}{_AN}(?:{_P}{_HD}{_P}{_AN})+"),
        ("NUM", rf"{_AN}(?:{_P}{_HD}{_P}{_AN})+"),
        ("NUM", rf"{_HD}(?:{_P}{_AN}{_P}{_HD})+"),
        ("NUM", rf"{_AN}{_P}{_HD}"),
        ("NUM", rf"{_HD}{_P}{_AN}"),
        ("CJ", rf"[{_CJ}]"),
        ("ACRONYM_DEP", rf"{_AN}\.(?:{_AN}\.)+"),
    ]
]


def classic_scan(text: str) -> list[tuple[str, str, int, int]]:
    """(token, type, start, end) per JFlex maximal munch: at each
    position the longest match wins, ties broken by rule order; unmatched
    chars are skipped."""
    out = []
    i, n = 0, len(text)
    while i < n:
        best_end = i
        best_type = None
        for typ, pat in _CLASSIC_RULES:
            m = pat.match(text, i)
            if m is not None and m.end() > best_end:
                best_end = m.end()
                best_type = typ
        if best_type is None:
            i += 1
            continue
        out.append((text[i:best_end], best_type, i, best_end))
        i = best_end
    return out


def classic_filter(tok: str, typ: str) -> str:
    """ClassicFilter.java:58-70 — strip possessive 's from APOSTROPHE
    tokens, remove dots from ACRONYM tokens."""
    if typ == "APOSTROPHE" and tok[-2:] in ("'s", "'S"):
        return tok[:-2]
    if typ == "ACRONYM":
        return tok.replace(".", "")
    return tok


class ClassicAnalyzer(DocTokensAnalyzer):
    """ClassicTokenizer -> ClassicFilter -> LowerCase ->
    Stop(ENGLISH_STOP_WORDS_SET), maxTokenLength 255 (reference
    classic/ClassicAnalyzer.java:40-90).  Positions are pre-stop-filter
    token ordinals (StopFilter posIncrement gaps); query normalization
    is the inherited per-codepoint lowercase."""

    def __init__(self, stop_words: frozenset[str] | None = None, **kw):
        super().__init__(**kw)
        self.stop = ENGLISH_STOP_WORDS if stop_words is None else stop_words

    def _doc_tokens(self, text: str) -> list[tuple[str, int, int, int]]:
        out = []
        pos = 0
        for tok, typ, s, e in classic_scan(text):
            if len(tok) > self.max_token_length:
                continue  # discarded oversized token (no position in ref)
            t = self.normalize(classic_filter(tok, typ))
            if t not in self.stop:
                out.append((t, pos, s, e))
            pos += 1
        return out

    def tokens(self, text: str) -> list[str]:
        return [it[0] for it in self._doc_tokens(text or "")]


# --- UAX29URLEmail ---------------------------------------------------------

# the (?<!...) lookbehinds anchor matches to token boundaries: the
# reference tokenizer scans maximal-munch from boundaries, so a URL or
# email directly preceded by alphanumerics is NOT extracted mid-token
_URL_RE = re.compile(
    r"(?<![A-Za-z0-9])"
    r"(?:https?|ftp)://"
    r"[A-Za-z0-9](?:[A-Za-z0-9.-]*[A-Za-z0-9])?"
    r"(?::\d+)?"
    r"(?:/[A-Za-z0-9._~%/+-]*)?"
    r"(?:\?[A-Za-z0-9._~%&=/+-]*)?"  # query
    r"(?:#[A-Za-z0-9._~%/-]*)?"  # fragment
)
_EMAIL_RE = re.compile(
    r"(?<![A-Za-z0-9._+-])"
    r"[A-Za-z0-9][A-Za-z0-9._+-]*@"
    r"(?:[A-Za-z0-9](?:[A-Za-z0-9-]*[A-Za-z0-9])?\.)+[A-Za-z]{2,}"
)
_PRE_RE = re.compile(f"(?:{_URL_RE.pattern})|(?:{_EMAIL_RE.pattern})")


class UAX29URLEmailAnalyzer(DocTokensAnalyzer):
    """URL/EMAIL whole tokens + UAX#29 word tokens, then LowerCase ->
    Stop(ENGLISH_STOP_WORDS_SET) — reference email/UAX29URLEmailAnalyzer
    .java:90-95 (see module docstring for the URL-grammar subset
    deviation).  Positions are pre-stop token ordinals."""

    def __init__(self, stop_words: frozenset[str] | None = None, **kw):
        super().__init__(**kw)
        self.stop = ENGLISH_STOP_WORDS if stop_words is None else stop_words

    def _doc_tokens(self, text: str) -> list[tuple[str, int, int, int]]:
        spans: list[tuple[int, int, str]] = []  # (start, end, term)
        pre = list(_PRE_RE.finditer(text))
        if pre:
            # build the masked string ONCE from the pieces between matches
            pieces: list[str] = []
            prev = 0
            for m in pre:
                if m.end() - m.start() <= self.max_token_length:
                    spans.append((m.start(), m.end(), text[m.start() : m.end()]))
                pieces.append(text[prev : m.start()])
                pieces.append(" " * (m.end() - m.start()))
                prev = m.end()
            pieces.append(text[prev:])
            masked = "".join(pieces)
        else:
            masked = text
        if masked:
            cps = np.frombuffer(masked.encode("utf-32-le"), dtype="<u4")
            for s, e, _typ in scanner.scan_spans(cps, self.max_token_length):
                spans.append((s, e, masked[s:e]))
        spans.sort(key=lambda x: x[0])
        out = []
        for pos, (s, e, raw) in enumerate(spans):
            t = self.normalize(raw)
            if t not in self.stop:
                out.append((t, pos, s, e))
        return out

    def tokens(self, text: str) -> list[str]:
        return [it[0] for it in self._doc_tokens(text or "")]
