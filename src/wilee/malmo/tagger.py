"""Rule-based part-of-speech tagging for technique descriptions.

A deliberately small tagger: a closed-class lexicon, a curated list of
verbs and adjectives common in threat write-ups, suffix heuristics, and
a default-noun fallback.  Pre-tagged ``word/TAG`` input (Penn-style
tags) is accepted wherever tagging matters, so scoring stays
exercisable independently of these rules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

ADJ_TAGS = frozenset({"JJ", "JJR", "JJS"})
NOUN_TAGS = frozenset({"NN", "NNS", "NNP", "NNPS"})

_DETERMINERS = {
    "a", "an", "the", "this", "that", "these", "those", "some", "any",
    "each", "every", "no", "all", "both", "such", "another", "other",
}
_PREPOSITIONS = {
    "in", "on", "at", "of", "for", "with", "from", "to", "by", "as",
    "into", "onto", "over", "under", "through", "via", "within",
    "without", "during", "against", "between", "across", "after",
    "before", "about", "like", "using", "than", "upon", "outside",
}
_CONJUNCTIONS = {"and", "or", "but", "nor", "so", "yet", "if", "because", "while", "when", "where", "once"}
_PRONOUNS = {
    "it", "its", "they", "their", "them", "we", "our", "you", "your",
    "he", "she", "his", "her", "i", "itself", "themselves", "who", "which", "what",
}
_MODALS = {"can", "could", "may", "might", "must", "shall", "should", "will", "would"}
_ADVERBS = {"also", "often", "never", "always", "then", "here", "there", "not", "later", "instead"}
_VERBS = {
    "is", "are", "was", "were", "be", "been", "being", "has", "have",
    "had", "do", "does", "did", "use", "uses", "run", "runs", "make",
    "makes", "take", "takes", "search", "searches", "store", "stores",
    "query", "queries", "abuse", "abuses",
    "execute", "executes", "modify", "modifies", "create", "creates",
    "contain", "contains", "allow", "allows", "enable", "enables",
    "perform", "performs", "include", "includes", "attempt", "attempts",
    "gain", "gains", "obtain", "obtains", "write", "writes", "read",
    "reads", "send", "sends", "collect", "collects", "hold", "holds",
    "keep", "keeps", "save", "saves", "look", "looks", "identify",
    "identifies", "exfiltrate", "exfiltrates", "dump", "dumps",
    "escalate", "escalates", "install", "installs", "establish",
    "establishes", "leverage", "leverages", "reference", "references",
    "expose", "exposes", "reveal", "reveals", "check", "checks",
    "provide", "provides", "deliver", "delivers", "bypass", "bypasses",
    "review", "reviews", "copy", "copies", "target", "targets",
    "inject", "injects", "rely", "relies", "listen", "listens",
    "obfuscate", "obfuscates", "hide", "hides", "accept", "accepts",
    "flag", "flags", "sign", "signs", "record", "records", "examine",
    "examines", "conceal", "conceals", "inspect", "inspects",
    "register", "registers", "point", "points", "consume", "consumes",
    "survive", "survives", "retrieve", "retrieves", "open", "opens",
}
_ADJECTIVES = {
    "malicious", "suspicious", "remote", "local", "new", "common",
    "sensitive", "unsecured", "insecure", "compromised", "elevated",
    "administrative", "persistent", "arbitrary", "custom", "lateral",
    "initial", "external", "internal", "privileged", "unauthorized",
    "legitimate", "valid", "scheduled", "encoded", "encrypted",
    "obfuscated", "known", "unknown", "multiple", "several", "various",
    "critical", "abnormal", "anomalous", "automated", "manual",
    "plaintext", "weak", "stored", "third-party", "higher", "specific",
    "additional", "adversarial", "infected", "vulnerable", "trusted",
    "unsigned", "first",
}

# Words ending in -ing that are ordinary nouns in this domain.
_ING_NOUNS = {"string", "strings", "thing", "things", "setting", "settings", "phishing", "nothing", "everything"}

# Suffix-heuristic exceptions that stay nouns.
_NOUN_OVERRIDES = {"variable", "variables", "table", "tables", "executable", "executables"}

_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z'-]*[A-Za-z]|[A-Za-z]|[0-9][0-9.,:]*|[^\sA-Za-z0-9]")
# Pre-tagged text is whitespace-separated tokens, each ``word/TAG``.
_TAGGED_TOKEN_RE = re.compile(r"\S+")
_PRETAGGED_RE = re.compile(r"^(?P<word>.+)/(?P<tag>[A-Z$]+)$")


@dataclass(frozen=True)
class TaggedToken:
    text: str
    tag: str
    span: tuple[int, int]  # char range in the input text


def tokenize(text: str) -> list[tuple[str, tuple[int, int]]]:
    return [(m.group(0), m.span()) for m in _TOKEN_RE.finditer(text)]


def tag_word(word: str) -> str:
    lower = word.lower()
    if lower[0].isdigit():
        return "CD"
    if not any(c.isalnum() for c in lower):
        return "PUNCT"
    if lower in _DETERMINERS:
        return "DT"
    if lower in _PREPOSITIONS:
        return "IN"
    if lower in _CONJUNCTIONS:
        return "CC"
    if lower in _PRONOUNS:
        return "PRP"
    if lower in _MODALS:
        return "MD"
    if lower in _ADVERBS:
        return "RB"
    if lower in _ADJECTIVES:
        return "JJ"
    if lower in _VERBS:
        return "VB"
    if lower in _NOUN_OVERRIDES:
        return "NNS" if lower.endswith("s") else "NN"
    if lower.endswith("ly") and len(lower) > 3:
        return "RB"
    if lower.endswith("ing") and len(lower) > 4 and lower not in _ING_NOUNS:
        return "VBG"
    if lower.endswith("ed") and len(lower) > 3:
        return "VBD"
    if lower.endswith(("ous", "ious", "ful", "less", "able", "ible", "ive")) and len(lower) > 4:
        return "JJ"
    if lower.endswith("s") and len(lower) > 3 and not lower.endswith(("ss", "us", "is")):
        return "NNS"
    return "NN"


def tag_text(text: str) -> list[TaggedToken]:
    return [TaggedToken(tok, tag_word(tok), span) for tok, span in tokenize(text)]


def untagged_token(text: str) -> Optional[str]:
    """The first token of ``text`` that :func:`parse_pretagged` cannot
    read as ``word/TAG``, or ``None`` when it reads them all."""
    for m in _TAGGED_TOKEN_RE.finditer(text):
        if not _PRETAGGED_RE.match(m.group(0)):
            return m.group(0)
    return None


def parse_pretagged(text: str) -> list[TaggedToken]:
    """Read whitespace-separated ``word/TAG`` tokens; spans cover the
    word part so phrase spans stay meaningful."""
    out = []
    for m in _TAGGED_TOKEN_RE.finditer(text):
        matched = _PRETAGGED_RE.match(m.group(0))
        if not matched:
            raise ValueError(f"not a word/TAG token: {m.group(0)!r}")
        word = matched.group("word")
        out.append(
            TaggedToken(word, matched.group("tag"), (m.start(), m.start() + len(word)))
        )
    return out
