"""Class-inclusion scoring: match extracted phrases to data-model
classes and variables.

A phrase word matches a variable word when their stems agree (light
plural stripping); identifiers split on underscores and camel case.  A
word match is worth its relative importance (mean reciprocal frequency
of the matched model words) times the percentage of the variable's
words that matched.  A class scores the sum over its variables of the
best phrase's value, with the class name itself participating as one
pseudo-variable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..stores import DataModel
from .phrases import NounPhrase

_CAMEL_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")


def split_identifier(name: str) -> list[str]:
    """``WinRegistryKey`` and ``win_registry_key`` both split to
    ``[win, registry, key]``."""
    words = []
    for part in name.split("_"):
        words.extend(m.group(0).lower() for m in _CAMEL_RE.finditer(part))
    return words


def stem(word: str) -> str:
    """Light plural stripping: keys->key, registries->registry,
    processes->process; short words and -ss/-us/-is endings are left
    alone."""
    if len(word) > 4 and word.endswith("ies"):
        return word[:-3] + "y"
    if word.endswith(("ss", "us", "is")):
        return word
    if len(word) > 3 and word.endswith(("ches", "shes", "xes", "zes", "sses")):
        return word[:-2]
    if len(word) > 3 and word.endswith("s"):
        return word[:-1]
    return word


@dataclass(frozen=True)
class ClassScore:
    class_name: str
    inclusion_value: float
    per_variable: dict[str, float]


def word_frequency(model: DataModel) -> dict[str, int]:
    """Occurrences of each lowercase word across all class names and
    variable names."""
    counts: dict[str, int] = {}
    for class_name, variables in model.variables_by_class.items():
        for word in split_identifier(class_name):
            counts[word] = counts.get(word, 0) + 1
        for variable in variables:
            for word in split_identifier(variable):
                counts[word] = counts.get(word, 0) + 1
    return counts


def _phrase_stems(phrase: NounPhrase) -> tuple[str, ...]:
    """The distinct stems of ``phrase``'s words, in order."""
    return tuple(dict.fromkeys(stem(word) for word in phrase.words))


def _identifier_words(identifier: str) -> tuple[int, dict[str, str]]:
    """How many words ``identifier`` splits into, and each of their
    stems mapped to the first word with that stem."""
    words = split_identifier(identifier)
    surface_by_stem: dict[str, str] = {}
    for word in words:
        surface_by_stem.setdefault(stem(word), word)
    return len(words), surface_by_stem


def _match_value(
    phrase_stems: tuple[str, ...], word_count: int, surface_by_stem: dict[str, str], freq: dict[str, int]
) -> float:
    """:func:`word_match_value` of a phrase and a variable already split
    and stemmed."""
    matched = [surface_by_stem[s] for s in phrase_stems if s in surface_by_stem]
    if not matched:
        return 0.0
    relative_importance = sum(1.0 / freq.get(word, 1) for word in matched) / len(matched)
    percentage = len(matched) / word_count * 100.0
    return relative_importance * percentage


def word_match_value(
    phrase: NounPhrase, class_name: str, variable: str, freq: dict[str, int]
) -> float:
    """Value of matching one phrase against one variable of a class.

    Zero when no phrase word matches.  Otherwise the mean of 1/freq
    over the matched model-side words, times the percentage of the
    variable's words that were matched.
    """
    return _match_value(_phrase_stems(phrase), *_identifier_words(variable), freq)


def _inclusion(
    class_name: str,
    variables: tuple[str, ...],
    phrase_stems: list[tuple[str, ...]],
    freq: dict[str, int],
) -> ClassScore:
    per_variable: dict[str, float] = {}
    total = 0.0
    for variable in (class_name,) + tuple(variables):
        word_count, surface_by_stem = _identifier_words(variable)
        value = max(
            (_match_value(stems, word_count, surface_by_stem, freq) for stems in phrase_stems),
            default=0.0,
        )
        key = variable if variable not in per_variable else f"{variable} (variable)"
        per_variable[key] = value
        total += value
    return ClassScore(class_name, total, per_variable)


def class_inclusion(
    class_name: str,
    variables: tuple[str, ...],
    phrases: list[NounPhrase],
    freq: dict[str, int],
) -> ClassScore:
    """Sum over the class's variables (class name included as a
    pseudo-variable) of the best matching phrase's value."""
    return _inclusion(class_name, variables, [_phrase_stems(p) for p in phrases], freq)


def score_classes(model: DataModel, phrases: list[NounPhrase]) -> list[ClassScore]:
    freq = word_frequency(model)
    phrase_stems = [_phrase_stems(p) for p in phrases]
    return [
        _inclusion(class_name, variables, phrase_stems, freq)
        for class_name, variables in model.variables_by_class.items()
    ]


def select_classes(scores: list[ClassScore], n: int) -> list[str]:
    """Top-n class names by inclusion value; zero scores never make the
    cut even when n exceeds the nonzero count.  Ties break by name."""
    if n < 1:
        raise ValueError("n must be >= 1")
    nonzero = [s for s in scores if s.inclusion_value > 0.0]
    nonzero.sort(key=lambda s: (-s.inclusion_value, s.class_name))
    return [s.class_name for s in nonzero[:n]]
