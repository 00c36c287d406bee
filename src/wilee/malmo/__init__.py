"""DSL auto-generation from technique description text."""

from .generate import (
    DEFAULT_TOP_N,
    NoClassesSelected,
    generate_dsl,
    mine_relation_priors,
    object_name,
    scores_to_json,
)
from .phrases import NounPhrase, extract_noun_phrases, phrases_from_tokens
from .scoring import (
    ClassScore,
    class_inclusion,
    score_classes,
    select_classes,
    split_identifier,
    stem,
    word_frequency,
    word_match_value,
)
from .tagger import TaggedToken, parse_pretagged, tag_text, tag_word, tokenize

__all__ = [
    "DEFAULT_TOP_N",
    "NoClassesSelected",
    "generate_dsl",
    "mine_relation_priors",
    "object_name",
    "scores_to_json",
    "NounPhrase",
    "extract_noun_phrases",
    "phrases_from_tokens",
    "ClassScore",
    "class_inclusion",
    "score_classes",
    "select_classes",
    "split_identifier",
    "stem",
    "word_frequency",
    "word_match_value",
    "TaggedToken",
    "parse_pretagged",
    "tag_text",
    "tag_word",
    "tokenize",
]
