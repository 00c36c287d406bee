"""Shared vocabularies: IOC types, tactic names, step-name mapping, and
the DSL's text rules (identifiers, string literals and what a literal or
a bind argument may hold), which the lexer, the printer, the validator
and the IOC writers share.

Step identifiers in DSL source are plain identifiers (``t1552_002``,
``credential_access``); the rest of the pipeline works with their
normalized forms (``T1552.002``, ``credential-access``).  The two
mappings below are inverse bijections over the identifier space, which
is what makes parse/pretty-print round trips exact.
"""

from __future__ import annotations

import re

#: Indicator types understood by bind() and the IOC database.
IOC_TYPES = (
    "registry_hive",
    "process_name",
    "file_path",
    "domain",
    "command_line",
    "hash",
)

#: Canonical kill-chain ordering of tactic names.
CANONICAL_TACTICS = (
    "reconnaissance",
    "resource-development",
    "initial-access",
    "execution",
    "persistence",
    "privilege-escalation",
    "defense-evasion",
    "credential-access",
    "discovery",
    "lateral-movement",
    "collection",
    "command-and-control",
    "exfiltration",
    "impact",
)

TACTIC_ORDER = {name: i for i, name in enumerate(CANONICAL_TACTICS)}

#: Normalized technique ids look like T1552 or T1552.002.
TECHNIQUE_ID_RE = re.compile(r"T\d{4}(\.\d{3})?")

# Identifier-space counterpart: t1552 or t1552_002.
_TECHNIQUE_IDENT_RE = re.compile(r"t\d{4}(_\d{3})?")

IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Reserved words of the DSL; they lex as keywords, never as names.
KEYWORDS = frozenset({"def", "pass"})

#: The arguments of ``bind(...)``, in printed order; ``ioc_type`` is required.
BIND_KEYS = ("ioc_type", "technique", "pattern")

#: The characters ``stores.read_text`` reads as line ends.  No literal,
#: and no bind technique or pattern, holds one.
LINE_BREAKS = "\r\n"
_LINE_BREAK = re.compile(f"[{LINE_BREAKS}]")

#: A double-quoted string literal on one line.  A backslash escapes only a
#: backslash or a double quote and is a literal character anywhere else,
#: so registry paths read naturally.  The three branches never overlap,
#: so a failed match never re-reads an escape as a literal backslash.
STRING_LITERAL = rf'"(?:\\[\\"]|\\(?![\\"])|[^"\\{LINE_BREAKS}])*"'

_ESCAPED = re.compile(r'\\([\\"])')
_TO_ESCAPE = re.compile(r'\\(?=[\\"]|\Z)|"')


def unquote_string(literal: str) -> str:
    """The value of a :data:`STRING_LITERAL` match."""
    return _ESCAPED.sub(r"\1", literal[1:-1])


def quote_string(value: str) -> str:
    """The literal that :func:`unquote_string` reads back as ``value``:
    a backslash is doubled only before a backslash, a double quote or the
    closing quote."""
    return '"' + _TO_ESCAPE.sub(r"\\\g<0>", value) + '"'


def is_literal_text(value: object) -> bool:
    """Whether ``value`` may be a literal's value or a bind's technique
    or pattern: a string with none of :data:`LINE_BREAKS`, which is what
    a :data:`STRING_LITERAL` reads back."""
    return isinstance(value, str) and _LINE_BREAK.search(value) is None


def is_identifier(name: str) -> bool:
    """Whether ``name`` is a whole DSL identifier that is not a keyword."""
    return isinstance(name, str) and bool(IDENTIFIER_RE.fullmatch(name)) and name not in KEYWORDS


def normalize_step(ident: str) -> str:
    """Map a DSL identifier to its step name.

    ``t1552_002`` -> ``T1552.002``; anything else is treated as a
    tactic-style name with underscores turned into hyphens.
    """
    if _TECHNIQUE_IDENT_RE.fullmatch(ident):
        return "T" + ident[1:].replace("_", ".")
    return ident.replace("_", "-")


def step_identifier(step: str) -> str:
    """Inverse of :func:`normalize_step`."""
    if TECHNIQUE_ID_RE.fullmatch(step):
        return "t" + step[1:].replace(".", "_")
    return step.replace("-", "_")


def is_technique_id(step: str) -> bool:
    return bool(TECHNIQUE_ID_RE.fullmatch(step))


def is_known_step(step: str) -> bool:
    return is_technique_id(step) or step in TACTIC_ORDER
