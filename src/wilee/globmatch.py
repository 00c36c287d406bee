"""Glob matching for indicator values and event fields.

``*`` matches any run of characters including the empty run; every
other character is literal.  Windows-style paths compare
case-insensitively: matching drops case when a backslash appears in
either the pattern or the subject.
"""

from __future__ import annotations

import re
from functools import lru_cache


@lru_cache(maxsize=4096)
def glob_to_regex(pattern: str) -> "re.Pattern[str]":
    parts = (re.escape(chunk) for chunk in pattern.split("*"))
    return re.compile(".*".join(parts) + r"\Z", re.DOTALL)


def glob_match(pattern: str, value: str) -> bool:
    if "\\" in pattern or "\\" in value:
        pattern = pattern.lower()
        value = value.lower()
    return glob_to_regex(pattern).match(value) is not None
