"""The event log and the hits of its queries.

A query asks the log one question: the events of one entity class whose
fields pass a filter.  :func:`memo_key` names that question as
``(entity_class, filter)``, where the filter is the query's predicates
with each bind resolved against the IOC database once, before any event
is read, and each predicate then a plain value test.  So every
implementation that asks the same question of the same log shares one
answer, and a second IOC database that resolves a bind differently asks
another question.

:class:`NdjsonProxy` reads a newline-delimited JSON log and keeps the
answers in its hit memo; :meth:`NdjsonProxy.hits` is the one way to get
one, and ``execute``, ``execute_all`` and ``scan`` are each one lookup.
The read decodes and checks every line alike, so a malformed line fails
with the same ``file:line`` message whichever way the proxy was made:

* Whole (``NdjsonProxy(path)``): every event is kept, and the memo is
  seeded with each class's events in log order under the empty filter.
  ``perturb --events`` reads this way, since its fitness asks questions
  nobody knows in advance.  A key not seen before is answered from value
  indexes: the first filter on a field of a class builds, once, a map
  from each text the field holds to the positions of its events in the
  class list (a value that is not a string as its JSON text; an event
  without the field appears nowhere).  An exact value is then one
  lookup, a glob is tested once per distinct value, and the predicates'
  position sets are intersected and sorted, so a new key costs
  O(distinct values + hits) instead of O(class size).  Retained memory
  is O(events): under ``tracemalloc``, building every (class, field)
  index of the benchmark's seed-3 logs took a whole proxy from 1.96 to
  2.39 MB (2.5k events), 15.11 to 19.18 MB (20k) and 92.39 to
  115.62 MB (120k), about a quarter more.
* Filtered (``NdjsonProxy(path, keys)``): when every question is known
  before the log is opened, as in ``wilee hunt``, one pass tests each
  line's raw fields against the filters of its class, builds an
  :class:`Event` only for a line that passes some filter, and seeds the
  memo with one list per key.  Retained memory is O(hits), plus the set
  of event ids while the pass runs.  A key not seeded costs one more
  read of the file with that key's filter alone.

The line loop is shared.  :func:`~wilee.stores.read_jsonl` takes a line
from one call of the C JSON scanner when the line is one object and then
its line end; any other line (a BOM, whitespace around the object, extra
data, a blank line, not an object) goes to ``json.loads``, so every
object and every error message is ``json.loads``'s.  :func:`_checked`
then checks the object and parses its timestamp once, and an
:class:`Event` is one tuple built from that row: its ``fields`` is the
decoded dict itself when every value is a string, and its host and class
strings are interned, shared by every event that names them.  On a
120k-event log an event retains about 0.77 KB: the tuple, the
``event_id``, ``timestamp`` and ``moment``, and the fields dict with its
own key and value strings, which are about two thirds of it.  The same
loop feeds every byte to SHA-256, so ``NdjsonProxy.sha256`` names the
log without a second read.

A hit list is kept for the proxy's lifetime and shared by every caller
that asks its key, so callers must not modify it, and a proxy's file
must not change while the proxy is used.  The memo retains at most one
pointer per hit per distinct key, and is freed with the proxy.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from collections import namedtuple
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from ..stores import FormatError, IocDb, read_jsonl, resolve_bind
from ..globmatch import glob_match
from .query import BindSpec, Predicate, QueryDescriptor


class ProxyUnavailable(Exception):
    """The event store could not be read; the whole query fails."""


_RFC3339 = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}[Tt ][0-9]{2}:[0-9]{2}:[0-9]{2}(?:\.([0-9]+))?(?:[Zz]|[+-][0-9]{2}:[0-9]{2})?"
).fullmatch
# The final letters for UTC that ``datetime.fromisoformat`` cannot read:
# Python 3.11 reads "Z" but not "z", Python 3.10 neither.
_UTC_SUFFIX = "z" if sys.version_info >= (3, 11) else "Zz"


def parse_rfc3339(value: str) -> datetime:
    """The moment an RFC 3339 date-time names, such as
    ``2026-03-01T07:00:00Z``; one without an offset is taken as UTC.  Any
    other text, ISO 8601's date-only, basic and week forms among it,
    raises ``ValueError("Invalid isoformat string: ...")``.  A fraction
    of a second keeps its first six digits, as on Python 3.11."""
    match = _RFC3339(value)
    if match is None:
        raise ValueError(f"Invalid isoformat string: {value!r}")
    fraction = match[1]
    if fraction is not None and len(fraction) != 6:
        # Python 3.10's ``fromisoformat`` reads 3 or 6 digits only.
        start, end = match.span(1)
        value = value[:start] + fraction[:6].ljust(6, "0") + value[end:]
    if value[-1] in _UTC_SUFFIX:
        value = value[:-1] + "+00:00"
    moment = datetime.fromisoformat(value)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return moment


class Event(namedtuple("Event", "event_id timestamp host entity_class fields links moment")):
    """One event of a log: an immutable tuple that compares by value.
    ``Event(event_id, timestamp, host, entity_class, fields, links=())``
    parses ``moment`` from ``timestamp``."""

    __slots__ = ()

    def __new__(cls, event_id, timestamp, host, entity_class, fields, links=()):
        return tuple.__new__(cls, (event_id, timestamp, host, entity_class, fields, links, parse_rfc3339(timestamp)))

    def __getnewargs__(self):  # copy and pickle call ``__new__``
        return tuple(self[:6])


class NdjsonProxy:
    """Event log backend over an ``events.ndjson`` file.

    Without ``keys`` the whole log is kept, and the hit memo is seeded
    with each class's events under the empty filter.  With ``keys``, the
    ``(entity_class, filter)`` keys of every query the proxy will be
    asked (see :func:`memo_key`), the one read keeps only the events some
    key's filter passes and seeds the memo with one list per key.

    ``sha256`` is the hex SHA-256 of the file's bytes as that first read
    saw them."""

    def __init__(self, path: Union[str, Path], keys: Optional[Iterable[Key]] = None):
        self.path = Path(path)
        self._whole = keys is None
        digest = hashlib.sha256()
        if self._whole:
            by_class: dict[str, list[Event]] = {}
            self._read(_keep_all(by_class), digest)
            self._hits = {(entity_class, ()): events for entity_class, events in by_class.items()}
            # (entity_class, field) -> {field text: positions in the class list}
            self._indexes: dict[tuple[str, str], dict[str, list[int]]] = {}
        else:
            self._hits = {key: [] for key in keys}
            self._read(_keep_hits(self._hits), digest)
        self.sha256 = digest.hexdigest()

    def hits(self, key: Key) -> list[Event]:
        """The events of ``key``'s class whose fields pass its filter, in
        log order; a missing field never passes.  The list is kept for
        the proxy's lifetime and shared by every caller of the same key,
        so callers must not modify it."""
        found = self._hits.get(key)
        if found is None:
            entity_class, filt = key
            if self._whole:
                found = self._indexed(entity_class, filt)
            else:
                found = []
                self._read(_keep_hits({key: found}))
            self._hits[key] = found
        return found

    def _indexed(self, entity_class: str, filt: Filter) -> list[Event]:
        """The events of the class whose fields pass ``filt``, in log
        order, from the value index of each field the filter names."""
        events = self._hits.get((entity_class, ()), [])
        common: Optional[set[int]] = None
        for var, exact, globs in filt:
            index = self._indexes.get((entity_class, var))
            if index is None:
                index = self._indexes[entity_class, var] = _value_index(events, var)
            matched = {i for value in exact for i in index.get(value, ())}
            if globs:
                for value, at in index.items():
                    if any(glob_match(g, value) for g in globs):
                        matched.update(at)
            common = matched if common is None else common & matched
        if common is None:
            return list(events)
        return [events[i] for i in sorted(common)]

    def _read(self, keep: Callable[[tuple], None], digest=None) -> None:
        """Check each line (:func:`_checked`) and run ``keep`` on its row;
        ``digest``, if given, is fed every byte read.  Any malformed line
        or duplicate ``event_id`` raises :class:`ProxyUnavailable` naming
        ``file:line``."""
        seen: set[str] = set()
        try:
            for lineno, doc in read_jsonl(self.path, digest):
                try:
                    row = _checked(doc)
                except ValueError as exc:
                    raise FormatError(str(self.path), lineno, str(exc)) from None
                if row[0] in seen:
                    raise FormatError(str(self.path), lineno, f"duplicate event_id {row[0]!r}")
                seen.add(row[0])
                keep(row)
        except OSError as exc:
            raise ProxyUnavailable(f"cannot read event log {self.path}: {exc}") from None
        except FormatError as exc:
            raise ProxyUnavailable(str(exc)) from None

    def scan(self, entity_class: str) -> list[Event]:
        """A new list of every event of the class, in log order."""
        return list(self.hits((entity_class, ())))


def _checked(doc: dict) -> tuple:
    """The row ``(event_id, timestamp, host, entity_class, fields, links,
    moment)`` of an event line, with ``fields`` as read.  Checks, in this
    order, that ``fields`` is a JSON object, that ``links`` is a list of
    objects with ``verb`` and ``target``, that the four keys are present
    and that the timestamp is RFC 3339; a failed check raises a
    :class:`ValueError` saying what is wrong."""
    fields = doc.get("fields", {})
    if not isinstance(fields, dict):
        raise ValueError("'fields' must be a JSON object")
    links = _links(doc["links"]) if "links" in doc else ()
    try:
        event_id = str(doc["event_id"])
        timestamp = str(doc["timestamp"])
        host = str(doc["host"])
        entity_class = str(doc["entity_class"])
    except KeyError as exc:
        raise ValueError(f"missing {exc.args[0]!r}") from None
    return event_id, timestamp, host, entity_class, fields, links, parse_rfc3339(timestamp)


def _event(row: tuple) -> Event:
    """The :class:`Event` of a checked row.  Its field values are text
    (see :func:`_text_fields`), and its host and class are interned, so
    the events of a log share one string per host and per class."""
    event_id, timestamp, host, entity_class, fields, links, moment = row
    return tuple.__new__(
        Event, (event_id, timestamp, sys.intern(host), sys.intern(entity_class), _text_fields(fields), links, moment)
    )


def _links(links) -> tuple[tuple[str, str], ...]:
    if not isinstance(links, list):
        raise ValueError("'links' must be a list")
    pairs = []
    for i, link in enumerate(links, 1):
        if not isinstance(link, dict):
            raise ValueError(f"link {i} must be a JSON object")
        try:
            pairs.append((str(link["verb"]), str(link["target"])))
        except KeyError as exc:
            raise ValueError(f"link {i} has no {exc.args[0]!r}") from None
    return tuple(pairs)


def _text_fields(fields: dict) -> dict[str, str]:
    """``fields`` with each value that is not a string replaced by its
    JSON text; ``fields`` itself when every value is a string."""
    for value in fields.values():
        if not isinstance(value, str):
            return {str(k): v if isinstance(v, str) else json.dumps(v) for k, v in fields.items()}
    return fields


def _value_index(events: list[Event], var: str) -> dict[str, list[int]]:
    """Each text the field ``var`` holds among ``events``, with the
    positions of the events holding it, ascending; an event without the
    field appears nowhere."""
    index: dict[str, list[int]] = {}
    for i, event in enumerate(events):
        fields = event.fields
        if var in fields:
            index.setdefault(fields[var], []).append(i)
    return index


def _keep_all(by_class: dict[str, list[Event]]) -> Callable[[tuple], None]:
    def keep(row: tuple) -> None:
        event = _event(row)
        by_class.setdefault(event.entity_class, []).append(event)

    return keep


def _keep_hits(hits: dict[Key, list[Event]]) -> Callable[[tuple], None]:
    """Appends a row's event to the list of each key whose filter its
    fields pass; an :class:`Event` is built only for such a row."""
    by_class: dict[str, list] = {}
    for (entity_class, filt), found in hits.items():
        by_class.setdefault(entity_class, []).append((_tests(filt), found))

    def keep(row: tuple) -> None:
        event = None
        for tests, found in by_class.get(row[3], ()):
            if _passes(row[4], tests):
                if event is None:
                    event = _event(row)
                found.append(event)

    return keep


# A predicate as ``(variable, exact values, globs)``: the field holds when
# its value is one of the exact values or matches one of the globs.
Filter = tuple[tuple[str, frozenset, tuple], ...]
Key = tuple[str, Filter]  # (entity_class, filter)


def _candidates(pred: Predicate, db: IocDb) -> tuple[frozenset, tuple]:
    """Exact values and globs the predicate's field may take.  A bind's
    candidates carrying a ``*`` are globs, the rest exact values."""
    if isinstance(pred.value, BindSpec):
        spec = pred.value
        values = [r.value for r in resolve_bind(db, spec.ioc_type, spec.technique, spec.pattern)]
        return frozenset(v for v in values if "*" not in v), tuple(v for v in values if "*" in v)
    if pred.op == "glob":
        return frozenset(), (pred.value,)
    return frozenset((pred.value,)), ()


def memo_key(q: QueryDescriptor, db: IocDb) -> Key:
    """The key a proxy keeps the descriptor's hits under: its class and
    its predicates with each bind resolved against ``db``."""
    return q.entity_class, tuple((p.variable, *_candidates(p, db)) for p in q.predicates)


def _value_test(exact: frozenset, globs: tuple) -> Callable[[str], bool]:
    if not globs:
        return exact.__contains__
    return lambda actual: actual in exact or any(glob_match(g, actual) for g in globs)


def _tests(filt: Filter) -> tuple[tuple[str, Callable[[str], bool]], ...]:
    return tuple((var, _value_test(exact, globs)) for var, exact, globs in filt)


def _passes(fields: dict, tests) -> bool:
    """Whether every test holds of ``fields``, read raw or as an
    :class:`Event` holds them; a value that is not a string is tested as
    its JSON text.  A missing field never passes."""
    for var, holds in tests:
        if var not in fields:
            return False
        value = fields[var]
        if not holds(value if isinstance(value, str) else json.dumps(value)):
            return False
    return True


def execute(q: QueryDescriptor, proxy: NdjsonProxy, db: IocDb) -> list[Event]:
    """Events of the descriptor's entity class satisfying every
    predicate, in log order: the proxy's shared hit list for its key."""
    return proxy.hits(memo_key(q, db))


def execute_all(descriptors: list[QueryDescriptor], proxy: NdjsonProxy, db: IocDb) -> dict[str, list[Event]]:
    """``execute`` for each descriptor, by qid.  Descriptors with the
    same :func:`memo_key` share one hit list."""
    return {q.qid: proxy.hits(memo_key(q, db)) for q in descriptors}
