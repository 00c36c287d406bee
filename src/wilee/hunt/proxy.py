"""Event stores and query execution.

The scheduler is data-store agnostic; backends implement the
:class:`DataProxy` protocol.  The baseline backend reads
newline-delimited JSON event logs, which keeps hunts hermetic and
testable.  ``execute`` resolves each bind against the IOC database once
per query, before the scan, and then applies every predicate as a plain
value test.

``execute_all`` remembers hit lists for the lifetime of the proxy, keyed
by ``(entity_class, filter)`` (:func:`memo_key`): the filter is the
query's predicates with each bind replaced by its resolved candidates,
so every implementation that asks the same question of the same log
shares one scan, and a second IOC database that resolves a bind
differently gets its own key.

:class:`NdjsonProxy` reads its log in one of two ways; both decode and
check every line alike, so a malformed line fails either with the same
``file:line`` message.

* Whole (``NdjsonProxy(path)``): every event is kept, indexed by class,
  so a scan reads only the events of its class.  Retained memory is
  O(events).  ``perturb --events`` reads this way, since its fitness
  asks queries nobody knows in advance.
* Filtered (``NdjsonProxy(path, keys)``): when every query is known
  before the log is opened, as in ``wilee hunt``, one pass tests each
  line's raw fields against the filters of its class and builds an
  :class:`Event` only for a line that passes some filter.  The pass
  seeds the hit memo with one list per key.  Retained memory is
  O(hits), plus the set of event ids while the pass runs.  ``scan``
  still returns every event of the class, by reading the file again
  with the empty filter of that class.

Two facts follow:

* A proxy's ``scan`` results must not change over its lifetime; a
  changed log needs a new proxy, and a filtered proxy's file must not
  change while it is used.
* The memo retains at most one pointer per hit per distinct filter. It
  is freed with the proxy.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Optional, Protocol, Union

from ..stores import FormatError, IocDb, read_jsonl, resolve_bind
from ..globmatch import glob_match
from .query import BindSpec, Predicate, QueryDescriptor


class ProxyUnavailable(Exception):
    """The event store could not be read; the whole query fails."""


def parse_rfc3339(value: str) -> datetime:
    text = value[:-1] + "+00:00" if value.endswith(("Z", "z")) else value
    moment = datetime.fromisoformat(text)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return moment


@dataclass(frozen=True)
class Event:
    event_id: str
    timestamp: str
    host: str
    entity_class: str
    fields: dict[str, str]
    links: tuple[tuple[str, str], ...] = ()
    moment: datetime = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "moment", parse_rfc3339(self.timestamp))


class DataProxy(Protocol):
    def scan(self, entity_class: str) -> Iterable[Event]:
        """All events of the given class, in log order.  The result must
        stay the same for the proxy's lifetime: ``execute_all`` keeps
        hit lists per proxy."""
        ...


class NdjsonProxy:
    """Event log backend over an ``events.ndjson`` file.

    Without ``keys`` the whole log is kept, indexed by entity class.
    With ``keys``, the ``(entity_class, filter)`` keys of every query the
    proxy will be asked (see :func:`memo_key`), the one read keeps only
    the events some key's filter passes and seeds the proxy's hit memo
    with one list per key; ``scan`` then reads the file again."""

    def __init__(self, path: Union[str, Path], keys: Optional[Iterable[Key]] = None):
        self.path = Path(path)
        self._by_class: Optional[dict[str, list[Event]]] = None
        if keys is None:
            self._by_class = {}
            self._read(_keep_all(self._by_class))
        else:
            _HITS[self] = self._read_hits(keys)

    def _read_hits(self, keys: Iterable[Key]) -> dict[Key, list[Event]]:
        hits = {key: [] for key in keys}
        self._read(_keep_hits(hits))
        return hits

    def _read(self, keep: Callable[[dict], str]) -> None:
        """Run ``keep`` on each line's object: it checks the line, keeps
        what it wants and returns the event id.  Any malformed line or
        duplicate ``event_id`` raises :class:`ProxyUnavailable` naming
        ``file:line``."""
        seen: set[str] = set()
        try:
            for lineno, doc in read_jsonl(self.path):
                try:
                    event_id = keep(doc)
                except ValueError as exc:
                    raise FormatError(str(self.path), lineno, str(exc)) from None
                if event_id in seen:
                    raise FormatError(str(self.path), lineno, f"duplicate event_id {event_id!r}")
                seen.add(event_id)
        except OSError as exc:
            raise ProxyUnavailable(f"cannot read event log {self.path}: {exc}") from None
        except FormatError as exc:
            raise ProxyUnavailable(str(exc)) from None

    def scan(self, entity_class: str) -> list[Event]:
        if self._by_class is None:
            key = (entity_class, ())  # an empty filter passes every event of the class
            return self._read_hits([key])[key]
        return list(self._by_class.get(entity_class, ()))


def _checked(doc: dict) -> tuple[str, str, str, str, dict, tuple[tuple[str, str], ...]]:
    """``(event_id, timestamp, host, entity_class, fields, links)`` of an
    event line, with ``fields`` as read.  Checks, in this order, that
    ``fields`` is a JSON object, that each link has ``verb`` and
    ``target``, and that the four keys are present; a failed check raises
    a :class:`ValueError` saying what is wrong.  The timestamp is left for
    the caller to parse."""
    fields = doc.get("fields", {})
    if not isinstance(fields, dict):
        raise ValueError("'fields' must be a JSON object")
    links = ()
    if "links" in doc:
        try:
            links = tuple((str(link["verb"]), str(link["target"])) for link in doc["links"])
        except (KeyError, TypeError):
            raise ValueError(_link_fault(doc["links"])) from None
    try:
        return (
            str(doc["event_id"]),
            str(doc["timestamp"]),
            str(doc["host"]),
            str(doc["entity_class"]),
            fields,
            links,
        )
    except KeyError as exc:
        raise ValueError(f"missing {exc.args[0]!r}") from None


def _link_fault(links) -> str:
    """What is wrong with a ``links`` value that could not be read."""
    if isinstance(links, list):
        for i, link in enumerate(links, 1):
            if not isinstance(link, dict):
                return f"link {i} must be a JSON object"
            for key in ("verb", "target"):
                if key not in link:
                    return f"link {i} has no {key!r}"
    return "'links' must be a list"


def _text_fields(fields: dict) -> dict[str, str]:
    return {str(k): v if isinstance(v, str) else json.dumps(v) for k, v in fields.items()}


def event_from_json(doc: dict) -> Event:
    event_id, timestamp, host, entity_class, fields, links = _checked(doc)
    return Event(event_id, timestamp, host, entity_class, _text_fields(fields), links)


def _keep_all(by_class: dict[str, list[Event]]) -> Callable[[dict], str]:
    def keep(doc: dict) -> str:
        event = event_from_json(doc)
        by_class.setdefault(event.entity_class, []).append(event)
        return event.event_id

    return keep


def _keep_hits(hits: dict[Key, list[Event]]) -> Callable[[dict], str]:
    """Appends a line's event to the list of each key whose filter its
    raw fields pass; an :class:`Event` is built only for such a line."""
    by_class: dict[str, list] = {}
    for (entity_class, filt), found in hits.items():
        by_class.setdefault(entity_class, []).append((_tests(filt), found))

    def keep(doc: dict) -> str:
        event_id, timestamp, host, entity_class, fields, links = _checked(doc)
        parse_rfc3339(timestamp)
        event = None
        for tests, found in by_class.get(entity_class, ()):
            if _passes(fields, tests):
                if event is None:
                    event = Event(event_id, timestamp, host, entity_class, _text_fields(fields), links)
                found.append(event)
        return event_id

    return keep


# A predicate as ``(variable, exact values, globs)``: the field holds when
# its value is one of the exact values or matches one of the globs.
Filter = tuple[tuple[str, frozenset, tuple], ...]
Key = tuple[str, Filter]  # (entity_class, filter)

#: Per proxy, hit lists by key.
_HITS: "weakref.WeakKeyDictionary[DataProxy, dict[Key, list[Event]]]" = weakref.WeakKeyDictionary()


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
    """The key ``execute_all`` keeps the descriptor's hits under: its
    class and its predicates with each bind resolved against ``db``."""
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


def _scan(proxy: DataProxy, entity_class: str, filt: Filter) -> list[Event]:
    tests = _tests(filt)
    return [event for event in proxy.scan(entity_class) if _passes(event.fields, tests)]


def execute(q: QueryDescriptor, proxy: DataProxy, db: IocDb) -> list[Event]:
    """Events of the descriptor's entity class satisfying every
    predicate, in log order.  A missing field never matches."""
    return _scan(proxy, *memo_key(q, db))


def execute_all(
    descriptors: list[QueryDescriptor], proxy: DataProxy, db: IocDb
) -> dict[str, list[Event]]:
    """``execute`` for each descriptor, by qid.  Descriptors with the
    same :func:`memo_key` share one hit list, kept for the proxy's
    lifetime; callers must not modify it."""
    memo = _HITS.setdefault(proxy, {})
    results = {}
    for q in descriptors:
        key = memo_key(q, db)
        hits = memo.get(key)
        if hits is None:
            hits = memo[key] = _scan(proxy, *key)
        results[q.qid] = hits
    return results
