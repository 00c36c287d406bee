"""Event stores and query execution.

The scheduler is data-store agnostic; backends implement the
:class:`DataProxy` protocol.  The baseline backend reads
newline-delimited JSON event logs, which keeps hunts hermetic and
testable; it indexes the log by entity class while loading, so a scan
reads only the events of its class.  ``execute`` resolves each bind
against the IOC database once per query, before the scan, and then
applies every predicate as a plain value test.

``execute_all`` remembers hit lists for the lifetime of the proxy, keyed
by ``(entity_class, filter)``: the filter is the query's predicates with
each bind replaced by its resolved candidates, so every implementation
that asks the same question of the same log shares one scan, and a
second IOC database that resolves a bind differently gets its own key.
Two facts follow:

* A proxy's ``scan`` results must not change over its lifetime; a
  changed log needs a new proxy.
* Retained memory is at most one pointer per hit per distinct filter,
  which is never more than the events those filters already scanned.
  It is freed with the proxy.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Protocol, Union

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
    """Event log backend over an ``events.ndjson`` file."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._by_class: dict[str, list[Event]] = {}
        self._load()

    def _load(self) -> None:
        seen: set[str] = set()
        try:
            for lineno, doc in read_jsonl(self.path):
                try:
                    event = event_from_json(doc)
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    raise FormatError(str(self.path), lineno, str(exc)) from None
                if event.event_id in seen:
                    raise FormatError(str(self.path), lineno, f"duplicate event_id {event.event_id!r}")
                seen.add(event.event_id)
                self._by_class.setdefault(event.entity_class, []).append(event)
        except OSError as exc:
            raise ProxyUnavailable(f"cannot read event log {self.path}: {exc}") from None
        except FormatError as exc:
            raise ProxyUnavailable(str(exc)) from None

    def scan(self, entity_class: str) -> list[Event]:
        return list(self._by_class.get(entity_class, ()))


def event_from_json(doc: dict) -> Event:
    fields = {
        str(k): v if isinstance(v, str) else json.dumps(v)
        for k, v in doc.get("fields", {}).items()
    }
    links = tuple(
        (str(link["verb"]), str(link["target"])) for link in doc.get("links", [])
    )
    return Event(
        event_id=str(doc["event_id"]),
        timestamp=str(doc["timestamp"]),
        host=str(doc["host"]),
        entity_class=str(doc["entity_class"]),
        fields=fields,
        links=links,
    )


# A predicate as ``(variable, exact values, globs)``: the field holds when
# its value is one of the exact values or matches one of the globs.
Filter = tuple[tuple[str, frozenset, tuple], ...]

#: Per proxy, hit lists by ``(entity_class, filter)``.
_HITS: "weakref.WeakKeyDictionary[DataProxy, dict]" = weakref.WeakKeyDictionary()


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


def _filter(q: QueryDescriptor, db: IocDb) -> Filter:
    return tuple((p.variable, *_candidates(p, db)) for p in q.predicates)


def _value_test(exact: frozenset, globs: tuple) -> Callable[[str], bool]:
    if not globs:
        return exact.__contains__
    return lambda actual: actual in exact or any(glob_match(g, actual) for g in globs)


def _scan(proxy: DataProxy, entity_class: str, filt: Filter) -> list[Event]:
    tests = [(var, _value_test(exact, globs)) for var, exact, globs in filt]
    return [
        event
        for event in proxy.scan(entity_class)
        if all(var in event.fields and holds(event.fields[var]) for var, holds in tests)
    ]


def execute(q: QueryDescriptor, proxy: DataProxy, db: IocDb) -> list[Event]:
    """Events of the descriptor's entity class satisfying every
    predicate, in log order.  A missing field never matches."""
    return _scan(proxy, q.entity_class, _filter(q, db))


def execute_all(
    descriptors: list[QueryDescriptor], proxy: DataProxy, db: IocDb
) -> dict[str, list[Event]]:
    """``execute`` for each descriptor, by qid.  Descriptors with the
    same entity class and filter share one hit list, kept for the
    proxy's lifetime; callers must not modify it."""
    memo = _HITS.setdefault(proxy, {})
    results = {}
    for q in descriptors:
        key = (q.entity_class, _filter(q, db))
        hits = memo.get(key)
        if hits is None:
            hits = memo[key] = _scan(proxy, *key)
        results[q.qid] = hits
    return results
