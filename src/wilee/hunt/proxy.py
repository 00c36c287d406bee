"""Event stores and query execution.

The scheduler is data-store agnostic; backends implement the
:class:`DataProxy` protocol.  The baseline backend reads
newline-delimited JSON event logs, which keeps hunts hermetic and
testable; it indexes the log by entity class while loading, so a scan
reads only the events of its class.  ``execute`` resolves each bind
against the IOC database once per query, before the scan, and then
applies every predicate as a plain value test.
"""

from __future__ import annotations

import json
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
        """All events of the given class, in log order."""
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


def _value_test(pred: Predicate, db: IocDb) -> Callable[[str], bool]:
    """The predicate as a test on one field value.  A bind holds when any
    of its candidates matches: exactly, or as a glob when the candidate
    carries a ``*``."""
    if isinstance(pred.value, BindSpec):
        spec = pred.value
        candidates = [r.value for r in resolve_bind(db, spec.ioc_type, spec.technique, spec.pattern)]
        exact = {v for v in candidates if "*" not in v}
        globs = [v for v in candidates if "*" in v]
        return lambda actual: actual in exact or any(glob_match(g, actual) for g in globs)
    if pred.op == "glob":
        return lambda actual: glob_match(pred.value, actual)
    return lambda actual: actual == pred.value


def execute(q: QueryDescriptor, proxy: DataProxy, db: IocDb) -> list[Event]:
    """Events of the descriptor's entity class satisfying every
    predicate, in log order.  A missing field never matches."""
    tests = [(p.variable, _value_test(p, db)) for p in q.predicates]
    return [
        event
        for event in proxy.scan(q.entity_class)
        if all(var in event.fields and holds(event.fields[var]) for var, holds in tests)
    ]


def execute_all(
    descriptors: list[QueryDescriptor], proxy: DataProxy, db: IocDb
) -> dict[str, list[Event]]:
    return {q.qid: execute(q, proxy, db) for q in descriptors}
