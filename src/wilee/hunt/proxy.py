"""The event log and the hits of its queries.

A query asks the log one question: the events of one entity class whose
fields pass a filter.  :func:`memo_key` names that question as
``(entity_class, filter)``, where the filter is the query's predicates
with each bind resolved against the IOC database once, before any event
is read, and each predicate then a plain value test.  So every
implementation that asks the same question of the same log shares one
answer, and a second IOC database that resolves a bind differently asks
another question.

A hit is an :class:`Event`: its id, host, moment and links, all that
the join and the matcher read.  A moment is an ``int``, the microseconds
from the Unix epoch to the instant its RFC 3339 text names, whatever the
offset the text gave, so the join and the matcher compare and subtract
plain integers; this module alone turns a text into one.
:class:`NdjsonProxy` reads a newline-delimited JSON log and keeps the
answers in its hit memo; :meth:`NdjsonProxy.hits` is the one way to get
one, and :func:`execute_all` and ``scan`` are each one lookup.  The read
decodes and checks every line alike, so a malformed line fails with the
same ``file:line`` message whichever way the proxy was made, and both
ways test a field text by its verdict (:func:`_field_verdicts`), the
mask of every predicate on the field that the text passes:

* Whole (``NdjsonProxy(path)``): every event is kept, as columns per
  class (:class:`_Class`): the event ids; the moments as eight-byte
  integers; the hosts as four-byte codes; the links of the events that
  have some; and each field as a code column over that field's distinct
  texts (a value that is not a string as its JSON text), where code 0
  means the event lacks the field.  No per-line dict, key string or
  repeated text is kept.  ``perturb
  --events`` reads this way, since its fitness asks questions nobody
  knows in advance.  A key not seen before is answered by a scan of its
  class's code columns (:meth:`NdjsonProxy._indexed`): each distinct
  text of a field the filter names gets its verdict once, so a glob is
  tested once per distinct text (of each part, see below), into a table
  of one byte per code; the
  first field's column is scanned through its table, and each further
  field filters only the positions that passed.  A new key costs
  O(distinct texts + class size) and retains nothing but its answer.
  An :class:`Event` is built only for a hit, on its first request, and
  kept for the proxy's lifetime, so every key that holds it shares one
  object; the empty filter builds its class's events when first asked.
  Retained memory is O(events) for the columns plus O(hits) for the
  events.  Under ``tracemalloc`` a whole proxy of the benchmark's
  120k-event seed-3 log, read in one pass, retains 18.64 MB (0.16 KB per
  event) before it hands out an event, against 23.18 MB when it kept
  each timestamp as a code into a list of the distinct texts (Python
  3.11.7), and 92.37 MB when it kept one :class:`Event` per line.
* Filtered (``NdjsonProxy(path, keys)``): when every question is known
  before the log is opened, as in ``wilee hunt``, one pass tests each
  line's raw fields against the filters of its class and builds an
  :class:`Event` only for a line that passes some filter, and seeds the
  memo with one list per key.  The keys of a class share their
  predicates (see :func:`_keep_hits`): a line costs one dict lookup per
  filtered field, from a memo of each field text's verdict, so each glob
  is tested once per distinct text, however many keys hold it.  The memo
  is bounded by :data:`_MEMO_LIMIT` texts per field.  Retained memory is
  O(hits), plus the set of event ids and the bounded memo while the pass
  runs.  A key not seeded costs one more read of the file with that
  key's filter alone.

Either read of a large log uses a second CPU.  :func:`_cut` cuts the
log in two at the first line start at or after its middle, where the
log holds at least two :data:`_RANGE_BYTES` (8 MiB), the second range
is not empty, the process may use two CPUs (:func:`_cpus`: its affinity
mask and its cgroup's CPU quota), ``os.fork`` exists and no other thread
is alive; any other log is read in one pass by the loops above.  This
process reads the first range; one forked child (:func:`_forked`) reads
the second with the same loop and replies the same way for both reads:
what it kept, as one pickle (the filtered read's hit lists, the whole
read's columns), then its event ids in bounded batches, which this
process checks against its own.  This process hashes the second range's
bytes, up to the size the cut saw, so ``sha256`` names the bytes whose
events were read; :meth:`NdjsonProxy._load` gives its own result and
then the child's, which is log order.  The filtered read appends the
child's hits to each key's list; an :class:`Event` stays one object
however many keys hold it.  The whole read keeps each range's columns as
they came, as one :class:`_Part` per range with its own host table,
since recoding the child's codes into this process's tables cost as much
as the split saved.  A key's hits are each part's answer in part order,
so a distinct text in both parts gets its verdict in each, and a host in
both parts is two equal strings.  On two vCPUs the whole read of the
benchmark's 22.9 MB ``hunt_scale`` log takes about a third less time;
the child peaks at about 36 MB RSS, part of it pages it shares with
this process since the fork, and pickles back about 3.7 MB, its moments
as the raw bytes of one ``array('q')`` per class.  If either range
faults, or an event id is in both, the whole log is read again in this
process, so a fault gives the serial read's ``file:line`` message.  The
child is reaped before the read returns or raises.

The line loop is shared.  :func:`~wilee.stores.read_jsonl` takes a line
from one call of the C JSON scanner when the line is one object and then
its line end; any other line (a BOM, whitespace around the object, extra
data, a blank line, not an object) goes to ``json.loads``, so every
object and every error message is ``json.loads``'s.  :func:`_checked`
then checks the object and parses its timestamp, unless the text is the
previous line's, whose parsed moment it takes, so each text is parsed
once for each run of lines that carry it.  A read turns a parsed moment
into microseconds only where it keeps it: the filtered read once for
each row it keeps, as :func:`_event` builds its :class:`Event`, and the
whole read once for each run of rows that share a parsed moment, as
:func:`_keep_columns` appends it to its class's column.  The same loop
feeds every byte to SHA-256, so ``NdjsonProxy.sha256`` names the log
without a second read.

A hit list is kept for the proxy's lifetime and shared by every caller
that asks its key, so callers must not modify it, and a proxy's file
must not change while the proxy is used.  The memo retains at most one
pointer per hit per distinct key, and is freed with the proxy, as are
the joins :func:`~wilee.hunt.evaluate` keeps in ``NdjsonProxy.joins``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import signal
import sys
import threading
from array import array
from datetime import datetime, timedelta, timezone
from functools import partial
from itertools import compress, islice
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Union

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
    """The aware ``datetime`` an RFC 3339 date-time names, such as
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


class Event(NamedTuple):
    """One event of a log as the hunt reads it: an immutable tuple that
    compares by value.  ``moment`` is the integer microseconds since the
    Unix epoch (see :data:`_EPOCH`); ``links`` holds its ``(verb, target
    event id)`` pairs."""

    event_id: str
    host: str
    moment: int
    links: tuple[tuple[str, str], ...] = ()


# An event's moment is ``(parsed - _EPOCH) // _MICROSECOND``: exact, and
# the same integer for one instant under any offset.
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


class NdjsonProxy:
    """Event log backend over an ``events.ndjson`` file.

    Without ``keys`` the whole log is kept as columns, and each key's hits
    are found in them on its first request, from the verdicts of the
    distinct texts of each field its filter names.  With ``keys``, the
    ``(entity_class, filter)`` keys of every query the proxy will be
    asked (see :func:`memo_key`), the one read keeps only the events some
    key's filter passes and seeds the memo with one list per key.

    ``sha256`` is the hex SHA-256 of the file's bytes as that first read
    saw them.  ``joins`` is :func:`~wilee.hunt.build_graph`'s memo of the
    relations joined over this proxy's hit lists (see
    :data:`~wilee.hunt.graph.Joins`); like the lists, it lives as long as
    the proxy."""

    def __init__(self, path: Union[str, Path], keys: Optional[Iterable[Key]] = None):
        self.path = Path(path)
        self.joins: dict = {}
        self._whole = keys is None
        if self._whole:
            # One :class:`_Part` per range of the log, in log order.
            self._parts, self.sha256 = self._load(self._read_part)
            self._hits: dict[Key, list[Event]] = {}
        else:
            self._hits = {key: [] for key in keys}
            self.sha256 = self._read_hits(self._hits)

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
                self._read_hits({key: found})
            self._hits[key] = found
        return found

    def _indexed(self, entity_class: str, filt: Filter) -> list[Event]:
        """The events of the class whose fields pass ``filt``, in log
        order: each part's, in part order.  In a part, each field the
        filter names gets a table of one byte per code: whether the
        verdict of the code's text (see :func:`_field_verdicts`) covers
        the mask of the filter's predicates on that field.  The first
        field's code column is scanned, and each further field keeps only
        the positions that passed so far."""
        bits = {predicate: bit for bit, predicate in enumerate(dict.fromkeys(filt))}
        verdicts = _field_verdicts(bits)
        found: list[Event] = []
        for part in self._parts:
            held = part.classes.get(entity_class)
            if held is None:
                continue
            positions: Iterable[int] = range(len(held.ids))
            for n, (var, known, fill) in enumerate(verdicts):
                if var not in held.fields:
                    positions = ()
                    break
                texts, codes = held.fields[var]
                want = sum(1 << bit for (field, _, _), bit in bits.items() if field == var)
                masks = map(fill, texts[1:]) if fill else (known.get(text, 0) for text in texts[1:])
                passes = bytes([0, *(mask & want == want for mask in masks)])
                if n == 0:
                    positions = compress(positions, map(passes.__getitem__, codes))
                else:
                    positions = [i for i in positions if passes[codes[i]]]
            part.events(held, positions, found)
        return found

    def _read_hits(self, hits: dict[Key, list[Event]]) -> str:
        """The filtered read: appends to each key's list in ``hits`` (all
        empty) the events its filter passes, in log order (see
        :func:`_keep_hits`).  Returns the log's hex SHA-256."""

        def read(start: int, end: Optional[int], digest, seen: set[str]) -> list[list[Event]]:
            found: dict[Key, list[Event]] = {key: [] for key in hits}
            self._read(_keep_hits(found), start, end, digest, seen)
            return [*found.values()]

        ranges, sha256 = self._load(read)
        for lists in ranges:
            for found, kept in zip(hits.values(), lists):
                found += kept
        return sha256

    def _read_part(self, start: int, end: Optional[int], digest, seen: set[str]) -> _Part:
        """The whole read of one range: a :class:`_Part` of the columns of
        its lines."""
        part, hosts = _Part(), {}
        self._read(_keep_columns(part, hosts), start, end, digest, seen)
        part.hosts = list(hosts)
        for held in part.classes.values():
            held.fields = {var: ([None, *texts], codes) for var, (texts, codes) in held.fields.items()}
        return part

    def _load(self, read: Callable[..., object]) -> tuple[list, str]:
        """``(results, sha256)``: what ``read`` kept of each range of the
        log, in log order, and the hex SHA-256 of the bytes read.
        ``read(start, end, digest, seen)`` reads the lines between two
        byte offsets with :meth:`_read` and returns what it kept of them.
        A log that :func:`_cut` cuts in two is read split
        (:meth:`_split_read`); when that faults, the whole log is read
        again in this process, hashed afresh, so a fault raises what the
        serial read raises."""
        cut = _cut(self.path)
        if cut is not None:
            digest = hashlib.sha256()
            ranges = self._split_read(*cut, digest, read)
            if ranges is not None:
                return ranges, digest.hexdigest()
        digest = hashlib.sha256()
        return [read(0, None, digest, set())], digest.hexdigest()

    def _split_read(self, cut: int, size: int, digest, read: Callable[..., object]) -> Optional[list]:
        """``[first, second]``: what ``read`` kept of the bytes before
        ``cut``, read here, and of those from ``cut`` to ``size``, read in
        a forked child (:func:`_forked`); ``digest`` is fed both ranges'
        bytes.  ``None``, the child reaped, if the fork fails, either
        range faults or an event id is in both."""
        try:
            pid, pipe = _forked(read, cut, size)
        except OSError:
            return None
        try:
            seen: set[str] = set()
            first = read(0, cut, digest, seen)
            with open(self.path, "rb") as handle:
                handle.seek(cut)
                left = size - cut
                while left > 0 and (chunk := handle.read(min(left, 1 << 20))):
                    digest.update(chunk)
                    left -= len(chunk)
            second = _received(pipe, seen)
        except (OSError, ProxyUnavailable):
            return None
        finally:
            # The child has sent all it had, or has failed; either way
            # nothing more is wanted of it.
            os.close(pipe)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        return None if second is None else [first, second]

    def _read(self, keep: Callable[[tuple], None], start: int, end: Optional[int], digest, seen: set[str]) -> None:
        """Check each line between byte offsets ``start`` and ``end`` (see
        :func:`~wilee.stores.read_jsonl`) with :func:`_checked`, add its
        event id to ``seen`` and run ``keep`` on its row; ``digest``, if
        given, is fed every byte read.  Any malformed line or an event id
        already in ``seen`` raises :class:`ProxyUnavailable` naming
        ``file:line``."""
        row = _NO_ROW
        try:
            for lineno, doc in read_jsonl(self.path, digest, start, end):
                try:
                    row = _checked(doc, row)
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


def _checked(doc: dict, previous: tuple) -> tuple:
    """The row ``(event_id, timestamp, host, entity_class, fields, links,
    moment)`` of an event line, with ``fields`` as read and ``moment``
    the timestamp parsed (:func:`parse_rfc3339`).  Checks, in this
    order, that ``fields`` is a JSON object, that ``links`` is a list of
    objects with ``verb`` and ``target``, that the four keys are present
    and that the timestamp is RFC 3339; a failed check raises a
    :class:`ValueError` saying what is wrong.  A timestamp that is the
    text of the ``previous`` line's takes that line's moment unparsed."""
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
    moment = previous[6] if timestamp == previous[1] else parse_rfc3339(timestamp)
    return event_id, timestamp, host, entity_class, fields, links, moment


_NO_ROW = (None,) * 7  # the ``previous`` row of a log's first line


def _event(row: tuple) -> Event:
    """The :class:`Event` of a checked row, its moment in microseconds.
    Its host is interned, so the events of a log share one string per
    host."""
    return Event(row[0], sys.intern(row[2]), (row[6] - _EPOCH) // _MICROSECOND, row[5])


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


# The fewest bytes of log each range of a split read holds, whole or
# filtered.  A split read waits for its child, so it is only as fast as
# the second CPU is free, and that swings with the host's load.  On two
# shared vCPUs (Python 3.11, `wilee hunt` on prefixes of the
# `hunt_scale` seed-1 log, 11 interleaved pairs) the split won 0 of 11
# pairs at 3.8 and 8 MB and 4 of 11 at 10 MB in one series, 5 of 5 at
# 3.8 MB in another, and every pair at 12 MB and above, by 14-40 %.
# Ranges of 8 MiB keep logs under 16 MiB serial, clear of that
# crossover.
_RANGE_BYTES = 8 << 20


def _cut(path: Path) -> Optional[tuple[int, int]]:
    """``(cut, size)`` where a read splits the log in two: the first
    line start at or after half the file's size, and that size as this
    call sees it.  ``None``, one serial read, where the log is under two
    :data:`_RANGE_BYTES` or cannot be read, the line at its middle runs
    to its end, fewer than two CPUs are usable (:func:`_cpus`), another
    thread is alive, or there is no ``os.fork``."""
    try:
        size = path.stat().st_size
        if size < 2 * _RANGE_BYTES or _cpus() < 2 or not hasattr(os, "fork") or threading.active_count() != 1:
            return None
        with open(path, "rb") as handle:
            handle.seek(size // 2 - 1)
            handle.readline()  # to the end of the line that holds the middle
            cut = handle.tell()
    except OSError:  # the serial read raises its own error
        return None
    return (cut, size) if cut < size else None


def _cpus() -> float:
    """How many CPUs this process may use: those it may run on, but no
    more than its cgroup's CPU quota allows (:func:`_quota_cpus`)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    quota = _quota_cpus()
    return cpus if quota is None else min(cpus, quota)


# The cgroup file system root, where :func:`_quota_cpus` reads the quota.
_CGROUP = Path("/sys/fs/cgroup")


def _quota_cpus() -> Optional[float]:
    """The CPUs the CPU quota of this process's cgroup allows: cgroup
    v2's ``cpu.max`` (``"<quota> <period>"``, or ``"max ..."`` for
    none) or, where that file does not exist, cgroup v1's
    ``cpu/cpu.cfs_quota_us`` (-1 for none) over ``cpu/cpu.cfs_period_us``.
    ``None`` if there is no quota, or no file can be read or parsed."""
    try:
        try:
            quota, period = (_CGROUP / "cpu.max").read_text().split()
        except FileNotFoundError:
            quota = (_CGROUP / "cpu" / "cpu.cfs_quota_us").read_text().strip()
            period = (_CGROUP / "cpu" / "cpu.cfs_period_us").read_text()
        if quota in ("max", "-1"):
            return None
        cpus = int(quota) / int(period)
    except (OSError, ValueError, ZeroDivisionError):
        return None
    return cpus if cpus > 0 else None


# The most event ids in one pickle a child sends.  A pickler's memo
# holds every object of its pickle: 24 MB for one list of 500k ids.  On
# the `hunt_scale` seed-1 log (Python 3.11), 8,192 ids a pickle keep this
# process's peak RSS at 55.0 MB for a whole read and 31.0 MB for a hunt,
# against 57.5 and 34.0 MB at 65,536.
_IDS_PER_PICKLE = 1 << 13


def _forked(read: Callable[..., object], start: int, end: int) -> tuple[int, int]:
    """``(pid, pipe)`` of a forked child that reads one range with ``read``
    (see :meth:`NdjsonProxy._load`), sends its reply into the pipe and
    exits.  The reply is what ``read`` returns, as one pickle, so that an
    object it holds more than once, such as an :class:`Event` that
    several hit lists hold, is sent once; then the event ids of the range
    as lists of at most :data:`_IDS_PER_PICKLE`; then an empty list.  The
    child never returns from this call; if it fails, it exits before the
    empty list."""
    pipe, sink = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(pipe)
        os.close(sink)
        raise
    if pid:
        os.close(sink)
        return pid, pipe
    status = 1
    try:
        os.close(pipe)
        with open(sink, "wb") as out:
            seen: set[str] = set()
            pickle.dump(read(start, end, None, seen), out, pickle.HIGHEST_PROTOCOL)
            ids = iter(seen)
            while chunk := [*islice(ids, _IDS_PER_PICKLE)]:
                pickle.dump(chunk, out, pickle.HIGHEST_PROTOCOL)
            pickle.dump([], out, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _received(pipe: int, seen: set[str]):
    """The result a forked child sent into ``pipe`` (see :func:`_forked`),
    or ``None`` if its reply did not end with the empty list or one of
    its id batches holds an event id in ``seen``.  Leaves the pipe
    open."""
    try:
        with open(pipe, "rb", closefd=False) as source:
            result = pickle.load(source)
            for ids in iter(partial(pickle.load, source), []):
                if not seen.isdisjoint(ids):
                    return None
    except (EOFError, pickle.UnpicklingError):  # the child failed
        return None
    return result


class _Part:
    """The whole read's columns of one range of the log: ``classes`` the
    :class:`_Class` of each entity class it holds; ``hosts`` each
    distinct host, in the order of first sight."""

    __slots__ = ("classes", "hosts")

    def __init__(self):
        self.classes: dict[str, _Class] = {}
        self.hosts: list[str] = []

    def events(self, held: _Class, positions: Iterable[int], out: list[Event]) -> None:
        """Appends to ``out`` the :class:`Event` at each of ``held``'s
        ``positions``, each built on its first request and kept for the
        proxy's lifetime."""
        made = held.events
        hosts, ids, moments, links = self.hosts, held.ids, held.moments, held.links
        append = out.append
        for i in positions:
            event = made.get(i)
            if event is None:
                event = made[i] = Event(ids[i], hosts[held.hosts[i]], moments[i], links.get(i, ()))
            append(event)


class _Class:
    """The events of one entity class in one :class:`_Part`, as columns
    in log order: ``ids`` their event ids; ``moments`` their moments, an
    ``array('q')`` of eight bytes per event, which a split read's child
    pickles as raw bytes; ``hosts`` codes into the part's list of hosts;
    ``links`` the links of each event that has some, by position; and
    ``fields`` each field's ``(texts, codes)``, where event ``i`` holds
    ``texts[codes[i]]`` (a value that is not a string as its JSON text)
    and code 0 means it lacks the field.  ``hosts`` and each field's
    ``codes`` are ``array('I')``, four bytes per event.  ``events`` holds
    the :class:`Event` of each position built so far."""

    __slots__ = ("ids", "moments", "hosts", "links", "fields", "events")

    def __init__(self):
        self.ids: list[str] = []
        self.moments = array("q")
        self.hosts = array("I")
        self.links: dict[int, tuple] = {}
        self.fields: dict[str, tuple] = {}
        self.events: dict[int, Event] = {}


def _keep_columns(part: _Part, hosts: dict[str, int]) -> Callable[[tuple], None]:
    """Appends each row to the columns of its class in ``part``, with its
    moment in microseconds, converted once for each run of rows that
    share one parsed moment (see :func:`_checked`), and its host coded
    into ``hosts``, a map of each host to its code.  While the read runs,
    a field's ``texts`` is a map of each text to its code, counted from
    1; :meth:`NdjsonProxy._read_part` turns it and ``hosts`` into lists
    when the range ends."""
    classes = part.classes
    dumps = json.dumps
    last, micros = None, 0  # the previous row's parsed moment, in microseconds

    def keep(row: tuple) -> None:
        nonlocal last, micros
        event_id, _, host, entity_class, fields, links, moment = row
        held = classes.get(entity_class)
        if held is None:
            held = classes[entity_class] = _Class()
        ids = held.ids
        at = len(ids)
        ids.append(event_id)
        if moment is not last:
            last, micros = moment, (moment - _EPOCH) // _MICROSECOND
        held.moments.append(micros)
        code = hosts.get(host)
        if code is None:
            code = hosts[host] = len(hosts)
        held.hosts.append(code)
        if links:
            held.links[at] = links
        columns = held.fields
        for var, value in fields.items():
            if not isinstance(value, str):
                value = dumps(value)
            column = columns.get(var)
            if column is None:
                column = columns[var] = ({}, array("I", [0]) * at)
            texts, codes = column
            code = texts.get(value)
            if code is None:
                code = texts[value] = len(texts) + 1
            codes.append(code)
        if len(fields) != len(columns):
            for _, codes in columns.values():
                if len(codes) == at:
                    codes.append(0)  # the event lacks the field

    return keep


def _keep_hits(hits: dict[Key, list[Event]]) -> Callable[[tuple], None]:
    """Appends a row's event to the list of each key whose filter its
    fields pass; an :class:`Event` is built only for such a row.

    The keys of a class share their predicates: each distinct predicate
    is one bit, and a key is the mask of its predicates (the empty filter
    0).  A row's verdict is the union of the bits its field texts pass,
    one dict lookup per filtered field (see :func:`_field_verdicts`),
    where a glob field remembers the verdicts of up to
    :data:`_MEMO_LIMIT` texts.  The row goes to every key whose mask the
    verdict covers, and the keys of each verdict are remembered, up to
    :data:`_MEMO_LIMIT` verdicts."""
    predicates: dict[str, dict[tuple, int]] = {}  # class -> predicate -> bit
    masks: dict[str, list[tuple[int, list[Event]]]] = {}
    for (entity_class, filt), found in hits.items():
        bits = predicates.setdefault(entity_class, {})
        mask = 0
        for predicate in filt:
            mask |= 1 << bits.setdefault(predicate, len(bits))
        masks.setdefault(entity_class, []).append((mask, found))
    plans = {cls: (_field_verdicts(bits), masks[cls], {}) for cls, bits in predicates.items()}
    dumps = json.dumps

    def keep(row: tuple) -> None:
        plan = plans.get(row[3])
        if plan is None:
            return
        verdicts, keys, routes = plan
        fields = row[4]
        have = 0
        for var, known, fill in verdicts:
            if var in fields:
                value = fields[var]
                if type(value) is not str:
                    value = dumps(value)
                mask = known.get(value)
                if mask is None:
                    if fill is None:
                        continue
                    if len(known) >= _MEMO_LIMIT:
                        known.clear()
                    mask = known[value] = fill(value)
                have |= mask
        targets = routes.get(have)
        if targets is None:
            if len(routes) >= _MEMO_LIMIT:
                routes.clear()
            targets = routes[have] = [found for mask, found in keys if mask & have == mask]
        if targets:
            event = _event(row)
            for found in targets:
                found.append(event)

    return keep


# The most field texts a filtered read keeps the verdict of, per field a
# glob tests, and the most verdicts it keeps the keys of, per class.  A
# full memo is emptied and filled again, so a field of many distinct
# texts costs a bounded memo and at worst one test per glob and line.
_MEMO_LIMIT = 4096


def _field_verdicts(bits: dict[tuple, int]) -> list[tuple[str, dict[str, int], Optional[Callable[[str], int]]]]:
    """``(variable, verdicts, fill)`` for each field the predicates of
    ``bits`` (predicate -> bit) test, for both reads: ``verdicts`` maps a
    field text to the mask of every predicate on that field that it
    passes.  A field with exact values only has every verdict from the
    start and no ``fill``.  For a field a glob tests, ``verdicts`` starts
    empty and ``fill`` is a pure function from a text to its verdict,
    testing each distinct glob of the field once; a caller that sees a
    text more than once keeps what ``fill`` gives in ``verdicts``."""
    by_field: dict[str, list[tuple[int, frozenset, tuple]]] = {}
    for (var, exact, globs), bit in bits.items():
        by_field.setdefault(var, []).append((1 << bit, exact, globs))
    out = []
    for var, tests in by_field.items():
        exact_masks: dict[str, int] = {}
        glob_masks: dict[str, int] = {}
        for flag, exact, globs in tests:
            for value in exact:
                exact_masks[value] = exact_masks.get(value, 0) | flag
            for glob in globs:
                glob_masks[glob] = glob_masks.get(glob, 0) | flag
        if glob_masks:
            out.append((var, {}, _glob_fill(exact_masks, list(glob_masks.items()))))
        else:
            out.append((var, exact_masks, None))
    return out


def _glob_fill(exact_masks: dict[str, int], glob_masks: list[tuple[str, int]]) -> Callable[[str], int]:
    def fill(text: str) -> int:
        mask = exact_masks.get(text, 0)
        for glob, flags in glob_masks:
            if flags & ~mask and glob_match(glob, text):
                mask |= flags
        return mask

    return fill


# A predicate as ``(variable, exact values, globs)``: the field holds when
# its value is one of the exact values or matches one of the globs.
Filter = tuple[tuple[str, frozenset, tuple], ...]
Key = tuple[str, Filter]  # (entity_class, filter)


def _candidates(pred: Predicate, db: IocDb) -> tuple[frozenset, tuple]:
    """Exact values and globs the predicate's field may take.  A bind's
    candidates carrying a ``*`` are globs, the rest exact values; each
    distinct bind is resolved once per database (``IocDb.resolved``)."""
    if isinstance(pred.value, BindSpec):
        spec = pred.value
        found = db.resolved.get(spec)
        if found is None:
            values = [r.value for r in resolve_bind(db, spec.ioc_type, spec.technique, spec.pattern)]
            found = db.resolved[spec] = (
                frozenset(v for v in values if "*" not in v),
                tuple(v for v in values if "*" in v),
            )
        return found
    if pred.op == "glob":
        return frozenset(), (pred.value,)
    return frozenset((pred.value,)), ()


def memo_key(q: QueryDescriptor, db: IocDb) -> Key:
    """The key a proxy keeps the descriptor's hits under: its class and
    its predicates with each bind resolved against ``db``."""
    return q.entity_class, tuple((p.variable, *_candidates(p, db)) for p in q.predicates)


def execute_all(descriptors: list[QueryDescriptor], proxy: NdjsonProxy, db: IocDb) -> dict[str, list[Event]]:
    """Each descriptor's hits, by qid: events of its entity class
    satisfying every predicate, in log order.  Descriptors with the
    same :func:`memo_key` share one hit list."""
    return {q.qid: proxy.hits(memo_key(q, db)) for q in descriptors}
