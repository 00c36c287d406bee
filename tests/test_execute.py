import copy
import dataclasses
import gc
import hashlib
import json
import os
import pickle
import pickletools
import random
import re
import tracemalloc
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

import pytest

from conftest import MALFORMED_EVENT_LINES, PlantedAttack, build_store, log_ending_with, synth_log, write_ndjson
from oracles import (
    _oracle_moment,
    _oracle_passes,
    oracle_execute,
    oracle_glob_match,
    oracle_micros,
    oracle_read_events,
    oracle_read_jsonl,
)

import wilee.hunt.proxy
from wilee.dsl import ThreatDescription
from wilee.globmatch import glob_match
from wilee.hunt import (
    Event,
    NdjsonProxy,
    ProxyUnavailable,
    execute_all,
    memo_key,
    parse_rfc3339,
    schedule,
)
from wilee.hunt.query import BindSpec, Predicate, QueryDescriptor
from wilee.interpreter import concretize
from wilee.stores import FormatError, IocDb, IocRecord, read_jsonl

LOGS = sorted((Path(__file__).parent / "fixtures" / "logs").glob("*.ndjson"))


def make_descriptor(entity_class, predicates):
    return QueryDescriptor(
        qid="q0",
        entity_class=entity_class,
        object_var="x1",
        predicates=tuple(predicates),
        relations=(),
        step_index=0,
        impl_id="impl0",
    )


# ---------------------------------------------------------------------------
# Glob semantics
# ---------------------------------------------------------------------------


def test_putty_glob_matches_simontatham_path():
    assert glob_match("Software\\*\\Putty\\Sessions", "Software\\SimonTatham\\Putty\\Sessions")


def test_windows_paths_compare_case_insensitively():
    assert glob_match("software\\*\\putty\\sessions", "SOFTWARE\\SimonTatham\\PUTTY\\Sessions")
    assert glob_match("C:\\Users\\*", "c:\\users\\alice")


def test_non_path_globs_stay_case_sensitive():
    assert glob_match("Trojan*", "TrojanSpy.Win32")
    assert not glob_match("trojan*", "TrojanSpy.Win32")


def test_star_matches_empty_run():
    assert glob_match("a*b", "ab")
    assert glob_match("*", "")


def test_glob_agrees_with_regex_oracle():
    rng = random.Random(2024)
    chars = "abAB\\*.|()[]锦 "
    for _ in range(3000):
        pattern = "".join(rng.choice(chars) for _ in range(rng.randrange(0, 10)))
        value = "".join(rng.choice(chars) for _ in range(rng.randrange(0, 12)))
        assert glob_match(pattern, value) == oracle_glob_match(pattern, value), (
            pattern,
            value,
        )


# ---------------------------------------------------------------------------
# execute
# ---------------------------------------------------------------------------


def test_eq_predicate_on_empty_log(tmp_path):
    log = tmp_path / "events.ndjson"
    log.write_text("", "utf-8")
    proxy = NdjsonProxy(log)
    descriptor = make_descriptor("Process", [Predicate("name", "eq", "x")])
    assert proxy.hits(memo_key(descriptor, IocDb())) == []


def test_glob_predicate_against_fixture_log():
    proxy = NdjsonProxy(LOGS[2])  # windows paths log sorts last alphabetically
    descriptor = make_descriptor(
        "WinRegistryKey",
        [Predicate("Hive", "glob", "Software\\*\\Putty\\Sessions")],
    )
    # w3 has no middle path component at all, so the two fixed
    # backslashes around the * cannot both be present.
    got = [e.event_id for e in proxy.hits(memo_key(descriptor, IocDb()))]
    assert got == ["w1", "w2"]


def test_bind_predicate_matches_any_candidate():
    proxy = NdjsonProxy(LOGS[1])  # process mix
    db = IocDb(
        (
            IocRecord("process_name", "TrojanSpy.Win32.TRICKBOT.AZ", "T1552.002"),
            IocRecord("process_name", "explorer.exe", None),
        )
    )
    descriptor = make_descriptor(
        "Process", [Predicate("name", "eq", BindSpec("process_name"))]
    )
    got = {e.event_id for e in proxy.hits(memo_key(descriptor, db))}
    assert got == {"p3", "p5"}


def test_bind_with_no_candidates_matches_nothing():
    proxy = NdjsonProxy(LOGS[1])
    descriptor = make_descriptor(
        "Process", [Predicate("name", "eq", BindSpec("process_name"))]
    )
    assert proxy.hits(memo_key(descriptor, IocDb())) == []


def _process_log(tmp_path, names):
    log = tmp_path / "events.ndjson"
    log.write_text(
        "".join(
            json.dumps(
                {
                    "event_id": f"p{i}",
                    "timestamp": "2026-01-01T00:00:00Z",
                    "host": "h",
                    "entity_class": "Process" if i % 3 else "File",
                    "fields": {"name": name},
                }
            )
            + "\n"
            for i, name in enumerate(names)
        ),
        "utf-8",
    )
    return NdjsonProxy(log)


def test_bind_resolved_once_per_execute(tmp_path, monkeypatch):
    names = ["explorer.exe", "TrojanSpy.A", "svchost.exe", "cmd.exe"] * 50
    proxy = _process_log(tmp_path, names)
    db = IocDb(
        (
            IocRecord("process_name", "Trojan*"),
            IocRecord("process_name", "cmd.exe"),
        )
    )
    calls = []
    original = wilee.hunt.proxy.resolve_bind

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(wilee.hunt.proxy, "resolve_bind", counting)
    descriptor = make_descriptor("Process", [Predicate("name", "eq", BindSpec("process_name"))])
    got = [e.event_id for e in proxy.hits(memo_key(descriptor, db))]
    assert len(calls) == 1
    assert got == [
        f"p{i}" for i, name in enumerate(names) if i % 3 and name in ("TrojanSpy.A", "cmd.exe")
    ]


def test_scan_returns_a_fresh_list_of_the_class_in_log_order(tmp_path):
    proxy = _process_log(tmp_path, ["a", "b", "c", "d", "e", "f", "g"])
    first = proxy.scan("Process")
    assert [e.event_id for e in first] == ["p1", "p2", "p4", "p5"]
    first.clear()
    assert [e.event_id for e in proxy.scan("Process")] == ["p1", "p2", "p4", "p5"]
    assert [e.event_id for e in proxy.scan("File")] == ["p0", "p3", "p6"]
    assert proxy.scan("Mutex") == []


def test_missing_field_never_matches():
    proxy = NdjsonProxy(LOGS[0])  # edge cases: e3 has empty fields
    descriptor = make_descriptor("DnsQuery", [Predicate("query_name", "glob", "*")])
    got = {e.event_id for e in proxy.hits(memo_key(descriptor, IocDb()))}
    assert got == {"e1", "e2"}


def test_proxy_unavailable_on_missing_file(tmp_path):
    with pytest.raises(ProxyUnavailable):
        NdjsonProxy(tmp_path / "nope.ndjson")


def test_proxy_unavailable_on_malformed_json(tmp_path):
    log = tmp_path / "bad.ndjson"
    log.write_text('{"event_id": "a"\n', "utf-8")
    with pytest.raises(ProxyUnavailable, match="bad.ndjson:1"):
        NdjsonProxy(log)


def test_proxy_rejects_duplicate_event_ids(tmp_path):
    line = json.dumps(
        {
            "event_id": "dup",
            "timestamp": "2026-01-01T00:00:00Z",
            "host": "h",
            "entity_class": "Process",
            "fields": {},
        }
    )
    log = tmp_path / "dup.ndjson"
    log.write_text(line + "\n" + line + "\n", "utf-8")
    with pytest.raises(ProxyUnavailable, match="duplicate"):
        NdjsonProxy(log)


def _random_descriptor(rng, classes_in_logs, ioc_records):
    entity_class = rng.choice(classes_in_logs)
    fields_by_class = {
        "WinRegistryKey": ["Hive"],
        "File": ["path", "extension"],
        "Process": ["name", "command_line", "pid", "user"],
        "DnsQuery": ["query_name"],
        "NetworkConnection": ["dst_ip", "dst_port"],
        "Mutex": ["mutex_name"],
    }
    predicates = []
    for _ in range(rng.randrange(0, 3)):
        variable = rng.choice(fields_by_class[entity_class])
        roll = rng.random()
        if roll < 0.4:
            value = rng.choice(
                [
                    "Software\\*\\Putty\\Sessions",
                    "*powershell*",
                    "Trojan*",
                    "*.zip",
                    "C:\\*",
                    "*example*",
                    "*",
                    "Global\\*",
                    "*43",
                ]
            )
            predicates.append(Predicate(variable, "glob", value))
        elif roll < 0.8:
            value = rng.choice(
                [
                    "TrojanSpy.Win32.TRICKBOT.AZ",
                    "explorer.exe",
                    "updates.example.com",
                    "10.1.2.3",
                    "443",
                    "zip",
                    "",
                ]
            )
            predicates.append(Predicate(variable, "eq", value))
        else:
            spec = BindSpec(
                rng.choice(("process_name", "registry_hive", "domain", "file_path")),
                technique=rng.choice((None, "T1552.002")),
                pattern=rng.choice((None, "*a*", "Troj*")),
            )
            predicates.append(Predicate(variable, "eq", spec))
    return make_descriptor(entity_class, predicates)


def test_execute_equals_regex_scan_oracle_on_all_logs():
    rng = random.Random(112358)
    ioc_records = [
        IocRecord("process_name", "TrojanSpy.Win32.TRICKBOT.AZ", "T1552.002"),
        IocRecord("process_name", "powershell.exe", None),
        IocRecord("registry_hive", "Software\\SimonTatham\\Putty\\Sessions", "T1552.002"),
        IocRecord("domain", "updates.example.com", None),
        IocRecord("file_path", "C:\\Users\\alice\\Downloads\\invoice.zip", None),
    ]
    db = IocDb(tuple(ioc_records))
    classes = ["WinRegistryKey", "File", "Process", "DnsQuery", "NetworkConnection", "Mutex"]
    for log_path in LOGS:
        proxy = NdjsonProxy(log_path)
        raw_events = [
            json.loads(line)
            for line in log_path.read_text("utf-8").splitlines()
            if line.strip()
        ]
        for _ in range(120):
            descriptor = _random_descriptor(rng, classes, ioc_records)
            got = [e.event_id for e in proxy.hits(memo_key(descriptor, db))]
            expected = oracle_execute(descriptor, raw_events, ioc_records)
            assert got == expected, (log_path.name, descriptor)


def test_log_line_may_hold_a_raw_line_separator(tmp_path):
    value = "a\u2028b\u0085c\u2029d"
    doc = {
        "event_id": "e1",
        "timestamp": "2026-01-01T00:00:00Z",
        "host": "h",
        "entity_class": "Process",
        "fields": {"name": value},
    }
    log = tmp_path / "events.ndjson"
    log.write_text(json.dumps(doc, ensure_ascii=False) + "\r\n", "utf-8")
    assert "\u2028" in log.read_text("utf-8")
    key = ("Process", (("name", frozenset({value}), ()),))
    for proxy in (NdjsonProxy(log), NdjsonProxy(log, [key])):
        assert [e.event_id for e in proxy.hits(key)] == ["e1"]


# ---------------------------------------------------------------------------
# execute_all: one scan per distinct query per proxy
# ---------------------------------------------------------------------------

# Object specs the random variants draw from, so that variants of
# different steps share queries.  Each spec is a class and its
# predicates as DSL assignments (none for a predicate-free object).
_OBJECT_SPECS = (
    ("Process", ()),
    ("Process", (("name", '"svchost.exe"'),)),
    ("Process", (("name", '"*.exe"'),)),
    ("Process", (("name", "bind(ioc_type=process_name)"),)),
    ("Process", (("name", "bind(ioc_type=process_name, pattern=\"*e*\")"), ("pid", '"4*"'))),
    ("Process", (("command_line", "bind(ioc_type=command_line, technique=\"T1059.001\")"),)),
    ("WinRegistryKey", ()),
    ("WinRegistryKey", (("Hive", '"*Putty*"'),)),
    ("WinRegistryKey", (("Hive", "bind(ioc_type=registry_hive, technique=\"T1552.002\")"),)),
    ("File", (("path", '"C:*"'),)),
    ("NetworkConnection", (("dst_port", '"443"'),)),
    ("NetworkConnection", (("dst_port", "bind(ioc_type=domain)"),)),
)


def _random_variant(rng, technique):
    lines = [f"def {technique.lower().replace('.', '_')}():"]
    for i, (cls, predicates) in enumerate(rng.sample(_OBJECT_SPECS, rng.randrange(1, 4))):
        var = f"{cls.lower()}{i + 1}"
        lines.append(f"    {var} = {cls}()")
        lines.extend(f"    {var}.{attribute} = {value}" for attribute, value in predicates)
    return "\n".join(lines) + "\n"


def _ioc_dbs():
    """Two databases under which the same binds resolve differently."""
    first = IocDb(
        (
            IocRecord("process_name", "svchost.exe"),
            IocRecord("process_name", "Trojan*", "T1552.002"),
            IocRecord("registry_hive", "*Putty*", "T1552.002"),
            IocRecord("command_line", 'Get-Process -Name "powershell" | Stop-Process', "T1059.001"),
            IocRecord("domain", "443"),
        )
    )
    second = IocDb(
        (
            IocRecord("process_name", "explorer.exe"),
            IocRecord("process_name", "chrome*"),
            IocRecord("registry_hive", "Software\\Policies\\Microsoft\\Edge", "T1552.002"),
            IocRecord("registry_hive", "*Run", "T1552.002"),
            IocRecord("command_line", "*", "T1059.001"),
            IocRecord("domain", "53"),
        )
    )
    return first, second


def test_execute_all_shared_hits_equal_oracle_per_qid(model, tmp_path):
    rng = random.Random(20261018)
    events = synth_log(rng, 600, PlantedAttack.build().events)
    proxy = NdjsonProxy(write_ndjson(tmp_path / "events.ndjson", events))
    techniques = ("T1552.002", "T1059.001", "T1003.001")
    first, second = _ioc_dbs()
    differs = False
    for trial in range(4):
        store = build_store(
            model,
            [(t, (), "SME", _random_variant(rng, t)) for t in techniques for _ in range(3)],
        )
        impls = concretize(ThreatDescription.from_steps(f"d{trial}", list(techniques)), store).implementations
        per_impl = [schedule(impl, model) for impl in impls]
        # The second database between two passes with the first: a memo
        # keyed without the resolved candidates would serve stale hits.
        passes = []
        for db in (first, second, first):
            hits = {}
            for descriptors in per_impl:
                results = execute_all(descriptors, proxy, db)
                assert set(results) == {q.qid for q in descriptors}
                for q in descriptors:
                    hits[q.qid] = results[q.qid]
                    assert [e.event_id for e in hits[q.qid]] == oracle_execute(q, events, db.records), (trial, q)
            assert len({id(h) for h in hits.values()}) < len(hits)  # some qids share a list
            passes.append({qid: [e.event_id for e in h] for qid, h in hits.items()})
        assert passes[0] == passes[2]
        differs |= passes[0] != passes[1]
    assert differs


class _CountingProxy(NdjsonProxy):
    """An :class:`NdjsonProxy` that counts its reads of the log."""

    scans = 0

    def _read(self, *args):
        self.scans += 1
        super()._read(*args)


def test_execute_all_scans_each_distinct_filter_once_per_proxy(tmp_path):
    rows = [("Process", "cmd.exe"), ("Process", "svchost.exe"), ("Process", "Trojan.A"), ("File", "cmd.exe"),
            ("Process", "cmd.exe")]
    events = [
        {"event_id": f"p{i}", "timestamp": "2026-01-01T00:00:00Z", "host": "h", "entity_class": cls,
         "fields": {"name": name}}
        for i, (cls, name) in enumerate(rows)
    ]
    path = write_ndjson(tmp_path / "events.ndjson", events)
    # Seeded with no key, every distinct filter costs one more read.
    proxy = _CountingProxy(path, ())
    assert proxy.scans == 1
    bind = make_descriptor("Process", [Predicate("name", "eq", BindSpec("process_name"))])
    literal = make_descriptor("Process", [Predicate("name", "eq", "cmd.exe")])
    first = IocDb((IocRecord("process_name", "cmd.exe"),))
    second = IocDb((IocRecord("process_name", "Trojan*"),))

    def run(descriptor, db, n):
        # n implementations asking the same query, each in its own call
        # as the hunt makes them
        return [
            execute_all([dataclasses.replace(descriptor, qid=f"q{i}", impl_id=f"impl{i}")], proxy, db)[f"q{i}"]
            for i in range(n)
        ]

    hits = run(bind, first, 5)
    assert proxy.scans == 2
    assert all(h is hits[0] for h in hits)
    assert [e.event_id for e in hits[0]] == ["p0", "p4"]
    # A literal with the same value is the same filter.
    assert run(literal, IocDb(), 3)[0] is hits[0]
    assert proxy.scans == 2
    # The same bind resolved against another database is another filter.
    assert [e.event_id for e in run(bind, second, 4)[0]] == ["p2"]
    assert proxy.scans == 3
    run(bind, first, 2)
    assert proxy.scans == 3
    # A lookup by key shares the memoised list.
    assert proxy.hits(memo_key(bind, first)) is hits[0]
    assert proxy.scans == 3
    # Another proxy over the same log has its own memo.
    other = _CountingProxy(path, ())
    assert execute_all([bind], other, first)[bind.qid] == hits[0]
    assert other.scans == 2
    # A whole read answers every filter from its class lists, without
    # reading the log again.
    whole = _CountingProxy(path)
    assert execute_all([bind], whole, first)[bind.qid] == hits[0]
    assert whole.hits(memo_key(bind, second)) == run(bind, second, 1)[0]
    assert whole.hits(memo_key(literal, IocDb())) is whole.hits(memo_key(bind, first))
    assert whole.scans == 1


# ---------------------------------------------------------------------------
# The filtered read: one pass over the log that keeps only hits
# ---------------------------------------------------------------------------


def _seeded(proxy):
    """The hit lists a proxy holds now, by key."""
    return dict(proxy._hits)


def _assert_filtered_read_equals_execute(path, descriptors, db, classes):
    full = NdjsonProxy(path)
    keys = [memo_key(q, db) for q in descriptors]
    filtered = NdjsonProxy(path, keys)
    seeded = _seeded(filtered)
    assert list(seeded) == list(dict.fromkeys(keys))
    results = execute_all(descriptors, filtered, db)
    for q, key in zip(descriptors, keys):
        assert seeded[key] == full.hits(memo_key(q, db)), q
        assert results[q.qid] is seeded[key]  # served from the seeded memo
    for cls in classes:
        assert filtered.scan(cls) == full.scan(cls), cls
    return seeded


def test_filtered_read_hand_cases(tmp_path):
    def event(event_id, cls, **doc):
        return {"event_id": event_id, "timestamp": "2026-01-01T00:00:00Z", "host": "h", "entity_class": cls, **doc}

    events = [
        event("e1", "Process", fields={"name": "cmd.exe", "pid": 4242}),
        event("e2", "Process", fields={"name": "svc*host", "pid": "4242"}),
        event("e3", "Process", fields={}),
        event("e4", "Process"),
        event("e5", "Process", fields={"name": None, "pid": [1, 2]}, links=[{"verb": "has", "target": "e6"}]),
        event("e6", "File", fields={"path": "C:\\x", "size": 1.5}),
        event("e7", "WinRegistryKey", fields={"Hive": "Software\\A\\Putty\\Sessions"}),
        event("e8", "Process", fields={"name": True, "pid": {"n": 1}}),
    ]
    path = write_ndjson(tmp_path / "events.ndjson", events)
    db = IocDb((IocRecord("process_name", "svc*"), IocRecord("process_name", "cmd.exe")))
    cases = [
        ([Predicate("pid", "eq", "4242")], ["e1", "e2"]),  # a number as its JSON text
        ([], ["e1", "e2", "e3", "e4", "e5", "e8"]),  # the empty filter
        ([Predicate("name", "glob", "*")], ["e1", "e2", "e5", "e8"]),  # a missing field never passes
        ([Predicate("name", "eq", BindSpec("process_name"))], ["e1", "e2"]),  # a bind candidate with a *
        ([Predicate("pid", "eq", "[1, 2]")], ["e5"]),
        ([Predicate("name", "eq", "null"), Predicate("pid", "glob", "[*")], ["e5"]),
        ([Predicate("name", "eq", "true"), Predicate("pid", "eq", '{"n": 1}')], ["e8"]),
        ([Predicate("name", "eq", "svc*host")], ["e2"]),
    ]
    descriptors = [
        dataclasses.replace(make_descriptor("Process", predicates), qid=f"q{i}")
        for i, (predicates, _) in enumerate(cases)
    ]
    registry = make_descriptor("WinRegistryKey", [Predicate("Hive", "glob", "Software\\*\\Putty\\Sessions")])
    descriptors.append(dataclasses.replace(registry, qid="qr"))
    seeded = _assert_filtered_read_equals_execute(path, descriptors, db, ["Process", "File", "WinRegistryKey", "Mutex"])
    for q, (_, expected) in zip(descriptors, cases):
        assert [e.event_id for e in seeded[memo_key(q, db)]] == expected, q.predicates
    assert [e.event_id for e in seeded[memo_key(descriptors[-1], db)]] == ["e7"]
    assert seeded[memo_key(descriptors[4], db)][0].links == (("has", "e6"),)


_NON_STRINGS = (4242, 1.5, ["a", 1], None, True, {"k": "v"})
_FIELDS = {
    "Process": ("name", "pid", "command_line", "user"),
    "WinRegistryKey": ("Hive",),
    "File": ("path", "size"),
    "NetworkConnection": ("dst_ip", "dst_port", "protocol"),
}
_VALUES = (
    "explorer.exe", "svchost.exe", "*.exe", "*host*", "4242", "443", "tcp", "null", "true", "1.5",
    '["a", 1]', '{"k": "v"}', "*", "Software\\*", "*Run", "C:\\Users\\*", "",
)
_DIFF_DB = IocDb(
    (
        IocRecord("process_name", "svc*"),
        IocRecord("process_name", "explorer.exe"),
        IocRecord("process_name", "4242"),
        IocRecord("registry_hive", "Software\\*\\Edge"),
        IocRecord("file_path", "C:\\Users\\u1*"),
        IocRecord("domain", "443"),
    )
)


def _irregular(rng, doc, ids):
    """``doc`` with, now and then, a value that is not a string, a field
    dropped, empty or missing ``fields``, a link, or a class no query
    asks for."""
    fields = dict(doc["fields"])
    roll = rng.random()
    if roll < 0.15:
        fields[rng.choice(list(fields))] = rng.choice(_NON_STRINGS)
    elif roll < 0.2:
        del fields[rng.choice(list(fields))]
    elif roll < 0.25:
        fields = {}
    doc = {**doc, "fields": fields}
    roll = rng.random()
    if roll < 0.05:
        del doc["fields"]
    elif roll < 0.1:
        doc["entity_class"] = "Mutex"
    elif roll < 0.15 and ids:
        doc["links"] = [{"verb": "observed", "target": rng.choice(ids)}]
    return doc


def _differential_descriptor(rng, i):
    cls = rng.choice(list(_FIELDS))
    predicates = []
    for _ in range(rng.choice((0, 1, 1, 2))):
        var = rng.choice(_FIELDS[cls])
        roll = rng.random()
        if roll < 0.2:
            spec = BindSpec(rng.choice(("process_name", "registry_hive", "file_path", "domain")),
                            pattern=rng.choice((None, None, "*e*")))
            predicates.append(Predicate(var, "eq", spec))
        else:
            value = rng.choice(_VALUES)
            predicates.append(Predicate(var, "glob" if "*" in value else "eq", value))
    return dataclasses.replace(make_descriptor(cls, predicates), qid=f"q{i}")


def test_filtered_read_equals_execute_on_random_logs(tmp_path):
    rng = random.Random(20261019)
    path = tmp_path / "events.ndjson"
    classes = [*_FIELDS, "Mutex", "DnsQuery"]
    several_on_one_class = hits = 0
    for trial in range(200):
        events = []
        for doc in synth_log(rng, rng.randrange(0, 40)):
            events.append(_irregular(rng, doc, [e["event_id"] for e in events]))
        write_ndjson(path, events)
        # A repeated descriptor gives a repeated key.
        descriptors = [_differential_descriptor(rng, i) for i in range(rng.randrange(1, 7))]
        descriptors += descriptors[: rng.randrange(2)]
        seeded = _assert_filtered_read_equals_execute(path, descriptors, _DIFF_DB, classes)
        hits += sum(map(len, seeded.values()))
        per_class = [q.entity_class for q in descriptors]
        several_on_one_class += len(per_class) > len(set(per_class))
    assert several_on_one_class > 50 and hits > 500  # the filters do select


def _string_irregular(rng, doc):
    """``doc`` with, now and then, a field dropped, empty or missing
    ``fields``, or a class no query asks for; every value stays a string,
    as the reference scan reads only strings."""
    doc = {**doc, "fields": dict(doc["fields"])}
    roll = rng.random()
    if roll < 0.1:
        del doc["fields"][rng.choice(list(doc["fields"]))]
    elif roll < 0.15:
        doc["fields"] = {}
    elif roll < 0.2:
        del doc["fields"]
    elif roll < 0.25:
        doc["entity_class"] = "Mutex"
    return doc


def test_hits_agree_whole_seeded_and_missed_on_random_logs(tmp_path):
    """For every key, the whole read's hits, a filtered read's seeded
    hits, and a filtered read's hits for a key it was not seeded with
    (one more read of the log) equal the reference scan, in log order."""
    rng = random.Random(20261102)
    path = tmp_path / "events.ndjson"
    seeded_hits = missed_hits = 0
    for trial in range(300):
        events = [_string_irregular(rng, doc) for doc in synth_log(rng, rng.randrange(0, 40))]
        write_ndjson(path, events)
        descriptors = [_differential_descriptor(rng, i) for i in range(rng.randrange(1, 9))]
        keys = {q.qid: memo_key(q, _DIFF_DB) for q in descriptors}
        seeds = list(dict.fromkeys(key for key in keys.values() if rng.random() < 0.5))
        whole, filtered = NdjsonProxy(path), _CountingProxy(path, seeds)
        assert list(filtered._hits) == seeds
        for q in descriptors:
            key = keys[q.qid]
            expected = oracle_execute(q, events, _DIFF_DB.records)
            reads = filtered.scans
            missed = key not in filtered._hits
            got = filtered.hits(key)
            assert filtered.scans == reads + missed
            assert [e.event_id for e in whole.hits(key)] == expected, (trial, q)
            assert [e.event_id for e in got] == expected, (trial, q, missed)
            assert got == whole.hits(key)
            assert filtered.hits(key) is got  # a miss's hits are kept
            seeded_hits += len(got) * (not missed)
            missed_hits += len(got) * missed
    assert seeded_hits > 500 and missed_hits > 500, (seeded_hits, missed_hits)


# Field texts the shared-verdict tests draw from: few, so that many keys
# test the same texts, with texts that are the JSON text of another value
# and paths the globs read case-insensitively.
_SHARED_FIELDS = {"Process": ("name", "pid", "command_line"), "WinRegistryKey": ("Hive",), "File": ("path",)}
_SHARED_TEXTS = (
    "cmd.exe", "svchost.exe", "svc.exe", "4242", "true", "null", "", "1.5", '[1, "a"]', '{"k": 1}',
    "C:\\Users\\a.exe", "c:\\users\\A.EXE", "Software\\A\\Run",
)
_SHARED_NON_STRINGS = (4242, True, None, [1, "a"], {"k": 1}, 1.5)
_SHARED_GLOBS = ("*.exe", "svc*", "*", "C:\\Users\\*", "*Run", "4*", "[*", "*u*", "*.EXE")


def _shared_log(rng, n):
    """``n`` events whose fields hold few texts: now and then a value that
    is not a string, a missing field, no ``fields`` at all, or a class no
    key asks for."""
    events = []
    for i in range(n):
        cls = rng.choice([*_SHARED_FIELDS, "Mutex"])
        fields = {}
        for var in _SHARED_FIELDS.get(cls, ("name",)):
            roll = rng.random()
            if roll < 0.15:
                continue
            fields[var] = rng.choice(_SHARED_NON_STRINGS) if roll < 0.3 else rng.choice(_SHARED_TEXTS)
        doc = {"event_id": f"e{i}", "timestamp": "2026-03-01T07:00:00Z", "host": rng.choice("ab"), "entity_class": cls}
        if rng.random() < 0.95:
            doc["fields"] = fields
        events.append(doc)
    return events


def _shared_predicate(rng, var):
    """``(var, exact texts, globs)``: exact texts, globs, or both."""
    exact = frozenset(rng.sample(_SHARED_TEXTS, rng.randrange(3)))
    globs = tuple(rng.sample(_SHARED_GLOBS, rng.randrange(0 if exact else 1, 3)))
    return var, exact, globs


def _shared_keys(rng):
    """Keys drawn from a small pool of predicates per class, so that keys
    share fields and predicates: the empty filter, one predicate, several
    (on one field or on several, a predicate twice), a field the class
    never holds, and repeated keys."""
    keys = []
    for cls, variables in _SHARED_FIELDS.items():
        pool = [_shared_predicate(rng, rng.choice((*variables, "user"))) for _ in range(rng.randrange(1, 7))]
        for _ in range(rng.randrange(1, 9)):
            keys.append((cls, tuple(rng.choice(pool) for _ in range(rng.choice((0, 1, 1, 2, 2, 3))))))
    return keys + rng.choices(keys, k=rng.randrange(3))


def _exact_here_glob_there(keys) -> int:
    """How many texts are an exact value of one key's predicate and match
    a glob of another predicate on the same field of the same class."""
    count = 0
    for cls, filt in set(keys):
        for var, exact, _ in filt:
            for other_cls, other in set(keys):
                count += sum(
                    1
                    for other_var, other_exact, globs in other
                    if other_cls == cls and other_var == var and other_exact != exact
                    for text in exact
                    if any(oracle_glob_match(g, text) for g in globs)
                )
    return count


def test_filtered_read_shared_verdicts_equal_reference_read(tmp_path, monkeypatch):
    """The filtered read of many keys per class that share fields and
    predicates gives each key the reference read's hits, builds one
    :class:`Event` per kept line, shared by every key that keeps it, and
    gives the same hits when the verdict memo holds one text or two."""
    rng = random.Random(20261020)
    path = tmp_path / "events.ndjson"
    built = []
    make = wilee.hunt.proxy._event
    monkeypatch.setattr(wilee.hunt.proxy, "_event", lambda row: built.append(row[0]) or make(row))
    seen = Counter()
    for trial in range(200):
        write_ndjson(path, _shared_log(rng, rng.randrange(0, 120)))
        keys = _shared_keys(rng)
        monkeypatch.setattr(wilee.hunt.proxy, "_MEMO_LIMIT", rng.choice((1, 2, 4096)))
        _, expected, fault = oracle_read_events(path, keys)
        assert fault is None
        built.clear()
        filtered = NdjsonProxy(path, keys)
        seeded = _seeded(filtered)
        assert list(seeded) == list(dict.fromkeys(keys))
        shared = {}
        for key, found in seeded.items():
            assert _attributes(found) == _lean(expected[key]), (trial, key)
            for event in found:
                assert shared.setdefault(event.event_id, event) is event
        assert sorted(built) == sorted(shared), trial
        seen["hits"] += sum(map(len, seeded.values()))
        seen["empty_filter_keys"] += sum(1 for _, filt in seeded if not filt)
        seen["several_predicates"] += sum(1 for _, filt in seeded if len(filt) > 1)
        seen["exact_and_glob_on_one_field"] += sum(1 for _, filt in seeded for _, e, g in filt if e and g)
        seen["exact_here_glob_there"] += _exact_here_glob_there(seeded)
        seen["repeated_keys"] += len(keys) - len(seeded)
    assert min(seen.values()) > 250, seen


def test_filtered_read_tests_each_glob_once_per_distinct_text(tmp_path, monkeypatch):
    """Over a 3,000-line log whose filtered fields hold few texts, each
    glob of a field is tested at most once per distinct text of that
    field, however many keys hold it."""
    events = synth_log(random.Random(20261021), 3000)
    path = write_ndjson(tmp_path / "events.ndjson", events)
    name_globs, command_globs = ("*.exe", "svc*", "*host*"), ("*-k *", "*")
    keys = [
        ("Process", (("name", frozenset(), name_globs[:1]),)),
        ("Process", (("name", frozenset({"cmd.exe"}), name_globs),)),  # "*.exe" in two predicates
        ("Process", (("name", frozenset({"svchost.exe"}), ()), ("command_line", frozenset(), command_globs))),
        ("Process", (("command_line", frozenset(), command_globs[:1]), ("pid", frozenset({"4242", "100"}), ()))),
        ("Process", ()),
        ("WinRegistryKey", (("Hive", frozenset(), ("Software\\*",)),)),
    ]
    tested = Counter()
    glob_match_ = wilee.hunt.proxy.glob_match
    monkeypatch.setattr(
        wilee.hunt.proxy, "glob_match", lambda glob, text: tested.update([(glob, text)]) or glob_match_(glob, text)
    )
    filtered = NdjsonProxy(path, keys)
    texts = {var: {e["fields"][var] for e in events if var in e.get("fields", {})} for var in ("name", "command_line", "Hive")}
    assert max(tested.values()) == 1
    assert sum(tested.values()) <= len(name_globs) * len(texts["name"]) + len(command_globs) * len(
        texts["command_line"]
    ) + len(texts["Hive"]) < len(events)
    _, expected, _ = oracle_read_events(path, keys)
    for key in keys:
        assert _attributes(filtered.hits(key)) == _lean(expected[key]), key
    assert sum(map(len, expected.values())) > 1000


def test_filtered_read_verdict_memo_stays_bounded(tmp_path, monkeypatch):
    """A glob field of more distinct texts than the memo holds keeps at
    most ``_MEMO_LIMIT`` verdicts, and its hits stay the reference's."""
    events = synth_log(random.Random(20261022), 2000)  # about 700 distinct pids
    path = write_ndjson(tmp_path / "events.ndjson", events)
    keys = [("Process", (("pid", frozenset({"4242"}), ("1*", "*7")),)), ("Process", (("pid", frozenset(), ("*",)),))]
    monkeypatch.setattr(wilee.hunt.proxy, "_MEMO_LIMIT", 50)
    made = []
    field_verdicts = wilee.hunt.proxy._field_verdicts
    monkeypatch.setattr(wilee.hunt.proxy, "_field_verdicts", lambda bits: made.append(field_verdicts(bits)) or made[-1])
    filtered = NdjsonProxy(path, keys)
    ((var, memo, fill),) = made[0]
    assert var == "pid" and fill is not None and 0 < len(memo) <= 50
    assert len({e["fields"]["pid"] for e in events if "pid" in e["fields"]}) > 500
    _, expected, _ = oracle_read_events(path, keys)
    for key in keys:
        assert _attributes(filtered.hits(key)) == _lean(expected[key]), key

# ---------------------------------------------------------------------------
# The whole read's code scan
# ---------------------------------------------------------------------------

_INDEXED_FIELDS = {"Process": ("name", "pid"), "File": ("path", "size"), "WinRegistryKey": ("Hive",)}
# Field values of the logs: strings, backslash paths that differ only in
# case, and values that are not strings.
_LOG_VALUES = (
    "cmd.exe", "CMD.EXE", "svchost.exe", "4242", "", "*",
    "C:\\Users\\Alice\\a.exe", "c:\\users\\alice\\A.EXE", "Software\\Putty\\Sessions", "SOFTWARE\\PUTTY\\Sessions",
    4242, 1.5, True, False, None, [1, "a"], {"k": [None]},
)
# Predicate values: exact texts, the JSON text of values that are not
# strings, and globs.
_ASKED_VALUES = (
    "cmd.exe", "CMD.EXE", "4242", "", "C:\\Users\\Alice\\a.exe", "software\\putty\\sessions", "true", "null",
    "1.5", '[1, "a"]', '{"k": [null]}', "*", "*.exe", "c:\\users\\*", "Software\\*", "4*", "[*", "{*", "tru*", "*e*",
)
# Bind candidates, some of them holding a ``*``.
_INDEX_DB = IocDb(
    (
        IocRecord("process_name", "cmd.exe"),
        IocRecord("process_name", "svc*"),
        IocRecord("process_name", "4242"),
        IocRecord("file_path", "C:\\USERS\\*"),
        IocRecord("file_path", "1.5"),
        IocRecord("registry_hive", "software\\putty\\sessions"),
        IocRecord("registry_hive", "*\\Putty\\*"),
    )
)


def _index_log(rng, n):
    """``n`` events over the indexed classes and one no key asks for,
    their values drawn from a few of ``_LOG_VALUES``, each field now and
    then missing, and ``fields`` now and then absent."""
    values = rng.sample(_LOG_VALUES, rng.randrange(2, 8))
    events = []
    for i in range(n):
        cls = rng.choice([*_INDEXED_FIELDS, "Mutex"])
        fields = {var: rng.choice(values) for var in _INDEXED_FIELDS.get(cls, ("name",)) if rng.random() < 0.85}
        doc = {"event_id": f"e{i}", "timestamp": "2026-01-01T00:00:00Z", "host": rng.choice("ab"),
               "entity_class": cls, "fields": fields}
        if rng.random() < 0.05:
            del doc["fields"]
        events.append(doc)
    return events, values


def _index_descriptor(rng, i, logged):
    """A descriptor of 0 to 3 predicates, two of them on one field now and
    then, over a logged class or one the log never holds; half the exact
    values are the text of a ``logged`` value."""
    cls = rng.choice([*_INDEXED_FIELDS, *_INDEXED_FIELDS, "DnsQuery"])
    names = _INDEXED_FIELDS.get(cls, ("query_name",))
    binds = {"name": "process_name", "path": "file_path", "Hive": "registry_hive", "pid": "process_name"}
    predicates = []
    for _ in range(rng.choice((0, 1, 1, 2, 2, 3))):
        var = predicates[-1].variable if predicates and rng.random() < 0.3 else rng.choice(names)
        if var in binds and rng.random() < 0.25:
            predicates.append(Predicate(var, "eq", BindSpec(binds[var])))
        else:
            value = rng.choice(_ASKED_VALUES)
            if rng.random() < 0.5:
                value = rng.choice(logged)
                value = value if isinstance(value, str) else json.dumps(value)
            predicates.append(Predicate(var, "glob" if "*" in value else "eq", value))
    return dataclasses.replace(make_descriptor(cls, predicates), qid=f"q{i}")


def _as_text(doc):
    """``doc`` with each field value that is not a string replaced by its
    JSON text, the way a predicate reads it."""
    if "fields" not in doc:
        return doc
    return {**doc, "fields": {k: v if isinstance(v, str) else json.dumps(v) for k, v in doc["fields"].items()}}


def test_whole_read_code_scan_equals_passes_and_oracle_on_random_logs(tmp_path):
    """A whole proxy answers each key by scanning its code columns with
    the same events, in the same order, as the reference filter
    (``_oracle_passes``) over the class list and as the reference scan,
    and keeps each answer for the key's next request."""
    rng = random.Random(20261019)
    path = tmp_path / "events.ndjson"
    cases = hits = several = same_field = repeats = 0
    for trial in range(80):
        events, logged = _index_log(rng, rng.randrange(0, 100))
        write_ndjson(path, events)
        text_events = [_as_text(doc) for doc in events]
        docs = {doc["event_id"]: doc for doc in text_events}
        proxy = NdjsonProxy(path)
        descriptors = [_index_descriptor(rng, i, logged) for i in range(rng.randrange(3, 9))]
        asked = [*descriptors, *rng.choices(descriptors, k=rng.randrange(1, 4))]
        rng.shuffle(asked)
        answers = {}
        for q in asked:
            key = memo_key(q, _INDEX_DB)
            got = proxy.hits(key)
            reference = [
                e for e in proxy.scan(q.entity_class) if _oracle_passes(docs[e.event_id].get("fields", {}), key[1])
            ]
            assert got == reference, (trial, q.entity_class, key[1])
            assert [e.event_id for e in got] == oracle_execute(q, text_events, _INDEX_DB.records), (trial, q)
            if key in answers:
                assert got is answers[key]
                repeats += 1
            answers[key] = got
            cases += 1
            hits += len(got)
            several += len(got) > 1
            variables = [p.variable for p in q.predicates]
            same_field += len(variables) > len(set(variables))
    assert cases >= 300 and hits > 1000 and several > 100 and same_field > 100 and repeats > 100, (
        cases, hits, several, same_field, repeats
    )


def test_whole_read_keeps_nothing_but_the_answer_of_a_new_key(tmp_path):
    """A key on each (class, field) of a 20k-event ``synth_log`` that no
    event passes leaves, under ``tracemalloc``, at most 1 KB per key in
    a whole proxy: its memo entry and nothing per event or per text."""
    path = write_ndjson(tmp_path / "events.ndjson", synth_log(random.Random(20260301), 20_000))
    proxy = NdjsonProxy(path)
    keys = [(cls, ((var, frozenset({"x"}), ()),)) for cls, held in proxy._parts[0].classes.items() for var in held.fields]
    assert len(keys) >= 9
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for key in keys:
            assert proxy.hits(key) == []
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 1024 * len(keys), (retained, len(keys))


def test_whole_read_tests_each_glob_once_per_distinct_text(tmp_path, monkeypatch):
    """When a whole proxy answers a new key, each distinct glob of a field
    is tested at most once per distinct text of that field, however many
    predicates hold it, and a key of exact values only tests no glob."""
    events = synth_log(random.Random(20261023), 3000)
    path = write_ndjson(tmp_path / "events.ndjson", events)
    proxy = NdjsonProxy(path)
    tested = Counter()
    glob_match_ = wilee.hunt.proxy.glob_match
    monkeypatch.setattr(
        wilee.hunt.proxy, "glob_match", lambda glob, text: tested.update([(glob, text)]) or glob_match_(glob, text)
    )
    texts = {
        var: {e["fields"][var] for e in events if e["entity_class"] == "Process"}
        for var in ("name", "pid", "command_line")
    }
    keys = [
        ("Process", (("name", frozenset({"svchost.exe"}), ()),)),
        ("Process", (("name", frozenset({"explorer.exe", "nothing.exe"}), ()), ("pid", frozenset({"4242"}), ()))),
        ("Process", (("name", frozenset(), ("*.exe", "svc*")),)),
        ("Process", (("name", frozenset({"svchost.exe"}), ("*.exe",)), ("name", frozenset(), ("*host*", "*.exe")))),
        ("Process", (("command_line", frozenset(), ("*/*",)), ("pid", frozenset(), ("1*", "*7")))),
    ]
    _, expected, _ = oracle_read_events(path, keys)
    for cls, filt in keys:
        tested.clear()
        assert _attributes(proxy.hits((cls, filt))) == _lean(expected[cls, filt]), filt
        globs = {var: set() for var, _, _ in filt}
        for var, _, field_globs in filt:
            globs[var].update(field_globs)
        assert sum(tested.values()) <= sum(len(g) * len(texts[var]) for var, g in globs.items()), filt
        assert set(tested.values()) == ({1} if any(globs.values()) else set()), filt
    assert sum(map(len, expected.values())) > 1000


def test_whole_and_filtered_reads_agree_on_filters_that_pass_nothing_or_test_a_field_twice(tmp_path):
    """On seeded logs, the whole read, the filtered read and
    ``oracle_execute`` give the same hits for a bind that resolves to
    nothing, a field the class lacks, two predicates on one field and an
    exact value no event holds."""
    db = IocDb((IocRecord("process_name", "explorer.exe"), IocRecord("process_name", "svc*")))
    cases = {
        "bind_to_nothing": [Predicate("name", "eq", BindSpec("process_name", pattern="zz*"))],
        "bind_to_nothing_beside_a_glob": [Predicate("pid", "glob", "*"), Predicate("name", "eq", BindSpec("domain"))],
        "field_the_class_lacks": [Predicate("Hive", "glob", "*")],
        "field_the_class_lacks_beside_a_glob": [Predicate("name", "glob", "*.exe"), Predicate("path", "eq", "C:\\x")],
        "two_on_one_field": [Predicate("name", "glob", "*.exe"), Predicate("name", "eq", BindSpec("process_name"))],
        "two_globs_on_one_field": [Predicate("name", "glob", "s*"), Predicate("name", "glob", "*.exe")],
        "exact_no_event_holds": [Predicate("name", "eq", "nothing.exe")],
        "exact_no_event_holds_beside_a_glob": [Predicate("name", "eq", "nothing.exe"), Predicate("name", "glob", "*")],
    }
    descriptors = [dataclasses.replace(make_descriptor("Process", p), qid=name) for name, p in cases.items()]
    keys = [memo_key(q, db) for q in descriptors]
    path = tmp_path / "events.ndjson"
    found = Counter()
    for seed in range(8):
        events = synth_log(random.Random(seed), 400)
        write_ndjson(path, events)
        whole, filtered = NdjsonProxy(path), NdjsonProxy(path, keys)
        for q, key in zip(descriptors, keys):
            expected = oracle_execute(q, events, db.records)
            assert [e.event_id for e in whole.hits(key)] == expected, (seed, q.qid)
            assert _attributes(filtered.hits(key)) == _attributes(whole.hits(key)), (seed, q.qid)
            found[q.qid] += len(expected)
    assert found["two_on_one_field"] > 100 and found["two_globs_on_one_field"] > 100, found
    assert sum(found.values()) == found["two_on_one_field"] + found["two_globs_on_one_field"], found

# ---------------------------------------------------------------------------
# The whole read's columns
# ---------------------------------------------------------------------------

_COLUMN_FIELDS = {
    "Process": ("name", "pid", "command_line", "user"),
    "File": ("path", "size"),
    "NetworkConnection": ("dst_ip", "dst_port", "protocol"),
}
# Field values: strings, texts that are the JSON text of another value,
# and values that are not strings, nested ones among them.
_COLUMN_VALUES = (
    "cmd.exe", "svchost.exe", "4242", "true", "null", "", "C:\\Users\\a.exe", "c:\\users\\A.EXE",
    4242, 1.5, 0, True, False, None, [1, "a"], {"k": [None, 2]}, [],
)
_COLUMN_ASKED = ("cmd.exe", "4242", "true", "null", "", "1.5", "0", "false", '[1, "a"]', '{"k": [null, 2]}', "[]",
                 "*", "*.exe", "c:\\users\\*", "[*", "{*", "*e*", "nothing")
_COLUMN_STAMPS = ("2026-03-01T07:00:00Z", "2026-03-01T07:00:00+00:00", "2026-03-01t07:00:00.5z",
                  "2026-03-01T08:00:00+01:00", "2026-03-01 07:00:01Z", "2026-03-01T07:00:02.123456789Z")


def _column_log(rng, n):
    """``n`` events whose classes hold different field sets in different
    orders, values drawn from a few of ``_COLUMN_VALUES``, runs of one
    timestamp text and texts seen lines before, now and then links (some
    empty) and an absent ``fields``."""
    values = rng.sample(_COLUMN_VALUES, rng.randrange(2, 9))
    events, stamp = [], rng.choice(_COLUMN_STAMPS)
    for i in range(n):
        cls = rng.choice([*_COLUMN_FIELDS, "Mutex"])
        names = [var for var in _COLUMN_FIELDS.get(cls, ("name",)) if rng.random() < 0.8]
        rng.shuffle(names)
        if rng.random() < 0.6:
            stamp = rng.choice(_COLUMN_STAMPS)
        doc = {"event_id": f"e{i}", "timestamp": stamp, "host": rng.choice(("a", "b", "c")), "entity_class": cls,
               "fields": {var: rng.choice(values) for var in names}}
        roll = rng.random()
        if roll < 0.05:
            del doc["fields"]
        elif roll < 0.25 and events:
            doc["links"] = [{"verb": rng.choice(("has", "observed")), "target": rng.choice(events)["event_id"]}
                            for _ in range(rng.randrange(3))]
        events.append(doc)
    return events, values


def _column_key(rng, logged):
    """A key of 0 to 3 predicates over a logged class or one the log never
    holds; half the exact values are the text of a ``logged`` value."""
    cls = rng.choice([*_COLUMN_FIELDS, *_COLUMN_FIELDS, "Mutex", "DnsQuery"])
    filt = []
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        var = rng.choice(_COLUMN_FIELDS.get(cls, ("name", "query_name")))
        texts = [rng.choice(_COLUMN_ASKED) for _ in range(rng.randrange(1, 3))]
        if rng.random() < 0.5:
            value = rng.choice(logged)
            texts[0] = value if isinstance(value, str) else json.dumps(value)
        filt.append((var, frozenset(t for t in texts if "*" not in t), tuple(t for t in texts if "*" in t)))
    return cls, tuple(filt)


def test_whole_read_columns_equal_filtered_read_on_random_logs(tmp_path):
    """A whole proxy's ``scan`` and ``hits`` give, for every key, the events
    a filtered read keeps for it: all four members equal, in log order,
    each event one object however many keys hold it."""
    rng = random.Random(20261019)
    path = tmp_path / "events.ndjson"
    seen = dict.fromkeys(("hits", "not_strings", "links", "stamp_runs", "absent_class", "repeats", "empty"), 0)
    for trial in range(240):
        events, logged = _column_log(rng, rng.randrange(0, 60))
        write_ndjson(path, events)
        keys = [_column_key(rng, logged) for _ in range(rng.randrange(2, 8))]
        keys += [(cls, ()) for cls in (*_COLUMN_FIELDS, "Mutex", "DnsQuery")]
        whole, filtered = NdjsonProxy(path), NdjsonProxy(path, keys)
        asked = [*keys, *rng.choices(keys, k=rng.randrange(1, 6))]
        rng.shuffle(asked)
        answers, objects, docs = {}, {}, {doc["event_id"]: doc for doc in events}
        for key in asked:
            got = whole.hits(key)
            assert _attributes(got) == _attributes(filtered.hits(key)), (trial, key)
            if key in answers:
                assert got is answers[key]
                seen["repeats"] += 1
            answers[key] = got
            for event in got:
                assert objects.setdefault(event.event_id, event) is event
            seen["hits"] += len(got)
            seen["not_strings"] += sum(
                any(not isinstance(v, str) for v in docs[e.event_id].get("fields", {}).values()) for e in got
            )
            seen["links"] += sum(bool(e.links) for e in got)
            seen["absent_class"] += not any(doc["entity_class"] == key[0] for doc in events)
            seen["empty"] += key[1] == ()
        for cls in (*_COLUMN_FIELDS, "Mutex", "DnsQuery"):
            assert _attributes(whole.scan(cls)) == _attributes(filtered.scan(cls)), (trial, cls)
        stamps = [doc["timestamp"] for doc in events]
        seen["stamp_runs"] += sum(a == b for a, b in zip(stamps, stamps[1:]))
    assert min(seen.values()) > 200, seen


def test_whole_read_builds_events_only_for_hits(tmp_path):
    path = write_ndjson(tmp_path / "events.ndjson", synth_log(random.Random(11), 2_000))
    proxy = NdjsonProxy(path)
    built = lambda: sum(len(held.events) for part in proxy._parts for held in part.classes.values())  # noqa: E731
    assert built() == 0
    hits = proxy.hits(("Process", (("name", frozenset({"notepad.exe"}), ()),)))
    assert 0 < len(hits) == built() < 2_000 // 10
    scan = proxy.scan("Process")
    assert built() == len(scan) and all(any(e is s for s in scan) for e in hits)


def test_whole_read_codes_more_than_65536_hosts(tmp_path):
    events = [{"event_id": f"e{i}", "timestamp": "2026-03-01T07:00:00Z", "host": f"h{i}", "entity_class": "P"}
              for i in range(65_538)]
    events[-1]["host"] = "h7"
    proxy = NdjsonProxy(write_ndjson(tmp_path / "events.ndjson", events))
    assert [e.host for e in proxy.scan("P")] == [doc["host"] for doc in events]


def test_whole_proxy_retains_under_half_a_kilobyte_per_event(tmp_path):
    """What a whole proxy over a 20k-event ``synth_log`` retains, under
    ``tracemalloc``: 0.20 KB per event with its columns, 0.75 KB when it
    kept one ``Event`` per line."""
    count = 20_000
    path = write_ndjson(tmp_path / "events.ndjson", synth_log(random.Random(20260301), count))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        proxy = NdjsonProxy(path)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert proxy.sha256
    assert retained / count <= 450, retained / count


def test_a_repeated_timestamp_takes_the_previous_moment_unparsed(tmp_path, monkeypatch):
    parsed, moments = [], []
    parse = wilee.hunt.proxy.parse_rfc3339
    monkeypatch.setattr(wilee.hunt.proxy, "parse_rfc3339", lambda text: parsed.append(text) or parse(text))
    checked = wilee.hunt.proxy._checked

    def recording(doc, previous):
        row = checked(doc, previous)
        moments.append(row[6])
        return row

    monkeypatch.setattr(wilee.hunt.proxy, "_checked", recording)
    base = {"host": "h", "entity_class": "Process", "fields": {}}
    good = [{"event_id": "e1", "timestamp": "2026-03-01T07:00:00Z", **base},
            {"event_id": "e2", "timestamp": "2026-03-01T07:00:00Z", **base}]
    path = write_ndjson(tmp_path / "events.ndjson", good)
    for proxy in (NdjsonProxy(path), NdjsonProxy(path, [("Process", ())])):
        first, second = proxy.scan("Process")
        assert second.moment == first.moment == oracle_micros(datetime(2026, 3, 1, 7, tzinfo=timezone.utc))
        assert type(first.moment) is type(second.moment) is int
    # The second line of each read takes the first line's parsed moment.
    assert moments[1] is moments[0] and moments[3] is moments[2]
    # Once per read, while reading: no event parses its text again.
    assert parsed == ["2026-03-01T07:00:00Z"] * 2
    write_ndjson(path, [*good, {"event_id": "e3", "timestamp": "yesterday", **base}])
    for read in (lambda: NdjsonProxy(path), lambda: NdjsonProxy(path, [("Process", ())])):
        parsed.clear()
        with pytest.raises(ProxyUnavailable) as info:
            read()
        assert str(info.value) == f"{path}:3: Invalid isoformat string: 'yesterday'"
        assert parsed == ["2026-03-01T07:00:00Z", "yesterday"]


@pytest.mark.parametrize("name", list(MALFORMED_EVENT_LINES))
def test_whole_and_filtered_reads_fail_alike(tmp_path, name):
    line, message = MALFORMED_EVENT_LINES[name]
    log = log_ending_with(tmp_path / "events.ndjson", line)
    keys = [
        memo_key(make_descriptor("WinRegistryKey", [Predicate("Hive", "glob", "Software\\*\\Putty\\Sessions")]), IocDb()),
        memo_key(make_descriptor("Process", []), IocDb()),
    ]
    messages = []
    for read in (lambda: NdjsonProxy(log), lambda: NdjsonProxy(log, keys)):
        with pytest.raises(ProxyUnavailable) as info:
            read()
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0] == f"{log}:4: {message}"


# ---------------------------------------------------------------------------
# The line loop: fast decode, checks and events against the reference read
# ---------------------------------------------------------------------------

_ATTRIBUTES = ("event_id", "host", "moment", "links")


def _attributes(events) -> list[dict]:
    return [{name: getattr(event, name) for name in _ATTRIBUTES} for event in events]


def _lean(docs) -> list[dict]:
    """The reference read's events as the members an :class:`Event` keeps,
    each moment in microseconds; the reference already grouped them by
    class and filtered their fields."""
    return [{name: oracle_micros(doc[name]) if name == "moment" else doc[name] for name in _ATTRIBUTES} for doc in docs]


def _read_jsonl_outcome(path):
    """What :func:`read_jsonl` gives, in the reference's terms."""
    docs = []
    try:
        for lineno, doc in read_jsonl(path):
            docs.append((lineno, doc))
    except FormatError as exc:
        return docs, (exc.line, str(exc).split(": ", 1)[1])
    return docs, None


# Lines each decoding path must read as ``json.loads`` does, by name.
_JSONL_HAND_CASES = {
    "bom": b'\xef\xbb\xbf{"a": 1}\n',
    "leading-space": b' {"a": 1}\n',
    "leading-tab": b'\t{"a": 1}\n',
    "trailing-spaces": b'{"a": 1}   \n',
    "trailing-tab": b'{"a": 1}\t\n',
    "crlf": b'{"a": 1}\r\n{"b": 2}\r\n',
    "lone-cr-end": b'{"a": 1}\r',
    "no-final-newline": b'{"a": 1}\n{"b": 2}',
    "blank-lines": b'\n{"a": 1}\n   \n\t\r\n{"b": 2}\n\n',
    "u2028-only-line": '{"a": 1}\n\u2028\n{"b": 2}\n'.encode(),
    "u2028-after-object": '{"a": 1}\u2028\n'.encode(),
    "u2028-in-string": '{"a": "x\u2028y"}\n'.encode(),
    "two-objects": b'{} {}\n',
    "two-objects-no-space": b'{}{}\n',
    "list": b'[]\n',
    "number": b'5\n',
    "string": b'"{}"\n',
    "nan-infinity": b'{"a": NaN, "b": Infinity, "c": -Infinity}\n',
    "duplicate-keys": b'{"a": 1, "a": 2, "b": {"c": 1, "c": 3}}\n',
    "lone-surrogate-escape": b'{"a": "\\ud800", "b": "\\udc00x"}\n',
    "surrogate-pair-escape": b'{"a": "\\ud83d\\ude00"}\n',
    "truncated": b'{"a": 1\n',
    "trailing-comma": b'{"a": 1,}\n',
    "not-utf8": b'{"a": "\xff"}\n',
    "nested": b'{"a": [1, {"b": null}], "c": true}\n',
}


@pytest.mark.parametrize("name", list(_JSONL_HAND_CASES))
def test_read_jsonl_reads_each_line_as_json_loads(tmp_path, name):
    path = tmp_path / "lines.jsonl"
    path.write_bytes(_JSONL_HAND_CASES[name])
    got, expected = _read_jsonl_outcome(path), oracle_read_jsonl(path)
    # NaN is not equal to itself, so compare the objects as JSON text.
    assert json.dumps(got) == json.dumps(expected)


def test_read_jsonl_hand_case_outcomes(tmp_path):
    """A few outcomes pinned, so the reference read is known to mean them."""
    outcomes = {}
    for name, data in _JSONL_HAND_CASES.items():
        path = tmp_path / f"{name}.jsonl"
        path.write_bytes(data)
        outcomes[name] = _read_jsonl_outcome(path)
    assert outcomes["bom"] == ([], (1, "Unexpected UTF-8 BOM (decode using utf-8-sig)"))
    assert outcomes["two-objects"] == ([], (1, "Extra data"))
    assert outcomes["list"] == ([], (1, "expected a JSON object"))
    assert outcomes["u2028-after-object"] == ([], (1, "Extra data"))
    assert outcomes["blank-lines"] == ([(2, {"a": 1}), (5, {"b": 2})], None)
    assert outcomes["u2028-only-line"] == ([(1, {"a": 1}), (3, {"b": 2})], None)
    assert outcomes["crlf"] == ([(1, {"a": 1}), (2, {"b": 2})], None)
    assert outcomes["duplicate-keys"] == ([(1, {"a": 2, "b": {"c": 3}})], None)
    assert outcomes["lone-surrogate-escape"] == ([(1, {"a": "\ud800", "b": "\udc00x"})], None)
    assert outcomes["not-utf8"] == ([], (1, "not UTF-8: invalid start byte at byte 7"))


@pytest.mark.parametrize(
    "stamp, moment",
    [
        ("2026-03-01T07:00:00Z", datetime(2026, 3, 1, 7, tzinfo=timezone.utc)),
        ("2026-03-01t07:00:00z", datetime(2026, 3, 1, 7, tzinfo=timezone.utc)),
        ("2026-03-01 07:00:00", datetime(2026, 3, 1, 7, tzinfo=timezone.utc)),  # no offset: UTC
        ("2026-03-01T07:00:00.250+00:00", datetime(2026, 3, 1, 7, 0, 0, 250000, tzinfo=timezone.utc)),
        ("2026-03-01T09:30:00.000001+02:30", datetime(2026, 3, 1, 7, 0, 0, 1, tzinfo=timezone.utc)),
        ("2026-03-01T02:00:00-05:00", datetime(2026, 3, 1, 7, tzinfo=timezone.utc)),
        # Digits past microseconds are dropped, not rounded.
        ("2026-03-01T07:00:00.5Z", datetime(2026, 3, 1, 7, 0, 0, 500000, tzinfo=timezone.utc)),
        ("2026-03-01T07:00:00.25", datetime(2026, 3, 1, 7, 0, 0, 250000, tzinfo=timezone.utc)),
        ("2026-03-01T08:00:00.1234567+01:00", datetime(2026, 3, 1, 7, 0, 0, 123456, tzinfo=timezone.utc)),
        ("2026-03-01t07:00:00.999999999z", datetime(2026, 3, 1, 7, 0, 0, 999999, tzinfo=timezone.utc)),
    ],
)
def test_parse_rfc3339_reads_each_form(stamp, moment):
    assert parse_rfc3339(stamp) == moment


@pytest.mark.parametrize(
    "stamp",
    [
        "2026-03-01", "20260301", "2026-W09-1", "2026-060", "20260301T070000Z", "2026-03-01T07",
        "2026-03-01T07:00", "2026-03-01T07:00:00.", "2026-03-01T07:00:00+0200", "2026-03-01T07:00:00+02",
        "2026-03-01T07:00:00 Z", " 2026-03-01T07:00:00Z", "2026-03-01T07:00:00Z\n", "2026-03-01x07:00:00Z",
        "\u0662\u0660\u0662\u0666-03-01T07:00:00Z", "yesterday", "5", "",
    ],
)
def test_parse_rfc3339_rejects_other_forms(stamp):
    with pytest.raises(ValueError, match=f"^Invalid isoformat string: {re.escape(repr(stamp))}$"):
        parse_rfc3339(stamp)


# Every form of an RFC 3339 text the read accepts, for the differential
# below: the separators, the suffixes (none is UTC) and, at the ends of
# the years the read accepts, the earliest and latest instants.
_SEPARATORS = ("T", "t", " ")
_SUFFIXES = ("Z", "z", "", "+00:00", "+05:45", "-12:00", "+14:00", "-05:30")
_EDGE_STAMPS = (
    "0001-01-01T00:00:00+14:00",
    "0001-01-01T04:00:00+05:00",
    "9999-12-31T23:59:59.999999999-12:00",
    "1969-12-31T23:59:59.999999Z",
    "1970-01-01 00:00:00",
)


def _random_stamp(rng) -> str:
    """An RFC 3339 text of a day in years 0001-9999, often at one of their
    ends or before 1970, with a fraction of 0 to 9 digits."""
    year = rng.choice((1, 9999, 1969, 1970, rng.randrange(1, 1970), rng.randrange(1, 10000)))
    month, day = rng.randrange(1, 13), rng.randrange(1, 29)
    if rng.random() < 0.3:
        month, day = (1, 1) if year < 5000 else (12, 31)
    clock = f"{rng.randrange(24):02d}:{rng.randrange(60):02d}:{rng.randrange(60):02d}"
    digits = rng.randrange(10)
    fraction = "." + "".join(rng.choice("0123456789") for _ in range(digits)) if digits else ""
    return f"{year:04d}-{month:02d}-{day:02d}{rng.choice(_SEPARATORS)}{clock}{fraction}{rng.choice(_SUFFIXES)}"


def test_every_read_gives_a_moment_as_microseconds_since_the_epoch(tmp_path, monkeypatch):
    """On seeded logs of texts in each accepted form, each event's moment
    in the whole, the filtered and the split reads is the ``int``
    ``(t - epoch) // 1 µs`` for the instant ``t`` the reference reads in
    its text: years 0001 and 9999, instants before 1970 and runs of
    lines that repeat a text among them."""
    rng = random.Random(20261021)
    classes = ("Process", "File")
    keys = [(cls, ()) for cls in classes]
    epoch_us = oracle_micros(datetime(1970, 1, 1, tzinfo=timezone.utc))
    seen = Counter()
    for trial in range(40):
        stamps = [_random_stamp(rng)]
        for _ in range(rng.randrange(0, 60)):
            stamps.append(stamps[-1] if rng.random() < 0.2 else _random_stamp(rng))
        for stamp in _EDGE_STAMPS:
            stamps.insert(rng.randrange(len(stamps) + 1), stamp)
        events = [
            {"event_id": f"e{n}", "timestamp": stamp, "host": rng.choice(("h1", "h2")),
             "entity_class": rng.choice(classes)}
            for n, stamp in enumerate(stamps)
        ]
        path = write_ndjson(tmp_path / "events.ndjson", events)
        expected = {doc["event_id"]: oracle_micros(_oracle_moment(doc["timestamp"])) for doc in events}
        for split in (False, True):
            with monkeypatch.context() as patch:
                forks = _force_split(patch) if split else []
                if not split:
                    patch.setattr(wilee.hunt.proxy, "_cpus", lambda: 1)
                for name, read in _READS.items():
                    proxy = read(path, keys)
                    got = {event.event_id: event.moment for cls in classes for event in proxy.scan(cls)}
                    assert got == expected, (trial, name, split)
                    assert {type(moment) for moment in got.values()} == {int}, (trial, name, split)
                assert len(forks) == (2 if split else 0)
        for stamp in stamps:
            match = re.fullmatch(r"(\d{4})-\d\d-\d\d(.)[\d:]{8}(?:\.(\d+))?(.*)", stamp)
            seen[f"separator {match[2]!r}"] += 1
            seen[f"digits {len(match[3] or '')}"] += 1
            seen[f"suffix {match[4]!r}"] += 1
            seen[f"year {match[1]}"] += match[1] in ("0001", "9999")
        seen["before 1970"] += min(expected.values()) < epoch_us
        seen["repeated text"] += any(a == b for a, b in zip(stamps, stamps[1:]))
    assert all(seen[f"separator {sep!r}"] for sep in _SEPARATORS), seen
    assert all(seen[f"digits {n}"] for n in range(10)), seen
    assert all(seen[f"suffix {suffix!r}"] for suffix in _SUFFIXES), seen
    assert seen["year 0001"] and seen["year 9999"] and seen["before 1970"] and seen["repeated text"], seen
    _assert_no_child_left()


def test_event_is_immutable_compares_by_value_and_builds_by_keyword():
    moment = oracle_micros(datetime(2026, 3, 1, 7, tzinfo=timezone.utc))
    links = (("observed", "e0"),)
    by_position = Event("e1", "ws-002", moment, links)
    by_keyword = Event(links=links, moment=moment, host="ws-002", event_id="e1")
    assert by_position == by_keyword
    assert Event._fields == _ATTRIBUTES
    assert Event("e1", "h", moment).links == ()
    assert by_position != Event("e1", "ws-002", moment + 1_000_000, links)
    assert copy.copy(by_position) == by_position == copy.deepcopy(by_position)
    for name in (*_ATTRIBUTES, "extra"):
        with pytest.raises(AttributeError):
            setattr(by_position, name, "x")


def test_events_of_a_log_share_host_strings(tmp_path):
    path = write_ndjson(tmp_path / "events.ndjson", synth_log(random.Random(7), 200))
    classes = ("Process", "File", "WinRegistryKey", "NetworkConnection")
    for proxy in (NdjsonProxy(path), NdjsonProxy(path, [(cls, ()) for cls in classes])):
        events = [e for cls in classes for e in proxy.scan(cls)]
        assert len(events) == 200
        assert len({id(e.host) for e in events}) == len({e.host for e in events})


def _restamped(rng, doc: dict) -> dict:
    """``doc`` with its ``...T hh:mm:ssZ`` timestamp written in another
    RFC 3339 form: another separator or UTC letter, a fraction, an offset."""
    stamp = doc["timestamp"][:-1]
    stamp = stamp[:10] + rng.choice("Tt ") + stamp[11:]
    stamp += rng.choice(("", ".5", ".25", ".123", ".000250", ".1234567", ".123456789"))
    return {**doc, "timestamp": stamp + rng.choice(("", "Z", "z", "+00:00", "+05:30", "-08:00"))}


def _mixed_log(rng, path) -> Path:
    """A seeded log of valid events, some irregular, written with varied
    line ends and spacing, a blank line or a BOM here and there, now and
    then with one or two malformed lines."""
    events = []
    for doc in synth_log(rng, rng.randrange(0, 30)):
        if rng.random() < 0.2:
            doc = _restamped(rng, doc)
        events.append(_irregular(rng, doc, [e["event_id"] for e in events]))
    lines = [json.dumps(doc).encode() for doc in events]
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        bad, _ = MALFORMED_EVENT_LINES[rng.choice(sorted(MALFORMED_EVENT_LINES))]
        lines.insert(rng.randrange(len(lines) + 1), bad)
    out = []
    for line in lines:
        roll = rng.random()
        if roll < 0.05:
            out.append(rng.choice((b"", b"  ", b"\t", "\u2028".encode())) + b"\n")  # a blank line
        line = rng.choice((b"", b"", b"", b" ", b"\t")) + line + rng.choice((b"", b"", b"", b" ", b"\t "))
        if roll > 0.99:
            line = "\ufeff".encode() + line
        out.append(line + rng.choice((b"\n", b"\n", b"\n", b"\r\n")))
    if out and rng.random() < 0.3:
        out[-1] = out[-1].rstrip(b"\r\n")
    path.write_bytes(b"".join(out))
    return path


def test_reads_equal_reference_read_on_mixed_logs(tmp_path):
    rng = random.Random(20261101)
    classes = [*_FIELDS, "Mutex", "DnsQuery"]
    outcomes = {"ok": 0, "error": 0}
    for trial in range(300):
        path = _mixed_log(rng, tmp_path / f"events{trial % 3}.ndjson")
        descriptors = [_differential_descriptor(rng, i) for i in range(rng.randrange(1, 6))]
        keys = list(dict.fromkeys(memo_key(q, _DIFF_DB) for q in descriptors))
        by_class, hits, fault = oracle_read_events(path, keys)
        if fault is not None:
            outcomes["error"] += 1
            for read in (lambda: NdjsonProxy(path), lambda: NdjsonProxy(path, keys)):
                with pytest.raises(ProxyUnavailable) as info:
                    read()
                assert str(info.value) == fault
            continue
        outcomes["ok"] += 1
        whole, filtered = NdjsonProxy(path), NdjsonProxy(path, keys)
        assert whole.sha256 == filtered.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
        for cls in {*classes, *by_class}:
            assert _attributes(whole.scan(cls)) == _lean(by_class.get(cls, [])), cls
            assert _attributes(filtered.scan(cls)) == _lean(by_class.get(cls, [])), cls
        seeded = _seeded(filtered)
        for key in keys:
            assert _attributes(seeded[key]) == _lean(hits[key]), key
    assert min(outcomes.values()) > 60, outcomes


# ---------------------------------------------------------------------------
# The split read: a log cut in two at a line start, the second range read
# in a forked child
# ---------------------------------------------------------------------------


def _force_split(monkeypatch) -> list[int]:
    """Makes either read split any log of two bytes or more in two, its
    child sending its event ids three to a pickle; returns the list each
    fork appends its pid to."""
    forks = []
    forked = wilee.hunt.proxy._forked

    def counting(*args):
        pid, pipe = forked(*args)
        forks.append(pid)
        return pid, pipe

    monkeypatch.setattr(wilee.hunt.proxy, "_RANGE_BYTES", 1)
    monkeypatch.setattr(wilee.hunt.proxy, "_cpus", lambda: 2)
    monkeypatch.setattr(wilee.hunt.proxy, "_IDS_PER_PICKLE", 3)
    monkeypatch.setattr(wilee.hunt.proxy, "_forked", counting)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _line_at(data: bytes, offset: int) -> bytes:
    """The line of ``data`` that holds byte ``offset``, with its end."""
    start = data.rfind(b"\n", 0, offset) + 1
    end = data.find(b"\n", offset)
    return data[start : len(data) if end < 0 else end + 1]


def _split_log(rng, path) -> Path:
    """A :func:`_mixed_log`, now and then with a blank line next to its
    middle, so that the cut falls by it, or ending in a line longer than
    the rest of the log, so that the line at the middle runs to the end of
    the file and the second range would be empty."""
    _mixed_log(rng, path)
    if rng.random() < 0.15:
        data = path.read_bytes()
        middle = data.find(b"\n", len(data) // 2) + 1
        if middle:
            path.write_bytes(data[:middle] + rng.choice((b"", b"  ")) + b"\n" + data[middle:])
    if rng.random() < 0.2:
        data = path.read_bytes()
        if data and not data.endswith(b"\n"):
            data += b"\n"
        doc = {"event_id": "long", "timestamp": "2026-03-01T07:00:00Z", "host": "ws-001",
               "entity_class": "Process", "fields": {"name": "x" * (2 * len(data) + 10)}}
        path.write_bytes(data + json.dumps(doc).encode() + rng.choice((b"", b"\n")))
    return path


def test_split_read_equals_reference_read_on_mixed_logs(tmp_path, monkeypatch):
    """Split in two, the filtered read gives each key the reference read's
    hits, one :class:`Event` per line shared by every key that holds it,
    the log's SHA-256, and on a bad log the reference read's first fault.
    The cut is the first line start at or after the middle, next to blank
    and CRLF lines among others; a log whose middle line runs to its end
    is read in one pass."""
    rng = random.Random(20261102)
    path = tmp_path / "events.ndjson"
    forks = _force_split(monkeypatch)
    seen = Counter()
    for trial in range(250):
        del forks[:]
        _split_log(rng, path)
        data = path.read_bytes()
        cut = wilee.hunt.proxy._cut(path)
        start = data.find(b"\n", len(data) // 2 - 1) + 1 if len(data) >= 2 else 0
        assert cut == ((start, len(data)) if 0 < start < len(data) else None), trial
        if cut is None:
            seen["middle_line_runs_to_the_end"] += len(data) >= 2
        else:
            seen["cut_after_crlf"] += data[start - 2 : start] == b"\r\n"
            seen["cut_by_blank_line"] += any(not line.strip() for line in (_line_at(data, start - 1), _line_at(data, start)))
            seen["last_line_without_newline"] += not data.endswith(b"\n")
        descriptors = [_differential_descriptor(rng, i) for i in range(rng.randrange(1, 6))]
        cls = descriptors[0].entity_class
        # Both share events with the first, and with each other.
        descriptors.append(make_descriptor(cls, []))
        descriptors.append(make_descriptor(cls, [Predicate(rng.choice(_FIELDS[cls]), "glob", "*")]))
        keys = list(dict.fromkeys(memo_key(q, _DIFF_DB) for q in descriptors))
        by_class, expected, fault = oracle_read_events(path, keys)
        if fault is not None:
            seen["fault"] += 1
            with pytest.raises(ProxyUnavailable) as info:
                NdjsonProxy(path, keys)
            assert str(info.value) == fault, trial
            assert len(forks) == (cut is not None)
            continue
        proxy = NdjsonProxy(path, keys)
        assert len(forks) == (cut is not None)
        assert proxy.sha256 == hashlib.sha256(data).hexdigest()
        first_range = {doc["event_id"] for _, doc in read_jsonl(path, None, 0, None if cut is None else start)}
        shared: dict[str, Event] = {}
        holders = Counter()
        for key in keys:
            found = _seeded(proxy)[key]
            assert _attributes(found) == _lean(expected[key]), (trial, key)
            assert len({event.event_id for event in found}) == len(found), (trial, key)
            for event in found:
                assert shared.setdefault(event.event_id, event) is event, trial
                holders[event.event_id] += 1
        seen["shared_from_a_child"] += sum(1 for i, n in holders.items() if n > 1 and i not in first_range)
        cls = rng.choice(sorted(by_class) or ["Process"])
        assert _attributes(proxy.scan(cls)) == _lean(by_class.get(cls, [])), trial  # a miss, read split again
        seen["split_and_ok"] += cut is not None
    _assert_no_child_left()
    assert min(seen.values()) >= 15, seen


def _planted_log(path, rng, lines: list[bytes], at: dict[int, bytes]) -> Path:
    path.write_bytes(b"".join(at.get(i, line) + b"\n" for i, line in enumerate(lines)))
    return path


# Both reads of a log, by name: the whole read keeps every event as
# columns, the filtered read the hits of the keys it is given.
_READS = {
    "filtered": lambda path, keys: NdjsonProxy(path, keys),
    "whole": lambda path, keys: NdjsonProxy(path),
}


def _answers(proxy, keys) -> dict:
    return {key: _attributes(proxy.hits(key)) for key in keys}


def test_split_read_gives_the_first_fault_planted_in_any_range(tmp_path, monkeypatch):
    """A bad line, or an event id that an earlier line of the same or the
    first range holds, planted in either range (and now and then a
    second fault after it) fails the split read, whole or filtered, with
    the reference read's message for the first fault."""
    forks = _force_split(monkeypatch)
    rng = random.Random(20261103)
    lines = [json.dumps(doc).encode() for doc in synth_log(rng, 90)]
    ids = [json.loads(line)["event_id"] for line in lines]
    path = tmp_path / "events.ndjson"
    keys = [memo_key(make_descriptor("Process", []), IocDb())]
    bad = [MALFORMED_EVENT_LINES[name][0] for name in ("invalid-json", "not-utf8", "links-null", "bad-timestamp")]
    checked = Counter()
    for _ in range(60):
        at = {}
        for _ in range(rng.choice((1, 1, 2))):
            i = rng.randrange(1, len(lines))
            if rng.random() < 0.5:
                at[i] = rng.choice(bad)
            else:  # the id of an earlier line
                at[i] = lines[i].replace(ids[i].encode(), ids[rng.randrange(i)].encode())
        _planted_log(path, rng, lines, at)
        cut, _ = wilee.hunt.proxy._cut(path)
        first = min(at)
        offset = sum(len(at.get(i, line)) + 1 for i, line in enumerate(lines[:first]))
        fault = oracle_read_events(path, keys)[2]
        assert fault.startswith(f"{path}:{first + 1}: ")
        for name, read in _READS.items():
            del forks[:]
            with pytest.raises(ProxyUnavailable) as info:
                read(path, keys)
            assert str(info.value) == fault, name
            assert len(forks) == 1, name
        checked[offset >= cut, "duplicate" in fault] += 1
    _assert_no_child_left()
    assert len(checked) == 4 and min(checked.values()) >= 3, checked


def test_split_read_falls_back_to_one_pass_when_a_child_fails(tmp_path, monkeypatch):
    """A child that dies before sending its result, or a fork that fails,
    leaves either read to one pass in this process: the same hits, once
    each, the same SHA-256, and no child left.  A log that can be
    stat'ed but not opened is not split, and fails with the serial
    read's message."""
    rng = random.Random(20261105)
    path = write_ndjson(tmp_path / "events.ndjson", synth_log(rng, 300))
    keys = [memo_key(make_descriptor(cls, []), IocDb()) for cls in ("Process", "File")]
    serial = {name: read(path, keys) for name, read in _READS.items()}
    forked = wilee.hunt.proxy._forked
    _force_split(monkeypatch)
    calls = []

    def dying(read, *args):
        calls.append(read)
        return forked(lambda *_: os._exit(3), *args)

    def failing(read, *args):
        calls.append(read)
        raise OSError("fork failed")

    for name, read in _READS.items():
        for broken in (dying, failing):
            del calls[:]
            monkeypatch.setattr(wilee.hunt.proxy, "_forked", broken)
            proxy = read(path, keys)
            assert len(calls) == 1, (name, broken)
            assert proxy.sha256 == serial[name].sha256
            assert _answers(proxy, keys) == _answers(serial[name], keys), (name, broken)
            _assert_no_child_left()

    unreadable = tmp_path / "unreadable"
    unreadable.mkdir()
    for name in "abc":
        (unreadable / name).touch()
    assert unreadable.stat().st_size >= 3
    for name, read in _READS.items():
        monkeypatch.setattr(wilee.hunt.proxy, "_cpus", lambda: 1)
        with pytest.raises(ProxyUnavailable) as serial_error:
            read(unreadable, keys)
        assert str(serial_error.value).startswith(f"cannot read event log {unreadable}: ")
        monkeypatch.setattr(wilee.hunt.proxy, "_cpus", lambda: 2)
        del calls[:]
        assert wilee.hunt.proxy._cut(unreadable) is None
        with pytest.raises(ProxyUnavailable) as split_error:
            read(unreadable, keys)
        assert str(split_error.value) == str(serial_error.value) and not calls, name


def _state(result):
    """A split read's range result as plain values: hit lists as they
    are, a :class:`_Part` as its tables and columns."""
    if isinstance(result, list):
        return result
    columns = {cls: [getattr(held, name) for name in held.__slots__] for cls, held in result.classes.items()}
    return result.hosts, columns


def test_split_read_child_replies_result_then_id_batches_then_empty_list(tmp_path, monkeypatch):
    """For either read, the forked reader of a log's second range sends,
    in order: one pickle equal to what ``read`` returns for that range
    alone; lists of at most ``_IDS_PER_PICKLE`` ids, the range's event ids
    once each; and ``[]``.  A reader whose ``read`` raises sends no
    ``[]``, and ``_received`` gives ``None`` for it."""

    def raising(*args):
        raise ProxyUnavailable("the range faults")

    _force_split(monkeypatch)
    forked = wilee.hunt.proxy._forked
    reads = []
    monkeypatch.setattr(wilee.hunt.proxy, "_forked", lambda read, *args: reads.append(read) or forked(read, *args))
    path = write_ndjson(tmp_path / "events.ndjson", synth_log(random.Random(20261111), 120))
    keys = [memo_key(make_descriptor("Process", []), IocDb()),
            memo_key(make_descriptor("Process", [Predicate("name", "glob", "*e*")]), IocDb())]
    for name, make in _READS.items():
        del reads[:]
        make(path, keys)
        (read,) = reads
        cut, size = wilee.hunt.proxy._cut(path)
        ids: set[str] = set()
        expected = _state(read(cut, size, None, ids))
        assert len(ids) > 9, name  # several batches of three

        pid, pipe = forked(read, cut, size)
        with open(pipe, "rb") as source:
            assert _state(pickle.load(source)) == expected, name
            batches = []
            while batch := pickle.load(source):
                batches.append(batch)
            assert source.read() == b"", name
        os.waitpid(pid, 0)
        assert all(0 < len(batch) <= 3 for batch in batches), name
        assert sorted(i for batch in batches for i in batch) == sorted(ids), name

        for check in ("pipe", "received"):
            pid, pipe = forked(raising, cut, size)
            with open(pipe, "rb") as source:
                if check == "pipe":
                    assert source.read() == b"", name
                else:
                    assert wilee.hunt.proxy._received(source.fileno(), set()) is None, name
            os.waitpid(pid, 0)
    _assert_no_child_left()


def test_split_read_hashes_the_bytes_it_reads(tmp_path, monkeypatch):
    """Bytes appended to the log after it was cut, a new line or the rest
    of an unfinished last line, are neither read nor hashed by either
    read: ``sha256`` names the bytes whose events the split read gives."""
    forks = _force_split(monkeypatch)
    rng = random.Random(20261106)
    keys = [memo_key(make_descriptor("Process", []), IocDb())]
    cut = wilee.hunt.proxy._cut
    for name, read in _READS.items():
        for n, tail in enumerate((b"\n", b"")):
            path = write_ndjson(tmp_path / f"events-{name}-{n}.ndjson", synth_log(rng, 200))
            data = path.read_bytes()[:-1] + tail
            path.write_bytes(data)
            expected = oracle_read_events(path, keys)[1][keys[0]]
            appended = b'{"event_id": "late", "timestamp": "2026-03-01T07:00:00Z", "host": "h", "entity_class": "Process"}\n'

            def cut_then_append(path):
                found = cut(path)
                with path.open("ab") as handle:
                    handle.write(b"\n" + appended if tail == b"\n" else b"  " + appended)
                return found

            monkeypatch.setattr(wilee.hunt.proxy, "_cut", cut_then_append)
            del forks[:]
            proxy = read(path, keys)
            monkeypatch.setattr(wilee.hunt.proxy, "_cut", cut)
            assert len(forks) == 1
            assert proxy.sha256 == hashlib.sha256(data).hexdigest(), (name, n)
            assert _attributes(proxy.hits(keys[0])) == _lean(expected), (name, n)
    _assert_no_child_left()


def test_split_read_uses_at_most_two_ranges(tmp_path, monkeypatch):
    """Either read forks one reader where the process may run on two CPUs
    or more, however many, and none on one."""
    monkeypatch.setattr(wilee.hunt.proxy, "_CGROUP", tmp_path / "no-cgroup")
    monkeypatch.setattr(wilee.hunt.proxy, "_RANGE_BYTES", 1)
    forks = []
    forked = wilee.hunt.proxy._forked
    monkeypatch.setattr(wilee.hunt.proxy, "_forked", lambda *args: forks.append(args) or forked(*args))
    path = write_ndjson(tmp_path / "events.ndjson", synth_log(random.Random(20261107), 60))
    keys = [memo_key(make_descriptor("Process", []), IocDb())]
    for cpus in (1, 2, 3, 64):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _: set(range(cpus)), raising=False)
        assert wilee.hunt.proxy._cpus() == cpus
        for name, read in _READS.items():
            del forks[:]
            assert read(path, keys).hits(keys[0])
            assert len(forks) == (cpus >= 2), (cpus, name)
    _assert_no_child_left()


def test_split_read_starts_at_two_range_sizes(tmp_path, monkeypatch):
    """A log of ``2 * _RANGE_BYTES - 1`` bytes is read in one pass and one
    of ``2 * _RANGE_BYTES`` bytes forks one reader, in either read, with
    the same hits; at that size a CPU quota of 1.5 CPUs or an affinity
    mask of one CPU keeps the read in one pass."""
    cpus = wilee.hunt.proxy._cpus
    forks = _force_split(monkeypatch)
    path = write_ndjson(tmp_path / "events.ndjson", synth_log(random.Random(20261109), 60))
    data = path.read_bytes()
    if len(data) % 2:
        data = data[:-2] + b" }\n"  # one byte more, the same events
    keys = [memo_key(make_descriptor("Process", []), IocDb())]
    expected = _lean(oracle_read_events(path, keys)[1][keys[0]])
    for variant in (data, data[:-2] + b" }\n"):
        path.write_bytes(variant)
        monkeypatch.setattr(wilee.hunt.proxy, "_RANGE_BYTES", (len(variant) + 1) // 2)
        for name, read in _READS.items():
            del forks[:]
            assert _attributes(read(path, keys).hits(keys[0])) == expected, name
            assert len(forks) == (len(variant) % 2 == 0), (len(variant), name)
    path.write_bytes(data)
    monkeypatch.setattr(wilee.hunt.proxy, "_RANGE_BYTES", len(data) // 2)
    monkeypatch.setattr(wilee.hunt.proxy, "_cpus", cpus)
    root = tmp_path / "cgroup"
    root.mkdir()
    for quota, affinity, forked in (("max", 2, 1), ("150000", 4, 0), ("max", 1, 0)):
        (root / "cpu.max").write_text(f"{quota} 100000\n")
        monkeypatch.setattr(wilee.hunt.proxy, "_CGROUP", root)
        monkeypatch.setattr(os, "sched_getaffinity", lambda _: set(range(affinity)), raising=False)
        for name, read in _READS.items():
            del forks[:]
            assert _attributes(read(path, keys).hits(keys[0])) == expected, name
            assert len(forks) == forked, (quota, affinity, name)
    _assert_no_child_left()


def test_split_read_forks_no_reader_for_an_empty_second_range(tmp_path, monkeypatch):
    """Where the line that holds the log's middle runs to its end, with or
    without a final newline, there is no second range: either read is one
    pass, with the reference read's hits."""
    forks = _force_split(monkeypatch)
    rng = random.Random(20261110)
    keys = [memo_key(make_descriptor("Process", []), IocDb())]
    for tail in (b"\n", b""):
        path = write_ndjson(tmp_path / "events.ndjson", synth_log(rng, 20))
        doc = {"event_id": "long", "timestamp": "2026-03-01T07:00:00Z", "host": "ws-001",
               "entity_class": "Process", "fields": {"name": "x" * 2 * path.stat().st_size}}
        path.write_bytes(path.read_bytes() + json.dumps(doc).encode() + tail)
        assert wilee.hunt.proxy._cut(path) is None
        expected = _lean(oracle_read_events(path, keys)[1][keys[0]])
        assert expected[-1]["event_id"] == "long"
        for name, read in _READS.items():
            del forks[:]
            assert _attributes(read(path, keys).hits(keys[0])) == expected, (name, tail)
            assert not forks, (name, tail)


@pytest.mark.parametrize("version", ["v1", "v2"])
def test_readers_take_the_cgroup_cpu_quota(tmp_path, monkeypatch, version):
    """A cgroup CPU quota below the CPUs of the affinity mask caps the
    CPUs a read may use; no quota, or a quota file that is missing,
    unreadable or malformed, leaves them to the affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0, 1, 2, 3}, raising=False)
    v2 = {"none": "max 100000\n", "1.5": "150000 100000\n", "2": "200000 100000\n", "0.5": "50000 100000\n",
          "malformed": "150000\n"}
    v1 = {"none": ("-1\n", "100000\n"), "1.5": ("150000\n", "100000\n"), "2": ("200000\n", "100000\n"),
          "0.5": ("50000\n", "100000\n"), "malformed": ("lots\n", "100000\n")}
    expected = {"none": (None, 4), "1.5": (1.5, 1.5), "2": (2.0, 2), "0.5": (0.5, 0.5), "malformed": (None, 4)}
    for case, (quota, cpus) in expected.items():
        root = tmp_path / case
        if version == "v2":
            root.mkdir()
            (root / "cpu.max").write_text(v2[case])
        else:
            (root / "cpu").mkdir(parents=True)
            for name, text in zip(("cpu.cfs_quota_us", "cpu.cfs_period_us"), v1[case]):
                (root / "cpu" / name).write_text(text)
        monkeypatch.setattr(wilee.hunt.proxy, "_CGROUP", root)
        assert wilee.hunt.proxy._quota_cpus() == quota, case
        assert wilee.hunt.proxy._cpus() == cpus, case
    for case in ("missing", "unreadable"):
        root = tmp_path / case
        root.mkdir()
        if case == "unreadable":  # a directory where the file should be
            (root / ("cpu.max" if version == "v2" else "cpu") / "cpu.cfs_quota_us").mkdir(parents=True)
        monkeypatch.setattr(wilee.hunt.proxy, "_CGROUP", root)
        assert wilee.hunt.proxy._quota_cpus() is None and wilee.hunt.proxy._cpus() == 4, case


def test_split_read_leaves_no_child_process(tmp_path, monkeypatch):
    """No child is left after a split read, whole or filtered, that
    succeeds, one that faults in a child's range, and one interrupted in
    the parent's range; with a second thread alive the read does not
    fork."""
    import threading

    forks = _force_split(monkeypatch)
    rng = random.Random(20261104)
    keys = [memo_key(make_descriptor("Process", []), IocDb())]
    parent = os.getpid()
    checked = wilee.hunt.proxy._checked

    def interrupted(doc, previous):
        if os.getpid() == parent and doc["event_id"] == "bg000050":
            raise KeyboardInterrupt
        return checked(doc, previous)

    for name, read in _READS.items():
        del forks[:]
        path = write_ndjson(tmp_path / "events.ndjson", synth_log(rng, 200))
        assert len(read(path, keys).hits(keys[0])) > 0 and len(forks) == 1, name
        _assert_no_child_left()

        with path.open("ab") as handle:
            handle.write(b"[1, 2]\n")
        with pytest.raises(ProxyUnavailable, match=":201: expected a JSON object"):
            read(path, keys)
        assert len(forks) == 2, name
        _assert_no_child_left()

        path = write_ndjson(tmp_path / "events.ndjson", sorted(synth_log(rng, 200), key=lambda doc: doc["event_id"]))
        monkeypatch.setattr(wilee.hunt.proxy, "_checked", interrupted)
        with pytest.raises(KeyboardInterrupt):
            read(path, keys)
        assert len(forks) == 3, name
        _assert_no_child_left()
        monkeypatch.setattr(wilee.hunt.proxy, "_checked", checked)

        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert wilee.hunt.proxy._cut(path) is None
            read(path, keys)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(forks) == 3, name
        assert wilee.hunt.proxy._cut(path) is not None


def _one_sided_log(rng, n):
    """A :func:`_column_log` of ``n`` events whose first or last quarter
    also holds the only events of class ``Mutant`` and the only ``only``
    fields of ``Process``, so that with two ranges they fall in one."""
    events, values = _column_log(rng, n)
    side = range(n // 4) if rng.random() < 0.5 else range(n - n // 4, n)
    for i in side:
        doc = events[i]
        if rng.random() < 0.4:
            doc["entity_class"] = "Mutant"
        elif doc["entity_class"] == "Process" and "fields" in doc:
            doc["fields"]["only"] = rng.choice(values)
    return events, values


def test_split_whole_read_equals_serial_whole_read_on_random_logs(tmp_path, monkeypatch):
    """Split into two ranges, the whole read gives each key, asked once or
    twice, the serial whole read's hits and the reference read's, with
    the same ``scan`` of every class and ``sha256``; an :class:`Event` is
    one object however many keys hold it.  The logs hold a class and a
    field that only one range has, hosts and timestamp texts on both
    sides of the cut, and links in both ranges."""
    rng = random.Random(20261108)
    path = tmp_path / "events.ndjson"
    forks = _force_split(monkeypatch)
    seen = Counter()
    for trial in range(150):
        events, logged = _one_sided_log(rng, rng.randrange(8, 80))
        write_ndjson(path, events)
        keys = [_column_key(rng, logged) for _ in range(rng.randrange(2, 8))]
        keys += [("Mutant", ()), ("Mutant", (("name", frozenset(), ("*",)),)),
                 ("Process", (("only", frozenset(), ("*",)),)), ("Process", (("only", frozenset({"cmd.exe"}), ()),))]
        classes = (*_COLUMN_FIELDS, "Mutex", "Mutant", "DnsQuery")
        monkeypatch.setattr(wilee.hunt.proxy, "_cpus", lambda: 1)
        serial = NdjsonProxy(path)
        monkeypatch.setattr(wilee.hunt.proxy, "_cpus", lambda: 2)
        del forks[:]
        split = NdjsonProxy(path)
        assert len(forks) == 1 and len(split._parts) == 2 and len(serial._parts) == 1
        assert split.sha256 == serial.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
        by_class, expected, fault = oracle_read_events(path, keys)
        assert fault is None
        asked = [*keys, *rng.choices(keys, k=rng.randrange(1, 6))]
        rng.shuffle(asked)
        answers, objects = {}, {}
        for key in asked:
            got = split.hits(key)
            assert _attributes(got) == _attributes(serial.hits(key)) == _lean(expected[key]), (trial, key)
            # The join keeps one position per event id of a hit list.
            assert len({event.event_id for event in got}) == len(got), (trial, key)
            if key in answers:
                assert got is answers[key]
                seen["asked_twice"] += 1
            answers[key] = got
            for event in got:
                assert objects.setdefault(event.event_id, event) is event, (trial, key)
            filt = key[1]
            seen["empty"] += not filt
            seen["exact"] += any(exact for _, exact, _ in filt)
            seen["glob"] += any(globs for _, _, globs in filt)
        for cls in classes:
            scan = split.scan(cls)
            assert _attributes(scan) == _attributes(serial.scan(cls)) == _lean(by_class.get(cls, [])), (trial, cls)
            assert all(objects.setdefault(e.event_id, e) is e for e in scan), (trial, cls)
        first, second = split._parts
        seen["class_in_one_range"] += len(set(first.classes) ^ set(second.classes))
        seen["field_in_one_range"] += sum(
            len(set(first.classes[cls].fields) ^ set(second.classes[cls].fields))
            for cls in set(first.classes) & set(second.classes)
        )
        seen["host_on_both_sides"] += bool(set(first.hosts) & set(second.hosts))
        stamps = [{doc["timestamp"] for doc in events if doc["event_id"] in ids} for ids in (
            {i for held in part.classes.values() for i in held.ids} for part in (first, second))]
        seen["stamp_text_on_both_sides"] += bool(stamps[0] & stamps[1])
        seen["links_in_both_ranges"] += all(any(held.links for held in part.classes.values()) for part in (first, second))
    _assert_no_child_left()
    assert min(seen.values()) >= 30, seen


def _holds_datetime(data: bytes) -> bool:
    """Whether the first pickle in ``data`` loads a global of the
    ``datetime`` module: by name (protocols 0-3) or by the module string
    that ``STACK_GLOBAL`` reads (protocol 4 and up)."""
    return any(
        (op.name in ("GLOBAL", "INST") and arg.split(" ")[0] == "datetime") or arg == "datetime"
        for op, arg, _ in pickletools.genops(data)
    )


def _holds_text(data: bytes, texts) -> bool:
    """Whether the first pickle in ``data`` holds one of ``texts`` as a
    string."""
    return any(isinstance(arg, str) and arg in texts for op, arg, _ in pickletools.genops(data))


def test_split_whole_read_child_sends_moments_as_integers(tmp_path, monkeypatch):
    """The whole read's forked reader sends each moment of its range as
    an integer, in one ``array('q')`` per class: its reply holds neither
    a ``datetime`` nor a timestamp text, and its columns are those the
    split read keeps.  The split and serial whole reads hand out equal
    events, and within a part the events of one text have one moment."""
    _force_split(monkeypatch)
    forked = wilee.hunt.proxy._forked
    reads = []
    monkeypatch.setattr(wilee.hunt.proxy, "_forked", lambda read, *args: reads.append(read) or forked(read, *args))
    rng = random.Random(20261120)
    events = synth_log(rng, 400)
    # A few texts, each on lines far apart and of several classes.
    texts = sorted({doc["timestamp"] for doc in events})[:: len(events) // 20]
    for doc in events:
        doc["timestamp"] = rng.choice(texts)
    path = write_ndjson(tmp_path / "events.ndjson", events)
    stamp_of = {doc["event_id"]: doc["timestamp"] for doc in events}
    classes = sorted({doc["entity_class"] for doc in events})

    split = NdjsonProxy(path)
    (read,) = reads
    assert len(split._parts) == 2
    for part in split._parts:
        assert not hasattr(part, "stamps")
        assert all(held.moments.typecode == "q" and len(held.moments) == len(held.ids) for held in part.classes.values())
    cut, size = wilee.hunt.proxy._cut(path)
    pid, pipe = forked(read, cut, size)
    with open(pipe, "rb") as source:
        reply = source.read()
    os.waitpid(pid, 0)
    assert _holds_datetime(pickle.dumps([datetime(2026, 3, 1, tzinfo=timezone.utc)], pickle.HIGHEST_PROTOCOL))
    assert not _holds_datetime(reply)
    assert _holds_text(pickle.dumps(texts, pickle.HIGHEST_PROTOCOL), texts)
    assert not _holds_text(reply, texts)
    sent = pickle.loads(reply)
    assert {cls: held.moments for cls, held in sent.classes.items()} == {
        cls: held.moments for cls, held in split._parts[1].classes.items()
    }

    monkeypatch.setattr(wilee.hunt.proxy, "_cpus", lambda: 1)
    serial = NdjsonProxy(path)
    assert len(serial._parts) == 1
    for cls in classes:
        assert split.scan(cls) == serial.scan(cls) == [
            Event(doc["event_id"], doc["host"], oracle_micros(parse_rfc3339(doc["timestamp"])), ())
            for doc in events if doc["entity_class"] == cls
        ], cls
    shared = distinct = 0
    for part in split._parts:
        moments = {}
        for held in part.classes.values():
            for event in held.events.values():
                assert type(event.moment) is int
                assert moments.setdefault(stamp_of[event.event_id], event.moment) == event.moment
                shared += 1
        assert len(moments) == len(set(moments.values()))
        assert len(moments) == len({stamp_of[i] for held in part.classes.values() for i in held.ids})
        distinct += len(moments)
    assert shared > 2 * distinct
    _assert_no_child_left()
