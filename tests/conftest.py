"""Shared fixtures: the default model, a small reference store, and a
synthetic event-log builder with a plantable two-step attack."""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from wilee.dsl import function_def, module, parse, validate
from wilee.stores import DataModel, IocDb, IocRecord, TtpRecord, TtpStore

FIXTURES = Path(__file__).parent / "fixtures"

#: Multiplies the seeded cases of the fuzz and differential tests:
#: ``WILEE_FUZZ_SCALE=8`` runs eight times as many.
FUZZ_SCALE = int(os.environ.get("WILEE_FUZZ_SCALE", "1"))

T1552_PUTTY_SRC = '''def t1552_002():
    winregistrykey1 = WinRegistryKey()
    winregistrykey1.Hive = "Software\\*\\Putty\\Sessions"
    process1 = Process()
    process1.name = "TrojanSpy.Win32.TRICKBOT.AZ"
    process1.observed(winregistrykey1)
'''

T1552_RUNKEY_SRC = '''def t1552_002():
    winregistrykey1 = WinRegistryKey()
    winregistrykey1.Hive = "Software\\*\\OpenSSH\\Agent"
    process1 = Process()
    process1.name = "reg.exe"
    process1.observed(winregistrykey1)
'''

T1059_SRC = '''def t1059_001():
    process1 = Process()
    process1.command_line = "Get-Process -Name \\"powershell\\" | Stop-Process"
'''


def function_from(source: str):
    return parse(source).children[0]


def random_module(gen, max_functions: int = 4):
    """A module of up to ``max_functions`` functions from ``gen``, an
    :class:`AstGenerator`."""
    count = gen.rng.randrange(0, max_functions + 1)
    return module(tuple(gen.random_function() for _ in range(count)))


def random_ttp_function(gen, technique_ident: str):
    """A concrete function with at least one object, for store fixtures."""
    fn = gen.random_function(name=technique_ident, abstract=False)
    if not fn.children:
        fn = function_def(technique_ident, (gen.random_instantiation({}),))
    return fn


def step_names(desc) -> tuple[str, ...]:
    """The step each abstract call of a threat description names."""
    return tuple(step.attrs["step"] for step in desc.steps)


@pytest.fixture(scope="session")
def model() -> DataModel:
    return DataModel.default()


def build_store(model: DataModel, entries) -> TtpStore:
    """entries: iterable of (technique_id, tactic_tags, source, dsl_source),
    each a valid concrete body.  A record is kept once per record id, as
    :func:`~wilee.stores.load_stores` keeps it."""
    records = {}
    for technique_id, tags, source, text in entries:
        fn = function_from(text)
        assert not validate(fn, model), text
        record = TtpRecord(technique_id, tuple(tags), source, fn)
        records.setdefault(record.record_id, record)
    return TtpStore(list(records.values()))


@pytest.fixture
def putty_store(model) -> TtpStore:
    return build_store(
        model,
        [
            ("T1552.002", ("credential-access",), "SME", T1552_PUTTY_SRC),
            ("T1552.002", ("credential-access",), "SME", T1552_RUNKEY_SRC),
            ("T1059.001", ("execution",), "SME", T1059_SRC),
        ],
    )


@pytest.fixture
def putty_ioc_db() -> IocDb:
    return IocDb(
        (
            IocRecord("registry_hive", "Software\\SimonTatham\\Putty\\Sessions", "T1552.002"),
            IocRecord("registry_hive", "Software\\Wow6432Node\\Putty\\Sessions", "T1552.002"),
            IocRecord("process_name", "TrojanSpy.Win32.TRICKBOT.AZ", "T1552.002"),
            IocRecord(
                "command_line",
                'Get-Process -Name "powershell" | Stop-Process',
                "T1059.001",
                "caldera-stockpile",
            ),
            IocRecord("process_name", "mimikatz.exe", "T1003.001"),
        )
    )


# ---------------------------------------------------------------------------
# Synthetic event logs
# ---------------------------------------------------------------------------

_BASE_TIME = datetime(2026, 3, 1, 0, 0, 0, tzinfo=timezone.utc)

_BENIGN_HIVES = (
    "Software\\Microsoft\\Windows\\CurrentVersion\\Run",
    "Software\\Policies\\Microsoft\\Edge",
    "System\\CurrentControlSet\\Services\\Tcpip",
    "Software\\Classes\\CLSID",
)
_BENIGN_PROCESSES = ("explorer.exe", "svchost.exe", "chrome.exe", "winlogon.exe", "notepad.exe")
_BENIGN_COMMANDS = (
    "ping -n 1 fileserver",
    "tasklist /v",
    "ipconfig /all",
    "whoami /groups",
)
_HOSTS = ("ws-001", "ws-002", "srv-db-01", "srv-web-02", "dc-01")


def iso(moment: datetime) -> str:
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def background_event(rng: random.Random, index: int) -> dict:
    moment = _BASE_TIME + timedelta(seconds=rng.randrange(0, 86_400))
    host = rng.choice(_HOSTS)
    roll = rng.random()
    if roll < 0.35:
        cls, fields = "Process", {
            "name": rng.choice(_BENIGN_PROCESSES),
            "pid": str(rng.randrange(100, 65000)),
            "command_line": rng.choice(_BENIGN_COMMANDS),
        }
    elif roll < 0.55:
        cls, fields = "WinRegistryKey", {"Hive": rng.choice(_BENIGN_HIVES)}
    elif roll < 0.75:
        cls, fields = "File", {
            "path": f"C:\\Users\\u{rng.randrange(100)}\\file{rng.randrange(1000)}.txt",
            "size": str(rng.randrange(1, 10_000_000)),
        }
    else:
        cls, fields = "NetworkConnection", {
            "dst_ip": f"10.0.{rng.randrange(256)}.{rng.randrange(256)}",
            "dst_port": str(rng.choice((80, 443, 53, 445))),
            "protocol": "tcp",
        }
    return {
        "event_id": f"bg{index:06d}",
        "timestamp": iso(moment),
        "host": host,
        "entity_class": cls,
        "fields": fields,
    }


@dataclass(frozen=True)
class PlantedAttack:
    """The three witness events for the two-step putty workflow on one
    host.  Every witness is essential: each backs exactly one obligation."""

    host: str = "ws-002"
    events: tuple[dict, ...] = ()

    @classmethod
    def build(cls, host: str = "ws-002") -> "PlantedAttack":
        t0 = _BASE_TIME + timedelta(hours=6)
        events = (
            {
                "event_id": "atk-reg",
                "timestamp": iso(t0),
                "host": host,
                "entity_class": "WinRegistryKey",
                "fields": {"Hive": "Software\\SimonTatham\\Putty\\Sessions"},
            },
            {
                "event_id": "atk-proc",
                "timestamp": iso(t0 + timedelta(seconds=20)),
                "host": host,
                "entity_class": "Process",
                "fields": {"name": "TrojanSpy.Win32.TRICKBOT.AZ", "pid": "4242"},
            },
            {
                "event_id": "atk-cmd",
                "timestamp": iso(t0 + timedelta(seconds=300)),
                "host": host,
                "entity_class": "Process",
                "fields": {
                    "command_line": 'Get-Process -Name "powershell" | Stop-Process'
                },
            },
        )
        return cls(host, events)

    @property
    def witness_ids(self) -> tuple[str, ...]:
        return tuple(e["event_id"] for e in self.events)


def synth_log(rng: random.Random, count: int, planted: tuple[dict, ...] = ()) -> list[dict]:
    events = [background_event(rng, i) for i in range(count - len(planted))]
    events.extend(planted)
    events.sort(key=lambda e: (e["timestamp"], e["event_id"]))
    return events


def write_ndjson(path: Path, events: list[dict]) -> Path:
    path.write_text("".join(json.dumps(e) + "\n" for e in events), "utf-8")
    return path


@pytest.fixture(scope="session")
def big_log_events() -> list[dict]:
    rng = random.Random(20260301)
    return synth_log(rng, 10_000, PlantedAttack.build().events)


@pytest.fixture(scope="session")
def clean_log_events() -> list[dict]:
    rng = random.Random(20260301)
    return synth_log(rng, 10_000)


def _line(**doc) -> bytes:
    base = {"event_id": "bad1", "timestamp": "2026-03-01T07:00:00Z", "host": "ws-002", "entity_class": "File"}
    return json.dumps({**base, **doc}).encode()


#: Malformed event-log lines, by name, with the message a read gives for
#: each; no hunt filter of the putty workspace asks for them.  Written
#: after ``PlantedAttack`` events, each must fail any read of the log at
#: its own line.
MALFORMED_EVENT_LINES = {
    "invalid-json": (b'{"event_id": "bad1", "timestamp"', "Expecting ':' delimiter"),
    "not-an-object": (b"[1, 2]", "expected a JSON object"),
    "not-utf8": (
        _line(fields={"path": "C:\\x"}).replace(b"C:", b"\xffC:"),
        "not UTF-8: invalid start byte at byte 120",
    ),
    "bad-timestamp": (_line(timestamp="yesterday", fields={}), "Invalid isoformat string: 'yesterday'"),
    "numeric-timestamp": (_line(timestamp=5, fields={}), "Invalid isoformat string: '5'"),
    # ISO 8601 forms that are not RFC 3339 date-times.
    "date-only-timestamp": (_line(timestamp="2026-03-01", fields={}), "Invalid isoformat string: '2026-03-01'"),
    "basic-date-timestamp": (_line(timestamp="20260301", fields={}), "Invalid isoformat string: '20260301'"),
    "week-date-timestamp": (_line(timestamp="2026-W09-1", fields={}), "Invalid isoformat string: '2026-W09-1'"),
    "numeric-date-timestamp": (_line(timestamp=20260301, fields={}), "Invalid isoformat string: '20260301'"),
    "duplicate-id": (_line(event_id="atk-reg", fields={"path": "C:\\x"}), "duplicate event_id 'atk-reg'"),
    "fields-list": (_line(fields=["path"]), "'fields' must be a JSON object"),
    "fields-null": (_line(fields=None), "'fields' must be a JSON object"),
    "link-without-verb": (_line(fields={}, links=[{"target": "atk-reg"}]), "link 1 has no 'verb'"),
    "link-without-target": (_line(fields={}, links=[{"verb": "observed"}]), "link 1 has no 'target'"),
    "second-link-without-target": (
        _line(fields={}, links=[{"verb": "observed", "target": "atk-reg"}, {"verb": "has"}]),
        "link 2 has no 'target'",
    ),
    "link-a-string": (_line(fields={}, links=["observed"]), "link 1 must be a JSON object"),
    "links-a-number": (_line(fields={}, links=5), "'links' must be a list"),
    "links-null": (_line(fields={}, links=None), "'links' must be a list"),
    "links-an-empty-object": (_line(fields={}, links={}), "'links' must be a list"),
    "links-an-empty-string": (_line(fields={}, links=""), "'links' must be a list"),
    "missing-host": (
        json.dumps({"event_id": "bad1", "timestamp": "2026-03-01T07:00:00Z", "entity_class": "File"}).encode(),
        "missing 'host'",
    ),
}


def log_ending_with(path: Path, line: bytes) -> Path:
    """The planted attack's events, then ``line`` (line 4)."""
    write_ndjson(path, list(PlantedAttack.build().events))
    with path.open("ab") as handle:
        handle.write(line + b"\n")
    return path
