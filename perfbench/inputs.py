"""Seeded inputs for the wilee benchmark.

Everything here is a pure function of the workload name and the seed.
The module imports nothing from ``wilee`` or from ``tests``: the program
under test receives only the files written by :func:`write_inputs`, and
the checks in ``checks.py`` read the :class:`Spec` returned beside them.

Every workload hunts the same two-step description (``t1552_002()``
then ``t1059_001()``) over a log holding one planted attack on one
host.  Background events never carry a planted value and never match a
selective variant, so the generator knows, for each stored variant,
whether the planted events satisfy it and whether any event at all can.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Callable, Optional, Union

BASE_TIME = datetime(2026, 3, 1, tzinfo=timezone.utc)
DAY_SECONDS = 86_400
DESCRIPTION_NAME = "putty_hunt"
DESCRIPTION_SRC = "def putty_hunt():\n    t1552_002()\n    t1059_001()\n"
HUNTED = ("T1552.002", "T1059.001")
TACTICS = {"T1552.002": "credential-access", "T1059.001": "execution"}

HOSTS = ("dc-01", "srv-db-01", "srv-web-02", "ws-001", "ws-002", "ws-003")
PLANTED_HIVES = (
    "Software\\SimonTatham\\Putty\\Sessions",
    "Software\\Wow6432Node\\Putty\\Sessions",
    "Software\\9bis\\KiTTY\\Putty\\Sessions",
)
PLANTED_PROCESSES = (
    "TrojanSpy.Win32.TRICKBOT.AZ",
    "Trojan.Win32.EMOTET.KX",
    "TrojanSpy.Win32.QAKBOT.YB",
)
PLANTED_COMMANDS = (
    'Get-Process -Name "powershell" | Stop-Process',
    'Get-Process -Name "lsass" | Out-File C:\\Temp\\p.txt',
    "Get-Process -Id 4242 | Stop-Process -Force",
)
# Selective patterns: each matches every planted value of its kind and
# no background value.
HIVE_GLOB = "Software\\*\\Putty\\Sessions"
COMMAND_GLOB = "Get-Process *"
# Broad pattern: matches the planted hive and most background hives.
BROAD_HIVE_GLOB = "Software\\*"

BENIGN_HIVES = (
    "Software\\Microsoft\\Windows\\CurrentVersion\\Run",
    "Software\\Microsoft\\Office\\16.0\\Common",
    "Software\\Policies\\Microsoft\\Edge",
    "Software\\Classes\\CLSID",
    "Software\\Mozilla\\Firefox\\Extensions",
    "System\\CurrentControlSet\\Services\\Tcpip",
    "System\\CurrentControlSet\\Control\\Lsa",
)
BENIGN_KEYS = ("Run", "Settings", "Parameters", "Profile", "Cache")
BENIGN_PROCESSES = (
    "explorer.exe", "svchost.exe", "chrome.exe", "winlogon.exe",
    "notepad.exe", "outlook.exe", "teams.exe", "msedge.exe",
)
BENIGN_COMMANDS = (
    "ping -n 1 fileserver", "tasklist /v", "ipconfig /all", "whoami /groups",
    "net use", "sc query", "schtasks /query", "dir C:\\Users",
)
USERS = ("alice", "bob", "carol", "dave", "svc-backup", "SYSTEM")
DOMAINS = ("intranet.example", "updates.example.com", "cdn.example.net", "mail.example.org")

# Entity classes of background events, with the fields each carries.
CLASSES = ("Process", "WinRegistryKey", "File", "NetworkConnection", "DnsQuery")
# Share of background processes linked to the latest registry event on
# their host.
LINK_SHARE = 0.05


# ---------------------------------------------------------------------------
# Variants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bind:
    ioc_type: str
    technique: Optional[str] = None
    pattern: Optional[str] = None


Value = Union[str, Bind]


@dataclass(frozen=True)
class Variant:
    """One stored TTP function.

    ``planted``: the planted events satisfy every obligation.
    ``selective``: no background event matches any object's predicates,
    so only the planted host can confirm it.
    A variant that is not ``planted`` is unsatisfiable by every event.
    """

    technique: str
    objects: tuple[tuple[str, str, tuple[tuple[str, Value], ...]], ...]
    relations: tuple[tuple[str, str, str], ...]
    planted: bool
    selective: bool = True

    @property
    def source(self) -> str:
        lines = ["def " + step_identifier(self.technique) + "():"]
        lines += [f"    {var} = {cls}()" for var, cls, _ in self.objects]
        for var, _, predicates in self.objects:
            lines += [f"    {var}.{attr} = {value_source(value)}" for attr, value in predicates]
        lines += [f"    {s}.{verb}({o})" for s, verb, o in self.relations]
        return "\n".join(lines) + "\n"

    @property
    def ast_hash(self) -> str:
        # The source above is written in the printer's canonical form,
        # so its digest is the record's content hash.
        return hashlib.sha256(self.source.encode("utf-8")).hexdigest()[:12]

    @property
    def record_id(self) -> str:
        return f"{self.technique}:SME:{self.ast_hash}"

    def bind_sites(self, step_index: int) -> list[tuple[int, tuple[int, int]]]:
        """(step, (statement index, 1)) for every bind, in source order."""
        sites = []
        index = len(self.objects)
        for _, _, predicates in self.objects:
            for _, value in predicates:
                if isinstance(value, Bind):
                    sites.append((step_index, (index, 1)))
                index += 1
        return sites


def step_identifier(technique: str) -> str:
    return "t" + technique[1:].replace(".", "_")


def escape(value: str) -> str:
    """Source form of a string literal: a backslash is escaped only before
    another backslash, a quote, or the closing quote."""
    out = []
    for i, ch in enumerate(value):
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            nxt = value[i + 1] if i + 1 < len(value) else None
            out.append("\\\\" if nxt in ("\\", '"', None) else "\\")
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'


def value_source(value: Value) -> str:
    if isinstance(value, str):
        return escape(value)
    parts = [f"ioc_type={value.ioc_type}"]
    if value.technique is not None:
        parts.append(f"technique={escape(value.technique)}")
    if value.pattern is not None:
        parts.append(f"pattern={escape(value.pattern)}")
    return "bind(" + ", ".join(parts) + ")"


def _putty(planted: bool, hive: Value, name: Optional[Value], selective: bool = True) -> Variant:
    process_preds = () if name is None else (("name", name),)
    hive_preds = () if hive is None else (("Hive", hive),)
    return Variant(
        "T1552.002",
        (("winregistrykey1", "WinRegistryKey", hive_preds), ("process1", "Process", process_preds)),
        (("process1", "observed", "winregistrykey1"),),
        planted,
        selective,
    )


def _command(planted: bool, command: Value, selective: bool = True) -> Variant:
    return Variant(
        "T1059.001", (("process1", "Process", (("command_line", command),)),), (), planted, selective
    )


def _unsat(rng: random.Random, kind: str) -> str:
    return f"{kind}-absent-{rng.randrange(16**8):08x}"


def window_variants(rng: random.Random, attack: "Attack") -> list[Variant]:
    """Two broad variants whose relation falls back to the time window."""
    return [
        _putty(True, HIVE_GLOB, attack.process),
        _putty(True, BROAD_HIVE_GLOB, None, selective=False),
        _putty(True, None, "*.*", selective=False),
        _putty(False, HIVE_GLOB, _unsat(rng, "proc")),
        _command(True, attack.command),
        _command(True, COMMAND_GLOB),
        _command(False, _unsat(rng, "cmd")),
    ]


def bind_variants(rng: random.Random, attack: "Attack") -> list[Variant]:
    """Every predicate a bind into the IOC database; no broad relation."""
    b = Bind
    return [
        _putty(True, b("registry_hive", "T1552.002"), b("process_name", "T1552.002")),
        _putty(True, b("registry_hive", None, "*Putty*"), b("process_name", "T1552.002", "Trojan*")),
        _putty(False, b("registry_hive", "T1552.002"), b("process_name", "T1555.003")),
        _command(True, b("command_line", "T1059.001")),
        _command(True, b("command_line", None, "Get-Process*")),
        _command(False, b("command_line", "T1059.003")),
    ]


def scale_variants(rng: random.Random, attack: "Attack") -> list[Variant]:
    """Selective variants only (literals and narrow globs), so the hunt's
    work is reading the log and scanning it per class."""
    return [
        _putty(True, HIVE_GLOB, attack.process),
        _putty(True, attack.hive, "Trojan*"),
        _putty(False, HIVE_GLOB, _unsat(rng, "proc")),
        _command(True, attack.command),
        _command(True, COMMAND_GLOB),
        _command(False, _unsat(rng, "cmd")),
    ]


def generate_variants(rng: random.Random, attack: "Attack") -> list[Variant]:
    return [
        _putty(True, HIVE_GLOB, attack.process),
        _putty(False, HIVE_GLOB, _unsat(rng, "proc")),
        _command(True, attack.command),
        _command(True, COMMAND_GLOB),
    ]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    events: int
    mix: tuple[float, ...]  # background share per entry of CLASSES
    variants: Callable[[random.Random, "Attack"], list[Variant]]
    fillers: int  # store records for techniques the hunt never asks for
    decoy_iocs: int  # IOC records whose values no event carries
    hunted_decoys: int  # of those, records filed under the hunted techniques
    perturb_runs: int = 0  # gpe runs per round (generate only)
    # Times a round repeats its hunt and its malmo+perturb group; a short
    # command is repeated so that each round measures it for about a second.
    repeats: tuple[int, int] = (1, 1)


SHAPES = {
    "hunt_window": Shape(20_000, (0.13, 0.06, 0.31, 0.30, 0.20), window_variants, 40, 40, 4, repeats=(1, 12)),
    "hunt_bind": Shape(3_000, (0.35, 0.25, 0.15, 0.15, 0.10), bind_variants, 100, 1_000, 200, repeats=(1, 2)),
    "hunt_scale": Shape(120_000, (0.20, 0.10, 0.30, 0.25, 0.15), scale_variants, 40, 40, 4, repeats=(1, 4)),
    "generate": Shape(2_500, (0.25, 0.15, 0.25, 0.25, 0.10), generate_variants, 40, 200, 24, 8, repeats=(8, 1)),
}

# Each round runs one gpe trajectory per seed 0 .. perturb_runs - 1; the
# sum over several short trajectories varies far less from one input
# seed to the next than a single long one.
GPE_CONFIG = {
    "population_size": 10,
    "generations": 5,
    "archive_capacity": 16,
    "add_threshold": 0.1,
}


@dataclass(frozen=True)
class Attack:
    host: str
    start: int  # seconds after BASE_TIME
    hive: str
    process: str
    command: str

    def events(self) -> list[dict]:
        return [
            _event("atk-reg", self.start, self.host, "WinRegistryKey", {"Hive": self.hive, "Key": "Sessions"}),
            _event(
                "atk-proc", self.start + 20, self.host, "Process",
                {"name": self.process, "pid": "4242", "user": "alice"},
                [{"verb": "observed", "target": "atk-reg"}],
            ),
            _event(
                "atk-cmd", self.start + 300, self.host, "Process",
                {"name": "powershell.exe", "pid": "4243", "command_line": self.command, "user": "alice"},
            ),
        ]


@dataclass(frozen=True)
class Spec:
    """What the generator knows about the inputs it wrote."""

    workload: str
    seed: int
    attack: Attack
    variants: tuple[Variant, ...]
    shape: Shape

    def step_variants(self, technique: str) -> list[Variant]:
        return [v for v in self.variants if v.technique == technique]


def iso(seconds: int) -> str:
    return (BASE_TIME + timedelta(seconds=seconds)).strftime("%Y-%m-%dT%H:%M:%SZ")


def _event(event_id, seconds, host, cls, fields, links=None) -> dict:
    doc = {"event_id": event_id, "timestamp": iso(seconds), "host": host, "entity_class": cls, "fields": fields}
    if links:
        doc["links"] = links
    return doc


def _background(rng: random.Random, cls: str) -> dict:
    if cls == "Process":
        return {
            "name": rng.choice(BENIGN_PROCESSES),
            "pid": str(rng.randrange(100, 65_000)),
            "command_line": rng.choice(BENIGN_COMMANDS),
            "user": rng.choice(USERS),
        }
    if cls == "WinRegistryKey":
        return {"Hive": rng.choice(BENIGN_HIVES), "Key": rng.choice(BENIGN_KEYS)}
    if cls == "File":
        return {
            "path": f"C:\\Users\\{rng.choice(USERS)}\\file{rng.randrange(10_000)}.txt",
            "size": str(rng.randrange(1, 10_000_000)),
        }
    if cls == "NetworkConnection":
        return {
            "dst_ip": f"10.0.{rng.randrange(256)}.{rng.randrange(256)}",
            "dst_port": str(rng.choice((53, 80, 443, 445))),
            "protocol": "tcp",
        }
    return {"query_name": rng.choice(DOMAINS), "query_type": "A"}


def write_events(path: Path, rng: random.Random, shape: Shape, attack: Attack) -> None:
    """Stream the log in (timestamp, event_id) order without holding it."""
    planted = attack.events()
    count = shape.events - len(planted)
    times = sorted(rng.randrange(DAY_SECONDS) for _ in range(count))
    cumulative = []
    total = 0.0
    for share in shape.mix:
        total += share
        cumulative.append(total / sum(shape.mix))
    last_registry: dict[str, str] = {}
    pending = sorted(planted, key=lambda e: (e["timestamp"], e["event_id"]))
    with open(path, "w", encoding="utf-8") as out:
        for i, seconds in enumerate(times):
            stamp = iso(seconds)
            event_id = f"bg{i:07d}"
            while pending and (pending[0]["timestamp"], pending[0]["event_id"]) < (stamp, event_id):
                out.write(json.dumps(pending.pop(0)) + "\n")
            roll = rng.random()
            cls = next(c for c, edge in zip(CLASSES, cumulative) if roll < edge)
            host = rng.choice(HOSTS)
            links = None
            if cls == "WinRegistryKey":
                last_registry[host] = event_id
            elif cls == "Process" and host in last_registry and rng.random() < LINK_SHARE:
                links = [{"verb": "observed", "target": last_registry[host]}]
            out.write(json.dumps(_event(event_id, seconds, host, cls, _background(rng, cls), links)) + "\n")
        for event in pending:
            out.write(json.dumps(event) + "\n")


def _ioc_records(rng: random.Random, shape: Shape, attack: Attack) -> list[dict]:
    """Planted indicators, then decoys whose values no event carries."""
    hunted_hives = rng.choice((1, 3))  # one record: malmo writes a literal; several: a bind
    records = [
        {"ioc_type": "registry_hive", "value": attack.hive, "technique_id": "T1552.002", "source": "planted"},
        {"ioc_type": "process_name", "value": attack.process, "technique_id": "T1552.002", "source": "planted"},
        {"ioc_type": "command_line", "value": attack.command, "technique_id": "T1059.001", "source": "planted"},
        {"ioc_type": "command_line", "value": COMMAND_GLOB, "source": "planted"},
    ]
    for k in range(1, hunted_hives):
        records.append(
            {"ioc_type": "registry_hive", "value": f"Software\\Decoy{k}\\*\\Sessions", "technique_id": "T1552.002"}
        )
    techniques = ("T1003.001", "T1547.001", "T1021.002", "T1105", "T1070.004", "T1555.003", "T1059.003")
    types = ("process_name", "file_path", "domain", "command_line", "hash", "registry_hive")
    for i in range(shape.decoy_iocs):
        ioc_type = types[i % len(types)]
        if i < shape.hunted_decoys:
            technique = HUNTED[i % 2]
        else:
            technique = rng.choice(techniques)
        token = f"{rng.randrange(16**10):010x}"
        value = {
            "process_name": f"decoy_{token}.exe",
            "file_path": f"C:\\ProgramData\\{token}\\*.dll" if i % 4 == 1 else f"C:\\ProgramData\\{token}.bin",
            "domain": f"{token}.example.invalid",
            "command_line": f"decoy-{token} *" if i % 5 == 3 else f"decoy-{token} --run",
            "hash": hashlib.sha256(token.encode()).hexdigest(),
            "registry_hive": f"Software\\Decoy\\{token}\\*",
        }[ioc_type]
        records.append({"ioc_type": ioc_type, "value": value, "technique_id": technique, "source": "decoy"})
    rng.shuffle(records)
    return records


_FILLER_TECHNIQUES = ("T1003.001", "T1547.001", "T1021.002", "T1105", "T1070.004", "T1555.003", "T1053.005")
_FILLER_TACTICS = ("credential-access", "persistence", "lateral-movement", "command-and-control", "defense-evasion")
_FILLER_SHAPES = (
    ("Process", "name"), ("File", "path"), ("WinService", "service_name"),
    ("DnsQuery", "query_name"), ("WinTask", "task_name"), ("NetworkConnection", "dst_port"),
)


def _filler(rng: random.Random, index: int) -> Variant:
    picks = rng.sample(_FILLER_SHAPES, 2)
    objects = tuple(
        (f"{cls.lower()}{k + 1}", cls, ((attr, f"filler-{index}-{k}-{rng.randrange(16**6):06x}"),))
        for k, (cls, attr) in enumerate(picks)
    )
    relations = ((objects[0][0], rng.choice(("has", "observed")), objects[1][0]),)
    return Variant(_FILLER_TECHNIQUES[index % len(_FILLER_TECHNIQUES)], objects, relations, False)


def technique_text(rng: random.Random) -> dict:
    opening = rng.choice((
        "Adversaries may search the registry keys of a compromised system for insecurely stored credentials.",
        "Adversaries may query the window registry of a compromised system for saved credentials.",
    ))
    middle = rng.choice((
        "A malicious process can query the registry hive for passwords saved by programs such as Putty sessions.",
        "A malicious process reads the registry hive where session programs store passwords.",
    ))
    return {"id": "T1552.002", "name": "Unsecured Credentials: Credentials in Registry", "description": f"{opening} {middle}"}


def make_spec(workload: str, seed: int) -> Spec:
    """The attack and the hunted variants of one workload and seed."""
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}/{seed}/spec")
    attack = Attack(
        host=rng.choice(HOSTS),
        start=rng.randrange(2 * 3600, 20 * 3600),
        hive=rng.choice(PLANTED_HIVES),
        process=rng.choice(PLANTED_PROCESSES),
        command=rng.choice(PLANTED_COMMANDS),
    )
    return Spec(workload, seed, attack, tuple(shape.variants(rng, attack)), shape)


def write_inputs(spec: Spec, directory: Path) -> None:
    """Write every input file the program receives."""
    shape, attack = spec.shape, spec.attack
    rng = random.Random(f"{spec.workload}/{spec.seed}/files")
    directory.mkdir(parents=True, exist_ok=True)
    store = directory / "ttp_store"
    store.mkdir(exist_ok=True)
    records = [(v, [TACTICS[v.technique]]) for v in spec.variants]
    records += [(_filler(rng, i), [rng.choice(_FILLER_TACTICS)]) for i in range(shape.fillers)]
    rng.shuffle(records)
    index = []
    for i, (variant, tags) in enumerate(records):
        name = f"r{i:04d}.wdsl"
        (store / name).write_text(variant.source, "utf-8")
        index.append(json.dumps({"technique_id": variant.technique, "tactic_tags": tags, "source": "SME", "path": name}))
    (store / "index.jsonl").write_text("\n".join(index) + "\n", "utf-8")
    iocs = _ioc_records(rng, shape, attack)
    (directory / "ioc_db.jsonl").write_text("".join(json.dumps(r) + "\n" for r in iocs), "utf-8")
    (directory / "hunt.wdsl").write_text(DESCRIPTION_SRC, "utf-8")
    (directory / "technique_t1552_002.json").write_text(json.dumps(technique_text(rng), indent=2) + "\n", "utf-8")
    (directory / "seed_impl.wdsl").write_text(spec.variants[0].source, "utf-8")
    (directory / "gpe.json").write_text(json.dumps(GPE_CONFIG, indent=2) + "\n", "utf-8")
    write_events(directory / "events.ndjson", rng, shape, attack)
