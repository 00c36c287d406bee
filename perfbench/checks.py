"""Output checks, computed apart from the program.

The event log and the IOC database are read here with the standard
library; globs become regular expressions, binds are resolved by a
plain filter, and the evidence join is a per-host time-sorted band join
plus a link lookup.  Implementation ids follow the id scheme the report
promises to keep stable, so each reported verdict maps back to the
variants the generator wrote.  Nothing is compared with a stored copy of
earlier output.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import itertools
import json
import re
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import NamedTuple

from inputs import BASE_TIME, DESCRIPTION_NAME, HUNTED, Bind, Spec, Variant, escape
from tracing import Patches, argument

WINDOW_SECONDS = 60


class Ev(NamedTuple):
    event_id: str
    seconds: int
    host: str
    fields: dict
    links: frozenset


# ---------------------------------------------------------------------------
# Independent readings of the inputs
# ---------------------------------------------------------------------------


def read_log(path: Path, classes: set[str]) -> dict[str, list[Ev]]:
    """Events of the given classes, in log order."""
    by_class: dict[str, list[Ev]] = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            doc = json.loads(line)
            if doc["entity_class"] not in classes:
                continue
            moment = datetime.fromisoformat(doc["timestamp"].replace("Z", "+00:00"))
            links = frozenset((link["verb"], link["target"]) for link in doc.get("links", ()))
            by_class[doc["entity_class"]].append(
                Ev(doc["event_id"], int((moment - BASE_TIME).total_seconds()), doc["host"], doc["fields"], links)
            )
    return by_class


def read_iocs(path: Path) -> list[dict]:
    """IOC records; an exact (type, value) repeat keeps the earliest."""
    seen, out = set(), []
    for line in Path(path).read_text("utf-8").splitlines():
        if line.strip():
            doc = json.loads(line)
            key = (doc["ioc_type"], doc["value"])
            if key not in seen:
                seen.add(key)
                out.append(doc)
    return out


@functools.lru_cache(maxsize=None)
def _regex(pattern: str, fold: bool) -> "re.Pattern[str]":
    return re.compile(".*".join(re.escape(p) for p in pattern.split("*")), re.DOTALL | (re.IGNORECASE if fold else 0))


def glob_matches(pattern: str, value: str) -> bool:
    return _regex(pattern, "\\" in pattern or "\\" in value).fullmatch(value) is not None


def value_matches(candidate: str, actual: str) -> bool:
    return glob_matches(candidate, actual) if "*" in candidate else candidate == actual


class Oracle:
    """Hit lists and joins for the generated inputs."""

    def __init__(self, spec: Spec, inputs: Path):
        classes = {cls for v in spec.variants for _, cls, _ in v.objects}
        self.log = read_log(inputs / "events.ndjson", classes)
        self.iocs = read_iocs(inputs / "ioc_db.jsonl")
        self.events = {e.event_id: e for evs in self.log.values() for e in evs}
        self._scans: dict = {}
        self._binds: dict = {}

    def candidates(self, bind: Bind) -> list[str]:
        if bind not in self._binds:
            self._binds[bind] = [
                r["value"]
                for r in self.iocs
                if r["ioc_type"] == bind.ioc_type
                and (bind.technique is None or r.get("technique_id") == bind.technique)
                and (bind.pattern is None or glob_matches(bind.pattern, r["value"]))
            ]
        return self._binds[bind]

    def _holds(self, fields: dict, attr: str, value) -> bool:
        actual = fields.get(attr)
        if actual is None:
            return False
        if isinstance(value, Bind):
            return any(value_matches(c, actual) for c in self.candidates(value))
        return value_matches(value, actual)

    def scan(self, cls: str, predicates: tuple) -> list[str]:
        key = (cls, predicates)
        if key not in self._scans:
            self._scans[key] = [
                e.event_id for e in self.log.get(cls, ()) if all(self._holds(e.fields, a, v) for a, v in predicates)
            ]
        return self._scans[key]

    def hits(self, variant: Variant) -> dict[str, list[str]]:
        return {var: self.scan(cls, preds) for var, cls, preds in variant.objects}

    def edge_kind(self, source: str, target: str, verb: str):
        s, t = self.events[source], self.events[target]
        if (verb, target) in s.links:
            return "link"
        if source != target and s.host == t.host and abs(s.seconds - t.seconds) <= WINDOW_SECONDS:
            return "window"
        return None

    def join(self, sources: list[str], targets: list[str], verb: str) -> Counter:
        """Edge counts by kind: link lookup, then a per-host band join."""
        target_set = set(targets)
        by_host: dict[str, list] = defaultdict(list)
        for tid in targets:
            t = self.events[tid]
            by_host[t.host].append((t.seconds, tid))
        for times in by_host.values():
            times.sort()
        counts: Counter = Counter()
        for sid in sources:
            s = self.events[sid]
            linked = {tgt for v, tgt in s.links if v == verb and tgt in target_set}
            counts["link"] += len(linked)
            times = by_host.get(s.host, [])
            lo = bisect.bisect_left(times, (s.seconds - WINDOW_SECONDS, ""))
            hi = bisect.bisect_right(times, (s.seconds + WINDOW_SECONDS, "\uffff"))
            counts["window"] += sum(1 for _, tid in times[lo:hi] if tid != sid and tid not in linked)
        return counts


# ---------------------------------------------------------------------------
# Expected implementations
# ---------------------------------------------------------------------------


def impl_id(variants: tuple[Variant, ...]) -> str:
    h = hashlib.sha256(DESCRIPTION_NAME.encode("utf-8"))
    for v in variants:
        h.update(b"\x00" + v.record_id.encode("utf-8"))
    for step, v in enumerate(variants):
        for site in v.bind_sites(step):
            h.update(repr(site).encode("utf-8") + b"\x00")
    return h.hexdigest()[:12]


def expected_impls(spec: Spec) -> dict[str, tuple[Variant, ...]]:
    combos = itertools.product(*(spec.step_variants(t) for t in HUNTED))
    return {impl_id(combo): combo for combo in combos}


def obligations(variant: Variant) -> int:
    related = {name for s, _, o in variant.relations for name in (s, o)}
    return len(variant.relations) + sum(1 for var, _, _ in variant.objects if var not in related)


# ---------------------------------------------------------------------------
# Capture of one hunt's intermediate results
# ---------------------------------------------------------------------------


@dataclass
class Capture:
    """Hit lists, edge counts and witness edges seen inside one hunt."""

    hits: dict = field(default_factory=dict)  # (impl, step, var) -> [event ids]
    keys: dict = field(default_factory=dict)  # qid -> (impl, step, var)
    edges: dict = field(default_factory=dict)  # (impl, step, subj, verb, obj) -> Counter of kinds
    witness_edges: dict = field(default_factory=dict)  # impl -> {edge id: (source, target, verb)}
    fired: set = field(default_factory=set)

    def install(self, patches: Patches) -> None:
        patches.install("wilee.hunt.execute_all", lambda fn: self._after(fn, "execute", self._execute))
        patches.install("wilee.hunt.build_graph", lambda fn: self._after(fn, "build_graph", self._graph))
        patches.install("wilee.hunt.match", lambda fn: self._after(fn, "match", self._match))

    def _after(self, fn, name, record):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            try:
                record(args, kwargs, result)
                self.fired.add(name)
            except Exception as exc:  # a changed interface skips these checks, never the hunt
                print(f"perfbench: cannot read hunt.{name} results: {exc!r}", file=sys.stderr)
            return result

        return wrapper

    def _execute(self, args, kwargs, results) -> None:
        for q in argument(args, kwargs, 0, "descriptors"):
            key = (q.impl_id, q.step_index, q.object_var)
            self.keys[q.qid] = key
            self.hits[key] = [e.event_id for e in results[q.qid]]

    def _graph(self, args, kwargs, graph) -> None:
        for e in graph.edges:
            impl, step, subj = self.keys[e.qid]
            key = (impl, step, subj, e.verb, self.keys[e.peer_qid][2])
            self.edges.setdefault(key, Counter())[e.kind] += 1

    def _match(self, args, kwargs, result) -> None:
        graph = argument(args, kwargs, 0, "graph")
        by_id = {}
        for item in result.witness:
            if ":" not in item:
                e = graph.edges[int(item[1:])]
                by_id[item] = (e.source_event, e.target_event, e.verb)
        self.witness_edges[result.impl_id] = by_id


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_hunt(spec: Spec, oracle: Oracle, report: dict, capture: Capture) -> dict[str, list[str]]:
    """Problems per implementation id ("" for the report as a whole)."""
    problems: dict[str, list[str]] = defaultdict(list)
    expected = expected_impls(spec)
    threats = {t["impl_id"]: t for t in report["threats"]}
    if set(threats) != set(expected):
        problems[""].append(f"report ids {sorted(threats)} differ from expected {sorted(expected)}")
    order = [(-t["score"], t["impl_id"]) for t in report["threats"]]
    if order != sorted(order):
        problems[""].append("report not ordered by (-score, impl_id)")
    for impl, variants in expected.items():
        t = threats.get(impl)
        if t is None:
            problems[impl].append("missing from report")
            continue
        problems[impl] += _check_verdict(spec, variants, t)
        problems[impl] += _check_witness(oracle, t, capture)
        if "execute" in capture.fired:
            problems[impl] += _check_hits(oracle, impl, variants, capture)
        if "build_graph" in capture.fired:
            problems[impl] += _check_edges(oracle, impl, variants, capture)
    return {k: v for k, v in problems.items() if v}


def _check_verdict(spec: Spec, variants, t: dict) -> list[str]:
    out = []
    if t["confirmed"] != (t["score"] == 1.0):
        out.append(f"confirmed={t['confirmed']} with score {t['score']}")
    if all(v.planted for v in variants):
        if not t["confirmed"]:
            out.append("planted variants only, yet not confirmed")
        elif all(v.selective for v in variants) and t["host"] != spec.attack.host:
            out.append(f"confirmed on {t['host']}, planted host is {spec.attack.host}")
    elif t["confirmed"]:
        out.append("has an unsatisfiable variant, yet confirmed")
    total = sum(obligations(v) for v in variants)
    if abs(t["score"] - len(t["witness"]) / total) > 1e-9:
        out.append(f"score {t['score']} but {len(t['witness'])} of {total} obligations witnessed")
    return out


def _check_witness(oracle: Oracle, t: dict, capture: Capture) -> list[str]:
    out = []
    host = t["host"]
    edges = capture.witness_edges.get(t["impl_id"], {})
    floor = None
    for step, items in enumerate(t["step_witness"]):
        times = []
        for item in items:
            if ":" in item:
                event = oracle.events.get(item.split(":", 1)[1])
                if event is None or event.host != host:
                    out.append(f"witness node {item} not an event on {host}")
                    continue
                times.append(event.seconds)
            elif "match" in capture.fired:
                if item not in edges:
                    out.append(f"witness edge {item} not in the graph")
                    continue
                source, target, verb = edges[item]
                s, g = oracle.events.get(source), oracle.events.get(target)
                if s is None or g is None or host not in (s.host, g.host):
                    out.append(f"witness edge {item} does not touch {host}")
                    continue
                if oracle.edge_kind(source, target, verb) is None:
                    out.append(f"witness edge {item} ({source}->{target}) is neither link nor window")
                times.append(max(s.seconds, g.seconds))
        if times:
            if floor is not None and min(times) < floor:
                out.append(f"step {step} witnessed before step {step - 1}")
            floor = min(times)
    return out


def _check_hits(oracle: Oracle, impl: str, variants, capture: Capture) -> list[str]:
    out = []
    for step, variant in enumerate(variants):
        for var, expected in oracle.hits(variant).items():
            got = capture.hits.get((impl, step, var))
            if got != expected:
                n = "none" if got is None else len(got)
                out.append(f"step {step} {var}: {n} hits, independent scan finds {len(expected)}")
    return out


def _check_edges(oracle: Oracle, impl: str, variants, capture: Capture) -> list[str]:
    out = []
    for step, variant in enumerate(variants):
        hits = oracle.hits(variant)
        for subj, verb, obj in variant.relations:
            expected = oracle.join(hits[subj], hits[obj], verb)
            got = capture.edges.get((impl, step, subj, verb, obj), Counter())
            if +got != +expected:
                out.append(f"step {step} {subj}.{verb}({obj}): edges {dict(got)}, band join {dict(expected)}")
    return out


def check_draft(oracle: Oracle, text: str) -> list[str]:
    """Round trip, validity, and the registry-hive template rule."""
    from wilee.dsl import parse, pretty_print, validate
    from wilee.stores import DataModel

    out = []
    tree = parse(text)
    if pretty_print(tree) != text:
        out.append("draft does not round-trip through parse and print")
    diagnostics = validate(tree, DataModel.default())
    if diagnostics:
        out.append(f"draft invalid: {diagnostics[0]}")
    hives = sorted(
        r["value"] for r in oracle.iocs if r["ioc_type"] == "registry_hive" and r.get("technique_id") == "T1552.002"
    )
    lines = text.splitlines()
    if "    winregistrykey1 = WinRegistryKey()" not in lines:
        out.append("draft has no WinRegistryKey object")
    assigned = [line.split(" = ", 1)[1] for line in lines if line.startswith("    winregistrykey1.Hive = ")]
    if len(hives) == 1:
        want = [escape(hives[0])]
    elif hives:
        want = ['bind(ioc_type=registry_hive, technique="T1552.002")']
    else:
        want = []
    if assigned != want:
        out.append(f"registry hive assigned {assigned}, template rule gives {want}")
    return out


def check_archive(directory: Path, capacity: int) -> list[str]:
    from wilee.dsl import DslSyntaxError, parse, validate
    from wilee.stores import DataModel

    index = directory / "archive.jsonl"
    if not index.is_file():
        return ["no archive.jsonl written"]
    out = []
    model = DataModel.default()
    entries = [json.loads(line) for line in index.read_text("utf-8").splitlines()]
    if len(entries) > capacity:
        out.append(f"{len(entries)} archived, capacity {capacity}")
    for entry in entries:
        fitness = entry["fitness"]
        if fitness is None or not 0.0 <= fitness <= 1.0:
            out.append(f"{entry['uid']}: fitness {fitness} outside [0, 1]")
        try:
            diagnostics = validate(parse((directory / entry["file"]).read_text("utf-8")), model)
        except DslSyntaxError as exc:
            diagnostics = [exc]
        if diagnostics:
            out.append(f"{entry['file']}: {diagnostics[0]}")
    return out


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode("utf-8") + b"\x00" + path.read_bytes())
    return h.hexdigest()
