import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import (
    FIXTURES,
    MALFORMED_EVENT_LINES,
    PlantedAttack,
    T1059_SRC,
    T1552_PUTTY_SRC,
    T1552_RUNKEY_SRC,
    log_ending_with,
    synth_log,
    write_ndjson,
)

import wilee.cli
import wilee.hunt.engine
import wilee.hunt.proxy
import wilee.hunt.query
import wilee.stores
from wilee.cli import main
from wilee.dsl import NodeKind, ThreatDescription, parse
from wilee.gpe import Candidate
from wilee.hunt import BindSpec, schedule
from wilee.interpreter import concretize
from wilee.stores import StorePaths, load_stores

SME_PRIORS_SRC = '''def t1003_001():
    system1 = System()
    process1 = Process()
    winregistrykey1 = WinRegistryKey()
    system1.has(process1)
    process1.observed(winregistrykey1)
'''


def make_store_dir(tmp_path, entries):
    store_dir = tmp_path / "ttp_store"
    store_dir.mkdir(exist_ok=True)
    lines = []
    for i, (technique, tags, source, text) in enumerate(entries):
        name = f"entry{i}.wdsl"
        (store_dir / name).write_text(text, "utf-8")
        lines.append(
            json.dumps(
                {"technique_id": technique, "tactic_tags": tags, "source": source, "path": name}
            )
        )
    (store_dir / "index.jsonl").write_text("\n".join(lines) + "\n", "utf-8")
    return store_dir


def make_ioc_db(tmp_path):
    path = tmp_path / "ioc_db.jsonl"
    records = [
        {"ioc_type": "registry_hive", "value": "Software\\*\\Putty\\Sessions", "technique_id": "T1552.002"},
        {"ioc_type": "registry_hive", "value": "Software\\SimonTatham\\Putty\\Sessions"},
        {"ioc_type": "registry_hive", "value": "Software\\Wow6432Node\\Putty\\Sessions"},
        {"ioc_type": "process_name", "value": "TrojanSpy.Win32.TRICKBOT.AZ", "technique_id": "T1552.002"},
        {"ioc_type": "command_line", "value": 'Get-Process -Name "powershell" | Stop-Process', "technique_id": "T1059.001"},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
    return path


@pytest.fixture
def workspace(tmp_path):
    store_dir = make_store_dir(
        tmp_path,
        [
            ("T1552.002", ["credential-access"], "SME", T1552_PUTTY_SRC),
            ("T1552.002", ["credential-access"], "SME", T1552_RUNKEY_SRC),
            ("T1059.001", ["execution"], "SME", T1059_SRC),
            ("T1003.001", ["credential-access"], "SME", SME_PRIORS_SRC),
        ],
    )
    ioc_db = make_ioc_db(tmp_path)
    desc = tmp_path / "desc.wdsl"
    desc.write_text("def putty_hunt():\n    t1552_002()\n    t1059_001()\n", "utf-8")
    return tmp_path, store_dir, ioc_db, desc


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_clean_file_exits_zero(tmp_path):
    path = tmp_path / "ok.wdsl"
    path.write_text(T1552_PUTTY_SRC, "utf-8")
    assert main(["validate", str(path)]) == 0


def test_validate_syntax_error_exit_one_with_line(tmp_path, capsys):
    path = tmp_path / "broken.wdsl"
    path.write_text("def broken(:\n", "utf-8")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert ":1:" in err


def test_validate_semantic_error_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.wdsl"
    path.write_text("def t1000():\n    q = QuantumDevice()\n", "utf-8")
    assert main(["validate", str(path)]) == 1
    assert "unknown class" in capsys.readouterr().err


def test_validate_missing_file_exit_two(tmp_path):
    assert main(["validate", str(tmp_path / "missing.wdsl")]) == 2


def test_validate_exit_codes_stable_across_runs(tmp_path):
    good = tmp_path / "ok.wdsl"
    good.write_text(T1059_SRC, "utf-8")
    bad = tmp_path / "bad.wdsl"
    bad.write_text("def broken(:\n", "utf-8")
    assert [main(["validate", str(good)]) for _ in range(3)] == [0, 0, 0]
    assert [main(["validate", str(bad)]) for _ in range(3)] == [1, 1, 1]


def test_validate_corpus_files():
    files = [str(p) for p in sorted((FIXTURES / "corpus").glob("*.wdsl"))]
    assert main(["validate", *files]) == 0


# ---------------------------------------------------------------------------
# hunt
# ---------------------------------------------------------------------------


def hunt_args(workspace, log, out, fmt="md", desc=True):
    tmp_path, store_dir, ioc_db, desc_file = workspace
    args = [
        "hunt",
        "--ttp-store", str(store_dir),
        "--ioc-db", str(ioc_db),
        "--events", str(log),
        "--out", str(out),
        "--format", fmt,
    ]
    if desc:
        args += ["--desc", str(desc_file)]
    return args


def test_hunt_planted_attack_reports_confirmed(workspace, tmp_path):
    rng = random.Random(555)
    log = write_ndjson(tmp_path / "events.ndjson", synth_log(rng, 400, PlantedAttack.build().events))
    out = tmp_path / "hunt-out"
    assert main(hunt_args(workspace, log, out)) == 0
    report = (out / "report.md").read_text("utf-8")
    assert "CONFIRMED" in report
    assert "T1552.002" in report
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    assert manifest["command"] == "hunt"
    assert "report.md" in manifest["outputs"]


def test_manifest_lists_the_index_of_a_store_directory(workspace, tmp_path):
    """``hunt``, ``malmo`` and ``perturb`` given ``--ttp-store`` as a
    directory list its ``index.jsonl`` and every body file the index
    names, with their digests, among their manifest inputs."""
    _, store_dir, ioc_db, desc = workspace
    log = write_ndjson(tmp_path / "events.ndjson", synth_log(random.Random(555), 100, PlantedAttack.build().events))
    technique = FIXTURES / "technique_t1552_002.json"
    impl = tmp_path / "impl.wdsl"
    impl.write_text(T1552_PUTTY_SRC, "utf-8")
    store_args = ["--ttp-store", str(store_dir), "--ioc-db", str(ioc_db)]
    runs = {
        "hunt": (hunt_args(workspace, log, tmp_path / "hunt"), (log, desc)),
        "malmo": (["malmo", str(technique), *store_args, "--out", str(tmp_path / "malmo")], (technique,)),
        "perturb": (["perturb", str(impl), *store_args, "--seed", "1", "--out", str(tmp_path / "perturb")], (impl,)),
    }
    bodies = sorted(store_dir.glob("*.wdsl"))
    assert len(bodies) == 4
    for command, (argv, own_inputs) in runs.items():
        assert main(argv) == 0
        inputs = json.loads((tmp_path / command / "manifest.json").read_text("utf-8"))["inputs"]
        expected = (store_dir / "index.jsonl", *bodies, ioc_db, *own_inputs)
        assert inputs == {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in expected}, command


def test_manifest_inputs_change_with_a_store_body(workspace, tmp_path):
    """An edited body that changes the report changes the manifest's inputs too."""
    log = write_ndjson(tmp_path / "events.ndjson", synth_log(random.Random(555), 100, PlantedAttack.build().events))
    _, store_dir, _, _ = workspace
    body = store_dir / "entry0.wdsl"
    manifests = []
    for run in ("before", "after"):
        if run == "after":
            text = body.read_text("utf-8")
            assert "Software\\*" in text
            body.write_text(text.replace("Software\\*", "Software\\X*"), "utf-8")
        assert main(hunt_args(workspace, log, tmp_path / run)) == 0
        manifests.append(json.loads((tmp_path / run / "manifest.json").read_text("utf-8")))
    before, after = manifests
    assert before["outputs"] != after["outputs"]
    changed = {p for p in before["inputs"] if before["inputs"][p] != after["inputs"].get(p)}
    assert changed == {str(body)}


@pytest.mark.parametrize("command", ["hunt", "malmo"])
def test_manifest_lists_the_store_bytes_the_command_loaded(workspace, tmp_path, monkeypatch, command):
    """Store files rewritten after the stores were loaded are listed with
    the digests of the bytes that were loaded, not of the new ones."""
    _, store_dir, ioc_db, _ = workspace
    log = write_ndjson(tmp_path / "events.ndjson", synth_log(random.Random(555), 100, PlantedAttack.build().events))
    store_files = [store_dir / "index.jsonl", store_dir / "entry0.wdsl", ioc_db]
    loaded = {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in store_files}
    load = wilee.cli.load_stores

    def load_then_rewrite(paths):
        stores = load(paths)
        for path in store_files:
            path.write_bytes(path.read_bytes() + b"\n")
        return stores

    monkeypatch.setattr(wilee.cli, "load_stores", load_then_rewrite)
    out = tmp_path / command
    store_args = ["--ttp-store", str(store_dir), "--ioc-db", str(ioc_db)]
    argv = {
        "hunt": hunt_args(workspace, log, out),
        "malmo": ["malmo", str(FIXTURES / "technique_t1552_002.json"), *store_args, "--out", str(out)],
    }[command]
    assert main(argv) == 0
    inputs = json.loads((out / "manifest.json").read_text("utf-8"))["inputs"]
    assert {p: inputs[p] for p in loaded} == loaded


def test_hunt_clean_log_zero_confirmations(workspace, tmp_path):
    rng = random.Random(556)
    log = write_ndjson(tmp_path / "events.ndjson", synth_log(rng, 400))
    out = tmp_path / "hunt-out"
    assert main(hunt_args(workspace, log, out, fmt="json")) == 0
    doc = json.loads((out / "report.json").read_text("utf-8"))
    assert all(not threat["confirmed"] for threat in doc["threats"])


def test_hunt_without_desc_uses_killchain(workspace, tmp_path, capsys):
    rng = random.Random(557)
    log = write_ndjson(tmp_path / "events.ndjson", synth_log(rng, 100))
    out = tmp_path / "hunt-out"
    assert main(hunt_args(workspace, log, out, fmt="md", desc=False)) == 0
    report = (out / "report.md").read_text("utf-8")
    assert "full kill-chain" in report


def test_hunt_concrete_desc_file_rejected(workspace, tmp_path, capsys):
    tmp, store_dir, ioc_db, _ = workspace
    rng = random.Random(559)
    log = write_ndjson(tmp_path / "events.ndjson", synth_log(rng, 50))
    bad_desc = tmp_path / "concrete.wdsl"
    bad_desc.write_text(T1552_PUTTY_SRC, "utf-8")
    code = main([
        "hunt", "--ttp-store", str(store_dir), "--ioc-db", str(ioc_db),
        "--events", str(log), "--desc", str(bad_desc), "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    assert "concrete" in capsys.readouterr().err


def test_hunt_empty_desc_falls_back_to_killchain(workspace, tmp_path):
    tmp, store_dir, ioc_db, _ = workspace
    rng = random.Random(560)
    log = write_ndjson(tmp_path / "events.ndjson", synth_log(rng, 50))
    empty_desc = tmp_path / "empty.wdsl"
    empty_desc.write_text("def anything():\n    pass\n", "utf-8")
    out = tmp_path / "o"
    code = main([
        "hunt", "--ttp-store", str(store_dir), "--ioc-db", str(ioc_db),
        "--events", str(log), "--desc", str(empty_desc),
        "--out", str(out), "--format", "md",
    ])
    assert code == 0
    assert "full kill-chain" in (out / "report.md").read_text("utf-8")


def test_hunt_cap_exceeded_exit_three(tmp_path):
    entries = [
        ("T1552.002", ["credential-access"], "SME",
         T1552_PUTTY_SRC.replace("TrojanSpy.Win32.TRICKBOT.AZ", f"variant{i}.exe"))
        for i in range(110)
    ]
    store_dir = make_store_dir(tmp_path, entries)
    desc = tmp_path / "desc.wdsl"
    desc.write_text("def wide():\n    t1552_002()\n    t1552_002()\n", "utf-8")
    log = write_ndjson(tmp_path / "events.ndjson", [])
    out = tmp_path / "out"
    code = main([
        "hunt", "--ttp-store", str(store_dir), "--events", str(log),
        "--desc", str(desc), "--out", str(out),
    ])
    assert code == 3


def test_hunt_missing_log_exit_two(workspace, tmp_path):
    out = tmp_path / "out"
    assert main(hunt_args(workspace, tmp_path / "absent.ndjson", out)) == 2


def test_hunt_builds_events_only_for_hits(workspace, tmp_path, monkeypatch):
    # Thousands of lines no filter of the hunt keeps, and two that some do.
    attack = PlantedAttack.build()
    events = synth_log(random.Random(561), 3000) + list(attack.events[:2])
    log = write_ndjson(tmp_path / "events.ndjson", events)
    built = []
    make = wilee.hunt.proxy._event  # the read builds every event through it

    def counting(row):
        built.append(row[0])
        return make(row)

    monkeypatch.setattr(wilee.hunt.proxy, "_event", counting)
    assert main(hunt_args(workspace, log, tmp_path / "out", fmt="json")) == 0
    assert sorted(built) == ["atk-proc", "atk-reg"]


def _count_calls(monkeypatch, counts):
    """Count ``read_body`` and ``make_qid`` calls in ``counts``, through
    every ``wilee`` module that holds either function."""
    for name in ("read_body", "make_qid"):
        original = getattr(wilee.hunt.query, name)

        def counted(*args, _original=original, _name=name):
            counts[_name] += 1
            return _original(*args)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("wilee") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)


def _objects(fn):
    return sum(1 for stmt in fn.children if stmt.kind is NodeKind.OBJECT_INSTANTIATION)


def test_hunt_reads_each_step_body_once(workspace, tmp_path, monkeypatch):
    """One body read per implementation step and one qid per object: the
    matcher takes its obligations from the schedule."""
    _, store_dir, _, desc_file = workspace
    store, _, _ = load_stores(StorePaths(ttp_index=store_dir))
    desc = ThreatDescription.from_module(parse(desc_file.read_text("utf-8")))
    steps = [step for impl in concretize(desc, store).implementations for step in impl.steps]
    assert len(steps) > 1
    assert any(stmt.kind is NodeKind.RELATION_STMT for step in steps for stmt in step.record.ast.children)
    log = write_ndjson(tmp_path / "events.ndjson", synth_log(random.Random(563), 200, PlantedAttack.build().events))
    counts = Counter()
    _count_calls(monkeypatch, counts)
    assert main(hunt_args(workspace, log, tmp_path / "out")) == 0
    assert counts == {"read_body": len(steps), "make_qid": sum(_objects(s.record.ast) for s in steps)}


_BIND_ENTRIES = [
    ("T1552.002", ["credential-access"], "SME", '''def t1552_002():
    winregistrykey1 = WinRegistryKey()
    winregistrykey1.Hive = bind(ioc_type=registry_hive, technique="T1552.002")
    process1 = Process()
    process1.name = bind(ioc_type=process_name, technique="T1552.002")
    process1.observed(winregistrykey1)
'''),
    ("T1552.002", ["credential-access"], "SME", '''def t1552_002():
    winregistrykey1 = WinRegistryKey()
    winregistrykey1.Hive = bind(ioc_type=registry_hive, pattern="*Putty*")
    process1 = Process()
    process1.name = bind(ioc_type=process_name, technique="T1552.002")
    process1.observed(winregistrykey1)
'''),
    ("T1059.001", ["execution"], "SME", '''def t1059_001():
    process1 = Process()
    process1.command_line = bind(ioc_type=command_line, technique="T1059.001")
'''),
    ("T1059.001", ["execution"], "SME", '''def t1059_001():
    process1 = Process()
    process1.name = bind(ioc_type=process_name, technique="T1552.002")
    process1.command_line = bind(ioc_type=command_line, technique="T1059.001")
'''),
]


def test_hunt_resolves_each_distinct_bind_once(workspace, tmp_path, monkeypatch):
    """A hunt resolves each distinct bind once, although many queries of
    many implementations carry it: once for the read's keys, and never
    again when each implementation's queries run."""
    _, _, ioc_db, desc = workspace
    (tmp_path / "binds").mkdir()
    store_dir = make_store_dir(tmp_path / "binds", _BIND_ENTRIES)
    store, _, model = load_stores(StorePaths(ttp_index=store_dir))
    impls = concretize(ThreatDescription.from_module(parse(desc.read_text("utf-8"))), store).implementations
    binds = [p.value for impl in impls for q in schedule(impl, model) for p in q.predicates]
    assert len(impls) == 4 and len(binds) == 14 and len(set(binds)) == 4
    calls = []
    resolve_bind = wilee.stores.resolve_bind

    def counting(db, ioc_type, technique=None, pattern=None):
        calls.append(BindSpec(ioc_type, technique, pattern))
        return resolve_bind(db, ioc_type, technique, pattern)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("wilee") and getattr(module, "resolve_bind", None) is resolve_bind:
            monkeypatch.setattr(module, "resolve_bind", counting)
    log = write_ndjson(tmp_path / "events.ndjson", synth_log(random.Random(565), 300, PlantedAttack.build().events))
    assert main(hunt_args((tmp_path, store_dir, ioc_db, desc), log, tmp_path / "out", fmt="json")) == 0
    assert sorted(calls, key=repr) == sorted(set(binds), key=repr)

def test_perturb_reads_each_candidate_body_once(workspace, tmp_path, monkeypatch):
    """A candidate's step bodies are read once, when it is built, for both
    its behavior and its fitness: a whole run reads one body per function
    and makes one qid per object of each candidate built, and a fitness
    call reads no body and makes no qid."""
    log = write_ndjson(tmp_path / "events.ndjson", synth_log(random.Random(564), 200, PlantedAttack.build().events))
    impl = tmp_path / "impl.wdsl"
    impl.write_text(T1552_PUTTY_SRC, "utf-8")
    counts, calls, built = Counter(), [], []
    run_gpe, from_ast = wilee.cli.run_gpe, Candidate.from_ast.__func__

    def counting_run_gpe(tree, config, fitness_fn, **kwargs):
        def counted(*args):
            before = Counter(counts)
            score = fitness_fn(*args)
            calls.append(counts - before)
            return score

        return run_gpe(tree, config, fitness_fn=counted, **kwargs)

    def recording_from_ast(cls, tree, *args):
        built.append(tree)
        return from_ast(cls, tree, *args)

    monkeypatch.setattr(wilee.cli, "run_gpe", counting_run_gpe)
    monkeypatch.setattr(Candidate, "from_ast", classmethod(recording_from_ast))
    _count_calls(monkeypatch, counts)
    assert main(perturb_args(workspace, impl, tmp_path / "out") + ["--events", str(log)]) == 0
    assert calls and all(made == Counter() for made in calls)
    functions = [fn for tree in built for fn in tree.children]
    assert counts == Counter(read_body=len(functions), make_qid=sum(map(_objects, functions)))


def _ttp_index_line_not_an_object(workspace, tmp_path):
    _, store_dir, _, _ = workspace
    (store_dir / "index.jsonl").write_text("[1]\n", "utf-8")
    log = write_ndjson(tmp_path / "events.ndjson", [])
    return hunt_args(workspace, log, tmp_path / "out"), "index.jsonl:1:"


def _ttp_index_entry(tactic_tags=None, wdsl=T1059_SRC):
    def build(workspace, tmp_path):
        _, store_dir, _, _ = workspace
        entry = {"technique_id": "T1059.001", "source": "SME", "path": "bad.wdsl"}
        if tactic_tags is not None:
            entry["tactic_tags"] = tactic_tags
        (store_dir / "bad.wdsl").write_bytes(wdsl if isinstance(wdsl, bytes) else wdsl.encode())
        (store_dir / "index.jsonl").write_text(json.dumps(entry) + "\n", "utf-8")
        log = write_ndjson(tmp_path / "events.ndjson", [])
        location = "index.jsonl:1:" if tactic_tags is not None else "bad.wdsl:1:"
        return hunt_args(workspace, log, tmp_path / "out"), location

    return build


def _ttp_index_path(path):
    def build(workspace, tmp_path):
        _, store_dir, _, _ = workspace
        entry = {"technique_id": "T1059.001", "source": "SME", "path": path}
        (store_dir / "index.jsonl").write_text(json.dumps(entry) + "\n", "utf-8")
        log = write_ndjson(tmp_path / "events.ndjson", [])
        return hunt_args(workspace, log, tmp_path / "out"), "index.jsonl:1: cannot read"

    return build


def _malmo_technique(text):
    def build(workspace, tmp_path):
        technique = tmp_path / "t.json"
        technique.write_text(text, "utf-8")
        return ["malmo", str(technique), "--out", str(tmp_path / "out")], "t.json:1:"

    return build


def _event_line(text):
    def build(workspace, tmp_path):
        log = tmp_path / "events.ndjson"
        log.write_text(text + "\n", "utf-8")
        return hunt_args(workspace, log, tmp_path / "out"), "events.ndjson:1:"

    return build


def _event_log_bytes(data):
    def build(workspace, tmp_path):
        log = tmp_path / "events.ndjson"
        log.write_bytes(data)
        return hunt_args(workspace, log, tmp_path / "out"), "events.ndjson:2:"

    return build


def _event_after_hits(name):
    """The planted attack, whose events the hunt's filters keep, then a
    malformed line they would not keep."""

    def build(workspace, tmp_path):
        line, message = MALFORMED_EVENT_LINES[name]
        log = log_ending_with(tmp_path / "events.ndjson", line)
        return hunt_args(workspace, log, tmp_path / "out"), f"events.ndjson:4: {message}\n"

    return build


def _ioc_db_bytes(data):
    def build(workspace, tmp_path):
        _, _, ioc_db, _ = workspace
        ioc_db.write_bytes(data)
        log = write_ndjson(tmp_path / "events.ndjson", [])
        return hunt_args(workspace, log, tmp_path / "out"), "ioc_db.jsonl:1:"

    return build


def _validate_with_data_model(text):
    def build(workspace, tmp_path):
        impl = tmp_path / "ok.wdsl"
        impl.write_text(T1059_SRC, "utf-8")
        model = tmp_path / "model.json"
        if text is None:
            return ["validate", str(impl), "--data-model", str(model)], str(model)
        model.write_text(text, "utf-8")
        return ["validate", str(impl), "--data-model", str(model)], "model.json:1:"

    return build


def _written(name, data, location, argv):
    """Writes ``data`` to ``name`` and runs ``argv(workspace, path)``."""

    def build(workspace, tmp_path):
        path = tmp_path / name
        path.write_bytes(data)
        return argv(workspace, path), location

    return build


def _hunt_over_empty_log(workspace, out):
    return hunt_args(workspace, write_ndjson(out.parent / "events.ndjson", []), out)


NOT_UTF8_WDSL = b"def t1059_001():\n    process1 = Process()\xff\n"
A_CLEAN_WDSL = FIXTURES / "corpus" / "04_putty_registry.wdsl"


@pytest.mark.parametrize(
    "case",
    [
        _ttp_index_line_not_an_object,
        _event_line("[1, 2]"),
        _event_line(
            '{"event_id": "e1", "timestamp": "2024-01-01T00:00:00Z", "host": "h",'
            ' "entity_class": "Process", "fields": []}'
        ),
        _validate_with_data_model(None),
        _validate_with_data_model("[]"),
        _validate_with_data_model('{"classes": [[]]}'),
        _validate_with_data_model('{"classes": [{"class_name": "Process", "variables": 5}]}'),
        _ttp_index_entry(tactic_tags=5),
        _ttp_index_entry(tactic_tags="credential-access"),
        _ttp_index_entry(tactic_tags=["execution", 5]),
        _ttp_index_entry(wdsl="def t1059_001(:\n"),
        _malmo_technique("[1]"),
        _malmo_technique('{"id": 5, "description": "Adversaries may abuse PowerShell."}'),
        _malmo_technique("not json"),
        _event_log_bytes(
            b"\n"
            b'{"event_id": "e1", "timestamp": "2024-01-01T00:00:00Z", "host": "h",'
            b' "entity_class": "Process", "fields": {"name": "\xffcmd.exe"}}\n'
        ),
        _ioc_db_bytes(b'{"ioc_type": "process_name", "value": "\xe9vil.exe"}\n'),
        _ioc_db_bytes(b'{"ioc_type": "process_name", "value": "evil.exe", "technique_id": 5}\n'),
        _written("bad.wdsl", NOT_UTF8_WDSL, "bad.wdsl:2:", lambda ws, p: ["validate", str(p)]),
        _written(
            "model.json", b'{"classes": []}\n\xff', "model.json:2:",
            lambda ws, p: ["validate", str(A_CLEAN_WDSL), "--data-model", str(p)],
        ),
        _ttp_index_entry(wdsl=b"def t1059_001():\xff\n    process1 = Process()\n"),
        _written(
            "desc.wdsl", b"def putty_hunt():\n    t1552_002()\xff\n", "desc.wdsl:2:",
            lambda ws, p: _hunt_over_empty_log(ws, p.parent / "out"),
        ),
        _written(
            "t1552_002.txt", b"Adversaries search\nregistry \xff keys.", "t1552_002.txt:2:",
            lambda ws, p: ["malmo", str(p), "--out", str(p.parent / "out")],
        ),
        _written(
            "impl.wdsl", NOT_UTF8_WDSL, "impl.wdsl:2:",
            lambda ws, p: ["perturb", str(p), "--out", str(p.parent / "out")],
        ),
        _written(
            "gpe.json", b'{"seed": 1}\xff', "gpe.json:1:",
            lambda ws, p: ["perturb", str(A_CLEAN_WDSL), "--config", str(p), "--out", str(p.parent / "out")],
        ),
        _written("out-file", b"", "out-file", _hunt_over_empty_log),
        _written(
            "out-file", b"", "out-file",
            lambda ws, p: ["malmo", str(FIXTURES / "technique_t1552_002.json"), "--out", str(p)],
        ),
        _written("out-file", b"", "out-file", lambda ws, p: perturb_args(ws, A_CLEAN_WDSL, p, generations=0)),
        _malmo_technique('{"id": "T1552.00\u20282", "description": "Adversaries search registry keys."}'),
        _written(
            "registry notes.txt", b"Adversaries search registry keys.", "registry notes.txt:1:",
            lambda ws, p: ["malmo", str(p), "--out", str(p.parent / "out")],
        ),
        _ttp_index_path("nope.wdsl"),
        _ttp_index_path("."),
        _ttp_index_path("bad\u0000.wdsl"),
        _malmo_technique('{"id": "def", "description": "Adversaries may abuse PowerShell."}'),
        *(_event_after_hits(name) for name in MALFORMED_EVENT_LINES),
    ],
    ids=[
        "ttp-index-list",
        "event-list",
        "event-fields-list",
        "data-model-missing",
        "data-model-list",
        "data-model-class-list",
        "data-model-variables-number",
        "ttp-tactic-tags-number",
        "ttp-tactic-tags-string",
        "ttp-tactic-tags-non-string-item",
        "ttp-wdsl-syntax-error",
        "malmo-technique-list",
        "malmo-technique-id-number",
        "malmo-technique-not-json",
        "event-log-not-utf8",
        "ioc-db-not-utf8",
        "ioc-technique-id-number",
        "validate-file-not-utf8",
        "data-model-not-utf8",
        "ttp-wdsl-not-utf8",
        "hunt-desc-not-utf8",
        "malmo-technique-text-not-utf8",
        "perturb-impl-not-utf8",
        "perturb-config-not-utf8",
        "hunt-out-is-a-file",
        "malmo-out-is-a-file",
        "perturb-out-is-a-file",
        "malmo-technique-id-not-an-identifier",
        "malmo-technique-stem-not-an-identifier",
        "ttp-path-missing",
        "ttp-path-is-a-directory",
        "ttp-path-nul",
        "malmo-technique-id-keyword",
        *(f"event-{name}-after-hits" for name in MALFORMED_EVENT_LINES),
    ],
)
def test_malformed_input_exit_two_with_location(workspace, tmp_path, capsys, case):
    argv, location = case(workspace, tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert location in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# malmo
# ---------------------------------------------------------------------------


def test_malmo_fixture_emits_validating_dsl(workspace, tmp_path):
    tmp_path_, store_dir, ioc_db, _ = workspace
    out = tmp_path / "malmo-out"
    code = main([
        "malmo", str(FIXTURES / "technique_t1552_002.json"),
        "--ttp-store", str(store_dir),
        "--ioc-db", str(ioc_db),
        "--out", str(out),
    ])
    assert code == 0
    dsl_path = out / "t1552_002.wdsl"
    text = dsl_path.read_text("utf-8")
    assert "Putty" in text and "process1 = Process()" in text
    scores = json.loads((out / "scores.json").read_text("utf-8"))
    assert scores[0]["class_name"] == "WinRegistryKey"
    # Chain into validate: the emitted file must be clean.
    assert main(["validate", str(dsl_path)]) == 0


def test_malmo_empty_description_exit_four(tmp_path, capsys):
    technique = tmp_path / "t0000.json"
    technique.write_text(json.dumps({"id": "T0000", "description": ""}), "utf-8")
    out = tmp_path / "out"
    assert main(["malmo", str(technique), "--out", str(out)]) == 4
    assert "class" in capsys.readouterr().err


@pytest.mark.parametrize("top_n", ["0", "-3"])
def test_malmo_top_n_below_one_rejected_at_parse(tmp_path, capsys, top_n):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["malmo", str(FIXTURES / "technique_t1552_002.json"), "--top-n", top_n, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--top-n" in err and "Traceback" not in err
    assert not out.exists()


def test_malmo_plain_text_input(tmp_path):
    technique = tmp_path / "t1552_002.txt"
    technique.write_text("Adversaries search window registry keys for passwords.", "utf-8")
    out = tmp_path / "out"
    assert main(["malmo", str(technique), "--out", str(out)]) == 0
    assert (out / "t1552_002.wdsl").exists()


# ---------------------------------------------------------------------------
# perturb
# ---------------------------------------------------------------------------


def perturb_args(workspace, impl, out, seed=11, generations=4):
    tmp_path, store_dir, ioc_db, _ = workspace
    config = tmp_path / f"gpe-{seed}.json"
    config.write_text(
        json.dumps({"population_size": 8, "generations": generations, "seed": seed}), "utf-8"
    )
    return [
        "perturb", str(impl),
        "--ioc-db", str(ioc_db),
        "--config", str(config),
        "--out", str(out),
    ]


def test_perturb_zero_generations_empty_archive(workspace, tmp_path):
    impl = tmp_path / "impl.wdsl"
    impl.write_text(T1552_PUTTY_SRC, "utf-8")
    out = tmp_path / "out"
    assert main(perturb_args(workspace, impl, out, generations=0)) == 0
    archive_meta = (out / "archive" / "archive.jsonl").read_text("utf-8")
    assert archive_meta == ""
    run_doc = json.loads((out / "run.json").read_text("utf-8"))
    assert run_doc["archived"] == 0


def test_perturb_deterministic_archives(workspace, tmp_path):
    impl = tmp_path / "impl.wdsl"
    impl.write_text(T1552_PUTTY_SRC, "utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(perturb_args(workspace, impl, out_a)) == 0
    assert main(perturb_args(workspace, impl, out_b)) == 0
    manifest_a = json.loads((out_a / "manifest.json").read_text("utf-8"))
    manifest_b = json.loads((out_b / "manifest.json").read_text("utf-8"))
    assert manifest_a["outputs"] == manifest_b["outputs"]
    assert any(name.endswith(".wdsl") for name in manifest_a["outputs"])


def test_perturb_archive_files_validate(workspace, tmp_path):
    impl = tmp_path / "impl.wdsl"
    impl.write_text(T1552_PUTTY_SRC, "utf-8")
    out = tmp_path / "out"
    assert main(perturb_args(workspace, impl, out)) == 0
    files = sorted((out / "archive").glob("*.wdsl"))
    assert files
    assert main(["validate", *[str(p) for p in files]]) == 0


MULTILINE_HIVE_SRC = (
    "def t1552_002():\n"
    "    winregistrykey1 = WinRegistryKey()\n"
    '    winregistrykey1.Hive = "Software\\*\\Putty\\Sessions"\n'
    "    winregistrykey2 = WinRegistryKey()\n"
    "    winregistrykey2.Hive = bind(ioc_type=registry_hive)\n"
)


@pytest.mark.parametrize("line_break", ["\n", "\r"], ids=["lf", "cr"])
def test_ioc_values_with_line_breaks_stay_out_of_literals(tmp_path, capsys, line_break):
    """An IOC value holding a line break may be hunted for but cannot be
    written as a literal: ``malmo`` writes a bind for it when it is the
    single candidate, and ``perturb`` never draws it, at a literal or a
    bind site.  Both exit 0 and every file they write validates."""
    ioc_db = tmp_path / "ioc_db.jsonl"
    other = "\r" if line_break == "\n" else "\n"
    records = [
        {"ioc_type": "registry_hive", "value": f"Software\\Evil{line_break}Line", "technique_id": "T1552.002"},
        {"ioc_type": "registry_hive", "value": f"Software\\Evil{other}Line"},
        {"ioc_type": "registry_hive", "value": "Software\\SimonTatham\\Putty\\Sessions"},
        {"ioc_type": "registry_hive", "value": "Software\\Wow6432Node\\Putty\\Sessions"},
    ]
    ioc_db.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
    impl = tmp_path / "impl.wdsl"
    impl.write_text(MULTILINE_HIVE_SRC, "utf-8")
    technique = FIXTURES / "technique_t1552_002.json"
    assert main(["malmo", str(technique), "--ioc-db", str(ioc_db), "--out", str(tmp_path / "malmo")]) == 0
    draft = (tmp_path / "malmo" / "t1552_002.wdsl").read_text("utf-8")
    assert '    winregistrykey1.Hive = bind(ioc_type=registry_hive, technique="T1552.002")\n' in draft
    written = [tmp_path / "malmo" / "t1552_002.wdsl"]
    for seed in range(3):
        out = tmp_path / f"perturb-{seed}"
        assert main(["perturb", str(impl), "--ioc-db", str(ioc_db), "--seed", str(seed), "--out", str(out)]) == 0
        archived = sorted((out / "archive").glob("*.wdsl"))
        assert archived
        written += archived
    drawn = "".join(p.read_text("utf-8") for p in written[1:])
    assert "Wow6432Node" in drawn and "SimonTatham" in drawn
    assert "Traceback" not in capsys.readouterr().err
    assert main(["validate", *[str(p) for p in written]]) == 0


GIZMO_SRC = (
    "def t1552_002():\n"
    "    gizmo1 = Gizmo()\n"
    '    gizmo1.hive = "Software\\SimonTatham\\Putty\\Sessions"\n'
    "    widget1 = Widget()\n"
    '    widget1.colour = "teal"\n'
    "    gizmo1.observed(widget1)\n"
)


def test_perturb_with_a_custom_data_model(workspace, tmp_path):
    """perturb evolves and hunts under the data model it is given, here
    one whose classes the default lacks: every archived candidate is
    scored and validates against that model."""
    model = tmp_path / "model.json"
    classes = [
        {"class_name": "Gizmo", "variables": ["hive", "serial"]},
        {"class_name": "Widget", "variables": ["command_line", "colour"]},
    ]
    model.write_text(json.dumps({"classes": classes}), "utf-8")
    impl = tmp_path / "impl.wdsl"
    impl.write_text(GIZMO_SRC, "utf-8")
    events = [
        {"event_id": "g1", "timestamp": "2026-03-01T07:00:00Z", "host": "ws-002", "entity_class": "Gizmo",
         "fields": {"hive": "Software\\SimonTatham\\Putty\\Sessions"}},
        {"event_id": "w1", "timestamp": "2026-03-01T07:00:10Z", "host": "ws-002", "entity_class": "Widget",
         "fields": {"colour": "teal"}},
    ]
    log = write_ndjson(tmp_path / "events.ndjson", events)
    out = tmp_path / "out"
    args = perturb_args(workspace, impl, out) + ["--data-model", str(model), "--events", str(log)]
    assert main(args) == 0
    files = sorted((out / "archive").glob("*.wdsl"))
    assert files
    assert main(["validate", "--data-model", str(model), *map(str, files)]) == 0
    entries = [json.loads(line) for line in (out / "archive" / "archive.jsonl").read_text("utf-8").splitlines()]
    assert all(entry["fitness"] is not None for entry in entries)
    assert any(entry["fitness"] > 0 for entry in entries)


def test_perturb_rerun_into_one_out_holds_only_its_archive(workspace, tmp_path):
    impl = tmp_path / "impl.wdsl"
    impl.write_text(T1552_PUTTY_SRC, "utf-8")
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert main(perturb_args(workspace, impl, reused, seed=11)) == 0
    first = {p.name for p in (reused / "archive").iterdir()}
    unlisted = reused / "archive" / "notes.wdsl"  # a file no archive.jsonl lists
    unlisted.write_text("kept\n", "utf-8")
    assert main(perturb_args(workspace, impl, reused, seed=7)) == 0
    assert main(perturb_args(workspace, impl, fresh, seed=7)) == 0
    files = {p.name: p.read_bytes() for p in (fresh / "archive").iterdir()}
    assert first - set(files)  # the first run archived other candidates
    assert {p.name: p.read_bytes() for p in (reused / "archive").iterdir()} == {**files, "notes.wdsl": b"kept\n"}
    outputs = json.loads((reused / "manifest.json").read_text("utf-8"))["outputs"]
    assert sorted(outputs) == sorted([*files, "run.json"])


@pytest.mark.parametrize(
    "text",
    [
        '{"population_size": 0}',
        "[[1]]",
        '{"population_size": 1.5}',
        '{"seed": "x"}',
        '{"stagnation_generations": 0}',
        '{"archive_capacity": -1}',
    ],
    ids=[
        "population-size-zero",
        "not-an-object",
        "population-size-float",
        "seed-string",
        "stagnation-generations-zero",
        "archive-capacity-negative",
    ],
)
def test_perturb_bad_config_exit_five(workspace, tmp_path, capsys, text):
    impl = tmp_path / "impl.wdsl"
    impl.write_text(T1552_PUTTY_SRC, "utf-8")
    config = tmp_path / "bad.json"
    config.write_text(text, "utf-8")
    out = tmp_path / "out"
    code = main(["perturb", str(impl), "--config", str(config), "--out", str(out)])
    assert code == 5
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_perturb_invalid_impl_exit_one(workspace, tmp_path):
    impl = tmp_path / "impl.wdsl"
    impl.write_text("def t1000():\n    ghost.Hive = \"x\"\n", "utf-8")
    out = tmp_path / "out"
    code = main(["perturb", str(impl), "--out", str(out)])
    assert code == 1


def _tree_hashes(*paths):
    import hashlib

    out = {}
    for base in paths:
        base = Path(base)
        files = [base] if base.is_file() else sorted(base.rglob("*"))
        for p in files:
            if p.is_file():
                out[str(p)] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_subcommands_never_mutate_input_stores(workspace, tmp_path):
    _, store_dir, ioc_db, desc = workspace
    rng = random.Random(600)
    log = write_ndjson(tmp_path / "events.ndjson", synth_log(rng, 100))
    impl = tmp_path / "impl.wdsl"
    impl.write_text(T1552_PUTTY_SRC, "utf-8")
    before = _tree_hashes(store_dir, ioc_db, desc, log, impl)
    assert main(hunt_args(workspace, log, tmp_path / "o1")) == 0
    assert main([
        "malmo", str(FIXTURES / "technique_t1552_002.json"),
        "--ttp-store", str(store_dir), "--ioc-db", str(ioc_db),
        "--out", str(tmp_path / "o2"),
    ]) == 0
    assert main(perturb_args(workspace, impl, tmp_path / "o3")) == 0
    assert _tree_hashes(store_dir, ioc_db, desc, log, impl) == before


def test_perturb_with_events_fitness(workspace, tmp_path):
    rng = random.Random(558)
    log = write_ndjson(tmp_path / "events.ndjson", synth_log(rng, 200, PlantedAttack.build().events))
    impl = tmp_path / "impl.wdsl"
    impl.write_text(T1552_PUTTY_SRC, "utf-8")
    out = tmp_path / "out"
    args = perturb_args(workspace, impl, out) + ["--events", str(log)]
    assert main(args) == 0
    run_doc = json.loads((out / "run.json").read_text("utf-8"))
    assert len(run_doc["best_fitness_history"]) == 4


def test_event_log_hashed_during_its_one_read(workspace, tmp_path, monkeypatch):
    rng = random.Random(562)
    log = write_ndjson(tmp_path / "events.ndjson", synth_log(rng, 200, PlantedAttack.build().events))
    expected = hashlib.sha256(log.read_bytes()).hexdigest()
    impl = tmp_path / "impl.wdsl"
    impl.write_text(T1552_PUTTY_SRC, "utf-8")
    read_whole = []
    read_bytes = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda path: read_whole.append(path) or read_bytes(path))
    hunt_out, perturb_out = tmp_path / "hunt", tmp_path / "perturb"
    assert main(hunt_args(workspace, log, hunt_out)) == 0
    assert main(perturb_args(workspace, impl, perturb_out) + ["--events", str(log)]) == 0
    for out in (hunt_out, perturb_out):
        inputs = json.loads((out / "manifest.json").read_text("utf-8"))["inputs"]
        assert inputs[str(log)] == expected
        assert str(impl if out == perturb_out else workspace[3]) in inputs  # other inputs are still hashed
    assert log not in read_whole


def test_perturb_seed_override_with_fitness(workspace, tmp_path):
    rng = random.Random(561)
    log = write_ndjson(tmp_path / "events.ndjson", synth_log(rng, 200, PlantedAttack.build().events))
    impl = tmp_path / "impl.wdsl"
    impl.write_text(T1552_PUTTY_SRC, "utf-8")
    overridden, direct = tmp_path / "overridden", tmp_path / "direct"
    assert main(perturb_args(workspace, impl, overridden, seed=11) + ["--events", str(log), "--seed", "7"]) == 0
    assert main(perturb_args(workspace, impl, direct, seed=7) + ["--events", str(log)]) == 0

    run_doc = json.loads((overridden / "run.json").read_text("utf-8"))
    assert run_doc["seed"] == 7
    history = run_doc["best_fitness_history"]
    assert len(history) == run_doc["generations"] == 4
    assert all(0.0 <= f <= 1.0 for f in history)
    index = (overridden / "archive" / "archive.jsonl").read_text("utf-8")
    entries = [json.loads(line) for line in index.splitlines()]
    assert entries and all(e["fitness"] is not None for e in entries)
    assert index == (direct / "archive" / "archive.jsonl").read_text("utf-8")


def test_outputs_do_not_depend_on_the_hash_seed(workspace, tmp_path):
    """``hunt`` (both formats), ``perturb --events`` and ``malmo``, each run
    in a new interpreter under ``PYTHONHASHSEED`` 1 and then 2 into the
    same ``--out``, write byte-identical files, manifests included."""
    _, store_dir, ioc_db, _ = workspace
    log = write_ndjson(tmp_path / "events.ndjson", synth_log(random.Random(563), 300, PlantedAttack.build().events))
    impl = tmp_path / "impl.wdsl"
    impl.write_text(T1552_PUTTY_SRC, "utf-8")
    out = tmp_path / "out"
    runs = {
        "hunt-md": hunt_args(workspace, log, out),
        "hunt-json": hunt_args(workspace, log, out, fmt="json"),
        "perturb": perturb_args(workspace, impl, out) + ["--events", str(log)],
        "malmo": ["malmo", str(FIXTURES / "technique_t1552_002.json"), "--ttp-store", str(store_dir),
                  "--ioc-db", str(ioc_db), "--out", str(out)],
    }
    src = str(Path(wilee.cli.__file__).parents[1])
    for name, argv in runs.items():
        written = []
        for seed in ("1", "2"):
            shutil.rmtree(out, ignore_errors=True)
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            done = subprocess.run([sys.executable, "-m", "wilee.cli", *argv], env=env, capture_output=True, timeout=120)
            assert done.returncode == 0, (name, seed, done.stderr.decode())
            written.append({str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
        assert "manifest.json" in written[0] and len(written[0]) > 1, (name, sorted(written[0]))
        assert written[0] == written[1], name


def test_log_level_shows_the_duplicate_ioc_line_and_changes_no_output(workspace, tmp_path):
    """With a duplicate IOC record, ``hunt`` in a new interpreter prints
    nothing on stderr where ``WILEE_LOG_LEVEL`` is unset or ``error``,
    and the ``duplicate IOC ... dropped`` line at ``warning`` and
    ``info``; its stdout and the files it writes are byte-identical at
    every level."""
    _, _, ioc_db, _ = workspace
    first = ioc_db.read_text("utf-8").splitlines(keepends=True)[0]
    ioc_db.write_text(ioc_db.read_text("utf-8") + first, "utf-8")
    duplicate = len(ioc_db.read_text("utf-8").splitlines())
    log = write_ndjson(tmp_path / "events.ndjson", synth_log(random.Random(567), 200, PlantedAttack.build().events))
    out = tmp_path / "out"
    src = str(Path(wilee.cli.__file__).parents[1])
    outputs, stderr = [], {}
    for level in (None, "error", "warning", "info"):
        shutil.rmtree(out, ignore_errors=True)
        env = {k: v for k, v in os.environ.items() if k != "WILEE_LOG_LEVEL"}
        env["PYTHONPATH"] = src
        if level is not None:
            env["WILEE_LOG_LEVEL"] = level
        done = subprocess.run([sys.executable, "-m", "wilee.cli", *hunt_args(workspace, log, out)], env=env,
                              capture_output=True, timeout=120)
        assert done.returncode == 0, (level, done.stderr.decode())
        stderr[level] = done.stderr.decode()
        outputs.append((done.stdout, {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}))
    assert stderr[None] == stderr["error"] == ""
    for level in ("warning", "info"):
        assert stderr[level].splitlines() == [
            f"WARNING wilee.stores: {ioc_db}:{duplicate}: duplicate IOC ('registry_hive', "
            f"{json.loads(first)['value']!r}) dropped (keeping earliest)"
        ]
    assert "manifest.json" in outputs[0][1]
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]


def _digest_dir(path):
    """One SHA-256 over the name and bytes of every file under ``path``,
    in sorted order."""
    digest = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            digest.update(str(p.relative_to(path)).encode() + b"\0" + p.read_bytes() + b"\0")
    return digest.hexdigest()


# The outputs' digests: a change to the read, the join, the matcher or gpe
# that moves any byte of a report, an archived candidate or a fitness
# history fails here.
GOLDEN_HUNT_REPORT = "a1e9c3ff0af7f80d74d0fdf8d526b0d7323988dfd6c368f355cd2d32e490baf5"
GOLDEN_PERTURB = {
    0: (
        "44f5bd58df7482cec63755ba26eb015f8adc86517283283df39c688de9ece5d2",
        "7e5434b8dd1cc2bbbb731cc1ca7e34dd239b45c99357ade5789c87e4834fed09",
    ),
    3: (
        "25d72041db823257d7e6dbc37a267b2af56ef32e03816ccc4dff0e315e40cd93",
        "570964578080862bcfb6b2ef232b62cc9dda9dedf6acf28567f59bf2974a562c",
    ),
    11: (
        "6ffb9b7d471d0bd65b6ad42b1d013e0dc0046a7f0914c14f24da3a8b414d4d82",
        "d622ed5b1c013e2f4c22b7dcc813fea22913cca483cd8e360071839cc114ca46",
    ),
}


def test_golden_outputs(workspace, tmp_path):
    """``hunt``'s ``report.json`` and ``perturb --events``'s ``archive/`` and
    ``run.json``, on a fixed log and seeds, have pinned SHA-256 digests."""
    log = write_ndjson(tmp_path / "events.ndjson", synth_log(random.Random(564), 1500, PlantedAttack.build().events))
    impl = tmp_path / "impl.wdsl"
    impl.write_text(T1552_PUTTY_SRC, "utf-8")
    assert main(hunt_args(workspace, log, tmp_path / "hunt", fmt="json")) == 0
    got_report = hashlib.sha256((tmp_path / "hunt" / "report.json").read_bytes()).hexdigest()
    got = {}
    for seed in GOLDEN_PERTURB:
        out = tmp_path / f"perturb-{seed}"
        assert main(perturb_args(workspace, impl, out, seed=seed, generations=6) + ["--events", str(log)]) == 0
        got[seed] = (_digest_dir(out / "archive"), hashlib.sha256((out / "run.json").read_bytes()).hexdigest())
    assert got_report == GOLDEN_HUNT_REPORT
    assert got == GOLDEN_PERTURB


# A product store: four variants of each step.  Four are broad, and their
# edges come from the 60 s window: ``observed`` on "Software\*" by any
# ``*.exe``, a repeated ``observed``, ``has`` from chrome to a user file,
# and ``has`` between two objects of one filter.
PRODUCT_T1552 = (
    T1552_PUTTY_SRC,
    T1552_RUNKEY_SRC,
    '''def t1552_002():
    winregistrykey1 = WinRegistryKey()
    winregistrykey1.Hive = "Software\\*"
    process1 = Process()
    process1.name = "*.exe"
    process1.observed(winregistrykey1)
''',
    '''def t1552_002():
    process1 = Process()
    process1.name = "svchost.exe"
    winregistrykey1 = WinRegistryKey()
    winregistrykey1.Hive = "System\\*"
    process1.observed(winregistrykey1)
    process1.observed(winregistrykey1)
''',
)
PRODUCT_T1059 = (
    T1059_SRC,
    '''def t1059_001():
    process1 = Process()
    process1.name = "chrome.exe"
    file1 = File()
    file1.path = "C:\\Users\\*"
    process1.has(file1)
''',
    '''def t1059_001():
    process1 = Process()
    process1.name = "explorer.exe"
    process2 = Process()
    process2.name = "explorer.exe"
    process1.has(process2)
''',
    '''def t1059_001():
    process1 = Process()
    process1.name = "notepad.exe"
''',
)
GOLDEN_PRODUCT_REPORT = "1ca883ce45f2cb9498d726d4a98de48aee0fcdbdb8b6682996f6ea4b1ccfd921"


def test_golden_product_hunt(tmp_path, monkeypatch):
    """A hunt over every product of four variants per step, with a step
    repeated, writes a pinned ``report.json``; at least two of its
    relations are joined by the window rule."""
    store_dir = make_store_dir(
        tmp_path,
        [("T1552.002", ["credential-access"], "SME", src) for src in PRODUCT_T1552]
        + [("T1059.001", ["execution"], "SME", src) for src in PRODUCT_T1059],
    )
    ioc_db = make_ioc_db(tmp_path)
    desc = tmp_path / "desc.wdsl"
    desc.write_text("def product_hunt():\n    t1552_002()\n    t1059_001()\n    t1552_002()\n", "utf-8")
    log = write_ndjson(tmp_path / "events.ndjson", synth_log(random.Random(564), 1500, PlantedAttack.build().events))
    windowed = set()  # the predicates of each source with a window edge
    build_graph = wilee.hunt.engine.build_graph

    def spy(results, descriptors, *args, **kwargs):
        graph = build_graph(results, descriptors, *args, **kwargs)
        predicates = {q.qid: q.predicates for q in descriptors}
        windowed.update(predicates[e.qid] for e in graph.edges if e.kind == "window")
        return graph

    monkeypatch.setattr(wilee.hunt.engine, "build_graph", spy)
    workspace = (tmp_path, store_dir, ioc_db, desc)
    assert main(hunt_args(workspace, log, tmp_path / "out", fmt="json")) == 0
    report = (tmp_path / "out" / "report.json").read_bytes()
    assert len(json.loads(report)["threats"]) == 4 * 4 * 4
    assert len(windowed) >= 2, windowed
    assert hashlib.sha256(report).hexdigest() == GOLDEN_PRODUCT_REPORT


def test_split_hunt_writes_the_serial_outputs(workspace, tmp_path, monkeypatch):
    """``hunt`` with its log read in two ranges, the second in a forked
    reader, writes the bytes it writes when the log is read in one pass,
    the pinned report among them, and leaves no child process."""
    log = write_ndjson(tmp_path / "events.ndjson", synth_log(random.Random(564), 1500, PlantedAttack.build().events))
    out = tmp_path / "out"
    for fmt in ("json", "md"):
        assert main(hunt_args(workspace, log, out, fmt=fmt)) == 0
        out.rename(tmp_path / f"serial-{fmt}")
    forks = []
    forked = wilee.hunt.proxy._forked
    monkeypatch.setattr(wilee.hunt.proxy, "_forked", lambda *args: forks.append(args) or forked(*args))
    monkeypatch.setattr(wilee.hunt.proxy, "_RANGE_BYTES", 1)
    monkeypatch.setattr(wilee.hunt.proxy, "_cpus", lambda: 2)
    for fmt in ("json", "md"):
        serial = tmp_path / f"serial-{fmt}"
        assert main(hunt_args(workspace, log, out, fmt=fmt)) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in serial.iterdir())
        for path in serial.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name
        if fmt == "json":
            assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == GOLDEN_HUNT_REPORT
        shutil.rmtree(out)
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_split_perturb_writes_the_serial_outputs(workspace, tmp_path, monkeypatch):
    """``perturb --events`` with its whole log read in two forked ranges
    writes the ``archive/`` and ``run.json`` it writes when the log is
    read in one pass, the pinned ones among them, and leaves no child
    process."""
    log = write_ndjson(tmp_path / "events.ndjson", synth_log(random.Random(564), 1500, PlantedAttack.build().events))
    impl = tmp_path / "impl.wdsl"
    impl.write_text(T1552_PUTTY_SRC, "utf-8")

    def outputs(name: str, seed: int) -> tuple:
        out = tmp_path / f"{name}-{seed}"
        assert main(perturb_args(workspace, impl, out, seed=seed, generations=6) + ["--events", str(log)]) == 0
        return _digest_dir(out / "archive"), (out / "run.json").read_bytes()

    serial = {seed: outputs("serial", seed) for seed in GOLDEN_PERTURB}
    forks = []
    forked = wilee.hunt.proxy._forked
    monkeypatch.setattr(wilee.hunt.proxy, "_forked", lambda *args: forks.append(args) or forked(*args))
    monkeypatch.setattr(wilee.hunt.proxy, "_RANGE_BYTES", 1)
    monkeypatch.setattr(wilee.hunt.proxy, "_cpus", lambda: 2)
    for seed in GOLDEN_PERTURB:
        split = outputs("split", seed)
        assert split == serial[seed], seed
        assert (split[0], hashlib.sha256(split[1]).hexdigest()) == GOLDEN_PERTURB[seed], seed
    assert len(forks) == len(GOLDEN_PERTURB)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
