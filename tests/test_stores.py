import json
import logging
import random

import pytest

from conftest import T1059_SRC, T1552_PUTTY_SRC, T1552_RUNKEY_SRC, function_from, random_ttp_function
from oracles import oracle_resolve_bind

from wilee.dsl import AstGenerator, content_hash, pretty_print_node, random_technique_id
from wilee.stores import (
    DataModel,
    FormatError,
    IocDb,
    IocRecord,
    StorePaths,
    TtpRecord,
    TtpStore,
    UnknownIocType,
    ValidationError,
    ioc_type_for_variable,
    load_stores,
    resolve_bind,
    ttps_for_step,
)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def write_stores(tmp_path, ioc_lines, ttp_entries):
    """ttp_entries: list of (technique_id, tags, source, dsl_source)."""
    ioc_path = tmp_path / "ioc_db.jsonl"
    ioc_path.write_text("".join(json.dumps(doc) + "\n" for doc in ioc_lines), "utf-8")
    store_dir = tmp_path / "ttp_store"
    store_dir.mkdir(exist_ok=True)
    index_lines = []
    for i, (technique_id, tags, source, text) in enumerate(ttp_entries):
        name = f"entry{i}.wdsl"
        (store_dir / name).write_text(text, "utf-8")
        index_lines.append(
            json.dumps(
                {
                    "technique_id": technique_id,
                    "tactic_tags": list(tags),
                    "source": source,
                    "path": name,
                }
            )
        )
    (store_dir / "index.jsonl").write_text("\n".join(index_lines) + "\n", "utf-8")
    return StorePaths(ttp_index=store_dir, ioc_db=ioc_path)


def test_empty_ioc_file_gives_empty_db(tmp_path):
    paths = write_stores(tmp_path, [], [])
    _, ioc_db, _ = load_stores(paths)
    assert ioc_db.records == ()


def test_trickbot_process_ioc_retrievable(tmp_path):
    paths = write_stores(
        tmp_path,
        [
            {
                "ioc_type": "process_name",
                "value": "TrojanSpy.Win32.TRICKBOT.AZ",
                "technique_id": "T1552.002",
            }
        ],
        [],
    )
    _, ioc_db, _ = load_stores(paths)
    (record,) = ioc_db.by_type("process_name")
    assert record.value == "TrojanSpy.Win32.TRICKBOT.AZ"
    assert record.technique_id == "T1552.002"


def test_command_line_ioc_preserved_verbatim(tmp_path):
    command = 'Get-Process -Name "powershell" | Stop-Process'
    paths = write_stores(
        tmp_path,
        [{"ioc_type": "command_line", "value": command, "technique_id": "T1059.001"}],
        [],
    )
    _, ioc_db, _ = load_stores(paths)
    assert ioc_db.by_type("command_line")[0].value == command


def test_ioc_value_may_hold_a_raw_line_separator(tmp_path):
    value = "evil\u0085.exe\u2028"
    path = tmp_path / "ioc_db.jsonl"
    lines = [
        {"ioc_type": "process_name", "value": value, "technique_id": None},
        {"ioc_type": "domain", "value": "evil.example"},
    ]
    path.write_text("\r\n".join(json.dumps(r, ensure_ascii=False) for r in lines) + "\r\n\r\n", "utf-8")
    ioc_db = IocDb.load(path)
    assert [(r.value, r.technique_id) for r in ioc_db.records] == [(value, None), ("evil.example", None)]


def test_duplicate_iocs_keep_earliest_with_warning(tmp_path, caplog):
    paths = write_stores(
        tmp_path,
        [
            {"ioc_type": "domain", "value": "evil.example", "source": "first"},
            {"ioc_type": "domain", "value": "evil.example", "source": "second"},
        ],
        [],
    )
    with caplog.at_level(logging.WARNING, logger="wilee.stores"):
        _, ioc_db, _ = load_stores(paths)
    assert len(ioc_db.records) == 1
    assert ioc_db.records[0].source == "first"
    assert any("duplicate IOC" in r.message for r in caplog.records)


def test_duplicate_ttp_records_keep_one_with_warning(tmp_path, caplog, monkeypatch):
    import wilee.stores

    printed = []
    monkeypatch.setattr(
        wilee.stores, "pretty_print_node", lambda node: printed.append(node) or pretty_print_node(node)
    )
    entry = ("T1552.002", ("credential-access",), "SME", T1552_PUTTY_SRC)
    other = ("T1059.001", ("execution",), "SME", T1059_SRC)
    paths = write_stores(tmp_path, [], [entry, other, entry])
    with caplog.at_level(logging.WARNING, logger="wilee.stores"):
        store, _, _ = load_stores(paths)
    assert [r.technique_id for r in store.records] == ["T1552.002", "T1059.001"]
    (warning,) = [r.getMessage() for r in caplog.records]
    assert warning.endswith(f":3: duplicate TTP record {store.records[0].record_id} ignored")
    assert len(printed) == 3  # each record's tree is printed once, for its hash
    assert store.records[0].ast_hash == content_hash(store.records[0].ast)


def test_ttp_store_loads_and_validates(tmp_path):
    paths = write_stores(
        tmp_path,
        [],
        [
            ("T1552.002", ["credential-access"], "SME", T1552_PUTTY_SRC),
            ("T1059.001", ["execution"], "SME", T1059_SRC),
        ],
    )
    store, _, model = load_stores(paths)
    assert len(store) == 2
    assert store.tactics_present() == ["execution", "credential-access"]


def test_index_line_keys_the_store_does_not_read_are_accepted(tmp_path):
    paths = write_stores(tmp_path, [], [("T1059.001", ["execution"], "SME", T1059_SRC)])
    plain, _, _ = load_stores(paths)
    index = paths.ttp_index / "index.jsonl"
    (doc,) = [json.loads(line) for line in index.read_text("utf-8").splitlines()]
    index.write_text(json.dumps({**doc, "created_at": "2026-03-01T07:00:00Z", "owner": "x"}) + "\n", "utf-8")
    store, _, _ = load_stores(paths)
    assert store.records == plain.records and len(store) == 1


def test_invalid_ttp_reported_with_ids(tmp_path):
    bad = "def t1552_002():\n    ghost.Hive = \"x\"\n"
    paths = write_stores(tmp_path, [], [("T1552.002", [], "SME", bad)])
    with pytest.raises(ValidationError) as err:
        load_stores(paths)
    assert err.value.technique_ids == ["T1552.002"]


def test_malformed_index_line_reports_file_and_line(tmp_path):
    store_dir = tmp_path / "ttp_store"
    store_dir.mkdir()
    (store_dir / "index.jsonl").write_text("{not json}\n", "utf-8")
    with pytest.raises(FormatError) as err:
        load_stores(StorePaths(ttp_index=store_dir))
    assert err.value.line == 1
    assert "index.jsonl" in err.value.file


def test_loading_is_idempotent(tmp_path):
    paths = write_stores(
        tmp_path,
        [{"ioc_type": "hash", "value": "d41d8cd98f00b204e9800998ecf8427e"}],
        [("T1552.002", ["credential-access"], "SME", T1552_PUTTY_SRC)],
    )
    first = load_stores(paths)
    second = load_stores(paths)
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[2] == second[2]


def test_missing_model_defaults_to_shipped_snapshot():
    _, _, model = load_stores(StorePaths())
    assert "WinRegistryKey" in model.variables_by_class
    assert len(model.variables_by_class) >= 30


def test_data_model_duplicate_class_rejected(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"classes": [
        {"class_name": "A", "variables": ["x"]},
        {"class_name": "A", "variables": ["y"]},
    ]}), "utf-8")
    with pytest.raises(FormatError, match="duplicate class"):
        DataModel.load(path)


# ---------------------------------------------------------------------------
# resolve_bind
# ---------------------------------------------------------------------------


def test_resolve_bind_registry_hive(putty_ioc_db):
    records = resolve_bind(putty_ioc_db, "registry_hive")
    assert [r.value for r in records] == [
        "Software\\SimonTatham\\Putty\\Sessions",
        "Software\\Wow6432Node\\Putty\\Sessions",
    ]


def test_resolve_bind_empty_db():
    assert resolve_bind(IocDb(), "registry_hive") == []


def test_resolve_bind_glob_pattern(putty_ioc_db):
    records = resolve_bind(putty_ioc_db, "process_name", pattern="Trojan*")
    assert [r.value for r in records] == ["TrojanSpy.Win32.TRICKBOT.AZ"]


def test_resolve_bind_technique_filter(putty_ioc_db):
    records = resolve_bind(putty_ioc_db, "process_name", technique="T1003.001")
    assert [r.value for r in records] == ["mimikatz.exe"]


def test_resolve_bind_unknown_type(putty_ioc_db):
    with pytest.raises(UnknownIocType):
        resolve_bind(putty_ioc_db, "telepathy")


def test_resolve_bind_matches_linear_scan_oracle():
    rng = random.Random(5150)
    types = ("registry_hive", "process_name", "file_path", "domain", "command_line", "hash")
    values = ["alpha", "Beta", "Trojan.A", "Trojan.B", "C:\\Windows\\a", "c:\\windows\\A", "x*y"]
    records = tuple(
        IocRecord(rng.choice(types), rng.choice(values) + str(i % 7), rng.choice(("T1001", "T1002", None)))
        for i in range(120)
    )
    # Drop (type, value) duplicates the same way loading would.
    seen, unique = set(), []
    for r in records:
        if (r.ioc_type, r.value) not in seen:
            seen.add((r.ioc_type, r.value))
            unique.append(r)
    db = IocDb(tuple(unique))
    for _ in range(200):
        ioc_type = rng.choice(types)
        technique = rng.choice(("T1001", "T1002", None, None))
        pattern = rng.choice((None, "Trojan*", "*a*", "C:\\*", "*", "zzz*"))
        got = resolve_bind(db, ioc_type, technique=technique, pattern=pattern)
        expected = oracle_resolve_bind(unique, ioc_type, technique, pattern)
        assert got == expected


def test_by_type_groups_the_records_once(putty_ioc_db):
    """Each type's records, in file order, from one grouping of the
    records made on first use; a type with no record gives none."""
    for ioc_type in ("registry_hive", "process_name", "domain"):
        assert putty_ioc_db.by_type(ioc_type) == tuple(r for r in putty_ioc_db.records if r.ioc_type == ioc_type)
        assert putty_ioc_db.by_type(ioc_type) is putty_ioc_db.by_type(ioc_type)
    assert putty_ioc_db.by_type("domain") == ()
    with pytest.raises(UnknownIocType):
        putty_ioc_db.by_type("telepathy")

# ---------------------------------------------------------------------------
# ttps_for_step
# ---------------------------------------------------------------------------


def test_step_exact_technique_match(putty_store):
    records = ttps_for_step(putty_store, "T1059.001")
    assert [r.technique_id for r in records] == ["T1059.001"]


def test_step_tactic_matches_all_tagged(putty_store):
    records = ttps_for_step(putty_store, "credential-access")
    assert len(records) == 2
    assert {r.technique_id for r in records} == {"T1552.002"}


def test_step_unknown_matches_nothing(putty_store):
    assert ttps_for_step(putty_store, "T9999") == []
    assert ttps_for_step(putty_store, "interpretive-dance") == []


def test_ttps_for_step_equals_linear_scan(model):
    rng = random.Random(8181)
    gen = AstGenerator(rng, model=model)
    store = TtpStore()
    tactics = ("execution", "persistence", "credential-access", "impact")
    techniques = [random_technique_id(rng) for _ in range(8)]
    for i in range(30):
        technique = rng.choice(techniques)
        tags = tuple(sorted(rng.sample(tactics, rng.randrange(0, 3))))
        fn = random_ttp_function(gen, f"fn{i}")
        store.records.append(TtpRecord(technique, tags, "SME", fn))
    for step in techniques + list(tactics) + ["T0000"]:
        got = {r.record_id for r in ttps_for_step(store, step)}
        if step.startswith("T"):
            expected = {r.record_id for r in store.records if r.technique_id == step}
        else:
            expected = {r.record_id for r in store.records if step in r.tactic_tags}
        assert got == expected


# ---------------------------------------------------------------------------
# admission / misc
# ---------------------------------------------------------------------------


def test_load_rejects_invalid_ast(tmp_path):
    bad = 'def t1552_002():\n    process1 = Process()\n    process1.nonesuch = "x"\n'
    paths = write_stores(tmp_path, [], [("T1059.001", ["execution"], "SME", T1059_SRC), ("T1552.002", [], "SME", bad)])
    with pytest.raises(ValidationError, match=r"T1552\.002: error: unknown variable 'nonesuch'") as err:
        load_stores(paths)
    assert err.value.technique_ids == ["T1552.002"]


def test_load_rejects_abstract_bodies(tmp_path):
    abstract = "def t1552_002():\n    credential_access()\n"
    paths = write_stores(tmp_path, [], [("T1552.002", [], "SME", abstract), ("T1059.001", [], "SME", T1059_SRC)])
    with pytest.raises(ValidationError, match="T1552.002: TTP bodies must be concrete") as err:
        load_stores(paths)
    assert err.value.technique_ids == ["T1552.002"]


def test_ioc_type_map_bridges_variables():
    assert ioc_type_for_variable("Hive") == "registry_hive"
    assert ioc_type_for_variable("name") == "process_name"
    assert ioc_type_for_variable("command_line") == "command_line"
    assert ioc_type_for_variable("nonesuch") is None


def test_record_hash_tracks_content(model):
    a = TtpRecord("T1552.002", (), "SME", function_from(T1552_PUTTY_SRC))
    b = TtpRecord("T1552.002", (), "SME", function_from(T1552_PUTTY_SRC))
    c = TtpRecord("T1552.002", (), "SME", function_from(T1552_RUNKEY_SRC))
    assert a.ast_hash == b.ast_hash != c.ast_hash
    assert pretty_print_node(a.ast) == pretty_print_node(b.ast)
