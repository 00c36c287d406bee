import copy
import hashlib
import json
import logging
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest

from conftest import T1059_SRC, T1552_PUTTY_SRC, T1552_RUNKEY_SRC, function_from, random_ttp_function
from oracles import oracle_resolve_bind

from wilee.dsl import AstGenerator, content_hash, parse, pretty_print_node, random_technique_id
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


def test_ioc_records_are_immutable_and_equal_by_their_fields():
    record = IocRecord("domain", "evil.example")
    same = IocRecord(ioc_type="domain", value="evil.example", technique_id=None, source="manual")
    assert record == same and hash(record) == hash(same) and len({record, same}) == 1
    assert record != IocRecord("domain", "evil.example", source="feed") and record != ("domain", "evil.example")
    with pytest.raises(FrozenInstanceError):
        record.value = "other.example"
    assert repr(record) == "IocRecord(ioc_type='domain', value='evil.example', technique_id=None, source='manual')"
    assert copy.copy(record) == record and pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("source", [5, ["x"], {}, None])
def test_ioc_source_that_is_not_a_string_is_rejected_at_its_line(tmp_path, source):
    path = tmp_path / "ioc_db.jsonl"
    lines = [{"ioc_type": "domain", "value": "a.example"}, {"ioc_type": "domain", "value": "b.example", "source": source}]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), "utf-8")
    with pytest.raises(FormatError) as err:
        IocDb.load(path)
    assert (err.value.file, err.value.line) == (str(path), 2)
    assert str(err.value).endswith(":2: source must be a string")


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
    assert printed == []  # the line pass gives each record's text with its tree
    assert store.records[0].ast_hash == content_hash(store.records[0].ast)


def write_module_store(tmp_path, module_src, technique_ids):
    """A TTP store whose index names the one body file ``mod.wdsl`` once
    per technique id, in order, each line a MALMO record."""
    store_dir = tmp_path / "ttp_store"
    store_dir.mkdir()
    (store_dir / "mod.wdsl").write_text(module_src, "utf-8")
    lines = [json.dumps({"technique_id": t, "source": "MALMO", "path": "mod.wdsl"}) for t in technique_ids]
    (store_dir / "index.jsonl").write_text("".join(line + "\n" for line in lines), "utf-8")
    return store_dir


def count_reads(monkeypatch):
    """The paths ``load_stores`` reads body text from, and the number of
    sources it parses, as it loads."""
    import wilee.stores

    reads, parses = [], []
    read_text, parse = wilee.stores.read_text, wilee.stores.parse
    monkeypatch.setattr(wilee.stores, "read_text", lambda path, digests=None: reads.append(path) or read_text(path, digests))
    monkeypatch.setattr(wilee.stores, "parse", lambda text, texts=None: parses.append(text) or parse(text, texts))
    return reads, parses


SHARED_MODULE_SRC = T1059_SRC + "\n" + T1552_PUTTY_SRC + "\n" + T1059_SRC.replace("Get-Process", "Get-Item") + "\n" + T1552_RUNKEY_SRC


@pytest.mark.parametrize("comment", ["", "# read by the token parser\n"], ids=["line-pass", "token-parser"])
def test_module_named_by_many_index_lines_is_read_and_parsed_once(tmp_path, monkeypatch, comment):
    source = comment + SHARED_MODULE_SRC
    store_dir = write_module_store(tmp_path, source, ["T1059.001", "T1552.002", "T1059.001", "T1552.002"])
    reads, parses = count_reads(monkeypatch)
    digests = {}
    store, _, _ = load_stores(StorePaths(ttp_index=store_dir), digests)
    assert reads == [store_dir / "mod.wdsl"] and len(parses) == 1
    assert digests == {
        str(store_dir / "mod.wdsl"): hashlib.sha256(source.encode("utf-8")).hexdigest(),
        str(store_dir / "index.jsonl"): hashlib.sha256((store_dir / "index.jsonl").read_bytes()).hexdigest(),
    }
    # Each line takes the first function of its technique; the repeats are duplicates.
    first_t1059, first_t1552, _, _ = parse(source).children
    assert [r.ast for r in store.records] == [first_t1059, first_t1552]
    assert [r.text for r in store.records] == [T1059_SRC, T1552_PUTTY_SRC]
    assert [r.ast_hash for r in store.records] == [content_hash(first_t1059), content_hash(first_t1552)]


def test_technique_missing_from_a_shared_module_fails_at_its_index_line(tmp_path, monkeypatch):
    store_dir = write_module_store(tmp_path, SHARED_MODULE_SRC, ["T1059.001", "T1552.002", "T1082", "T1059.001"])
    reads, parses = count_reads(monkeypatch)
    with pytest.raises(FormatError) as err:
        load_stores(StorePaths(ttp_index=store_dir))
    assert (err.value.file, err.value.line) == (str(store_dir / "index.jsonl"), 3)
    assert str(err.value).endswith(f"{store_dir / 'mod.wdsl'} defines no function for technique T1082")
    assert len(reads) == len(parses) == 1


def test_module_of_400_functions_each_indexed_is_parsed_once(tmp_path, monkeypatch):
    ids = [f"T{1000 + i}" for i in range(400)]
    source = "\n".join(
        f'def t{1000 + i}():\n    process1 = Process()\n    process1.name = "p{i}.exe"\n' for i in range(400)
    )
    store_dir = write_module_store(tmp_path, source, ids)
    reads, parses = count_reads(monkeypatch)
    store, _, _ = load_stores(StorePaths(ttp_index=store_dir))
    assert [r.technique_id for r in store.records] == ids
    assert len(reads) == len(parses) == 1


def test_body_with_a_quoted_ioc_type_that_is_no_name_fails_admission(tmp_path):
    """The token parser reads it; validation rejects it before anything
    prints it."""
    body = 'def t1059_001():\n    process1 = Process()\n    process1.name = bind(ioc_type="no type")\n'
    paths = write_stores(tmp_path, [], [("T1059.001", ["execution"], "SME", body)])
    with pytest.raises(ValidationError) as err:
        load_stores(paths)
    assert err.value.technique_ids == ["T1059.001"]


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
