import json
import random
from pathlib import Path

import pytest

from conftest import build_store, random_ttp_function

from wilee.dsl import AstGenerator, NodeKind, parse, pretty_print_node, validate
from wilee.malmo import (
    NoClassesSelected,
    generate_dsl,
    mine_relation_priors,
    object_name,
    scores_to_json,
)
from wilee.stores import DataModel, IocDb, IocRecord, TtpStore

TECHNIQUE_FIXTURE = Path(__file__).parent / "fixtures" / "technique_t1552_002.json"

SME_PRIORS_SRC = '''def t1003_001():
    system1 = System()
    process1 = Process()
    winregistrykey1 = WinRegistryKey()
    system1.has(process1)
    process1.observed(winregistrykey1)
    process1.observed(winregistrykey1)
'''


@pytest.fixture
def priors(model):
    store = build_store(model, [("T1003.001", ("credential-access",), "SME", SME_PRIORS_SRC)])
    return mine_relation_priors(store)


def technique_fixture():
    doc = json.loads(TECHNIQUE_FIXTURE.read_text("utf-8"))
    return doc["id"], doc["description"]


# ---------------------------------------------------------------------------
# mine_relation_priors
# ---------------------------------------------------------------------------


def test_empty_store_gives_empty_priors():
    assert mine_relation_priors(TtpStore()) == {}


def test_priors_count_triples(priors):
    assert priors == {
        ("System", "has", "Process"): 1,
        ("Process", "observed", "WinRegistryKey"): 2,
    }


def test_priors_ignore_non_sme_sources(model):
    store = build_store(model, [("T1003.001", (), "GPE", SME_PRIORS_SRC)])
    assert mine_relation_priors(store) == {}


def test_priors_equal_full_ast_recount(model):
    rng = random.Random(1234)
    gen = AstGenerator(rng, model=model)
    store = TtpStore()
    from wilee.stores import TtpRecord

    for i in range(20):
        store.records.append(
            TtpRecord("T1000", (), "SME", random_ttp_function(gen, f"fn{i}"))
        )
    priors = mine_relation_priors(store)
    recount: dict = {}
    for record in store.records:
        classes = {}
        for stmt in record.ast.children:
            if stmt.kind is NodeKind.OBJECT_INSTANTIATION:
                classes[stmt.attrs["var"]] = stmt.attrs["class_name"]
            elif stmt.kind is NodeKind.RELATION_STMT:
                triple = (
                    classes[stmt.children[0].attrs["name"]],
                    stmt.attrs["verb"],
                    classes[stmt.children[1].attrs["name"]],
                )
                recount[triple] = recount.get(triple, 0) + 1
    assert priors == recount


# ---------------------------------------------------------------------------
# generate_dsl
# ---------------------------------------------------------------------------


def test_t1552_fixture_emits_putty_hive_and_process(model, putty_ioc_db, priors):
    technique_id, description = technique_fixture()
    fn, scores = generate_dsl(technique_id, description, model, putty_ioc_db, priors)
    text = pretty_print_node(fn)
    assert fn.attrs["name"] == "t1552_002"
    # Two registry-hive IOCs match the technique, so the hive binds.
    assert "winregistrykey1 = WinRegistryKey()" in text
    assert 'winregistrykey1.Hive = bind(ioc_type=registry_hive, technique="T1552.002")' in text
    assert "process1 = Process()" in text
    assert 'process1.name = "TrojanSpy.Win32.TRICKBOT.AZ"' in text
    assert validate(fn, model) == []
    assert any(s.class_name == "WinRegistryKey" and s.inclusion_value > 0 for s in scores)


def test_single_ioc_becomes_literal(model, priors):
    technique_id, description = technique_fixture()
    db = IocDb(
        (
            IocRecord("registry_hive", "Software\\*\\Putty\\Sessions", "T1552.002"),
            IocRecord("process_name", "TrojanSpy.Win32.TRICKBOT.AZ", "T1552.002"),
        )
    )
    fn, _ = generate_dsl(technique_id, description, model, db, priors)
    text = pretty_print_node(fn)
    assert 'winregistrykey1.Hive = "Software\\*\\Putty\\Sessions"' in text


def test_relations_come_from_priors(model, putty_ioc_db, priors):
    technique_id, description = technique_fixture()
    fn, _ = generate_dsl(technique_id, description, model, putty_ioc_db, priors)
    text = pretty_print_node(fn)
    assert "system1.has(process1)" in text
    assert "process1.observed(winregistrykey1)" in text


def test_empty_ioc_db_gives_no_assignments(model, priors):
    technique_id, description = technique_fixture()
    fn, _ = generate_dsl(technique_id, description, model, IocDb(), priors)
    kinds = {stmt.kind for stmt in fn.children}
    assert NodeKind.ATTRIBUTE_ASSIGN not in kinds
    assert NodeKind.OBJECT_INSTANTIATION in kinds
    assert NodeKind.RELATION_STMT in kinds


def test_unmatched_description_raises(model, priors):
    with pytest.raises(NoClassesSelected):
        generate_dsl("T1552.002", "zzz qqq xxx", model, IocDb(), priors)


def test_top_n_limits_objects(model, putty_ioc_db, priors):
    technique_id, description = technique_fixture()
    fn_small, _ = generate_dsl(technique_id, description, model, putty_ioc_db, priors, n=1)
    objects = [
        stmt for stmt in fn_small.children if stmt.kind is NodeKind.OBJECT_INSTANTIATION
    ]
    assert len(objects) == 1
    assert objects[0].attrs["class_name"] == "WinRegistryKey"


def test_object_naming_rule():
    assert object_name("WinRegistryKey") == "winregistrykey1"
    assert object_name("active_directory") == "activedirectory1"


def test_pretagged_description(model, priors, putty_ioc_db):
    tagged = "window/NN registry/NN keys/NNS and/CC a/DT malicious/JJ process/NN"
    fn, _ = generate_dsl("T1552.002", tagged, model, putty_ioc_db, priors, pretagged=True)
    assert validate(fn, model) == []
    names = {stmt.attrs.get("class_name") for stmt in fn.children}
    assert "WinRegistryKey" in names and "Process" in names


def test_generated_dsl_always_validates_fuzzed(model, priors):
    rng = random.Random(888)
    vocab = [
        "window registry keys", "malicious process", "network connection",
        "remote services", "file path", "user accounts", "domain name system",
        "scheduled tasks", "email message", "kernel driver",
    ]
    wordpool = [
        "win", "registry", "key", "process", "name", "file", "path",
        "network", "connection", "domain", "service", "session", "hive",
        "command", "line", "user", "account",
    ]
    shipped_tables = list(model.variables_by_class.items())
    for i in range(60):
        description = ". ".join(rng.sample(vocab, rng.randrange(1, 4))) + "."
        technique = f"T{rng.randrange(1000, 1700):04d}"
        # Alternate between the shipped snapshot and random models.
        if i % 2 == 0:
            instance_model = model
        else:
            classes = {}
            for _ in range(rng.randrange(2, 8)):
                class_name = "".join(
                    w.capitalize() for w in rng.sample(wordpool, rng.randrange(1, 3))
                )
                classes.setdefault(
                    class_name,
                    tuple(
                        "_".join(rng.sample(wordpool, rng.randrange(1, 3)))
                        for _ in range(rng.randrange(1, 5))
                    ),
                )
            instance_model = DataModel(classes)
        db = IocDb(
            tuple(
                IocRecord(t, f"value-{t}-{j}", technique)
                for t in ("registry_hive", "process_name", "file_path")
                for j in range(rng.randrange(0, 3))
            )
        )
        try:
            fn, _ = generate_dsl(
                technique, description, instance_model, db, priors, n=rng.randrange(1, 7)
            )
        except NoClassesSelected:
            continue
        assert validate(fn, instance_model) == []
        # Round-trips through the concrete syntax too.
        assert parse(pretty_print_node(fn)).children[0] == fn


def test_scores_report_is_ordered_and_serializable(model, putty_ioc_db, priors):
    technique_id, description = technique_fixture()
    _, scores = generate_dsl(technique_id, description, model, putty_ioc_db, priors)
    doc = scores_to_json(scores)
    values = [entry["inclusion_value"] for entry in doc]
    assert values == sorted(values, reverse=True)
    json.dumps(doc)
