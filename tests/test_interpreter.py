import random

import pytest

from conftest import (
    PlantedAttack,
    T1059_SRC,
    T1552_PUTTY_SRC,
    build_store,
    function_from,
    random_ttp_function,
    step_names,
    synth_log,
    write_ndjson,
)
from oracles import oracle_concretize_count, oracle_enumerate_combinations

from wilee.dsl import (
    AstGenerator,
    CANONICAL_TACTICS,
    ThreatDescription,
    get_node,
    parse,
    random_technique_id,
)
from wilee.hunt import NdjsonProxy, evaluate, schedule
from wilee.interpreter import (
    EmptyStore,
    bind_sites,
    concretize,
    default_killchain,
    implementation_from_module,
)
from wilee.stores import TtpRecord, TtpStore


def make_store_with_variants(model, spec):
    """spec: {technique_id: variant_count}; bodies differ per variant."""
    store = TtpStore()
    rng = random.Random(hash(tuple(sorted(spec.items()))) & 0xFFFF)
    gen = AstGenerator(rng, model=model)
    for technique, count in spec.items():
        ident = "t" + technique[1:].replace(".", "_").lower()
        for _ in range(count):
            store.records.append(
                TtpRecord(technique, ("execution",), "SME", random_ttp_function(gen, ident))
            )
    return store


def test_two_by_three_gives_six(model):
    store = make_store_with_variants(model, {"T1001": 2, "T1002": 3})
    desc = ThreatDescription.from_steps("d", ["T1001", "T1002"])
    result = concretize(desc, store)
    assert len(result.implementations) == 6
    assert result.diagnostics == ()


def test_zero_variant_step_reports_diagnostic(model):
    store = make_store_with_variants(model, {"T1001": 2})
    desc = ThreatDescription.from_steps("d", ["T1001", "T1002"])
    result = concretize(desc, store)
    assert result.implementations == ()
    (diag,) = result.diagnostics
    assert diag.code == "empty-step"
    assert "T1002" in diag.message and "step 1" in diag.message


def test_product_matches_nested_loop_enumeration(model):
    store = make_store_with_variants(model, {"T1001": 2, "T1002": 1, "T1003": 4})
    desc = ThreatDescription.from_steps("d", ["T1001", "T1002", "T1003"])
    result = concretize(desc, store)
    assert len(result.implementations) == 8
    expected = oracle_enumerate_combinations(
        store.records, ["T1001", "T1002", "T1003"], set(CANONICAL_TACTICS)
    )
    got = {tuple(s.record.record_id for s in impl.steps) for impl in result.implementations}
    assert got == {tuple(r.record_id for r in combo) for combo in expected}


def test_concretize_is_deterministic(model):
    store = make_store_with_variants(model, {"T1001": 3, "T1002": 2})
    desc = ThreatDescription.from_steps("d", ["T1001", "T1002"])
    first = concretize(desc, store)
    second = concretize(desc, store)
    assert [i.impl_id for i in first.implementations] == [
        i.impl_id for i in second.implementations
    ]


def test_cap_exceeded_aborts_with_diagnostic(model):
    store = make_store_with_variants(model, {"T1001": 8, "T1002": 8})
    desc = ThreatDescription.from_steps("d", ["T1001", "T1002"])
    result = concretize(desc, store, cap=50)
    assert result.implementations == ()
    (diag,) = result.diagnostics
    assert diag.code == "cap-exceeded"
    assert "64" in diag.message


def test_tactic_steps_expand_by_tag(putty_store):
    desc = ThreatDescription.from_steps("d", ["credential-access", "execution"])
    result = concretize(desc, putty_store)
    assert len(result.implementations) == 2  # 2 credential variants x 1 execution


# ---------------------------------------------------------------------------
# default_killchain
# ---------------------------------------------------------------------------


def test_killchain_orders_tactics_canonically(model):
    store = build_store(model, [])
    store.records.extend(
        [
            TtpRecord("T1003", ("persistence",), "SME", function_from("def t1003():\n    pass\n")),
            TtpRecord("T1004", ("execution",), "SME", function_from("def t1004():\n    pass\n")),
        ]
    )
    desc = default_killchain(store)
    assert desc.name == "full kill-chain"
    assert step_names(desc) == ("execution", "persistence")


def test_killchain_single_tag(model):
    store = TtpStore(
        [TtpRecord("T1003", ("impact",), "SME", function_from("def t1003():\n    pass\n"))]
    )
    assert step_names(default_killchain(store)) == ("impact",)


def test_killchain_empty_store_raises():
    with pytest.raises(EmptyStore):
        default_killchain(TtpStore())


def test_killchain_invariant_under_insertion_order(model):
    rng = random.Random(31337)
    records = [
        TtpRecord(
            random_technique_id(rng),
            (rng.choice(CANONICAL_TACTICS),),
            "SME",
            function_from(f"def fn{i}():\n    pass\n"),
        )
        for i in range(12)
    ]
    reference = step_names(default_killchain(TtpStore(list(records))))
    for _ in range(100):
        rng.shuffle(records)
        assert step_names(default_killchain(TtpStore(list(records)))) == reference


# ---------------------------------------------------------------------------
# bind sites and implementation ids
# ---------------------------------------------------------------------------

BIND_SRC = '''def t1003_001():
    process1 = Process()
    process1.name = bind(ioc_type=process_name)
    file1 = File()
    file1.path = bind(ioc_type=file_path)
'''

T1552_BIND_SRC = '''def t1552_002():
    winregistrykey1 = WinRegistryKey()
    winregistrykey1.Hive = bind(ioc_type=registry_hive, technique="T1552.002")
    process1 = Process()
    process1.name = bind(ioc_type=process_name)
    process1.observed(winregistrykey1)
'''

T1059_BIND_SRC = '''def t1059_001():
    process1 = Process()
    process1.command_line = bind(ioc_type=command_line, technique="T1059.001")
'''


def test_bind_sites_in_source_order():
    fn = function_from(BIND_SRC)
    assert [get_node(fn, path).attrs["ioc_type"] for path in bind_sites(fn)] == ["process_name", "file_path"]
    assert bind_sites(function_from("def t1003():\n    pass\n")) == []


def test_impl_id_of_bind_source_is_pinned():
    # The id hashes every bind site, so the report names this
    # implementation by the same id that concretization gives it.
    assert implementation_from_module(parse(BIND_SRC)).impl_id == "37e6f30c7bdf"


def test_evaluate_keeps_the_concretized_impl_id(model, putty_ioc_db, tmp_path):
    store = build_store(
        model,
        [
            ("T1552.002", ("credential-access",), "SME", T1552_PUTTY_SRC),
            ("T1552.002", ("credential-access",), "SME", T1552_BIND_SRC),
            ("T1059.001", ("execution",), "SME", T1059_SRC),
            ("T1059.001", ("execution",), "SME", T1059_BIND_SRC),
        ],
    )
    desc = ThreatDescription.from_steps("d", ["T1552.002", "T1059.001"])
    impls = concretize(desc, store).implementations
    assert len(impls) == 4
    assert any(bind_sites(step.record.ast) for impl in impls for step in impl.steps)
    log = write_ndjson(tmp_path / "events.ndjson", synth_log(random.Random(5), 60, PlantedAttack.build().events))
    proxy = NdjsonProxy(log)
    for impl in impls:
        assert evaluate(impl, schedule(impl, model), proxy, putty_ioc_db).impl_id == impl.impl_id


def test_every_step_record_satisfies_membership(model):
    from wilee.stores import ttps_for_step

    store = make_store_with_variants(model, {"T1001": 2, "T1002": 3})
    desc = ThreatDescription.from_steps("d", ["T1001", "T1002"])
    for impl in concretize(desc, store).implementations:
        for step in impl.steps:
            members = {r.record_id for r in ttps_for_step(store, step.step_name)}
            assert step.record.record_id in members


def test_random_counting_against_oracle(model):
    rng = random.Random(616)
    for _ in range(40):
        techniques = [random_technique_id(rng) for _ in range(rng.randrange(2, 5))]
        spec = {t: rng.randrange(0, 4) for t in techniques}
        store = make_store_with_variants(model, {t: c for t, c in spec.items() if c})
        steps = [rng.choice(techniques) for _ in range(rng.randrange(1, 4))]
        desc = ThreatDescription.from_steps("d", steps)
        result = concretize(desc, store)
        expected = oracle_concretize_count(store.records, steps, set(CANONICAL_TACTICS))
        if expected == 0:
            assert result.implementations == ()
            assert any(d.code == "empty-step" for d in result.diagnostics)
        else:
            assert len(result.implementations) == expected
