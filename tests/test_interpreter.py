import random

import pytest

from conftest import build_store, function_from
from oracles import oracle_concretize_count, oracle_enumerate_combinations

from wilee.dsl import (
    AstGenerator,
    CANONICAL_TACTICS,
    NodeKind,
    ThreatDescription,
    parse,
    random_technique_id,
)
from wilee.interpreter import (
    BindMode,
    EmptyStore,
    bind_sites,
    concretize,
    default_killchain,
    expand_binds,
    implementation_from_module,
)
from wilee.stores import IocDb, IocRecord, TtpRecord, TtpStore


def make_store_with_variants(model, spec):
    """spec: {technique_id: variant_count}; bodies differ per variant."""
    store = TtpStore()
    rng = random.Random(hash(tuple(sorted(spec.items()))) & 0xFFFF)
    gen = AstGenerator(rng, model=model)
    for technique, count in spec.items():
        ident = "t" + technique[1:].replace(".", "_").lower()
        for _ in range(count):
            store.records.append(
                TtpRecord(technique, ("execution",), "SME", gen.random_ttp_function(ident))
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
    assert desc.step_names == ("execution", "persistence")


def test_killchain_single_tag(model):
    store = TtpStore(
        [TtpRecord("T1003", ("impact",), "SME", function_from("def t1003():\n    pass\n"))]
    )
    assert default_killchain(store).step_names == ("impact",)


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
    reference = default_killchain(TtpStore(list(records))).step_names
    for _ in range(100):
        rng.shuffle(records)
        assert default_killchain(TtpStore(list(records))).step_names == reference


# ---------------------------------------------------------------------------
# expand_binds
# ---------------------------------------------------------------------------

BIND_SRC = '''def t1003_001():
    process1 = Process()
    process1.name = bind(ioc_type=process_name)
    file1 = File()
    file1.path = bind(ioc_type=file_path)
'''


def impl_with_binds():
    return implementation_from_module(parse(BIND_SRC))


def two_by_two_db():
    return IocDb(
        (
            IocRecord("process_name", "procA", "T1003.001"),
            IocRecord("process_name", "procB", "T1003.001"),
            IocRecord("file_path", "C:\\a", "T1003.001"),
            IocRecord("file_path", "C:\\b", "T1003.001"),
        )
    )


def test_no_binds_any_mode(putty_store, putty_ioc_db):
    desc = ThreatDescription.from_steps("d", ["T1059.001"])
    (impl,) = concretize(desc, putty_store).implementations
    for mode in BindMode:
        assert expand_binds(impl, putty_ioc_db, mode) == [impl]
    assert expand_binds(impl, IocDb(), BindMode.UNRESOLVED) == [impl]


def test_all_mode_is_cartesian_product():
    impl = impl_with_binds()
    out = expand_binds(impl, two_by_two_db(), BindMode.ALL)
    assert len(out) == 4
    combos = {
        tuple(record.value for _, record in expanded.resolved_binds) for expanded in out
    }
    assert combos == {("procA", "C:\\a"), ("procA", "C:\\b"), ("procB", "C:\\a"), ("procB", "C:\\b")}


def test_first_mode_equals_lexicographic_head_of_all():
    impl = impl_with_binds()
    db = two_by_two_db()
    (first,) = expand_binds(impl, db, BindMode.FIRST)
    everything = expand_binds(impl, db, BindMode.ALL)
    assert first.resolved_binds == everything[0].resolved_binds


def test_unresolved_mode_keeps_sites_symbolic(monkeypatch):
    impl = impl_with_binds()
    (out,) = expand_binds(impl, two_by_two_db(), BindMode.UNRESOLVED)
    assert len(out.resolved_binds) == 2
    assert all(record is None for _, record in out.resolved_binds)
    assert len(out.unresolved_sites()) == 2
    assert expand_binds(impl, IocDb(), BindMode.UNRESOLVED) == [out]
    # Symbolic sites never consult the database.
    monkeypatch.setattr("wilee.interpreter.resolve_bind", None)
    assert expand_binds(impl, two_by_two_db(), BindMode.UNRESOLVED) == [out]


def test_zero_match_sites_stay_unresolved_and_flagged():
    impl = impl_with_binds()
    db = IocDb((IocRecord("process_name", "procA", "T1003.001"),))
    (out,) = expand_binds(impl, db, BindMode.FIRST)
    resolved = dict(out.resolved_binds)
    values = sorted(r.value for r in resolved.values() if r is not None)
    assert values == ["procA"]
    assert len(out.unresolved_sites()) == 1


def test_step_ast_substitutes_resolved_binds():
    impl = impl_with_binds()
    (out,) = expand_binds(impl, two_by_two_db(), BindMode.FIRST)
    fn = out.step_ast(0)
    values = [
        stmt.children[1]
        for stmt in fn.children
        if stmt.kind is NodeKind.ATTRIBUTE_ASSIGN
    ]
    assert all(v.kind is NodeKind.LITERAL for v in values)
    assert bind_sites(fn) == []


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
