import random
from collections import Counter

import pytest

from conftest import T1552_PUTTY_SRC, function_from, random_module, random_ttp_function
from oracles import oracle_behavior_of, oracle_obligations_for, oracle_relation_priors, oracle_schedule

from wilee.dsl import (
    AstGenerator,
    NodeKind,
    ThreatDescription,
    attribute_assign,
    function_def,
    instantiation,
    module,
    parse,
    relation,
    validate,
)
from wilee.gpe import behavior_of
from wilee.hunt import BindSpec, UnknownClass, UnknownVariable, schedule
from wilee.hunt.matcher import _obligations
from wilee.hunt.query import read_body
from wilee.interpreter import concretize, implementation_from_module
from wilee.malmo import mine_relation_priors
from wilee.stores import TtpRecord, TtpStore


def putty_impl(putty_store):
    desc = ThreatDescription.from_steps("putty", ["T1059.001"])
    return concretize(desc, putty_store).implementations[0]


def test_putty_body_schedules_two_descriptors(model):
    impl = implementation_from_module(parse(T1552_PUTTY_SRC))
    descriptors = schedule(impl, model)
    assert len(descriptors) == 2
    registry, process = descriptors
    assert registry.entity_class == "WinRegistryKey"
    (hive,) = registry.predicates
    assert (hive.variable, hive.op, hive.value) == (
        "Hive",
        "glob",
        "Software\\*\\Putty\\Sessions",
    )
    assert registry.relations == ()
    assert process.entity_class == "Process"
    (observed,) = process.relations
    assert observed.verb == "observed"
    assert observed.peer_qid == registry.qid
    assert observed.statement == 0


def test_empty_body_schedules_nothing(model):
    impl = implementation_from_module(parse("def t1082():\n    pass\n"))
    assert schedule(impl, model) == []


def test_bind_predicates_carry_specs(model):
    src = (
        "def t1003_001():\n"
        "    process1 = Process()\n"
        '    process1.name = bind(ioc_type=process_name, technique="T1003.001")\n'
        '    process1.path = bind(ioc_type=file_path, pattern="C:\\*")\n'
    )
    impl = implementation_from_module(parse(src))
    (descriptor,) = schedule(impl, model)
    name, path = descriptor.predicates
    assert name.value == BindSpec("process_name", technique="T1003.001")
    assert name.op == "eq"
    assert path.op == "glob"


def test_descriptor_count_equals_instantiation_count(model):
    rng = random.Random(9090)
    gen = AstGenerator(rng, model=model)
    for _ in range(50):
        tree = random_module(gen)
        if any(
            stmt.kind is NodeKind.ABSTRACT_CALL
            for fn in tree.children
            for stmt in fn.children
        ):
            continue
        impl = implementation_from_module(tree)
        expected = sum(
            1
            for fn in tree.children
            for stmt in fn.children
            if stmt.kind is NodeKind.OBJECT_INSTANTIATION
        )
        assert len(schedule(impl, model)) == expected


def test_descriptors_ordered_by_step(putty_store, model):
    desc = ThreatDescription.from_steps("d", ["T1059.001", "T1552.002"])
    impls = concretize(desc, putty_store).implementations
    descriptors = schedule(impls[0], model)
    assert [d.step_index for d in descriptors] == sorted(d.step_index for d in descriptors)
    assert all(d.impl_id == impls[0].impl_id for d in descriptors)


def test_unknown_class_raises(model):
    store = TtpStore()
    fn = function_from("def t1000():\n    q = QuantumDevice()\n")
    store.records.append(TtpRecord("T1000", (), "SME", fn))
    impl = concretize(
        ThreatDescription.from_steps("d", ["T1000"]), store
    ).implementations[0]
    with pytest.raises(UnknownClass):
        schedule(impl, model)


def test_unknown_variable_raises(model):
    fn = function_from('def t1000():\n    p = Process()\n    p.flux = "y"\n')
    store = TtpStore([TtpRecord("T1000", (), "SME", fn)])
    impl = concretize(
        ThreatDescription.from_steps("d", ["T1000"]), store
    ).implementations[0]
    with pytest.raises(UnknownVariable):
        schedule(impl, model)


def test_qids_are_stable(model):
    impl = implementation_from_module(parse(T1552_PUTTY_SRC))
    first = [d.qid for d in schedule(impl, model)]
    second = [d.qid for d in schedule(impl, model)]
    assert first == second


# ---------------------------------------------------------------------------
# read_body against each consumer's own walk
# ---------------------------------------------------------------------------

READER_HAND_CASES = {
    "relations-out-of-subject-order": (
        "def t1000():\n"
        "    process1 = Process()\n"
        "    file1 = File()\n"
        "    system1 = System()\n"
        '    file1.path = "C:\\\\Temp\\\\*"\n'
        "    file1.has(process1)\n"
        "    system1.has(file1)\n"
        "    process1.observed(file1)\n"
        "    system1.has(process1)\n"
    ),
    "self-relation": (
        "def t1000():\n"
        "    process1 = Process()\n"
        '    process1.name = "a.exe"\n'
        "    process1.has(process1)\n"
        "    file1 = File()\n"
    ),
    "object-in-two-relations": (
        "def t1000():\n"
        "    system1 = System()\n"
        "    process1 = Process()\n"
        "    winregistrykey1 = WinRegistryKey()\n"
        "    system1.has(process1)\n"
        "    process1.observed(winregistrykey1)\n"
        '    winregistrykey1.Hive = bind(ioc_type=registry_hive, pattern="Software\\\\*")\n'
    ),
    "unrelated-objects": (
        "def t1000():\n"
        "    file2 = File()\n"
        "    process1 = Process()\n"
        '    process1.name = bind(ioc_type=process_name, technique="T1003.001")\n'
        "    file1 = File()\n"
        '    file1.path = "x"\n'
        '    file1.path = "y*"\n'
    ),
    "empty-body": "def t1082():\n    pass\n",
    "two-steps": (
        T1552_PUTTY_SRC + "def t1059_001():\n    pass\n" + T1552_PUTTY_SRC.replace("t1552_002", "t1003")
    ),
    "no-functions": "",
}


def _outcome(call, *args):
    """What ``call`` returns, or the type and message of the exception it
    raises for a name it cannot resolve."""
    try:
        return call(*args)
    except (UnknownClass, UnknownVariable) as exc:
        return type(exc).__name__, str(exc)


def _assert_reader_consumers_agree(tree, model, where):
    impl = implementation_from_module(tree)
    descriptors = schedule(impl, model)
    assert descriptors == oracle_schedule(impl, model), where
    assert _obligations(impl, descriptors) == oracle_obligations_for(impl), where
    assert behavior_of(descriptors) == oracle_behavior_of(tree, model), where
    records = [
        TtpRecord("T1000", (), "SME" if i % 3 else "GPE", fn) for i, fn in enumerate(tree.children)
    ]
    store = TtpStore(records)
    assert mine_relation_priors(store) == oracle_relation_priors(store), where


@pytest.mark.parametrize("name", sorted(READER_HAND_CASES))
def test_read_body_consumers_equal_reference_walks_on_hand_cases(model, name):
    tree = parse(READER_HAND_CASES[name])
    assert validate(tree, model) == []
    _assert_reader_consumers_agree(tree, model, name)


def test_read_body_hand_case_readings(model):
    objects, relations = read_body(parse(READER_HAND_CASES["relations-out-of-subject-order"]).children[0])
    readings = [(var, cls, [(p.variable, p.op) for p in predicates]) for var, (cls, predicates) in objects.items()]
    assert readings == [
        ("process1", "Process", []),
        ("file1", "File", [("path", "glob")]),
        ("system1", "System", []),
    ]
    assert relations == [
        ("file1", "has", "process1"),
        ("system1", "has", "file1"),
        ("process1", "observed", "file1"),
        ("system1", "has", "process1"),
    ]
    impl = implementation_from_module(parse(READER_HAND_CASES["self-relation"]))
    (obligations,) = _obligations(impl, schedule(impl, model))
    assert [(o.kind, o.label) for o in obligations] == [
        ("relation", "process1.has(process1)"),
        ("node", "file1"),
    ]


def test_read_body_consumers_equal_reference_walks_on_random_modules(model):
    rng = random.Random(14014)
    gen = AstGenerator(rng, model=model)
    compared = 0
    for case in range(300):
        tree = random_module(gen)
        assert validate(tree, model) == []
        _assert_reader_consumers_agree(tree, model, case)
        compared += len(tree.children)
    assert compared > 500


def _with_one_fault(fn, rng):
    """``fn`` with one statement made unresolvable: an unknown class, an
    unknown variable, or an object named before it is instantiated."""
    body = list(fn.children)
    sites = [
        (i, stmt)
        for i, stmt in enumerate(body)
        if stmt.kind in (NodeKind.OBJECT_INSTANTIATION, NodeKind.ATTRIBUTE_ASSIGN, NodeKind.RELATION_STMT)
    ]
    i, stmt = sites[rng.randrange(len(sites))]
    if stmt.kind is NodeKind.OBJECT_INSTANTIATION:
        body[i] = instantiation(stmt.attrs["var"], "QuantumDevice")
    elif stmt.kind is NodeKind.ATTRIBUTE_ASSIGN and rng.random() < 0.5:
        body[i] = attribute_assign(stmt.children[0].attrs["name"], "flux", stmt.children[1])
    elif stmt.kind is NodeKind.ATTRIBUTE_ASSIGN:
        body[i] = attribute_assign("ghost1", stmt.attrs["attribute"], stmt.children[1])
    else:
        names = [child.attrs["name"] for child in stmt.children]
        names[rng.randrange(2)] = "ghost1"
        body[i] = relation(names[0], stmt.attrs["verb"], names[1])
    return function_def(fn.attrs["name"], tuple(body))


def test_schedule_raises_the_reference_error_for_one_fault(model):
    rng = random.Random(14015)
    gen = AstGenerator(rng, model=model)
    kinds = Counter()
    for case in range(300):
        fns = [random_ttp_function(gen, f"fn{k}") for k in range(rng.randrange(1, 3))]
        at = rng.randrange(len(fns))
        fns[at] = _with_one_fault(fns[at], rng)
        impl = implementation_from_module(module(tuple(fns)))
        expected = _outcome(oracle_schedule, impl, model)
        assert isinstance(expected, tuple), case
        assert _outcome(schedule, impl, model) == expected, case
        kinds[expected[1].split()[0]] += 1
    assert set(kinds) == {"class", "variable", "object", "relation"}
