import random

import pytest

from conftest import T1552_PUTTY_SRC, function_from, random_module

from wilee.dsl import AstGenerator, NodeKind, ThreatDescription, parse
from wilee.hunt import BindSpec, UnknownClass, UnknownVariable, schedule
from wilee.interpreter import concretize, implementation_from_module
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
    assert observed.peer_class == "WinRegistryKey"
    assert observed.peer_qid == registry.qid


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
