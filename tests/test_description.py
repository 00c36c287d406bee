import pytest

from conftest import step_names

from wilee.dsl import DescriptionError, ThreatDescription, abstract_call, literal, parse


def test_from_steps_and_names():
    desc = ThreatDescription.from_steps("hunt", ["T1552.002", "credential-access"])
    assert step_names(desc) == ("T1552.002", "credential-access")


def test_unknown_step_rejected():
    with pytest.raises(DescriptionError, match="unknown step"):
        ThreatDescription.from_steps("hunt", ["interpretive-dance"])


def test_non_call_step_rejected():
    with pytest.raises(DescriptionError):
        ThreatDescription("hunt", (literal("x"),))


def test_from_module_reads_first_function():
    tree = parse("def putty():\n    t1552_002()\n    t1059_001()\n")
    desc = ThreatDescription.from_module(tree)
    assert desc.name == "putty"
    assert step_names(desc) == ("T1552.002", "T1059.001")


def test_from_module_rejects_concrete_functions():
    tree = parse("def putty():\n    p = Process()\n")
    with pytest.raises(DescriptionError, match="concrete"):
        ThreatDescription.from_module(tree)


def test_from_module_rejects_empty_module():
    with pytest.raises(DescriptionError):
        ThreatDescription.from_module(parse(""))


def test_steps_may_be_synthesized():
    desc = ThreatDescription("hunt", (abstract_call("execution"),))
    assert step_names(desc) == ("execution",)
