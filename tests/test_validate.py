import pytest

from conftest import T1552_PUTTY_SRC

from wilee.dsl import (
    InvalidAstError,
    Severity,
    attribute_assign,
    bind,
    function_def,
    instantiation,
    is_technique_id,
    literal,
    parse,
    pretty_print_node,
    validate,
)
from wilee.dsl.vocab import is_identifier
from wilee.stores import DataModel

# A small synthetic model exercising the resolution rules in isolation.
FIVE_CLASS_MODEL = DataModel(
    {
        "System": ("hostname", "os"),
        "Process": ("name", "pid", "command_line", "path"),
        "WinRegistryKey": ("Hive", "Key", "Values", "modified"),
        "File": ("path", "size"),
        "NetworkConnection": ("dst_ip", "dst_port"),
    }
)


def codes(tree, model=FIVE_CLASS_MODEL):
    return [d.code for d in validate(tree, model)]


def test_valid_putty_function_has_no_diagnostics():
    assert codes(parse(T1552_PUTTY_SRC)) == []


def test_relation_to_uninstantiated_object():
    tree = parse("def f():\n    a = System()\n    a.has(ghost)\n")
    diags = validate(tree, FIVE_CLASS_MODEL)
    assert [d.code for d in diags] == ["unknown-object"]
    assert "ghost" in diags[0].message
    assert diags[0].severity is Severity.ERROR


def test_assign_before_instantiation():
    tree = parse('def f():\n    p.name = "x"\n    p = Process()\n')
    assert "unknown-object" in codes(tree)


def test_unknown_variable_on_class():
    tree = parse('def f():\n    p = Process()\n    p.parent_handle = "7"\n')
    diags = validate(tree, FIVE_CLASS_MODEL)
    assert [d.code for d in diags] == ["unknown-variable"]
    assert "parent_handle" in diags[0].message and "Process" in diags[0].message


def test_unknown_class():
    tree = parse("def f():\n    q = QuantumDevice()\n")
    assert codes(tree) == ["unknown-class"]


def test_duplicate_object_name():
    tree = parse("def f():\n    p = Process()\n    p = System()\n")
    assert "duplicate-object" in codes(tree)


def test_mixed_abstract_and_concrete():
    tree = parse("def f():\n    p = Process()\n    t1059_001()\n")
    assert "mixed-statements" in codes(tree)


def test_unknown_step_name():
    tree = parse("def f():\n    warp_drive_access()\n")
    assert codes(tree) == ["unknown-step"]


def test_known_steps_accepted():
    tree = parse("def f():\n    t1552_002()\n    credential_access()\n")
    assert codes(tree) == []


def test_unknown_ioc_type_in_bind():
    tree = parse("def f():\n    p = Process()\n    p.name = bind(ioc_type=telepathy)\n")
    assert codes(tree) == ["unknown-ioc-type"]


def test_malformed_bind_technique():
    tree = parse('def f():\n    p = Process()\n    p.name = bind(ioc_type=process_name, technique="1552")\n')
    assert codes(tree) == ["bad-technique"]


def test_model_free_validation_skips_resolution():
    tree = parse("def f():\n    q = QuantumDevice()\n    q.warp = \"9\"\n")
    assert validate(tree, None) == []


def test_spans_attached_to_diagnostics():
    src = "def f():\n    a = System()\n    a.has(ghost)\n"
    diags = validate(parse(src), FIVE_CLASS_MODEL)
    start, end = diags[0].span
    assert src.encode()[start:end].decode() == "ghost"


@pytest.mark.parametrize("name", ["def", "pass", "f\n", "process1\n"])
def test_keyword_or_partial_identifier_is_not_a_name(name):
    # Each would print as source that does not parse back.
    assert codes(function_def(name)) == ["bad-structure"]
    assert codes(function_def("f", (instantiation(name, "Process"),))) == ["bad-structure"]
    assert "bad-structure" in codes(function_def("f", (instantiation("p", name),)))


def test_bind_technique_with_trailing_newline_is_malformed():
    value = bind("process_name", technique="T1552.002\n")
    tree = function_def("f", (instantiation("p", "Process"), attribute_assign("p", "name", value)))
    assert codes(tree) == ["bad-technique"]


@pytest.mark.parametrize(
    "value",
    [literal("two\rlines"), literal("two\nlines"), bind("registry_hive", pattern="Software\\*\r*"),
     bind("registry_hive", pattern="Software\\*\n*")],
    ids=["cr-in-literal", "lf-in-literal", "cr-in-pattern", "lf-in-pattern"],
)
def test_line_break_in_literal_or_pattern_is_malformed(value):
    # Neither would read back: a line break ends the string literal.
    tree = function_def("f", (instantiation("k", "WinRegistryKey"), attribute_assign("k", "Hive", value)))
    assert codes(tree) == ["bad-structure"]
    with pytest.raises(InvalidAstError):
        pretty_print_node(tree)


def test_technique_ids_and_identifiers_match_whole_strings():
    assert is_technique_id("T1059") and is_technique_id("T1552.002")
    assert not is_technique_id("T1059\n") and not is_technique_id("T1552.002 ")
    assert is_identifier("t1552_002") and not is_identifier("def") and not is_identifier("x\n")
