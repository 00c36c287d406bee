from pathlib import Path

import pytest

from wilee.dsl import (
    AstNode,
    InvalidAstError,
    NodeKind,
    abstract_call,
    attribute_assign,
    bind,
    function_def,
    instantiation,
    literal,
    module,
    parse,
    pretty_print,
    relation,
)

CORPUS = Path(__file__).parent / "fixtures" / "corpus"


def test_empty_module_prints_empty():
    assert pretty_print(module()) == ""


def test_canonical_putty_function():
    fn = function_def(
        "t1552_002",
        (
            instantiation("winregistrykey1", "WinRegistryKey"),
            attribute_assign(
                "winregistrykey1", "Hive", literal("Software\\*\\Putty\\Sessions")
            ),
        ),
    )
    assert pretty_print(module((fn,))) == (
        "def t1552_002():\n"
        "    winregistrykey1 = WinRegistryKey()\n"
        '    winregistrykey1.Hive = "Software\\*\\Putty\\Sessions"\n'
    )


def test_empty_function_prints_pass():
    assert pretty_print(module((function_def("f"),))) == "def f():\n    pass\n"


def test_bind_canonical_argument_order():
    fn = function_def(
        "f",
        (
            instantiation("p", "Process"),
            attribute_assign(
                "p", "name", bind("process_name", pattern="Troj*", technique="T1552.002")
            ),
        ),
    )
    text = pretty_print(module((fn,)))
    assert 'bind(ioc_type=process_name, technique="T1552.002", pattern="Troj*")' in text


def test_idempotent_over_corpus():
    files = sorted(CORPUS.glob("*.wdsl"))
    assert len(files) >= 20
    for path in files:
        once = pretty_print(parse(path.read_text("utf-8")))
        assert pretty_print(parse(once)) == once, path.name


@pytest.mark.parametrize(
    "broken",
    [
        module((literal("x"),)),  # literal is not a function
        module((function_def("not an identifier"),)),
        module((function_def("def"),)),  # keywords are not names
        module((function_def("f", (instantiation("pass", "Process"),)),)),
        module((function_def("f\n"),)),  # a whole identifier, no trailing newline
        module((function_def("f", (instantiation("x", "Process\n"),)),)),
        module((function_def("f", (instantiation("x", "also bad"),)),)),
        module((function_def("f", (relation("a", "grabs", "b"),)),)),
        module((function_def("f", (attribute_assign("p", "name", instantiation("q", "X")),)),)),
        module((function_def("f", (AstNode(NodeKind.ATTRIBUTE_ASSIGN, (), {"attribute": "a"}),)),)),
        module((function_def("f", (attribute_assign("p", "name", literal("two\nlines")),)),)),
        module((function_def("f", (attribute_assign("p", "name", literal("two\rlines")),)),)),
        module((function_def("f", (attribute_assign("p", "name", bind("process_name", pattern="a\r*")),)),)),
        module((function_def("f", (abstract_call("not a step!"),)),)),
        module((function_def("f", (AstNode(NodeKind.BIND_EXPR, (), {"pattern": "x"}),)),)),
    ],
)
def test_invalid_trees_raise(broken):
    with pytest.raises(InvalidAstError):
        pretty_print(broken)
