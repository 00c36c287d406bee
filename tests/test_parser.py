import copy
import importlib.util
import pickle
import random
import re
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from conftest import FIXTURES, FUZZ_SCALE, T1552_PUTTY_SRC, random_module
from oracles import oracle_tokens

from wilee.dsl import (
    AstGenerator,
    AstNode,
    DslSyntaxError,
    NodeKind,
    iter_nodes,
    parse,
    parser,
    pretty_print,
    pretty_print_node,
)
from wilee.dsl.parser import tokenize
from wilee.dsl.vocab import BIND_KEYS, IDENTIFIER_RE, unquote_string
from wilee.stores import DataModel, FormatError, read_text


def test_putty_example_shape():
    src = (
        'def t1552_002():\n'
        '  winregistrykey1 = WinRegistryKey()\n'
        '  winregistrykey1.Hive = "Software\\*\\Putty\\Sessions"\n'
    )
    tree = parse(src)
    assert tree.kind is NodeKind.MODULE
    assert len(tree.children) == 1
    fn = tree.children[0]
    assert fn.attrs["name"] == "t1552_002"
    kinds = [stmt.kind for stmt in fn.children]
    assert kinds == [NodeKind.OBJECT_INSTANTIATION, NodeKind.ATTRIBUTE_ASSIGN]
    assign = fn.children[1]
    assert assign.children[1].attrs["value"] == "Software\\*\\Putty\\Sessions"


def test_empty_source_gives_empty_module():
    tree = parse("")
    assert tree.kind is NodeKind.MODULE
    assert tree.children == ()


def test_spans_cover_source():
    src = 'def f():\n    process1 = Process()\n    process1.name = "x"\n'
    tree = parse(src)
    total = len(src.encode("utf-8"))
    assert tree.span == (0, total)
    for fn in tree.children:
        for stmt in fn.children:
            start, end = stmt.span
            assert 0 <= start <= end <= total


def test_spans_are_byte_offsets():
    src = 'def f():\n    process1 = Process()\n    process1.user = "é"\n'
    tree = parse(src)
    literal = tree.children[0].children[1].children[1]
    start, end = literal.span
    assert src.encode("utf-8")[start:end].decode("utf-8") == '"é"'


def test_relation_and_call_statements():
    src = "def f():\n    a = System()\n    b = Process()\n    a.has(b)\n\ndef g():\n    t1059_001()\n    credential_access()\n"
    tree = parse(src)
    rel = tree.children[0].children[2]
    assert rel.kind is NodeKind.RELATION_STMT
    assert rel.attrs["verb"] == "has"
    assert [c.attrs["name"] for c in rel.children] == ["a", "b"]
    calls = tree.children[1].children
    assert [c.attrs["step"] for c in calls] == ["T1059.001", "credential-access"]


def test_bind_forms():
    src = (
        "def f():\n"
        "    p = Process()\n"
        "    p.name = bind(ioc_type=process_name)\n"
        '    p.command_line = bind(ioc_type=command_line, technique="T1059.001", pattern="Get-*")\n'
        '    p.path = bind(ioc_type="file_path")\n'
    )
    tree = parse(src)
    binds = [stmt.children[1] for stmt in tree.children[0].children[1:]]
    assert binds[0].attrs == {"ioc_type": "process_name"}
    assert binds[1].attrs == {
        "ioc_type": "command_line",
        "technique": "T1059.001",
        "pattern": "Get-*",
    }
    assert binds[2].attrs == {"ioc_type": "file_path"}


def test_string_escapes():
    assert (
        parse('def f():\n    p = Process()\n    p.name = "a\\"b"\n')
        .children[0].children[1].children[1].attrs["value"]
        == 'a"b'
    )
    # Lone backslashes are literal; doubled ones collapse.
    assert (
        parse('def f():\n    p = Process()\n    p.name = "C:\\x\\\\y"\n')
        .children[0].children[1].children[1].attrs["value"]
        == "C:\\x\\y"
    )


def test_pass_is_an_empty_body():
    tree = parse("def f():\n    pass\n")
    assert tree.children[0].children == ()


@pytest.mark.parametrize(
    "source, line, fragment",
    [
        ("def f(:\n    pass\n", 1, ")"),
        ("x = Foo()\n", 1, "def"),
        ("def f():\npass\n", 2, "indented"),
        ('def f():\n    p = Process()\n    p.name = "open\n', 3, "unterminated"),
        ("def f():\n    p.q.r = Foo()\n", 2, ""),
        ("def f():\n    a.unknownverb(b)\n", 2, "has"),
        ("def f():\n    p = Process()\n    p.name = bind(bogus=\"x\")\n", 3, "ioc_type"),
        ("def f():\n\tpass\n", 2, "tab"),
        ("def f():\n            pass\n  misplaced = X()\n", 3, "unindent"),
    ],
)
def test_syntax_errors_carry_position(source, line, fragment):
    with pytest.raises(DslSyntaxError) as err:
        parse(source)
    assert err.value.line == line
    assert fragment.lower() in str(err.value).lower()


@pytest.mark.parametrize(
    "source, line, col, message, expected",
    [
        ("def f():\n  \tpass\n", 2, 3, "tabs are not allowed in indentation", ()),
        ("def f():\n    p = Process()\t\n", 2, 18, "tabs are not allowed here", ()),
        ("def f():\r    pass\n", 1, 9, "unexpected character '\\r'", ()),
        ('def f():\n    p.name = "abc\n', 2, 14, "unterminated string", ('"',)),
        ('def f():\n    p.name = "a\rb"\n', 2, 14, "unterminated string", ('"',)),
        ('def f():\n    p.name = "abc\\"\n', 2, 14, "unterminated string", ('"',)),
        ("def f():\n    a = B()\n        c = D()\n", 3, 9, "unexpected indent", ()),
        ("def f():\n    a = B()\n  c = D()\n", 3, 3, "unindent does not match any outer level", ()),
        ("def f():\n    a = B() $\n", 2, 13, "unexpected character '$'", ()),
    ],
    ids=["tab-indent", "tab-in-line", "lone-cr", "unterminated", "cr-in-string", "escaped-quote-at-eol",
         "unexpected-indent", "unindent-mismatch", "unexpected-character"],
)
def test_lexer_errors_at_exact_positions(source, line, col, message, expected):
    with pytest.raises(DslSyntaxError) as err:
        parse(source)
    assert (err.value.line, err.value.col, err.value.expected) == (line, col, expected)
    suffix = f' (expected {", ".join(expected)})' if expected else ""
    assert str(err.value) == f"{line}:{col}: {message}{suffix}"


_HEAD = [
    ("DEF", "def", 1, 1, (0, 3)),
    ("NAME", "f", 1, 5, (4, 5)),
    ("LPAREN", "(", 1, 6, (5, 6)),
    ("RPAREN", ")", 1, 7, (6, 7)),
    ("COLON", ":", 1, 8, (7, 8)),
]


@pytest.mark.parametrize(
    "source, tokens",
    [
        (
            'def f():\n    p.n = "é漢" # µ\n    a = B()\n',
            [("NEWLINE", "", 1, 9, (8, 8)),
             ("INDENT", "", 2, 5, (13, 13)),
             ("NAME", "p", 2, 5, (13, 14)),
             ("DOT", ".", 2, 6, (14, 15)),
             ("NAME", "n", 2, 7, (15, 16)),
             ("ASSIGN", "=", 2, 9, (17, 18)),
             ("STRING", "é漢", 2, 11, (19, 26)),
             ("NEWLINE", "", 2, 16, (27, 27)),
             ("NAME", "a", 3, 5, (36, 37)),
             ("ASSIGN", "=", 3, 7, (38, 39)),
             ("NAME", "B", 3, 9, (40, 41)),
             ("LPAREN", "(", 3, 10, (41, 42)),
             ("RPAREN", ")", 3, 11, (42, 43)),
             ("NEWLINE", "", 3, 12, (43, 43)),
             ("DEDENT", "", 4, 1, (44, 44)),
             ("EOF", "", 4, 1, (44, 44))],
        ),
        (
            'def f():\n    p.n = "a#b"  # c\n',
            [("NEWLINE", "", 1, 9, (8, 8)),
             ("INDENT", "", 2, 5, (13, 13)),
             ("NAME", "p", 2, 5, (13, 14)),
             ("DOT", ".", 2, 6, (14, 15)),
             ("NAME", "n", 2, 7, (15, 16)),
             ("ASSIGN", "=", 2, 9, (17, 18)),
             ("STRING", "a#b", 2, 11, (19, 24)),
             ("NEWLINE", "", 2, 18, (26, 26)),
             ("DEDENT", "", 3, 1, (30, 30)),
             ("EOF", "", 3, 1, (30, 30))],
        ),
        (
            "def f():\n    pass",
            [("NEWLINE", "", 1, 9, (8, 8)),
             ("INDENT", "", 2, 5, (13, 13)),
             ("PASS", "pass", 2, 5, (13, 17)),
             ("NEWLINE", "", 2, 9, (17, 17)),
             ("DEDENT", "", 2, 9, (17, 17)),
             ("EOF", "", 2, 9, (17, 17))],
        ),
        (
            "def f():\n    pass\n# end\r",
            [("NEWLINE", "", 1, 9, (8, 8)),
             ("INDENT", "", 2, 5, (13, 13)),
             ("PASS", "pass", 2, 5, (13, 17)),
             ("NEWLINE", "", 2, 9, (17, 17)),
             ("DEDENT", "", 3, 7, (24, 24)),
             ("EOF", "", 3, 7, (24, 24))],
        ),
    ],
    ids=["non-ascii-literal", "hash-in-string-and-after-code", "no-final-newline",
         "final-comment-ending-in-cr"],
)
def test_token_positions_and_byte_spans(source, tokens):
    got = [(t.type.name, t.value, t.line, t.col, t.span) for t in tokenize(source)]
    assert got == _HEAD + tokens


def test_expected_token_set_reported():
    with pytest.raises(DslSyntaxError) as err:
        parse("def f():\n    a.unknownverb(b)\n")
    assert set(err.value.expected) == {"has", "observed"}


@pytest.mark.parametrize(
    "source, line",
    [("# \ud800\n", 1), ('def f():\n    p = Process()\n    p.name = "\ud800"\n', 3)],
    ids=["in-comment", "in-literal"],
)
def test_lone_surrogate_is_a_syntax_error(source, line):
    with pytest.raises(DslSyntaxError) as err:
        parse(source)
    assert (err.value.line, err.value.col) == (line, 1)
    assert str(err.value) == f"{line}:1: source is not valid UTF-8"


# Programs read a .wdsl file with ``read_text`` and parse the text it gives.
_FILE_SOURCE = T1552_PUTTY_SRC + "    # a comment\n"


@pytest.mark.parametrize("line_end", ["\r\n", "\r"], ids=["crlf", "lone-cr"])
def test_file_line_ends_read_as_newlines(tmp_path, line_end):
    path = tmp_path / "f.wdsl"
    path.write_bytes(_FILE_SOURCE.replace("\n", line_end).encode("utf-8"))
    text = read_text(path)
    assert tokenize(text) == tokenize(_FILE_SOURCE)
    tree, want = parse(text), parse(_FILE_SOURCE)
    assert tree == want
    assert [node.span for _, node in iter_nodes(tree)] == [node.span for _, node in iter_nodes(want)]


def test_file_that_is_not_utf8_fails_at_its_line(tmp_path):
    path = tmp_path / "f.wdsl"
    path.write_bytes(b"def f():\n    \xff\xfe pass\n")
    with pytest.raises(FormatError) as err:
        parse(read_text(path))
    assert (err.value.file, err.value.line) == (str(path), 2)
    assert str(err.value) == f"{path}:2: not UTF-8: invalid start byte at byte 4"


def test_parse_total_over_random_files(tmp_path):
    rng = random.Random(99)
    path = tmp_path / "f.wdsl"
    for _ in range(500):
        path.write_bytes(bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120))))
        try:
            parse(read_text(path))
        except (FormatError, DslSyntaxError):
            pass  # the only permitted failure modes


def test_parse_total_over_random_text():
    rng = random.Random(7)
    alphabet = 'def pass():="\\\n\t #abcxyz*_\ré\ud800'
    for _ in range(800):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 80)))
        try:
            parse(text)
        except DslSyntaxError:
            pass


# Pieces the differential test inserts: line ends, characters that end or
# escape a string or start a comment, punctuation, multi-byte characters,
# and line breaks that only ``str.splitlines`` would honour.
_PIECES = ("\r", "\n", "\r\n", "\t", " ", '"', "\\", "#", "(", ")", ":", "=", ".", ",",
           "é", "漢", "\x0c", "\x85")


def _mutate(rng: random.Random, text: str, donor: str) -> str:
    """One to three edits: insert a piece, delete a few characters, or
    splice in a stretch of ``donor``."""
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(text) + 1)
        kind = rng.randrange(3)
        if kind == 0:
            text = text[:i] + rng.choice(_PIECES) + text[i:]
        elif kind == 1:
            text = text[:i] + text[i + rng.randrange(1, 4):]
        else:
            j = rng.randrange(len(donor) + 1)
            text = text[:i] + donor[j : j + rng.randrange(1, 40)] + text[i:]
    return text


def _lexed(lex, text):
    try:
        return lex(text)
    except DslSyntaxError as exc:
        return (str(exc), exc.line, exc.col, exc.expected)


def test_tokenize_matches_reference_lexer():
    rng = random.Random(1931)
    sources = [read_text(path) for path in sorted((FIXTURES / "corpus").glob("*.wdsl"))]
    for model in (None, DataModel.default()):
        gen = AstGenerator(rng, model=model, max_statements=4)
        sources += [pretty_print(random_module(gen, max_functions=2)) for _ in range(40)]
    inputs = sources + [_mutate(rng, rng.choice(sources), rng.choice(sources)) for _ in range(5000)]
    errors = 0
    for text in inputs:
        got = _lexed(tokenize, text)
        assert got == _lexed(oracle_tokens, text), text
        errors += isinstance(got, tuple)
    # Both outcomes must be common for the comparison to mean much.
    assert len(inputs) // 5 < errors < len(inputs) * 4 // 5


# ---------------------------------------------------------------------------
# The line pass against the token parser
# ---------------------------------------------------------------------------


def _parsed(parse_fn, text):
    """The tree and every node's span (``AstNode`` equality ignores
    spans), or the error's message, line, column and expected set."""
    try:
        tree = parse_fn(text)
    except DslSyntaxError as exc:
        return (str(exc), exc.line, exc.col, exc.expected)
    return tree, [node.span for _, node in iter_nodes(tree)]


def _printed_sources(rng, count):
    sources = []
    for model in (None, DataModel.default()):
        gen = AstGenerator(rng, model=model, max_statements=6)
        sources += [pretty_print(random_module(gen)) for _ in range(count)]
    return sources


def _bind_line(rng):
    """An assignment of ``bind`` with its arguments in any order, some
    maybe missing or repeated."""
    keys = rng.sample(BIND_KEYS, rng.randrange(len(BIND_KEYS) + 1))
    if keys and rng.random() < 0.25:
        keys.insert(rng.randrange(len(keys) + 1), rng.choice(keys))
    values = ("process_name", '"file_path"', '"T1059.001"', '"Get-*"', '"é\\\\x"', "def", "")
    args = [f"{key}{rng.choice(('=', ' = '))}{rng.choice(values)}" for key in keys]
    return "    p.name = bind(" + rng.choice((", ", ",", " , ")).join(args) + ")"


def _rename(rng, line):
    """One identifier of ``line`` renamed to a keyword, ``bind``, a verb
    or an unknown verb."""
    names = list(IDENTIFIER_RE.finditer(line))
    if not names:
        return line
    m = rng.choice(names)
    return line[: m.start()] + rng.choice(("def", "pass", "bind", "has", "hass", "observed")) + line[m.end() :]


def _edit_lines(rng, text, donor):
    """One edit of one line of ``text``, or a splice from ``donor``."""
    lines = text.split("\n")
    i = rng.randrange(len(lines))
    line = lines[i]
    j = rng.randrange(len(line) + 1)
    kind = rng.randrange(9)
    if kind == 0:
        lines[i] = line[:j] + " " * rng.randrange(1, 4) + line[j:]
    elif kind == 1:
        lines[i] = line + rng.choice(("  # note", "#", " # é"))
    elif kind == 2:
        lines.insert(i, rng.choice(("", "   ", "# comment", "    # indented")))
    elif kind == 3:
        lines[i] = line[:j] + rng.choice(("\t", "\r", "é", "漢", "\x0c", "\x85")) + line[j:]
    elif kind == 4:
        lines[i] = _bind_line(rng)
    elif kind == 5:
        lines[i] = _rename(rng, line)
    elif kind == 6:
        lines[i] = " " * rng.choice((1, 2, 4, 8)) + line
    elif kind == 7:
        del lines[i]
    else:
        return _mutate(rng, text, donor)
    return "\n".join(lines)


def test_line_pass_matches_token_parser():
    """``parse`` and the token parser agree on every input: the same tree
    with the same spans, or the same error."""
    rng = random.Random(3207)
    sources = _printed_sources(rng, 100 * FUZZ_SCALE)
    inputs = list(sources)
    for _ in range(3000 * FUZZ_SCALE):
        text = rng.choice(sources)
        for _ in range(rng.randrange(1, 3)):
            text = _edit_lines(rng, text, rng.choice(sources))
        inputs.append(text)
    taken = trees = 0
    for text in inputs:
        got = _parsed(parse, text)
        assert got == _parsed(parser._parse_tokens, text), text
        trees += len(got) == 2
        taken += parser._parse_lines(text) is not None
    # Both passes must give trees, and errors must be common, for the
    # comparison to mean much.
    assert len(sources) < taken < trees < len(inputs) * 4 // 5


def _benchmark_sources(tmp_path, monkeypatch):
    """Every ``.wdsl`` file of the benchmark's seed-1 inputs, all
    workloads: the TTP store bodies, the description and the seed
    implementation."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)  # its dataclasses look themselves up there
    spec.loader.exec_module(inputs)
    monkeypatch.setattr(inputs, "write_events", lambda *args: None)  # no event log is parsed
    for workload in inputs.SHAPES:
        inputs.write_inputs(inputs.make_spec(workload, 1), tmp_path / workload)
    return [read_text(file) for file in sorted(tmp_path.rglob("*.wdsl"))]


def test_printer_output_and_benchmark_sources_never_reach_the_token_parser(tmp_path, monkeypatch):
    benchmark = _benchmark_sources(tmp_path, monkeypatch)
    assert len(benchmark) > 200  # four stores, each workload's description and seed implementation
    sources = _printed_sources(random.Random(4), 300) + benchmark
    fallbacks = []
    token_parse = parser._parse_tokens
    monkeypatch.setattr(parser, "_parse_tokens", lambda text: fallbacks.append(text) or token_parse(text))
    for text in sources:
        parse(text)
    assert fallbacks == []


# ---------------------------------------------------------------------------
# The line pass's canonical texts against the printer
# ---------------------------------------------------------------------------


def _escape_all(value):
    """A literal that reads back as ``value``, every backslash and double
    quote escaped (the printer escapes a backslash only where it must)."""
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _restyle_line(rng, line):
    """``line`` (one printed statement or ``def``) as other source of the
    same statement: each literal quoted one way or the other, a bare
    ``ioc_type`` maybe quoted, a technique step's call maybe spelled with
    a capital ``T``, and a run of spaces between two tokens."""
    tokens = [m.group() for m in parser._TOKEN.finditer(line) if m.lastgroup != "space"]
    for i, token in enumerate(tokens):
        if token.startswith('"'):
            tokens[i] = rng.choice((token, _escape_all(unquote_string(token))))
        elif i >= 2 and tokens[i - 2] == "ioc_type" and tokens[i - 1] == "=" and rng.random() < 0.5:
            tokens[i] = f'"{token}"'
    if len(tokens) == 3 and re.fullmatch(r"t\d{4}", tokens[0]) and rng.random() < 0.5:
        tokens[0] = "T" + tokens[0][1:]  # the same step: t1059() and T1059() both call T1059
    out = tokens[0]
    for before, token in zip(tokens, tokens[1:]):
        names = IDENTIFIER_RE.fullmatch(before) and IDENTIFIER_RE.fullmatch(token)
        out += " " * rng.randrange(1 if names else 0, 4) + token
    return out


def _restyle(rng, text):
    """A printed module as other source the line pass reads: restyled
    lines, each function's body at its own indent, blank lines, trailing
    spaces and ``pass`` lines."""
    lines = []
    indent = "    "
    for line in text.split("\n"):
        if not line:
            lines.append(rng.choice(("", "", " ", "   ")))
            continue
        statement = line.lstrip(" ")
        if statement is line:  # a def
            indent = " " * rng.choice((1, 2, 3, 4, 8))
        elif rng.random() < 0.1:
            lines.append(indent + "pass")
        if rng.random() < 0.1:
            lines.append(" " * rng.randrange(4))
        prefix = "" if statement is line else indent
        lines.append(prefix + _restyle_line(rng, statement) + " " * rng.choice((0, 0, 0, 1, 3)))
    return "\n".join(lines)


def test_line_pass_texts_equal_the_printers(tmp_path, monkeypatch):
    """For every function the line pass reads, the canonical text it gives
    is ``pretty_print_node`` of the function: on restyled printed modules
    (space runs, indents, blank lines, trailing spaces, escaped and
    unescaped ``\\`` and ``"``, quoted and bare ``ioc_type``, ``pass``
    lines, non-ASCII, CRLF files through ``read_text``), on the corpus
    and on every ``.wdsl`` of the four benchmark input sets."""
    rng = random.Random(5113)
    file = tmp_path / "f.wdsl"
    cases = []
    for text in _printed_sources(rng, 150 * FUZZ_SCALE):
        source = _restyle(rng, text)
        if rng.random() < 0.3:
            file.write_bytes(source.replace("\n", "\r\n").encode("utf-8"))
            source = read_text(file)
        cases.append((source, parse(text)))
    for source, tree in cases:
        texts = []
        got = parse(source, texts)
        assert got == tree, source
        assert texts == [pretty_print_node(fn) for fn in got.children], source
    assert any("\\" in source and '"' in source and not source.isascii() for source, _ in cases)

    taken = 0
    fixed = [read_text(path) for path in sorted((FIXTURES / "corpus").glob("*.wdsl"))]
    for source in fixed + _benchmark_sources(tmp_path / "bench", monkeypatch):
        texts = []
        try:
            tree = parse(source, texts)
        except DslSyntaxError:
            continue
        if texts:  # the line pass read it
            taken += 1
            assert texts == [pretty_print_node(fn) for fn in tree.children], source
    assert taken > 200


def test_line_pass_declines_a_quoted_ioc_type_that_is_no_name():
    """The printer takes only a name as a bind's ``ioc_type``; the token
    parser reads any literal there, and the line pass leaves it to it."""
    source = 'def t1059():\n    p = Process()\n    p.name = bind(ioc_type="file path")\n'
    texts = []
    tree = parse(source, texts)
    assert texts == []
    assert tree.children[0].children[1].children[1].attrs == {"ioc_type": "file path"}
    parse(source.replace('"file path"', '"file_path"'), texts)
    assert texts == ['def t1059():\n    p = Process()\n    p.name = bind(ioc_type=file_path)\n']


def test_nodes_are_immutable_and_equal_without_spans():
    tree = parse(T1552_PUTTY_SRC)
    fn = tree.children[0]
    with pytest.raises(FrozenInstanceError):
        fn.kind = NodeKind.MODULE
    with pytest.raises(FrozenInstanceError):
        del fn.span
    with pytest.raises(TypeError):
        hash(fn)
    bare = AstNode(fn.kind, fn.children, dict(fn.attrs))
    assert bare == fn and bare.span is None and fn.span is not None
    assert bare != AstNode(fn.kind, fn.children, {"name": "other"}) and fn != fn.attrs
    assert repr(AstNode(NodeKind.IDENTIFIER, (), {"name": "x"}, (0, 1))) == (
        "AstNode(kind=<NodeKind.IDENTIFIER: 'Identifier'>, children=(), attrs={'name': 'x'}, span=(0, 1))"
    )
    for copied in (copy.copy(tree), copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert copied == tree
        assert [node.span for _, node in iter_nodes(copied)] == [node.span for _, node in iter_nodes(tree)]
