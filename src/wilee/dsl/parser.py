"""Parser for the DSL: a line pass, then a lexer and recursive-descent
parser for every source the line pass does not take.

``parse`` takes the text :func:`wilee.stores.read_text` gives, which
reads a file's ``\\r\\n`` and lone ``\\r`` as ``\\n`` and fails on bytes
that are not UTF-8.  It is total over text: it returns a Module AST or
raises :class:`DslSyntaxError`; no input may crash it.  Text holding a
lone surrogate fails at the line where it occurs.

``tokenize`` reads one line at a time.  Lines end at ``\\n``; a ``\\r``
outside a comment is an error.  Each token is one match of a single
pattern (a name, a string literal, a punctuation mark or a run of
spaces); the identifier and string-literal rules come from
:mod:`.vocab`, which the printer and the validator share.  Token
columns count characters from 1; token and node spans are byte ranges
into the UTF-8 encoding of the source.

``parse`` reads a source in two passes, the second only when the first
declines it:

1. The line pass (``_parse_lines``) splits the source at ``\n`` and
   matches each non-blank line, whole, against one compiled pattern per
   statement form: ``def name():``, ``x = Class()``,
   ``x.attr = "literal"``, ``x.attr = bind(...)`` with its arguments in
   printed order and its ``ioc_type`` a name, bare or quoted,
   ``x.verb(y)``, ``step()`` and ``pass``.  The patterns are built from
   the same :mod:`.vocab` rules as the lexer's, so a line matches a form
   exactly when it lexes to that form's tokens.  Every ``def`` sits at
   column 1 and every other line at its function's one body level.
   Nodes, their byte spans and each function's canonical text (through
   the printer's text of each form) are built from the match groups.
   Printer output always takes this pass.
2. Any other source (a comment, a tab, a ``\r``, bind arguments out of
   order, a deeper indent, anything malformed) goes whole to
   ``_Parser(tokenize(source))``, which returns the same tree or raises
   the one :class:`DslSyntaxError` for it.  That pass alone defines
   every error, so both passes accept the same sources and give the
   same trees, spans included.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple, Optional

from . import ast
from .ast import AstNode, RELATION_VERBS
from .printer import assignment_text, bind_text, call_text, function_text, instantiation_text, relation_text
from .vocab import (
    BIND_KEYS,
    IDENTIFIER_RE,
    KEYWORDS,
    STRING_LITERAL,
    normalize_step,
    quote_string,
    step_identifier,
    unquote_string,
)


class DslSyntaxError(Exception):
    """Syntax error with position and the token set that was expected."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = expected
        suffix = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{suffix}")


class TokenType(Enum):
    DEF = "def"
    PASS = "pass"
    NAME = "name"
    STRING = "string"
    LPAREN = "("
    RPAREN = ")"
    COLON = ":"
    ASSIGN = "="
    DOT = "."
    COMMA = ","
    NEWLINE = "newline"
    INDENT = "indent"
    DEDENT = "dedent"
    EOF = "end of input"


class Token(NamedTuple):
    type: TokenType
    value: str
    line: int
    col: int
    span: tuple[int, int]


_MARKS = "():=.,"

# The fixed tokens: keywords and punctuation marks.
_FIXED = {text: TokenType(text) for text in (*KEYWORDS, *_MARKS)}

# One token: a name, a string literal, a punctuation mark or a run of spaces.
_TOKEN = re.compile(
    f"(?P<name>{IDENTIFIER_RE.pattern})|(?P<string>{STRING_LITERAL})"
    f"|(?P<punct>[{re.escape(_MARKS)}])|(?P<space> +)"
)


def tokenize(source: str) -> list[Token]:
    """Tokens of ``source``, with Python-style INDENT/DEDENT, one line at
    a time.  Lines end at ``\\n``.  Columns count characters; spans are
    byte offsets into the UTF-8 encoding of ``source``, which must
    encode."""
    out: list[Token] = []
    indents = [0]
    lines = source.split("\n")
    next_start = 0  # byte offset of the line after the current one
    for lineno, line in enumerate(lines, 1):
        ascii_line = line.isascii()
        line_start = next_start
        next_start += 1 + (len(line) if ascii_line else len(line.encode("utf-8")))
        rest = line.lstrip(" ")
        pos = len(line) - len(rest)
        if rest[:1] == "\t":
            raise DslSyntaxError("tabs are not allowed in indentation", lineno, pos + 1)
        if rest[:1] in ("", "#"):
            continue  # a blank or comment-only line
        offset = line_start + pos
        if pos > indents[-1]:
            indents.append(pos)
            out.append(Token(TokenType.INDENT, "", lineno, pos + 1, (offset, offset)))
            if len(indents) > 2:
                raise DslSyntaxError("unexpected indent", lineno, pos + 1)
        while pos < indents[-1]:
            indents.pop()
            out.append(Token(TokenType.DEDENT, "", lineno, pos + 1, (offset, offset)))
        if pos != indents[-1]:
            raise DslSyntaxError("unindent does not match any outer level", lineno, pos + 1)
        while pos < len(line):
            m = _TOKEN.match(line, pos)
            if m is None:
                ch = line[pos]
                if ch == "#":
                    break  # a comment runs to the end of the line
                if ch == '"':
                    raise DslSyntaxError("unterminated string", lineno, pos + 1, ('"',))
                if ch == "\t":
                    raise DslSyntaxError("tabs are not allowed here", lineno, pos + 1)
                raise DslSyntaxError(f"unexpected character {ch!r}", lineno, pos + 1)
            end = m.end()
            end_offset = line_start + (end if ascii_line else len(line[:end].encode("utf-8")))
            kind, text = m.lastgroup, m.group()
            if kind == "string":
                out.append(Token(TokenType.STRING, unquote_string(text), lineno, pos + 1, (offset, end_offset)))
            elif kind != "space":
                out.append(Token(_FIXED.get(text, TokenType.NAME), text, lineno, pos + 1, (offset, end_offset)))
            pos, offset = end, end_offset
        out.append(Token(TokenType.NEWLINE, "", lineno, pos + 1, (offset, offset)))
    end = next_start - 1
    col = len(lines[-1]) + 1
    out.extend(Token(TokenType.DEDENT, "", len(lines), col, (end, end)) for _ in indents[1:])
    out.append(Token(TokenType.EOF, "", len(lines), col, (end, end)))
    return out


class _Parser:
    def __init__(self, tokens: list[Token], total_bytes: int):
        self.tokens = tokens
        self.pos = 0
        self.total_bytes = total_bytes

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.cur
        if tok.type is not TokenType.EOF:
            self.pos += 1
        return tok

    def expect(self, type_: TokenType, expected: Optional[tuple[str, ...]] = None) -> Token:
        if self.cur.type is not type_:
            raise self.fail(expected or (type_.value,))
        return self.advance()

    def fail(self, expected: tuple[str, ...]) -> DslSyntaxError:
        tok = self.cur
        got = tok.value if tok.value else tok.type.value
        return DslSyntaxError(f"unexpected {got!r}", tok.line, tok.col, expected)

    def parse_module(self) -> AstNode:
        functions = []
        while self.cur.type is not TokenType.EOF:
            if self.cur.type is not TokenType.DEF:
                raise self.fail(("def",))
            functions.append(self.parse_function())
        return ast.module(tuple(functions), span=(0, self.total_bytes))

    def parse_function(self) -> AstNode:
        start = self.cur.span[0]
        self.expect(TokenType.DEF)
        name = self.expect(TokenType.NAME, ("function name",))
        self.expect(TokenType.LPAREN)
        self.expect(TokenType.RPAREN)
        self.expect(TokenType.COLON)
        self.expect(TokenType.NEWLINE)
        self.expect(TokenType.INDENT, ("an indented function body",))
        body: list[AstNode] = []
        end = self.cur.span[0]
        while self.cur.type is not TokenType.DEDENT:
            stmt = self.parse_statement()
            if stmt is not None:
                body.append(stmt)
                end = stmt.span[1] if stmt.span else end
        self.expect(TokenType.DEDENT)
        return ast.function_def(name.value, tuple(body), span=(start, end))

    def parse_statement(self) -> Optional[AstNode]:
        if self.cur.type is TokenType.PASS:
            self.advance()
            self.expect(TokenType.NEWLINE)
            return None
        first = self.expect(TokenType.NAME, ("a statement",))
        if self.cur.type is TokenType.ASSIGN:
            return self._finish_instantiation(first)
        if self.cur.type is TokenType.DOT:
            return self._finish_dotted(first)
        if self.cur.type is TokenType.LPAREN:
            return self._finish_call(first)
        raise self.fail(("=", ".", "("))

    def _finish_instantiation(self, var: Token) -> AstNode:
        self.advance()  # =
        cls = self.expect(TokenType.NAME, ("class name",))
        self.expect(TokenType.LPAREN)
        rparen = self.expect(TokenType.RPAREN)
        self.expect(TokenType.NEWLINE)
        return ast.instantiation(var.value, cls.value, span=(var.span[0], rparen.span[1]))

    def _finish_dotted(self, subject: Token) -> AstNode:
        self.advance()  # .
        member = self.expect(TokenType.NAME, ("attribute or relation verb",))
        if self.cur.type is TokenType.ASSIGN:
            self.advance()
            value = self.parse_value()
            self.expect(TokenType.NEWLINE)
            return AstNode(
                ast.NodeKind.ATTRIBUTE_ASSIGN,
                (ast.identifier(subject.value, span=subject.span), value),
                {"attribute": member.value},
                (subject.span[0], value.span[1]),
            )
        if self.cur.type is TokenType.LPAREN:
            if member.value not in RELATION_VERBS:
                raise DslSyntaxError(
                    f"unknown relation verb {member.value!r}",
                    member.line,
                    member.col,
                    RELATION_VERBS,
                )
            self.advance()
            obj = self.expect(TokenType.NAME, ("object name",))
            rparen = self.expect(TokenType.RPAREN)
            self.expect(TokenType.NEWLINE)
            node = AstNode(
                ast.NodeKind.RELATION_STMT,
                (
                    ast.identifier(subject.value, span=subject.span),
                    ast.identifier(obj.value, span=obj.span),
                ),
                {"verb": member.value},
                (subject.span[0], rparen.span[1]),
            )
            return node
        raise self.fail(("=", "("))

    def _finish_call(self, name: Token) -> AstNode:
        self.advance()  # (
        rparen = self.expect(TokenType.RPAREN, (")",))
        self.expect(TokenType.NEWLINE)
        return ast.abstract_call(
            normalize_step(name.value), span=(name.span[0], rparen.span[1])
        )

    def parse_value(self) -> AstNode:
        if self.cur.type is TokenType.STRING:
            tok = self.advance()
            return ast.literal(tok.value, span=tok.span)
        if self.cur.type is TokenType.NAME and self.cur.value == "bind":
            return self._parse_bind()
        raise self.fail(("a string literal", "bind("))

    def _parse_bind(self) -> AstNode:
        start = self.cur.span[0]
        bind_tok = self.advance()  # 'bind'
        self.expect(TokenType.LPAREN)
        kwargs: dict[str, str] = {}
        while True:
            key = self.expect(TokenType.NAME, BIND_KEYS)
            if key.value not in BIND_KEYS:
                raise DslSyntaxError(
                    f"unknown bind argument {key.value!r}", key.line, key.col, BIND_KEYS
                )
            if key.value in kwargs:
                raise DslSyntaxError(
                    f"duplicate bind argument {key.value!r}", key.line, key.col
                )
            self.expect(TokenType.ASSIGN)
            if key.value == "ioc_type" and self.cur.type is TokenType.NAME:
                kwargs[key.value] = self.advance().value
            else:
                val = self.expect(TokenType.STRING, ("a string literal",))
                kwargs[key.value] = val.value
            if self.cur.type is TokenType.COMMA:
                self.advance()
                continue
            break
        rparen = self.expect(TokenType.RPAREN, (",", ")"))
        if "ioc_type" not in kwargs:
            raise DslSyntaxError(
                "bind() requires an ioc_type argument", bind_tok.line, bind_tok.col
            )
        return ast.bind(
            kwargs["ioc_type"],
            technique=kwargs.get("technique"),
            pattern=kwargs.get("pattern"),
            span=(start, rparen.span[1]),
        )


# ---------------------------------------------------------------------------
# The line pass: each line one statement form, matched whole
# ---------------------------------------------------------------------------

# A name token: an identifier that is not a keyword.  In a whole-line
# match a name is always followed by a space, a mark or the line's end.
_NAME = rf"(?!(?:{'|'.join(sorted(KEYWORDS))})\b){IDENTIFIER_RE.pattern}"


def _tokens(*tokens: str) -> str:
    """``tokens`` in order, any run of spaces between two."""
    return " *".join(tokens)


def _form(*tokens: str) -> re.Pattern:
    return re.compile(_tokens(*tokens), re.ASCII)


_DEF = _form(f"def +(?P<name>{_NAME})", r"\(", r"\)", ":")

_ASSIGN_TO = (f"(?P<subject>{_NAME})", r"\.", f"(?P<attribute>{_NAME})", "=")
_IOC_TYPE = BIND_KEYS[0]
# ``bind(...)`` with its arguments in printed order, ``ioc_type`` a name,
# bare or quoted (a quoted name holds no escape, so the name is its value).
_BIND = _tokens(
    "(?P<bind>bind",
    r"\(",
    _IOC_TYPE,
    "=",
    f'(?:(?P<{_IOC_TYPE}>{_NAME})|"(?P<quoted>{_NAME})")',
    *(f"(?:{_tokens(',', key, '=', f'(?P<{key}>{STRING_LITERAL})')})?" for key in BIND_KEYS[1:]),
    r"\))",
)


def _span(m: re.Match, base: int, group: str | int = 0) -> tuple[int, int]:
    """The byte range of ``group`` (default: the whole statement) in a
    statement that starts at byte ``base``."""
    start, end = m.span(group)
    if not m.string.isascii():
        start, end = (len(m.string[:i].encode("utf-8")) for i in (start, end))
    return (base + start, base + end)


def _identifier(m: re.Match, base: int, group: str) -> AstNode:
    return ast.identifier(m[group], span=_span(m, base, group))


# Each builder gives a statement's node and its canonical text from the
# match and the byte offset where the statement starts.


def _instantiation(m: re.Match, base: int) -> tuple[AstNode, str]:
    var, class_name = m["var"], m["class_name"]
    return ast.instantiation(var, class_name, span=_span(m, base)), instantiation_text(var, class_name)


def _assignment(m: re.Match, base: int, value: AstNode, value_text: str) -> tuple[AstNode, str]:
    node = AstNode(
        ast.NodeKind.ATTRIBUTE_ASSIGN,
        (_identifier(m, base, "subject"), value),
        {"attribute": m["attribute"]},
        _span(m, base),
    )
    return node, assignment_text(m["subject"], m["attribute"], value_text)


def _literal_assignment(m: re.Match, base: int) -> tuple[AstNode, str]:
    value = unquote_string(m["literal"])
    return _assignment(m, base, ast.literal(value, span=_span(m, base, "literal")), quote_string(value))


def _bind_assignment(m: re.Match, base: int) -> tuple[AstNode, str]:
    ioc_type = m[_IOC_TYPE] or m["quoted"]
    others = {key: unquote_string(m[key]) for key in BIND_KEYS[1:] if m[key] is not None}
    value = ast.bind(ioc_type, **others, span=_span(m, base, "bind"))
    return _assignment(m, base, value, bind_text(ioc_type, others))


def _relation(m: re.Match, base: int) -> tuple[AstNode, str]:
    node = AstNode(
        ast.NodeKind.RELATION_STMT,
        (_identifier(m, base, "subject"), _identifier(m, base, "object")),
        {"verb": m["verb"]},
        _span(m, base),
    )
    return node, relation_text(m["subject"], m["verb"], m["object"])


def _call(m: re.Match, base: int) -> tuple[AstNode, str]:
    step = normalize_step(m["step"])
    return ast.abstract_call(step, span=_span(m, base)), call_text(step_identifier(step))


# Each statement form, most common first, with its builder; ``pass``
# builds nothing.
_STATEMENTS = (
    (_form(f"(?P<var>{_NAME})", "=", f"(?P<class_name>{_NAME})", r"\(", r"\)"), _instantiation),
    (_form(*_ASSIGN_TO, f"(?P<literal>{STRING_LITERAL})"), _literal_assignment),
    (
        _form(f"(?P<subject>{_NAME})", r"\.", f"(?P<verb>{'|'.join(RELATION_VERBS)})", r"\(", f"(?P<object>{_NAME})", r"\)"),
        _relation,
    ),
    (_form(*_ASSIGN_TO, _BIND), _bind_assignment),
    (_form(f"(?P<step>{_NAME})", r"\(", r"\)"), _call),
    (_form("pass"), lambda m, base: None),
)


def _parse_lines(source: str) -> Optional[tuple[AstNode, list[str]]]:
    """The tree of ``source`` and each function's canonical text when
    each of its lines is blank or one whole statement form: a ``def``
    line at column 1, every other line at its function's one body level,
    and every function with a body.  ``None`` for any other source.  The
    tree and its spans are the ones :func:`_parse_tokens` gives, and each
    text is the one :func:`~.printer.pretty_print_node` gives."""
    if not source.isascii():
        try:
            source.encode("utf-8")
        except UnicodeEncodeError:
            return None  # a lone surrogate
    functions: list[AstNode] = []
    texts: list[str] = []
    name = None  # the open function: its name, start, body level, end, statements and their texts
    start = level = end = 0
    body: list[AstNode] = []
    lines: list[str] = []
    next_line = 0  # byte offsets, as line starts
    for line in source.split("\n"):
        offset = next_line
        next_line += 1 + (len(line) if line.isascii() else len(line.encode("utf-8")))
        text = line.lstrip(" ")
        indent = len(line) - len(text)
        text = text.rstrip(" ")
        if not text:
            continue  # a blank line
        if indent == 0:
            m = _DEF.fullmatch(text)
            if m is None or (name is not None and level == 0):
                return None  # not a def, or the def before has no body
            if name is not None:
                functions.append(ast.function_def(name, tuple(body), span=(start, end)))
                texts.append(function_text(name, lines))
            name, start, level, body, lines = m["name"], offset, 0, [], []
            continue
        if name is None:
            return None  # a body line before any def
        if level == 0:  # the function's first body line sets its level
            level, end = indent, offset + indent
        elif indent != level:
            return None
        for pattern, build in _STATEMENTS:
            m = pattern.fullmatch(text)
            if m is not None:
                break
        else:
            return None
        built = build(m, offset + indent)
        if built is not None:
            node, stmt_text = built
            body.append(node)
            lines.append(stmt_text)
            end = node.span[1]
    if name is not None:
        if level == 0:
            return None
        functions.append(ast.function_def(name, tuple(body), span=(start, end)))
        texts.append(function_text(name, lines))
    return ast.module(tuple(functions), span=(0, next_line - 1)), texts


def _parse_tokens(source: str) -> AstNode:
    """The tree :class:`_Parser` reads from the tokens of ``source``."""
    try:
        size = len(source.encode("utf-8"))
    except UnicodeEncodeError as exc:  # a lone surrogate
        line = source.count("\n", 0, exc.start) + 1
        raise DslSyntaxError("source is not valid UTF-8", line, 1) from None
    return _Parser(tokenize(source), size).parse_module()


def parse(source: str, texts: Optional[list[str]] = None) -> AstNode:
    """Parse DSL source text into a Module AST; raises
    :class:`DslSyntaxError` on any malformed input, never anything else.

    The line pass reads a source whose every line is one statement form;
    any other source, every malformed one included, goes whole to the
    token parser, which alone defines each error.  ``texts``, if given,
    gets each function's canonical text (its ``pretty_print_node``) when
    the line pass reads the source, from the lines it matched; it gets
    none when the token parser reads it."""
    read = _parse_lines(source)
    if read is None:
        return _parse_tokens(source)
    tree, function_texts = read
    if texts is not None:
        texts.extend(function_texts)
    return tree
