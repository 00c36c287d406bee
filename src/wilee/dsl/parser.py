"""Lexer and recursive-descent parser for the DSL.

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
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple, Optional

from . import ast
from .ast import AstNode, RELATION_VERBS
from .vocab import BIND_KEYS, IDENTIFIER_RE, KEYWORDS, STRING_LITERAL, normalize_step, unquote_string


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


def parse(source: str) -> AstNode:
    """Parse DSL source text into a Module AST; raises
    :class:`DslSyntaxError` on any malformed input, never anything else."""
    try:
        size = len(source.encode("utf-8"))
    except UnicodeEncodeError as exc:  # a lone surrogate
        line = source.count("\n", 0, exc.start) + 1
        raise DslSyntaxError("source is not valid UTF-8", line, 1) from None
    return _Parser(tokenize(source), size).parse_module()
