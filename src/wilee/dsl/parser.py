"""Lexer and recursive-descent parser for the DSL.

``parse`` is total over byte strings: it returns a Module AST or raises
:class:`DslSyntaxError`; no input may crash it.  Spans attached to nodes
are byte ranges into the UTF-8 encoding of the source.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from . import ast
from .ast import AstNode, RELATION_VERBS
from .vocab import KEYWORDS, normalize_step

BIND_KEYS = ("ioc_type", "technique", "pattern")


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


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: str
    line: int
    col: int
    span: tuple[int, int]


_KEYWORDS = {word: TokenType(word) for word in KEYWORDS}
_PUNCT = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    ":": TokenType.COLON,
    "=": TokenType.ASSIGN,
    ".": TokenType.DOT,
    ",": TokenType.COMMA,
}


class _Lexer:
    """Line-oriented lexer with Python-style INDENT/DEDENT tokens."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0  # char index
        self.byte = 0  # byte offset of self.pos
        self.line = 1
        self.col = 1

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            ch = self.source[self.pos]
            self.byte += len(ch.encode("utf-8"))
            self.pos += 1
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.source[i] if i < len(self.source) else ""

    def error(self, message: str, expected: tuple[str, ...] = ()) -> DslSyntaxError:
        return DslSyntaxError(message, self.line, self.col, expected)

    def tokens(self) -> list[Token]:
        out: list[Token] = []
        indents = [0]
        while self.pos < len(self.source):
            # Start of a line: measure indentation, skip blank/comment lines.
            indent = 0
            while self._peek() == " ":
                indent += 1
                self._advance()
            if self._peek() == "\t":
                raise self.error("tabs are not allowed in indentation")
            if self._peek() in ("\n", "") or self._peek() == "#" or (
                self._peek() == "\r" and self._peek(1) == "\n"
            ):
                self._skip_to_eol()
                continue
            if indent > indents[-1]:
                indents.append(indent)
                out.append(self._mark(TokenType.INDENT, ""))
                if len(indents) > 2:
                    raise self.error("unexpected indent")
            while indent < indents[-1]:
                indents.pop()
                out.append(self._mark(TokenType.DEDENT, ""))
            if indent != indents[-1]:
                raise self.error("unindent does not match any outer level")
            out.extend(self._lex_line())
        while len(indents) > 1:
            indents.pop()
            out.append(self._mark(TokenType.DEDENT, ""))
        out.append(self._mark(TokenType.EOF, ""))
        return out

    def _mark(self, type_: TokenType, value: str) -> Token:
        return Token(type_, value, self.line, self.col, (self.byte, self.byte))

    def _skip_to_eol(self) -> None:
        while self.pos < len(self.source) and self._peek() != "\n":
            if self._peek() == "\r" and self._peek(1) == "\n":
                self._advance()
                break
            self._advance()
        if self.pos < len(self.source):
            self._advance()  # the newline itself

    def _lex_line(self) -> list[Token]:
        out: list[Token] = []
        while True:
            ch = self._peek()
            if ch == "" or ch == "\n" or (ch == "\r" and self._peek(1) == "\n"):
                out.append(self._mark(TokenType.NEWLINE, ""))
                self._skip_to_eol()
                return out
            if ch == "#":
                out.append(self._mark(TokenType.NEWLINE, ""))
                self._skip_to_eol()
                return out
            if ch == " ":
                self._advance()
                continue
            if ch == "\t":
                raise self.error("tabs are not allowed here")
            if ch in _PUNCT:
                start = (self.byte, self.line, self.col)
                self._advance()
                out.append(
                    Token(_PUNCT[ch], ch, start[1], start[2], (start[0], self.byte))
                )
                continue
            if ch == '"':
                out.append(self._lex_string())
                continue
            if ("a" <= ch <= "z") or ("A" <= ch <= "Z") or ch == "_":
                out.append(self._lex_name())
                continue
            raise self.error(f"unexpected character {ch!r}")

    def _lex_name(self) -> Token:
        start_byte, line, col = self.byte, self.line, self.col
        chars = []
        while True:
            ch = self._peek()
            if ("a" <= ch <= "z") or ("A" <= ch <= "Z") or ("0" <= ch <= "9") or ch == "_":
                chars.append(ch)
                self._advance()
            else:
                break
        text = "".join(chars)
        type_ = _KEYWORDS.get(text, TokenType.NAME)
        return Token(type_, text, line, col, (start_byte, self.byte))

    def _lex_string(self) -> Token:
        """Double-quoted string.  Backslash is literal except before a
        backslash or a double quote, so registry paths read naturally."""
        start_byte, line, col = self.byte, self.line, self.col
        self._advance()  # opening quote
        chars = []
        while True:
            ch = self._peek()
            if ch == "" or ch == "\n":
                raise DslSyntaxError("unterminated string", line, col, ('"',))
            if ch == '"':
                self._advance()
                return Token(
                    TokenType.STRING, "".join(chars), line, col, (start_byte, self.byte)
                )
            if ch == "\\" and self._peek(1) in ("\\", '"'):
                chars.append(self._peek(1))
                self._advance(2)
            else:
                chars.append(ch)
                self._advance()


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


def parse(source: Union[str, bytes]) -> AstNode:
    """Parse DSL source into a Module AST.

    Accepts text or UTF-8 bytes; raises :class:`DslSyntaxError` on any
    malformed input, never anything else.
    """
    if isinstance(source, bytes):
        try:
            text = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = source[: exc.start].count(b"\n") + 1
            raise DslSyntaxError("source is not valid UTF-8", line, 1) from None
    else:
        text = source
    tokens = _Lexer(text).tokens()
    total = len(text.encode("utf-8"))
    parser = _Parser(tokens, total)
    return parser.parse_module()
