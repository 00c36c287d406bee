"""Canonical pretty printer: the inverse of the parser.

The printed form is deterministic and stable under repeated round
trips: ``pretty_print(parse(s))`` is idempotent, and
``parse(pretty_print(tree)) == tree`` for every grammar-conformant
tree (span-insensitive equality).
"""

from __future__ import annotations

from .ast import (
    AstNode,
    NodeKind,
    RELATION_VERBS,
    VALUE_KINDS,
)
from .vocab import BIND_KEYS, is_identifier, is_literal_text, quote_string, step_identifier

INDENT = "    "


class InvalidAstError(ValueError):
    """The tree violates grammar arity, child-kind, or attr rules."""


def _require(cond: bool, node: AstNode, what: str) -> None:
    if not cond:
        raise InvalidAstError(f"{node.kind.value}: {what}")


def _check_name(node: AstNode, name: str, what: str) -> str:
    _require(is_identifier(name), node, f"{what} {name!r} is not an identifier")
    return name


def _print_value(node: AstNode) -> str:
    if node.kind is NodeKind.LITERAL:
        _require("value" in node.attrs, node, "missing value attr")
        _require(not node.children, node, "literals take no children")
        value = node.attrs["value"]
        _require(is_literal_text(value), node, "literal value must be a string with no line break")
        return quote_string(value)
    if node.kind is NodeKind.BIND_EXPR:
        _require(not node.children, node, "bind takes no children")
        _require("ioc_type" in node.attrs, node, "missing ioc_type attr")
        unknown = set(node.attrs).difference(BIND_KEYS)
        _require(not unknown, node, f"unknown bind attrs {sorted(unknown)}")
        parts = ["ioc_type=" + _check_name(node, node.attrs["ioc_type"], "ioc_type")]
        for key in BIND_KEYS[1:]:
            if key in node.attrs:
                _require(is_literal_text(node.attrs[key]), node, f"{key} must be a string with no line break")
                parts.append(f"{key}={quote_string(node.attrs[key])}")
        return "bind(" + ", ".join(parts) + ")"
    raise InvalidAstError(f"{node.kind.value}: not a value node")


def _ident_name(node: AstNode, parent: AstNode) -> str:
    _require(node.kind is NodeKind.IDENTIFIER, parent, "expected an Identifier child")
    _require(not node.children, node, "identifiers take no children")
    return _check_name(node, node.attrs.get("name", ""), "name")


def _print_statement(node: AstNode) -> str:
    if node.kind is NodeKind.OBJECT_INSTANTIATION:
        _require(not node.children, node, "instantiations take no children")
        var = _check_name(node, node.attrs.get("var", ""), "var")
        cls = _check_name(node, node.attrs.get("class_name", ""), "class name")
        return f"{var} = {cls}()"
    if node.kind is NodeKind.ATTRIBUTE_ASSIGN:
        _require(len(node.children) == 2, node, "needs identifier + value children")
        var = _ident_name(node.children[0], node)
        attr = _check_name(node, node.attrs.get("attribute", ""), "attribute")
        _require(node.children[1].kind in VALUE_KINDS, node, "value must be literal or bind")
        return f"{var}.{attr} = {_print_value(node.children[1])}"
    if node.kind is NodeKind.RELATION_STMT:
        _require(len(node.children) == 2, node, "needs two identifier children")
        verb = node.attrs.get("verb", "")
        _require(verb in RELATION_VERBS, node, f"verb {verb!r} not in {RELATION_VERBS}")
        subj = _ident_name(node.children[0], node)
        obj = _ident_name(node.children[1], node)
        return f"{subj}.{verb}({obj})"
    if node.kind is NodeKind.ABSTRACT_CALL:
        _require(not node.children, node, "calls take no children")
        step = node.attrs.get("step", "")
        ident = step_identifier(step)
        _check_name(node, ident, "step")
        return f"{ident}()"
    raise InvalidAstError(f"{node.kind.value}: not a statement node")


def _print_function(node: AstNode) -> str:
    name = _check_name(node, node.attrs.get("name", ""), "function name")
    lines = [f"def {name}():"]
    if not node.children:
        lines.append(INDENT + "pass")
    for stmt in node.children:
        lines.append(INDENT + _print_statement(stmt))
    return "\n".join(lines)


def pretty_print(tree: AstNode) -> str:
    """Render a Module back to canonical DSL text."""
    _require(tree.kind is NodeKind.MODULE, tree, "pretty_print takes a Module")
    _require(not tree.attrs, tree, "modules carry no attrs")
    for child in tree.children:
        _require(child.kind is NodeKind.FUNCTION_DEF, tree, "module children must be functions")
    if not tree.children:
        return ""
    return "\n\n".join(_print_function(f) for f in tree.children) + "\n"


def pretty_print_node(node: AstNode) -> str:
    """Render any grammar node (used for hashing and diagnostics)."""
    if node.kind is NodeKind.MODULE:
        return pretty_print(node)
    if node.kind is NodeKind.FUNCTION_DEF:
        return _print_function(node) + "\n"
    if node.kind in VALUE_KINDS:
        return _print_value(node)
    if node.kind is NodeKind.IDENTIFIER:
        return _check_name(node, node.attrs.get("name", ""), "name")
    return _print_statement(node)
