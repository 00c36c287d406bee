"""Semantic validation of DSL trees against the grammar and data model.

Validation never raises: problems come back as :class:`Diagnostic`
values.  A tree with zero diagnostics is safe for every downstream
consumer (pretty printer, interpreter, scheduler, genetic operators).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .ast import (
    AstNode,
    CONCRETE_STATEMENT_KINDS,
    NodeKind,
    RELATION_VERBS,
    VALUE_KINDS,
)
from .vocab import BIND_KEYS, IOC_TYPES, is_identifier, is_known_step, is_literal_text, is_technique_id


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    message: str
    code: str
    span: Optional[tuple[int, int]] = None

    def __str__(self) -> str:
        where = f" @bytes {self.span[0]}..{self.span[1]}" if self.span else ""
        return f"{self.severity.value}: {self.message} [{self.code}]{where}"


class _Checker:
    def __init__(self, model):
        self.model = None if model is None else model.variable_sets
        self.out: list[Diagnostic] = []

    def error(self, node: AstNode, message: str, code: str) -> None:
        self.out.append(Diagnostic(Severity.ERROR, message, code, node.span))

    def check_name(self, node: AstNode, name: str, what: str) -> bool:
        if not is_identifier(name):
            self.error(node, f"{what} {name!r} is not a valid identifier", "bad-structure")
            return False
        return True

    def check_module(self, node: AstNode) -> None:
        for child in node.children:
            if child.kind is not NodeKind.FUNCTION_DEF:
                self.error(child, f"module child of kind {child.kind.value}", "bad-structure")
            else:
                self.check_function(child)

    def check_function(self, node: AstNode) -> None:
        self.check_name(node, node.attrs.get("name", ""), "function name")
        kinds = {c.kind for c in node.children}
        if NodeKind.ABSTRACT_CALL in kinds and kinds & CONCRETE_STATEMENT_KINDS:
            self.error(
                node,
                f"function {node.attrs.get('name')!r} mixes abstract calls with "
                "concrete statements",
                "mixed-statements",
            )
        scope: dict[str, str] = {}
        for stmt in node.children:
            self.check_statement(stmt, scope)

    def check_statement(self, stmt: AstNode, scope: dict[str, str]) -> None:
        if stmt.kind is NodeKind.OBJECT_INSTANTIATION:
            self._check_instantiation(stmt, scope)
        elif stmt.kind is NodeKind.ATTRIBUTE_ASSIGN:
            self._check_assign(stmt, scope)
        elif stmt.kind is NodeKind.RELATION_STMT:
            self._check_relation(stmt, scope)
        elif stmt.kind is NodeKind.ABSTRACT_CALL:
            self._check_call(stmt)
        else:
            self.error(stmt, f"statement of kind {stmt.kind.value}", "bad-structure")

    def _check_instantiation(self, stmt: AstNode, scope: dict[str, str]) -> None:
        if stmt.children:
            self.error(stmt, "instantiation takes no children", "bad-structure")
        var = stmt.attrs.get("var", "")
        cls = stmt.attrs.get("class_name", "")
        self.check_name(stmt, var, "object name")
        self.check_name(stmt, cls, "class name")
        if var in scope:
            self.error(stmt, f"duplicate object {var!r}", "duplicate-object")
        if self.model is not None and cls not in self.model:
            self.error(stmt, f"unknown class {cls!r}", "unknown-class")
        scope[var] = cls

    def _object_ref(self, stmt: AstNode, node: AstNode, scope: dict[str, str]) -> Optional[str]:
        if node.kind is not NodeKind.IDENTIFIER:
            self.error(stmt, "expected an identifier", "bad-structure")
            return None
        name = node.attrs.get("name", "")
        if not self.check_name(node, name, "object name"):
            return None
        if name not in scope:
            self.error(node, f"unknown object {name!r}", "unknown-object")
            return None
        return name

    def _check_assign(self, stmt: AstNode, scope: dict[str, str]) -> None:
        if len(stmt.children) != 2:
            self.error(stmt, "assignment needs identifier + value children", "bad-structure")
            return
        var = self._object_ref(stmt, stmt.children[0], scope)
        attr = stmt.attrs.get("attribute", "")
        self.check_name(stmt, attr, "attribute")
        if var is not None and self.model is not None:
            cls = scope[var]
            if cls in self.model and attr not in self.model[cls]:
                self.error(
                    stmt, f"unknown variable {attr!r} on class {cls!r}", "unknown-variable"
                )
        self._check_value(stmt.children[1])

    def _check_value(self, value: AstNode) -> None:
        if value.kind not in VALUE_KINDS:
            self.error(value, f"value of kind {value.kind.value}", "bad-structure")
            return
        if value.children:
            self.error(value, "values take no children", "bad-structure")
        if value.kind is NodeKind.LITERAL:
            if not is_literal_text(value.attrs.get("value")):
                self.error(value, "literal must be a string with no line break", "bad-structure")
        else:
            ioc_type = value.attrs.get("ioc_type", "")
            if ioc_type not in IOC_TYPES:
                self.error(value, f"unknown ioc_type {ioc_type!r}", "unknown-ioc-type")
            unknown = set(value.attrs).difference(BIND_KEYS)
            if unknown:
                self.error(value, f"unknown bind attrs {sorted(unknown)}", "bad-structure")
            technique = value.attrs.get("technique")
            if technique is not None and not (is_literal_text(technique) and is_technique_id(technique)):
                self.error(value, f"malformed technique id {technique!r}", "bad-technique")
            if not is_literal_text(value.attrs.get("pattern", "")):
                self.error(value, "bind pattern must be a string with no line break", "bad-structure")

    def _check_relation(self, stmt: AstNode, scope: dict[str, str]) -> None:
        if len(stmt.children) != 2:
            self.error(stmt, "relation needs two identifier children", "bad-structure")
            return
        verb = stmt.attrs.get("verb", "")
        if verb not in RELATION_VERBS:
            self.error(stmt, f"unknown relation verb {verb!r}", "bad-structure")
        self._object_ref(stmt, stmt.children[0], scope)
        self._object_ref(stmt, stmt.children[1], scope)

    def _check_call(self, stmt: AstNode) -> None:
        if stmt.children:
            self.error(stmt, "calls take no children", "bad-structure")
        step = stmt.attrs.get("step", "")
        if not is_known_step(step):
            self.error(stmt, f"unknown step {step!r}", "unknown-step")


def validate(tree: AstNode, model=None) -> list[Diagnostic]:
    """Check a Module or FunctionDef tree.

    ``model`` is a :class:`wilee.stores.DataModel`, whose
    ``variable_sets`` are read in place, or ``None`` to skip
    model-dependent checks (class and variable resolution).
    """
    checker = _Checker(model)
    if tree.kind is NodeKind.MODULE:
        checker.check_module(tree)
    elif tree.kind is NodeKind.FUNCTION_DEF:
        checker.check_function(tree)
    else:
        checker.error(tree, f"expected Module or FunctionDef, got {tree.kind.value}", "bad-structure")
    return checker.out
