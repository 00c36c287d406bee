"""AST node types for the threat-description DSL.

The DSL is a restricted, Pythonic surface syntax that is never executed;
programs are parsed into trees of :class:`AstNode` and consumed
declaratively.  Nodes are immutable: transformations (the genetic
operators, bind substitution) build new trees via :func:`replace_node`.

Equality between nodes is structural and ignores source spans, so a
parsed tree compares equal to a synthesized one with the same shape.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional


class NodeKind(Enum):
    MODULE = "Module"
    FUNCTION_DEF = "FunctionDef"
    OBJECT_INSTANTIATION = "ObjectInstantiation"
    ATTRIBUTE_ASSIGN = "AttributeAssign"
    RELATION_STMT = "RelationStmt"
    ABSTRACT_CALL = "AbstractCall"
    LITERAL = "Literal"
    BIND_EXPR = "BindExpr"
    IDENTIFIER = "Identifier"


#: Relation verbs admitted by the grammar.
RELATION_VERBS = ("has", "observed")

#: Kinds that may appear in a concrete TTP function body.
CONCRETE_STATEMENT_KINDS = frozenset(
    {
        NodeKind.OBJECT_INSTANTIATION,
        NodeKind.ATTRIBUTE_ASSIGN,
        NodeKind.RELATION_STMT,
    }
)

#: Kinds that can be the value of an attribute assignment.
VALUE_KINDS = frozenset({NodeKind.LITERAL, NodeKind.BIND_EXPR})

# Path into a tree: child indices from the root.
NodePath = tuple[int, ...]


@dataclass(frozen=True)
class AstNode:
    """One node of the parse tree.

    ``attrs`` holds the scalar payload (names, verbs, literal text);
    ``children`` holds sub-nodes in source order.  ``span`` is the
    half-open byte range in the original source and is ``None`` for
    synthesized nodes; it never participates in equality.
    """

    kind: NodeKind
    children: tuple["AstNode", ...] = ()
    attrs: dict[str, str] = field(default_factory=dict)
    span: Optional[tuple[int, int]] = field(default=None, compare=False)

    def with_children(self, children: tuple["AstNode", ...]) -> "AstNode":
        return AstNode(self.kind, children, dict(self.attrs), self.span)


# ---------------------------------------------------------------------------
# Constructors.  These are the supported way to synthesize nodes; they keep
# attrs keys consistent so structural equality with parsed trees works.
# ---------------------------------------------------------------------------


def module(functions: tuple[AstNode, ...] = (), span=None) -> AstNode:
    return AstNode(NodeKind.MODULE, functions, {}, span)


def function_def(name: str, body: tuple[AstNode, ...] = (), span=None) -> AstNode:
    return AstNode(NodeKind.FUNCTION_DEF, body, {"name": name}, span)


def instantiation(var: str, class_name: str, span=None) -> AstNode:
    return AstNode(
        NodeKind.OBJECT_INSTANTIATION, (), {"var": var, "class_name": class_name}, span
    )


def identifier(name: str, span=None) -> AstNode:
    return AstNode(NodeKind.IDENTIFIER, (), {"name": name}, span)


def attribute_assign(var: str, attribute: str, value: AstNode, span=None) -> AstNode:
    return AstNode(
        NodeKind.ATTRIBUTE_ASSIGN,
        (identifier(var), value),
        {"attribute": attribute},
        span,
    )


def relation(subject: str, verb: str, obj: str, span=None) -> AstNode:
    return AstNode(
        NodeKind.RELATION_STMT,
        (identifier(subject), identifier(obj)),
        {"verb": verb},
        span,
    )


def abstract_call(step: str, span=None) -> AstNode:
    """``step`` is the normalized step name, e.g. ``T1552.002`` or
    ``credential-access`` (see :mod:`wilee.dsl.vocab` for the mapping
    to and from DSL identifiers)."""
    return AstNode(NodeKind.ABSTRACT_CALL, (), {"step": step}, span)


def literal(value: str, span=None) -> AstNode:
    return AstNode(NodeKind.LITERAL, (), {"value": value}, span)


def bind(
    ioc_type: str,
    technique: Optional[str] = None,
    pattern: Optional[str] = None,
    span=None,
) -> AstNode:
    attrs = {"ioc_type": ioc_type}
    if technique is not None:
        attrs["technique"] = technique
    if pattern is not None:
        attrs["pattern"] = pattern
    return AstNode(NodeKind.BIND_EXPR, (), attrs, span)


# ---------------------------------------------------------------------------
# Tree navigation
# ---------------------------------------------------------------------------


def iter_nodes(root: AstNode, path: NodePath = ()) -> Iterator[tuple[NodePath, AstNode]]:
    """Pre-order walk yielding (path, node) pairs, root first."""
    yield path, root
    for i, child in enumerate(root.children):
        yield from iter_nodes(child, path + (i,))


def get_node(root: AstNode, path: NodePath) -> AstNode:
    node = root
    for i in path:
        node = node.children[i]
    return node


def replace_node(root: AstNode, path: NodePath, new: AstNode) -> AstNode:
    """Return a copy of ``root`` with the node at ``path`` replaced."""
    if not path:
        return new
    i, rest = path[0], path[1:]
    children = list(root.children)
    children[i] = replace_node(children[i], rest, new)
    return root.with_children(tuple(children))


def tree_depth(root: AstNode) -> int:
    if not root.children:
        return 1
    return 1 + max(tree_depth(c) for c in root.children)


def content_hash(node: AstNode) -> str:
    """Stable hash of a node's structure (span-insensitive).

    Hashes the canonical pretty-printed text so two trees that print
    identically share a hash.
    """
    from .printer import pretty_print_node

    return text_hash(pretty_print_node(node))


def text_hash(text: str) -> str:
    """The :func:`content_hash` of a tree whose canonical text is ``text``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
