"""Backend-agnostic query descriptors compiled from implementations.

One descriptor is emitted per instantiated object per workflow step.
Predicates come from attribute assignments (glob when the value carries
a ``*``), relation entries from relation statements, each with its rank
among its step's relation statements.  Descriptors carry stable ids so
evidence can be traced back to the implementation that asked for it.

:func:`read_body` is the one walk over a TTP body's statements.  The
scheduler and malmo's relation priors read a body through it; the
matcher reads its obligations from the schedule's descriptors, so a
hunt reads each step's body once, and gpe counts a candidate's behavior
from the same schedule its fitness hunts with.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Union

from ..dsl import AstNode, NodeKind
from ..interpreter import ThreatImplementation
from ..stores import DataModel


class UnknownClass(Exception):
    pass


class UnknownVariable(Exception):
    pass


@dataclass(frozen=True)
class BindSpec:
    """Symbolic IOC lookup carried inside a predicate until its query runs."""

    ioc_type: str
    technique: Optional[str] = None
    pattern: Optional[str] = None


@dataclass(frozen=True)
class Predicate:
    variable: str
    op: str  # "eq" | "glob"
    value: Union[str, BindSpec]


@dataclass(frozen=True)
class RelationRef:
    verb: str
    peer_qid: str
    statement: int  # rank among the step's relation statements


@dataclass(frozen=True)
class QueryDescriptor:
    qid: str
    entity_class: str
    object_var: str
    predicates: tuple[Predicate, ...]
    relations: tuple[RelationRef, ...]
    step_index: int
    impl_id: str


def make_qid(impl_id: str, step_index: int, var: str) -> str:
    digest = hashlib.sha256(f"{impl_id}/{step_index}/{var}".encode("utf-8")).hexdigest()
    return digest[:12]


def _value_predicate(variable: str, node) -> Predicate:
    if node.kind is NodeKind.LITERAL:
        value = node.attrs["value"]
        op = "glob" if "*" in value else "eq"
        return Predicate(variable, op, value)
    spec = BindSpec(**node.attrs)
    op = "glob" if (spec.pattern and "*" in spec.pattern) else "eq"
    return Predicate(variable, op, spec)


# Object name -> (class name, predicates), in declaration order.
Objects = dict[str, tuple[str, list[Predicate]]]


def read_body(fn: AstNode) -> tuple[Objects, list[tuple[str, str, str]]]:
    """Read a function body once: each object's ``(class, predicates)`` in
    declaration order, and each relation statement as ``(subject, verb,
    object)`` in statement order.

    Raises :class:`UnknownVariable` for an object used before it is
    instantiated; class and variable names are not checked here.
    """
    objects: Objects = {}
    relations: list[tuple[str, str, str]] = []
    for stmt in fn.children:
        if stmt.kind is NodeKind.OBJECT_INSTANTIATION:
            objects[stmt.attrs["var"]] = (stmt.attrs["class_name"], [])
        elif stmt.kind is NodeKind.ATTRIBUTE_ASSIGN:
            var = stmt.children[0].attrs["name"]
            if var not in objects:
                raise UnknownVariable(f"object {var!r} never instantiated")
            objects[var][1].append(_value_predicate(stmt.attrs["attribute"], stmt.children[1]))
        elif stmt.kind is NodeKind.RELATION_STMT:
            subj, obj = (child.attrs["name"] for child in stmt.children)
            if subj not in objects or obj not in objects:
                raise UnknownVariable("relation references an unknown object")
            relations.append((subj, stmt.attrs["verb"], obj))
    return objects, relations


def schedule(impl: ThreatImplementation, model: DataModel) -> list[QueryDescriptor]:
    """Compile an implementation into query descriptors, ordered by step
    then object declaration order.

    Raises :class:`UnknownClass` / :class:`UnknownVariable` on names the
    data model cannot resolve; validated implementations never trigger
    either.  :func:`read_body`'s faults come first, then each object's
    class and then its variables, in declaration order.
    """
    descriptors: list[QueryDescriptor] = []
    for step in impl.steps:
        objects, statements = read_body(step.record.ast)
        qids = {var: make_qid(impl.impl_id, step.step_index, var) for var in objects}
        relations: dict[str, list[RelationRef]] = {var: [] for var in objects}
        for statement, (subj, verb, obj) in enumerate(statements):
            relations[subj].append(RelationRef(verb, qids[obj], statement))
        for var, (cls, predicates) in objects.items():
            variables = model.variables_by_class.get(cls)
            if variables is None:
                raise UnknownClass(f"class {cls!r} not in data model")
            for predicate in predicates:
                if predicate.variable not in variables:
                    raise UnknownVariable(f"variable {predicate.variable!r} not on class {cls!r}")
            descriptors.append(
                QueryDescriptor(
                    qid=qids[var],
                    entity_class=cls,
                    object_var=var,
                    predicates=tuple(predicates),
                    relations=tuple(relations[var]),
                    step_index=step.step_index,
                    impl_id=impl.impl_id,
                )
            )
    return descriptors
