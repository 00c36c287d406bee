"""Backend-agnostic query descriptors compiled from implementations.

One descriptor is emitted per instantiated object per workflow step.
Predicates come from attribute assignments (glob when the value carries
a ``*``), relation entries from relation statements.  Descriptors carry
stable ids so evidence can be traced back to the implementation that
asked for it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Union

from ..dsl import NodeKind
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
    peer_class: str
    peer_qid: str


@dataclass(frozen=True)
class QueryDescriptor:
    qid: str
    entity_class: str
    object_var: str
    predicates: tuple[Predicate, ...]
    relations: tuple[RelationRef, ...]
    step_index: int
    impl_id: str
    technique_id: str


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


def schedule(impl: ThreatImplementation, model: DataModel) -> list[QueryDescriptor]:
    """Compile an implementation into query descriptors, ordered by step
    then object declaration order.

    Raises :class:`UnknownClass` / :class:`UnknownVariable` on names the
    data model cannot resolve; validated implementations never trigger
    either.
    """
    descriptors: list[QueryDescriptor] = []
    for step in impl.steps:
        classes: dict[str, str] = {}
        order: list[str] = []
        predicates: dict[str, list[Predicate]] = {}
        relations: dict[str, list[RelationRef]] = {}
        for stmt in step.record.ast.children:
            if stmt.kind is NodeKind.OBJECT_INSTANTIATION:
                var, cls = stmt.attrs["var"], stmt.attrs["class_name"]
                if cls not in model.variables_by_class:
                    raise UnknownClass(f"class {cls!r} not in data model")
                classes[var] = cls
                order.append(var)
                predicates[var] = []
                relations[var] = []
            elif stmt.kind is NodeKind.ATTRIBUTE_ASSIGN:
                var = stmt.children[0].attrs["name"]
                attribute = stmt.attrs["attribute"]
                if var not in classes:
                    raise UnknownVariable(f"object {var!r} never instantiated")
                if attribute not in model.variables_by_class[classes[var]]:
                    raise UnknownVariable(
                        f"variable {attribute!r} not on class {classes[var]!r}"
                    )
                predicates[var].append(_value_predicate(attribute, stmt.children[1]))
            elif stmt.kind is NodeKind.RELATION_STMT:
                subj = stmt.children[0].attrs["name"]
                obj = stmt.children[1].attrs["name"]
                if subj not in classes or obj not in classes:
                    raise UnknownVariable("relation references an unknown object")
                relations[subj].append(
                    RelationRef(
                        verb=stmt.attrs["verb"],
                        peer_class=classes[obj],
                        peer_qid=make_qid(impl.impl_id, step.step_index, obj),
                    )
                )
        for var in order:
            descriptors.append(
                QueryDescriptor(
                    qid=make_qid(impl.impl_id, step.step_index, var),
                    entity_class=classes[var],
                    object_var=var,
                    predicates=tuple(predicates[var]),
                    relations=tuple(relations[var]),
                    step_index=step.step_index,
                    impl_id=impl.impl_id,
                    technique_id=step.record.technique_id,
                )
            )
    return descriptors
