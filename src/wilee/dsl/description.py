"""Abstract threat descriptions: ordered workflows of TTP-level steps."""

from __future__ import annotations

from dataclasses import dataclass

from .ast import AstNode, NodeKind, abstract_call
from .vocab import is_known_step


class DescriptionError(ValueError):
    """A module or function cannot be read as a threat description."""


@dataclass(frozen=True)
class ThreatDescription:
    """A named workflow whose steps are AbstractCall nodes, each naming
    a technique id (``T1552.002``) or a tactic (``credential-access``)."""

    name: str
    steps: tuple[AstNode, ...]

    def __post_init__(self):
        for step in self.steps:
            if step.kind is not NodeKind.ABSTRACT_CALL:
                raise DescriptionError(f"step of kind {step.kind.value} is not an abstract call")
            if not is_known_step(step.attrs.get("step", "")):
                raise DescriptionError(f"unknown step {step.attrs.get('step')!r}")

    @classmethod
    def from_steps(cls, name: str, steps: list[str]) -> "ThreatDescription":
        return cls(name, tuple(abstract_call(s) for s in steps))

    @classmethod
    def from_function(cls, fn: AstNode) -> "ThreatDescription":
        if fn.kind is not NodeKind.FUNCTION_DEF:
            raise DescriptionError("a threat description must be a function definition")
        for stmt in fn.children:
            if stmt.kind is not NodeKind.ABSTRACT_CALL:
                raise DescriptionError(
                    f"function {fn.attrs.get('name')!r} contains concrete statements; "
                    "a threat description holds only bare step calls"
                )
        return cls(fn.attrs["name"], fn.children)

    @classmethod
    def from_module(cls, tree: AstNode) -> "ThreatDescription":
        if tree.kind is not NodeKind.MODULE or not tree.children:
            raise DescriptionError("expected a module with at least one function")
        return cls.from_function(tree.children[0])
