"""Concretize abstract threat descriptions into threat implementations.

An implementation assigns one stored TTP variant to every workflow step;
concretization enumerates the full Cartesian product of matching
variants.  Bind expressions inside the chosen variants stay symbolic:
the query engine resolves each one against the IOC database when it
runs the query (:mod:`wilee.hunt.proxy`).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from functools import cached_property

from .dsl import (
    AstNode,
    Diagnostic,
    NodeKind,
    NodePath,
    Severity,
    ThreatDescription,
    is_technique_id,
    iter_nodes,
    normalize_step,
)
from .stores import TtpRecord, TtpStore, ttps_for_step

#: Hard ceiling on Cartesian expansion; exceeded products abort with a
#: cap-exceeded diagnostic rather than truncating silently.
DEFAULT_COMBINATION_CAP = 10_000

KILLCHAIN_NAME = "full kill-chain"


class EmptyStore(Exception):
    """A kill-chain description cannot be derived from an empty store."""


@dataclass(frozen=True)
class ImplementationStep:
    step_index: int
    step_name: str
    record: TtpRecord


@dataclass(frozen=True)
class ThreatImplementation:
    description_name: str
    steps: tuple[ImplementationStep, ...]

    # Computed on first access and kept: the fields never change.
    @cached_property
    def impl_id(self) -> str:
        """The description name, each step's record id, then each bind
        site as ``(step index, node path)``, hashed."""
        h = hashlib.sha256()
        h.update(self.description_name.encode("utf-8"))
        for step in self.steps:
            h.update(b"\x00" + step.record.record_id.encode("utf-8"))
        for step in self.steps:
            for path in bind_sites(step.record.ast):
                h.update(repr((step.step_index, path)).encode("utf-8") + b"\x00")
        return h.hexdigest()[:12]

    @property
    def techniques(self) -> tuple[str, ...]:
        return tuple(step.record.technique_id for step in self.steps)


@dataclass(frozen=True)
class ConcretizeResult:
    implementations: tuple[ThreatImplementation, ...]
    diagnostics: tuple[Diagnostic, ...] = ()


def bind_sites(fn: AstNode) -> list[NodePath]:
    """Paths of every BindExpr in a function AST, in source order."""
    return [path for path, node in iter_nodes(fn) if node.kind is NodeKind.BIND_EXPR]


def concretize(
    desc: ThreatDescription,
    store: TtpStore,
    cap: int = DEFAULT_COMBINATION_CAP,
) -> ConcretizeResult:
    """Cartesian product of matching TTP variants over the description's
    steps.  The result is empty, with a diagnostic naming the step, when
    any step has no matching variant; it is empty with a cap-exceeded
    diagnostic when the product would exceed ``cap``."""
    per_step: list[list[TtpRecord]] = []
    diagnostics: list[Diagnostic] = []
    for i, step in enumerate(desc.steps):
        matches = ttps_for_step(store, step)
        if not matches:
            diagnostics.append(
                Diagnostic(
                    Severity.ERROR,
                    f"step {i} ({step.attrs['step']}) matches no stored TTP",
                    "empty-step",
                    step.span,
                )
            )
        per_step.append(matches)
    if diagnostics:
        return ConcretizeResult((), tuple(diagnostics))

    total = 1
    for matches in per_step:
        total *= len(matches)
    if total > cap:
        return ConcretizeResult(
            (),
            (
                Diagnostic(
                    Severity.ERROR,
                    f"{total} combinations exceed the cap of {cap}",
                    "cap-exceeded",
                ),
            ),
        )

    implementations = tuple(
        ThreatImplementation(
            description_name=desc.name,
            steps=tuple(
                ImplementationStep(i, desc.steps[i].attrs["step"], record)
                for i, record in enumerate(combo)
            ),
        )
        for combo in itertools.product(*per_step)
    )
    return ConcretizeResult(implementations)


def default_killchain(store: TtpStore) -> ThreatDescription:
    """Description covering every tactic present in the store, in
    canonical kill-chain order."""
    if not store.records:
        raise EmptyStore("cannot derive a kill-chain from an empty TTP store")
    tactics = store.tactics_present()
    if not tactics:
        raise EmptyStore("no records carry a known tactic tag")
    return ThreatDescription.from_steps(KILLCHAIN_NAME, tactics)


def implementation_from_module(tree: AstNode) -> ThreatImplementation:
    """Wrap a module of concrete functions as a one-record-per-step
    implementation (how gpe hunts with each of its candidates)."""
    steps = []
    for i, fn in enumerate(tree.children):
        technique = normalize_step(fn.attrs.get("name", ""))
        record = TtpRecord(
            technique_id=technique if is_technique_id(technique) else "T0000",
            tactic_tags=(),
            source="SME",
            ast=fn,
        )
        steps.append(ImplementationStep(i, technique, record))
    return ThreatImplementation(steps[0].step_name if steps else "empty", tuple(steps))
