"""Concretize abstract threat descriptions into threat implementations.

An implementation assigns one stored TTP variant to every workflow step;
concretization enumerates the full Cartesian product of matching
variants.  Bind expressions inside the chosen variants can then be
expanded against the IOC database, or left symbolic for the query
engine to resolve when it runs the query.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Optional

from .dsl import (
    AstNode,
    Diagnostic,
    NodeKind,
    Severity,
    ThreatDescription,
    get_node,
    is_technique_id,
    iter_nodes,
    literal,
    module,
    normalize_step,
    replace_node,
)
from .dsl.ast import NodePath
from .stores import IocDb, IocRecord, TtpRecord, TtpStore, resolve_bind, ttps_for_step

#: Hard ceiling on Cartesian expansion; exceeded products abort with a
#: cap-exceeded diagnostic rather than truncating silently.
DEFAULT_COMBINATION_CAP = 10_000

KILLCHAIN_NAME = "full kill-chain"


class EmptyStore(Exception):
    """A kill-chain description cannot be derived from an empty store."""


class BindMode(Enum):
    FIRST = "first"
    ALL = "all"
    UNRESOLVED = "unresolved"


# A bind site is addressed by (step index, node path within the step's
# function AST).  Unresolved sites map to None.
BindSite = tuple[int, NodePath]


@dataclass(frozen=True)
class ImplementationStep:
    step_index: int
    step_name: str
    record: TtpRecord


@dataclass(frozen=True)
class ThreatImplementation:
    description_name: str
    steps: tuple[ImplementationStep, ...]
    resolved_binds: tuple[tuple[BindSite, Optional[IocRecord]], ...] = ()

    # Computed on first access and kept: the fields never change.
    @cached_property
    def impl_id(self) -> str:
        h = hashlib.sha256()
        h.update(self.description_name.encode("utf-8"))
        for step in self.steps:
            h.update(b"\x00" + step.record.record_id.encode("utf-8"))
        for site, record in self.resolved_binds:
            h.update(repr(site).encode("utf-8"))
            h.update(b"\x00" if record is None else record.value.encode("utf-8"))
        return h.hexdigest()[:12]

    @property
    def techniques(self) -> tuple[str, ...]:
        return tuple(step.record.technique_id for step in self.steps)

    def unresolved_sites(self) -> tuple[BindSite, ...]:
        return tuple(site for site, record in self.resolved_binds if record is None)

    def step_ast(self, index: int) -> AstNode:
        """The step's function body with any resolved binds substituted
        by their literal IOC values."""
        fn = self.steps[index].record.ast
        for (step_index, path), record in self.resolved_binds:
            if step_index == index and record is not None:
                fn = replace_node(fn, path, literal(record.value))
        return fn

    def as_module(self) -> AstNode:
        """One function per step, binds substituted where resolved."""
        return module(tuple(self.step_ast(i) for i in range(len(self.steps))))


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


def expand_binds(
    impl: ThreatImplementation,
    db: IocDb,
    mode: BindMode = BindMode.UNRESOLVED,
    cap: int = DEFAULT_COMBINATION_CAP,
) -> list[ThreatImplementation]:
    """Resolve the implementation's bind sites against the IOC database.

    ``FIRST`` takes each site's first candidate; ``ALL`` expands the
    Cartesian product over sites; ``UNRESOLVED`` keeps sites symbolic.
    Sites with no candidates stay unresolved (mapped to None) in every
    mode.
    """
    sites: list[BindSite] = [
        (step.step_index, path) for step in impl.steps for path in bind_sites(step.record.ast)
    ]
    if not sites:
        return [impl]

    if mode is BindMode.UNRESOLVED:
        resolved = tuple((site, None) for site in sites)
        return [replace(impl, resolved_binds=resolved)]

    candidates = [resolve_bind(db, **get_node(impl.steps[i].record.ast, path).attrs) for i, path in sites]
    if mode is BindMode.FIRST:
        resolved = tuple(
            (site, options[0] if options else None)
            for site, options in zip(sites, candidates)
        )
        return [replace(impl, resolved_binds=resolved)]

    option_lists = [options if options else [None] for options in candidates]
    total = 1
    for options in option_lists:
        total *= len(options)
    if total > cap:
        raise ValueError(f"{total} bind combinations exceed the cap of {cap}")
    out = []
    for combo in itertools.product(*option_lists):
        resolved = tuple(zip(sites, combo))
        out.append(replace(impl, resolved_binds=resolved))
    return out


def implementation_from_module(tree: AstNode, name: Optional[str] = None) -> ThreatImplementation:
    """Wrap a module of concrete functions as a one-record-per-step
    implementation (used to seed perturbation from a ``.wdsl`` file)."""
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
    return ThreatImplementation(name or (steps[0].step_name if steps else "empty"), tuple(steps))
