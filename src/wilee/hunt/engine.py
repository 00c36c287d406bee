"""One implementation through the whole hunt: bind sites stamped
symbolic, queries scheduled and executed, hits joined into an evidence
graph, and the graph matched against the implementation."""

from __future__ import annotations

from ..interpreter import BindMode, ThreatImplementation, expand_binds
from ..stores import DataModel, IocDb
from .graph import build_graph
from .matcher import MatchResult, match
from .proxy import DataProxy, execute_all
from .query import schedule


def evaluate(impl: ThreatImplementation, proxy: DataProxy, db: IocDb, model: DataModel) -> MatchResult:
    (impl,) = expand_binds(impl, db, BindMode.UNRESOLVED)
    descriptors = schedule(impl, model)
    graph = build_graph(execute_all(descriptors, proxy, db), descriptors)
    return match(graph, impl)
