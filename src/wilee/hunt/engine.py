"""One implementation through the whole hunt: queries scheduled and
executed, hits joined into an evidence graph, and the graph matched
against the implementation.  Bind sites stay symbolic until their query
runs; :func:`execute_all` resolves each against the IOC database."""

from __future__ import annotations

from ..interpreter import ThreatImplementation
from ..stores import DataModel, IocDb
from .graph import build_graph
from .matcher import MatchResult, match
from .proxy import DataProxy, execute_all
from .query import schedule


def evaluate(impl: ThreatImplementation, proxy: DataProxy, db: IocDb, model: DataModel) -> MatchResult:
    descriptors = schedule(impl, model)
    graph = build_graph(execute_all(descriptors, proxy, db), descriptors)
    return match(graph, impl)
