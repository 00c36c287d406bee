"""One implementation through the whole hunt: the queries its caller
scheduled are executed, their hits joined into an evidence graph, and
the graph matched against the implementation.  Bind sites stay symbolic
until their query runs; :func:`execute_all` resolves each against the
IOC database.

Every :func:`evaluate` over one proxy joins through that proxy's
``joins``, so implementations that share a step variant share its join:
a relation is joined once per distinct (source hits, target hits,
verb), and only its labels are per implementation.  The proxy keeps
every such join's rows, beside the hit lists it keys on, until it is
dropped."""

from __future__ import annotations

from ..interpreter import ThreatImplementation
from ..stores import IocDb
from .graph import build_graph
from .matcher import MatchResult, match
from .proxy import NdjsonProxy, execute_all
from .query import QueryDescriptor


def evaluate(
    impl: ThreatImplementation,
    descriptors: list[QueryDescriptor],
    proxy: NdjsonProxy,
    db: IocDb,
) -> MatchResult:
    """Match ``impl`` against the hits of ``descriptors``, its queries as
    :func:`~wilee.hunt.schedule` gives them, joined through
    ``proxy.joins``."""
    graph = build_graph(execute_all(descriptors, proxy, db), descriptors, joins=proxy.joins)
    return match(graph, impl, descriptors)
