"""One implementation through the whole hunt: the queries its caller
scheduled are executed, their hits joined into an evidence graph, and
the graph matched against the implementation.  Bind sites stay symbolic
until their query runs; :func:`execute_all` resolves each against the
IOC database.

A hunt, and a perturb run's fitness, pass one ``joins`` dict to every
:func:`evaluate` over one proxy, so implementations that share a step
variant share its join: a relation is joined once per distinct (source
hits, target hits, verb), and only its labels are per implementation.
The dict keeps every such join's rows, and the hit lists it keys on,
until the command drops it."""

from __future__ import annotations

from typing import Optional

from ..interpreter import ThreatImplementation
from ..stores import IocDb
from .graph import Joins, build_graph
from .matcher import MatchResult, match
from .proxy import NdjsonProxy, execute_all
from .query import QueryDescriptor


def evaluate(
    impl: ThreatImplementation,
    descriptors: list[QueryDescriptor],
    proxy: NdjsonProxy,
    db: IocDb,
    joins: Optional[Joins] = None,
) -> MatchResult:
    """Match ``impl`` against the hits of ``descriptors``, its queries as
    :func:`~wilee.hunt.schedule` gives them; ``joins`` is passed to
    :func:`~wilee.hunt.build_graph`."""
    graph = build_graph(execute_all(descriptors, proxy, db), descriptors, joins=joins)
    return match(graph, impl, descriptors)
