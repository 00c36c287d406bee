"""Hunt engine: query scheduling, execution, evidence graphs, matching,
and reporting.  :func:`evaluate` runs one implementation through all of
them."""

from .engine import evaluate
from .graph import DEFAULT_WINDOW_SECONDS, EvidenceGraph, GraphEdge, build_graph
from .matcher import MatchResult, Obligation, match
from .proxy import (
    Event,
    NdjsonProxy,
    ProxyUnavailable,
    execute_all,
    memo_key,
    parse_rfc3339,
)
from .query import (
    BindSpec,
    Predicate,
    QueryDescriptor,
    RelationRef,
    UnknownClass,
    UnknownVariable,
    make_qid,
    schedule,
)
from .report import REPORT_FORMATS, render_report, result_to_json

__all__ = [
    "evaluate",
    "DEFAULT_WINDOW_SECONDS",
    "EvidenceGraph",
    "GraphEdge",
    "build_graph",
    "MatchResult",
    "Obligation",
    "match",
    "Event",
    "NdjsonProxy",
    "ProxyUnavailable",
    "execute_all",
    "memo_key",
    "parse_rfc3339",
    "BindSpec",
    "Predicate",
    "QueryDescriptor",
    "RelationRef",
    "UnknownClass",
    "UnknownVariable",
    "make_qid",
    "schedule",
    "REPORT_FORMATS",
    "render_report",
    "result_to_json",
]
