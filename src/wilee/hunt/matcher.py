"""The match algorithm: decide whether an evidence graph confirms an
implementation.

Per step, every relation statement is an obligation needing a
supporting edge, and every object with no relations needs at least one
node.  The obligations are read from the schedule's descriptors, not
from the bodies again: each relation carries its rank among its step's
relation statements.  Across steps a witness must exist on a single
host whose per-step earliest witnessing timestamps are non-decreasing
(ties allowed).  The score is the satisfied fraction of obligations
under the best such witness, so a score of 1.0 and confirmation
coincide.

The search keeps, per host, the Pareto frontier of (time floor,
obligations satisfied) states across steps.  Within a step, satisfying
every obligation that has a supporting item at or after the floor, each
at its earliest such item, dominates any partial choice: it maximizes
the count and minimizes the step's earliest-witness timestamp, which is
all the non-decreasing constraint sees.  The only real branch is
engaging a step versus skipping it entirely, which the frontier tracks.

Supports are indexed once per graph, by host and then obligation, so
indexing costs O((N + E) log(N + E)) for N nodes and E edges whatever
the host count, and each earliest-item pick is one binary search.  An
edge is filed by its own host fields: under its source host, and under
its target host too when that differs.  A node support is read straight
from the graph's hit lists, and only for the queries a node obligation
names: hit ``event`` of query ``qid`` is the node ``qid:event_id`` at
the event's moment.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

from ..interpreter import ThreatImplementation
from .graph import EvidenceGraph
from .query import QueryDescriptor

_FLOOR_START = datetime.min.replace(tzinfo=timezone.utc)


@dataclass(frozen=True)
class Obligation:
    step_index: int
    kind: str  # "relation" | "node"
    label: str  # human-readable, for reports
    key: tuple  # ("relation", qid, peer_qid, verb) or ("node", qid)


@dataclass(frozen=True)
class MatchResult:
    impl_id: str
    description_name: str
    techniques: tuple[str, ...]
    confirmed: bool
    score: float
    step_scores: tuple[float, ...]
    witness: tuple[str, ...]
    step_witness: tuple[tuple[str, ...], ...]
    host: Optional[str] = None


def _obligations(impl: ThreatImplementation, descriptors: list[QueryDescriptor]) -> list[list[Obligation]]:
    """Per-step obligations: one per relation statement, in statement
    order, then one node obligation per object that no relation touches,
    in declaration order."""
    var_of = {q.qid: q.object_var for q in descriptors}
    per_step: list[list[Obligation]] = [[] for _ in impl.steps]
    related: set[str] = set()
    pairs = sorted(
        ((q, rel) for q in descriptors for rel in q.relations),
        key=lambda pair: (pair[0].step_index, pair[1].statement),
    )
    for q, rel in pairs:
        label = f"{q.object_var}.{rel.verb}({var_of[rel.peer_qid]})"
        per_step[q.step_index].append(
            Obligation(q.step_index, "relation", label, ("relation", q.qid, rel.peer_qid, rel.verb))
        )
        related.update((q.qid, rel.peer_qid))
    for q in descriptors:
        if q.qid not in related:
            per_step[q.step_index].append(Obligation(q.step_index, "node", q.object_var, ("node", q.qid)))
    return per_step


def _support_index(
    graph: EvidenceGraph, node_qids: set[str]
) -> dict[str, dict[tuple, list[tuple[datetime, str]]]]:
    """Host -> obligation key -> (timestamp, item id) support, sorted by
    time then id, built in one pass over the edges and the hits of
    ``node_qids``.  An edge between two hosts supports both."""
    index: dict[str, dict[tuple, list[tuple[datetime, str]]]] = {}
    for edge in graph.edges:
        key = ("relation", edge.qid, edge.peer_qid, edge.verb)
        item = (edge.timestamp, edge.edge_id)
        index.setdefault(edge.source_host, {}).setdefault(key, []).append(item)
        if edge.target_host != edge.source_host:
            index.setdefault(edge.target_host, {}).setdefault(key, []).append(item)
    for qid in node_qids:
        for event in graph.hits.get(qid, ()):
            index.setdefault(event.host, {}).setdefault(("node", qid), []).append(
                (event.moment, f"{qid}:{event.event_id}")
            )
    for by_key in index.values():
        for items in by_key.values():
            items.sort()
    return index


@dataclass(frozen=True)
class _State:
    floor: datetime
    count: int
    trace: tuple[tuple[str, ...], ...]  # per step, chosen item ids


def _advance(
    state: _State,
    obligations: list[Obligation],
    index: dict[tuple, list[tuple[datetime, str]]],
) -> _State:
    chosen: list[str] = []
    step_min: Optional[datetime] = None
    for obligation in obligations:
        items = index.get(obligation.key, ())
        at = bisect_left(items, (state.floor,))  # first item at or after the floor
        if at == len(items):
            continue
        pick = items[at]
        chosen.append(pick[1])
        step_min = pick[0] if step_min is None else min(step_min, pick[0])
    new_floor = step_min if step_min is not None else state.floor
    return _State(new_floor, state.count + len(chosen), state.trace + (tuple(chosen),))


def _prune(states: list[_State]) -> list[_State]:
    states.sort(key=lambda s: (s.floor, -s.count))
    kept: list[_State] = []
    best = -1
    for state in states:
        if state.count > best:
            kept.append(state)
            best = state.count
    return kept


def _best_for_host(
    per_step: list[list[Obligation]], index: dict[tuple, list[tuple[datetime, str]]]
) -> _State:
    states = [_State(_FLOOR_START, 0, ())]
    for obligations in per_step:
        nxt = []
        for state in states:
            # Skip the step outright, or engage everything satisfiable.
            nxt.append(_State(state.floor, state.count, state.trace + ((),)))
            nxt.append(_advance(state, obligations, index))
        states = _prune(nxt)
    # Counts strictly increase along the pruned frontier, so its last state
    # alone has the highest count, at the lowest floor that reaches it.
    return states[-1]


def match(graph: EvidenceGraph, impl: ThreatImplementation, descriptors: list[QueryDescriptor]) -> MatchResult:
    """Match ``impl`` against ``graph``, with its obligations read from
    ``descriptors``, its queries as :func:`~wilee.hunt.schedule` gives
    them; ``impl`` gives only the result's header and the step count."""
    per_step = _obligations(impl, descriptors)
    total = sum(len(obligations) for obligations in per_step)

    # No host yet: a host replaces the best only with a strictly higher count.
    best = _State(_FLOOR_START, 0, tuple(() for _ in per_step))
    best_host: Optional[str] = None
    node_qids = {o.key[1] for obligations in per_step for o in obligations if o.kind == "node"}
    by_host = _support_index(graph, node_qids)
    for host in sorted(by_host):
        state = _best_for_host(per_step, by_host[host])
        if state.count > best.count:
            best, best_host = state, host

    # A step with no obligations is met, unless the implementation
    # asserts nothing at all: then it is never confirmed.
    step_scores = tuple(
        len(chosen) / len(obligations) if obligations else (1.0 if total else 0.0)
        for chosen, obligations in zip(best.trace, per_step)
    )
    score = best.count / total if total else 0.0
    return MatchResult(
        impl_id=impl.impl_id,
        description_name=impl.description_name,
        techniques=impl.techniques,
        confirmed=score == 1.0,
        score=score,
        step_scores=step_scores,
        witness=tuple(item for chosen in best.trace for item in chosen),
        step_witness=best.trace,
        host=best_host,
    )
