"""Evidence graphs assembled from query results.

A graph is the query hits it was joined from, kept as given, plus the
relation edges.  Each hit of query ``qid`` is the node ``qid:event_id``.
Edges witness a relation between two matched events.  An edge exists
when the log records an explicit link with the relation's verb, or as a
fallback when both events share a host inside a configurable temporal
window.  Edge timestamps are the later of the two endpoints: the moment
the relation is fully witnessed.

Each relation is a band join (DeWitt, Naughton & Schneider, "An
Evaluation of Non-Equijoin Algorithms", VLDB 1991).  The peer results
are indexed once, in one pass: each event id to its one position for the
link path (a hit list holds an event once, since the read rejects a
repeated ``event_id``), and per host the moments in order for the window
path.  Each source then finds its link targets with one lookup per link
and its window targets with two binary searches, so a relation with S
sources, T targets and E edges costs O((S + T) log T + E) rather than
O(S x T).  A source with no candidate costs those two bisects (none
when no target shares its host) and builds no set, list or sort: only a
source with links builds its link set, and only a source with more than
one candidate sorts.  A relation with no sources or no targets builds
no index.

Edges come out in source log order, then target log order, and are
numbered ``e00000``, ``e00001``, ... in that order.  A pair that is both
explicitly linked and inside the window yields one edge of kind
``"link"``.

A relation's join (:func:`join_relation`) reads only its two hit lists,
its verb and the window; the qids and edge ids are labels put on after.
So a hunt joins each relation once, not once per implementation: given a
``joins`` dict, :func:`build_graph` joins a relation whose lists, verb
and window it has not seen and relabels the rows of one it has.  The
hit lists are a proxy's, so the dict is too: :func:`~wilee.hunt.evaluate`
passes ``NdjsonProxy.joins``.  Join work over a hunt is then
O(distinct relations) rather than O(implementations x relations), and
the proxy retains O(their edges), with the hit lists they were joined
from, for its lifetime.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import NamedTuple, Optional

from .proxy import Event
from .query import QueryDescriptor

DEFAULT_WINDOW_SECONDS = 60.0


class GraphEdge(NamedTuple):
    edge_id: str
    qid: str
    peer_qid: str
    verb: str
    source_event: str
    target_event: str
    source_host: str
    target_host: str
    timestamp: datetime
    kind: str  # "link" | "window"


@dataclass(frozen=True)
class EvidenceGraph:
    hits: dict[str, list[Event]]  # qid -> hits, as the join received them
    edges: tuple[GraphEdge, ...]

    def hosts(self) -> list[str]:
        seen = {event.host for events in self.hits.values() for event in events}
        seen.update(e.source_host for e in self.edges)
        seen.update(e.target_host for e in self.edges)
        return sorted(seen)


_MICROSECOND = timedelta(microseconds=1)
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def _micros(moment: datetime) -> int:
    """Exact integer microseconds since the epoch, whatever the offset."""
    return (moment - _EPOCH) // _MICROSECOND


# One relation's edges as the join finds them: a GraphEdge without its
# edge_id, qid and peer_qid, the three labels of one implementation.
Row = tuple[str, str, str, str, str, datetime, str]

# The joins over one proxy's hit lists (``NdjsonProxy.joins``): (id(sources),
# id(targets), verb, window in microseconds) -> (sources, targets, rows).  An entry holds the two lists
# its key names, so no other list can take their ids while it lives.
Joins = dict[tuple[int, int, str, int], tuple[list[Event], list[Event], list[Row]]]


def join_relation(sources: list[Event], targets: list[Event], verb: str, window_us: int) -> list[Row]:
    """The rows of one relation from ``sources`` to ``targets``, in source
    log order, then target log order; both lists are non-empty."""
    by_id: dict[str, int] = {}
    buckets: dict[str, list[tuple[int, int]]] = {}
    for pos, target in enumerate(targets):
        by_id[target.event_id] = pos
        buckets.setdefault(target.host, []).append((_micros(target.moment), pos))
    # Per host, the moments in ascending order beside their positions
    # (ties in position order).
    by_host: dict[str, tuple[list[int], list[int]]] = {}
    for host, pairs in buckets.items():
        pairs.sort()
        by_host[host] = ([m for m, _ in pairs], [p for _, p in pairs])
    rows: list[Row] = []
    for source in sources:
        bucket = by_host.get(source.host)
        if bucket is None:
            lo = hi = 0
        else:
            moments, positions = bucket
            t = _micros(source.moment)
            lo = bisect_left(moments, t - window_us)
            hi = bisect_right(moments, t + window_us)
        linked = (
            {
                pos
                for link_verb, event_id in source.links
                if link_verb == verb and (pos := by_id.get(event_id)) is not None
            }
            if source.links
            else None
        )
        if lo < hi:
            candidates = positions[lo:hi]
            if linked:
                candidates = sorted(linked.union(candidates))
            elif hi - lo > 1:
                candidates.sort()
        elif linked:
            candidates = sorted(linked)
        else:
            continue
        for pos in candidates:
            target = targets[pos]
            if linked and pos in linked:
                kind = "link"
            elif target.event_id != source.event_id:
                kind = "window"
            else:
                continue
            rows.append(
                (
                    verb,
                    source.event_id,
                    target.event_id,
                    source.host,
                    target.host,
                    max(source.moment, target.moment),
                    kind,
                )
            )
    return rows


def build_graph(
    results: dict[str, list[Event]],
    descriptors: list[QueryDescriptor],
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
    joins: Optional[Joins] = None,
) -> EvidenceGraph:
    """Join the TTP-labelled relation edges of per-descriptor query
    results; the graph keeps ``results`` itself as its hits.

    A relation whose two hit lists, verb and window are already in
    ``joins`` reuses its rows, and a new one is added.  The dict belongs
    with the proxy the hits came from, whose lists never change
    (``NdjsonProxy.joins``); with none, rows are shared only within this
    graph."""
    if joins is None:
        joins = {}
    window_us = timedelta(seconds=window_seconds) // _MICROSECOND
    edges: list[GraphEdge] = []
    for q in descriptors:
        sources = results.get(q.qid)
        for rel in q.relations:
            targets = results.get(rel.peer_qid)
            if not sources or not targets:
                continue
            key = (id(sources), id(targets), rel.verb, window_us)
            if key not in joins:
                joins[key] = (sources, targets, join_relation(sources, targets, rel.verb, window_us))
            rows = joins[key][2]
            qid, peer_qid = q.qid, rel.peer_qid
            edges.extend(GraphEdge(f"e{n:05d}", qid, peer_qid, *row) for n, row in enumerate(rows, len(edges)))
    return EvidenceGraph(results, tuple(edges))
