"""Behavior descriptors and distances for novelty search.

A candidate's behavior is the observable consequence of its tree: the
multiset of (entity class, variable, predicate op) signatures of the
queries its schedule asks of the log, plus relation verb counts.  It is
counted from the same descriptors its fitness hunts with, so a body is
read once for both.  Distance is multiset Jaccard, which degrades to
plain set Jaccard when every signature occurs once.
"""

from __future__ import annotations

from collections import Counter

from ..hunt.query import QueryDescriptor

# Sorted (signature, count) pairs; signatures are string tuples.
Behavior = tuple[tuple[tuple[str, ...], int], ...]


def behavior_of(descriptors: list[QueryDescriptor]) -> Behavior:
    """Deterministic descriptor of a candidate, from its schedule."""
    counter: Counter = Counter()
    for q in descriptors:
        for p in q.predicates:
            counter[("pred", q.entity_class, p.variable, p.op)] += 1
        for r in q.relations:
            counter[("rel", r.verb)] += 1
    return tuple(sorted(counter.items()))


def behavior_distance(a: Behavior, b: Behavior) -> float:
    """Multiset Jaccard distance in [0, 1]; two empty behaviors are
    identical (distance 0)."""
    if not a and not b:
        return 0.0
    da, db = dict(a), dict(b)
    intersection = sum(min(count, db[sig]) for sig, count in da.items() if sig in db)
    union = sum(da.values()) + sum(db.values()) - intersection
    return 1.0 - intersection / union
