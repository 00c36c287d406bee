"""Behavior descriptors and distances for novelty search.

A candidate's behavior is the observable consequence of its tree: the
multiset of (entity class, variable, predicate op) signatures that its
function bodies give their objects, read by
:func:`~wilee.hunt.query.read_body` as the scheduler reads them, plus
relation verb counts.  Distance is multiset Jaccard, which degrades to
plain set Jaccard when every signature occurs once.
"""

from __future__ import annotations

from collections import Counter

from ..dsl import AstNode
from ..hunt.query import read_body

# Sorted (signature, count) pairs; signatures are string tuples.
Behavior = tuple[tuple[tuple[str, ...], int], ...]


def behavior_of(tree: AstNode) -> Behavior:
    """Deterministic descriptor of a candidate module."""
    counter: Counter = Counter()
    for fn in tree.children:
        objects, relations = read_body(fn)
        for cls, predicates in objects.values():
            for predicate in predicates:
                counter[("pred", cls, predicate.variable, predicate.op)] += 1
        for _, verb, _ in relations:
            counter[("rel", verb)] += 1
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


def mean_pairwise_distance(behaviors: list[Behavior]) -> float:
    if len(behaviors) < 2:
        return 0.0
    total = 0.0
    pairs = 0
    for i in range(len(behaviors)):
        for j in range(i + 1, len(behaviors)):
            total += behavior_distance(behaviors[i], behaviors[j])
            pairs += 1
    return total / pairs
