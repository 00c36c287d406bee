"""Novelty scoring and the behavior archive."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .behavior import behavior_distance
from .operators import Candidate


def novelty(
    candidate: Candidate,
    archive: "NoveltyArchive",
    population: list[Candidate],
    k: int,
) -> float:
    """Mean distance to the k nearest behaviors among the archive and
    the population, excluding the candidate itself.  With no neighbors
    at all the score is 0.0.  The distances are summed exactly
    (``math.fsum``), so the score is the same on every Python version."""
    if k < 1:
        raise ValueError("k must be >= 1")
    behaviors = [c.behavior for c in population if c is not candidate]
    behaviors.extend(c.behavior for c in archive.members)
    if not behaviors:
        return 0.0
    distances = sorted(behavior_distance(candidate.behavior, b) for b in behaviors)
    nearest = distances[: min(k, len(distances))]
    return math.fsum(nearest) / len(nearest)


@dataclass
class NoveltyArchive:
    """Bounded FIFO of the candidates seen to be novel."""

    capacity: int = 500
    add_threshold: float = 0.15
    members: list[Candidate] = field(default_factory=list)

    def consider(self, candidate: Candidate) -> bool:
        """Admit the candidate when its novelty beats the threshold;
        evict the oldest member beyond capacity."""
        if candidate.novelty <= self.add_threshold:
            return False
        self.members.append(candidate)
        if len(self.members) > self.capacity:
            self.members.pop(0)
        return True
