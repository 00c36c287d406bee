"""Grammar-guided genetic perturbation of threat implementations."""

from .behavior import Behavior, behavior_distance, behavior_of
from .evolve import (
    ConfigError,
    GpeConfig,
    GpeResult,
    auto_balance,
    export_archive,
    run_gpe,
    select,
)
from .novelty import NoveltyArchive, novelty
from .operators import (
    Candidate,
    Lineage,
    crossover,
    mutable_sites,
    mutate,
    perturb_iocs,
)

__all__ = [
    "Behavior",
    "behavior_distance",
    "behavior_of",
    "ConfigError",
    "GpeConfig",
    "GpeResult",
    "auto_balance",
    "export_archive",
    "run_gpe",
    "select",
    "NoveltyArchive",
    "novelty",
    "Candidate",
    "Lineage",
    "crossover",
    "mutable_sites",
    "mutate",
    "perturb_iocs",
]
