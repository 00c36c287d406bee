"""The generational loop: novelty/fitness selection with a balance
knob, archive upkeep, and reproducible evolution from a config seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Optional

from ..dsl import AstNode, validate
from ..stores import DataModel, IocDb, read_text
from .novelty import NoveltyArchive, novelty
from .operators import Candidate, Lineage, crossover, mutate, perturb_iocs, replace_lineage

FitnessFn = Callable[..., float]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class GpeConfig:
    population_size: int = 20
    generations: int = 10
    mutation_rate: float = 0.7
    crossover_rate: float = 0.3
    ioc_perturb_rate: float = 0.5
    ioc_site_probability: float = 0.5
    k_nearest: int = 15
    rho: float = 0.5
    rho_min: float = 0.2
    rho_step: float = 0.1
    stagnation_generations: int = 5
    archive_capacity: int = 500
    add_threshold: float = 0.15
    max_depth: int = 12
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            number = f.type == "float"  # a string: annotations are postponed
            if isinstance(value, bool) or not isinstance(value, (int, float) if number else int):
                raise ConfigError(f"{f.name} must be {'a number' if number else 'an integer'}, got {value!r}")
        # Every float field is a rate or a threshold in [0, 1].
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not 0.0 <= value <= 1.0:
                raise ConfigError(f"{f.name} must lie in [0, 1], got {value}")
        if self.population_size < 1:
            raise ConfigError("population_size must be >= 1")
        if self.generations < 0:
            raise ConfigError("generations must be >= 0")
        if self.mutation_rate + self.crossover_rate > 1.0 + 1e-9:
            raise ConfigError("mutation_rate + crossover_rate must not exceed 1")
        if self.k_nearest < 1:
            raise ConfigError("k_nearest must be >= 1")
        if self.stagnation_generations < 1:
            raise ConfigError("stagnation_generations must be >= 1")
        if self.archive_capacity < 0:
            raise ConfigError("archive_capacity must be >= 0")

    @classmethod
    def from_json(cls, path: Path, digests: Optional[dict[str, str]] = None) -> "GpeConfig":
        try:
            doc = json.loads(read_text(path, digests))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc.msg}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        return cls(**doc)


def select(population: list[Candidate], knob_rho: float, elite_count: int) -> list[Candidate]:
    """Parent pool: the top ceil(rho * N) by novelty plus the top rest by
    fitness.  Only fitness-bearing candidates occupy fitness slots;
    overlaps and shortfalls backfill from the novelty ranking, so with
    no fitness anywhere selection is pure novelty."""
    if not 0.0 <= knob_rho <= 1.0:
        raise ConfigError(f"rho must lie in [0, 1], got {knob_rho}")
    n_novelty = math.ceil(knob_rho * elite_count)
    n_fitness = elite_count - n_novelty
    by_novelty = sorted(population, key=lambda c: (-c.novelty, c.uid))
    by_fitness = sorted(
        (c for c in population if c.fitness is not None),
        key=lambda c: (-c.fitness, c.uid),
    )
    chosen: list[Candidate] = []
    taken: set[int] = set()

    def take(candidate: Candidate) -> None:
        chosen.append(candidate)
        taken.add(id(candidate))

    for candidate in by_novelty[:n_novelty]:
        take(candidate)
    picked_fit = 0
    for candidate in by_fitness:
        if picked_fit >= n_fitness or len(chosen) >= elite_count:
            break
        if id(candidate) in taken:
            continue
        take(candidate)
        picked_fit += 1
    for candidate in by_novelty[n_novelty:]:
        if len(chosen) >= elite_count:
            break
        if id(candidate) not in taken:
            take(candidate)
    return chosen[:elite_count]


def auto_balance(
    history: list[float],
    rho: float,
    step: float = 0.1,
    rho_min: float = 0.2,
    stagnation_generations: int = 5,
) -> float:
    """Nudge the knob toward novelty when best fitness stalls and back
    toward fitness on improvement.

    An entry improves when it beats every earlier one; the first entry
    only sets the baseline.  Each full run of ``stagnation_generations``
    consecutive non-improving entries steps rho up; an improving last
    entry steps it down, floored at ``rho_min``.
    """
    if not history:
        return rho
    best = history[0]
    streak = 1  # the baseline entry is not an improvement
    for value in history[1:]:
        if value > best:
            best = value
            streak = 0
        else:
            streak += 1
    if len(history) > 1 and streak == 0:
        return max(rho_min, rho - step)
    if streak > 0 and streak % stagnation_generations == 0:
        return min(1.0, rho + step)
    return rho


@dataclass
class GpeResult:
    """What :func:`run_gpe` leaves: the novelty archive's members; the
    last population scored (the initial one, unscored, after no
    generation); the initial population; the best fitness of each
    generation, with a fitness function; and the selection knob before the first generation and
    after each."""

    archive: list[Candidate]
    population: list[Candidate]
    initial_population: list[Candidate]
    history: list[float] = field(default_factory=list)
    rho_trace: list[float] = field(default_factory=list)


def run_gpe(
    seed_tree: AstNode,
    config: GpeConfig,
    fitness_fn: Optional[FitnessFn] = None,
    model: Optional[DataModel] = None,
    ioc_db: Optional[IocDb] = None,
) -> GpeResult:
    """Evolve variants of a module of concrete functions.

    Without ``fitness_fn`` the loop runs on novelty alone; with one
    (e.g. hunt-engine match score against a fixed log snapshot), called
    as ``fitness_fn(tree, impl, descriptors)`` with a candidate's
    fields, the selection knob blends the two and auto-balances on
    stagnation.
    Identical config and seed give an identical trace.
    """
    model = model or DataModel.default()
    db = ioc_db if ioc_db is not None else IocDb()
    rng = random.Random(config.seed)

    problems = validate(seed_tree, model)
    if problems:
        raise ConfigError(f"seed implementation is invalid: {problems[0]}")
    seed_candidate = Candidate.from_ast(seed_tree, Lineage((), "seed"), model)

    def spawn(gen: int, index: int, candidate: Candidate) -> Candidate:
        candidate.uid = f"g{gen:03d}-{index:03d}-{candidate.digest}"
        return candidate

    population = [
        spawn(
            0,
            i,
            mutate(
                seed_candidate,
                model=model,
                rng_seed=rng.randrange(2**63),
                max_depth=config.max_depth,
            ),
        )
        for i in range(config.population_size)
    ]
    initial_population = list(population)

    archive = NoveltyArchive(config.archive_capacity, config.add_threshold)
    scores: dict[str, float] = {}  # fitness by tree content hash, for this run
    history: list[float] = []
    rho = config.rho
    rho_trace = [rho]

    for gen in range(1, config.generations + 1):
        for candidate in population:
            candidate.novelty = novelty(candidate, archive, population, config.k_nearest)
        if fitness_fn is not None:
            for candidate in population:
                if candidate.digest not in scores:
                    scores[candidate.digest] = fitness_fn(candidate.ast, candidate.impl, candidate.descriptors)
                candidate.fitness = scores[candidate.digest]
        for candidate in population:
            archive.consider(candidate)

        if fitness_fn is not None:
            history.append(max(c.fitness for c in population))
            rho = auto_balance(
                history,
                rho,
                step=config.rho_step,
                rho_min=config.rho_min,
                stagnation_generations=config.stagnation_generations,
            )
        rho_trace.append(rho)
        if gen == config.generations:
            break  # breed nothing that no generation scores

        parents = select(population, rho, config.population_size)
        offspring: list[Candidate] = []
        while len(offspring) < config.population_size:
            roll = rng.random()
            if roll < config.crossover_rate and len(parents) >= 2:
                i = rng.randrange(len(parents))
                j = rng.randrange(len(parents) - 1)
                j = j if j < i else j + 1
                first, second = crossover(
                    parents[i],
                    parents[j],
                    model=model,
                    rng_seed=rng.randrange(2**63),
                    max_depth=config.max_depth,
                )
                offspring.extend([first, second])
            elif roll < config.crossover_rate + config.mutation_rate:
                parent = parents[rng.randrange(len(parents))]
                offspring.append(
                    mutate(
                        parent,
                        model=model,
                        rng_seed=rng.randrange(2**63),
                        max_depth=config.max_depth,
                    )
                )
            else:
                parent = parents[rng.randrange(len(parents))]
                offspring.append(replace_lineage(parent, Lineage((parent.uid,), "clone")))
        offspring = offspring[: config.population_size]
        for i, candidate in enumerate(offspring):
            if rng.random() < config.ioc_perturb_rate:
                offspring[i] = perturb_iocs(
                    candidate,
                    db,
                    model=model,
                    rng_seed=rng.randrange(2**63),
                    probability=config.ioc_site_probability,
                )
        population = [spawn(gen, i, c) for i, c in enumerate(offspring)]

    return GpeResult(archive.members, population, initial_population, history, rho_trace)


def export_archive(result: GpeResult, outdir: Path) -> list[Path]:
    """Write each archive member as a ``.wdsl`` file plus an
    ``archive.jsonl`` metadata index.  Output bytes are a pure function
    of the result.  A ``.wdsl`` file that the directory's previous index
    lists and this result does not write is removed, so the directory
    holds this archive alone; a file no index lists is left as it is."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    meta = outdir / "archive.jsonl"
    listed = _listed_files(meta)
    written: list[Path] = []
    meta_lines = []
    for candidate in result.archive:
        path = outdir / f"{candidate.uid}.wdsl"
        path.write_text(candidate.text, "utf-8")
        written.append(path)
        meta_lines.append(
            json.dumps(
                {
                    "uid": candidate.uid,
                    "file": path.name,
                    "novelty": candidate.novelty,
                    "fitness": candidate.fitness,
                    "behavior": [[list(sig), count] for sig, count in candidate.behavior],
                    "lineage": {
                        "parents": list(candidate.lineage.parents),
                        "operator": candidate.lineage.operator,
                        "flag": candidate.lineage.flag,
                    },
                }
            )
        )
    meta.write_text("".join(line + "\n" for line in meta_lines), "utf-8")
    written.append(meta)
    for path in outdir.glob("*.wdsl"):
        if path.name in listed and path not in written:
            path.unlink()
    return written


def _listed_files(meta: Path) -> set[str]:
    """The ``file`` of each entry of an ``archive.jsonl``; a line that
    is not such an entry lists nothing, and a missing index no file."""
    try:
        lines = meta.read_bytes().splitlines()
    except FileNotFoundError:
        return set()
    listed = set()
    for line in lines:
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if isinstance(entry, dict) and isinstance(entry.get("file"), str):
            listed.add(entry["file"])
    return listed
