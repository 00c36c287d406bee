import math
import random

import pytest

from conftest import T1552_PUTTY_SRC
from oracles import oracle_mean_pairwise_distance, oracle_multiset_jaccard_distance, oracle_novelty, oracle_schedule

from wilee.dsl import content_hash, parse, pretty_print, validate
from wilee.gpe import (
    Candidate,
    ConfigError,
    GpeConfig,
    Lineage,
    NoveltyArchive,
    auto_balance,
    behavior_distance,
    export_archive,
    novelty,
    run_gpe,
    select,
)
from wilee.stores import IocDb, IocRecord


def seed_impl():
    return parse(T1552_PUTTY_SRC)


def small_db():
    return IocDb(
        (
            IocRecord("registry_hive", "Software\\SimonTatham\\Putty\\Sessions", "T1552.002"),
            IocRecord("registry_hive", "Software\\Wow6432Node\\Putty\\Sessions", "T1552.002"),
            IocRecord("process_name", "TrojanSpy.Win32.TRICKBOT.AZ", "T1552.002"),
            IocRecord("process_name", "mimikatz.exe", "T1003.001"),
            IocRecord("command_line", "reg query HKLM /f password", "T1552.002"),
        )
    )


def stub(uid, behavior, fitness=None, nov=0.0):
    c = Candidate(
        uid=uid, digest=uid, ast=None, impl=None, descriptors=[], behavior=behavior,
        lineage=Lineage((), "seed"), fitness=fitness,
    )
    c.novelty = nov
    return c


B1 = ((("pred", "Process", "name", "eq"), 1),)
B2 = ((("pred", "File", "path", "glob"), 1),)
B3 = ((("rel", "observed"), 2),)


# ---------------------------------------------------------------------------
# behavior distance / novelty
# ---------------------------------------------------------------------------


def test_distance_identity_and_symmetry():
    assert behavior_distance(B1, B1) == 0.0
    assert behavior_distance(B1, B2) == behavior_distance(B2, B1) == 1.0
    assert behavior_distance((), ()) == 0.0


def test_distance_counts_multiplicity():
    a = ((("rel", "has"), 1),)
    b = ((("rel", "has"), 3),)
    assert behavior_distance(a, b) == pytest.approx(1 - 1 / 3)


def test_identical_population_has_zero_novelty():
    population = [stub(f"c{i}", B1) for i in range(5)]
    archive = NoveltyArchive()
    for c in population:
        assert novelty(c, archive, population, k=3) == 0.0


def test_disjoint_candidate_has_novelty_one():
    population = [stub("a", B1), stub("b", B2), stub("c", B3)]
    archive = NoveltyArchive()
    assert novelty(population[0], archive, population, k=2) == 1.0


def test_novelty_sums_distances_exactly():
    # Distances 0.6, 0.7 and 0.9: a plain left-to-right float sum gives
    # 2.1999999999999997, the exact sum 2.2.  Python 3.12 changed sum()
    # on floats, so only an exact sum scores alike on every version.
    population = [stub("c", ((("a",), 10),))] + [stub(f"o{m}", ((("a",), m),)) for m in (1, 3, 4)]
    distances = [behavior_distance(population[0].behavior, other.behavior) for other in population[1:]]
    assert sorted(distances) == [0.6, 0.7, 0.9]
    assert novelty(population[0], NoveltyArchive(), population, k=3) == 2.2 / 3 == 0.7333333333333334


def test_novelty_matches_bruteforce_oracle():
    rng = random.Random(40)
    sigs = [("pred", "A", "x", "eq"), ("pred", "B", "y", "glob"), ("rel", "has"), ("rel", "observed")]

    def random_behavior():
        return tuple(
            sorted((s, rng.randrange(1, 4)) for s in rng.sample(sigs, rng.randrange(0, 4)))
        )

    for _ in range(100):
        population = [stub(f"c{i}", random_behavior()) for i in range(rng.randrange(2, 9))]
        archive = NoveltyArchive()
        archive.members = [stub(f"a{i}", random_behavior()) for i in range(rng.randrange(0, 6))]
        k = rng.randrange(1, 6)
        for c in population:
            others = [o.behavior for o in population if o is not c] + [a.behavior for a in archive.members]
            assert novelty(c, archive, population, k) == pytest.approx(
                oracle_novelty(c.behavior, others, k)
            )


def test_distance_agrees_with_oracle_distance():
    rng = random.Random(41)
    sigs = [("a",), ("b",), ("c",)]
    for _ in range(200):
        a = tuple(sorted((s, rng.randrange(1, 5)) for s in rng.sample(sigs, rng.randrange(0, 3))))
        b = tuple(sorted((s, rng.randrange(1, 5)) for s in rng.sample(sigs, rng.randrange(0, 3))))
        assert behavior_distance(a, b) == pytest.approx(oracle_multiset_jaccard_distance(a, b))


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def test_rho_one_is_pure_novelty():
    population = [stub(f"c{i}", B1, fitness=i / 10, nov=(10 - i) / 10) for i in range(10)]
    chosen = select(population, 1.0, 4)
    assert [c.uid for c in chosen] == ["c0", "c1", "c2", "c3"]


def test_rho_zero_with_fitness_is_pure_fitness():
    population = [stub(f"c{i}", B1, fitness=i / 10, nov=(10 - i) / 10) for i in range(10)]
    chosen = select(population, 0.0, 4)
    assert [c.uid for c in chosen] == ["c9", "c8", "c7", "c6"]


def test_half_rho_takes_five_each():
    population = [stub(f"c{i}", B1, fitness=i / 10, nov=(10 - i) / 10) for i in range(10)]
    chosen = select(population, 0.5, 10)
    novelty_half = {c.uid for c in chosen[:5]}
    fitness_half = {c.uid for c in chosen[5:]}
    assert novelty_half == {"c0", "c1", "c2", "c3", "c4"}
    assert fitness_half == {"c9", "c8", "c7", "c6", "c5"}


def test_select_matches_independent_sort_oracle():
    rng = random.Random(2718)
    for _ in range(200):
        population = [
            stub(f"c{i:02d}", B1, fitness=rng.random() if rng.random() < 0.8 else None,
                 nov=rng.random())
            for i in range(rng.randrange(2, 14))
        ]
        n = rng.randrange(1, len(population) + 1)
        rho = rng.choice((0.0, 0.3, 0.5, 0.8, 1.0))
        chosen = select(population, rho, n)
        assert len(chosen) == min(n, len(population))
        assert len({id(c) for c in chosen}) == len(chosen)
        n_novelty = math.ceil(rho * n)
        by_novelty = sorted(population, key=lambda c: (-c.novelty, c.uid))
        expected_novelty = [c.uid for c in by_novelty[:n_novelty]]
        assert [c.uid for c in chosen[:n_novelty]] == expected_novelty


def test_no_fitness_anywhere_degenerates_to_novelty():
    population = [stub(f"c{i}", B1, fitness=None, nov=i / 10) for i in range(10)]
    for rho in (0.0, 0.3, 1.0):
        chosen = select(population, rho, 5)
        assert [c.uid for c in chosen] == ["c9", "c8", "c7", "c6", "c5"]


def test_duplicates_backfilled_by_next_novelty():
    # One candidate tops both rankings; its fitness slot backfills with
    # the next novelty pick.
    population = [
        stub("star", B1, fitness=1.0, nov=1.0),
        stub("good", B1, fitness=0.9, nov=0.1),
        stub("meh", B1, fitness=0.1, nov=0.5),
        stub("dull", B1, fitness=0.2, nov=0.4),
    ]
    chosen = select(population, 0.5, 2)
    assert [c.uid for c in chosen] == ["star", "good"]
    chosen = select(population, 0.75, 4)
    assert len({c.uid for c in chosen}) == 4


# ---------------------------------------------------------------------------
# auto_balance
# ---------------------------------------------------------------------------


def test_improving_history_decreases_to_floor():
    rho = 0.8
    history = []
    for gen in range(12):
        history.append(gen / 10)
        rho = auto_balance(history, rho)
    assert rho == pytest.approx(0.2)


def test_flat_history_reaches_one():
    rho = 0.5
    history = []
    bumps = 0
    for _ in range(math.ceil((1 - 0.5) / 0.1) * 5):
        history.append(0.4)
        new = auto_balance(history, rho)
        bumps += new > rho
        rho = new
    assert rho == pytest.approx(1.0)
    assert bumps == 5


def test_noisy_history_matches_replay_oracle():
    rng = random.Random(3141)
    for _ in range(50):
        history = [round(rng.random(), 3) for _ in range(rng.randrange(1, 30))]
        rho = 0.5
        # Replay oracle: track best and trailing stagnation explicitly.
        expected = 0.5
        best = None
        streak = 0
        for i, value in enumerate(history):
            rho = auto_balance(history[: i + 1], rho)
            if best is None:
                best = value
                streak = 1
            elif value > best:
                best = value
                streak = 0
            else:
                streak += 1
            if i > 0 and streak == 0:
                expected = max(0.2, expected - 0.1)
            elif streak > 0 and streak % 5 == 0:
                expected = min(1.0, expected + 0.1)
            assert rho == pytest.approx(expected), history[: i + 1]


# ---------------------------------------------------------------------------
# run_gpe
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        GpeConfig(population_size=0)
    with pytest.raises(ConfigError):
        GpeConfig(mutation_rate=1.5)
    with pytest.raises(ConfigError):
        GpeConfig(mutation_rate=0.8, crossover_rate=0.5)
    with pytest.raises(ConfigError):
        GpeConfig(generations=-1)
    with pytest.raises(ConfigError, match="stagnation_generations"):
        GpeConfig(stagnation_generations=0)
    with pytest.raises(ConfigError, match="archive_capacity"):
        GpeConfig(archive_capacity=-1)
    GpeConfig(stagnation_generations=1, archive_capacity=0)


def test_config_from_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"population_size": 8, "generations": 3, "seed": 7}', "utf-8")
    config = GpeConfig.from_json(path)
    assert config.population_size == 8 and config.seed == 7
    path.write_text('{"bogus": 1}', "utf-8")
    with pytest.raises(ConfigError):
        GpeConfig.from_json(path)


def test_zero_generations_gives_initial_mutants(model):
    config = GpeConfig(population_size=6, generations=0, seed=1)
    result = run_gpe(seed_impl(), config, model=model, ioc_db=small_db())
    assert result.archive == []
    assert len(result.population) == 6
    assert result.population == result.initial_population
    for c in result.population:
        assert validate(c.ast, model) == []


def test_run_is_deterministic(model):
    config = GpeConfig(population_size=10, generations=6, seed=123)
    first = run_gpe(seed_impl(), config, model=model, ioc_db=small_db())
    second = run_gpe(seed_impl(), config, model=model, ioc_db=small_db())
    assert [c.uid for c in first.archive] == [c.uid for c in second.archive]
    assert [pretty_print(c.ast) for c in first.archive] == [
        pretty_print(c.ast) for c in second.archive
    ]
    assert first.rho_trace == second.rho_trace


def test_different_seed_changes_trace(model):
    base = GpeConfig(population_size=10, generations=6, seed=123)
    other = GpeConfig(population_size=10, generations=6, seed=124)
    first = run_gpe(seed_impl(), base, model=model, ioc_db=small_db())
    second = run_gpe(seed_impl(), other, model=model, ioc_db=small_db())
    assert [pretty_print(c.ast) for c in first.population] != [
        pretty_print(c.ast) for c in second.population
    ]


def test_closure_over_full_run(model):
    config = GpeConfig(population_size=12, generations=10, seed=5)
    result = run_gpe(seed_impl(), config, model=model, ioc_db=small_db())
    for c in result.population + result.archive + result.initial_population:
        assert validate(c.ast, model) == []


def test_without_fitness_rho_stays_put_and_history_empty(model):
    config = GpeConfig(population_size=8, generations=4, seed=2, rho=0.7)
    result = run_gpe(seed_impl(), config, model=model, ioc_db=small_db())
    assert result.history == []
    assert set(result.rho_trace) == {0.7}


def test_fitness_fn_drives_history(model):
    config = GpeConfig(population_size=8, generations=4, seed=2)

    def fake_fitness(tree, impl, descriptors):
        return min(1.0, len(pretty_print(tree)) / 1000)

    result = run_gpe(seed_impl(), config, fitness_fn=fake_fitness, model=model, ioc_db=small_db())
    assert len(result.history) == 4
    assert all(0.0 <= v <= 1.0 for v in result.history)


def test_fitness_fn_called_once_per_distinct_tree(model):
    config = GpeConfig(population_size=10, generations=8, seed=4)
    calls = []

    def fake_fitness(tree, impl, descriptors):
        assert tuple(step.record.ast for step in impl.steps) == tree.children
        assert descriptors == oracle_schedule(impl, model)
        calls.append(content_hash(tree))
        return len(pretty_print(tree)) % 97 / 97

    result = run_gpe(seed_impl(), config, fitness_fn=fake_fitness, model=model, ioc_db=small_db())
    assert calls and len(calls) == len(set(calls))
    scored = [c for c in result.archive if c.fitness is not None]
    assert scored
    assert all(c.fitness == fake_fitness(c.ast, c.impl, c.descriptors) for c in scored)


def test_archive_growth_and_capacity(model):
    config = GpeConfig(population_size=10, generations=8, seed=9, archive_capacity=15)
    result = run_gpe(seed_impl(), config, model=model, ioc_db=small_db())
    assert 0 < len(result.archive) <= 15


def test_diversity_direction_on_fixture_seed(model):
    wins = 0
    for seed in range(8):
        config = GpeConfig(population_size=20, generations=15, seed=seed)
        result = run_gpe(seed_impl(), config, model=model, ioc_db=small_db())
        initial = oracle_mean_pairwise_distance([c.behavior for c in result.initial_population])
        final = oracle_mean_pairwise_distance([c.behavior for c in result.archive])
        wins += final > initial
    assert wins >= 7


def test_export_archive_is_reproducible(model, tmp_path):
    config = GpeConfig(population_size=8, generations=5, seed=77)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    export_archive(run_gpe(seed_impl(), config, model=model, ioc_db=small_db()), out_a)
    export_archive(run_gpe(seed_impl(), config, model=model, ioc_db=small_db()), out_b)
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
