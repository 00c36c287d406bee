import random
from collections import Counter

import pytest

from conftest import T1552_PUTTY_SRC, random_module
from oracles import oracle_behavior_of, oracle_schedule

from wilee.dsl import (
    AstGenerator,
    NodeKind,
    content_hash,
    get_node,
    iter_nodes,
    parse,
    pretty_print,
    tree_depth,
    validate,
)
from wilee.dsl.vocab import IOC_TYPES
from wilee.gpe import Candidate, Lineage, crossover, mutate, perturb_iocs
from wilee.gpe.operators import MUTATION_LABELS, NODE_NONTERMINAL
from wilee.interpreter import implementation_from_module
from wilee.stores import DataModel, IocDb, IocRecord


def candidate_from(source, model):
    tree = parse(source)
    return Candidate.from_ast(tree, Lineage((), "seed"), model)


@pytest.fixture
def putty_candidate(model):
    return candidate_from(T1552_PUTTY_SRC, model)


def test_every_node_kind_maps_to_an_operator_label():
    assert set(NODE_NONTERMINAL) == set(NodeKind)
    assert set(NODE_NONTERMINAL.values()) <= MUTATION_LABELS | {"module"}


SECOND_SRC = '''def t1059_001():
    process1 = Process()
    process1.command_line = "Get-Process -Name \\"powershell\\" | Stop-Process"
    file1 = File()
    file1.path = "C:\\Windows\\Temp\\stage2.ps1"
    process1.observed(file1)
'''


@pytest.fixture
def shell_candidate(model):
    return candidate_from(SECOND_SRC, model)


# ---------------------------------------------------------------------------
# mutate
# ---------------------------------------------------------------------------


def test_literal_mutation_is_local(model, putty_candidate):
    # Find a seed whose mutation lands on a literal, then check that only
    # that literal changed.
    for seed in range(300):
        child = mutate(putty_candidate, model=model, rng_seed=seed)
        if child.lineage.flag is not None or not child.lineage.paths:
            continue
        (path,) = child.lineage.paths
        node = get_node(putty_candidate.ast, path)
        if node.kind is not NodeKind.LITERAL:
            continue
        diff = [
            (p, a, b)
            for (p, a), (_, b) in zip(
                iter_nodes(putty_candidate.ast), iter_nodes(child.ast)
            )
            if a != b
        ]
        changed_leaves = [p for p, a, b in diff if not a.children]
        assert changed_leaves == [path]
        return
    pytest.fail("no literal mutation observed in 300 seeds")


def test_mutation_deterministic_per_seed(model, putty_candidate):
    a = mutate(putty_candidate, model=model, rng_seed=99)
    b = mutate(putty_candidate, model=model, rng_seed=99)
    assert pretty_print(a.ast) == pretty_print(b.ast)
    assert a.uid == b.uid
    c = mutate(putty_candidate, model=model, rng_seed=100)
    assert pretty_print(c.ast) != pretty_print(a.ast) or c.lineage != a.lineage


def test_mutation_validity_sweep(model, putty_candidate, shell_candidate):
    rng = random.Random(5)
    parents = [putty_candidate, shell_candidate]
    for i in range(1000):
        parent = parents[i % 2]
        child = mutate(parent, model=model, rng_seed=rng.randrange(2**63))
        assert validate(child.ast, model) == [], pretty_print(child.ast)
        parents[i % 2] = child if child.lineage.flag is None else parent


def test_mutation_respects_depth_cap(model, putty_candidate):
    for seed in range(200):
        child = mutate(putty_candidate, model=model, rng_seed=seed)
        assert tree_depth(child.ast) <= 12


def test_mutation_flags_when_no_sites(model):
    empty = candidate_from("def t1082():\n    pass\n", model)
    # The only mutable node is the function itself, which regenerates a
    # fresh body; with retries it should usually succeed, so force the
    # degenerate case with an empty module instead.
    none_at_all = candidate_from("", model)
    child = mutate(none_at_all, model=model, rng_seed=1)
    assert child.lineage.flag == "no-sites"
    assert child.ast == none_at_all.ast
    # And the empty function still mutates validly.
    child = mutate(empty, model=model, rng_seed=1)
    assert validate(child.ast, model) == []


# ---------------------------------------------------------------------------
# crossover
# ---------------------------------------------------------------------------


def test_self_crossover_at_same_point_preserves_content(model, putty_candidate):
    left, right = crossover(putty_candidate, putty_candidate, model=model, rng_seed=3)
    assert pretty_print(left.ast) == pretty_print(putty_candidate.ast)
    assert pretty_print(right.ast) == pretty_print(putty_candidate.ast)


def test_crossover_validity_sweep(model, putty_candidate, shell_candidate):
    rng = random.Random(6)
    a, b = putty_candidate, shell_candidate
    for _ in range(1000):
        left, right = crossover(a, b, model=model, rng_seed=rng.randrange(2**63))
        assert validate(left.ast, model) == []
        assert validate(right.ast, model) == []


def test_crossover_multiset_bookkeeping(model, putty_candidate, shell_candidate):
    def leaf_multiset(tree):
        return Counter(
            (node.kind, tuple(sorted(node.attrs.items())))
            for _, node in iter_nodes(tree)
        )

    for seed in range(80):
        left, right = crossover(
            putty_candidate, shell_candidate, model=model, rng_seed=seed
        )
        if left.lineage.flag is not None:
            continue
        path_a, path_b = left.lineage.paths
        sub_a = get_node(putty_candidate.ast, path_a)
        sub_b = get_node(shell_candidate.ast, path_b)
        expected_left = (
            leaf_multiset(putty_candidate.ast)
            - leaf_multiset(sub_a)
            + leaf_multiset(sub_b)
        )
        expected_right = (
            leaf_multiset(shell_candidate.ast)
            - leaf_multiset(sub_b)
            + leaf_multiset(sub_a)
        )
        assert leaf_multiset(left.ast) == expected_left
        assert leaf_multiset(right.ast) == expected_right


def test_crossover_without_common_points_flags(model):
    a = candidate_from("def t1082():\n    pass\n", model)
    b = candidate_from("def t1083():\n    pass\n", model)
    left, right = crossover(a, b, model=model, rng_seed=0)
    assert left.lineage.flag == "no-common-nonterminal"
    assert pretty_print(left.ast) == pretty_print(a.ast)
    assert pretty_print(right.ast) == pretty_print(b.ast)


# ---------------------------------------------------------------------------
# perturb_iocs
# ---------------------------------------------------------------------------


def sites_with_values(tree):
    out = {}
    for path, node in iter_nodes(tree):
        if node.kind is NodeKind.ATTRIBUTE_ASSIGN:
            value = node.children[1]
            out[path] = (node.attrs["attribute"], value.kind, value.attrs)
    return out


def test_simontatham_site_swaps_only_to_other_hive(model):
    source = (
        "def t1552_002():\n"
        "    winregistrykey1 = WinRegistryKey()\n"
        '    winregistrykey1.Hive = "Software\\SimonTatham\\Putty\\Sessions"\n'
    )
    seed = candidate_from(source, model)
    db = IocDb(
        (
            IocRecord("registry_hive", "Software\\SimonTatham\\Putty\\Sessions", "T1552.002"),
            IocRecord("registry_hive", "Software\\Wow6432Node\\Putty\\Sessions", "T1552.002"),
            IocRecord("process_name", "TrojanSpy.Win32.TRICKBOT.AZ", "T1552.002"),
        )
    )
    swapped = 0
    for rng_seed in range(200):
        child = perturb_iocs(seed, db, rng_seed=rng_seed, probability=1.0)
        literal = child.ast.children[0].children[1].children[1]
        value = literal.attrs["value"]
        if value != "Software\\SimonTatham\\Putty\\Sessions":
            swapped += 1
            assert value == "Software\\Wow6432Node\\Putty\\Sessions"
    assert swapped == 200  # probability 1.0 and one eligible replacement


def test_empty_db_leaves_candidate_unchanged(model, putty_candidate):
    child = perturb_iocs(putty_candidate, IocDb(), rng_seed=1, probability=1.0)
    assert pretty_print(child.ast) == pretty_print(putty_candidate.ast)


def test_single_candidate_sites_untouched(model):
    source = (
        "def t1552_002():\n"
        "    process1 = Process()\n"
        '    process1.name = "TrojanSpy.Win32.TRICKBOT.AZ"\n'
    )
    seed = candidate_from(source, model)
    db = IocDb((IocRecord("process_name", "TrojanSpy.Win32.TRICKBOT.AZ", "T1552.002"),))
    child = perturb_iocs(seed, db, rng_seed=1, probability=1.0)
    assert pretty_print(child.ast) == pretty_print(seed.ast)


def test_bind_sites_resolve_to_concrete_values(model):
    source = (
        "def t1552_002():\n"
        "    process1 = Process()\n"
        "    process1.name = bind(ioc_type=process_name)\n"
    )
    seed = candidate_from(source, model)
    db = IocDb(
        (
            IocRecord("process_name", "TrojanSpy.Win32.TRICKBOT.AZ", "T1552.002"),
            IocRecord("process_name", "mimikatz.exe", "T1003.001"),
        )
    )
    values = set()
    for rng_seed in range(100):
        child = perturb_iocs(seed, db, rng_seed=rng_seed, probability=1.0)
        value_node = child.ast.children[0].children[1].children[1]
        assert value_node.kind is NodeKind.LITERAL
        values.add(value_node.attrs["value"])
    assert values == {"TrojanSpy.Win32.TRICKBOT.AZ", "mimikatz.exe"}


def test_no_cross_type_substitutions_in_sweep(model, putty_candidate, shell_candidate, putty_ioc_db):
    by_type = {
        t: {r.value for r in putty_ioc_db.records if r.ioc_type == t}
        for t in ("registry_hive", "process_name", "command_line", "file_path", "domain", "hash")
    }
    from wilee.stores import ioc_type_for_variable

    rng = random.Random(17)
    for i in range(1000):
        parent = putty_candidate if i % 2 == 0 else shell_candidate
        before = sites_with_values(parent.ast)
        child = perturb_iocs(
            parent, putty_ioc_db, rng_seed=rng.randrange(2**63), probability=0.5
        )
        after = sites_with_values(child.ast)
        assert validate(child.ast, model) == []
        for path, (attribute, kind_before, attrs_before) in before.items():
            attribute_after, kind_after, attrs_after = after[path]
            if (kind_before, attrs_before) == (kind_after, attrs_after):
                continue
            expected_type = (
                attrs_before["ioc_type"]
                if kind_before is NodeKind.BIND_EXPR
                else ioc_type_for_variable(attribute)
            )
            assert attrs_after["value"] in by_type[expected_type], (
                f"value crossed ioc_type at {path}"
            )


# ---------------------------------------------------------------------------
# every operator's child carries its own schedule
# ---------------------------------------------------------------------------

# Classes the default data model lacks, with variables that map to ioc_types.
GIZMO_MODEL = DataModel(
    {"Gizmo": ("name", "path", "serial"), "Widget": ("command_line", "hash", "colour")}
)


@pytest.mark.parametrize("custom", [False, True], ids=["default-model", "custom-model"])
def test_operator_children_carry_the_schedule_of_their_tree(model, custom):
    """Chained mutate, crossover and perturb_iocs over random valid
    modules: each child's implementation, descriptors and behavior are
    those of its own tree under the run's data model, and its digest and
    text, made from its records' texts, are its tree's ``content_hash``
    and ``pretty_print``."""
    model = GIZMO_MODEL if custom else model
    rng = random.Random(21_021)
    gen = AstGenerator(rng, model=model)
    db = IocDb(tuple(IocRecord(t, f"{t}-{i}", None) for t in IOC_TYPES for i in range(3)))
    pool = []
    for _ in range(12):
        tree = random_module(gen)
        assert validate(tree, model) == []
        pool.append(Candidate.from_ast(tree, Lineage((), "seed"), model))
    children = 0
    while children < 1800:
        roll = rng.random()
        pick = pool[rng.randrange(len(pool))]
        if roll < 0.4:
            offspring = [mutate(pick, model=model, rng_seed=rng.randrange(2**63))]
        elif roll < 0.7:
            other = pool[rng.randrange(len(pool))]
            offspring = list(crossover(pick, other, model=model, rng_seed=rng.randrange(2**63)))
        else:
            offspring = [perturb_iocs(pick, db, model=model, rng_seed=rng.randrange(2**63))]
        for child in offspring:
            assert child.impl == implementation_from_module(child.ast)
            assert child.descriptors == oracle_schedule(child.impl, model)
            assert child.behavior == oracle_behavior_of(child.ast, model)
            assert child.digest == content_hash(child.ast)
            assert child.text == pretty_print(child.ast)
        pool = (pool + offspring)[-20:]
        children += len(offspring)
