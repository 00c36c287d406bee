"""Acceptance gate: one test per shipped criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them)."""

import json
import random
import time
from pathlib import Path

from conftest import (
    PlantedAttack,
    T1059_SRC,
    T1552_PUTTY_SRC,
    T1552_RUNKEY_SRC,
    build_store,
    random_module,
    random_ttp_function,
    write_ndjson,
)
from oracles import (
    oracle_class_inclusion,
    oracle_concretize_count,
    oracle_execute,
    oracle_mean_pairwise_distance,
    oracle_select,
    oracle_word_frequency,
    oracle_word_match_value,
)

from wilee.dsl import (
    AstGenerator,
    CANONICAL_TACTICS,
    ThreatDescription,
    parse,
    pretty_print,
    pretty_print_node,
    random_technique_id,
    validate,
)
from wilee.gpe import (
    Candidate,
    GpeConfig,
    Lineage,
    crossover,
    export_archive,
    mutate,
    perturb_iocs,
    run_gpe,
)
from wilee.hunt import NdjsonProxy, evaluate, memo_key, schedule
from wilee.hunt.query import BindSpec, Predicate, QueryDescriptor
from wilee.interpreter import concretize
from wilee.malmo import (
    class_inclusion,
    generate_dsl,
    mine_relation_priors,
    select_classes,
    word_frequency,
    word_match_value,
)
from wilee.malmo.phrases import NounPhrase
from wilee.stores import DataModel, IocDb, IocRecord, TtpRecord, TtpStore

FIXTURES = Path(__file__).parent / "fixtures"


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"acceptance criterion {number} ({name}) failed {suffix}"


# ---------------------------------------------------------------------------
# 1. DSL round-trip over 1000 grammar samples in < 10 s
# ---------------------------------------------------------------------------


def test_criterion_1_dsl_roundtrip():
    rng = random.Random(10_001)
    gen = AstGenerator(rng)
    started = time.perf_counter()
    failures = 0
    for _ in range(1000):
        tree = random_module(gen)
        if parse(pretty_print(tree)) != tree:
            failures += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        "dsl round-trip",
        failures == 0 and elapsed < 10.0,
        f"1000 samples, {failures} failures, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. Concretization counting equals the nested-loop oracle on 100 fixtures
# ---------------------------------------------------------------------------


def test_criterion_2_concretization_counting(model):
    rng = random.Random(10_002)
    gen = AstGenerator(rng, model=model)
    mismatches = 0
    for case in range(100):
        techniques = [random_technique_id(rng) for _ in range(rng.randrange(2, 6))]
        tactics = list(rng.sample(CANONICAL_TACTICS, 3))
        store = TtpStore()
        for t in techniques:
            for _ in range(rng.randrange(0, 4)):
                tags = tuple(rng.sample(tactics, rng.randrange(0, 3)))
                ident = "t" + t[1:].replace(".", "_")
                store.records.append(
                    TtpRecord(t, tags, "SME", random_ttp_function(gen, ident))
                )
        steps = [
            rng.choice(techniques + tactics) for _ in range(rng.randrange(1, 4))
        ]
        result = concretize(ThreatDescription.from_steps("d", steps), store)
        expected = oracle_concretize_count(store.records, steps, set(CANONICAL_TACTICS))
        got = len(result.implementations)
        if expected == 0:
            ok = got == 0 and any(d.code == "empty-step" for d in result.diagnostics)
        else:
            ok = got == expected
        mismatches += not ok
    report(2, "concretization counting", mismatches == 0, f"100 fixtures, {mismatches} mismatches")


# ---------------------------------------------------------------------------
# 3. Scoring formulas match brute force on 500 instances; fixture emits
#    the Putty hive glob and a process object
# ---------------------------------------------------------------------------


def _random_scoring_instance(rng):
    pool = [
        "win", "registry", "key", "keys", "process", "name", "file", "path",
        "network", "connection", "domain", "service", "session", "command",
        "line", "user", "account", "host", "memory", "driver", "task",
    ]
    classes = {}
    for _ in range(rng.randrange(1, 7)):
        class_name = "".join(w.capitalize() for w in rng.sample(pool, rng.randrange(1, 3)))
        classes.setdefault(
            class_name,
            tuple("_".join(rng.sample(pool, rng.randrange(1, 3))) for _ in range(rng.randrange(0, 5))),
        )
    phrases = [
        NounPhrase(tuple(rng.choice(pool) for _ in range(rng.randrange(1, 4))), (0, 0))
        for _ in range(rng.randrange(0, 5))
    ]
    return classes, phrases


def test_criterion_3_scoring_oracle_and_fixture(model):
    rng = random.Random(10_003)
    worst = 0.0
    for _ in range(500):
        classes, phrases = _random_scoring_instance(rng)
        instance_model = DataModel(classes)
        freq = word_frequency(instance_model)
        if freq != oracle_word_frequency(classes):
            report(3, "scoring oracle equivalence", False, "frequency mismatch")
        scores = []
        for class_name, variables in classes.items():
            for variable in variables:
                for phrase in phrases:
                    mine = word_match_value(phrase, class_name, variable, freq)
                    theirs = oracle_word_match_value(list(phrase.words), variable, freq)
                    worst = max(worst, abs(mine - theirs))
            mine_total = class_inclusion(class_name, variables, phrases, freq)
            theirs_total = oracle_class_inclusion(
                class_name, variables, [list(p.words) for p in phrases], freq
            )
            worst = max(worst, abs(mine_total.inclusion_value - theirs_total))
            scores.append(mine_total)
        n = rng.randrange(1, 6)
        mine_sel = select_classes(scores, n)
        theirs_sel = oracle_select(
            {s.class_name: s.inclusion_value for s in scores}, n
        )
        if mine_sel != theirs_sel:
            report(3, "scoring oracle equivalence", False, "selection mismatch")

    doc = json.loads((FIXTURES / "technique_t1552_002.json").read_text("utf-8"))
    db = IocDb(
        (
            IocRecord("registry_hive", "Software\\*\\Putty\\Sessions", "T1552.002"),
            IocRecord("process_name", "TrojanSpy.Win32.TRICKBOT.AZ", "T1552.002"),
        )
    )
    priors_store = build_store(
        model,
        [("T1003.001", ("credential-access",), "SME",
          "def t1003_001():\n    system1 = System()\n    process1 = Process()\n"
          "    winregistrykey1 = WinRegistryKey()\n    system1.has(process1)\n"
          "    process1.observed(winregistrykey1)\n")],
    )
    fn, _ = generate_dsl(
        doc["id"], doc["description"], model, db, mine_relation_priors(priors_store)
    )
    text = pretty_print_node(fn)
    fixture_ok = (
        'winregistrykey1.Hive = "Software\\*\\Putty\\Sessions"' in text
        and "process1 = Process()" in text
        and validate(fn, model) == []
    )
    report(
        3,
        "scoring oracle equivalence + fixture",
        worst <= 1e-9 and fixture_ok,
        f"worst formula deviation {worst:.2e}; fixture emits hive glob: {fixture_ok}",
    )


# ---------------------------------------------------------------------------
# 4. Hunt end to end on a 10,000-event log in < 30 s
# ---------------------------------------------------------------------------


def _hunt_confirmations(store, model, log_path):
    desc = ThreatDescription.from_steps("putty_hunt", ["T1552.002", "T1059.001"])
    implementations = concretize(desc, store).implementations
    proxy = NdjsonProxy(log_path)
    return [evaluate(impl, schedule(impl, model), proxy, IocDb()) for impl in implementations]


def test_criterion_4_hunt_end_to_end(model, big_log_events, clean_log_events, tmp_path):
    started = time.perf_counter()
    store = build_store(
        model,
        [
            ("T1552.002", ("credential-access",), "SME", T1552_PUTTY_SRC),
            ("T1552.002", ("credential-access",), "SME", T1552_RUNKEY_SRC),
            ("T1059.001", ("execution",), "SME", T1059_SRC),
        ],
    )
    assert len(big_log_events) == 10_000

    log = write_ndjson(tmp_path / "planted.ndjson", big_log_events)
    results = _hunt_confirmations(store, model, log)
    confirmed = [r for r in results if r.confirmed]
    exactly_one = len(results) == 2 and len(confirmed) == 1

    witness_ids = PlantedAttack.build().witness_ids
    flips = 0
    for victim in witness_ids:
        pruned = [e for e in big_log_events if e["event_id"] != victim]
        pruned_log = write_ndjson(tmp_path / f"minus_{victim}.ndjson", pruned)
        pruned_results = _hunt_confirmations(store, model, pruned_log)
        flips += not any(r.confirmed for r in pruned_results)
    all_flip = flips == len(witness_ids)

    clean_log = write_ndjson(tmp_path / "clean.ndjson", clean_log_events)
    clean_results = _hunt_confirmations(store, model, clean_log)
    clean_zero = not any(r.confirmed for r in clean_results)

    elapsed = time.perf_counter() - started
    report(
        4,
        "hunt end-to-end",
        exactly_one and all_flip and clean_zero and elapsed < 30.0,
        f"confirmed {len(confirmed)}/2 impls, {flips}/3 deletions flip, "
        f"clean log zero: {clean_zero}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. execute equals the regex-translated scan oracle on every corpus log
# ---------------------------------------------------------------------------


def _random_descriptor(rng):
    fields_by_class = {
        "WinRegistryKey": ["Hive"],
        "File": ["path", "extension"],
        "Process": ["name", "command_line", "pid", "user"],
        "DnsQuery": ["query_name"],
        "NetworkConnection": ["dst_ip", "dst_port"],
        "Mutex": ["mutex_name"],
    }
    entity_class = rng.choice(sorted(fields_by_class))
    predicates = []
    for _ in range(rng.randrange(0, 3)):
        variable = rng.choice(fields_by_class[entity_class])
        roll = rng.random()
        if roll < 0.4:
            predicates.append(
                Predicate(
                    variable,
                    "glob",
                    rng.choice(
                        ["Software\\*\\Putty\\Sessions", "*powershell*", "Trojan*",
                         "*.zip", "C:\\*", "*example*", "*", "Global\\*"]
                    ),
                )
            )
        elif roll < 0.8:
            predicates.append(
                Predicate(
                    variable,
                    "eq",
                    rng.choice(
                        ["TrojanSpy.Win32.TRICKBOT.AZ", "explorer.exe",
                         "updates.example.com", "443", "zip", ""]
                    ),
                )
            )
        else:
            predicates.append(
                Predicate(
                    variable,
                    "eq",
                    BindSpec(
                        rng.choice(("process_name", "registry_hive", "domain", "file_path")),
                        technique=rng.choice((None, "T1552.002")),
                        pattern=rng.choice((None, "*a*", "Troj*")),
                    ),
                )
            )
    return QueryDescriptor(
        qid="q", entity_class=entity_class, object_var="x",
        predicates=tuple(predicates), relations=(), step_index=0,
        impl_id="i",
    )


def test_criterion_5_query_oracle(big_log_events, tmp_path):
    rng = random.Random(10_005)
    ioc_records = [
        IocRecord("process_name", "TrojanSpy.Win32.TRICKBOT.AZ", "T1552.002"),
        IocRecord("process_name", "powershell.exe", None),
        IocRecord("registry_hive", "Software\\SimonTatham\\Putty\\Sessions", "T1552.002"),
        IocRecord("domain", "updates.example.com", None),
        IocRecord("file_path", "C:\\Users\\alice\\Downloads\\invoice.zip", None),
    ]
    db = IocDb(tuple(ioc_records))
    logs = sorted((FIXTURES / "logs").glob("*.ndjson"))
    big = write_ndjson(tmp_path / "big.ndjson", big_log_events)
    logs.append(big)
    mismatches = 0
    queries = 0
    for log_path in logs:
        proxy = NdjsonProxy(log_path)
        raw = [json.loads(line) for line in log_path.read_text("utf-8").splitlines() if line.strip()]
        for _ in range(150):
            descriptor = _random_descriptor(rng)
            queries += 1
            got = [e.event_id for e in proxy.hits(memo_key(descriptor, db))]
            if got != oracle_execute(descriptor, raw, ioc_records):
                mismatches += 1
    report(
        5,
        "query oracle equivalence",
        mismatches == 0,
        f"{queries} queries over {len(logs)} logs, {mismatches} mismatches",
    )


# ---------------------------------------------------------------------------
# 6. GP closure over 10^4 operator applications; byte-identical archives
# ---------------------------------------------------------------------------


def test_criterion_6_gp_closure_and_determinism(model, putty_ioc_db, tmp_path):
    rng = random.Random(10_006)
    seeds = [
        Candidate.from_ast(parse(T1552_PUTTY_SRC), Lineage((), "seed"), model),
        Candidate.from_ast(parse(T1059_SRC), Lineage((), "seed"), model),
    ]
    pool = list(seeds)
    invalid = 0
    applications = 0
    while applications < 10_000:
        roll = rng.random()
        if roll < 0.45:
            child = mutate(pool[rng.randrange(len(pool))], model=model,
                           rng_seed=rng.randrange(2**63))
            offspring = [child]
            applications += 1
        elif roll < 0.75:
            a = pool[rng.randrange(len(pool))]
            b = pool[rng.randrange(len(pool))]
            left, right = crossover(a, b, model=model, rng_seed=rng.randrange(2**63))
            offspring = [left, right]
            applications += 1
        else:
            child = perturb_iocs(pool[rng.randrange(len(pool))], putty_ioc_db,
                                 rng_seed=rng.randrange(2**63))
            offspring = [child]
            applications += 1
        for c in offspring:
            if validate(c.ast, model):
                invalid += 1
            pool.append(c)
        if len(pool) > 60:
            pool = pool[-60:]

    config = GpeConfig(population_size=20, generations=10, seed=20_260)
    seed_tree = parse(T1552_PUTTY_SRC)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    export_archive(run_gpe(seed_tree, config, model=model, ioc_db=putty_ioc_db), out_a)
    export_archive(run_gpe(seed_tree, config, model=model, ioc_db=putty_ioc_db), out_b)
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    identical = names_a == names_b and all(
        (out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names_a
    )
    report(
        6,
        "gp closure + determinism",
        invalid == 0 and identical and bool(names_a),
        f"{applications} operator applications, {invalid} invalid; "
        f"archives byte-identical: {identical}",
    )


# ---------------------------------------------------------------------------
# 7. Diversity direction over 20 seeded runs
# ---------------------------------------------------------------------------


def test_criterion_7_diversity_direction(model, putty_ioc_db):
    seed_tree = parse(T1552_PUTTY_SRC)
    wins = 0
    for seed in range(20):
        config = GpeConfig(population_size=20, generations=15, seed=seed)
        result = run_gpe(seed_tree, config, model=model, ioc_db=putty_ioc_db)
        initial = oracle_mean_pairwise_distance([c.behavior for c in result.initial_population])
        final = oracle_mean_pairwise_distance([c.behavior for c in result.archive])
        wins += final > initial
    report(7, "diversity direction", wins >= 18, f"{wins}/20 runs enlarged the variant space")


# ---------------------------------------------------------------------------
# 8. IOC perturbation type safety over 10^3 perturbations
# ---------------------------------------------------------------------------


def test_criterion_8_ioc_type_safety(model):
    db = IocDb(
        (
            IocRecord("registry_hive", "Software\\SimonTatham\\Putty\\Sessions", "T1552.002"),
            IocRecord("registry_hive", "Software\\Wow6432Node\\Putty\\Sessions", "T1552.002"),
            IocRecord("registry_hive", "Software\\OpenSSH\\Agent", None),
            IocRecord("process_name", "TrojanSpy.Win32.TRICKBOT.AZ", "T1552.002"),
            IocRecord("process_name", "mimikatz.exe", "T1003.001"),
            IocRecord("command_line", "reg query HKLM /f password", "T1552.002"),
            IocRecord("command_line", 'Get-Process -Name "powershell" | Stop-Process', "T1059.001"),
            IocRecord("file_path", "C:\\Windows\\Temp\\stage2.ps1", None),
            IocRecord("file_path", "C:\\Users\\Public\\drop.exe", None),
        )
    )
    values_by_type = {}
    for record in db.records:
        values_by_type.setdefault(record.ioc_type, set()).add(record.value)
    from wilee.stores import ioc_type_for_variable

    simontatham_src = (
        "def t1552_002():\n"
        "    winregistrykey1 = WinRegistryKey()\n"
        '    winregistrykey1.Hive = "Software\\SimonTatham\\Putty\\Sessions"\n'
        "    process1 = Process()\n"
        '    process1.name = "TrojanSpy.Win32.TRICKBOT.AZ"\n'
        "    process1.observed(winregistrykey1)\n"
    )
    shell_src = (
        "def t1059_001():\n"
        "    process1 = Process()\n"
        '    process1.command_line = "Get-Process -Name \\"powershell\\" | Stop-Process"\n'
        "    file1 = File()\n"
        '    file1.path = "C:\\Windows\\Temp\\stage2.ps1"\n'
    )
    parents = [
        Candidate.from_ast(parse(simontatham_src), Lineage((), "seed"), model),
        Candidate.from_ast(parse(shell_src), Lineage((), "seed"), model),
    ]
    rng = random.Random(10_008)
    cross_type = 0
    hive_swaps = 0
    from wilee.dsl import NodeKind, iter_nodes

    for i in range(1000):
        parent = parents[i % 2]
        child = perturb_iocs(parent, db, rng_seed=rng.randrange(2**63),
                             probability=0.8)
        for path, node in iter_nodes(child.ast):
            if node.kind is not NodeKind.ATTRIBUTE_ASSIGN:
                continue
            before = None
            for bpath, bnode in iter_nodes(parent.ast):
                if bpath == path:
                    before = bnode
                    break
            value_after = node.children[1]
            if before.children[1] == value_after:
                continue
            expected_type = ioc_type_for_variable(node.attrs["attribute"])
            if value_after.attrs["value"] not in values_by_type[expected_type]:
                cross_type += 1
            if (
                before.children[1].attrs.get("value")
                == "Software\\SimonTatham\\Putty\\Sessions"
            ):
                hive_swaps += 1
                if value_after.attrs["value"] not in (
                    "Software\\Wow6432Node\\Putty\\Sessions",
                    "Software\\OpenSSH\\Agent",
                ):
                    cross_type += 1
    report(
        8,
        "ioc perturbation type safety",
        cross_type == 0 and hive_swaps > 0,
        f"1000 perturbations, {cross_type} cross-type substitutions, "
        f"{hive_swaps} SimonTatham hive swaps to alternates",
    )
