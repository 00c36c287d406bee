import random
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

from conftest import PlantedAttack, build_store, iso, write_ndjson
from conftest import T1059_SRC, T1552_PUTTY_SRC
from oracles import (
    oracle_best_witness_count,
    oracle_build_graph,
    oracle_build_graph_edges,
    oracle_edge_pairs,
    oracle_obligations_for,
    oracle_support_index,
)

from wilee.dsl import ThreatDescription, parse
from wilee.hunt import (
    EvidenceGraph,
    GraphEdge,
    NdjsonProxy,
    build_graph,
    execute_all,
    match,
    schedule,
)
from wilee.hunt.proxy import Event, parse_rfc3339
from wilee.hunt.query import QueryDescriptor, RelationRef
from wilee.interpreter import concretize, implementation_from_module
from wilee.stores import IocDb


def whole_proxy(events):
    """A whole-read proxy over ``events``, written to a log that is gone
    once the read has kept every event."""
    with tempfile.TemporaryDirectory() as tmp:
        return NdjsonProxy(write_ndjson(Path(tmp) / "events.ndjson", events))


def hunt(impl, events, model, window_seconds=60.0, db=None):
    """Run schedule -> execute -> graph -> match over ``events``."""
    descriptors = schedule(impl, model)
    results = execute_all(descriptors, whole_proxy(events), db or IocDb())
    graph = build_graph(results, descriptors, window_seconds)
    return graph, match(graph, impl, descriptors)


def putty_impl(model):
    store = build_store(
        model,
        [
            ("T1552.002", ("credential-access",), "SME", T1552_PUTTY_SRC),
            ("T1059.001", ("execution",), "SME", T1059_SRC),
        ],
    )
    desc = ThreatDescription.from_steps("putty_hunt", ["T1552.002", "T1059.001"])
    return concretize(desc, store).implementations[0]


def event(eid, ts, host, cls, fields, links=()):
    return {
        "event_id": eid,
        "timestamp": ts,
        "host": host,
        "entity_class": cls,
        "fields": fields,
        "links": [{"verb": v, "target": t} for v, t in links],
    }


ATTACK = [
    event("reg1", "2026-03-01T06:00:00Z", "ws-002", "WinRegistryKey",
          {"Hive": "Software\\SimonTatham\\Putty\\Sessions"}),
    event("proc1", "2026-03-01T06:00:20Z", "ws-002", "Process",
          {"name": "TrojanSpy.Win32.TRICKBOT.AZ"}),
    event("cmd1", "2026-03-01T06:05:00Z", "ws-002", "Process",
          {"command_line": 'Get-Process -Name "powershell" | Stop-Process'}),
]


# ---------------------------------------------------------------------------
# build_graph
# ---------------------------------------------------------------------------


def test_no_results_empty_graph(model):
    impl = putty_impl(model)
    graph, result = hunt(impl, [], model)
    assert not any(graph.hits.values()) and graph.edges == ()
    assert graph.hosts() == []
    assert result.confirmed is False and result.score == 0.0


def test_one_relation_no_nodes_one_edge(model):
    impl = putty_impl(model)
    graph, _ = hunt(impl, ATTACK[:2], model)
    (node_qid,) = [ob.key[1] for ob in oracle_obligations_for(impl)[1]]
    assert graph.hits[node_qid] == []
    assert len(graph.edges) == 1
    (edge,) = graph.edges
    assert edge.verb == "observed"
    assert edge.kind == "window"
    assert edge.qid in {q.qid for q in schedule(impl, model) if q.step_index == 0}
    assert edge.timestamp.isoformat().startswith("2026-03-01T06:00:20")


def test_unrelated_object_one_node_per_hit(model):
    impl = putty_impl(model)
    second = event("cmd2", "2026-03-01T06:06:00Z", "ws-003", "Process",
                   {"command_line": 'Get-Process -Name "powershell" | Stop-Process'})
    graph, result = hunt(impl, ATTACK + [second], model)
    (node_qid,) = [ob.key[1] for ob in oracle_obligations_for(impl)[1]]
    assert [(e.event_id, e.host) for e in graph.hits[node_qid]] == [("cmd1", "ws-002"), ("cmd2", "ws-003")]
    assert len(graph.edges) == 1
    assert result.step_witness[1] == (f"{node_qid}:cmd1",)


def test_graph_holds_the_hits_it_was_joined_from(model):
    """The graph keeps the query results themselves, and a host with a
    hit is a graph host even when no edge and no node obligation reads
    that hit."""
    impl = putty_impl(model)
    descriptors = schedule(impl, model)
    results = execute_all(descriptors, whole_proxy(ATTACK[:1]), IocDb())
    graph = build_graph(results, descriptors)
    assert graph.edges == ()
    assert graph.hosts() == ["ws-002"]
    assert all(graph.hits[qid] is results[qid] for qid in results)


def test_explicit_links_cross_hosts_and_windows(model):
    impl = putty_impl(model)
    far_apart = [
        event("reg1", "2026-03-01T06:00:00Z", "ws-A", "WinRegistryKey",
              {"Hive": "Software\\SimonTatham\\Putty\\Sessions"}),
        event("proc1", "2026-03-01T09:00:00Z", "ws-B", "Process",
              {"name": "TrojanSpy.Win32.TRICKBOT.AZ"}, links=[("observed", "reg1")]),
    ]
    graph, _ = hunt(impl, far_apart, model)
    (edge,) = graph.edges
    assert edge.kind == "link"


def test_window_rule_requires_same_host_and_time(model):
    impl = putty_impl(model)
    cross_host = [
        event("reg1", "2026-03-01T06:00:00Z", "ws-A", "WinRegistryKey",
              {"Hive": "Software\\SimonTatham\\Putty\\Sessions"}),
        event("proc1", "2026-03-01T06:00:20Z", "ws-B", "Process",
              {"name": "TrojanSpy.Win32.TRICKBOT.AZ"}),
    ]
    graph, _ = hunt(impl, cross_host, model)
    assert graph.edges == ()
    too_late = [
        ATTACK[0],
        event("proc1", "2026-03-01T06:02:00Z", "ws-002", "Process",
              {"name": "TrojanSpy.Win32.TRICKBOT.AZ"}),
    ]
    graph, _ = hunt(impl, too_late, model)
    assert graph.edges == ()


def test_edge_count_matches_pairwise_oracle(model):
    rng = random.Random(1414)
    impl = putty_impl(model)
    events = []
    for i in range(30):
        host = rng.choice(("h1", "h2"))
        moment = iso(
            datetime(2026, 3, 1, 6, 0, rng.randrange(0, 59), tzinfo=timezone.utc)
        )
        if rng.random() < 0.5:
            events.append(
                event(f"r{i}", moment, host, "WinRegistryKey",
                      {"Hive": "Software\\SimonTatham\\Putty\\Sessions"})
            )
        else:
            links = [("observed", f"r{j}") for j in range(i) if rng.random() < 0.1]
            events.append(
                event(f"p{i}", moment, host, "Process",
                      {"name": "TrojanSpy.Win32.TRICKBOT.AZ"}, links=links)
            )
    graph, _ = hunt(impl, events, model)
    proxy = whole_proxy(events)
    sources, targets = proxy.scan("Process"), proxy.scan("WinRegistryKey")
    expected_pairs = oracle_edge_pairs(sources, targets, "observed", 60.0)
    got_pairs = {(e.source_event, e.target_event) for e in graph.edges}
    assert got_pairs == expected_pairs


def _edge_tuple(edge):
    return (
        edge.edge_id, edge.qid, edge.peer_qid, edge.verb, edge.source_event,
        edge.target_event, edge.source_host, edge.target_host, edge.timestamp, edge.kind,
    )


def _random_join_case(rng):
    """Random results and descriptors for one build_graph call.

    Moments fall on a 10 s grid (sometimes off it by a microsecond) and
    are written with assorted UTC offsets, so windows of 0, 10, 20 s hit
    |dt| == window exactly.  Links mix verbs, repeat entries, cross hosts
    and name ids that no result holds."""
    base = datetime(2026, 3, 1, 6, 0, 0, tzinfo=timezone.utc)
    offsets = [timezone.utc, timezone(timedelta(hours=2)), timezone(timedelta(hours=-5, minutes=-30))]
    ids = [f"ev{i}" for i in range(rng.randrange(0, 10))]
    pool = ids + ["ghost1", "ghost2"]
    log = []
    for event_id in ids:
        moment = base + timedelta(seconds=10 * rng.randrange(0, 8))
        if rng.random() < 0.15:
            moment += timedelta(microseconds=rng.choice((-1, 1)))
        stamp = moment.astimezone(rng.choice(offsets)).isoformat()
        if stamp.endswith("+00:00") and rng.random() < 0.5:
            stamp = stamp[:-6] + "Z"
        links = tuple(
            (rng.choice(("observed", "has")), rng.choice(pool))
            for _ in range(rng.choice((0, 0, 1, 2, 3)))
        )
        if links and rng.random() < 0.3:
            links += (links[0],)
        log.append(Event(event_id, rng.choice(("h1", "h2", "h3")), parse_rfc3339(stamp), links))
    qids = ["qa", "qb", "qc"][: rng.randrange(1, 4)]
    results = {
        qid: [e for e in log if rng.random() < 0.6] for qid in qids if rng.random() < 0.9
    }
    descriptors = [
        QueryDescriptor(
            qid=qid,
            entity_class="Process",
            object_var=f"process{i}",
            predicates=(),
            relations=tuple(
                RelationRef(rng.choice(("observed", "has")), rng.choice(qids + ["qmissing"]), r)
                for r in range(rng.randrange(0, 3))
            ),
            step_index=i,
            impl_id="impl",
        )
        for i, qid in enumerate(qids)
    ]
    window = rng.choice((-10.0, -0.000001, 0.0, 0.000001, 10.0, 15.5, 20.0, 60.0))
    return results, descriptors, window


def test_build_graph_equals_pairwise_oracle():
    """The band join emits exactly the pairwise loop's edges: same ids,
    order, kinds and timestamps, offsets included."""
    rng = random.Random(20260301)
    seen = dict.fromkeys(
        ("link", "window", "self_relation", "self_link", "boundary", "link_in_window",
         "link_outside_window", "empty_side", "link_to_no_target"), 0
    )
    for trial in range(300):
        results, descriptors, window = _random_join_case(rng)
        edges = build_graph(results, descriptors, window).edges
        expected = oracle_build_graph_edges(results, descriptors, window)
        assert [_edge_tuple(e) for e in edges] == expected, f"trial {trial}"
        assert [e.timestamp.isoformat() for e in edges] == [e[8].isoformat() for e in expected]
        seen["empty_side"] += any(
            not results.get(rel.peer_qid) for q in descriptors for rel in q.relations
        )
        for q in descriptors:
            for rel in q.relations:
                target_ids = {e.event_id for e in results.get(rel.peer_qid, ())}
                seen["link_to_no_target"] += bool(target_ids) and any(
                    verb == rel.verb and event_id not in target_ids
                    for source in results.get(q.qid, ())
                    for verb, event_id in source.links
                )
        moments = {e.event_id: e.moment for events in results.values() for e in events}
        for edge in edges:
            delta = abs(moments[edge.source_event] - moments[edge.target_event])
            in_window = edge.source_host == edge.target_host and delta <= timedelta(seconds=window)
            seen[edge.kind] += 1
            seen["self_relation"] += edge.qid == edge.peer_qid
            seen["self_link"] += edge.source_event == edge.target_event
            seen["boundary"] += edge.kind == "window" and delta == timedelta(seconds=window)
            seen["link_in_window"] += edge.kind == "link" and in_window
            seen["link_outside_window"] += edge.kind == "link" and not in_window
    assert all(seen.values()), seen


# Step bodies for the differential test below: relations only, one
# unrelated object, a chain whose middle object is subject of one
# relation and peer of another, a self-relation, a relation beside an
# unrelated object, and two unrelated objects.
_SHAPES = {
    "T1552.002": T1552_PUTTY_SRC,
    "T1059.001": T1059_SRC,
    "T1003.001": """def t1003_001():
    system1 = System()
    process1 = Process()
    winregistrykey1 = WinRegistryKey()
    system1.has(process1)
    process1.observed(winregistrykey1)
""",
    "T1055.001": """def t1055_001():
    process1 = Process()
    process1.has(process1)
""",
    "T1105": """def t1105():
    process1 = Process()
    file1 = File()
    mutex1 = Mutex()
    process1.observed(file1)
""",
    "T1057": """def t1057():
    process1 = Process()
    pipe1 = Pipe()
""",
}


def _shaped_impls(model, rng, count):
    """``count`` implementations of one to four steps drawn from
    ``_SHAPES``, each with its scheduled descriptors."""
    store = build_store(model, [(t, ("execution",), "SME", src) for t, src in _SHAPES.items()])
    out = []
    for i in range(count):
        steps = [rng.choice(list(_SHAPES)) for _ in range(rng.randrange(1, 5))]
        impl = concretize(ThreatDescription.from_steps(f"shape{i}", steps), store).implementations[0]
        out.append((impl, schedule(impl, model)))
    return out


def _random_hits(rng, descriptors):
    """Per-descriptor hits drawn from one small log of up to 24 events on
    up to 12 hosts, on a 30 s grid so steps tie at the floor, with links
    of either verb that may cross hosts.  Some descriptors get no hits,
    some no entry at all."""
    base = datetime(2026, 3, 1, 6, 0, 0, tzinfo=timezone.utc)
    hosts = [f"h{i:02d}" for i in range(rng.randrange(1, 13))]
    ids = [f"ev{i}" for i in range(rng.randrange(0, 25))]
    log = []
    for event_id in ids:
        moment = base + timedelta(seconds=30 * rng.randrange(0, 8))
        links = tuple(
            (rng.choice(("observed", "has")), rng.choice(ids))
            for _ in range(rng.choice((0, 0, 1, 2)))
        )
        log.append(Event(event_id, rng.choice(hosts), moment, links))
    share = rng.choice((0.2, 0.5, 0.8))
    return {
        q.qid: [e for e in log if rng.random() < share]
        for q in descriptors
        if rng.random() < 0.9
    }


def _floor_tie(graph, result):
    """Whether two engaged steps of the witness share their earliest
    timestamp."""
    moments = {e.edge_id: e.timestamp for e in graph.edges}
    moments.update((f"{qid}:{e.event_id}", e.moment) for qid, hits in graph.hits.items() for e in hits)
    mins = [min(moments[item] for item in items) for items in result.step_witness if items]
    return any(a == b for a, b in zip(mins, mins[1:]))


def test_build_graph_matches_like_the_full_graph(model):
    """The lean join changes no match result: score, host, step scores
    and witnesses equal those over the pairwise loop's graph, and so do
    the edges."""
    rng = random.Random(20261018)
    impls = _shaped_impls(model, rng, 24)
    seen = dict.fromkeys(
        ("confirmed", "partial", "zero", "cross_host_link", "floor_tie", "node_only_step",
         "empty_hits", "subject_and_peer"), 0
    )
    for trial in range(300):
        impl, descriptors = rng.choice(impls)
        results = _random_hits(rng, descriptors)
        window = rng.choice((0.0, 30.0, 60.0))
        graph = build_graph(results, descriptors, window)
        full = oracle_build_graph(results, descriptors, window)
        result = match(graph, impl, descriptors)
        assert result == match(full, impl, descriptors), f"trial {trial}"
        per_step = oracle_obligations_for(impl)
        assert graph.edges == full.edges, f"trial {trial}"
        seen["confirmed"] += result.confirmed
        seen["partial"] += 0 < result.score < 1
        seen["zero"] += result.score == 0 and any(results.values())
        seen["cross_host_link"] += any(e.source_host != e.target_host for e in graph.edges)
        seen["floor_tie"] += result.host is not None and _floor_tie(graph, result)
        seen["node_only_step"] += any(obs and all(ob.kind == "node" for ob in obs) for obs in per_step)
        seen["empty_hits"] += any(not results.get(q.qid) for q in descriptors)
        seen["subject_and_peer"] += any(
            q.relations and any(r.peer_qid == q.qid for p in descriptors for r in p.relations if p is not q)
            for q in descriptors
        )
    assert all(seen.values()), seen


# Step variants for the shared-join test below, per technique: a broad
# relation, a repeated relation statement beside one of another verb, a
# relation whose source or target never hits, a relation between two
# objects of one filter, a step with no relation, and an empty step.
_VARIANTS = {
    "T1552.002": (
        """def t1552_002():
    winregistrykey1 = WinRegistryKey()
    winregistrykey1.Hive = "Software\\\\*"
    process1 = Process()
    process1.name = "*.exe"
    process1.observed(winregistrykey1)
""",
        """def t1552_002():
    process1 = Process()
    process1.name = "a.exe"
    winregistrykey1 = WinRegistryKey()
    process1.observed(winregistrykey1)
    process1.observed(winregistrykey1)
    process1.has(winregistrykey1)
""",
        """def t1552_002():
    process1 = Process()
    process1.name = "ghost.exe"
    winregistrykey1 = WinRegistryKey()
    process1.observed(winregistrykey1)
""",
        """def t1552_002():
    process1 = Process()
    winregistrykey1 = WinRegistryKey()
    winregistrykey1.Hive = "Nowhere"
    process1.has(winregistrykey1)
""",
    ),
    "T1059.001": (
        """def t1059_001():
    process1 = Process()
    process1.name = "a.exe"
    process2 = Process()
    process2.name = "a.exe"
    process1.has(process2)
""",
        """def t1059_001():
    process1 = Process()
    process1.name = "b.exe"
    file1 = File()
""",
        """def t1059_001():
    pass
""",
        """def t1059_001():
    process1 = Process()
    process1.name = "*.exe"
    file1 = File()
    process1.has(file1)
""",
    ),
}


def _random_store_log(rng):
    """A store with two to four variants of each technique in
    ``_VARIANTS``, a description of one to three steps over them, and a
    log of up to 30 events on up to three hosts, on a 30 s grid, with
    links of either verb."""
    entries = [
        (technique, ("execution",), "SME", src)
        for technique, variants in _VARIANTS.items()
        for src in rng.sample(variants, rng.randrange(2, len(variants) + 1))
    ]
    steps = [rng.choice(list(_VARIANTS)) for _ in range(rng.randrange(1, 4))]
    base = datetime(2026, 3, 1, 6, 0, 0, tzinfo=timezone.utc)
    hosts = ["h1", "h2", "h3"][: rng.randrange(1, 4)]
    ids = [f"ev{i}" for i in range(rng.randrange(0, 31))]
    fields = {
        "Process": lambda: {"name": rng.choice(("a.exe", "b.exe", "c.bin"))},
        "WinRegistryKey": lambda: {"Hive": rng.choice(("Software\\Run", "System\\Setup"))},
        "File": lambda: {"path": "C:\\x.txt"},
    }
    log = []
    for event_id in ids:
        cls = rng.choice(list(fields))
        links = [(rng.choice(("observed", "has")), rng.choice(ids)) for _ in range(rng.choice((0, 0, 1, 2)))]
        moment = base + timedelta(seconds=30 * rng.randrange(0, 8))
        log.append(event(event_id, iso(moment), rng.choice(hosts), cls, fields[cls](), links))
    return entries, steps, log


def test_shared_joins_equal_per_implementation_joins(model, monkeypatch):
    """``evaluate`` of every implementation of a product store over one
    proxy, whose ``joins`` they share, gives the edges, ids included, and
    the match result of ``build_graph`` and ``match`` with no dict, and
    joins each distinct (source hits, target hits, verb) once; a second
    proxy of the same log starts with no joins."""
    from wilee.hunt import engine, evaluate, graph as graph_module, memo_key

    graphs, calls = [], []
    build, join = graph_module.build_graph, graph_module.join_relation

    def kept_graph(*args, **kwargs):
        graphs.append(build(*args, **kwargs))
        return graphs[-1]

    def counted_join(*args):
        calls.append(args)
        return join(*args)

    monkeypatch.setattr(engine, "build_graph", kept_graph)
    monkeypatch.setattr(graph_module, "join_relation", counted_join)
    rng = random.Random(20261020)
    db = IocDb()
    seen = dict.fromkeys(
        ("no_relation_step", "empty_step", "side_without_hits", "same_key", "repeated_statement",
         "shared_join", "link", "window", "confirmed", "partial"), 0
    )
    for trial in range(60):
        entries, steps, log = _random_store_log(rng)
        store = build_store(model, entries)
        impls = concretize(ThreatDescription.from_steps(f"product{trial}", steps), store).implementations
        proxy = whole_proxy(log)
        scheduled = [(impl, schedule(impl, model)) for impl in impls]
        shared = [evaluate(impl, descriptors, proxy, db) for impl, descriptors in scheduled]
        joins = proxy.joins
        shared_graphs, made = graphs[:], len(calls)
        graphs.clear()
        distinct, pairs = set(), 0
        for (impl, descriptors), result, got in zip(scheduled, shared, shared_graphs):
            results = execute_all(descriptors, proxy, db)
            expected = build_graph(results, descriptors)
            assert got.edges == expected.edges, f"trial {trial}"
            assert result == match(expected, impl, descriptors), f"trial {trial}"
            for q in descriptors:
                for rel in q.relations:
                    sources, targets = results[q.qid], results[rel.peer_qid]
                    if sources and targets:
                        distinct.add((id(sources), id(targets), rel.verb))
                        pairs += 1
                    else:
                        seen["side_without_hits"] += 1
                seen["repeated_statement"] += len({(r.verb, r.peer_qid) for r in q.relations}) < len(q.relations)
            keys = [(q.step_index, memo_key(q, db)) for q in descriptors]
            seen["same_key"] += len(set(keys)) < len(keys)
            by_step = [[q for q in descriptors if q.step_index == i] for i in range(len(impl.steps))]
            seen["no_relation_step"] += any(qs and not any(q.relations for q in qs) for qs in by_step)
            seen["empty_step"] += any(not qs for qs in by_step)
            seen["link"] += any(e.kind == "link" for e in got.edges)
            seen["window"] += any(e.kind == "window" for e in got.edges)
            seen["confirmed"] += result.confirmed
            seen["partial"] += 0 < result.score < 1
        assert made == len(distinct) == len(joins), f"trial {trial}"
        assert whole_proxy(log).joins == {}, f"trial {trial}"
        # A join is kept per window too.
        assert build_graph(results, descriptors, 0.0, joins).edges == build_graph(results, descriptors, 0.0).edges
        seen["shared_join"] += pairs > len(distinct)
        calls.clear()
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# match
# ---------------------------------------------------------------------------


def test_full_witness_in_order_confirms(model):
    impl = putty_impl(model)
    _, result = hunt(impl, ATTACK, model)
    assert result.confirmed is True
    assert result.score == 1.0
    assert result.step_scores == (1.0, 1.0)
    assert result.host == "ws-002"
    assert len(result.witness) == 2  # one edge + one node obligation


def test_empty_graph_scores_zero(model):
    impl = putty_impl(model)
    _, result = hunt(impl, [], model)
    assert result.confirmed is False
    assert result.score == 0.0


def _unasked_graph():
    """A graph with hosts whose hit and edge answer no obligation."""
    moment = datetime(2026, 3, 1, 6, 0, 0, tzinfo=timezone.utc)
    hit = Event("ev1", "h1", moment)
    edge = GraphEdge("e00000", "q-none", "q-peer", "has", "ev1", "ev2", "h1", "h2", moment, "window")
    return EvidenceGraph({"q-none": [hit]}, (edge,))


def test_impl_asserting_nothing_scores_zero_everywhere(model):
    impl = implementation_from_module(parse("def t1082():\n    pass\n\ndef t1059_001():\n    pass\n"))
    descriptors = schedule(impl, model)
    graph = _unasked_graph()
    assert descriptors == [] and graph.hosts() == ["h1", "h2"]
    result = match(graph, impl, descriptors)
    assert result.step_scores == (0.0, 0.0)
    assert result.score == 0.0 and result.confirmed is False
    assert result.host is None and result.witness == () and result.step_witness == ((), ())


def test_unsupported_obligations_score_only_empty_steps(model):
    impl = implementation_from_module(parse(T1552_PUTTY_SRC + "\ndef t1082():\n    pass\n"))
    descriptors = schedule(impl, model)
    graph = _unasked_graph()
    assert graph.hosts() == ["h1", "h2"]
    result = match(graph, impl, descriptors)
    assert result.step_scores == (0.0, 1.0)
    assert result.score == 0.0 and result.confirmed is False
    assert result.host is None and result.witness == () and result.step_witness == ((), ())


def test_reverse_temporal_order_not_confirmed(model):
    impl = putty_impl(model)
    reordered = [
        event("cmd1", "2026-03-01T06:00:00Z", "ws-002", "Process",
              {"command_line": 'Get-Process -Name "powershell" | Stop-Process'}),
        event("reg1", "2026-03-01T08:00:00Z", "ws-002", "WinRegistryKey",
              {"Hive": "Software\\SimonTatham\\Putty\\Sessions"}),
        event("proc1", "2026-03-01T08:00:10Z", "ws-002", "Process",
              {"name": "TrojanSpy.Win32.TRICKBOT.AZ"}),
    ]
    _, result = hunt(impl, reordered, model)
    assert result.confirmed is False
    assert result.score == 0.5  # one of the two obligations, never both


def test_step_timestamp_ties_allowed(model):
    impl = putty_impl(model)
    simultaneous = [
        event("reg1", "2026-03-01T06:00:00Z", "ws-002", "WinRegistryKey",
              {"Hive": "Software\\SimonTatham\\Putty\\Sessions"}),
        event("proc1", "2026-03-01T06:00:00Z", "ws-002", "Process",
              {"name": "TrojanSpy.Win32.TRICKBOT.AZ"}),
        event("cmd1", "2026-03-01T06:00:00Z", "ws-002", "Process",
              {"command_line": 'Get-Process -Name "powershell" | Stop-Process'}),
    ]
    _, result = hunt(impl, simultaneous, model)
    assert result.confirmed is True


def test_witness_must_share_one_host(model):
    impl = putty_impl(model)
    split = [
        ATTACK[0],
        ATTACK[1],
        event("cmd1", "2026-03-01T06:05:00Z", "other-host", "Process",
              {"command_line": 'Get-Process -Name "powershell" | Stop-Process'}),
    ]
    _, result = hunt(impl, split, model)
    assert result.confirmed is False
    assert result.score == 0.5


def test_score_monotone_under_event_addition(model):
    impl = putty_impl(model)
    events = list(ATTACK)
    _, base = hunt(impl, events[:1], model)
    previous = base.score
    for upto in range(2, len(events) + 1):
        _, result = hunt(impl, events[:upto], model)
        assert result.score >= previous
        previous = result.score
    # Random background arrivals never lower the score either.
    for i in range(20):
        events.append(
            event(f"noise{i}", "2026-03-01T07:00:00Z", "ws-002", "File",
                  {"path": f"C:\\tmp\\{i}"})
        )
        _, result = hunt(impl, events, model)
        assert result.score >= previous
        previous = result.score


def test_planted_completeness_and_minimality(model):
    impl = putty_impl(model)
    _, full = hunt(impl, ATTACK, model)
    assert full.confirmed is True
    for skip in range(len(ATTACK)):
        pruned = [e for i, e in enumerate(ATTACK) if i != skip]
        _, result = hunt(impl, pruned, model)
        assert result.confirmed is False, f"deleting witness {skip} must refute"


def test_dp_matches_exhaustive_witness_enumeration(model):
    """Randomized cross-check of the frontier search against brute force."""
    rng = random.Random(60486)
    impl = putty_impl(model)
    per_step = oracle_obligations_for(impl)
    total = sum(len(o) for o in per_step)
    hive = "Software\\SimonTatham\\Putty\\Sessions"
    cmd = 'Get-Process -Name "powershell" | Stop-Process'
    for trial in range(60):
        events = []
        counter = 0
        for _ in range(rng.randrange(0, 9)):
            counter += 1
            second = rng.randrange(0, 50) * 10
            moment = iso(
                datetime(2026, 3, 1, 6, 0, 0, tzinfo=timezone.utc)
                + timedelta(seconds=second)
            )
            host = rng.choice(("h1", "h2"))
            kind = rng.randrange(3)
            if kind == 0:
                events.append(event(f"e{counter}", moment, host, "WinRegistryKey", {"Hive": hive}))
            elif kind == 1:
                events.append(event(f"e{counter}", moment, host, "Process",
                                    {"name": "TrojanSpy.Win32.TRICKBOT.AZ"}))
            else:
                events.append(event(f"e{counter}", moment, host, "Process", {"command_line": cmd}))
        graph, result = hunt(impl, events, model)
        best = 0
        for host in graph.hosts():
            index = oracle_support_index(graph, host)
            per_step_items = [
                [[ts for ts, _ in index.get(ob.key, [])] for ob in obligations]
                for obligations in per_step
            ]
            best = max(best, oracle_best_witness_count(per_step_items))
        expected = best / total if total else 0.0
        assert abs(result.score - expected) < 1e-12, f"trial {trial}"


T1003_SRC = '''def t1003_001():
    system1 = System()
    process1 = Process()
    winregistrykey1 = WinRegistryKey()
    system1.has(process1)
    process1.observed(winregistrykey1)
'''


def _random_support_graph(rng, per_step):
    """A graph over the obligations' keys, built directly: up to 80 hosts,
    edges across hosts, items on keys no obligation asks for, and
    timestamps on twelve half-minute marks so steps tie at the floor.
    Ids are dealt in random order, so id order is not time order."""
    hosts = [f"h{i:03d}" for i in range(rng.randrange(1, 81))]
    keys = [ob.key for obligations in per_step for ob in obligations]
    keys += [("node", "q-none"), ("relation", "q-none", "q-peer", "has")]
    base = datetime(2026, 3, 1, 6, 0, 0, tzinfo=timezone.utc)
    count = rng.randrange(0, 400)
    ids = rng.sample(range(count), count)
    hits, edges = {}, []
    for n in ids:
        key = rng.choice(keys)
        host = rng.choice(hosts)
        moment = base + timedelta(seconds=30 * rng.randrange(12))
        if key[0] == "node":
            hits.setdefault(key[1], []).append(Event(f"ev{n:05d}", host, moment))
        else:
            peer_host = rng.choice(hosts) if rng.random() < 0.4 else host
            edges.append(
                GraphEdge(
                    f"e{n:05d}", key[1], key[2], key[3], f"ev{n}", f"ev{n}x",
                    host, peer_host, moment, rng.choice(("link", "window")),
                )
            )
    return EvidenceGraph(hits, tuple(edges))


def test_match_equals_per_host_oracle_index(model, monkeypatch):
    """The one-pass host index and its binary-search pick give the same
    result, byte for byte, as a full walk of the graph per host and a
    linear scan for the first item at or after the floor."""
    from wilee.hunt import matcher

    store = build_store(
        model,
        [
            ("T1552.002", ("credential-access",), "SME", T1552_PUTTY_SRC),
            ("T1059.001", ("execution",), "SME", T1059_SRC),
            ("T1003.001", ("credential-access",), "SME", T1003_SRC),
        ],
    )
    steps = ["T1552.002", "T1003.001", "T1059.001", "T1003.001"]
    impl = concretize(ThreatDescription.from_steps("wide", steps), store).implementations[0]
    descriptors = schedule(impl, model)
    per_step = oracle_obligations_for(impl)

    def oracle_index(graph, node_qids):
        return {host: oracle_support_index(graph, host) for host in graph.hosts()}

    def linear_pick(items, probe):
        return next((i for i, item in enumerate(items) if item >= probe), len(items))

    rng = random.Random(4_000)
    seen = {"confirmed": 0, "partial": 0, "cross_host": 0}
    for trial in range(300):
        graph = _random_support_graph(rng, per_step)
        result = match(graph, impl, descriptors)
        with monkeypatch.context() as patch:
            patch.setattr(matcher, "_support_index", oracle_index)
            patch.setattr(matcher, "bisect_left", linear_pick)
            expected = match(graph, impl, descriptors)
        assert result == expected, f"trial {trial}"
        seen["confirmed"] += result.confirmed
        seen["partial"] += 0 < result.score < 1
        seen["cross_host"] += any(e.source_host != e.target_host for e in graph.edges)
    assert all(seen.values()), seen


def test_support_ties_keep_edge_id_string_order(model):
    """Edges on one host at one moment are supports in edge-id string
    order, so past ``e99999`` the six-digit ``e100000`` comes first, and
    the witness picks it.  The golden digests pin this order."""
    from wilee.hunt.matcher import _support_index

    impl = putty_impl(model)
    descriptors = schedule(impl, model)
    (q,) = [q for q in descriptors if q.relations]
    (rel,) = q.relations
    moment = datetime(2026, 3, 1, 6, 0, 0, tzinfo=timezone.utc)
    edges = tuple(
        GraphEdge(edge_id, q.qid, rel.peer_qid, rel.verb, f"src-{edge_id}", f"dst-{edge_id}",
                  "ws-002", "ws-002", moment, "window")
        for edge_id in ("e99999", "e100000")
    )
    graph = EvidenceGraph({}, edges)
    key = ("relation", q.qid, rel.peer_qid, rel.verb)
    assert _support_index(graph, set())["ws-002"][key] == [(moment, "e100000"), (moment, "e99999")]
    assert match(graph, impl, descriptors).step_witness[0] == ("e100000",)


def test_hunt_over_big_planted_log(model, big_log_events, tmp_path):
    impl = putty_impl(model)
    log = write_ndjson(tmp_path / "events.ndjson", big_log_events)
    proxy = NdjsonProxy(log)
    descriptors = schedule(impl, model)
    results = execute_all(descriptors, proxy, IocDb())
    graph = build_graph(results, descriptors)
    result = match(graph, impl, descriptors)
    assert result.confirmed is True
    # The witness items must trace back to exactly the planted events.
    events_by_edge = {e.edge_id: {e.source_event, e.target_event} for e in graph.edges}
    events_by_node = {f"{qid}:{e.event_id}": {e.event_id} for qid, hits in graph.hits.items() for e in hits}
    witnessed = set()
    for item in result.witness:
        witnessed |= events_by_edge.get(item) or events_by_node[item]
    assert witnessed == set(PlantedAttack.build().witness_ids)
