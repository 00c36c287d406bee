"""Spans and counters recorded around wilee's public functions.

The benchmark never edits the program: it swaps each public function
for a wrapper under every name a ``wilee`` module holds it by (so
``wilee.cli.build_graph``, ``wilee.hunt.build_graph`` and
``wilee.hunt.graph.build_graph`` all record), and puts the originals back
afterwards.  A target that no longer exists, or a counter that can no
longer be read, is reported as unmeasured instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from collections import Counter
from typing import Callable, Optional

# Layer name -> public name of the function it wraps.
TARGETS = {
    "dsl.parse": "wilee.dsl.parse",
    "dsl.validate": "wilee.dsl.validate",
    "dsl.content_hash": "wilee.dsl.content_hash",
    "stores.load_stores": "wilee.stores.load_stores",
    "stores.resolve_bind": "wilee.stores.resolve_bind",
    "interpreter.concretize": "wilee.interpreter.concretize",
    "interpreter.expand_binds": "wilee.interpreter.expand_binds",
    "hunt.load": "wilee.hunt.NdjsonProxy.__init__",
    "hunt.schedule": "wilee.hunt.schedule",
    "hunt.execute": "wilee.hunt.execute_all",
    "hunt.build_graph": "wilee.hunt.build_graph",
    "hunt.match": "wilee.hunt.match",
    "hunt.render_report": "wilee.hunt.render_report",
    "gpe.run": "wilee.gpe.run_gpe",
    "gpe.mutate": "wilee.gpe.mutate",
    "gpe.crossover": "wilee.gpe.crossover",
    "gpe.perturb_iocs": "wilee.gpe.perturb_iocs",
    "malmo.generate_dsl": "wilee.malmo.generate_dsl",
    "cli": "wilee.cli.main",
}


def resolve(public: str):
    """(owner, attribute, object) for a dotted public name, or None."""
    parts = public.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:-1]:
            owner = getattr(owner, attr, None)
        if owner is None or not hasattr(owner, parts[-1]):
            return None
        return owner, parts[-1], getattr(owner, parts[-1])
    return None


class Patches:
    """Replacements installed under every name that holds the original."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def install(self, public: str, make: Callable[[Callable], Callable]) -> bool:
        found = resolve(public)
        if found is None:
            return False
        owner, attr, original = found
        replacement = make(original)
        if isinstance(owner, type):
            holders = [(owner, attr)]
        else:
            holders = [
                (module, name)
                for module_name, module in list(sys.modules.items())
                if module is not None and (module_name == "wilee" or module_name.startswith("wilee."))
                for name, value in list(vars(module).items())
                if value is original
            ]
        for holder, name in holders:
            self._undo.append((holder, name, original))
            setattr(holder, name, replacement)
        return True

    def remove(self) -> None:
        for holder, name, original in reversed(self._undo):
            setattr(holder, name, original)
        self._undo.clear()

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def argument(args: tuple, kwargs: dict, index: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[index] if index < len(args) else None


def tree_key(node) -> tuple:
    """Hashable structure of a DSL tree, computed without the program."""
    return (node.kind.value, tuple(sorted(node.attrs.items())), tuple(tree_key(c) for c in node.children))


class Tracer:
    """Spans ``[name, start, end, parent, overhead]`` kept in memory until
    the round ends, plus counters recorded at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.distinct: dict[str, set] = {}
        self.unmeasured: set[str] = set()
        self._class_counts: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                self._count(name, after, args, kwargs, result)
                if parent >= 0:
                    spans[parent][4] += clock() - record[2]
            return result

        return wrapper

    def _count(self, name, after, args, kwargs, result) -> None:
        try:
            after(self, args, kwargs, result)
        except Exception as exc:  # a changed signature must not stop the run
            if name not in self.unmeasured:
                print(f"perfbench: counters of {name} unmeasured: {exc!r}", file=sys.stderr)
            self.unmeasured.add(name)

    def class_count(self, proxy, entity_class: str) -> int:
        counts = self._class_counts.setdefault(proxy, {})
        if entity_class not in counts:
            counts[entity_class] = len(proxy.scan(entity_class))
        return counts[entity_class]

    def self_times(self) -> dict[str, float]:
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, overhead) in enumerate(self.spans):
            out[name] += end - start - children[i] - overhead
        return dict(out)

    def total_times(self, name: str) -> float:
        return sum((end - start for n, start, end, _, _ in self.spans if n == name), 0.0)


# ---------------------------------------------------------------------------
# Counters per layer
# ---------------------------------------------------------------------------


def _execute(t: Tracer, args, kwargs, results) -> None:
    descriptors = argument(args, kwargs, 0, "descriptors")
    proxy = argument(args, kwargs, 1, "proxy")
    t.counters["hunt.execute.calls"] += 1
    t.counters["hunt.execute.descriptors"] += len(descriptors)
    for q in descriptors:
        t.counters["hunt.execute.events_scanned"] += t.class_count(proxy, q.entity_class)
        t.counters["hunt.execute.hits"] += len(results[q.qid])
        t.distinct.setdefault("hunt.execute", set()).add((q.entity_class, q.predicates))


def _build_graph(t: Tracer, args, kwargs, graph) -> None:
    results = argument(args, kwargs, 0, "results")
    descriptors = argument(args, kwargs, 1, "descriptors")
    t.counters["hunt.build_graph.calls"] += 1
    for q in descriptors:
        for rel in q.relations:
            t.counters["hunt.build_graph.pairs"] += len(results.get(q.qid, [])) * len(results.get(rel.peer_qid, []))
    for edge in graph.edges:
        t.counters[f"hunt.build_graph.edges_{edge.kind}"] += 1


def _match(t: Tracer, args, kwargs, result) -> None:
    graph = argument(args, kwargs, 0, "graph")
    t.counters["hunt.match.calls"] += 1
    t.counters["hunt.match.hosts"] += len(graph.hosts())


def _load(t: Tracer, args, kwargs, result) -> None:
    path = argument(args, kwargs, 1, "path")
    with open(path, "rb") as handle:
        data = handle.read()
    t.counters["hunt.load.bytes"] += len(data)
    t.counters["hunt.load.events"] += sum(1 for line in data.splitlines() if line.strip())


def _load_stores(t: Tracer, args, kwargs, result) -> None:
    store, ioc_db, _ = result
    t.counters["stores.load_stores.records"] += len(store) + len(ioc_db.records)


def _run_gpe(t: Tracer, args, kwargs, result) -> None:
    t.counters["gpe.archive.size"] += len(result.archive)


def _operator(name: str):
    def count(t: Tracer, args, kwargs, result) -> None:
        t.counters[f"{name}.calls"] += 1
        children = result if isinstance(result, tuple) else (result,)
        t.counters["gpe.operators.flagged"] += sum(1 for c in children if c.lineage.flag is not None)

    return count


def _calls(name: str):
    def count(t: Tracer, args, kwargs, result) -> None:
        t.counters[f"{name}.calls"] += 1

    return count


def _schedule(t: Tracer, args, kwargs, result) -> None:
    t.counters["hunt.schedule.descriptors"] += len(result)


def _concretize(t: Tracer, args, kwargs, result) -> None:
    t.counters["interpreter.concretize.impls"] += len(result.implementations)


def _fitness(t: Tracer, args, kwargs, result) -> None:
    t.counters["gpe.fitness.calls"] += 1
    t.distinct.setdefault("gpe.fitness", set()).add(tree_key(argument(args, kwargs, 0, "candidate_tree")))


COUNTERS = {
    "dsl.parse": _calls("dsl.parse"),
    "dsl.validate": _calls("dsl.validate"),
    "dsl.content_hash": _calls("dsl.content_hash"),
    "stores.load_stores": _load_stores,
    "stores.resolve_bind": _calls("stores.resolve_bind"),
    "interpreter.concretize": _concretize,
    "hunt.load": _load,
    "hunt.schedule": _schedule,
    "hunt.execute": _execute,
    "hunt.build_graph": _build_graph,
    "hunt.match": _match,
    "gpe.run": _run_gpe,
    "gpe.mutate": _operator("gpe.mutate"),
    "gpe.crossover": _operator("gpe.crossover"),
    "gpe.perturb_iocs": _operator("gpe.perturb_iocs"),
    "malmo.generate_dsl": _calls("malmo.generate_dsl"),
}


def install(tracer: Tracer, patches: Patches) -> set[str]:
    """Wrap every target; returns the layers that could not be found."""
    missing = set()
    for layer, public in TARGETS.items():
        after = COUNTERS.get(layer)
        if layer == "gpe.run":
            make = lambda fn, after=after: tracer.span("gpe.run", _with_traced_fitness(tracer, fn), after)
        else:
            make = lambda fn, layer=layer, after=after: tracer.span(layer, fn, after)
        if not patches.install(public, make):
            missing.add(layer)
    return missing


def _with_traced_fitness(tracer: Tracer, run_gpe: Callable) -> Callable:
    """run_gpe whose fitness function, when given, records its own spans."""

    @functools.wraps(run_gpe)
    def wrapper(*args, **kwargs):
        if kwargs.get("fitness_fn") is not None:
            kwargs["fitness_fn"] = tracer.span("gpe.fitness", kwargs["fitness_fn"], _fitness)
        elif len(args) > 2 and args[2] is not None:
            args = (*args[:2], tracer.span("gpe.fitness", args[2], _fitness), *args[3:])
        return run_gpe(*args, **kwargs)

    return wrapper


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# Per-layer metric -> unit.  Every traced run prints all of them.
PER_LAYER = {
    "hunt.build_graph.s": "s",
    "hunt.build_graph.calls": "count",
    "hunt.build_graph.pairs": "count",
    "hunt.build_graph.edges_link": "count",
    "hunt.build_graph.edges_window": "count",
    "hunt.build_graph.edge_yield": "ratio",
    "hunt.execute.s": "s",
    "hunt.execute.calls": "count",
    "hunt.execute.events_scanned": "count",
    "hunt.execute.hits": "count",
    "hunt.execute.distinct_share": "ratio",
    "hunt.load.s": "s",
    "hunt.load.events": "count",
    "hunt.load.bytes": "bytes",
    "hunt.match.s": "s",
    "hunt.match.calls": "count",
    "hunt.match.hosts": "count",
    "hunt.schedule.s": "s",
    "hunt.schedule.descriptors": "count",
    "hunt.render_report.s": "s",
    "stores.load_stores.s": "s",
    "stores.load_stores.records": "count",
    "stores.resolve_bind.s": "s",
    "stores.resolve_bind.calls": "count",
    "dsl.parse.s": "s",
    "dsl.parse.calls": "count",
    "dsl.validate.s": "s",
    "dsl.validate.calls": "count",
    "dsl.content_hash.s": "s",
    "dsl.content_hash.calls": "count",
    "interpreter.concretize.s": "s",
    "interpreter.concretize.impls": "count",
    "interpreter.expand_binds.s": "s",
    "gpe.self_s": "s",
    "gpe.fitness.s": "s",
    "gpe.fitness.calls": "count",
    "gpe.fitness.distinct_share": "ratio",
    "gpe.archive.size": "count",
    "gpe.mutate.calls": "count",
    "gpe.crossover.calls": "count",
    "gpe.perturb_iocs.calls": "count",
    "gpe.operators.flagged": "count",
    "malmo.generate_dsl.s": "s",
    "malmo.generate_dsl.calls": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# Layer whose absence leaves a metric unmeasured.
_LAYER_OF = {"gpe.self_s": "gpe.run", "gpe.fitness": "gpe.run", "gpe.archive": "gpe.run", "gpe.operators": "gpe.mutate", "cli.self_s": "cli"}


def layer_of(metric: str) -> str:
    for prefix, layer in _LAYER_OF.items():
        if metric.startswith(prefix):
            return layer
    return metric.rsplit(".", 1)[0]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead."""
    self_s = tracer.self_times()
    c = tracer.counters
    fitness_s = tracer.total_times("gpe.fitness")
    out = {name: float(self_s.get(name.rsplit(".", 1)[0], 0.0)) for name in PER_LAYER if name.endswith(".s")}
    out.update({name: c[name] for name in PER_LAYER if PER_LAYER[name] in ("count", "bytes")})
    out["gpe.fitness.s"] = fitness_s
    out["gpe.self_s"] = tracer.total_times("gpe.run") - fitness_s
    out["cli.self_s"] = self_s.get("cli", 0.0)
    edges = c["hunt.build_graph.edges_link"] + c["hunt.build_graph.edges_window"]
    out["hunt.build_graph.edge_yield"] = _share(edges, c["hunt.build_graph.pairs"])
    out["hunt.execute.distinct_share"] = _share(
        len(tracer.distinct.get("hunt.execute", ())), c["hunt.execute.descriptors"]
    )
    out["gpe.fitness.distinct_share"] = _share(len(tracer.distinct.get("gpe.fitness", ())), c["gpe.fitness.calls"])
    return out
