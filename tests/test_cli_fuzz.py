"""Seeded fuzzing of every CLI input and of the DSL front end.

Byte level: each case mutates one input file of a small workspace (bit
flips, a truncation, an inserted ``\\xff`` byte, or an inserted CR, LF
or U+2028) and runs the command that reads it.  Whatever the bytes,
``main`` must return an exit code in 0-5, raise nothing, print no
traceback, and on exit 2 name the mutated file.

JSON level: each case rewrites one value of a JSON input (one line of
a JSON-lines file): a value swapped for one of another type, a key
dropped, or a value nested in a list or an object.  The oracle is the
byte level's, and an exit 2 over a JSON-lines file names the mutated
line as ``file:line``.

For every mutated event log, the whole read, the filtered read the
hunt makes and that read split into three ranges agree on whether the
log is accepted and on the message, and the hunt fails exactly when the
reference read (``tests/oracles.py``) finds a fault, with its
``file:line: message``.

Grammar level: generated modules are printed and token-spliced.
``parse`` raises nothing but :class:`DslSyntaxError`, ``validate``
never raises, and a tree it passes prints as source that parses back.
"""

import json
import random
import re
import shutil
from importlib import resources

import pytest

from conftest import FIXTURES, PlantedAttack, T1059_SRC, T1552_PUTTY_SRC, random_module, synth_log, write_ndjson
from oracles import oracle_read_events

import wilee.hunt.proxy
from wilee.cli import main
from wilee.dsl import AstGenerator, DslSyntaxError, ThreatDescription, parse, pretty_print, validate
from wilee.hunt import NdjsonProxy, ProxyUnavailable, memo_key, schedule
from wilee.interpreter import concretize
from wilee.stores import DataModel, StorePaths, load_stores, read_text

SEEDS = range(8)


def _flip_bits(rng, data):
    data = bytearray(data)
    for _ in range(rng.randrange(1, 5)):
        if data:
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    return bytes(data)


def _truncate(rng, data):
    return data[: rng.randrange(len(data) + 1)]


def _insert(piece):
    def mutate(rng, data):
        at = rng.randrange(len(data) + 1)
        return data[:at] + piece + data[at:]

    return mutate


MUTATORS = {
    "flip": _flip_bits,
    "truncate": _truncate,
    "ff": _insert(b"\xff"),
    "cr": _insert(b"\r"),
    "lf": _insert(b"\n"),
    "u2028": _insert("\u2028".encode()),
}


def _workspace(root):
    store = root / "ttp_store"
    store.mkdir()
    (store / "putty.wdsl").write_text(T1552_PUTTY_SRC, "utf-8")
    (store / "powershell.wdsl").write_text(T1059_SRC, "utf-8")
    (store / "index.jsonl").write_text(
        json.dumps({"technique_id": "T1552.002", "tactic_tags": ["credential-access"], "path": "putty.wdsl"})
        + "\n"
        + json.dumps({"technique_id": "T1059.001", "tactic_tags": ["execution"], "path": "powershell.wdsl"})
        + "\n",
        "utf-8",
    )
    (root / "ioc_db.jsonl").write_text(
        json.dumps({"ioc_type": "registry_hive", "value": "Software\\SimonTatham\\Putty\\Sessions"})
        + "\n"
        + json.dumps({"ioc_type": "process_name", "value": "evil.exe", "technique_id": "T1552.002"})
        + "\n",
        "utf-8",
    )
    write_ndjson(root / "events.ndjson", synth_log(random.Random(7), 20, PlantedAttack.build().events))
    (root / "model.json").write_text(
        resources.files("wilee").joinpath("data/data_model.json").read_text("utf-8"), "utf-8"
    )
    (root / "desc.wdsl").write_text("def putty_hunt():\n    t1552_002()\n    t1059_001()\n", "utf-8")
    shutil.copy(FIXTURES / "technique_t1552_002.json", root / "technique.json")
    (root / "t1552_002.txt").write_text("Adversaries search window registry keys for passwords.", "utf-8")
    (root / "gpe.json").write_text(json.dumps({"population_size": 4, "generations": 1, "seed": 3}), "utf-8")
    (root / "impl.wdsl").write_text(T1552_PUTTY_SRC, "utf-8")


def _argv(root, command, out):
    stores = ["--ttp-store", str(root / "ttp_store"), "--ioc-db", str(root / "ioc_db.jsonl"),
              "--data-model", str(root / "model.json")]
    if command == "hunt":
        return ["hunt", *stores, "--events", str(root / "events.ndjson"), "--desc", str(root / "desc.wdsl"),
                "--out", str(out), "--format", "json"]
    if command == "perturb":
        return ["perturb", str(root / "impl.wdsl"), *stores, "--config", str(root / "gpe.json"), "--out", str(out)]
    return ["malmo", str(root / command), *stores, "--out", str(out)]


INPUTS = {
    "ttp-index": ("ttp_store/index.jsonl", "hunt"),
    "ttp-wdsl": ("ttp_store/putty.wdsl", "hunt"),
    "desc": ("desc.wdsl", "hunt"),
    "ioc-db": ("ioc_db.jsonl", "hunt"),
    "event-log": ("events.ndjson", "hunt"),
    "data-model": ("model.json", "hunt"),
    "technique-json": ("technique.json", "technique.json"),
    "technique-text": ("t1552_002.txt", "t1552_002.txt"),
    "config": ("gpe.json", "perturb"),
    "impl": ("impl.wdsl", "perturb"),
}


def _hunt_keys(root):
    """The filter keys ``wilee hunt`` reads the workspace's log with."""
    store, ioc_db, model = load_stores(StorePaths(root / "ttp_store", root / "ioc_db.jsonl", root / "model.json"))
    desc = ThreatDescription.from_module(parse(read_text(root / "desc.wdsl")))
    impls = concretize(desc, store).implementations
    return [memo_key(q, ioc_db) for impl in impls for q in schedule(impl, model)]


def _read_outcome(path, keys=None):
    try:
        NdjsonProxy(path, keys)
    except ProxyUnavailable as exc:
        return str(exc)
    return "accepted"


def _split_outcome(path, keys):
    """:func:`_read_outcome` of the filtered read split into three ranges."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wilee.hunt.proxy, "_RANGE_BYTES", 1)
        patch.setattr(wilee.hunt.proxy, "_readers", lambda: 3)
        return _read_outcome(path, keys)


def _fuzz(root, capsys, kind, mutators, with_line=False):
    """Runs the command reading input ``kind`` once per seed and mutator
    over a mutated copy, and checks the oracle.  ``mutate(rng, data)``
    returns the new bytes or, ``with_line``, the new bytes and the line
    it changed (``None`` for a whole-document edit)."""
    name, command = INPUTS[kind]
    target = root / name
    original = target.read_bytes()
    keys = _hunt_keys(root) if kind == "event-log" else None
    assert main(_argv(root, command, root / "clean")) == 0
    for seed in SEEDS:
        for label, mutate in mutators.items():
            rng = random.Random(f"{kind}/{label}/{seed}")
            mutated = mutate(rng, original)
            line = None
            if with_line:
                mutated, line = mutated
            target.write_bytes(mutated)
            code = main(_argv(root, command, root / f"out-{label}-{seed}"))
            err = capsys.readouterr().err
            assert code in range(6), f"{label} seed {seed}: exit {code}\n{err}"
            assert "Traceback" not in err, f"{label} seed {seed}"
            if code == 2:
                where = target.name if line is None else f"{target.name}:{line}:"
                assert where in err, f"{label} seed {seed}: exit 2 without naming {where}\n{err}"
            if keys is not None:
                fault = oracle_read_events(target, keys)[2]
                outcome = _read_outcome(target, keys)
                assert outcome == (fault or "accepted"), f"{label} seed {seed}"
                assert _read_outcome(target) == _split_outcome(target, keys) == outcome, f"{label} seed {seed}"
                assert (code == 2) == (fault is not None), f"{label} seed {seed}: exit {code}\n{err}"
                assert fault is None or f"error: {fault}\n" in err, f"{label} seed {seed}: {fault}\n{err}"
    target.write_bytes(original)


@pytest.mark.parametrize("kind", list(INPUTS))
def test_mutated_input_exits_with_a_code(tmp_path, capsys, kind):
    _workspace(tmp_path)
    _fuzz(tmp_path, capsys, kind, MUTATORS)


def _nodes(value, path=()):
    """``(path, value)`` of every value in a JSON document, the root
    first."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _nodes(child, (*path, key))


def _put(doc, path, value):
    """``doc`` with ``value`` at ``path``: set in place, or the new root."""
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


# Each edit returns the edited document.
_OF_ANOTHER_TYPE = (0, 1.5, True, None, "", "x", [], [1], {}, {"k": "v"})


def _retype(rng, doc):
    path, value = rng.choice(list(_nodes(doc)))
    return _put(doc, path, rng.choice([v for v in _OF_ANOTHER_TYPE if type(v) is not type(value)]))


def _drop(rng, doc):
    objects = [value for _, value in _nodes(doc) if isinstance(value, dict) and value]
    if not objects:
        return _nest(rng, doc)
    target = rng.choice(objects)
    del target[rng.choice(list(target))]
    return doc


def _nest(rng, doc):
    path, value = rng.choice(list(_nodes(doc)))
    return _put(doc, path, rng.choice(([value], {"v": value})))


def _json_mutator(edit, lines):
    """A mutator applying ``edit`` to the document, or to one line's
    object when ``lines``; it returns the bytes and the edited line."""

    def mutate(rng, data):
        if not lines:
            return json.dumps(edit(rng, json.loads(data))).encode(), None
        texts = data.decode("utf-8").split("\n")
        index = rng.choice([i for i, text in enumerate(texts) if text.strip()])
        texts[index] = json.dumps(edit(rng, json.loads(texts[index])))
        return "\n".join(texts).encode(), index + 1

    return mutate


JSON_MUTATORS = {"retype": _retype, "drop": _drop, "nest": _nest}
JSON_INPUTS = ("ttp-index", "ioc-db", "event-log", "data-model", "technique-json", "config")


@pytest.mark.parametrize("kind", JSON_INPUTS)
def test_json_mutated_input_exits_with_a_code(tmp_path, capsys, kind):
    _workspace(tmp_path)
    lines = INPUTS[kind][0].endswith((".jsonl", ".ndjson"))
    mutators = {label: _json_mutator(edit, lines) for label, edit in JSON_MUTATORS.items()}
    _fuzz(tmp_path, capsys, kind, mutators, with_line=True)


# A string, a name, a run of blanks, or any other single character.
_TOKEN = re.compile(r'"(?:[^"\\\n]|\\.)*"?|\w+|[ \t]+|.|\n')


def _tokens(text):
    return _TOKEN.findall(text)


def _splice(rng, a, b):
    """A random edit of ``a``'s tokens drawing on ``b``'s (never empty):
    a crossover, a deleted, duplicated or replaced token, or two tokens
    swapped."""
    i, j = rng.randrange(len(a) + 1), rng.randrange(len(b) + 1)
    kind = rng.randrange(5)
    if kind == 0:
        return a[:i] + b[j:]
    if not a:
        return b
    i = min(i, len(a) - 1)
    if kind == 1:
        return a[:i] + a[i + 1 :]
    if kind == 2:
        return a[: i + 1] + a[i:]
    if kind == 3:
        return a[:i] + [b[min(j, len(b) - 1)]] + a[i + 1 :]
    k = rng.randrange(len(a))
    out = list(a)
    out[i], out[k] = out[k], out[i]
    return out


def test_spliced_sources_parse_or_raise_syntax_error():
    model = DataModel.default()
    rng = random.Random(2104)
    gen = AstGenerator(rng, model=model, max_statements=5)
    terminals = ["def", "pass", "bind", "(", ")", ":", "=", ".", ",", "\n", "    "]
    parsed = clean = 0
    for _ in range(400):
        a = _tokens(pretty_print(random_module(gen, max_functions=3)))
        b = _tokens(pretty_print(random_module(gen, max_functions=3))) + terminals
        source = "".join(_splice(rng, a, b))
        try:
            tree = parse(source)
        except DslSyntaxError:
            continue
        parsed += 1
        if not validate(tree, model):
            clean += 1
            printed = pretty_print(tree)
            assert pretty_print(parse(printed)) == printed, source
    # The splices must reach both outcomes for the oracle to mean much.
    assert 0 < clean <= parsed < 400
