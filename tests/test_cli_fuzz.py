"""Seeded fuzzing of every CLI input and of the DSL front end.

Byte level: each case mutates one input file of a small workspace (bit
flips, a truncation, an inserted ``\\xff`` byte, or an inserted CR, LF
or U+2028) and runs the command that reads it.  Whatever the bytes,
``main`` must return an exit code in 0-5, raise nothing, print no
traceback, and on exit 2 name the mutated file.

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

from conftest import FIXTURES, PlantedAttack, T1059_SRC, T1552_PUTTY_SRC, synth_log, write_ndjson

from wilee.cli import main
from wilee.dsl import AstGenerator, DslSyntaxError, parse, pretty_print, validate
from wilee.stores import DataModel

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


@pytest.mark.parametrize("kind", list(INPUTS))
def test_mutated_input_exits_with_a_code(tmp_path, capsys, kind):
    _workspace(tmp_path)
    name, command = INPUTS[kind]
    target = tmp_path / name
    original = target.read_bytes()
    assert main(_argv(tmp_path, command, tmp_path / "clean")) == 0
    for seed in SEEDS:
        for label, mutate in MUTATORS.items():
            rng = random.Random(f"{kind}/{label}/{seed}")
            target.write_bytes(mutate(rng, original))
            code = main(_argv(tmp_path, command, tmp_path / f"out-{label}-{seed}"))
            err = capsys.readouterr().err
            assert code in range(6), f"{label} seed {seed}: exit {code}\n{err}"
            assert "Traceback" not in err, f"{label} seed {seed}"
            if code == 2:
                assert target.name in err, f"{label} seed {seed}: exit 2 without naming {name}\n{err}"


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
    gen = AstGenerator(rng, model=model, max_functions=3, max_statements=5)
    terminals = ["def", "pass", "bind", "(", ")", ":", "=", ".", ",", "\n", "    "]
    parsed = clean = 0
    for _ in range(400):
        a = _tokens(pretty_print(gen.random_module()))
        b = _tokens(pretty_print(gen.random_module())) + terminals
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
