"""Seeded byte-level fuzzing of every CLI input.

Each case mutates one input file of a small workspace (bit flips, a
truncation, an inserted ``\\xff`` byte, or an inserted CR, LF or U+2028)
and runs the command that reads it.  Whatever the bytes, ``main`` must
return an exit code in 0-5, raise nothing and print no traceback.
"""

import json
import random
import shutil
from importlib import resources

import pytest

from conftest import FIXTURES, PlantedAttack, T1059_SRC, T1552_PUTTY_SRC, synth_log, write_ndjson

from wilee.cli import main

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
