"""Round-trip identity between the parser and the pretty printer."""

import random
from pathlib import Path

from conftest import random_module

from wilee.dsl import AstGenerator, parse, pretty_print

CORPUS = Path(__file__).parent / "fixtures" / "corpus"


def test_corpus_roundtrip_span_insensitive():
    for path in sorted(CORPUS.glob("*.wdsl")):
        tree = parse(path.read_text("utf-8"))
        assert parse(pretty_print(tree)) == tree, path.name


def test_generated_roundtrip_unconstrained():
    rng = random.Random(4242)
    gen = AstGenerator(rng)
    for _ in range(300):
        tree = random_module(gen)
        assert parse(pretty_print(tree)) == tree


def test_generated_roundtrip_model_valid(model):
    rng = random.Random(777)
    gen = AstGenerator(rng, model=model)
    for _ in range(300):
        tree = random_module(gen)
        assert parse(pretty_print(tree)) == tree
