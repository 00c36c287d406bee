import random
import string

import pytest

from oracles import (
    oracle_class_inclusion,
    oracle_select,
    oracle_word_frequency,
    oracle_word_match_value,
)

from wilee.malmo import (
    ClassScore,
    class_inclusion,
    score_classes,
    select_classes,
    split_identifier,
    stem,
    word_frequency,
    word_match_value,
)
from wilee.malmo.phrases import NounPhrase
from wilee.stores import DataModel


def phrase(*words):
    return NounPhrase(tuple(words), (0, 0))


# ---------------------------------------------------------------------------
# Splitting and stemming
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "identifier, expected",
    [
        ("WinRegistryKey", ["win", "registry", "key"]),
        ("win_registry_key", ["win", "registry", "key"]),
        ("command_line", ["command", "line"]),
        ("DNSQuery", ["dns", "query"]),
        ("HTTPSession", ["http", "session"]),
        ("name", ["name"]),
        ("event_id_code", ["event", "id", "code"]),
    ],
)
def test_identifier_splitting(identifier, expected):
    assert split_identifier(identifier) == expected


@pytest.mark.parametrize(
    "word, expected",
    [
        ("keys", "key"),
        ("sessions", "session"),
        ("registries", "registry"),
        ("processes", "process"),
        ("process", "process"),
        ("boxes", "box"),
        ("values", "value"),
        ("os", "os"),
        ("is", "is"),
        ("windows", "window"),
    ],
)
def test_light_stemming(word, expected):
    assert stem(word) == expected


# ---------------------------------------------------------------------------
# word_frequency
# ---------------------------------------------------------------------------


def test_frequency_single_class():
    model = DataModel({"process": ("name",)})
    assert word_frequency(model) == {"process": 1, "name": 1}


def test_frequency_counts_occurrences():
    model = DataModel(
        {
            "ProcessTree": ("process_id", "parent_process", "process_name"),
        }
    )
    assert word_frequency(model)["process"] == 4


def test_frequency_matches_recount_on_shipped_model(model):
    assert word_frequency(model) == oracle_word_frequency(model.variables_by_class)


# ---------------------------------------------------------------------------
# word_match_value
# ---------------------------------------------------------------------------


def test_single_exact_match_scores_100():
    freq = {"registry": 1}
    value = word_match_value(phrase("registry"), "X", "registry", freq)
    assert value == pytest.approx(100.0)


def test_no_overlap_scores_zero():
    freq = {"registry": 1, "name": 2}
    assert word_match_value(phrase("socket"), "X", "registry", freq) == 0.0


def test_partial_match_with_stemming_and_frequencies():
    # Phrase [window, registry, keys] vs variable "win_registry_key":
    # registry and key match; mean(1/3, 1/5) * (2/3 * 100) = 17.78.
    freq = {"win": 1, "registry": 3, "key": 5}
    value = word_match_value(
        phrase("window", "registry", "keys"), "X", "win_registry_key", freq
    )
    assert value == pytest.approx(17.78, abs=0.01)


def test_bounded_when_frequencies_at_least_one(model):
    freq = word_frequency(model)
    rng = random.Random(3)
    vocabulary = list(freq)
    for _ in range(300):
        words = tuple(rng.choice(vocabulary) for _ in range(rng.randrange(1, 4)))
        variable = rng.choice([v for vs in model.variables_by_class.values() for v in vs])
        value = word_match_value(phrase(*words), "X", variable, freq)
        assert 0.0 <= value <= 100.0


# ---------------------------------------------------------------------------
# class_inclusion / select_classes
# ---------------------------------------------------------------------------


def test_inclusion_sums_per_variable_and_class_pseudo_variable():
    freq = {"process": 1, "name": 1, "pid": 1}
    score = class_inclusion("Process", ("name", "pid"), [phrase("process"), phrase("name")], freq)
    assert score.inclusion_value == pytest.approx(200.0)
    assert score.per_variable["Process"] == pytest.approx(100.0)
    assert score.per_variable["name"] == pytest.approx(100.0)
    assert score.per_variable["pid"] == 0.0
    assert score.inclusion_value == pytest.approx(sum(score.per_variable.values()))


def test_zero_matching_class_scores_zero():
    score = class_inclusion("Mutex", ("mutex_name",), [phrase("socket")], {"socket": 1})
    assert score.inclusion_value == 0.0


def test_inclusion_monotone_in_phrases():
    freq = {"process": 1, "name": 2, "registry": 1}
    base = class_inclusion("Process", ("name",), [phrase("name")], freq)
    more = class_inclusion("Process", ("name",), [phrase("name"), phrase("process")], freq)
    assert more.inclusion_value >= base.inclusion_value


def test_select_excludes_zeros_even_within_n():
    scores = [
        ClassScore("A", 10.0, {}),
        ClassScore("B", 0.0, {}),
        ClassScore("C", 5.0, {}),
    ]
    assert select_classes(scores, 3) == ["A", "C"]


def test_select_breaks_ties_by_name():
    scores = [ClassScore(n, 5.0, {}) for n in ("Zeta", "Alpha", "Mid")]
    assert select_classes(scores, 2) == ["Alpha", "Mid"]


def test_select_matches_sort_oracle():
    rng = random.Random(11)
    for _ in range(200):
        table = {
            "".join(rng.choice(string.ascii_uppercase) for _ in range(4)): rng.choice(
                (0.0, rng.random() * 100)
            )
            for _ in range(rng.randrange(1, 10))
        }
        scores = [ClassScore(name, value, {}) for name, value in table.items()]
        n = rng.randrange(1, 6)
        assert select_classes(scores, n) == oracle_select(table, n)


def test_scale_invariance_of_selection(model):
    freq = word_frequency(model)
    phrases = [phrase("window", "registry", "keys"), phrase("malicious", "process")]
    baseline = [
        class_inclusion(c, v, phrases, freq) for c, v in model.variables_by_class.items()
    ]
    scaled_freq = {w: c * 7 for w, c in freq.items()}
    scaled = [
        class_inclusion(c, v, phrases, scaled_freq)
        for c, v in model.variables_by_class.items()
    ]
    for a, b in zip(baseline, scaled):
        assert b.inclusion_value == pytest.approx(a.inclusion_value / 7)
    assert select_classes(baseline, 5) == select_classes(scaled, 5)


# ---------------------------------------------------------------------------
# Oracle equivalence over random instances
# ---------------------------------------------------------------------------


def random_instance(rng):
    wordpool = [
        "win", "registry", "key", "keys", "process", "name", "file", "path",
        "network", "connection", "domain", "service", "session", "command",
        "line", "user", "account", "host", "memory", "driver",
    ]
    classes = {}
    for _ in range(rng.randrange(1, 7)):
        class_name = "".join(
            w.capitalize() for w in rng.sample(wordpool, rng.randrange(1, 3))
        )
        variables = tuple(
            "_".join(rng.sample(wordpool, rng.randrange(1, 3)))
            for _ in range(rng.randrange(0, 5))
        )
        classes[class_name] = variables
    phrases = [
        phrase(*(rng.choice(wordpool) for _ in range(rng.randrange(1, 4))))
        for _ in range(rng.randrange(0, 5))
    ]
    return classes, phrases


def test_formulas_match_oracle_on_random_instances():
    rng = random.Random(271828)
    for _ in range(300):
        classes, phrases = random_instance(rng)
        model = DataModel(classes)
        freq = word_frequency(model)
        assert freq == oracle_word_frequency(classes)
        for class_name, variables in classes.items():
            for variable in variables:
                for p in phrases:
                    mine = word_match_value(p, class_name, variable, freq)
                    theirs = oracle_word_match_value(list(p.words), variable, freq)
                    assert mine == pytest.approx(theirs, abs=1e-9)
            mine = class_inclusion(class_name, variables, phrases, freq).inclusion_value
            theirs = oracle_class_inclusion(
                class_name, variables, [list(p.words) for p in phrases], freq
            )
            assert mine == pytest.approx(theirs, abs=1e-9)


def test_score_classes_matches_oracle_on_random_models():
    # Each identifier and phrase word is split and stemmed once per call;
    # the sums must come out bit for bit as the oracle's plain loops add
    # them, so that ``scores.json`` keeps its bytes.
    rng = random.Random(16180)
    for _ in range(300):
        classes, phrases = random_instance(rng)
        model = DataModel(classes)
        freq = oracle_word_frequency(classes)
        words = [list(p.words) for p in phrases]
        got = {s.class_name: s.inclusion_value for s in score_classes(model, phrases)}
        assert got == {name: oracle_class_inclusion(name, variables, words, freq) for name, variables in classes.items()}
