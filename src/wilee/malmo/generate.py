"""Template filling: turn a technique description into a DSL function.

Selected classes become object instantiations; variables with a
compatible, technique-matching indicator in the IOC database become
attribute assignments (a literal for a single candidate a literal may
hold, a bind otherwise); relation statements come from priors mined
over the existing expert-authored store.
"""

from __future__ import annotations

from ..dsl import (
    AstNode,
    attribute_assign,
    bind,
    function_def,
    instantiation,
    literal,
    relation,
    step_identifier,
    validate,
)
from ..dsl.vocab import is_literal_text
from ..hunt.query import read_body
from ..stores import DataModel, IocDb, TtpStore, ioc_type_for_variable, resolve_bind
from .phrases import extract_noun_phrases
from .scoring import ClassScore, score_classes, select_classes

DEFAULT_TOP_N = 5


class NoClassesSelected(Exception):
    """Every class scored zero against the description."""


Triple = tuple[str, str, str]  # (subject class, verb, object class)


def mine_relation_priors(store: TtpStore) -> dict[Triple, int]:
    """Count (subject class, verb, object class) triples across the
    store's expert-authored functions."""
    counts: dict[Triple, int] = {}
    for record in store.records:
        if record.source != "SME":
            continue
        objects, relations = read_body(record.ast)
        for subj, verb, obj in relations:
            triple = (objects[subj][0], verb, objects[obj][0])
            counts[triple] = counts.get(triple, 0) + 1
    return counts


def object_name(class_name: str) -> str:
    return class_name.lower().replace("_", "") + "1"


def generate_dsl(
    technique_id: str,
    description_text: str,
    model: DataModel,
    ioc_db: IocDb,
    priors: dict[Triple, int],
    n: int = DEFAULT_TOP_N,
    pretagged: bool = False,
) -> tuple[AstNode, list[ClassScore]]:
    """Build a TTP function for the technique; returns the function AST
    together with the full score table for auditability.

    Raises :class:`NoClassesSelected` when nothing in the description
    matches the data model.
    """
    phrases = extract_noun_phrases(description_text, pretagged=pretagged)
    scores = score_classes(model, phrases)
    selected = select_classes(scores, n)
    if not selected:
        raise NoClassesSelected(f"no data-model class matches the {technique_id} description")

    body: list[AstNode] = []
    objects: dict[str, str] = {}  # class -> object name
    for class_name in selected:
        var = object_name(class_name)
        objects[class_name] = var
        body.append(instantiation(var, class_name))

    for class_name in selected:
        var = objects[class_name]
        for variable in model.variables_by_class[class_name]:
            ioc_type = ioc_type_for_variable(variable)
            if ioc_type is None:
                continue
            matching = resolve_bind(ioc_db, ioc_type, technique=technique_id)
            if len(matching) == 1 and is_literal_text(matching[0].value):
                body.append(attribute_assign(var, variable, literal(matching[0].value)))
            elif matching:
                body.append(attribute_assign(var, variable, bind(ioc_type, technique=technique_id)))

    for subj_cls, verb, obj_cls in sorted(priors):
        if subj_cls in objects and obj_cls in objects:
            body.append(relation(objects[subj_cls], verb, objects[obj_cls]))

    fn = function_def(step_identifier(technique_id), tuple(body))
    problems = validate(fn, model)
    if problems:
        raise AssertionError(f"generated DSL failed validation: {problems}")
    return fn, scores


def scores_to_json(scores: list[ClassScore]) -> list[dict]:
    ordered = sorted(scores, key=lambda s: (-s.inclusion_value, s.class_name))
    return [
        {
            "class_name": s.class_name,
            "inclusion_value": s.inclusion_value,
            "per_variable": s.per_variable,
        }
        for s in ordered
    ]
