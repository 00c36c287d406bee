"""Genetic operators over candidate trees.

All three operators are closed over validity: offspring always pass
validation against the grammar and data model, or the parent comes back
unchanged with a flag after bounded retries.  Every operator is a pure
function of its inputs and an explicit seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

from ..dsl import (
    AstNode,
    AstGenerator,
    NodeKind,
    get_node,
    iter_nodes,
    literal,
    replace_node,
    text_hash,
    tree_depth,
    validate,
)
from ..dsl.ast import NodePath
from ..dsl.vocab import is_literal_text
from ..hunt.query import QueryDescriptor, schedule
from ..interpreter import ThreatImplementation, implementation_from_module
from ..stores import DataModel, IocDb, ioc_type_for_variable, is_abstract, resolve_bind
from .behavior import Behavior, behavior_of

DEFAULT_MAX_DEPTH = 12
DEFAULT_RETRIES = 20

#: Nonterminal each node kind derives from.  For genetic operators the
#: interesting label is the *position* a subtree hangs off, so literals
#: and binds both map to ``value`` and the three concrete statement
#: kinds plus abstract calls all map to ``statement``.
NODE_NONTERMINAL = {
    NodeKind.MODULE: "module",
    NodeKind.FUNCTION_DEF: "function",
    NodeKind.OBJECT_INSTANTIATION: "statement",
    NodeKind.ATTRIBUTE_ASSIGN: "statement",
    NodeKind.RELATION_STMT: "statement",
    NodeKind.ABSTRACT_CALL: "statement",
    NodeKind.LITERAL: "value",
    NodeKind.BIND_EXPR: "value",
    NodeKind.IDENTIFIER: "identifier",
}

#: Nonterminal labels the operators may touch (module roots excluded;
#: whole-function regeneration is reserved for mutation).
MUTATION_LABELS = frozenset({"function", "statement", "value", "identifier"})
CROSSOVER_LABELS = frozenset({"statement", "value", "identifier"})


@dataclass(frozen=True)
class Lineage:
    parents: tuple[str, ...]
    operator: str
    paths: tuple[NodePath, ...] = ()
    flag: Optional[str] = None


@dataclass
class Candidate:
    uid: str
    digest: str  # content hash of ``ast``, the hash of ``text``
    ast: AstNode  # Module of concrete functions
    impl: ThreatImplementation  # ``ast`` wrapped one step per function
    descriptors: list[QueryDescriptor]  # ``impl``'s schedule
    behavior: Behavior
    lineage: Lineage
    fitness: Optional[float] = None
    novelty: float = 0.0

    @property
    def text(self) -> str:
        """``pretty_print(ast)``."""
        return _module_text(self.impl)

    @classmethod
    def from_ast(cls, tree: AstNode, lineage: Lineage, model: DataModel) -> "Candidate":
        """The candidate of a valid module: its bodies are read once, by
        :func:`~wilee.hunt.schedule`, for its behavior and its fitness,
        and each function is printed once, for its digest and its step's
        record id."""
        impl = implementation_from_module(tree)
        digest = text_hash(_module_text(impl))
        descriptors = schedule(impl, model)
        return cls(uid=digest, digest=digest, ast=tree, impl=impl, descriptors=descriptors,
                   behavior=behavior_of(descriptors), lineage=lineage)


def _module_text(impl: ThreatImplementation) -> str:
    """``pretty_print`` of the module ``impl`` wraps one step per function,
    from the text each step's record keeps."""
    return "\n".join(step.record.text for step in impl.steps)


def is_valid(tree: AstNode, model: DataModel) -> bool:
    return not validate(tree, model)


def mutable_sites(tree: AstNode, labels: frozenset[str]) -> list[tuple[NodePath, AstNode]]:
    return [
        (path, node)
        for path, node in iter_nodes(tree)
        if path and NODE_NONTERMINAL[node.kind] in labels
    ]


def _scope_before(fn: AstNode, stmt_index: int) -> dict[str, str]:
    scope: dict[str, str] = {}
    for stmt in fn.children[:stmt_index]:
        if stmt.kind is NodeKind.OBJECT_INSTANTIATION:
            scope[stmt.attrs["var"]] = stmt.attrs["class_name"]
    return scope


def _attrs_assigned_later(fn: AstNode, stmt_index: int, var: str) -> frozenset[str]:
    needed = set()
    for stmt in fn.children[stmt_index + 1 :]:
        if (
            stmt.kind is NodeKind.ATTRIBUTE_ASSIGN
            and stmt.children[0].attrs["name"] == var
        ):
            needed.add(stmt.attrs["attribute"])
    return frozenset(needed)


def _var_used_later(fn: AstNode, stmt_index: int, var: str) -> bool:
    for stmt in fn.children[stmt_index + 1 :]:
        for _, node in iter_nodes(stmt):
            if node.kind is NodeKind.IDENTIFIER and node.attrs["name"] == var:
                return True
    return False


def _regenerate(tree: AstNode, path: NodePath, node: AstNode, gen: AstGenerator) -> Optional[AstNode]:
    """Fresh subtree for the same grammar position, respecting the
    variables in scope at the site; ``gen`` holds a data model."""
    if node.kind is NodeKind.FUNCTION_DEF:
        return gen.random_function(name=node.attrs["name"], abstract=is_abstract(node))

    fn = get_node(tree, path[:1])
    stmt_index = path[1]
    scope = _scope_before(fn, stmt_index)
    abstract = is_abstract(fn)

    if len(path) == 2:  # statement position
        if node.kind is NodeKind.OBJECT_INSTANTIATION and _var_used_later(
            fn, stmt_index, node.attrs["var"]
        ):
            # Later statements reference this object: keep the name and
            # pick a class still carrying the attributes assigned later.
            return gen.random_instantiation(
                scope,
                var=node.attrs["var"],
                must_have=_attrs_assigned_later(fn, stmt_index, node.attrs["var"]),
            )
        return gen.random_statement(scope, abstract)

    stmt = fn.children[stmt_index]
    if node.kind in (NodeKind.LITERAL, NodeKind.BIND_EXPR):
        return gen.random_value()
    if node.kind is NodeKind.IDENTIFIER:
        if stmt.kind is NodeKind.ATTRIBUTE_ASSIGN:
            attribute = stmt.attrs["attribute"]
            eligible = {
                var: cls
                for var, cls in scope.items()
                if attribute in gen.classes.get(cls, ())
            } or scope
            return gen.random_identifier(eligible)
        return gen.random_identifier(scope)
    return None


def mutate(
    c: Candidate,
    model: Optional[DataModel] = None,
    rng_seed: int = 0,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> Candidate:
    """Replace one uniformly chosen mutable subtree with a freshly
    generated one at the same nonterminal position.  After
    ``DEFAULT_RETRIES`` failures to produce a valid, different tree the
    parent returns unchanged with a ``max-retries`` flag."""
    model = model or DataModel.default()
    rng = random.Random(rng_seed)
    gen = AstGenerator(rng, model=model)
    sites = mutable_sites(c.ast, MUTATION_LABELS)
    if not sites:
        return replace_lineage(c, Lineage((c.uid,), "mutate", flag="no-sites"))
    for _ in range(DEFAULT_RETRIES):
        path, node = sites[rng.randrange(len(sites))]
        replacement = _regenerate(c.ast, path, node, gen)
        if replacement is None:
            continue
        offspring = replace_node(c.ast, path, replacement)
        if offspring == c.ast or tree_depth(offspring) > max_depth:
            continue
        if is_valid(offspring, model):
            return Candidate.from_ast(offspring, Lineage((c.uid,), "mutate", (path,)), model)
    return replace_lineage(c, Lineage((c.uid,), "mutate", flag="max-retries"))


def replace_lineage(c: Candidate, lineage: Lineage) -> Candidate:
    return replace(c, lineage=lineage, novelty=0.0)


def crossover(
    a: Candidate,
    b: Candidate,
    model: Optional[DataModel] = None,
    rng_seed: int = 0,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> tuple[Candidate, Candidate]:
    """Swap subtrees rooted at a same-nonterminal node pair.  Parents
    come back flagged ``no-common-nonterminal`` when no such pair exists
    or no swap yields two valid offspring."""
    model = model or DataModel.default()
    rng = random.Random(rng_seed)
    sites_a = mutable_sites(a.ast, CROSSOVER_LABELS)
    sites_b = mutable_sites(b.ast, CROSSOVER_LABELS)
    by_label_a: dict[str, list] = {}
    for site in sites_a:
        by_label_a.setdefault(NODE_NONTERMINAL[site[1].kind], []).append(site)
    by_label_b: dict[str, list] = {}
    for site in sites_b:
        by_label_b.setdefault(NODE_NONTERMINAL[site[1].kind], []).append(site)
    common = sorted(set(by_label_a) & set(by_label_b))
    if not common:
        flag = Lineage((a.uid, b.uid), "crossover", flag="no-common-nonterminal")
        return replace_lineage(a, flag), replace_lineage(b, flag)

    for _ in range(DEFAULT_RETRIES):
        label = common[rng.randrange(len(common))]
        path_a, node_a = by_label_a[label][rng.randrange(len(by_label_a[label]))]
        path_b, node_b = by_label_b[label][rng.randrange(len(by_label_b[label]))]
        child_a = replace_node(a.ast, path_a, node_b)
        child_b = replace_node(b.ast, path_b, node_a)
        if tree_depth(child_a) > max_depth or tree_depth(child_b) > max_depth:
            continue
        if is_valid(child_a, model) and is_valid(child_b, model):
            lineage = Lineage((a.uid, b.uid), "crossover", (path_a, path_b))
            return Candidate.from_ast(child_a, lineage, model), Candidate.from_ast(child_b, lineage, model)
    flag = Lineage((a.uid, b.uid), "crossover", flag="no-common-nonterminal")
    return replace_lineage(a, flag), replace_lineage(b, flag)


def perturb_iocs(
    c: Candidate,
    db: IocDb,
    model: Optional[DataModel] = None,
    rng_seed: int = 0,
    probability: float = 0.5,
) -> Candidate:
    """Swap indicator values for different type-matched ones from the
    database.

    Bind sites draw uniformly from their resolved candidates; literal
    sites whose variable maps to an ioc_type draw uniformly from the
    other values of that type.  Only values a literal may hold are
    candidates.  Sites with fewer than two candidates are left
    untouched, and substitution never crosses ioc_types.
    """
    model = model or DataModel.default()
    rng = random.Random(rng_seed)
    tree = c.ast
    changed: list[NodePath] = []
    for path, node in list(iter_nodes(c.ast)):
        if node.kind is not NodeKind.ATTRIBUTE_ASSIGN:
            continue
        value_path = path + (1,)
        value = node.children[1]
        if value.kind is NodeKind.BIND_EXPR:
            options = resolve_bind(db, **value.attrs)
        else:
            ioc_type = ioc_type_for_variable(node.attrs["attribute"])
            options = [] if ioc_type is None else resolve_bind(db, ioc_type)
        options = [r for r in options if is_literal_text(r.value)]
        # A literal site draws a value other than its own; a bind has none.
        choices = [r for r in options if r.value != value.attrs.get("value")]
        if len(options) < 2 or not choices or rng.random() >= probability:
            continue
        pick = choices[rng.randrange(len(choices))]
        tree = replace_node(tree, value_path, literal(pick.value))
        changed.append(value_path)
    if not changed:
        return replace_lineage(c, Lineage((c.uid,), "perturb_iocs"))
    return Candidate.from_ast(tree, Lineage((c.uid,), "perturb_iocs", tuple(changed)), model)
