"""Random tree generation.

Two consumers: round-trip testing samples arbitrary grammar-conformant
trees (``model=None``), and the genetic perturbation engine regenerates
subtrees that must stay valid against a data model and the variables in
scope at the mutation site (``model`` given).
"""

from __future__ import annotations

import random
from typing import Optional

from . import ast
from .ast import AstNode, RELATION_VERBS
from .vocab import CANONICAL_TACTICS, IOC_TYPES, KEYWORDS

# Characters literals are drawn from; weighted toward the path-like
# values the domain uses, with escapes and non-ASCII mixed in.
_LITERAL_CHARS = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    "\\\\\\***\"  ._-:/|()$%&'é漢µ"
)


def _random_name(rng: random.Random, prefix: str = "") -> str:
    first = rng.choice("abcdefghijklmnopqrstuvwxyz_")
    rest = "".join(
        rng.choice("abcdefghijklmnopqrstuvwxyz0123456789_") for _ in range(rng.randrange(0, 8))
    )
    name = prefix + first + rest
    return name + "_" if name in KEYWORDS else name


def _random_class_name(rng: random.Random) -> str:
    parts = rng.randrange(1, 4)
    return "".join(
        rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
        + "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randrange(1, 7)))
        for _ in range(parts)
    )


def random_technique_id(rng: random.Random) -> str:
    tid = f"T{rng.randrange(1000, 1700):04d}"
    if rng.random() < 0.5:
        tid += f".{rng.randrange(1, 30):03d}"
    return tid


class AstGenerator:
    """Samples grammar-conformant subtrees.

    With a :class:`~wilee.stores.DataModel`, generated trees are also
    semantically valid: classes come from the model, attributes from the
    owning class, and object references from the scope supplied by the
    caller.  ``classes`` is the model's own ``variables_by_class``, not a
    copy, or ``None`` without a model.
    """

    def __init__(self, rng: random.Random, model=None, max_statements: int = 6):
        self.rng = rng
        self.max_statements = max_statements
        self.classes = None if model is None else model.variables_by_class

    # -- terminals ---------------------------------------------------------

    def random_string(self) -> str:
        n = self.rng.randrange(0, 24)
        return "".join(self.rng.choice(_LITERAL_CHARS) for _ in range(n))

    def random_step(self) -> str:
        if self.rng.random() < 0.6:
            return random_technique_id(self.rng)
        return self.rng.choice(CANONICAL_TACTICS)

    # -- expressions -------------------------------------------------------

    def random_value(self) -> AstNode:
        if self.rng.random() < 0.75:
            return ast.literal(self.random_string())
        technique = None
        if self.rng.random() < 0.5:
            technique = random_technique_id(self.rng)
        pattern = None
        if self.rng.random() < 0.4:
            pattern = self.random_string() + "*"
        return ast.bind(self.rng.choice(IOC_TYPES), technique=technique, pattern=pattern)

    def random_identifier(self, scope: dict[str, str]) -> Optional[AstNode]:
        if not scope:
            return None
        return ast.identifier(self.rng.choice(sorted(scope)))

    # -- statements --------------------------------------------------------

    def random_instantiation(
        self,
        scope: dict[str, str],
        var: Optional[str] = None,
        must_have: frozenset[str] = frozenset(),
    ) -> AstNode:
        """New object statement.  ``must_have`` restricts the class choice
        to ones declaring all the given variables (used when replacing an
        instantiation whose attributes are assigned later)."""
        if self.classes is not None:
            eligible = sorted(
                cls for cls, variables in self.classes.items() if must_have <= set(variables)
            ) or sorted(self.classes)
            cls = self.rng.choice(eligible)
        else:
            cls = _random_class_name(self.rng)
        if var is None:
            base = cls.lower().replace("_", "")
            var = f"{base}{self.rng.randrange(1, 100)}"
            while var in scope:
                var = f"{base}{self.rng.randrange(1, 10000)}"
        return ast.instantiation(var, cls)

    def random_assignment(self, scope: dict[str, str]) -> Optional[AstNode]:
        candidates = sorted(scope)
        if self.classes is not None:
            candidates = [v for v in candidates if self.classes.get(scope[v])]
        if not candidates:
            return None
        var = self.rng.choice(candidates)
        if self.classes is not None:
            attribute = self.rng.choice(sorted(self.classes[scope[var]]))
        else:
            attribute = _random_name(self.rng)
        return ast.attribute_assign(var, attribute, self.random_value())

    def random_relation(self, scope: dict[str, str]) -> Optional[AstNode]:
        if not scope:
            return None
        names = sorted(scope)
        return ast.relation(
            self.rng.choice(names), self.rng.choice(RELATION_VERBS), self.rng.choice(names)
        )

    def random_call(self) -> AstNode:
        return ast.abstract_call(self.random_step())

    def random_statement(self, scope: dict[str, str], abstract: bool = False) -> AstNode:
        """One statement valid at a site where ``scope`` names the objects
        already instantiated.  Falls back to an instantiation when the
        scope cannot support the drawn kind."""
        if abstract:
            return self.random_call()
        roll = self.rng.random()
        if roll < 0.4:
            return self.random_instantiation(scope)
        if roll < 0.75:
            stmt = self.random_assignment(scope)
        else:
            stmt = self.random_relation(scope)
        return stmt if stmt is not None else self.random_instantiation(scope)

    # -- functions ----------------------------------------------------------

    def random_function(
        self, name: Optional[str] = None, abstract: Optional[bool] = None
    ) -> AstNode:
        if abstract is None:
            abstract = self.rng.random() < 0.3
        if name is None:
            name = _random_name(self.rng, prefix="")
        count = self.rng.randrange(0, self.max_statements + 1)
        scope: dict[str, str] = {}
        body = []
        for _ in range(count):
            stmt = self.random_statement(scope, abstract)
            if stmt.kind is ast.NodeKind.OBJECT_INSTANTIATION:
                scope[stmt.attrs["var"]] = stmt.attrs["class_name"]
            body.append(stmt)
        return ast.function_def(name, tuple(body))
