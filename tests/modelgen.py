"""Seeded random class-model generation and single-mutation operators.

Names are built from pairs of distinct words, so canonical names of
different members sit far above the rename threshold while a deliberate
rename mutation (appending two characters) stays well below it.
"""

from __future__ import annotations

import copy
import random

from modelsync.consistency import FindingKind
from modelsync.model import (Attribute, ClassDef, ClassModel, Method,
                             Parameter, Relationship, TypeRef, Visibility)

WORDS = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
    "hotel", "india", "juliet", "kilo", "lima", "mike", "november",
    "oscar", "papa", "quebec", "romeo", "sierra", "tango", "uniform",
    "victor", "whiskey", "xray", "yankee", "zulu",
]

TYPE_NAMES = ["String", "int", "boolean", "Amount", "Label"]

VISIBILITIES = [Visibility.PUBLIC, Visibility.PRIVATE, Visibility.PROTECTED]


class NamePool:
    def __init__(self, rng: random.Random, used: set[str] | None = None):
        self.rng = rng
        pairs = [(a, b) for a in WORDS for b in WORDS if a != b]
        self.rng.shuffle(pairs)
        self.pairs = pairs
        self.used = {u.lower() for u in (used or set())}

    def _fresh(self) -> tuple[str, str]:
        while True:
            a, b = self.pairs.pop()
            if (a + b).lower() not in self.used:
                self.used.add((a + b).lower())
                return a, b

    def member(self) -> str:
        a, b = self._fresh()
        return a + b.capitalize()

    def cls(self) -> str:
        a, b = self._fresh()
        return a.capitalize() + b.capitalize()


def _used_names(model: ClassModel) -> set[str]:
    used: set[str] = set()
    for cls in model.classes:
        used.add(cls.name)
        for a in cls.attributes:
            used.add(a.name)
        for m in cls.methods:
            used.add(m.name)
            used.update(p.name for p in m.params)
    return used


def _named(rng: random.Random) -> TypeRef:
    return TypeRef.named(rng.choice(TYPE_NAMES))


def _method(rng: random.Random, pool: NamePool, *,
            plantuml_space: bool) -> Method:
    params = []
    for _ in range(rng.randint(0, 3)):
        roll = rng.random()
        if roll < 0.5:
            ptype = _named(rng)
        elif plantuml_space and roll < 0.65:
            ptype = TypeRef.collection(_named(rng))
        else:
            ptype = TypeRef.unknown()
        params.append(Parameter(pool.member(), ptype))
    roll = rng.random()
    if roll < 0.4:
        ret = _named(rng)
    elif plantuml_space and roll < 0.55:
        ret = TypeRef.void()
    elif plantuml_space and roll < 0.65:
        ret = TypeRef.collection(_named(rng))
    else:
        ret = TypeRef.unknown()
    vis = rng.choice(VISIBILITIES) if plantuml_space else Visibility.UNKNOWN
    return Method(pool.member(), params, ret, vis)


def make_plantuml_model(rng: random.Random) -> ClassModel:
    """A random model over everything the diagram subset can spell."""
    pool = NamePool(rng)
    model = ClassModel(origin="synthetic")
    for _ in range(rng.randint(1, 5)):
        cls = ClassDef(pool.cls())
        for _ in range(rng.randint(0, 4)):
            roll = rng.random()
            if roll < 0.55:
                atype = _named(rng)
            elif roll < 0.75:
                atype = TypeRef.collection(_named(rng))
            else:
                atype = TypeRef.unknown()
            cls.attributes.append(
                Attribute(pool.member(), atype, rng.choice(VISIBILITIES)))
        if rng.random() < 0.5:
            ctor_params = [
                Parameter(pool.member(),
                          _named(rng) if rng.random() < 0.6
                          else TypeRef.unknown())
                for _ in range(rng.randint(0, 3))]
            cls.methods.append(Method(cls.name, ctor_params,
                                      TypeRef.unknown(), Visibility.PUBLIC,
                                      is_constructor=True))
        for _ in range(rng.randint(0, 4)):
            cls.methods.append(_method(rng, pool, plantuml_space=True))
        model.classes.append(cls)
    for _ in range(rng.randint(0, 3)):
        left = rng.choice(model.classes).name
        right = rng.choice(model.classes).name
        model.relationships.append(Relationship(
            left, right,
            rng.choice([None, "1", "many"]), rng.choice([None, "1", "many"]),
            rng.choice([None, "has", "uses"]), rng.random() < 0.5))
    return model


def make_code_model(rng: random.Random) -> ClassModel:
    """A random model the code dialect can express with full fidelity.

    Every class with attributes declares a constructor; named attribute
    types come from same-named, same-typed constructor parameters; other
    attributes are boolean literals, list displays, or untyped.
    """
    pool = NamePool(rng)
    model = ClassModel(origin="synthetic")
    for _ in range(rng.randint(1, 5)):
        cls = ClassDef(pool.cls())
        ctor_params: list[Parameter] = []
        for _ in range(rng.randint(0, 4)):
            name = pool.member()
            roll = rng.random()
            if roll < 0.4:
                atype = _named(rng)
                ctor_params.append(Parameter(name, atype))
            elif roll < 0.55:
                atype = TypeRef.named("boolean")
            elif roll < 0.75:
                atype = TypeRef.collection(TypeRef.unknown())
            else:
                atype = TypeRef.unknown()
                ctor_params.append(Parameter(name, TypeRef.unknown()))
            cls.attributes.append(Attribute(name, atype))
        if cls.attributes or rng.random() < 0.3:
            for _ in range(rng.randint(0, 2)):  # extra non-attribute params
                ctor_params.append(Parameter(
                    pool.member(),
                    _named(rng) if rng.random() < 0.5 else TypeRef.unknown()))
            cls.methods.append(Method(cls.name, ctor_params,
                                      TypeRef.unknown(),
                                      is_constructor=True))
        for _ in range(rng.randint(0, 4)):
            cls.methods.append(_method(rng, pool, plantuml_space=False))
        model.classes.append(cls)
    return model


def shuffled_copy(rng: random.Random, model: ClassModel) -> ClassModel:
    """Same content, different declaration order everywhere."""
    clone = copy.deepcopy(model)
    rng.shuffle(clone.classes)
    for cls in clone.classes:
        rng.shuffle(cls.attributes)
        rng.shuffle(cls.methods)
    rng.shuffle(clone.relationships)
    return clone


# --- mutation operators ----------------------------------------------------

def _non_ctor_methods(cls: ClassDef) -> list[Method]:
    return [m for m in cls.methods if not m.is_constructor]


def _classes_with(model: ClassModel, pred) -> list[ClassDef]:
    return [c for c in model.classes if pred(c)]


class Mutation:
    """One applied mutation: the mutated model plus the expected outcome."""

    def __init__(self, operator: str, side: str, expected: FindingKind,
                 mutated: ClassModel):
        self.operator = operator
        self.side = side
        self.expected = expected
        self.mutated = mutated


def _missing_in(entity: str, side: str) -> FindingKind:
    """The finding kind saying the entity is absent from ``side``."""
    return {
        ("class", "code"): FindingKind.MISSING_CLASS_IN_CODE,
        ("class", "model"): FindingKind.MISSING_CLASS_IN_MODEL,
        ("method", "code"): FindingKind.MISSING_METHOD_IN_CODE,
        ("method", "model"): FindingKind.MISSING_METHOD_IN_MODEL,
        ("attribute", "code"): FindingKind.MISSING_ATTRIBUTE_IN_CODE,
        ("attribute", "model"): FindingKind.MISSING_ATTRIBUTE_IN_MODEL,
    }[(entity, side)]


def mutate(rng: random.Random, base: ClassModel,
           operator: str, side: str) -> Mutation | None:
    """Apply ``operator`` to a copy of ``base``; None when inapplicable."""
    model = copy.deepcopy(base)
    pool = NamePool(rng, _used_names(base))

    if operator == "rename-method":
        targets = [(c, m) for c in model.classes
                   for m in _non_ctor_methods(c)]
        if not targets:
            return None
        cls, method = rng.choice(targets)
        method.name = method.name + "zz"
        return Mutation(operator, side, FindingKind.PROBABLE_RENAME, model)

    if operator == "rename-attribute":
        targets = [(c, a) for c in model.classes for a in c.attributes]
        if not targets:
            return None
        cls, attr = rng.choice(targets)
        attr.name = attr.name + "zz"
        # a renamed attribute no longer matches its constructor parameter,
        # so regenerated code infers it as untyped; harmless for the rename
        return Mutation(operator, side, FindingKind.PROBABLE_RENAME, model)

    if operator == "change-attr-type":
        if side != "model":
            return None  # code-side attribute types live on parameters
        targets = [(c, a) for c in model.classes for a in c.attributes
                   if a.type.kind == "named" and a.type.name != "boolean"
                   and _ctor_param_typed(c, a)]
        if not targets:
            return None
        cls, attr = rng.choice(targets)
        attr.type = _different_named(rng, attr.type)
        return Mutation(operator, side,
                        FindingKind.ATTRIBUTE_TYPE_MISMATCH, model)

    if operator == "change-param-type":
        targets = [(c, m, i) for c in model.classes
                   for m in _non_ctor_methods(c)
                   for i, p in enumerate(m.params)
                   if p.type.kind == "named"]
        if not targets:
            return None
        cls, method, i = rng.choice(targets)
        method.params[i].type = _different_named(rng, method.params[i].type)
        return Mutation(operator, side,
                        FindingKind.PARAM_TYPE_MISMATCH, model)

    if operator == "change-return-type":
        targets = [(c, m) for c in model.classes
                   for m in _non_ctor_methods(c)
                   if m.return_type.kind == "named"]
        if not targets:
            return None
        cls, method = rng.choice(targets)
        method.return_type = _different_named(rng, method.return_type)
        return Mutation(operator, side,
                        FindingKind.RETURN_TYPE_MISMATCH, model)

    if operator == "add-class":
        cls = ClassDef(pool.cls())
        cls.methods.append(Method(pool.member(), [Parameter(pool.member())]))
        model.classes.append(cls)
        return Mutation(operator, side,
                        _missing_in("class", _other(side)), model)

    if operator == "remove-class":
        cls = rng.choice(model.classes)
        model.classes.remove(cls)
        model.relationships = [r for r in model.relationships
                               if cls.name not in (r.left, r.right)]
        return Mutation(operator, side, _missing_in("class", side),
                        model)

    if operator == "add-method":
        cls = rng.choice(model.classes)
        cls.methods.append(Method(pool.member(), [], TypeRef.unknown()))
        return Mutation(operator, side,
                        _missing_in("method", _other(side)), model)

    if operator == "remove-method":
        targets = [(c, m) for c in model.classes
                   for m in _non_ctor_methods(c)]
        if not targets:
            return None
        cls, method = rng.choice(targets)
        cls.methods.remove(method)
        return Mutation(operator, side, _missing_in("method", side),
                        model)

    if operator == "add-attribute":
        cls = rng.choice(model.classes)
        # boolean keeps the new attribute's type visible on both sides
        cls.attributes.append(Attribute(pool.member(),
                                        TypeRef.named("boolean")))
        return Mutation(operator, side,
                        _missing_in("attribute", _other(side)), model)

    if operator == "remove-attribute":
        targets = [(c, a) for c in model.classes for a in c.attributes
                   if a.type.kind == "named" and
                   (a.type.name == "boolean" or _ctor_param_typed(c, a))]
        if not targets:
            return None
        cls, attr = rng.choice(targets)
        cls.attributes.remove(attr)
        return Mutation(operator, side,
                        _missing_in("attribute", side), model)

    if operator == "change-ctor-arity":
        targets = [c for c in model.classes if c.constructor() is not None]
        if not targets:
            return None
        cls = rng.choice(targets)
        ctor = cls.constructor()
        ctor.params.append(Parameter(pool.member(), TypeRef.unknown()))
        return Mutation(operator, side,
                        FindingKind.CONSTRUCTOR_ARITY_MISMATCH, model)

    raise ValueError(f"unknown operator {operator!r}")


OPERATORS = [
    "rename-method", "rename-attribute", "change-attr-type",
    "change-param-type", "change-return-type", "add-class", "remove-class",
    "add-method", "remove-method", "add-attribute", "remove-attribute",
    "change-ctor-arity",
]


def _other(side: str) -> str:
    return "code" if side == "model" else "model"


def _ctor_param_typed(cls: ClassDef, attr: Attribute) -> bool:
    ctor = cls.constructor()
    if ctor is None:
        return False
    return any(p.name == attr.name and p.type == attr.type
               for p in ctor.params)


def _different_named(rng: random.Random, current: TypeRef) -> TypeRef:
    choices = [t for t in TYPE_NAMES
               if t != current.name and t != "boolean"]
    return TypeRef.named(rng.choice(choices))


def perturbed(rng: random.Random, name: str) -> str:
    """``name`` with one to five random single-character edits."""
    chars = list(name)
    for _ in range(rng.randint(1, 5)):
        pos = rng.randrange(len(chars) + 1)
        roll = rng.random()
        if roll < 0.4:
            chars.insert(pos, rng.choice("aeoxyz"))
        elif roll < 0.7 and len(chars) > 1:
            del chars[min(pos, len(chars) - 1)]
        else:
            chars[min(pos, len(chars) - 1)] = rng.choice("aeoxyz")
    return "".join(chars)


def drifted_names(rng: random.Random, design: ClassModel) -> ClassModel:
    """A copy whose member names are randomly edited by one to five
    characters, so relative distances spread across every threshold."""
    code = copy.deepcopy(design)
    for cls in code.classes:
        for member in cls.attributes + cls.methods:
            if not getattr(member, "is_constructor", False) and \
                    rng.random() < 0.7:
                member.name = perturbed(rng, member.name)
    return code
