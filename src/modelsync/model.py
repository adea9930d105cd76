"""Unified class-model representation shared by both artifact parsers.

A :class:`ClassModel` is produced by the PlantUML parser and the code
extractor alike, and is the unit the consistency checker diffs.  Everything
here is a plain value type; nothing mutates its inputs.

Equality (:func:`model_equal`) is layout-insensitive: members are compared
after sorting by (canonical name, arity), and spans, origin and visibility
are ignored.  Rendering, by contrast, preserves declaration order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Visibility(Enum):
    PUBLIC = "public"
    PRIVATE = "private"
    PROTECTED = "protected"
    UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """A region of an artifact's text.

    Lines and columns are 1-based; ``end_col`` is exclusive (it points one
    past the last character), so a zero-width span marks an insertion point.
    """

    artifact: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __post_init__(self) -> None:
        if self.start_line < 1 or self.start_col < 1:
            raise ValueError("span positions are 1-based")
        if (self.end_line, self.end_col) < (self.start_line, self.start_col):
            raise ValueError("span end precedes its start")


@dataclass(frozen=True, slots=True)
class TypeRef:
    """A declared or inferred type.

    ``kind`` is one of ``named``, ``collection``, ``unknown``, ``void``.
    Only ``named`` carries a name; only ``collection`` carries an element.
    """

    kind: str
    name: str | None = None
    element: "TypeRef | None" = None

    @staticmethod
    def named(name: str) -> "TypeRef":
        return TypeRef("named", name=name)

    @staticmethod
    def unknown() -> "TypeRef":
        return TypeRef("unknown")

    @staticmethod
    def void() -> "TypeRef":
        return TypeRef("void")

    @staticmethod
    def collection(element: "TypeRef") -> "TypeRef":
        return TypeRef("collection", element=element)

    def __post_init__(self) -> None:
        if self.kind == "named" and not self.name:
            raise ValueError("named type requires a name")
        if self.kind != "named" and self.name is not None:
            raise ValueError(f"{self.kind} type carries no name")
        if self.kind == "collection" and self.element is None:
            raise ValueError("collection type requires an element type")
        if self.kind != "collection" and self.element is not None:
            raise ValueError(f"{self.kind} type carries no element")

    def __str__(self) -> str:
        if self.kind == "named":
            return self.name or ""
        if self.kind == "collection":
            return f"{self.element}[]"
        return self.kind


@dataclass(slots=True)
class Parameter:
    name: str
    type: TypeRef = field(default_factory=TypeRef.unknown)
    span: SourceSpan | None = None


@dataclass(slots=True)
class Method:
    name: str
    params: list[Parameter] = field(default_factory=list)
    return_type: TypeRef = field(default_factory=TypeRef.unknown)
    visibility: Visibility = Visibility.UNKNOWN
    is_constructor: bool = False
    span: SourceSpan | None = None

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass(slots=True)
class Attribute:
    name: str
    type: TypeRef = field(default_factory=TypeRef.unknown)
    visibility: Visibility = Visibility.UNKNOWN
    span: SourceSpan | None = None


@dataclass(slots=True)
class ClassDef:
    name: str
    attributes: list[Attribute] = field(default_factory=list)
    methods: list[Method] = field(default_factory=list)
    span: SourceSpan | None = None

    def constructor(self) -> Method | None:
        for m in self.methods:
            if m.is_constructor:
                return m
        return None


@dataclass(slots=True)
class Relationship:
    left: str
    right: str
    left_mult: str | None = None
    right_mult: str | None = None
    label: str | None = None
    directed: bool = False


@dataclass(slots=True)
class ClassModel:
    """Classes plus relationships, in declaration order.

    ``origin`` records which artifact kind produced the model:
    ``model-artifact``, ``code-artifact`` or ``synthetic``.
    """

    classes: list[ClassDef] = field(default_factory=list)
    relationships: list[Relationship] = field(default_factory=list)
    origin: str = "synthetic"


def normalize_name(raw: str, mode: str = "canonical") -> str:
    """Normalize an identifier for cross-artifact matching.

    ``exact`` keeps the identifier untouched; ``canonical`` lowercases it
    and deletes underscores, so camelCase and snake_case spellings of one
    member collide on purpose.
    """
    if not raw:
        raise ValueError("identifier must be nonempty")
    if mode == "exact":
        return raw
    if mode == "canonical":
        return raw.replace("_", "").lower()
    raise ValueError(f"unknown name mode {mode!r}")


# Name pairs treated as the same type across the UML-style and code-style
# spellings.  Extensible via configuration.
DEFAULT_TYPE_EQUIVALENCES: frozenset[frozenset[str]] = frozenset({
    frozenset({"String", "str"}),
    frozenset({"boolean", "bool"}),
    frozenset({"int"}),
})

TypeTable = frozenset[frozenset[str]]


def make_type_table(pairs: tuple[tuple[str, str], ...] = ()) -> TypeTable:
    """Build a symmetric equivalence table: the defaults plus extra pairs."""
    extra = {frozenset(p) for p in pairs}
    return frozenset(set(DEFAULT_TYPE_EQUIVALENCES) | extra)


def _names_equivalent(a: str, b: str, table: TypeTable) -> bool:
    return a == b or frozenset((a, b)) in table


def type_equivalent(a: TypeRef, b: TypeRef,
                    table: TypeTable = DEFAULT_TYPE_EQUIVALENCES) -> bool:
    """True when two types should not be flagged as mismatched.

    ``unknown`` matches anything; named types match by name modulo the
    equivalence table; collections compare element-wise.
    """
    if a.kind == "unknown" or b.kind == "unknown":
        return True
    if a.kind == "named" and b.kind == "named":
        return _names_equivalent(a.name or "", b.name or "", table)
    if a.kind == "collection" and b.kind == "collection":
        assert a.element is not None and b.element is not None
        return type_equivalent(a.element, b.element, table)
    return a.kind == b.kind


def _type_key(t: TypeRef) -> tuple:
    if t.kind == "collection":
        assert t.element is not None
        return ("collection", _type_key(t.element))
    return (t.kind, t.name or "")


def _method_proj(m: Method) -> tuple:
    return (
        m.name,
        m.is_constructor,
        tuple((p.name, _type_key(p.type)) for p in m.params),
        _type_key(m.return_type),
    )


def _class_proj(c: ClassDef) -> tuple:
    attrs = sorted(
        ((a.name, _type_key(a.type)) for a in c.attributes),
        key=lambda t: normalize_name(t[0]),
    )
    methods = sorted(
        (_method_proj(m) for m in c.methods),
        key=lambda t: (normalize_name(t[0]), len(t[2])),
    )
    return (c.name, tuple(attrs), tuple(methods))


def _relationship_proj(r: Relationship) -> tuple:
    return (r.left, r.right, r.left_mult or "", r.right_mult or "",
            r.label or "", r.directed)


def _model_proj(model: ClassModel) -> tuple:
    classes = sorted(
        (_class_proj(c) for c in model.classes),
        key=lambda t: (normalize_name(t[0]), t[0]),
    )
    rels = sorted(_relationship_proj(r) for r in model.relationships)
    return (tuple(classes), tuple(rels))


def model_equal(a: ClassModel, b: ClassModel) -> bool:
    """Layout-insensitive equality.

    Spans, origin and visibility are ignored; classes and members are
    compared as canonically sorted sets; everything else is exact.
    """
    return _model_proj(a) == _model_proj(b)
