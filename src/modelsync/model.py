"""Unified class-model representation shared by both artifact parsers.

A :class:`ClassModel` is produced by the PlantUML parser and the code
extractor alike, and is the unit the consistency checker diffs.  Everything
here is a plain value type; nothing mutates its inputs.

Equality (:func:`model_equal`) is layout-insensitive: members are compared
after sorting by (canonical name, arity), and spans and visibility are
ignored.  Rendering, by contrast, preserves declaration order.
"""

from __future__ import annotations

import re
from enum import Enum
from operator import attrgetter
from typing import NamedTuple

from .errors import ParseError

try:  # CPython's own SHA-256; the OpenSSL-backed module costs 3.5 MB of RSS
    from _sha256 import sha256 as _sha256          # Python 3.10-3.11
except ImportError:
    try:
        from _sha2 import sha256 as _sha256        # Python 3.12+
    except ImportError:
        from hashlib import sha256 as _sha256

_new_tuple = tuple.__new__


def sha256_hex(data: bytes) -> str:
    """The SHA-256 digest of ``data`` as 64 lowercase hex digits."""
    return _sha256(data).hexdigest()


class Visibility(Enum):
    PUBLIC = "public"
    PRIVATE = "private"
    PROTECTED = "protected"
    UNKNOWN = "unknown"


class Record:
    """Base of the mutable, slotted records.

    A subclass lists its fields in ``__slots__``, in constructor order.
    ``==`` and ``repr`` go over the fields named in ``_compared`` (all of
    them unless the subclass names fewer), and ``==`` holds only between
    records of one class.  Records are mutable, hence unhashable unless a
    subclass defines ``__hash__``.
    """

    __slots__ = ()
    __hash__ = None
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if "_compared" not in cls.__dict__:
            cls._compared = cls.__slots__
        cls._key = attrgetter(*cls._compared)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._compared)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A shallow copy with ``changes`` applied to the named fields."""
        for name in self.__slots__:
            if name not in changes:
                changes[name] = getattr(self, name)
        return type(self)(**changes)


class _SourceSpanFields(NamedTuple):
    artifact: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int


class SourceSpan(_SourceSpanFields):
    """A region of an artifact's text.

    Lines and columns are 1-based; ``end_col`` is exclusive (it points one
    past the last character), so a zero-width span marks an insertion point.
    """

    __slots__ = ()

    def __new__(cls, artifact: str, start_line: int, start_col: int,
                end_line: int, end_col: int) -> SourceSpan:
        if start_line < 1 or start_col < 1:
            raise ValueError("span positions are 1-based")
        if end_line < start_line or (end_line == start_line
                                     and end_col < start_col):
            raise ValueError("span end precedes its start")
        return _new_tuple(cls, (artifact, start_line, start_col, end_line,
                                end_col))

    @classmethod
    def _make(cls, iterable) -> SourceSpan:
        # ``_replace`` builds through here, so it validates too
        return cls(*iterable)


class _TypeRefFields(NamedTuple):
    kind: str
    name: str | None = None
    element: TypeRef | None = None


class TypeRef(_TypeRefFields):
    """A declared or inferred type.

    ``kind`` is one of ``named``, ``collection``, ``unknown``, ``void``.
    Only ``named`` carries a name; only ``collection`` carries an element.
    """

    __slots__ = ()

    def __new__(cls, kind: str, name: str | None = None,
                element: TypeRef | None = None) -> TypeRef:
        if kind == "named" and not name:
            raise ValueError("named type requires a name")
        if kind != "named" and name is not None:
            raise ValueError(f"{kind} type carries no name")
        if kind == "collection" and element is None:
            raise ValueError("collection type requires an element type")
        if kind != "collection" and element is not None:
            raise ValueError(f"{kind} type carries no element")
        return _new_tuple(cls, (kind, name, element))

    @classmethod
    def _make(cls, iterable) -> TypeRef:
        return cls(*iterable)

    @staticmethod
    def named(name: str) -> TypeRef:
        return TypeRef("named", name=name)

    @staticmethod
    def unknown() -> TypeRef:
        return TypeRef("unknown")

    @staticmethod
    def void() -> TypeRef:
        return TypeRef("void")

    @staticmethod
    def collection(element: TypeRef) -> TypeRef:
        return TypeRef("collection", element=element)

    @property
    def leaf(self) -> TypeRef:
        """The type inside the collections this one nests, or itself."""
        t = self
        while t.kind == "collection":
            t = t.element
        return t

    def __str__(self) -> str:
        if self.kind == "named":
            return self.name or ""
        if self.kind == "collection":
            return f"{self.element}[]"
        return self.kind


# the one unknown type, shared by records and parsers; TypeRefs never change
_UNKNOWN = TypeRef("unknown")

# the most collections one type may nest in: what reads a TypeRef (str,
# spelling, comparison) recurses once per level
MAX_COLLECTION_DEPTH = 32
_NAME_RE = re.compile(r"\w+")
_VOID_SPELLING = {"plantuml": "void", "python": "None"}
# both dialects read both void keywords: neither can name a type by one
_VOID_KEYWORDS = frozenset(_VOID_SPELLING.values())
# a layer around a Python type: a subscript NAME[T], None | T or T | None,
# with T in the last group matched; re's cache compiles it on first use
_PY_LAYER = r"(\w+)\s*\[(.*)\]|None\s*\|(.*)|(.*)\|\s*None"
_PY_COLLECTIONS = frozenset({"list", "List", "Sequence", "set"})
# the layers read through: collections, Optional and unions with None
_PY_LAYERS = _PY_COLLECTIONS | {"Optional", None}


def read_type(text: str, dialect: str, artifact: str = "",
              line: int = 0) -> TypeRef:
    """The type ``text`` spells in ``dialect``, ``plantuml`` or ``python``,
    by README's table of type spellings.  Python reads text the table
    lacks as the unknown type, and PlantUML refuses it; both refuse a type
    nested in more than ``MAX_COLLECTION_DEPTH`` collections.  A refusal
    is a ParseError at ``artifact`` and ``line``."""
    t = text.strip()
    depth = 0
    if dialect == "python":
        while "[" in t or "|" in t:
            m = re.fullmatch(_PY_LAYER, t)
            if m is None or m[1] not in _PY_LAYERS:
                break
            depth += m[1] in _PY_COLLECTIONS
            t = m[m.lastindex].strip()
    else:
        while t.endswith("[]"):
            t = t[:-2].strip()
            depth += 1
    if depth > MAX_COLLECTION_DEPTH:
        raise ParseError(f"type {t!r} is nested in {depth} collections, "
                         f"more than {MAX_COLLECTION_DEPTH}",
                         artifact=artifact, line=line, col=1)
    if t in _VOID_KEYWORDS:
        parsed = TypeRef("void")
    elif _NAME_RE.fullmatch(t):
        parsed = TypeRef("named", t)
    elif dialect == "python":
        return _UNKNOWN
    else:
        raise ParseError(f"invalid type {t!r}",
                         artifact=artifact, line=line, col=1)
    for _ in range(depth):
        parsed = TypeRef("collection", None, parsed)
    return parsed


def spell_type(t: TypeRef, dialect: str,
               names: dict[str, str] | None = None) -> str | None:
    """How ``dialect`` spells ``t``, as :func:`read_type` reads it back,
    with each name spelled as ``names`` maps it; None for the types it
    writes no annotation for: the unknown type and collections of it."""
    if t.kind == "named":
        return names.get(t.name, t.name) if names else t.name
    if t.kind == "void":
        return _VOID_SPELLING[dialect]
    if t.kind == "collection":
        inner = spell_type(t.element, dialect, names)
        if inner is not None:
            return f"list[{inner}]" if dialect == "python" else f"{inner}[]"
    return None


class Parameter(Record):
    __slots__ = ("name", "type")

    def __init__(self, name: str, type: TypeRef = _UNKNOWN) -> None:
        self.name = name
        self.type = type


class Method(Record):
    __slots__ = ("name", "params", "return_type", "visibility",
                 "is_constructor", "span")

    def __init__(self, name: str, params: list[Parameter] | None = None,
                 return_type: TypeRef = _UNKNOWN,
                 visibility: Visibility = Visibility.UNKNOWN,
                 is_constructor: bool = False,
                 span: SourceSpan | None = None) -> None:
        self.name = name
        self.params = [] if params is None else params
        self.return_type = return_type
        self.visibility = visibility
        self.is_constructor = is_constructor
        self.span = span

    @property
    def arity(self) -> int:
        return len(self.params)


class Attribute(Record):
    __slots__ = ("name", "type", "visibility", "span")

    def __init__(self, name: str, type: TypeRef = _UNKNOWN,
                 visibility: Visibility = Visibility.UNKNOWN,
                 span: SourceSpan | None = None) -> None:
        self.name = name
        self.type = type
        self.visibility = visibility
        self.span = span


class ClassDef(Record):
    __slots__ = ("name", "attributes", "methods", "span")

    def __init__(self, name: str, attributes: list[Attribute] | None = None,
                 methods: list[Method] | None = None,
                 span: SourceSpan | None = None) -> None:
        self.name = name
        self.attributes = [] if attributes is None else attributes
        self.methods = [] if methods is None else methods
        self.span = span

    def constructor(self) -> Method | None:
        for m in self.methods:
            if m.is_constructor:
                return m
        return None


class Relationship(Record):
    __slots__ = ("left", "right", "left_mult", "right_mult", "label",
                 "directed")

    def __init__(self, left: str, right: str, left_mult: str | None = None,
                 right_mult: str | None = None, label: str | None = None,
                 directed: bool = False) -> None:
        self.left = left
        self.right = right
        self.left_mult = left_mult
        self.right_mult = right_mult
        self.label = label
        self.directed = directed


class ClassModel(Record):
    """Classes plus relationships, in declaration order."""

    __slots__ = ("classes", "relationships")

    def __init__(self, classes: list[ClassDef] | None = None,
                 relationships: list[Relationship] | None = None) -> None:
        self.classes = [] if classes is None else classes
        self.relationships = [] if relationships is None else relationships


def name_key(mode: str):
    """The function that gives an identifier its matching key under
    ``mode``: ``exact`` keeps the identifier untouched; ``canonical``
    lowercases it and deletes underscores, so camelCase and snake_case
    spellings of one member collide on purpose."""
    if mode == "canonical":
        return canonical_name
    if mode == "exact":
        return str
    raise ValueError(f"unknown name mode {mode!r}")


def canonical_name(raw: str) -> str:
    return raw.replace("_", "").lower()


def normalize_name(raw: str, mode: str = "canonical") -> str:
    """Normalize a nonempty identifier for cross-artifact matching, by the
    rule :func:`name_key` gives ``mode``."""
    if not raw:
        raise ValueError("identifier must be nonempty")
    return name_key(mode)(raw)


# How Python spells the UML-style type names it spells differently
UML_TO_PY = {"String": "str", "boolean": "bool"}

# Name pairs treated as the same type across the UML-style and code-style
# spellings.  Extensible via configuration.
DEFAULT_TYPE_EQUIVALENCES: frozenset[frozenset[str]] = frozenset(
    {frozenset(pair) for pair in UML_TO_PY.items()} | {frozenset({"int"})})

TypeTable = frozenset[frozenset[str]]


def make_type_table(pairs: tuple[tuple[str, str], ...] = ()) -> TypeTable:
    """Build a symmetric equivalence table: the defaults plus extra pairs."""
    extra = {frozenset(p) for p in pairs}
    return frozenset(set(DEFAULT_TYPE_EQUIVALENCES) | extra)


def type_equivalent(a: TypeRef, b: TypeRef,
                    table: TypeTable = DEFAULT_TYPE_EQUIVALENCES) -> bool:
    """True when two types should not be flagged as mismatched.

    ``unknown`` matches anything; named types match by name modulo the
    equivalence table; collections compare element-wise.
    """
    if a.kind == "unknown" or b.kind == "unknown":
        return True
    if a.kind == "named" and b.kind == "named":
        return a.name == b.name or frozenset((a.name, b.name)) in table
    if a.kind == "collection" and b.kind == "collection":
        assert a.element is not None and b.element is not None
        return type_equivalent(a.element, b.element, table)
    return a.kind == b.kind


def _method_proj(m: Method) -> tuple:
    return (
        m.name,
        m.is_constructor,
        tuple((p.name, p.type) for p in m.params),
        m.return_type,
    )


def _class_proj(c: ClassDef) -> tuple:
    attrs = sorted(
        ((a.name, a.type) for a in c.attributes),
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

    Spans and visibility are ignored; classes and members are
    compared as canonically sorted sets; everything else is exact.
    """
    return _model_proj(a) == _model_proj(b)
