"""Parser and canonical renderer for a PlantUML class-diagram subset.

Supported inside one ``@startuml``/``@enduml`` region (or a single
```` ```plantuml ```` fenced block):

* ``class NAME {`` ... ``}`` blocks
* attributes ``VIS name[: TYPE]`` with VIS one of ``+ - #``
* methods ``VIS name(p[: TYPE], ...)[: TYPE]``
* binary associations ``A ["m"] -- ["m"] B [: label [>]]``

Types are identifiers, optionally suffixed ``[]`` for collections (at most
``MAX_COLLECTION_DEPTH`` deep); a bare ``void`` names the void type.  A
member whose name equals its class name is a constructor.  Absent types
mean "unknown" and are never flagged by the checker.  Anything else inside
the region is a syntax error carrying the 1-based line number.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import (DuplicateClassError, DuplicateMemberError,
                     MissingRegionError, ParseError)
from .model import (Attribute, ClassDef, ClassModel, Method, Parameter,
                    Relationship, SourceSpan, TypeRef, Visibility,
                    normalize_name)

_CLASS_RE = re.compile(r"^class\s+(\w+)\s*\{$")
# a stripped member line: an attribute, or a method when the parenthesised
# parameters are present
_MEMBER_RE = re.compile(
    r"([+\-#])\s*(\w+)\s*(?:\((.*)\)\s*)?(?::\s*(.+))?$")
_RELATION_RE = re.compile(
    r'^(\w+)\s*(?:"([^"]*)"\s*)?--\s*(?:"([^"]*)"\s*)?(\w+)\s*(?::(.*))?$')
# one comma-separated piece of a parameter list: NAME[: TYPE]; the blanks
# after the name are read inside the annotation's group, so no blank run
# splits between two adjacent blank patterns and a failed match backtracks
# in linear time
_PARAM_RE = re.compile(r"\s*(\w+)(?:\s*:\s*(\S(?:.*\S)?))?\s*$")
_TYPE_NAME_RE = re.compile(r"\w+")
# the most ``[]`` suffixes one type may carry
MAX_COLLECTION_DEPTH = 32

_VIS_MARKERS = {"+": Visibility.PUBLIC, "-": Visibility.PRIVATE,
                "#": Visibility.PROTECTED}


class PlantUmlDocument(NamedTuple):
    """A parsed model."""

    model: ClassModel


def _parse_type(text: str, artifact: str, line_no: int) -> TypeRef:
    t = text.strip()
    depth = 0
    while t.endswith("[]"):
        t = t[:-2].strip()
        depth += 1
    # what reads a TypeRef (str, rendering, comparison) recurses once per
    # level, so a deeper nesting is refused here, at its line
    if depth > MAX_COLLECTION_DEPTH:
        raise ParseError(f"type {t!r} is nested in {depth} collections, "
                         f"more than {MAX_COLLECTION_DEPTH}",
                         artifact=artifact, line=line_no, col=1,
                         expected=f"at most {MAX_COLLECTION_DEPTH} []")
    if t == "void":
        parsed = TypeRef.void()
    elif _TYPE_NAME_RE.fullmatch(t):
        parsed = TypeRef.named(t)
    else:
        raise ParseError(f"invalid type {t!r}",
                         artifact=artifact, line=line_no, col=1,
                         expected="type name")
    for _ in range(depth):
        parsed = TypeRef.collection(parsed)
    return parsed


def _new_type(types: dict[str | None, TypeRef], text: str, artifact: str,
              line_no: int) -> TypeRef:
    """Parse a type spelling that ``types`` does not hold yet, and add it."""
    t = types[text] = _parse_type(text, artifact, line_no)
    return t


def _parse_params(text: str, types: dict[str | None, TypeRef],
                  artifact: str, line_no: int) -> list[Parameter]:
    if not text or text.isspace():
        return []
    params: list[Parameter] = []
    for piece in text.split(","):
        m = _PARAM_RE.match(piece)
        if not m:
            raise ParseError(f"invalid parameter {piece.strip()!r}",
                             artifact=artifact, line=line_no, col=1,
                             expected="name[: TYPE]")
        name, type_text = m.groups()
        params.append(Parameter(name, types.get(type_text) or _new_type(
            types, type_text, artifact, line_no)))
    return params


def _find_region(lines: list[str], artifact: str) -> tuple[int, int]:
    """Locate the diagram body; returns (first, last) 0-based line indexes."""
    fence_starts = [i for i, ln in enumerate(lines) if "```plantuml" in ln
                    and ln.strip().startswith("```plantuml")]
    if len(fence_starts) > 1:
        raise ParseError("multiple ```plantuml blocks",
                         artifact=artifact, line=fence_starts[1] + 1,
                         expected="a single fenced block")
    if fence_starts:
        start = fence_starts[0] + 1
        for j in range(start, len(lines)):
            if lines[j].strip() == "```":
                inner = _inner_startuml(lines, start, j, artifact)
                return inner if inner else (start, j - 1)
        raise ParseError("unterminated ```plantuml block",
                         artifact=artifact, line=fence_starts[0] + 1,
                         expected="```")
    inner = _inner_startuml(lines, 0, len(lines), artifact)
    if inner is None:
        raise MissingRegionError("no @startuml region or ```plantuml block",
                                 artifact=artifact, expected="@startuml")
    return inner


def _inner_startuml(lines: list[str], lo: int, hi: int,
                    artifact: str) -> tuple[int, int] | None:
    starts = [i for i in range(lo, hi)
              if "@startuml" in lines[i] and lines[i].strip() == "@startuml"]
    if not starts:
        return None
    if len(starts) > 1:
        raise ParseError("multiple @startuml regions",
                         artifact=artifact, line=starts[1] + 1,
                         expected="a single region")
    start = starts[0]
    for j in range(start + 1, hi):
        if lines[j].strip() == "@enduml":
            return (start + 1, j - 1)
    raise ParseError("@startuml without matching @enduml",
                     artifact=artifact, line=start + 1, expected="@enduml")


def parse_plantuml(text: str, artifact: str = "model") -> PlantUmlDocument:
    """Parse the subset grammar into a :class:`PlantUmlDocument`."""
    lines = text.split("\n")
    first, last = _find_region(lines, artifact)

    model = ClassModel()
    seen_classes: dict[str, int] = {}
    # one TypeRef per type spelling; None spells the unknown type
    types: dict[str | None, TypeRef] = {None: TypeRef.unknown()}
    cur: ClassDef | None = None
    cur_start = 0
    member_keys: set[tuple[str, int]] = set()
    attr_keys: set[str] = set()
    arrow_lines: list[int] = []  # the line of each relationship

    for line_no, line in enumerate(lines[first:last + 1], first + 1):
        stripped = line.strip()
        if not stripped:
            continue

        if cur is None:
            m = _CLASS_RE.match(stripped)
            if m:
                name = m.group(1)
                key = normalize_name(name)
                if key in seen_classes:
                    raise DuplicateClassError(
                        f"class {name!r} already declared",
                        artifact=artifact, line=line_no)
                seen_classes[key] = line_no
                cur = ClassDef(name)
                cur_start = line_no
                member_keys = set()
                attr_keys = set()
                continue
            rel = _parse_relationship(stripped)
            if rel is not None:
                model.relationships.append(rel)
                arrow_lines.append(line_no)
                continue
            raise ParseError(f"unrecognized line {stripped!r}",
                             artifact=artifact, line=line_no, col=1,
                             expected="class, relationship or blank")

        if stripped == "}":
            cur.span = SourceSpan(artifact, cur_start, 1, line_no,
                                  len(line) + 1)
            model.classes.append(cur)
            cur = None
            continue

        m = _MEMBER_RE.match(stripped)
        if not m:
            raise ParseError(f"unrecognized member line {stripped!r}",
                             artifact=artifact, line=line_no, col=1,
                             expected="attribute, method or }")
        vis, name, params_text, type_text = m.groups()
        start = line.index(stripped[0]) + 1
        span = SourceSpan(artifact, line_no, start, line_no,
                          start + len(stripped))
        member_type = (types.get(type_text)
                       or _new_type(types, type_text, artifact, line_no))
        if params_text is None:
            key_a = normalize_name(name)
            if key_a in attr_keys:
                raise DuplicateMemberError(
                    f"duplicate attribute {name!r}",
                    artifact=artifact, line=line_no)
            attr_keys.add(key_a)
            cur.attributes.append(
                Attribute(name, member_type, _VIS_MARKERS[vis], span))
            continue
        params = _parse_params(params_text, types, artifact, line_no)
        arity = len(params)
        key = (normalize_name(name), arity)
        if key in member_keys:
            raise DuplicateMemberError(
                f"duplicate method {name!r}/{arity}",
                artifact=artifact, line=line_no)
        is_ctor = name == cur.name
        if is_ctor and cur.constructor() is not None:
            raise DuplicateMemberError(
                f"class {cur.name!r} declares two constructors",
                artifact=artifact, line=line_no)
        member_keys.add(key)
        cur.methods.append(Method(name, params, member_type,
                                  _VIS_MARKERS[vis], is_ctor, span))

    if cur is not None:
        raise ParseError(f"class {cur.name!r} is never closed",
                         artifact=artifact, line=cur_start, expected="}")

    _check_relationship_endpoints(model, arrow_lines, artifact)
    return PlantUmlDocument(model)


def _parse_relationship(stripped: str) -> Relationship | None:
    m = _RELATION_RE.match(stripped)
    if not m or "--" not in stripped:
        return None
    left, lmult, rmult, right, label_part = m.groups()
    label: str | None = None
    directed = False
    if label_part is not None:
        label = label_part.strip()
        if label.endswith(">"):
            directed = True
            label = label[:-1].strip()
        if not label:
            label = None
    return Relationship(left, right, lmult, rmult, label, directed)


def _check_relationship_endpoints(model: ClassModel, arrow_lines: list[int],
                                  artifact: str) -> None:
    names = {normalize_name(c.name) for c in model.classes}
    for rel, line_no in zip(model.relationships, arrow_lines):
        for end in (rel.left, rel.right):
            if normalize_name(end) not in names:
                raise ParseError(
                    f"relationship endpoint {end!r} names no class",
                    artifact=artifact, line=line_no,
                    expected="declared class name")


def _render_type(t: TypeRef) -> str | None:
    """PlantUML spelling of a type, or None when it has none (unknown)."""
    if t.kind == "named":
        return t.name
    if t.kind == "void":
        return "void"
    if t.kind == "collection":
        inner = _render_type(t.element)
        return f"{inner}[]" if inner else None
    return None


def _marker(vis: Visibility, default: str) -> str:
    for marker, v in _VIS_MARKERS.items():
        if v is vis:
            return marker
    return default


def _render_member(member: Attribute | Method) -> str:
    if isinstance(member, Attribute):
        typed = _render_type(member.type)
        suffix = f": {typed}" if typed else ""
        return f"  {_marker(member.visibility, '-')}{member.name}{suffix}"
    parts = []
    for p in member.params:
        typed = _render_type(p.type)
        parts.append(f"{p.name}: {typed}" if typed else p.name)
    ret = _render_type(member.return_type)
    suffix = f": {ret}" if ret and member.return_type.kind != "unknown" else ""
    return (f"  {_marker(member.visibility, '+')}{member.name}"
            f"({', '.join(parts)}){suffix}")


def _render_relationship(rel: Relationship) -> str:
    out = rel.left
    if rel.left_mult:
        out += f' "{rel.left_mult}"'
    out += " --"
    if rel.right_mult:
        out += f' "{rel.right_mult}"'
    out += f" {rel.right}"
    if rel.label:
        out += f" : {rel.label}"
        if rel.directed:
            out += " >"
    elif rel.directed:
        out += " : >"
    return out


def render_plantuml(model: ClassModel) -> str:
    """Render a model back to canonical PlantUML text.

    Declaration order is preserved; spacing and punctuation are normalized,
    so rendering is a pure function of the model's content.
    """
    blocks: list[list[str]] = []
    for cls in model.classes:
        lines = [f"class {cls.name} {{"]
        lines += [_render_member(a) for a in cls.attributes]
        lines += [_render_member(m) for m in cls.methods]
        lines.append("}")
        blocks.append(lines)
    if model.relationships:
        blocks.append([_render_relationship(r) for r in model.relationships])

    out: list[str] = ["@startuml"]
    for i, block in enumerate(blocks):
        if i:
            out.append("")
        out.extend(block)
    out.append("@enduml")
    return "\n".join(out) + "\n"
