"""The code and PlantUML parsers as they were before the scanner and
member-line rework; the differential tests in ``test_parse_differential.py``
hold :func:`modelsync.pycode.parse_code` and
:func:`modelsync.plantuml.parse_plantuml` to them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from modelsync.errors import (DuplicateClassError, DuplicateMemberError,
                              MissingRegionError, ParseError)
from modelsync.model import (Attribute, ClassDef, ClassModel, Method,
                             Parameter, Relationship, SourceSpan, TypeRef,
                             Visibility, normalize_name)
from modelsync.pycode import CodeDocument

from defline_reference import scan_def_line

# ---- code dialect ---------------------------------------------------------

_CLASS_RE = re.compile(r"^class\s+(\w+)\s*:\s*(?:#.*)?$")
_ATTR_LINE_RE = re.compile(r"^self\.(\w+)\s*=\s*(.+)$")
_IDENT_RE = re.compile(r"^\w+$")


@dataclass(frozen=True)
class AttrLayout:
    start: int
    end: int
    name: str
    name_start: int
    name_end: int
    rhs: str
    rhs_start: int
    rhs_end: int


def scan_attr_line(line: str) -> AttrLayout | None:
    """Decompose a ``self.NAME = RHS`` line into precisely located pieces."""
    stripped = line.strip()
    m = _ATTR_LINE_RE.match(stripped)
    if not m:
        return None
    start = len(line) - len(line.lstrip())
    rhs = m.group(2).split("#")[0].rstrip()
    rhs_start = start + m.start(2)
    return AttrLayout(start, start + len(stripped), m.group(1),
                      start + m.start(1), start + m.end(1),
                      rhs, rhs_start, rhs_start + len(rhs))


def _fenced_lines(lines: list[str]) -> tuple[int, int]:
    """The 0-based first and last line read: the body of the first
    ```python block, up to its closing fence or the end, else every
    line.  (The reference once stripped the fence and numbered lines from
    the block; it now reads the block in place, as the parser does.)"""
    starts = [i for i, ln in enumerate(lines)
              if ln.strip().startswith("```python")]
    if not starts:
        return 0, len(lines) - 1
    first = starts[0]
    for j in range(first + 1, len(lines)):
        if lines[j].strip() == "```":
            return first + 1, j - 1
    return first + 1, len(lines) - 1


class _OpenDef:
    def __init__(self, layout: DefLayout, line_no: int, is_ctor: bool):
        self.layout = layout
        self.line_no = line_no
        self.last_line = line_no
        self.is_ctor = is_ctor
        # (attr name, rhs text, line span) in first-seen order
        self.assignments: list[tuple[str, str, SourceSpan]] = []


class _OpenClass:
    def __init__(self, name: str, indent: int, line_no: int):
        self.cls = ClassDef(name)
        self.indent = indent
        self.line_no = line_no
        self.last_line = line_no
        self.member_keys: set[tuple[str, int]] = set()
        self.attr_order: list[tuple[str, str, SourceSpan]] = []


def parse_code(text: str, artifact: str = "code") -> CodeDocument:
    """Parse dialect text into a :class:`CodeDocument`."""
    lines = text.split("\n")
    model = ClassModel()
    doc = CodeDocument(model, text, artifact)
    first, last = _fenced_lines(lines)
    seen_classes: set[str] = set()
    cur_class: _OpenClass | None = None
    cur_def: _OpenDef | None = None

    def close_def() -> None:
        nonlocal cur_def
        if cur_def is None or cur_class is None:
            return
        method = _finish_method(cur_class, cur_def, artifact, lines)
        key = (normalize_name(method.name), method.arity)
        if key in cur_class.member_keys:
            raise DuplicateMemberError(
                f"duplicate method {method.name!r}/{method.arity}",
                artifact=artifact, line=cur_def.line_no)
        if method.is_constructor and cur_class.cls.constructor() is not None:
            raise DuplicateMemberError(
                f"class {cur_class.cls.name!r} defines __init__ twice",
                artifact=artifact, line=cur_def.line_no)
        cur_class.member_keys.add(key)
        cur_class.cls.methods.append(method)
        cur_class.last_line = cur_def.last_line
        if cur_def.is_ctor:
            cur_class.attr_order.extend(cur_def.assignments)
        cur_def = None

    def close_class() -> None:
        nonlocal cur_class
        if cur_class is None:
            return
        _finish_attributes(cur_class)
        cur_class.cls.span = SourceSpan(
            artifact, cur_class.line_no, 1, cur_class.last_line,
            len(lines[cur_class.last_line - 1]) + 1)
        model.classes.append(cur_class.cls)
        cur_class = None

    for idx, line in enumerate(lines[first:last + 1], first):
        line_no = idx + 1
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        indent = len(line) - len(line.lstrip())

        if cur_def is not None and indent > cur_def.layout.indent:
            cur_def.last_line = line_no
            if cur_def.is_ctor:
                attr = scan_attr_line(line)
                if attr is not None:
                    _record_assignment(cur_def, attr, line_no, artifact)
            continue
        close_def()

        if cur_class is not None and indent > cur_class.indent:
            layout = scan_def_line(line)
            if layout is not None:
                cur_def = _open_def(cur_class, layout, line_no, artifact)
                continue
            if stripped == "pass":
                cur_class.last_line = line_no
                continue
            raise ParseError(
                f"unexpected class-level line {stripped!r}",
                artifact=artifact, line=line_no)
        close_class()

        cm = _CLASS_RE.match(stripped)
        if cm and indent == 0:
            name = cm.group(1)
            key = normalize_name(name)
            if key in seen_classes:
                raise DuplicateClassError(f"class {name!r} already defined",
                                          artifact=artifact, line=line_no)
            seen_classes.add(key)
            cur_class = _OpenClass(name, indent, line_no)
            continue
        # any other top-level statement is preserved opaque

    close_def()
    close_class()
    return doc


def _open_def(cur_class: _OpenClass, layout: DefLayout, line_no: int,
              artifact: str) -> _OpenDef:
    if not layout.params or layout.params[0].name != "self":
        raise ParseError(
            f"method {layout.name!r} lacks a self receiver",
            artifact=artifact, line=line_no)
    return _OpenDef(layout, line_no, layout.name == "__init__")


def _record_assignment(cur_def: _OpenDef, attr: AttrLayout, line_no: int,
                       artifact: str) -> None:
    if any(existing == attr.name for existing, *_ in cur_def.assignments):
        return  # first assignment wins
    line_span = SourceSpan(artifact, line_no, attr.start + 1, line_no,
                           attr.end + 1)
    cur_def.assignments.append((attr.name, attr.rhs, line_span))


def _finish_method(cur_class: _OpenClass, cur_def: _OpenDef,
                   artifact: str, lines: list[str]) -> Method:
    layout = cur_def.layout
    params = []
    for p in layout.params[1:]:
        ptype = TypeRef.named(p.annotation) if p.annotation \
            else TypeRef.unknown()
        params.append(Parameter(p.name, ptype))
    # a '-> None' return reads as void (it once read as a type named None)
    ret = (TypeRef.void() if layout.ret == "None"
           else TypeRef.named(layout.ret) if layout.ret
           else TypeRef.unknown())
    name = cur_class.cls.name if cur_def.is_ctor else layout.name
    last = max(cur_def.last_line, cur_def.line_no)
    span = SourceSpan(artifact, cur_def.line_no, 1, last,
                      len(lines[last - 1]) + 1)
    return Method(name, params, ret, Visibility.UNKNOWN,
                  is_constructor=cur_def.is_ctor, span=span)


def _finish_attributes(cur_class: _OpenClass) -> None:
    ctor = cur_class.cls.constructor()
    ctor_types = {p.name: p.type for p in ctor.params} if ctor else {}
    seen: set[str] = set()
    for name, rhs, line_span in cur_class.attr_order:
        key = normalize_name(name)
        if key in seen:
            continue
        seen.add(key)
        atype = _infer_attr_type(rhs, ctor_types)
        cur_class.cls.attributes.append(
            Attribute(name, atype, Visibility.UNKNOWN, line_span))


def _infer_attr_type(rhs: str, ctor_types: dict[str, TypeRef]) -> TypeRef:
    rhs = rhs.strip()
    if rhs in ("True", "False"):
        return TypeRef.named("boolean")
    if rhs == "[]":
        return TypeRef.collection(TypeRef.unknown())
    if _IDENT_RE.match(rhs) and rhs in ctor_types:
        return ctor_types[rhs]
    return TypeRef.unknown()


# ---- PlantUML -------------------------------------------------------------

_PUML_CLASS_RE = re.compile(r"^class\s+(\w+)\s*\{$")
_METHOD_RE = re.compile(r"^([+\-#])\s*(\w+)\s*\((.*)\)\s*(?::\s*(.+?))?\s*$")
_ATTR_RE = re.compile(r"^([+\-#])\s*(\w+)\s*(?::\s*(.+?))?\s*$")
_RELATION_RE = re.compile(
    r'^(\w+)\s*(?:"([^"]*)"\s*)?--\s*(?:"([^"]*)"\s*)?(\w+)\s*(?::(.*))?$')
_PARAM_RE = re.compile(r"^(\w+)\s*(?::\s*(.+?))?\s*$")

_VIS_MARKERS = {"+": Visibility.PUBLIC, "-": Visibility.PRIVATE,
                "#": Visibility.PROTECTED}


@dataclass
class PlantUmlDocument:
    model: ClassModel
    leading_text: str = ""
    trailing_text: str = ""


def _parse_type(text: str, artifact: str, line_no: int) -> TypeRef:
    t = text.strip()
    if t.endswith("[]"):
        return TypeRef.collection(_parse_type(t[:-2], artifact, line_no))
    # Python's void keyword reads as void too (it once read as a type named
    # None)
    if t in ("void", "None"):
        return TypeRef.void()
    if not re.fullmatch(r"\w+", t):
        raise ParseError(f"invalid type {text.strip()!r}",
                         artifact=artifact, line=line_no, col=1)
    return TypeRef.named(t)


def _parse_params(text: str, artifact: str,
                  line_no: int) -> list[Parameter]:
    text = text.strip()
    if not text:
        return []
    params: list[Parameter] = []
    for piece in text.split(","):
        m = _PARAM_RE.match(piece.strip())
        if not m:
            raise ParseError(f"invalid parameter {piece.strip()!r}",
                             artifact=artifact, line=line_no, col=1)
        name, type_text = m.groups()
        ptype = (_parse_type(type_text, artifact, line_no)
                 if type_text else TypeRef.unknown())
        params.append(Parameter(name, ptype))
    return params


def _line_span(artifact: str, line_no: int, line: str) -> SourceSpan:
    stripped = line.strip()
    start = line.index(stripped[0]) + 1 if stripped else 1
    return SourceSpan(artifact, line_no, start, line_no,
                      start + len(stripped))


def _find_region(lines: list[str], artifact: str) -> tuple[int, int]:
    """Locate the diagram body; returns (first, last) 0-based line indexes."""
    fence_starts = [i for i, ln in enumerate(lines)
                    if ln.strip().startswith("```plantuml")]
    if len(fence_starts) > 1:
        raise ParseError("multiple ```plantuml blocks",
                         artifact=artifact, line=fence_starts[1] + 1)
    if fence_starts:
        start = fence_starts[0] + 1
        for j in range(start, len(lines)):
            if lines[j].strip() == "```":
                inner = _inner_startuml(lines, start, j, artifact)
                return inner if inner else (start, j - 1)
        raise ParseError("unterminated ```plantuml block",
                         artifact=artifact, line=fence_starts[0] + 1)
    inner = _inner_startuml(lines, 0, len(lines), artifact)
    if inner is None:
        raise MissingRegionError("no @startuml region or ```plantuml block",
                                 artifact=artifact)
    return inner


def _inner_startuml(lines: list[str], lo: int, hi: int,
                    artifact: str) -> tuple[int, int] | None:
    starts = [i for i in range(lo, hi) if lines[i].strip() == "@startuml"]
    if not starts:
        return None
    if len(starts) > 1:
        raise ParseError("multiple @startuml regions",
                         artifact=artifact, line=starts[1] + 1)
    start = starts[0]
    for j in range(start + 1, hi):
        if lines[j].strip() == "@enduml":
            return (start + 1, j - 1)
    raise ParseError("@startuml without matching @enduml",
                     artifact=artifact, line=start + 1)


def parse_plantuml(text: str, artifact: str = "model") -> PlantUmlDocument:
    """Parse the subset grammar into a :class:`PlantUmlDocument`."""
    lines = text.split("\n")
    first, last = _find_region(lines, artifact)

    model = ClassModel()
    seen_classes: dict[str, int] = {}
    cur: ClassDef | None = None
    cur_start = 0
    member_keys: set[tuple[str, int]] = set()
    attr_keys: set[str] = set()

    for idx in range(first, last + 1):
        line = lines[idx]
        line_no = idx + 1
        stripped = line.strip()
        if not stripped:
            continue

        if cur is None:
            m = _PUML_CLASS_RE.match(stripped)
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
                continue
            raise ParseError(f"unrecognized line {stripped!r}",
                             artifact=artifact, line=line_no, col=1)

        if stripped == "}":
            cur.span = SourceSpan(artifact, cur_start, 1, line_no,
                                  len(line) + 1)
            model.classes.append(cur)
            cur = None
            continue

        member = _parse_member(stripped, cur, artifact, line_no,
                               _line_span(artifact, line_no, line))
        if isinstance(member, Method):
            key = (normalize_name(member.name), member.arity)
            if key in member_keys:
                raise DuplicateMemberError(
                    f"duplicate method {member.name!r}/{member.arity}",
                    artifact=artifact, line=line_no)
            if member.is_constructor and cur.constructor() is not None:
                raise DuplicateMemberError(
                    f"class {cur.name!r} declares two constructors",
                    artifact=artifact, line=line_no)
            member_keys.add(key)
            cur.methods.append(member)
        else:
            key_a = normalize_name(member.name)
            if key_a in attr_keys:
                raise DuplicateMemberError(
                    f"duplicate attribute {member.name!r}",
                    artifact=artifact, line=line_no)
            attr_keys.add(key_a)
            cur.attributes.append(member)

    if cur is not None:
        raise ParseError(f"class {cur.name!r} is never closed",
                         artifact=artifact, line=cur_start)

    _check_relationship_endpoints(model, artifact)
    leading = "\n".join(lines[:max(first - 1, 0)])
    trailing = "\n".join(lines[last + 2:])
    return PlantUmlDocument(model, leading, trailing)


def _parse_member(stripped: str, cls: ClassDef, artifact: str, line_no: int,
                  span: SourceSpan) -> Method | Attribute:
    m = _METHOD_RE.match(stripped)
    if m:
        vis, name, params_text, ret_text = m.groups()
        ret = (_parse_type(ret_text, artifact, line_no)
               if ret_text else TypeRef.unknown())
        return Method(
            name,
            _parse_params(params_text, artifact, line_no),
            ret,
            _VIS_MARKERS[vis],
            is_constructor=(name == cls.name),
            span=span,
        )
    a = _ATTR_RE.match(stripped)
    if a:
        vis, name, type_text = a.groups()
        atype = (_parse_type(type_text, artifact, line_no)
                 if type_text else TypeRef.unknown())
        return Attribute(name, atype, _VIS_MARKERS[vis], span)
    raise ParseError(f"unrecognized member line {stripped!r}",
                     artifact=artifact, line=line_no, col=1)


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


def _check_relationship_endpoints(model: ClassModel, artifact: str) -> None:
    names = {normalize_name(c.name) for c in model.classes}
    for rel in model.relationships:
        for end in (rel.left, rel.right):
            if normalize_name(end) not in names:
                raise ParseError(
                    f"relationship endpoint {end!r} names no class",
                    artifact=artifact)
