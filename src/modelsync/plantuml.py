"""Parser and canonical renderer for a PlantUML class-diagram subset.

Supported inside one ``@startuml``/``@enduml`` region (or a single
```` ```plantuml ```` fenced block):

* ``class NAME {`` ... ``}`` blocks
* attributes ``VIS name[: TYPE]`` with VIS one of ``+ - #``
* methods ``VIS name(p[: TYPE], ...)[: TYPE]``
* binary associations ``A ["m"] -- ["m"] B [: label [>]]``

Types are read and spelled by :func:`.model.read_type` and
:func:`.model.spell_type`.  A member whose name equals its class name is a
constructor.  Absent types mean "unknown" and are never flagged by the
checker.  Anything else inside the region is a syntax error carrying the
1-based line number, as is a second attribute or a second method of one
canonical name and arity in a class, or a second constructor.
:func:`parse_plantuml` returns the :class:`.model.ClassModel` it builds.
"""

from __future__ import annotations

import re

from .errors import (DuplicateClassError, DuplicateMemberError,
                     MissingRegionError, ParseError)
from .model import (Attribute, ClassDef, ClassModel, Method, Parameter,
                    Relationship, SourceSpan, TypeRef, Visibility, _UNKNOWN,
                    normalize_name, read_type, spell_type)

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

_VIS_MARKERS = {"+": Visibility.PUBLIC, "-": Visibility.PRIVATE,
                "#": Visibility.PROTECTED}
_MARKERS = {vis: marker for marker, vis in _VIS_MARKERS.items()}


def _parse_params(text: str, types: dict[str | None, TypeRef],
                  artifact: str, line_no: int) -> list[Parameter]:
    if not text or text.isspace():
        return []
    params: list[Parameter] = []
    for piece in text.split(","):
        m = _PARAM_RE.match(piece)
        if not m:
            raise ParseError(f"invalid parameter {piece.strip()!r}",
                             artifact=artifact, line=line_no, col=1)
        name, type_text = m.groups()
        ptype = types.get(type_text) or types.setdefault(
            type_text, read_type(type_text, "plantuml", artifact, line_no))
        params.append(Parameter(name, ptype))
    return params


def fenced_block(text: str, tag: str,
                 artifact: str) -> tuple[int, int] | None:
    """The 0-based first and last line of the body of the one ```` ```TAG
    ```` block in ``text``, closed by a line of ```` ``` ```` alone; None
    when there is none.  A second block is a ParseError, as is an
    unterminated one."""
    marker = "```" + tag
    opening = [i for i, line in _lines_holding(text, marker)
               if line.strip().startswith(marker)]
    if not opening:
        return None
    if len(opening) > 1:
        raise ParseError(f"multiple {marker} blocks",
                         artifact=artifact, line=opening[1] + 1)
    start = opening[0] + 1
    for j, line in _lines_holding(text, "```"):
        if j >= start and line.strip() == "```":
            return start, j - 1
    raise ParseError(f"unterminated {marker} block",
                     artifact=artifact, line=start)


def _find_region(text: str, artifact: str) -> tuple[int, int]:
    """Locate the diagram body in ``text``; returns (first, last) 0-based
    line indexes."""
    fence = fenced_block(text, "plantuml", artifact)
    if fence is not None:
        return _inner_startuml(text, fence[0], fence[1] + 1,
                               artifact) or fence
    inner = _inner_startuml(text, 0, len(text) + 1, artifact)
    if inner is None:
        raise MissingRegionError("no @startuml region or ```plantuml block",
                                 artifact=artifact)
    return inner


def _inner_startuml(text: str, lo: int, hi: int,
                    artifact: str) -> tuple[int, int] | None:
    starts = [i for i, line in _lines_holding(text, "@startuml")
              if lo <= i < hi and line.strip() == "@startuml"]
    if not starts:
        return None
    if len(starts) > 1:
        raise ParseError("multiple @startuml regions",
                         artifact=artifact, line=starts[1] + 1)
    start = starts[0]
    for j, line in _lines_holding(text, "@enduml"):
        if start < j < hi and line.strip() == "@enduml":
            return (start + 1, j - 1)
    raise ParseError("@startuml without matching @enduml",
                     artifact=artifact, line=start + 1)


def _lines_holding(text: str, marker: str):
    """The 0-based index and the text of each line of ``text`` that holds
    ``marker``, in order, found by searching the text instead of walking
    its lines."""
    line = end = 0
    pos = text.find(marker)
    while pos >= 0:
        line += text.count("\n", end, pos)
        end = text.find("\n", pos)
        if end < 0:
            end = len(text)
        yield line, text[text.rfind("\n", 0, pos) + 1:end]
        pos = text.find(marker, end)


def parse_plantuml(text: str, artifact: str = "model") -> ClassModel:
    """Parse the subset grammar into a :class:`.model.ClassModel`."""
    first, last = _find_region(text, artifact)
    lines = text.split("\n")

    model = ClassModel()
    seen_classes: set[str] = set()
    # one TypeRef per type spelling; None spells the unknown type
    types: dict[str | None, TypeRef] = {None: _UNKNOWN}
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
                seen_classes.add(key)
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
                             artifact=artifact, line=line_no, col=1)

        if stripped == "}":
            cur.span = SourceSpan(artifact, cur_start, 1, line_no,
                                  len(line) + 1)
            model.classes.append(cur)
            cur = None
            continue

        m = _MEMBER_RE.match(stripped)
        if not m:
            raise ParseError(f"unrecognized member line {stripped!r}",
                             artifact=artifact, line=line_no, col=1)
        vis, name, params_text, type_text = m.groups()
        start = line.index(stripped[0]) + 1
        span = SourceSpan(artifact, line_no, start, line_no,
                          start + len(stripped))
        member_type = types.get(type_text) or types.setdefault(
            type_text, read_type(type_text, "plantuml", artifact, line_no))
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
                         artifact=artifact, line=cur_start)

    _check_relationship_endpoints(model, arrow_lines, artifact)
    return model


def _parse_relationship(stripped: str) -> Relationship | None:
    m = _RELATION_RE.match(stripped)
    if not m:
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
                    artifact=artifact, line=line_no)


def _typed(name: str, t: TypeRef) -> str:
    """``name``, with ``: TYPE`` after it when PlantUML spells ``t``."""
    spelled = spell_type(t, "plantuml")
    return f"{name}: {spelled}" if spelled else name


def _render_member(member: Attribute | Method) -> str:
    if isinstance(member, Attribute):
        return (f"  {_MARKERS.get(member.visibility, '-')}"
                + _typed(member.name, member.type))
    params = ", ".join(_typed(p.name, p.type) for p in member.params)
    return (f"  {_MARKERS.get(member.visibility, '+')}"
            + _typed(f"{member.name}({params})", member.return_type))


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
