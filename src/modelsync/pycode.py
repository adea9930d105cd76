"""Parser and line scanners for the code dialect.

The dialect is an indentation-based subset of Python treated purely as a
data format:

* ``class NAME:`` introduces a class block; any other top-level line
  starting with ``class `` (base classes, ``class A():``, a one-line
  body) is rejected with a ParseError at its line
* ``def name(self, p[: T][= default]*)[ -> T]:`` introduces a method; the
  receiver is dropped and the body is kept verbatim, never analyzed —
  except ``self.x = expr`` lines inside ``__init__``, which declare
  attributes
* comments and blank lines are allowed anywhere; imports and top-level
  statements are ignored but preserved; ```` ```python ```` envelopes are
  stripped

Attribute types are inferred without dataflow: an annotation on the
assigned constructor parameter wins, ``True``/``False`` literals mean
``boolean``, a list display means an untyped collection, anything else is
unknown.  ``__init__`` becomes a constructor named after its class.

The scanners locate each piece of a ``def`` or ``self.x = ...`` line, so
that edits (see :mod:`.repair` and :mod:`.pywrite`, which also renders
skeletons) can be textual and span-based, and method bodies and comments
survive patching byte-for-byte.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import DuplicateClassError, DuplicateMemberError, ParseError
from .model import (Attribute, ClassDef, ClassModel, Method, Parameter,
                    Record, SourceSpan, TypeRef, Visibility, normalize_name)

_CLASS_RE = re.compile(r"class\s+(\w+)\s*:\s*(?:#.*)?$")
_CLASS_KEYWORD_RE = re.compile(r"class\s")
_DEF_START_RE = re.compile(r"(\s*)def\s+(\w+)\s*\(")
# what the bracket scanner stops at: a bracket, a separator, or a quote
# running to the next copy of its own character (alone when none follows)
_SCAN_RE = re.compile(r"""[()\[\]{},=]|"[^"]*"|'[^']*'|["']""")
# a parameter up to its default: the name, then ':' and the annotation
_PARAM_RE = re.compile(r"\s*(\w+)\s*(:\s*(.*\S)?)?\s*$")
# after the ')': an optional '-> TYPE' (no colon in it), then ':' and an
# optional comment
_TAIL_RE = re.compile(
    r"\s*(?:(->)\s*([^:\s](?:[^:]*[^:\s])?)\s*)?:\s*(?:#.*)?$")
_ATTR_RE = re.compile(r"(\s*)self\.(\w+)\s*=\s*(.*\S)\s*$")
_IDENT_RE = re.compile(r"^\w+$")

# Spelling used when a model-side type must appear in a code annotation.
PY_TYPE_SPELLINGS = {"String": "str", "boolean": "bool"}


def py_annotation(t: TypeRef) -> str | None:
    """A model type as a Python annotation; None when it names no type."""
    return PY_TYPE_SPELLINGS.get(t.name, t.name)


# moved to the writing side, which only writing commands import
_IN_PYWRITE = frozenset({"CodeEdit", "apply_code_edits", "block_delete_span",
                         "body_indent", "member_indent", "render_class_stub",
                         "render_code_skeleton"})


def __getattr__(name: str):
    if name in _IN_PYWRITE:
        from . import pywrite
        return getattr(pywrite, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CodeDocument(Record):
    """A parsed code artifact: its model, the verbatim text, that text split
    once into lines, and the artifact name its spans carry.  Equality and
    ``repr`` leave the lines out."""

    __slots__ = ("model", "raw_text", "artifact", "text_lines")
    _compared = __slots__[:3]

    def __init__(self, model: ClassModel, raw_text: str, artifact: str,
                 text_lines: list[str]) -> None:
        self.model = model
        self.raw_text = raw_text
        self.artifact = artifact
        self.text_lines = text_lines

    def lines(self) -> list[str]:
        return self.text_lines


class ParamLayout(NamedTuple):
    """Character extents of one parameter inside a def line (0-based)."""

    name: str
    name_start: int
    name_end: int
    annotation: str | None
    annot_start: int   # covers ':' through the annotation text
    annot_end: int
    default: str | None


class DefLayout(NamedTuple):
    """Character extents of the pieces of a ``def`` line (0-based)."""

    indent: int
    name: str
    name_start: int
    name_end: int
    lparen: int
    rparen: int
    params: tuple[ParamLayout, ...]
    ret: str | None
    ret_start: int     # covers '->' through the type; insertion point if absent
    ret_end: int


class AttrLayout(NamedTuple):
    """Character extents of a ``self.NAME = RHS`` line (0-based)."""

    start: int         # the statement without surrounding blanks
    end: int
    name: str
    name_start: int
    name_end: int
    rhs: str           # up to any '#', trailing blanks dropped
    rhs_start: int
    rhs_end: int


def scan_def_line(line: str) -> DefLayout | None:
    """Decompose a ``def`` line into precisely located pieces.

    One pass jumps from bracket to separator to quote after the ``(``: a
    quote runs to the next copy of its own character, and any closing
    bracket closes any opening one.  None when the parenthesis or a quote
    never closes, a top-level piece is not a parameter, an ``=`` has no
    default after it, or the return type holds a colon.
    """
    m = _DEF_START_RE.match(line)
    if not m:
        return None
    params: list[ParamLayout] = []
    depth = 1
    start = m.end()
    eq = -1       # the piece's first top-level '='
    for token in _SCAN_RE.finditer(line, start):
        i = token.start()
        ch = line[i]
        if depth == 1 and ch in ",)]}":  # a piece ends
            if ch != "," and not params and not line[start:i].strip():
                break  # no parameters at all
            # the name and annotation end where the default begins
            pm = _PARAM_RE.match(line, start, eq if eq >= 0 else i)
            if not pm:
                return None  # no name, or stray text before : or =
            name, colon, annotation = pm.groups()
            p_start, p_end = pm.span(1)
            if not colon:
                annot_start = annot_end = p_end
            elif annotation:
                annot_start, annot_end = pm.start(2), pm.end(3)
            else:
                return None
            default = line[eq + 1:i].strip() if eq >= 0 else None
            if default == "":
                return None  # '=' with no default after it
            params.append(ParamLayout(
                name, p_start, p_end, annotation, annot_start, annot_end,
                default))
            if ch != ",":
                break
            start, eq = i + 1, -1
        elif ch == "=":
            if eq < 0 and depth == 1:
                eq = i
        elif ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch != "," and token.end() == i + 1:
            return None  # a quote that never closes
    else:
        return None

    tail = _TAIL_RE.match(line, i + 1)
    if not tail:
        return None
    if tail.group(1):
        # the span covers '->' plus the type text, not the final colon
        ret, ret_start, ret_end = tail.group(2), tail.start(1), tail.end(2)
    else:
        ret, ret_start, ret_end = None, i + 1, i + 1
    return DefLayout(m.end(1), m.group(2), *m.span(2), m.end() - 1, i,
                     tuple(params), ret, ret_start, ret_end)


def scan_attr_line(line: str) -> AttrLayout | None:
    """Decompose a ``self.NAME = RHS`` line into precisely located pieces."""
    m = _ATTR_RE.match(line)
    if not m:
        return None
    rhs = m.group(3).split("#")[0].rstrip()
    rhs_start = m.start(3)
    return AttrLayout(m.end(1), m.end(3), m.group(2), *m.span(2),
                      rhs, rhs_start, rhs_start + len(rhs))


def _strip_fence(text: str) -> str:
    if "```python" not in text:
        return text
    lines = text.split("\n")
    starts = [i for i, ln in enumerate(lines)
              if ln.strip().startswith("```python")]
    if not starts:
        return text
    first = starts[0]
    for j in range(first + 1, len(lines)):
        if lines[j].strip() == "```":
            return "\n".join(lines[first + 1:j])
    return "\n".join(lines[first + 1:])


class _OpenClass:
    def __init__(self, name: str, line_no: int):
        self.cls = ClassDef(name)
        self.line_no = line_no
        self.last_line = line_no
        self.member_keys: set[tuple[str, int]] = set()
        self.attr_order: list[tuple[str, tuple[str, SourceSpan]]] = []


def parse_code(text: str, artifact: str = "code") -> CodeDocument:
    """Parse dialect text into a :class:`CodeDocument`."""
    content = _strip_fence(text)
    lines = content.split("\n")
    model = ClassModel(origin="code-artifact")
    doc = CodeDocument(model, content, artifact, lines)
    seen_classes: set[str] = set()
    # one TypeRef per annotation spelling; None spells the unknown type
    types: dict[str | None, TypeRef] = {None: TypeRef.unknown()}
    cur_class: _OpenClass | None = None
    # the open def: its header, first and last line, and for __init__ the
    # first assignment to each attribute, as (rhs text, line span)
    header: DefLayout | None = None
    def_line = def_last = 0
    assignments: dict[str, tuple[str, SourceSpan]] | None = None

    def close_class() -> None:
        nonlocal cur_class
        _finish_attributes(cur_class, types)
        cur_class.cls.span = SourceSpan(
            artifact, cur_class.line_no, 1, cur_class.last_line,
            len(lines[cur_class.last_line - 1]) + 1)
        model.classes.append(cur_class.cls)
        cur_class = None

    for line_no, line in enumerate(lines, 1):
        body = line.lstrip()
        if not body or body[0] == "#":
            continue
        indent = len(line) - len(body)

        if header is not None:
            if indent > header.indent:
                def_last = line_no
                if assignments is not None:
                    attr = scan_attr_line(line)
                    if attr is not None and attr.name not in assignments:
                        assignments[attr.name] = (attr.rhs, SourceSpan(
                            artifact, line_no, attr.start + 1, line_no,
                            attr.end + 1))
                continue
            _add_method(cur_class, header, def_line, def_last, assignments,
                        artifact, lines, types)
            header = None

        if cur_class is not None:
            if indent:
                header = scan_def_line(line)
                if header is not None:
                    if not header.params or header.params[0].name != "self":
                        raise ParseError(
                            f"method {header.name!r} lacks a self receiver",
                            artifact=artifact, line=line_no, expected="self")
                    def_line = def_last = line_no
                    assignments = {} if header.name == "__init__" else None
                    continue
                stripped = body.rstrip()
                if stripped == "pass":
                    cur_class.last_line = line_no
                    continue
                raise ParseError(
                    f"unexpected class-level line {stripped!r}",
                    artifact=artifact, line=line_no,
                    expected="method definition or pass")
            close_class()

        if indent:
            continue  # an indented top-level statement is preserved opaque
        cm = _CLASS_RE.match(line)
        if cm:
            name = cm.group(1)
            key = normalize_name(name)
            if key in seen_classes:
                raise DuplicateClassError(f"class {name!r} already defined",
                                          artifact=artifact, line=line_no)
            seen_classes.add(key)
            cur_class = _OpenClass(name, line_no)
        elif _CLASS_KEYWORD_RE.match(line):
            raise ParseError(
                f"unsupported class header {line.rstrip()!r}",
                artifact=artifact, line=line_no,
                expected="class NAME: (base classes are not supported)")
        # any other top-level statement is preserved opaque

    if header is not None:
        _add_method(cur_class, header, def_line, def_last, assignments,
                    artifact, lines, types)
    if cur_class is not None:
        close_class()
    return doc


def _new_type(types: dict[str | None, TypeRef], spelling: str) -> TypeRef:
    """The type an annotation spells that ``types`` does not hold yet, added
    to it."""
    t = types[spelling] = TypeRef.named(spelling)
    return t


def _add_method(cur_class: _OpenClass, header: DefLayout, line_no: int,
                last: int,
                assignments: dict[str, tuple[str, SourceSpan]] | None,
                artifact: str, lines: list[str],
                types: dict[str | None, TypeRef]) -> None:
    params = [Parameter(
        p.name, types.get(p.annotation) or _new_type(types, p.annotation),
        SourceSpan(artifact, line_no, p.name_start + 1, line_no,
                   p.name_end + 1))
        for p in header.params[1:]]
    cls = cur_class.cls
    is_ctor = assignments is not None
    name = cls.name if is_ctor else header.name
    key = (normalize_name(name), len(params))
    if key in cur_class.member_keys:
        raise DuplicateMemberError(f"duplicate method {name!r}/{len(params)}",
                                   artifact=artifact, line=line_no)
    if is_ctor:
        if cls.constructor() is not None:
            raise DuplicateMemberError(
                f"class {cls.name!r} defines __init__ twice",
                artifact=artifact, line=line_no)
        cur_class.attr_order.extend(assignments.items())
    cur_class.member_keys.add(key)
    cur_class.last_line = last
    cls.methods.append(Method(
        name, params, types.get(header.ret) or _new_type(types, header.ret),
        Visibility.UNKNOWN, is_ctor,
        SourceSpan(artifact, line_no, 1, last, len(lines[last - 1]) + 1)))


def _finish_attributes(cur_class: _OpenClass,
                       types: dict[str | None, TypeRef]) -> None:
    ctor = cur_class.cls.constructor()
    ctor_types = {p.name: p.type for p in ctor.params} if ctor else {}
    seen: set[str] = set()
    for name, (rhs, line_span) in cur_class.attr_order:
        key = normalize_name(name)
        if key in seen:
            continue
        seen.add(key)
        atype = _infer_attr_type(rhs, ctor_types, types)
        cur_class.cls.attributes.append(
            Attribute(name, atype, Visibility.UNKNOWN, line_span))


def _infer_attr_type(rhs: str, ctor_types: dict[str, TypeRef],
                     types: dict[str | None, TypeRef]) -> TypeRef:
    rhs = rhs.strip()
    if rhs in ("True", "False"):
        return types.get("boolean") or _new_type(types, "boolean")
    if rhs == "[]":
        return TypeRef.collection(types[None])
    if _IDENT_RE.match(rhs) and rhs in ctor_types:
        return ctor_types[rhs]
    return types[None]
