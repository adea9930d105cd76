"""Parser and line scanners for the code dialect.

The dialect is an indentation-based subset of Python treated purely as a
data format:

* ``class NAME:`` introduces a class block; any other top-level line
  starting with ``class `` (base classes, ``class A():``, a one-line
  body) is rejected with a ParseError at its line
* ``def name(self, p[: T][= default]*)[ -> T]:`` introduces a method; the
  receiver is dropped, each annotation is read by
  :func:`.model.read_type`, and the body is kept verbatim, never analyzed
  — except ``self.x = expr`` lines inside ``__init__``: the first one per
  canonical name of ``x`` declares an attribute
* comments and blank lines are allowed anywhere; imports and top-level
  statements are ignored but preserved
* in a text holding one ```` ```python ```` block, only the block's body
  is read, in place: lines are counted from the start of the text, and
  edits land inside the block; a second or unterminated block is a
  ParseError at its line

Attribute types are inferred without dataflow: an annotation on the
assigned constructor parameter wins, ``True``/``False`` literals mean
``boolean``, a list display means an untyped collection, anything else is
unknown.  ``__init__`` becomes a constructor named after its class.

Reading builds the model's records straight from one regular-expression
match per declaration: :func:`read_plain_def` for a plain ``def`` header
(``NAME[: TYPE]`` parameters only, no bracket, quote or default among
them), one match of ``self.x = expr`` per constructor line.  A header with
a bracket, a quote or a default falls back to :func:`scan_def_line`.

The scanners locate each piece of a ``def`` or ``self.x = ...`` line as a
layout of character extents, so that edits (see :mod:`.repair` and
:mod:`.pywrite`, which also renders skeletons) can be textual and
span-based, and method bodies and comments survive patching
byte-for-byte.  Only :mod:`.repair` builds layouts of plain lines, and only
for the lines it edits.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import DuplicateClassError, DuplicateMemberError, ParseError
from .model import (Attribute, ClassDef, ClassModel, Method, Parameter,
                    Record, SourceSpan, TypeRef, Visibility, _UNKNOWN,
                    normalize_name, read_type)
from .plantuml import fenced_block

_CLASS_RE = re.compile(r"class\s+(\w+)\s*:\s*(?:#.*)?$")
_CLASS_KEYWORD_RE = re.compile(r"class\s")
_DEF_START_RE = re.compile(r"(\s*)def\s+(\w+)\s*\(")
# The bracket scanner's patterns are compiled on first use, by re's cache:
# parsing code whose headers are all plain needs none of them.
# what the scanner stops at: a bracket, a separator, or a quote running to
# the next copy of its own character (alone when none follows)
_SCAN = r"""[()\[\]{},=]|"[^"]*"|'[^']*'|["']"""
# a parameter up to its default: the name, then ':' and the annotation
_PARAM = r"\s*(\w+)(?:\s*(:\s*(\S(?:.*\S)?)?))?\s*$"
# after the ')': an optional '-> TYPE' (no colon in it), then ':' and an
# optional comment
_TAIL = r"\s*(?:(->)\s*([^:\s](?:[^:]*[^:\s])?)\s*)?:\s*(?:#.*)?$"
# a plain def header from its 'def': 'self', then parameters 'NAME[: TYPE]'
# whose annotations hold no bracket, quote, separator or '=' and end in no
# blank, then the tail as above; each piece matches in one way only (a
# name's trailing blanks go to the blanks after the parameter, never to
# the annotation's group), so a failed match backtracks in linear time
_PLAIN_DEF_RE = re.compile(
    r"def\s+(\w+)\s*\(\s*self\s*((?:,\s*\w+(?:\s*:\s*"
    r"[^\s()\[\]{},='\"](?:[^()\[\]{},='\"]*[^\s()\[\]{},='\"])?"
    r")?\s*)*)\)" + _TAIL)
# a parameter of a list that _PLAIN_DEF_RE matched: the name, then ':' and
# the annotation up to the next separator
_PLAIN_PARAM_RE = re.compile(r"(\w+)\s*(?::\s*([^,]*[^,\s]))?")
_ATTR_RE = re.compile(r"(\s*)self\.(\w+)\s*=\s*(\S(?:.*\S)?)\s*$")

_BOOLEAN = TypeRef("named", "boolean")
# the type of an attribute assigned a literal
_LITERAL_TYPES = {"True": _BOOLEAN, "False": _BOOLEAN,
                  "[]": TypeRef("collection", None, _UNKNOWN)}

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
    """A parsed code artifact: its model, the verbatim text, the artifact
    name its spans carry, and the text's line-offset table once
    :meth:`lines` has built it.  Equality and ``repr`` leave the table
    out."""

    __slots__ = ("model", "raw_text", "artifact", "line_starts")
    _compared = __slots__[:3]

    def __init__(self, model: ClassModel, raw_text: str, artifact: str,
                 line_starts=None) -> None:
        self.model = model
        self.raw_text = raw_text
        self.artifact = artifact
        self.line_starts = line_starts

    def lines(self):
        """The offset in ``raw_text`` at which each line starts, then one
        past the text's end, built on the first call; only the writing side
        asks for lines, so ``check`` never builds it."""
        if self.line_starts is None:
            from array import array
            self.line_starts = starts = array("L", [0])
            starts.extend(map(re.Match.end, re.finditer("\n", self.raw_text)))
            starts.append(len(self.raw_text) + 1)
        return self.line_starts

    def line(self, n: int) -> str:
        """Line ``n``, counted from 1, without its newline."""
        starts = self.line_starts or self.lines()
        return self.raw_text[starts[n - 1]:starts[n] - 1]


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
    for token in re.compile(_SCAN).finditer(line, start):
        i = token.start()
        ch = line[i]
        if depth == 1 and ch in ",)]}":  # a piece ends
            if ch != "," and not params and not line[start:i].strip():
                break  # no parameters at all
            # the name and annotation end where the default begins
            pm = re.compile(_PARAM).match(line, start, eq if eq >= 0 else i)
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

    tail = re.compile(_TAIL).match(line, i + 1)
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


def read_plain_def(line: str, pos: int
                   ) -> tuple[str, str | None, list[tuple]] | None:
    """The method name, return type and parameters after ``self`` of a
    plain ``def`` header whose ``def`` starts at ``pos``, each parameter as
    (name, annotation), with '' for no annotation; None for any other line.

    A plain header has only ``NAME[: TYPE]`` parameters, with no bracket,
    quote or ``=`` among them; where it is one, :func:`scan_def_line` finds
    the same pieces, and the parser reads it without building a layout.
    """
    m = _PLAIN_DEF_RE.match(line, pos)
    if m is None:
        return None
    return m[1], m[4], _PLAIN_PARAM_RE.findall(line, m.start(2), m.end(2))


class _OpenClass:
    def __init__(self, name: str, line_no: int):
        self.cls = ClassDef(name)
        self.line_no = line_no
        self.last_line = line_no
        self.member_keys: set[tuple[str, int]] = set()


def parse_code(text: str, artifact: str = "code") -> CodeDocument:
    """Parse dialect text into a :class:`CodeDocument` holding all of
    ``text``; only the body of a ```` ```python ```` block in it is read."""
    lines = text.split("\n")
    model = ClassModel()
    doc = CodeDocument(model, text, artifact)
    fence = fenced_block(text, "python", artifact)
    first = fence[0] if fence else 0
    block = lines[first:fence[1] + 1] if fence else lines
    seen_classes: set[str] = set()
    # one TypeRef per annotation spelling; None, or '' from a plain header,
    # spells the unknown type
    types: dict[str | None, TypeRef] = {None: _UNKNOWN, "": _UNKNOWN}
    cur_class: _OpenClass | None = None
    # the open def: its header as read_plain_def gives it, its indent, its
    # first and last line, and for __init__ the first assignment to each
    # attribute, as (match of the line, line number) by canonical name
    header: tuple[str, str | None, list[tuple]] | None = None
    def_indent = def_line = def_last = 0
    assignments: dict[str, tuple[re.Match, int]] | None = None

    def close_class() -> None:
        nonlocal cur_class
        cur_class.cls.span = SourceSpan(
            artifact, cur_class.line_no, 1, cur_class.last_line,
            len(lines[cur_class.last_line - 1]) + 1)
        model.classes.append(cur_class.cls)
        cur_class = None

    for line_no, line in enumerate(block, first + 1):
        body = line.lstrip()
        if not body or body[0] == "#":
            continue
        indent = len(line) - len(body)

        if header is not None:
            if indent > def_indent:
                def_last = line_no
                if assignments is not None:
                    am = _ATTR_RE.match(line, indent)
                    if am is not None:
                        assignments.setdefault(normalize_name(am[2]),
                                               (am, line_no))
                continue
            _add_method(cur_class, header, def_line, def_last, assignments,
                        artifact, lines, types)
            header = None

        if cur_class is not None:
            if indent:
                header = (read_plain_def(line, indent)
                          or _layout_header(line, artifact, line_no))
                if header is not None:
                    def_indent = indent
                    def_line = def_last = line_no
                    assignments = {} if header[0] == "__init__" else None
                    continue
                stripped = body.rstrip()
                if stripped == "pass":
                    cur_class.last_line = line_no
                    continue
                raise ParseError(
                    f"unexpected class-level line {stripped!r}",
                    artifact=artifact, line=line_no)
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
                artifact=artifact, line=line_no)
        # any other top-level statement is preserved opaque

    if header is not None:
        _add_method(cur_class, header, def_line, def_last, assignments,
                    artifact, lines, types)
    if cur_class is not None:
        close_class()
    return doc


def _layout_header(line: str, artifact: str, line_no: int
                   ) -> tuple[str, str | None, list[tuple]] | None:
    """A header that is not plain, as :func:`read_plain_def` gives one, from
    its layout; None when the line is no ``def`` header."""
    layout = scan_def_line(line)
    if layout is None:
        return None
    if not layout.params or layout.params[0].name != "self":
        raise ParseError(f"method {layout.name!r} lacks a self receiver",
                         artifact=artifact, line=line_no)
    return layout.name, layout.ret, [(p.name, p.annotation)
                                     for p in layout.params[1:]]


def _add_method(cur_class: _OpenClass,
                header: tuple[str, str | None, list[tuple]], line_no: int,
                last: int,
                assignments: dict[str, tuple[re.Match, int]] | None,
                artifact: str, lines: list[str],
                types: dict[str | None, TypeRef]) -> None:
    header_name, ret, header_params = header
    params = [Parameter(name, types.get(annotation) or types.setdefault(
        annotation, read_type(annotation, "python", artifact, line_no)))
              for name, annotation in header_params]
    cls = cur_class.cls
    is_ctor = assignments is not None
    name = cls.name if is_ctor else header_name
    key = (normalize_name(name), len(params))
    if key in cur_class.member_keys:
        raise DuplicateMemberError(f"duplicate method {name!r}/{len(params)}",
                                   artifact=artifact, line=line_no)
    if is_ctor:
        if cls.constructor() is not None:
            raise DuplicateMemberError(
                f"class {cls.name!r} defines __init__ twice",
                artifact=artifact, line=line_no)
        ctor_types = {p.name: p.type for p in params}
        for am, n in assignments.values():
            # the right-hand side up to any '#': a literal, the name of a
            # constructor parameter, or anything else
            rhs = am[3].split("#")[0].strip()
            atype = _LITERAL_TYPES.get(rhs) or ctor_types.get(rhs, _UNKNOWN)
            cls.attributes.append(Attribute(
                am[2], atype, Visibility.UNKNOWN,
                SourceSpan(artifact, n, am.start() + 1, n, am.end(3) + 1)))
    cur_class.member_keys.add(key)
    cur_class.last_line = last
    returns = types.get(ret) or types.setdefault(
        ret, read_type(ret, "python", artifact, line_no))
    cls.methods.append(Method(
        name, params, returns, Visibility.UNKNOWN, is_ctor,
        SourceSpan(artifact, line_no, 1, last, len(lines[last - 1]) + 1)))

