"""Parser, skeleton generator and span-based editor for the code dialect.

The dialect is an indentation-based subset of Python treated purely as a
data format:

* ``class NAME:`` introduces a class block
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

Edits are textual and span-based so that method bodies and comments
survive patching byte-for-byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import accumulate

from .errors import (DuplicateClassError, DuplicateMemberError,
                     OverlappingEditsError, ParseError, SpanOutOfRangeError)
from .model import (Attribute, ClassDef, ClassModel, Method, Parameter,
                    SourceSpan, TypeRef, Visibility, normalize_name)

_CLASS_RE = re.compile(r"^class\s+(\w+)\s*:\s*(?:#.*)?$")
_DEF_START_RE = re.compile(r"^(\s*)def\s+(\w+)\s*\(")
_ATTR_RE = re.compile(r"^self\.(\w+)\s*=\s*(.+)$")
_IDENT_RE = re.compile(r"^\w+$")

# Spelling used when a model-side type must appear in a code annotation.
PY_TYPE_SPELLINGS = {"String": "str", "boolean": "bool"}

@dataclass(frozen=True)
class CodeEdit:
    """One textual patch; spans use the same convention as SourceSpan."""

    kind: str
    span: SourceSpan
    payload: str = ""


@dataclass
class CodeDocument:
    """A parsed code artifact: its model, the verbatim text, that text split
    once into lines, and the artifact name its spans carry."""

    model: ClassModel
    raw_text: str
    artifact: str
    text_lines: list[str] = field(repr=False, compare=False)

    def lines(self) -> list[str]:
        return self.text_lines


@dataclass(frozen=True)
class ParamLayout:
    """Character extents of one parameter inside a def line (0-based)."""

    name: str
    name_start: int
    name_end: int
    annotation: str | None
    annot_start: int   # covers ':' through the annotation text
    annot_end: int
    default: str | None


@dataclass(frozen=True)
class DefLayout:
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


@dataclass(frozen=True)
class AttrLayout:
    """Character extents of a ``self.NAME = RHS`` line (0-based)."""

    start: int         # the statement without surrounding blanks
    end: int
    name: str
    name_start: int
    name_end: int
    rhs: str           # up to any '#', trailing blanks dropped
    rhs_start: int
    rhs_end: int


def _scan_brackets(line: str, lparen: int
                   ) -> tuple[int, list[tuple[int, int, int, int]]] | None:
    """One pass over the brackets and quotes from the ``(`` at ``lparen``.

    Returns the index of the bracket that closes it and, for each
    comma-separated piece at the top level inside, the absolute
    ``(start, end, colon, eq)`` where ``colon`` and ``eq`` are the first
    top-level ``:`` and ``=`` in the piece, or -1.  A quote runs to the
    next copy of its own character; any closing bracket closes any
    opening one.  None when the parenthesis never closes.
    """
    pieces: list[tuple[int, int, int, int]] = []
    depth = 0
    quote: str | None = None
    start, colon, eq = lparen + 1, -1, -1
    for i in range(lparen, len(line)):
        ch = line[i]
        if quote:
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth == 0:
                pieces.append((start, i, colon, eq))
                return i, pieces
        elif depth == 1:
            if ch == ",":
                pieces.append((start, i, colon, eq))
                start, colon, eq = i + 1, -1, -1
            elif ch == ":" and colon < 0:
                colon = i
            elif ch == "=" and eq < 0:
                eq = i
    return None


def scan_def_line(line: str) -> DefLayout | None:
    """Decompose a ``def`` line into precisely located pieces."""
    m = _DEF_START_RE.match(line)
    if not m:
        return None
    indent = len(m.group(1))
    name = m.group(2)
    name_start, name_end = m.start(2), m.end(2)
    lparen = m.end() - 1
    scanned = _scan_brackets(line, lparen)
    if scanned is None:
        return None
    rparen, pieces = scanned

    params: list[ParamLayout] = []
    if line[lparen + 1:rparen].strip():
        for lo, hi, colon, eq in pieces:
            pm = re.match(r"(\s*)(\w+)", line[lo:hi])
            if not pm:
                return None
            p_start = lo + pm.start(2)
            p_end = lo + pm.end(2)
            annotation = None
            annot_start = annot_end = p_end
            default = None
            first_marker = min(m for m in (colon, eq, hi) if m >= 0)
            if line[p_end:first_marker].strip():
                return None  # stray text between the name and : or =
            if colon >= 0 and (eq < 0 or colon < eq):
                annot_text_end = eq if eq >= 0 else hi
                annotation = line[colon + 1:annot_text_end].strip()
                if not annotation:
                    return None
                annot_start = colon
                annot_end = p_end + len(line[p_end:annot_text_end].rstrip())
            if eq >= 0:
                default = line[eq + 1:hi].strip()
            params.append(ParamLayout(pm.group(2), p_start, p_end,
                                      annotation, annot_start, annot_end,
                                      default))

    tail = line[rparen + 1:]
    rm = re.match(r"\s*->\s*(\S[^:]*?)\s*:\s*(?:#.*)?$", tail)
    if rm:
        ret = rm.group(1)
        # span covers '->' plus the type text, excluding the final colon
        ret_start = rparen + 1 + tail.index("->")
        ret_end = rparen + 1 + rm.end(1)
        return DefLayout(indent, name, name_start, name_end, lparen, rparen,
                         tuple(params), ret, ret_start, ret_end)
    if re.match(r"\s*:\s*(?:#.*)?$", tail):
        return DefLayout(indent, name, name_start, name_end, lparen, rparen,
                         tuple(params), None, rparen + 1, rparen + 1)
    return None


def scan_attr_line(line: str) -> AttrLayout | None:
    """Decompose a ``self.NAME = RHS`` line into precisely located pieces."""
    stripped = line.strip()
    m = _ATTR_RE.match(stripped)
    if not m:
        return None
    start = len(line) - len(line.lstrip())
    rhs = m.group(2).split("#")[0].rstrip()
    rhs_start = start + m.start(2)
    return AttrLayout(start, start + len(stripped), m.group(1),
                      start + m.start(1), start + m.end(1),
                      rhs, rhs_start, rhs_start + len(rhs))


def _strip_fence(text: str) -> str:
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
    content = _strip_fence(text)
    lines = content.split("\n")
    model = ClassModel(origin="code-artifact")
    doc = CodeDocument(model, content, artifact, lines)
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

    for idx, line in enumerate(lines):
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
                artifact=artifact, line=line_no,
                expected="method definition or pass")
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
            artifact=artifact, line=line_no, expected="self")
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
        span = SourceSpan(artifact, cur_def.line_no, p.name_start + 1,
                          cur_def.line_no, p.name_end + 1)
        params.append(Parameter(p.name, ptype, span))
    ret = TypeRef.named(layout.ret) if layout.ret else TypeRef.unknown()
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


def _annotation_spelling(t: TypeRef) -> str | None:
    if t.kind == "named":
        return t.name
    return None


def _param_text(p: Parameter) -> str:
    spelled = _annotation_spelling(p.type)
    return f"{p.name}: {spelled}" if spelled else p.name


def _attr_rhs(attr: Attribute, param_types: dict[str, TypeRef]) -> str:
    if attr.name in param_types and param_types[attr.name] == attr.type:
        return attr.name
    if attr.type.kind == "collection":
        return "[]"
    if attr.type.kind == "named" and attr.type.name in ("bool", "boolean"):
        return "False"
    return "None"


def render_class_stub(cls: ClassDef) -> list[str]:
    """Skeleton lines for one class; bodies are placeholders only."""
    lines = [f"class {cls.name}:"]
    ctor = cls.constructor()
    params: list[Parameter]
    if ctor is not None:
        params = ctor.params
    else:
        params = [Parameter(a.name, a.type) for a in cls.attributes
                  if a.type.kind != "collection"]
    if ctor is not None or cls.attributes:
        sig = ", ".join(["self"] + [_param_text(p) for p in params])
        lines.append(f"    def __init__({sig}):")
        if cls.attributes:
            param_types = {p.name: p.type for p in params}
            for a in cls.attributes:
                lines.append(f"        self.{a.name} = "
                             f"{_attr_rhs(a, param_types)}")
        else:
            lines.append("        pass")
    for m in cls.methods:
        if m.is_constructor:
            continue
        sig = ", ".join(["self"] + [_param_text(p) for p in m.params])
        ret = _annotation_spelling(m.return_type)
        suffix = f" -> {ret}" if ret else ""
        lines.append(f"    def {m.name}({sig}){suffix}:")
        lines.append("        pass")
    if len(lines) == 1:
        lines.append("    pass")
    return lines


def render_code_skeleton(model: ClassModel) -> str:
    """Generate dialect code whose structure mirrors the model.

    Constructors assign each attribute, from a same-named parameter when
    the types agree, otherwise from a neutral placeholder expression.
    Non-constructor methods get placeholder bodies.
    """
    if not model.classes:
        return ""
    out: list[str] = ["from __future__ import annotations", ""]
    for i, cls in enumerate(model.classes):
        if i:
            out.append("")
        out.extend(render_class_stub(cls))
    return "\n".join(out) + "\n"


def _offset(text: str, starts: list[int], line: int, col: int) -> int:
    if line == len(starts) + 1 and col == 1:
        return len(text)  # insertion at end of final, newline-terminated line
    if not 1 <= line <= len(starts):
        raise SpanOutOfRangeError(f"line {line} outside text")
    off = starts[line - 1] + col - 1
    line_end = starts[line] if line < len(starts) else len(text)
    if off > line_end:
        raise SpanOutOfRangeError(f"column {col} outside line {line}")
    return off


def apply_code_edits(doc: CodeDocument, edits: list[CodeEdit]) -> str:
    """Apply edits span-wise; untouched bytes are preserved verbatim."""
    text = doc.raw_text
    # the offset of each line; the last line has no newline after it
    starts = list(accumulate((len(line) + 1 for line in doc.lines()[:-1]),
                             initial=0))
    resolved: list[tuple[int, int, str, int]] = []
    seen: set[tuple[int, int, str, str]] = set()
    for seq, edit in enumerate(edits):
        s = _offset(text, starts, edit.span.start_line, edit.span.start_col)
        e = _offset(text, starts, edit.span.end_line, edit.span.end_col)
        if e < s:
            raise SpanOutOfRangeError("edit span end precedes start")
        payload = "" if edit.kind == "delete-span" else edit.payload
        key = (s, e, edit.kind, payload)
        if key in seen:
            continue  # identical edits collapse (e.g. shared annotation fix)
        seen.add(key)
        resolved.append((s, e, payload, seq))

    ordered = sorted(resolved, key=lambda t: (t[0], t[1], t[3]))
    for (s1, e1, _, _), (s2, e2, _, _) in zip(ordered, ordered[1:]):
        if s1 == e1 and s2 == e2:
            continue  # co-located insertions keep their listed order
        if e1 > s2 or (s1 == s2 and e1 == e2):
            raise OverlappingEditsError(
                f"edits overlap at offsets {s1}..{e1} and {s2}..{e2}")

    # one forward pass: the check above leaves each span starting at or
    # after the end of the one before it
    parts: list[str] = []
    pos = 0
    for s, e, payload, _ in ordered:
        parts += (text[pos:s], payload)
        pos = e
    parts.append(text[pos:])
    return "".join(parts)


def block_delete_span(span: SourceSpan) -> SourceSpan:
    """Widen a block span to whole lines including the trailing newline."""
    return SourceSpan(span.artifact, span.start_line, 1,
                      span.end_line + 1, 1)


def body_indent(doc: CodeDocument, method: Method) -> int:
    """Indent of a method's body lines (falls back to def indent + 4)."""
    assert method.span is not None
    lines = doc.lines()
    def_line = lines[method.span.start_line - 1]
    def_indent = len(def_line) - len(def_line.lstrip())
    for i in range(method.span.start_line, method.span.end_line):
        line = lines[i]
        if line.strip():
            return len(line) - len(line.lstrip())
    return def_indent + 4


def member_indent(doc: CodeDocument, cls: ClassDef) -> int:
    """Indent used by a class's members (falls back to 4)."""
    for m in cls.methods:
        if m.span is not None:
            line = doc.lines()[m.span.start_line - 1]
            return len(line) - len(line.lstrip())
    return 4
