"""Writing the code dialect: edits spliced into a document span-wise, and
skeletons rendered from a model.

Only the commands that write (``sync`` and ``gen-code``) import this
module, when they run; the old import paths (``modelsync.pycode.
apply_code_edits``, ...) still resolve to the names here.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .errors import OverlappingEditsError, SpanOutOfRangeError
from .model import (Attribute, ClassDef, ClassModel, Method, Parameter,
                    SourceSpan, TypeRef)
from .pycode import CodeDocument


class CodeEdit(NamedTuple):
    """One textual patch; spans use the same convention as SourceSpan."""

    kind: str
    span: SourceSpan
    payload: str = ""


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
