"""Writing the code dialect: edits spliced into a document span-wise, and
model entities written as code, in the stubs ``sync`` inserts and the
skeletons ``gen-code`` renders; each caller passes in the map of the type
names it spells differently from the model.  :func:`first_read` finds
where a method body still reads a name, for a new signature that drops a
parameter.

Only the commands that write (``sync`` and ``gen-code``) import this
module, when they run; the old import paths (``modelsync.pycode.
apply_code_edits``, ...) still resolve to the names here.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import OverlappingEditsError, SpanOutOfRangeError
from .model import (UML_TO_PY, Attribute, ClassDef, ClassModel, Method,
                    Parameter, SourceSpan, TypeRef, spell_type)
from .plantuml import fenced_block
from .pycode import CodeDocument


class CodeEdit(NamedTuple):
    """One textual patch; spans use the same convention as SourceSpan."""

    kind: str
    span: SourceSpan
    payload: str = ""


def _offset(starts, line: int, col: int) -> int:
    """The text offset of a span position, by the document's line table."""
    if line == len(starts) and col == 1:
        # insertion at end of final, newline-terminated line
        return starts[-1] - 1
    if not 1 <= line < len(starts):
        raise SpanOutOfRangeError(f"line {line} outside text")
    off = starts[line - 1] + col - 1
    # up to the line's newline, or to the end of the last line
    if off >= starts[line]:
        raise SpanOutOfRangeError(f"column {col} outside line {line}")
    return off


def apply_code_edits(doc: CodeDocument, edits: list[CodeEdit]) -> str:
    """Apply edits span-wise; untouched bytes are preserved verbatim."""
    text = doc.raw_text
    starts = doc.lines()
    resolved: list[tuple[int, int, str, int]] = []
    seen: set[tuple[int, int, str, str]] = set()
    for seq, edit in enumerate(edits):
        s = _offset(starts, edit.span.start_line, edit.span.start_col)
        e = _offset(starts, edit.span.end_line, edit.span.end_col)
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
    def_line = doc.line(method.span.start_line)
    def_indent = len(def_line) - len(def_line.lstrip())
    for n in range(method.span.start_line + 1, method.span.end_line + 1):
        line = doc.line(n)
        if line.strip():
            return len(line) - len(line.lstrip())
    return def_indent + 4


def member_indent(doc: CodeDocument, cls: ClassDef) -> int:
    """Indent used by a class's members (falls back to 4)."""
    for m in cls.methods:
        if m.span is not None:
            line = doc.line(m.span.start_line)
            return len(line) - len(line.lstrip())
    return 4


def first_read(doc: CodeDocument, method: Method, names,
               skip: set[int]) -> tuple[int, str] | None:
    """The line and name of the first read of one of ``names`` in
    ``method``'s body outside the lines ``skip``: a name token that follows
    no ``.`` and names no keyword argument; None when there is none.  In a
    body that Python cannot tokenize, each line past where it stops that
    spells a name counts as a read of it."""
    first = method.span.start_line + 1
    body = [doc.line(n) for n in range(first, method.span.end_line + 1)]
    # a line that spells none of the names reads none of them: most bodies
    # are read without loading tokenize
    spelled = [(n, name) for n, line in enumerate(body, first)
               if n not in skip for name in names if name in line]
    if not spelled:
        return None
    import tokenize

    lines = iter([line + "\n" for line in body])
    tokens: list[tokenize.TokenInfo] = []
    unread: list[tuple[int, str]] = []
    try:
        for tok in tokenize.generate_tokens(lambda: next(lines, "")):
            tokens.append(tok)
    except (tokenize.TokenError, SyntaxError):
        end = first + tokens[-1].start[0] - 1 if tokens else first - 1
        unread = [(n, name) for n, name in spelled if n > end]
    depth = 0
    for i, tok in enumerate(tokens):
        line_no = first + tok.start[0] - 1
        if tok.string in ("(", "[", "{"):
            depth += 1
        elif tok.string in (")", "]", "}"):
            depth -= 1
        elif (tok.type == tokenize.NAME and tok.string in names
              and line_no not in skip and tokens[i - 1].string != "."
              and not (depth and tokens[i + 1:i + 2]
                       and tokens[i + 1].string == "=")):
            return line_no, tok.string
    return unread[0] if unread else None


# a string literal alone on its line or lines, up to an optional comment
# (compiled on first use, by re's cache: few syncs need it)
_DOCSTRING = r'''
    [rRuU]?
    (?: """ (?: [^"\\] | \\[\s\S] | "(?!"") )* """
      | \'\'\' (?: [^'\\] | \\[\s\S] | '(?!'') )* \'\'\'
      | " (?: [^"\\\n] | \\[\s\S] )* "
      | ' (?: [^'\\\n] | \\[\s\S] )* ' )
    [ \t]* (?: \#.* )? $'''


def dialect_lines(doc: CodeDocument) -> tuple[int, int]:
    """The first and last line, counted from 1, that ``doc``'s model was
    read from: the body of its ```` ```python ```` block, or all lines."""
    first, last = (fenced_block(doc.raw_text, "python", doc.artifact)
                   or (0, len(doc.lines()) - 2))
    return first + 1, last + 1


def future_import_line(doc: CodeDocument) -> int | None:
    """The line ``from __future__ import annotations`` goes in before;
    None when the text has that import already.  Future imports come
    before every class and after any module docstring: the import goes
    before the text's first future import, else after a module docstring,
    else before the first line that is not a comment, all within the
    lines :func:`dialect_lines` gives."""
    starts = doc.lines()
    lo, hi = dialect_lines(doc)
    head = min((c.span.start_line for c in doc.model.classes), default=hi)
    future = [n for n in range(lo, head + 1)
              if doc.line(n).startswith("from __future__ import")]
    if any("annotations" in doc.line(n) for n in future):
        return None
    if future:
        return future[0]
    first = next((n for n in range(lo, hi + 1)
                  if not doc.line(n).startswith("#")), hi + 1)
    # the first statement, which may be a docstring: a statement above it
    # would make it a plain expression
    start = first
    while start <= hi and doc.line(start).strip()[:1] in ("", "#"):
        start += 1
    offset = starts[start - 1]
    m = re.compile(_DOCSTRING, re.M | re.X).match(doc.raw_text, offset)
    if m is None:
        return first
    return start + doc.raw_text.count("\n", offset, m.end()) + 1


def placeholder_rhs(t: TypeRef) -> str:
    """A neutral expression of type ``t``, for a stub to assign."""
    if t.kind == "collection":
        return "[]"
    if spell_type(t, "python", UML_TO_PY) == "bool":
        return "False"
    return "None"


def params_text(params: list[Parameter], names: dict[str, str]) -> str:
    """A def line's parameters: the receiver, then ``params``, each
    annotated when Python spells its type, with type names mapped by
    ``names``."""
    return ", ".join(["self"] + [
        f"{p.name}: {t}" if (t := spell_type(p.type, "python", names))
        else p.name for p in params])


def attr_assignment(indent: str, attr: Attribute,
                    params: list[Parameter] = ()) -> str:
    """``self.x = ...`` for ``attr``, from the same-named parameter when
    that has the attribute's type, otherwise from a placeholder."""
    from_param = any(p.name == attr.name and p.type == attr.type
                     for p in params)
    rhs = attr.name if from_param else placeholder_rhs(attr.type)
    return f"{indent}self.{attr.name} = {rhs}"


def init_stub(indent: str, params: list[Parameter], attrs: list[Attribute],
              names: dict[str, str]) -> list[str]:
    """The lines of an ``__init__`` taking ``params`` that assigns each of
    ``attrs``."""
    body = indent + "    "
    lines = [f"{indent}def __init__({params_text(params, names)}):"]
    lines += [attr_assignment(body, a, params) for a in attrs] or [
        f"{body}pass"]
    return lines


def method_stub(indent: str, method: Method,
                names: dict[str, str]) -> list[str]:
    """The lines of a method with a placeholder body."""
    ret = spell_type(method.return_type, "python", names)
    suffix = f" -> {ret}" if ret else ""
    return [f"{indent}def {method.name}"
            f"({params_text(method.params, names)}){suffix}:",
            f"{indent}    pass"]


def render_class_stub(cls: ClassDef, names: dict[str, str]) -> list[str]:
    """Skeleton lines for one class; bodies are placeholders only."""
    lines = [f"class {cls.name}:"]
    ctor = cls.constructor()
    if ctor is not None or cls.attributes:
        params = (ctor.params if ctor is not None else
                  [Parameter(a.name, a.type) for a in cls.attributes
                   if a.type.kind != "collection"])
        lines += init_stub("    ", params, cls.attributes, names)
    for m in cls.methods:
        if not m.is_constructor:
            lines += method_stub("    ", m, names)
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
        # the model's own names, which the future import leaves unevaluated,
        # so that the skeleton extracts to the same model
        out.extend(render_class_stub(cls, {}))
    return "\n".join(out) + "\n"
