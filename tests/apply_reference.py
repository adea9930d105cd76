"""The model half of ``correction.apply`` as it was before it became
copy-on-write, its code half as it was before it compiled each edited
class once, and ``pycode.apply_code_edits`` as it was before it spliced in
one forward pass; the differential tests in ``test_apply_differential.py``
hold all three to these.
"""

from __future__ import annotations

import copy
from itertools import accumulate

from modelsync.errors import (DanglingParameterError,
                              OverlappingEditsError, SpanOutOfRangeError)
from modelsync.model import Attribute, ClassModel, normalize_name, spell_type
from modelsync.pycode import CodeDocument, CodeEdit
from modelsync.pywrite import (apply_code_edits, attr_assignment,
                               block_delete_span, body_indent, dialect_lines,
                               init_stub, member_indent, method_stub,
                               params_text, placeholder_rhs,
                               render_class_stub)
from modelsync.repair import (_DEPTH, _final_newline, _future_import,
                              _insertion, _layout, _on_line, _Spellings)


def reference_model(design: ClassModel, chosen) -> ClassModel:
    """Apply the chosen model edits to a deep copy of the whole design."""
    memo: dict[int, object] = {}
    new_model = copy.deepcopy(design, memo)
    for edit in chosen:
        if edit.side == "model":
            _apply_model_edit(new_model, memo, edit)
    return new_model


def _apply_model_edit(model, memo, edit) -> None:
    if edit.kind == "add-class":
        model.classes.append(copy.deepcopy(edit.payload))
        return
    cls = memo[id(edit.cls)]
    if edit.kind == "remove-class":
        model.classes.remove(cls)
        key = normalize_name(cls.name)
        model.relationships = [
            r for r in model.relationships
            if key not in (normalize_name(r.left), normalize_name(r.right))]
        return
    if edit.kind == "add-member":
        member = copy.deepcopy(edit.payload)
        if isinstance(member, Attribute):
            cls.attributes.append(member)
        else:
            cls.methods.append(member)
        return

    member = memo[id(edit.member)]
    if edit.kind == "remove-member":
        if isinstance(member, Attribute):
            cls.attributes.remove(member)
        else:
            cls.methods.remove(member)
        return
    if edit.kind == "rename":
        member.name = edit.payload
        return
    if edit.kind == "change-signature":
        member.params = list(copy.deepcopy(edit.payload))
        return
    if edit.kind == "change-type":
        if isinstance(member, Attribute):
            member.type = edit.payload
        elif edit.param_index is None:
            member.return_type = edit.payload
        else:
            member.params[edit.param_index].type = edit.payload
        return
    raise ValueError(f"unknown model edit kind {edit.kind!r}")


def _offset(text: str, starts: list[int], line: int, col: int) -> int:
    if line == len(starts) + 1 and col == 1:
        return len(text)  # insertion at end of final, newline-terminated line
    if not 1 <= line <= len(starts):
        raise SpanOutOfRangeError(f"line {line} outside text")
    off = starts[line - 1] + col - 1
    line_end = starts[line] - 1 if line < len(starts) else len(text)
    if off > line_end:
        raise SpanOutOfRangeError(f"column {col} outside line {line}")
    return off


def reference_apply_code_edits(doc: CodeDocument,
                               edits: list[CodeEdit]) -> str:
    """Apply edits span-wise, rebuilding the text once per edit."""
    text = doc.raw_text
    starts = list(accumulate((len(line) + 1
                              for line in doc.raw_text.split("\n")[:-1]),
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
            continue
        seen.add(key)
        resolved.append((s, e, payload, seq))

    ordered = sorted(resolved, key=lambda t: (t[0], t[1], t[3]))
    for (s1, e1, _, _), (s2, e2, _, _) in zip(ordered, ordered[1:]):
        if s1 == e1 and s2 == e2:
            continue
        if e1 > s2 or (s1 == s2 and e1 == e2):
            raise OverlappingEditsError(
                f"edits overlap at offsets {s1}..{e1} and {s2}..{e2}")

    for s, e, payload, _ in sorted(resolved,
                                   key=lambda t: (-t[0], -t[1], -t[3])):
        text = text[:s] + payload + text[e:]
    return text


def reference_code(code_doc: CodeDocument, chosen) -> str:
    """The code text ``apply`` writes for the chosen code edits, compiled
    one edit at a time: every edit but the signatures first, then the
    signatures, which take in the parameter retypes gathered on the way;
    the dropped-source check runs after the splice."""
    code_edits: list[CodeEdit] = []
    names = _Spellings()
    ctorless_attrs: dict = {}
    signature_types = {
        id(e.member): {p.name: p.type for p in e.payload}
        for e in chosen if e.side == "code" and e.kind == "change-signature"}
    signatures = []
    for edit in chosen:
        if edit.side == "model":
            continue
        if edit.kind == "change-signature":
            signatures.append(edit)
        else:
            code_edits.extend(_compile_code_edit(
                code_doc, edit, ctorless_attrs, signature_types, names))
    for edit in signatures:
        code_edits.extend(_compile_code_edit(
            code_doc, edit, ctorless_attrs, signature_types, names))
    for cls, attrs in ctorless_attrs.values():
        code_edits.append(_insertion(
            code_doc, "insert-member", cls.span.start_line + 1,
            init_stub(" " * member_indent(code_doc, cls), [], attrs,
                      names)))
    code_edits += _emptied_body_fills(code_doc, code_edits)
    code_edits += _future_import(code_doc, names)
    code_edits += _final_newline(code_doc, code_edits)
    code_edits.sort(key=lambda e: _DEPTH.get(e.kind, 0))
    patched = (apply_code_edits(code_doc, code_edits)
               if code_edits else code_doc.raw_text)
    removed = {id(e.member) for e in chosen
               if e.side == "code" and e.kind == "remove-member"}
    for edit in signatures:
        _require_kept_sources(code_doc, edit, removed)
    return patched


def _compile_code_edit(doc, edit, ctorless_attrs, signature_types, names):
    if edit.kind == "add-class":
        last_line = max((c.span.end_line for c in doc.model.classes
                         if c.span is not None),
                        default=dialect_lines(doc)[1])
        return [_insertion(doc, "insert-class", last_line + 1, [
            "", *render_class_stub(edit.payload, names)])]
    cls = edit.cls
    if edit.kind == "remove-class":
        return [CodeEdit("delete-span", block_delete_span(cls.span))]
    if edit.kind == "add-member":
        member = edit.payload
        if isinstance(member, Attribute):
            ctor = cls.constructor()
            if ctor is None:
                ctorless_attrs.setdefault(id(cls), (cls, []))[1].append(
                    member)
                return []
            return [_insertion(doc, "insert-body", ctor.span.end_line + 1,
                               [attr_assignment(
                                   " " * body_indent(doc, ctor), member)])]
        return [_insertion(doc, "insert-member", cls.span.end_line + 1,
                           method_stub(" " * member_indent(doc, cls),
                                       member, names))]
    member = edit.member
    if edit.kind == "remove-member":
        return [CodeEdit("delete-span", block_delete_span(member.span))]
    if edit.kind == "rename":
        layout, line_no = _layout(doc, member)
        return [_on_line(doc, "rename-identifier", line_no, layout.name_start,
                         layout.name_end, edit.payload)]
    if edit.kind == "change-signature":
        layout, line_no = _layout(doc, member)
        types = signature_types[id(member)]
        sig = params_text([p.replace(type=types[p.name])
                           for p in edit.payload], names)
        return [_on_line(doc, "set-annotation", line_no, layout.lparen + 1,
                         layout.rparen, sig)]
    if isinstance(member, Attribute):
        return _attr_type_edit(doc, cls, member, edit.payload,
                               signature_types, names)
    if edit.param_index is not None:
        return [_param_type_edit(doc, member, edit.param_index,
                                 edit.payload, names)]
    layout, line_no = _layout(doc, member)
    spelled = spell_type(edit.payload, "python", names)
    return [_on_line(doc, "set-annotation", line_no, layout.ret_start,
                     layout.ret_end, f"-> {spelled}" if spelled else "")]


def _param_type_edit(doc, method, index, wanted, names):
    layout, line_no = _layout(doc, method)
    pl = layout.params[index + 1]
    spelled = spell_type(wanted, "python", names)
    start, end = ((pl.annot_start, pl.annot_end) if pl.annotation is not None
                  else (pl.name_end, pl.name_end))
    return _on_line(doc, "set-annotation", line_no, start, end,
                    f": {spelled}" if spelled else "")


def _attr_type_edit(doc, cls, attr, wanted, signature_types, names):
    layout, line_no = _layout(doc, attr)
    ctor = cls.constructor()
    for i, p in enumerate(ctor.params):
        if p.name == layout.rhs:
            types = signature_types.get(id(ctor))
            if types is not None and p.name in types:
                types[p.name] = wanted
                return []
            return [_param_type_edit(doc, ctor, i, wanted, names)]
    return [_on_line(doc, "set-annotation", line_no, layout.rhs_start,
                     layout.rhs_end, placeholder_rhs(wanted))]


def _require_kept_sources(doc, edit, removed) -> None:
    ctor = edit.member
    if not ctor.is_constructor:
        return
    dropped = ({p.name for p in ctor.params if p.type.kind != "unknown"}
               - {p.name for p in edit.payload})
    for attr in edit.cls.attributes:
        if (id(attr) in removed or attr.span is None
                or not ctor.span.start_line < attr.span.start_line
                <= ctor.span.end_line):
            continue
        layout, line_no = _layout(doc, attr)
        if layout.rhs in dropped:
            raise DanglingParameterError(
                f"{doc.artifact}:{line_no}: 'self.{attr.name}' is assigned "
                f"from parameter '{layout.rhs}', which the new signature "
                f"of '{ctor.name}' drops")


def _emptied_body_fills(doc, edits):
    deleted = {n for e in edits if e.kind == "delete-span"
               for n in range(e.span.start_line, e.span.end_line)}
    if not deleted:
        return []
    fills = []
    for cls in doc.model.classes:
        for block, kind in ((cls, "insert-member"),
                            (cls.constructor(), "insert-body")):
            if block is None or block.span.start_line in deleted:
                continue
            start, end = block.span.start_line, block.span.end_line
            body = range(start + 1, end + 1)
            if (deleted.isdisjoint(body)
                    or any(n not in deleted
                           and doc.line(n).lstrip()[:1] not in ("", "#")
                           for n in body)
                    or any(e.kind == kind and start < e.span.start_line
                           <= end + 1 for e in edits)):
                continue
            indent = (member_indent(doc, cls) if block is cls
                      else body_indent(doc, block))
            fills.append(_insertion(doc, kind, end + 1,
                                    [" " * indent + "pass"]))
    return fills
