"""The model half of ``correction.apply`` as it was before it became
copy-on-write, and ``pycode.apply_code_edits`` as it was before it
spliced in one forward pass; the differential tests in
``test_apply_differential.py`` hold both to these.
"""

from __future__ import annotations

import copy
from itertools import accumulate

from modelsync.errors import OverlappingEditsError, SpanOutOfRangeError
from modelsync.model import Attribute, ClassModel, normalize_name
from modelsync.pycode import CodeDocument, CodeEdit
from modelsync.pywrite import _offset


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
        model.classes.append(copy.deepcopy(edit.class_payload))
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
        member = copy.deepcopy(edit.member_payload)
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
        member.name = edit.new_name
        return
    if edit.kind == "change-signature":
        member.params = list(copy.deepcopy(edit.new_params or ()))
        return
    if edit.kind == "change-type":
        if isinstance(member, Attribute):
            member.type = edit.new_type
        elif edit.param_index is None:
            member.return_type = edit.new_type
        else:
            member.params[edit.param_index].type = edit.new_type
        return
    raise ValueError(f"unknown model edit kind {edit.kind!r}")


def reference_apply_code_edits(doc: CodeDocument,
                               edits: list[CodeEdit]) -> str:
    """Apply edits span-wise, rebuilding the text once per edit."""
    text = doc.raw_text
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
