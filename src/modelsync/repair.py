"""The write path: chosen corrections become patched, re-checked text.

``resolve`` picks one alternative per :class:`CorrectionSet` under a
policy:

* ``model-wins`` edits the code, ``code-wins`` edits the model
* ``union`` adds missing entities to whichever side lacks them and, for
  value conflicts, imposes the preferred side's value (default: model)

``apply`` then edits the model copy-on-write, to be re-rendered
canonically, and compiles code edits down to span-based text patches
(spliced by :mod:`.pywrite`), so method bodies and comments survive
byte-for-byte.  Insertions that share a line go innermost block first: a
line added to a constructor that ends its class before the stubs appended
to that class, and those before an added class.  When an edit may annotate
with a name Python does not define, ``from __future__ import annotations``
goes in before the first future import, else after a module docstring,
else before the first line that is not a comment.  The rest asks for
corrections on the terminal, re-parses ``sync``'s outputs and names the
paths they go to; ``modelsync.cli`` writes them.

Only ``sync`` imports this module, when it runs, so ``check`` and ``gen``
never compile it; the old import paths (``modelsync.correction.apply``,
...) still resolve to the names here.  The code-text half lives in its own
module because CPython's compile of a module holds memory in proportion to
its size, on top of the program already loaded: one module of both halves
raised the peak RSS of a small ``sync`` by about 0.7 MB.
"""

from __future__ import annotations

import builtins
import copy
import os
from enum import Enum
from pathlib import Path

from .correction import CorrectionEdit, CorrectionSet, _require_pair
from .errors import DanglingParameterError, EditConflictError, ParseError
from .model import (Attribute, ClassDef, ClassModel, Method, SourceSpan,
                    TypeRef, normalize_name)
from .pycode import (CodeDocument, py_annotation, scan_attr_line,
                     scan_def_line)
from .pywrite import (CodeEdit, apply_code_edits, attr_assignment,
                      block_delete_span, body_indent, future_import_line,
                      init_stub, member_indent, method_stub, params_text,
                      placeholder_rhs, render_class_stub)


class Policy(Enum):
    MODEL_WINS = "model-wins"
    CODE_WINS = "code-wins"
    UNION = "union"


def resolve(sets: list[CorrectionSet], policy: Policy,
            preferred_side: str = "model") -> list[CorrectionEdit]:
    """Pick one alternative per set according to the policy."""
    chosen: list[CorrectionEdit] = []
    for s in sets:
        if policy is Policy.MODEL_WINS:
            pick = s.side("code")
        elif policy is Policy.CODE_WINS:
            pick = s.side("model")
        else:  # union: add what one side lacks, else follow preferred_side
            pick = next((a for a in s.alternatives
                         if a.kind.startswith("add-")), None)
            if pick is None:
                pick = s.side("code" if preferred_side == "model"
                              else "model")
        if pick is not None:
            chosen.append(pick)
    return chosen


def apply(design: ClassModel, code_doc: CodeDocument,
          chosen: list[CorrectionEdit]) -> tuple[ClassModel, str]:
    """Apply chosen edits; returns the new model and the patched code text.

    The edits must come from ``propose`` on this ``design`` and
    ``code_doc``; edits of another pair raise StaleReportError.  The model
    is edited copy-on-write: ``new_model`` holds a copy of each class and
    member an edit touches and shares every other one with ``design``, so
    treat both as values (callers re-render the model).  The code is
    patched span-wise so untouched bytes survive verbatim.
    """
    _require_pair(design, code_doc, chosen)
    new_model = ClassModel(list(design.classes), list(design.relationships))
    # the copy of each edited design object, by the id of the original
    memo: dict[int, object] = {}
    code_edits: list[CodeEdit] = []
    # attribute insertions into classes lacking a constructor are grouped,
    # one synthesized __init__ per class
    ctorless_attrs: dict[int, tuple[ClassDef, list[Attribute]]] = {}

    # a retype of a parameter on a def line that also gets a new signature
    # is folded into that signature when it keeps the parameter's name: the
    # parameter types it writes, by name, for each re-signed method
    signature_types: dict[int, dict[str, TypeRef]] = {
        id(e.member): {p.name: p.type for p in e.new_params or ()}
        for e in chosen if e.side == "code" and e.kind == "change-signature"}

    # compile signatures after the retypes they take in
    signatures: list[CorrectionEdit] = []
    for edit in chosen:
        if edit.side == "model":
            _apply_model_edit(new_model, memo, edit)
        elif edit.kind == "change-signature":
            signatures.append(edit)
        else:
            code_edits.extend(_compile_code_edit(
                code_doc, edit, ctorless_attrs, signature_types))

    for edit in signatures:
        code_edits.extend(_compile_code_edit(
            code_doc, edit, ctorless_attrs, signature_types))
    for cls, attrs in ctorless_attrs.values():
        code_edits.append(_insertion(
            code_doc, "insert-member", cls.span.start_line + 1,
            init_stub(" " * member_indent(code_doc, cls), [], attrs,
                      py_annotation)))
    code_edits += _emptied_body_fills(code_doc, code_edits)
    code_edits += _future_import(code_doc, chosen)
    code_edits += _final_newline(code_doc, code_edits)
    # the splice keeps the listed order of insertions at one point, so
    # this closes the innermost block first
    code_edits.sort(key=lambda e: _DEPTH.get(e.kind, 0))

    patched = (apply_code_edits(code_doc, code_edits)
               if code_edits else code_doc.raw_text)
    # after the splice, so that overlapping edits are reported as such
    removed = {id(e.member) for e in chosen
               if e.side == "code" and e.kind == "remove-member"}
    for edit in signatures:
        _require_kept_sources(code_doc, edit, removed)
    return new_model, patched


# --- model-side edits ------------------------------------------------------

def _slot(items: list, obj: object) -> int:
    """The index of ``obj`` itself in ``items``; ``list.index`` would
    match the first equal value instead."""
    return next(i for i, item in enumerate(items) if item is obj)


def _own(items: list, memo: dict[int, object], original, make_copy):
    """The copy of ``original`` in ``items``, made and put in its slot on
    the first edit; later edits find it in ``memo``."""
    copied = memo.get(id(original))
    if copied is None:
        copied = memo[id(original)] = make_copy(original)
        items[_slot(items, original)] = copied
    return copied


def _copy_class(cls: ClassDef) -> ClassDef:
    return cls.replace(attributes=list(cls.attributes),
                       methods=list(cls.methods))


def _copy_member(member):
    if isinstance(member, Method):
        return member.replace(params=list(member.params))
    return member.replace()


def _members_like(cls: ClassDef, member) -> list:
    return cls.attributes if isinstance(member, Attribute) else cls.methods


def _apply_model_edit(model: ClassModel, memo: dict[int, object],
                      edit: CorrectionEdit) -> None:
    if edit.kind == "add-class":
        assert edit.class_payload is not None
        model.classes.append(copy.deepcopy(edit.class_payload))
        return
    if edit.kind == "remove-class":
        cls = memo.get(id(edit.cls), edit.cls)
        del model.classes[_slot(model.classes, cls)]
        key = normalize_name(cls.name)
        model.relationships = [
            r for r in model.relationships
            if key not in (normalize_name(r.left), normalize_name(r.right))]
        return
    cls = _own(model.classes, memo, edit.cls, _copy_class)
    if edit.kind == "add-member":
        payload = copy.deepcopy(edit.member_payload)
        _members_like(cls, payload).append(payload)
        return
    members = _members_like(cls, edit.member)
    if edit.kind == "remove-member":
        del members[_slot(members, memo.get(id(edit.member), edit.member))]
        return

    member = _own(members, memo, edit.member, _copy_member)
    if edit.kind == "rename":
        member.name = edit.new_name
        return
    if edit.kind == "change-signature":
        member.params = list(copy.deepcopy(edit.new_params or ()))
        return
    if edit.kind == "change-type":
        assert edit.new_type is not None
        if isinstance(member, Attribute):
            member.type = edit.new_type
        elif edit.param_index is None:
            member.return_type = edit.new_type
        else:
            member.params[edit.param_index] = member.params[
                edit.param_index].replace(type=edit.new_type)
        return
    raise EditConflictError(f"unknown model edit kind {edit.kind!r}")


# --- code-side edits -------------------------------------------------------

def _def_layout(doc: CodeDocument, method: Method):
    assert method.span is not None
    line = doc.lines()[method.span.start_line - 1]
    layout = scan_def_line(line)
    if layout is None:
        raise EditConflictError(
            f"cannot re-scan def line for {method.name!r}")
    return layout, method.span.start_line


def _attr_layout(doc: CodeDocument, attr: Attribute):
    # the parser matched this very line, so the scan cannot miss
    assert attr.span is not None
    layout = scan_attr_line(doc.lines()[attr.span.start_line - 1])
    assert layout is not None
    return layout, attr.span.start_line


# the block each kind of insertion goes into, innermost first: the
# newline ending a last line that has none, the module's head, a line of a
# constructor's body, a member of a class, a class
_DEPTH = {"insert-newline": 0, "insert-future": 1, "insert-body": 2,
          "insert-member": 3, "insert-class": 4}


def _insertion(doc: CodeDocument, kind: str, line: int,
               lines: list[str]) -> CodeEdit:
    """``lines`` inserted before line ``line``."""
    return CodeEdit(kind, SourceSpan(doc.artifact, line, 1, line, 1),
                    "\n".join(lines) + "\n")


def _final_newline(doc: CodeDocument, edits: list[CodeEdit]
                   ) -> list[CodeEdit]:
    """The newline a text whose last line has none needs before the
    insertions after that line, so that they start on a line of their own;
    none when that line is deleted."""
    end = len(doc.lines()) + 1
    if (doc.raw_text[-1:] in ("", "\n")
            or not any(e.kind.startswith("insert")
                       and e.span.start_line == end for e in edits)
            or any(e.kind == "delete-span" and e.span.end_line == end
                   for e in edits)):
        return []
    return [_insertion(doc, "insert-newline", end, [""])]


def _annotated_types(edit: CorrectionEdit) -> list[TypeRef]:
    """The types a code edit may write as annotations."""
    if edit.kind == "change-type":
        return [edit.new_type]
    if edit.kind == "change-signature":
        return [p.type for p in edit.new_params or ()]
    if edit.kind == "add-class":
        cls = edit.class_payload
        # a stub without a constructor takes the attributes as parameters
        types = [] if cls.constructor() else [a.type for a in cls.attributes]
        methods = cls.methods
    elif edit.kind == "add-member" and isinstance(edit.member_payload, Method):
        types, methods = [], [edit.member_payload]
    else:
        return []
    return types + [t for m in methods
                    for t in (m.return_type, *(p.type for p in m.params))]


def _future_import(doc: CodeDocument, chosen: list[CorrectionEdit]
                   ) -> list[CodeEdit]:
    """The import that leaves annotations unevaluated, when a code edit may
    annotate with a name Python does not define and the text lacks it, at
    the line :func:`.pywrite.future_import_line` picks."""
    names = {py_annotation(t) for e in chosen if e.side == "code"
             for t in _annotated_types(e) if t.kind == "named"}
    if names.issubset(vars(builtins)):
        return []
    line = future_import_line(doc)
    if line is None:
        return []
    return [_insertion(doc, "insert-future", line,
                       ["from __future__ import annotations"])]


def _compile_code_edit(doc: CodeDocument, edit: CorrectionEdit,
                       ctorless_attrs: dict[int, tuple[ClassDef,
                                                       list[Attribute]]],
                       signature_types: dict[int, dict[str, TypeRef]]
                       ) -> list[CodeEdit]:
    artifact = doc.artifact
    if edit.kind == "add-class":
        assert edit.class_payload is not None
        last_line = max((c.span.end_line for c in doc.model.classes
                         if c.span is not None), default=len(doc.lines()))
        return [_insertion(doc, "insert-class", last_line + 1, [
            "", *render_class_stub(edit.class_payload, py_annotation)])]

    cls = edit.cls
    assert cls is not None and cls.span is not None
    if edit.kind == "remove-class":
        return [CodeEdit("delete-span", block_delete_span(cls.span))]

    if edit.kind == "add-member":
        member = edit.member_payload
        if isinstance(member, Attribute):
            ctor = cls.constructor()
            if ctor is None:
                ctorless_attrs.setdefault(id(cls), (cls, []))[1].append(
                    member)
                return []
            assert ctor.span is not None
            return [_insertion(doc, "insert-body", ctor.span.end_line + 1,
                               [attr_assignment(
                                   " " * body_indent(doc, ctor), member)])]
        return [_insertion(doc, "insert-member", cls.span.end_line + 1,
                           method_stub(" " * member_indent(doc, cls),
                                       member, py_annotation))]

    member = edit.member
    assert member is not None and member.span is not None
    if edit.kind == "remove-member":
        return [CodeEdit("delete-span", block_delete_span(member.span))]

    if edit.kind == "rename":
        layout, line_no = (_attr_layout(doc, member)
                           if isinstance(member, Attribute)
                           else _def_layout(doc, member))
        span = SourceSpan(artifact, line_no, layout.name_start + 1,
                          line_no, layout.name_end + 1)
        return [CodeEdit("rename-identifier", span, edit.new_name or "")]

    if edit.kind == "change-signature":
        layout, line_no = _def_layout(doc, member)
        types = signature_types[id(member)]
        sig = params_text([p.replace(type=types[p.name])
                           for p in edit.new_params or ()], py_annotation)
        span = SourceSpan(artifact, line_no, layout.lparen + 2,
                          line_no, layout.rparen + 1)
        return [CodeEdit("set-annotation", span, sig)]

    if edit.kind == "change-type":
        assert edit.new_type is not None
        if isinstance(member, Attribute):
            return _attr_type_edit(doc, cls, member, edit.new_type,
                                   signature_types)
        if edit.param_index is not None:
            return [_param_type_edit(doc, member, edit.param_index,
                                     edit.new_type)]
        layout, line_no = _def_layout(doc, member)
        spelled = py_annotation(edit.new_type)
        if layout.ret is not None:
            span = SourceSpan(artifact, line_no, layout.ret_start + 1,
                              line_no, layout.ret_end + 1)
            payload = f"-> {spelled}" if spelled else ""
        else:
            span = _after_col(artifact, line_no, layout.rparen + 1)
            payload = f" -> {spelled}" if spelled else ""
        return [CodeEdit("set-annotation", span, payload)]

    raise EditConflictError(f"unknown code edit kind {edit.kind!r}")


def _after_col(artifact: str, line: int, col0: int) -> SourceSpan:
    return SourceSpan(artifact, line, col0 + 1, line, col0 + 1)


def _param_type_edit(doc: CodeDocument, method: Method, index: int,
                     new_type: TypeRef) -> CodeEdit:
    layout, line_no = _def_layout(doc, method)
    pl = layout.params[index + 1]  # params[0] is the receiver
    if pl.annotation is not None:
        span = SourceSpan(doc.artifact, line_no, pl.annot_start + 1,
                          line_no, pl.annot_end + 1)
    else:
        span = _after_col(doc.artifact, line_no, pl.name_end)
    spelled = py_annotation(new_type)
    return CodeEdit("set-annotation", span, f": {spelled}" if spelled else "")


def _attr_type_edit(doc: CodeDocument, cls: ClassDef, attr: Attribute,
                    new_type: TypeRef,
                    signature_types: dict[int, dict[str, TypeRef]]
                    ) -> list[CodeEdit]:
    layout, line_no = _attr_layout(doc, attr)
    ctor = cls.constructor()
    assert ctor is not None  # code attributes are assigned in __init__
    for i, p in enumerate(ctor.params):
        if p.name == layout.rhs:
            # the attribute's type comes from this parameter's annotation,
            # so the edit retypes the parameter, in the constructor's new
            # signature when that keeps it
            types = signature_types.get(id(ctor))
            if types is not None and p.name in types:
                types[p.name] = new_type
                return []
            return [_param_type_edit(doc, ctor, i, new_type)]
    span = SourceSpan(doc.artifact, line_no, layout.rhs_start + 1,
                      line_no, layout.rhs_end + 1)
    return [CodeEdit("set-annotation", span, placeholder_rhs(new_type))]


def _require_kept_sources(doc: CodeDocument, edit: CorrectionEdit,
                          removed: set[int]) -> None:
    """Raise DanglingParameterError when a constructor's new signature
    drops an annotated parameter that an attribute assignment in its body
    still reads, and no chosen edit removes that assignment.

    The attribute's type comes from that annotation, so its re-parsed type
    would turn unknown and the re-check would pass without seeing the
    loss.  A dropped unannotated parameter is still written dangling: the
    attribute's type was unknown before and stays so.
    """
    ctor = edit.member
    if not ctor.is_constructor:
        return
    dropped = ({p.name for p in ctor.params if p.type.kind != "unknown"}
               - {p.name for p in edit.new_params or ()})
    for attr in edit.cls.attributes:
        if (id(attr) in removed or attr.span is None
                or not ctor.span.start_line < attr.span.start_line
                <= ctor.span.end_line):
            continue
        layout, line_no = _attr_layout(doc, attr)
        if layout.rhs in dropped:
            raise DanglingParameterError(
                f"{doc.artifact}:{line_no}: 'self.{attr.name}' is assigned "
                f"from parameter '{layout.rhs}', which the new signature "
                f"of '{ctor.name}' drops")


def _emptied_body_fills(doc: CodeDocument, edits: list[CodeEdit]
                        ) -> list[CodeEdit]:
    """A ``pass`` for each class or constructor body whose statements the
    deletions all remove and into which no line is inserted: a member into
    a class, a body line into a constructor."""
    deleted = {n for e in edits if e.kind == "delete-span"
               for n in range(e.span.start_line, e.span.end_line)}
    if not deleted:
        return []
    lines = doc.lines()
    fills: list[CodeEdit] = []
    for cls in doc.model.classes:
        for block, kind in ((cls, "insert-member"),
                            (cls.constructor(), "insert-body")):
            if block is None or block.span.start_line in deleted:
                continue
            start, end = block.span.start_line, block.span.end_line
            body = range(start + 1, end + 1)
            # a kept line that is neither blank nor a comment is a statement
            if (deleted.isdisjoint(body)
                    or any(n not in deleted
                           and lines[n - 1].lstrip()[:1] not in ("", "#")
                           for n in body)
                    or any(e.kind == kind and start < e.span.start_line
                           <= end + 1 for e in edits)):
                continue
            indent = (member_indent(doc, cls) if block is cls
                      else body_indent(doc, block))
            fills.append(_insertion(doc, kind, end + 1,
                                    [" " * indent + "pass"]))
    return fills


# --- sync's outputs --------------------------------------------------------

def ask(sets: list[CorrectionSet]) -> list[CorrectionEdit]:
    """Let the user pick an alternative per set, or skip it, on stdin."""
    chosen: list[CorrectionEdit] = []
    for i, s in enumerate(sets, 1):
        print(f"\n[{i}/{len(sets)}] {s.detail}")
        for j, alt in enumerate(s.alternatives, 1):
            print(f"  {j}. [{alt.side}] {alt.description}")
        while True:
            try:
                answer = input(
                    f"Choose 1-{len(s.alternatives)} or s to skip: ")
            except EOFError:
                return chosen
            answer = answer.strip().lower()
            if answer == "s":
                break
            if answer.isdigit() and 1 <= int(answer) <= len(s.alternatives):
                chosen.append(s.alternatives[int(answer) - 1])
                break
    return chosen


def reparse(parse, text: str, artifact: str):
    """Parse a corrected output; a failure says that nothing was written."""
    try:
        return parse(text, artifact=artifact)
    except ParseError as exc:
        raise ParseError(f"{exc.args[0]} (in the corrected output; "
                         f"nothing written)", artifact=exc.artifact,
                         line=exc.line, col=exc.col,
                         expected=exc.expected) from exc


def output_paths(args) -> tuple[str, str]:
    """Where ``sync`` writes the model and the code.  Raises OSError when
    both would land on one file, so the case is refused before any input
    is read."""
    if args.in_place:
        model_out, code_out = args.model, args.code
    else:
        out_dir = Path(args.out_dir)
        model_out = str(out_dir / Path(args.model).name)
        code_out = str(out_dir / Path(args.code).name)
    if os.path.realpath(model_out) == os.path.realpath(code_out):
        raise OSError(f"{args.model} and {args.code} would both be written "
                      f"to {model_out}")
    return model_out, code_out
