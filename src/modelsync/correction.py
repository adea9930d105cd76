"""Turn findings into paired corrections and apply them under a policy.

Every error finding yields one :class:`CorrectionSet` holding a model-side
and/or code-side alternative that each repair it on their own.  A policy
picks among alternatives:

* ``model-wins`` edits the code, ``code-wins`` edits the model
* ``union`` adds missing entities to whichever side lacks them and, for
  value conflicts, imposes the preferred side's value (default: model)

Each edit carries the very class and member objects ``check`` matched on
its side, so same-name overloads stay apart and nothing is looked up again
by name.  Model edits copy only the classes and members they touch and
are re-rendered canonically; code edits compile down to span-based text
patches so method bodies and comments survive byte-for-byte.  Members
copied from the code into the model get snake_case names converted to
camelCase, mirroring how merged models conventionally spell them.
"""

from __future__ import annotations

import copy
from enum import Enum
from typing import NamedTuple

from .consistency import Finding, FindingKind, MISSING_KINDS, Report
from .errors import (DanglingParameterError, EditConflictError,
                     StaleReportError)
from .model import (Attribute, ClassDef, ClassModel, Method, Parameter,
                    SourceSpan, TypeRef, normalize_name)
from .pycode import (CodeDocument, CodeEdit, PY_TYPE_SPELLINGS,
                     apply_code_edits, block_delete_span, body_indent,
                     member_indent, render_class_stub, scan_attr_line,
                     scan_def_line)


class Policy(Enum):
    MODEL_WINS = "model-wins"
    CODE_WINS = "code-wins"
    UNION = "union"


class CorrectionEdit(NamedTuple):
    """One abstract edit on one side; payload fields depend on ``kind``:
    add-class, add-member, rename, change-type, change-signature,
    remove-class or remove-member.

    ``cls`` and ``member`` are the objects the finding matched on this
    side: the edited class (None for add-class) and the edited member
    (None for class edits and add-member).  A change-type edit retypes an
    attribute member, or a method's parameter ``param_index``, or its
    return type when ``param_index`` is None.
    """

    side: str            # "model" | "code"
    kind: str
    description: str
    cls: ClassDef | None = None
    member: object | None = None         # Method | Attribute
    new_name: str | None = None          # rename
    new_type: TypeRef | None = None      # change-type
    param_index: int | None = None       # change-type of a parameter
    new_params: tuple[Parameter, ...] | None = None   # change-signature
    class_payload: ClassDef | None = None             # add-class
    member_payload: object | None = None              # add-member


class CorrectionSet(NamedTuple):
    finding_id: str
    finding_kind: FindingKind
    detail: str
    alternatives: tuple[CorrectionEdit, ...]

    def side(self, side: str) -> CorrectionEdit | None:
        for alt in self.alternatives:
            if alt.side == side:
                return alt
        return None


def snake_to_camel(name: str) -> str:
    parts = [p for p in name.split("_") if p]
    if not parts:
        return name
    head, *rest = parts
    return head + "".join(p[:1].upper() + p[1:] for p in rest)


def _camelized_member(member):
    clone = copy.deepcopy(member)
    clone.name = snake_to_camel(clone.name)
    return clone


def _camelized_class(cls: ClassDef) -> ClassDef:
    clone = copy.deepcopy(cls)
    for a in clone.attributes:
        a.name = snake_to_camel(a.name)
    for m in clone.methods:
        if not m.is_constructor:
            m.name = snake_to_camel(m.name)
    return clone


def propose(report: Report, design: ClassModel,
            code_doc: CodeDocument) -> list[CorrectionSet]:
    """One CorrectionSet per error finding; advisory findings yield none.

    The edits act on the objects each finding matched, so ``design`` and
    ``code_doc`` must be the very pair ``check`` analysed; any other pair
    raises StaleReportError.
    """
    sets = [_build_set(f) for f in report.findings if f.severity == "error"]
    _require_pair(design, code_doc,
                  (alt for s in sets for alt in s.alternatives))
    return sets


def _require_pair(design: ClassModel, code_doc: CodeDocument,
                  edits) -> None:
    """Raise StaleReportError unless every edit targets a class of this
    ``design`` (model edits) or of ``code_doc`` (code edits)."""
    classes = {"model": {id(c) for c in design.classes},
               "code": {id(c) for c in code_doc.model.classes}}
    for edit in edits:
        if edit.cls is not None and id(edit.cls) not in classes[edit.side]:
            raise StaleReportError(
                "the report was made from another "
                + ("design model" if edit.side == "model"
                   else "code document"))


def _edit(f: Finding, side: str, kind: str, description: str,
          **payload) -> CorrectionEdit:
    """An edit on ``side`` targeting that side's matched class and member."""
    if side == "model":
        return CorrectionEdit(side, kind, description, f.model_class,
                              f.model_member, param_index=f.param_index,
                              **payload)
    return CorrectionEdit(side, kind, description, f.code_class,
                          f.code_member, param_index=f.param_index,
                          **payload)


def _build_set(f: Finding) -> CorrectionSet:
    kind = f.kind
    alts: list[CorrectionEdit]
    if kind is FindingKind.MISSING_CLASS_IN_CODE:
        cls = f.model_class
        assert cls is not None
        alts = [
            _edit(f, "code", "add-class",
                  f"add class '{cls.name}' to the code as a stub",
                  class_payload=cls),
            _edit(f, "model", "remove-class",
                  f"remove class '{cls.name}' from the design model"),
        ]
    elif kind is FindingKind.MISSING_CLASS_IN_MODEL:
        cls = f.code_class
        assert cls is not None
        alts = [
            _edit(f, "model", "add-class",
                  f"add class '{cls.name}' to the design model",
                  class_payload=_camelized_class(cls)),
            _edit(f, "code", "remove-class",
                  f"remove class '{cls.name}' from the code"),
        ]
    elif kind in (FindingKind.MISSING_METHOD_IN_CODE,
                  FindingKind.MISSING_ATTRIBUTE_IN_CODE):
        member = f.model_member
        what = ("method" if kind is FindingKind.MISSING_METHOD_IN_CODE
                else "attribute")
        alts = [
            _edit(f, "code", "add-member",
                  f"add {what} '{member.name}' to class "
                  f"'{f.code_class.name}' in the code as a stub",
                  member_payload=member),
            _edit(f, "model", "remove-member",
                  f"remove {what} '{member.name}' from class "
                  f"'{f.model_class.name}' in the design model"),
        ]
    elif kind in (FindingKind.MISSING_METHOD_IN_MODEL,
                  FindingKind.MISSING_ATTRIBUTE_IN_MODEL):
        member = f.code_member
        what = ("method" if kind is FindingKind.MISSING_METHOD_IN_MODEL
                else "attribute")
        renamed = _camelized_member(member)
        alts = [
            _edit(f, "model", "add-member",
                  f"add {what} '{renamed.name}' to class "
                  f"'{f.model_class.name}' in the design model",
                  member_payload=renamed),
            _edit(f, "code", "remove-member",
                  f"remove {what} '{member.name}' from class "
                  f"'{f.code_class.name}' in the code"),
        ]
    elif kind is FindingKind.PROBABLE_RENAME:
        m, c = f.model_member, f.code_member
        what = "method" if isinstance(m, Method) else "attribute"
        alts = [
            _edit(f, "model", "rename",
                  f"rename {what} '{m.name}' to "
                  f"'{snake_to_camel(c.name)}' in the design model",
                  new_name=snake_to_camel(c.name)),
            _edit(f, "code", "rename",
                  f"rename {what} '{c.name}' to '{m.name}' in the code",
                  new_name=m.name),
        ]
    elif kind is FindingKind.CONSTRUCTOR_ARITY_MISMATCH:
        m, c = f.model_member, f.code_member
        alts = [
            _edit(f, "model", "change-signature",
                  f"make '{m.name}' in the design model take "
                  f"({_params_text(c.params)}) as in the code",
                  new_params=tuple(copy.deepcopy(c.params))),
            _edit(f, "code", "change-signature",
                  f"make '{c.name}' in the code take "
                  f"({_params_text(m.params)}) as in the design model",
                  new_params=tuple(copy.deepcopy(m.params))),
        ]
    elif kind is FindingKind.PARAM_TYPE_MISMATCH:
        m, c = f.model_member, f.code_member
        i = f.param_index
        assert i is not None
        alts = [
            _edit(f, "model", "change-type",
                  f"change parameter '{m.params[i].name}' of "
                  f"'{m.name}' to '{c.params[i].type}' in the "
                  f"design model",
                  new_type=c.params[i].type),
            _edit(f, "code", "change-type",
                  f"change parameter '{c.params[i].name}' of "
                  f"'{c.name}' to "
                  f"'{_py_spelling_text(m.params[i].type)}' in "
                  f"the code",
                  new_type=m.params[i].type),
        ]
    elif kind is FindingKind.RETURN_TYPE_MISMATCH:
        m, c = f.model_member, f.code_member
        alts = [
            _edit(f, "model", "change-type",
                  f"change the return type of '{m.name}' to "
                  f"'{c.return_type}' in the design model",
                  new_type=c.return_type),
            _edit(f, "code", "change-type",
                  f"change the return type of '{c.name}' to "
                  f"'{_py_spelling_text(m.return_type)}' in the code",
                  new_type=m.return_type),
        ]
    elif kind is FindingKind.ATTRIBUTE_TYPE_MISMATCH:
        m, c = f.model_member, f.code_member
        alts = [
            _edit(f, "model", "change-type",
                  f"change attribute '{m.name}' to '{c.type}' "
                  f"in the design model",
                  new_type=c.type),
            _edit(f, "code", "change-type",
                  f"change attribute '{c.name}' to "
                  f"'{_py_spelling_text(m.type)}' in the code",
                  new_type=m.type),
        ]
    else:  # pragma: no cover - advisory kinds are filtered by propose
        raise ValueError(f"no corrections for {kind}")
    return CorrectionSet(f.id, kind, f.detail, tuple(alts))


def _params_text(params) -> str:
    return ", ".join(p.name for p in params)


def _py_spelling_text(t: TypeRef) -> str:
    return _py_spelling(t) or str(t)


def resolve(sets: list[CorrectionSet], policy: Policy,
            preferred_side: str = "model") -> list[CorrectionEdit]:
    """Pick one alternative per set according to the policy."""
    chosen: list[CorrectionEdit] = []
    for s in sets:
        if policy is Policy.MODEL_WINS:
            pick = s.side("code")
        elif policy is Policy.CODE_WINS:
            pick = s.side("model")
        else:  # union
            if s.finding_kind in MISSING_KINDS:
                pick = next((a for a in s.alternatives
                             if a.kind.startswith("add-")), None)
            else:
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
    new_model = ClassModel(list(design.classes), list(design.relationships),
                           design.origin)
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

    # compile class insertions last: they share their insertion point with
    # member stubs appended to the final class, and must come after them;
    # compile signatures after the retypes they take in
    class_adds: list[CorrectionEdit] = []
    signatures: list[CorrectionEdit] = []
    for edit in chosen:
        if edit.side == "model":
            _apply_model_edit(new_model, memo, edit)
        elif edit.kind == "add-class":
            class_adds.append(edit)
        elif edit.kind == "change-signature":
            signatures.append(edit)
        else:
            code_edits.extend(_compile_code_edit(
                code_doc, edit, ctorless_attrs, signature_types))

    for edit in signatures:
        code_edits.extend(_compile_code_edit(
            code_doc, edit, ctorless_attrs, signature_types))
    for cls, attrs in ctorless_attrs.values():
        code_edits.append(_ctor_insertion(code_doc, cls, attrs))
    for edit in class_adds:
        code_edits.extend(_compile_code_edit(
            code_doc, edit, ctorless_attrs, signature_types))

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


def _py_param_text(p: Parameter) -> str:
    spelled = _py_spelling(p.type)
    return f"{p.name}: {spelled}" if spelled else p.name


def _placeholder_rhs(t: TypeRef) -> str:
    if t.kind == "collection":
        return "[]"
    if t.kind == "named" and t.name in ("bool", "boolean"):
        return "False"
    return "None"


def _py_spelling(t: TypeRef) -> str | None:
    """A type as a code annotation; None when it names nothing."""
    if t.kind != "named":
        return None
    return PY_TYPE_SPELLINGS.get(t.name, t.name)


def _insertion_span(artifact: str, line: int) -> SourceSpan:
    return SourceSpan(artifact, line, 1, line, 1)


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
        stub = "\n".join(render_class_stub(edit.class_payload))
        return [CodeEdit("insert-class",
                         _insertion_span(artifact, last_line + 1),
                         f"\n{stub}\n")]

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
            indent = " " * body_indent(doc, ctor)
            line = (f"{indent}self.{member.name} = "
                    f"{_placeholder_rhs(member.type)}\n")
            assert ctor.span is not None
            return [CodeEdit("insert-member",
                             _insertion_span(artifact,
                                             ctor.span.end_line + 1),
                             line)]
        indent = " " * member_indent(doc, cls)
        sig = ", ".join(["self"] + [_py_param_text(p)
                                    for p in member.params])
        spelled = _py_spelling(member.return_type)
        ret = f" -> {spelled}" if spelled else ""
        name = "__init__" if member.is_constructor else member.name
        stub = (f"{indent}def {name}({sig}){ret}:\n"
                f"{indent}    pass\n")
        return [CodeEdit("insert-member",
                         _insertion_span(artifact, cls.span.end_line + 1),
                         stub)]

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
        sig = ", ".join(["self"] + [
            _py_param_text(p.replace(type=types[p.name]))
            for p in (edit.new_params or ())])
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
        spelled = _py_spelling(edit.new_type)
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
    spelled = _py_spelling(new_type)
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
    return [CodeEdit("set-annotation", span, _placeholder_rhs(new_type))]


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


def _ctor_insertion(doc: CodeDocument, cls: ClassDef,
                    attrs: list[Attribute]) -> CodeEdit:
    artifact = doc.artifact
    indent = " " * member_indent(doc, cls)
    body = " " * (member_indent(doc, cls) + 4)
    lines = [f"{indent}def __init__(self):"]
    lines += [f"{body}self.{a.name} = {_placeholder_rhs(a.type)}"
              for a in attrs]
    assert cls.span is not None
    return CodeEdit("insert-member",
                    _insertion_span(artifact, cls.span.start_line + 1),
                    "\n".join(lines) + "\n")
