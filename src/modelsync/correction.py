"""Turn findings into paired corrections, one alternative on each side.

Every error finding yields one :class:`CorrectionSet` holding a model-side
and/or code-side alternative that each repair it on their own; a policy
then picks among them (see :mod:`.repair`, which also applies the picks).

Each edit carries the very class and member objects ``check`` matched on
its side, so same-name overloads stay apart and nothing is looked up again
by name.  Members copied from the code into the model get snake_case names
converted to camelCase, mirroring how merged models conventionally spell
them.
"""

from __future__ import annotations

import copy
from typing import NamedTuple

from .consistency import Finding, FindingKind, Report
from .errors import StaleReportError
from .model import ClassDef, ClassModel, Method, Parameter, TypeRef
from .pycode import CodeDocument, PY_TYPE_SPELLINGS

# moved to the write path, which only writing commands import
_IN_REPAIR = frozenset({"Policy", "apply", "resolve"})


def __getattr__(name: str):
    if name in _IN_REPAIR:
        from . import repair
        return getattr(repair, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _py_spelling(t: TypeRef) -> str | None:
    """A type as a code annotation; None when it names nothing."""
    if t.kind != "named":
        return None
    return PY_TYPE_SPELLINGS.get(t.name, t.name)
