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

from typing import NamedTuple

from .consistency import Finding, FindingKind, Report, _what
from .errors import StaleReportError
from .model import (UML_TO_PY, ClassDef, ClassModel, Method, Parameter,
                    spell_type)
from .pycode import CodeDocument

# moved to the write path, which only writing commands import
_IN_REPAIR = frozenset({"Policy", "apply", "resolve"})


def __getattr__(name: str):
    if name in _IN_REPAIR:
        from . import repair
        return getattr(repair, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CorrectionEdit(NamedTuple):
    """One abstract edit on one side, of one ``kind``: add-class,
    add-member, rename, change-type, change-signature, remove-class or
    remove-member.

    ``cls`` and ``member`` are the objects the finding matched on this
    side: the edited class (None for add-class) and the edited member
    (None for class edits and add-member).  ``payload`` is what the edit
    writes: the added ClassDef or member, the new name, the new TypeRef,
    or the new tuple of Parameters; None for removals.  A change-type edit
    retypes an attribute member, or a method's parameter ``param_index``,
    or its return type when ``param_index`` is None.
    """

    side: str            # "model" | "code"
    kind: str
    cls: ClassDef | None = None
    member: object | None = None         # Method | Attribute
    param_index: int | None = None       # change-type of a parameter
    payload: object | None = None

    @property
    def description(self) -> str:
        """The sentence that says what this edit does."""
        return _describe(*self)


class CorrectionSet(NamedTuple):
    """The alternatives that each repair ``finding`` on their own."""

    finding: Finding
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


def _camelized(entity):
    """A copy of a member, or of a class with its members, named in
    camelCase; a class keeps its own name and its constructor's."""
    if isinstance(entity, ClassDef):
        return entity.replace(
            attributes=[_camelized(a) for a in entity.attributes],
            methods=[_copied(m, m.name) if m.is_constructor
                     else _camelized(m) for m in entity.methods])
    return _copied(entity, snake_to_camel(entity.name))


def _copied(member, name: str):
    """A copy of ``member`` named ``name``, with parameters of its own."""
    if isinstance(member, Method):
        return member.replace(name=name, params=_copied_params(member.params))
    return member.replace(name=name)


def _copied_params(params: list[Parameter]) -> list[Parameter]:
    return [Parameter(p.name, p.type) for p in params]


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


_WHERE = {"model": "the design model", "code": "the code"}
_OTHER = {"model": "code", "code": "model"}
# the side that lacks the entity, for each finding kind that says one side
# lacks it
_LACKING = {
    FindingKind.MISSING_CLASS_IN_CODE: "code",
    FindingKind.MISSING_CLASS_IN_MODEL: "model",
    FindingKind.MISSING_METHOD_IN_CODE: "code",
    FindingKind.MISSING_METHOD_IN_MODEL: "model",
    FindingKind.MISSING_ATTRIBUTE_IN_CODE: "code",
    FindingKind.MISSING_ATTRIBUTE_IN_MODEL: "model",
}
# the edit that makes each side say what the other says, for the other
# error kinds
_TAKE_OTHER = {
    FindingKind.PROBABLE_RENAME: "rename",
    FindingKind.CONSTRUCTOR_ARITY_MISMATCH: "change-signature",
    FindingKind.PARAM_TYPE_MISMATCH: "change-type",
    FindingKind.RETURN_TYPE_MISMATCH: "change-type",
    FindingKind.ATTRIBUTE_TYPE_MISMATCH: "change-type",
}


def _targets(f: Finding, side: str) -> tuple:
    """The class and member ``f`` matched on ``side``."""
    if side == "model":
        return f.model_class, f.model_member
    return f.code_class, f.code_member


def _edit(f: Finding, side: str, kind: str, payload=None) -> CorrectionEdit:
    """An edit on ``side`` targeting that side's matched class and member."""
    return CorrectionEdit(side, kind, *_targets(f, side), f.param_index,
                          payload)


def _describe(side: str, kind: str, cls: ClassDef | None, member,
              param_index: int | None, payload) -> str:
    """The sentence that says what an edit of ``kind`` on ``side`` does."""
    where = _WHERE[side]
    stub = " as a stub" if side == "code" else ""
    if kind == "add-class":
        return f"add class '{payload.name}' to {where}{stub}"
    if kind == "remove-class":
        return f"remove class '{cls.name}' from {where}"
    if kind == "add-member":
        return (f"add {_what(payload)} '{payload.name}' to class "
                f"'{cls.name}' in {where}{stub}")
    if kind == "remove-member":
        return (f"remove {_what(member)} '{member.name}' from class "
                f"'{cls.name}' in {where}")
    if kind == "rename":
        return (f"rename {_what(member)} '{member.name}' to '{payload}' "
                f"in {where}")
    if kind == "change-signature":
        return (f"make '{member.name}' in {where} take "
                f"({', '.join(p.name for p in payload)}) as in "
                f"{_WHERE[_OTHER[side]]}")
    # change-type: of a parameter, a return type or an attribute
    if param_index is not None:
        subject = (f"parameter '{member.params[param_index].name}' of "
                   f"'{member.name}'")
    elif isinstance(member, Method):
        subject = f"the return type of '{member.name}'"
    else:
        subject = f"attribute '{member.name}'"
    if side == "code":  # the annotation the code edit writes
        payload = spell_type(payload, "python", UML_TO_PY) or payload
    return f"change {subject} to '{payload}' in {where}"


def _build_set(f: Finding) -> CorrectionSet:
    lacking = _LACKING.get(f.kind)
    if lacking is not None:
        # add the entity where it is missing, or remove it where it is
        has = _OTHER[lacking]
        cls, member = _targets(f, has)
        entity = cls if member is None else member
        if lacking == "model":
            entity = _camelized(entity)
        what = "class" if member is None else "member"
        alts = (_edit(f, lacking, f"add-{what}", entity),
                _edit(f, has, f"remove-{what}"))
    else:
        # make each side say what the other says
        kind = _TAKE_OTHER[f.kind]
        alts = tuple(_edit(f, side, kind, _payload(kind, side, f))
                     for side in ("model", "code"))
    return CorrectionSet(f, alts)


def _payload(kind: str, side: str, f: Finding):
    """What a rename, signature or type edit on ``side`` takes from the
    member that ``f`` matched on the other side."""
    other = _targets(f, _OTHER[side])[1]
    if kind == "rename":
        return snake_to_camel(other.name) if side == "model" else other.name
    if kind == "change-signature":
        return tuple(_copied_params(other.params))
    if f.param_index is not None:
        return other.params[f.param_index].type
    return other.return_type if isinstance(other, Method) else other.type
