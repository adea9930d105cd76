"""``correction._build_set`` as it was when it wrote each of its 18
correction descriptions by hand, one branch per finding kind, with the
helpers it called.  ``test_correction_differential.py`` holds
``correction.propose`` to it, alternative by alternative.
"""

from __future__ import annotations

import copy
from typing import NamedTuple

from modelsync.consistency import Finding, FindingKind
from modelsync.correction import CorrectionSet
from modelsync.model import ClassDef, Method

# the type names the code spells differently from the model
_PY_NAMES = {"String": "str", "boolean": "bool"}


def py_annotation(t) -> str | None:
    """How the code annotates with model type ``t``: its name through
    ``_PY_NAMES``, ``None`` for void, ``list[X]`` for a collection; None
    when it writes no annotation (unknown, or a collection of it)."""
    if t.kind == "collection":
        inner = py_annotation(t.element)
        return inner and f"list[{inner}]"
    return {"named": _PY_NAMES.get(t.name, t.name), "void": "None"}.get(
        t.kind)


class CorrectionEdit(NamedTuple):
    """An edit as it was when it stored its description; the library's
    edit now writes it from the other fields."""

    side: str
    kind: str
    description: str
    cls: ClassDef | None = None
    member: object | None = None
    param_index: int | None = None
    payload: object | None = None


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


def _edit(f: Finding, side: str, kind: str, description: str,
          payload=None) -> CorrectionEdit:
    """An edit on ``side`` targeting that side's matched class and member."""
    if side == "model":
        return CorrectionEdit(side, kind, description, f.model_class,
                              f.model_member, param_index=f.param_index,
                              payload=payload)
    return CorrectionEdit(side, kind, description, f.code_class,
                          f.code_member, param_index=f.param_index,
                          payload=payload)


def _build_set(f: Finding) -> CorrectionSet:
    kind = f.kind
    alts: list[CorrectionEdit]
    if kind is FindingKind.MISSING_CLASS_IN_CODE:
        cls = f.model_class
        assert cls is not None
        alts = [
            _edit(f, "code", "add-class",
                  f"add class '{cls.name}' to the code as a stub",
                  payload=cls),
            _edit(f, "model", "remove-class",
                  f"remove class '{cls.name}' from the design model"),
        ]
    elif kind is FindingKind.MISSING_CLASS_IN_MODEL:
        cls = f.code_class
        assert cls is not None
        alts = [
            _edit(f, "model", "add-class",
                  f"add class '{cls.name}' to the design model",
                  payload=_camelized_class(cls)),
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
                  payload=member),
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
                  payload=renamed),
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
                  payload=snake_to_camel(c.name)),
            _edit(f, "code", "rename",
                  f"rename {what} '{c.name}' to '{m.name}' in the code",
                  payload=m.name),
        ]
    elif kind is FindingKind.CONSTRUCTOR_ARITY_MISMATCH:
        m, c = f.model_member, f.code_member
        alts = [
            _edit(f, "model", "change-signature",
                  f"make '{m.name}' in the design model take "
                  f"({_params_text(c.params)}) as in the code",
                  payload=tuple(copy.deepcopy(c.params))),
            _edit(f, "code", "change-signature",
                  f"make '{c.name}' in the code take "
                  f"({_params_text(m.params)}) as in the design model",
                  payload=tuple(copy.deepcopy(m.params))),
        ]
    elif kind is FindingKind.PARAM_TYPE_MISMATCH:
        m, c = f.model_member, f.code_member
        i = f.param_index
        assert i is not None
        want = m.params[i].type
        alts = [
            _edit(f, "model", "change-type",
                  f"change parameter '{m.params[i].name}' of "
                  f"'{m.name}' to '{c.params[i].type}' in the "
                  f"design model",
                  payload=c.params[i].type),
            _edit(f, "code", "change-type",
                  f"change parameter '{c.params[i].name}' of "
                  f"'{c.name}' to '{py_annotation(want) or want}' "
                  f"in the code",
                  payload=want),
        ]
    elif kind is FindingKind.RETURN_TYPE_MISMATCH:
        m, c = f.model_member, f.code_member
        alts = [
            _edit(f, "model", "change-type",
                  f"change the return type of '{m.name}' to "
                  f"'{c.return_type}' in the design model",
                  payload=c.return_type),
            _edit(f, "code", "change-type",
                  f"change the return type of '{c.name}' to "
                  f"'{py_annotation(m.return_type) or m.return_type}' "
                  f"in the code",
                  payload=m.return_type),
        ]
    elif kind is FindingKind.ATTRIBUTE_TYPE_MISMATCH:
        m, c = f.model_member, f.code_member
        alts = [
            _edit(f, "model", "change-type",
                  f"change attribute '{m.name}' to '{c.type}' "
                  f"in the design model",
                  payload=c.type),
            _edit(f, "code", "change-type",
                  f"change attribute '{c.name}' to "
                  f"'{py_annotation(m.type) or m.type}' in the code",
                  payload=m.type),
        ]
    else:  # pragma: no cover - advisory kinds are filtered by propose
        raise ValueError(f"no corrections for {kind}")
    return CorrectionSet(f, tuple(alts))


def _params_text(params) -> str:
    return ", ".join(p.name for p in params)
