"""Every record of the library against its dataclass in record_reference.py.

The parse, apply and rename differential tests compare results with
``==``, so they are only as strong as the records' equality.  Over
hypothesis-drawn field values, each record must agree with the dataclass
it replaced on ``==`` and ``!=``, ``repr`` and ``str``, hashing, default
values, ``replace`` (``_replace`` for the immutable records) and the
``ValueError`` checks of ``SourceSpan`` and ``TypeRef``.  Changing any one
compared field must make two records unequal, and a deep copy must equal
its original.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from modelsync.config import Config
from modelsync.consistency import (ClassMatch, Finding, FindingKind,
                                   InputDescriptor, Location, MatchOptions,
                                   MatchResult, MemberPair, Report)
from modelsync.correction import CorrectionEdit, CorrectionSet
from modelsync.model import (Attribute, ClassDef, ClassModel, Method,
                             Parameter, Record, Relationship, SourceSpan,
                             TypeRef, Visibility)
from modelsync.pycode import CodeDocument, CodeEdit

import record_reference as ref

_text = st.text(alphabet="ab_ ", max_size=3)
_opt_text = st.none() | _text
_ints = st.integers(-2, 40)
_opt_int = st.none() | _ints
_span = st.builds(SourceSpan, st.sampled_from(["model", "code"]),
                  st.integers(1, 3), st.integers(1, 3), st.integers(4, 5),
                  st.integers(1, 9))
_opt_span = st.none() | _span
_type = st.sampled_from([
    TypeRef.unknown(), TypeRef.void(), TypeRef.named("int"),
    TypeRef.named("str"), TypeRef.collection(TypeRef.named("int"))])
_visibility = st.sampled_from(Visibility)
_param = st.builds(Parameter, _text, _type)
_method = st.builds(Method, _text, st.lists(_param, max_size=2), _type,
                    _visibility, st.booleans(), _opt_span)
_attribute = st.builds(Attribute, _text, _type, _visibility, _opt_span)
_member = _method | _attribute
_class = st.builds(ClassDef, _text, st.lists(_attribute, max_size=2),
                   st.lists(_method, max_size=2), _opt_span)
_relationship = st.builds(Relationship, _text, _text, _opt_text, _opt_text,
                          _opt_text, st.booleans())
_model = st.builds(ClassModel, st.lists(_class, max_size=2),
                   st.lists(_relationship, max_size=1))
_location = st.builds(Location, _text, _opt_text, _opt_span)
_opt_location = st.none() | _location
_kind = st.sampled_from(FindingKind)
_finding = st.builds(Finding, _text, _kind, _opt_location,
                     _opt_location, _text, st.none() | _class,
                     st.none() | _class, st.none() | _member,
                     st.none() | _member, _opt_int)
_options = st.builds(MatchOptions, _text, st.floats(allow_nan=True),
                     st.just(frozenset()), st.booleans())
_member_pair = st.builds(MemberPair, _member, _member, _ints, _ints)
_payload = (st.none() | _text | _type | st.tuples(_param) | _class
            | _member)
_edit = st.builds(CorrectionEdit, _text, _text, st.none() | _class,
                  st.none() | _member, _opt_int, _payload)

# (record, its reference, one strategy per field in order)
RECORDS = [
    (SourceSpan, ref.SourceSpan,
     [_text, st.integers(-1, 4), st.integers(-1, 4), st.integers(-1, 4),
      st.integers(-1, 4)]),
    (TypeRef, ref.TypeRef,
     [st.sampled_from(["named", "collection", "unknown", "void"]),
      st.sampled_from([None, "", "int", "str"]),
      st.sampled_from([None, TypeRef.named("int"), TypeRef.void()])]),
    (Parameter, ref.Parameter, [_text, _type]),
    (Method, ref.Method,
     [_text, st.lists(_param, max_size=2), _type, _visibility, st.booleans(),
      _opt_span]),
    (Attribute, ref.Attribute, [_text, _type, _visibility, _opt_span]),
    (ClassDef, ref.ClassDef,
     [_text, st.lists(_attribute, max_size=2), st.lists(_method, max_size=2),
      _opt_span]),
    (Relationship, ref.Relationship,
     [_text, _text, _opt_text, _opt_text, _opt_text, st.booleans()]),
    (ClassModel, ref.ClassModel,
     [st.lists(_class, max_size=2), st.lists(_relationship, max_size=2)]),
    (MatchOptions, ref.MatchOptions,
     [_text, st.floats(allow_nan=True), st.just(frozenset()) |
      st.just(frozenset({frozenset({"a", "b"})})), st.booleans()]),
    (Location, ref.Location, [_text, _opt_text, _opt_span]),
    (Finding, ref.Finding,
     [_text, _kind, _opt_location, _opt_location, _text,
      st.none() | _class, st.none() | _class, st.none() | _member,
      st.none() | _member, _opt_int]),
    (InputDescriptor, ref.InputDescriptor, [_text, _text]),
    (Report, ref.Report,
     [_ints, st.tuples(st.builds(InputDescriptor, _text, _text)), _options,
      st.lists(_finding, max_size=2).map(tuple)]),
    (MemberPair, ref.MemberPair, [_member, _member, _ints, _ints]),
    (ClassMatch, ref.ClassMatch,
     [_class, _class, st.lists(_member_pair, max_size=2)]
     + [st.lists(_member, max_size=1)] * 2),
    (MatchResult, ref.MatchResult,
     [st.lists(st.builds(ClassMatch, _class, _class), max_size=1),
      st.lists(_class, max_size=1), st.lists(_class, max_size=1)]),
    (CodeEdit, ref.CodeEdit, [_text, _span, _text]),
    (CodeDocument, ref.CodeDocument,
     [_model, _text, _text, st.none() | st.lists(_ints, max_size=2)]),
    (Config, ref.Config,
     [_text, st.floats(allow_nan=True),
      st.tuples(st.tuples(_text, _text)), _text, _text, _text, _text,
      _text]),
    (CorrectionEdit, ref.CorrectionEdit,
     [_text, _text, st.none() | _class, st.none() | _member,
      _opt_int, _payload]),
    (CorrectionSet, ref.CorrectionSet,
     [_finding, st.tuples(_edit)]),
]


def _made(make, *args, **kwargs):
    """(the record, None), or (None, the ValueError's message)."""
    try:
        return make(*args, **kwargs), None
    except ValueError as exc:
        return None, str(exc)


def _hashed(record):
    try:
        return hash(record)
    except TypeError:
        return "unhashable"


def _replace(record, **changes):
    if isinstance(record, Record):
        return record.replace(**changes)
    return record._replace(**changes)


def _field_names(cls) -> tuple[str, ...]:
    return cls.__slots__ if issubclass(cls, Record) else cls._fields


def _compared_names(cls) -> tuple[str, ...]:
    return cls._compared if issubclass(cls, Record) else cls._fields


def _assert_same(new, old, names) -> None:
    assert repr(new) == repr(old)
    assert str(new) == str(old)
    assert _hashed(new) == _hashed(old)
    for name in names:
        assert getattr(new, name) is getattr(old, name), name


def test_every_record_has_a_reference():
    assert len({new for new, _, _ in RECORDS}) == len(RECORDS) == 21
    for new, old, strategies in RECORDS:
        fields = dataclasses.fields(old)
        assert _field_names(new) == tuple(f.name for f in fields)
        assert _compared_names(new) == \
            tuple(f.name for f in fields if f.compare)
        assert len(strategies) == len(fields), new.__name__


@pytest.mark.parametrize("new_cls, ref_cls, strategies", RECORDS,
                         ids=[new.__name__ for new, _, _ in RECORDS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_record_matches_reference(new_cls, ref_cls, strategies, data):
    fields = dataclasses.fields(ref_cls)
    names = [f.name for f in fields]
    values = data.draw(st.tuples(*strategies), label="values")
    k = data.draw(st.integers(0, len(names) - 1), label="changed field")
    changed = data.draw(strategies[k], label="new value")
    other = values[:k] + (changed,) + values[k + 1:]

    new, error = _made(new_cls, *values)
    old, ref_error = _made(ref_cls, *values)
    assert error == ref_error
    if error is None:
        _assert_same(new, old, names)
        assert new == new_cls(*values)

        new_2, error_2 = _made(new_cls, *other)
        old_2, ref_error_2 = _made(ref_cls, *other)
        assert error_2 == ref_error_2
        if error_2 is None:
            assert (new == new_2) == (old == old_2)
            assert (new != new_2) == (old != old_2)
            if fields[k].compare and not (changed is values[k]
                                          or changed == values[k]):
                assert new != new_2

        replaced, error_r = _made(_replace, new, **{names[k]: changed})
        ref_replaced, ref_error_r = _made(dataclasses.replace, old,
                                          **{names[k]: changed})
        assert error_r == ref_error_r
        if error_r is None:
            _assert_same(replaced, ref_replaced, names)
        assert getattr(new, names[k]) is values[k]  # the original stays

        assert copy.deepcopy(new) == new

    required = [f for f in fields if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]
    given_values = values[:len(required)]
    new, error = _made(new_cls, *given_values)
    old, ref_error = _made(ref_cls, *given_values)
    assert error == ref_error
    if error is None:
        assert repr(new) == repr(old)
        for f in fields[len(required):]:
            value = getattr(new, f.name)
            assert repr(value) == repr(getattr(old, f.name))
            if isinstance(value, list):  # a fresh list per record
                assert value is not getattr(new_cls(*given_values), f.name)


def test_excluded_fields_leave_equality_and_repr_alone():
    cls = ClassDef("A")
    method = Method("go")
    base = Finding("id", FindingKind.PROBABLE_RENAME, None, None, "detail")
    matched = Finding("id", FindingKind.PROBABLE_RENAME, None, None,
                      "detail", cls, cls, method, method, 0)
    assert base == matched and repr(base) == repr(matched)
    assert hash(base) == hash(matched)
    assert "ClassDef" not in repr(matched)

    model = ClassModel()
    doc = CodeDocument(model, "x\n", "code")
    doc.lines()
    assert doc == CodeDocument(model, "x\n", "code")
    assert "line_starts" not in repr(doc)
