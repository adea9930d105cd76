"""``consistency.check`` and ``match_models`` against the versions kept in
``tests/check_reference.py``, which did each member's work as often as it
was asked for.  On every pair and every option set both must give the same
report, field by field, with the very same matched class and member
objects, and the same class matches: links (objects, distance, longest,
order) and leftovers."""

from __future__ import annotations

import itertools
import random

import pytest

from modelsync import consistency
from modelsync.consistency import MatchOptions
from modelsync.model import (Attribute, ClassDef, ClassModel, Method,
                             Parameter, Relationship, TypeRef,
                             make_type_table)
from modelsync.plantuml import parse_plantuml
from modelsync.pycode import parse_code

import check_reference
from modelgen import drifted_names, make_code_model, make_plantuml_model
from test_golden import GOLDEN, PAIRS, ROOT

NAME_MODES = ("canonical", "exact")
THRESHOLDS = (0, 0.3, 1, -1, float("nan"))
# equivalence is not transitive: String ~ str and str ~ text, yet String
# and text differ
TABLES = ((), (("String", "str"), ("str", "text")))
SPELLINGS = {"String": ("String", "str", "text")}


def _options():
    """Each name mode with each threshold, beside the four type table and
    relationship settings in turn, so each mode meets all four."""
    settings = itertools.cycle(itertools.product(TABLES, (False, True)))
    for (mode, threshold), (pairs, infer) in zip(
            itertools.product(NAME_MODES, THRESHOLDS), settings):
        yield MatchOptions(mode, threshold, make_type_table(pairs), infer)


def _ids(objects) -> list[int]:
    return [id(o) for o in objects]


def _match_shape(result) -> tuple:
    return ([(id(cm.model_class), id(cm.code_class),
              [(id(link.model), id(link.code), link.distance, link.longest)
               for link in cm.links],
              _ids(cm.model_only), _ids(cm.code_only))
             for cm in result.class_matches],
            _ids(result.model_only_classes), _ids(result.code_only_classes))


def _report_shape(report) -> tuple:
    return (report.schema_version, report.inputs, report.options,
            [(f.id, f.kind, f.severity, f.model_loc, f.code_loc, f.detail,
              id(f.model_class), id(f.code_class), id(f.model_member),
              id(f.code_member), f.param_index) for f in report.findings])


def _assert_same(design: ClassModel, code: ClassModel) -> int:
    """Compare both under every option set; returns the findings seen."""
    findings = 0
    for opts in _options():
        assert _match_shape(consistency.match_models(design, code, opts)) \
            == _match_shape(check_reference.match_models(design, code,
                                                         opts)), opts
        got = consistency.check(design, code, opts)
        assert _report_shape(got) == _report_shape(
            check_reference.check(design, code, opts)), opts
        findings += len(got.findings)
    return findings


def _respelled(rng: random.Random, t: TypeRef) -> TypeRef:
    if t.kind == "collection":
        return TypeRef.collection(_respelled(rng, t.element))
    if t.kind == "named" and t.name in SPELLINGS:
        return TypeRef.named(rng.choice(SPELLINGS[t.name]))
    return t


def _respell_types(rng: random.Random, model: ClassModel) -> ClassModel:
    """``model`` with each ``String`` spelled at random as one of the
    chain's three names, in place."""
    for cls in model.classes:
        for attr in cls.attributes:
            attr.type = _respelled(rng, attr.type)
        for method in cls.methods:
            method.return_type = _respelled(rng, method.return_type)
            for param in method.params:
                param.type = _respelled(rng, param.type)
    return model


def test_check_matches_reference_on_golden_pairs():
    pairs = [tuple((ROOT / p).read_text(encoding="utf-8") for p in pair)
             for pair in PAIRS.values()]
    gen = GOLDEN / "gen-json"
    pairs.append(((gen / "model.puml").read_text(encoding="utf-8"),
                  (gen / "code.py").read_text(encoding="utf-8")))
    findings = 0
    for model_text, code_text in pairs:
        findings += _assert_same(parse_plantuml(model_text),
                                 parse_code(code_text).model)
    assert findings > 100


def test_check_matches_reference_on_drifted_models():
    findings = 0
    for seed in range(1, 61):
        for generate in (make_code_model, make_plantuml_model):
            rng = random.Random(seed)
            design = generate(rng)
            code = _respell_types(rng, drifted_names(rng, design))
            findings += _assert_same(design, code)
    assert findings > 1000


# a few spellings of a few names, so that one key holds several members:
# overloads, canonical collisions, extra constructors, ties between renames
_NAMES = ("get_a", "getA", "geta", "get_b", "a", "A", "a_")
_CLASSES = ("Box", "box", "B_ox", "Cup")
_TYPES = (TypeRef.named("String"), TypeRef.named("str"),
          TypeRef.named("text"), TypeRef.named("int"), TypeRef.unknown(),
          TypeRef.collection(TypeRef.named("str")), TypeRef.named("Cup"),
          TypeRef.collection(TypeRef.named("box")))


def _crowded_class(rng: random.Random, name: str) -> ClassDef:
    cls = ClassDef(name)
    for _ in range(rng.randint(0, 4)):
        cls.attributes.append(Attribute(rng.choice(_NAMES),
                                        rng.choice(_TYPES)))
    for _ in range(rng.randint(0, 6)):
        ctor = rng.random() < 0.2
        params = [Parameter(f"p{k}", rng.choice(_TYPES))
                  for k in range(rng.randint(0, 2))]
        cls.methods.append(Method(name if ctor else rng.choice(_NAMES),
                                  params, rng.choice(_TYPES),
                                  is_constructor=ctor))
    return cls


def _crowded_model(rng: random.Random) -> ClassModel:
    return ClassModel(
        [_crowded_class(rng, name)
         for name in rng.sample(_CLASSES, rng.randint(1, 3))],
        [Relationship(*rng.sample(_CLASSES, 2))
         for _ in range(rng.randint(0, 2))])


def test_check_matches_reference_on_crowded_names():
    findings = 0
    for seed in range(300):
        rng = random.Random(seed)
        findings += _assert_same(_crowded_model(rng), _crowded_model(rng))
    assert findings > 5000


@pytest.mark.parametrize("check", [consistency.check, check_reference.check])
def test_an_unknown_name_mode_is_refused(check):
    model = ClassModel([ClassDef("A")])
    with pytest.raises(ValueError, match="unknown name mode 'loose'"):
        check(model, model, MatchOptions(name_mode="loose"))
