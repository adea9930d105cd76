"""``correction.propose`` against the hand-written ``_build_set`` it
replaced, kept in ``tests/correction_reference.py``: set by set and
alternative by alternative, the side, kind, description, targets and
payload must be equal.  A payload copied from the other side (a camelCase
member or class, or a new parameter list) must share no parameter list and
no ``Parameter`` with the entity it was copied from."""

from __future__ import annotations

import random

from modelsync.consistency import FindingKind, check
from modelsync.correction import propose
from modelsync.model import ClassDef, Method
from modelsync.plantuml import parse_plantuml, render_plantuml
from modelsync.pycode import parse_code
from modelsync.pywrite import render_code_skeleton

import correction_reference
from modelgen import (OPERATORS, make_code_model, make_plantuml_model,
                      mutate)
from test_golden import GOLDEN, PAIRS, ROOT

ERROR_KINDS = set(FindingKind) - {FindingKind.RELATIONSHIP_MISSING_IN_CODE,
                                  FindingKind.RELATIONSHIP_MISSING_IN_MODEL}


def _shape(correction_set):
    return (correction_set.finding.id, correction_set.finding.kind,
            correction_set.finding.detail,
            [(a.side, a.kind, a.description, id(a.cls), id(a.member),
              a.param_index, a.payload)
             for a in correction_set.alternatives])


def _assert_same(model_text: str, code_text: str) -> set[FindingKind]:
    """Compare both on one pair; returns the finding kinds proposed for."""
    design = parse_plantuml(model_text)
    code_doc = parse_code(code_text)
    report = check(design, code_doc.model)
    got = propose(report, design, code_doc)
    want = [correction_reference._build_set(f) for f in report.findings
            if f.severity == "error"]
    assert [_shape(s) for s in got] == [_shape(s) for s in want]
    for correction_set in got:
        f = correction_set.finding
        for alt in correction_set.alternatives:
            if alt.side == "model" and alt.kind.startswith("add-"):
                _assert_unshared(alt.payload, f.code_member or f.code_class)
            elif alt.kind == "change-signature":
                _assert_unshared(alt.payload, f.code_member
                                 if alt.side == "model" else f.model_member)
    return {s.finding.kind for s in got}


def _parameter_objects(entity) -> set[int]:
    """The ids of every parameter list and ``Parameter`` in a class, a
    member or a tuple of parameters."""
    if isinstance(entity, tuple):
        return {id(p) for p in entity}
    methods = entity.methods if isinstance(entity, ClassDef) else [entity]
    return {id(obj) for m in methods if isinstance(m, Method)
            for obj in (m.params, *m.params)}


def _assert_unshared(payload, source) -> None:
    assert payload is not source
    assert not _parameter_objects(payload) & _parameter_objects(source)


def test_propose_matches_reference_on_golden_pairs():
    pairs = [tuple((ROOT / p).read_text(encoding="utf-8") for p in pair)
             for pair in PAIRS.values()]
    gen = GOLDEN / "gen-json"
    pairs.append(((gen / "model.puml").read_text(encoding="utf-8"),
                  (gen / "code.py").read_text(encoding="utf-8")))
    kinds: set[FindingKind] = set()
    for model_text, code_text in pairs:
        kinds |= _assert_same(model_text, code_text)
    assert len(kinds) >= 5


def test_propose_matches_reference_on_mutations():
    kinds: set[FindingKind] = set()
    for seed in range(1, 40):
        rng = random.Random(seed)
        for base in (make_code_model(rng), make_plantuml_model(rng)):
            for op in OPERATORS:
                for side in ("model", "code"):
                    mutation = mutate(rng, base, op, side)
                    if mutation is None:
                        continue
                    model, code = ((mutation.mutated, base) if side == "model"
                                   else (base, mutation.mutated))
                    kinds |= _assert_same(render_plantuml(model),
                                          render_code_skeleton(code))
    assert kinds == ERROR_KINDS
