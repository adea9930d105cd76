from __future__ import annotations

import random

import pytest

from modelsync.consistency import FindingKind, check
from modelsync.correction import (Policy, apply, propose, resolve,
                                  snake_to_camel)
from modelsync.errors import OverlappingEditsError, StaleReportError
from modelsync.model import model_equal
from modelsync.plantuml import parse_plantuml, render_plantuml
from modelsync.pycode import parse_code, render_code_skeleton

from modelgen import OPERATORS, make_code_model, mutate
from helpers import class_named

POLICIES = (Policy.MODEL_WINS, Policy.CODE_WINS, Policy.UNION)


def _checked(model_text: str, code_text: str):
    design = parse_plantuml(model_text).model
    code_doc = parse_code(code_text)
    report = check(design, code_doc.model)
    return design, code_doc, report


def _recheck(model_out: str, code_out: str):
    design = parse_plantuml(model_out).model
    code = parse_code(code_out).model
    return check(design, code)


def test_snake_to_camel():
    assert snake_to_camel("add_book") == "addBook"
    assert snake_to_camel("check_overdue_books") == "checkOverdueBooks"
    assert snake_to_camel("getName") == "getName"


def test_empty_report_proposes_nothing(v1_model_text):
    design = parse_plantuml(v1_model_text).model
    code_doc = parse_code(render_code_skeleton(design))
    report = check(design, code_doc.model)
    assert propose(report, design, code_doc) == []


def test_propose_one_set_per_error_finding(drifted_model_text,
                                           drifted_code_text):
    design, code_doc, report = _checked(drifted_model_text,
                                        drifted_code_text)
    sets = propose(report, design, code_doc)
    assert len(sets) == len(report.error_findings())
    for s in sets:
        sides = {alt.side for alt in s.alternatives}
        assert sides == {"model", "code"}


def test_propose_stale_report_rejected(drifted_model_text,
                                       drifted_code_text, v1_code_text):
    design, code_doc, report = _checked(drifted_model_text,
                                        drifted_code_text)
    other_doc = parse_code(v1_code_text)
    with pytest.raises(StaleReportError):
        propose(report, design, other_doc)
    with pytest.raises(StaleReportError):  # equal text, other objects
        propose(report, parse_plantuml(drifted_model_text).model, code_doc)
    propose(report, design, code_doc)  # must not raise


def test_apply_stale_edits_rejected(drifted_model_text, drifted_code_text):
    design, code_doc, report = _checked(drifted_model_text,
                                        drifted_code_text)
    sets = propose(report, design, code_doc)
    with pytest.raises(StaleReportError):  # equal text, other objects
        apply(parse_plantuml(drifted_model_text).model, code_doc,
              resolve(sets, Policy.CODE_WINS))
    # the User method the model calls getNamae, respelled in another doc
    assert "def getName(self)" in drifted_code_text
    respelled = parse_code(drifted_code_text.replace("def getName(self)",
                                                     "def getTitle(self)"))
    with pytest.raises(StaleReportError):
        apply(design, respelled, resolve(sets, Policy.MODEL_WINS))


def test_param_type_alternatives_match_both_directions(drifted_model_text,
                                                       drifted_code_text):
    design, code_doc, report = _checked(drifted_model_text,
                                        drifted_code_text)
    sets = propose(report, design, code_doc)
    param_set = next(s for s in sets
                     if s.finding_kind is FindingKind.PARAM_TYPE_MISMATCH)
    model_alt = param_set.side("model")
    code_alt = param_set.side("code")
    assert "'int'" in model_alt.description
    assert "'str'" in code_alt.description


def test_applying_either_type_alternative_clears_finding(
        drifted_model_text, drifted_code_text):
    design, code_doc, report = _checked(drifted_model_text,
                                        drifted_code_text)
    sets = propose(report, design, code_doc)
    param_set = next(s for s in sets
                     if s.finding_kind is FindingKind.PARAM_TYPE_MISMATCH)
    for side in ("model", "code"):
        alt = param_set.side(side)
        new_model, new_code = apply(design, code_doc, [alt])
        re_report = _recheck(render_plantuml(new_model), new_code)
        assert param_set.finding_id not in {f.id for f in re_report.findings}


def test_code_annotation_edit_matches_expected_shape(drifted_model_text,
                                                     drifted_code_text):
    design, code_doc, report = _checked(drifted_model_text,
                                        drifted_code_text)
    sets = propose(report, design, code_doc)
    param_set = next(s for s in sets
                     if s.finding_kind is FindingKind.PARAM_TYPE_MISMATCH)
    _, new_code = apply(design, code_doc, [param_set.side("code")])
    assert "def __init__(self, userID: str):" in new_code


def test_apply_no_edits_keeps_artifacts(drifted_model_text,
                                        drifted_code_text):
    design, code_doc, _ = _checked(drifted_model_text, drifted_code_text)
    new_model, new_code = apply(design, code_doc, [])
    assert model_equal(new_model, design)
    assert new_code == code_doc.raw_text


def test_code_wins_rewrites_model(drifted_model_text, drifted_code_text):
    design, code_doc, report = _checked(drifted_model_text,
                                        drifted_code_text)
    sets = propose(report, design, code_doc)
    chosen = resolve(sets, Policy.CODE_WINS)
    assert all(e.side == "model" for e in chosen)
    new_model, new_code = apply(design, code_doc, chosen)
    assert new_code == code_doc.raw_text
    rendered = render_plantuml(new_model)
    assert "+getName(): String" in rendered
    assert "+User(name, userCard)" in rendered
    assert "-userID: int" in rendered
    assert _recheck(rendered, new_code).error_findings() == ()


def test_model_wins_rewrites_code(drifted_model_text, drifted_code_text):
    design, code_doc, report = _checked(drifted_model_text,
                                        drifted_code_text)
    sets = propose(report, design, code_doc)
    chosen = resolve(sets, Policy.MODEL_WINS)
    assert all(e.side == "code" for e in chosen)
    new_model, new_code = apply(design, code_doc, chosen)
    assert model_equal(new_model, design)
    assert "def getNamae(self):" in new_code
    assert "def __init__(self, namae: str):" in new_code
    assert "return self.name" in new_code  # bodies survive verbatim
    assert _recheck(render_plantuml(new_model), new_code).error_findings() \
        == ()


def test_union_merges_detailed_pair(v2_model_text, v2_code_text):
    design, code_doc, report = _checked(v2_model_text, v2_code_text)
    sets = propose(report, design, code_doc)
    chosen = resolve(sets, Policy.UNION)
    new_model, new_code = apply(design, code_doc, chosen)
    rendered = render_plantuml(new_model)

    library = class_named(new_model, "Library")
    names = {m.name for m in library.methods}
    assert {"addBook", "addUser", "lendBook", "returnBook",
            "checkOverdueBooks", "openShelf", "closeShelf"} <= names

    re_code = parse_code(new_code)
    assert {c.name for c in re_code.model.classes} >= \
        {"UserCard", "CounterStaff", "LendingInformation"}
    staff = class_named(re_code.model, "CounterStaff")
    assert {m.name for m in staff.methods} == \
        {"registerLendingInfo", "performReturnProcess",
         "checkLendingStatus", "urgeDelayedUsers"}
    assert _recheck(rendered, new_code).error_findings() == ()


def test_union_matches_reference_merge(v2_model_text, v2_code_text,
                                       merged_model_text):
    design, code_doc, report = _checked(v2_model_text, v2_code_text)
    sets = propose(report, design, code_doc)
    new_model, _ = apply(design, code_doc, resolve(sets, Policy.UNION))
    reference = parse_plantuml(merged_model_text).model
    ref_library = {m.name for m in class_named(reference, "Library").methods}
    out_library = {m.name for m in class_named(new_model, "Library").methods}
    assert ref_library == out_library


def test_union_preferred_side_code(drifted_model_text, drifted_code_text):
    design, code_doc, report = _checked(drifted_model_text,
                                        drifted_code_text)
    sets = propose(report, design, code_doc)
    chosen = resolve(sets, Policy.UNION, preferred_side="code")
    assert all(e.side == "model" for e in chosen)  # conflicts edit the model


def test_minimality_untouched_lines_survive(v2_model_text, v2_code_text):
    design, code_doc, report = _checked(v2_model_text, v2_code_text)
    sets = propose(report, design, code_doc)
    _, new_code = apply(design, code_doc, resolve(sets, Policy.UNION))
    for line in code_doc.raw_text.splitlines():
        assert line in new_code


def test_duality_each_alternative_clears_its_finding(drifted_model_text,
                                                     drifted_code_text):
    design, code_doc, report = _checked(drifted_model_text,
                                        drifted_code_text)
    sets = propose(report, design, code_doc)
    for s in sets:
        for alt in s.alternatives:
            new_model, new_code = apply(design, code_doc, [alt])
            re_report = _recheck(render_plantuml(new_model), new_code)
            assert s.finding_id not in {f.id for f in re_report.findings}, \
                f"{s.finding_kind} not cleared by {alt.side} alternative"


def test_one_pass_convergence_over_mutations():
    converged = 0
    for seed in range(120):
        rng = random.Random(1000 + seed)
        base = make_code_model(rng)
        op = OPERATORS[seed % len(OPERATORS)]
        side = "model" if seed % 2 else "code"
        mutation = mutate(rng, base, op, side)
        if mutation is None:
            continue
        if side == "model":
            model_text = render_plantuml(mutation.mutated)
            code_text = render_code_skeleton(base)
        else:
            model_text = render_plantuml(base)
            code_text = render_code_skeleton(mutation.mutated)
        design, code_doc, report = _checked(model_text, code_text)
        sets = propose(report, design, code_doc)
        for policy in POLICIES:
            chosen = resolve(sets, policy)
            new_model, new_code = apply(design, code_doc, chosen)
            re_report = _recheck(render_plantuml(new_model), new_code)
            assert re_report.error_findings() == (), \
                f"seed {seed} op {op} side {side} policy {policy.value}"
        converged += 1
    assert converged >= 90


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
def test_constructor_signature_takes_in_parameter_retype(policy):
    # a new constructor parameter and a retype of the attribute that an
    # existing parameter initialises both land on one def line
    model_text = ("@startuml\nclass A {\n  +size: String\n"
                  "  +A(size: String, extra)\n}\n@enduml\n")
    code_text = ("class A:\n    def __init__(self, size: int):\n"
                 "        self.size = size\n")
    design, code_doc, report = _checked(model_text, code_text)
    chosen = resolve(propose(report, design, code_doc), policy)
    new_model, new_code = apply(design, code_doc, chosen)
    assert _recheck(render_plantuml(new_model),
                    new_code).error_findings() == ()
    if policy is not Policy.CODE_WINS:
        assert "def __init__(self, size: str, extra):" in new_code


def test_retype_of_a_dropped_constructor_parameter_is_not_lost():
    # the new signature has no 'size' to carry the attribute's type, so
    # the retype stays beside it and the two edits are refused together
    model_text = ("@startuml\nclass A {\n  +size: String\n"
                  "  +A(count: int, extra)\n}\n@enduml\n")
    code_text = ("class A:\n    def __init__(self, size: int):\n"
                 "        self.size = size\n")
    design, code_doc, report = _checked(model_text, code_text)
    chosen = resolve(propose(report, design, code_doc), Policy.MODEL_WINS)
    with pytest.raises(OverlappingEditsError):
        apply(design, code_doc, chosen)
