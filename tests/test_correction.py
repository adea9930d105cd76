from __future__ import annotations

import random

import pytest

from modelsync.consistency import FindingKind, check
from modelsync.correction import (CorrectionEdit, Policy, apply, propose,
                                  resolve, snake_to_camel)
from modelsync.errors import (DanglingParameterError, EditConflictError,
                              StaleReportError)
from modelsync.model import model_equal
from modelsync.plantuml import parse_plantuml, render_plantuml
from modelsync.pycode import parse_code, render_code_skeleton

from modelgen import OPERATORS, make_code_model, mutate
from helpers import class_named

POLICIES = (Policy.MODEL_WINS, Policy.CODE_WINS, Policy.UNION)


def _checked(model_text: str, code_text: str):
    design = parse_plantuml(model_text)
    code_doc = parse_code(code_text)
    report = check(design, code_doc.model)
    return design, code_doc, report


def _recheck(model_out: str, code_out: str):
    design = parse_plantuml(model_out)
    code = parse_code(code_out).model
    return check(design, code)


def test_snake_to_camel():
    assert snake_to_camel("add_book") == "addBook"
    assert snake_to_camel("check_overdue_books") == "checkOverdueBooks"
    assert snake_to_camel("getName") == "getName"


def test_empty_report_proposes_nothing(v1_model_text):
    design = parse_plantuml(v1_model_text)
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
        propose(report, parse_plantuml(drifted_model_text), code_doc)
    propose(report, design, code_doc)  # must not raise


def test_apply_stale_edits_rejected(drifted_model_text, drifted_code_text):
    design, code_doc, report = _checked(drifted_model_text,
                                        drifted_code_text)
    sets = propose(report, design, code_doc)
    with pytest.raises(StaleReportError):  # equal text, other objects
        apply(parse_plantuml(drifted_model_text), code_doc,
              resolve(sets, Policy.CODE_WINS))
    # the User method the model calls getNamae, respelled in another doc
    assert "def getName(self)" in drifted_code_text
    respelled = parse_code(drifted_code_text.replace("def getName(self)",
                                                     "def getTitle(self)"))
    with pytest.raises(StaleReportError):
        apply(design, respelled, resolve(sets, Policy.MODEL_WINS))


@pytest.mark.parametrize("side", ["model", "code"])
@pytest.mark.parametrize("with_class", [False, True])
def test_apply_refuses_an_unknown_edit_kind(side, with_class):
    design, code_doc, _ = _checked(
        "@startuml\nclass A {\n  +go(): void\n}\n@enduml\n",
        "class A:\n    def go(self) -> None:\n        pass\n")
    cls = (design if side == "model" else code_doc.model).classes[0]
    edit = CorrectionEdit(side, "swap-member", cls if with_class else None,
                          cls.methods[0] if with_class else None)
    with pytest.raises(EditConflictError, match="unknown edit kind "
                                                "'swap-member'"):
        apply(design, code_doc, [edit])


def test_param_type_alternatives_match_both_directions(drifted_model_text,
                                                       drifted_code_text):
    design, code_doc, report = _checked(drifted_model_text,
                                        drifted_code_text)
    sets = propose(report, design, code_doc)
    param_set = next(s for s in sets
                     if s.finding.kind is FindingKind.PARAM_TYPE_MISMATCH)
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
                     if s.finding.kind is FindingKind.PARAM_TYPE_MISMATCH)
    for side in ("model", "code"):
        alt = param_set.side(side)
        new_model, new_code = apply(design, code_doc, [alt])
        re_report = _recheck(render_plantuml(new_model), new_code)
        assert param_set.finding.id not in {f.id for f in re_report.findings}


def test_code_annotation_edit_matches_expected_shape(drifted_model_text,
                                                     drifted_code_text):
    design, code_doc, report = _checked(drifted_model_text,
                                        drifted_code_text)
    sets = propose(report, design, code_doc)
    param_set = next(s for s in sets
                     if s.finding.kind is FindingKind.PARAM_TYPE_MISMATCH)
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
    reference = parse_plantuml(merged_model_text)
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
            assert s.finding.id not in {f.id for f in re_report.findings}, \
                f"{s.finding.kind} not cleared by {alt.side} alternative"


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


@pytest.mark.parametrize("policy", [Policy.MODEL_WINS, Policy.UNION],
                         ids=lambda p: p.value)
def test_assignment_from_a_dropped_parameter_reads_the_new_one(policy):
    # the signature drops 'name' and 'user_card' for 'namae' and
    # 'userCard': each attribute, under its name after the sync's rename,
    # reads the new parameter that canonically names it; 'tag', named by
    # no new parameter, is unannotated and stays as it was
    model_text = ("@startuml\nclass A {\n  +namae: String\n"
                  "  +user_card: int\n  +A(namae: String, userCard: int)\n"
                  "}\n@enduml\n")
    code_text = ("class A:\n"
                 "    def __init__(self, name: str, user_card: int, tag):\n"
                 "        self.name = name\n"
                 "        self.user_card = user_card\n"
                 "        self.tag = tag\n")
    design, code_doc, report = _checked(model_text, code_text)
    _, new_code = apply(design, code_doc,
                        resolve(propose(report, design, code_doc), policy))
    assert new_code == (
        "class A:\n"
        "    def __init__(self, namae: str, userCard: int):\n"
        "        self.namae = namae\n"
        "        self.user_card = userCard\n"
        "        self.tag = tag\n")


def test_retype_of_a_dropped_constructor_parameter_is_not_lost():
    # the new signature has no 'size' to carry the attribute's type, so
    # the retype writes nothing and the assignment from the dropped,
    # annotated parameter is refused at its line
    model_text = ("@startuml\nclass A {\n  +size: String\n"
                  "  +A(count: int, extra)\n}\n@enduml\n")
    code_text = ("class A:\n    def __init__(self, size: int):\n"
                 "        self.size = size\n")
    design, code_doc, report = _checked(model_text, code_text)
    sets = propose(report, design, code_doc)
    for policy in (Policy.MODEL_WINS, Policy.UNION):
        with pytest.raises(DanglingParameterError, match=(
                "^code:3: 'self.size' is assigned from parameter 'size', "
                "which the new signature of 'A' drops$")):
            apply(design, code_doc, resolve(sets, policy))


DROPPED_SIZE_MODEL = ("@startuml\nclass A {\n  +A(count: int, extra)\n}\n"
                      "@enduml\n")


@pytest.mark.parametrize("policy", [Policy.MODEL_WINS, Policy.UNION],
                         ids=lambda p: p.value)
@pytest.mark.parametrize("read, line", [
    ("        self.total = size * 2\n", 3),
    ("        self.total = 0\n        print(len(size))\n", 4),
    ("        self.total = dict(\n            n=size)\n", 4),
    # tokenize stops at the end of the text, after the read
    ("        self.total = (size\n", 3),
    # tokenize stops before the line that reads, which counts as a read
    ("            self.total = 0\n        print(size)\n", 4),
], ids=["expression", "statement", "continued-call", "unclosed",
        "bad-dedent"])
def test_a_dropped_parameter_read_in_the_body_is_refused(policy, read, line):
    code_text = "class A:\n    def __init__(self, size: int):\n" + read
    design, code_doc, report = _checked(DROPPED_SIZE_MODEL, code_text)
    with pytest.raises(DanglingParameterError, match=(
            f"^code:{line}: the body reads parameter 'size', which the new "
            f"signature of 'A' drops$")):
        apply(design, code_doc,
              resolve(propose(report, design, code_doc), policy))


def test_a_dropped_parameter_s_name_alone_is_no_read():
    # an attribute, a keyword argument, a comment and a string spell the
    # name without reading the parameter
    body = ("        self.total = self.size  # size\n"
            "        self.note = \"size\"\n"
            "        self.twice = dict(\n"
            "            size=2)\n")
    code_text = "class A:\n    def __init__(self, size: int):\n" + body
    design, code_doc, report = _checked(DROPPED_SIZE_MODEL, code_text)
    _, new_code = apply(design, code_doc, resolve(
        propose(report, design, code_doc), Policy.MODEL_WINS))
    assert new_code == ("class A:\n    def __init__(self, count: int, "
                        "extra):\n" + body)
