from __future__ import annotations

import random

from hypothesis import given, strategies as st

from modelsync import consistency
from modelsync.consistency import (FindingKind, MatchOptions, check,
                                   levenshtein, match_models)
from modelsync.model import (Attribute, ClassDef, ClassModel, Method,
                             Parameter, TypeRef, normalize_name)
from modelsync.plantuml import parse_plantuml, render_plantuml
from modelsync.pycode import parse_code, render_code_skeleton

from modelgen import (OPERATORS, drifted_names, make_code_model,
                      make_plantuml_model, mutate)
from helpers import relative_distance


def _kinds(report):
    return sorted({f.kind.value for f in report.error_findings()})


def test_levenshtein_basics():
    assert levenshtein("", "") == 0
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("getnamae", "getname") == 1
    assert levenshtein("kitten", "sitting") == 3


def _reference_levenshtein(a: str, b: str) -> int:
    """The unbounded full-matrix distance the rename matcher used to run."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


_short_words = st.text(alphabet="abcd_", max_size=14)


@given(_short_words, _short_words, st.integers(min_value=0, max_value=16))
def test_bounded_levenshtein_matches_reference(a, b, limit):
    bounded = levenshtein(a, b, limit)
    assert bounded == min(_reference_levenshtein(a, b), limit + 1)
    assert levenshtein(a, b) == _reference_levenshtein(a, b)


def test_bounded_matcher_matches_unbounded(monkeypatch):
    def rows(design, code, threshold):
        report = check(design, code, MatchOptions(rename_threshold=threshold))
        return [(f.id, f.kind, f.detail) for f in report.findings]

    cases = []
    for seed in range(60):
        rng = random.Random(seed)
        design = make_code_model(rng)
        cases.append((design, drifted_names(rng, design)))
    thresholds = (0.1, 0.29, 0.3, 0.35, 0.6, 1.0)
    bounded = [rows(d, c, t) for d, c in cases for t in thresholds]
    monkeypatch.setattr(consistency, "levenshtein",
                        lambda a, b, limit=None: _reference_levenshtein(a, b))
    unbounded = [rows(d, c, t) for d, c in cases for t in thresholds]
    assert bounded == unbounded
    renames = sum(kind is FindingKind.PROBABLE_RENAME
                  for case in bounded for _, kind, _ in case)
    assert renames > 100


def test_rename_bound_survives_float_rounding():
    # 0.29 * 100 is 28.999999999999996 in floating point
    def renames(code_name):
        design = ClassModel([ClassDef("A", [], [Method("a" * 100)])])
        code = ClassModel([ClassDef("A", [], [Method(code_name)])])
        report = check(design, code, MatchOptions(rename_threshold=0.29))
        return [f.detail for f in report.findings
                if f.kind is FindingKind.PROBABLE_RENAME]

    assert [d.endswith("(edit distance 29/100)")
            for d in renames("a" * 71 + "b" * 29)] == [True]
    assert renames("a" * 70 + "b" * 30) == []


def test_relative_distance_pairs_rename_candidates():
    assert relative_distance("getnamae", "getname") <= 0.3
    assert relative_distance("openshelf", "checkoverduebooks") > 0.3


def test_empty_models_match_cleanly():
    result = match_models(ClassModel(), ClassModel())
    assert not result.class_matches
    assert not result.model_only_classes and not result.code_only_classes


def test_v1_pair_matches_members(v1_model_text, v1_code_text):
    design = parse_plantuml(v1_model_text)
    code = parse_code(v1_code_text).model
    result = match_models(design, code)
    assert len(result.class_matches) == 4
    assert not result.model_only_classes and not result.code_only_classes
    user = next(m for m in result.class_matches
                if m.model_class.name == "User")
    ctor = user.links[0]
    assert ctor.model.is_constructor and ctor.code.is_constructor
    assert not any(isinstance(m, Method)
                   for m in user.model_only + user.code_only)


def test_v1_pair_known_arity_quirk(v1_model_text, v1_code_text):
    # the compact pair declares User(name) in the model but builds with
    # (name, userCard) in the code; the checker flags exactly that
    design = parse_plantuml(v1_model_text)
    code = parse_code(v1_code_text).model
    report = check(design, code)
    assert _kinds(report) == ["ConstructorArityMismatch"]
    (finding,) = report.error_findings()
    assert "'User'" in finding.detail


def test_drifted_pair_rename_candidate(drifted_model_text, drifted_code_text):
    design = parse_plantuml(drifted_model_text)
    code = parse_code(drifted_code_text).model
    result = match_models(design, code)
    user = next(m for m in result.class_matches
                if m.model_class.name == "User")
    # renames come last: methods, then attributes
    assert [(r.model.name, r.code.name) for r in user.links
            if r.distance] == [("getNamae", "getName"), ("namae", "name")]


def test_drifted_pair_findings(drifted_model_text, drifted_code_text):
    design = parse_plantuml(drifted_model_text)
    code = parse_code(drifted_code_text).model
    report = check(design, code)
    assert _kinds(report) == ["AttributeTypeMismatch",
                              "ConstructorArityMismatch",
                              "ParamTypeMismatch", "ProbableRename"]
    details = [f.detail for f in report.error_findings()]
    assert any("takes 1 parameter(s) in the design model but 2" in d
               for d in details)
    assert any("'getNamae'" in d and "'getName'" in d for d in details)
    assert any("'userID'" in d and "'String'" in d and "'int'" in d
               for d in details)


def test_generation_consistency_oracle(v1_model_text, v2_model_text):
    for text in (v1_model_text, v2_model_text):
        design = parse_plantuml(text)
        code = parse_code(render_code_skeleton(design)).model
        assert check(design, code).error_findings() == ()


def test_generation_consistency_random_models():
    for seed in range(40):
        design = make_code_model(random.Random(seed))
        code = parse_code(render_code_skeleton(design)).model
        report = check(design, code)
        assert report.error_findings() == (), f"seed {seed}"


def test_unknown_types_never_flagged():
    design = ClassModel([ClassDef("A", [Attribute("x",
                                                  TypeRef.named("String"))],
                                  [Method("go", [Parameter("p")])])])
    code = ClassModel([ClassDef("A", [Attribute("x")],
                                [Method("go", [Parameter("p")])])])
    assert check(design, code).error_findings() == ()


def test_weak_attributes_not_reported_missing():
    # untyped code-side assignments carry no evidence: not reported
    design = ClassModel([ClassDef("A", [], [Method("go")])])
    code = ClassModel([ClassDef("A", [Attribute("x"),
                                      Attribute("xs", TypeRef.collection(
                                          TypeRef.unknown()))],
                                [Method("go")])])
    assert check(design, code).error_findings() == ()


def test_typed_attributes_are_reported_missing():
    design = ClassModel([ClassDef("A")])
    code = ClassModel([ClassDef("A", [Attribute("x",
                                                TypeRef.named("int"))])])
    report = check(design, code)
    assert _kinds(report) == ["MissingAttributeInModel"]


def test_one_sided_constructor_not_reported():
    design = ClassModel([ClassDef("A", [], [Method("go")])])
    code = ClassModel([ClassDef("A", [], [
        Method("A", [Parameter("x")], is_constructor=True), Method("go")])])
    assert check(design, code).error_findings() == ()


def test_missing_kind_symmetry():
    for seed in range(30):
        rng = random.Random(seed)
        base = make_code_model(rng)
        op = rng.choice(["add-class", "remove-class", "add-method",
                         "remove-method", "add-attribute",
                         "remove-attribute"])
        mutation = mutate(rng, base, op, "model")
        if mutation is None:
            continue
        a, b = mutation.mutated, base
        fwd = check(a, b)
        rev = check(b, a)
        swap = {
            FindingKind.MISSING_CLASS_IN_CODE:
                FindingKind.MISSING_CLASS_IN_MODEL,
            FindingKind.MISSING_CLASS_IN_MODEL:
                FindingKind.MISSING_CLASS_IN_CODE,
            FindingKind.MISSING_METHOD_IN_CODE:
                FindingKind.MISSING_METHOD_IN_MODEL,
            FindingKind.MISSING_METHOD_IN_MODEL:
                FindingKind.MISSING_METHOD_IN_CODE,
            FindingKind.MISSING_ATTRIBUTE_IN_CODE:
                FindingKind.MISSING_ATTRIBUTE_IN_MODEL,
            FindingKind.MISSING_ATTRIBUTE_IN_MODEL:
                FindingKind.MISSING_ATTRIBUTE_IN_CODE,
        }
        fwd_kinds = sorted(f.kind.value for f in fwd.error_findings())
        rev_kinds = sorted(swap[f.kind].value for f in rev.error_findings()
                           if f.kind in swap)
        assert fwd_kinds == rev_kinds, f"seed {seed} op {op}"


def test_report_is_deterministic(drifted_model_text, drifted_code_text):
    design = parse_plantuml(drifted_model_text)
    code = parse_code(drifted_code_text).model
    first = check(design, code)
    second = check(design, code)
    assert first == second


def test_report_ordering_by_class_member_kind(v2_model_text, v2_code_text):
    design = parse_plantuml(v2_model_text)
    code = parse_code(v2_code_text).model
    findings = check(design, code).findings
    keys = [(f.model_loc or f.code_loc).class_name.lower() for f in findings]
    assert keys == sorted(keys)


def test_rename_threshold_respected():
    design = ClassModel([ClassDef("A", [], [Method("fetchRecord")])])
    code = ClassModel([ClassDef("A", [], [Method("storeValue")])])
    report = check(design, code)
    assert _kinds(report) == ["MissingMethodInCode", "MissingMethodInModel"]
    tight = check(design, code, MatchOptions(rename_threshold=0.9))
    assert _kinds(tight) == ["ProbableRename"]


def test_exact_name_mode():
    design = ClassModel([ClassDef("A", [], [Method("addBook",
                                                   [Parameter("t")])])])
    code = ClassModel([ClassDef("A", [], [Method("add_book",
                                                 [Parameter("t")])])])
    assert check(design, code).error_findings() == ()
    exact = check(design, code, MatchOptions(name_mode="exact"))
    assert set(_kinds(exact)) == {"ProbableRename"} or \
        set(_kinds(exact)) == {"MissingMethodInCode", "MissingMethodInModel"}


def test_non_constructor_arity_mismatch_uses_arity_kind():
    design = ClassModel([ClassDef("A", [], [Method("go", [Parameter("x")])])])
    code = ClassModel([ClassDef("A", [], [Method("go", [Parameter("x"),
                                                        Parameter("y")])])])
    report = check(design, code)
    assert _kinds(report) == ["ConstructorArityMismatch"]
    (finding,) = report.error_findings()
    assert "method 'go'" in finding.detail


def test_relationship_advisories_opt_in(v1_model_text, v1_code_text):
    design = parse_plantuml(v1_model_text)
    code = parse_code(v1_code_text).model
    silent = check(design, code)
    assert all(f.severity == "error" for f in silent.findings)
    chatty = check(design, code,
                   MatchOptions(infer_code_relationships=True))
    advisories = [f for f in chatty.findings if f.severity == "advisory"]
    # the unannotated compact code evidences no relationships at all
    assert {f.kind for f in advisories} == \
        {FindingKind.RELATIONSHIP_MISSING_IN_CODE}
    assert len(advisories) == 3


def test_relationship_evidence_suppresses_advisory():
    design = parse_plantuml(
        "@startuml\nclass A {\n  -b: B\n}\nclass B {\n}\nA -- B\n@enduml"
    )
    code = parse_code(
        "class A:\n    def __init__(self, b: B):\n        self.b = b\n\n"
        "class B:\n    pass\n").model
    report = check(design, code,
                   MatchOptions(infer_code_relationships=True))
    assert all(f.kind != FindingKind.RELATIONSHIP_MISSING_IN_CODE
               for f in report.findings)


def test_relationship_evidence_without_model_relationship():
    design = parse_plantuml(
        "@startuml\nclass A {\n  -b: B\n}\nclass B {\n}\n@enduml")
    code = parse_code(
        "class A:\n    def __init__(self, b: B):\n        self.b = b\n\n"
        "class B:\n    pass\n").model
    report = check(design, code,
                   MatchOptions(infer_code_relationships=True))
    advisories = [f for f in report.findings if f.severity == "advisory"]
    assert [f.kind for f in advisories] == \
        [FindingKind.RELATIONSHIP_MISSING_IN_MODEL]
    # advisory findings never affect the error count
    assert report.error_findings() == ()


def test_mutation_detection_all_operators():
    detected = 0
    for seed in range(200):
        rng = random.Random(seed)
        base = make_code_model(rng)
        op = OPERATORS[seed % len(OPERATORS)]
        side = "model" if seed % 2 else "code"
        mutation = mutate(rng, base, op, side)
        if mutation is None:
            continue
        if side == "model":
            design = parse_plantuml(
                render_plantuml(mutation.mutated))
            code = parse_code(render_code_skeleton(base)).model
        else:
            design = parse_plantuml(render_plantuml(base))
            code = parse_code(
                render_code_skeleton(mutation.mutated)).model
        report = check(design, code)
        errors = report.error_findings()
        assert errors, f"seed {seed} op {op} side {side}: nothing detected"
        assert errors[0].kind is mutation.expected, \
            f"seed {seed} op {op} side {side}: got {errors[0].kind}"
        detected += 1
    assert detected >= 150


def _without_constructors(model: ClassModel) -> ClassModel:
    return ClassModel([ClassDef(c.name, c.attributes,
                                [m for m in c.methods if not m.is_constructor])
                       for c in model.classes])


def _assert_links_partition(cm, opts: MatchOptions) -> None:
    """Each member of a class pair is linked or left over exactly once; a
    constructor is linked when both sides have one and otherwise placed
    nowhere."""
    ctors = (cm.model_class.constructor(), cm.code_class.constructor())
    linked_ctors = None not in ctors
    for side, cls, only in (("model", cm.model_class, cm.model_only),
                            ("code", cm.code_class, cm.code_only)):
        placed = [getattr(link, side) for link in cm.links] + only
        want = [m for m in cls.attributes + cls.methods
                if not getattr(m, "is_constructor", False)]
        if linked_ctors:
            want.append(cls.constructor())
        assert sorted(map(id, placed)) == sorted(map(id, want)), side
        assert not any(getattr(m, "is_constructor", False) for m in only)
    if linked_ctors:
        first = cm.links[0]
        assert first.model is ctors[0] and first.code is ctors[1]
    ranks = []
    for k, link in enumerate(cm.links):
        model, code = link.model, link.code
        assert type(model) is type(code)
        if isinstance(model, Method):
            assert model.is_constructor == code.is_constructor
            assert model.is_constructor == (linked_ctors and k == 0)
        a = normalize_name(model.name, opts.name_mode)
        b = normalize_name(code.name, opts.name_mode)
        if link.distance == 0:
            assert a == b and link.longest == 0
        else:
            assert link.longest == max(len(a), len(b))
            assert link.distance == levenshtein(a, b)
            assert 0 < link.distance / link.longest <= opts.rename_threshold
        ranks.append((link.distance > 0, isinstance(model, Attribute)))
    # by name (methods, then attributes), then renames (likewise)
    assert ranks == sorted(ranks)


def test_links_partition_each_class_pair():
    # 48 seeds give each generator, operator and mutated side once
    linked = renamed = constructors = 0
    for seed in range(96):
        rng = random.Random(seed)
        make = (make_code_model, make_plantuml_model)[seed % 2]
        op = OPERATORS[seed // 2 % len(OPERATORS)]
        side = ("model", "code")[seed // 24 % 2]
        base = make(rng)
        drifted = drifted_names(rng, base)
        pairs = [(base, drifted), (base, _without_constructors(drifted))]
        mutation = mutate(rng, base, op, side)
        if mutation is not None:
            pairs.append((mutation.mutated, base) if side == "model"
                         else (base, mutation.mutated))
        for mode in ("canonical", "exact"):
            for threshold in (0.3, 0.6):
                opts = MatchOptions(name_mode=mode,
                                    rename_threshold=threshold)
                for design, code in pairs:
                    for cm in match_models(design, code, opts).class_matches:
                        _assert_links_partition(cm, opts)
                        linked += len(cm.links)
                        renamed += sum(link.distance > 0
                                       for link in cm.links)
                        constructors += sum(
                            getattr(link.model, "is_constructor", False)
                            for link in cm.links)
    assert renamed > 1000 and constructors > 500 and linked > 5000, \
        (renamed, constructors, linked)


def test_mutate_on_a_model_without_classes():
    # mutations may be chained, and one may leave the model without classes
    for op in OPERATORS:
        for side in ("model", "code"):
            mutation = mutate(random.Random(0), ClassModel(), op, side)
            if op == "add-class":
                assert len(mutation.mutated.classes) == 1
            else:
                assert mutation is None, (op, side)
