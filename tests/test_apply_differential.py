"""Differential tests of ``apply`` against its deep-copying predecessor,
of its code half against the one that compiled one edit at a time, and of
the one-pass code splice against the per-edit one, all kept in
``tests/apply_reference.py``.
"""

from __future__ import annotations

import ast
import random

import pytest

from modelsync import repair
from modelsync.consistency import check
from modelsync.correction import Policy, apply, propose, resolve
from modelsync.errors import ModelSyncError
from modelsync.model import Attribute, ClassModel, SourceSpan
from modelsync.plantuml import parse_plantuml
from modelsync.pycode import (CodeDocument, CodeEdit, apply_code_edits,
                              parse_code)

from apply_reference import (reference_apply_code_edits, reference_code,
                             reference_model)
from conftest import fixture_text
from helpers import drift_pairs, mutation_pairs

POLICIES = (Policy.MODEL_WINS, Policy.CODE_WINS, Policy.UNION)
FIXTURE_PAIRS = [
    ("library_v1_drifted_model.puml", "library_v1_drifted_code.py"),
    ("library_v2_model.puml", "library_v2_code.py"),
    ("library_v1_model.puml", "library_v1_code.py"),
    ("library_v1_model.puml", "library_v2_code.py"),
    ("library_v2_model.puml", "library_v1_drifted_code.py"),
]


def _apply_with_reference(design, code_doc, chosen, monkeypatch):
    """``apply``'s result and the reference's, which deep-copies the design
    and splices the same compiled code edits one at a time."""
    spliced: list[str] = []

    def splice_both(doc, edits):
        try:
            text = apply_code_edits(doc, edits)
        except ModelSyncError as exc:
            with pytest.raises(type(exc)):
                reference_apply_code_edits(doc, edits)
            raise
        assert text == reference_apply_code_edits(doc, edits)
        spliced.append(text)
        return text

    with monkeypatch.context() as m:
        m.setattr(repair, "apply_code_edits", splice_both)
        new_model, new_code = apply(design, code_doc, chosen)
    ref_code = spliced[0] if spliced else code_doc.raw_text
    return (new_model, new_code), (reference_model(design, chosen), ref_code)


def _check_pair(model_text: str, code_text: str, monkeypatch) -> None:
    for policy in POLICIES:
        design = parse_plantuml(model_text)
        code_doc = parse_code(code_text)
        report = check(design, code_doc.model)
        chosen = resolve(propose(report, design, code_doc), policy)

        (new_model, new_code), (ref_model, ref_code) = \
            _apply_with_reference(design, code_doc, chosen, monkeypatch)
        # the edits never write through to the inputs
        assert design == parse_plantuml(model_text), policy
        assert code_doc.model == parse_code(code_text).model, policy
        assert new_model == ref_model, policy
        assert new_code == ref_code, policy
        # the written code is Python: no edit leaves a body empty
        compile(new_code, "<sync output>", "exec")
        # an added attribute lands in its own class's constructor
        written = {c.name: {a.name for a in c.attributes}
                   for c in parse_code(new_code).model.classes}
        for e in chosen:
            if (e.side, e.kind) == ("code", "add-member") and isinstance(
                    e.payload, Attribute):
                assert e.payload.name in written[e.cls.name], policy
        # the imports and classes run: no annotation names an undefined
        # type (the rest of a module may call what the edits remove)
        tree = ast.parse(new_code)
        tree.body = [n for n in tree.body if isinstance(
            n, (ast.Import, ast.ImportFrom, ast.ClassDef))]
        exec(compile(tree, "<sync output>", "exec"), {})
        # only the classes that model edits touch are copied
        model_edits = [e for e in chosen if e.side == "model"]
        touched = {id(e.cls) for e in model_edits
                   if e.kind not in ("add-class", "remove-class")}
        removed = {id(e.cls) for e in model_edits if e.kind == "remove-class"}
        originals = {id(c) for c in design.classes}
        shared = originals & {id(c) for c in new_model.classes}
        assert shared == originals - touched - removed, policy
        # in an edited class, each member no edit changes is the design's
        # own object and each one an edit changes is not; each added class
        # or member is the edit's own payload
        changed = {id(e.member) for e in model_edits
                   if e.kind in ("rename", "change-type", "change-signature",
                                 "remove-member")}
        new_members = {id(m) for c in new_model.classes
                       for m in (*c.attributes, *c.methods)}
        for cls in design.classes:
            if id(cls) in touched - removed:
                for m in (*cls.attributes, *cls.methods):
                    assert (id(m) in new_members) is (
                        id(m) not in changed), policy
        new_classes = {id(c) for c in new_model.classes}
        for e in model_edits:
            if e.kind == "add-class":
                assert id(e.payload) in new_classes, policy
            elif e.kind == "add-member":
                assert id(e.payload) in new_members, policy


@pytest.mark.parametrize("pair", FIXTURE_PAIRS,
                         ids=lambda p: f"{p[0]}+{p[1]}")
def test_apply_matches_reference_on_fixtures(pair, monkeypatch):
    model, code = pair
    _check_pair(fixture_text(model), fixture_text(code), monkeypatch)


def test_apply_matches_reference_over_mutations(monkeypatch):
    pairs = 0
    for _, _, model_text, code_text in mutation_pairs(300):
        _check_pair(model_text, code_text, monkeypatch)
        pairs += 1
    assert pairs == 600


# the runs whose code text differs from the reference's on purpose: v1's
# constructor drops 'name' for 'namae', and 'self.namae = name' now reads
# the new parameter
_V1 = "library_v1_drifted_model.puml+library_v1_drifted_code.py"
CODE_CHANGED = {(_V1, Policy.MODEL_WINS), (_V1, Policy.UNION)}


def _code_outcome(compile_code):
    """The code text that ``compile_code()`` returns, or the type of the
    error it raises."""
    try:
        return compile_code()
    except ModelSyncError as exc:
        return type(exc)


def _corpus(name: str):
    """(key, model text, code text) for each pair of a corpus."""
    if name == "fixtures":
        return ((f"{m}+{c}", fixture_text(m), fixture_text(c))
                for m, c in FIXTURE_PAIRS)
    if name == "mutations":
        return (((seed, stacked), m, c)
                for seed, stacked, m, c in mutation_pairs(300))
    return (((seed, k), m, c) for seed, k, m, c in drift_pairs())


@pytest.mark.parametrize("corpus", ["fixtures", "mutations", "drift"])
def test_code_half_matches_reference(corpus):
    differ = set()
    for key, model_text, code_text in _corpus(corpus):
        design = parse_plantuml(model_text)
        code_doc = parse_code(code_text)
        sets = propose(check(design, code_doc.model), design, code_doc)
        for policy in POLICIES:
            chosen = resolve(sets, policy)
            if (_code_outcome(lambda: apply(design, code_doc, chosen)[1])
                    != _code_outcome(lambda: reference_code(code_doc,
                                                            chosen))):
                differ.add((key, policy))
    assert differ == {k for k in CODE_CHANGED if corpus == "fixtures"}


def _random_edits(rng: random.Random, lines: list[str]) -> list[CodeEdit]:
    """Up to six edits at random positions, some of them zero-width
    insertions at one point, repeated edits, or overlapping spans."""
    def position() -> tuple[int, int]:
        line = rng.randrange(len(lines))
        return line + 1, rng.randrange(len(lines[line]) + 1) + 1

    edits: list[CodeEdit] = []
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if edits and roll < 0.15:
            edits.append(rng.choice(edits))
            continue
        start = position()
        if roll < 0.45:
            end = start
        elif roll < 0.55:
            start = end = (len(lines) + 1, 1)  # past the final newline
        else:
            end = position()
            start, end = min(start, end), max(start, end)
        kind = rng.choice(["rename-identifier", "set-annotation",
                           "insert-member", "delete-span"])
        payload = rng.choice(["", "x", "ab\n", "# note\n"])
        edits.append(CodeEdit(kind, SourceSpan("t.py", *start, *end),
                              payload))
    return edits


def _outcome(splice, doc: CodeDocument, edits: list[CodeEdit]):
    try:
        return splice(doc, edits)
    except ModelSyncError as exc:
        return type(exc)


def test_apply_code_edits_matches_reference_splice():
    rng = random.Random(7)
    spliced = 0
    for _ in range(2000):
        lines = [rng.choice(["class A:", "    def go(self):", "", "  x",
                             "        pass"])
                 for _ in range(rng.randint(1, 6))] + [""]
        text = "\n".join(lines)
        doc = CodeDocument(ClassModel(), text, "t.py")
        edits = _random_edits(rng, lines)
        outcome = _outcome(apply_code_edits, doc, edits)
        assert outcome == _outcome(reference_apply_code_edits, doc, edits)
        spliced += isinstance(outcome, str)
    assert spliced >= 500
