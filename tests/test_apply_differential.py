"""Differential tests of ``apply`` against its deep-copying predecessor and
of the one-pass code splice against the per-edit one, both kept in
``tests/apply_reference.py``.
"""

from __future__ import annotations

import random

import pytest

from modelsync import repair
from modelsync.consistency import check
from modelsync.correction import Policy, apply, propose, resolve
from modelsync.errors import ModelSyncError
from modelsync.model import ClassModel, SourceSpan
from modelsync.plantuml import parse_plantuml, render_plantuml
from modelsync.pycode import (CodeDocument, CodeEdit, apply_code_edits,
                              parse_code, render_code_skeleton)

from apply_reference import reference_apply_code_edits, reference_model
from conftest import fixture_text
from modelgen import OPERATORS, make_code_model, mutate

POLICIES = (Policy.MODEL_WINS, Policy.CODE_WINS, Policy.UNION)
FIXTURE_PAIRS = [
    ("library_v1_drifted_model.puml", "library_v1_drifted_code.py"),
    ("library_v2_model.puml", "library_v2_code.py"),
    ("library_v1_model.puml", "library_v1_code.py"),
    ("library_v1_model.puml", "library_v2_code.py"),
    ("library_v2_model.puml", "library_v1_drifted_code.py"),
]


def _mutation_pairs(mutations: int):
    """(model text, code text) for the mutation suite's first
    ``mutations`` seeds that mutate, as ``test_acceptance`` draws them,
    each followed by the same seed with three further mutations stacked on
    the same side."""
    seed = 0
    found = 0
    while found < mutations:
        seed += 1
        rng = random.Random(20_000 + seed)
        base = make_code_model(rng)
        side = "model" if seed % 2 else "code"
        mutation = mutate(rng, base, OPERATORS[seed % len(OPERATORS)], side)
        if mutation is None:
            continue
        found += 1
        mutated = [mutation.mutated]
        stacked = mutation.mutated
        for _ in range(3):
            if not stacked.classes:
                break
            more = mutate(rng, stacked, rng.choice(OPERATORS), side)
            stacked = more.mutated if more is not None else stacked
        mutated.append(stacked)
        for model in mutated:
            if side == "model":
                yield render_plantuml(model), render_code_skeleton(base)
            else:
                yield render_plantuml(base), render_code_skeleton(model)


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
        design = parse_plantuml(model_text).model
        code_doc = parse_code(code_text)
        report = check(design, code_doc.model)
        chosen = resolve(propose(report, design, code_doc), policy)

        (new_model, new_code), (ref_model, ref_code) = \
            _apply_with_reference(design, code_doc, chosen, monkeypatch)
        # copy-on-write never writes through to the inputs
        assert design == parse_plantuml(model_text).model, policy
        assert code_doc.model == parse_code(code_text).model, policy
        assert new_model == ref_model, policy
        assert new_code == ref_code, policy
        # only the classes that model edits touch are copied
        model_edits = [e for e in chosen if e.side == "model"]
        touched = {id(e.cls) for e in model_edits
                   if e.kind not in ("add-class", "remove-class")}
        removed = {id(e.cls) for e in model_edits if e.kind == "remove-class"}
        originals = {id(c) for c in design.classes}
        shared = originals & {id(c) for c in new_model.classes}
        assert shared == originals - touched - removed, policy


@pytest.mark.parametrize("pair", FIXTURE_PAIRS,
                         ids=lambda p: f"{p[0]}+{p[1]}")
def test_apply_matches_reference_on_fixtures(pair, monkeypatch):
    model, code = pair
    _check_pair(fixture_text(model), fixture_text(code), monkeypatch)


def test_apply_matches_reference_over_mutations(monkeypatch):
    pairs = 0
    for model_text, code_text in _mutation_pairs(300):
        _check_pair(model_text, code_text, monkeypatch)
        pairs += 1
    assert pairs == 600


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
        doc = CodeDocument(ClassModel(), text, "t.py", lines)
        edits = _random_edits(rng, lines)
        outcome = _outcome(apply_code_edits, doc, edits)
        assert outcome == _outcome(reference_apply_code_edits, doc, edits)
        spliced += isinstance(outcome, str)
    assert spliced >= 500
