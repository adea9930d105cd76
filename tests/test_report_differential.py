"""Differential tests of ``cli.format_report_json``, the writer of the
``--json`` report, against ``json.dumps(..., indent=2)`` of the dict that
``tests/report_reference.py`` builds: the bytes must be equal."""

from __future__ import annotations

import json
import random

import pytest

from modelsync import cli
from modelsync.cli import format_report_json
from modelsync.consistency import (Finding, FindingKind, InputDescriptor,
                                   Location, MatchOptions, Report, check)
from modelsync.correction import CorrectionSet, propose
from modelsync.model import SourceSpan, make_type_table, sha256_hex
from modelsync.plantuml import parse_plantuml, render_plantuml
from modelsync.pycode import parse_code
from modelsync.pywrite import render_code_skeleton

from modelgen import (OPERATORS, make_code_model, make_plantuml_model,
                      mutate)
from report_reference import report_to_json
from test_golden import CASES, GOLDEN, _workdir, run_case

JSON_CASES = sorted(name for name in CASES
                    if name.endswith("-check-json") or name == "gen-json")
UNICODE_MODEL = """@startuml
class Bücher {
  +名前 : String
  +Bücher(名前 : String)
  +zählen() : int
}
class Ünïcode {
}
Bücher "1" -- "many" Ünïcode : hält
@enduml
"""
UNICODE_CODE = """class Bücher:
    def __init__(self, 名前: int):
        self.名前 = 名前
        self.ünïcode = Ünïcode()

    def zählen_alle(self) -> int:
        return 0


class Ünïcode:
    def 名前(self) -> str:
        return "\\u540d"
"""


def _assert_same(report: Report, suggestions: dict[str, CorrectionSet]):
    got = format_report_json(report, suggestions)
    assert got == json.dumps(report_to_json(report, suggestions), indent=2)
    return got


def _checked(model_text: str, code_text: str,
             opts: MatchOptions = MatchOptions(),
             paths: tuple[str, str] = ("model.puml", "code.py")):
    design = parse_plantuml(model_text, artifact=paths[0]).model
    code_doc = parse_code(code_text, artifact=paths[1])
    report = check(design, code_doc.model, opts, inputs=(
        InputDescriptor(paths[0], sha256_hex(model_text.encode())),
        InputDescriptor(paths[1], sha256_hex(code_text.encode()))))
    sets = propose(report, design, code_doc)
    return report, {s.finding_id: s for s in sets}


@pytest.mark.parametrize("name", JSON_CASES)
def test_writer_matches_reference_on_golden_cases(tmp_path, monkeypatch,
                                                  name):
    seen = []

    def recording(report, suggestions):
        seen.append(_assert_same(report, suggestions))
        return seen[-1]

    monkeypatch.setattr(cli, "format_report_json", recording)
    result = run_case(name, _workdir(tmp_path))
    assert len(seen) == 1
    assert result["stdout"] == (GOLDEN / name / "stdout").read_bytes()


def test_writer_matches_reference_on_generated_pairs():
    texts = []
    for seed in range(40):
        rng = random.Random(seed)
        base = make_code_model(rng)
        # one mutation on each side, each of the base
        model, code = (getattr(mutate(rng, base, rng.choice(OPERATORS), side),
                               "mutated", base)
                       for side in ("model", "code"))
        pairs = [(render_plantuml(model), render_code_skeleton(code)),
                 (render_plantuml(make_plantuml_model(rng)),
                  render_code_skeleton(make_code_model(rng)))]
        for model_text, code_text in pairs:
            for infer in (False, True):
                opts = MatchOptions(infer_code_relationships=infer)
                texts.append(_assert_same(*_checked(model_text, code_text,
                                                    opts)))
    joined = "".join(texts)
    # every branch of the writer was taken
    for fragment in ('"severity": "advisory"', '"span": null',
                     '"member": null', '"codeLocation": null',
                     '"modelLocation": null', '"suggestions": []',
                     '"inferCodeRelationships": true', '"findings": []'):
        assert fragment in joined, fragment


def test_writer_matches_reference_on_an_empty_report():
    report = Report(1, (), MatchOptions(type_table=frozenset()), ())
    got = _assert_same(report, {})
    assert '"inputs": []' in got and '"findings": []' in got
    assert '"typeEquivalences": []' in got


def test_writer_matches_reference_without_suggestions():
    span = SourceSpan("m.puml", 3, 1, 4, 7)
    finding = Finding("abc", FindingKind.MISSING_METHOD_IN_CODE, "error",
                      Location("A", "run", span), Location("A"),
                      'quote " backslash \\ tab \t newline \n')
    report = Report(1, (InputDescriptor('dir/"x"\\ü.puml', "0" * 64),),
                    MatchOptions(), (finding,))
    empty = CorrectionSet("abc", finding.kind, finding.detail, ())
    for suggestions in ({}, {"abc": empty}):
        assert '"suggestions": []' in _assert_same(report, suggestions)


def test_writer_matches_reference_on_non_ascii_identifiers():
    report, suggestions = _checked(UNICODE_MODEL, UNICODE_CODE,
                                   MatchOptions(infer_code_relationships=True),
                                   ("モデル.puml", "Bücher.py"))
    assert report.findings and suggestions
    got = _assert_same(report, suggestions)
    assert got.isascii() and "\\u540d\\u524d" in got


@pytest.mark.parametrize("threshold", [0.0, 1.0, 0.25, 1e-05])
def test_writer_matches_reference_on_thresholds(drifted_model_text,
                                                drifted_code_text,
                                                threshold):
    report, suggestions = _checked(
        drifted_model_text, drifted_code_text,
        MatchOptions(rename_threshold=threshold))
    got = _assert_same(report, suggestions)
    assert f'"renameThreshold": {threshold!r},' in got


def test_writer_matches_reference_with_added_type_equivalences(
        drifted_model_text, drifted_code_text):
    table = make_type_table((("Integer", "int"), ("Text", "str"),
                             ("Same", "Same"), ("名前", "Bücher")))
    assert frozenset({"Same"}) in table
    report, suggestions = _checked(drifted_model_text, drifted_code_text,
                                   MatchOptions(type_table=table))
    got = _assert_same(report, suggestions)
    assert '[\n        "Same"\n      ]' in got
