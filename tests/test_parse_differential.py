"""The code and PlantUML parsers against the ones they replaced.

``parse_reference.py`` keeps the parsers as they were before the scanner
and member-line rework.  On every input both must give equal documents
(field-wise record ``==``, spans included) or raise the same
``ParseError`` class at the same line with the same message.  Two
exemptions are named below: inputs the reference skipped or modelled
although they are not Python, which the parser now rejects.
"""

from __future__ import annotations

import dataclasses
import random
import re

from hypothesis import given, settings, strategies as st

from modelsync.errors import ParseError
from modelsync.plantuml import parse_plantuml, render_plantuml
from modelsync.pycode import parse_code, render_code_skeleton, scan_attr_line

import parse_reference
from conftest import FIXTURES
from helpers import reference_accepts_non_python
from modelgen import make_code_model, make_plantuml_model

# a top-level class header the reference skipped and the parser rejects
_BASE_CLASS_HEADER = re.compile(r"class\s(?!\s*\w+\s*:\s*(?:#.*)?$)")
_WORD = re.compile(r"\w+")


def _outcome(parse, text: str):
    try:
        doc = parse(text)
    except ParseError as err:
        return type(err), err.line, str(err)
    if hasattr(doc, "raw_text"):
        return doc.model, doc.raw_text, doc.artifact, doc.lines()
    return doc.model


def _same_code_parse(text: str) -> None:
    lines = text.split("\n")
    if any(_BASE_CLASS_HEADER.match(line) for line in lines):
        return  # rejected now, skipped by the reference
    outcome = _outcome(parse_code, text)
    reference = _outcome(parse_reference.parse_code, text)
    if outcome != reference:
        # a def header that is not Python: rejected now at its line,
        # modelled by the reference
        assert outcome[0] is ParseError
        assert reference_accepts_non_python(lines[outcome[1] - 1])


def _same_plantuml_parse(text: str) -> None:
    assert _outcome(parse_plantuml, text) == \
        _outcome(parse_reference.parse_plantuml, text)


def _renderings(seed: int) -> list[str]:
    rng = random.Random(seed)
    code_model, puml_model = make_code_model(rng), make_plantuml_model(rng)
    return [render_code_skeleton(code_model), render_plantuml(code_model),
            render_code_skeleton(puml_model), render_plantuml(puml_model)]


def test_parsers_match_reference_on_fixtures():
    paths = sorted(p for p in FIXTURES.rglob("*")
                   if p.suffix in (".py", ".puml", ".txt"))
    assert len(paths) > 10
    for path in paths:
        text = path.read_text(encoding="utf-8")
        _same_code_parse(text)
        _same_plantuml_parse(text)


def test_parsers_match_reference_on_generated_models():
    for seed in range(400):
        code, model, code_2, model_2 = _renderings(seed)
        for text in (code, code_2):
            _same_code_parse(text)
        for text in (model, model_2):
            _same_plantuml_parse(text)


_junk_text = st.text(alphabet="ab_ \t,:=()[]{}'\"#->+@}{", max_size=12)
_corruption = st.tuples(
    st.integers(min_value=0, max_value=10_000),     # line
    st.integers(min_value=0, max_value=10_000),     # column
    st.sampled_from(["insert-line", "insert-text", "delete-char",
                     "delete-word"]),
    st.one_of(_junk_text, st.sampled_from(
        ["(", ")", "[", "]", "{", "}", "'", '"', "->", "#", ":", "=", ",",
         "class A(B):", "def f(self", "  +", "}", "@enduml", "pass",
         "    def f(self) -> ::", "    def g(self, x=):"])))


def _corrupt(text: str, corruptions) -> str:
    lines = text.split("\n")
    for line_pick, col_pick, kind, junk in corruptions:
        i = line_pick % len(lines)
        line = lines[i]
        col = col_pick % (len(line) + 1)
        if kind == "insert-line":
            lines.insert(i, junk)
        elif kind == "insert-text":
            lines[i] = line[:col] + junk + line[col:]
        elif kind == "delete-word":
            words = list(_WORD.finditer(line))
            if words:
                word = words[col_pick % len(words)]
                lines[i] = line[:word.start()] + line[word.end():]
        elif line:
            col = min(col, len(line) - 1)
            lines[i] = line[:col] + line[col + 1:]
    return "\n".join(lines)


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=0, max_value=39), st.integers(0, 3),
       st.lists(_corruption, min_size=1, max_size=4))
def test_parsers_match_reference_on_corrupted_inputs(seed, which,
                                                     corruptions):
    text = _corrupt(_renderings(seed)[which], corruptions)
    _same_code_parse(text)
    _same_plantuml_parse(text)


_attr_line = st.builds(
    lambda indent, name, s1, s2, rhs: f"{indent}self.{name}{s1}={s2}{rhs}",
    st.sampled_from(["", "  ", "\t", "        "]),
    st.from_regex(r"\w{0,4}", fullmatch=True),
    st.sampled_from(["", " ", "\t"]), st.sampled_from(["", " ", "  "]),
    st.text(alphabet="ab1 \t\r#='\"[]()", max_size=10))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_attr_line, st.text(alphabet="self.ab =#\t", max_size=16)))
def test_scan_attr_line_matches_reference(line):
    layout = scan_attr_line(line)
    reference = parse_reference.scan_attr_line(line)
    if reference is None:
        assert layout is None
    else:
        assert layout == dataclasses.astuple(reference)
