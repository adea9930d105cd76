"""The code and PlantUML parsers against the ones they replaced.

``parse_reference.py`` keeps the parsers as they were before the scanner
and member-line rework.  On every input both must give equal documents
(field-wise record ``==``, spans included) or raise the same
``ParseError`` class at the same line with the same message.  Three
exemptions are named below: inputs the reference skipped or modelled
although they are not Python, which the parser now rejects, and an
undeclared relationship endpoint, which the reference rejected at no line
and the parser rejects at its arrow's line.  The reference kept every
Python annotation but ``-> None`` as a type of that name; its models are
compared after :func:`_reference_parse_code` reads those names by
README's table of type spellings.
"""

from __future__ import annotations

import dataclasses
import random
import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from modelsync.errors import ParseError
from modelsync.model import TypeRef, read_type
from modelsync.plantuml import parse_plantuml, render_plantuml
from modelsync.pycode import parse_code, render_code_skeleton, scan_attr_line

import parse_reference
from conftest import FIXTURES
from helpers import reference_accepts_non_python
from modelgen import (make_code_model, make_large_code_model,
                      make_plantuml_model)

# a top-level class header the reference skipped and the parser rejects
_BASE_CLASS_HEADER = re.compile(r"class\s(?!\s*\w+\s*:\s*(?:#.*)?$)")
_WORD = re.compile(r"\w+")


# the subscripts README's table reads through: True for a collection
_WRAPPERS = {"list": True, "List": True, "Sequence": True, "set": True,
             "Optional": False}


def _python_type(tokens: list[str]) -> TypeRef:
    """The type that an annotation, split into ``tokens``, spells by
    README's table, by recursive descent."""
    parts: list[list[str]] = [[]]
    depth = 0
    for token in tokens:
        depth += (token == "[") - (token == "]")
        if depth < 0:
            return TypeRef.unknown()
        if token == "|" and depth == 0:
            parts.append([])
        else:
            parts[-1].append(token)
    if depth:
        return TypeRef.unknown()
    if len(parts) > 1:  # a union of None with one other type is that type
        others = [part for part in parts if part != ["None"]]
        if not others:
            return TypeRef.void()
        return (_python_type(others[0]) if len(others) == 1
                else TypeRef.unknown())
    if tokens in (["None"], ["void"]):  # either dialect's void keyword
        return TypeRef.void()
    if len(tokens) == 1 and _WORD.fullmatch(tokens[0]):
        return TypeRef.named(tokens[0])
    if (len(tokens) >= 3 and tokens[0] in _WRAPPERS and tokens[1] == "["
            and tokens[-1] == "]"):
        inner = _python_type(tokens[2:-1])
        if inner.kind != "unknown" and _WRAPPERS[tokens[0]]:
            return TypeRef.collection(inner)
        return inner
    return TypeRef.unknown()


def _read_by_table(t: TypeRef) -> TypeRef:
    if t.kind == "collection":
        return TypeRef.collection(_read_by_table(t.element))
    if t.kind == "named":
        return _python_type(re.findall(r"\w+|\S", t.name))
    return t


def _reference_parse_code(text: str):
    """The reference's parse of ``text``, each type it named read again by
    README's table."""
    doc = parse_reference.parse_code(text)
    for cls in doc.model.classes:
        for attr in cls.attributes:
            attr.type = _read_by_table(attr.type)
        for method in cls.methods:
            method.return_type = _read_by_table(method.return_type)
            for p in method.params:
                p.type = _read_by_table(p.type)
    return doc


def _outcome(parse, text: str):
    try:
        doc = parse(text)
    except ParseError as err:
        return type(err), err.line, str(err)
    if hasattr(doc, "raw_text"):
        return doc.model, doc.raw_text, doc.artifact, doc.lines()
    # the reference's PlantUML parse wraps its model in a document
    return getattr(doc, "model", doc)


def _same_code_parse(text: str) -> None:
    lines = text.split("\n")
    if any(_BASE_CLASS_HEADER.match(line) for line in lines):
        return  # rejected now, skipped by the reference
    outcome = _outcome(parse_code, text)
    reference = _outcome(_reference_parse_code, text)
    if outcome != reference:
        # a def header that is not Python: rejected now at its line,
        # modelled by the reference
        assert outcome[0] is ParseError
        assert reference_accepts_non_python(lines[outcome[1] - 1])


def _same_plantuml_parse(text: str) -> None:
    outcome = _outcome(parse_plantuml, text)
    reference = _outcome(parse_reference.parse_plantuml, text)
    if outcome != reference:
        # an undeclared relationship endpoint: rejected now at the arrow's
        # line, at no line by the reference
        error, line, message = outcome
        assert error is ParseError and "--" in text.split("\n")[line - 1]
        assert "relationship endpoint" in message
        assert reference == (error, 0,
                             message.replace(f"model:{line}:", "model:", 1))


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


def test_code_parser_matches_reference_on_a_large_document():
    # the parser reads each plain header thousands of times per file
    model = make_large_code_model(random.Random(16), classes=150,
                                  methods=12)
    text = render_code_skeleton(model)
    assert len({c.name for c in model.classes}) == 150
    assert text.count("    def ") >= 150 * 12
    assert _outcome(parse_code, text) == \
        _outcome(_reference_parse_code, text)


# blanks that str.lstrip() and the regular expressions' \s both take
_blank = st.sampled_from([" ", "\t", "\x0c", "\xa0", "\u3000"])
_blanks = st.text(alphabet=_blank, max_size=3)
_indent = st.text(alphabet=_blank, min_size=1, max_size=3)


@st.composite
def _unicode_spaced_class(draw) -> str:
    """A class whose indentation, header spacing and attribute lines are
    drawn from Unicode blanks."""
    def s() -> str:
        return draw(_blanks)

    def_indent = draw(_indent)
    body = def_indent + draw(_indent)
    return (f"class{draw(_indent)}A{s()}:{s()}\n"
            f"{def_indent}def{draw(_indent)}__init__{s()}({s()}self{s()},"
            f"{s()}x{s()}:{s()}int{s()},{s()}y{s()}){s()}->{s()}None{s()}:"
            f"{s()}\n"
            f"{body}self.x{s()}={s()}x{s()}\n"
            f"{body}self.y{s()}={s()}True{s()}#{s()}flag\n"
            f"{def_indent}def{draw(_indent)}go{s()}({s()}self{s()},{s()}n"
            f"{s()}:{s()}Amount{s()}){s()}:{s()}\n"
            f"{body}pass{s()}\n")


@settings(max_examples=200, deadline=None)
@given(_unicode_spaced_class())
def test_code_parser_matches_reference_on_unicode_blanks(text):
    assert _outcome(parse_code, text) == \
        _outcome(_reference_parse_code, text)


_PARAMS = ", ".join(f"p{i}: T{i % 7}" if i % 3 else f"p{i}"
                    for i in range(4000))


@pytest.mark.parametrize("header", [
    f"def f(self, {_PARAMS}) -> Result:",
    f"def f(self, x: {'a ' * 17_000}\"):",
    f"def f(self, x: {'a' * 33_000}'):",
    f"def f(self, {_PARAMS}, (",
    f"def f(self, {_PARAMS}) -> {'R ' * 17_000}(",
    f"def f(self, {'p , ' * 8200}z=1):",
    f"def f(self, {'p  , ' * 7000}z=1):",
    f"def f(self, a{' ' * 33_000}b):",
], ids=["many-parameters", "spaced-annotation-then-quote",
        "annotation-then-quote", "unclosed-parenthesis",
        "return-type-without-colon", "blank-before-each-comma",
        "two-blanks-before-each-comma", "blanks-between-two-names"])
def test_code_parser_matches_reference_on_long_headers(header):
    assert len(header) >= 32 * 1024
    text = f"class A:\n    {header}\n        pass\n"
    started = time.perf_counter()
    outcome = _outcome(parse_code, text)
    elapsed = time.perf_counter() - started
    assert outcome == _outcome(_reference_parse_code, text)
    # a match that backtracked super-linearly would take far longer
    assert elapsed < 0.5


@pytest.mark.parametrize("rhs", [" " * 33_000, f"x{' ' * 33_000}#"],
                         ids=["no-right-hand-side", "blanks-then-comment"])
def test_code_parser_matches_reference_on_long_attribute_lines(rhs):
    text = f"class A:\n    def __init__(self):\n        self.x ={rhs}\n"
    started = time.perf_counter()
    outcome = _outcome(parse_code, text)
    elapsed = time.perf_counter() - started
    assert outcome == _outcome(_reference_parse_code, text)
    assert elapsed < 0.5


_BLANKS = " " * 33_000


@pytest.mark.parametrize("member, error", [
    (f"+f(a{_BLANKS}b): void", f"invalid parameter 'a{_BLANKS}b'"),
    (f"+f(a{_BLANKS}:{_BLANKS}): void", f"invalid parameter 'a{_BLANKS}:'"),
    (f"+f(a: int{_BLANKS}b): void", f"invalid type 'int{_BLANKS}b'"),
    (f"+f(a{_BLANKS}:{_BLANKS}int{_BLANKS}): void", None),
    (f"+f({_BLANKS}a{_BLANKS}, b): void", None),
], ids=["blanks-between-two-names", "blanks-around-a-missing-type",
        "blanks-inside-an-annotation", "blanks-around-an-annotation",
        "blanks-around-a-name"])
def test_plantuml_parser_matches_reference_on_long_blank_runs(member, error):
    def text(blanks: str) -> str:
        return ("@startuml\nclass A {\n  "
                + member.replace(_BLANKS, blanks) + "\n}\n@enduml\n")
    short = text(" " * 200)
    assert _outcome(parse_plantuml, short) == \
        _outcome(parse_reference.parse_plantuml, short)
    started = time.perf_counter()
    outcome = _outcome(parse_plantuml, text(_BLANKS))
    elapsed = time.perf_counter() - started
    if error is None:
        assert outcome == _outcome(parse_reference.parse_plantuml,
                                   text(_BLANKS))
    else:
        # the reference backtracks quadratically on these, for seconds
        assert outcome == (ParseError, 3, f"model:3:1: {error}")
    assert elapsed < 0.5


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


# lines around the region markers: the markers alone, beside other text or
# twice on one line, and a small diagram body
_region_line = st.builds(
    lambda before, text, after: before + text + after, _blanks,
    st.sampled_from(["@startuml", "@enduml", "```plantuml", "```",
                     "```plantuml x", "x @startuml", "@enduml @enduml",
                     "``````", "class A {", "+x: int", "}", "class B {",
                     "A -- B", "", "note"]),
    _blanks)
_FENCED = "```plantuml\n@startuml\nclass A {\n}\n@enduml\n```\n"


@settings(max_examples=400, deadline=None)
@given(st.lists(_region_line, max_size=12),
       st.sampled_from(["\n", "\r\n"]))
@example(["text", "```plantuml", "class A {", "}", "```", "more"], "\n")
@example([_FENCED, _FENCED], "\n")
@example(["@startuml", "class A {", "}", "@enduml", "@startuml", "@enduml"],
         "\n")
@example(["\u3000@startuml\xa0", "class A {", "}", "\t@enduml\x0c"], "\n")
@example(["@startuml", "class A {", "}"], "\n")
@example(["```plantuml", "@startuml", "}", "```", "@enduml"], "\r\n")
def test_plantuml_region_matches_reference(lines, newline):
    _same_plantuml_parse(newline.join(lines))


_annotation_token = st.sampled_from(
    ["list", "List", "Sequence", "set", "Optional", "dict", "None", "void",
     "int", "Book", "[", "]", "|", ",", ".", "'", " "])


@settings(max_examples=500, deadline=None)
@given(st.lists(_annotation_token, max_size=12))
@example(["list", "[", "int", "]", "|", "list", "[", "str", "]"])
@example(["None", "|", "Optional", "[", "None", "]", "|", "None"])
def test_python_annotations_read_as_by_recursive_descent(tokens):
    text = "".join(tokens)
    assert read_type(text, "python") == \
        _python_type(re.findall(r"\w+|\S", text))
