from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from modelsync.errors import (DuplicateClassError, DuplicateMemberError,
                              OverlappingEditsError, ParseError,
                              SpanOutOfRangeError)
from modelsync.model import SourceSpan, model_equal
from modelsync.plantuml import parse_plantuml
from modelsync.pycode import (CodeEdit, apply_code_edits, parse_code,
                              render_code_skeleton, scan_def_line)

import defline_reference
from conftest import FIXTURES
from modelgen import make_code_model
from helpers import class_named, reference_accepts_non_python


def test_empty_text_gives_empty_model():
    doc = parse_code("")
    assert doc.model.classes == []
    assert doc.raw_text == ""


def test_v1_code_contents(v1_code_text):
    model = parse_code(v1_code_text).model
    assert [c.name for c in model.classes] == \
        ["Library", "User", "UserCard", "Book"]
    book = class_named(model, "Book")
    assert [(a.name, str(a.type)) for a in book.attributes] == \
        [("title", "unknown"), ("borrowed", "boolean")]
    lib = class_named(model, "Library")
    assert [(m.name, m.arity) for m in lib.methods if not m.is_constructor] \
        == [("borrowBook", 2), ("returnBook", 2), ("checkLendingStatus", 0)]
    assert [str(a.type) for a in lib.attributes] == \
        ["unknown[]", "unknown[]"]


def test_constructor_renamed_to_class(v1_code_text):
    user = class_named(parse_code(v1_code_text).model, "User")
    ctor = user.constructor()
    assert ctor is not None
    assert ctor.name == "User" and ctor.is_constructor
    assert [p.name for p in ctor.params] == ["name", "userCard"]


def test_annotated_param_and_attr_inference(drifted_code_text):
    card = class_named(parse_code(drifted_code_text).model, "UserCard")
    ctor = card.constructor()
    assert str(ctor.params[0].type) == "int"
    assert str(card.attributes[0].type) == "int"


def test_v2_code_contents(v2_code_text):
    model = parse_code(v2_code_text).model
    assert [c.name for c in model.classes] == ["Book", "User", "Library"]
    lib = class_named(model, "Library")
    assert sorted(m.name for m in lib.methods if not m.is_constructor) == \
        ["add_book", "add_user", "check_overdue_books", "lend_book",
         "return_book"]
    user = class_named(model, "User")
    assert [str(a.type) for a in user.attributes] == \
        ["unknown", "unknown", "unknown[]"]


def test_top_level_statements_preserved(v2_code_text):
    doc = parse_code(v2_code_text)
    assert 'library.add_book("Book1", "Author1")' in doc.raw_text
    assert class_named(doc.model, "Library") is not None


def test_fenced_envelope_stripped(v1_code_text):
    fenced = f"prose\n```python\n{v1_code_text}```\nmore prose"
    model = parse_code(fenced).model
    assert len(model.classes) == 4


def test_class_level_garbage_rejected():
    with pytest.raises(ParseError) as err:
        parse_code("class A:\n    x = 1\n")
    assert err.value.line == 2


@pytest.mark.parametrize("header", ["class A(Base):", "class A():",
                                    "class A: pass", "class A(Base):  # x"])
def test_unsupported_class_header_rejected(header):
    with pytest.raises(ParseError) as err:
        parse_code(f"import os\n\n{header}\n    def f(self):\n"
                   "        pass\n")
    assert err.value.line == 3


def test_class_like_statements_stay_opaque():
    model = parse_code("classes = []\nclass_ = 1\n    class A(B):\n").model
    assert model.classes == []


def test_method_without_receiver_rejected():
    with pytest.raises(ParseError):
        parse_code("class A:\n    def f(x):\n        pass\n")


def test_duplicate_class_rejected():
    with pytest.raises(DuplicateClassError):
        parse_code("class A:\n    pass\n\nclass A:\n    pass\n")


def test_duplicate_method_signature_rejected():
    code = ("class A:\n    def go(self, x):\n        pass\n"
            "    def go(self, y):\n        pass\n")
    with pytest.raises(DuplicateMemberError):
        parse_code(code)


def test_same_name_different_arity_allowed():
    code = ("class A:\n    def go(self, x):\n        pass\n"
            "    def go(self, x, y):\n        pass\n")
    model = parse_code(code).model
    assert [m.arity for m in model.classes[0].methods] == [1, 2]


def test_skeleton_empty_model():
    from modelsync.model import ClassModel
    assert render_code_skeleton(ClassModel()) == ""


def test_skeleton_round_trip_fixture_codes(v1_code_text, drifted_code_text,
                                           v2_code_text, merged_code_text):
    for text in (v1_code_text, drifted_code_text, v2_code_text,
                 merged_code_text):
        model = parse_code(text).model
        skeleton = render_code_skeleton(model)
        assert model_equal(parse_code(skeleton).model, model)


def test_skeleton_round_trip_random_models():
    for seed in range(60):
        model = make_code_model(random.Random(seed))
        skeleton = render_code_skeleton(model)
        assert model_equal(parse_code(skeleton).model, model), f"seed {seed}"


def test_skeleton_from_merged_model_defines_added_classes(merged_model_text):
    model = parse_plantuml(merged_model_text).model
    skeleton = render_code_skeleton(model)
    parsed = parse_code(skeleton).model
    assert {"UserCard", "CounterStaff", "LendingInformation"} <= \
        {c.name for c in parsed.classes}


def test_skeleton_from_design_model_keeps_members(v1_model_text):
    model = parse_plantuml(v1_model_text).model
    skeleton = render_code_skeleton(model)
    parsed = parse_code(skeleton).model
    book = class_named(parsed, "Book")
    assert {a.name for a in book.attributes} == {"title", "borrowed"}
    assert "def __init__(self, title: String):" in skeleton
    assert "self.borrowed = False" in skeleton


def test_scan_def_line_layout():
    layout = scan_def_line("    def go(self, a: int, b = 2) -> str:  # hi")
    assert layout is not None
    assert layout.name == "go"
    assert [p.name for p in layout.params] == ["self", "a", "b"]
    assert layout.params[1].annotation == "int"
    assert layout.params[2].default == "2"
    assert layout.ret == "str"


def test_scan_def_line_matches_reference_on_fixtures():
    lines = [line for path in sorted(FIXTURES.rglob("*"))
             if path.suffix in (".py", ".txt")
             for line in path.read_text(encoding="utf-8").splitlines()
             if "def " in line]
    assert sum(scan_def_line(line) is not None for line in lines) > 40
    for line in lines:
        assert scan_def_line(line) == defline_reference.scan_def_line(line)


_words = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)
_spaces = st.sampled_from(["", " ", "  ", "\t"])
# quoted text holding the characters the scanner splits and matches on
_quoted = st.builds(lambda q, body: q + body.replace(q, "") + q,
                    st.sampled_from(["'", '"']),
                    st.text(alphabet="ab \t,:=()[]{}->#'\"", max_size=8))
_annotation = st.recursive(
    st.one_of(_words, _quoted, st.just("...")),
    lambda inner: st.one_of(
        st.builds(lambda b, args: f"{b}[{', '.join(args)}]", _words,
                  st.lists(inner, min_size=1, max_size=3)),
        st.builds(lambda args: f"[{', '.join(args)}]",
                  st.lists(inner, max_size=2))),
    max_leaves=6)
_default = st.recursive(
    st.one_of(_words, _quoted, st.sampled_from(["0", "-1", "None", "1.5"])),
    lambda inner: st.one_of(
        st.builds(lambda f, args: f"{f}({', '.join(args)})", _words,
                  st.lists(inner, max_size=3)),
        st.builds(lambda args: f"({', '.join(args)},)",
                  st.lists(inner, min_size=1, max_size=2)),
        st.builds(lambda k, v: f"{{{k}: {v}}}", inner, inner),
        st.builds(lambda a, b: f"{a} == {b}", inner, inner),
        st.builds(lambda body: f"lambda: {body}", inner)),
    max_leaves=6)
_param = st.builds(
    lambda name, s1, annot, s2, default: (
        name + (f"{s1}:{s1}{annot}" if annot else "")
        + (f"{s2}={s2}{default}" if default else "")),
    _words, _spaces, st.none() | _annotation, _spaces, st.none() | _default)
# what follows the closing parenthesis: comments, arrows, tabs and quotes
# that never close
_tail = st.one_of(
    st.sampled_from([":", ":  # note", " :", "", ": pass", ":#x", "\t:\t",
                     ": # it's", ":'", ' -> "x:', " -> 'A'", "->:", "'"]),
    st.text(alphabet=":#->'\" \tab", max_size=6))
_header = st.builds(
    lambda indent, name, params, sep, ret, tail: (
        f"{indent}def {name}({sep.join(params)})"
        + (f" -> {ret}" if ret else "") + tail),
    st.sampled_from(["", "    ", "\t", "        "]), _words,
    st.lists(_param, max_size=4).map(lambda ps: ["self"] + ps),
    st.sampled_from([", ", ",", " , "]), st.none() | _annotation,
    _tail)
# arbitrary text after the opening parenthesis: unbalanced brackets,
# unclosed quotes and misplaced markers
_noise = st.builds(lambda name, rest: f"def {name}({rest}", _words,
                   st.text(alphabet="ab_ \t,:=()[]{}'\"->#", max_size=30))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_header, _noise))
@example("    def f(self) -> ::")
@example("def g(self, x: int = ):")
def test_scan_def_line_matches_reference(line):
    expected = (None if reference_accepts_non_python(line)
                else defline_reference.scan_def_line(line))
    assert scan_def_line(line) == expected


@pytest.mark.parametrize("header", ["def f(self) -> ::",
                                    "def g(self, x: int = ):"])
def test_non_python_def_header_rejected_at_its_line(header):
    assert reference_accepts_non_python(header)
    assert scan_def_line(header) is None
    with pytest.raises(ParseError) as err:
        parse_code(f"class A:\n    {header}\n        pass\n")
    assert err.value.line == 2


def _span(line: int, start: int, end: int) -> SourceSpan:
    return SourceSpan("code", line, start, line, end)


def test_apply_edits_rename_identifier():
    code = "class A:\n    def getName(self):\n        return self.name\n"
    doc = parse_code(code)
    edit = CodeEdit("rename-identifier", _span(2, 9, 16), "getNamae")
    patched = apply_code_edits(doc, [edit])
    assert "def getNamae(self):" in patched
    assert "return self.name" in patched


def test_apply_edits_set_annotation():
    code = "class A:\n    def __init__(self, userID):\n        self.userID = userID\n"
    doc = parse_code(code)
    # zero-width insertion right after the parameter name
    edit = CodeEdit("set-annotation", _span(2, 30, 30), ": str")
    patched = apply_code_edits(doc, [edit])
    assert "def __init__(self, userID: str):" in patched


def test_apply_edits_empty_list_is_identity(v1_code_text):
    doc = parse_code(v1_code_text)
    assert apply_code_edits(doc, []) == v1_code_text


def test_apply_edits_duplicates_collapse():
    code = "class A:\n    def f(self, x):\n        pass\n"
    doc = parse_code(code)
    edit = CodeEdit("set-annotation", _span(2, 19, 19), ": int")
    patched = apply_code_edits(doc, [edit, edit])
    assert patched.count(": int") == 1


def test_apply_edits_overlap_rejected():
    code = "class A:\n    def f(self, x):\n        pass\n"
    doc = parse_code(code)
    edits = [CodeEdit("rename-identifier", _span(2, 9, 12), "g"),
             CodeEdit("rename-identifier", _span(2, 10, 13), "h")]
    with pytest.raises(OverlappingEditsError):
        apply_code_edits(doc, edits)


def test_apply_edits_span_out_of_range():
    doc = parse_code("class A:\n    pass\n")
    with pytest.raises(SpanOutOfRangeError):
        apply_code_edits(doc, [CodeEdit("delete-span", _span(99, 1, 2))])


def test_apply_edits_disjoint_order_independent():
    code = ("class A:\n    def f(self, x):\n        pass\n"
            "    def g(self, y):\n        pass\n")
    doc = parse_code(code)
    e1 = CodeEdit("rename-identifier", _span(2, 9, 10), "ff")
    e2 = CodeEdit("rename-identifier", _span(4, 9, 10), "gg")
    assert apply_code_edits(doc, [e1, e2]) == apply_code_edits(doc, [e2, e1])


def test_patched_code_reparses(v1_code_text):
    doc = parse_code(v1_code_text)
    user = class_named(doc.model, "User")
    method = next(m for m in user.methods if m.name == "getName")
    line = method.span.start_line
    text = doc.lines()[line - 1]
    col = text.index("getName") + 1
    edit = CodeEdit("rename-identifier",
                    _span(line, col, col + len("getName")), "getNamae")
    patched = apply_code_edits(doc, [edit])
    renamed = class_named(parse_code(patched).model, "User")
    assert any(m.name == "getNamae" for m in renamed.methods)
