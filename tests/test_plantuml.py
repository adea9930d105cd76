from __future__ import annotations

import random

import pytest

from modelsync.errors import (DuplicateClassError, MissingRegionError,
                              ParseError)
from modelsync.model import MAX_COLLECTION_DEPTH, model_equal
from modelsync.plantuml import parse_plantuml, render_plantuml

from modelgen import make_plantuml_model
from helpers import class_named


def test_empty_region_gives_empty_model():
    model = parse_plantuml("@startuml\n@enduml")
    assert model.classes == [] and model.relationships == []


def test_render_empty_model():
    from modelsync.model import ClassModel
    assert render_plantuml(ClassModel()) == "@startuml\n@enduml\n"


def test_v1_model_contents(v1_model_text):
    model = parse_plantuml(v1_model_text)
    assert [c.name for c in model.classes] == \
        ["Library", "User", "UserCard", "Book"]
    book = class_named(model, "Book")
    assert [(a.name, str(a.type)) for a in book.attributes] == \
        [("title", "String"), ("borrowed", "boolean")]
    assert book.attributes[0].visibility.value == "private"
    assert len(model.relationships) == 3
    rel = model.relationships[0]
    assert (rel.left, rel.left_mult, rel.right_mult, rel.right, rel.label,
            rel.directed) == ("Library", "1", "many", "User", "has", False)


def test_v1_constructor_detection(v1_model_text):
    user = class_named(parse_plantuml(v1_model_text), "User")
    ctor = user.constructor()
    assert ctor is not None and ctor.arity == 1
    assert ctor.params[0].name == "name"
    assert str(ctor.params[0].type) == "String"


def test_v2_model_contents(v2_model_text):
    model = parse_plantuml(v2_model_text)
    assert len(model.classes) == 6
    staff = class_named(model, "CounterStaff")
    assert len(staff.methods) == 4
    assert len(model.relationships) == 7
    directed = [r for r in model.relationships
                if (r.left, r.right) == ("CounterStaff",
                                         "LendingInformation")]
    assert directed and directed[0].directed and directed[0].label == \
        "updates"


def test_unparsed_return_type_is_unknown(v2_model_text):
    lib = class_named(parse_plantuml(v2_model_text), "Library")
    assert all(m.return_type.kind == "unknown" for m in lib.methods)


def test_collection_nesting_is_read_up_to_its_limit():
    text = ("@startuml\nclass A {\n  +x: int" + "[]" * MAX_COLLECTION_DEPTH
            + "\n}\n@enduml\n")
    model = parse_plantuml(text)
    t = model.classes[0].attributes[0].type
    for _ in range(MAX_COLLECTION_DEPTH):
        assert t.kind == "collection"
        t = t.element
    assert t.name == "int"
    assert render_plantuml(model) == text


@pytest.mark.parametrize("depth", [MAX_COLLECTION_DEPTH + 1, 2000])
def test_collection_nesting_past_its_limit_rejected_at_its_line(depth):
    text = ("@startuml\nclass A {\n  +ok: int\n  +f(x: int"
            + "[]" * depth + "): void\n}\n@enduml\n")
    with pytest.raises(ParseError) as err:
        parse_plantuml(text, artifact="m.puml")
    assert err.value.line == 4
    assert f"nested in {depth} collections" in str(err.value)


def test_missing_region():
    with pytest.raises(MissingRegionError):
        parse_plantuml("no diagram here")


def test_syntax_error_carries_line():
    text = "@startuml\nclass A {\n  +ok()\n  what is this\n}\n@enduml"
    with pytest.raises(ParseError) as err:
        parse_plantuml(text)
    assert err.value.line == 4


def test_duplicate_class_rejected():
    text = "@startuml\nclass A {\n}\nclass A {\n}\n@enduml"
    with pytest.raises(DuplicateClassError):
        parse_plantuml(text)


def test_unclosed_class_rejected():
    with pytest.raises(ParseError):
        parse_plantuml("@startuml\nclass A {\n@enduml")


def test_inheritance_arrows_rejected():
    with pytest.raises(ParseError):
        parse_plantuml("@startuml\nclass A {\n}\nclass B {\n}\nA <|-- B\n@enduml")


def test_fenced_block_accepted(v1_model_text):
    fenced = f"intro prose\n```plantuml\n{v1_model_text}```\ntrailing"
    model = parse_plantuml(fenced)
    assert len(model.classes) == 4


def test_fenced_block_without_region_markers():
    fenced = "```plantuml\nclass A {\n  +go()\n}\n```"
    model = parse_plantuml(fenced)
    assert [c.name for c in model.classes] == ["A"]


def test_prose_preserved_around_region(v1_model_text):
    model = parse_plantuml(f"hello\n{v1_model_text}bye")
    assert model_equal(model, parse_plantuml(v1_model_text))


def test_render_contains_canonical_member_lines(v1_model_text):
    rendered = render_plantuml(parse_plantuml(v1_model_text))
    assert "  -title: String" in rendered
    assert "  +borrowBook(user: User, book: Book): void" in rendered


def test_render_is_deterministic(v1_model_text):
    model = parse_plantuml(v1_model_text)
    assert render_plantuml(model) == render_plantuml(model)


def test_render_parse_fixed_point(v1_model_text, v2_model_text,
                                  drifted_model_text, merged_model_text):
    for text in (v1_model_text, v2_model_text, drifted_model_text,
                 merged_model_text):
        model = parse_plantuml(text)
        rendered = render_plantuml(model)
        again = parse_plantuml(rendered)
        assert model_equal(model, again)
        assert render_plantuml(again) == rendered


def test_round_trip_random_models():
    for seed in range(60):
        model = make_plantuml_model(random.Random(seed))
        rendered = render_plantuml(model)
        assert model_equal(parse_plantuml(rendered), model), \
            f"seed {seed}"


def test_collection_types_round_trip():
    text = ("@startuml\nclass A {\n  -items: Book[]\n"
            "  +load(xs: Label[]): Label[]\n}\n@enduml\n")
    model = parse_plantuml(text)
    attr = model.classes[0].attributes[0]
    assert attr.type.kind == "collection"
    assert attr.type.element.name == "Book"
    assert model_equal(parse_plantuml(render_plantuml(model)), model)


def test_relationship_endpoint_validation():
    with pytest.raises(ParseError) as err:
        parse_plantuml("@startuml\nclass A {\n}\nA -- A\n\nGhost -- A\n"
                       "@enduml")
    assert err.value.line == 6  # the arrow that names no class


def test_multiple_regions_rejected():
    text = "@startuml\n@enduml\n@startuml\n@enduml\n"
    with pytest.raises(ParseError):
        parse_plantuml(text)
