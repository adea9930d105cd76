from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from modelsync.errors import ParseError
from modelsync.model import (MAX_COLLECTION_DEPTH, UML_TO_PY, Attribute,
                             ClassDef, ClassModel, Method, Parameter,
                             TypeRef, DEFAULT_TYPE_EQUIVALENCES,
                             make_type_table, model_equal, normalize_name,
                             read_type, sha256_hex, spell_type,
                             type_equivalent)

from modelgen import make_plantuml_model, shuffled_copy

identifiers = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,20}", fullmatch=True)


def test_normalize_exact_is_identity():
    assert normalize_name("getName", "exact") == "getName"


def test_normalize_canonical_merges_spellings():
    assert normalize_name("lend_book", "canonical") == "lendbook"
    assert normalize_name("lendBook", "canonical") == "lendbook"


def test_normalize_rejects_empty():
    with pytest.raises(ValueError):
        normalize_name("", "canonical")


def test_normalize_rejects_unknown_mode():
    with pytest.raises(ValueError):
        normalize_name("x", "loose")


@given(identifiers, st.sampled_from(["exact", "canonical"]))
def test_normalize_idempotent(name, mode):
    once = normalize_name(name, mode)
    assert normalize_name(once, mode) == once


def _types() -> st.SearchStrategy[TypeRef]:
    base = st.one_of(
        st.builds(TypeRef.named, st.sampled_from(
            ["String", "str", "int", "boolean", "bool", "Book"])),
        st.just(TypeRef.unknown()),
        st.just(TypeRef.void()),
    )
    return st.recursive(base, lambda inner: st.builds(TypeRef.collection,
                                                      inner), max_leaves=3)


def test_type_equivalent_table_pairs():
    assert type_equivalent(TypeRef.named("String"), TypeRef.named("str"))
    assert type_equivalent(TypeRef.named("boolean"), TypeRef.named("bool"))
    assert not type_equivalent(TypeRef.named("String"), TypeRef.named("int"))


def test_type_equivalent_unknown_matches_anything():
    assert type_equivalent(TypeRef.unknown(), TypeRef.named("String"))
    assert type_equivalent(TypeRef.void(), TypeRef.unknown())


def test_type_equivalent_collections_elementwise():
    assert type_equivalent(TypeRef.collection(TypeRef.named("String")),
                           TypeRef.collection(TypeRef.named("str")))
    assert not type_equivalent(TypeRef.collection(TypeRef.named("String")),
                               TypeRef.named("String"))


def test_type_table_extension():
    table = make_type_table((("Integer", "int"),))
    assert type_equivalent(TypeRef.named("Integer"), TypeRef.named("int"),
                           table)
    assert not type_equivalent(TypeRef.named("Integer"), TypeRef.named("int"),
                               DEFAULT_TYPE_EQUIVALENCES)


@given(_types())
def test_type_equivalent_reflexive(t):
    assert type_equivalent(t, t)


@given(_types(), _types())
def test_type_equivalent_symmetric(a, b):
    assert type_equivalent(a, b) == type_equivalent(b, a)


def test_typeref_invariants():
    with pytest.raises(ValueError):
        TypeRef("named")
    with pytest.raises(ValueError):
        TypeRef("unknown", name="x")
    with pytest.raises(ValueError):
        TypeRef("collection")


def _sample_model() -> ClassModel:
    book = ClassDef("Book", [Attribute("title", TypeRef.named("String"))],
                    [Method("Book", [Parameter("title",
                                               TypeRef.named("String"))],
                            is_constructor=True),
                     Method("getTitle", [], TypeRef.named("String"))])
    return ClassModel([book])


def test_model_equal_reflexive():
    m = _sample_model()
    assert model_equal(m, m)


def test_model_equal_detects_removed_class():
    m = _sample_model()
    assert not model_equal(m, ClassModel([]))


def test_model_equal_ignores_member_order():
    rng = random.Random(7)
    for seed in range(20):
        m = make_plantuml_model(random.Random(seed))
        assert model_equal(m, shuffled_copy(rng, m))


def test_model_equal_is_transitive_on_shuffles():
    rng = random.Random(11)
    m = make_plantuml_model(random.Random(3))
    a, b = shuffled_copy(rng, m), shuffled_copy(rng, m)
    assert model_equal(a, b) and model_equal(m, a) and model_equal(m, b)


def test_model_equal_sees_type_changes():
    a, b = _sample_model(), _sample_model()
    b.classes[0].attributes[0].type = TypeRef.named("int")
    assert not model_equal(a, b)


@given(st.one_of(st.binary(), st.text().map(str.encode)))
def test_sha256_hex_matches_hashlib(data):
    assert sha256_hex(data) == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("data", [
    b"", "Bücher – 本の貸出".encode("utf-8"),
    random.Random(0).randbytes(1 << 20)], ids=["empty", "utf8", "1MB"])
def test_sha256_hex_matches_hashlib_on_edge_inputs(data):
    assert sha256_hex(data) == hashlib.sha256(data).hexdigest()


def test_sha256_hex_falls_back_to_hashlib():
    src = Path(__file__).resolve().parent.parent / "src"
    program = ("import sys\n"
               "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
               "import hashlib\n"
               "from modelsync import model\n"
               "assert model._sha256 is hashlib.sha256\n"
               "print(model.sha256_hex(b'modelsync'))\n")
    out = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(src),
                         "PYTHONDONTWRITEBYTECODE": "1"}).stdout
    assert out == hashlib.sha256(b"modelsync").hexdigest() + "\n"


@pytest.mark.parametrize("text, expected", [
    ("int", TypeRef.named("int")),
    ("None", TypeRef.void()),
    ("void", TypeRef.void()),  # PlantUML's keyword: no Python type name
    ("list", TypeRef.named("list")),
    ("list[Book]", TypeRef.collection(TypeRef.named("Book"))),
    ("List [ Book ]", TypeRef.collection(TypeRef.named("Book"))),
    ("Sequence[Book]", TypeRef.collection(TypeRef.named("Book"))),
    ("set[Book]", TypeRef.collection(TypeRef.named("Book"))),
    ("list[None]", TypeRef.collection(TypeRef.void())),
    ("Optional[int]", TypeRef.named("int")),
    ("int | None", TypeRef.named("int")),
    ("None|int", TypeRef.named("int")),
    ("list[Optional[str]]", TypeRef.collection(TypeRef.named("str"))),
    ("Optional[list[list[int]]] | None",
     TypeRef.collection(TypeRef.collection(TypeRef.named("int")))),
    ("dict[str, int]", TypeRef.unknown()),
    ("tuple[int]", TypeRef.unknown()),
    ("typing.List[int]", TypeRef.unknown()),
    ("'Book'", TypeRef.unknown()),
    ("int | str", TypeRef.unknown()),
    ("list[a.B]", TypeRef.unknown()),
    ("list[int] | list[str]", TypeRef.unknown()),
    ("list[int]]", TypeRef.unknown()),
    ("list[]", TypeRef.unknown()),
])
def test_read_type_reads_python_by_the_table(text, expected):
    assert read_type(text, "python") == expected


@pytest.mark.parametrize("text, expected", [
    ("int", TypeRef.named("int")),
    ("void", TypeRef.void()),
    ("None", TypeRef.void()),  # Python's keyword: no PlantUML type name
    ("Book [] []",
     TypeRef.collection(TypeRef.collection(TypeRef.named("Book")))),
])
def test_read_type_reads_plantuml_by_the_table(text, expected):
    assert read_type(text, "plantuml") == expected


@pytest.mark.parametrize("text", ["list[Book]", "Optional[int]", "a.B",
                                  "int | None", "[]"])
def test_read_type_refuses_other_plantuml_at_its_line(text):
    with pytest.raises(ParseError) as err:
        read_type(text, "plantuml", "m.puml", 7)
    assert (err.value.artifact, err.value.line) == ("m.puml", 7)
    assert "invalid type" in str(err.value)


@pytest.mark.parametrize("depth", [MAX_COLLECTION_DEPTH + 1, 300])
@pytest.mark.parametrize("dialect, spell", [
    ("plantuml", lambda depth: "int" + "[]" * depth),
    ("python", lambda depth: "list[" * depth + "int" + "]" * depth),
    ("python", lambda depth: "Optional[list[" * depth + "int" + "]]" * depth),
])
def test_read_type_refuses_nesting_past_its_limit(depth, dialect, spell):
    with pytest.raises(ParseError) as err:
        read_type(spell(depth), dialect, "f", 3)
    assert err.value.line == 3
    assert f"'int' is nested in {depth} collections" in str(err.value)


def test_spell_type_writes_nothing_for_unknown_types():
    for dialect in ("plantuml", "python"):
        assert spell_type(TypeRef.unknown(), dialect) is None
        assert spell_type(TypeRef.collection(TypeRef.collection(
            TypeRef.unknown())), dialect) is None


@st.composite
def _spelled_types(draw, names) -> TypeRef:
    """A named or void type nested in up to the most collections allowed."""
    t = draw(st.one_of(st.builds(TypeRef.named, names),
                       st.just(TypeRef.void())))
    for _ in range(draw(st.integers(0, MAX_COLLECTION_DEPTH))):
        t = TypeRef.collection(t)
    return t


# the model's own names, but for the two that spell void
_model_names = identifiers.filter(lambda name: name not in ("void", "None"))


@given(_spelled_types(_model_names), st.sampled_from(["plantuml", "python"]))
def test_read_type_reads_back_what_spell_type_writes(t, dialect):
    assert read_type(spell_type(t, dialect), dialect) == t


@given(_spelled_types(st.one_of(st.sampled_from(list(UML_TO_PY)),
                                _model_names)))
def test_python_names_read_back_as_equivalent_types(t):
    read = read_type(spell_type(t, "python", UML_TO_PY), "python")
    assert read.kind != "unknown"
    assert type_equivalent(read, t)
