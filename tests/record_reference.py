"""The library's records as they were while they were dataclasses.

``test_record_differential.py`` holds each record of ``modelsync`` to its
definition here: equality, ``repr``, hashing, defaults, ``replace`` and the
``ValueError`` checks must agree.  Only the fields and the checks are kept;
the methods the records carry are tested where they are used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from modelsync.consistency import FindingKind
from modelsync.model import TypeTable, DEFAULT_TYPE_EQUIVALENCES, Visibility

# --- model.py --------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SourceSpan:
    artifact: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __post_init__(self) -> None:
        if self.start_line < 1 or self.start_col < 1:
            raise ValueError("span positions are 1-based")
        if (self.end_line, self.end_col) < (self.start_line, self.start_col):
            raise ValueError("span end precedes its start")


@dataclass(frozen=True, slots=True)
class TypeRef:
    kind: str
    name: str | None = None
    element: "TypeRef | None" = None

    @staticmethod
    def unknown() -> "TypeRef":
        return TypeRef("unknown")

    def __post_init__(self) -> None:
        if self.kind == "named" and not self.name:
            raise ValueError("named type requires a name")
        if self.kind != "named" and self.name is not None:
            raise ValueError(f"{self.kind} type carries no name")
        if self.kind == "collection" and self.element is None:
            raise ValueError("collection type requires an element type")
        if self.kind != "collection" and self.element is not None:
            raise ValueError(f"{self.kind} type carries no element")

    def __str__(self) -> str:
        if self.kind == "named":
            return self.name or ""
        if self.kind == "collection":
            return f"{self.element}[]"
        return self.kind


@dataclass(slots=True)
class Parameter:
    name: str
    type: TypeRef = field(default_factory=TypeRef.unknown)


@dataclass(slots=True)
class Method:
    name: str
    params: list = field(default_factory=list)
    return_type: TypeRef = field(default_factory=TypeRef.unknown)
    visibility: Visibility = Visibility.UNKNOWN
    is_constructor: bool = False
    span: SourceSpan | None = None


@dataclass(slots=True)
class Attribute:
    name: str
    type: TypeRef = field(default_factory=TypeRef.unknown)
    visibility: Visibility = Visibility.UNKNOWN
    span: SourceSpan | None = None


@dataclass(slots=True)
class ClassDef:
    name: str
    attributes: list = field(default_factory=list)
    methods: list = field(default_factory=list)
    span: SourceSpan | None = None


@dataclass(slots=True)
class Relationship:
    left: str
    right: str
    left_mult: str | None = None
    right_mult: str | None = None
    label: str | None = None
    directed: bool = False


@dataclass(slots=True)
class ClassModel:
    classes: list = field(default_factory=list)
    relationships: list = field(default_factory=list)


# --- consistency.py --------------------------------------------------------

@dataclass(frozen=True)
class MatchOptions:
    name_mode: str = "canonical"
    rename_threshold: float = 0.3
    type_table: TypeTable = DEFAULT_TYPE_EQUIVALENCES
    infer_code_relationships: bool = False


@dataclass(frozen=True)
class Location:
    class_name: str
    member: str | None = None
    span: SourceSpan | None = None


def _matched():
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Finding:
    id: str
    kind: FindingKind
    model_loc: Location | None
    code_loc: Location | None
    detail: str
    model_class: ClassDef | None = _matched()
    code_class: ClassDef | None = _matched()
    model_member: object | None = _matched()
    code_member: object | None = _matched()
    param_index: int | None = _matched()


@dataclass(frozen=True)
class InputDescriptor:
    path: str
    sha256: str


@dataclass(frozen=True)
class Report:
    schema_version: int
    inputs: tuple
    options: MatchOptions
    findings: tuple


@dataclass
class MemberPair:
    model: object
    code: object
    distance: int = 0
    longest: int = 0


@dataclass
class ClassMatch:
    model_class: ClassDef
    code_class: ClassDef
    links: list = field(default_factory=list)
    model_only: list = field(default_factory=list)
    code_only: list = field(default_factory=list)


@dataclass
class MatchResult:
    class_matches: list = field(default_factory=list)
    model_only_classes: list = field(default_factory=list)
    code_only_classes: list = field(default_factory=list)


# --- pycode.py, config.py --------------------------------------------------

@dataclass(frozen=True)
class CodeEdit:
    kind: str
    span: SourceSpan
    payload: str = ""


@dataclass
class CodeDocument:
    model: ClassModel
    raw_text: str
    artifact: str
    line_starts: object = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class Config:
    name_mode: str = "canonical"
    rename_threshold: float = 0.3
    type_equivalences: tuple = ()
    policy: str = "union"
    preferred_side: str = "model"
    fixtures_dir: str = "fixtures/llm"
    llm_endpoint: str = "https://api.openai.com/v1/chat/completions"
    llm_model: str = "gpt-4-0613"


# --- correction.py ---------------------------------------------------------

@dataclass(frozen=True)
class CorrectionEdit:
    side: str
    kind: str
    cls: ClassDef | None = None
    member: object | None = None
    param_index: int | None = None
    payload: object | None = None


@dataclass(frozen=True)
class CorrectionSet:
    finding: Finding
    alternatives: tuple

