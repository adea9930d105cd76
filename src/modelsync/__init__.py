"""modelsync: keep PlantUML class models and code structurally in sync."""

from .consistency import (Finding, FindingKind, InputDescriptor, Location,
                          MatchOptions, MatchResult, Report, check,
                          match_models)
from .correction import CorrectionEdit, CorrectionSet, propose
from .model import (Attribute, ClassDef, ClassModel, Method, Parameter,
                    Relationship, SourceSpan, TypeRef, Visibility,
                    model_equal, normalize_name, type_equivalent)
from .plantuml import PlantUmlDocument, parse_plantuml, render_plantuml
from .pycode import CodeDocument, parse_code

__version__ = "0.1.0"

__all__ = [
    "Attribute", "ClassDef", "ClassModel", "CodeDocument", "CodeEdit",
    "CorrectionEdit", "CorrectionSet", "Finding", "FindingKind",
    "InputDescriptor", "Location", "MatchOptions", "MatchResult", "Method",
    "Parameter", "PlantUmlDocument", "Policy", "Relationship", "Report",
    "SourceSpan", "TypeRef", "Visibility", "apply", "apply_code_edits",
    "check", "match_models", "model_equal", "normalize_name", "parse_code",
    "parse_plantuml", "propose", "render_code_skeleton", "render_plantuml",
    "resolve", "type_equivalent",
]

# the write path, by the module that holds it, loaded on first use
_LAZY = {"Policy": "repair", "apply": "repair", "resolve": "repair",
         "CodeEdit": "pywrite", "apply_code_edits": "pywrite",
         "render_code_skeleton": "pywrite"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)
