"""Lookups the tests use to inspect models, rename distances and def
lines."""

from __future__ import annotations

from modelsync.consistency import levenshtein
from modelsync.model import ClassDef, ClassModel

import defline_reference


def class_named(model: ClassModel, name: str) -> ClassDef | None:
    for c in model.classes:
        if c.name == name:
            return c
    return None


def relative_distance(a: str, b: str) -> float:
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return levenshtein(a, b) / longest


def reference_accepts_non_python(line: str) -> bool:
    """True when the old def-line scanner (``defline_reference``) accepts a
    header that is not Python: an ``=`` with no default after it, or a
    return type holding a colon.  The scanner now rejects both."""
    layout = defline_reference.scan_def_line(line)
    return layout is not None and (
        ":" in (layout.ret or "")
        or any(p.default == "" for p in layout.params))
