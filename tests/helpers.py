"""Lookups the tests use to inspect models and rename distances."""

from __future__ import annotations

from modelsync.consistency import levenshtein
from modelsync.model import ClassDef, ClassModel


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
