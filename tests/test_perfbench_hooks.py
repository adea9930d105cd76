"""Every function the benchmark's trace wraps must exist in the library,
or its per-layer rows read zero without failing anything."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"

# gone from the library; the benchmark still lists them (see CHANGES.md)
KNOWN_ABSENT = {"consistency.annotated_findings",
                "consistency.fingerprint_text"}


def _hooks() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return ([(module, path) for _, module, path, _ in spans.TRACED]
            + [(module, path) for _, module, path in spans.COUNTED])


def test_trace_hooks_resolve_to_library_attributes():
    if not SPANS.is_file():
        pytest.skip("perfbench/ is not part of this checkout")
    hooks = _hooks()
    assert len(hooks) > 10
    absent = set()
    for module, path in hooks:
        owner = importlib.import_module(f"modelsync.{module}")
        for name in path.split("."):
            owner = getattr(owner, name, None)
        if not callable(owner):
            absent.add(f"{module}.{path}")
    assert absent <= KNOWN_ABSENT, sorted(absent - KNOWN_ABSENT)
