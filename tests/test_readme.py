"""README.md's Python example runs against the real API."""

from __future__ import annotations

import re
from pathlib import Path

from modelsync.consistency import check
from modelsync.plantuml import parse_plantuml, render_plantuml
from modelsync.pycode import parse_code

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(section: str) -> str:
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", body, re.S | re.M)
    assert len(blocks) == 1, f"expected one python block under {section}"
    return blocks[0]


def test_sync_policies_example_runs(drifted_model_text, drifted_code_text):
    scope = {"model_text": drifted_model_text, "code_text": drifted_code_text}
    exec(_python_block("Sync policies"), scope)
    assert scope["new_code"] != drifted_code_text
    design = parse_plantuml(render_plantuml(scope["new_model"])).model
    assert check(design, parse_code(scope["new_code"]).model
                 ).error_findings() == ()
