"""README.md's Python example runs against the real API, and its
configuration example loads."""

from __future__ import annotations

import re
from pathlib import Path

from modelsync.config import Config, load_config
from modelsync.consistency import check
from modelsync.plantuml import parse_plantuml, render_plantuml
from modelsync.pycode import parse_code

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(section: str, language: str = "python") -> str:
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(rf"^```{language}\n(.*?)^```$", body, re.S | re.M)
    assert len(blocks) == 1, f"expected one {language} block under {section}"
    return blocks[0]


def test_sync_policies_example_runs(drifted_model_text, drifted_code_text):
    scope = {"model_text": drifted_model_text, "code_text": drifted_code_text}
    exec(_block("Sync policies"), scope)
    assert scope["new_code"] != drifted_code_text
    design = parse_plantuml(render_plantuml(scope["new_model"]))
    assert check(design, parse_code(scope["new_code"]).model
                 ).error_findings() == ()


def test_configuration_example_loads(tmp_path):
    path = tmp_path / "modelsync.conf"
    path.write_text(_block("Configuration", "ini"), encoding="utf-8")
    assert load_config(path) == Config(
        name_mode="canonical", rename_threshold=0.3,
        type_equivalences=(("Integer", "int"), ("Text", "str")),
        policy="union", preferred_side="model", fixtures_dir="fixtures/llm",
        llm_endpoint="https://api.openai.com/v1/chat/completions",
        llm_model="gpt-4-0613")
