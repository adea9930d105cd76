#!/usr/bin/env python3
"""Regenerate the recorded chat exchanges under fixtures/llm/.

Each exchange pairs the chat request that ``make_request`` builds from the
bundled sample inputs, a JSON object recorded as it is, with the recorded
response text in fixtures/responses/, keyed by the content hash of that
object.  Run from the repository root after changing prompt templates or
the sample inputs, then commit the refreshed fixtures.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from modelsync.llm import PromptKind, make_request, request_key

FIXTURES = ROOT / "fixtures"
LLM_DIR = FIXTURES / "llm"
RESPONSES = FIXTURES / "responses"


def exchanges() -> list[tuple[str, dict, Path]]:
    """Each fixture's file name, its request and its response file."""
    problem = (FIXTURES / "library_problem.txt").read_text(encoding="utf-8")
    drift_model = (FIXTURES / "library_v1_drifted_model.puml").read_text(
        encoding="utf-8")
    drift_code = (FIXTURES / "library_v1_drifted_code.py").read_text(
        encoding="utf-8")
    return [
        ("gen_model.json",
         make_request(PromptKind.GEN_CLASS_DIAGRAM, {"problem": problem}),
         RESPONSES / "model_response.txt"),
        ("gen_code.json",
         make_request(PromptKind.GEN_CODE, {"problem": problem}),
         RESPONSES / "code_response.txt"),
        ("sync_check.json",
         make_request(PromptKind.SYNC_CHECK,
                      {"model": drift_model, "code": drift_code}),
         RESPONSES / "sync_response.txt"),
    ]


def record_exchange(path: Path, request: dict, content: str) -> str:
    """Write one replayable exchange file; returns its key, the request's
    hash."""
    key = request_key(request)
    exchange = {"key": key, "request": request,
                "response": {"content": content}}
    path.write_text(json.dumps(exchange, indent=2) + "\n", encoding="utf-8")
    return key


def main() -> int:
    LLM_DIR.mkdir(parents=True, exist_ok=True)
    for filename, request, response_file in exchanges():
        key = record_exchange(LLM_DIR / filename, request,
                              response_file.read_text(encoding="utf-8"))
        print(f"recorded {filename} key={key[:16]}...")
    return 0


if __name__ == "__main__":
    sys.exit(main())
