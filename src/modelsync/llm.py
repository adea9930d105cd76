"""Chat-completion bridge for generating models and code from requirements.

Prompts are byte-stable template instantiations.  Requests travel through a
pluggable transport: :class:`HttpTransport` talks to a chat-completion
endpoint; :class:`FixtureTransport` replays recorded exchanges keyed by a
content hash of the full request, so the whole pipeline runs offline and
any drift in a template immediately misses its fixture.

Responses are advisory text; model/code blocks are extracted and parsed by
the deterministic toolchain, never trusted blindly.
"""

from __future__ import annotations

import json
import os
import re
import time
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .errors import (GenerationUnparsableError, MissingInputError,
                     NoBlockFoundError, ParseError, TransportError)
from .model import ClassModel, sha256_hex
from .plantuml import parse_plantuml
from .pycode import CodeDocument, parse_code

DEFAULT_MODEL_NAME = "gpt-4-0613"
DEFAULT_TEMPERATURE = 0.0
API_KEY_ENV_VAR = "MODELSYNC_LLM_KEY"
HTTP_TIMEOUT_S = 30.0
HTTP_ATTEMPTS = 3
HTTP_BACKOFF_S = 1.0  # before the first retry; doubles on each one


class PromptKind(Enum):
    GEN_CLASS_DIAGRAM = "gen-class-diagram"
    GEN_CODE = "gen-code"
    SYNC_CHECK = "sync-check"


_PROBLEM_TEMPLATE = """#Problem:
{problem}

#Instruction:
For the above #problem, {instruction}"""

_INSTRUCTIONS = {
    PromptKind.GEN_CLASS_DIAGRAM: (
        "create the class diagram in PlantUML format in detail."),
    PromptKind.GEN_CODE: (
        "create the code in python language in detail."),
}

_SYNC_CHECK_TEMPLATE = """Check if the changes between design models and \
Python code are synchronized, and if there are inconsistencies, propose \
corrections for both the design models and Python code.
----
#Design Model in PlantUML:
{model}

#Python Code:
{code}"""


def build_prompt(kind: PromptKind, **inputs: str) -> str:
    """Instantiate the template for ``kind``; byte-stable for fixed inputs."""
    if kind is PromptKind.SYNC_CHECK:
        model = inputs.get("model", "")
        code = inputs.get("code", "")
        if not model.strip() or not code.strip():
            raise MissingInputError(
                "sync-check needs both 'model' and 'code' inputs")
        return _SYNC_CHECK_TEMPLATE.format(model=model, code=code)
    problem = inputs.get("problem", "")
    if not problem.strip():
        raise MissingInputError(f"{kind.value} needs a 'problem' input")
    return _PROBLEM_TEMPLATE.format(problem=problem,
                                    instruction=_INSTRUCTIONS[kind])


class ChatMessage(NamedTuple):
    role: str
    content: str


class ChatRequest(NamedTuple):
    model: str = DEFAULT_MODEL_NAME
    temperature: float = DEFAULT_TEMPERATURE
    messages: tuple[ChatMessage, ...] = ()

    def to_json(self) -> dict:
        return {"model": self.model, "temperature": self.temperature,
                "messages": [{"role": m.role, "content": m.content}
                             for m in self.messages]}


def make_request(kind: PromptKind, inputs: dict[str, str],
                 model_name: str = DEFAULT_MODEL_NAME) -> ChatRequest:
    prompt = build_prompt(kind, **inputs)
    return ChatRequest(model_name, DEFAULT_TEMPERATURE,
                       (ChatMessage("user", prompt),))


def request_key(request: ChatRequest) -> str:
    """Content hash of the full request; the fixture lookup key."""
    return _json_key(request.to_json())


def _json_key(data) -> str:
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return sha256_hex(canonical.encode("utf-8"))


def _recorded_answer(data) -> tuple[str, str]:
    """The key and answer text of one recorded exchange, ``{"key",
    "request", "response": {"content"}}``; ValueError when ``data`` is not
    one, or its key is not the hash of its request."""
    key = data.get("key") if isinstance(data, dict) else None
    if not isinstance(key, str) or key != _json_key(data.get("request")):
        raise ValueError("not a JSON object whose 'key' hashes its 'request'")
    response = data.get("response")
    content = response.get("content") if isinstance(response, dict) else None
    if not isinstance(content, str):
        raise ValueError("'response.content' is missing or not a string")
    return key, content


class FixtureTransport:
    """Replays recorded exchanges; deterministic and fully offline."""

    def __init__(self, fixtures_dir: str | Path):
        self.fixtures_dir = Path(fixtures_dir)
        self._answers: dict[str, str] = {}
        if not self.fixtures_dir.is_dir():
            raise TransportError(
                f"fixtures directory {self.fixtures_dir} does not exist")
        for file in sorted(self.fixtures_dir.glob("*.json")):
            try:
                key, content = _recorded_answer(
                    json.loads(file.read_text(encoding="utf-8")))
            except ValueError as exc:
                raise TransportError(f"bad fixture {file}: {exc}") from exc
            self._answers[key] = content

    def send(self, request: ChatRequest) -> str:
        key = request_key(request)
        answer = self._answers.get(key)
        if answer is None:
            raise TransportError(
                f"no recorded exchange for request key {key}")
        return answer


def _urllib_post(url: str, data: bytes, headers: dict[str, str],
                 timeout: float) -> tuple[int, bytes]:
    """POST ``data`` with the standard library; the status and the body.

    An HTTP error status comes back with an empty body; connection
    failures raise OSError (``URLError`` is one).
    """
    import http.client
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, data=data, headers=headers,
                                     method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        exc.close()
        return exc.code, b""
    except http.client.HTTPException as exc:
        raise ConnectionError(f"malformed HTTP exchange: {exc!r}") from exc


class HttpTransport:
    """Talks to a chat-completion endpoint with a timeout and bounded,
    exponentially backed-off retries (``HTTP_*`` above).

    The bearer token is read from the ``MODELSYNC_LLM_KEY`` environment
    variable unless given explicitly.  ``post`` and ``sleep`` are
    injectable for tests; ``post(url, data, headers, timeout)`` returns
    ``(status, body)``.
    """

    def __init__(self, endpoint: str, api_key: str | None = None,
                 post=None, sleep=None):
        self.endpoint = endpoint
        self.api_key = api_key if api_key is not None \
            else os.environ.get(API_KEY_ENV_VAR, "")
        self._post = post or _urllib_post
        self._sleep = sleep or time.sleep

    def send(self, request: ChatRequest) -> str:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        data = json.dumps(request.to_json()).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(HTTP_ATTEMPTS):
            if attempt:
                self._sleep(HTTP_BACKOFF_S * (2 ** (attempt - 1)))
            try:
                status, body = self._post(self.endpoint, data, headers,
                                          HTTP_TIMEOUT_S)
            except OSError as exc:  # TimeoutError and URLError included
                last_error = exc
                continue
            if status != 200:
                last_error = TransportError(
                    f"endpoint returned HTTP {status}")
                continue
            try:
                answer = json.loads(body)["choices"][0]["message"]["content"]
            except (ValueError, LookupError, TypeError) as exc:
                answer = exc
            if isinstance(answer, str):
                return answer
            # a body that is no completion counts as a failed attempt
            last_error = ValueError(f"malformed completion: {answer!r}")
        raise TransportError(
            f"request failed after {HTTP_ATTEMPTS} attempt(s): {last_error}")


_FENCE_RE = re.compile(r"```(\w+)?[ \t]*\n(.*?)```", re.DOTALL)

_BLOCK_LANGUAGES = {"plantuml": ("plantuml",), "code": ("python",)}


def extract_block(response: str, tag: str) -> str:
    """First fenced block for ``tag``; for plantuml, a bare region counts.

    ``tag`` is ``plantuml`` or ``code``.  Surrounding prose is discarded.
    """
    languages = _BLOCK_LANGUAGES[tag]
    for match in _FENCE_RE.finditer(response):
        if (match.group(1) or "").lower() in languages:
            return match.group(2)
    if tag == "plantuml":
        region = re.search(r"^[ \t]*@startuml[ \t]*$.*?^[ \t]*@enduml[ \t]*$",
                           response, re.DOTALL | re.MULTILINE)
        if region:
            return region.group(0)
    raise NoBlockFoundError(f"response contains no {tag} block")


def _generate(kind: PromptKind, tag: str, noun: str, parse,
              requirements: str, transport, model_name: str, artifact: str):
    """Requirements -> prompt -> transport -> the answer's ``tag`` block,
    parsed once by ``parse`` under ``artifact``."""
    request = make_request(kind, {"problem": requirements}, model_name)
    block = extract_block(transport.send(request), tag)
    try:
        return parse(block, artifact=artifact)
    except ParseError as exc:
        raise GenerationUnparsableError(
            f"generated {noun} does not parse: {exc}", block) from exc


def gen_model(requirements: str, transport,
              model_name: str = DEFAULT_MODEL_NAME) -> ClassModel:
    """The class model generated for ``requirements``."""
    return _generate(PromptKind.GEN_CLASS_DIAGRAM, "plantuml", "model",
                     parse_plantuml, requirements, transport, model_name,
                     "generated-model").model


def gen_code(requirements: str, transport,
             model_name: str = DEFAULT_MODEL_NAME,
             artifact: str = "generated-code") -> CodeDocument:
    """The code generated for ``requirements``, parsed under ``artifact``;
    its ``raw_text`` is the answer's code block."""
    return _generate(PromptKind.GEN_CODE, "code", "code", parse_code,
                     requirements, transport, model_name, artifact)

