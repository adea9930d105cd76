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
from .pycode import parse_code

DEFAULT_MODEL_NAME = "gpt-4-0613"
DEFAULT_TEMPERATURE = 0.0
API_KEY_ENV_VAR = "MODELSYNC_LLM_KEY"
HTTP_TIMEOUT_S = 30.0
HTTP_ATTEMPTS = 3
HTTP_BACKOFF_S = 1.0  # before the first retry; doubles on each one


class PromptKind(Enum):
    GEN_MODEL_AND_CODE = "gen-model-and-code"
    GEN_CLASS_DIAGRAM = "gen-class-diagram"
    GEN_CODE = "gen-code"
    SYNC_CHECK = "sync-check"


_PROBLEM_TEMPLATE = """#Problem:
{problem}

#Instruction:
For the above #problem, {instruction}"""

_INSTRUCTIONS = {
    PromptKind.GEN_MODEL_AND_CODE: (
        "create the design model in PlantUML format and the code in Python "
        "language in detail and present a method by using ChatGPT to ensure "
        "bidirectional traceability between them. The traceability refers "
        "to the situation where when the model is changed, the "
        "corresponding code is changed in sync, and vice versa."),
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


class ChatResponse(NamedTuple):
    content: str


class ChatExchange(NamedTuple):
    key: str
    request: ChatRequest
    response: ChatResponse


def make_request(kind: PromptKind, inputs: dict[str, str],
                 model_name: str = DEFAULT_MODEL_NAME,
                 temperature: float = DEFAULT_TEMPERATURE) -> ChatRequest:
    prompt = build_prompt(kind, **inputs)
    return ChatRequest(model_name, temperature,
                       (ChatMessage("user", prompt),))


def request_key(request: ChatRequest) -> str:
    """Content hash of the full request; the fixture lookup key."""
    canonical = json.dumps(request.to_json(), sort_keys=True,
                           separators=(",", ":"))
    return sha256_hex(canonical.encode("utf-8"))


def exchange_to_json(exchange: ChatExchange) -> dict:
    return {"key": exchange.key,
            "request": exchange.request.to_json(),
            "response": {"content": exchange.response.content}}


def exchange_from_json(data: dict) -> ChatExchange:
    req = data["request"]
    request = ChatRequest(
        req["model"], req["temperature"],
        tuple(ChatMessage(m["role"], m["content"])
              for m in req["messages"]))
    return ChatExchange(data["key"], request,
                        ChatResponse(data["response"]["content"]))


def record_exchange(path: Path, request: ChatRequest,
                    response: ChatResponse) -> ChatExchange:
    """Write one replayable exchange file keyed by the request hash."""
    exchange = ChatExchange(request_key(request), request, response)
    path.write_text(json.dumps(exchange_to_json(exchange), indent=2) + "\n",
                    encoding="utf-8")
    return exchange


class FixtureTransport:
    """Replays recorded exchanges; deterministic and fully offline."""

    def __init__(self, fixtures_dir: str | Path):
        self.fixtures_dir = Path(fixtures_dir)
        self._exchanges: dict[str, ChatExchange] = {}
        if not self.fixtures_dir.is_dir():
            raise TransportError(
                f"fixtures directory {self.fixtures_dir} does not exist")
        for file in sorted(self.fixtures_dir.glob("*.json")):
            try:
                exchange = exchange_from_json(
                    json.loads(file.read_text(encoding="utf-8")))
            except (KeyError, ValueError) as exc:
                raise TransportError(f"bad fixture {file}: {exc}") from exc
            self._exchanges[exchange.key] = exchange

    def send(self, request: ChatRequest) -> ChatResponse:
        key = request_key(request)
        exchange = self._exchanges.get(key)
        if exchange is None:
            raise TransportError(
                f"no recorded exchange for request key {key}")
        return exchange.response


class _HttpResponse:
    """The two members of an HTTP response that HttpTransport reads."""

    def __init__(self, status_code: int, body: bytes = b""):
        self.status_code = status_code
        self._body = body

    def json(self):
        return json.loads(self._body)


def _json_body(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _urllib_post(url: str, json=None, headers=None,
                 timeout: float | None = None) -> _HttpResponse:
    """POST a JSON payload with the standard library.

    An HTTP error status comes back as a response carrying that status;
    connection failures raise OSError (``URLError`` is one).
    """
    import http.client
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, data=_json_body(json),
                                     headers=headers or {}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return _HttpResponse(resp.status, resp.read())
    except urllib.error.HTTPError as exc:
        exc.close()
        return _HttpResponse(exc.code)
    except http.client.HTTPException as exc:
        raise ConnectionError(f"malformed HTTP exchange: {exc!r}") from exc


class HttpTransport:
    """Talks to a chat-completion endpoint with a timeout and bounded,
    exponentially backed-off retries (``HTTP_*`` above).

    The bearer token is read from the ``MODELSYNC_LLM_KEY`` environment
    variable unless given explicitly.  ``post`` and ``sleep`` are
    injectable for tests.
    """

    def __init__(self, endpoint: str, api_key: str | None = None,
                 post=None, sleep=None):
        self.endpoint = endpoint
        self.api_key = api_key if api_key is not None \
            else os.environ.get(API_KEY_ENV_VAR, "")
        self._post = post or _urllib_post
        self._sleep = sleep or time.sleep

    def send(self, request: ChatRequest) -> ChatResponse:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: Exception | None = None
        for attempt in range(HTTP_ATTEMPTS):
            if attempt:
                self._sleep(HTTP_BACKOFF_S * (2 ** (attempt - 1)))
            try:
                resp = self._post(self.endpoint, json=request.to_json(),
                                  headers=headers, timeout=HTTP_TIMEOUT_S)
            except OSError as exc:  # TimeoutError and URLError included
                last_error = exc
                continue
            status = getattr(resp, "status_code", 0)
            if status != 200:
                last_error = TransportError(
                    f"endpoint returned HTTP {status}")
                continue
            return ChatResponse(_response_content(resp.json()))
        raise TransportError(
            f"request failed after {HTTP_ATTEMPTS} attempt(s): {last_error}")


def _response_content(payload: dict) -> str:
    choices = payload.get("choices")
    if choices:
        return choices[0].get("message", {}).get("content", "") or ""
    return payload.get("content", "") or ""


_FENCE_RE = re.compile(r"```(\w+)?[ \t]*\n(.*?)```", re.DOTALL)

_BLOCK_LANGUAGES = {"plantuml": ("plantuml",), "code": ("python",)}


def extract_block(response: str, tag: str) -> str:
    """First fenced block for ``tag``; for plantuml, a bare region counts.

    ``tag`` is ``plantuml`` or ``code``.  Surrounding prose is discarded.
    """
    languages = _BLOCK_LANGUAGES.get(tag)
    if languages is None:
        raise ValueError(f"unknown block tag {tag!r}")
    for match in _FENCE_RE.finditer(response):
        if (match.group(1) or "").lower() in languages:
            return match.group(2)
    if tag == "plantuml":
        region = re.search(r"^[ \t]*@startuml[ \t]*$.*?^[ \t]*@enduml[ \t]*$",
                           response, re.DOTALL | re.MULTILINE)
        if region:
            return region.group(0)
    raise NoBlockFoundError(f"response contains no {tag} block")


def gen_model(requirements: str, transport,
              model_name: str = DEFAULT_MODEL_NAME) -> ClassModel:
    """Requirements -> prompt -> transport -> extracted, parsed model."""
    request = make_request(PromptKind.GEN_CLASS_DIAGRAM,
                           {"problem": requirements}, model_name)
    response = transport.send(request)
    block = extract_block(response.content, "plantuml")
    try:
        return parse_plantuml(block, artifact="generated-model").model
    except ParseError as exc:
        raise GenerationUnparsableError(
            f"generated model does not parse: {exc}", block) from exc


def gen_code(requirements: str, transport,
             model_name: str = DEFAULT_MODEL_NAME) -> str:
    """Requirements -> prompt -> transport -> extracted, validated code."""
    request = make_request(PromptKind.GEN_CODE, {"problem": requirements},
                           model_name)
    response = transport.send(request)
    block = extract_block(response.content, "code")
    try:
        parse_code(block, artifact="generated-code")
    except ParseError as exc:
        raise GenerationUnparsableError(
            f"generated code does not parse: {exc}", block) from exc
    return block


def llm_sync_suggest(model_text: str, code_text: str, transport,
                     model_name: str = DEFAULT_MODEL_NAME) -> str:
    """Raw advisory text for a pair; never parsed into edits."""
    request = make_request(PromptKind.SYNC_CHECK,
                           {"model": model_text, "code": code_text},
                           model_name)
    return transport.send(request).content
