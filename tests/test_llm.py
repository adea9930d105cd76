from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from modelsync.errors import (GenerationUnparsableError, MissingInputError,
                              NoBlockFoundError, TransportError)
from modelsync.llm import (HTTP_ATTEMPTS, HTTP_TIMEOUT_S, ChatRequest,
                           ChatResponse, FixtureTransport, HttpTransport,
                           PromptKind, build_prompt, extract_block,
                           gen_code, gen_model, llm_sync_suggest,
                           make_request, record_exchange, request_key)
from modelsync.model import model_equal
from modelsync.plantuml import parse_plantuml
from modelsync.pycode import parse_code


class StubTransport:
    def __init__(self, content: str):
        self.content = content

    def send(self, request: ChatRequest) -> ChatResponse:
        return ChatResponse(self.content)


def test_build_prompt_class_diagram(problem_text):
    prompt = build_prompt(PromptKind.GEN_CLASS_DIAGRAM, problem=problem_text)
    assert "create the class diagram in PlantUML format in detail" in prompt
    assert prompt.startswith("#Problem:")
    assert "#Instruction:" in prompt


def test_build_prompt_sync_check():
    prompt = build_prompt(PromptKind.SYNC_CHECK, model="@startuml...",
                          code="class A: ...")
    assert prompt.startswith("Check if the changes between")
    assert "----" in prompt
    assert "#Design Model in PlantUML:" in prompt
    assert "#Python Code:" in prompt


def test_build_prompt_byte_stable(problem_text):
    a = build_prompt(PromptKind.GEN_CODE, problem=problem_text)
    b = build_prompt(PromptKind.GEN_CODE, problem=problem_text)
    assert a == b


def test_build_prompt_missing_input():
    with pytest.raises(MissingInputError):
        build_prompt(PromptKind.GEN_CODE, problem="")
    with pytest.raises(MissingInputError):
        build_prompt(PromptKind.SYNC_CHECK, model="x", code="")


def test_request_defaults():
    request = make_request(PromptKind.GEN_CODE, {"problem": "p"})
    assert request.model == "gpt-4-0613"
    assert request.temperature == 0.0
    assert request.messages[0].role == "user"


def test_request_key_depends_on_content():
    a = make_request(PromptKind.GEN_CODE, {"problem": "p"})
    b = make_request(PromptKind.GEN_CODE, {"problem": "q"})
    assert request_key(a) != request_key(b)
    assert request_key(a) == request_key(
        ChatRequest(a.model, a.temperature, a.messages))


def test_extract_block_fenced_code():
    text = "prose\n```python\nclass A:\n    pass\n```\nmore prose"
    assert extract_block(text, "code") == "class A:\n    pass\n"


def test_extract_block_plantuml_fence_preferred():
    text = "```plantuml\n@startuml\n@enduml\n```"
    assert extract_block(text, "plantuml") == "@startuml\n@enduml\n"


def test_extract_block_bare_region_fallback():
    text = "look:\n@startuml\nclass A {\n}\n@enduml\ndone"
    block = extract_block(text, "plantuml")
    assert block.startswith("@startuml")
    assert block.endswith("@enduml")


def test_extract_block_none_found():
    with pytest.raises(NoBlockFoundError):
        extract_block("no code here", "code")


def test_extract_block_picks_first_matching_fence(fixtures_dir):
    text = (fixtures_dir / "responses" / "sync_response.txt").read_text()
    block = extract_block(text, "plantuml")
    assert "class User" in block
    code = extract_block(text, "code")
    assert "def __init__(self, userID:str):" in code


def test_fixture_transport_replays(llm_fixtures_dir, problem_text):
    transport = FixtureTransport(llm_fixtures_dir)
    request = make_request(PromptKind.GEN_CLASS_DIAGRAM,
                           {"problem": problem_text})
    first = transport.send(request)
    second = transport.send(request)
    assert first == second
    assert "@startuml" in first.content


def test_fixture_transport_misses_unknown_request(llm_fixtures_dir):
    transport = FixtureTransport(llm_fixtures_dir)
    with pytest.raises(TransportError):
        transport.send(make_request(PromptKind.GEN_CODE,
                                    {"problem": "unrecorded"}))


def test_fixture_transport_missing_dir(tmp_path):
    with pytest.raises(TransportError):
        FixtureTransport(tmp_path / "nope")


def test_record_exchange_round_trips(tmp_path):
    request = make_request(PromptKind.GEN_CODE, {"problem": "p"})
    record_exchange(tmp_path / "x.json", request, ChatResponse("hi"))
    transport = FixtureTransport(tmp_path)
    assert transport.send(request).content == "hi"
    data = json.loads((tmp_path / "x.json").read_text())
    assert data["key"] == request_key(request)


def test_gen_model_from_fixtures(llm_fixtures_dir, problem_text,
                                 v2_model_text):
    transport = FixtureTransport(llm_fixtures_dir)
    model = gen_model(problem_text, transport)
    assert len(model.classes) == 6
    assert model_equal(model, parse_plantuml(v2_model_text).model)


def test_gen_code_from_fixtures(llm_fixtures_dir, problem_text):
    transport = FixtureTransport(llm_fixtures_dir)
    code = gen_code(problem_text, transport)
    model = parse_code(code).model
    assert len(model.classes) >= 3


def test_gen_model_empty_response():
    with pytest.raises(NoBlockFoundError):
        gen_model("problem", StubTransport(""))


def test_gen_model_corrupted_response(v2_model_text):
    corrupted = v2_model_text.replace("class Library {", "clazz Library {", 1)
    with pytest.raises(GenerationUnparsableError) as err:
        gen_model("problem", StubTransport(corrupted))
    assert "clazz" in err.value.raw


def test_gen_code_corrupted_response(v2_code_text):
    mangled = v2_code_text.replace("def add_user(self, name, phone):",
                                   "def add_user(self, name phone):", 1)
    corrupted = f"```python\n{mangled}```"
    with pytest.raises(GenerationUnparsableError):
        gen_code("problem", StubTransport(corrupted))


def test_generated_model_survives_rendering(llm_fixtures_dir, problem_text):
    from modelsync.plantuml import render_plantuml
    transport = FixtureTransport(llm_fixtures_dir)
    model = gen_model(problem_text, transport)
    assert model_equal(parse_plantuml(render_plantuml(model)).model, model)


def test_llm_sync_suggest_replays(llm_fixtures_dir, drifted_model_text,
                                  drifted_code_text):
    transport = FixtureTransport(llm_fixtures_dir)
    first = llm_sync_suggest(drifted_model_text, drifted_code_text,
                             transport)
    second = llm_sync_suggest(drifted_model_text, drifted_code_text,
                              transport)
    assert first == second
    assert "Proposed corrections:" in first
    assert "Choose either correction 2 or 3" in first


def test_combined_generation_fixture_extracts_both(llm_fixtures_dir,
                                                   problem_text,
                                                   v1_model_text,
                                                   v1_code_text):
    transport = FixtureTransport(llm_fixtures_dir)
    request = make_request(PromptKind.GEN_MODEL_AND_CODE,
                           {"problem": problem_text})
    response = transport.send(request)
    model = parse_plantuml(extract_block(response.content, "plantuml")).model
    assert model_equal(model, parse_plantuml(v1_model_text).model)
    code_model = parse_code(extract_block(response.content, "code")).model
    assert model_equal(code_model, parse_code(v1_code_text).model)


def _failing_post(exc: Exception):
    calls = []

    def post(url, json=None, headers=None, timeout=None):
        calls.append(url)
        raise exc
    return post, calls


def test_http_transport_retries_then_fails():
    post, calls = _failing_post(TimeoutError("too slow"))
    naps = []
    transport = HttpTransport("https://example.invalid/chat",
                              api_key="k", post=post, sleep=naps.append)
    with pytest.raises(TransportError):
        transport.send(make_request(PromptKind.GEN_CODE, {"problem": "p"}))
    assert len(calls) == HTTP_ATTEMPTS
    assert naps == [1.0, 2.0]  # exponential backoff between attempts


def test_http_transport_parses_completion_shape():
    class Resp:
        status_code = 200

        @staticmethod
        def json():
            return {"choices": [{"message": {"content": "hello"}}]}

    def post(url, json=None, headers=None, timeout=None):
        assert timeout == HTTP_TIMEOUT_S
        assert headers["Authorization"] == "Bearer secret"
        assert json["temperature"] == 0.0
        return Resp()

    transport = HttpTransport("https://example.invalid/chat",
                              api_key="secret", post=post,
                              sleep=lambda s: None)
    response = transport.send(make_request(PromptKind.GEN_CODE,
                                           {"problem": "p"}))
    assert response.content == "hello"


def test_http_transport_non_200_retries():
    class Resp:
        status_code = 500

        @staticmethod
        def json():
            return {}

    attempts = []

    def post(url, **kwargs):
        attempts.append(url)
        return Resp()

    transport = HttpTransport("https://example.invalid/chat", api_key="k",
                              post=post, sleep=lambda s: None)
    with pytest.raises(TransportError):
        transport.send(make_request(PromptKind.GEN_CODE, {"problem": "p"}))
    assert len(attempts) == HTTP_ATTEMPTS


@pytest.fixture()
def loopback_endpoint(monkeypatch):
    """A chat endpoint on 127.0.0.1: answers 200 on /ok, 503 elsewhere,
    and records each request's path, headers and JSON body."""
    for var in ("no_proxy", "NO_PROXY"):
        monkeypatch.setenv(var, "127.0.0.1")
    seen = []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            seen.append((self.path, dict(self.headers), json.loads(body)))
            status = 200 if self.path == "/ok" else 503
            payload = json.dumps(
                {"choices": [{"message": {"content": "hi"}}]}).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", seen
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_http_transport_default_post_round_trip(loopback_endpoint):
    base, seen = loopback_endpoint
    request = make_request(PromptKind.GEN_CODE, {"problem": "p"})
    transport = HttpTransport(base + "/ok", api_key="secret")
    assert transport.send(request).content == "hi"
    (path, headers, body), = seen
    assert headers["Authorization"] == "Bearer secret"
    assert body == request.to_json()


def test_http_transport_default_post_maps_http_errors(loopback_endpoint):
    base, seen = loopback_endpoint
    transport = HttpTransport(base + "/busy", api_key="k",
                              sleep=lambda s: None)
    with pytest.raises(TransportError, match="HTTP 503"):
        transport.send(make_request(PromptKind.GEN_CODE, {"problem": "p"}))
    assert len(seen) == HTTP_ATTEMPTS
