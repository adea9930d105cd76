from __future__ import annotations

import importlib.util
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from modelsync import llm
from modelsync.errors import (GenerationUnparsableError, MissingInputError,
                              NoBlockFoundError, TransportError)
from modelsync.llm import (HTTP_ATTEMPTS, HTTP_TIMEOUT_S, ChatRequest,
                           FixtureTransport, HttpTransport, PromptKind,
                           build_prompt, extract_block, gen_code, gen_model,
                           make_request, request_key)
from modelsync.model import model_equal
from modelsync.plantuml import parse_plantuml

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def fixture_script():
    """scripts/build_llm_fixtures.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "build_llm_fixtures", ROOT / "scripts" / "build_llm_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class StubTransport:
    def __init__(self, content: str):
        self.content = content

    def send(self, request: ChatRequest) -> str:
        return self.content


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
    assert "@startuml" in first


def test_fixture_transport_misses_unknown_request(llm_fixtures_dir):
    transport = FixtureTransport(llm_fixtures_dir)
    with pytest.raises(TransportError):
        transport.send(make_request(PromptKind.GEN_CODE,
                                    {"problem": "unrecorded"}))


def test_fixture_transport_missing_dir(tmp_path):
    with pytest.raises(TransportError):
        FixtureTransport(tmp_path / "nope")


def test_record_exchange_round_trips(tmp_path, fixture_script):
    request = make_request(PromptKind.GEN_CODE, {"problem": "p"})
    key = fixture_script.record_exchange(tmp_path / "x.json", request, "hi")
    transport = FixtureTransport(tmp_path)
    assert transport.send(request) == "hi"
    data = json.loads((tmp_path / "x.json").read_text())
    assert data["key"] == key == request_key(request)


def test_recorded_fixtures_match_the_script(llm_fixtures_dir, fixture_script):
    """Each committed exchange is the script's request, under its key, with
    the text of its response file; nothing else is in either directory."""
    exchanges = fixture_script.exchanges()
    responses = fixture_script.RESPONSES
    assert sorted(p.name for p in llm_fixtures_dir.iterdir()) == \
        sorted(name for name, _, _ in exchanges)
    assert sorted(responses.iterdir()) == \
        sorted(response for _, _, response in exchanges)
    for name, request, response in exchanges:
        data = json.loads((llm_fixtures_dir / name).read_text("utf-8"))
        assert data == {"key": request_key(request),
                        "request": request.to_json(),
                        "response": {"content": response.read_text("utf-8")}}


def test_gen_model_from_fixtures(llm_fixtures_dir, problem_text,
                                 v2_model_text):
    transport = FixtureTransport(llm_fixtures_dir)
    model = gen_model(problem_text, transport)
    assert len(model.classes) == 6
    assert model_equal(model, parse_plantuml(v2_model_text).model)


def test_gen_code_from_fixtures(llm_fixtures_dir, problem_text):
    transport = FixtureTransport(llm_fixtures_dir)
    doc = gen_code(problem_text, transport, artifact="out/code.py")
    assert len(doc.model.classes) >= 3
    assert doc.artifact == "out/code.py"
    answer = transport.send(make_request(PromptKind.GEN_CODE,
                                         {"problem": problem_text}))
    assert doc.raw_text == extract_block(answer, "code")


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
                                  drifted_code_text, monkeypatch):
    transport = FixtureTransport(llm_fixtures_dir)
    inputs = {"model": drifted_model_text, "code": drifted_code_text}
    first = transport.send(make_request(PromptKind.SYNC_CHECK, inputs))
    second = transport.send(make_request(PromptKind.SYNC_CHECK, inputs))
    assert first == second
    assert "Proposed corrections:" in first
    assert "Choose either correction 2 or 3" in first
    # the key hashes the whole prompt, so a drifted template misses it
    monkeypatch.setattr(llm, "_SYNC_CHECK_TEMPLATE",
                        llm._SYNC_CHECK_TEMPLATE + " ")
    with pytest.raises(TransportError, match="no recorded exchange"):
        transport.send(make_request(PromptKind.SYNC_CHECK, inputs))


def _failing_post(exc: Exception):
    calls = []

    def post(url, data, headers, timeout):
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
    def post(url, data, headers, timeout):
        assert timeout == HTTP_TIMEOUT_S
        assert headers["Authorization"] == "Bearer secret"
        assert json.loads(data)["temperature"] == 0.0
        return 200, b'{"choices": [{"message": {"content": "hello"}}]}'

    transport = HttpTransport("https://example.invalid/chat",
                              api_key="secret", post=post,
                              sleep=lambda s: None)
    response = transport.send(make_request(PromptKind.GEN_CODE,
                                           {"problem": "p"}))
    assert response == "hello"


def test_http_transport_non_200_retries():
    attempts = []

    def post(url, data, headers, timeout):
        attempts.append(url)
        return 500, b"{}"

    transport = HttpTransport("https://example.invalid/chat", api_key="k",
                              post=post, sleep=lambda s: None)
    with pytest.raises(TransportError):
        transport.send(make_request(PromptKind.GEN_CODE, {"problem": "p"}))
    assert len(attempts) == HTTP_ATTEMPTS


@pytest.mark.parametrize("body", [
    b"<html>busy</html>", b"\xff", b"[1,2]", b'{"choices": []}',
    b'{"choices": [null]}', b'{"choices": [{"message": null}]}',
    b'{"choices": [{"message": {}}]}',
    b'{"choices": [{"message": {"content": null}}]}',
    b'{"choices": [{"message": {"content": 5}}]}'])
def test_http_transport_malformed_answer_is_a_failed_attempt(body):
    attempts = []
    naps = []

    def post(url, data, headers, timeout):
        attempts.append(url)
        return 200, body

    transport = HttpTransport("https://example.invalid/chat", api_key="k",
                              post=post, sleep=naps.append)
    with pytest.raises(TransportError, match="malformed completion"):
        transport.send(make_request(PromptKind.GEN_CODE, {"problem": "p"}))
    assert len(attempts) == HTTP_ATTEMPTS
    assert naps == [1.0, 2.0]


@pytest.fixture()
def loopback_endpoint(monkeypatch):
    """A chat endpoint on 127.0.0.1: answers 200 on /ok, 200 with a body
    that is not JSON on /garbled, 503 elsewhere, and records each request's
    path, headers and JSON body."""
    for var in ("no_proxy", "NO_PROXY"):
        monkeypatch.setenv(var, "127.0.0.1")
    seen = []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            seen.append((self.path, dict(self.headers), json.loads(body)))
            status = 200 if self.path in ("/ok", "/garbled") else 503
            payload = b"<html>" if self.path == "/garbled" else json.dumps(
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
    assert transport.send(request) == "hi"
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


def test_gen_exits_four_on_a_garbled_answer(capsys, monkeypatch, tmp_path,
                                            loopback_endpoint, fixtures_dir):
    from modelsync.cli import main
    base, seen = loopback_endpoint
    monkeypatch.setattr("time.sleep", lambda s: None)
    conf = tmp_path / "modelsync.conf"
    conf.write_text(f"llm_endpoint = {base}/garbled\n", encoding="utf-8")
    out_dir = tmp_path / "gen"
    status = main(["gen", str(fixtures_dir / "library_problem.txt"),
                   "--transport", "live", "--config", str(conf),
                   "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert status == 4
    assert err.startswith("generation failed: request failed after 3 "
                          "attempt(s): malformed completion: JSONDecodeError")
    assert len(seen) == HTTP_ATTEMPTS
    assert list(out_dir.iterdir()) == []
